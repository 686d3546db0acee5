package solver

import (
	"sync/atomic"

	"cloud9/internal/expr"
)

// Incremental solve state. Path conditions are persistent parent-linked
// trees (ConstraintSet); execution extends them one constraint at a
// time, and every branch site queries the solver about the current set.
// Instead of re-flattening, re-unit-propagating and re-partitioning the
// whole set on each query (O(N) per query, O(N²) along a path), the
// solver memoizes the *solved form* of each set node on the node itself
// and derives a child's form from its parent's in time proportional to
// the new constraint's cone:
//
//   - unit propagation re-runs only over the constraints transitively
//     reachable from the new constraint's variables (dissolved groups),
//   - the independence partition is updated by merging the one or two
//     groups the new constraint touches, sharing every untouched group
//     pointer with the parent, and
//   - a witness model is inherited from the parent (or the branch query
//     that created the constraint) so Fork can often decide a direction
//     by evaluation alone.
//
// A branch query of cond against a set builds exactly the state the
// child node appending cond needs, so the query keeps its extension on
// the parent's state and the child adopts it instead of deriving it
// again.
//
// This is the paper's §6 "Constraint Caches" taken to its limit: the
// cache key is the set itself, and the cached value is the entire
// preprocessed solver input, reclaimed with the node.

// setState is the memoized solve state of one ConstraintSet node. It is
// derived incrementally from the parent node's state and kept in the
// node's memo slot. All fields are immutable once the state is
// published except the lazily stamped model and vars.
type setState struct {
	// owner derived the state; a solver answers only from its own.
	owner *Solver
	// unsat marks sets proven unsatisfiable by propagation alone
	// (constant-false residual or conflicting unit equalities).
	unsat bool
	// units holds the variables fixed by unit propagation
	// (Eq(const,var) facts and their transitive consequences). Shared
	// with the parent state when extending added no units.
	units    expr.Assignment
	unitVars *expr.VarSet
	// groups is the independence partition of the residual (non-unit)
	// constraints, with units substituted away. Untouched groups are
	// pointer-shared with the parent state.
	groups []*igroup
	// bounds is the per-variable interval abstraction of this set: a
	// sound over-approximation of its solutions, derived incrementally
	// alongside units/groups and shared with the parent state when the
	// extension tightened no bound (see interval.go). Fork consults it
	// first, before any cache or search, and extend proves empty
	// extensions unsat with it.
	bounds boundsMap
	// model, when non-nil, is an assignment known to witness the
	// satisfiability of this set: it satisfies units and every solved
	// group (unsolved groups are independently satisfiable by the
	// exploration invariant — states only exist on feasible paths).
	// Fork evaluates branch conditions against it and a check of the
	// set itself returns it; never used for full-model (concretization)
	// queries, which must stay canonical. A kept extension's model is its query's
	// until the child that adopts it finds the parent's satisfies the
	// new constraint too. A model is shared — with child states and,
	// when no search bound anything, the units of the set or of the
	// query's extension — and never written, not even in its spare
	// capacity.
	model expr.Assignment
	// vars, when non-nil, is every variable the set's constraints
	// mention, stamped by varsOf for full-model queries.
	vars *expr.VarSet
	// kids lists the extensions this state's satisfiable may-queries
	// built that no child node has adopted yet (see check and child). A
	// list, not a slot or two: a multiway decision queries several
	// conditions of one set.
	kids *handoff
}

// handoff is a satisfiable may-query's extension of a state by cond,
// with the query's model as its witness, kept until the child node that
// appends cond adopts it.
type handoff struct {
	cond *expr.Expr
	st   *setState
	next *handoff
}

// igroup is one independent group of the residual partition: residual
// constraints over a connected set of variables. Immutable once built.
type igroup struct {
	cons []*expr.Expr
	vars *expr.VarSet
	key  uint64 // order-insensitive hash of cons, the group-cache key
}

func groupHash(cons []*expr.Expr) uint64 {
	var h uint64
	for _, c := range cons {
		h += c.Hash() * 0x9e3779b97f4a7c15
	}
	return h
}

// state returns the memoized solve state for cs, deriving it
// incrementally from the nearest ancestor this solver stamped (or the
// empty state). Derivation is a pure function of the Append chain, so
// two solvers that see the same chain — or one solver before and after
// a node's memo was overwritten by another — compute identical states;
// that determinism is what custody-exact replays are built on.
func (s *Solver) state(cs *ConstraintSet) *setState {
	if cs == nil {
		return s.empty
	}
	if st := cs.memo; st != nil && st.owner == s {
		atomic.AddUint64(&s.Stats.StateHits, 1)
		return st
	}
	// Walk up to the nearest stamped ancestor, then extend back down.
	chain := s.chainScratch[:0]
	st := s.empty
	for n := cs; n != nil; n = n.parent {
		if m := n.memo; m != nil && m.owner == s {
			st = m
			break
		}
		chain = append(chain, n)
	}
	for i := len(chain) - 1; i >= 0; i-- {
		st = s.child(st, chain[i].c)
		chain[i].memo = st
	}
	// The scratch must not pin the nodes it walked.
	clear(chain)
	s.chainScratch = chain[:0]
	return st
}

// varsOf returns every variable cs mentions. It walks up only to the
// nearest node whose state, derived by s, already knows, and stamps the
// answer on each state of s it passes on the way back down. Extend does
// not maintain it: a union on every branch would cost what only
// full-model queries need.
func (s *Solver) varsOf(cs *ConstraintSet) *expr.VarSet {
	chain := s.chainScratch[:0]
	vs := noVars
	for n := cs; n != nil; n = n.parent {
		if m := n.memo; m != nil && m.owner == s && m.vars != nil {
			vs = m.vars
			break
		}
		chain = append(chain, n)
	}
	for i := len(chain) - 1; i >= 0; i-- {
		vs = vs.Union(chain[i].c.FreeVars())
		if m := chain[i].memo; m != nil && m.owner == s {
			m.vars = vs
		}
	}
	clear(chain)
	s.chainScratch = chain[:0]
	return vs
}

// noVars is the summary of a set that mentions no variable.
var noVars = expr.VarSetOf(nil)

// extendBy returns st extended by cond: the extension st keeps for a
// child, if an earlier query of cond found it satisfiable, else a fresh
// one.
func (s *Solver) extendBy(st *setState, cond *expr.Expr) *setState {
	for h := st.kids; h != nil; h = h.next {
		if h.cond == cond {
			return h.st
		}
	}
	return s.extend(st, cond)
}

// child derives the state of the node appending c to a set whose state
// is parent: the extension a query of c kept on parent, which the node
// now owns alone, else a fresh one. Its witness is parent's model if
// that satisfies c, else the query's.
func (s *Solver) child(parent *setState, c *expr.Expr) *setState {
	var st *setState
	for p := &parent.kids; *p != nil; p = &(*p).next {
		if (*p).cond == c {
			st, *p = (*p).st, (*p).next
			break
		}
	}
	if st == nil {
		st = s.extend(parent, c)
	}
	if st.unsat {
		return st
	}
	if m := parent.model; m != nil {
		if v, ok := c.Eval(m); ok && v != 0 {
			st.model = m
		}
	}
	return st
}

// extend derives the solve state of parent ∧ c without touching parent:
// it substitutes the known units into c, runs unit propagation to
// fixpoint over the new constraint's cone only (groups sharing
// variables with newly derived units are dissolved and re-propagated),
// and merges the residual into the partition by combining just the
// groups it touches. Untouched groups and, when no units were added,
// the unit assignment itself are shared with the parent.
func (s *Solver) extend(parent *setState, c *expr.Expr) *setState {
	if parent.unsat {
		return parent
	}
	atomic.AddUint64(&s.Stats.StateExtends, 1)
	st := &setState{
		owner:    s,
		units:    parent.units,
		unitVars: parent.unitVars,
		groups:   parent.groups,
		bounds:   parent.bounds,
	}
	if len(st.units) > 0 {
		c = c.Subst(st.units, st.unitVars)
	}
	pool := flatten(c, s.poolScratch[:0])
	unitsOwned, groupsOwned := false, false
	ref := boundsRefiner{b: parent.bounds}

	for len(pool) > 0 {
		// Scan the pool: fold constants, harvest unit equalities.
		gathered := s.unitScratch[:0]
		rest := pool[:0]
		for _, e := range pool {
			switch {
			case e.IsTrue():
				atomic.AddUint64(&s.Stats.UnitPropFolds, 1)
			case e.IsFalse():
				st.unsat = true
				s.poolScratch = pool[:0]
				return st
			case e.Op() == expr.OpEq && e.Kid(0).IsConst() && e.Kid(1).IsVar():
				id := e.Kid(1).VarID()
				v := uint8(e.Kid(0).ConstVal())
				prev, ok := st.units.Get(id)
				for _, b := range gathered {
					if b.id == id {
						prev, ok = b.v, true
					}
				}
				if ok && prev != v {
					st.unsat = true
					s.poolScratch = pool[:0]
					return st
				}
				if !ok {
					gathered = append(gathered, groupBinding{id, v})
				}
				atomic.AddUint64(&s.Stats.UnitPropFolds, 1)
			default:
				rest = append(rest, e)
			}
		}
		s.unitScratch = gathered[:0]
		if len(gathered) == 0 {
			pool = rest
			break
		}
		// New units: adopt them (copy-on-write, one allocation sized for
		// the round's largest id), substitute them into the surviving
		// pool, and dissolve only the groups in their cone — everything
		// else is untouched by construction.
		if !unitsOwned {
			n := uint64(len(st.units))
			for _, b := range gathered {
				n = max(n, b.id+1)
			}
			u := make(expr.Assignment, n)
			copy(u, st.units)
			st.units, unitsOwned = u, true
		}
		ids := s.idScratch[:0]
		for _, b := range gathered {
			st.units.Set(b.id, b.v)
			ids = append(ids, b.id)
			// A unit pins the variable's interval to a point. The
			// narrowings commute (interval intersection), so the order
			// does not affect the result.
			ref.narrowVar(b.id, ival{uint64(b.v), uint64(b.v)})
		}
		s.idScratch = ids[:0]
		if ref.conflict {
			// The unit lands outside bounds an earlier constraint
			// established: the extended set has an empty interval.
			atomic.AddUint64(&s.Stats.IntervalEmpty, 1)
			st.unsat = true
			s.poolScratch = pool[:0]
			return st
		}
		// Substituting st.units is substituting gathered: no residual
		// constraint mentions an older unit, and bound restricts the walk
		// to the new ones.
		bound := expr.VarSetOf(ids)
		st.unitVars = st.unitVars.Union(bound)
		next := s.poolScratch2[:0]
		for _, e := range rest {
			next = flatten(e.Subst(st.units, bound), next)
		}
		if !groupsOwned {
			st.groups = append(make([]*igroup, 0, len(st.groups)+1), st.groups...)
			groupsOwned = true
		}
		kept := st.groups[:0]
		for _, g := range st.groups {
			if g.vars.Intersects(bound) {
				for _, gc := range g.cons {
					next = flatten(gc.Subst(st.units, bound), next)
				}
			} else {
				kept = append(kept, g)
			}
		}
		st.groups = kept
		pool, s.poolScratch2 = next, pool[:0]
	}

	// Fixpoint reached: place the residual constraints, merging the
	// groups each one touches.
	for _, e := range pool {
		ev := e.FreeVars()
		if ev.Empty() {
			// Ground non-constant residuals cannot arise (constant
			// folding collapses them); skip defensively.
			continue
		}
		if !groupsOwned {
			st.groups = append(make([]*igroup, 0, len(st.groups)+1), st.groups...)
			groupsOwned = true
		}
		merged := &igroup{vars: ev}
		kept := st.groups[:0]
		for _, g := range st.groups {
			if g.vars.Intersects(merged.vars) {
				merged.cons = append(merged.cons, g.cons...)
				merged.vars = merged.vars.Union(g.vars)
			} else {
				kept = append(kept, g)
			}
		}
		merged.cons = append(merged.cons, e)
		merged.key = groupHash(merged.cons)
		st.groups = append(kept, merged)
	}
	s.poolScratch = pool[:0]

	// Refine the bounds from the groups this extension created or
	// rewrote (the ones not pointer-shared with the parent; surviving
	// parent groups keep their relative order, so a two-pointer
	// subsequence match identifies them). Parent-shared groups were
	// already propagated when their own extension built them.
	fresh := s.groupScratch[:0]
	inh := 0
	for _, g := range st.groups {
		shared := false
		for inh < len(parent.groups) {
			match := parent.groups[inh] == g
			inh++
			if match {
				shared = true
				break
			}
		}
		if !shared {
			fresh = append(fresh, g)
		}
	}
	if len(fresh) > 0 && !refineBounds(&ref, fresh) {
		atomic.AddUint64(&s.Stats.IntervalEmpty, 1)
		st.unsat = true
	}
	s.groupScratch = fresh[:0]
	st.bounds = ref.b
	return st
}
