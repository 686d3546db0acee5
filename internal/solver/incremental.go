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
// solver memoizes the *solved form* of each set node in an
// identity-keyed side table and derives a child's form from its
// parent's in time proportional to the new constraint's cone:
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
// This is the paper's §6 "Constraint Caches" taken to its limit: the
// cache key is the set itself, and the cached value is the entire
// preprocessed solver input.

// setState is the memoized solve state of one ConstraintSet node. It is
// derived incrementally from the parent node's state and cached in
// Solver.states. All fields are immutable once the state is published
// except the lazily stamped model.
type setState struct {
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
	// extension narrowed nothing (see interval.go). Queries consult it
	// as their first tier, before any cache or search.
	bounds boundsMap
	// model, when non-nil, is an assignment known to witness the
	// satisfiability of this set: it satisfies units and every solved
	// group (unsolved groups are independently satisfiable by the
	// exploration invariant — states only exist on feasible paths).
	// Fork evaluates branch conditions against it and CheckSat returns
	// it; never used for full-model (concretization) queries, which
	// must stay canonical. A model is shared — with child states, the
	// result cache and, when no search bound anything, the units map of
	// the set or of the query's extension — and never written.
	model expr.Assignment
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
// incrementally from the nearest cached ancestor (or the empty state).
// Derivation is a pure function of the Append chain, so two solvers
// that see the same chain — or one solver before and after an eviction
// — compute identical states; that determinism is what custody-exact
// replays are built on.
func (s *Solver) state(cs *ConstraintSet) *setState {
	if cs == nil {
		return s.empty
	}
	if st, ok := s.states[cs]; ok {
		atomic.AddUint64(&s.Stats.StateHits, 1)
		return st
	}
	// Walk up to the nearest cached ancestor, then extend back down.
	chain := s.chainScratch[:0]
	st := s.empty
	for n := cs; n != nil; n = n.parent {
		if c, ok := s.states[n]; ok {
			st = c
			break
		}
		chain = append(chain, n)
	}
	for i := len(chain) - 1; i >= 0; i-- {
		n := chain[i]
		parent := st
		st = s.extend(parent, n.c)
		s.seedModel(parent, n, st)
		s.putState(n, st)
	}
	s.chainScratch = chain[:0]
	return st
}

// seedModel stamps a witness model on a freshly derived state: the
// parent's witness if it already satisfies the new constraint, else the
// model cached by the branch query that introduced the constraint
// (MayBeTrue(parent, c) stores its model under exactly this key).
func (s *Solver) seedModel(parent *setState, n *ConstraintSet, st *setState) {
	if st.unsat || st.model != nil {
		return
	}
	if m := parent.model; m != nil {
		if v, ok := n.c.Eval(m); ok && v != 0 {
			st.model = m
			return
		}
	}
	var parentHash uint64
	if n.parent != nil {
		parentHash = n.parent.hash
	}
	key := parentHash*0x9e3779b97f4a7c15 ^ n.c.Hash()
	if e, ok := s.cache[key]; ok && e.sat && e.model != nil {
		st.model = e.model
	}
}

func (s *Solver) putState(cs *ConstraintSet, st *setState) {
	s.stateKeys = evictHalf(s.states, s.stateKeys, s.maxStates)
	if _, dup := s.states[cs]; !dup {
		s.stateKeys = append(s.stateKeys, cs)
	}
	s.states[cs] = st
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
		units:    parent.units,
		unitVars: parent.unitVars,
		groups:   parent.groups,
		bounds:   parent.bounds,
	}
	if len(st.units) > 0 {
		c = c.SubstConstsWith(st.units, st.unitVars)
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
				prev, ok := st.units[id]
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
		// New units: adopt them (copy-on-write), substitute them into
		// the surviving pool, and dissolve only the groups in their
		// cone — everything else is untouched by construction.
		if !unitsOwned {
			u := make(expr.Assignment, len(st.units)+len(gathered))
			for id, v := range st.units {
				u[id] = v
			}
			st.units = u
			unitsOwned = true
		}
		ids := s.idScratch[:0]
		for _, b := range gathered {
			st.units[b.id] = b.v
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
			next = flatten(e.SubstConstsWith(st.units, bound), next)
		}
		if !groupsOwned {
			st.groups = append(make([]*igroup, 0, len(st.groups)+1), st.groups...)
			groupsOwned = true
		}
		kept := st.groups[:0]
		for _, g := range st.groups {
			if g.vars.Intersects(bound) {
				for _, gc := range g.cons {
					next = flatten(gc.SubstConstsWith(st.units, bound), next)
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
