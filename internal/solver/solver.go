package solver

import (
	"errors"
	"sort"
	"sync/atomic"

	"cloud9/internal/expr"
)

// ErrBudget is returned when the backtracking search exceeds the solver's
// backtrack budget (the analog of an SMT solver timeout). Callers should
// treat the query result as unknown. The error returned is a *BudgetError
// naming the search; test for it with errors.Is(err, ErrBudget).
var ErrBudget = errors.New("solver: backtrack budget exceeded")

// Stats counts solver activity. Fields are updated atomically; read them
// with Snapshot for a consistent view.
type Stats struct {
	Queries        uint64 // top-level satisfiability queries
	CacheHits      uint64 // answered from the result cache
	GroupCacheHits uint64 // independent groups answered from the group cache
	ForkQueries    uint64 // fused branch queries (Fork)
	ForkFastHits   uint64 // Fork directions decided by parent-model evaluation
	StateHits      uint64 // constraint-set states answered from the memo table
	StateExtends   uint64 // incremental state extensions performed
	SolverRuns     uint64 // group searches actually executed
	Backtracks     uint64 // value choices undone
	Unsat          uint64 // queries found unsatisfiable
	UnitPropFolds  uint64 // constraints discharged by unit propagation

	// Tier-3 forward checking (solveGroup's prune memo).
	PruneMemoHits   uint64 // prunes answered from the memo alone
	PruneMemoMisses uint64 // prunes that had to classify domain values
	PruneEvals      uint64 // residual evaluations those misses cost

	// Interval-abstraction tier (interval.go).
	IntervalSat      uint64 // queries answered sat: cond true on the whole interval box
	IntervalUnsat    uint64 // queries answered unsat: cond false on the whole interval box
	IntervalEmpty    uint64 // extensions proven unsat by an empty interval
	ForkIntervalHits uint64 // Forks with both directions decided by intervals
	IntervalSeeds    uint64 // group searches started from interval-narrowed domains
}

// Snapshot returns a consistent copy of the counters.
func (s *Stats) Snapshot() Stats {
	return Stats{
		Queries:        atomic.LoadUint64(&s.Queries),
		CacheHits:      atomic.LoadUint64(&s.CacheHits),
		GroupCacheHits: atomic.LoadUint64(&s.GroupCacheHits),
		ForkQueries:    atomic.LoadUint64(&s.ForkQueries),
		ForkFastHits:   atomic.LoadUint64(&s.ForkFastHits),
		StateHits:      atomic.LoadUint64(&s.StateHits),
		StateExtends:   atomic.LoadUint64(&s.StateExtends),
		SolverRuns:     atomic.LoadUint64(&s.SolverRuns),
		Backtracks:     atomic.LoadUint64(&s.Backtracks),
		Unsat:          atomic.LoadUint64(&s.Unsat),
		UnitPropFolds:  atomic.LoadUint64(&s.UnitPropFolds),

		PruneMemoHits:   atomic.LoadUint64(&s.PruneMemoHits),
		PruneMemoMisses: atomic.LoadUint64(&s.PruneMemoMisses),
		PruneEvals:      atomic.LoadUint64(&s.PruneEvals),

		IntervalSat:      atomic.LoadUint64(&s.IntervalSat),
		IntervalUnsat:    atomic.LoadUint64(&s.IntervalUnsat),
		IntervalEmpty:    atomic.LoadUint64(&s.IntervalEmpty),
		ForkIntervalHits: atomic.LoadUint64(&s.ForkIntervalHits),
		IntervalSeeds:    atomic.LoadUint64(&s.IntervalSeeds),
	}
}

type cacheEntry struct {
	sat bool
	// kill marks an ErrBudget outcome: the killed search, with the
	// MaxBacktracks value it exceeded. The entry only answers ErrBudget
	// while the current budget is no larger; raising the budget
	// invalidates it, so a once-too-hard query is retried instead of
	// failing forever.
	kill  *BudgetError
	model expr.Assignment
}

// Solver answers satisfiability queries over constraint sets. It is not
// safe for concurrent use; each worker owns one Solver (matching the
// shared-nothing cluster design — caches are per worker and are *not*
// shipped with job transfers, as in the paper §6 "Constraint Caches").
type Solver struct {
	// MaxBacktracks bounds the search effort per independent group.
	MaxBacktracks uint64
	// Stats accumulates counters across queries.
	Stats Stats

	cache     map[uint64]cacheEntry
	cacheKeys []uint64 // FIFO eviction order
	maxCache  int

	// groupCache memoizes solveGroup outcomes keyed by an
	// order-insensitive hash of the group's constraints. Path conditions
	// grow incrementally, so most groups recur verbatim across queries.
	groupCache     map[uint64]groupResult
	groupCacheKeys []uint64

	// states memoizes the per-ConstraintSet solve state (flattened,
	// unit-propagated, partitioned — see incremental.go), keyed by node
	// identity. Append extends the parent's state instead of redoing
	// the whole pipeline.
	states    map[*ConstraintSet]*setState
	stateKeys []*ConstraintSet
	maxStates int
	empty     *setState // per-solver empty-set state (lazily stamped)

	// Reusable scratch buffers for the hot paths (extend pools,
	// partition union-find, group var lists). The solver is
	// single-owner, so sharing is safe.
	poolScratch  []*expr.Expr
	poolScratch2 []*expr.Expr
	chainScratch []*ConstraintSet
	groupScratch []*igroup
	idScratch    []uint64
	unitScratch  []groupBinding // extend's units gathered in one round
	part         partitioner

	// tier3 is solveGroup's working state (tier3.go): the search's
	// per-variable and per-constraint tables, the domain restore stack
	// and the prune memo, all reused from one search to the next.
	tier3 groupSearch
}

type groupResult struct {
	sat bool
	// narrowed marks a result found by an interval-seeded search. The
	// verdict is exact either way (the seed bounds are implied by the
	// group's own constraints, so no group solution is excluded), but
	// the model may differ from the canonical unseeded one — full-model
	// queries must not adopt it (§6 broken replays). An unseeded search
	// later overwrites the entry with the canonical result.
	narrowed bool
	model    []groupBinding
}

type groupBinding struct {
	id uint64
	v  uint8
}

// noUnits is the witness model of a set with no units whose may-query
// searched nothing: shared by every solver, written by none.
var noUnits = expr.Assignment{}

// New returns a solver with default budgets.
func New() *Solver {
	return &Solver{
		MaxBacktracks: 1 << 16,
		cache:         make(map[uint64]cacheEntry),
		maxCache:      1 << 16,
		groupCache:    make(map[uint64]groupResult),
		states:        make(map[*ConstraintSet]*setState),
		maxStates:     1 << 15,
		empty:         &setState{},
	}
}

// MayBeTrue reports whether cs ∧ cond is satisfiable.
func (s *Solver) MayBeTrue(cs *ConstraintSet, cond *expr.Expr) (bool, error) {
	sat, _, err := s.check(cs, cond, false)
	return sat, err
}

// MustBeTrue reports whether cond holds on every solution of cs.
func (s *Solver) MustBeTrue(cs *ConstraintSet, cond *expr.Expr) (bool, error) {
	sat, _, err := s.check(cs, expr.Not(cond), false)
	return !sat, err
}

// CheckSat reports whether cs itself is satisfiable.
func (s *Solver) CheckSat(cs *ConstraintSet) (bool, error) {
	sat, _, err := s.check(cs, nil, false)
	return sat, err
}

// Solve returns a full model of cs (every referenced variable bound).
// ok=false means unsatisfiable.
func (s *Solver) Solve(cs *ConstraintSet) (expr.Assignment, bool, error) {
	sat, model, err := s.check(cs, nil, true)
	return model, sat, err
}

// SolveWith returns a model of cs ∧ cond.
func (s *Solver) SolveWith(cs *ConstraintSet, cond *expr.Expr) (expr.Assignment, bool, error) {
	sat, model, err := s.check(cs, cond, true)
	return model, sat, err
}

// Fork is the fused branch query: it decides both directions of a
// branch on cond in one pass. The parent set's cached witness model is
// evaluated first — one evaluation decides one direction for free (the
// model is a satisfiability witness for whichever side it lands on) —
// and only the residual direction(s) go through the full query path.
// Branch sites that used to issue two independent full queries
// (cond, ¬cond) now issue at most one.
//
// mayTrue/mayFalse report whether cs ∧ cond / cs ∧ ¬cond are
// satisfiable; both false means the state itself is infeasible.
func (s *Solver) Fork(cs *ConstraintSet, cond *expr.Expr) (mayTrue, mayFalse bool, err error) {
	if cond.IsTrue() {
		return true, false, nil
	}
	if cond.IsFalse() {
		return false, true, nil
	}
	atomic.AddUint64(&s.Stats.ForkQueries, 1)
	st := s.state(cs)
	if st.unsat {
		return false, false, nil
	}
	// Interval tier: a condition decided by the set's bounds settles BOTH
	// directions in one evaluation. cond true on the whole interval box
	// (which over-approximates cs's solutions) means cs ∧ ¬cond is unsat,
	// and cs ∧ cond is sat by the exploration invariant (cs is
	// satisfiable on feasible paths); symmetrically for false. No cache,
	// no extension, no search — not even the residual-direction query the
	// model fast path below still issues.
	if decided, truth := condDecided(cond, st.bounds); decided {
		atomic.AddUint64(&s.Stats.ForkIntervalHits, 1)
		return truth, !truth, nil
	}
	decidedT, decidedF := false, false
	if m := st.model; m != nil {
		if v, ok := cond.Eval(m); ok {
			atomic.AddUint64(&s.Stats.ForkFastHits, 1)
			if v != 0 {
				mayTrue, decidedT = true, true
			} else {
				mayFalse, decidedF = true, true
			}
		}
	}
	if !decidedT {
		mayTrue, err = s.MayBeTrue(cs, cond)
		if err != nil {
			return false, false, err
		}
	}
	if !decidedF {
		mayFalse, err = s.MayBeTrue(cs, expr.Not(cond))
		if err != nil {
			return false, false, err
		}
	}
	return mayTrue, mayFalse, nil
}

// check is the core query path: answer from the result cache, else
// derive (incrementally) the memoized solve state of cs, decide cond
// from the state's interval bounds if they can, else extend the state
// with cond and solve each group the extension created or rewrote, from
// the group cache where it has been solved before. The evaluation of
// the set's witness model is Fork's, not check's: a query Fork issues
// has already failed it. When fullModel is false and cond is non-nil,
// only groups sharing variables with cond are searched (KLEE's
// independent-constraint optimization — sound because execution states
// only exist on feasible paths, so the untouched groups are satisfiable
// on their own).
func (s *Solver) check(cs *ConstraintSet, cond *expr.Expr, fullModel bool) (bool, expr.Assignment, error) {
	atomic.AddUint64(&s.Stats.Queries, 1)

	if cond != nil && cond.IsFalse() {
		atomic.AddUint64(&s.Stats.Unsat, 1)
		return false, nil, nil
	}
	key := cs.Hash()
	if cond != nil {
		key = key*0x9e3779b97f4a7c15 ^ cond.Hash()
	}
	if fullModel {
		key ^= 0xf00d
	}
	if e, ok := s.cache[key]; ok {
		if e.kill != nil {
			if s.MaxBacktracks <= e.kill.Budget {
				atomic.AddUint64(&s.Stats.CacheHits, 1)
				return false, nil, e.kill
			}
			// The budget was raised since this entry was recorded:
			// fall through and retry the query.
		} else {
			atomic.AddUint64(&s.Stats.CacheHits, 1)
			if !e.sat {
				atomic.AddUint64(&s.Stats.Unsat, 1)
			}
			return e.sat, e.model, nil
		}
	}

	st := s.state(cs)

	// Tier 1 — interval abstraction: a condition decided by the set's
	// per-variable bounds is answered with zero search, before the
	// condition is even folded into an extension. Unsat is unconditional
	// (the bounds over-approximate cs's solutions); sat additionally
	// relies on the exploration invariant (cs itself is satisfiable on
	// feasible paths), so like the other fast paths it is reserved for
	// may-queries — full-model answers must stay canonical.
	if cond != nil && !fullModel && !st.unsat {
		if decided, truth := condDecided(cond, st.bounds); decided {
			if truth {
				atomic.AddUint64(&s.Stats.IntervalSat, 1)
				s.put(key, cacheEntry{sat: true})
				return true, nil, nil
			}
			atomic.AddUint64(&s.Stats.IntervalUnsat, 1)
			atomic.AddUint64(&s.Stats.Unsat, 1)
			s.put(key, cacheEntry{sat: false})
			return false, nil, nil
		}
	}

	ext := st
	if cond != nil {
		ext = s.extend(st, cond)
	} else if !fullModel && st.model != nil {
		// CheckSat on a set whose state already carries a witness: no
		// group needs visiting. Nothing in the engine asks this; the
		// gated BenchmarkIncrementalAppendSolve (append, then CheckSat,
		// 256 deep) does, and is 3x slower without it.
		return true, st.model, nil
	}

	if ext.unsat {
		atomic.AddUint64(&s.Stats.Unsat, 1)
		s.put(key, cacheEntry{sat: false})
		return false, nil, nil
	}

	// Solve: units first, then each (relevant) independent group. For
	// may-queries only the groups the cond extension rewrote or created
	// are solved: an inherited group is a group of cs itself, and cs is
	// satisfiable on feasible paths, so it is satisfiable on its own
	// (KLEE's independent-constraint optimization). A group dissolved
	// and re-formed by cond-derived unit bindings is NOT a group of cs
	// — skipping it on the strength of the invariant would miss
	// contradictions the new units introduced, so rewritten groups are
	// always solved even when substitution severed them from cond's
	// variables.
	//
	// The model starts as ext.units itself, which no one writes once
	// extend returns, and becomes a copy before its first binding: a
	// may-query that searches nothing allocates no model. A set with no
	// units shares noUnits, so the state still gets a non-nil witness.
	model, owned := ext.units, false
	if model == nil {
		model = noUnits
	}
	own := func() {
		if !owned {
			m := make(expr.Assignment, len(model)+8)
			for id, v := range model {
				m[id] = v
			}
			model, owned = m, true
		}
	}
	if fullModel {
		own()
	}
	// Tier 3 seeding: may-query searches start from interval-narrowed
	// domains instead of full 256-value ones. Full-model queries search
	// unseeded — their models feed concretization and must stay a
	// deterministic function of the constraint set alone.
	var seedB boundsMap
	if !fullModel {
		seedB = ext.bounds
	}
	skipInherited := cond != nil && !fullModel
	inherited := 0 // two-pointer subsequence match against st.groups
	sat := true
	for _, g := range ext.groups {
		if skipInherited {
			shared := false
			for inherited < len(st.groups) {
				match := st.groups[inherited] == g
				inherited++
				if match {
					shared = true
					break
				}
			}
			if shared {
				continue // a group of cs itself; satisfiable on its own
			}
		}
		// Narrowed entries carry exact verdicts but non-canonical
		// models: full-model queries may take their unsat answer, never
		// their model (they fall through to an unseeded search, which
		// overwrites the entry with the canonical result).
		if res, hit := s.groupCache[g.key]; hit && !(fullModel && res.narrowed && res.sat) {
			atomic.AddUint64(&s.Stats.GroupCacheHits, 1)
			if !res.sat {
				sat = false
				break
			}
			conflict := false
			for _, b := range res.model {
				if prev, bound := model[b.id]; bound && prev != b.v {
					conflict = true
					break
				}
			}
			if !conflict {
				if len(res.model) > 0 {
					own()
				}
				for _, b := range res.model {
					model[b.id] = b.v
				}
				continue
			}
			// Cached model conflicts with an outside binding
			// (defensive; groups are variable-disjoint from units by
			// construction): fall through to a fresh search.
		}
		gids := g.vars.AppendIDs(s.idScratch[:0])
		allFree := true
		for _, id := range gids {
			if _, bound := model[id]; bound {
				allFree = false
				break
			}
		}
		own()
		ok, narrowed, err := s.solveGroup(g.cons, gids, model, seedB)
		s.idScratch = gids[:0]
		if err != nil {
			var kill *BudgetError
			if errors.As(err, &kill) {
				s.put(key, cacheEntry{kill: kill})
			}
			return false, nil, err
		}
		if narrowed {
			atomic.AddUint64(&s.Stats.IntervalSeeds, 1)
		}
		// Cache only groups whose variables were entirely free, so the
		// result does not depend on outside bindings. Seeded results are
		// stored flagged (see groupResult.narrowed); canonical unseeded
		// results overwrite them.
		if allFree {
			res := groupResult{sat: ok, narrowed: narrowed}
			if ok {
				for _, id := range gids {
					res.model = append(res.model, groupBinding{id, model[id]})
				}
			}
			s.putGroup(g.key, res)
		}
		if !ok {
			sat = false
			break
		}
	}
	if !sat {
		atomic.AddUint64(&s.Stats.Unsat, 1)
		s.put(key, cacheEntry{sat: false})
		return false, nil, nil
	}
	if fullModel {
		// Bind any variable mentioned anywhere but left unconstrained.
		for _, g := range ext.groups {
			gids := g.vars.AppendIDs(s.idScratch[:0])
			for _, id := range gids {
				if _, ok := model[id]; !ok {
					model[id] = 0
				}
			}
			s.idScratch = gids[:0]
		}
		// A constraint can fold away entirely under unit substitution
		// (e.g. a disjunction discharged by one arm), dropping its
		// remaining variables from every group. The fold holds for any
		// value of those variables, so bind them too — concretization
		// needs every referenced byte.
		for _, id := range cs.Vars() {
			if _, ok := model[id]; !ok {
				model[id] = 0
			}
		}
		if cond != nil {
			for _, id := range cond.VarIDs() {
				if _, ok := model[id]; !ok {
					model[id] = 0
				}
			}
		}
	} else if st.model == nil && st != s.empty {
		// The model witnesses cs's units and every group it solved
		// (cond only adds constraints): stamp it on the state so Fork
		// can evaluate against it instead of searching.
		st.model = model
	}
	s.put(key, cacheEntry{sat: true, model: model})
	return true, model, nil
}

// evictHalf implements the bounded-map FIFO policy shared by every
// solver cache: once the map reaches max entries, the oldest half of
// the insertion order is evicted. Returns the compacted key order.
// Simple and allocation-friendly.
func evictHalf[K comparable, V any](m map[K]V, keys []K, max int) []K {
	if len(m) < max {
		return keys
	}
	half := len(keys) / 2
	for _, k := range keys[:half] {
		delete(m, k)
	}
	return append(keys[:0], keys[half:]...)
}

func (s *Solver) put(key uint64, e cacheEntry) {
	s.cacheKeys = evictHalf(s.cache, s.cacheKeys, s.maxCache)
	if _, dup := s.cache[key]; !dup {
		s.cacheKeys = append(s.cacheKeys, key)
	}
	s.cache[key] = e
}

func (s *Solver) putGroup(key uint64, res groupResult) {
	s.groupCacheKeys = evictHalf(s.groupCache, s.groupCacheKeys, s.maxCache)
	if _, dup := s.groupCache[key]; !dup {
		s.groupCacheKeys = append(s.groupCacheKeys, key)
	}
	s.groupCache[key] = res
}

// ---- From-scratch reference pipeline ----
//
// The pre-incremental query path — flatten the whole set, unit-
// propagate to fixpoint, union-find partition, then search — kept as
// the reference implementation. The differential tests check that the
// incremental path above agrees with it on every query, and the CI
// benchmarks measure the incremental speedup against it.

// ReferenceMayBeTrue answers MayBeTrue through the from-scratch
// pipeline, bypassing the incremental state and the result cache (the
// group cache is still consulted, as the pre-incremental solver did).
func (s *Solver) ReferenceMayBeTrue(cs *ConstraintSet, cond *expr.Expr) (bool, error) {
	if cond != nil && cond.IsFalse() {
		return false, nil
	}
	cons := cs.Flattened()
	if cond != nil {
		cons = flatten(cond, cons)
	}
	sat, _, err := s.referenceSolve(cons, cond, false)
	return sat, err
}

// ReferenceSolve is Solve through the from-scratch pipeline.
func (s *Solver) ReferenceSolve(cs *ConstraintSet) (expr.Assignment, bool, error) {
	sat, model, err := s.referenceSolve(cs.Flattened(), nil, true)
	if sat && err == nil {
		// Bind variables whose constraints folded away under unit
		// substitution (see the full-model completion in check).
		for _, id := range cs.Vars() {
			if _, ok := model[id]; !ok {
				model[id] = 0
			}
		}
	}
	return model, sat, err
}

// referenceSolve decides a flattened conjunction from scratch.
func (s *Solver) referenceSolve(cons []*expr.Expr, cond *expr.Expr, fullModel bool) (bool, expr.Assignment, error) {
	model := expr.Assignment{}

	// For may-queries, compute the variables transitively connected to
	// cond over the pre-substitution constraint graph. Unit propagation
	// can sever a group from cond's variables by substituting them away
	// — but a group rewritten by cond-derived units is not part of the
	// (feasible, hence satisfiable) base set, so relevance must be
	// judged on the original graph, not the residual one.
	var relevant map[uint64]bool
	if cond != nil && !fullModel {
		relevant = relevantVars(cons, cond)
	}

	// Unit propagation to fixpoint: bind Eq(const, var) facts and
	// substitute them everywhere.
	for {
		progress := false
		units := expr.Assignment{}
		next := cons[:0]
		for _, c := range cons {
			if c.IsTrue() {
				continue
			}
			if c.IsFalse() {
				return false, nil, nil
			}
			if c.Op() == expr.OpLAnd {
				// Substitution may rebuild conjunctions; re-flatten.
				next = flatten(c, next)
				progress = true
				continue
			}
			if c.Op() == expr.OpEq && c.Kid(0).IsConst() && c.Kid(1).IsVar() {
				id := c.Kid(1).VarID()
				v := uint8(c.Kid(0).ConstVal())
				if prev, ok := model[id]; ok && prev != v {
					return false, nil, nil
				}
				if prev, ok := units[id]; ok && prev != v {
					return false, nil, nil
				}
				units[id] = v
				model[id] = v
				progress = true
				continue
			}
			next = append(next, c)
		}
		cons = next
		if !progress {
			break
		}
		bound := units.VarSet() // one summary for the whole round
		for i, c := range cons {
			cons[i] = c.SubstConstsWith(units, bound)
		}
	}

	// Partition remaining constraints into independent groups.
	groups := s.part.partition(cons)

	for _, g := range groups {
		if relevant != nil && !g.touches(relevant) {
			continue // independent of the query; satisfiable on its own
		}
		key := groupHash(g.cons)
		gids := make([]uint64, 0, len(g.vars))
		for id := range g.vars {
			gids = append(gids, id)
		}
		sort.Slice(gids, func(i, j int) bool { return gids[i] < gids[j] })
		if res, hit := s.groupCache[key]; hit {
			if !res.sat {
				return false, nil, nil
			}
			ok := true
			for _, b := range res.model {
				if prev, bound := model[b.id]; bound && prev != b.v {
					ok = false
					break
				}
			}
			if ok {
				for _, b := range res.model {
					model[b.id] = b.v
				}
				continue
			}
		}
		allFree := true
		for _, id := range gids {
			if _, bound := model[id]; bound {
				allFree = false
				break
			}
		}
		ok, _, err := s.solveGroup(g.cons, gids, model, nil)
		if err != nil {
			return false, nil, err
		}
		if allFree {
			res := groupResult{sat: ok}
			if ok {
				for _, id := range gids {
					res.model = append(res.model, groupBinding{id, model[id]})
				}
			}
			s.putGroup(key, res)
		}
		if !ok {
			return false, nil, nil
		}
	}
	if fullModel {
		// Bind any variable mentioned anywhere but left unconstrained.
		for _, g := range groups {
			for id := range g.vars {
				if _, ok := model[id]; !ok {
					model[id] = 0
				}
			}
		}
	}
	return true, model, nil
}

// relevantVars returns the set of variables in the same pre-
// substitution connected component as cond's variables: every variable
// reachable from cond through shared-variable links in the original
// conjuncts.
func relevantVars(cons []*expr.Expr, cond *expr.Expr) map[uint64]bool {
	parent := map[uint64]uint64{}
	var find func(x uint64) uint64
	find = func(x uint64) uint64 {
		p, ok := parent[x]
		if !ok {
			parent[x] = x
			return x
		}
		if p != x {
			p = find(p)
			parent[x] = p
		}
		return p
	}
	for _, c := range cons {
		vl := c.VarIDs()
		for j := 1; j < len(vl); j++ {
			parent[find(vl[0])] = find(vl[j])
		}
	}
	roots := map[uint64]bool{}
	for _, id := range cond.VarIDs() {
		roots[find(id)] = true
	}
	relevant := map[uint64]bool{}
	for id := range parent {
		if roots[find(id)] {
			relevant[id] = true
		}
	}
	return relevant
}

// refGroup is a set of constraints over a connected set of variables
// (reference partition).
type refGroup struct {
	cons []*expr.Expr
	vars map[uint64]bool
}

func (g *refGroup) touches(vars map[uint64]bool) bool {
	for id := range vars {
		if g.vars[id] {
			return true
		}
	}
	return false
}

// partitioner groups constraints by transitive variable sharing
// (union-find), reusing its maps and buffers across calls instead of
// allocating fresh ones per query.
type partitioner struct {
	parent   map[uint64]uint64
	byRoot   map[uint64]*refGroup
	varLists [][]uint64
}

func (p *partitioner) partition(cons []*expr.Expr) []*refGroup {
	if p.parent == nil {
		p.parent = make(map[uint64]uint64)
		p.byRoot = make(map[uint64]*refGroup)
	}
	clear(p.parent)
	clear(p.byRoot)
	var find func(x uint64) uint64
	find = func(x uint64) uint64 {
		pr, ok := p.parent[x]
		if !ok {
			p.parent[x] = x
			return x
		}
		if pr != x {
			pr = find(pr)
			p.parent[x] = pr
		}
		return pr
	}
	union := func(a, b uint64) { p.parent[find(a)] = find(b) }

	if cap(p.varLists) < len(cons) {
		p.varLists = make([][]uint64, len(cons))
	}
	varLists := p.varLists[:len(cons)]
	for i, c := range cons {
		vl := c.VarIDs() // cached per-node summary; no DAG walk
		varLists[i] = vl
		for j := 1; j < len(vl); j++ {
			union(vl[0], vl[j])
		}
	}
	var order []*refGroup
	for i, c := range cons {
		if len(varLists[i]) == 0 {
			continue // constant constraints handled by unit pass
		}
		root := find(varLists[i][0])
		g := p.byRoot[root]
		if g == nil {
			g = &refGroup{vars: map[uint64]bool{}}
			p.byRoot[root] = g
			order = append(order, g)
		}
		g.cons = append(g.cons, c)
		for _, v := range varLists[i] {
			g.vars[v] = true
		}
	}
	return order
}
