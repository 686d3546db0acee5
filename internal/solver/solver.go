package solver

import (
	"errors"
	"slices"
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
	GroupCacheHits uint64 // independent groups answered from the group cache
	ForkQueries    uint64 // fused branch queries (Fork)
	ForkFastHits   uint64 // Fork directions decided by parent-model evaluation
	StateHits      uint64 // constraint-set states answered from the memo table
	StateExtends   uint64 // incremental state extensions performed
	SolverRuns     uint64 // group searches actually executed
	Backtracks     uint64 // value choices undone
	Unsat          uint64 // queries found unsatisfiable
	UnitPropFolds  uint64 // constraints discharged by unit propagation
	KillMemoHits   uint64 // group searches answered from the kill memo, not run

	// Tier-3 forward checking (solveGroup's prune memo).
	PruneMemoHits   uint64 // prunes answered from the memo alone
	PruneMemoMisses uint64 // prunes that had to classify domain values
	PruneEvals      uint64 // residual evaluations those misses cost

	// Interval-abstraction tier (interval.go).
	IntervalEmpty    uint64 // extensions proven unsat by an empty interval
	ForkIntervalHits uint64 // Forks with both directions decided by intervals
}

// Snapshot returns a consistent copy of the counters.
func (s *Stats) Snapshot() Stats {
	return Stats{
		Queries:        atomic.LoadUint64(&s.Queries),
		GroupCacheHits: atomic.LoadUint64(&s.GroupCacheHits),
		ForkQueries:    atomic.LoadUint64(&s.ForkQueries),
		ForkFastHits:   atomic.LoadUint64(&s.ForkFastHits),
		StateHits:      atomic.LoadUint64(&s.StateHits),
		StateExtends:   atomic.LoadUint64(&s.StateExtends),
		SolverRuns:     atomic.LoadUint64(&s.SolverRuns),
		Backtracks:     atomic.LoadUint64(&s.Backtracks),
		Unsat:          atomic.LoadUint64(&s.Unsat),
		UnitPropFolds:  atomic.LoadUint64(&s.UnitPropFolds),
		KillMemoHits:   atomic.LoadUint64(&s.KillMemoHits),

		PruneMemoHits:   atomic.LoadUint64(&s.PruneMemoHits),
		PruneMemoMisses: atomic.LoadUint64(&s.PruneMemoMisses),
		PruneEvals:      atomic.LoadUint64(&s.PruneEvals),

		IntervalEmpty:    atomic.LoadUint64(&s.IntervalEmpty),
		ForkIntervalHits: atomic.LoadUint64(&s.ForkIntervalHits),
	}
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

	// groupCache memoizes solveGroup outcomes keyed by an
	// order-insensitive hash of the group's constraints. Path conditions
	// grow incrementally, so most groups recur verbatim across queries.
	groupCache     map[uint64]groupResult
	groupCacheKeys []uint64
	maxCache       int // the entries groupCache and kills each hold at most

	// kills holds budget-killed group searches by group-cache key; it
	// holds only kills, so it is usually empty.
	kills    map[uint64]killEntry
	killKeys []uint64

	empty *setState // the empty set's; any other set's is on its node

	// Reusable scratch buffers for the hot paths (extend pools, fresh
	// groups, group var lists). The solver is single-owner, so sharing
	// is safe.
	poolScratch  []*expr.Expr
	poolScratch2 []*expr.Expr
	chainScratch []*ConstraintSet
	groupScratch []*igroup
	idScratch    []uint64
	unitScratch  []groupBinding // extend's units gathered in one round

	// tier3 is solveGroup's working state (tier3.go): the search's
	// per-variable and per-constraint tables, the domain restore stack
	// and the prune memo, all reused from one search to the next.
	tier3 groupSearch
}

// groupResult is a group's verdict and, if sat, its canonical model:
// every search starts from full domains, so the model is a function of
// the group alone and full-model queries adopt it like may-queries do.
type groupResult struct {
	sat   bool
	model []groupBinding
}

type groupBinding struct {
	id uint64
	v  uint8
}

// killEntry is a budget-killed group search with the input it was a
// function of besides the budget: the constraints in search order (the
// key is order-insensitive, and order steers the search). The variables
// follow from the constraints, and every search starts from full
// domains. A group with a variable bound outside it is never recorded,
// so the outer model is no input.
type killEntry struct {
	cons []*expr.Expr // the group's own slice; groups are immutable
	kill *BudgetError
}

// noUnits is the witness model of a set with no units whose may-query
// searched nothing: shared by every solver, written by none.
var noUnits = expr.Assignment{}

// New returns a solver with default budgets.
func New() *Solver {
	return &Solver{
		MaxBacktracks: 1 << 16,
		groupCache:    make(map[uint64]groupResult),
		maxCache:      1 << 16,
		kills:         make(map[uint64]killEntry),
		empty:         &setState{},
	}
}

// MayBeTrue reports whether cs ∧ cond is satisfiable. cond must be
// defined on every solution of cs ("Undefined conditions", package doc).
func (s *Solver) MayBeTrue(cs *ConstraintSet, cond *expr.Expr) (bool, error) {
	sat, _, err := s.check(cs, cond, false)
	return sat, err
}

// Solve returns a full model of cs (every referenced variable bound).
// ok=false means unsatisfiable. Each constraint must be defined on every
// solution of those before it ("Undefined conditions", package doc).
func (s *Solver) Solve(cs *ConstraintSet) (expr.Assignment, bool, error) {
	sat, model, err := s.check(cs, nil, true)
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
// satisfiable; both false means the state itself is infeasible. cond
// must be defined on every solution of cs ("Undefined conditions",
// package doc).
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
	// satisfiable on feasible paths); symmetrically for false. No
	// extension, no search — not even the residual-direction query the
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

// check is the core query path: derive (incrementally) the memoized
// solve state of cs, extend it with cond and solve each group the
// extension created or rewrote, from the group cache where it has been
// solved before. A satisfiable extension is kept on cs's state, with
// the query's model as its witness, for the child node that appends
// cond (see child). Deciding cond from the set's bounds or by
// evaluating its witness model is Fork's, not check's: a query Fork
// issues has already failed both. When fullModel is false and cond is
// non-nil, only groups sharing variables with cond are searched (KLEE's
// independent-constraint optimization — sound because execution states
// only exist on feasible paths, so the untouched groups are satisfiable
// on their own).
func (s *Solver) check(cs *ConstraintSet, cond *expr.Expr, fullModel bool) (bool, expr.Assignment, error) {
	atomic.AddUint64(&s.Stats.Queries, 1)

	if cond != nil && cond.IsFalse() {
		atomic.AddUint64(&s.Stats.Unsat, 1)
		return false, nil, nil
	}
	st := s.state(cs)
	ext := st
	if cond != nil {
		ext = s.extendBy(st, cond)
	} else if !fullModel && st.model != nil {
		// A satisfiability check of cs itself, whose state already
		// carries a witness: no group needs visiting. Nothing in the
		// engine asks this; TestIncrementalAppendIsO1 (append, then
		// check, 256 deep) visits 136 groups with it and 3,976 without.
		return true, st.model, nil
	}

	if ext.unsat {
		atomic.AddUint64(&s.Stats.Unsat, 1)
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
	// extend returns, and becomes a clone before its first binding: a
	// may-query that searches nothing allocates no model. A set with no
	// units shares noUnits, so the state still gets a non-nil witness.
	model, owned := ext.units, false
	if model == nil {
		model = noUnits
	}
	own := func() {
		if !owned {
			model, owned = slices.Clone(model), true
		}
	}
	if fullModel {
		own()
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
		if res, hit := s.groupCache[g.key]; hit {
			atomic.AddUint64(&s.Stats.GroupCacheHits, 1)
			if !res.sat {
				sat = false
				break
			}
			conflict := false
			for _, b := range res.model {
				if prev, bound := model.Get(b.id); bound && prev != b.v {
					conflict = true
					break
				}
			}
			if !conflict {
				if len(res.model) > 0 {
					own()
				}
				for _, b := range res.model {
					model.Set(b.id, b.v)
				}
				continue
			}
			// Cached model conflicts with an outside binding
			// (defensive; groups are variable-disjoint from units by
			// construction): fall through to a fresh search.
		}
		gids := g.vars.AppendIDs(s.idScratch[:0])
		s.idScratch = gids[:0] // nothing else takes the scratch until the loop ends
		allFree := true
		for _, id := range gids {
			if _, bound := model.Get(id); bound {
				allFree = false
				break
			}
		}
		// A search killed before on the same input is not run again.
		if allFree {
			if kill := s.killed(g); kill != nil {
				return false, nil, kill
			}
		}
		own()
		ok, err := s.solveGroup(g.cons, gids, &model)
		if err != nil {
			var kill *BudgetError
			if errors.As(err, &kill) {
				if allFree {
					s.putKill(g, kill)
				}
			}
			return false, nil, err
		}
		// Cache only groups whose variables were entirely free, so the
		// result does not depend on outside bindings.
		if allFree {
			res := groupResult{sat: ok}
			if ok {
				for _, id := range gids {
					v, _ := model.Get(id)
					res.model = append(res.model, groupBinding{id, v})
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
		return false, nil, nil
	}
	if fullModel {
		// Bind any variable mentioned anywhere but left unconstrained:
		// concretization needs every referenced byte. That covers every
		// group's variables, and those of a constraint that folded away
		// entirely under unit substitution (e.g. a disjunction
		// discharged by one arm), a fold that holds for any value of
		// them.
		ids := s.varsOf(cs).AppendIDs(s.idScratch[:0])
		if cond != nil {
			ids = cond.FreeVars().AppendIDs(ids)
		}
		bindZero(&model, ids)
		s.idScratch = ids[:0]
	} else if st.model == nil && st != s.empty {
		// The model witnesses cs's units and every group it solved
		// (cond only adds constraints): stamp it on the state so Fork
		// can evaluate against it instead of searching.
		st.model = model
	}
	if cond != nil && ext.model == nil {
		// The model witnesses ext the same way. An extension with a
		// model is one kept already: a repeated query keeps the first.
		ext.model = model
		st.kids = &handoff{cond, ext, st.kids}
	}
	return true, model, nil
}

// bindZero binds every id of ids that model leaves unbound to 0.
func bindZero(model *expr.Assignment, ids []uint64) {
	for _, id := range ids {
		if _, ok := model.Get(id); !ok {
			model.Set(id, 0)
		}
	}
}

// putBounded stores v under key in m, with the bounded-map FIFO policy
// shared by every solver cache: once m reaches max entries, the oldest
// half of the insertion order (keys) is evicted first. Returns the
// updated key order. Simple and allocation-friendly.
func putBounded[V any](m map[uint64]V, keys []uint64, max int, key uint64, v V) []uint64 {
	if len(m) >= max {
		half := len(keys) / 2
		for _, k := range keys[:half] {
			delete(m, k)
		}
		keys = append(keys[:0], keys[half:]...)
	}
	if _, dup := m[key]; !dup {
		keys = append(keys, key)
	}
	m[key] = v
	return keys
}

func (s *Solver) putGroup(key uint64, res groupResult) {
	s.groupCacheKeys = putBounded(s.groupCache, s.groupCacheKeys, s.maxCache, key, res)
}

// putKill records that searching g was killed, replacing any kill
// recorded under g's key.
func (s *Solver) putKill(g *igroup, kill *BudgetError) {
	s.killKeys = putBounded(s.kills, s.killKeys, s.maxCache, g.key, killEntry{g.cons, kill})
}

// killed returns the kill that searching g ends in under the current
// budget, or nil if the search must run. A search killed at budget B
// runs the same steps at any b <= B until its (b+1)-th backtrack kills
// it; a raised budget searches again.
func (s *Solver) killed(g *igroup) *BudgetError {
	e, ok := s.kills[g.key]
	if !ok || s.MaxBacktracks > e.kill.Budget || !slices.Equal(e.cons, g.cons) {
		return nil
	}
	atomic.AddUint64(&s.Stats.KillMemoHits, 1)
	kill := *e.kill
	kill.Memo = true
	if kill.Budget > s.MaxBacktracks {
		kill.Budget = s.MaxBacktracks
		kill.Backtracks = min(kill.Backtracks, s.MaxBacktracks+1)
	}
	return &kill
}
