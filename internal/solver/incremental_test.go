package solver

import (
	"errors"
	"math/rand"
	"testing"

	"cloud9/internal/expr"
)

// Differential property test: the incremental query path (memoized
// per-set states, group cache, Fork's model evaluation, tiny caps
// forcing evictions) must agree with a from-scratch reference solve on every
// query over randomized Append-tree workloads.
//
// Workloads maintain the execution invariant the solver's fast paths
// rely on — a constraint is only appended when the extended set stays
// satisfiable, exactly as the interpreter guards every Append with a
// feasibility check — so the sets mirror real path conditions.
func TestQuickDifferentialIncremental(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	inc := New()
	// Tiny caps: force state/result-cache evictions and rebuild-from-
	// ancestor paths mid-workload.
	inc.maxStates = 8
	inc.maxCache = 16

	for round := 0; round < 60; round++ {
		ref := New() // fresh reference per round: no cross-query state
		nv := 2 + rng.Intn(4)
		sets := []*ConstraintSet{EmptySet}
		// Grow a tree of feasible sets by appending onto random members.
		for grow := 0; grow < 12; grow++ {
			base := sets[rng.Intn(len(sets))]
			c := randomConstraint(rng, nv)
			ok, err := inc.MayBeTrue(base, c)
			if err != nil {
				continue
			}
			refOK, err := ref.ReferenceMayBeTrue(base, c)
			if err != nil {
				t.Fatalf("reference error: %v", err)
			}
			if ok != refOK {
				t.Fatalf("MayBeTrue divergence: incremental=%v reference=%v for %v ++ %v",
					ok, refOK, base.Slice(), c)
			}
			if ok {
				sets = append(sets, base.Append(c))
			}
		}
		// Interleaved queries across the tree: branch queries, forks,
		// and full-model solves, each checked against the reference.
		for q := 0; q < 20; q++ {
			cs := sets[rng.Intn(len(sets))]
			cond := randomConstraint(rng, nv)
			switch rng.Intn(3) {
			case 0:
				got, err := inc.MayBeTrue(cs, cond)
				if err != nil {
					continue
				}
				want, err := ref.ReferenceMayBeTrue(cs, cond)
				if err != nil {
					t.Fatalf("reference error: %v", err)
				}
				if got != want {
					t.Fatalf("MayBeTrue divergence: incremental=%v reference=%v for %v | %v",
						got, want, cs.Slice(), cond)
				}
			case 1:
				mayT, mayF, err := inc.Fork(cs, cond)
				if err != nil {
					continue
				}
				wantT, err := ref.ReferenceMayBeTrue(cs, cond)
				if err != nil {
					t.Fatal(err)
				}
				wantF, err := ref.ReferenceMayBeTrue(cs, expr.Not(cond))
				if err != nil {
					t.Fatal(err)
				}
				if mayT != wantT || mayF != wantF {
					t.Fatalf("Fork divergence: incremental=(%v,%v) reference=(%v,%v) for %v | %v",
						mayT, mayF, wantT, wantF, cs.Slice(), cond)
				}
			case 2:
				m, sat, err := inc.Solve(cs)
				if err != nil {
					continue
				}
				rm, refSat, err := ref.ReferenceSolve(cs)
				if err != nil {
					t.Fatal(err)
				}
				if sat != refSat {
					t.Fatalf("Solve divergence: incremental=%v reference=%v for %v",
						sat, refSat, cs.Slice())
				}
				if sat && !cs.EvalAll(m) {
					t.Fatalf("incremental model %v does not satisfy %v", m, cs.Slice())
				}
				if refSat && !cs.EvalAll(rm) {
					t.Fatalf("reference model %v does not satisfy %v", rm, cs.Slice())
				}
			}
		}
	}
	// The workload must actually have exercised the caches under test.
	st := inc.Stats.Snapshot()
	if st.StateExtends == 0 || st.StateHits == 0 {
		t.Errorf("incremental state machinery unexercised: %+v", st)
	}
	if st.GroupCacheHits == 0 || st.ForkFastHits == 0 {
		t.Errorf("group cache or Fork's model evaluation unexercised: %+v", st)
	}
}

// Regression (review finding): when the condition's own unit binding
// severs a group from the condition's variables, the rewritten group
// must still be solved. cs = {x ≤ y, y ≤ 3} is sat; cond = (x == 5)
// substitutes x away leaving the residual {5 ≤ y, y ≤ 3} over {y} only
// — a naive cond-variable intersection skips it and wrongly reports
// sat. Both the incremental and the reference pipeline must say unsat.
func TestCondUnitSeveredGroupStillSolved(t *testing.T) {
	build := func() *ConstraintSet {
		return EmptySet.
			Append(expr.Ule(v(0), v(1))).
			Append(expr.Ule(v(1), c8(3)))
	}
	cond := expr.Eq(v(0), c8(5))
	s := New()
	sat, err := s.MayBeTrue(build(), cond)
	if err != nil {
		t.Fatal(err)
	}
	if sat {
		t.Error("incremental: x≤y ∧ y≤3 ∧ x==5 must be unsat")
	}
	ref := New()
	sat, err = ref.ReferenceMayBeTrue(build(), cond)
	if err != nil {
		t.Fatal(err)
	}
	if sat {
		t.Error("reference: x≤y ∧ y≤3 ∧ x==5 must be unsat")
	}
	// And the Fork at such a branch site only keeps the false side.
	s2 := New()
	cs := build()
	if ok, err := s2.CheckSat(cs); err != nil || !ok {
		t.Fatalf("base set should be sat: %v %v", ok, err)
	}
	mayT, mayF, err := s2.Fork(cs, cond)
	if err != nil {
		t.Fatal(err)
	}
	if mayT || !mayF {
		t.Errorf("Fork should report (false,true), got (%v,%v)", mayT, mayF)
	}
}

// Regression: a query that exceeded the backtrack budget must be
// retried — not answered ErrBudget from the cache forever — once the
// budget is raised.
func TestBudgetRaiseRetriesQuery(t *testing.T) {
	s := New()
	s.MaxBacktracks = 1 << 10
	// Unsat, but only after 262,400 backtracks.
	cs := EmptySet
	for _, c := range hardGroups()[0].cons {
		cs = cs.Append(c)
	}
	if _, _, err := s.Solve(cs); !errors.Is(err, ErrBudget) {
		t.Fatalf("want a budget kill, got %v", err)
	}
	// Same budget: still answered (from cache) with ErrBudget.
	if _, _, err := s.Solve(cs); !errors.Is(err, ErrBudget) {
		t.Fatalf("same-budget retry should still report budget exhaustion, got %v", err)
	}
	// Raised budget: the stamped entry no longer applies.
	s.MaxBacktracks = 1 << 19
	if _, sat, err := s.Solve(cs); err != nil || sat {
		t.Fatalf("raised budget should let the query complete unsat: sat=%v err=%v", sat, err)
	}
}

// mayBeTrueAgrees asks the incremental path and a fresh solver's
// from-scratch pipeline the same may-query and requires one verdict.
func mayBeTrueAgrees(t *testing.T, s *Solver, cs *ConstraintSet, cond *expr.Expr, want bool) {
	t.Helper()
	got, err := s.MayBeTrue(cs, cond)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := New().ReferenceMayBeTrue(cs, cond)
	if err != nil {
		t.Fatal(err)
	}
	if got != ref || got != want {
		t.Errorf("MayBeTrue(%v | %v) = %v, reference %v, want %v", cs.Slice(), cond, got, ref, want)
	}
}

// A superset of a known-unsat constraint set is unsat, and costs no
// second search: the contradiction is one independent group, which the
// group cache remembers whatever else the set holds. It lives in
// two-variable sum constraints the interval tier cannot see through
// (Add over two unbounded bytes abstracts to the full range), so the
// first query genuinely reaches tier 3.
func TestSupersetOfUnsatSetIsUnsat(t *testing.T) {
	s := New()
	cs := EmptySet.Append(expr.Eq(c8(10), expr.Add(v(0), v(1))))
	cond := expr.Eq(c8(20), expr.Add(v(0), v(1))) // sum ≡ 10 ∧ sum ≡ 20: unsat via search
	mayBeTrueAgrees(t, s, cs, cond, false)
	// A different, larger set containing the same contradiction.
	cs2 := cs.Append(expr.Ult(c8(200), v(9)))
	before := s.Stats.Snapshot()
	mayBeTrueAgrees(t, s, cs2, cond, false)
	after := s.Stats.Snapshot()
	if after.SolverRuns != before.SolverRuns || after.GroupCacheHits != before.GroupCacheHits+1 {
		t.Errorf("the group cache should answer the superset: %+v -> %+v", before, after)
	}
}

// A subset of a known-sat constraint set, on a fresh chain, is sat.
func TestSubsetOfSatSetIsSat(t *testing.T) {
	s := New()
	big := EmptySet.
		Append(expr.Ult(v(0), c8(10))).
		Append(expr.Ult(v(1), c8(10)))
	cond := expr.Ult(c8(3), v(0))
	mayBeTrueAgrees(t, s, big, cond, true)
	small := EmptySet.Append(expr.Ult(v(1), c8(10)))
	mayBeTrueAgrees(t, s, small, cond, true)
}

// Fork decides one branch direction by evaluating the parent set's
// cached witness model — at most one full query per branch site.
func TestForkFastPath(t *testing.T) {
	s := New()
	cs := EmptySet.Append(expr.Ult(v(0), c8(10)))
	if ok, err := s.CheckSat(cs); err != nil || !ok {
		t.Fatalf("set should be sat: %v %v", ok, err)
	}
	before := s.Stats.Snapshot()
	mayT, mayF, err := s.Fork(cs, expr.Ult(v(0), c8(5)))
	if err != nil {
		t.Fatal(err)
	}
	if !mayT || !mayF {
		t.Fatalf("both directions should be feasible: (%v,%v)", mayT, mayF)
	}
	after := s.Stats.Snapshot()
	if after.ForkFastHits != before.ForkFastHits+1 {
		t.Errorf("expected a fork fast-path hit: %+v -> %+v", before, after)
	}
	if after.Queries != before.Queries+1 {
		t.Errorf("fused fork should issue exactly one full query, issued %d",
			after.Queries-before.Queries)
	}
}

// Appending onto a solved set extends its memoized state instead of
// reprocessing the whole chain: the per-append extension count and the
// per-check group visits stay constant as the chain deepens.
func TestIncrementalAppendIsO1(t *testing.T) {
	s := New()
	cs := EmptySet
	for i := uint64(0); i < 64; i++ {
		cs = cs.Append(expr.Ult(v(i%16), c8(200)))
		if ok, err := s.CheckSat(cs); err != nil || !ok {
			t.Fatalf("chain should stay sat at depth %d: %v %v", i, ok, err)
		}
	}
	st := s.Stats.Snapshot()
	// 64 appends: one extension each (plus the cond-extension per query
	// is state-less). Reprocessing from scratch would be ~64²/2 ≈ 2000.
	if st.StateExtends > 70 {
		t.Errorf("expected ~64 state extensions along the chain, got %d", st.StateExtends)
	}
	// Nor does a check revisit the groups the chain already solved: a
	// set whose state carries a witness is sat as it stands. Visiting
	// every group on every check is 904 here, and grows with the square.
	if n := st.GroupCacheHits + st.SolverRuns; n > 4*64 {
		t.Errorf("64 checks visited %d groups; a witnessed set should visit none", n)
	}
}

// After a state-table eviction the solve state is rebuilt by replaying
// the Append chain, and answers stay identical.
func TestStateEvictionRebuild(t *testing.T) {
	s := New()
	s.maxStates = 4
	cs := EmptySet
	for i := uint64(0); i < 32; i++ {
		cs = cs.Append(expr.Ult(v(i%8), c8(uint64(100+i))))
	}
	m, sat, err := s.Solve(cs)
	if err != nil || !sat {
		t.Fatalf("deep chain should be sat: %v %v", sat, err)
	}
	if !cs.EvalAll(m) {
		t.Fatalf("model %v does not satisfy the chain", m)
	}
	// Canonicality across eviction: a fresh solver computes the same
	// full model through its own (evicting) rebuilds.
	s2 := New()
	s2.maxStates = 4
	m2, sat2, err := s2.Solve(cs)
	if err != nil || !sat2 {
		t.Fatal("fresh solver disagreed on satisfiability")
	}
	for id, val := range m {
		if m2[id] != val {
			t.Fatalf("model divergence after eviction rebuild on var %d: %d vs %d", id, val, m2[id])
		}
	}
}
