package solver

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"cloud9/internal/expr"
)

// Differential property test: the incremental query path (memoized
// per-set states, extensions handed from a query to the child, Fork's
// model evaluation, a tiny group cache, memos dropped mid-workload and
// rebuilt from an ancestor) must agree with enumeration on every query
// over randomized Append-tree workloads. Each constraint's variables
// come from one block (a pair, or the triple {5,6,7} with v5 bounded to
// 8 values), so every component stays enumerable.
func TestQuickDifferentialIncremental(t *testing.T) {
	inc := New()
	// A tiny cap forces group-cache and kill-memo evictions; forget
	// forces rebuild-from-ancestor paths mid-workload.
	inc.maxCache = 16
	differential(t, inc, rand.New(rand.NewSource(41)), 60, 12, func(rng *rand.Rand, nv int) *expr.Expr {
		return randomConstraint(rng, blockTerm(rng, nv))
	})
	// The workload must actually have exercised the caches under test.
	st := inc.Stats.Snapshot()
	if st.StateExtends == 0 || st.StateHits == 0 {
		t.Errorf("incremental state machinery unexercised: %+v", st)
	}
	if st.GroupCacheHits == 0 || st.ForkFastHits == 0 {
		t.Errorf("group cache or Fork's model evaluation unexercised: %+v", st)
	}
}

// differential runs rounds of randomized workloads over 2 to 5
// variables and the triple blockTerm adds. Each grows a tree of sets by grows appends onto random
// members, each made only if enumeration finds the extended set
// satisfiable, as the interpreter guards every Append with a feasibility
// check. So the sets mirror real path conditions and keep the invariant
// the solver's fast paths rely on. Each new set's state is derived at
// once, from the extension its feasibility check kept where it kept one,
// and held to a fresh solver's derivation of the same chain. Then it
// asks 20 branch queries, forks and full-model solves across the tree.
// s must agree with enumeration on every answer it gives.
func differential(t *testing.T, s *Solver, rng *rand.Rand, rounds, grows int, gen func(*rand.Rand, int) *expr.Expr) {
	t.Helper()
	adopted := 0
	for round := 0; round < rounds; round++ {
		nv := 2 + rng.Intn(4)
		sets := []*ConstraintSet{boundedRoot()}
		for grow := 0; grow < grows; grow++ {
			base := sets[rng.Intn(len(sets))]
			c := gen(rng, nv)
			if sat, _ := checkMayBeTrue(t, s, base, c); sat {
				child := base.Append(c)
				if checkChildState(t, s, child) {
					adopted++
				}
				sets = append(sets, child)
			}
		}
		for q := 0; q < 20; q++ {
			cs := sets[rng.Intn(len(sets))]
			forget(rng, cs)
			cond := gen(rng, nv)
			switch rng.Intn(3) {
			case 0:
				checkMayBeTrue(t, s, cs, cond)
			case 1:
				checkFork(t, s, cs, cond)
			case 2:
				checkSolve(t, s, cs, true)
			}
		}
	}
	if adopted == 0 {
		t.Errorf("no set adopted the extension its query kept")
	}
}

// checkChildState derives the state of child, a node s has not derived,
// and holds it to a fresh solver's derivation of the same constraints:
// unsat, units, groups and bounds must be equal. It reports whether the
// state was the extension a query of child's constraint kept on its
// parent's state, which that state then no longer keeps.
func checkChildState(t *testing.T, s *Solver, child *ConstraintSet) bool {
	t.Helper()
	parent := s.state(child.parent)
	var kept *setState
	for h := parent.kids; h != nil; h = h.next {
		if h.cond == child.c {
			kept = h.st
		}
	}
	got := s.state(child)
	if kept != nil && got != kept {
		t.Fatalf("%v: derived a new state for a child whose query kept one", child.Slice())
	}
	for h := parent.kids; h != nil; h = h.next {
		if h.cond == child.c {
			t.Fatalf("%v: the parent still keeps the extension its child adopted", child.Slice())
		}
	}
	fresh := emptySet
	for _, c := range child.Slice() {
		fresh = fresh.Append(c)
	}
	if g, w := stateShape(got), stateShape(New().state(fresh)); !reflect.DeepEqual(g, w) {
		t.Fatalf("%v: derived state %+v, a fresh solver derives %+v", child.Slice(), g, w)
	}
	return kept != nil
}

// stateShape is st without what depends on who derived it or on the
// queries asked since: the owner, the witness model, the stamped
// variables and the kept extensions.
func stateShape(st *setState) setState {
	c := *st
	c.owner, c.model, c.vars, c.kids = nil, nil, nil, nil
	return c
}

// Regression (review finding): when the condition's own unit binding
// severs a group from the condition's variables, the rewritten group
// must still be solved. cs = {x ≤ y, y ≤ 3} is sat; cond = (x == 5)
// substitutes x away leaving the residual {5 ≤ y, y ≤ 3} over {y} only
// — a naive cond-variable intersection skips it and wrongly reports
// sat. The solver must say unsat, as enumeration does.
func TestCondUnitSeveredGroupStillSolved(t *testing.T) {
	build := func() *ConstraintSet {
		return emptySet.
			Append(expr.Ule(v(0), v(1))).
			Append(expr.Ule(v(1), c8(3)))
	}
	cond := expr.Eq(v(0), c8(5))
	mayBeTrueAgrees(t, New(), build(), cond, false)
	// And the Fork at such a branch site only keeps the false side.
	s := New()
	cs := build()
	if ok, err := s.checkSat(cs); err != nil || !ok {
		t.Fatalf("base set should be sat: %v %v", ok, err)
	}
	if mayT, mayF, known := checkFork(t, s, cs, cond); !known || mayT || !mayF {
		t.Errorf("Fork should report (false,true), enumeration says (%v,%v) (solver answered: %v)", mayT, mayF, known)
	}
}

// Regression: a query that exceeded the backtrack budget must be
// retried — not answered ErrBudget from the kill memo forever — once the
// budget is raised.
func TestBudgetRaiseRetriesQuery(t *testing.T) {
	s := New()
	s.MaxBacktracks = 1 << 10
	// Unsat, but only after 262,400 backtracks.
	cs := emptySet
	for _, c := range hardGroups()[0].cons {
		cs = cs.Append(c)
	}
	if _, _, err := s.Solve(cs); !errors.Is(err, ErrBudget) {
		t.Fatalf("want a budget kill, got %v", err)
	}
	// Same budget: still answered (from the kill memo) with ErrBudget.
	if _, _, err := s.Solve(cs); !errors.Is(err, ErrBudget) {
		t.Fatalf("same-budget retry should still report budget exhaustion, got %v", err)
	}
	// Raised budget: the stamped entry no longer applies.
	s.MaxBacktracks = 1 << 19
	if _, sat, err := s.Solve(cs); err != nil || sat {
		t.Fatalf("raised budget should let the query complete unsat: sat=%v err=%v", sat, err)
	}
}

// mayBeTrueAgrees asks s a may-query that enumeration must answer the
// same and requires the verdict want.
func mayBeTrueAgrees(t *testing.T, s *Solver, cs *ConstraintSet, cond *expr.Expr, want bool) {
	t.Helper()
	if sat, known := checkMayBeTrue(t, s, cs, cond); !known || sat != want {
		t.Errorf("MayBeTrue(%v | %v): enumeration says %v (solver answered: %v), want %v", cs.Slice(), cond, sat, known, want)
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
	cs := emptySet.Append(expr.Eq(c8(10), expr.Add(v(0), v(1))))
	cond := expr.Eq(c8(20), expr.Add(v(0), v(1))) // sum ≡ 10 ∧ sum ≡ 20: unsat via search
	mayBeTrueAgrees(t, s, cs, cond, false)
	// A different, larger set containing the same contradiction.
	cs2 := cs.Append(expr.Binary(expr.OpUlt, c8(200), v(9)))
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
	big := emptySet.
		Append(expr.Binary(expr.OpUlt, v(0), c8(10))).
		Append(expr.Binary(expr.OpUlt, v(1), c8(10)))
	cond := expr.Binary(expr.OpUlt, c8(3), v(0))
	mayBeTrueAgrees(t, s, big, cond, true)
	small := emptySet.Append(expr.Binary(expr.OpUlt, v(1), c8(10)))
	mayBeTrueAgrees(t, s, small, cond, true)
}

// Fork decides one branch direction by evaluating the parent set's
// cached witness model — at most one full query per branch site.
func TestForkFastPath(t *testing.T) {
	s := New()
	cs := emptySet.Append(expr.Binary(expr.OpUlt, v(0), c8(10)))
	if ok, err := s.checkSat(cs); err != nil || !ok {
		t.Fatalf("set should be sat: %v %v", ok, err)
	}
	before := s.Stats.Snapshot()
	mayT, mayF, err := s.Fork(cs, expr.Binary(expr.OpUlt, v(0), c8(5)))
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
// reprocessing the whole chain: down a 256-deep chain every Append +
// checkSat is exactly one state extension (from the root it is the
// depth), and a check revisits no group the chain already solved.
func TestIncrementalAppendIsO1(t *testing.T) {
	s := New()
	cs := emptySet
	for d := 0; d < 256; d++ {
		cs = cs.Append(expr.Binary(expr.OpUlt, v(uint64(d%16)), c8(200)))
		before := s.Stats.StateExtends
		if ok, err := s.checkSat(cs); err != nil || !ok {
			t.Fatalf("chain should stay sat at depth %d: %v %v", d+1, ok, err)
		}
		if n := s.Stats.StateExtends - before; n != 1 {
			t.Fatalf("Append + checkSat at depth %d extended %d states, want 1", d+1, n)
		}
	}
	// A set whose state carries a witness is sat as it stands: 136 visits
	// here. Visiting every group on every check is 3,976.
	st := s.Stats.Snapshot()
	if n := st.GroupCacheHits + st.SolverRuns; n > 256 {
		t.Errorf("256 checks visited %d groups; a check on a witnessed set visits none", n)
	}
}

// forget drops the memo of each node on cs's chain with probability
// 1/4, as an eviction would: the next query rebuilds the state from the
// nearest ancestor that kept one.
func forget(rng *rand.Rand, cs *ConstraintSet) {
	for n := cs; n != nil; n = n.parent {
		if rng.Intn(4) == 0 {
			n.memo = nil
		}
	}
}

// After a node's memo is evicted (dropped, or overwritten by another
// solver) the solve state is rebuilt by replaying the Append chain, and
// answers stay identical. A solver never answers from a memo another
// solver stamped.
func TestStateEvictionRebuild(t *testing.T) {
	s := New()
	cs := emptySet
	var chain []*ConstraintSet
	for i := uint64(0); i < 32; i++ {
		cs = cs.Append(expr.Binary(expr.OpUlt, v(i%8), c8(uint64(100+i))))
		chain = append(chain, cs)
	}
	m, sat, err := s.Solve(cs)
	if err != nil || !sat {
		t.Fatalf("deep chain should be sat: %v %v", sat, err)
	}
	if !cs.EvalAll(m) {
		t.Fatalf("model %v does not satisfy the chain", m)
	}
	same := func(who string, m2 expr.Assignment) {
		t.Helper()
		for id := range uint64(max(len(m), len(m2))) {
			if at(m, id) != at(m2, id) {
				t.Fatalf("%s: model divergence on var %d: %d vs %d", who, id, at(m, id), at(m2, id))
			}
		}
	}
	// Every node is stamped by s; a second solver derives the whole
	// chain itself, overwriting each memo with its own.
	s2 := New()
	m2, sat2, err := s2.Solve(cs)
	if err != nil || !sat2 {
		t.Fatal("second solver disagreed on satisfiability")
	}
	if st := s2.Stats.Snapshot(); st.StateHits != 0 || st.StateExtends != 32 {
		t.Fatalf("second solver: %d state hits, %d extensions; want 0 and 32", st.StateHits, st.StateExtends)
	}
	same("second solver", m2)
	want := stateShape(cs.memo)
	// What a full-model query binds: the chain's variables, whoever
	// derived the states it walks.
	wantVars := groupIDs(cs.Slice())
	sameVars := func(who string, s *Solver) {
		t.Helper()
		if got := s.varsOf(cs).AppendIDs(nil); !slices.Equal(got, wantVars) {
			t.Fatalf("%s: varsOf = %v, want %v", who, got, wantVars)
		}
	}
	sameVars("second solver", s2)
	// s rebuilds what s2 took over, and then what was dropped, into the
	// state s2 derived; with its caches emptied it solves to the same
	// model.
	for round, drop := range []func(i int) bool{
		func(int) bool { return false },
		func(i int) bool { return i%3 != 0 },
	} {
		for i, n := range chain {
			if drop(i) {
				n.memo = nil
			}
		}
		before := s.Stats.StateExtends
		if got := stateShape(s.state(cs)); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: rebuilt state %+v, want %+v", round, got, want)
		}
		if s.Stats.StateExtends == before {
			t.Fatalf("round %d: no state was rebuilt", round)
		}
		clear(s.groupCache)
		m3, sat3, err := s.Solve(cs)
		if err != nil || !sat3 {
			t.Fatalf("round %d: rebuild disagreed on satisfiability", round)
		}
		same("rebuild", m3)
		sameVars("rebuild", s)
	}
}

// heldAssignments returns every assignment s shares: the units and
// witness models of the states s stamped on cs's chain and of the
// extensions their queries keep for a child, and noUnits.
func heldAssignments(s *Solver, cs *ConstraintSet) []expr.Assignment {
	held := []expr.Assignment{noUnits}
	for n := cs; n != nil; n = n.parent {
		if st := n.memo; st != nil && st.owner == s {
			held = append(held, st.units, st.model)
			for h := st.kids; h != nil; h = h.next {
				held = append(held, h.st.units, h.st.model)
			}
		}
	}
	return held
}

// Shared witnesses are never written: not the model a may-query stamps
// on a set's state or on the extension it keeps, not a set's units, and
// not their spare capacity. A query starts from the set's units and must
// clone them before it binds anything, whether it takes a group-cache
// hit, searches inside the units' length or grows the model past it.
func TestSharedWitnessesAreNeverWritten(t *testing.T) {
	s := New()
	// The unit on v5 makes the set's units six long: ids 1 to 4 fall
	// inside them, 7 and up past them.
	cs := emptySet.Append(expr.Eq(c8(3), v(5))).Append(expr.Binary(expr.OpUlt, v(1), v(2)))
	child := cs.Append(expr.Eq(c8(4), v(6)))
	if ok, err := s.MayBeTrue(cs, expr.Binary(expr.OpUlt, v(1), v(3))); err != nil || !ok {
		t.Fatalf("MayBeTrue = %v, %v", ok, err)
	}
	if s.state(cs).model == nil {
		t.Fatal("the may-query stamped no witness on the set's state")
	}
	type kept struct{ m, was expr.Assignment }
	var all []kept
	keep := func(ms ...expr.Assignment) {
		for _, m := range ms {
			all = append(all, kept{m, slices.Clone(m[:cap(m)])})
		}
	}
	before := s.Stats.Snapshot()
	for _, set := range []*ConstraintSet{cs, child} {
		s.state(set)
		keep(heldAssignments(s, set)...)
		m, sat, err := s.Solve(set)
		if err != nil || !sat {
			t.Fatalf("Solve = %v, %v", sat, err)
		}
		keep(m)
		if ok, err := s.checkSat(set); err != nil || !ok {
			t.Fatalf("checkSat = %v, %v", ok, err)
		}
		for _, cond := range []*expr.Expr{expr.Binary(expr.OpUlt, v(1), v(4)), expr.Binary(expr.OpUlt, v(1), v(9))} {
			if ok, err := s.MayBeTrue(set, cond); err != nil || !ok {
				t.Fatalf("MayBeTrue(%v) = %v, %v", cond, ok, err)
			}
		}
	}
	for _, k := range all {
		if !slices.Equal(k.m[:cap(k.m)], k.was) {
			t.Errorf("a shared assignment was written: %v, was %v", k.m[:cap(k.m)], k.was)
		}
	}
	after := s.Stats.Snapshot()
	// The set's full model and its two may-queries search; the child's
	// queries are group-cache hits on the same groups.
	if after.GroupCacheHits == before.GroupCacheHits || after.SolverRuns-before.SolverRuns < 3 {
		t.Errorf("the queries took no group-cache hit or too few searches: %+v -> %+v", before, after)
	}
}

// A full-model Solve after one more Append allocates as often on a
// chain 512 deep as on one 64 deep: the variables a full model binds are
// memoized on the set states, not gathered from the whole chain again.
// Each constraint has a variable of its own, taken in descending order,
// so the first group the query meets sizes the model once. The fewest
// allocations of several queries is what is compared, so the caches'
// occasional growth stays out of it.
func TestFullModelSolveAfterAppendIsFlat(t *testing.T) {
	const top = 1000
	allocs := func(depth int) float64 {
		s, cs, id := New(), emptySet, uint64(top)
		grow := func() {
			cs = cs.Append(expr.Binary(expr.OpUlt, v(id), c8(200)))
			id--
		}
		for range depth {
			grow()
		}
		least := math.Inf(1)
		for range 8 {
			least = min(least, testing.AllocsPerRun(1, func() {
				grow()
				if m, sat, err := s.Solve(cs); err != nil || !sat || !cs.EvalAll(m) {
					t.Fatalf("depth %d: Solve = %v, %v, %v", depth, m, sat, err)
				}
			}))
		}
		return least
	}
	shallow, deep := allocs(64), allocs(512)
	if deep > shallow {
		t.Errorf("a full-model Solve after an Append allocates %.0f times at depth 512, %.0f at depth 64", deep, shallow)
	}
}
