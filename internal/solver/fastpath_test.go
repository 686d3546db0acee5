package solver

// The solver's fast paths, each guarded by a test that runs the
// production call and fails if the path falls back to the work it was
// built to skip, and measured by a benchmark that gates on nothing.

import (
	"testing"

	"cloud9/internal/expr"
)

// branchChain appends depth constraints over nvars byte variables from
// id base up: range bounds plus inequalities that link the variables into
// two-variable independence groups, the shape real path conditions
// converge to (a query's cone is one or two groups while the set itself
// is hundreds deep). It stays satisfiable.
func branchChain(cs *ConstraintSet, depth, nvars int, base uint64) *ConstraintSet {
	for i := 0; i < depth; i++ {
		id := base + uint64(i%nvars)
		switch i % 4 {
		case 1:
			cs = cs.Append(expr.Not(expr.Eq(v(id), v(id^1))))
		case 3:
			cs = cs.Append(expr.Ule(c8(uint64(i%3)), v(id)))
		default:
			cs = cs.Append(expr.Binary(expr.OpUlt, v(id), c8(uint64(100+i%100))))
		}
	}
	return cs
}

// boundsChain is 256 range constraints pinning 64 bytes below 50, and
// boundsCond(i) a branch that holds on every value those bounds allow.
func boundsChain() *ConstraintSet {
	cs := emptySet
	for i := 0; i < 256; i++ {
		cs = cs.Append(expr.Binary(expr.OpUlt, v(uint64(i%64)), c8(50)))
	}
	return cs
}

func boundsCond(i int) *expr.Expr {
	return expr.Binary(expr.OpUlt, v(uint64(i%64)), c8(uint64(200+i%50)))
}

// appendStep is the i-th constraint of the chain the interpreter's
// access pattern builds: alternately a bound and an inequality.
func appendStep(cs *ConstraintSet, i int) *ConstraintSet {
	id := uint64(i % 64)
	if i%2 == 0 {
		return cs.Append(expr.Binary(expr.OpUlt, v(id), c8(uint64(100+i%100))))
	}
	return cs.Append(expr.Not(expr.Eq(v(id), v(id^1))))
}

// TestForkDecidedByBounds: on a warmed 256-deep set whose bounds decide
// the branch, Fork answers both directions from the interval tier alone:
// no query, no extension, no search.
func TestForkDecidedByBounds(t *testing.T) {
	s := New()
	cs := boundsChain()
	if ok, err := s.checkSat(cs); err != nil || !ok {
		t.Fatalf("checkSat = %v, %v", ok, err)
	}
	before := s.Stats.Snapshot()
	for i := 0; i < 64; i++ {
		tr, fl, err := s.Fork(cs, boundsCond(i))
		if err != nil || !tr || fl {
			t.Fatalf("Fork(%v) = %v, %v, %v; the bounds make it true", boundsCond(i), tr, fl, err)
		}
	}
	after := s.Stats.Snapshot()
	if after.ForkIntervalHits-before.ForkIntervalHits != 64 || after.Queries != before.Queries ||
		after.StateExtends != before.StateExtends || after.SolverRuns != before.SolverRuns {
		t.Fatalf("64 bounds-decided Forks: %+v -> %+v", before, after)
	}
}

// TestForkHandsExtensionToChild: the query Fork issues for the direction
// the set's witness does not decide extends the set's state by that
// direction, and the child appending it adopts the extension: its first
// query derives no state. The other child derives its own.
func TestForkHandsExtensionToChild(t *testing.T) {
	s := New()
	cs := emptySet.Append(expr.Binary(expr.OpUlt, v(0), c8(200))).Append(expr.Binary(expr.OpUlt, v(1), v(0)))
	if ok, err := s.checkSat(cs); err != nil || !ok {
		t.Fatalf("checkSat = %v, %v", ok, err)
	}
	cond := expr.Eq(v(0), c8(7))
	held, ok := cond.Eval(s.state(cs).model)
	if !ok {
		t.Fatal("the witness does not decide the branch")
	}
	queried, decided := cond, expr.Not(cond)
	if held != 0 {
		queried, decided = decided, queried
	}
	if tr, fl, err := s.Fork(cs, cond); err != nil || !tr || !fl {
		t.Fatalf("Fork = %v, %v, %v; both directions are feasible", tr, fl, err)
	}
	extends := func(child *ConstraintSet) uint64 {
		before := s.Stats.Snapshot().StateExtends
		if ok, err := s.checkSat(child); err != nil || !ok {
			t.Fatalf("checkSat(%v) = %v, %v", child.Slice(), ok, err)
		}
		return s.Stats.Snapshot().StateExtends - before
	}
	if n := extends(cs.Append(queried)); n != 0 {
		t.Errorf("the queried child derived %d states; it should adopt the query's", n)
	}
	if n := extends(cs.Append(decided)); n != 1 {
		t.Errorf("the decided child derived %d states, want 1", n)
	}
}

// TestForkCostIsDepthIndependent: a Fork on a warmed set costs the same
// state extensions and searches whether the set is 64 or 256 deep, when
// the extra depth is groups the branch does not touch. A solver that
// re-derived the set's state from the root costs 4x more at 256.
func TestForkCostIsDepthIndependent(t *testing.T) {
	cost := func(filler int) (extends, runs uint64) {
		s := New()
		cs := branchChain(branchChain(emptySet, filler, 64, 1000), 64, 32, 0)
		if ok, err := s.checkSat(cs); err != nil || !ok {
			t.Fatalf("checkSat = %v, %v", ok, err)
		}
		before := s.Stats.Snapshot()
		for i := 0; i < 64; i++ {
			if _, _, err := s.Fork(cs, expr.Eq(v(uint64(i%32)), c8(uint64(i%90)))); err != nil {
				t.Fatal(err)
			}
		}
		after := s.Stats.Snapshot()
		return after.StateExtends - before.StateExtends, after.SolverRuns - before.SolverRuns
	}
	e64, r64 := cost(0)
	e256, r256 := cost(192)
	if e64 != e256 || r64 != r256 || e64 > 2*64 {
		t.Fatalf("64 Forks: %d extensions, %d searches at depth 64; %d, %d at depth 256", e64, r64, e256, r256)
	}
}

// BenchmarkBranchQuery: one branch site, both directions, on a warmed
// 256-deep set: the fused incremental Fork.
func BenchmarkBranchQuery(b *testing.B) {
	cs := branchChain(emptySet, 256, 128, 0)
	cond := func(i int) *expr.Expr { return expr.Eq(v(uint64(i%128)), c8(uint64(i%90))) }
	s := New()
	if ok, err := s.checkSat(cs); err != nil || !ok {
		b.Fatal("chain must be sat")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.Fork(cs, cond(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIntervalBranch: a branch site the bounds decide, on a warmed
// 256-deep set.
func BenchmarkIntervalBranch(b *testing.B) {
	cs := boundsChain()
	s := New()
	if ok, err := s.checkSat(cs); err != nil || !ok {
		b.Fatal("chain must be sat")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.Fork(cs, boundsCond(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIncrementalAppendSolve: a path condition grown to depth 256
// with a feasibility check after every append.
func BenchmarkIncrementalAppendSolve(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, cs := New(), emptySet
		for d := 0; d < 256; d++ {
			cs = appendStep(cs, d)
			if ok, err := s.checkSat(cs); err != nil || !ok {
				b.Fatal("chain must stay sat")
			}
		}
	}
}

// BenchmarkSolverCaches: branch queries on one solver, its caches warm
// across queries, against a fresh solver per query.
func BenchmarkSolverCaches(b *testing.B) {
	cs := emptySet
	for i := uint64(0); i < 12; i++ {
		cs = cs.Append(expr.Binary(expr.OpUlt, v(i), c8(200)))
		cs = cs.Append(expr.Not(expr.Eq(v(i), v((i+1)%12))))
	}
	cond := func(i int) *expr.Expr { return expr.Eq(v(uint64(i%12)), c8(uint64(i%200))) }
	b.Run("shared", func(b *testing.B) {
		s := New()
		for i := 0; i < b.N; i++ {
			if _, err := s.MayBeTrue(cs, cond(i)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fresh", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := New().MayBeTrue(cs, cond(i)); err != nil {
				b.Fatal(err)
			}
		}
	})
}
