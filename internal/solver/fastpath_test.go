package solver

// The solver's fast paths, each guarded by a test that runs the
// production call and fails if the path falls back to the work it was
// built to skip, and measured by a benchmark that gates on nothing.

import (
	"math"
	"testing"
	"time"

	"cloud9/internal/expr"
)

// sizeRatio runs small and big reps times, interleaved, and returns the
// ratio of their fastest runs: the runs no preemption or collection
// landed in, so the ratio holds on a loaded machine.
func sizeRatio(reps int, small, big func()) float64 {
	bs, bb := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	for range reps {
		t0 := time.Now()
		small()
		t1 := time.Now()
		big()
		bs, bb = min(bs, t1.Sub(t0)), min(bb, time.Since(t1))
	}
	return float64(bb) / float64(max(bs, 1))
}

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
			cs = cs.Append(expr.Ult(v(id), c8(uint64(100+i%100))))
		}
	}
	return cs
}

// boundsChain is 256 range constraints pinning 64 bytes below 50, and
// boundsCond(i) a branch that holds on every value those bounds allow.
func boundsChain() *ConstraintSet {
	cs := EmptySet
	for i := 0; i < 256; i++ {
		cs = cs.Append(expr.Ult(v(uint64(i%64)), c8(50)))
	}
	return cs
}

func boundsCond(i int) *expr.Expr {
	return expr.Ult(v(uint64(i%64)), c8(uint64(200+i%50)))
}

// appendStep is the i-th constraint of the chain the interpreter's
// access pattern builds: alternately a bound and an inequality.
func appendStep(cs *ConstraintSet, i int) *ConstraintSet {
	id := uint64(i % 64)
	if i%2 == 0 {
		return cs.Append(expr.Ult(v(id), c8(uint64(100+i%100))))
	}
	return cs.Append(expr.Not(expr.Eq(v(id), v(id^1))))
}

var sinkU64 uint64

// TestConstraintSetHashIsConstantTime: the result cache's key costs the
// same on a 65,536-deep set as on a 4-deep one. The set's hash is
// folded in at Append; one recomputed over the chain makes the ratio
// ~10^4, and the bound is 100.
func TestConstraintSetHashIsConstantTime(t *testing.T) {
	cons := boundsChain().Slice()[:64]
	deep := func(n int) *ConstraintSet {
		cs := EmptySet
		for i := 0; i < n; i++ {
			cs = cs.Append(cons[i%64])
		}
		return cs
	}
	small, big := deep(4), deep(1<<16)
	keys := func(cs *ConstraintSet) func() {
		return func() {
			for range 256 {
				sinkU64 ^= cs.Hash()
			}
		}
	}
	if r := sizeRatio(16, keys(small), keys(big)); r > 100 {
		t.Fatalf("Hash of a %d-deep set costs %.0fx Hash of a 4-deep one", big.Len(), r)
	}
}

// TestForkDecidedByBounds: on a warmed 256-deep set whose bounds decide
// the branch, Fork answers both directions from the interval tier alone:
// no query, no extension, no search.
func TestForkDecidedByBounds(t *testing.T) {
	s := New()
	cs := boundsChain()
	if ok, err := s.CheckSat(cs); err != nil || !ok {
		t.Fatalf("CheckSat = %v, %v", ok, err)
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

// TestForkCostIsDepthIndependent: a Fork on a warmed set costs the same
// state extensions and searches whether the set is 64 or 256 deep, when
// the extra depth is groups the branch does not touch. A solver that
// re-derived the set's state from the root costs 4x more at 256.
func TestForkCostIsDepthIndependent(t *testing.T) {
	cost := func(filler int) (extends, runs uint64) {
		s := New()
		cs := branchChain(branchChain(EmptySet, filler, 64, 1000), 64, 32, 0)
		if ok, err := s.CheckSat(cs); err != nil || !ok {
			t.Fatalf("CheckSat = %v, %v", ok, err)
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

// BenchmarkSolverCacheKey: the result-cache key of a 96-deep set and a
// branch condition, as check computes it, against recomputing every
// constraint's hash recursively.
func BenchmarkSolverCacheKey(b *testing.B) {
	cs := EmptySet
	for i := uint64(0); i < 48; i++ {
		cs = cs.Append(expr.Ult(v(i), c8(200)))
		cs = cs.Append(expr.Not(expr.Eq(v(i), v((i+1)%48))))
	}
	e := w32(v(0))
	for i := uint64(1); i < 64; i++ {
		e = expr.Xor(expr.Add(e, w32(v(i%8))), c32(i|1))
	}
	cond := expr.Eq(e, c32(99))
	b.Run("interned", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkU64 = cs.Hash()*0x9e3779b97f4a7c15 ^ cond.Hash()
		}
	})
	cons := cs.Slice()
	b.Run("recursive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var h uint64
			for _, c := range cons {
				h = h*1099511628211 ^ c.DeepHash()
			}
			sinkU64 = h ^ cond.DeepHash()
		}
	})
}

// BenchmarkBranchQuery: one branch site, both directions, on a 256-deep
// set: the fused incremental Fork against the two from-scratch queries a
// branch used to issue.
func BenchmarkBranchQuery(b *testing.B) {
	cs := branchChain(EmptySet, 256, 128, 0)
	cond := func(i int) *expr.Expr { return expr.Eq(v(uint64(i%128)), c8(uint64(i%90))) }
	b.Run("incremental", func(b *testing.B) {
		s := New()
		if ok, err := s.CheckSat(cs); err != nil || !ok {
			b.Fatal("chain must be sat")
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := s.Fork(cs, cond(i)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("from-scratch", func(b *testing.B) {
		s := New()
		for i := 0; i < b.N; i++ {
			if _, err := s.ReferenceMayBeTrue(cs, cond(i)); err != nil {
				b.Fatal(err)
			}
			if _, err := s.ReferenceMayBeTrue(cs, expr.Not(cond(i))); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkIntervalBranch: a branch site the bounds decide, Fork against
// the two from-scratch queries.
func BenchmarkIntervalBranch(b *testing.B) {
	cs := boundsChain()
	b.Run("interval", func(b *testing.B) {
		s := New()
		if ok, err := s.CheckSat(cs); err != nil || !ok {
			b.Fatal("chain must be sat")
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := s.Fork(cs, boundsCond(i)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("full-search", func(b *testing.B) {
		s := New()
		for i := 0; i < b.N; i++ {
			if _, err := s.ReferenceMayBeTrue(cs, boundsCond(i)); err != nil {
				b.Fatal(err)
			}
			if _, err := s.ReferenceMayBeTrue(cs, expr.Not(boundsCond(i))); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkIncrementalAppendSolve: a path condition grown to depth 256
// with a feasibility check after every append, incrementally and through
// the from-scratch pipeline.
func BenchmarkIncrementalAppendSolve(b *testing.B) {
	b.Run("incremental", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s, cs := New(), EmptySet
			for d := 0; d < 256; d++ {
				cs = appendStep(cs, d)
				if ok, err := s.CheckSat(cs); err != nil || !ok {
					b.Fatal("chain must stay sat")
				}
			}
		}
	})
	b.Run("from-scratch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s, cs := New(), EmptySet
			for d := 0; d < 256; d++ {
				cs = appendStep(cs, d)
				if ok, err := s.ReferenceMayBeTrue(cs, nil); err != nil || !ok {
					b.Fatal("chain must stay sat")
				}
			}
		}
	})
}

// BenchmarkSolverCaches: branch queries on one solver, its caches warm
// across queries, against a fresh solver per query.
func BenchmarkSolverCaches(b *testing.B) {
	cs := EmptySet
	for i := uint64(0); i < 12; i++ {
		cs = cs.Append(expr.Ult(v(i), c8(200)))
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
