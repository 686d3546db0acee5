package expr

import (
	"math"
	"testing"
	"time"
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

// doublingExpr builds an expression of 5·2^levels − 3 nodes counted per
// occurrence from 3·levels + 2 interned ones: each level mentions the one
// below twice.
func doublingExpr(levels int) *Expr {
	e := ZExt(Var(0, "x"), W32)
	for i := range levels {
		e = Add(e, Xor(e, Const(uint64(i)|1, W32)))
	}
	return e
}

var sinkU64 uint64

// TestHashIsConstantTime: Hash on a 164k-node expression costs what it
// costs on a 3-node one. Hash is a field stamped at construction; a
// hash that re-walked the DAG per occurrence, as DeepHash does, makes
// the ratio ~10^4, and the bound is 100.
func TestHashIsConstantTime(t *testing.T) {
	small, big := Add(Var(0, "x"), Const(1, W8)), doublingExpr(15)
	if small.Size() != 3 || big.Size() < 1<<17 {
		t.Fatalf("sizes %d and %d", small.Size(), big.Size())
	}
	hashes := func(e *Expr) func() {
		return func() {
			for range 256 {
				sinkU64 ^= e.Hash()
			}
		}
	}
	if r := sizeRatio(16, hashes(small), hashes(big)); r > 100 {
		t.Fatalf("Hash on %d nodes costs %.0fx Hash on 3", big.Size(), r)
	}
}

// BenchmarkExprHash: the stamped hash against the recursive walk it
// replaced, on a chain of about 1.5k nodes.
func BenchmarkExprHash(b *testing.B) {
	e := ZExt(Var(0, "x"), W32)
	for i := 1; i < 512; i++ {
		e = Xor(Add(e, ZExt(Var(uint64(i%8), "x"), W32)), Const(uint64(i)|1, W32))
	}
	b.Run("interned", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkU64 = e.Hash()
		}
	})
	b.Run("recursive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkU64 = e.DeepHash()
		}
	})
}

// BenchmarkPartitionVars: collecting each constraint's variables, the
// inner loop of independence partitioning, from the stamped summaries
// against re-walking each constraint with a dedup map.
func BenchmarkPartitionVars(b *testing.B) {
	var cons []*Expr
	for i := uint64(0); i < 64; i++ {
		lhs := Add(ZExt(Var(i, "v"), W32), ZExt(Var(i+1, "v"), W32))
		cons = append(cons, Ult(Xor(lhs, doublingExpr(4)), Const(500+i, W32)))
	}
	b.Run("interned", func(b *testing.B) {
		var buf []uint64
		for i := 0; i < b.N; i++ {
			for _, c := range cons {
				buf = c.FreeVars().AppendIDs(buf[:0])
				sinkU64 += uint64(len(buf))
			}
		}
	})
	b.Run("recursive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, c := range cons {
				sinkU64 += uint64(len(c.DeepVars(map[uint64]bool{}, nil)))
			}
		}
	})
}
