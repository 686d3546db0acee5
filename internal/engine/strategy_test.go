package engine

import (
	"math"
	"testing"
	"time"

	"cloud9/internal/tree"
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

// frontier adds nodes to s and returns 64 of them spread evenly over it
// (Fibonacci hashing), for a scan to pay its expected half.
func frontier(s Strategy, nodes []tree.Node) []*tree.Node {
	for i := range nodes {
		s.Add(&nodes[i])
	}
	picks := make([]*tree.Node, 64)
	for i := range picks {
		picks[i] = &nodes[(uint64(i)*0x9e3779b97f4a7c15)>>32%uint64(len(nodes))]
	}
	return picks
}

// removeAdd removes each pick from s and adds it back, as a job export
// and a re-import do.
func removeAdd(s Strategy, picks []*tree.Node) func() {
	return func() {
		for _, n := range picks {
			s.Remove(n)
			s.Add(n)
		}
	}
}

// TestRemoveIsConstantTime: DFS and BFS Remove cost the same on a
// 32,768-node frontier as on a 16-node one. Both tombstone the slot
// their position index names; a scan-and-splice Remove, which made heavy
// job transfer quadratic in the frontier, makes the ratio 200 to 1,000,
// and the bound is 20.
func TestRemoveIsConstantTime(t *testing.T) {
	few, many := make([]tree.Node, 16), make([]tree.Node, 1<<15)
	for _, mk := range []func() Strategy{
		func() Strategy { return NewDFS() },
		func() Strategy { return NewBFS() },
	} {
		small, big := mk(), mk()
		ps, pb := frontier(small, few), frontier(big, many)
		if r := sizeRatio(16, removeAdd(small, ps), removeAdd(big, pb)); r > 20 {
			t.Errorf("%s: Remove on 32,768 nodes costs %.0fx Remove on 16", small.Name(), r)
		}
	}
}

// BenchmarkStrategyRemove: removing one node from a 4,096-node frontier
// and adding it back.
func BenchmarkStrategyRemove(b *testing.B) {
	for _, s := range []Strategy{NewDFS(), NewBFS()} {
		picks := frontier(s, make([]tree.Node, 4096))
		b.Run(s.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				n := picks[i%len(picks)]
				s.Remove(n)
				s.Add(n)
			}
		})
	}
}
