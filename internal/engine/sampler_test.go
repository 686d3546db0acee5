package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"cloud9/internal/cfg"
	"cloud9/internal/coverage"
	"cloud9/internal/tree"
)

// linearSampler is the weighted sampler this package had before the
// Fenwick tree: every pick evaluates every weight, sums them, and walks
// the slots subtracting each weight until the pick reaches zero. It is
// the reference FuzzWeightedSelect holds the tree to.
type linearSampler struct {
	candidates
	weight func(*tree.Node) float64
	rng    *rand.Rand
}

func newLinearSampler(weight func(*tree.Node) float64, seed int64) *linearSampler {
	return &linearSampler{candidates: newCandidates(), weight: weight, rng: rand.New(rand.NewSource(seed))}
}

func (w *linearSampler) Select() *tree.Node {
	for len(w.nodes) > 0 {
		total := 0.0
		for _, n := range w.nodes {
			total += w.weight(n)
		}
		pick := w.rng.Float64() * total
		chosen := w.nodes[len(w.nodes)-1] // kept if rounding leaves pick above zero
		for _, n := range w.nodes {
			pick -= w.weight(n)
			if pick <= 0 {
				chosen = n
				break
			}
		}
		w.Remove(chosen)
		if chosen.IsCandidate() {
			return chosen
		}
	}
	return nil
}

// checkSampler holds w's tree to its definition: each entry is the plain
// sum of the weights it covers (exact for the dyadic weights the fuzzer
// uses), and unless a re-weigh is pending each cached weight is the live
// one.
func checkSampler(t *testing.T, w *weighted) {
	t.Helper()
	if len(w.sums) != len(w.ws)+1 || len(w.ws) != len(w.nodes) {
		t.Fatalf("slots %d, weights %d, tree entries %d", len(w.nodes), len(w.ws), len(w.sums))
	}
	for j := 1; j < len(w.sums); j++ {
		s := 0.0
		for _, x := range w.ws[j-j&-j : j] {
			s += x
		}
		if w.sums[j] != s {
			t.Fatalf("tree entry %d = %v, its slots sum to %v", j, w.sums[j], s)
		}
	}
	if w.stale {
		return
	}
	for i, n := range w.nodes {
		if x := w.weight(n); w.ws[i] != x {
			t.Fatalf("slot %d caches weight %v, live weight %v", i, w.ws[i], x)
		}
	}
}

// maxDecays bounds the halvings an input may ask for: a yield k/2^j
// with k < 32, j < 8 stays a dyadic fraction of at most 32 bits, so
// every weight, sum and remainder either sampler forms is exact and the
// two must agree to the slot.
const maxDecays = 24

// weightedOps decodes ops two bytes at a time, an op and its argument,
// and applies each to a cov-opt and to the linear reference over the
// same nodes with the same seed: both must pick the same node every time.
func weightedOps(t *testing.T, seed int64, ops []byte) {
	got := NewCoverageOptimized(seed)
	want := newLinearSampler(func(n *tree.Node) float64 { return 1 + n.CovYield }, seed)
	var pool []*tree.Node
	decays := 0
	for p := 0; p+1 < len(ops); p += 2 {
		op, arg := ops[p]%6, int(ops[p+1])
		if len(pool) == 0 || len(pool) < 256 && op == 0 {
			// A new node with yield (arg%32)/2^(arg/32).
			n := &tree.Node{CovYield: float64(arg%32) / float64(int(1)<<(arg/32))}
			pool = append(pool, n)
			got.Add(n)
			want.Add(n)
			continue
		}
		n := pool[arg%len(pool)]
		switch op {
		case 0, 1: // file again: a no-op while filed
			got.Add(n)
			want.Add(n)
		case 2:
			got.Remove(n)
			want.Remove(n)
		case 3:
			g, w := got.Select(), want.Select()
			if g != w {
				t.Fatalf("op %d: Fenwick picked %p, linear %p", p/2, g, w)
			}
			if g != nil {
				g.Life = tree.Dead
			}
		case 4:
			if decays < maxDecays {
				decays++
				got.NotifyGlobalCoverage(1)
			}
		case 5: // a filed node stops being a candidate (exported, say)
			n.Life = tree.Fence
		}
		checkSampler(t, &got.weighted)
	}
	for {
		g, w := got.Select(), want.Select()
		if g != w {
			t.Fatalf("drain: Fenwick picked %p, linear %p", g, w)
		}
		if g == nil {
			return
		}
	}
}

// FuzzWeightedSelect: on any sequence of Add, Remove, Select, global
// decay and export, the Fenwick sampler draws exactly what the linear
// walk it replaced draws.
func FuzzWeightedSelect(f *testing.F) {
	f.Add(int64(1), []byte{})
	// Twelve nodes of mixed yield, a decay, picks around removals.
	f.Add(int64(7), []byte{0, 3, 0, 200, 0, 17, 0, 64, 0, 5, 0, 250, 0, 31, 0, 96, 0, 1, 0, 128, 0, 77, 0, 9,
		3, 0, 2, 4, 3, 0, 4, 0, 3, 0, 5, 2, 3, 0, 1, 4, 3, 0, 3, 0})
	f.Fuzz(weightedOps)
}

// TestWeightedSelectWeighsOnce pins the sampler's complexity by counting
// weight evaluations on a warm 4,096-node frontier: a node is weighed
// when filed and never again until global decay, which costs one
// re-weigh of the frontier at the next pick and nothing after.
func TestWeightedSelectWeighsOnce(t *testing.T) {
	const frontier = 4096
	c := NewCoverageOptimized(1)
	calls, weight := 0, c.weight
	c.weight = func(n *tree.Node) float64 {
		calls++
		return weight(n)
	}
	for i := 0; i < frontier; i++ {
		c.Add(&tree.Node{CovYield: float64(i % 7)})
	}
	c.Add(c.Select()) // warm
	count := func(what string, fn func(), want int) {
		t.Helper()
		before := calls
		fn()
		if got := calls - before; got != want {
			t.Errorf("%s: %d weight calls, want %d", what, got, want)
		}
	}
	var n *tree.Node
	count("Select", func() { n = c.Select() }, 0)
	count("Add", func() { c.Add(n) }, 1)
	c.NotifyGlobalCoverage(1)
	count("first Select after decay", func() { n = c.Select() }, frontier)
	c.Add(n)
	count("second Select after decay", func() { c.Select() }, 0)
}

// weightAudit wraps a dist-opt and checks every cached weight against
// the md2u weight evaluated now: before each pick unless the oracle moved
// since the last one (Select must re-weigh first), and after each pick.
type weightAudit struct {
	*DistanceOptimized
	t             *testing.T
	audits, moves int
}

func (a *weightAudit) Select() *tree.Node {
	if a.d.Epoch() != a.epoch {
		a.moves++
	} else {
		a.check("before")
	}
	n := a.DistanceOptimized.Select()
	a.check("after")
	a.audits++
	return n
}

func (a *weightAudit) check(when string) {
	for i, n := range a.nodes {
		if x := a.md2uWeight(n); a.ws[i] != x {
			a.t.Fatalf("%s pick %d: slot %d caches %v, md2u gives %v", when, a.audits, i, a.ws[i], x)
		}
	}
}

// manyCases switches twice on a symbolic byte, twelve cases each, so
// 24 one-line blocks wait to be covered, each a few branches down a
// chain of case compares.
const manyCases = `
int main() {
	char b[2];
	cloud9_make_symbolic(b, 2, "in");
	int n = 0;
	switch (b[0]) {
	case 1: n += 1; break;
	case 2: n += 2; break;
	case 3: n += 3; break;
	case 4: n += 4; break;
	case 5: n += 5; break;
	case 6: n += 6; break;
	case 7: n += 7; break;
	case 8: n += 8; break;
	case 9: n += 9; break;
	case 10: n += 10; break;
	case 11: n += 11; break;
	case 12: n += 12; break;
	}
	switch (b[1]) {
	case 1: n += 13; break;
	case 2: n += 14; break;
	case 3: n += 15; break;
	case 4: n += 16; break;
	case 5: n += 17; break;
	case 6: n += 18; break;
	case 7: n += 19; break;
	case 8: n += 20; break;
	case 9: n += 21; break;
	case 10: n += 22; break;
	case 11: n += 23; break;
	case 12: n += 24; break;
	}
	return n;
}`

// TestDistOptCachedWeightsAreCurrent: inside an interleave with cov-opt,
// a dist-opt caches, at every pick, the md2u weights the oracle gives
// at that pick — though lines covered mid-run and global overlay merges
// move distances after its nodes were weighed. Every second step a peer
// covers the first line this worker has not, ahead of the local run.
func TestDistOptCachedWeightsAreCurrent(t *testing.T) {
	var audit *weightAudit
	e := newExplorer(t, manyCases, Config{Strategy: func(_ *tree.Tree, d *cfg.Distance) Strategy {
		audit = &weightAudit{DistanceOptimized: NewDistanceOptimized(d, 3), t: t}
		return NewInterleaved(audit, NewCoverageOptimized(4))
	}})
	lines := coverableLines(e.In.Prog)
	for steps := 0; ; steps++ {
		switch {
		case steps%2 == 1:
			// A peer covered a line: the overlay merge reaches the
			// oracle and decays cov-opt's yields.
			for _, ln := range lines {
				if !e.Cov.Get(ln) {
					g := coverage.New(e.In.Prog.MaxLine)
					g.Set(ln)
					e.MergeGlobalCoverage(g)
					break
				}
			}
		case steps%16 == 5:
			// A peer's delta that moves no distance still decays yields.
			e.NotifyGlobalCoverage(1)
		}
		more, err := e.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !more {
			break
		}
	}
	if audit.audits < 100 || audit.moves < 10 || e.Stats.PathsExplored == 0 {
		t.Fatalf("%d audited picks, %d oracle moves over %d paths: the run is too small to say anything",
			audit.audits, audit.moves, e.Stats.PathsExplored)
	}
}

// BenchmarkWeightedSelect: one cov-opt pick and the re-file of the
// picked node on a warm frontier. The cost grows with log n; the linear
// sampler it replaced grew with n.
func BenchmarkWeightedSelect(b *testing.B) {
	for _, size := range []int{1 << 10, 1 << 14, 1 << 18} {
		b.Run(fmt.Sprintf("n=%d", size), func(b *testing.B) {
			c := NewCoverageOptimized(1)
			for i := 0; i < size; i++ {
				c.Add(&tree.Node{CovYield: float64(i % 7)})
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Add(c.Select())
			}
		})
	}
}
