package engine

import (
	"fmt"
	"sort"
	"testing"

	"cloud9/internal/cfg"
	"cloud9/internal/coverage"
	"cloud9/internal/cvm"
	"cloud9/internal/interp"
	"cloud9/internal/posix"
	"cloud9/internal/state"
	"cloud9/internal/tree"
)

const branchy = `
int main() {
	char buf[4];
	cloud9_make_symbolic(buf, 4, "in");
	int n = 0;
	if (buf[0] > 100) n++;
	if (buf[1] > 100) n++;
	if (buf[2] > 100) n++;
	if (buf[3] > 100) n++;
	if (n == 4) abort();
	return 0;
}`

func newExplorer(t *testing.T, src string, cfg Config) *Explorer {
	t.Helper()
	prog, err := posix.CompileTarget("t.c", src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	in := interp.New(prog)
	posix.Install(in, posix.Options{})
	e, err := New(in, "main", cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestExhaustiveExploration(t *testing.T) {
	e := newExplorer(t, branchy, Config{RecordAllTests: true})
	if _, err := e.RunToCompletion(0); err != nil {
		t.Fatal(err)
	}
	if !e.Done() {
		t.Fatal("frontier should be empty")
	}
	// 4 independent branches => 16 paths.
	if e.Stats.PathsExplored != 16 {
		t.Fatalf("paths = %d, want 16", e.Stats.PathsExplored)
	}
	if e.Stats.Errors != 1 {
		t.Fatalf("errors = %d, want 1 (the all-high abort)", e.Stats.Errors)
	}
	if len(e.Tests) != 16 {
		t.Fatalf("tests = %d", len(e.Tests))
	}
}

func TestErrorTestCaseHasTriggeringInputs(t *testing.T) {
	e := newExplorer(t, branchy, Config{})
	if _, err := e.RunToCompletion(0); err != nil {
		t.Fatal(err)
	}
	if len(e.Tests) != 1 {
		t.Fatalf("tests = %d, want only the error case", len(e.Tests))
	}
	tc := e.Tests[0]
	if tc.Kind != state.TermError {
		t.Fatalf("kind = %v", tc.Kind)
	}
	in := tc.Inputs["in"]
	if len(in) != 4 {
		t.Fatalf("inputs = %v", tc.Inputs)
	}
	for i, b := range in {
		if b <= 100 {
			t.Errorf("input[%d] = %d does not trigger the bug", i, b)
		}
	}
}

func TestStrategiesAllComplete(t *testing.T) {
	mk := map[string]func(tr *tree.Tree, d *cfg.Distance) Strategy{
		"dfs":     func(*tree.Tree, *cfg.Distance) Strategy { return NewDFS() },
		"bfs":     func(*tree.Tree, *cfg.Distance) Strategy { return NewBFS() },
		"random":  func(*tree.Tree, *cfg.Distance) Strategy { return NewRandom(7) },
		"rp":      func(tr *tree.Tree, _ *cfg.Distance) Strategy { return NewRandomPath(tr, 7) },
		"cov":     func(*tree.Tree, *cfg.Distance) Strategy { return NewCoverageOptimized(7) },
		"dist":    func(_ *tree.Tree, d *cfg.Distance) Strategy { return NewDistanceOptimized(d, 7, DefaultDistWeights()) },
		"ff":      func(*tree.Tree, *cfg.Distance) Strategy { return NewFewestFaults() },
		"default": nil,
	}
	for name, f := range mk {
		cfg := Config{}
		if f != nil {
			cfg.Strategy = f
		}
		e := newExplorer(t, branchy, cfg)
		if _, err := e.RunToCompletion(0); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if e.Stats.PathsExplored != 16 {
			t.Errorf("%s explored %d paths, want 16", name, e.Stats.PathsExplored)
		}
	}
}

// TestFewestFaultsSweepsFaultDepth: three independent injection points
// give 8 paths — 1 with no fault, 3 with one, 3 with two, 1 with three —
// finished shallowest-first. A node is filed under the fault count at
// its fork, before the branch that injects takes its fault, so one
// two-fault path finishes among the one-fault ones; the order is pinned
// as the FIFO buckets run it.
func TestFewestFaultsSweepsFaultDepth(t *testing.T) {
	e := newExplorer(t, `
		int main() {
			int fds[2];
			pipe(fds);
			cloud9_fi_enable();
			ioctl(fds[1], SIO_FAULT_INJ, 1);
			int i;
			for (i = 0; i < 3; i++) __px_write_try(fds[1], "x", 1);
			return 0;
		}`, Config{
		Strategy:       func(*tree.Tree, *cfg.Distance) Strategy { return NewFewestFaults() },
		RecordAllTests: true,
	})
	if _, err := e.RunToCompletion(0); err != nil {
		t.Fatal(err)
	}
	var faults []int
	for _, tc := range e.Tests {
		faults = append(faults, tc.Faults)
	}
	if want := []int{0, 1, 1, 2, 1, 2, 2, 3}; fmt.Sprint(faults) != fmt.Sprint(want) {
		t.Fatalf("fault counts in completion order %v, want %v", faults, want)
	}
}

// TestFewestFaultsRemoveKeepsBucketOrder: removing nodes from the middle
// of a large bucket leaves the rest to drain first-in first-out, and the
// fewer-faults bucket still drains first.
func TestFewestFaultsRemoveKeepsBucketOrder(t *testing.T) {
	const size = 3000
	f := NewFewestFaults()
	var zero, one []*tree.Node
	for i := 0; i < size; i++ {
		n := &tree.Node{Depth: i}
		if i%3 == 2 {
			n.Faults = 1
			one = append(one, n)
		} else {
			zero = append(zero, n)
		}
		f.Add(n)
	}
	// Drain a prefix, so later removals index past a consumed head.
	for _, want := range zero[:100] {
		if got := f.Select(); got != want {
			t.Fatalf("prefix: picked depth %d, want %d", got.Depth, want.Depth)
		}
	}
	zero = zero[100:]
	mid := len(zero) / 2
	for _, n := range zero[mid-250 : mid+250] {
		f.Remove(n)
	}
	f.Remove(one[len(one)/2])
	want := append(append(zero[:mid-250:mid-250], zero[mid+250:]...), one[:len(one)/2]...)
	want = append(want, one[len(one)/2+1:]...)
	for i, w := range want {
		if got := f.Select(); got != w {
			t.Fatalf("pick %d: depth %d, want %d", i, got.Depth, w.Depth)
		}
	}
	if n := f.Select(); n != nil {
		t.Fatalf("drained set yielded depth %d", n.Depth)
	}
}

func TestCoverageGrowsMonotonically(t *testing.T) {
	e := newExplorer(t, branchy, Config{})
	last := 0
	for {
		more, err := e.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !more {
			break
		}
		cur := e.Cov.Count()
		if cur < last {
			t.Fatal("coverage decreased")
		}
		last = cur
	}
	if last == 0 {
		t.Fatal("no coverage recorded")
	}
}

func TestJobTransferRoundTrip(t *testing.T) {
	// Build two explorers over the same program; export half of worker
	// A's frontier to worker B and check both complete the exploration
	// with no duplicated or lost paths.
	mk := func() *Explorer {
		return newExplorer(t, branchy, Config{
			Strategy: func(*tree.Tree, *cfg.Distance) Strategy { return NewBFS() },
		})
	}
	a, b := mk(), mk()

	// Grow A's frontier a bit.
	for i := 0; i < 3; i++ {
		if _, err := a.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if a.Tree.NumCandidates() < 2 {
		t.Fatalf("frontier too small: %d", a.Tree.NumCandidates())
	}
	half := a.Tree.NumCandidates() / 2
	jobs := a.ExportCandidates(half)
	if len(jobs) != half {
		t.Fatalf("exported %d, want %d", len(jobs), half)
	}
	if got := b.ImportJobs(jobs); got != half {
		t.Fatalf("imported %d, want %d", got, half)
	}
	// B must not explore its own root candidate: its root is still a
	// candidate (fresh explorer), so remove it to simulate a new worker
	// joining with only transferred jobs.
	b.Strat.Remove(b.Tree.Root)
	b.Tree.MarkFence(b.Tree.Root)

	if _, err := a.RunToCompletion(0); err != nil {
		t.Fatal(err)
	}
	if _, err := b.RunToCompletion(0); err != nil {
		t.Fatal(err)
	}
	total := a.Stats.PathsExplored + b.Stats.PathsExplored
	if total != 16 {
		t.Fatalf("A=%d B=%d total=%d, want 16 (disjoint and complete)",
			a.Stats.PathsExplored, b.Stats.PathsExplored, total)
	}
	if b.Stats.Materialized == 0 {
		t.Fatal("B should have replayed virtual nodes")
	}
	if b.Stats.ReplaySteps == 0 {
		t.Fatal("replay steps should be accounted")
	}
	if a.Stats.Errors+b.Stats.Errors != 1 {
		t.Fatalf("the abort path must be found exactly once, got %d",
			a.Stats.Errors+b.Stats.Errors)
	}
}

func TestExportKeepsOneCandidate(t *testing.T) {
	e := newExplorer(t, branchy, Config{})
	for i := 0; i < 2; i++ {
		if _, err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	n := e.Tree.NumCandidates()
	jobs := e.ExportCandidates(n) // ask for everything
	if len(jobs) != n-1 {
		t.Fatalf("exported %d of %d; should keep one locally", len(jobs), n)
	}
	if e.Tree.NumCandidates() != 1 {
		t.Fatalf("candidates left = %d", e.Tree.NumCandidates())
	}
}

func TestReplayDeterminism(t *testing.T) {
	// Transfer EVERY candidate after a few steps; the receiving worker
	// must reconstruct identical terminal behavior purely from replays.
	mkA := newExplorer(t, branchy, Config{
		Strategy: func(*tree.Tree, *cfg.Distance) Strategy { return NewDFS() },
	})
	for i := 0; i < 4; i++ {
		if _, err := mkA.Step(); err != nil {
			t.Fatal(err)
		}
	}
	paths := mkA.ExportCandidates(mkA.Tree.NumCandidates() - 1)
	b := newExplorer(t, branchy, Config{
		Strategy: func(*tree.Tree, *cfg.Distance) Strategy { return NewDFS() },
	})
	b.Strat.Remove(b.Tree.Root)
	b.Tree.MarkFence(b.Tree.Root)
	b.ImportJobs(paths)
	if _, err := b.RunToCompletion(0); err != nil {
		t.Fatal(err)
	}
	if b.Stats.BrokenReplays != 0 {
		t.Fatalf("broken replays: %d", b.Stats.BrokenReplays)
	}
	if b.Stats.PathsExplored == 0 {
		t.Fatal("B explored nothing")
	}
}

// TestImportReplaysFromNearestFence: an imported job replays from its
// nearest materialized ancestor, not from the root, so a shared prefix is
// executed once (§8, against VeriSoft's replay from the start). Replaying
// job 000 leaves its off-path sibling 01 materialized as a fence; job 010
// imported after it replays only the step from 01 down.
func TestImportReplaysFromNearestFence(t *testing.T) {
	replay := func(jobs ...[]uint8) uint64 {
		e := newExplorer(t, branchy, Config{
			Strategy: func(*tree.Tree, *cfg.Distance) Strategy { return NewDFS() },
		})
		e.DropRoot()
		for _, job := range jobs {
			e.ImportJobs([][]uint8{job})
			if _, err := e.Step(); err != nil {
				t.Fatal(err)
			}
		}
		return e.Stats.ReplaySteps
	}
	first, fence, job := []uint8{0, 0, 0}, []uint8{0, 1}, []uint8{0, 1, 0}
	toFence, fromRoot := replay(fence), replay(job)
	if got := replay(first, job) - replay(first); toFence == 0 || got != fromRoot-toFence {
		t.Fatalf("job 010 after 000 replayed %d instructions, want %d (%d from the root, %d of them to fence 01)",
			got, fromRoot-toFence, fromRoot, toFence)
	}
}

func TestTreePruneReclaimsDeadNodes(t *testing.T) {
	e := newExplorer(t, branchy, Config{})
	if _, err := e.RunToCompletion(0); err != nil {
		t.Fatal(err)
	}
	before := e.Tree.NumNodes()
	removed := e.Tree.Prune()
	if removed == 0 {
		t.Fatal("prune should reclaim the finished subtrees")
	}
	if e.Tree.NumNodes() != before-removed {
		t.Fatal("node accounting wrong after prune")
	}
}

func TestHangDetectionProducesTest(t *testing.T) {
	e := newExplorer(t, `
		int main() {
			char x;
			cloud9_make_symbolic(&x, 1, "x");
			if (x == 77) {
				long wl = cloud9_get_wlist();
				cloud9_thread_sleep(wl); // deadlock on this path only
			}
			return 0;
		}`, Config{})
	if _, err := e.RunToCompletion(0); err != nil {
		t.Fatal(err)
	}
	if e.Stats.Hangs != 1 {
		t.Fatalf("hangs = %d", e.Stats.Hangs)
	}
	var hang *TestCase
	for i := range e.Tests {
		if e.Tests[i].Kind == state.TermHang {
			hang = &e.Tests[i]
		}
	}
	if hang == nil {
		t.Fatal("no hang test case recorded")
	}
	if got := hang.Inputs["x"]; len(got) != 1 || got[0] != 77 {
		t.Fatalf("hang inputs = %v, want x=77", hang.Inputs)
	}
}

// TestInterleavedForwardsGlobalCoverage: the engine's default strategy
// (interleaved random-path ⊕ cov-opt) must pass cluster-wide coverage
// growth through to the coverage-optimized sub-strategy, decaying its
// accumulated yield weights.
func TestInterleavedForwardsGlobalCoverage(t *testing.T) {
	cov := NewCoverageOptimized(1)
	il := NewInterleaved(NewDFS(), cov)
	n := &tree.Node{CovYield: 8}
	cov.Add(n)
	var s Strategy = il
	g, ok := s.(GlobalCoverageAware)
	if !ok {
		t.Fatal("Interleaved must implement GlobalCoverageAware")
	}
	g.NotifyGlobalCoverage(3)
	if got := n.CovYield; got != 4 {
		t.Fatalf("covYield = %v, want 4 (halved by global decay)", got)
	}
	g.NotifyGlobalCoverage(0)
	if got := n.CovYield; got != 4 {
		t.Fatalf("covYield = %v, want 4 (zero delta must not decay)", got)
	}
}

// globalProbe records the global-coverage notifications a strategy
// receives, delegating everything else to an embedded base strategy.
type globalProbe struct {
	Strategy
	got int
}

func (p *globalProbe) NotifyGlobalCoverage(n int) { p.got += n }

// TestSetStrategyReplaysGlobalCoverage: a strategy hot-swapped in after
// global overlay deltas arrived must learn about them at the swap — a
// fresh cov-opt/dist-opt must not run blind until the next MsgCoverage
// delta happens to arrive.
func TestSetStrategyReplaysGlobalCoverage(t *testing.T) {
	e := newExplorer(t, branchy, Config{})
	// A synthetic peer overlay covering two lines this worker has not
	// executed yet.
	var lines []int
	for ln := range e.In.Prog.CoverableLineSet() {
		lines = append(lines, ln)
	}
	sort.Ints(lines)
	if len(lines) < 2 {
		t.Fatal("target too small")
	}
	g := coverage.New(e.In.Prog.MaxLine)
	g.Set(lines[0])
	g.Set(lines[1])
	added := e.MergeGlobalCoverage(g)
	if added != 2 {
		t.Fatalf("merged %d lines, want 2", added)
	}
	// The merge must also reach the distance oracle.
	if !e.Dist.Covered(lines[0]) || !e.Dist.Covered(lines[1]) {
		t.Fatal("MergeGlobalCoverage did not sync the distance oracle")
	}
	// A strategy swapped in later still hears about the overlay.
	probe := &globalProbe{Strategy: NewDFS()}
	e.SetStrategy(probe)
	if probe.got != added {
		t.Fatalf("hot-swapped strategy saw %d global lines, want %d", probe.got, added)
	}
	// Merging the same overlay again is a no-op (no double notify).
	if again := e.MergeGlobalCoverage(g); again != 0 {
		t.Fatalf("re-merge added %d lines, want 0", again)
	}
	if probe.got != added {
		t.Fatalf("re-merge notified the strategy (%d)", probe.got)
	}
}

// distTestHarness builds a synthetic two-function program and oracle:
// "hot" is a two-block chain whose second block stays uncovered, "cold"
// is a single fully covered block. States placed in them have md2u 1
// (hot b0), 0 (hot b1), and Unreachable (cold).
func distTestHarness(t *testing.T) (*cfg.Distance, func(fn string, block int) *tree.Node) {
	t.Helper()
	prog := cvm.NewProgram("distopt")
	hot := &cvm.Func{Name: "hot", NumRegs: 2, Blocks: []*cvm.Block{
		{Index: 0, Instrs: []cvm.Instr{{Op: cvm.OpConst, Line: 1}, {Op: cvm.OpBr, Imm: 1}}},
		{Index: 1, Instrs: []cvm.Instr{{Op: cvm.OpConst, Line: 2}, {Op: cvm.OpRet, A: -1}}},
	}}
	cold := &cvm.Func{Name: "cold", NumRegs: 2, Blocks: []*cvm.Block{
		{Index: 0, Instrs: []cvm.Instr{{Op: cvm.OpConst, Line: 3}, {Op: cvm.OpRet, A: -1}}},
	}}
	prog.Funcs["hot"], prog.Funcs["cold"] = hot, cold
	prog.MaxLine = 3
	d := cfg.NewDistance(cfg.BuildGraph(prog))
	d.CoverLine(1)
	d.CoverLine(3) // only line 2 (hot b1) stays uncovered
	mk := func(fn string, block int) *tree.Node {
		th := &state.Thread{Stack: []*state.Frame{{Fn: prog.Funcs[fn], Block: block}}}
		return &tree.Node{State: &state.S{
			Threads: map[state.ThreadID]*state.Thread{0: th},
		}}
	}
	return d, mk
}

// TestDistOptPrefersNearUncovered: racing a candidate near uncovered
// code against a saturated one (and against a distance-less virtual
// job), dist-opt must pick the near one almost always — the preference
// is the whole point of the strategy. Deterministic given the seed
// sweep.
func TestDistOptPrefersNearUncovered(t *testing.T) {
	d, mk := distTestHarness(t)
	race := func(rival *tree.Node) int {
		near := 0
		for seed := int64(0); seed < 50; seed++ {
			s := NewDistanceOptimized(d, seed, DefaultDistWeights())
			nearNode := mk("hot", 1) // md2u 0
			s.Add(nearNode)
			s.Add(rival)
			if s.Select() == nearNode {
				near++
			}
			s.Remove(rival)
		}
		return near
	}
	if got := race(mk("cold", 0)); got < 48 {
		t.Errorf("near-vs-saturated: near picked %d/50, want ≥48", got)
	}
	// Virtual jobs (no state) rank as "a few branches away": below a
	// distance-0 state, so imported work cannot drown the nearly-there
	// frontier, but they must still win occasionally (no starvation).
	virtual := race(&tree.Node{})
	if virtual < 40 || virtual == 50 {
		t.Errorf("near-vs-virtual: near picked %d/50, want ≥40 but not all", virtual)
	}
}

func TestDistWeightsParseRoundTrip(t *testing.T) {
	for src, want := range map[string]DistWeights{
		"1:0:0:0":      {MD2U: 1},
		"0.5:1:0:0.25": {MD2U: 0.5, Depth: 1, Yield: 0.25},
		"0:0:0:0":      {},
		"2:0.001:1:8":  {MD2U: 2, Depth: 0.001, Faults: 1, Yield: 8},
	} {
		if w, err := ParseDistWeights(src); err != nil || w != want {
			t.Fatalf("%q parsed as %+v (%v), want %+v", src, w, err, want)
		}
	}
	for _, bad := range []string{"", "1:2:3", "1:2:3:4:5", "1:x:0:0", "-1:0:0:0", "+Inf:0:0:0", "NaN:0:0:0"} {
		if _, err := ParseDistWeights(bad); err == nil {
			t.Errorf("ParseDistWeights(%q) should fail", bad)
		}
	}
	if DefaultDistWeights() != (DistWeights{MD2U: 1}) {
		t.Fatalf("default vector = %+v", DefaultDistWeights())
	}
}

// TestDistOptWeightedFeatures: each non-md2u feature steers selection
// the way its weight says — depth weight prefers shallow candidates,
// fault weight prefers unfaulted ones. No oracle: the md2u feature is
// flat, isolating the feature under test.
func TestDistOptWeightedFeatures(t *testing.T) {
	race := func(w DistWeights, favored, rival *tree.Node) int {
		wins := 0
		for seed := int64(0); seed < 50; seed++ {
			s := NewDistanceOptimized(nil, seed, w)
			s.Add(favored)
			s.Add(rival)
			if s.Select() == favored {
				wins++
			}
			s.Remove(favored)
			s.Remove(rival)
		}
		return wins
	}
	shallow, deep := &tree.Node{Depth: 1}, &tree.Node{Depth: 64}
	if got := race(DistWeights{Depth: 1}, shallow, deep); got < 40 {
		t.Errorf("depth feature: shallow picked %d/50, want ≥40", got)
	}
	clean := &tree.Node{}
	faulty := &tree.Node{Faults: 7}
	if got := race(DistWeights{Faults: 1}, clean, faulty); got < 40 {
		t.Errorf("faults feature: clean picked %d/50, want ≥40", got)
	}
}

// TestDistOptDrainsSaturatedFrontier: once the overlay covers
// everything (every candidate Unreachable), residual weights must
// still drain the frontier to completion.
func TestDistOptDrainsSaturatedFrontier(t *testing.T) {
	e := newExplorer(t, branchy, Config{
		Strategy: func(_ *tree.Tree, d *cfg.Distance) Strategy {
			return NewDistanceOptimized(d, 3, DefaultDistWeights())
		},
	})
	// Explore a few steps to get real forked states on the frontier.
	for i := 0; i < 3; i++ {
		if _, err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if e.Tree.NumCandidates() == 0 {
		t.Fatal("no candidates")
	}
	// Cover everything: every candidate becomes Unreachable.
	g := coverage.New(e.In.Prog.MaxLine)
	for ln := range e.In.Prog.CoverableLineSet() {
		g.Set(ln)
	}
	e.MergeGlobalCoverage(g)
	cands := e.Tree.CandidatesUnder(e.Tree.Root, e.Tree.NumCandidates())
	for _, c := range cands {
		if c.State == nil {
			continue
		}
		if d := e.Dist.StateDist(c.State); d < cfg.Unreachable {
			t.Fatalf("state still %d from uncovered after full overlay", d)
		}
	}
	// The run must still drain to completion on residual weights.
	if _, err := e.RunToCompletion(0); err != nil {
		t.Fatal(err)
	}
	if !e.Done() {
		t.Fatal("dist-opt failed to drain a saturated frontier")
	}
}

// TestCandidatesAddIdempotent: filing a node twice must not leave a
// stale slot behind its single Remove (Random and CoverageOptimized
// used to; the shared set guards every embedder).
func TestCandidatesAddIdempotent(t *testing.T) {
	for name, s := range map[string]Strategy{
		"random":   NewRandom(1),
		"cov-opt":  NewCoverageOptimized(1),
		"dist-opt": NewDistanceOptimized(nil, 1, DefaultDistWeights()),
	} {
		n := &tree.Node{}
		s.Add(n)
		s.Add(n)
		s.Remove(n)
		if got := s.Select(); got != nil {
			t.Errorf("%s: Add, Add, Remove left %p selectable", name, got)
		}
	}
}

// TestWeightedSelectDoesNotAllocate: on a 1,024-node frontier a pick and
// the re-file of the picked node reuse the sampler's slices (dist-opt
// used to allocate a frontier-sized weight slice per pick).
func TestWeightedSelectDoesNotAllocate(t *testing.T) {
	for name, s := range map[string]Strategy{
		"cov-opt":  NewCoverageOptimized(1),
		"dist-opt": NewDistanceOptimized(nil, 1, DistWeights{MD2U: 1, Depth: 0.5, Yield: 0.25}),
	} {
		for i := 0; i < 1024; i++ {
			s.Add(&tree.Node{Depth: i % 40, CovYield: float64(i % 7)})
		}
		s.Add(s.Select()) // the first pick weighs dist-opt's frontier
		if allocs := testing.AllocsPerRun(100, func() { s.Add(s.Select()) }); allocs != 0 {
			t.Errorf("%s: Select allocates %v times per pick", name, allocs)
		}
	}
}
