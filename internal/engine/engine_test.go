package engine

import (
	"fmt"
	"runtime"
	"slices"
	"testing"
	"weak"

	"cloud9/internal/cfg"
	"cloud9/internal/coverage"
	"cloud9/internal/cvm"
	"cloud9/internal/interp"
	"cloud9/internal/obs"
	"cloud9/internal/posix"
	"cloud9/internal/solver"
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

// coverableLines returns the source lines prog's instructions carry,
// ascending.
func coverableLines(prog *cvm.Program) []int {
	var lines []int
	for _, f := range prog.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Line > 0 {
					lines = append(lines, in.Line)
				}
			}
		}
	}
	slices.Sort(lines)
	return slices.Compact(lines)
}

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
		"dist":    func(_ *tree.Tree, d *cfg.Distance) Strategy { return NewDistanceOptimized(d, 7) },
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

// lastPick wraps a strategy and remembers the node it picked last, with
// the path condition that node's state held.
type lastPick struct {
	Strategy
	n  *tree.Node
	cs *solver.ConstraintSet
}

func (l *lastPick) Select() *tree.Node {
	l.n, l.cs = l.Strategy.Select(), nil
	if l.n != nil && l.n.State != nil {
		l.cs = l.n.State.Constraints
	}
	return l.n
}

func withLastPick(t *testing.T, src string, c Config) (*Explorer, *lastPick) {
	t.Helper()
	pick := &lastPick{Strategy: NewDFS()}
	c.Strategy = func(*tree.Tree, *cfg.Distance) Strategy { return pick }
	return newExplorer(t, src, c), pick
}

// A worker's heap holds its frontier, not its history: once a path has
// finished and its subtree collapsed, neither its tree node nor its path
// condition (on which the solver memoized the set's solve state) is
// reachable from the explorer. A table keyed by the sets or nodes a
// worker has seen would keep both.
func TestFinishedPathsAreCollected(t *testing.T) {
	e, pick := withLastPick(t, branchy, Config{RecordAllTests: true})
	var node weak.Pointer[tree.Node]
	var set weak.Pointer[solver.ConstraintSet]
	for node.Value() == nil {
		if more, err := e.Step(); err != nil || !more {
			t.Fatalf("no path finished: %v", err)
		}
		if e.Stats.PathsExplored == 1 {
			node, set = weak.Make(pick.n), weak.Make(pick.cs)
		}
	}
	pick.n, pick.cs = nil, nil
	if _, err := e.RunToCompletion(0); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	if node.Value() != nil {
		t.Error("a finished path's tree node outlived its collapse")
	}
	if set.Value() != nil {
		t.Error("a finished path's constraint set outlived its states")
	}
	runtime.KeepAlive(e)
}

// Single-node exhaustion collapses the whole tree into its dead root.
func TestExhaustionCollapsesTheTree(t *testing.T) {
	e := newExplorer(t, branchy, Config{})
	if _, err := e.RunToCompletion(0); err != nil {
		t.Fatal(err)
	}
	if n := e.Tree.NumNodes(); n != 1 {
		t.Fatalf("exhausted tree has %d nodes, want the root alone", n)
	}
	if g := e.Obs.Snapshot().Gauges[obs.MEngineTreeNodes]; g != 1 {
		t.Fatalf("%s = %d, want 1", obs.MEngineTreeNodes, g)
	}
}

// A job below a collapsed dead leaf is work this worker finished: it is
// refused without creating a node, and nothing is explored twice. A job
// that walks through dead interior nodes to a fence is imported.
func TestImportRefusesFinishedSubtrees(t *testing.T) {
	e := newExplorer(t, branchy, Config{})
	if _, err := e.RunToCompletion(0); err != nil {
		t.Fatal(err)
	}
	if got := e.ImportJobs([][]uint8{{0, 1}, {1}}); got != 0 || e.Tree.NumNodes() != 1 {
		t.Fatalf("imported %d jobs below the collapsed root, tree has %d nodes", got, e.Tree.NumNodes())
	}
	if _, err := e.RunToCompletion(0); err != nil {
		t.Fatal(err)
	}
	if e.Stats.PathsExplored != 16 {
		t.Fatalf("paths = %d, want 16: a refused job was explored", e.Stats.PathsExplored)
	}

	e = newExplorer(t, branchy, Config{
		Strategy: func(*tree.Tree, *cfg.Distance) Strategy { return NewBFS() },
	})
	for i := 0; i < 3; i++ {
		if _, err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	jobs := e.ExportCandidates(1)
	if _, err := e.RunToCompletion(0); err != nil {
		t.Fatal(err)
	}
	if got := e.ImportJobs(jobs); got != 1 {
		t.Fatalf("a job through dead interior nodes to its fence: imported %d, want 1", got)
	}
	if _, err := e.RunToCompletion(0); err != nil {
		t.Fatal(err)
	}
	if e.Stats.PathsExplored != 16 || e.Tree.NumNodes() != 1 {
		t.Fatalf("paths = %d, nodes = %d after the job came back; want 16 and 1",
			e.Stats.PathsExplored, e.Tree.NumNodes())
	}
}

// A budget-killed leaf stays in the tree, and so does every ancestor
// above it: the kill is not a finished path.
func TestBudgetKilledLeafKeepsItsAncestors(t *testing.T) {
	e, pick := withLastPick(t, `
		int main() {
			char in[3];
			cloud9_make_symbolic(in, 3, "in");
			if (in[0] > 100) {
				if (in[1] * in[2] == 77 && in[1] + in[2] == 18)
					return 1;
			}
			return 0;
		}`, Config{})
	e.In.Solver.MaxBacktracks = 1
	var killed *tree.Node
	for {
		more, err := e.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !more {
			break
		}
		if killed == nil && e.Stats.SolverKilled == 1 {
			killed = pick.n
		}
	}
	if killed == nil {
		t.Fatal("no path was budget-killed")
	}
	if killed.Life != tree.Dead || len(killed.Children) != 0 {
		t.Fatal("the killed node is not a dead leaf")
	}
	for n := killed; n != e.Tree.Root; n = n.Parent {
		if e.Tree.ChildAt(n.Parent, n.Choice) != n {
			t.Fatalf("the ancestor at depth %d dropped its child", n.Depth-1)
		}
	}
	if e.Tree.NumNodes() <= killed.Depth {
		t.Fatalf("tree has %d nodes, fewer than the killed path's %d", e.Tree.NumNodes(), killed.Depth+1)
	}
	// Nothing below the killed leaf was explored, so a job there is not
	// refused as finished work.
	if n := e.ImportJobs([][]uint8{append(killed.PathFromRoot(), 0)}); n != 1 {
		t.Fatalf("a job below the killed leaf imported %d, want 1", n)
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

// TestMergeGlobalCoverageNotifiesOnce: an overlay merge tells a
// coverage-aware strategy how many lines it added, and merging the same
// overlay again adds and tells nothing.
func TestMergeGlobalCoverageNotifiesOnce(t *testing.T) {
	probe := &globalProbe{Strategy: NewDFS()}
	e := newExplorer(t, branchy, Config{
		Strategy: func(*tree.Tree, *cfg.Distance) Strategy { return probe },
	})
	// A synthetic peer overlay covering two lines this worker has not
	// executed yet.
	lines := coverableLines(e.In.Prog)
	if len(lines) < 2 {
		t.Fatal("target too small")
	}
	g := coverage.New(e.In.Prog.MaxLine)
	g.Set(lines[0])
	g.Set(lines[1])
	added := e.MergeGlobalCoverage(g)
	if added != 2 || probe.got != added {
		t.Fatalf("merged %d lines and notified %d, want 2 and 2", added, probe.got)
	}
	if again := e.MergeGlobalCoverage(g); again != 0 || probe.got != added {
		t.Fatalf("re-merge added %d lines and notified %d in all, want 0 and %d", again, probe.got, added)
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
			Threads: []*state.Thread{nil, th}, Cur: 1,
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
			s := NewDistanceOptimized(d, seed)
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

// TestDistOptDrainsSaturatedFrontier: once the overlay covers
// everything (every candidate Unreachable), residual weights must
// still drain the frontier to completion.
func TestDistOptDrainsSaturatedFrontier(t *testing.T) {
	e := newExplorer(t, branchy, Config{
		Strategy: func(_ *tree.Tree, d *cfg.Distance) Strategy {
			return NewDistanceOptimized(d, 3)
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
	for _, ln := range coverableLines(e.In.Prog) {
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
		"dist-opt": NewDistanceOptimized(nil, 1),
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
		"dist-opt": NewDistanceOptimized(nil, 1),
	} {
		for i := 0; i < 1024; i++ {
			s.Add(&tree.Node{Depth: i % 40, CovYield: float64(i % 7)})
		}
		s.Add(s.Select()) // warm
		if allocs := testing.AllocsPerRun(100, func() { s.Add(s.Select()) }); allocs != 0 {
			t.Errorf("%s: Select allocates %v times per pick", name, allocs)
		}
	}
}
