package engine

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"sync/atomic"

	"cloud9/internal/cfg"
	"cloud9/internal/coverage"
	"cloud9/internal/interp"
	"cloud9/internal/obs"
	"cloud9/internal/solver"
	"cloud9/internal/state"
	"cloud9/internal/tree"
)

// TestCase is the artifact produced when a path terminates: concrete
// inputs that drive the program down that path, plus the verdict.
type TestCase struct {
	Kind    state.TerminationKind
	Message string
	// Inputs maps each symbolic region (by name) to concrete bytes.
	Inputs map[string][]byte
	Path   []uint8
	Steps  uint64
	Faults int
}

// Stats aggregates exploration accounting for one explorer. The uint64
// fields are written with atomic adds on the worker thread so the obs
// registry can snapshot them from a scrape goroutine mid-run; same-thread
// (or post-join) plain reads remain valid.
type Stats struct {
	PathsExplored uint64 // terminated paths
	Errors        uint64
	Hangs         uint64
	UsefulSteps   uint64 // instructions executed on first exploration
	ReplaySteps   uint64 // instructions re-executed to materialize jobs
	Materialized  uint64 // virtual nodes replayed
	BrokenReplays uint64
	SolverKilled  uint64 // states killed by solver budget exhaustion
	NewLinesEver  int    // lines newly covered by this explorer (worker-thread only)
}

// PartitionSpec configures depth partitioning (the depth data-plane
// mode): the path prefix truncated at Depth hashes (FNV-1a) into one of
// Units deterministic work units. Every worker re-derives the shared
// upper region (depth < Depth) locally; descending past the boundary —
// and counting a terminal toward the exploration totals — requires
// owning the terminal's unit, so each path is counted exactly once
// fleet-wide without shipping any job trees.
type PartitionSpec struct {
	Depth int
	Units int
}

// foreignDone records a terminal reached in the shared upper region
// whose unit this worker did not own at the time. If the unit is
// granted later (typically after its owner crashed), the record is
// folded into the stats then; otherwise the unit's owner counted its
// own derivation of the same terminal.
type foreignDone struct {
	depth int
	term  state.TerminationKind
	test  *TestCase
}

// Explorer drives symbolic exploration of one program on one worker.
type Explorer struct {
	In    *interp.Interp
	Tree  *tree.Tree
	Strat Strategy
	Cov   *coverage.BitVec
	// Dist is the worker's static distance-to-uncovered oracle over the
	// program's CFG (internal/cfg). It is kept in sync with Cov — local
	// coverage through the OnCover feed, cluster coverage through
	// MergeGlobalCoverage — and is handed to every strategy constructor;
	// distance-blind strategies never query it, so it costs nothing
	// beyond the one-time static pass.
	Dist *cfg.Distance

	// RecordAllTests also captures test cases for normally exiting
	// paths (not just errors/hangs).
	RecordAllTests bool
	// MaxTests bounds the retained test cases (0 = unlimited).
	MaxTests int

	Tests []TestCase
	Stats Stats

	// Obs is the per-worker metrics registry: engine and solver counters
	// fold in as collect-time sources; the cluster layer registers its
	// protocol counters on the same registry so one snapshot covers the
	// whole worker. Journal is the worker's run-event journal (the
	// cluster layer stamps its worker id and, under the sim, a virtual
	// clock onto it).
	Obs     *obs.Registry
	Journal *obs.Journal

	covLines  *obs.Gauge
	treeNodes *obs.Gauge
	depthHist *obs.Histogram
	testsCtr  *obs.Counter

	// Depth partitioning (nil when the run is not partitioned).
	Part       *PartitionSpec
	owned      []bool
	ownedCount int
	// boundary holds, per unowned unit, the fence nodes parked exactly at
	// the partition boundary (state retained for a later grant).
	boundary map[int][]*tree.Node
	// foreign holds, per unowned unit, the terminals this worker derived
	// in the shared upper region but must not count.
	foreign map[int][]foreignDone

	// coverage scratch for the current Advance call.
	newLines int
}

// Config bundles explorer construction options.
type Config struct {
	// Strategy builds the search strategy over the worker's tree and its
	// distance-to-uncovered oracle (nil: the engine default, random-path
	// interleaved with cov-opt). Distance-blind strategies ignore d.
	Strategy       func(t *tree.Tree, d *cfg.Distance) Strategy
	MaxStateSteps  uint64 // per-path instruction budget (hang detection)
	RecordAllTests bool
	// Partition enables depth partitioning: terminals and subtrees are
	// ownership-gated by deterministic depth-D units (see PartitionSpec).
	Partition *PartitionSpec
}

// New builds an explorer for prog's entry function.
func New(in *interp.Interp, entry string, c Config) (*Explorer, error) {
	root, err := in.InitialState(entry)
	if err != nil {
		return nil, err
	}
	pristine, err := in.InitialState(entry)
	if err != nil {
		return nil, err
	}
	if c.MaxStateSteps > 0 {
		root.MaxSteps = c.MaxStateSteps
		pristine.MaxSteps = c.MaxStateSteps
	}
	t := tree.New(root, pristine)
	e := &Explorer{
		In:             in,
		Tree:           t,
		Cov:            coverage.New(in.Prog.MaxLine),
		Dist:           cfg.NewDistance(cfg.BuildGraph(in.Prog)),
		RecordAllTests: c.RecordAllTests,
	}
	if p := c.Partition; p != nil && p.Depth > 0 && p.Units > 0 {
		e.Part = p
		e.owned = make([]bool, p.Units)
		e.boundary = map[int][]*tree.Node{}
		e.foreign = map[int][]foreignDone{}
	}
	if c.Strategy != nil {
		e.Strat = c.Strategy(t, e.Dist)
	} else {
		e.Strat = NewInterleaved(NewRandomPath(t, 1), NewCoverageOptimized(2))
	}
	e.Strat.Add(t.Root)
	e.initObs()
	in.OnCover = func(line int) {
		if e.Cov.Set(line) {
			e.newLines++
			e.Stats.NewLinesEver++
			e.covLines.Add(1)
			// Keep the distance oracle's view of the overlay current;
			// recomputation is deferred until a strategy actually asks.
			e.Dist.CoverLine(line)
		}
	}
	return e, nil
}

// Done reports whether the frontier is exhausted.
func (e *Explorer) Done() bool { return e.Tree.NumCandidates() == 0 }

// NotifyGlobalCoverage forwards cluster-wide coverage growth (lines
// newly ORed into the local vector from the global overlay) to the
// strategy, if it cares.
func (e *Explorer) NotifyGlobalCoverage(newLines int) {
	if g, ok := e.Strat.(GlobalCoverageAware); ok && newLines > 0 {
		g.NotifyGlobalCoverage(newLines)
	}
}

// MergeGlobalCoverage ORs the cluster's global coverage overlay into
// the worker's local vector (§3.3's global strategy portal), returning
// the number of newly learned lines. The delta flows to everything
// ranking on coverage: the distance oracle re-derives md2u for the
// functions the delta touched (so dist-opt and cupa(dist,...) re-rank
// at their next selection), and GlobalCoverageAware strategies are
// notified so they can discount stale local yield.
func (e *Explorer) MergeGlobalCoverage(g *coverage.BitVec) int {
	added := e.Cov.OrEach(g, e.Dist.CoverLine)
	if added > 0 {
		e.covLines.Add(int64(added))
		e.NotifyGlobalCoverage(added)
	}
	return added
}

// Step explores one candidate node: selects it, materializes it if
// virtual, runs it to the next fork or termination, and updates the
// tree. It returns false when no work remains.
func (e *Explorer) Step() (bool, error) {
	n := e.Strat.Select()
	for n != nil && !n.IsCandidate() {
		n = e.Strat.Select()
	}
	if n == nil {
		return false, nil
	}
	var err error
	if n.Status == tree.Virtual && e.materialize(n) != nil {
		atomic.AddUint64(&e.Stats.BrokenReplays, 1)
		e.Tree.MarkDead(n)
	} else {
		err = e.exploreNode(n)
	}
	e.treeNodes.Set(int64(e.Tree.NumNodes()))
	return true, err
}

// whereIs returns the function s was executing and the source line of
// the instruction it stopped at (0 if that instruction carries none).
func whereIs(s *state.S) (fn string, line int) {
	t := s.CurThread()
	if t == nil || len(t.Stack) == 0 {
		return "", 0
	}
	f := t.Top()
	if instrs := f.Fn.Blocks[f.Block].Instrs; f.PC > 0 && f.PC <= len(instrs) {
		line = instrs[f.PC-1].Line
	}
	return f.Fn.Name, line
}

// exploreNode advances a materialized candidate one fork.
func (e *Explorer) exploreNode(n *tree.Node) error {
	s := n.State
	n.State = nil // ownership moves to the interpreter
	before := e.In.Stats.Instructions
	e.newLines = 0
	kids, err := e.In.Advance(s)
	atomic.AddUint64(&e.Stats.UsefulSteps, e.In.Stats.Instructions-before)
	if err != nil {
		e.Tree.MarkDead(n)
		if errors.Is(err, solver.ErrBudget) {
			// Solver gave up on this path (the analog of an SMT
			// timeout): kill the state, keep exploring others.
			atomic.AddUint64(&e.Stats.SolverKilled, 1)
			fn, line := whereIs(s)
			fields := map[string]string{
				"depth": strconv.Itoa(n.Depth),
				"func":  fn,
				"line":  strconv.Itoa(line),
			}
			var kill *solver.BudgetError
			if errors.As(err, &kill) {
				fields["group"] = strconv.FormatUint(kill.Group, 16)
				fields["vars"] = strconv.Itoa(kill.Vars)
				fields["cons"] = strconv.Itoa(kill.Cons)
				fields["backtracks"] = strconv.FormatUint(kill.Backtracks, 10)
				fields["memo"] = "0"
				if kill.Memo {
					fields["memo"] = "1"
				}
			}
			e.Journal.Append(obs.EvBudgetKill, fields)
			s.Release()
			return nil
		}
		return err
	}
	// Credit the node's coverage yield exactly once, here — not inside
	// each strategy — so composed strategies (an interleave of two
	// coverage-aware searchers) can't double-count the same lines.
	n.CovYield += float64(e.newLines)
	e.Strat.NotifyCoverage(n, e.newLines)
	if kids == nil {
		// Terminated.
		if e.Part != nil {
			if u := e.unitOf(n.PathFromRoot()); !e.owned[u] {
				// A terminal in the shared upper region owned elsewhere:
				// park the result (test built eagerly — the state is about
				// to be released) instead of counting it.
				e.foreign[u] = append(e.foreign[u], foreignDone{
					depth: n.Depth, term: s.Term, test: e.buildTest(s),
				})
				s.Release()
				e.Tree.MarkDead(n)
				e.Tree.Collapse(n)
				return nil
			}
		}
		e.recordTest(s)
		atomic.AddUint64(&e.Stats.PathsExplored, 1)
		e.depthHist.Observe(uint64(n.Depth))
		switch s.Term {
		case state.TermError:
			atomic.AddUint64(&e.Stats.Errors, 1)
		case state.TermHang:
			atomic.AddUint64(&e.Stats.Hangs, 1)
		}
		s.Release()
		e.Tree.MarkDead(n)
		e.Tree.Collapse(n)
		return nil
	}
	// Forked: attach children as materialized candidates. At the
	// partition boundary, children whose unit this worker does not own
	// become fences with their state retained: a later unit grant turns
	// them back into candidates without any replay.
	e.Tree.MarkDead(n)
	var base []uint8
	if e.Part != nil && n.Depth+1 == e.Part.Depth {
		base = n.PathFromRoot()
	}
	for i, k := range kids {
		if base != nil {
			if u := e.unitOf(append(base[:len(base):len(base)], uint8(i))); !e.owned[u] {
				fence := e.Tree.AddChild(n, uint8(i), tree.Materialized, tree.Fence, k)
				e.boundary[u] = append(e.boundary[u], fence)
				continue
			}
		}
		child := e.Tree.AddChild(n, uint8(i), tree.Materialized, tree.Candidate, k)
		e.Strat.Add(child)
	}
	return nil
}

// unitOf maps a root path to its partition unit: FNV-1a over the prefix
// truncated at the partition depth, mod the unit count. Deterministic
// across workers, so every fleet member derives the same unit table.
func (e *Explorer) unitOf(path []uint8) int {
	if len(path) > e.Part.Depth {
		path = path[:e.Part.Depth]
	}
	h := fnv.New64a()
	h.Write(path)
	return int(h.Sum64() % uint64(e.Part.Units))
}

// AcquireUnits folds granted units into the exploration: boundary
// fences become candidates and previously foreign terminals are
// counted. Idempotent over already-owned units; returns the number of
// newly acquired ones.
func (e *Explorer) AcquireUnits(units []int) int {
	if e.Part == nil {
		return 0
	}
	acquired := 0
	for _, u := range units {
		if u < 0 || u >= len(e.owned) || e.owned[u] {
			continue
		}
		e.owned[u] = true
		e.ownedCount++
		acquired++
		for _, n := range e.boundary[u] {
			if n.Life == tree.Fence {
				e.Tree.FenceToCandidate(n)
				e.Strat.Add(n)
			}
		}
		delete(e.boundary, u)
		for _, fd := range e.foreign[u] {
			atomic.AddUint64(&e.Stats.PathsExplored, 1)
			e.depthHist.Observe(uint64(fd.depth))
			switch fd.term {
			case state.TermError:
				atomic.AddUint64(&e.Stats.Errors, 1)
			case state.TermHang:
				atomic.AddUint64(&e.Stats.Hangs, 1)
			}
			if fd.test != nil {
				e.appendTest(*fd.test)
			}
		}
		delete(e.foreign, u)
	}
	return acquired
}

// OwnedUnits returns the sorted unit ids this explorer owns (nil when
// the run is not partitioned).
func (e *Explorer) OwnedUnits() []int {
	if e.Part == nil || e.ownedCount == 0 {
		return nil
	}
	out := make([]int, 0, e.ownedCount)
	for u, ok := range e.owned {
		if ok {
			out = append(out, u)
		}
	}
	return out
}

// materialize replays the path to a virtual node from its nearest
// materialized ancestor (or the pristine root state), converting it to a
// materialized candidate. Off-path siblings created during replay become
// fence nodes (they are owned by other workers).
func (e *Explorer) materialize(n *tree.Node) error {
	atomic.AddUint64(&e.Stats.Materialized, 1)
	anc := e.Tree.NearestMaterializedAncestor(n)
	var s *state.S
	var from *tree.Node
	if anc != nil {
		s = anc.State.Fork(e.In.NewStateID())
		from = anc
	} else {
		s = e.Tree.RootState.Fork(e.In.NewStateID())
		from = e.Tree.Root
	}
	// Collect choices from `from` down to n.
	depth := n.Depth - from.Depth
	choices := make([]uint8, depth)
	cur := n
	for i := depth - 1; i >= 0; i-- {
		choices[i] = cur.Choice
		cur = cur.Parent
	}
	node := from
	for _, choice := range choices {
		before := e.In.Stats.Instructions
		kids, err := e.In.Advance(s)
		atomic.AddUint64(&e.Stats.ReplaySteps, e.In.Stats.Instructions-before)
		if err != nil {
			return err
		}
		if kids == nil || int(choice) >= len(kids) {
			return fmt.Errorf("engine: broken replay at depth %d of %d", node.Depth, n.Depth)
		}
		for i, k := range kids {
			if uint8(i) == choice {
				continue
			}
			// Off-path state: belongs to another worker's subtree.
			if existing := e.Tree.ChildAt(node, uint8(i)); existing == nil {
				e.Tree.AddChild(node, uint8(i), tree.Materialized, tree.Fence, k)
			} else {
				k.Release()
			}
		}
		next := e.Tree.ChildAt(node, choice)
		if next == nil {
			next = e.Tree.AddChild(node, choice, tree.Virtual, tree.Fence, nil)
		}
		node = next
		s = kids[choice]
	}
	if node != n {
		return fmt.Errorf("engine: replay landed on wrong node")
	}
	e.Tree.Materialize(n, s)
	return nil
}

// recordTest captures a test case from a terminated state.
func (e *Explorer) recordTest(s *state.S) {
	if e.MaxTests > 0 && len(e.Tests) >= e.MaxTests {
		return
	}
	if tc := e.buildTest(s); tc != nil {
		e.appendTest(*tc)
	}
}

// buildTest renders a terminated state into a test case, or nil when
// the path is not worth recording. Split from recordTest so partition
// foreign terminals can build the case before the state is released and
// append it only if their unit is granted later.
func (e *Explorer) buildTest(s *state.S) *TestCase {
	interesting := s.Term == state.TermError || s.Term == state.TermHang
	if !interesting && !e.RecordAllTests {
		return nil
	}
	tc := TestCase{
		Kind:    s.Term,
		Message: s.TermMsg,
		Inputs:  map[string][]byte{},
		Path:    state.PathChoices(s.Path),
		Steps:   s.Steps,
		Faults:  s.FaultsTaken,
	}
	model, sat, err := e.In.Solver.Solve(s.Constraints)
	if err == nil && sat {
		for _, region := range s.Symbolics {
			buf := make([]byte, region.Len)
			for i := range buf {
				buf[i], _ = model.Get(region.First + uint64(i)) // unconstrained bytes are 0
			}
			// Regions can share a name (e.g. repeated reads); suffix them.
			name := region.Name
			if _, dup := tc.Inputs[name]; dup {
				name = fmt.Sprintf("%s@%d", region.Name, region.First)
			}
			tc.Inputs[name] = buf
		}
	}
	return &tc
}

// appendTest retains a built test case, honoring the MaxTests cap.
func (e *Explorer) appendTest(tc TestCase) {
	if e.MaxTests > 0 && len(e.Tests) >= e.MaxTests {
		return
	}
	e.Tests = append(e.Tests, tc)
	e.testsCtr.Inc()
}

// ExportCandidates removes up to n candidate nodes from the frontier for
// transfer to another worker, converting them to fences locally (§3.2
// "Worker-to-Worker Job Transfer"). It returns their root paths.
func (e *Explorer) ExportCandidates(n int) [][]uint8 {
	if n <= 0 {
		return nil
	}
	cands := e.Tree.CandidatesUnder(e.Tree.Root, e.Tree.NumCandidates())
	if len(cands) == 0 {
		return nil
	}
	// Prefer exporting shallow nodes: their subtrees are larger, moving
	// more work per transferred job.
	sort.Slice(cands, func(i, j int) bool { return cands[i].Depth < cands[j].Depth })
	if n > len(cands) {
		n = len(cands)
	}
	// Keep at least one candidate locally when possible.
	if n == len(cands) && n > 1 {
		n--
	}
	paths := make([][]uint8, 0, n)
	for _, c := range cands[:n] {
		e.Strat.Remove(c)
		e.Tree.MarkFence(c)
		paths = append(paths, c.PathFromRoot())
	}
	return paths
}

// FrontierPaths returns the root paths of every candidate node — the
// worker's frontier as path prefixes. Shipped (as a job tree) with each
// cluster status so the load balancer can re-seat the jobs of a crashed
// worker onto survivors.
func (e *Explorer) FrontierPaths() [][]uint8 {
	cands := e.Tree.CandidatesUnder(e.Tree.Root, e.Tree.NumCandidates())
	paths := make([][]uint8, len(cands))
	for i, c := range cands {
		paths[i] = c.PathFromRoot()
	}
	return paths
}

// ImportJobs installs path-encoded jobs received from another worker as
// virtual candidate nodes (lazily replayed on selection). A job that
// ends at a dead node, or continues below a finished leaf (a finished
// subtree collapsed there), is work this worker already did: it is
// refused without creating a node. A path may pass through dead
// interior nodes, which is how a job reaches a fence this worker
// shipped earlier, and below a dead leaf that did not finish (a budget
// kill, a broken replay).
func (e *Explorer) ImportJobs(paths [][]uint8) int {
	imported := 0
jobs:
	for _, path := range paths {
		node := e.Tree.Root
		for _, choice := range path {
			if node.Finished() {
				continue jobs
			}
			next := e.Tree.ChildAt(node, choice)
			if next == nil {
				next = e.Tree.AddChild(node, choice, tree.Virtual, tree.Fence, nil)
			}
			node = next
		}
		switch node.Life {
		case tree.Fence:
			if node.Status == tree.Virtual || node.State != nil {
				e.Tree.FenceToCandidate(node)
				e.Strat.Add(node)
				imported++
			}
		case tree.Candidate, tree.Dead:
			// Already ours (a duplicate transfer), or already explored.
		}
	}
	e.treeNodes.Set(int64(e.Tree.NumNodes()))
	return imported
}

// DropRoot removes the root from the frontier, turning it into a fence.
// Non-seed cluster workers call this: they only explore imported jobs
// (the first worker receives the "seed job" of the whole tree, §3.1).
func (e *Explorer) DropRoot() {
	if e.Tree.Root.Life == tree.Candidate {
		e.Strat.Remove(e.Tree.Root)
		e.Tree.MarkFence(e.Tree.Root)
	}
}

// RunToCompletion explores until the frontier is empty or limit steps
// were taken (0 = unlimited). It returns the number of Step calls.
func (e *Explorer) RunToCompletion(limit int) (int, error) {
	steps := 0
	for limit == 0 || steps < limit {
		more, err := e.Step()
		if err != nil {
			return steps, err
		}
		if !more {
			break
		}
		steps++
	}
	return steps, nil
}
