package cluster

import (
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"cloud9/internal/cfg"
	"cloud9/internal/engine"
	"cloud9/internal/interp"
	"cloud9/internal/posix"
	"cloud9/internal/tree"
)

const clusterTarget = `
int main() {
	char buf[6];
	cloud9_make_symbolic(buf, 6, "in");
	int n = 0;
	int i;
	for (i = 0; i < 6; i++) {
		if (buf[i] > 100) n++;
	}
	if (n == 6) abort();
	return 0;
}`

func mkInterp(t *testing.T, src string) func() (*interp.Interp, error) {
	t.Helper()
	return func() (*interp.Interp, error) {
		prog, err := posix.CompileTarget("t.c", src)
		if err != nil {
			return nil, err
		}
		in := interp.New(prog)
		posix.Install(in, posix.Options{})
		return in, nil
	}
}

// joinN admits n members and returns them; statuses sent through
// reportQueue renew their leases at t0.
func joinN(t *testing.T, lb *LoadBalancer, n int) []*Member {
	t.Helper()
	ms := make([]*Member, n)
	for i := 0; i < n; i++ {
		m, _ := lb.Join("", time.Unix(0, 0))
		ms[i] = m
	}
	return ms
}

// report sends a status for member m, defaulting the epoch and worker id.
func report(t *testing.T, lb *LoadBalancer, m *Member, st Status) {
	t.Helper()
	st.Worker = m.ID
	st.Epoch = m.Epoch
	if _, ok := lb.Update(st, time.Unix(1, 0)); !ok {
		t.Fatalf("status for member %d rejected", m.ID)
	}
}

func TestJobTreeRoundTrip(t *testing.T) {
	paths := [][]uint8{{0, 1, 1}, {0, 1, 0}, {1}, {0, 0}, {}}
	jt := BuildJobTree(paths)
	if jt.Count() != len(paths) {
		t.Fatalf("count = %d", jt.Count())
	}
	back := jt.Paths()
	if len(back) != len(paths) {
		t.Fatalf("flattened %d paths", len(back))
	}
	seen := map[string]bool{}
	for _, p := range back {
		seen[string(p)] = true
	}
	for _, p := range paths {
		if !seen[string(p)] {
			t.Fatalf("lost path %v", p)
		}
	}
}

func TestQuickJobTreePreservesPathSets(t *testing.T) {
	f := func(raw [][]byte) bool {
		// Normalize to choice alphabet {0,1,2} and dedupe.
		set := map[string]bool{}
		var paths [][]uint8
		for _, r := range raw {
			if len(r) > 6 {
				r = r[:6]
			}
			p := make([]uint8, len(r))
			for i, b := range r {
				p[i] = b % 3
			}
			if !set[string(p)] {
				set[string(p)] = true
				paths = append(paths, p)
			}
		}
		jt := BuildJobTree(paths)
		back := jt.Paths()
		got := map[string]bool{}
		for _, p := range back {
			got[string(p)] = true
		}
		return reflect.DeepEqual(set, got)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBalancerClassification(t *testing.T) {
	lb := NewLoadBalancer(DefaultBalancerConfig(), 64)
	ms := joinN(t, lb, 2)
	report(t, lb, ms[0], Status{Queue: 20})
	report(t, lb, ms[1], Status{Queue: 0})
	orders := lb.Balance()
	if len(orders) != 1 {
		t.Fatalf("orders = %v", orders)
	}
	if orders[0].Src != ms[0].ID || orders[0].Dst != ms[1].ID || orders[0].NJobs != 10 {
		t.Fatalf("order = %+v, want 0->1 x10", orders[0])
	}
}

func TestBalancerBalancedClusterNoTransfers(t *testing.T) {
	lb := NewLoadBalancer(DefaultBalancerConfig(), 64)
	for _, m := range joinN(t, lb, 4) {
		report(t, lb, m, Status{Queue: 10})
	}
	if orders := lb.Balance(); len(orders) != 0 {
		t.Fatalf("balanced cluster produced orders %v", orders)
	}
}

func TestBalancerDegenerateSigmaAllEqual(t *testing.T) {
	// σ = 0 for all-equal queues: the under/over bands collapse onto the
	// mean and no worker qualifies — including the all-zero cluster,
	// where the starved-worker override must not fire (no peer has work
	// to spare).
	for _, q := range []int{0, 7} {
		lb := NewLoadBalancer(DefaultBalancerConfig(), 64)
		for _, m := range joinN(t, lb, 5) {
			report(t, lb, m, Status{Queue: q})
		}
		if orders := lb.Balance(); len(orders) != 0 {
			t.Fatalf("queues all %d: got orders %v", q, orders)
		}
	}
}

func TestBalancerMinTransferCutoff(t *testing.T) {
	cfg := DefaultBalancerConfig()
	cfg.MinTransfer = 6
	lb := NewLoadBalancer(cfg, 64)
	ms := joinN(t, lb, 2)
	report(t, lb, ms[0], Status{Queue: 10})
	report(t, lb, ms[1], Status{Queue: 0})
	// (10-0)/2 = 5 < MinTransfer: suppressed.
	if orders := lb.Balance(); len(orders) != 0 {
		t.Fatalf("transfer below MinTransfer issued: %v", orders)
	}
	cfg.MinTransfer = 5
	lb2 := NewLoadBalancer(cfg, 64)
	ms2 := joinN(t, lb2, 2)
	report(t, lb2, ms2[0], Status{Queue: 10})
	report(t, lb2, ms2[1], Status{Queue: 0})
	if orders := lb2.Balance(); len(orders) != 1 || orders[0].NJobs != 5 {
		t.Fatalf("transfer at MinTransfer suppressed: %v", orders)
	}
}

func TestBalancerStarvedWorkerOverride(t *testing.T) {
	// Queues {0,5,5,5,5}: mean 4, σ 2, so no worker is strictly
	// overloaded (5 < 4+0.5·2) — only the starved-worker override can
	// pair the idle worker with one that has jobs to spare.
	lb := NewLoadBalancer(DefaultBalancerConfig(), 64)
	ms := joinN(t, lb, 5)
	report(t, lb, ms[0], Status{Queue: 0})
	for _, m := range ms[1:] {
		report(t, lb, m, Status{Queue: 5})
	}
	orders := lb.Balance()
	if len(orders) != 1 {
		t.Fatalf("starved worker not rescued: %v", orders)
	}
	if orders[0].Dst != ms[0].ID || orders[0].NJobs != 2 {
		t.Fatalf("order = %+v, want dst=%d n=2", orders[0], ms[0].ID)
	}
}

func TestBalancerPairsExtremes(t *testing.T) {
	lb := NewLoadBalancer(DefaultBalancerConfig(), 64)
	ms := joinN(t, lb, 4)
	report(t, lb, ms[0], Status{Queue: 100})
	report(t, lb, ms[1], Status{Queue: 50})
	report(t, lb, ms[2], Status{Queue: 50})
	report(t, lb, ms[3], Status{Queue: 0})
	orders := lb.Balance()
	if len(orders) == 0 {
		t.Fatal("no orders for skewed cluster")
	}
	if orders[0].Src != ms[0].ID || orders[0].Dst != ms[3].ID {
		t.Fatalf("should pair extremes, got %+v", orders[0])
	}
}

func TestBalancerDisabled(t *testing.T) {
	lb := NewLoadBalancer(DefaultBalancerConfig(), 64)
	lb.Enabled = false
	ms := joinN(t, lb, 2)
	report(t, lb, ms[0], Status{Queue: 100})
	report(t, lb, ms[1], Status{Queue: 0})
	if orders := lb.Balance(); orders != nil {
		t.Fatal("disabled LB must not issue orders")
	}
}

func TestBalancerSkipsUnreportedMembers(t *testing.T) {
	lb := NewLoadBalancer(DefaultBalancerConfig(), 64)
	ms := joinN(t, lb, 3)
	report(t, lb, ms[0], Status{Queue: 100})
	report(t, lb, ms[1], Status{Queue: 0})
	// ms[2] joined but never reported: it must neither balance nor
	// receive jobs.
	for _, ord := range lb.Balance() {
		if ord.Src == ms[2].ID || ord.Dst == ms[2].ID {
			t.Fatalf("unreported member involved in %+v", ord)
		}
	}
}

func TestQuiescenceDetection(t *testing.T) {
	lb := NewLoadBalancer(DefaultBalancerConfig(), 64)
	ms := joinN(t, lb, 2)
	report(t, lb, ms[0], Status{Queue: 0, JobsSent: 5, JobsRecv: 2})
	report(t, lb, ms[1], Status{Queue: 0, JobsSent: 0, JobsRecv: 2})
	if lb.Quiescent() {
		t.Fatal("in-flight jobs: not quiescent")
	}
	report(t, lb, ms[1], Status{Queue: 0, JobsSent: 0, JobsRecv: 3})
	if !lb.Quiescent() {
		t.Fatal("should be quiescent")
	}
	m3, _ := lb.Join("", time.Unix(1, 0))
	if lb.Quiescent() {
		t.Fatal("unreported member: not quiescent")
	}
	report(t, lb, m3, Status{Queue: 4})
	if lb.Quiescent() {
		t.Fatal("member with queued jobs: not quiescent")
	}
}

func TestQuiescenceWithInFlightJobTrees(t *testing.T) {
	// A job tree in flight shows up as sent-but-not-received: the sender
	// reported JobsSent before the receiver reported JobsRecv. The LB
	// must not declare quiescence in between, even though every reported
	// queue is empty (the receiver would re-fill its queue on receipt).
	lb := NewLoadBalancer(DefaultBalancerConfig(), 64)
	ms := joinN(t, lb, 2)
	report(t, lb, ms[0], Status{Queue: 0, JobsSent: 3, JobsRecv: 0})
	report(t, lb, ms[1], Status{Queue: 0, JobsSent: 0, JobsRecv: 0})
	if lb.Quiescent() {
		t.Fatal("3 jobs in flight: not quiescent")
	}
	// Receiver ingests the tree: queue jumps, still not quiescent.
	report(t, lb, ms[1], Status{Queue: 3, JobsSent: 0, JobsRecv: 3})
	if lb.Quiescent() {
		t.Fatal("receiver has queued jobs: not quiescent")
	}
	// Receiver finishes them.
	report(t, lb, ms[1], Status{Queue: 0, JobsSent: 0, JobsRecv: 3})
	if !lb.Quiescent() {
		t.Fatal("should be quiescent after the tree lands and drains")
	}
}

func TestQuiescenceSurvivesEviction(t *testing.T) {
	// Worker 1 received 4 jobs from worker 0, reported them, then
	// crashed. Its final counters fold into the reconciliation and its
	// frontier is re-seated onto worker 0; quiescence is reached only
	// after worker 0 receives and drains the re-seated jobs.
	frontier := BuildJobTree([][]uint8{{0, 0}, {0, 1}, {1, 0}, {1, 1}})
	lb2 := NewLoadBalancer(DefaultBalancerConfig(), 64)
	ms := joinN(t, lb2, 2)
	report(t, lb2, ms[0], Status{Queue: 0, JobsSent: 4})
	report(t, lb2, ms[1], Status{Queue: 4, JobsRecv: 4, Frontier: frontier})
	// Renew worker 0 at a late time, then expire: only worker 1 lapses.
	late := time.Unix(1, 0).Add(lb2.cfg.Lease)
	report2 := Status{Worker: ms[0].ID, Epoch: ms[0].Epoch, Queue: 0, JobsSent: 4}
	if _, ok := lb2.Update(report2, late); !ok {
		t.Fatal("renewal rejected")
	}
	outs := lb2.ExpireLeases(late.Add(time.Second))
	var evict, reseat bool
	var reseatSeq uint64
	for _, out := range outs {
		switch out.Msg.Kind {
		case MsgEvict:
			if out.Msg.From != ms[1].ID {
				t.Fatalf("evicted wrong worker: %+v", out.Msg)
			}
			evict = true
		case MsgJobs:
			if out.To != ms[0].ID || out.Msg.From != LBFrom || out.Msg.Jobs.Count() != 4 {
				t.Fatalf("bad re-seat: %+v", out)
			}
			reseat = true
			reseatSeq = out.Msg.Seq
		}
	}
	if !evict || !reseat {
		t.Fatalf("expected evict + re-seat, got %+v", outs)
	}
	if lb2.Quiescent() {
		t.Fatal("re-seated jobs outstanding: not quiescent")
	}
	// Survivor ingests the re-seated tree (recv 4+4) and drains it.
	if _, ok := lb2.Update(Status{
		Worker: ms[0].ID, Epoch: ms[0].Epoch,
		Queue: 0, JobsSent: 4, JobsRecv: 4, ReseatAcks: []ReseatAck{{ID: reseatSeq, Jobs: 4}},
	}, late.Add(2*time.Second)); !ok {
		t.Fatal("survivor status rejected")
	}
	if !lb2.Quiescent() {
		t.Fatal("should be quiescent after the re-seat lands")
	}
	if lb2.Evictions != 1 {
		t.Fatalf("evictions = %d", lb2.Evictions)
	}
}

func TestStaleEpochStatusRejected(t *testing.T) {
	lb := NewLoadBalancer(DefaultBalancerConfig(), 64)
	ms := joinN(t, lb, 2)
	report(t, lb, ms[0], Status{Queue: 1})
	// Evict worker 1 by lease expiry, then replay a status from its dead
	// epoch: it must be discarded.
	late := time.Unix(1, 0).Add(lb.cfg.Lease)
	if _, ok := lb.Update(Status{Worker: ms[0].ID, Epoch: ms[0].Epoch, Queue: 1}, late); !ok {
		t.Fatal("renewal rejected")
	}
	lb.ExpireLeases(late.Add(time.Second))
	if lb.IsMember(ms[1].ID, ms[1].Epoch) {
		t.Fatal("worker 1 should be evicted")
	}
	if _, ok := lb.Update(Status{Worker: ms[1].ID, Epoch: ms[1].Epoch, Queue: 99}, late.Add(2*time.Second)); ok {
		t.Fatal("stale-epoch status accepted")
	}
	if _, ok := lb.Update(Status{Worker: 77, Epoch: 3}, late.Add(2*time.Second)); ok {
		t.Fatal("unknown-member status accepted")
	}
}

func TestStatesTransferredCountsActualReceipts(t *testing.T) {
	// Balance may request more jobs than the source actually has; the
	// transfer metric must reflect what receivers got (JobTree.Count on
	// receipt), not the requested order sizes.
	lb := NewLoadBalancer(DefaultBalancerConfig(), 64)
	ms := joinN(t, lb, 2)
	report(t, lb, ms[0], Status{Queue: 20})
	report(t, lb, ms[1], Status{Queue: 0})
	orders := lb.Balance()
	if len(orders) != 1 || orders[0].NJobs != 10 {
		t.Fatalf("orders = %v", orders)
	}
	if got := lb.StatesTransferred(); got != 0 {
		t.Fatalf("StatesTransferred counted requested jobs at order time: %d", got)
	}
	// The source only had 3 exportable jobs; the receiver reports what
	// actually arrived.
	report(t, lb, ms[1], Status{Queue: 3, JobsRecv: 3, TransferredIn: 3})
	if got := lb.StatesTransferred(); got != 3 {
		t.Fatalf("StatesTransferred = %d, want 3 (actual receipts)", got)
	}
	if lb.TransfersIssued != 1 {
		t.Fatalf("TransfersIssued = %d", lb.TransfersIssued)
	}
}

func runCluster(t *testing.T, workers int, src string) *Result {
	t.Helper()
	res, err := Run(Config{
		Workers:     workers,
		Entry:       "main",
		NewInterp:   mkInterp(t, src),
		Engine:      engine.Config{MaxStateSteps: 1_000_000},
		MaxDuration: 60 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// testMailbox is a hand-fed mailbox for worker unit tests: a sim
// endpoint on a bare sim that is never stepped. push appends to the
// worker's inbox; the worker's statuses reach a balancer that has never
// heard of it and are discarded.
func testMailbox(id int) (push func(Message), ep simEndpoint) {
	s := &sim{
		lb:      NewLoadBalancer(DefaultBalancerConfig(), 64),
		gen:     1,
		inbox:   map[int][]Message{},
		pending: map[int][]Message{},
	}
	return func(m Message) { s.inbox[id] = append(s.inbox[id], m) }, simEndpoint{s, id}
}

func TestSingleWorkerExhaustive(t *testing.T) {
	res := runCluster(t, 1, clusterTarget)
	if !res.Exhausted {
		t.Fatal("run did not exhaust the tree")
	}
	if res.Final.Paths != 64 {
		t.Fatalf("paths = %d, want 64", res.Final.Paths)
	}
	if res.Final.Errors != 1 {
		t.Fatalf("errors = %d, want 1", res.Final.Errors)
	}
}

const bigClusterTarget = `
int main() {
	char buf[10];
	cloud9_make_symbolic(buf, 10, "in");
	int n = 0;
	int i;
	for (i = 0; i < 10; i++) {
		if (buf[i] > 100) n++;
	}
	if (n == 10) abort();
	return 0;
}`

func TestFourWorkersExploreDisjointComplete(t *testing.T) {
	// The 4096-path target: the run must outlast several of the LB's
	// 20ms balance rounds for balancing to demonstrably happen.
	res := runCluster(t, 4, hugeClusterTarget)
	if !res.Exhausted {
		t.Fatal("run did not exhaust the tree")
	}
	// Disjointness and completeness (§3.2): exactly 4096 paths in total,
	// regardless of how they were distributed.
	if res.Final.Paths != 4096 {
		t.Fatalf("paths = %d, want exactly 4096 (no dup/lost work)", res.Final.Paths)
	}
	if res.Final.Errors != 1 {
		t.Fatalf("errors = %d, want 1", res.Final.Errors)
	}
	if res.Final.StatesTransferred == 0 {
		t.Fatal("no load balancing happened in a 4-worker run")
	}
	// More than one worker should have done useful work.
	busy := 0
	for _, w := range res.Workers {
		if w.Exp.Stats.UsefulSteps > 0 {
			busy++
		}
	}
	if busy < 2 {
		t.Fatalf("only %d workers did useful work", busy)
	}
}

func TestGlobalCoverageMergesWorkerViews(t *testing.T) {
	res := runCluster(t, 3, clusterTarget)
	// The merged coverage must cover at least what any single worker saw.
	for i, w := range res.Workers {
		if w.Exp.Cov.Count() > res.Final.Coverage {
			t.Fatalf("worker %d coverage %d exceeds global %d",
				i, w.Exp.Cov.Count(), res.Final.Coverage)
		}
	}
	if res.Final.Coverage == 0 {
		t.Fatal("no coverage recorded")
	}
}

func TestErrorTestCasesSurviveTransfer(t *testing.T) {
	// The single abort path must be found exactly once, on whichever
	// worker ended up owning it, with correct triggering inputs.
	res := runCluster(t, 4, bigClusterTarget)
	found := 0
	for _, w := range res.Workers {
		for _, tc := range w.Exp.Tests {
			found++
			in := tc.Inputs["in"]
			if len(in) != 10 {
				t.Fatalf("test inputs %v", tc.Inputs)
			}
			for _, b := range in {
				if b <= 100 {
					t.Fatalf("non-triggering input byte %d", b)
				}
			}
		}
	}
	if found != 1 {
		t.Fatalf("error test cases = %d, want 1", found)
	}
}

func TestDFSClusterStillComplete(t *testing.T) {
	res, err := Run(Config{
		Workers:   3,
		Entry:     "main",
		NewInterp: mkInterp(t, clusterTarget),
		Engine: engine.Config{
			MaxStateSteps: 1_000_000,
			Strategy:      func(*tree.Tree, *cfg.Distance) engine.Strategy { return engine.NewDFS() },
		},
		MaxDuration: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Final.Paths != 64 {
		t.Fatalf("paths = %d, want 64", res.Final.Paths)
	}
}

func TestSimExhaustiveMatchesConcurrent(t *testing.T) {
	// The lock-step simulation and the concurrent cluster must agree on
	// the exploration outcome (disjoint + complete either way).
	factory := mkInterp(t, clusterTarget)
	sim, err := RunSim(SimConfig{
		Workers:   3,
		Entry:     "main",
		NewInterp: factory,
		Engine:    engine.Config{MaxStateSteps: 1_000_000},
		Quantum:   200,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sim.Exhausted {
		t.Fatal("sim did not exhaust")
	}
	if sim.Final.Paths != 64 || sim.Final.Errors != 1 {
		t.Fatalf("sim paths=%d errors=%d", sim.Final.Paths, sim.Final.Errors)
	}
	if sim.Final.TransfersIssued == 0 {
		t.Fatal("sim cluster never balanced")
	}
}

func TestSimDeterministic(t *testing.T) {
	factory := mkInterp(t, clusterTarget)
	run := func() *SimResult {
		res, err := RunSim(SimConfig{
			Workers:   4,
			Entry:     "main",
			NewInterp: factory,
			Engine:    engine.Config{MaxStateSteps: 1_000_000},
			Quantum:   150,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Ticks != b.Ticks || a.Final.Paths != b.Final.Paths ||
		a.Final.UsefulSteps != b.Final.UsefulSteps ||
		a.Final.TransfersIssued != b.Final.TransfersIssued {
		t.Fatalf("simulation not deterministic:\n a=%+v\n b=%+v", a.Final, b.Final)
	}
}

func TestSimStopWhen(t *testing.T) {
	factory := mkInterp(t, clusterTarget)
	res, err := RunSim(SimConfig{
		Workers:   2,
		Entry:     "main",
		NewInterp: factory,
		Engine:    engine.Config{MaxStateSteps: 1_000_000},
		Quantum:   100,
		StopWhen:  func(s Snapshot) bool { return s.Paths >= 5 },
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Final.Paths < 5 {
		t.Fatalf("stopped before the condition: %d paths", res.Final.Paths)
	}
	if res.Exhausted && res.Final.Paths == 64 {
		t.Log("note: exhausted before condition check (acceptable on tiny trees)")
	}
}

func TestSimMaxTicksBounds(t *testing.T) {
	factory := mkInterp(t, bigClusterTarget)
	res, err := RunSim(SimConfig{
		Workers:   2,
		Entry:     "main",
		NewInterp: factory,
		Engine:    engine.Config{MaxStateSteps: 1_000_000},
		Quantum:   100,
		MaxTicks:  3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ticks > 3 {
		t.Fatalf("ran %d ticks, bound was 3", res.Ticks)
	}
	if res.Exhausted {
		t.Fatal("cannot exhaust 1024 paths in 3 small ticks")
	}
}
