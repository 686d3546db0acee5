package cluster

import (
	"sync"
	"testing"
	"time"

	"cloud9/internal/engine"
	"cloud9/internal/interp"
	"cloud9/internal/obs"
)

// tcpFleet is the one harness of the TCP tests: an LB for one target
// program plus the workers started against it, each a full worker on its
// own goroutine doing what cmd/c9-worker does.
type tcpFleet struct {
	src   string
	lbs   *LBServer
	wg    sync.WaitGroup
	errCh chan error

	mu       sync.Mutex
	workers  map[int]*Worker
	statuses []Status // the final statuses, once serve returned
}

// tcpWorkerOpts are the per-worker deviations a test may ask for.
type tcpWorkerOpts struct {
	// lbAddrs replaces the fleet LB's address (primary first, standbys
	// after — the failover test hands workers both).
	lbAddrs []string
	// crashWhen, evaluated on the worker's own thread — so it may read the
	// worker's explorer — with its current queue length, triggers an
	// abrupt crash: no goodbye, the connection just goes silent mid-run.
	crashWhen func(w *Worker, queue int) bool
	// wrap is a test-side fault that decorates the transport the worker
	// runs on (e.g. one whose peer links are blackholed).
	wrap func(*TCPWorkerTransport) Transport
}

// newTCPFleet builds an LB for src with the given balancer config;
// quiescence waits for minWorkers members.
func newTCPFleet(t *testing.T, src string, cfg BalancerConfig, minWorkers int) *tcpFleet {
	t.Helper()
	in, err := mkInterp(t, src)()
	if err != nil {
		t.Fatal(err)
	}
	lbs, err := NewLBServer("127.0.0.1:0", cfg, in.Prog.MaxLine, minWorkers)
	if err != nil {
		t.Fatal(err)
	}
	return &tcpFleet{src: src, lbs: lbs, errCh: make(chan error, 8), workers: map[int]*Worker{}}
}

// start adds one worker.
func (f *tcpFleet) start(t *testing.T, o tcpWorkerOpts) {
	t.Helper()
	factory := mkInterp(t, f.src)
	if o.lbAddrs == nil {
		o.lbAddrs = []string{f.lbs.Addr()}
	}
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		// Compile before dialing so join latency is milliseconds.
		in, err := factory()
		if err != nil {
			f.errCh <- err
			return
		}
		tr, ack, err := DialLB(o.lbAddrs[0], o.lbAddrs[1:]...)
		if err != nil {
			f.errCh <- err
			return
		}
		defer tr.Close()
		var transport Transport = tr
		if o.wrap != nil {
			transport = o.wrap(tr)
		}
		var w *Worker
		wc := ack.WorkerConfig(WorkerConfig{
			Batch:  8,
			Engine: engine.Config{MaxStateSteps: 1_000_000},
			// Frontier with every status: cheap at this scale, and it
			// keeps the custody snapshot maximally fresh for the crash
			// assertions below.
			FrontierEvery: 1,
			NewInterp:     func() (*interp.Interp, error) { return in, nil },
			Entry:         "main",
		})
		if o.crashWhen != nil {
			wc.CrashWhen = func(queue int) bool { return o.crashWhen(w, queue) }
		}
		w, err = NewWorker(wc, transport)
		if err != nil {
			f.errCh <- err
			return
		}
		f.mu.Lock()
		f.workers[w.ID] = w
		f.mu.Unlock()
		if err := w.RunLoop(); err != nil {
			f.errCh <- err
		}
	}()
}

// await polls until worker id has been built; nil if it never is. Safe
// from helper goroutines (it does not fail the test itself).
func (f *tcpFleet) await(id int) *Worker {
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		f.mu.Lock()
		w := f.workers[id]
		f.mu.Unlock()
		if w != nil {
			return w
		}
	}
	return nil
}

// serve runs the LB (f.lbs — a failover test points it at the promoted
// server first) to the end of the run, waits for every worker to exit,
// and returns the summed path and error counts of the final statuses
// plus how many workers departed (crashed, retired, evicted). After it
// returns, f.workers and f.statuses are the test's to read.
func (f *tcpFleet) serve(t *testing.T) (paths, errors uint64, departed int) {
	t.Helper()
	statuses, err := f.lbs.Serve(120 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	f.wg.Wait()
	select {
	case err := <-f.errCh:
		t.Fatal(err)
	default:
	}
	f.statuses = statuses
	if !f.lbs.Exhausted() {
		// The run hit Serve's bound instead of terminating: whatever the
		// test goes on to report, the balancer's journal says where it
		// stuck.
		for _, ev := range f.lbs.Journal().All() {
			t.Logf("lb journal: %s %s worker=%d %v", time.Unix(0, ev.T).Format("05.000"), ev.Type, ev.Worker, ev.Fields)
		}
		for _, st := range statuses {
			t.Logf("final status: worker=%d queue=%d done=%v paths=%d sent=%d recv=%d probe=%d",
				st.Worker, st.Queue, st.Done, st.Paths, st.JobsSent, st.JobsRecv, st.Probe)
		}
	}
	for _, st := range statuses {
		paths += st.Paths
		errors += st.Errors
	}
	for _, w := range f.workers {
		if w.Departed() {
			departed++
		}
	}
	return paths, errors, departed
}

// TestTCPClusterEndToEnd runs an LB and three workers over real TCP
// sockets (in one process, but speaking the cross-process protocol) and
// checks disjoint-and-complete exploration.
func TestTCPClusterEndToEnd(t *testing.T) {
	const numWorkers = 3
	f := newTCPFleet(t, bigClusterTarget, DefaultBalancerConfig(), numWorkers)
	for i := 0; i < numWorkers; i++ {
		f.start(t, tcpWorkerOpts{})
	}
	f.serve(t)

	// The workers' own accounting, not the LB's view of it.
	var paths, errors uint64
	if len(f.workers) != numWorkers {
		t.Fatalf("registered %d workers", len(f.workers))
	}
	for _, w := range f.workers {
		paths += w.Exp.Stats.PathsExplored
		errors += w.Exp.Stats.Errors
	}
	if paths != 1024 {
		t.Fatalf("paths = %d, want exactly 1024 over TCP", paths)
	}
	if errors != 1 {
		t.Fatalf("errors = %d, want 1", errors)
	}
	if len(f.statuses) != numWorkers {
		t.Fatalf("statuses = %d", len(f.statuses))
	}
}

// hugeClusterTarget has 4096 paths, so a TCP cluster run lasts long
// enough (seconds) for a mid-run join to land with plenty of work left.
const hugeClusterTarget = `
int main() {
	char buf[12];
	cloud9_make_symbolic(buf, 12, "in");
	int n = 0;
	int i;
	for (i = 0; i < 12; i++) {
		if (buf[i] > 100) n++;
	}
	if (n == 12) abort();
	return 0;
}`

// TestTCPWorkerCrashRecovery kills one of three TCP workers mid-run (no
// goodbye — its connection just goes silent). The LB must evict it when
// the lease lapses, re-seat its last-reported frontier, and the final
// path count must match the undisturbed total exactly.
func TestTCPWorkerCrashRecovery(t *testing.T) {
	cfg := DefaultBalancerConfig()
	cfg.Lease = 400 * time.Millisecond
	f := newTCPFleet(t, hugeClusterTarget, cfg, 3)
	// Workers A and B run normally; worker C crashes once the cluster
	// has explored 50 paths (well before the 4096 total) AND it holds a
	// healthy queue — its last report then shows outstanding work, so
	// the LB cannot reach quiescence without evicting it and re-seating
	// those jobs.
	f.start(t, tcpWorkerOpts{})
	f.start(t, tcpWorkerOpts{})
	f.start(t, tcpWorkerOpts{crashWhen: func(_ *Worker, queue int) bool {
		return queue >= 16 && f.lbs.TotalPaths() >= 50
	}})

	// Total paths = live workers' last reports + the evicted worker's
	// final record, exactly the undisturbed count.
	paths, errors, departed := f.serve(t)
	if paths != 4096 {
		t.Fatalf("paths = %d, want exactly 4096 after mid-run crash", paths)
	}
	if errors != 1 {
		t.Fatalf("errors = %d, want 1", errors)
	}
	if evictions, _, _, _ := f.lbs.Stats(); evictions != 1 {
		t.Fatalf("evictions = %d, want 1", evictions)
	}
	if departed != 1 {
		t.Fatalf("departed workers = %d, want 1", departed)
	}
}

// TestTCPLateJoin starts the LB with two workers and adds a third once
// exploration is underway; the joiner must receive jobs and the total
// must stay exact.
func TestTCPLateJoin(t *testing.T) {
	f := newTCPFleet(t, hugeClusterTarget, DefaultBalancerConfig(), 2)
	f.start(t, tcpWorkerOpts{})
	f.start(t, tcpWorkerOpts{})
	go func() {
		for f.lbs.TotalPaths() < 20 {
			time.Sleep(2 * time.Millisecond)
		}
		f.start(t, tcpWorkerOpts{})
	}()

	paths, _, _ := f.serve(t)
	if paths != 4096 {
		t.Fatalf("paths = %d, want exactly 4096 with a late joiner", paths)
	}
	if len(f.workers) != 3 {
		t.Fatalf("workers = %d", len(f.workers))
	}
	// The joiner must have been shipped jobs (it may still be mid-replay
	// when the cluster quiesces, so received jobs — not useful steps — is
	// the right signal).
	if w := f.workers[2]; w == nil || w.jobsRecv.Load() == 0 {
		t.Fatal("late joiner never received work")
	}
}

func TestTCPTransportJobDelivery(t *testing.T) {
	lbs, err := NewLBServer("127.0.0.1:0", DefaultBalancerConfig(), 64, 2)
	if err != nil {
		t.Fatal(err)
	}
	go acceptLoop(lbs.listener, lbs.handle)

	t1, ack1, err := DialLB(lbs.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer t1.Close()
	t2, ack2, err := DialLB(lbs.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer t2.Close()
	if ack1.ID == ack2.ID {
		t.Fatal("duplicate worker ids")
	}
	if ack1.Epoch == ack2.Epoch {
		t.Fatal("duplicate epochs")
	}

	// Peer addresses arrive via the membership broadcast; wait for t1 to
	// learn t2's.
	deadline := time.After(5 * time.Second)
	for {
		t1.mu.Lock()
		known := t1.peerAddrs[ack2.ID] != ""
		t1.mu.Unlock()
		if known {
			break
		}
		select {
		case <-deadline:
			t.Fatal("membership broadcast never delivered peer address")
		case <-time.After(5 * time.Millisecond):
		}
	}

	jobs := BuildJobTree([][]uint8{{0, 1}, {1}})
	if !t1.SendJobs(ack2.ID, Message{
		Kind: MsgJobs, From: ack1.ID, Epoch: ack1.Epoch, Seq: 1, Jobs: jobs,
	}) {
		t.Fatal("SendJobs failed")
	}

	for {
		if m, ok := t2.Recv(); ok {
			if m.Kind == MsgMembers {
				continue // the membership view its own join broadcast
			}
			if m.Kind != MsgJobs || m.Jobs.Count() != 2 || m.Seq != 1 || m.From != ack1.ID {
				t.Fatalf("got %+v", m)
			}
			return
		}
		select {
		case <-deadline:
			t.Fatal("job never delivered")
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// tcpFailover is kill -9 of the load balancer over real sockets: a
// primary with a standby and three workers (each given both addresses)
// runs until exploration is underway, then the primary is severed
// abruptly — connections cut, queued replication entries dropped, no
// shutdown marker. The standby must promote after its grace and the
// workers rotate onto it. With lateAttach the standby only subscribes at
// the kill point, so everything it knows comes from the attach snapshot.
// Returns the fleet pointed at the promoted server (for the caller to
// serve) and the dead primary.
func tcpFailover(t *testing.T, lateAttach bool) (*tcpFleet, *LBServer) {
	t.Helper()
	cfg := DefaultBalancerConfig()
	cfg.Lease = 500 * time.Millisecond
	f := newTCPFleet(t, hugeClusterTarget, cfg, 3)
	lbs := f.lbs
	lbs.EnableReplication()
	sb, err := NewStandby("127.0.0.1:0", lbs.Addr(), 300*time.Millisecond, 3)
	if err != nil {
		t.Fatal(err)
	}
	promoted := make(chan *LBServer, 1)
	attach := func() {
		srv, err := sb.Run()
		if err != nil {
			t.Errorf("standby: %v", err)
		}
		promoted <- srv
	}
	attached := !lateAttach
	if attached {
		go attach()
	}
	for i := 0; i < 3; i++ {
		f.start(t, tcpWorkerOpts{lbAddrs: []string{lbs.Addr(), sb.Addr()}})
	}
	go lbs.Serve(120 * time.Second) //nolint:errcheck // aborted below

	// Kill once exploration is underway and the standby has demonstrably
	// caught up past the joins — the entries still queued at that instant
	// die with the primary, exactly like a real crash.
	deadline := time.Now().Add(60 * time.Second)
	caughtUp := uint64(4)
	for lbs.TotalPaths() < 50 || sb.LastSeq() < caughtUp {
		if time.Now().After(deadline) {
			t.Fatalf("cluster never reached the kill point: paths=%d lastSeq=%d",
				lbs.TotalPaths(), sb.LastSeq())
		}
		if !attached && lbs.TotalPaths() >= 50 {
			// Nothing logged so far is ever streamed to this standby: it
			// reaches the primary's current seq by snapshot or not at all.
			lbs.mu.Lock()
			caughtUp = lbs.lb.RepSeq
			lbs.mu.Unlock()
			attached = true
			go attach()
		}
		time.Sleep(2 * time.Millisecond)
	}
	lbs.Abort()

	var srv *LBServer
	select {
	case srv = <-promoted:
	case <-time.After(30 * time.Second):
		t.Fatal("standby never promoted")
	}
	if srv == nil {
		t.Fatal("standby treated the crash as a clean shutdown")
	}
	f.lbs = srv
	return f, lbs
}

// TestTCPLBFailoverExactPaths: across the kill the run must finish with
// exactly the undisturbed totals and no false evictions.
func TestTCPLBFailoverExactPaths(t *testing.T) {
	f, _ := tcpFailover(t, false)
	srv := f.lbs
	paths, errors, departed := f.serve(t)
	if paths != 4096 || errors != 1 {
		t.Fatalf("paths=%d errors=%d, want 4096/1 (undisturbed totals) across LB failover", paths, errors)
	}
	if srv.Term() != 2 || srv.Promotions() != 1 {
		t.Fatalf("term=%d promotions=%d, want 2/1", srv.Term(), srv.Promotions())
	}
	if evictions, _, _, _ := srv.Stats(); evictions != 0 {
		t.Fatalf("evictions = %d, want 0 (no worker died)", evictions)
	}
	// Fleet fold across the promotion: every worker re-sent a cumulative
	// metrics baseline when the stream generation bumped, and nothing may
	// be double-counted. Every worker survived, so the fold must equal
	// the plain sum of the engines' own accounting.
	fleet := srv.ObsSnapshot()
	if departed != 0 {
		t.Fatalf("%d workers departed across the failover", departed)
	}
	var useful uint64
	for _, w := range f.workers {
		useful += w.Exp.Stats.UsefulSteps
	}
	if got := fleet.Counter(obs.MEnginePaths); got != 4096 {
		t.Fatalf("fleet paths counter = %d, want 4096 (re-handshake double-count?)", got)
	}
	if got := fleet.Counter(obs.MEngineUsefulSteps); got != useful {
		t.Fatalf("fleet useful counter = %d, stats sum = %d", got, useful)
	}
	if fleet.Counter(obs.MLBPromotions) != 1 || fleet.Gauge(obs.MLBTerm) != 2 {
		t.Fatalf("promotion metrics wrong: promotions=%d term=%d",
			fleet.Counter(obs.MLBPromotions), fleet.Gauge(obs.MLBTerm))
	}
	// The promoted journal tells the takeover story in protocol order.
	idx := journalIdx(srv.Journal().All(),
		obs.EvPrimaryLost, obs.EvStandbyPromote, obs.EvEpochBump, obs.EvResync)
	for i, at := range idx {
		if at < 0 {
			t.Fatalf("journal missing promotion event #%d", i)
		}
		if i > 0 && idx[i-1] >= at {
			t.Fatalf("promotion events out of order: %v", idx)
		}
	}
}

// TestTCPCleanShutdownStandbyNoTakeover: a SIGTERM'd primary stamps the
// replication log, so an attached standby must exit cleanly instead of
// promoting itself against a deliberately stopped cluster.
func TestTCPCleanShutdownStandbyNoTakeover(t *testing.T) {
	lbs, err := NewLBServer("127.0.0.1:0", DefaultBalancerConfig(), 64, 2)
	if err != nil {
		t.Fatal(err)
	}
	lbs.EnableReplication()
	sb, err := NewStandby("127.0.0.1:0", lbs.Addr(), 200*time.Millisecond, 2)
	if err != nil {
		t.Fatal(err)
	}
	type runResult struct {
		srv *LBServer
		err error
	}
	done := make(chan runResult, 1)
	go func() {
		srv, err := sb.Run()
		done <- runResult{srv, err}
	}()
	served := make(chan error, 1)
	go func() {
		_, err := lbs.Serve(30 * time.Second)
		served <- err
	}()
	// One raw join gives the log an entry; seeing it applied proves the
	// standby is attached and caught up before the shutdown lands.
	tr, _, err := DialLB(lbs.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	deadline := time.Now().Add(10 * time.Second)
	for sb.LastSeq() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("standby never caught up to the join")
		}
		time.Sleep(2 * time.Millisecond)
	}
	lbs.Shutdown()
	if err := <-served; err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-done:
		if r.err != nil {
			t.Fatalf("standby: %v", r.err)
		}
		if r.srv != nil {
			t.Fatalf("standby promoted (term %d) after a clean shutdown", r.srv.Term())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("standby never observed the shutdown marker")
	}
}
