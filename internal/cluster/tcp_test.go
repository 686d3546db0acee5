package cluster

import (
	"context"
	"strings"
	"sync"
	"sync/atomic"
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
	src    string
	covLen int
	lbs    *LBServer
	wg     sync.WaitGroup
	errCh  chan error

	mu       sync.Mutex
	workers  map[int]*Worker
	statuses []Status // the final statuses, once serve returned
}

// tcpWorkerOpts are the per-worker deviations a test may ask for.
type tcpWorkerOpts struct {
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
	return &tcpFleet{src: src, covLen: in.Prog.MaxLine, lbs: lbs, errCh: make(chan error, 8), workers: map[int]*Worker{}}
}

// start adds one worker.
func (f *tcpFleet) start(t *testing.T, o tcpWorkerOpts) {
	t.Helper()
	factory := mkInterp(t, f.src)
	addr := f.lbs.Addr()
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		// Compile before dialing so join latency is milliseconds.
		in, err := factory()
		if err != nil {
			f.errCh <- err
			return
		}
		tr, ack, err := DialLB(addr)
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
			Batch:     8,
			Engine:    engine.Config{MaxStateSteps: 1_000_000},
			NewInterp: func() (*interp.Interp, error) { return in, nil },
			Entry:     "main",
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

// serveBound is how long serve lets a run go before failing the test. The
// slowest healthy serve, in five runs of go test -race ./internal/cluster
// on a 2-core box, took 3.7 s (TestTCPHandshakeDeadline; every other
// under 1.5 s): a run still going at 30 s can no longer end.
const serveBound = 30 * time.Second

// await polls until worker id has been built; nil if it never is. Safe
// from helper goroutines (it does not fail the test itself). Workers
// compile before they dial, so a join takes milliseconds.
func (f *tcpFleet) await(id int) *Worker {
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		f.mu.Lock()
		w := f.workers[id]
		f.mu.Unlock()
		if w != nil {
			return w
		}
	}
	return nil
}

// serve runs the LB (f.lbs — a restart test points it at the resumed
// server first) to the end of the run, waits for every worker to exit,
// and returns the fleet's path and error counts — live members' and
// departed ones' accounted metrics — plus how many workers departed (crashed, retired, evicted). After it
// returns, f.workers and f.statuses are the test's to read. A run that
// has not terminated within serveBound fails the test.
func (f *tcpFleet) serve(t *testing.T) (paths, errors uint64, departed int) {
	t.Helper()
	statuses, err := f.lbs.Serve(serveBound)
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
		// The run hit Serve's bound instead of terminating: the balancer's
		// journal says where it stuck.
		for _, ev := range f.lbs.Journal().All() {
			t.Logf("lb journal: %s %s worker=%d %v", time.Unix(0, ev.T).Format("05.000"), ev.Type, ev.Worker, ev.Fields)
		}
		for _, st := range statuses {
			t.Logf("final status: worker=%d queue=%d done=%v paths=%d sent=%d recv=%d probe=%d",
				st.Worker, st.Queue, st.Done, st.Obs.Counter(obs.MEnginePaths), st.JobsSent, st.JobsRecv, st.Probe)
		}
		t.Fatalf("the run did not terminate within %v", serveBound)
	}
	fleet := f.lbs.ObsSnapshot()
	paths, errors = fleet.Counter(obs.MEnginePaths), fleet.Counter(obs.MEngineErrors)
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

// lossyFullStatuses loses every third full status on the way to the
// balancer yet reports it sent, as a stream that accepted the write and
// died before delivering it does.
type lossyFullStatuses struct {
	*TCPWorkerTransport
	full int
}

func (l *lossyFullStatuses) SendToLBAt(m Message, gen uint64) bool {
	if m.Kind == MsgStatus && m.Status.Frontier != nil {
		if l.full++; l.full%3 == 0 {
			return true
		}
	}
	return l.TCPWorkerTransport.SendToLBAt(m, gen)
}

// TestTCPLostFullStatusesLoseNoMetrics loses full statuses silently: each
// full status carries its worker's cumulative metrics, so the next one
// that arrives restores whatever a lost one held, and at termination the
// balancer's engine counters equal the workers' own registries, summed.
func TestTCPLostFullStatusesLoseNoMetrics(t *testing.T) {
	f := newTCPFleet(t, bigClusterTarget, DefaultBalancerConfig(), 2)
	for i := 0; i < 2; i++ {
		f.start(t, tcpWorkerOpts{wrap: func(tr *TCPWorkerTransport) Transport { return &lossyFullStatuses{TCPWorkerTransport: tr} }})
	}
	f.serve(t)
	var want obs.Snapshot
	for _, w := range f.workers {
		want.Merge(w.Exp.Obs.Snapshot())
	}
	got := f.lbs.ObsSnapshot()
	checked := 0
	for name, v := range want.Counters {
		if !strings.HasPrefix(name, "c9_engine_") {
			continue
		}
		checked++
		if got.Counter(name) != v {
			t.Errorf("%s = %d at the balancer, %d in the workers' registries", name, got.Counter(name), v)
		}
	}
	if checked == 0 || want.Counter(obs.MEnginePaths) != 1024 {
		t.Fatalf("checked %d engine counters over %d paths, want 1024", checked, want.Counter(obs.MEnginePaths))
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
	// Once exploration is underway the first two workers wait at a turn
	// boundary until the joiner has run its first turn, so work is left
	// to ship it however long it takes to start.
	var joiner atomic.Pointer[Worker]
	joined := make(chan struct{})
	var once sync.Once
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	hold := func(*Worker, int) bool {
		if f.lbs.TotalPaths() >= 20 {
			select {
			case <-joined:
			case <-ctx.Done():
			}
		}
		return false
	}
	f.start(t, tcpWorkerOpts{crashWhen: hold})
	f.start(t, tcpWorkerOpts{crashWhen: hold})
	go func() {
		for f.lbs.TotalPaths() < 20 {
			time.Sleep(2 * time.Millisecond)
		}
		f.start(t, tcpWorkerOpts{crashWhen: func(w *Worker, _ int) bool {
			joiner.Store(w)
			once.Do(func() { close(joined) })
			return false
		}})
	}()

	paths, _, _ := f.serve(t)
	w := joiner.Load()
	if w == nil {
		t.Fatal("the late joiner never ran a turn")
	}
	if paths != 4096 {
		t.Fatalf("paths = %d, want exactly 4096 with a late joiner", paths)
	}
	if len(f.workers) != 3 {
		t.Fatalf("workers = %d", len(f.workers))
	}
	// The joiner must have been shipped jobs (it may still be mid-replay
	// when the cluster quiesces, so received jobs — not useful steps — is
	// the right signal).
	if w.jobsRecv.Load() == 0 {
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
		known := t1.peerAddrs[ack2.ID] != "" && t1.notes.hello("", ack1.ID, ack1.Epoch).View[ack2.ID] == ack2.Epoch
		t1.mu.Unlock()
		if known {
			break
		}
		select {
		case <-deadline:
			t.Fatal("membership broadcast never delivered peer address and view")
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

// tcpRestart is kill -9 of the load balancer over real sockets, and its
// restart: three workers run until exploration is underway, the balancer
// is severed abruptly — listener and connections cut, no MsgStop — and a
// ResumeLBServer takes its address. The workers re-dial it with their
// views. Returns the fleet pointed at the resumed server, for the caller
// to serve.
func tcpRestart(t *testing.T, cfg BalancerConfig) *tcpFleet {
	t.Helper()
	cfg.Lease = 500 * time.Millisecond
	f := newTCPFleet(t, hugeClusterTarget, cfg, 3)
	for i := 0; i < 3; i++ {
		f.start(t, tcpWorkerOpts{})
	}
	dead := f.lbs
	go dead.Serve(serveBound) //nolint:errcheck // aborted below
	// All three must have joined before the balancer dies, or the last one
	// joins the restart fresh instead of being readmitted.
	if f.await(2) == nil {
		t.Fatal("worker 2 never joined")
	}
	for deadline := time.Now().Add(60 * time.Second); dead.TotalPaths() < 50; time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("cluster never reached the kill point: paths=%d", dead.TotalPaths())
		}
	}
	addr := dead.Addr()
	dead.Abort()
	srv, err := ResumeLBServer(addr, cfg, f.covLen)
	if err != nil {
		t.Fatal(err)
	}
	f.lbs = srv
	return f
}

// exactTCPRestart fails t unless a restarted run landed on the
// undisturbed 4096/1 with every worker readmitted, nobody evicted or
// abandoned, and the fleet fold equal to the engines' own accounting.
func exactTCPRestart(t *testing.T, f *tcpFleet) {
	t.Helper()
	paths, errors, departed := f.serve(t)
	if paths != 4096 || errors != 1 {
		t.Fatalf("paths=%d errors=%d, want 4096/1 (undisturbed totals) across the restart", paths, errors)
	}
	if evictions, _, _, _ := f.lbs.Stats(); evictions != 0 || departed != 0 {
		t.Fatalf("evictions=%d departed=%d, want 0/0 (no worker died)", evictions, departed)
	}
	// Every worker re-sent a cumulative metrics baseline when its stream
	// generation bumped, and nothing may be double-counted: with every
	// worker alive the fold must equal the engines' own accounting.
	fleet := f.lbs.ObsSnapshot()
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
	if fleet.Counter(obs.MLBReadmits) != 3 || fleet.Counter(obs.MLBAbandoned) != 0 {
		t.Fatalf("readmits=%d abandoned=%d, want 3/0",
			fleet.Counter(obs.MLBReadmits), fleet.Counter(obs.MLBAbandoned))
	}
	journal := f.lbs.Journal().All()
	at := journalIdx(journal, obs.EvResync)[0]
	if at < 0 || journal[at].Fields["stale"] != "0" {
		t.Fatalf("no clean resync event in the restarted journal: %+v", journal)
	}
}

// TestTCPLBFailoverExactPaths: across the kill and the restart the run
// must finish with exactly the undisturbed totals and no false evictions.
func TestTCPLBFailoverExactPaths(t *testing.T) {
	exactTCPRestart(t, tcpRestart(t, DefaultBalancerConfig()))
}
