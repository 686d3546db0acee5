package cluster

// TCP membership-fault tests that have no in-process twin any more:
// graceful retire over real sockets, and the handshake deadline on the
// three accept loops. tcpFleet is the harness they (and the data-plane
// fault tests) share.

import (
	"net"
	"sync"
	"testing"
	"time"
)

// tcpFleet starts TCP workers against one LB and collects them.
type tcpFleet struct {
	src   string
	lbs   *LBServer
	wg    sync.WaitGroup
	errCh chan error

	mu      sync.Mutex
	workers map[int]*Worker
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

// start adds one worker (see startTCPWorker for crashWhen,
// startTCPWorkerWith for wrap).
func (f *tcpFleet) start(t *testing.T, crashWhen func(w *Worker, queue int) bool,
	wrap func(*TCPWorkerTransport) Transport) {
	t.Helper()
	startTCPWorkerWith(t, []string{f.lbs.Addr()}, f.src, &f.wg, f.errCh, func(w *Worker) {
		f.mu.Lock()
		f.workers[w.ID] = w
		f.mu.Unlock()
	}, crashWhen, wrap)
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

// serve runs the LB to the end of the run, waits for every worker to
// exit, and returns the summed path and error counts of the final
// statuses plus how many workers departed (crashed, retired, evicted).
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
	paths, errors = sumTCPStatuses(statuses)
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, w := range f.workers {
		if w.Departed() {
			departed++
		}
	}
	return paths, errors, departed
}

// TestTCPGracefulRetire retires one of three TCP workers mid-run: its
// final status and goodbye hand the frontier back, the LB re-seats it
// without waiting out a lease, and the totals stay exact.
func TestTCPGracefulRetire(t *testing.T) {
	f := newTCPFleet(t, hugeClusterTarget, DefaultBalancerConfig(), 3)
	for i := 0; i < 3; i++ {
		f.start(t, nil, nil)
	}
	go func() {
		w := f.await(2)
		deadline := time.Now().Add(30 * time.Second)
		for w != nil && f.lbs.TotalPaths() < 50 && time.Now().Before(deadline) {
			time.Sleep(2 * time.Millisecond)
		}
		if w == nil || f.lbs.TotalPaths() < 50 {
			t.Error("cluster never reached the retire point")
			return
		}
		w.Retire()
	}()
	paths, errors, departed := f.serve(t)
	if paths != 4096 || errors != 1 {
		t.Fatalf("paths=%d errors=%d, want 4096/1 after a graceful retire", paths, errors)
	}
	evictions, leaves, _, _ := f.lbs.Stats()
	if leaves != 1 {
		t.Fatalf("leaves = %d, want 1 graceful goodbye", leaves)
	}
	if evictions != 0 {
		t.Fatalf("evictions = %d, want 0 (goodbye, not crash)", evictions)
	}
	if departed != 1 {
		t.Fatalf("departed workers = %d, want 1", departed)
	}
}

// TestTCPHandshakeDeadline dials each of the three listeners — the LB,
// a standby, a worker's peer listener — and sends nothing: the acceptor
// must give up and close the connection within the handshake bound
// instead of pinning a goroutine and a socket forever. The run sharing
// those listeners still lands on the exact count.
func TestTCPHandshakeDeadline(t *testing.T) {
	f := newTCPFleet(t, hugeClusterTarget, DefaultBalancerConfig(), 2)
	sb, err := NewStandby("127.0.0.1:0", f.lbs.Addr(), 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer sb.Close()
	for i := 0; i < 2; i++ {
		f.start(t, nil, nil)
	}
	var silent sync.WaitGroup
	silent.Add(1)
	go func() {
		defer silent.Done()
		w := f.await(0)
		if w == nil {
			t.Error("worker 0 never started")
			return
		}
		peer := w.transport.(*TCPWorkerTransport).listener.Addr().String()
		for name, addr := range map[string]string{"lb": f.lbs.Addr(), "standby": sb.Addr(), "peer": peer} {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Errorf("%s: %v", name, err)
				continue
			}
			silent.Add(1)
			go func() {
				defer silent.Done()
				defer conn.Close()
				// A timeout here means the acceptor is still waiting for a
				// Hello; any other error (EOF, reset) is the close we want.
				_ = conn.SetReadDeadline(time.Now().Add(3 * handshakeTimeout))
				_, err := conn.Read(make([]byte, 1))
				if ne, ok := err.(net.Error); err == nil || (ok && ne.Timeout()) {
					t.Errorf("%s listener kept a silent connection open past the handshake bound (err=%v)", name, err)
				}
			}()
		}
	}()
	paths, errors, _ := f.serve(t)
	if paths != 4096 || errors != 1 {
		t.Fatalf("paths=%d errors=%d, want 4096/1", paths, errors)
	}
	silent.Wait()
}
