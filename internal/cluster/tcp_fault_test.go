package cluster

// TCP membership-fault tests that have no in-process twin any more:
// graceful retire over real sockets, a seed lost before its first
// status, the maxDuration cut-off, the handshake deadline on the two
// accept loops, and the keepalive that holds a silent worker's lease.

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"
)

// TestTCPGracefulRetire retires one of three TCP workers mid-run: its
// final status and goodbye hand the frontier back, the LB re-seats it
// without waiting out a lease, and the totals stay exact.
func TestTCPGracefulRetire(t *testing.T) {
	f := newTCPFleet(t, hugeClusterTarget, DefaultBalancerConfig(), 3)
	for i := 0; i < 3; i++ {
		f.start(t, tcpWorkerOpts{})
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

// TestTCPLostSeed: the seed joins and closes its connection before its
// first status, taking the whole-tree job with it. Once its lease lapses
// the LB re-seats the root onto the worker that joined after it, which
// explores all of it.
func TestTCPLostSeed(t *testing.T) {
	cfg := DefaultBalancerConfig()
	cfg.Lease = 300 * time.Millisecond
	f := newTCPFleet(t, bigClusterTarget, cfg, 1)
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		tr, ack, err := DialLB(f.lbs.Addr())
		if err != nil {
			f.errCh <- err
			return
		}
		tr.Close()
		if !ack.Seed {
			f.errCh <- errors.New("the first member is not the seed")
			return
		}
		f.start(t, tcpWorkerOpts{})
	}()
	paths, errs, _ := f.serve(t)
	if paths != 1024 || errs != 1 {
		t.Fatalf("paths=%d errors=%d, want 1024/1 after losing the seed", paths, errs)
	}
	if evictions, _, _, _ := f.lbs.Stats(); evictions != 1 {
		t.Fatalf("evictions = %d, want 1", evictions)
	}
}

// endlessClusterTarget has 2^40 paths: at the few tens of thousands a
// second these workers explore, no machine exhausts it inside a test, so
// a run over it ends by its time bound whatever the speed of the day.
const endlessClusterTarget = `
int main() {
	char buf[40];
	cloud9_make_symbolic(buf, 40, "in");
	int n = 0;
	int i;
	for (i = 0; i < 40; i++) {
		if (buf[i] > 100) n++;
	}
	return n;
}`

// TestTCPKeepaliveHoldsSilentWorkersLease: a worker inside one solver
// search reports nothing for many leases (coreutil-sum: 26 s against the
// default 2 s); its transport must keep the membership alive, or a run
// whose workers all hit such a search loses every member and waits out
// its time bound. A transport that is gone — the kill -9 case — sends
// nothing and is evicted as before.
func TestTCPKeepaliveHoldsSilentWorkersLease(t *testing.T) {
	const lease = 100 * time.Millisecond
	cfg := DefaultBalancerConfig()
	cfg.Lease = lease
	lbs, err := NewLBServer("127.0.0.1:0", cfg, 64, 0)
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		if _, err := lbs.Serve(30 * time.Second); err != nil {
			t.Error(err)
		}
	}()
	defer func() {
		lbs.Shutdown()
		<-served
	}()
	tr, ack, err := DialLB(lbs.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if ack.Lease != lease {
		t.Fatalf("the ack carries lease %v, want %v", ack.Lease, lease)
	}
	evictions := func() int {
		n, _, _, _ := lbs.Stats()
		return n
	}

	time.Sleep(5 * lease) // the search: no status, no mailbox poll
	lbs.mu.Lock()
	member := lbs.lb.IsMember(ack.ID, ack.Epoch)
	lbs.mu.Unlock()
	if !member || evictions() != 0 {
		t.Fatalf("after five silent leases: member=%v evictions=%d, want true and 0", member, evictions())
	}

	tr.Close()
	for start := time.Now(); evictions() == 0; time.Sleep(time.Millisecond) {
		if time.Since(start) > 2*lease {
			t.Fatalf("a closed transport was not evicted within two leases")
		}
	}
}

// TestTCPTimeBoundStopsWorkers cuts a run off by maxDuration while the
// workers are busy reporting: every one must see the MsgStop and exit at
// once. (Closing the connections outright used to reset them with
// statuses unread, which could discard the MsgStop and leave the worker
// re-dialing the dead server until reconnectDeadline.)
func TestTCPTimeBoundStopsWorkers(t *testing.T) {
	f := newTCPFleet(t, endlessClusterTarget, DefaultBalancerConfig(), 3)
	for i := 0; i < 3; i++ {
		f.start(t, tcpWorkerOpts{})
	}
	statuses, err := f.lbs.Serve(200 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if f.lbs.Exhausted() {
		t.Fatal("2^40 paths exhausted inside 200ms: the run was not cut off")
	}
	var steps uint64
	for _, st := range statuses {
		steps += st.UsefulSteps
	}
	if steps == 0 {
		t.Fatal("no work reported inside 200ms: the workers were not busy when the cut came")
	}
	stopped := make(chan struct{})
	go func() {
		f.wg.Wait()
		close(stopped)
	}()
	select {
	case <-stopped:
	case <-time.After(reconnectDeadline / 5):
		t.Fatal("workers still running long after Serve returned: MsgStop lost")
	}
	select {
	case err := <-f.errCh:
		t.Fatal(err)
	default:
	}
}

// TestTCPHandshakeDeadline dials each of the two listeners — the LB and
// a worker's peer listener — and sends nothing: the acceptor
// must give up and close the connection within the handshake bound
// instead of pinning a goroutine and a socket forever. The run sharing
// those listeners still lands on the exact count.
func TestTCPHandshakeDeadline(t *testing.T) {
	f := newTCPFleet(t, hugeClusterTarget, DefaultBalancerConfig(), 2)
	for i := 0; i < 2; i++ {
		f.start(t, tcpWorkerOpts{})
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
		for name, addr := range map[string]string{"lb": f.lbs.Addr(), "peer": peer} {
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

// silentListener accepts connections and never answers them: what a
// dialer sees of a wedged process, or of a port something else owns.
func silentListener(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var held []net.Conn
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			held = append(held, c)
			mu.Unlock()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		defer mu.Unlock()
		for _, c := range held {
			c.Close()
		}
	})
	return ln.Addr().String()
}

// acceptingLB is a balancer that admits workers without running rounds.
func acceptingLB(t *testing.T) *LBServer {
	t.Helper()
	lbs, err := NewLBServer("127.0.0.1:0", DefaultBalancerConfig(), 64, 0)
	if err != nil {
		t.Fatal(err)
	}
	go acceptLoop(lbs.listener, lbs.handle)
	t.Cleanup(func() { lbs.listener.Close() })
	return lbs
}

// TestTCPDialHandshakeDeadline is TestTCPHandshakeDeadline from the other
// end: an address that accepts and never answers must cost a dialer one
// handshakeTimeout an attempt, so redial gives up at its deadline, not a
// goroutine parked in a read forever; and a worker whose stream is cut
// re-dials and resumes.
func TestTCPDialHandshakeDeadline(t *testing.T) {
	within := func(t *testing.T, what string, start time.Time, lo, hi time.Duration) {
		t.Helper()
		if d := time.Since(start); d < lo || d > hi {
			t.Fatalf("%s took %v, want between %v and %v", what, d, lo, hi)
		}
	}
	t.Run("worker", func(t *testing.T) {
		t.Parallel()
		lbs := acceptingLB(t)
		tr, ack, err := DialLB(lbs.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		// Cut the stream at the balancer: the pump re-dials and must come
		// out the other side resumed.
		start := time.Now()
		lbs.mu.Lock()
		lbs.conns[ack.ID].close()
		lbs.mu.Unlock()
		for tr.LBGen() < 2 {
			if time.Since(start) > 3*handshakeTimeout {
				t.Fatal("the pump never resumed")
			}
			time.Sleep(5 * time.Millisecond)
		}
		lbs.mu.Lock()
		defer lbs.mu.Unlock()
		if !lbs.lb.IsMember(ack.ID, ack.Epoch) || lbs.lb.Joins != 1 {
			t.Fatalf("resumed as someone else: joins=%d members=%v", lbs.lb.Joins, lbs.lb.memberView())
		}
	})
	t.Run("redial", func(t *testing.T) {
		t.Parallel()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		start := time.Now()
		never := func() bool { return false }
		if _, _, err := redial(silentListener(t), Hello{ID: -1}, ln, start.Add(handshakeTimeout/2), never); err == nil {
			t.Fatal("joined a balancer that never answered")
		}
		within(t, "the failed redial", start, handshakeTimeout, 2*handshakeTimeout)
	})
}

// TestTCPRefusalsMapOnce sends each refusal a Hello can get — an evicted
// membership, a malformed re-hello, a fresh join to a resumed balancer
// still rebuilding its run, a peer that has seen a newer epoch of the
// dialer — through dialSession, the one place they become errors, and
// then checks what each dialer built on it does with the error.
func TestTCPRefusalsMapOnce(t *testing.T) {
	lbs := acceptingLB(t)
	resumed, err := ResumeLBServer("127.0.0.1:0", DefaultBalancerConfig(), 64)
	if err != nil {
		t.Fatal(err)
	}
	go acceptLoop(resumed.listener, resumed.handle)
	defer resumed.listener.Close()
	t1, _, err := DialLB(lbs.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer t1.Close()
	t2, _, err := DialLB(lbs.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer t2.Close()
	t2.mu.Lock()
	t2.peerEpochs[t1.ID] = t1.Epoch + 1 // t1's successor has already dialed t2
	t2.mu.Unlock()

	for name, c := range map[string]struct {
		addr string
		h    Hello
		want error
	}{
		"evicted member":    {lbs.Addr(), Hello{ID: 7, Epoch: 3}, ErrJoinRefused},
		"malformed view":    {resumed.Addr(), Hello{ID: 7, Epoch: 3, View: map[int]uint64{-1: 3}}, ErrJoinRefused},
		"resuming balancer": {resumed.Addr(), Hello{ID: -1}, ErrResuming},
		"stale peer epoch":  {t2.listener.Addr().String(), Hello{ID: t1.ID, Epoch: t1.Epoch}, ErrJoinRefused},
	} {
		if _, _, err := dialSession(c.addr, c.h); !errors.Is(err, c.want) {
			t.Errorf("%s: dialSession says %v, want %v", name, err, c.want)
		}
	}

	// redial: a refusal is final, not one more failed attempt.
	start := time.Now()
	if _, _, err := redial(lbs.Addr(), Hello{ID: 7, Epoch: 3}, t1.listener, start.Add(reconnectDeadline), t1.isClosed); !errors.Is(err, ErrJoinRefused) {
		t.Errorf("redial of an evicted member: %v, want %v", err, ErrJoinRefused)
	}
	// SendJobs: a stale incarnation must not ship.
	t1.mu.Lock()
	t1.peerAddrs[t2.ID] = t2.listener.Addr().String()
	t1.mu.Unlock()
	if t1.SendJobs(t2.ID, Message{Kind: MsgJobs, From: t1.ID, Epoch: t1.Epoch, Seq: 1, Jobs: BuildJobTree([][]uint8{{0}})}) {
		t.Error("a peer that had accepted a newer epoch of the sender took its batch")
	}
	// The pump: the balancer evicts t1 and drops its connection; the
	// re-dial is refused and the worker is told to stop.
	lbs.mu.Lock()
	lbs.dispatchLocked(lbs.lb.Goodbye(t1.ID, time.Now()))
	lbs.mu.Unlock()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if m, ok := t1.Recv(); ok && m.Kind == MsgStop {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("a worker whose resume was refused was never stopped")
		}
	}
	if time.Since(start) > 5*time.Second {
		t.Errorf("the refusals took %v: someone retried a final answer", time.Since(start))
	}
}
