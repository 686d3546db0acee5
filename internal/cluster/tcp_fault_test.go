package cluster

// TCP membership-fault tests that have no in-process twin any more:
// graceful retire over real sockets, the maxDuration cut-off, and the
// handshake deadline on the three accept loops.

import (
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

// TestTCPTimeBoundStopsWorkers cuts a run off by maxDuration while the
// workers are busy reporting: every one must see the MsgStop and exit at
// once. (Closing the connections outright used to reset them with
// statuses unread, which could discard the MsgStop and leave the worker
// re-dialing the dead server until reconnectDeadline.)
func TestTCPTimeBoundStopsWorkers(t *testing.T) {
	f := newTCPFleet(t, hugeClusterTarget, DefaultBalancerConfig(), 3)
	for i := 0; i < 3; i++ {
		f.start(t, tcpWorkerOpts{})
	}
	if _, err := f.lbs.Serve(200 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if f.lbs.Exhausted() {
		t.Fatal("4096 paths exhausted inside 200ms: the run was not cut off")
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
