package cluster

import (
	"encoding/gob"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"cloud9/internal/obs"
)

// ErrJoinRefused is returned when the LB rejects a (re)join — the
// worker's membership was evicted and its work re-seated elsewhere.
var ErrJoinRefused = errors.New("cluster: join refused (evicted)")

// ErrNotPrimary is returned when the dialed address is a standby that
// has not (yet) been promoted. Retryable: the worker rotates to the
// next address and backs off.
var ErrNotPrimary = errors.New("cluster: not primary (standby)")

// The TCP fabric runs the same worker/LB protocol across real processes:
// workers register with the load balancer at any time (no fixed cluster
// size), stream status updates to it, and ship job trees directly to
// each other (the LB stays off the critical path, §3.1). A worker whose
// LB connection drops re-dials and resumes its membership; a worker that
// goes silent past its lease is evicted and its last-reported frontier
// re-seated onto survivors. cmd/c9-lb and cmd/c9-worker wrap this.
// Every connection — worker→LB, worker→worker, standby→primary — is a
// session: a Hello, the HelloAck that answers it, then WireMsg frames.

// WireMsg is the union envelope exchanged over TCP.
type WireMsg struct {
	Hello *Hello
	Ack   *HelloAck
	Msg   *Message
	// PeerAddrs maps worker ids to their job-transfer addresses
	// (piggybacked on LB messages so sources can dial destinations).
	PeerAddrs map[int]string
	// Rep is one replication entry (primary → standby stream).
	Rep *RepEntry
	// Snap opens every standby stream: install the snapshot, then apply
	// the Rep entries that follow.
	Snap *RepSnapshot
}

// handshakeTimeout bounds every connection handshake, on both sides.
// Dialing, a destination that never answers must cost this long and no
// more: a worker shipping to a blackholed peer falls back to LB relay
// instead of stalling its loop, and one looking for the primary (a
// standby too) moves on to the next address instead of sitting in a read
// reconnectDeadline never interrupts. Accepting, a connection that never
// sends its Hello must not pin a goroutine and a socket forever.
const handshakeTimeout = time.Second

// session owns one TCP connection for its lifetime: the socket, its one
// gob encoder and one decoder (gob sends a type's descriptor once per
// encoder and buffers reads per decoder, so a second codec on the socket
// would re-send descriptors or lose buffered bytes), the lock that keeps
// frames whole, and both halves of the Hello/HelloAck exchange.
type session struct {
	conn net.Conn
	dec  *gob.Decoder

	mu  sync.Mutex // one frame on the wire at a time; guards enc and err
	enc *gob.Encoder
	err error // the first send error; the session is dead from then on
}

func newSession(conn net.Conn) *session {
	return &session{conn: conn, enc: gob.NewEncoder(conn), dec: gob.NewDecoder(conn)}
}

// send puts one frame on the wire. The first failure closes the
// connection — its reader (the worker's pump, an LB handler) fails now
// and starts recovering at once — and every later send fails fast.
func (s *session) send(wm WireMsg) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err == nil {
		if s.err = s.enc.Encode(wm); s.err != nil {
			s.conn.Close()
		}
	}
	return s.err
}

// recv reads the next frame. One reader per session.
func (s *session) recv() (WireMsg, error) {
	var wm WireMsg
	err := s.dec.Decode(&wm)
	return wm, err
}

// readLoop hands f every frame until the connection ends, and closes it.
func (s *session) readLoop(f func(WireMsg)) {
	for {
		wm, err := s.recv()
		if err != nil {
			s.close()
			return
		}
		f(wm)
	}
}

func (s *session) close() { s.conn.Close() }

// hangUp ends the connection without losing what was just sent: the
// write side closes now, and the reader keeps draining the other end's
// frames until it hangs up too (or handshakeTimeout passes) and only
// then closes the socket. Closing outright with statuses still unread
// makes the kernel answer with a reset, which discards whatever the
// worker had not read yet — the MsgStop — and leaves it re-dialing a
// server that is gone until reconnectDeadline.
func (s *session) hangUp() {
	if tc, ok := s.conn.(*net.TCPConn); ok {
		_ = tc.CloseWrite()
	}
	_ = s.conn.SetReadDeadline(time.Now().Add(handshakeTimeout))
}

// dialSession opens a session to addr: connect, present h, and wait for
// the acceptor's verdict, all under handshakeTimeout. It is the one place
// a refusal becomes an error: helloNotPrimary is ErrNotPrimary (a standby
// answered; retry elsewhere or later), any other negative id
// ErrJoinRefused (the LB evicted this membership, a primary serves no
// replication stream, a peer has accepted a newer epoch of this id: do
// not retry). An ack that does not answer the hello sent — another id
// than the one resumed, no balancer config for a standby — is a failed
// handshake like a late or malformed one.
func dialSession(addr string, h Hello) (*session, *HelloAck, error) {
	conn, err := net.DialTimeout("tcp", addr, handshakeTimeout)
	if err != nil {
		return nil, nil, err
	}
	s := newSession(conn)
	_ = conn.SetDeadline(time.Now().Add(handshakeTimeout))
	err = s.send(WireMsg{Hello: &h})
	var wm WireMsg
	if err == nil {
		wm, err = s.recv()
	}
	ack := wm.Ack
	switch {
	case err != nil || ack == nil:
		err = fmt.Errorf("cluster: bad hello ack from %s: %v", addr, err)
	case ack.ID == helloNotPrimary:
		err = ErrNotPrimary
	case ack.ID < 0:
		err = ErrJoinRefused
	case (h.ID >= 0 && ack.ID != h.ID) || (h.Standby && ack.Cfg == nil):
		err = fmt.Errorf("cluster: hello ack from %s does not answer the hello", addr)
	}
	if err != nil {
		s.close()
		return nil, nil, err
	}
	_ = conn.SetDeadline(time.Time{})
	return s, ack, nil
}

// acceptSession reads the Hello that must open every accepted
// connection, under handshakeTimeout. It returns a nil Hello, with the
// connection closed, if the frame is late, malformed, or not a Hello.
func acceptSession(conn net.Conn) (*session, *Hello) {
	s := newSession(conn)
	_ = conn.SetReadDeadline(time.Now().Add(handshakeTimeout))
	wm, err := s.recv()
	if err != nil || wm.Hello == nil {
		s.close()
		return nil, nil
	}
	_ = conn.SetReadDeadline(time.Time{})
	return s, wm.Hello
}

// refuse answers a Hello with one of the refusal sentinels and closes.
func (s *session) refuse(sentinel int) {
	_ = s.send(WireMsg{Ack: &HelloAck{ID: sentinel}}) // unsent, the dialer's handshake times out
	s.close()
}

// acceptLoop serves every connection ln accepts, each on its own
// goroutine, until ln is closed. All three listeners — the LB's, a
// standby's, a worker's for its peers — run it, and every serve begins
// with acceptSession, so none waits on a silent dialer.
func acceptLoop(ln net.Listener, serve func(net.Conn)) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		go serve(conn)
	}
}

// Redial tuning: capped exponential backoff starting at reconnectBase,
// doubling to reconnectCap, with deterministic splitmix64 jitter (seeded
// per dialer) so a fleet of workers orphaned by the same LB crash doesn't
// re-dial in lockstep. The deadline is sized to ride out a full failover:
// standby promotion grace plus the promoted LB's resync window.
const (
	reconnectBase     = 25 * time.Millisecond
	reconnectCap      = 800 * time.Millisecond
	reconnectDeadline = 25 * time.Second
)

// backoffSleep returns the next jittered delay and doubles the backoff
// (half deterministic floor, half jitter — bounded yet desynchronized).
func backoffSleep(jitter *uint64, backoff *time.Duration) time.Duration {
	half := *backoff / 2
	d := half + time.Duration(splitmix64(jitter)%uint64(half+1))
	if *backoff < reconnectCap {
		*backoff *= 2
	}
	return d
}

// redial opens a session to whichever of addrs accepts h, rotating
// through them (primary first, then standbys): during a failover the
// primary refuses connections and the standby answers ErrNotPrimary until
// its promotion lands, so the dialer keeps cycling — jittered, capped
// backoff — until someone accepts, the answer is ErrJoinRefused (final),
// stop says the dialer itself was closed, or an attempt fails past the
// deadline. The port of ln, the dialer's own listener, seeds the jitter.
func redial(addrs []string, h Hello, ln net.Listener, deadline time.Time, stop func() bool) (*session, *HelloAck, error) {
	var jitter uint64
	if p, ok := ln.Addr().(*net.TCPAddr); ok {
		jitter = uint64(p.Port)
	}
	backoff := reconnectBase
	for attempt := 0; ; attempt++ {
		if stop() {
			return nil, nil, errors.New("cluster: closed while dialing")
		}
		s, ack, err := dialSession(addrs[attempt%len(addrs)], h)
		if err == nil {
			return s, ack, nil
		}
		if errors.Is(err, ErrJoinRefused) || time.Now().After(deadline) {
			return nil, nil, err
		}
		if errors.Is(err, ErrNotPrimary) {
			// A standby answered: the control plane is alive and promotion
			// is at most one grace window away. Poll tightly instead of
			// continuing to double, or a worker can sleep straight through
			// the promoted LB's resync window and be evicted for silence it
			// didn't choose.
			backoff = reconnectBase
		}
		time.Sleep(backoffSleep(&jitter, &backoff))
	}
}

// TCPWorkerTransport implements Transport over the TCP fabric.
type TCPWorkerTransport struct {
	ID    int
	Epoch uint64

	lbAddrs    []string // control-plane addresses, tried in rotation
	encMu      sync.Mutex
	lb         *session  // the current LB stream
	lbGen      uint64    // bumped each time the LB stream is (re)established
	lastStatus time.Time // when a status last went out on it
	done       chan struct{}

	listener net.Listener

	mu        sync.Mutex
	inbox     []Message
	mailCond  *sync.Cond
	peerAddrs map[int]string
	peers     map[string]*session // outbound peer sessions, by address
	// peerEpochs fences inbound peer sessions: the newest epoch accepted
	// per dialer id. A dialer presenting an older epoch is a stale
	// incarnation (it was evicted and its successor already dialed) and
	// is refused — its jobs would double-count against the custody its
	// successor inherited.
	peerEpochs map[int]uint64
	closed     bool
}

// DialLB connects to the load balancer, registers, and starts the
// worker's peer listener and reconnect-aware LB pump. Extra addresses
// are standby LBs: the worker rotates through all of them, so a join
// that lands on an unpromoted standby (ErrNotPrimary) retries against
// the next address with backoff until the deadline (an LB failover may
// be in progress when the worker starts).
func DialLB(lbAddr string, standbyAddrs ...string) (*TCPWorkerTransport, *HelloAck, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	t := &TCPWorkerTransport{
		ID:         -1, // no membership yet: connectLB joins
		lbAddrs:    append([]string{lbAddr}, standbyAddrs...),
		listener:   ln,
		peerAddrs:  map[int]string{},
		peers:      map[string]*session{},
		peerEpochs: map[int]uint64{},
		done:       make(chan struct{}),
	}
	t.mailCond = sync.NewCond(&t.mu)
	s, ack, err := t.connectLB()
	if err != nil {
		ln.Close()
		return nil, nil, err
	}
	t.ID = ack.ID
	t.Epoch = ack.Epoch

	go t.pump(s)
	go acceptLoop(ln, t.servePeer) // direct worker-to-worker job transfers
	if every := ack.Lease / 4; every > 0 {
		go t.keepalive(every)
	}
	return t, ack, nil
}

// keepalive renews the membership lease while the worker has nothing to
// say: whenever no status went out for `every` (a quarter of the lease),
// it sends an empty frame, which LBServer.handle answers with a Touch. A
// worker inside one solver search longer than the lease reports nothing,
// and without this is evicted alive — all of them at once on an unlucky
// target, leaving the balancer no members to finish the run. A killed or
// stopped process sends no frame and is evicted as before. Runs until
// Close; a frame lost on a dead stream is not retried — the pump is
// re-dialing, and the resume renews the lease itself.
func (t *TCPWorkerTransport) keepalive(every time.Duration) {
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-t.done:
			return
		case now := <-tick.C:
			t.encMu.Lock()
			if now.Sub(t.lastStatus) >= every {
				_ = t.lb.send(WireMsg{})
			}
			t.encMu.Unlock()
		}
	}
}

// connectLB joins the cluster (no id yet) or resumes this worker's
// membership at whichever LB address accepts, and makes the new session
// the LB stream.
func (t *TCPWorkerTransport) connectLB() (*session, *HelloAck, error) {
	h := Hello{Addr: t.listener.Addr().String(), ID: t.ID, Epoch: t.Epoch}
	s, ack, err := redial(t.lbAddrs, h, t.listener, time.Now().Add(reconnectDeadline), t.isClosed)
	if err != nil {
		return nil, nil, err
	}
	t.encMu.Lock()
	if t.lb != nil {
		t.lb.close()
	}
	t.lb = s
	t.lbGen++
	t.encMu.Unlock()
	if t.isClosed() {
		s.close() // Close ran while we dialed and shut the session before this one
	}
	return s, ack, nil
}

func (t *TCPWorkerTransport) isClosed() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.closed
}

// LBGen implements Transport: statuses sent under an older generation
// may have died with the previous connection, so the worker re-sends a
// full snapshot after each bump.
func (t *TCPWorkerTransport) LBGen() uint64 {
	t.encMu.Lock()
	defer t.encMu.Unlock()
	return t.lbGen
}

// pump decodes LB messages, reconnecting with the worker's identity when
// the connection drops. If the LB refuses the resume (we were evicted)
// or stays unreachable, the worker is stopped.
func (t *TCPWorkerTransport) pump(s *session) {
	for {
		wm, err := s.recv()
		if err != nil {
			if t.isClosed() {
				return
			}
			if s, _, err = t.connectLB(); err != nil {
				t.push(Message{Kind: MsgStop})
				return
			}
			continue
		}
		t.mu.Lock()
		for id, addr := range wm.PeerAddrs {
			t.peerAddrs[id] = addr
		}
		t.mu.Unlock()
		if wm.Msg != nil {
			t.push(*wm.Msg)
		}
	}
}

// servePeer handles one inbound peer session: the epoch-fenced
// handshake, then the job-batch stream. The Hello is the dialer's
// identity; an id whose epoch is older than the newest this worker has
// accepted is refused (see peerEpochs). The worker-level evicted-peer
// check on MsgJobs remains the authoritative exactness guard — the fence
// just stops stale incarnations at the door.
func (t *TCPWorkerTransport) servePeer(c net.Conn) {
	s, h := acceptSession(c)
	if h == nil {
		return
	}
	t.mu.Lock()
	stale := h.Epoch < t.peerEpochs[h.ID]
	if !stale {
		t.peerEpochs[h.ID] = h.Epoch
	}
	t.mu.Unlock()
	if stale {
		s.refuse(helloRefused)
		return
	}
	if s.send(WireMsg{Ack: &HelloAck{ID: h.ID, Epoch: h.Epoch}}) != nil {
		return
	}
	s.readLoop(func(wm WireMsg) {
		if wm.Msg != nil {
			t.push(*wm.Msg)
		}
	})
}

func (t *TCPWorkerTransport) push(m Message) {
	t.mu.Lock()
	t.inbox = append(t.inbox, m)
	t.mailCond.Broadcast()
	t.mu.Unlock()
}

// SendToLB implements Transport. A false return means the message was
// not handed to a live LB stream: the failed send closed it, the pump is
// re-dialing, and the new stream's generation bump makes the worker
// re-send a full status.
func (t *TCPWorkerTransport) SendToLB(m Message) bool {
	t.encMu.Lock()
	defer t.encMu.Unlock()
	return t.sendLocked(m)
}

// sendLocked puts m on the LB stream (t.encMu held) and notes when a
// status went out, for keepalive.
func (t *TCPWorkerTransport) sendLocked(m Message) bool {
	if t.lb.send(WireMsg{Msg: &m}) != nil {
		return false
	}
	if m.Kind == MsgStatus {
		t.lastStatus = time.Now()
	}
	return true
}

// SendToLBAt implements Transport: the message goes out only if the
// stream generation still equals gen, so a caller's stream-freshness
// decision and the encode are atomic.
func (t *TCPWorkerTransport) SendToLBAt(m Message, gen uint64) bool {
	t.encMu.Lock()
	defer t.encMu.Unlock()
	return t.lbGen == gen && t.sendLocked(m)
}

// SendJobs implements Transport (direct worker-to-worker transfer). A
// false return means the batch was not handed to a peer session; the
// caller keeps custody and falls back to LB relay (or re-imports). A
// cached session that died mid-send is redialed once — a peer that
// merely restarted its listener should not force a relay detour. A
// refused dial means the acceptor already accepted a newer epoch for
// this id: we are a stale incarnation and must not ship.
func (t *TCPWorkerTransport) SendJobs(dst int, m Message) bool {
	t.mu.Lock()
	addr := t.peerAddrs[dst]
	ps := t.peers[addr]
	t.mu.Unlock()
	if addr == "" {
		return false // destination unknown yet; the LB will rebalance later
	}
	for attempt := 0; attempt < 2; attempt++ {
		if ps == nil {
			var err error
			if ps, _, err = dialSession(addr, Hello{ID: t.ID, Epoch: t.Epoch}); err != nil {
				return false
			}
			t.mu.Lock()
			t.peers[addr] = ps
			t.mu.Unlock()
		}
		if ps.send(WireMsg{Msg: &m}) == nil {
			return true
		}
		// Connection died; drop it so the retry (and any later send)
		// starts from a fresh dial. The caller keeps custody either way
		// (ack high-water marks de-duplicate resends).
		t.mu.Lock()
		if t.peers[addr] == ps {
			delete(t.peers, addr)
		}
		t.mu.Unlock()
		ps = nil
	}
	return false
}

// Recv implements Transport.
func (t *TCPWorkerTransport) Recv() (Message, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.inbox) == 0 {
		return Message{}, false
	}
	m := t.inbox[0]
	t.inbox = t.inbox[1:]
	return m, true
}

// WaitForMail implements Transport: it blocks until a message arrives,
// or 10ms pass.
func (t *TCPWorkerTransport) WaitForMail() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.inbox) > 0 || t.closed {
		return
	}
	// The timer takes the lock this call holds until Wait parks, so its
	// wake-up cannot come before the wait it is for.
	timeout := time.AfterFunc(10*time.Millisecond, func() {
		t.mu.Lock()
		t.mailCond.Broadcast()
		t.mu.Unlock()
	})
	t.mailCond.Wait()
	timeout.Stop()
}

// Close shuts down the transport.
func (t *TCPWorkerTransport) Close() {
	t.mu.Lock()
	if !t.closed {
		close(t.done)
	}
	t.closed = true
	t.mailCond.Broadcast()
	for _, ps := range t.peers {
		ps.close()
	}
	t.mu.Unlock()
	t.encMu.Lock()
	t.lb.close()
	t.encMu.Unlock()
	t.listener.Close()
}

// LBServer runs the load-balancer side of the TCP fabric. Workers join
// and leave at any time; there is no fixed cluster size and no startup
// barrier.
type LBServer struct {
	listener net.Listener
	noAccept bool // listener is driven externally (promoted standby)

	mu       sync.Mutex
	lb       *LoadBalancer
	conns    map[int]*session // registered workers' sessions, by member id
	standbys []*lbStandbyConn
	stopped  bool
	shutdown bool // graceful termination requested (SIGTERM / Shutdown)
	// MinWorkers, when > 0, delays termination detection until that many
	// workers have been members at once (prevents the LB from declaring
	// a tiny exploration finished before peers ever join). It is NOT a
	// startup barrier: balancing begins as soon as two members report.
	MinWorkers  int
	peakMembers int
	// wake rouses Serve between ticks: a handler's report closed the last
	// probe wave.
	wake chan struct{}
}

// wakeServe makes Serve look at the balancer now instead of on its next
// tick. Never blocks: one pending wake-up is as good as many.
func (s *LBServer) wakeServe() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// lbStandbyConn streams replication entries to one attached standby.
// The onRep hook fires under the server mutex, so entries are queued
// here and a dedicated flusher goroutine does the blocking encodes;
// whatever sits in the queue when the primary dies is exactly the
// in-flight window the standby must recover without.
type lbStandbyConn struct {
	sess *session
	mu   sync.Mutex
	cond *sync.Cond
	q    []RepEntry
	// sending: the flusher holds entries it took off q and has not
	// finished encoding — an empty q alone does not mean they were sent.
	sending bool
	dead    bool
}

func newLBStandbyConn(sess *session) *lbStandbyConn {
	sc := &lbStandbyConn{sess: sess}
	sc.cond = sync.NewCond(&sc.mu)
	return sc
}

func (sc *lbStandbyConn) enqueue(e RepEntry) {
	sc.mu.Lock()
	if !sc.dead {
		sc.q = append(sc.q, e)
		sc.cond.Signal()
	}
	sc.mu.Unlock()
}

// flush drains the queue onto the wire until the connection dies.
func (sc *lbStandbyConn) flush() {
	for {
		sc.mu.Lock()
		sc.sending = false
		for len(sc.q) == 0 && !sc.dead {
			sc.cond.Wait()
		}
		if sc.dead && len(sc.q) == 0 {
			sc.mu.Unlock()
			return
		}
		batch := sc.q
		sc.q = nil
		sc.sending = true
		sc.mu.Unlock()
		for i := range batch {
			if sc.sess.send(WireMsg{Rep: &batch[i]}) != nil {
				sc.close()
				return
			}
		}
	}
}

func (sc *lbStandbyConn) close() {
	sc.mu.Lock()
	sc.dead = true
	sc.cond.Broadcast()
	sc.mu.Unlock()
	sc.sess.close()
}

// settle waits briefly for the flusher to drain the queue — used on
// graceful shutdown so the RepShutdown marker reaches the standby
// before the connection closes.
func (sc *lbStandbyConn) settle(timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	for {
		sc.mu.Lock()
		sent := len(sc.q) == 0 && !sc.sending
		dead := sc.dead
		sc.mu.Unlock()
		if sent || dead || time.Now().After(deadline) {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// NewLBServer listens on addr. minWorkers gates quiescence-based
// shutdown only (see LBServer.MinWorkers); pass 0 for a fully elastic
// cluster.
func NewLBServer(addr string, cfg BalancerConfig, covLen int, minWorkers int) (*LBServer, error) {
	if err := checkPortfolio(cfg.Portfolio); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return newLBServer(ln, NewLoadBalancer(cfg, covLen), minWorkers), nil
}

// newLBServer seats a balancer — a fresh one, or a promoted standby's,
// already running — behind a listener.
func newLBServer(ln net.Listener, lb *LoadBalancer, minWorkers int) *LBServer {
	lb.holdOpen = minWorkers > 0 // until Serve has counted that many
	return &LBServer{
		listener:   ln,
		lb:         lb,
		conns:      map[int]*session{},
		MinWorkers: minWorkers,
		wake:       make(chan struct{}, 1),
	}
}

// EnableReplication turns on input logging and standby streaming: a
// standby that attaches (Hello{Standby:true}) is sent a state snapshot
// and from then on every logged entry. Call before Serve.
func (s *LBServer) EnableReplication() {
	s.mu.Lock()
	defer s.mu.Unlock()
	// The hook fires with s.mu held (every LB mutation is under it), so
	// it must only queue — the per-standby flushers do the encoding.
	s.lb.StartReplication(func(e RepEntry) {
		for _, sc := range s.standbys {
			sc.enqueue(e)
		}
	})
}

// Shutdown requests a graceful exit: the replication stream gets a
// RepShutdown marker (telling standbys this is a clean end, not a
// crash), workers receive MsgStop, and Serve returns. Safe from a
// signal handler goroutine.
func (s *LBServer) Shutdown() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopped || s.shutdown {
		return
	}
	s.lb.ShutdownMarker(time.Now())
	s.shutdown = true
}

// Abort is kill -9 in-process (test hook for failover): every
// connection — worker and standby — is severed immediately, queued
// replication entries are dropped, no shutdown marker and no MsgStop
// are sent. Standbys see exactly what a crashed primary leaves behind.
func (s *LBServer) Abort() {
	// The listener goes first: a standby re-dials the instant its stream
	// is cut, and one that still got through would be refused by a live
	// handler — which reads as "primary alive, exiting on purpose".
	s.listener.Close()
	s.mu.Lock()
	s.stopped = true
	s.shutdown = true
	for _, ss := range s.conns {
		ss.close()
	}
	s.conns = map[int]*session{}
	for _, sc := range s.standbys {
		sc.mu.Lock()
		sc.q = nil // in-flight entries die with the process
		sc.mu.Unlock()
		sc.close()
	}
	s.standbys = nil
	s.mu.Unlock()
}

// Addr returns the listening address.
func (s *LBServer) Addr() string { return s.listener.Addr().String() }

// TotalPaths reports the cluster-wide explored-path count (live members'
// last reports plus departed members' final ones). Safe concurrently
// with Serve.
func (s *LBServer) TotalPaths() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lb.TotalPaths()
}

// addrsLocked snapshots the member id → peer address map.
func (s *LBServer) addrsLocked() map[int]string {
	addrs := map[int]string{}
	for id, m := range s.lb.Members {
		addrs[id] = m.Addr
	}
	return addrs
}

// dispatchLocked routes LB outbounds to worker connections, attaching
// the current peer-address map (except to coverage broadcasts, which go
// out every dirty round and name no peer). Eviction notices also go to
// the evicted member itself (if still connected) so a falsely evicted
// straggler halts, then its connection is dropped. A failed send needs
// no action here: the session closed itself, its handler's read fails, and
// the membership lives on until the worker re-dials or its lease lapses.
func (s *LBServer) dispatchLocked(outs []Outbound) {
	addrs := s.addrsLocked()
	for _, out := range outs {
		msg := out.Msg
		if out.To == Broadcast {
			wm := WireMsg{Msg: &msg, PeerAddrs: addrs}
			if msg.Kind == MsgCoverage {
				wm.PeerAddrs = nil
			}
			for _, ss := range s.conns {
				_ = ss.send(wm)
			}
			if msg.Kind == MsgEvict {
				if ss := s.conns[msg.From]; ss != nil {
					ss.close()
					delete(s.conns, msg.From)
				}
			}
			continue
		}
		if ss := s.conns[out.To]; ss != nil {
			_ = ss.send(WireMsg{Msg: &msg, PeerAddrs: addrs})
		}
	}
}

// Serve accepts workers and balances until the run terminates (or
// maxDuration passes), then broadcasts stop and returns the final
// statuses — live members' last reports plus the final records of
// departed members. The balance round runs on a 20 ms tick; what the
// balancer does on a report (unit grants, probe waves) the handlers
// dispatch as the report arrives, and the one that closes the last wave
// wakes this loop, so the end of a run does not wait for a tick either.
func (s *LBServer) Serve(maxDuration time.Duration) ([]Status, error) {
	if !s.noAccept {
		go acceptLoop(s.listener, s.handle)
	}
	start := time.Now()
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	for done := false; !done; {
		ticked := false
		select {
		case <-tick.C:
			ticked = true
		case <-s.wake:
		}
		s.mu.Lock()
		if s.shutdown || s.stopped {
			s.mu.Unlock()
			break
		}
		if ticked {
			s.peakMembers = max(s.peakMembers, len(s.lb.Members))
			s.lb.holdOpen = s.peakMembers < s.MinWorkers
			s.dispatchLocked(s.lb.Round(time.Now()))
		}
		// A freshly promoted server cannot get here on replicated
		// quiescence: wave state is not replicated, and no wave opens
		// before the resync window has closed.
		done = s.lb.Terminated()
		s.mu.Unlock()
		if maxDuration > 0 && time.Since(start) > maxDuration {
			break
		}
	}
	s.mu.Lock()
	// Freeze the balancer before releasing the lock: handler goroutines
	// check stopped and won't apply further updates, so post-Serve reads
	// of the LB (totals, membership counters) are race-free.
	s.stopped = true
	for _, ss := range s.conns {
		_ = ss.send(WireMsg{Msg: &Message{Kind: MsgStop}})
		ss.hangUp()
	}
	statuses := s.lb.Statuses()
	s.conns = map[int]*session{}
	standbys := s.standbys
	s.standbys = nil
	s.mu.Unlock()
	// Clean exit: let the flushers drain (the RepShutdown marker must
	// reach attached standbys so they exit instead of promoting).
	for _, sc := range standbys {
		sc.settle(200 * time.Millisecond)
		sc.close()
	}
	s.listener.Close()
	return statuses, nil
}

// Exhausted reports whether the cluster terminated (every member idle,
// nothing in flight, two probe waves agreeing), as opposed to Serve being
// cut off by maxDuration or Shutdown: the balancer's verdict, which Serve
// ends on and freezes when it returns.
func (s *LBServer) Exhausted() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lb.Terminated()
}

// Stats returns the membership and transfer counters (safe after — or
// concurrently with — Serve).
func (s *LBServer) Stats() (evictions, leaves, transfersIssued, statesTransferred int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lb.Evictions, s.lb.Leaves, s.lb.TransfersIssued, s.lb.StatesTransferred()
}

// Term returns the LB's primary incarnation (1 = original primary;
// each promotion in this run's history adds one).
func (s *LBServer) Term() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lb.Term
}

// Promotions counts failovers folded into this server's history.
func (s *LBServer) Promotions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lb.Promotions
}

// ObsSnapshot returns the fleet-wide metrics view (safe concurrently
// with Serve — this is what -obs-addr scrapes mid-run).
func (s *LBServer) ObsSnapshot() obs.Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lb.FleetObs()
}

// Journal returns the balancer's run-event journal. The journal has its
// own lock, so tailing it is safe concurrently with Serve.
func (s *LBServer) Journal() *obs.Journal {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lb.Journal()
}

// handleStandby serves one replication subscriber: handshake (config +
// coverage length so the standby can build a matching replica), a
// snapshot of the replicated state, then live entries via the flusher.
// The read side only watches for disconnect.
func (s *LBServer) handleStandby(ss *session, now time.Time) {
	s.mu.Lock()
	var snap *RepSnapshot
	if !s.stopped && s.lb.repEnabled {
		// Every LB mutation happens under s.mu, one whole entry point at a
		// time, so this is an entry boundary. An encode error cannot come
		// from the balancer's own types; were it to, the attach is refused
		// like any other the primary cannot serve.
		snap, _ = s.lb.serveSnapshot(now)
	}
	if snap == nil {
		s.mu.Unlock()
		ss.refuse(helloRefused)
		return
	}
	cfg := s.lb.Config()
	ack := HelloAck{ID: 0, Cfg: &cfg, CovLen: s.lb.Cov.Len() - 1}
	sc := newLBStandbyConn(ss)
	// Registering for live entries in the critical section the snapshot
	// was cut in leaves no gap: the first entry queued is snapshot seq + 1.
	s.standbys = append(s.standbys, sc)
	s.mu.Unlock()

	// Ack and snapshot must precede every queued entry on the wire; send
	// them directly, before the flusher starts draining.
	if ss.send(WireMsg{Ack: &ack}) == nil && ss.send(WireMsg{Snap: snap}) == nil {
		go sc.flush()
		ss.readLoop(func(WireMsg) {})
	}
	s.dropStandby(sc)
}

func (s *LBServer) dropStandby(sc *lbStandbyConn) {
	s.mu.Lock()
	for i, cur := range s.standbys {
		if cur == sc {
			s.standbys = append(s.standbys[:i], s.standbys[i+1:]...)
			break
		}
	}
	s.mu.Unlock()
	sc.close()
}

// handle serves one worker connection: the handshake (LoadBalancer.Admit
// decides, this delivers), then the status stream. A read error only
// drops the connection — the membership survives until the lease lapses,
// so a worker that re-dials in time resumes exactly where it was.
func (s *LBServer) handle(conn net.Conn) {
	ss, h := acceptSession(conn)
	if h == nil {
		return
	}
	now := time.Now()
	if h.Standby {
		s.handleStandby(ss, now)
		return
	}
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		ss.close()
		return
	}
	ack, outs := s.lb.Admit(*h, now)
	if ack.ID < 0 {
		s.mu.Unlock()
		ss.refuse(ack.ID)
		return
	}
	// Send the ack before registering the session for dispatch: the
	// moment it is in s.conns, a concurrent Serve tick or another
	// handler's dispatchLocked may send it a broadcast, and the dialer
	// requires the HelloAck to be the first WireMsg on the wire.
	_ = ss.send(WireMsg{Ack: &ack, PeerAddrs: s.addrsLocked()})
	if old := s.conns[ack.ID]; old != nil {
		old.close()
	}
	s.conns[ack.ID] = ss
	s.dispatchLocked(outs)
	s.mu.Unlock()
	ss.readLoop(func(wm WireMsg) {
		s.mu.Lock()
		defer s.mu.Unlock()
		switch {
		case s.stopped:
		case wm.Msg == nil:
			// A keepalive: the worker is alive and has nothing to report.
			// Ids are never reissued, so this session's is its member's
			// or no one's.
			s.lb.Touch(ack.ID, time.Now())
		default:
			s.dispatchLocked(s.lb.Control(*wm.Msg, time.Now()))
			if s.lb.Terminated() {
				s.wakeServe()
			}
		}
	})
}

// Standby is a warm standby load balancer: it listens on its own
// address — politely refusing workers with helloNotPrimary until
// promoted — while tailing the primary's replication stream over TCP. If
// the primary's stream drops without a RepShutdown marker and cannot be
// re-attached within the grace window, the standby promotes its replica
// and serves the cluster from the exact replicated state; workers that
// were given both addresses re-dial, resume their membership (or are
// readmitted across the gap), and the run finishes with undisturbed
// totals.
type Standby struct {
	listener   net.Listener
	peer       string
	grace      time.Duration
	minWorkers int

	mu     sync.Mutex
	rep    *Replica
	srv    *LBServer // non-nil once promoted
	closed bool
}

// NewStandby listens on addr and starts the pre-promotion accept loop.
// peer is the primary's control address; promoteGrace is how long the
// primary may stay unreachable before takeover (0 = 2s). minWorkers is
// handed to the promoted server's quiescence gate.
func NewStandby(addr, peer string, promoteGrace time.Duration, minWorkers int) (*Standby, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	if promoteGrace <= 0 {
		promoteGrace = 2 * time.Second
	}
	sb := &Standby{listener: ln, peer: peer, grace: promoteGrace, minWorkers: minWorkers}
	go acceptLoop(ln, sb.route)
	return sb, nil
}

// Addr returns the standby's listening address (what workers get as
// their second -lb entry).
func (sb *Standby) Addr() string { return sb.listener.Addr().String() }

// LastSeq returns the last replication entry applied or installed (0
// before the first snapshot arrives).
func (sb *Standby) LastSeq() uint64 {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	if sb.rep == nil {
		return 0
	}
	return sb.rep.LastSeq()
}

// route serves one connection: before promotion every handshake is
// answered with helloNotPrimary (dialers rotate and retry); after
// promotion connections go straight to the promoted server's handler.
func (sb *Standby) route(conn net.Conn) {
	sb.mu.Lock()
	srv := sb.srv
	sb.mu.Unlock()
	if srv != nil {
		srv.handle(conn)
	} else if ss, h := acceptSession(conn); h != nil {
		ss.refuse(helloNotPrimary)
	}
}

// attach dials the primary and subscribes to its replication stream,
// retrying with jittered backoff until the deadline. A helloRefused
// answer means the primary is alive but not serving the stream — not a
// crash — and is surfaced as ErrJoinRefused.
func (sb *Standby) attach(deadline time.Time) (*session, *HelloAck, error) {
	return redial([]string{sb.peer}, Hello{Standby: true}, sb.listener, deadline, sb.isClosed)
}

// Run tails the primary until it ends. It returns (nil, nil) when the
// primary shut down cleanly (RepShutdown marker, or a live primary
// refusing the stream), or the promoted LBServer when the primary was
// lost — the caller then drives Serve exactly as a fresh primary would.
func (sb *Standby) Run() (*LBServer, error) {
	// First attach gets a generous window: the standby may start before
	// the primary does.
	ss, ack, err := sb.attach(time.Now().Add(15 * time.Second))
	if err != nil {
		sb.Close()
		return nil, fmt.Errorf("cluster: standby never attached: %w", err)
	}
	// end closes the stream and the standby: nothing is promoted.
	end := func(err error) (*LBServer, error) {
		ss.close()
		sb.Close()
		return nil, err
	}
	for {
		wm, err := ss.recv()
		if err != nil {
			ss.close()
			// Stream lost: try to re-attach inside the grace window; a
			// primary that stays dead past it has crashed — promote.
			if ss, ack, err = sb.attach(time.Now().Add(sb.grace)); err == nil {
				// Same run resumes. The new stream opens with a fresh
				// snapshot; until it arrives the replica we hold stands.
				continue
			}
			if errors.Is(err, ErrJoinRefused) {
				sb.Close()
				return nil, nil // primary alive but done with us: clean end
			}
			if sb.isClosed() {
				return nil, errors.New("cluster: standby closed")
			}
			return sb.promote()
		}
		if wm.Snap != nil {
			rep := NewReplica(*ack.Cfg, ack.CovLen)
			if err := rep.InstallState(wm.Snap); err != nil {
				return end(fmt.Errorf("cluster: standby snapshot install: %w", err))
			}
			sb.mu.Lock()
			sb.rep = rep
			sb.mu.Unlock()
			continue
		}
		if wm.Rep == nil {
			continue
		}
		sb.mu.Lock()
		err = errors.New("entry before snapshot")
		if sb.rep != nil {
			err = sb.rep.Apply(*wm.Rep)
		}
		sb.mu.Unlock()
		if err != nil {
			return end(fmt.Errorf("cluster: standby apply: %w", err))
		}
		if wm.Rep.Kind == RepShutdown {
			return end(nil)
		}
	}
}

// promote turns the replica into the primary and hands the listener to
// a full LBServer; the accept loop starts routing workers to it.
func (sb *Standby) promote() (*LBServer, error) {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	if sb.rep == nil {
		return nil, errors.New("cluster: promote before attach")
	}
	lb := sb.rep.Promote(time.Now())
	sb.srv = newLBServer(sb.listener, lb, sb.minWorkers)
	// The listener's accept loop stays here, and route hands the promoted
	// server its connections.
	sb.srv.noAccept = true
	sb.srv.EnableReplication()
	sb.rep = nil
	return sb.srv, nil
}

func (sb *Standby) isClosed() bool {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	return sb.closed
}

// Close shuts the standby down without promoting (no-op after
// promotion: the listener then belongs to the promoted server).
func (sb *Standby) Close() {
	sb.mu.Lock()
	promoted := sb.srv != nil
	sb.closed = true
	sb.mu.Unlock()
	if !promoted {
		sb.listener.Close()
	}
}
