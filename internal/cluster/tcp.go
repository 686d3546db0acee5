package cluster

import (
	"encoding/gob"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"cloud9/internal/obs"
	"cloud9/internal/search"
)

// ErrJoinRefused is returned when the LB rejects a (re)join — the
// worker's membership was evicted and its work re-seated elsewhere.
var ErrJoinRefused = errors.New("cluster: join refused (evicted)")

// ErrNotPrimary is returned when the dialed address is a standby that
// has not (yet) been promoted. Retryable: the worker rotates to the
// next address and backs off.
var ErrNotPrimary = errors.New("cluster: not primary (standby)")

// HelloAck.ID sentinels for refused handshakes.
const (
	helloRefused    = -1 // membership evicted; do not retry
	helloNotPrimary = -2 // standby, not primary; retry elsewhere/later
)

// The TCP fabric runs the same worker/LB protocol across real processes:
// workers register with the load balancer at any time (no fixed cluster
// size), stream status updates to it, and ship job trees directly to
// each other (the LB stays off the critical path, §3.1). A worker whose
// LB connection drops re-dials and resumes its membership; a worker that
// goes silent past its lease is evicted and its last-reported frontier
// re-seated onto survivors. cmd/c9-lb and cmd/c9-worker wrap this.

// Hello registers a worker with the LB. Addr is the worker's own
// listening address for peer job transfers. ID < 0 requests a fresh
// join; otherwise the worker is re-dialing and asks to resume the
// membership identified by (ID, Epoch).
type Hello struct {
	Addr  string
	ID    int
	Epoch uint64
	// Standby subscribes to the primary's replication stream instead of
	// joining as a worker: the answer is a state snapshot followed by
	// every entry logged after it, on first attach and re-attach alike.
	Standby bool
}

// HelloAck assigns the worker its cluster id, epoch, seed role, and —
// when the LB runs a strategy portfolio — the search spec the worker
// should explore with. ID < 0 means the join was refused (stale
// reconnect of an evicted member).
type HelloAck struct {
	ID    int
	Epoch uint64
	Seed  bool
	Spec  string
	// Data-plane mode the cluster runs (DataPlaneP2P when empty) and,
	// for depth mode, the partition shape every worker must agree on.
	DataPlane      string
	PartitionDepth int
	PartitionUnits int
	// Standby handshake only: the primary's effective balancer config
	// and coverage vector length, so the subscriber constructs a replica
	// that replays to byte-identical state.
	Cfg    *BalancerConfig
	CovLen int
}

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

// TCPWorkerTransport implements Transport over the TCP fabric.
type TCPWorkerTransport struct {
	ID    int
	Epoch uint64

	lbAddrs []string // control-plane addresses, tried in rotation
	lbConn  net.Conn
	lbEnc   *gob.Encoder
	lbGen   uint64 // bumped each time the LB stream is (re)established
	encMu   sync.Mutex

	listener net.Listener

	mu        sync.Mutex
	inbox     []Message
	mailCond  *sync.Cond
	peerAddrs map[int]string
	peerConns map[string]*peerConn
	// peerEpochs fences inbound peer sessions: the newest epoch accepted
	// per dialer id. A dialer presenting an older epoch is a stale
	// incarnation (it was evicted and its successor already dialed) and
	// is refused — its jobs would double-count against the custody its
	// successor inherited.
	peerEpochs map[int]uint64
	closed     bool
}

type peerConn struct {
	conn net.Conn
	enc  *gob.Encoder
	mu   sync.Mutex
}

// DialLB connects to the load balancer, registers, and starts the
// worker's peer listener and reconnect-aware LB pump. Extra addresses
// are standby LBs: the worker rotates through all of them, so a join
// that lands on an unpromoted standby (ErrNotPrimary) retries against
// the next address with backoff until the deadline.
func DialLB(lbAddr string, standbyAddrs ...string) (*TCPWorkerTransport, *HelloAck, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	t := &TCPWorkerTransport{
		lbAddrs:    append([]string{lbAddr}, standbyAddrs...),
		listener:   ln,
		peerAddrs:  map[int]string{},
		peerConns:  map[string]*peerConn{},
		peerEpochs: map[int]uint64{},
	}
	t.mailCond = sync.NewCond(&t.mu)
	// Initial join: rotate through the addresses with the same capped
	// backoff as reconnect (an LB failover may be in progress when the
	// worker starts).
	var ack *HelloAck
	var dec *gob.Decoder
	seedID := 0 // no cluster id yet; seed the jitter off the listener port
	if p, ok := ln.Addr().(*net.TCPAddr); ok {
		seedID = p.Port
	}
	jitter := reconnectSeed(seedID)
	deadline := time.Now().Add(reconnectDeadline)
	backoff := reconnectBase
	for attempt := 0; ; attempt++ {
		ack, dec, err = t.dialHello(t.lbAddrs[attempt%len(t.lbAddrs)], -1, 0)
		if err == nil {
			break
		}
		if errors.Is(err, ErrJoinRefused) || time.Now().After(deadline) {
			ln.Close()
			return nil, nil, err
		}
		if errors.Is(err, ErrNotPrimary) {
			// Mid-failover join: a live standby means promotion is imminent
			// — keep the polling tight (see reconnect).
			backoff = reconnectBase
		}
		time.Sleep(backoffSleep(&jitter, &backoff))
	}
	t.ID = ack.ID
	t.Epoch = ack.Epoch

	go t.pump(dec)
	go t.acceptPeers()
	return t, ack, nil
}

// dialHello dials one LB address and performs the join (id < 0) or
// resume handshake, installing the new connection on success.
func (t *TCPWorkerTransport) dialHello(addr string, id int, epoch uint64) (*HelloAck, *gob.Decoder, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	enc := gob.NewEncoder(conn)
	hello := Hello{Addr: t.listener.Addr().String(), ID: id, Epoch: epoch}
	if err := enc.Encode(WireMsg{Hello: &hello}); err != nil {
		conn.Close()
		return nil, nil, err
	}
	dec := gob.NewDecoder(conn)
	var wm WireMsg
	if err := dec.Decode(&wm); err != nil || wm.Ack == nil {
		conn.Close()
		return nil, nil, fmt.Errorf("cluster: bad hello ack: %v", err)
	}
	switch {
	case wm.Ack.ID == helloNotPrimary:
		conn.Close()
		return nil, nil, ErrNotPrimary
	case wm.Ack.ID < 0:
		conn.Close()
		return nil, nil, ErrJoinRefused
	}
	t.encMu.Lock()
	if t.lbConn != nil {
		t.lbConn.Close()
	}
	t.lbConn = conn
	t.lbEnc = enc
	t.lbGen++
	t.encMu.Unlock()
	return wm.Ack, dec, nil
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
func (t *TCPWorkerTransport) pump(dec *gob.Decoder) {
	for {
		var wm WireMsg
		if err := dec.Decode(&wm); err != nil {
			t.mu.Lock()
			closed := t.closed
			t.mu.Unlock()
			if closed {
				return
			}
			nd, ok := t.reconnect()
			if !ok {
				t.push(Message{Kind: MsgStop})
				return
			}
			dec = nd
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

// Reconnect tuning: capped exponential backoff starting at
// reconnectBase, doubling to reconnectCap, with deterministic
// splitmix64 jitter (seeded per worker) so a fleet of workers orphaned
// by the same LB crash doesn't re-dial in lockstep. The deadline is
// sized to ride out a full failover: standby promotion grace plus the
// promoted LB's resync window.
const (
	reconnectBase     = 25 * time.Millisecond
	reconnectCap      = 800 * time.Millisecond
	reconnectDeadline = 25 * time.Second
)

// reconnectSeed derives a per-worker jitter stream seed.
func reconnectSeed(id int) uint64 {
	s := uint64(id)
	return splitmix64(&s)
}

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

// reconnect re-dials the LB control plane, resuming this worker's
// membership. It rotates through every known address (primary first,
// then standbys): during a failover the primary refuses connections
// and the standby answers ErrNotPrimary until its promotion lands, so
// the worker keeps cycling — jittered, capped backoff — until the
// promoted LB accepts the resume or the deadline expires.
func (t *TCPWorkerTransport) reconnect() (*gob.Decoder, bool) {
	jitter := reconnectSeed(t.ID)
	backoff := reconnectBase
	deadline := time.Now().Add(reconnectDeadline)
	for attempt := 0; ; attempt++ {
		time.Sleep(backoffSleep(&jitter, &backoff))
		t.mu.Lock()
		closed := t.closed
		t.mu.Unlock()
		if closed || time.Now().After(deadline) {
			return nil, false
		}
		ack, dec, err := t.dialHello(t.lbAddrs[attempt%len(t.lbAddrs)], t.ID, t.Epoch)
		if err == nil && ack.ID == t.ID {
			return dec, true
		}
		if errors.Is(err, ErrJoinRefused) {
			return nil, false
		}
		if errors.Is(err, ErrNotPrimary) {
			// A standby answered: the control plane is alive and promotion
			// is at most one grace window away. Poll tightly instead of
			// continuing to double, or the worker can sleep straight
			// through the promoted LB's resync window and be evicted for
			// silence it didn't choose.
			backoff = reconnectBase
		}
	}
}

// acceptPeers receives direct worker-to-worker job transfers.
func (t *TCPWorkerTransport) acceptPeers() {
	for {
		c, err := t.listener.Accept()
		if err != nil {
			return
		}
		go t.servePeer(c)
	}
}

// servePeer handles one inbound peer session: the epoch-fenced
// handshake, then the job-batch stream. The first frame must be the
// dialer's identity; an id whose epoch is older than the newest this
// worker has accepted is refused (see peerEpochs). The worker-level
// evicted-peer check on MsgJobs remains the authoritative exactness
// guard — the fence just stops stale incarnations at the door.
func (t *TCPWorkerTransport) servePeer(c net.Conn) {
	d := gob.NewDecoder(c)
	e := gob.NewEncoder(c)
	h := readHello(c, d)
	if h == nil {
		c.Close()
		return
	}
	t.mu.Lock()
	if seen, ok := t.peerEpochs[h.ID]; ok && h.Epoch < seen {
		t.mu.Unlock()
		_ = e.Encode(WireMsg{Ack: &HelloAck{ID: helloRefused}})
		c.Close()
		return
	}
	t.peerEpochs[h.ID] = h.Epoch
	t.mu.Unlock()
	if err := e.Encode(WireMsg{Ack: &HelloAck{ID: h.ID, Epoch: h.Epoch}}); err != nil {
		c.Close()
		return
	}
	for {
		var wm WireMsg
		if err := d.Decode(&wm); err != nil {
			c.Close()
			return
		}
		if wm.Msg != nil {
			t.push(*wm.Msg)
		}
	}
}

func (t *TCPWorkerTransport) push(m Message) {
	t.mu.Lock()
	t.inbox = append(t.inbox, m)
	t.mailCond.Broadcast()
	t.mu.Unlock()
}

// SendToLB implements Transport. A false return means the message was
// not handed to a live LB stream; the pump's reconnect restores the
// stream (bumping the generation) and the worker re-sends a full status.
func (t *TCPWorkerTransport) SendToLB(m Message) bool {
	t.encMu.Lock()
	defer t.encMu.Unlock()
	return t.sendToLBLocked(m)
}

// SendToLBAt implements Transport: the message goes out only if the
// stream generation still equals gen, so a caller's stream-freshness
// decision and the encode are atomic.
func (t *TCPWorkerTransport) SendToLBAt(m Message, gen uint64) bool {
	t.encMu.Lock()
	defer t.encMu.Unlock()
	if t.lbGen != gen {
		return false
	}
	return t.sendToLBLocked(m)
}

func (t *TCPWorkerTransport) sendToLBLocked(m Message) bool {
	if t.lbEnc == nil {
		return false
	}
	if err := t.lbEnc.Encode(WireMsg{Msg: &m}); err != nil {
		// The connection is dead: close it so the pump's Decode fails now
		// and reconnection starts immediately, and drop the encoder so
		// further sends fail fast until dialHello installs a new stream.
		t.lbConn.Close()
		t.lbEnc = nil
		return false
	}
	return true
}

// handshakeTimeout bounds every connection handshake. Dialing a peer, a
// blackholed destination must fail fast enough for the sender to fall
// back to LB relay instead of stalling the worker loop; accepting, a
// connection that never sends its Hello must not pin a goroutine and a
// socket forever.
const handshakeTimeout = time.Second

// readHello reads the Hello that must open every accepted connection,
// under handshakeTimeout. It returns nil — the caller closes the
// connection — if the frame is late, malformed, or not a Hello.
func readHello(conn net.Conn, dec *gob.Decoder) *Hello {
	_ = conn.SetReadDeadline(time.Now().Add(handshakeTimeout))
	var wm WireMsg
	if err := dec.Decode(&wm); err != nil {
		return nil
	}
	_ = conn.SetReadDeadline(time.Time{})
	return wm.Hello
}

// SendJobs implements Transport (direct worker-to-worker transfer). A
// false return means the batch was not handed to a peer session; the
// caller keeps custody and falls back to LB relay (or re-imports). A
// cached session that died mid-send is redialed once — a peer that
// merely restarted its listener should not force a relay detour.
func (t *TCPWorkerTransport) SendJobs(dst int, m Message) bool {
	t.mu.Lock()
	addr := t.peerAddrs[dst]
	pc := t.peerConns[addr]
	t.mu.Unlock()
	if addr == "" {
		return false // destination unknown yet; the LB will rebalance later
	}
	for attempt := 0; attempt < 2; attempt++ {
		if pc == nil {
			var err error
			if pc, err = t.dialPeer(addr); err != nil {
				return false
			}
		}
		pc.mu.Lock()
		err := pc.enc.Encode(WireMsg{Msg: &m})
		pc.mu.Unlock()
		if err == nil {
			return true
		}
		// Connection died; drop it so the retry (and any later send)
		// starts from a fresh dial. The caller keeps custody either way
		// (ack high-water marks de-duplicate resends).
		pc.conn.Close()
		t.mu.Lock()
		if t.peerConns[addr] == pc {
			delete(t.peerConns, addr)
		}
		t.mu.Unlock()
		pc = nil
	}
	return false
}

// dialPeer establishes an epoch-fenced peer session: dial, present this
// worker's identity, and wait (bounded) for the acceptor's verdict. A
// refusal means the acceptor already accepted a newer epoch for this id
// — we are a stale incarnation and must not ship.
func (t *TCPWorkerTransport) dialPeer(addr string) (*peerConn, error) {
	conn, err := net.DialTimeout("tcp", addr, handshakeTimeout)
	if err != nil {
		return nil, err
	}
	enc := gob.NewEncoder(conn)
	if err := enc.Encode(WireMsg{Hello: &Hello{ID: t.ID, Epoch: t.Epoch}}); err != nil {
		conn.Close()
		return nil, err
	}
	_ = conn.SetReadDeadline(time.Now().Add(handshakeTimeout))
	var wm WireMsg
	if err := gob.NewDecoder(conn).Decode(&wm); err != nil || wm.Ack == nil || wm.Ack.ID < 0 {
		conn.Close()
		return nil, errors.New("cluster: peer handshake refused")
	}
	_ = conn.SetReadDeadline(time.Time{})
	pc := &peerConn{conn: conn, enc: enc}
	t.mu.Lock()
	t.peerConns[addr] = pc
	t.mu.Unlock()
	return pc, nil
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
	t.closed = true
	t.mailCond.Broadcast()
	t.mu.Unlock()
	t.encMu.Lock()
	if t.lbConn != nil {
		t.lbConn.Close()
	}
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
	conns    map[int]*lbWorkerConn
	standbys []*lbStandbyConn
	stopped  bool
	shutdown bool // graceful termination requested (SIGTERM / Shutdown)
	// exhausted records that Serve ended because the balancer's probe
	// waves found the frontier dry everywhere, rather than on its time
	// bound or a Shutdown.
	exhausted bool
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
	conn net.Conn
	enc  *gob.Encoder
	mu   sync.Mutex
	cond *sync.Cond
	q    []RepEntry
	// sending: the flusher holds entries it took off q and has not
	// finished encoding — an empty q alone does not mean they were sent.
	sending bool
	dead    bool
}

func newLBStandbyConn(conn net.Conn, enc *gob.Encoder) *lbStandbyConn {
	sc := &lbStandbyConn{conn: conn, enc: enc}
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
			if err := sc.enc.Encode(WireMsg{Rep: &batch[i]}); err != nil {
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
	sc.conn.Close()
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

type lbWorkerConn struct {
	id   int
	enc  *gob.Encoder
	conn net.Conn
	mu   sync.Mutex
}

func (wc *lbWorkerConn) send(wm WireMsg) {
	wc.mu.Lock()
	defer wc.mu.Unlock()
	_ = wc.enc.Encode(wm)
}

// hangUp ends the connection without losing what was just sent: the
// write side closes now, and the handler keeps draining the worker's
// statuses until the worker hangs up too (or handshakeTimeout passes)
// and only then closes the socket. Closing outright with statuses still
// unread makes the kernel answer with a reset, which discards whatever
// the worker had not read yet — the MsgStop — and leaves it re-dialing a
// server that is gone until reconnectDeadline.
func (wc *lbWorkerConn) hangUp() {
	if tc, ok := wc.conn.(*net.TCPConn); ok {
		_ = tc.CloseWrite()
	}
	_ = wc.conn.SetReadDeadline(time.Now().Add(handshakeTimeout))
}

// NewLBServer listens on addr. minWorkers gates quiescence-based
// shutdown only (see LBServer.MinWorkers); pass 0 for a fully elastic
// cluster.
func NewLBServer(addr string, cfg BalancerConfig, covLen int, minWorkers int) (*LBServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	if cfg.Delta == 0 {
		d := cfg
		cfg = DefaultBalancerConfig()
		if d.Lease > 0 {
			cfg.Lease = d.Lease
		}
		cfg.Portfolio = d.Portfolio
		cfg.ReweightEvery = d.ReweightEvery
		cfg.DataPlane = d.DataPlane
		cfg.PartitionDepth = d.PartitionDepth
		cfg.PartitionUnits = d.PartitionUnits
	}
	for _, spec := range cfg.Portfolio {
		if err := search.Validate(spec); err != nil {
			ln.Close()
			return nil, fmt.Errorf("cluster: portfolio: %w", err)
		}
	}
	lb := NewLoadBalancer(cfg, covLen)
	lb.holdOpen = minWorkers > 0 // until Serve has counted that many
	return &LBServer{
		listener:   ln,
		lb:         lb,
		conns:      map[int]*lbWorkerConn{},
		MinWorkers: minWorkers,
		wake:       make(chan struct{}, 1),
	}, nil
}

// newLBServerWith wraps an already-running LoadBalancer — a promoted
// standby's — around an existing listener. The listener's accept loop
// stays with the caller (the Standby), which routes connections to
// handle().
func newLBServerWith(ln net.Listener, lb *LoadBalancer, minWorkers int) *LBServer {
	lb.holdOpen = minWorkers > 0
	s := &LBServer{
		listener:   ln,
		noAccept:   true,
		lb:         lb,
		conns:      map[int]*lbWorkerConn{},
		MinWorkers: minWorkers,
		wake:       make(chan struct{}, 1),
	}
	s.EnableReplication()
	return s
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
	for _, wc := range s.conns {
		wc.conn.Close()
	}
	s.conns = map[int]*lbWorkerConn{}
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
// straggler halts, then its connection is dropped.
func (s *LBServer) dispatchLocked(outs []Outbound) {
	addrs := s.addrsLocked()
	for _, out := range outs {
		msg := out.Msg
		if out.To == Broadcast {
			wm := WireMsg{Msg: &msg, PeerAddrs: addrs}
			if msg.Kind == MsgCoverage {
				wm.PeerAddrs = nil
			}
			for _, wc := range s.conns {
				wc.send(wm)
			}
			if msg.Kind == MsgEvict {
				if wc := s.conns[msg.From]; wc != nil {
					wc.conn.Close()
					delete(s.conns, msg.From)
				}
			}
			continue
		}
		if wc := s.conns[out.To]; wc != nil {
			wc.send(WireMsg{Msg: &msg, PeerAddrs: addrs})
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
		go s.acceptLoop()
	}
	start := time.Now()
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	exhausted := false
	for !exhausted {
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
			if n := s.lb.NumMembers(); n > s.peakMembers {
				s.peakMembers = n
			}
			s.lb.holdOpen = s.peakMembers < s.MinWorkers
			s.dispatchLocked(s.lb.Round(time.Now()))
		}
		// A freshly promoted server cannot get here on replicated
		// quiescence: wave state is not replicated, and no wave opens
		// before the resync window has closed.
		exhausted = s.lb.Terminated()
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
	s.exhausted = exhausted
	for _, wc := range s.conns {
		wc.send(WireMsg{Msg: &Message{Kind: MsgStop}})
		wc.hangUp()
	}
	statuses := s.lb.Statuses()
	s.conns = map[int]*lbWorkerConn{}
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

// Exhausted reports whether Serve ended because the cluster terminated
// (every member idle, nothing in flight, two probe waves agreeing), as
// opposed to being cut off by maxDuration or Shutdown. False until Serve
// returns.
func (s *LBServer) Exhausted() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.exhausted
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

// LearnedSpec returns the learner's current incumbent spec ("" when the
// learner is off or inert); Adoptions counts its incumbent swaps. Both
// are safe after — or concurrently with — Serve.
func (s *LBServer) LearnedSpec() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lb.LearnedSpec()
}

// Adoptions returns how many times the learner replaced the incumbent
// dist-opt weight vector.
func (s *LBServer) Adoptions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lb.Adoptions()
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
func (s *LBServer) handleStandby(conn net.Conn, dec *gob.Decoder, enc *gob.Encoder, now time.Time) {
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
		_ = enc.Encode(WireMsg{Ack: &HelloAck{ID: helloRefused}})
		conn.Close()
		return
	}
	cfg := s.lb.Config()
	ack := HelloAck{ID: 0, Cfg: &cfg, CovLen: s.lb.Cov.Len() - 1}
	sc := newLBStandbyConn(conn, enc)
	// Registering for live entries in the critical section the snapshot
	// was cut in leaves no gap: the first entry queued is snapshot seq + 1.
	s.standbys = append(s.standbys, sc)
	s.mu.Unlock()

	// Ack and snapshot must precede every queued entry on the wire; encode
	// them directly, before the flusher starts draining.
	err := enc.Encode(WireMsg{Ack: &ack})
	if err == nil {
		err = enc.Encode(WireMsg{Snap: snap})
	}
	if err != nil {
		s.dropStandby(sc)
		return
	}
	go sc.flush()
	for {
		var wm WireMsg
		if err := dec.Decode(&wm); err != nil {
			s.dropStandby(sc)
			return
		}
	}
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

func (s *LBServer) acceptLoop() {
	for {
		conn, err := s.listener.Accept()
		if err != nil {
			return
		}
		go s.handle(conn)
	}
}

// handle serves one worker connection: the join/resume handshake, then
// the status stream. A decode error only drops the connection — the
// membership survives until the lease lapses, so a worker that re-dials
// in time resumes exactly where it was.
func (s *LBServer) handle(conn net.Conn) {
	dec := gob.NewDecoder(conn)
	enc := gob.NewEncoder(conn)
	h := readHello(conn, dec)
	if h == nil {
		conn.Close()
		return
	}
	now := time.Now()
	if h.Standby {
		s.handleStandby(conn, dec, enc, now)
		return
	}
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		conn.Close()
		return
	}
	var id int
	var epoch uint64
	var spec string
	if h.ID >= 0 {
		// Resume: accept if (id, epoch) is still a member — or, on a
		// promoted standby, if it falls in the readmit window (the worker
		// joined the lost primary inside the replication gap; its epoch
		// sits between the replicated frontier and the promotion stride).
		if !s.lb.IsMember(h.ID, h.Epoch) {
			if s.lb.canReadmit(h.ID, h.Epoch) {
				m, outs := s.lb.Readmit(h.ID, h.Epoch, h.Addr, now)
				id, epoch, spec = m.ID, m.Epoch, m.Spec
				s.dispatchLocked(outs)
			} else {
				s.mu.Unlock()
				wc := &lbWorkerConn{enc: enc, conn: conn}
				wc.send(WireMsg{Ack: &HelloAck{ID: helloRefused}})
				conn.Close()
				return
			}
		} else {
			id, epoch = h.ID, h.Epoch
			spec = s.lb.Members[id].Spec
			s.lb.Touch(id, now)
		}
	} else {
		m, outs := s.lb.Join(h.Addr, now)
		id, epoch, spec = m.ID, m.Epoch, m.Spec
		s.dispatchLocked(outs)
	}
	wc := &lbWorkerConn{id: id, enc: enc, conn: conn}
	// Send the ack before registering the connection for dispatch: the
	// moment wc is in s.conns, a concurrent Serve tick or another
	// handler's dispatchLocked may send it a broadcast, and dialHello
	// requires the HelloAck to be the first WireMsg on the wire.
	bcfg := s.lb.Config()
	wc.send(WireMsg{Ack: &HelloAck{
		ID: id, Epoch: epoch,
		// Depth mode seeds every worker: each re-derives the shared upper
		// tree locally and counts only inside its granted units.
		Seed:           id == 0 || bcfg.DataPlane == DataPlaneDepth,
		Spec:           spec,
		DataPlane:      bcfg.DataPlane,
		PartitionDepth: bcfg.PartitionDepth,
		PartitionUnits: bcfg.PartitionUnits,
	}, PeerAddrs: s.addrsLocked()})
	if old := s.conns[id]; old != nil {
		old.conn.Close()
	}
	s.conns[id] = wc
	if h.ID >= 0 {
		// A resuming worker slept through any broadcasts sent while it was
		// disconnected, and an idle worker blocks on its mailbox until
		// something arrives: answer the resume with the current membership
		// view so it catches up AND wakes to re-report under the new
		// stream generation — otherwise an idle worker rides out a
		// failover silently and the promoted LB has to evict it.
		wc.send(WireMsg{Msg: &Message{Kind: MsgMembers, Members: s.lb.memberView()}, PeerAddrs: s.addrsLocked()})
	}
	s.mu.Unlock()
	for {
		var wm WireMsg
		if err := dec.Decode(&wm); err != nil {
			conn.Close()
			return
		}
		if wm.Msg == nil {
			continue
		}
		s.mu.Lock()
		if !s.stopped {
			s.dispatchLocked(s.lb.Control(*wm.Msg, time.Now()))
			if s.lb.Terminated() {
				s.wakeServe()
			}
		}
		s.mu.Unlock()
	}
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
	go sb.acceptLoop()
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

// acceptLoop routes connections: before promotion every handshake is
// answered with helloNotPrimary (dialers rotate and retry); after
// promotion connections go straight to the promoted server's handler.
func (sb *Standby) acceptLoop() {
	for {
		conn, err := sb.listener.Accept()
		if err != nil {
			return
		}
		sb.mu.Lock()
		srv := sb.srv
		sb.mu.Unlock()
		if srv != nil {
			go srv.handle(conn)
			continue
		}
		go func(conn net.Conn) {
			if readHello(conn, gob.NewDecoder(conn)) != nil {
				_ = gob.NewEncoder(conn).Encode(WireMsg{Ack: &HelloAck{ID: helloNotPrimary}})
			}
			conn.Close()
		}(conn)
	}
}

// attach dials the primary and subscribes to its replication stream,
// retrying with jittered backoff until the deadline. A helloRefused
// answer means the primary is alive but not serving the stream — not a
// crash — and is surfaced as ErrJoinRefused.
func (sb *Standby) attach(deadline time.Time) (net.Conn, *gob.Decoder, *HelloAck, error) {
	seedID := 0
	if p, ok := sb.listener.Addr().(*net.TCPAddr); ok {
		seedID = p.Port
	}
	jitter := reconnectSeed(seedID)
	backoff := reconnectBase
	var lastErr error
	for {
		if sb.isClosed() {
			return nil, nil, nil, errors.New("cluster: standby closed")
		}
		conn, err := net.Dial("tcp", sb.peer)
		if err == nil {
			enc := gob.NewEncoder(conn)
			dec := gob.NewDecoder(conn)
			h := Hello{Standby: true}
			if err := enc.Encode(WireMsg{Hello: &h}); err == nil {
				var wm WireMsg
				if err := dec.Decode(&wm); err == nil && wm.Ack != nil {
					if wm.Ack.ID == helloRefused {
						conn.Close()
						return nil, nil, nil, ErrJoinRefused
					}
					if wm.Ack.ID >= 0 && wm.Ack.Cfg != nil {
						return conn, dec, wm.Ack, nil
					}
				}
			}
			conn.Close()
			lastErr = errors.New("cluster: standby handshake failed")
		} else {
			lastErr = err
		}
		if time.Now().After(deadline) {
			return nil, nil, nil, lastErr
		}
		time.Sleep(backoffSleep(&jitter, &backoff))
	}
}

// Run tails the primary until it ends. It returns (nil, nil) when the
// primary shut down cleanly (RepShutdown marker, or a live primary
// refusing the stream), or the promoted LBServer when the primary was
// lost — the caller then drives Serve exactly as a fresh primary would.
func (sb *Standby) Run() (*LBServer, error) {
	// First attach gets a generous window: the standby may start before
	// the primary does.
	conn, dec, ack, err := sb.attach(time.Now().Add(15 * time.Second))
	if err != nil {
		sb.Close()
		return nil, fmt.Errorf("cluster: standby never attached: %w", err)
	}
	for {
		var wm WireMsg
		if err := dec.Decode(&wm); err != nil {
			conn.Close()
			// Stream lost: try to re-attach inside the grace window; a
			// primary that stays dead past it has crashed — promote.
			nc, nd, nack, aerr := sb.attach(time.Now().Add(sb.grace))
			if aerr == nil {
				// Same run resumes. The new stream opens with a fresh
				// snapshot; until it arrives the replica we hold stands.
				conn, dec, ack = nc, nd, nack
				continue
			}
			if errors.Is(aerr, ErrJoinRefused) {
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
			if serr := rep.InstallState(wm.Snap); serr != nil {
				conn.Close()
				sb.Close()
				return nil, fmt.Errorf("cluster: standby snapshot install: %w", serr)
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
		var aerr error
		if sb.rep == nil {
			aerr = errors.New("entry before snapshot")
		} else {
			aerr = sb.rep.Apply(*wm.Rep)
		}
		clean := wm.Rep.Kind == RepShutdown
		sb.mu.Unlock()
		if aerr != nil {
			conn.Close()
			sb.Close()
			return nil, fmt.Errorf("cluster: standby apply: %w", aerr)
		}
		if clean {
			conn.Close()
			sb.Close()
			return nil, nil
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
	sb.srv = newLBServerWith(sb.listener, lb, sb.minWorkers)
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
