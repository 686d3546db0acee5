package cluster

import (
	"fmt"
	"maps"
	"reflect"
	"slices"
	"strconv"
	"sync/atomic"
	"time"

	"cloud9/internal/coverage"
	"cloud9/internal/engine"
	"cloud9/internal/interp"
	"cloud9/internal/obs"
	"cloud9/internal/search"
)

// WorkerConfig configures one cluster worker.
type WorkerConfig struct {
	ID    int
	Epoch uint64 // membership incarnation assigned at join
	Seed  bool   // the seed worker starts with the whole-tree job
	Batch int    // exploration steps between mailbox polls

	// CrashWhen, if set, is a fault-injection hook evaluated on the
	// worker's own thread at each loop boundary with the current queue
	// length; returning true crashes the worker on the spot (no goodbye,
	// no further statuses).
	CrashWhen func(queue int) bool

	// StrategySpec is the internal/search strategy spec the worker runs
	// from join until it leaves: the load balancer's portfolio slot, or a
	// local choice (c9-worker -strategy). Empty: the engine default (or
	// whatever Engine.Strategy says).
	StrategySpec string

	// DataPlane selects how exported job batches travel (inherited from
	// the balancer config / HelloAck): DataPlaneP2P (default, also "")
	// ships peer-to-peer with LB-relay fallback; DataPlaneDepth ships
	// nothing (workers claim deterministic depth units instead —
	// Engine.Partition must be set).
	DataPlane string

	Engine engine.Config
	// NewInterp builds the worker's private interpreter+model stack
	// (shared-nothing: each worker owns its program instance, solver and
	// caches).
	NewInterp func() (*interp.Interp, error)
	Entry     string
}

// WorkerConfig fills base in with what the handshake decided: identity,
// seed role, the LB's strategy assignment (unless base names its own), the
// data plane and — in depth mode — the partition every worker of the run
// derives the same units from. Everything else in base is the caller's.
func (a *HelloAck) WorkerConfig(base WorkerConfig) WorkerConfig {
	base.ID, base.Epoch, base.Seed = a.ID, a.Epoch, a.Seed
	if base.StrategySpec == "" {
		base.StrategySpec = a.Spec
	}
	base.DataPlane = a.DataPlane
	if a.DataPlane == DataPlaneDepth {
		base.Engine.Partition = &engine.PartitionSpec{Depth: a.PartitionDepth, Units: a.PartitionUnits}
	}
	return base
}

// Transport delivers messages between cluster members. Two fabrics
// implement it: the lock-step sim (sim.go) and gob over TCP (tcp.go).
// Per-destination delivery must be FIFO — the custody protocol
// de-duplicates on sequence high-water marks. Delivery is all it is: who
// a worker is comes from the handshake (HelloAck.WorkerConfig).
type Transport interface {
	// SendToLB delivers a control message (status, goodbye, relayed
	// batch) to the load balancer, in order. A false return means the
	// message definitely did not reach the LB stream (the sender
	// re-establishes what the lost message carried — e.g. a full status
	// snapshot — once the stream is back); true means it was handed to
	// the transport.
	SendToLB(m Message) bool
	// LBGen returns a counter incremented each time the LB stream is
	// (re)established — a TCP reconnect, a balancer restart. A status
	// sent under an older generation may have been lost even if the send
	// was accepted, so the worker follows every bump with a full one.
	LBGen() uint64
	// SendToLBAt is SendToLB only while the stream generation still
	// equals gen — decision and send are atomic — so the first message a
	// new stream carries is always one built with that stream's
	// generation in hand (for statuses: a full snapshot).
	SendToLBAt(m Message, gen uint64) bool
	// SendJobs delivers a job batch to another worker. A false return
	// means the batch was definitely not delivered (the caller falls
	// back to LB relay, or re-imports it); true means it was handed to
	// the transport.
	SendJobs(dst int, m Message) bool
	// Recv returns the next pending message, or ok=false when the
	// mailbox is empty.
	Recv() (Message, bool)
	// WaitForMail blocks an idle worker until a message arrives or a
	// short timeout passes.
	WaitForMail()
}

// memberNotes is what a worker's transport remembers of the membership
// for a re-dial: the last view the balancer sent and every departure it
// announced. Both go into the re-dial's Hello (and nowhere else), so a
// restarted balancer can rebuild the run.
type memberNotes struct {
	view, departed map[int]uint64
}

func newMemberNotes() *memberNotes {
	return &memberNotes{departed: map[int]uint64{}}
}

// note takes in one message from the balancer. An eviction's view
// already leaves the departed member out; an abandonment carries none.
func (n *memberNotes) note(m Message) {
	switch m.Kind {
	case MsgMembers, MsgEvict:
		n.view = maps.Clone(m.Members)
	case MsgAbandon:
		delete(n.view, m.From)
	}
	if m.Kind == MsgEvict || m.Kind == MsgAbandon {
		n.departed[m.From] = max(n.departed[m.From], m.Epoch)
	}
}

// hello is the Hello a worker (id, epoch) listening on addr sends: a
// fresh join (id < 0) carries nothing else, a re-dial what n holds.
func (n *memberNotes) hello(addr string, id int, epoch uint64) Hello {
	h := Hello{Addr: addr, ID: id, Epoch: epoch}
	if id >= 0 {
		h.View, h.Departed = maps.Clone(n.view), maps.Clone(n.departed)
	}
	return h
}

// unackedBatch is an exported job batch awaiting the receiver's
// acknowledgment; if the receiver is evicted first, the batch is
// re-imported locally. via records which channel last shipped it (peer
// session or LB relay), so custody state names the path a batch took —
// recovery itself is channel-agnostic (sequences and ack high-water
// marks mean the same thing either way).
type unackedBatch struct {
	jt     *JobTree
	n      int
	sentAt time.Time
	via    string
}

// Shipping channels recorded on custody entries and journal events.
const (
	viaPeer  = "peer"
	viaRelay = "relay"
)

const (
	// statusEvery is the period of a busy worker's progress statuses:
	// RunLoop sends one after a batch only if this long has passed since
	// the last status of any kind. Everything the balancer acts on — jobs
	// in or out, going idle, a unit grant, an eviction, a probe — sends
	// its status at once; the clocked ones carry queue length, counters
	// and coverage, which the balance round reads every 20 ms.
	statusEvery = 5 * time.Millisecond
	// frontierEvery is the cadence, in statuses, of the full ones that
	// carry the frontier job tree; the light ones between renew the lease.
	// A status is full whenever the send/receive counters moved, so the
	// custody snapshot never misses a transfer, and a crash discards at
	// most frontierEvery × statusEvery of exploration, explored again.
	frontierEvery = 16
	// resendAfter re-sends unacknowledged exported job batches (lossy
	// transports only; receivers suppress duplicates).
	resendAfter = 2 * time.Second
)

// Worker is one Cloud9 worker node: a private symbolic execution engine
// plus the job-transfer and membership protocol.
type Worker struct {
	ID    int
	Epoch uint64
	Exp   *engine.Explorer

	cfg       WorkerConfig
	transport Transport

	// Cluster-protocol counters live in the engine's obs registry as
	// atomic counters (held pointers; a -obs-addr scrape goroutine may
	// snapshot them concurrently with this thread). The protocol itself
	// reads them back with Load on the worker thread.
	jobsSent    *obs.Counter
	jobsRecv    *obs.Counter
	transfersIn *obs.Counter // jobs actually received from peers (Fig. 12)

	gapsCtr          *obs.Counter
	resendsCtr       *obs.Counter
	reimportsCtr     *obs.Counter
	reseatImportsCtr *obs.Counter
	queueGauge       *obs.Gauge
	batchHist        *obs.Histogram
	journal          *obs.Journal

	// Data-plane accounting: logical peer sessions (one per destination,
	// opened on the first successful peer ship, closed on link loss or
	// the peer's eviction) and the bytes each channel moved. The session
	// counters are cumulative and ride every status, so the LB journals
	// open/close/fallback events from them.
	peerSessions  map[int]bool
	peerOpens     *obs.Counter
	peerCloses    *obs.Counter
	peerFallbacks *obs.Counter
	peerBytes     *obs.Counter
	relayBytes    *obs.Counter
	unitAcquires  *obs.Counter

	// Sender-side custody: per-destination unacked exported batches,
	// keyed by a per-destination sequence number — so each (src, dst)
	// stream is contiguous (1, 2, 3, …) and receivers can detect a lost
	// batch as a gap.
	exportSeq map[int]uint64
	unacked   map[int]map[uint64]*unackedBatch

	// Receiver-side duplicate suppression and LB custody acks: highest
	// contiguously-processed batch sequence per source, and the set of
	// processed LB re-seat batches keyed by stable custody id (ids are
	// global — the departed member's epoch — not per-destination, so a
	// set rather than a high-water mark; it stays tiny because re-seats
	// only happen on membership changes). Each entry keeps the ack this
	// worker echoes in every status: batch id, jobs imported, and the
	// departed member's accounting record as shipped with the batch —
	// what a restarted balancer rebuilds the departure from.
	ackHW      map[int]uint64
	reseatSeen map[uint64]ReseatAck

	// recvFrom and ackedTo count, per peer, the jobs imported from it and
	// the jobs it acknowledged receiving from this worker. They never
	// travel; they settle the job sums when a restart abandons that peer
	// (MsgAbandon), whose own counters died with the old balancer.
	recvFrom map[int]uint64
	ackedTo  map[int]uint64

	// Known-evicted peers (id → epoch), learned from MsgEvict
	// broadcasts; the fencing rule for stale senders and departed
	// destinations.
	evictedPeers map[int]uint64

	stopped  bool
	departed bool // left without a final status: crash, self-eviction, or retire
	retire   atomic.Bool

	// now is the clock lastStatus is read on (time.Now outside tests);
	// lastStatus, the time of the last status sent, paces the per-batch
	// statuses (statusEvery). A batch that outlasts the lease is covered
	// by the transport's keepalive, not by a status.
	// statusesSinceFull and lastFullSent/Recv drive the full-vs-light
	// status cadence. fullPending forces the next status to carry the
	// frontier after a full snapshot may have been lost (LB send failure
	// or stream reconnect); lastLBGen is the LB stream generation the
	// last status went out on. probeSeen is the highest termination probe
	// received, echoed in every status.
	now               func() time.Time
	lastStatus        time.Time
	probeSeen         uint64
	statusesSinceFull int
	lastFullSent      uint64
	lastFullRecv      uint64
	fullPending       bool
	lastLBGen         uint64
	lastSent          Status // the last status sent, less coverage, frontier and metrics
}

// strategySeed derives the deterministic seed for a worker's strategy:
// distinct per worker, so portfolio peers running the same randomized
// spec explore differently.
func strategySeed(id int) int64 {
	return int64(id+1) * 2654435761
}

// NewWorker builds a worker (its engine fully initialized).
func NewWorker(cfg WorkerConfig, tr Transport) (*Worker, error) {
	in, err := cfg.NewInterp()
	if err != nil {
		return nil, err
	}
	if cfg.StrategySpec != "" {
		cfg.Engine.Strategy, err = search.Factory(cfg.StrategySpec, strategySeed(cfg.ID))
		if err != nil {
			return nil, fmt.Errorf("cluster: worker %d strategy: %w", cfg.ID, err)
		}
	}
	exp, err := engine.New(in, cfg.Entry, cfg.Engine)
	if err != nil {
		return nil, err
	}
	if !cfg.Seed {
		exp.DropRoot()
	}
	if cfg.Batch <= 0 {
		cfg.Batch = 16
	}
	w := &Worker{
		ID:           cfg.ID,
		Epoch:        cfg.Epoch,
		Exp:          exp,
		cfg:          cfg,
		transport:    tr,
		exportSeq:    map[int]uint64{},
		unacked:      map[int]map[uint64]*unackedBatch{},
		ackHW:        map[int]uint64{},
		reseatSeen:   map[uint64]ReseatAck{},
		recvFrom:     map[int]uint64{},
		ackedTo:      map[int]uint64{},
		evictedPeers: map[int]uint64{},
		peerSessions: map[int]bool{},
		now:          time.Now,
		// The first status is always a full snapshot.
		statusesSinceFull: frontierEvery,
	}
	// Cluster-protocol metrics join the engine's registry so one snapshot
	// covers every layer this worker runs; the journal is shared too,
	// stamped with this worker's cluster id.
	exp.Journal.Worker = cfg.ID
	w.journal = exp.Journal
	w.jobsSent = exp.Obs.Counter(obs.MClusterJobsSent)
	w.jobsRecv = exp.Obs.Counter(obs.MClusterJobsRecv)
	w.transfersIn = exp.Obs.Counter(obs.MClusterTransfersIn)
	w.gapsCtr = exp.Obs.Counter(obs.MClusterBatchGaps)
	w.resendsCtr = exp.Obs.Counter(obs.MClusterBatchResends)
	w.reimportsCtr = exp.Obs.Counter(obs.MClusterReimports)
	w.reseatImportsCtr = exp.Obs.Counter(obs.MClusterReseatImports)
	w.queueGauge = exp.Obs.Gauge(obs.MClusterQueueJobs)
	w.batchHist = exp.Obs.Histogram(obs.MClusterBatchImportJobs, obs.ExpBuckets(1, 2, 12))
	w.peerOpens = exp.Obs.Counter(obs.MClusterPeerOpens)
	w.peerCloses = exp.Obs.Counter(obs.MClusterPeerCloses)
	w.peerFallbacks = exp.Obs.Counter(obs.MClusterPeerFallbacks)
	w.peerBytes = exp.Obs.Counter(obs.MClusterPeerBytes)
	w.relayBytes = exp.Obs.Counter(obs.MClusterRelayBytes)
	w.unitAcquires = exp.Obs.Counter(obs.MClusterUnitAcquires)
	return w, nil
}

// Spec returns the strategy spec the worker runs.
func (w *Worker) Spec() string { return w.cfg.StrategySpec }

// Stopped reports whether the worker received MsgStop (or halted on its
// own eviction).
func (w *Worker) Stopped() bool { return w.stopped }

// Departed reports that the worker left the cluster without a final
// status: it crashed, saw its own eviction, or retired. Its contribution
// to cluster totals is whatever the load balancer last recorded for it;
// its in-memory stats must not be double counted.
func (w *Worker) Departed() bool { return w.departed }

// vanish is a crash, on the worker's own thread: no goodbye, no final
// status — exactly what a kill -9 looks like to the cluster. Fault
// injection only (WorkerConfig.CrashWhen, SimConfig.Crashes).
func (w *Worker) vanish() {
	w.journal.Append(obs.EvCrash, nil)
	w.departed = true
}

// Retire makes the worker leave gracefully: from now on it exports
// nothing, and at the first loop boundary where every batch it shipped
// has been acknowledged it sends a final status (carrying its whole
// frontier) followed by MsgGoodbye, so the LB re-seats its remaining work
// without waiting out a lease. Leaving with a batch unacknowledged would
// lose it: the goodbye makes the LB broadcast the worker's eviction, which
// can reach the receiver before the batch does (they travel on different
// connections), and a receiver drops every batch from an evicted sender.
func (w *Worker) Retire() { w.retire.Store(true) }

// holdsCustody reports whether a batch this worker shipped still awaits
// its receiver's acknowledgment.
func (w *Worker) holdsCustody() bool {
	for _, byseq := range w.unacked {
		if len(byseq) > 0 {
			return true
		}
	}
	return false
}

// importPaths installs received job paths and keeps the send/receive
// reconciliation balanced: every delivered batch counts once on the
// receive side, whether it came from a peer, the LB, or a local
// re-import after a destination's eviction.
func (w *Worker) importPaths(paths [][]uint8) {
	w.Exp.ImportJobs(paths)
	w.jobsRecv.Add(uint64(len(paths)))
	w.batchHist.Observe(uint64(len(paths)))
}

// shipBatch moves one exported batch to dst: over the peer session, or
// — this batch only — relayed through the LB when the session cannot be
// had. It returns the channel used and whether the batch left this worker
// at all; false means the caller must roll custody back (both channels
// refused the batch).
func (w *Worker) shipBatch(dst int, m Message) (string, bool) {
	if w.transport.SendJobs(dst, m) {
		w.notePeerOpen(dst)
		w.peerBytes.Add(uint64(payloadBytes(m.Jobs)))
		return viaPeer, true
	}
	// The peer link is refused, blackholed, or not yet dialable: whatever
	// session existed is gone, and the batch falls back to LB-relayed
	// shipping so a partitioned fleet keeps making progress. The receiver
	// sees an identical MsgJobs either way.
	w.notePeerClose(dst)
	w.peerFallbacks.Inc()
	w.journal.Append(obs.EvPeerFallback, map[string]string{
		"dst": strconv.Itoa(dst),
		"seq": strconv.FormatUint(m.Seq, 10),
	})
	ship := m
	ship.Kind = MsgShip
	ship.Dst = dst
	if w.transport.SendToLB(ship) {
		w.relayBytes.Add(uint64(payloadBytes(m.Jobs)))
		return viaRelay, true
	}
	return "", false
}

// notePeerOpen records the first successful peer ship to dst as a
// logical session open.
func (w *Worker) notePeerOpen(dst int) {
	if w.peerSessions[dst] {
		return
	}
	w.peerSessions[dst] = true
	w.peerOpens.Inc()
	w.journal.Append(obs.EvPeerSessionOpen, map[string]string{"dst": strconv.Itoa(dst)})
}

// notePeerClose closes the logical session to dst (link failure or the
// peer's eviction). Idempotent.
func (w *Worker) notePeerClose(dst int) {
	if !w.peerSessions[dst] {
		return
	}
	delete(w.peerSessions, dst)
	w.peerCloses.Inc()
	w.journal.Append(obs.EvPeerSessionClose, map[string]string{"dst": strconv.Itoa(dst)})
}

// reimport takes back custody of a batch whose destination is gone.
func (w *Worker) reimport(dst int, seq uint64) {
	byseq := w.unacked[dst]
	b := byseq[seq]
	if b == nil {
		return
	}
	delete(byseq, seq)
	w.reimportsCtr.Inc()
	w.journal.Append(obs.EvBatchReimport, map[string]string{
		"dst":  strconv.Itoa(dst),
		"seq":  strconv.FormatUint(seq, 10),
		"jobs": strconv.Itoa(b.n),
	})
	w.importPaths(b.jt.Paths())
}

// drainMailbox processes all pending messages.
func (w *Worker) drainMailbox() {
	for {
		msg, ok := w.transport.Recv()
		if !ok {
			return
		}
		switch msg.Kind {
		case MsgStop:
			w.stopped = true
			return
		case MsgJobs:
			w.handleJobs(msg)
		case MsgTransferReq:
			w.handleTransferReq(msg)
		case MsgJobsAck:
			// The receiver (msg.From) has processed every batch we sent it
			// up through msg.Seq: release custody.
			for seq, b := range w.unacked[msg.From] {
				if seq <= msg.Seq {
					w.ackedTo[msg.From] += uint64(b.n)
					delete(w.unacked[msg.From], seq)
				}
			}
		case MsgEvict:
			w.handleEvict(msg)
			if w.stopped {
				return
			}
		case MsgAbandon:
			w.handleAbandon(msg)
			if w.stopped {
				return
			}
		case MsgMembers:
			// Membership snapshots exist for the transports (the TCP
			// layer piggybacks peer addresses on them); workers fence on
			// MsgEvict alone.
		case MsgUnits:
			// Depth-partition grant: the LB re-sends the full owned list
			// until the status echo matches, so acquisition must be (and
			// is) idempotent.
			if n := w.Exp.AcquireUnits(msg.Units); n > 0 {
				w.unitAcquires.Add(uint64(n))
				w.journal.Append(obs.EvUnitAcquire, map[string]string{
					"units": strconv.Itoa(n),
					"owned": strconv.Itoa(len(w.Exp.OwnedUnits())),
				})
			}
			w.sendStatus()
		case MsgProbe:
			// Termination wave: the answer must be a snapshot taken after
			// the probe arrived, so it goes out now, whatever the clock says.
			w.probeSeen = max(w.probeSeen, msg.Seq)
			w.sendStatus()
		case MsgCoverage:
			// Merge the global vector into the local one so the local
			// strategy makes globally consistent choices (§3.3); the
			// explorer forwards the delta to coverage-driven strategies
			// (yield discounting) and to the distance oracle (md2u
			// re-ranking for dist-opt / cupa(dist,...)).
			g := coverage.FromWords(msg.CovWords, w.Exp.Cov.Len()-1)
			w.Exp.MergeGlobalCoverage(g)
		}
	}
}

// handleJobs ingests a job batch from a peer or an LB re-seat. The
// import, the receive counter, and the acknowledgment all land in the
// same status snapshot, so the LB's view stays consistent whatever
// happens to this worker afterwards.
func (w *Worker) handleJobs(msg Message) {
	if msg.From == LBFrom {
		// A custody batch; one with no jobs still carries the departed
		// member's record, to be echoed.
		if _, dup := w.reseatSeen[msg.Seq]; dup {
			return // duplicate re-delivery
		}
		var paths [][]uint8
		if msg.Jobs != nil {
			paths = msg.Jobs.Paths()
		}
		ack := ReseatAck{ID: msg.Seq, Jobs: len(paths)}
		if msg.Status != nil {
			ack.Rec = *msg.Status
		}
		w.reseatSeen[msg.Seq] = ack
		w.reseatImportsCtr.Inc()
		w.journal.Append(obs.EvReseatImport, map[string]string{
			"seq":  strconv.FormatUint(msg.Seq, 10),
			"jobs": strconv.Itoa(len(paths)),
		})
		if len(paths) > 0 {
			w.importPaths(paths)
		}
		w.sendStatus()
		return
	}
	if msg.Jobs == nil {
		return
	}
	if ep, gone := w.evictedPeers[msg.From]; gone && msg.Epoch <= ep {
		// Stale sender: its frontier was already re-seated at eviction;
		// importing this would duplicate work. Drop without counting —
		// the sender's counters died with its membership.
		return
	}
	if msg.Seq <= w.ackHW[msg.From] {
		return // duplicate resend
	}
	if msg.Seq != w.ackHW[msg.From]+1 {
		// Gap: an earlier batch from this sender was lost (e.g. its
		// connection died with the batch buffered). Drop this one too,
		// without counting — the sender still holds custody of both and
		// re-sends them in order, so processing out of order here would
		// let the cumulative ack wrongly release the lost batch.
		w.gapsCtr.Inc()
		w.journal.Append(obs.EvBatchGap, map[string]string{
			"from": strconv.Itoa(msg.From),
			"seq":  strconv.FormatUint(msg.Seq, 10),
			"want": strconv.FormatUint(w.ackHW[msg.From]+1, 10),
		})
		return
	}
	w.ackHW[msg.From] = msg.Seq
	paths := msg.Jobs.Paths()
	w.recvFrom[msg.From] += uint64(len(paths))
	w.transfersIn.Add(uint64(len(paths)))
	w.importPaths(paths)
	w.sendStatus()
}

// handleTransferReq exports candidates to the destination the LB chose.
// Custody of the batch stays here until the receiver's ack comes back.
func (w *Worker) handleTransferReq(msg Message) {
	if _, gone := w.evictedPeers[msg.Dst]; gone {
		return // stale order for a departed destination
	}
	if w.retire.Load() {
		return // a retiring worker waits out its custody; it ships no more
	}
	paths := w.Exp.ExportCandidates(msg.NJobs)
	if len(paths) == 0 {
		return
	}
	jt := BuildJobTree(paths)
	w.exportSeq[msg.Dst]++
	seq := w.exportSeq[msg.Dst]
	w.jobsSent.Add(uint64(len(paths)))
	if w.unacked[msg.Dst] == nil {
		w.unacked[msg.Dst] = map[uint64]*unackedBatch{}
	}
	b := &unackedBatch{jt: jt, n: len(paths), sentAt: time.Now()}
	w.unacked[msg.Dst][seq] = b
	if via, ok := w.shipBatch(msg.Dst, Message{
		Kind: MsgJobs, From: w.ID, Epoch: w.Epoch, Seq: seq, Jobs: jt,
	}); ok {
		b.via = via
	} else {
		// The transport refused the batch, so it never left this worker.
		// Roll the sequence back before taking the jobs back: seq is the
		// highest issued for this destination (assigned just above), so
		// the next export reuses it and the receiver's contiguity check
		// keeps passing. Leaving it burned would wedge the (src,dst)
		// stream forever: every later batch would arrive as a gap and be
		// dropped.
		w.exportSeq[msg.Dst] = seq - 1
		w.reimport(msg.Dst, seq)
	}
	w.sendStatus()
}

// handleEvict processes a membership eviction: remember the departed
// (id, epoch) so its late messages are dropped, take back custody of
// anything we sent it that was never acknowledged, and halt immediately
// if the eviction is our own (we have been presumed dead; continuing
// would duplicate the re-seated work).
func (w *Worker) handleEvict(msg Message) {
	w.evictedPeers[msg.From] = msg.Epoch
	if msg.From == w.ID {
		w.stopped = true
		w.departed = true
		return
	}
	w.notePeerClose(msg.From)
	if byseq := w.unacked[msg.From]; len(byseq) > 0 {
		for _, seq := range slices.Sorted(maps.Keys(byseq)) {
			w.reimport(msg.From, seq)
		}
		w.sendStatus()
	}
}

// handleAbandon fences a peer a restart reports lost, like an evicted one,
// and stands in for the peer's job counters, which died with the old
// balancer: what this worker imported from it counts as sent, what it
// acknowledged as received. Both counters only grow, as the termination
// probes require.
func (w *Worker) handleAbandon(msg Message) {
	if ep, gone := w.evictedPeers[msg.From]; !gone || ep < msg.Epoch {
		w.handleEvict(msg)
		if w.stopped {
			return
		}
	}
	w.jobsSent.Add(w.recvFrom[msg.From])
	w.jobsRecv.Add(w.ackedTo[msg.From])
	delete(w.recvFrom, msg.From)
	delete(w.ackedTo, msg.From)
	w.sendStatus()
}

// resendOverdue re-sends exported batches whose ack is overdue — only
// relevant on lossy transports (a TCP peer connection that died after
// the batch was buffered). Re-sends go out in ascending sequence order
// so the receiver's contiguity check accepts them; receivers suppress
// true duplicates by sequence.
func (w *Worker) resendOverdue() {
	now := time.Now()
	for dst, byseq := range w.unacked {
		if _, gone := w.evictedPeers[dst]; gone {
			continue
		}
		overdue := false
		for _, b := range byseq {
			if now.Sub(b.sentAt) > resendAfter {
				overdue = true
				break
			}
		}
		if !overdue {
			continue
		}
		seqs := slices.Sorted(maps.Keys(byseq))
		for i, seq := range seqs {
			b := byseq[seq]
			b.sentAt = now
			if via, ok := w.shipBatch(dst, Message{
				Kind: MsgJobs, From: w.ID, Epoch: w.Epoch, Seq: seq, Jobs: b.jt,
			}); ok {
				b.via = via
				w.resendsCtr.Inc()
				w.journal.Append(obs.EvBatchResend, map[string]string{
					"dst": strconv.Itoa(dst),
					"seq": strconv.FormatUint(seq, 10),
					"via": via,
				})
			} else {
				// Keep custody and retry on a later pass (the peer may come
				// back, or its eviction reimports via handleEvict). A mid-
				// stream reimport here would wedge the stream: sequences
				// above this one may be outstanding, and the receiver would
				// expect the reimported seq forever and drop all of them.
				// Stamp the rest too so the next attempt waits out
				// resendAfter instead of hot-looping on a dead connection.
				for _, rest := range seqs[i+1:] {
					byseq[rest].sentAt = now
				}
				break
			}
		}
	}
}

// sendStatus reports a consistent snapshot to the LB: load, job counters,
// coverage, and acknowledgments, plus — on full statuses — the frontier
// as path prefixes and the cumulative metrics. Building the frontier tree
// is O(frontier · depth), so it is shipped when the transfer counters
// moved (keeping the LB's custody snapshot exact) and every
// frontierEvery-th status otherwise; the cadence is count-based so the
// lock-step sim stays deterministic.
func (w *Worker) sendStatus() {
	full := w.jobsSent.Load() != w.lastFullSent || w.jobsRecv.Load() != w.lastFullRecv ||
		w.statusesSinceFull >= frontierEvery || w.Exp.Done()
	w.sendStatusOpt(full, false)
}

// sendStatusOpt sends a status, full or light; if onlyNews, only when it
// says more than coverage the last one sent did not.
func (w *Worker) sendStatusOpt(full, onlyNews bool) {
	gen := w.transport.LBGen()
	if gen != w.lastLBGen {
		// The LB stream was (re)established since the last status went
		// out; anything sent on the old stream — including the last full
		// snapshot whose counters released sender custody — may have been
		// lost. Re-establish the LB's custody view with a full status.
		w.fullPending = true
		w.lastLBGen = gen
	}
	full = full || w.fullPending
	var acks []JobAck
	for _, src := range slices.Sorted(maps.Keys(w.ackHW)) {
		acks = append(acks, JobAck{Src: src, Seq: w.ackHW[src]})
	}
	var reseatAcks []ReseatAck
	for _, id := range slices.Sorted(maps.Keys(w.reseatSeen)) {
		reseatAcks = append(reseatAcks, w.reseatSeen[id])
	}
	w.queueGauge.Set(int64(w.Exp.Tree.NumCandidates()))
	st := Status{
		Worker:        w.ID,
		Epoch:         w.Epoch,
		Queue:         w.Exp.Tree.NumCandidates(),
		JobsSent:      w.jobsSent.Load(),
		JobsRecv:      w.jobsRecv.Load(),
		Done:          w.Exp.Done(),
		Probe:         w.probeSeen,
		Acks:          acks,
		ReseatAcks:    reseatAcks,
		Spec:          w.cfg.StrategySpec,
		PeerOpens:     w.peerOpens.Load(),
		PeerCloses:    w.peerCloses.Load(),
		PeerFallbacks: w.peerFallbacks.Load(),
		Units:         w.Exp.OwnedUnits(),
	}
	if onlyNews && !w.fullPending && reflect.DeepEqual(st, w.lastSent) {
		return
	}
	w.lastSent = st
	st.CovWords = w.Exp.Cov.Words()
	if full {
		// The frontier and the cumulative metrics are one cut: the LB
		// replaces its record of both, so a lost full status is made good
		// by the next one.
		st.Frontier = BuildJobTree(w.Exp.FrontierPaths())
		o := w.Exp.Obs.Snapshot()
		st.Obs = &o
	}
	msg := Message{Kind: MsgStatus, From: w.ID, Epoch: w.Epoch, Status: &st}
	// Gate the send on the generation the full/light decision was made
	// under: if the stream was replaced in between, a light status must
	// not become the first message accepted on the new stream (it would
	// advance Last — releasing sender custody via its acks — while
	// LastFull stays stale).
	ok := w.transport.SendToLBAt(msg, gen)
	switch {
	case full && ok:
		w.fullPending = false
		w.statusesSinceFull = 0
		w.lastFullSent = w.jobsSent.Load()
		w.lastFullRecv = w.jobsRecv.Load()
	case full:
		// The snapshot never left this worker: the LB's custody view is
		// still stale, so the next status must be full again.
		w.fullPending = true
	default:
		w.statusesSinceFull++
	}
	w.lastStatus = w.now()
}

// sendGoodbye announces a graceful leave. The preceding status carries
// the whole frontier, so the LB re-seats it immediately.
func (w *Worker) sendGoodbye() {
	w.journal.Append(obs.EvRetire, nil)
	w.sendStatusOpt(true, false)
	w.transport.SendToLB(Message{Kind: MsgGoodbye, From: w.ID, Epoch: w.Epoch})
	w.departed = true
	w.stopped = true
}

// RunLoop executes the worker until stopped. It alternates between
// processing messages and exploring a batch of candidates, sending
// status updates as it goes. Crash and retire requests are honored at
// loop boundaries so every status remains a consistent snapshot.
func (w *Worker) RunLoop() error {
	w.sendStatus()
	for !w.stopped && !w.departed {
		if err := w.turn(); err != nil {
			return err
		}
	}
	if !w.departed {
		w.sendStatus()
	}
	return nil
}

// turn is one pass of RunLoop: the crash and retire checks, the mailbox,
// then a batch of exploration, or an idle status and a wait for mail.
func (w *Worker) turn() error {
	if w.cfg.CrashWhen != nil && w.cfg.CrashWhen(w.Exp.Tree.NumCandidates()) {
		w.vanish()
		return nil
	}
	if w.retire.Load() && !w.holdsCustody() {
		w.sendGoodbye()
		return nil
	}
	w.drainMailbox()
	if w.stopped {
		return nil
	}
	w.resendOverdue()
	if w.Exp.Done() {
		// Idle: the status tells the LB we need work. It goes out again
		// with news, or as the refresh that makes good a lost full one;
		// the keepalive renews the lease, and roundDue ignores a repeat.
		w.sendStatusOpt(true, w.now().Sub(w.lastStatus) < frontierEvery*statusEvery)
		w.transport.WaitForMail()
		return nil
	}
	for i := 0; i < w.cfg.Batch && !w.Exp.Done(); i++ {
		if _, err := w.Exp.Step(); err != nil {
			return err
		}
	}
	if w.now().Sub(w.lastStatus) >= statusEvery {
		w.sendStatus()
	}
	return nil
}
