package cluster

import (
	"cmp"
	"fmt"
	"maps"
	"math"
	"slices"
	"strconv"
	"time"

	"cloud9/internal/coverage"
	"cloud9/internal/obs"
)

// BalancerConfig tunes the load balancing algorithm of §3.3 and the
// membership protocol layered on top of it.
type BalancerConfig struct {
	// Delta is the σ multiplier classifying workers as under/overloaded
	// (li < max(l̄ − δσ, 0) resp. li > l̄ + δσ).
	Delta float64
	// MinTransfer suppresses transfers smaller than this many jobs.
	MinTransfer int
	// Lease is how long a member may stay silent (no accepted status,
	// no keepalive) before it is presumed crashed and evicted. 0 means
	// DefaultLease.
	Lease time.Duration
	// Portfolio lists the internal/search strategy specs the LB hands
	// out to workers — one slot per joining member, in equal shares,
	// kept until the member leaves (see portfolio.go). Empty: workers
	// run the engine default. Validate entries with search.ParsePortfolio
	// before starting.
	Portfolio []string
	// DataPlane selects how job payloads move between workers:
	// DataPlaneP2P (the default; "" means p2p) ships batches directly
	// worker→worker over peer sessions, falling back to LB relay for a
	// batch whose link cannot be established; DataPlaneDepth removes
	// payload shipping entirely in favor of deterministic depth-partition
	// unit grants.
	DataPlane string
	// PartitionDepth and PartitionUnits shape the depth data plane:
	// terminal paths are truncated at PartitionDepth and hashed into
	// PartitionUnits work units any worker can re-derive locally
	// (0 = DefaultPartitionDepth / DefaultPartitionUnits). Only
	// meaningful when DataPlane is DataPlaneDepth.
	PartitionDepth int
	PartitionUnits int
}

// Data-plane modes for BalancerConfig.DataPlane.
const (
	// DataPlaneP2P (the default) ships job payloads worker→worker over
	// peer sessions; the LB only names (src, dst, count) and relays
	// custody acknowledgments. Falls back to relay per batch when a peer
	// link is down.
	DataPlaneP2P = "p2p"
	// DataPlaneDepth replaces job shipping with depth-partitioned work
	// units: every worker re-derives the shared upper tree and only the
	// unit owner counts the terminals inside it.
	DataPlaneDepth = "depth"
)

// Default depth-partition shape when BalancerConfig leaves the fields
// zero: paths truncated at depth 4 hash into 16 units — enough units to
// keep a small cluster busy without fragmenting the tree.
const (
	DefaultPartitionDepth = 4
	DefaultPartitionUnits = 16
)

// DefaultLease is the membership lease used when BalancerConfig.Lease is
// zero. Generous relative to worker status cadence so that a slow batch
// never triggers a false eviction.
const DefaultLease = 2 * time.Second

// DefaultBalancerConfig mirrors the paper's description with a moderate
// δ so that small clusters still balance.
func DefaultBalancerConfig() BalancerConfig {
	return BalancerConfig{Delta: 0.5, MinTransfer: 1, Lease: DefaultLease}
}

// TransferOrder is the LB's instruction ⟨source, destination, #jobs⟩.
type TransferOrder struct {
	Src, Dst, NJobs int
}

// Broadcast as an Outbound.To value addresses every current member.
const Broadcast = -1

// Outbound is a message the load balancer wants delivered; the owning
// fabric (sim or TCP server) dispatches it.
// Dispatch order must be preserved per destination: acknowledgment
// relays must arrive before a subsequent eviction notice.
type Outbound struct {
	To  int // member id, or Broadcast
	Msg Message
}

// Member is the load balancer's view of one cluster worker.
type Member struct {
	ID    int
	Epoch uint64
	Addr  string // transport hint (TCP peer job-transfer address)
	// Spec is the strategy spec the member runs (SpecIdx its portfolio
	// slot): the one assigned at join until a status reports the spec, and
	// the reported one from then on. SpecIdx is -1 for a spec that is no
	// slot's, and always without a portfolio.
	Spec    string
	SpecIdx int
	// Reported is set once the first status arrives; unreported members
	// neither balance nor count toward quiescence.
	Reported bool
	// Last is the most recent accepted status (used for balancing and
	// quiescence). LastFull is the most recent status that carried the
	// frontier snapshot; it becomes the member's accounting record if the
	// member departs — workers send a full status whenever their transfer
	// counters move AND re-send one after any LB stream interruption (a
	// failed send or a reconnect, see Transport.LBGen), so a lost full
	// snapshot is replaced as soon as the stream resumes and only
	// discardable exploration progress can sit between LastFull and Last.
	Last     Status
	LastFull Status
	// Obs is the member's cumulative metrics as of LastFull, replaced by
	// each full status. If the member departs, these are its accounted
	// metrics — the same cut as its frontier.
	Obs obs.Snapshot
	// LastSeen is the lease renewal time.
	LastSeen time.Time
	// AckRelayed tracks, per source, the highest batch ack already
	// relayed on this member's behalf, so the cumulative acks workers
	// repeat in every status don't turn into repeated MsgJobsAck relays.
	AckRelayed map[int]uint64
}

// Record is the member's accounting record: the last frontier-bearing
// snapshot (everything after it is re-explored by whoever inherits the
// frontier), falling back to the latest status if no full snapshot ever
// arrived.
func (m *Member) Record() Status {
	if m.LastFull.Frontier != nil {
		return m.LastFull
	}
	return m.Last
}

// custodyBatch is a job tree the LB holds in custody after reclaiming it
// from a departed member, until a survivor acknowledges it.
type custodyBatch struct {
	Jobs *JobTree
	N    int
	// ID is the batch's stable custody id: the departed member's epoch.
	// Epochs are unique across the run, a restart included, so the
	// receivers' permanent dedup set applies to every re-delivery.
	ID uint64
	// Rec is the departed member's accounting record (counters, accounted
	// metrics and its own ReseatAcks, no frontier), shipped with every
	// delivery and echoed back in ReseatAcks — where a restarted balancer
	// finds it.
	Rec *Status
	// Counted is set once the batch's job count has been added to the
	// send side of the quiescence reconciliation (exactly once, however
	// many times the batch is re-delivered).
	Counted bool
	Dst     int
	SentAt  time.Time
}

// LoadBalancer keeps per-worker status, the membership table, computes
// balancing decisions, and maintains the global coverage overlay. It
// never touches program states — encoding and transfer of work happen
// worker-to-worker, keeping the LB off the critical path (§3.1). The
// exception is crash recovery: the LB re-seats a departed member's
// last-reported frontier (already path-encoded) onto a survivor.
//
// All methods that need wall-clock time take it as a parameter so the
// deterministic simulation can drive the membership machinery with a
// synthetic clock.
type LoadBalancer struct {
	cfg BalancerConfig
	lbState

	// Everything below is local to this incarnation: a restart starts it
	// from zero.
	covDirty bool
	journal  *obs.Journal

	// relayedBatches/relayedBytes count job payload that transited the LB
	// (MsgShip fallback relays).
	relayedBatches int
	relayedBytes   uint64
	// earlyRounds counts the rounds LBServer.Serve ran because a report
	// made one due (roundDue) rather than on its tick.
	earlyRounds int

	// Enabled gates balancing (Fig. 13 disables it mid-run).
	Enabled bool

	// Termination detector (probe): probeSeq is the last wave opened,
	// probeOpen whether it still waits for echoes, cleanWaves how many
	// complete waves in a row found the cluster quiescent on the same job
	// sum waveSum (sent = received), probeWaves how many were opened in all.
	// A resumed balancer numbers its waves past the highest probe any
	// status echoes (Update), so no echo of a dead balancer's wave can
	// complete one of its own. holdOpen keeps the detector from opening one
	// while the fabric would not end the run anyway (LBServer.MinWorkers).
	probeSeq   uint64
	probeOpen  bool
	cleanWaves int
	waveSum    uint64
	probeWaves int
	holdOpen   bool
}

// The termination detector's metric and journal event (internal/obs
// holds the rest of the catalogue; these two are read nowhere else).
const (
	mLBProbeWaves = "c9_lb_probe_waves_total"
	evTerminated  = "terminated" // LB: two clean probe waves agreed (fields: wave, waves, sent, recv)
)

// What made the balancer grant units, as the unit-grant journal event's
// cause field says it.
const (
	grantOnReport = "report" // an idle member's status arrived
	grantOnTick   = "tick"   // the balance round found an idle member and unclaimed units
)

// lbState is the run as the balancer sees it: membership, custody,
// coverage, the unit table and the reconciliation sums. None of it is
// replicated, because all of it is a summary of what the workers hold; a
// restarted balancer (resume) starts with an empty lbState and rebuilds
// it from the workers' re-hellos and first full statuses.
type lbState struct {
	Members   map[int]*Member
	Evicted   map[int]uint64 // departed id → epoch, for stale-message rejection
	NextID    int
	NextEpoch uint64
	Cov       *coverage.BitVec

	// SpecYield is the per-slot cumulative coverage yield: the lines the
	// global overlay first saw from a worker running cfg.Portfolio[i].
	SpecYield []uint64

	// Custody of re-seated jobs: outstanding (delivered, unacked) batches
	// by stable custody id (the departed member's epoch), plus orphans
	// waiting for a survivor to exist. ReseatAcked remembers, per custody
	// id, the ReseatAck a survivor echoed — proof the batch was imported,
	// with the departed member's true accounting record attached.
	Reseats     map[uint64]*custodyBatch
	Orphans     []*custodyBatch
	ReseatAcked map[uint64]ReseatAck

	// Departed members: GoneObs is the Merge-fold of their accounted
	// metrics, the only record of their work; GoneSent and GoneRecv their
	// final job counters for the quiescence reconciliation, and
	// ReseatSent the jobs the LB itself delivered while re-seating.
	GoneObs    obs.Snapshot
	GoneSent   uint64
	GoneRecv   uint64
	ReseatSent uint64

	// A resumed balancer's re-hello window (see resume): open while
	// ResyncPending, closing at ResyncUntil (2×Lease after the first
	// re-hello) at the latest. Named is every member some re-hello's view
	// names and Departed every departure some re-hello lists (id → epoch);
	// what neither came back nor was acknowledged is Abandoned.
	ResyncPending bool
	ResyncUntil   time.Time
	Named         map[int]uint64
	Departed      map[int]uint64

	// Depth data plane: UnitOwner maps partition unit → owning member id
	// (-1 unclaimed; nil outside depth mode), UnitSentAt paces grant
	// re-delivery per member.
	UnitOwner  []int
	UnitSentAt map[int]time.Time

	// Fleet-view counters surfaced in FleetObs. TransfersIssued counts
	// ⟨src,dst,n⟩ orders, Evictions lease-expiry departures, Leaves
	// graceful goodbyes.
	Joins           int
	Evictions       int
	Leaves          int
	Readmits        int
	Abandoned       int
	TransfersIssued int
	ReseatsIssued   int
	UnitGrants      int
	UnitReclaims    int
}

// NewLoadBalancer builds an LB for coverage vectors of the given bit
// length.
func NewLoadBalancer(cfg BalancerConfig, covLen int) *LoadBalancer {
	// Every default is applied here and nowhere else, field by field (the
	// fabrics used to resolve some themselves, and disagreed on which
	// fields were caller state). Defaulting twice changes nothing.
	def := DefaultBalancerConfig()
	if cfg.Delta == 0 {
		cfg.Delta = def.Delta
	}
	if cfg.MinTransfer == 0 {
		cfg.MinTransfer = def.MinTransfer
	}
	if cfg.Lease <= 0 {
		cfg.Lease = def.Lease
	}
	if cfg.DataPlane == DataPlaneDepth {
		if cfg.PartitionDepth <= 0 {
			cfg.PartitionDepth = DefaultPartitionDepth
		}
		if cfg.PartitionUnits <= 0 {
			cfg.PartitionUnits = DefaultPartitionUnits
		}
	}
	lb := &LoadBalancer{
		cfg: cfg,
		lbState: lbState{
			Members:     map[int]*Member{},
			Evicted:     map[int]uint64{},
			Reseats:     map[uint64]*custodyBatch{},
			ReseatAcked: map[uint64]ReseatAck{},
			Cov:         coverage.New(covLen),
			SpecYield:   make([]uint64, len(cfg.Portfolio)),
		},
		journal: obs.NewJournal(0),
		Enabled: true,
	}
	lb.journal.Worker = LBFrom
	if cfg.DataPlane == DataPlaneDepth {
		lb.UnitOwner = make([]int, cfg.PartitionUnits)
		for i := range lb.UnitOwner {
			lb.UnitOwner[i] = -1
		}
		lb.UnitSentAt = map[int]time.Time{}
	}
	return lb
}

// Join admits a new member, assigning it a fresh id and epoch. The
// returned outbounds broadcast the updated membership view.
func (lb *LoadBalancer) Join(addr string, now time.Time) (*Member, []Outbound) {
	lb.NextID++
	lb.NextEpoch++
	return lb.seat(lb.NextID-1, lb.NextEpoch, addr, now, nil)
}

// seat enters (id, epoch) in the membership table with the portfolio
// slot it is due, journals the join (plus what the caller has to say
// about it) and returns the member and the broadcast of the new view.
func (lb *LoadBalancer) seat(id int, epoch uint64, addr string, now time.Time, note map[string]string) (*Member, []Outbound) {
	specIdx, spec := lb.assignSpec()
	m := &Member{ID: id, Epoch: epoch, Addr: addr, LastSeen: now,
		Spec: spec, SpecIdx: specIdx}
	lb.Members[id] = m
	lb.resetWaves()
	lb.Joins++
	fields := map[string]string{"epoch": strconv.FormatUint(epoch, 10), "spec": spec}
	maps.Copy(fields, note)
	lb.journal.AppendAt(now, obs.EvWorkerJoin, id, fields)
	return m, []Outbound{{To: Broadcast, Msg: Message{Kind: MsgMembers, Members: lb.memberView()}}}
}

// IsMember reports whether id is a current member with the given epoch.
func (lb *LoadBalancer) IsMember(id int, epoch uint64) bool {
	m := lb.Members[id]
	return m != nil && m.Epoch == epoch
}

// Touch renews a member's lease without a status (TCP reconnects).
func (lb *LoadBalancer) Touch(id int, now time.Time) {
	if m := lb.Members[id]; m != nil {
		m.LastSeen = now
	}
}

// Admit is the admission decision, made once for every fabric: it turns
// a worker's Hello into the HelloAck that answers it and the messages the
// cluster is owed. A malformed Hello is refused (checkHello). A Hello with
// no id joins — except inside a resumed balancer's re-hello window, which
// answers helloRetry: a join admitted before the run is rebuilt could take
// id 0 and start a second root. One naming a current (id, epoch) resumes
// that membership: the lease is renewed and the worker is sent the
// membership view — it slept through any broadcast sent while it was
// disconnected, and an idle worker blocks on its mailbox, so the view both
// catches it up and wakes it to re-report under the new stream generation.
// Inside the window one naming a member nobody lists as departed is
// readmitted as it is, and its view and departed set are taken in
// (noteRehello). Anyone else was evicted and its work re-seated: the ack
// says helloRefused and nothing changes. The ack also carries the seed
// role and what every worker of the run must agree on — data plane,
// partition shape; the fabric delivers it ahead of anything else it
// sends that worker.
func (lb *LoadBalancer) Admit(h Hello, now time.Time) (HelloAck, []Outbound) {
	var m *Member
	var outs []Outbound
	switch {
	case checkHello(h) != nil:
		return HelloAck{ID: helloRefused}, nil
	case h.ID < 0 && lb.ResyncPending:
		return HelloAck{ID: helloRetry}, nil
	case h.ID < 0:
		m, outs = lb.Join(h.Addr, now)
	case lb.IsMember(h.ID, h.Epoch):
		m = lb.Members[h.ID]
		lb.Touch(h.ID, now)
		if lb.ResyncPending {
			outs = lb.noteRehello(h, now)
		}
		outs = append(outs, Outbound{To: h.ID, Msg: Message{Kind: MsgMembers, Members: lb.memberView()}})
	default:
		if m, outs = lb.readmit(h, now); m == nil {
			return HelloAck{ID: helloRefused}, nil
		}
	}
	return HelloAck{
		ID: m.ID, Epoch: m.Epoch, Spec: m.Spec,
		// Id 0 is handed out once, to the run's first member, which starts
		// with the whole-tree job. Depth mode seeds every worker: each
		// re-derives the shared upper tree locally and counts only inside
		// its granted units.
		Seed:           m.ID == 0 || lb.cfg.DataPlane == DataPlaneDepth,
		DataPlane:      lb.cfg.DataPlane,
		PartitionDepth: lb.cfg.PartitionDepth,
		PartitionUnits: lb.cfg.PartitionUnits,
		Lease:          lb.cfg.Lease,
	}, outs
}

// memberView snapshots the membership table as id → epoch.
func (lb *LoadBalancer) memberView() map[int]uint64 {
	v := make(map[int]uint64, len(lb.Members))
	for id, m := range lb.Members {
		v[id] = m.Epoch
	}
	return v
}

// Update ingests a worker status (coverage is OR-merged into the global
// vector) and renews the member's lease. Statuses from non-members or
// stale epochs are discarded (ok=false) so a falsely evicted straggler
// cannot corrupt the accounting. The returned outbounds relay the
// status's job-batch acknowledgments to their sources.
func (lb *LoadBalancer) Update(st Status, now time.Time) (outs []Outbound, ok bool) {
	m := lb.Members[st.Worker]
	if m == nil || m.Epoch != st.Epoch {
		return nil, false
	}
	// A resumed balancer's waves start past every probe a dead one sent;
	// on any other, no status echoes a probe it did not send.
	lb.probeSeq = max(lb.probeSeq, st.Probe)
	// Data-plane journaling: peer-session events are derived from the
	// cumulative counters each status carries, compared against the
	// previous accepted record, so a re-sent status is a no-op.
	if st.PeerOpens > m.Last.PeerOpens {
		lb.journal.AppendAt(now, obs.EvPeerSessionOpen, st.Worker, map[string]string{
			"total": strconv.FormatUint(st.PeerOpens, 10),
		})
	}
	if st.PeerCloses > m.Last.PeerCloses {
		lb.journal.AppendAt(now, obs.EvPeerSessionClose, st.Worker, map[string]string{
			"total": strconv.FormatUint(st.PeerCloses, 10),
		})
	}
	if st.PeerFallbacks > m.Last.PeerFallbacks {
		lb.journal.AppendAt(now, obs.EvPeerFallback, st.Worker, map[string]string{
			"total": strconv.FormatUint(st.PeerFallbacks, 10),
		})
	}
	// Depth mode: reconcile unit claims. A resumed balancer starts with
	// no grants at all; for a unit nobody else owns, the claimant's word
	// is authoritative (grants are the only way a worker learns a unit id,
	// and reclaims only happen on departure, which also voids the claim
	// source).
	if lb.UnitOwner != nil {
		for _, u := range st.Units {
			if u >= 0 && u < len(lb.UnitOwner) && lb.UnitOwner[u] == -1 {
				lb.UnitOwner[u] = st.Worker
			}
		}
	}
	m.Last = st
	if st.Frontier != nil {
		m.LastFull = st
		if st.Obs != nil {
			m.Obs = *st.Obs
		}
	}
	m.Reported = true
	m.LastSeen = now
	// A worker runs one spec from join to departure; the member holds the
	// slot its status reports (a readmitted member was dealt one afresh,
	// and c9-worker -strategy may run a spec of its own).
	m.Spec, m.SpecIdx = st.Spec, lb.slotOf(st.Spec)
	if len(st.CovWords) > 0 {
		g := coverage.FromWords(st.CovWords, lb.Cov.Len()-1)
		if added := lb.Cov.Or(g); added > 0 {
			lb.covDirty = true
			// The lines this status was first to land in the global
			// overlay are its slot's yield.
			if m.SpecIdx >= 0 {
				lb.SpecYield[m.SpecIdx] += uint64(added)
			}
		}
	}
	// Relay peer-batch acks to their sources — only when the mark
	// advanced, since workers repeat their cumulative acks in every
	// status. Clear acknowledged LB custody the same way; both are
	// idempotent high-water marks.
	for _, ack := range st.Acks {
		if m.AckRelayed[ack.Src] >= ack.Seq {
			continue
		}
		if m.AckRelayed == nil {
			m.AckRelayed = map[int]uint64{}
		}
		m.AckRelayed[ack.Src] = ack.Seq
		if lb.Members[ack.Src] != nil {
			outs = append(outs, Outbound{To: ack.Src, Msg: Message{
				Kind: MsgJobsAck, From: st.Worker, Seq: ack.Seq,
			}})
		}
	}
	// Custody acks clear outstanding re-seat batches. Every ack is
	// remembered with its accounting record; inside a resumed balancer's
	// window it is the record of a departure the dead balancer made, and
	// adoptAck rebuilds that departure's accounting from it. Workers sort
	// their acks, keeping the journal deterministic.
	for _, ack := range st.ReseatAcks {
		if lb.ResyncPending {
			outs = append(outs, lb.adoptAck(ack, now)...)
		}
		if _, seen := lb.ReseatAcked[ack.ID]; !seen {
			lb.ReseatAcked[ack.ID] = ack
		}
		if b := lb.Reseats[ack.ID]; b != nil {
			lb.journal.AppendAt(now, obs.EvReseatReplayed, st.Worker, map[string]string{
				"id": strconv.FormatUint(ack.ID, 10), "jobs": strconv.Itoa(b.N),
			})
			delete(lb.Reseats, ack.ID)
		}
	}
	// Depth mode: an idle report is a request for the next range of
	// units, answered now and not on the next round.
	if lb.UnitOwner != nil && st.Done && st.Queue == 0 {
		outs = append(outs, lb.grantUnits(now, grantOnReport)...)
	}
	return outs, true
}

// Goodbye handles a graceful leave: the member's final status (sent just
// before the goodbye) becomes its accounting record and any remaining
// frontier is re-seated.
func (lb *LoadBalancer) Goodbye(id int, now time.Time) []Outbound {
	if lb.Members[id] == nil {
		return nil
	}
	lb.Leaves++
	lb.journal.AppendAt(now, obs.EvWorkerGoodbye, id, nil)
	return lb.depart(id, now)
}

// ExpireLeases evicts every member whose lease has lapsed and returns
// the resulting eviction notices and re-seat deliveries.
func (lb *LoadBalancer) ExpireLeases(now time.Time) []Outbound {
	var outs []Outbound
	if lb.ResyncPending {
		// Evictions are suspended until a resumed balancer's re-hello window
		// closes: members are still re-dialing, and their first statuses
		// carry the acks that say which departures are already settled.
		if !lb.resyncDue(now) {
			return nil
		}
		outs = lb.closeResync(now)
	}
	var expired []int
	for id, m := range lb.Members {
		if now.Sub(m.LastSeen) > lb.cfg.Lease {
			expired = append(expired, id)
		}
	}
	slices.Sort(expired)
	for _, id := range expired {
		lb.Evictions++
		m := lb.Members[id]
		// frontier is what depart has to re-seat: zero for a member that
		// died before its first report, and then no custody event follows.
		lb.journal.AppendAt(now, obs.EvWorkerEvict, id, map[string]string{
			"epoch":    strconv.FormatUint(m.Epoch, 10),
			"frontier": strconv.Itoa(m.Record().Frontier.Count()),
		})
		outs = append(outs, lb.depart(id, now)...)
	}
	return outs
}

// depart removes a member, folds its accounted metrics and final job
// counters into the departed side, reclaims custody of its last-reported
// frontier plus any unacknowledged LB batches addressed to it, and
// re-seats everything onto a survivor (or holds it as an orphan until one
// joins).
func (lb *LoadBalancer) depart(id int, now time.Time) []Outbound {
	m := lb.Members[id]
	outs := lb.drop(id, now)
	if lb.cfg.DataPlane == DataPlaneDepth {
		// Depth mode voids the departed member entirely: its counted
		// terminals all live inside its owned units, which drop returned to
		// the unclaimed pool, and whoever is granted them next re-derives
		// and recounts the whole unit from its own copy of the shared tree.
		// Folding the departed counters in as well would double count;
		// dropping them keeps the total exact.
		return outs
	}
	if acked, acknowledged := lb.ReseatAcked[m.Epoch]; acknowledged {
		// The dead balancer this one resumed from already departed this
		// member — a straggler readmitted before the ack arrived — and a
		// survivor imported its re-seated frontier: the record echoed with
		// the ack is the member's true cut. Substitute it and skip
		// re-seating; re-seating the member's own record would re-explore
		// work the survivor already did.
		lb.foldGone(acked.Rec, acked.Rec.Obs)
		lb.ReseatSent += uint64(acked.Jobs)
	} else {
		// The accounting record's job counters match the latest status
		// (workers send a full status on every transfer), and everything
		// explored after it is re-explored by whoever inherits the
		// frontier — counted exactly once either way. Every departure
		// ships its record in custody, with no jobs if it left no
		// frontier: the survivor's ReseatAck is where a restarted balancer
		// finds the record.
		var jobs *JobTree
		if m.Reported {
			rec := m.Record()
			lb.foldGone(rec, &m.Obs)
			jobs = rec.Frontier
		} else if sent, recv := lb.jobSums(); id == 0 && sent+recv == 0 {
			// The seed died before its first status and nothing was shipped
			// yet: it took the whole tree along. Re-seat the root job, the
			// empty path, which a worker that dropped its root imports as its
			// root candidate.
			jobs = BuildJobTree([][]uint8{{}})
		}
		if jobs == nil {
			jobs = &JobTree{}
		}
		lb.Orphans = append(lb.Orphans, &custodyBatch{
			Jobs: jobs, N: jobs.Count(), ID: m.Epoch, Rec: custodyRecord(m),
		})
	}
	for _, bid := range slices.Sorted(maps.Keys(lb.Reseats)) {
		if b := lb.Reseats[bid]; b.Dst == id {
			lb.Orphans = append(lb.Orphans, b)
			delete(lb.Reseats, bid)
		}
	}
	return append(outs, lb.placeOrphans(now)...)
}

// drop takes id out of the membership — fenced by its epoch, its depth
// units returned to the pool — and returns the eviction broadcast. What
// becomes of its accounting is the caller's business.
func (lb *LoadBalancer) drop(id int, now time.Time) []Outbound {
	m := lb.Members[id]
	delete(lb.Members, id)
	lb.Evicted[id] = m.Epoch
	lb.resetWaves()
	reclaimed := 0
	for u, owner := range lb.UnitOwner {
		if owner == id {
			lb.UnitOwner[u] = -1
			reclaimed++
		}
	}
	if reclaimed > 0 {
		lb.UnitReclaims += reclaimed
		lb.journal.AppendAt(now, obs.EvUnitReclaim, id, map[string]string{
			"units": strconv.Itoa(reclaimed),
		})
	}
	delete(lb.UnitSentAt, id)
	return []Outbound{{To: Broadcast, Msg: Message{
		Kind: MsgEvict, From: id, Epoch: m.Epoch, Members: lb.memberView(),
	}}}
}

// foldGone adds a departed member's accounted metrics, o, and the job
// counters of its accounting record to the departed side.
func (lb *LoadBalancer) foldGone(rec Status, o *obs.Snapshot) {
	if o != nil {
		lb.GoneObs.Merge(*o)
	}
	lb.GoneSent += rec.JobsSent
	lb.GoneRecv += rec.JobsRecv
}

// custodyRecord builds the accounting record shipped with a departed
// member's custody batch: its job counters at the accounting cut, its
// accounted metrics and the ReseatAcks it echoed — the records of the
// departures it had inherited, so a chain of departures stays on a live
// worker — bulk fields stripped.
func custodyRecord(m *Member) *Status {
	rec := m.Record()
	rec.Frontier = nil
	rec.CovWords = nil
	rec.Acks = nil
	o := m.Obs
	rec.Obs = &o
	return &rec
}

// placeOrphans delivers held custody batches to the least-loaded
// reported member. Each batch's job count enters the quiescence send
// side exactly once, no matter how often the batch is re-delivered.
func (lb *LoadBalancer) placeOrphans(now time.Time) []Outbound {
	if len(lb.Orphans) == 0 || lb.ResyncPending {
		// Inside a resumed balancer's re-hello window placement waits:
		// members are still re-reporting, and their ReseatAcks may prove a
		// pending orphan was already imported under the dead balancer —
		// placing it first could deliver the same work to a second
		// destination.
		return nil
	}
	dst, ok := lb.leastLoaded()
	if !ok {
		return nil
	}
	var outs []Outbound
	for _, b := range lb.Orphans {
		if acked, acknowledged := lb.ReseatAcked[b.ID]; acknowledged {
			// The dead balancer placed this batch too and a survivor
			// imported it: drop the duplicate, counting
			// the delivery once on the quiescence send side (the
			// survivor's JobsRecv already counts the receive side).
			if !b.Counted {
				lb.ReseatSent += uint64(acked.Jobs)
				b.Counted = true
			}
			lb.journal.AppendAt(now, obs.EvReseatReplayed, LBFrom, map[string]string{
				"id": strconv.FormatUint(b.ID, 10), "jobs": strconv.Itoa(acked.Jobs),
			})
			continue
		}
		b.Dst = dst
		b.SentAt = now
		if !b.Counted {
			lb.ReseatSent += uint64(b.N)
			b.Counted = true
		}
		lb.Reseats[b.ID] = b
		lb.ReseatsIssued++
		lb.journal.AppendAt(now, obs.EvCustodyReseat, dst, map[string]string{
			"id": strconv.FormatUint(b.ID, 10), "jobs": strconv.Itoa(b.N),
		})
		outs = append(outs, Outbound{To: dst, Msg: Message{
			Kind: MsgJobs, From: LBFrom, Seq: b.ID, Jobs: b.Jobs, Status: b.Rec,
		}})
	}
	lb.Orphans = nil
	return outs
}

// leastLoaded picks the reported member with the shortest queue
// (deterministic tie-break on id).
func (lb *LoadBalancer) leastLoaded() (int, bool) {
	best, bestQ, found := 0, 0, false
	for id, m := range lb.Members {
		if !m.Reported {
			continue
		}
		if !found || m.Last.Queue < bestQ || (m.Last.Queue == bestQ && id < best) {
			best, bestQ, found = id, m.Last.Queue, true
		}
	}
	return best, found
}

// Tick runs the periodic custody maintenance: orphan placement for
// batches that had no survivor at departure time, and re-delivery of
// custody batches whose acknowledgment is overdue (receivers suppress
// duplicates via the sequence high-water mark).
func (lb *LoadBalancer) Tick(now time.Time) []Outbound {
	outs := lb.placeOrphans(now)
	// Sorted so re-delivery order (and thus the downstream message
	// sequence) is identical across identically-seeded runs.
	for _, bid := range slices.Sorted(maps.Keys(lb.Reseats)) {
		b := lb.Reseats[bid]
		if lb.Members[b.Dst] == nil {
			continue // re-homed on that member's departure
		}
		if !b.SentAt.IsZero() && now.Sub(b.SentAt) > lb.cfg.Lease {
			b.SentAt = now
			outs = append(outs, Outbound{To: b.Dst, Msg: Message{
				Kind: MsgJobs, From: LBFrom, Seq: b.ID, Jobs: b.Jobs, Status: b.Rec,
			}})
		}
	}
	if lb.UnitOwner != nil {
		// Units reclaimed from a departed member have no report to ride
		// on; lost grants are re-sent from here too.
		outs = append(outs, lb.grantUnits(now, grantOnTick)...)
		outs = append(outs, lb.redeliverUnits(now)...)
	}
	return outs
}

// Ship relays a job batch on behalf of a worker whose peer link to Dst
// is unavailable. The payload re-emerges
// as an ordinary MsgJobs with the original (From, Epoch, Seq), so the
// receiver's gap rule, its ack high-water marks, and the sender's
// custody records are oblivious to which channel carried the batch. A
// batch in flight through a dead balancer is re-sent by its custodial
// owner after the resend timeout, exactly like a batch lost on a dead
// peer link.
func (lb *LoadBalancer) Ship(m Message) []Outbound {
	lb.relayedBatches++
	lb.relayedBytes += uint64(payloadBytes(m.Jobs))
	if lb.Members[m.Dst] == nil {
		// Destination already departed: drop. The sender re-imports the
		// batch when it processes the eviction notice.
		return nil
	}
	fwd := m
	fwd.Kind = MsgJobs
	return []Outbound{{To: m.Dst, Msg: fwd}}
}

// Control applies one worker→LB control message — a status (lease
// renewal), a graceful goodbye, or a batch to relay — and returns what
// the fabric must deliver in response. A goodbye from a (worker, epoch)
// that is no longer the current member is ignored, like a stale status.
func (lb *LoadBalancer) Control(m Message, now time.Time) []Outbound {
	switch m.Kind {
	case MsgStatus:
		if m.Status != nil {
			outs, ok := lb.Update(*m.Status, now)
			if ok {
				// The report may be the one that makes the cluster look
				// quiescent, completes a probe wave, or shows it was not.
				outs = append(outs, lb.probe(now, false)...)
			}
			return outs
		}
	case MsgGoodbye:
		if lb.IsMember(m.From, m.Epoch) {
			return lb.Goodbye(m.From, now)
		}
	case MsgShip:
		return lb.Ship(m)
	}
	return nil
}

// minDonorQueue is the shortest queue Balance's starved rule takes from.
const minDonorQueue = 2

// roundDue reports whether the status in m, asked before Control records
// it, gives Balance a starved/donor pair it did not have: the sender is
// idle for the first time since it last worked (first report, busy
// before, or JobsRecv grew), or its queue reaches minDonorQueue from
// below while another reported member sits at 0. A repeated idle report
// is neither. Never in depth mode, where unit grants answer the report.
func (lb *LoadBalancer) roundDue(m Message) bool {
	st := m.Status
	if m.Kind != MsgStatus || st == nil || lb.cfg.DataPlane == DataPlaneDepth ||
		!lb.IsMember(st.Worker, st.Epoch) {
		return false
	}
	last := lb.Members[st.Worker].Last
	if st.Done && st.Queue == 0 {
		return !last.Done || last.Queue > 0 || st.JobsRecv > last.JobsRecv
	}
	if st.Queue < minDonorQueue || last.Queue >= minDonorQueue {
		return false
	}
	for id, o := range lb.Members {
		if id != st.Worker && o.Reported && o.Last.Queue == 0 {
			return true
		}
	}
	return false
}

// Round is one balance round: evict members whose lease lapsed, run
// custody and portfolio maintenance, turn the balancing decision into
// MsgTransferReq orders addressed to their sources, broadcast the
// global coverage vector if it changed, and re-send a termination probe
// still waiting for echoes. Fabrics call it on their own period (TCP
// also when roundDue says a report made it due) and deliver the result
// in order. Transfer orders are never issued inside Control: there they
// spent one reported surplus twice in the sim, and many times over on
// every idle report (ARCHITECTURE.md "When the balancer acts").
func (lb *LoadBalancer) Round(now time.Time) []Outbound {
	outs := lb.ExpireLeases(now)
	outs = append(outs, lb.Tick(now)...)
	for _, ord := range lb.Balance() {
		outs = append(outs, Outbound{To: ord.Src, Msg: Message{
			Kind: MsgTransferReq, Dst: ord.Dst, NJobs: ord.NJobs,
		}})
	}
	if cov, dirty := lb.GlobalCoverage(); dirty {
		outs = append(outs, Outbound{To: Broadcast, Msg: Message{
			Kind: MsgCoverage, CovWords: cov.Words(),
		}})
	}
	return append(outs, lb.probe(now, true)...)
}

// grantUnits hands unclaimed depth-partition units to idle members, to
// each half its fair share of what is left (rounded up), so the ranges
// shrink as the pool drains — 16 units and 2 members go out as 4, 3, 3,
// 2, 1, 1, 1, 1 — and the member that finishes early comes back for
// more instead of waiting out a one-shot split. Runs from Update (cause
// grantOnReport) and Tick (grantOnTick) and iterates members in sorted id
// order, so identically-seeded runs grant identically. Grants are
// suspended inside a resumed balancer's re-hello window: members' unit
// claims (statuses) must be in first, or a unit the dead balancer granted
// could be granted twice.
func (lb *LoadBalancer) grantUnits(now time.Time, cause string) []Outbound {
	unclaimed := lb.ownedUnits(-1)
	if lb.ResyncPending || len(unclaimed) == 0 {
		return nil
	}
	ids := lb.memberIDs()
	var outs []Outbound
	for _, id := range ids {
		if len(unclaimed) == 0 {
			break
		}
		m := lb.Members[id]
		// Only idle members claim: a busy worker is still draining a
		// previous grant (or the shared upper tree). One whose report does
		// not yet claim what it owns went idle before its last grant
		// reached it — any mail wakes an idle worker into reporting again —
		// and is about to be busy; the same test holds quiescence off
		// until the grant is folded in.
		if !m.Reported || m.Last.Queue > 0 || !m.Last.Done || !lb.claimsUnits(m) {
			continue
		}
		chunk := (len(unclaimed) + 2*len(ids) - 1) / (2 * len(ids))
		granted := unclaimed[:chunk]
		unclaimed = unclaimed[chunk:]
		for _, u := range granted {
			lb.UnitOwner[u] = id
		}
		lb.UnitGrants += len(granted)
		lb.UnitSentAt[id] = now
		lb.journal.AppendAt(now, obs.EvUnitGrant, id, map[string]string{
			"units": strconv.Itoa(len(granted)),
			"first": strconv.Itoa(granted[0]),
			"cause": cause,
		})
		outs = append(outs, Outbound{To: id, Msg: Message{Kind: MsgUnits, Units: lb.ownedUnits(id)}})
	}
	return outs
}

// redeliverUnits re-sends possibly-lost grants: a member whose status
// does not yet claim every unit it owns may have lost the MsgUnits (dead
// conn). The full owned list is idempotent, so re-sending is always safe;
// the lease paces it to one retry per silence period.
func (lb *LoadBalancer) redeliverUnits(now time.Time) []Outbound {
	if lb.ResyncPending {
		return nil
	}
	var outs []Outbound
	for _, id := range lb.memberIDs() {
		owned := lb.ownedUnits(id)
		if len(owned) == 0 || lb.claimsUnits(lb.Members[id]) {
			continue
		}
		if sent, ok := lb.UnitSentAt[id]; ok && now.Sub(sent) <= lb.cfg.Lease {
			continue
		}
		lb.UnitSentAt[id] = now
		outs = append(outs, Outbound{To: id, Msg: Message{Kind: MsgUnits, Units: owned}})
	}
	return outs
}

// memberIDs returns the current member ids in ascending order.
func (lb *LoadBalancer) memberIDs() []int {
	return slices.Sorted(maps.Keys(lb.Members))
}

// claimsUnits reports whether m's last status claims every unit the
// table says it owns: false from a grant until the worker has folded it
// in and reported.
func (lb *LoadBalancer) claimsUnits(m *Member) bool {
	return len(m.Last.Units) == len(lb.ownedUnits(m.ID))
}

// ownedUnits returns the sorted unit ids owned by member id (-1: the
// unclaimed ones).
func (lb *LoadBalancer) ownedUnits(id int) []int {
	var out []int
	for u, owner := range lb.UnitOwner {
		if owner == id {
			out = append(out, u)
		}
	}
	return out
}

// GlobalCoverage returns the merged coverage vector and whether it
// changed since the last call.
func (lb *LoadBalancer) GlobalCoverage() (*coverage.BitVec, bool) {
	dirty := lb.covDirty
	lb.covDirty = false
	return lb.Cov, dirty
}

// Statuses returns the latest statuses of reported current members,
// ordered by worker id, each carrying the member's accounted metrics
// (Member.Obs) as its Obs. Departed members' work is in GoneObs only.
func (lb *LoadBalancer) Statuses() []Status {
	out := make([]Status, 0, len(lb.Members))
	for _, id := range lb.memberIDs() {
		if m := lb.Members[id]; m.Reported {
			st, o := m.Last, m.Obs
			st.Obs = &o
			out = append(out, st)
		}
	}
	return out
}

// fleetCounter sums one counter over the accounted metrics of current and
// departed members.
func (lb *LoadBalancer) fleetCounter(name string) uint64 {
	n := lb.GoneObs.Counter(name)
	for _, m := range lb.Members {
		n += m.Obs.Counter(name)
	}
	return n
}

// TotalPaths sums explored paths across current and departed members.
func (lb *LoadBalancer) TotalPaths() uint64 { return lb.fleetCounter(obs.MEnginePaths) }

// StatesTransferred sums jobs actually received from peer workers
// (JobTree.Count on receipt, Fig. 12's numerator) across current and
// departed members — not the requested order sizes, which overcount
// when a source has fewer jobs than reported.
func (lb *LoadBalancer) StatesTransferred() int {
	return int(lb.fleetCounter(obs.MClusterTransfersIn))
}

// Journal returns the LB's run-event journal (membership, custody and
// portfolio events).
func (lb *LoadBalancer) Journal() *obs.Journal { return lb.journal }

// FleetObs folds the fleet-wide metrics view: every live member's
// accounted metrics (as of its last full status), the merged metrics of
// departed members, and the LB's own membership, custody and portfolio
// counters under the c9_lb_* names. Merge is associative and
// commutative, so the fold order does not affect the result.
func (lb *LoadBalancer) FleetObs() obs.Snapshot {
	s := obs.Snapshot{}
	for _, m := range lb.Members {
		s.Merge(m.Obs)
	}
	s.Merge(lb.GoneObs)
	lb.PutLBMetrics(&s)
	return s
}

// PutLBMetrics writes the LB's own membership, custody and portfolio
// metrics into a snapshot — shared by FleetObs and by cluster.Run's
// final fold, which has fresher per-worker data than the LB's records.
func (lb *LoadBalancer) PutLBMetrics(s *obs.Snapshot) {
	s.PutGauge(obs.MLBMembers, int64(len(lb.Members)))
	s.PutCounter(obs.MLBJoins, uint64(lb.Joins))
	s.PutCounter(obs.MLBEvictions, uint64(lb.Evictions))
	s.PutCounter(obs.MLBLeaves, uint64(lb.Leaves))
	s.PutCounter(obs.MLBTransfersIssued, uint64(lb.TransfersIssued))
	s.PutCounter(obs.MLBStatesTransferred, uint64(lb.StatesTransferred()))
	s.PutCounter(obs.MLBReseats, uint64(lb.ReseatsIssued))
	s.PutCounter(obs.MLBReseatJobs, lb.ReseatSent)
	s.PutGauge(obs.MLBCoverageLines, int64(lb.Cov.Count()))
	// Data-plane metrics go in unconditionally: a zero
	// c9_lb_payload_bytes_total is the P2P mode's proof obligation (CI
	// asserts it), so the zero must be visible, not absent.
	s.PutCounter(obs.MLBPayloadBytes, lb.relayedBytes)
	s.PutCounter(obs.MLBRelayedBatches, uint64(lb.relayedBatches))
	s.PutCounter(obs.MLBEarlyRounds, uint64(lb.earlyRounds))
	s.PutCounter(obs.MLBUnitGrants, uint64(lb.UnitGrants))
	s.PutCounter(obs.MLBUnitReclaims, uint64(lb.UnitReclaims))
	s.PutGauge(obs.MLBUnitsUnclaimed, int64(len(lb.ownedUnits(-1))))
	s.PutCounter(mLBProbeWaves, uint64(lb.probeWaves))
	s.PutCounter(obs.MLBReadmits, uint64(lb.Readmits))
	s.PutCounter(obs.MLBAbandoned, uint64(lb.Abandoned))
	for i, y := range lb.SpecYield {
		s.PutCounter(obs.MLBSlotYield(i), y)
	}
	counts, _ := lb.specCounts()
	for i, c := range counts {
		s.PutGauge(obs.MLBSlotWorkers(i), int64(c))
	}
}

// Quiescent reports whether the members' last reports are consistent
// with global completion: at least one member, every member reported
// idle with an empty queue, no orphaned custody, and the send/receive
// reconciliation balanced across live members, departed members' final
// counters, and the LB's own re-seat deliveries. A batch in flight
// between two reports taken at the same instant keeps the counters
// unbalanced; reports taken at different instants can balance while a
// member holds work, so this is a necessary condition only — it opens
// the probe waves, and they decide (probe, Terminated).
func (lb *LoadBalancer) Quiescent() bool {
	if len(lb.Members) == 0 || len(lb.Orphans) > 0 {
		return false
	}
	for _, m := range lb.Members {
		if !m.Reported || m.Last.Queue > 0 {
			return false
		}
	}
	if lb.UnitOwner != nil {
		// Depth mode additionally requires the whole partition to be
		// claimed, every owner to acknowledge its grants (a granted-but-
		// undelivered unit holds termination open), and every member to
		// have finished its last fold-in.
		if len(lb.ownedUnits(-1)) > 0 {
			return false
		}
		for _, m := range lb.Members {
			if !m.Last.Done || !lb.claimsUnits(m) {
				return false
			}
		}
	}
	sent, recv := lb.jobSums()
	return sent == recv
}

// jobSums totals the two sides of the job reconciliation as last
// reported: jobs sent by live members, by departed ones and by the LB
// re-seating, against jobs received by live and departed members.
func (lb *LoadBalancer) jobSums() (sent, recv uint64) {
	for _, m := range lb.Members {
		sent += m.Last.JobsSent
		recv += m.Last.JobsRecv
	}
	return sent + lb.GoneSent + lb.ReseatSent, recv + lb.GoneRecv
}

// Terminated reports that the run is over: two consecutive complete
// probe waves found the cluster quiescent with the same job sums (see
// "Termination" in the package comment).
func (lb *LoadBalancer) Terminated() bool { return lb.cleanWaves >= 2 }

// resetWaves starts the termination count again and abandons an open
// wave: the membership changed, or a report showed work.
func (lb *LoadBalancer) resetWaves() {
	lb.cleanWaves, lb.probeOpen = 0, false
}

// probe advances the termination detector and returns the probe to
// broadcast, if any. It runs after every accepted status (Control) and
// on every balance round (Round, resend set): when Quiescent first holds
// it opens a wave; once every member's last status echoes the open wave
// it closes it — clean if the job sums equal the previous clean wave's,
// the first of a new count otherwise — and opens the next at once, so
// two waves cost two round trips, not two rounds; a wave still short of
// echoes is re-sent on a round and left alone on a report.
func (lb *LoadBalancer) probe(now time.Time, resend bool) []Outbound {
	if lb.Terminated() {
		return nil
	}
	if lb.holdOpen || lb.ResyncPending || !lb.Quiescent() {
		lb.resetWaves()
		return nil
	}
	if lb.probeOpen {
		for _, m := range lb.Members {
			if m.Last.Probe < lb.probeSeq {
				if resend {
					return []Outbound{lb.probeMsg()}
				}
				return nil
			}
		}
		sent, recv := lb.jobSums() // equal: Quiescent holds
		if lb.cleanWaves > 0 && sent == lb.waveSum {
			lb.cleanWaves++
		} else {
			lb.cleanWaves = 1
		}
		lb.waveSum, lb.probeOpen = sent, false
		if lb.Terminated() {
			lb.journal.AppendAt(now, evTerminated, LBFrom, map[string]string{
				"wave":  strconv.FormatUint(lb.probeSeq, 10),
				"waves": strconv.Itoa(lb.probeWaves),
				"sent":  strconv.FormatUint(sent, 10),
				"recv":  strconv.FormatUint(recv, 10),
			})
			return nil
		}
	}
	lb.probeSeq++
	lb.probeOpen = true
	lb.probeWaves++
	return []Outbound{lb.probeMsg()}
}

func (lb *LoadBalancer) probeMsg() Outbound {
	return Outbound{To: Broadcast, Msg: Message{Kind: MsgProbe, Seq: lb.probeSeq}}
}

// Balance computes transfer orders per the paper's algorithm: classify
// workers against mean ± δ·σ of queue lengths, sort, and pair
// underloaded with overloaded workers, requesting (lj − li)/2 jobs.
func (lb *LoadBalancer) Balance() []TransferOrder {
	if !lb.Enabled || lb.cfg.DataPlane == DataPlaneDepth {
		// Depth mode has no job shipping to balance: work distribution is
		// entirely unit grants.
		return nil
	}
	type wl struct {
		id int
		l  int
	}
	var ws []wl
	for id, m := range lb.Members {
		if !m.Reported {
			continue
		}
		ws = append(ws, wl{id, m.Last.Queue})
	}
	if len(ws) < 2 {
		return nil
	}
	// Sort before any arithmetic: float accumulation is not associative,
	// so σ's partial sums must be taken in one canonical order for the
	// same queues to classify identically whatever the map order.
	slices.SortFunc(ws, func(a, b wl) int { return cmp.Or(cmp.Compare(a.l, b.l), cmp.Compare(a.id, b.id)) })
	var sum float64
	for _, w := range ws {
		sum += float64(w.l)
	}
	n := float64(len(ws))
	mean := sum / n
	var varsum float64
	for _, w := range ws {
		d := float64(w.l) - mean
		varsum += d * d
	}
	sigma := math.Sqrt(varsum / n)

	under := func(l int) bool { return float64(l) < math.Max(mean-lb.cfg.Delta*sigma, 0) }
	over := func(l int) bool { return float64(l) > mean+lb.cfg.Delta*sigma }
	var orders []TransferOrder
	lo, hi := 0, len(ws)-1
	for lo < hi {
		// Starved workers (0 jobs) count as underloaded even when σ is
		// degenerate, as long as a peer has work to spare.
		starved := ws[lo].l == 0 && ws[hi].l >= minDonorQueue
		if !under(ws[lo].l) && !starved {
			break // receivers exhausted (sorted: inner ones are closer to the mean)
		}
		if !over(ws[hi].l) && !starved {
			hi-- // donor exhausted (possibly by an earlier order); try the next-heaviest
			continue
		}
		k := (ws[hi].l - ws[lo].l) / 2
		if k < lb.cfg.MinTransfer {
			break
		}
		orders = append(orders, TransferOrder{Src: ws[hi].id, Dst: ws[lo].id, NJobs: k})
		lb.TransfersIssued++
		// Water-filling: the donor keeps giving while it has surplus, so
		// several starved workers (e.g. late joiners) are all fed in one
		// round instead of the lowest id winning every tie.
		ws[hi].l -= k
		lo++
	}
	return orders
}

// resume makes a fresh balancer the restart of a dead one: it seeds
// nothing and opens the re-hello window, inside which it readmits (Admit)
// and evicts, grants, re-seats and probes nothing until the workers'
// first full statuses are in (resyncDue).
func (lb *LoadBalancer) resume() {
	lb.ResyncPending = true
	lb.Named = map[int]uint64{}
	lb.Departed = map[int]uint64{}
}

// maxHelloEntries bounds a re-hello's view and its departed set: they
// come off the network, and every entry costs the balancer work.
const maxHelloEntries = 4096

// checkHello rejects a Hello whose view or departed set no worker could
// have sent: a negative id, a zero epoch, one (id, epoch) both live and
// departed, or more than maxHelloEntries entries in either.
func checkHello(h Hello) error {
	if len(h.View) > maxHelloEntries || len(h.Departed) > maxHelloEntries {
		return fmt.Errorf("cluster: hello lists %d members and %d departures", len(h.View), len(h.Departed))
	}
	for _, set := range []map[int]uint64{h.View, h.Departed} {
		for id, e := range set {
			if id < 0 || e == 0 || (h.View[id] == e && h.Departed[id] == e) {
				return fmt.Errorf("cluster: hello lists member %d at epoch %d wrongly", id, e)
			}
		}
	}
	return nil
}

// readmit seats a re-dialing worker a resumed balancer has no record of,
// with the id and epoch it already runs under, after taking in its view
// and departed set — while the window is open, and unless some re-hello
// lists it as departed or a survivor acknowledged its custody. Returns nil
// when the worker may not return.
func (lb *LoadBalancer) readmit(h Hello, now time.Time) (*Member, []Outbound) {
	_, acked := lb.ReseatAcked[h.Epoch]
	if e, gone := lb.Evicted[h.ID]; !lb.ResyncPending || lb.Members[h.ID] != nil || acked || (gone && e >= h.Epoch) {
		return nil, nil
	}
	outs := lb.noteRehello(h, now)
	lb.Readmits++
	m, seated := lb.seat(h.ID, h.Epoch, h.Addr, now, map[string]string{"readmit": "1"})
	return m, append(outs, seated...)
}

// noteRehello takes in what a re-dialing worker knows: the members its
// view names (the window waits for them) and the ones it knows departed
// (never readmitted; in p2p each must be vouched for by a survivor's
// ReseatAck before the window closes). A member already readmitted that
// the worker knows departed is a straggler the dead balancer evicted: it
// is dropped, and its accounting is what the survivors' acks say. Every
// id and epoch seen moves NextID and NextEpoch past it.
func (lb *LoadBalancer) noteRehello(h Hello, now time.Time) []Outbound {
	if lb.ResyncUntil.IsZero() {
		lb.ResyncUntil = now.Add(2 * lb.cfg.Lease)
	}
	named := map[int]uint64{h.ID: h.Epoch}
	maps.Copy(named, h.View)
	for id, e := range named {
		lb.saw(id, e)
		lb.Named[id] = max(lb.Named[id], e)
	}
	var outs []Outbound
	for _, id := range slices.Sorted(maps.Keys(h.Departed)) {
		e := h.Departed[id]
		lb.saw(id, e)
		lb.Departed[id] = max(lb.Departed[id], e)
		if m := lb.Members[id]; m != nil && m.Epoch <= e {
			outs = append(outs, lb.drop(id, now)...)
		}
		lb.Evicted[id] = max(lb.Evicted[id], e)
	}
	return outs
}

func (lb *LoadBalancer) saw(id int, epoch uint64) {
	lb.NextID = max(lb.NextID, id+1)
	lb.NextEpoch = max(lb.NextEpoch, epoch)
}

// adoptAck rebuilds, inside a resumed balancer's window, the accounting of
// a departure the dead balancer made from the ReseatAck a survivor echoes
// for it — or departs a straggler readmitted under the acked epoch through
// depart's substitution — and then the departures nested in the record.
func (lb *LoadBalancer) adoptAck(ack ReseatAck, now time.Time) []Outbound {
	if _, seen := lb.ReseatAcked[ack.ID]; seen {
		return nil
	}
	for _, b := range lb.Orphans {
		if b.ID == ack.ID {
			return nil // departed here; placeOrphans settles the duplicate
		}
	}
	lb.ReseatAcked[ack.ID] = ack
	lb.saw(ack.Rec.Worker, ack.ID)
	var outs []Outbound
	for id, m := range lb.Members {
		if m.Epoch == ack.ID {
			outs = lb.depart(id, now)
		}
	}
	if outs == nil {
		lb.foldGone(ack.Rec, ack.Rec.Obs)
		lb.ReseatSent += uint64(ack.Jobs)
	}
	for _, inner := range ack.Rec.ReseatAcks {
		outs = append(outs, lb.adoptAck(inner, now)...)
	}
	return outs
}

// resyncDue reports whether a resumed balancer's window may close: every
// member a view named is back with a full status or known departed. From
// 2×Lease after the first re-hello it stops waiting for the ones not back,
// but not for one back and alive (a keepalive in one long solver step):
// only its full status holds its unit claims and custody acks.
func (lb *LoadBalancer) resyncDue(now time.Time) bool {
	if lb.ResyncUntil.IsZero() {
		return false
	}
	for id, e := range lb.Named {
		m := lb.Members[id]
		back := m != nil && m.Epoch == e
		switch {
		case lb.Evicted[id] >= e || back && m.LastFull.Frontier != nil:
		case back && now.Sub(m.LastSeen) <= lb.cfg.Lease, now.Before(lb.ResyncUntil):
			return false
		}
	}
	return true
}

// closeResync ends the re-hello window and abandons what no worker can
// vouch for: a member a view named that never came back with a full status
// (one back but silent for a lease is also evicted by the same round), and
// in p2p a departure no survivor acknowledged — its frontier and record
// died with the old balancer. Depth mode loses no paths this way: units
// nobody claims are granted again.
func (lb *LoadBalancer) closeResync(now time.Time) []Outbound {
	lb.ResyncPending = false
	var outs []Outbound
	stale := 0
	for _, id := range slices.Sorted(maps.Keys(lb.Named)) {
		e := lb.Named[id]
		if m := lb.Members[id]; lb.Evicted[id] >= e || m != nil && m.Epoch == e && m.LastFull.Frontier != nil {
			continue
		}
		stale++
		outs = append(outs, lb.abandon(id, e, "never-returned", now))
	}
	for _, id := range slices.Sorted(maps.Keys(lb.Departed)) {
		if _, acked := lb.ReseatAcked[lb.Departed[id]]; !acked && lb.cfg.DataPlane != DataPlaneDepth {
			outs = append(outs, lb.abandon(id, lb.Departed[id], "departure-unacked", now))
		}
	}
	lb.journal.AppendAt(now, obs.EvResync, LBFrom, map[string]string{
		"members":    strconv.Itoa(len(lb.Members)),
		"stale":      strconv.Itoa(stale),
		"next_id":    strconv.Itoa(lb.NextID),
		"next_epoch": strconv.FormatUint(lb.NextEpoch, 10),
	})
	return outs
}

// abandon records that member (id, epoch)'s work was lost with the dead
// balancer, and returns the notice to the survivors.
func (lb *LoadBalancer) abandon(id int, epoch uint64, cause string, now time.Time) Outbound {
	lb.Abandoned++
	lb.Evicted[id] = max(lb.Evicted[id], epoch)
	lb.resetWaves()
	lb.journal.AppendAt(now, obs.EvWorkAbandoned, id, map[string]string{
		"epoch": strconv.FormatUint(epoch, 10), "cause": cause,
	})
	return Outbound{To: Broadcast, Msg: Message{Kind: MsgAbandon, From: id, Epoch: epoch}}
}
