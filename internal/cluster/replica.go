package cluster

// Control-plane replication: the LoadBalancer is a deterministic state
// machine over an explicit input sequence (joins, accepted statuses,
// goodbyes, lease expiries, custody ticks, balance rounds — every entry
// point threads `now` instead of reading a clock). Replication therefore
// ships the *inputs*, not the state: the primary appends each accepted
// input to an epoch- and sequence-stamped log, streams it to standbys,
// and a standby replays the entries through its own LoadBalancer. Equal
// inputs ⇒ equal state, byte for byte (StateFingerprint is the test
// oracle for exactly this claim).
//
// On primary loss the standby promotes itself (Replica.Promote): the
// term increments, the id/epoch counters stride past anything the lost
// primary could have handed out (so readmitted workers that joined
// during the replication gap are recognizable by epoch range), every
// lease restarts, and a resync window opens during which evictions and
// orphan placement are suspended until each member has re-reported a
// full frontier snapshot (workers do this unprompted: the LB stream
// generation bump — Transport.LBGen — forces a full status).
// The window closes early when everyone has re-reported, or at twice the
// lease, after which stragglers are evicted normally.
//
// The replication gap — inputs the primary accepted after the standby's
// last applied entry — is closed by the custody algebra, not by luck:
//   - a member's work after its replicated accounting cut is discarded
//     and re-explored by whoever inherits the frontier at that cut, the
//     same rule ordinary evictions rely on;
//   - custody batches carry a stable id (the departed member's epoch),
//     so a survivor that already imported a batch the promoted LB
//     re-delivers — possibly to a different destination — is caught by
//     the receivers' permanent dedup set;
//   - survivors echo, in every status, a ReseatAck for each batch they
//     imported, carrying the departed member's accounting record; a
//     promoted LB that missed the departure entirely substitutes that
//     record (the true cut) and skips re-seating, closing the one case
//     where the stale cut would re-explore work a survivor already did.
// The resync window orders these repairs before any post-promotion
// eviction can act on stale state.

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"strings"
	"time"

	"cloud9/internal/obs"
)

// RepKind tags replication-log entries with the LB entry point they
// replay through.
type RepKind uint8

// Replication-log entry kinds.
const (
	RepJoin     RepKind = iota // Join(Addr)
	RepStatus                  // Update(*Status) — logged only when accepted
	RepGoodbye                 // Goodbye(From)
	RepExpire                  // ExpireLeases
	RepTick                    // Tick
	RepBalance                 // Balance (replayed for TransfersIssued parity)
	RepTouch                   // Touch(From) — TCP reconnect lease renewal
	RepReadmit                 // Readmit(From, Epoch, Addr) — post-promotion
	RepPromote                 // promote() — a standby took over
	RepShutdown                // terminal marker: the primary exited cleanly
)

var repKindNames = [...]string{"join", "status", "goodbye", "expire",
	"tick", "balance", "touch", "readmit", "promote", "shutdown"}

func (k RepKind) String() string {
	if int(k) < len(repKindNames) {
		return repKindNames[k]
	}
	return "rep(" + strconv.Itoa(int(k)) + ")"
}

// RepEntry is one replication-log record: which entry point ran, with
// which arguments, at which (injected) time. Entries are stamped with a
// contiguous sequence and the primary's term, so a standby detects both
// gaps and stale primaries.
type RepEntry struct {
	Seq   uint64
	Term  uint64
	T     int64 // the entry point's `now`, unix nanoseconds
	Kind  RepKind
	From  int    // member id (RepGoodbye, RepTouch, RepReadmit)
	Epoch uint64 // RepReadmit: the epoch the lost primary issued
	Addr  string // RepJoin, RepReadmit
	// Status is the accepted status for RepStatus entries. Treated as
	// immutable once logged (the TCP transport deep-copies via gob; the
	// sim shares the pointer read-only).
	Status *Status
}

// logRep appends an input to the replication log. No-op unless
// StartReplication enabled logging, and suppressed during replay (the
// replica appends the origin's entries verbatim instead, preserving
// their seq/term stamps for chained standbys).
func (lb *LoadBalancer) logRep(e RepEntry) {
	if !lb.repEnabled || lb.replaying {
		return
	}
	// logRep runs *before* the mutation it logs, so right here the
	// balancer's state is exactly entries 1..repSeq fully applied — the
	// one safe point to snapshot for log compaction.
	lb.maybeCompactRep()
	lb.repSeq++
	e.Seq = lb.repSeq
	e.Term = lb.term
	lb.repLog = append(lb.repLog, e)
	if lb.onRep != nil {
		lb.onRep(e)
	}
}

// StartReplication turns on input logging. onRep (optional) observes
// each appended entry synchronously — the transport's hook for streaming
// entries to attached standbys. The retained log is bounded: once it
// reaches repCompactAt entries it is compacted behind a state snapshot
// (see maybeCompactRep), and a standby attaching from before the
// compaction point bootstraps from the snapshot instead of entry 1.
func (lb *LoadBalancer) StartReplication(onRep func(RepEntry)) {
	lb.repEnabled = true
	lb.onRep = onRep
}

// Term returns the LB's current primary incarnation (1 for the original
// primary, +1 per promotion folded into this history).
func (lb *LoadBalancer) Term() uint64 { return lb.term }

// RepSeq returns the sequence number of the last logged (or applied)
// replication entry.
func (lb *LoadBalancer) RepSeq() uint64 { return lb.repSeq }

// RepLogFrom returns a copy of the retained log entries with Seq > after
// (the catch-up stream for a late-attaching standby).
func (lb *LoadBalancer) RepLogFrom(after uint64) []RepEntry {
	i := sort.Search(len(lb.repLog), func(i int) bool { return lb.repLog[i].Seq > after })
	return append([]RepEntry(nil), lb.repLog[i:]...)
}

// Replica is a standby load balancer: a LoadBalancer fed exclusively by
// replaying the primary's replication log. Promote turns it into the
// primary.
type Replica struct {
	lb *LoadBalancer
}

// NewReplica builds a standby for the given balancer configuration and
// coverage vector length — which must match the primary's (the TCP
// handshake ships both; the sim constructs both sides from one config).
func NewReplica(cfg BalancerConfig, covLen int) *Replica {
	lb := NewLoadBalancer(cfg, covLen)
	// Keep the applied log: a promoted replica is a primary in every
	// respect, including serving its own standbys from entry 1.
	lb.repEnabled = true
	return &Replica{lb: lb}
}

// LB exposes the underlying balancer for read-only inspection (journal,
// metrics, fingerprints). Mutating it directly voids the replica.
func (r *Replica) LB() *LoadBalancer { return r.lb }

// LastSeq returns the last applied entry's sequence number.
func (r *Replica) LastSeq() uint64 { return r.lb.repSeq }

// Apply replays one replication entry. Entries must arrive in sequence
// order with no gaps; a gap means the stream lost data and the replica
// can no longer claim state equality, so it refuses.
func (r *Replica) Apply(e RepEntry) error {
	lb := r.lb
	if e.Seq != lb.repSeq+1 {
		return fmt.Errorf("cluster: replica gap: applied %d, got %d", lb.repSeq, e.Seq)
	}
	// Same invariant as logRep: before this entry touches anything, state
	// equals entries 1..repSeq applied — safe to compact here.
	lb.maybeCompactRep()
	lb.repSeq = e.Seq
	if lb.repEnabled {
		lb.repLog = append(lb.repLog, e)
	}
	t := time.Unix(0, e.T)
	lb.replaying = true
	defer func() { lb.replaying = false }()
	switch e.Kind {
	case RepJoin:
		lb.Join(e.Addr, t)
	case RepStatus:
		if e.Status != nil {
			lb.Update(*e.Status, t)
		}
	case RepGoodbye:
		lb.Goodbye(e.From, t)
	case RepExpire:
		lb.ExpireLeases(t)
	case RepTick:
		lb.Tick(t)
	case RepBalance:
		lb.Balance()
	case RepTouch:
		lb.Touch(e.From, t)
	case RepReadmit:
		lb.Readmit(e.From, e.Epoch, e.Addr, t)
	case RepPromote:
		lb.promote(t)
	case RepShutdown:
		// Terminal marker only: the primary exited cleanly, no takeover.
	}
	return nil
}

// Promote turns the replica into the primary (term bump, epoch stride,
// lease restart, resync window — see lb.promote) and returns the now-
// authoritative LoadBalancer. The replica must not Apply afterwards.
func (r *Replica) Promote(now time.Time) *LoadBalancer {
	r.lb.promote(now)
	return r.lb
}

// splitmix64 is the standard 64-bit finalizer-based PRNG step (public
// domain, Vigna). Shared by the learner's perturbation stream and the
// TCP reconnect jitter: tiny state, solid diffusion, fully deterministic.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// StateFingerprint renders every replicated field of the balancer into
// one canonical string: members (sorted), custody, quiescence counters,
// coverage, portfolio/bandit/learner state, and the membership counters.
// Two balancers fed the same input sequence must produce equal
// fingerprints — the property the replication tests pin.
func (lb *LoadBalancer) StateFingerprint() string {
	var b strings.Builder
	fmt.Fprintf(&b, "term=%d seq=%d nextID=%d nextEpoch=%d\n",
		lb.term, lb.repSeq, lb.nextID, lb.nextEpoch)
	fmt.Fprintf(&b, "counters joins=%d evict=%d leave=%d readmit=%d promo=%d xfers=%d reseats=%d reweights=%d rebalances=%d\n",
		lb.joins, lb.Evictions, lb.Leaves, lb.readmits, lb.promotions,
		lb.TransfersIssued, lb.reseatsIssued, lb.reweights, lb.rebalances)
	fmt.Fprintf(&b, "quiesce goneSent=%d goneRecv=%d reseatSent=%d\n",
		lb.goneSent, lb.goneRecv, lb.reseatSent)
	fmt.Fprintf(&b, "cov n=%d hash=%x\n", lb.cov.Count(), hashWords(lb.cov.Words()))
	fmt.Fprintf(&b, "resync pending=%v until=%d readmit=(%d,%d]\n",
		lb.resyncPending, lb.resyncUntil.UnixNano(), lb.readmitLo, lb.readmitHi)
	if lb.unitOwner != nil {
		fmt.Fprintf(&b, "units owner=%v grants=%d reclaims=%d\n",
			lb.unitOwner, lb.unitGrants, lb.unitReclaims)
		sentIDs := make([]int, 0, len(lb.unitSentAt))
		for id := range lb.unitSentAt {
			sentIDs = append(sentIDs, id)
		}
		sort.Ints(sentIDs)
		for _, id := range sentIDs {
			fmt.Fprintf(&b, "unitSent %d=%d\n", id, lb.unitSentAt[id].UnixNano())
		}
	}

	ids := make([]int, 0, len(lb.members))
	for id := range lb.members {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		m := lb.members[id]
		fmt.Fprintf(&b, "member %d epoch=%d addr=%q spec=%q slot=%d pinned=%v yield=%d reported=%v resynced=%v seen=%d\n",
			m.ID, m.Epoch, m.Addr, m.Spec, m.SpecIdx, m.Pinned, m.Yield,
			m.Reported, m.resynced, m.LastSeen.UnixNano())
		fpStatus(&b, "  last", m.Last)
		fpStatus(&b, "  full", m.LastFull)
		fpObs(&b, "  obs", m.Obs)
		relayed := make([]int, 0, len(m.ackRelayed))
		for src := range m.ackRelayed {
			relayed = append(relayed, src)
		}
		sort.Ints(relayed)
		for _, src := range relayed {
			fmt.Fprintf(&b, "  relayed %d<=%d\n", src, m.ackRelayed[src])
		}
	}

	evicted := make([]int, 0, len(lb.evicted))
	for id := range lb.evicted {
		evicted = append(evicted, id)
	}
	sort.Ints(evicted)
	for _, id := range evicted {
		fmt.Fprintf(&b, "evicted %d epoch=%d\n", id, lb.evicted[id])
	}
	for _, st := range lb.gone {
		fpStatus(&b, "gone", st)
	}
	fpObs(&b, "goneObs", lb.goneObs)

	batchIDs := make([]uint64, 0, len(lb.reseats))
	for id := range lb.reseats {
		batchIDs = append(batchIDs, id)
	}
	sort.Slice(batchIDs, func(i, j int) bool { return batchIDs[i] < batchIDs[j] })
	for _, id := range batchIDs {
		cb := lb.reseats[id]
		fmt.Fprintf(&b, "reseat %d n=%d dst=%d counted=%v sentAt=%d jt=%x\n",
			id, cb.n, cb.dst, cb.counted, cb.sentAt.UnixNano(), hashTree(cb.jt))
	}
	for _, cb := range lb.orphans {
		fmt.Fprintf(&b, "orphan %d n=%d counted=%v jt=%x\n", cb.id, cb.n, cb.counted, hashTree(cb.jt))
	}
	ackIDs := make([]uint64, 0, len(lb.reseatAcked))
	for id := range lb.reseatAcked {
		ackIDs = append(ackIDs, id)
	}
	sort.Slice(ackIDs, func(i, j int) bool { return ackIDs[i] < ackIDs[j] })
	for _, id := range ackIDs {
		a := lb.reseatAcked[id]
		fmt.Fprintf(&b, "acked %d jobs=%d worker=%d\n", id, a.Jobs, a.Rec.Worker)
	}

	fmt.Fprintf(&b, "portfolio %q ticks=%d\n", strings.Join(lb.cfg.Portfolio, ","), lb.reweightTicks)
	for i, y := range lb.specYield {
		fmt.Fprintf(&b, "yield %d=%d window=%d\n", i, y, lb.windowYield[i])
	}
	if lb.bandit != nil {
		for i := range lb.bandit.pulls {
			fmt.Fprintf(&b, "arm %d pulls=%d reward=%s\n", i, lb.bandit.pulls[i],
				strconv.FormatFloat(lb.bandit.reward[i], 'g', -1, 64))
		}
	}
	if lb.learner != nil {
		l := lb.learner
		fmt.Fprintf(&b, "learner rng=%d calls=%d adoptions=%d slots=%v\n",
			l.rng, l.calls, l.Adoptions, l.slots)
		slots := make([]int, 0, len(l.vecs))
		for i := range l.vecs {
			slots = append(slots, i)
		}
		sort.Ints(slots)
		for _, i := range slots {
			fmt.Fprintf(&b, "vec %d=%s\n", i, l.vecs[i].String())
		}
	}
	return b.String()
}

// fpStatus renders the accounting-relevant fields of a status (frontier
// hashed, coverage hashed, acks expanded).
func fpStatus(b *strings.Builder, tag string, st Status) {
	fmt.Fprintf(b, "%s w=%d e=%d q=%d sent=%d recv=%d xin=%d paths=%d err=%d hang=%d tests=%d done=%v spec=%q pin=%v cov=%d/%x fr=%x popen=%d pclose=%d pfall=%d units=%v",
		tag, st.Worker, st.Epoch, st.Queue, st.JobsSent, st.JobsRecv,
		st.TransferredIn, st.Paths, st.Errors, st.Hangs, st.Tests, st.Done,
		st.Spec, st.SpecPinned, st.CovCount, hashWords(st.CovWords), hashTree(st.Frontier),
		st.PeerOpens, st.PeerCloses, st.PeerFallbacks, st.Units)
	for _, a := range st.Acks {
		fmt.Fprintf(b, " ack=%d:%d", a.Src, a.Seq)
	}
	for _, a := range st.ReseatAcks {
		fmt.Fprintf(b, " rack=%d:%d", a.ID, a.Jobs)
	}
	b.WriteByte('\n')
}

// fpObs renders a metrics snapshot canonically (sorted names).
func fpObs(b *strings.Builder, tag string, s obs.Snapshot) {
	fmt.Fprintf(b, "%s", tag)
	for _, name := range s.Names() {
		if v, ok := s.Counters[name]; ok {
			fmt.Fprintf(b, " %s=%d", name, v)
		}
		if v, ok := s.Gauges[name]; ok {
			fmt.Fprintf(b, " %s~%d", name, v)
		}
		if h, ok := s.Hists[name]; ok {
			fmt.Fprintf(b, " %s#%d/%d", name, h.Count(), h.Sum)
		}
	}
	b.WriteByte('\n')
}

// hashWords hashes a coverage word vector (FNV-1a).
func hashWords(words []uint64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, w := range words {
		for i := range buf {
			buf[i] = byte(w >> (8 * i))
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}

// hashTree hashes a job tree by its canonical path expansion.
func hashTree(jt *JobTree) uint64 {
	h := fnv.New64a()
	if jt == nil {
		return h.Sum64()
	}
	for _, p := range jt.Paths() {
		h.Write(p)
		h.Write([]byte{0xff})
	}
	return h.Sum64()
}
