package cluster

// Control-plane replication: the LoadBalancer is a deterministic state
// machine over an explicit input sequence (joins, accepted statuses,
// goodbyes, lease expiries, custody ticks, balance rounds — every entry
// point threads `now` instead of reading a clock). What the machine
// holds is lbState (lb.go) and nothing else. A standby starts from a
// snapshot of that struct (snapshot.go) and from then on is shipped the
// *inputs*, not the state: the primary stamps each accepted input with
// its term and a sequence number and streams it — retaining nothing —
// and the standby replays the entries through its own LoadBalancer.
// Equal inputs ⇒ equal state, field for field (StateFingerprint, the
// canonical encoding of lbState, is the test oracle for exactly this
// claim).
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
	"encoding/json"
	"fmt"
	"strconv"
	"time"
)

// RepKind tags replication entries with the LB entry point they replay
// through.
type RepKind uint8

// Replication entry kinds.
const (
	RepJoin     RepKind = iota // Join(Addr)
	RepStatus                  // Update(*Status) — logged only when accepted
	RepGoodbye                 // Goodbye(From)
	RepExpire                  // ExpireLeases
	RepTick                    // Tick
	RepBalance                 // Balance (replayed for TransfersIssued parity)
	RepTouch                   // Touch(From) — TCP reconnect lease renewal
	RepReadmit                 // Readmit(From, Epoch, Addr) — post-promotion
	RepShutdown                // terminal marker: the primary exited cleanly
)

var repKindNames = [...]string{"join", "status", "goodbye", "expire",
	"tick", "balance", "touch", "readmit", "shutdown"}

func (k RepKind) String() string {
	if int(k) < len(repKindNames) {
		return repKindNames[k]
	}
	return "rep(" + strconv.Itoa(int(k)) + ")"
}

// RepEntry is one replication record: which entry point ran, with which
// arguments, at which (injected) time. Entries are stamped with a
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

// logRep stamps an input and hands it to the replication stream. No-op
// unless StartReplication enabled logging — which it never is on a
// replica, so Apply replaying an entry through the same entry points
// logs nothing. logRep runs *before* the mutation it logs: between two
// calls the state is exactly entries 1..RepSeq fully applied, which is
// what makes any moment outside an entry point a safe snapshot cut.
func (lb *LoadBalancer) logRep(e RepEntry) {
	if !lb.repEnabled {
		return
	}
	lb.RepSeq++
	e.Seq = lb.RepSeq
	e.Term = lb.Term
	if lb.onRep != nil {
		lb.onRep(e)
	}
}

// StartReplication turns on input logging. onRep (optional) observes
// each entry synchronously — the transport's hook for streaming entries
// to attached standbys. Nothing is retained: a standby that attaches
// later starts from SnapshotState.
func (lb *LoadBalancer) StartReplication(onRep func(RepEntry)) {
	lb.repEnabled = true
	lb.onRep = onRep
}

// Replica is a standby load balancer: a LoadBalancer fed exclusively by
// a state snapshot and the primary's entries after it. Promote turns it
// into the primary.
type Replica struct {
	lb *LoadBalancer
}

// NewReplica builds a standby for the given balancer configuration and
// coverage vector length — which must match the primary's (the TCP
// handshake ships both; the sim constructs both sides from one config).
func NewReplica(cfg BalancerConfig, covLen int) *Replica {
	return &Replica{lb: NewLoadBalancer(cfg, covLen)}
}

// LB exposes the underlying balancer for read-only inspection (journal,
// metrics, fingerprints). Mutating it directly voids the replica.
func (r *Replica) LB() *LoadBalancer { return r.lb }

// LastSeq returns the last applied entry's sequence number.
func (r *Replica) LastSeq() uint64 { return r.lb.RepSeq }

// Apply replays one replication entry. Entries must arrive in sequence
// order with no gaps; a gap means the stream lost data and the replica
// can no longer claim state equality, so it refuses.
func (r *Replica) Apply(e RepEntry) error {
	lb := r.lb
	if e.Seq != lb.RepSeq+1 {
		return fmt.Errorf("cluster: replica gap: applied %d, got %d", lb.RepSeq, e.Seq)
	}
	lb.RepSeq = e.Seq
	t := time.Unix(0, e.T)
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
// domain, Vigna), behind the TCP reconnect jitter: tiny state, solid
// diffusion, fully deterministic.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// StateFingerprint renders the balancer's replicated state — lbState,
// whole — as indented JSON: struct fields by name, map entries in key
// order. Two balancers fed the same input sequence must produce equal
// fingerprints — the property the replication tests pin — and because
// the encoding is generic, a field added to lbState is covered the moment
// it is declared (TestFingerprintCoversReplicatedState).
func (lb *LoadBalancer) StateFingerprint() string {
	out, err := json.MarshalIndent(&lb.lbState, "", " ")
	if err != nil {
		return "cluster: unencodable state: " + err.Error()
	}
	return string(out)
}
