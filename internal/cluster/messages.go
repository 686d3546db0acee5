// Package cluster implements Cloud9's parallelization fabric (§3): a
// load balancer plus shared-nothing workers exchanging path-encoded jobs
// directly with each other. The protocol runs on two fabrics: a
// deterministic lock-step simulation (RunSim, sim.go — the experiments
// and paper figures) and gob over TCP (tcp.go — cmd/c9-lb and
// cmd/c9-worker across real processes, or Run, which seats the same
// LBServer and DialLB workers in one process over loopback). What does
// not depend on the fabric is decided once and both call it:
// LoadBalancer.Admit answers a Hello, HelloAck.WorkerConfig describes the
// worker an answer admits, NewLoadBalancer resolves the configuration,
// LoadBalancer.Control applies each worker→LB message and
// LoadBalancer.Round is each balance round, LoadBalancer.Terminated ends
// the run, fleetFold folds it. A fabric owns delivery and timing: when it
// makes those calls and how the messages they return reach their
// destinations.
//
// # Membership protocol
//
// Cluster membership is dynamic and crash-tolerant. Workers join at any
// time — a Hello, sent over TCP or made up by the sim, answered by
// LoadBalancer.Admit — each receiving a cluster id and a monotonically
// increasing epoch; a worker whose LB stream dropped re-sends its Hello
// with both and resumes. Statuses double as lease renewals: a member
// that stays silent longer than the balancer's Lease is presumed crashed
// and evicted. Workers may also leave gracefully by sending a final
// status followed by MsgGoodbye.
//
// # Job custody and crash recovery
//
// Every status carries the worker's frontier — its candidate nodes
// encoded as a JobTree of path prefixes. When a member departs, the load
// balancer re-seats that last-reported frontier onto the least-loaded
// survivor via the ordinary MsgJobs replay path (From = LBFrom). All
// work a member did after its last accepted status is discarded — its
// final counters come from that same status — so the re-explored subtree
// is counted exactly once and the cluster-wide path count matches an
// undisturbed run.
//
// Worker-to-worker transfers use sender-side custody: the source keeps
// each exported batch, stamped with a per-sender sequence number, until
// the receiver's acknowledgment (piggybacked on its status and relayed
// by the LB as MsgJobsAck) arrives. If the destination is evicted first,
// the source re-imports the unacknowledged batches locally. Re-sent
// batches are de-duplicated by the receiver's per-sender high-water
// mark.
//
// # Data plane
//
// Job payload movement is decoupled from custody metadata. In the
// default p2p mode a Balance directive only names (src, dst, count);
// the batch itself flows worker→worker over a peer session (dial/accept
// with an epoch-fenced handshake over TCP; next-tick delivery in the
// sim). When a peer link cannot be established the sender falls back,
// for that batch, to LB-relayed shipping (MsgShip → LoadBalancer.Ship →
// MsgJobs); either way the receiver sees an ordinary MsgJobs with the
// original (From, Epoch, Seq), so the gap rule, ack high-water marks,
// and custody records are channel-agnostic.
// The depth mode removes payload shipping entirely: the LB grants
// deterministic depth-D work units (MsgUnits) that every worker can
// re-derive locally from the shared upper tree, and only the unit owner
// counts the terminals inside it.
//
// # Strategy portfolios
//
// When the balancer is configured with a portfolio (internal/search
// spec strings), each joining worker is handed a spec (in the HelloAck),
// statuses report the spec a worker currently runs, and the LB keeps the
// slots in equal shares, moving members when one leaves, is evicted or
// pins its own strategy (MsgStrategy → worker hot-swap). Swaps change
// only selection order — never the frontier or custody state — so
// path-count exactness is preserved.
//
// # Epochs
//
// Messages and statuses are stamped with the sender's epoch. The load
// balancer discards statuses whose (worker, epoch) pair is not the
// current member — a falsely evicted straggler cannot corrupt the
// accounting — and workers drop job batches from peers they know to be
// evicted (MsgEvict broadcasts carry the new membership view). A worker
// that sees its own eviction halts immediately.
//
// # Termination
//
// LoadBalancer.Quiescent is a necessary condition read off the members'
// last reports: everyone idle, nothing orphaned, and the sent and received
// job counters — live members', departed members' final ones, the
// balancer's own re-seat deliveries — in balance. It is not sufficient,
// because the reports were taken at different instants: A's idle report is
// old, B ships A a batch, A ships B one back, B drains and reports, and
// the sums balance while A still holds work. What decides is a pair of
// probe waves (LoadBalancer.probe). When the condition first holds the
// balancer broadcasts MsgProbe{Seq: n}; a worker answers at once with a
// status echoing the highest probe it has seen (Status.Probe), so every
// report of a complete wave was taken after the wave began. The run is over
// when two consecutive complete waves found the condition holding with the
// same sums (Mattern's four-counter rule: the counters only grow, so equal
// sums across two waves mean nothing was sent, received or in flight when
// the first one ended, and an idle worker only wakes on a receipt). A
// report that shows work, a join or a departure starts the count again; an
// unanswered probe is re-sent on every balance round, so a lost one costs a
// round and never wedges the run. Both fabrics end a run on this verdict
// (LoadBalancer.Terminated) and on nothing else; the sim, which sees the
// workers too, fails a run whose verdict a live worker contradicts.
//
// # Replication
//
// Everything the balancer must agree on with a standby is one struct,
// lbState (lb.go); the statuses and job trees defined in this file are
// part of it, held inside Member and custodyBatch records. A standby
// attaches by installing a snapshot of that struct and then replays the
// primary's inputs (replica.go, snapshot.go).
package cluster

import (
	"encoding/gob"
	"sort"
	"time"

	"cloud9/internal/obs"
)

// MsgKind tags worker mailbox messages.
type MsgKind uint8

// Message kinds.
const (
	MsgJobs        MsgKind = iota // job tree transferred from another worker (or LBFrom)
	MsgTransferReq                // LB asks this worker to send jobs to Dst
	MsgCoverage                   // LB broadcasts the global coverage vector
	MsgStop                       // shut down
	MsgStatus                     // worker → LB: periodic status snapshot (lease renewal)
	MsgHello                      // worker → LB: join or reconnect announcement
	MsgGoodbye                    // worker → LB: graceful leave (after a final status)
	MsgEvict                      // LB → workers: member departed; Members is the new view
	MsgJobsAck                    // LB → worker: Dst acknowledged job batches up to Seq
	MsgMembers                    // LB → workers: membership snapshot (id → epoch)
	MsgStrategy                   // LB → worker: run the strategy spec in Spec from now on
	MsgShip                       // worker → LB: relay a job batch to Dst (peer link unavailable)
	MsgUnits                      // LB → worker: depth-partition unit grant (Units is the full owned set)
	MsgProbe                      // LB → workers: termination probe wave Seq; answer with a status at once
)

// LBFrom is the From id used for job batches the load balancer re-seats
// itself after a member departs.
const LBFrom = -1

// Message is a worker-bound message. One struct (not an interface) so it
// gob-encodes directly for the TCP transport.
type Message struct {
	Kind MsgKind
	From int
	// Epoch identifies the sender's membership incarnation (MsgJobs,
	// MsgStatus) or the departed member's epoch (MsgEvict).
	Epoch uint64
	// Seq numbers job batches for custody acknowledgment (MsgJobs,
	// MsgJobsAck), per-sender monotonic; on a MsgProbe it is the wave's
	// number.
	Seq uint64
	// MsgJobs
	Jobs *JobTree
	// MsgTransferReq
	Dst   int
	NJobs int
	// MsgCoverage
	CovWords []uint64
	// MsgStatus: the worker's report. For LB-origin MsgJobs (custody
	// re-seats) this instead carries the departed member's accounting
	// record — counters plus accounted metrics, no frontier — which the
	// importer stores and echoes back in its ReseatAcks, so a promoted
	// standby that missed the departure can recover the true cut.
	Status *Status
	// MsgEvict / MsgMembers: current membership view (id → epoch).
	Members map[int]uint64
	// MsgStrategy: the internal/search strategy spec the worker should
	// hot-swap to (portfolio rebalancing on membership changes).
	Spec string
	// MsgUnits: the complete set of depth-partition units the receiver
	// owns (idempotent full list, so a lost or duplicated grant is
	// harmless).
	Units []int
}

// Hello registers a worker with the LB. Addr is the worker's own
// listening address for peer job transfers. ID < 0 requests a fresh
// join; otherwise the worker is re-dialing and asks to resume the
// membership identified by (ID, Epoch). LoadBalancer.Admit answers it.
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
// should explore with. ID < 0 means the handshake was refused (see the
// sentinels below). WorkerConfig turns an accepted one into the worker
// it describes.
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
	// Lease is the balancer's membership lease. A worker inside one long
	// solver search reports nothing; its transport keeps the membership
	// alive in the meantime (TCPWorkerTransport.keepalive), which a
	// killed or stopped process cannot.
	Lease time.Duration
	// Standby handshake only: the primary's effective balancer config
	// and coverage vector length, so the subscriber constructs a replica
	// that replays to byte-identical state.
	Cfg    *BalancerConfig
	CovLen int
}

// HelloAck.ID sentinels for refused handshakes.
const (
	helloRefused    = -1 // membership evicted (or a stale peer epoch); do not retry
	helloNotPrimary = -2 // standby, not primary; retry elsewhere/later
)

// JobAck acknowledges, per source worker, every job batch with sequence
// number ≤ Seq. Batch sequences are per (sender, receiver) pair and the
// receiver only advances its mark contiguously (a gap means a batch was
// lost in transit and must be re-sent first), so the high-water mark is
// exact and acks are idempotent.
type JobAck struct {
	Src int
	Seq uint64
}

// ReseatAck acknowledges one LB custody batch (a re-seated frontier).
// ID is the batch's stable custody id — the departed member's epoch, so
// it survives load-balancer failover — Jobs the number of jobs imported,
// and Rec the departed member's accounting record as shipped with the
// batch (counters and accounted metrics at the re-seat cut).
type ReseatAck struct {
	ID   uint64
	Jobs int
	Rec  Status
}

// Status is a worker's periodic report to the load balancer (§3.3):
// queue length (exploration jobs), cumulative work counters, the
// worker's coverage bit vector, and — for crash recovery — a consistent
// snapshot of its frontier as path prefixes. It also renews the worker's
// membership lease.
type Status struct {
	Worker int
	// Epoch is the membership incarnation this status belongs to; the LB
	// discards statuses from stale epochs.
	Epoch       uint64
	Queue       int    // candidate nodes (exploration jobs)
	JobsSent    uint64 // cumulative, for quiescence detection
	JobsRecv    uint64
	UsefulSteps uint64
	ReplaySteps uint64
	Paths       uint64
	Errors      uint64
	Hangs       uint64
	Tests       int
	CovWords    []uint64
	CovCount    int
	Done        bool // frontier empty and no pending imports
	// Probe echoes the highest MsgProbe sequence the worker had seen when
	// it took this snapshot: a status with Probe ≥ n was taken after wave
	// n began, which is what lets the balancer treat a wave's reports as
	// one cut (see "Termination" in the package comment).
	Probe uint64
	// Frontier is the worker's candidate set as a job tree, taken in the
	// same instant as the counters above. On eviction the LB re-seats it
	// onto a survivor; everything the worker did after this snapshot is
	// discarded, keeping cluster totals exact.
	Frontier *JobTree
	// TransferredIn counts jobs actually received from peer workers
	// (JobTree.Count on receipt) — the Fig. 12 numerator. Excludes LB
	// re-seats and local re-imports.
	TransferredIn uint64
	// Acks acknowledge received peer job batches (relayed by the LB to
	// each source as MsgJobsAck).
	Acks []JobAck
	// ReseatAcks lists every LB-origin custody batch this worker has
	// imported (a set, not a high-water mark: batch ids are global across
	// destinations, so gaps are normal and must not be skipped). Each ack
	// repeats in every status forever and carries the departed member's
	// accounting record, so an LB incarnation that missed the original
	// departure — a standby promoted across a replication gap — learns
	// both that the batch is already imported and the exact accounting
	// cut it was re-seated at.
	ReseatAcks []ReseatAck
	// Spec is the strategy spec the worker is currently running (its
	// assigned portfolio slot, or "" for the engine default); the LB
	// compares it against its assignment record and re-sends a lost
	// MsgStrategy when they disagree. SpecPinned marks an explicit
	// local override the LB must leave alone (and exclude from
	// portfolio allocation).
	Spec       string
	SpecPinned bool
	// Peer-session counters (cumulative, data-plane observability): the
	// LB journals peer-session-open/close/fallback events by comparing
	// them against its previous accepted record, which keeps the journal
	// identical under replication replay.
	PeerOpens     uint64
	PeerCloses    uint64
	PeerFallbacks uint64
	// Units is the sorted set of depth-partition units this worker owns
	// (depth data-plane mode only). A promoted standby reconciles its
	// replicated unit table against these claims, closing the window
	// where a grant was issued inside the replication gap.
	Units []int
	// Obs carries the worker's metrics, delta-encoded against the last
	// full status the LB accepted (nil on light statuses — metrics ride
	// the FrontierEvery cadence, same as the frontier). When ObsBase is
	// set the snapshot is cumulative instead: the worker could not prove
	// the LB still holds its previous baseline (failed send or stream
	// reconnect), so the LB replaces its record rather than applying a
	// delta. Replacing a cumulative snapshot is idempotent, which makes
	// the resync safe under arbitrary loss.
	Obs     *obs.Snapshot
	ObsBase bool
}

// JobTree aggregates path-encoded jobs into a trie so that shared path
// prefixes are transferred once (§3.2: "jobs are not encoded separately,
// but aggregated into a job tree").
type JobTree struct {
	Leaf bool
	Kids map[uint8]*JobTree
}

// BuildJobTree aggregates paths into a trie.
func BuildJobTree(paths [][]uint8) *JobTree {
	root := &JobTree{}
	for _, p := range paths {
		cur := root
		for _, c := range p {
			if cur.Kids == nil {
				cur.Kids = map[uint8]*JobTree{}
			}
			next := cur.Kids[c]
			if next == nil {
				next = &JobTree{}
				cur.Kids[c] = next
			}
			cur = next
		}
		cur.Leaf = true
	}
	return root
}

// Paths flattens the trie back into explicit job paths (deterministic
// order).
func (jt *JobTree) Paths() [][]uint8 {
	var out [][]uint8
	var walk func(n *JobTree, prefix []uint8)
	walk = func(n *JobTree, prefix []uint8) {
		if n.Leaf {
			out = append(out, append([]uint8(nil), prefix...))
		}
		keys := make([]int, 0, len(n.Kids))
		for k := range n.Kids {
			keys = append(keys, int(k))
		}
		sort.Ints(keys)
		for _, k := range keys {
			walk(n.Kids[uint8(k)], append(prefix, uint8(k)))
		}
	}
	walk(jt, nil)
	return out
}

// payloadBytes sizes a job tree as it would travel on the wire (its gob
// encoding), so the p2p/relay byte accounting matches what the TCP
// fabric actually ships regardless of which fabric is running.
func payloadBytes(jt *JobTree) int {
	if jt == nil {
		return 0
	}
	var cw countWriter
	_ = gob.NewEncoder(&cw).Encode(jt)
	return int(cw)
}

// countWriter counts bytes written and discards them.
type countWriter int64

func (c *countWriter) Write(p []byte) (int, error) {
	*c += countWriter(len(p))
	return len(p), nil
}

// Count returns the number of jobs (leaves) in the trie.
func (jt *JobTree) Count() int {
	if jt == nil {
		return 0
	}
	n := 0
	if jt.Leaf {
		n = 1
	}
	for _, k := range jt.Kids {
		n += k.Count()
	}
	return n
}
