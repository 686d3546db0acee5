package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// Event is one structured run-event. T is unix nanoseconds; under the
// deterministic sim the injected clock derives it from the virtual tick,
// so journals from identically-seeded runs are byte-identical. Fields is
// small string metadata (epoch, sequence numbers, specs); encoding/json
// sorts map keys, keeping the JSONL form deterministic.
type Event struct {
	Seq    uint64            `json:"seq"`
	T      int64             `json:"t"`
	Type   string            `json:"type"`
	Worker int               `json:"worker"`
	Fields map[string]string `json:"fields,omitempty"`
}

// Journal is a bounded ring of run-events. Appends are cheap (one lock,
// no allocation beyond the fields map the caller builds) and drop the
// oldest event once capacity is reached.
type Journal struct {
	// Now supplies event timestamps; defaults to time.Now. The sim
	// replaces it with a virtual tick clock for determinism.
	Now func() time.Time
	// Worker is the default worker id stamped by Append; layers that
	// journal about other workers (the LB) pass explicit ids via
	// AppendFor/AppendAt.
	Worker int

	mu    sync.Mutex
	buf   []Event
	cap   int
	start int
	seq   uint64
}

// NewJournal returns a journal holding at most capacity events.
func NewJournal(capacity int) *Journal {
	if capacity <= 0 {
		capacity = 1024
	}
	return &Journal{cap: capacity, buf: make([]Event, 0, capacity)}
}

// Append records an event stamped with the journal's clock and default
// worker id.
func (j *Journal) Append(typ string, fields map[string]string) {
	j.AppendFor(typ, j.Worker, fields)
}

// AppendFor records an event about a specific worker, stamped with the
// journal's clock.
func (j *Journal) AppendFor(typ string, worker int, fields map[string]string) {
	now := time.Now
	if j.Now != nil {
		now = j.Now
	}
	j.AppendAt(now(), typ, worker, fields)
}

// AppendAt records an event with an explicit timestamp (layers that
// already thread `now` through, like the LB, use this directly).
func (j *Journal) AppendAt(t time.Time, typ string, worker int, fields map[string]string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.seq++
	ev := Event{Seq: j.seq, T: t.UnixNano(), Type: typ, Worker: worker, Fields: fields}
	if len(j.buf) < j.cap {
		j.buf = append(j.buf, ev)
		return
	}
	j.buf[j.start] = ev
	j.start = (j.start + 1) % j.cap
}

// Len returns the number of retained events.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.len()
}

func (j *Journal) len() int {
	if len(j.buf) < j.cap {
		return len(j.buf)
	}
	return j.cap
}

// Tail returns the most recent n events in append order (all if n <= 0
// or n exceeds retention).
func (j *Journal) Tail(n int) []Event {
	j.mu.Lock()
	defer j.mu.Unlock()
	total := j.len()
	if n <= 0 || n > total {
		n = total
	}
	out := make([]Event, 0, n)
	for i := total - n; i < total; i++ {
		out = append(out, j.buf[(j.start+i)%len(j.buf)])
	}
	return out
}

// All returns every retained event in append order.
func (j *Journal) All() []Event { return j.Tail(0) }

// WriteJSONL writes events one JSON object per line.
func WriteJSONL(w io.Writer, evs []Event) error {
	enc := json.NewEncoder(w)
	for _, ev := range evs {
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	return nil
}

// Journal event types emitted across the layers. Kept as constants so
// tests and docs reference one vocabulary.
const (
	EvWorkerJoin     = "worker-join"     // LB: member admitted (fields: epoch, spec)
	EvWorkerGoodbye  = "worker-goodbye"  // LB: graceful leave
	EvWorkerEvict    = "worker-evict"    // LB: lease lapsed, member evicted
	EvCustodyReseat  = "custody-reseat"  // LB: orphaned frontier re-seated onto a survivor
	EvReseatReplayed = "reseat-replayed" // LB: survivor acked the re-seat batch
	EvBatchGap       = "batch-gap"       // worker: out-of-order batch dropped
	EvBatchResend    = "batch-resend"    // worker: unacked batch re-sent
	EvBatchReimport  = "batch-reimport"  // worker: unacked jobs reimported after peer eviction
	EvReseatImport   = "reseat-import"   // worker: re-seated jobs imported from LB
	EvCrash          = "worker-crash"    // worker: simulated kill -9
	EvRetire         = "worker-retire"   // worker: graceful shutdown
	EvBudgetKill     = "budget-kill"     // engine: solver budget exhausted, state dropped

	// Balancer restart (c9-lb -resume).
	EvResync        = "resync"         // resumed LB: the re-hello window closed (fields: members, stale, next_id, next_epoch)
	EvWorkAbandoned = "work-abandoned" // resumed LB: a member's work was lost with the old balancer (fields: epoch, cause)

	// Data plane: peer sessions and depth partitioning.
	EvPeerSessionOpen  = "peer-session-open"  // LB: a worker opened a peer job-shipping session (fields: dst)
	EvPeerSessionClose = "peer-session-close" // LB: a peer session closed (link lost or peer evicted)
	EvPeerFallback     = "peer-fallback"      // LB: a batch fell back to LB-relayed shipping
	EvUnitGrant        = "unit-grant"         // LB: depth-partition units granted to an idle worker
	EvUnitReclaim      = "unit-reclaim"       // LB: a departed member's units returned to the unclaimed pool
	EvUnitAcquire      = "unit-acquire"       // worker: granted units folded into the local exploration
)
