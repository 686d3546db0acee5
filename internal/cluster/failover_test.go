package cluster

// Load-balancer failover tests: the acceptance bar for the replicated
// coordination plane is that kill -9 of the LB mid-run — with a standby
// tailing its replication log at a one-tick lag — yields exactly the
// same explored path count as an undisturbed run, that the promotion
// protocol (primary-lost → standby-promoted → epoch-bump → resync)
// appears in the journal in order, and that failover itself is
// bit-for-bit deterministic across identically-seeded runs.

import (
	"bytes"
	"testing"

	"cloud9/internal/engine"
	"cloud9/internal/obs"
)

func simFailoverRun(t *testing.T, crashLB *SimCrashLB, crashes []SimEvent) *SimResult {
	t.Helper()
	res, err := RunSim(SimConfig{
		Workers:    3,
		Entry:      "main",
		NewInterp:  mkInterp(t, clusterTarget),
		Engine:     engine.Config{MaxStateSteps: 1_000_000},
		Quantum:    200,
		CrashLB:    crashLB,
		Crashes:    crashes,
		LeaseTicks: 3,
		MaxTicks:   10_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// journalIdx returns the index of the first event of each requested type
// (-1 if absent).
func journalIdx(evs []obs.Event, types ...string) []int {
	out := make([]int, len(types))
	for i := range out {
		out[i] = -1
	}
	for i, ev := range evs {
		for j, typ := range types {
			if out[j] < 0 && ev.Type == typ {
				out[j] = i
			}
		}
	}
	return out
}

// TestSimLBFailoverExactPaths kills the LB at tick 5 — losing the last
// two ticks of replication entries with it — and requires the promoted
// standby to finish the run with the undisturbed totals.
func TestSimLBFailoverExactPaths(t *testing.T) {
	undisturbed := simFailoverRun(t, nil, nil)
	if !undisturbed.Exhausted || undisturbed.Final.Paths != 64 || undisturbed.Final.Errors != 1 {
		t.Fatalf("undisturbed: exhausted=%v paths=%d errors=%d",
			undisturbed.Exhausted, undisturbed.Final.Paths, undisturbed.Final.Errors)
	}

	res := simFailoverRun(t, &SimCrashLB{Tick: 5, PromoteTicks: 2}, nil)
	if !res.Exhausted {
		t.Fatal("failover run did not exhaust")
	}
	if res.Final.Paths != undisturbed.Final.Paths || res.Final.Errors != undisturbed.Final.Errors {
		t.Fatalf("failover totals diverge: paths=%d errors=%d, undisturbed paths=%d errors=%d",
			res.Final.Paths, res.Final.Errors, undisturbed.Final.Paths, undisturbed.Final.Errors)
	}
	if res.LB.Term != 2 || res.LB.Promotions != 1 {
		t.Fatalf("term=%d promotions=%d, want 2/1", res.LB.Term, res.LB.Promotions)
	}
	if res.Evictions != 0 {
		t.Fatalf("evictions = %d, want 0 (no worker died)", res.Evictions)
	}
	if res.LB.ResyncPending {
		t.Fatal("resync window still open at exhaustion")
	}

	// The journal — now the promoted standby's — tells the takeover story
	// in protocol order, and still records the original joins (replicated
	// before the crash).
	idx := journalIdx(res.Journal,
		obs.EvPrimaryLost, obs.EvStandbyPromote, obs.EvEpochBump, obs.EvResync)
	for i, at := range idx {
		if at < 0 {
			t.Fatalf("journal missing promotion event #%d: %+v", i, res.Journal)
		}
		if i > 0 && idx[i-1] >= at {
			t.Fatalf("promotion events out of order: %v", idx)
		}
	}
	joins := 0
	for _, ev := range res.Journal {
		if ev.Type == obs.EvWorkerJoin {
			joins++
		}
	}
	if joins != 3 {
		t.Fatalf("promoted journal records %d joins, want 3 replicated joins", joins)
	}

	// Fleet fold across the promotion: the re-handshaking workers resend
	// cumulative baselines; nothing may be double-counted.
	if got := res.Obs.Counter(obs.MEnginePaths); got != res.Final.Paths {
		t.Fatalf("fleet paths counter = %d, accounting snapshot = %d", got, res.Final.Paths)
	}
	if got := res.Obs.Counter(obs.MEngineUsefulSteps); got != res.Final.UsefulSteps {
		t.Fatalf("fleet useful counter = %d, accounting snapshot = %d", got, res.Final.UsefulSteps)
	}
	if res.Obs.Counter(obs.MLBPromotions) != 1 || res.Obs.Gauge(obs.MLBTerm) != 2 {
		t.Fatalf("promotion metrics wrong: promotions=%d term=%d",
			res.Obs.Counter(obs.MLBPromotions), res.Obs.Gauge(obs.MLBTerm))
	}
}

// TestSimLBFailoverDeterministic runs the same LB-kill twice and
// requires byte-identical journals and identical finals — crash
// recovery of the coordination plane itself is reproducible.
func TestSimLBFailoverDeterministic(t *testing.T) {
	dump := func(res *SimResult) []byte {
		var buf bytes.Buffer
		if err := obs.WriteJSONL(&buf, res.Journal); err != nil {
			t.Fatal(err)
		}
		for _, w := range res.Workers {
			if err := obs.WriteJSONL(&buf, w.Exp.Journal.All()); err != nil {
				t.Fatal(err)
			}
		}
		return buf.Bytes()
	}
	cl := &SimCrashLB{Tick: 5, PromoteTicks: 2}
	a := simFailoverRun(t, cl, nil)
	b := simFailoverRun(t, cl, nil)
	if !a.Exhausted || !b.Exhausted {
		t.Fatalf("exhausted: a=%v b=%v", a.Exhausted, b.Exhausted)
	}
	if a.Ticks != b.Ticks || a.Final.Paths != b.Final.Paths ||
		a.Final.UsefulSteps != b.Final.UsefulSteps ||
		a.Final.ReplaySteps != b.Final.ReplaySteps ||
		a.Final.TransfersIssued != b.Final.TransfersIssued {
		t.Fatalf("failover sim not deterministic:\n a=%+v (%d ticks)\n b=%+v (%d ticks)",
			a.Final, a.Ticks, b.Final, b.Ticks)
	}
	da, db := dump(a), dump(b)
	if !bytes.Equal(da, db) {
		t.Fatalf("failover journals differ across identically-seeded runs:\n--- a ---\n%s\n--- b ---\n%s", da, db)
	}
}

// TestSimLBFailoverWithWorkerCrash kills a worker at tick 4 and the LB
// at tick 5: the worker's final statuses died in the replication gap, so
// the promoted standby must evict it from the replicated lease state and
// re-seat its frontier at the replicated cut — totals still exact.
func TestSimLBFailoverWithWorkerCrash(t *testing.T) {
	res := simFailoverRun(t, &SimCrashLB{Tick: 5, PromoteTicks: 2},
		[]SimEvent{{Tick: 4, Worker: 1}})
	if !res.Exhausted {
		t.Fatal("run did not exhaust")
	}
	if res.Final.Paths != 64 || res.Final.Errors != 1 {
		t.Fatalf("paths=%d errors=%d, want 64/1", res.Final.Paths, res.Final.Errors)
	}
	if res.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", res.Evictions)
	}
	if res.LB.Term != 2 {
		t.Fatalf("term = %d, want 2", res.LB.Term)
	}
	// The eviction happened on the promoted standby: it must appear after
	// the promotion in the (single, promoted) journal.
	idx := journalIdx(res.Journal, obs.EvStandbyPromote, obs.EvWorkerEvict, obs.EvCustodyReseat)
	if idx[0] < 0 || idx[1] < 0 || idx[2] < 0 || !(idx[0] < idx[1] && idx[1] < idx[2]) {
		t.Fatalf("evict/reseat not ordered after promotion: %v\n%+v", idx, res.Journal)
	}
	// Registry fold vs engine accounting, through both failures at once.
	if got := res.Obs.Counter(obs.MEnginePaths); got != res.Final.Paths {
		t.Fatalf("fleet paths counter = %d, accounting snapshot = %d", got, res.Final.Paths)
	}
	if got := res.Obs.Counter(obs.MEngineErrors); got != res.Final.Errors {
		t.Fatalf("fleet errors counter = %d, accounting snapshot = %d", got, res.Final.Errors)
	}
}
