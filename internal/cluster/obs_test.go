package cluster

// Observability-plane tests at the cluster layer: the run-event journal
// must record the crash-recovery protocol as the exact sequence
// worker-crash → worker-evict → custody-reseat → reseat-replayed, be
// byte-for-byte reproducible across identically-seeded sim runs (every
// timestamp derives from the virtual tick clock), and the registry-based
// fleet fold must agree with the engines' own accounting.

import (
	"bytes"
	"testing"

	"cloud9/internal/engine"
	"cloud9/internal/obs"
)

func simCrashRun(t *testing.T) *SimResult {
	t.Helper()
	res, err := RunSim(SimConfig{
		Workers:    3,
		Entry:      "main",
		NewInterp:  mkInterp(t, clusterTarget),
		Engine:     engine.Config{MaxStateSteps: 1_000_000},
		Quantum:    200,
		Crashes:    []SimEvent{{Tick: 4, Worker: 1}},
		LeaseTicks: 3,
		MaxTicks:   10_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exhausted {
		t.Fatal("crashed sim run did not exhaust")
	}
	return res
}

// TestSimCrashJournalSequence kills a sim worker and asserts the LB
// journal tells the recovery story in protocol order.
func TestSimCrashJournalSequence(t *testing.T) {
	res := simCrashRun(t)

	// The victim's own journal records the crash (the sim's stand-in for
	// RunLoop's crash entry).
	victim := res.Workers[1]
	vevs := victim.Exp.Journal.All()
	if len(vevs) == 0 || vevs[len(vevs)-1].Type != obs.EvCrash {
		t.Fatalf("victim journal does not end with %s: %+v", obs.EvCrash, vevs)
	}

	// LB journal: three joins, then evict(worker 1) → custody-reseat →
	// reseat-replayed, strictly in that order.
	joins, evictIdx, reseatIdx, replayIdx := 0, -1, -1, -1
	for i, ev := range res.Journal {
		switch ev.Type {
		case obs.EvWorkerJoin:
			joins++
		case obs.EvWorkerEvict:
			if ev.Worker == 1 && evictIdx < 0 {
				evictIdx = i
			}
		case obs.EvCustodyReseat:
			if reseatIdx < 0 {
				reseatIdx = i
			}
		case obs.EvReseatReplayed:
			if replayIdx < 0 {
				replayIdx = i
			}
		}
	}
	if joins != 3 {
		t.Fatalf("journal records %d joins, want 3", joins)
	}
	if evictIdx < 0 || reseatIdx < 0 || replayIdx < 0 {
		t.Fatalf("journal missing recovery events: evict=%d reseat=%d replay=%d\n%+v",
			evictIdx, reseatIdx, replayIdx, res.Journal)
	}
	if !(evictIdx < reseatIdx && reseatIdx < replayIdx) {
		t.Fatalf("recovery out of order: evict@%d reseat@%d replay@%d",
			evictIdx, reseatIdx, replayIdx)
	}

	// The eviction says how many jobs it leaves to re-seat (what
	// ci/tcp_smoke.sh reads to know a re-seat is owed), and the re-seat
	// moves exactly that many.
	if f, jobs := res.Journal[evictIdx].Fields["frontier"], res.Journal[reseatIdx].Fields["jobs"]; f == "" || f == "0" || f != jobs {
		t.Fatalf("worker-evict frontier=%q, custody-reseat jobs=%q", f, jobs)
	}

	// Seq numbers are strictly monotonic — the journal is a total order.
	for i := 1; i < len(res.Journal); i++ {
		if res.Journal[i].Seq <= res.Journal[i-1].Seq {
			t.Fatalf("journal seq not monotonic at %d: %+v", i, res.Journal[i-1:i+1])
		}
	}
}

// TestSimJournalBitwiseReproducible runs the same crashed sim twice and
// requires the serialized journals — LB and every worker — to be
// byte-identical: tick-derived timestamps, deterministic iteration.
func TestSimJournalBitwiseReproducible(t *testing.T) {
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
	a := simCrashRun(t)
	b := simCrashRun(t)
	da, db := dump(a), dump(b)
	if !bytes.Equal(da, db) {
		t.Fatalf("journals differ across identically-seeded runs:\n--- a ---\n%s\n--- b ---\n%s", da, db)
	}
}

// TestSimFleetObsMatchesEngineStats checks the registry-based fleet fold
// against the engines' own field-by-field accounting, through a crash:
// the metrics plane must not invent or lose a single count.
func TestSimFleetObsMatchesEngineStats(t *testing.T) {
	res := simCrashRun(t)
	if got := res.Obs.Counter(obs.MEnginePaths); got != res.Final.Paths {
		t.Fatalf("fleet paths counter = %d, accounting snapshot = %d", got, res.Final.Paths)
	}
	if got := res.Obs.Counter(obs.MEngineErrors); got != res.Final.Errors {
		t.Fatalf("fleet errors counter = %d, accounting snapshot = %d", got, res.Final.Errors)
	}
	if got := res.Obs.Counter(obs.MEngineUsefulSteps); got != res.Final.UsefulSteps {
		t.Fatalf("fleet useful counter = %d, accounting snapshot = %d", got, res.Final.UsefulSteps)
	}
	if res.Obs.Counter(obs.MLBEvictions) != 1 || res.Obs.Counter(obs.MLBReseats) == 0 {
		t.Fatalf("fleet LB counters wrong: evictions=%d reseats=%d",
			res.Obs.Counter(obs.MLBEvictions), res.Obs.Counter(obs.MLBReseats))
	}
	if res.Obs.Counter(obs.MSolverQueries) == 0 {
		t.Fatal("fleet solver counters empty — solver source not wired")
	}
}

// TestRunResultObsMatchesStats runs cluster.Run undisturbed (every
// worker survives, so the fleet fold is exactly the sum of the live
// registries) and cross-checks Result.Obs against both the Final
// snapshot and the per-worker engine Stats fields. The 4096-path target
// keeps the run going long enough for the LB's 20ms balance rounds to
// move jobs.
func TestRunResultObsMatchesStats(t *testing.T) {
	res := runCluster(t, 2, hugeClusterTarget)
	if !res.Exhausted || res.Final.Paths != 4096 {
		t.Fatalf("exhausted=%v paths=%d", res.Exhausted, res.Final.Paths)
	}
	var paths, errs, useful, replay uint64
	for _, w := range res.Workers {
		paths += w.Exp.Stats.PathsExplored
		errs += w.Exp.Stats.Errors
		useful += w.Exp.Stats.UsefulSteps
		replay += w.Exp.Stats.ReplaySteps
	}
	if got := res.Obs.Counter(obs.MEnginePaths); got != paths || got != res.Final.Paths {
		t.Fatalf("obs paths = %d, stats sum = %d, final = %d", got, paths, res.Final.Paths)
	}
	if got := res.Obs.Counter(obs.MEngineErrors); got != errs || got != res.Final.Errors {
		t.Fatalf("obs errors = %d, stats sum = %d, final = %d", got, errs, res.Final.Errors)
	}
	if got := res.Obs.Counter(obs.MEngineUsefulSteps); got != useful {
		t.Fatalf("obs useful = %d, stats sum = %d", got, useful)
	}
	if got := res.Obs.Counter(obs.MEngineReplaySteps); got != replay {
		t.Fatalf("obs replay = %d, stats sum = %d", got, replay)
	}
	if got := res.Obs.Counter(obs.MLBJoins); got != 2 {
		t.Fatalf("obs joins = %d, want 2", got)
	}
	if res.Obs.Counter(obs.MClusterJobsSent) == 0 {
		t.Fatal("no jobs-sent counted — cluster transfer metrics not wired")
	}
}
