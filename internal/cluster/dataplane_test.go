package cluster

// Data-plane tests: the exactness bar for the decentralized data plane
// is that both modes — peer-to-peer shipping and deterministic depth
// partitioning — land on the identical path/error totals, including
// under worker kills, LB kills, and peer links blackholed mid-transfer
// (each batch then falls back to relay through the LB). The modes differ only in who carries the
// payload, and the metrics must prove it: zero job payload bytes cross
// the LB under p2p and depth.

import (
	"bytes"
	"testing"

	"cloud9/internal/engine"
	"cloud9/internal/obs"
)

// simDataPlaneRun is simFailoverRun with an explicit data-plane mode and
// peer-outage window.
func simDataPlaneRun(t *testing.T, mode string, peerFrom, peerTo int,
	crashLB *SimCrashLB, crashes []SimEvent) *SimResult {
	t.Helper()
	res, err := RunSim(SimConfig{
		Workers:      3,
		Entry:        "main",
		NewInterp:    mkInterp(t, clusterTarget),
		Engine:       engine.Config{MaxStateSteps: 1_000_000},
		Quantum:      200,
		Balancer:     BalancerConfig{DataPlane: mode},
		CrashLB:      crashLB,
		Crashes:      crashes,
		PeerDownFrom: peerFrom,
		PeerDownTo:   peerTo,
		LeaseTicks:   3,
		MaxTicks:     10_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestSimDataPlaneModesExactPaths runs the same cluster under both
// data-plane modes: identical totals, with the payload on the wire the
// mode promises — peer bytes under p2p, no shipped bytes at all under
// depth (and no transfers either).
func TestSimDataPlaneModesExactPaths(t *testing.T) {
	for _, mode := range []string{DataPlaneP2P, DataPlaneDepth} {
		res := simDataPlaneRun(t, mode, 0, 0, nil, nil)
		if !res.Exhausted {
			t.Fatalf("%s: run did not exhaust", mode)
		}
		if res.Final.Paths != 64 || res.Final.Errors != 1 {
			t.Fatalf("%s: paths=%d errors=%d, want 64/1", mode, res.Final.Paths, res.Final.Errors)
		}
		lbBytes := res.Obs.Counter(obs.MLBPayloadBytes)
		peerBytes := res.Obs.Counter(obs.MClusterPeerBytes)
		switch mode {
		case DataPlaneP2P:
			if lbBytes != 0 {
				t.Fatalf("p2p: %d payload bytes crossed the LB, want 0", lbBytes)
			}
			if res.Final.TransfersIssued > 0 && peerBytes == 0 {
				t.Fatal("p2p: transfers issued but no peer payload bytes recorded")
			}
		case DataPlaneDepth:
			if lbBytes != 0 || peerBytes != 0 {
				t.Fatalf("depth: payload moved (lb=%d peer=%d), want none", lbBytes, peerBytes)
			}
			if res.Final.TransfersIssued != 0 {
				t.Fatalf("depth: %d transfers issued, want 0", res.Final.TransfersIssued)
			}
			if res.Obs.Counter(obs.MLBUnitGrants) == 0 {
				t.Fatal("depth: no unit grants recorded")
			}
			if at := journalIdx(res.Journal, obs.EvUnitGrant); at[0] < 0 {
				t.Fatal("depth: journal missing unit-grant event")
			}
		}
	}
}

// TestSimPeerDownFallbackExactPaths blackholes every peer link from
// tick 4 on — mid-run, with transfers outstanding — and requires the
// relay fallback to carry the batches with custody intact: exact
// totals, fallbacks recorded, payload bytes now crossing the LB.
func TestSimPeerDownFallbackExactPaths(t *testing.T) {
	res := simDataPlaneRun(t, DataPlaneP2P, 4, 0, nil, nil)
	if !res.Exhausted {
		t.Fatal("peer-down run did not exhaust")
	}
	if res.Final.Paths != 64 || res.Final.Errors != 1 {
		t.Fatalf("paths=%d errors=%d, want 64/1 (exactness across the fallback)", res.Final.Paths, res.Final.Errors)
	}
	if res.Obs.Counter(obs.MClusterPeerFallbacks) == 0 {
		t.Fatal("no peer fallbacks recorded: the outage window never bit")
	}
	if res.Obs.Counter(obs.MLBPayloadBytes) == 0 {
		t.Fatal("no payload bytes crossed the LB: fallback batches went nowhere")
	}
	if at := journalIdx(res.Journal, obs.EvPeerFallback); at[0] < 0 {
		t.Fatal("journal missing peer-fallback event")
	}
}

// TestSimPeerDownWindowRecovers closes the outage window mid-run: links
// come back, later transfers flow peer-to-peer again, totals exact.
func TestSimPeerDownWindowRecovers(t *testing.T) {
	res := simDataPlaneRun(t, DataPlaneP2P, 3, 6, nil, nil)
	if !res.Exhausted {
		t.Fatal("run did not exhaust")
	}
	if res.Final.Paths != 64 || res.Final.Errors != 1 {
		t.Fatalf("paths=%d errors=%d, want 64/1", res.Final.Paths, res.Final.Errors)
	}
}

// TestSimDepthWorkerCrashExactPaths kills a worker under depth
// partitioning: its units are reclaimed, re-granted, and re-derived by
// the new owners — totals exactly the undisturbed run's.
func TestSimDepthWorkerCrashExactPaths(t *testing.T) {
	res := simDataPlaneRun(t, DataPlaneDepth, 0, 0, nil, []SimEvent{{Tick: 4, Worker: 1}})
	if !res.Exhausted {
		t.Fatal("depth crash run did not exhaust")
	}
	if res.Final.Paths != 64 || res.Final.Errors != 1 {
		t.Fatalf("paths=%d errors=%d, want 64/1 after a worker crash", res.Final.Paths, res.Final.Errors)
	}
	if res.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", res.Evictions)
	}
	// The victim's units must have been reclaimed and re-granted after
	// the eviction.
	idx := journalIdx(res.Journal, obs.EvWorkerEvict, obs.EvUnitReclaim)
	if idx[0] < 0 || idx[1] < 0 || idx[0] >= idx[1] {
		t.Fatalf("evict/unit-reclaim missing or out of order: %v", idx)
	}
	regrant := false
	for i, ev := range res.Journal {
		if ev.Type == obs.EvUnitGrant && i > idx[1] {
			regrant = true
		}
	}
	if !regrant {
		t.Fatal("reclaimed units never re-granted")
	}
}

// TestSimDepthLBCrashExactPaths kills the LB under depth partitioning:
// the restarted balancer, which starts with no grants, must rebuild unit
// ownership from the workers' first statuses and finish with the
// undisturbed totals.
func TestSimDepthLBCrashExactPaths(t *testing.T) {
	res := simDataPlaneRun(t, DataPlaneDepth, 0, 0, &SimCrashLB{Tick: 5, RestartTicks: 2}, nil)
	if !res.Exhausted {
		t.Fatal("depth restart run did not exhaust")
	}
	if res.Final.Paths != 64 || res.Final.Errors != 1 {
		t.Fatalf("paths=%d errors=%d, want 64/1 across the LB restart", res.Final.Paths, res.Final.Errors)
	}
	if res.LB.Readmits != 3 || res.LB.Abandoned != 0 {
		t.Fatalf("readmits=%d abandoned=%d, want 3/0", res.LB.Readmits, res.LB.Abandoned)
	}
	if res.Evictions != 0 {
		t.Fatalf("evictions = %d, want 0 (no worker died)", res.Evictions)
	}
}

// TestSimDepthDeterministic: depth mode double-run with byte-identical
// journals — the unit grant schedule itself is replicated state.
func TestSimDepthDeterministic(t *testing.T) {
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
	a := simDataPlaneRun(t, DataPlaneDepth, 0, 0, nil, nil)
	b := simDataPlaneRun(t, DataPlaneDepth, 0, 0, nil, nil)
	if !a.Exhausted || !b.Exhausted {
		t.Fatalf("exhausted: a=%v b=%v", a.Exhausted, b.Exhausted)
	}
	if a.Ticks != b.Ticks || a.Final.Paths != b.Final.Paths {
		t.Fatalf("depth sim not deterministic: a=%d ticks/%d paths, b=%d ticks/%d paths",
			a.Ticks, a.Final.Paths, b.Ticks, b.Final.Paths)
	}
	if da, db := dump(a), dump(b); !bytes.Equal(da, db) {
		t.Fatalf("depth journals differ across identically-seeded runs:\n--- a ---\n%s\n--- b ---\n%s", da, db)
	}
}
