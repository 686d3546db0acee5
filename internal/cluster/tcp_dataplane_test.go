package cluster

// TCP data-plane tests: over real sockets, the p2p mode must move every
// job payload worker→worker (zero payload bytes through the LB) and
// depth mode must move none at all — with the explored totals identical
// in each, and still identical with every peer link blackholed (p2p
// falls back to relay per batch) or a worker killed under depth
// partitioning.

import (
	"testing"
	"time"

	"cloud9/internal/engine"
	"cloud9/internal/obs"
	"cloud9/internal/targets"
)

// runTCPDataPlane runs an LB (with the given balancer config) and three
// workers to exhaustion, returning the summed path and error counts of
// the final statuses and the server.
func runTCPDataPlane(t *testing.T, cfg BalancerConfig) (paths, errors uint64, lbs *LBServer) {
	t.Helper()
	f := newTCPFleet(t, bigClusterTarget, cfg, 3)
	for i := 0; i < 3; i++ {
		f.start(t, tcpWorkerOpts{})
	}
	paths, errors, _ = f.serve(t)
	return paths, errors, f.lbs
}

// TestTCPP2PZeroRelayBytes: in the default p2p mode, job payloads dial
// peer listeners directly — the LB carries metadata only, so its
// payload byte counter must be exactly zero while the totals stay
// exact.
func TestTCPP2PZeroRelayBytes(t *testing.T) {
	paths, errors, lbs := runTCPDataPlane(t, DefaultBalancerConfig())
	if paths != 1024 || errors != 1 {
		t.Fatalf("paths=%d errors=%d, want 1024/1", paths, errors)
	}
	fleet := lbs.ObsSnapshot()
	if got := fleet.Counter(obs.MLBPayloadBytes); got != 0 {
		t.Fatalf("%d job payload bytes crossed the LB in p2p mode, want 0", got)
	}
	// A transfer directive can arrive after the sender's queue drained
	// (nothing ships), so gate on batches actually sent: every one of
	// them moved over a peer session, and the LB journals the opens from
	// the workers' status counters.
	if fleet.Counter(obs.MClusterJobsSent) > 0 {
		if at := journalIdx(lbs.Journal().All(), obs.EvPeerSessionOpen); at[0] < 0 {
			t.Fatal("jobs shipped but no peer-session-open event journaled")
		}
		if fleet.Counter(obs.MClusterPeerBytes) == 0 {
			t.Fatal("jobs shipped in p2p mode but no peer payload bytes counted")
		}
	}
}

// TestTCPDepthModeExactPaths: depth partitioning over TCP — every
// worker re-derives its granted units locally, so no transfers are
// issued and no payload moves anywhere, yet the totals are exact.
func TestTCPDepthModeExactPaths(t *testing.T) {
	cfg := DefaultBalancerConfig()
	cfg.DataPlane = DataPlaneDepth
	paths, errors, lbs := runTCPDataPlane(t, cfg)
	if paths != 1024 || errors != 1 {
		t.Fatalf("paths=%d errors=%d, want 1024/1 under depth partitioning", paths, errors)
	}
	if _, _, transfers, _ := lbs.Stats(); transfers != 0 {
		t.Fatalf("depth mode issued %d transfers, want 0", transfers)
	}
	fleet := lbs.ObsSnapshot()
	if got := fleet.Counter(obs.MLBPayloadBytes); got != 0 {
		t.Fatalf("%d payload bytes crossed the LB in depth mode, want 0", got)
	}
	if fleet.Counter(obs.MLBUnitGrants) == 0 {
		t.Fatal("no unit grants recorded")
	}
}

// TestTCPEarlyRounds: printf on cluster.Run with two workers. The p2p
// balancer runs at least one round because a report made it due, not on
// its tick; the depth one never does. Counted, not timed.
func TestTCPEarlyRounds(t *testing.T) {
	tgt, ok := targets.ByName("printf")
	if !ok {
		t.Fatal("no printf target")
	}
	for _, plane := range []string{DataPlaneP2P, DataPlaneDepth} {
		bc := DefaultBalancerConfig()
		bc.DataPlane = plane
		res, err := Run(Config{
			Workers: 2, Entry: "main", NewInterp: targets.Factory(tgt),
			Engine: engine.Config{MaxStateSteps: 1_000_000}, Balancer: bc,
			MaxDuration: time.Minute,
		})
		if err != nil {
			t.Fatal(err)
		}
		early := res.Obs.Counter(obs.MLBEarlyRounds)
		if !res.Exhausted || res.Final.Paths != 2136 || (plane == DataPlaneP2P) != (early > 0) {
			t.Fatalf("%s: exhausted=%v paths=%d %s=%d", plane, res.Exhausted, res.Final.Paths, obs.MLBEarlyRounds, early)
		}
	}
}

// blackholedPeers is a worker transport whose peer links are all down:
// SendJobs fails as if every destination's listener were unreachable,
// while the LB stream (embedded) works normally.
type blackholedPeers struct{ *TCPWorkerTransport }

func (blackholedPeers) SendJobs(int, Message) bool { return false }

// TestTCPPeerDownFallbackExactPaths blackholes every peer link of a p2p
// cluster: each batch must fall back to LB relay with custody intact —
// exact totals, no evictions, every fallback counted and journaled, and
// the payload visibly crossing the LB instead of the peer sessions.
func TestTCPPeerDownFallbackExactPaths(t *testing.T) {
	f := newTCPFleet(t, hugeClusterTarget, DefaultBalancerConfig(), 3)
	for i := 0; i < 3; i++ {
		f.start(t, tcpWorkerOpts{wrap: func(tr *TCPWorkerTransport) Transport { return blackholedPeers{tr} }})
	}
	paths, errors, departed := f.serve(t)
	if paths != 4096 || errors != 1 {
		t.Fatalf("paths=%d errors=%d, want 4096/1 (exactness across the fallback)", paths, errors)
	}
	if evictions, _, _, _ := f.lbs.Stats(); evictions != 0 || departed != 0 {
		t.Fatalf("evictions=%d departed=%d, want 0/0", evictions, departed)
	}
	fleet := f.lbs.ObsSnapshot()
	if fleet.Counter(obs.MClusterJobsSent) == 0 {
		t.Fatal("no jobs shipped in a 3-worker run of 4096 paths")
	}
	if fleet.Counter(obs.MClusterPeerFallbacks) == 0 {
		t.Fatal("jobs shipped but no peer fallbacks recorded")
	}
	if fleet.Counter(obs.MLBPayloadBytes) == 0 {
		t.Fatal("jobs shipped but no payload bytes crossed the LB")
	}
	if got := fleet.Counter(obs.MClusterPeerBytes); got != 0 {
		t.Fatalf("%d payload bytes moved over blackholed peer links", got)
	}
	if at := journalIdx(f.lbs.Journal().All(), obs.EvPeerFallback); at[0] < 0 {
		t.Fatal("journal missing peer-fallback event")
	}
}

// TestTCPDepthWorkerCrashExactPaths kills a worker under depth
// partitioning while it owns units with work outstanding: the LB must
// evict it, reclaim its units and re-grant them, and the new owners
// re-derive them to exactly the undisturbed totals — still with no
// payload through the LB.
func TestTCPDepthWorkerCrashExactPaths(t *testing.T) {
	cfg := DefaultBalancerConfig()
	cfg.DataPlane = DataPlaneDepth
	cfg.Lease = 400 * time.Millisecond
	f := newTCPFleet(t, hugeClusterTarget, cfg, 3)
	f.start(t, tcpWorkerOpts{})
	f.start(t, tcpWorkerOpts{})
	f.start(t, tcpWorkerOpts{crashWhen: func(w *Worker, queue int) bool {
		return queue > 0 && len(w.Exp.OwnedUnits()) > 0 && f.lbs.TotalPaths() >= 50
	}})
	paths, errors, departed := f.serve(t)
	if paths != 4096 || errors != 1 {
		t.Fatalf("paths=%d errors=%d, want 4096/1 after a worker crash under depth partitioning", paths, errors)
	}
	if evictions, _, _, _ := f.lbs.Stats(); evictions != 1 || departed != 1 {
		t.Fatalf("evictions=%d departed=%d, want 1/1", evictions, departed)
	}
	if got := f.lbs.ObsSnapshot().Counter(obs.MLBPayloadBytes); got != 0 {
		t.Fatalf("depth: %d payload bytes crossed the LB, want 0", got)
	}
	journal := f.lbs.Journal().All()
	idx := journalIdx(journal, obs.EvWorkerEvict, obs.EvUnitReclaim)
	if idx[0] < 0 || idx[1] < 0 || idx[0] >= idx[1] {
		t.Fatalf("evict/unit-reclaim missing or out of order: %v", idx)
	}
	regrant := false
	for _, ev := range journal[idx[1]:] {
		regrant = regrant || ev.Type == obs.EvUnitGrant
	}
	if !regrant {
		t.Fatal("reclaimed units never re-granted")
	}
}

// TestTCPDepthLBRestartExactPaths kills the balancer under depth
// partitioning: the restart starts with no grants, rebuilds the unit
// table from the workers' claims and grants what nobody claims — exact
// totals, nothing abandoned, no payload through the LB.
func TestTCPDepthLBRestartExactPaths(t *testing.T) {
	cfg := DefaultBalancerConfig()
	cfg.DataPlane = DataPlaneDepth
	f := tcpRestart(t, cfg)
	exactTCPRestart(t, f)
	if got := f.lbs.ObsSnapshot().Counter(obs.MLBPayloadBytes); got != 0 {
		t.Fatalf("depth: %d payload bytes crossed the LB, want 0", got)
	}
}
