package cluster

// TCP data-plane tests: over real sockets, the p2p mode must move every
// job payload worker→worker (zero payload bytes through the LB), relay
// mode must move them all through the LB, and depth mode must move none
// at all — with the explored totals identical in each, and still
// identical with every peer link blackholed (p2p falls back to relay per
// batch) or a worker killed under depth partitioning.

import (
	"testing"
	"time"

	"cloud9/internal/obs"
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

// TestTCPRelayModePayloadThroughLB: with -data-plane relay every batch
// crosses the LB; the payload counter must show it, totals unchanged.
func TestTCPRelayModePayloadThroughLB(t *testing.T) {
	cfg := DefaultBalancerConfig()
	cfg.DataPlane = DataPlaneRelay
	paths, errors, lbs := runTCPDataPlane(t, cfg)
	if paths != 1024 || errors != 1 {
		t.Fatalf("paths=%d errors=%d, want 1024/1", paths, errors)
	}
	fleet := lbs.ObsSnapshot()
	// Gate on batches actually sent, not directives issued — a directive
	// that finds the sender's queue already drained ships nothing.
	if fleet.Counter(obs.MClusterJobsSent) > 0 && fleet.Counter(obs.MLBPayloadBytes) == 0 {
		t.Fatal("jobs shipped in relay mode but no payload bytes crossed the LB")
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

// TestTCPStandbySnapshotBootstrap: a standby attaching after the
// primary compacted its log must be bootstrapped snapshot-first (it
// cannot replay from seq 1 — that prefix no longer exists) and then
// tail the live log to the primary's head.
func TestTCPStandbySnapshotBootstrap(t *testing.T) {
	lbs, err := NewLBServer("127.0.0.1:0", DefaultBalancerConfig(), 64, 2)
	if err != nil {
		t.Fatal(err)
	}
	lbs.EnableReplication()
	// Tiny threshold so a handful of joins forces compaction before the
	// standby ever attaches.
	lbs.lb.SetRepCompactAt(2)
	served := make(chan error, 1)
	go func() {
		_, err := lbs.Serve(30 * time.Second)
		served <- err
	}()
	var conns []*TCPWorkerTransport
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()
	for i := 0; i < 3; i++ {
		tr, _, err := DialLB(lbs.Addr())
		if err != nil {
			t.Fatal(err)
		}
		conns = append(conns, tr)
	}
	deadline := time.Now().Add(10 * time.Second)
	for lbs.RepBase() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("primary never compacted its log")
		}
		time.Sleep(2 * time.Millisecond)
	}

	sb, err := NewStandby("127.0.0.1:0", lbs.Addr(), 200*time.Millisecond, 2)
	if err != nil {
		t.Fatal(err)
	}
	type runResult struct {
		srv *LBServer
		err error
	}
	done := make(chan runResult, 1)
	go func() {
		srv, err := sb.Run()
		done <- runResult{srv, err}
	}()
	// The standby's first applied seq comes from the snapshot: once its
	// LastSeq reaches the primary's compaction base, the snapshot must
	// have been installed — that prefix was never sent entry-by-entry.
	base := lbs.RepBase()
	for sb.LastSeq() < base {
		if time.Now().After(deadline) {
			t.Fatalf("standby never caught up: lastSeq=%d base=%d", sb.LastSeq(), base)
		}
		time.Sleep(2 * time.Millisecond)
	}
	lbs.Shutdown()
	if err := <-served; err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-done:
		if r.err != nil {
			t.Fatalf("standby: %v", r.err)
		}
		if r.srv != nil {
			t.Fatalf("standby promoted (term %d) after a clean shutdown", r.srv.Term())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("standby never observed the shutdown marker")
	}
}
