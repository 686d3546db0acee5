package cluster

// Snapshot tests: attaching by snapshot must be invisible to the replay
// contract. A standby that installs a snapshot cut at any seq S and
// applies the entries after it must land on the same StateFingerprint
// as one that replayed everything from seq 1 — and as the primary.

import (
	"testing"
	"time"

	"cloud9/internal/coverage"
)

// covStatus builds CovWords covering `lines` fresh lines starting at
// base, sized for an LB built with covLen 4095.
func covStatus(base, lines int) []uint64 {
	v := coverage.New(4095)
	for j := 0; j < lines; j++ {
		v.Set(base + j)
	}
	return v.Words()
}

// scriptedConfigs are the balancer configurations the scripted primary is
// driven under: the default p2p plane with a two-slot portfolio, and the
// depth plane with a three-slot one — between them every optional part
// of lbState (slot yields, unit table) is live.
func scriptedConfigs() []BalancerConfig {
	p2p := DefaultBalancerConfig()
	p2p.Portfolio = []string{"dfs", "random"}
	depth := p2p
	depth.Portfolio = []string{"dist-opt", "dist-opt", "random"}
	depth.DataPlane = DataPlaneDepth
	return []BalancerConfig{p2p, depth}
}

// driveScriptedPrimary drives a primary through the scripted mix of
// replicated entry points (joins, statuses, ticks, balance rounds, a
// goodbye with live custody, a lease expiry), capturing every entry as it
// is emitted.
func driveScriptedPrimary(t testing.TB, cfg BalancerConfig) (*LoadBalancer, []RepEntry, int) {
	t.Helper()
	const covLen = 4095
	lb := NewLoadBalancer(cfg, covLen)
	all := recordReplication(lb)

	now := time.Unix(10, 0)
	var ms []*Member
	for i := 0; i < 4; i++ {
		m, _ := lb.Join("", now)
		ms = append(ms, m)
	}
	for r := 0; r < 6; r++ {
		now = now.Add(300 * time.Millisecond)
		for i, m := range ms {
			if lb.Members[m.ID] == nil {
				continue
			}
			st := Status{
				Worker: m.ID, Epoch: m.Epoch, Spec: m.Spec,
				Queue: 3 + (i+r)%5, Paths: uint64(10*r + i),
				UsefulSteps: uint64(100 * r),
				Frontier:    BuildJobTree([][]uint8{{uint8(i % 2), uint8(r % 2)}, {1}}),
			}
			if i == 2 && r >= 4 {
				// One member runs dry: a balancing target under p2p, a
				// unit-grant claimant under depth.
				st.Queue, st.Done, st.Units = 0, true, lb.ownedUnits(m.ID)
			}
			if m.SpecIdx == 1 {
				st.CovWords = covStatus(r*200+i*40, 40)
			}
			if _, ok := lb.Update(st, now); !ok {
				t.Fatalf("status for member %d rejected", m.ID)
			}
		}
		lb.Tick(now)
		lb.Balance()
		if r == 3 {
			lb.Goodbye(ms[1].ID, now) // live frontier → custody re-seat
		}
	}
	// Let one lease lapse so ExpireLeases does real work on replay too.
	now = now.Add(lb.cfg.Lease + time.Second)
	lb.ExpireLeases(now)
	return lb, *all, covLen
}

// TestRepSnapshotTailFingerprint is the attach property test, at every
// cut the script has: a replica that applied entries 1..S is snapshotted
// (it sits at an entry boundary, as the primary does under its server's
// lock), a second replica installs that snapshot and applies S+1..N, and
// must fingerprint identically to a full replay and to the primary.
func TestRepSnapshotTailFingerprint(t *testing.T) {
	for _, cfg := range scriptedConfigs() {
		snapshotTailFingerprint(t, cfg)
	}
}

func snapshotTailFingerprint(t *testing.T, cfg BalancerConfig) {
	lb, all, covLen := driveScriptedPrimary(t, cfg)
	want := lb.StateFingerprint()
	if got := replay(t, lb, covLen, all).LB().StateFingerprint(); got != want {
		t.Fatalf("full replay diverges from primary:\n--- primary ---\n%s\n--- full ---\n%s", want, got)
	}
	for s := 0; s <= len(all); s++ {
		snap, err := replay(t, lb, covLen, all[:s]).LB().SnapshotState()
		if err != nil {
			t.Fatalf("snapshot at seq %d: %v", s, err)
		}
		tail := NewReplica(lb.Config(), covLen)
		if err := tail.InstallState(snap); err != nil {
			t.Fatalf("install at seq %d: %v", s, err)
		}
		if tail.LastSeq() != uint64(s) {
			t.Fatalf("snapshot cut at seq %d installs as seq %d", s, tail.LastSeq())
		}
		for _, e := range all[s:] {
			if err := tail.Apply(e); err != nil {
				t.Fatalf("tail replay after seq %d: %v", s, err)
			}
		}
		if got := tail.LB().StateFingerprint(); got != want {
			t.Fatalf("snapshot at seq %d then tail diverges from primary:\n--- primary ---\n%s\n--- tail ---\n%s", s, want, got)
		}
	}
}

// TestRepSnapshotIdentityNoTail: a replica restored from a snapshot
// with no tail entries is byte-identical to the primary at the moment
// the snapshot was cut.
func TestRepSnapshotIdentityNoTail(t *testing.T) {
	lb, _, covLen := driveScriptedPrimary(t, scriptedConfigs()[0])
	snap, err := lb.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	rep := NewReplica(lb.Config(), covLen)
	if err := rep.InstallState(snap); err != nil {
		t.Fatalf("install: %v", err)
	}
	if got, want := rep.LB().StateFingerprint(), lb.StateFingerprint(); got != want {
		t.Fatalf("snapshot-restored replica diverges:\n--- primary ---\n%s\n--- restored ---\n%s", want, got)
	}
	if rep.LastSeq() != lb.RepSeq {
		t.Fatalf("restored replica at seq %d, primary at %d", rep.LastSeq(), lb.RepSeq)
	}
}

// midScriptSnapshot cuts a snapshot two thirds into the script, while
// members are alive, frontiers reported and custody outstanding.
func midScriptSnapshot(t testing.TB, cfg BalancerConfig) *RepSnapshot {
	t.Helper()
	lb, all, covLen := driveScriptedPrimary(t, cfg)
	snap, err := replay(t, lb, covLen, all[:len(all)*2/3]).LB().SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// FuzzInstallState: the blob InstallState decodes arrives from the
// network. Whatever it holds, under either scripted configuration the
// install must return an error or leave a state the balancer can
// fingerprint and run a round on — with every lease lapsed, so
// departures, custody re-seats and the portfolio rebalance all execute —
// without panicking. The committed corpus (testdata/fuzz/FuzzInstallState)
// is a mid-script p2p snapshot, its first half, and the same state with
// SpecYield cut to one slot; the seeds added here are the same cuts in
// today's lbState layout.
func FuzzInstallState(f *testing.F) {
	cfgs := scriptedConfigs()
	for _, cfg := range cfgs {
		f.Add(midScriptSnapshot(f, cfg).Blob)
	}
	f.Fuzz(func(t *testing.T, blob []byte) {
		for _, cfg := range cfgs {
			rep := NewReplica(cfg, 4095)
			if rep.InstallState(&RepSnapshot{Blob: blob}) != nil {
				continue
			}
			lb := rep.LB()
			lb.StateFingerprint()
			lb.Round(lb.LastNow.Add(time.Hour))
			lb.StateFingerprint()
		}
	})
}
