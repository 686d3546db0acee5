package cluster

// Bandit-reweighting and learner invariants (the PR 7 acceptance bar):
// the exploration floor never starves a slot, posterior updates are
// deterministic, allocation follows the UCB1 scores, and the learner's
// spec rewrites ride the same hot-swap path a rebalance uses — so a
// kill -9 mid-run under bandit+learner still reproduces the exact
// undisturbed path count.

import (
	"math"
	"testing"
	"time"

	"cloud9/internal/coverage"
	"cloud9/internal/engine"
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

// feedSkewedYield drives 12 reweight windows at 4 members over a
// 2-slot portfolio: each window, every slot-1 member lands 112 fresh
// lines and the slot-0 members none, then the LB ticks (ReweightEvery 1
// ⇒ every tick closes a bandit observation window). Returns all
// outbound traffic from the ticks.
func feedSkewedYield(t *testing.T, lb *LoadBalancer, ms []*Member) []Outbound {
	t.Helper()
	var outs []Outbound
	for r := 0; r < 12; r++ {
		for i, m := range ms {
			st := Status{Queue: 1, Spec: m.Spec, Frontier: BuildJobTree(nil)}
			if m.SpecIdx == 1 {
				st.CovWords = covStatus(r*224+(i/2)*112, 112)
			}
			report(t, lb, m, st)
		}
		outs = append(outs, lb.Tick(time.Unix(int64(r+2), 0))...)
	}
	return outs
}

func TestBanditReweightShiftsAllocation(t *testing.T) {
	mk := func() (*LoadBalancer, []*Member) {
		cfg := DefaultBalancerConfig()
		cfg.Portfolio = []string{"dfs", "random"}
		cfg.ReweightEvery = 1
		lb := NewLoadBalancer(cfg, 4095)
		return lb, joinN(t, lb, 4)
	}
	lb, ms := mk()
	if lb.Bandit == nil {
		t.Fatal("bandit reweighting must be the default mode")
	}
	// Slot 1 produces every window, slot 0 never: its mean decays to 0
	// while slot 1's sits near saturation, so once the exploration bonus
	// tightens the 2+2 split must shift to 1+3.
	outs := feedSkewedYield(t, lb, ms)
	var moved []int
	for _, o := range outs {
		if o.Msg.Kind == MsgStrategy {
			if o.Msg.Spec != "random" {
				t.Fatalf("moved to %q, want random", o.Msg.Spec)
			}
			moved = append(moved, o.To)
		}
	}
	if len(moved) != 1 {
		t.Fatalf("bandit reweight moved %d workers, want 1 (weights %v)",
			len(moved), lb.specWeights())
	}
	if counts := lb.specCounts(); counts[0] != 1 || counts[1] != 3 {
		t.Fatalf("allocation after bandit reweight = %v, want [1 3]", counts)
	}
	// Determinism: an identically-driven LB produces identical posterior
	// state and identical outbound traffic.
	lb2, ms2 := mk()
	outs2 := feedSkewedYield(t, lb2, ms2)
	w1, w2 := lb.specWeights(), lb2.specWeights()
	for i := range w1 {
		if w1[i] != w2[i] {
			t.Fatalf("bandit weights diverged: %v vs %v", w1, w2)
		}
	}
	// Steady signal → no further churn on the next window.
	for _, m := range ms {
		st := Status{Queue: 1, Spec: m.Spec, Frontier: BuildJobTree(nil)}
		if m.SpecIdx == 1 {
			st.CovWords = covStatus(2800, 112)
		}
		report(t, lb, m, st)
	}
	for _, o := range lb.Tick(time.Unix(20, 0)) {
		if o.Msg.Kind == MsgStrategy {
			t.Fatal("bandit churned on a steady signal")
		}
	}
	if len(outs2) != len(outs) {
		t.Fatalf("outbound traffic diverged: %d vs %d messages", len(outs), len(outs2))
	}
	for i := range outs {
		if outs[i].To != outs2[i].To || outs[i].Msg.Kind != outs2[i].Msg.Kind || outs[i].Msg.Spec != outs2[i].Msg.Spec {
			t.Fatalf("outbound %d diverged: %+v vs %+v", i, outs[i], outs2[i])
		}
	}
}

// TestBanditDecayedSlotLosesAllocation is the behavior the proportional
// scheme cannot express: a slot that *stops* producing loses share even
// though its cumulative yield still dominates, because zero-reward
// pulls drag its mean down while exploration keeps it alive.
func TestBanditDecayedSlotLosesAllocation(t *testing.T) {
	b := newSlotBandit(2)
	// Slot 0 had a hot start, then went cold; slot 1 produces steadily.
	for i := 0; i < 4; i++ {
		b.observe(0, 112)
	}
	for i := 0; i < 40; i++ {
		b.observe(0, 0)
	}
	for i := 0; i < 20; i++ {
		b.observe(1, 24)
	}
	w := b.weights(DefaultBanditC)
	if w[1] <= w[0] {
		t.Fatalf("steady slot must outweigh the decayed one: %v", w)
	}
	// Cumulative yield says the opposite (448 vs 480 lines — close, but
	// slot 0's per-pull mean is 4/44 of its old self); proportional
	// weighting would keep them nearly tied forever.
}

func TestBanditFloorNeverStarvesSlot(t *testing.T) {
	b := newSlotBandit(3)
	// Slot 2 pays zero across a thousand pulls; the others thrive.
	for i := 0; i < 1000; i++ {
		b.observe(0, 64)
		b.observe(1, 64)
		b.observe(2, 0)
	}
	w := b.weights(DefaultBanditC)
	for i, x := range w {
		if x < banditMinWeight || math.IsNaN(x) {
			t.Fatalf("arm %d weight %v below floor", i, x)
		}
	}
	// And the allocation floor on top: with workers ≥ slots, even the
	// dead slot keeps one worker.
	cfg := DefaultBalancerConfig()
	cfg.Portfolio = []string{"dfs", "bfs", "random"}
	lb := NewLoadBalancer(cfg, 100)
	lb.Bandit = b
	for n := 3; n <= 9; n++ {
		alloc := lb.desiredAllocation(n)
		for i, a := range alloc {
			if a < 1 {
				t.Fatalf("n=%d: slot %d starved (alloc %v)", n, i, alloc)
			}
		}
	}
	// An unpulled arm draws the optimistic weight: new slots get tried.
	b2 := newSlotBandit(2)
	b2.observe(0, 64)
	if w := b2.weights(DefaultBanditC); w[1] <= w[0] {
		t.Fatalf("unpulled arm must be optimistic: %v", w)
	}
}

// TestLearnerRacesAndAdopts drives the sample-evaluate-refine loop at
// the LB level: two dist-opt slots, the challenger outperforms, and the
// learner must adopt its vector into the incumbent slot and deal a
// fresh challenger — all over the ordinary MsgStrategy path.
func TestLearnerRacesAndAdopts(t *testing.T) {
	cfg := DefaultBalancerConfig()
	cfg.Portfolio = []string{"dist-opt", "dist-opt", "dfs"}
	cfg.ReweightEvery = 1
	cfg.Learn = true
	cfg.LearnEvery = 8 // decide on the 8th window, once both arms have ≥6 pulls
	cfg.LearnSeed = 7
	lb := NewLoadBalancer(cfg, 4095)
	if lb.Learner == nil || len(lb.Learner.Slots) != 2 {
		t.Fatalf("learner did not claim the dist-opt slots: %+v", lb.Learner)
	}
	challenger := lb.Portfolio[1]
	if challenger == "dist-opt" {
		t.Fatal("challenger slot was not dealt a perturbation")
	}
	if lb.Portfolio[0] != "dist-opt" {
		t.Fatalf("incumbent slot rewritten at start: %q", lb.Portfolio[0])
	}
	ms := joinN(t, lb, 3)
	// The challenger's worker produces coverage every window; the
	// incumbent's pays nothing. On the 8th window the learner compares
	// the bandit means and must adopt.
	var outs []Outbound
	for r := 0; r < 8; r++ {
		for i, m := range ms {
			st := Status{Queue: 1, Spec: m.Spec, Frontier: BuildJobTree(nil)}
			if m.SpecIdx == 1 {
				st.CovWords = covStatus(r*224+(i/2)*112, 112)
			}
			report(t, lb, m, st)
		}
		outs = lb.Tick(time.Unix(int64(r+2), 0))
	}
	if lb.Learner.Adoptions != 1 {
		t.Fatalf("adoptions = %d, want 1", lb.Learner.Adoptions)
	}
	if lb.Portfolio[0] != challenger {
		t.Fatalf("incumbent slot = %q, want adopted challenger %q", lb.Portfolio[0], challenger)
	}
	if lb.Portfolio[1] == challenger || lb.Portfolio[1] == "dist-opt" {
		t.Fatalf("challenger slot not re-dealt: %q", lb.Portfolio[1])
	}
	if lb.Portfolio[2] != "dfs" {
		t.Fatalf("non-family slot touched: %q", lb.Portfolio[2])
	}
	// Both rewritten slots' members were retargeted via MsgStrategy, and
	// the rewritten arms' posteriors were reset.
	retargeted := map[int]string{}
	for _, o := range outs {
		if o.Msg.Kind == MsgStrategy {
			retargeted[o.To] = o.Msg.Spec
		}
	}
	if retargeted[ms[0].ID] != lb.Portfolio[0] {
		t.Fatalf("incumbent worker retargeted to %q, want %q", retargeted[ms[0].ID], lb.Portfolio[0])
	}
	if retargeted[ms[1].ID] != lb.Portfolio[1] {
		t.Fatalf("challenger worker retargeted to %q, want %q", retargeted[ms[1].ID], lb.Portfolio[1])
	}
	if lb.Bandit.Pulls[0] != 0 || lb.Bandit.Pulls[1] != 0 {
		t.Fatalf("rewritten arms not reset: pulls %v", lb.Bandit.Pulls)
	}
	if lb.Bandit.Pulls[2] == 0 {
		t.Fatal("untouched arm was reset")
	}
}

// TestSimLearnCrashRecoveryExactPaths is the exactness bar under the
// full new stack: bandit reweighting + online learner + a kill -9
// mid-run must still reproduce the undisturbed path count, and the
// whole loop must be deterministic under a fixed LearnSeed.
func TestSimLearnCrashRecoveryExactPaths(t *testing.T) {
	factory := mkInterp(t, clusterTarget)
	run := func(crashes []SimEvent) *SimResult {
		res, err := RunSim(SimConfig{
			Workers:   3,
			Entry:     "main",
			NewInterp: factory,
			Engine:    engine.Config{MaxStateSteps: 1_000_000},
			Quantum:   200,
			Balancer: BalancerConfig{
				Portfolio:     []string{"dist-opt", "dist-opt", "dfs"},
				ReweightEvery: 2,
				Learn:         true,
				LearnEvery:    1,
				LearnSeed:     42,
			},
			Crashes:    crashes,
			LeaseTicks: 3,
			MaxTicks:   10_000,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Exhausted {
			t.Fatal("learn run did not exhaust")
		}
		return res
	}
	undisturbed := run(nil)
	if undisturbed.Final.Paths != 64 || undisturbed.Final.Errors != 1 {
		t.Fatalf("undisturbed learn run: paths=%d errors=%d, want 64/1",
			undisturbed.Final.Paths, undisturbed.Final.Errors)
	}
	crashed := run([]SimEvent{{Tick: 4, Worker: 1}})
	if crashed.Final.Paths != 64 || crashed.Final.Errors != 1 {
		t.Fatalf("crashed learn run: paths=%d errors=%d, want 64/1",
			crashed.Final.Paths, crashed.Final.Errors)
	}
	if crashed.Evictions != 1 {
		t.Fatalf("evictions = %d", crashed.Evictions)
	}
	again := run([]SimEvent{{Tick: 4, Worker: 1}})
	if again.Ticks != crashed.Ticks || again.Final.UsefulSteps != crashed.Final.UsefulSteps {
		t.Fatalf("learn sim not deterministic: %d ticks/%d steps vs %d/%d",
			crashed.Ticks, crashed.Final.UsefulSteps, again.Ticks, again.Final.UsefulSteps)
	}
}
