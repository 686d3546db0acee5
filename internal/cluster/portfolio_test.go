package cluster

// Portfolio-coordination tests: deterministic spec assignment at join,
// equal shares held through membership changes and pins, and — the
// custody acceptance bar — that strategy hot-swaps and portfolio
// runs preserve the exact undisturbed path count through crashes.

import (
	"testing"
	"time"

	"cloud9/internal/engine"
)

func TestPortfolioAssignmentAtJoin(t *testing.T) {
	cfg := DefaultBalancerConfig()
	cfg.Portfolio = []string{"dfs", "bfs", "random"}
	lb := NewLoadBalancer(cfg, 100)
	var specs []string
	for i := 0; i < 7; i++ {
		m, _ := lb.Join("", time.Unix(0, 0))
		specs = append(specs, m.Spec)
	}
	// Equal shares, lower slots first: assignment cycles.
	want := []string{"dfs", "bfs", "random", "dfs", "bfs", "random", "dfs"}
	for i := range want {
		if specs[i] != want[i] {
			t.Fatalf("join %d assigned %q, want %q (all: %v)", i, specs[i], want[i], specs)
		}
	}
	// Same construction, same sequence: assignment is deterministic.
	lb2 := NewLoadBalancer(cfg, 100)
	for i := 0; i < 7; i++ {
		m, _ := lb2.Join("", time.Unix(0, 0))
		if m.Spec != specs[i] {
			t.Fatalf("assignment not deterministic at join %d", i)
		}
	}
}

// TestPortfolioAllocationIsEqualShares: n workers over k slots get one
// per slot before any slot gets a second, shares differ by at most one,
// and the surplus goes to the lower indices; joins, a goodbye and a pin
// keep the members' slots on that table.
func TestPortfolioAllocationIsEqualShares(t *testing.T) {
	specs := []string{"dfs", "bfs", "random", "cov-opt"}
	for k := 1; k <= len(specs); k++ {
		cfg := DefaultBalancerConfig()
		cfg.Portfolio = specs[:k]
		lb := NewLoadBalancer(cfg, 100)
		for n := 0; n <= 9; n++ {
			got := lb.desiredAllocation(n)
			for i := 0; i < k; i++ {
				want := n / k
				if i < n%k {
					want++
				}
				if got[i] != want {
					t.Fatalf("k=%d n=%d: allocation %v, slot %d wants %d", k, n, got, i, want)
				}
			}
		}
	}

	cfg := DefaultBalancerConfig()
	cfg.Portfolio = specs
	lb := NewLoadBalancer(cfg, 100)
	onTable := func(when string) {
		t.Helper()
		got, want := lb.specCounts(), lb.desiredAllocation(lb.unpinned())
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: slots hold %v, want %v", when, got, want)
			}
		}
	}
	ms := joinN(t, lb, 6)
	onTable("six joins")
	lb.Goodbye(ms[5].ID, time.Unix(2, 0))
	onTable("goodbye")
	// Member 4 is slot 0's second runner; pinned, it holds no slot.
	report(t, lb, ms[4], Status{Queue: 1, Spec: "dist-opt", SpecPinned: true, Frontier: BuildJobTree(nil)})
	if lb.unpinned() != 4 {
		t.Fatalf("unpinned = %d after a pin, want 4", lb.unpinned())
	}
	onTable("pin")
	// Member 1 is slot 1's only runner: its pin leaves three members for
	// slots 0-2, so the newest (member 3, in slot 3) is moved there.
	st := Status{Worker: ms[1].ID, Epoch: ms[1].Epoch, Queue: 1, Spec: "dist-opt", SpecPinned: true}
	outs, _ := lb.Update(st, time.Unix(3, 0))
	if len(outs) != 1 || outs[0].To != ms[3].ID || outs[0].Msg.Kind != MsgStrategy || outs[0].Msg.Spec != specs[1] {
		t.Fatalf("pin of a slot's only runner sent %+v, want one MsgStrategy %q to member %d", outs, specs[1], ms[3].ID)
	}
	onTable("pin of an only runner")
}

func TestPortfolioRebalanceOnDepart(t *testing.T) {
	cfg := DefaultBalancerConfig()
	cfg.Portfolio = []string{"dfs", "bfs", "random"}
	lb := NewLoadBalancer(cfg, 100)
	ms := joinN(t, lb, 3)
	for _, m := range ms {
		report(t, lb, m, Status{Queue: 1, Frontier: BuildJobTree(nil)})
	}
	if ms[0].Spec != "dfs" {
		t.Fatalf("member 0 runs %q", ms[0].Spec)
	}
	// The only dfs runner leaves; with 2 members the desired allocation
	// is {dfs, bfs}, so the surviving random runner must be moved to dfs.
	outs := lb.Goodbye(ms[0].ID, time.Unix(2, 0))
	var swap *Message
	for i := range outs {
		if outs[i].Msg.Kind == MsgStrategy {
			if swap != nil {
				t.Fatal("more than one reassignment for a single departure")
			}
			swap = &outs[i].Msg
			if outs[i].To != ms[2].ID {
				t.Fatalf("reassignment sent to %d, want %d", outs[i].To, ms[2].ID)
			}
		}
	}
	if swap == nil {
		t.Fatal("departure of a spec's only runner must trigger a reassignment")
	}
	if swap.Spec != "dfs" {
		t.Fatalf("reassigned to %q, want dfs", swap.Spec)
	}
	if ms[2].Spec != "dfs" {
		t.Fatalf("member record not updated: %q", ms[2].Spec)
	}
}

func TestWorkerAppliesAssignedSpecAndHotSwaps(t *testing.T) {
	_, ep := testMailbox(0)
	w, err := NewWorker(WorkerConfig{
		ID: 0, Seed: true, StrategySpec: "cupa(depth:4,dfs)",
		NewInterp: mkInterp(t, clusterTarget), Entry: "main",
	}, ep)
	if err != nil {
		t.Fatal(err)
	}
	if w.Spec() != "cupa(depth:4,dfs)" {
		t.Fatalf("spec = %q", w.Spec())
	}
	if got := w.Exp.Strat.Name(); got != "cupa(depth:4)" {
		t.Fatalf("strategy = %q", got)
	}
	// Explore a little, then hot-swap: the frontier must be preserved.
	for i := 0; i < 10; i++ {
		if _, err := w.Exp.Step(); err != nil {
			t.Fatal(err)
		}
	}
	before := w.Exp.Tree.NumCandidates()
	if before == 0 {
		t.Fatal("expected a non-empty frontier mid-run")
	}
	if err := w.ApplyStrategy("bfs"); err != nil {
		t.Fatal(err)
	}
	if w.Exp.Tree.NumCandidates() != before {
		t.Fatal("hot-swap disturbed the frontier")
	}
	// Run to completion: the full tree must still be explored exactly.
	if _, err := w.Exp.RunToCompletion(0); err != nil {
		t.Fatal(err)
	}
	if w.Exp.Stats.PathsExplored != 64 {
		t.Fatalf("paths = %d, want 64 after hot-swap", w.Exp.Stats.PathsExplored)
	}
	// Unknown spec: rejected, current strategy untouched.
	if err := w.ApplyStrategy("wat"); err == nil {
		t.Fatal("bad spec should be rejected")
	}
	if w.Spec() != "bfs" {
		t.Fatalf("spec after failed swap = %q", w.Spec())
	}
}

// TestPortfolioReconcilesLostAssignment: a MsgStrategy lost in transit
// (dead conn, reconnect race) must be re-sent when the worker's status
// reports a spec other than its assignment — the member record is
// intent, the status is reality.
func TestPortfolioReconcilesLostAssignment(t *testing.T) {
	cfg := DefaultBalancerConfig()
	cfg.Portfolio = []string{"dfs", "bfs"}
	lb := NewLoadBalancer(cfg, 100)
	ms := joinN(t, lb, 2)
	// Worker 1 (assigned bfs) reports it is still running dfs — the
	// assignment never arrived. The LB must re-send it.
	st := Status{Worker: ms[1].ID, Epoch: ms[1].Epoch, Spec: "dfs"}
	outs, ok := lb.Update(st, time.Unix(1, 0))
	if !ok {
		t.Fatal("status rejected")
	}
	found := false
	for _, o := range outs {
		if o.Msg.Kind == MsgStrategy && o.To == ms[1].ID && o.Msg.Spec == "bfs" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no MsgStrategy re-send in %+v", outs)
	}
	// Once the worker reports the assigned spec, no further re-sends.
	st.Spec = "bfs"
	outs, _ = lb.Update(st, time.Unix(2, 0))
	for _, o := range outs {
		if o.Msg.Kind == MsgStrategy {
			t.Fatal("re-send after convergence")
		}
	}
}

// TestPortfolioRespectsPinnedWorkers: a worker with an explicit local
// -strategy reports SpecPinned; the LB must drop it from allocation and
// never send it MsgStrategy, instead of fighting the override.
func TestPortfolioRespectsPinnedWorkers(t *testing.T) {
	cfg := DefaultBalancerConfig()
	cfg.Portfolio = []string{"dfs", "bfs"}
	lb := NewLoadBalancer(cfg, 100)
	ms := joinN(t, lb, 3)
	for i, m := range ms {
		st := Status{Queue: 1, Spec: m.Spec, Frontier: BuildJobTree(nil)}
		if i == 2 {
			st.Spec, st.SpecPinned = "cov-opt", true
		}
		report(t, lb, m, st)
	}
	if !ms[2].Pinned || ms[2].SpecIdx != -1 || ms[2].Spec != "cov-opt" {
		t.Fatalf("pinned member not recorded: %+v", ms[2])
	}
	// Allocation sees 2 unpinned members → {dfs, bfs}, already satisfied:
	// neither the tick nor a departure may touch the pin.
	for _, o := range lb.Tick(time.Unix(3, 0)) {
		if o.Msg.Kind == MsgStrategy {
			t.Fatalf("reassignment emitted despite satisfied allocation: %+v", o)
		}
	}
	outs := lb.Goodbye(ms[0].ID, time.Unix(4, 0)) // the dfs runner leaves
	for _, o := range outs {
		if o.Msg.Kind == MsgStrategy && o.To == ms[2].ID {
			t.Fatal("pinned worker was reassigned")
		}
	}
	// The bfs runner is the only unpinned survivor; it inherits dfs.
	if ms[1].Spec != "dfs" {
		t.Fatalf("unpinned survivor runs %q, want dfs", ms[1].Spec)
	}
}

// TestSimHotSwapPreservesExactPaths: a mid-run strategy hot-swap (the
// MsgStrategy path a portfolio rebalance uses) must not change the
// explored path count, and the swapped run must itself be
// deterministic.
func TestSimHotSwapPreservesExactPaths(t *testing.T) {
	factory := mkInterp(t, clusterTarget)
	run := func(swaps []SimSwap) *SimResult {
		res, err := RunSim(SimConfig{
			Workers:   2,
			Entry:     "main",
			NewInterp: factory,
			Engine:    engine.Config{MaxStateSteps: 1_000_000},
			Quantum:   200,
			Swaps:     swaps,
			MaxTicks:  10_000,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Exhausted {
			t.Fatal("run did not exhaust")
		}
		return res
	}
	undisturbed := run(nil)
	if undisturbed.Final.Paths != 64 {
		t.Fatalf("undisturbed paths = %d", undisturbed.Final.Paths)
	}
	swaps := []SimSwap{
		{Tick: 3, Worker: 0, Spec: "cupa(site,dfs)"},
		{Tick: 5, Worker: 1, Spec: "bfs"},
		{Tick: 7, Worker: 0, Spec: "cupa(depth:4,random)"},
	}
	a := run(swaps)
	if a.Final.Paths != undisturbed.Final.Paths {
		t.Fatalf("paths with hot-swaps = %d, undisturbed = %d", a.Final.Paths, undisturbed.Final.Paths)
	}
	if a.Final.Errors != 1 {
		t.Fatalf("errors = %d", a.Final.Errors)
	}
	b := run(swaps)
	if a.Ticks != b.Ticks || a.Final.UsefulSteps != b.Final.UsefulSteps {
		t.Fatalf("hot-swapped sim not deterministic: a=%d ticks/%d steps b=%d ticks/%d steps",
			a.Ticks, a.Final.UsefulSteps, b.Ticks, b.Final.UsefulSteps)
	}
}

// TestSimPortfolioCrashRecoveryExactPaths: a mixed portfolio with a
// kill -9 mid-run (and the resulting strategy rebalance) still
// reproduces the undisturbed path count — portfolio coordination must
// not break the custody protocol's exactness.
func TestSimPortfolioCrashRecoveryExactPaths(t *testing.T) {
	factory := mkInterp(t, clusterTarget)
	portfolio := []string{"cupa(site,dfs)", "cov-opt", "random", "dfs"}
	run := func(crashes []SimEvent) *SimResult {
		res, err := RunSim(SimConfig{
			Workers:    4,
			Entry:      "main",
			NewInterp:  factory,
			Engine:     engine.Config{MaxStateSteps: 1_000_000},
			Quantum:    200,
			Balancer:   BalancerConfig{Portfolio: portfolio},
			Crashes:    crashes,
			LeaseTicks: 3,
			MaxTicks:   10_000,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Exhausted {
			t.Fatal("portfolio run did not exhaust")
		}
		return res
	}
	undisturbed := run(nil)
	if undisturbed.Final.Paths != 64 || undisturbed.Final.Errors != 1 {
		t.Fatalf("undisturbed portfolio run: paths=%d errors=%d",
			undisturbed.Final.Paths, undisturbed.Final.Errors)
	}
	// Every worker got its slot.
	for i, w := range undisturbed.Workers {
		if w.Spec() != portfolio[i] {
			t.Fatalf("worker %d runs %q, want %q", i, w.Spec(), portfolio[i])
		}
	}
	crashed := run([]SimEvent{{Tick: 4, Worker: 1}})
	if crashed.Final.Paths != 64 || crashed.Final.Errors != 1 {
		t.Fatalf("crashed portfolio run: paths=%d errors=%d, want 64/1",
			crashed.Final.Paths, crashed.Final.Errors)
	}
	if crashed.Evictions != 1 {
		t.Fatalf("evictions = %d", crashed.Evictions)
	}
	// The departure freed the cov-opt slot; the rebalance hands it to a
	// survivor (deterministically), so the portfolio stays diverse.
	specs := map[string]int{}
	for _, m := range crashed.LB.Members {
		specs[m.Spec]++
	}
	if len(specs) != 3 {
		t.Fatalf("post-crash portfolio lost diversity: %v", specs)
	}
}
