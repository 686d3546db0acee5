package cluster

// Portfolio tests: deterministic spec assignment at join in equal
// shares, records that follow the specs workers report (also across a
// balancer restart), and — the custody acceptance bar — that portfolio
// runs preserve the exact undisturbed path count through crashes.

import (
	"slices"
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
// and the surplus goes to the lower indices. Joins keep the members'
// slots on that table; a departure's slot goes to the next joiner, and
// so does the slot of a member that runs a spec of its own.
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
		got, n := lb.specCounts()
		if want := lb.desiredAllocation(n); !slices.Equal(got, want) {
			t.Fatalf("%s: slots hold %v, want %v", when, got, want)
		}
	}
	ms := joinN(t, lb, 6)
	onTable("six joins")
	// Member 1 is slot 1's first runner; when it leaves, the next joiner
	// takes its slot.
	lb.Goodbye(ms[1].ID, time.Unix(2, 0))
	if m, _ := lb.Join("", time.Unix(2, 0)); m.SpecIdx != 1 || m.Spec != specs[1] {
		t.Fatalf("joiner after a departure from slot 1 got slot %d (%q)", m.SpecIdx, m.Spec)
	}
	onTable("a departure and a join")
	// Member 4 is slot 0's second runner. Reporting a spec of its own, it
	// holds no slot, and nobody is moved to fill slot 0: the next joiner is.
	report(t, lb, ms[4], Status{Queue: 1, Spec: "dist-opt", Frontier: BuildJobTree(nil)})
	if ms[4].SpecIdx != -1 || ms[4].Spec != "dist-opt" {
		t.Fatalf("member running its own spec recorded as slot %d (%q)", ms[4].SpecIdx, ms[4].Spec)
	}
	if got, n := lb.specCounts(); n != 5 || !slices.Equal(got, []int{1, 2, 1, 1}) {
		t.Fatalf("after an own spec: %d members in slots %v, want 5 in [1 2 1 1]", n, got)
	}
	if m, _ := lb.Join("", time.Unix(3, 0)); m.SpecIdx != 0 {
		t.Fatalf("joiner after slot 0 lost a runner got slot %d", m.SpecIdx)
	}
	onTable("a join after an own spec")
}

// TestResumedBalancerKeepsRunningSpecs: a resumed balancer readmits the
// members in the order they re-dial, and seating deals each a slot
// afresh. What a member runs stands: its first status is what its record
// reads, and nobody is sent anything in answer.
func TestResumedBalancerKeepsRunningSpecs(t *testing.T) {
	portfolio := []string{"dfs", "bfs", "random"}
	cfg := DefaultBalancerConfig()
	cfg.Portfolio = portfolio
	dead := NewLoadBalancer(cfg, 100)
	ms := joinN(t, dead, 3)
	view := dead.memberView()
	lb := NewLoadBalancer(cfg, 100)
	lb.resume()
	now := time.Unix(1, 0)
	for _, id := range []int{2, 0, 1} {
		if ack, _ := lb.Admit(Hello{ID: id, Epoch: ms[id].Epoch, View: view}, now); ack.ID != id {
			t.Fatalf("member %d's re-hello answered %+v", id, ack)
		}
	}
	for _, m := range ms {
		outs, ok := lb.Update(Status{Worker: m.ID, Epoch: m.Epoch, Spec: m.Spec, Frontier: &JobTree{}}, now)
		if !ok || len(outs) != 0 {
			t.Fatalf("member %d's status (running %q): ok=%v, answered %+v", m.ID, m.Spec, ok, outs)
		}
		rec := lb.Members[m.ID]
		if rec.Spec != m.Spec || rec.SpecIdx != slices.Index(portfolio, m.Spec) {
			t.Fatalf("member %d runs %q, recorded as %q in slot %d", m.ID, m.Spec, rec.Spec, rec.SpecIdx)
		}
	}
}

func TestWorkerRunsAssignedSpec(t *testing.T) {
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
	if _, err := w.Exp.RunToCompletion(0); err != nil {
		t.Fatal(err)
	}
	if w.Exp.Stats.PathsExplored != 64 {
		t.Fatalf("paths = %d, want 64", w.Exp.Stats.PathsExplored)
	}
}

// TestSimPortfolioCrashRecoveryExactPaths: a mixed portfolio with a
// kill -9 mid-run still reproduces the undisturbed path count — a
// portfolio must not break the custody protocol's exactness.
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
	// The departure freed the cov-opt slot, and the survivors keep the
	// three other specs they joined with.
	specs := map[string]int{}
	for _, m := range crashed.LB.Members {
		specs[m.Spec]++
	}
	if len(specs) != 3 {
		t.Fatalf("post-crash portfolio lost diversity: %v", specs)
	}
}
