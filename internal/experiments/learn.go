package experiments

import (
	"fmt"

	"cloud9/internal/cluster"
	"cloud9/internal/targets"
)

// LearnPortfolios are the two portfolios the learning experiment races,
// labeled for the table. The 2-slot portfolio isolates the reweighting
// question — how fast does each mode move the four spare workers onto
// the productive slot; the 3-slot portfolio has two dist-opt slots (the
// parameterized family), which is what arms the LB's learner: incumbent
// in the first, perturbed challengers raced in the second.
var LearnPortfolios = []struct {
	Label string
	Specs []string
}{
	{"dist-opt+dfs", []string{"dist-opt", "dfs"}},
	{"2x dist-opt+dfs", []string{"dist-opt", "dist-opt", "dfs"}},
}

// learnWorkers is the fleet size: slots plus enough spare workers that
// reweighting has real allocation to move.
const learnWorkers = 6

// learnBanditC is the UCB1 exploration constant the experiment runs.
// Miniature runs last only tens of reweight windows, so exploration has
// to be nearly free — the optimistic first pull and the one-worker
// allocation floor already guarantee every slot gets sampled; a large
// bonus just churns hot-swaps. (Production runs reweight every 32 LB
// ticks, where windows are long and DefaultBanditC's stronger
// exploration is affordable.)
const learnBanditC = 0.05

// LearnedPortfolio races the LB's two portfolio modes to a target's
// exhaustive final coverage under identical conditions: the UCB1 bandit
// over per-window normalized yield, and the bandit plus the online
// sample-evaluate-refine learner perturbing the dist-opt weight vector.
//
// The bandit tracks each slot's per-window yield *rate*, pulling the
// spare workers off a slot the moment its mean decays. (The scheme it
// replaced weighted slots by cumulative yield, so an early lucky streak
// kept drawing allocation; it lost this race — 13 vs 9 ticks on
// memcached dist-opt+dfs, see ARCHITECTURE.md — and was removed.) The
// lock-step sim is deterministic (the learner included, under
// LearnSeed), so the tick counts are stable regression bars, asserted
// by the experiments tests and the nightly gauntlet.
func LearnedPortfolio(workers int) (*Table, error) {
	if workers == 0 {
		workers = learnWorkers
	}
	t := &Table{
		ID:    "Learn",
		Title: fmt.Sprintf("ticks to reach final coverage, %d workers, reweight every tick", workers),
		Header: []string{"target", "portfolio", "final cov",
			"bandit", "bandit+learn", "adoptions", "winner"},
		Notes: []string{
			"same portfolio, same quantum (1000), same seeds per row — only the",
			"learner differs (BanditC 0.05: exploration must be near-free on runs",
			"this short; the optimistic first pull still samples every slot)",
			"bandit+learn also perturbs/races dist-opt weight vectors when the",
			"portfolio has ≥2 dist-opt slots (it needs incumbent + challenger);",
			"adoptions counts incumbent replacements in that mode",
		},
	}
	for _, tgt := range []targets.Target{
		targets.Memcached(targets.MCDriverTwoSymbolicPackets),
		targets.Printf(4),
	} {
		rows, err := learnRows(tgt, workers)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, rows...)
	}
	return t, nil
}

// learnSim builds one mode's simulation config.
func learnSim(tgt targets.Target, workers int, specs []string, learn bool) cluster.SimConfig {
	cfg := simFor(tgt, workers)
	cfg.Quantum = 1000
	cfg.Balancer.Portfolio = append([]string(nil), specs...)
	cfg.Balancer.ReweightEvery = 1
	cfg.Balancer.BanditC = learnBanditC
	cfg.Balancer.Learn = learn
	cfg.Balancer.LearnEvery = 1
	cfg.Balancer.LearnSeed = 1
	return cfg
}

// learnRows races the two modes over both portfolios on one target.
func learnRows(tgt targets.Target, workers int) ([][]string, error) {
	// Final coverage from an exhaustive run (strategy-independent).
	ref, err := cluster.RunSim(distSim(tgt, workers, "dfs"))
	if err != nil {
		return nil, err
	}
	if !ref.Exhausted {
		return nil, fmt.Errorf("learn: %s did not exhaust", tgt.Name)
	}
	goal := ref.Final.Coverage

	modes := []struct {
		label string
		learn bool
	}{
		{"bandit", false},
		{"bandit+learn", true},
	}
	var rows [][]string
	for _, pf := range LearnPortfolios {
		row := []string{tgt.Name, pf.Label, fmt.Sprint(goal)}
		best, bestTicks, adoptions := "", 0, 0
		for _, m := range modes {
			cfg := learnSim(tgt, workers, pf.Specs, m.learn)
			cfg.StopWhen = func(s cluster.Snapshot) bool { return s.Coverage >= goal }
			res, err := cluster.RunSim(cfg)
			if err != nil {
				return nil, err
			}
			if res.Final.Coverage < goal {
				return nil, fmt.Errorf("learn: %s/%s under %s never reached %d lines",
					tgt.Name, pf.Label, m.label, goal)
			}
			row = append(row, fmt.Sprint(res.Ticks))
			if m.learn {
				adoptions = res.LB.Adoptions()
			}
			if best == "" || res.Ticks < bestTicks {
				best, bestTicks = m.label, res.Ticks
			}
		}
		rows = append(rows, append(row, fmt.Sprint(adoptions), best))
	}
	return rows, nil
}
