package main

import (
	"fmt"

	"cloud9/internal/cluster"
	"cloud9/internal/targets"
)

// counts are the exploration totals a run must reproduce: they do not
// depend on search order, worker count or data plane, which is the
// paper's invariant and this benchmark's correctness check.
type counts struct {
	Paths  uint64 `json:"paths"`
	Errors uint64 `json:"errors"`
	Hangs  uint64 `json:"hangs"`
	Cov    int    `json:"covered_lines"`
	Useful uint64 `json:"useful_instr"`
	// Kills are states the solver gave up on at the workload's backtrack
	// budget. They are pinned like the rest: a run with a different
	// number explored a different tree.
	Kills uint64 `json:"budget_kills"`
}

// workload is one sized exploration. Full is what the ledger measures;
// Small is the same code path at a size the test suite can afford.
type workload struct {
	Name string
	// Target builds the program under test at the given size.
	Target func(small bool) targets.Target
	// Size says, for the ledger's records, what Target(false) built.
	Size string
	Spec string
	// Plane is empty for a single-node run, else the cluster data plane.
	Plane string
	// MaxBacktracks overrides solver.Solver.MaxBacktracks when non-zero.
	MaxBacktracks uint64
	Full, Small   counts
}

// coreutil sizes: the symbolic argument's length in bytes.
const (
	fullArgLen  = 6
	smallArgLen = 3
)

func coreutil(name string) func(bool) targets.Target {
	return func(small bool) targets.Target {
		n := fullArgLen
		if small {
			n = smallArgLen
		}
		for _, t := range targets.Coreutils(n) {
			if t.Name == "coreutil-"+name {
				return t
			}
		}
		panic("bench: no coreutil " + name)
	}
}

func memcached(small bool) targets.Target {
	if small {
		// The two-packet driver has no smaller size; the test suite runs
		// another tier-3-heavy miniature in its place.
		return targets.TestUtil(3)
	}
	return targets.Memcached(targets.MCDriverTwoSymbolicPackets)
}

var (
	coreutilSize = fmt.Sprintf("targets.Coreutils(%d)", fullArgLen)

	wcFull  = counts{Paths: 19531, Cov: 17, Useful: 6142232}
	wcSmall = counts{Paths: 156, Cov: 17, Useful: 43685}
)

// workloads is the ledger, in the order it runs. Each one exists to put
// one layer to work and leave another idle, so that a change to a layer
// has a workload that should move and one that should not; README.md
// carries the reasons at length.
var workloads = []workload{
	{
		Name: "wc-dfs", Target: coreutil("wc"), Size: coreutilSize, Spec: "dfs",
		Full: wcFull, Small: wcSmall,
	},
	{
		Name: "base32-default", Target: coreutil("base32lite"), Size: coreutilSize, Spec: "interleaved",
		Full:  counts{Paths: 5461, Cov: 11, Useful: 318081},
		Small: counts{Paths: 85, Cov: 11, Useful: 4929},
	},
	{
		Name: "memcached-hard", Target: memcached, Spec: "interleaved",
		Size: "targets.Memcached(MCDriverTwoSymbolicPackets), MaxBacktracks 1<<13",
		// An eighth of the solver's default budget: the ten searches that
		// are killed anyway cost an eighth as much, every other search
		// needs far less, and the explored tree is the default's.
		MaxBacktracks: 1 << 13,
		Full:          counts{Paths: 312, Cov: 147, Useful: 92722, Kills: 10},
		Small:         counts{Paths: 548, Cov: 57, Useful: 48441, Kills: 4},
	},
	{
		Name: "sort-many", Target: coreutil("sort"), Size: coreutilSize, Spec: "dfs",
		Full:  counts{Paths: 874, Cov: 13, Useful: 217137},
		Small: counts{Paths: 10, Cov: 13, Useful: 1602},
	},
	{
		Name: "wc-cluster-p2p", Target: coreutil("wc"), Size: coreutilSize, Spec: "dfs",
		Plane: cluster.DataPlaneP2P, Full: wcFull, Small: wcSmall,
	},
	{
		Name: "wc-cluster-depth", Target: coreutil("wc"), Size: coreutilSize, Spec: "dfs",
		Plane: cluster.DataPlaneDepth, Full: wcFull, Small: wcSmall,
	},
}

// singleNodeOf names the single-node workload that explores the same
// tree as a cluster workload.
const singleNodeOf = "wc-dfs"

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

func (w workload) pins(small bool) counts {
	if small {
		return w.Small
	}
	return w.Full
}
