package experiments

import (
	"fmt"

	"cloud9/internal/cluster"
	"cloud9/internal/obs"
	"cloud9/internal/targets"
)

// Partition races the two data-plane modes — frontier-custody P2P
// shipping and deterministic depth partitioning — on the same targets. The shape under test: every mode must land on
// the identical path/error count (the data plane moves work around but
// never changes what is explored), while the payload bytes crossing the
// LB collapse to zero under P2P and depth. Ticks show the price of each
// mode's coordination style.
func Partition(workers int) (*Table, error) {
	if workers == 0 {
		workers = 4
	}
	modes := []string{cluster.DataPlaneP2P, cluster.DataPlaneDepth}
	t := &Table{
		ID:    "Partition",
		Title: fmt.Sprintf("data-plane race on %d workers: p2p vs depth", workers),
		Header: []string{"target", "mode", "ticks", "paths", "errors",
			"transfers", "lb payload B", "units"},
		Notes: []string{
			"paths/errors are identical across modes by construction (exactness invariant)",
			"lb payload B: job payload bytes relayed through the LB (zero = decentralized)",
			"depth mode issues no transfers at all: work units are re-derived locally",
		},
	}
	for _, tgt := range []targets.Target{
		targets.Printf(4),
		targets.Memcached(targets.MCDriverTwoSymbolicPackets),
	} {
		var refPaths, refErrors uint64
		for i, mode := range modes {
			cfg := simFor(tgt, workers)
			cfg.Balancer.DataPlane = mode
			res, err := cluster.RunSim(cfg)
			if err != nil {
				return nil, fmt.Errorf("partition: %s/%s: %w", tgt.Name, mode, err)
			}
			if !res.Exhausted {
				return nil, fmt.Errorf("partition: %s/%s did not exhaust", tgt.Name, mode)
			}
			if i == 0 {
				refPaths, refErrors = res.Final.Paths, res.Final.Errors
			} else if res.Final.Paths != refPaths || res.Final.Errors != refErrors {
				return nil, fmt.Errorf("partition: %s/%s explored %d paths / %d errors, want %d / %d (exactness violated)",
					tgt.Name, mode, res.Final.Paths, res.Final.Errors, refPaths, refErrors)
			}
			units := "-"
			if mode == cluster.DataPlaneDepth {
				units = fmt.Sprint(res.Obs.Counter(obs.MLBUnitGrants))
			}
			t.Rows = append(t.Rows, []string{
				tgt.Name, mode,
				fmt.Sprint(res.Ticks),
				fmt.Sprint(res.Final.Paths),
				fmt.Sprint(res.Final.Errors),
				fmt.Sprint(res.Final.TransfersIssued),
				fmt.Sprint(res.Obs.Counter(obs.MLBPayloadBytes)),
				units,
			})
		}
	}
	return t, nil
}
