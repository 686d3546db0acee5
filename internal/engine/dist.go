package engine

import (
	"cloud9/internal/cfg"
	"cloud9/internal/tree"
)

// DistanceOptimized is KLEE's coverage-optimized searcher proper: it
// ranks each candidate by the inverse square of its static minimum
// distance to uncovered code (md2u over the internal/cfg call-and-flow
// graph) and samples proportionally, steering workers toward states
// that are few branches away from lines nobody has covered yet — where
// CoverageOptimized rewards yield after the fact, this ranks by
// predicted yield before it.
//
// It draws from the same Fenwick sampler as cov-opt. A node is weighed
// when it is filed, and the oracle's Epoch moves whenever a coverage
// delta (locally executed lines or a global overlay merge) can move a
// distance; the next Select then re-weighs the whole frontier, so each
// cached weight equals the live one at every pick. Between epochs a
// pick costs O(log n). Virtual nodes (path-only jobs not yet replayed)
// have no program state to locate and draw virtualWeight, as does every
// node when no oracle was supplied (a Validate build).
type DistanceOptimized struct {
	weighted
	d *cfg.Distance
	// epoch is d's Epoch when the cached weights were last checked.
	epoch uint64
}

// NewDistanceOptimized returns a distance-to-uncovered strategy reading
// d (nil weighs every node virtualWeight).
func NewDistanceOptimized(d *cfg.Distance, seed int64) *DistanceOptimized {
	r := &DistanceOptimized{d: d}
	r.weighted = newWeighted(r.md2uWeight, seed)
	return r
}

// Name implements Strategy.
func (r *DistanceOptimized) Name() string { return "dist-opt" }

// Select implements Strategy.
func (r *DistanceOptimized) Select() *tree.Node {
	r.checkEpoch()
	return r.weighted.Select()
}

// checkEpoch marks the whole frontier stale if the oracle moved since
// the last pick.
func (r *DistanceOptimized) checkEpoch() {
	if r.d != nil && r.d.Epoch() != r.epoch {
		r.epoch = r.d.Epoch()
		r.stale = true
	}
}

// virtualWeight is the weight of a node whose distance is unknown — a
// virtual (not-yet-replayed) job, or any node when no oracle was
// supplied. It corresponds to assuming the state sits a few branches
// from uncovered code (md2u 4): below every genuinely near state, so a
// flood of imported virtual jobs cannot drown the nearly-there states
// this strategy exists to prioritize, yet far above the saturated
// residual, so transferred work still materializes ahead of dead ends.
const virtualWeight = 1.0 / 25 // 1/(1+4)²

// minFeatWeight is the weight of a state that cannot reach uncovered
// code and the floor under every weight, so a saturated frontier still
// drains and no candidate starves.
const minFeatWeight = 1e-9

// md2uWeight scores a candidate 1/(1+md2u)², the sharp preference for
// nearly-there states KLEE's md2u searcher uses.
func (r *DistanceOptimized) md2uWeight(n *tree.Node) float64 {
	if r.d == nil || n.State == nil {
		return virtualWeight
	}
	dd := r.d.StateDist(n.State)
	if dd >= cfg.Unreachable {
		return minFeatWeight
	}
	f := float64(1 + dd)
	return max(1/(f*f), minFeatWeight)
}
