package engine

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"cloud9/internal/cfg"
	"cloud9/internal/tree"
)

// DistWeights parameterizes the DistanceOptimized ranking as a linear
// combination over four normalized candidate features (after Cha et
// al.'s parameterized heuristic family); a portfolio names a vector as
// dist-opt(w=a:b:c:d). Each feature lies in (0,1]; a weight scales its
// contribution to the candidate's sampling weight:
//
//	MD2U   · 1/(1+md2u)²          — static distance to uncovered code
//	Depth  · 1/(1+depth/8)        — shallow states first
//	Faults · 1/(1+faults)         — fewest injected faults first
//	Yield  · y/(1+y)              — recent lineage coverage yield y
//
// The zero value ranks everything equally (every feature weighted 0
// collapses to the minimum-weight floor); DefaultDistWeights is the
// classic md2u-only ranking.
type DistWeights struct {
	MD2U, Depth, Faults, Yield float64
}

// DefaultDistWeights is the hand-tuned member of the family: pure
// inverse-square md2u, the KLEE ranking bare dist-opt uses.
func DefaultDistWeights() DistWeights { return DistWeights{MD2U: 1} }

// ParseDistWeights parses a ':'-separated four-component weight vector
// (md2u:depth:faults:yield). Components must be finite and
// non-negative — a negative feature weight would invert a preference
// the features are normalized to express directly.
func ParseDistWeights(s string) (DistWeights, error) {
	parts := strings.Split(s, ":")
	if len(parts) != 4 {
		return DistWeights{}, fmt.Errorf("engine: weight vector %q needs 4 components (md2u:depth:faults:yield), got %d", s, len(parts))
	}
	var vals [4]float64
	for i, p := range parts {
		v, err := strconv.ParseFloat(p, 64)
		if err != nil {
			return DistWeights{}, fmt.Errorf("engine: weight vector %q: bad component %q", s, p)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return DistWeights{}, fmt.Errorf("engine: weight vector %q: component %q must be finite and non-negative", s, p)
		}
		vals[i] = v
	}
	return DistWeights{MD2U: vals[0], Depth: vals[1], Faults: vals[2], Yield: vals[3]}, nil
}

// DistanceOptimized is KLEE's coverage-optimized searcher proper: with
// the default weights it ranks each candidate by the inverse square of
// its static minimum distance to uncovered code (md2u over the
// internal/cfg call-and-flow graph) and samples proportionally, steering
// workers toward states that are few branches away from lines nobody
// has covered yet — where CoverageOptimized rewards yield after the
// fact, this ranks by predicted yield before it. Other weight vectors
// mix in the depth, fault and yield features documented on DistWeights.
//
// It draws from the same Fenwick sampler as cov-opt, and each cached
// weight equals what the features give at the pick:
//   - A node is weighed at the first Select after its Add, not in Add: a
//     sibling cov-opt in an interleave may still set its inherited yield
//     (InheritYield) after this Add returns.
//   - The oracle's Epoch moves whenever a coverage delta (locally
//     executed lines or a global overlay merge) can move a distance; the
//     next Select then re-weighs the whole frontier.
//   - A global-coverage notice re-weighs too: a sibling cov-opt halves
//     the yields this strategy reads.
//
// Between those events a pick costs O(log n). Virtual nodes (path-only
// jobs not yet replayed) have no program state to locate and draw a
// neutral md2u feature, as does every node when no oracle was supplied
// (a Validate build).
type DistanceOptimized struct {
	weighted
	d *cfg.Distance
	w DistWeights
	// epoch is d's Epoch when the cached weights were taken; unweighed
	// holds the nodes filed since the last Select, at weight 0 until then.
	epoch     uint64
	unweighed []*tree.Node
}

// NewDistanceOptimized returns the member of the distance-weighted
// family with feature weights w, reading d (nil degrades the md2u
// feature to a constant). Bare "dist-opt" in the spec grammar is
// DefaultDistWeights; "dist-opt(w=...)" names any other member.
func NewDistanceOptimized(d *cfg.Distance, seed int64, w DistWeights) *DistanceOptimized {
	r := &DistanceOptimized{d: d, w: w}
	r.weighted = newWeighted(r.featWeight, seed)
	return r
}

// Name implements Strategy.
func (r *DistanceOptimized) Name() string { return "dist-opt" }

// Add implements Strategy.
func (r *DistanceOptimized) Add(n *tree.Node) {
	if _, dup := r.pos[n]; !dup {
		r.file(n, 0)
		r.unweighed = append(r.unweighed, n)
	}
}

// Select implements Strategy.
func (r *DistanceOptimized) Select() *tree.Node {
	r.takeWeights()
	return r.weighted.Select()
}

// takeWeights weighs the nodes filed since the last pick, or marks the
// whole frontier stale if the oracle moved since then.
func (r *DistanceOptimized) takeWeights() {
	if r.d != nil && r.d.Epoch() != r.epoch {
		r.epoch = r.d.Epoch()
		r.stale = true
	}
	if !r.stale {
		for _, n := range r.unweighed {
			if i, ok := r.pos[n]; ok {
				r.ws[i] = r.weight(n)
				r.refresh(i)
			}
		}
	}
	r.unweighed = r.unweighed[:0]
}

// NotifyGlobalCoverage implements GlobalCoverageAware.
func (r *DistanceOptimized) NotifyGlobalCoverage(newLines int) {
	if newLines > 0 {
		r.stale = true
	}
}

// virtualWeight is the md2u feature of a node whose distance is unknown
// — a virtual (not-yet-replayed) job, or any node when no oracle was
// supplied. It corresponds to assuming the state sits a few branches
// from uncovered code (md2u 4): below every genuinely near state, so a
// flood of imported virtual jobs cannot drown the nearly-there states
// this strategy exists to prioritize, yet far above the saturated
// residual, so transferred work still materializes ahead of dead ends.
const virtualWeight = 1.0 / 25 // 1/(1+4)²

// minFeatWeight keeps every candidate selectable whatever the vector:
// an all-zero (or saturated-feature) vector must
// degrade to uniform drain, not a division by zero or a starved node.
// It is also the md2u feature of a state that cannot reach uncovered
// code, so a saturated frontier still drains.
const minFeatWeight = 1e-9

// featWeight scores a candidate: the weight vector dotted with the four
// normalized features documented on DistWeights. The md2u feature is
// 1/(1+md2u)², the sharp preference for nearly-there states KLEE's md2u
// searcher uses.
func (r *DistanceOptimized) featWeight(n *tree.Node) float64 {
	md := virtualWeight
	if r.d != nil && n.State != nil {
		if dd := r.d.StateDist(n.State); dd >= cfg.Unreachable {
			md = minFeatWeight
		} else {
			f := float64(1 + dd)
			md = 1 / (f * f)
		}
	}
	score := r.w.MD2U * md
	score += r.w.Depth / (1 + float64(n.Depth)/8)
	score += r.w.Faults / float64(1+n.Faults)
	if y := n.CovYield; y > 0 {
		score += r.w.Yield * y / (1 + y)
	}
	if score < minFeatWeight {
		score = minFeatWeight
	}
	return score
}
