package search

import (
	"fmt"
	"maps"
	"math"
	"math/bits"
	"slices"

	"cloud9/internal/cfg"
	"cloud9/internal/tree"
)

// Classifier assigns a candidate node to a CUPA class. Implementations
// must be cheap (called once per Add) but need not be stable: CUPA
// records the class a node was filed under, so Remove never re-asks.
type Classifier interface {
	Name() string
	ClassOf(n *tree.Node) uint64
}

// plainClassifiers builds the classifiers that take no parameter, by
// spec name; depth, which takes one, is built by builder.classifier.
var plainClassifiers = map[string]func(b *builder) Classifier{
	"site":   func(*builder) Classifier { return site{} },
	"faults": func(*builder) Classifier { return faults{} },
	"yield":  func(*builder) Classifier { return yield{} },
	"dist":   func(b *builder) Classifier { return distBand{d: b.dist} },
}

// ClassifierNames lists the classifier names, sorted (the
// strategy-invariant tests sweep them).
func ClassifierNames() []string {
	names := append(slices.Collect(maps.Keys(plainClassifiers)), "depth")
	slices.Sort(names)
	return names
}

// classifier builds the classifier a cupa argument names. Only depth
// takes a ":N" parameter, its band width (8 without one).
func (b *builder) classifier(s *Spec) (Classifier, error) {
	if len(s.Args) > 0 {
		return nil, fmt.Errorf("search: classifier %q cannot take spec arguments", s.Name)
	}
	if s.Name == "depth" {
		width := 8
		if s.HasParam {
			width = s.Param
		}
		if width <= 0 {
			return nil, fmt.Errorf("search: depth band width must be positive, got %d", width)
		}
		return depthBand{width: width}, nil
	}
	ctor := plainClassifiers[s.Name]
	if ctor == nil {
		return nil, fmt.Errorf("search: unknown classifier %q (have %v)", s.Name, ClassifierNames())
	}
	if s.HasParam {
		return nil, fmt.Errorf("search: %s takes no parameter", s.Name)
	}
	return ctor(b), nil
}

// ---- Built-in classifiers ----

// depthBand buckets nodes by tree depth in bands of the given width:
// the class-uniform analog of test-depth partitioning. Drawing bands
// uniformly gives deep and shallow frontiers equal attention, whatever
// their population.
type depthBand struct{ width int }

func (d depthBand) Name() string { return fmt.Sprintf("depth:%d", d.width) }

func (d depthBand) ClassOf(n *tree.Node) uint64 {
	return uint64(n.Depth / d.width)
}

// site buckets nodes by the program location of their fork: function,
// basic block, and PC of the state's current thread. One exploding loop
// header then forms a single class instead of flooding the frontier.
// Virtual nodes (path-only jobs imported from peers, not yet replayed)
// have no program state; they fall back to a depth-band key in a
// disjoint key space so they still spread across classes.
type site struct{}

func (site) Name() string { return "site" }

func (site) ClassOf(n *tree.Node) uint64 {
	if s := n.State; s != nil {
		if th := s.Thread(s.Cur); th != nil && len(th.Stack) > 0 {
			f := th.Top()
			h := uint64(1469598103934665603)
			for i := 0; i < len(f.Fn.Name); i++ {
				h = (h ^ uint64(f.Fn.Name[i])) * 1099511628211
			}
			h = (h ^ uint64(f.Block)) * 1099511628211
			h = (h ^ uint64(f.PC)) * 1099511628211
			return h &^ (1 << 63)
		}
	}
	return (1 << 63) | uint64(n.Depth/8)<<8 | uint64(n.Choice)
}

// faults buckets nodes by the number of injected faults along their
// path, generalizing the fewest-faults sweep: classes are fault depths,
// drawn uniformly rather than lowest-first.
type faults struct{}

func (faults) Name() string { return "faults" }

func (faults) ClassOf(n *tree.Node) uint64 { return uint64(n.Faults) }

// yield buckets nodes by the log2 band of their inherited coverage
// yield (the node's CovYield, kept by the engine's coverage feedback):
// recently productive lineages land in high bands, exhausted ones in
// band 0, and uniform class selection keeps probing both.
type yield struct{}

func (yield) Name() string { return "yield" }

func (yield) ClassOf(n *tree.Node) uint64 {
	y := n.CovYield
	if y < 1 {
		return 0
	}
	return uint64(1 + int(math.Log2(y)))
}

// distBand buckets nodes by the log2 band of their static minimum
// distance to uncovered code (internal/cfg md2u): band 0 is "at an
// uncovered line", each further band doubles the distance, and states
// that cannot reach uncovered code form their own class. Uniform
// selection over bands keeps near-frontier states from monopolizing
// attention while still probing far-away lineages — the class-uniform
// rendering of KLEE's md2u heuristic. Virtual nodes (no program state
// to locate) and oracle-less builds (Validate against a throwaway
// tree) fall back to a depth band in a disjoint key space, the same
// escape hatch the site classifier uses.
type distBand struct{ d *cfg.Distance }

func (distBand) Name() string { return "dist" }

// CoverageSensitive marks the classifier for CUPA re-banding: md2u
// bands move whenever the coverage overlay grows.
func (distBand) CoverageSensitive() {}

func (c distBand) ClassOf(n *tree.Node) uint64 {
	if c.d == nil || n.State == nil {
		return (1 << 63) | uint64(n.Depth/8)<<8 | uint64(n.Choice)
	}
	dd := c.d.StateDist(n.State)
	if dd >= cfg.Unreachable {
		return 1 << 62
	}
	return uint64(bits.Len(uint(dd))) // 0; 1; 2-3; 4-7; ...
}
