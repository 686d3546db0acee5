package search

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync"

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

// ClassifierCtor builds a classifier from the enclosing Builder (which
// carries the worker context some classifiers need, e.g. the distance
// oracle) and its optional integer parameter ("depth:4" → param=4,
// hasParam=true).
type ClassifierCtor func(b *Builder, param int, hasParam bool) (Classifier, error)

var (
	classifierMu  sync.RWMutex
	classifierReg = map[string]ClassifierCtor{}
)

// RegisterClassifier adds a classifier constructor under a spec name.
// Registering an existing name replaces it (tests override built-ins).
func RegisterClassifier(name string, ctor ClassifierCtor) {
	classifierMu.Lock()
	defer classifierMu.Unlock()
	classifierReg[name] = ctor
}

// classifierByName resolves a registered classifier.
func classifierByName(b *Builder, name string, param int, hasParam bool) (Classifier, error) {
	classifierMu.RLock()
	ctor := classifierReg[name]
	classifierMu.RUnlock()
	if ctor == nil {
		return nil, fmt.Errorf("search: unknown classifier %q (have %v)", name, ClassifierNames())
	}
	return ctor(b, param, hasParam)
}

// isClassifier reports whether name is registered as a classifier.
func isClassifier(name string) bool {
	classifierMu.RLock()
	defer classifierMu.RUnlock()
	_, ok := classifierReg[name]
	return ok
}

// ClassifierNames lists the registered classifier names, sorted (the
// strategy-invariant tests sweep them so new classifiers are covered
// the moment they register).
func ClassifierNames() []string {
	classifierMu.RLock()
	defer classifierMu.RUnlock()
	names := make([]string, 0, len(classifierReg))
	for n := range classifierReg {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
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
		if th := s.Threads[s.Cur]; th != nil && len(th.Stack) > 0 {
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

func init() {
	RegisterClassifier("depth", func(_ *Builder, param int, hasParam bool) (Classifier, error) {
		if !hasParam {
			param = 8
		}
		if param <= 0 {
			return nil, fmt.Errorf("search: depth band width must be positive, got %d", param)
		}
		return depthBand{width: param}, nil
	})
	RegisterClassifier("site", func(_ *Builder, param int, hasParam bool) (Classifier, error) {
		if hasParam {
			return nil, fmt.Errorf("search: site takes no parameter")
		}
		return site{}, nil
	})
	RegisterClassifier("faults", func(_ *Builder, param int, hasParam bool) (Classifier, error) {
		if hasParam {
			return nil, fmt.Errorf("search: faults takes no parameter")
		}
		return faults{}, nil
	})
	RegisterClassifier("yield", func(_ *Builder, param int, hasParam bool) (Classifier, error) {
		if hasParam {
			return nil, fmt.Errorf("search: yield takes no parameter")
		}
		return yield{}, nil
	})
	RegisterClassifier("dist", func(b *Builder, param int, hasParam bool) (Classifier, error) {
		if hasParam {
			return nil, fmt.Errorf("search: dist takes no parameter")
		}
		return distBand{d: b.Dist}, nil
	})
}
