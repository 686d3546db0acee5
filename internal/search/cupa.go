package search

import (
	"math/rand"

	"cloud9/internal/engine"
	"cloud9/internal/tree"
)

// cupaClass is one equivalence class of candidates: a private inner
// strategy plus the number of entries filed into it. Empty classes keep
// their inner strategy so a class that refills reuses its bookkeeping.
type cupaClass struct {
	inner engine.Strategy
	count int
}

// CUPA is the class-uniform strategy (§3.3's "strategy portfolio
// interface" instantiated with class-uniform path analysis): candidates
// are partitioned by a Classifier, Select draws a non-empty class
// uniformly, then delegates within the class to an inner strategy.
// All operations are O(1) amortized: classes live in a map, the
// non-empty class keys in an indexed set, and each node remembers its
// class so Remove never re-classifies.
//
// Layering nests: an inner constructor may itself build a CUPA, giving
// e.g. site→depth two-level selection.
type CUPA struct {
	cls      Classifier
	newInner func() engine.Strategy
	name     string
	rng      *rand.Rand

	classes map[uint64]*cupaClass
	keys    indexed[uint64] // keys of non-empty classes
	where   map[*tree.Node]uint64

	// Coverage-sensitive classifiers (dist: md2u bands move as the
	// overlay grows) have their nodes re-banded on coverage growth; a
	// deterministic node order (an indexed set, never a map walk) keeps
	// the re-banding — and thus every later lazy inner construction and
	// rng draw — reproducible for the lock-step sim. Only those
	// classifiers pay for tracking it.
	covSensitive bool
	needReband   bool
	order        indexed[*tree.Node]
}

// indexed is a set whose members also sit in a slice, for O(1) draws by
// index and an iteration order fixed by the add/remove history: add is
// idempotent, remove swap-deletes and ignores non-members.
type indexed[K comparable] struct {
	items []K
	pos   map[K]int
}

func newIndexed[K comparable]() indexed[K] { return indexed[K]{pos: map[K]int{}} }

func (s *indexed[K]) add(k K) {
	if _, ok := s.pos[k]; ok {
		return
	}
	s.pos[k] = len(s.items)
	s.items = append(s.items, k)
}

func (s *indexed[K]) remove(k K) {
	i, ok := s.pos[k]
	if !ok {
		return
	}
	last := len(s.items) - 1
	s.items[i] = s.items[last]
	s.pos[s.items[i]] = i
	s.items = s.items[:last]
	delete(s.pos, k)
}

// CoverageSensitive marks classifiers whose ClassOf depends on the
// coverage overlay: CUPA re-banding (see NotifyGlobalCoverage) runs
// only for these, so stable classifiers (depth, site) never pay a
// frontier scan.
type CoverageSensitive interface {
	CoverageSensitive()
}

// NewCUPA builds a class-uniform strategy over cls delegating to inner
// strategies built by newInner (one per class, created on first use).
func NewCUPA(cls Classifier, newInner func() engine.Strategy, seed int64) *CUPA {
	_, covSensitive := cls.(CoverageSensitive)
	return &CUPA{
		cls:          cls,
		newInner:     newInner,
		name:         "cupa(" + cls.Name() + ")",
		rng:          rand.New(rand.NewSource(seed)),
		classes:      map[uint64]*cupaClass{},
		keys:         newIndexed[uint64](),
		where:        map[*tree.Node]uint64{},
		covSensitive: covSensitive,
		order:        newIndexed[*tree.Node](),
	}
}

// Name implements engine.Strategy.
func (c *CUPA) Name() string { return c.name }

// NumClasses returns the number of currently non-empty classes.
func (c *CUPA) NumClasses() int { return len(c.keys.items) }

// Add implements engine.Strategy.
func (c *CUPA) Add(n *tree.Node) {
	if _, dup := c.where[n]; dup {
		return
	}
	// Before classifying, so the yield classifier (and cov-opt inners)
	// see the inherited signal whatever the nesting.
	engine.InheritYield(n)
	k := c.cls.ClassOf(n)
	cl := c.classes[k]
	if cl == nil {
		cl = &cupaClass{inner: c.newInner()}
		c.classes[k] = cl
	}
	cl.inner.Add(n)
	cl.count++
	c.where[n] = k
	c.keys.add(k)
	if c.covSensitive {
		c.order.add(n)
	}
}

// reband re-files every tracked node whose class key moved — md2u
// bands shift as coverage grows, and a node banded "next to uncovered
// code" at Add time must not keep that class's selection share after
// the region saturates. Coverage notifications only mark the need; the
// scan runs once at the next Select, so a burst of MsgCoverage deltas
// drained in one mailbox pass costs one frontier pass, not one per
// message. Iteration follows the deterministic order slice, so lazy
// inner construction and seed draws stay reproducible.
func (c *CUPA) reband() {
	if !c.needReband {
		return
	}
	c.needReband = false
	for _, n := range c.order.items {
		k := c.where[n]
		k2 := c.cls.ClassOf(n)
		if k2 == k {
			continue
		}
		cl := c.classes[k]
		cl.inner.Remove(n)
		cl.count--
		if cl.count <= 0 {
			cl.count = 0
			c.keys.remove(k)
		}
		dst := c.classes[k2]
		if dst == nil {
			dst = &cupaClass{inner: c.newInner()}
			c.classes[k2] = dst
		}
		dst.inner.Add(n)
		dst.count++
		c.where[n] = k2
		c.keys.add(k2)
	}
}

// Remove implements engine.Strategy. Unknown nodes are a no-op.
func (c *CUPA) Remove(n *tree.Node) {
	k, ok := c.where[n]
	if !ok {
		return
	}
	delete(c.where, n)
	c.order.remove(n)
	cl := c.classes[k]
	cl.inner.Remove(n)
	cl.count--
	if cl.count <= 0 {
		cl.count = 0
		c.keys.remove(k)
	}
}

// Select implements engine.Strategy: uniform over non-empty classes,
// then the class's inner policy.
func (c *CUPA) Select() *tree.Node {
	c.reband()
	for len(c.keys.items) > 0 {
		k := c.keys.items[c.rng.Intn(len(c.keys.items))]
		cl := c.classes[k]
		n := cl.inner.Select()
		if n == nil {
			// The inner consumed its remaining entries as stale; retire
			// the class until something is filed into it again.
			cl.count = 0
			c.keys.remove(k)
			continue
		}
		cl.count--
		if cl.count <= 0 {
			cl.count = 0
			c.keys.remove(k)
		}
		delete(c.where, n)
		c.order.remove(n)
		if n.IsCandidate() {
			return n
		}
	}
	return nil
}

// NotifyCoverage implements engine.Strategy. The node's CovYield that
// the yield classifier and cov-opt inners read is credited once by the
// explorer; crediting it here too would double-count whenever two
// coverage-aware strategies share the node (interleave siblings).
// Locally covered lines do move md2u bands, though, so a coverage-
// sensitive classifier re-bands its frontier.
func (c *CUPA) NotifyCoverage(_ *tree.Node, newLines int) {
	if newLines > 0 && c.covSensitive {
		c.needReband = true
	}
}

// NotifyGlobalCoverage implements engine.GlobalCoverageAware: global
// overlay growth is forwarded to every non-empty class's inner (nested
// CUPAs and cov-opt inners decay their local yield signal — lines the
// rest of the cluster just covered are no longer new here), and a
// coverage-sensitive classifier re-bands the frontier (a node filed
// "next to uncovered code" must lose that class once the cluster
// saturates the region).
func (c *CUPA) NotifyGlobalCoverage(newLines int) {
	if newLines > 0 && c.covSensitive {
		c.needReband = true
	}
	for _, k := range c.keys.items {
		if g, ok := c.classes[k].inner.(engine.GlobalCoverageAware); ok {
			g.NotifyGlobalCoverage(newLines)
		}
	}
}
