// Package engine implements the single-node symbolic exploration loop:
// search strategies over the execution tree, candidate selection, job
// replay (materialization of virtual nodes), coverage accounting and
// test-case generation. The cluster layer drives one engine per worker.
package engine

import (
	"math/rand"

	"cloud9/internal/tree"
)

// Strategy picks the next candidate node to explore. Implementations are
// the policies of §3.3; the tree/worker mechanics are the mechanism.
type Strategy interface {
	Name() string
	// Add registers a new candidate node.
	Add(n *tree.Node)
	// Remove unregisters a node (explored, transferred, or dead).
	Remove(n *tree.Node)
	// Select returns the next node to explore (nil when empty).
	Select() *tree.Node
	// NotifyCoverage informs the strategy that exploring n yielded
	// newLines newly covered lines (coverage-optimized uses this).
	NotifyCoverage(n *tree.Node, newLines int)
}

// GlobalCoverageAware is implemented by strategies that adapt to
// cluster-wide coverage growth: the worker forwards the number of lines
// newly ORed into its local vector from the global overlay (§3.3's
// global strategy portal), so a coverage-driven policy can discount
// yield that the rest of the cluster has already banked.
type GlobalCoverageAware interface {
	NotifyGlobalCoverage(newLines int)
}

// ---- DFS ----

// DFS explores deepest-first (a stack). Low memory, poor diversity.
// Remove is O(1): the position index tombstones the slot (set to nil)
// instead of scanning and splicing — under heavy job transfer every
// export used to pay a linear scan, quadratic in the frontier size.
type DFS struct {
	stack []*tree.Node
	pos   map[*tree.Node]int
}

// NewDFS returns a depth-first strategy.
func NewDFS() *DFS { return &DFS{pos: map[*tree.Node]int{}} }

// Name implements Strategy.
func (d *DFS) Name() string { return "dfs" }

// Add implements Strategy.
func (d *DFS) Add(n *tree.Node) {
	d.pos[n] = len(d.stack)
	d.stack = append(d.stack, n)
}

// Remove implements Strategy.
func (d *DFS) Remove(n *tree.Node) {
	if i, ok := d.pos[n]; ok {
		d.stack[i] = nil
		delete(d.pos, n)
	}
}

// Select implements Strategy.
func (d *DFS) Select() *tree.Node {
	for len(d.stack) > 0 {
		n := d.stack[len(d.stack)-1]
		d.stack = d.stack[:len(d.stack)-1]
		if n == nil {
			continue // tombstone of a removed node
		}
		delete(d.pos, n)
		if n.IsCandidate() {
			return n
		}
	}
	return nil
}

// NotifyCoverage implements Strategy.
func (d *DFS) NotifyCoverage(*tree.Node, int) {}

// ---- BFS ----

// BFS explores shallowest-first (a queue). Remove tombstones via the
// position index (same O(1) trick as DFS); the head cursor advances
// without reslicing so indices stay valid, and the buffer is compacted
// once the consumed prefix dominates it.
type BFS struct {
	queue []*tree.Node
	head  int
	pos   map[*tree.Node]int
}

// NewBFS returns a breadth-first strategy.
func NewBFS() *BFS { return &BFS{pos: map[*tree.Node]int{}} }

// Name implements Strategy.
func (b *BFS) Name() string { return "bfs" }

// Add implements Strategy.
func (b *BFS) Add(n *tree.Node) {
	b.pos[n] = len(b.queue)
	b.queue = append(b.queue, n)
}

// Remove implements Strategy.
func (b *BFS) Remove(n *tree.Node) {
	if i, ok := b.pos[n]; ok {
		b.queue[i] = nil
		delete(b.pos, n)
	}
}

// compact drops the consumed prefix, shifting indices down (amortized
// O(1) per operation: it runs only when half the buffer is dead).
func (b *BFS) compact() {
	if b.head < 1024 || b.head < len(b.queue)/2 {
		return
	}
	b.queue = append(b.queue[:0], b.queue[b.head:]...)
	for n, i := range b.pos {
		b.pos[n] = i - b.head
	}
	b.head = 0
}

// Select implements Strategy.
func (b *BFS) Select() *tree.Node {
	for b.head < len(b.queue) {
		n := b.queue[b.head]
		b.queue[b.head] = nil
		b.head++
		if n == nil {
			continue // tombstone of a removed node
		}
		delete(b.pos, n)
		if n.IsCandidate() {
			b.compact()
			return n
		}
	}
	b.queue = b.queue[:0]
	b.head = 0
	return nil
}

// NotifyCoverage implements Strategy.
func (b *BFS) NotifyCoverage(*tree.Node, int) {}

// ---- Candidate set ----

// candidates is the indexed candidate set the sampling strategies embed:
// a slice to draw from by index and a position map, so Add (idempotent)
// and Remove (swap-delete; unknown nodes are a no-op) are O(1).
type candidates struct {
	nodes []*tree.Node
	pos   map[*tree.Node]int
}

func newCandidates() candidates { return candidates{pos: map[*tree.Node]int{}} }

// Add implements Strategy.
func (c *candidates) Add(n *tree.Node) {
	if _, dup := c.pos[n]; dup {
		return
	}
	c.pos[n] = len(c.nodes)
	c.nodes = append(c.nodes, n)
}

// Remove implements Strategy.
func (c *candidates) Remove(n *tree.Node) {
	i, ok := c.pos[n]
	if !ok {
		return
	}
	last := len(c.nodes) - 1
	c.nodes[i] = c.nodes[last]
	c.pos[c.nodes[i]] = i
	c.nodes = c.nodes[:last]
	delete(c.pos, n)
}

// NotifyCoverage implements Strategy (yield lives on the node).
func (c *candidates) NotifyCoverage(*tree.Node, int) {}

// ---- Uniform random ----

// Random picks a uniformly random candidate.
type Random struct {
	candidates
	rng *rand.Rand
}

// NewRandom returns a uniform-random strategy.
func NewRandom(seed int64) *Random {
	return &Random{candidates: newCandidates(), rng: rand.New(rand.NewSource(seed))}
}

// Name implements Strategy.
func (r *Random) Name() string { return "random" }

// Select implements Strategy.
func (r *Random) Select() *tree.Node {
	for len(r.nodes) > 0 {
		n := r.nodes[r.rng.Intn(len(r.nodes))]
		r.Remove(n)
		if n.IsCandidate() {
			return n
		}
	}
	return nil
}

// ---- Weighted sampling ----

// weighted draws a candidate with probability proportional to a weight
// function. Each pick evaluates every weight once into a reused scratch
// slice, then sums and walks it in slice order: linear in the frontier,
// allocation-free once the scratch has grown to it.
type weighted struct {
	candidates
	weight  func(*tree.Node) float64
	rng     *rand.Rand
	scratch []float64
}

func newWeighted(weight func(*tree.Node) float64, seed int64) weighted {
	return weighted{candidates: newCandidates(), weight: weight, rng: rand.New(rand.NewSource(seed))}
}

// Select implements Strategy.
func (w *weighted) Select() *tree.Node {
	for len(w.nodes) > 0 {
		ws, total := w.scratch[:0], 0.0
		for _, n := range w.nodes {
			x := w.weight(n)
			ws = append(ws, x)
			total += x
		}
		w.scratch = ws
		pick := w.rng.Float64() * total
		chosen := w.nodes[len(w.nodes)-1] // kept if rounding leaves pick above zero
		for i, x := range ws {
			pick -= x
			if pick <= 0 {
				chosen = w.nodes[i]
				break
			}
		}
		w.Remove(chosen)
		if chosen.IsCandidate() {
			return chosen
		}
	}
	return nil
}

// ---- Random path ----

// RandomPath walks the tree from the root, choosing a random child with
// candidates below it, until reaching a candidate — KLEE's random-path
// searcher. It favors shallow, rarely visited subtrees, countering the
// depth bias of per-state uniform selection.
type RandomPath struct {
	t   *tree.Tree
	rng *rand.Rand
}

// NewRandomPath returns a random-path strategy over t.
func NewRandomPath(t *tree.Tree, seed int64) *RandomPath {
	return &RandomPath{t: t, rng: rand.New(rand.NewSource(seed))}
}

// Name implements Strategy.
func (r *RandomPath) Name() string { return "random-path" }

// Add implements Strategy (tree counters already track candidates).
func (r *RandomPath) Add(*tree.Node) {}

// Remove implements Strategy.
func (r *RandomPath) Remove(*tree.Node) {}

// Select implements Strategy.
func (r *RandomPath) Select() *tree.Node {
	n := r.t.Root
	if n.NumCandidatesBelow() == 0 {
		return nil
	}
	for {
		if n.IsCandidate() {
			return n
		}
		// Choose among children with candidates, weighted equally
		// (KLEE's random-path gives each subtree equal probability).
		live := 0
		for _, ch := range n.Children {
			if hasCandidates(ch) {
				live++
			}
		}
		if live == 0 {
			return nil
		}
		// The j-th live child, without a slice of them per level.
		j := r.rng.Intn(live)
		for _, ch := range n.Children {
			if hasCandidates(ch) {
				if j == 0 {
					n = ch
					break
				}
				j--
			}
		}
	}
}

func hasCandidates(ch *tree.Node) bool { return ch != nil && ch.NumCandidatesBelow() > 0 }

// NotifyCoverage implements Strategy.
func (r *RandomPath) NotifyCoverage(*tree.Node, int) {}

// ---- Coverage-optimized ----

// CoverageOptimized weights candidates by how productive their lineage
// has been at uncovering new lines, then samples proportionally —
// an adaptation of KLEE's coverage-optimized searcher to a setting
// without static CFG distances (documented substitution: the paper
// weighs states by estimated distance to an uncovered line; we weigh by
// observed recent coverage yield, which drives the same feedback loop).
type CoverageOptimized struct{ weighted }

// NewCoverageOptimized returns a coverage-feedback strategy.
func NewCoverageOptimized(seed int64) *CoverageOptimized {
	return &CoverageOptimized{newWeighted(func(n *tree.Node) float64 { return 1 + n.CovYield }, seed)}
}

// Name implements Strategy.
func (c *CoverageOptimized) Name() string { return "cov-opt" }

// InheritYield starts a newly filed candidate at half its parent's
// coverage yield, decaying stale signal — but only when the node has
// none yet: re-Adds (a SetStrategy re-seed) must not overwrite yield
// that global decay has already discounted. The yield itself is
// credited once, by the explorer (exploreNode), not per strategy.
func InheritYield(n *tree.Node) {
	if n.CovYield == 0 && n.Parent != nil {
		n.CovYield = n.Parent.CovYield / 2
	}
}

// Add implements Strategy.
func (c *CoverageOptimized) Add(n *tree.Node) {
	InheritYield(n)
	c.weighted.Add(n)
}

// NotifyGlobalCoverage implements GlobalCoverageAware: when the rest of
// the cluster covers new lines, locally accumulated yield is partly
// stale (those lineages may be chasing lines already covered
// elsewhere), so every tracked weight decays by half.
func (c *CoverageOptimized) NotifyGlobalCoverage(newLines int) {
	if newLines == 0 {
		return
	}
	for _, n := range c.nodes {
		n.CovYield /= 2
	}
}

// ---- Interleaved ----

// Interleaved alternates between strategies on successive selections —
// the configuration the paper's evaluation uses (random-path
// interleaved with coverage-optimized, §7).
type Interleaved struct {
	subs []Strategy
	next int
}

// NewInterleaved combines strategies round-robin.
func NewInterleaved(subs ...Strategy) *Interleaved { return &Interleaved{subs: subs} }

// Name implements Strategy.
func (i *Interleaved) Name() string { return "interleaved" }

// Add implements Strategy.
func (i *Interleaved) Add(n *tree.Node) {
	for _, s := range i.subs {
		s.Add(n)
	}
}

// Remove implements Strategy.
func (i *Interleaved) Remove(n *tree.Node) {
	for _, s := range i.subs {
		s.Remove(n)
	}
}

// Select implements Strategy.
func (i *Interleaved) Select() *tree.Node {
	for tries := 0; tries < len(i.subs); tries++ {
		s := i.subs[i.next]
		i.next = (i.next + 1) % len(i.subs)
		if n := s.Select(); n != nil {
			// Keep the other strategies' bookkeeping consistent.
			for _, o := range i.subs {
				if o != s {
					o.Remove(n)
				}
			}
			return n
		}
	}
	return nil
}

// NotifyCoverage implements Strategy.
func (i *Interleaved) NotifyCoverage(n *tree.Node, newLines int) {
	for _, s := range i.subs {
		s.NotifyCoverage(n, newLines)
	}
}

// NotifyGlobalCoverage implements GlobalCoverageAware, forwarding to
// every sub-strategy that cares (the engine default interleaves
// cov-opt, whose yield decay would otherwise never fire in a cluster).
func (i *Interleaved) NotifyGlobalCoverage(newLines int) {
	for _, s := range i.subs {
		if g, ok := s.(GlobalCoverageAware); ok {
			g.NotifyGlobalCoverage(newLines)
		}
	}
}

// ---- Fewest-faults-first (Table 5 fault-injection experiment) ----

// FewestFaults prioritizes states with fewer injected faults along their
// path, yielding the uniform fault-depth sweep described in §7.3.3.
type FewestFaults struct {
	buckets map[int][]*tree.Node
	min     int
}

// NewFewestFaults returns the fault-injection-oriented strategy.
func NewFewestFaults() *FewestFaults {
	return &FewestFaults{buckets: map[int][]*tree.Node{}}
}

// Name implements Strategy.
func (f *FewestFaults) Name() string { return "fewest-faults" }

// Add implements Strategy.
func (f *FewestFaults) Add(n *tree.Node) {
	k := int(n.Faults)
	f.buckets[k] = append(f.buckets[k], n)
	if len(f.buckets) == 1 || k < f.min {
		f.min = k
	}
}

// Remove implements Strategy.
func (f *FewestFaults) Remove(n *tree.Node) {
	k := int(n.Faults)
	b := f.buckets[k]
	for i, c := range b {
		if c == n {
			f.buckets[k] = append(b[:i], b[i+1:]...)
			return
		}
	}
}

// Select implements Strategy.
func (f *FewestFaults) Select() *tree.Node {
	for k := f.min; k < f.min+1024; k++ {
		b := f.buckets[k]
		for len(b) > 0 {
			n := b[0]
			b = b[1:]
			f.buckets[k] = b
			if n.IsCandidate() {
				f.min = k
				return n
			}
		}
	}
	return nil
}

// NotifyCoverage implements Strategy.
func (f *FewestFaults) NotifyCoverage(*tree.Node, int) {}
