// Package engine implements the single-node symbolic exploration loop:
// search strategies over the execution tree, candidate selection, job
// replay (materialization of virtual nodes), coverage accounting and
// test-case generation. The cluster layer drives one engine per worker.
package engine

import (
	"math/bits"
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
		d.stack[len(d.stack)-1] = nil // the spare capacity must not pin it
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
	if i, ok := c.pos[n]; ok {
		c.removeAt(i)
	}
}

// removeAt swap-deletes slot i: the last slot's node moves into it.
func (c *candidates) removeAt(i int) {
	n := c.nodes[i]
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
// function. Each slot of the candidate set caches its node's weight,
// taken once when the node is filed, and a Fenwick tree over the slots
// draws in O(log n): the total is a prefix sum, and a descent finds the
// first slot whose prefix sum reaches rng.Float64()·total — the slot a
// walk subtracting weights in slot order until the pick reaches zero
// would stop at, the last slot if rounding leaves the pick above every
// prefix. Remove swap-deletes as the candidate set does, moving the last
// slot's weight into the hole.
//
// A cached weight must equal what the weight function would return now.
// The embedder sets stale whenever an input moves under filed nodes
// (cov-opt's global decay, dist-opt's oracle); the next Select then
// re-weighs every slot in O(n), once per change instead of once per
// pick.
type weighted struct {
	candidates
	weight func(*tree.Node) float64
	rng    *rand.Rand
	ws     []float64 // ws[i] is nodes[i]'s cached weight
	// sums is the Fenwick tree over ws, 1-based (sums[0] is unused):
	// sums[j] holds ws[j-j&-j] + … + ws[j-1]. Every entry is recomputed
	// from its children by fix, never adjusted by a delta, so the tree
	// is a function of ws alone and no rounding residue accumulates.
	sums  []float64
	stale bool
}

func newWeighted(weight func(*tree.Node) float64, seed int64) weighted {
	return weighted{candidates: newCandidates(), weight: weight, rng: rand.New(rand.NewSource(seed)), sums: make([]float64, 1)}
}

// Add implements Strategy.
func (w *weighted) Add(n *tree.Node) {
	if _, dup := w.pos[n]; !dup {
		w.file(n, w.weight(n))
	}
}

// file appends n, which must not be filed yet, with cached weight x.
func (w *weighted) file(n *tree.Node, x float64) {
	w.pos[n] = len(w.nodes)
	w.nodes = append(w.nodes, n)
	w.ws = append(w.ws, x)
	w.sums = append(w.sums, 0)
	w.fix(len(w.ws))
}

// Remove implements Strategy.
func (w *weighted) Remove(n *tree.Node) {
	if i, ok := w.pos[n]; ok {
		w.removeAt(i)
	}
}

func (w *weighted) removeAt(i int) {
	last := len(w.ws) - 1
	w.ws[i] = w.ws[last]
	w.ws, w.sums = w.ws[:last], w.sums[:last+1]
	if i < last {
		w.refresh(i)
	}
	w.candidates.removeAt(i)
}

// fix recomputes sums[j] from ws[j-1] and the entries of j's children
// j-1, j-2, j-4, … below j's lowest set bit.
func (w *weighted) fix(j int) {
	s := w.ws[j-1]
	for k := 1; k < j&-j; k <<= 1 {
		s += w.sums[j-k]
	}
	w.sums[j] = s
}

// refresh recomputes the entries covering slot i after ws[i] changed:
// O(log n) entries, each summing at most log n children.
func (w *weighted) refresh(i int) {
	for j := i + 1; j < len(w.sums); j += j & -j {
		w.fix(j)
	}
}

// reweigh takes every slot's weight afresh and rebuilds the tree.
func (w *weighted) reweigh() {
	for i, n := range w.nodes {
		w.ws[i] = w.weight(n)
	}
	for j := 1; j < len(w.sums); j++ {
		w.fix(j)
	}
	w.stale = false
}

// draw returns the slot of a weighted random pick from a non-empty set.
func (w *weighted) draw() int {
	n := len(w.ws)
	total := 0.0
	for j := n; j > 0; j &= j - 1 {
		total += w.sums[j]
	}
	pick := w.rng.Float64() * total
	// pos counts the leading slots whose prefix sum stays below the pick.
	pos := 0
	for step := 1 << (bits.Len(uint(n)) - 1); step > 0; step >>= 1 {
		if j := pos + step; j <= n && w.sums[j] < pick {
			pos = j
			pick -= w.sums[j]
		}
	}
	return min(pos, n-1)
}

// Select implements Strategy.
func (w *weighted) Select() *tree.Node {
	if w.stale {
		w.reweigh()
	}
	for len(w.nodes) > 0 {
		i := w.draw()
		chosen := w.nodes[i]
		w.removeAt(i)
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
		// (KLEE's random-path gives each subtree equal probability). The
		// first few live children are kept on the stack, so the usual
		// narrow fork reads each child once; a wider one walks again for
		// the j-th.
		var first [4]*tree.Node
		live := 0
		for _, ch := range n.Children {
			if hasCandidates(ch) {
				if live < len(first) {
					first[live] = ch
				}
				live++
			}
		}
		if live == 0 {
			return nil
		}
		j := r.rng.Intn(live)
		if j < len(first) {
			n = first[j]
			continue
		}
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
// none yet, so a node filed more than once (cupa files it, then its
// inner strategy does) keeps the yield it was given first. The yield
// itself is credited once, by the explorer (exploreNode), not per
// strategy.
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
// elsewhere), so every tracked yield decays by half. The weight is
// 1 + yield, not a multiple of it, so the cached weights are re-taken at
// the next Select rather than scaled.
func (c *CoverageOptimized) NotifyGlobalCoverage(newLines int) {
	if newLines == 0 {
		return
	}
	for _, n := range c.nodes {
		n.CovYield /= 2
	}
	c.stale = true
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
// path, yielding the uniform fault-depth sweep described in §7.3.3. Each
// fault count is a BFS queue, so a bucket drains first-in first-out and
// Remove is BFS's O(1) tombstone — Interleaved calls it on every pick.
type FewestFaults struct {
	buckets map[int]*BFS
	min     int
}

// NewFewestFaults returns the fault-injection-oriented strategy.
func NewFewestFaults() *FewestFaults {
	return &FewestFaults{buckets: map[int]*BFS{}}
}

// Name implements Strategy.
func (f *FewestFaults) Name() string { return "fewest-faults" }

// Add implements Strategy.
func (f *FewestFaults) Add(n *tree.Node) {
	k := int(n.Faults)
	b := f.buckets[k]
	if b == nil {
		b = NewBFS()
		f.buckets[k] = b
	}
	b.Add(n)
	if len(f.buckets) == 1 || k < f.min {
		f.min = k
	}
}

// Remove implements Strategy.
func (f *FewestFaults) Remove(n *tree.Node) {
	if b := f.buckets[int(n.Faults)]; b != nil {
		b.Remove(n)
	}
}

// Select implements Strategy.
func (f *FewestFaults) Select() *tree.Node {
	for k := f.min; k < f.min+1024; k++ {
		if b := f.buckets[k]; b != nil {
			if n := b.Select(); n != nil {
				f.min = k
				return n
			}
		}
	}
	return nil
}

// NotifyCoverage implements Strategy.
func (f *FewestFaults) NotifyCoverage(*tree.Node, int) {}
