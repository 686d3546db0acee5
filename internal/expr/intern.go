package expr

// Hash consing. Every expression node is interned at construction time in
// a global sharded table, so structurally equal expressions are always the
// same pointer. Each node is stamped, once, with
//
//   - its structural hash (computed from the children's already-cached
//     hashes, so stamping is O(1) per node),
//   - its occurrence-counted node count (saturating), and
//   - a summary of its free variables (VarSet below).
//
// This is what makes the solver's caches cheap: Hash() is a field read,
// Equal() is a pointer comparison, and independence partitioning reads
// per-node variable summaries instead of re-walking the DAG.
//
// Workers in one process (cluster.Run, the tests) construct expressions
// concurrently, and nearly every construction is a hit, so a hit takes no
// lock. The table is 64 shards keyed by the low hash bits; each is an
// insert-only, open-addressed array of atomic node pointers, probed
// linearly from the bits above. A hit is atomic loads of the shard's
// array and its slots, a hash compare and matches, and one atomic add to
// the shard's hit counter. A miss takes the shard's mutex, probes again
// and publishes the new node; at load one half it first builds an array
// twice the size and publishes that. A slot is never cleared, so a probe
// on an older array can only miss, and the locked probe then finds the
// node. Past internShardCap nodes a shard stops publishing. The table
// lives for the process lifetime; that matches Cloud9's
// per-worker-process model, where the expression population is bounded
// by the constraint population of the explored subtree.

import (
	"math"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
)

func popcount64(w uint64) int { return bits.OnesCount64(w) }

func sortIDs(ids []uint64) { slices.Sort(ids) }

// VarSet is an immutable summary of the distinct free variables of an
// expression: a 64-bit inline bitset for ids 0..63 (the overwhelmingly
// common case — symbolic inputs are small byte buffers) plus a sorted
// spill slice for larger ids. VarSets are shared between parent and child
// nodes whenever one side's set covers the merge, so most interior nodes
// carry a pointer to a set allocated far below them.
type VarSet struct {
	lo uint64   // bitset of ids 0..63
	hi []uint64 // sorted distinct ids >= 64
	n  int      // total distinct ids
}

var emptyVarSet = &VarSet{}

// Len returns the number of distinct variables in the set.
func (s *VarSet) Len() int { return s.n }

// Empty reports whether the set contains no variables.
func (s *VarSet) Empty() bool { return s.n == 0 }

// Has reports whether id is in the set.
func (s *VarSet) Has(id uint64) bool {
	if id < 64 {
		return s.lo&(1<<id) != 0
	}
	lo, hi := 0, len(s.hi)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.hi[mid] < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(s.hi) && s.hi[lo] == id
}

// Intersects reports whether the two sets share any variable.
func (s *VarSet) Intersects(o *VarSet) bool {
	if s.lo&o.lo != 0 {
		return true
	}
	a, b := s.hi, o.hi
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			return true
		}
	}
	return false
}

// AppendIDs appends the set's variable ids to dst in ascending order.
func (s *VarSet) AppendIDs(dst []uint64) []uint64 {
	w := s.lo
	for w != 0 {
		dst = append(dst, uint64(bits.TrailingZeros64(w)))
		w &= w - 1
	}
	return append(dst, s.hi...)
}

// Union returns the union of the two sets, sharing an input set's
// pointer whenever it already covers the union (see mergeVarSets). The
// solver's incremental independence partition unions constraint
// summaries when groups merge.
func (s *VarSet) Union(o *VarSet) *VarSet {
	if s == nil {
		return o
	}
	if o == nil {
		return s
	}
	return mergeVarSets(s, o)
}

// subsetOf reports a ⊆ b.
func subsetOf(a, b *VarSet) bool {
	if a.lo&^b.lo != 0 {
		return false
	}
	if len(a.hi) > len(b.hi) {
		return false
	}
	j := 0
	for _, id := range a.hi {
		for j < len(b.hi) && b.hi[j] < id {
			j++
		}
		if j >= len(b.hi) || b.hi[j] != id {
			return false
		}
		j++
	}
	return true
}

// mergeVarSets returns the union of a and b, sharing an input set's
// pointer whenever it already covers the union.
func mergeVarSets(a, b *VarSet) *VarSet {
	if a.n == 0 || a == b {
		return b
	}
	if b.n == 0 {
		return a
	}
	if subsetOf(b, a) {
		return a
	}
	if subsetOf(a, b) {
		return b
	}
	lo := a.lo | b.lo
	hi := make([]uint64, 0, len(a.hi)+len(b.hi))
	i, j := 0, 0
	for i < len(a.hi) && j < len(b.hi) {
		switch {
		case a.hi[i] < b.hi[j]:
			hi = append(hi, a.hi[i])
			i++
		case a.hi[i] > b.hi[j]:
			hi = append(hi, b.hi[j])
			j++
		default:
			hi = append(hi, a.hi[i])
			i, j = i+1, j+1
		}
	}
	hi = append(hi, a.hi[i:]...)
	hi = append(hi, b.hi[j:]...)
	return &VarSet{lo: lo, hi: hi, n: bits.OnesCount64(lo) + len(hi)}
}

func hashString(s string) uint64 {
	h := uint64(fnvOffset)
	for i := 0; i < len(s); i++ {
		h = mix(h, uint64(s[i]))
	}
	return h
}

// hashParts computes the structural hash of a node described by its
// parts, from the children's already-cached hashes. It must agree with
// Expr.DeepHash. The name participates in identity for variables (Equal
// distinguishes it), so it participates in the hash.
func hashParts(op Op, w Width, val uint64, name string, kids []*Expr) uint64 {
	h := uint64(fnvOffset)
	h = mix(h, uint64(op))
	h = mix(h, uint64(w))
	h = mix(h, val)
	if op == OpVar {
		h = mix(h, hashString(name))
	}
	for _, k := range kids {
		h = mix(h, k.hash)
	}
	return h
}

// matches reports whether the interned node e describes the same
// structure as the parts. Children are compared by pointer: they are
// interned before their parents, so pointer identity is structural
// identity.
func (e *Expr) matches(op Op, w Width, val uint64, name string, kids []*Expr) bool {
	if e.op != op || e.width != w || e.val != val || len(e.kids) != len(kids) {
		return false
	}
	if op == OpVar && e.name != name {
		return false
	}
	for i := range kids {
		if e.kids[i] != kids[i] {
			return false
		}
	}
	return true
}

const (
	internShardCount = 64 // power of two; indexed by low hash bits
	internShardBits  = 6  // log2(internShardCount): slot probes use the bits above
	internMinSlots   = 64 // a shard's first table
	cacheLine        = 64
)

// internShardCap bounds the published node population per shard (~4M
// nodes total). The solver's substitution loops create transient residual
// expressions per partial assignment; without a bound, every residual
// ever formed would be retained for the process lifetime. Past the cap,
// intern degrades gracefully: nodes are still stamped (Hash/FreeVars stay
// O(1)) but no longer published, so they remain garbage-collectible,
// identical constructions may return distinct pointers, and Equal falls
// back to its hash-guarded structural slow path. A var, not a const, so
// tests can exercise the overflow path.
var internShardCap uint64 = (4 << 20) / internShardCount

// internTable is one shard's open-addressed, linear-probed slot array.
// A slot is written once, nil to a node, and never cleared, so a probe
// that meets nil has seen every node stored at its hash so far.
type internTable struct {
	slots []atomic.Pointer[Expr] // len a power of two
	mask  uint64
}

func newInternTable(n int) *internTable {
	return &internTable{slots: make([]atomic.Pointer[Expr], n), mask: uint64(n - 1)}
}

// find returns the node matching the parts, or nil.
func (t *internTable) find(h uint64, op Op, w Width, val uint64, name string, kids []*Expr) *Expr {
	for i := h >> internShardBits; ; i++ {
		e := t.slots[i&t.mask].Load()
		if e == nil {
			return nil
		}
		if e.hash == h && e.matches(op, w, val, name, kids) {
			return e
		}
	}
}

// put stores e in the first free slot of its probe sequence. The caller
// holds the shard's mutex and keeps the load at most one half.
func (t *internTable) put(e *Expr) {
	i := e.hash >> internShardBits
	for t.slots[i&t.mask].Load() != nil {
		i++
	}
	t.slots[i&t.mask].Store(e)
}

// internShard is one stripe of the table. A hit reads tab and its slots
// with atomic loads only; a miss takes mu, probes again and inserts.
// hits sits on its own cache line so that counting a hit does not evict
// the line every other probe of the shard reads tab from.
type internShard struct {
	tab   atomic.Pointer[internTable]
	mu    sync.Mutex
	nodes uint64 // published nodes; written under mu
	_     [cacheLine - 24]byte
	hits  atomic.Uint64
	_     [cacheLine - 8]byte
}

// internTab is initialized as a package-level variable (not in init) so it
// is ready before any other file's init runs — expr.go's init interns the
// small-constant pool.
var internTab = func() *[internShardCount]internShard {
	t := new([internShardCount]internShard)
	for i := range t {
		t[i].init()
	}
	return t
}()

func (sh *internShard) init() { sh.tab.Store(newInternTable(internMinSlots)) }

// intern returns the canonical node for the structure described by the
// parts: an existing table entry when one matches (the steady-state case
// — atomic loads only, no lock, no allocation), or a freshly stamped
// node, published unless the shard is at capacity. kids is only copied on
// a miss, so call sites can pass stack-backed variadic slices.
func intern(op Op, w Width, val uint64, name string, kids ...*Expr) *Expr {
	h := hashParts(op, w, val, name, kids)
	return internTab[h&(internShardCount-1)].intern(h, op, w, val, name, kids)
}

func (sh *internShard) intern(h uint64, op Op, w Width, val uint64, name string, kids []*Expr) *Expr {
	if e := sh.tab.Load().find(h, op, w, val, name, kids); e != nil {
		sh.hits.Add(1)
		return e
	}
	return sh.miss(h, op, w, val, name, kids)
}

// miss is intern's locked path. Another goroutine may have published the
// node since the lock-free probe, so it probes the current table again.
// A table's load stays at or below one half: before an insert would pass
// it, the shard builds a table twice the size, moves every node over and
// publishes it. Probes still walking the old table may miss a node it
// lacks and come here, where they find it.
func (sh *internShard) miss(h uint64, op Op, w Width, val uint64, name string, kids []*Expr) *Expr {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	t := sh.tab.Load()
	if e := t.find(h, op, w, val, name, kids); e != nil {
		sh.hits.Add(1)
		return e
	}
	e := buildNode(op, w, val, name, kids, h)
	if sh.nodes >= internShardCap {
		return e // stamped, unpublished
	}
	if 2*(sh.nodes+1) > uint64(len(t.slots)) {
		grown := newInternTable(2 * len(t.slots))
		for i := range t.slots {
			if c := t.slots[i].Load(); c != nil {
				grown.put(c)
			}
		}
		sh.tab.Store(grown)
		t = grown
	}
	t.put(e)
	sh.nodes++
	return e
}

// stats returns the shard's published nodes and hits.
func (sh *internShard) stats() (nodes, hits uint64) {
	sh.mu.Lock()
	nodes = sh.nodes
	sh.mu.Unlock()
	return nodes, sh.hits.Load()
}

// buildNode allocates and stamps a node from its parts and precomputed
// hash, copying kids.
func buildNode(op Op, w Width, val uint64, name string, kids []*Expr, h uint64) *Expr {
	size := uint64(1)
	vars := emptyVarSet
	if op == OpVar {
		if val < 64 {
			vars = &VarSet{lo: 1 << val, n: 1}
		} else {
			vars = &VarSet{hi: []uint64{val}, n: 1}
		}
	} else {
		for _, k := range kids {
			size += uint64(k.size)
			vars = mergeVarSets(vars, k.vars)
		}
	}
	if size > math.MaxUint32 {
		size = math.MaxUint32 // deep shared DAGs: saturate, don't wrap
	}
	e := &Expr{op: op, width: w, val: val, name: name, hash: h, size: uint32(size), vars: vars}
	if len(kids) > 0 {
		e.kids = make([]*Expr, len(kids))
		copy(e.kids, kids)
	}
	return e
}

// InternStats reports the number of distinct interned nodes and the
// number of constructions answered with an existing node.
func InternStats() (nodes, hits uint64) {
	for i := range internTab {
		n, h := internTab[i].stats()
		nodes, hits = nodes+n, hits+h
	}
	return nodes, hits
}
