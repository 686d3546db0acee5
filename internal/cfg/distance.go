package cfg

import (
	"cloud9/internal/coverage"
	"cloud9/internal/state"
)

// Unreachable is the distance reported when no uncovered code is
// reachable from a block (or the block is unknown). It is far below
// MaxInt32 so callers may add small penalties without overflow.
const Unreachable = 1 << 30

// DistStats counts recomputation work, for tests and benchmarks that
// assert the incremental algorithm touches only what a delta dirtied.
type DistStats struct {
	// FuncRecomputes counts per-function local distance solves.
	FuncRecomputes uint64
	// Recomputes counts recompute passes (queries that found dirt).
	Recomputes uint64
}

// Distance is the incremental minimum-distance-to-uncovered oracle for
// one worker. It owns a private copy of the coverage overlay; feed it
// newly covered lines with CoverLine (from local execution and from
// merges of the cluster's global overlay), then query
// BlockDist/StateDist.
//
// Distances are memoized per function and recomputed lazily at query
// time. A coverage delta dirties only the functions in which a block
// went from uncovered to covered; the recompute then re-solves exactly
// the dirty functions plus their call-graph ancestors (whose distances
// may flow through a call edge into the dirtied code), reusing every
// other function's memoized table. Coverage only grows, so distances
// only grow — the re-solve starts the affected region from Unreachable
// and relaxes downward against the untouched boundary, which makes the
// result exact even through recursive call cycles (no stale summary can
// keep a ghost path alive). Not safe for concurrent use; each worker
// owns its oracle the way it owns its solver.
type Distance struct {
	G *Graph

	covered *coverage.BitVec
	// blockUncov[f][b] counts uncovered lines in block b of f; the block
	// is a distance-0 source while the count is positive.
	blockUncov map[string][]int
	// dist[f][b] is the memoized md2u of block b (valid when f ∉ dirty).
	dist  map[string][]int32
	dirty map[string]bool
	// epoch counts the blocks that stopped being distance-0 sources.
	epoch uint64

	stats DistStats
}

// NewDistance builds the oracle over g with everything uncovered. The
// first query pays the full fixpoint; an oracle that is never queried
// (a worker running a distance-blind strategy) costs nothing.
func NewDistance(g *Graph) *Distance {
	d := &Distance{
		G:          g,
		covered:    coverage.New(g.Prog.MaxLine),
		blockUncov: make(map[string][]int, len(g.Funcs)),
		dist:       make(map[string][]int32, len(g.Funcs)),
		dirty:      make(map[string]bool, len(g.Funcs)),
	}
	for name, fg := range g.Funcs {
		counts := make([]int, fg.NumBlocks())
		for bi, lines := range fg.Lines {
			counts[bi] = len(lines)
		}
		d.blockUncov[name] = counts
		table := make([]int32, fg.NumBlocks())
		for i := range table {
			table[i] = Unreachable
		}
		d.dist[name] = table
		d.dirty[name] = true
	}
	return d
}

// Stats returns recomputation counters.
func (d *Distance) Stats() DistStats { return d.stats }

// Epoch counts the coverage changes that can move a distance: a block's
// last uncovered line covered. Every distance the oracle answers is the
// same while Epoch is unchanged, so a caller that cached distances at
// one epoch holds current values until it moves.
func (d *Distance) Epoch() uint64 { return d.epoch }

// CoverLine marks one source line covered. O(owning blocks); any
// distance recomputation is deferred to the next query, so a burst of
// newly covered lines is paid for once.
func (d *Distance) CoverLine(line int) {
	owners := d.G.LineOwners[line]
	if len(owners) == 0 || !d.covered.Set(line) {
		return
	}
	for _, ref := range owners {
		counts := d.blockUncov[ref.Fn]
		if counts[ref.Block] > 0 {
			counts[ref.Block]--
			if counts[ref.Block] == 0 {
				// The block stopped being a distance-0 source; distances
				// that flowed from it must be re-derived.
				d.dirty[ref.Fn] = true
				d.epoch++
			}
		}
	}
}

// BlockDist returns md2u for block b of function fn (Unreachable when
// unknown, or when no uncovered code is reachable).
func (d *Distance) BlockDist(fn string, b int) int {
	d.recompute()
	table := d.dist[fn]
	if b < 0 || b >= len(table) {
		return Unreachable
	}
	return int(table[b])
}

// StateDist estimates a state's distance to uncovered code: the minimum
// over the current thread's activation records of the frame's block
// distance plus one per return edge unwound to reach it — a state deep
// in fully covered library code still ranks by the uncovered work
// waiting in its caller's continuation.
func (d *Distance) StateDist(s *state.S) int {
	if s == nil {
		return Unreachable
	}
	th := s.Thread(s.Cur)
	if th == nil || len(th.Stack) == 0 {
		return Unreachable
	}
	best := Unreachable
	penalty := 0
	for i := len(th.Stack) - 1; i >= 0; i-- {
		f := th.Stack[i]
		if dd := d.BlockDist(f.Fn.Name, f.Block); dd+penalty < best {
			best = dd + penalty
		}
		penalty++
	}
	return best
}

// recompute re-solves the dirty region: the dirty functions plus every
// call-graph ancestor (a caller's distance may route through a call
// into dirtied code). The affected set is reset to Unreachable, then a
// worklist relaxes it downward; unaffected functions' memoized entry
// distances act as fixed boundary values. Relaxation re-enqueues a
// function's (affected) callers only when its entry distance changed —
// the only value callers read.
func (d *Distance) recompute() {
	if len(d.dirty) == 0 {
		return
	}
	d.stats.Recomputes++
	affected := map[string]bool{}
	var stack []string
	for f := range d.dirty {
		stack = append(stack, f)
	}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if affected[f] {
			continue
		}
		affected[f] = true
		stack = append(stack, d.G.Callers[f]...)
	}
	inQueue := make(map[string]bool, len(affected))
	var queue []string
	for f := range affected {
		table := d.dist[f]
		for i := range table {
			table[i] = Unreachable
		}
		queue = append(queue, f)
		inQueue[f] = true
	}
	for len(queue) > 0 {
		f := queue[0]
		queue = queue[1:]
		inQueue[f] = false
		oldEntry := d.entryOf(f)
		d.solveLocal(f)
		if d.entryOf(f) != oldEntry {
			for _, caller := range d.G.Callers[f] {
				if affected[caller] && !inQueue[caller] {
					queue = append(queue, caller)
					inQueue[caller] = true
				}
			}
		}
	}
	d.dirty = map[string]bool{}
}

// entryOf reads a function's memoized entry-block distance.
func (d *Distance) entryOf(f string) int32 {
	if table := d.dist[f]; len(table) > 0 {
		return table[0]
	}
	return Unreachable
}

// distHeap is a minimal binary min-heap of (dist, block) pairs for the
// per-function Dijkstra (call-portal seeds make edge-uniform BFS
// insufficient: a block may start at 1 + callee entry distance).
type distHeap []distItem

type distItem struct {
	d int32
	b int32
}

func (h *distHeap) push(it distItem) {
	*h = append(*h, it)
	i := len(*h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if (*h)[p].d <= (*h)[i].d {
			break
		}
		(*h)[p], (*h)[i] = (*h)[i], (*h)[p]
		i = p
	}
}

func (h *distHeap) pop() distItem {
	top := (*h)[0]
	last := len(*h) - 1
	(*h)[0] = (*h)[last]
	*h = (*h)[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < last && (*h)[l].d < (*h)[m].d {
			m = l
		}
		if r < last && (*h)[r].d < (*h)[m].d {
			m = r
		}
		if m == i {
			break
		}
		(*h)[i], (*h)[m] = (*h)[m], (*h)[i]
		i = m
	}
	return top
}

// solveLocal recomputes f's block distances in place from its current
// sources: uncovered blocks at 0, call sites at 1 + callee entry
// distance, propagated to predecessors at +1 per edge (Dijkstra).
func (d *Distance) solveLocal(f string) {
	d.stats.FuncRecomputes++
	fg := d.G.Funcs[f]
	table := d.dist[f]
	counts := d.blockUncov[f]
	// Collect sources before touching the table: a self-recursive call
	// site's portal seed must read the *previous* iterate of this
	// function's entry distance (Jacobi iteration — the worklist re-runs
	// us if our entry changes), not the freshly reset Unreachable.
	var h distHeap
	for bi := range table {
		if counts[bi] > 0 {
			h.push(distItem{d: 0, b: int32(bi)})
			continue
		}
		seed := int32(Unreachable)
		for _, callee := range fg.Calls[bi] {
			if ed := d.entryOf(callee); ed+1 < seed {
				seed = ed + 1
			}
		}
		if seed < Unreachable {
			h.push(distItem{d: seed, b: int32(bi)})
		}
	}
	for bi := range table {
		table[bi] = Unreachable
	}
	for len(h) > 0 {
		it := h.pop()
		if it.d >= table[it.b] {
			continue
		}
		table[it.b] = it.d
		for _, p := range fg.Preds[it.b] {
			if it.d+1 < table[p] {
				h.push(distItem{d: it.d + 1, b: int32(p)})
			}
		}
	}
}
