package solver

import (
	"slices"
	"sync/atomic"

	"cloud9/internal/expr"
)

// Tier 3: backtracking search with forward checking over one
// independent group, and the prune memo that keeps the forward checks
// from re-deriving the same domain mask. Binding a variable checks only
// the constraints that mention it, and a check classifies every value of
// the free variable it has not classified before in one run of the
// constraint's lane program over that variable (expr.Lanes), compiled
// on the pair's first memo miss in the search: no residual is built.

// pruneMemoCap bounds the live entries of a solver's prune memo; a full
// memo is emptied and refilled. Measured on the ledger's memcached-hard
// (fastest of a 6 s run, two rounds) and on `c9 -target coreutil-sum`,
// whose 131,072-backtrack searches make a new key at nearly every prune,
// on a 2-core Xeon:
//
//	cap      memcached-hard wall_s    coreutil-sum peak RSS
//	2,048    0.084-0.089 s (thrashes) 11.6-11.9 MB
//	8,192    0.045-0.048 s            14.5-14.8 MB
//	32,768   0.045 s                  21.7-22.0 MB
//
// 8,192 stays: 32,768 buys memcached nothing and costs coreutil-sum
// 7 MB. sort-many's 4,649 searches make 754 keys between them and do
// not care. A memcached run makes about 7,000 (some 1,500 per killed
// search, kept from one kill of a group to the next), so at 8,192 it
// never refills.
const pruneMemoCap = 8192

// pruneKeyVars is the most variables a constraint may mention and still
// be keyed: the other variables' byte values are packed into one uint64.
const pruneKeyVars = 9

// pruneKey names one unary residual: constraint con with every variable
// but its slot-th (in ascending id order) bound, the bound ones to the
// bytes in others (first variable most significant, slot skipped).
// Expressions are hash-consed, so con's pointer is the constraint's
// identity and the key determines the residual — in any search, under
// any outer model.
type pruneKey struct {
	con    *expr.Expr
	others uint64
	slot   uint8
}

// pruneMask is what is known about one residual: known holds the values
// of the unbound variable classified so far, sat those of them that
// satisfy the constraint.
type pruneMask struct {
	known, sat domain
}

// pruneMemo maps residuals to their masks: an open-addressed table of
// keys, probed linearly, indexing one slab of masks, both kept for the
// solver's lifetime. The table is allocated on the first entry and
// doubles past three quarters full, up to 2*pruneMemoCap slots.
type pruneMemo struct {
	slots []pruneSlot // a power of two long
	masks []pruneMask
}

// pruneSlot is one slot of the memo's table: a key in 24 bytes and its
// mask's index in the slab. An empty slot has a nil con.
type pruneSlot struct {
	con    *expr.Expr
	others uint64
	slot   uint8
	mask   int32
}

// hash mixes the key's fields; con's hash is stamped at construction.
func (k pruneKey) hash() uint64 {
	h := k.con.Hash() ^ k.others*0x9e3779b97f4a7c15 ^ uint64(k.slot)
	h = (h ^ h>>32) * 0xd6e8feb86659fd93
	return h ^ h>>32
}

// find returns the slot holding key, or the empty slot where it goes.
func (p *pruneMemo) find(key pruneKey) *pruneSlot {
	m := uint64(len(p.slots) - 1)
	for i := key.hash() & m; ; i = (i + 1) & m {
		if s := &p.slots[i]; s.con == nil || s.con == key.con && s.others == key.others && s.slot == key.slot {
			return s
		}
	}
}

// entry returns key's mask, an all-unknown one if the key is new. The
// pointer is valid until the next call.
func (p *pruneMemo) entry(key pruneKey) *pruneMask {
	if len(p.slots) > 0 {
		if s := p.find(key); s.con != nil {
			return &p.masks[s.mask]
		}
	}
	if len(p.masks) == pruneMemoCap {
		clear(p.slots)
		p.masks = p.masks[:0]
	}
	if 4*(len(p.masks)+1) > 3*len(p.slots) {
		old := p.slots
		p.slots = make([]pruneSlot, max(2*len(old), 64))
		for _, s := range old {
			if s.con != nil {
				*p.find(pruneKey{s.con, s.others, s.slot}) = s
			}
		}
	}
	*p.find(key) = pruneSlot{key.con, key.others, key.slot, int32(len(p.masks))}
	p.masks = append(p.masks, pruneMask{})
	return &p.masks[len(p.masks)-1]
}

// savedDom is one forward-checking domain snapshot on the restore stack.
type savedDom struct {
	lv int
	d  domain
}

// conInfo is the search's view of one constraint: c mentions the group's
// unbound variables conVars[lo:hi], whose local indices are conLvs[lo:hi].
type conInfo struct {
	c      *expr.Expr
	lo, hi int32
	keyed  bool // prunes go through the memo (see pruneKey)
}

// groupSearch is solveGroup's working state. It belongs to the Solver and
// every slice is reused by the next search: a search allocates only when
// it is larger than any before it.
type groupSearch struct {
	budget uint64 // the solver's MaxBacktracks

	// vals is the caller's model, grown to the group's largest id, for
	// the length of one search. The search binds and unbinds in place
	// through the encoding (value+1, 0 unbound) instead of Get and Set.
	// nil between searches.
	vals expr.Assignment

	// Per unbound variable of the group, by local index.
	vars      []uint64 // id, ascending
	domains   []domain
	mentions  []int    // constraints mentioning it (variable ordering)
	nearUnary []int    // pickVar scratch
	savedMark []uint64 // trial that last snapshotted its domain
	varConOff []int32  // its constraints are varCons[varConOff[lv]:varConOff[lv+1]]
	varCons   []int32

	// Per constraint. cnt is how many of its variables are currently
	// unbound, maintained on bind/unbind through varCons.
	infos   []conInfo
	cnt     []int32
	conVars []uint64
	conLvs  []int32

	// saveStack holds the domain snapshots of the value trials in
	// progress, segmented by recursion level; trial deduplicates
	// snapshots within one value trial.
	saveStack []savedDom
	trial     uint64

	memo      pruneMemo
	throwaway pruneMask // stands in for a memo entry of an unkeyed constraint
	// progs[k] is conVars[k]'s constraint compiled over it into lanes, on
	// its first prune miss in the search (the zero LaneProg until then).
	lanes    expr.Lanes
	progs    []expr.LaneProg
	laneVals [expr.MaxLanes]uint8 // the values a prune classifies, one lane each

	backtracks, memoHits, memoMisses, evals uint64
}

// BudgetError is the ErrBudget of one killed group search: errors.Is(err,
// ErrBudget) holds, and errors.As recovers which search it was.
type BudgetError struct {
	Group      uint64 // the group-cache key: an order-insensitive hash of the constraints
	Vars       int    // variables the search had to bind
	Cons       int    // constraints in the group
	Backtracks uint64 // value choices undone before giving up
	Budget     uint64 // the MaxBacktracks it exceeded
	Memo       bool   // answered from the kill memo: an identical search was killed before
}

func (e *BudgetError) Error() string { return ErrBudget.Error() }

// Unwrap makes errors.Is(err, ErrBudget) hold.
func (e *BudgetError) Unwrap() error { return ErrBudget }

// solveGroup runs backtracking search with forward checking over one
// independent group (cons over the sorted variable ids), extending
// model in place on success. model must be the caller's own: the search
// grows it to the group's largest id and binds into it, and an unsat or
// budget-killed search may leave bindings behind, so callers discard it
// then. Per-constraint unbound-variable counts are maintained
// incrementally on bind/unbind, so variable selection and forward
// checking read O(1) counts instead of rescanning every constraint's
// variable list. Every search starts from full 256-value domains, so its
// outcome is a function of cons in order and the outer model alone.
func (s *Solver) solveGroup(cons []*expr.Expr, ids []uint64, model *expr.Assignment) (sat bool, err error) {
	atomic.AddUint64(&s.Stats.SolverRuns, 1)

	if n := len(ids); n > 0 {
		maxID := ids[n-1]
		if maxID >= 1<<22 {
			// Pathological id space; treat as unknown.
			return false, &BudgetError{Group: groupHash(cons), Vars: n, Cons: len(cons), Budget: s.MaxBacktracks}
		}
		if have := uint64(len(*model)); have <= maxID {
			*model = append(*model, make(expr.Assignment, maxID+1-have)...)
		}
	}
	g := &s.tier3
	g.vals = *model
	g.budget = s.MaxBacktracks
	g.backtracks, g.memoHits, g.memoMisses, g.evals = 0, 0, 0, 0

	sat, err = g.search(cons, ids)

	g.vals = nil
	atomic.AddUint64(&s.Stats.Backtracks, g.backtracks)
	atomic.AddUint64(&s.Stats.PruneMemoHits, g.memoHits)
	atomic.AddUint64(&s.Stats.PruneMemoMisses, g.memoMisses)
	atomic.AddUint64(&s.Stats.PruneEvals, g.evals)
	if err != nil { // the search fails only by running out of budget
		err = &BudgetError{Group: groupHash(cons), Vars: len(g.vars), Cons: len(cons), Backtracks: g.backtracks, Budget: g.budget}
	}
	return sat, err
}

// search decides cons over the unbound variables among ids, with g.vals
// holding the outer model. On sat, g.vals holds the witness.
func (g *groupSearch) search(cons []*expr.Expr, ids []uint64) (bool, error) {
	vals := g.vals
	g.vars = g.vars[:0]
	for _, id := range ids {
		if vals[id] == 0 {
			g.vars = append(g.vars, id)
		}
	}
	n := len(g.vars)
	if n == 0 {
		// Everything bound by units; just verify.
		for _, c := range cons {
			v, ok := c.Eval(vals)
			if !ok || v == 0 {
				return false, nil
			}
		}
		return true, nil
	}

	g.domains = resize(g.domains, n)
	for i := range g.domains {
		g.domains[i] = fullDomain()
	}

	// Per-constraint bookkeeping: which unbound vars it mentions, and how
	// many of them are currently unbound; per variable, how many
	// constraints mention it and (varCons) which.
	g.infos = g.infos[:0]
	g.cnt = g.cnt[:0]
	g.conVars = g.conVars[:0]
	g.conLvs = g.conLvs[:0]
	g.mentions = resize(g.mentions, n)
	clear(g.mentions)
	for _, c := range cons {
		lo := len(g.conVars)
		g.conVars = c.FreeVars().AppendIDs(g.conVars)
		hi := lo
		for _, id := range g.conVars[lo:] {
			if lv, ok := slices.BinarySearch(g.vars, id); ok {
				g.conVars[hi] = id
				g.conLvs = append(g.conLvs, int32(lv))
				g.mentions[lv]++
				hi++
			}
		}
		g.conVars = g.conVars[:hi]
		g.infos = append(g.infos, conInfo{
			c: c, lo: int32(lo), hi: int32(hi),
			keyed: hi-lo == c.NumVars() && hi-lo <= pruneKeyVars,
		})
		g.cnt = append(g.cnt, int32(hi-lo))
	}
	g.progs = resize(g.progs, len(g.conVars))
	clear(g.progs)
	g.lanes.Reset()
	g.varConOff = resize(g.varConOff, n+1)
	g.varConOff[0] = 0
	for lv, m := range g.mentions {
		g.varConOff[lv+1] = g.varConOff[lv] + int32(m)
	}
	g.varCons = resize(g.varCons, len(g.conLvs))
	g.nearUnary = resize(g.nearUnary, n)
	next := g.nearUnary // where each variable's next constraint goes; pickVar overwrites it
	for lv := range next {
		next[lv] = int(g.varConOff[lv])
	}
	for i := range g.infos {
		for _, lv := range g.conLvs[g.infos[i].lo:g.infos[i].hi] {
			g.varCons[next[lv]] = int32(i)
			next[lv]++
		}
	}

	// Trial 0 is the initial pruning pass, whose prunes are never undone:
	// savedMark starts at 0, so it snapshots nothing.
	g.savedMark = resize(g.savedMark, n)
	clear(g.savedMark)
	g.trial = 0
	g.saveStack = g.saveStack[:0]
	for i := range g.infos {
		switch g.cnt[i] {
		case 0:
			v, ok := g.infos[i].c.Eval(vals)
			if !ok || v == 0 {
				return false, nil
			}
		case 1:
			if !g.pruneUnary(i) {
				return false, nil
			}
		}
	}

	return g.solve()
}

// resize returns s with length n, reallocating only to grow. The
// contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// pruneUnary restricts the domain of constraint i's one unbound variable
// to the values that satisfy it, first saving the domain for the current
// value trial to undo. Which values those are is a function of the
// constraint and its other variables' values alone, so the verdicts are
// remembered in the prune memo: only domain values not yet classified
// under that key are evaluated — all of them in one run of the
// constraint's lane program over the variable, one lane a value, each
// lane exactly Eval under the current assignment with the variable bound
// to its value — and the domain is intersected with the satisfying set.
// Returns false if the domain empties.
func (g *groupSearch) pruneUnary(i int) bool {
	ci := &g.infos[i]
	vals := g.vals
	var at int32 // the unbound variable's index in conVars
	key := pruneKey{con: ci.c}
	for k := ci.lo; k < ci.hi; k++ {
		if v := vals[g.conVars[k]]; v != 0 {
			key.others = key.others<<8 | uint64(v-1)
		} else {
			at, key.slot = k, uint8(k-ci.lo)
		}
	}
	m := &g.throwaway
	if ci.keyed {
		m = g.memo.entry(key)
	} else {
		*m = pruneMask{}
	}
	lv := g.conLvs[at]
	d := &g.domains[lv]
	if g.savedMark[lv] != g.trial {
		g.savedMark[lv] = g.trial
		g.saveStack = append(g.saveStack, savedDom{int(lv), *d})
	}
	todo := *d
	todo.subtract(&m.known)
	if todo.empty() {
		g.memoHits++
	} else {
		g.memoMisses++
		p := &g.progs[at]
		if *p == (expr.LaneProg{}) {
			*p = g.lanes.Compile(ci.c, g.conVars[at])
		}
		xs := todo.appendValues(g.laneVals[:0])
		ev, evOK := g.lanes.Run(*p, vals, xs)
		for k, v := range xs {
			if evOK.Has(k) && ev[k] != 0 {
				m.sat.add(v)
			}
		}
		g.evals += uint64(len(xs))
		m.known.union(&todo)
	}
	d.intersect(&m.sat)
	return !d.empty()
}

// pickVar chooses the next variable to bind: the one that brings some
// constraint closest to unary (so forward checking prunes as early as
// possible), then the smallest domain, then the most mentioned.
func (g *groupSearch) pickVar() (int, bool) {
	// nearUnary[lv] = the smallest number of unbound variables among the
	// active constraints mentioning lv, refilled per pick from the
	// maintained counts.
	for i := range g.nearUnary {
		g.nearUnary[i] = 65
	}
	for i := range g.infos {
		n := int(g.cnt[i])
		if n == 0 {
			continue
		}
		ci := &g.infos[i]
		for k := ci.lo; k < ci.hi; k++ {
			if g.vals[g.conVars[k]] != 0 {
				continue
			}
			if lv := g.conLvs[k]; n < g.nearUnary[lv] {
				g.nearUnary[lv] = n
			}
		}
	}
	best, bestScore, found := 0, -1, false
	for lv, id := range g.vars {
		if g.vals[id] != 0 {
			continue
		}
		near := g.nearUnary[lv]
		if near == 65 {
			near = 64 // mentioned by no active constraint
		}
		score := (64-near)*1_000_000 + (256-g.domains[lv].count())*1000 + g.mentions[lv]
		if score > bestScore {
			best, bestScore, found = lv, score, true
		}
	}
	return best, found
}

// solve binds one more variable and recurses; false with a nil error
// means no value of it extends the current assignment to a solution.
func (g *groupSearch) solve() (bool, error) {
	lv, found := g.pickVar()
	if !found {
		// All assigned: final verification.
		for i := range g.infos {
			v, ok := g.infos[i].c.Eval(g.vals)
			if !ok || v == 0 {
				return false, nil
			}
		}
		return true, nil
	}
	id := g.vars[lv]
	d := &g.domains[lv]
	mine := g.varCons[g.varConOff[lv]:g.varConOff[lv+1]]
	for _, ci := range mine {
		g.cnt[ci]--
	}
	v, ok := d.first()
	for ok {
		g.vals[id] = uint16(v) + 1
		g.trial++
		base := len(g.saveStack)
		// Forward checking: id's constraints that now have exactly one
		// unbound var prune that var's domain, and those it completed
		// are checked. Any other constraint kept its count and its
		// variables' values since it was last checked, and domains only
		// shrink in between, so checking it again would repeat a verdict.
		feasible := true
		for _, i := range mine {
			switch g.cnt[i] {
			case 0:
				ev, evOK := g.infos[i].c.Eval(g.vals)
				if !evOK || ev == 0 {
					feasible = false
				}
			case 1:
				if !g.pruneUnary(int(i)) {
					feasible = false
				}
			}
			if !feasible {
				break
			}
		}
		if feasible {
			done, err := g.solve()
			if err != nil {
				return false, err
			}
			if done {
				return true, nil
			}
		}
		// Restore and try next value.
		for i := len(g.saveStack) - 1; i >= base; i-- {
			sd := g.saveStack[i]
			g.domains[sd.lv] = sd.d
		}
		g.saveStack = g.saveStack[:base]
		g.vals[id] = 0
		g.backtracks++
		if g.backtracks > g.budget {
			return false, ErrBudget
		}
		v, ok = d.next(v)
	}
	for _, ci := range mine {
		g.cnt[ci]++
	}
	return false, nil
}
