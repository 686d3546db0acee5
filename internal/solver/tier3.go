package solver

import (
	"slices"
	"sync/atomic"

	"cloud9/internal/expr"
)

// Tier 3: backtracking search with forward checking over one
// independent group, and the prune memo that keeps the forward checks
// from re-deriving the same domain mask.

// pruneMemoCap bounds the live entries of a solver's prune memo; a full
// memo is emptied and refilled. Measured on the ledger's memcached-hard
// (wall_s 2.0 s unmemoized) and on `c9 -target coreutil-sum`, whose
// 131,072-backtrack searches make a new key at nearly every prune (peak
// RSS 18.0 MB unmemoized):
//
//	cap      memcached-hard wall_s   coreutil-sum peak RSS
//	512      1.78 s (thrashes)       17.3 MB
//	2,048    0.25 s                  17.9 MB
//	8,192    0.15 s                  19.9 MB
//	32,768   0.15 s                  26.7 MB
//
// sort-many's 4,649 searches make 754 keys between them and do not care.
// A memcached run makes about 7,000 (some 1,500 per killed search, kept
// from one kill of a group to the next), so at 8,192 it never refills.
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

// pruneMemo maps residuals to their masks. The masks live in one slab
// that is kept for the solver's lifetime, so a warmed memo allocates
// nothing.
type pruneMemo struct {
	idx   map[pruneKey]int32
	masks []pruneMask
}

// entry returns key's mask, an all-unknown one if the key is new. The
// pointer is valid until the next call.
func (p *pruneMemo) entry(key pruneKey) *pruneMask {
	if i, ok := p.idx[key]; ok {
		return &p.masks[i]
	}
	if p.idx == nil {
		p.idx = make(map[pruneKey]int32)
	}
	if len(p.masks) == pruneMemoCap {
		clear(p.idx)
		p.masks = p.masks[:0]
	}
	p.idx[key] = int32(len(p.masks))
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

	// vals is the dense assignment EvalSlice and SubstSlice read, indexed
	// by variable id; -1 is unbound. All -1 between searches.
	vals []int16

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
}

func (e *BudgetError) Error() string { return ErrBudget.Error() }

// Unwrap makes errors.Is(err, ErrBudget) hold.
func (e *BudgetError) Unwrap() error { return ErrBudget }

// solveGroup runs backtracking search with forward checking over one
// independent group (cons over the sorted variable ids), extending
// model in place on success. The search works over a dense slice-backed
// assignment (see expr.EvalSlice) — this is the hot path. Per-
// constraint unbound-variable counts are maintained incrementally on
// bind/unbind, so variable selection and forward checking read O(1)
// counts instead of rescanning every constraint's variable list.
//
// bnds, when non-nil, seeds the unbound variables' domains from the
// interval abstraction (values outside a variable's bounds cannot be
// part of any solution, so dropping them preserves satisfiability and
// every surviving model). narrowed reports whether seeding actually
// removed values — callers must not publish narrowed results to the
// canonical group cache.
func (s *Solver) solveGroup(cons []*expr.Expr, ids []uint64, model expr.Assignment, bnds boundsMap) (sat, narrowed bool, err error) {
	atomic.AddUint64(&s.Stats.SolverRuns, 1)

	maxID := uint64(0)
	for _, id := range ids {
		if id > maxID {
			maxID = id
		}
	}
	for id := range model {
		if id > maxID {
			maxID = id
		}
	}
	if maxID >= 1<<22 {
		// Pathological id space; treat as unknown.
		return false, false, &BudgetError{Group: groupHash(cons), Vars: len(ids), Cons: len(cons), Budget: s.MaxBacktracks}
	}
	g := &s.tier3
	if have := len(g.vals); uint64(have) <= maxID {
		g.vals = slices.Grow(g.vals, int(maxID)+1-have)[:maxID+1]
		for i := have; i < len(g.vals); i++ {
			g.vals[i] = -1
		}
	}
	for id, v := range model {
		g.vals[id] = int16(v)
	}
	g.budget = s.MaxBacktracks
	g.backtracks, g.memoHits, g.memoMisses, g.evals = 0, 0, 0, 0

	sat, narrowed, err = g.search(cons, ids, bnds)

	if sat && err == nil {
		for _, id := range g.vars {
			model[id] = uint8(g.vals[id])
		}
	}
	for id := range model {
		g.vals[id] = -1
	}
	for _, id := range ids {
		g.vals[id] = -1
	}
	atomic.AddUint64(&s.Stats.Backtracks, g.backtracks)
	atomic.AddUint64(&s.Stats.PruneMemoHits, g.memoHits)
	atomic.AddUint64(&s.Stats.PruneMemoMisses, g.memoMisses)
	atomic.AddUint64(&s.Stats.PruneEvals, g.evals)
	if err != nil { // the search fails only by running out of budget
		err = &BudgetError{Group: groupHash(cons), Vars: len(g.vars), Cons: len(cons), Backtracks: g.backtracks, Budget: g.budget}
	}
	return sat, narrowed, err
}

// search decides cons over the unbound variables among ids, with g.vals
// holding the outer model. On sat, g.vals holds the witness.
func (g *groupSearch) search(cons []*expr.Expr, ids []uint64, bnds boundsMap) (sat, narrowed bool, err error) {
	vals := g.vals
	g.vars = g.vars[:0]
	for _, id := range ids {
		if vals[id] < 0 {
			g.vars = append(g.vars, id)
		}
	}
	n := len(g.vars)
	if n == 0 {
		// Everything bound by units; just verify.
		for _, c := range cons {
			v, ok := c.EvalSlice(vals)
			if !ok || v == 0 {
				return false, false, nil
			}
		}
		return true, false, nil
	}

	g.domains = resize(g.domains, n)
	for i := range g.domains {
		g.domains[i] = fullDomain()
	}
	// Interval seeding: restrict each domain to the variable's bounds.
	// The bounds are non-empty by construction (an empty interval marks
	// the state unsat before any search), so no domain empties here.
	for i, id := range g.vars {
		if iv := bnds.get(id); iv.lo > 0 || iv.hi < 255 {
			g.domains[i].removeOutside(iv.lo, iv.hi)
			narrowed = true
		}
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
			v, ok := g.infos[i].c.EvalSlice(vals)
			if !ok || v == 0 {
				return false, narrowed, nil
			}
		case 1:
			if !g.pruneUnary(i) {
				return false, narrowed, nil
			}
		}
	}

	sat, err = g.solve()
	return sat, narrowed, err
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
// under that key are evaluated — the constraint partially evaluated
// under the current assignment, collapsing everything but the scanned
// variable, then run over those values on the (usually tiny) residual —
// and the domain is intersected with the satisfying set. Returns false
// if the domain empties.
func (g *groupSearch) pruneUnary(i int) bool {
	ci := &g.infos[i]
	vals := g.vals
	var id uint64
	lv := -1
	key := pruneKey{con: ci.c}
	for k := ci.lo; k < ci.hi; k++ {
		if v := vals[g.conVars[k]]; v >= 0 {
			key.others = key.others<<8 | uint64(v)
		} else {
			id, lv = g.conVars[k], int(g.conLvs[k])
			key.slot = uint8(k - ci.lo)
		}
	}
	m := &g.throwaway
	if ci.keyed {
		m = g.memo.entry(key)
	} else {
		*m = pruneMask{}
	}
	d := &g.domains[lv]
	if g.savedMark[lv] != g.trial {
		g.savedMark[lv] = g.trial
		g.saveStack = append(g.saveStack, savedDom{lv, *d})
	}
	todo := *d
	todo.subtract(&m.known)
	if todo.empty() {
		g.memoHits++
	} else {
		g.memoMisses++
		reduced := ci.c.SubstSlice(vals)
		if reduced.IsConst() {
			// One verdict for every value of id, in the domain or not.
			todo = fullDomain()
			if reduced.ConstVal() != 0 {
				m.sat = todo
			}
		} else {
			v, ok := todo.first()
			for ok {
				vals[id] = int16(v)
				ev, evOK := reduced.EvalSlice(vals)
				if evOK && ev != 0 {
					m.sat.add(v)
				}
				g.evals++
				v, ok = todo.next(v)
			}
			vals[id] = -1
		}
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
			if g.vals[g.conVars[k]] >= 0 {
				continue
			}
			if lv := g.conLvs[k]; n < g.nearUnary[lv] {
				g.nearUnary[lv] = n
			}
		}
	}
	best, bestScore, found := 0, -1, false
	for lv, id := range g.vars {
		if g.vals[id] >= 0 {
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
			v, ok := g.infos[i].c.EvalSlice(g.vals)
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
		g.vals[id] = int16(v)
		g.trial++
		base := len(g.saveStack)
		// Forward checking: constraints that now have exactly one
		// unbound var prune that var's domain.
		feasible := true
		for i := range g.infos {
			switch g.cnt[i] {
			case 0:
				ev, evOK := g.infos[i].c.EvalSlice(g.vals)
				if !evOK || ev == 0 {
					feasible = false
				}
			case 1:
				if !g.pruneUnary(i) {
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
		g.vals[id] = -1
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
