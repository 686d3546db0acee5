package solver

// Interval abstraction over the memoized solve states: every setState
// carries per-variable [lo,hi] bounds (a slice indexed by variable id),
// derived incrementally in extend exactly like the unit assignment and
// the group partition — copy-on-write against the parent, refined to a
// fixpoint from the conjuncts the extension introduced or rewrote. The
// bounds are a sound over-approximation of the set's solutions (every
// solution assigns each variable a value inside its interval), which
// buys three things:
//
//   - a branch condition whose interval evaluates to a constant is
//     decided with zero search: definitely-false conditions are unsat
//     outright, and definitely-true conditions are sat by the
//     exploration invariant (states only exist on feasible paths, the
//     same invariant the independent-group skip relies on);
//   - an empty interval proves the extended set unsatisfiable before
//     groups are even assembled; and
//   - queries that survive to backtracking search start from
//     interval-narrowed domains instead of full 256-value domains.
//
// Forward evaluation (evalIval) abstracts each operator over unsigned
// intervals with explicit wrap handling; backward refinement
// (boundsRefiner) pushes asserted comparisons, equalities and the
// invertible arithmetic chains (add-const, zext, sext, concat) down to
// variable bounds. Both are pure functions of the Append chain, so
// eviction/rebuild and cross-worker replays stay canonical.

import (
	"math/bits"

	"cloud9/internal/expr"
)

// ival8 is the byte bounds of one symbolic variable.
type ival8 struct{ lo, hi uint8 }

// boundsMap holds the byte bounds of variable id at index id. An id past
// the end is [0,255]. Variable ids count up from 0 along a lineage and a
// target has a few dozen symbolic bytes, so a dense slice is short, and
// copying it for a narrowing is one allocation however many variables
// are narrowed. Ids at or above boundsCap are never narrowed: an interval
// wider than the tightest one is still sound (tier 3's 1<<22 id rule is
// the precedent), and it caps what one copy costs.
type boundsMap []ival8

// boundsCap is the first variable id narrowVar leaves at [0,255].
const boundsCap = 1 << 10

// get returns id's bounds.
func (b boundsMap) get(id uint64) ival8 {
	if id < uint64(len(b)) {
		return b[id]
	}
	return ival8{0, 255}
}

// ival is an unsigned interval [lo,hi] over a width-w value.
type ival struct{ lo, hi uint64 }

func (iv ival) singleton() bool { return iv.lo == iv.hi }

const (
	// intervalMaxNodes skips interval work on oversized expressions:
	// evalIval re-walks shared subtrees per occurrence (like Eval), so
	// huge DAGs are not worth abstracting.
	intervalMaxNodes = 1 << 12
	// intervalMaxPasses caps the refinement fixpoint per extension.
	// Bounds only ever narrow, so the cap trades a little precision on
	// long propagation chains for a hard latency bound; the cap must be
	// deterministic (and is), or rebuilt states would diverge.
	intervalMaxPasses = 4
)

func signBit(w expr.Width) uint64 { return 1 << (uint(w) - 1) }

// lenMask returns the all-ones mask covering v's bit length (the
// tightest power-of-two-minus-one upper bound for OR/XOR results).
func lenMask(v uint64) uint64 {
	n := bits.Len64(v)
	if n >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << n) - 1
}

// allOnesMask reports whether m is of the form 2^k - 1 (a low-bit
// all-ones mask, for which x & m acts as x mod 2^k).
func allOnesMask(m uint64) bool { return m&(m+1) == 0 }

func minU(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

func maxU(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// condDecided evaluates cond's interval under the bounds map. A [1,1]
// interval means cond holds on every assignment inside the bounds —
// hence on every solution of the set; [0,0] means it holds on none.
func condDecided(cond *expr.Expr, b boundsMap) (decided, truth bool) {
	if cond == nil || cond.Size() > intervalMaxNodes {
		return false, false
	}
	iv := evalIval(cond, b)
	if iv.lo >= 1 {
		return true, true
	}
	if iv.hi == 0 {
		return true, false
	}
	return false, false
}

// evalIval computes a sound unsigned interval for e under the variable
// bounds b: every value e can take when its variables range over their
// bounds lies in the result. Unhandled or wrap-ambiguous cases return
// the full range for e's width.
func evalIval(e *expr.Expr, b boundsMap) ival {
	mask := e.Width().Mask()
	top := ival{0, mask}
	switch e.Op() {
	case expr.OpConst:
		v := e.ConstVal()
		return ival{v, v}

	case expr.OpVar:
		iv := b.get(e.VarID())
		return ival{uint64(iv.lo), uint64(iv.hi)}

	case expr.OpAdd:
		l, r := evalIval(e.Kid(0), b), evalIval(e.Kid(1), b)
		loSum, loCarry := bits.Add64(l.lo, r.lo, 0)
		hiSum, hiCarry := bits.Add64(l.hi, r.hi, 0)
		loOv := loCarry != 0 || loSum > mask
		hiOv := hiCarry != 0 || hiSum > mask
		switch {
		case !hiOv:
			return ival{loSum, hiSum} // no endpoint wraps
		case loOv:
			return ival{loSum & mask, hiSum & mask} // both wrap: order preserved
		default:
			return top // straddles the wrap point
		}

	case expr.OpSub:
		l, r := evalIval(e.Kid(0), b), evalIval(e.Kid(1), b)
		loD, loBorrow := bits.Sub64(l.lo, r.hi, 0)
		hiD, hiBorrow := bits.Sub64(l.hi, r.lo, 0)
		switch {
		case loBorrow == 0:
			return ival{loD, hiD}
		case hiBorrow != 0:
			return ival{loD & mask, hiD & mask}
		default:
			return top
		}

	case expr.OpMul:
		if e.Width() > expr.W32 {
			return top // product may overflow the uint64 scratch
		}
		l, r := evalIval(e.Kid(0), b), evalIval(e.Kid(1), b)
		if hi := l.hi * r.hi; hi <= mask {
			return ival{l.lo * r.lo, hi}
		}
		return top

	case expr.OpUDiv:
		l, r := evalIval(e.Kid(0), b), evalIval(e.Kid(1), b)
		if r.lo == 0 {
			return top
		}
		return ival{l.lo / r.hi, l.hi / r.lo}

	case expr.OpURem:
		l, r := evalIval(e.Kid(0), b), evalIval(e.Kid(1), b)
		if r.lo == 0 {
			return top
		}
		if l.hi < r.lo {
			return l
		}
		return ival{0, r.hi - 1}

	case expr.OpAnd:
		l, r := evalIval(e.Kid(0), b), evalIval(e.Kid(1), b)
		// Masking with a low-bit all-ones constant that already covers
		// the other side's range is the identity (x & 0xff for byte-fed
		// x — the shape every widened byte load takes).
		if l.singleton() && allOnesMask(l.lo) && r.hi <= l.lo {
			return r
		}
		if r.singleton() && allOnesMask(r.lo) && l.hi <= r.lo {
			return l
		}
		return ival{0, minU(l.hi, r.hi)}

	case expr.OpOr:
		l, r := evalIval(e.Kid(0), b), evalIval(e.Kid(1), b)
		return ival{maxU(l.lo, r.lo), lenMask(l.hi | r.hi)}

	case expr.OpXor:
		l, r := evalIval(e.Kid(0), b), evalIval(e.Kid(1), b)
		return ival{0, lenMask(l.hi | r.hi)}

	case expr.OpShl:
		r := evalIval(e.Kid(1), b)
		if !r.singleton() {
			return top
		}
		if r.lo >= uint64(e.Width()) {
			return ival{0, 0}
		}
		l := evalIval(e.Kid(0), b)
		if l.hi <= mask>>r.lo {
			return ival{l.lo << r.lo, l.hi << r.lo}
		}
		return top

	case expr.OpLShr:
		r := evalIval(e.Kid(1), b)
		if !r.singleton() {
			return top
		}
		if r.lo >= uint64(e.Width()) {
			return ival{0, 0}
		}
		l := evalIval(e.Kid(0), b)
		return ival{l.lo >> r.lo, l.hi >> r.lo}

	case expr.OpAShr:
		l := evalIval(e.Kid(0), b)
		if l.hi >= signBit(e.Width()) {
			return top // possibly negative: sign fill
		}
		r := evalIval(e.Kid(1), b)
		if !r.singleton() {
			return ival{0, l.hi}
		}
		sh := r.lo
		if sh >= uint64(e.Width()) {
			sh = uint64(e.Width()) - 1
		}
		return ival{l.lo >> sh, l.hi >> sh}

	case expr.OpEq:
		l, r := evalIval(e.Kid(0), b), evalIval(e.Kid(1), b)
		if l.hi < r.lo || r.hi < l.lo {
			return ival{0, 0}
		}
		if l.singleton() && r.singleton() && l.lo == r.lo {
			return ival{1, 1}
		}
		return ival{0, 1}

	case expr.OpUlt:
		l, r := evalIval(e.Kid(0), b), evalIval(e.Kid(1), b)
		return cmpIval(l, r, true)

	case expr.OpUle:
		l, r := evalIval(e.Kid(0), b), evalIval(e.Kid(1), b)
		return cmpIval(l, r, false)

	case expr.OpSlt, expr.OpSle:
		kw := e.Kid(0).Width()
		sb := signBit(kw)
		l, r := evalIval(e.Kid(0), b), evalIval(e.Kid(1), b)
		// Signed order equals unsigned order on sign-flipped values,
		// and sign-stable intervals stay intervals under the flip.
		if (l.hi < sb || l.lo >= sb) && (r.hi < sb || r.lo >= sb) {
			return cmpIval(ival{l.lo ^ sb, l.hi ^ sb}, ival{r.lo ^ sb, r.hi ^ sb},
				e.Op() == expr.OpSlt)
		}
		return ival{0, 1}

	case expr.OpNot:
		k := evalIval(e.Kid(0), b)
		if k.hi == 0 {
			return ival{1, 1}
		}
		if k.lo >= 1 {
			return ival{0, 0}
		}
		return ival{0, 1}

	case expr.OpLAnd:
		l := evalIval(e.Kid(0), b)
		if l.hi == 0 {
			return ival{0, 0}
		}
		r := evalIval(e.Kid(1), b)
		if r.hi == 0 {
			return ival{0, 0}
		}
		if l.lo >= 1 && r.lo >= 1 {
			return ival{1, 1}
		}
		return ival{0, 1}

	case expr.OpLOr:
		l := evalIval(e.Kid(0), b)
		if l.lo >= 1 {
			return ival{1, 1}
		}
		r := evalIval(e.Kid(1), b)
		if r.lo >= 1 {
			return ival{1, 1}
		}
		if l.hi == 0 && r.hi == 0 {
			return ival{0, 0}
		}
		return ival{0, 1}

	case expr.OpConcat:
		h, l := evalIval(e.Kid(0), b), evalIval(e.Kid(1), b)
		loW := e.Kid(1).Width()
		return ival{h.lo<<loW | l.lo, h.hi<<loW | l.hi}

	case expr.OpExtract:
		k := evalIval(e.Kid(0), b)
		off := e.ExtractOff()
		y := ival{k.lo >> off, k.hi >> off}
		if y.hi <= mask {
			return y
		}
		return top

	case expr.OpZExt:
		return evalIval(e.Kid(0), b)

	case expr.OpSExt:
		kw := e.Kid(0).Width()
		k := evalIval(e.Kid(0), b)
		sb := signBit(kw)
		if k.hi < sb {
			return k // non-negative: identity
		}
		if k.lo >= sb {
			// entirely negative: sign extension preserves unsigned order
			return ival{
				uint64(expr.SignedConst(k.lo, kw)) & mask,
				uint64(expr.SignedConst(k.hi, kw)) & mask,
			}
		}
		return top

	case expr.OpIte:
		c := evalIval(e.Kid(0), b)
		if c.lo >= 1 {
			return evalIval(e.Kid(1), b)
		}
		if c.hi == 0 {
			return evalIval(e.Kid(2), b)
		}
		a, d := evalIval(e.Kid(1), b), evalIval(e.Kid(2), b)
		return ival{minU(a.lo, d.lo), maxU(a.hi, d.hi)}
	}
	return top
}

// cmpIval decides l <cmp> r over unsigned intervals (strict: "<",
// otherwise "≤") as a boolean interval.
func cmpIval(l, r ival, strict bool) ival {
	if strict {
		if l.hi < r.lo {
			return ival{1, 1}
		}
		if l.lo >= r.hi {
			return ival{0, 0}
		}
	} else {
		if l.hi <= r.lo {
			return ival{1, 1}
		}
		if l.lo > r.hi {
			return ival{0, 0}
		}
	}
	return ival{0, 1}
}

// boundsRefiner narrows a bounds map from asserted conjuncts,
// copy-on-write against the (possibly parent-shared) input slice. conflict
// is set when some variable's interval empties — the asserted conjuncts
// are unsatisfiable.
type boundsRefiner struct {
	b        boundsMap
	owned    bool
	changed  bool
	conflict bool
}

func (r *boundsRefiner) narrowVar(id uint64, t ival) {
	if r.conflict {
		return
	}
	cur := r.b.get(id)
	lo, hi := uint64(cur.lo), uint64(cur.hi)
	if t.lo > lo {
		lo = t.lo
	}
	if t.hi < hi {
		hi = t.hi
	}
	if lo > hi {
		r.conflict = true
		return
	}
	if lo == uint64(cur.lo) && hi == uint64(cur.hi) || id >= boundsCap {
		return
	}
	if !r.owned {
		nb := make(boundsMap, len(r.b), max(len(r.b), int(id)+1))
		copy(nb, r.b)
		r.b, r.owned = nb, true
	}
	for uint64(len(r.b)) <= id {
		r.b = append(r.b, ival8{0, 255})
	}
	r.b[id] = ival8{uint8(lo), uint8(hi)}
	r.changed = true
}

// narrowCond refines the bounds from conjunct c asserted to truth.
func (r *boundsRefiner) narrowCond(c *expr.Expr, truth bool) {
	if r.conflict {
		return
	}
	switch c.Op() {
	case expr.OpConst:
		if (c.ConstVal() != 0) != truth {
			r.conflict = true
		}

	case expr.OpNot:
		r.narrowCond(c.Kid(0), !truth)

	case expr.OpLAnd:
		if truth {
			r.narrowCond(c.Kid(0), true)
			r.narrowCond(c.Kid(1), true)
			return
		}
		// ¬(l ∧ r) only narrows when one side is known true.
		if l := evalIval(c.Kid(0), r.b); l.lo >= 1 {
			r.narrowCond(c.Kid(1), false)
		} else if rr := evalIval(c.Kid(1), r.b); rr.lo >= 1 {
			r.narrowCond(c.Kid(0), false)
		}

	case expr.OpLOr:
		if !truth {
			r.narrowCond(c.Kid(0), false)
			r.narrowCond(c.Kid(1), false)
			return
		}
		// (l ∨ r) only narrows when one side is known false.
		if l := evalIval(c.Kid(0), r.b); l.hi == 0 {
			r.narrowCond(c.Kid(1), true)
		} else if rr := evalIval(c.Kid(1), r.b); rr.hi == 0 {
			r.narrowCond(c.Kid(0), true)
		}

	case expr.OpEq:
		a, b := c.Kid(0), c.Kid(1)
		ia, ib := evalIval(a, r.b), evalIval(b, r.b)
		if truth {
			r.narrowExpr(a, ib)
			r.narrowExpr(b, ia)
			return
		}
		if ia.singleton() && ib.singleton() {
			if ia.lo == ib.lo {
				r.conflict = true
			}
			return
		}
		// x ≠ [v,v]: trim a matching interval endpoint.
		if ib.singleton() {
			r.trimNe(a, ia, ib.lo)
		} else if ia.singleton() {
			r.trimNe(b, ib, ia.lo)
		}

	case expr.OpUlt:
		r.narrowCmp(c.Kid(0), c.Kid(1), truth, true)

	case expr.OpUle:
		r.narrowCmp(c.Kid(0), c.Kid(1), truth, false)

	case expr.OpSlt, expr.OpSle:
		a, b := c.Kid(0), c.Kid(1)
		sb := signBit(a.Width())
		ia, ib := evalIval(a, r.b), evalIval(b, r.b)
		// Delegate to the unsigned rules when both sides are sign-stable
		// in the same region (there the signed and unsigned orders agree).
		sameNonNeg := ia.hi < sb && ib.hi < sb
		sameNeg := ia.lo >= sb && ib.lo >= sb
		if sameNonNeg || sameNeg {
			r.narrowCmp(a, b, truth, c.Op() == expr.OpSlt)
		}
	}
}

// narrowCmp refines from the unsigned comparison a < b (strict) or
// a ≤ b (non-strict), asserted to truth.
func (r *boundsRefiner) narrowCmp(a, b *expr.Expr, truth, strict bool) {
	mask := a.Width().Mask()
	ia, ib := evalIval(a, r.b), evalIval(b, r.b)
	if !truth { // ¬(a < b) ≡ b ≤ a, ¬(a ≤ b) ≡ b < a
		a, b, ia, ib = b, a, ib, ia
		strict = !strict
	}
	if strict {
		if ib.hi == 0 {
			r.conflict = true // a < 0 is impossible
			return
		}
		r.narrowExpr(a, ival{0, ib.hi - 1})
		if r.conflict {
			return
		}
		if ia.lo == mask {
			r.conflict = true // max < b is impossible
			return
		}
		r.narrowExpr(b, ival{ia.lo + 1, mask})
		return
	}
	r.narrowExpr(a, ival{0, ib.hi})
	if r.conflict {
		return
	}
	r.narrowExpr(b, ival{ia.lo, mask})
}

// trimNe removes the single excluded value v from e's interval when it
// sits on an endpoint.
func (r *boundsRefiner) trimNe(e *expr.Expr, ie ival, v uint64) {
	switch {
	case ie.lo == v:
		r.narrowExpr(e, ival{v + 1, ie.hi})
	case ie.hi == v:
		r.narrowExpr(e, ival{ie.lo, v - 1})
	}
}

// narrowExpr intersects the values e may take with target t, pushing the
// narrowing down to variable bounds through the invertible chain
// operators. A provably empty intersection sets conflict.
func (r *boundsRefiner) narrowExpr(e *expr.Expr, t ival) {
	if r.conflict {
		return
	}
	mask := e.Width().Mask()
	if t.hi > mask {
		t.hi = mask
	}
	if t.lo > t.hi {
		r.conflict = true
		return
	}
	if t.lo == 0 && t.hi == mask {
		return // no information
	}
	switch e.Op() {
	case expr.OpConst:
		if v := e.ConstVal(); v < t.lo || v > t.hi {
			r.conflict = true
		}

	case expr.OpVar:
		r.narrowVar(e.VarID(), t)

	case expr.OpZExt:
		if t.lo > e.Kid(0).Width().Mask() {
			r.conflict = true // required value exceeds the operand's range
			return
		}
		r.narrowExpr(e.Kid(0), t)

	case expr.OpSExt:
		// Identity on the non-negative region; negative and mixed
		// targets are skipped (still sound — skipping never narrows).
		if t.hi < signBit(e.Kid(0).Width()) {
			r.narrowExpr(e.Kid(0), t)
		}

	case expr.OpAdd:
		// Canonical form keeps constants on the left: (add c x) ∈ t
		// ⟺ x ∈ t - c when the shifted interval does not wrap.
		if e.Kid(0).IsConst() {
			c := e.Kid(0).ConstVal()
			lo, hi := (t.lo-c)&mask, (t.hi-c)&mask
			if lo <= hi {
				r.narrowExpr(e.Kid(1), ival{lo, hi})
			}
		}

	case expr.OpAnd:
		// (x & m) with an all-ones mask already covering x's range is x
		// itself, so the narrowing passes straight through. The mask
		// check uses the operand's *current* interval — sound because
		// narrowings only shrink it.
		if c0 := e.Kid(0); c0.IsConst() && allOnesMask(c0.ConstVal()) {
			if k := evalIval(e.Kid(1), r.b); k.hi <= c0.ConstVal() {
				r.narrowExpr(e.Kid(1), t)
			}
		} else if c1 := e.Kid(1); c1.IsConst() && allOnesMask(c1.ConstVal()) {
			if k := evalIval(e.Kid(0), r.b); k.hi <= c1.ConstVal() {
				r.narrowExpr(e.Kid(0), t)
			}
		}

	case expr.OpConcat:
		loW := e.Kid(1).Width()
		hLo, hHi := t.lo>>loW, t.hi>>loW
		r.narrowExpr(e.Kid(0), ival{hLo, hHi})
		if r.conflict {
			return
		}
		if hLo == hHi {
			r.narrowExpr(e.Kid(1), ival{t.lo & loW.Mask(), t.hi & loW.Mask()})
		}
	}
}

// refineBounds runs the narrowing fixpoint over the given groups'
// conjuncts (the constraints a state extension introduced or rewrote).
// ok=false reports an empty interval: the extended set is unsatisfiable.
func refineBounds(r *boundsRefiner, groups []*igroup) (ok bool) {
	for pass := 0; pass < intervalMaxPasses; pass++ {
		r.changed = false
		for _, g := range groups {
			for _, gc := range g.cons {
				if gc.Size() > intervalMaxNodes {
					continue
				}
				r.narrowCond(gc, true)
				if r.conflict {
					return false
				}
			}
		}
		if !r.changed {
			break
		}
	}
	return true
}
