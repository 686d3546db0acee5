package expr

import (
	"fmt"
	"math/bits"
)

// MaxLanes is the most lanes one run of a lane program evaluates.
const MaxLanes = 256

// LaneMask is a set of lanes: lane i is bit i%64 of word i/64.
type LaneMask [MaxLanes / 64]uint64

// Has reports whether lane i is in the set.
func (m *LaneMask) Has(i int) bool { return m[i>>6]>>(i&63)&1 != 0 }

func (m *LaneMask) add(i int) { m[i>>6] |= 1 << (i & 63) }

// firstLanes returns the set of lanes 0 to n-1.
func firstLanes(n int) LaneMask {
	var m LaneMask
	for j := range m {
		switch k := n - 64*j; {
		case k >= 64:
			m[j] = ^uint64(0)
		case k > 0:
			m[j] = 1<<k - 1
		}
	}
	return m
}

// Lanes compiles expressions into lane programs and runs them. A run
// evaluates one expression under many values of one variable at once:
// lane i binds the variable to the i-th value. Per lane the result is
// exactly Eval's, value and ok alike.
//
// A program lists, in postorder and each once, the DAG nodes that
// mention the variable; each one's lane values fill a row. A subtree
// that does not mention the variable is one ground operand, evaluated
// once per run by Eval and broadcast. ZExt shares its kid's row. A run
// is one loop over the instructions that switches on each one's
// operator once and then loops over the lanes; binary operators call
// the per-op functions foldBin calls. LAnd, LOr and Ite evaluate every
// arm and select per lane, so an arm that fails in a lane fails it only
// where Eval would have evaluated that arm.
//
// The zero value is ready to use. A Lanes keeps its programs until Reset
// and its rows between runs, and allocates only to hold more than it
// ever has; it is not safe for concurrent use.
type Lanes struct {
	code []laneIns
	row  map[*Expr]int32 // Compile's scratch: a compiled node -> its row
	rows int32           // Compile's scratch: rows of the program so far

	val []uint64   // a run's rows, n lanes each
	ok  []LaneMask // per row, the lanes whose value Eval knows
}

// LaneProg names a program compiled by a Lanes. The zero value names
// none.
type LaneProg struct {
	lo, hi int32 // its instructions are code[lo:hi]
	rows   int32
	out    int32 // the row of the result
}

// laneIns computes one row. Ground operands are op OpConst, the
// variable is op OpVar.
type laneIns struct {
	op  Op
	w   Width // binary and SExt: the operand's width; Concat: the low kid's
	off uint8 // Extract's bit offset
	out int32
	k   [3]int32 // the kids' rows
	m   uint64   // binary: w's mask; Extract and SExt: the result's
	e   *Expr    // the ground operand
}

// Reset forgets every compiled program.
func (l *Lanes) Reset() { l.code = l.code[:0] }

// Compile compiles e for runs over the values of variable id. The
// program stays valid until Reset.
func (l *Lanes) Compile(e *Expr, id uint64) LaneProg {
	if l.row == nil {
		l.row = make(map[*Expr]int32)
	}
	clear(l.row)
	l.rows = 0
	lo := len(l.code)
	out := l.compile(e, id)
	return LaneProg{lo: int32(lo), hi: int32(len(l.code)), rows: l.rows, out: out}
}

// compile emits e's instruction after its kids' and returns its row.
func (l *Lanes) compile(e *Expr, id uint64) int32 {
	if r, seen := l.row[e]; seen {
		return r
	}
	in := laneIns{op: e.op, m: e.width.Mask()}
	switch {
	case !e.vars.Has(id):
		in.op, in.e = OpConst, e
	case e.op == OpZExt:
		r := l.compile(e.kids[0], id)
		l.row[e] = r
		return r
	case e.op == OpExtract:
		in.off = uint8(e.val)
	case e.op == OpConcat:
		in.w = e.kids[1].width
	case e.op == OpSExt:
		in.w = e.kids[0].width
	case e.op != OpVar && e.op != OpNot && e.op != OpLAnd && e.op != OpLOr && e.op != OpIte: // binary
		in.w = e.kids[0].width
		in.m = in.w.Mask()
	}
	if in.op != OpConst {
		for i, kid := range e.kids {
			in.k[i] = l.compile(kid, id)
		}
	}
	in.out = l.rows
	l.rows++
	l.code = append(l.code, in)
	l.row[e] = in.out
	return in.out
}

// rowOf returns row r of a run over n lanes.
func (l *Lanes) rowOf(r int32, n int) []uint64 {
	o := int(r) * n
	return l.val[o : o+n : o+n]
}

// Run runs p with variable id of Compile bound, in lane i, to xs[i], and
// everything else to a: val[i], ok.Has(i) is Eval of that assignment.
// a's own binding of the variable, if any, is ignored. len(xs) is at
// most MaxLanes. val is valid until the next run.
func (l *Lanes) Run(p LaneProg, a Assignment, xs []uint8) (val []uint64, ok LaneMask) {
	n := len(xs)
	if n > MaxLanes {
		panic(fmt.Sprintf("expr: %d lanes, at most %d", n, MaxLanes))
	}
	if need := int(p.rows) * n; cap(l.val) < need {
		l.val = make([]uint64, need)
	} else {
		l.val = l.val[:need]
	}
	if cap(l.ok) < int(p.rows) {
		l.ok = make([]LaneMask, p.rows)
	} else {
		l.ok = l.ok[:p.rows]
	}
	all := firstLanes(n)
	for j := p.lo; j < p.hi; j++ {
		in := &l.code[j]
		val, ok := l.rowOf(in.out, n), &l.ok[in.out]
		switch in.op {
		case OpConst:
			v, vok := in.e.Eval(a)
			for i := range val {
				val[i] = v
			}
			*ok = LaneMask{}
			if vok {
				*ok = all
			}
		case OpVar:
			for i, x := range xs[:len(val)] {
				val[i] = uint64(x)
			}
			*ok = all
		case OpNot:
			v := l.rowOf(in.k[0], n)[:len(val)]
			for i := range val {
				val[i] = b2u(v[i] == 0)
			}
			*ok = l.ok[in.k[0]]
		case OpExtract:
			v := l.rowOf(in.k[0], n)[:len(val)]
			for i := range val {
				val[i] = extractBits(v[i], uint64(in.off), in.m)
			}
			*ok = l.ok[in.k[0]]
		case OpSExt:
			v := l.rowOf(in.k[0], n)[:len(val)]
			for i := range val {
				val[i] = sextBits(v[i], in.w, in.m)
			}
			*ok = l.ok[in.k[0]]
		case OpConcat: // unknown where the high half is; else the low half's ok
			h, lo := l.rowOf(in.k[0], n)[:len(val)], l.rowOf(in.k[1], n)[:len(val)]
			for i := range val {
				val[i] = concatBits(h[i], lo[i], in.w)
			}
			hok := l.ok[in.k[0]]
			zeroUnknown(val, &hok, all)
			*ok = and(hok, l.ok[in.k[1]])
		case OpLAnd, OpLOr, OpIte:
			l.selectRow(in, val, ok, all)
		default:
			l.binary(in, val, ok, all)
		}
	}
	return l.rowOf(p.out, n), l.ok[p.out]
}

// zeroUnknown zeroes val at the lanes of all outside known: Eval's value
// where an operand it evaluates first is unknown.
func zeroUnknown(val []uint64, known *LaneMask, all LaneMask) {
	for j, w := range all {
		for w &^= known[j]; w != 0; w &= w - 1 {
			val[j*64+bits.TrailingZeros64(w)] = 0
		}
	}
}

func and(a, b LaneMask) LaneMask {
	for j := range a {
		a[j] &= b[j]
	}
	return a
}

// nonzero returns the lanes where v is not 0.
func nonzero(v []uint64) LaneMask {
	var m LaneMask
	for i, x := range v {
		m[i>>6] |= b2u(x != 0) << (i & 63)
	}
	return m
}

// selectRow runs LAnd, LOr or Ite: the first kid's row selects, per
// lane, which operand's value and ok Eval gives.
func (l *Lanes) selectRow(in *laneIns, val []uint64, ok *LaneMask, all LaneMask) {
	n := len(val)
	c, cok := l.rowOf(in.k[0], n), l.ok[in.k[0]]
	t := nonzero(c)
	a, aok := l.rowOf(in.k[1], n)[:n], l.ok[in.k[1]]
	switch in.op {
	case OpLAnd: // false where c is, else the right arm
		for i := range val {
			val[i] = 0
			if c[i] != 0 {
				val[i] = a[i]
			}
		}
		for j := range ok {
			ok[j] = cok[j] & (^t[j] | aok[j])
		}
	case OpLOr: // true where c is, else the right arm
		for i := range val {
			val[i] = 1
			if c[i] == 0 {
				val[i] = a[i]
			}
		}
		for j := range ok {
			ok[j] = cok[j] & (t[j] | aok[j])
		}
	case OpIte:
		b, bok := l.rowOf(in.k[2], n)[:n], l.ok[in.k[2]]
		for i := range val {
			val[i] = b[i]
			if c[i] != 0 {
				val[i] = a[i]
			}
		}
		for j := range ok {
			ok[j] = cok[j] & (t[j]&aok[j] | ^t[j]&bok[j])
		}
	}
	zeroUnknown(val, &cok, all)
}

// binary runs a binary operator: one loop over the lanes per operator,
// calling its function from expr.go. Eval gives 0, unknown, where
// either operand is unknown, and where the operator itself is (a zero
// divisor).
func (l *Lanes) binary(in *laneIns, val []uint64, ok *LaneMask, all LaneMask) {
	n := len(val)
	a, b := l.rowOf(in.k[0], n)[:n], l.rowOf(in.k[1], n)[:n]
	w, m := in.w, in.m
	var fails LaneMask // lanes where the operator is unknown
	switch in.op {
	case OpAdd:
		for i := range val {
			val[i] = binAdd(a[i], b[i], m)
		}
	case OpSub:
		for i := range val {
			val[i] = binSub(a[i], b[i], m)
		}
	case OpMul:
		for i := range val {
			val[i] = binMul(a[i], b[i], m)
		}
	case OpUDiv:
		for i := range val {
			v, vok := binUDiv(a[i], b[i], m)
			if val[i] = v; !vok {
				fails.add(i)
			}
		}
	case OpSDiv:
		for i := range val {
			v, vok := binSDiv(a[i], b[i], w, m)
			if val[i] = v; !vok {
				fails.add(i)
			}
		}
	case OpURem:
		for i := range val {
			v, vok := binURem(a[i], b[i], m)
			if val[i] = v; !vok {
				fails.add(i)
			}
		}
	case OpSRem:
		for i := range val {
			v, vok := binSRem(a[i], b[i], w, m)
			if val[i] = v; !vok {
				fails.add(i)
			}
		}
	case OpAnd:
		for i := range val {
			val[i] = binAnd(a[i], b[i])
		}
	case OpOr:
		for i := range val {
			val[i] = binOr(a[i], b[i])
		}
	case OpXor:
		for i := range val {
			val[i] = binXor(a[i], b[i])
		}
	case OpShl:
		for i := range val {
			val[i] = binShl(a[i], b[i], w, m)
		}
	case OpLShr:
		for i := range val {
			val[i] = binLShr(a[i], b[i], w, m)
		}
	case OpAShr:
		for i := range val {
			val[i] = binAShr(a[i], b[i], w, m)
		}
	case OpEq:
		for i := range val {
			val[i] = binEq(a[i], b[i])
		}
	case OpUlt:
		for i := range val {
			val[i] = binUlt(a[i], b[i])
		}
	case OpUle:
		for i := range val {
			val[i] = binUle(a[i], b[i])
		}
	case OpSlt:
		for i := range val {
			val[i] = binSlt(a[i], b[i], w)
		}
	case OpSle:
		for i := range val {
			val[i] = binSle(a[i], b[i], w)
		}
	default:
		panic(fmt.Sprintf("expr: no lane loop for %v", in.op))
	}
	known := and(l.ok[in.k[0]], l.ok[in.k[1]])
	zeroUnknown(val, &known, all)
	for j := range known {
		known[j] &^= fails[j]
	}
	*ok = known
}
