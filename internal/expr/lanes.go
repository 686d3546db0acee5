package expr

import "slices"

// Lanes evaluates one expression under many values of one variable at
// once: lane i binds the variable to the i-th value. Each DAG node that
// mentions the variable is evaluated once, for all lanes, into a row of
// lane values; a subtree that does not mention it is evaluated once, by
// Eval, and its value broadcast. Per lane the result is exactly Eval's,
// value and ok alike: LAnd, LOr and Ite evaluate every arm and select
// per lane, so an arm that fails in a lane fails it only where Eval
// would have evaluated that arm, and binary operators are foldBin.
//
// The zero value is ready to use. A Lanes keeps its rows between calls
// and allocates only for a call larger than any before it; it is not
// safe for concurrent use.
type Lanes struct {
	n   int
	row map[*Expr]int32 // a node mentioning the variable -> its row's offset
	val []uint64
	ok  []bool
}

// Eval evaluates e under a with variable id bound, in lane i, to xs[i]:
// val[i], ok[i] is e.Eval of that assignment. a's own binding of id, if
// any, is ignored. The slices are valid until the next call.
func (l *Lanes) Eval(e *Expr, a Assignment, id uint64, xs []uint8) (val []uint64, ok []bool) {
	l.n = len(xs)
	l.val, l.ok = l.val[:0], l.ok[:0]
	if l.row == nil {
		l.row = make(map[*Expr]int32)
	}
	clear(l.row)
	r := l.eval(e, a, id, xs)
	return l.val[r : r+l.n], l.ok[r : r+l.n]
}

// alloc appends one row and returns its offset.
func (l *Lanes) alloc() int {
	r := len(l.val)
	l.val = slices.Grow(l.val, l.n)[:r+l.n]
	l.ok = slices.Grow(l.ok, l.n)[:r+l.n]
	return r
}

// eval returns the offset of e's row, evaluating it on first sight.
func (l *Lanes) eval(e *Expr, a Assignment, id uint64, xs []uint8) int {
	if !e.vars.Has(id) {
		v, ok := e.Eval(a)
		r := l.alloc()
		val, oks := l.val[r:r+l.n], l.ok[r:r+l.n]
		for i := range val {
			val[i], oks[i] = v, ok
		}
		return r
	}
	if r, seen := l.row[e]; seen {
		return int(r)
	}
	if e.op == OpZExt { // the value and ok are the kid's: share its row
		r := l.eval(e.kids[0], a, id, xs)
		l.row[e] = int32(r)
		return r
	}
	var k [3]int
	for i, kid := range e.kids {
		k[i] = l.eval(kid, a, id, xs)
	}
	r := l.alloc()
	n := l.n
	val, ok := l.val[r:r+n], l.ok[r:r+n]
	kv := func(j int) ([]uint64, []bool) { return l.val[k[j] : k[j]+n], l.ok[k[j] : k[j]+n] }
	switch e.op {
	case OpVar: // e is the variable itself
		for i, x := range xs {
			val[i], ok[i] = uint64(x), true
		}
	case OpNot:
		v, vok := kv(0)
		for i := range val {
			val[i], ok[i] = b2u(v[i] == 0), vok[i]
		}
	case OpLAnd:
		lv, lok := kv(0)
		rv, rok := kv(1)
		for i := range val {
			switch {
			case !lok[i]:
				val[i], ok[i] = 0, false
			case lv[i] == 0:
				val[i], ok[i] = 0, true
			default:
				val[i], ok[i] = rv[i], rok[i]
			}
		}
	case OpLOr:
		lv, lok := kv(0)
		rv, rok := kv(1)
		for i := range val {
			switch {
			case !lok[i]:
				val[i], ok[i] = 0, false
			case lv[i] != 0:
				val[i], ok[i] = 1, true
			default:
				val[i], ok[i] = rv[i], rok[i]
			}
		}
	case OpConcat:
		hv, hok := kv(0)
		lv, lok := kv(1)
		w := e.kids[1].width
		for i := range val {
			if !hok[i] {
				val[i], ok[i] = 0, false
			} else {
				val[i], ok[i] = hv[i]<<w|lv[i], lok[i]
			}
		}
	case OpExtract:
		v, vok := kv(0)
		m := e.width.Mask()
		for i := range val {
			val[i], ok[i] = (v[i]>>e.val)&m, vok[i]
		}
	case OpSExt:
		v, vok := kv(0)
		kw, m := e.kids[0].width, e.width.Mask()
		for i := range val {
			val[i], ok[i] = uint64(signExtend(v[i], kw))&m, vok[i]
		}
	case OpIte:
		cv, cok := kv(0)
		av, aok := kv(1)
		bv, bok := kv(2)
		for i := range val {
			switch {
			case !cok[i]:
				val[i], ok[i] = 0, false
			case cv[i] != 0:
				val[i], ok[i] = av[i], aok[i]
			default:
				val[i], ok[i] = bv[i], bok[i]
			}
		}
	default:
		lv, lok := kv(0)
		rv, rok := kv(1)
		w := e.kids[0].width
		for i := range val {
			if lok[i] && rok[i] {
				val[i], ok[i] = foldBin(e.op, lv[i], rv[i], w)
			} else {
				val[i], ok[i] = 0, false
			}
		}
	}
	l.row[e] = int32(r)
	return r
}
