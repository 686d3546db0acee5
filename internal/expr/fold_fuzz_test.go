package expr

import (
	"slices"
	"testing"
)

// foldDecoder builds an expression over at most three byte variables
// from fuzz input, in prefix order: each node reads one selector byte,
// then its operands. Input that runs out reads as zeros, which decode to
// leaves, so every input is a finite tree. leaf supplies the variables,
// so one input can be decoded once over variables and once over their
// constants.
type foldDecoder struct {
	data []byte
	leaf func(i int) *Expr // the i-th byte variable, i < 3
}

func (d *foldDecoder) next() byte {
	if len(d.data) == 0 {
		return 0
	}
	b := d.data[0]
	d.data = d.data[1:]
	return b
}

var (
	foldWidths  = [...]Width{W8, W16, W32, W64}
	foldArith   = [...]Op{OpAdd, OpSub, OpMul, OpUDiv, OpSDiv, OpURem, OpSRem, OpAnd, OpOr, OpXor, OpShl, OpLShr, OpAShr}
	foldCompare = [...]Op{OpEq, OpUlt, OpUle, OpSlt, OpSle}
)

// constant reads one byte: below 0x80 a small value, else one counted
// down from all ones (negative when signed).
func (d *foldDecoder) constant(w Width) *Expr {
	c := uint64(d.next())
	if c >= 0x80 {
		c = ^(c & 0x7f)
	}
	return Const(c, w)
}

// bits decodes a bit-vector of width w (W8 to W64).
func (d *foldDecoder) bits(w Width, depth int) *Expr {
	b := d.next()
	if depth <= 0 {
		b = 0
	}
	depth--
	switch b % 8 {
	case 1, 2:
		op := foldArith[int(d.next())%len(foldArith)]
		return Binary(op, d.bits(w, depth), d.bits(w, depth))
	case 3:
		return Ite(d.boolean(depth), d.bits(w, depth), d.bits(w, depth))
	case 4:
		if w > W8 {
			return Concat(d.bits(w/2, depth), d.bits(w/2, depth))
		}
	case 5:
		if w < W64 {
			wide := w * 2
			return Extract(d.bits(wide, depth), uint(d.next())%uint(wide-w+1), w)
		}
	case 6, 7:
		narrow := W1
		if n := int(d.next()) % 4; foldWidths[n] < w {
			narrow = foldWidths[n]
		}
		var kid *Expr
		if narrow == W1 {
			kid = d.boolean(depth)
		} else {
			kid = d.bits(narrow, depth)
		}
		if b%8 == 6 {
			return ZExt(kid, w)
		}
		return SExt(kid, w)
	}
	// A leaf: a constant, or a variable widened to w.
	if b&0x10 != 0 {
		return d.constant(w)
	}
	return ZExt(d.leaf(int(b>>5)%3), w)
}

// boolean decodes a width-1 expression.
func (d *foldDecoder) boolean(depth int) *Expr {
	b := d.next()
	if depth <= 0 {
		b = 1
	}
	depth--
	switch b % 6 {
	case 0:
		return Bool(b&0x40 != 0)
	case 1:
		op := foldCompare[int(b>>3)%len(foldCompare)]
		w := foldWidths[int(d.next())%len(foldWidths)]
		return Binary(op, d.bits(w, depth), d.bits(w, depth))
	case 2:
		return Not(d.boolean(depth))
	case 3:
		return LAnd(d.boolean(depth), d.boolean(depth))
	case 4:
		return LOr(d.boolean(depth), d.boolean(depth))
	default:
		return Ite(d.boolean(depth), d.boolean(depth), d.boolean(depth))
	}
}

// decodeFold decodes the tree that follows FuzzExprFold's four header
// bytes; header bits 4-6 pick the root's width (W1 or W8 to W64).
func decodeFold(data []byte, leaf func(i int) *Expr) *Expr {
	d := &foldDecoder{data: data[4:], leaf: leaf}
	const depth = 5
	if n := int(data[3]>>4) % 5; n < 4 {
		return d.bits(foldWidths[n], depth)
	}
	return d.boolean(depth)
}

// hasDivision reports whether e contains a division or remainder, the
// only operators Eval reports unknown for under a full assignment.
func hasDivision(e *Expr) bool {
	switch e.op {
	case OpUDiv, OpSDiv, OpURem, OpSRem:
		return true
	}
	for _, k := range e.kids {
		if hasDivision(k) {
			return true
		}
	}
	return false
}

// FuzzExprFold holds the constructors' folding, Subst, Eval and Lanes
// to each other. data is three variable values, a byte whose bits 0-2
// put those variables in a partial assignment (the rest bind the others)
// and whose bits 4-6 pick the root width, then the tree (see
// foldDecoder). Where Eval knows the value under the full assignment:
//
//   - Subst of the full assignment folds to that constant;
//   - Subst of the partial assignment, evaluated under the rest, gives it,
//     and a bound summary of the partial ids only prunes the walk;
//   - the tree rebuilt over the variables' constants folds to it.
//
// Eval reports unknown only for a division by zero. Folding may absorb
// one (0 * (x / 0) is 0), so an unknown is not held to anything else.
// Lanes is held to Eval everywhere, unknowns included: for each
// variable, the 256 lanes over its values, the others bound, give Eval's
// value and ok at each.
func FuzzExprFold(f *testing.F) {
	f.Add([]byte{})
	// Folds that hide a division by zero, and connectives whose
	// unselected arm divides by zero (v0, v1, v2 are the variables):
	f.Add([]byte{0, 5, 0, 0x01, // v0 * (v1 udiv v2): 0 once v0 = 0 is bound
		0x01, 0x02, 0x00, 0x01, 0x03, 0x20, 0x40})
	f.Add([]byte{7, 0, 7, 0x05, // (v0 udiv v1) - (v2 udiv v1): 0 once v0 = v2 = 7 are bound
		0x01, 0x01, 0x01, 0x03, 0x00, 0x20, 0x01, 0x03, 0x40, 0x20})
	f.Add([]byte{5, 0, 1, 0x41, // (v0 ult v2) land (v0 udiv v1 = 3): the left arm is false
		0x03, 0x0d, 0x00, 0x00, 0x40, 0x01, 0x00, 0x01, 0x03, 0x00, 0x20, 0x10, 0x03})
	f.Add([]byte{1, 0, 5, 0x01, // ite(v0 ult v2, v0, v0 udiv v1): the else arm is not taken
		0x03, 0x0d, 0x00, 0x00, 0x40, 0x00, 0x01, 0x03, 0x00, 0x20})
	var lanes Lanes
	xs := make([]uint8, 256)
	for x := range xs {
		xs[x] = uint8(x)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		var full, part, rest Assignment
		var partIDs []uint64
		for i := range 3 {
			full.Set(uint64(i), data[i])
			if data[3]>>i&1 != 0 {
				part.Set(uint64(i), data[i])
				partIDs = append(partIDs, uint64(i))
			} else {
				rest.Set(uint64(i), data[i])
			}
		}
		e := decodeFold(data, func(i int) *Expr { return Var(uint64(i), "v") })
		want, ok := e.Eval(full)
		if !ok && !hasDivision(e) {
			t.Fatalf("%v is unknown at v = %v without a division", e, data[:3])
		}
		if got := e.Subst(full, nil); ok && (!got.IsConst() || got.ConstVal() != want) {
			t.Fatalf("%v at v = %v: Eval %d, Subst %v", e, data[:3], want, got)
		}
		residual := e.Subst(part, nil)
		if pruned := e.Subst(part, VarSetOf(partIDs)); !Equal(pruned, residual) {
			t.Fatalf("%v binding %v: Subst %v, with their summary %v", e, partIDs, residual, pruned)
		}
		if got, rok := residual.Eval(rest); ok && (!rok || got != want) {
			t.Fatalf("%v at v = %v: Eval %d, but binding %v first leaves %v, which gives %d, %v", e, data[:3], want, partIDs, residual, got, rok)
		}
		k := decodeFold(data, func(i int) *Expr { return Const(uint64(data[i]), W8) })
		if ok && (!k.IsConst() || k.ConstVal() != want) {
			t.Fatalf("%v at v = %v: Eval %d, over constants %v", e, data[:3], want, k)
		}
		for id := range uint64(3) {
			others := slices.Clone(full)
			others[id] = 0
			val, vok := lanes.Eval(e, others, id, xs)
			for x := range xs {
				others.Set(id, uint8(x))
				if w, wok := e.Eval(others); val[x] != w || vok[x] != wok {
					t.Fatalf("%v at v = %v, v%d = %d: Eval %d, %v; lane %d, %v", e, data[:3], id, x, w, wok, val[x], vok[x])
				}
			}
		}
	})
}
