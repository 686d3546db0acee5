package expr

import "testing"

// laneEdges returns the operands at the edges of the binary operators'
// domains at width w: zero, one, the signed extremes and their
// neighbours, all ones, and shift counts about w.
func laneEdges(w Width) []uint64 {
	m := w.Mask()
	var out []uint64
	for _, x := range []uint64{0, 1, 2, m >> 1, m>>1 + 1, m - 1, m, uint64(w) - 1, uint64(w), uint64(w) + 1, 0x5555555555555555, 63, 64} {
		x &= m
		seen := false
		for _, y := range out {
			seen = seen || x == y
		}
		if !seen {
			out = append(out, x)
		}
	}
	return out
}

// Every binary operator's lane loop against foldBin, at every width,
// over every pair of edge operands, with some lanes of each operand
// unknown: a lane is foldBin of its operands where both are known, and
// 0, unknown, where either is not.
func TestBinaryLaneLoopsMatchFoldBin(t *testing.T) {
	for op := OpAdd; op <= OpSle; op++ {
		for _, w := range []Width{W1, W8, W16, W32, W64} {
			edges := laneEdges(w)
			n := len(edges) * len(edges)
			l := Lanes{val: make([]uint64, 3*n), ok: make([]LaneMask, 3)}
			a, b, val := l.rowOf(0, n), l.rowOf(1, n), l.rowOf(2, n)
			for i := range n {
				a[i], b[i] = edges[i/len(edges)], edges[i%len(edges)]
				if i%7 != 3 {
					l.ok[0].add(i)
				}
				if i%11 != 5 {
					l.ok[1].add(i)
				}
				val[i] = 0xdead // a loop must write every lane
			}
			in := laneIns{op: op, w: w, m: w.Mask(), out: 2, k: [3]int32{0, 1}}
			l.binary(&in, val, &l.ok[2], firstLanes(n))
			for i := range n {
				want, wok := foldBin(op, a[i], b[i], w)
				if !l.ok[0].Has(i) || !l.ok[1].Has(i) {
					want, wok = 0, false
				}
				if val[i] != want || l.ok[2].Has(i) != wok {
					t.Fatalf("%v at w%d on %#x, %#x (known %v, %v): lane %#x, %v; foldBin %#x, %v",
						op, w, a[i], b[i], l.ok[0].Has(i), l.ok[1].Has(i), val[i], l.ok[2].Has(i), want, wok)
				}
			}
		}
	}
}

// A program lists each node that mentions the variable once, however
// many parents share it, and a subtree that does not mention it as one
// ground operand; ZExt has no row of its own.
func TestCompileListsEachNodeOnce(t *testing.T) {
	x, y := Var(0, "x"), Var(1, "y")
	k32 := func(v uint64) *Expr { return Const(v, W32) }
	shared := Binary(OpMul, k32(33), ZExt(x, W32))      // x, 33, mul
	e := ult(shared, Add(shared, ZExt(Add(y, y), W32))) // y + y is one ground operand
	var l Lanes
	p := l.Compile(e, 0)
	if p.hi-p.lo != 6 || p.rows != 6 {
		t.Fatalf("%v over x: %d instructions, %d rows; want 6 of each", e, p.hi-p.lo, p.rows)
	}
	p = l.Compile(e, 1) // y, y + y, the product (one ground operand for both parents), add, ult
	if p.lo != 6 || p.hi != 11 {
		t.Fatalf("%v over y: instructions [%d, %d); want [6, 11)", e, p.lo, p.hi)
	}
}
