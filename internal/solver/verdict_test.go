package solver

import (
	"errors"
	"testing"

	"cloud9/internal/expr"
)

// The solver's answers held to enumeration (enumSat). An ErrBudget
// answer is "unknown" and allowed; a wrong verdict, a model that fails
// EvalAll, or any other error fails the test.

// unknown reports whether err is a budget kill, and fails t on any other
// error.
func unknown(t testing.TB, err error) bool {
	t.Helper()
	if err != nil && !errors.Is(err, ErrBudget) {
		t.Fatal(err)
	}
	return err != nil
}

// checkMayBeTrue holds s.MayBeTrue(cs, cond) to enumeration. It returns
// enumeration's verdict, and whether s gave one. cs must be satisfiable.
func checkMayBeTrue(t testing.TB, s *Solver, cs *ConstraintSet, cond *expr.Expr) (want, known bool) {
	t.Helper()
	want = enumSat(t, cs, cond)
	got, err := s.MayBeTrue(cs, cond)
	if unknown(t, err) {
		return want, false
	}
	if got != want {
		t.Fatalf("MayBeTrue(%v | %v) = %v, enumeration says %v", cs.Slice(), cond, got, want)
	}
	return want, true
}

// checkFork holds s.Fork(cs, cond) to enumeration. It returns
// enumeration's verdicts on cs ∧ cond and cs ∧ ¬cond, and whether s gave
// them. cs must be satisfiable.
func checkFork(t testing.TB, s *Solver, cs *ConstraintSet, cond *expr.Expr) (wantT, wantF, known bool) {
	t.Helper()
	wantT, wantF = enumSat(t, cs, cond), enumSat(t, cs, expr.Not(cond))
	mayT, mayF, err := s.Fork(cs, cond)
	if unknown(t, err) {
		return wantT, wantF, false
	}
	if mayT != wantT || mayF != wantF {
		t.Fatalf("Fork(%v | %v) = (%v,%v), enumeration says (%v,%v)", cs.Slice(), cond, mayT, mayF, wantT, wantF)
	}
	return wantT, wantF, true
}

// checkSolve holds s.Solve(cs) to want, enumeration's verdict on cs,
// and its model to EvalAll.
func checkSolve(t testing.TB, s *Solver, cs *ConstraintSet, want bool) {
	t.Helper()
	m, sat, err := s.Solve(cs)
	if unknown(t, err) {
		return
	}
	if sat != want {
		t.Fatalf("Solve(%v) = %v, enumeration says %v", cs.Slice(), sat, want)
	}
	if sat && !cs.EvalAll(m) {
		t.Fatalf("Solve(%v): model %v does not satisfy the set", cs.Slice(), m)
	}
}

// FuzzSolverVerdict decodes up to five conditions from data and holds
// Fork, MayBeTrue and Solve to enumeration on them. It walks them as the
// interpreter walks branches. Before a condition it forks on each of
// its divisors being zero (as execDiv does), and a path that goes on
// has the divisor nonzero, so every condition is defined where it is
// asked. Then it forks on the condition and follows a feasible side, so
// every set it queries is satisfiable. The last condition is asked with
// MayBeTrue instead, and Solve is asked of the set with it and of the
// set without it.
//
// data[0] picks the variables: bit 0 set means three, the lowest bounded
// to 16 values by a first constraint; clear means two. Either way no
// enumeration passes 2^20 assignments. Its other bits pick their ids
// (verdictIDs). The rest is the conditions in verdictDecoder's prefix
// code.
func FuzzSolverVerdict(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 || len(data) > 512 {
			return // a longer input builds larger conditions, each evaluated up to 2^20 times
		}
		ids := verdictIDs[int(data[0]>>1)%len(verdictIDs)]
		d := verdictDecoder{data: data[1:], vars: ids[:2]}
		cs := emptySet
		if data[0]&1 != 0 {
			d.vars = ids[:]
			cs = cs.Append(expr.Binary(expr.OpUlt, d.vars[0], c8(16)))
		}
		var conds []*expr.Expr
		var zeros [][]*expr.Expr
		for len(d.data) > 0 && len(conds) < 5 {
			d.zeros = nil
			conds = append(conds, d.cond())
			zeros = append(zeros, d.zeros)
		}
		s := New()
	walk:
		for i, c := range conds {
			for _, zero := range zeros[i] {
				if _, nonzero, _ := checkFork(t, s, cs, zero); !nonzero {
					break walk // the divisor is zero on every path: each one ends here
				}
				cs = cs.Append(expr.Not(zero))
			}
			if i == len(conds)-1 {
				want, _ := checkMayBeTrue(t, s, cs, c)
				checkSolve(t, s, cs.Append(c), want)
				break
			}
			if mayT, _, _ := checkFork(t, s, cs, c); !mayT {
				c = expr.Not(c)
			}
			cs = cs.Append(c)
		}
		checkSolve(t, s, cs, true)
	})
}

// verdictIDs are the id triples FuzzSolverVerdict draws its variables
// from, ascending: the lowest is the one a three-variable input bounds.
// The last two reach the ids past the dense bounds (boundsCap).
var verdictIDs = [][3]*expr.Expr{
	{v(0), v(1), v(2)},
	{v(4), v(10), v(11)},
	{v(7), v(boundsCap - 1), v(boundsCap)},
	{v(3), v(boundsCap + 3), v(boundsCap + 9)},
}

// verdictDecoder reads conditions over vars from data in a prefix code;
// a read past the end reads 0. It records, for each division it builds,
// the condition that the divisor is zero, inner divisions first.
//
//	cond := op%8: 0-4 Eq Ult Ule Slt Sle (width byte%4: 8 16 32 64, term, term)
//	        | 5 Not cond | 6 LAnd cond cond | 7 LOr cond cond
//	term := op%18: 0 var (byte: var index, bit 7 sign-extends)
//	        | 1 const (byte: low 3 bits + 1 little-endian bytes follow, bit 7 negates)
//	        | 2-14 binary op (term, term) | 15 extension of a narrower term (byte: bit 0 signed)
//	        | 16 concat (term, term) | 17 extract of a wider term (byte: which part)
//
// An operator the width cannot take (a narrower term at 8 bits, say)
// reads as a variable. Every operator takes a byte, and past the end
// every term is a variable and every condition a comparison, so the
// expressions are no larger than the input.
type verdictDecoder struct {
	data  []byte
	vars  []*expr.Expr
	zeros []*expr.Expr
}

var verdictOps = [...]expr.Op{
	expr.OpAdd, expr.OpSub, expr.OpMul, expr.OpUDiv, expr.OpSDiv, expr.OpURem, expr.OpSRem,
	expr.OpAnd, expr.OpOr, expr.OpXor, expr.OpShl, expr.OpLShr, expr.OpAShr,
}

func (d *verdictDecoder) next() byte {
	if len(d.data) == 0 {
		return 0
	}
	b := d.data[0]
	d.data = d.data[1:]
	return b
}

func (d *verdictDecoder) cond() *expr.Expr {
	op := d.next() % 8
	switch op {
	case 5:
		return expr.Not(d.cond())
	case 6:
		return expr.LAnd(d.cond(), d.cond())
	case 7:
		return expr.LOr(d.cond(), d.cond())
	}
	w := [...]expr.Width{expr.W8, expr.W16, expr.W32, expr.W64}[d.next()%4]
	l, r := d.term(w), d.term(w)
	return expr.Binary([...]expr.Op{expr.OpEq, expr.OpUlt, expr.OpUle, expr.OpSlt, expr.OpSle}[op], l, r)
}

func (d *verdictDecoder) term(w expr.Width) *expr.Expr {
	op := d.next() % 18
	// The widths a term of width w splits into and is cut from.
	var half, wide expr.Width
	switch w {
	case expr.W8:
		wide = expr.W32
	case expr.W16:
		half, wide = expr.W8, expr.W32
	case expr.W32:
		half, wide = expr.W16, expr.W64
	default:
		half = expr.W32
	}
	switch {
	case op == 1:
		p := d.next()
		var k uint64
		for i := range int(p&7) + 1 {
			k |= uint64(d.next()) << (8 * i)
		}
		if p&0x80 != 0 {
			k = -k
		}
		return expr.Const(k&w.Mask(), w)
	case op >= 2 && op <= 14:
		o, l, r := verdictOps[op-2], d.term(w), d.term(w)
		if zero := expr.Eq(r, expr.Const(0, w)); o >= expr.OpUDiv && o <= expr.OpSRem && !zero.IsFalse() {
			d.zeros = append(d.zeros, zero)
		}
		return expr.Binary(o, l, r)
	case op == 15 && half != 0:
		if d.next()&1 != 0 {
			return expr.SExt(d.term(half), w)
		}
		return expr.ZExt(d.term(half), w)
	case op == 16 && half != 0:
		return expr.Concat(d.term(half), d.term(half))
	case op == 17 && wide != 0:
		parts := uint(wide / w)
		return expr.Extract(d.term(wide), uint(d.next())%parts*uint(w), w)
	}
	p := d.next()
	x := d.vars[int(p&0x7f)%len(d.vars)]
	switch {
	case w == expr.W8:
		return x
	case p&0x80 != 0:
		return expr.SExt(x, w)
	}
	return expr.ZExt(x, w)
}
