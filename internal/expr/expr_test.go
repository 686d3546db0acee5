package expr

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// ult is the one comparison the tests build often enough to name.
func ult(l, r *Expr) *Expr { return Binary(OpUlt, l, r) }

func TestConstInterning(t *testing.T) {
	if Const(5, W8) != Const(5, W8) {
		t.Error("small constants should be interned")
	}
	if Const(5, W8) == Const(5, W16) {
		t.Error("interning must be width-sensitive")
	}
	if True() != Const(1, W1) || False() != Const(0, W1) {
		t.Error("bool constants not interned with Const")
	}
}

func TestConstTruncation(t *testing.T) {
	if got := Const(0x1ff, W8).ConstVal(); got != 0xff {
		t.Errorf("Const(0x1ff, W8) = %#x, want 0xff", got)
	}
	if got := Const(math.MaxUint64, W32).ConstVal(); got != 0xffffffff {
		t.Errorf("truncate to W32 = %#x", got)
	}
}

func TestWidthMask(t *testing.T) {
	cases := []struct {
		w    Width
		mask uint64
	}{{W1, 1}, {W8, 0xff}, {W16, 0xffff}, {W32, 0xffffffff}, {W64, math.MaxUint64}}
	for _, c := range cases {
		if c.w.Mask() != c.mask {
			t.Errorf("Mask(%d) = %#x, want %#x", c.w, c.w.Mask(), c.mask)
		}
	}
}

func TestBinaryConstFold(t *testing.T) {
	a, b := Const(200, W8), Const(100, W8)
	cases := []struct {
		op   Op
		want uint64
	}{
		{OpAdd, 44}, // 300 mod 256
		{OpSub, 100},
		{OpMul, (200 * 100) & 0xff},
		{OpUDiv, 2},
		{OpURem, 0},
		{OpAnd, 200 & 100},
		{OpOr, 200 | 100},
		{OpXor, 200 ^ 100},
	}
	for _, c := range cases {
		got := Binary(c.op, a, b)
		if !got.IsConst() || got.ConstVal() != c.want {
			t.Errorf("%v(200,100) = %v, want %d", c.op, got, c.want)
		}
	}
}

func TestSignedFold(t *testing.T) {
	// -56 (200 as signed byte) < 100 signed.
	if !Binary(OpSlt, Const(200, W8), Const(100, W8)).IsTrue() {
		t.Error("slt(200,100) on W8 should be true (signed -56 < 100)")
	}
	if Binary(OpUlt, Const(200, W8), Const(100, W8)).IsTrue() {
		t.Error("ult(200,100) should be false")
	}
	// -7 sdiv 2 == -3 (truncating), as int8: 249 sdiv 2 = 253 (-3).
	got := Binary(OpSDiv, Const(249, W8), Const(2, W8))
	if got.ConstVal() != 253 {
		t.Errorf("sdiv(-7,2) = %d, want 253 (-3)", got.ConstVal())
	}
	got = Binary(OpSRem, Const(249, W8), Const(2, W8))
	if got.ConstVal() != 255 {
		t.Errorf("srem(-7,2) = %d, want 255 (-1)", got.ConstVal())
	}
}

func TestDivByZeroNotFolded(t *testing.T) {
	e := Binary(OpUDiv, Const(5, W8), Const(0, W8))
	if e.IsConst() {
		t.Error("udiv by zero must not fold to a constant")
	}
}

func TestShiftFold(t *testing.T) {
	if got := Binary(OpShl, Const(1, W8), Const(10, W8)); !got.IsConst() || got.ConstVal() != 0 {
		t.Errorf("shl overflow should fold to 0, got %v", got)
	}
	if got := Binary(OpAShr, Const(0x80, W8), Const(7, W8)); got.ConstVal() != 0xff {
		t.Errorf("ashr sign fill = %#x, want 0xff", got.ConstVal())
	}
}

func TestAlgebraicIdentities(t *testing.T) {
	x := Var(0, "x")
	if Add(Const(0, W8), x) != x {
		t.Error("0 + x != x")
	}
	if Add(x, Const(0, W8)) != x {
		t.Error("x + 0 != x")
	}
	if got := Sub(x, x); !got.IsConst() || got.ConstVal() != 0 {
		t.Error("x - x != 0")
	}
	if Binary(OpMul, Const(1, W8), x) != x {
		t.Error("1 * x != x")
	}
	if got := Binary(OpMul, Const(0, W8), x); !got.IsConst() || got.ConstVal() != 0 {
		t.Error("0 * x != 0")
	}
	if Binary(OpAnd, Const(0xff, W8), x) != x {
		t.Error("0xff & x != x")
	}
	if got := Binary(OpAnd, Const(0, W8), x); !got.IsConst() {
		t.Error("0 & x != 0")
	}
	if Or(Const(0, W8), x) != x {
		t.Error("0 | x != x")
	}
	if got := Binary(OpXor, x, x); !got.IsConst() || got.ConstVal() != 0 {
		t.Error("x ^ x != 0")
	}
	if !Eq(x, x).IsTrue() {
		t.Error("x == x should fold to true")
	}
	if !Ule(Const(0, W8), x).IsTrue() {
		t.Error("0 <= x unsigned should fold true")
	}
	if !ult(x, Const(0, W8)).IsFalse() {
		t.Error("x < 0 unsigned should fold false")
	}
}

func TestAddChainFolding(t *testing.T) {
	x := Var(1, "x")
	e := Add(Const(3, W8), Add(Const(4, W8), x))
	// should become (add 7 x)
	if e.Op() != OpAdd || !e.Kid(0).IsConst() || e.Kid(0).ConstVal() != 7 {
		t.Errorf("nested const add not folded: %v", e)
	}
	// x - 3 normalizes to (add 253 x)
	e = Sub(x, Const(3, W8))
	if e.Op() != OpAdd || e.Kid(0).ConstVal() != 253 {
		t.Errorf("sub-const not normalized: %v", e)
	}
}

func TestEqAddRewrite(t *testing.T) {
	x := Var(2, "x")
	// (5 == x + 3) -> (2 == x)
	e := Eq(Const(5, W8), Add(Const(3, W8), x))
	if e.Op() != OpEq || e.Kid(0).ConstVal() != 2 || e.Kid(1) != x {
		t.Errorf("eq-add rewrite failed: %v", e)
	}
}

func TestZExtRewrites(t *testing.T) {
	x := Var(3, "x")
	wide := ZExt(x, W32)
	if wide.Width() != W32 {
		t.Fatal("zext width")
	}
	// eq 300 (zext W32 x) -> false since x is a byte
	if !Eq(Const(300, W32), wide).IsFalse() {
		t.Error("eq out-of-range zext should be false")
	}
	// eq 77 (zext x) -> eq 77:w8 x
	e := Eq(Const(77, W32), wide)
	if e.Op() != OpEq || e.Kid(0).Width() != W8 {
		t.Errorf("eq zext narrowing failed: %v", e)
	}
	// ult narrowing both directions
	e = ult(Const(10, W32), wide)
	if e.Op() != OpUlt || e.Kid(0).Width() != W8 {
		t.Errorf("ult const/zext narrowing failed: %v", e)
	}
	e = ult(wide, Const(300, W32))
	if !e.IsTrue() {
		t.Errorf("zext(x) < 300 should be true, got %v", e)
	}
}

func TestNotInvolution(t *testing.T) {
	x := Var(4, "x")
	c := ult(x, Const(5, W8))
	if Not(Not(c)) != c {
		t.Error("double negation should cancel")
	}
	if !Not(True()).IsFalse() || !Not(False()).IsTrue() {
		t.Error("const negation")
	}
}

func TestBoolConnectives(t *testing.T) {
	x := ult(Var(5, "x"), Const(9, W8))
	if LAnd(True(), x) != x || LAnd(x, True()) != x {
		t.Error("true && x != x")
	}
	if !LAnd(False(), x).IsFalse() {
		t.Error("false && x != false")
	}
	if LOr(False(), x) != x {
		t.Error("false || x != x")
	}
	if !LOr(True(), x).IsTrue() {
		t.Error("true || x != true")
	}
	if LAnd(x, x) != x || LOr(x, x) != x {
		t.Error("idempotence")
	}
}

func TestConcatExtractRoundTrip(t *testing.T) {
	a, b := Var(6, "a"), Var(7, "b")
	w := Concat(a, b) // a:b, 16 bits
	if w.Width() != W16 {
		t.Fatal("concat width")
	}
	if Extract(w, 0, W8) != b {
		t.Error("extract low of concat should be b")
	}
	if Extract(w, 8, W8) != a {
		t.Error("extract high of concat should be a")
	}
	// Reassembling adjacent extracts of one var-width expression folds back.
	wide := ZExt(a, W32)
	lo := Extract(wide, 0, W16)
	hi := Extract(wide, 16, W16)
	if got := Concat(hi, lo); !Equal(got, wide) {
		t.Errorf("adjacent extract concat did not fold: %v", got)
	}
}

func TestExtractConst(t *testing.T) {
	e := Extract(Const(0xabcd, W16), 8, W8)
	if !e.IsConst() || e.ConstVal() != 0xab {
		t.Errorf("extract const = %v", e)
	}
}

func TestZExtOfZExt(t *testing.T) {
	x := Var(8, "x")
	e := ZExt(ZExt(x, W16), W64)
	if e.Op() != OpZExt || e.Kid(0) != x {
		t.Errorf("zext of zext should collapse: %v", e)
	}
	if ZExt(x, W8) != x {
		t.Error("zext to same width should be identity")
	}
}

func TestSExtConst(t *testing.T) {
	e := SExt(Const(0x80, W8), W16)
	if !e.IsConst() || e.ConstVal() != 0xff80 {
		t.Errorf("sext const = %v", e)
	}
}

func TestIte(t *testing.T) {
	x, y := ZExt(Var(9, "x"), W32), ZExt(Var(10, "y"), W32)
	c := ult(x, y)
	if Ite(True(), x, y) != x || Ite(False(), x, y) != y {
		t.Error("const cond ite")
	}
	if Ite(c, x, x) != x {
		t.Error("identical arms ite")
	}
	e := Ite(c, x, y)
	if e.Op() != OpIte || e.Width() != W32 {
		t.Errorf("ite structure: %v", e)
	}
}

// bind returns an assignment binding ids to values, given as id, value
// pairs.
func bind(idVal ...uint64) Assignment {
	var a Assignment
	for i := 0; i+1 < len(idVal); i += 2 {
		a.Set(idVal[i], uint8(idVal[i+1]))
	}
	return a
}

// The zero element is "unbound": growth and clear bind nothing, and an
// assignment reads back exactly what was set.
func TestAssignmentZeroBindsNothing(t *testing.T) {
	a := bind(9, 1)
	if len(a) != 10 {
		t.Fatalf("len %d after binding id 9", len(a))
	}
	for id := uint64(0); id < 12; id++ {
		v, ok := a.Get(id)
		if want := id == 9; ok != want || (ok && v != 1) {
			t.Errorf("Get(%d) = %d, %v", id, v, ok)
		}
	}
	a.Set(0, 0)
	a.Set(20, 255)
	if v, ok := a.Get(0); !ok || v != 0 {
		t.Errorf("Get(0) = %d, %v after binding 0", v, ok)
	}
	if v, ok := a.Get(20); !ok || v != 255 {
		t.Errorf("Get(20) = %d, %v after binding 255", v, ok)
	}
	if _, ok := a.Get(15); ok {
		t.Error("growing to id 20 bound id 15")
	}
	clear(a)
	for id := range a {
		if _, ok := a.Get(uint64(id)); ok {
			t.Fatalf("id %d still bound after clear", id)
		}
	}
	if _, ok := make(Assignment, 4).Get(2); ok {
		t.Error("make bound id 2")
	}
	if s := bind(3, 0, 1, 250).String(); s != "{1:250 3:0}" {
		t.Errorf("String() = %q", s)
	}
}

func TestEval(t *testing.T) {
	x, y := Var(0, "x"), Var(1, "y")
	a := bind(0, 10, 1, 250)
	sum := Add(ZExt(x, W32), ZExt(y, W32))
	v, ok := sum.Eval(a)
	if !ok || v != 260 {
		t.Errorf("eval sum = %d, %v", v, ok)
	}
	cmp := ult(x, y)
	v, ok = cmp.Eval(a)
	if !ok || v != 1 {
		t.Errorf("eval cmp = %d, %v", v, ok)
	}
	_, ok = Add(x, Var(2, "z")).Eval(a)
	if ok {
		t.Error("eval with missing var should report !ok")
	}
}

func TestEvalShortCircuit(t *testing.T) {
	x := Var(0, "x")
	a := bind(0, 0)
	// false && <unbound> evaluates to false.
	e := LAnd(ult(x, Const(0, W8)), ult(Var(99, "u"), Const(5, W8)))
	// Note: ult(x, 0) folds to false already; build via non-folding path.
	e = LAnd(Eq(x, Const(1, W8)), ult(Var(99, "u"), Const(5, W8)))
	v, ok := e.Eval(a)
	if !ok || v != 0 {
		t.Errorf("short-circuit and = %d %v", v, ok)
	}
	e = LOr(Eq(x, Const(0, W8)), ult(Var(99, "u"), Const(5, W8)))
	v, ok = e.Eval(a)
	if !ok || v != 1 {
		t.Errorf("short-circuit or = %d %v", v, ok)
	}
}

func TestVarsCollection(t *testing.T) {
	x, y, z := Var(0, "x"), Var(1, "y"), Var(2, "z")
	e := LAnd(ult(x, y), Eq(z, Add(x, Const(1, W8))))
	vars := e.VarIDs()
	if len(vars) != 3 {
		t.Errorf("vars = %v, want 3 distinct", vars)
	}
	if e.NumVars() == 0 || Const(3, W8).NumVars() != 0 {
		t.Error("NumVars misreports")
	}
}

func TestHashEqual(t *testing.T) {
	mk := func() *Expr {
		return LAnd(ult(Var(0, "x"), Const(5, W8)), Eq(Var(1, "y"), Const(2, W8)))
	}
	a, b := mk(), mk()
	if a.Hash() != b.Hash() {
		t.Error("equal structures must hash equal")
	}
	if !Equal(a, b) {
		t.Error("Equal misreports equal structures")
	}
	c := LAnd(ult(Var(0, "x"), Const(6, W8)), Eq(Var(1, "y"), Const(2, W8)))
	if Equal(a, c) {
		t.Error("Equal misreports different structures")
	}
}

func TestSubstConsts(t *testing.T) {
	x, y := Var(0, "x"), Var(1, "y")
	e := Add(x, y)
	got := e.Subst(bind(0, 3), nil)
	if got.Op() != OpAdd || !got.Kid(0).IsConst() {
		t.Errorf("subst = %v", got)
	}
	got = got.Subst(bind(1, 4), nil)
	if !got.IsConst() || got.ConstVal() != 7 {
		t.Errorf("full subst = %v", got)
	}
	// Substitution must preserve structure when nothing binds.
	if e.Subst(bind(9, 1), nil) != e {
		t.Error("no-op subst should return the same node")
	}
	// A summary disjoint from e prunes the walk: x stays even though a
	// binds it.
	if e.Subst(bind(0, 3), VarSetOf([]uint64{7})) != e {
		t.Error("subst outside the bound summary should return the same node")
	}
}

func TestStringRendering(t *testing.T) {
	e := ult(Var(0, "pkt"), Const(5, W8))
	s := e.String()
	if s == "" || s == "()" {
		t.Errorf("bad render: %q", s)
	}
	if True().String() != "true" || False().String() != "false" {
		t.Error("bool render")
	}
}

// Property: simplified construction agrees with direct semantic evaluation.
func TestQuickFoldMatchesEval(t *testing.T) {
	ops := []Op{OpAdd, OpSub, OpMul, OpAnd, OpOr, OpXor, OpEq, OpUlt, OpUle, OpSlt, OpSle}
	f := func(av, bv uint8, opIdx uint8) bool {
		op := ops[int(opIdx)%len(ops)]
		x, y := Var(0, "x"), Var(1, "y")
		sym := Binary(op, x, y)
		asg := bind(0, uint64(av), 1, uint64(bv))
		symV, ok1 := sym.Eval(asg)
		conc := Binary(op, Const(uint64(av), W8), Const(uint64(bv), W8))
		if !conc.IsConst() {
			return true // non-foldable (div by zero etc.)
		}
		return ok1 && symV == conc.ConstVal()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: Subst of a full assignment equals Eval.
func TestQuickSubstMatchesEval(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 500; i++ {
		e := randomExpr(rng, 3)
		asg := bind(0, uint64(rng.Intn(256)), 1, uint64(rng.Intn(256)), 2, uint64(rng.Intn(256)))
		want, ok := e.Eval(asg)
		if !ok {
			continue
		}
		got := e.Subst(asg, nil)
		if !got.IsConst() {
			t.Fatalf("subst did not fully fold: %v from %v", got, e)
		}
		if got.ConstVal() != want {
			t.Fatalf("subst=%d eval=%d for %v", got.ConstVal(), want, e)
		}
	}
}

// Property: Extract(Concat(a,b)) laws hold semantically on random bytes.
func TestQuickConcatExtract(t *testing.T) {
	f := func(av, bv uint8) bool {
		a, b := Var(0, "a"), Var(1, "b")
		w := Concat(a, b)
		asg := bind(0, uint64(av), 1, uint64(bv))
		v, ok := w.Eval(asg)
		if !ok || v != uint64(av)<<8|uint64(bv) {
			return false
		}
		lo, _ := Extract(w, 0, W8).Eval(asg)
		hi, _ := Extract(w, 8, W8).Eval(asg)
		return lo == uint64(bv) && hi == uint64(av)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func randomExpr(rng *rand.Rand, depth int) *Expr {
	if depth == 0 || rng.Intn(4) == 0 {
		if rng.Intn(2) == 0 {
			return Var(uint64(rng.Intn(3)), "v")
		}
		return Const(uint64(rng.Intn(256)), W8)
	}
	ops := []Op{OpAdd, OpSub, OpMul, OpAnd, OpOr, OpXor, OpShl, OpLShr}
	l := randomExpr(rng, depth-1)
	r := randomExpr(rng, depth-1)
	return Binary(ops[rng.Intn(len(ops))], l, r)
}

func BenchmarkConstructFold(b *testing.B) {
	x := Var(0, "x")
	for i := 0; i < b.N; i++ {
		e := Add(Const(uint64(i), W8), x)
		_ = Eq(e, Const(7, W8))
	}
}

func BenchmarkEval(b *testing.B) {
	x, y := Var(0, "x"), Var(1, "y")
	e := LAnd(ult(Add(x, Const(3, W8)), y), Not(Eq(y, Const(0, W8))))
	asg := bind(0, 5, 1, 200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Eval(asg)
	}
}

// Property: the byte-splitting rewrites for multi-byte Eq/Ult against
// constants preserve semantics on random inputs.
func TestQuickConcatCompareRewrites(t *testing.T) {
	f := func(av, bv uint8, cv uint16) bool {
		a, b := Var(0, "a"), Var(1, "b")
		word := Concat(a, b) // a:hi, b:lo
		asg := bind(0, uint64(av), 1, uint64(bv))
		w := uint16(av)<<8 | uint16(bv)
		c := Const(uint64(cv), W16)

		eq := Eq(c, word)
		v1, ok1 := eq.Eval(asg)
		if !ok1 || (v1 == 1) != (w == cv) {
			return false
		}
		lt := ult(word, c)
		v2, ok2 := lt.Eval(asg)
		if !ok2 || (v2 == 1) != (w < cv) {
			return false
		}
		gt := ult(c, word)
		v3, ok3 := gt.Eval(asg)
		return ok3 && (v3 == 1) == (cv < w)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
