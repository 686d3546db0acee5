package solver

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"cloud9/internal/expr"
)

func v(id uint64) *expr.Expr      { return expr.Var(id, "v") }
func c8(x uint64) *expr.Expr      { return expr.Const(x, expr.W8) }
func c32(x uint64) *expr.Expr     { return expr.Const(x, expr.W32) }
func w32(e *expr.Expr) *expr.Expr { return expr.ZExt(e, expr.W32) }

// Slice materializes the constraints oldest-first (tests only: the
// solver walks the parent links itself).
func (cs *ConstraintSet) Slice() []*expr.Expr {
	out := make([]*expr.Expr, cs.Len())
	i := cs.Len() - 1
	for n := cs; n != nil; n = n.parent {
		out[i] = n.c
		i--
	}
	return out
}

// emptySet is the constraint set with no constraints.
var emptySet = (*ConstraintSet)(nil)

// checkSat reports whether cs itself is satisfiable.
func (s *Solver) checkSat(cs *ConstraintSet) (bool, error) {
	sat, _, err := s.check(cs, nil, false)
	return sat, err
}

// EvalAll reports whether every constraint is satisfied by a. Missing
// variables make it return false.
func (cs *ConstraintSet) EvalAll(a expr.Assignment) bool {
	for n := cs; n != nil; n = n.parent {
		v, ok := n.c.Eval(a)
		if !ok || v == 0 {
			return false
		}
	}
	return true
}

// at returns the value m binds to id, 0 when unbound (as a generated
// input reads it).
func at(m expr.Assignment, id uint64) uint8 {
	v, _ := m.Get(id)
	return v
}

// Snapshot lists the Stats fields by hand; a counter added to the struct
// and not to the list would read zero everywhere downstream.
func TestStatsSnapshotCopiesEveryField(t *testing.T) {
	var st Stats
	rv := reflect.ValueOf(&st).Elem()
	for i := 0; i < rv.NumField(); i++ {
		rv.Field(i).SetUint(uint64(i + 1))
	}
	if got := st.Snapshot(); !reflect.DeepEqual(got, st) {
		t.Errorf("Snapshot dropped a field:\n got  %+v\n want %+v", got, st)
	}
}

func TestEmptySetSat(t *testing.T) {
	s := New()
	sat, err := s.checkSat(emptySet)
	if err != nil || !sat {
		t.Fatalf("empty set should be sat: %v %v", sat, err)
	}
}

func TestConstraintSetPersistence(t *testing.T) {
	a := emptySet.Append(expr.Binary(expr.OpUlt, v(0), c8(10)))
	b := a.Append(expr.Binary(expr.OpUlt, v(1), c8(20)))
	if a.Len() != 1 || b.Len() != 2 {
		t.Fatalf("lens %d %d", a.Len(), b.Len())
	}
	// a unchanged by extending into b.
	if len(a.Slice()) != 1 {
		t.Fatal("parent set mutated")
	}
	// Appending true is a no-op.
	if a.Append(expr.True()) != a {
		t.Fatal("appending true should return same set")
	}
}

func TestSimpleSatUnsat(t *testing.T) {
	s := New()
	cs := emptySet.Append(expr.Binary(expr.OpUlt, v(0), c8(10)))
	sat, err := s.MayBeTrue(cs, expr.Eq(v(0), c8(5)))
	if err != nil || !sat {
		t.Fatalf("x<10 && x==5 should be sat: %v %v", sat, err)
	}
	sat, err = s.MayBeTrue(cs, expr.Eq(v(0), c8(15)))
	if err != nil || sat {
		t.Fatalf("x<10 && x==15 should be unsat: %v %v", sat, err)
	}
}

// "cond holds on every solution" is asked as "¬cond is unsat".
func TestMayBeTrueDecidesImplication(t *testing.T) {
	s := New()
	cs := emptySet.Append(expr.Binary(expr.OpUlt, v(0), c8(1))) // x < 1 => x == 0
	sat, err := s.MayBeTrue(cs, expr.Not(expr.Eq(v(0), c8(0))))
	if err != nil || sat {
		t.Fatalf("x<1 must imply x==0: %v %v", sat, err)
	}
	sat, err = s.MayBeTrue(cs, expr.Not(expr.Eq(v(0), c8(1))))
	if err != nil || !sat {
		t.Fatal("x<1 must not imply x==1")
	}
}

func TestSolveProducesModel(t *testing.T) {
	s := New()
	cs := emptySet.
		Append(expr.Binary(expr.OpUlt, c8(10), v(0))). // x > 10
		Append(expr.Binary(expr.OpUlt, v(0), c8(20))). // x < 20
		Append(expr.Eq(v(1), expr.Add(v(0), c8(1))))   // y == x+1
	m, sat, err := s.Solve(cs)
	if err != nil || !sat {
		t.Fatalf("should be sat: %v", err)
	}
	if !(at(m, 0) > 10 && at(m, 0) < 20) {
		t.Errorf("model x=%d out of range", at(m, 0))
	}
	if at(m, 1) != at(m, 0)+1 {
		t.Errorf("model y=%d, want x+1=%d", at(m, 1), at(m, 0)+1)
	}
	if !cs.EvalAll(m) {
		t.Error("model does not satisfy the constraint set")
	}
}

func TestTransitiveChain(t *testing.T) {
	// x0 == x1, x1 == x2, ..., x9 == 42  => all equal 42.
	s := New()
	cs := emptySet
	for i := uint64(0); i < 9; i++ {
		cs = cs.Append(expr.Eq(v(i), v(i+1)))
	}
	cs = cs.Append(expr.Eq(v(9), c8(42)))
	m, sat, err := s.Solve(cs)
	if err != nil || !sat {
		t.Fatalf("chain should be sat: %v", err)
	}
	for i := uint64(0); i < 10; i++ {
		if at(m, i) != 42 {
			t.Fatalf("x%d = %d, want 42", i, at(m, i))
		}
	}
}

func TestUnsatChain(t *testing.T) {
	s := New()
	cs := emptySet.
		Append(expr.Eq(v(0), v(1))).
		Append(expr.Eq(v(1), c8(1))).
		Append(expr.Eq(v(0), c8(2)))
	sat, err := s.checkSat(cs)
	if err != nil || sat {
		t.Fatal("contradictory chain should be unsat")
	}
}

func TestMultiByteEquality(t *testing.T) {
	// 32-bit value from 4 symbolic bytes == magic constant.
	s := New()
	word := expr.Concat(expr.Concat(v(3), v(2)), expr.Concat(v(1), v(0)))
	cs := emptySet.Append(expr.Eq(c32(0xdeadbeef), word))
	m, sat, err := s.Solve(cs)
	if err != nil || !sat {
		t.Fatalf("magic equality should be sat: %v", err)
	}
	got := uint32(at(m, 3))<<24 | uint32(at(m, 2))<<16 | uint32(at(m, 1))<<8 | uint32(at(m, 0))
	if got != 0xdeadbeef {
		t.Fatalf("model word = %#x", got)
	}
}

func TestMultiByteComparisonSplit(t *testing.T) {
	// 16-bit value < 0x0102 — solvable without 65k enumeration because the
	// comparison byte-splits at construction.
	s := New()
	word := expr.Concat(v(1), v(0))
	cs := emptySet.
		Append(expr.Binary(expr.OpUlt, expr.Const(0x0101, expr.W16), word)).
		Append(expr.Binary(expr.OpUlt, word, expr.Const(0x0104, expr.W16)))
	m, sat, err := s.Solve(cs)
	if err != nil || !sat {
		t.Fatalf("range should be sat: %v", err)
	}
	got := uint16(at(m, 1))<<8 | uint16(at(m, 0))
	if !(got > 0x0101 && got < 0x0104) {
		t.Fatalf("model = %#x", got)
	}
}

func TestIndependencePartitioning(t *testing.T) {
	s := New()
	// Two independent groups: {v0,v1} and {v2}.
	cs := emptySet.
		Append(expr.Binary(expr.OpUlt, v(0), v(1))).
		Append(expr.Eq(v(2), c8(7)))
	runsBefore := s.Stats.Snapshot().SolverRuns
	sat, err := s.MayBeTrue(cs, expr.Binary(expr.OpUlt, c8(100), v(1)))
	if err != nil || !sat {
		t.Fatalf("query should be sat: %v", err)
	}
	runs := s.Stats.Snapshot().SolverRuns - runsBefore
	// Only the {v0,v1} group should be searched (v2 bound by unit prop
	// costs no run at all).
	if runs > 1 {
		t.Errorf("expected at most 1 group search, got %d", runs)
	}
}

// A second, weaker query the set's witness model already satisfies: sat,
// as enumeration says, by whichever path answers it.
func TestModelReuse(t *testing.T) {
	s := New()
	cs := emptySet.Append(expr.Binary(expr.OpUlt, v(0), c8(10)))
	mayBeTrueAgrees(t, s, cs, expr.Binary(expr.OpUlt, v(0), c8(9)), true)
	mayBeTrueAgrees(t, s, cs, expr.Binary(expr.OpUlt, v(0), c8(8)), true)
}

func TestFalseConstraintIsUnsat(t *testing.T) {
	cs := emptySet.Append(expr.False())
	s := New()
	sat, err := s.checkSat(cs)
	if err != nil || sat {
		t.Fatal("false constraint should be unsat")
	}
}

func TestArithmeticRelation(t *testing.T) {
	// x + y == 5 (mod 256) with x < 10 and y > 200 forces wraparound
	// (x + y = 261): needs real search over both variables.
	s := New()
	cs := emptySet.
		Append(expr.Eq(c8(5), expr.Add(v(0), v(1)))).
		Append(expr.Binary(expr.OpUlt, v(0), c8(10))).
		Append(expr.Binary(expr.OpUlt, c8(200), v(1)))
	m, sat, err := s.Solve(cs)
	if err != nil || !sat {
		t.Fatalf("should be sat: %v", err)
	}
	if uint8(at(m, 0)+at(m, 1)) != 5 || at(m, 0) >= 10 || at(m, 1) <= 200 {
		t.Fatalf("bad model %v", m)
	}
	// And the over-constrained variant is unsat: x + y == 100 cannot
	// wrap, so y = 100 - x <= 100 contradicts y > 200.
	cs2 := emptySet.
		Append(expr.Eq(c8(100), expr.Add(v(0), v(1)))).
		Append(expr.Binary(expr.OpUlt, v(0), c8(10))).
		Append(expr.Binary(expr.OpUlt, c8(200), v(1)))
	sat, err = s.checkSat(cs2)
	if err != nil || sat {
		t.Fatal("non-wrapping variant should be unsat")
	}
}

func TestSignedConstraints(t *testing.T) {
	s := New()
	// Signed: x > -5 and x < 3 (as int8).
	cs := emptySet.
		Append(expr.Binary(expr.OpSlt, c8(0xfb), v(0))). // -5 < x
		Append(expr.Binary(expr.OpSlt, v(0), c8(3)))
	m, sat, err := s.Solve(cs)
	if err != nil || !sat {
		t.Fatalf("signed range should be sat: %v", err)
	}
	sx := int8(at(m, 0))
	if !(sx > -5 && sx < 3) {
		t.Fatalf("model x=%d out of signed range", sx)
	}
}

func TestUnsatRange(t *testing.T) {
	s := New()
	cs := emptySet.
		Append(expr.Binary(expr.OpUlt, v(0), c8(5))).
		Append(expr.Binary(expr.OpUlt, c8(9), v(0)))
	sat, err := s.checkSat(cs)
	if err != nil || sat {
		t.Fatal("x<5 && x>9 should be unsat")
	}
}

func TestSolveBindsAddedEquality(t *testing.T) {
	s := New()
	cs := emptySet.Append(expr.Binary(expr.OpUlt, v(0), c8(10))).Append(expr.Eq(v(0), c8(7)))
	m, sat, err := s.Solve(cs)
	if err != nil || !sat || at(m, 0) != 7 {
		t.Fatalf("Solve model %v sat=%v err=%v", m, sat, err)
	}
}

func TestWideArithmetic(t *testing.T) {
	// zext(x)*2 + zext(y) == 515 over 32 bits.
	s := New()
	sum := expr.Add(expr.Binary(expr.OpMul, w32(v(0)), c32(2)), w32(v(1)))
	cs := emptySet.Append(expr.Eq(c32(515), sum))
	m, sat, err := s.Solve(cs)
	if err != nil || !sat {
		t.Fatalf("wide arithmetic should be sat: %v", err)
	}
	if uint32(at(m, 0))*2+uint32(at(m, 1)) != 515 {
		t.Fatalf("model %v does not satisfy", m)
	}
}

// Property: Solve's verdict is enumeration's, and any model it returns
// satisfies the constraint set, on sets that need not be satisfiable.
func TestQuickModelsSatisfy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := New()
	for i := 0; i < 300; i++ {
		nv := 1 + rng.Intn(4)
		cs := boundedRoot()
		for j := 0; j < 1+rng.Intn(4); j++ {
			cs = cs.Append(randomConstraint(rng, blockTerm(rng, nv)))
		}
		checkSolve(t, s, cs, enumSat(t, cs))
	}
}

// Property: MayBeTrue(cs, e) || MayBeTrue(cs, !e) for satisfiable cs.
func TestQuickBranchCompleteness(t *testing.T) {
	f := func(bound uint8) bool {
		s := New()
		cs := emptySet.Append(expr.Ule(v(0), c8(uint64(bound))))
		cond := expr.Binary(expr.OpUlt, v(0), c8(uint64(bound)/2+1))
		a, err1 := s.MayBeTrue(cs, cond)
		b, err2 := s.MayBeTrue(cs, expr.Not(cond))
		return err1 == nil && err2 == nil && (a || b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// randomConstraint draws a byte comparison, its sides (one possibly a
// sum) from term.
func randomConstraint(rng *rand.Rand, term func() *expr.Expr) *expr.Expr {
	l, r := term(), term()
	if rng.Intn(3) == 0 {
		l = expr.Add(l, term())
	}
	switch rng.Intn(4) {
	case 0:
		return expr.Eq(l, r)
	case 1:
		return expr.Binary(expr.OpUlt, l, r)
	case 2:
		return expr.Ule(l, r)
	default:
		return expr.Not(expr.Eq(l, r))
	}
}

// anyTerm draws terms for randomConstraint: a variable below nv or a
// byte constant, evenly.
func anyTerm(rng *rand.Rand, nv int) func() *expr.Expr {
	return func() *expr.Expr {
		if rng.Intn(2) == 0 {
			return v(uint64(rng.Intn(nv)))
		}
		return c8(uint64(rng.Intn(256)))
	}
}

// blockTerm is anyTerm over one block of variables, drawn once: a pair
// of the nv variables ({0,1}, {2,3} or {4}), or the triple {5,6,7}.
// Constraints from it join no component past three variables, and sets
// of them grown from boundedRoot, which bounds v5 to 8 values, enumerate
// in at most 2^19 assignments.
func blockTerm(rng *rand.Rand, nv int) func() *expr.Expr {
	lo, n := 5, 3
	if k := rng.Intn((nv + 3) / 2); 2*k < nv {
		lo, n = 2*k, min(2, nv-2*k)
	}
	return func() *expr.Expr {
		if rng.Intn(2) == 0 {
			return v(uint64(lo + rng.Intn(n)))
		}
		return c8(uint64(rng.Intn(256)))
	}
}

// boundedRoot returns the set blockTerm workloads grow from: v5 < 8.
func boundedRoot() *ConstraintSet {
	return emptySet.Append(expr.Binary(expr.OpUlt, v(5), c8(8)))
}

func BenchmarkSolverBranchQuery(b *testing.B) {
	s := New()
	cs := emptySet
	for i := uint64(0); i < 16; i++ {
		cs = cs.Append(expr.Binary(expr.OpUlt, v(i), c8(200)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := expr.Eq(v(uint64(i%16)), c8(uint64(i%200)))
		if _, err := s.MayBeTrue(cs, q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolverMagicWord(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := New()
		word := expr.Concat(expr.Concat(v(3), v(2)), expr.Concat(v(1), v(0)))
		cs := emptySet.Append(expr.Eq(c32(uint64(0xcafe0000)|uint64(i&0xffff)), word))
		if _, sat, err := s.Solve(cs); err != nil || !sat {
			b.Fatal("unexpected unsat")
		}
	}
}

// Canonical models: concretization decisions must be deterministic
// functions of the constraint set alone, independent of query history,
// or path replays diverge across workers (§6 "Broken Replays").
func TestSolveModelIsCanonical(t *testing.T) {
	build := func() *ConstraintSet {
		return emptySet.
			Append(expr.Binary(expr.OpUlt, c8(10), v(0))).
			Append(expr.Binary(expr.OpUlt, v(1), v(0))).
			Append(expr.Not(expr.Eq(v(2), c8(0))))
	}
	// Solver A answers unrelated queries first (polluting its recent-model
	// cache); solver B solves directly. Models must match exactly.
	a := New()
	for i := uint64(0); i < 20; i++ {
		cs := emptySet.Append(expr.Binary(expr.OpUlt, v(i+10), c8(uint64(50+i))))
		if _, err := a.MayBeTrue(cs, expr.Eq(v(i+10), c8(uint64(i)))); err != nil {
			t.Fatal(err)
		}
	}
	ma, satA, err := a.Solve(build())
	if err != nil || !satA {
		t.Fatal("A unsat")
	}
	b := New()
	mb, satB, err := b.Solve(build())
	if err != nil || !satB {
		t.Fatal("B unsat")
	}
	for _, id := range []uint64{0, 1, 2} {
		if at(ma, id) != at(mb, id) {
			t.Fatalf("model divergence on var %d: %d vs %d", id, at(ma, id), at(mb, id))
		}
	}
}

func TestBudgetResultIsCached(t *testing.T) {
	s := New()
	s.MaxBacktracks = 1 << 10
	hard := hardGroups()[0]
	cs := emptySet
	for _, c := range hard.cons {
		cs = cs.Append(c)
	}
	_, _, err := s.Solve(cs)
	var kill *BudgetError
	if !errors.As(err, &kill) {
		t.Fatalf("want a budget kill, got %v", err)
	}
	if kill.Group != hard.key || kill.Backtracks != 1<<10+1 {
		t.Errorf("the kill names the wrong search: %+v", *kill)
	}
	before := s.Stats.Snapshot()
	_, _, err2 := s.Solve(cs)
	var again *BudgetError
	if !errors.As(err2, &again) || !again.Memo || again.Group != kill.Group || again.Backtracks != kill.Backtracks {
		t.Fatalf("second query should report the same kill from the memo, got %v", err2)
	}
	after := s.Stats.Snapshot()
	if after.KillMemoHits != before.KillMemoHits+1 || after.SolverRuns != before.SolverRuns {
		t.Fatal("budget failures should be answered from the kill memo")
	}
}
