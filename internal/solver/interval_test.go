package solver

import (
	"math/rand"
	"testing"

	"cloud9/internal/expr"
)

// richConstraint draws from a wider operator mix than randomConstraint —
// signed compares, sums, differences, widening, boolean connectives — to
// stress both the forward interval evaluation and the backward
// narrowing paths.
func richConstraint(rng *rand.Rand, nv int) *expr.Expr {
	mkTerm := func() *expr.Expr {
		if rng.Intn(2) == 0 {
			return v(uint64(rng.Intn(nv)))
		}
		return c8(uint64(rng.Intn(256)))
	}
	l, r := mkTerm(), mkTerm()
	switch rng.Intn(4) {
	case 0:
		l = expr.Add(l, mkTerm())
	case 1:
		l = expr.Sub(l, mkTerm())
	case 2:
		// Widened compare: zext both sides to W32.
		l, r = w32(l), w32(r)
	}
	var c *expr.Expr
	switch rng.Intn(6) {
	case 0:
		c = expr.Eq(l, r)
	case 1:
		c = expr.Ult(l, r)
	case 2:
		c = expr.Ule(l, r)
	case 3:
		c = expr.Slt(l, r)
	case 4:
		c = expr.Sle(l, r)
	default:
		c = expr.Not(expr.Eq(l, r))
	}
	switch rng.Intn(5) {
	case 0:
		c = expr.LAnd(c, expr.Ule(mkTerm(), mkTerm()))
	case 1:
		c = expr.LOr(c, expr.Ult(mkTerm(), mkTerm()))
	}
	return c
}

// Differential property test for the interval tier: across randomized
// feasible Append trees — with tiny caps forcing state evictions and
// rebuilds — the incremental path (whose first tier is the interval
// abstraction) must agree with the from-scratch reference on every
// branch verdict, fork, and solve, and the interval tier must actually
// fire over the workload.
func TestQuickDifferentialInterval(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	inc := New()
	inc.maxStates = 8
	inc.maxCache = 16

	for round := 0; round < 80; round++ {
		ref := New()
		nv := 2 + rng.Intn(4)
		sets := []*ConstraintSet{EmptySet}
		for grow := 0; grow < 10; grow++ {
			base := sets[rng.Intn(len(sets))]
			c := richConstraint(rng, nv)
			ok, err := inc.MayBeTrue(base, c)
			if err != nil {
				continue
			}
			refOK, err := ref.ReferenceMayBeTrue(base, c)
			if err != nil {
				t.Fatalf("reference error: %v", err)
			}
			if ok != refOK {
				t.Fatalf("MayBeTrue divergence: incremental=%v reference=%v for %v ++ %v",
					ok, refOK, base.Slice(), c)
			}
			if ok {
				sets = append(sets, base.Append(c))
			}
		}
		for q := 0; q < 20; q++ {
			cs := sets[rng.Intn(len(sets))]
			cond := richConstraint(rng, nv)
			switch rng.Intn(3) {
			case 0:
				got, err := inc.MayBeTrue(cs, cond)
				if err != nil {
					continue
				}
				want, err := ref.ReferenceMayBeTrue(cs, cond)
				if err != nil {
					t.Fatalf("reference error: %v", err)
				}
				if got != want {
					t.Fatalf("MayBeTrue divergence: incremental=%v reference=%v for %v | %v",
						got, want, cs.Slice(), cond)
				}
			case 1:
				mayT, mayF, err := inc.Fork(cs, cond)
				if err != nil {
					continue
				}
				wantT, err := ref.ReferenceMayBeTrue(cs, cond)
				if err != nil {
					t.Fatal(err)
				}
				wantF, err := ref.ReferenceMayBeTrue(cs, expr.Not(cond))
				if err != nil {
					t.Fatal(err)
				}
				if mayT != wantT || mayF != wantF {
					t.Fatalf("Fork divergence: incremental=(%v,%v) reference=(%v,%v) for %v | %v",
						mayT, mayF, wantT, wantF, cs.Slice(), cond)
				}
			case 2:
				m, sat, err := inc.Solve(cs)
				if err != nil {
					continue
				}
				rm, refSat, err := ref.ReferenceSolve(cs)
				if err != nil {
					t.Fatal(err)
				}
				if sat != refSat {
					t.Fatalf("Solve divergence: incremental=%v reference=%v for %v",
						sat, refSat, cs.Slice())
				}
				if sat && !cs.EvalAll(m) {
					t.Fatalf("incremental model %v does not satisfy %v", m, cs.Slice())
				}
				if refSat && !cs.EvalAll(rm) {
					t.Fatalf("reference model %v does not satisfy %v", rm, cs.Slice())
				}
			}
		}
	}
	st := inc.Stats.Snapshot()
	if st.IntervalSat+st.IntervalUnsat+st.ForkIntervalHits == 0 {
		t.Errorf("interval tier never decided a query over the whole workload: %+v", st)
	}
	if st.IntervalSeeds == 0 {
		t.Errorf("no group search started from interval-narrowed domains: %+v", st)
	}
}

// A comparison chain propagates bounds transitively across extensions:
// x < 10, y ≤ x, z < y pin z ∈ [0,8] (and y ∈ [1,9]) without any
// search, and conditions over z are decided by the interval tier alone.
func TestIntervalComparisonChainFixpoint(t *testing.T) {
	s := New()
	cs := EmptySet.
		Append(expr.Ult(v(0), c8(10))).
		Append(expr.Ule(v(1), v(0))).
		Append(expr.Ult(v(2), v(1)))

	before := s.Stats.Snapshot()
	sat, err := s.MayBeTrue(cs, expr.Ule(c8(9), v(2))) // z ≥ 9: outside [0,8]
	if err != nil || sat {
		t.Fatalf("z ≥ 9 should be unsat: %v %v", sat, err)
	}
	sat, err = s.MayBeTrue(cs, expr.Ult(v(2), c8(9))) // z < 9: whole box
	if err != nil || !sat {
		t.Fatalf("z < 9 should be sat: %v %v", sat, err)
	}
	after := s.Stats.Snapshot()
	if after.IntervalUnsat != before.IntervalUnsat+1 {
		t.Errorf("expected one interval-unsat verdict: %+v -> %+v", before, after)
	}
	if after.IntervalSat != before.IntervalSat+1 {
		t.Errorf("expected one interval-sat verdict: %+v -> %+v", before, after)
	}
	if after.SolverRuns != before.SolverRuns {
		t.Errorf("interval verdicts must not run a search: %+v -> %+v", before, after)
	}
}

// A unit equality pins the variable's interval to a point, and the
// interval tier decides conditions against it.
func TestIntervalUnitPinsBounds(t *testing.T) {
	s := New()
	cs := EmptySet.Append(expr.Eq(v(0), c8(7)))
	before := s.Stats.Snapshot()
	sat, err := s.MayBeTrue(cs, expr.Ult(v(0), c8(5)))
	if err != nil || sat {
		t.Fatalf("v0==7 ∧ v0<5 should be unsat: %v %v", sat, err)
	}
	after := s.Stats.Snapshot()
	if after.IntervalUnsat != before.IntervalUnsat+1 || after.SolverRuns != before.SolverRuns {
		t.Errorf("expected a search-free interval verdict: %+v -> %+v", before, after)
	}
}

// Forward evaluation through arithmetic: bounded bytes sum to a bounded
// interval, so a comparison on the sum is decided with zero search.
func TestIntervalForwardAdd(t *testing.T) {
	s := New()
	cs := EmptySet.
		Append(expr.Ult(v(0), c8(10))).
		Append(expr.Ult(v(1), c8(10)))
	before := s.Stats.Snapshot()
	sat, err := s.MayBeTrue(cs, expr.Ult(expr.Add(v(0), v(1)), c8(50)))
	if err != nil || !sat {
		t.Fatalf("sum of two <10 bytes is < 50: %v %v", sat, err)
	}
	after := s.Stats.Snapshot()
	if after.IntervalSat != before.IntervalSat+1 || after.SolverRuns != before.SolverRuns {
		t.Errorf("expected a search-free interval-sat verdict: %+v -> %+v", before, after)
	}
}

// Bounds narrow through widening: a W32 comparison over a zero-extended
// byte constrains the byte itself.
func TestIntervalNarrowThroughZExt(t *testing.T) {
	s := New()
	cs := EmptySet.Append(expr.Ult(w32(v(0)), c32(100)))
	before := s.Stats.Snapshot()
	sat, err := s.MayBeTrue(cs, expr.Ult(v(0), c8(200)))
	if err != nil || !sat {
		t.Fatalf("v0 < 100 implies v0 < 200: %v %v", sat, err)
	}
	sat, err = s.MayBeTrue(cs, expr.Ule(c8(100), v(0)))
	if err != nil || sat {
		t.Fatalf("v0 < 100 contradicts v0 ≥ 100: %v %v", sat, err)
	}
	after := s.Stats.Snapshot()
	if after.IntervalSat+after.IntervalUnsat != before.IntervalSat+before.IntervalUnsat+2 {
		t.Errorf("expected both verdicts from the interval tier: %+v -> %+v", before, after)
	}
}

// An extension whose conjuncts are individually undecidable can still
// narrow some interval to empty: the set is proven unsat before groups
// are even searched.
func TestIntervalEmptyProvesUnsat(t *testing.T) {
	s := New()
	cs := EmptySet.Append(expr.Ult(v(0), c8(5)))
	// v9 ≤ v0 (≤ 4) ∧ 10 ≤ v9: forward evaluation of each conjunct is
	// indeterminate, but the joint narrowing empties v9's interval.
	cond := expr.LAnd(expr.Ule(v(9), v(0)), expr.Ule(c8(10), v(9)))
	before := s.Stats.Snapshot()
	sat, err := s.MayBeTrue(cs, cond)
	if err != nil || sat {
		t.Fatalf("query should be unsat: %v %v", sat, err)
	}
	after := s.Stats.Snapshot()
	if after.IntervalEmpty == before.IntervalEmpty {
		t.Errorf("expected an empty-interval unsat proof: %+v -> %+v", before, after)
	}
	if after.SolverRuns != before.SolverRuns {
		t.Errorf("empty-interval unsat must not run a search: %+v -> %+v", before, after)
	}
	ref := New()
	refSat, err := ref.ReferenceMayBeTrue(cs, cond)
	if err != nil || refSat {
		t.Fatalf("reference disagrees: %v %v", refSat, err)
	}
}

// White-box: asserted connectives narrow to the fixpoint in one
// refiner pass sequence (LAnd splits, bounds intersect).
func TestIntervalNarrowCondLAnd(t *testing.T) {
	r := boundsRefiner{}
	r.narrowCond(expr.LAnd(expr.Ult(v(0), c8(10)), expr.Ule(c8(3), v(0))), true)
	if r.conflict {
		t.Fatal("unexpected conflict")
	}
	if iv := r.b.get(0); iv.lo != 3 || iv.hi != 9 {
		t.Fatalf("want v0 ∈ [3,9], got %+v", iv)
	}
	// Asserting the negation of a disjunction narrows both arms.
	r2 := boundsRefiner{}
	r2.narrowCond(expr.LOr(expr.Ult(v(1), c8(5)), expr.Ult(c8(250), v(1))), false)
	if r2.conflict {
		t.Fatal("unexpected conflict")
	}
	if iv := r2.b.get(1); iv.lo != 5 || iv.hi != 250 {
		t.Fatalf("want v1 ∈ [5,250], got %+v", iv)
	}
}

// A branch costs the solver a fixed number of allocations, however long
// the path before it: a branch that narrows one byte's bounds copies the
// bounds as one slice, not entry by entry, and a branch that adds a unit
// (Eq(const, var)) copies the path's units as one slice. The budgets are
// counts, not timings: raise one only with a reason.
func TestExtendAllocBudget(t *testing.T) {
	for _, tc := range []struct {
		name   string
		budget float64
		path   func(x *expr.Expr) *expr.Expr // each earlier constraint, over its own variable
		branch func(x *expr.Expr) *expr.Expr // the branch's constraint over a fresh one
		depths []int
	}{
		{"narrow", 6,
			func(x *expr.Expr) *expr.Expr { return expr.Ult(x, c8(100)) },
			func(x *expr.Expr) *expr.Expr { return expr.Ult(x, c8(50)) },
			[]int{2, 12}},
		{"unit", 7,
			func(x *expr.Expr) *expr.Expr { return expr.Eq(c8(x.VarID()+1), x) },
			func(x *expr.Expr) *expr.Expr { return expr.Eq(c8(7), x) },
			[]int{2, 12, 40}},
	} {
		var first float64
		for _, depth := range tc.depths {
			s := New()
			cs := EmptySet
			for i := 0; i < depth; i++ {
				cs = cs.Append(tc.path(v(uint64(i))))
			}
			if ok, err := s.CheckSat(cs); err != nil || !ok {
				t.Fatalf("CheckSat = %v, %v", ok, err)
			}
			fresh := v(uint64(depth))
			n := testing.AllocsPerRun(100, func() {
				// The branch's own set state is new every time; its verdict
				// is the interval tier's, so no query reaches check.
				mayT, mayF, err := s.Fork(cs.Append(tc.branch(fresh)), expr.Ult(fresh, c8(60)))
				if err != nil || !mayT || mayF {
					t.Fatalf("Fork = %v, %v, %v; want true, false, nil", mayT, mayF, err)
				}
			})
			if n > tc.budget {
				t.Errorf("%s after %d constraints: a branch allocates %.0f times, budget %.0f", tc.name, depth, n, tc.budget)
			}
			if first == 0 {
				first = n
			} else if n != first {
				t.Errorf("%s: a branch allocates %.0f times after %d constraints and %.0f after %d", tc.name, first, tc.depths[0], n, depth)
			}
		}
	}
}

// FuzzIntervalSound holds the interval tier to enumeration: for sets of
// byte comparisons, masks and sums over at most two variables, built
// through Append, every assignment of the two that satisfies the set lies
// inside its bounds, and every condition condDecided decides holds on all
// of them. data is two variable selectors (into soundIDs, which reaches
// past boundsCap), then four bytes per constraint (see soundCond); the
// last constraint is only ever a condition. The committed corpus runs
// the same chain — x < 10, y ≤ x, a mask, a sum, a widened signed
// compare — over ids below, straddling and past the cap.
func FuzzIntervalSound(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		ids := [2]uint64{soundIDs[int(data[0])%len(soundIDs)], soundIDs[int(data[1])%len(soundIDs)]}
		var conds []*expr.Expr
		for data = data[2:]; len(data) >= 4 && len(conds) < 6; data = data[4:] {
			conds = append(conds, soundCond(ids, data[:4]))
		}
		var vals expr.Assignment
		s := New()
		cs := EmptySet
		for i, c := range conds {
			st := s.state(cs)
			// Every solution of cs, by enumeration.
			var sols [][2]uint8
			for x := 0; x < 256; x++ {
				for y := 0; y < 256; y++ {
					vals.Set(ids[0], uint8(x))
					vals.Set(ids[1], uint8(y))
					if satisfies(cs, vals) {
						sols = append(sols, [2]uint8{at(vals, ids[0]), at(vals, ids[1])})
					}
				}
			}
			if st.unsat {
				if len(sols) > 0 {
					t.Fatalf("%v is unsat by propagation or an empty interval, but %v solves it", cs.Slice(), sols[0])
				}
				return
			}
			for _, sol := range sols {
				for k, id := range ids {
					if iv := st.bounds.get(id); sol[k] < iv.lo || sol[k] > iv.hi {
						t.Fatalf("%v: solution %v puts v%d outside its bounds [%d,%d]", cs.Slice(), sol, id, iv.lo, iv.hi)
					}
				}
			}
			for _, cond := range conds[i:] {
				decided, truth := condDecided(cond, st.bounds)
				if !decided {
					continue
				}
				for _, sol := range sols {
					vals.Set(ids[0], sol[0])
					vals.Set(ids[1], sol[1])
					if got, ok := cond.Eval(vals); !ok || (got != 0) != truth {
						t.Fatalf("%v: interval says %v is %v, but it is %d at %v", cs.Slice(), cond, truth, got, sol)
					}
				}
			}
			cs = cs.Append(c)
		}
	})
}

// soundIDs are the variable ids FuzzIntervalSound picks from: the first
// bytes of an input, and ids at and past the last one dense bounds hold.
var soundIDs = []uint64{0, 1, 7, boundsCap - 1, boundsCap, boundsCap + 3}

// soundCond builds one byte comparison from four bytes: b[0] picks the
// comparison (low three bits), negates it (bit 3) and widens both sides
// to 32 bits (bit 4); b[1] and b[2] pick the sides' terms, b[3] their
// constants.
func soundCond(ids [2]uint64, b []byte) *expr.Expr {
	term := func(sel, k byte) *expr.Expr {
		x, y := expr.Var(ids[0], "x"), expr.Var(ids[1], "y")
		switch sel % 6 {
		case 0:
			return x
		case 1:
			return y
		case 2:
			return c8(uint64(k))
		case 3:
			return expr.And(x, c8(uint64(k)))
		case 4:
			return expr.Add(y, c8(uint64(k)))
		default:
			return expr.Add(x, y)
		}
	}
	l, r := term(b[1], b[3]), term(b[2], b[3]*7+3)
	if b[0]&0x10 != 0 {
		l, r = w32(l), w32(r)
	}
	var c *expr.Expr
	switch (b[0] & 7) % 5 {
	case 0:
		c = expr.Eq(l, r)
	case 1:
		c = expr.Ult(l, r)
	case 2:
		c = expr.Ule(l, r)
	case 3:
		c = expr.Slt(l, r)
	default:
		c = expr.Sle(l, r)
	}
	if b[0]&0x08 != 0 {
		c = expr.Not(c)
	}
	return c
}

// satisfies reports whether vals satisfies every constraint of cs.
func satisfies(cs *ConstraintSet, vals expr.Assignment) bool {
	for n := cs; n != nil; n = n.parent {
		if v, ok := n.c.Eval(vals); !ok || v == 0 {
			return false
		}
	}
	return true
}

// Seeding must never leak into canonical answers: a solver that ran
// bounds-narrowed may-query searches first computes the same full model
// as a fresh solver that never did (narrowed group results stay out of
// the group cache; full-model searches run unseeded).
func TestIntervalSeedingKeepsModelsCanonical(t *testing.T) {
	cs := EmptySet.
		Append(expr.Ult(v(0), c8(100))).
		Append(expr.Ule(v(1), v(0))).
		Append(expr.Not(expr.Eq(v(1), c8(0))))

	a := New()
	ma, sat, err := a.Solve(cs)
	if err != nil || !sat {
		t.Fatalf("set should be sat: %v %v", sat, err)
	}

	b := New()
	// Warm b with may-queries whose searches start from narrowed domains.
	if ok, err := b.CheckSat(cs); err != nil || !ok {
		t.Fatalf("CheckSat should be sat: %v %v", ok, err)
	}
	if ok, err := b.MayBeTrue(cs, expr.Ult(v(1), v(0))); err != nil || !ok {
		t.Fatalf("warm query should be sat: %v %v", ok, err)
	}
	if b.Stats.Snapshot().IntervalSeeds == 0 {
		t.Fatal("warm queries should have used interval-seeded searches")
	}
	mb, sat, err := b.Solve(cs)
	if err != nil || !sat {
		t.Fatalf("set should be sat: %v %v", sat, err)
	}
	for id := range uint64(max(len(ma), len(mb))) {
		if at(ma, id) != at(mb, id) {
			t.Fatalf("model divergence on var %d: fresh=%d warmed=%d", id, at(ma, id), at(mb, id))
		}
	}
	if !cs.EvalAll(ma) || !cs.EvalAll(mb) {
		t.Fatal("models do not satisfy the set")
	}
}
