package solver

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"cloud9/internal/expr"
)

// hardGroup describes one of the tier-3 searches the target catalogue
// budget-kills, rebuilt with expr constructors from a tap on solveGroup:
// the two memcached groups (five kills each under `c9 -target memcached`)
// and the smallest of coreutil-sum's three.
type hardGroup struct {
	name string
	key  uint64 // the group-cache key the run journals for it
	cons []*expr.Expr
}

func hardGroups() []hardGroup {
	k32 := func(x uint64) *expr.Expr { return expr.Const(x, expr.W32) }
	k64 := func(x uint64) *expr.Expr { return expr.Const(x, expr.W64) }
	z32 := func(e *expr.Expr) *expr.Expr { return expr.ZExt(e, expr.W32) }
	s64 := func(e *expr.Expr) *expr.Expr { return expr.SExt(e, expr.W64) }
	srem := func(l, r *expr.Expr) *expr.Expr { return expr.Binary(expr.OpSRem, l, r) }

	// memcached: both packets' two key bytes must hash to bucket 5, the
	// keys must differ in their first byte, and the second packet's probe
	// of the next bucket must fall outside the table — which bucket 5
	// never does, so the group is unsat on pkt2#10, pkt2#11 alone.
	sum := func(a, b *expr.Expr) *expr.Expr {
		return expr.Add(expr.Mul(k32(33), expr.Add(k32(177573), z32(a))), z32(b))
	}
	bucket := func(a, b *expr.Expr) *expr.Expr { return srem(srem(sum(a, b), k32(64)), k32(64)) }
	p4, p5 := expr.Var(4, "pkt1"), expr.Var(5, "pkt1")
	p10, p11 := expr.Var(10, "pkt2"), expr.Var(11, "pkt2")
	is5 := func(a, b *expr.Expr) *expr.Expr { return expr.Eq(k64(5), s64(bucket(a, b))) }
	off40 := func(a, b *expr.Expr) *expr.Expr { return expr.Eq(k64(40), expr.Mul(k64(8), s64(bucket(a, b)))) }
	next := expr.Add(k64(66960), s64(srem(expr.Add(k32(1), srem(sum(p10, p11), k32(64))), k32(64))))
	tail := []*expr.Expr{
		is5(p10, p11), off40(p10, p11),
		expr.Not(expr.Eq(z32(p4), z32(p10))),
		expr.Not(expr.LAnd(expr.Ule(k64(66960), next), expr.Ule(next, k64(67023)))),
	}

	// coreutil-sum: four non-NUL argv bytes whose running sum mod 255,
	// widened to 64 bits, is negative — true of no input, and a
	// constraint over every variable, so forward checking only ever sees
	// it with the last byte left.
	var argv [4]*expr.Expr
	var sumCons []*expr.Expr
	for i := range argv {
		argv[i] = expr.Var(uint64(i), "argv")
		sumCons = append(sumCons, expr.Not(expr.Eq(expr.Const(0, expr.W8), argv[i])))
	}
	acc := srem(expr.And(k32(255), z32(argv[0])), k32(255))
	for _, b := range argv[1:] {
		acc = srem(expr.Add(acc, expr.And(k32(255), z32(b))), k32(255))
	}
	wide := expr.Concat(expr.Extract(s64(acc), 32, expr.W32), acc)
	sumCons = append(sumCons, expr.Slt(wide, k64(0)))

	return []hardGroup{
		{"memcached-7", 0xc1fafc383e11a8a0,
			append([]*expr.Expr{is5(p4, p5), off40(p4, p5), is5(p4, p5)}, tail...)},
		{"memcached-8", 0x5fab7a5327cbe6c0,
			append([]*expr.Expr{is5(p4, p5), is5(p4, p5), off40(p4, p5), is5(p4, p5)}, tail...)},
		{"sum-4", 0xfe3991a95b15be73, sumCons},
	}
}

// groupIDs returns the sorted variable ids cons mention.
func groupIDs(cons []*expr.Expr) []uint64 {
	var ids []uint64
	for _, c := range cons {
		ids = append(ids, c.VarIDs()...)
	}
	slices.Sort(ids)
	return slices.Compact(ids)
}

// The rebuilt groups are the ones the runs kill, not look-alikes.
func TestHardGroupsAreTheKilledOnes(t *testing.T) {
	for _, g := range hardGroups() {
		if got := groupHash(g.cons); got != g.key {
			t.Errorf("%s: group key %x, the journal says %x", g.name, got, g.key)
		}
		s := New()
		s.MaxBacktracks = 1 << 10
		_, _, err := s.solveGroup(g.cons, groupIDs(g.cons), new(expr.Assignment), nil)
		var kill *BudgetError
		if !errors.As(err, &kill) || !errors.Is(err, ErrBudget) {
			t.Fatalf("%s: want a budget kill, got %v", g.name, err)
		}
		want := BudgetError{Group: g.key, Vars: 4, Cons: len(g.cons), Backtracks: 1<<10 + 1, Budget: 1 << 10}
		if *kill != want {
			t.Errorf("%s: kill %+v, want %+v", g.name, *kill, want)
		}
	}
}

// checkPruneMemo compares memo entries with an oracle that shares no
// code with pruneUnary: the unreduced constraint evaluated at each known
// value under the assignment the key spells out. Entries are sampled by
// slab index, every stride-th starting at phase.
func checkPruneMemo(t *testing.T, s *Solver, stride, phase int) {
	t.Helper()
	memo := &s.tier3.memo
	for key, i := range memo.idx {
		if int(i)%stride != phase%stride {
			continue
		}
		m := memo.masks[i]
		ids := key.con.VarIDs()
		var vals expr.Assignment
		others := key.others
		for k := len(ids) - 1; k >= 0; k-- {
			if k != int(key.slot) {
				vals.Set(ids[k], uint8(others))
				others >>= 8
			}
		}
		var want domain
		for v := 0; v < 256; v++ {
			if !m.known.has(uint8(v)) {
				continue
			}
			vals.Set(ids[key.slot], uint8(v))
			if ev, ok := key.con.Eval(vals); ok && ev != 0 {
				want.add(uint8(v))
			}
		}
		if m.sat != want {
			t.Fatalf("memo entry for %v, slot %d, others %#x:\n sat   %064x\n scan  %064x\n known %064x",
				key.con, key.slot, key.others, m.sat.bits, want.bits, m.known.bits)
		}
	}
}

// Property: whatever searches a solver has run, every mask its prune
// memo holds is what a plain scan of the constraint gives.
func TestPruneMemoMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	s := New()
	s.MaxBacktracks = 1 << 10
	for iter := 0; iter < 400; iter++ {
		nv := 2 + rng.Intn(4)
		var cons []*expr.Expr
		for n := 2 + rng.Intn(5); n > 0; n-- {
			cons = append(cons, randomConstraint(rng, nv))
		}
		var model expr.Assignment
		sat, _, err := s.solveGroup(cons, groupIDs(cons), &model, nil)
		if err == nil && sat {
			for _, c := range cons {
				if v, ok := c.Eval(model); !ok || v == 0 {
					t.Fatalf("iter %d: model %v violates %v", iter, model, c)
				}
			}
		}
		checkPruneMemo(t, s, len(s.tier3.memo.masks)/64+1, iter)
	}
	if st := s.Stats.Snapshot(); st.PruneMemoHits == 0 || st.PruneMemoMisses == 0 {
		t.Fatalf("the property never exercised the memo: %+v", st)
	}
}

// byteSource feeds fuzz input to math/rand consumers: each draw takes
// the next eight bytes, zeros once they run out.
type byteSource struct{ data []byte }

func (b *byteSource) Int63() int64 {
	var x [8]byte
	b.data = b.data[copy(x[:], b.data):]
	return int64(binary.LittleEndian.Uint64(x[:]) >> 1)
}

func (b *byteSource) Seed(int64) {}

// FuzzPruneMask searches one of the hard groups (or none), extended by
// constraints drawn from the input, and holds every memo entry the
// search leaves to the scan oracle.
func FuzzPruneMask(f *testing.F) {
	hard := hardGroups()
	for base := range hard {
		f.Add(uint8(base+1), []byte{})
	}
	f.Fuzz(func(t *testing.T, base uint8, data []byte) {
		var cons []*expr.Expr
		if i := int(base) % (len(hard) + 1); i > 0 {
			cons = slices.Clone(hard[i-1].cons)
		}
		rng := rand.New(&byteSource{data})
		nv := 2 + rng.Intn(4)
		for n := min(len(data)/32, 6); n > 0; n-- {
			cons = append(cons, randomConstraint(rng, nv))
		}
		s := New()
		s.MaxBacktracks = 1 << 9
		if _, _, err := s.solveGroup(cons, groupIDs(cons), new(expr.Assignment), nil); err != nil && !errors.Is(err, ErrBudget) {
			t.Fatal(err)
		}
		checkPruneMemo(t, s, 1, 0)
	})
}

// A solver that has seen a group before solves it again without
// allocating: the search tables and the memo's slab are reused, and
// every prune is a memo hit.
func TestWarmSearchDoesNotAllocate(t *testing.T) {
	cons := []*expr.Expr{
		expr.Eq(c8(90), expr.Add(v(0), expr.Add(v(1), v(2)))),
		expr.Ult(v(0), v(1)),
		expr.Ult(v(1), v(2)),
		expr.Not(expr.Eq(v(0), c8(0))),
	}
	ids := groupIDs(cons)
	s := New()
	var model expr.Assignment
	search := func() {
		clear(model)
		if sat, _, err := s.solveGroup(cons, ids, &model, nil); err != nil || !sat {
			t.Fatalf("sat=%v err=%v", sat, err)
		}
	}
	search()
	before := s.Stats.Snapshot()
	if allocs := testing.AllocsPerRun(50, search); allocs != 0 {
		t.Errorf("%v allocations per warmed search, want 0", allocs)
	}
	after := s.Stats.Snapshot()
	if after.PruneMemoMisses != before.PruneMemoMisses || after.PruneMemoHits == before.PruneMemoHits {
		t.Errorf("warmed searches should only hit the memo: %+v -> %+v", before, after)
	}
}

// Binding a variable forward-checks only the constraints that mention
// it: any other kept its count and its variables' values since it was
// last checked. The group is an unsat two-variable constraint whose
// search fails each of its first variable's 200 values at one prune,
// plus k always-true constraints over a third variable that stays
// unbound to the end. Past the k prunes of the initial pass, the search
// costs the same 201 forward checks at k = 2 and k = 64. Re-checking
// every constraint after each binding (a loop over g.infos in solve)
// re-prunes the k at every value: 201 + 200k.
func TestForwardCheckIsLocalToTheBinding(t *testing.T) {
	work := func(k int) uint64 {
		x, y, z := v(0), v(1), v(2)
		var cons []*expr.Expr
		for i := 1; i <= k; i++ {
			cons = append(cons, expr.Ule(expr.And(c8(uint64(i)), z), z))
		}
		cons = append(cons,
			expr.Ult(x, c8(200)),
			expr.Eq(c8(1), expr.Mul(c8(2), expr.Add(x, y)))) // 2(x+y) is even
		s := New()
		if sat, _, err := s.solveGroup(cons, groupIDs(cons), new(expr.Assignment), nil); sat || err != nil {
			t.Fatalf("k=%d: sat=%v err=%v, want unsat", k, sat, err)
		}
		st := s.Stats.Snapshot()
		if st.Backtracks != 200 {
			t.Fatalf("k=%d: %d backtracks, want 200", k, st.Backtracks)
		}
		return st.PruneMemoHits + st.PruneMemoMisses - uint64(k)
	}
	if w2, w64 := work(2), work(64); w2 != 201 || w64 != w2 {
		t.Fatalf("forward checks past the initial pass: %d at k=2, %d at k=64; want 201 at both", w2, w64)
	}
}

// Forward checking evaluates each constraint as it was built: a search
// interns no expression. Substituting the bound values into a constraint
// before scanning it (Subst) interns a residual at every prune miss, and
// looks nodes up in the table even when they exist.
func TestSearchInternsNothing(t *testing.T) {
	for _, g := range hardGroups() {
		ids := groupIDs(g.cons)
		s := New()
		s.MaxBacktracks = 1 << 10
		nodes, hits := expr.InternStats()
		if _, _, err := s.solveGroup(g.cons, ids, new(expr.Assignment), nil); !errors.Is(err, ErrBudget) {
			t.Fatalf("%s: want a budget kill, got %v", g.name, err)
		}
		if n, h := expr.InternStats(); n != nodes || h != hits {
			t.Errorf("%s: a cold search interned %d nodes and hit %d", g.name, n-nodes, h-hits)
		}
	}
}

// The memo holds at most pruneMemoCap entries however many keys a search
// makes.
func TestPruneMemoIsCapped(t *testing.T) {
	var p pruneMemo
	con := v(0)
	for i := 0; i < 3*pruneMemoCap+5; i++ {
		p.entry(pruneKey{con: con, others: uint64(i)}).known.add(1)
	}
	if len(p.masks) != 5 || len(p.idx) != 5 || cap(p.masks) > 2*pruneMemoCap {
		t.Fatalf("after 3 fills + 5: %d masks (cap %d), %d keys", len(p.masks), cap(p.masks), len(p.idx))
	}
	if m := p.entry(pruneKey{con: con, others: 1}); !m.known.empty() {
		t.Fatal("an entry dropped by the cap came back classified")
	}
}

// BenchmarkTier3Hard runs each hard group to its budget kill on a cold
// solver, at the budget the ledger's memcached-hard workload uses.
func BenchmarkTier3Hard(b *testing.B) {
	for _, g := range hardGroups() {
		ids := groupIDs(g.cons)
		b.Run(g.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s := New()
				s.MaxBacktracks = 1 << 13
				if _, _, err := s.solveGroup(g.cons, ids, new(expr.Assignment), nil); !errors.Is(err, ErrBudget) {
					b.Fatalf("want a budget kill, got %v", err)
				}
			}
		})
	}
}
