package solver

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"runtime"
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
		return expr.Add(expr.Binary(expr.OpMul, k32(33), expr.Add(k32(177573), z32(a))), z32(b))
	}
	bucket := func(a, b *expr.Expr) *expr.Expr { return srem(srem(sum(a, b), k32(64)), k32(64)) }
	p4, p5 := expr.Var(4, "pkt1"), expr.Var(5, "pkt1")
	p10, p11 := expr.Var(10, "pkt2"), expr.Var(11, "pkt2")
	is5 := func(a, b *expr.Expr) *expr.Expr { return expr.Eq(k64(5), s64(bucket(a, b))) }
	off40 := func(a, b *expr.Expr) *expr.Expr {
		return expr.Eq(k64(40), expr.Binary(expr.OpMul, k64(8), s64(bucket(a, b))))
	}
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
	acc := srem(expr.Binary(expr.OpAnd, k32(255), z32(argv[0])), k32(255))
	for _, b := range argv[1:] {
		acc = srem(expr.Add(acc, expr.Binary(expr.OpAnd, k32(255), z32(b))), k32(255))
	}
	wide := expr.Concat(expr.Extract(s64(acc), 32, expr.W32), acc)
	sumCons = append(sumCons, expr.Binary(expr.OpSlt, wide, k64(0)))

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
		_, err := s.solveGroup(g.cons, groupIDs(g.cons), new(expr.Assignment))
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
	for _, sl := range memo.slots {
		if sl.con == nil || int(sl.mask)%stride != phase%stride {
			continue
		}
		key := pruneKey{sl.con, sl.others, sl.slot}
		m := memo.masks[sl.mask]
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
			cons = append(cons, randomConstraint(rng, anyTerm(rng, nv)))
		}
		var model expr.Assignment
		sat, err := s.solveGroup(cons, groupIDs(cons), &model)
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
			cons = append(cons, randomConstraint(rng, anyTerm(rng, nv)))
		}
		s := New()
		s.MaxBacktracks = 1 << 9
		if _, err := s.solveGroup(cons, groupIDs(cons), new(expr.Assignment)); err != nil && !errors.Is(err, ErrBudget) {
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
		expr.Binary(expr.OpUlt, v(0), v(1)),
		expr.Binary(expr.OpUlt, v(1), v(2)),
		expr.Not(expr.Eq(v(0), c8(0))),
	}
	ids := groupIDs(cons)
	s := New()
	var model expr.Assignment
	search := func() {
		clear(model)
		if sat, err := s.solveGroup(cons, ids, &model); err != nil || !sat {
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

// A prune miss allocates nothing once the solver has held a search as
// large: with the memo emptied before each search, every search misses,
// compiles its lane programs into the slab the last one used and runs
// them over rows already grown.
func TestWarmMissesDoNotAllocate(t *testing.T) {
	g := hardGroups()[0]
	ids := groupIDs(g.cons)
	s := New()
	s.MaxBacktracks = 1 << 8
	model := make(expr.Assignment, ids[len(ids)-1]+1)
	search := func() {
		clear(s.tier3.memo.slots)
		s.tier3.memo.masks = s.tier3.memo.masks[:0]
		clear(model)
		if _, err := s.solveGroup(g.cons, ids, &model); !errors.Is(err, ErrBudget) {
			t.Fatalf("want a budget kill, got %v", err)
		}
	}
	search()
	before := s.Stats.Snapshot()
	if allocs := testing.AllocsPerRun(10, search); allocs != 1 {
		t.Errorf("%v allocations per warmed search that misses, want 1 (its BudgetError)", allocs)
	}
	// Programs are compiled into the slab afresh by each search, not
	// appended to the last one's: the slab would grow by amortized
	// doubling, which the count above rounds away. TotalAlloc is
	// process-wide, so each window of 50 searches runs on one P after a
	// collection, and only a bound every one of three windows exceeds
	// fails: an allocation elsewhere in the process lands in one window, a
	// per-search one in all of them.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	per := uint64(math.MaxUint64)
	for w := 0; w < 3 && per > 64; w++ {
		runtime.GC()
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		for range 50 {
			search()
		}
		runtime.ReadMemStats(&ms1)
		per = min(per, (ms1.TotalAlloc-ms0.TotalAlloc)/50)
	}
	if per > 64 {
		t.Errorf("%d bytes allocated per warmed search that misses in each of 3 windows, want at most its BudgetError's", per)
	}
	if after := s.Stats.Snapshot(); after.PruneMemoMisses == before.PruneMemoMisses {
		t.Fatal("the searches never missed the memo")
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
			cons = append(cons, expr.Ule(expr.Binary(expr.OpAnd, c8(uint64(i)), z), z))
		}
		cons = append(cons,
			expr.Binary(expr.OpUlt, x, c8(200)),
			expr.Eq(c8(1), expr.Binary(expr.OpMul, c8(2), expr.Add(x, y)))) // 2(x+y) is even
		s := New()
		if sat, err := s.solveGroup(cons, groupIDs(cons), new(expr.Assignment)); sat || err != nil {
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
		if _, err := s.solveGroup(g.cons, ids, new(expr.Assignment)); !errors.Is(err, ErrBudget) {
			t.Fatalf("%s: want a budget kill, got %v", g.name, err)
		}
		if n, h := expr.InternStats(); n != nodes || h != hits {
			t.Errorf("%s: a cold search interned %d nodes and hit %d", g.name, n-nodes, h-hits)
		}
	}
}

// liveSlots counts the memo's occupied slots.
func liveSlots(p *pruneMemo) int {
	n := 0
	for _, s := range p.slots {
		if s.con != nil {
			n++
		}
	}
	return n
}

// The memo holds at most pruneMemoCap entries however many keys a search
// makes.
func TestPruneMemoIsCapped(t *testing.T) {
	var p pruneMemo
	con := v(0)
	for i := 0; i < 3*pruneMemoCap+5; i++ {
		p.entry(pruneKey{con: con, others: uint64(i)}).known.add(1)
	}
	if len(p.masks) != 5 || liveSlots(&p) != 5 || cap(p.masks) > 2*pruneMemoCap || len(p.slots) > 2*pruneMemoCap {
		t.Fatalf("after 3 fills + 5: %d masks (cap %d), %d keys in %d slots", len(p.masks), cap(p.masks), liveSlots(&p), len(p.slots))
	}
	if m := p.entry(pruneKey{con: con, others: 1}); !m.known.empty() {
		t.Fatal("an entry dropped by the cap came back classified")
	}
}

// A full memo reads every key back to its own mask: pruneMemoCap keys,
// some differing from others in one field only, four of which hash to
// the table's last slot, so that three probe chains wrap around its end.
func TestPruneMemoFullLoad(t *testing.T) {
	cons := []*expr.Expr{v(0), v(1), expr.Add(v(0), v(1))}
	last := uint64(2*pruneMemoCap - 1)
	var keys []pruneKey
	atEnd := 0
	for i := 0; len(keys) < pruneMemoCap; i++ {
		k := pruneKey{con: cons[i%3], others: uint64(i/15) * 0x0101, slot: uint8(i / 3 % 5)}
		if k.hash()&last == last {
			if atEnd == 4 {
				continue
			}
			atEnd++
		} else if len(keys)+4-atEnd == pruneMemoCap {
			continue
		}
		keys = append(keys, k)
	}
	var p pruneMemo
	for i, k := range keys {
		m := p.entry(k)
		m.known.add(uint8(i))
		m.sat.add(uint8(i >> 8))
	}
	if len(p.slots) != 2*pruneMemoCap || liveSlots(&p) != pruneMemoCap {
		t.Fatalf("%d keys in %d slots, want %d in %d", liveSlots(&p), len(p.slots), pruneMemoCap, 2*pruneMemoCap)
	}
	wrapped := 0
	for at, s := range p.slots {
		if s.con != nil && uint64(at) < (pruneKey{s.con, s.others, s.slot}).hash()&last {
			wrapped++
		}
	}
	if wrapped < 3 {
		t.Fatalf("%d probe chains wrapped around the end of the table, want at least 3", wrapped)
	}
	for i, k := range keys {
		var want pruneMask
		want.known.add(uint8(i))
		want.sat.add(uint8(i >> 8))
		if m := p.entry(k); *m != want {
			t.Fatalf("key %d (%+v) reads back %+v, want %+v", i, k, *m, want)
		}
	}
	if len(p.masks) != pruneMemoCap {
		t.Fatalf("reading the keys back made %d entries", len(p.masks)-pruneMemoCap)
	}
}

// The memo's table is allocated on the first entry and grows with the
// entries: a solver that never prunes has none, and one that prunes a
// few keys a small one.
func TestPruneMemoGrowsOnDemand(t *testing.T) {
	s := New()
	x, y := v(0), v(1)
	cs := emptySet.Append(expr.Binary(expr.OpUlt, x, c8(10))).Append(expr.Binary(expr.OpUlt, y, c8(20)))
	forkByBounds(t, s, cs, expr.Binary(expr.OpUlt, x, c8(50)), true)
	if st := s.Stats.Snapshot(); st.PruneMemoHits+st.PruneMemoMisses != 0 {
		t.Fatalf("the query pruned: %+v", st)
	}
	if s.tier3.memo.slots != nil || s.tier3.memo.masks != nil {
		t.Fatalf("a solver that never pruned holds a memo table of %d slots", len(s.tier3.memo.slots))
	}
	cons := []*expr.Expr{expr.Eq(c8(90), expr.Add(x, y)), expr.Binary(expr.OpUlt, x, y)}
	if sat, err := s.solveGroup(cons, groupIDs(cons), new(expr.Assignment)); err != nil || !sat {
		t.Fatalf("sat=%v err=%v", sat, err)
	}
	if n := len(s.tier3.memo.slots); n == 0 || n > 64 {
		t.Fatalf("%d prunes' keys in a table of %d slots", len(s.tier3.memo.masks), n)
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
				if _, err := s.solveGroup(g.cons, ids, new(expr.Assignment)); !errors.Is(err, ErrBudget) {
					b.Fatalf("want a budget kill, got %v", err)
				}
			}
		})
	}
}
