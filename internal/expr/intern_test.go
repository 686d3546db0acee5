package expr

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
)

// mixedRandomExpr generates W16 expressions exercising structural node
// kinds (Ite, Concat, Extract, extensions) and var ids beyond the inline
// bitset range (>= 64), which randomExpr does not cover.
func mixedRandomExpr(rng *rand.Rand, depth int) *Expr {
	if depth == 0 || rng.Intn(5) == 0 {
		switch rng.Intn(3) {
		case 0:
			return Const(uint64(rng.Intn(1<<16)), W16)
		case 1:
			return ZExt(Var(uint64(rng.Intn(8)), "v"), W16)
		default:
			// Spill-range ids exercise the VarSet hi slice.
			return ZExt(Var(uint64(64+rng.Intn(200)), "w"), W16)
		}
	}
	switch rng.Intn(4) {
	case 0:
		c := Eq(mixedRandomExpr(rng, depth-1), mixedRandomExpr(rng, depth-1))
		return Ite(c, mixedRandomExpr(rng, depth-1), mixedRandomExpr(rng, depth-1))
	case 1:
		off := uint(rng.Intn(8))
		return ZExt(Extract(mixedRandomExpr(rng, depth-1), off, W8), W16)
	case 2:
		return Concat(
			Extract(mixedRandomExpr(rng, depth-1), 0, W8),
			Extract(mixedRandomExpr(rng, depth-1), 0, W8))
	default:
		ops := []Op{OpAdd, OpSub, OpMul, OpAnd, OpOr, OpXor}
		return Binary(ops[rng.Intn(len(ops))],
			mixedRandomExpr(rng, depth-1), mixedRandomExpr(rng, depth-1))
	}
}

func TestInternIdenticalConstruction(t *testing.T) {
	mk := func() *Expr {
		x, y := Var(3, "x"), Var(70, "y")
		return LAnd(
			ult(Add(ZExt(x, W32), ZExt(y, W32)), Const(500, W32)),
			Not(Eq(x, y)))
	}
	a, b := mk(), mk()
	if a != b {
		t.Fatalf("identical constructions returned distinct pointers: %p vs %p", a, b)
	}
	if !Equal(a, b) {
		t.Fatal("Equal must hold for the canonical node")
	}
}

func TestInternRandomizedPointerIdentity(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		r1 := rand.New(rand.NewSource(seed))
		r2 := rand.New(rand.NewSource(seed))
		a := randomExpr(r1, 5)
		b := randomExpr(r2, 5)
		if a != b {
			t.Fatalf("seed %d: same construction sequence, distinct pointers", seed)
		}
	}
}

func TestHashMatchesDeepHash(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ {
		for _, e := range []*Expr{randomExpr(rng, 4), mixedRandomExpr(rng, 3)} {
			if e.Hash() != e.DeepHash() {
				t.Fatalf("cached hash %#x != recursive %#x for %v", e.Hash(), e.DeepHash(), e)
			}
		}
	}
	v := Var(1000, "far")
	if v.Hash() != v.DeepHash() {
		t.Fatal("var hash mismatch")
	}
}

func TestVarsMatchDeepVars(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 300; i++ {
		e := randomExpr(rng, 4)
		if i%2 == 1 {
			e = mixedRandomExpr(rng, 3)
		}
		cached := e.VarIDs()
		deep := e.DeepVars(map[uint64]bool{}, nil)
		sort.Slice(deep, func(a, b int) bool { return deep[a] < deep[b] })
		if len(cached) != len(deep) {
			t.Fatalf("var count %d != %d for %v", len(cached), len(deep), e)
		}
		for j := range cached {
			if cached[j] != deep[j] {
				t.Fatalf("vars %v != %v for %v", cached, deep, e)
			}
		}
		if e.NumVars() != len(deep) {
			t.Fatalf("NumVars %d != %d", e.NumVars(), len(deep))
		}
	}
}

func TestSizeMatchesRecursive(t *testing.T) {
	var deepSize func(e *Expr) int
	deepSize = func(e *Expr) int {
		n := 1
		for _, k := range e.kids {
			n += deepSize(k)
		}
		return n
	}
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 200; i++ {
		e := randomExpr(rng, 4)
		if e.Size() != deepSize(e) {
			t.Fatalf("Size %d != recursive %d for %v", e.Size(), deepSize(e), e)
		}
	}
}

func TestVarSetSpill(t *testing.T) {
	x, y, z := Var(5, "x"), Var(64, "y"), Var(1000, "z")
	e := ult(Add(Add(x, y), z), Const(9, W8))
	s := e.FreeVars()
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	for _, id := range []uint64{5, 64, 1000} {
		if !s.Has(id) {
			t.Errorf("Has(%d) = false", id)
		}
	}
	for _, id := range []uint64{4, 63, 65, 999, 1001} {
		if s.Has(id) {
			t.Errorf("Has(%d) = true", id)
		}
	}
	ids := s.AppendIDs(nil)
	want := []uint64{5, 64, 1000}
	if len(ids) != len(want) {
		t.Fatalf("ids = %v", ids)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("ids = %v, want %v", ids, want)
		}
	}
	other := Eq(Var(64, "y"), Const(1, W8)).FreeVars()
	if !s.Intersects(other) {
		t.Error("Intersects should see shared spill id 64")
	}
	disjoint := Eq(Var(99, "q"), Const(1, W8)).FreeVars()
	if s.Intersects(disjoint) {
		t.Error("Intersects misreports disjoint spill sets")
	}
}

func TestVarNameDistinguishesNodes(t *testing.T) {
	a, b := Var(7, "a"), Var(7, "b")
	if a == b || Equal(a, b) {
		t.Fatal("vars with different names must be distinct nodes")
	}
	if Var(7, "a") != a {
		t.Fatal("same id+name must re-intern to the same node")
	}
}

// TestConcurrentInterning stress-tests the sharded table: many goroutines
// build the same expression population and must all observe identical
// canonical pointers. Run with -race in CI.
func TestConcurrentInterning(t *testing.T) {
	workers := runtime.GOMAXPROCS(0) * 2
	if workers < 4 {
		workers = 4
	}
	const perWorker = 200
	results := make([][]*Expr, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(99))
			out := make([]*Expr, 0, perWorker)
			for i := 0; i < perWorker; i++ {
				out = append(out, randomExpr(rng, 4))
			}
			results[w] = out
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		for i := range results[0] {
			if results[w][i] != results[0][i] {
				t.Fatalf("worker %d expr %d: pointer differs from worker 0", w, i)
			}
		}
	}
}

// TestInternCapOverflow lowers the per-shard cap to zero: constructions
// must still produce fully stamped nodes (O(1) Hash/FreeVars, structural
// Equal) even though nothing new can be published as canonical.
func TestInternCapOverflow(t *testing.T) {
	saved := internShardCap
	internShardCap = 0
	defer func() { internShardCap = saved }()

	mk := func() *Expr {
		return ult(Add(Var(50, "ov"), Var(90, "ov")), Const(77, W8))
	}
	a, b := mk(), mk()
	if a.Hash() != a.DeepHash() || b.Hash() != b.DeepHash() {
		t.Fatal("overflow nodes must still carry correct stamped hashes")
	}
	if !Equal(a, b) {
		t.Fatal("Equal must hold structurally for unpublished nodes")
	}
	ids := a.VarIDs()
	if len(ids) != 2 || ids[0] != 50 || ids[1] != 90 {
		t.Fatalf("overflow node var summary wrong: %v", ids)
	}
	nodesBefore, _ := InternStats()
	mk()
	nodesAfter, _ := InternStats()
	if nodesAfter != nodesBefore {
		t.Fatal("capped table must not grow")
	}
}

var statsTestSeq atomic.Uint64

func TestInternStatsGrow(t *testing.T) {
	nodes0, _ := InternStats()
	// A fresh structure must grow the table; a repeat construction must
	// hit. The name is unique per invocation so the test survives
	// repeated in-process runs (go test -count=N).
	name := fmt.Sprintf("stat-test-%d", statsTestSeq.Add(1))
	fresh := func() *Expr {
		return ult(Add(Var(40, name), Var(41, name)), Const(123, W8))
	}
	fresh()
	nodes1, hits1 := InternStats()
	if nodes1 <= nodes0 {
		t.Fatal("intern table did not grow on fresh construction")
	}
	fresh()
	nodes2, hits2 := InternStats()
	if nodes2 != nodes1 {
		t.Fatal("repeat construction must not add nodes")
	}
	if hits2 <= hits1 {
		t.Fatal("repeat construction must record hits")
	}
}

// TestInternConcurrentCanonical has eight goroutines intern overlapping
// ranges of variables into one fresh shard, enough of them to grow its
// table at least twice while they race. Every construction of one
// structure must return one pointer, and the shard's counters, the ones
// InternStats sums, must add up: one node per distinct structure, a hit
// for every other construction. (A fresh shard, not one of the global
// table's: growing a global shard twice would double it on every rerun.)
func TestInternConcurrentCanonical(t *testing.T) {
	const goroutines, span = 8, 64
	var sh internShard
	sh.init()
	slots0 := len(sh.tab.Load().slots)
	// Goroutine g interns ids [g*span, (g+2)*span), so every id but the
	// first and last span is built twice, by neighbours that run at once.
	mk := func(id uint64) *Expr {
		return sh.intern(hashParts(OpVar, W8, id, "v", nil), OpVar, W8, id, "v", nil)
	}
	got := make([]map[uint64]*Expr, goroutines)
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = map[uint64]*Expr{}
			for id := uint64(g * span); id < uint64((g+2)*span); id++ {
				got[g][id] = mk(id)
			}
		}()
	}
	wg.Wait()
	canon := map[uint64]*Expr{}
	constructions := 0
	for _, m := range got {
		for id, e := range m {
			constructions++
			if c, ok := canon[id]; ok && c != e {
				t.Fatalf("var %d: two constructions returned %p and %p", id, c, e)
			}
			canon[id] = e
		}
	}
	if slots := len(sh.tab.Load().slots); slots < 4*slots0 {
		t.Fatalf("the shard grew from %d to %d slots, want at least two doublings", slots0, slots)
	}
	nodes, hits := sh.stats()
	if nodes != uint64(len(canon)) {
		t.Errorf("%d nodes, want %d distinct structures", nodes, len(canon))
	}
	if hits != uint64(constructions-len(canon)) {
		t.Errorf("%d hits, want %d constructions - %d nodes", hits, constructions, len(canon))
	}
	for id, e := range canon {
		if mk(id) != e {
			t.Fatalf("var %d: a later construction returned another pointer", id)
		}
	}
}

// internHitSet returns constructions that are all hits once built: wide
// constants past the small-constant pool and comparisons of a variable.
func internHitSet() []func() *Expr {
	var set []func() *Expr
	for i := range uint64(128) {
		set = append(set,
			func() *Expr { return Const(1000+i, W32) },
			func() *Expr { return Eq(Var(i&7, "hit"), Const(i, W8)) })
	}
	for _, mk := range set {
		mk()
	}
	return set
}

// BenchmarkInternHit is the steady state of the interpreter's
// constructions: every one is answered by an existing node. A hit
// allocates nothing, serially or from every core at once.
func BenchmarkInternHit(b *testing.B) {
	set := internHitSet()
	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			set[i%len(set)]()
		}
	})
	b.Run("parallel", func(b *testing.B) {
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			for i := 0; pb.Next(); i++ {
				set[i%len(set)]()
			}
		})
	})
}
