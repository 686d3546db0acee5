package cfg

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"cloud9/internal/coverage"
	"cloud9/internal/cvm"
	"cloud9/internal/expr"
	"cloud9/internal/state"
)

// blockDesc compactly describes one basic block of a test function:
// the source lines its instructions carry, the functions it calls, and
// its successor blocks (nil = ends in Ret).
type blockDesc struct {
	lines []int
	calls []string
	succs []int
}

// buildProg assembles a Program from block descriptions.
func buildProg(funcs map[string][]blockDesc) *cvm.Program {
	p := cvm.NewProgram("t")
	for name, blocks := range funcs {
		fn := &cvm.Func{Name: name, NumRegs: 8}
		for bi, bd := range blocks {
			b := &cvm.Block{Index: bi}
			for _, ln := range bd.lines {
				b.Instrs = append(b.Instrs, cvm.Instr{Op: cvm.OpConst, W: expr.W8, A: 0, Line: ln})
				if ln > p.MaxLine {
					p.MaxLine = ln
				}
			}
			for _, callee := range bd.calls {
				b.Instrs = append(b.Instrs, cvm.Instr{Op: cvm.OpCall, A: -1, Sym: callee})
			}
			switch len(bd.succs) {
			case 0:
				b.Instrs = append(b.Instrs, cvm.Instr{Op: cvm.OpRet, A: -1})
			case 1:
				b.Instrs = append(b.Instrs, cvm.Instr{Op: cvm.OpBr, Imm: int64(bd.succs[0])})
			default:
				b.Instrs = append(b.Instrs, cvm.Instr{
					Op: cvm.OpCondBr, W: expr.W8,
					Imm: int64(bd.succs[0]), Imm2: int64(bd.succs[1]),
				})
			}
			fn.Blocks = append(fn.Blocks, b)
		}
		p.Funcs[name] = fn
	}
	return p
}

func TestGraphBuild(t *testing.T) {
	p := buildProg(map[string][]blockDesc{
		"main": {
			{lines: []int{1}, succs: []int{1, 2}},
			{lines: []int{2}, calls: []string{"leaf"}, succs: []int{2}},
			{lines: []int{3}},
		},
		"leaf": {
			{lines: []int{10, 11}},
		},
	})
	g := BuildGraph(p)
	m := g.Funcs["main"]
	if got := fmt.Sprint(m.Succs); got != "[[1 2] [2] []]" {
		t.Errorf("main succs = %s", got)
	}
	if got := fmt.Sprint(m.Preds); got != "[[] [0] [0 1]]" {
		t.Errorf("main preds = %s", got)
	}
	if got := fmt.Sprint(m.Calls[1]); got != "[leaf]" {
		t.Errorf("main block 1 calls = %s", got)
	}
	if got := fmt.Sprint(g.Callers["leaf"]); got != "[main]" {
		t.Errorf("callers(leaf) = %s", got)
	}
	if got := fmt.Sprint(g.LineOwners[10]); got != "[{leaf 0}]" {
		t.Errorf("owners(10) = %s", got)
	}
	if g.NumBlocks != 4 {
		t.Errorf("NumBlocks = %d, want 4", g.NumBlocks)
	}
}

// TestDistanceHandComputed checks md2u values on a CFG small enough to
// verify by eye, through a sequence of coverage deltas down to full
// coverage (everything Unreachable).
func TestDistanceHandComputed(t *testing.T) {
	// main: b0 → b1 → b2(ret), b1 calls leaf; leaf: single block.
	p := buildProg(map[string][]blockDesc{
		"main": {
			{lines: []int{1}, succs: []int{1}},
			{lines: []int{2}, calls: []string{"leaf"}, succs: []int{2}},
			{lines: []int{3}},
		},
		"leaf": {{lines: []int{10}}},
	})
	d := NewDistance(BuildGraph(p))
	// Everything uncovered: every block is its own source.
	for _, b := range []int{0, 1, 2} {
		if got := d.BlockDist("main", b); got != 0 {
			t.Errorf("uncovered main b%d dist = %d, want 0", b, got)
		}
	}
	// Cover main's own lines: b2 can reach nothing (ret, no uncovered
	// callee), b1 reaches leaf through the call portal (1 edge), b0
	// reaches it via b1 (2 edges).
	for _, ln := range []int{1, 2, 3} {
		d.CoverLine(ln)
	}
	if got := d.BlockDist("main", 2); got != Unreachable {
		t.Errorf("main b2 dist = %d, want Unreachable", got)
	}
	if got := d.BlockDist("main", 1); got != 1 {
		t.Errorf("main b1 dist = %d, want 1", got)
	}
	if got := d.BlockDist("main", 0); got != 2 {
		t.Errorf("main b0 dist = %d, want 2", got)
	}
	if got := d.FuncDist("leaf"); got != 0 {
		t.Errorf("leaf entry dist = %d, want 0", got)
	}
	// Cover the leaf: nothing uncovered remains anywhere.
	d.CoverLine(10)
	for fn, fg := range d.G.Funcs {
		for b := 0; b < fg.NumBlocks(); b++ {
			if got := d.BlockDist(fn, b); got != Unreachable {
				t.Errorf("%s b%d dist = %d, want Unreachable at full coverage", fn, b, got)
			}
		}
	}
}

// randProg generates a random program: F functions of up to 8 blocks
// with random branch structure, random call sites (self-calls and call
// cycles included), and random line attachment (occasionally shared
// across blocks, as loop heads are in real compiler output).
func randProg(rng *rand.Rand, nFuncs int) *cvm.Program {
	names := make([]string, nFuncs)
	for i := range names {
		names[i] = fmt.Sprintf("f%d", i)
	}
	funcs := map[string][]blockDesc{}
	nextLine := 1
	for _, name := range names {
		nb := 2 + rng.Intn(7)
		blocks := make([]blockDesc, nb)
		for bi := range blocks {
			bd := &blocks[bi]
			for k := rng.Intn(3); k >= 0; k-- {
				if rng.Intn(5) == 0 && nextLine > 1 {
					bd.lines = append(bd.lines, 1+rng.Intn(nextLine-1)) // shared line
				} else {
					bd.lines = append(bd.lines, nextLine)
					nextLine++
				}
			}
			if rng.Intn(3) == 0 {
				bd.calls = append(bd.calls, names[rng.Intn(len(names))])
			}
			switch rng.Intn(4) {
			case 0: // ret
			case 1:
				bd.succs = []int{rng.Intn(nb)}
			default:
				bd.succs = []int{rng.Intn(nb), rng.Intn(nb)}
			}
		}
		// Keep at least one terminating block so not everything loops.
		blocks[nb-1].succs = nil
		funcs[name] = blocks
	}
	return buildProg(funcs)
}

// compare checks the incremental oracle against the from-scratch BFS
// reference for every block of every function.
func compare(t *testing.T, tag string, d *Distance) {
	t.Helper()
	ref := ScratchDist(d.G, d.Covered)
	for fn, fg := range d.G.Funcs {
		for b := 0; b < fg.NumBlocks(); b++ {
			if got, want := d.BlockDist(fn, b), int(ref[fn][b]); got != want {
				t.Fatalf("%s: %s b%d: incremental %d, scratch %d", tag, fn, b, got, want)
			}
		}
	}
}

// TestDistanceMatchesScratch is the differential property test: over
// randomized CFGs and randomized coverage deltas (line-by-line and bulk
// Sync), the incremental md2u must equal a from-scratch BFS after every
// delta, and a delta that leaves Epoch where it was moves no distance.
func TestDistanceMatchesScratch(t *testing.T) {
	stays := 0
	for seed := int64(0); seed < 12; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			g := BuildGraph(randProg(rng, 3+rng.Intn(6)))
			d := NewDistance(g)
			var epoch uint64
			var dists []int
			check := func(tag string) {
				t.Helper()
				compare(t, tag, d)
				var now []int
				for _, fn := range sortedFuncs(g) {
					for b := 0; b < g.Funcs[fn].NumBlocks(); b++ {
						now = append(now, d.BlockDist(fn, b))
					}
				}
				if dists != nil && d.Epoch() == epoch {
					stays++
					if fmt.Sprint(now) != fmt.Sprint(dists) {
						t.Fatalf("%s: distances moved at epoch %d", tag, epoch)
					}
				}
				epoch, dists = d.Epoch(), now
			}
			check("initial")
			var lines []int
			for ln := range g.LineOwners {
				lines = append(lines, ln)
			}
			rng.Shuffle(len(lines), func(i, j int) { lines[i], lines[j] = lines[j], lines[i] })
			for len(lines) > 0 {
				if rng.Intn(4) == 0 {
					// Bulk delta through Sync (the global-overlay path).
					k := 1 + rng.Intn(len(lines))
					v := coverage.New(g.Prog.MaxLine)
					for _, ln := range lines[:k] {
						v.Set(ln)
					}
					lines = lines[k:]
					d.Sync(v)
					check("sync")
					continue
				}
				d.CoverLine(lines[0])
				lines = lines[1:]
				check("line")
			}
			// Full coverage: everything unreachable.
			for fn, fg := range g.Funcs {
				for b := 0; b < fg.NumBlocks(); b++ {
					if got := d.BlockDist(fn, b); got != Unreachable {
						t.Fatalf("full coverage: %s b%d = %d", fn, b, got)
					}
				}
			}
		})
	}
	if stays == 0 {
		t.Fatal("no delta left Epoch in place: the property was never exercised")
	}
}

func sortedFuncs(g *Graph) []string {
	var names []string
	for fn := range g.Funcs {
		names = append(names, fn)
	}
	sort.Strings(names)
	return names
}

// TestIncrementalRecomputeScope: a delta inside one leaf function must
// re-solve only that function and its call-graph ancestors, not the
// whole program — the memoization BenchmarkDistRecompute measures.
func TestIncrementalRecomputeScope(t *testing.T) {
	const leaves = 32
	funcs := map[string][]blockDesc{}
	mainBlocks := make([]blockDesc, leaves+1)
	line := 1000
	for i := 0; i < leaves; i++ {
		name := fmt.Sprintf("leaf%d", i)
		funcs[name] = []blockDesc{
			{lines: []int{line}, succs: []int{1}},
			{lines: []int{line + 1}},
		}
		mainBlocks[i] = blockDesc{lines: []int{i + 1}, calls: []string{name}, succs: []int{i + 1}}
		line += 2
	}
	mainBlocks[leaves] = blockDesc{lines: []int{leaves + 1}}
	funcs["main"] = mainBlocks
	d := NewDistance(BuildGraph(buildProg(funcs)))
	d.BlockDist("main", 0) // pay the initial full solve
	base := d.Stats().FuncRecomputes
	// Cover all of leaf7: dirties leaf7; affected = {leaf7, main}.
	d.CoverLine(1000 + 7*2)
	d.CoverLine(1000 + 7*2 + 1)
	d.BlockDist("main", 0)
	recomputed := d.Stats().FuncRecomputes - base
	// The worklist may visit an affected function a few times, but a
	// program-wide re-solve (33 functions) must not happen.
	if recomputed == 0 || recomputed > 6 {
		t.Fatalf("delta in one leaf re-solved %d function instances, want 1..6", recomputed)
	}
	compare(t, "scoped", d)
}

// BenchmarkDistRecompute: re-deriving md2u after one coverage delta on
// a 65-function program (main calling 64 eight-block leaves), the
// incremental oracle against the from-scratch whole-program BFS.
func BenchmarkDistRecompute(b *testing.B) {
	funcs := map[string][]blockDesc{}
	var mainBlocks []blockDesc
	line := 1
	for i := 0; i < 64; i++ {
		name := fmt.Sprintf("leaf%d", i)
		for j := 0; j < 8; j++ {
			bd := blockDesc{lines: []int{line}}
			if j < 7 {
				bd.succs = []int{j + 1}
			}
			funcs[name] = append(funcs[name], bd)
			line++
		}
		mainBlocks = append(mainBlocks, blockDesc{lines: []int{line}, calls: []string{name}, succs: []int{i + 1}})
		line++
	}
	funcs["main"] = append(mainBlocks, blockDesc{lines: []int{line}})
	g := BuildGraph(buildProg(funcs))
	// Every coverable line once, shuffled so consecutive deltas land in
	// different functions.
	var lines []int
	for ln := range g.LineOwners {
		lines = append(lines, ln)
	}
	sort.Ints(lines)
	rand.New(rand.NewSource(42)).Shuffle(len(lines), func(i, j int) { lines[i], lines[j] = lines[j], lines[i] })
	b.Run("incremental", func(b *testing.B) {
		var d *Distance
		for i := 0; i < b.N; i++ {
			if i%len(lines) == 0 {
				b.StopTimer()
				d = NewDistance(g)
				d.FuncDist("main")
				b.StartTimer()
			}
			d.CoverLine(lines[i%len(lines)])
			d.FuncDist("main")
		}
	})
	b.Run("from-scratch", func(b *testing.B) {
		var covered map[int]bool
		for i := 0; i < b.N; i++ {
			if i%len(lines) == 0 {
				covered = map[int]bool{}
			}
			covered[lines[i%len(lines)]] = true
			ScratchDist(g, func(ln int) bool { return covered[ln] })
		}
	})
}

// TestStateDist: distance ranks a state by its current frame, falling
// back through the call stack (plus one per return edge) when the
// active function is fully covered.
func TestStateDist(t *testing.T) {
	p := buildProg(map[string][]blockDesc{
		"main": {
			{lines: []int{1}, calls: []string{"helper"}, succs: []int{1}},
			{lines: []int{2}},
		},
		"helper": {{lines: []int{10}}},
	})
	g := BuildGraph(p)
	d := NewDistance(g)
	mkState := func(frames ...state.Frame) *state.S {
		th := &state.Thread{}
		for i := range frames {
			f := frames[i]
			th.Stack = append(th.Stack, &f)
		}
		return &state.S{Threads: map[state.ThreadID]*state.Thread{0: th}, Cur: 0}
	}
	// Cover everything except main's b1 line. A state inside helper
	// (dist Unreachable locally) ranks by the caller continuation: main
	// b0 → b1 is 1 edge, +1 return penalty.
	d.CoverLine(1)
	d.CoverLine(10)
	s := mkState(
		state.Frame{Fn: p.Funcs["main"], Block: 0},
		state.Frame{Fn: p.Funcs["helper"], Block: 0},
	)
	if got := d.StateDist(s); got != 2 {
		t.Errorf("stacked StateDist = %d, want 2", got)
	}
	// A state already sitting in main b1 has distance 0.
	if got := d.StateDist(mkState(state.Frame{Fn: p.Funcs["main"], Block: 1})); got != 0 {
		t.Errorf("at-uncovered StateDist = %d, want 0", got)
	}
	if got := d.StateDist(nil); got != Unreachable {
		t.Errorf("nil StateDist = %d, want Unreachable", got)
	}
	d.CoverLine(2)
	if got := d.StateDist(s); got != Unreachable {
		t.Errorf("full-coverage StateDist = %d, want Unreachable", got)
	}
}
