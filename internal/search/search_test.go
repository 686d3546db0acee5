package search

import (
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"os"
	"regexp"
	"strings"
	"testing"

	"cloud9/internal/cfg"
	"cloud9/internal/engine"
	"cloud9/internal/targets"
	"cloud9/internal/tree"
)

// buildTestTree grows a deterministic tree with nLeaves candidate
// leaves at mixed depths (interior nodes dead, as after exploration).
func buildTestTree(nLeaves int, seed int64) (*tree.Tree, []*tree.Node) {
	t := tree.New(nil, nil)
	rng := rand.New(rand.NewSource(seed))
	frontier := []*tree.Node{t.Root}
	var leaves []*tree.Node
	for len(leaves)+len(frontier) < nLeaves {
		// Pop a frontier node, kill it, attach 2-3 children.
		i := rng.Intn(len(frontier))
		n := frontier[i]
		frontier = append(frontier[:i], frontier[i+1:]...)
		t.MarkDead(n)
		kids := 2 + rng.Intn(2)
		for c := 0; c < kids; c++ {
			child := t.AddChild(n, uint8(c), tree.Materialized, tree.Candidate, nil)
			// Keep at least one growth point so the frontier never dries
			// up before reaching the target size.
			if c > 0 && (rng.Intn(3) == 0 || len(leaves)+len(frontier)+kids-c >= nLeaves) {
				leaves = append(leaves, child)
			} else {
				frontier = append(frontier, child)
			}
		}
	}
	leaves = append(leaves, frontier...)
	return t, leaves
}

// invariantSpecs assembles the spec sweep from the vocabulary — every
// base strategy and a cupa(<classifier>,dfs) per classifier, so a new
// name is property-tested the moment it exists — plus hand-picked
// layered composites the generated list would miss.
func invariantSpecs() []string {
	specs := []string{
		"interleave(dfs,bfs)", "interleaved",
		"cupa(depth:4,dfs)", "cupa(site,random)", "cupa(yield,cov-opt)",
		"cupa(site,depth:2,dfs)", "cupa(depth,cupa(faults,random))",
		"cupa(depth:4,dist-opt)", "cupa(site,dist-opt)",
	}
	for _, name := range StrategyNames() {
		switch name {
		case "random-path":
			continue // tree-walking contract: TestRandomPathInvariants
		case "cupa":
			continue // argument-less form is invalid; classifier sweep below
		case "interleave", "interleaved":
			continue // default args build random-path; composites above cover them
		}
		specs = append(specs, name)
	}
	for _, cls := range ClassifierNames() {
		specs = append(specs, fmt.Sprintf("cupa(%s,dfs)", cls))
	}
	return specs
}

// TestStrategyInvariants checks, for every spec: Select only ever
// yields current candidates that were Added and not Removed; Remove of
// an unknown node is a no-op; and the strategy drains exactly the
// surviving candidate set (no losses, no duplicates).
func TestStrategyInvariants(t *testing.T) {
	for _, spec := range invariantSpecs() {
		t.Run(spec, func(t *testing.T) {
			tr, leaves := buildTestTree(120, 7)
			s, err := Build(spec, tr, nil, 42)
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range leaves {
				s.Add(n)
			}
			// Remove of a node the strategy never saw must be a no-op.
			stranger := &tree.Node{Depth: 3}
			s.Remove(stranger)
			// Remove a subset (simulating job export: fenced locally).
			rng := rand.New(rand.NewSource(99))
			removed := map[*tree.Node]bool{}
			for i := 0; i < len(leaves)/4; i++ {
				n := leaves[rng.Intn(len(leaves))]
				if removed[n] {
					continue
				}
				removed[n] = true
				s.Remove(n)
				tr.MarkFence(n)
			}
			// Double-remove must also be a no-op.
			for n := range removed {
				s.Remove(n)
				break
			}
			want := map[*tree.Node]bool{}
			for _, n := range leaves {
				if !removed[n] {
					want[n] = true
				}
			}
			got := map[*tree.Node]bool{}
			for {
				n := s.Select()
				if n == nil {
					break
				}
				if !n.IsCandidate() {
					t.Fatalf("%s: Select yielded a non-candidate (depth %d, life %v)", spec, n.Depth, n.Life)
				}
				if !want[n] {
					t.Fatalf("%s: Select yielded a node that was removed or never added", spec)
				}
				if got[n] {
					t.Fatalf("%s: Select yielded the same node twice", spec)
				}
				got[n] = true
				tr.MarkDead(n) // simulate exploration so random-path progresses
			}
			if len(got) != len(want) {
				t.Fatalf("%s: drained %d of %d candidates", spec, len(got), len(want))
			}
		})
	}
}

// TestRandomPathInvariants covers the tree-walking strategy separately:
// it ignores Add/Remove, so its contract is against the tree's
// candidate set, not the Added set.
func TestRandomPathInvariants(t *testing.T) {
	tr, _ := buildTestTree(60, 3)
	s, err := Build("random-path", tr, nil, 5)
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for {
		n := s.Select()
		if n == nil {
			break
		}
		if !n.IsCandidate() {
			t.Fatal("random-path yielded a non-candidate")
		}
		tr.MarkDead(n)
		seen++
	}
	if tr.NumCandidates() != 0 {
		t.Fatalf("random-path left %d candidates unexplored", tr.NumCandidates())
	}
	if seen == 0 {
		t.Fatal("random-path never selected anything")
	}
}

// TestInterleavedRoundRobinsFairly: with k sub-strategies, k successive
// selections come from k distinct sub-strategies (each non-empty).
func TestInterleavedRoundRobinsFairly(t *testing.T) {
	tr, _ := buildTestTree(40, 11)
	// DFS pops the last Add, BFS the first: with nodes added in order,
	// alternating selections must come from opposite ends by depth
	// ordering of the add sequence.
	var nodes []*tree.Node
	for _, n := range tr.CandidatesUnder(tr.Root, tr.NumCandidates()) {
		nodes = append(nodes, n)
	}
	s := engine.NewInterleaved(engine.NewDFS(), engine.NewBFS())
	for _, n := range nodes {
		s.Add(n)
	}
	order := map[*tree.Node]int{}
	for i, n := range nodes {
		order[n] = i
	}
	lo, hi := 0, len(nodes)-1
	for turn := 0; lo <= hi; turn++ {
		n := s.Select()
		if n == nil {
			t.Fatal("drained early")
		}
		tr.MarkDead(n)
		if turn%2 == 0 {
			// DFS turn: the not-yet-selected node with the highest add index.
			if order[n] != hi {
				t.Fatalf("turn %d: dfs turn selected add-index %d, want %d", turn, order[n], hi)
			}
			hi--
			if order[n] == lo {
				lo++
			}
		} else {
			if order[n] != lo {
				t.Fatalf("turn %d: bfs turn selected add-index %d, want %d", turn, order[n], lo)
			}
			lo++
		}
	}
	if s.Select() != nil {
		t.Fatal("interleaved should be drained")
	}
}

// TestCUPAClassUniform checks the class-uniform property: with one
// giant class and one tiny class, selections split roughly evenly by
// class, not by population.
func TestCUPAClassUniform(t *testing.T) {
	tr := tree.New(nil, nil)
	tr.MarkDead(tr.Root)
	// Depth 1: a "hub" whose subtree explodes; depth 9+: a lone deep chain.
	hub := tr.AddChild(tr.Root, 0, tree.Materialized, tree.Dead, nil)
	var shallow []*tree.Node
	for c := 0; c < 200; c++ {
		n := tr.AddChild(hub, uint8(c), tree.Materialized, tree.Candidate, nil)
		shallow = append(shallow, n)
	}
	deepParent := tr.AddChild(tr.Root, 1, tree.Materialized, tree.Dead, nil)
	for d := 0; d < 8; d++ {
		deepParent = tr.AddChild(deepParent, 0, tree.Materialized, tree.Dead, nil)
	}
	deep := tr.AddChild(deepParent, 0, tree.Materialized, tree.Candidate, nil)

	s, err := Build("cupa(depth:8,dfs)", tr, nil, 17)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range shallow {
		s.Add(n)
	}
	s.Add(deep)
	// First selections: the deep class (population 1) must surface fast.
	// Under flat uniform selection it would take ~100 draws in
	// expectation; class-uniform finds it within a few.
	found := -1
	for i := 0; i < 10; i++ {
		n := s.Select()
		if n == nil {
			t.Fatal("drained early")
		}
		tr.MarkDead(n)
		if n == deep {
			found = i
			break
		}
	}
	if found < 0 {
		t.Fatal("class-uniform selection starved the small class for 10 draws")
	}
}

func TestSpecParseRoundTrip(t *testing.T) {
	cases := []string{
		"dfs",
		"cupa(depth:4,dfs)",
		"cupa(site,cupa(depth:2,random))",
		"interleave(dfs,bfs,cov-opt)",
		"cupa(site,depth:2,dfs)",
		"cupa(site,dist-opt)",
	}
	for _, src := range cases {
		ast, err := Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if ast.String() != src {
			t.Fatalf("round trip: %q -> %q", src, ast.String())
		}
	}
	// Whitespace tolerated, canonicalized away.
	ast, err := Parse(" cupa( depth:4 , dfs ) ")
	if err != nil {
		t.Fatal(err)
	}
	if ast.String() != "cupa(depth:4,dfs)" {
		t.Fatalf("canonical form: %q", ast.String())
	}
}

func TestSpecErrors(t *testing.T) {
	bad := []string{
		"", "nope", "cupa(dfs)", "cupa(depth)", "cupa(site,random-path)",
		"cupa(site,interleave(dfs,random-path))", "dfs(bfs)", "cupa(site,dfs",
		"depth:x", "cupa(site:3,dfs)", "random,dfs",
		// Bare interleave defaults to random-path ⊕ cov-opt, so it is
		// just as illegal as a cupa inner as naming random-path outright.
		"cupa(site,interleave)", "cupa(site,interleaved)",
		"cupa(site,cupa(depth,interleaved))",
		"dist-opt(dfs)",
		// The grammar has no key=value arguments.
		"dist-opt(w=1:0:0:0)", "dfs(k=1)",
		// Only classifiers take a ":N" parameter.
		"dfs:5", "cov-opt:1", "dist-opt:9", "interleave:3(dfs,bfs)", "cupa:2(site,dfs)",
	}
	for _, spec := range bad {
		if err := Validate(spec); err == nil {
			t.Errorf("Validate(%q) should fail", spec)
		}
	}
}

func TestParsePortfolio(t *testing.T) {
	specs, err := ParsePortfolio("dfs, cupa(site,dfs) ,random,interleave(dfs,bfs)")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"dfs", "cupa(site,dfs)", "random", "interleave(dfs,bfs)"}
	if fmt.Sprint(specs) != fmt.Sprint(want) {
		t.Fatalf("specs = %v, want %v", specs, want)
	}
	if _, err := ParsePortfolio("dfs,cupa(site,dfs"); err == nil {
		t.Fatal("unbalanced portfolio should fail")
	}
	if _, err := ParsePortfolio("dfs,wat"); err == nil {
		t.Fatal("unknown spec in portfolio should fail")
	}
}

// drainOrder files leaves into s and drains it, returning the leaf
// indices in selection order.
func drainOrder(tr *tree.Tree, leaves []*tree.Node, s engine.Strategy) []int {
	idx := map[*tree.Node]int{}
	for i, n := range leaves {
		idx[n] = i
		s.Add(n)
	}
	var order []int
	for n := s.Select(); n != nil; n = s.Select() {
		tr.MarkDead(n)
		order = append(order, idx[n])
	}
	return order
}

// TestBuildDeterminism: same (spec, seed) yields the same selection
// sequence; different seeds diverge (for randomized strategies).
func TestBuildDeterminism(t *testing.T) {
	run := func(seed int64) []int {
		tr, leaves := buildTestTree(80, 23)
		s, err := Build("cupa(depth:4,random)", tr, nil, seed)
		if err != nil {
			t.Fatal(err)
		}
		return drainOrder(tr, leaves, s)
	}
	a, b := run(7), run(7)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatal("same seed must reproduce the same selection order")
	}
	if c := run(8); fmt.Sprint(a) == fmt.Sprint(c) && len(a) > 10 {
		t.Fatal("different seeds should diverge")
	}
}

// fakeBander is a coverage-sensitive test classifier whose banding
// can be flipped mid-run, standing in for dist's moving md2u bands.
type fakeBander struct{ gen *int }

func (fakeBander) Name() string       { return "fake" }
func (fakeBander) CoverageSensitive() {}
func (f fakeBander) ClassOf(n *tree.Node) uint64 {
	if *f.gen == 0 {
		return 0 // everything one class
	}
	return uint64(n.Depth % 2) // then split by depth parity
}

// numClasses returns the number of currently non-empty classes.
func (c *CUPA) numClasses() int { return len(c.keys.items) }

// TestCUPARebandsCoverageSensitive: when a coverage-sensitive
// classifier's bands move (as dist's do whenever the overlay grows),
// a coverage notification must re-file the frontier under the new
// classes — batched to one scan at the next Select, however many
// notifications arrived — and the strategy must still drain exactly
// the candidate set afterwards.
func TestCUPARebandsCoverageSensitive(t *testing.T) {
	tr, leaves := buildTestTree(60, 31)
	gen := 0
	s := NewCUPA(fakeBander{gen: &gen}, func() engine.Strategy { return engine.NewDFS() }, 9)
	for _, n := range leaves {
		s.Add(n)
	}
	if s.numClasses() != 1 {
		t.Fatalf("pre-reband classes = %d, want 1", s.numClasses())
	}
	// Bands move; a zero delta must NOT trigger re-banding, a positive
	// one must — observed after the next Select (re-banding is deferred
	// so a burst of deltas costs one frontier scan).
	gen = 1
	s.NotifyGlobalCoverage(0)
	tr.MarkDead(s.Select())
	if s.numClasses() != 1 {
		t.Fatalf("zero delta re-banded (%d classes)", s.numClasses())
	}
	s.NotifyGlobalCoverage(3)
	s.NotifyGlobalCoverage(2) // coalesces with the previous delta
	tr.MarkDead(s.Select())
	if s.numClasses() != 2 {
		t.Fatalf("post-reband classes = %d, want 2", s.numClasses())
	}
	// The re-filed frontier still drains exactly once each.
	seen := 2 // the two nodes consumed above
	picked := map[*tree.Node]bool{}
	for {
		n := s.Select()
		if n == nil {
			break
		}
		if picked[n] {
			t.Fatal("node selected twice after re-banding")
		}
		picked[n] = true
		seen++
		tr.MarkDead(n)
	}
	if seen != len(leaves) {
		t.Fatalf("drained %d of %d after re-banding", seen, len(leaves))
	}
	// Local coverage notifications re-band too (md2u moves on locally
	// covered lines, not only on MsgCoverage).
	gen = 0
	s2 := NewCUPA(fakeBander{gen: &gen}, func() engine.Strategy { return engine.NewDFS() }, 9)
	tr2, leaves2 := buildTestTree(40, 5) // tr2 consumed by the MarkDead below
	for _, n := range leaves2 {
		s2.Add(n)
	}
	gen = 1
	s2.NotifyCoverage(leaves2[0], 2)
	tr2.MarkDead(s2.Select())
	if s2.numClasses() != 2 {
		t.Fatalf("local-coverage reband classes = %d, want 2", s2.numClasses())
	}
}

// recorder hashes (FNV-1a) the root path of every node the wrapped
// strategy selects, so a run's whole selection sequence is one number.
type recorder struct {
	engine.Strategy
	h     hash.Hash64
	picks int
}

func (r *recorder) Select() *tree.Node {
	n := r.Strategy.Select()
	if n != nil {
		r.h.Write(n.PathFromRoot())
		r.h.Write([]byte{0xff}) // path separator (choices are far below 255)
		r.picks++
	}
	return n
}

// pinnedSpecs is every strategy that builds without arguments plus the
// composites that reach yield inheritance, the fault lookup and
// interleave's bookkeeping.
func pinnedSpecs() []string {
	var specs []string
	for _, name := range StrategyNames() {
		if Validate(name) == nil {
			specs = append(specs, name)
		}
	}
	return append(specs, "cupa(yield,cov-opt)",
		"cupa(faults,dist-opt)", "interleave(random,cov-opt)")
}

// TestSelectionSequencePinned explores printf to exhaustion under every
// pinned spec (seed 1) and compares the hash of the selected-path
// sequence with testdata/selection.golden: a refactoring of the search
// layer must keep every float operation and RNG draw, not only the
// strategy-invariant totals.
func TestSelectionSequencePinned(t *testing.T) {
	tgt, ok := targets.ByName("printf")
	if !ok {
		t.Fatal("no printf target")
	}
	var got strings.Builder
	for _, spec := range pinnedSpecs() {
		in, err := targets.Factory(tgt)()
		if err != nil {
			t.Fatal(err)
		}
		rec := &recorder{h: fnv.New64a()}
		e, err := engine.New(in, "main", engine.Config{
			MaxStateSteps: 1_000_000,
			Strategy: func(tr *tree.Tree, d *cfg.Distance) engine.Strategy {
				s, err := Build(spec, tr, d, 1)
				if err != nil {
					t.Fatalf("%s: %v", spec, err)
				}
				rec.Strategy = s
				return rec
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.RunToCompletion(0); err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		fmt.Fprintf(&got, "%s\tpaths=%d\tselects=%d\tfnv1a=%016x\n",
			spec, e.Stats.PathsExplored, rec.picks, rec.h.Sum64())
	}
	want, err := os.ReadFile("testdata/selection.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("selection sequences moved.\n--- got\n%s--- want\n%s", got.String(), want)
	}
}

// TestFactory: the empty spec is the engine default (nil), a bad spec is
// an error before any engine exists, and bare "interleaved" honours its
// seed exactly as its alias "interleave" does.
func TestFactory(t *testing.T) {
	if f, err := Factory("", 7); f != nil || err != nil {
		t.Fatalf(`Factory("") = %p, %v; want nil, nil`, f, err)
	}
	for _, bad := range []string{"dsf", "cupa(site,dfs", "dist-opt(w=1:0:0:0)"} {
		if _, err := Factory(bad, 1); err == nil {
			t.Errorf("Factory(%q) should fail", bad)
		}
	}
	order := func(spec string, seed int64) string {
		f, err := Factory(spec, seed)
		if err != nil {
			t.Fatal(err)
		}
		tr, leaves := buildTestTree(80, 23)
		return fmt.Sprint(drainOrder(tr, leaves, f(tr, nil)))
	}
	if order("interleaved", 7) != order("interleave", 7) {
		t.Error("interleaved and interleave draw differently on the same seed")
	}
	if order("interleaved", 7) == order("interleaved", 8) {
		t.Error("interleaved ignores its seed")
	}
}

// docSpec matches a spec given to -strategy or -portfolio: quoted, or a
// bare run of spec characters.
var docSpec = regexp.MustCompile(`-(?:strategy|portfolio)[ =]+('[^']*'|"[^"]*"|[A-Za-z0-9_:(),-]+)`)

// TestDocSpecsParse: every spec the docs pass to -strategy or -portfolio
// is one ParsePortfolio accepts, so an example cannot outlive the
// grammar.
func TestDocSpecsParse(t *testing.T) {
	for _, doc := range []string{"../../docs/operations.md", "../../ARCHITECTURE.md", "doc.go"} {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		found := 0
		for _, m := range docSpec.FindAllStringSubmatch(string(src), -1) {
			spec := strings.Trim(m[1], `'"`)
			if specs, err := ParsePortfolio(spec); err != nil || len(specs) == 0 {
				t.Errorf("%s: %s: %v", doc, m[0], err)
			}
			found++
		}
		if found == 0 {
			t.Errorf("%s: no -strategy or -portfolio example found", doc)
		}
	}
}
