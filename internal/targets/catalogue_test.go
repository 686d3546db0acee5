package targets

import (
	"flag"
	"fmt"
	"maps"
	"os"
	"strings"
	"testing"

	"cloud9/internal/engine"
	"cloud9/internal/obs"
	"cloud9/internal/solver"
)

var update = flag.Bool("update", false, "rewrite testdata/catalogue.golden from this run")

const catalogueGolden = "testdata/catalogue.golden"

// catalogueSlow names the targets whose exhaustive run is too long for
// -short: coreutil-sum's three budget-killed searches evaluate a
// constraint over every variable of the group at each of their 131,072
// backtracks (20 s).
var catalogueSlow = map[string]bool{
	"coreutil-sum": true,
}

// exploreAsC9 explores one catalogue target to exhaustion exactly as
// `c9 -target name` does: engine-default strategy, 2,000,000-instruction
// path budget, the solver's default backtrack budget.
func exploreAsC9(t *testing.T, name string) *engine.Explorer {
	t.Helper()
	tgt, ok := ByName(name)
	if !ok {
		t.Fatalf("Names() lists %q but ByName does not resolve it", name)
	}
	in, err := Factory(tgt)()
	if err != nil {
		t.Fatal(err)
	}
	e, err := engine.New(in, "main", engine.Config{MaxStateSteps: 2_000_000})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.RunToCompletion(0); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return e
}

// catalogueRow renders what a target's search tree looked like: the
// exploration totals plus the tier-3 counters, which move if a solver
// change alters which searches run or how they branch.
func catalogueRow(t *testing.T, name string) (string, solver.Stats) {
	t.Helper()
	e := exploreAsC9(t, name)
	ss := e.In.Solver.Stats.Snapshot()
	return fmt.Sprintf("%s\tpaths=%d\terrors=%d\thangs=%d\tlines=%d\tkills=%d\truns=%d\tbacktracks=%d\tunsat=%d\n",
		name, e.Stats.PathsExplored, e.Stats.Errors, e.Stats.Hangs, e.Cov.Count(),
		e.Stats.SolverKilled, ss.SolverRuns, ss.Backtracks, ss.Unsat), ss
}

// answerPaths are the solver's ways of answering without a search, one
// counter each.
var answerPaths = []struct {
	name string
	hits func(solver.Stats) uint64
}{
	{"GroupCacheHits", func(s solver.Stats) uint64 { return s.GroupCacheHits }},
	{"ForkFastHits", func(s solver.Stats) uint64 { return s.ForkFastHits }},
	{"ForkIntervalHits", func(s solver.Stats) uint64 { return s.ForkIntervalHits }},
	{"IntervalEmpty", func(s solver.Stats) uint64 { return s.IntervalEmpty }},
	{"StateHits", func(s solver.Stats) uint64 { return s.StateHits }},
	{"PruneMemoHits", func(s solver.Stats) uint64 { return s.PruneMemoHits }},
	{"KillMemoHits", func(s solver.Stats) uint64 { return s.KillMemoHits }},
}

// catalogueTraffic sums, over the targets TestCatalogueGolden explored,
// the queries asked and what each answer path caught of them. A row per
// target plus the totals is the traffic table in ARCHITECTURE.md.
type catalogueTraffic struct {
	targets        int
	queries, forks uint64
	hits           []uint64 // parallel to answerPaths
}

func (c *catalogueTraffic) add(t *testing.T, name string, ss solver.Stats) {
	c.targets++
	c.queries += ss.Queries
	c.forks += ss.ForkQueries
	row := fmt.Sprintf("traffic %s queries=%d forks=%d", name, ss.Queries, ss.ForkQueries)
	for i, p := range answerPaths {
		c.hits[i] += p.hits(ss)
		row += fmt.Sprintf(" %s=%d", p.name, p.hits(ss))
	}
	t.Log(row)
}

// TestCatalogueGolden pins the search tree of every CLI target: a change
// to the solver or the engine that claims "same tree, only faster" is
// checked by this file staying byte-identical. Two fields are effort
// counters, not the tree: runs= and backtracks= may fall in a change that
// skips work provably identical to work already done (the kill memo
// skips a search whose exact input was killed before), and that change
// regenerates the file. paths, errors, hangs, lines, kills and unsat may
// not move. Regenerate (after a deliberate re-pin, or such a change) with
//
//	go test ./internal/targets -run TestCatalogueGolden -update
func TestCatalogueGolden(t *testing.T) {
	if *update {
		var out strings.Builder
		for _, name := range Names() {
			row, _ := catalogueRow(t, name)
			out.WriteString(row)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(catalogueGolden, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(catalogueGolden)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.SplitAfter(string(raw), "\n") {
		if name, _, ok := strings.Cut(line, "\t"); ok {
			want[name] = line
		}
	}
	names := Names()
	if len(want) != len(names) {
		t.Errorf("golden has %d rows, Names() has %d targets", len(want), len(names))
	}
	traffic := catalogueTraffic{hits: make([]uint64, len(answerPaths))}
	skipped := 0
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			if testing.Short() && catalogueSlow[name] {
				skipped++
				t.Skip("long-only")
			}
			got, ss := catalogueRow(t, name)
			if got != want[name] {
				t.Errorf("search tree moved.\n got: %s want: %s", got, want[name])
			}
			traffic.add(t, name, ss)
		})
	}
	// Standing traffic check: a solver fast path that answers nothing on
	// the whole catalogue is a path to delete (ROADMAP aim 2). Only a
	// run over every target can say so; -run Golden/printf cannot.
	if traffic.targets+skipped != len(names) {
		return
	}
	t.Logf("traffic total targets=%d queries=%d forks=%d", traffic.targets, traffic.queries, traffic.forks)
	for i, p := range answerPaths {
		t.Logf("traffic total %s=%d", p.name, traffic.hits[i])
		if traffic.hits[i] == 0 {
			t.Errorf("solver counter %s is zero over %d targets and %d queries: the path answers nothing",
				p.name, traffic.targets, traffic.queries)
		}
	}
}

// The journal alone says what a run abandoned: memcached's ten budget
// kills are two groups of four variables, five times each, every one
// named with the place in the program that asked. Each group is searched
// once; the solver's kill memo answers its four replays (memo=1).
func TestBudgetKillsAreJournaled(t *testing.T) {
	e := exploreAsC9(t, "memcached")
	kills := map[string]int{}
	for _, ev := range e.Journal.Tail(0) {
		if ev.Type != obs.EvBudgetKill {
			continue
		}
		f := ev.Fields
		if f["vars"] != "4" || f["backtracks"] != "65537" || !strings.HasPrefix(f["func"], "mc_") || f["line"] == "" || f["line"] == "0" {
			t.Errorf("budget-kill event lacks its search or its location: %v", f)
		}
		kills[f["group"]+"/"+f["cons"]+"/memo="+f["memo"]]++
	}
	want := map[string]int{
		"c1fafc383e11a8a0/7/memo=0": 1, "c1fafc383e11a8a0/7/memo=1": 4,
		"5fab7a5327cbe6c0/8/memo=0": 1, "5fab7a5327cbe6c0/8/memo=1": 4,
	}
	if !maps.Equal(kills, want) {
		t.Errorf("kills by group/constraints/memo: %v, want %v", kills, want)
	}
}
