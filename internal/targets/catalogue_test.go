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
func catalogueRow(t *testing.T, name string) string {
	t.Helper()
	e := exploreAsC9(t, name)
	ss := e.In.Solver.Stats.Snapshot()
	return fmt.Sprintf("%s\tpaths=%d\terrors=%d\thangs=%d\tlines=%d\tkills=%d\truns=%d\tbacktracks=%d\tunsat=%d\n",
		name, e.Stats.PathsExplored, e.Stats.Errors, e.Stats.Hangs, e.Cov.Count(),
		e.Stats.SolverKilled, ss.SolverRuns, ss.Backtracks, ss.Unsat)
}

// TestCatalogueGolden pins the search tree of every CLI target: a change
// to the solver or the engine that claims "same tree, only faster" is
// checked by this file staying byte-identical. Regenerate (after a
// deliberate re-pin only) with
//
//	go test ./internal/targets -run TestCatalogueGolden -update
func TestCatalogueGolden(t *testing.T) {
	if *update {
		var out strings.Builder
		for _, name := range Names() {
			out.WriteString(catalogueRow(t, name))
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
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			if testing.Short() && catalogueSlow[name] {
				t.Skip("long-only")
			}
			if got := catalogueRow(t, name); got != want[name] {
				t.Errorf("search tree moved.\n got: %s want: %s", got, want[name])
			}
		})
	}
}

// The journal alone says what a run abandoned: memcached's ten budget
// kills are two groups of four variables, five times each, every one
// named with the place in the program that asked.
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
		kills[f["group"]+"/"+f["cons"]]++
	}
	want := map[string]int{"c1fafc383e11a8a0/7": 5, "5fab7a5327cbe6c0/8": 5}
	if !maps.Equal(kills, want) {
		t.Errorf("kills by group/constraints: %v, want %v", kills, want)
	}
}
