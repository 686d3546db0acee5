package cc_test

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"maps"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"cloud9/internal/cc"
	"cloud9/internal/cvm"
	"cloud9/internal/engine"
	"cloud9/internal/interp"
	"cloud9/internal/posix"
	"cloud9/internal/solver"
	"cloud9/internal/targets"
)

var update = flag.Bool("update", false, "rewrite testdata/witness.golden from this run")

const witnessGolden = "testdata/witness.golden"

// witnessRow renders one target's generated inputs as a golden line: the
// path count and a hash over every test case in exploration order — its
// kind, message, step count, branch choices and input bytes, regions
// sorted by name.
func witnessRow(name string, tests []engine.TestCase) string {
	h := sha256.New()
	for _, tc := range tests {
		fmt.Fprintf(h, "kind=%d msg=%q steps=%d path=%x\n", tc.Kind, tc.Message, tc.Steps, tc.Path)
		for _, region := range slices.Sorted(maps.Keys(tc.Inputs)) {
			fmt.Fprintf(h, "\t%q=%x\n", region, tc.Inputs[region])
		}
	}
	return fmt.Sprintf("%s\tpaths=%d\twitness=%x\n", name, len(tests), h.Sum(nil)[:8])
}

// readWitnessGolden returns the golden's lines by target name.
func readWitnessGolden(t *testing.T) map[string]string {
	t.Helper()
	raw, err := os.ReadFile(witnessGolden)
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]string{}
	for _, line := range strings.SplitAfter(string(raw), "\n") {
		if name, _, ok := strings.Cut(line, "\t"); ok {
			rows[name] = line
		}
	}
	return rows
}

// exploration is everything of a target's exhaustive run that slot
// promotion must leave alone.
type exploration struct {
	Tests  []engine.TestCase // every path: inputs, choices, kind, steps, message (addresses included)
	Engine engine.Stats
	Interp interp.Stats
	Solver solver.Stats
	Lines  []uint64 // covered lines, as the bit vector's words
}

// explore runs prog to exhaustion as `c9 -target` does (engine-default
// strategy, 2,000,000-instruction path budget), recording every path.
func explore(t *testing.T, prog *cvm.Program) exploration {
	t.Helper()
	in := interp.New(prog)
	posix.Install(in, posix.Options{})
	e, err := engine.New(in, "main", engine.Config{MaxStateSteps: 2_000_000, RecordAllTests: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.RunToCompletion(0); err != nil {
		t.Fatal(err)
	}
	return exploration{e.Tests, e.Stats, in.Stats, in.Solver.Stats.Snapshot(), e.Cov.Words()}
}

// TestPromotionIsExact: every catalogue target, compiled with its
// scalar locals in registers and with every local a memory object,
// explores the same tree — the same test cases path for path, the same
// instruction, fork and solver counts, the same lines. Under -v it logs
// how many slots each target had promoted; the nightly summary prints
// the total, so a front-end change that stops promoting shows.
//
// The promoted run's test cases are also held to testdata/witness.golden,
// one hash per target (see witnessRow): a solver or model change that
// claims "same witnesses" is checked by this file staying byte-identical.
// Regenerate (after a deliberate re-pin only, and without -short) with
//
//	go test ./internal/cc -run TestPromotionIsExact -update
func TestPromotionIsExact(t *testing.T) {
	opts := cc.Options{
		Externs:           posix.Externs(),
		CoverageStartLine: strings.Count(posix.Prelude, "\n") + 2, // as posix.CompileTarget
	}
	names := targets.Names()
	golden := map[string]string{}
	if !*update {
		golden = readWitnessGolden(t)
		if len(golden) != len(names) {
			t.Errorf("witness golden has %d rows, Names() has %d targets", len(golden), len(names))
		}
	}
	rows := map[string]string{}
	promoted, total := 0, 0
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			if testing.Short() && name == "coreutil-sum" {
				t.Skip("long-only, as in TestCatalogueGolden")
			}
			tgt, ok := targets.ByName(name)
			if !ok {
				t.Fatalf("no target %q", name)
			}
			src := posix.Prelude + "\n" + tgt.Source
			prog, err := cc.Compile(name+".c", src, opts)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := cc.CompileUnpromoted(name+".c", src, opts)
			if err != nil {
				t.Fatal(err)
			}
			p, n := 0, 0
			for fname, f := range prog.Funcs {
				p += f.NumPromoted()
				n += len(f.Slots)
				if rf := ref.Funcs[fname]; rf.NumPromoted() != 0 || len(rf.Slots) != len(f.Slots) {
					t.Errorf("%s: the reference compile has %d of %d slots promoted, want 0 of %d",
						fname, rf.NumPromoted(), len(rf.Slots), len(f.Slots))
				}
			}
			t.Logf("slots %s promoted=%d total=%d", name, p, n)
			promoted, total = promoted+p, total+n
			if p == 0 {
				t.Errorf("no slot of %s was promoted", name)
			}
			got, want := explore(t, prog), explore(t, ref)
			rows[name] = witnessRow(name, got.Tests)
			if !*update && rows[name] != golden[name] {
				t.Errorf("generated inputs moved.\n got: %s want: %s", rows[name], golden[name])
			}
			if len(got.Tests) != len(want.Tests) {
				t.Fatalf("%d paths, %d with every local in memory", len(got.Tests), len(want.Tests))
			}
			for i := range got.Tests {
				if !reflect.DeepEqual(got.Tests[i], want.Tests[i]) {
					t.Fatalf("path %d differs:\n promoted %+v\n memory   %+v", i, got.Tests[i], want.Tests[i])
				}
			}
			got.Tests, want.Tests = nil, nil
			if !reflect.DeepEqual(got, want) {
				t.Errorf("counters moved:\n promoted %+v\n memory   %+v", got, want)
			}
		})
	}
	t.Logf("slots total promoted=%d total=%d", promoted, total)
	if *update {
		if len(rows) != len(names) {
			t.Fatalf("-update explored %d of %d targets; run it without -short or -run filters", len(rows), len(names))
		}
		var out strings.Builder
		for _, name := range names {
			out.WriteString(rows[name])
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(witnessGolden, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
