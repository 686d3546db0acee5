package main

import (
	"fmt"
	"math"
	"os"
	"regexp"
	"testing"

	"cloud9/internal/cluster"
)

// TestMain lets the test binary stand in for the bench binary: the
// parent re-executes its own executable for every repetition.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		if err := childMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "bench child:", err)
			os.Exit(1)
		}
		return
	}
	os.Exit(m.Run())
}

// The worker finds these methods on its transport by type assertion; the
// decorator must keep all of them.
var (
	_ cluster.Transport = (*tracedTransport)(nil)
	_ interface {
		WaitForMail()
		LBGen() uint64
		SendToLBAt(cluster.Message, uint64) bool
	} = (*tracedTransport)(nil)
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmallWorkloads runs every workload at its small size through the
// path the ledger takes (parent, child processes, traced and untraced)
// and checks that it emits exactly the metrics BENCHMARK.json declares,
// that it is correct, and that tracing does not change what is explored.
func TestSmallWorkloads(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the harness has %d", len(spec.Workloads), len(workloads))
	}
	p := &parent{exe: exe, spec: spec, small: true} // no budget: one repetition each
	for i, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			if spec.Workloads[i].Name != w.Name {
				t.Errorf("BENCHMARK.json workload %d is %q", i, spec.Workloads[i].Name)
			}
			res, err := p.measure(w, 7, true, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range res.Misses {
				t.Error(m)
			}
			for _, side := range []struct {
				decls    []metricDecl
				measured map[string]sample
			}{{spec.EndToEnd, res.E2E}, {spec.PerLayer, res.Layer}} {
				line, err := res.resultLine(side.decls, side.measured)
				if err != nil {
					t.Fatal(err)
				}
				for name, v := range line.Metrics {
					if !metricName.MatchString(name) {
						t.Errorf("metric name %q", name)
					}
					if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
						t.Errorf("%s = %v", name, v.Value)
					}
				}
			}
			for _, name := range []string{"wall_s", "paths_per_s", "cpu_s", "peak_rss_mb", "alloc_mb", "setup_s"} {
				if res.E2E[name].Value <= 0 {
					t.Errorf("%s = %v, want > 0", name, res.E2E[name].Value)
				}
			}

			// Decorator fidelity: a traced and an untraced repetition of the
			// same seed explore the same thing.
			plain, err := p.spawn(w, 7, false)
			if err != nil {
				t.Fatal(err)
			}
			traced, err := p.spawn(w, 7, true)
			if err != nil {
				t.Fatal(err)
			}
			if w.Plane == "" {
				// One node is deterministic to the instruction and the query.
				if plain.Counts != traced.Counts {
					t.Errorf("traced counts %+v, untraced %+v", traced.Counts, plain.Counts)
				}
				if got, want := traced.Layer["solver.queries"], float64(plain.Queries); got != want {
					t.Errorf("traced solver queries %v, untraced %v", got, want)
				}
				return
			}
			for _, m := range clusterEqualsSingle(traced.Counts, plain.Counts) {
				t.Error("traced against untraced: " + m)
			}
			// An idle worker must block in WaitForMail, not spin: every
			// cluster run starts with one worker waiting for the other's
			// first jobs or grants, for milliseconds at a time.
			var wait spanStat
			for _, st := range traced.Trace.ByName {
				if st.Name == spanNames[spWaitMail] {
					wait = st
				}
			}
			if wait.Count == 0 || wait.TotalS/float64(wait.Count) < 1e-4 {
				t.Errorf("idle worker did not block: %d waits, %v s in all", wait.Count, wait.TotalS)
			}
		})
	}
}

func TestClusterEqualsSingleFires(t *testing.T) {
	single := counts{Paths: 156, Errors: 1, Hangs: 2, Useful: 1000}
	if m := clusterEqualsSingle(single, single); len(m) != 0 {
		t.Fatalf("equal counts: %v", m)
	}
	more := single
	more.Useful++ // redundant exploration is allowed
	if m := clusterEqualsSingle(more, single); len(m) != 0 {
		t.Fatalf("more useful instructions: %v", m)
	}
	for name, perturb := range map[string]func(*counts){
		"paths":  func(c *counts) { c.Paths-- },
		"errors": func(c *counts) { c.Errors++ },
		"hangs":  func(c *counts) { c.Hangs-- },
		"useful": func(c *counts) { c.Useful-- },
	} {
		cl := single
		perturb(&cl)
		if m := clusterEqualsSingle(cl, single); len(m) != 1 {
			t.Errorf("%s perturbed: misses %v", name, m)
		}
	}
}

// TestPinnedCheckFires perturbs a repetition's counts and expects the
// pin check to count the difference as failed work.
func TestPinnedCheckFires(t *testing.T) {
	w, _ := workloadByName("wc-cluster-p2p")
	good := &childOut{Counts: w.Small}
	r := &workloadResults{}
	r.check(w, true, good)
	if len(r.Misses) != 0 || r.Failed != 0 || r.Attempted != w.Small.Paths {
		t.Fatalf("clean repetition: %+v", r)
	}
	bad := &childOut{Counts: w.Small, LBPayload: 12}
	bad.Counts.Paths -= 3
	r = &workloadResults{}
	r.check(w, true, bad)
	if len(r.Misses) != 2 || r.Failed != 3 {
		t.Fatalf("perturbed repetition: %+v", r)
	}
}

// TestQuartiles pins the spread rule to Python's
// statistics.quantiles(values, n=4).
func TestQuartiles(t *testing.T) {
	got := quartiles([]float64{9, 1, 4, 7, 3, 10, 2, 8, 6, 5})
	want := [3]float64{2.75, 5.5, 8.25}
	if got != want {
		t.Fatalf("quartiles = %v, want %v", got, want)
	}
	got = quartiles([]float64{1.5, 2.5, 4, 8, 16})
	want = [3]float64{2, 4, 12}
	if got != want {
		t.Fatalf("quartiles = %v, want %v", got, want)
	}
}
