package cluster

import (
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"cloud9/internal/engine"
	"cloud9/internal/interp"
	"cloud9/internal/posix"
	"cloud9/internal/targets"
)

func TestMemcachedClusterPathDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("long determinism check")
	}
	factory := func() (*interp.Interp, error) {
		prog, err := posix.CompileTarget("mc.c", targets.Memcached(targets.MCDriverTwoSymbolicPackets).Source)
		if err != nil {
			return nil, err
		}
		in := interp.New(prog)
		posix.Install(in, posix.Options{})
		return in, nil
	}
	counts := map[uint64]bool{}
	for _, w := range []int{1, 4} {
		res, err := Run(Config{
			Workers: w, Entry: "main", NewInterp: factory,
			Engine:      engine.Config{MaxStateSteps: 2_000_000},
			MaxDuration: 5 * time.Minute,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Exhausted {
			t.Fatalf("%d workers: not exhausted", w)
		}
		t.Logf("%d workers: %d paths", w, res.Final.Paths)
		counts[res.Final.Paths] = true
	}
	if len(counts) != 1 {
		t.Fatalf("path counts differ across cluster sizes: %v", counts)
	}
}

// TestSimSelectionPinned runs printf on a 3-worker lock-step sim — the
// engine default (random-path ⊕ cov-opt) on every worker, worker 1
// hot-swapped to bare cov-opt mid-run — and compares the final tick
// count and per-worker path counts with testdata/sim_swap.golden.
// Which worker explores which path depends on every selection, so the
// file pins what exactness totals cannot: cov-opt's global-coverage
// decay and the SetStrategy re-seed, draw for draw.
func TestSimSelectionPinned(t *testing.T) {
	tgt, ok := targets.ByName("printf")
	if !ok {
		t.Fatal("no printf target")
	}
	res, err := RunSim(SimConfig{
		Workers:   3,
		Entry:     "main",
		NewInterp: targets.Factory(tgt),
		Engine:    engine.Config{MaxStateSteps: 1_000_000},
		Quantum:   1000,
		Swaps:     []SimSwap{{Tick: 40, Worker: 1, Spec: "cov-opt"}},
		MaxTicks:  100_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exhausted || res.Final.Paths != 2136 {
		t.Fatalf("exhausted=%v paths=%d, want the pinned 2136", res.Exhausted, res.Final.Paths)
	}
	var got strings.Builder
	fmt.Fprintf(&got, "ticks=%d\n", res.Ticks)
	for _, w := range res.Workers {
		fmt.Fprintf(&got, "worker=%d\tspec=%s\tpaths=%d\n", w.ID, w.Spec(), w.Exp.Stats.PathsExplored)
	}
	want, err := os.ReadFile("testdata/sim_swap.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("sim selection moved.\n--- got\n%s--- want\n%s", got.String(), want)
	}
}
