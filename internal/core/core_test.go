package core

import (
	"testing"
	"time"

	"cloud9/internal/state"
)

const buggy = `
int parse(char *b) {
	if (b[0] == 'X' && b[1] == 'Y') abort();
	return 0;
}
int main() {
	char b[2];
	cloud9_make_symbolic(b, 2, "in");
	return parse(b);
}`

func TestSingleNodeFindsBug(t *testing.T) {
	rep, err := Test("buggy.c", buggy, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Exhausted {
		t.Fatal("should exhaust the space")
	}
	if rep.Errors != 1 {
		t.Fatalf("errors = %d", rep.Errors)
	}
	bugs := rep.Bugs()
	if len(bugs) != 1 {
		t.Fatalf("bugs = %d", len(bugs))
	}
	if in := bugs[0].Inputs["in"]; len(in) != 2 || in[0] != 'X' || in[1] != 'Y' {
		t.Fatalf("witness = %v", bugs[0].Inputs)
	}
	if rep.CoverableLines == 0 || rep.CoveredLines == 0 {
		t.Fatal("coverage accounting empty")
	}
}

func TestAllStrategiesAgreeOnPathCount(t *testing.T) {
	var counts []uint64
	// "" is the engine default; any internal/search spec is accepted.
	for _, s := range []StrategyName{"", StrategyDFS, StrategyBFS, StrategyRandom,
		StrategyRandomPath, StrategyCoverage, StrategyInterleaved, StrategyDistance,
		StrategyFewestFaults, "cupa(site,dfs)", "dist-opt(w=1:0.5:0:0.25)"} {
		rep, err := Test("buggy.c", buggy, Options{Strategy: s})
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		counts = append(counts, rep.Paths)
	}
	for _, c := range counts {
		if c != counts[0] {
			t.Fatalf("exhaustive path counts differ across strategies: %v", counts)
		}
	}
}

func TestMaxPathsStopsEarly(t *testing.T) {
	rep, err := Test("buggy.c", buggy, Options{MaxPaths: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Paths != 1 || rep.Exhausted {
		t.Fatalf("paths=%d exhausted=%v", rep.Paths, rep.Exhausted)
	}
}

func TestClusterMatchesSingleNode(t *testing.T) {
	single, err := Test("buggy.c", buggy, Options{})
	if err != nil {
		t.Fatal(err)
	}
	clustered, err := TestCluster("buggy.c", buggy, ClusterOptions{
		Workers: 3,
		Options: Options{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !clustered.Exhausted {
		t.Fatal("cluster should exhaust")
	}
	if clustered.Paths != single.Paths {
		t.Fatalf("cluster %d paths vs single %d (must be disjoint and complete)",
			clustered.Paths, single.Paths)
	}
	if clustered.Errors != 1 {
		t.Fatalf("cluster errors = %d", clustered.Errors)
	}
}

func TestHostFSVisible(t *testing.T) {
	rep, err := Test("fs.c", `
		int main() {
			int fd = open("/etc/passwd", O_RDONLY);
			if (fd < 0) abort();
			char b[4];
			if (read(fd, b, 4) != 4) abort();
			if (b[0] != 'r') abort();
			return 0;
		}`, Options{HostFS: map[string][]byte{"/etc/passwd": []byte("root:x")}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Fatalf("host FS not visible: %d errors", rep.Errors)
	}
}

func TestCompileErrorSurfaces(t *testing.T) {
	if _, err := Test("bad.c", "int main( {", Options{}); err == nil {
		t.Fatal("compile error should surface")
	}
}

func TestClusterTimeBound(t *testing.T) {
	// A large space with a tight duration must stop by the bound.
	big := `
	int main() {
		char b[12];
		cloud9_make_symbolic(b, 12, "in");
		int i;
		int n = 0;
		for (i = 0; i < 12; i++) if (b[i] > 100) n++;
		return n;
	}`
	start := time.Now()
	rep, err := TestCluster("big.c", big, ClusterOptions{
		Workers:     2,
		MaxDuration: 300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if time.Since(start) > 20*time.Second {
		t.Fatal("duration bound ignored")
	}
	if rep.Paths == 0 {
		t.Fatal("no progress within bound")
	}
}

func TestFewestFaultsStrategyRuns(t *testing.T) {
	rep, err := Test("fi.c", `
		int main() {
			int fds[2];
			pipe(fds);
			cloud9_fi_enable();
			ioctl(fds[1], SIO_FAULT_INJ, 1);
			int i;
			for (i = 0; i < 3; i++) __px_write_try(fds[1], "x", 1);
			return 0;
		}`, Options{Strategy: StrategyFewestFaults, RecordAllTests: true})
	if err != nil {
		t.Fatal(err)
	}
	// 3 independent injection points: 8 paths.
	if rep.Paths != 8 {
		t.Fatalf("paths = %d, want 8", rep.Paths)
	}
	byFaults := map[int]int{}
	for _, tc := range rep.Tests {
		byFaults[tc.Faults]++
	}
	if byFaults[0] != 1 || byFaults[1] != 3 || byFaults[2] != 3 || byFaults[3] != 1 {
		t.Fatalf("fault depth distribution %v", byFaults)
	}
	_ = state.TermError
}

// TestUnknownStrategyIsAnError: a misspelt or malformed spec must fail
// the run, single-node and cluster alike (it used to fall through to
// the engine default silently).
func TestUnknownStrategyIsAnError(t *testing.T) {
	for _, spec := range []StrategyName{"dsf", "cupa(site,dfs"} {
		if _, err := Test("buggy.c", buggy, Options{Strategy: spec}); err == nil {
			t.Errorf("Test with strategy %q should fail", spec)
		}
		if _, err := TestCluster("buggy.c", buggy, ClusterOptions{
			Workers: 2, Options: Options{Strategy: spec},
		}); err == nil {
			t.Errorf("TestCluster with strategy %q should fail", spec)
		}
	}
}
