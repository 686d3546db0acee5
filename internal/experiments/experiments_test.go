package experiments

import (
	"strconv"
	"strings"
	"testing"
)

// The experiment tests run scaled-down versions and assert the paper's
// qualitative shapes, not absolute numbers.

func TestFig7ScalingShape(t *testing.T) {
	tbl, err := Fig7([]int{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	ticks1, _ := strconv.Atoi(tbl.Rows[0][1])
	ticks4, _ := strconv.Atoi(tbl.Rows[1][1])
	if ticks4 >= ticks1 {
		t.Fatalf("4 workers (%d ticks) should beat 1 worker (%d ticks)", ticks4, ticks1)
	}
	// Ideal is 4x; require at least 1.8x to confirm the shape.
	if float64(ticks1)/float64(ticks4) < 1.8 {
		t.Errorf("speedup %d/%d too small", ticks1, ticks4)
	}
	// Path totals must agree: disjoint + complete regardless of workers.
	if tbl.Rows[0][2] != tbl.Rows[1][2] {
		t.Errorf("path counts differ across cluster sizes: %v vs %v",
			tbl.Rows[0][2], tbl.Rows[1][2])
	}
}

func TestFig9WorkScalesLinearly(t *testing.T) {
	tbl, err := Fig9([]int{1, 4}, []int{12})
	if err != nil {
		t.Fatal(err)
	}
	w1, _ := strconv.ParseFloat(tbl.Rows[0][2], 64)
	w4, _ := strconv.ParseFloat(tbl.Rows[1][2], 64)
	if w4 < 2*w1 {
		t.Errorf("useful work should grow with workers: 1w=%v 4w=%v", w1, w4)
	}
	// Per-worker work roughly flat (within 2.5x).
	p1, _ := strconv.ParseFloat(tbl.Rows[0][3], 64)
	p4, _ := strconv.ParseFloat(tbl.Rows[1][3], 64)
	if p4 < p1/2.5 || p4 > p1*2.5 {
		t.Errorf("per-worker work not flat: 1w=%v 4w=%v", p1, p4)
	}
}

func TestFig13LBAblationShape(t *testing.T) {
	tbl, err := Fig13(4, 24)
	if err != nil {
		t.Fatal(err)
	}
	// Continuous balancing (row 0) must beat disabling at tick 1 (last row).
	first, _ := strconv.ParseFloat(tbl.Rows[0][1], 64)
	last, _ := strconv.ParseFloat(tbl.Rows[len(tbl.Rows)-1][1], 64)
	if last >= first {
		t.Errorf("disabling LB at tick 1 (%v) should hurt vs continuous (%v)", last, first)
	}
}

func TestTable6MatchesPaper(t *testing.T) {
	tbl, err := Table6()
	if err != nil {
		t.Fatal(err)
	}
	want := [][]string{
		{"1x28", "OK", "OK"},
		{"1x26 + 1x2", "crash + hang", "OK"},
		{"2+5+1+5+2x1+3x2+5+2x1", "crash + hang", "crash + hang"},
	}
	for i, w := range want {
		for j := range w {
			if tbl.Rows[i][j] != w[j] {
				t.Errorf("row %d col %d = %q, want %q", i, j, tbl.Rows[i][j], w[j])
			}
		}
	}
}

func TestTable5SymbolicMethodsMultiplyPaths(t *testing.T) {
	tbl, err := Table5()
	if err != nil {
		t.Fatal(err)
	}
	suitePaths, _ := strconv.Atoi(tbl.Rows[0][1])
	symPaths, _ := strconv.Atoi(tbl.Rows[2][1])
	fiPaths, _ := strconv.Atoi(tbl.Rows[3][1])
	if symPaths <= 10*suitePaths {
		t.Errorf("symbolic packets should multiply paths: %d vs %d", symPaths, suitePaths)
	}
	if fiPaths <= suitePaths {
		t.Errorf("fault injection should add paths: %d vs %d", fiPaths, suitePaths)
	}
	// Cumulated coverage must never drop below the suite's own.
	for _, row := range tbl.Rows {
		iso := parsePct(t, row[2])
		cum := parsePct(t, row[3])
		if cum+0.01 < iso && row[0] == "entire test suite" {
			t.Errorf("%s: cumulative %v < isolated %v", row[0], cum, iso)
		}
	}
}

func TestCaseStudiesAllReproduce(t *testing.T) {
	tbl, err := CaseStudies()
	if err != nil {
		t.Fatal(err)
	}
	wantVerdicts := map[string]string{
		"curl unmatched-brace glob":   "crash found",
		"memcached UDP reassembly":    "hang found",
		"bandicoot OOB read":          "OOB found",
		"lighttpd patch verification": "v1.4.13 fix proven incomplete; full fix clean",
	}
	for _, row := range tbl.Rows {
		if want, ok := wantVerdicts[row[0]]; ok && row[1] != want {
			t.Errorf("%s: verdict %q, want %q", row[0], row[1], want)
		}
	}
}

func TestFig11ClusterImprovesCoverage(t *testing.T) {
	tbl, err := Fig11(4, 12)
	if err != nil {
		t.Fatal(err)
	}
	// Paper shape (Fig. 11): most utilities gain little (baseline already
	// near-saturated), a few gain tens of percentage points, and the
	// average gain is positive.
	improved := 0
	var total float64
	maxGain := 0.0
	for _, row := range tbl.Rows {
		add, _ := strconv.ParseFloat(strings.TrimPrefix(row[3], "+"), 64)
		total += add
		if add > 0.5 {
			improved++
		}
		if add > maxGain {
			maxGain = add
		}
	}
	if improved < 2 {
		t.Errorf("only %d utilities improved with the cluster", improved)
	}
	if maxGain < 20 {
		t.Errorf("largest gain %.1fpp; expected tens of points somewhere", maxGain)
	}
	if total <= 0 {
		t.Errorf("average gain not positive (total %.1f)", total)
	}
}

// TestPortfolioDiversityBeatsHomogeneous asserts the tentpole claim:
// a mixed strategy portfolio (cupa + cov-opt + random-path + dfs)
// reaches the target's final coverage in fewer virtual-time ticks than
// a homogeneous 4×DFS cluster on at least one target. The sim is
// deterministic, so this is a stable regression bar, not a flaky race.
func TestPortfolioDiversityBeatsHomogeneous(t *testing.T) {
	tbl, err := PortfolioDiversity(4)
	if err != nil {
		t.Fatal(err)
	}
	wins := 0
	for _, row := range tbl.Rows {
		dfsTicks, _ := strconv.Atoi(row[2])
		mixTicks, _ := strconv.Atoi(row[3])
		if dfsTicks <= 0 || mixTicks <= 0 {
			t.Fatalf("bad row %v", row)
		}
		if mixTicks < dfsTicks {
			wins++
		}
	}
	if wins == 0 {
		t.Fatalf("mixed portfolio never beat homogeneous DFS:\n%s", tbl.Format())
	}
}

func TestTableFormat(t *testing.T) {
	tbl := &Table{
		ID: "X", Title: "demo",
		Header: []string{"a", "bbb"},
		Rows:   [][]string{{"1", "2"}},
		Notes:  []string{"n"},
	}
	s := tbl.Format()
	for _, want := range []string{"X", "demo", "bbb", "note: n"} {
		if !strings.Contains(s, want) {
			t.Errorf("format missing %q:\n%s", want, s)
		}
	}
}

func parsePct(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	if err != nil {
		t.Fatalf("bad pct %q", s)
	}
	return v
}

// TestDistDirectedBeatsBaselines asserts the PR-5 acceptance shape: a
// static-distance strategy (dist-opt or cupa(dist,dfs)) reaches the
// fixed coverage target on memcached in strictly fewer ticks than both
// the dfs and cov-opt baselines. The lock-step sim is deterministic, so
// these tick counts are stable across machines; drift means the search
// or engine layer changed behavior. printf must show the same shape —
// its deep forking tree is where distance direction pays off most.
func TestDistDirectedBeatsBaselines(t *testing.T) {
	tbl, err := DistanceDirected(4)
	if err != nil {
		t.Fatal(err)
	}
	// Header: target, final cov, dfs, cov-opt, dist-opt, cupa(dist,dfs), winner.
	ticksOf := func(row []string, col int) int {
		v, err := strconv.Atoi(row[col])
		if err != nil {
			t.Fatalf("bad tick cell %q: %v", row[col], err)
		}
		return v
	}
	checked := 0
	for _, row := range tbl.Rows {
		if !strings.HasPrefix(row[0], "memcached") && row[0] != "printf" {
			continue
		}
		checked++
		dfs, cov := ticksOf(row, 2), ticksOf(row, 3)
		distOpt, cupaDist := ticksOf(row, 4), ticksOf(row, 5)
		bestDist := distOpt
		if cupaDist < bestDist {
			bestDist = cupaDist
		}
		if bestDist >= dfs || bestDist >= cov {
			t.Errorf("%s: best dist strategy %d ticks, dfs %d, cov-opt %d — distance direction must win",
				row[0], bestDist, dfs, cov)
		}
	}
	if checked != 2 {
		t.Fatalf("expected memcached and printf rows, found %d", checked)
	}
}
