package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"time"
)

// benchSpec is BENCHMARK.json: the names, units and bounds live there
// and nowhere else.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []metricDecl `json:"end_to_end"`
	PerLayer   []metricDecl `json:"per_layer"`
}

type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	spec := &benchSpec{}
	if err := json.Unmarshal(b, spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return spec, nil
}

// parent measures workloads by running children of its own executable.
type parent struct {
	exe    string
	spec   *benchSpec
	small  bool
	budget time.Duration // per workload
}

// sample is one metric over a workload's repetitions. Value is the
// figure reported for it: the median, unless the metric is a time.
type sample struct {
	Value  float64 `json:"value"`
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
}

func sampleOf(vs []float64) sample {
	m := quartiles(vs)[1]
	return sample{Value: m, Median: m, Min: slices.Min(vs), Max: slices.Max(vs), N: len(vs)}
}

// fastest reports a time by its fastest repetition, and a rate by its
// highest. The explorations are deterministic and CPU-bound, so what
// varies between repetitions is interference from outside the process,
// and interference only adds time. It comes in bursts of a minute or
// two: on the 2-core VM this was written on, over nine minutes of
// identical repetitions the median of consecutive groups spread two to
// three times as far as their minimum. A cluster run's schedule varies
// of itself as well, but by a few per cent, which is less than a burst.
func (s sample) fastest(higherIsBetter bool) sample {
	s.Value = s.Min
	if higherIsBetter {
		s.Value = s.Max
	}
	return s
}

// workloadResults is one workload's row of the ledger.
type workloadResults struct {
	Workload string            `json:"workload"`
	Size     string            `json:"size"`
	Spec     string            `json:"spec"`
	Plane    string            `json:"data_plane,omitempty"`
	Counts   counts            `json:"counts"`
	E2E      map[string]sample `json:"end_to_end"`
	Layer    map[string]sample `json:"per_layer,omitempty"`
	// Attempted counts the states the repetitions brought to an end, one
	// way or another; Failed counts those that ended otherwise than the
	// pinned counts say.
	Attempted uint64   `json:"attempted"`
	Failed    uint64   `json:"failed"`
	Misses    []string `json:"misses,omitempty"`

	trace *traceSummary // of the last traced repetition
}

// spawn runs one repetition in a fresh process.
func (p *parent) spawn(w workload, seed int64, traced bool) (*childOut, error) {
	args := []string{"-child", "-workload", w.Name, "-seed", strconv.FormatInt(seed, 10)}
	if p.small {
		args = append(args, "-small")
	}
	if traced {
		args = append(args, "-traced")
	}
	cmd := exec.Command(p.exe, args...)
	cmd.Stderr = os.Stderr
	started := time.Now()
	b, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s: child: %w", w.Name, err)
	}
	out := &childOut{}
	if err := json.Unmarshal(b, out); err != nil {
		return nil, fmt.Errorf("%s: child output: %w", w.Name, err)
	}
	out.SetupS = float64(out.StartNs-started.UnixNano()) / 1e9
	return out, nil
}

// reps repeats the workload until another repetition would overrun the
// budget; there is always one.
func (p *parent) reps(w workload, seed int64, traced bool, budget time.Duration) ([]*childOut, error) {
	var outs []*childOut
	start := time.Now()
	for {
		out, err := p.spawn(w, seed, traced)
		if err != nil {
			return nil, err
		}
		outs = append(outs, out)
		spent := time.Since(start)
		if spent+spent/time.Duration(len(outs)) > budget {
			return outs, nil
		}
	}
}

// untraced gives a workload's end-to-end metrics: tracing off, medians
// over the repetitions.
func (p *parent) untraced(w workload, seed int64, budget time.Duration) (*workloadResults, error) {
	outs, err := p.reps(w, seed, false, budget)
	if err != nil {
		return nil, err
	}
	res := &workloadResults{
		Workload: w.Name, Size: w.Size, Spec: w.Spec, Plane: w.Plane,
		Counts: outs[0].Counts, E2E: map[string]sample{},
	}
	for _, out := range outs {
		res.check(w, p.small, out)
	}
	res.E2E["wall_s"] = over(outs, wallOf).fastest(false)
	res.E2E["paths_per_s"] = over(outs, func(o *childOut) float64 { return float64(o.Counts.Paths) / o.WallS }).fastest(true)
	res.E2E["cpu_s"] = over(outs, func(o *childOut) float64 { return o.CPUS }).fastest(false)
	res.E2E["peak_rss_mb"] = over(outs, func(o *childOut) float64 { return o.PeakRSSMB })
	res.E2E["alloc_mb"] = over(outs, func(o *childOut) float64 { return o.AllocMB })
	res.E2E["setup_s"] = over(outs, func(o *childOut) float64 { return o.SetupS }).fastest(false)
	return res, nil
}

func wallOf(o *childOut) float64 { return o.WallS }

func over(outs []*childOut, f func(*childOut) float64) sample {
	vs := make([]float64, len(outs))
	for i, o := range outs {
		vs[i] = f(o)
	}
	return sampleOf(vs)
}

// measure runs one workload for the parent's budget. Traced, it spends
// half on untraced repetitions and half on traced ones, which give the
// per-layer metrics. single is the single-node workload's row, if it
// has been measured already; a cluster workload is compared with it.
func (p *parent) measure(w workload, seed int64, traced bool, single *workloadResults) (*workloadResults, error) {
	if !traced {
		return p.untraced(w, seed, p.budget)
	}
	res, err := p.untraced(w, seed, p.budget/2)
	if err != nil {
		return nil, err
	}
	outs, err := p.reps(w, seed, true, p.budget/2)
	if err != nil {
		return nil, err
	}
	res.Layer = map[string]sample{}
	for _, out := range outs {
		res.check(w, p.small, out)
	}
	for name := range outs[0].Layer {
		res.Layer[name] = over(outs, func(o *childOut) float64 { return o.Layer[name] })
	}
	res.trace = outs[len(outs)-1].Trace
	res.Layer["trace.overhead_frac"] = one(over(outs, wallOf).fastest(false).Value/res.E2E["wall_s"].Value - 1)

	res.Layer["cluster.speedup"], res.Layer["cluster.cpu_overhead"] = one(0), one(0)
	if w.Plane != "" {
		if single == nil {
			sw, _ := workloadByName(singleNodeOf)
			if single, err = p.untraced(sw, seed, 0); err != nil {
				return nil, err
			}
			res.Misses = append(res.Misses, single.Misses...)
		}
		res.Misses = append(res.Misses, clusterEqualsSingle(res.Counts, single.Counts)...)
		res.Layer["cluster.speedup"] = one(single.E2E["wall_s"].Value / res.E2E["wall_s"].Value)
		res.Layer["cluster.cpu_overhead"] = one(res.E2E["cpu_s"].Value / single.E2E["cpu_s"].Value)
	}
	return res, nil
}

// one is a metric derived once, from other metrics' reported values.
func one(v float64) sample { return sampleOf([]float64{v}) }

// check holds one repetition to the workload's pinned counts.
func (r *workloadResults) check(w workload, small bool, out *childOut) {
	pin, c := w.pins(small), out.Counts
	useful := pin.Useful
	if w.Plane != "" && c.Useful > pin.Useful {
		// Workers of a cluster may explore a node more than once between
		// them, never less.
		useful = c.Useful
	}
	for _, f := range []struct {
		what      string
		got, want uint64
	}{
		{"paths", c.Paths, pin.Paths},
		{"errors", c.Errors, pin.Errors},
		{"hangs", c.Hangs, pin.Hangs},
		{"covered lines", uint64(c.Cov), uint64(pin.Cov)},
		{"budget kills", c.Kills, pin.Kills},
		{"useful instructions", c.Useful, useful},
		{"broken replays", out.Broken, 0},
		{"c9_lb_payload_bytes_total", out.LBPayload, 0},
	} {
		if f.got != f.want {
			r.Misses = append(r.Misses, fmt.Sprintf("%s = %d, pinned %d", f.what, f.got, f.want))
		}
	}
	r.Attempted += c.Paths + c.Kills + out.Broken
	r.Failed += out.Broken + absDiff(c.Paths, pin.Paths) + absDiff(c.Kills, pin.Kills)
}

// clusterEqualsSingle is the paper's invariant, checked between two
// workloads that were run, not against a pin: any number of workers
// finds the paths one node finds, by executing at least its instructions.
func clusterEqualsSingle(cl, single counts) []string {
	var misses []string
	for _, f := range []struct {
		what      string
		got, want uint64
	}{
		{"paths", cl.Paths, single.Paths},
		{"errors", cl.Errors, single.Errors},
		{"hangs", cl.Hangs, single.Hangs},
		{"useful instructions", min(cl.Useful, single.Useful), single.Useful},
	} {
		if f.got != f.want {
			misses = append(misses, fmt.Sprintf("cluster %s = %d, %s found %d", f.what, f.got, singleNodeOf, f.want))
		}
	}
	return misses
}

// resultLine renders the metrics BENCHMARK.json declares, and insists
// that they are the metrics measured: no more, no fewer.
func (r *workloadResults) resultLine(decls []metricDecl, measured map[string]sample) (*result, error) {
	line := &result{
		Correct: len(r.Misses) == 0, Attempted: r.Attempted, Failed: r.Failed,
		Metrics: map[string]metricValue{},
	}
	for _, d := range decls {
		s, ok := measured[d.Name]
		if !ok {
			return nil, fmt.Errorf("BENCHMARK.json declares %s, which %s did not measure", d.Name, r.Workload)
		}
		if math.IsNaN(s.Value) || math.IsInf(s.Value, 0) {
			return nil, fmt.Errorf("%s: %s = %v", r.Workload, d.Name, s.Value)
		}
		line.Metrics[d.Name] = metricValue{Value: s.Value, Unit: d.Unit}
	}
	for name := range measured {
		if _, ok := line.Metrics[name]; !ok {
			return nil, fmt.Errorf("%s measured %s, which BENCHMARK.json does not declare", r.Workload, name)
		}
	}
	return line, nil
}

// print lists every metric by name with its unit.
func (r *workloadResults) print(spec *benchSpec) {
	fmt.Printf("== %s  (%s, spec %s", r.Workload, r.Size, r.Spec)
	if r.Plane != "" {
		fmt.Printf(", %d workers over loopback TCP, data plane %s", workers, r.Plane)
	}
	fmt.Printf(")\n   paths %d  errors %d  hangs %d  covered lines %d  useful instructions %d  budget kills %d\n",
		r.Counts.Paths, r.Counts.Errors, r.Counts.Hangs, r.Counts.Cov, r.Counts.Useful, r.Counts.Kills)
	rows := func(decls []metricDecl, measured map[string]sample) {
		for _, d := range decls {
			if s, ok := measured[d.Name]; ok {
				fmt.Printf("   %-30s %-6s %-14.6g median %-14.6g min %-14.6g max %-14.6g n=%d\n",
					d.Name, d.Unit, s.Value, s.Median, s.Min, s.Max, s.N)
			}
		}
	}
	rows(spec.EndToEnd, r.E2E)
	rows(spec.PerLayer, r.Layer)
	for _, m := range r.Misses {
		fmt.Printf("   INCORRECT: %s\n", m)
	}
}

// quartiles are Python's statistics.quantiles(vs, n=4), the rule the
// benchmark's spread is judged by.
func quartiles(vs []float64) (q [3]float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	for i := 1; i <= 3; i++ {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}

// aaRuns is the number of one-workload runs, each with its own seed, in
// one of -aa's two sets.
const aaRuns = 10

// aaRow is one workload × end-to-end metric of the A/A report.
type aaRow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Bound    float64 `json:"bound"`
	// Medians and Spreads are per set; a spread is the distance between
	// the set's quartiles as a share of its median.
	Medians [2]float64 `json:"medians"`
	Spreads [2]float64 `json:"spreads"`
	// Drift is how much worse the second set's median is than the
	// first's, as a share of the first; negative when it is better.
	Drift float64 `json:"drift"`
	OK    bool    `json:"ok"`
}

// runAA runs the benchmark against itself: two sets of aaRuns runs per
// workload, every run with another seed. Within a set, each metric's
// spread must stay inside its bound (setup_s excepted, as in the
// contract); between the sets, no median may worsen by more than it.
func (p *parent) runAA() error {
	var rows []aaRow
	breaches := 0
	for _, w := range workloads {
		var sets [2]map[string][]float64
		for set := range sets {
			sets[set] = map[string][]float64{}
			for i := 0; i < aaRuns; i++ {
				res, err := p.untraced(w, int64(set*aaRuns+i+1), p.budget)
				if err != nil {
					return err
				}
				if len(res.Misses) > 0 {
					return fmt.Errorf("%s: %v", w.Name, res.Misses)
				}
				for name, s := range res.E2E {
					sets[set][name] = append(sets[set][name], s.Value)
				}
			}
		}
		for _, d := range p.spec.EndToEnd {
			row := aaRow{Workload: w.Name, Metric: d.Name, Bound: d.Bound, OK: true}
			for set := range sets {
				q := quartiles(sets[set][d.Name])
				row.Medians[set] = q[1]
				row.Spreads[set] = (q[2] - q[0]) / q[1]
				if d.Name != "setup_s" && row.Spreads[set] > d.Bound {
					row.OK = false
				}
			}
			row.Drift = (row.Medians[1] - row.Medians[0]) / row.Medians[0]
			if d.Better == "higher" {
				row.Drift = -row.Drift
			}
			if row.Drift > d.Bound {
				row.OK = false
			}
			verdict := "ok"
			if !row.OK {
				verdict = "BREACH"
				breaches++
			}
			fmt.Printf("%-18s %-12s medians %-12.6g %-12.6g spreads %.4f %.4f drift %+.4f bound %.2f %s\n",
				w.Name, d.Name, row.Medians[0], row.Medians[1], row.Spreads[0], row.Spreads[1], row.Drift, d.Bound, verdict)
			rows = append(rows, row)
		}
	}
	report := struct {
		Machine machine `json:"machine"`
		Runs    int     `json:"runs_per_set"`
		Seconds float64 `json:"seconds_per_run"`
		Rows    []aaRow `json:"rows"`
	}{thisMachine(), aaRuns, p.budget.Seconds(), rows}
	if err := writeJSON(filepath.Join(resultsDir, "aa.json"), report); err != nil {
		return err
	}
	if breaches > 0 {
		return fmt.Errorf("%d metric(s) outside their bounds", breaches)
	}
	return nil
}
