// Command bench is the repository's performance ledger: six sized
// workloads, each built to put one layer to work and leave another
// idle, measured end to end with tracing off and layer by layer with
// tracing on. Every number is taken from outside the program, by timing
// calls into the layers' public functions and reading their public
// counters; nothing under internal/ or cmd/ knows it is being measured.
//
// Each repetition of a workload runs in a child process that has run
// nothing else, because the expression intern table and the solver's
// caches live as long as the process: a second run in the same process
// would measure a warm, different program.
//
// Usage, from the repository root:
//
//	go run ./bench                                   the whole ledger
//	go run ./bench -workload wc-dfs -seed 3 -trace 0 one workload, as BENCHMARK.json's command
//	go run ./bench -aa                               does the benchmark agree with itself?
//
// README.md in this directory has the workloads and the reasons for
// them, the metric glossary and how to read a trace summary.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		if err := childMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "bench child:", err)
			os.Exit(1)
		}
		return
	}
	if err := parentMain(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// resultsDir is where the ledger and the trace summaries are written.
const resultsDir = "bench/results"

// result is the last line of a one-workload run, in the shape
// BENCHMARK.json's contract fixes.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// machine records where a ledger was measured.
type machine struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"child_gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
}

func thisMachine() machine {
	m := machine{NProc: runtime.NumCPU(), GOMAXPROCS: workers, GoVersion: runtime.Version(), CPUModel: "unknown"}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return m
}

// ledger is what a whole run writes to results/latest.json.
type ledger struct {
	Machine   machine            `json:"machine"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds_per_workload"`
	Workloads []*workloadResults `json:"workloads"`
}

func parentMain() error {
	name := flag.String("workload", "", "run this workload alone and end with one line of JSON (default: the whole ledger)")
	seed := flag.Int64("seed", 1, "strategy seed handed to search.Build; path sets do not depend on it")
	secs := flag.Float64("seconds", -1, "time to measure one workload for (default: BENCHMARK.json's run_seconds; 0: one repetition)")
	trace := flag.Int("trace", 0, "with -workload: 0 ends with the end-to-end metrics, 1 with the per-layer metrics")
	small := flag.Bool("small", false, "run the test suite's sizes")
	aa := flag.Bool("aa", false, "measure every workload in two sets of ten seeds and hold spread and drift to the bounds")
	flag.Parse()

	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	if *secs < 0 {
		*secs = float64(spec.RunSeconds)
	}
	p := &parent{exe: exe, spec: spec, small: *small, budget: time.Duration(*secs * float64(time.Second))}

	switch {
	case *aa:
		return p.runAA()
	case *name != "":
		w, ok := workloadByName(*name)
		if !ok {
			return fmt.Errorf("unknown workload %q", *name)
		}
		res, err := p.measure(w, *seed, *trace == 1, nil)
		if err != nil {
			return err
		}
		res.print(spec)
		decls, metrics := spec.EndToEnd, res.E2E
		if *trace == 1 {
			decls, metrics = spec.PerLayer, res.Layer
		}
		line, err := res.resultLine(decls, metrics)
		if err != nil {
			return err
		}
		if err := json.NewEncoder(os.Stdout).Encode(line); err != nil {
			return err
		}
		if !line.Correct {
			return fmt.Errorf("%s: %s", w.Name, strings.Join(res.Misses, "; "))
		}
		return nil
	default:
		return p.runLedger(*seed, *secs)
	}
}

// runLedger measures every workload, traced and untraced, prints every
// metric and writes the ledger and the trace summaries.
func (p *parent) runLedger(seed int64, secs float64) error {
	led := ledger{Machine: thisMachine(), Seed: seed, Seconds: secs}
	var single *workloadResults
	var misses []string
	for _, w := range workloads {
		res, err := p.measure(w, seed, true, single)
		if err != nil {
			return err
		}
		if w.Name == singleNodeOf {
			single = res
		}
		res.print(p.spec)
		for _, m := range res.Misses {
			misses = append(misses, w.Name+": "+m)
		}
		led.Workloads = append(led.Workloads, res)
		if err := writeJSON(filepath.Join(resultsDir, "trace-"+w.Name+".json"), res.trace); err != nil {
			return err
		}
	}
	if err := writeJSON(filepath.Join(resultsDir, "latest.json"), led); err != nil {
		return err
	}
	if len(misses) > 0 {
		return fmt.Errorf("incorrect:\n  %s", strings.Join(misses, "\n  "))
	}
	fmt.Println("all workloads correct")
	return nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
