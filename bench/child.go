package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"cloud9/internal/cfg"
	"cloud9/internal/cluster"
	"cloud9/internal/coverage"
	"cloud9/internal/cvm"
	"cloud9/internal/engine"
	"cloud9/internal/interp"
	"cloud9/internal/obs"
	"cloud9/internal/posix"
	"cloud9/internal/search"
	"cloud9/internal/tree"
)

// workers is the number of cluster workers, and the child's GOMAXPROCS.
// It is fixed, not taken from the machine, so that a run loads two
// cores wherever it runs.
const workers = 2

// childOut is the one line of JSON a child prints: one workload, run
// once, in a process that has run nothing else.
type childOut struct {
	Workload string `json:"workload"`
	Traced   bool   `json:"traced"`
	// StartNs is the wall-clock time at which the timed interval began.
	// The parent subtracts the time at which it started the child, so
	// setup_s covers the process's start as well as its set-up calls.
	StartNs int64 `json:"start_unix_ns"`
	// SetupS is that difference; the parent fills it in.
	SetupS    float64 `json:"setup_s,omitempty"`
	WallS     float64 `json:"wall_s"`
	CPUS      float64 `json:"cpu_s"`
	AllocMB   float64 `json:"alloc_mb"`
	PeakRSSMB float64 `json:"peak_rss_mb"`
	Counts    counts  `json:"counts"`
	Broken    uint64  `json:"broken_replays"`
	Queries   uint64  `json:"solver_queries"`
	// LBPayload is the job payload, in bytes, that crossed the load
	// balancer; neither data plane measured here sends any.
	LBPayload uint64             `json:"lb_payload_bytes"`
	Layer     map[string]float64 `json:"layer,omitempty"`
	Trace     *traceSummary      `json:"trace,omitempty"`
}

// run is one child's work.
type run struct {
	w     workload
	small bool
	seed  int64
	tr    *tracer // nil when tracing is off
}

// node is one explorer with what the per-layer metrics read from it.
type node struct {
	in    *interp.Interp
	exp   *engine.Explorer
	strat *tracedStrategy // nil when tracing is off
	tr    *tracer
}

// childMain runs one workload once and prints its childOut.
func childMain(args []string) error {
	fs := flag.NewFlagSet("child", flag.ContinueOnError)
	name := fs.String("workload", "", "")
	small := fs.Bool("small", false, "")
	seed := fs.Int64("seed", 1, "")
	traced := fs.Bool("traced", false, "")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, ok := workloadByName(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if err := search.Validate(w.Spec); err != nil {
		return err
	}
	runtime.GOMAXPROCS(workers)
	r := &run{w: w, small: *small, seed: *seed}
	if *traced {
		r.tr = newTracer(time.Now())
	}
	var out *childOut
	var err error
	if w.Plane == "" {
		out, err = r.single()
	} else {
		out, err = r.cluster()
	}
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(out)
}

func (r *run) compile() (prog *cvm.Program, err error) {
	tgt := r.w.Target(r.small)
	r.tr.timed(spCompile, func() { prog, err = posix.CompileTarget(tgt.Name+".c", tgt.Source) })
	return prog, err
}

// newInterp does what targets.Factory does, with the compile step apart
// so that it can be timed.
func (r *run) newInterp() (*interp.Interp, error) {
	prog, err := r.compile()
	if err != nil {
		return nil, err
	}
	in := interp.New(prog)
	posix.Install(in, posix.Options{})
	if r.w.MaxBacktracks != 0 {
		in.Solver.MaxBacktracks = r.w.MaxBacktracks
	}
	return in, nil
}

// engineConfig is cmd/c9's, with the strategy wrapped when n traces.
func (r *run) engineConfig(spec string, n *node) engine.Config {
	return engine.Config{
		MaxStateSteps: 2_000_000,
		Strategy: func(t *tree.Tree, d *cfg.Distance) engine.Strategy {
			s, err := search.Build(spec, t, d, r.seed)
			if err != nil {
				panic(err) // the spec was validated before the run
			}
			if n.tr == nil {
				return s
			}
			n.strat = &tracedStrategy{inner: s, tr: n.tr, tree: t}
			return n.strat
		},
	}
}

// meter measures the timed interval from outside the program: wall
// clock, the process's CPU time and the Go runtime's allocation totals.
type meter struct {
	start time.Time
	cpu0  float64
	ms0   runtime.MemStats
}

func startMeter() *meter {
	m := &meter{}
	runtime.ReadMemStats(&m.ms0)
	m.cpu0 = cpuSeconds()
	m.start = time.Now()
	return m
}

// stop fills in out's end-to-end figures and returns the runtime's
// counters at the end of the interval.
func (m *meter) stop(out *childOut) *runtime.MemStats {
	out.WallS = time.Since(m.start).Seconds()
	out.CPUS = cpuSeconds() - m.cpu0
	out.StartNs = m.start.UnixNano()
	ms := &runtime.MemStats{}
	runtime.ReadMemStats(ms)
	out.AllocMB = float64(ms.TotalAlloc-m.ms0.TotalAlloc) / 1e6
	out.PeakRSSMB = peakRSSMB()
	return ms
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB reads the process's resident-set high-water mark: VmHWM
// where /proc has it, which unlike ru_maxrss starts from zero at exec,
// and ru_maxrss elsewhere.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb * 1024 / 1e6
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	if runtime.GOOS == "darwin" {
		return float64(ru.Maxrss) / 1e6 // bytes there, kilobytes elsewhere
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}

func (r *run) single() (*childOut, error) {
	in, err := r.newInterp()
	if err != nil {
		return nil, err
	}
	if r.tr != nil {
		// engine.New builds the same graph; this copy exists to be timed.
		r.tr.timed(spCfg, func() { cfg.NewDistance(cfg.BuildGraph(in.Prog)) })
	}
	n := &node{in: in, tr: r.tr}
	r.tr.timed(spEngineNew, func() { n.exp, err = engine.New(in, "main", r.engineConfig(r.w.Spec, n)) })
	if err != nil {
		return nil, err
	}

	out := &childOut{Workload: r.w.Name, Traced: r.tr != nil}
	m := startMeter()
	r.tr.beginRoot(spRun)
	_, err = n.exp.RunToCompletion(0)
	r.tr.endRoot()
	ms := m.stop(out)
	if err != nil {
		return nil, err
	}
	fleet := totals(out, []*node{n}, in.Prog.MaxLine)
	if r.tr != nil {
		if err := r.layers(out, []*node{n}, fleet, m, ms); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (r *run) cluster() (*childOut, error) {
	// As cmd/c9-lb does, the balancer compiles the target only to size
	// its coverage vector; each worker owns an interpreter of its own.
	prog, err := r.compile()
	if err != nil {
		return nil, err
	}
	nodes := make([]*node, workers)
	for i := range nodes {
		in, err := r.newInterp()
		if err != nil {
			return nil, err
		}
		nodes[i] = &node{in: in}
		if r.tr != nil {
			nodes[i].tr = newTracer(r.tr.base)
		}
	}
	if r.tr != nil {
		r.tr.timed(spCfg, func() { cfg.NewDistance(cfg.BuildGraph(prog)) })
	}
	bc := cluster.DefaultBalancerConfig()
	bc.DataPlane = r.w.Plane
	lbs, err := cluster.NewLBServer("127.0.0.1:0", bc, prog.MaxLine, workers)
	if err != nil {
		return nil, err
	}

	out := &childOut{Workload: r.w.Name, Traced: r.tr != nil}
	m := startMeter()
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for i, n := range nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if errs[i] = r.worker(lbs.Addr(), n); errs[i] != nil {
				lbs.Shutdown() // or Serve would wait for a worker that is gone
			}
		}()
	}
	// The bound only matters if a worker never joins.
	r.tr.timed(spServe, func() { _, err = lbs.Serve(2 * time.Minute) })
	wg.Wait()
	ms := m.stop(out)
	if err = errors.Join(append(errs, err)...); err != nil {
		return nil, err
	}
	fleet := totals(out, nodes, prog.MaxLine)
	out.LBPayload = lbs.ObsSnapshot().Counter(obs.MLBPayloadBytes)
	if r.tr != nil {
		if err := r.layers(out, nodes, fleet, m, ms); err != nil {
			return nil, err
		}
		_, _, transfers, states := lbs.Stats()
		out.Layer["cluster.transfers"] = float64(transfers)
		out.Layer["cluster.states_transferred"] = float64(states)
	}
	return out, nil
}

// worker joins the balancer at addr and explores until told to stop,
// with the calls cmd/c9-worker makes.
func (r *run) worker(addr string, n *node) error {
	tcp, ack, err := cluster.DialLB(addr)
	if err != nil {
		return err
	}
	defer tcp.Close()
	var transport cluster.Transport = tcp
	if n.tr != nil {
		transport = &tracedTransport{inner: tcp, tr: n.tr}
	}
	ecfg := r.engineConfig(r.w.Spec, n)
	if ack.DataPlane == cluster.DataPlaneDepth {
		ecfg.Partition = &engine.PartitionSpec{Depth: ack.PartitionDepth, Units: ack.PartitionUnits}
	}
	wc := cluster.WorkerConfig{
		ID: ack.ID, Epoch: ack.Epoch, Seed: ack.Seed, Batch: 16,
		Engine: ecfg, Entry: "main", DataPlane: ack.DataPlane,
		NewInterp: func() (*interp.Interp, error) { return n.in, nil },
	}
	var w *cluster.Worker
	n.tr.timed(spEngineNew, func() { w, err = cluster.NewWorker(wc, transport) })
	if err != nil {
		return err
	}
	n.exp = w.Exp
	n.tr.beginRoot(spRunLoop)
	err = w.RunLoop()
	n.tr.endRoot()
	return err
}

// totals merges the explorers' metric registries, as the balancer does
// for its fleet view, fills in out's counts from the sum, and returns
// it. Covered lines are the union of the explorers'.
func totals(out *childOut, nodes []*node, maxLine int) obs.Snapshot {
	var fleet obs.Snapshot
	cov := coverage.New(maxLine)
	for _, n := range nodes {
		fleet.Merge(n.exp.Obs.Snapshot())
		cov.Or(n.exp.Cov)
	}
	out.Counts = counts{
		Paths:  fleet.Counter(obs.MEnginePaths),
		Errors: fleet.Counter(obs.MEngineErrors),
		Hangs:  fleet.Counter(obs.MEngineHangs),
		Cov:    cov.Count(),
		Useful: fleet.Counter(obs.MEngineUsefulSteps),
		Kills:  fleet.Counter(obs.MEngineBudgetKills),
	}
	out.Broken = fleet.Counter(obs.MEngineBrokenReplays)
	out.Queries = fleet.Counter(obs.MSolverQueries)
	return fleet
}
