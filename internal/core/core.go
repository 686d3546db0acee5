// Package core is the top-level facade of the platform: one-call APIs
// to symbolically test a program on a single node or across a cluster
// of workers. It wires together the compiler (internal/cc), the POSIX
// model (internal/posix), the exploration engine (internal/engine) and
// the cluster fabric (internal/cluster); the lower-level packages remain
// available for fine-grained control.
package core

import (
	"fmt"
	"time"

	"cloud9/internal/cluster"
	"cloud9/internal/engine"
	"cloud9/internal/interp"
	"cloud9/internal/posix"
	"cloud9/internal/search"
	"cloud9/internal/state"
)

// StrategyName is a search strategy spec in the internal/search grammar
// ("dfs", "cupa(site,dfs)", "dist-opt(w=1:0.5:0:0)", ...).
type StrategyName string

// The argument-less strategies, as spec values.
const (
	StrategyInterleaved  StrategyName = "interleaved" // random-path + cov-opt (paper default)
	StrategyDFS          StrategyName = "dfs"
	StrategyBFS          StrategyName = "bfs"
	StrategyRandom       StrategyName = "random"
	StrategyRandomPath   StrategyName = "random-path"
	StrategyCoverage     StrategyName = "cov-opt"
	StrategyDistance     StrategyName = "dist-opt" // static distance-to-uncovered (md2u)
	StrategyFewestFaults StrategyName = "fewest-faults"
)

// Options configures a symbolic test run.
type Options struct {
	// Entry is the function to start from (default "main").
	Entry string
	// Strategy selects candidate ordering: any internal/search spec,
	// built with Seed; one that does not parse fails Test / TestCluster.
	// Empty is the engine default (random-path ⊕ cov-opt, its own seeds).
	Strategy StrategyName
	// MaxPathSteps is the per-path instruction budget for hang detection
	// (default 2,000,000).
	MaxPathSteps uint64
	// MaxPaths stops exploration after that many completed paths
	// (0 = run to exhaustion).
	MaxPaths int
	// RecordAllTests keeps a test case for every path, not only bugs.
	RecordAllTests bool
	// HostFS is a read-only host filesystem snapshot visible to open().
	HostFS map[string][]byte
	// Seed feeds the randomized strategies.
	Seed int64
}

func (o *Options) fill() {
	if o.Entry == "" {
		o.Entry = "main"
	}
	if o.MaxPathSteps == 0 {
		o.MaxPathSteps = 2_000_000
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
}

func (o *Options) engineConfig() (engine.Config, error) {
	strategy, err := search.Factory(string(o.Strategy), o.Seed)
	if err != nil {
		return engine.Config{}, fmt.Errorf("core: strategy: %w", err)
	}
	return engine.Config{
		Strategy:       strategy,
		MaxStateSteps:  o.MaxPathSteps,
		RecordAllTests: o.RecordAllTests,
	}, nil
}

// Report summarizes a symbolic test run.
type Report struct {
	Paths        uint64
	Errors       uint64
	Hangs        uint64
	Instructions uint64
	// CoveredLines / CoverableLines give line coverage of the target
	// (model prelude excluded).
	CoveredLines   int
	CoverableLines int
	// Tests holds the generated test cases (bugs always; all paths when
	// Options.RecordAllTests).
	Tests []engine.TestCase
	// Exhausted reports whether the whole path space was explored.
	Exhausted bool
}

// Bugs returns the error/hang test cases.
func (r *Report) Bugs() []engine.TestCase {
	var out []engine.TestCase
	for _, tc := range r.Tests {
		if tc.Kind == state.TermError || tc.Kind == state.TermHang {
			out = append(out, tc)
		}
	}
	return out
}

// newInterp compiles source with the POSIX model installed.
func newInterp(name, source string, hostFS map[string][]byte) (*interp.Interp, error) {
	prog, err := posix.CompileTarget(name, source)
	if err != nil {
		return nil, err
	}
	in := interp.New(prog)
	posix.Install(in, posix.Options{HostFS: hostFS})
	return in, nil
}

// Test symbolically executes a C-subset program on a single node and
// returns the report.
func Test(name, source string, opts Options) (*Report, error) {
	opts.fill()
	ecfg, err := opts.engineConfig()
	if err != nil {
		return nil, err
	}
	in, err := newInterp(name, source, opts.HostFS)
	if err != nil {
		return nil, err
	}
	e, err := engine.New(in, opts.Entry, ecfg)
	if err != nil {
		return nil, err
	}
	for {
		more, err := e.Step()
		if err != nil {
			return nil, fmt.Errorf("core: exploration failed: %w", err)
		}
		if !more {
			break
		}
		if opts.MaxPaths > 0 && int(e.Stats.PathsExplored) >= opts.MaxPaths {
			break
		}
	}
	return &Report{
		Paths:          e.Stats.PathsExplored,
		Errors:         e.Stats.Errors,
		Hangs:          e.Stats.Hangs,
		Instructions:   e.Stats.UsefulSteps,
		CoveredLines:   e.Cov.Count(),
		CoverableLines: in.Prog.CoverableLines(),
		Tests:          e.Tests,
		Exhausted:      e.Done(),
	}, nil
}

// ClusterOptions extends Options for parallel runs.
type ClusterOptions struct {
	Options
	// Workers is the cluster size (default 4).
	Workers int
	// MaxDuration bounds wall-clock time (default 10 minutes).
	MaxDuration time.Duration
}

// TestCluster symbolically executes a program on a cluster of
// shared-nothing workers with dynamic load balancing: cluster.Run's
// load balancer and workers, in this process, talking over loopback TCP
// — the stack cmd/c9-lb and cmd/c9-worker run, except that no worker is
// evicted for silence (in one process a silent worker is a busy one).
func TestCluster(name, source string, opts ClusterOptions) (*Report, error) {
	opts.fill()
	ecfg, err := opts.engineConfig()
	if err != nil {
		return nil, err
	}
	if opts.Workers <= 0 {
		opts.Workers = 4
	}
	if opts.MaxDuration == 0 {
		opts.MaxDuration = 10 * time.Minute
	}
	res, err := cluster.Run(cluster.Config{
		Workers: opts.Workers,
		Entry:   opts.Entry,
		NewInterp: func() (*interp.Interp, error) {
			return newInterp(name, source, opts.HostFS)
		},
		Engine:      ecfg,
		MaxDuration: opts.MaxDuration,
	})
	if err != nil {
		return nil, err
	}
	rep := &Report{
		Paths:        res.Final.Paths,
		Errors:       res.Final.Errors,
		Hangs:        res.Final.Hangs,
		Instructions: res.Final.UsefulSteps,
		Exhausted:    res.Exhausted,
	}
	var coverable int
	for _, w := range res.Workers {
		rep.Tests = append(rep.Tests, w.Exp.Tests...)
		if c := w.Exp.Cov.Count(); c > rep.CoveredLines {
			rep.CoveredLines = c // upper bound; LB holds the OR-merged view
		}
		coverable = w.Exp.In.Prog.CoverableLines()
	}
	rep.CoverableLines = coverable
	return rep, nil
}
