package cluster

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"cloud9/internal/engine"
	"cloud9/internal/interp"
	"cloud9/internal/obs"
)

// Config describes a single-process cluster run: a load balancer and
// Workers workers in one address space, talking over loopback TCP.
type Config struct {
	Workers   int
	Entry     string
	NewInterp func() (*interp.Interp, error)
	Engine    engine.Config
	Balancer  BalancerConfig
	// MaxDuration bounds the run (0 = until exhaustion).
	MaxDuration time.Duration
}

// Snapshot is a point-in-time view of cluster progress.
type Snapshot struct {
	Elapsed           time.Duration
	UsefulSteps       uint64
	ReplaySteps       uint64
	Paths             uint64
	Errors            uint64
	Hangs             uint64
	Coverage          int
	Queues            []int
	StatesTransferred int
	TransfersIssued   int
}

// Result is the outcome of a cluster run.
type Result struct {
	Final     Snapshot
	Exhausted bool // ended by frontier exhaustion (vs. the time bound)
	Wall      time.Duration
	Workers   []*Worker
	Evictions int
	Leaves    int
	// Obs is the fleet-wide metrics fold: live workers' registries,
	// departed members' accounted snapshots, and the LB's own counters.
	// Final's counter fields are rendered from it.
	Obs obs.Snapshot
	// Journal is the LB's run-event journal (membership, custody and
	// portfolio events, in order).
	Journal []obs.Event
}

// Run executes a cluster until exhaustion or MaxDuration. It is the
// production stack in one process — an LBServer on a loopback port and
// Workers goroutines that each do what cmd/c9-worker does (DialLB,
// NewWorker, RunLoop) — so membership, leases, custody and the data
// plane are exactly the ones the binaries run.
func Run(cfg Config) (*Result, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	// Interpreters are built before anyone dials, so the workers join
	// within milliseconds of each other instead of one compile apart.
	interps := make([]*interp.Interp, cfg.Workers)
	for i := range interps {
		in, err := cfg.NewInterp()
		if err != nil {
			return nil, fmt.Errorf("cluster: worker %d: %w", i, err)
		}
		interps[i] = in
	}
	lbs, err := NewLBServer("127.0.0.1:0", cfg.Balancer, interps[0].Prog.MaxLine, cfg.Workers)
	if err != nil {
		return nil, err
	}

	start := time.Now()
	workers := make([]*Worker, cfg.Workers)
	errs := make([]error, cfg.Workers)
	var wg sync.WaitGroup
	for i, in := range interps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if workers[i], errs[i] = runWorker(cfg, in, lbs.Addr()); errs[i] != nil {
				lbs.Shutdown() // or Serve would wait for a worker that is gone
			}
		}()
	}
	_, err = lbs.Serve(cfg.MaxDuration)
	wg.Wait()
	if err = errors.Join(append(errs, err)...); err != nil {
		return nil, err
	}

	// Final accounting, folded through the obs plane. Serve froze the
	// balancer and every worker goroutine has exited, so nothing below
	// races.
	lb := lbs.lb
	res := &Result{
		Exhausted: lbs.Exhausted(),
		Workers:   workers,
		Evictions: lb.Evictions,
		Leaves:    lb.Leaves,
		Journal:   lb.Journal().All(),
	}
	// Lines a live worker covered after its last accepted status join the
	// overlay first, so the fold's coverage gauge and Final agree.
	cov, _ := lb.GlobalCoverage()
	for _, w := range workers {
		if !w.Departed() {
			res.Final.Queues = append(res.Final.Queues, w.Exp.Tree.NumCandidates())
			cov.Or(w.Exp.Cov)
		}
	}
	fleet := fleetFold(lb, workers)
	res.Final.UsefulSteps = fleet.Counter(obs.MEngineUsefulSteps)
	res.Final.ReplaySteps = fleet.Counter(obs.MEngineReplaySteps)
	res.Final.Paths = fleet.Counter(obs.MEnginePaths)
	res.Final.Errors = fleet.Counter(obs.MEngineErrors)
	res.Final.Hangs = fleet.Counter(obs.MEngineHangs)
	res.Final.Coverage = cov.Count()
	res.Final.StatesTransferred = lb.StatesTransferred()
	res.Final.TransfersIssued = lb.TransfersIssued
	res.Obs = fleet
	res.Wall = time.Since(start)
	res.Final.Elapsed = res.Wall
	return res, nil
}

// fleetFold is a run's final metrics, the same cut on either fabric: live
// workers contribute their full registries; departed ones (crashed,
// retired, or evicted) what the balancer accounted for them — everything
// they did after it was re-explored by survivors — which is GoneObs once
// the departure was processed and the member's record until then (a crash
// whose lease had not lapsed at the end of the run is still a member).
func fleetFold(lb *LoadBalancer, workers []*Worker) obs.Snapshot {
	fleet := obs.Snapshot{}
	for _, w := range workers {
		if !w.Departed() {
			fleet.Merge(w.Exp.Obs.Snapshot())
		} else if m := lb.Members[w.ID]; m != nil {
			fleet.Merge(m.Obs)
		}
	}
	fleet.Merge(lb.GoneObs)
	lb.PutLBMetrics(&fleet)
	return fleet
}

// runWorker is one cluster member: join the balancer at lbAddr, build
// the worker the handshake describes, explore until told to stop.
func runWorker(cfg Config, in *interp.Interp, lbAddr string) (*Worker, error) {
	tr, ack, err := DialLB(lbAddr)
	if err != nil {
		return nil, err
	}
	defer tr.Close()
	w, err := NewWorker(ack.WorkerConfig(WorkerConfig{
		Engine: cfg.Engine, Entry: cfg.Entry,
		NewInterp: func() (*interp.Interp, error) { return in, nil },
	}), tr)
	if err != nil {
		return nil, fmt.Errorf("cluster: worker %d: %w", ack.ID, err)
	}
	return w, w.RunLoop()
}
