// Command c9-lb runs the Cloud9 load balancer for a cross-process
// cluster. Workers (cmd/c9-worker) dial in at any time, stream status
// updates, and receive balancing instructions; job transfers flow
// directly between workers. Membership is elastic: workers may join
// mid-run, leave gracefully, or crash — a silent worker is evicted when
// its lease lapses and its last-reported jobs are re-seated onto
// survivors. The LB exits when the run has terminated — every worker
// idle and nothing in flight, confirmed by two probe waves — or when
// -max-duration cuts it off, and prints a line per live worker and the
// cluster total, which includes departed workers' accounted work;
// exhausted=true|false on the cluster total line says which of the two
// ended the run.
//
// The LB holds only summaries of what the workers hold, so it is not
// replicated. If it dies, start c9-lb -resume at the same address (and
// with the same -target, -lease and -data-plane) before the workers'
// 25 s redial deadline runs out: the restart seeds nothing, rebuilds the
// run from the workers that re-dial it, and finishes it. What the restart
// could not rebuild — a worker that died while no balancer was up, or a
// departure whose re-seat died in transit — is journaled as
// work-abandoned and counted on the abandoned=N line; abandoned=0 means
// the totals are exact. SIGTERM shuts the LB down gracefully.
//
// Usage:
//
//	c9-lb -listen 127.0.0.1:7747 -target memcached -min-workers 4
//	c9-lb -listen 127.0.0.1:7747 -target memcached -resume
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"cloud9/internal/cluster"
	"cloud9/internal/obs"
	"cloud9/internal/posix"
	"cloud9/internal/search"
	"cloud9/internal/targets"
)

func main() {
	var (
		listen     = flag.String("listen", "127.0.0.1:7747", "address to listen on")
		targetName = flag.String("target", "memcached", "target (for coverage sizing)")
		minWorkers = flag.Int("min-workers", 2, "workers that must have joined before the run can end by running dry")
		lease      = flag.Duration("lease", cluster.DefaultLease, "membership lease; silent workers are evicted past this")
		maxDur     = flag.Duration("max-duration", 10*time.Minute, "run bound")
		portfolio  = flag.String("portfolio", "", "comma-separated strategy specs assigned to workers at join (e.g. \"dfs,random-path,cupa(site,dfs)\"); empty = engine default everywhere")
		obsAddr    = flag.String("obs-addr", "", "serve the live fleet observability HTTP on this address (/metrics, /snapshot, /journal, /debug/pprof)")
		obsDump    = flag.String("obs-dump", "", "write the final fleet metrics snapshot + run journal as JSON to this file")
		dataPlane  = flag.String("data-plane", cluster.DataPlaneP2P, "job payload path: p2p (worker→worker; a batch whose peer link is down is relayed through the LB) or depth (deterministic depth-partitioned work units; no payload moves at all)")
		partDepth  = flag.Int("partition-depth", 0, "depth-partition boundary for -data-plane depth (0 = default)")
		partUnits  = flag.Int("partition-units", 0, "work-unit count for -data-plane depth (0 = default)")
		resume     = flag.Bool("resume", false, "restart a dead LB at its address: seed nothing and adopt the run of the workers that re-dial (-min-workers is ignored)")
	)
	flag.Parse()

	tgt, ok := targets.ByName(*targetName)
	if !ok {
		fmt.Fprintf(os.Stderr, "c9-lb: unknown target %q\n", *targetName)
		os.Exit(1)
	}
	prog, err := posix.CompileTarget(tgt.Name+".c", tgt.Source)
	if err != nil {
		fmt.Fprintf(os.Stderr, "c9-lb: %v\n", err)
		os.Exit(1)
	}

	switch *dataPlane {
	case "", cluster.DataPlaneP2P, cluster.DataPlaneDepth:
	default:
		fmt.Fprintf(os.Stderr, "c9-lb: -data-plane must be %q or %q, got %q\n",
			cluster.DataPlaneP2P, cluster.DataPlaneDepth, *dataPlane)
		os.Exit(1)
	}
	cfg := cluster.DefaultBalancerConfig()
	cfg.Lease = *lease
	cfg.DataPlane = *dataPlane
	cfg.PartitionDepth = *partDepth
	cfg.PartitionUnits = *partUnits
	if *portfolio != "" {
		specs, err := search.ParsePortfolio(*portfolio)
		if err != nil {
			fmt.Fprintf(os.Stderr, "c9-lb: %v\n", err)
			os.Exit(1)
		}
		cfg.Portfolio = specs
		fmt.Printf("c9-lb: portfolio %v\n", specs)
	}
	var srv *cluster.LBServer
	if *resume {
		srv, err = cluster.ResumeLBServer(*listen, cfg, prog.MaxLine)
	} else {
		srv, err = cluster.NewLBServer(*listen, cfg, prog.MaxLine, *minWorkers)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "c9-lb: %v\n", err)
		os.Exit(1)
	}
	if *resume {
		fmt.Printf("c9-lb: resuming on %s (rebuilding the run from the workers that re-dial)\n", srv.Addr())
	} else {
		fmt.Printf("c9-lb: listening on %s (elastic membership, termination probes after ≥%d workers)\n",
			srv.Addr(), *minWorkers)
	}
	// SIGTERM (and Ctrl-C) shut down gracefully: workers get MsgStop, and
	// the final report + obs dump still happen.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, os.Interrupt)
	go func() {
		<-sigc
		fmt.Fprintln(os.Stderr, "c9-lb: signal received; shutting down gracefully")
		srv.Shutdown()
	}()
	if *obsAddr != "" {
		osrv, serr := obs.Serve(*obsAddr, srv.ObsSnapshot, srv.Journal())
		if serr != nil {
			fmt.Fprintf(os.Stderr, "c9-lb: obs: %v\n", serr)
			os.Exit(1)
		}
		defer osrv.Close()
		fmt.Fprintf(os.Stderr, "c9-lb: observability on http://%s/metrics\n", osrv.Addr())
	}
	statuses, err := srv.Serve(*maxDur)
	if err != nil {
		fmt.Fprintf(os.Stderr, "c9-lb: %v\n", err)
		os.Exit(1)
	}

	// Every count below is a metric: a live worker's as of its last full
	// status, a departed one's folded into the fleet at its departure.
	for _, st := range statuses {
		o := st.Obs
		fmt.Printf("  worker %d (epoch %d): paths=%d errors=%d useful=%d replay=%d cov=%d\n",
			st.Worker, st.Epoch, o.Counter(obs.MEnginePaths), o.Counter(obs.MEngineErrors),
			o.Counter(obs.MEngineUsefulSteps), o.Counter(obs.MEngineReplaySteps), o.Gauge(obs.MEngineCoverageLines))
	}
	evictions, leaves, transfers, transferred := srv.Stats()
	fmt.Printf("membership: evictions=%d leaves=%d transfers=%d states-transferred=%d\n",
		evictions, leaves, transfers, transferred)
	fleet := srv.ObsSnapshot()
	fmt.Printf("restart: abandoned=%d\n", fleet.Counter(obs.MLBAbandoned))
	fmt.Printf("cluster total: paths=%d errors=%d hangs=%d useful=%d replay=%d exhausted=%v\n",
		fleet.Counter(obs.MEnginePaths), fleet.Counter(obs.MEngineErrors), fleet.Counter(obs.MEngineHangs),
		fleet.Counter(obs.MEngineUsefulSteps), fleet.Counter(obs.MEngineReplaySteps), srv.Exhausted())
	fmt.Print(obs.Render(fleet))
	if *obsDump != "" {
		if err := obs.WriteDump(*obsDump, fleet, srv.Journal().All()); err != nil {
			fmt.Fprintf(os.Stderr, "c9-lb: obs dump: %v\n", err)
			os.Exit(1)
		}
	}
}
