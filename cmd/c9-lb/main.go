// Command c9-lb runs the Cloud9 load balancer for a cross-process
// cluster. Workers (cmd/c9-worker) dial in at any time, stream status
// updates, and receive balancing instructions; job transfers flow
// directly between workers. Membership is elastic: workers may join
// mid-run, leave gracefully, or crash — a silent worker is evicted when
// its lease lapses and its last-reported jobs are re-seated onto
// survivors. The LB exits when the run has terminated — every worker
// idle and nothing in flight, confirmed by two probe waves — or when
// -max-duration cuts it off, and prints the aggregate results, including
// departed workers' final contributions; exhausted=true|false on the
// cluster total line says which of the two ended the run.
//
// The LB is no longer a single point of failure: a second c9-lb started
// with -standby -peer=<primary> installs a snapshot of the primary's
// state, tails its replication stream and, if the primary dies without
// a clean shutdown, promotes itself after -promote-grace and finishes
// the run from the exact replicated state.
// Workers given both addresses (c9-worker -lb primary,standby) ride the
// failover out. SIGTERM shuts either role down gracefully: the primary
// marks the stream's end so standbys exit instead of taking over.
//
// Usage:
//
//	c9-lb -listen 127.0.0.1:7747 -target memcached -min-workers 4
//	c9-lb -listen 127.0.0.1:7748 -standby -peer 127.0.0.1:7747 -target memcached
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sync/atomic"
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
		standby    = flag.Bool("standby", false, "run as a warm standby: tail the primary at -peer and promote on its loss")
		peer       = flag.String("peer", "", "primary LB address to replicate from (required with -standby)")
		grace      = flag.Duration("promote-grace", 2*time.Second, "how long the primary may stay unreachable before the standby promotes itself")
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
	// SIGTERM (and Ctrl-C) shut down gracefully: the primary marks the end
	// of its replication stream so attached standbys exit instead of
	// promoting, workers get MsgStop, and the final report + obs dump still happen.
	var srvP atomic.Pointer[cluster.LBServer]
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, os.Interrupt)
	go func() {
		<-sigc
		if s := srvP.Load(); s != nil {
			fmt.Fprintln(os.Stderr, "c9-lb: signal received; shutting down gracefully")
			s.Shutdown()
			return
		}
		fmt.Fprintln(os.Stderr, "c9-lb: signal received; standby exiting (no takeover)")
		os.Exit(0)
	}()

	var srv *cluster.LBServer
	if *standby {
		if *peer == "" {
			fmt.Fprintln(os.Stderr, "c9-lb: -standby requires -peer")
			os.Exit(1)
		}
		sb, err := cluster.NewStandby(*listen, *peer, *grace, *minWorkers)
		if err != nil {
			fmt.Fprintf(os.Stderr, "c9-lb: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("c9-lb: standby on %s replicating from %s (promote-grace %s)\n",
			sb.Addr(), *peer, *grace)
		promoted, err := sb.Run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "c9-lb: %v\n", err)
			os.Exit(1)
		}
		if promoted == nil {
			fmt.Println("c9-lb: primary shut down cleanly; standby exiting")
			return
		}
		srv = promoted
		fmt.Printf("c9-lb: primary lost — promoted to primary (term %d) on %s\n",
			srv.Term(), srv.Addr())
	} else {
		srv, err = cluster.NewLBServer(*listen, cfg, prog.MaxLine, *minWorkers)
		if err != nil {
			fmt.Fprintf(os.Stderr, "c9-lb: %v\n", err)
			os.Exit(1)
		}
		// Always accept standby subscriptions: replication costs one
		// retained entry per input on these miniature runs.
		srv.EnableReplication()
		fmt.Printf("c9-lb: listening on %s (elastic membership, termination probes after ≥%d workers)\n",
			srv.Addr(), *minWorkers)
	}
	srvP.Store(srv)
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

	var paths, errors, hangs, useful, replay uint64
	for _, st := range statuses {
		paths += st.Paths
		errors += st.Errors
		hangs += st.Hangs
		useful += st.UsefulSteps
		replay += st.ReplaySteps
		fmt.Printf("  worker %d (epoch %d): paths=%d errors=%d useful=%d replay=%d cov=%d\n",
			st.Worker, st.Epoch, st.Paths, st.Errors, st.UsefulSteps, st.ReplaySteps, st.CovCount)
	}
	evictions, leaves, transfers, transferred := srv.Stats()
	fmt.Printf("membership: evictions=%d leaves=%d transfers=%d states-transferred=%d\n",
		evictions, leaves, transfers, transferred)
	fmt.Printf("replication: term=%d promotions=%d\n", srv.Term(), srv.Promotions())
	fmt.Printf("cluster total: paths=%d errors=%d hangs=%d useful=%d replay=%d exhausted=%v\n",
		paths, errors, hangs, useful, replay, srv.Exhausted())
	fleet := srv.ObsSnapshot()
	fmt.Print(obs.Render(fleet))
	if *obsDump != "" {
		if err := obs.WriteDump(*obsDump, fleet, srv.Journal().All()); err != nil {
			fmt.Fprintf(os.Stderr, "c9-lb: obs dump: %v\n", err)
			os.Exit(1)
		}
	}
}
