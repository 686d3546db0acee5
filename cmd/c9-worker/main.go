// Command c9-worker runs one Cloud9 worker node: it dials the load
// balancer, receives its cluster id and membership epoch (worker 0
// seeds the exploration), and explores its share of the execution tree,
// exchanging path-encoded jobs directly with peer workers. Workers may
// join a run already in progress — the next balancing round ships them
// jobs — and may leave gracefully with -retire-after, handing their
// remaining frontier back to the cluster. If the LB connection drops,
// the worker re-dials the same address for up to 25 s and resumes its
// membership there — with the LB it lost, or with a c9-lb -resume started
// in its place; if the worker was evicted in the meantime, it halts (its
// jobs were re-seated).
//
// Usage:
//
//	c9-worker -lb 127.0.0.1:7747 -target memcached
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"cloud9/internal/cluster"
	"cloud9/internal/engine"
	"cloud9/internal/obs"
	"cloud9/internal/targets"
)

func main() {
	var (
		lbAddr      = flag.String("lb", "127.0.0.1:7747", "load balancer address; re-dialed on a dropped connection, so a c9-lb -resume started there adopts this worker")
		targetName  = flag.String("target", "memcached", "target to explore")
		steps       = flag.Uint64("steps", 2_000_000, "per-path instruction budget")
		batch       = flag.Int("batch", 16, "exploration steps between mailbox polls")
		retireAfter = flag.Duration("retire-after", 0, "leave the cluster gracefully after this long (0 = run to completion)")
		strategy    = flag.String("strategy", "", "search strategy spec override (default: the LB's portfolio assignment, or the engine default)")
		obsAddr     = flag.String("obs-addr", "", "serve live observability HTTP on this address (/metrics, /snapshot, /journal, /debug/pprof)")
		obsDump     = flag.String("obs-dump", "", "write the final metrics snapshot + journal as JSON to this file")
	)
	flag.Parse()

	tgt, ok := targets.ByName(*targetName)
	if !ok {
		fmt.Fprintf(os.Stderr, "c9-worker: unknown target %q\n", *targetName)
		os.Exit(1)
	}
	tr, ack, err := cluster.DialLB(*lbAddr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "c9-worker: %v\n", err)
		os.Exit(1)
	}
	defer tr.Close()
	// What the handshake decided — identity, seed role, the portfolio slot,
	// the data plane and its partition shape — comes from the ack; the rest
	// is this process's own.
	wc := ack.WorkerConfig(cluster.WorkerConfig{
		Batch:     *batch,
		Engine:    engine.Config{MaxStateSteps: *steps},
		NewInterp: targets.Factory(tgt),
		Entry:     "main",
		// Explicit local override beats the LB's portfolio slot; the pin
		// travels in every status so the LB excludes this worker from
		// allocation instead of reassigning it.
		StrategySpec:   *strategy,
		StrategyPinned: *strategy != "",
	})
	label := wc.StrategySpec
	if label == "" {
		label = "engine default"
	}
	plane := ack.DataPlane
	if plane == "" {
		plane = cluster.DataPlaneP2P
	}
	fmt.Printf("c9-worker: joined as worker %d (epoch %d, seed=%v, strategy %s, data-plane %s)\n",
		ack.ID, ack.Epoch, ack.Seed, label, plane)

	w, err := cluster.NewWorker(wc, tr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "c9-worker: %v\n", err)
		os.Exit(1)
	}
	if *obsAddr != "" {
		srv, serr := obs.Serve(*obsAddr, w.Exp.Obs.Snapshot, w.Exp.Journal)
		if serr != nil {
			fmt.Fprintf(os.Stderr, "c9-worker: obs: %v\n", serr)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "c9-worker: observability on http://%s/metrics\n", srv.Addr())
	}
	if *retireAfter > 0 {
		time.AfterFunc(*retireAfter, w.Retire)
	}
	// SIGTERM (and Ctrl-C) retire the worker gracefully: final full
	// status, goodbye, then the normal exit path below — report and obs
	// dump included — so the cluster's accounting stays exact.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, os.Interrupt)
	go func() {
		<-sigc
		fmt.Fprintln(os.Stderr, "c9-worker: signal received; retiring gracefully")
		w.Retire()
	}()
	if err := w.RunLoop(); err != nil {
		fmt.Fprintf(os.Stderr, "c9-worker: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("c9-worker %d: paths=%d errors=%d hangs=%d useful=%d replay=%d tests=%d departed=%v\n",
		w.ID, w.Exp.Stats.PathsExplored, w.Exp.Stats.Errors, w.Exp.Stats.Hangs,
		w.Exp.Stats.UsefulSteps, w.Exp.Stats.ReplaySteps, len(w.Exp.Tests), w.Departed())
	final := w.Exp.Obs.Snapshot()
	fmt.Print(obs.Render(final))
	if *obsDump != "" {
		if err := obs.WriteDump(*obsDump, final, w.Exp.Journal.All()); err != nil {
			fmt.Fprintf(os.Stderr, "c9-worker: obs dump: %v\n", err)
			os.Exit(1)
		}
	}
}
