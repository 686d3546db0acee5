// Parallel symbolic testing of a network server (the paper's memcached
// case study): a 4-worker Cloud9 cluster — cluster.Run: the production
// load balancer and workers in this one process, over loopback TCP —
// exhaustively explores every behavior of the server under two fully
// symbolic protocol packets, then a single-node run finds the UDP-reassembly
// hang with a concrete triggering datagram.
//
// Run: go run ./examples/memcached
package main

import (
	"fmt"
	"log"
	"time"

	"cloud9/internal/cluster"
	"cloud9/internal/engine"
	"cloud9/internal/state"
	"cloud9/internal/targets"
)

func main() {
	// Part 1: exhaustive two-symbolic-packet exploration on a cluster.
	fmt.Println("exploring all behaviors of mini-memcached under 2 symbolic packets...")
	res, err := cluster.Run(cluster.Config{
		Workers:     4,
		Entry:       "main",
		NewInterp:   targets.Factory(targets.Memcached(targets.MCDriverTwoSymbolicPackets)),
		Engine:      engine.Config{MaxStateSteps: 2_000_000},
		MaxDuration: 5 * time.Minute,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  %d paths explored by %d workers in %v (%d job transfers)\n",
		res.Final.Paths, len(res.Workers), res.Wall.Round(time.Millisecond),
		res.Final.TransfersIssued)
	fmt.Printf("  protocol handler errors: %d (an exhaustive pass over the\n",
		res.Final.Errors)
	fmt.Println("  2-packet input space — partial evidence of correctness, §7.3.3)")
	fmt.Println()

	// Part 2: the UDP hang.
	fmt.Println("hunting the UDP fragment-reassembly hang...")
	in, err := targets.Factory(targets.Memcached(targets.MCDriverUDPHang))()
	if err != nil {
		log.Fatal(err)
	}
	e, err := engine.New(in, "main", engine.Config{
		// The infinite loop is detected by the per-path instruction
		// budget: paths without the bug finish in far fewer steps.
		MaxStateSteps: 200_000,
	})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := e.RunToCompletion(0); err != nil {
		log.Fatal(err)
	}
	for _, tc := range e.Tests {
		if tc.Kind == state.TermHang {
			fmt.Printf("  HANG: %s\n", tc.Message)
			fmt.Printf("  triggering datagram: % x\n", tc.Inputs["udp"])
			fmt.Println("  (byte 2 is the zero-length fragment header that wedges the scan loop)")
			return
		}
	}
	fmt.Println("  no hang found (unexpected)")
}
