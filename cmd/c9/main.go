// Command c9 symbolically tests a program on a single node: it compiles
// a C-subset source (or a built-in miniature target), explores its paths
// with the chosen strategy, and prints the coverage summary plus the
// generated test cases for every bug found.
//
// Usage:
//
//	c9 -target memcached:udp -max-paths 1000
//	c9 -file prog.c -strategy dfs -steps 500000
//	c9 -target printf -stats -cpuprofile cpu.pprof
//	c9 -list
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"cloud9/internal/engine"
	"cloud9/internal/interp"
	"cloud9/internal/obs"
	"cloud9/internal/posix"
	"cloud9/internal/search"
	"cloud9/internal/state"
	"cloud9/internal/targets"
)

func main() {
	var (
		targetName = flag.String("target", "", "built-in target name (see -list)")
		file       = flag.String("file", "", "C-subset source file to test")
		strategy   = flag.String("strategy", "", "search strategy spec: "+strings.Join(search.StrategyNames(), "|")+", composed like cupa(dist,dfs) / interleave(dfs,random) (default: the engine's random-path ⊕ cov-opt)")
		stratSeed  = flag.Int64("strategy-seed", 1, "seed for the randomized strategies of an explicit -strategy")
		maxPaths   = flag.Int("max-paths", 0, "stop after this many explored paths (0 = exhaustive)")
		maxSteps   = flag.Uint64("steps", 2_000_000, "per-path instruction budget (hang detection)")
		listAll    = flag.Bool("list", false, "list built-in targets")
		showTests  = flag.Bool("tests", true, "print generated test cases")
		showStats  = flag.Bool("stats", false, "print detailed metrics (engine, solver tiers, derived hit rates)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file on exit")
		obsAddr    = flag.String("obs-addr", "", "serve live observability HTTP on this address (/metrics, /snapshot, /journal, /debug/pprof)")
		obsDump    = flag.String("obs-dump", "", "write the final metrics snapshot + journal as JSON to this file")
	)
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatalf("%v", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatalf("%v", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fatalf("%v", err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatalf("%v", err)
			}
		}()
	}

	if *listAll {
		for _, n := range targets.Names() {
			fmt.Println(n)
		}
		return
	}

	var in *interp.Interp
	var err error
	switch {
	case *targetName != "":
		tgt, ok := targets.ByName(*targetName)
		if !ok {
			fatalf("unknown target %q (try -list)", *targetName)
		}
		in, err = targets.Factory(tgt)()
	case *file != "":
		src, rerr := os.ReadFile(*file)
		if rerr != nil {
			fatalf("%v", rerr)
		}
		prog, cerr := posix.CompileTarget(*file, string(src))
		if cerr != nil {
			fatalf("%v", cerr)
		}
		in = interp.New(prog)
		posix.Install(in, posix.Options{})
	default:
		fatalf("need -target or -file (see -h)")
	}
	if err != nil {
		fatalf("%v", err)
	}

	ecfg := engine.Config{MaxStateSteps: *maxSteps}
	if ecfg.Strategy, err = search.Factory(*strategy, *stratSeed); err != nil {
		fatalf("%v", err)
	}

	e, err := engine.New(in, "main", ecfg)
	if err != nil {
		fatalf("%v", err)
	}
	if *obsAddr != "" {
		srv, serr := obs.Serve(*obsAddr, e.Obs.Snapshot, e.Journal)
		if serr != nil {
			fatalf("obs: %v", serr)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "c9: observability on http://%s/metrics\n", srv.Addr())
	}
	for {
		more, err := e.Step()
		if err != nil {
			fatalf("exploration failed: %v", err)
		}
		if !more {
			break
		}
		if *maxPaths > 0 && int(e.Stats.PathsExplored) >= *maxPaths {
			break
		}
	}

	coverable := in.Prog.CoverableLines()
	fmt.Printf("paths explored:   %d\n", e.Stats.PathsExplored)
	fmt.Printf("errors found:     %d\n", e.Stats.Errors)
	fmt.Printf("hangs found:      %d\n", e.Stats.Hangs)
	fmt.Printf("instructions:     %d\n", e.Stats.UsefulSteps)
	fmt.Printf("line coverage:    %d/%d (%.1f%%)\n",
		e.Cov.Count(), coverable, 100*float64(e.Cov.Count())/float64(max(1, coverable)))
	ss := in.Solver.Stats.Snapshot()
	fmt.Printf("solver queries:   %d\n", ss.Queries)
	fmt.Printf("solver killed:    %d\n", e.Stats.SolverKilled)
	final := e.Obs.Snapshot()
	if *showStats {
		fmt.Print(obs.Render(final))
	}
	if *obsDump != "" {
		if err := obs.WriteDump(*obsDump, final, e.Journal.All()); err != nil {
			fatalf("obs dump: %v", err)
		}
	}

	if *showTests && len(e.Tests) > 0 {
		fmt.Printf("\n%d test case(s):\n", len(e.Tests))
		for i, tc := range e.Tests {
			kind := "exit"
			switch tc.Kind {
			case state.TermError:
				kind = "ERROR"
			case state.TermHang:
				kind = "HANG"
			}
			fmt.Printf("  #%d [%s] %s\n", i+1, kind, tc.Message)
			for name, data := range tc.Inputs {
				fmt.Printf("      %s = %q (% x)\n", name, printable(data), data)
			}
		}
	}
}

func printable(b []byte) string {
	var sb strings.Builder
	for _, c := range b {
		if c >= 32 && c < 127 {
			sb.WriteByte(c)
		} else {
			sb.WriteByte('.')
		}
	}
	return sb.String()
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "c9: "+format+"\n", args...)
	os.Exit(1)
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
