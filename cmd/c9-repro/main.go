// Command c9-repro regenerates the tables and figures of the Cloud9
// paper's evaluation (§7) on the miniature targets, printing paper-style
// rows. The nightly workflow uploads its output as an artifact.
//
// Usage:
//
//	c9-repro               # everything
//	c9-repro -exp fig7     # one experiment
//	c9-repro -exp table5,table6
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"cloud9/internal/experiments"
)

type runner struct {
	id  string
	run func() (*experiments.Table, error)
}

func main() {
	var (
		exps = flag.String("exp", "all", "comma-separated experiment ids (table4,fig7,fig8,fig9,fig10,fig11,fig12,fig13,table5,table6,cases,portfolio,dist,partition); 'scaling' expands to fig7..fig13")
	)
	flag.Parse()

	all := []runner{
		{"table4", func() (*experiments.Table, error) { return experiments.Table4() }},
		{"fig7", func() (*experiments.Table, error) { return experiments.Fig7(nil) }},
		{"fig8", func() (*experiments.Table, error) { return experiments.Fig8(nil, nil) }},
		{"fig9", func() (*experiments.Table, error) { return experiments.Fig9(nil, nil) }},
		{"fig10", func() (*experiments.Table, error) { return experiments.Fig10(nil, 0) }},
		{"fig11", func() (*experiments.Table, error) { return experiments.Fig11(0, 0) }},
		{"fig12", func() (*experiments.Table, error) { return experiments.Fig12(0) }},
		{"fig13", func() (*experiments.Table, error) { return experiments.Fig13(0, 0) }},
		{"table5", func() (*experiments.Table, error) { return experiments.Table5() }},
		{"table6", func() (*experiments.Table, error) { return experiments.Table6() }},
		{"cases", func() (*experiments.Table, error) { return experiments.CaseStudies() }},
		{"portfolio", func() (*experiments.Table, error) { return experiments.PortfolioDiversity(0) }},
		{"dist", func() (*experiments.Table, error) { return experiments.DistanceDirected(0) }},
		{"partition", func() (*experiments.Table, error) { return experiments.Partition(0) }},
	}

	want := map[string]bool{}
	for _, id := range strings.Split(*exps, ",") {
		id = strings.TrimSpace(strings.ToLower(id))
		if id == "scaling" {
			// The nightly gauntlet's shorthand for the cluster-scaling
			// figure suite.
			for _, fig := range []string{"fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13"} {
				want[fig] = true
			}
			continue
		}
		want[id] = true
	}
	ranAny := false
	for _, r := range all {
		if !want["all"] && !want[r.id] {
			continue
		}
		ranAny = true
		start := time.Now()
		tbl, err := r.run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "c9-repro: %s: %v\n", r.id, err)
			os.Exit(1)
		}
		fmt.Println(tbl.Format())
		fmt.Printf("(%s completed in %v)\n\n", r.id, time.Since(start).Round(time.Millisecond))
	}
	if !ranAny {
		fmt.Fprintln(os.Stderr, "c9-repro: no experiment matched; use -exp all")
		os.Exit(1)
	}
}
