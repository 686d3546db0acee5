// Package experiments regenerates every table and figure of the paper's
// evaluation (§7) on the miniature targets. Each experiment returns a
// Table that cmd/c9-repro prints.
//
// Scaling substitutions: the paper's 48-worker EC2 cluster becomes the
// deterministic lock-step simulation (cluster.RunSim; ARCHITECTURE.md,
// "Cluster custody and the epoch protocol") whose virtual time is
// measured in ticks; 10-minute wall-clock budgets become tick budgets;
// the targets are the miniatures in internal/targets. The *shapes* —
// scaling curves, crossovers, who-wins — are the reproduction targets,
// not absolute numbers.
package experiments

import (
	"fmt"

	"cloud9/internal/cfg"
	"cloud9/internal/cluster"
	"cloud9/internal/cvm"
	"cloud9/internal/engine"
	"cloud9/internal/posix"
	"cloud9/internal/targets"
	"cloud9/internal/tree"
)

// Table is a printable experiment result.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Format renders the table as aligned text.
func (t *Table) Format() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	out := fmt.Sprintf("== %s: %s ==\n", t.ID, t.Title)
	line := func(cells []string) string {
		s := ""
		for i, c := range cells {
			s += fmt.Sprintf("%-*s  ", widths[i], c)
		}
		return s + "\n"
	}
	out += line(t.Header)
	for _, r := range t.Rows {
		out += line(r)
	}
	for _, n := range t.Notes {
		out += "note: " + n + "\n"
	}
	return out
}

// progOf compiles a target once to inspect program metadata (coverable
// lines etc.).
func progOf(tgt targets.Target) (*cvm.Program, error) {
	return posix.CompileTarget(tgt.Name+".c", tgt.Source)
}

// simFor builds the standard simulation config for a target.
func simFor(tgt targets.Target, workers int) cluster.SimConfig {
	return cluster.SimConfig{
		Workers:   workers,
		Entry:     "main",
		NewInterp: targets.Factory(tgt),
		Engine:    engine.Config{MaxStateSteps: 2_000_000},
		Quantum:   2000,
	}
}

// exploreSingle runs one explorer to completion (or step limit).
func exploreSingle(tgt targets.Target, stepLimit int, maxStateSteps uint64) (*engine.Explorer, error) {
	in, err := targets.Factory(tgt)()
	if err != nil {
		return nil, err
	}
	e, err := engine.New(in, "main", engine.Config{
		MaxStateSteps: maxStateSteps,
		Strategy:      func(*tree.Tree, *cfg.Distance) engine.Strategy { return engine.NewDFS() },
	})
	if err != nil {
		return nil, err
	}
	_, err = e.RunToCompletion(stepLimit)
	return e, err
}
