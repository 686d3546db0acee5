package main

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestStrategyFlag drives the built binary: with no -strategy it runs
// the engine default and reproduces printf's pinned totals, and a
// misspelt spec is refused instead of silently running that default.
func TestStrategyFlag(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "c9")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	out, err := exec.Command(bin, "-target", "printf", "-tests=false").CombinedOutput()
	if err != nil {
		t.Fatalf("default run: %v\n%s", err, out)
	}
	for _, want := range []string{"paths explored:   2136\n", "instructions:     342207\n"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("default run lacks %q:\n%s", want, out)
		}
	}
	out, err = exec.Command(bin, "-target", "printf", "-strategy", "dsf").CombinedOutput()
	if err == nil || !strings.Contains(string(out), `unknown strategy "dsf"`) {
		t.Errorf("-strategy dsf: err=%v, output:\n%s", err, out)
	}
}
