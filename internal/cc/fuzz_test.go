package cc_test

import (
	"testing"

	"cloud9/internal/cc"
	"cloud9/internal/posix"
	"cloud9/internal/targets"
)

// FuzzCCParse: Compile on any source returns a program or an error, and
// never panics. Sources compile against the POSIX model's externs, as
// the catalogue's do. The seeds are the model prelude alone and the
// prelude followed by each distinct catalogue source, as
// posix.CompileTarget joins them, so every seed compiles in full.
func FuzzCCParse(f *testing.F) {
	f.Add(posix.Prelude)
	seen := map[string]bool{}
	for _, name := range targets.Names() {
		tgt, _ := targets.ByName(name)
		if !seen[tgt.Source] {
			seen[tgt.Source] = true
			f.Add(posix.Prelude + "\n" + tgt.Source)
		}
	}
	opts := cc.Options{Externs: posix.Externs()}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := cc.Compile("fuzz.c", src, opts)
		if (prog == nil) == (err == nil) {
			t.Fatalf("Compile returned program %v and error %v", prog != nil, err)
		}
	})
}
