// Package targets contains the miniature real-world programs the
// reproduction tests, written in the C subset and compiled with the
// POSIX model prelude. Each miniature preserves the *exploration
// structure* of the paper's target (input parsing, protocol state
// machines, seeded bugs) at laptop scale, and Target.Mimics names the
// system it stands for. ARCHITECTURE.md's stack overview places them
// under every layer the reproduction builds.
package targets

import (
	"fmt"

	"cloud9/internal/interp"
	"cloud9/internal/posix"
)

// Target couples a named C source with the driver entry point.
type Target struct {
	Name   string
	Mimics string // the paper's system this miniaturizes
	Source string
}

// Factory returns a fresh-interpreter constructor for t (each cluster
// worker compiles its own instance: shared-nothing).
func Factory(t Target) func() (*interp.Interp, error) {
	return func() (*interp.Interp, error) {
		prog, err := posix.CompileTarget(t.Name+".c", t.Source)
		if err != nil {
			return nil, fmt.Errorf("targets: %s: %w", t.Name, err)
		}
		in := interp.New(prog)
		posix.Install(in, posix.Options{})
		return in, nil
	}
}

// All returns every registered target with a default driver (used by the
// Table 4 smoke experiment).
func All() []Target {
	list := []Target{
		Printf(2),
		TestUtil(3),
		Memcached(MCDriverConcreteSuite),
		Lighttpd(13, LHDriverSinglePacket),
		Curl(4),
		Bandicoot(3),
		ProducerConsumer(),
		Rsync(2),
		Pbzip(2),
	}
	list = append(list, Coreutils(1)...)
	return list
}

// ByName resolves a target by a CLI-friendly name. Recognized names:
// printf, test, memcached:<driver>, lighttpd:<version>:<driver>, curl,
// bandicoot, prodcons, coreutil-<name>.
func ByName(name string) (Target, bool) {
	switch name {
	case "printf":
		return Printf(4), true
	case "test":
		return TestUtil(3), true
	case "curl":
		return Curl(4), true
	case "bandicoot":
		return Bandicoot(5), true
	case "prodcons":
		return ProducerConsumer(), true
	case "rsync":
		return Rsync(3), true
	case "pbzip":
		return Pbzip(3), true
	case "memcached":
		return Memcached(MCDriverTwoSymbolicPackets), true
	case "memcached:suite":
		return Memcached(MCDriverConcreteSuite), true
	case "memcached:udp":
		return Memcached(MCDriverUDPHang), true
	case "memcached:fi":
		return Memcached(MCDriverSuiteFaultInjection), true
	case "lighttpd":
		return Lighttpd(13, LHDriverSymbolicFragmentation), true
	case "lighttpd:12":
		return Lighttpd(12, LHDriverSplit26Plus2), true
	case "lighttpd:13":
		return Lighttpd(13, LHDriverManySmall), true
	case "lighttpd:fixed":
		return Lighttpd(14, LHDriverSymbolicFragmentation), true
	}
	for _, t := range Coreutils(6) {
		if t.Name == name {
			return t, true
		}
	}
	return Target{}, false
}

// Names lists the CLI-recognized target names.
func Names() []string {
	out := []string{
		"printf", "test", "curl", "bandicoot", "prodcons", "rsync", "pbzip",
		"memcached", "memcached:suite", "memcached:udp", "memcached:fi",
		"lighttpd", "lighttpd:12", "lighttpd:13", "lighttpd:fixed",
	}
	for _, n := range CoreutilNames() {
		out = append(out, "coreutil-"+n)
	}
	return out
}
