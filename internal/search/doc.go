// Package search is the strategy subsystem layered over the engine's
// §3.3 strategy interface: class-uniform path analysis (CUPA), a
// registry of named strategy constructors, and serializable strategy
// specs — the pieces that let a cluster run a *portfolio* of
// heterogeneous per-worker policies instead of one hard-coded searcher.
//
// # CUPA
//
// CUPA counters the hot-spot bias of flat candidate selection: a
// pluggable Classifier partitions the candidate set into classes (depth
// band, call/branch site, injected-fault count, recent coverage yield),
// Select draws a class uniformly at random, and delegates within the
// class to any inner engine.Strategy. A subtree that explodes into
// thousands of candidates still gets only one class's share of
// attention, so shallow, rarely-visited program regions keep being
// scheduled (cf. Singh & Khurshid's test-depth partitioning). Layering
// is expressed by nesting: cupa(site,cupa(depth,dfs)) first picks a
// branch site uniformly, then a depth band within it. Add, Remove and
// Select are O(1) (amortized) via index maps, matching the engine's
// other strategies.
//
// # Specs and the registry
//
// A strategy is described by a spec string, parsed by Parse and built
// by Build; Factory(spec, seed) does both and returns the constructor
// engine.Config.Strategy takes ("" is the engine's own default) — the
// one route core, c9 and the cluster worker use. The full grammar:
//
//	SPEC       := NAME | NAME "(" ARG ("," ARG)* ")"
//	ARG        := SPEC | CLASSIFIER | KV
//	KV         := NAME "=" VALUE          (VALUE is opaque to the grammar;
//	                                       the strategy interprets it)
//	NAME       := dfs | bfs | random | random-path | cov-opt | dist-opt
//	            | fewest-faults | interleave | cupa
//	CLASSIFIER := depth[:bandwidth] | site | faults | yield | dist
//
// which in practice means:
//
//	dfs | bfs | random | random-path | cov-opt | dist-opt | fewest-faults
//	dist-opt(w=MD2U:DEPTH:FAULTS:YIELD)
//	interleave(SPEC, SPEC, ...)
//	cupa(CLASSIFIER[, CLASSIFIER...], SPEC)
//
// Key=value arguments are positional-argument siblings: tryParseKV
// recognizes NAME=VALUE inside an argument list, Spec.KV looks one up
// by key, and noKVs makes every strategy reject keys it does not
// consume — "dfs(w=1:1:1:1)" is a parse-time error, not a silent
// ignore. Round-tripping through Spec.String preserves KV arguments,
// so parameterized specs survive the LB→worker wire format unchanged.
//
// Runnable examples (any place a spec is accepted — c9 -strategy,
// c9-worker -strategy, c9-lb -portfolio, the sim):
//
//	c9 -target printf -strategy 'dist-opt'                   # default md2u weights
//	c9 -target printf -strategy 'dist-opt(w=1:0.5:0:0.25)'   # custom feature weights
//	c9 -target test   -strategy 'cupa(site,dist-opt(w=0:1:1:0))'
//	c9-lb -portfolio 'dist-opt,dist-opt(w=1:0.5:0:0.25),dfs' # two vectors side by side
//
// Specs are plain strings, so the load balancer can assign them at
// Hello, carry them in membership messages, and hand a worker a new one
// mid-run (the worker rebuilds the strategy and re-seeds it from its
// local tree via engine.Explorer.SetStrategy). Randomized strategies
// derive their seeds deterministically from the seed passed to Build,
// which is how the lock-step simulation stays bit-for-bit reproducible.
//
// # Distance-to-uncovered strategies
//
// dist-opt and the dist classifier rank states by the static minimum
// distance to uncovered code (md2u) computed by internal/cfg over the
// program's control-flow and call graphs: dist-opt samples candidates
// proportionally to 1/(1+md2u)² (KLEE's coverage-optimized searcher
// proper, where cov-opt only rewards yield after the fact), and
// cupa(dist,...) draws uniformly over log2 distance bands.
//
// dist-opt generalizes to a *parameterized family* via the w= argument:
// dist-opt(w=a:b:c:d) scores candidates by a linear combination of four
// normalized features — a·1/(1+md2u)² (distance to uncovered code),
// b·1/(1+depth/8) (shallow-first), c·1/(1+faults) (fewest injected
// faults), d·y/(1+y) (recent coverage yield) — with engine.DistWeights
// carrying the vector (the bare spec without w= is "1:0:0:0", classic
// dist-opt, through the same scoring code). A portfolio runs a second
// vector by naming it in a second entry.
//
// Both dist-opt forms and the dist classifier read
// the worker's shared distance oracle (Builder.Dist, supplied by the
// engine), which re-derives distances incrementally as the local and
// global coverage overlays grow — so a MsgCoverage delta from the rest
// of the cluster re-ranks the frontier at the next selection: dist-opt
// re-weighs its frontier at the first Select after the oracle's Epoch
// moves (it caches weights between), and CUPA re-bands the nodes of a
// CoverageSensitive classifier on every coverage notification (a node
// filed "next to uncovered code" loses that class's selection share
// once the region saturates). Builds
// without an oracle (spec Validate on the LB, which loads no program)
// degrade to neutral ranking instead of failing, so dist specs are
// valid portfolio entries everywhere.
//
// New policies plug in without touching this package's core:
//
//	search.RegisterStrategy("my-strat", func(b *search.Builder, s *search.Spec) (engine.Strategy, error) { ... })
//	search.RegisterClassifier("my-class", func(b *search.Builder, param int, hasParam bool) (search.Classifier, error) { ... })
//
// A constructor receives the full *Spec: positional sub-specs in
// s.Args (build them with b.Build), key=value arguments via s.KV, and
// it must reject unconsumed keys with noKVs (exported strategies all
// do).
//
// after which "cupa(my-class,my-strat)" is a valid spec everywhere a
// spec is accepted (worker flags, LB portfolios, the sim) — and is
// swept automatically by the strategy-invariant property tests, which
// assemble their spec list from these registries.
//
// # Portfolios
//
// A portfolio is an ordered list of specs (ParsePortfolio splits a
// comma-separated flag value, respecting parentheses). The load
// balancer assigns one spec per worker at join, keeps the slots in equal
// shares as members come and go, and reports the coverage yield each
// slot earns in the global overlay — see internal/cluster (portfolio.go)
// and ARCHITECTURE.md.
package search
