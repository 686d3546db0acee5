// Package search is the strategy subsystem layered over the engine's
// §3.3 strategy interface: class-uniform path analysis (CUPA) and
// serializable strategy specs — the pieces that let a cluster run a
// *portfolio* of heterogeneous per-worker policies instead of one
// hard-coded searcher.
//
// # CUPA
//
// CUPA counters the hot-spot bias of flat candidate selection: a
// Classifier partitions the candidate set into classes (depth band,
// call/branch site, injected-fault count, recent coverage yield,
// distance band), Select draws a class uniformly at random, and
// delegates within the class to an inner engine.Strategy. A subtree
// that explodes into thousands of candidates still gets only one
// class's share of attention, so shallow, rarely-visited program
// regions keep being scheduled (cf. Singh & Khurshid's test-depth
// partitioning). Layering is expressed by nesting:
// cupa(site,cupa(depth,dfs)) first picks a branch site uniformly, then
// a depth band within it. Add, Remove and Select are O(1) (amortized)
// via index maps, matching the engine's other strategies.
//
// # Specs
//
// A strategy is described by a spec string, parsed by Parse and built
// by Build; Factory(spec, seed) does both and returns the constructor
// engine.Config.Strategy takes ("" is the engine's own default) — the
// one route c9, the cluster worker and the sim use. The vocabulary is
// closed:
//
//	SPEC       := LEAF | interleave [ "(" SPEC {"," SPEC} ")" ]
//	            | cupa "(" CLASSIFIER {"," CLASSIFIER} "," SPEC ")"
//	LEAF       := dfs | bfs | random | random-path | cov-opt | dist-opt
//	            | fewest-faults
//	CLASSIFIER := depth[:WIDTH] | site | faults | yield | dist
//
// interleaved is an alias of interleave, and bare interleave is the
// paper's evaluation default, random-path ⊕ cov-opt (§7). A classifier's
// ":N" parameter is the only parameter the grammar has; a strategy given
// one, an argument it does not take, or a name outside the vocabulary
// is an error, never a silent ignore. Runnable examples (any place a
// spec is accepted — c9 -strategy, c9-worker -strategy, c9-lb
// -portfolio, the sim):
//
//	c9 -target printf -strategy 'dist-opt'
//	c9 -target test   -strategy 'cupa(site,dist-opt)'
//	c9-lb -portfolio 'dist-opt,cupa(dist,dfs),dfs'
//
// Specs are plain strings, so the load balancer hands one to each
// worker in its HelloAck and the worker reports it in every status; a
// worker runs the spec it joined with until it leaves. Randomized
// strategies derive their seeds deterministically from the seed passed
// to Build, which is how the lock-step simulation stays bit-for-bit
// reproducible.
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
// Both read the worker's shared distance oracle (supplied by the
// engine), which re-derives distances incrementally as the local and
// global coverage overlays grow — so a MsgCoverage delta from the rest
// of the cluster re-ranks the frontier at the next selection: dist-opt
// re-weighs its frontier at the first Select after the oracle's Epoch
// moves (it caches weights between), and CUPA re-bands the nodes of a
// CoverageSensitive classifier on every coverage notification (a node
// filed "next to uncovered code" loses that class's selection share
// once the region saturates). Builds without an oracle (spec Validate
// on the LB, which loads no program) degrade to neutral ranking instead
// of failing, so dist specs are valid portfolio entries everywhere.
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
