// Package cloud9 is a Go reproduction of "Parallel Symbolic Execution
// for Automated Real-World Software Testing" (Bucur, Ureche, Zamfir,
// Candea — EuroSys 2011): the Cloud9 parallel symbolic execution
// platform, rebuilt from scratch including every substrate it depends
// on — a C-subset compiler and bytecode VM (the LLVM/KLEE analog), a
// bit-vector constraint solver (the STP analog), a symbolic POSIX
// environment model, the symbolic-test API, and the cluster fabric of
// workers coordinated by a load balancer.
//
// Entry points:
//
//   - cmd/c9          — single-node symbolic testing CLI
//   - cmd/c9-lb       — cluster load balancer (TCP, elastic membership)
//   - cmd/c9-worker   — cluster worker node (TCP; joins/leaves at will)
//   - cmd/c9-repro    — regenerates every table/figure of the paper's §7
//   - bench/          — the perf ledger: end-to-end seconds and memory
//     per workload (BENCHMARK.json)
//   - examples/       — runnable API walkthroughs
//
// # Cluster architecture
//
// The fabric (internal/cluster) follows the paper's shared-nothing
// design: each worker owns a private interpreter, solver, and execution
// tree; the load balancer only sees queue lengths, cumulative counters,
// and coverage bit vectors, and instructs workers to ship path-encoded
// job trees directly to each other (§3.1–3.3). Two fabrics speak the
// same protocol: a deterministic lock-step simulation (cluster.RunSim)
// behind every experiment and paper figure, and gob over TCP — real
// multi-process clusters (cmd/c9-lb, cmd/c9-worker), or the same stack
// in one process over loopback (cluster.Run).
//
// Membership is elastic and crash-tolerant. Workers join at any time
// and are assigned an id plus a monotonically increasing epoch; their
// status stream doubles as a lease, and a member silent past the lease
// is evicted. Each status carries a consistent snapshot of the worker's
// frontier as path prefixes, so on eviction the LB re-seats the
// departed worker's last-reported jobs onto the least-loaded survivor
// through the ordinary job-tree replay path; everything the worker did
// after that snapshot is discarded and re-explored exactly once, which
// keeps the cluster-wide path count identical to an undisturbed run
// (kill -9 a worker mid-run and the totals still match — this is CI's
// smoke test). Worker-to-worker transfers are protected by sender-side
// custody with acknowledgments relayed through the LB, and every
// message is epoch-stamped so a falsely evicted straggler's traffic is
// fenced off instead of corrupting the accounting. See
// internal/cluster's package docs for the protocol details.
//
// Search strategies live in internal/search: class-uniform path
// analysis (CUPA) partitions candidates by pluggable classifiers
// (depth band, branch site, fault count, coverage yield, static
// distance-to-uncovered) and draws classes uniformly, layering by
// nesting (cupa(site,cupa(depth,dfs)));
// a registry maps serializable spec strings to strategy constructors.
// Specs being plain data is what enables cluster-coordinated
// *portfolios*: the load balancer hands each joining worker a spec
// from a configured portfolio (c9-lb -portfolio) in equal shares,
// rebalances assignments on membership changes, and workers hot-swap
// strategies mid-run by re-seeding the new searcher from their local
// tree — without disturbing frontier custody, so crash-recovery
// exactness holds under reassignment (the CI smoke runs a mixed
// portfolio and still expects the exact single-node path count).
//
// Static analysis lives in internal/cfg: per-function control-flow
// graphs and an interprocedural call graph built once at target load,
// carrying the minimum-distance-to-uncovered metric (KLEE's md2u) that
// the dist-opt strategy and the cupa dist classifier rank states by.
// The metric is incremental — a coverage delta re-solves only the
// functions whose uncovered-block set changed plus their call-graph
// ancestors, everything else stays memoized (a test pins the recompute's
// scope by its counter, and a differential property test pins the
// result to the from-scratch BFS reference exactly).
//
// The expression layer (internal/expr) is hash-consed: structural
// hashing, equality, and free-variable queries on constraints are O(1)
// field reads, which is what keeps the solver's constraint caches (paper
// §6) near-free to key. See internal/expr's package docs for the design.
//
// The solver (internal/solver) is incremental: the preprocessed solve
// state of every path-condition node — flattened form, unit-propagation
// fixpoint, independence partition, witness model — is memoized and
// extended per appended constraint instead of recomputed per query,
// solved independent groups are remembered whatever set they recur in,
// and branch sites issue one fused
// Solver.Fork query whose parent-model fast path decides one direction
// by evaluation alone (the §6 constraint-cache design taken to its
// limit). Solver cache hit rates surface through `c9 -stats` and the
// worker exit report; the solver's tests pin each fast path by the
// counters it keeps (an Append is one state extension, a bounds-decided
// branch is no query).
//
// ARCHITECTURE.md is the map of the system and docs/operations.md the
// operator's view of the binaries and CI. Performance has one
// instrument, the ledger under bench/ (bench/README.md): every PR is
// read on it, base against head. The nightly workflow
// (.github/workflows/nightly.yml) runs the full-cluster gauntlet: the
// exploration-exactness gate (ci/exactness.sh pins printf 2136 /
// memcached 312 / lighttpd 64 / test 552 paths), the complete
// experiment suite with result tables uploaded as artifacts, and the
// TCP kill -9 smoke matrix under the dist-strategy portfolio.
package cloud9
