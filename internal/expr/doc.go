// Package expr implements the bit-vector expression language used by the
// symbolic execution engine. Expressions are immutable DAGs built through
// smart constructors that canonicalize and constant-fold aggressively, so
// that the constraint solver sees small, normalized formulas.
//
// All symbolic inputs are byte-wide variables (see Var); wider symbolic
// values are built by concatenating bytes, mirroring KLEE's byte-level
// array model. Widths of 1 (booleans), 8, 16, 32 and 64 bits are
// supported.
//
// # Hash consing
//
// Every node is hash-consed: the constructors intern each node in a
// global sharded table (64 lock-striped shards keyed by structural hash),
// so structurally equal expressions are always the same pointer. At
// construction each node is stamped with three cached summaries, computed
// in O(1) from its already-stamped children:
//
//   - a structural FNV hash (Hash is a field read; DeepHash is the
//     recursive reference implementation),
//   - an occurrence-counted node count (Size, saturating at 2^32-1), and
//   - a free-variable summary (FreeVars): a VarSet holding an inline
//     64-bit bitset for ids 0..63 plus a sorted spill slice for larger
//     ids, shared with a child whenever the child's set covers the merge.
//
// The payoff is concentrated in the solver hot path, which the Cloud9
// paper's constraint caches (§6) assume is near-free:
//
//   - Equal is pointer comparison for interned nodes (a structural slow
//     path survives only for cross-table nodes);
//   - solver cache keys (ConstraintSet hashes, group keys) are folds over
//     cached hashes, never DAG walks;
//   - independence partitioning reads per-constraint VarSets instead of
//     re-traversing every constraint per query; and
//   - Subst prunes subtrees whose summaries are disjoint from the bound
//     variables and memoizes rewrites by node identity, so shared
//     subtrees are rewritten once per query instead of once per
//     occurrence.
//
// Interning also strengthens the constructors' own simplifications: rules
// keyed on operand identity (x-x, x^x, x==x, identical Ite arms) now fire
// for any structurally equal operands, not just syntactically shared ones.
//
// The table is append-only and lives for the process lifetime, matching
// the shared-nothing worker model. Because the solver's substitution
// loops mint transient residual expressions per partial assignment, the
// published population is bounded (~4M nodes): past the cap, new nodes
// are still stamped — Hash, Size and FreeVars stay O(1) — but are no
// longer published, so they remain garbage-collectible and Equal falls
// back to its hash-guarded structural slow path for them. Workers are
// single-threaded constructors in steady state; the lock striping exists
// because targets and tests build expressions concurrently.
package expr
