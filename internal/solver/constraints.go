// Package solver decides satisfiability of path conditions and produces
// concrete models (test inputs). It plays the role STP plays for KLEE.
//
// All symbolic variables are bytes (see package expr), so satisfiability
// reduces to a constraint-satisfaction search over byte domains. The
// solver is *incremental*: path conditions grow one constraint at a
// time (ConstraintSet is a persistent parent-linked tree), and the
// solver memoizes the preprocessed solve state — flattened form,
// unit-propagation fixpoint, independence partition, witness model — of
// every set node it has seen (incremental.go), deriving a child's state
// from its parent's in time proportional to the new constraint's cone
// instead of the whole set.
//
// A query runs through a three-tier pipeline, each tier strictly
// cheaper than the next and consulted first:
//
// Tier 1 — interval abstraction (interval.go). Every memoized set state
// carries per-variable [lo,hi] bounds, a sound over-approximation of
// the set's solutions refined incrementally on Append (unit adoption
// plus a capped backward-narrowing fixpoint over the fresh groups, COW-
// shared with the parent when nothing narrowed). Branch conditions
// whose abstract value collapses to [1,1] or [0,0] are answered with
// zero search — a Fork settles BOTH directions from one evaluation —
// and a set whose bounds go empty is proved unsat before any group
// assembly. Interval-true implies sat only because the engine queries
// conditions against feasible path conditions (the same invariant the
// fused Fork fast path relies on), so the tier is bypassed for
// model-producing queries.
//
// Tier 2 — exact caches over query structure:
//
//   - a result cache keyed on structural hashes (O(1) to compute:
//     expressions are hash-consed, see package expr), with budget
//     failures stamped by the budget they failed under; its models
//     also seed the witness of the set a branch goes on to create,
//   - a group cache: each independent group's verdict and model under
//     an order-insensitive hash of its constraints, so a contradiction
//     or a solution found once is found again inside any larger set,
//   - the per-set state memo itself (incremental.go), whose witness
//     model lets Fork decide one direction of a branch by evaluation.
//
// These are the paper's §6 "Constraint Caches" that have traffic on the
// target catalogue (TestCatalogueGolden fails if one of them, or one of
// the other tiers' fast paths, answers nothing on it).
//
// Tier 3 — the search itself: incremental unit propagation of
// equalities with constants (re-run only over the new constraint's
// cone), independence partitioning (KLEE's independent-constraint
// optimization; only groups sharing variables with the query are
// solved, solved groups memoized order-insensitively in a group cache),
// and backtracking search with forward checking over 256-value word-
// mask domains (tier3.go). Searches that do run start from interval-
// narrowed domains — except model-producing ones, which stay unseeded
// so the group cache holds only canonical models (§6: cached inputs
// must replay identically everywhere).
//
// A forward check prunes the domain of a constraint's last unbound
// variable to the values that satisfy the constraint. That set is a
// function of the constraint and the values of its other variables and
// of nothing else, and chronological backtracking asks for the same one
// over and over, so the search keeps a prune memo: keyed by (the
// hash-consed constraint, which of its variables is unbound, the other
// variables' bytes packed into a uint64), an entry records which values
// have been classified and which of them satisfy. A prune evaluates
// only domain values its entry has not classified yet — all of them in
// one lane-wise pass over the constraint (expr.Lanes), each lane what
// Eval gives, exactly as an unmemoized prune would — and intersects the
// domain with the entry. Binding a variable forward-checks only the
// constraints that mention it; any other kept its verdict. The memo replaces
// evaluations by lookups of their results, so it cannot change a domain,
// a verdict, a model or a backtrack count. A key is valid in any search
// (it names every variable the constraint mentions), so the memo is
// never reset: it lives on the Solver with the rest of the search's
// tables, which are reused from search to search, and is bounded by
// pruneMemoCap entries — when full it is emptied. A constraint over more
// than nine variables, or with one bound by the outer model, is not
// keyed and is scanned every time. The search itself is still
// chronological: a conflict among the last two variables bound is
// re-found under every assignment of the first two, now at the price of
// a lookup.
//
// A search that exhausts MaxBacktracks returns a *BudgetError —
// errors.Is(err, ErrBudget) — naming the group (its group-cache key),
// its size and the backtracks spent; the engine journals it.
//
// The pre-incremental from-scratch pipeline survives as the reference
// implementation (ReferenceMayBeTrue/ReferenceSolve); differential
// tests check the incremental path agrees with it query-for-query, and
// the package benchmarks measure the incremental speedup against it.
package solver

import (
	"cloud9/internal/expr"
)

// ConstraintSet is an immutable, persistent set of boolean constraints
// (the path condition). Extending a set shares structure with its parent,
// so cloning execution states is O(1) in the constraint count.
type ConstraintSet struct {
	parent *ConstraintSet
	c      *expr.Expr
	depth  int
	hash   uint64
}

// EmptySet is the constraint set with no constraints.
var EmptySet = (*ConstraintSet)(nil)

// Append returns a new set containing all of cs plus c. Constant-true
// constraints are dropped. The set hash is extended from c's cached
// structural hash (expressions are hash-consed), so appending is O(1)
// regardless of c's size.
func (cs *ConstraintSet) Append(c *expr.Expr) *ConstraintSet {
	if c.Width() != expr.W1 {
		panic("solver: non-boolean constraint")
	}
	if c.IsTrue() {
		return cs
	}
	h, d := uint64(0), 0
	if cs != nil {
		h, d = cs.hash, cs.depth
	}
	return &ConstraintSet{parent: cs, c: c, depth: d + 1, hash: h*1099511628211 ^ c.Hash()}
}

// Len returns the number of constraints in the set.
func (cs *ConstraintSet) Len() int {
	if cs == nil {
		return 0
	}
	return cs.depth
}

// Hash returns an order-sensitive structural hash of the set. O(1): the
// hash is maintained incrementally by Append from cached node hashes.
func (cs *ConstraintSet) Hash() uint64 {
	if cs == nil {
		return 0
	}
	return cs.hash
}

// Slice materializes the constraints oldest-first.
func (cs *ConstraintSet) Slice() []*expr.Expr {
	out := make([]*expr.Expr, cs.Len())
	i := cs.Len() - 1
	for n := cs; n != nil; n = n.parent {
		out[i] = n.c
		i--
	}
	return out
}

// HasFalse reports whether the set contains the constant-false constraint
// (a trivially unsatisfiable path).
func (cs *ConstraintSet) HasFalse() bool {
	for n := cs; n != nil; n = n.parent {
		if n.c.IsFalse() {
			return true
		}
	}
	return false
}

// Vars returns the distinct variable ids referenced by the set. Each
// constraint contributes its cached free-variable summary; no expression
// DAG is traversed.
func (cs *ConstraintSet) Vars() []uint64 {
	seen := map[uint64]bool{}
	var out []uint64
	for n := cs; n != nil; n = n.parent {
		out = n.c.Vars(seen, out)
	}
	return out
}

// EvalAll reports whether every constraint is satisfied by a.
// Missing variables make it return false.
func (cs *ConstraintSet) EvalAll(a expr.Assignment) bool {
	for n := cs; n != nil; n = n.parent {
		v, ok := n.c.Eval(a)
		if !ok || v == 0 {
			return false
		}
	}
	return true
}

// flatten splits nested conjunctions into their conjuncts, which exposes
// more structure to unit propagation and independence analysis.
func flatten(c *expr.Expr, out []*expr.Expr) []*expr.Expr {
	if c.Op() == expr.OpLAnd {
		out = flatten(c.Kid(0), out)
		return flatten(c.Kid(1), out)
	}
	return append(out, c)
}

// Flattened returns the constraints with top-level conjunctions split.
func (cs *ConstraintSet) Flattened() []*expr.Expr {
	var out []*expr.Expr
	for _, c := range cs.Slice() {
		out = flatten(c, out)
	}
	return out
}
