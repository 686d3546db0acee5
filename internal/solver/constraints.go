// Package solver decides satisfiability of path conditions and produces
// concrete models (test inputs). It plays the role STP plays for KLEE.
//
// All symbolic variables are bytes (see package expr), so satisfiability
// reduces to a constraint-satisfaction search over byte domains. The
// solver is *incremental*: path conditions grow one constraint at a
// time (ConstraintSet is a persistent parent-linked tree), and the
// solver memoizes the preprocessed solve state — flat constraint list,
// unit-propagation fixpoint, independence partition, witness model — on
// each set node it queries (incremental.go), deriving a child's state
// from its parent's in time proportional to the new constraint's cone
// instead of the whole set. The memo dies with the node, so it holds the
// live paths' states and no dead path's.
//
// A query runs through a three-tier pipeline, each tier strictly
// cheaper than the next and consulted first:
//
// Tier 1 — interval abstraction (interval.go). Every memoized set state
// carries per-variable [lo,hi] bounds, a sound over-approximation of
// the set's solutions refined incrementally on Append (unit adoption
// plus a capped backward-narrowing fixpoint over the fresh groups, COW-
// shared with the parent when no bound changed). A Fork whose condition's
// abstract value collapses to [1,1] or [0,0] settles BOTH directions
// from one evaluation with zero search, and a set whose bounds go empty
// is proved unsat before any group assembly. Interval-true implies sat
// only because the engine forks on conditions against feasible path
// conditions (the same invariant the fused Fork fast path relies on).
// Fork is the one place bounds decide a condition; they seed no search.
//
// Tier 2 — exact caches over query structure:
//
//   - a group cache: each independent group's verdict and model under
//     an order-insensitive hash of its constraints, so a contradiction
//     or a solution found once is found again inside any larger set,
//   - the per-set state memo itself (incremental.go), kept on the set
//     node and stamped with the solver that derived it, whose witness
//     model lets Fork decide one direction of a branch by evaluation.
//     A branch query keeps the extension it built, with the query's
//     model as its witness, on the set's state, and the child node
//     that appends the condition adopts it instead of deriving it
//     again.
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
// mask domains (tier3.go). Every search starts from full domains, so a
// group's model is a function of the group alone and the group cache
// holds only canonical models, which may-queries and model-producing
// queries share (§6: cached inputs must replay identically everywhere).
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
// one run of the constraint's lane program (expr.Lanes), each lane what
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
// its size and the backtracks spent; the engine journals it. The kill
// memo answers a later search with the same input with it (see killed).
//
// # Undefined conditions
//
// A caller asks only about conditions defined on every solution of the
// set it asks against. A condition undefined at some solution (a
// division or remainder whose divisor can be zero there) has no verdict
// the tiers agree on: tier 1 answers Fork(∅, 0 == shl(urem(0,0), 48)) as
// (true, false), since the interval of shl x 48 is [0,0] whatever x is,
// while Eval, and with it tier 3 and enumeration, finds it undefined,
// hence unsatisfiable. The interpreter keeps to this by construction:
// interp's execDiv forks on a symbolic divisor being zero before it
// divides, and the path that goes on carries the divisor's nonzero
// constraint. FuzzSolverVerdict holds the tiers to enumeration under
// the same guard.
//
// The solver's reference is a test-only enumeration of byte
// assignments (enumSat, enum_test.go) that shares no code with the
// pipeline above: the differential tests and FuzzSolverVerdict hold
// every tier's verdicts to it, and every model to EvalAll.
package solver

import (
	"cloud9/internal/expr"
)

// ConstraintSet is an immutable, persistent set of boolean constraints
// (the path condition). Extending a set shares structure with its parent,
// so cloning execution states is O(1) in the constraint count.
//
// The constraints never change, but each node carries one mutable slot:
// the solve state a solver derived for it (incremental.go). So a node
// may be written — queried — only by the goroutine whose execution
// states append to it. No node is shared between workers: jobs cross as
// paths and are replayed, never as states.
type ConstraintSet struct {
	parent *ConstraintSet
	c      *expr.Expr
	depth  int
	memo   *setState
}

// Append returns a new set containing all of cs plus c. Constant-true
// constraints are dropped.
func (cs *ConstraintSet) Append(c *expr.Expr) *ConstraintSet {
	if c.Width() != expr.W1 {
		panic("solver: non-boolean constraint")
	}
	if c.IsTrue() {
		return cs
	}
	return &ConstraintSet{parent: cs, c: c, depth: cs.Len() + 1}
}

// Len returns the number of constraints in the set.
func (cs *ConstraintSet) Len() int {
	if cs == nil {
		return 0
	}
	return cs.depth
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
