// Package tree implements the worker-local view of the symbolic
// execution tree (§3.2 of the paper). Nodes combine a materialization
// status {materialized, virtual} with a lifecycle {candidate, fence,
// dead} (Fig. 3). Candidate nodes form the worker's exploration
// frontier; fence nodes demarcate subtrees explored by other workers;
// dead nodes are fully explored interior nodes whose program state has
// been discarded.
package tree

import (
	"fmt"

	"cloud9/internal/state"
)

// Status is the materialization status of a node.
type Status uint8

// Node statuses.
const (
	Materialized Status = iota
	Virtual
)

// Life is the lifecycle stage of a node.
type Life uint8

// Node lifecycle stages.
const (
	Candidate Life = iota
	Fence
	Dead
)

// Node is one vertex of the local execution tree.
type Node struct {
	Parent   *Node
	Children []*Node
	Choice   uint8 // index of this node among the parent's children
	Depth    int

	Status Status
	Life   Life
	// Faults is the injected-fault count of the last program state
	// attached (AddChild, Materialize). It outlives State, so fault-ordered
	// strategies can still place a node whose state is gone.
	Faults int32

	// State holds the program state for materialized candidate and fence
	// nodes; nil for virtual and dead nodes (Fig. 3's terminal state
	// discards it).
	State *state.S

	// nCandidates counts candidate nodes in this subtree (self included);
	// maintained incrementally for the random-path strategy.
	nCandidates int

	// CovYield is the lineage's recent coverage yield: the explorer adds
	// the lines a step newly covered, a child starts at half its parent's
	// (engine.InheritYield), cluster-wide coverage growth halves it.
	CovYield float64
}

// IsCandidate reports whether the node is explorable.
func (n *Node) IsCandidate() bool { return n.Life == Candidate }

// NumCandidatesBelow returns the number of candidates in the subtree
// rooted at n (including n itself).
func (n *Node) NumCandidatesBelow() int { return n.nCandidates }

// PathFromRoot returns the branch choices leading to n.
func (n *Node) PathFromRoot() []uint8 {
	out := make([]uint8, n.Depth)
	for cur := n; cur.Parent != nil; cur = cur.Parent {
		out[cur.Depth-1] = cur.Choice
	}
	return out
}

// Tree is the worker-local execution tree.
type Tree struct {
	Root *Node
	// RootState is a pristine copy of the initial program state; replays
	// that find no nearer materialized ancestor start here.
	RootState *state.S

	numCandidates int
	numNodes      int
}

// New creates a tree whose root is a materialized candidate holding the
// initial state. A pristine copy is kept for replays.
func New(root *state.S, pristine *state.S) *Tree {
	t := &Tree{
		Root: &Node{
			Status: Materialized,
			Life:   Candidate,
			State:  root,
		},
		RootState: pristine,
	}
	t.Root.nCandidates = 1
	t.numCandidates = 1
	t.numNodes = 1
	return t
}

// NumCandidates returns the frontier size.
func (t *Tree) NumCandidates() int { return t.numCandidates }

// NumNodes returns the total node count.
func (t *Tree) NumNodes() int { return t.numNodes }

// adjustCandidates propagates a frontier-count delta to the root.
func (t *Tree) adjustCandidates(n *Node, delta int) {
	for cur := n; cur != nil; cur = cur.Parent {
		cur.nCandidates += delta
	}
	t.numCandidates += delta
}

// AddChild attaches a child under parent at the given choice index.
func (t *Tree) AddChild(parent *Node, choice uint8, status Status, life Life, st *state.S) *Node {
	for int(choice) >= len(parent.Children) {
		parent.Children = append(parent.Children, nil)
	}
	if parent.Children[choice] != nil {
		panic(fmt.Sprintf("tree: duplicate child %d", choice))
	}
	n := &Node{
		Parent: parent,
		Choice: choice,
		Depth:  parent.Depth + 1,
		Status: status,
		Life:   life,
		State:  st,
	}
	if st != nil {
		n.Faults = int32(st.FaultsTaken)
	}
	parent.Children[choice] = n
	t.numNodes++
	if life == Candidate {
		t.adjustCandidates(n, 1)
	}
	return n
}

// ChildAt returns parent's child for a choice (nil if absent).
func (t *Tree) ChildAt(parent *Node, choice uint8) *Node {
	if int(choice) >= len(parent.Children) {
		return nil
	}
	return parent.Children[choice]
}

// MarkDead transitions a node to dead, discarding its program state.
func (t *Tree) MarkDead(n *Node) {
	if n.Life == Candidate {
		t.adjustCandidates(n, -1)
	}
	n.Life = Dead
	if n.State != nil {
		n.State.Release()
		n.State = nil
	}
}

// MarkFence converts a candidate into a fence (it is now owned by
// another worker). The state, if any, is retained to serve as a replay
// starting point.
func (t *Tree) MarkFence(n *Node) {
	if n.Life == Candidate {
		t.adjustCandidates(n, -1)
	}
	n.Life = Fence
}

// FenceToCandidate re-activates a fence node encountered during replay
// import (the destination worker now owns it).
func (t *Tree) FenceToCandidate(n *Node) {
	if n.Life != Fence {
		panic("tree: FenceToCandidate on non-fence")
	}
	n.Life = Candidate
	t.adjustCandidates(n, 1)
}

// Materialize installs a replayed state into a virtual node.
func (t *Tree) Materialize(n *Node, st *state.S) {
	n.Status = Materialized
	n.State = st
	n.Faults = int32(st.FaultsTaken)
}

// NearestMaterializedAncestor walks up from n (exclusive) to the closest
// node holding a program state; it returns nil when only the pristine
// root state is available.
func (t *Tree) NearestMaterializedAncestor(n *Node) *Node {
	for cur := n.Parent; cur != nil; cur = cur.Parent {
		if cur.State != nil {
			return cur
		}
	}
	return nil
}

// CandidatesUnder collects candidate nodes in the subtree rooted at n
// (used by the random-path searcher and job export).
func (t *Tree) CandidatesUnder(n *Node, limit int) []*Node {
	var out []*Node
	var walk func(*Node)
	walk = func(cur *Node) {
		if len(out) >= limit {
			return
		}
		if cur.IsCandidate() {
			out = append(out, cur)
		}
		for _, ch := range cur.Children {
			if ch != nil && ch.nCandidates > 0 {
				walk(ch)
			}
		}
	}
	walk(n)
	return out
}

// Prune reclaims dead leaf chains — the "node pin"/rubber-band memory
// optimization (§6 "Custom Data Structures"): interior nodes whose whole
// subtree is dead are spliced out in one sweep, without deep recursion
// per node removal.
func (t *Tree) Prune() int {
	removed := 0
	var walk func(n *Node) bool // returns true when the subtree is all-dead
	walk = func(n *Node) bool {
		allDead := n.Life == Dead
		for i, ch := range n.Children {
			if ch == nil {
				continue
			}
			if walk(ch) {
				n.Children[i] = nil
				removed++
			} else {
				allDead = false
			}
		}
		if !allDead {
			return false
		}
		for _, ch := range n.Children {
			if ch != nil {
				return false
			}
		}
		return n.Parent != nil
	}
	walk(t.Root)
	t.numNodes -= removed
	return removed
}
