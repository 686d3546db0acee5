// Package tree implements the worker-local view of the symbolic
// execution tree (§3.2 of the paper). Nodes combine a materialization
// status {materialized, virtual} with a lifecycle {candidate, fence,
// dead} (Fig. 3). Candidate nodes form the worker's exploration
// frontier; fence nodes demarcate subtrees explored by other workers;
// dead nodes are explored nodes whose program state has been discarded.
//
// A dead subtree collapses as its last path finishes (§6, "Custom Data
// Structures": the node pin reclaims finished subtrees): Collapse turns
// a dead node whose children all finished into a finished leaf, so the
// tree a worker keeps is its frontier, the paths to it, and the fences
// and unfinished leaves (budget kills, broken replays) beside them.
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
	// finished marks a dead leaf whose whole subtree is explored here: a
	// terminated path, or a collapsed dead node (Collapse).
	finished bool
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

// Finished reports whether n's whole subtree was explored here (Collapse):
// n is a dead leaf, and nothing below it is left to anyone.
func (n *Node) Finished() bool { return n.finished }

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

// Collapse records that the dead leaf n finished (its path terminated)
// and reclaims the subtree that completes: each dead ancestor whose
// child slots all hold finished leaves drops its children and becomes a
// finished leaf itself. A candidate, a fence, an empty slot or a dead
// leaf that did not finish (a budget kill, a broken replay) keeps its
// parent, and so everything above it. Never call it on a node that
// forked: it is dead before its children are attached.
func (t *Tree) Collapse(n *Node) {
	if n.Life != Dead || len(n.Children) > 0 {
		panic("tree: Collapse of a node that is not a dead leaf")
	}
	n.finished = true
	for p := n.Parent; p != nil && p.Life == Dead; p = p.Parent {
		for _, ch := range p.Children {
			if ch == nil || !ch.finished {
				return
			}
		}
		t.numNodes -= len(p.Children)
		p.Children = nil
		p.finished = true
	}
}
