package tree

import (
	"testing"
	"unsafe"
)

// Tree tests use nil states: lifecycle bookkeeping is independent of the
// program state payload.

func build(t *testing.T) *Tree {
	t.Helper()
	return New(nil, nil)
}

func TestRootIsCandidate(t *testing.T) {
	tr := build(t)
	if !tr.Root.IsCandidate() || tr.NumCandidates() != 1 {
		t.Fatal("fresh tree should have the root as its only candidate")
	}
	if tr.Root.NumCandidatesBelow() != 1 {
		t.Fatal("subtree counter wrong at root")
	}
}

func TestAddChildMaintainsCounters(t *testing.T) {
	tr := build(t)
	tr.MarkDead(tr.Root)
	a := tr.AddChild(tr.Root, 0, Materialized, Candidate, nil)
	b := tr.AddChild(tr.Root, 1, Materialized, Candidate, nil)
	if tr.NumCandidates() != 2 {
		t.Fatalf("candidates = %d", tr.NumCandidates())
	}
	if tr.Root.NumCandidatesBelow() != 2 {
		t.Fatal("root subtree count")
	}
	tr.MarkDead(a)
	if tr.NumCandidates() != 1 || tr.Root.NumCandidatesBelow() != 1 {
		t.Fatal("counters after MarkDead")
	}
	tr.MarkFence(b)
	if tr.NumCandidates() != 0 {
		t.Fatal("counters after MarkFence")
	}
	tr.FenceToCandidate(b)
	if tr.NumCandidates() != 1 {
		t.Fatal("counters after FenceToCandidate")
	}
}

func TestDuplicateChildPanics(t *testing.T) {
	tr := build(t)
	tr.AddChild(tr.Root, 0, Virtual, Fence, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate child should panic")
		}
	}()
	tr.AddChild(tr.Root, 0, Virtual, Fence, nil)
}

func TestPathFromRoot(t *testing.T) {
	tr := build(t)
	n := tr.Root
	choices := []uint8{1, 0, 2}
	for _, c := range choices {
		n = tr.AddChild(n, c, Virtual, Fence, nil)
	}
	got := n.PathFromRoot()
	if len(got) != 3 || got[0] != 1 || got[1] != 0 || got[2] != 2 {
		t.Fatalf("path = %v", got)
	}
	if n.Depth != 3 {
		t.Fatalf("depth = %d", n.Depth)
	}
}

func TestChildAt(t *testing.T) {
	tr := build(t)
	c := tr.AddChild(tr.Root, 2, Virtual, Fence, nil)
	if tr.ChildAt(tr.Root, 2) != c {
		t.Fatal("ChildAt lookup")
	}
	if tr.ChildAt(tr.Root, 0) != nil || tr.ChildAt(tr.Root, 9) != nil {
		t.Fatal("absent children should be nil")
	}
}

func TestNearestMaterializedAncestor(t *testing.T) {
	tr := build(t)
	// Root has no state in this test; simulate a fence with state deeper.
	a := tr.AddChild(tr.Root, 0, Virtual, Fence, nil)
	b := tr.AddChild(a, 0, Virtual, Fence, nil)
	c := tr.AddChild(b, 1, Virtual, Candidate, nil)
	if tr.NearestMaterializedAncestor(c) != nil {
		t.Fatal("no ancestor should have state yet")
	}
}

func TestCandidatesUnder(t *testing.T) {
	tr := build(t)
	tr.MarkDead(tr.Root)
	a := tr.AddChild(tr.Root, 0, Materialized, Candidate, nil)
	b := tr.AddChild(tr.Root, 1, Materialized, Dead, nil)
	c := tr.AddChild(b, 0, Materialized, Candidate, nil)
	_ = a
	got := tr.CandidatesUnder(tr.Root, 100)
	if len(got) != 2 {
		t.Fatalf("candidates under root = %d", len(got))
	}
	if limited := tr.CandidatesUnder(tr.Root, 1); len(limited) != 1 {
		t.Fatalf("limit ignored: %d", len(limited))
	}
	under := tr.CandidatesUnder(b, 10)
	if len(under) != 1 || under[0] != c {
		t.Fatalf("candidates under b = %v", under)
	}
}

func TestPruneReclaimsAllDeadSubtrees(t *testing.T) {
	tr := build(t)
	tr.MarkDead(tr.Root)
	a := tr.AddChild(tr.Root, 0, Materialized, Dead, nil)
	tr.AddChild(a, 0, Materialized, Dead, nil)
	tr.AddChild(a, 1, Materialized, Dead, nil)
	live := tr.AddChild(tr.Root, 1, Materialized, Candidate, nil)
	nodesBefore := tr.NumNodes()
	removed := tr.Prune()
	if removed != 3 {
		t.Fatalf("removed = %d, want the 3 dead descendants", removed)
	}
	if tr.NumNodes() != nodesBefore-3 {
		t.Fatal("node count after prune")
	}
	if tr.ChildAt(tr.Root, 1) != live {
		t.Fatal("live subtree must survive prune")
	}
	if tr.ChildAt(tr.Root, 0) != nil {
		t.Fatal("dead subtree should be gone")
	}
}

func TestPruneKeepsFences(t *testing.T) {
	tr := build(t)
	tr.MarkDead(tr.Root)
	f := tr.AddChild(tr.Root, 0, Materialized, Fence, nil)
	tr.Prune()
	if tr.ChildAt(tr.Root, 0) != f {
		t.Fatal("fence nodes must survive pruning (owned by other workers)")
	}
}

// TestNodeSizeBudget: a node is allocated per fork, so the typed
// strategy fields (CovYield, and Faults in the padding beside Choice /
// Status / Life) must not grow it past the 80 bytes it had with the
// Meta map pointer.
func TestNodeSizeBudget(t *testing.T) {
	if sz := unsafe.Sizeof(Node{}); sz > 80 {
		t.Fatalf("tree.Node is %d bytes, budget 80", sz)
	}
}
