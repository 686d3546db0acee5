package solver

import (
	"maps"
	"slices"
	"testing"

	"cloud9/internal/expr"
)

// enumSat is the solver's reference: it reports whether every
// constraint of cs and every one of conds holds under some assignment,
// by enumeration. It shares no code with the solver: it reads the set
// through Slice only, splits the conjunction by shared variables alone,
// keeps no cache, and decides a constraint by expr.Eval alone. A
// constraint whose Eval fails (a zero divisor) does not hold, as in
// EvalAll. A component over more than 3 variables is refused, not
// skipped, so a test that would need one fails instead of checking less
// than it says.
func enumSat(t testing.TB, cs *ConstraintSet, conds ...*expr.Expr) bool {
	t.Helper()
	cons := append(cs.Slice(), conds...)
	parent := map[uint64]uint64{}
	var find func(id uint64) uint64
	find = func(id uint64) uint64 {
		if p, ok := parent[id]; ok && p != id {
			parent[id] = find(p)
			return parent[id]
		}
		parent[id] = id
		return id
	}
	for _, c := range cons {
		ids := c.VarIDs()
		for j := 1; j < len(ids); j++ {
			parent[find(ids[j])] = find(ids[0])
		}
	}
	comps := map[uint64][]*expr.Expr{} // by union-find root
	for _, c := range cons {
		ids := c.VarIDs()
		if len(ids) == 0 {
			if v, ok := c.Eval(nil); !ok || v == 0 {
				return false
			}
			continue
		}
		r := find(ids[0])
		comps[r] = append(comps[r], c)
	}
	for _, r := range slices.Sorted(maps.Keys(comps)) {
		if !enumComponent(t, comps[r]) {
			return false
		}
	}
	return true
}

// enumComponent reports whether cons, one component, has a solution. It
// binds the variables in ascending id order, every value of each in
// turn, and checks a constraint once its highest variable is bound.
func enumComponent(t testing.TB, cons []*expr.Expr) bool {
	t.Helper()
	ids := groupIDs(cons)
	if len(ids) > 3 {
		t.Fatalf("enumeration refuses a component over %d variables %v: %v", len(ids), ids, cons)
	}
	ready := make([][]*expr.Expr, len(ids)) // by the index of the highest variable
	for _, c := range cons {
		vs := c.VarIDs()
		k, _ := slices.BinarySearch(ids, vs[len(vs)-1])
		ready[k] = append(ready[k], c)
	}
	var a expr.Assignment
	var bind func(k int) bool
	bind = func(k int) bool {
		if k == len(ids) {
			return true
		}
	next:
		for x := 0; x < 256; x++ {
			a.Set(ids[k], uint8(x))
			for _, c := range ready[k] {
				if v, ok := c.Eval(a); !ok || v == 0 {
					continue next
				}
			}
			if bind(k + 1) {
				return true
			}
		}
		return false
	}
	return bind(0)
}
