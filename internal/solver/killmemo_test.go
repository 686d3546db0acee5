package solver

import (
	"errors"
	"slices"
	"testing"

	"cloud9/internal/expr"
)

// killBudget is small enough that every hard group is killed in
// microseconds.
const killBudget = 64

// behindUnit is cons appended after the unit v100 == k: a different set
// for every k, so the query cache misses, holding the same group, since
// the unit binds no group variable and leaves no constraint behind.
func behindUnit(k uint64, cons []*expr.Expr) *ConstraintSet {
	cs := emptySet.Append(expr.Eq(c8(k), v(100)))
	for _, c := range cons {
		cs = cs.Append(c)
	}
	return cs
}

// mustKill returns the *BudgetError err carries, failing the test if it
// carries none.
func mustKill(t *testing.T, err error) *BudgetError {
	t.Helper()
	var kill *BudgetError
	if !errors.As(err, &kill) {
		t.Fatalf("want a budget kill, got %v", err)
	}
	return kill
}

// freshKill is the kill a new solver reports when it searches cs itself.
func freshKill(t *testing.T, cs *ConstraintSet, budget uint64) BudgetError {
	t.Helper()
	s := New()
	s.MaxBacktracks = budget
	_, err := s.checkSat(cs)
	return *mustKill(t, err)
}

// A second query over a killed group's exact input is answered from the
// memo without searching, with the kill a fresh search of it reports.
func TestKillMemoReplaysTheKill(t *testing.T) {
	for _, g := range hardGroups() {
		s := New()
		s.MaxBacktracks = killBudget
		_, err := s.checkSat(behindUnit(1, g.cons))
		if first := mustKill(t, err); first.Memo {
			t.Fatalf("%s: the first kill came from the memo", g.name)
		}
		before := s.Stats.Snapshot()
		cs := behindUnit(2, g.cons)
		_, err = s.checkSat(cs)
		kill := mustKill(t, err)
		after := s.Stats.Snapshot()
		if after.SolverRuns != before.SolverRuns || after.Backtracks != before.Backtracks {
			t.Errorf("%s: the replay searched: runs %d -> %d, backtracks %d -> %d", g.name,
				before.SolverRuns, after.SolverRuns, before.Backtracks, after.Backtracks)
		}
		if after.KillMemoHits != before.KillMemoHits+1 || !kill.Memo {
			t.Errorf("%s: kill memo hits %d -> %d, Memo %v", g.name, before.KillMemoHits, after.KillMemoHits, kill.Memo)
		}
		got := *kill
		got.Memo = false
		if want := freshKill(t, cs, killBudget); got != want {
			t.Errorf("%s: memo kill %+v, a fresh search reports %+v", g.name, got, want)
		}
	}
}

// Everything a search is a function of is in the memo's key: change any
// of it and the search runs again. The same input at the same or a
// lower budget is answered, whichever kind of query asks.
func TestKillMemoKey(t *testing.T) {
	mc := hardGroups()[0]
	// mc with pkt1#4 < 250: a group whose bounds are tightened, which
	// may-queries and full-model queries search alike.
	capped := append(slices.Clone(mc.cons), expr.Binary(expr.OpUlt, expr.Var(4, "pkt1"), c8(250)))
	cases := []struct {
		name   string
		cons   []*expr.Expr
		query  func(s *Solver, rec *ConstraintSet) error
		answer bool // answered from the memo
	}{
		{"same input", mc.cons, func(s *Solver, _ *ConstraintSet) error {
			_, err := s.checkSat(behindUnit(2, mc.cons))
			return err
		}, true},
		{"another order", mc.cons, func(s *Solver, _ *ConstraintSet) error {
			rev := slices.Clone(mc.cons)
			slices.Reverse(rev)
			if groupHash(rev) != mc.key {
				t.Fatal("reordering changed the group key")
			}
			_, err := s.checkSat(behindUnit(2, rev))
			return err
		}, false},
		{"Solve on tightened bounds", capped, func(s *Solver, rec *ConstraintSet) error {
			if iv := s.state(rec).bounds.get(4); iv == (ival8{0, 255}) {
				t.Fatal("pkt1#4 < 250 did not narrow its bounds")
			}
			_, _, err := s.Solve(rec) // the recording checkSat was a may-query
			if kill := mustKill(t, err); !kill.Memo {
				t.Error("the full-model query searched again")
			}
			return err
		}, true},
		{"outer binding", mc.cons, func(s *Solver, rec *ConstraintSet) error {
			// Groups are variable-disjoint from units by construction, so
			// the state that binds a group variable is built by hand.
			ids := groupIDs(mc.cons)
			var units expr.Assignment
			units.Set(ids[0], 7)
			cs := emptySet.Append(expr.Eq(c8(3), v(100)))
			cs.memo = &setState{owner: s, units: units, bounds: s.state(rec).bounds,
				groups: []*igroup{{cons: mc.cons, vars: expr.VarSetOf(ids), key: mc.key}}}
			_, err := s.checkSat(cs)
			return err
		}, false},
		{"raised budget", mc.cons, func(s *Solver, _ *ConstraintSet) error {
			s.MaxBacktracks = 2 * killBudget
			_, err := s.checkSat(behindUnit(2, mc.cons))
			return err
		}, false},
		{"lowered budget", mc.cons, func(s *Solver, _ *ConstraintSet) error {
			s.MaxBacktracks = killBudget / 2
			cs := behindUnit(2, mc.cons)
			_, err := s.checkSat(cs)
			if kill := mustKill(t, err); kill.Memo {
				got := *kill
				got.Memo = false
				if want := freshKill(t, cs, killBudget/2); got != want {
					t.Errorf("memo kill %+v, a fresh search reports %+v", got, want)
				}
			}
			return err
		}, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := New()
			s.MaxBacktracks = killBudget
			rec := behindUnit(1, c.cons)
			if _, err := s.checkSat(rec); !errors.Is(err, ErrBudget) {
				t.Fatalf("recording query: want a budget kill, got %v", err)
			}
			before := s.Stats.Snapshot()
			c.query(s, rec)
			after := s.Stats.Snapshot()
			runs, hits := after.SolverRuns-before.SolverRuns, after.KillMemoHits-before.KillMemoHits
			if c.answer && (runs != 0 || hits != 1) {
				t.Errorf("want an answer from the memo: %d searches, %d memo hits", runs, hits)
			}
			if !c.answer && (runs != 1 || hits != 0) {
				t.Errorf("want a search: %d searches, %d memo hits", runs, hits)
			}
		})
	}
}

// The memo is bounded like the other solver caches.
func TestKillMemoIsBounded(t *testing.T) {
	s := New()
	s.MaxBacktracks = killBudget
	s.maxCache = 4
	mc := hardGroups()[0]
	for i := range 10 {
		cons := append(slices.Clone(mc.cons), expr.Binary(expr.OpUlt, expr.Var(4, "pkt1"), c8(uint64(250-i))))
		if _, err := s.checkSat(behindUnit(1, cons)); !errors.Is(err, ErrBudget) {
			t.Fatalf("group %d: want a budget kill, got %v", i, err)
		}
		if len(s.kills) > s.maxCache || len(s.killKeys) != len(s.kills) {
			t.Fatalf("group %d: %d kills, %d keys, cap %d", i, len(s.kills), len(s.killKeys), s.maxCache)
		}
	}
}
