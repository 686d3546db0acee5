package engine

import (
	"runtime/metrics"
	"sync/atomic"

	"cloud9/internal/obs"
	"cloud9/internal/solver"
)

// initObs builds the explorer's observability plane: a per-worker
// registry plus journal. Engine and solver counters are folded in as
// collect-time sources reading only atomics — snapshots may be taken
// from a scrape goroutine concurrent with exploration, and the hot
// paths stay a single atomic add with no registry lookups.
func (e *Explorer) initObs() {
	e.Obs = obs.NewRegistry()
	e.Journal = obs.NewJournal(0)
	e.covLines = e.Obs.Gauge(obs.MEngineCoverageLines)
	e.depthHist = e.Obs.Histogram(obs.MEnginePathDepth, obs.ExpBuckets(4, 2, 10))
	e.testsCtr = e.Obs.Counter(obs.MEngineTests)
	e.treeNodes = e.Obs.Gauge(obs.MEngineTreeNodes)
	e.treeNodes.Set(int64(e.Tree.NumNodes()))

	st := &e.Stats
	e.Obs.AddSource(func(s *obs.Snapshot) {
		s.PutCounter(obs.MEnginePaths, atomic.LoadUint64(&st.PathsExplored))
		s.PutCounter(obs.MEngineErrors, atomic.LoadUint64(&st.Errors))
		s.PutCounter(obs.MEngineHangs, atomic.LoadUint64(&st.Hangs))
		s.PutCounter(obs.MEngineUsefulSteps, atomic.LoadUint64(&st.UsefulSteps))
		s.PutCounter(obs.MEngineReplaySteps, atomic.LoadUint64(&st.ReplaySteps))
		s.PutCounter(obs.MEngineMaterialized, atomic.LoadUint64(&st.Materialized))
		s.PutCounter(obs.MEngineBrokenReplays, atomic.LoadUint64(&st.BrokenReplays))
		s.PutCounter(obs.MEngineBudgetKills, atomic.LoadUint64(&st.SolverKilled))
		live := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		metrics.Read(live)
		s.PutGauge(obs.MGoHeapLiveBytes, int64(live[0].Value.Uint64()))
	})
	if e.In != nil && e.In.Solver != nil {
		ss := &e.In.Solver.Stats
		e.Obs.AddSource(func(s *obs.Snapshot) {
			PutSolverStats(s, ss.Snapshot())
		})
	}
}

// PutSolverStats folds a solver.Stats snapshot into an obs snapshot
// under the exported c9_solver_* names.
func PutSolverStats(s *obs.Snapshot, st solver.Stats) {
	s.PutCounter(obs.MSolverQueries, st.Queries)
	s.PutCounter(obs.MSolverGroupCacheHits, st.GroupCacheHits)
	s.PutCounter(obs.MSolverForkQueries, st.ForkQueries)
	s.PutCounter(obs.MSolverForkFastHits, st.ForkFastHits)
	s.PutCounter(obs.MSolverForkIntervalHits, st.ForkIntervalHits)
	s.PutCounter(obs.MSolverIntervalEmpty, st.IntervalEmpty)
	s.PutCounter(obs.MSolverStateHits, st.StateHits)
	s.PutCounter(obs.MSolverStateExtends, st.StateExtends)
	s.PutCounter(obs.MSolverRuns, st.SolverRuns)
	s.PutCounter(obs.MSolverBacktracks, st.Backtracks)
	s.PutCounter(obs.MSolverUnsat, st.Unsat)
	s.PutCounter(obs.MSolverUnitPropFolds, st.UnitPropFolds)
	s.PutCounter(obs.MSolverKillMemoHits, st.KillMemoHits)
	s.PutCounter(obs.MSolverPruneMemoHits, st.PruneMemoHits)
	s.PutCounter(obs.MSolverPruneMemoMisses, st.PruneMemoMisses)
	s.PutCounter(obs.MSolverPruneEvals, st.PruneEvals)
}
