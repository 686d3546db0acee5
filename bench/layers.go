package main

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"os"
	"runtime"

	"cloud9/internal/cluster"
	"cloud9/internal/engine"
	"cloud9/internal/expr"
	"cloud9/internal/obs"
	"cloud9/internal/solver"
)

// layers fills in a traced run's per-layer metrics and trace summary.
// fleet is the sum of the explorers' registries at the end of the timed
// interval; the direct drives run after it was taken.
func (r *run) layers(out *childOut, nodes []*node, fleet obs.Snapshot, m *meter, ms *runtime.MemStats) error {
	L := map[string]float64{}
	out.Layer = L
	c := out.Counts
	ctr := func(name string) float64 { return float64(fleet.Counter(name)) }

	var instr, maxPaths uint64
	frontierMax := 0
	for _, n := range nodes {
		instr += n.in.Stats.Instructions
		frontierMax = max(frontierMax, n.strat.frontierMax)
		maxPaths = max(maxPaths, n.exp.Stats.PathsExplored)
	}
	L["engine.useful_steps"] = float64(c.Useful)
	L["engine.replay_steps"] = ctr(obs.MEngineReplaySteps)
	L["engine.replay_frac"] = ratio(ctr(obs.MEngineReplaySteps), ctr(obs.MEngineReplaySteps)+float64(c.Useful))
	L["engine.materialized"] = ctr(obs.MEngineMaterialized)
	L["engine.broken_replays"] = float64(out.Broken)
	L["engine.budget_kills"] = float64(c.Kills)
	L["engine.failed_frac"] = ratio(
		float64(c.Kills+out.Broken+absDiff(c.Paths, r.w.pins(r.small).Paths)),
		float64(c.Paths+c.Kills+out.Broken))
	L["search.frontier_max"] = float64(frontierMax)
	L["interp.instructions"] = float64(instr)
	L["interp.instr_per_s"] = float64(instr) / out.WallS
	L["solver.queries"] = ctr(obs.MSolverQueries)
	L["solver.fork_queries"] = ctr(obs.MSolverForkQueries)
	L["solver.interval_hits"] = ctr(obs.MSolverIntervalSat) + ctr(obs.MSolverIntervalUnsat) +
		ctr(obs.MSolverIntervalEmpty) + ctr(obs.MSolverForkIntervalHits)
	L["solver.cache_hits"] = ctr(obs.MSolverCacheHits) + ctr(obs.MSolverModelReuse) + ctr(obs.MSolverSubsumeSat) +
		ctr(obs.MSolverSubsumeUnsat) + ctr(obs.MSolverGroupCacheHits) + ctr(obs.MSolverForkFastHits)
	L["solver.searches"] = ctr(obs.MSolverRuns)
	L["solver.backtracks"] = ctr(obs.MSolverBacktracks)
	L["solver.backtracks_per_search"] = ratio(ctr(obs.MSolverBacktracks), ctr(obs.MSolverRuns))
	L["solver.unsat"] = ctr(obs.MSolverUnsat)
	L["cluster.path_skew"] = ratio(float64(maxPaths)*float64(len(nodes)), float64(c.Paths))
	L["cluster.lb_payload_bytes"] = float64(out.LBPayload)
	L["cluster.peer_payload_bytes"] = ctr(obs.MClusterPeerBytes)
	L["cluster.transfers"], L["cluster.states_transferred"] = 0, 0 // the balancer's, if there is one
	internNodes, internHits := expr.InternStats()
	L["expr.intern_nodes"] = float64(internNodes)
	L["expr.intern_hits"] = float64(internHits)
	L["runtime.mallocs"] = float64(ms.Mallocs - m.ms0.Mallocs)
	L["runtime.gc_cycles"] = float64(ms.NumGC - m.ms0.NumGC)
	L["runtime.gc_pause_s"] = seconds(int64(ms.PauseTotalNs - m.ms0.PauseTotalNs))
	L["runtime.gc_cpu_frac"] = ms.GCCPUFraction

	// Direct drives, after the timed interval.
	rs := r.solverReplay(nodes)
	L["solver.replay_queries"] = float64(rs.Queries)
	L["solver.replay_searches"] = float64(rs.SolverRuns)
	L["solver.replay_backtracks"] = float64(rs.Backtracks)
	L["ship.jobs"], L["ship.replay_steps"] = 0, 0
	if r.w.Name == singleNodeOf {
		jobs, steps, err := r.shipDrive()
		if err != nil {
			return err
		}
		L["ship.jobs"], L["ship.replay_steps"] = float64(jobs), float64(steps)
	}

	trs := []*tracer{r.tr}
	for _, n := range nodes {
		if n.tr != r.tr { // a cluster worker's own
			trs = append(trs, n.tr)
		}
	}
	sum := summarize(fmt.Sprintf("%s-seed%d-pid%d", r.w.Name, r.seed, os.Getpid()), merge(trs...))
	out.Trace = sum
	total := func(name uint8) float64 { return sum.stat(name).TotalS }

	L["cc.compile_s"] = total(spCompile)
	L["cfg.build_s"] = total(spCfg)
	L["engine.new_s"] = total(spEngineNew)
	step := sum.stat(spStep)
	L["engine.steps"] = float64(step.Count)
	L["engine.step_s"] = step.TotalS
	L["engine.step_p50_us"] = step.P50us
	L["engine.step_p99_us"] = step.P99us
	L["engine.step_max_s"] = step.MaxS
	L["engine.slow_step_s"] = step.SlowS
	L["engine.slow_steps"] = float64(step.SlowCount)
	L["engine.self_s"] = step.SelfS
	L["interp.ns_per_instr"] = ratio(step.SelfS*1e9, float64(instr))
	L["search.select_s"] = total(spSelect)
	L["search.update_s"] = total(spAdd) + total(spRemove) + total(spNotify)
	L["search.selects"] = float64(sum.stat(spSelect).Count)
	L["search.frac"] = ratio(L["search.select_s"]+L["search.update_s"], step.TotalS)
	L["solver.replay_s"] = total(spSolverReplay)
	L["ship.export_s"] = total(spShipExport)
	L["ship.encode_s"] = total(spShipEncode)
	L["ship.import_s"] = total(spShipImport)
	L["ship.replay_s"] = total(spShipReplay)

	// The cluster layer. A single-node run reports it idle.
	wait, sendLB, sendJobs := total(spWaitMail), total(spSendLB), total(spSendJobs)
	L["cluster.wait_mail_s"] = wait
	L["cluster.idle_frac"] = wait / (workers * out.WallS)
	L["cluster.send_lb_s"] = sendLB
	L["cluster.status_msgs"] = float64(sum.stat(spSendLB).Count)
	L["cluster.send_jobs_s"] = sendJobs
	L["cluster.job_batches"] = float64(sum.stat(spSendJobs).Count)
	L["cluster.recv_msgs"] = float64(sum.stat(spRecv).Count)
	L["cluster.serve_s"] = total(spServe)
	L["cluster.worker_busy_s"] = total(spRunLoop) - wait - sendLB - sendJobs
	return nil
}

// solverReplay drives the solver alone: every constraint set that
// entered a frontier during the run is solved again, in the order it
// was seen, by a solver that has seen nothing. What it covers, and what
// it cannot, is in README.md.
func (r *run) solverReplay(nodes []*node) solver.Stats {
	s := solver.New()
	if r.w.MaxBacktracks != 0 {
		s.MaxBacktracks = r.w.MaxBacktracks
	}
	r.tr.timed(spSolverReplay, func() {
		for _, n := range nodes {
			for _, cs := range n.strat.harvest {
				// A verdict of any kind is the work being timed.
				_, _, _ = s.Solve(cs)
			}
		}
	})
	return s.Stats.Snapshot()
}

// Sizes of the ship-path drive: rounds of shipStride steps on the
// exporting side, each followed by one export of half its frontier.
const (
	shipRounds = 32
	shipStride = 256
)

// shipDrive drives the job-shipping path alone, without a network.
// Explorer A explores as the run did and, every shipStride steps,
// exports half its frontier; the paths are built into a job tree, put
// through gob as the TCP fabric would, and imported by a fresh explorer
// B, which materialises each job and advances it one fork. B searches
// breadth-first, so its first steps are exactly the imported jobs, in
// order. A then takes its jobs back, as a worker does when a send
// fails, so that it does not run dry after two rounds. It returns the
// jobs shipped and the instructions replayed.
func (r *run) shipDrive() (jobs int, replayed uint64, err error) {
	quiet := *r // the drive's own set-up is not the run's
	quiet.tr = nil
	newExplorer := func(spec string) (*engine.Explorer, error) {
		in, err := quiet.newInterp()
		if err != nil {
			return nil, err
		}
		return engine.New(in, "main", r.engineConfig(spec, &node{}))
	}
	a, err := newExplorer(r.w.Spec)
	if err != nil {
		return 0, 0, err
	}
	for round := 0; round < shipRounds && !a.Done(); round++ {
		if _, err := a.RunToCompletion(shipStride); err != nil {
			return 0, 0, err
		}
		b, err := newExplorer("bfs")
		if err != nil {
			return 0, 0, err
		}
		b.DropRoot()

		var exported, paths [][]uint8
		r.tr.timed(spShipExport, func() { exported = a.ExportCandidates(a.Tree.NumCandidates() / 2) })
		r.tr.timed(spShipEncode, func() {
			var wire bytes.Buffer
			var jt cluster.JobTree
			if err = gob.NewEncoder(&wire).Encode(cluster.BuildJobTree(exported)); err == nil {
				err = gob.NewDecoder(&wire).Decode(&jt)
			}
			paths = jt.Paths()
		})
		if err != nil {
			return 0, 0, err
		}
		var n int
		r.tr.timed(spShipImport, func() { n = b.ImportJobs(paths) })
		r.tr.timed(spShipReplay, func() { _, err = b.RunToCompletion(n) })
		if err != nil {
			return 0, 0, err
		}
		jobs += n
		replayed += b.Stats.ReplaySteps
		a.ImportJobs(exported)
	}
	return jobs, replayed, nil
}

// ratio is a/b, and 0 when there is nothing to divide by.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func absDiff(a, b uint64) uint64 {
	if a > b {
		return a - b
	}
	return b - a
}
