package obs

import "fmt"

// Exported metric names. Every name any layer registers lives here so
// aggregation sites (cluster.Run, the LB fleet view, CI cross-checks)
// and docs/operations.md reference one vocabulary. Convention:
// c9_<layer>_<metric>[_total]; per-slot series carry a literal
// {slot="N"} label.
const (
	// Engine exploration counters (internal/engine).
	MEnginePaths         = "c9_engine_paths_total"
	MEngineErrors        = "c9_engine_errors_total"
	MEngineHangs         = "c9_engine_hangs_total"
	MEngineUsefulSteps   = "c9_engine_useful_steps_total"
	MEngineReplaySteps   = "c9_engine_replay_steps_total"
	MEngineMaterialized  = "c9_engine_materialized_total"
	MEngineBrokenReplays = "c9_engine_broken_replays_total"
	MEngineBudgetKills   = "c9_engine_budget_kills_total"
	MEngineTests         = "c9_engine_tests_total"
	MEngineCoverageLines = "c9_engine_coverage_lines" // gauge
	MEnginePathDepth     = "c9_engine_path_depth"     // histogram

	// Solver tiers and caches (internal/solver, folded from solver.Stats).
	MSolverQueries          = "c9_solver_queries_total"
	MSolverCacheHits        = "c9_solver_cache_hits_total"
	MSolverGroupCacheHits   = "c9_solver_group_cache_hits_total"
	MSolverForkQueries      = "c9_solver_fork_queries_total"
	MSolverForkFastHits     = "c9_solver_fork_fast_hits_total"
	MSolverForkIntervalHits = "c9_solver_fork_interval_hits_total"
	MSolverIntervalSat      = "c9_solver_interval_sat_total"
	MSolverIntervalUnsat    = "c9_solver_interval_unsat_total"
	MSolverIntervalEmpty    = "c9_solver_interval_empty_total"
	MSolverIntervalSeeds    = "c9_solver_interval_seeds_total"
	MSolverStateHits        = "c9_solver_state_hits_total"
	MSolverStateExtends     = "c9_solver_state_extends_total"
	MSolverRuns             = "c9_solver_runs_total"
	MSolverBacktracks       = "c9_solver_backtracks_total"
	MSolverUnsat            = "c9_solver_unsat_total"
	MSolverUnitPropFolds    = "c9_solver_unit_prop_folds_total"
	MSolverPruneMemoHits    = "c9_solver_prune_memo_hits_total"
	MSolverPruneMemoMisses  = "c9_solver_prune_memo_misses_total"
	MSolverPruneEvals       = "c9_solver_prune_evals_total"

	// Retired, exported by nothing: bench/layers.go reads them until the next benchmark PR drops them.
	MSolverModelReuse   = "c9_solver_model_reuse_total"
	MSolverSubsumeSat   = "c9_solver_subsume_sat_total"
	MSolverSubsumeUnsat = "c9_solver_subsume_unsat_total"

	// Cluster protocol, worker side (internal/cluster).
	MClusterJobsSent        = "c9_cluster_jobs_sent_total"
	MClusterJobsRecv        = "c9_cluster_jobs_recv_total"
	MClusterTransfersIn     = "c9_cluster_transfers_in_total"
	MClusterBatchGaps       = "c9_cluster_batch_gaps_total"
	MClusterBatchResends    = "c9_cluster_batch_resends_total"
	MClusterReimports       = "c9_cluster_reimports_total"
	MClusterReseatImports   = "c9_cluster_reseat_imports_total"
	MClusterStrategySwaps   = "c9_cluster_strategy_swaps_total"
	MClusterQueueJobs       = "c9_cluster_queue_jobs"        // gauge
	MClusterBatchImportJobs = "c9_cluster_batch_import_jobs" // histogram

	// Data plane, worker side: peer job-shipping sessions and the bytes
	// each channel moved.
	MClusterPeerOpens     = "c9_cluster_peer_sessions_opened_total"
	MClusterPeerCloses    = "c9_cluster_peer_sessions_closed_total"
	MClusterPeerFallbacks = "c9_cluster_peer_fallbacks_total"
	MClusterPeerBytes     = "c9_cluster_peer_payload_bytes_total"
	MClusterRelayBytes    = "c9_cluster_relay_payload_bytes_total"
	MClusterUnitAcquires  = "c9_cluster_unit_acquires_total"

	// Load balancer / fleet (internal/cluster LB side).
	MLBMembers           = "c9_lb_members" // gauge
	MLBJoins             = "c9_lb_joins_total"
	MLBEvictions         = "c9_lb_evictions_total"
	MLBLeaves            = "c9_lb_leaves_total"
	MLBTransfersIssued   = "c9_lb_transfers_issued_total"
	MLBStatesTransferred = "c9_lb_states_transferred_total"
	MLBReseats           = "c9_lb_reseats_total"
	MLBReseatJobs        = "c9_lb_reseat_jobs_total"
	MLBRebalances        = "c9_lb_rebalances_total"
	MLBCoverageLines     = "c9_lb_coverage_lines" // gauge

	// Data plane, LB side. MLBPayloadBytes counts job-payload bytes that
	// transited the LB (the per-batch peer-link fallback); a healthy P2P
	// run keeps it at zero, which CI asserts. MLBRepSnapshots counts state
	// snapshots served to attaching standbys, one per attach.
	MLBPayloadBytes   = "c9_lb_payload_bytes_total"
	MLBRelayedBatches = "c9_lb_relayed_batches_total"
	MLBUnitGrants     = "c9_lb_unit_grants_total"
	MLBUnitReclaims   = "c9_lb_unit_reclaims_total"
	MLBUnitsUnclaimed = "c9_lb_units_unclaimed" // gauge
	MLBRepSnapshots   = "c9_lb_rep_snapshots_total"

	// Control-plane replication / failover (LB high availability).
	MLBTerm       = "c9_lb_term"                // gauge: promotions + 1 (which primary incarnation this is)
	MLBRepEntries = "c9_lb_rep_entries_total"   // inputs logged for (streamed to) standbys
	MLBPromotions = "c9_lb_promotions_total"    // standby promotions folded into this LB's history
	MLBReadmits   = "c9_lb_readmits_total"      // members re-admitted after a missed-join failover window
	MLBStandbyLag = "c9_lb_standby_lag_entries" // gauge (standby): entries behind the primary's last seen seq
	MLBStandbySeq = "c9_lb_standby_applied_seq" // gauge (standby): last applied replication-log seq
)

// MLBSlotYield is the cumulative coverage yield credited to portfolio
// slot i (search/portfolio selection shares).
func MLBSlotYield(i int) string {
	return fmt.Sprintf("c9_lb_slot_yield_total{slot=%q}", fmt.Sprint(i))
}

// MLBSlotWorkers is the gauge of workers currently assigned to slot i.
func MLBSlotWorkers(i int) string {
	return fmt.Sprintf("c9_lb_slot_workers{slot=%q}", fmt.Sprint(i))
}
