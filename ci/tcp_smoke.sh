#!/usr/bin/env bash
# Cluster smoke test: a real 3-process TCP exploration of a coreutils
# miniature with one worker kill -9'd mid-run must finish with exactly
# the same path count as a single-node run — the load balancer evicts the
# silent worker when its lease lapses and re-seats its last-reported
# frontier onto the survivors. The cluster runs a *mixed* strategy
# portfolio (each worker is handed a different searcher at Hello and
# keeps it until it leaves), proving heterogeneous policies preserve the
# custody protocol's exactness through an eviction.
# The default portfolio includes the static distance-to-uncovered
# strategies (dist-opt, cupa(dist,dfs)) so the smoke also proves md2u
# re-ranking never perturbs the explored path set.
#
# With KILL_TARGET=lb the victim is the coordination plane itself: the
# load balancer is kill -9'd mid-run and `c9-lb -resume` is started at
# the same address. The workers re-dial it with their membership views,
# and the finished run must still match the single-node path count
# exactly, with the re-hello window's close journaled (resync), nothing
# journaled as work-abandoned, `restart: abandoned=0` in the report and
# zero false evictions.
#
# The data plane under test is selectable: DATA_PLANE=p2p (default)
# ships job payloads worker→worker over peer sessions, with the LB
# carrying metadata only (a batch whose peer link is down is relayed
# through the LB); depth replaces shipping entirely with deterministic
# depth-ranged work units each worker re-derives locally. The pinned
# path count must reproduce bit-for-bit in both modes, and the script
# asserts the mode's payload signature from the obs dump: p2p and depth
# runs without a peer fault must show c9_lb_payload_bytes_total == 0.
#
# Usage: ci/tcp_smoke.sh [target] [port]
# Env:   PORTFOLIO  overrides the strategy mix (comma-separated specs).
#        SMOKE_LOGS directory for logs + obs artifacts (metrics scrapes,
#                   the LB's final metrics/journal dump obs.json);
#                   default a fresh mktemp dir. Nightly sets it to
#                   archive the observability artifacts.
#        DATA_PLANE p2p (default) | depth — passed to the LB as
#                   -data-plane; workers inherit the mode at Hello.
#        KILL_TARGET worker (default) kill -9's one worker; lb kill -9's
#                   the load balancer and restarts it with -resume;
#                   none runs fault-free to completion (used by the
#                   PR-blocking p2p cell to assert the zero-payload
#                   invariant without recovery noise, and that the
#                   workers' finished subtrees collapsed).
#        KILL_DELAY seconds between every worker having joined and the
#                   kill -9 (default 0). Every miniature drains in under
#                   a second, so "mid-run" is made true by construction:
#                   one non-seed worker is kill -STOP'd the moment its
#                   join line appears (polled every 5 ms), and a stopped
#                   member echoes no probe, so the run cannot end before
#                   the kill -9 lands. It is the victim in worker mode;
#                   in lb mode it is continued after the kill, and the
#                   resumed balancer's re-hello window waits for it.
#
# PR CI runs the fast single-target form (`test`) in p2p with both kill
# targets, plus a fault-free p2p run in the bench job that fails if any payload byte
# crossed the LB; the nightly gauntlet runs the full fault matrix
# (`test` + `printf`, worker and lb kills, under p2p and depth) through
# the same script.
set -euo pipefail

PORTFOLIO="${PORTFOLIO:-cupa(dist,dfs),dist-opt,dfs}"
KILL_DELAY="${KILL_DELAY:-0}"
KILL_TARGET="${KILL_TARGET:-worker}"
DATA_PLANE="${DATA_PLANE:-p2p}"
case "$DATA_PLANE" in
  p2p | depth) ;;
  *)
    echo "smoke: unknown DATA_PLANE '$DATA_PLANE' (want p2p|depth)" >&2
    exit 1
    ;;
esac
case "$KILL_TARGET" in
  worker | lb | none) ;;
  *)
    echo "smoke: unknown KILL_TARGET '$KILL_TARGET' (want worker|lb|none)" >&2
    exit 1
    ;;
esac

# The coreutils `test` miniature explores ~552 paths.
TARGET="${1:-test}"
PORT="${2:-7911}"
BIN="$(mktemp -d)"
LOGS="${SMOKE_LOGS:-$(mktemp -d)}"
mkdir -p "$LOGS"
# A stopped (held) worker only acts on the signal once continued.
trap 'kill $(jobs -p) 2>/dev/null || true; kill -CONT $(jobs -p) 2>/dev/null || true' EXIT

echo "== building binaries"
go build -o "$BIN" ./cmd/c9 ./cmd/c9-lb ./cmd/c9-worker

echo "== single-node reference run ($TARGET)"
"$BIN/c9" -target "$TARGET" -tests=false -stats | tee "$LOGS/single.txt"
REF=$(awk '/^paths explored:/ {print $3}' "$LOGS/single.txt")
if [[ -z "$REF" || "$REF" -eq 0 ]]; then
  echo "smoke: could not get reference path count" >&2
  exit 1
fi
echo "== reference: $REF paths"

if [[ "$KILL_TARGET" == "none" ]]; then
  echo "== starting LB + 3 workers (mixed portfolio: $PORTFOLIO; data plane: $DATA_PLANE; fault-free)"
else
  echo "== starting LB + 3 workers (mixed portfolio: $PORTFOLIO; data plane: $DATA_PLANE; will kill -9 one $KILL_TARGET mid-run)"
fi
# The lease must stay well under the post-kill run time so the eviction
# + re-seat actually happens before quiescence; a live worker inside a
# long solver step keeps its membership through its transport's
# keepalive (every quarter lease). The interval tier shrank these runs
# to a second or two, hence 500ms.
OBS_PORT=$((PORT + 1))
LB_DUMP="$LOGS/obs.json"
if [[ "$KILL_TARGET" == "lb" ]]; then
  # The first balancer dies mid-run, so the artifact-grade dump must come
  # from its restart: the resumed balancer writes obs.json.
  LB_DUMP="$LOGS/obs-killed.json"
fi
LB_FLAGS=(-listen "127.0.0.1:$PORT" -target "$TARGET" -portfolio "$PORTFOLIO"
  -lease 500ms -max-duration 5m -data-plane "$DATA_PLANE" -obs-addr "127.0.0.1:$OBS_PORT")
"$BIN/c9-lb" "${LB_FLAGS[@]}" -min-workers 3 -obs-dump "$LB_DUMP" >"$LOGS/lb.txt" 2>&1 &
LB_PID=$!
sleep 1

# Live exposition check: the LB is parked behind its min-workers barrier
# (no worker has dialed in yet), so /metrics must answer right now.
if ! curl -sf "http://127.0.0.1:$OBS_PORT/metrics" >"$LOGS/metrics-early.txt"; then
  echo "smoke: FAIL — LB /metrics not answering before the run" >&2
  exit 1
fi
grep -q '^c9_lb_members ' "$LOGS/metrics-early.txt" || {
  echo "smoke: FAIL — /metrics missing c9_lb_members gauge" >&2
  exit 1
}

WPIDS=()
for i in 0 1 2; do
  "$BIN/c9-worker" -lb "127.0.0.1:$PORT" -target "$TARGET" -batch 8 \
    >"$LOGS/worker$i.txt" 2>&1 &
  WPIDS+=($!)
done

# Kill once the run is underway: every worker has joined (the LB's
# min-workers barrier lifts and dispatch begins), so in worker mode the
# victim is a full member the survivors must be re-seated around, and in
# lb mode every worker's view names all three. The run is
# kept from ending before the kill by construction: the first worker to
# join under an id other than 0 (in p2p, worker 0 is the seed, whose
# whole tree no one else holds until it first reports) is kill -STOP'd
# on its join line, and a stopped member neither reports nor echoes a
# probe. In worker mode it is the victim; in lb mode it is continued
# once the primary is dead.
HELD=
for _ in $(seq 1 2000); do
  # Counted first, so the last pass that stops a worker sees every join counted.
  n=$(grep -l "joined as worker" "$LOGS"/worker[012].txt 2>/dev/null | wc -l || true)
  for i in 0 1 2; do
    if [[ "$KILL_TARGET" != "none" && -z "$HELD" ]] &&
      grep -q "joined as worker [1-9]" "$LOGS/worker$i.txt" 2>/dev/null &&
      kill -STOP "${WPIDS[$i]}" 2>/dev/null; then
      HELD=$i
    fi
  done
  [[ "$n" -eq 3 ]] && break
  sleep 0.005
done
if [[ "$KILL_TARGET" == "lb" && "$DATA_PLANE" == "p2p" ]]; then
  # The journal must show payload moving worker to worker, and after the
  # kill the seed can drain the tree alone before the restart is up:
  # let the balancer issue its first transfer order (the held worker keeps
  # the run open meanwhile; its 500ms lease bounds the wait).
  for _ in $(seq 1 40); do
    curl -sf "http://127.0.0.1:$OBS_PORT/metrics" 2>/dev/null |
      grep -q '^c9_lb_transfers_issued_total [1-9]' && break
    sleep 0.005
  done
fi
sleep "$KILL_DELAY"
if [[ "$KILL_TARGET" == "lb" ]]; then
  if kill -0 "$LB_PID" 2>/dev/null; then
    echo "== kill -9 LB pid $LB_PID, restart with -resume on the same port"
    kill -9 "$LB_PID"
    wait "$LB_PID" 2>/dev/null || true
    "$BIN/c9-lb" "${LB_FLAGS[@]}" -resume -obs-dump "$LOGS/obs.json" >"$LOGS/lb-resumed.txt" 2>&1 &
    LB_PID=$!
    if [[ -n "$HELD" ]]; then kill -CONT "${WPIDS[$HELD]}"; fi
  else
    echo "smoke: LB exited before the kill — run too short for a mid-run crash" >&2
    exit 1
  fi
elif [[ "$KILL_TARGET" == "worker" ]]; then
  if [[ -n "$HELD" ]] && kill -0 "${WPIDS[$HELD]}" 2>/dev/null; then
    echo "== kill -9 worker pid ${WPIDS[$HELD]}"
    kill -9 "${WPIDS[$HELD]}"
  else
    echo "smoke: no worker but the seed was still running at the kill — run too short for a mid-run crash" >&2
    exit 1
  fi
fi

# Best-effort mid-recovery scrape: the post-kill run lasts until the
# lease (or the restart's re-hello window) lapses plus re-exploration,
# usually enough to catch /metrics with live deltas folded in. Non-fatal
# if the run outraces us. In lb mode the exporter is the resumed
# balancer's, on the same port.
curl -sf "http://127.0.0.1:$OBS_PORT/metrics" >"$LOGS/metrics-mid.txt" 2>/dev/null || true

# The balancer that prints the final report: the LB in worker mode, its
# restart in lb mode.
REPORT_LOG="$LOGS/lb.txt"
if [[ "$KILL_TARGET" == "lb" ]]; then
  REPORT_LOG="$LOGS/lb-resumed.txt"
fi
wait "$LB_PID"
cat "$REPORT_LOG"

TOTAL=$(awk -F'paths=' '/^cluster total:/ {split($2,a," "); print a[1]}' "$REPORT_LOG")
EVICTS=$(awk -F'evictions=' '/^membership:/ {split($2,a," "); print a[1]}' "$REPORT_LOG")
echo "== cluster total: ${TOTAL:-?} paths (reference $REF), evictions: ${EVICTS:-?}"

if [[ -z "${TOTAL:-}" ]]; then
  echo "smoke: LB never printed a cluster total" >&2
  exit 1
fi
if [[ "$TOTAL" -ne "$REF" ]]; then
  echo "smoke: FAIL — cluster explored $TOTAL paths, single node explored $REF" >&2
  exit 1
fi
if [[ "$KILL_TARGET" == "lb" ]]; then
  # No worker died: a single false eviction means the restart evicted a
  # worker that was still re-dialing, and a single abandoned member means
  # it gave up on one.
  if [[ "${EVICTS:-0}" -ne 0 ]]; then
    echo "smoke: FAIL — resumed LB falsely evicted $EVICTS worker(s)" >&2
    exit 1
  fi
  if ! grep -q '^restart: abandoned=0$' "$REPORT_LOG"; then
    echo "smoke: FAIL — resumed LB did not report abandoned=0" >&2
    grep '^restart:' "$REPORT_LOG" >&2 || true
    exit 1
  fi
elif [[ "$KILL_TARGET" == "worker" && "${EVICTS:-0}" -lt 1 ]]; then
  echo "smoke: FAIL — the killed worker was never evicted" >&2
  exit 1
elif [[ "$KILL_TARGET" == "none" && "${EVICTS:-0}" -ne 0 ]]; then
  echo "smoke: FAIL — fault-free run evicted $EVICTS worker(s)" >&2
  exit 1
fi
DISTINCT=$(sed -n 's/.*strategy \(.*\))$/\1/p' "$LOGS"/worker*.txt | sort -u | wc -l)
if [[ "$DISTINCT" -lt 2 ]]; then
  echo "smoke: FAIL — portfolio not heterogeneous (only $DISTINCT distinct strategies)" >&2
  exit 1
fi

# The stdout `cluster total:` line is read off the LB's fleet metric
# fold (live members' metrics as of their last full status, departed
# members' at their departure), and the obs dump holds the same fold:
# both must equal the single-node count, c9_engine_paths_total == cluster
# total == REF, so neither the printed report nor the dump can drift
# from the run.
if [[ ! -s "$LOGS/obs.json" ]]; then
  echo "smoke: FAIL — LB never wrote the obs dump" >&2
  exit 1
fi
OBS_PATHS=$(sed -n 's/.*"c9_engine_paths_total": \([0-9]*\).*/\1/p' "$LOGS/obs.json" | head -1)
if [[ "${OBS_PATHS:-}" != "$REF" ]]; then
  echo "smoke: FAIL — metrics path count ${OBS_PATHS:-?} != reference $REF" >&2
  exit 1
fi
# Finished subtrees collapse as their last path ends (tree.Collapse),
# checked on the fault-free run. A single-node reference without budget
# kills (`test`, `printf`) must end with its root alone; a killed path
# keeps its nodes. The workers' final tree nodes, summed, are printed
# beside the path count but not gated: what the collapse leaves there is
# the prefixes to the jobs each worker shipped and imported, and their
# fences, which grow with the transfers a run happens to make (0.6–2.3 ×
# paths on `test`, against 2.5–3.2 × without the collapse).
if [[ "$KILL_TARGET" == "none" ]]; then
  SINGLE_NODES=$(sed -n 's/^memory:.*tree_nodes=\([0-9]*\).*/\1/p' "$LOGS/single.txt")
  KILLS=$(awk '/^solver killed:/ {print $3}' "$LOGS/single.txt")
  NODES=$(sed -n 's/.*"c9_engine_tree_nodes": \([0-9]*\).*/\1/p' "$LOGS/obs.json" | head -1)
  echo "== tree nodes left: ${SINGLE_NODES:-?} single-node, ${NODES:-?} over the workers, for $TOTAL paths"
  if [[ "${KILLS:-}" == 0 && "${SINGLE_NODES:-}" != 1 ]]; then
    echo "smoke: FAIL — the single-node run kept ${SINGLE_NODES:-?} tree nodes, want its root alone" >&2
    exit 1
  fi
  if [[ -z "${NODES:-}" ]]; then
    echo "smoke: FAIL — the metrics dump has no c9_engine_tree_nodes" >&2
    exit 1
  fi
fi
# Payload signature of the data plane, from the same dump. p2p keeps
# every job payload off the LB — but only a fault-free run may assert
# the zero strictly, because a kill can legitimately trigger the
# peer→relay fallback mid-fault. depth never ships at all, so its zero
# holds even under kills.
PAYLOAD=$(sed -n 's/.*"c9_lb_payload_bytes_total": \([0-9]*\).*/\1/p' "$LOGS/obs.json" | head -1)
PAYLOAD="${PAYLOAD:-0}"
case "$DATA_PLANE" in
  depth)
    if [[ "$PAYLOAD" -ne 0 ]]; then
      echo "smoke: FAIL — depth mode moved $PAYLOAD payload bytes through the LB, want 0" >&2
      exit 1
    fi
    ;;
  p2p)
    if [[ "$KILL_TARGET" == "none" && "$PAYLOAD" -ne 0 ]]; then
      echo "smoke: FAIL — p2p mode moved $PAYLOAD payload bytes through the LB, want 0" >&2
      exit 1
    fi
    ;;
esac

# The journal must tell the recovery story for the fault injected, plus
# the data plane's own vocabulary: peer-session-open proves payload
# moved worker→worker, unit-grant proves depth ownership was handed
# out. Depth mode never ships, so it has no custody to re-seat — and
# the victim may die before owning a unit, so unit-reclaim is not
# asserted. A p2p victim may likewise die before it has reported a
# frontier (on a fast target, killed the moment it joins): worker-evict
# carries the job count of the frontier it last reported, and the two
# re-seat events are required only when some eviction had one to re-seat.
EVENTS=""
case "$KILL_TARGET" in
  lb)
    EVENTS="resync"
    if grep -q '"type": "work-abandoned"' "$LOGS/obs.json"; then
      echo "smoke: FAIL — the restart journaled work-abandoned" >&2
      exit 1
    fi
    ;;
  worker)
    EVENTS="worker-evict"
    if [[ "$DATA_PLANE" != "depth" ]] && grep -Eq '"frontier": "[1-9][0-9]*"' "$LOGS/obs.json"; then
      EVENTS="worker-evict custody-reseat reseat-replayed"
    fi
    ;;
esac
case "$DATA_PLANE" in
  p2p) EVENTS="$EVENTS peer-session-open" ;;
  depth)
    if [[ "$KILL_TARGET" == "lb" ]]; then
      # The restart's journal starts at the restart, and the dead LB may
      # have granted every unit already: the workers' acquires prove the
      # ownership hand-out instead.
      grep -Eq '"c9_cluster_unit_acquires_total": [1-9]' "$LOGS/obs.json" || {
        echo "smoke: FAIL — no depth unit was ever acquired" >&2
        exit 1
      }
    else
      EVENTS="$EVENTS unit-grant"
    fi
    ;;
esac
for ev in $EVENTS; do
  grep -q "\"type\": \"$ev\"" "$LOGS/obs.json" || {
    echo "smoke: FAIL — journal missing $ev event" >&2
    exit 1
  }
done
echo "== obs: metrics path count $OBS_PATHS matches, lb payload bytes $PAYLOAD, recovery journaled"
if [[ "$KILL_TARGET" == "none" ]]; then
  echo "smoke: OK — mixed-portfolio $DATA_PLANE cluster (fault-free) matches single-node exploration ($TOTAL paths, $DISTINCT strategies)"
else
  echo "smoke: OK — mixed-portfolio crash-tolerant $DATA_PLANE cluster ($KILL_TARGET killed) matches single-node exploration ($TOTAL paths, $DISTINCT strategies)"
fi
