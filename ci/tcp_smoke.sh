#!/usr/bin/env bash
# Cluster smoke test: a real 3-process TCP exploration of a coreutils
# miniature with one worker kill -9'd mid-run must finish with exactly
# the same path count as a single-node run — the load balancer evicts the
# silent worker when its lease lapses and re-seats its last-reported
# frontier onto the survivors. The cluster runs a *mixed* strategy
# portfolio (each worker is handed a different searcher at Hello, and
# the eviction triggers a rebalance), proving heterogeneous policies
# and mid-run reassignment preserve the custody protocol's exactness.
# The default portfolio includes the static distance-to-uncovered
# strategies (dist-opt, cupa(dist,dfs)) so the smoke also proves md2u
# re-ranking never perturbs the explored path set.
#
# With KILL_TARGET=lb the victim is the coordination plane itself: the
# primary load balancer is kill -9'd mid-run with a warm standby tailing
# its replication stream. The standby must promote itself after its grace,
# the workers (dialed with both addresses) must rotate onto it, and the
# finished run must still match the single-node path count exactly, with
# the promotion protocol (primary-lost → standby-promoted → epoch-bump →
# resync) journaled and zero false evictions.
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
#                   the primary load balancer (standby takes over);
#                   none runs fault-free to completion (used by the
#                   PR-blocking p2p cell to assert the zero-payload
#                   invariant without recovery noise).
#        KILL_DELAY seconds between the victim joining and the kill -9
#                   (default 0: since the solver's interval tier landed,
#                   every miniature drains in under a second, so the
#                   kill must fire the moment the victim joins — any
#                   later and it races the run's natural completion.
#                   Quiescence cannot be declared around a silent
#                   member, so the eviction and re-seat still always
#                   happen before the LB can finish. In lb mode the
#                   promoted standby likewise cannot finish before its
#                   resync window closes).
#
# PR CI runs the fast single-target form (`test`) in p2p, plus a
# fault-free p2p run in the bench job that fails if any payload byte
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
trap 'kill $(jobs -p) 2>/dev/null || true' EXIT

echo "== building binaries"
go build -o "$BIN" ./cmd/c9 ./cmd/c9-lb ./cmd/c9-worker

echo "== single-node reference run ($TARGET)"
"$BIN/c9" -target "$TARGET" -tests=false | tee "$LOGS/single.txt"
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
# Lease must exceed the worst single solver query (a worker cannot
# heartbeat mid-step — microseconds now that the interval tier answers
# most branch queries), but stay well under the post-kill run time so
# the eviction + re-seat actually happens before quiescence. The
# interval tier shrank these runs to a second or two, hence 500ms.
OBS_PORT=$((PORT + 1))
SB_PORT=$((PORT + 2))
SB_OBS_PORT=$((PORT + 3))
LB_DUMP="$LOGS/obs.json"
WORKER_LB="127.0.0.1:$PORT"
if [[ "$KILL_TARGET" == "lb" ]]; then
  # The primary dies mid-run, so the artifact-grade dump must come from
  # the survivor: the promoted standby writes obs.json.
  LB_DUMP="$LOGS/obs-primary.json"
  WORKER_LB="127.0.0.1:$PORT,127.0.0.1:$SB_PORT"
fi
"$BIN/c9-lb" -listen "127.0.0.1:$PORT" -target "$TARGET" -min-workers 3 \
  -portfolio "$PORTFOLIO" -lease 500ms -max-duration 5m \
  -data-plane "$DATA_PLANE" \
  -obs-addr "127.0.0.1:$OBS_PORT" -obs-dump "$LB_DUMP" >"$LOGS/lb.txt" 2>&1 &
LB_PID=$!
sleep 1
SB_PID=
if [[ "$KILL_TARGET" == "lb" ]]; then
  "$BIN/c9-lb" -listen "127.0.0.1:$SB_PORT" -standby -peer "127.0.0.1:$PORT" \
    -promote-grace 1s -target "$TARGET" -min-workers 3 -lease 500ms \
    -max-duration 5m -data-plane "$DATA_PLANE" \
    -obs-addr "127.0.0.1:$SB_OBS_PORT" \
    -obs-dump "$LOGS/obs.json" >"$LOGS/standby.txt" 2>&1 &
  SB_PID=$!
  sleep 1
fi

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
  "$BIN/c9-worker" -lb "$WORKER_LB" -target "$TARGET" -batch 8 \
    >"$LOGS/worker$i.txt" 2>&1 &
  WPIDS+=($!)
done

# Kill once the run is underway: every worker has joined (the LB's
# min-workers barrier lifts and dispatch begins), so in worker mode the
# victim is a full member the survivors must be re-seated around, and in
# lb mode the standby already holds the full membership.
for _ in $(seq 1 200); do
  n=0
  for i in 0 1 2; do
    grep -q "joined as worker" "$LOGS/worker$i.txt" 2>/dev/null && n=$((n + 1))
  done
  [[ "$n" -eq 3 ]] && break
  sleep 0.05
done
sleep "$KILL_DELAY"
if [[ "$KILL_TARGET" == "lb" ]]; then
  if kill -0 "$LB_PID" 2>/dev/null; then
    echo "== kill -9 primary LB pid $LB_PID"
    kill -9 "$LB_PID"
  else
    echo "smoke: primary LB exited before the kill — run too short for a mid-run crash" >&2
    exit 1
  fi
elif [[ "$KILL_TARGET" == "worker" ]]; then
  if kill -0 "${WPIDS[1]}" 2>/dev/null; then
    echo "== kill -9 worker pid ${WPIDS[1]}"
    kill -9 "${WPIDS[1]}"
  else
    echo "smoke: worker 1 exited before the kill — run too short for a mid-run crash" >&2
    exit 1
  fi
fi

# Best-effort mid-recovery scrape: the post-kill run lasts until the
# lease (or promote grace) lapses plus re-exploration, usually enough to
# catch /metrics with live deltas folded in. Non-fatal if the run
# outraces us. In lb mode the primary's exporter died with it, so the
# scrape targets the standby (which answers once promoted).
if [[ "$KILL_TARGET" == "lb" ]]; then
  curl -sf "http://127.0.0.1:$SB_OBS_PORT/metrics" >"$LOGS/metrics-mid.txt" 2>/dev/null || true
else
  curl -sf "http://127.0.0.1:$OBS_PORT/metrics" >"$LOGS/metrics-mid.txt" 2>/dev/null || true
fi

# The survivor that prints the final report: the LB in worker mode, the
# promoted standby in lb mode.
REPORT_LOG="$LOGS/lb.txt"
if [[ "$KILL_TARGET" == "lb" ]]; then
  REPORT_LOG="$LOGS/standby.txt"
  wait "$SB_PID"
else
  wait "$LB_PID"
fi
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
  # No worker died: a single false eviction means the promoted standby
  # acted on stale replicated state instead of waiting out its resync
  # window.
  if [[ "${EVICTS:-0}" -ne 0 ]]; then
    echo "smoke: FAIL — promoted standby falsely evicted $EVICTS worker(s)" >&2
    exit 1
  fi
  if ! grep -q '^replication: term=2 promotions=1$' "$REPORT_LOG"; then
    echo "smoke: FAIL — promoted standby did not report term=2 promotions=1" >&2
    grep '^replication:' "$REPORT_LOG" >&2 || true
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

# The final obs dump must agree with the stdout accounting to the path:
# the fleet metric fold and the member-record sum are the same cut
# (metrics-at-LastFull), so c9_engine_paths_total == cluster total == REF.
if [[ ! -s "$LOGS/obs.json" ]]; then
  echo "smoke: FAIL — LB never wrote the obs dump" >&2
  exit 1
fi
OBS_PATHS=$(sed -n 's/.*"c9_engine_paths_total": \([0-9]*\).*/\1/p' "$LOGS/obs.json" | head -1)
if [[ "${OBS_PATHS:-}" != "$REF" ]]; then
  echo "smoke: FAIL — metrics path count ${OBS_PATHS:-?} != reference $REF" >&2
  exit 1
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
  lb) EVENTS="primary-lost standby-promoted epoch-bump resync" ;;
  worker)
    EVENTS="worker-evict"
    if [[ "$DATA_PLANE" != "depth" ]] && grep -Eq '"frontier": "[1-9][0-9]*"' "$LOGS/obs.json"; then
      EVENTS="worker-evict custody-reseat reseat-replayed"
    fi
    ;;
esac
case "$DATA_PLANE" in
  p2p) EVENTS="$EVENTS peer-session-open" ;;
  depth) EVENTS="$EVENTS unit-grant" ;;
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
