#!/usr/bin/env bash
# Perf-ledger A/B: measures workloads of the repo's benchmark
# (BENCHMARK.json, bench/README.md) on a base commit and on the working
# tree, and prints a markdown table of the end-to-end metrics — both
# medians, the relative change, and the bound BENCHMARK.json allows.
#
# The base ref is checked out into a temporary git worktree. Each
# workload is run three times per side as `go run ./bench -workload W
# -seed 1 -trace 0` (one run lasts run_seconds from BENCHMARK.json), base
# and head alternating and the order flipped every pair, so a slow
# minute on a shared machine lands on both sides.
#
# It reports; it does not gate. Three pairs are too few to claim a gain
# or a regression (the benchmark's own rule asks for ten) — the table
# says where to look before spending those runs. A run that misses a
# pinned count does fail the script: that is a correctness bug.
#
# Usage: ci/ledger_ab.sh BASE_REF WORKLOAD...
#        ci/ledger_ab.sh HEAD~1 base32-default wc-dfs
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -lt 2 ]]; then
  echo "usage: ci/ledger_ab.sh BASE_REF WORKLOAD..." >&2
  exit 2
fi
base_ref=$1
shift

pairs=3
seconds=$(jq .run_seconds BENCHMARK.json)
tmp=$(mktemp -d)
git worktree add --quiet --detach "$tmp/base" "$base_ref"
trap 'git worktree remove --force "$tmp/base"; rm -rf "$tmp"' EXIT

# measure SIDE DIR WORKLOAD: one ledger run; its result line is appended
# to $tmp/WORKLOAD.SIDE.
measure() {
  echo "== $3: $1" >&2
  (cd "$2" && go run ./bench -workload "$3" -seed 1 -trace 0 -seconds "$seconds") |
    tail -n 1 >>"$tmp/$3.$1"
}

# median SIDE WORKLOAD METRIC
median() {
  jq -s --arg m "$3" '[.[].metrics[$m].value] | sort | .[length / 2 | floor]' "$tmp/$2.$1"
}

for w in "$@"; do
  for ((i = 0; i < pairs; i++)); do
    if ((i % 2 == 0)); then
      measure base "$tmp/base" "$w"
      measure head "$PWD" "$w"
    else
      measure head "$PWD" "$w"
      measure base "$tmp/base" "$w"
    fi
  done

  echo
  echo "### $w: $(git rev-parse --short "$base_ref") (base) vs head, medians of $pairs alternating ${seconds}s runs"
  echo
  echo "| metric | unit | better | base | head | change | may worsen by |"
  echo "|---|---|---|---|---|---|---|"
  jq -r '.end_to_end[] | [.name, .unit, .better, .bound] | @tsv' BENCHMARK.json |
    while IFS=$'\t' read -r name unit better bound; do
      b=$(median base "$w" "$name")
      h=$(median head "$w" "$name")
      awk -v n="$name" -v u="$unit" -v bt="$better" -v b="$b" -v h="$h" -v bd="$bound" 'BEGIN {
        printf "| `%s` | %s | %s | %.4g | %.4g | %+.1f%% | %.0f%% |\n", n, u, bt, b, h, 100 * (h / b - 1), 100 * bd
      }'
    done
done
