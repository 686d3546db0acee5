#!/usr/bin/env bash
# Perf-ledger A/B: measures workloads of the repo's benchmark
# (BENCHMARK.json, bench/README.md) on a base commit and on the working
# tree, and prints a markdown table of the end-to-end metrics: each
# side's median and quartiles, the change in medians, how many pairs the
# head won, and the bound BENCHMARK.json allows.
#
# The base ref is exported with git archive into a temporary directory
# (under $TMPDIR). Each workload is run in PAIRS pairs of `go run ./bench
# -workload W -seed S -trace 0` (one run lasts run_seconds from
# BENCHMARK.json), base and head alternating and the order flipped every
# pair, so a slow minute on a shared machine lands on both sides. Pair i
# (from 0) runs seed SEED+i on both sides.
#
# It reports; it does not gate. The benchmark's rule for a claimed gain
# is at least ten pairs, the head ahead in at least nine, and the medians
# further apart than the base's quartiles; rerun a claim on held-out
# seeds (SEED=101) before believing it. The default three pairs only say
# where to look. A run that misses a pinned count does fail the script:
# that is a correctness bug.
#
# Usage: [PAIRS=n] [SEED=s] ci/ledger_ab.sh BASE_REF WORKLOAD...
#        PAIRS=10 ci/ledger_ab.sh HEAD~1 memcached-hard sort-many
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -lt 2 ]]; then
  echo "usage: [PAIRS=n] [SEED=s] ci/ledger_ab.sh BASE_REF WORKLOAD..." >&2
  exit 2
fi
base_ref=$1
shift

pairs=${PAIRS:-3}
seed=${SEED:-1}
seconds=$(jq .run_seconds BENCHMARK.json)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/base"
git archive "$base_ref" | tar -x -C "$tmp/base"

# measure SIDE DIR WORKLOAD SEED: one ledger run; its result line is
# appended to $tmp/WORKLOAD.SIDE.
measure() {
  echo "== $3 seed $4: $1" >&2
  (cd "$2" && go run ./bench -workload "$3" -seed "$4" -trace 0 -seconds "$seconds") |
    tail -n 1 >>"$tmp/$3.$1"
}

# values SIDE WORKLOAD METRIC: the metric in each pair, in pair order.
values() {
  jq -r --arg m "$3" '.metrics[$m].value' "$tmp/$2.$1"
}

for w in "$@"; do
  for ((i = 0; i < pairs; i++)); do
    if ((i % 2 == 0)); then
      measure base "$tmp/base" "$w" $((seed + i))
      measure head "$PWD" "$w" $((seed + i))
    else
      measure head "$PWD" "$w" $((seed + i))
      measure base "$tmp/base" "$w" $((seed + i))
    fi
  done

  echo
  echo "### $w: $(git rev-parse --short "$base_ref") (base) vs head, $pairs alternating ${seconds}s pairs, seeds $seed-$((seed + pairs - 1))"
  echo
  echo "| metric | unit | better | base median [q1, q3] | head median [q1, q3] | change | head won | may worsen by |"
  echo "|---|---|---|---|---|---|---|---|"
  jq -r '.end_to_end[] | [.name, .unit, .better, .bound] | @tsv' BENCHMARK.json |
    while IFS=$'\t' read -r name unit better bound; do
      paste <(values base "$w" "$name") <(values head "$w" "$name") |
        awk -v n="$name" -v u="$unit" -v bt="$better" -v bd="$bound" '
          # q: the p-quantile of the sorted s[1..k], interpolated.
          function q(s, k, p,    x, i) {
            x = 1 + (k - 1) * p
            i = int(x)
            return i >= k ? s[k] : s[i] + (x - i) * (s[i + 1] - s[i])
          }
          function sort(s, k,    i, j, t) {
            for (i = 2; i <= k; i++)
              for (j = i; j > 1 && s[j - 1] > s[j]; j--) { t = s[j]; s[j] = s[j - 1]; s[j - 1] = t }
          }
          {
            b[NR] = $1; h[NR] = $2
            if (bt == "lower" ? $2 < $1 : $2 > $1) won++
          }
          END {
            sort(b, NR); sort(h, NR)
            mb = q(b, NR, 0.5); mh = q(h, NR, 0.5)
            printf "| `%s` | %s | %s | %.4g [%.4g, %.4g] | %.4g [%.4g, %.4g] | %+.1f%% | %d/%d | %.0f%% |\n",
              n, u, bt, mb, q(b, NR, 0.25), q(b, NR, 0.75), mh, q(h, NR, 0.25), q(h, NR, 0.75),
              100 * (mh / mb - 1), won, NR, 100 * bd
          }'
    done
done
