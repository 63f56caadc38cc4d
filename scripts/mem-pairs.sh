#!/usr/bin/env bash
# mem-pairs: the paired-run protocol for a memory claim, scripted once.
# Runs PAIRS alternating parent/change pairs of one workload of the
# end-to-end benchmark (pay_saturate unless WORKLOAD says otherwise) — the
# parent commit from a `git archive` copy under .bench_build/, the change
# from this checkout — on consecutive seeds, the side that goes first
# alternating from pair to pair, and prints per pair and as median
# [quartiles] the two memory figures: node_peak_rss_mb (the bounded
# end-to-end metric) and runtime.heap_mb_end (where a saving should show).
# Both sides run the same command with the same arguments; nothing under
# bench/ is touched, and every run's full output is kept under
# .bench_build/mem-runs/ for the other metrics. Minutes per pair, and the
# numbers mean something only on a quiet machine.
#
#   PARENT=HEAD~1 PAIRS=10 SEED=601 WORKLOAD=pay_saturate SECONDS_=16 scripts/mem-pairs.sh
set -euo pipefail

cd "$(dirname "$0")/.."

PARENT="${PARENT:-HEAD~1}"
PAIRS="${PAIRS:-10}"
SEED="${SEED:-601}"
WORKLOAD="${WORKLOAD:-pay_saturate}"
SECONDS_="${SECONDS_:-16}"

parent_dir="$PWD/.bench_build/mem-parent"
rm -rf "$parent_dir"
mkdir -p "$parent_dir"
git archive "$PARENT" | tar -x -C "$parent_dir"
runs_dir="$PWD/.bench_build/mem-runs/$WORKLOAD"
mkdir -p "$runs_dir"
echo "parent $(git rev-parse --short "$PARENT") in $parent_dir, change = this checkout; $WORKLOAD, $PAIRS pairs, seeds $SEED.., --seconds $SECONDS_"

# run <side> <checkout> <seed> prints "rss heap" of one run, or fails.
run() {
    local out="$runs_dir/$3-$1.txt"
    if ! (cd "$2" && bash bench/run.sh --workload "$WORKLOAD" --seed "$3" --seconds "$SECONDS_" --trace 0) >"$out" 2>&1 ||
        ! grep -q 'correct=true' "$out"; then
        echo "$1 run with seed $3 failed or is not correct: see $out" >&2
        return 1
    fi
    awk '$2 == "node_peak_rss_mb" { rss = $3 } $2 == "runtime.heap_mb_end" { heap = $3 } END { print rss, heap }' "$out"
}

results="$runs_dir/pairs.txt" # seed, then rss and heap of the parent, then of the change
: >"$results"
for ((i = 0; i < PAIRS; i++)); do
    seed=$((SEED + i))
    if ((i % 2 == 0)); then
        p="$(run parent "$parent_dir" "$seed")"; c="$(run change "$PWD" "$seed")"
    else
        c="$(run change "$PWD" "$seed")"; p="$(run parent "$parent_dir" "$seed")"
    fi
    echo "$seed $p $c" | tee -a "$results" |
        awk '{ printf "seed %d  node_peak_rss_mb %.1f -> %.1f  runtime.heap_mb_end %.1f -> %.1f\n", $1, $2, $4, $3, $5 }'
done

# Median and quartiles (linear interpolation between order statistics).
summarise() {
    sort -n | awk '{ v[NR] = $1 } END {
        split("0.5 0.25 0.75", q, " ")
        for (k = 1; k <= 3; k++) { h = 1 + (NR - 1) * q[k]; lo = int(h); hi = lo < NR ? lo + 1 : lo
            r[k] = v[lo] + (h - lo) * (v[hi] - v[lo]) }
        printf "%.1f [%.1f, %.1f]", r[1], r[2], r[3] }'
}
echo "median [quartiles] over $PAIRS pairs:"
echo "  node_peak_rss_mb     parent $(awk '{print $2}' "$results" | summarise)  change $(awk '{print $4}' "$results" | summarise)  change lower in $(awk '$4 < $2' "$results" | wc -l)/$PAIRS"
echo "  runtime.heap_mb_end  parent $(awk '{print $3}' "$results" | summarise)  change $(awk '{print $5}' "$results" | summarise)  change lower in $(awk '$5 < $3' "$results" | wc -l)/$PAIRS"
