#!/usr/bin/env bash
# pairs: the paired-run protocol behind a performance claim, scripted once.
# Runs PAIRS alternating parent/change pairs of one workload of the
# end-to-end benchmark (pay_saturate unless WORKLOAD says otherwise) — the
# parent commit from a `git archive` copy under .bench_build/, the change
# from this checkout — on consecutive seeds, the side that goes first
# alternating from pair to pair, and prints per pair and as median
# [quartiles] the metrics named as arguments, end-to-end (close_ms_p50) or
# per-layer (herder.nomination_ms_mean), as the benchmark prints them.
# Both sides run the same command with the same arguments; nothing under
# bench/ is touched, and every run's full output is kept under
# .bench_build/pairs-runs/ for the other metrics. Minutes per pair, and the
# numbers mean something only on a quiet machine.
#
# TRACE picks the benchmark's --trace: auto (the default) is 1 when a
# per-layer name is asked for and 0 otherwise. The window is measured
# untraced either way; --trace 1 adds the layer replay and the restart
# epilogue after it, which the R rows and herder.rejoin_s need and the
# scraped S rows (herder.*, runtime.*, transport.*) do not — TRACE=0 keeps
# those runs short.
#
#   PARENT=HEAD~1 PAIRS=10 SEED=601 WORKLOAD=pay_saturate SECONDS_=16 \
#       scripts/pairs.sh close_ms_p50 applied_tx_s herder.nomination_ms_mean
set -euo pipefail

cd "$(dirname "$0")/.."

PARENT="${PARENT:-HEAD~1}"
PAIRS="${PAIRS:-10}"
SEED="${SEED:-601}"
WORKLOAD="${WORKLOAD:-pay_saturate}"
SECONDS_="${SECONDS_:-16}"
TRACE="${TRACE:-auto}"
metrics=("$@")
if ((${#metrics[@]} == 0)); then
    echo "usage: [PARENT=ref] [PAIRS=n] [SEED=n] [WORKLOAD=name] [SECONDS_=n] [TRACE=auto|0|1] $0 metric..." >&2
    exit 2
fi
if [[ "$TRACE" == auto ]]; then
    TRACE=0
    [[ "${metrics[*]}" == *.* ]] && TRACE=1
fi

parent_dir="$PWD/.bench_build/pairs-parent"
rm -rf "$parent_dir"
mkdir -p "$parent_dir"
git archive "$PARENT" | tar -x -C "$parent_dir"
runs_dir="$PWD/.bench_build/pairs-runs/$WORKLOAD"
mkdir -p "$runs_dir"
echo "parent $(git rev-parse --short "$PARENT") in $parent_dir, change = this checkout; $WORKLOAD, $PAIRS pairs, seeds $SEED.., --seconds $SECONDS_ --trace $TRACE"

# run <side> <checkout> <seed> prints the asked metrics of one run, in
# order, or fails.
run() {
    local out="$runs_dir/$3-$1.txt"
    if ! (cd "$2" && bash bench/run.sh --workload "$WORKLOAD" --seed "$3" --seconds "$SECONDS_" --trace "$TRACE") >"$out" 2>&1 ||
        ! grep -q 'correct=true' "$out"; then
        echo "$1 run with seed $3 failed or is not correct: see $out" >&2
        return 1
    fi
    local name
    for name in "${metrics[@]}"; do
        # A row reads "e2e <name> <value> <unit>" or "<S|R|B> <name> <value> <unit>".
        awk -v name="$name" '$2 == name { v = $3 } END { if (v == "") exit 1; printf "%s ", v }' "$out" || {
            echo "$1 run with seed $3 printed no $name (an R row needs TRACE=1): see $out" >&2
            return 1
        }
    done
}

results="$runs_dir/pairs.txt" # seed, then the metrics of the parent, then of the change
: >"$results"
n=${#metrics[@]}
for ((i = 0; i < PAIRS; i++)); do
    seed=$((SEED + i))
    if ((i % 2 == 0)); then
        p="$(run parent "$parent_dir" "$seed")"; c="$(run change "$PWD" "$seed")"
    else
        c="$(run change "$PWD" "$seed")"; p="$(run parent "$parent_dir" "$seed")"
    fi
    echo "$seed $p $c" | tee -a "$results" |
        awk -v n="$n" -v names="${metrics[*]}" 'BEGIN { split(names, name, " ") } {
            printf "seed %d", $1
            for (k = 1; k <= n; k++) printf "  %s %.1f -> %.1f", name[k], $(1 + k), $(1 + n + k)
            print "" }'
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
for ((k = 1; k <= n; k++)); do
    pc=$((1 + k)) cc=$((1 + n + k))
    printf '  %-32s parent %s  change %s  change lower in %d/%d, higher in %d/%d\n' "${metrics[k - 1]}" \
        "$(awk -v c=$pc '{ print $c }' "$results" | summarise)" "$(awk -v c=$cc '{ print $c }' "$results" | summarise)" \
        "$(awk -v p=$pc -v c=$cc '$c < $p' "$results" | wc -l)" "$PAIRS" \
        "$(awk -v p=$pc -v c=$cc '$c > $p' "$results" | wc -l)" "$PAIRS"
done
