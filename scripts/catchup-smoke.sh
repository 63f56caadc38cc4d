#!/usr/bin/env bash
# catchup-smoke: durable state and cold-start catchup over real TCP
# (DESIGN.md §16). Three stellar-node processes archive to private data
# dirs and close TARGET_SEQ ledgers; a fourth node with an EMPTY data dir
# then boots with -catchup, fetches a peer's state over the overlay (its
# latest checkpoint, that ledger's header and the buckets it names —
# chunked and hash-verified), replays the ledgers past it from catch-up
# replies, joins consensus, and must close EXTRA_SEQ more ledgers agreeing
# byte-for-byte with the original quorum. Exits non-zero on timeout,
# divergence, a catchup that never completes, one that replayed nothing or
# one that fetched a tx-set file. Logs and node-3's archive land in
# $CATCHUP_SMOKE_DIR for CI upload.
set -euo pipefail

cd "$(dirname "$0")/.."

LOGDIR="${CATCHUP_SMOKE_DIR:-catchup-smoke-logs}"
TARGET_SEQ="${TARGET_SEQ:-20}"
EXTRA_SEQ="${EXTRA_SEQ:-5}"
TIMEOUT_S="${TIMEOUT_S:-120}"
INTERVAL="${INTERVAL:-250ms}"
BASE_OVERLAY="${BASE_OVERLAY:-23625}"
BASE_HTTP="${BASE_HTTP:-29100}"

mkdir -p "$LOGDIR"
rm -rf "$LOGDIR"/node-*.log "$LOGDIR"/archive-*

echo "building stellar-node..."
go build -o "$LOGDIR/stellar-node" ./cmd/stellar-node

PIDS=()
cleanup() {
    for pid in "${PIDS[@]}"; do
        kill -TERM "$pid" 2>/dev/null || true
    done
    sleep 1
    for pid in "${PIDS[@]}"; do
        kill -KILL "$pid" 2>/dev/null || true
    done
}
trap cleanup EXIT

overlay_port() { echo $((BASE_OVERLAY + $1)); }
http_port()    { echo $((BASE_HTTP + $1)); }

latest_seq() {
    curl -sf "http://127.0.0.1:$(http_port "$1")/ledgers/latest" 2>/dev/null \
        | sed -n 's/.*"sequence"[": ]*\([0-9][0-9]*\).*/\1/p' || true
}

wait_for_seq() { # node idx, target, deadline(SECONDS)
    local i=$1 target=$2 deadline=$3 seq
    while :; do
        seq=$(latest_seq "$i")
        if [ -n "${seq:-}" ] && [ "$seq" -ge "$target" ]; then
            echo "node-$i at ledger $seq"
            return 0
        fi
        if [ "$SECONDS" -ge "$deadline" ]; then
            echo "FAIL: node-$i stuck at ledger '${seq:-none}' waiting for $target" >&2
            return 1
        fi
        sleep 0.5
    done
}

# All four identities are in the quorum (3-of-4 majority), so the first
# three alone can close ledgers while node-3 does not exist yet.
QUORUM="node-0,node-1,node-2,node-3"
peers_for() {
    local i=$1 peers=""
    for j in 0 1 2 3; do
        [ "$i" = "$j" ] && continue
        peers="${peers:+$peers,}127.0.0.1:$(overlay_port "$j")"
    done
    echo "$peers"
}

# Node-3 discovers a tip a few ledgers past TARGET_SEQ; a checkpoint every
# 16 ledgers leaves the latest one, at 16, behind it, so node-3 must replay
# ledgers from catch-up replies, not just adopt the checkpoint. A durable
# node keeps its bucket list below level 0 as files of its data dir, so the
# buckets node-3 fetches are the very files the list merges.
for i in 0 1 2; do
    "$LOGDIR/stellar-node" \
        -seed "node-$i" \
        -quorum "$QUORUM" \
        -listen "127.0.0.1:$(overlay_port "$i")" \
        -peers "$(peers_for "$i")" \
        -metrics "127.0.0.1:$(http_port "$i")" \
        -interval "$INTERVAL" \
        -max-drift 24h \
        -data-dir "$LOGDIR/archive-$i" \
        -checkpoint-interval 16 \
        -v >"$LOGDIR/node-$i.log" 2>&1 &
    PIDS+=($!)
    echo "started node-$i (pid ${PIDS[$i]}, overlay :$(overlay_port "$i"), http :$(http_port "$i"))"
done

echo "waiting for the 3-node quorum to reach ledger $TARGET_SEQ (timeout ${TIMEOUT_S}s)..."
deadline=$((SECONDS + TIMEOUT_S))
for i in 0 1 2; do
    wait_for_seq "$i" "$TARGET_SEQ" "$deadline"
done

echo "starting node-3 with an empty data dir and -catchup..."
"$LOGDIR/stellar-node" \
    -seed "node-3" \
    -quorum "$QUORUM" \
    -listen "127.0.0.1:$(overlay_port 3)" \
    -peers "$(peers_for 3)" \
    -metrics "127.0.0.1:$(http_port 3)" \
    -interval "$INTERVAL" \
    -max-drift 24h \
    -data-dir "$LOGDIR/archive-3" \
    -checkpoint-interval 16 \
    -catchup \
    -v >"$LOGDIR/node-3.log" 2>&1 &
PIDS+=($!)

join_seq=$(latest_seq 0)
want=$((join_seq + EXTRA_SEQ))
echo "node-3 must catch up over the wire and close through ledger $want..."
deadline=$((SECONDS + TIMEOUT_S))
wait_for_seq 3 "$want" "$deadline"

echo "checking catchup completed and actually moved bytes..."
metrics=$(curl -sf "http://127.0.0.1:$(http_port 3)/metrics")
echo "$metrics" | grep -q '^catchup_state 4$' || {
    echo "FAIL: node-3 catchup_state != 4 (done)" >&2
    echo "$metrics" | grep '^catchup_' >&2 || true
    exit 1
}
bytes=$(echo "$metrics" | sed -n 's/^catchup_bytes_fetched_total \([0-9][0-9]*\).*/\1/p')
if [ -z "${bytes:-}" ] || [ "$bytes" -le 0 ]; then
    echo "FAIL: node-3 fetched no archive bytes" >&2
    exit 1
fi
echo "node-3 fetched $bytes archive bytes"
replayed=$(echo "$metrics" | sed -n 's/^catchup_ledgers_replayed_total \([0-9][0-9]*\).*/\1/p')
if [ -z "${replayed:-}" ] || [ "$replayed" -le 0 ]; then
    echo "FAIL: node-3 replayed no ledger from catch-up replies" >&2
    exit 1
fi
if echo "$metrics" | grep -q '^catchup_files_fetched_total{kind="txset"}'; then
    echo "FAIL: node-3 fetched tx-set files; only the checkpoint's state travels as files" >&2
    exit 1
fi
echo "node-3 replayed $replayed ledgers from catch-up replies and fetched no tx-set file"

# node-3 has no headers below its fetched checkpoint (at most 15 ledgers
# under join_seq), so the byte-identity check starts at the join ledger —
# everything from there was replayed from catch-up replies or closed live,
# and must match node-0 exactly.
echo "cross-checking header hashes for ledgers $join_seq..$want..."
for seq in $(seq "$join_seq" "$want"); do
    want_hash=""
    for i in 0 3; do
        hash=$(curl -sf "http://127.0.0.1:$(http_port "$i")/ledgers/$seq" 2>/dev/null \
               | sed -n 's/.*"hash"[": ]*"\([0-9a-f]*\)".*/\1/p' || true)
        if [ -z "$hash" ]; then
            echo "FAIL: node-$i has no header for ledger $seq" >&2
            exit 1
        fi
        if [ -z "$want_hash" ]; then
            want_hash="$hash"
        elif [ "$hash" != "$want_hash" ]; then
            echo "FAIL: DIVERGENCE at ledger $seq: node-0=$want_hash node-$i=$hash" >&2
            exit 1
        fi
    done
done

[ -f "$LOGDIR/archive-3/checkpoints/latest" ] || {
    echo "FAIL: node-3's archive has no checkpoint pointer" >&2
    exit 1
}

echo "catchup-smoke PASS: cold node fetched a peer's state over TCP, replayed $replayed ledgers, and closed $EXTRA_SEQ ledgers in quorum"
