#!/usr/bin/env bash
# bench-cluster: boot a 3-process stellar-node TCP quorum with live
# tracing, drive payment load through horizon with `stellar-obs bench`,
# and publish the fleet's telemetry:
#
#   BENCH_cluster.json  — schema-versioned close-cadence / latency / tx/s
#   cluster-trace.json  — every node's span store merged into one
#                         Perfetto trace (validated by stellar-obs tracecheck -cluster)
#
# The merge must be lossless (stellar-obs merge -fail-on-drop) and every
# node must publish the trace_spans_dropped metric; either failing fails
# the run. Logs land in $OBS_SMOKE_DIR for CI upload.
set -euo pipefail

cd "$(dirname "$0")/.."

LOGDIR="${OBS_SMOKE_DIR:-obs-smoke-logs}"
BENCH_OUT="${BENCH_OUT:-BENCH_cluster.json}"
TRACE_OUT="${CLUSTER_TRACE_OUT:-cluster-trace.json}"
DURATION="${DURATION:-15s}"
ACCOUNTS="${ACCOUNTS:-8}"
INTERVAL="${INTERVAL:-250ms}"
TIMEOUT_S="${TIMEOUT_S:-120}"
BASE_OVERLAY="${BASE_OVERLAY:-22625}"
BASE_HTTP="${BASE_HTTP:-29000}"

mkdir -p "$LOGDIR"
rm -f "$LOGDIR"/node-*.log

echo "building stellar-node and stellar-obs..."
go build -o "$LOGDIR/stellar-node" ./cmd/stellar-node
go build -o "$LOGDIR/stellar-obs" ./cmd/stellar-obs

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

QUORUM="node-0,node-1,node-2"
NODES=""
for i in 0 1 2; do
    peers=""
    for j in 0 1 2; do
        [ "$i" = "$j" ] && continue
        peers="${peers:+$peers,}127.0.0.1:$(overlay_port "$j")"
    done
    "$LOGDIR/stellar-node" \
        -seed "node-$i" \
        -quorum "$QUORUM" \
        -listen "127.0.0.1:$(overlay_port "$i")" \
        -peers "$peers" \
        -metrics "127.0.0.1:$(http_port "$i")" \
        -interval "$INTERVAL" \
        -max-drift 24h \
        -trace-live \
        -v >"$LOGDIR/node-$i.log" 2>&1 &
    PIDS+=($!)
    NODES="${NODES:+$NODES,}node-$i=http://127.0.0.1:$(http_port "$i")"
    echo "started node-$i (pid ${PIDS[$i]}, overlay :$(overlay_port "$i"), http :$(http_port "$i"))"
done

echo "waiting for the quorum to start closing ledgers (timeout ${TIMEOUT_S}s)..."
deadline=$((SECONDS + TIMEOUT_S))
for i in 0 1 2; do
    while :; do
        seq=$(curl -sf "http://127.0.0.1:$(http_port "$i")/ledgers/latest" 2>/dev/null \
              | sed -n 's/.*"sequence"[": ]*\([0-9][0-9]*\).*/\1/p' || true)
        if [ -n "${seq:-}" ] && [ "$seq" -ge 3 ]; then
            break
        fi
        if [ "$SECONDS" -ge "$deadline" ]; then
            echo "FAIL: node-$i never reached ledger 3" >&2
            exit 1
        fi
        sleep 0.5
    done
done

echo "fleet status before load:"
"$LOGDIR/stellar-obs" table -nodes "$NODES"

echo "driving $DURATION of payment load across $ACCOUNTS accounts..."
"$LOGDIR/stellar-obs" bench -nodes "$NODES" \
    -duration "$DURATION" -accounts "$ACCOUNTS" -o "$BENCH_OUT"

echo "merging the fleet's span stores (must be lossless)..."
"$LOGDIR/stellar-obs" merge -nodes "$NODES" -fail-on-drop -o "$TRACE_OUT"

echo "validating artifacts..."
"$LOGDIR/stellar-obs" check -f "$BENCH_OUT"
"$LOGDIR/stellar-obs" tracecheck -cluster "$TRACE_OUT"

echo "checking the trace_spans_dropped metric on every node..."
for i in 0 1 2; do
    # Capture first: `curl | grep -q` under pipefail races SIGPIPE when
    # grep exits at the first match.
    metrics=$(curl -sf "http://127.0.0.1:$(http_port "$i")/metrics")
    echo "$metrics" | grep -q '^trace_spans_dropped ' || {
        echo "FAIL: node-$i /metrics missing trace_spans_dropped" >&2
        exit 1
    }
done

echo "fleet status after load:"
"$LOGDIR/stellar-obs" table -nodes "$NODES"

echo "bench-cluster PASS: $BENCH_OUT and $TRACE_OUT published"
