#!/usr/bin/env bash
# alerts-smoke: prove the fleet detects its own degradation. Boots a
# 3-process stellar-node TCP quorum with the detection stack on a fast
# sampling cadence, freezes two validators with SIGSTOP (a wedge, not a
# crash: sockets stay open, so only the liveness layer can see it), and
# asserts the full alerting loop:
#
#   - steady state: /debug/alerts serves the rule table with zero firing
#   - under the freeze: close_stall then quorum_unavailable reach firing
#     on the surviving node
#   - the liveness watchdog dumped a crash bundle (stacks + time-series +
#     alerts snapshot) while the node was wedged
#   - after SIGCONT: every alert resolves, and the final
#     `stellar-obs alerts -fail-on-firing` sweep across the fleet is clean
#
# Logs and crash bundles land in $ALERTS_SMOKE_DIR for CI upload.
set -euo pipefail

cd "$(dirname "$0")/.."

LOGDIR="${ALERTS_SMOKE_DIR:-alerts-smoke-logs}"
INTERVAL="${INTERVAL:-250ms}"
SAMPLE="${SAMPLE:-250ms}"
STALL_INTERVALS="${STALL_INTERVALS:-8}"
TIMEOUT_S="${TIMEOUT_S:-120}"
BASE_OVERLAY="${BASE_OVERLAY:-24625}"
BASE_HTTP="${BASE_HTTP:-29000}"

mkdir -p "$LOGDIR"
rm -f "$LOGDIR"/node-*.log
rm -rf "$LOGDIR/crash-bundles"

echo "building stellar-node and stellar-obs..."
go build -o "$LOGDIR/stellar-node" ./cmd/stellar-node
go build -o "$LOGDIR/stellar-obs" ./cmd/stellar-obs

PIDS=()
cleanup() {
    for pid in "${PIDS[@]}"; do
        kill -CONT "$pid" 2>/dev/null || true
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

# field NODE FIELD: read one integer field from node N's /debug/alerts.
field() {
    curl -sf "http://127.0.0.1:$(http_port "$1")/debug/alerts" 2>/dev/null \
        | sed -n "s/.*\"$2\"[: ]*\([0-9][0-9]*\).*/\1/p" | head -1
}

# state NODE ALERT: the named alert's state on node N ("firing", ...).
state() {
    curl -sf "http://127.0.0.1:$(http_port "$1")/debug/alerts" 2>/dev/null \
        | python3 -c "
import json, sys
rep = json.load(sys.stdin)
print(next((a['state'] for a in rep['alerts'] if a['name'] == sys.argv[1]), ''))
" "$2"
}

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
        -sample-interval "$SAMPLE" \
        -stall-intervals "$STALL_INTERVALS" \
        -bundle-dir "$LOGDIR/crash-bundles" \
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

# Let the engines run a few evaluation windows, then require a clean
# baseline: the false-positive half of the contract.
sleep 3
for i in 0 1 2; do
    enabled=$(field "$i" enabled || true)
    firing=$(field "$i" firing)
    if [ "${firing:-x}" != "0" ]; then
        echo "FAIL: node-$i fired alerts on a healthy quorum:" >&2
        curl -sf "http://127.0.0.1:$(http_port "$i")/debug/alerts" >&2 || true
        exit 1
    fi
done
echo "steady state clean: 0 firing on every node"
"$LOGDIR/stellar-obs" alerts -nodes "$NODES"

# Freeze nodes 1 and 2. SIGSTOP keeps their sockets open, so node-0 sees
# live TCP peers that have simply stopped speaking SCP — the exact
# degradation only the close-stall/quorum-silence rules can catch.
echo "freezing node-1 and node-2 (SIGSTOP)..."
kill -STOP "${PIDS[1]}" "${PIDS[2]}"

echo "waiting for close_stall to fire on node-0..."
deadline=$((SECONDS + TIMEOUT_S))
while [ "$(state 0 close_stall)" != "firing" ]; do
    if [ "$SECONDS" -ge "$deadline" ]; then
        echo "FAIL: close_stall never fired on node-0" >&2
        curl -sf "http://127.0.0.1:$(http_port 0)/debug/alerts" >&2 || true
        exit 1
    fi
    sleep 0.5
done
echo "close_stall firing"

echo "waiting for quorum_unavailable to fire on node-0..."
while [ "$(state 0 quorum_unavailable)" != "firing" ]; do
    if [ "$SECONDS" -ge "$deadline" ]; then
        echo "FAIL: quorum_unavailable never fired on node-0" >&2
        curl -sf "http://127.0.0.1:$(http_port 0)/debug/alerts" >&2 || true
        exit 1
    fi
    sleep 0.5
done
echo "quorum_unavailable firing"

# The watchdog must have dumped a crash bundle when close_stall fired.
bundle=$(ls -d "$LOGDIR"/crash-bundles/bundle-node-0-close-stall-* 2>/dev/null | head -1 || true)
if [ -z "$bundle" ]; then
    echo "FAIL: no crash bundle from node-0's close-stall watchdog" >&2
    ls -R "$LOGDIR/crash-bundles" >&2 || true
    exit 1
fi
for f in stacks.txt timeseries.json slots.json alerts.json meta.json; do
    [ -s "$bundle/$f" ] || {
        echo "FAIL: crash bundle missing $f" >&2
        exit 1
    }
done
grep -q goroutine "$bundle/stacks.txt" || {
    echo "FAIL: stacks.txt holds no goroutine dump" >&2
    exit 1
}
python3 - "$bundle" <<'EOF'
import json, os, sys
bundle = sys.argv[1]
with open(os.path.join(bundle, "timeseries.json")) as f:
    ts = json.load(f)
if ts["schema"] != "stellar-timeseries/v1" or not ts["samples"]:
    sys.exit("FAIL: timeseries.json empty or mis-schemed")
if "herder_ledgers_closed_total" not in ts["samples"][-1]["points"]:
    sys.exit("FAIL: time-series window missing the close counter")
with open(os.path.join(bundle, "alerts.json")) as f:
    alerts = json.load(f)
if not alerts["enabled"] or alerts["firing"] < 1:
    sys.exit("FAIL: alerts.json snapshot shows nothing firing at dump time")
print(f"crash bundle ok: {len(ts['samples'])} samples, {alerts['firing']} firing at dump")
EOF
echo "crash bundle verified: $bundle"

echo "thawing node-1 and node-2 (SIGCONT)..."
kill -CONT "${PIDS[1]}" "${PIDS[2]}"

echo "waiting for every alert to resolve..."
deadline=$((SECONDS + TIMEOUT_S))
for i in 0 1 2; do
    while :; do
        firing=$(field "$i" firing || true)
        if [ "${firing:-}" = "0" ]; then
            break
        fi
        if [ "$SECONDS" -ge "$deadline" ]; then
            echo "FAIL: node-$i still firing after heal:" >&2
            curl -sf "http://127.0.0.1:$(http_port "$i")/debug/alerts" >&2 || true
            exit 1
        fi
        sleep 0.5
    done
done
if [ "$(state 0 close_stall)" != "resolved" ]; then
    echo "FAIL: close_stall on node-0 is not resolved after heal" >&2
    exit 1
fi

echo "final fleet sweep (must be clean):"
"$LOGDIR/stellar-obs" alerts -nodes "$NODES" -fail-on-firing

echo "alerts-smoke PASS: stall detected, bundle captured, alerts resolved"
