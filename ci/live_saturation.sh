#!/usr/bin/env bash
# Live saturation smoke: auth daemon -> relay daemon -> loadgen in
# sustained-rate mode, all over real UDP sockets.
#
# Used by the CI `live` job and runnable locally:
#   cargo build --release -p moqdns-relayd && ci/live_saturation.sh
#
# The loadgen first converges the ordinary smoke plan (same deterministic
# gates as live_smoke), then holds an open-loop probe rate — standalone
# MoQT fetches, each a full wire round-trip — for a fixed duration.
# RATE/DURATION are deliberately low for CI (a functional smoke of the
# saturation path, not a throughput measurement), but long enough that
# every client connection carries more probes than the 1,024-stream
# window (2,000 pps over 12 clients for 8 s: ~1,330 each): every probe
# issued must be answered (`probe_drops` 0 is baselined). Achieved pps
# and the latency tails ride in the JSON artifact but are never
# exact-diffed. The plane's throughput is measured by benchmark/'s live
# workloads, not here.
set -u

BIN=${BIN:-target/release}
AUTH_ADDR=127.0.0.1:4480
RELAY_ADDR=127.0.0.1:4481
OUT=${OUT:-results/live_saturation.json}
ROUNDS=5
RATE=${RATE:-2000}
DURATION=${DURATION:-8}

mkdir -p results

"$BIN"/moqdns-relayd --mode auth --listen "$AUTH_ADDR" --workers 2 \
    --tracks 8 --rounds "$ROUNDS" --interval-ms 400 &
AUTH_PID=$!
sleep 0.5
"$BIN"/moqdns-relayd --mode relay --listen "$RELAY_ADDR" --workers 2 \
    --parent "$AUTH_ADDR" &
RELAY_PID=$!
sleep 0.5

# Budget: plan convergence (~3 s) + the rate phase + grace. The shared
# sockets (4 clients each) exercise the DCID demux path in CI.
timeout 40 "$BIN"/moqdns-loadgen --server "$RELAY_ADDR" --rounds "$ROUNDS" \
    --profile saturation --clients-per-socket 4 \
    --rate "$RATE" --duration "$DURATION" \
    --check --json "$OUT"
LOADGEN_RC=$?

kill -TERM "$RELAY_PID" "$AUTH_PID" 2>/dev/null
wait "$RELAY_PID"
RELAY_RC=$?
wait "$AUTH_PID"
AUTH_RC=$?

echo "live_saturation: loadgen=$LOADGEN_RC relay_drain=$RELAY_RC auth_drain=$AUTH_RC"
if [ "$LOADGEN_RC" -ne 0 ] || [ "$RELAY_RC" -ne 0 ] || [ "$AUTH_RC" -ne 0 ]; then
    exit 1
fi
exit 0
