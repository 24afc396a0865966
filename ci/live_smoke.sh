#!/usr/bin/env bash
# Live loopback smoke: auth daemon -> relay daemon -> loadgen, all over
# real UDP sockets, with the loadgen's invariant gate as the verdict.
#
# Used by the CI `live` job and runnable locally:
#   cargo build --release -p moqdns-relayd && ci/live_smoke.sh
#
# Gated hard (deterministic): complete delivery at the final published
# version, monotone updates, zero lookup failures, clean drain exit codes
# from both daemons on SIGTERM, and the relay's stop-time counters line
# naming the objects it forwarded. Latency/pps land in the JSON for the
# artifact upload but are never exact-diffed.
set -u

BIN=${BIN:-target/release}
AUTH_ADDR=127.0.0.1:4470
RELAY_ADDR=127.0.0.1:4471
OUT=${OUT:-results/live_smoke.json}
RELAY_LOG=results/live_smoke_relay.log
ROUNDS=5

mkdir -p results

"$BIN"/moqdns-relayd --mode auth --listen "$AUTH_ADDR" --workers 2 \
    --tracks 8 --rounds "$ROUNDS" --interval-ms 400 &
AUTH_PID=$!
sleep 0.5
"$BIN"/moqdns-relayd --mode relay --listen "$RELAY_ADDR" --workers 2 \
    --parent "$AUTH_ADDR" > "$RELAY_LOG" &
RELAY_PID=$!
sleep 0.5

# The 30 s budget bounds the whole replay; the loadgen's own deadline is
# tighter and fails the completeness gates first with a readable JSON.
timeout 30 "$BIN"/moqdns-loadgen --server "$RELAY_ADDR" --rounds "$ROUNDS" \
    --check --json "$OUT"
LOADGEN_RC=$?

# Graceful drain: SIGTERM both daemons; their exit codes are part of the
# gate (nonzero = a worker died or the drain was unclean).
kill -TERM "$RELAY_PID" "$AUTH_PID" 2>/dev/null
wait "$RELAY_PID"
RELAY_RC=$?
wait "$AUTH_PID"
AUTH_RC=$?

cat "$RELAY_LOG"
# At stop the relay prints its non-zero counters by name on one line.
COUNTERS_RC=0
grep -q '^moqdns-relayd: counters (.*relay\.objects\.forwarded=[1-9]' "$RELAY_LOG" || COUNTERS_RC=1

echo "live_smoke: loadgen=$LOADGEN_RC relay_drain=$RELAY_RC auth_drain=$AUTH_RC counters=$COUNTERS_RC"
if [ "$LOADGEN_RC" -ne 0 ] || [ "$RELAY_RC" -ne 0 ] || [ "$AUTH_RC" -ne 0 ] || [ "$COUNTERS_RC" -ne 0 ]; then
    exit 1
fi
exit 0
