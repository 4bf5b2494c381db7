#!/usr/bin/env bash
# zolcd smoke (CI):
#
#   1. start `zolcd` on a kernel-assigned port;
#   2. run 4 concurrent clients, each submitting 8 mixed retarget/sweep
#      jobs drawn from a shared 10-key job space with --verify: every
#      daemon response must be byte-identical to the same job computed
#      offline (`offline_retarget_response` / `offline_sweep_response`);
#   3. assert the caches actually deduplicated work: 32 submitted jobs,
#      at most 10 distinct, so hits must outnumber misses;
#   4. warm phase: one client sends 200 jobs over the now-populated key
#      space and must finish within 4 s. Every one is a cache hit, so
#      the time is wire time; a frame stalled on Nagle's algorithm and
#      the peer's delayed ACK (~44 ms per job) would need at least 8.8 s;
#   5. shut the daemon down and require a clean exit.
#
# Overlapping keys across clients are the point — they race the same
# cold entries, so this also exercises the single-flight path under a
# real network, not just the in-process tests.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --example zolcd --example zolc-client

ZOLCD=target/release/examples/zolcd
CLIENT=target/release/examples/zolc-client
LOG=$(mktemp)
trap 'kill "$DAEMON_PID" 2>/dev/null || true; rm -f "$LOG"' EXIT

echo "== starting zolcd =="
"$ZOLCD" >"$LOG" &
DAEMON_PID=$!

ADDR=""
for _ in $(seq 1 50); do
    ADDR=$(sed -n 's/^zolcd listening on //p' "$LOG")
    [ -n "$ADDR" ] && break
    kill -0 "$DAEMON_PID" 2>/dev/null || { echo "zolcd died during startup" >&2; cat "$LOG" >&2; exit 1; }
    sleep 0.1
done
[ -n "$ADDR" ] || { echo "zolcd never printed its address" >&2; exit 1; }
echo "daemon at $ADDR"

"$CLIENT" --addr "$ADDR" ping

echo "== 4 concurrent clients x 8 verified jobs =="
PIDS=()
for seed in 1 2 3 4; do
    "$CLIENT" --addr "$ADDR" jobs --seed "$seed" --count 8 --verify &
    PIDS+=($!)
done
STATUS=0
for pid in "${PIDS[@]}"; do
    wait "$pid" || STATUS=1
done
[ "$STATUS" -eq 0 ] || { echo "a client saw a mismatching or failed job" >&2; exit 1; }

echo "== cache stats =="
"$CLIENT" --addr "$ADDR" stats | tee /dev/stderr | awk '
    { hits += $2 ~ /^hits=/ ? substr($2, 6) : 0
      misses += $3 ~ /^misses=/ ? substr($3, 8) : 0 }
    END {
        if (hits <= misses) {
            print "expected cache hits to outnumber misses (hits=" hits ", misses=" misses ")" > "/dev/stderr"
            exit 1
        }
    }'

echo "== warm phase: 200 cached jobs on one connection =="
WARM_START=$(date +%s%N)
"$CLIENT" --addr "$ADDR" jobs --seed 1 --count 200 >/dev/null
WARM_MS=$(( ($(date +%s%N) - WARM_START) / 1000000 ))
echo "200 warm jobs in ${WARM_MS} ms"
[ "$WARM_MS" -le 4000 ] || { echo "warm jobs took ${WARM_MS} ms (limit 4000): round trips are stalling" >&2; exit 1; }

echo "== shutdown =="
"$CLIENT" --addr "$ADDR" shutdown
wait "$DAEMON_PID"
echo "daemon smoke OK"
