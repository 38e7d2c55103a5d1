#!/usr/bin/env bash
# scripts/cluster_bench.sh [--short] — PR 6 perf trajectory.
#
# Measures what cache-affinity routing buys: boots a 3-replica cluster
# (leader + 2 followers) behind simproxy twice — once with round-robin
# routing, once with consistent-hash — drives the same hot repeated-query
# workload through the proxy with simload, and emits
# BENCH_PR6.json with the aggregate cache hit rate per policy. Each
# replica's cache is deliberately smaller than the hot set, so
# round-robin (every replica sees every node) thrashes while hash
# routing (each replica owns a slice of the hot set) fits; the "gain"
# field records the measured advantage. The cluster is torn down and
# rebuilt cold between rounds so neither policy inherits a warm cache.
# --short shrinks the load window for CI.
set -euo pipefail
cd "$(dirname "$0")/.."

WINDOW=15s
WARMUP=5s
[ "${1:-}" = "--short" ] && { WINDOW=6s; WARMUP=3s; }
OUT=BENCH_PR6.json

# Hot-set / cache sizing that separates the policies: 96 hot nodes
# against 32 cache entries per replica (3 replicas * 32 = the hot set).
HOT=96
CACHE_ENTRIES=32

tmp=$(mktemp -d)
pids=()
stop_cluster() {
  for p in "${pids[@]:-}"; do kill "$p" 2>/dev/null || true; done
  for p in "${pids[@]:-}"; do wait "$p" 2>/dev/null || true; done
  pids=()
}
cleanup() { stop_cluster; rm -rf "$tmp"; }
trap cleanup EXIT

# A deterministic 200-node graph with enough structure to query.
awk 'BEGIN { for (i = 0; i < 200; i++) { print i, (i*7+1)%200; print i, (i*13+5)%200; print (i*3+2)%200, i } }' \
  > "$tmp/g.txt"

go build -o "$tmp/simrankd" ./cmd/simrankd
go build -o "$tmp/simproxy" ./cmd/simproxy
go build -o "$tmp/simload" ./cmd/simload

# The load: one closed-loop class of 8 request loops, every draw from the
# hot set, hot-pinned seeds (so hot repeats are cache-identical), and
# single-source queries only. -duration sets each run's window.
cat > "$tmp/spec.json" <<JSON
{
  "name": "cluster-affinity",
  "description": "hot repeated single-source reads through simproxy",
  "duration": "$WINDOW",
  "seed": 5368231,
  "classes": [
    {
      "name": "load",
      "arrival": {"process": "closed", "concurrency": 8},
      "popularity": {"dist": "hotset", "hot": $HOT, "hot_frac": 1.0},
      "mix": [{"op": "single-source", "weight": 1}],
      "seed_policy": "hot-pinned"
    }
  ]
}
JSON

wait_addr() {
  local log=$1 addr=""
  for _ in $(seq 1 100); do
    addr=$(sed -n 's/.* addr=\(127\.0\.0\.1:[0-9]*\).*/\1/p' "$log" | head -1)
    [ -n "$addr" ] && { echo "$addr"; return 0; }
    sleep 0.1
  done
  return 1
}

# run_policy POLICY -> writes the simload report to $tmp/report.$POLICY
run_policy() {
  local policy=$1
  "$tmp/simrankd" -graph "$tmp/g.txt" -addr 127.0.0.1:0 -lead \
    -cache-entries "$CACHE_ENTRIES" 2> "$tmp/leader.log" &
  pids+=($!)
  local leader
  leader=$(wait_addr "$tmp/leader.log")
  local followers=""
  for i in 1 2; do
    "$tmp/simrankd" -graph "$tmp/g.txt" -addr 127.0.0.1:0 \
      -follow "http://$leader" -cache-entries "$CACHE_ENTRIES" 2> "$tmp/follower$i.log" &
    pids+=($!)
    followers="$followers,$(wait_addr "$tmp/follower$i.log")"
  done
  "$tmp/simproxy" -addr 127.0.0.1:0 -replicas "$leader$followers" \
    -policy "$policy" -probe-interval 200ms 2> "$tmp/proxy.log" &
  pids+=($!)
  local proxy
  proxy=$(wait_addr "$tmp/proxy.log")

  for _ in $(seq 1 100); do
    if curl -s "http://$proxy/healthz" | grep -q '"routable":3'; then break; fi
    sleep 0.1
  done

  # Warm the caches under the policy being measured, then measure.
  "$tmp/simload" -target "http://$proxy" -spec "$tmp/spec.json" \
    -duration "$WARMUP" > /dev/null 2> "$tmp/simload.log"
  "$tmp/simload" -target "http://$proxy" -spec "$tmp/spec.json" \
    -duration "$WINDOW" -out "$tmp/report.$policy" > /dev/null 2> "$tmp/simload.log"
  stop_cluster
}

run_policy round-robin
run_policy hash

# metric POLICY FIELD DIGITS -> the first "FIELD": number in the policy's
# simload report, rounded to DIGITS places. A one-scenario report holds
# throughput_rps once, and hit_rate only in its cache block.
metric() {
  sed -n 's/^ *"'"$2"'": \([-+.0-9eE]*\),*$/\1/p' "$tmp/report.$1" | head -1 |
    awk -v d="$3" 'NF { printf "%.*f\n", d, $1 }'
}

RR_HIT=$(metric round-robin hit_rate 3)
HASH_HIT=$(metric hash hit_rate 3)
RR_RPS=$(metric round-robin throughput_rps 1)
HASH_RPS=$(metric hash throughput_rps 1)
for v in "$RR_HIT" "$HASH_HIT" "$RR_RPS" "$HASH_RPS"; do
  [ -n "$v" ] || { echo "cluster bench: FAIL: a simload report lacks hit_rate or throughput_rps" >&2; exit 1; }
done

{
  echo "{"
  echo "  \"pr\": 6,"
  echo "  \"description\": \"cache-affinity routing: aggregate hit rate across a 3-replica cluster, hash vs round-robin\","
  echo "  \"replicas\": 3,"
  echo "  \"hot_nodes\": $HOT,"
  echo "  \"cache_entries_per_replica\": $CACHE_ENTRIES,"
  echo "  \"window\": \"$WINDOW\","
  echo "  \"policies\": {"
  echo "    \"round-robin\": {\"cache_hit_rate\": $RR_HIT, \"throughput_rps\": $RR_RPS},"
  echo "    \"hash\": {\"cache_hit_rate\": $HASH_HIT, \"throughput_rps\": $HASH_RPS}"
  echo "  },"
  awk -v rr="$RR_HIT" -v h="$HASH_HIT" 'BEGIN {
    printf "  \"affinity_hit_rate_gain\": %.3f\n", h - rr
  }'
  echo "}"
} > "$OUT"

echo "wrote $OUT" >&2
cat "$OUT"

# Acceptance: affinity routing must beat round-robin on aggregate hit
# rate under a hot set that exceeds one replica's cache.
awk -v rr="$RR_HIT" -v h="$HASH_HIT" 'BEGIN {
  if (h + 0 <= rr + 0) {
    printf "cluster bench: FAIL: hash hit rate %.3f is not above round-robin %.3f\n", h, rr
    exit 1
  }
  printf "cluster bench: OK: hash %.3f > round-robin %.3f\n", h, rr
}' >&2
