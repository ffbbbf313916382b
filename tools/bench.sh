#!/usr/bin/env bash
# bench.sh — run the tracked performance benchmarks and emit a JSON
# trajectory file (default BENCH_PR10.json) for CI artifacts, so the
# ns/op, allocs/op and events/op of the hot paths are comparable across
# PRs:
#
#   PacketSim            raw packet-engine throughput (Reset-reuse path)
#   PacketSimRing        Fig. 13 ring allreduce at small size: a 65,536-
#                        injection burst at t=0 (full size even in -short)
#   PacketSimShards/*    sharded parallel engine at 1/2/4/8 shards
#   TraceOverhead/off|on instrumentation cost: off must be 0 allocs/op
#   AlltoallSweep        pooled packet-level alltoall shift sweep
#   AlltoallSweepFaulted the same sweep on a 10%-degraded fabric
#   ResilienceSweep      paper-small's resilience step in process: the small
#                        Hx2Mesh, 5 failure fractions x 3 trials x 4 shifts
#                        of 64 KiB, each trial on a cold masked routing
#                        table (small even in -short)
#   FlowSolverLarge      flow-level alltoall on the 16,384-endpoint Hx2Mesh
#   DaemonHit            hxd repeat-request path: HTTP + cache hit
#   DaemonDistinct       hxd miss path: canonicalize + compute slot + pool
#   DaemonSchedDistinct  hxd sched/small miss path after one primed sched
#                        request (ms/op): a scheduler sweep per request
#   JournalAppend/*      checkpoint append overhead, nosync and fsync
#   SweepResume/*        journaled sched sweep: fresh run vs journal replay
#   SchedContention/*    joint contention pricing vs isolation slowdowns,
#                        cold (solves/op) vs shared-model memoized (%memo),
#                        and joint-shared-2: two sims pricing on one model
#   PlaceCandidates/*    alloc's placement search on half-occupied 8x8 and
#                        32x32 grids under each sched policy's options
#
# Usage:
#   tools/bench.sh [out.json]
#
# Environment:
#   SHORT=0       run the full-size benchmarks (default 1: -short, CI mode)
#   BENCHTIME=5x  override -benchtime (default 1x; 2000x for PlaceCandidates)
#
# Raw `go test -bench` output is kept next to the JSON as bench-raw.txt.
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-BENCH_PR10.json}"
raw="bench-raw.txt"
args=(-run '^$'
  -bench 'BenchmarkPacketSim$|BenchmarkPacketSimRing$|BenchmarkPacketSimShards$|BenchmarkTraceOverhead$|BenchmarkAlltoallSweep$|BenchmarkAlltoallSweepFaulted$|BenchmarkResilienceSweep$|BenchmarkFlowSolverLarge$'
  -benchmem -benchtime "${BENCHTIME:-1x}")
if [ "${SHORT:-1}" = "1" ]; then
  args+=(-short)
fi

go test "${args[@]}" . | tee "$raw"

# Hard gate (obs zero-overhead contract): with instrumentation off the
# steady-state packet engine must not allocate.
grep -E 'BenchmarkTraceOverhead/off.*[[:space:]]0 B/op' "$raw" >/dev/null || {
  echo "BenchmarkTraceOverhead/off allocated — obs off is no longer free"; exit 1; }

# The daemon-path benchmarks (hxd serving layer) ride along in the same
# trajectory file: req/s for the cache-hit and full-miss paths, ms/op for
# the sched miss path.
go test -run '^$' -bench 'BenchmarkDaemonHit$|BenchmarkDaemonDistinct$|BenchmarkDaemonSchedDistinct$' \
  -benchmem -benchtime "${BENCHTIME:-1x}" ./internal/serve | tee -a "$raw"

# Checkpointing trajectory: raw journal append cost (the per-point tax a
# journaled sweep pays, with and without fsync) and the wall-time gap
# between a fresh journaled sched sweep and a pure journal replay of the
# same grid (what a crash-resume recovers for free).
go test -run '^$' -bench 'BenchmarkJournalAppend$' \
  -benchmem -benchtime "${BENCHTIME:-1x}" ./internal/journal | tee -a "$raw"
go test -run '^$' -bench 'BenchmarkSweepResume$' \
  -benchmem -benchtime "${BENCHTIME:-1x}" ./internal/runner | tee -a "$raw"

# Contention-pricing trajectory: what the joint flow solve adds on top of
# the isolation slowdown model per sched run, and how much the shared
# placement-set memo claws back (the sweep layer shares one model).
go test -run '^$' -bench 'BenchmarkSchedContention$' \
  -benchmem -benchtime "${BENCHTIME:-1x}" ./internal/sched | tee -a "$raw"

# Placement-search trajectory: the per-decision cost of alloc's greedy
# row-intersection search, run for every queued job on every pass. One
# search takes microseconds, so its default is 2000 iterations, not 1.
go test -run '^$' -bench 'BenchmarkPlaceCandidates$' \
  -benchmem -benchtime "${BENCHTIME:-2000x}" ./internal/alloc | tee -a "$raw"

# One JSON object per benchmark line: name, iterations, then every
# value/unit metric pair go test printed (ns/op, B/op, allocs/op,
# events/op, %inject, ...).
awk '
/^Benchmark/ {
  name = $1
  sub(/-[0-9]+$/, "", name)
  sub(/^Benchmark/, "", name)
  printf "%s  {\"name\":\"%s\",\"iterations\":%s", sep, name, $2
  for (i = 3; i + 1 <= NF; i += 2) {
    printf ",\"%s\":%s", $(i + 1), $i
  }
  printf "}"
  sep = ",\n"
}
BEGIN { printf "[\n" }
END   { printf "\n]\n" }
' "$raw" > "$out"

echo "wrote $out"
