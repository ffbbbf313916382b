#!/usr/bin/env bash
# hxd_smoke.sh — end-to-end smoke of the hxd daemon over real HTTP:
# build the binary, start it on an ephemeral port (with -pprof mounted
# and a durable job journal), wait for /healthz with backoff, POST the
# same experiment twice and require the second response to be a
# byte-identical cache hit, scrape /metrics — including the pool/engine
# series the unified obs registry adds — curl a pprof endpoint, validate
# an hxsim -trace flight recording as JSON, SIGTERM and require a
# graceful exit, then kill -9 a fresh daemon and require the restart to
# replay its journal (rewarmed cache, first request already a hit).
#
# Usage:
#   tools/hxd_smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

workdir="$(mktemp -d)"
hxd_pid=""
cleanup() {
  [ -n "$hxd_pid" ] && kill -9 "$hxd_pid" 2>/dev/null || true
  rm -rf "$workdir"
}
trap cleanup EXIT

# start_hxd <logfile> [extra flags...]: launch the daemon on an ephemeral
# port and wait until /healthz answers, retrying with backoff instead of
# a fixed sleep. Sets $hxd_pid and $base.
start_hxd() {
  local log="$1"; shift
  # Create the log first: the poll below reads it before the background
  # shell may have opened it for hxd.
  : >"$log"
  "$workdir/hxd" -addr 127.0.0.1:0 -workers 2 "$@" >"$log" 2>&1 &
  hxd_pid=$!
  local addr="" delay=0.05
  for _ in $(seq 1 60); do
    addr="$(sed -n 's/^hxd listening on //p' "$log" | head -n1)"
    if [ -n "$addr" ] && curl -sSf -m 2 "http://$addr/healthz" >/dev/null 2>&1; then
      base="http://$addr"
      echo "   daemon at $base (pid $hxd_pid)"
      return 0
    fi
    kill -0 "$hxd_pid" 2>/dev/null || { cat "$log"; echo "hxd died on startup"; exit 1; }
    sleep "$delay"
    # Exponential backoff, capped at half a second.
    delay="$(awk -v d="$delay" 'BEGIN { d *= 2; print (d > 0.5) ? 0.5 : d }')"
  done
  cat "$log"; echo "hxd never became healthy"; exit 1
}

echo "== build"
go build -o "$workdir/hxd" ./cmd/hxd

echo "== start (retry-until-healthy)"
start_hxd "$workdir/stdout.log" -pprof -journal-dir "$workdir/journal"

req='{"kind":"allreduce","topo":"hx2mesh","size":"tiny"}'
post() {
  curl -sS -D "$workdir/$1.hdr" -o "$workdir/$1.body" \
    -X POST -H 'Content-Type: application/json' -d "$req" "$base/v1/experiments"
}

echo "== first request (computes)"
post r1
grep -qi '^HTTP/.* 200' "$workdir/r1.hdr" || { cat "$workdir/r1.hdr" "$workdir/r1.body"; exit 1; }
cat "$workdir/r1.body"; echo

echo "== second request (must hit the cache, byte-identical)"
post r2
grep -qi '^x-hxd-cache: hit' "$workdir/r2.hdr" || {
  echo "second response was not a cache hit:"; cat "$workdir/r2.hdr"; exit 1; }
cmp "$workdir/r1.body" "$workdir/r2.body" || { echo "hit body differs from computed body"; exit 1; }

echo "== /metrics"
curl -sS "$base/metrics" >"$workdir/metrics.txt"
for m in 'hxd_cache_hits_total 1' 'hxd_computations_total 1' 'hxd_requests_total{kind="allreduce",status="ok"} 2'; do
  grep -qF "$m" "$workdir/metrics.txt" || { echo "metrics missing: $m"; cat "$workdir/metrics.txt"; exit 1; }
done

echo "== engine + pool series on the unified registry"
# A packet-level experiment drives the runner pool and the netsim engine,
# whose instruments land on the same /metrics page (obs promotion). This
# POST comes after the exact-count checks above so their counts hold.
req='{"kind":"alltoall_packet","topo":"hx2mesh","size":"tiny","shifts":2}'
post r3
grep -qi '^HTTP/.* 200' "$workdir/r3.hdr" || { cat "$workdir/r3.hdr" "$workdir/r3.body"; exit 1; }
curl -sS "$base/metrics" >"$workdir/metrics2.txt"
for m in hxd_cluster_cache_entries netsim_events_total runner_jobs_total runner_job_seconds_count; do
  grep -q "^$m" "$workdir/metrics2.txt" || { echo "metrics missing: $m"; cat "$workdir/metrics2.txt"; exit 1; }
done

echo "== pprof"
curl -sSf "$base/debug/pprof/cmdline" >/dev/null || { echo "pprof not mounted under -pprof"; exit 1; }

echo "== hxsim -trace flight recording"
go build -o "$workdir/hxsim" ./cmd/hxsim
"$workdir/hxsim" -topo hx2mesh -size tiny -pattern alltoall -shifts 2 -bytes 32768 \
  -sim-shards 2 -trace "$workdir/trace.json" >/dev/null
python3 -mjson.tool "$workdir/trace.json" >/dev/null || { echo "hxsim -trace wrote invalid JSON"; exit 1; }
grep -q '"ph":"X"' "$workdir/trace.json" || { echo "trace has no spans"; exit 1; }

echo "== /healthz"
curl -sSf "$base/healthz"

echo "== graceful shutdown"
kill -TERM "$hxd_pid"
wait "$hxd_pid" || { echo "hxd exited non-zero after SIGTERM"; cat "$workdir/stdout.log"; exit 1; }
hxd_pid=""
grep -q 'drained, bye' "$workdir/stdout.log" || { echo "no drain message"; cat "$workdir/stdout.log"; exit 1; }

echo "== kill -9 -> restart -> journal replay"
# A daemon that dies with no drain and no cleanup must come back with
# every journaled result rewarmed: the two computed above survive, and
# the very first request after the restart is already a cache hit.
start_hxd "$workdir/stdout2.log" -journal-dir "$workdir/journal"
kill -9 "$hxd_pid"
wait "$hxd_pid" 2>/dev/null || true
hxd_pid=""
start_hxd "$workdir/stdout3.log" -journal-dir "$workdir/journal"
grep -q '^hxd journal: 2 results rewarmed, 0 pending requests replaying$' "$workdir/stdout3.log" || {
  echo "restart did not replay the journal:"; cat "$workdir/stdout3.log"; exit 1; }
req='{"kind":"allreduce","topo":"hx2mesh","size":"tiny"}'
post r4
grep -qi '^x-hxd-cache: hit' "$workdir/r4.hdr" || {
  echo "first request after kill -9 restart was not a rewarmed hit:"; cat "$workdir/r4.hdr"; exit 1; }
cmp "$workdir/r1.body" "$workdir/r4.body" || { echo "rewarmed body differs from the original"; exit 1; }
kill -TERM "$hxd_pid"
wait "$hxd_pid" || { echo "restarted hxd exited non-zero after SIGTERM"; cat "$workdir/stdout3.log"; exit 1; }
hxd_pid=""

echo "hxd smoke OK"
