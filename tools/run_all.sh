#!/usr/bin/env bash
# run_all.sh — regenerate every paper-facing number from one resumable
# command. Each step writes its table to $outdir/<step>.txt and a .done
# marker on success, so a rerun after a crash, a Ctrl-C or a reboot picks
# up where the last run stopped: finished steps are skipped outright, and
# the long sweeps inside a step resume from their own crash-safe journal
# (-journal / internal/journal), so even a step killed mid-grid replays
# only the missing points.
#
#   Fig. 7    job-size board CDF                       hxalloc -cdf
#   Fig. 8    static allocation heuristics             hxalloc
#   Fig. 11   alltoall global bandwidth per topology   hxsim -pattern alltoall
#   Fig. 12   permutation bandwidth distribution       hxsim -pattern permutation
#   Fig. 13   ring allreduce share                     hxsim -pattern allreduce
#   §III-E    resilience under link failures           hxsim -pattern resilience (journaled)
#   §V sched  scheduler goodput grid                   hxalloc -mode sched (journaled)
#
# Usage:
#   tools/run_all.sh [outdir]           # default paper_numbers/
#
# Environment:
#   SIZE=tiny     cluster size for the hxsim steps (tiny = CI scale;
#                 use small/large for the paper-scale numbers)
#   FORCE=1       ignore .done markers, clear the sweep journals and
#                 regenerate everything
set -euo pipefail
cd "$(dirname "$0")/.."

outdir="${1:-paper_numbers}"
size="${SIZE:-tiny}"
mkdir -p "$outdir"

echo "== build"
bindir="$(mktemp -d)"
trap 'rm -rf "$bindir"' EXIT
go build -o "$bindir/hxalloc" ./cmd/hxalloc
go build -o "$bindir/hxsim" ./cmd/hxsim

# step <name> <cmd...>: run one pipeline step into $outdir/<name>.txt.
# The output is written to a temp file and moved into place only on
# success, so a killed step never leaves a half-written table; the .done
# marker makes a finished step free on the next run.
step() {
  local name="$1"; shift
  if [ "${FORCE:-0}" != "1" ] && [ -e "$outdir/$name.done" ]; then
    echo "== $name (done, skipping)"
    return 0
  fi
  echo "== $name"
  "$@" | tee "$outdir/$name.partial"
  mv "$outdir/$name.partial" "$outdir/$name.txt"
  : > "$outdir/$name.done"
}

# journaled_step <name> <journal> <cmd...>: a step whose command resumes
# from the journal directory <journal>. FORCE=1 clears the journal first:
# a regenerated step starts from scratch, and a journal bound to another
# build's sweep fingerprint would be refused.
journaled_step() {
  local name="$1" journal="$2"; shift 2
  if [ "${FORCE:-0}" = "1" ]; then
    rm -rf "$journal"
  fi
  step "$name" "$@" -journal "$journal"
}

step fig7_board_cdf      "$bindir/hxalloc" -cdf
step fig8_alloc_8x8      "$bindir/hxalloc" -grid 8x8 -mixes 25

for topo in hx2mesh fattree dragonfly torus; do
  step "fig11_alltoall_$topo" "$bindir/hxsim" -topo "$topo" -size "$size" \
    -pattern alltoall -shifts 4 -bytes 65536
done
step fig12_permutation   "$bindir/hxsim" -topo hx2mesh -size "$size" \
  -pattern permutation -perms 4 -bytes 65536
step fig13_allreduce     "$bindir/hxsim" -topo hx2mesh -size "$size" \
  -pattern allreduce -bytes 262144

# The two heavy grids run journaled: a kill mid-sweep costs only the
# in-flight points. The journal directories live next to the outputs and
# are bound to the sweep parameters, so changing a flag below refuses the
# stale journal instead of splicing old points in.
journaled_step resilience_sweep "$outdir/.journal-resilience" \
  "$bindir/hxsim" -topo hx2mesh -size "$size" \
  -pattern resilience -trials 3 -shifts 4 -bytes 65536
journaled_step sched_goodput_grid "$outdir/.journal-sched" \
  "$bindir/hxalloc" -mode sched -grid 8x8 \
  -jobs 120 -horizon 40 -mtbf 0,120,40,12 -ckpt 2 \
  -policies firstfit,bestfit,fragaware -trials 3

echo
echo "all paper numbers in $outdir/ (rerun to resume; FORCE=1 to regenerate)"
