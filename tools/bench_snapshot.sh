#!/usr/bin/env bash
# Captures the metro-scale fleet snapshot as BENCH_06.json (admission
# latency, blocking probability and sustained cells/s on the generated small
# and mid metro fabrics under Poisson session churn, from
# bench_e16_metro_scale) and the broadcast fan-out snapshot as BENCH_09.json
# (viewer sweep with measured cell-hops vs the per-viewer unicast baseline
# and per-edge reservations, from bench_e18_broadcast — the O(tree edges)
# acceptance is enforced by the bench's exit code). Data-plane and
# closed-loop rates come from the performance ledger (bench/ledger/run.py).
#
# Usage: tools/bench_snapshot.sh <build-dir> [out-dir]
# The build should be a Release build; numbers from Debug builds are noise.
set -euo pipefail

BUILD_DIR="${1:?usage: tools/bench_snapshot.sh <build-dir> [out-dir]}"
OUT_DIR="${2:-.}"
E16="$BUILD_DIR/bench/bench_e16_metro_scale"
E18="$BUILD_DIR/bench/bench_e18_broadcast"

if [[ ! -x "$E16" || ! -x "$E18" ]]; then
  echo "bench binaries missing under $BUILD_DIR/bench" >&2
  exit 1
fi
mkdir -p "$OUT_DIR"

"$E16" snapshot >"$OUT_DIR/BENCH_06.json"
echo "wrote $OUT_DIR/BENCH_06.json:"
cat "$OUT_DIR/BENCH_06.json"

# Broadcast fan-out: cells must scale with tree edges, not viewers. The
# bench exits non-zero when the 1k-viewer sweep point falls under 10x
# against per-viewer unicast or any tree edge is double-reserved.
"$E18" snapshot >"$OUT_DIR/BENCH_09.json"
echo "wrote $OUT_DIR/BENCH_09.json:"
cat "$OUT_DIR/BENCH_09.json"
