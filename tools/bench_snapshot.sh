#!/usr/bin/env bash
# Captures the data-plane performance snapshot as BENCH_05.json:
#   - cells/s through the link hot path and a full switch transit
#     (BM_LinkCellHotPath / BM_SwitchForward, burst size 64)
#   - events/s through the simulator engine (BM_SimulatorEventChurn/100000)
#   - wall-clock seconds of the E05 closed-loop monitoring scenario
#     (12 simulated seconds of real cross-traffic overload + recovery)
# and the metro-scale fleet snapshot as BENCH_06.json (admission latency,
# blocking probability and sustained cells/s on the generated small and mid
# metro fabrics under Poisson session churn, from bench_e16_metro_scale),
# and the broadcast fan-out snapshot as BENCH_09.json (viewer sweep with
# measured cell-hops vs the per-viewer unicast baseline and per-edge
# reservations, from bench_e18_broadcast — the O(tree edges) acceptance is
# enforced by the bench's exit code).
#
# Usage: tools/bench_snapshot.sh <build-dir> [out.json]
# The build should be a Release build; numbers from Debug builds are noise.
set -euo pipefail

BUILD_DIR="${1:?usage: tools/bench_snapshot.sh <build-dir> [out.json]}"
OUT="${2:-BENCH_05.json}"
MICRO="$BUILD_DIR/bench/bench_micro"
E05="$BUILD_DIR/bench/bench_e05_qos_adaptation"

if [[ ! -x "$MICRO" || ! -x "$E05" ]]; then
  echo "bench binaries missing under $BUILD_DIR/bench (configure with google-benchmark installed)" >&2
  exit 1
fi

MICRO_JSON=$(mktemp)
trap 'rm -f "$MICRO_JSON"' EXIT
"$MICRO" \
  --benchmark_filter='BM_LinkCellHotPath/64|BM_SwitchForward/64|BM_SimulatorEventChurn/100000' \
  --benchmark_min_time=0.2 --benchmark_format=json >"$MICRO_JSON" 2>/dev/null

# items_per_second for an exact benchmark name, from the JSON report.
rate() {
  awk -v want="\"name\": \"$1\"," '
    index($0, want) { hit = 1 }
    hit && /"items_per_second":/ {
      gsub(/[^0-9.eE+-]/, "", $2); print $2; exit
    }' "$MICRO_JSON"
}

LINK_CPS=$(rate "BM_LinkCellHotPath/64")
SWITCH_CPS=$(rate "BM_SwitchForward/64")
EVENTS_PS=$(rate "BM_SimulatorEventChurn/100000")

E05_SIM_SECONDS=12
START_NS=$(date +%s%N)
"$E05" closed-loop "$E05_SIM_SECONDS" >/dev/null
END_NS=$(date +%s%N)
E05_WALL=$(awk -v s="$START_NS" -v e="$END_NS" 'BEGIN { printf "%.3f", (e - s) / 1e9 }')

cat >"$OUT" <<JSON
{
  "bench": "BENCH_05",
  "description": "cell-train data plane: pooled event engine + batched link/switch forwarding",
  "link_cells_per_sec": ${LINK_CPS:-0},
  "switch_cells_per_sec": ${SWITCH_CPS:-0},
  "events_per_sec": ${EVENTS_PS:-0},
  "e05_closed_loop_sim_seconds": $E05_SIM_SECONDS,
  "e05_closed_loop_wall_seconds": $E05_WALL
}
JSON
echo "wrote $OUT:"
cat "$OUT"

# The metro fleet bench emits its own machine-readable snapshot; it rides
# along whenever the binary exists so the fleet numbers travel with the
# data-plane ones.
E16="$BUILD_DIR/bench/bench_e16_metro_scale"
OUT06="$(dirname "$OUT")/BENCH_06.json"
if [[ -x "$E16" ]]; then
  "$E16" snapshot >"$OUT06"
  echo "wrote $OUT06:"
  cat "$OUT06"
else
  echo "skipping $OUT06: $E16 missing" >&2
fi

# Broadcast fan-out: cells must scale with tree edges, not viewers. The
# bench exits non-zero when the 1k-viewer sweep point falls under 10x
# against per-viewer unicast or any tree edge is double-reserved.
E18="$BUILD_DIR/bench/bench_e18_broadcast"
OUT09="$(dirname "$OUT")/BENCH_09.json"
if [[ -x "$E18" ]]; then
  "$E18" snapshot >"$OUT09"
  echo "wrote $OUT09:"
  cat "$OUT09"
else
  echo "skipping $OUT09: $E18 missing" >&2
fi
