#!/usr/bin/env bash
# Head-to-head of the exact path's expm1: host libm vs the verified port,
# on one pinned slice of Figure 4 arguments (crates/bench/benches/engine.rs,
# rows kernel_expm1_libm and kernel_expm1_port). Only these two rows are
# run and merged into BENCH_sweep.json.
#
# Usage: scripts/bench_expm1.sh [measurement window in ms, default 2000]
# BEVRA_SIMD pins the tier the port runs at, as for every dispatched kernel.
set -euo pipefail

BENCHES=(
  kernel_expm1_libm
  kernel_expm1_port
)

export BEVRA_BENCH_MS="${1:-2000}"
echo "Measurement window: ${BEVRA_BENCH_MS} ms per row"

for name in "${BENCHES[@]}"; do
  echo
  echo "=== $name ==="
  cargo bench -q -p bevra-bench --bench engine -- "$name"
done
