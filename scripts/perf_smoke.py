#!/usr/bin/env python3
"""Perf smoke gate: diff a fresh BENCH_sweep.json against the committed
BENCH_baseline.json.

The benchmark harness (`cargo bench -p bevra-bench --bench engine`) writes
`BENCH_sweep.json` at the repo root in the `bevra-bench-v1` schema (see
EXPERIMENTS.md § "Benchmark artifact schema"). This script fails if any
benchmark shared by both files regressed by more than THRESHOLD× in median
ns — a deliberately loose gate: CI runners differ from the machine that
recorded the baseline, so the gate only catches order-of-magnitude
regressions (a kernel silently falling off its vectorized path, the
persistent cache no longer hitting), not percent-level noise.

`--require NAME` (repeatable) replaces the default required-row set, so a
job that only ran one bench target (e.g. the sim-scale job running
`--bench sim`) can gate on its own rows without demanding the kernel
rows. `--row-threshold NAME:RATIO` (repeatable) replaces THRESHOLD for
one row with a tighter per-row bound against its committed baseline —
used by the kernel job to hold the exact fused B+R pass
(`kernel_sweep_fused`) within 1.15× of its baseline median, and by the
sim-scale job to hold the million-flow timer-wheel loop
(`sim_million_flow_wheel_soa`) within 1.74×.

Usage: perf_smoke.py [fresh] [baseline] [--threshold X]
                     [--require NAME ...] [--row-threshold NAME:RATIO ...]
Defaults: BENCH_sweep.json BENCH_baseline.json --threshold 3.0
"""

import argparse
import json
import sys

# The four canonical kernel rows; their absence means the bench harness is
# broken (or the bench was renamed without updating the baseline), which
# must fail the gate rather than silently shrink its coverage.
REQUIRED = (
    "kernel_sweep_serial",
    "kernel_sweep_batched",
    "kernel_sweep_parallel",
    "kernel_sweep_warm_cache",
)


def load(path):
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") != "bevra-bench-v1":
        sys.exit(f"{path}: unexpected schema {doc.get('schema')!r}")
    rows = {r["name"]: r for r in doc["results"]}
    if not rows:
        sys.exit(f"{path}: no results")
    return rows


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("fresh", nargs="?", default="BENCH_sweep.json")
    ap.add_argument("baseline", nargs="?", default="BENCH_baseline.json")
    ap.add_argument("--threshold", type=float, default=3.0)
    ap.add_argument("--require", action="append", default=None, metavar="NAME")
    ap.add_argument(
        "--row-threshold", action="append", default=[], metavar="NAME:RATIO"
    )
    args = ap.parse_args()

    row_threshold = {}
    for spec in args.row_threshold:
        try:
            name, ratio_s = spec.split(":")
            row_threshold[name] = float(ratio_s)
        except ValueError:
            sys.exit(f"bad --row-threshold spec {spec!r}, expected NAME:RATIO")

    fresh = load(args.fresh)
    base = load(args.baseline)

    required = tuple(args.require) if args.require else REQUIRED
    missing = [name for name in required if name not in fresh]
    if missing:
        sys.exit(f"{args.fresh}: missing required benches: {', '.join(missing)}")

    shared = sorted(set(fresh) & set(base))
    if not shared:
        sys.exit("no benchmarks shared between fresh run and baseline")
    unbounded = [name for name in row_threshold if name not in shared]
    if unbounded:
        sys.exit(f"--row-threshold: not in both files: {', '.join(unbounded)}")

    failures = []
    print(f"{'benchmark':40} {'baseline':>12} {'fresh':>12} {'ratio':>7} {'bound':>7}")
    for name in shared:
        b = base[name]["median_ns"]
        f = fresh[name]["median_ns"]
        bound = row_threshold.get(name, args.threshold)
        ratio = f / b if b > 0 else float("inf")
        flag = "  REGRESSED" if ratio > bound else ""
        print(f"{name:40} {b / 1e6:10.2f}ms {f / 1e6:10.2f}ms {ratio:6.2f}x {bound:6.2f}x{flag}")
        if ratio > bound:
            failures.append((name, ratio, bound))

    if failures:
        worst = ", ".join(f"{n} ({r:.2f}x > {b:.2f}x)" for n, r, b in failures)
        sys.exit(f"perf smoke FAILED (median regression past its bound): {worst}")
    print(f"perf smoke ok: {len(shared)} benches within their bounds of baseline")


if __name__ == "__main__":
    main()
