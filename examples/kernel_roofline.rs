//! Roofline probe for the fig4 value kernel: wall time next to the
//! traffic and arithmetic it implies, for the exact fused B+R pass (the
//! default `batch` backend) at each forceable SIMD tier.
//!
//! For the Figure 4 setting (algebraic z = 3 load tabulated to 2^18
//! entries, adaptive-exponential utility, 48-point capacity grid) the
//! exact pass walks (nearly) every admission level for every lane — up
//! to ~12.6M lane-evaluations per sweep. Each one spends ~44 flops: the
//! bandwidth division `C/k` (1), the exponent `−b²/(κ+b)` (4), the `expm1` port's
//! full lane body (~30: k-rounding, `hi`/`lo` split, Estrin `r1`,
//! reconstruction), the `b ≤ 0` select (1) and the masked Neumaier update
//! (~8). The loop is outer `k`, inner capacity lane, so the table is read
//! once per level — `pmf(k)` and the prefix mean behind
//! `tail_mean_above(k)`, 16 bytes — and shared by all 48 lanes, while the
//! per-lane scratch (capacities, bandwidths, `π`, mask, accumulators)
//! stays in L1. That is ~130 flop per table byte: compute-bound on any
//! machine, so the tier (the width the `expm1` port and the Neumaier step
//! run at) is what moves the time. See EXPERIMENTS.md § "Roofline and
//! energy".
//!
//! The `scalar` tier runs the host libm's `expm1` wherever the port's
//! verified variant needs FMA (the probe's documented fallback), so its
//! row times libm, not the port.
//!
//! ```text
//! cargo run --release --example kernel_roofline
//! ```

use bevra::analysis::{sweep_grid_fused, DiscreteModel, PiEval};
use bevra::load::{Algebraic, Tabulated, PAPER_MEAN_LOAD};
use bevra::num::{expm1, simd};
use bevra::utility::AdaptiveExp;
use std::sync::Arc;
use std::time::Instant;

/// Estimated flops per lane-evaluation of the exact pass (see module docs).
const FLOPS_PER_LANE_EVAL: f64 = 44.0;
/// Table bytes read per admission level: `pmf(k)` and the prefix mean.
const TABLE_BYTES_PER_LEVEL: f64 = 16.0;

fn grid(n: usize) -> Vec<f64> {
    let (lo, hi) = (PAPER_MEAN_LOAD / 20.0, 10.0 * PAPER_MEAN_LOAD);
    let ratio = (hi / lo).powf(1.0 / (n - 1) as f64);
    (0..n).map(|i| lo * ratio.powi(i as i32)).collect()
}

fn main() {
    let alg = Algebraic::from_mean(3.0, PAPER_MEAN_LOAD).expect("fig4 family");
    let load = Arc::new(Tabulated::from_model(&alg, 1e-9, 1 << 18));
    let model = DiscreteModel::new(Arc::clone(&load), AdaptiveExp::paper());
    let cs = grid(48);

    // The algebraic z = 3 tail decays too slowly for the 1e-15 early-exit
    // bound to fire before the table runs out, so the count is the full
    // rectangle: an upper bound that the exit can trim only near the end.
    let levels = load.len() as u64 - 1;
    let lane_evals = levels * cs.len() as u64;
    let bytes = levels as f64 * TABLE_BYTES_PER_LEVEL;
    let flops = lane_evals as f64 * FLOPS_PER_LANE_EVAL;
    println!(
        "fig4 sweep: {} lanes x {} levels = {:.2}M lane-evals, {:.1} MiB table traffic, {:.2} GF, {:.0} flop/byte",
        cs.len(),
        levels,
        lane_evals as f64 / 1e6,
        bytes / (1024.0 * 1024.0),
        flops / 1e9,
        flops / bytes,
    );
    println!();
    println!(
        "{:<26} {:>8} {:>10} {:>12} {:>14} {:>10}",
        "configuration", "expm1", "ms/sweep", "ns/point", "ns/lane-eval", "GF/s"
    );

    let detected = simd::detected();
    let restore = simd::level();
    let tiers: Vec<simd::Level> = [simd::Level::Scalar, simd::Level::Avx2, simd::Level::Avx512]
        .into_iter()
        .filter(|t| t.runnable_at(detected))
        .collect();

    let mut bits_per_tier = Vec::new();
    for &tier in &tiers {
        simd::force_level(tier);
        let sweep = || sweep_grid_fused(&model, &cs, PiEval::Exact).best_effort[47];
        // Warm once (this also runs the tier's expm1 probe), then time
        // three sweeps and keep the fastest.
        let bits = sweep().to_bits();
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let t0 = Instant::now();
            std::hint::black_box(sweep());
            best = best.min(t0.elapsed().as_secs_f64());
        }
        let ns = best * 1e9;
        println!(
            "{:<26} {:>8} {:>10.2} {:>12.0} {:>14.2} {:>10.2}",
            format!("fused-exact  @ {}", tier.as_str()),
            format!("{:?}", expm1::path()),
            best * 1e3,
            ns / cs.len() as f64,
            ns / lane_evals as f64,
            flops / ns,
        );
        bits_per_tier.push(bits);
    }
    simd::force_level(restore);

    println!();
    println!(
        "B[47] bits {} across tiers (the dispatch contract); run with\n\
         BEVRA_SIMD=scalar|avx2|avx512 to pin the whole process to one tier.",
        if bits_per_tier.windows(2).all(|w| w[0] == w[1]) { "identical" } else { "DIFFER" }
    );
}
