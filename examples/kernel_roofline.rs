//! Roofline probe for the fig4 value kernels: wall time next to the
//! traffic and arithmetic it implies, for the fused fast pass per SIMD
//! tier.
//!
//! For the Figure 4 setting (algebraic z = 3 load tabulated to 2^18
//! entries, adaptive-exponential utility, 48-point capacity grid) the
//! fast B-pass walks every admission level for every lane — ~12.6M
//! lane-evaluations per sweep, each reading one 8-byte pmf entry and
//! spending ~33 flops (range reduction + 12-coefficient polynomial +
//! Neumaier update). That is ~4 flop/byte: comfortably compute-bound on
//! any machine whose caches hold a 2 MiB table, which is why widening
//! the datapath (AVX2 → AVX-512) and shortening the polynomial pay off
//! while cutting table traffic does not. See EXPERIMENTS.md § "Roofline
//! and energy".
//!
//! Energy is read from the optional RAPL probe when `/sys/class/powercap`
//! is present and readable; otherwise the column prints `n/a`.
//!
//! ```text
//! cargo run --release --example kernel_roofline
//! ```

use bevra::analysis::{sweep_grid_fused, DiscreteModel, PiEval};
use bevra::load::{Algebraic, Tabulated, PAPER_MEAN_LOAD};
use bevra::num::simd;
use bevra::obs::energy::EnergyProbe;
use bevra::utility::AdaptiveExp;
use std::sync::Arc;
use std::time::Instant;

/// Estimated flops per lane-evaluation of the fast π kernel: ~6 for the
/// range reduction, ~14 for the degree-12 polynomial (Estrin), ~4 for
/// the reconstruction and weight, ~9 for the Neumaier update.
const FLOPS_PER_LANE_EVAL: f64 = 33.0;

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

    // The algebraic z = 3 tail decays too slowly for the early-exit bound
    // to fire, so every lane walks the whole table: the eval count is the
    // full rectangle, not an estimate.
    let lane_evals = (load.len() as u64 - 1) * cs.len() as u64;
    let bytes = lane_evals as f64 * 8.0; // one pmf read per lane-eval
    let flops = lane_evals as f64 * FLOPS_PER_LANE_EVAL;
    println!(
        "fig4 sweep: {} lanes x {} levels = {:.2}M lane-evals, {:.0} MiB pmf traffic, {:.2} GF, {:.1} flop/byte",
        cs.len(),
        load.len() - 1,
        lane_evals as f64 / 1e6,
        bytes / (1024.0 * 1024.0),
        flops / 1e9,
        flops / bytes,
    );
    let probe = EnergyProbe::open();
    match &probe {
        Some(p) => println!("energy: RAPL probe open ({} package domain(s))", p.domain_count()),
        None => println!("energy: no readable RAPL hierarchy (column prints n/a)"),
    }
    println!();
    println!(
        "{:<26} {:>10} {:>12} {:>14} {:>10} {:>10}",
        "configuration", "ms/sweep", "ns/point", "ns/lane-eval", "GF/s", "J/sweep"
    );

    let detected = simd::detected();
    let restore = simd::level();
    let tiers: Vec<simd::Level> = [simd::Level::Scalar, simd::Level::Avx2, simd::Level::Avx512]
        .into_iter()
        .filter(|t| t.runnable_at(detected))
        .collect();

    let row = |name: &str, f: &dyn Fn() -> f64| {
        // Warm once, then time three sweeps and keep the fastest.
        let _ = f();
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let t0 = Instant::now();
            let sink = f();
            best = best.min(t0.elapsed().as_secs_f64());
            std::hint::black_box(sink);
        }
        let joules = probe.as_ref().and_then(|p| {
            let r = p.begin()?;
            let _ = std::hint::black_box(f());
            r.joules()
        });
        let ns = best * 1e9;
        println!(
            "{:<26} {:>10.2} {:>12.0} {:>14.2} {:>10.2} {:>10}",
            name,
            best * 1e3,
            ns / cs.len() as f64,
            ns / lane_evals as f64,
            flops / ns,
            joules.map_or_else(|| "n/a".to_string(), |j| format!("{j:.3}")),
        );
    };

    for &tier in &tiers {
        simd::force_level(tier);
        let label = format!("fused-fast   @ {}", tier.as_str());
        row(&label, &|| sweep_grid_fused(&model, &cs, PiEval::Fast).best_effort[47]);
    }
    simd::force_level(restore);

    println!();
    println!(
        "note: identical B[47] bits across tiers is the dispatch contract; run with\n\
         BEVRA_SIMD=scalar|avx2|avx512 to pin the whole process to one tier."
    );
}
