//! Bench: the sweep engine — serial vs parallel vs cached (warm) sweeps
//! over the Figure 2/3 grids, the parallel welfare-table build, and the
//! value-kernel paths (scalar per-point vs grid-batched vs warm
//! persistent cache) on the Figure 4 algebraic/adaptive setting. This is
//! the acceptance bench for the engine's speedup claims; results land in
//! `BENCH_sweep.json` (see EXPERIMENTS.md § "Benchmark artifact schema").

use bevra_core::{sweep_grid_fused, DiscreteModel, PiEval};
use bevra_obs::energy::EnergyProbe;
use bevra_engine::{Architecture, CacheMode, ExecMode, PersistentCache, SweepEngine};
use bevra_load::{Algebraic, Geometric, Poisson, Tabulated, PAPER_MEAN_LOAD};
use bevra_utility::AdaptiveExp;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;

/// Average package joules per call of `f` over `iters` calls, from the
/// optional RAPL probe; `None` (→ JSON null) when the powercap hierarchy
/// is absent or unreadable, as in most CI containers.
fn measure_joules<F: FnMut()>(iters: u32, mut f: F) -> Option<f64> {
    let probe = EnergyProbe::open()?;
    let reading = probe.begin()?;
    for _ in 0..iters {
        f();
    }
    reading.joules().map(|j| j / f64::from(iters))
}

fn grid(n: usize) -> Vec<f64> {
    let (lo, hi) = (PAPER_MEAN_LOAD / 20.0, 10.0 * PAPER_MEAN_LOAD);
    let ratio = (hi / lo).powf(1.0 / (n - 1) as f64);
    (0..n).map(|i| lo * ratio.powi(i as i32)).collect()
}

fn engine_of(load: &Arc<Tabulated>, mode: ExecMode) -> SweepEngine<AdaptiveExp> {
    SweepEngine::with_mode(DiscreteModel::new(Arc::clone(load), AdaptiveExp::paper()), mode)
}

fn engine_sweeps(c: &mut Criterion) {
    let load = Arc::new(Tabulated::from_model(&Poisson::new(PAPER_MEAN_LOAD), 1e-12, 1 << 18));
    let cs = grid(48);
    c.bench_function("engine_sweep_serial_cold", |b| {
        b.iter(|| black_box(engine_of(&load, ExecMode::Serial).sweep(black_box(&cs))));
    });
    let threads = bevra_engine::thread_count();
    c.bench_function("engine_sweep_parallel_cold", |b| {
        b.iter(|| {
            black_box(engine_of(&load, ExecMode::Parallel { threads }).sweep(black_box(&cs)))
        });
    });
    // Warm cache: the same engine re-sweeps the grid (pure hits).
    let warm = engine_of(&load, ExecMode::Parallel { threads });
    let _ = warm.sweep(&cs);
    c.bench_function("engine_sweep_parallel_warm", |b| {
        b.iter(|| black_box(warm.sweep(black_box(&cs))));
    });

    let geo = Arc::new(Tabulated::from_model(&Geometric::from_mean(PAPER_MEAN_LOAD), 1e-12, 1 << 18));
    c.bench_function("engine_value_table_serial", |b| {
        b.iter(|| {
            black_box(engine_of(&geo, ExecMode::Serial).value_table(
                Architecture::BestEffort,
                PAPER_MEAN_LOAD,
                300.0 * PAPER_MEAN_LOAD,
                400,
            ))
        });
    });
    c.bench_function("engine_value_table_parallel", |b| {
        b.iter(|| {
            black_box(engine_of(&geo, ExecMode::Parallel { threads }).value_table(
                Architecture::BestEffort,
                PAPER_MEAN_LOAD,
                300.0 * PAPER_MEAN_LOAD,
                400,
            ))
        });
    });
}

/// The value-kernel acceptance benches: `k_max`/`B`/`R` for a 48-point
/// Figure 4 grid (algebraic z = 3 load, adaptive utility, 2^18-entry
/// table), isolating the kernels from the off-grid gap root-finder. Four
/// canonical rows: per-point model calls, grid-batched (fast π), parallel
/// batched, and warm persistent cache; plus a row per remaining backend
/// (`PiEval::Exact`, `PiEval::Portable`) and the bare fused pass.
fn kernel_sweeps(c: &mut Criterion) {
    let alg = Algebraic::from_mean(3.0, PAPER_MEAN_LOAD).expect("paper fig4 family");
    let load = Arc::new(Tabulated::from_model(&alg, 1e-9, 1 << 18));
    let cs = grid(48);
    let n = cs.len();
    let model = || DiscreteModel::new(Arc::clone(&load), AdaptiveExp::paper());

    c.bench_function("kernel_sweep_serial", |b| {
        b.points(n);
        b.iter(|| {
            let m = model();
            for &cap in &cs {
                black_box(m.k_max(cap));
                black_box(m.best_effort(cap));
                black_box(m.reservation(cap));
            }
        });
    });
    c.bench_function("kernel_sweep_batched", |b| {
        b.points(n);
        b.iter(|| {
            let eng = SweepEngine::with_mode(model(), ExecMode::Serial)
                .with_kernel(PiEval::Fast);
            eng.prime(black_box(&cs));
        });
    });
    c.bench_function("kernel_sweep_batched_exact", |b| {
        b.points(n);
        b.iter(|| {
            let eng =
                SweepEngine::with_mode(model(), ExecMode::Serial).with_kernel(PiEval::Exact);
            eng.prime(black_box(&cs));
        });
    });
    c.bench_function("kernel_sweep_batched_portable", |b| {
        b.points(n);
        b.iter(|| {
            let eng =
                SweepEngine::with_mode(model(), ExecMode::Serial).with_kernel(PiEval::Portable);
            eng.prime(black_box(&cs));
        });
    });
    // The bare fused B+R pass (fast π) at the detected SIMD tier, without
    // the engine around it. CI holds it to an absolute per-row bound
    // against its committed baseline (perf_smoke.py --row-threshold).
    // Energy is recorded when the RAPL probe is available and reported as
    // joules_per_sweep (null otherwise, never gated).
    c.bench_function("kernel_sweep_fused", |b| {
        b.points(n);
        let m = model();
        b.iter(|| black_box(sweep_grid_fused(black_box(&m), black_box(&cs), PiEval::Fast)));
        b.record_joules(measure_joules(8, || {
            black_box(sweep_grid_fused(black_box(&m), black_box(&cs), PiEval::Fast));
        }));
    });

    let threads = bevra_engine::thread_count();
    c.bench_function("kernel_sweep_parallel", |b| {
        b.points(n);
        b.iter(|| {
            let eng = SweepEngine::with_mode(model(), ExecMode::Parallel { threads })
                .with_kernel(PiEval::Fast);
            eng.prime(black_box(&cs));
        });
    });

    // Warm persistent cache: one cold run stores the value table, then
    // every iteration is a fresh engine loading it from disk.
    let dir = std::env::temp_dir().join(format!("bevra-bench-pcache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let pcache = || PersistentCache::new(&dir, CacheMode::ReadWrite);
    SweepEngine::with_mode(model(), ExecMode::Serial)
        .with_kernel(PiEval::Fast)
        .with_persistent_cache(pcache())
        .prime(&cs);
    c.bench_function("kernel_sweep_warm_cache", |b| {
        b.points(n);
        b.iter(|| {
            let eng = SweepEngine::with_mode(model(), ExecMode::Serial)
                .with_kernel(PiEval::Fast)
                .with_persistent_cache(pcache());
            eng.prime(black_box(&cs));
        });
    });
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(benches, engine_sweeps, kernel_sweeps);
criterion_main!(benches);
