//! Bitwise walls for block-evaluated exact π.
//!
//! The exact welfare walks evaluate π a block at a time through
//! [`Utility::value_slice`] instead of one [`Utility::value`] call per
//! table entry. These tests hold that path to the per-element evaluation
//! it replaces: the slice against `value` for every family on edge inputs,
//! the per-point best-effort walk against an element-wise reference walk
//! across its 64-entry block edges, and the `expm1` port the exponential
//! families' slices run against the host libm at every SIMD tier.

use bevra::analysis::DiscreteModel;
use bevra::engine::{Architecture, SweepEngine};
use bevra::load::{Algebraic, Tabulated, PAPER_MEAN_LOAD};
use bevra::num::expm1::{expm1_nonpos_slice, path, probe_corpus};
use bevra::num::simd::{self, Level};
use bevra::num::NeumaierSum;
use bevra::utility::{
    AdaptiveExp, AlgebraicTail, ExponentialElastic, PowerLow, Ramp, Rigid, Saturating, Utility,
};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Edge inputs plus the bandwidths `C/k` Figure 4 evaluates: 48 capacities
/// log-spaced over `[5, 1000]` (k̄ = 100) against admission levels across
/// the 2^20-entry table, block edges included.
fn bandwidths() -> Vec<f64> {
    let mut bs = vec![
        0.0,
        -0.0,
        -1.0,
        -1e-300,
        -1e300,
        f64::NAN,
        -f64::NAN,
        f64::from_bits(0x7ff8_0000_0000_1234),
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::MIN_POSITIVE,
        f64::MIN_POSITIVE / 2.0,
        5e-324,
        -5e-324,
        1e-310,
        1e-300,
        1e300,
        f64::MAX,
        0.5,
        1.0,
        2.0,
    ];
    let ratio = (1000.0f64 / 5.0).powf(1.0 / 47.0);
    for i in 0..48 {
        let c = 5.0 * ratio.powi(i);
        for k in [1u64, 2, 63, 64, 65, 127, 128, 129, 1000, 65_535, 65_536, (1 << 20) - 1] {
            bs.push(c / k as f64);
        }
    }
    bs
}

#[test]
fn value_slice_is_bitwise_value_for_every_family() {
    let families: Vec<Box<dyn Utility>> = vec![
        Box::new(AdaptiveExp::paper()),
        Box::new(AdaptiveExp::new(2.5)),
        Box::new(ExponentialElastic::default()),
        Box::new(ExponentialElastic::new(0.7)),
        Box::new(Saturating::default()),
        Box::new(Rigid::unit()),
        Box::new(Ramp::new(0.5)),
        Box::new(AlgebraicTail::new(1.5)),
        Box::new(PowerLow::new(2.0)),
    ];
    let bs = bandwidths();
    for u in &families {
        // Every prefix length up to 9 exercises the vector remainder
        // handling; the full slice covers the bulk.
        for n in (0..=9).chain([bs.len()]) {
            let mut out = vec![0.0; n];
            u.value_slice(&bs[..n], &mut out);
            for (&b, &o) in bs[..n].iter().zip(&out) {
                assert_eq!(
                    o.to_bits(),
                    u.value(b).to_bits(),
                    "{}: value_slice({b:e}) = {o:e} is not value({b:e}) = {:e}",
                    u.name(),
                    u.value(b)
                );
            }
        }
    }
}

/// A utility wrapper counting `value` calls. It keeps the default
/// `value_slice` (a loop over `value`), so every evaluation is counted.
struct Counting<U> {
    inner: U,
    calls: AtomicUsize,
}

impl<U: Utility> Utility for Counting<U> {
    fn value(&self, b: f64) -> f64 {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.inner.value(b)
    }
    fn name(&self) -> &'static str {
        "counting"
    }
}

/// The per-point best-effort walk one `value` call at a time, with its
/// early exit: the element-wise reference. Returns `B(C)` and the exit `k`.
fn reference_walk(load: &Tabulated, u: &dyn Utility, c: f64) -> (f64, Option<u64>) {
    let mut acc = NeumaierSum::new();
    for k in 1..load.len() as u64 {
        let p = load.pmf(k);
        let pi = u.value(c / k as f64);
        if p > 0.0 {
            acc.add(p * k as f64 * pi);
        }
        if k % 64 == 0 || pi == 0.0 {
            let bound = pi * load.tail_mean_above(k);
            if bound <= 1e-15 * acc.total().abs().max(1e-300) {
                acc.add(0.5 * bound);
                return (acc.total() / load.mean(), Some(k));
            }
        }
    }
    (acc.total() / load.mean(), None)
}

#[test]
fn per_point_walk_is_bitwise_across_block_edges() {
    // Rigid π(C/k) drops to exactly 0 at k = ⌊C⌋ + 1, so its exits land
    // wherever the capacity puts them. Adaptive π only underflows to 0 for
    // bandwidths below ~1e-162; otherwise it exits on the periodic check
    // (fast-decaying tables) or walks the whole table.
    let rigid_cs = [0.5, 1.0, 1.5, 30.0, 62.0, 62.5, 63.0, 64.0, 65.0, 100.0, 127.0, 128.0, 500.0];
    let adaptive_cs = [1e-170, 1.2e-161, 5e-161, 8e-161, 0.5, 5.0, 50.0, 500.0];
    // Table shapes, as weights e^{−r·k}.
    let shapes = [("flat", 0.0), ("exp(-k)", 1.0), ("exp(-k/3)", 1.0 / 3.0)];
    // (before, on, after) the first 64-entry boundary, per family.
    let mut rigid_seen = [false; 3];
    let mut adaptive_seen = [false; 3];
    for len in [2usize, 63, 64, 65, 129] {
        for (shape, r) in shapes {
            let weights: Vec<f64> = (0..len).map(|k| (-r * k as f64).exp()).collect();
            let load = Arc::new(Tabulated::from_weights(weights));
            for (rigid, cs) in [(true, &rigid_cs[..]), (false, &adaptive_cs[..])] {
                for &c in cs {
                    let inner: Arc<dyn Utility> = if rigid {
                        Arc::new(Rigid::unit())
                    } else {
                        Arc::new(AdaptiveExp::paper())
                    };
                    let (want, exit) = reference_walk(&load, inner.as_ref(), c);
                    let counting = Counting { inner, calls: AtomicUsize::new(0) };
                    let m = DiscreteModel::new(Arc::clone(&load), counting);
                    let got = m.best_effort(c);
                    let calls = m.utility().calls.load(Ordering::Relaxed) as u64;
                    let ctx = format!(
                        "{} len={len} {shape} C={c:e} exit={exit:?}",
                        if rigid { "rigid" } else { "adaptive" }
                    );
                    assert_eq!(got.to_bits(), want.to_bits(), "{ctx}: {got:e} vs {want:e}");
                    let last = exit.unwrap_or(len as u64 - 1);
                    assert!(calls <= last + 1, "{ctx}: {calls} value() calls");

                    // The family's own `value_slice` override, uncounted.
                    let plain = if rigid {
                        DiscreteModel::new(Arc::clone(&load), Rigid::unit()).best_effort(c)
                    } else {
                        DiscreteModel::new(Arc::clone(&load), AdaptiveExp::paper()).best_effort(c)
                    };
                    assert_eq!(plain.to_bits(), want.to_bits(), "{ctx}: override {plain:e}");

                    let seen = if rigid { &mut rigid_seen } else { &mut adaptive_seen };
                    match exit {
                        Some(k) if k < 64 => seen[0] = true,
                        Some(64) => seen[1] = true,
                        Some(_) => seen[2] = true,
                        None if len > 65 => seen[2] = true,
                        None => {}
                    }
                }
            }
        }
    }
    assert_eq!(rigid_seen, [true; 3], "rigid exits before/on/after the first boundary");
    assert_eq!(adaptive_seen, [true; 3], "adaptive exits before/on/after the first boundary");
}

/// `n` seeded arguments `x ≤ 0` in three interleaved streams: uniform
/// [−60, 0], log-uniform magnitudes 1e-20…1e3, and Figure 4's
/// `−b²/(κ+b)` with `b` log-uniform over [1e-4, 1e3].
fn seeded_args(n: usize, seed: u64) -> Vec<f64> {
    let mut s = seed | 1;
    let mut unit = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        (s >> 11) as f64 / (1u64 << 53) as f64
    };
    let kappa = AdaptiveExp::paper().kappa;
    (0..n)
        .map(|i| match i % 3 {
            0 => -60.0 * unit(),
            1 => -(10f64.powf(-20.0 + 23.0 * unit())),
            _ => {
                let b = 10f64.powf(-4.0 + 7.0 * unit());
                -(b * b / (kappa + b))
            }
        })
        .collect()
}

#[test]
fn expm1_port_is_libm_at_every_tier() {
    // The probe corpus plus 10^7 seeded arguments, in 10^6-argument
    // chunks, through the same dispatched entry the exponential families'
    // `value_slice` runs, at every tier this host can force.
    let tiers: Vec<Level> = [Level::Scalar, Level::Avx2, Level::Avx512, Level::Neon]
        .into_iter()
        .filter(|l| l.runnable_at(simd::detected()))
        .collect();
    let before = simd::level();
    let mut chunks = vec![probe_corpus()];
    chunks.extend((0..10u64).map(|i| seeded_args(1_000_000, 0x5EED_0000 + i)));
    let mut out = Vec::new();
    for xs in &chunks {
        let want: Vec<u64> = xs.iter().map(|x| x.exp_m1().to_bits()).collect();
        out.resize(xs.len(), 0.0);
        for &tier in &tiers {
            simd::force_level(tier);
            expm1_nonpos_slice(xs, &mut out);
            for ((&x, &o), &w) in xs.iter().zip(&out).zip(&want) {
                assert_eq!(
                    o.to_bits(),
                    w,
                    "expm1({x:e}) along {:?} at tier {}: {o:e} is not libm's {:e}",
                    path(),
                    tier.as_str(),
                    f64::from_bits(w)
                );
            }
        }
    }
    simd::force_level(before);
}

/// Adaptive utility that checks every `value_slice` element against
/// `value` (the libm definition) and counts what it checked.
struct CheckedAdaptive {
    inner: AdaptiveExp,
    checked: AtomicU64,
}

impl Utility for CheckedAdaptive {
    fn value(&self, b: f64) -> f64 {
        self.inner.value(b)
    }
    fn name(&self) -> &'static str {
        "adaptive"
    }
    fn value_slice(&self, bs: &[f64], out: &mut [f64]) {
        self.inner.value_slice(bs, out);
        for (&b, &o) in bs.iter().zip(out.iter()) {
            let want = self.inner.value(b);
            assert_eq!(o.to_bits(), want.to_bits(), "π({b:e}) = {o:e}, libm {want:e}");
        }
        self.checked.fetch_add(bs.len() as u64, Ordering::Relaxed);
    }
}

#[test]
#[ignore = "exhaustive over the shipped fig4 run (~1e9 arguments); run with --release -- --ignored"]
fn fig4_adaptive_arguments_are_libm_exhaustively() {
    // The adaptive half of `figures::fig4(Quality::Full)`: the same
    // 2^20-entry algebraic table, 48-capacity sweep (Δ probes included)
    // and 801-point value tables, so every argument the shipped run hands
    // the `expm1` port is checked against libm.
    let alg = Algebraic::from_mean(3.0, PAPER_MEAN_LOAD).expect("fig4 calibration");
    let load = Arc::new(Tabulated::from_model(&alg, 1e-9, 1 << 20));
    let kbar = load.mean();
    let utility = CheckedAdaptive { inner: AdaptiveExp::paper(), checked: AtomicU64::new(0) };
    let engine = SweepEngine::new(DiscreteModel::new(Arc::clone(&load), utility));
    let (lo, hi) = (kbar / 20.0, 10.0 * kbar);
    let ratio = (hi / lo).powf(1.0 / 47.0);
    let cs: Vec<f64> = (0..48).map(|i| lo * ratio.powi(i)).collect();
    let sweep = engine.sweep_checked(&cs);
    assert_eq!(sweep.outcomes.len(), 48);
    for arch in [Architecture::BestEffort, Architecture::Reservation] {
        let _ = engine.value_table_checked(arch, kbar, 300.0 * kbar, 800);
    }
    let checked = engine.model().utility().checked.load(Ordering::Relaxed);
    eprintln!("checked {checked} adaptive arguments along {:?}", path());
    assert!(checked > 1_000_000_000, "only {checked} arguments reached value_slice");
}
