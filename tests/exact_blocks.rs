//! Bitwise walls for block-evaluated exact π.
//!
//! The exact welfare walks evaluate π a block at a time through
//! [`Utility::value_slice`] instead of one [`Utility::value`] call per
//! table entry. These tests hold that path to the per-element evaluation
//! it replaces: the slice against `value` for every family on edge inputs,
//! and the per-point best-effort walk against an element-wise reference
//! walk across its 64-entry block edges.

use bevra::analysis::DiscreteModel;
use bevra::load::Tabulated;
use bevra::num::NeumaierSum;
use bevra::utility::{
    AdaptiveExp, AlgebraicTail, ExponentialElastic, PowerLow, Ramp, Rigid, Saturating, Utility,
};
use std::sync::atomic::{AtomicUsize, Ordering};
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
