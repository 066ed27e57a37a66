//! Grid-batched evaluation of the discrete model over a sorted capacity
//! grid.
//!
//! The per-point API ([`DiscreteModel::best_effort`] & friends) walks the
//! whole load table once *per capacity*: a G-point sweep over a table of K
//! entries costs G·K utility evaluations with the table streamed G times.
//! This module interchanges the loops — **outer `k` over the load table,
//! inner contiguous pass over the capacity grid** — so the table (its pmf
//! and prefix sums) is traversed once, the inner loop works on contiguous
//! `f64` arrays (auto-vectorization-friendly SoA layout), and a
//! **per-capacity early-exit frontier** retires small capacities as soon as
//! their remaining tail is provably negligible (`tail_mean_above` is O(1),
//! so the exit test costs nothing extra).
//!
//! Two evaluation modes are offered ([`PiEval`]):
//!
//! * [`PiEval::Exact`] — the default. Per retired-lane arithmetic is an
//!   **op-for-op mirror of the scalar path**: same `π` values (evaluated a
//!   whole lane window per `k` through [`Utility::value_slice`], bitwise
//!   `value` per element), same [`NeumaierSum`] accumulation order, same
//!   early-exit test and tail-midpoint correction, same fault-injection
//!   wrapping. Results are
//!   bitwise identical to calling [`DiscreteModel::best_effort`] /
//!   [`DiscreteModel::reservation_with_kmax`] point by point — the
//!   workspace's differential ladder and golden corpus rely on this.
//! * [`PiEval::Portable`] — opt-in. Every `π` evaluation (`k_max` argmax,
//!   `B`, and `R`) goes through [`Utility::value_portable`], the scalar
//!   branch-free polynomial with no libm dependence: results are
//!   bit-identical across operating systems, libm versions, and
//!   architectures, at the cost of a ≤ 1e-13 relative distance from the
//!   scalar path ([`crate::kernel::PORTABLE_PARITY_REL`]). This is what the
//!   engine's `deterministic-portable` backend runs.
//!
//! The admission sweep exploits monotonicity: `k_max(C)` is nondecreasing
//! in `C` (more capacity never lowers the optimal admission count), so for
//! a sorted grid the argmax search for point `i+1` starts from point `i`'s
//! result instead of from 1 — amortized O(K + G·log) instead of G
//! independent O(log²) searches. [`bevra_num::argmax_unimodal_u64`] breaks
//! ties toward the smallest maximizer regardless of its lower bound, so
//! the carried bracket returns bitwise-identical thresholds (the
//! monotonicity invariant itself is property- and mutation-tested in
//! `tests/batch_parity.rs`).

use crate::discrete::DiscreteModel;
use bevra_num::{argmax_unimodal_u64, NeumaierSum};
use bevra_utility::{total_utility, Utility};

/// How the batched kernels evaluate `π` (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PiEval {
    /// Bitwise mirror of the scalar per-point path (default).
    Exact,
    /// Scalar polynomial `π` ([`Utility::value_portable`]) for **every**
    /// evaluation, including the `k_max` argmax and the reservation head:
    /// bit-identical across platforms and libm versions, ULP-budgeted
    /// against the scalar path.
    Portable,
}

/// Results of a batched sweep: one entry per capacity, in input order.
#[derive(Debug, Clone, PartialEq)]
pub struct GridSweep {
    /// Admission threshold `k_max(C)` per capacity (`None` = elastic /
    /// never deny), identical to [`DiscreteModel::k_max`].
    pub k_max: Vec<Option<u64>>,
    /// Normalized best-effort utility `B(C)` per capacity.
    pub best_effort: Vec<f64>,
    /// Normalized reservation utility `R(C)` per capacity.
    pub reservation: Vec<f64>,
}

/// Check the sorted-ascending grid precondition shared by every kernel.
///
/// NaN capacities are rejected outright (they cannot be ordered); ±∞ and
/// nonpositive values are fine and handled exactly like the scalar path.
fn assert_sorted(capacities: &[f64]) {
    assert!(
        capacities.iter().all(|c| !c.is_nan()),
        "capacity grid must not contain NaN"
    );
    assert!(
        capacities.windows(2).all(|w| w[0] <= w[1]),
        "capacity grid must be sorted ascending"
    );
}

/// Batched [`DiscreteModel::k_max`] over a sorted capacity grid with a
/// carried argmax bracket (see module docs).
///
/// # Panics
///
/// Panics if `capacities` is not sorted ascending or contains NaN.
pub fn k_max_grid<U: Utility>(
    model: &DiscreteModel<U>,
    capacities: &[f64],
) -> Vec<Option<u64>> {
    k_max_grid_inner(model, capacities, |k| k, PiEval::Exact)
}

/// [`k_max_grid`] with an injectable carry perturbation.
///
/// The mutation tests use this to prove the carried bracket actually
/// matters: nudging the carried lower bound above the true argmax (e.g.
/// `|k| k + 1` on a plateau grid) must produce detectably wrong thresholds.
/// Production code always uses the identity nudge via [`k_max_grid`].
#[doc(hidden)]
pub fn k_max_grid_with_carry_nudge<U: Utility>(
    model: &DiscreteModel<U>,
    capacities: &[f64],
    nudge: impl Fn(u64) -> u64,
) -> Vec<Option<u64>> {
    k_max_grid_inner(model, capacities, nudge, PiEval::Exact)
}

fn k_max_grid_inner<U: Utility>(
    model: &DiscreteModel<U>,
    capacities: &[f64],
    nudge: impl Fn(u64) -> u64,
    mode: PiEval,
) -> Vec<Option<u64>> {
    assert_sorted(capacities);
    let cap_override = model.admission_cap();
    let u = model.utility();
    // The objective the argmax searches: scalar V(k) for Exact,
    // portable-π V(k) for Portable (k ≥ 1 always — the bracket never
    // probes 0, matching `total_utility`'s k = 0 short-circuit).
    let v = |k: u64, c: f64| match mode {
        PiEval::Exact => total_utility(u, k, c),
        PiEval::Portable => k as f64 * u.value_portable(c / k as f64),
    };
    let mut out = Vec::with_capacity(capacities.len());
    // Carried lower bound for the argmax search. k_max(C) is nondecreasing
    // in C, and the search returns the smallest maximizer independent of
    // where the bracket starts (as long as it starts at or below it), so
    // seeding with the previous point's threshold is exact, not heuristic.
    let mut lo = 1u64;
    for &c in capacities {
        let km = if c <= 0.0 {
            None
        } else if let Some(cap) = cap_override {
            Some(cap)
        } else {
            match argmax_unimodal_u64(|k| v(k, c), lo, 1u64 << 40) {
                Ok(k) => {
                    lo = nudge(k).max(1);
                    Some(k)
                }
                Err(_) => None,
            }
        };
        out.push(km);
    }
    out
}

/// [`Utility::value_portable`] over a bandwidth slice — the portable
/// mode's `π` pass (the exact mode's is [`Utility::value_slice`]).
fn value_portable_slice<U: Utility>(u: &U, bs: &[f64], out: &mut [f64]) {
    for (o, &b) in out.iter_mut().zip(bs) {
        *o = u.value_portable(b);
    }
}

/// Fused B+R sweep: one table traversal serves both architectures.
///
/// `k_max`, `B`, and `R` for every capacity. The reservation head
/// `Σ_{k ≤ k_max} P(k)·k·π(C/k)` is a **prefix of the best-effort series**
/// — the same terms, in the same order — so this kernel evaluates each
/// `(k, C)` pair once and feeds both accumulators. This is the one grid
/// entry point every engine backend runs, parameterized by its [`PiEval`]:
/// a pointwise fused loop that mirrors the per-point path op for op (same
/// `π` values, same [`NeumaierSum`] order per accumulator, same early-exit
/// and fault wrapping). Under [`PiEval::Exact`] results are **bitwise
/// identical** to [`DiscreteModel::k_max`] / [`DiscreteModel::best_effort`]
/// / [`DiscreteModel::reservation`] called point by point; under
/// [`PiEval::Portable`] every `π` is [`Utility::value_portable`].
///
/// # Panics
///
/// Panics if `capacities` is not sorted ascending or contains NaN.
pub fn sweep_grid_fused<U: Utility>(
    model: &DiscreteModel<U>,
    capacities: &[f64],
    mode: PiEval,
) -> GridSweep {
    assert_sorted(capacities);
    let k_max = k_max_grid_inner(model, capacities, |k| k, mode);
    let load = model.load();
    let u = model.utility();
    let kbar = load.mean();
    let g = capacities.len();
    let len_m1 = load.len() as u64 - 1;

    // Admitted-head lengths, clamped to the table (a threshold past the
    // last entry admits the whole table).
    let mut cap_k = vec![0u64; g];
    for i in 0..g {
        if capacities[i] > 0.0 {
            if let Some(m) = k_max[i] {
                if m > 0 {
                    cap_k[i] = m.min(len_m1);
                }
            }
        }
    }

    let (best_raw, mut heads) = match mode {
        PiEval::Exact => fused_grid_pointwise(model, capacities, &cap_k, U::value_slice),
        PiEval::Portable => fused_grid_pointwise(model, capacities, &cap_k, value_portable_slice),
    };

    // Finalize B then R, in lane order — every `eval/best_effort` wrap,
    // then every `eval/reservation` wrap, whatever the mode, so `@at=N`
    // fault ordinals are backend-independent.
    let best_effort: Vec<f64> = capacities
        .iter()
        .zip(best_raw)
        .map(|(&c, v)| {
            if c <= 0.0 {
                0.0
            } else {
                bevra_faults::corrupt_f64("eval/best_effort", c.to_bits(), v)
            }
        })
        .collect();

    let pi_scalar = |b: f64| match mode {
        PiEval::Exact => u.value(b),
        PiEval::Portable => u.value_portable(b),
    };
    let reservation: Vec<f64> = (0..g)
        .map(|i| {
            let c = capacities[i];
            let raw = if c <= 0.0 {
                0.0
            } else {
                match k_max[i] {
                    None => best_effort[i],
                    Some(0) => 0.0,
                    Some(m) => {
                        let overload_mass = load.tail_mass_above(cap_k[i]);
                        let tail = if overload_mass > 0.0 {
                            m as f64 * pi_scalar(c / m as f64) * overload_mass
                        } else {
                            0.0
                        };
                        // Mirror `reservation_with_kmax`: conditional
                        // `add` then `total`, bit for bit.
                        if overload_mass > 0.0 {
                            heads[i].add(tail);
                        }
                        heads[i].total() / kbar
                    }
                }
            };
            bevra_faults::corrupt_f64("eval/reservation", c.to_bits(), raw)
        })
        .collect();

    GridSweep { k_max, best_effort, reservation }
}

/// Pointwise fused kernel: one `π(C/k)` evaluation per `(k, lane)` feeds
/// both the best-effort accumulator (with the scalar path's early-exit
/// frontier) and the reservation-head accumulator (for `k ≤ k_max(C)`). `π` is pure, so sharing the evaluation leaves every
/// accumulated bit identical to the per-point path's separate B and R
/// walks.
///
/// Each `k` runs in three passes over the live lane window: bandwidths
/// `C/k` (pure IEEE division, vectorized), one `pi_slice` call (bitwise
/// `π` per element — [`Utility::value_slice`] in the exact mode), then
/// the accumulation. B goes through [`bevra_num::masked_neumaier_step`],
/// bitwise [`NeumaierSum::add`] per live lane (a retired lane receives an
/// exact `+0.0` — `π` is finite for positive bandwidths — a no-op on its
/// nonnegative accumulator); the R head keeps a per-lane [`NeumaierSum`].
fn fused_grid_pointwise<U: Utility>(
    model: &DiscreteModel<U>,
    capacities: &[f64],
    cap_k: &[u64],
    pi_slice: impl Fn(&U, &[f64], &mut [f64]),
) -> (Vec<f64>, Vec<NeumaierSum>) {
    let load = model.load();
    let u = model.utility();
    let kbar = load.mean();
    let g = capacities.len();
    let len = load.len() as u64;
    let max_cap_k = cap_k.iter().copied().max().unwrap_or(0);

    let mut sums = vec![0.0f64; g];
    let mut comps = vec![0.0f64; g];
    let mut acc_r = vec![NeumaierSum::new(); g];
    // 1.0 = B lane live, 0.0 = retired (or C ≤ 0, never live).
    let mut mask: Vec<f64> = capacities.iter().map(|&c| if c > 0.0 { 1.0 } else { 0.0 }).collect();
    let mut alive = mask.iter().filter(|&&m| m != 0.0).count();
    let mut bs = vec![0.0f64; g];
    let mut pis = vec![0.0f64; g];
    // Lanes exit smallest-capacity-first, so finished lanes form a growing
    // prefix; `start` skips it. Mid-grid holes (possible but rare) stay in
    // the window with a 0.0 mask.
    let mut start = 0usize;

    for k in 1..len {
        if alive == 0 && k > max_cap_k {
            break;
        }
        let p = load.pmf(k);
        let kf = k as f64;
        for (b, &c) in bs[start..].iter_mut().zip(&capacities[start..]) {
            *b = c / kf;
        }
        pi_slice(u, &bs[start..], &mut pis[start..]);
        if p > 0.0 {
            if k <= max_cap_k {
                for i in start..g {
                    if k <= cap_k[i] {
                        acc_r[i].add(p * kf * pis[i]);
                    }
                }
            }
            if alive > 0 {
                bevra_num::masked_neumaier_step(
                    p * kf,
                    &pis[start..],
                    &mask[start..],
                    &mut sums[start..],
                    &mut comps[start..],
                );
            }
        }
        // Mirror of `best_effort_uninstrumented`'s exit test, per live lane.
        let check = k % 64 == 0;
        let tail_mean = load.tail_mean_above(k);
        for i in start..g {
            let pi = pis[i];
            if mask[i] != 0.0 && (check || pi == 0.0) {
                let bound = pi * tail_mean;
                if bound <= 1e-15 * (sums[i] + comps[i]).abs().max(1e-300) {
                    // Tail-midpoint correction: `NeumaierSum::add` on the
                    // SoA pair, op for op.
                    let v = 0.5 * bound;
                    let s = sums[i];
                    let t = s + v;
                    comps[i] += if s.abs() >= v.abs() { (s - t) + v } else { (v - t) + s };
                    sums[i] = t;
                    mask[i] = 0.0;
                    alive -= 1;
                }
            }
        }
        while start < g && mask[start] == 0.0 && k >= cap_k[start] {
            start += 1;
        }
    }
    let best = sums.iter().zip(&comps).map(|(&s, &c)| (s + c) / kbar).collect();
    (best, acc_r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bevra_load::{Poisson, Tabulated};
    use bevra_utility::{AdaptiveExp, ExponentialElastic, Rigid};
    use std::sync::Arc;

    fn poisson() -> Arc<Tabulated> {
        Arc::new(Tabulated::from_model(&Poisson::new(20.0), 1e-12, 1 << 12))
    }

    fn model_rigid() -> DiscreteModel<Rigid> {
        DiscreteModel::new(poisson(), Rigid::unit())
    }

    fn model_adaptive() -> DiscreteModel<AdaptiveExp> {
        DiscreteModel::new(poisson(), AdaptiveExp::paper())
    }

    fn assert_within(name: &str, c: f64, got: f64, want: f64) {
        assert!(
            (got - want).abs() <= 1e-13 * want.abs().max(1e-300),
            "C={c}: {name} {got:e} vs scalar {want:e}"
        );
    }

    #[test]
    fn exact_sweep_is_bitwise_equal_to_scalar() {
        let caps = [-1.0, 0.0, 0.5, 2.0, 5.0, 10.0, 15.0, 20.0, 40.0, 80.0];
        fn check<U: Utility>(m: &DiscreteModel<U>, caps: &[f64]) {
            let got = sweep_grid_fused(m, caps, PiEval::Exact);
            for (i, &c) in caps.iter().enumerate() {
                assert_eq!(got.k_max[i], m.k_max(c), "k_max C={c}");
                assert_eq!(got.best_effort[i].to_bits(), m.best_effort(c).to_bits(), "B C={c}");
                assert_eq!(got.reservation[i].to_bits(), m.reservation(c).to_bits(), "R C={c}");
            }
        }
        check(&model_rigid(), &caps);
        check(&model_adaptive(), &caps);
    }

    #[test]
    fn exact_sweep_mirrors_elastic_delegation_and_cap_override() {
        let caps = [1.0, 5.0, 20.0, 60.0];
        let elastic = DiscreteModel::new(poisson(), ExponentialElastic::default());
        let got = sweep_grid_fused(&elastic, &caps, PiEval::Exact);
        for (i, &c) in caps.iter().enumerate() {
            assert_eq!(got.k_max[i], None);
            assert_eq!(got.reservation[i].to_bits(), elastic.reservation(c).to_bits());
            assert_eq!(got.reservation[i].to_bits(), got.best_effort[i].to_bits());
        }
        let capped = model_adaptive().with_admission_cap(7);
        let got = sweep_grid_fused(&capped, &caps, PiEval::Exact);
        for (i, &c) in caps.iter().enumerate() {
            assert_eq!(got.k_max[i], Some(7));
            assert_eq!(got.reservation[i].to_bits(), capped.reservation(c).to_bits());
        }
    }

    #[test]
    fn portable_sweep_is_tolerance_close_to_scalar() {
        let m = model_adaptive();
        let caps = [0.5, 2.0, 5.0, 10.0, 20.0, 40.0];
        let got = sweep_grid_fused(&m, &caps, PiEval::Portable);
        for (i, &c) in caps.iter().enumerate() {
            assert_within("portable B", c, got.best_effort[i], m.best_effort(c));
            assert_within("portable R", c, got.reservation[i], m.reservation(c));
        }
        // And the portable sweep is self-reproducible bit for bit.
        assert_eq!(got, sweep_grid_fused(&m, &caps, PiEval::Portable));
    }

    #[test]
    fn portable_sweep_matches_exact_for_arithmetic_utilities() {
        // Rigid π is pure compare-and-select: `value_portable` defaults to
        // `value`, so the portable mode must be bitwise the exact mode.
        let m = model_rigid();
        let caps = [0.5, 2.0, 5.0, 10.0, 20.0, 40.0];
        let exact = sweep_grid_fused(&m, &caps, PiEval::Exact);
        let portable = sweep_grid_fused(&m, &caps, PiEval::Portable);
        assert_eq!(exact.k_max, portable.k_max);
        for i in 0..caps.len() {
            assert_eq!(exact.best_effort[i].to_bits(), portable.best_effort[i].to_bits());
            assert_eq!(exact.reservation[i].to_bits(), portable.reservation[i].to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "sorted ascending")]
    fn unsorted_grid_rejected() {
        let _ = sweep_grid_fused(&model_rigid(), &[5.0, 2.0], PiEval::Exact);
    }

    #[test]
    #[should_panic(expected = "must not contain NaN")]
    fn nan_grid_rejected() {
        let _ = sweep_grid_fused(&model_rigid(), &[f64::NAN], PiEval::Exact);
    }
}
