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
//! * [`PiEval::Fast`] — opt-in. Exponential-family utilities evaluate `π`
//!   through [`Utility::value_slice_fast`] (a branch-free polynomial
//!   `1 − e^{−x}` that compiles to packed SIMD), the Neumaier update is a
//!   branch-free select over SoA accumulators, and the early-exit bound
//!   truncates at [`FAST_TRUNC_REL`] of the total instead of the exact
//!   path's `1e-15` (the dominant speedup on heavy algebraic tails).
//!   Deterministic (same input bits ⇒ same output bits on every platform)
//!   but only tolerance-close (≤ 1e-13 relative) to the scalar path; the
//!   property suite budgets the difference.
//! * [`PiEval::Portable`] — opt-in. Every `π` evaluation (`k_max` argmax,
//!   `B`, and `R`) goes through [`Utility::value_portable`], the scalar
//!   branch-free polynomial with no libm dependence: results are
//!   bit-identical across operating systems, libm versions, and
//!   architectures, at the cost of the same ≤ 1e-13 relative distance from
//!   the scalar path as the fast mode. This is what the engine's
//!   `deterministic-portable` backend runs.
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
use bevra_num::{argmax_unimodal_u64, kspan_total, NeumaierSum, KSPAN_ACCS};
use bevra_utility::{total_utility, Utility};

/// How the batched kernels evaluate `π` (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PiEval {
    /// Bitwise mirror of the scalar per-point path (default).
    Exact,
    /// Vectorized polynomial `π`; deterministic, ULP-budgeted, not bitwise.
    Fast,
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
    // The objective the argmax searches: scalar V(k) for Exact/Fast,
    // portable-π V(k) for Portable (k ≥ 1 always — the bracket never
    // probes 0, matching `total_utility`'s k = 0 short-circuit).
    let v = |k: u64, c: f64| match mode {
        PiEval::Exact | PiEval::Fast => total_utility(u, k, c),
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

/// Truncation threshold for the fast kernel's early-exit bound, relative
/// to the accumulated total.
///
/// The exact path retires a lane when the provable tail bound drops below
/// `1e-15` of the total (mirroring the scalar path bit for bit). The fast
/// path's contract is looser — deterministic but only tolerance-close
/// (≤ `1e-13` relative, see `fast_sweep_is_ulp_close` and the engine's
/// budget test) — so it may stop as soon as the bound reaches `1e-13`:
/// the tail-midpoint correction halves the residual to ≤ `5e-14` relative,
/// inside the contract with 2× margin. For heavy algebraic tails, where
/// the bound decays like `k^{−(z+1)}`, retiring at `ε` instead of `1e-15`
/// shortens the walk by `(1e-15/ε)^{1/(z+1)}` — about 3× for the paper's
/// z = 3 family — and is where most of the fast kernel's speedup over the
/// scalar path comes from on tails the `1e-15` bound cannot cut.
pub const FAST_TRUNC_REL: f64 = 1e-13;

/// Fast-mode kernel: vectorized `π` via [`Utility::value_slice_fast`] and a
/// branch-free masked Neumaier update over SoA accumulators.
fn best_effort_grid_fast<U: Utility>(model: &DiscreteModel<U>, capacities: &[f64]) -> Vec<f64> {
    let load = model.load();
    let u = model.utility();
    let kbar = load.mean();
    let g = capacities.len();
    let len = load.len() as u64;

    let mut sums = vec![0.0f64; g];
    let mut comps = vec![0.0f64; g];
    // 1.0 = live lane, 0.0 = retired; multiplying the term by the mask is
    // bit-neutral for live lanes and adds an exact 0.0 to retired ones
    // (Neumaier on a nonnegative accumulator is unchanged by adding +0.0).
    let mut mask: Vec<f64> = capacities.iter().map(|&c| if c > 0.0 { 1.0 } else { 0.0 }).collect();
    let mut alive = mask.iter().filter(|&&m| m != 0.0).count();
    let mut start = 0usize;
    let mut bs = vec![0.0f64; g];
    let mut pis = vec![0.0f64; g];

    for k in 1..len {
        if alive == 0 {
            break;
        }
        let p = load.pmf(k);
        let kf = k as f64;
        let scale = if p > 0.0 { p * kf } else { 0.0 };

        // Phases 1+2: π(C/k) over the live window in one dispatched pass.
        // Families that can absorb the bandwidth division into their
        // exponent override `value_capacity_slice_fast` (the adaptive
        // family saves a packed divide per lane); the default divides
        // into `bs` and forwards to `value_slice_fast`.
        u.value_capacity_slice_fast(
            &capacities[start..g],
            kf,
            &mut bs[start..g],
            &mut pis[start..g],
        );
        // Phase 3: masked branch-free Neumaier accumulation (packed,
        // AVX2-dispatched, bitwise equal to `NeumaierSum::add` per lane).
        bevra_num::masked_neumaier_step(
            scale,
            &pis[start..g],
            &mask[start..g],
            &mut sums[start..g],
            &mut comps[start..g],
        );

        // Phase 4: early-exit frontier — same bound as the scalar path.
        // Capacities are sorted ascending, so for fixed `k` the bandwidths
        // and hence the `π` values are nondecreasing across the window:
        // if any lane underflowed to `π = 0` then so did the frontier
        // lane, and probing `pis[start]` alone suffices (a retired frontier
        // lane can only over-trigger the check, which is harmless).
        let need_check = k % 64 == 0 || pis[start] == 0.0;
        if need_check {
            let tail_mean = load.tail_mean_above(k);
            let periodic = k % 64 == 0;
            for i in start..g {
                if mask[i] != 0.0 && (periodic || pis[i] == 0.0) {
                    let pi = pis[i];
                    let bound = pi * tail_mean;
                    let total = sums[i] + comps[i];
                    if bound <= FAST_TRUNC_REL * total.abs().max(1e-300) {
                        // Retire the lane with the tail-midpoint correction.
                        let v = 0.5 * bound;
                        let s = sums[i];
                        let t = s + v;
                        let corr =
                            if s.abs() >= v.abs() { (s - t) + v } else { (v - t) + s };
                        comps[i] += corr;
                        sums[i] = t;
                        mask[i] = 0.0;
                        alive -= 1;
                    }
                }
            }
            while start < g && mask[start] == 0.0 {
                start += 1;
            }
        }
    }
    (0..g).map(|i| (sums[i] + comps[i]) / kbar).collect()
}

/// Reservation-head accumulators `Σ_{k ≤ cap_k[i]} P(k)·k·π(C_i/k)` with
/// the scalar [`Utility::value`] — the fast path's heads for utilities
/// without a k-span kernel (the fast π never feeds `R`). Same per-lane
/// [`NeumaierSum`] order as the pointwise fused kernel's heads.
fn reservation_heads<U: Utility>(
    model: &DiscreteModel<U>,
    capacities: &[f64],
    cap_k: &[u64],
) -> Vec<NeumaierSum> {
    let load = model.load();
    let u = model.utility();
    let mut acc = vec![NeumaierSum::new(); capacities.len()];
    let max_cap_k = cap_k.iter().copied().max().unwrap_or(0);
    for k in 1..=max_cap_k {
        let p = load.pmf(k);
        let kf = k as f64;
        for (i, &c) in capacities.iter().enumerate() {
            if k <= cap_k[i] && p > 0.0 {
                acc[i].add(p * kf * u.value(c / kf));
            }
        }
    }
    acc
}

/// Fused B+R sweep: one table traversal serves both architectures.
///
/// `k_max`, `B`, and `R` for every capacity. The reservation head
/// `Σ_{k ≤ k_max} P(k)·k·π(C/k)` is a **prefix of the best-effort series**
/// — the same terms, in the same order — so this kernel evaluates each
/// `(k, C)` pair once and feeds both accumulators. This is the one grid
/// entry point every engine backend runs, parameterized by its [`PiEval`]:
///
/// * [`PiEval::Exact`] / [`PiEval::Portable`] — a pointwise fused loop that
///   mirrors the per-point path op for op (same `π` values, same
///   [`NeumaierSum`] order per accumulator, same early-exit and fault
///   wrapping): under `Exact` results are **bitwise identical** to
///   [`DiscreteModel::k_max`] / [`DiscreteModel::best_effort`] /
///   [`DiscreteModel::reservation`] called point by point.
/// * [`PiEval::Fast`] — if the utility implements
///   [`Utility::accumulate_pi_kspan_fast`], each capacity lane walks the
///   table in one vectorized k-span pass ([`bevra_num::KSPAN_ACCS`] strided
///   sub-accumulators, reduced-degree polynomial, factored exponent
///   denominator) with the R head taken as a **free snapshot** of the
///   accumulator state at `k = k_max(C)`. Deterministic and bitwise
///   identical across SIMD tiers, tolerance-close (≤ [`FAST_TRUNC_REL`]
///   relative) to the scalar path. Utilities without the hook walk the
///   table once for `B` with the packed polynomial π and sum their short
///   admitted heads with the scalar π (the fast π never feeds `R`).
///
/// # Panics
///
/// Panics if `capacities` is not sorted ascending or contains NaN.
pub fn sweep_grid_fused<U: Utility>(
    model: &DiscreteModel<U>,
    capacities: &[f64],
    mode: PiEval,
) -> GridSweep {
    sweep_grid_fused_inner(model, capacities, mode, |k| k)
}

/// [`sweep_grid_fused`] with an injectable perturbation of the fast path's
/// R/B span split point.
///
/// Mutation tests use this to prove the carried-accumulator snapshot is
/// load-bearing: nudging the split off `k_max(C)` must detectably corrupt
/// the reservation values while production (identity nudge) stays correct.
#[doc(hidden)]
pub fn sweep_grid_fused_with_split_nudge<U: Utility>(
    model: &DiscreteModel<U>,
    capacities: &[f64],
    mode: PiEval,
    nudge: impl Fn(u64) -> u64,
) -> GridSweep {
    sweep_grid_fused_inner(model, capacities, mode, nudge)
}

fn sweep_grid_fused_inner<U: Utility>(
    model: &DiscreteModel<U>,
    capacities: &[f64],
    mode: PiEval,
    nudge: impl Fn(u64) -> u64,
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

    enum Heads {
        /// Per-lane Neumaier accumulators, finalized exactly like the
        /// per-point `reservation_with_kmax`.
        Pointwise(Vec<NeumaierSum>),
        /// Per-lane snapshot totals from the k-span walk (fast mode).
        Snapshot(Vec<f64>),
    }

    let (best_raw, heads) = match mode {
        PiEval::Exact => {
            let (b, r) = fused_grid_pointwise(model, capacities, &cap_k, U::value_slice);
            (b, Heads::Pointwise(r))
        }
        PiEval::Portable => {
            let (b, r) = fused_grid_pointwise(model, capacities, &cap_k, value_portable_slice);
            (b, Heads::Pointwise(r))
        }
        PiEval::Fast => {
            // Capability probe: an empty span accumulates nothing, so the
            // return flag is the only observable effect.
            let mut s = [0.0; KSPAN_ACCS];
            let mut c = [0.0; KSPAN_ACCS];
            if u.accumulate_pi_kspan_fast(1.0, 1.0, &[], &mut s, &mut c) {
                let (b, r) = fused_grid_kspan(model, capacities, &cap_k, &nudge);
                (b, Heads::Snapshot(r))
            } else {
                let heads = reservation_heads(model, capacities, &cap_k);
                (best_effort_grid_fast(model, capacities), Heads::Pointwise(heads))
            }
        }
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
        PiEval::Exact | PiEval::Fast => u.value(b),
        PiEval::Portable => u.value_portable(b),
    };
    let mut heads = heads;
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
                        match &mut heads {
                            // Mirror `reservation_with_kmax`: conditional
                            // `add` then `total`, bit for bit.
                            Heads::Pointwise(accs) => {
                                if overload_mass > 0.0 {
                                    accs[i].add(tail);
                                }
                                accs[i].total() / kbar
                            }
                            Heads::Snapshot(hs) => (hs[i] + tail) / kbar,
                        }
                    }
                }
            };
            bevra_faults::corrupt_f64("eval/reservation", c.to_bits(), raw)
        })
        .collect();

    GridSweep { k_max, best_effort, reservation }
}

/// Pointwise fused kernel (exact/portable modes): one `π(C/k)` evaluation
/// per `(k, lane)` feeds both the best-effort accumulator (with the scalar
/// path's early-exit frontier) and the reservation-head accumulator (for
/// `k ≤ k_max(C)`). `π` is pure, so sharing the evaluation leaves every
/// accumulated bit identical to the per-point path's separate B and R
/// walks.
///
/// Each `k` runs in three passes over the live lane window: bandwidths
/// `C/k` (pure IEEE division, vectorized), one `pi_slice` call (bitwise
/// `π` per element — [`Utility::value_slice`] in the exact mode), then
/// the accumulation. B goes through [`bevra_num::masked_neumaier_step`],
/// bitwise [`NeumaierSum::add`] per live lane (a retired lane receives an
/// exact `+0.0` — `π` is finite for positive bandwidths — a no-op on its
/// nonnegative accumulator); the R head
/// keeps a per-lane [`NeumaierSum`]. Pass `cap_k` all zeros for B alone.
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

/// Span length between early-exit probes in the fast fused kernel.
///
/// Block boundaries are the only places the fast k-span walk checks its
/// tail bound; a shorter block exits sooner on light tails, a longer one
/// amortizes the bound arithmetic better on heavy tails where no early exit
/// ever fires (the paper's z = 3 family walks every table entry — see
/// EXPERIMENTS.md). 512 keeps the light-tail overshoot below the cost of
/// one extra bound probe per lane.
const KSPAN_BLOCK: u64 = 512;

/// Fast fused kernel: per-lane vectorized k-span walk with the reservation
/// head captured as an accumulator snapshot at the `k_max` split.
///
/// Returns `(B_raw, R_head_raw)` where `B_raw` is normalized (`/k̄`, same
/// contract as [`best_effort_grid_fast`]) and `R_head_raw` is the
/// *unnormalized* admitted-head series, to be finished with the overload
/// tail term by the caller.
fn fused_grid_kspan<U: Utility>(
    model: &DiscreteModel<U>,
    capacities: &[f64],
    cap_k: &[u64],
    nudge: &impl Fn(u64) -> u64,
) -> (Vec<f64>, Vec<f64>) {
    let load = model.load();
    let u = model.utility();
    let kbar = load.mean();
    let pmfs = load.pmf_values();
    let len = pmfs.len() as u64;
    let g = capacities.len();

    let mut best = vec![0.0f64; g];
    let mut heads = vec![0.0f64; g];
    for i in 0..g {
        let c = capacities[i];
        if c <= 0.0 {
            continue;
        }
        let mut sums = [0.0f64; KSPAN_ACCS];
        let mut comps = [0.0f64; KSPAN_ACCS];
        // R head: the B series prefix up to the (possibly nudged) split.
        let split = nudge(cap_k[i]).min(len - 1);
        if split >= 1 {
            u.accumulate_pi_kspan_fast(c, 1.0, &pmfs[1..=split as usize], &mut sums, &mut comps);
        }
        heads[i] = kspan_total(&sums, &comps);
        // B continues in the same accumulators — the head terms are shared.
        let mut k = split + 1;
        let mut total = heads[i];
        while k < len {
            let stop = (k + KSPAN_BLOCK).min(len);
            u.accumulate_pi_kspan_fast(
                c,
                k as f64,
                &pmfs[k as usize..stop as usize],
                &mut sums,
                &mut comps,
            );
            k = stop;
            total = kspan_total(&sums, &comps);
            if k < len {
                // Same bound as the pointwise kernels: remaining terms are
                // ≤ π(C/k)·Σ_{k'≥k} k'·P(k'), probed at block boundaries
                // only. Scalar π here — the bound is tolerance arithmetic,
                // not part of the accumulated value.
                let bound = u.value(c / k as f64) * load.tail_mean_above(k - 1);
                if bound <= FAST_TRUNC_REL * total.abs().max(1e-300) {
                    total += 0.5 * bound;
                    break;
                }
            }
        }
        best[i] = total / kbar;
    }
    (best, heads)
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
    fn fast_kspan_sweep_within_budget_and_deterministic() {
        let m = model_adaptive();
        let caps = [0.5, 2.0, 5.0, 10.0, 20.0, 40.0];
        let got = sweep_grid_fused(&m, &caps, PiEval::Fast);
        for (i, &c) in caps.iter().enumerate() {
            assert_within("fast B", c, got.best_effort[i], m.best_effort(c));
            assert_within("fast R", c, got.reservation[i], m.reservation(c));
        }
        let again = sweep_grid_fused(&m, &caps, PiEval::Fast);
        assert_eq!(got, again, "fast sweep must be reproducible bit for bit");
    }

    #[test]
    fn fast_fallback_keeps_thresholds_and_heads_scalar() {
        // Rigid and elastic have no k-span kernel: B takes the packed π,
        // while k_max and the admitted heads stay on the scalar π.
        let caps = [0.5, 2.0, 5.0, 10.0, 20.0, 40.0];
        let m = model_rigid();
        let got = sweep_grid_fused(&m, &caps, PiEval::Fast);
        for (i, &c) in caps.iter().enumerate() {
            assert_eq!(got.k_max[i], m.k_max(c), "k_max C={c}");
            assert_within("fast B", c, got.best_effort[i], m.best_effort(c));
            assert_eq!(got.reservation[i].to_bits(), m.reservation(c).to_bits(), "R C={c}");
        }
        let e = DiscreteModel::new(poisson(), ExponentialElastic::default());
        let got = sweep_grid_fused(&e, &caps, PiEval::Fast);
        for (i, &c) in caps.iter().enumerate() {
            assert_within("fast B", c, got.best_effort[i], e.best_effort(c));
            assert_eq!(got.reservation[i].to_bits(), got.best_effort[i].to_bits());
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
    fn fused_split_nudge_corrupts_reservations() {
        // The mutation hook: shifting the R/B span split off k_max(C) must
        // be detectable — it folds admitted-head terms into the wrong side
        // of the snapshot. Guards against the snapshot silently drifting.
        let m = model_adaptive();
        let caps = [5.0, 10.0, 20.0];
        let clean = sweep_grid_fused(&m, &caps, PiEval::Fast);
        let nudged = sweep_grid_fused_with_split_nudge(&m, &caps, PiEval::Fast, |k| k + 8);
        // B sums the full series either way: moving the split only regroups
        // the sub-accumulators, so it must stay inside the fast budget…
        for (i, &c) in caps.iter().enumerate() {
            assert_within("nudged B", c, nudged.best_effort[i], m.best_effort(c));
        }
        // …while R, whose head is the snapshot at the split, must break.
        assert!(
            clean
                .reservation
                .iter()
                .zip(&nudged.reservation)
                .any(|(a, b)| a.to_bits() != b.to_bits()),
            "an off-by-8 split must corrupt at least one reservation lane"
        );
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
