//! The discrete variable-load model (paper §3.1).

use bevra_load::Tabulated;
use bevra_num::NeumaierSum;
use bevra_utility::{k_max_discrete, Utility};
use std::sync::Arc;

/// A single bottleneck link under a random offered load, evaluated for both
/// architectures.
///
/// Holds the tabulated load distribution `P(k)` and the application utility
/// `π`. All returned utilities are **normalized per mean flow** (`V/k̄`),
/// matching the paper's `B(C)` and `R(C)` plots, so they live in `[0, 1]`.
///
/// The load is shared via `Arc` so that extensions which evaluate many
/// closely related models (the retrying fixed point rebuilds the model at
/// every inflated load) can do so without copying megabyte-scale tables.
pub struct DiscreteModel<U: Utility> {
    load: Arc<Tabulated>,
    utility: U,
    /// Optional admission cap overriding the utility-derived `k_max(C)` —
    /// the paper's footnote 9: with elastic applications the standard
    /// `k_max` is infinite, but a *chosen* finite cap plus retries can
    /// still raise utility.
    k_max_override: Option<u64>,
}

impl<U: Utility> DiscreteModel<U> {
    /// New model from a tabulated load and a utility function.
    ///
    /// # Panics
    ///
    /// Panics if the load has zero mean (no flows ever present).
    pub fn new(load: impl Into<Arc<Tabulated>>, utility: U) -> Self {
        let load = load.into();
        assert!(load.mean() > 0.0, "load distribution must have positive mean");
        Self { load, utility, k_max_override: None }
    }

    /// Replace the utility-derived admission threshold with a fixed cap
    /// (paper footnote 9). Pass the builder result on; the override applies
    /// to every capacity.
    ///
    /// # Panics
    ///
    /// Panics on a zero cap.
    #[must_use]
    pub fn with_admission_cap(mut self, cap: u64) -> Self {
        assert!(cap > 0, "admission cap must be positive");
        self.k_max_override = Some(cap);
        self
    }

    /// The load distribution `P(k)`.
    pub fn load(&self) -> &Tabulated {
        &self.load
    }

    /// The utility function.
    pub fn utility(&self) -> &U {
        &self.utility
    }

    /// The fixed admission cap installed by [`Self::with_admission_cap`],
    /// if any. Exposed so grid evaluators (`crate::discrete_batch`) can
    /// mirror [`Self::k_max`] exactly.
    pub fn admission_cap(&self) -> Option<u64> {
        self.k_max_override
    }

    /// Mean offered load `k̄`.
    pub fn mean_load(&self) -> f64 {
        self.load.mean()
    }

    /// Admission threshold `k_max(C) = argmax_k k·π(C/k)`.
    ///
    /// `None` means "no finite maximizer": the utility is elastic (or the
    /// capacity too small for any utility at all), and a reservation network
    /// would admit everyone — the two architectures coincide.
    pub fn k_max(&self, capacity: f64) -> Option<u64> {
        if capacity <= 0.0 {
            return None;
        }
        if let Some(cap) = self.k_max_override {
            return Some(cap);
        }
        k_max_discrete(&self.utility, capacity).ok()
    }

    /// Normalized best-effort utility
    /// `B(C) = (1/k̄)·Σ_k P(k)·k·π(C/k)`.
    ///
    /// The sum is taken over the whole table with compensated accumulation
    /// and an early exit: once the remaining tail's contribution is provably
    /// below 1e−15 of the accumulated value (π is nonincreasing in `k`, so
    /// the remainder is bounded by `π(C/k)·tail_mean(k)/k̄`), summation
    /// stops and the bound's midpoint is added.
    pub fn best_effort(&self, capacity: f64) -> f64 {
        if capacity <= 0.0 {
            return 0.0;
        }
        // Fault-injection site: a `nan:eval/best_effort` or `inf:...` rule
        // (keyed by the capacity's bit pattern) corrupts the returned
        // value; with no plan active this is the identity, bit-exact.
        bevra_faults::corrupt_f64(
            "eval/best_effort",
            capacity.to_bits(),
            self.best_effort_uninstrumented(capacity),
        )
    }

    fn best_effort_uninstrumented(&self, capacity: f64) -> f64 {
        let kbar = self.load.mean();
        let mut acc = NeumaierSum::new();
        let len = self.load.len() as u64;
        // The table is walked in blocks that end on the periodic exit
        // check (k = 64, 128, …): each block's bandwidths go through one
        // `value_slice` call, so families with a libm transcendental run
        // their calls back to back. A block whose last π is exactly 0
        // holds the π = 0 exit (π is nonincreasing in k), so it is
        // evaluated lazily per k instead — a short table then still stops
        // after the first zero rather than paying for the whole block.
        let mut bs = [0.0f64; 64];
        let mut pis = [0.0f64; 64];
        let mut k0 = 1;
        while k0 < len {
            let k1 = ((k0 / 64 + 1) * 64).min(len - 1);
            let n = (k1 - k0 + 1) as usize;
            for (j, b) in bs[..n].iter_mut().enumerate() {
                *b = capacity / (k0 + j as u64) as f64;
            }
            pis[n - 1] = self.utility.value(bs[n - 1]);
            let lazy = pis[n - 1] == 0.0;
            if !lazy {
                self.utility.value_slice(&bs[..n - 1], &mut pis[..n - 1]);
            }
            for j in 0..n {
                let k = k0 + j as u64;
                let p = self.load.pmf(k);
                let pi = if lazy && j + 1 < n { self.utility.value(bs[j]) } else { pis[j] };
                if p > 0.0 {
                    acc.add(p * k as f64 * pi);
                }
                // Early exit: remaining Σ_{j>k} P(j)·j·π(C/j) ≤ π(C/k)·tail
                // mean (π is nonincreasing in k). Checked every 64 entries,
                // and additionally as soon as π reaches exactly 0 — from
                // there every remaining term is exactly 0.0 and the bound
                // is exact, so the exit stays bitwise neutral even for
                // tables shorter than 64 entries (which the periodic check
                // alone never reaches).
                if k.is_multiple_of(64) || pi == 0.0 {
                    let bound = pi * self.load.tail_mean_above(k);
                    if bound <= 1e-15 * acc.total().abs().max(1e-300) {
                        acc.add(0.5 * bound);
                        return acc.total() / kbar;
                    }
                }
            }
            k0 = k1 + 1;
        }
        acc.total() / kbar
    }

    /// Normalized reservation utility
    /// `R(C) = (1/k̄)·[Σ_{k≤k_max} P(k)·k·π(C/k)
    ///                + k_max·π(C/k_max)·P[k > k_max]]`.
    ///
    /// Under overload each of the `k_max` admitted flows receives
    /// `C/k_max`, so the overload term collapses to a closed form via the
    /// cached tail mass — O(k_max) total.
    pub fn reservation(&self, capacity: f64) -> f64 {
        self.reservation_with_kmax(capacity, self.k_max(capacity))
    }

    /// [`Self::reservation`] with the admission threshold supplied by the
    /// caller instead of recomputed.
    ///
    /// `kmax` must be what [`Self::k_max`] would return for `capacity`
    /// (the parallel sweep engine memoizes that table per utility family
    /// and injects it here); passing anything else evaluates a *different*
    /// admission policy — which is exactly how footnote 9's chosen-cap
    /// studies use it.
    pub fn reservation_with_kmax(&self, capacity: f64, kmax: Option<u64>) -> f64 {
        // Fault-injection site, mirroring `best_effort` (`eval/reservation`).
        bevra_faults::corrupt_f64(
            "eval/reservation",
            capacity.to_bits(),
            self.reservation_with_kmax_uninstrumented(capacity, kmax),
        )
    }

    fn reservation_with_kmax_uninstrumented(&self, capacity: f64, kmax: Option<u64>) -> f64 {
        if capacity <= 0.0 {
            return 0.0;
        }
        let Some(kmax) = kmax else {
            // No finite peak: admission control never rejects, so the two
            // architectures deliver identical utility.
            return self.best_effort(capacity);
        };
        if kmax == 0 {
            return 0.0;
        }
        let kbar = self.load.mean();
        let mut acc = NeumaierSum::new();
        let cap_k = kmax.min(self.load.len() as u64 - 1);
        for k in 1..=cap_k {
            let p = self.load.pmf(k);
            if p > 0.0 {
                acc.add(p * k as f64 * self.utility.value(capacity / k as f64));
            }
        }
        let overload_mass = self.load.tail_mass_above(cap_k);
        if overload_mass > 0.0 {
            acc.add(kmax as f64 * self.utility.value(capacity / kmax as f64) * overload_mass);
        }
        acc.total() / kbar
    }

    /// Fraction of *flows* (not load levels) denied service at capacity `C`:
    /// `θ(C) = (1/k̄)·Σ_{k>k_max} P(k)·(k − k_max)`.
    ///
    /// This is the blocking rate that drives the retrying extension (§5.2);
    /// it is 0 whenever `k_max` is absent (elastic) or the table never
    /// exceeds it.
    pub fn blocking_fraction(&self, capacity: f64) -> f64 {
        let Some(kmax) = self.k_max(capacity) else {
            return 0.0;
        };
        let kbar = self.load.mean();
        let tail_mean = self.load.tail_mean_above(kmax);
        let tail_mass = self.load.tail_mass_above(kmax);
        ((tail_mean - kmax as f64 * tail_mass) / kbar).max(0.0)
    }

    /// Total (unnormalized) best-effort utility `V_B(C) = k̄·B(C)` — the
    /// quantity the welfare model prices against capacity.
    pub fn total_best_effort(&self, capacity: f64) -> f64 {
        self.load.mean() * self.best_effort(capacity)
    }

    /// Total (unnormalized) reservation utility `V_R(C) = k̄·R(C)`.
    pub fn total_reservation(&self, capacity: f64) -> f64 {
        self.load.mean() * self.reservation(capacity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bevra_load::{Geometric, Poisson, Tabulated};
    use bevra_utility::{AdaptiveExp, ExponentialElastic, Rigid};

    fn poisson_model(mean: f64) -> Tabulated {
        Tabulated::from_model(&Poisson::new(mean), 1e-12, 1 << 20)
    }

    #[test]
    fn r_dominates_b_everywhere() {
        let m = DiscreteModel::new(poisson_model(20.0), Rigid::unit());
        for c in [1.0, 5.0, 10.0, 20.0, 40.0, 80.0] {
            let b = m.best_effort(c);
            let r = m.reservation(c);
            assert!(r >= b - 1e-12, "C={c}: R={r} < B={b}");
            assert!((0.0..=1.0 + 1e-12).contains(&r));
            assert!((0.0..=1.0 + 1e-12).contains(&b));
        }
    }

    #[test]
    fn rigid_b_is_probability_of_underload() {
        // With rigid b̄ = 1, a flow gets utility 1 iff the load k ≤ C, so
        // B(C) = (1/k̄)·Σ_{k≤C} k·P(k) — check against partial moments.
        let load = poisson_model(20.0);
        let m = DiscreteModel::new(load.clone(), Rigid::unit());
        for c in [10.0, 20.0, 30.0] {
            let want = load.partial_mean(c as u64) / load.mean();
            let got = m.best_effort(c);
            assert!((got - want).abs() < 1e-12, "C={c}: {got} vs {want}");
        }
    }

    #[test]
    fn reservation_saturates_blocking_positive() {
        let m = DiscreteModel::new(poisson_model(50.0), Rigid::unit());
        // At C = k̄/2 roughly half the flows are blocked.
        let theta = m.blocking_fraction(25.0);
        assert!(theta > 0.4 && theta < 0.6, "theta {theta}");
        // Deep overprovisioning: essentially no blocking.
        assert!(m.blocking_fraction(200.0) < 1e-10);
    }

    #[test]
    fn elastic_collapses_architectures() {
        let m = DiscreteModel::new(poisson_model(20.0), ExponentialElastic::default());
        for c in [5.0, 20.0, 60.0] {
            assert_eq!(m.k_max(c), None);
            assert!((m.reservation(c) - m.best_effort(c)).abs() < 1e-14);
            assert_eq!(m.blocking_fraction(c), 0.0);
        }
    }

    #[test]
    fn adaptive_gap_smaller_than_rigid() {
        // §3.3: the performance gap shrinks dramatically from rigid to
        // adaptive applications.
        let load = poisson_model(50.0);
        let rigid = DiscreteModel::new(load.clone(), Rigid::unit());
        let adaptive = DiscreteModel::new(load, AdaptiveExp::paper());
        let c = 40.0;
        let gap_rigid = rigid.reservation(c) - rigid.best_effort(c);
        let gap_adaptive = adaptive.reservation(c) - adaptive.best_effort(c);
        assert!(
            gap_adaptive < 0.5 * gap_rigid,
            "adaptive {gap_adaptive} vs rigid {gap_rigid}"
        );
    }

    #[test]
    fn b_monotone_in_capacity() {
        let m = DiscreteModel::new(poisson_model(30.0), AdaptiveExp::paper());
        let mut prev = 0.0;
        for i in 1..=60 {
            let b = m.best_effort(f64::from(i) * 2.0);
            assert!(b >= prev - 1e-13, "C={}", i * 2);
            prev = b;
        }
    }

    #[test]
    fn geometric_load_utilities_bounded_and_ordered() {
        let load = Tabulated::from_model(&Geometric::from_mean(100.0), 1e-12, 1 << 20);
        let m = DiscreteModel::new(load, AdaptiveExp::paper());
        for c in [50.0, 100.0, 200.0, 400.0] {
            let b = m.best_effort(c);
            let r = m.reservation(c);
            assert!(r >= b && r <= 1.0 + 1e-12, "C={c}: B={b} R={r}");
        }
    }

    #[test]
    fn zero_capacity_gives_zero_utility() {
        let m = DiscreteModel::new(poisson_model(10.0), AdaptiveExp::paper());
        assert_eq!(m.best_effort(0.0), 0.0);
        assert_eq!(m.reservation(0.0), 0.0);
    }

    #[test]
    fn total_utilities_scale_by_mean() {
        let m = DiscreteModel::new(poisson_model(10.0), AdaptiveExp::paper());
        let c = 15.0;
        assert!((m.total_best_effort(c) - m.mean_load() * m.best_effort(c)).abs() < 1e-12);
    }

    /// A utility wrapper counting `value` calls, for pinning the early-exit
    /// cadence of the summation loop.
    struct Counting {
        inner: Rigid,
        calls: std::sync::atomic::AtomicUsize,
    }
    impl Utility for Counting {
        fn value(&self, b: f64) -> f64 {
            self.calls.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.inner.value(b)
        }
        fn name(&self) -> &'static str {
            "counting-rigid"
        }
    }

    #[test]
    fn short_table_early_exit_fires_and_preserves_results() {
        // Regression for the early-exit cadence: a `k % 64 == 0` check alone
        // never fires on tables shorter than 64 entries, so small-k̄ sweeps
        // paid the full O(len) even after π hit exactly 0. With rigid b̄ = 1
        // and C = 10, π(C/k) = 0 for every k > 10, so the loop must stop
        // right after k = 11 — not scan all 40 entries.
        let weights: Vec<f64> = (0..40).map(|k| 1.0 / f64::from(k + 1)).collect();
        let load = Arc::new(Tabulated::from_weights(weights.clone()));

        let counting =
            Counting { inner: Rigid::unit(), calls: std::sync::atomic::AtomicUsize::new(0) };
        let m = DiscreteModel::new(Arc::clone(&load), counting);
        let got = m.best_effort(10.0);
        let calls = m.utility().calls.load(std::sync::atomic::Ordering::Relaxed);
        assert!(calls <= 12, "early exit did not fire: {calls} value() calls for 40 entries");

        // And the exit is bitwise neutral: identical to the full-order
        // reference sum over every entry (the skipped terms are exactly 0).
        let mut acc = NeumaierSum::new();
        for k in 1..load.len() as u64 {
            let p = load.pmf(k);
            let pi = Rigid::unit().value(10.0 / k as f64);
            if p > 0.0 {
                acc.add(p * k as f64 * pi);
            }
        }
        let want = acc.total() / load.mean();
        assert_eq!(got.to_bits(), want.to_bits(), "exit changed the sum: {got:e} vs {want:e}");
    }
}
