//! Elastic applications: strictly concave utility everywhere.
//!
//! Traditional data applications (mail, file transfer) tolerate delay and
//! extract diminishing returns from extra bandwidth, so `π` is strictly
//! concave and `V(k) = k·π(C/k)` is strictly increasing in `k` — the
//! best-effort architecture is ideal for them (paper §2). These families
//! serve as baselines and as the "elastic" case of the retrying footnote in
//! §5.1 (`π(b) = 1 − e^{−b}`).

use crate::traits::Utility;

/// `π(b) = 1 − e^{−r·b}`: the elastic exponential utility the paper mentions
/// explicitly (`r = 1` in its footnote).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExponentialElastic {
    /// Rate `r > 0`; larger means the application saturates faster.
    pub rate: f64,
}

impl ExponentialElastic {
    /// New elastic exponential utility with the given rate.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not strictly positive.
    #[must_use]
    pub fn new(rate: f64) -> Self {
        assert!(rate > 0.0, "elastic rate must be positive");
        Self { rate }
    }
}

impl Default for ExponentialElastic {
    fn default() -> Self {
        Self::new(1.0)
    }
}

impl Utility for ExponentialElastic {
    fn value(&self, b: f64) -> f64 {
        if b <= 0.0 {
            0.0
        } else {
            -(-self.rate * b).exp_m1()
        }
    }

    fn name(&self) -> &'static str {
        "elastic-exp"
    }

    fn derivative(&self, b: f64) -> f64 {
        if b < 0.0 {
            0.0
        } else {
            self.rate * (-self.rate * b).exp()
        }
    }

    fn value_portable(&self, b: f64) -> f64 {
        // Polynomial 1 − e^{−rate·b} (no libm): ≤ 8 ULPs from `value`,
        // bit-identical on every platform.
        if b <= 0.0 {
            0.0
        } else {
            bevra_num::one_minus_exp_neg(self.rate * b)
        }
    }

    fn value_slice(&self, bs: &[f64], out: &mut [f64]) {
        assert_eq!(bs.len(), out.len(), "bandwidth/output slices must match");
        // Same fused call as `AdaptiveExp::value_slice`: bitwise `value`
        // per element, including b ≤ 0, NaN and ±∞.
        let oracle = std::hint::black_box(self as &dyn Utility);
        bevra_num::expm1::one_minus_exp_slice(bs, out, |b| -self.rate * b, |b| oracle.value(b));
    }

    fn value_slice_fast(&self, bs: &[f64], out: &mut [f64]) {
        // Fused dispatched kernel: branch-free clamp + 1 − e^{−rate·b} on
        // one vector path; b = 0 gives x = 0 ⇒ π = 0 exactly, matching
        // `value`.
        bevra_num::one_minus_exp_neg_scaled_slice(bs, self.rate, out);
    }

    fn value_capacity_slice_fast(&self, cs: &[f64], kf: f64, _scratch: &mut [f64], out: &mut [f64]) {
        assert!(kf > 0.0, "admission level must be positive");
        // The division by k is absorbed into the rate:
        // rate·(C/k) = (rate/k)·C up to one rounding each way, so the
        // whole grid evaluates on one vector path with no scratch
        // round-trip. A few ULPs from the divide-then-slice composition —
        // inside the fast kernels' 1e-13 budget (property-tested in
        // `tests/batch_parity.rs`). C ≤ 0 clamps to exactly 0 inside the
        // kernel, matching `value`.
        bevra_num::one_minus_exp_neg_scaled_slice(cs, self.rate / kf, out);
    }
}

/// `π(b) = b / (s + b)`: a hyperbolic saturating utility, strictly concave,
/// approaching 1 algebraically rather than exponentially. Useful as an
/// elastic counterpart to the algebraic-tail inelastic families of §3.3.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Saturating {
    /// Half-saturation point `s > 0`: `π(s) = 1/2`.
    pub scale: f64,
}

impl Saturating {
    /// New saturating utility with half-saturation `scale`.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not strictly positive.
    #[must_use]
    pub fn new(scale: f64) -> Self {
        assert!(scale > 0.0, "saturating scale must be positive");
        Self { scale }
    }
}

impl Default for Saturating {
    fn default() -> Self {
        Self::new(1.0)
    }
}

impl Utility for Saturating {
    fn value(&self, b: f64) -> f64 {
        if b <= 0.0 {
            0.0
        } else {
            b / (self.scale + b)
        }
    }

    fn name(&self) -> &'static str {
        "elastic-saturating"
    }

    fn derivative(&self, b: f64) -> f64 {
        if b < 0.0 {
            0.0
        } else {
            let d = self.scale + b;
            self.scale / (d * d)
        }
    }

    fn value_slice(&self, bs: &[f64], out: &mut [f64]) {
        assert_eq!(bs.len(), out.len(), "bandwidth/output slices must match");
        let s = self.scale;
        // Branchless select + one divide per lane: auto-vectorizes and is
        // bitwise identical to `value` per element. The test is `value`'s
        // own `b <= 0.0`, so NaN takes the division (and stays NaN).
        for (o, &b) in out.iter_mut().zip(bs) {
            *o = if b <= 0.0 { 0.0 } else { b / (s + b) };
        }
    }

    fn value_capacity_slice_fast(&self, cs: &[f64], kf: f64, _scratch: &mut [f64], out: &mut [f64]) {
        assert!(kf > 0.0, "admission level must be positive");
        assert_eq!(cs.len(), out.len(), "capacity/output slices must match");
        let sk = self.scale * kf;
        // (C/k) / (s + C/k) = C / (s·k + C): one divide per lane instead of
        // two and no scratch round-trip. The algebra is exact in ℝ but the
        // roundings differ, so this is tolerance-class (≤ a few ULPs, well
        // inside the fast kernels' 1e-13 budget). C ≤ 0 selects exactly 0,
        // matching `value`.
        for (o, &c) in out.iter_mut().zip(cs) {
            *o = if c > 0.0 { c / (sk + c) } else { 0.0 };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::{classify, Curvature};

    #[test]
    fn exponential_limits() {
        let u = ExponentialElastic::default();
        assert_eq!(u.value(0.0), 0.0);
        assert!((u.value(50.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn both_classify_concave() {
        assert_eq!(classify(&ExponentialElastic::default()), Curvature::ConcaveAtOrigin);
        assert_eq!(classify(&Saturating::default()), Curvature::ConcaveAtOrigin);
    }

    #[test]
    fn total_utility_increasing_in_k() {
        // The §2 result: for strictly concave π, V(k) = k·π(C/k) increases
        // with k, so admission control never helps.
        let u = ExponentialElastic::default();
        let c = 10.0;
        let mut prev = 0.0;
        for k in 1..200u32 {
            let v = f64::from(k) * u.value(c / f64::from(k));
            assert!(v > prev, "V must increase: k={k}");
            prev = v;
        }
    }

    #[test]
    fn derivatives_match_finite_difference() {
        for b in [0.1, 1.0, 3.0] {
            let u = ExponentialElastic::new(0.7);
            let fd = (u.value(b + 1e-7) - u.value(b - 1e-7)) / 2e-7;
            assert!((u.derivative(b) - fd).abs() < 1e-6);
            let s = Saturating::new(2.0);
            let fd = (s.value(b + 1e-7) - s.value(b - 1e-7)) / 2e-7;
            assert!((s.derivative(b) - fd).abs() < 1e-6);
        }
    }

    #[test]
    fn saturating_half_point() {
        let u = Saturating::new(3.0);
        assert!((u.value(3.0) - 0.5).abs() < 1e-15);
    }

    #[test]
    fn saturating_value_slice_bitwise() {
        let u = Saturating::new(2.5);
        let bs: Vec<f64> = (-3..40).map(|i| f64::from(i) * 0.37).collect();
        let mut out = vec![0.0; bs.len()];
        u.value_slice(&bs, &mut out);
        for (&b, &o) in bs.iter().zip(&out) {
            assert_eq!(o.to_bits(), u.value(b).to_bits(), "b={b}");
        }
    }

    #[test]
    fn capacity_slice_fast_within_budget() {
        // The grid overrides re-associate the division by k; check the
        // declared ≤ 1e-13 relative budget against divide-then-value for
        // both elastic families over representative grids and levels.
        let exp = ExponentialElastic::new(0.8);
        let sat = Saturating::new(1.7);
        let cs: Vec<f64> = (0..200).map(|i| 0.05 + f64::from(i) * 5.11).collect();
        let mut scratch = vec![0.0; cs.len()];
        let mut out = vec![0.0; cs.len()];
        for kf in [1.0, 3.0, 47.0, 1000.0] {
            exp.value_capacity_slice_fast(&cs, kf, &mut scratch, &mut out);
            for (&c, &o) in cs.iter().zip(&out) {
                let want = exp.value(c / kf);
                assert!((o - want).abs() <= 1e-13 * want.max(1e-300), "exp c={c} k={kf}");
            }
            sat.value_capacity_slice_fast(&cs, kf, &mut scratch, &mut out);
            for (&c, &o) in cs.iter().zip(&out) {
                let want = sat.value(c / kf);
                assert!((o - want).abs() <= 1e-13 * want.max(1e-300), "sat c={c} k={kf}");
            }
        }
    }

    #[test]
    fn capacity_slice_fast_zero_and_negative_capacity() {
        let exp = ExponentialElastic::default();
        let sat = Saturating::default();
        let cs = [-2.0, 0.0, 1.0];
        let mut scratch = [0.0; 3];
        let mut out = [9.0; 3];
        exp.value_capacity_slice_fast(&cs, 2.0, &mut scratch, &mut out);
        assert_eq!(out[0], 0.0);
        assert_eq!(out[1], 0.0);
        sat.value_capacity_slice_fast(&cs, 2.0, &mut scratch, &mut out);
        assert_eq!(out[0], 0.0);
        assert_eq!(out[1], 0.0);
    }
}
