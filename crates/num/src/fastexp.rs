//! Libm-free, deterministic evaluation of `1 − e^{−x}` for `x ≥ 0`.
//!
//! [`one_minus_exp_neg`] is a branch-free polynomial evaluation with a
//! bounded error (a few ULPs, see the tests) built only from IEEE basic
//! operations and bit manipulation. Those are correctly rounded on every
//! platform, so the same input bits give the same output bits on every
//! OS, libm and CPU. This is the `π` kernel of the exponential families'
//! `Utility::value_portable` (in `bevra-utility`), which the engine's
//! `deterministic-portable` backend evaluates.
//!
//! # Algorithm
//!
//! For `x ∈ [0, 38]` (beyond which `1 − e^{−x}` is 1 to machine precision):
//!
//! 1. Range-reduce: `n = round(x·log2 e)` so `x = n·ln 2 − u` with
//!    `|u| ≤ ln 2 / 2 + ε`. The rounding uses the magic-constant trick
//!    (`t + 2^52` leaves `n` in the low mantissa bits — see the
//!    `ROUND_MAGIC` constant) so no float→integer conversion is needed, and the
//!    reduction uses a two-term split of `ln 2` (`LN2_HI` exact in 42
//!    bits, `LN2_LO` the remainder) so `n·ln 2 − x` is computed without
//!    cancellation error.
//! 2. Evaluate `e^u − 1` by a degree-14 Taylor polynomial (truncation
//!    error < 1e-16 relative on the reduced range), organized in Estrin
//!    form so the dependency chain is ~4 levels instead of 13.
//! 3. Reconstruct: `1 − e^{−x} = (1 − 2^{−n}) − 2^{−n}·(e^u − 1)`, where
//!    both `2^{−n}` (an exponent-field store, with `n` read straight out of
//!    the magic sum's mantissa) and `1 − 2^{−n}` (Sterbenz for `n ≤ 53`)
//!    are exact. For `n = 0` this collapses to `−(e^u − 1)` with no
//!    cancellation.
//!
//! No FMA contraction is used (Rust never contracts `a * b + c`), and the
//! magic trick assumes the IEEE default round-to-nearest mode, which Rust
//! guarantees.

/// High 42 bits of `ln 2`; `n · LN2_HI` is exact for `|n| < 2^20`.
const LN2_HI: f64 = f64::from_bits(0x3FE6_2E42_FEE0_0000);
/// Low-order remainder: `LN2_HI + LN2_LO` ≈ `ln 2` to ~107 bits.
const LN2_LO: f64 = f64::from_bits(0x3DEA_39EF_3579_3C76);
/// `log2 e`, used to pick the reduction integer `n`.
const LOG2_E: f64 = std::f64::consts::LOG2_E;
/// Inputs above this give `1 − e^{−x} = 1.0` exactly in `f64`.
const SATURATE: f64 = 38.0;
/// `2^52`: adding it to `t ∈ [0, 2^51)` rounds `t` to the nearest
/// integer (round-to-nearest-even, the IEEE default mode) in the
/// mantissa's low bits — the classic branch-and-conversion-free
/// float→integer rounding. Rust's saturating `as i32` cast compiles to a
/// scalar convert plus NaN/range fix-ups that block vectorization; this
/// trick stays in plain f64/bit lane arithmetic.
const ROUND_MAGIC: f64 = 4_503_599_627_370_496.0;

/// Taylor coefficients of the reduced polynomial
/// `p(u) = Σ_{j=0}^{13} u^j / (j+1)!`, so `e^u − 1 = u·p(u)`. Ascending
/// order (`INV_FACT[j] = 1/(j+1)!`) for the Estrin evaluation below.
const INV_FACT: [f64; 14] = [
    1.0,                     // 1/1!
    1.0 / 2.0,               // 1/2!
    1.0 / 6.0,               // 1/3!
    1.0 / 24.0,              // 1/4!
    1.0 / 120.0,             // 1/5!
    1.0 / 720.0,             // 1/6!
    1.0 / 5_040.0,           // 1/7!
    1.0 / 40_320.0,          // 1/8!
    1.0 / 362_880.0,         // 1/9!
    1.0 / 3_628_800.0,       // 1/10!
    1.0 / 39_916_800.0,      // 1/11!
    1.0 / 479_001_600.0,     // 1/12!
    1.0 / 6_227_020_800.0,   // 1/13!
    1.0 / 87_178_291_200.0,  // 1/14!
];

/// `1 − e^{−x}` for `x ≥ 0`, accurate to a few ULPs (see module docs).
///
/// Negative, NaN, or infinite inputs are not part of the contract the
/// welfare kernels need; they are clamped into `[0, 38]` (NaN maps to `0`,
/// like negative inputs), so the function is total and never produces a
/// non-finite output.
#[inline(always)]
#[must_use]
pub fn one_minus_exp_neg(x: f64) -> f64 {
    // Branch-free clamp into [0, SATURATE]. `min`/`max` lower to
    // minpd/maxpd; NaN propagates to the saturated branch (returns 1.0).
    let x = if x > 0.0 { x } else { 0.0 };
    let x = if x < SATURATE { x } else { SATURATE };

    // n = round(x·log2 e) with no float→integer conversion: adding
    // `ROUND_MAGIC` rounds `t ∈ [0, 55]` to the nearest integer in the
    // low mantissa bits, and subtracting it back recovers `n` as an exact
    // f64. Everything is add/sub/bitcast — packed lane instructions on
    // every ISA — whereas Rust's saturating `as i32` cast lowers to a
    // scalar convert plus NaN fix-ups that serializes the vector loop.
    let y = x * LOG2_E + ROUND_MAGIC;
    let nf = y - ROUND_MAGIC; // n as an exact small-integer f64, 0 ≤ n ≤ 55

    // u = n·ln2 − x, |u| ≤ ln2/2 + ε: split reduction avoids cancellation.
    let u = (nf * LN2_HI - x) + nf * LN2_LO;

    // e^u − 1 = u·p(u) with p evaluated by Estrin's scheme: pair the 14
    // ascending coefficients, then combine pairs with u², u⁴, u⁸. Same
    // operation count as Horner (±3 multiplies) but the dependency chain
    // shrinks from 13 mul+add pairs to ~4 levels, which is what the
    // out-of-order core needs to keep the SIMD pipes full — the welfare
    // kernels are latency-bound here, not throughput-bound.
    let u2 = u * u;
    let u4 = u2 * u2;
    let u8 = u4 * u4;
    let q0 = INV_FACT[0] + INV_FACT[1] * u;
    let q1 = INV_FACT[2] + INV_FACT[3] * u;
    let q2 = INV_FACT[4] + INV_FACT[5] * u;
    let q3 = INV_FACT[6] + INV_FACT[7] * u;
    let q4 = INV_FACT[8] + INV_FACT[9] * u;
    let q5 = INV_FACT[10] + INV_FACT[11] * u;
    let q6 = INV_FACT[12] + INV_FACT[13] * u;
    let r0 = q0 + u2 * q1;
    let r1 = q2 + u2 * q3;
    let r2 = q4 + u2 * q5;
    let s0 = r0 + u4 * r1;
    let s1 = r2 + u4 * q6;
    let p = s0 + u8 * s1;
    let em = u * p;

    // 2^{−n} exactly, by storing the exponent field. `y = 2^52 + n`
    // exactly, so `n` sits in the low mantissa bits of `y` (n ≤ 55 < 2^8).
    // n ∈ [0, 55] keeps the biased exponent `1023 − n` in [968, 1023] —
    // always a normal number.
    let c = f64::from_bits((1023 - (y.to_bits() & 0xFF)) << 52);
    // 1 − 2^{−n} is exact (Sterbenz for n ≤ 1, exact representable anyway
    // for n ≤ 53; for n ∈ {54, 55} the rounding error is ≤ 2^{−54}, far
    // below the polynomial's own error).
    let s = 1.0 - c;

    s - c * em
}

#[cfg(test)]
mod tests {
    use super::*;

    /// ULP distance between two finite doubles of the same sign region.
    fn ulp_diff(a: f64, b: f64) -> u64 {
        let ia = a.to_bits() as i64;
        let ib = b.to_bits() as i64;
        ia.abs_diff(ib)
    }

    fn reference(x: f64) -> f64 {
        -(-x).exp_m1()
    }

    #[test]
    fn matches_libm_within_ulp_budget() {
        // Dense logarithmic sweep over the full useful range plus a linear
        // sweep over the kernel's hot range [0, 8].
        let mut worst = 0u64;
        let mut probe = |x: f64| {
            let got = one_minus_exp_neg(x);
            let want = reference(x);
            let d = ulp_diff(got, want);
            if d > worst {
                worst = d;
            }
            assert!(
                d <= 8,
                "1-e^-x at x={x:e}: got {got:e} want {want:e} ({d} ulps)"
            );
        };
        let mut x = 1e-12;
        while x < 40.0 {
            probe(x);
            x *= 1.000_37;
        }
        for i in 0..200_000 {
            probe(f64::from(i) * 4e-5);
        }
        // The budget above is the contract; typical worst case is ~2-3 ULPs.
        assert!(worst <= 8, "worst ULP error {worst}");
    }

    #[test]
    fn exact_at_zero_and_saturated() {
        assert_eq!(one_minus_exp_neg(0.0), 0.0);
        assert_eq!(one_minus_exp_neg(-3.5), 0.0); // clamped
        assert_eq!(one_minus_exp_neg(50.0), 1.0); // saturated
        assert_eq!(one_minus_exp_neg(f64::INFINITY), 1.0);
        assert_eq!(one_minus_exp_neg(f64::NAN), 0.0); // clamped like negatives
    }

    #[test]
    fn monotone_on_grid() {
        let mut prev = -1.0;
        for i in 0..100_000 {
            let v = one_minus_exp_neg(f64::from(i) * 2e-4);
            assert!(v >= prev - 1e-15, "non-monotone at i={i}");
            prev = v;
        }
    }
}
