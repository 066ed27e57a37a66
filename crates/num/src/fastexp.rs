//! Fast, vectorization-friendly evaluation of `1 − e^{−x}` for `x ≥ 0`.
//!
//! The blocking-probability kernels spend most of their time evaluating
//! utilities of the form `1 − e^{−x}` (exponential-elastic and adaptive
//! satisfaction curves). `libm`'s `exp_m1` is accurate to < 1 ULP but is a
//! scalar call with internal branching, so the loop over a load table cannot
//! auto-vectorize. This module provides [`one_minus_exp_neg`], a branch-free
//! polynomial evaluation with a bounded error (a few ULPs, see the tests)
//! whose slice form [`one_minus_exp_neg_slice`] compiles to packed SIMD.
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
//!    form so the dependency chain is ~4 fused levels instead of 13 —
//!    the kernels are latency-bound, and the short chain lets unrolled
//!    SIMD iterations overlap.
//! 3. Reconstruct: `1 − e^{−x} = (1 − 2^{−n}) − 2^{−n}·(e^u − 1)`, where
//!    both `2^{−n}` (an exponent-field store, with `n` read straight out of
//!    the magic sum's mantissa) and `1 − 2^{−n}` (Sterbenz for `n ≤ 53`)
//!    are exact. For `n = 0` this collapses to `−(e^u − 1)` with no
//!    cancellation.
//!
//! Every step is expressible with `f64` lane arithmetic plus lane-local
//! bit operations, all of which lower to baseline x86-64 / NEON packed
//! instructions, so the slice loop auto-vectorizes — and produces
//! identical bit patterns on every ISA (no FMA contraction is used; the
//! magic trick assumes the IEEE default round-to-nearest mode, which Rust
//! guarantees).
//!
//! The result is deterministic: the same input bits always produce the same
//! output bits, on every platform, scalar or vectorized.

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

/// A reduced-degree variant of [`one_minus_exp_neg`] for the k-span
/// kernel below: same range reduction and reconstruction, but the Taylor
/// polynomial keeps 12 coefficients instead of 14 (truncation ≈ 5e-16
/// relative on the reduced range — far below the fast kernels' 1e-13
/// budget but *not* bitwise equal to the 14-term evaluation) and the
/// low-side clamp is dropped because k-span callers guarantee `x ≥ 0`.
/// Private on purpose: every caller must go through the k-span API whose
/// tolerance class is declared.
#[inline(always)]
fn one_minus_exp_neg_pos12(x: f64) -> f64 {
    let x = if x < SATURATE { x } else { SATURATE };
    let y = x * LOG2_E + ROUND_MAGIC;
    let nf = y - ROUND_MAGIC;
    let u = (nf * LN2_HI - x) + nf * LN2_LO;
    let u2 = u * u;
    let u4 = u2 * u2;
    let u8 = u4 * u4;
    let q0 = INV_FACT[0] + INV_FACT[1] * u;
    let q1 = INV_FACT[2] + INV_FACT[3] * u;
    let q2 = INV_FACT[4] + INV_FACT[5] * u;
    let q3 = INV_FACT[6] + INV_FACT[7] * u;
    let q4 = INV_FACT[8] + INV_FACT[9] * u;
    let q5 = INV_FACT[10] + INV_FACT[11] * u;
    let r0 = q0 + u2 * q1;
    let r1 = q2 + u2 * q3;
    let r2 = q4 + u2 * q5;
    let s0 = r0 + u4 * r1;
    let p = s0 + u8 * r2;
    let em = u * p;
    let c = f64::from_bits((1023 - (y.to_bits() & 0xFF)) << 52);
    let s = 1.0 - c;
    s - c * em
}

// ---------------------------------------------------------------------
// Slice kernels.
//
// Each public slice function has one portable `#[inline(always)]` body.
// On x86-64 / aarch64 the same body is additionally compiled inside
// `#[target_feature]` wrappers (AVX2, AVX-512F, NEON) and selected at
// runtime via [`crate::simd::level`]: the baseline build only assumes
// SSE2 (2 lanes), while the wrappers let LLVM widen the identical loop
// to 4 or 8 lanes. The *per-element arithmetic is the same
// instruction-for-instruction semantics at every tier* — plain IEEE
// mul/add/div/min/max/convert, no FMA contraction in these bodies — so
// all paths produce bitwise-identical results and the dispatch is purely
// a throughput decision (the welfare kernels spend most of their time
// here; see `bevra_core::discrete_batch`). The exact path's `expm1` port
// (`crate::expm1`) shares this dispatch under the same rule: it contracts
// exactly where the verified host libm does, and identically at every
// tier that runs it.

#[inline(always)]
fn plain_body(xs: &[f64], out: &mut [f64]) {
    for (o, &x) in out.iter_mut().zip(xs) {
        *o = one_minus_exp_neg(x);
    }
}

#[inline(always)]
fn adaptive_body(bs: &[f64], kappa: f64, out: &mut [f64]) {
    for (o, &b) in out.iter_mut().zip(bs) {
        let b = if b > 0.0 { b } else { 0.0 };
        let x = b * b / (kappa + b);
        *o = one_minus_exp_neg(x);
    }
}

#[inline(always)]
fn scaled_body(bs: &[f64], rate: f64, out: &mut [f64]) {
    for (o, &b) in out.iter_mut().zip(bs) {
        let b = if b > 0.0 { b } else { 0.0 };
        *o = one_minus_exp_neg(rate * b);
    }
}

#[inline(always)]
fn adaptive_grid_body(cs: &[f64], kf: f64, kappa: f64, out: &mut [f64]) {
    // x = b²/(κ+b) with b = C/k, rewritten with both numerator and
    // denominator multiplied by k²:  x = C² / (κk² + Ck).  One division
    // per lane instead of the two a split "divide then exponent" pass
    // needs — packed division is the most expensive lane instruction in
    // the welfare kernels, so this halves their fixed cost. The rewritten
    // form rounds differently from the split form by a few ULPs (both
    // evaluate x with ~4 roundings), well inside the fast path's
    // tolerance budget; `kf·kf` is exact for the table lengths in use
    // (k < 2^26).
    let a = kappa * (kf * kf);
    for (o, &c) in out.iter_mut().zip(cs) {
        let x = (c * c) / (a + c * kf);
        // Lanes with C ≤ 0 must yield π = 0 (the select also discards
        // any Inf/NaN a nonpositive denominator could produce).
        let x = if c > 0.0 { x } else { 0.0 };
        *o = one_minus_exp_neg(x);
    }
}

/// Number of stride-interleaved Neumaier sub-accumulators every k-span
/// kernel uses, at **every** ISA tier. Fixing the count (rather than
/// matching the vector width) fixes the summation order, so the k-span
/// results are bitwise identical across scalar/AVX2/AVX-512/NEON — the
/// same contract the slice kernels keep.
pub const KSPAN_ACCS: usize = 8;

#[inline(always)]
fn adaptive_kspan_body(
    c: f64,
    kappa: f64,
    k0: f64,
    pmfs: &[f64],
    sums: &mut [f64; KSPAN_ACCS],
    comps: &mut [f64; KSPAN_ACCS],
) {
    // x = b²/(κ+b) for b = C/k, rewritten as C² / (k·(κk + C)): one packed
    // division per admission level, with the factored denominator saving a
    // multiply over the `κk² + Ck` expansion used by the capacity-grid
    // slice kernel (the two forms round differently by a few ULPs; both
    // are inside the declared k-span tolerance).
    let c2 = c * c;
    let mut base = k0;
    let chunks = pmfs.chunks_exact(KSPAN_ACCS);
    let rem = chunks.remainder();
    for chunk in chunks {
        for j in 0..KSPAN_ACCS {
            let kf = base + j as f64;
            let x = c2 / (kf * (kappa * kf + c));
            let pi = one_minus_exp_neg_pos12(x);
            let v = chunk[j] * kf * pi;
            let s = sums[j];
            let t = s + v;
            let corr = if s.abs() >= v.abs() { (s - t) + v } else { (v - t) + s };
            comps[j] += corr;
            sums[j] = t;
        }
        base += KSPAN_ACCS as f64;
    }
    for (j, &p) in rem.iter().enumerate() {
        let kf = base + j as f64;
        let x = c2 / (kf * (kappa * kf + c));
        let pi = one_minus_exp_neg_pos12(x);
        let v = p * kf * pi;
        let s = sums[j];
        let t = s + v;
        let corr = if s.abs() >= v.abs() { (s - t) + v } else { (v - t) + s };
        comps[j] += corr;
        sums[j] = t;
    }
}

macro_rules! isa_wrappers {
    ($modname:ident, $arch:literal, $feat:literal) => {
        #[cfg(target_arch = $arch)]
        mod $modname {
            //! Wider-lane instantiations of the portable bodies (see the
            //! section comment above: identical arithmetic, wider lanes).
            #[target_feature(enable = $feat)]
            pub unsafe fn plain(xs: &[f64], out: &mut [f64]) {
                super::plain_body(xs, out);
            }

            #[target_feature(enable = $feat)]
            pub unsafe fn adaptive(bs: &[f64], kappa: f64, out: &mut [f64]) {
                super::adaptive_body(bs, kappa, out);
            }

            #[target_feature(enable = $feat)]
            pub unsafe fn scaled(bs: &[f64], rate: f64, out: &mut [f64]) {
                super::scaled_body(bs, rate, out);
            }

            #[target_feature(enable = $feat)]
            pub unsafe fn adaptive_grid(cs: &[f64], kf: f64, kappa: f64, out: &mut [f64]) {
                super::adaptive_grid_body(cs, kf, kappa, out);
            }

            #[target_feature(enable = $feat)]
            pub unsafe fn adaptive_kspan(
                c: f64,
                kappa: f64,
                k0: f64,
                pmfs: &[f64],
                sums: &mut [f64; super::KSPAN_ACCS],
                comps: &mut [f64; super::KSPAN_ACCS],
            ) {
                super::adaptive_kspan_body(c, kappa, k0, pmfs, sums, comps);
            }
        }
    };
}

isa_wrappers!(avx2, "x86_64", "avx2");
isa_wrappers!(avx512, "x86_64", "avx512f");
isa_wrappers!(neon, "aarch64", "neon");

/// Dispatch a kernel invocation to the resolved SIMD tier: one arm per
/// `#[target_feature]` wrapper module, falling through to the portable
/// body. Every tier computes bit-identical results (see the slice-kernel
/// section comment), so this is purely a throughput decision.
macro_rules! dispatch_simd {
    ($func:ident ( $($arg:expr),* ), $portable:expr) => {
        match crate::simd::level() {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `simd::level()` only reports tiers the running CPU
            // supports (detection-checked, and `force_level` asserts it).
            crate::simd::Level::Avx512 => unsafe { avx512::$func($($arg),*) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as above — AVX2 support was verified at detection.
            crate::simd::Level::Avx2 => unsafe { avx2::$func($($arg),*) },
            #[cfg(target_arch = "aarch64")]
            // SAFETY: as above — NEON support was verified at detection.
            crate::simd::Level::Neon => unsafe { neon::$func($($arg),*) },
            _ => $portable,
        }
    };
}

pub(crate) use dispatch_simd;

/// Evaluate [`one_minus_exp_neg`] over a slice.
///
/// `out[i] = 1 − e^{−xs[i]}`. The loop body is branch-free and
/// auto-vectorizes; results are bitwise identical to calling the scalar
/// function element-by-element (on every ISA — see the slice-kernel
/// section comment).
///
/// # Panics
///
/// Panics if `xs` and `out` have different lengths.
pub fn one_minus_exp_neg_slice(xs: &[f64], out: &mut [f64]) {
    assert_eq!(xs.len(), out.len(), "input/output slices must match");
    dispatch_simd!(plain(xs, out), plain_body(xs, out));
}

/// The adaptive-utility satisfaction curve over a bandwidth slice:
/// `out[i] = 1 − e^{−b²/(κ+b)}` with `b = max(bs[i], 0)` (so `b = 0`
/// gives exactly 0, matching the scalar utility). Fusing the exponent
/// into the dispatched kernel keeps the whole evaluation on the widest
/// available vector path; bitwise identical to computing the exponent
/// scalar-side and calling [`one_minus_exp_neg`] per element.
///
/// # Panics
///
/// Panics if `bs` and `out` have different lengths.
pub fn one_minus_exp_neg_adaptive_slice(bs: &[f64], kappa: f64, out: &mut [f64]) {
    assert_eq!(bs.len(), out.len(), "input/output slices must match");
    dispatch_simd!(adaptive(bs, kappa, out), adaptive_body(bs, kappa, out));
}

/// The adaptive satisfaction curve evaluated directly on a **capacity
/// grid** at admission level `k`: `out[i] = 1 − e^{−x}` with
/// `x = C² / (κk² + Ck)` — algebraically equal to `b²/(κ+b)` for
/// `b = C/k`, but computed with a single packed division per lane where
/// the split "bandwidths then exponent" pass needs two (and nonpositive
/// capacities yield exactly 0). Deterministic, but *not* bitwise equal to
/// the split form: the rewritten exponent rounds differently by a few
/// ULPs, within the fast kernels' tolerance budget (see the property
/// test `adaptive_grid_matches_split_form_closely`). Callers needing the
/// bitwise-to-scalar composition must divide first and use
/// [`one_minus_exp_neg_adaptive_slice`].
///
/// # Panics
///
/// Panics if `cs` and `out` have different lengths.
pub fn one_minus_exp_neg_adaptive_grid(cs: &[f64], kf: f64, kappa: f64, out: &mut [f64]) {
    assert_eq!(cs.len(), out.len(), "input/output slices must match");
    dispatch_simd!(adaptive_grid(cs, kf, kappa, out), adaptive_grid_body(cs, kf, kappa, out));
}

/// The exponential-elastic curve over a bandwidth slice:
/// `out[i] = 1 − e^{−rate·b}` with `b = max(bs[i], 0)`. Same fusion and
/// bitwise contract as [`one_minus_exp_neg_adaptive_slice`].
///
/// # Panics
///
/// Panics if `bs` and `out` have different lengths.
pub fn one_minus_exp_neg_scaled_slice(bs: &[f64], rate: f64, out: &mut [f64]) {
    assert_eq!(bs.len(), out.len(), "input/output slices must match");
    dispatch_simd!(scaled(bs, rate, out), scaled_body(bs, rate, out));
}

/// Fused per-capacity k-span walk of the adaptive satisfaction series:
/// for one capacity `c > 0`, accumulate `pmfs[i] · k · π(c/k)` for
/// `k = k0, k0+1, …, k0+pmfs.len()−1` into [`KSPAN_ACCS`]
/// stride-interleaved Neumaier accumulator pairs, where
/// `π(b) = 1 − e^{−b²/(κ+b)}`.
///
/// This is the inner loop of the fused B+R grid pass
/// (`bevra_core::discrete_batch`): instead of the slice kernels' outer-k /
/// inner-capacity layout (one call pair per admission level), one call
/// walks a whole span of levels for one capacity, so the per-level call
/// and mask overhead vanishes and the loop runs at the full width of the
/// resolved SIMD tier.
///
/// Numerical contract: **deterministic and bitwise identical across ISA
/// tiers** (the sub-accumulator count is fixed, so the summation order
/// never depends on the vector width), but **not** bitwise equal to the
/// slice-kernel composition — the exponent uses the factored denominator
/// `k·(κk + c)` and a 12-coefficient reduced polynomial, both a few ULPs
/// off the 14-coefficient slice forms and far inside the fast kernels'
/// 1e-13 relative budget (see `adaptive_kspan_matches_slice_form_closely`).
///
/// Resume the walk by calling again with the next `k0` and the same
/// accumulators; read the running total with [`kspan_total`]. `k0` and
/// the implied `k` values must be exactly representable (`k < 2^53`;
/// callers use table indices `< 2^26`).
pub fn one_minus_exp_neg_adaptive_kspan(
    c: f64,
    kappa: f64,
    k0: f64,
    pmfs: &[f64],
    sums: &mut [f64; KSPAN_ACCS],
    comps: &mut [f64; KSPAN_ACCS],
) {
    dispatch_simd!(
        adaptive_kspan(c, kappa, k0, pmfs, sums, comps),
        adaptive_kspan_body(c, kappa, k0, pmfs, sums, comps)
    );
}

/// Collapse k-span accumulators into one compensated total, in the fixed
/// order `sums[0], comps[0], sums[1], comps[1], …` — part of the k-span
/// bitwise contract (any fixed order works; this one is it).
#[must_use]
pub fn kspan_total(sums: &[f64; KSPAN_ACCS], comps: &[f64; KSPAN_ACCS]) -> f64 {
    let mut acc = 0.0f64;
    let mut corr = 0.0f64;
    for j in 0..KSPAN_ACCS {
        for v in [sums[j], comps[j]] {
            let t = acc + v;
            corr += if acc.abs() >= v.abs() { (acc - t) + v } else { (v - t) + acc };
            acc = t;
        }
    }
    acc + corr
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

    #[test]
    fn slice_matches_scalar_bitwise() {
        let xs: Vec<f64> = (0..4096).map(|i| f64::from(i) * 7.3e-3).collect();
        let mut out = vec![0.0; xs.len()];
        one_minus_exp_neg_slice(&xs, &mut out);
        for (&x, &o) in xs.iter().zip(&out) {
            assert_eq!(o.to_bits(), one_minus_exp_neg(x).to_bits());
        }
    }

    #[test]
    fn fused_slices_match_their_scalar_compositions_bitwise() {
        let bs: Vec<f64> = (-64..4096).map(|i| f64::from(i) * 3.7e-3).collect();
        let mut out = vec![0.0; bs.len()];
        let kappa = 0.62086;
        one_minus_exp_neg_adaptive_slice(&bs, kappa, &mut out);
        for (&b, &o) in bs.iter().zip(&out) {
            let b = if b > 0.0 { b } else { 0.0 };
            let want = one_minus_exp_neg(b * b / (kappa + b));
            assert_eq!(o.to_bits(), want.to_bits(), "adaptive at b={b}");
        }
        let rate = 1.7;
        one_minus_exp_neg_scaled_slice(&bs, rate, &mut out);
        for (&b, &o) in bs.iter().zip(&out) {
            let b = if b > 0.0 { b } else { 0.0 };
            let want = one_minus_exp_neg(rate * b);
            assert_eq!(o.to_bits(), want.to_bits(), "scaled at b={b}");
        }
    }

    #[test]
    fn adaptive_grid_matches_split_form_closely() {
        let kappa = 0.62086;
        let cs: Vec<f64> = (-8..2048).map(|i| f64::from(i) * 0.49).collect();
        let mut grid = vec![0.0; cs.len()];
        for k in [1u64, 2, 7, 64, 4093, 262143] {
            let kf = k as f64;
            one_minus_exp_neg_adaptive_grid(&cs, kf, kappa, &mut grid);
            for (&c, &g) in cs.iter().zip(&grid) {
                let b = if c > 0.0 { c / kf } else { 0.0 };
                let want = one_minus_exp_neg(b * b / (kappa + b));
                // Not bitwise (the exponent is rounded differently), but
                // the relative gap must stay far below the fast kernels'
                // 1e-13 budget.
                let diff = (g - want).abs();
                assert!(
                    diff <= 1e-14 * want.abs().max(1e-300) + 1e-305,
                    "C={c} k={k}: grid {g:e} vs split {want:e}"
                );
                if c <= 0.0 {
                    assert_eq!(g, 0.0, "C={c} must clamp to exactly 0");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "slices must match")]
    fn slice_length_mismatch_panics() {
        let xs = [0.0; 3];
        let mut out = [0.0; 2];
        one_minus_exp_neg_slice(&xs, &mut out);
    }

    #[test]
    fn reduced_polynomial_stays_within_kspan_budget() {
        // The 12-coefficient variant must track the 14-coefficient
        // evaluation to ~5e-16 relative on the full input range.
        let mut x = 1e-12;
        while x < 40.0 {
            let got = one_minus_exp_neg_pos12(x);
            let want = one_minus_exp_neg(x);
            assert!(
                (got - want).abs() <= 4.0 * f64::EPSILON * want.abs().max(1e-300),
                "pos12 at x={x:e}: got {got:e} want {want:e}"
            );
            x *= 1.000_91;
        }
        assert_eq!(one_minus_exp_neg_pos12(0.0), 0.0);
        assert_eq!(one_minus_exp_neg_pos12(50.0), 1.0);
    }

    #[test]
    fn adaptive_kspan_matches_slice_form_closely() {
        // Walk a span with unit weights k·p = term shape used by the B
        // series; compare against the scalar composition through the
        // standard (14-coefficient, unfactored-denominator) path.
        let kappa = 0.62086;
        let len = 4099usize; // off the accumulator stride on purpose
        let pmfs: Vec<f64> = (0..len).map(|i| 1.0 / (1.0 + i as f64).powi(3)).collect();
        for c in [0.25, 5.0, 97.3, 1000.0] {
            let mut sums = [0.0; KSPAN_ACCS];
            let mut comps = [0.0; KSPAN_ACCS];
            // Split the walk mid-span to exercise resumability.
            one_minus_exp_neg_adaptive_kspan(c, kappa, 1.0, &pmfs[..1000], &mut sums, &mut comps);
            one_minus_exp_neg_adaptive_kspan(
                c,
                kappa,
                1001.0,
                &pmfs[1000..],
                &mut sums,
                &mut comps,
            );
            let got = kspan_total(&sums, &comps);
            let mut want = 0.0f64;
            for (i, &p) in pmfs.iter().enumerate() {
                let kf = 1.0 + i as f64;
                let b = c / kf;
                want += p * kf * one_minus_exp_neg(b * b / (kappa + b));
            }
            let rel = (got - want).abs() / want.abs().max(1e-300);
            assert!(rel <= 1e-13, "c={c}: kspan {got:e} vs slice-form {want:e} (rel {rel:e})");
        }
    }

    #[test]
    fn kspan_total_is_ordered_and_compensated() {
        let mut sums = [0.0; KSPAN_ACCS];
        let mut comps = [0.0; KSPAN_ACCS];
        sums[0] = 1.0;
        sums[1] = 1e100;
        sums[2] = 1.0;
        sums[3] = -1e100;
        assert_eq!(kspan_total(&sums, &comps), 2.0);
        comps[4] = 3.5;
        assert_eq!(kspan_total(&sums, &comps), 5.5);
    }
}
