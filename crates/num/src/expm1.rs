//! A bit-exact port of the host libm's `expm1`, dispatched over the SIMD
//! tiers, for the exact (bitwise) welfare path.
//!
//! The exact kernels must reproduce `f64::exp_m1` bit for bit: the default
//! backend's results are pinned by digests and byte-compared figure
//! panels. A scalar libm call per element is the cost of that contract,
//! and it dominates Figure 4's run time. This module removes the call
//! without changing a bit: it ports glibc's `expm1` (fdlibm's algorithm,
//! with the polynomial in glibc's Estrin order) and **verifies** the port
//! against the host libm at run time before using it.
//!
//! # Two contraction variants
//!
//! glibc builds `expm1` twice on x86-64 and picks one by ifunc: compiled
//! with FMA contraction on FMA hosts, plain otherwise. The two round
//! differently on a few arguments per million, so the port is written once
//! over a `const FMA: bool` that chooses `mul_add` or `a * b + c` at every
//! site GCC contracts (`madd` below). The plain variant is pure IEEE
//! arithmetic and runs at every tier; the FMA variant runs only in
//! `avx2,fma` / `avx512f,fma` (and NEON) wrappers — at the `Scalar` tier an
//! FMA-variant process keeps libm.
//!
//! # Verify, don't guess
//!
//! Which variant (if any) equals the host libm is decided by running
//! each candidate — FMA first, then plain — through the same dispatched
//! entry the product calls, over a fixed probe corpus ([`probe_corpus`]):
//! every branch edge, the k-rounding edges, NaN and ±∞, and arguments
//! where the two variants (and a Horner-order polynomial) disagree. The
//! first exact match wins. If none matches — musl, macOS, another glibc —
//! the process keeps libm, prints one note on stderr and bumps the
//! `kernel/expm1_fallback` counter. The decision is made once per SIMD
//! tier (a process runs one tier; the parity tests force several), so the
//! bitwise class never rests on a guess.

use crate::simd::Level;
use std::sync::{Once, OnceLock};

const LN2_HI: f64 = f64::from_bits(0x3FE6_2E42_FEE0_0000);
const LN2_LO: f64 = f64::from_bits(0x3DEA_39EF_3579_3C76);
const INVLN2: f64 = f64::from_bits(0x3FF7_1547_652B_82FE);
const O_THRESHOLD: f64 = f64::from_bits(0x4086_2E42_FEFA_39EF);
const Q1: f64 = f64::from_bits(0xBFA1_1111_1111_10F4);
const Q2: f64 = f64::from_bits(0x3F5A_01A0_19FE_5585);
const Q3: f64 = f64::from_bits(0xBF14_CE19_9EAA_DBB7);
const Q4: f64 = f64::from_bits(0x3ED0_CFCA_86E6_5239);
const Q5: f64 = f64::from_bits(0xBE8A_FDB7_6E09_C32D);

// glibc branches on the high word of |x|; as |x| thresholds (the low word
// zeroed) the same tests become float compares that vectorize.
/// `|x| < 2^-54`: the result is `x`.
const TINY: f64 = f64::from_bits(0x3C90_0000_0000_0000);
/// `|x| ≥` this: reduce (`hx > 0x3fd62e42`, about 0.5·ln 2).
const REDUCE: f64 = f64::from_bits(0x3FD6_2E43_0000_0000);
/// `|x| ≥` this: general `k` (`hx ≥ 0x3ff0a2b2`, about 1.5·ln 2).
const GENERAL: f64 = f64::from_bits(0x3FF0_A2B2_0000_0000);
/// `|x| ≥` this: saturate (`hx ≥ 0x4043687a`, about 56·ln 2).
const SATURATE: f64 = f64::from_bits(0x4043_687A_0000_0000);
/// `2^52`: `t + 2^52 − 2^52` rounds `t ∈ [0, 2^51)` to an integer.
const ROUND_MAGIC: f64 = 4_503_599_627_370_496.0;

/// `a·b + c` at a site GCC contracts: one rounding in the FMA variant,
/// two in the plain one.
#[inline(always)]
fn madd<const FMA: bool>(a: f64, b: f64, c: f64) -> f64 {
    if FMA {
        a.mul_add(b, c)
    } else {
        a * b + c
    }
}

/// glibc's `r1` polynomial in its Estrin order.
#[inline(always)]
fn estrin<const FMA: bool>(hxs: f64) -> f64 {
    let h2 = hxs * hxs;
    let h4 = h2 * h2;
    let r1 = madd::<FMA>(hxs, Q1, 1.0);
    let r2 = madd::<FMA>(hxs, Q3, Q2);
    let r3 = madd::<FMA>(hxs, Q5, Q4);
    madd::<FMA>(h4, r3, madd::<FMA>(h2, r2, r1))
}

/// `e` of fdlibm's reconstruction from the reduced argument `x` and its
/// `r1` polynomial.
#[inline(always)]
fn correction<const FMA: bool>(x: f64, hfx: f64, hxs: f64, r1: f64) -> f64 {
    let t = madd::<FMA>(-r1, hfx, 3.0);
    hxs * ((r1 - t) / madd::<FMA>(-x, t, 6.0))
}

/// Add `k` to the binary exponent of `y` (glibc's `SET_HIGH_WORD` trick).
#[inline(always)]
fn add_exponent(y: f64, k: i32) -> f64 {
    f64::from_bits(y.to_bits().wrapping_add((i64::from(k) << 52) as u64))
}

/// `expm1(x)` over the whole `f64` domain: the scalar transcription of
/// glibc's `expm1`, bit for bit, in the contraction variant `FMA`.
///
/// It is the readable reference the branch-free lane body is held to,
/// for both variants, whatever the host libm is.
#[must_use]
pub fn expm1<const FMA: bool>(x: f64) -> f64 {
    expm1_with::<FMA>(x, estrin::<FMA>)
}

#[inline(always)]
fn expm1_with<const FMA: bool>(x: f64, poly: fn(f64) -> f64) -> f64 {
    let neg = x.is_sign_negative();
    let ax = x.abs();
    if ax >= SATURATE || ax.is_nan() {
        if !ax.is_finite() {
            return if x.is_nan() || !neg { x + x } else { -1.0 };
        }
        if x > O_THRESHOLD {
            return f64::INFINITY;
        }
        if neg {
            return -1.0;
        }
    }
    let (k, x, c) = if ax >= REDUCE {
        let (k, hi, lo) = if ax < GENERAL {
            if neg {
                (-1, x + LN2_HI, -LN2_LO)
            } else {
                (1, x - LN2_HI, LN2_LO)
            }
        } else {
            let k = madd::<FMA>(INVLN2, x, if neg { -0.5 } else { 0.5 }) as i32;
            let t = f64::from(k);
            (k, madd::<FMA>(-t, LN2_HI, x), t * LN2_LO)
        };
        let xr = hi - lo;
        (k, xr, (hi - xr) - lo)
    } else if ax < TINY {
        return x;
    } else {
        (0, x, 0.0)
    };
    let hfx = 0.5 * x;
    let hxs = x * hfx;
    let e = correction::<FMA>(x, hfx, hxs, poly(hxs));
    if k == 0 {
        return x - madd::<FMA>(x, e, -hxs);
    }
    let e = madd::<FMA>(x, e - c, -c) - hxs;
    match k {
        -1 => madd::<FMA>(0.5, x - e, -0.5),
        1 if x < -0.25 => -2.0 * (e - (x + 0.5)),
        1 => madd::<FMA>(2.0, x - e, 1.0),
        1024 => (1.0 - (e - x)) * 2.0 * f64::from_bits(0x7FE0_0000_0000_0000) - 1.0,
        k if k <= -2 || k > 56 => add_exponent(1.0 - (e - x), k) - 1.0,
        k if k < 20 => {
            let t = f64::from_bits(u64::from(0x3FF0_0000 - (0x0020_0000u32 >> k)) << 32);
            add_exponent(t - (e - x), k)
        }
        k => {
            let t = f64::from_bits(((0x3FF - k) as u64) << 52);
            add_exponent(x - (e + t) + 1.0, k)
        }
    }
}

/// Branch-free `expm1(x)` for `x ≤ 0`, NaN and `±∞`: every glibc branch
/// those inputs reach is computed and the right one selected, so the loop
/// it sits in vectorizes. Bitwise [`expm1`] on that domain; positive
/// finite inputs give unspecified (but deterministic) values.
#[inline(always)]
fn expm1_lane<const FMA: bool>(x: f64) -> f64 {
    let ax = x.abs();
    // k = trunc(INVLN2·x − 0.5) ≤ 0 as −floor(n), n = 0.5 − INVLN2·x; the
    // clamp keeps lanes that select another branch (NaN, ±∞) finite.
    let v = madd::<FMA>(INVLN2, x, -0.5);
    let n = -v;
    let n = if n < 60.0 { n } else { 60.0 };
    let n = if n > 0.0 { n } else { 0.0 };
    let r = (n + ROUND_MAGIC) - ROUND_MAGIC;
    let fl = if r > n { r - 1.0 } else { r };
    let t = if ax < REDUCE {
        0.0
    } else if ax < GENERAL {
        -1.0
    } else {
        -fl
    };
    // With t = 0 and t = −1 this is exactly glibc's k = 0 and k = −1
    // reduction (hi = x, lo = 0; hi = x + ln2_hi, lo = −ln2_lo).
    let hi = madd::<FMA>(-t, LN2_HI, x);
    let lo = t * LN2_LO;
    let xr = hi - lo;
    let c = (hi - xr) - lo;
    let hfx = 0.5 * xr;
    let hxs = xr * hfx;
    let e = correction::<FMA>(xr, hfx, hxs, estrin::<FMA>(hxs));
    let y0 = xr - madd::<FMA>(xr, e, -hxs);
    let ek = madd::<FMA>(xr, e - c, -c) - hxs;
    let y1 = madd::<FMA>(0.5, xr - ek, -0.5);
    // 2^k for k = −floor(n) ∈ [−60, 0]: an exponent-field store, exact.
    let kk = (fl + ROUND_MAGIC).to_bits() & 0xFF;
    let yk = (1.0 - (ek - xr)) * f64::from_bits((1023 - kk) << 52) - 1.0;
    let y = if t == 0.0 {
        y0
    } else if t == -1.0 {
        y1
    } else {
        yk
    };
    let y = if ax < TINY { x } else { y };
    let y = if ax < SATURATE { y } else { -1.0 };
    // NaN and +∞ return x + x, as glibc does.
    if x < f64::INFINITY {
        y
    } else {
        x + x
    }
}

/// glibc's `k = 0` branch alone (`2^-54 ≤ |x| < 0.5·ln 2`), where most of
/// Figure 4's arguments fall: exactly what [`expm1_lane`] computes there
/// (`hi = x`, `lo = c = 0`), without the other branches' work.
#[inline(always)]
fn expm1_small<const FMA: bool>(x: f64) -> f64 {
    let hfx = 0.5 * x;
    let hxs = x * hfx;
    let e = correction::<FMA>(x, hfx, hxs, estrin::<FMA>(hxs));
    x - madd::<FMA>(x, e, -hxs)
}

/// Lanes per block: the widest tier's vector width.
const BLOCK: usize = 8;

/// Whether every argument of a block takes glibc's `k = 0` branch.
#[inline(always)]
fn all_small(xs: &[f64]) -> bool {
    xs.iter().fold(true, |all, x| all & (x.abs() >= TINY) & (x.abs() < REDUCE))
}

#[inline(always)]
fn map_body<const FMA: bool>(
    bs: &[f64],
    out: &mut [f64],
    arg: impl Fn(f64) -> f64,
    finish: impl Fn(f64, f64) -> f64,
) -> bool {
    for (o, &b) in out.iter_mut().zip(bs) {
        *o = arg(b);
    }
    // Runs of whole blocks, each run all-`k = 0` (the cheap body) or not
    // (the full one). The arguments of one exact walk are sorted, so runs
    // are long and each is one vectorized loop.
    let head = bs.len() / BLOCK * BLOCK;
    let mut nan = false;
    let mut start = 0;
    while start < head {
        let small = all_small(&out[start..start + BLOCK]);
        let mut end = start + BLOCK;
        while end < head && all_small(&out[end..end + BLOCK]) == small {
            end += BLOCK;
        }
        nan |= lanes::<FMA>(small, &bs[start..end], &mut out[start..end], &finish);
        start = end;
    }
    // The walks hand over blocks of 63 and lane windows of any length:
    // run the tail as one padded block, not a scalar remainder loop that
    // would cost as much as the rest of the slice. `black_box` keeps the
    // length opaque so the block takes the vector loop.
    if head < bs.len() {
        let tail = bs.len() - head;
        let mut pad_b = [0.0; BLOCK];
        let mut pad_x = [0.0; BLOCK];
        pad_b[..tail].copy_from_slice(&bs[head..]);
        pad_x[..tail].copy_from_slice(&out[head..]);
        let len = std::hint::black_box(BLOCK);
        lanes::<FMA>(false, &pad_b[..len], &mut pad_x[..len], &finish);
        out[head..].copy_from_slice(&pad_x[..tail]);
        nan |= out[head..].iter().any(|o| o.is_nan());
    }
    nan
}

/// `xs[i] = finish(bs[i], expm1(xs[i]))` in place, with [`expm1_small`]
/// when every argument takes the `k = 0` branch (the same bits for a
/// fraction of the work) and the full [`expm1_lane`] otherwise; returns
/// whether any output is NaN. A function, not a closure: a closure is its
/// own function without the caller's target features, so a `mul_add` in
/// it would call libm's `fma`.
#[inline(always)]
fn lanes<const FMA: bool>(
    small: bool,
    bs: &[f64],
    xs: &mut [f64],
    finish: &impl Fn(f64, f64) -> f64,
) -> bool {
    let mut nan = false;
    if small {
        for (x, &b) in xs.iter_mut().zip(bs) {
            *x = finish(b, expm1_small::<FMA>(*x));
            nan |= x.is_nan();
        }
    } else {
        for (x, &b) in xs.iter_mut().zip(bs) {
            *x = finish(b, expm1_lane::<FMA>(*x));
            nan |= x.is_nan();
        }
    }
    nan
}

#[inline(always)]
fn libm_body(
    bs: &[f64],
    out: &mut [f64],
    arg: impl Fn(f64) -> f64,
    finish: impl Fn(f64, f64) -> f64,
) -> bool {
    let mut nan = false;
    for (o, &b) in out.iter_mut().zip(bs) {
        *o = finish(b, arg(b).exp_m1());
        nan |= o.is_nan();
    }
    nan
}

macro_rules! lane_wrappers {
    ($modname:ident, $arch:literal, $feat:literal, $fma:literal) => {
        #[cfg(target_arch = $arch)]
        mod $modname {
            #[target_feature(enable = $feat)]
            pub unsafe fn map(
                bs: &[f64],
                out: &mut [f64],
                arg: impl Fn(f64) -> f64,
                finish: impl Fn(f64, f64) -> f64,
            ) -> bool {
                super::super::map_body::<$fma>(bs, out, arg, finish)
            }
        }
    };
}

/// The FMA variant: only in wrappers whose target features include FMA.
mod fused {
    use super::libm_body;
    use crate::simd::dispatch_simd;

    lane_wrappers!(avx2, "x86_64", "avx2,fma", true);
    lane_wrappers!(avx512, "x86_64", "avx512f,fma", true);
    lane_wrappers!(neon, "aarch64", "neon", true);

    /// Only called once [`super::Path::runs_port`] has seen FMA on this
    /// CPU — a hardware property, so it holds at whichever tier the
    /// dispatch reads; the `Scalar` tier runs libm.
    pub(super) fn map(
        bs: &[f64],
        out: &mut [f64],
        arg: impl Fn(f64) -> f64,
        finish: impl Fn(f64, f64) -> f64,
    ) -> bool {
        dispatch_simd!(map(bs, out, arg, finish), libm_body(bs, out, arg, finish))
    }
}

/// The plain variant: pure IEEE arithmetic, so it runs at every tier.
mod plain {
    use super::map_body;
    use crate::simd::dispatch_simd;

    lane_wrappers!(avx2, "x86_64", "avx2", false);
    lane_wrappers!(avx512, "x86_64", "avx512f", false);
    lane_wrappers!(neon, "aarch64", "neon", false);

    pub(super) fn map(
        bs: &[f64],
        out: &mut [f64],
        arg: impl Fn(f64) -> f64,
        finish: impl Fn(f64, f64) -> f64,
    ) -> bool {
        dispatch_simd!(map(bs, out, arg, finish), map_body::<false>(bs, out, arg, finish))
    }
}

/// How this process evaluates `expm1` on the exact path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    /// The port, FMA-contracted variant (glibc's FMA ifunc).
    Fma,
    /// The port, plain variant (glibc's baseline build).
    Plain,
    /// The host libm's `f64::exp_m1`, one scalar call per element.
    Libm,
}

impl Path {
    /// Whether this path runs the port (not libm) at SIMD tier `level`.
    fn runs_port(self, level: Level) -> bool {
        match self {
            Path::Plain => true,
            Path::Libm => false,
            Path::Fma => match level {
                Level::Scalar => false,
                #[cfg(target_arch = "x86_64")]
                Level::Avx2 | Level::Avx512 => std::arch::is_x86_feature_detected!("fma"),
                #[cfg(target_arch = "aarch64")]
                Level::Neon => true,
                _ => false,
            },
        }
    }

    /// `out[i] = finish(bs[i], expm1(arg(bs[i])))` along this path at the
    /// resolved tier; returns whether any output is NaN.
    fn map(
        self,
        bs: &[f64],
        out: &mut [f64],
        arg: impl Fn(f64) -> f64,
        finish: impl Fn(f64, f64) -> f64,
    ) -> bool {
        assert_eq!(bs.len(), out.len(), "input/output slices must match");
        match self {
            Path::Fma if self.runs_port(crate::simd::level()) => fused::map(bs, out, arg, finish),
            Path::Plain => plain::map(bs, out, arg, finish),
            _ => libm_body(bs, out, arg, finish),
        }
    }
}

/// A candidate `expm1` body for the probe: `out[i] = expm1(xs[i])`.
type SliceBody<'a> = &'a dyn Fn(&[f64], &mut [f64]);

/// The verified path at the resolved SIMD tier (probed on first use).
#[must_use]
pub fn path() -> Path {
    static SELECTED: [OnceLock<Path>; 4] =
        [OnceLock::new(), OnceLock::new(), OnceLock::new(), OnceLock::new()];
    let level = crate::simd::level();
    let slot = match level {
        Level::Scalar => 0,
        Level::Avx2 => 1,
        Level::Avx512 => 2,
        Level::Neon => 3,
    };
    *SELECTED[slot].get_or_init(|| {
        let probe = |p: Path| {
            move |xs: &[f64], out: &mut [f64]| {
                p.map(xs, out, |x| x, |_, e| e);
            }
        };
        let (fma, plain) = (probe(Path::Fma), probe(Path::Plain));
        let all: [(Path, SliceBody); 2] = [(Path::Fma, &fma), (Path::Plain, &plain)];
        let candidates: Vec<_> = all.into_iter().filter(|(p, _)| p.runs_port(level)).collect();
        select(&candidates, level.as_str()).unwrap_or(Path::Libm)
    })
}

/// Run each candidate body over [`probe_corpus`] and return the first
/// whose every output is bitwise `f64::exp_m1`. When none is, print one
/// note on stderr (per process) naming `tier`, bump the
/// `kernel/expm1_fallback` counter and return `None`: the caller keeps
/// libm.
fn select<T: Copy>(candidates: &[(T, SliceBody)], tier: &str) -> Option<T> {
    let corpus = probe_corpus();
    let want: Vec<u64> = corpus.iter().map(|x| x.exp_m1().to_bits()).collect();
    let mut got = vec![0.0; corpus.len()];
    for (tag, body) in candidates {
        body(&corpus, &mut got);
        if got.iter().zip(&want).all(|(g, &w)| g.to_bits() == w) {
            return Some(*tag);
        }
    }
    static NOTE: Once = Once::new();
    NOTE.call_once(|| {
        eprintln!(
            "bevra-num: no expm1 port variant reproduces the host libm at SIMD tier {tier}; \
             the exact path calls libm"
        );
    });
    bevra_obs::metrics::counter("kernel/expm1_fallback").inc();
    None
}

/// Arguments on which the FMA and plain variants, or glibc's Estrin order
/// and a Horner-order polynomial, round differently (found by a seeded
/// search over Figure 4's `−b²/(κ+b)` and the 1.5·ln 2 edge). They are
/// what lets the probe reject a wrong variant; the unit tests pin that
/// each pair still disagrees somewhere in the corpus.
const DISCRIMINATORS: [u64; 24] = [
    // FMA ≠ plain.
    0xBFD1_5599_C9A6_68C6, // -0.27084965412508344
    0xBFD1_976D_4A00_1B79,
    0xBFC8_CD4B_B5ED_7FDC,
    0xBFD2_52AE_9572_731F,
    0xBFD0_20CA_EA52_F836,
    0xBFD4_8DBB_0F0A_34AD,
    0xBFD6_19A1_5F4A_BBCD,
    0xBFC0_B261_BC59_C2DF,
    0xBFC4_5605_84D1_97D3,
    0xBFF0_A2B2_3F3B_A88A,
    0xBFF0_A2B2_3F3B_ACFC,
    0xBFFB_B9D3_BEB8_C7AC,
    0xC003_687A_9F1A_EF23,
    // Estrin ≠ Horner (both variants).
    0xBFD3_FC4A_9E84_E2B5,
    0xBFD6_593A_DDBD_DAB4,
    0xBFCC_3D6A_2255_ED4F,
    0xBFDA_11CE_4CA4_3B53,
    0xBFCA_13A5_E79D_31FB,
    0xBFD1_146D_98CE_7CD4,
    0xBFCB_955C_9640_0B63,
    0xBFBF_FF9E_17E1_2ECD,
    0xBFB5_3B8E_4BB3_936D,
    0xBFD7_7AC9_C1EE_1816,
    0xBFF0_A2B2_3F3B_A950,
];

/// The fixed arguments the probe runs: every glibc branch edge for
/// `x ≤ 0` (±0, `2^-54`, 0.5·ln 2, 1.5·ln 2, 56·ln 2), the k-rounding edges
/// `−(k + ½)·ln 2`, NaN and ±∞, the variant discriminators, and a spread
/// of Figure 4's arguments `−b²/(κ+b)`. Each edge comes with its
/// neighbours a few ULPs either side.
#[must_use]
pub fn probe_corpus() -> Vec<f64> {
    let mut xs = vec![
        0.0,
        -0.0,
        f64::NAN,
        -f64::NAN,
        f64::from_bits(0x7FF0_0000_0000_0001),
        f64::INFINITY,
        f64::NEG_INFINITY,
        -f64::MIN_POSITIVE,
        -5e-324,
        -f64::MAX,
        -O_THRESHOLD,
    ];
    let ulps = |x: f64, xs: &mut Vec<f64>| {
        for d in -3i64..=3 {
            xs.push(-f64::from_bits((x.to_bits() as i64 + d) as u64));
        }
    };
    let ln2 = std::f64::consts::LN_2;
    for edge in [TINY, REDUCE, GENERAL, SATURATE, 0.5 * ln2, 1.5 * ln2, 56.0 * ln2] {
        ulps(edge, &mut xs);
    }
    for k in 1..=57 {
        ulps((f64::from(k) + 0.5) * ln2, &mut xs);
        ulps(f64::from(k) * ln2, &mut xs);
    }
    xs.extend(DISCRIMINATORS.iter().map(|&b| f64::from_bits(b)));
    let kappa = 0.62086;
    for i in 0..2048 {
        let b = 1e-3 * 1.006f64.powi(i);
        xs.push(-(b * b / (kappa + b)));
    }
    xs
}

/// `out[i] = expm1(xs[i])` along the verified [`path`] — the probe's own
/// entry, exposed for the parity walls. Contract: `x ≤ 0`, NaN and ±∞
/// (positive finite inputs give unspecified values).
///
/// # Panics
///
/// Panics if `xs` and `out` have different lengths.
pub fn expm1_nonpos_slice(xs: &[f64], out: &mut [f64]) {
    path().map(xs, out, |x| x, |_, e| e);
}

/// The exponential families' exact π over a bandwidth slice, fused:
/// `out[i] = 0` for `b ≤ 0`, else `−expm1(x(b))`, in one call at the
/// dispatched tier (an exponent pass, then `expm1` along the verified
/// [`path`] and the select). `x(b)` must be `≤ 0` (or
/// NaN, ±∞) for `b > 0`; then every output is bitwise `value(b)`, the
/// family's scalar definition over the host libm.
///
/// Lanes whose result is NaN are re-evaluated by `value`: Rust leaves the
/// sign of a NaN an operation produces unspecified, and the compiler may
/// fold the negation in `x` into a division differently in a vector loop
/// than in `value`, so only `value` itself reproduces its NaN bits — and
/// only when the same out-of-line code runs, so callers pass one the
/// compiler cannot inline (a call through an opaque `&dyn`).
///
/// # Panics
///
/// Panics if `bs` and `out` have different lengths.
pub fn one_minus_exp_slice(
    bs: &[f64],
    out: &mut [f64],
    x: impl Fn(f64) -> f64,
    value: impl Fn(f64) -> f64,
) {
    if path().map(bs, out, x, |b, e| if b <= 0.0 { 0.0 } else { -e }) {
        for (o, &b) in out.iter_mut().zip(bs) {
            if o.is_nan() {
                *o = value(b);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn horner<const FMA: bool>(h: f64) -> f64 {
        let p = madd::<FMA>(h, Q5, Q4);
        let p = madd::<FMA>(h, p, Q3);
        let p = madd::<FMA>(h, p, Q2);
        let p = madd::<FMA>(h, p, Q1);
        madd::<FMA>(h, p, 1.0)
    }

    /// Seeded arguments `x ≤ 0`: uniform [−60, 0], log-uniform
    /// magnitudes, and Figure 4's `−b²/(κ+b)`.
    fn seeded(n: usize) -> Vec<f64> {
        let mut s = 0x9E37_79B9_7F4A_7C15u64;
        let mut unit = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n)
            .map(|i| match i % 3 {
                0 => -60.0 * unit(),
                1 => -(10f64.powf(-20.0 + 23.0 * unit())),
                _ => {
                    let b = 10f64.powf(-4.0 + 7.0 * unit());
                    -(b * b / (0.62086 + b))
                }
            })
            .collect()
    }

    #[test]
    fn lane_bodies_are_the_scalar_port_in_both_variants() {
        let mut xs = probe_corpus();
        xs.extend(seeded(300_000));
        for &x in &xs {
            let (lf, sf) = (expm1_lane::<true>(x), expm1::<true>(x));
            let (lp, sp) = (expm1_lane::<false>(x), expm1::<false>(x));
            assert_eq!(lf.to_bits(), sf.to_bits(), "fma lane vs scalar at {x:e}");
            assert_eq!(lp.to_bits(), sp.to_bits(), "plain lane vs scalar at {x:e}");
            if x.abs() >= TINY && x.abs() < REDUCE {
                assert_eq!(expm1_small::<true>(x).to_bits(), sf.to_bits(), "fma k=0 at {x:e}");
                assert_eq!(expm1_small::<false>(x).to_bits(), sp.to_bits(), "plain k=0 at {x:e}");
            }
        }
    }

    #[test]
    fn corpus_discriminates_every_wrong_body() {
        let xs = probe_corpus();
        let differ = |a: &dyn Fn(f64) -> f64, b: &dyn Fn(f64) -> f64| {
            xs.iter().filter(|&&x| a(x).to_bits() != b(x).to_bits()).count()
        };
        assert!(differ(&expm1::<true>, &expm1::<false>) >= 8, "fma vs plain");
        assert!(differ(&expm1::<true>, &|x| expm1_with::<true>(x, horner::<true>)) >= 4);
        assert!(differ(&expm1::<false>, &|x| expm1_with::<false>(x, horner::<false>)) >= 4);
    }

    #[test]
    fn scalar_port_is_libm_on_both_signs() {
        // The host's own variant, over positive arguments too (the lane
        // body covers only x ≤ 0); nothing to compare on a libm host.
        let port: fn(f64) -> f64 = match path() {
            Path::Fma => expm1::<true>,
            Path::Plain => expm1::<false>,
            Path::Libm => return,
        };
        let xs = seeded(300_000);
        for x in xs.iter().flat_map(|&x| [x, -x]).chain([700.0, 709.78, 710.0, 0.3, 1.0]) {
            assert_eq!(port(x).to_bits(), x.exp_m1().to_bits(), "x = {x:e}");
        }
    }

    #[test]
    fn scalar_port_edges() {
        for f in [expm1::<true>, expm1::<false>] {
            assert_eq!(f(-0.0).to_bits(), (-0.0f64).to_bits());
            assert_eq!(f(0.0).to_bits(), 0.0f64.to_bits());
            assert_eq!(f(f64::NEG_INFINITY), -1.0);
            assert_eq!(f(f64::INFINITY), f64::INFINITY);
            assert_eq!(f(800.0), f64::INFINITY);
            assert_eq!(f(-40.0), -1.0);
            assert!(f(f64::NAN).is_nan());
            assert_eq!(f(1e-300), 1e-300);
        }
    }

    #[test]
    fn slices_of_every_length_match_the_scalar_port() {
        // Block runs, mixed runs and the padded tail: lengths 0..=40 over
        // a sorted stretch that crosses the k = 0 boundary.
        let xs: Vec<f64> = (0..40).map(|i| -0.3 - 0.002 * f64::from(i)).collect();
        for n in 0..=xs.len() {
            let mut out = vec![0.0; n];
            expm1_nonpos_slice(&xs[..n], &mut out);
            for (&x, &o) in xs[..n].iter().zip(&out) {
                assert_eq!(o.to_bits(), x.exp_m1().to_bits(), "n = {n}, x = {x:e}");
            }
        }
    }

    #[test]
    fn wrong_bodies_are_rejected_and_count_a_fallback() {
        let host = path();
        let fallbacks = || bevra_obs::metrics::counter("kernel/expm1_fallback").get();
        let before = fallbacks();
        let body = |f: fn(f64) -> f64| {
            move |xs: &[f64], out: &mut [f64]| {
                for (o, &x) in out.iter_mut().zip(xs) {
                    *o = f(x);
                }
            }
        };
        // The contraction variant the host libm is not (either, when the
        // host matched neither), then the Horner twin of each.
        let other = body(if host == Path::Plain { expm1::<true> } else { expm1::<false> });
        let horner_fma = body(|x| expm1_with::<true>(x, horner::<true>));
        let horner_plain = body(|x| expm1_with::<false>(x, horner::<false>));
        let wrong: [(u8, SliceBody); 3] =
            [(0, &other), (1, &horner_fma), (2, &horner_plain)];
        assert_eq!(select(&wrong, "test"), None);
        assert!(fallbacks() > before, "a rejected probe must count a fallback");
        // libm itself always passes.
        let libm = body(f64::exp_m1);
        assert_eq!(select(&[(7u8, &libm as SliceBody)], "test"), Some(7));
    }
}
