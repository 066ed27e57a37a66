//! Cached SIMD-tier detection, the `BEVRA_SIMD` override, and the
//! dispatch macro of this crate's tiered kernels.
//!
//! The exact path's `expm1` port ([`crate::expm1`]) and
//! [`crate::sum::masked_neumaier_step`] each compile one portable body at
//! several vector widths behind the bit-parity contract (identical IEEE
//! lane arithmetic at every tier: no FMA in the summation body, and in the
//! `expm1` port FMA exactly where the verified host libm fuses), so
//! *which* tier runs is purely a throughput decision. This module is the
//! single place that decision is made:
//!
//! * [`detected`] probes the CPU once per call (the `std_detect` macros
//!   cache internally) and reports the widest supported [`Level`];
//! * [`resolve`] applies the `BEVRA_SIMD` override to a detected level —
//!   a pure function, unit-testable like the registry's kernel resolver;
//! * [`level`] caches the resolved result process-wide, warning once (via
//!   [`crate::env::warn_malformed_env`]) when the override is garbage or
//!   names a tier the machine cannot run, then degrading to the detected
//!   level.
//!
//! `BEVRA_SIMD` accepts `scalar`, `avx2`, `avx512`, or `neon`
//! (case-insensitive). Requesting a *narrower* tier than detected is always
//! honored — that is how the parity suite and CI force-compare tiers — but
//! a tier the hardware lacks degrades with a warning rather than crashing
//! mid-sweep.

use std::sync::atomic::{AtomicU8, Ordering};

/// The vector-width tiers a dispatched kernel can run at.
///
/// Ordering is by lane width: `Scalar < Neon = Avx2 < Avx512` in lanes
/// (NEON and AVX2 both carry 128/256-bit f64 traffic on their respective
/// architectures; they never coexist on one machine).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Level {
    /// Portable body at the compile-target baseline (SSE2 on x86-64).
    Scalar,
    /// 256-bit AVX2 wrappers (x86-64).
    Avx2,
    /// 512-bit AVX-512F wrappers (x86-64).
    Avx512,
    /// 128-bit NEON wrappers (aarch64).
    Neon,
}

impl Level {
    /// Stable lowercase name, used by `BEVRA_SIMD`, the capability record,
    /// and the ledger schema.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Scalar => "scalar",
            Level::Avx2 => "avx2",
            Level::Avx512 => "avx512",
            Level::Neon => "neon",
        }
    }

    /// Whether a kernel dispatched at `self` may run when the hardware
    /// supports `detected`. Narrower tiers of the same architecture are
    /// always runnable; `Scalar` runs everywhere.
    #[must_use]
    pub fn runnable_at(self, detected: Level) -> bool {
        match self {
            Level::Scalar => true,
            Level::Avx2 => matches!(detected, Level::Avx2 | Level::Avx512),
            Level::Avx512 => detected == Level::Avx512,
            Level::Neon => detected == Level::Neon,
        }
    }

    fn parse(raw: &str) -> Option<Level> {
        match raw.trim().to_ascii_lowercase().as_str() {
            "scalar" | "none" | "portable" => Some(Level::Scalar),
            "avx2" => Some(Level::Avx2),
            "avx512" | "avx512f" => Some(Level::Avx512),
            "neon" => Some(Level::Neon),
            _ => None,
        }
    }
}

/// Widest tier the running CPU supports. Pure hardware probe — the
/// `BEVRA_SIMD` override is *not* applied here (see [`level`]).
#[must_use]
pub fn detected() -> Level {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            return Level::Avx512;
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            return Level::Avx2;
        }
        Level::Scalar
    }
    #[cfg(target_arch = "aarch64")]
    {
        if std::arch::is_aarch64_feature_detected!("neon") {
            return Level::Neon;
        }
        Level::Scalar
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        Level::Scalar
    }
}

/// Apply a `BEVRA_SIMD` request to a detected tier. Pure, so the whole
/// override policy is unit-testable without touching the environment:
///
/// * no request → detected level, no warning;
/// * a known tier the hardware can run → honored;
/// * a known tier the hardware cannot run, or garbage → detected level
///   plus a warning message for the caller to surface once.
#[must_use]
pub fn resolve(request: Option<&str>, detected: Level) -> (Level, Option<String>) {
    match request {
        None => (detected, None),
        Some(raw) => match Level::parse(raw) {
            Some(req) if req.runnable_at(detected) => (req, None),
            Some(req) => (
                detected,
                Some(format!(
                    "requested SIMD tier {:?} not supported by this CPU (detected {:?}); using {:?}",
                    req.as_str(),
                    detected.as_str(),
                    detected.as_str()
                )),
            ),
            None => (
                detected,
                Some(format!(
                    "unknown value {raw:?} (expected scalar|avx2|avx512|neon); using {:?}",
                    detected.as_str()
                )),
            ),
        },
    }
}

/// Dispatch a kernel invocation to the resolved SIMD tier: one arm per
/// `#[target_feature]` wrapper module (`avx512`, `avx2`, `neon`, in scope
/// at the call site), falling through to the portable body. Every tier
/// computes bit-identical results, so this is purely a throughput
/// decision.
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

/// Cached resolved level: 0 = uninitialized, otherwise `level as u8 + 1`.
static RESOLVED: AtomicU8 = AtomicU8::new(0);

fn encode(level: Level) -> u8 {
    match level {
        Level::Scalar => 1,
        Level::Avx2 => 2,
        Level::Avx512 => 3,
        Level::Neon => 4,
    }
}

fn decode(code: u8) -> Option<Level> {
    match code {
        1 => Some(Level::Scalar),
        2 => Some(Level::Avx2),
        3 => Some(Level::Avx512),
        4 => Some(Level::Neon),
        _ => None,
    }
}

/// The process-wide SIMD tier every dispatched kernel runs at: the detected
/// hardware level, overridden by `BEVRA_SIMD` when set and runnable.
///
/// The environment is consulted once; a malformed or unrunnable override
/// warns once on stderr (the workspace's malformed-environment contract)
/// and degrades to the detected level. Two racing first calls resolve the
/// same value, so the race is benign.
#[must_use]
pub fn level() -> Level {
    if let Some(cached) = decode(RESOLVED.load(Ordering::Relaxed)) {
        return cached;
    }
    let hw = detected();
    let request = std::env::var("BEVRA_SIMD").ok();
    let (resolved, warning) = resolve(request.as_deref(), hw);
    if let Some(detail) = warning {
        crate::env::warn_malformed_env("bevra-num", "BEVRA_SIMD", &detail);
    }
    RESOLVED.store(encode(resolved), Ordering::Relaxed);
    resolved
}

/// Test hook: pin the resolved level (bypassing detection and
/// `BEVRA_SIMD`). The parity suite uses this to compare tiers inside one
/// process. Panics if `forced` cannot run on this CPU — forcing a tier the
/// hardware lacks would make the next dispatched kernel fault.
#[doc(hidden)]
pub fn force_level(forced: Level) {
    assert!(
        forced.runnable_at(detected()),
        "cannot force SIMD level {:?}: not runnable on this CPU (detected {:?})",
        forced.as_str(),
        detected().as_str()
    );
    RESOLVED.store(encode(forced), Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_through_parse() {
        for level in [Level::Scalar, Level::Avx2, Level::Avx512, Level::Neon] {
            assert_eq!(Level::parse(level.as_str()), Some(level));
        }
        assert_eq!(Level::parse(" AVX512F "), Some(Level::Avx512));
        assert_eq!(Level::parse("none"), Some(Level::Scalar));
        assert_eq!(Level::parse("sse9"), None);
        assert_eq!(Level::parse(""), None);
    }

    #[test]
    fn resolve_without_request_is_detected_level() {
        for hw in [Level::Scalar, Level::Avx2, Level::Avx512, Level::Neon] {
            assert_eq!(resolve(None, hw), (hw, None));
        }
    }

    #[test]
    fn resolve_honors_runnable_narrowing() {
        assert_eq!(resolve(Some("scalar"), Level::Avx512).0, Level::Scalar);
        assert_eq!(resolve(Some("avx2"), Level::Avx512).0, Level::Avx2);
        assert_eq!(resolve(Some("avx2"), Level::Avx2).0, Level::Avx2);
        assert_eq!(resolve(Some("neon"), Level::Neon).0, Level::Neon);
    }

    #[test]
    fn resolve_degrades_unrunnable_request_with_warning() {
        let (level, warning) = resolve(Some("avx512"), Level::Avx2);
        assert_eq!(level, Level::Avx2);
        assert!(warning.unwrap().contains("not supported"));
        let (level, warning) = resolve(Some("neon"), Level::Avx512);
        assert_eq!(level, Level::Avx512);
        assert!(warning.is_some());
    }

    #[test]
    fn resolve_degrades_garbage_with_warning() {
        let (level, warning) = resolve(Some("turbo9000"), Level::Avx2);
        assert_eq!(level, Level::Avx2);
        assert!(warning.unwrap().contains("unknown value"));
    }

    #[test]
    fn detected_is_stable_and_level_is_runnable() {
        assert_eq!(detected(), detected());
        assert!(level().runnable_at(detected()));
    }

    #[test]
    #[cfg(target_arch = "x86_64")]
    #[should_panic(expected = "cannot force SIMD level")]
    fn forcing_neon_on_x86_panics() {
        force_level(Level::Neon);
    }
}
