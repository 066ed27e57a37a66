//! Kernel backends: the closed set of ways the engine evaluates the
//! discrete model's grid primitives.
//!
//! Every backend runs the same fused B+R traversal
//! ([`crate::discrete_batch::sweep_grid_fused`]) and differs only in how it
//! evaluates `π`, so a backend *is* a [`PiEval`] value. This module gives
//! each one its self-reported [`KernelCapability`] record describing how
//! it evaluates — its parity class against the per-point reference, its
//! SIMD level, and the tag that keys the persistent cache:
//!
//! * the engine refuses to mix cached artifacts across backends whose
//!   results may differ ([`KernelCapability::cache_tag`], the parity
//!   class, and the portability flag flow into the persistent-cache key);
//! * the parity suite (`tests/batch_parity.rs`) and the chaos harness
//!   enumerate [`PiEval::ALL`] and derive the right assertion per backend
//!   from [`KernelCapability::parity`];
//! * the `SweepHealth` ledger and the observability metrics record which
//!   backend produced a sweep.
//!
//! | `BEVRA_KERNEL` | enum | parity | π evaluation |
//! |---|---|---|---|
//! | `batch` (default) | [`PiEval::Exact`] | bitwise | host libm, or its verified `expm1` port, blocked per `k` |
//! | `deterministic-portable` | [`PiEval::Portable`] | ≤ [`PORTABLE_PARITY_REL`] rel | scalar polynomial |
//!
//! Cache tags 1 and 3 belonged to the retired `fast` backend and are
//! never reused, so rows it cached can never be served to a live backend.
//!
//! The `deterministic-portable` backend evaluates **every** π through
//! [`bevra_utility::Utility::value_portable`] — the branch-free polynomial
//! `1 − e^{−x}` with integer-scaled exponent rounding
//! (`bevra_num::one_minus_exp_neg`), no libm anywhere — so its results
//! are bit-identical across operating systems, libm versions, and CPU
//! architectures, and portable artifacts can be pinned by digest.

use crate::discrete_batch::PiEval;

/// Relative parity budget of the `deterministic-portable` backend against
/// the per-point reference: its polynomial `π` is within 8 ULPs of libm's,
/// and `B`/`R` are positively weighted means of such values, so the
/// observed distance (~1e-16) sits far inside this bound.
pub const PORTABLE_PARITY_REL: f64 = 1e-13;

/// How close a backend's results are to the per-point reference path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ParityClass {
    /// Bit-for-bit identical to [`crate::DiscreteModel::k_max`] /
    /// [`crate::DiscreteModel::best_effort`] /
    /// [`crate::DiscreteModel::reservation`] called point by point.
    Bitwise,
    /// `B` and `R` within the given **relative** tolerance of the per-point
    /// path; `k_max` may differ only where the value curve `k·π(C/k)` is
    /// flat to within the same tolerance (a tie between thresholds, so
    /// the induced `R` difference is itself inside the budget). Results
    /// are still deterministic: same input bits ⇒ same output bits.
    Tolerance(f64),
}

/// SIMD engagement of a backend's hot loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdLevel {
    /// Scalar code only.
    None,
    /// Runtime-dispatched AVX2 intrinsics with a scalar fallback that is
    /// bitwise identical to the packed path.
    Avx2,
    /// Runtime-dispatched AVX-512 intrinsics — same portable bodies as the
    /// AVX2 tier recompiled with 8-lane registers, bitwise identical.
    Avx512,
    /// Runtime-dispatched NEON (aarch64), same bit-parity contract.
    Neon,
}

impl SimdLevel {
    /// Lowercase stable name, as stamped into health ledgers and reports.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            SimdLevel::None => "none",
            SimdLevel::Avx2 => "avx2",
            SimdLevel::Avx512 => "avx512",
            SimdLevel::Neon => "neon",
        }
    }
}

/// Map the numeric substrate's resolved dispatch tier
/// ([`bevra_num::simd::level`], honoring `BEVRA_SIMD`) onto the kernel
/// vocabulary, so the `batch` capability record reflects the tier its
/// `expm1` port actually executes at.
#[must_use]
pub fn resolved_simd_level() -> SimdLevel {
    match bevra_num::simd::level() {
        bevra_num::simd::Level::Scalar => SimdLevel::None,
        bevra_num::simd::Level::Avx2 => SimdLevel::Avx2,
        bevra_num::simd::Level::Avx512 => SimdLevel::Avx512,
        bevra_num::simd::Level::Neon => SimdLevel::Neon,
    }
}

/// Self-reported description of a backend, consumed by the engine, the
/// persistent cache, the health ledger, and the enumerating test suites.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelCapability {
    /// Unique stable name; `BEVRA_KERNEL` selects by it, and the health
    /// ledger and metrics record it. It is deliberately *not* hashed into
    /// the persistent-cache key, which [`cache_tag`] keys instead.
    ///
    /// [`cache_tag`]: KernelCapability::cache_tag
    pub name: &'static str,
    /// Parity contract against the per-point reference path. The parity
    /// suite derives its per-backend assertion from this.
    pub parity: ParityClass,
    /// SIMD engagement of the backend's hot loop (informational: SIMD
    /// dispatch never changes result bits, so it does not key the cache).
    pub simd: SimdLevel,
    /// Whether results are bit-identical across platforms and libm
    /// versions (true only for backends that never call libm).
    pub portable: bool,
    /// Persistent-cache key tag; each parity class has its own, so cached
    /// rows never cross classes. The values are frozen: changing one
    /// re-keys every stored entry (`tests/kernel_registry.rs` pins them).
    pub cache_tag: u8,
}

impl PiEval {
    /// Every backend, default first — what the parity walls, the chaos
    /// harness and the benches enumerate.
    pub const ALL: [PiEval; 2] = [PiEval::Exact, PiEval::Portable];

    /// The backend's self-description. Constant over the life of the
    /// process: the engine hashes parts of it into persistent-cache keys
    /// and stamps it into health ledgers.
    #[must_use]
    pub fn capability(self) -> KernelCapability {
        match self {
            PiEval::Exact => KernelCapability {
                name: "batch",
                parity: ParityClass::Bitwise,
                // The exponential families' π pass is the tier-dispatched
                // `expm1` port (`bevra_num::expm1`); tiers never change its
                // bits, so the tier does not key the cache.
                simd: resolved_simd_level(),
                portable: false,
                cache_tag: 0,
            },
            PiEval::Portable => KernelCapability {
                name: "deterministic-portable",
                parity: ParityClass::Tolerance(PORTABLE_PARITY_REL),
                simd: SimdLevel::None,
                portable: true,
                cache_tag: 2,
            },
        }
    }
}
