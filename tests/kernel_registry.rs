//! Workspace acceptance for the kernel backends and their `BEVRA_KERNEL`
//! names: capability records flow into pinned persistent-cache keys, a
//! `scalar` request is bitwise the per-point path, and the
//! `deterministic-portable` backend produces pinned, libm-independent
//! bits.

use bevra::analysis::{sweep_grid_fused, DiscreteModel, PiEval};
use bevra::engine::{grid_key, registry, CacheMode, ExecMode, PersistentCache, SweepEngine};
use bevra::load::{Poisson, Tabulated};
use bevra::utility::{AdaptiveExp, Rigid};

fn model() -> DiscreteModel<AdaptiveExp> {
    let load = Tabulated::from_model(&Poisson::new(20.0), 1e-12, 1 << 12);
    DiscreteModel::new(load, AdaptiveExp::paper())
}

fn grid() -> Vec<f64> {
    (1..=16).map(|i| 2.5 * f64::from(i)).collect()
}

/// The capability record round-trips through the persistent-cache key:
/// rows primed by one parity class are never served to another. Checked
/// functionally through real cache traffic, not just key inequality.
#[test]
fn capability_record_round_trips_through_cache_key() {
    let dir = std::env::temp_dir()
        .join(format!("bevra-kernel-cache-key-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cs = grid();
    let pcache = || PersistentCache::new(&dir, CacheMode::ReadWrite);
    let engine = |k| {
        SweepEngine::with_mode(model(), ExecMode::Serial)
            .with_kernel(k)
            .with_persistent_cache(pcache())
    };

    // Cold batch prime: one miss, one store.
    let batch = engine(PiEval::Exact);
    batch.prime(&cs);
    assert_eq!(batch.persistent_cache().map(|p| p.stores()), Some(1));

    // Fast and portable request different capability keys: both miss the
    // batch entry and store their own.
    for k in [PiEval::Fast, PiEval::Portable] {
        let other = engine(k);
        other.prime(&cs);
        let pc = other.persistent_cache().expect("cache attached");
        let s = pc.stats();
        assert_eq!(
            (s.hits, s.misses),
            (0, 1),
            "{}: must not be served another parity class's rows",
            k.capability().name
        );
        assert_eq!(pc.stores(), 1, "{}: stores its own entry", k.capability().name);
    }

    // A warm batch engine is a pure hit again.
    let warm = engine(PiEval::Exact);
    warm.prime(&cs);
    let s = warm.persistent_cache().expect("cache attached").stats();
    assert_eq!((s.hits, s.misses), (1, 0), "batch warm prime is a pure hit");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Persistent-cache keys are pinned per backend, so entries already in
/// `results/cache` stay valid and a capability edit cannot re-key them
/// silently. The model is libm-free (literal load weights, rigid
/// utility), so the pins hold on every platform. The retired `scalar`
/// backend shared `batch`'s key; a `scalar` request now resolves to
/// `batch` and so still finds those entries.
#[test]
fn grid_keys_are_pinned_per_backend() {
    let load = Tabulated::from_weights(vec![
        0.02, 0.08, 0.16, 0.22, 0.20, 0.14, 0.09, 0.05, 0.03, 0.01,
    ]);
    let m = DiscreteModel::new(load, Rigid::unit());
    let cs: Vec<f64> = (1..=24).map(|i| 0.625 * f64::from(i)).collect();
    let key = |k: PiEval| grid_key(&m, &k.capability(), &cs);
    assert_eq!(key(PiEval::Exact), 0x8EA0_92CC_DDB9_C263, "batch key moved");
    assert_eq!(key(PiEval::Fast), 0xFBC0_C652_D164_B09E, "fast key moved");
    assert_eq!(key(PiEval::Portable), 0x4D02_51F9_A305_2604, "portable key moved");
    assert_eq!(key(registry::resolve(Some("scalar")).kernel), key(PiEval::Exact));
}

/// A `BEVRA_KERNEL=scalar` request is bitwise the per-point path:
/// `DiscreteModel::{k_max, best_effort, reservation}` called point by
/// point plus the serial `bandwidth_gap` solver. The retired scalar
/// backend ran exactly that code; the request now resolves to `batch`,
/// whose fused traversal reproduces it bit for bit.
#[test]
fn scalar_backend_is_bitwise_the_pre_refactor_path() {
    let cs = grid();
    let reference = model();
    let selection = registry::resolve(Some("scalar"));
    assert!(selection.warning.is_some(), "scalar is no longer a backend name");
    let engine = SweepEngine::with_mode(model(), ExecMode::Serial).with_kernel(selection.kernel);
    let swept = engine.sweep(&cs);
    let grid_sweep = sweep_grid_fused(&reference, &cs, selection.kernel);
    for (i, (&c, pt)) in cs.iter().zip(&swept).enumerate() {
        assert_eq!(reference.k_max(c), grid_sweep.k_max[i], "k_max at C={c}");
        assert_eq!(reference.best_effort(c).to_bits(), pt.best_effort.to_bits(), "B at C={c}");
        assert_eq!(reference.reservation(c).to_bits(), pt.reservation.to_bits(), "R at C={c}");
        let gap = bevra::analysis::bandwidth_gap(&reference, c).unwrap_or(f64::NAN);
        assert_eq!(gap.to_bits(), pt.bandwidth_gap.to_bits(), "Δ at C={c}");
    }
}

/// FNV-1a over a stream of u64 bit patterns.
fn fnv(bits: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for word in bits {
        for b in word.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The `deterministic-portable` backend's bits are **pinned**: the whole
/// pipeline below it — explicit literal load weights, the κ literal, the
/// integer-scaled `one_minus_exp_neg` polynomial, Neumaier summation —
/// avoids libm entirely, so this digest must reproduce on every OS, libm
/// version, and CPU architecture. A digest change means the portable
/// contract broke (or the pipeline was intentionally changed: re-pin with
/// the printed value). This is the test that retires the libm-ULP
/// seed-artifact drift caveat: portable artifacts can be golden-pinned
/// exactly, with zero ULP budget.
#[test]
fn portable_backend_digest_is_pinned_across_environments() {
    // Literal weights (an asymmetric bell around k = 4) — no libm in the
    // table construction, unlike `Tabulated::from_model(&Poisson, ..)`.
    let load = Tabulated::from_weights(vec![
        0.02, 0.08, 0.16, 0.22, 0.20, 0.14, 0.09, 0.05, 0.03, 0.01,
    ]);
    let model = DiscreteModel::new(load, AdaptiveExp::paper());
    let cs: Vec<f64> = (1..=24).map(|i| 0.625 * f64::from(i)).collect();
    let swept = sweep_grid_fused(&model, &cs, PiEval::Portable);

    let digest = fnv(
        swept
            .k_max
            .iter()
            .map(|k| k.map_or(u64::MAX, |v| v))
            .chain(swept.best_effort.iter().map(|b| b.to_bits()))
            .chain(swept.reservation.iter().map(|r| r.to_bits())),
    );
    assert_eq!(
        digest, 0xA885_60D8_D562_C727,
        "portable sweep bits drifted: digest {digest:#018X}"
    );

    // And the engine path over the portable backend reproduces itself
    // exactly (cache off, grid priming on): determinism within this
    // environment is a prerequisite of determinism across them.
    let again = sweep_grid_fused(&model, &cs, PiEval::Portable);
    assert_eq!(swept.best_effort, again.best_effort);
    assert_eq!(swept.reservation, again.reservation);
}

/// `BEVRA_KERNEL` resolution is observable end to end: the health ledger
/// of a checked sweep names the backend that evaluated it.
#[test]
fn health_ledger_names_the_active_backend() {
    let cs = grid();
    for (k, want) in [
        (PiEval::Exact, "batch"),
        (PiEval::Fast, "fast"),
        (PiEval::Portable, "deterministic-portable"),
    ] {
        let checked = SweepEngine::with_mode(model(), ExecMode::Serial)
            .with_kernel(k)
            .sweep_checked(&cs);
        assert_eq!(checked.health.kernel.as_deref(), Some(want));
        assert!(checked.health.is_clean(), "{want}: clean sweep expected");
    }
}
