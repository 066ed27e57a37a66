//! Property tests for the grid-batched welfare kernel: fused-vs-per-point
//! parity across load × utility families for every backend in
//! [`PiEval::ALL`], `k_max` monotonicity with mutation tests proving the
//! checkers and the carried argmax bracket actually bite, and
//! persistent-cache round trips.
//!
//! Shrinking, seeding, and replay work exactly like the differential
//! suite: `BEVRA_CHECK_SEED` rotates the corpus,
//! `BEVRA_CHECK_REPLAY=<case seed>` replays one case.

use bevra::analysis::{k_max_grid, sweep_grid_fused, DiscreteModel, PiEval};
use bevra::analysis::kernel::{self, ParityClass};
use bevra::engine::{CacheMode, ExecMode, Store, SweepEngine};
use bevra::load::Tabulated;
use bevra::num::simd;
use bevra::utility::{Rigid, Utility};
use bevra_check::{ensure, Checker, Scenario, ScenarioStrategy};
use std::sync::{Arc, Mutex};

/// Serializes every test that forces a SIMD dispatch tier or reads the
/// resolved one. `force_level` is process-global; the bit-parity contract
/// makes a concurrent reader's *results* identical either way, but a
/// tier-comparison test must know which tier it actually measured, and a
/// test comparing two reads of the tier must not see a force in between.
static TIER_LOCK: Mutex<()> = Mutex::new(());

/// Build the scenario's model for one load table (mirrors the
/// differential suite's cell construction, including the admission cap).
fn scenario_model(
    table: &Arc<Tabulated>,
    utility: &Arc<dyn Utility>,
    sc: &Scenario,
) -> DiscreteModel<Arc<dyn Utility>> {
    let m = DiscreteModel::new(Arc::clone(table), Arc::clone(utility));
    match sc.admission_cap {
        Some(cap) => m.with_admission_cap(cap),
        None => m,
    }
}

/// Sorted, deduped, bit-distinct copy of the scenario's capacity grid
/// (the batched kernels require ascending order).
fn sorted_grid(sc: &Scenario) -> Vec<f64> {
    let mut cs = sc.capacities.clone();
    cs.sort_unstable_by(f64::total_cmp);
    cs.dedup_by(|a, b| a.to_bits() == b.to_bits());
    cs
}

/// The exact fused traversal is **bitwise** the scalar per-point path —
/// `k_max`, `B`, and `R` — across all three load families and all three
/// utility families the scenario strategy draws, admission caps included.
#[test]
fn batched_exact_kernels_match_scalar_bitwise() {
    Checker::new("batch_exact_vs_scalar").scale_cases(8).run(
        &ScenarioStrategy::default(),
        |sc: &Scenario| {
            let utility = sc.utility.as_dyn();
            let cs = sorted_grid(sc);
            for (li, load) in sc.loads.iter().enumerate() {
                let table = Arc::new(load.tabulate()?);
                let model = scenario_model(&table, &utility, sc);
                let got = sweep_grid_fused(&model, &cs, PiEval::Exact);
                for (i, &c) in cs.iter().enumerate() {
                    let cell = format!("load[{li}]={load:?} C={c}");
                    ensure(got.k_max[i] == model.k_max(c), || {
                        format!(
                            "{cell}: batched k_max {:?} != scalar {:?}",
                            got.k_max[i],
                            model.k_max(c)
                        )
                    })?;
                    let b = model.best_effort(c);
                    let r = model.reservation(c);
                    ensure(got.best_effort[i].to_bits() == b.to_bits(), || {
                        format!("{cell}: batched B {:e} != scalar {b:e}", got.best_effort[i])
                    })?;
                    ensure(got.reservation[i].to_bits() == r.to_bits(), || {
                        format!("{cell}: batched R {:e} != scalar {r:e}", got.reservation[i])
                    })?;
                }
            }
            Ok(())
        },
    );
}

/// Index of the first adjacent pair violating `k_max` monotonicity in
/// `C`, ignoring `None` entries (nonpositive capacities / elastic loads).
fn monotonicity_violation(k_maxes: &[Option<u64>]) -> Option<usize> {
    let mut prev: Option<u64> = None;
    for (i, km) in k_maxes.iter().enumerate() {
        if let Some(k) = *km {
            if let Some(p) = prev {
                if k < p {
                    return Some(i);
                }
            }
            prev = Some(k);
        }
    }
    None
}

/// `k_max(C)` is nondecreasing in `C` on every randomized scenario — the
/// invariant the carried argmax bracket rests on.
#[test]
fn k_max_grid_is_monotone_in_capacity() {
    Checker::new("k_max_monotone").scale_cases(4).run(
        &ScenarioStrategy::default(),
        |sc: &Scenario| {
            let utility = sc.utility.as_dyn();
            let cs = sorted_grid(sc);
            for load in &sc.loads {
                let table = Arc::new(load.tabulate()?);
                let model = scenario_model(&table, &utility, sc);
                let kms = k_max_grid(&model, &cs);
                ensure(monotonicity_violation(&kms).is_none(), || {
                    format!("{load:?}: k_max grid not monotone: {kms:?} over {cs:?}")
                })?;
            }
            Ok(())
        },
    );
}

/// Mutation test: the monotonicity checker actually detects a decrement.
/// A checker that waves through an injected fault would make the property
/// above vacuous.
#[test]
fn monotonicity_checker_catches_injected_decrement() {
    let clean = vec![None, Some(3), Some(5), Some(7), None, Some(9)];
    assert_eq!(monotonicity_violation(&clean), None);
    // Decrementing any entry *after* the first threshold to below its
    // predecessor must be flagged (the first Some has no predecessor).
    for i in 2..clean.len() {
        if clean[i].is_none() {
            continue;
        }
        let prev = clean[..i].iter().rev().find_map(|k| *k).expect("predecessor");
        let mut mutated = clean.clone();
        mutated[i] = Some(prev - 1);
        assert!(
            monotonicity_violation(&mutated).is_some(),
            "checker missed injected decrement at {i}: {mutated:?}"
        );
    }
}

/// Mutation test: the carried bracket is load-bearing. Nudging the
/// carried lower bound *above* the true argmax (via the test-only hook)
/// must change the result — proving the production identity carry seeds
/// the search at, not past, the next threshold.
#[test]
fn carried_bracket_mutation_is_detectable() {
    use bevra::analysis::discrete_batch::k_max_grid_with_carry_nudge;
    let load = Tabulated::from_model(&bevra::load::Poisson::new(12.0), 1e-12, 1 << 10);
    let model = DiscreteModel::new(load, Rigid::unit());
    // Two capacities on the same rigid plateau: k_max = ⌊C⌋ = 10 for both.
    let cs = [10.2, 10.8];
    let clean = k_max_grid(&model, &cs);
    assert_eq!(clean, vec![Some(10), Some(10)]);
    // Overshooting the carry by one starts the second search above the
    // argmax, where the rigid value sequence is flat-to-falling: the
    // search cannot bracket a maximum any more.
    let mutated = k_max_grid_with_carry_nudge(&model, &cs, |k| k + 1);
    assert_eq!(mutated[0], Some(10), "first point has no carry to corrupt");
    assert_ne!(
        mutated[1],
        clean[1],
        "nudged carry must be detectable, else the bracket is dead code"
    );
}

/// Persistent-cache round trip: a cold run (compute + store) and a warm
/// run (pure load) produce bitwise-identical sweeps, and both equal an
/// engine with the cache disabled — so `BEVRA_CACHE=off` trivially
/// reproduces the pre-cache goldens.
#[test]
fn persistent_cache_round_trip_is_bitwise() {
    Checker::new("pcache_round_trip").cases(6).run(
        &ScenarioStrategy::default(),
        |sc: &Scenario| {
            let utility = sc.utility.as_dyn();
            let cs = sorted_grid(sc);
            for (li, load) in sc.loads.iter().enumerate() {
                let table = Arc::new(load.tabulate()?);
                let dir = std::env::temp_dir().join(format!(
                    "bevra-pcache-prop-{}-{li}",
                    std::process::id()
                ));
                let _ = std::fs::remove_dir_all(&dir);

                let plain =
                    SweepEngine::with_mode(scenario_model(&table, &utility, sc), ExecMode::Serial)
                        .with_kernel(PiEval::Exact)
                        .sweep(&cs);
                let cold =
                    SweepEngine::with_mode(scenario_model(&table, &utility, sc), ExecMode::Serial)
                        .with_kernel(PiEval::Exact)
                        .with_store(Store::new(&dir, CacheMode::ReadWrite));
                let cold_points = cold.sweep(&cs);
                let warm =
                    SweepEngine::with_mode(scenario_model(&table, &utility, sc), ExecMode::Serial)
                        .with_kernel(PiEval::Exact)
                        .with_store(Store::new(&dir, CacheMode::ReadWrite));
                let warm_points = warm.sweep(&cs);

                let (_, pw) = warm
                    .cache_stats()
                    .into_iter()
                    .find(|(n, _)| n == "persistent")
                    .ok_or("no persistent cache stats")?;
                ensure(pw.hits >= 1 && pw.misses == 0, || {
                    format!("warm run not a pure hit: {pw:?}")
                })?;

                for ((p, c), w) in plain.iter().zip(&cold_points).zip(&warm_points) {
                    let cell = format!("load[{li}]={load:?} C={}", p.capacity);
                    for (name, a, b, d) in [
                        ("B", p.best_effort, c.best_effort, w.best_effort),
                        ("R", p.reservation, c.reservation, w.reservation),
                        ("Δ", p.bandwidth_gap, c.bandwidth_gap, w.bandwidth_gap),
                    ] {
                        ensure(a.to_bits() == b.to_bits(), || {
                            format!("{cell}: cold {name} {b:e} != uncached {a:e}")
                        })?;
                        ensure(b.to_bits() == d.to_bits(), || {
                            format!("{cell}: warm {name} {d:e} != cold {b:e}")
                        })?;
                    }
                }
                let _ = std::fs::remove_dir_all(&dir);
            }
            Ok(())
        },
    );
}

/// Every backend `BEVRA_KERNEL` can select holds its self-reported parity
/// contract against the scalar per-point reference, across randomized
/// load × utility scenarios. The backends are enumerated from
/// [`PiEval::ALL`], and each assertion is derived from the backend's
/// [`ParityClass`].
#[test]
fn every_registered_backend_holds_its_parity_contract() {
    Checker::new("backend_parity_contract").scale_cases(4).run(
        &ScenarioStrategy::default(),
        |sc: &Scenario| {
            let utility = sc.utility.as_dyn();
            let cs = sorted_grid(sc);
            for (li, load) in sc.loads.iter().enumerate() {
                let table = Arc::new(load.tabulate()?);
                let model = scenario_model(&table, &utility, sc);
                for k in PiEval::ALL {
                    let cap = k.capability();
                    let got = sweep_grid_fused(&model, &cs, k);
                    for (i, &c) in cs.iter().enumerate() {
                        let cell = format!("{}: load[{li}]={load:?} C={c}", cap.name);
                        check_parity(&cell, cap.parity, &model, c, &got, i)?;
                    }
                }
            }
            Ok(())
        },
    );
}

/// One cell of the parity contract: `got`'s lane `i` against the scalar
/// per-point path at capacity `c`, under `parity`.
fn check_parity(
    cell: &str,
    parity: ParityClass,
    model: &DiscreteModel<Arc<dyn Utility>>,
    c: f64,
    got: &bevra::analysis::GridSweep,
    i: usize,
) -> Result<(), String> {
    let (km, b, r) = (got.k_max[i], got.best_effort[i], got.reservation[i]);
    let (km_ref, b_ref, r_ref) = (model.k_max(c), model.best_effort(c), model.reservation(c));
    match parity {
        ParityClass::Bitwise => {
            ensure(km == km_ref, || format!("{cell}: k_max {km:?} != scalar {km_ref:?}"))?;
            ensure(b.to_bits() == b_ref.to_bits(), || {
                format!("{cell}: B {b:e} != scalar {b_ref:e}")
            })?;
            ensure(r.to_bits() == r_ref.to_bits(), || {
                format!("{cell}: R {r:e} != scalar {r_ref:e}")
            })
        }
        ParityClass::Tolerance(t) => {
            // A tolerance-class backend may pick a different argmax on an
            // exact utility plateau, but threshold existence must agree.
            ensure(km.is_some() == km_ref.is_some(), || {
                format!("{cell}: k_max Someness {km:?} vs scalar {km_ref:?}")
            })?;
            let tol_b = 10.0 * t * b_ref.abs().max(1e-12);
            ensure((b - b_ref).abs() <= tol_b, || {
                format!("{cell}: B {b:e} vs scalar {b_ref:e} (tol {tol_b:e})")
            })?;
            let tol_r = 10.0 * t * r_ref.abs().max(1e-12);
            ensure((r - r_ref).abs() <= tol_r, || {
                format!("{cell}: R {r:e} vs scalar {r_ref:e} (tol {tol_r:e})")
            })
        }
    }
}

/// Forced SIMD tiers are **bitwise-identical**: the dispatch contract
/// (one portable body per tier, FMA only where the verified host libm
/// fuses) promises that `BEVRA_SIMD` only changes throughput, never bits.
/// Sweeps every backend at every tier runnable on this host and compares
/// against the scalar-tier bits.
#[test]
fn forced_simd_tiers_are_bitwise_identical() {
    let _guard = TIER_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let restore = simd::level();
    let detected = simd::detected();
    let tiers: Vec<simd::Level> = [simd::Level::Scalar, simd::Level::Avx2, simd::Level::Avx512]
        .into_iter()
        .filter(|t| t.runnable_at(detected))
        .collect();
    assert!(tiers.contains(&simd::Level::Scalar), "scalar runs everywhere");

    let load = Arc::new(Tabulated::from_model(
        &bevra::load::Algebraic::from_mean(3.0, 100.0).expect("fig4 family"),
        1e-9,
        1 << 14,
    ));
    let model = DiscreteModel::new(load, bevra::utility::AdaptiveExp::paper());
    let cs: Vec<f64> = (1..=32).map(|i| f64::from(i) * 1.5).collect();

    let per_tier: Vec<_> = tiers
        .iter()
        .map(|&tier| {
            simd::force_level(tier);
            PiEval::ALL.map(|k| sweep_grid_fused(&model, &cs, k))
        })
        .collect();
    simd::force_level(restore);

    for (tier, sweeps) in tiers.iter().zip(&per_tier).skip(1) {
        for (k, (got, want)) in PiEval::ALL.iter().zip(sweeps.iter().zip(&per_tier[0])) {
            for i in 0..cs.len() {
                assert_eq!(
                    (got.best_effort[i].to_bits(), got.reservation[i].to_bits()),
                    (want.best_effort[i].to_bits(), want.reservation[i].to_bits()),
                    "{} B/R bits diverged at tier {} lane {i}",
                    k.capability().name,
                    tier.as_str()
                );
            }
        }
    }
}

/// Every backend holds its parity contract *under forced SIMD tiers* as
/// well — the sweep above at the detected tier, repeated pinned to scalar
/// and (when runnable) AVX2. A backend whose wide path silently regroups
/// arithmetic would pass at one tier and fail here.
#[test]
fn registered_backends_hold_parity_under_forced_tiers() {
    let _guard = TIER_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let restore = simd::level();
    let detected = simd::detected();
    for tier in [simd::Level::Scalar, simd::Level::Avx2] {
        if !tier.runnable_at(detected) {
            continue;
        }
        simd::force_level(tier);
        Checker::new("backend_parity_forced_tier").cases(2).run(
            &ScenarioStrategy::default(),
            |sc: &Scenario| {
                let utility = sc.utility.as_dyn();
                let cs = sorted_grid(sc);
                for (li, load) in sc.loads.iter().enumerate() {
                    let table = Arc::new(load.tabulate()?);
                    let model = scenario_model(&table, &utility, sc);
                    for k in PiEval::ALL {
                        let cap = k.capability();
                        let got = sweep_grid_fused(&model, &cs, k);
                        for (i, &c) in cs.iter().enumerate() {
                            let tier = tier.as_str();
                            let cell = format!("{}@{tier}: load[{li}]={load:?} C={c}", cap.name);
                            check_parity(&cell, cap.parity, &model, c, &got, i)?;
                        }
                    }
                }
                Ok(())
            },
        );
    }
    simd::force_level(restore);
}

/// Capability records of the backends carry the contract the rest of the
/// workspace depends on: `batch` bitwise and reporting the tier its
/// `expm1` port actually runs at, portable in a tolerance class and
/// cache-key tag of its own. Holds [`TIER_LOCK`]: the two tier reads
/// below must not straddle another test's `force_level`.
#[test]
fn builtin_capability_records_are_coherent() {
    let _guard = TIER_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let [batch, portable] = PiEval::ALL.map(PiEval::capability);
    assert_eq!(batch.name, "batch", "the default backend comes first");
    assert_eq!(batch.parity, ParityClass::Bitwise);
    assert!(matches!(portable.parity, ParityClass::Tolerance(t) if t > 0.0));
    assert!(portable.portable && !batch.portable);
    assert_ne!(portable.cache_tag, batch.cache_tag);
    assert_eq!(
        batch.simd,
        kernel::resolved_simd_level(),
        "batch capability reports the runtime dispatch tier"
    );
}
