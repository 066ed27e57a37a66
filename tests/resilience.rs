//! Workspace acceptance for the resilience runtime: a sweep or fleet run
//! killed mid-flight must resume from its crash-safe checkpoint and land
//! on *bitwise* the same answer a never-interrupted run produces — for
//! the fleet, the same committed million-flow digest pin the determinism
//! wall enforces. Crash recovery is only real if it changes no bit.

use bevra::prelude::*;
use bevra::sim::{Fleet, FleetConfig, QueueKind};
use bevra_check::chaos::silence_injected_panics;
use bevra_engine::{CacheMode, Kind, Store};
use bevra_faults::{install, FaultKind, FaultPlan, FaultRule};
use std::path::PathBuf;
use std::sync::Arc;

fn tmp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("bevra-kill-resume-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// An analysis sweep killed after its first checkpoint batch resumes from
/// disk instead of recomputing, and every resumed point is bit-identical
/// to an uninterrupted reference sweep.
#[test]
fn killed_sweep_resumes_bitwise_from_checkpoint() {
    use bevra::analysis::DiscreteModel;
    use bevra::load::{Poisson, Tabulated};

    silence_injected_panics();
    let dir = tmp_dir("sweep");
    let load = Tabulated::from_model(&Poisson::new(20.0), 1e-12, 1 << 10);
    let model = || DiscreteModel::new(load.clone(), Rigid::unit());
    // 40 points → two checkpoint batches of 32 + 8.
    let cs: Vec<f64> = (1..=40).map(|i| f64::from(i) * 7.0).collect();
    let reference = SweepEngine::with_mode(model(), ExecMode::Serial).sweep(&cs);

    // Kill the sweep right after batch 0 lands on disk.
    let killed_engine = SweepEngine::with_mode(model(), ExecMode::Serial)
        .with_store(Store::new(&dir, CacheMode::ReadWrite));
    {
        let _guard = install(
            FaultPlan::seeded(0).rule(FaultRule::at_key(FaultKind::Panic, "engine/ckpt-batch", 0)),
        );
        let killed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            killed_engine.sweep_checked(&cs)
        }));
        assert!(killed.is_err(), "the ckpt-batch kill site must fire");
    }
    let stores = killed_engine.store().map_or(0, |s| s.stats(Kind::Sweep).stores);
    assert!(stores >= 1, "batch 0 was checkpointed before the kill");

    // A fresh engine over the same directory resumes and completes.
    let resumed_engine = SweepEngine::with_mode(model(), ExecMode::Serial)
        .with_store(Store::new(&dir, CacheMode::ReadWrite));
    let resumed = resumed_engine.sweep_checked(&cs);
    let store = resumed_engine.store().expect("store attached");
    assert_eq!(store.stats(Kind::Sweep).restored, 32, "the first batch was restored, not recomputed");
    assert!(resumed.health.is_clean(), "resumed sweep is clean: {}", resumed.health);
    assert_eq!(resumed.points().len(), reference.len());
    for (a, b) in reference.iter().zip(resumed.points()) {
        assert_eq!(a.best_effort.to_bits(), b.best_effort.to_bits());
        assert_eq!(a.reservation.to_bits(), b.reservation.to_bits());
        assert_eq!(a.performance_gap.to_bits(), b.performance_gap.to_bits());
        assert_eq!(a.bandwidth_gap.to_bits(), b.bandwidth_gap.to_bits());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The ~1M-flow fleet from the determinism wall, killed at the
/// checkpoint barrier and resumed from disk, still lands on the
/// *committed* merged-digest pin — crash recovery reproduces the exact
/// run the pin certifies, not merely a self-consistent one.
#[test]
fn killed_million_flow_fleet_resumes_onto_the_committed_pin() {
    silence_injected_panics();
    let dir = tmp_dir("fleet");
    // Identical to `tests/determinism.rs` — the digest pin below and CI's
    // sim-scale job certify this exact configuration.
    let fleet = || {
        Fleet::new(FleetConfig {
            base: SimConfig {
                capacity: 3000.0,
                discipline: Discipline::BestEffort,
                arrivals: MixedPoisson::new(2500.0, RateMixing::Fixed, 5000.0),
                holding: HoldingDist::Exponential { mean: 1.0 },
                utility: Arc::new(AdaptiveExp::paper()),
                warmup: 5.0,
                horizon: 100.0,
                seed: 0xF1EE7,
                max_events: None,
            },
            lanes: 4,
        })
        .with_checkpoint(Store::new(&dir, CacheMode::ReadWrite))
    };

    // Kill the run at the checkpoint barrier: the group's lanes are
    // already on disk when the panic fires.
    {
        let _guard = install(
            FaultPlan::seeded(0).rule(FaultRule::at_key(FaultKind::Panic, "sim/fleet-ckpt", 0)),
        );
        let killed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            fleet().run_on(4, QueueKind::Wheel)
        }));
        assert!(killed.is_err(), "the fleet-ckpt kill site must fire");
    }

    // Resume over the same directory: lanes come back from disk and the
    // merged digest is the committed million-flow pin, bit for bit.
    let resumed_fleet = fleet();
    let resumed = resumed_fleet.run_on(4, QueueKind::Wheel);
    let restored = resumed_fleet.checkpoint_store().map_or(0, |s| s.stats(Kind::Fleet).restored);
    assert!(restored > 0, "resume restored lanes from the checkpoint");
    assert!(resumed.health.all_ok(), "resumed fleet is healthy: {:?}", resumed.health);
    assert!(resumed.merged.events > 2_000_000, "scale floor: {} events", resumed.merged.events);
    assert_eq!(
        resumed.merged.digest(),
        0xBE25_1F1D_BB9E_A0D0,
        "resumed million-flow digest drifted from the committed pin"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
