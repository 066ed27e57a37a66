//! `fleet_mix`: two batch runs of the sharded simulator fleet, back to
//! back: (a) the pinned million-flow best-effort fleet, (b) the same
//! fleet under reservations with exponentially mixed arrival rates.

use crate::checks::{check_abs, check_digest, check_rel, Tally, PINNED_FLEET_DIGEST};
use bevra_core::DiscreteModel;
use bevra_sim::{
    Discipline, Fleet, FleetConfig, FleetReport, HoldingDist, MixedPoisson, QueueKind, RateMixing,
    SimConfig,
};
use bevra_utility::AdaptiveExp;
use std::sync::Arc;

/// Fleet seed of the pinned run: at this seed fleet (a) must reproduce
/// [`PINNED_FLEET_DIGEST`].
pub const DEFAULT_SEED: u64 = 0xF1EE7;
/// Shards each fleet run is split into (one per core of the 2-core
/// reference host).
pub const SHARDS: usize = 2;

const LANES: u32 = 4;
const RATE: f64 = 2500.0;
const CAPACITY: f64 = 3000.0;
const HOLD_MEAN: f64 = 1.0;
const WARMUP: f64 = 5.0;
const HORIZON: f64 = 100.0;
/// Admission threshold of fleet (b): the adaptive utility's k_max(C) = C.
pub const K_MAX: u64 = 3000;
/// Rate-modulation sojourn of fleet (b). Short against the holding time,
/// so each lane averages thousands of rate epochs: event counts move by
/// about 1% between seeds and blocking stays near 6%.
const MIXED_SOJOURN: f64 = 0.05;
/// Relative tolerance of the occupancy-mean checks (the merged census
/// averages four lanes of 100 holding times each).
const OCCUPANCY_REL: f64 = 0.02;
/// Tolerance of measured against analytic utility, as in the workspace's
/// simulator-versus-analysis tests.
const UTILITY_ABS: f64 = 0.01;

fn base(seed: u64) -> SimConfig {
    SimConfig {
        capacity: CAPACITY,
        discipline: Discipline::BestEffort,
        arrivals: MixedPoisson::new(RATE, RateMixing::Fixed, 5000.0),
        holding: HoldingDist::Exponential { mean: HOLD_MEAN },
        utility: Arc::new(AdaptiveExp::paper()),
        warmup: WARMUP,
        horizon: HORIZON,
        seed,
        max_events: None,
    }
}

/// Fleet (a): the pinned million-flow best-effort fleet at `seed`.
#[must_use]
pub fn best_effort(seed: u64) -> Fleet {
    Fleet::new(FleetConfig {
        base: base(seed),
        lanes: LANES,
    })
}

/// Fleet (b): fleet (a) under `Reservation { k_max: 3000 }` with
/// exponential rate mixing. Its seed is derived from `seed`.
#[must_use]
pub fn reservation(seed: u64) -> Fleet {
    let mut cfg = base(seed ^ 0x5E5E_4B4F_0000_0001);
    cfg.discipline = Discipline::Reservation {
        k_max: K_MAX,
        retry: None,
    };
    cfg.arrivals = MixedPoisson::new(RATE, RateMixing::Exponential, MIXED_SOJOURN);
    Fleet::new(FleetConfig {
        base: cfg,
        lanes: LANES,
    })
}

/// Run a fleet the way the workload does.
#[must_use]
pub fn run(fleet: &Fleet) -> FleetReport {
    fleet.run_on(SHARDS, QueueKind::Wheel)
}

/// Lanes of a fleet run, each an operation: dead or truncated lanes fail.
#[must_use]
pub fn lane_tally(rep: &FleetReport) -> Tally {
    let mut tally = Tally::default();
    let bad = rep.health.failed_lanes() + rep.health.truncated_lanes;
    for lane in 0..LANES {
        tally.record(if lane < bad {
            Err(format!(
                "fleet lane failed or truncated ({bad} of {LANES}): {:?}",
                rep.health.failed
            ))
        } else {
            Ok(())
        });
    }
    tally
}

/// Admitted flows per lane per unit time.
fn admitted_rate(rep: &FleetReport) -> f64 {
    (rep.merged.attempts - rep.merged.blocked_attempts) as f64 / (f64::from(LANES) * HORIZON)
}

/// Statistical checks of fleet (a) at any seed, plus the digest pin at
/// the default seed: occupancy mean ≈ λ·E[hold], and measured utility ≈
/// analytic B(C) on the fleet's own empirical occupancy.
#[must_use]
pub fn check_best_effort(rep: &FleetReport, seed: u64) -> Tally {
    let mut tally = Tally::default();
    if seed == DEFAULT_SEED {
        tally.record(check_digest(rep.merged.digest(), PINNED_FLEET_DIGEST));
    }
    let occ = rep.merged.occupancy();
    tally.record(check_rel(
        "fleet (a) occupancy mean vs λ·E[hold]",
        occ.mean(),
        RATE * HOLD_MEAN,
        OCCUPANCY_REL,
    ));
    let predicted = DiscreteModel::new(occ, AdaptiveExp::paper()).best_effort(CAPACITY);
    tally.record(check_abs(
        "fleet (a) utility at admission vs B(C) on the empirical occupancy",
        rep.merged.utility_at_admission.mean(),
        predicted,
        UTILITY_ABS,
    ));
    tally
}

/// Checks of fleet (b) at any seed: occupancy mean ≈ admitted rate ·
/// E[hold] (Little's law), occupancy never above k_max, and blocking
/// strictly between 0 and 1/2.
#[must_use]
pub fn check_reservation(rep: &FleetReport) -> Tally {
    let mut tally = Tally::default();
    let occ = rep.merged.occupancy();
    tally.record(check_rel(
        "fleet (b) occupancy mean vs admitted rate·E[hold]",
        occ.mean(),
        admitted_rate(rep) * HOLD_MEAN,
        OCCUPANCY_REL,
    ));
    tally.record(if occ.len() as u64 <= K_MAX + 1 {
        Ok(())
    } else {
        Err(format!(
            "fleet (b) occupancy reached {} above k_max = {K_MAX}",
            occ.len() - 1
        ))
    });
    let blocking = rep.merged.blocking_rate();
    tally.record(if blocking > 0.0 && blocking < 0.5 {
        Ok(())
    } else {
        Err(format!("fleet (b) blocking {blocking} outside (0, 0.5)"))
    });
    tally
}
