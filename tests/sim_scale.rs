//! Golden-digest wall for the simulator's event loop.
//!
//! The loop was rewritten — binary heap → timer wheel, boxed per-flow
//! state → struct-of-arrays [`bevra::sim::flows`], O(active)
//! max-population scans → a monotone [`bevra::sim::flows::PeakTracker`] —
//! with a bitwise-compatibility contract: *every* report bit, census
//! included, must equal the original loop's. The original loop is gone;
//! what it computed survives as committed constants captured from it, on a
//! ten-config corpus spanning every discipline, mixing family, holding
//! distribution, retry policy, and the budget watchdog:
//!
//! 1. each run's `SimReport::digest`, completed-flow count, and processed
//!    event count ([`GOLDEN`]; the digest leaves `events` out, so it is
//!    pinned on its own), and
//! 2. the digests of watchdog-truncated runs at two budgets
//!    ([`TRUNCATED`]).
//!
//! Any future change that alters a value here is a *semantic* change to
//! the simulator and must re-pin deliberately, with the old and new
//! values in the commit message.

use bevra::prelude::*;
use bevra::sim::{RetryPolicy, SimReport};
use std::sync::Arc;

/// `(SimReport::digest(), completed, events)` captured from the original
/// binary-heap event loop (digests and completed counts at commit
/// `bee8d8d`, event counts from the same loop before its removal) on the
/// corpus below.
const GOLDEN: [(u64, u64, u64); 10] = [
    (0x7CB8_3253_1D8D_A00B, 30_042, 62_112),
    (0xDF40_388A_5358_75BC, 26_748, 58_629),
    (0x1316_958B_BEAA_06E9, 27_165, 54_960),
    (0x0277_8A63_4F7C_167A, 29_741, 61_585),
    (0x0AE8_5D16_A082_0773, 120_460, 241_609),
    (0x7718_EDAD_C911_1A41, 29_801, 76_469),
    (0xAE17_3DE8_8E5B_C624, 25_589, 57_200),
    (0xF5A0_B358_E49B_C923, 30_335, 62_715),
    (0x0F16_C20C_EAB5_E51B, 28_599, 60_635),
    (0x8A21_6240_CCC9_06E3, 8_990, 20_000),
];

/// `(budget, digest, completed)` of corpus[2] cut by the event-budget
/// watchdog, captured from the original binary-heap event loop.
const TRUNCATED: [(u64, u64, u64); 2] =
    [(1_000, 0x84E7_70AF_342E_39C3, 233), (7_777, 0xFA06_E822_E717_8E5E, 3_616)];

/// The pinned corpus: one config per behavioral regime of the simulator.
fn corpus() -> Vec<SimConfig> {
    let base = |capacity: f64, discipline: Discipline, mixing: RateMixing, seed: u64| SimConfig {
        capacity,
        discipline,
        arrivals: MixedPoisson::new(20.0, mixing, 40.0),
        holding: HoldingDist::Exponential { mean: 1.0 },
        utility: Arc::new(AdaptiveExp::paper()),
        warmup: 50.0,
        horizon: 1500.0,
        seed,
        max_events: None,
    };
    let rp = RetryPolicy::new(6, 2.0, 0.05);
    vec![
        base(25.0, Discipline::BestEffort, RateMixing::Fixed, 101),
        base(25.0, Discipline::Reservation { k_max: 22, retry: None }, RateMixing::Fixed, 102),
        base(40.0, Discipline::BestEffort, RateMixing::Exponential, 103),
        SimConfig {
            utility: Arc::new(Rigid::unit()),
            ..base(18.0, Discipline::BestEffort, RateMixing::Fixed, 104)
        },
        base(60.0, Discipline::BestEffort, RateMixing::Pareto { z: 2.3, cap: 1e4 }, 105),
        base(25.0, Discipline::Reservation { k_max: 22, retry: Some(rp) }, RateMixing::Fixed, 106),
        base(
            20.0,
            Discipline::MeasurementBased { target_share: 1.0, ewma_weight: 0.1, retry: None },
            RateMixing::Fixed,
            107,
        ),
        SimConfig {
            holding: HoldingDist::Pareto { mean: 1.0, z: 2.5 },
            ..base(30.0, Discipline::BestEffort, RateMixing::Fixed, 108)
        },
        SimConfig {
            holding: HoldingDist::Deterministic { mean: 1.0 },
            ..base(30.0, Discipline::Reservation { k_max: 25, retry: None }, RateMixing::Fixed, 109)
        },
        SimConfig {
            max_events: Some(20_000),
            ..base(40.0, Discipline::BestEffort, RateMixing::Fixed, 110)
        },
    ]
}

fn summary(r: &SimReport) -> String {
    format!(
        "digest=0x{:016X} completed={} lost={} blocked={} retries={} events={}",
        r.digest(),
        r.completed,
        r.lost,
        r.blocked_attempts,
        r.retries,
        r.events
    )
}

/// The event loop reproduces the committed digest, completed count, and
/// event count of every corpus run.
#[test]
fn corpus_digests_match_golden() {
    for (i, cfg) in corpus().into_iter().enumerate() {
        let report = Simulation::new(cfg).run();
        assert_eq!(
            (report.digest(), report.completed, report.events),
            GOLDEN[i],
            "corpus[{i}]: drifted from golden — {}",
            summary(&report)
        );
    }
}

/// The budget watchdog stops at exactly the budget and leaves the pinned
/// partial census and digest.
#[test]
fn budget_truncation_matches_pinned_digests() {
    for (budget, digest, completed) in TRUNCATED {
        let mut cfg = corpus().swap_remove(2);
        cfg.max_events = Some(budget);
        let report = Simulation::new(cfg).run();
        assert_eq!(report.events, budget, "watchdog must stop exactly at the budget");
        assert_eq!(
            (report.digest(), report.completed),
            (digest, completed),
            "budget {budget}: drifted from pin — {}",
            summary(&report)
        );
    }
}
