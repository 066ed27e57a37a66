//! Fault-injected degradation tests for the sweep engine.
//!
//! Every test here installs a `bevra_faults` plan; the install guard's
//! internal lock serializes them, so the process-global injection state
//! never leaks between concurrently scheduled tests. Keep plan-free tests
//! out of this binary — they would race against an active plan.

use bevra_core::DiscreteModel;
use bevra_engine::{ExecMode, PointOutcome, SweepEngine};
use bevra_faults::{install, FaultKind, FaultPlan, FaultRule};
use bevra_load::{Poisson, Tabulated};
use bevra_utility::AdaptiveExp;

fn engine(threads: usize) -> SweepEngine<AdaptiveExp> {
    let load = Tabulated::from_model(&Poisson::new(50.0), 1e-12, 1 << 16);
    let mode = if threads <= 1 { ExecMode::Serial } else { ExecMode::Parallel { threads } };
    SweepEngine::with_mode(DiscreteModel::new(load, AdaptiveExp::paper()), mode)
}

fn grid() -> Vec<f64> {
    (1..=24).map(|i| f64::from(i) * 9.0).collect()
}

/// The headline acceptance test: a sweep with an injected panic in one
/// point completes with results for every other point, bitwise those of
/// a clean sweep, and exactly one structured failure — the process does
/// not abort. An `n`-bounded rule behaves like a permanent one: nothing
/// is retried, so the point fails on its one evaluation.
#[test]
fn injected_panic_degrades_exactly_one_point() {
    let cs = grid();
    // The plan is process-global, so the clean reference holds the
    // install lock with an empty plan — otherwise a concurrently
    // scheduled test's plan would leak into it.
    let reference = {
        let _guard = install(FaultPlan::seeded(0));
        engine(8).sweep_checked(&cs)
    };
    assert!(reference.health.is_clean(), "health: {}", reference.health);
    let permanent = FaultRule::at_key(FaultKind::Panic, "engine/point", 3);
    for rule in [permanent.clone(), permanent.with_n(1)] {
        let _guard = install(FaultPlan::seeded(11).rule(rule));
        for threads in [1, 8] {
            let checked = engine(threads).sweep_checked(&cs);
            assert_eq!(checked.outcomes.len(), cs.len());
            let mut failed = Vec::new();
            for (o, clean) in checked.outcomes.iter().zip(&reference.outcomes) {
                match o {
                    PointOutcome::Failed { index, cause, .. } => failed.push((*index, cause.clone())),
                    PointOutcome::Ok(p) => {
                        let c = clean.point().expect("clean reference");
                        assert_eq!(p.best_effort.to_bits(), c.best_effort.to_bits());
                        assert_eq!(p.bandwidth_gap.to_bits(), c.bandwidth_gap.to_bits());
                    }
                }
            }
            assert_eq!(failed.len(), 1, "exactly one failed point (threads={threads})");
            assert_eq!(failed[0].0, 3);
            assert!(failed[0].1.contains("injected panic"), "cause: {}", failed[0].1);
            assert_eq!(checked.health.failed, 1);
            assert_eq!(checked.health.ok, cs.len() as u64 - 1);
            assert_eq!(checked.health.degraded, 0);
            assert_eq!(checked.health.retries, 0, "nothing is retried");
            assert_eq!(
                checked.health.first_failure.as_deref().map(|c| c.contains("injected panic")),
                Some(true)
            );
        }
    }
    // With the plan gone the same engine evaluates the full grid cleanly,
    // including the previously failed index: no lingering poisoned state.
    let clean = {
        let _guard = install(FaultPlan::seeded(0));
        engine(8).sweep_checked(&cs)
    };
    assert!(clean.health.is_clean(), "health: {}", clean.health);
    assert_eq!(clean.points().len(), cs.len());
}

/// Injected NaN is tainted and counted — never silently merged. Untouched
/// points stay bitwise-identical to an uninjected sweep.
#[test]
fn injected_nan_is_counted_not_merged() {
    let cs = grid();
    let poisoned_c = cs[5];
    let plan = FaultPlan::seeded(2).rule(FaultRule::at_key(
        FaultKind::Nan,
        "eval/best_effort",
        poisoned_c.to_bits(),
    ));
    let clean = {
        // Reference values with injection active but keyed off every other
        // capacity: only point 5 differs from a fully clean sweep.
        let _guard = install(FaultPlan::seeded(2));
        engine(4).sweep_checked(&cs)
    };
    let _guard = install(plan);
    let checked = engine(4).sweep_checked(&cs);
    assert_eq!(checked.health.failed, 0);
    assert_eq!(checked.health.degraded, 1, "health: {}", checked.health);
    assert!(checked.health.non_finite >= 1, "health: {}", checked.health);
    for (i, (got, want)) in checked.outcomes.iter().zip(&clean.outcomes).enumerate() {
        let (got, want) = (got.point().expect("no failures"), want.point().expect("clean"));
        if i == 5 {
            assert!(got.best_effort.is_nan(), "corrupted field surfaces as NaN");
        } else {
            assert_eq!(got.best_effort.to_bits(), want.best_effort.to_bits(), "point {i}");
            assert_eq!(got.bandwidth_gap.to_bits(), want.bandwidth_gap.to_bits(), "point {i}");
        }
    }
}

/// A forced `NumError` from the root-finder degrades the bandwidth gap to
/// NaN with the solver's error recorded as the cause.
#[test]
fn forced_numerr_degrades_gap_solves() {
    let cs = grid();
    let plan =
        FaultPlan::seeded(3).rule(FaultRule::always(FaultKind::NumErr, "num/roots/brent"));
    let _guard = install(plan);
    let checked = engine(4).sweep_checked(&cs);
    assert_eq!(checked.health.failed, 0);
    assert!(checked.health.degraded >= 1, "health: {}", checked.health);
    let cause = checked.health.first_failure.clone().expect("a recorded cause");
    assert!(cause.contains("bandwidth gap"), "cause: {cause}");
    for o in &checked.outcomes {
        let p = o.point().expect("numerr never fails a whole point");
        assert!(p.best_effort.is_finite() && p.reservation.is_finite());
    }
}

/// Same fault-plan seed ⇒ identical outcomes and SweepHealth, regardless
/// of worker-thread count.
#[test]
fn fault_injection_is_deterministic_across_threads() {
    let cs = grid();
    let plan = || {
        FaultPlan::seeded(99)
            .rule(FaultRule::with_prob(FaultKind::Panic, "engine/point", 0.2))
            .rule(FaultRule::with_prob(FaultKind::Nan, "eval/best_effort", 0.1))
    };
    let reference = {
        let _guard = install(plan());
        engine(1).sweep_checked(&cs)
    };
    assert!(
        reference.health.failed > 0,
        "seed 99 must trip at least one panic for this test to bite: {}",
        reference.health
    );
    for threads in [2, 8] {
        let _guard = install(plan());
        let got = engine(threads).sweep_checked(&cs);
        assert_eq!(got.health, reference.health, "threads={threads}");
        assert_eq!(got.outcomes.len(), reference.outcomes.len());
        for (a, b) in got.outcomes.iter().zip(&reference.outcomes) {
            match (a, b) {
                (PointOutcome::Ok(x), PointOutcome::Ok(y)) => {
                    assert_eq!(x.capacity.to_bits(), y.capacity.to_bits());
                    // NaN != NaN, so compare bits field by field.
                    assert_eq!(x.best_effort.to_bits(), y.best_effort.to_bits());
                    assert_eq!(x.reservation.to_bits(), y.reservation.to_bits());
                }
                (
                    PointOutcome::Failed { index: i, .. },
                    PointOutcome::Failed { index: j, .. },
                ) => assert_eq!(i, j),
                (a, b) => panic!("outcome shape diverged across threads: {a:?} vs {b:?}"),
            }
        }
    }
}

/// A panic injected while sibling workers hold cache/merge locks must not
/// cascade: the engine keeps evaluating through recovered locks, and the
/// caches stay usable for a follow-up sweep under the same plan.
#[test]
fn panicked_sweep_leaves_caches_usable() {
    let cs = grid();
    let plan = FaultPlan::seeded(7).rule(FaultRule::at_key(FaultKind::Panic, "engine/point", 0));
    let _guard = install(plan);
    let eng = engine(8);
    let first = eng.sweep_checked(&cs);
    assert_eq!(first.health.failed, 1, "health: {}", first.health);
    // Re-sweep the same engine: the panic re-trips deterministically, every
    // other point is served (now from warm caches), and the counters move.
    let second = eng.sweep_checked(&cs);
    assert_eq!(second.health, first.health);
    let hits: u64 = eng.cache_stats().iter().map(|(_, s)| s.hits).sum();
    assert!(hits > 0, "second sweep hits the memo tables");
}
