//! Measure what checkpointing costs when nothing goes wrong — and what
//! a lost lane and a resume cost when something does.
//!
//! Runs the committed-pin ~1M-flow fleet (the `tests/determinism.rs`
//! configuration) four ways and reports wall time:
//!
//! 1. **baseline** — no checkpointing, no faults;
//! 2. **checkpointed** — a checkpoint `Store` attached (store cost on
//!    the fault-free path);
//! 3. **isolated lane** — one injected lane panic, which loses exactly
//!    that lane while the other three keep their fault-free digests
//!    (isolation cost);
//! 4. **resume** — a run killed at the checkpoint barrier, then resumed
//!    from disk (restore cost vs. recompute).
//!
//! ```text
//! cargo run --release --example recovery_overhead
//! ```
//!
//! Variants 2 and 4 must land on the baseline's merged digest, and
//! variant 3 on the baseline's digest for every surviving lane — the
//! example asserts it, so the timings can't quietly compare different
//! work.

use bevra::prelude::*;
use bevra::sim::{Fleet, FleetConfig, FleetReport, QueueKind};
use bevra_engine::{CacheMode, Store};
use bevra_faults::{install, FaultKind, FaultPlan, FaultRule};
use std::sync::Arc;
use std::time::Instant;

fn fleet_config() -> FleetConfig {
    FleetConfig {
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
    }
}

fn timed(label: &str, run: impl FnOnce() -> FleetReport) -> (f64, FleetReport) {
    let start = Instant::now();
    let report = run();
    let secs = start.elapsed().as_secs_f64();
    println!(
        "{label:<28} {secs:>7.3} s   {:>9.0} events/s   digest {:016x}",
        report.merged.events as f64 / secs,
        report.merged.digest()
    );
    (secs, report)
}

fn main() {
    bevra_check::chaos::silence_injected_panics();
    let dir = std::env::temp_dir().join(format!("bevra-recovery-ovh-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    println!("~1M-flow fleet (4 lanes, 4 shards, wheel queue), release build:\n");

    let (base_s, baseline) =
        timed("baseline", || Fleet::new(fleet_config()).run_on(4, QueueKind::Wheel));

    let (ckpt_s, ckpt) = timed("checkpointed (fault-free)", || {
        Fleet::new(fleet_config())
            .with_checkpoint(Store::new(&dir, CacheMode::ReadWrite))
            .run_on(4, QueueKind::Wheel)
    });

    let (isolated_s, isolated) = timed("one lane panic (isolated)", || {
        let _guard = install(
            FaultPlan::seeded(0).rule(FaultRule::at_key(FaultKind::Panic, "sim/lane", 2)),
        );
        Fleet::new(fleet_config()).run_on(4, QueueKind::Wheel)
    });
    assert_eq!(isolated.health.failed_lanes(), 1, "exactly the injected lane is lost");
    for (lane, (got, want)) in isolated.lane_digests.iter().zip(&baseline.lane_digests).enumerate()
    {
        if lane == 2 {
            assert_eq!(*got, None, "the panicked lane produced a report");
        } else {
            assert_eq!(got, want, "surviving lane {lane} drifted from the baseline");
        }
    }

    // Kill at the checkpoint barrier (all four lanes already stored),
    // then time only the resumed run.
    {
        let _guard = install(
            FaultPlan::seeded(0).rule(FaultRule::at_key(FaultKind::Panic, "sim/fleet-ckpt", 0)),
        );
        let killed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            Fleet::new(fleet_config())
                .with_checkpoint(Store::new(&dir, CacheMode::ReadWrite))
                .run_on(4, QueueKind::Wheel)
        }));
        assert!(killed.is_err(), "the fleet-ckpt kill site must fire");
    }
    let (resume_s, resumed) = timed("resume from checkpoint", || {
        Fleet::new(fleet_config())
            .with_checkpoint(Store::new(&dir, CacheMode::ReadWrite))
            .run_on(4, QueueKind::Wheel)
    });

    for (label, r) in [("checkpointed", &ckpt), ("resumed", &resumed)] {
        assert_eq!(
            r.merged.digest(),
            baseline.merged.digest(),
            "{label} run drifted from the baseline digest"
        );
    }
    println!(
        "\ncheckpoint overhead {:+.1}%   one-lane-lost run {:+.1}%   resume {:.1}x faster than recompute",
        (ckpt_s / base_s - 1.0) * 100.0,
        (isolated_s / base_s - 1.0) * 100.0,
        base_s / resume_s,
    );
    let _ = std::fs::remove_dir_all(&dir);
}
