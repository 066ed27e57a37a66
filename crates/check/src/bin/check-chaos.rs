//! Chaos sweep: random fault plans against random scenarios.
//!
//! Two phases, mirroring the CI job:
//!
//! 1. a **fixed-seed prefix** (`--cases N`, default 24, seeds `base..base+N`)
//!    so every run — and every CI run — revisits a stable corpus;
//! 2. a **time-boxed randomized tail** (`--seconds S`, default 20) whose
//!    clock-derived seeds explore new ground; each seed is printed on
//!    failure, and any seed reproduces its whole case.
//!
//! Every case installs a random fault plan (injected panics, NaN/Inf
//! corruption, forced solver errors, I/O faults, a simulator watchdog
//! override) and asserts the structured-degradation invariants — see
//! [`bevra_check::chaos`]. Exit status 0 means no invariant was violated.
//!
//! ```text
//! cargo run --release -p bevra-check --bin check-chaos -- \
//!     [--cases N] [--seconds S] [--seed BASE]
//! ```

use bevra_check::chaos::{run_case, run_recovery_case, silence_injected_panics, ChaosStats};
use std::time::{Duration, Instant};

fn usage() -> ! {
    eprintln!("usage: check-chaos [--cases N] [--seconds S] [--seed BASE]");
    std::process::exit(2);
}

fn main() {
    let mut cases = 24u64;
    let mut seconds = 20u64;
    let mut base: Option<u64> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--cases" => {
                cases = args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage());
            }
            "--seconds" => {
                seconds = args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage());
            }
            "--seed" => {
                base = Some(args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage()));
            }
            _ => usage(),
        }
    }
    let base = base.unwrap_or(0xC4A05);
    println!("check-chaos: fixed corpus {cases} case(s) from seed {base}, then {seconds}s randomized");
    silence_injected_panics();

    let mut stats = ChaosStats::default();
    let mut ran = 0u64;
    let fail = |seed: u64, err: String| -> ! {
        eprintln!("check-chaos: INVARIANT VIOLATED\n  {err}\n  reproduce: check-chaos --cases 1 --seconds 0 --seed {seed}");
        std::process::exit(1);
    };

    for seed in base..base + cases {
        match run_case(seed) {
            Ok(s) => stats += s,
            Err(e) => fail(seed, e),
        }
        ran += 1;
    }

    // Recovery corpus: the fleet invariants (a lane panic loses exactly
    // that lane, every other lane bitwise intact; kill/resume
    // digest-equal) over a smaller fixed prefix —
    // each case runs several whole fleets, so a quarter of the sweep
    // corpus keeps the job time comparable.
    let recovery_cases = cases.div_ceil(4).max(1);
    for seed in base..base + recovery_cases {
        match run_recovery_case(seed) {
            Ok(s) => stats += s,
            Err(e) => fail(seed, e),
        }
        ran += 1;
    }

    // Randomized tail: clock-derived seeds, printed on failure.
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let mut seed = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0x5EED)
        | 1 << 63; // disjoint from the fixed corpus
    while Instant::now() < deadline {
        match run_case(seed) {
            Ok(s) => stats += s,
            Err(e) => fail(seed, e),
        }
        ran += 1;
        seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    }

    println!(
        "check-chaos: {ran} case(s), {} point(s) ({} failed, {} degraded — all accounted), \
         {} sim event(s) bounded by watchdog, {}/{} artifact save(s) failed atomically, \
         {} cached sweep(s) bit-transparent ({} cache I/O fault(s) absorbed), \
         {} lane(s) correctly dead, {} lane(s) restored bitwise from checkpoints; \
         no invariant violated",
        stats.points, stats.failed, stats.degraded, stats.sim_events, stats.save_failures,
        stats.saves, stats.cache_sweeps, stats.cache_io_errors, stats.dead_lanes,
        stats.restored_lanes,
    );
}
