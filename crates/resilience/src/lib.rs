//! Failure handling for the workspace: deterministic retries, cooperative
//! deadlines, circuit breakers, and supervised work units.
//!
//! The rest of the workspace *injects* adversity (`bevra-faults`) and
//! *accounts* for it (`SweepHealth`, `FleetHealth`); this crate is the layer
//! that *recovers*. Its four primitives share one design rule — *nothing
//! here may perturb a deterministic result*:
//!
//! * [`RetryPolicy`] — exponential backoff whose jitter is drawn from
//!   [`rand::derive_seed`], so a retry schedule is a pure function of the
//!   policy (deterministic per seed, monotone nondecreasing, bounded by a
//!   total budget). Waiting goes through the [`Clock`] abstraction from
//!   `bevra-faults`: real sleeps in production ([`WallClock`]), accounted
//!   virtual time under an active fault plan ([`VirtualClock`]).
//! * [`Deadline`] — a cooperative wall-clock budget token checked at coarse
//!   granularity (sweep points, simulator event batches). An expired
//!   deadline degrades a run to partial-with-health; it never kills work
//!   mid-item, so partial results stay bit-exact prefixes.
//! * [`CircuitBreaker`] — a per-site closed/open/half-open state machine
//!   with a *call-counted* (not wall-clock) probe cadence, so breaker
//!   behavior replays identically run to run.
//! * [`Supervisor`] — restarts failed work units under a [`RetryPolicy`],
//!   consulting a [`CircuitBreaker`] so persistent failure fails fast
//!   instead of burning the retry budget on every unit.
//!
//! Environment knobs, all following the workspace's warn-once-and-ignore
//! contract for malformed values
//! ([`bevra_num::env::warn_malformed_env`]):
//!
//! | variable | effect |
//! |---|---|
//! | `BEVRA_RETRY` | override a retry policy: `attempts=4,base=1,max=50,budget=200,seed=7` |
//! | `BEVRA_DEADLINE_MS` | cooperative deadline for sweeps and simulations |
//! | `BEVRA_CACHE` | on-disk store mode (`rw`/`ro`): value-table cache plus checkpoint/resume, read by `bevra-engine`/`bevra-sim` |

#![deny(missing_docs)]

pub mod breaker;
pub mod deadline;
pub mod retry;
pub mod supervisor;

pub use breaker::{BreakerState, CircuitBreaker};
pub use deadline::{Deadline, DEADLINE_ENV};
pub use retry::{RetryOutcome, RetryPolicy, RETRY_ENV};
pub use supervisor::{Supervisor, SupervisorStats};

// Re-export the clock abstraction this crate's waiting is built on, so
// callers need not also depend on bevra-faults directly.
pub use bevra_faults::io::{Clock, VirtualClock, WallClock};

/// The clock a resilience caller should wait on right now: the
/// deterministic [`VirtualClock`] whenever a fault plan is active (chaos
/// runs must not sleep), the real [`WallClock`] otherwise.
#[must_use]
pub fn ambient_clock() -> Box<dyn Clock> {
    if bevra_faults::active() {
        Box::new(VirtualClock::default())
    } else {
        Box::new(WallClock::default())
    }
}
