//! Sharded multi-lane simulation — the ≥10M-flow execution layer.
//!
//! A *fleet* runs `lanes` independent virtual event loops of one base
//! configuration, each lane seeded by
//! [`rand::derive_seed`]`(base.seed, lane)`, and merges their
//! reports into a single pooled [`SimReport`]. Lanes are the **semantic**
//! unit: the fleet's result is defined as "lane 0's report merged with
//! lane 1's, merged with lane 2's, …" — a fold in strict lane order.
//!
//! *Shards* are the **execution** unit: `BEVRA_SIM_SHARDS` (default: the
//! worker-thread count) groups lanes into contiguous chunks via
//! [`bevra_engine::chunk_ranges`], and each shard runs its lanes serially
//! on one pool worker. Because the chunking is contiguous and lane slots
//! are merged in index order, the result is bitwise-invariant under
//! `BEVRA_SIM_SHARDS` and `BEVRA_THREADS` (pinned by
//! `tests/determinism.rs` and `tests/sim_scale.rs`).
//!
//! # Failure isolation
//!
//! Each shard runs under the engine pool's panic isolation and passes
//! through the `panic:sim/shard` fault site keyed by shard index; each
//! lane additionally crosses `panic:sim/lane` (keyed by lane) under its
//! own `catch_unwind` inside the shard. The unit of loss is one lane: a
//! lane panic loses exactly that lane, recorded as a single-lane
//! [`ShardFailure`], and the shard's other lanes run on. A panic at the
//! shard site itself loses the shard's whole lane range, recorded as one
//! [`ShardFailure`]. Nothing is restarted: a lane is a pure function of
//! its derived seed, so a re-run would replay the same panic. Every
//! surviving lane's report is bitwise the fault-free one, and the merge
//! simply skips the dead lanes. Budget exhaustion inside a lane (the
//! `sim/budget` watchdog) and cooperative deadline expiry are *not*
//! failures: the lane's partial report merges and the lane is counted in
//! [`FleetHealth::truncated_lanes`].
//!
//! # Checkpoint/resume
//!
//! With `BEVRA_CACHE=rw` the fleet checkpoints into the engine's on-disk
//! [`Store`] (kind [`Kind::Fleet`], keyed by [`Fleet::fingerprint`]): it
//! persists completed clean lanes after every [`GROUP_SHARDS`] shards,
//! crossing the `panic:sim/fleet-ckpt` kill site between groups, and
//! restores them bitwise on the next run — a killed ≥10M-flow fleet
//! resumes instead of starting over, and the resumed merged digest is
//! identical to an uninterrupted run's. Truncated (budget- or
//! deadline-cut) lanes are never checkpointed, so a resumed run can only
//! be *more* complete than the interrupted one, and a fleet that finishes
//! with every lane ok clears its checkpoint.

use crate::census::Census;
use crate::runner::{QueueKind, SimConfig, SimError, SimReport, Simulation};
use crate::stats::Welford;
use bevra_engine::store::{hex_f64, hex_u64, Fields, Kind, Record, Store};
use bevra_engine::Deadline;
use bevra_obs::metrics;
use rand::derive_seed;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Environment variable setting how many shards (contiguous lane chunks)
/// a fleet run is split into. Purely an execution knob: any value yields
/// the identical merged report. Defaults to the engine worker count.
pub const SHARDS_ENV: &str = "BEVRA_SIM_SHARDS";

/// Shards per checkpoint group: a checkpointing fleet persists completed
/// lanes and crosses the `sim/fleet-ckpt` kill site once per this many
/// completed shards.
pub const GROUP_SHARDS: usize = 4;

/// Upper bound on an explicitly requested shard count (mirrors the
/// engine's [`MAX_THREADS`](bevra_engine::MAX_THREADS) policy).
pub const MAX_SHARDS: usize = 512;

/// Number of shards a fleet run will use: `BEVRA_SIM_SHARDS` if it parses
/// as an integer in `1..=`[`MAX_SHARDS`], else the engine worker count.
#[must_use]
pub fn shard_count() -> usize {
    bevra_num::env::env_count(SHARDS_ENV, MAX_SHARDS, bevra_engine::thread_count())
}

/// Configuration of a fleet run: one base [`SimConfig`] replicated across
/// independently-seeded lanes.
#[derive(Clone)]
pub struct FleetConfig {
    /// Per-lane simulation parameters. `base.seed` is the fleet's master
    /// seed; lane `i` runs with `derive_seed(base.seed, i)`.
    pub base: SimConfig,
    /// Number of independent virtual event loops. Fixed per config —
    /// changing it changes the result; changing shards/threads does not.
    pub lanes: u32,
}

/// Lanes lost to one failure, for the health ledger.
#[derive(Debug, Clone)]
pub struct ShardFailure {
    /// Shard index (into the run's contiguous lane chunking) the lanes
    /// belonged to.
    pub shard: u32,
    /// Lanes that produced no report: the one lane that panicked, or
    /// the shard's lanes when the shard itself panicked.
    pub lanes: std::ops::Range<u32>,
    /// The failure, rendered as text (the panic payload).
    pub error: String,
}

/// `SweepHealth`-style accounting of a fleet run.
#[derive(Debug, Clone, Default)]
pub struct FleetHealth {
    /// Lanes whose reports merged into the pooled result.
    pub ok_lanes: u32,
    /// Of the ok lanes, how many were truncated by the `sim/budget`
    /// watchdog or the cooperative deadline (their partial reports still
    /// merged).
    pub truncated_lanes: u32,
    /// Always 0: the fleet never restarts a lane. Kept only for readers
    /// outside this workspace that still sum it.
    pub restarts: u64,
    /// Lanes that produced no report.
    pub failed: Vec<ShardFailure>,
}

impl FleetHealth {
    /// True when every lane merged.
    #[must_use]
    pub fn all_ok(&self) -> bool {
        self.failed.is_empty()
    }

    /// Lanes lost to failed shards.
    #[must_use]
    pub fn failed_lanes(&self) -> u32 {
        self.failed.iter().map(|f| f.lanes.end - f.lanes.start).sum()
    }
}

/// Result of a fleet run.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// All surviving lanes' reports, folded in strict lane order.
    /// `merged.digest()` is the fleet's canonical digest — invariant
    /// under `BEVRA_SIM_SHARDS` and `BEVRA_THREADS`.
    pub merged: SimReport,
    /// Per-lane digests (`None` for lanes that stayed dead) — the
    /// accounting granularity the chaos suite checks.
    pub lane_digests: Vec<Option<u64>>,
    /// Failure and truncation accounting.
    pub health: FleetHealth,
    /// Wall-clock seconds the fleet spent executing shards.
    pub seconds: f64,
}

impl FleetReport {
    /// Events per wall-clock second across all surviving lanes — the
    /// headline throughput figure (also exported as the
    /// `sim/fleet/events_per_sec` gauge).
    #[must_use]
    pub fn events_per_sec(&self) -> f64 {
        if self.seconds > 0.0 {
            self.merged.events as f64 / self.seconds
        } else {
            0.0
        }
    }
}

/// A fleet instance. Create with [`Fleet::new`], run with [`Fleet::run`].
pub struct Fleet {
    cfg: FleetConfig,
    ckpt: Option<Store>,
}

impl Fleet {
    /// New fleet from a config, checkpointing into the ambient store
    /// (`BEVRA_CACHE`) if one is configured.
    ///
    /// # Panics
    ///
    /// Panics when `lanes == 0` or the base config is invalid (see
    /// [`Simulation::new`]).
    #[must_use]
    pub fn new(cfg: FleetConfig) -> Self {
        assert!(cfg.lanes > 0, "a fleet needs at least one lane");
        assert!(cfg.base.capacity > 0.0, "capacity must be positive");
        assert!(cfg.base.horizon > 0.0, "horizon must be positive");
        Self { cfg, ckpt: Store::from_env("bevra-sim") }
    }

    /// Replace the checkpoint store (builder style) — tests and embedders
    /// inject explicit stores without touching the environment.
    #[must_use]
    pub fn with_checkpoint(mut self, store: Store) -> Self {
        self.ckpt = Some(store);
        self
    }

    /// The active checkpoint store, if any.
    #[must_use]
    pub fn checkpoint_store(&self) -> Option<&Store> {
        self.ckpt.as_ref()
    }

    /// Content-hash key of this fleet's results: the base config's
    /// [`SimConfig::fingerprint`] folded with the lane count. Checkpoint
    /// entries are stored under this key.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let mut h = self.cfg.base.fingerprint();
        crate::stats::fnv_fold(&mut h, u64::from(self.cfg.lanes));
        h
    }

    /// The [`SimConfig`] lane `lane` runs: the base with its derived seed.
    #[must_use]
    pub fn lane_config(&self, lane: u32) -> SimConfig {
        let mut cfg = self.cfg.base.clone();
        cfg.seed = derive_seed(self.cfg.base.seed, u64::from(lane));
        cfg
    }

    /// Run the fleet at the ambient shard count ([`shard_count`]) on the
    /// timer wheel.
    #[must_use]
    pub fn run(&self) -> FleetReport {
        self.run_on(shard_count(), QueueKind::Wheel)
    }

    /// Run the fleet with an explicit shard count — the determinism suite
    /// calls this with several shard counts and asserts one digest. The
    /// [`QueueKind`] argument has a single value and is kept only so
    /// existing `run_on(shards, QueueKind::Wheel)` call sites, the
    /// end-to-end benchmark's among them, keep compiling.
    #[allow(clippy::too_many_lines)]
    #[must_use]
    pub fn run_on(&self, shards: usize, _queue: QueueKind) -> FleetReport {
        let lanes = self.cfg.lanes as usize;
        let mut sp = bevra_obs::span("sim/fleet");
        sp.add_points(lanes as u64);
        let ranges = bevra_engine::chunk_ranges(lanes, shards.max(1));
        let started = std::time::Instant::now();
        // One cooperative deadline shared by every lane: the whole fleet
        // gets a single `BEVRA_DEADLINE_MS` budget, not one per lane.
        let deadline = Deadline::from_env("bevra-sim");
        let mut health = FleetHealth::default();

        // Per-lane result slots, filled by checkpoint restore and the
        // parallel shard phase, then merged in strict lane order, which is
        // what keeps the digest invariant under any shard/thread count and
        // any restore mix.
        let mut slots: Vec<Option<(SimReport, bool)>> = (0..lanes).map(|_| None).collect();
        let key = self.fingerprint();
        let mut restored = vec![false; lanes];
        if let Some(cs) = &self.ckpt {
            for (lane, report) in cs.restore::<SimReport>(key, lanes).into_iter().enumerate() {
                if let Some(r) = report {
                    slots[lane] = Some((r, false));
                    restored[lane] = true;
                }
            }
        }

        // One simulated lane under its own panic guard, so a lane panic
        // loses only that lane. Budget/deadline truncation is
        // degradation, not failure.
        let run_lane = |lane: usize| -> Result<(SimReport, bool), String> {
            catch_unwind(AssertUnwindSafe(|| {
                bevra_faults::panic_point("sim/lane", lane as u64);
                let sim = Simulation::new(self.lane_config(lane as u32));
                match sim.run_checked_deadline(deadline) {
                    Ok(r) => (r, false),
                    Err(
                        SimError::BudgetExhausted { partial, .. }
                        | SimError::DeadlineExpired { partial, .. },
                    ) => (*partial, true),
                }
            }))
            .map_err(|payload| panic_message(payload.as_ref()))
        };

        // One pool item per shard, each running its not-yet-restored
        // lanes serially.
        let todo: Vec<(usize, std::ops::Range<usize>)> = ranges
            .iter()
            .cloned()
            .enumerate()
            .filter(|(_, r)| r.clone().any(|lane| !restored[lane]))
            .collect();
        let group = if self.ckpt.is_some() { GROUP_SHARDS } else { todo.len().max(1) };
        for (group_idx, chunk) in todo.chunks(group).enumerate() {
            let results = bevra_engine::parallel_map_isolated(
                chunk,
                bevra_engine::thread_count().min(chunk.len()),
                |(shard, range): &(usize, std::ops::Range<usize>)| {
                    bevra_faults::panic_point("sim/shard", *shard as u64);
                    let mut sh = bevra_obs::span("sim/fleet/shard");
                    sh.add_points(range.len() as u64);
                    range
                        .clone()
                        .filter(|&lane| !restored[lane])
                        .map(|lane| (lane, run_lane(lane)))
                        .collect::<Vec<_>>()
                },
            );
            for ((shard, range), result) in chunk.iter().zip(results) {
                let shard = *shard as u32;
                match result {
                    Ok(lane_results) => {
                        for (lane, got) in lane_results {
                            match got {
                                Ok(done) => slots[lane] = Some(done),
                                Err(error) => health.failed.push(ShardFailure {
                                    shard,
                                    lanes: lane as u32..lane as u32 + 1,
                                    error,
                                }),
                            }
                        }
                    }
                    // The shard died before running any lane: it loses its
                    // whole range, less any lanes restored from disk, as
                    // one entry per contiguous run of lost lanes.
                    Err(e) => {
                        for lane in range.clone().filter(|&lane| !restored[lane]) {
                            let lane = lane as u32;
                            match health.failed.last_mut() {
                                Some(f) if f.shard == shard && f.lanes.end == lane => {
                                    f.lanes.end += 1;
                                }
                                _ => health.failed.push(ShardFailure {
                                    shard,
                                    lanes: lane..lane + 1,
                                    error: e.to_string(),
                                }),
                            }
                        }
                    }
                }
            }
            if let Some(cs) = &self.ckpt {
                cs.checkpoint(key, lanes, clean_lanes(&slots));
                bevra_faults::panic_point("sim/fleet-ckpt", group_idx as u64);
            }
        }

        // Merge in strict lane order.
        let seconds = started.elapsed().as_secs_f64();
        let mut merged = SimReport::empty();
        let mut lane_digests: Vec<Option<u64>> = vec![None; lanes];
        for (lane, slot) in slots.iter().enumerate() {
            if let Some((report, truncated)) = slot {
                lane_digests[lane] = Some(report.digest());
                merge_into(&mut merged, report);
                health.ok_lanes += 1;
                health.truncated_lanes += u32::from(*truncated);
            }
        }
        if let Some(cs) = &self.ckpt {
            if health.failed.is_empty() && health.truncated_lanes == 0 {
                cs.clear(Kind::Fleet, key);
            }
        }

        metrics::counter("sim/fleet/lanes_ok").add(u64::from(health.ok_lanes));
        metrics::counter("sim/fleet/lanes_failed").add(u64::from(health.failed_lanes()));
        let report = FleetReport { merged, lane_digests, health, seconds };
        metrics::gauge("sim/fleet/events_per_sec").set(report.events_per_sec());
        report
    }
}

/// The clean (untruncated) completed lanes, ready to checkpoint.
fn clean_lanes(
    slots: &[Option<(SimReport, bool)>],
) -> impl Iterator<Item = (usize, &SimReport)> {
    slots.iter().enumerate().filter_map(|(lane, slot)| match slot {
        Some((report, false)) => Some((lane, report)),
        _ => None,
    })
}

/// Checkpoint rows: a lane's exact accumulator state — the six counters,
/// each Welford's `(n, mean, M₂)`, and the census vectors — so a restored
/// lane merges to the same bits as a re-simulated one.
impl Record for SimReport {
    const KIND: Kind = Kind::Fleet;

    fn encode(&self, line: &mut String) {
        use std::fmt::Write as _;
        let _ = write!(
            line,
            "{:x} {:x} {:x} {:x} {:x} {:x}",
            self.completed, self.lost, self.blocked_attempts, self.attempts, self.retries, self.events,
        );
        for w in [&self.utility_at_admission, &self.utility_time_avg, &self.utility_worst] {
            let (n, mean, m2) = w.state();
            let _ = write!(line, " {n:x} {:016x} {:016x}", mean.to_bits(), m2.to_bits());
        }
        let (time_at, seen_at, total_time) = self.census.state();
        let _ = write!(line, " {:x}", time_at.len());
        for t in time_at {
            let _ = write!(line, " {:016x}", t.to_bits());
        }
        let _ = write!(line, " {:x}", seen_at.len());
        for s in seen_at {
            let _ = write!(line, " {s:x}");
        }
        let _ = write!(line, " {:016x}", total_time.to_bits());
    }

    fn decode(fields: &mut Fields<'_>) -> Option<Self> {
        // Census lengths come from disk: bound them before allocating.
        const MAX_LEN: u64 = 1 << 24;
        let mut report = SimReport::empty();
        report.completed = hex_u64(fields)?;
        report.lost = hex_u64(fields)?;
        report.blocked_attempts = hex_u64(fields)?;
        report.attempts = hex_u64(fields)?;
        report.retries = hex_u64(fields)?;
        report.events = hex_u64(fields)?;
        for w in [
            &mut report.utility_at_admission,
            &mut report.utility_time_avg,
            &mut report.utility_worst,
        ] {
            *w = Welford::from_state(hex_u64(fields)?, hex_f64(fields)?, hex_f64(fields)?);
        }
        let t_len = hex_u64(fields).filter(|&n| n <= MAX_LEN)?;
        let time_at = (0..t_len).map(|_| hex_f64(fields)).collect::<Option<Vec<f64>>>()?;
        let s_len = hex_u64(fields).filter(|&n| n <= MAX_LEN)?;
        let seen_at = (0..s_len).map(|_| hex_u64(fields)).collect::<Option<Vec<u64>>>()?;
        report.census = Census::from_state(time_at, seen_at, hex_f64(fields)?);
        Some(report)
    }
}

/// Render a panic payload as text (the pool's convention).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// Fold `lane` into `acc` (strict-order merge: counters add, Welfords
/// combine via Chan's formula, censuses add element-wise).
fn merge_into(acc: &mut SimReport, lane: &SimReport) {
    acc.completed += lane.completed;
    acc.lost += lane.lost;
    acc.blocked_attempts += lane.blocked_attempts;
    acc.attempts += lane.attempts;
    acc.retries += lane.retries;
    acc.events += lane.events;
    acc.utility_at_admission.merge(&lane.utility_at_admission);
    acc.utility_time_avg.merge(&lane.utility_time_avg);
    acc.utility_worst.merge(&lane.utility_worst);
    acc.census.merge(&lane.census);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrivals::MixedPoisson;
    use crate::holding::HoldingDist;
    use crate::link::Discipline;
    use bevra_engine::CacheMode;
    use bevra_faults::{install, FaultKind, FaultPlan, FaultRule};
    use bevra_utility::AdaptiveExp;
    use std::sync::Arc;

    fn fleet_cfg(lanes: u32) -> FleetConfig {
        FleetConfig {
            base: SimConfig {
                capacity: 25.0,
                discipline: Discipline::BestEffort,
                arrivals: MixedPoisson::fixed(20.0),
                holding: HoldingDist::Exponential { mean: 1.0 },
                utility: Arc::new(AdaptiveExp::paper()),
                warmup: 20.0,
                horizon: 300.0,
                seed: 7,
                max_events: None,
            },
            lanes,
        }
    }

    /// Run `f` with no faults injected. The fault plan is process-global,
    /// so a plan-free run outside the install lock would see whichever
    /// plan a concurrently scheduled test has installed; holding the lock
    /// with an empty plan keeps the reference runs clean.
    fn fault_free<T>(f: impl FnOnce() -> T) -> T {
        let _guard = install(FaultPlan::seeded(0));
        f()
    }

    /// Suppress the default panic-hook noise for injected panics only
    /// (they are expected and caught); everything else still prints.
    fn silence_injected_panics() {
        static ONCE: std::sync::Once = std::sync::Once::new();
        ONCE.call_once(|| {
            let prev = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                let injected = info
                    .payload()
                    .downcast_ref::<String>()
                    .is_some_and(|s| s.contains("bevra-faults: injected panic"));
                if !injected {
                    prev(info);
                }
            }));
        });
    }

    #[test]
    fn digest_invariant_across_shard_counts() {
        let fleet = Fleet::new(fleet_cfg(10));
        let reference = fault_free(|| fleet.run_on(1, QueueKind::Wheel));
        assert!(reference.health.all_ok());
        assert_eq!(reference.health.ok_lanes, 10);
        for shards in [2, 3, 7, 10, 64] {
            let r = fault_free(|| fleet.run_on(shards, QueueKind::Wheel));
            assert_eq!(
                r.merged.digest(),
                reference.merged.digest(),
                "digest drifted at {shards} shards"
            );
            assert_eq!(r.lane_digests, reference.lane_digests);
        }
    }

    #[test]
    fn single_lane_merge_is_identity() {
        let fleet = Fleet::new(fleet_cfg(1));
        let (r, solo) = fault_free(|| {
            (fleet.run_on(1, QueueKind::Wheel), Simulation::new(fleet.lane_config(0)).run())
        });
        assert_eq!(r.merged.digest(), solo.digest());
        assert_eq!(r.merged.events, solo.events);
    }

    #[test]
    fn merged_counters_equal_lane_sums() {
        let fleet = Fleet::new(fleet_cfg(4));
        let r = fault_free(|| fleet.run_on(2, QueueKind::Wheel));
        let mut completed = 0;
        let mut events = 0;
        let mut utility_n = 0;
        for lane in 0..4 {
            let solo = fault_free(|| Simulation::new(fleet.lane_config(lane)).run());
            completed += solo.completed;
            events += solo.events;
            utility_n += solo.utility_time_avg.count();
        }
        assert_eq!(r.merged.completed, completed);
        assert_eq!(r.merged.events, events);
        assert_eq!(r.merged.utility_time_avg.count(), utility_n);
        assert!(r.seconds > 0.0);
        assert!(r.events_per_sec() > 0.0);
    }

    #[test]
    fn lanes_decorrelate_via_derived_seeds() {
        let fleet = Fleet::new(fleet_cfg(3));
        let r = fault_free(|| fleet.run_on(1, QueueKind::Wheel));
        let digests: Vec<_> = r.lane_digests.iter().flatten().copied().collect();
        assert_eq!(digests.len(), 3);
        assert!(digests.windows(2).all(|w| w[0] != w[1]), "lane seeds must differ");
    }

    #[test]
    fn lane_budget_truncation_is_accounted_not_fatal() {
        let mut cfg = fleet_cfg(3);
        cfg.base.max_events = Some(2_000);
        let r = fault_free(|| Fleet::new(cfg).run_on(2, QueueKind::Wheel));
        assert!(r.health.all_ok(), "budget exhaustion is not a shard failure");
        assert_eq!(r.health.ok_lanes, 3);
        assert_eq!(r.health.truncated_lanes, 3);
        assert_eq!(r.merged.events, 6_000, "each lane stops at exactly its budget");
    }

    #[test]
    fn transient_lane_panic_loses_only_that_lane() {
        silence_injected_panics();
        let fleet = Fleet::new(fleet_cfg(6));
        let reference = fault_free(|| fleet.run_on(3, QueueKind::Wheel));
        // An `n`-bounded rule is not rescued: nothing re-runs lane 2, so
        // it is lost, and lane 3 (its shard-mate) still runs.
        let plan = FaultPlan::seeded(0)
            .rule(FaultRule::at_key(FaultKind::Panic, "sim/lane", 2).with_n(1));
        let r = {
            let _guard = install(plan);
            fleet.run_on(3, QueueKind::Wheel)
        };
        assert_eq!(r.health.ok_lanes, 5);
        assert_eq!(r.health.restarts, 0, "nothing is restarted");
        assert_eq!(r.health.failed.len(), 1);
        assert_eq!((r.health.failed[0].shard, r.health.failed[0].lanes.clone()), (1, 2..3));
        for lane in [0usize, 1, 3, 4, 5] {
            assert_eq!(r.lane_digests[lane], reference.lane_digests[lane], "lane {lane}");
        }
        assert_eq!(r.lane_digests[2], None);
    }

    #[test]
    fn lane_panic_in_a_single_shard_loses_only_that_lane() {
        silence_injected_panics();
        let fleet = Fleet::new(fleet_cfg(6));
        let reference = fault_free(|| fleet.run_on(1, QueueKind::Wheel));
        // `panic:sim/lane@at=2` inside the fleet's one shard: the lanes
        // before and after it in the same shard all complete.
        let plan =
            FaultPlan::seeded(0).rule(FaultRule::at_key(FaultKind::Panic, "sim/lane", 2));
        let r = {
            let _guard = install(plan);
            fleet.run_on(1, QueueKind::Wheel)
        };
        assert_eq!(r.health.failed_lanes(), 1);
        assert_eq!(r.health.failed[0].lanes, 2..3);
        assert_eq!(r.lane_digests[2], None, "only lane 2 is absent");
        for lane in [0usize, 1, 3, 4, 5] {
            assert!(r.lane_digests[lane].is_some(), "lane {lane} is present");
            assert_eq!(r.lane_digests[lane], reference.lane_digests[lane], "lane {lane}");
        }
    }

    #[test]
    fn shard_panic_loses_exactly_that_shards_lanes() {
        silence_injected_panics();
        let fleet = Fleet::new(fleet_cfg(6));
        let reference = fault_free(|| fleet.run_on(3, QueueKind::Wheel));
        // Shard 1 covers lanes 2 and 3 under `chunk_ranges(6, 3)`; a
        // panic at the shard site loses both, recorded as one entry.
        let plan =
            FaultPlan::seeded(0).rule(FaultRule::at_key(FaultKind::Panic, "sim/shard", 1));
        let r = {
            let _guard = install(plan);
            fleet.run_on(3, QueueKind::Wheel)
        };
        assert_eq!(r.health.ok_lanes, 4);
        assert_eq!(r.health.failed.len(), 1, "one entry for the dead shard");
        assert_eq!((r.health.failed[0].shard, r.health.failed[0].lanes.clone()), (1, 2..4));
        for lane in [0usize, 1, 4, 5] {
            assert_eq!(r.lane_digests[lane], reference.lane_digests[lane], "lane {lane}");
        }
        assert_eq!(&r.lane_digests[2..4], &[None, None]);
    }

    #[test]
    fn permanent_lane_death_loses_every_lane_one_entry_each() {
        silence_injected_panics();
        let fleet = Fleet::new(fleet_cfg(8));
        let plan =
            FaultPlan::seeded(0).rule(FaultRule::always(FaultKind::Panic, "sim/lane"));
        let r = {
            let _guard = install(plan);
            fleet.run_on(2, QueueKind::Wheel)
        };
        assert_eq!(r.health.ok_lanes, 0);
        assert_eq!(r.health.failed_lanes(), 8);
        assert_eq!(r.health.failed.len(), 8, "one failure entry per dead lane");
        assert_eq!(r.merged.events, 0, "nothing merged");
    }

    #[test]
    fn single_dead_lane_leaves_other_lanes_bitwise_intact() {
        silence_injected_panics();
        let fleet = Fleet::new(fleet_cfg(6));
        let reference = fault_free(|| fleet.run_on(3, QueueKind::Wheel));
        let plan =
            FaultPlan::seeded(0).rule(FaultRule::at_key(FaultKind::Panic, "sim/lane", 4));
        let r = {
            let _guard = install(plan);
            fleet.run_on(3, QueueKind::Wheel)
        };
        assert_eq!(r.health.failed_lanes(), 1);
        assert_eq!(r.health.ok_lanes, 5);
        for lane in [0usize, 1, 2, 3, 5] {
            assert_eq!(
                r.lane_digests[lane], reference.lane_digests[lane],
                "surviving lane {lane} must be unchanged"
            );
        }
        assert_eq!(r.lane_digests[4], None);
    }

    #[test]
    fn killed_fleet_resumes_bitwise_from_checkpoint() {
        silence_injected_panics();
        let reference = fault_free(|| Fleet::new(fleet_cfg(8)).run_on(8, QueueKind::Wheel));

        // 8 shards in groups of GROUP_SHARDS = 2 groups; kill after the
        // first group's checkpoint is stored.
        let plan = FaultPlan::seeded(0)
            .rule(FaultRule::at_key(FaultKind::Panic, "sim/fleet-ckpt", 0));
        let dir = std::env::temp_dir().join(format!("bevra-fleet-run-kill-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Store::new(&dir, CacheMode::ReadWrite);
        let interrupted = {
            let _guard = install(plan);
            let fleet = Fleet::new(fleet_cfg(8)).with_checkpoint(store);
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                fleet.run_on(8, QueueKind::Wheel)
            }))
        };
        assert!(interrupted.is_err(), "the kill site must abort the run");

        // Resume with a fresh store over the same directory: the first
        // group's lanes restore from disk, the rest are simulated.
        let resume_store = Store::new(dir, CacheMode::ReadWrite);
        let fleet = Fleet::new(fleet_cfg(8)).with_checkpoint(resume_store);
        let resumed = fault_free(|| fleet.run_on(8, QueueKind::Wheel));
        let cs = fleet.checkpoint_store().expect("store attached");
        assert!(cs.stats(Kind::Fleet).restored > 0, "resume must restore checkpointed lanes");
        assert!(resumed.health.all_ok());
        assert_eq!(
            resumed.merged.digest(),
            reference.merged.digest(),
            "resumed fleet must be bitwise-identical to an uninterrupted run"
        );
        assert_eq!(resumed.lane_digests, reference.lane_digests);
        assert!(
            cs.restore::<SimReport>(fleet.fingerprint(), 8).iter().all(Option::is_none),
            "a fully clean fleet clears its checkpoint"
        );
    }
}
