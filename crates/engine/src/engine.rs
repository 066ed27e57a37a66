//! The [`SweepEngine`]: memoized, data-parallel evaluation of the paper's
//! capacity and price sweeps.

use crate::cache::{f64_key, CacheStats, ShardedCache};
use crate::instrument::{span, SweepHealth};
use crate::ledger::fnv1a;
use crate::deadline::Deadline;
use crate::pool::{parallel_map_isolated, parallel_map_with, thread_count, ItemError};
use crate::store::{hex_f64, Fields, Kind, Record, Store};
use bevra_core::kernel::{KernelCapability, ParityClass};
use bevra_core::welfare::SampledValue;
use bevra_core::{equalizing_price_ratio, sweep_grid_fused, DiscreteModel, PiEval};
use bevra_faults::FaultKind;
use bevra_num::{brent, expand_bracket_up, NumError, NumResult};
use bevra_obs::{enabled, metrics, ObsLevel};
use bevra_utility::Utility;
use std::fmt::Write as _;
use std::time::Instant;

/// Time one grid-point evaluation into `hist` when per-point timing is on
/// (`BEVRA_OBS=summary|trace`); otherwise just evaluate. Timing is
/// observation only — the evaluated value is returned untouched, so
/// parallel/serial output stays bitwise-identical with instrumentation
/// enabled.
#[inline]
fn timed_point<T>(
    timing: bool,
    hist: &metrics::Histogram,
    eval: impl FnOnce() -> T,
) -> T {
    if timing {
        let t0 = Instant::now();
        let out = eval();
        hist.record(t0.elapsed().as_nanos() as u64);
        out
    } else {
        eval()
    }
}

/// Execution strategy of an engine's sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Evaluate every point on the calling thread, in grid order.
    Serial,
    /// Fan points out across scoped worker threads. Output is
    /// bitwise-identical to [`ExecMode::Serial`] — see the crate docs.
    Parallel {
        /// Worker-thread count (clamped to at least 1).
        threads: usize,
    },
}

impl ExecMode {
    fn threads(self) -> usize {
        match self {
            ExecMode::Serial => 1,
            ExecMode::Parallel { threads } => threads.max(1),
        }
    }
}

/// Which architecture's total-utility curve a welfare table samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Architecture {
    /// Best-effort: everyone admitted, `V_B(C) = k̄·B(C)`.
    BestEffort,
    /// Reservations: admission capped at `k_max(C)`, `V_R(C) = k̄·R(C)`.
    Reservation,
}

/// One evaluated capacity point of a sweep: the paper's four headline
/// quantities at capacity `C`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    /// Capacity `C`.
    pub capacity: f64,
    /// Normalized best-effort utility `B(C)`.
    pub best_effort: f64,
    /// Normalized reservation utility `R(C)`.
    pub reservation: f64,
    /// Performance gap `δ(C) = max(R − B, 0)`.
    pub performance_gap: f64,
    /// Bandwidth gap `Δ(C)` solving `B(C + Δ) = R(C)`; NaN if the solver
    /// could not bracket a root (pathologically truncated tables only).
    pub bandwidth_gap: f64,
}

/// Checkpoint rows: `C`, `B`, `R`, `δ`, `Δ` as bit patterns.
impl Record for SweepPoint {
    const KIND: Kind = Kind::Sweep;

    fn encode(&self, line: &mut String) {
        let _ = write!(
            line,
            "{:016x} {:016x} {:016x} {:016x} {:016x}",
            self.capacity.to_bits(),
            self.best_effort.to_bits(),
            self.reservation.to_bits(),
            self.performance_gap.to_bits(),
            self.bandwidth_gap.to_bits(),
        );
    }

    fn decode(fields: &mut Fields<'_>) -> Option<Self> {
        Some(Self {
            capacity: hex_f64(fields)?,
            best_effort: hex_f64(fields)?,
            reservation: hex_f64(fields)?,
            performance_gap: hex_f64(fields)?,
            bandwidth_gap: hex_f64(fields)?,
        })
    }
}

/// One primed value-table row: `k_max`, `B` and `R` at a capacity — what
/// the store's [`Kind::Grid`] entries hold, one row per grid point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridRow {
    /// Capacity `C`.
    pub capacity: f64,
    /// Admission threshold `k_max(C)`.
    pub k_max: Option<u64>,
    /// Normalized best-effort utility `B(C)`.
    pub best_effort: f64,
    /// Normalized reservation utility `R(C)`.
    pub reservation: f64,
}

/// Value-table rows: `C`, `k_max` (decimal, `-` for none), `B`, `R`.
impl Record for GridRow {
    const KIND: Kind = Kind::Grid;

    fn encode(&self, line: &mut String) {
        let km = self.k_max.map_or_else(|| "-".to_string(), |k| k.to_string());
        let _ = write!(
            line,
            "{:016x} {km} {:016x} {:016x}",
            self.capacity.to_bits(),
            self.best_effort.to_bits(),
            self.reservation.to_bits(),
        );
    }

    fn decode(fields: &mut Fields<'_>) -> Option<Self> {
        Some(Self {
            capacity: hex_f64(fields)?,
            k_max: match fields.next()? {
                "-" => None,
                k => Some(k.parse().ok()?),
            },
            best_effort: hex_f64(fields)?,
            reservation: hex_f64(fields)?,
        })
    }
}

/// Fixed probe bandwidths hashed into the utility fingerprint. Chosen to
/// straddle every regime the families distinguish (near-zero curvature,
/// thresholds around 1, saturation): two utilities that agree in name and
/// on all probes to the bit are treated as identical.
const PROBES: [f64; 16] = [
    0.0, 1e-9, 1e-6, 1e-3, 0.01, 0.1, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 5.0, 13.0, 144.0,
];

/// Content-hash key for one (model, kernel capability, grid) combination:
/// the store key of its value-table rows and of its sweep checkpoint.
///
/// Hashes the load digest, mean load, utility fingerprint (name, probed
/// values, knots), admission-cap override, the result-affecting slice of
/// the backend's [`KernelCapability`], and every grid capacity's bit
/// pattern.
///
/// Of the capability record only the fields that can change result *bits*
/// enter the key: the `cache_tag`, the parity class (including a
/// tolerance's bit pattern), and the `portable` flag. The name and SIMD
/// level are deliberately excluded — SIMD tiers produce identical bits —
/// and the per-backend keys are pinned (`tests/kernel_registry.rs`), so
/// existing cache entries stay valid across capability edits.
#[must_use]
pub fn grid_key<U: Utility>(
    model: &DiscreteModel<U>,
    capability: &KernelCapability,
    capacities: &[f64],
) -> u64 {
    let le = |v: u64| v.to_le_bytes();
    let u = model.utility();
    let mut bytes: Vec<u8> = Kind::Grid.tag().bytes().collect();
    bytes.extend(le(model.load().digest()));
    bytes.extend(le(model.mean_load().to_bits()));
    bytes.extend(u.name().bytes());
    for v in PROBES.iter().map(|&b| u.value(b)).chain(u.knots()) {
        bytes.extend(le(v.to_bits()));
    }
    match model.admission_cap() {
        Some(cap) => {
            bytes.extend(le(1));
            bytes.extend(le(cap));
        }
        None => bytes.extend(le(0)),
    }
    bytes.push(capability.cache_tag);
    match capability.parity {
        ParityClass::Bitwise => bytes.extend(le(0)),
        ParityClass::Tolerance(t) => {
            bytes.extend(le(1));
            bytes.extend(le(t.to_bits()));
        }
    }
    bytes.push(u8::from(capability.portable));
    bytes.extend(le(capacities.len() as u64));
    for &c in capacities {
        bytes.extend(le(c.to_bits()));
    }
    fnv1a(&bytes)
}

/// True when the active fault plan can corrupt computed values — the
/// value-table cache must then neither serve nor record anything.
fn plan_corrupts_values() -> bool {
    bevra_faults::current_plan().is_some_and(|plan| {
        plan.rules
            .iter()
            .any(|r| matches!(r.kind, FaultKind::Nan | FaultKind::Inf | FaultKind::NumErr))
    })
}

/// Grid points per checkpoint batch: [`SweepEngine::sweep_checked`]
/// persists completed points and crosses the `engine/ckpt-batch` kill
/// site once per this many points.
pub const BATCH_POINTS: usize = 32;

/// What one attempt at a grid point produced, before outcome mapping.
enum PointEval {
    /// The point evaluated; the optional string is a gap-solver cause.
    Done(SweepPoint, Option<String>),
    /// The ambient deadline expired before this point was evaluated.
    DeadlineSkipped,
}

/// The clean points of a checked sweep's slots — evaluated fully finite
/// with no solver degradation — which are all a checkpoint records:
/// degraded points are re-evaluated (to the same bits and causes) on
/// resume, so restoring never changes a health ledger.
fn clean_points(
    slots: &[Option<Result<PointEval, ItemError>>],
) -> impl Iterator<Item = (usize, &SweepPoint)> {
    slots.iter().enumerate().filter_map(|(i, slot)| match slot {
        Some(Ok(PointEval::Done(pt, None)))
            if [pt.best_effort, pt.reservation, pt.performance_gap, pt.bandwidth_gap]
                .iter()
                .all(|v| v.is_finite()) =>
        {
            Some((i, pt))
        }
        _ => None,
    })
}

/// What one grid point of a checked sweep produced.
#[derive(Debug, Clone, PartialEq)]
pub enum PointOutcome {
    /// The point evaluated (possibly with non-finite fields, which the
    /// sweep's [`SweepHealth`] counts as degraded).
    Ok(SweepPoint),
    /// The point produced no value: its worker panicked on every attempt
    /// the retry policy permitted, its result slot was lost, or the
    /// ambient deadline expired before it could be evaluated.
    Failed {
        /// The capacity that failed.
        capacity: f64,
        /// The grid index that failed.
        index: usize,
        /// Human-readable failure cause (panic message or slot loss).
        cause: String,
    },
}

impl PointOutcome {
    /// The evaluated point, if the outcome is [`PointOutcome::Ok`].
    #[must_use]
    pub fn point(&self) -> Option<&SweepPoint> {
        match self {
            PointOutcome::Ok(p) => Some(p),
            PointOutcome::Failed { .. } => None,
        }
    }
}

/// Result of [`SweepEngine::sweep_checked`]: one outcome per input
/// capacity (in grid order) plus the degradation ledger derived from
/// them.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckedSweep {
    /// One outcome per grid capacity, in input order.
    pub outcomes: Vec<PointOutcome>,
    /// Ok/degraded/failed/non-finite accounting over `outcomes`.
    pub health: SweepHealth,
}

impl CheckedSweep {
    /// The evaluated points, skipping failed ones.
    #[must_use]
    pub fn points(&self) -> Vec<SweepPoint> {
        self.outcomes.iter().filter_map(|o| o.point().copied()).collect()
    }

    /// The evaluated points, panicking on the first failed one — the
    /// legacy all-or-nothing contract of [`SweepEngine::sweep`].
    #[must_use]
    pub fn expect_points(&self) -> Vec<SweepPoint> {
        self.outcomes
            .iter()
            .map(|o| match o {
                PointOutcome::Ok(p) => *p,
                PointOutcome::Failed { capacity, index, cause } => {
                    panic!("sweep point {index} (C = {capacity}) failed: {cause}")
                }
            })
            .collect()
    }
}

/// Memoized, parallel evaluator of `B(C)`, `R(C)`, `δ(C)`, `Δ(C)` and the
/// welfare tables for one (load, utility) pair.
///
/// The engine wraps a [`DiscreteModel`] and adds:
///
/// * **memoization** — sharded thread-safe caches for the `k_max(C)`
///   table, `B(C)`, and `R(C)`, keyed by the capacity's bit pattern. The
///   bandwidth-gap root-finder and the welfare tables re-probe the same
///   capacities many times; with the caches every distinct capacity is
///   summed over the load table exactly once per engine;
/// * **data parallelism** — [`Self::sweep`], [`Self::value_table`] and
///   [`Self::gamma_sweep`] fan their grids out over scoped threads
///   ([`crate::pool`]), with output **bitwise-identical** to serial
///   because every per-point computation is a pure function evaluated by
///   the same scalar code path;
/// * **instrumentation** — every sweep stage opens a
///   [`crate::instrument::span()`], and [`Self::cache_stats`] exposes
///   hit/miss counters for the emitted perf reports.
pub struct SweepEngine<U: Utility> {
    model: DiscreteModel<U>,
    mode: ExecMode,
    kernel: PiEval,
    store: Option<Store>,
    kmax: ShardedCache<Option<u64>>,
    b: ShardedCache<f64>,
    r: ShardedCache<f64>,
}

impl<U: Utility> SweepEngine<U> {
    /// Engine in the default parallel mode ([`thread_count`] workers —
    /// the `BEVRA_THREADS` environment variable or all cores).
    #[must_use]
    pub fn new(model: DiscreteModel<U>) -> Self {
        Self::with_mode(model, ExecMode::Parallel { threads: thread_count() })
    }

    /// Engine that evaluates everything on the calling thread — the
    /// reference path the parallel mode is verified against.
    #[must_use]
    pub fn serial(model: DiscreteModel<U>) -> Self {
        Self::with_mode(model, ExecMode::Serial)
    }

    /// Engine with an explicit execution mode. The kernel backend comes
    /// from `BEVRA_KERNEL` ([`crate::registry::from_env`]) and the on-disk
    /// store — value-table cache plus crash-safe sweep checkpoints — from
    /// `BEVRA_CACHE` ([`Store::from_env`]); both can be overridden with
    /// the builder methods.
    #[must_use]
    pub fn with_mode(model: DiscreteModel<U>, mode: ExecMode) -> Self {
        Self {
            model,
            mode,
            kernel: crate::registry::from_env(),
            store: Store::from_env("bevra-engine"),
            kmax: ShardedCache::new(),
            b: ShardedCache::new(),
            r: ShardedCache::new(),
        }
    }

    /// Replace the kernel backend (builder style), e.g. `PiEval::Portable`.
    #[must_use]
    pub fn with_kernel(mut self, kernel: PiEval) -> Self {
        self.kernel = kernel;
        self
    }

    /// Attach an explicit on-disk store (builder style), replacing
    /// whatever `BEVRA_CACHE` configured. It caches primed value tables
    /// and checkpoints [`Self::sweep_checked`].
    #[must_use]
    pub fn with_store(mut self, store: Store) -> Self {
        self.store = Some(store);
        self
    }

    /// The attached store, if any (for inspecting its counters after a
    /// sweep).
    pub fn store(&self) -> Option<&Store> {
        self.store.as_ref()
    }

    /// The wrapped model.
    pub fn model(&self) -> &DiscreteModel<U> {
        &self.model
    }

    /// The execution mode.
    pub fn mode(&self) -> ExecMode {
        self.mode
    }

    /// The active kernel backend.
    pub fn kernel(&self) -> PiEval {
        self.kernel
    }

    /// Prime the memo tables for a capacity grid with the active kernel
    /// backend.
    ///
    /// Non-finite and nonpositive capacities are left to the scalar path;
    /// the rest are sorted, deduplicated, filtered to what is not already
    /// memoized, then either loaded from the store's value-table cache
    /// (keyed by [`grid_key`], so cached rows never cross parity classes)
    /// or computed by the fused grid traversal — in
    /// parallel contiguous chunks under [`ExecMode::Parallel`] — and
    /// inserted. Bitwise-class backends mirror the scalar path exactly;
    /// tolerance-class backends are deterministic within their documented
    /// budget. Either way, results are identical under any thread count
    /// or chunking.
    ///
    /// A panic inside the batched compute is caught and counted
    /// (`engine/prime/panic`): the sweep then falls back to the per-point
    /// scalar path, preserving the engine's degradation contract.
    pub fn prime(&self, capacities: &[f64]) {
        let cap = self.kernel.capability();
        let mut cs: Vec<f64> =
            capacities.iter().copied().filter(|c| c.is_finite() && *c > 0.0).collect();
        cs.sort_unstable_by(f64::total_cmp);
        cs.dedup_by(|a, b| a.to_bits() == b.to_bits());
        cs.retain(|&c| {
            let k = f64_key(c);
            self.kmax.peek(k).is_none()
                || self.b.peek(k).is_none()
                || self.r.peek(k).is_none()
        });
        if cs.is_empty() {
            return;
        }

        metrics::counter(&format!("engine/kernel/{}/primes", cap.name)).inc();
        // Under a value-corrupting fault plan the cache is bypassed
        // entirely: injected corruption must stay inside one run and never
        // leak into — or out of — a cross-run store.
        let cached = self
            .store
            .as_ref()
            .filter(|_| !plan_corrupts_values())
            .map(|store| (store, grid_key(&self.model, &cap, &cs)));
        if let Some((store, key)) = cached {
            let fits = |i: usize, row: &GridRow| row.capacity.to_bits() == cs[i].to_bits();
            if let Some(rows) = store.load(key, cs.len(), fits) {
                self.insert_rows(&rows);
                return;
            }
        }
        if let Some(rows) = self.compute_rows(&cs) {
            self.insert_rows(&rows);
            if let Some((store, key)) = cached {
                store.store(key, &rows);
            }
        }
    }

    /// Batched evaluation of `(k_max, B, R)` rows for a sorted deduped
    /// grid through the active backend; `None` if the kernel panicked
    /// (fall back to scalar).
    fn compute_rows(&self, cs: &[f64]) -> Option<Vec<GridRow>> {
        let kernel = self.kernel;
        let threads = self.mode.threads();
        let computed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let chunk_len = cs.len().div_ceil(threads).max(1);
            let chunks: Vec<&[f64]> = cs.chunks(chunk_len).collect();
            let parts = parallel_map_with(&chunks, threads, |chunk| {
                // The carried argmax bracket restarts per chunk; the search
                // returns the smallest maximizer regardless of the carry,
                // so chunking never changes bits.
                let sweep = sweep_grid_fused(&self.model, chunk, kernel);
                chunk
                    .iter()
                    .zip(sweep.k_max)
                    .zip(sweep.best_effort)
                    .zip(sweep.reservation)
                    .map(|(((&capacity, k_max), best_effort), reservation)| GridRow {
                        capacity,
                        k_max,
                        best_effort,
                        reservation,
                    })
                    .collect::<Vec<GridRow>>()
            });
            parts.into_iter().flatten().collect::<Vec<GridRow>>()
        }));
        match computed {
            Ok(rows) => Some(rows),
            Err(_) => {
                metrics::counter("engine/prime/panic").inc();
                None
            }
        }
    }

    fn insert_rows(&self, rows: &[GridRow]) {
        for row in rows {
            let k = f64_key(row.capacity);
            self.kmax.insert(k, row.k_max);
            self.b.insert(k, row.best_effort);
            self.r.insert(k, row.reservation);
        }
    }

    /// Memoized admission threshold `k_max(C)`.
    pub fn k_max(&self, capacity: f64) -> Option<u64> {
        self.kmax.get_or_insert_with(f64_key(capacity), || self.model.k_max(capacity))
    }

    /// Memoized normalized best-effort utility `B(C)`.
    pub fn best_effort(&self, capacity: f64) -> f64 {
        self.b.get_or_insert_with(f64_key(capacity), || self.model.best_effort(capacity))
    }

    /// Memoized normalized reservation utility `R(C)`, reusing the
    /// memoized `k_max` table.
    pub fn reservation(&self, capacity: f64) -> f64 {
        self.r.get_or_insert_with(f64_key(capacity), || {
            self.model.reservation_with_kmax(capacity, self.k_max(capacity))
        })
    }

    /// Performance gap `δ(C) = max(R(C) − B(C), 0)` from the caches.
    pub fn performance_gap(&self, capacity: f64) -> f64 {
        (self.reservation(capacity) - self.best_effort(capacity)).max(0.0)
    }

    /// Bandwidth gap `Δ(C)` solving `B(C + Δ) = R(C)`.
    ///
    /// Same algorithm as [`bevra_core::bandwidth_gap`] (upward bracket
    /// expansion + Brent, zero for sub-ULP gaps), but every `B` probe goes
    /// through the memo table, so bracketing probes shared between grid
    /// points are paid for once.
    ///
    /// # Errors
    ///
    /// Propagates bracketing/root-finding failures, exactly as the serial
    /// implementation does.
    pub fn bandwidth_gap(&self, capacity: f64) -> NumResult<f64> {
        let target = self.reservation(capacity);
        let here = self.best_effort(capacity);
        if target <= here + 1e-12 {
            return Ok(0.0);
        }
        let kbar = self.model.mean_load();
        let max_extra = 1e6 * kbar;
        let f = |delta: f64| self.best_effort(capacity + delta) - target;
        let bracket = expand_bracket_up(f, 0.0, 0.01 * kbar.max(1.0), max_extra)?;
        if bracket.lo == bracket.hi {
            return Ok(bracket.lo);
        }
        let delta = brent(f, bracket.lo, bracket.hi, 1e-9 * kbar.max(1.0))?;
        if delta.is_finite() && delta >= 0.0 {
            Ok(delta)
        } else {
            Err(NumError::InvalidInput { what: "bandwidth gap solver produced a negative gap" })
        }
    }

    /// Evaluate all four headline quantities over a capacity grid,
    /// parallel per [`Self::mode`]. Failed gap solves surface as NaN.
    ///
    /// Legacy all-or-nothing wrapper over [`Self::sweep_checked`]: a
    /// point whose evaluation panics (see
    /// [`crate::pool::parallel_map_isolated`]) panics here too, after
    /// every other point has been evaluated. Use
    /// `sweep_checked` to get structured per-point outcomes instead.
    pub fn sweep(&self, capacities: &[f64]) -> Vec<SweepPoint> {
        self.sweep_checked(capacities).expect_points()
    }

    /// [`Self::sweep`] with per-point panic isolation and structured
    /// degradation: every grid point gets a [`PointOutcome`] (in input
    /// order), and the returned [`SweepHealth`] counts clean, degraded
    /// (non-finite or failed gap solve) and failed (panicked) points —
    /// one bad point no longer aborts the sweep.
    ///
    /// Failure handling:
    ///
    /// * **isolation** — a panicking point fails once and degrades to
    ///   [`PointOutcome::Failed`]; it is not retried, since the same pure
    ///   evaluation would panic again.
    /// * **deadline** — the ambient `BEVRA_DEADLINE_MS` deadline is
    ///   checked at sweep-point granularity; points skipped after expiry
    ///   degrade to [`PointOutcome::Failed`] with a deadline cause.
    /// * **checkpointing** — with a [`Store`] attached
    ///   (`BEVRA_CACHE=rw`), completed clean points are persisted
    ///   every [`BATCH_POINTS`] grid points and restored bitwise on the
    ///   next run over the same key, so a killed sweep resumes instead of
    ///   recomputing; a fully clean sweep clears its checkpoint. The
    ///   `engine/ckpt-batch` fault site between batches is the chaos
    ///   suite's kill point.
    ///
    /// With no fault plan active and a panic-free evaluation, the `Ok`
    /// points are bitwise-identical to the legacy [`Self::sweep`] under
    /// any thread count, and `health` is all-ok; the ledger itself is
    /// derived serially from the input-ordered outcomes, so it is
    /// deterministic too.
    pub fn sweep_checked(&self, capacities: &[f64]) -> CheckedSweep {
        let mut sp = span("sweep/points");
        sp.add_points(capacities.len() as u64);
        self.prime(capacities);
        let timing = enabled(ObsLevel::Summary);
        let lat = metrics::histogram("engine/sweep_point_ns");
        let deadline = Deadline::from_env("bevra-engine");
        let threads = self.mode.threads();
        let indexed: Vec<(usize, f64)> = capacities.iter().copied().enumerate().collect();
        let n = indexed.len();
        let eval = |&(i, c): &(usize, f64)| -> PointEval {
            if deadline.expired() {
                return PointEval::DeadlineSkipped;
            }
            bevra_faults::panic_point("engine/point", i as u64);
            timed_point(timing, &lat, || {
                let best_effort = self.best_effort(c);
                let reservation = self.reservation(c);
                let performance_gap = self.performance_gap(c);
                let (bandwidth_gap, gap_cause) = match self.bandwidth_gap(c) {
                    Ok(g) => (g, None),
                    Err(e) => (f64::NAN, Some(format!("bandwidth gap at C = {c}: {e}"))),
                };
                PointEval::Done(
                    SweepPoint {
                        capacity: c,
                        best_effort,
                        reservation,
                        performance_gap,
                        bandwidth_gap,
                    },
                    gap_cause,
                )
            })
        };

        let mut slots: Vec<Option<Result<PointEval, ItemError>>> = (0..n).map(|_| None).collect();
        let ckpt = self.store.as_ref().map(|store| {
            (store, grid_key(&self.model, &self.kernel.capability(), capacities))
        });
        if let Some((store, key)) = ckpt {
            for (slot, pt) in slots.iter_mut().zip(store.restore::<SweepPoint>(key, n)) {
                *slot = pt.map(|pt| Ok(PointEval::Done(pt, None)));
            }
        }
        let batch_len = if ckpt.is_some() { BATCH_POINTS } else { n.max(1) };
        for (batch_idx, batch) in indexed.chunks(batch_len).enumerate() {
            let todo: Vec<(usize, f64)> =
                batch.iter().filter(|(i, _)| slots[*i].is_none()).copied().collect();
            if !todo.is_empty() {
                let results = parallel_map_isolated(&todo, threads, eval);
                for ((i, _), r) in todo.iter().zip(results) {
                    slots[*i] = Some(r);
                }
                if let Some((store, key)) = ckpt {
                    store.checkpoint(key, n, clean_points(&slots));
                }
            }
            if ckpt.is_some() {
                // Kill site: a `panic:engine/ckpt-batch` rule crashes the
                // sweep *between* batches — everything evaluated so far is
                // already on disk, so the next run resumes from here.
                bevra_faults::panic_point("engine/ckpt-batch", batch_idx as u64);
            }
        }
        if let Some((store, key)) = ckpt {
            if clean_points(&slots).count() == n {
                store.clear(Kind::Sweep, key);
            }
        }

        let mut health = SweepHealth::new();
        let cap = self.kernel.capability();
        health.kernel = Some(cap.name.to_string());
        health.simd = Some(cap.simd.as_str().to_string());
        let outcomes = slots
            .into_iter()
            .zip(&indexed)
            .map(|(r, &(index, capacity))| match r {
                None => unreachable!("every point is evaluated or restored"),
                Some(Ok(PointEval::Done(pt, gap_cause))) => {
                    let mut non_finite_fields = 0u64;
                    for v in
                        [pt.best_effort, pt.reservation, pt.performance_gap, pt.bandwidth_gap]
                    {
                        if health.tally_non_finite(v) {
                            non_finite_fields += 1;
                        }
                    }
                    if let Some(cause) = gap_cause {
                        health.note_degraded(&cause);
                    } else if non_finite_fields > 0 {
                        health.note_degraded(&format!(
                            "{non_finite_fields} non-finite value(s) at C = {capacity}"
                        ));
                    } else {
                        health.note_ok();
                    }
                    PointOutcome::Ok(pt)
                }
                Some(Ok(PointEval::DeadlineSkipped)) => {
                    let cause = format!("deadline expired before evaluating C = {capacity}");
                    health.note_failed(&cause);
                    PointOutcome::Failed { capacity, index, cause }
                }
                Some(Err(e)) => {
                    let cause = e.to_string();
                    health.note_failed(&cause);
                    PointOutcome::Failed { capacity, index, cause }
                }
            })
            .collect();
        CheckedSweep { outcomes, health }
    }

    /// Build the welfare sampling table `V(C)` for one architecture over
    /// the standard [`SampledValue::grid`], evaluating grid points in
    /// parallel per [`Self::mode`].
    ///
    /// Identical (bitwise) to `SampledValue::build` over the same model:
    /// `V_B(C) = k̄·B(C)` and `V_R(C) = k̄·R(C)` are evaluated by the
    /// same scalar code, only fanned out and memoized.
    pub fn value_table(
        &self,
        arch: Architecture,
        c_scale: f64,
        c_max: f64,
        n: usize,
    ) -> SampledValue {
        self.value_table_checked(arch, c_scale, c_max, n).0
    }

    /// [`Self::value_table`] plus a degradation ledger counting grid
    /// values that came out non-finite (from truncated load tables or
    /// injected corruption) — nothing non-finite enters a welfare table
    /// silently.
    pub fn value_table_checked(
        &self,
        arch: Architecture,
        c_scale: f64,
        c_max: f64,
        n: usize,
    ) -> (SampledValue, SweepHealth) {
        let cs = SampledValue::grid(c_scale, c_max, n);
        let mut sp = span(match arch {
            Architecture::BestEffort => "welfare/value-table-B",
            Architecture::Reservation => "welfare/value-table-R",
        });
        sp.add_points(cs.len() as u64);
        self.prime(&cs);
        let kbar = self.model.mean_load();
        let timing = enabled(ObsLevel::Summary);
        let lat = metrics::histogram("engine/value_point_ns");
        let vs = parallel_map_with(&cs, self.mode.threads(), |&c| {
            timed_point(timing, &lat, || match arch {
                Architecture::BestEffort => kbar * self.best_effort(c),
                Architecture::Reservation => kbar * self.reservation(c),
            })
        });
        let mut health = SweepHealth::new();
        let cap = self.kernel.capability();
        health.kernel = Some(cap.name.to_string());
        health.simd = Some(cap.simd.as_str().to_string());
        for (&c, &v) in cs.iter().zip(&vs) {
            if health.tally_non_finite(v) {
                health.note_degraded(&format!("non-finite welfare value at C = {c}"));
            } else {
                health.note_ok();
            }
        }
        (SampledValue::from_samples(cs, vs), health)
    }

    /// Equalizing price ratio `γ(p)` over a price grid, parallel per
    /// [`Self::mode`]: for each price, best-effort welfare comes from
    /// `sv_b` and the ratio is solved against `sv_r`. Failed solves
    /// surface as NaN.
    pub fn gamma_sweep(&self, prices: &[f64], sv_b: &SampledValue, sv_r: &SampledValue) -> Vec<f64> {
        self.gamma_sweep_checked(prices, sv_b, sv_r).0
    }

    /// [`Self::gamma_sweep`] plus a degradation ledger: each price whose
    /// ratio solve failed (NaN output) is counted degraded, with the
    /// solver's error as the recorded cause.
    pub fn gamma_sweep_checked(
        &self,
        prices: &[f64],
        sv_b: &SampledValue,
        sv_r: &SampledValue,
    ) -> (Vec<f64>, SweepHealth) {
        let mut sp = span("welfare/gamma");
        sp.add_points(prices.len() as u64);
        let timing = enabled(ObsLevel::Summary);
        let lat = metrics::histogram("engine/gamma_point_ns");
        let raw = parallel_map_with(prices, self.mode.threads(), |&p| {
            timed_point(timing, &lat, || {
                let wb = sv_b.welfare(p).welfare;
                match equalizing_price_ratio(|ph| sv_r.welfare(ph).welfare, wb, p) {
                    Ok(g) => (g, None),
                    Err(e) => (f64::NAN, Some(format!("gamma solve at p = {p}: {e}"))),
                }
            })
        });
        let mut health = SweepHealth::new();
        let mut out = Vec::with_capacity(raw.len());
        for (g, cause) in raw {
            match cause {
                Some(c) => {
                    health.tally_non_finite(g);
                    health.note_degraded(&c);
                }
                None if health.tally_non_finite(g) => {
                    health.note_degraded("non-finite gamma from a nominally successful solve");
                }
                None => health.note_ok(),
            }
            out.push(g);
        }
        (out, health)
    }

    /// Hit/miss counters of the three memo tables — plus the store's
    /// cross-run value-table cache, when one is attached — named for
    /// reports.
    pub fn cache_stats(&self) -> Vec<(String, CacheStats)> {
        let mut out = vec![
            ("k_max".into(), self.kmax.stats()),
            ("best_effort".into(), self.b.stats()),
            ("reservation".into(), self.r.stats()),
        ];
        if let Some(store) = &self.store {
            let s = store.stats(Kind::Grid);
            out.push(("persistent".into(), CacheStats { hits: s.hits, misses: s.misses }));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bevra_load::{Geometric, Poisson, Tabulated};
    use bevra_utility::{AdaptiveExp, Rigid};

    fn poisson_engine(mode: ExecMode) -> SweepEngine<AdaptiveExp> {
        let load = Tabulated::from_model(&Poisson::new(50.0), 1e-12, 1 << 16);
        SweepEngine::with_mode(DiscreteModel::new(load, AdaptiveExp::paper()), mode)
    }

    fn grid() -> Vec<f64> {
        (1..=24).map(|i| f64::from(i) * 9.0).collect()
    }

    #[test]
    fn parallel_sweep_bitwise_matches_serial() {
        let cs = grid();
        let serial = poisson_engine(ExecMode::Serial).sweep(&cs);
        let par = poisson_engine(ExecMode::Parallel { threads: 8 }).sweep(&cs);
        for (s, p) in serial.iter().zip(&par) {
            assert_eq!(s.best_effort.to_bits(), p.best_effort.to_bits());
            assert_eq!(s.reservation.to_bits(), p.reservation.to_bits());
            assert_eq!(s.performance_gap.to_bits(), p.performance_gap.to_bits());
            assert_eq!(s.bandwidth_gap.to_bits(), p.bandwidth_gap.to_bits());
        }
    }

    #[test]
    fn engine_matches_legacy_model_path() {
        let cs = grid();
        let load = Tabulated::from_model(&Geometric::from_mean(50.0), 1e-12, 1 << 16);
        let model = DiscreteModel::new(load.clone(), Rigid::unit());
        let engine = SweepEngine::new(DiscreteModel::new(load, Rigid::unit()));
        for (&c, pt) in cs.iter().zip(engine.sweep(&cs)) {
            assert_eq!(model.best_effort(c).to_bits(), pt.best_effort.to_bits());
            assert_eq!(model.reservation(c).to_bits(), pt.reservation.to_bits());
            let legacy_gap = bevra_core::bandwidth_gap(&model, c).unwrap_or(f64::NAN);
            assert_eq!(legacy_gap.to_bits(), pt.bandwidth_gap.to_bits());
        }
    }

    #[test]
    fn caches_hit_on_resweep() {
        let engine = poisson_engine(ExecMode::Parallel { threads: 4 });
        let cs = grid();
        let first = engine.sweep(&cs);
        let misses_after_first: u64 = engine.cache_stats().iter().map(|(_, s)| s.misses).sum();
        let second = engine.sweep(&cs);
        let misses_after_second: u64 = engine.cache_stats().iter().map(|(_, s)| s.misses).sum();
        assert_eq!(misses_after_first, misses_after_second, "second sweep is all hits");
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(a.best_effort.to_bits(), b.best_effort.to_bits());
        }
    }

    #[test]
    fn value_table_matches_sampled_build() {
        let load = Tabulated::from_model(&Poisson::new(50.0), 1e-12, 1 << 16);
        let model = DiscreteModel::new(load.clone(), AdaptiveExp::paper());
        let engine = SweepEngine::new(DiscreteModel::new(load, AdaptiveExp::paper()));
        let sv_legacy = SampledValue::build(|c| model.total_best_effort(c), 50.0, 5e3, 64);
        let sv_engine = engine.value_table(Architecture::BestEffort, 50.0, 5e3, 64);
        for c in [10.0, 75.0, 320.0, 4000.0] {
            assert_eq!(sv_legacy.value(c).to_bits(), sv_engine.value(c).to_bits(), "C={c}");
        }
    }

    #[test]
    fn batched_priming_matches_per_point_model_bitwise() {
        let cs = grid();
        let reference = poisson_engine(ExecMode::Serial);
        let model = reference.model();
        let batched = poisson_engine(ExecMode::Serial).with_kernel(PiEval::Exact).sweep(&cs);
        let batched_par = poisson_engine(ExecMode::Parallel { threads: 5 })
            .with_kernel(PiEval::Exact)
            .sweep(&cs);
        for ((&c, b), p) in cs.iter().zip(&batched).zip(&batched_par) {
            let gap = bevra_core::bandwidth_gap(model, c).unwrap_or(f64::NAN);
            for pt in [b, p] {
                assert_eq!(model.best_effort(c).to_bits(), pt.best_effort.to_bits());
                assert_eq!(model.reservation(c).to_bits(), pt.reservation.to_bits());
                assert_eq!(gap.to_bits(), pt.bandwidth_gap.to_bits());
            }
        }
    }

    #[test]
    fn grid_key_separates_models_and_grids() {
        let load = Tabulated::from_model(&Poisson::new(20.0), 1e-12, 1 << 10);
        let m1 = DiscreteModel::new(load.clone(), Rigid::unit());
        let m2 = DiscreteModel::new(load.clone(), Rigid::new(2.0));
        let m3 = DiscreteModel::new(load.clone(), AdaptiveExp::paper());
        let caps = [1.0, 2.0, 3.0];
        let batch = PiEval::Exact.capability();
        let portable = PiEval::Portable.capability();
        let k1 = grid_key(&m1, &batch, &caps);
        assert_eq!(k1, grid_key(&m1, &batch, &caps), "key is deterministic");
        assert_ne!(k1, grid_key(&m2, &batch, &caps), "utility params re-key");
        assert_ne!(k1, grid_key(&m3, &batch, &caps), "utility family re-keys");
        assert_ne!(k1, grid_key(&m1, &portable, &caps), "parity class re-keys");
        assert_ne!(k1, grid_key(&m1, &batch, &caps[..2]), "grid re-keys");
        let capped = DiscreteModel::new(load, Rigid::unit()).with_admission_cap(5);
        assert_ne!(k1, grid_key(&capped, &batch, &caps), "admission cap re-keys");
    }

    #[test]
    fn gamma_sweep_parallel_matches_serial() {
        let ps: Vec<f64> = (0..12).map(|i| 1e-3 * 1.8f64.powi(i)).collect();
        let serial = poisson_engine(ExecMode::Serial);
        let sb = serial.value_table(Architecture::BestEffort, 50.0, 1e4, 200);
        let sr = serial.value_table(Architecture::Reservation, 50.0, 1e4, 200);
        let gs = serial.gamma_sweep(&ps, &sb, &sr);
        let par = poisson_engine(ExecMode::Parallel { threads: 8 });
        let pb = par.value_table(Architecture::BestEffort, 50.0, 1e4, 200);
        let pr = par.value_table(Architecture::Reservation, 50.0, 1e4, 200);
        let gp = par.gamma_sweep(&ps, &pb, &pr);
        for (a, b) in gs.iter().zip(&gp) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}
