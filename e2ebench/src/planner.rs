//! `planner_mix`: a closed loop with one client issuing a seeded stream
//! of independent provisioning queries. Each query builds its own load
//! table and asks a fresh `SweepEngine` for B, R, δ and Δ at one
//! capacity; nothing is shared between queries.

use crate::checks::{check_gap, check_oracle, Tally};
use crate::measure::{timed, Timed};
use crate::trace::Tracer;
use bevra_core::DiscreteModel;
use bevra_engine::SweepEngine;
use bevra_load::{Algebraic, Geometric, Poisson, Tabulated};
use bevra_utility::{AdaptiveExp, Rigid, Utility};
use std::sync::Arc;

/// Queries per block. A block holds a fixed number of each class, so
/// every block — and every run — has the same class mix.
pub const BLOCK: usize = 20;
/// Blocks generated per run; more than a run at 60 s can use.
pub const BLOCKS: usize = 256;

/// Table truncation used by the shipped figures for each family: tail
/// mass 1e-12 for the light-tailed families, 1e-9 for algebraic, and at
/// most 2^20 entries.
const LIGHT_TOL: f64 = 1e-12;
const ALGEBRAIC_TOL: f64 = 1e-9;
const TABLE_CAP: usize = 1 << 20;

/// Range of the algebraic tail exponent. `Algebraic::from_mean` fails to
/// calibrate below z ≈ 2.3 (its tanh-sinh quadrature hits its iteration
/// cap), so the stream starts at 2.4.
pub const Z_RANGE: (f64, f64) = (2.4, 4.0);
/// Range of the mean load k̄ (log-uniform).
pub const KBAR_RANGE: (f64, f64) = (50.0, 200.0);
/// Range of C / k̄ (log-uniform).
pub const CAPACITY_RATIO: (f64, f64) = (0.5, 2.0);

/// Load family of a query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Family {
    /// Poisson with mean k̄.
    Poisson,
    /// Geometric ("exponential") with mean k̄.
    Geometric,
    /// Algebraic with tail exponent z and mean k̄.
    Algebraic {
        /// Tail exponent.
        z: f64,
    },
}

impl Family {
    /// Label used in metric names.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Family::Poisson => "poisson",
            Family::Geometric => "geometric",
            Family::Algebraic { .. } => "algebraic",
        }
    }
}

/// Utility family of a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Util {
    /// `Rigid::unit()`.
    Rigid,
    /// `AdaptiveExp::paper()`.
    Adaptive,
}

impl Util {
    /// Label used in metric names.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Util::Rigid => "rigid",
            Util::Adaptive => "adaptive",
        }
    }
}

/// One provisioning query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Query {
    /// Position in the stream; shared by the query's spans.
    pub id: u64,
    /// Load family.
    pub family: Family,
    /// Mean load k̄.
    pub kbar: f64,
    /// Utility family.
    pub utility: Util,
    /// Capacity C.
    pub capacity: f64,
    /// Whether the query's Δ is also checked against the
    /// `bevra_core::bandwidth_gap` oracle (one query per block).
    pub oracle: bool,
}

/// SplitMix64: the stream's only source of randomness.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// Generator seeded with `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform index in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

/// Query classes of a block and how many of each it holds: 6 light-tailed
/// queries (sub-millisecond), 8 rigid-algebraic (table-build bound) and 6
/// adaptive-algebraic (Δ-probe bound). Sorted by latency the classes fill
/// 0–30%, 30–70% and 70–100% of a block, so the median falls mid-way
/// through the rigid-algebraic class and the p97 tail deep inside the
/// adaptive-algebraic class, away from any class boundary.
const CLASSES: [(ClassKind, usize); 4] = [
    (ClassKind::Poisson, 3),
    (ClassKind::Geometric, 3),
    (ClassKind::AlgebraicRigid, 8),
    (ClassKind::AlgebraicAdaptive, 6),
];

#[derive(Debug, Clone, Copy)]
enum ClassKind {
    Poisson,
    Geometric,
    AlgebraicRigid,
    AlgebraicAdaptive,
}

/// `n` stratified draws in `[0, 1)`: one uniform point in each of `n`
/// equal strata, in random order (a Latin-hypercube column).
fn strata(rng: &mut SplitMix64, n: usize) -> Vec<f64> {
    let mut xs: Vec<f64> = (0..n).map(|j| (j as f64 + rng.unit()) / n as f64).collect();
    rng.shuffle(&mut xs);
    xs
}

fn log_lerp((lo, hi): (f64, f64), u: f64) -> f64 {
    lo * (hi / lo).powf(u)
}

/// The query stream of a seed: [`BLOCKS`] blocks of [`BLOCK`] queries.
/// Equal seeds give identical streams.
#[must_use]
pub fn stream(seed: u64) -> Vec<Query> {
    let mut rng = SplitMix64::new(seed);
    let mut out = Vec::with_capacity(BLOCKS * BLOCK);
    for _ in 0..BLOCKS {
        let mut block = Vec::with_capacity(BLOCK);
        for (kind, n) in CLASSES {
            let (uk, uz, uc) = (
                strata(&mut rng, n),
                strata(&mut rng, n),
                strata(&mut rng, n),
            );
            for j in 0..n {
                let (family, utility) = match kind {
                    ClassKind::Poisson | ClassKind::Geometric => {
                        let f = if matches!(kind, ClassKind::Poisson) {
                            Family::Poisson
                        } else {
                            Family::Geometric
                        };
                        (
                            f,
                            if rng.unit() < 0.5 {
                                Util::Rigid
                            } else {
                                Util::Adaptive
                            },
                        )
                    }
                    ClassKind::AlgebraicRigid | ClassKind::AlgebraicAdaptive => {
                        let z = Z_RANGE.0 + (Z_RANGE.1 - Z_RANGE.0) * uz[j];
                        let u = if matches!(kind, ClassKind::AlgebraicRigid) {
                            Util::Rigid
                        } else {
                            Util::Adaptive
                        };
                        (Family::Algebraic { z }, u)
                    }
                };
                let kbar = log_lerp(KBAR_RANGE, uk[j]);
                let capacity = kbar * log_lerp(CAPACITY_RATIO, uc[j]);
                block.push(Query {
                    id: 0,
                    family,
                    kbar,
                    utility,
                    capacity,
                    oracle: false,
                });
            }
        }
        rng.shuffle(&mut block);
        let pick = rng.below(BLOCK);
        block[pick].oracle = true;
        out.extend(block);
    }
    for (i, q) in out.iter_mut().enumerate() {
        q.id = i as u64;
    }
    out
}

/// Build the query's load table.
///
/// # Panics
///
/// Panics if the algebraic calibration fails, which the stream's z range
/// rules out.
#[must_use]
pub fn build_table(family: Family, kbar: f64) -> Tabulated {
    match family {
        Family::Poisson => Tabulated::from_model(&Poisson::new(kbar), LIGHT_TOL, TABLE_CAP),
        Family::Geometric => {
            Tabulated::from_model(&Geometric::from_mean(kbar), LIGHT_TOL, TABLE_CAP)
        }
        Family::Algebraic { z } => {
            let model = Algebraic::from_mean(z, kbar)
                .unwrap_or_else(|e| panic!("algebraic calibration (z = {z}, mean {kbar}): {e:?}"));
            Tabulated::from_model(&model, ALGEBRAIC_TOL, TABLE_CAP)
        }
    }
}

/// A query's answer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Answer {
    /// B(C).
    pub best_effort: f64,
    /// R(C).
    pub reservation: f64,
    /// δ(C).
    pub performance_gap: f64,
    /// Δ(C), NaN if the solve failed.
    pub bandwidth_gap: f64,
    /// Best-effort memo misses of the Δ solve (its probes).
    pub delta_probes: u64,
    /// Memo hits and lookups over the whole query.
    pub memo_hits: u64,
    /// Memo lookups over the whole query.
    pub memo_lookups: u64,
}

fn be_misses(stats: &[(String, bevra_engine::cache::CacheStats)]) -> u64 {
    stats
        .iter()
        .find(|(n, _)| n == "best_effort")
        .map_or(0, |(_, s)| s.misses)
}

/// Ask a fresh engine for B, R, δ and Δ at `c`.
fn ask<U: Utility>(engine: &SweepEngine<U>, c: f64) -> Answer {
    let best_effort = engine.best_effort(c);
    let reservation = engine.reservation(c);
    let performance_gap = engine.performance_gap(c);
    let before = be_misses(&engine.cache_stats());
    let bandwidth_gap = engine.bandwidth_gap(c).unwrap_or(f64::NAN);
    let stats = engine.cache_stats();
    let (hits, misses) = stats
        .iter()
        .fold((0, 0), |(h, m), (_, s)| (h + s.hits, m + s.misses));
    Answer {
        best_effort,
        reservation,
        performance_gap,
        bandwidth_gap,
        delta_probes: be_misses(&stats) - before,
        memo_hits: hits,
        memo_lookups: hits + misses,
    }
}

/// Outcome of one query: its answer, latency, and check tally.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The query.
    pub query: Query,
    /// Its answer.
    pub answer: Answer,
    /// Wall and CPU time from table build to Δ, checks excluded.
    pub time: Timed,
    /// Entries of the query's load table.
    pub table_len: usize,
    /// Failed solve plus residual and (for sampled queries) oracle checks.
    pub tally: Tally,
}

/// Check a query's answer: the solve succeeded, Δ passes the residual
/// test, and — for oracle-sampled queries — Δ matches
/// `bevra_core::bandwidth_gap` on the same table.
#[must_use]
pub fn check_answer<U: Utility>(
    q: &Query,
    a: &Answer,
    engine: &SweepEngine<U>,
    oracle: impl FnOnce() -> Option<f64>,
) -> Tally {
    let mut tally = Tally::default();
    let c = q.capacity;
    tally.record(if a.bandwidth_gap.is_finite() {
        Ok(())
    } else {
        Err(format!("query {}: Δ solve failed at C = {c}", q.id))
    });
    let b = |x: f64| engine.best_effort(x);
    tally.record(
        check_gap(&b, a.reservation, c, a.bandwidth_gap, q.kbar)
            .map_err(|e| format!("query {}: {e}", q.id)),
    );
    if q.oracle {
        let outcome = match oracle() {
            Some(g) => check_oracle(a.bandwidth_gap, g, c),
            None => Err(format!("oracle Δ solve failed at C = {c}")),
        };
        tally.record(outcome.map_err(|e| format!("query {}: {e}", q.id)));
    }
    tally
}

fn run_with<U: Utility>(q: &Query, make: fn() -> U, t: Option<&mut Tracer>) -> Outcome {
    let label = format!("{}-{}", q.family.name(), q.utility.name());
    let solve = |load: Tabulated| -> (Answer, SweepEngine<U>, Arc<Tabulated>) {
        let load = Arc::new(load);
        let engine = SweepEngine::new(DiscreteModel::new(Arc::clone(&load), make()));
        (ask(&engine, q.capacity), engine, load)
    };
    let ((answer, engine, load), time) = match t {
        None => timed(|| solve(build_table(q.family, q.kbar))),
        Some(t) => timed(|| {
            t.span("bench.query", q.id, |t| {
                let load = t.span(format!("load.build.{}", q.family.name()), q.id, |_| {
                    build_table(q.family, q.kbar)
                });
                t.span(format!("engine.query.{label}"), q.id, |_| solve(load))
            })
        }),
    };
    let tally = check_answer(q, &answer, &engine, || {
        let model = DiscreteModel::new(Arc::clone(&load), make());
        bevra_core::bandwidth_gap(&model, q.capacity).ok()
    });
    Outcome {
        query: *q,
        answer,
        time,
        table_len: load.len(),
        tally,
    }
}

/// Run one query (checks included, but outside its timing); with a
/// tracer, its table build and engine calls are recorded as spans under a
/// `bench.query` root carrying the query's id.
#[must_use]
pub fn run(q: &Query, t: Option<&mut Tracer>) -> Outcome {
    match q.utility {
        Util::Rigid => run_with(q, Rigid::unit, t),
        Util::Adaptive => run_with(q, AdaptiveExp::paper, t),
    }
}
