//! The three workloads: set-up, the timed loop, checks, and metrics.
//!
//! Untraced runs (`--trace 0`) report the end-to-end metrics. Traced runs
//! (`--trace 1`) spend half the budget on untraced rounds and then run as
//! many rounds again under the span tracer; they report the per-layer
//! metrics, with the ratio of the two passes' wall times as the tracing
//! overhead.

use crate::checks::Tally;
use crate::fig4;
use crate::fleet;
use crate::host::Stamp;
use crate::measure::{median, peak_rss_mb, percentile, pin_allocator, run_rounds, timed, Timed};
use crate::output::{end_to_end, fill, per_layer, Metric, FAMILIES, UTILITIES};
use crate::planner;
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Workload names, as `--workload` takes them.
pub const WORKLOADS: [&str; 3] = ["fig4_full", "planner_mix", "fleet_mix"];

/// Set-up repetitions before the first round, and after every round.
const SETUP_REPS: usize = 3;

/// Root of the benchmark's scratch output, relative to the repository
/// root the benchmark runs from.
pub const OUT_DIR: &str = "e2ebench/out";

/// What one run measured.
#[derive(Debug)]
pub struct RunResult {
    /// Host and build stamp.
    pub stamp: Stamp,
    /// Metrics in catalogue order.
    pub metrics: Vec<Metric>,
    /// Operations and checks.
    pub tally: Tally,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

/// Run parameters.
#[derive(Debug, Clone)]
pub struct Params {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measuring budget in seconds.
    pub seconds: f64,
    /// Traced run.
    pub trace: bool,
}

/// A workload's set-up — resolve the library's SIMD tier, kernel backend
/// and worker count, then build the inputs — timed every time it runs.
/// It runs [`SETUP_REPS`] times before the first round and again after
/// every round, so `setup_s`, the median, samples the whole run rather
/// than one instant of a host whose speed drifts.
struct SetUp<F> {
    build: F,
    walls: Vec<f64>,
}

impl<T, F: FnMut() -> T> SetUp<F> {
    fn new(build: F) -> Self {
        Self {
            build,
            walls: Vec::new(),
        }
    }

    /// Run the set-up [`SETUP_REPS`] times; return the last inputs.
    fn reps(&mut self) -> T {
        let mut last = None;
        for _ in 0..SETUP_REPS {
            let (v, t) = timed(|| {
                std::hint::black_box((
                    bevra_num::simd::level(),
                    bevra_engine::registry::from_env(),
                    bevra_engine::thread_count(),
                ));
                (self.build)()
            });
            self.walls.push(t.wall);
            last = Some(v);
        }
        last.expect("SETUP_REPS > 0")
    }

    fn median(&self) -> f64 {
        median(&self.walls)
    }
}

fn fresh_dir(path: &Path) -> std::io::Result<()> {
    if path.exists() {
        std::fs::remove_dir_all(path)?;
    }
    std::fs::create_dir_all(path)
}

/// `op_tail_ms` percentile per workload: the highest whole percentile with
/// at least ten samples beyond it at the op count a 40 s run completes —
/// about 540 queries on `planner_mix` (p97 keeps ten beyond down to 334)
/// and about 70 rounds on `fleet_mix` (p85). `fig4_full` completes 2–3
/// figures, too few for any percentile to have ten beyond: its tail is
/// the slowest figure.
const PLANNER_TAIL: f64 = 97.0;
const FLEET_TAIL: f64 = 85.0;
const FIG4_TAIL: f64 = 100.0;

/// End-to-end metrics from per-round timings, per-op latencies, and the
/// work completed; `op_tail_ms` is percentile `tail` of the latencies.
fn e2e(
    rounds: &[Timed],
    setup_s: f64,
    work: f64,
    op_latencies_s: &[f64],
    work_wall_s: f64,
    tail: f64,
) -> Vec<Metric> {
    let walls: Vec<f64> = rounds.iter().map(|t| t.wall).collect();
    let cpus: Vec<f64> = rounds.iter().map(|t| t.cpu).collect();
    let values = vec![
        ("wall_s".to_string(), median(&walls)),
        ("cpu_s".to_string(), median(&cpus)),
        ("setup_s".to_string(), setup_s),
        ("peak_rss_mb".to_string(), peak_rss_mb()),
        ("work_per_s".to_string(), work / work_wall_s),
        ("op_p50_ms".to_string(), 1e3 * median(op_latencies_s)),
        (
            "op_tail_ms".to_string(),
            1e3 * percentile(op_latencies_s, tail),
        ),
    ];
    fill(&end_to_end(), &values)
}

fn share(by: &BTreeMap<String, f64>, name: &str, wall: f64) -> f64 {
    by.get(name).copied().unwrap_or(0.0) / wall
}

/// The universal `obs.*` per-layer values of a traced pass.
fn obs_values(t: &Tracer, untraced_wall: f64) -> Vec<(String, f64)> {
    let traced = t.root_seconds();
    vec![
        ("obs.traced_wall_s".into(), traced),
        ("obs.trace_overhead_ratio".into(), traced / untraced_wall),
        (
            "obs.attributed_share".into(),
            t.attributed_seconds() / traced,
        ),
        ("obs.spans".into(), t.spans().len() as f64),
    ]
}

/// Per-layer self-time table of a traced pass, largest first, as
/// printable lines.
fn layer_table(t: &Tracer) -> Vec<String> {
    let wall = t.root_seconds();
    let mut rows: Vec<(String, f64)> = t.self_seconds_by_name().into_iter().collect();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    let mut out = vec![format!(
        "layer table: {:<40} {:>10} {:>8}",
        "span (self time)", "seconds", "share"
    )];
    for (name, s) in rows {
        out.push(format!(
            "layer table: {name:<40} {s:>10.4} {:>7.2}%",
            100.0 * s / wall
        ));
    }
    out.push(format!(
        "layer table: {:<40} {wall:>10.4} {:>7.2}%",
        "traced wall", 100.0
    ));
    out
}

/// Run one workload.
///
/// # Errors
///
/// Returns a message for an unknown workload or an I/O failure of the
/// scratch directory.
pub fn run(p: &Params) -> Result<RunResult, String> {
    pin_allocator();
    match p.workload.as_str() {
        "fig4_full" => fig4_full(p),
        "planner_mix" => planner_mix(p),
        "fleet_mix" => fleet_mix(p),
        other => Err(format!(
            "unknown workload {other:?}; expected one of {WORKLOADS:?}"
        )),
    }
}

fn fig4_full(p: &Params) -> Result<RunResult, String> {
    let out = PathBuf::from(OUT_DIR).join("fig4_full");
    let golden = PathBuf::from(fig4::GOLDEN_DIR);
    // Clearing the previous run's output is housekeeping, not set-up.
    fresh_dir(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    let mut set_up = SetUp::new(|| std::fs::create_dir_all(&out));
    set_up
        .reps()
        .map_err(|e| format!("{}: {e}", out.display()))?;
    // Reading `/proc/cpuinfo` for the stamp is reporting, not set-up.
    let stamp = Stamp::resolve();
    let round_dir = |i: usize| -> std::io::Result<PathBuf> {
        let d = out.join(format!("round-{i}"));
        std::fs::create_dir_all(&d).map(|()| d)
    };
    let mut tally = Tally::default();
    let mut notes = Vec::new();
    if !p.trace {
        let rounds = run_rounds(
            p.seconds,
            |i| round_dir(i).and_then(|dir| fig4::shipped(&dir).map(|fig| (dir, fig))),
            || drop(set_up.reps()),
        );
        for (i, (outcome, _)) in rounds.iter().enumerate() {
            match outcome {
                Ok((dir, fig)) => tally.merge(fig4::check(fig, dir, &golden)),
                Err(e) => tally.record(Err(format!("round {i}: {e}"))),
            }
        }
        let times: Vec<Timed> = rounds.iter().map(|(_, t)| *t).collect();
        let walls: Vec<f64> = times.iter().map(|t| t.wall).collect();
        let work = fig4::points_per_figure() as f64 * times.len() as f64;
        notes.push(format!(
            "rounds: {} figure run(s); op = one figure run (fig4 + emit); op_tail_ms = the slowest",
            times.len()
        ));
        let metrics = e2e(
            &times,
            set_up.median(),
            work,
            &walls,
            walls.iter().sum(),
            FIG4_TAIL,
        );
        return Ok(RunResult {
            stamp,
            metrics,
            tally,
            notes,
        });
    }

    let dir_err = |e: std::io::Error| format!("{}: {e}", out.display());
    let d0 = round_dir(0).map_err(dir_err)?;
    let d1 = round_dir(1).map_err(dir_err)?;
    let (fig, untraced) = timed(|| fig4::shipped(&d0));
    match fig {
        Ok(fig) => tally.merge(fig4::check(&fig, &d0, &golden)),
        Err(e) => tally.record(Err(format!("untraced round: emit failed: {e}"))),
    }
    let mut t = Tracer::new();
    let traced = fig4::traced(&mut t, 1, &d1);
    let mut values = obs_values(&t, untraced.wall);
    match traced {
        Ok(r) => {
            tally.merge(fig4::check(&r.figure, &d1, &golden));
            let wall = t.root_seconds();
            let by = t.self_seconds_by_name();
            values.push((
                "load.build_share.algebraic".into(),
                share(&by, "load.build.algebraic", wall),
            ));
            let mut retries = 0;
            for c in &r.counts {
                let u = c.tag;
                for step in ["prime", "sweep", "table_b", "table_r", "gamma"] {
                    values.push((
                        format!("engine.{step}_share.{u}"),
                        share(&by, &format!("engine.{step}.{u}"), wall),
                    ));
                }
                values.push((
                    format!("engine.prime_busy_ratio.{u}"),
                    c.prime_cpu_s / (c.prime_wall_s * c.threads as f64),
                ));
                values.push((format!("engine.delta_probes.{u}"), c.delta_probes as f64));
                values.push((format!("engine.memo_hit_ratio.{u}"), c.memo_hit_ratio));
                values.push((format!("core.lane_evals.{u}"), c.lane_evals as f64));
                retries += c.retries;
            }
            values.push(("engine.point_retries".into(), retries as f64));
            values.push(("report.emit_share".into(), share(&by, "report.emit", wall)));
            values.push(("report.bytes_written".into(), r.bytes_written as f64));
        }
        Err(e) => tally.record(Err(format!("traced round: emit failed: {e}"))),
    }
    notes.extend(layer_table(&t));
    notes.push(format!(
        "untraced wall {:.4} s, traced wall {:.4} s",
        untraced.wall,
        t.root_seconds()
    ));
    Ok(RunResult {
        stamp,
        metrics: fill(&per_layer(), &values),
        tally,
        notes,
    })
}

fn planner_mix(p: &Params) -> Result<RunResult, String> {
    let mut set_up = SetUp::new(|| planner::stream(p.seed));
    let queries = set_up.reps();
    let stamp = Stamp::resolve();
    let block = |i: usize| &queries[(i % planner::BLOCKS) * planner::BLOCK..][..planner::BLOCK];
    let run_block = |i: usize, mut t: Option<&mut Tracer>| -> Vec<planner::Outcome> {
        block(i)
            .iter()
            .map(|q| planner::run(q, t.as_deref_mut()))
            .collect()
    };
    // A round's time is the sum of its queries' times: the checks between
    // queries are excluded.
    let block_time = |outs: &[planner::Outcome]| Timed {
        wall: outs.iter().map(|o| o.time.wall).sum(),
        cpu: outs.iter().map(|o| o.time.cpu).sum(),
    };
    let mut tally = Tally::default();
    let mut notes = Vec::new();
    let budget = if p.trace { p.seconds / 2.0 } else { p.seconds };
    let untraced: Vec<Vec<planner::Outcome>> =
        run_rounds(budget, |i| run_block(i, None), || drop(set_up.reps()))
            .into_iter()
            .map(|(o, _)| o)
            .collect();
    for o in untraced.iter().flatten() {
        tally.merge(o.tally.clone());
    }
    let lat: Vec<f64> = untraced.iter().flatten().map(|o| o.time.wall).collect();
    if !p.trace {
        let times: Vec<Timed> = untraced.iter().map(|b| block_time(b)).collect();
        let beyond = lat.len() - (PLANNER_TAIL / 100.0 * lat.len() as f64).ceil() as usize;
        notes.push(format!(
            "rounds: {} block(s) of {} queries; {} queries, {beyond} beyond p{PLANNER_TAIL}",
            times.len(),
            planner::BLOCK,
            lat.len()
        ));
        let metrics = e2e(
            &times,
            set_up.median(),
            lat.len() as f64,
            &lat,
            lat.iter().sum(),
            PLANNER_TAIL,
        );
        return Ok(RunResult {
            stamp,
            metrics,
            tally,
            notes,
        });
    }

    let mut t = Tracer::new();
    let traced: Vec<planner::Outcome> = (0..untraced.len())
        .flat_map(|i| run_block(i, Some(&mut t)))
        .collect();
    for o in &traced {
        tally.merge(o.tally.clone());
    }
    let mut values = obs_values(&t, lat.iter().sum());
    let wall = t.root_seconds();
    let by = t.self_seconds_by_name();
    for f in FAMILIES {
        values.push((
            format!("load.build_share.{f}"),
            share(&by, &format!("load.build.{f}"), wall),
        ));
        for u in UTILITIES {
            values.push((
                format!("engine.query_share.{f}-{u}"),
                share(&by, &format!("engine.query.{f}-{u}"), wall),
            ));
        }
    }
    for u in UTILITIES {
        let of_u: Vec<&planner::Outcome> = traced
            .iter()
            .filter(|o| o.query.utility.name() == u)
            .collect();
        let probes: u64 = of_u.iter().map(|o| o.answer.delta_probes).sum();
        let hits: u64 = of_u.iter().map(|o| o.answer.memo_hits).sum();
        let lookups: u64 = of_u.iter().map(|o| o.answer.memo_lookups).sum();
        // Table walks per query: B(C), R(C), and one per Δ probe.
        let evals: u64 = of_u
            .iter()
            .map(|o| (2 + o.answer.delta_probes) * o.table_len as u64)
            .sum();
        values.push((format!("engine.delta_probes.{u}"), probes as f64));
        values.push((
            format!("engine.memo_hit_ratio.{u}"),
            if lookups == 0 {
                0.0
            } else {
                hits as f64 / lookups as f64
            },
        ));
        values.push((format!("core.lane_evals.{u}"), evals as f64));
    }
    notes.extend(layer_table(&t));
    notes.push(format!(
        "{} queries untraced, {} traced",
        lat.len(),
        traced.len()
    ));
    Ok(RunResult {
        stamp,
        metrics: fill(&per_layer(), &values),
        tally,
        notes,
    })
}

/// What the benchmark keeps of one fleet round, (a) then (b). Only round
/// 0's full reports are kept (for the statistical checks): holding every
/// round's occupancy census would put the harness's own memory into
/// `peak_rss_mb`.
struct FleetRound {
    digests: [u64; 2],
    events: u64,
    lanes: Tally,
    /// Wall seconds of the two `run_on` calls.
    run_wall: f64,
    /// `FleetReport::seconds` of the two runs: time spent in shards.
    shard_wall: f64,
    restarts: u64,
    blocking_b: f64,
}

fn run_fleet(
    name: &str,
    f: &bevra_sim::Fleet,
    t: Option<&mut Tracer>,
    id: u64,
) -> (bevra_sim::FleetReport, f64) {
    let (rep, time) = match t {
        None => timed(|| fleet::run(f)),
        Some(t) => timed(|| t.span(format!("sim.run.{name}"), id, |_| fleet::run(f))),
    };
    (rep, time.wall)
}

/// Run one round; `keep` receives the full reports when it is given.
fn fleet_round(
    fa: &bevra_sim::Fleet,
    fb: &bevra_sim::Fleet,
    t: Option<&mut Tracer>,
    id: u64,
    keep: Option<&mut Option<[bevra_sim::FleetReport; 2]>>,
) -> FleetRound {
    let ((a, a_wall), (b, b_wall)) = match t {
        None => (
            run_fleet("best_effort", fa, None, id),
            run_fleet("reservation", fb, None, id),
        ),
        Some(t) => t.span("bench.fleet", id, |t| {
            (
                run_fleet("best_effort", fa, Some(t), id),
                run_fleet("reservation", fb, Some(t), id),
            )
        }),
    };
    let mut lanes = fleet::lane_tally(&a);
    lanes.merge(fleet::lane_tally(&b));
    let round = FleetRound {
        digests: [a.merged.digest(), b.merged.digest()],
        events: a.merged.events + b.merged.events,
        lanes,
        run_wall: a_wall + b_wall,
        shard_wall: a.seconds + b.seconds,
        restarts: a.health.restarts + b.health.restarts,
        blocking_b: b.merged.blocking_rate(),
    };
    if let Some(slot) = keep {
        *slot = Some([a, b]);
    }
    round
}

/// Checks of a fleet run: every lane healthy, every round replaying round
/// 0's digests, the statistical checks of both fleets on round 0's
/// reports, and the digest pin (at a non-default seed, on an extra untimed
/// run of fleet (a) at the default seed).
fn fleet_checks(rounds: &[FleetRound], first: &[bevra_sim::FleetReport; 2], seed: u64) -> Tally {
    let mut tally = Tally::default();
    for r in rounds {
        tally.merge(r.lanes.clone());
    }
    for (i, r) in rounds.iter().enumerate().skip(1) {
        for (what, got, want) in [
            ("a", r.digests[0], rounds[0].digests[0]),
            ("b", r.digests[1], rounds[0].digests[1]),
        ] {
            tally.record(if got == want {
                Ok(())
            } else {
                Err(format!("fleet ({what}) round {i} digest {got:#018x} does not replay round 0's {want:#018x}"))
            });
        }
    }
    tally.merge(fleet::check_best_effort(&first[0], seed));
    tally.merge(fleet::check_reservation(&first[1]));
    if seed != fleet::DEFAULT_SEED {
        let pinned = fleet::run(&fleet::best_effort(fleet::DEFAULT_SEED));
        tally.merge(fleet::check_best_effort(&pinned, fleet::DEFAULT_SEED));
    }
    tally
}

fn fleet_mix(p: &Params) -> Result<RunResult, String> {
    let mut set_up = SetUp::new(|| (fleet::best_effort(p.seed), fleet::reservation(p.seed)));
    let (fa, fb) = set_up.reps();
    let stamp = Stamp::resolve();
    let mut notes = Vec::new();
    let budget = if p.trace { p.seconds / 2.0 } else { p.seconds };
    let mut first = None;
    let untraced = run_rounds(
        budget,
        |i| fleet_round(&fa, &fb, None, 0, (i == 0).then_some(&mut first)),
        || drop(set_up.reps()),
    );
    let first = first.expect("the first round always runs");
    let times: Vec<Timed> = untraced.iter().map(|(_, t)| *t).collect();
    let mut rounds: Vec<FleetRound> = untraced.into_iter().map(|(r, _)| r).collect();
    if !p.trace {
        let tally = fleet_checks(&rounds, &first, p.seed);
        let walls: Vec<f64> = times.iter().map(|t| t.wall).collect();
        let events: f64 = rounds.iter().map(|r| r.events as f64).sum();
        notes.push(format!(
            "rounds: {} fleet pair(s); op = one round, fleet (a) then (b); work = simulated events; \
             op_tail_ms = p{FLEET_TAIL}",
            rounds.len()
        ));
        notes.push(format!(
            "fleet (a) digest {:#018x}, fleet (b) blocking {:.4}",
            rounds[0].digests[0], rounds[0].blocking_b
        ));
        let metrics = e2e(
            &times,
            set_up.median(),
            events,
            &walls,
            walls.iter().sum(),
            FLEET_TAIL,
        );
        return Ok(RunResult {
            stamp,
            metrics,
            tally,
            notes,
        });
    }

    let mut t = Tracer::new();
    let untraced_rounds = rounds.len();
    for i in 0..untraced_rounds {
        rounds.push(fleet_round(&fa, &fb, Some(&mut t), i as u64, None));
    }
    let tally = fleet_checks(&rounds, &first, p.seed);
    let traced = &rounds[untraced_rounds..];
    let mut values = obs_values(&t, times.iter().map(|t| t.wall).sum());
    let wall = t.root_seconds();
    let by = t.self_seconds_by_name();
    let shard: f64 = traced.iter().map(|r| r.shard_wall).sum();
    let runs: f64 = traced.iter().map(|r| r.run_wall).sum();
    let events: u64 = traced.iter().map(|r| r.events).sum();
    for d in ["best_effort", "reservation"] {
        values.push((
            format!("sim.run_share.{d}"),
            share(&by, &format!("sim.run.{d}"), wall),
        ));
    }
    values.push(("sim.shard_share".into(), shard / wall));
    values.push(("sim.merge_share".into(), (runs - shard) / wall));
    values.push(("sim.events_per_s".into(), events as f64 / shard));
    values.push((
        "sim.lane_restarts".into(),
        traced.iter().map(|r| r.restarts).sum::<u64>() as f64,
    ));
    values.push((
        "sim.blocking_ratio.reservation".into(),
        traced[0].blocking_b,
    ));
    notes.extend(layer_table(&t));
    Ok(RunResult {
        stamp,
        metrics: fill(&per_layer(), &values),
        tally,
        notes,
    })
}
