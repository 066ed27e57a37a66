//! `fig4_full`: the shipped Figure 4 run (algebraic load z = 3, a 2^20
//! table, both utilities) and its emission, plus a traced replica that
//! makes the same library calls one layer at a time.

use crate::checks::{compare_csv, Tally, FIGURE_REL_BUDGET};
use crate::measure::timed;
use crate::trace::Tracer;
use bevra_core::{DiscreteModel, SampledValue};
use bevra_engine::{record_caches, record_health, Architecture, ExecMode, SweepEngine};
use bevra_load::{Algebraic, Tabulated, PAPER_MEAN_LOAD};
use bevra_report::figures::{fig4, Quality};
use bevra_report::{emit_figure, Figure, Panel, Series};
use bevra_utility::{AdaptiveExp, Rigid, Utility};
use std::path::Path;
use std::sync::Arc;

/// Directory holding the committed panel CSVs the run is checked against.
pub const GOLDEN_DIR: &str = "results";
/// Panels of Figure 4 (three per utility).
pub const PANELS: usize = 6;

// Figure 4's shipped `Quality::Full` preset, as `bevra_report::figures`
// defines it. The traced replica rebuilds the figure from these; the
// golden-CSV check on its output proves the two agree.
const TABLE_CAP: usize = 1 << 20;
const TABLE_TOL: f64 = 1e-9;
const ALGEBRAIC_Z: f64 = 3.0;
const CAPACITY_POINTS: usize = 48;
const PRICE_POINTS: usize = 24;
const WELFARE_GRID: usize = 800;

/// Log-spaced grid of `n` points over `[lo, hi]`, computed exactly as the
/// figure module computes its capacity and price sweeps.
fn log_grid(lo: f64, hi: f64, n: usize) -> Vec<f64> {
    let ratio = (hi / lo).powf(1.0 / (n - 1) as f64);
    (0..n).map(|i| lo * ratio.powi(i as i32)).collect()
}

fn capacity_grid(kbar: f64) -> Vec<f64> {
    log_grid(kbar / 20.0, 10.0 * kbar, CAPACITY_POINTS)
}

fn welfare_grid(kbar: f64) -> Vec<f64> {
    SampledValue::grid(kbar, 300.0 * kbar, WELFARE_GRID)
}

/// Grid points one figure evaluates: per utility, the capacity sweep, the
/// B and R value tables, and the price sweep — the unit of `work_per_s`.
#[must_use]
pub fn points_per_figure() -> u64 {
    let per_utility = CAPACITY_POINTS + 2 * welfare_grid(PAPER_MEAN_LOAD).len() + PRICE_POINTS;
    2 * per_utility as u64
}

/// The shipped run: `figures::fig4(Quality::Full)`, then `emit_figure`
/// into `dir`.
///
/// # Errors
///
/// Propagates emission I/O errors.
pub fn shipped(dir: &Path) -> std::io::Result<Figure> {
    let fig = fig4(Quality::Full);
    emit_figure(&fig, dir)?;
    Ok(fig)
}

/// Check one emitted figure: every plotted value finite (a NaN is a
/// failed or degraded point), and every panel CSV in `dir` equal to the
/// committed one in `golden` within [`FIGURE_REL_BUDGET`].
#[must_use]
pub fn check(fig: &Figure, dir: &Path, golden: &Path) -> Tally {
    let mut tally = Tally::default();
    for p in &fig.panels {
        for s in &p.series {
            for (&x, &y) in s.x.iter().zip(&s.y) {
                tally.record(if y.is_finite() {
                    Ok(())
                } else {
                    Err(format!("{}: {} = {y} at x = {x}", p.title, s.label))
                });
            }
        }
    }
    for i in 1..=PANELS {
        let name = format!("fig4-panel{i}.csv");
        let outcome = match (
            std::fs::read_to_string(golden.join(&name)),
            std::fs::read_to_string(dir.join(&name)),
        ) {
            (Ok(g), Ok(o)) => compare_csv(&g, &o, FIGURE_REL_BUDGET)
                .map(|_| ())
                .map_err(|e| format!("{name}: {e}")),
            (Err(e), _) => Err(format!("committed {name}: {e}")),
            (_, Err(e)) => Err(format!("emitted {name}: {e}")),
        };
        tally.record(outcome);
    }
    tally
}

/// Counts the traced replica gathers per utility, besides its spans.
#[derive(Debug, Default, Clone)]
pub struct UtilityCounts {
    /// `rigid` or `adaptive`.
    pub tag: &'static str,
    /// CPU seconds of all threads during the explicit prime.
    pub prime_cpu_s: f64,
    /// Wall seconds of the explicit prime.
    pub prime_wall_s: f64,
    /// Worker threads the engine fans out to.
    pub threads: usize,
    /// Best-effort memo misses during the sweep: the Δ solver's probes.
    pub delta_probes: u64,
    /// Memo hits over lookups during the sweep (all three memo tables).
    pub memo_hit_ratio: f64,
    /// Computed kernel work: (distinct grid points primed + Δ probes)
    /// × load-table length.
    pub lane_evals: u64,
    /// Point retries the sweep spent.
    pub retries: u64,
}

fn memo_totals(engine_stats: &[(String, bevra_engine::cache::CacheStats)]) -> (u64, u64, u64) {
    let mut hits = 0;
    let mut misses = 0;
    let mut be_misses = 0;
    for (name, st) in engine_stats {
        hits += st.hits;
        misses += st.misses;
        if name == "best_effort" {
            be_misses = st.misses;
        }
    }
    (hits, misses, be_misses)
}

/// The three panels of one utility, traced: the same calls
/// `bevra_report::figures` makes, each inside a span of its layer.
fn utility_panels<U: Utility>(
    t: &mut Tracer,
    round: u64,
    load: &Arc<Tabulated>,
    utility: U,
    which: &str,
    tag: &'static str,
) -> (Vec<Panel>, UtilityCounts) {
    let kbar = load.mean();
    let engine = t.span(format!("engine.new.{tag}"), round, |_| {
        SweepEngine::new(DiscreteModel::new(Arc::clone(load), utility))
    });
    let threads = match engine.mode() {
        ExecMode::Serial => 1,
        ExecMode::Parallel { threads } => threads.max(1),
    };
    let cs = capacity_grid(kbar);
    let ((), prime) = t.span(format!("engine.prime.{tag}"), round, |_| {
        timed(|| engine.prime(&cs))
    });
    let (h0, m0, b0) = memo_totals(&engine.cache_stats());
    let checked = t.span(format!("engine.sweep.{tag}"), round, |_| {
        let checked = engine.sweep_checked(&cs);
        record_health(
            &format!("{which_lc}/sweep", which_lc = which.to_lowercase()),
            checked.health.clone(),
        );
        checked
    });
    let (h1, m1, b1) = memo_totals(&engine.cache_stats());
    let field = |get: fn(&bevra_engine::SweepPoint) -> f64| -> Vec<f64> {
        checked
            .outcomes
            .iter()
            .map(|o| o.point().map_or(f64::NAN, get))
            .collect()
    };
    let b = field(|p| p.best_effort);
    let r = field(|p| p.reservation);
    let gap = field(|p| p.bandwidth_gap);
    let lc = which.to_lowercase();
    let c_max = 300.0 * kbar;
    let sv_b = t.span(format!("engine.table_b.{tag}"), round, |_| {
        let (sv, h) =
            engine.value_table_checked(Architecture::BestEffort, kbar, c_max, WELFARE_GRID);
        record_health(&format!("{lc}/value-table-B"), h);
        sv
    });
    let sv_r = t.span(format!("engine.table_r.{tag}"), round, |_| {
        let (sv, h) =
            engine.value_table_checked(Architecture::Reservation, kbar, c_max, WELFARE_GRID);
        record_health(&format!("{lc}/value-table-R"), h);
        sv
    });
    let ps = log_grid(1e-4, 0.9, PRICE_POINTS);
    let gamma = t.span(format!("engine.gamma.{tag}"), round, |_| {
        let (g, h) = engine.gamma_sweep_checked(&ps, &sv_b, &sv_r);
        record_health(&format!("{lc}/gamma"), h);
        record_caches(&lc, engine.cache_stats());
        g
    });

    let mut primed: Vec<u64> = cs
        .iter()
        .chain(&welfare_grid(kbar))
        .filter(|c| **c > 0.0)
        .map(|c| c.to_bits())
        .collect();
    primed.sort_unstable();
    primed.dedup();
    let (dh, dm) = (h1 - h0, m1 - m0);
    let counts = UtilityCounts {
        tag,
        prime_cpu_s: prime.cpu,
        prime_wall_s: prime.wall,
        threads,
        delta_probes: b1 - b0,
        memo_hit_ratio: if dh + dm == 0 {
            0.0
        } else {
            dh as f64 / (dh + dm) as f64
        },
        lane_evals: (primed.len() as u64 + (b1 - b0)) * load.len() as u64,
        retries: checked.health.retries,
    };
    let panels = t.span("bench.assemble", round, |_| {
        vec![
            Panel {
                title: format!("Utility - {which} Applications"),
                xlabel: "capacity C".into(),
                ylabel: "normalized utility".into(),
                series: vec![
                    Series::new("reservation R(C)", cs.clone(), r),
                    Series::new("best-effort B(C)", cs.clone(), b),
                ],
            },
            Panel {
                title: format!("Bandwidth Gap - {which} Applications"),
                xlabel: "capacity C".into(),
                ylabel: "Δ(C)".into(),
                series: vec![Series::new("bandwidth gap", cs.clone(), gap)],
            },
            Panel {
                title: format!("Equalizing Price Ratio - {which} Applications"),
                xlabel: "bandwidth price p".into(),
                ylabel: "γ(p)".into(),
                series: vec![Series::new("gamma", ps, gamma)],
            },
        ]
    });
    (panels, counts)
}

/// Outputs of one traced figure round.
#[derive(Debug)]
pub struct TracedRound {
    /// The figure, as the replica built it.
    pub figure: Figure,
    /// Per-utility counts, rigid first.
    pub counts: Vec<UtilityCounts>,
    /// Bytes of every file emitted into the round's directory.
    pub bytes_written: u64,
}

/// Figure 4 rebuilt call by call under spans: `load.build.algebraic`,
/// then per utility `engine.{new,prime,sweep,table_b,table_r,gamma}`,
/// then `report.emit` into `dir`. All under one `bench.fig4` root.
///
/// # Errors
///
/// Propagates emission I/O errors.
pub fn traced(t: &mut Tracer, round: u64, dir: &Path) -> std::io::Result<TracedRound> {
    t.span("bench.fig4", round, |t| {
        let load = t.span("load.build.algebraic", round, |_| {
            let model = Algebraic::from_mean(ALGEBRAIC_Z, PAPER_MEAN_LOAD)
                .unwrap_or_else(|e| panic!("fig4 calibration (z = 3, mean 100): {e:?}"));
            Arc::new(Tabulated::from_model(&model, TABLE_TOL, TABLE_CAP))
        });
        let (mut panels, rigid) = utility_panels(t, round, &load, Rigid::unit(), "Rigid", "rigid");
        let (adaptive_panels, adaptive) =
            utility_panels(t, round, &load, AdaptiveExp::paper(), "Adaptive", "adaptive");
        panels.extend(adaptive_panels);
        let figure = Figure {
            id: "fig4".into(),
            caption: "Algebraic distribution (z = 3): utility, bandwidth gap, and price ratio to equalize welfare"
                .into(),
            panels,
        };
        t.span("report.emit", round, |_| emit_figure(&figure, dir))?;
        let bytes_written = std::fs::read_dir(dir)?
            .filter_map(Result::ok)
            .filter_map(|e| e.metadata().ok())
            .map(|m| m.len())
            .sum();
        Ok(TracedRound { figure, counts: vec![rigid, adaptive], bytes_written })
    })
}
