//! Tests of the benchmark itself: its metric catalogue matches
//! `BENCHMARK.json`, every correctness check trips on a perturbed output,
//! and the planner's query stream is a pure function of the seed.

use bevra_e2ebench::checks::{
    check_digest, check_gap, check_oracle, check_rel, compare_csv, FIGURE_REL_BUDGET,
    PINNED_FLEET_DIGEST,
};
use bevra_e2ebench::output::{end_to_end, fill, per_layer, result_line};
use bevra_e2ebench::planner::{self, Family, Util};
use bevra_e2ebench::{fig4, fleet};
use bevra_report::json::JsonValue;
use bevra_report::{Figure, Panel, Series};
use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("e2ebench sits in the repository root")
        .to_path_buf()
}

fn benchmark_json() -> JsonValue {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    JsonValue::parse(&text).expect("BENCHMARK.json parses")
}

fn listed(section: &str) -> Vec<(String, String)> {
    benchmark_json()
        .get(section)
        .and_then(JsonValue::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section} list"))
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(JsonValue::as_str)
                    .unwrap_or_default()
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn owned(cat: &[(String, &'static str)]) -> Vec<(String, String)> {
    cat.iter()
        .map(|(n, u)| (n.clone(), (*u).to_string()))
        .collect()
}

#[test]
fn printed_metric_names_and_units_equal_benchmark_json() {
    assert_eq!(owned(&end_to_end()), listed("end_to_end"));
    assert_eq!(owned(&per_layer()), listed("per_layer"));
    // Whatever subset a workload measures, the printed list is the whole
    // catalogue, in catalogue order.
    let printed = fill(&per_layer(), &[("sim.events_per_s".into(), 1.0)]);
    let names: Vec<String> = printed.iter().map(|m| m.name.clone()).collect();
    let want: Vec<String> = per_layer().into_iter().map(|(n, _)| n).collect();
    assert_eq!(names, want);
}

#[test]
fn workloads_listed_in_benchmark_json_are_ones_the_program_runs() {
    let names: Vec<String> = benchmark_json()
        .get("workloads")
        .and_then(JsonValue::as_arr)
        .expect("workloads list")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(JsonValue::as_str)
                .expect("workload name")
                .to_string()
        })
        .collect();
    // `planner_mix` runs by hand only: see the README's note on its spread.
    assert_eq!(names, ["fig4_full", "fleet_mix"]);
    for n in &names {
        assert!(
            bevra_e2ebench::workloads::WORKLOADS.contains(&n.as_str()),
            "{n}"
        );
    }
}

#[test]
fn result_line_has_exactly_the_contract_keys() {
    let metrics = fill(&end_to_end(), &[("wall_s".into(), 1.25)]);
    let line = result_line(true, 3, 0, &metrics);
    let v = JsonValue::parse(&line).expect("result line is JSON");
    let JsonValue::Obj(fields) = &v else {
        panic!("result is an object")
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    let wall = v
        .get("metrics")
        .and_then(|m| m.get("wall_s"))
        .expect("wall_s");
    assert_eq!(wall.get("value").and_then(JsonValue::as_f64), Some(1.25));
    assert_eq!(wall.get("unit").and_then(JsonValue::as_str), Some("s"));
}

#[test]
fn edited_csv_cell_trips_the_golden_check() {
    let golden =
        std::fs::read_to_string(repo_root().join(fig4::GOLDEN_DIR).join("fig4-panel2.csv"))
            .expect("golden");
    assert_eq!(compare_csv(&golden, &golden, FIGURE_REL_BUDGET), Ok(48 * 2));
    // Nudge one Δ cell by one part in 10^10: far outside the budget.
    let mut lines: Vec<String> = golden.lines().map(String::from).collect();
    let (x, y) = lines[10].split_once(',').expect("two columns");
    let (x, y) = (x.to_string(), y.parse::<f64>().expect("numeric"));
    let nudged = y * (1.0 + 1e-10);
    lines[10] = format!("{x},{nudged}");
    let edited = lines.join("\n") + "\n";
    let err = compare_csv(&golden, &edited, FIGURE_REL_BUDGET).expect_err("edited cell must trip");
    assert!(err.contains("line 11"), "{err}");
    // A drift inside the budget passes.
    let tiny = y * (1.0 + 1e-15);
    lines[10] = format!("{x},{tiny}");
    assert!(compare_csv(&golden, &(lines.join("\n") + "\n"), FIGURE_REL_BUDGET).is_ok());
    // A dropped row or an edited header trips too.
    assert!(compare_csv(
        &golden,
        &golden.lines().take(20).collect::<Vec<_>>().join("\n"),
        FIGURE_REL_BUDGET
    )
    .is_err());
    assert!(compare_csv(
        &golden,
        &golden.replacen("bandwidth gap", "gap", 1),
        FIGURE_REL_BUDGET
    )
    .is_err());
}

#[test]
fn figure_check_counts_non_finite_points_and_missing_files() {
    let fig = Figure {
        id: "fig4".into(),
        caption: String::new(),
        panels: vec![Panel {
            title: "t".into(),
            xlabel: "x".into(),
            ylabel: "y".into(),
            series: vec![Series::new(
                "s",
                vec![1.0, 2.0, 3.0],
                vec![0.5, f64::NAN, 0.7],
            )],
        }],
    };
    let empty = std::env::temp_dir().join("e2ebench-test-no-such-dir");
    let tally = fig4::check(&fig, &empty, &repo_root().join(fig4::GOLDEN_DIR));
    // 3 values + 6 panel files: one NaN and six unreadable emitted CSVs.
    assert_eq!(tally.attempted, 9);
    assert_eq!(tally.failed, 7);
}

fn adaptive_algebraic_query() -> planner::Query {
    planner::Query {
        id: 0,
        family: Family::Algebraic { z: 3.0 },
        kbar: 100.0,
        utility: Util::Adaptive,
        capacity: 120.0,
        oracle: true,
    }
}

#[test]
fn nudged_delta_trips_the_residual_and_oracle_checks() {
    for q in [
        adaptive_algebraic_query(),
        planner::Query {
            family: Family::Geometric,
            utility: Util::Rigid,
            capacity: 80.0,
            ..adaptive_algebraic_query()
        },
        planner::Query {
            family: Family::Poisson,
            capacity: 95.0,
            ..adaptive_algebraic_query()
        },
    ] {
        let out = planner::run(&q, None);
        assert_eq!(out.tally.failed, 0, "{q:?}: {:?}", out.tally.failures);
        assert_eq!(out.tally.attempted, 3, "solve, residual and oracle checks");
        let a = out.answer;
        assert!(a.bandwidth_gap > 0.0, "{q:?}: a positive gap to nudge");
        let table = std::sync::Arc::new(planner::build_table(q.family, q.kbar));
        let b = |x: f64| match q.utility {
            Util::Rigid => {
                bevra_core::DiscreteModel::new(table.clone(), bevra_utility::Rigid::unit())
                    .best_effort(x)
            }
            Util::Adaptive => {
                bevra_core::DiscreteModel::new(table.clone(), bevra_utility::AdaptiveExp::paper())
                    .best_effort(x)
            }
        };
        let c = q.capacity;
        assert!(check_gap(&b, a.reservation, c, a.bandwidth_gap, q.kbar).is_ok());
        for nudged in [
            a.bandwidth_gap + 0.01 * q.kbar,
            a.bandwidth_gap - 0.01 * q.kbar,
        ] {
            assert!(
                check_gap(&b, a.reservation, c, nudged, q.kbar).is_err(),
                "{q:?}: Δ = {nudged} must trip"
            );
        }
        assert!(check_gap(&b, a.reservation, c, -1.0, q.kbar).is_err());
        assert!(
            check_gap(&b, a.reservation, c, 0.0, q.kbar).is_err(),
            "a zero gap where R > B must trip"
        );
        assert!(check_oracle(a.bandwidth_gap, a.bandwidth_gap, c).is_ok());
        assert!(check_oracle(a.bandwidth_gap * (1.0 + 1e-9), a.bandwidth_gap, c).is_err());
    }
}

#[test]
fn flipped_digest_and_perturbed_statistics_trip_the_fleet_checks() {
    assert!(check_digest(PINNED_FLEET_DIGEST, PINNED_FLEET_DIGEST).is_ok());
    assert!(check_digest(PINNED_FLEET_DIGEST ^ 1, PINNED_FLEET_DIGEST).is_err());
    assert!(check_rel("occupancy", 2500.0 * 1.01, 2500.0, 0.02).is_ok());
    assert!(check_rel("occupancy", 2500.0 * 1.05, 2500.0, 0.02).is_err());
    assert!(check_rel("occupancy", f64::NAN, 2500.0, 0.02).is_err());
    // The real pinned run passes; a run at another seed cannot pass the
    // pin (its digest differs), while its statistics still hold.
    let pinned = fleet::run(&fleet::best_effort(fleet::DEFAULT_SEED));
    let clean = fleet::check_best_effort(&pinned, fleet::DEFAULT_SEED);
    assert_eq!(
        (clean.attempted, clean.failed),
        (3, 0),
        "{:?}",
        clean.failures
    );
    let other = fleet::run(&fleet::best_effort(fleet::DEFAULT_SEED + 1));
    let at_other = fleet::check_best_effort(&other, fleet::DEFAULT_SEED + 1);
    assert_eq!(
        (at_other.attempted, at_other.failed),
        (2, 0),
        "{:?}",
        at_other.failures
    );
    let as_if_pinned = fleet::check_best_effort(&other, fleet::DEFAULT_SEED);
    assert_eq!(
        as_if_pinned.failed, 1,
        "a different digest must trip the pin"
    );
    let rsv = fleet::run(&fleet::reservation(fleet::DEFAULT_SEED));
    let t = fleet::check_reservation(&rsv);
    assert_eq!((t.attempted, t.failed), (3, 0), "{:?}", t.failures);
    assert_eq!(fleet::lane_tally(&rsv).failed, 0);
}

#[test]
fn query_stream_is_a_pure_function_of_the_seed() {
    let a = planner::stream(42);
    assert_eq!(a, planner::stream(42));
    assert_ne!(a, planner::stream(43));
    assert_eq!(a.len(), planner::BLOCKS * planner::BLOCK);
    for (i, q) in a.iter().enumerate() {
        assert_eq!(q.id, i as u64);
    }
    // Every block has the same class mix and one oracle-checked query.
    for block in a.chunks(planner::BLOCK) {
        let count = |f: &dyn Fn(&planner::Query) -> bool| block.iter().filter(|q| f(q)).count();
        assert_eq!(count(&|q| q.family == Family::Poisson), 3);
        assert_eq!(count(&|q| q.family == Family::Geometric), 3);
        assert_eq!(
            count(&|q| matches!(q.family, Family::Algebraic { .. }) && q.utility == Util::Rigid),
            8
        );
        assert_eq!(
            count(&|q| matches!(q.family, Family::Algebraic { .. }) && q.utility == Util::Adaptive),
            6
        );
        assert_eq!(count(&|q| q.oracle), 1);
        for q in block {
            assert!((planner::KBAR_RANGE.0..planner::KBAR_RANGE.1).contains(&q.kbar));
            let ratio = q.capacity / q.kbar;
            assert!(
                ratio >= planner::CAPACITY_RATIO.0 * (1.0 - 1e-12)
                    && ratio < planner::CAPACITY_RATIO.1
            );
            if let Family::Algebraic { z } = q.family {
                assert!((planner::Z_RANGE.0..planner::Z_RANGE.1).contains(&z));
            }
        }
    }
}

#[test]
fn refuses_to_run_with_a_bevra_variable_set_or_outside_the_repository_root() {
    let bin = env!("CARGO_BIN_EXE_bevra-e2ebench");
    let args = [
        "--workload",
        "fleet_mix",
        "--seed",
        "1",
        "--seconds",
        "1",
        "--trace",
        "0",
    ];
    let refused = std::process::Command::new(bin)
        .args(args)
        .current_dir(repo_root())
        .env("BEVRA_THREADS", "1")
        .output()
        .expect("benchmark binary runs");
    assert_eq!(refused.status.code(), Some(2));
    assert!(refused.stdout.is_empty(), "no result may be printed");
    assert!(String::from_utf8_lossy(&refused.stderr).contains("BEVRA_THREADS"));
    let elsewhere = std::process::Command::new(bin)
        .args(args)
        .current_dir(std::env::temp_dir())
        .output()
        .expect("benchmark binary runs");
    assert_eq!(elsewhere.status.code(), Some(2));
    assert!(elsewhere.stdout.is_empty());
}
