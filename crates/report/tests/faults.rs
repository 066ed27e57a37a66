//! Injected-I/O-fault tests for artifact persistence.
//!
//! Every test installs a `bevra_faults` plan; the install guard
//! serializes them so the process-global injection state never bleeds
//! between tests. Keep plan-free tests out of this binary.

use bevra_faults::{install, FaultKind, FaultPlan, FaultRule};
use bevra_report::persist::{load_figure, save_figure};
use bevra_report::series::{Figure, Panel, Series};
use std::path::PathBuf;

fn sample_figure(tag: &str) -> Figure {
    Figure {
        id: format!("faults-{tag}"),
        caption: "io fault test".into(),
        panels: vec![Panel {
            title: "p".into(),
            xlabel: "x".into(),
            ylabel: "y".into(),
            series: vec![Series::new("s", vec![1.0, 2.0], vec![0.5, 0.25])],
        }],
    }
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("bevra-report-faults-{tag}"));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// A kill-mid-write (permanent I/O fault, which leaves a truncated temp
/// payload before erroring) must leave the complete previous artifact on
/// disk — parseable, never a truncated hybrid.
#[test]
fn failed_overwrite_leaves_previous_figure_parseable() {
    let dir = tmpdir("overwrite");
    let old = sample_figure("overwrite");
    let path = {
        // Write the first version cleanly under a plan with no I/O rules.
        let _guard = install(FaultPlan::seeded(0));
        save_figure(&old, &dir).expect("clean save")
    };
    let mut newer = sample_figure("overwrite");
    newer.caption = "second version that must not land".into();
    let plan = FaultPlan::seeded(0)
        .rule(FaultRule::always(FaultKind::IoPermanent, "io/report/figure"));
    let _guard = install(plan);
    save_figure(&newer, &dir).expect_err("injected permanent fault");
    let on_disk = load_figure(&path).expect("old artifact still parses");
    assert_eq!(on_disk, old, "old artifact byte-complete after failed overwrite");
    let mut temp_prefix = path.file_name().expect("artifact file name").to_os_string();
    temp_prefix.push(".tmp");
    let temp_prefix = temp_prefix.to_string_lossy().into_owned();
    assert!(
        std::fs::read_dir(&dir)
            .unwrap()
            .all(|e| !e.unwrap().file_name().to_string_lossy().starts_with(&temp_prefix)),
        "no truncated temp file left behind"
    );
}

/// A fresh path whose first write fails must end up absent — round-trip
/// or nothing, never a partial file.
#[test]
fn failed_first_write_leaves_no_artifact() {
    let dir = tmpdir("fresh");
    let plan = FaultPlan::seeded(0)
        .rule(FaultRule::always(FaultKind::IoPermanent, "io/report/figure"));
    let _guard = install(plan);
    save_figure(&sample_figure("fresh"), &dir).expect_err("injected fault");
    assert!(
        std::fs::read_dir(&dir).unwrap().next().is_none(),
        "no partial artifact in {}",
        dir.display()
    );
}

/// Transient faults are retried (with the deterministic virtual clock —
/// no real sleeping) and the new artifact lands complete.
#[test]
fn transient_fault_retries_and_new_artifact_lands() {
    let dir = tmpdir("transient");
    let plan = FaultPlan::seeded(0)
        .rule(FaultRule::always(FaultKind::IoTransient, "io/report/figure").with_n(2));
    let _guard = install(plan);
    let fig = sample_figure("transient");
    let t0 = std::time::Instant::now();
    let path = save_figure(&fig, &dir).expect("retries ride out the transient fault");
    assert!(
        t0.elapsed() < std::time::Duration::from_millis(500),
        "virtual clock: no real backoff sleeps under an active plan"
    );
    assert_eq!(load_figure(&path).expect("new artifact parses"), fig);
}
