//! Workspace acceptance for the second observability layer: the cross-run
//! ledger's append/parse round-trip (including concurrent writers and
//! torn-line recovery) and the flight recorder's black box under an
//! injected engine-site panic.

use bevra_engine::ledger::{LedgerRecord, LEDGER_FILE};
use bevra_report::json::JsonValue;
use bevra_report::ledger::parse_ledger;
use std::path::PathBuf;

fn tmp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("bevra-obs-accept-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn record(id: &str, digest: u64) -> LedgerRecord {
    LedgerRecord {
        id: id.into(),
        unix_ms: 1_754_000_000_000,
        fingerprint: 0xF00D,
        kernel: "batch".into(),
        simd: "autovec".into(),
        threads: 4,
        points: 240,
        seconds: 0.125,
        cache_hits: 12,
        cache_misses: 4,
        ok: 238,
        degraded: 1,
        failed: 1,
        non_finite: 2,
        digest,
    }
}

/// Sequential appends parse back exactly, in order, with nothing skipped.
#[test]
fn ledger_append_parse_round_trip() {
    let path = tmp_dir("roundtrip").join(LEDGER_FILE);
    let written: Vec<LedgerRecord> =
        (0..5).map(|i| record(&format!("fig{i}"), 0x1000 + i)).collect();
    for r in &written {
        r.append(&path).expect("append");
    }
    let parsed = parse_ledger(&std::fs::read_to_string(&path).expect("read ledger"));
    assert_eq!(parsed.skipped, 0);
    assert_eq!(parsed.records, written);
}

/// Concurrent appenders (each line a single `O_APPEND` write) interleave
/// at line granularity: every line lands intact and parses back.
#[test]
fn ledger_survives_concurrent_writers() {
    const WRITERS: u64 = 8;
    const LINES: u64 = 40;
    let path = tmp_dir("concurrent").join(LEDGER_FILE);
    // Pre-create the parent so racing appenders don't race create_dir_all.
    std::fs::create_dir_all(path.parent().expect("parent")).expect("mkdir");
    std::thread::scope(|scope| {
        for w in 0..WRITERS {
            let path = &path;
            scope.spawn(move || {
                for i in 0..LINES {
                    record(&format!("w{w}"), (w << 32) | i).append(path).expect("append");
                }
            });
        }
    });
    let parsed = parse_ledger(&std::fs::read_to_string(&path).expect("read ledger"));
    assert_eq!(parsed.skipped, 0, "no line was torn by concurrent appends");
    assert_eq!(parsed.records.len(), (WRITERS * LINES) as usize);
    for w in 0..WRITERS {
        let digests: Vec<u64> = parsed
            .records
            .iter()
            .filter(|r| r.id == format!("w{w}"))
            .map(|r| r.digest & 0xFFFF_FFFF)
            .collect();
        assert_eq!(
            digests,
            (0..LINES).collect::<Vec<u64>>(),
            "writer {w}: its own lines stay in append order"
        );
    }
}

/// A torn final line — a crashed writer — is skipped and counted; every
/// intact line still parses.
#[test]
fn ledger_recovers_from_torn_lines() {
    let path = tmp_dir("torn").join(LEDGER_FILE);
    record("fig2", 0xAA).append(&path).expect("append");
    record("fig3", 0xBB).append(&path).expect("append");
    // Simulate a crash mid-append: a prefix of a valid line, no newline.
    let torn = record("fig4", 0xCC).to_line();
    let mut text = std::fs::read_to_string(&path).expect("read");
    text.push_str(&torn[..torn.len() / 2]);
    std::fs::write(&path, &text).expect("write torn tail");
    let parsed = parse_ledger(&std::fs::read_to_string(&path).expect("reread"));
    assert_eq!(parsed.skipped, 1, "the torn tail is counted, not fatal");
    assert_eq!(parsed.records.len(), 2);
    assert_eq!(parsed.records[1].id, "fig3");
}

/// An injected `BEVRA_FAULTS`-style panic at the engine's per-point site
/// leaves a parseable black box whose final event names `engine/point`,
/// even though the sweep isolates the panic and completes.
#[test]
fn injected_engine_panic_writes_blackbox() {
    use bevra::analysis::DiscreteModel;
    use bevra::engine::{ExecMode, SweepEngine};
    use bevra::load::{Poisson, Tabulated};
    use bevra::utility::Rigid;
    use bevra_faults::{install, FaultKind, FaultPlan, FaultRule};

    // Order matters: the silencer must go in before the blackbox hook so
    // the blackbox hook (chained in front) still sees injected panics.
    bevra_check::chaos::silence_injected_panics();
    let dir = tmp_dir("blackbox");
    bevra_obs::recorder::arm_blackbox("obs-accept", &dir);
    bevra_obs::recorder::set_recording(true);

    let plan = FaultPlan::seeded(0xB1AC_480C)
        .rule(FaultRule::with_prob(FaultKind::Panic, "engine/point", 0.5));
    let load = Tabulated::from_model(&Poisson::new(20.0), 1e-12, 1 << 10);
    let cs: Vec<f64> = (1..=16).map(|i| 3.0 * f64::from(i)).collect();
    let checked = {
        let _guard = install(plan);
        SweepEngine::with_mode(DiscreteModel::new(load, Rigid::unit()), ExecMode::Serial)
            .sweep_checked(&cs)
    };
    assert!(checked.health.failed > 0, "the injected panic never landed");
    assert_eq!(checked.health.total(), cs.len() as u64, "sweep still accounted fully");

    let path = dir.join("obs-accept-blackbox.jsonl");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("no blackbox at {}: {e}", path.display()));
    let lines: Vec<&str> = text.lines().collect();
    assert!(lines.len() >= 2, "blackbox carries events plus the panic record");
    for line in &lines {
        JsonValue::parse(line).unwrap_or_else(|e| panic!("bad blackbox line `{line}`: {e}"));
    }
    let last = JsonValue::parse(lines[lines.len() - 1]).expect("parsed above");
    assert_eq!(last.get("kind").and_then(JsonValue::as_str), Some("panic"));
    assert_eq!(
        last.get("site").and_then(JsonValue::as_str),
        Some("engine/point"),
        "final event names the tripped engine site"
    );
    // The body contains the fault-trip event the observer recorded.
    assert!(
        text.contains("\"kind\":\"fault-trip\"") && text.contains("engine/point"),
        "fault-trip events made it into the box: {text}"
    );
}
