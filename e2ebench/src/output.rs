//! Metric catalogue and the result line.

/// One metric of a workload, as printed.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value, printed with all its digits.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// End-to-end metrics (tracing off), printed by every workload.
pub const END_TO_END: [(&str, &str); 7] = [
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("work_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
];

/// Load families of the per-layer table-build shares.
pub const FAMILIES: [&str; 3] = ["poisson", "geometric", "algebraic"];
/// Utility families, as they label per-layer metrics.
pub const UTILITIES: [&str; 2] = ["rigid", "adaptive"];

/// Per-layer metrics (traced run), printed by every workload: a layer a
/// workload does not touch reads 0. Time per layer is reported as a share
/// of the traced pass's wall time (`obs.traced_wall_s`): self time of the
/// layer's spans over that wall.
#[must_use]
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = vec![
        ("obs.traced_wall_s".into(), "s"),
        ("obs.trace_overhead_ratio".into(), "ratio"),
        ("obs.attributed_share".into(), "ratio"),
        ("obs.spans".into(), "count"),
    ];
    for f in FAMILIES {
        out.push((format!("load.build_share.{f}"), "ratio"));
    }
    for u in UTILITIES {
        for (m, unit) in [
            ("engine.prime_share", "ratio"),
            ("engine.prime_busy_ratio", "ratio"),
            ("engine.sweep_share", "ratio"),
            ("engine.delta_probes", "count"),
            ("engine.memo_hit_ratio", "ratio"),
            ("engine.table_b_share", "ratio"),
            ("engine.table_r_share", "ratio"),
            ("engine.gamma_share", "ratio"),
            ("core.lane_evals", "count"),
        ] {
            out.push((format!("{m}.{u}"), unit));
        }
    }
    out.push(("engine.point_retries".into(), "count"));
    for f in FAMILIES {
        for u in UTILITIES {
            out.push((format!("engine.query_share.{f}-{u}"), "ratio"));
        }
    }
    out.push(("report.emit_share".into(), "ratio"));
    out.push(("report.bytes_written".into(), "bytes"));
    for d in ["best_effort", "reservation"] {
        out.push((format!("sim.run_share.{d}"), "ratio"));
    }
    out.push(("sim.shard_share".into(), "ratio"));
    out.push(("sim.merge_share".into(), "ratio"));
    out.push(("sim.events_per_s".into(), "1/s"));
    out.push(("sim.lane_restarts".into(), "count"));
    out.push(("sim.blocking_ratio.reservation".into(), "ratio"));
    out
}

/// Fill a metric list in catalogue order from `values`; catalogue entries
/// `values` lacks read 0 (a layer the workload never entered).
#[must_use]
pub fn fill(catalogue: &[(String, &'static str)], values: &[(String, f64)]) -> Vec<Metric> {
    catalogue
        .iter()
        .map(|(name, unit)| Metric {
            name: name.clone(),
            value: values
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0.0, |(_, v)| *v),
            unit,
        })
        .collect()
}

/// The end-to-end catalogue with owned names.
#[must_use]
pub fn end_to_end() -> Vec<(String, &'static str)> {
    END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect()
}

/// JSON string literal.
#[must_use]
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result object the benchmark prints as its last line.
#[must_use]
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(&m.name),
                m.value,
                json_string(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
