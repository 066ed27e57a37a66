//! Reader side of the cross-run ledger (`results/ledger.jsonl`).
//!
//! The writer side lives in `bevra-engine` ([`bevra_engine::ledger`]):
//! every figure run appends one CRC-tailed JSONL line. This module parses
//! the file back — skipping (and counting) torn, corrupt, or
//! foreign-schema lines instead of failing on them — renders trend tables
//! over the history, and detects two kinds of regression the `obs-report`
//! binary gates on:
//!
//! * **digest** — two runs with the same id, config fingerprint, and
//!   kernel produced different result digests: the sweep is no longer
//!   deterministic (or the model changed without re-keying);
//! * **perf** — the latest run of an id/kernel pair is more than
//!   `threshold ×` the median ns-per-point of its predecessors.

use crate::json::JsonValue;
use crate::table::markdown_table;
use bevra_engine::ledger::{fnv1a, LedgerRecord, LEDGER_SCHEMA};

/// A parsed ledger: the records that survived validation plus how many
/// lines were skipped (torn tails, CRC mismatches, foreign schemas).
#[derive(Debug, Default)]
pub struct ParsedLedger {
    /// Valid records, in file (append) order.
    pub records: Vec<LedgerRecord>,
    /// Lines that failed CRC, schema, or field validation.
    pub skipped: usize,
}

fn get_u64(v: &JsonValue, key: &str) -> Option<u64> {
    let n = v.get(key)?.as_f64()?;
    if n.is_finite() && n >= 0.0 {
        Some(n as u64)
    } else {
        None
    }
}

fn get_hex(v: &JsonValue, key: &str) -> Option<u64> {
    u64::from_str_radix(v.get(key)?.as_str()?, 16).ok()
}

fn parse_line(line: &str) -> Option<LedgerRecord> {
    // CRC first: everything before `,"crc":"` must hash to the recorded
    // value, so a torn tail or bit flip is rejected before JSON parsing.
    let crc_at = line.rfind(",\"crc\":\"")?;
    let doc = JsonValue::parse(line).ok()?;
    if doc.get("schema")?.as_str()? != LEDGER_SCHEMA {
        return None;
    }
    if get_hex(&doc, "crc")? != fnv1a(&line.as_bytes()[..crc_at]) {
        return None;
    }
    Some(LedgerRecord {
        id: doc.get("id")?.as_str()?.to_string(),
        unix_ms: get_u64(&doc, "unix_ms")?,
        fingerprint: get_hex(&doc, "fingerprint")?,
        kernel: doc.get("kernel")?.as_str()?.to_string(),
        threads: get_u64(&doc, "threads")?,
        points: get_u64(&doc, "points")?,
        seconds: doc.get("seconds")?.as_f64().unwrap_or(f64::NAN),
        cache_hits: get_u64(&doc, "cache_hits")?,
        cache_misses: get_u64(&doc, "cache_misses")?,
        ok: get_u64(&doc, "ok")?,
        degraded: get_u64(&doc, "degraded")?,
        failed: get_u64(&doc, "failed")?,
        non_finite: get_u64(&doc, "non_finite")?,
        // The SIMD tier stamp also arrived mid-schema: older lines carry
        // no field and parse as "unknown" (append-tolerant, never skipped).
        simd: doc
            .get("simd")
            .and_then(JsonValue::as_str)
            .unwrap_or("unknown")
            .to_string(),
        digest: get_hex(&doc, "digest")?,
    })
}

/// Parse ledger text: one record per valid line, counting every invalid
/// non-empty line as skipped.
#[must_use]
pub fn parse_ledger(text: &str) -> ParsedLedger {
    let mut out = ParsedLedger::default();
    for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        match parse_line(line) {
            Some(rec) => out.records.push(rec),
            None => out.skipped += 1,
        }
    }
    out
}

/// One detected regression.
#[derive(Debug, Clone, PartialEq)]
pub enum Regression {
    /// Same id + fingerprint + kernel, different result digest.
    Digest {
        /// Run id of the offending pair.
        id: String,
        /// Kernel capability stamp shared by the pair.
        kernel: String,
        /// Digest of the earlier run.
        prev: u64,
        /// Digest of the later run.
        got: u64,
    },
    /// Same id + fingerprint + kernel, different digest, but the runs
    /// also report **different SIMD tiers**. The dispatched kernels are
    /// bitwise across tiers by contract, so this *should* never happen —
    /// but a cross-machine ledger (or a `BEVRA_SIMD` override) is the one
    /// place an honest tier difference and a genuine determinism break
    /// are indistinguishable. Surfaced as an informational divergence
    /// instead of a gating regression.
    TierDivergence {
        /// Run id of the offending pair.
        id: String,
        /// Kernel capability stamp shared by the pair.
        kernel: String,
        /// SIMD tier of the earlier run.
        prev_simd: String,
        /// SIMD tier of the later run.
        got_simd: String,
        /// Digest of the earlier run.
        prev: u64,
        /// Digest of the later run.
        got: u64,
    },
    /// Latest ns-per-point blew past the history for this id + kernel.
    Perf {
        /// Run id.
        id: String,
        /// Kernel capability stamp.
        kernel: String,
        /// Median ns-per-point of the prior runs.
        baseline_ns: f64,
        /// The latest run's ns-per-point.
        latest_ns: f64,
    },
}

impl Regression {
    /// Whether this finding should fail the gate (`obs-report` exit 1).
    /// Tier divergences are reported but non-fatal.
    #[must_use]
    pub fn is_fatal(&self) -> bool {
        !matches!(self, Regression::TierDivergence { .. })
    }
}

impl std::fmt::Display for Regression {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Regression::Digest { id, kernel, prev, got } => write!(
                f,
                "digest regression: {id} ({kernel}): {prev:016x} -> {got:016x} \
                 for the same config fingerprint"
            ),
            Regression::TierDivergence { id, kernel, prev_simd, got_simd, prev, got } => write!(
                f,
                "digest divergence across SIMD tiers: {id} ({kernel}): \
                 {prev:016x} [{prev_simd}] vs {got:016x} [{got_simd}] — \
                 expected bitwise parity; compare tiers on one machine to \
                 decide whether this is a determinism break"
            ),
            Regression::Perf { id, kernel, baseline_ns, latest_ns } => write!(
                f,
                "perf regression: {id} ({kernel}): {latest_ns:.0} ns/point vs \
                 {baseline_ns:.0} ns/point historical median"
            ),
        }
    }
}

/// Scan records (in append order) for digest and perf regressions.
///
/// Digest: within each (id, fingerprint, kernel) group every record must
/// repeat the first record's digest. Perf: for each (id, kernel) pair
/// with at least [`MIN_PERF_HISTORY`] timed runs, the latest ns-per-point
/// must stay within `threshold ×` the median of its predecessors.
#[must_use]
pub fn find_regressions(records: &[LedgerRecord], threshold: f64) -> Vec<Regression> {
    let mut out = Vec::new();
    // Digest: map (id, fingerprint, kernel) -> first (digest, simd) seen.
    // A mismatch within one tier is a determinism regression; across
    // tiers it is flagged as an informational divergence instead.
    type FirstSeen<'a> = ((&'a str, u64, &'a str), (u64, &'a str));
    let mut first: Vec<FirstSeen<'_>> = Vec::new();
    for r in records {
        let key = (r.id.as_str(), r.fingerprint, r.kernel.as_str());
        match first.iter().find(|(k, _)| *k == key) {
            Some(&(_, (digest, simd))) if digest != r.digest => {
                if simd == r.simd {
                    out.push(Regression::Digest {
                        id: r.id.clone(),
                        kernel: r.kernel.clone(),
                        prev: digest,
                        got: r.digest,
                    });
                } else {
                    out.push(Regression::TierDivergence {
                        id: r.id.clone(),
                        kernel: r.kernel.clone(),
                        prev_simd: simd.to_string(),
                        got_simd: r.simd.clone(),
                        prev: digest,
                        got: r.digest,
                    });
                }
            }
            Some(_) => {}
            None => first.push((key, (r.digest, r.simd.as_str()))),
        }
    }
    // Perf: per (id, kernel), latest vs median of priors.
    let mut pairs: Vec<(&str, &str)> =
        records.iter().map(|r| (r.id.as_str(), r.kernel.as_str())).collect();
    pairs.sort_unstable();
    pairs.dedup();
    for (id, kernel) in pairs {
        let ns: Vec<f64> = records
            .iter()
            .filter(|r| r.id == id && r.kernel == kernel && r.points > 0)
            .map(LedgerRecord::ns_per_point)
            .filter(|n| n.is_finite() && *n > 0.0)
            .collect();
        if ns.len() < MIN_PERF_HISTORY {
            continue;
        }
        let latest = ns[ns.len() - 1];
        let mut prior: Vec<f64> = ns[..ns.len() - 1].to_vec();
        prior.sort_unstable_by(f64::total_cmp);
        let baseline = prior[prior.len() / 2];
        if baseline > 0.0 && latest > threshold * baseline {
            out.push(Regression::Perf {
                id: id.to_string(),
                kernel: kernel.to_string(),
                baseline_ns: baseline,
                latest_ns: latest,
            });
        }
    }
    out
}

/// Minimum timed runs of an (id, kernel) pair before the perf gate
/// engages: one latest plus at least two priors, so a single noisy first
/// run can't trip it.
pub const MIN_PERF_HISTORY: usize = 3;

/// Default perf-regression threshold (same headroom as the perf-smoke
/// gate over `BENCH_baseline.json`).
pub const DEFAULT_THRESHOLD: f64 = 3.0;

/// Render the ledger history as a Markdown trend table, newest last.
#[must_use]
pub fn trend_table(records: &[LedgerRecord]) -> String {
    let rows: Vec<Vec<String>> = records
        .iter()
        .map(|r| {
            let hit_rate = {
                let total = r.cache_hits + r.cache_misses;
                if total == 0 {
                    "-".to_string()
                } else {
                    format!("{:.2}", r.cache_hits as f64 / total as f64)
                }
            };
            vec![
                r.id.clone(),
                r.unix_ms.to_string(),
                if r.kernel.is_empty() { "-".to_string() } else { r.kernel.clone() },
                if r.simd.is_empty() { "-".to_string() } else { r.simd.clone() },
                r.threads.to_string(),
                r.points.to_string(),
                format!("{:.0}", r.ns_per_point()),
                hit_rate,
                format!("{}/{}/{}", r.ok, r.degraded, r.failed),
                format!("{:016x}", r.digest),
            ]
        })
        .collect();
    markdown_table(
        &[
            "id",
            "unix_ms",
            "kernel",
            "simd",
            "threads",
            "points",
            "ns/point",
            "cache-hit",
            "ok/deg/fail",
            "digest",
        ],
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: &str, fingerprint: u64, digest: u64, seconds: f64) -> LedgerRecord {
        LedgerRecord {
            id: id.into(),
            unix_ms: 1_754_000_000_000,
            fingerprint,
            kernel: "batch".into(),
            simd: "autovec".into(),
            threads: 4,
            points: 100,
            seconds,
            cache_hits: 3,
            cache_misses: 1,
            ok: 100,
            degraded: 0,
            failed: 0,
            non_finite: 0,
            digest,
        }
    }

    #[test]
    fn round_trips_written_lines() {
        let a = rec("fig2", 0xAB, 0xCD, 0.25);
        let b = rec("fig3", 0xEF, 0x01, 0.5);
        let text = format!("{}\n{}\n", a.to_line(), b.to_line());
        let parsed = parse_ledger(&text);
        assert_eq!(parsed.skipped, 0);
        assert_eq!(parsed.records, vec![a, b]);
    }

    #[test]
    fn lines_with_retired_recovery_counters_still_parse() {
        // A v1 line written while the fleet and sweeps still retried:
        // same schema tag, plus retries/breaker_trips/restarts fields.
        // Rebuild one by splicing them into a fresh line and re-CRCing.
        let line = rec("fig2", 0xAB, 0xCD, 0.25).to_line();
        let crc_at = line.rfind(",\"crc\":\"").unwrap();
        let old_prefix = line[..crc_at].replace(
            "\"non_finite\":0,",
            "\"non_finite\":0,\"retries\":2,\"breaker_trips\":0,\"restarts\":1,",
        );
        assert_ne!(old_prefix, line[..crc_at], "the counters were spliced in");
        let old_line = format!("{old_prefix},\"crc\":\"{:016x}\"}}", fnv1a(old_prefix.as_bytes()));
        let parsed = parse_ledger(&old_line);
        assert_eq!(parsed.skipped, 0, "old lines must still parse");
        assert_eq!(parsed.records, vec![rec("fig2", 0xAB, 0xCD, 0.25)]);
    }

    #[test]
    fn pre_simd_lines_parse_as_unknown_tier() {
        // A line written before the simd stamp existed: splice the field
        // out and re-CRC, exactly as an old writer would have produced it.
        let line = rec("fig2", 0xAB, 0xCD, 0.25).to_line();
        let crc_at = line.rfind(",\"crc\":\"").unwrap();
        let old_prefix = line[..crc_at].replace(",\"simd\":\"autovec\"", "");
        assert!(!old_prefix.contains("simd"), "splice failed: {old_prefix}");
        let old_line = format!("{old_prefix},\"crc\":\"{:016x}\"}}", fnv1a(old_prefix.as_bytes()));
        let parsed = parse_ledger(&old_line);
        assert_eq!(parsed.skipped, 0, "pre-simd lines must still parse");
        assert_eq!(parsed.records.len(), 1);
        assert_eq!(parsed.records[0].simd, "unknown");
        assert_eq!(parsed.records[0].digest, 0xCD, "other fields unaffected");
    }

    #[test]
    fn cross_tier_digest_mismatch_is_divergence_not_regression() {
        let mut a = rec("fig2", 0xAA, 0x11, 0.2);
        a.simd = "avx512".into();
        let mut b = rec("fig2", 0xAA, 0x33, 0.2);
        b.simd = "unknown".into(); // e.g. appended by an older binary
        let regs = find_regressions(&[a.clone(), b], DEFAULT_THRESHOLD);
        assert_eq!(regs.len(), 1);
        match &regs[0] {
            Regression::TierDivergence { prev_simd, got_simd, prev, got, .. } => {
                assert_eq!((prev_simd.as_str(), got_simd.as_str()), ("avx512", "unknown"));
                assert_eq!((*prev, *got), (0x11, 0x33));
                assert!(!regs[0].is_fatal(), "divergence must not gate");
            }
            other => panic!("expected tier divergence, got {other:?}"),
        }
        // Same tier, same mismatch: a genuine (fatal) digest regression.
        let mut c = rec("fig2", 0xAA, 0x33, 0.2);
        c.simd = "avx512".into();
        let regs = find_regressions(&[a, c], DEFAULT_THRESHOLD);
        assert!(matches!(&regs[0], Regression::Digest { .. }));
        assert!(regs[0].is_fatal());
    }

    #[test]
    fn torn_and_corrupt_lines_are_skipped_not_fatal() {
        let good = rec("fig2", 1, 2, 0.25).to_line();
        let torn = &good[..good.len() / 2];
        let mut flipped = good.clone();
        // Flip a digit inside the payload; the CRC no longer matches.
        flipped = flipped.replacen("\"points\":100", "\"points\":999", 1);
        let foreign = "{\"schema\":\"other-v9\",\"x\":1}";
        let text = format!("{good}\n{torn}\n{flipped}\n{foreign}\n\n{good}\n");
        let parsed = parse_ledger(&text);
        assert_eq!(parsed.records.len(), 2, "only the intact lines parse");
        assert_eq!(parsed.skipped, 3);
    }

    #[test]
    fn digest_regression_detected_same_fingerprint_only() {
        let records = vec![
            rec("fig2", 0xAA, 0x11, 0.2),
            rec("fig2", 0xAA, 0x11, 0.2), // same digest: fine
            rec("fig2", 0xBB, 0x22, 0.2), // different fingerprint: new group
            rec("fig2", 0xAA, 0x33, 0.2), // regression
        ];
        let regs = find_regressions(&records, DEFAULT_THRESHOLD);
        assert_eq!(regs.len(), 1);
        match &regs[0] {
            Regression::Digest { id, prev, got, .. } => {
                assert_eq!(id, "fig2");
                assert_eq!((*prev, *got), (0x11, 0x33));
            }
            other => panic!("expected digest regression, got {other:?}"),
        }
    }

    #[test]
    fn perf_regression_needs_history_and_threshold() {
        let mut records = vec![
            rec("fig2", 1, 9, 0.10),
            rec("fig2", 1, 9, 0.11),
            rec("fig2", 1, 9, 0.09),
        ];
        assert!(find_regressions(&records, 3.0).is_empty(), "steady history is clean");
        records.push(rec("fig2", 1, 9, 1.0)); // 10x the median
        let regs = find_regressions(&records, 3.0);
        assert!(
            regs.iter().any(|r| matches!(r, Regression::Perf { .. })),
            "blow-up flagged: {regs:?}"
        );
        // Two runs only: below MIN_PERF_HISTORY, never flagged.
        let short = vec![rec("fig9", 1, 9, 0.1), rec("fig9", 1, 9, 10.0)];
        assert!(find_regressions(&short, 3.0).is_empty());
    }

    #[test]
    fn trend_table_has_one_row_per_record() {
        let records =
            vec![rec("fig2", 1, 2, 0.25), rec("fig3", 3, 4, 0.5), rec("fig4", 5, 6, 0.75)];
        let table = trend_table(&records);
        assert_eq!(table.lines().count(), 2 + records.len(), "header + rule + rows");
        assert!(table.contains("ns/point"));
        assert!(table.contains("fig3"));
        assert!(table.contains(&format!("{:016x}", 4)));
    }
}
