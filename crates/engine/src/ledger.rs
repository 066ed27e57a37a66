//! The cross-run ledger: one structured line per sweep run.
//!
//! Every figure/sweep run appends one [`LedgerRecord`] to
//! `results/ledger.jsonl` — a JSONL file shared by all runs on a machine.
//! A record captures what would otherwise have to be reconstructed from
//! scattered artifacts: the config/load fingerprint the run evaluated,
//! the kernel capability stamp, cache hit counters, the degradation
//! ledger ([`crate::SweepHealth`] totals), throughput (ns per point), and
//! a digest of the numeric results. The `obs-report` binary in
//! `bevra-report` renders trend tables over this file and flags
//! perf/digest regressions.
//!
//! # Durability
//!
//! Appends go through one `append_line` helper: `O_APPEND` plus a
//! single `write_all`, so concurrent runs interleave at line granularity.
//! Each line ends in a `"crc"` field — FNV-1a over everything before it —
//! so readers detect and skip torn or bit-flipped lines instead of
//! mis-parsing them; see the parser in `bevra-report`.

use std::path::Path;

/// Schema tag carried by every ledger line; bump on layout changes so old
/// readers skip new lines (and vice versa) instead of misreading them.
pub const LEDGER_SCHEMA: &str = "bevra-ledger-v1";

/// Default ledger file name (under the run's `results/` directory).
pub const LEDGER_FILE: &str = "ledger.jsonl";

/// FNV-1a over a byte slice — the workspace's standard content hash (the
/// same constants as the fault-plan hasher). Used for the ledger's
/// per-line CRC, run fingerprints, result digests, and the on-disk
/// store's keys and entry checksums.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One run's ledger entry. Field order in the serialized line matches
/// declaration order here.
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerRecord {
    /// Run identifier — the figure tag (`fig2`, `fig3`, …) or a caller
    /// supplied id.
    pub id: String,
    /// Wall-clock timestamp of the append, milliseconds since the Unix
    /// epoch (the only wall-clock field; everything else is content).
    pub unix_ms: u64,
    /// Content fingerprint of the run's configuration: what was swept
    /// (grids, labels, quality). Two runs with equal fingerprints claim
    /// to have evaluated the same inputs.
    pub fingerprint: u64,
    /// Capability name of the kernel backend that evaluated the run
    /// (empty when no engine sweep was involved).
    pub kernel: String,
    /// Resolved SIMD dispatch tier of that backend (`"none"`,
    /// `"avx2"`, `"avx512"`, `"neon"`; empty when no kernel stamp
    /// applies). Appended to the schema mid-stream: readers treat an
    /// absent field as `"unknown"`, so pre-existing ledger lines keep
    /// parsing — see `bevra-report`'s append-tolerance test.
    pub simd: String,
    /// Worker threads the run was configured with.
    pub threads: u64,
    /// Total evaluated points across stages.
    pub points: u64,
    /// Total wall-clock seconds across stages.
    pub seconds: f64,
    /// Cache hits summed over every cache the run reported.
    pub cache_hits: u64,
    /// Cache misses summed over every cache the run reported.
    pub cache_misses: u64,
    /// Points that evaluated cleanly (summed over health ledgers).
    pub ok: u64,
    /// Points that produced degraded values.
    pub degraded: u64,
    /// Points that produced no value at all.
    pub failed: u64,
    /// Non-finite fields across all degraded points.
    pub non_finite: u64,
    /// Digest of the run's numeric results. Two runs with equal
    /// fingerprints and kernels must produce equal digests — a mismatch
    /// is a determinism regression `obs-report` flags.
    pub digest: u64,
}

impl LedgerRecord {
    /// Nanoseconds per evaluated point (0.0 when no points were timed).
    #[must_use]
    pub fn ns_per_point(&self) -> f64 {
        if self.points == 0 {
            0.0
        } else {
            self.seconds * 1e9 / self.points as f64
        }
    }

    /// Serialize as one JSONL line (no trailing newline), ending in the
    /// `"crc"` field: FNV-1a over every byte before `,"crc":"`.
    #[must_use]
    pub fn to_line(&self) -> String {
        fn esc(s: &str) -> String {
            s.replace('\\', "\\\\").replace('"', "\\\"")
        }
        let seconds = if self.seconds.is_finite() { format!("{:?}", self.seconds) } else { "null".to_string() };
        let nspp = self.ns_per_point();
        let nspp = if nspp.is_finite() { format!("{nspp:?}") } else { "null".to_string() };
        let prefix = format!(
            "{{\"schema\":\"{LEDGER_SCHEMA}\",\"id\":\"{}\",\"unix_ms\":{},\
             \"fingerprint\":\"{:016x}\",\"kernel\":\"{}\",\"threads\":{},\
             \"points\":{},\"seconds\":{},\"ns_per_point\":{},\
             \"cache_hits\":{},\"cache_misses\":{},\
             \"ok\":{},\"degraded\":{},\"failed\":{},\"non_finite\":{},\
             \"simd\":\"{}\",\"digest\":\"{:016x}\"",
            esc(&self.id),
            self.unix_ms,
            self.fingerprint,
            esc(&self.kernel),
            self.threads,
            self.points,
            seconds,
            nspp,
            self.cache_hits,
            self.cache_misses,
            self.ok,
            self.degraded,
            self.failed,
            self.non_finite,
            esc(&self.simd),
            self.digest,
        );
        let crc = fnv1a(prefix.as_bytes());
        format!("{prefix},\"crc\":\"{crc:016x}\"}}")
    }

    /// Append this record to the ledger at `path` (fault site
    /// `ledger/append` → `io/ledger/append`).
    ///
    /// # Errors
    ///
    /// The I/O error left once the workspace I/O retry policy is
    /// exhausted — callers on the emit path log and swallow these (a run
    /// that can't reach its ledger still produces its artifacts).
    pub fn append(&self, path: &Path) -> std::io::Result<()> {
        append_line("ledger/append", path, &self.to_line())
    }
}

/// Append `line` plus a newline to a shared JSONL file (the run ledger).
///
/// The file is opened in append mode (`O_APPEND` on POSIX) and the whole
/// line with its newline lands in a **single**
/// `write_all`, so concurrent appenders from different threads or
/// processes interleave at line granularity: each line is contiguous in
/// the file short of a mid-write crash, which a per-line checksum (the
/// ledger's `crc` field) lets readers skip as a torn line.
///
/// `site` is a fault-injection site consulted per attempt as `io/<site>`,
/// like [`bevra_faults::atomic_write`], and under the same I/O retry
/// policy ([`bevra_faults::io::RetryPolicy::default`]): transient errors
/// (`Interrupted`, `WouldBlock`) are retried with bounded backoff on the
/// virtual clock whenever a fault plan is active (sleep-free) and the
/// wall clock otherwise; other errors surface at once.
///
/// # Errors
///
/// The last I/O error once retries are exhausted, or the first
/// non-transient error opening, creating the parent directory for, or
/// writing the file.
fn append_line(site: &str, path: &Path, line: &str) -> std::io::Result<()> {
    use bevra_faults::io::{Clock, RetryPolicy, VirtualClock, WallClock};
    use std::io::Write as _;

    let buf = format!("{line}\n");
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    let full_site = format!("io/{site}");
    let policy = RetryPolicy::default();
    let mut clock: Box<dyn Clock> = if bevra_faults::active() {
        Box::new(VirtualClock::default())
    } else {
        Box::new(WallClock::default())
    };
    let mut attempt: u32 = 0;
    loop {
        let result = match bevra_faults::io_fault(&full_site, u64::from(attempt)) {
            Some(bevra_faults::IoFault::Transient) => Err(std::io::Error::new(
                std::io::ErrorKind::Interrupted,
                format!("bevra-faults: injected transient I/O error at {full_site}"),
            )),
            Some(bevra_faults::IoFault::Permanent) => Err(std::io::Error::other(format!(
                "bevra-faults: injected permanent I/O error at {full_site}"
            ))),
            None => std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .and_then(|mut f| f.write_all(buf.as_bytes())),
        };
        match result {
            Err(e)
                if attempt + 1 < policy.max_attempts
                    && matches!(
                        e.kind(),
                        std::io::ErrorKind::Interrupted | std::io::ErrorKind::WouldBlock
                    ) =>
            {
                clock.sleep_ms(policy.backoff_ms(attempt));
                attempt += 1;
            }
            result => return result,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> LedgerRecord {
        LedgerRecord {
            id: "fig2".into(),
            unix_ms: 1_754_000_000_000,
            fingerprint: 0xDEAD_BEEF_0123_4567,
            kernel: "batch".into(),
            simd: "autovec".into(),
            threads: 8,
            points: 1000,
            seconds: 0.5,
            cache_hits: 40,
            cache_misses: 10,
            ok: 998,
            degraded: 1,
            failed: 1,
            non_finite: 2,
            digest: 0x0123_4567_89AB_CDEF,
        }
    }

    #[test]
    fn line_is_single_json_object_with_crc_suffix() {
        let line = sample().to_line();
        assert!(!line.contains('\n'));
        assert!(line.starts_with(&format!("{{\"schema\":\"{LEDGER_SCHEMA}\"")));
        assert!(line.ends_with('}'));
        let crc_at = line.rfind(",\"crc\":\"").expect("crc field present");
        let recorded = &line[crc_at + ",\"crc\":\"".len()..line.len() - 2];
        let expect = fnv1a(&line.as_bytes()[..crc_at]);
        assert_eq!(recorded, format!("{expect:016x}"), "crc covers the prefix");
    }

    #[test]
    fn ns_per_point_handles_zero_points() {
        let mut r = sample();
        assert!((r.ns_per_point() - 500_000.0).abs() < 1e-6);
        r.points = 0;
        assert_eq!(r.ns_per_point(), 0.0);
        r.points = 10;
        r.seconds = f64::INFINITY;
        assert!(r.to_line().contains("\"ns_per_point\":null"));
    }

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("bevra-ledger-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn append_accumulates_lines() {
        let path = tmp_dir("append").join(LEDGER_FILE);
        sample().append(&path).unwrap();
        let mut second = sample();
        second.id = "fig3".into();
        second.append(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.lines().nth(1).unwrap().contains("\"id\":\"fig3\""));
    }

    #[test]
    fn append_line_rides_out_transient_faults() {
        use bevra_faults::{install, FaultKind, FaultPlan, FaultRule};
        let dir = tmp_dir("append-tr");
        let path = dir.join("ledger.jsonl");
        let plan = FaultPlan::seeded(0)
            .rule(FaultRule::always(FaultKind::IoTransient, "io/test/led-tr").with_n(2));
        {
            let _guard = install(plan);
            append_line("test/led-tr", &path, "{\"ok\":true}").unwrap();
        }
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{\"ok\":true}\n");
    }

    #[test]
    fn append_line_permanent_fault_errors_without_writing() {
        use bevra_faults::{install, FaultKind, FaultPlan, FaultRule};
        let dir = tmp_dir("append-perm");
        let path = dir.join("ledger.jsonl");
        let plan = FaultPlan::seeded(0)
            .rule(FaultRule::always(FaultKind::IoPermanent, "io/test/led-perm"));
        {
            let _guard = install(plan);
            let err = append_line("test/led-perm", &path, "{\"lost\":true}").unwrap_err();
            assert!(err.to_string().contains("injected permanent"));
        }
        assert!(!path.exists(), "failed append must not create the file");
    }

    #[test]
    fn fnv1a_matches_known_vector() {
        // FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
