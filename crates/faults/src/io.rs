//! Atomic artifact persistence with injectable failures.
//!
//! Every artifact the workspace emits (figure JSON, panel CSVs, perf
//! reports, traces) goes through [`atomic_write`]: render fully in
//! memory, write to a sibling temp file, then `rename` onto the final
//! path. On POSIX the rename is atomic, so an interrupt — real or
//! injected — leaves either the complete old artifact or the complete
//! new one on disk, never a truncated hybrid. Every write gets its own
//! temp file, so concurrent writers of one path each land a complete
//! payload too.
//!
//! Transient failures are retried with bounded exponential backoff
//! driven by a [`Clock`]: production callers sleep for real
//! ([`WallClock`]), while fault-injected runs use a [`VirtualClock`]
//! that only *accounts* the backoff, keeping chaos tests deterministic
//! and sleep-free. [`atomic_write`] picks the virtual clock
//! automatically whenever a fault plan is active.
//!
//! The actual file operations go through the [`Writer`] trait so tests
//! can substitute their own; the default [`WallClock`]/[`FaultWriter`]
//! pair consults the ambient fault plan at sites
//! `io/<site>` per attempt, and an injected transient fault deliberately
//! leaves a *truncated temp file* behind — simulating a process killed
//! mid-write — which the retry overwrites and the final rename ignores.

use crate::IoFault;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// File operations behind [`atomic_write_with`], substitutable in tests.
pub trait Writer {
    /// Write `bytes` to `path`, creating or truncating it.
    ///
    /// # Errors
    ///
    /// Any I/O error; [`ErrorKind::Interrupted`](io::ErrorKind) is
    /// treated as transient by the retry loop.
    fn write_file(&mut self, path: &Path, bytes: &[u8]) -> io::Result<()>;

    /// Atomically move `from` onto `to`.
    ///
    /// # Errors
    ///
    /// Any I/O error from the rename.
    fn rename(&mut self, from: &Path, to: &Path) -> io::Result<()>;
}

/// Backoff time source for the retry loop.
pub trait Clock {
    /// Wait `ms` milliseconds (or just account them).
    fn sleep_ms(&mut self, ms: u64);
    /// Total backoff accounted so far.
    fn total_ms(&self) -> u64;
}

/// A [`Clock`] that accounts backoff without sleeping — the
/// deterministic fault clock used whenever injection is active.
#[derive(Debug, Default, Clone, Copy)]
pub struct VirtualClock {
    elapsed: u64,
}

impl Clock for VirtualClock {
    fn sleep_ms(&mut self, ms: u64) {
        self.elapsed += ms;
    }

    fn total_ms(&self) -> u64 {
        self.elapsed
    }
}

/// A [`Clock`] that really sleeps (production transient-error handling).
#[derive(Debug, Default, Clone, Copy)]
pub struct WallClock {
    elapsed: u64,
}

impl Clock for WallClock {
    // The one sanctioned raw sleep in the workspace: every other caller
    // waits through a Clock so fault-injected runs stay sleep-free
    // (clippy.toml bans std::thread::sleep everywhere else).
    #[allow(clippy::disallowed_methods)]
    fn sleep_ms(&mut self, ms: u64) {
        std::thread::sleep(std::time::Duration::from_millis(ms));
        self.elapsed += ms;
    }

    fn total_ms(&self) -> u64 {
        self.elapsed
    }
}

/// Bounded-retry policy of [`atomic_write`]: exponential backoff
/// `base · 2^attempt`, capped per-step, at most `max_attempts` tries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum write attempts (≥ 1).
    pub max_attempts: u32,
    /// Backoff before the second attempt, in milliseconds.
    pub base_backoff_ms: u64,
    /// Per-step backoff ceiling, in milliseconds.
    pub max_backoff_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self { max_attempts: 4, base_backoff_ms: 1, max_backoff_ms: 50 }
    }
}

impl RetryPolicy {
    /// The backoff after failed attempt `attempt` (0-based).
    #[must_use]
    pub fn backoff_ms(&self, attempt: u32) -> u64 {
        self.base_backoff_ms
            .saturating_mul(1u64 << attempt.min(20))
            .min(self.max_backoff_ms)
    }
}

/// The standard-library [`Writer`] with the ambient fault plan applied:
/// each operation consults [`crate::io_fault`] for its site and attempt.
/// An injected transient write failure first writes a **truncated
/// prefix** of the payload (simulating a kill mid-`write`), then errors
/// with [`ErrorKind::Interrupted`](io::ErrorKind).
#[derive(Debug)]
pub struct FaultWriter<'a> {
    site: &'a str,
    attempt: u64,
}

impl<'a> FaultWriter<'a> {
    /// A writer consulting the fault plan at `site`.
    #[must_use]
    pub fn new(site: &'a str) -> Self {
        Self { site, attempt: 0 }
    }
}

impl Writer for FaultWriter<'_> {
    fn write_file(&mut self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let attempt = self.attempt;
        self.attempt += 1;
        match crate::io_fault(self.site, attempt) {
            Some(IoFault::Transient) => {
                // Kill mid-write: half the payload lands, then the error.
                let _ = std::fs::write(path, &bytes[..bytes.len() / 2]);
                Err(io::Error::new(
                    io::ErrorKind::Interrupted,
                    format!("bevra-faults: injected transient I/O error at {} (attempt {attempt})", self.site),
                ))
            }
            Some(IoFault::Permanent) => {
                let _ = std::fs::write(path, &bytes[..bytes.len() / 2]);
                Err(io::Error::other(format!(
                    "bevra-faults: injected permanent I/O error at {}",
                    self.site
                )))
            }
            None => std::fs::write(path, bytes),
        }
    }

    fn rename(&mut self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }
}

/// What one [`atomic_write`] did, for logs and chaos accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteOutcome {
    /// Write attempts performed (1 = first try succeeded).
    pub attempts: u32,
    /// Total backoff accounted by the clock, in milliseconds.
    pub backoff_ms: u64,
}

/// Temp-file path for one write of `path`: a sibling (same directory, so
/// the final rename never crosses a filesystem boundary) named
/// `<file>.tmp<pid>-<n>`, with `n` a process-wide write counter. Unique
/// per write, so two writers of one path — threads or processes — never
/// truncate each other's temp file or rename it out from under each
/// other.
fn temp_path(path: &Path) -> PathBuf {
    static WRITES: AtomicU64 = AtomicU64::new(0);
    let n = WRITES.fetch_add(1, Ordering::Relaxed);
    let mut name = path.file_name().map_or_else(
        || std::ffi::OsString::from("artifact"),
        std::ffi::OsStr::to_os_string,
    );
    name.push(format!(".tmp{}-{n}", std::process::id()));
    path.with_file_name(name)
}

/// Write `bytes` to `path` atomically (write temp, rename over), with
/// bounded retry on transient errors, through an explicit writer and
/// clock. On failure the temp file is removed and the previous contents
/// of `path` (if any) are untouched.
///
/// Transient = [`ErrorKind::Interrupted`](io::ErrorKind) or
/// [`ErrorKind::WouldBlock`](io::ErrorKind); anything else aborts
/// immediately.
///
/// # Errors
///
/// The last write error after retries are exhausted, or the rename
/// error.
pub fn atomic_write_with(
    writer: &mut dyn Writer,
    clock: &mut dyn Clock,
    policy: RetryPolicy,
    path: &Path,
    bytes: &[u8],
) -> io::Result<WriteOutcome> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    let tmp = temp_path(path);
    let max_attempts = policy.max_attempts.max(1);
    let mut attempts = 0;
    let result = loop {
        attempts += 1;
        match writer.write_file(&tmp, bytes) {
            Ok(()) => break Ok(()),
            Err(e)
                if attempts < max_attempts
                    && matches!(
                        e.kind(),
                        io::ErrorKind::Interrupted | io::ErrorKind::WouldBlock
                    ) =>
            {
                clock.sleep_ms(policy.backoff_ms(attempts - 1));
            }
            Err(e) => break Err(e),
        }
    };
    match result {
        Ok(()) => {
            writer.rename(&tmp, path)?;
            Ok(WriteOutcome { attempts, backoff_ms: clock.total_ms() })
        }
        Err(e) => {
            // Never leave a truncated temp file behind a failed write.
            let _ = std::fs::remove_file(&tmp);
            Err(e)
        }
    }
}

/// [`atomic_write_with`] using the ambient fault plan at `io/<site>`,
/// the default [`RetryPolicy`], and — when a fault plan is active — the
/// deterministic [`VirtualClock`] instead of real sleeps.
///
/// # Errors
///
/// As [`atomic_write_with`].
pub fn atomic_write(site: &str, path: &Path, bytes: &[u8]) -> io::Result<WriteOutcome> {
    let full_site = format!("io/{site}");
    let mut writer = FaultWriter::new(&full_site);
    let policy = RetryPolicy::default();
    if crate::active() {
        atomic_write_with(&mut writer, &mut VirtualClock::default(), policy, path, bytes)
    } else {
        atomic_write_with(&mut writer, &mut WallClock::default(), policy, path, bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{install, FaultKind, FaultPlan, FaultRule};

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("bevra-faults-io-{tag}"));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    /// True when no `<file>.tmp*` sibling of `path` remains.
    fn no_temp_debris(path: &Path) -> bool {
        let mut prefix = path.file_name().unwrap().to_os_string();
        prefix.push(".tmp");
        let prefix = prefix.to_string_lossy().into_owned();
        std::fs::read_dir(path.parent().unwrap())
            .unwrap()
            .all(|e| !e.unwrap().file_name().to_string_lossy().starts_with(&prefix))
    }

    #[test]
    fn clean_write_lands_and_removes_temp() {
        let d = tmpdir("clean");
        let p = d.join("a.json");
        let out = atomic_write("test/clean", &p, b"{\"v\":1}").unwrap();
        assert_eq!(out.attempts, 1);
        assert_eq!(std::fs::read(&p).unwrap(), b"{\"v\":1}");
        assert!(no_temp_debris(&p));
    }

    #[test]
    fn transient_fault_retries_then_succeeds_without_sleeping() {
        let d = tmpdir("transient");
        let p = d.join("a.csv");
        std::fs::write(&p, b"old,complete").unwrap();
        let plan = FaultPlan::seeded(0)
            .rule(FaultRule::always(FaultKind::IoTransient, "io/test/tr").with_n(2));
        let _guard = install(plan);
        let out = atomic_write("test/tr", &p, b"new,complete").unwrap();
        assert_eq!(out.attempts, 3, "two injected failures then success");
        assert!(out.backoff_ms > 0, "backoff accounted on the virtual clock");
        assert_eq!(std::fs::read(&p).unwrap(), b"new,complete");
        assert!(no_temp_debris(&p));
    }

    #[test]
    fn permanent_fault_leaves_old_artifact_complete() {
        let d = tmpdir("permanent");
        let p = d.join("fig.json");
        std::fs::write(&p, b"{\"old\": true}").unwrap();
        let plan = FaultPlan::seeded(0)
            .rule(FaultRule::always(FaultKind::IoPermanent, "io/test/perm"));
        let _guard = install(plan);
        let err = atomic_write("test/perm", &p, b"{\"new\": true}").unwrap_err();
        assert!(err.to_string().contains("injected permanent"));
        assert_eq!(std::fs::read(&p).unwrap(), b"{\"old\": true}", "old artifact intact");
        assert!(no_temp_debris(&p), "no truncated temp left behind");
    }

    #[test]
    fn permanent_fault_on_fresh_path_leaves_nothing() {
        let d = tmpdir("fresh");
        let p = d.join("fresh.json");
        let plan = FaultPlan::seeded(0)
            .rule(FaultRule::always(FaultKind::IoPermanent, "io/test/fresh"));
        let _guard = install(plan);
        assert!(atomic_write("test/fresh", &p, b"data").is_err());
        assert!(!p.exists(), "failed first write must not create the file");
        assert!(no_temp_debris(&p));
    }

    #[test]
    fn transient_fault_exhausting_retries_fails_cleanly() {
        let d = tmpdir("exhaust");
        let p = d.join("x.json");
        std::fs::write(&p, b"v1").unwrap();
        // More failing attempts than the policy allows.
        let plan = FaultPlan::seeded(0)
            .rule(FaultRule::always(FaultKind::IoTransient, "io/test/ex").with_n(99));
        let _guard = install(plan);
        let err = atomic_write("test/ex", &p, b"v2").unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::Interrupted);
        assert_eq!(std::fs::read(&p).unwrap(), b"v1");
        assert!(no_temp_debris(&p));
    }

    #[test]
    fn backoff_is_exponential_and_capped() {
        let p = RetryPolicy { max_attempts: 8, base_backoff_ms: 2, max_backoff_ms: 9 };
        assert_eq!(p.backoff_ms(0), 2);
        assert_eq!(p.backoff_ms(1), 4);
        assert_eq!(p.backoff_ms(2), 8);
        assert_eq!(p.backoff_ms(3), 9, "capped");
        assert_eq!(p.backoff_ms(63), 9, "shift saturates instead of overflowing");
    }

    #[test]
    fn temp_path_is_a_sibling_unique_per_write() {
        let p = Path::new("/some/dir/fig2.json");
        let (a, b) = (temp_path(p), temp_path(p));
        assert_ne!(a, b, "two writes of one path share no temp file");
        for t in [a, b] {
            assert_eq!(t.parent(), p.parent());
            let name = t.file_name().unwrap().to_string_lossy().into_owned();
            assert!(name.starts_with("fig2.json.tmp"), "{name}");
        }
    }

    #[test]
    fn concurrent_writers_of_one_path_never_tear_or_fail() {
        let d = tmpdir("concurrent");
        let p = d.join("shared.bvc");
        let payloads = [vec![b'a'; 64 << 10], vec![b'b'; 64 << 10]];
        let barrier = std::sync::Barrier::new(payloads.len());
        std::thread::scope(|s| {
            for payload in &payloads {
                let (p, barrier, payloads) = (&p, &barrier, &payloads);
                s.spawn(move || {
                    barrier.wait();
                    for _ in 0..500 {
                        atomic_write("test/concurrent", p, payload).expect("every write lands");
                        let got = std::fs::read(p).expect("the final path is readable");
                        assert!(payloads.contains(&got), "a read matched neither payload");
                    }
                });
            }
        });
        assert!(no_temp_debris(&p));
    }
}
