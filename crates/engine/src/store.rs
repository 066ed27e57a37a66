//! The content-addressed on-disk store: one directory, one envelope, one
//! load/store path for every result the workspace persists across runs.
//!
//! Everything persisted is a pure function of a content key — the
//! value-table rows `(k_max, B, R)` of a capacity grid, the swept
//! `δ(C)`/`Δ(C)` points, the simulator's per-lane reports — so an entry is
//! valid exactly when its key matches. The record kinds form a closed
//! [`Kind`] enum, and each kind fixes its format tag, file name, fault
//! sites and metric prefix:
//!
//! | kind | rows | file | fault sites | metrics |
//! |---|---|---|---|---|
//! | [`Kind::Grid`] | value-table rows, one per grid point | `<key>.bvc` | `io/cache/{load,store}` | `engine/pcache/*` |
//! | [`Kind::Sweep`] | clean sweep points, by grid index | `<key>.bvk` | `io/ckpt/{load,store}` | `engine/ckpt/*` |
//! | [`Kind::Fleet`] | clean lane reports, by lane | `fleet-<key>.bvk` | `io/fleet-ckpt/{load,store}` | `sim/fleet/ckpt/*` |
//!
//! Every entry has the same envelope:
//!
//! ```text
//! <format tag>
//! key <key, 16 hex digits>
//! n <slot count: grid points or lanes>
//! <one line per row>
//! crc <FNV-1a over every byte above, 16 hex digits>
//! ```
//!
//! Design rules:
//!
//! * **Never wrong, never fatal.** A missing, truncated, corrupt, or
//!   mismatched entry (format tag, key, slot count, checksum, any row)
//!   loads as nothing — a recompute, never an error and never a wrong
//!   bit. Load and store failures are counted and swallowed.
//! * **Atomic writes.** Entries go through [`bevra_faults::atomic_write`]
//!   (write-temp-then-rename), so a crashed or fault-injected writer
//!   leaves the previous complete entry behind, never a torn one.
//! * **Two layouts.** A *table* ([`Kind::Grid`], via [`Store::load`] and
//!   [`Store::store`]) is whole or absent: exactly `n` rows in slot order.
//!   A *checkpoint* ([`Kind::Sweep`], [`Kind::Fleet`], via
//!   [`Store::restore`] and [`Store::checkpoint`]) holds any subset of its
//!   `n` slots, each row prefixed by its slot index, and its owner removes
//!   it with [`Store::clear`] once a run finishes clean.
//!
//! A record type supplies only its row codec ([`Record`]); the codecs
//! live beside their callers (`GridRow` and `SweepPoint` in this crate,
//! `SimReport` in `bevra-sim`).
//!
//! Gating: [`Store::from_env`] reads `BEVRA_CACHE` (`off`/unset, `rw`,
//! `ro`; anything else warns once and disables the store) and
//! `BEVRA_CACHE_DIR` (default `<repo>/results/cache`).

use crate::ledger::fnv1a;
use bevra_num::env::warn_malformed_env;
use bevra_obs::metrics;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Environment variable selecting the store mode (`off`, `rw`, `ro`).
const MODE_ENV: &str = "BEVRA_CACHE";

/// Environment variable overriding the store directory.
const DIR_ENV: &str = "BEVRA_CACHE_DIR";

/// The closed set of record kinds the store persists (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Value-table rows `(C, k_max, B, R)` of one capacity grid.
    Grid,
    /// Clean points of a checkpointed engine sweep.
    Sweep,
    /// Clean lane reports of a checkpointed simulator fleet.
    Fleet,
}

impl Kind {
    /// Format tag on the first line; bump it when the row layout changes
    /// (old entries then load as nothing).
    pub(crate) fn tag(self) -> &'static str {
        match self {
            Kind::Grid => "bevra-cache v1",
            Kind::Sweep => "bevra-ckpt v1",
            Kind::Fleet => "bevra-fleet-ckpt v2",
        }
    }

    fn file_name(self, key: u64) -> String {
        match self {
            Kind::Grid => format!("{key:016x}.bvc"),
            Kind::Sweep => format!("{key:016x}.bvk"),
            Kind::Fleet => format!("fleet-{key:016x}.bvk"),
        }
    }

    /// Fault-site stem: loads consult `io/<site>/load`, stores
    /// `io/<site>/store`.
    fn site(self) -> &'static str {
        match self {
            Kind::Grid => "cache",
            Kind::Sweep => "ckpt",
            Kind::Fleet => "fleet-ckpt",
        }
    }

    fn metrics(self) -> &'static str {
        match self {
            Kind::Grid => "engine/pcache",
            Kind::Sweep => "engine/ckpt",
            Kind::Fleet => "sim/fleet/ckpt",
        }
    }
}

/// The whitespace-separated fields of one row line.
pub type Fields<'a> = std::str::SplitAsciiWhitespace<'a>;

/// A row type the store persists: its [`Kind`] plus a one-line codec.
pub trait Record: Sized {
    /// The kind whose entries hold rows of this type.
    const KIND: Kind;

    /// Append this row's fields to `line`, space-separated, with no
    /// leading space and no newline.
    fn encode(&self, line: &mut String);

    /// Parse the fields [`Self::encode`] wrote; `None` on any malformed
    /// or missing field. Trailing fields are rejected by the store.
    fn decode(fields: &mut Fields<'_>) -> Option<Self>;
}

/// The next field as a hexadecimal `u64`.
pub fn hex_u64(fields: &mut Fields<'_>) -> Option<u64> {
    u64::from_str_radix(fields.next()?, 16).ok()
}

/// The next field as the bit pattern of an `f64`, in hexadecimal.
pub fn hex_f64(fields: &mut Fields<'_>) -> Option<f64> {
    hex_u64(fields).map(f64::from_bits)
}

/// Read/write policy of a [`Store`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheMode {
    /// Load existing entries and store fresh ones.
    ReadWrite,
    /// Load existing entries; never write or remove (CI, read-only
    /// checkouts).
    ReadOnly,
}

/// Parse a `BEVRA_CACHE` value: `Ok(None)` (off) when unset, empty or
/// `off`; `Ok(Some(mode))` for `rw`/`ro`; `Err(detail)` for anything else,
/// which [`Store::from_env`] reports once and treats as off.
fn parse_mode(raw: Option<&str>) -> Result<Option<CacheMode>, String> {
    match raw.map(str::trim) {
        None | Some("" | "off") => Ok(None),
        Some("rw") => Ok(Some(CacheMode::ReadWrite)),
        Some("ro") => Ok(Some(CacheMode::ReadOnly)),
        Some(other) => Err(format!("unknown mode {other:?} (expected rw, ro, or off)")),
    }
}

/// One kind's counters, as returned by [`Store::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Table loads that returned a whole entry.
    pub hits: u64,
    /// Table loads that found nothing valid (a recompute).
    pub misses: u64,
    /// Checkpoint rows restored from disk.
    pub restored: u64,
    /// Successful entry writes.
    pub stores: u64,
    /// Loads and stores absorbed as I/O failures (injected or real);
    /// every one degraded to a recompute or a skipped write.
    pub io_errors: u64,
}

#[derive(Debug, Default)]
struct Counters {
    hits: AtomicU64,
    misses: AtomicU64,
    restored: AtomicU64,
    stores: AtomicU64,
    io_errors: AtomicU64,
}

/// An on-disk content-addressed store (see module docs).
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
    mode: CacheMode,
    counters: [Counters; 3],
}

impl Store {
    /// Store rooted at `dir` with an explicit mode. The directory is
    /// created lazily by the first write.
    #[must_use]
    pub fn new(dir: impl Into<PathBuf>, mode: CacheMode) -> Self {
        Self { dir: dir.into(), mode, counters: Default::default() }
    }

    /// Store configured from the environment: `BEVRA_CACHE` = `rw` or `ro`
    /// enables it; unset, empty or `off` disables it (`None`); anything
    /// else warns once (attributed to `component`) and disables it.
    /// `BEVRA_CACHE_DIR` overrides the default `<repo>/results/cache`.
    #[must_use]
    pub fn from_env(component: &str) -> Option<Self> {
        let raw = std::env::var(MODE_ENV).ok();
        let mode = parse_mode(raw.as_deref()).unwrap_or_else(|detail| {
            warn_malformed_env(component, MODE_ENV, &detail);
            None
        })?;
        let dir = std::env::var_os(DIR_ENV).map_or_else(default_dir, PathBuf::from);
        Some(Self::new(dir, mode))
    }

    /// The counters of one record kind.
    pub fn stats(&self, kind: Kind) -> StoreStats {
        let c = &self.counters[kind as usize];
        StoreStats {
            hits: c.hits.load(Ordering::Relaxed),
            misses: c.misses.load(Ordering::Relaxed),
            restored: c.restored.load(Ordering::Relaxed),
            stores: c.stores.load(Ordering::Relaxed),
            io_errors: c.io_errors.load(Ordering::Relaxed),
        }
    }

    fn path(&self, kind: Kind, key: u64) -> PathBuf {
        self.dir.join(kind.file_name(key))
    }

    /// Load the table stored under `key`: exactly `n` rows, row `i`
    /// accepted by `fits(i, row)`. Anything else — injected I/O fault,
    /// missing or unreadable file, envelope or row mismatch — is a miss.
    pub fn load<R: Record>(
        &self,
        key: u64,
        n: usize,
        fits: impl Fn(usize, &R) -> bool,
    ) -> Option<Vec<R>> {
        let kind = R::KIND;
        let rows = self.read(kind, key).and_then(|text| {
            let rows = envelope_rows(kind, key, n, &text)?
                .map(|line| decode_row::<R>(line.split_ascii_whitespace()))
                .collect::<Option<Vec<R>>>()?;
            let whole = rows.len() == n && rows.iter().enumerate().all(|(i, r)| fits(i, r));
            whole.then_some(rows)
        });
        let c = &self.counters[kind as usize];
        let (counter, name) = if rows.is_some() { (&c.hits, "hit") } else { (&c.misses, "miss") };
        counter.fetch_add(1, Ordering::Relaxed);
        metrics::counter(&format!("{}/{name}", kind.metrics())).inc();
        let s = self.stats(kind);
        let hit_rate = crate::CacheStats { hits: s.hits, misses: s.misses }.hit_rate();
        metrics::gauge(&format!("{}/hit_rate", kind.metrics())).set(hit_rate);
        rows
    }

    /// Persist `rows` as the table under `key`, replacing any previous
    /// entry (no-op in [`CacheMode::ReadOnly`]).
    pub fn store<R: Record>(&self, key: u64, rows: &[R]) {
        let mut body = String::new();
        for row in rows {
            row.encode(&mut body);
            body.push('\n');
        }
        self.write(R::KIND, key, rows.len(), body);
    }

    /// Restore the checkpoint under `key` for `n` slots: one entry per
    /// slot, `None` where nothing was checkpointed. Any problem restores
    /// nothing.
    pub fn restore<R: Record>(&self, key: u64, n: usize) -> Vec<Option<R>> {
        let kind = R::KIND;
        let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
        let rows = self.read(kind, key).and_then(|text| {
            envelope_rows(kind, key, n, &text)?
                .map(|line| {
                    let mut fields = line.split_ascii_whitespace();
                    let slot = usize::from_str_radix(fields.next()?, 16).ok().filter(|&i| i < n)?;
                    Some((slot, decode_row::<R>(fields)?))
                })
                .collect::<Option<Vec<_>>>()
        });
        if let Some(rows) = rows {
            let restored = rows.len() as u64;
            for (slot, row) in rows {
                slots[slot] = Some(row);
            }
            self.counters[kind as usize].restored.fetch_add(restored, Ordering::Relaxed);
            metrics::counter(&format!("{}/restored", kind.metrics())).add(restored);
        }
        slots
    }

    /// Persist the completed `(slot, row)` pairs of an `n`-slot run as the
    /// checkpoint under `key`, replacing any previous one (no-op in
    /// [`CacheMode::ReadOnly`]).
    pub fn checkpoint<'a, R: Record + 'a>(
        &self,
        key: u64,
        n: usize,
        done: impl IntoIterator<Item = (usize, &'a R)>,
    ) {
        let mut done: Vec<(usize, &R)> = done.into_iter().collect();
        done.sort_by_key(|&(slot, _)| slot);
        let mut body = String::new();
        for (slot, row) in done {
            let _ = write!(body, "{slot:08x} ");
            row.encode(&mut body);
            body.push('\n');
        }
        self.write(R::KIND, key, n, body);
    }

    /// Remove the entry of `kind` under `key`, so a finished run leaves
    /// no stale checkpoint behind (no-op in read-only mode or when no
    /// entry exists).
    pub fn clear(&self, kind: Kind, key: u64) {
        if self.mode == CacheMode::ReadWrite {
            let _ = std::fs::remove_file(self.path(kind, key));
        }
    }

    /// The raw entry text under `key`, or `None` (counting an injected
    /// load fault as an I/O error). Reads don't retry: recompute is the
    /// degradation path.
    fn read(&self, kind: Kind, key: u64) -> Option<String> {
        if bevra_faults::io_fault(&format!("io/{}/load", kind.site()), key).is_some() {
            self.io_error(kind);
            return None;
        }
        std::fs::read_to_string(self.path(kind, key)).ok()
    }

    /// Seal `rows` (newline-terminated row lines) in the envelope and
    /// write them atomically; failures are counted and swallowed.
    fn write(&self, kind: Kind, key: u64, n: usize, rows: String) {
        if self.mode == CacheMode::ReadOnly {
            return;
        }
        let mut body = format!("{}\nkey {key:016x}\nn {n}\n{rows}", kind.tag());
        let crc = fnv1a(body.as_bytes());
        let _ = writeln!(body, "crc {crc:016x}");
        // `atomic_write` prefixes the site with `io/` and retries transient
        // faults with backoff; a permanent one leaves no debris behind.
        let site = format!("{}/store", kind.site());
        match bevra_faults::atomic_write(&site, &self.path(kind, key), body.as_bytes()) {
            Ok(_) => {
                self.counters[kind as usize].stores.fetch_add(1, Ordering::Relaxed);
                metrics::counter(&format!("{}/store", kind.metrics())).inc();
            }
            Err(_) => self.io_error(kind),
        }
    }

    fn io_error(&self, kind: Kind) {
        self.counters[kind as usize].io_errors.fetch_add(1, Ordering::Relaxed);
        metrics::counter(&format!("{}/io_error", kind.metrics())).inc();
    }
}

/// The row lines of a fully validated entry: the checksum covers
/// everything before the final `crc` line (so torn or bit-flipped files
/// never parse), and the tag, key and slot count must match.
fn envelope_rows<'t>(kind: Kind, key: u64, n: usize, text: &'t str) -> Option<std::str::Lines<'t>> {
    let crc_at = text.rfind("crc ")?;
    let (body, crc_line) = text.split_at(crc_at);
    let recorded = u64::from_str_radix(crc_line.strip_prefix("crc ")?.trim(), 16).ok()?;
    if fnv1a(body.as_bytes()) != recorded {
        return None;
    }
    let mut lines = body.lines();
    if lines.next()? != kind.tag() {
        return None;
    }
    let stored_key = u64::from_str_radix(lines.next()?.strip_prefix("key ")?, 16).ok()?;
    let stored_n: usize = lines.next()?.strip_prefix("n ")?.parse().ok()?;
    (stored_key == key && stored_n == n).then_some(lines)
}

/// Decode one row and reject trailing fields.
fn decode_row<R: Record>(mut fields: Fields<'_>) -> Option<R> {
    let row = R::decode(&mut fields)?;
    fields.next().is_none().then_some(row)
}

/// Default store directory: `results/cache` under the workspace root (the
/// same `results/` tree the report emitters use when run from the root).
fn default_dir() -> PathBuf {
    // crates/engine -> crates -> workspace root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .map_or_else(|| PathBuf::from("results"), Path::to_path_buf)
        .join("results")
        .join("cache")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GridRow, SweepPoint};
    use bevra_faults::{install, FaultKind, FaultPlan, FaultRule};

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("bevra-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    const CAPS: [f64; 3] = [1.0, 2.5, 40.0];

    fn grid_rows() -> Vec<GridRow> {
        let row = |capacity, k_max, best_effort, reservation| GridRow {
            capacity,
            k_max,
            best_effort,
            reservation,
        };
        vec![
            row(1.0, Some(1), 0.125, 0.25),
            row(2.5, None, 0.5, 0.5),
            row(40.0, Some(40), 0.75, 0.875),
        ]
    }

    fn point(c: f64) -> SweepPoint {
        SweepPoint {
            capacity: c,
            best_effort: c * 0.5,
            reservation: c * 0.75,
            performance_gap: c * 0.25,
            bandwidth_gap: c * 0.125,
        }
    }

    /// A fleet-kind row: the wall exercises the kind's envelope, file name
    /// and fault sites; the `SimReport` codec itself lives in `bevra-sim`.
    #[derive(Debug, PartialEq)]
    struct Lane(u64);

    impl Record for Lane {
        const KIND: Kind = Kind::Fleet;
        fn encode(&self, line: &mut String) {
            let _ = write!(line, "{:x}", self.0);
        }
        fn decode(fields: &mut Fields<'_>) -> Option<Self> {
            hex_u64(fields).map(Lane)
        }
    }

    /// One record kind under the wall: `put` writes a sample entry for a
    /// run of `n` slots; `got` reports whether a load for `n` slots brings
    /// that sample back bitwise.
    struct Case {
        kind: Kind,
        put: fn(&Store, u64, usize),
        got: fn(&Store, u64, usize) -> bool,
    }

    const GRID: Case = Case {
        kind: Kind::Grid,
        put: |s, key, _| s.store(key, &grid_rows()),
        got: |s, key, n| {
            let fits = |i: usize, r: &GridRow| r.capacity.to_bits() == CAPS[i].to_bits();
            s.load::<GridRow>(key, n, fits).is_some_and(|rows| rows == grid_rows())
        },
    };

    const SWEEP: Case = Case {
        kind: Kind::Sweep,
        put: |s, key, n| s.checkpoint(key, n, [(2, &point(40.0)), (0, &point(1.0))]),
        got: |s, key, n| {
            s.restore::<SweepPoint>(key, n) == [Some(point(1.0)), None, Some(point(40.0))]
        },
    };

    const FLEET: Case = Case {
        kind: Kind::Fleet,
        put: |s, key, n| s.checkpoint(key, n, [(1, &Lane(0xFACE))]),
        got: |s, key, n| s.restore::<Lane>(key, n) == [None, Some(Lane(0xFACE)), None],
    };

    /// The envelope wall, run once per record kind.
    fn wall(case: &Case, tag: &str) {
        let Case { kind, put, got } = *case;
        let (key, n) = (0xFEED_u64, CAPS.len());
        let dir = tmp_dir(tag);
        let store = Store::new(&dir, CacheMode::ReadWrite);
        {
            let _clean = install(FaultPlan::seeded(0));
            assert!(!got(&store, key, n), "{kind:?}: cold load is empty");
            put(&store, key, n);
            assert!(got(&store, key, n), "{kind:?}: round trip is bitwise");
            assert_eq!(store.stats(kind).stores, 1, "{kind:?}");
            assert!(!got(&store, key, n + 1), "{kind:?}: slot-count mismatch");
            assert!(!got(&store, key + 1, n), "{kind:?}: key mismatch");

            let path = store.path(kind, key);
            let bytes = std::fs::read(&path).unwrap();
            let mid = bytes.len() / 2;
            let mut flipped = bytes.clone();
            flipped[mid] = flipped[mid].wrapping_add(1);
            std::fs::write(&path, &flipped).unwrap();
            assert!(!got(&store, key, n), "{kind:?}: corruption");
            std::fs::write(&path, &bytes[..mid]).unwrap();
            assert!(!got(&store, key, n), "{kind:?}: truncation");

            put(&store, key, n);
            store.clear(kind, key);
            assert!(!path.exists() && !got(&store, key, n), "{kind:?}: clear removes the entry");

            let ro_dir = tmp_dir(&format!("{tag}-ro"));
            let ro = Store::new(&ro_dir, CacheMode::ReadOnly);
            put(&ro, key, n);
            assert!(!ro_dir.exists(), "{kind:?}: read-only mode never creates the directory");
            assert_eq!(ro.stats(kind).stores, 0);
        }

        let faulty = Store::new(&dir, CacheMode::ReadWrite);
        let site = kind.site();
        let plan = FaultPlan::seeded(0)
            .rule(FaultRule::always(FaultKind::IoPermanent, format!("io/{site}/store")));
        {
            let _guard = install(plan);
            put(&faulty, key, n);
        }
        let s = faulty.stats(kind);
        assert_eq!((s.stores, s.io_errors), (0, 1), "{kind:?}: permanent store fault absorbed");
        {
            let _clean = install(FaultPlan::seeded(0));
            assert!(!got(&faulty, key, n), "{kind:?}: a failed store leaves nothing behind");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wall_grid() {
        wall(&GRID, "grid");
    }

    #[test]
    fn wall_sweep() {
        wall(&SWEEP, "sweep");
    }

    #[test]
    fn wall_fleet() {
        wall(&FLEET, "fleet");
    }

    /// A 3-row value-table entry serializes to the bytes the store has
    /// always written, so existing `results/cache` entries stay valid.
    #[test]
    fn grid_entry_bytes_are_pinned() {
        let dir = tmp_dir("pin");
        let store = Store::new(&dir, CacheMode::ReadWrite);
        let key = 0xDEAD_BEEF;
        let _clean = install(FaultPlan::seeded(0));
        store.store(key, &grid_rows());
        let path = store.path(Kind::Grid, key);
        assert_eq!(path.file_name().and_then(|f| f.to_str()), Some("00000000deadbeef.bvc"));
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            "bevra-cache v1\nkey 00000000deadbeef\nn 3\n\
             3ff0000000000000 1 3fc0000000000000 3fd0000000000000\n\
             4004000000000000 - 3fe0000000000000 3fe0000000000000\n\
             4044000000000000 40 3fe8000000000000 3fec000000000000\n\
             crc d48caab82b56bbfa\n"
        );
        let other_grid =
            |i: usize, r: &GridRow| r.capacity.to_bits() == [1.0, 2.5, 41.0_f64][i].to_bits();
        assert!(store.load(key, 3, other_grid).is_none(), "a different grid under the key misses");
        let s = store.stats(Kind::Grid);
        assert_eq!((s.hits, s.misses), (0, 1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mode_parse_table() {
        for (raw, want) in [
            (None, Ok(None)),
            (Some("off"), Ok(None)),
            (Some(""), Ok(None)),
            (Some("rw"), Ok(Some(CacheMode::ReadWrite))),
            (Some(" ro\n"), Ok(Some(CacheMode::ReadOnly))),
        ] {
            assert_eq!(parse_mode(raw), want, "{raw:?}");
        }
        let err = parse_mode(Some("garbage")).expect_err("garbage is reported");
        assert!(err.contains("\"garbage\""), "{err}");
    }
}
