//! Process clocks, memory, order statistics, and the timed round loop.

use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User + system CPU seconds consumed by this process so far, summed over
/// all of its threads (exited ones included), at nanosecond resolution.
///
/// The same quantity as the utime + stime fields of `/proc/self/stat`,
/// which count in 10 ms clock ticks — too coarse for sub-second rounds.
#[must_use]
pub fn cpu_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this benchmark runs on) and
    // `CLOCK_PROCESS_CPUTIME_ID` is a clock every Linux kernel provides.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set size of this process in MiB (`VmHWM` of
/// `/proc/self/status`).
#[must_use]
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

extern "C" {
    fn mallopt(param: i32, value: i32) -> i32;
}

/// glibc's `M_MMAP_THRESHOLD` parameter.
const M_MMAP_THRESHOLD: i32 = -3;

/// Pin glibc's malloc policy for the run: every block of 1 MiB or more
/// gets its own `mmap`, returned to the kernel when freed.
///
/// By default glibc raises its mmap threshold to the largest block freed
/// so far, after which multi-MiB load tables come from the heap — reused,
/// or extending it, depending on how earlier blocks fragmented it. Measured
/// on `planner_mix`, that makes peak RSS flip between 28.0 and 35.5 MiB
/// from run to run and moves median query latency with it. A fixed
/// threshold (which also stops glibc adapting its trim threshold) makes
/// every table build pay the same fresh pages and peak RSS track the live
/// tables, on the parent and the changed commit alike.
pub fn pin_allocator() {
    // SAFETY: `mallopt` takes two C ints and only updates malloc's global
    // tuning parameters; 1 MiB is inside glibc's accepted range (at most
    // 32 MiB on 64-bit).
    let ok = unsafe { mallopt(M_MMAP_THRESHOLD, 1 << 20) };
    assert_eq!(ok, 1, "mallopt(M_MMAP_THRESHOLD) was refused");
}

/// Median of a sample (mean of the middle two for even counts); NaN when
/// empty.
#[must_use]
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Nearest-rank percentile `p` (in `(0, 100]`) of a sample; NaN when
/// empty.
#[must_use]
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Wall and CPU seconds of one timed call.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    /// Wall-clock seconds.
    pub wall: f64,
    /// Process CPU seconds (all threads).
    pub cpu: f64,
}

/// Run `f`, returning its value with its wall and process-CPU time.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Timed) {
    let c0 = cpu_seconds();
    let t0 = Instant::now();
    let out = f();
    let wall = t0.elapsed().as_secs_f64();
    (
        out,
        Timed {
            wall,
            cpu: cpu_seconds() - c0,
        },
    )
}

/// Repeat `round` for about `seconds` of wall time: a new round starts
/// only while the rounds so far, plus one more of their median length,
/// fit the budget, so a run never overshoots by a whole slow round. The
/// first round always runs; `between` runs after each round, untimed.
/// Returns each round's value and timing, in order.
pub fn run_rounds<R>(
    seconds: f64,
    mut round: impl FnMut(usize) -> R,
    mut between: impl FnMut(),
) -> Vec<(R, Timed)> {
    let start = Instant::now();
    let mut out: Vec<(R, Timed)> = Vec::new();
    loop {
        if !out.is_empty() {
            let walls: Vec<f64> = out.iter().map(|(_, t)| t.wall).collect();
            if start.elapsed().as_secs_f64() + median(&walls) > seconds {
                break;
            }
        }
        let i = out.len();
        out.push(timed(|| round(i)));
        between();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 97.0), 97.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn process_clocks_advance() {
        let c0 = cpu_seconds();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(cpu_seconds() > c0, "{x}");
        assert!(peak_rss_mb() > 0.0);
    }
}
