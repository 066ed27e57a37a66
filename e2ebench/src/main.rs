//! `e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Run from the repository root. Prints a host/build stamp, the run's
//! notes and every metric by name and unit, then — as the last line of
//! stdout — one JSON object `{"correct", "attempted", "failed",
//! "metrics"}`. Exits 1 when a correctness check failed; 2 on bad
//! arguments, outside the repository root, or when a `BEVRA_*` variable
//! is set (the benchmark measures shipped defaults only).

use bevra_e2ebench::host::bevra_overrides;
use bevra_e2ebench::output::result_line;
use bevra_e2ebench::workloads::{run, Params, WORKLOADS};
use std::process::ExitCode;

const USAGE: &str = "usage: e2ebench --workload <fig4_full|planner_mix|fleet_mix> --seed <n> --seconds <s> --trace <0|1>";

fn parse_seed(s: &str) -> Option<u64> {
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(&hex.replace('_', ""), 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse(args: &[String]) -> Result<Params, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => {
                seed = Some(parse_seed(value).ok_or_else(|| format!("bad seed {value:?}"))?)
            }
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("seconds {s} outside (0, 3600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value:?}: 0 or 1")),
                });
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {WORKLOADS:?}"
        ));
    }
    Ok(Params {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let params = match parse(&args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("e2ebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let overrides = bevra_overrides();
    if !overrides.is_empty() {
        eprintln!(
            "e2ebench: refusing to run with {} set: the benchmark measures shipped defaults only",
            overrides.join(", ")
        );
        return ExitCode::from(2);
    }
    if !std::path::Path::new("Cargo.toml").is_file() || !std::path::Path::new("crates").is_dir() {
        eprintln!("e2ebench: run from the repository root");
        return ExitCode::from(2);
    }
    let result = match run(&params) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "e2ebench: workload {} seed {} seconds {} trace {}",
        params.workload,
        params.seed,
        params.seconds,
        u8::from(params.trace)
    );
    println!("stamp: {}", result.stamp.to_json());
    for n in &result.notes {
        println!("{n}");
    }
    for m in &result.metrics {
        println!("metric {} = {} {}", m.name, m.value, m.unit);
    }
    let tally = &result.tally;
    println!(
        "fail_ratio = {} ({} of {} operations and checks failed)",
        tally.fail_ratio(),
        tally.failed,
        tally.attempted
    );
    for f in tally.failures.iter().take(10) {
        println!("FAILED: {f}");
    }
    let finite = result.metrics.iter().all(|m| m.value.is_finite());
    if !finite {
        println!("FAILED: a metric is not finite");
    }
    let correct = tally.failed == 0 && finite;
    let metrics: Vec<_> = result
        .metrics
        .into_iter()
        .map(|mut m| {
            if !m.value.is_finite() {
                m.value = -1.0;
            }
            m
        })
        .collect();
    println!(
        "{}",
        result_line(
            correct,
            tally.attempted.max(1),
            tally.failed + u64::from(!finite),
            &metrics
        )
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
