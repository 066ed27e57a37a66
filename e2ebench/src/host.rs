//! Host and build stamp, and the shipped-defaults guard.

use crate::output::json_string;

/// Prefix of every configuration variable the library reads.
const ENV_PREFIX: &str = "BEVRA_";

/// Names of the set `BEVRA_*` variables, sorted. A run with any of them
/// would not measure the shipped defaults, so the benchmark refuses it.
#[must_use]
pub fn bevra_overrides() -> Vec<String> {
    let mut set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with(ENV_PREFIX))
        .collect();
    set.sort();
    set
}

/// What the numbers of one run were measured on.
#[derive(Debug, Clone)]
pub struct Stamp {
    /// `model name` of the first CPU in `/proc/cpuinfo`.
    pub cpu_model: String,
    /// Cores available to this process.
    pub nproc: usize,
    /// SIMD tier the kernels resolved to.
    pub simd: String,
    /// Kernel backend every engine in this process uses.
    pub kernel: String,
    /// Worker threads of engine sweeps and fleet shards.
    pub threads: usize,
    /// Compiler that built this binary.
    pub rustc: String,
}

impl Stamp {
    /// Resolve the stamp (this also performs the library's one-time
    /// registry and SIMD resolution).
    #[must_use]
    pub fn resolve() -> Self {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let cpu_model = cpuinfo
            .lines()
            .find_map(|l| {
                l.strip_prefix("model name")
                    .and_then(|r| r.split_once(':'))
                    .map(|(_, m)| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Self {
            cpu_model,
            nproc: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            simd: bevra_num::simd::level().as_str().to_string(),
            kernel: bevra_engine::registry::from_env()
                .capability()
                .name
                .to_string(),
            threads: bevra_engine::thread_count(),
            rustc: env!("E2EBENCH_RUSTC_VERSION").to_string(),
        }
    }

    /// One-line JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"cpu_model\": {}, \"nproc\": {}, \"simd\": {}, \"kernel\": {}, \"threads\": {}, \"rustc\": {}}}",
            json_string(&self.cpu_model),
            self.nproc,
            json_string(&self.simd),
            json_string(&self.kernel),
            self.threads,
            json_string(&self.rustc),
        )
    }
}
