//! End-to-end benchmark of the bevra workspace.
//!
//! Three workloads drive the library through its public functions only:
//! `fig4_full` (the shipped Figure 4 run and its emission), `planner_mix`
//! (a seeded stream of independent provisioning queries) and `fleet_mix`
//! (two runs of the sharded simulator fleet). Each checks its outputs.
//! With `--trace 1` a separate pass times every call into a library
//! layer from outside, with in-memory spans. See `README.md` for the
//! metric definitions and the layer → metric predictions.

pub mod checks;
pub mod fig4;
pub mod fleet;
pub mod host;
pub mod measure;
pub mod output;
pub mod planner;
pub mod trace;
pub mod workloads;
