//! Multi-link network substrate — the paper's single-link model generalized
//! to a topology.
//!
//! Breslau & Shenker analyze one bottleneck link with equal sharing. A
//! natural question their discussion leaves open is whether the
//! architecture comparison survives on a *network*: flows traverse paths,
//! best-effort shares are set by **max-min fairness** (the multi-link
//! generalization of the equal split, computed by progressive
//! water-filling), and reservation admission must clear *every* link on the
//! path. This crate provides exactly that substrate:
//!
//! * [`topology`] — links with capacities, flows with routes;
//! * [`maxmin`] — progressive-filling max-min fair allocation;
//! * [`admission`] — per-path reservation admission with per-link
//!   population caps;
//! * [`evaluate`] — total/normalized utility of an allocation under any
//!   [`bevra_utility::Utility`];
//! * [`scenarios`] — canonical topologies (single link, parking lot,
//!   random meshes) used by the `network_extension` example and the
//!   integration tests.

pub mod admission;
pub mod evaluate;
pub mod maxmin;
pub mod scenarios;
pub mod topology;

pub use admission::{admit_reservations, AdmissionOutcome};
pub use evaluate::{evaluate_allocation, NetworkUtility};
pub use maxmin::max_min_allocation;
pub use scenarios::{parking_lot, random_mesh, single_link};
pub use topology::{FlowSpec, LinkId, Topology};
