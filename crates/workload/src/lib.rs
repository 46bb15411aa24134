//! Workload generation for the FIB-compression evaluation.
//!
//! The paper evaluates on five proprietary router FIBs, RouteViews BGP
//! dumps, a CAIDA packet trace and a BGP update log — none of which can be
//! redistributed. This crate builds synthetic stand-ins that keep what
//! the evaluation measures — prefix-length and next-hop distributions,
//! label entropy, update mix and key locality — rather than the bytes of
//! the originals:
//!
//! * [`labels`] — next-hop label distributions (truncated Poisson,
//!   Bernoulli, geometric-calibrated-to-H0, uniform) with exact entropy
//!   reporting,
//! * [`genfib`] — synthetic FIBs by **iterative random prefix splitting**,
//!   the paper's own generator for its `fib_600k`/`fib_1m` instances,
//! * [`instances`] — one stand-in per Table 1 row, carrying the published
//!   numbers for side-by-side reporting,
//! * [`updates`] — random and BGP-like update sequences (§5.1),
//! * [`traces`] — uniform, locality-skewed (Zipf) and bursty
//!   flow-locality lookup key streams (§5.3's random keys and
//!   CAIDA-trace stand-in),
//! * [`loadgen`] — named key models turned into per-worker, seeded
//!   address streams for the multi-core forwarding runtime,
//! * [`heat`] — lock-free per-worker traffic heat sketches and the merged
//!   summaries that drive traffic-aware compilation in `fib-core`,
//! * [`vrf`] — multi-tenant VRF fleets derived from one base FIB (shared
//!   base routes + per-VRF churn) and mixed-VRF probe streams for the
//!   cross-table dedup compiler.
//!
//! Everything is deterministic given a seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod genfib;
pub mod heat;
pub mod instances;
pub mod labels;
pub mod loadgen;
pub mod rng;
pub mod traces;
pub mod updates;
pub mod vrf;

pub use genfib::FibSpec;
pub use heat::{heat_key, HeatMap, HeatSketch, HeatSummary};
pub use instances::{InstanceGroup, PaperInstance, PaperRow};
pub use labels::LabelModel;
pub use vrf::{fleet_weights, instance_fleet, mixed_keys, MixedKeys, VrfFleetSpec};
