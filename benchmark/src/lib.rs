//! `fib-benchmark`: one attributable benchmark for the FIB-compression
//! workspace — six workloads at taz 1.0, end-to-end metrics with
//! regression bounds, and per-layer spans that sum to wall time. See
//! `README.md` for the glossary and `../BENCHMARK.json` for the declared
//! surface. Every layer is measured from outside, through the product
//! crates' public functions; nothing in them is patched.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fleet;
pub mod hist;
pub mod loops;
pub mod micro;
pub mod phases;
pub mod plan;
pub mod registry;
pub mod report;
pub mod spool;
pub mod table;
pub mod trace;

use fib_core::{PrefixDag, VarStrideDag, XbwFib};

use plan::Plan;
use report::Outcome;

/// Runs the named workload under `plan`.
///
/// # Errors
/// An unknown workload name, or a workload that could not set up or
/// restart (I/O on the spool directory).
pub fn run_workload(
    name: &str,
    plan: &Plan,
    seed: u64,
) -> Result<Outcome, Box<dyn std::error::Error>> {
    match name {
        "serve-uniform" => table::run::<VarStrideDag<u32>>(&table::serve_uniform(), plan, seed),
        "serve-zipf-hot" => table::run::<VarStrideDag<u32>>(&table::serve_zipf_hot(), plan, seed),
        "serve-compact" => table::run::<XbwFib<u32>>(&table::serve_compact(), plan, seed),
        "churn-inplace" => table::run::<PrefixDag<u32>>(&table::churn_inplace(), plan, seed),
        "churn-spool" => table::run::<PrefixDag<u32>>(&table::churn_spool(), plan, seed),
        "vrf-fleet" => Ok(fleet::run(plan, seed)),
        other => Err(format!("unknown workload '{other}'").into()),
    }
}
