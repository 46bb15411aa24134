//! A control/data-plane router core around the compressed FIB engines.
//!
//! The paper's §5 system model is a software router with two planes: a
//! slow control CPU that absorbs BGP churn into an uncompressed oracle
//! and applies λ-barrier updates to the folded structure, and a fast data
//! plane that answers millions of lookups per second against an immutable
//! compressed image, periodically re-emitted (arXiv:1402.1194 makes the
//! split explicit; the prefix-DAG memory-bound follow-up assumes the
//! snapshot lifecycle outright). This crate is that seam:
//!
//! * [`Router`] — control plane (oracle [`fib_trie::BinaryTrie`], plus
//!   an on-disk update journal when a spool is armed) and data plane
//!   ([`EpochSnapshot`]s published through a wait-free [`SnapCell`]) over
//!   any engine implementing the `fib-core` trait family. Engines with
//!   in-place updates ([`fib_core::FibUpdate`]) absorb churn directly;
//!   static images are rebuilt from the oracle at publish time. An update
//!   that leaves the oracle as it was stops there and reaches no engine.
//!   A degradation policy (pDAG arena fragmentation from λ-barrier
//!   refolds) compacts the engine in line when it crosses 0.25 — which
//!   BGP churn rarely does. Every rebuild runs on the control thread.
//! * [`SnapCell`] — home-grown single-writer snapshot publication:
//!   `AtomicPtr` + generation counter + hazard-slot deferred
//!   reclamation. The reader fast path is one atomic load; no reader
//!   ever blocks on a lock.
//! * [`DataPlane`] — the cloneable reader handle forwarding threads
//!   hold: a cached snapshot refreshed on a generation bump.
//! * [`Forwarder`] (module [`runtime`]) — the multi-core forwarding
//!   runtime: N worker threads with private traffic sources and
//!   per-worker stats (packets, drops, ns/lookup histogram with
//!   p50/p99), generic over the snapshot it serves ([`Serve`]): a
//!   table's [`EpochSnapshot`] or a fleet's [`VrfSnapshot`], one loop for
//!   both control planes. `fibc serve` runs it too, over an image-backed
//!   [`EpochSnapshot::from_image`] — the snapshot a warm restart serves —
//!   or a fleet's [`VrfSnapshot::from_image`].
//! * [`VrfSetRouter`] (module [`vrf`]) — the multi-tenant control plane:
//!   one updatable pDAG per VRF, interned into one cross-table-deduped
//!   [`fib_core::CompiledVrfSet`], published atomically with per-VRF
//!   epochs, plus [`VrfDataPlane`] with an allocation-free mixed batch
//!   path (shared tables' keys walked eight at a time in input order,
//!   dedicated tables' keys bucketed by VRF);
//!   [`VrfSetRouter::snap_cell`] hands a [`Forwarder`] the fleet as
//!   [`Router::snap_cell`] hands it a table. A publish re-interns only
//!   the nodes that changed, on the control thread; a sync that panics is
//!   contained as the single-table router's builds are.
//!
//! The two control planes share one crate-private publish core: the
//! epoch counter, the [`SnapCell`], a reference to the last three
//! snapshots published (so a retired one is freed on the control thread),
//! the crate's one build-panic containment, and the [`RouterStats`] both
//! routers report — its publish half counted there, once. Each router
//! keeps only its control state.
//!
//! ```
//! use fib_core::PrefixDag;
//! use fib_router::{Router, RouterConfig};
//! use fib_trie::{BinaryTrie, NextHop, Prefix4};
//!
//! let mut control: BinaryTrie<u32> = BinaryTrie::new();
//! control.insert("0.0.0.0/0".parse::<Prefix4>().unwrap(), NextHop::new(1));
//! control.insert("10.0.0.0/8".parse::<Prefix4>().unwrap(), NextHop::new(2));
//!
//! let mut router: Router<u32, PrefixDag<u32>> =
//!     Router::new(control, RouterConfig::default());
//! router.announce("10.1.0.0/16".parse().unwrap(), NextHop::new(3));
//! let snapshot = router.publish();
//!
//! let mut out = [None; 2];
//! snapshot.lookup_batch(&[0x0A01_0203u32, 0x0B00_0001], &mut out);
//! assert_eq!(out, [Some(NextHop::new(3)), Some(NextHop::new(1))]);
//! ```

// `deny` rather than `forbid`: the `snapcell` module carries the crate's
// only `#[allow]` — the AtomicPtr publication + hazard-slot reclamation
// that makes packet-path snapshot reads lock-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod lifecycle;
mod publish;
mod router;
pub mod runtime;
pub mod shim;
pub mod snapcell;
pub mod spoolfs;
pub mod vrf;

pub use lifecycle::{
    scan_spool, RestartError, SpoolConfig, SpoolHealth, SpoolImageStatus, SpoolMutant, SpoolStatus,
};
pub use router::{DataPlane, EpochSnapshot, Router, RouterConfig, RouterStats};
pub use runtime::{
    AddressSource, Forwarder, ForwarderConfig, LatencyHistogram, PacingMode, Serve, WorkerReport,
    HEAT_SAMPLE,
};
pub use snapcell::{SnapCell, SnapReader};
pub use spoolfs::{FaultConfig, FaultFs, SpoolFile, SpoolFs, StdFs, TailPolicy};
pub use vrf::{VrfBatchScratch, VrfDataPlane, VrfSetRouter, VrfSnapshot};
