//! `fib-check`: the workspace's offline verification toolkit.
//!
//! Three engines, no external dependencies, no `unsafe`:
//!
//! 1. **Concurrency model checker** ([`model`] + [`sync`]) — a
//!    deterministic DFS explorer with bounded preemption and a
//!    simplified C11 weak-memory model. The `fib-router` snapshot
//!    publication protocol (`SnapCellCore`) is generic over a
//!    synchronization shim; [`sync::ModelShim`] instantiates it on
//!    instrumented primitives so *the shipping source* is
//!    exhaustively explored for use-after-free, stale reads, deadlock,
//!    and leaked snapshots.
//! 2. **Repo-invariant linter** ([`lint`], CLI `fibcheck`) — a
//!    token-level scanner enforcing the workspace's safety contracts:
//!    `unsafe` only in allowlisted modules, every atomic-ordering
//!    choice justified with an `// ordering:` comment, no
//!    panic/allocation in the packet hot path, `deny(unsafe_code)` in
//!    every crate root.
//! 3. **Deep image analysis** — structural linting of serialized FIB
//!    images (section bounds, rank-directory cross-validation, pDAG
//!    acyclicity) lives in `fib-core` and is re-exported here as
//!    [`image_lint`] so one crate fronts all verification.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod crash;
pub mod lint;
pub mod model;
pub mod sync;

pub use fib_core::lint as image_lint;
pub use model::{explore, Config, Report, Violation, ViolationKind};
