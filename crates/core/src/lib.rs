//! The paper's contribution: entropy-bounded FIB compression.
//!
//! This crate implements everything Sections 2–4 of *Compressing IP
//! Forwarding Tables: Towards Entropy Bounds and Beyond* (SIGCOMM 2013,
//! revised technical report) define:
//!
//! * [`FibEntropy`] — the FIB information-theoretic lower bound
//!   `I = 2n + n·lg δ` and FIB entropy `E = 2n + n·H0` on the leaf-pushed
//!   normal form (Propositions 1 and 2),
//! * [`XbwFib`] — the XBW-b transform: a succinct/entropy-compressed
//!   static FIB with O(W) lookup on the compressed form (Lemmas 1–3),
//! * [`PrefixDag`] — trie-folding: the pointer-machine prefix DAG with a
//!   leaf-push barrier λ, O(W) lookup (Lemma 5), O(t) construction
//!   (Lemma 4), O(W + 2^(W−λ)) updates (Theorem 3) and compact/entropy
//!   size bounds (Theorems 1 and 2),
//! * [`SerializedDag`] — the flat λ-collapsed image consumed by the
//!   kernel-module and FPGA engines of Section 5,
//! * [`VarStrideDag`] — the multibit prefix DAGs §7 points to, with the
//!   stride fixed ([`MultibitDag`]) or placed per node by a
//!   traffic-weighted dynamic program,
//! * [`FoldedString`] — trie-folding as a dynamic compressed string
//!   self-index (the string model of §4.2, Figs. 4 and 7),
//! * [`lambda`] — the Lambert-W barrier selection of Eqs. (2) and (3),
//! * the engine trait family — [`FibLookup`] (single + batched lookup,
//!   traced lookup), [`FibBuild`] (uniform construction from the control
//!   FIB under a [`BuildConfig`]), [`FibUpdate`] (incremental updates with
//!   a [`RebuildNeeded`] escape hatch) — wired to every engine by the
//!   one table in `engine.rs`. The `fib-router` crate composes these into
//!   a control/data-plane router with epoch snapshots.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod entropy;
pub mod hot;
mod idhash;
pub mod image;
pub mod lambda;
pub mod lint;
#[cfg(test)]
mod multibit;
mod pdag;
mod serialized;
mod strmodel;
pub mod vrf;
mod vsdag;
mod xbw;

pub use engine::{
    roster, ArenaPublish, BuildConfig, FibBuild, FibLookup, FibUpdate, RebuildNeeded, Roster,
};
pub use entropy::FibEntropy;
pub use hot::{depth_mass_from_heat, hot_key, HotConfig, HotFront, HotSlab, HotSlabRef, HotStats};
pub use image::{
    any_view, write_image, write_image_hot, AnyView, EngineKind, EngineVisitor, FibImage,
    ImageCodec, ImageError, ImageWriter,
};
pub use pdag::{DagStats, PrefixDag, PrefixDagRef, RootArray, RootEntry};
pub use serialized::{SerializedDag, SerializedDagRef, SER_REFILL_LANES};
pub use strmodel::FoldedString;
pub use vrf::{
    compile_vrf_set, vrf_section_base, write_vrf_image, CompiledVrf, CompiledVrfSet, VrfArena,
    VrfBatchScratch, VrfDedicated, VrfEngineChoice, VrfPolicy, VrfSetStats, VrfTable,
    VRF_DIR_RECORD_WORDS,
};
pub use vsdag::{
    MultibitDag, StridePlan, VarStrideDag, VarStrideDagRef, VsParams, VsShape, VS_REFILL_LANES,
};
pub use xbw::{XbwFib, XbwFibRef, XbwSizeReport, XbwStorage, XBW_BATCH_LANES};
