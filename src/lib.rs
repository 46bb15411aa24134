//! # fibcomp — entropy-bounded IP forwarding table compression
//!
//! Umbrella crate for the reproduction of Rétvári et al., *Compressing IP
//! Forwarding Tables: Towards Entropy Bounds and Beyond* (SIGCOMM 2013).
//!
//! The workspace is organized bottom-up; this crate re-exports every layer
//! so that applications can depend on a single crate:
//!
//! * [`succinct`] — rank/select bit vectors, RRR, wavelet trees, Huffman
//!   codes (the compressed-string-index substrate of Section 3),
//! * [`trie`] — addresses, prefixes and the classic FIB representations of
//!   Section 2 (tabular, binary trie, leaf-pushing, ORTC, LC-trie),
//! * [`core`] — the paper's contribution: FIB entropy bounds, the XBW-b
//!   transform, and trie-folding prefix DAGs with λ-barrier updates,
//!   behind the engine trait family ([`core::FibLookup`] for single and
//!   batched lookup, [`core::FibBuild`] for uniform construction,
//!   [`core::FibUpdate`] for incremental updates with a rebuild escape
//!   hatch), plus [`core::image`]: the versioned `fibimage/v1` on-disk
//!   format with zero-copy load ([`core::ImageCodec`] writes every
//!   Table 2 engine and borrows it back as a `*Ref` view; the `fibc`
//!   binary drives the pipeline from the shell),
//! * [`router`] — the control/data-plane router core of §5:
//!   [`router::Router`] pairs an oracle control FIB with epoch snapshots
//!   published through the wait-free [`router::SnapCell`] (lock-free
//!   packet-path reads), applies in-place pDAG updates and rebuilds on
//!   the control thread (at a stale publish, or a compaction once arena
//!   fragmentation passes 0.25), makes every publish durable with
//!   one journal sync when a spool is armed (a `fibimage/v1` checkpoint
//!   only where the journal folds) and warm-restarts from the newest
//!   valid image plus the journal stamped with its epoch, and
//!   [`router::Forwarder`] runs the multi-core forwarding runtime
//!   (per-worker snapshot caches and latency histograms),
//! * [`workload`] — synthetic FIB generators, BGP-like update sequences and
//!   lookup traces standing in for the paper's proprietary datasets,
//! * [`hwsim`] — SRAM/FPGA cycle model and cache-hierarchy simulator used
//!   by the Table 2 reproduction.
//!
//! ## Quickstart
//!
//! ```
//! use fibcomp::prelude::*;
//!
//! // A toy FIB: the example of Fig. 1 in the paper.
//! let routes = [
//!     (Prefix4::from_str("0.0.0.0/0").unwrap(), NextHop::new(2)),
//!     (Prefix4::from_str("0.0.0.0/1").unwrap(), NextHop::new(3)),
//!     (Prefix4::from_str("0.0.0.0/2").unwrap(), NextHop::new(3)),
//!     (Prefix4::from_str("32.0.0.0/3").unwrap(), NextHop::new(2)),
//!     (Prefix4::from_str("64.0.0.0/2").unwrap(), NextHop::new(2)),
//!     (Prefix4::from_str("96.0.0.0/3").unwrap(), NextHop::new(1)),
//! ];
//! let trie: BinaryTrie<u32> = routes.iter().copied().collect();
//!
//! // Compress with trie-folding (λ = 2) and with XBW-b.
//! let dag = PrefixDag::from_trie(&trie, 2);
//! let xbw = XbwFib::build(&trie, XbwStorage::Entropy);
//!
//! // All representations agree on every longest-prefix-match.
//! let addr = u32::from(std::net::Ipv4Addr::new(96, 1, 2, 3));
//! assert_eq!(trie.lookup(addr), dag.lookup(addr));
//! assert_eq!(trie.lookup(addr), xbw.lookup(addr));
//! assert_eq!(dag.lookup(addr), Some(NextHop::new(1)));
//!
//! // The data plane consumes the flat serialized image and answers whole
//! // packet batches at once (interleaved multi-lane walk).
//! let ser = SerializedDag::from_dag(&dag);
//! let batch = [addr, 0x0000_0001, 0x8123_4567];
//! let mut next_hops = [None; 3];
//! ser.lookup_batch(&batch, &mut next_hops);
//! for (a, nh) in batch.iter().zip(&next_hops) {
//!     assert_eq!(*nh, trie.lookup(*a));
//! }
//!
//! // A router wraps the whole lifecycle: control-plane updates, epoch
//! // snapshots, rebuild-on-degradation.
//! let mut router: Router<u32, PrefixDag<u32>> =
//!     Router::new(trie.clone(), RouterConfig::default());
//! router.announce(Prefix4::from_str("96.0.0.0/11").unwrap(), NextHop::new(4));
//! let snapshot = router.publish();
//! assert_eq!(snapshot.lookup(addr), Some(NextHop::new(4)));
//! ```

#![deny(unsafe_code)]

pub use fib_core as core;
pub use fib_hwsim as hwsim;
pub use fib_router as router;
pub use fib_succinct as succinct;
pub use fib_trie as trie;
pub use fib_workload as workload;

/// Convenient re-exports of the most commonly used types.
pub mod prelude {
    pub use fib_core::{
        BuildConfig, FibBuild, FibEntropy, FibLookup, FibUpdate, FoldedString, PrefixDag,
        RebuildNeeded, SerializedDag, XbwFib, XbwStorage,
    };
    pub use fib_router::{Router, RouterConfig};
    pub use fib_trie::{
        Address, BinaryTrie, Depth, LcTrie, NextHop, Prefix, Prefix4, Prefix6, ProperTrie,
        RouteTable,
    };
    pub use std::str::FromStr;
}
