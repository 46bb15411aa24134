//! Addresses, prefixes, and the classic FIB representations of Section 2 of
//! *Compressing IP Forwarding Tables: Towards Entropy Bounds and Beyond*
//! (SIGCOMM 2013).
//!
//! This crate is the prefix-tree substrate the paper's compressed structures
//! are built on and compared against:
//!
//! * [`Prefix`]/[`Address`] — IPv4 (`u32`, W=32) and IPv6 (`u128`, W=128)
//!   prefixes with canonical masking and parsing,
//! * [`NextHop`] — labels from the next-hop alphabet Σ,
//! * [`RouteTable`] — the tabular FIB of Fig. 1(a): O(N) linear-scan
//!   longest-prefix match, the correctness oracle for everything else,
//! * [`BinaryTrie`] — the binary prefix tree of Fig. 1(b): O(W) lookup and
//!   update; doubles as the *control FIB* of the paper's Section 4,
//! * [`ProperTrie`] — the leaf-pushed normal form of Fig. 1(e): proper,
//!   binary, leaf-labeled, unique per forwarding function; the basis of FIB
//!   entropy and of the XBW-b transform,
//! * [`ortc`] — the ORTC optimal route-table construction of Fig. 1(c)
//!   (Draves–King–Venkatachary–Zill), a baseline FIB aggregator,
//! * [`LcTrie`] — a level-compressed multibit trie in the style of Fig. 1(d)
//!   and of the Linux kernel's `fib_trie` (Nilsson–Karlsson), the software
//!   baseline of Table 2.
//!
//! # What is deliberately omitted
//!
//! * Patricia/path-compressed unibit tries — subsumed by [`LcTrie`];
//! * tree bitmaps, hash-based schemes, DXR and other FIB layouts the paper
//!   only cites for context;
//! * the dynamic inflate/halve resizing heuristics of the kernel `fib_trie`
//!   (our [`LcTrie`] is built statically with a fill factor instead).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod addr;
mod binary;
pub mod io;
mod lctrie;
mod leafpush;
mod nexthop;
pub mod ortc;
pub mod stats;
mod table;

pub use addr::{
    block_hash, block_key, Address, Depth, ParsePrefixError, Prefix, Prefix4, Prefix6,
    MAX_BLOCK_DEPTH,
};
pub use binary::{BinaryTrie, NodeRef};
pub use lctrie::LcTrie;
pub use leafpush::{project_heat_weights, ProperNode, ProperTrie};
pub use nexthop::NextHop;
pub use table::RouteTable;
