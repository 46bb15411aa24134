//! Hardware cost models for the Table 2 reproduction.
//!
//! The paper measures three things we cannot run in this environment: a
//! Linux kernel module on a 2.5 GHz Core i5 (CPU cycle counts), the same
//! CPU's cache-miss performance counters, and a Xilinx Virtex-II Pro FPGA
//! with synchronous SRAM (clock cycles per lookup). This crate substitutes
//! deterministic models fed by the *exact memory access streams* of the
//! lookup engines (`FibLookup::lookup_traced`):
//!
//! * [`CacheSim`] — a set-associative, multi-level, LRU cache hierarchy
//!   with the i5's geometry; reproduces the cache-misses/packet column,
//! * [`SramModel`] — a synchronous-SRAM pipeline: one clock per word
//!   fetch plus a fixed pipeline overhead; reproduces the FPGA
//!   cycles/lookup and Mlps columns.
//!
//! Both are models, not emulators: they capture the paper's qualitative
//! claims (a 200 KB pDAG lives in cache; a 26 MB `fib_trie` does not; an
//! SRAM-resident DAG costs `pipeline + avg-depth` cycles) without
//! pretending to predict absolute wall-clock numbers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod sram;

pub use cache::{CacheLevel, CacheSim, CacheStats};
pub use sram::{SramModel, SramReport};
