//! Succinct and compressed data structures.
//!
//! This crate is the string self-index substrate required by the XBW-b
//! transform of *Compressing IP Forwarding Tables: Towards Entropy Bounds and
//! Beyond* (SIGCOMM 2013). It provides, from scratch:
//!
//! * [`BitVec`] — a plain bit vector over `u64` words with bit-granular
//!   reads and writes,
//! * [`RsBitVec`] — a bit vector fully interleaved into aligned 64-byte
//!   lines (cs-poppy / rank9 lineage: absolute count, packed per-word
//!   sub-counts and six data words per line) plus a sampled select
//!   directory: single-cache-line `rank`, O(1) expected `select`,
//! * [`RrrVec`] — the RRR compressed bit vector of Raman, Raman and Rao
//!   (SODA 2002): 63-bit blocks coded as (class, offset) pairs, `nH0 + o(n)`
//!   bits, constant-time `rank`/`access` with a sub-sampled directory that
//!   bounds every class scan to < 8 blocks,
//! * [`broadword`] — branchless word-level select (Vigna's sideways
//!   addition), the in-word finish of every select query,
//! * [`IntVec`] — fixed-width packed integer arrays,
//! * [`huffman`] — canonical Huffman codes over small alphabets,
//! * [`WaveletTree`] — a Huffman-shaped wavelet tree over RRR-compressed
//!   node vectors (`n·H0 + o(n)` bits, the label string of XBW-b's
//!   Lemma 3 entropy mode): the builder, which writes the words its
//!   [`WaveletTreeRef`] answers `access` from.
//!
//! Both bit vectors additionally expose a fused `access_rank1(i)` →
//! `(bit, rank)` primitive that answers "what is bit `i` and how many ones
//! precede it" from a single directory probe; the wavelet-tree descent and
//! the XBW-b lookup loop are built on it.
//!
//! # Conventions
//!
//! Throughout the crate:
//!
//! * `rank1(i)` is the number of set bits in positions `[0, i)` — exclusive
//!   of `i` itself, so `rank1(len())` is the total popcount;
//! * `select1(q)` is the position of the `q`-th set bit with `q ≥ 1`, so
//!   `select1(rank1(p) + 1) == Some(p)` whenever bit `p` is set;
//! * every structure reports its own footprint via `size_bits()`, counting
//!   the bits a serialized form would occupy (universal constant-size decode
//!   tables excluded, as is standard in the succinct literature).
//!
//! # What is deliberately omitted
//!
//! * Dynamic (updatable) compressed bit vectors (Mäkinen–Navarro) — the
//!   paper only cites them as a possibility for XBW-b updates;
//! * worst-case O(1) `select` (Clark/valence structures): the sampled
//!   directory gives O(1) expected time on FIB-shaped inputs and O(log n)
//!   only for pathologically clustered ones.

// `deny` rather than `forbid`: one module, `storage`, carries
// narrowly-scoped `#[allow]`s — for the advisory `madvise(MADV_HUGEPAGE)`
// syscall and for the append-only `WordLog` its readers share while it
// grows; everything else stays unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod bits;
pub mod broadword;
pub mod huffman;
mod intvec;
mod rrr;
mod rsvec;
pub mod storage;
mod wavelet;

pub use bits::BitVec;
pub use intvec::{IntVec, IntVecRef};
pub use rrr::{RrrVec, RrrVecRef};
pub use rsvec::{RsBitVec, RsBitVecRef};
pub use storage::{Arena, SharedWords, StorageError, WordLog};
pub use wavelet::{WaveletTree, WaveletTreeRef};

/// Number of bits needed to distinguish `count` values: `⌈log2(count)⌉`.
///
/// This is the paper's `lg x` notation. By convention `ceil_log2(0)` and
/// `ceil_log2(1)` are both `0`.
#[must_use]
pub fn ceil_log2(count: u64) -> u32 {
    if count <= 1 {
        0
    } else {
        64 - (count - 1).leading_zeros()
    }
}

/// FNV-1a 64-bit hash — the workspace's standard cheap byte-string hash,
/// used for blob integrity checks, seed derivation and data fingerprints.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_continue(0xCBF2_9CE4_8422_2325, bytes)
}

/// Folds more bytes into an FNV-1a state, so multi-part inputs (e.g. a
/// file hashed with one field zeroed) share the single implementation:
/// `fnv1a(whole) == fnv1a_continue(fnv1a(head), tail)`.
#[must_use]
pub fn fnv1a_continue(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0100_0000_01B3);
    }
    hash
}

/// Shannon entropy (bits/symbol) of an empirical distribution given as raw
/// counts. Zero counts are ignored; an empty or single-symbol distribution
/// has entropy 0.
#[must_use]
pub fn shannon_entropy(counts: &[u64]) -> f64 {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let total_f = total as f64;
    let mut h = 0.0;
    for &c in counts {
        if c > 0 {
            let p = c as f64 / total_f;
            h -= p * p.log2();
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ceil_log2_small_values() {
        assert_eq!(ceil_log2(0), 0);
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(4), 2);
        assert_eq!(ceil_log2(5), 3);
        assert_eq!(ceil_log2(255), 8);
        assert_eq!(ceil_log2(256), 8);
        assert_eq!(ceil_log2(257), 9);
        assert_eq!(ceil_log2(1 << 32), 32);
    }

    #[test]
    fn entropy_uniform_and_degenerate() {
        assert_eq!(shannon_entropy(&[]), 0.0);
        assert_eq!(shannon_entropy(&[7]), 0.0);
        assert_eq!(shannon_entropy(&[0, 0, 9]), 0.0);
        let h = shannon_entropy(&[1, 1, 1, 1]);
        assert!((h - 2.0).abs() < 1e-12);
        let h = shannon_entropy(&[1, 1]);
        assert!((h - 1.0).abs() < 1e-12);
    }

    #[test]
    fn entropy_bernoulli_quarter() {
        // H(1/4) = 1/4·lg 4 + 3/4·lg(4/3) ≈ 0.811278
        let h = shannon_entropy(&[1, 3]);
        assert!((h - 0.811_278_124_459_1).abs() < 1e-9);
    }
}
