//! Micro-benchmarks: the succinct primitives behind XBW-b
//! (`access`/`rank`/`select` and the fused `access_rank1` on plain, RRR,
//! and wavelet-tree storage) — these constants are exactly why the paper
//! concludes that XBW-b, though asymptotically optimal, loses to the
//! pointer-based prefix DAG.
//!
//! Three 1 Mbit patterns bracket the regimes the FIB engines hit:
//!
//! * `dense`  — ~50 % pseudorandom bits (worst case for RRR offsets),
//! * `sparse` — 1 % density (RRR's sweet spot, select1's stress case),
//! * `fib`    — the actual `S_I` trie-shape string of a leaf-pushed
//!   DFZ-like FIB, the exact bit statistics the XBW-b lookup loop sees.

use fib_bench::timing::BenchGroup;
use fib_succinct::{BitVec, RrrVec, RsBitVec, WaveletTree};
use fib_trie::{BinaryTrie, ProperNode, ProperTrie};
use fib_workload::rng::Xoshiro256;
use fib_workload::FibSpec;
use std::hint::black_box;

const N: usize = 1 << 20;
const OPS: usize = 1024;

/// Splitmix-style word hash for deterministic pseudorandom patterns.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^ (z >> 31)
}

/// The level-order interior/leaf shape string of a real leaf-pushed FIB,
/// cycled up to exactly `N` bits.
fn fib_shape_bits() -> BitVec {
    let mut rng = Xoshiro256::seed_from_u64(0xF1B5);
    let trie: BinaryTrie<u32> = FibSpec::dfz_like(60_000).generate(&mut rng);
    let proper = ProperTrie::from_trie(&trie);
    let mut bits = BitVec::with_capacity(N);
    'fill: loop {
        for idx in proper.level_order() {
            bits.push(matches!(proper.node(idx), ProperNode::Leaf(_)));
            if bits.len() == N {
                break 'fill;
            }
        }
    }
    bits
}

fn bit_patterns() -> Vec<(&'static str, BitVec)> {
    vec![
        ("dense", (0..N).map(|i| mix(i as u64) & 1 == 1).collect()),
        ("sparse", (0..N).map(|i| mix(i as u64) % 100 == 0).collect()),
        ("fib", fib_shape_bits()),
    ]
}

fn bit_primitives() {
    for (pattern, bits) in bit_patterns() {
        let rs = RsBitVec::new(bits.clone());
        let rrr = RrrVec::new(&bits);
        let positions: Vec<usize> = (0..OPS).map(|i| (i * 7919) % N).collect();
        let ones = rs.count_ones();
        let zeros = rs.count_zeros();
        let ranks1: Vec<usize> = (0..OPS).map(|i| 1 + (i * 104_729) % ones).collect();
        let ranks0: Vec<usize> = (0..OPS).map(|i| 1 + (i * 104_729) % zeros).collect();

        let group = BenchGroup::new(&format!("bitvec/{pattern}")).throughput_elements(OPS as u64);
        // Rank queries chain: each result perturbs the next position, as
        // in the XBW-b walk where every level's rank decides the next
        // probe. This measures latency, the constant that bounds lookup.
        group.bench_function("plain/rank1", |b| {
            b.iter(|| {
                let mut acc = 0usize;
                for &p in &positions {
                    acc = acc.wrapping_add(rs.rank1(black_box((p + (acc & 63)) % N)));
                }
                black_box(acc)
            });
        });
        group.bench_function("plain/access_rank1", |b| {
            b.iter(|| {
                let mut acc = 0usize;
                for &p in &positions {
                    let (bit, rank) = rs.access_rank1(black_box(p));
                    acc = acc.wrapping_add(rank + usize::from(bit));
                }
                black_box(acc)
            });
        });
        group.bench_function("plain/select1", |b| {
            b.iter(|| {
                let mut acc = 0usize;
                for &q in &ranks1 {
                    acc = acc.wrapping_add(rs.select1(black_box(q)).unwrap_or(0));
                }
                black_box(acc)
            });
        });
        group.bench_function("plain/select0", |b| {
            b.iter(|| {
                let mut acc = 0usize;
                for &q in &ranks0 {
                    acc = acc.wrapping_add(rs.select0(black_box(q)).unwrap_or(0));
                }
                black_box(acc)
            });
        });
        group.bench_function("rrr/rank1", |b| {
            b.iter(|| {
                let mut acc = 0usize;
                for &p in &positions {
                    acc = acc.wrapping_add(rrr.rank1(black_box((p + (acc & 63)) % N)));
                }
                black_box(acc)
            });
        });
        group.bench_function("rrr/access", |b| {
            b.iter(|| {
                let mut acc = 0usize;
                for &p in &positions {
                    acc = acc.wrapping_add(usize::from(rrr.get(black_box(p))));
                }
                black_box(acc)
            });
        });
        group.bench_function("rrr/access_rank1", |b| {
            b.iter(|| {
                let mut acc = 0usize;
                for &p in &positions {
                    let (bit, rank) = rrr.access_rank1(black_box(p));
                    acc = acc.wrapping_add(rank + usize::from(bit));
                }
                black_box(acc)
            });
        });
        group.bench_function("rrr/select1", |b| {
            b.iter(|| {
                let mut acc = 0usize;
                for &q in &ranks1 {
                    acc = acc.wrapping_add(rrr.select1(black_box(q)).unwrap_or(0));
                }
                black_box(acc)
            });
        });
    }
}

fn wavelet_primitives() {
    // Skewed 16-symbol sequence, like a FIB label string.
    let seq: Vec<u64> = (0..N as u64)
        .map(|i| if i % 16 == 0 { 1 + (i / 16) % 15 } else { 0 })
        .collect();
    let wt = WaveletTree::new(&seq, 16);
    let positions: Vec<usize> = (0..OPS).map(|i| (i * 7919) % N).collect();

    let group = BenchGroup::new("wavelet/access").throughput_elements(OPS as u64);
    group.bench_function("huffman-rrr", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for &p in &positions {
                acc = acc.wrapping_add(wt.access(black_box(p)));
            }
            black_box(acc)
        });
    });

    let group = BenchGroup::new("wavelet/rank").throughput_elements(OPS as u64);
    group.bench_function("huffman-rrr", |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for &p in &positions {
                acc = acc.wrapping_add(wt.rank_sym(0, black_box(p)));
            }
            black_box(acc)
        });
    });
}

fn main() {
    bit_primitives();
    wavelet_primitives();
}
