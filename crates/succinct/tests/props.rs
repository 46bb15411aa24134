//! Property-based tests: every succinct structure must agree with a naive
//! reference implementation on arbitrary inputs.
//!
//! Inputs are drawn from the workspace's deterministic PRNG
//! (`fib_workload::rng`) rather than proptest, which cannot be fetched in
//! the offline build. Each test runs a fixed number of seeded cases (the
//! proptest default of 256); a failure message carries the case number, so
//! any counterexample reproduces exactly.

use fib_succinct::{BitVec, IntVec, RrrVec, RsBitVec, WaveletTree, WaveletTreeRef};
use fib_workload::rng::{Rng, Xoshiro256};

const CASES: u64 = 256;

fn random_bools(rng: &mut impl Rng, max_len: usize) -> Vec<bool> {
    let len = rng.random_range(0..max_len);
    (0..len).map(|_| rng.random()).collect()
}

/// Positions of every bit equal to `value` — the linear-scan reference
/// that `rank`/`select` answers are checked against.
fn positions_of(bits: &[bool], value: bool) -> Vec<usize> {
    bits.iter()
        .enumerate()
        .filter_map(|(i, &b)| (b == value).then_some(i))
        .collect()
}

/// Naive prefix ranks: `ranks[i]` = number of set bits in `[0, i)`.
fn prefix_ranks(bits: &[bool]) -> Vec<usize> {
    let mut ranks = Vec::with_capacity(bits.len() + 1);
    let mut acc = 0;
    ranks.push(0);
    for &b in bits {
        acc += usize::from(b);
        ranks.push(acc);
    }
    ranks
}

#[test]
fn rsvec_rank_select_match_naive() {
    for case in 0..CASES {
        let mut rng = Xoshiro256::for_case("rsvec_rank_select_match_naive", case);
        let bits = random_bools(&mut rng, 2000);
        let rs = RsBitVec::new(BitVec::from_bools(&bits));
        let ranks = prefix_ranks(&bits);
        let ones = positions_of(&bits, true);
        let zeros = positions_of(&bits, false);
        assert_eq!(rs.count_ones(), ones.len(), "case {case}");
        for (i, &r) in ranks.iter().enumerate() {
            assert_eq!(rs.rank1(i), r, "case {case}, rank1({i})");
        }
        for q in 1..=bits.len() + 1 {
            assert_eq!(
                rs.select1(q),
                ones.get(q - 1).copied(),
                "case {case}, select1({q})"
            );
            assert_eq!(
                rs.select0(q),
                zeros.get(q - 1).copied(),
                "case {case}, select0({q})"
            );
        }
    }
}

/// Length near word/line/superblock boundaries or plain random, with
/// all-zeros / all-ones / random fill — the shapes that break rank
/// directories.
fn boundary_shaped_bools(rng: &mut impl Rng, max_len: usize) -> Vec<bool> {
    let boundaries = [63, 64, 65, 383, 384, 385, 511, 512, 513, 2015, 2016, 2017];
    let len = if rng.random() {
        *rng.choose(&boundaries).unwrap()
    } else {
        rng.random_range(0..max_len)
    };
    match rng.random_range(0..4u32) {
        0 => vec![false; len],
        1 => vec![true; len],
        _ => (0..len).map(|_| rng.random()).collect(),
    }
}

#[test]
fn rsvec_fused_access_rank1_matches_naive() {
    // ~100 randomized vectors: the fused primitive must agree with the
    // linear-scan reference bit-for-bit, including at the last index.
    for case in 0..100 {
        let mut rng = Xoshiro256::for_case("rsvec_fused_access_rank1_matches_naive", case);
        let bits = boundary_shaped_bools(&mut rng, 3000);
        let rs = RsBitVec::new(BitVec::from_bools(&bits));
        let mut ones = 0usize;
        for (i, &b) in bits.iter().enumerate() {
            let (bit, rank) = rs.access_rank1(i);
            assert_eq!(bit, b, "case {case}, bit {i}");
            assert_eq!(rank, ones, "case {case}, rank at {i}");
            ones += usize::from(b);
        }
        assert_eq!(rs.rank1(bits.len()), ones, "case {case}, rank1(len)");
    }
}

#[test]
fn rrr_fused_access_rank1_matches_naive() {
    for case in 0..100 {
        let mut rng = Xoshiro256::for_case("rrr_fused_access_rank1_matches_naive", case);
        let bits = boundary_shaped_bools(&mut rng, 3000);
        let rrr = RrrVec::new(&BitVec::from_bools(&bits));
        let mut ones = 0usize;
        for (i, &b) in bits.iter().enumerate() {
            let (bit, rank) = rrr.access_rank1(i);
            assert_eq!(bit, b, "case {case}, bit {i}");
            assert_eq!(rank, ones, "case {case}, rank at {i}");
            ones += usize::from(b);
        }
        assert_eq!(rrr.rank1(bits.len()), ones, "case {case}, rank1(len)");
    }
}

#[test]
fn rsvec_sampled_select_matches_naive_on_long_vectors() {
    // Vectors long enough (up to ~24k ones/zeros) that the sampled select
    // directory holds many hints and the binary search between two hints
    // is exercised, at varying densities.
    for case in 0..100 {
        let mut rng =
            Xoshiro256::for_case("rsvec_sampled_select_matches_naive_on_long_vectors", case);
        let density: u64 = rng.random_range(1..=63);
        let len: usize = rng.random_range(2000..48_000);
        let bits: Vec<bool> = (0..len)
            .map(|_| rng.random_range(0..64u64) < density)
            .collect();
        let rs = RsBitVec::new(BitVec::from_bools(&bits));
        let ones = positions_of(&bits, true);
        let zeros = positions_of(&bits, false);
        // Probe around every sample boundary plus a pseudorandom spread.
        let mut probes: Vec<usize> = (0..ones.len()).step_by(511).collect();
        probes.extend((0..32).map(|_| rng.random_range(0..ones.len().max(1))));
        for q0 in probes {
            let q = q0 + 1;
            assert_eq!(
                rs.select1(q),
                ones.get(q - 1).copied(),
                "case {case}, select1({q})"
            );
        }
        let mut probes: Vec<usize> = (0..zeros.len()).step_by(511).collect();
        probes.extend((0..32).map(|_| rng.random_range(0..zeros.len().max(1))));
        for q0 in probes {
            let q = q0 + 1;
            assert_eq!(
                rs.select0(q),
                zeros.get(q - 1).copied(),
                "case {case}, select0({q})"
            );
        }
        assert_eq!(rs.select1(ones.len() + 1), None, "case {case}");
        assert_eq!(rs.select0(zeros.len() + 1), None, "case {case}");
    }
}

#[test]
fn rrr_matches_naive() {
    for case in 0..CASES {
        let mut rng = Xoshiro256::for_case("rrr_matches_naive", case);
        let bits = random_bools(&mut rng, 1500);
        let rrr = RrrVec::new(&BitVec::from_bools(&bits));
        let ranks = prefix_ranks(&bits);
        let ones = positions_of(&bits, true);
        let zeros = positions_of(&bits, false);
        for (i, &b) in bits.iter().enumerate() {
            assert_eq!(rrr.get(i), b, "case {case}, get({i})");
        }
        for (i, &r) in ranks.iter().enumerate() {
            assert_eq!(rrr.rank1(i), r, "case {case}, rank1({i})");
        }
        for q in 1..=bits.len() + 1 {
            assert_eq!(
                rrr.select1(q),
                ones.get(q - 1).copied(),
                "case {case}, select1({q})"
            );
            assert_eq!(
                rrr.select0(q),
                zeros.get(q - 1).copied(),
                "case {case}, select0({q})"
            );
        }
    }
}

#[test]
fn rrr_biased_density_roundtrips() {
    for case in 0..CASES {
        let mut rng = Xoshiro256::for_case("rrr_biased_density_roundtrips", case);
        // Density in 1/64ths so sparse and dense regimes are both hit.
        let density: u64 = rng.random_range(0..=64);
        let len: usize = rng.random_range(0..3000);
        let bits: Vec<bool> = (0..len)
            .map(|_| rng.random_range(0..64u64) < density)
            .collect();
        let rrr = RrrVec::new(&BitVec::from_bools(&bits));
        let ranks = prefix_ranks(&bits);
        let step = (len / 37).max(1);
        for i in (0..=len).step_by(step) {
            assert_eq!(
                rrr.rank1(i),
                ranks[i],
                "case {case}, density {density}, rank1({i})"
            );
        }
    }
}

#[test]
fn intvec_roundtrips() {
    for case in 0..CASES {
        let mut rng = Xoshiro256::for_case("intvec_roundtrips", case);
        let n: usize = rng.random_range(0..500);
        let values: Vec<u64> = (0..n).map(|_| rng.random()).collect();
        let width_off: u32 = rng.random_range(0..8);
        let max = values.iter().copied().max().unwrap_or(0);
        let width = (fib_succinct::ceil_log2(max.saturating_add(1)) + width_off).min(64);
        let mask = if width == 64 {
            u64::MAX
        } else {
            (1u64 << width) - 1
        };
        let masked: Vec<u64> = values.iter().map(|&v| v & mask).collect();
        let mut iv = IntVec::new(width);
        for &v in &masked {
            iv.push(v);
        }
        for (i, &v) in masked.iter().enumerate() {
            assert_eq!(iv.get(i), v, "case {case}, width {width}, index {i}");
        }
    }
}

#[test]
fn wavelet_view_access_matches_naive() {
    for case in 0..CASES {
        let mut rng = Xoshiro256::for_case("wavelet_view_access_matches_naive", case);
        let n: usize = rng.random_range(0..600);
        let seq: Vec<u64> = (0..n).map(|_| rng.random_range(0..12u64)).collect();
        let mut words = Vec::new();
        WaveletTree::new(&seq, 12).write_words(&mut words);
        let (checked, consumed) = WaveletTreeRef::from_words(&words).unwrap();
        assert_eq!(consumed, words.len(), "case {case}");
        for view in [checked, WaveletTreeRef::from_words_trusted(&words)] {
            assert_eq!(view.len(), n, "case {case}");
            for (i, &s) in seq.iter().enumerate() {
                assert_eq!(view.access(i), s, "case {case}, access({i})");
            }
        }
    }
}

#[test]
fn huffman_codes_decode_uniquely() {
    for case in 0..CASES {
        let mut rng = Xoshiro256::for_case("huffman_codes_decode_uniquely", case);
        let n: usize = rng.random_range(1..40);
        let freqs: Vec<u64> = (0..n).map(|_| rng.random_range(0..1000u64)).collect();
        let codes = fib_succinct::huffman::build_codes(&freqs);
        let live: Vec<_> = codes.iter().filter(|c| c.len > 0).collect();
        // Prefix-freeness: no live code is a prefix of another.
        for (i, a) in live.iter().enumerate() {
            for b in live.iter().skip(i + 1) {
                let min_len = a.len.min(b.len);
                assert_ne!(
                    a.bits >> (a.len - min_len),
                    b.bits >> (b.len - min_len),
                    "case {case}: code is a prefix of another"
                );
            }
        }
        // Kraft equality for ≥2 live symbols (Huffman trees are complete).
        if live.len() >= 2 {
            let kraft: f64 = live.iter().map(|c| (0.5f64).powi(i32::from(c.len))).sum();
            assert!((kraft - 1.0).abs() < 1e-9, "case {case}: kraft sum {kraft}");
        }
    }
}

#[test]
fn bitvec_push_bits_concatenation() {
    for case in 0..CASES {
        let mut rng = Xoshiro256::for_case("bitvec_push_bits_concatenation", case);
        let n: usize = rng.random_range(0..60);
        let fields: Vec<(u64, u32)> = (0..n)
            .map(|_| (rng.random(), rng.random_range(1..=64u32)))
            .collect();
        let mut bv = BitVec::new();
        let mut positions = Vec::new();
        for &(v, w) in &fields {
            let mask = if w == 64 { u64::MAX } else { (1u64 << w) - 1 };
            positions.push(bv.len());
            bv.push_bits(v & mask, w);
        }
        for (&(v, w), &pos) in fields.iter().zip(&positions) {
            let mask = if w == 64 { u64::MAX } else { (1u64 << w) - 1 };
            assert_eq!(bv.get_bits(pos, w), v & mask, "case {case}, field at {pos}");
        }
    }
}
