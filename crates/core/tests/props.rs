//! Property tests for the core compression structures: arbitrary route
//! sets, every engine against the binary trie, image round-trips and
//! decoder robustness, and the entropy-accounting identities.
//!
//! Inputs are drawn from the workspace's deterministic PRNG
//! (`fib_workload::rng`) rather than proptest, which cannot be fetched in
//! the offline build. Each test runs 48 seeded cases (the count the
//! original proptest config used); failure messages carry the case number
//! for exact reproduction.

use fib_core::{
    write_image, FibEntropy, FibImage, FibLookup, ImageCodec, ImageError, MultibitDag, PrefixDag,
    SerializedDag, SerializedDagRef, VarStrideDag, VsParams, XbwFib, XbwStorage,
};
use fib_trie::{BinaryTrie, NextHop, Prefix, Prefix4};
use fib_workload::rng::{Rng, Xoshiro256};

const CASES: u64 = 48;

fn arb_routes(rng: &mut impl Rng) -> Vec<(Prefix4, NextHop)> {
    let n: usize = rng.random_range(0..100);
    (0..n)
        .map(|_| {
            (
                Prefix::new(rng.random::<u32>(), rng.random_range(0..=32u8)),
                NextHop::new(rng.random_range(0..8u32)),
            )
        })
        .collect()
}

fn arb_keys(rng: &mut impl Rng, count: usize) -> Vec<u32> {
    (0..count).map(|_| rng.random()).collect()
}

/// The decode path a serialized DAG takes off the wire: `fibimage/v1`
/// bytes → [`FibImage`] → validated zero-copy view, handed to `serve`.
fn decode_serialized<T>(
    bytes: &[u8],
    serve: impl FnOnce(SerializedDagRef<'_, u32>) -> T,
) -> Result<T, ImageError> {
    let image = FibImage::from_bytes(bytes)?;
    <SerializedDag<u32> as ImageCodec<u32>>::view(&image).map(serve)
}

#[test]
fn xbw_equals_trie_on_arbitrary_fibs() {
    for case in 0..CASES {
        let mut rng = Xoshiro256::for_case("xbw_equals_trie_on_arbitrary_fibs", case);
        let routes = arb_routes(&mut rng);
        let keys = arb_keys(&mut rng, 50);
        let trie: BinaryTrie<u32> = routes.into_iter().collect();
        for storage in [XbwStorage::Succinct, XbwStorage::Entropy] {
            let xbw = XbwFib::build(&trie, storage);
            for &k in &keys {
                assert_eq!(xbw.lookup(k), trie.lookup(k), "case {case}, key {k:#010x}");
            }
        }
    }
}

#[test]
fn multibit_equals_trie_for_any_stride() {
    for case in 0..CASES {
        let mut rng = Xoshiro256::for_case("multibit_equals_trie_for_any_stride", case);
        let routes = arb_routes(&mut rng);
        let keys = arb_keys(&mut rng, 50);
        let stride: u8 = rng.random_range(1..=16);
        let trie: BinaryTrie<u32> = routes.into_iter().collect();
        let mb = MultibitDag::from_trie(&trie, stride);
        for &k in &keys {
            assert_eq!(
                mb.lookup(k),
                trie.lookup(k),
                "case {case}, stride {stride}, key {k:#010x}"
            );
        }
    }
}

#[test]
fn serialized_blob_roundtrips_any_dag() {
    for case in 0..CASES {
        let mut rng = Xoshiro256::for_case("serialized_blob_roundtrips_any_dag", case);
        let routes = arb_routes(&mut rng);
        let lambda: u8 = rng.random_range(0..=16);
        let keys = arb_keys(&mut rng, 30);
        let trie: BinaryTrie<u32> = routes.into_iter().collect();
        let dag = PrefixDag::from_trie(&trie, lambda);
        let ser = SerializedDag::from_dag(&dag);
        let bytes = write_image(&ser, None, 0).expect("image encodes");
        decode_serialized(&bytes, |decoded| {
            for &k in &keys {
                assert_eq!(
                    decoded.lookup(k),
                    trie.lookup(k),
                    "case {case}, λ={lambda}, key {k:#010x}"
                );
            }
        })
        .expect("own image decodes");
    }
}

#[test]
fn blob_decoder_never_panics_on_garbage() {
    for case in 0..CASES {
        let mut rng = Xoshiro256::for_case("blob_decoder_never_panics_on_garbage", case);
        let len: usize = rng.random_range(0..600);
        let bytes: Vec<u8> = (0..len).map(|_| rng.random()).collect();
        // Arbitrary input must be rejected cleanly, never crash.
        assert!(decode_serialized(&bytes, |_| ()).is_err(), "case {case}");
    }
}

#[test]
fn blob_decoder_survives_mutations() {
    for case in 0..CASES {
        let mut rng = Xoshiro256::for_case("blob_decoder_survives_mutations", case);
        let routes = arb_routes(&mut rng);
        let lambda: u8 = rng.random_range(0..=8);
        let n_flips: usize = rng.random_range(1..6);
        let flips: Vec<(u16, u8)> = (0..n_flips)
            .map(|_| (rng.random(), rng.random_range(0..8u8)))
            .collect();
        let trie: BinaryTrie<u32> = routes.into_iter().collect();
        let ser = SerializedDag::from_dag(&PrefixDag::from_trie(&trie, lambda));
        let mut blob = write_image(&ser, None, 0).expect("image encodes");
        for (pos, bit) in flips {
            let pos = pos as usize % blob.len();
            blob[pos] ^= 1 << bit;
        }
        // Either rejected, or (if the flips cancelled out) decoded into
        // something that can be queried.
        let _ = decode_serialized(&blob, |decoded| {
            let _ = decoded.lookup(0u32);
            let _ = decoded.lookup(u32::MAX);
        });
    }
}

#[test]
fn entropy_identities_hold() {
    for case in 0..CASES {
        let mut rng = Xoshiro256::for_case("entropy_identities_hold", case);
        let routes = arb_routes(&mut rng);
        let trie: BinaryTrie<u32> = routes.into_iter().collect();
        let m = FibEntropy::of_trie(&trie);
        // Structural identities of the normal form.
        assert_eq!(m.t_nodes, 2 * m.n_leaves - 1, "case {case}");
        assert_eq!(
            m.label_counts.iter().sum::<u64>() as usize,
            m.n_leaves,
            "case {case}"
        );
        // 0 ≤ H0 ≤ lg δ, and E ≤ I always.
        assert!(m.h0 >= -1e-12, "case {case}");
        assert!(m.h0 <= (m.delta as f64).log2() + 1e-12, "case {case}");
        assert!(
            m.entropy_bits() <= m.info_bound_bits() + 1e-9,
            "case {case}"
        );
        // δ ≥ 1 even for the empty FIB (the ⊥ leaf).
        assert!(m.delta >= 1, "case {case}");
    }
}

#[test]
fn fold_is_idempotent_and_size_monotone_in_lambda() {
    for case in 0..CASES {
        let mut rng = Xoshiro256::for_case("fold_is_idempotent_and_size_monotone_in_lambda", case);
        let routes = arb_routes(&mut rng);
        let lambda: u8 = rng.random_range(0..=32);
        let trie: BinaryTrie<u32> = routes.into_iter().collect();
        let dag = PrefixDag::from_trie(&trie, lambda);
        dag.assert_invariants();
        // Folding the control again is canonical.
        let again = PrefixDag::from_trie(dag.control(), lambda);
        assert_eq!(dag.stats(), again.stats(), "case {case}, λ={lambda}");
        // Upper bound: never more nodes than the control trie above the
        // barrier plus the full normal form below it. (Note λ=0 can exceed
        // the *plain* trie's node count on sparse chains — leaf-pushing
        // materializes ⊥ leaves the sparse trie never stores — so the
        // bound is against the normal form, not the input.)
        let proper = fib_trie::ProperTrie::from_trie(&trie);
        assert!(
            dag.stats().live_nodes <= trie.node_count() + proper.node_count(),
            "case {case}, λ={lambda}"
        );
    }
}

/// Routes confined to the top `depth` bits: below that the trie never
/// branches, so lookup depth and result depend only on the leading
/// `depth` address bits and heat classes at that depth are exact.
fn arb_shallow_routes(rng: &mut impl Rng, depth: u8) -> Vec<(Prefix4, NextHop)> {
    let n: usize = rng.random_range(0..60);
    (0..n)
        .map(|_| {
            let len = rng.random_range(0..=depth);
            let bits = rng.random::<u32>() & (u32::MAX << (32 - u32::from(depth)));
            (
                Prefix::new(bits, len),
                NextHop::new(rng.random_range(0..8u32)),
            )
        })
        .collect()
}

#[test]
fn vsdag_dp_beats_every_fixed_stride_uniform() {
    for case in 0..CASES {
        let mut rng = Xoshiro256::for_case("vsdag_dp_beats_every_fixed_stride_uniform", case);
        let routes = arb_shallow_routes(&mut rng, 12);
        let trie: BinaryTrie<u32> = routes.into_iter().collect();
        let params = VsParams {
            max_stride: 8,
            budget: f64::INFINITY,
        };
        let vs = VarStrideDag::from_trie(&trie, params);
        let vs_avg = vs.depth_stats().0;
        // The DP's own objective (traffic-weighted slot reads) must agree
        // with the emitted structure's measured expected depth: the plan
        // is what got built.
        assert!(
            (vs.planned_cost() - vs_avg).abs() < 1e-6,
            "case {case}: planned {} vs measured {vs_avg}",
            vs.planned_cost()
        );
        // Every fixed-stride placement is a point in the DP's search
        // space, so the optimum can never be deeper on average.
        for stride in 1..=8u8 {
            let mb_avg = MultibitDag::from_trie(&trie, stride).depth_stats().0;
            assert!(
                vs_avg <= mb_avg + 1e-9,
                "case {case}: vsdag {vs_avg} deeper than stride-{stride} {mb_avg}"
            );
        }
    }
}

#[test]
fn vsdag_dp_beats_every_fixed_stride_under_heat() {
    const HEAT_DEPTH: u8 = 12;
    for case in 0..CASES {
        let mut rng = Xoshiro256::for_case("vsdag_dp_beats_every_fixed_stride_under_heat", case);
        let routes = arb_shallow_routes(&mut rng, HEAT_DEPTH);
        let trie: BinaryTrie<u32> = routes.into_iter().collect();
        // A spiky heat summary over full address classes at the trie's
        // branching floor: exact weights, no projection slack.
        let n_hot: usize = rng.random_range(1..16);
        let heat: Vec<(u64, u64)> = (0..n_hot)
            .map(|_| {
                let class = u64::from(rng.random::<u16>() & 0x0FFF);
                (
                    class << (64 - u32::from(HEAT_DEPTH)),
                    rng.random_range(1..100u64),
                )
            })
            .collect();
        let total: u64 = heat.iter().map(|&(_, c)| c).sum();
        let params = VsParams {
            max_stride: 8,
            budget: f64::INFINITY,
        };
        let vs = VarStrideDag::from_trie_weighted(&trie, params, Some((&heat, HEAT_DEPTH)));
        let expected_hops = |depth_of: &dyn Fn(u32) -> u32| -> f64 {
            heat.iter()
                .map(|&(key, count)| {
                    let addr = ((key >> 32) as u32) & (u32::MAX << (32 - u32::from(HEAT_DEPTH)));
                    count as f64 * f64::from(depth_of(addr))
                })
                .sum::<f64>()
                / total as f64
        };
        let vs_w = expected_hops(&|a| vs.lookup_with_depth(a).1);
        for stride in 1..=8u8 {
            let mb = MultibitDag::from_trie(&trie, stride);
            let mb_w = expected_hops(&|a| mb.lookup_with_depth(a).1);
            assert!(
                vs_w <= mb_w + 1e-9,
                "case {case}: weighted vsdag {vs_w} deeper than stride-{stride} {mb_w}"
            );
        }
    }
}
