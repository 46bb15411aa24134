//! Workspace-level property tests: arbitrary route sets and update
//! interleavings, checked against the tabular oracle.
//!
//! Inputs are drawn from the workspace's deterministic PRNG
//! (`fibcomp::workload::rng`) rather than proptest, which cannot be
//! fetched in the offline build. Each test runs 64 seeded cases (the count
//! the original proptest config used); failure messages carry the case
//! number for exact reproduction.

use fibcomp::core::{FibLookup, PrefixDag, SerializedDag, XbwFib, XbwStorage};
use fibcomp::trie::{ortc, BinaryTrie, LcTrie, NextHop, Prefix4, ProperTrie, RouteTable};
use fibcomp::workload::rng::{Rng, Xoshiro256};

const CASES: u64 = 64;

fn arb_prefix(rng: &mut impl Rng) -> Prefix4 {
    Prefix4::new(rng.random(), rng.random_range(0..=32))
}

fn arb_routes(rng: &mut impl Rng, max: usize) -> Vec<(Prefix4, NextHop)> {
    let n = rng.random_range(0..max);
    (0..n)
        .map(|_| (arb_prefix(rng), NextHop::new(rng.random_range(0..6u32))))
        .collect()
}

fn arb_keys(rng: &mut impl Rng, count: usize) -> Vec<u32> {
    (0..count).map(|_| rng.random()).collect()
}

#[test]
fn every_static_engine_matches_the_oracle() {
    for case in 0..CASES {
        let mut rng = Xoshiro256::for_case("every_static_engine_matches_the_oracle", case);
        let routes = arb_routes(&mut rng, 120);
        let keys = arb_keys(&mut rng, 40);
        let table: RouteTable<u32> = routes.iter().copied().collect();
        let trie: BinaryTrie<u32> = routes.iter().copied().collect();
        let proper = ProperTrie::from_trie(&trie);
        proper.assert_invariants();
        let lc = LcTrie::from_trie(&trie);
        let xbw = XbwFib::build(&trie, XbwStorage::Entropy);
        let dag = PrefixDag::from_trie(&trie, 7);
        dag.assert_invariants();
        let ser = SerializedDag::from_dag(&dag);
        let agg = ortc::compress(&trie);
        assert!(
            agg.len() <= trie.len() + agg.blackhole_count(),
            "case {case}"
        );
        // Probe random keys plus every route's base address.
        for key in keys.into_iter().chain(routes.iter().map(|(p, _)| p.addr())) {
            let expected = table.lookup(key);
            assert_eq!(
                trie.lookup(key),
                expected,
                "case {case}, trie at {key:#010x}"
            );
            assert_eq!(
                proper.lookup(key),
                expected,
                "case {case}, proper at {key:#010x}"
            );
            assert_eq!(lc.lookup(key), expected, "case {case}, lc at {key:#010x}");
            assert_eq!(xbw.lookup(key), expected, "case {case}, xbw at {key:#010x}");
            assert_eq!(dag.lookup(key), expected, "case {case}, dag at {key:#010x}");
            assert_eq!(ser.lookup(key), expected, "case {case}, ser at {key:#010x}");
            assert_eq!(
                agg.lookup(key),
                expected,
                "case {case}, ortc at {key:#010x}"
            );
        }
    }
}

#[test]
fn dag_tracks_oracle_under_interleaved_updates() {
    for case in 0..CASES {
        let mut rng = Xoshiro256::for_case("dag_tracks_oracle_under_interleaved_updates", case);
        let initial = arb_routes(&mut rng, 60);
        let n_ops: usize = rng.random_range(0..120);
        let ops: Vec<(Prefix4, Option<u32>)> = (0..n_ops)
            .map(|_| {
                let p = arb_prefix(&mut rng);
                let op = if rng.random::<f64>() < 0.5 {
                    Some(rng.random_range(0..6u32))
                } else {
                    None
                };
                (p, op)
            })
            .collect();
        let keys = arb_keys(&mut rng, 30);
        let lambda: u8 = rng.random_range(0..=32);
        let mut table: RouteTable<u32> = initial.iter().copied().collect();
        let trie: BinaryTrie<u32> = initial.iter().copied().collect();
        let mut dag = PrefixDag::from_trie(&trie, lambda);
        for (prefix, op) in ops {
            match op {
                Some(h) => {
                    let nh = NextHop::new(h);
                    assert_eq!(
                        dag.insert(prefix, nh),
                        table.insert(prefix, nh),
                        "case {case}, insert {prefix}"
                    );
                }
                None => {
                    assert_eq!(
                        dag.remove(prefix),
                        table.remove(prefix),
                        "case {case}, remove {prefix}"
                    );
                }
            }
        }
        dag.assert_invariants();
        for key in keys.into_iter().chain([0, u32::MAX]) {
            assert_eq!(
                dag.lookup(key),
                table.lookup(key),
                "case {case}, λ={lambda}, key {key:#010x}"
            );
        }
    }
}

#[test]
fn leaf_push_is_canonical_and_minimal() {
    for case in 0..CASES {
        let mut rng = Xoshiro256::for_case("leaf_push_is_canonical_and_minimal", case);
        let routes = arb_routes(&mut rng, 80);
        let trie: BinaryTrie<u32> = routes.iter().copied().collect();
        let proper = ProperTrie::from_trie(&trie);
        proper.assert_invariants();
        // Rebuilding from the iterated routes gives the identical form.
        let rebuilt: BinaryTrie<u32> = trie.iter().collect();
        let proper2 = ProperTrie::from_trie(&rebuilt);
        assert_eq!(proper.n_leaves(), proper2.n_leaves(), "case {case}");
        assert_eq!(proper.nodes(), proper2.nodes(), "case {case}");
        assert_eq!(proper.depths(), proper2.depths(), "case {case}");
    }
}

#[test]
fn ortc_never_inflates_and_preserves_semantics() {
    for case in 0..CASES {
        let mut rng = Xoshiro256::for_case("ortc_never_inflates_and_preserves_semantics", case);
        let routes = arb_routes(&mut rng, 80);
        let trie: BinaryTrie<u32> = routes.iter().copied().collect();
        let agg = ortc::compress(&trie);
        // ORTC is optimal, so it can never exceed the input size (counting
        // blackhole entries as entries).
        assert!(agg.len() <= trie.len().max(1), "case {case}");
        for (p, _) in trie.iter() {
            assert_eq!(
                agg.lookup(p.addr()),
                trie.lookup(p.addr()),
                "case {case}, at {p}"
            );
        }
    }
}

#[test]
fn folded_string_roundtrips_and_updates() {
    for case in 0..CASES {
        let mut rng = Xoshiro256::for_case("folded_string_roundtrips_and_updates", case);
        let log_n: u32 = rng.random_range(1..=9);
        let lambda: u8 = rng.random_range(0..=9);
        let n = 1usize << log_n;
        let mut symbols: Vec<u16> = (0..n).map(|_| rng.random_range(0..5u16)).collect();
        let mut fs = fibcomp::core::FoldedString::new(&symbols, lambda.min(log_n as u8));
        let n_patches: usize = rng.random_range(0..12);
        for _ in 0..n_patches {
            let pos = rng.random_range(0..n);
            let val: u16 = rng.random_range(0..7);
            fs.set(pos, val);
            symbols[pos] = val;
        }
        for (i, &s) in symbols.iter().enumerate() {
            assert_eq!(fs.get(i), s, "case {case}, λ={lambda}, position {i}");
        }
    }
}
