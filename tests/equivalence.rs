//! Cross-crate differential tests: every representation in the workspace
//! must compute the same longest-prefix-match function, on FIBs of every
//! shape the workload generators can produce.

use fibcomp::core::{
    roster, BuildConfig, FibLookup, MultibitDag, PrefixDag, SerializedDag, VarStrideDag,
    VarStrideDagRef, VsParams,
};
use fibcomp::trie::{ortc, Address, BinaryTrie, LcTrie, NextHop, ProperTrie, RouteTable};
use fibcomp::workload::rng::Xoshiro256;
use fibcomp::workload::{traces, FibSpec, LabelModel};

fn rng(seed: u64) -> Xoshiro256 {
    Xoshiro256::seed_from_u64(seed)
}

/// Builds every engine over `trie` and checks they — and any `extra`
/// engines the caller built over the same trie — agree on `keys`, one
/// address at a time and through both batched data-plane entry points
/// (`lookup_batch`, which the flat-layout engines override with
/// interleaved walks, and its `lookup_stream` alias).
fn check_all_engines(trie: &BinaryTrie<u32>, keys: &[u32], extra: &[&dyn FibLookup<u32>]) {
    let table: RouteTable<u32> = trie.iter().collect();
    let proper = ProperTrie::from_trie(trie);
    proper.assert_invariants();
    // The base roster (fib_trie at fill 0.5 / stride 16, λ = 11, fixed
    // stride 4, default vsdag), then this suite's parameter variants.
    let config = BuildConfig {
        max_stride: 16,
        ..BuildConfig::default()
    };
    let base = roster(trie, &config, None);
    base.pdag.assert_invariants();
    let lc_full = LcTrie::with_params(trie, 1.0, 8);
    let dag0 = PrefixDag::from_trie(trie, 0);
    let dag_eq3 = PrefixDag::with_entropy_barrier(trie);
    dag0.assert_invariants();
    dag_eq3.assert_invariants();
    let ser0 = SerializedDag::from_dag(&dag0);
    let mb8 = MultibitDag::from_trie(trie, 8);
    // Heat-weighted build: skew all traffic onto the first probe keys'
    // /12 classes. The DP may pick wildly different strides, but the
    // forwarding function must not move.
    let heat: Vec<(u64, u64)> = keys
        .iter()
        .take(64)
        .map(|&k| ((u64::from(k) << 32) & (u64::MAX << 52), 7u64))
        .collect();
    let vs_hot = VarStrideDag::from_trie_weighted(
        trie,
        VsParams {
            max_stride: 6,
            budget: f64::INFINITY,
        },
        Some((&heat, 12)),
    );
    let aggregated = ortc::compress(trie);

    let mut engines: Vec<&dyn FibLookup<u32>> =
        base.engines().into_iter().map(|(_, e)| e).collect();
    engines.extend([
        &proper as &dyn FibLookup<u32>,
        &lc_full,
        &dag0,
        &dag_eq3,
        &ser0,
        &mb8,
        &vs_hot,
    ]);
    engines.extend(extra);
    for &key in keys {
        let expected = table.lookup(key);
        for engine in &engines {
            assert_eq!(
                engine.lookup(key),
                expected,
                "{} diverges from the oracle at {key:#010x}",
                engine.name()
            );
        }
        assert_eq!(
            aggregated.lookup(key),
            expected,
            "ORTC diverges at {key:#010x}"
        );
    }
    // Batched lookups must agree with per-address lookups on every engine
    // — including the RouteTable oracle running the default loop impl.
    let mut out = vec![Some(NextHop::new(u32::MAX - 1)); keys.len()];
    for engine in engines
        .iter()
        .copied()
        .chain([&table as &dyn FibLookup<u32>])
    {
        for entry in ["batch", "stream"] {
            out.fill(Some(NextHop::new(u32::MAX - 1))); // poison every slot
            if entry == "batch" {
                engine.lookup_batch(keys, &mut out);
            } else {
                engine.lookup_stream(keys, &mut out);
            }
            for (&key, &got) in keys.iter().zip(&out) {
                assert_eq!(
                    got,
                    engine.lookup(key),
                    "{} {entry} diverges at {key:#010x}",
                    engine.name()
                );
            }
        }
    }
}

fn probe_keys(trie: &BinaryTrie<u32>, seed: u64, count: usize) -> Vec<u32> {
    let mut r = rng(seed);
    let mut keys = traces::uniform::<u32, _>(&mut r, count);
    // Adversarial keys: the exact prefix boundaries of every route, and
    // the addresses just before/after each covered block.
    for (p, _) in trie.iter().take(500) {
        keys.push(p.addr());
        keys.push(p.addr().wrapping_sub(1));
        if p.len() > 0 {
            let width = 32 - u32::from(p.len());
            let last = p.addr() | ((1u64 << width) - 1) as u32;
            keys.push(last);
            keys.push(last.wrapping_add(1));
        }
    }
    keys
}

#[test]
fn dfz_like_fib() {
    let trie: BinaryTrie<u32> = FibSpec::dfz_like(20_000).generate(&mut rng(1));
    let keys = probe_keys(&trie, 2, 4000);
    check_all_engines(&trie, &keys, &[]);
}

#[test]
fn access_like_fib_with_default_and_skew() {
    let spec = FibSpec {
        n_prefixes: 8_000,
        max_len: 32,
        depth_bias: 0.6,
        labels: LabelModel::geometric_for_h0(28, 1.06),
        spatial_correlation: 0.0,
        default_route: true,
    };
    let trie: BinaryTrie<u32> = spec.generate(&mut rng(3));
    check_all_engines(&trie, &probe_keys(&trie, 4, 3000), &[]);
}

#[test]
fn bernoulli_low_entropy_fib() {
    let spec = FibSpec {
        n_prefixes: 5_000,
        max_len: 24,
        depth_bias: 0.0,
        labels: LabelModel::Bernoulli { p: 0.02 },
        spatial_correlation: 0.0,
        default_route: false,
    };
    let trie: BinaryTrie<u32> = spec.generate(&mut rng(5));
    check_all_engines(&trie, &probe_keys(&trie, 6, 3000), &[]);
}

/// A table past 4 MiB — out of L2, and larger than any other tier-1
/// table or served workload — and the widest fixed-stride plan, through
/// the same matrix: the one place a rolling-refill kernel is checked
/// where its walks miss cache.
#[test]
fn large_tables_past_four_mib() {
    let mut taz = fibcomp::workload::instances::by_name("taz").expect("taz instance");
    taz.n_prefixes /= 50;
    let trie = taz.build(0xF1B);
    // The λ = 20 root array alone is 2²⁰ × 8 B, whatever the table.
    let ser20 = SerializedDag::from_dag(&PrefixDag::from_trie(&trie, 20));
    assert!(ser20.size_bytes() >= 4 << 20);
    // The stride-16 plan was the second table past 4 MiB until its slots
    // became runs: 2,048 blocks a node, and a handful of runs in each.
    let mb16 = MultibitDag::from_trie(&trie, 16);
    assert_eq!(mb16.block_count(), mb16.node_count() * 2048);
    let mut keys = probe_keys(&trie, 9, 3000);
    keys.extend(traces::ZipfTrace::new(&trie, 1.0).generate(&mut rng(10), 3000));
    check_all_engines(&trie, &keys, &[&ser20, &mb16]);
}

#[test]
fn tiny_fibs_and_degenerate_shapes() {
    // Empty.
    check_all_engines(&BinaryTrie::new(), &[0, 1, u32::MAX, 0x8000_0000], &[]);
    // Default only.
    let mut t = BinaryTrie::new();
    t.insert("0.0.0.0/0".parse().unwrap(), fibcomp::trie::NextHop::new(1));
    check_all_engines(&t, &[0, u32::MAX, 42], &[]);
    // One host route.
    let mut t = BinaryTrie::new();
    t.insert(
        "1.2.3.4/32".parse().unwrap(),
        fibcomp::trie::NextHop::new(2),
    );
    check_all_engines(&t, &[0x0102_0304, 0x0102_0305, 0x0102_0303, 0], &[]);
    // Two maximally separated routes.
    let mut t = BinaryTrie::new();
    t.insert("0.0.0.0/1".parse().unwrap(), fibcomp::trie::NextHop::new(1));
    t.insert(
        "128.0.0.0/1".parse().unwrap(),
        fibcomp::trie::NextHop::new(2),
    );
    check_all_engines(&t, &[0, 0x7FFF_FFFF, 0x8000_0000, u32::MAX], &[]);
}

#[test]
fn nested_chains_exercise_deep_paths() {
    // A chain of ever-more-specific routes flipping between two labels:
    // worst case for leaf-pushing depth and fall-through handling.
    let mut t = BinaryTrie::new();
    for len in 0..=32u8 {
        let nh = fibcomp::trie::NextHop::new(u32::from(len % 2));
        t.insert(fibcomp::trie::Prefix4::new(0, len), nh);
    }
    let keys: Vec<u32> = (0..33)
        .map(|b| if b == 32 { 0 } else { 1u32 << b })
        .collect();
    check_all_engines(&t, &keys, &[]);
    // Every vsdag node on this chain is two runs wide or nearly: the
    // narrowest blocks the collapse emits, at every block shape.
    for (tag, vs) in vsdag_plans(&t) {
        assert_eq!(vs.run_width(), 16, "{tag}");
        check_vsdag(&vs, &t, &keys, &tag);
    }
}

#[test]
fn ortc_output_recompresses_equivalently() {
    // ORTC then re-encoding with the compressed engines must preserve the
    // forwarding function end-to-end.
    let trie: BinaryTrie<u32> = FibSpec::dfz_like(3_000).generate(&mut rng(7));
    let aggregated = ortc::compress(&trie);
    if let Some(rebuilt) = aggregated.to_trie() {
        let keys = probe_keys(&trie, 8, 2000);
        let dag = PrefixDag::from_trie(&rebuilt, 11);
        for key in keys {
            assert_eq!(dag.lookup(key), trie.lookup(key), "at {key:#x}");
        }
    }
}

// ---------------------------------------------------------------------
// Hostile tables for the vsdag's run collapse
// ---------------------------------------------------------------------

/// Scalar, batch, stream and traced lookups of `vs` against the control
/// trie on `keys`, plus the engine's own structural validation.
fn check_vsdag<A: Address>(vs: &VarStrideDag<A>, trie: &BinaryTrie<A>, keys: &[A], tag: &str) {
    VarStrideDagRef::<A>::from_parts(
        vs.node_words(),
        vs.block_words(),
        vs.run_words(),
        vs.shape(),
    )
    .unwrap_or_else(|e| panic!("{tag}: from_parts: {e}"));
    let poison = Some(NextHop::new(u32::MAX - 1));
    let (mut batch, mut stream) = (vec![poison; keys.len()], vec![poison; keys.len()]);
    vs.lookup_batch(keys, &mut batch);
    vs.lookup_stream(keys, &mut stream);
    for (i, &key) in keys.iter().enumerate() {
        let want = trie.lookup(key);
        assert_eq!(vs.lookup(key), want, "{tag}: scalar at {key:?}");
        assert_eq!(batch[i], want, "{tag}: batch at {key:?}");
        assert_eq!(stream[i], want, "{tag}: stream at {key:?}");
        let mut reads = 0u32;
        let traced = vs.lookup_traced(key, &mut |_, _| reads += 1);
        assert_eq!(traced, want, "{tag}: traced at {key:?}");
        assert_eq!(
            reads,
            3 * vs.lookup_with_depth(key).1,
            "{tag}: reads at {key:?}"
        );
    }
}

/// The default plan, and fixed strides on either side of the 32-slot
/// block: a lone short block, exactly one, several.
fn vsdag_plans<A: Address>(trie: &BinaryTrie<A>) -> Vec<(String, VarStrideDag<A>)> {
    let mut plans = vec![(
        "default".to_string(),
        VarStrideDag::from_trie(trie, VsParams::default()),
    )];
    for stride in [3u8, 5, 8] {
        plans.push((
            format!("stride {stride}"),
            VarStrideDag::from_trie(trie, stride),
        ));
    }
    plans
}

/// A /8 deaggregated into all 65,536 of its /24s, next hops cycling
/// through three labels: no two adjacent /24s agree, and — 2^k is never a
/// multiple of 3 — neither do two adjacent subtrees at any level, so
/// below the /8 every slot is its own run and the collapse has nothing to
/// collapse. What it may cost then is bounded and stated: never more than
/// the flat 16-bit table (8 B a node + 2 B a slot) plus one bitmap bit a
/// slot plus 8 B of block word per 32 slots begun.
#[test]
fn vsdag_deaggregated_slash8_degrades_within_the_stated_bound() {
    let mut trie: BinaryTrie<u32> = BinaryTrie::new();
    for i in 0..1u32 << 16 {
        trie.insert(
            fibcomp::trie::Prefix4::new(0x0A00_0000 | i << 8, 24),
            NextHop::new(i % 3),
        );
    }
    let mut keys = probe_keys(&trie, 40, 2000);
    keys.extend((0..2000u32).map(|i| 0x0A00_0000 | i.wrapping_mul(0x9E37_79B9) >> 8));
    for (tag, vs) in vsdag_plans(&trie) {
        check_vsdag(&vs, &trie, &keys, &tag);
        assert_eq!(vs.run_width(), 16, "{tag}");
        let (slots, runs) = (vs.slot_count(), vs.run_count());
        // Only the few nodes on the way down to the /8 hold runs of ⊥.
        assert!(runs * 3 >= slots * 2, "{tag}: {runs} runs of {slots} slots");
        let flat16 = vs.node_count() * 8 + slots * 2;
        let bound = flat16 + slots.div_ceil(8) + vs.block_count() * 8;
        assert!(
            vs.size_bytes() <= bound,
            "{tag}: {} B over the bound {bound} B ({flat16} B flat)",
            vs.size_bytes()
        );
    }
}

/// A /15 deaggregated into all 131,072 of its host routes under a fixed
/// stride of 16: two 2,048-block nodes of 65,536 one-slot runs each, so
/// every block of the second node and of the root carries a rank past
/// 2^16 — run *indices* are 32-bit whatever the width of a reference.
#[test]
fn vsdag_stride_sixteen_ranks_pass_two_to_the_sixteen() {
    let mut trie: BinaryTrie<u32> = BinaryTrie::new();
    for i in 0..1u32 << 17 {
        trie.insert(
            fibcomp::trie::Prefix4::new(0x0A02_0000 | i, 32),
            NextHop::new(i % 3),
        );
    }
    let vs = VarStrideDag::from_trie(&trie, 16u8);
    assert_eq!((vs.node_count(), vs.block_count()), (3, 3 * 2048));
    assert_eq!((vs.run_count(), vs.run_width()), (2 * 65_536 + 4, 16));
    let top_rank = vs.block_words().last().expect("three nodes") >> 32;
    assert!(top_rank > 1 << 17, "root ranks start at {top_rank}");
    let mut keys = probe_keys(&trie, 43, 2000);
    keys.extend((0..4000u32).map(|i| 0x0A02_0000 | i.wrapping_mul(0x9E37_79B9) >> 15));
    check_vsdag(&vs, &trie, &keys, "stride 16");
}

/// Uniformly random next hops over 50,000 labels: nothing folds, nearly
/// every run is one slot, and labels past 0x7FFE force 32-bit runs.
#[test]
fn vsdag_incompressible_labels_take_the_wide_runs_v4() {
    let spec = FibSpec {
        labels: LabelModel::Uniform { delta: 50_000 },
        ..FibSpec::dfz_like(12_000)
    };
    let trie: BinaryTrie<u32> = spec.generate(&mut rng(41));
    let keys = probe_keys(&trie, 42, 3000);
    for (tag, vs) in vsdag_plans(&trie) {
        assert_eq!(vs.run_width(), 32, "{tag}");
        check_vsdag(&vs, &trie, &keys, &tag);
    }
    // The same shape with the labels folded into 0..4 is a 16-bit table:
    // the width follows the labels, not the table's size.
    let few: BinaryTrie<u32> = trie
        .iter()
        .map(|(p, nh)| (p, NextHop::new(nh.index() % 4)))
        .collect();
    let vs = VarStrideDag::from_trie(&few, VsParams::default());
    assert_eq!(vs.run_width(), 16);
    check_vsdag(&vs, &few, &keys, "folded labels");
}

// ---------------------------------------------------------------------
// IPv6: the same differential guarantee over u128 addresses
// ---------------------------------------------------------------------

/// Builds every engine over a u128 trie and checks scalar + batched
/// agreement — the coverage gap the IPv4-only suite above left open.
fn check_all_engines_v6(trie: &fibcomp::trie::BinaryTrie<u128>, keys: &[u128]) {
    let table: RouteTable<u128> = trie.iter().collect();
    let proper = ProperTrie::from_trie(trie);
    // The roster at the v6 parameters this suite pins: fib_trie at
    // stride 16, λ = 24, fixed stride 8.
    let config = BuildConfig {
        lambda: Some(24),
        max_stride: 16,
        stride: 8,
        ..BuildConfig::default()
    };
    let base = roster(trie, &config, None);
    let mut engines: Vec<&dyn FibLookup<u128>> =
        base.engines().into_iter().map(|(_, e)| e).collect();
    engines.push(&proper);
    for &key in keys {
        let expected = table.lookup(key);
        for engine in &engines {
            assert_eq!(
                engine.lookup(key),
                expected,
                "{} diverges from the oracle at {key:#034x}",
                engine.name()
            );
        }
    }
    let mut out = vec![Some(NextHop::new(u32::MAX - 1)); keys.len()];
    for engine in &engines {
        out.fill(Some(NextHop::new(u32::MAX - 1)));
        engine.lookup_batch(keys, &mut out);
        for (&key, &got) in keys.iter().zip(&out) {
            assert_eq!(
                got,
                engine.lookup(key),
                "{} batch diverges at {key:#034x}",
                engine.name()
            );
        }
    }
}

#[test]
fn ipv6_fib_all_engines() {
    use fibcomp::workload::rng::Rng;
    let mut trie: fibcomp::trie::BinaryTrie<u128> = fibcomp::trie::BinaryTrie::new();
    trie.insert(
        "::/0".parse::<fibcomp::trie::Prefix6>().unwrap(),
        NextHop::new(0),
    );
    let mut r = rng(60);
    for i in 0..4_000u64 {
        // 2001:db8::/32-rooted allocations with BGP-ish v6 lengths.
        let base = (0x2001_0db8u128 << 96) | (u128::from(i) << 72);
        let len = [32u8, 40, 44, 48, 56, 64][(r.random::<u64>() % 6) as usize];
        trie.insert(
            fibcomp::trie::Prefix::new(base | (u128::from(r.random::<u64>()) << 16), len),
            NextHop::new((r.random::<u64>() % 14) as u32),
        );
    }
    let mut keys = traces::uniform::<u128, _>(&mut rng(61), 2_000);
    // Half the probes inside the routed region, plus exact boundaries.
    for (i, key) in keys.iter_mut().enumerate().take(1_000) {
        *key = (0x2001_0db8u128 << 96) | ((i as u128) << 72) | (*key & ((1u128 << 72) - 1));
    }
    for (p, _) in trie.iter().take(300) {
        keys.push(p.addr());
        keys.push(p.addr().wrapping_sub(1));
    }
    check_all_engines_v6(&trie, &keys);
}

#[test]
fn ipv6_host_routes_and_deep_chains() {
    let mut trie: fibcomp::trie::BinaryTrie<u128> = fibcomp::trie::BinaryTrie::new();
    for len in (0..=128u8).step_by(16) {
        trie.insert(
            fibcomp::trie::Prefix::new(u128::MAX, len),
            NextHop::new(u32::from(len % 3)),
        );
    }
    let keys: Vec<u128> = (0..128u32)
        .map(|b| u128::MAX ^ (1u128 << b))
        .chain([0u128, u128::MAX])
        .collect();
    check_all_engines_v6(&trie, &keys);
}

/// The /0…/128 chain, every length, and the 32-bit run width over u128
/// addresses: the v6 halves of the v4 hostile tables above.
#[test]
fn ipv6_vsdag_full_chain_and_wide_runs() {
    let mut chain: BinaryTrie<u128> = BinaryTrie::new();
    for len in 0..=128u8 {
        chain.insert(
            fibcomp::trie::Prefix::new(u128::MAX, len),
            NextHop::new(u32::from(len % 2)),
        );
    }
    let keys: Vec<u128> = (0..128u32)
        .map(|b| u128::MAX ^ (1u128 << b))
        .chain([0u128, u128::MAX])
        .collect();
    for (tag, vs) in vsdag_plans(&chain) {
        assert_eq!(vs.run_width(), 16, "{tag}");
        check_vsdag(&vs, &chain, &keys, &tag);
    }

    let spec = FibSpec {
        max_len: 64,
        labels: LabelModel::Uniform { delta: 40_000 },
        ..FibSpec::dfz_like(6_000)
    };
    let wide: BinaryTrie<u128> = spec.generate(&mut rng(62));
    let mut keys = traces::uniform::<u128, _>(&mut rng(63), 1_000);
    for (p, _) in wide.iter().take(1_000) {
        keys.push(p.addr());
        keys.push(p.addr().wrapping_sub(1));
    }
    for (tag, vs) in vsdag_plans(&wide) {
        assert_eq!(vs.run_width(), 32, "{tag}");
        check_vsdag(&vs, &wide, &keys, &tag);
    }
}
