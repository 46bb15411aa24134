//! Traffic-aware hot-layout guarantees.
//!
//! The hot slab is an *optimization*, never a semantic change: a
//! [`HotFront`] over an engine (and an image-backed snapshot fronted by
//! the image's slab section) must be extensionally equal to the engine it
//! fronts — on
//! uniform, Zipf-skewed, and adversarial boundary keys, for v4 and v6 —
//! because compilation only promotes blocks whose every address shares one
//! longest-prefix-match answer. And the heat pipeline feeding it must be
//! deterministic: a seeded trace pushed through per-worker sketches merges
//! to a pinned fingerprint, so the same traffic always compiles the same
//! slab.

use fibcomp::core::{
    write_image_hot, FibImage, FibLookup, HotConfig, HotFront, HotSlab, MultibitDag, PrefixDag,
    SerializedDag, XbwFib, XbwStorage,
};
use fibcomp::router::EpochSnapshot;
use fibcomp::trie::{Address, BinaryTrie, LcTrie, NextHop};
use fibcomp::workload::rng::Xoshiro256;
use fibcomp::workload::{traces, FibSpec, HeatMap, HeatSummary};

fn rng(seed: u64) -> Xoshiro256 {
    Xoshiro256::seed_from_u64(seed)
}

/// The lookup entry points of `plain` with a slab in front: single,
/// batch and stream.
struct Hot<L, B, S> {
    lookup: L,
    batch: B,
    stream: S,
}

/// Checks that `hot` — `plain` with a slab in front — is bit-identical to
/// it on `keys`, through every lookup entry point.
fn assert_same<A: Address>(
    hot: Hot<
        impl Fn(A) -> Option<NextHop>,
        impl Fn(&[A], &mut [Option<NextHop>]),
        impl Fn(&[A], &mut [Option<NextHop>]),
    >,
    plain: &impl FibLookup<A>,
    keys: &[A],
) {
    for &key in keys {
        assert_eq!(
            (hot.lookup)(key),
            plain.lookup(key),
            "{} hot/plain single-lookup divergence",
            plain.name()
        );
    }
    let poison = Some(NextHop::new(u32::MAX - 1));
    let mut want = vec![poison; keys.len()];
    let mut got = vec![poison; keys.len()];
    plain.lookup_batch(keys, &mut want);
    (hot.batch)(keys, &mut got);
    assert_eq!(got, want, "{} hot/plain batch divergence", plain.name());
    got.fill(poison);
    (hot.stream)(keys, &mut got);
    assert_eq!(got, want, "{} hot/plain stream divergence", plain.name());
}

/// Puts `slab` in front of `engine` and checks the composite against the
/// bare engine.
fn assert_twin<A: Address, E: FibLookup<A>>(engine: E, slab: &HotSlab, keys: &[A]) {
    let front = HotFront::calibrated(slab.clone(), |a| engine.lookup(a));
    let hot = Hot {
        lookup: |a| front.lookup(a, |a| engine.lookup(a)),
        batch: |a: &[A], o: &mut [_]| front.lookup_batch(a, o, |a, o| engine.lookup_batch(a, o)),
        stream: |a: &[A], o: &mut [_]| front.lookup_batch(a, o, |a, o| engine.lookup_stream(a, o)),
    };
    assert_same(hot, &engine, keys);
}

/// Uniform + Zipf + adversarial boundary keys for `trie`.
fn probe_keys<A: Address>(trie: &BinaryTrie<A>, seed: u64, zipf: &[A]) -> Vec<A> {
    let mut keys = traces::uniform::<A, _>(&mut rng(seed), 2_000);
    keys.extend_from_slice(zipf);
    let width_mask = if A::WIDTH == 128 {
        u128::MAX
    } else {
        (1u128 << A::WIDTH) - 1
    };
    for (p, _) in trie.iter().take(400) {
        keys.push(p.addr());
        keys.push(A::from_u128(
            p.addr().to_u128().wrapping_sub(1) & width_mask,
        ));
        keys.push(A::from_u128(
            p.addr().to_u128().wrapping_add(1) & width_mask,
        ));
    }
    keys
}

/// Builds every flat-layout engine over `trie` and runs the hot/plain
/// twin check on all of them with one shared slab.
fn check_hot_layouts<A: Address>(trie: &BinaryTrie<A>, config: &HotConfig, seed: u64) {
    let zipf = traces::ZipfTrace::new(trie, 1.0).generate(&mut rng(seed), 4_000);
    let heat = HeatSummary::sample_addrs(config.depth, zipf.iter().copied());
    let (slab, stats) = HotSlab::compile(trie, heat.entries(), config);
    assert!(
        stats.promoted > 0,
        "a skewed trace over a DFZ-like FIB must promote some blocks"
    );
    let keys = probe_keys(trie, seed ^ 0x5EED, &zipf);
    // The slab must actually participate: skewed keys should hit it.
    let hits = keys
        .iter()
        .filter(|&&k| slab.as_ref().probe_addr(k).is_some())
        .count();
    assert!(hits > 0, "no probe key hit the slab — test is vacuous");

    let dag = PrefixDag::from_trie(trie, 11);
    assert_twin(LcTrie::with_params(trie, 0.5, 16), &slab, &keys);
    assert_twin(XbwFib::build(trie, XbwStorage::Succinct), &slab, &keys);
    let ser = SerializedDag::from_dag(&dag);
    // The same composition over an image: the slab section in front of
    // the zero-copy engine view, as a served snapshot.
    let bytes = write_image_hot(&ser, None, 0, &slab).expect("serialized dag encodes");
    let image = FibImage::from_bytes(&bytes).expect("just encoded");
    let snap = EpochSnapshot::<SerializedDag<A>>::from_image(image).expect("just encoded");
    assert_eq!(
        snap.hot_slab().map(HotSlab::capacity),
        Some(slab.capacity())
    );
    let hot = Hot {
        lookup: |a| snap.lookup(a),
        batch: |a: &[A], o: &mut [_]| snap.lookup_batch(a, o),
        stream: |a: &[A], o: &mut [_]| snap.lookup_stream(a, o),
    };
    assert_same(hot, &ser, &keys);
    assert_twin(ser, &slab, &keys);
    assert_twin(dag, &slab, &keys);
    assert_twin(MultibitDag::from_trie(trie, 8), &slab, &keys);
}

#[test]
fn hot_layout_equivalence_v4() {
    let trie: BinaryTrie<u32> = FibSpec::dfz_like(12_000).generate(&mut rng(11));
    check_hot_layouts(&trie, &HotConfig::for_width(32), 12);
}

#[test]
fn hot_layout_equivalence_v6() {
    let mut trie: BinaryTrie<u128> = BinaryTrie::new();
    trie.insert(
        "::/0".parse::<fibcomp::trie::Prefix6>().unwrap(),
        NextHop::new(0),
    );
    let mut r = rng(21);
    use fibcomp::workload::rng::Rng;
    for i in 0..3_000u64 {
        let base = (0x2001_0db8u128 << 96) | (u128::from(i) << 72);
        let len = [32u8, 40, 44, 48, 56, 64][(r.random::<u64>() % 6) as usize];
        trie.insert(
            fibcomp::trie::Prefix::new(base | (u128::from(r.random::<u64>()) << 16), len),
            NextHop::new((r.random::<u64>() % 14) as u32),
        );
    }
    check_hot_layouts(&trie, &HotConfig::for_width(128), 22);
}

#[test]
fn empty_and_tiny_slabs_are_neutral() {
    let trie: BinaryTrie<u32> = FibSpec::dfz_like(2_000).generate(&mut rng(31));
    let keys = probe_keys(&trie, 32, &[]);
    // An empty slab never answers, so the composite is trivially the
    // inner engine.
    assert_twin(PrefixDag::from_trie(&trie, 11), &HotSlab::empty(24), &keys);
    // A one-entry budget still has to stay equivalent.
    let zipf = traces::ZipfTrace::new(&trie, 1.0).generate(&mut rng(33), 1_000);
    let heat = HeatSummary::sample_addrs(24, zipf.iter().copied());
    let config = HotConfig {
        depth: 24,
        max_entries: 1,
    };
    let (slab, _) = HotSlab::compile(&trie, heat.entries(), &config);
    assert_twin(PrefixDag::from_trie(&trie, 11), &slab, &keys);
}

#[test]
fn heat_fingerprint_is_pinned() {
    // Integer-only synthetic traffic (no float trace model): a skewed
    // stream where low ranks repeat geometrically — the pin must not be
    // able to drift with floating-point codegen.
    let mut r = rng(42);
    use fibcomp::workload::rng::Rng;
    let addrs: Vec<u32> = (0..50_000)
        .map(|_| {
            let rank = (r.random::<u64>() % (1u64 << (r.random::<u64>() % 12))) as u32;
            (rank << 12) | (r.random::<u64>() as u32 & 0xFFF)
        })
        .collect();
    let map = HeatMap::new(4, 24, 4096);
    for (i, &a) in addrs.iter().enumerate() {
        map.sketch(i % 4).record(a);
    }
    let merged = map.merged();
    assert_eq!(
        merged.total() + merged.missed(),
        50_000,
        "no recorded hit may vanish in the merge"
    );
    // Pinned: the whole sample → sketch → merge → summary pipeline is
    // deterministic for a seeded trace. A change here means slabs stop
    // being reproducible from recorded traffic. (These 4096-slot sketches
    // overflow — 2353 hits land in `missed` — so which keys they keep,
    // and with it this value, follows the sketch's hash: re-pinned when
    // `record_key` moved from byte-wise FNV-1a to `block_hash`.)
    assert_eq!(merged.fingerprint(), 0x437F_91D5_50E0_F327u64);
    // Merging again must produce the identical summary.
    assert_eq!(map.merged(), merged);
    // Worker-count invariance holds when no sketch overflows (bounded
    // probes make overflow load-dependent, so it cannot hold in general):
    // with ample capacity, sharding the same stream across 1 or 4 workers
    // merges to the same summary.
    let wide4 = HeatMap::new(4, 24, 1 << 16);
    let wide1 = HeatMap::new(1, 24, 1 << 16);
    for (i, &a) in addrs.iter().enumerate() {
        wide4.sketch(i % 4).record(a);
        wide1.sketch(0).record(a);
    }
    assert_eq!(wide4.merged().missed(), 0, "ample sketch must not overflow");
    assert_eq!(wide4.merged(), wide1.merged());
}
