//! `lookup_stream` is `lookup_batch`: every engine has one batch kernel
//! and the stream entry point is a provided alias of it, so the two must
//! agree on every engine, image view and router snapshot.

use fibcomp::core::{
    FibBuild, FibLookup, ImageCodec, MultibitDag, PrefixDag, SerializedDag, XbwFib, XbwStorage,
};
use fibcomp::router::{Router, RouterConfig};
use fibcomp::trie::{Address, BinaryTrie, LcTrie, NextHop};
use fibcomp::workload::instances;
use fibcomp::workload::rng::Xoshiro256;
use fibcomp::workload::traces::uniform;

fn taz_fib(scale: f64) -> BinaryTrie<u32> {
    instances::scaled("taz", scale, 0xF1B).expect("taz instance")
}

fn v6_fib() -> BinaryTrie<u128> {
    let spec = fibcomp::workload::FibSpec {
        n_prefixes: 800,
        max_len: 64,
        depth_bias: 0.3,
        labels: fibcomp::workload::LabelModel::Uniform { delta: 7 },
        spatial_correlation: 0.4,
        default_route: true,
    };
    spec.generate(&mut Xoshiro256::seed_from_u64(66))
}

fn assert_stream_matches<A: Address, E: FibLookup<A>>(engine: &E, addrs: &[A]) {
    let mut batch = vec![None; addrs.len()];
    let mut stream = vec![Some(NextHop::new(u32::MAX - 1)); addrs.len()];
    engine.lookup_batch(addrs, &mut batch);
    engine.lookup_stream(addrs, &mut stream);
    for (i, (&b, &s)) in batch.iter().zip(&stream).enumerate() {
        assert_eq!(b, s, "{}: lane {i} diverges", engine.name());
    }
    // Lengths around the lane widths exercise the kernels' drain.
    for n in [0usize, 1, 3, 5, 7, 9, 13] {
        let n = n.min(addrs.len());
        let mut out = vec![Some(NextHop::new(7)); n + 2];
        engine.lookup_stream(&addrs[..n], &mut out);
        for (a, got) in addrs[..n].iter().zip(&out) {
            assert_eq!(*got, engine.lookup(*a), "{} tail at n={n}", engine.name());
        }
    }
}

#[test]
fn stream_agrees_with_batch_on_every_engine_v4() {
    let trie = taz_fib(0.02);
    let addrs: Vec<u32> = uniform(&mut Xoshiro256::seed_from_u64(1), 4097);
    let dag = PrefixDag::from_trie(&trie, 11);
    assert_stream_matches(&SerializedDag::from_dag(&dag), &addrs);
    assert_stream_matches(&MultibitDag::from_trie(&trie, 4), &addrs);
    assert_stream_matches(&LcTrie::from_trie(&trie), &addrs);
    assert_stream_matches(&XbwFib::build(&trie, XbwStorage::Succinct), &addrs);
    assert_stream_matches(&XbwFib::build(&trie, XbwStorage::Entropy), &addrs);
    assert_stream_matches(&dag, &addrs); // no kernel: the trait's per-address loop
}

#[test]
fn stream_agrees_with_batch_on_every_engine_v6() {
    let trie = v6_fib();
    let addrs: Vec<u128> = uniform(&mut Xoshiro256::seed_from_u64(2), 2049);
    let dag = PrefixDag::from_trie(&trie, 11);
    assert_stream_matches(&SerializedDag::from_dag(&dag), &addrs);
    assert_stream_matches(&MultibitDag::from_trie(&trie, 4), &addrs);
    assert_stream_matches(&LcTrie::from_trie(&trie), &addrs);
    assert_stream_matches(&XbwFib::build(&trie, XbwStorage::Succinct), &addrs);
}

#[test]
fn image_views_stream_identically() {
    let trie = taz_fib(0.02);
    let addrs: Vec<u32> = uniform(&mut Xoshiro256::seed_from_u64(3), 1025);
    let engine: SerializedDag<u32> = FibBuild::build(&trie, &fibcomp::core::BuildConfig::default());
    let bytes = fibcomp::core::write_image(&engine, None, 1).expect("image encodes");
    let image = fibcomp::core::FibImage::from_bytes(&bytes).expect("image loads");
    let view = <SerializedDag<u32> as ImageCodec<u32>>::view(&image).expect("view");
    assert_stream_matches(&view, &addrs);
}

#[test]
fn snapshot_stream_agrees_across_owned_and_image_backing() {
    let trie = taz_fib(0.02);
    let addrs: Vec<u32> = uniform(&mut Xoshiro256::seed_from_u64(4), 513);
    let router: Router<u32, SerializedDag<u32>> = Router::new(
        trie.clone(),
        RouterConfig {
            publish_every: None,
            ..RouterConfig::default()
        },
    );
    let snap = router.snapshot();
    let mut batch = vec![None; addrs.len()];
    let mut stream = vec![None; addrs.len()];
    snap.lookup_batch(&addrs, &mut batch);
    snap.lookup_stream(&addrs, &mut stream);
    assert_eq!(batch, stream);
}
