//! Micro-benchmarks: longest-prefix-match throughput of every engine over
//! uniform and locality-skewed key streams (the measurement behind
//! Table 2's Mlookup/s rows), for both the one-address-at-a-time path and
//! the batched data-plane path (`FibLookup::lookup_batch`), whose
//! interleaved multi-lane walks are the whole point of the batch API.

use fib_bench::timing::BenchGroup;
use fib_core::{roster, BuildConfig};
use fib_trie::BinaryTrie;
use fib_workload::rng::Xoshiro256;
use fib_workload::traces::{uniform, ZipfTrace};
use fib_workload::FibSpec;
use std::hint::black_box;

const FIB_SIZE: usize = 100_000;
const BATCH: usize = 1024;

fn engines_and_traces() {
    let mut rng = Xoshiro256::seed_from_u64(0xBE7C);
    let trie: BinaryTrie<u32> = FibSpec::dfz_like(FIB_SIZE).generate(&mut rng);

    let built = roster(&trie, &BuildConfig::default(), None);

    let rand_keys: Vec<u32> = uniform(&mut rng, BATCH);
    let zipf = ZipfTrace::new(&trie, 1.1);
    let trace_keys: Vec<u32> = zipf.generate(&mut rng, BATCH);

    let engines = built.engines();

    for (trace_name, keys) in [("rand", &rand_keys), ("trace", &trace_keys)] {
        let group =
            BenchGroup::new(&format!("lookup/{trace_name}")).throughput_elements(BATCH as u64);
        for (name, engine) in &engines {
            group.bench_function(name, |b| {
                b.iter(|| {
                    let mut acc = 0u64;
                    for &k in keys.iter() {
                        acc = acc.wrapping_add(u64::from(
                            engine.lookup(black_box(k)).map_or(0, |nh| nh.index()),
                        ));
                    }
                    black_box(acc)
                });
            });
        }
    }

    // The batched path: the flat-layout engines (serialized pDAG, XBW-b,
    // the multibit DAGs) run their interleaved overrides; the rest exercise the
    // default loop so regressions in either path show up side by side.
    let mut out = vec![None; BATCH];
    for (trace_name, keys) in [("rand", &rand_keys), ("trace", &trace_keys)] {
        let group = BenchGroup::new(&format!("lookup_batch/{trace_name}"))
            .throughput_elements(BATCH as u64);
        for (name, engine) in &engines {
            group.bench_function(name, |b| {
                b.iter(|| {
                    engine.lookup_batch(black_box(keys), &mut out);
                    black_box(out.last().copied())
                });
            });
        }
    }

    // Image-backed serving: the same engines, written to `fibimage/v1`
    // bytes and answered through the zero-copy views. The acceptance bar
    // is ≤ 5% of the owned engines above — views and owned engines run
    // the same walk code over the same word encodings, so anything beyond
    // noise here is a layout regression in the image path.
    image_views(&trie, &rand_keys);
}

fn image_views(trie: &BinaryTrie<u32>, keys: &[u32]) {
    use fib_core::{
        write_image, FibBuild, FibImage, FibLookup, ImageCodec, SerializedDag, VarStrideDag,
        XbwFib, XbwStorage,
    };
    fn bench_view<E: ImageCodec<u32> + FibBuild<u32>>(
        group: &BenchGroup,
        name: &str,
        trie: &BinaryTrie<u32>,
        config: &fib_core::BuildConfig,
        keys: &[u32],
    ) {
        let engine = E::build(trie, config);
        let bytes = write_image(&engine, None, 0).expect("image encodes");
        let image = FibImage::from_bytes(&bytes).expect("image loads");
        let view = E::view(&image).expect("view assembles");
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut acc = 0u64;
                for &k in keys {
                    acc = acc.wrapping_add(u64::from(
                        view.lookup(black_box(k)).map_or(0, |nh| nh.index()),
                    ));
                }
                black_box(acc)
            });
        });
    }

    let group = BenchGroup::new("lookup_image/rand").throughput_elements(BATCH as u64);
    let config = fib_core::BuildConfig::default();
    let succinct = fib_core::BuildConfig {
        xbw_storage: XbwStorage::Succinct,
        ..config
    };
    bench_view::<XbwFib<u32>>(&group, "xbw-succinct", trie, &succinct, keys);
    bench_view::<XbwFib<u32>>(&group, "xbw-entropy", trie, &config, keys);
    bench_view::<SerializedDag<u32>>(&group, "pdag-serialized", trie, &config, keys);
    bench_view::<VarStrideDag<u32>>(&group, "vsdag", trie, &config, keys);
}

fn main() {
    engines_and_traces();
}
