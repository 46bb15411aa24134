//! Micro-benchmarks: construction time of every representation (Lemma 1's
//! O(t) XBW-b build, Lemma 4's O(t) trie-folding, and the baselines), and
//! of the vsdag's stride planner: a cold compile (the full μ search) and a
//! held-μ one (a single DP round).

use fib_bench::timing::BenchGroup;
use fib_core::{PrefixDag, SerializedDag, VarStrideDag, VsParams, XbwFib, XbwStorage};
use fib_trie::{BinaryTrie, LcTrie, ProperTrie};
use fib_workload::rng::Xoshiro256;
use fib_workload::FibSpec;
use std::hint::black_box;

const FIB_SIZE: usize = 50_000;

fn build_benches() {
    let mut rng = Xoshiro256::seed_from_u64(0xB01D);
    let trie: BinaryTrie<u32> = FibSpec::dfz_like(FIB_SIZE).generate(&mut rng);
    let dag = PrefixDag::from_trie(&trie, 11);
    let params = VsParams::default();
    let held_mu = VarStrideDag::from_trie_weighted(&trie, params, None)
        .held_mu()
        .expect("the default budget is feasible on a DFZ-like table");

    let group = BenchGroup::new("build").sample_size(10);
    group.bench_function("leaf-push", |b| {
        b.iter(|| black_box(ProperTrie::from_trie(black_box(&trie))));
    });
    group.bench_function("lc-trie", |b| {
        b.iter(|| black_box(LcTrie::from_trie(black_box(&trie))));
    });
    group.bench_function("xbw-succinct", |b| {
        b.iter(|| black_box(XbwFib::build(black_box(&trie), XbwStorage::Succinct)));
    });
    group.bench_function("xbw-entropy", |b| {
        b.iter(|| black_box(XbwFib::build(black_box(&trie), XbwStorage::Entropy)));
    });
    group.bench_function("pdag-lambda11", |b| {
        b.iter(|| black_box(PrefixDag::from_trie(black_box(&trie), 11)));
    });
    group.bench_function("pdag-lambda0", |b| {
        b.iter(|| black_box(PrefixDag::from_trie(black_box(&trie), 0)));
    });
    group.bench_function("serialize-pdag", |b| {
        b.iter(|| black_box(SerializedDag::from_dag(black_box(&dag))));
    });
    group.bench_function("vsdag-cold", |b| {
        b.iter(|| {
            black_box(VarStrideDag::from_trie_weighted(
                black_box(&trie),
                params,
                None,
            ))
        });
    });
    group.bench_function("vsdag-held", |b| {
        b.iter(|| {
            black_box(VarStrideDag::from_trie_at(
                black_box(&trie),
                params,
                None,
                held_mu,
            ))
        });
    });
    group.bench_function("ortc", |b| {
        b.iter(|| black_box(fib_trie::ortc::compress(black_box(&trie))));
    });
}

fn main() {
    build_benches();
}
