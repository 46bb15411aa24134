//! Micro-benchmarks: FIB update cost — the prefix DAG across barrier
//! settings (Fig. 5's y-axis) against the plain binary trie, plus churn
//! through the router core (control-plane update + epoch snapshot
//! publishing), which is the path a deployed software router runs.

use fib_bench::timing::BenchGroup;
use fib_core::{BuildConfig, PrefixDag};
use fib_router::{Router, RouterConfig};
use fib_trie::BinaryTrie;
use fib_workload::rng::Xoshiro256;
use fib_workload::updates::{bgp_sequence, random_sequence, UpdateOp};
use fib_workload::FibSpec;

const FIB_SIZE: usize = 100_000;
const SEQ: usize = 256;

fn apply_dag(dag: &mut PrefixDag<u32>, seq: &[UpdateOp<u32>]) {
    for op in seq {
        match *op {
            UpdateOp::Announce(p, nh) => {
                dag.insert(p, nh);
            }
            UpdateOp::Withdraw(p) => {
                dag.remove(p);
            }
        }
    }
}

fn apply_router(router: &mut Router<u32, PrefixDag<u32>>, seq: &[UpdateOp<u32>]) {
    for op in seq {
        match *op {
            UpdateOp::Announce(p, nh) => router.announce(p, nh),
            UpdateOp::Withdraw(p) => router.withdraw(p),
        }
    }
    router.publish();
}

fn update_benches() {
    let mut rng = Xoshiro256::seed_from_u64(0x0BDA);
    let trie: BinaryTrie<u32> = FibSpec::dfz_like(FIB_SIZE).generate(&mut rng);
    let rand_seq: Vec<UpdateOp<u32>> = random_sequence(&mut rng, SEQ, 4);
    let bgp_seq: Vec<UpdateOp<u32>> = bgp_sequence(&mut rng, &trie, SEQ);

    for (seq_name, seq) in [("random", &rand_seq), ("bgp", &bgp_seq)] {
        let group = BenchGroup::new(&format!("update/{seq_name}")).sample_size(10);
        for lambda in [0u8, 8, 11, 16, 32] {
            let dag = PrefixDag::from_trie(&trie, lambda);
            group.bench_function(&format!("pdag-lambda/{lambda}"), |b| {
                b.iter_batched(|| dag.clone(), |mut dag| apply_dag(&mut dag, seq));
            });
        }
        group.bench_function("binary-trie", |b| {
            b.iter_batched(
                || trie.clone(),
                |mut t| {
                    for op in seq.iter() {
                        op.apply(&mut t);
                    }
                },
            );
        });
    }

    // Churn under snapshots: absorb the feed through the router's control
    // plane and cut one epoch at the end — in-place λ-barrier updates plus
    // the engine clone + Arc swap of `publish`.
    let router_config = RouterConfig {
        build: BuildConfig::with_lambda(11),
        publish_every: None,
    };
    let group = BenchGroup::new("router_churn").sample_size(10);
    for (seq_name, seq) in [("random", &rand_seq), ("bgp", &bgp_seq)] {
        group.bench_function(&format!("pdag-snapshots/{seq_name}"), |b| {
            b.iter_batched(
                || Router::<u32, PrefixDag<u32>>::new(trie.clone(), router_config),
                |mut router| apply_router(&mut router, seq),
            );
        });
    }
}

fn main() {
    update_benches();
}
