//! Multicore lookup scaling — §5.3's closing claim: because the serialized
//! prefix DAG is a small, read-only image, lookup throughput scales with
//! parallelism ("prefix DAGs could be scaled to hundreds of millions of
//! lookups per second"). This harness shares one image across N threads
//! (`std::thread::scope`; no locks, no cloning) and reports aggregate
//! Mlookups/s.
//!
//! Run with `--scale=0.1` for a quick pass.

use fib_bench::{f, instance_fib, print_table, scale_arg, write_tsv};
use fib_core::{FibLookup, PrefixDag, SerializedDag};
use fib_workload::rng::Xoshiro256;
use fib_workload::traces::uniform;
use std::hint::black_box;
use std::time::Instant;

const LOOKUPS_PER_THREAD: usize = 2_000_000;

fn run(threads: usize, image: &SerializedDag<u32>, keys: &[u32]) -> f64 {
    let start = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..threads {
            let image = &image;
            let keys = &keys;
            scope.spawn(move || {
                let mut acc = 0u64;
                let offset = t * 7919; // decorrelate the streams
                for i in 0..LOOKUPS_PER_THREAD {
                    let key = keys[(i + offset) % keys.len()];
                    acc = acc.wrapping_add(u64::from(
                        image.lookup(black_box(key)).map_or(0, |nh| nh.index()),
                    ));
                }
                black_box(acc);
            });
        }
    });
    let secs = start.elapsed().as_secs_f64();
    (threads * LOOKUPS_PER_THREAD) as f64 / secs / 1e6
}

fn main() {
    let scale = scale_arg();
    println!("Multicore scaling on the taz stand-in (scale = {scale})");
    let trie = instance_fib("taz", scale, 0xF1B);
    let image = SerializedDag::from_dag(&PrefixDag::from_trie(&trie, 11));
    println!(
        "image: {} KB ({} interior records)",
        image.size_bytes() / 1024,
        image.interior_count()
    );
    let mut rng = Xoshiro256::seed_from_u64(0x5CA1);
    let keys: Vec<u32> = uniform(&mut rng, 1 << 20);

    let available = std::thread::available_parallelism().map_or(4, |n| n.get());
    let mut rows = Vec::new();
    let mut single = 0.0;
    for threads in [1usize, 2, 4, 8, 16] {
        if threads > available * 2 {
            break;
        }
        let mlps = run(threads, &image, &keys);
        if threads == 1 {
            single = mlps;
        }
        rows.push(vec![threads.to_string(), f(mlps, 2), f(mlps / single, 2)]);
        eprintln!("{threads} threads: {mlps:.2} Mlps");
    }
    let header = ["threads", "Mlookup/s", "speedup"];
    print_table("Aggregate lookup throughput vs threads", &header, &rows);
    write_tsv("scaling", &header, &rows);
    println!("\nThe image is shared read-only — scaling is limited only by the");
    println!("memory system, supporting the paper's line-speed extrapolation.");
    println!("(Available parallelism on this host: {available}.)");
}
