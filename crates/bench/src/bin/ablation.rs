//! Ablation studies supporting the paper's design choices (not a paper
//! artifact: they check the two choices this reproduction makes on its
//! own — which λ formula to ship and which XBW-b storage backends to
//! offer):
//!
//! * **A1 — barrier formulas**: how the λ of Eq. (2)/(3) compares with an
//!   exhaustive sweep, across FIBs of different entropy;
//! * **A2 — XBW-b storage backends**: size and lookup latency of the two
//!   shipped modes, Lemma 2's succinct form and Lemma 3's entropy form,
//!   beside the depth-conditioned entropy of the normal form. A2 once
//!   measured all ten (S_I, S_α) pairings — plain or RRR `S_I` under
//!   packed labels, a balanced, Huffman or Huffman/RRR wavelet tree, or
//!   one Huffman/RRR tree per trie level. Per-level was measured and
//!   retired: it never beat the single Huffman/RRR tree on the taz
//!   stand-in, whose depth-conditioned entropy matches `E` (6.3 KB both
//!   at scale 0.1). The other pairings went with it, as modes the paper
//!   proves no bound for.

use fib_bench::{f, instance_fib, kb, ns_per_call, print_table, scale_arg, write_tsv};
use fib_core::{lambda, FibEntropy, PrefixDag, SerializedDag, XbwFib, XbwStorage};
use fib_workload::rng::Xoshiro256;
use fib_workload::{FibSpec, LabelModel};
use std::hint::black_box;

fn a1_barrier_choice() {
    println!("\nA1: Eq.(2)/(3) barrier vs exhaustive sweep");
    let mut rows = Vec::new();
    for &(name, h0_target) in &[("low-H0", 0.3), ("mid-H0", 1.5), ("high-H0", 3.5)] {
        let mut rng = Xoshiro256::seed_from_u64(0xAB1);
        let trie = FibSpec {
            n_prefixes: 100_000,
            max_len: 25,
            depth_bias: 0.35,
            labels: LabelModel::geometric_for_h0(16, h0_target),
            spatial_correlation: 0.0,
            default_route: false,
        }
        .generate::<u32, _>(&mut rng);
        let metrics = FibEntropy::of_trie(&trie);
        let l2 = lambda::barrier_info(metrics.n_leaves, metrics.delta, 32);
        let l3 = lambda::barrier_entropy(metrics.n_leaves, metrics.h0, 32);

        // Sweep for the smallest serialized image.
        let mut best = (0u8, usize::MAX);
        for l in 0..=25u8 {
            let size = SerializedDag::from_dag(&PrefixDag::from_trie(&trie, l)).size_bytes();
            if size < best.1 {
                best = (l, size);
            }
        }
        let size_at = |l: u8| SerializedDag::from_dag(&PrefixDag::from_trie(&trie, l)).size_bytes();
        rows.push(vec![
            name.to_string(),
            f(metrics.h0, 2),
            format!("{l2}"),
            format!("{l3}"),
            format!("{}", best.0),
            kb(size_at(l3)),
            kb(best.1),
            f(size_at(l3) as f64 / best.1 as f64, 2),
        ]);
    }
    let header = [
        "FIB",
        "leaf H0",
        "λ Eq.(2)",
        "λ Eq.(3)",
        "λ best",
        "size@Eq3",
        "size@best",
        "ratio",
    ];
    print_table(
        "A1: barrier formula vs sweep (100K-prefix FIBs)",
        &header,
        &rows,
    );
    write_tsv("ablation_a1", &header, &rows);
    println!("Expectation: Eq.(3) lands within ~2 of the sweep optimum and");
    println!("costs only a few percent extra space.");
}

fn a2_xbw_backends(scale: f64) {
    println!("\nA2: XBW-b storage backends (taz stand-in, scale = {scale})");
    let trie = instance_fib("taz", scale, 0xF1B);
    let metrics = FibEntropy::of_trie(&trie);
    let proper = fib_trie::ProperTrie::from_trie(&trie);
    let ctx = FibEntropy::contextual_entropy_bits(&proper);
    println!(
        "normal form: n = {}, E = {} KB, I = {} KB, depth-conditioned E = {} KB",
        metrics.n_leaves,
        kb((metrics.entropy_bits() / 8.0) as usize),
        kb((metrics.info_bound_bits() / 8.0) as usize),
        kb((ctx / 8.0) as usize),
    );
    println!("(E vs depth-conditioned E answers §3.2's contextual-dependency question)");

    let addrs: Vec<u32> = (0..20_000u32)
        .map(|i| i.wrapping_mul(0x9E37_79B9))
        .collect();
    let mut rows = Vec::new();
    for (mode, si_name, sa_name, storage) in [
        ("succinct", "plain", "packed", XbwStorage::Succinct),
        ("entropy", "RRR", "WT-huff+RRR", XbwStorage::Entropy),
    ] {
        let xbw = XbwFib::build(&trie, storage);
        let report = xbw.size_report();
        let view = xbw.view();
        let mut i = 0usize;
        let ns = ns_per_call(20_000, || {
            black_box(view.lookup(black_box(addrs[i % addrs.len()])));
            i += 1;
        });
        rows.push(vec![
            mode.to_string(),
            si_name.to_string(),
            sa_name.to_string(),
            kb(report.si_bits / 8),
            kb(report.sa_bits / 8),
            (report.root_bits / 8).to_string(),
            kb(report.total_bytes()),
            f(report.total_bits() as f64 / metrics.entropy_bits(), 2),
            f(ns, 0),
        ]);
    }
    let header = [
        "mode",
        "S_I",
        "S_α",
        "S_I KB",
        "S_α KB",
        "root B",
        "total KB",
        "vs E",
        "ns/lookup",
    ];
    print_table("A2: XBW-b storage modes", &header, &rows);
    write_tsv("ablation_a2", &header, &rows);
    println!("Expectation: the entropy mode is the smaller (RRR shrinks S_I, the");
    println!("Huffman+RRR tree takes S_α to ≈ nH0) and pays several × in lookup");
    println!("latency — the pDAG exists because even the succinct mode is far from");
    println!("line speed.");
}

fn a3_multibit_strides(scale: f64) {
    println!("\nA3: multibit prefix DAGs (§7 future work) — stride sweep");
    let trie = instance_fib("taz", scale, 0xF1B);
    let addrs: Vec<u32> = (0..20_000u32)
        .map(|i| i.wrapping_mul(0x9E37_79B9))
        .collect();
    let mut rows = Vec::new();
    // The binary pDAG (λ=11 serialized) as the reference row.
    let ser = SerializedDag::from_dag(&PrefixDag::from_trie(&trie, 11));
    let (avg_d, max_d) = ser.depth_stats(addrs.iter().copied());
    rows.push(vec![
        "pDAG λ=11".to_string(),
        kb(ser.size_bytes()),
        f(avg_d + 1.0, 2), // +1: the root-array read
        (max_d + 1).to_string(),
    ]);
    for stride in [1u8, 2, 4, 6, 8, 12] {
        let mb = fib_core::MultibitDag::from_trie(&trie, stride);
        let (avg, max) = mb.depth_stats();
        rows.push(vec![
            format!("multibit s={stride}"),
            kb(mb.size_bytes()),
            f(avg, 2),
            max.to_string(),
        ]);
    }
    let header = ["structure", "size KB", "avg reads", "max reads"];
    print_table(
        "A3: stride vs size and lookup depth (taz stand-in)",
        &header,
        &rows,
    );
    write_tsv("ablation_a3", &header, &rows);
    println!("Expectation: depth falls ~s×; size is U-shaped — moderate strides");
    println!("(2-4) keep sharing, wide ones duplicate slots faster than they save hops.");
}

fn main() {
    let scale = scale_arg();
    a1_barrier_choice();
    a2_xbw_backends(scale);
    a3_multibit_strides(scale);
}
