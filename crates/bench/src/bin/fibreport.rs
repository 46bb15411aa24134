//! `fibreport` — one-shot compressibility report for a FIB.
//!
//! ```sh
//! # From a route file in the tabular text format ("<prefix> <next-hop>"):
//! cargo run --release -p fib-bench --bin fibreport -- routes.txt
//!
//! # Or on a synthetic paper instance:
//! cargo run --release -p fib-bench --bin fibreport -- --instance=taz --scale=0.1
//! ```
//!
//! Prints the Section 2 entropy metrics, the Eq. (2)/(3) barrier
//! suggestions, and the size of every representation in the workspace —
//! i.e. a Table 1 row for *your* FIB.

use fib_bench::{f, instance_fib, kb, scale_arg};
use fib_core::{
    lambda, FibEntropy, FibLookup, MultibitDag, PrefixDag, SerializedDag, VarStrideDag, VsParams,
    XbwFib, XbwStorage,
};
use fib_succinct::shannon_entropy;
use fib_trie::stats::{next_hop_count, route_label_histogram, PrefixLenHistogram};
use fib_trie::{io, BinaryTrie, LcTrie};

fn load() -> Option<BinaryTrie<u32>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    for arg in &args {
        if let Some(name) = arg.strip_prefix("--instance=") {
            return Some(instance_fib(name, scale_arg(), 0xF1B));
        }
    }
    let path = args.iter().find(|a| !a.starts_with("--"))?;
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(1);
        }
    };
    match io::parse_routes::<u32>(&text) {
        Ok(routes) => Some(routes.into_iter().collect()),
        Err(e) => {
            eprintln!("cannot parse {path}: {e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let Some(trie) = load() else {
        eprintln!("usage: fibreport <routes.txt> | --instance=<name> [--scale=X]");
        eprintln!("instances: taz hbone access(d) access(v) mobile as1221 as4637 as6447 as6730 fib_600k fib_1m");
        std::process::exit(2);
    };

    let hist = route_label_histogram(&trie);
    let counts: Vec<u64> = hist.values().copied().collect();
    let lens = PrefixLenHistogram::from_trie(&trie);
    println!("routes:            {}", trie.len());
    println!("next-hops (δ):     {}", next_hop_count(&trie));
    println!("route H0:          {:.3} bits", shannon_entropy(&counts));
    println!("mean prefix len:   {:.2}", lens.mean());

    let metrics = FibEntropy::of_trie(&trie);
    println!("\n-- normal form (Section 2) --");
    println!("leaves n:          {}", metrics.n_leaves);
    println!("leaf H0:           {:.3} bits", metrics.h0);
    println!(
        "info bound I:      {} KB",
        f(metrics.info_bound_kbytes(), 1)
    );
    println!("entropy E:         {} KB", f(metrics.entropy_kbytes(), 1));

    let l2 = lambda::barrier_info(metrics.n_leaves, metrics.delta, 32);
    let l3 = lambda::barrier_entropy(metrics.n_leaves, metrics.h0, 32);
    println!("\n-- barrier suggestions --");
    println!("λ (Eq. 2):         {l2}");
    println!("λ (Eq. 3):         {l3}");

    let lam = l3.min(25);
    let dag = PrefixDag::from_trie(&trie, lam);
    let ser = SerializedDag::from_dag(&dag);
    let xbw = XbwFib::build(&trie, XbwStorage::Entropy);
    let xbw_s = XbwFib::build(&trie, XbwStorage::Succinct);
    let lc = LcTrie::from_trie(&trie);
    let mb4 = MultibitDag::from_trie(&trie, 4);
    let vs = VarStrideDag::from_trie(&trie, VsParams::default());

    println!("\n-- representations --");
    println!("{:<28}{:>12}  {:>8}", "engine", "size", "ν (vs E)");
    let e_bits = metrics.entropy_bits();
    let row = |name: &str, bytes: usize| {
        println!(
            "{:<28}{:>9} KB  {:>8}",
            name,
            kb(bytes),
            f(bytes as f64 * 8.0 / e_bits, 2)
        );
    };
    row("binary trie", trie.size_bytes());
    row("fib_trie (kernel model)", lc.kernel_model_bytes());
    row("XBW-b succinct", FibLookup::<u32>::size_bytes(&xbw_s));
    row("XBW-b entropy", FibLookup::<u32>::size_bytes(&xbw));
    row(
        &format!("prefix DAG (λ={lam}, model)"),
        dag.model_size_bits() / 8,
    );
    row(&format!("pDAG serialized (λ={lam})"), ser.size_bytes());
    row("multibit DAG (stride 4)", mb4.size_bytes());
    row("vsdag (DP strides, uniform)", vs.size_bytes());
    println!("\nfold: {:?}", dag.stats());
    println!(
        "vsdag: {} runs / {} slots in {} nodes, {}-bit runs",
        vs.run_count(),
        vs.slot_count(),
        vs.node_count(),
        vs.run_width()
    );
}
