//! Quickstart: build a FIB, measure its entropy bounds, compress it three
//! ways, and verify every representation forwards identically.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use fibcomp::core::{FibEntropy, FibLookup, PrefixDag, SerializedDag, XbwFib, XbwStorage};
use fibcomp::prelude::*;
use fibcomp::trie::LcTrie;

fn main() {
    // The running example of the paper's Fig. 1, scaled to IPv4.
    let routes = [
        ("0.0.0.0/0", 2u32),
        ("0.0.0.0/1", 3),
        ("0.0.0.0/2", 3),
        ("32.0.0.0/3", 2),
        ("64.0.0.0/2", 2),
        ("96.0.0.0/3", 1),
    ];
    let trie: BinaryTrie<u32> = routes
        .iter()
        .map(|&(p, nh)| (Prefix4::from_str(p).unwrap(), NextHop::new(nh)))
        .collect();
    println!(
        "FIB with {} routes ({} trie nodes)",
        trie.len(),
        trie.node_count()
    );

    // 1. The compressibility metrics of Section 2.
    let metrics = FibEntropy::of_trie(&trie);
    println!(
        "\nnormal form: n = {} leaves, t = {} nodes, δ = {}",
        metrics.n_leaves, metrics.t_nodes, metrics.delta
    );
    println!(
        "information-theoretic bound I = {:.0} bits",
        metrics.info_bound_bits()
    );
    println!(
        "FIB entropy               E = {:.1} bits (H0 = {:.3})",
        metrics.entropy_bits(),
        metrics.h0
    );

    // 2. Compress: XBW-b (entropy mode), prefix DAG (λ = 2), serialized DAG.
    let xbw = XbwFib::build(&trie, XbwStorage::Entropy);
    let dag = PrefixDag::from_trie(&trie, 2);
    let ser = SerializedDag::from_dag(&dag);
    let lc = LcTrie::from_trie(&trie);
    println!("\n{:<18}{:>12}", "representation", "size");
    for engine in [&trie as &dyn FibLookup<u32>, &lc, &xbw, &dag, &ser] {
        println!("{:<18}{:>10} B", engine.name(), engine.size_bytes());
    }
    let stats = dag.stats();
    println!("\nprefix DAG structure: {stats:?}");

    // 3. Longest-prefix match agrees everywhere, including the paper's
    //    worked example: 0111… → next-hop 1.
    let addr = u32::from(std::net::Ipv4Addr::new(0b0111_0000, 0, 0, 1));
    let expected = trie.lookup(addr);
    println!(
        "\nlookup({}) = {:?}",
        std::net::Ipv4Addr::from(addr),
        expected
    );
    assert_eq!(expected, Some(NextHop::new(1)));
    for engine in [&trie as &dyn FibLookup<u32>, &lc, &xbw, &dag, &ser] {
        assert_eq!(engine.lookup(addr), expected, "{} disagrees", engine.name());
    }

    // 4. Updates on the compressed form: rewrite the default route — cheap,
    //    because it lives above the barrier — then verify.
    let mut dag = dag;
    dag.insert(Prefix4::from_str("0.0.0.0/0").unwrap(), NextHop::new(9));
    assert_eq!(dag.lookup(u32::MAX), Some(NextHop::new(9)));
    println!("\nupdated default route on the folded form: lookup(255.255.255.255) = nh9 ✓");
    println!("all representations agree — done.");
}
