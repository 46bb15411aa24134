//! Reproduces **Table 1**: storage results for XBW-b and trie-folding on
//! access, core and synthetic FIBs — name, N, δ, H0, the information-
//! theoretic limit I, the entropy bound E, the XBW-b and prefix-DAG sizes
//! (λ = 11), compression efficiency ν and bits/prefix η — with the
//! published values printed alongside each measurement.
//!
//! Run with `--scale=0.1` for a quick pass on down-scaled instances.

use fib_bench::{f, instance_fib, kb, print_table, scale_arg, timed, write_tsv};
use fib_core::{FibEntropy, PrefixDag, SerializedDag, XbwFib, XbwStorage};
use fib_succinct::shannon_entropy;
use fib_trie::stats::{next_hop_count, route_label_histogram};

fn main() {
    let scale = scale_arg();
    println!("Table 1 reproduction (λ = 11, scale = {scale})");
    println!("Every size column shows measured / paper-published KBytes.");

    let mut rows = Vec::new();
    for inst in fib_workload::instances::all() {
        let (trie, secs) = timed(|| instance_fib(inst.name, scale, 0xF1B));
        let n = trie.len();
        let delta = next_hop_count(&trie);
        let hist = route_label_histogram(&trie);
        let counts: Vec<u64> = hist.values().copied().collect();
        let h0_routes = shannon_entropy(&counts);

        let metrics = FibEntropy::of_trie(&trie);
        let xbw = XbwFib::build(&trie, XbwStorage::Entropy);
        let dag = PrefixDag::from_trie(&trie, 11);
        let ser = SerializedDag::from_dag(&dag);

        let i_bits = metrics.info_bound_bits();
        let e_bits = metrics.entropy_bits();
        let xbw_bits = xbw.size_report().total_bits() as f64;
        let pdag_bits = ser.size_bytes() as f64 * 8.0;
        let nu = pdag_bits / e_bits;
        let eta_xbw = xbw_bits / n as f64;
        let eta_pdag = pdag_bits / n as f64;

        eprintln!(
            "[{}] N={n} δ={delta} H0={:.2} built in {:.1}s (n_leaves={})",
            inst.name, h0_routes, secs, metrics.n_leaves
        );
        rows.push(vec![
            inst.name.to_string(),
            n.to_string(),
            format!("{delta}/{}", inst.delta),
            format!("{:.2}/{:.2}", h0_routes, inst.h0),
            format!("{}/{}", kb((i_bits / 8.0) as usize), f(inst.paper.i_kb, 0)),
            format!("{}/{}", kb((e_bits / 8.0) as usize), f(inst.paper.e_kb, 0)),
            format!(
                "{}/{}",
                kb((xbw_bits / 8.0) as usize),
                f(inst.paper.xbw_kb, 0)
            ),
            format!(
                "{}/{}",
                kb((pdag_bits / 8.0) as usize),
                f(inst.paper.pdag_kb, 0)
            ),
            format!("{}/{}", f(nu, 2), f(inst.paper.nu, 2)),
            format!("{}/{}", f(eta_xbw, 2), f(inst.paper.eta_xbw, 2)),
            format!("{}/{}", f(eta_pdag, 2), f(inst.paper.eta_pdag, 2)),
        ]);
    }

    let header = [
        "FIB",
        "N",
        "δ m/p",
        "H0 m/p",
        "I[KB] m/p",
        "E[KB] m/p",
        "XBW-b m/p",
        "pDAG m/p",
        "ν m/p",
        "ηXBW m/p",
        "ηpDAG m/p",
    ];
    print_table(
        "Table 1: storage size results (measured/paper)",
        &header,
        &rows,
    );
    write_tsv("table1", &header, &rows);

    println!("\nNotes:");
    println!("- measured sizes are for synthetic stand-ins matched on N and route-H0;");
    println!("  δ misses on four instances at scale 1.0 (hbone 17/195, access(d) 9/28,");
    println!("  mobile 8/16, as6730 33/186): the H0-calibrated label model almost never");
    println!("  draws the tail labels (ROADMAP N8 (b)). XBW-b ≈ E holds.");
    println!("- pDAG size is the serialized λ=11 image, as deployed in §5.3: ν reads");
    println!("  4.33–5.84 on the nine large instances at scale 1.0 (paper 2.60–4.10).");
    println!("  The §4.2 model size (PrefixDag::size_bytes) reads 2.67×E on taz.");
}
