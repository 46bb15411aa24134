//! Reproduces **Table 2**: the lookup benchmark on taz — size, average and
//! maximum depth, million lookups per second, CPU cycles per lookup, and
//! cache misses per packet, for XBW-b, the serialized prefix DAG, the
//! `fib_trie` stand-in (LC-trie under the kernel memory model), and the
//! FPGA model — over uniform-random keys and a locality-skewed trace.
//!
//! Run with `--scale=0.1` for a quick pass.

use fib_bench::{f, instance_fib, kb, ns_per_call, print_table, scale_arg, write_tsv};
use fib_core::{FibLookup, PrefixDag, SerializedDag, XbwFib, XbwStorage};
use fib_hwsim::{CacheSim, SramModel};
use fib_trie::LcTrie;
use fib_workload::rng::Xoshiro256;
use fib_workload::traces::{uniform, ZipfTrace};
use std::hint::black_box;

/// The paper's CPU clock, used to convert ns/lookup into cycles/lookup for
/// comparability with Table 2.
const PAPER_CLOCK_GHZ: f64 = 2.5;

fn bench_engine<E: FibLookup<u32> + ?Sized>(engine: &E, addrs: &[u32]) -> (f64, f64) {
    // Warm up, then measure.
    let mut sink = 0u64;
    for &a in addrs.iter().take(1000) {
        sink = sink.wrapping_add(u64::from(engine.lookup(a).map_or(0, |nh| nh.index())));
    }
    black_box(sink);
    let mut i = 0usize;
    let ns = ns_per_call(addrs.len().min(300_000), || {
        let addr = addrs[i % addrs.len()];
        black_box(engine.lookup(black_box(addr)));
        i += 1;
    });
    let mlps = 1000.0 / ns;
    (mlps, ns * PAPER_CLOCK_GHZ)
}

fn cache_misses_traced(
    addrs: &[u32],
    mut traced: impl FnMut(u32, &mut dyn FnMut(u64, u32)),
) -> f64 {
    let mut sim = CacheSim::core_i5();
    // Warm the hierarchy on the first fifth, then count.
    let warm = addrs.len() / 5;
    for &a in &addrs[..warm] {
        traced(a, &mut |off, sz| sim.access(off, sz));
    }
    let warm_misses = sim.llc_misses();
    for &a in &addrs[warm..] {
        traced(a, &mut |off, sz| sim.access(off, sz));
    }
    (sim.llc_misses() - warm_misses) as f64 / (addrs.len() - warm) as f64
}

fn cache_misses<E: FibLookup<u32> + ?Sized>(engine: &E, addrs: &[u32]) -> Option<f64> {
    if !engine.traces_memory() {
        return None;
    }
    Some(cache_misses_traced(addrs, |a, sink| {
        engine.lookup_traced(a, sink);
    }))
}

fn main() {
    let scale = scale_arg();
    println!("Table 2 reproduction on the taz stand-in (scale = {scale})");
    let trie = instance_fib("taz", scale, 0xF1B);

    let xbw = XbwFib::build(&trie, XbwStorage::Entropy);
    let dag = PrefixDag::from_trie(&trie, 11);
    let ser = SerializedDag::from_dag(&dag);
    let lc = LcTrie::from_trie(&trie);

    let mut rng = Xoshiro256::seed_from_u64(0x7AB2);
    let rand_addrs: Vec<u32> = uniform(&mut rng, 200_000);
    let zipf = ZipfTrace::new(&trie, 1.1);
    let trace_addrs: Vec<u32> = zipf.generate(&mut rng, 200_000);

    // Depth statistics.
    let (pdag_avg_d, pdag_max_d) = ser.depth_stats(rand_addrs.iter().copied());
    let (lc_avg_d, lc_max_d) = lc.depth_stats();

    // FPGA model on the serialized image.
    let sram = SramModel::default();
    let fpga = sram.replay(&ser, rand_addrs.iter().copied());

    let engines: [&dyn FibLookup<u32>; 3] = [&xbw, &ser, &lc];
    let mut rows = Vec::new();

    // Size and depth block.
    rows.push(vec![
        "size [KByte]".to_string(),
        kb(FibLookup::<u32>::size_bytes(&xbw)),
        kb(FibLookup::<u32>::size_bytes(&ser)),
        kb(FibLookup::<u32>::size_bytes(&lc)),
        kb(FibLookup::<u32>::size_bytes(&ser)),
    ]);
    rows.push(vec![
        "avg depth".to_string(),
        "-".to_string(),
        f(pdag_avg_d, 2),
        f(lc_avg_d, 2),
        f(pdag_avg_d, 2),
    ]);
    rows.push(vec![
        "max depth".to_string(),
        "-".to_string(),
        pdag_max_d.to_string(),
        lc_max_d.to_string(),
        pdag_max_d.to_string(),
    ]);

    for (label, addrs) in [("rand", &rand_addrs), ("trace", &trace_addrs)] {
        let mut mlps_row = vec![format!("{label}: Mlookup/s")];
        let mut cyc_row = vec![format!("{label}: cycles/lookup")];
        let mut miss_row = vec![format!("{label}: cache miss/pkt")];
        for engine in engines {
            let (mlps, cycles) = bench_engine(engine, addrs);
            mlps_row.push(f(mlps, 2));
            cyc_row.push(f(cycles, 0));
            // fib_trie's cache behaviour is modeled on the kernel's 40-byte
            // node layout (26 MB at DFZ scale), not our packed arena.
            let misses = if engine.name() == "fib_trie" {
                Some(cache_misses_traced(addrs, |a, sink| {
                    lc.lookup_traced_kernel(a, sink);
                }))
            } else {
                cache_misses(engine, addrs)
            };
            miss_row.push(misses.map_or("-".to_string(), |m| f(m, 3)));
        }
        // FPGA column: deterministic cycle model, trace-independent.
        mlps_row.push(f(fpga.mlps, 2));
        cyc_row.push(f(fpga.avg_cycles, 1));
        miss_row.push("-".to_string());
        rows.push(mlps_row);
        rows.push(cyc_row);
        rows.push(miss_row);
    }

    let header = ["metric", "XBW-b", "pDAG", "fib_trie", "FPGA(model)"];
    print_table("Table 2: lookup benchmark (taz stand-in)", &header, &rows);
    write_tsv("table2", &header, &rows);

    println!("\nPaper reference (410K-prefix taz, 2.5 GHz i5 / Virtex-II Pro):");
    println!("  size:   XBW-b 106 KB | pDAG 178 KB | fib_trie 26,698 KB | FPGA 178 KB");
    println!(
        "  rand:   0.033 / 12.8 / 3.23 Mlps;  cycles 73940 / 194 / 771;  miss 0.016 / 0.003 / 3.17"
    );
    println!(
        "  trace:  0.037 / 13.8 / 5.68 Mlps;  cycles 67200 / 180 / 438;  miss 0.016 / 0.003 / 0.29"
    );
    println!("  FPGA:   6.9 Mlps at 7.1 cycles/lookup (100 MHz clock)");
    println!("\nShape checks: pDAG ≫ XBW-b in speed, pDAG misses ≈ 0.");
    println!("Not reproduced: the paper's pDAG ≈ 4× fib_trie on rand keys. The LC-trie");
    println!("model misses 0.112 times a packet at scale 1.0 under CacheSim::core_i5,");
    println!("against the paper's 3.17, so the two run close on both key sets (ROADMAP N8 (c)).");
}
