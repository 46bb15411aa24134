//! `benchdump` — machine-readable benchmarks for the perf trajectory.
//!
//! Three modes, each writing one JSON artifact at the repo root so
//! successive PRs can diff numbers instead of re-reading prose:
//!
//! * default (lookup): every engine's longest-prefix-match latency
//!   (scalar, batched, and software-pipelined stream) on a paper-instance
//!   FIB → `BENCH_lookup.json` (schema `fibcomp-bench-lookup/v4`). Key
//!   models: `uniform`, `zipf`, and the `zipf-dedup` control that
//!   separates popularity locality from depth bias (see README). Each
//!   (engine, keys) pair gets a `layout: "base"` row and a
//!   `layout: "hot"` row — the latter serving through the adaptive
//!   [`HotFib`] wrapper (slab probe gated by the measured hit rate, so
//!   traffic the slab cannot help bypasses it) — and the top level
//!   records the SIMD gather dispatch (`avx2` or `scalar`). The `vsdag`
//!   engine is compiled against the sampled zipf heat, and its rows
//!   carry the `stride_histogram` its placement DP chose.
//!   `FIB_BENCH_ASSERT=1` makes the run fail if any engine's base batch
//!   path regresses scalar by >10 %, if any hot row regresses its base
//!   row by >10 % plus the half-ns constant slab-probe cost on any
//!   metric, if vsdag's expected walk depth exceeds
//!   1.2 hops (uniform keys) / 2.0 hops (the zipf trace it was compiled
//!   from), if vsdag's zipf scalar latency is not at least a fifth
//!   below the fixed stride-4 plan's (`multibit-dag`), or if the vsdag
//!   image exceeds 1.5x that plan's slot bytes. The scalar columns store every
//!   result like the batch kernels do (v4; v3 accumulated), so the
//!   batch gate compares like with like.
//! * `--serve`: the multi-core forwarding runtime — engine ×
//!   key-distribution × thread-count → aggregate Mlookups/s and p50/p99
//!   ns/lookup → `BENCH_serve.json` (schema `fibcomp-bench-serve/v1`).
//! * `--vrf`: the multi-tenant compiler — a 64-table fleet derived from
//!   taz (90 % shared base, 10 % per-VRF churn) compiled into one shared
//!   arena at 1/16/64 VRFs → dedup ratio, resident vs independent bytes
//!   and mixed-VRF lookup throughput → `BENCH_vrf.json` (schema
//!   `fibcomp-bench-vrf/v1`). Answers are checked against each VRF's
//!   oracle before timing. `FIB_BENCH_ASSERT=1` additionally requires
//!   the 64-VRF arena to be ≥30 % smaller than independent compiles.
//!
//! ```sh
//! cargo run --release -p fib-bench --bin benchdump            # lookup, taz 0.1
//! cargo run --release -p fib-bench --bin benchdump -- --serve # serve matrix
//! cargo run --release -p fib-bench --bin benchdump -- --vrf   # VRF dedup + throughput
//! cargo run --release -p fib-bench --bin benchdump -- --scale=0.05 --out=/tmp/b.json
//! ```

use fib_bench::timing::median;
use fib_bench::{instance_fib, scale_arg};
use fib_core::{
    roster, BuildConfig, FibBuild, FibLookup, FibUpdate, HotConfig, HotFib, HotSlab, ImageCodec,
    SerializedDag, VarStrideDag, VrfPolicy, XbwFib, XbwStorage,
};
use fib_router::{
    aggregate, Forwarder, ForwarderConfig, PacingMode, Router, RouterConfig, VrfBatchScratch,
    VrfSetRouter,
};
use fib_succinct::simd::simd_label;
use fib_trie::{BinaryTrie, LcTrie};
use fib_workload::loadgen::{AddrStream, KeyModel};
use fib_workload::rng::Xoshiro256;
use fib_workload::traces::{uniform, ZipfTrace};
use fib_workload::vrf::{instance_fleet, mixed_keys};
use fib_workload::HeatSummary;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Samples per engine; the median of an odd count is an order statistic.
const SAMPLES: usize = 9;

/// Median nanoseconds per scalar lookup over `SAMPLES` passes.
///
/// Results are stored per element, exactly as the batch and stream
/// paths must: a consumer keeps every next hop either way, and an
/// accumulate-only scalar loop would dodge the out-buffer store
/// traffic the batch kernels pay, biasing the `FIB_BENCH_ASSERT`
/// batch-vs-scalar gate against sub-10ns engines (schema v4 change;
/// v3 scalar columns accumulated instead of storing).
fn scalar_ns<E: FibLookup<u32> + ?Sized>(engine: &E, addrs: &[u32]) -> f64 {
    let mut out = vec![None; addrs.len()];
    let mut passes = Vec::with_capacity(SAMPLES);
    for _ in 0..SAMPLES {
        let start = Instant::now();
        for (&a, slot) in addrs.iter().zip(out.iter_mut()) {
            *slot = engine.lookup(black_box(a));
        }
        black_box(&out);
        passes.push(start.elapsed().as_nanos() as f64 / addrs.len() as f64);
    }
    median(&passes)
}

/// Median nanoseconds per batched lookup over `SAMPLES` passes.
fn batch_ns<E: FibLookup<u32> + ?Sized>(engine: &E, addrs: &[u32]) -> f64 {
    let mut out = vec![None; addrs.len()];
    let mut passes = Vec::with_capacity(SAMPLES);
    for _ in 0..SAMPLES {
        let start = Instant::now();
        engine.lookup_batch(black_box(addrs), &mut out);
        black_box(&out);
        passes.push(start.elapsed().as_nanos() as f64 / addrs.len() as f64);
    }
    median(&passes)
}

/// Median nanoseconds per software-pipelined stream lookup.
fn stream_ns<E: FibLookup<u32> + ?Sized>(engine: &E, addrs: &[u32]) -> f64 {
    let mut out = vec![None; addrs.len()];
    let mut passes = Vec::with_capacity(SAMPLES);
    for _ in 0..SAMPLES {
        let start = Instant::now();
        engine.lookup_stream(black_box(addrs), &mut out);
        black_box(&out);
        passes.push(start.elapsed().as_nanos() as f64 / addrs.len() as f64);
    }
    median(&passes)
}

fn arg(prefix: &str) -> Option<String> {
    std::env::args().find_map(|a| a.strip_prefix(prefix).map(str::to_string))
}

fn repo_root_path(file: &str) -> String {
    // crates/bench → repo root.
    format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR"))
}

fn main() {
    if std::env::args().any(|a| a == "--serve") {
        serve_mode();
    } else if std::env::args().any(|a| a == "--vrf") {
        vrf_mode();
    } else {
        lookup_mode();
    }
}

// ---------------------------------------------------------------------
// Lookup mode (BENCH_lookup.json, schema v2)
// ---------------------------------------------------------------------

fn lookup_mode() {
    let scale = scale_arg();
    let out_path = arg("--out=").unwrap_or_else(|| repo_root_path("BENCH_lookup.json"));
    let instance = "taz";
    let trie = instance_fib(instance, scale, 0xF1B);

    const KEY_COUNT: usize = 65_536;
    let mut rng = Xoshiro256::seed_from_u64(0x7AB2);
    let uniform_addrs: Vec<u32> = uniform(&mut rng, KEY_COUNT);
    // CAIDA-trace stand-in: Zipf-ranked destinations over the FIB's own
    // prefixes (exponent 1.0 ≈ measured traffic skew). Hot prefixes keep
    // their walk paths cache-resident, so this bounds the *best* case the
    // way uniform keys bound the worst.
    let zipf_model = ZipfTrace::new(&trie, 1.0);
    let mut zrng = Xoshiro256::seed_from_u64(0x21BF);
    let zipf_addrs: Vec<u32> = (0..KEY_COUNT)
        .map(|_| zipf_model.sample(&mut zrng))
        .collect();
    // The dedup control: the same Zipf depth profile with every address
    // distinct, so popularity locality is removed while depth bias stays.
    // Comparing zipf / zipf-dedup / uniform attributes the zipf slowdown
    // (see README → "Why zipf keys are slower than uniform").
    let mut drng = Xoshiro256::seed_from_u64(0x5EED);
    let dedup_addrs: Vec<u32> = zipf_model.generate_dedup(&mut drng, KEY_COUNT);

    // Traffic heat: the zipf key stream *is* the traffic model. It is
    // sampled once into a block summary and drives both layouts — the
    // hot-slab cut every engine can front, and the vsdag stride DP that
    // lays its whole table out around the measured depth mass.
    let hot_config = HotConfig::for_width(32);
    let heat = HeatSummary::sample_addrs(hot_config.depth, zipf_addrs.iter().copied());
    let (slab, hot_stats) = HotSlab::compile(&trie, heat.entries(), &hot_config);
    println!(
        "hot slab: depth {} entries {} ({} impure, {} dropped) coverage {:.3}",
        slab.depth(),
        slab.occupied(),
        hot_stats.impure,
        hot_stats.dropped,
        hot_stats.coverage
    );
    // The engine matrix, at the defaults (λ = 11, fixed stride 4), with
    // the vsdag laid out around the sampled heat.
    let built = roster(
        &trie,
        &BuildConfig::default(),
        Some((heat.entries(), heat.depth())),
    );
    let (vs, mb) = (&built.vsdag, &built.multibit);
    let stride_histogram = format!(
        "[{}]",
        vs.stride_histogram()
            .iter()
            .map(|(s, c)| format!("[{s}, {c}]"))
            .collect::<Vec<_>>()
            .join(", ")
    );

    let engines = built.engines();

    // Hand-rolled JSON: the workspace has no serializer dependency and
    // the schema is flat. Schema v4: one row per (engine, key model,
    // layout), v3 plus the heat-planned `vsdag` engine, whose rows carry
    // the stride histogram its DP chose. `layout: "hot"` rows serve the
    // same engine behind the shared traffic-compiled slab, and the top
    // level records the SIMD dispatch the gather kernels resolved to.
    //
    // Hot wrappers are monomorphized over the concrete engine (type
    // erasure only at the measurement boundary, same as the base rows):
    // the gate check and the inner walk inline together, so the bypass
    // overhead measured here is what a real deployment pays.
    let hot_trie = HotFib::new(built.binary_trie, slab.clone());
    let hot_lc = HotFib::new(&built.lc, slab.clone());
    let hot_xbw_s = HotFib::new(&built.xbw_succinct, slab.clone());
    let hot_xbw_e = HotFib::new(&built.xbw_entropy, slab.clone());
    let hot_dag = HotFib::new(&built.pdag, slab.clone());
    let hot_ser = HotFib::new(&built.serialized, slab.clone());
    let hot_mb = HotFib::new(mb, slab.clone());
    let hot_vs = HotFib::new(vs, slab.clone());
    let hot_engines: [&dyn FibLookup<u32>; 8] = [
        &hot_trie, &hot_lc, &hot_xbw_s, &hot_xbw_e, &hot_dag, &hot_ser, &hot_mb, &hot_vs,
    ];

    let assert_batch = std::env::var("FIB_BENCH_ASSERT").as_deref() == Ok("1");
    let mut rows = Vec::new();
    // vsdag's headline contract: the stride DP spends its slot budget on
    // the traffic-heavy deep paths, so zipf keys must resolve far faster
    // than on the fixed-stride multibit image the DP generalizes.
    // Captured here, asserted after the loop.
    let mut vs_scalar = (0.0f64, 0.0f64); // (uniform, zipf)
    let mut mb_zipf = 0.0f64;
    for (&(name, engine), &hot) in engines.iter().zip(hot_engines.iter()) {
        for (keys, addrs) in [
            ("uniform", &uniform_addrs),
            ("zipf", &zipf_addrs),
            ("zipf-dedup", &dedup_addrs),
        ] {
            let mut scalar = scalar_ns(engine, addrs);
            let mut batch = batch_ns(engine, addrs);
            if assert_batch {
                // Timing is noisy at the few-ns scale where the gated
                // batch path is the scalar walk plus call overhead; give
                // a marginal reading a couple of fresh measurements
                // before declaring a structural regression.
                for _ in 0..2 {
                    if batch <= scalar * 1.1 {
                        break;
                    }
                    scalar = scalar_ns(engine, addrs);
                    batch = batch_ns(engine, addrs);
                }
                assert!(
                    batch <= scalar * 1.1,
                    "{name}/{keys}: batch path {batch:.1} ns regresses scalar {scalar:.1} ns"
                );
            }
            let mut stream = stream_ns(engine, addrs);

            // The hot layout serves through the adaptive `HotFib`: the
            // gate watches the measured slab hit rate and routes traffic
            // the slab cannot help straight to the engine, so a hot
            // image never costs more than the probe-sampling overhead.
            let mut hscalar = scalar_ns(hot, addrs);
            let mut hbatch = batch_ns(hot, addrs);
            let mut hstream = stream_ns(hot, addrs);
            if assert_batch {
                // The slab probe costs a constant fraction of a ns, so a
                // purely multiplicative bound miscounts it on engines
                // whose whole walk is a few ns — hence the half-ns
                // absolute term. Marginal metrics are remeasured base and
                // hot back-to-back, each metric keeping its best attempt:
                // machine noise between the two measurements otherwise
                // dominates the gate overhead the guard is pinning, and
                // demanding one attempt where all three metrics pass at
                // once compounds that noise threefold.
                let hot_ok = |h: f64, b: f64| h <= b.mul_add(1.1, 0.5);
                let mut ok = [
                    hot_ok(hscalar, scalar),
                    hot_ok(hbatch, batch),
                    hot_ok(hstream, stream),
                ];
                for _ in 0..3 {
                    if ok.iter().all(|&o| o) {
                        break;
                    }
                    if !ok[0] {
                        scalar = scalar_ns(engine, addrs);
                        hscalar = scalar_ns(hot, addrs);
                        ok[0] = hot_ok(hscalar, scalar);
                    }
                    if !ok[1] {
                        batch = batch_ns(engine, addrs);
                        hbatch = batch_ns(hot, addrs);
                        ok[1] = hot_ok(hbatch, batch);
                    }
                    if !ok[2] {
                        stream = stream_ns(engine, addrs);
                        hstream = stream_ns(hot, addrs);
                        ok[2] = hot_ok(hstream, stream);
                    }
                }
                assert!(
                    ok.iter().all(|&o| o),
                    "{name}/{keys}: hot layout ({hscalar:.1}/{hbatch:.1}/{hstream:.1} ns) \
                     regresses base ({scalar:.1}/{batch:.1}/{stream:.1} ns) by >10 % + 0.5 ns"
                );
            }
            if name == "vsdag" {
                match keys {
                    "uniform" => vs_scalar.0 = scalar,
                    "zipf" => vs_scalar.1 = scalar,
                    _ => {}
                }
            } else if name == "multibit-dag" && keys == "zipf" {
                mb_zipf = scalar;
            }
            let extra = if name == "vsdag" {
                format!(", \"stride_histogram\": {stride_histogram}")
            } else {
                String::new()
            };
            let size_bits = FibLookup::<u32>::size_bytes(engine) * 8;
            println!(
                "{name:<18} {keys:<10} base scalar {scalar:>8.1} ns  batch {batch:>8.1} ns  \
                 stream {stream:>8.1} ns  {size_bits} bits"
            );
            rows.push(format!(
                "    {{\"engine\": \"{name}\", \"keys\": \"{keys}\", \"layout\": \"base\", \
                 \"median_ns_per_lookup\": {scalar:.1}, \
                 \"median_ns_per_lookup_batch\": {batch:.1}, \
                 \"median_ns_per_lookup_stream\": {stream:.1}, \"size_bits\": {size_bits}{extra}}}"
            ));
            let hot_bits = (FibLookup::<u32>::size_bytes(engine) + slab.size_bytes()) * 8;
            println!(
                "{name:<18} {keys:<10} hot  scalar {hscalar:>8.1} ns  batch {hbatch:>8.1} ns  \
                 stream {hstream:>8.1} ns  {hot_bits} bits"
            );
            rows.push(format!(
                "    {{\"engine\": \"{name}\", \"keys\": \"{keys}\", \"layout\": \"hot\", \
                 \"median_ns_per_lookup\": {hscalar:.1}, \
                 \"median_ns_per_lookup_batch\": {hbatch:.1}, \
                 \"median_ns_per_lookup_stream\": {hstream:.1}, \"size_bits\": {hot_bits}{extra}}}"
            ));
        }
    }
    if assert_batch {
        // The design gates of the variable-stride compilation.
        //
        // Depth gates are deterministic (no timing): the DP must place
        // its slots so the *expected walk depth* under the measured
        // traffic stays near the 1-hop floor for uniform keys and
        // within two hops for the zipf trace it was compiled from —
        // the structural quantity the DP minimizes. A ≤1.1x
        // *time* ratio between the two traces is not a meaningful gate:
        // most zipf mass sits below depth 12, a budgeted tree serves
        // those keys in two dependent probes, and no stride placement
        // sells two probes for one probe's latency while uniform keys
        // resolve in the root. What the DP does close is the absolute
        // gap, asserted on time below.
        let avg_hops = |addrs: &[u32]| {
            let total: u64 = addrs
                .iter()
                .map(|&a| u64::from(vs.lookup_with_depth(a).1))
                .sum();
            total as f64 / addrs.len() as f64
        };
        let (uni_hops, zipf_hops) = (avg_hops(&uniform_addrs), avg_hops(&zipf_addrs));
        assert!(
            uni_hops <= 1.2 && zipf_hops <= 2.0,
            "vsdag expected hops (uniform {uni_hops:.3}, zipf {zipf_hops:.3}) \
             exceed the 1.2/2.0 depth gates"
        );
        // The zipf-gap gate on time: the traffic-weighted placement
        // must cut the zipf scalar latency of the fixed stride-4
        // multibit image it generalizes by at least a fifth (measured
        // ~0.5x at taz 0.1 and ~0.7x at the CI smoke's 0.01 — tiny
        // tables are cache-resident for both engines, narrowing the
        // gap — so a real regression trips this at either scale while
        // machine noise cannot).
        let mut ratio = vs_scalar.1 / mb_zipf;
        for _ in 0..2 {
            if ratio <= 0.8 {
                break;
            }
            ratio = scalar_ns(vs, &zipf_addrs) / scalar_ns(mb, &zipf_addrs);
        }
        assert!(
            ratio <= 0.8,
            "vsdag zipf scalar is {ratio:.3}x the stride-4 multibit image's — the \
             traffic-weighted placement no longer closes the zipf gap \
             (vsdag {:.1} ns, multibit {mb_zipf:.1} ns)",
            vs_scalar.1
        );
        // Against the stride-4 plan's *slot* bytes — what the multibit
        // image weighed before it carried a vsdag directory — so folding
        // the two structures into one did not loosen the bar.
        let (vs_bytes, mb_bytes) = (vs.size_bytes(), mb.slot_count() * 4);
        assert!(
            vs_bytes as f64 <= mb_bytes as f64 * 1.5,
            "vsdag image {vs_bytes} B exceeds 1.5x the stride-4 multibit slots {mb_bytes} B"
        );
    }
    let json = format!(
        "{{\n  \"schema\": \"fibcomp-bench-lookup/v4\",\n  \"instance\": \"{instance}\",\n  \
         \"scale\": {scale},\n  \"routes\": {},\n  \"key_count\": {KEY_COUNT},\n  \
         \"dispatch\": \"{}\",\n  \"hot_slab\": {{\"depth\": {}, \"entries\": {}, \
         \"coverage\": {:.4}}},\n  \"engines\": [\n{}\n  ]\n}}\n",
        trie.len(),
        simd_label(),
        slab.depth(),
        slab.occupied(),
        hot_stats.coverage,
        rows.join(",\n")
    );
    write_artifact(&out_path, &json);
}

// ---------------------------------------------------------------------
// Serve mode (BENCH_serve.json, schema v1)
// ---------------------------------------------------------------------

/// One serve-matrix measurement.
struct ServeCell {
    engine: &'static str,
    keys: &'static str,
    threads: usize,
    mlps: f64,
    p50: f64,
    p99: f64,
    packets: u64,
    drops: u64,
}

fn serve_engine<E>(
    name: &'static str,
    trie: &BinaryTrie<u32>,
    build: BuildConfig,
    duration: Duration,
    cells: &mut Vec<ServeCell>,
) where
    E: FibLookup<u32>
        + FibBuild<u32>
        + FibUpdate<u32>
        + ImageCodec<u32>
        + Clone
        + Send
        + Sync
        + 'static,
{
    let router: Router<u32, E> = Router::new(
        trie.clone(),
        RouterConfig {
            build,
            publish_every: None,
            ..RouterConfig::default()
        },
    );
    let pool = Forwarder::new();
    for keys in ["uniform", "zipf", "bursty"] {
        let model = KeyModel::parse(keys).expect("known model");
        for threads in [1usize, 2, 4] {
            let config = ForwarderConfig {
                threads,
                batch: 256,
                duration,
                pacing: PacingMode::Closed,
            };
            let reports = pool.run(router.snap_cell(), &config, |worker| {
                let mut stream = AddrStream::new(model, trie, 0xD1A1, worker as u64);
                move |buf: &mut Vec<u32>, n: usize| stream.fill(buf, n)
            });
            let (mlps, hist) = aggregate(&reports);
            let packets: u64 = reports.iter().map(|r| r.packets).sum();
            let drops: u64 = reports.iter().map(|r| r.drops).sum();
            assert!(
                reports.iter().all(|r| !r.epoch_regressed),
                "torn snapshot during serve benchmark"
            );
            println!(
                "{name:<18} {keys:<8} {threads} thr  {mlps:>7.2} Mlps  \
                 p50 {:>7.1} ns  p99 {:>7.1} ns  {packets} pkts",
                hist.p50(),
                hist.p99()
            );
            cells.push(ServeCell {
                engine: name,
                keys,
                threads,
                mlps,
                p50: hist.p50(),
                p99: hist.p99(),
                packets,
                drops,
            });
        }
    }
}

fn serve_mode() {
    let scale = scale_arg();
    let out_path = arg("--out=").unwrap_or_else(|| repo_root_path("BENCH_serve.json"));
    let duration_s: f64 = arg("--duration=").map_or(0.2, |s| {
        s.parse().expect("--duration=SECONDS must be a number")
    });
    let duration = Duration::from_secs_f64(duration_s);
    let instance = "taz";
    let trie = instance_fib(instance, scale, 0xF1B);

    let base = BuildConfig::default();
    let succinct = BuildConfig {
        xbw_storage: XbwStorage::Succinct,
        ..base
    };
    let mut cells = Vec::new();
    serve_engine::<SerializedDag<u32>>("pdag-serialized", &trie, base, duration, &mut cells);
    serve_engine::<VarStrideDag<u32>>("vsdag", &trie, base, duration, &mut cells);
    serve_engine::<LcTrie<u32>>("fib_trie", &trie, base, duration, &mut cells);
    serve_engine::<XbwFib<u32>>("xbw-succinct", &trie, succinct, duration, &mut cells);

    let rows: Vec<String> = cells
        .iter()
        .map(|c| {
            format!(
                "    {{\"engine\": \"{}\", \"keys\": \"{}\", \"threads\": {}, \
                 \"mlookups_per_s\": {:.3}, \"p50_ns\": {:.1}, \"p99_ns\": {:.1}, \
                 \"packets\": {}, \"drops\": {}}}",
                c.engine, c.keys, c.threads, c.mlps, c.p50, c.p99, c.packets, c.drops
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"schema\": \"fibcomp-bench-serve/v1\",\n  \"instance\": \"{instance}\",\n  \
         \"scale\": {scale},\n  \"routes\": {},\n  \"batch\": 256,\n  \
         \"duration_s\": {duration_s},\n  \"host_cores\": {},\n  \"cells\": [\n{}\n  ]\n}}\n",
        trie.len(),
        std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
        rows.join(",\n")
    );
    write_artifact(&out_path, &json);
}

// ---------------------------------------------------------------------
// VRF mode (BENCH_vrf.json, schema v1)
// ---------------------------------------------------------------------

/// Dedup and throughput of the multi-tenant compiler at one fleet size.
///
/// The fleet is the standard acceptance workload: 64 tables derived from
/// taz with 90 % shared base routes and 10 % per-VRF churn. Lookups run
/// through the published [`fib_router::VrfSnapshot`] — the same bucketed
/// batch path the data plane uses — and every answer is checked against
/// the VRF's own oracle before any timing starts.
fn vrf_mode() {
    let scale = scale_arg();
    let out_path = arg("--out=").unwrap_or_else(|| repo_root_path("BENCH_vrf.json"));
    let overlap: f64 = arg("--overlap=").map_or(0.9, |s| {
        s.parse().expect("--overlap=FRACTION must be a number")
    });
    const FLEET: usize = 64;
    const SEED: u64 = 0xF1B;
    const KEY_COUNT: usize = 65_536;
    let assert_saving = std::env::var("FIB_BENCH_ASSERT").as_deref() == Ok("1");

    let fleet =
        instance_fleet("taz", scale, FLEET, overlap, SEED).expect("taz is a known instance");
    let mut rows = Vec::new();
    for n in [1usize, 16, FLEET] {
        let mut router: VrfSetRouter<u32> =
            VrfSetRouter::new(BuildConfig::default(), VrfPolicy::Shared);
        for (v, trie) in fleet.iter().take(n).enumerate() {
            router.insert_vrf(v as u32, trie.clone());
        }
        let compile_start = Instant::now();
        let snapshot = router.publish();
        let compile_s = compile_start.elapsed().as_secs_f64();
        let stats = snapshot.set().stats;
        let routes: u64 = fleet.iter().take(n).map(|t| t.len() as u64).sum();

        let keys: Vec<(u32, u32)> = mixed_keys(n, None, 0x7AB2, KEY_COUNT);
        for &(vrf, addr) in &keys {
            assert_eq!(
                snapshot.lookup(vrf, addr),
                fleet[vrf as usize].lookup(addr),
                "vrf {vrf} addr {addr:#x}: compiled set disagrees with its oracle"
            );
        }

        let mut passes = Vec::with_capacity(SAMPLES);
        for _ in 0..SAMPLES {
            let start = Instant::now();
            let mut acc = 0u64;
            for &(vrf, addr) in &keys {
                acc = acc.wrapping_add(u64::from(
                    snapshot
                        .lookup(black_box(vrf), black_box(addr))
                        .map_or(0, |nh| nh.index()),
                ));
            }
            black_box(acc);
            passes.push(start.elapsed().as_nanos() as f64 / keys.len() as f64);
        }
        let scalar = median(&passes);

        let mut out = vec![None; keys.len()];
        let mut scratch = VrfBatchScratch::new();
        let mut passes = Vec::with_capacity(SAMPLES);
        for _ in 0..SAMPLES {
            let start = Instant::now();
            snapshot.lookup_batch(black_box(&keys), &mut out, &mut scratch);
            black_box(&out);
            passes.push(start.elapsed().as_nanos() as f64 / keys.len() as f64);
        }
        let batch = median(&passes);

        let resident = stats.resident_bytes();
        let independent = stats.independent_bytes;
        let saved_pct = if independent == 0 {
            0.0
        } else {
            100.0 * stats.bytes_saved() as f64 / independent as f64
        };
        println!(
            "{n:>3} VRFs  {routes:>8} routes  sharing {:.2}x  resident {resident} B \
             vs independent {independent} B ({saved_pct:.1} % saved)  \
             scalar {:.1} Mlps  batch {:.1} Mlps  compile {compile_s:.2} s",
            stats.sharing_ratio(),
            1000.0 / scalar,
            1000.0 / batch,
        );
        if assert_saving && n == FLEET {
            assert!(
                resident as f64 <= independent as f64 * 0.7,
                "64-VRF arena {resident} B must be ≥30 % under independent compiles \
                 {independent} B"
            );
        }
        rows.push(format!(
            "    {{\"vrfs\": {n}, \"routes\": {routes}, \"unique_nodes\": {}, \
             \"total_nodes\": {}, \"sharing_ratio\": {:.4}, \"resident_bytes\": {resident}, \
             \"independent_bytes\": {independent}, \"saved_pct\": {saved_pct:.2}, \
             \"mlookups_per_s\": {:.3}, \"mlookups_per_s_batch\": {:.3}, \
             \"compile_s\": {compile_s:.3}}}",
            stats.unique_nodes,
            stats.total_nodes,
            stats.sharing_ratio(),
            1000.0 / scalar,
            1000.0 / batch,
        ));
    }
    let json = format!(
        "{{\n  \"schema\": \"fibcomp-bench-vrf/v1\",\n  \"instance\": \"taz\",\n  \
         \"scale\": {scale},\n  \"fleet\": {FLEET},\n  \"overlap\": {overlap},\n  \
         \"seed\": {SEED},\n  \"key_count\": {KEY_COUNT},\n  \"points\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    );
    write_artifact(&out_path, &json);
}

fn write_artifact(out_path: &str, json: &str) {
    match std::fs::write(out_path, json) {
        Ok(()) => println!("[wrote {out_path}]"),
        Err(e) => {
            eprintln!("cannot write {out_path}: {e}");
            std::process::exit(1);
        }
    }
}
