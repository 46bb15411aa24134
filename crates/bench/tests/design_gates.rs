//! Structural design gates: exact size and depth facts, no clocks.
//!
//! Where `batch_guard.rs` pins a timing ratio, these pin what the
//! compilers promise about the *shape* of what they emit, so they hold
//! identically in debug and release and never need a retry:
//!
//! * the traffic-weighted vsdag keeps the expected walk near the 1-hop
//!   floor for uniform keys and within two hops for the zipf trace it
//!   was compiled from — the quantity its stride DP minimizes;
//! * it stores runs, not slots: at most a third as many, in a table
//!   within 7.5x the entropy bound of the FIB it serves;
//! * a 64-table fleet at 90 % overlap folds into one arena at least
//!   30 % smaller than 64 independent compiles;
//! * a vsdag router under steady churn republishes in one DP round, at
//!   the slot penalty the previous compile found, not a fresh search;
//! * a durable publish costs what changed: one sync for a hundred
//!   journaled updates and not one image byte, with exactly one image —
//!   and a journal reset — when the journal crosses its fold threshold;
//! * the updatable pDAG's lookup starts at its root-array entry, and so
//!   does every shared-arena table's of a compiled fleet; the node records
//!   each reads from there are pinned;
//! * an in-place publish costs what changed too: the pDAG router appends
//!   the records that moved to the buffer the snapshot before it reads,
//!   not a copy of the engine, and what it publishes carries no control
//!   FIB;
//! * BGP churn leaves the pDAG's free-list fragmentation under half the
//!   router's compaction threshold, so no compaction runs on its own.
//!
//! The matching clock-time figures (`engine.vsdag.stream_ns` against
//! `engine.multibit-dag.stream_ns`, `vrf.saved_pct`,
//! `router.publish_ms_p50`, `visible_ms_p50` on `churn-spool`) are metrics
//! of every `benchmark/` run.

use std::path::Path;
use std::sync::Arc;

use fib_core::{
    compile_vrf_set, BuildConfig, CompiledVrfSet, FibBuild, FibEntropy, FibUpdate, HotConfig,
    PrefixDag, RebuildNeeded, VarStrideDag, VrfPolicy, VrfTable,
};
use fib_router::spoolfs::{FaultFs, SpoolFs};
use fib_router::{scan_spool, Router, RouterConfig, SpoolConfig};
use fib_workload::instances;
use fib_workload::rng::{Rng, SplitMix64, Xoshiro256};
use fib_workload::traces::{uniform, ZipfTrace};
use fib_workload::updates::{bgp_sequence, UpdateOp};
use fib_workload::vrf::instance_fleet;
use fib_workload::HeatSummary;

const KEY_COUNT: usize = 65_536;

/// taz 0.1 with the zipf trace that stands in for its traffic, and the
/// vsdag compiled against that trace's sampled heat at the defaults.
fn heat_planned() -> (Vec<u32>, VarStrideDag<u32>) {
    let trie = instances::scaled("taz", 0.1, 0xF1B).expect("taz");
    let zipf =
        ZipfTrace::new(&trie, 1.0).generate(&mut Xoshiro256::seed_from_u64(0x21BF), KEY_COUNT);
    let heat = HeatSummary::sample_addrs(HotConfig::for_width(32).depth, zipf.iter().copied());
    let vs = VarStrideDag::build_weighted(
        &trie,
        &BuildConfig::default(),
        Some((heat.entries(), heat.depth())),
    );
    (zipf, vs)
}

fn mean_hops(vs: &VarStrideDag<u32>, addrs: &[u32]) -> f64 {
    let total: u64 = addrs
        .iter()
        .map(|&a| u64::from(vs.lookup_with_depth(a).1))
        .sum();
    total as f64 / addrs.len() as f64
}

#[test]
fn vsdag_expected_hops_stay_near_the_floor() {
    let (zipf, vs) = heat_planned();
    let uni: Vec<u32> = uniform(&mut Xoshiro256::seed_from_u64(0x7AB2), KEY_COUNT);
    let (uni_hops, zipf_hops) = (mean_hops(&vs, &uni), mean_hops(&vs, &zipf));
    assert!(
        uni_hops <= 1.2 && zipf_hops <= 2.0,
        "vsdag expected hops (uniform {uni_hops:.3}, zipf {zipf_hops:.3}) \
         exceed the 1.2/2.0 depth gates"
    );
}

/// The default uniform plan at taz 0.1 reads 9,202 runs of 29,862 slots
/// and 7.08 × E. Starting a run at every slot (`Emitter::collapse`
/// without its `previous` test) trips the first bar at 29,862 runs;
/// forcing the 32-bit run width (`narrow = false` in `emit`) trips the
/// second at 9.92 × E.
#[test]
fn vsdag_stores_runs_within_reach_of_entropy() {
    let trie = instances::scaled("taz", 0.1, 0xF1B).expect("taz");
    let vs: VarStrideDag<u32> = FibBuild::build(&trie, &BuildConfig::default());
    let (runs, slots) = (vs.run_count(), vs.slot_count());
    assert!(
        runs <= slots / 3,
        "{runs} runs of {slots} slots: the collapse is not collapsing"
    );
    let over_entropy = vs.size_bytes() as f64 * 8.0 / FibEntropy::of_trie(&trie).entropy_bits();
    assert!(
        over_entropy <= 7.5,
        "vsdag is {} B, {over_entropy:.2} x the entropy bound",
        vs.size_bytes()
    );
}

/// A fleet's tables, compiled at the defaults into one shared arena.
fn fleet_set(scale: f64, tables: usize) -> CompiledVrfSet<u32> {
    let fleet = instance_fleet("taz", scale, tables, 0.9, 0xF1B).expect("taz is a known instance");
    let tables: Vec<VrfTable<'_, u32>> = fleet
        .iter()
        .enumerate()
        .map(|(v, trie)| VrfTable { id: v as u32, trie })
        .collect();
    compile_vrf_set(&tables, &BuildConfig::default(), &VrfPolicy::Shared)
}

/// The resident bytes count each shared table's 2 KiB root array: the
/// set reads 0.303 of the independent compiles, where the arena alone
/// reads 0.253, against a 0.7 bar.
#[test]
fn fleet_arena_saves_thirty_percent() {
    let stats = fleet_set(0.02, 64).stats;
    let (resident, independent) = (stats.resident_bytes(), stats.independent_bytes);
    assert!(
        resident as f64 <= independent as f64 * 0.7,
        "64-VRF arena {resident} B must be ≥30 % under independent compiles {independent} B"
    );
}

/// A cold compile places μ with a DP round per Newton step on the
/// Lagrangian envelope, not one per step of the bisection whose μ it
/// settles on (`vsdag::tests::search_settles_as_the_bisection` checks it
/// is the same μ and plan): at taz 0.1 the plain compile runs 15 rounds
/// where the bisection ran 35, the heat-planned one 13 where it ran 38.
#[test]
fn vsdag_cold_search_is_fifteen_rounds_not_thirty_five() {
    let trie = instances::scaled("taz", 0.1, 0xF1B).expect("taz");
    let plain: VarStrideDag<u32> = FibBuild::build(&trie, &BuildConfig::default());
    let (_, hot) = heat_planned();
    assert_eq!(
        (plain.plan_solves(), hot.plan_solves()),
        (15, 13),
        "cold DP rounds at taz 0.1, plain and heat-planned"
    );
}

#[test]
fn vsdag_republish_is_one_solve() {
    let trie = instances::scaled("taz", 0.1, 0xF1B).expect("taz");
    let updates = bgp_sequence(&mut Xoshiro256::seed_from_u64(7), &trie, 20 * 100);
    let config = RouterConfig {
        publish_every: None,
        ..RouterConfig::default()
    };
    let mut router: Router<u32, VarStrideDag<u32>> = Router::new(trie, config);
    let mut solves = 0;
    for burst in updates.chunks(100) {
        for op in burst {
            match *op {
                UpdateOp::Announce(prefix, next_hop) => router.announce(prefix, next_hop),
                UpdateOp::Withdraw(prefix) => router.withdraw(prefix),
            }
        }
        let snapshot = router.publish();
        solves += snapshot.engine().expect("owned engine").plan_solves();
    }
    let stats = router.stats();
    let (held, cold) = (stats.warm_rebuilds, stats.rebuilds - stats.warm_rebuilds);
    // The bar is held >= 19, cold <= 1 and solves <= 20 + 4 walk-up steps
    // + one cold search (15 rounds here); the run is deterministic and
    // reads better than the bar, so pin what it reads.
    assert_eq!(
        (held, cold, solves),
        (20, 0, 20),
        "20 publishes took {solves} DP rounds: {held} from the held penalty, {cold} cold"
    );
}

fn apply(router: &mut Router<u32, PrefixDag<u32>>, ops: &[UpdateOp<u32>]) {
    for op in ops {
        match *op {
            UpdateOp::Announce(prefix, next_hop) => router.announce(prefix, next_hop),
            UpdateOp::Withdraw(prefix) => router.withdraw(prefix),
        }
    }
}

/// `FaultFs` counts every fallible operation, a reboot of it
/// (`durable_clone`) keeps synced bytes only, and the directory listing
/// shows every image: between them they pin the syncs and image bytes of a
/// publish without a counting shim.
#[test]
fn durable_publish_costs_one_sync_and_a_fold_one_image() {
    const DIR: &str = "/spool";
    let journal = Path::new(DIR).join("journal.log");
    let trie = instances::scaled("taz", 0.01, 0xF1B).expect("taz");
    let updates = bgp_sequence(&mut Xoshiro256::seed_from_u64(7), &trie, 101);
    let config = RouterConfig {
        build: BuildConfig::with_lambda(11),
        publish_every: None,
    };
    let mut router: Router<u32, PrefixDag<u32>> = Router::new(trie, config);
    let fs = FaultFs::new(1);
    // A hundred records fit under the fold threshold; the next crosses it.
    let spool = SpoolConfig {
        journal_fold_bytes: 100 * 24,
        ..SpoolConfig::default()
    };
    router
        .enable_spool_with(Arc::new(fs.clone()), DIR, spool)
        .expect("spool dir");
    let (ops_armed, files_armed) = (fs.op_count(), fs.paths());

    apply(&mut router, &updates[..100]);
    router.publish();
    assert!(router.spool_health().expect("armed").is_healthy());
    // 100 appends and one more operation, which a reboot shows to have
    // been the journal's sync: all 100 records are durable.
    assert_eq!(fs.op_count() - ops_armed, 101, "100 appends + one sync");
    assert_eq!(
        fs.durable_clone().file_len(&journal).expect("journal"),
        16 + 100 * 24,
        "the publish made every record durable"
    );
    assert_eq!(fs.paths(), files_armed, "no image, no temp file");
    assert_eq!(router.stats().spills, 1, "only the base image so far");

    // The 101st record outgrows the threshold: the update publishes, and
    // that publish folds the journal into exactly one image.
    apply(&mut router, &updates[100..]);
    assert_eq!(router.stats().spills, 2, "one fold, one image");
    assert_eq!(router.stats().epochs, 3, "initial, the publish, the fold");
    assert_eq!(fs.file_len(&journal).expect("journal"), 16, "journal reset");
    let status = scan_spool(&fs, Path::new(DIR)).expect("scan");
    assert_eq!(status.images.len(), 2);
    assert_eq!(status.images[0].epoch, router.epoch());
    assert_eq!(
        (status.journal_records, status.verdict()),
        (0, "ok"),
        "the journal bridges the fold's image"
    );
}

/// The walk of the updatable pDAG, counted as the serialized image counts
/// its own: node records read after the root-array entry. At λ = 11 the
/// array collapses k = 8 levels: 1.980 reads per lookup where the
/// bit-by-bit walk from the root it replaced made 9.086 (595,468 for the
/// same keys). The benchmark's `engine.hops_mean` on `churn-*` replays the
/// packed image, which has no root array, so this is where the saving is
/// pinned.
#[test]
fn pdag_walk_starts_at_the_root_array() {
    let trie = instances::scaled("taz", 0.1, 0xF1B).expect("taz");
    let dag: PrefixDag<u32> = FibBuild::build(&trie, &BuildConfig::with_lambda(11));
    let keys: Vec<u32> = uniform(&mut Xoshiro256::seed_from_u64(0x7AB2), KEY_COUNT);
    let reads: u64 = keys
        .iter()
        .map(|&key| u64::from(dag.lookup_with_depth(key).1))
        .sum();
    assert_eq!(
        reads,
        129_768,
        "{:.3} node reads per lookup",
        reads as f64 / KEY_COUNT as f64
    );
}

/// A fleet's shared-arena tables walk from their root arrays too, counted
/// as the pDAG's walk is counted above: node records read after the
/// root-array entry. Sixteen taz-0.1 VRFs at 0.9 overlap, key `i` in VRF
/// `i mod 16`: 2.033 reads per lookup, where the walk from each table's
/// root made 9.139 (598,915 for the same keys, answer for answer the
/// same). The benchmark's `engine.hops_mean` on `vrf-fleet` replays the
/// arena from the root, so this is where the saving is pinned.
#[test]
fn fleet_walk_starts_at_the_root_array() {
    let set = fleet_set(0.1, 16);
    let keys: Vec<u32> = uniform(&mut Xoshiro256::seed_from_u64(0x7AB2), KEY_COUNT);
    let reads: u64 = keys
        .iter()
        .enumerate()
        .map(|(i, &key)| {
            let table = set.table(i as u32 % 16).expect("sixteen tables");
            u64::from(set.shared_view(table).lookup_with_depth(key).1)
        })
        .sum();
    assert_eq!(
        reads,
        133_215,
        "{:.3} node reads per lookup",
        reads as f64 / KEY_COUNT as f64
    );
}

/// Ten bursts of 100 updates and a `publish()` each at taz 1.0, one reader
/// moving on at every epoch. The first publish packs the working engine's
/// live records into a new log; each of the nine after appends to it just
/// the records its burst changed — 487 of 42,383 on average, 1.1 % of the
/// arena, the top-tree records above what changed included — and hands
/// the reader a copy that reads the buffer the copy before it read,
/// extended by exactly those records.
#[test]
fn in_place_publish_appends_what_changed_to_the_buffer_readers_share() {
    let trie = instances::scaled("taz", 1.0, 0xF1B).expect("taz");
    let updates = bgp_sequence(&mut Xoshiro256::seed_from_u64(11), &trie, 10 * 100);
    let config = RouterConfig {
        build: BuildConfig::with_lambda(11),
        publish_every: None,
    };
    let mut router: Router<u32, PrefixDag<u32>> = Router::new(trie, config);
    let arena = router.snapshot().engine().expect("owned").size_bytes() / 16;
    let mut plane = router.data_plane();
    let mut read: Option<std::ops::Range<usize>> = None;
    let mut appended = Vec::new();
    for burst in updates.chunks(100) {
        let before = router.stats();
        apply(&mut router, burst);
        router.publish();
        let after = router.stats();
        let snapshot = plane.current();
        assert_eq!(snapshot.epoch(), router.epoch());
        let buffer = (snapshot.engine().expect("owned").view()).payload_ptr_range();
        let written = (after.records_written - before.records_written) as usize;
        if after.recycled > before.recycled {
            let read = read.expect("a shared publish follows a packed one");
            assert_eq!(buffer.start, read.start, "the buffer the last copy reads");
            assert_eq!(
                buffer.end - read.end,
                16 * written,
                "extended by what changed"
            );
            assert!(
                20 * written < arena,
                "{written} of {arena} records appended"
            );
            appended.push(written);
        } else {
            assert_eq!(after.compactions, before.compactions + 1);
        }
        read = Some(buffer);
    }
    let stats = router.stats();
    assert_eq!((stats.epochs, stats.rebuilds), (11, 0));
    assert_eq!(
        (stats.recycled, stats.compactions, arena),
        (9, 1, 42_383),
        "shared publishes, packs, arena records"
    );
    assert_eq!(
        appended,
        [548, 467, 431, 413, 520, 479, 509, 497, 516],
        "records each shared publish appended"
    );

    // What was published is the lookup half: it holds no control FIB and
    // declines an update the way a static image does.
    let published = router.snapshot();
    let mut copy = published.engine().expect("owned").clone();
    assert!(copy.is_published_copy());
    assert_eq!(copy.len(), router.len());
    let (prefix, next_hop) = router.control().iter().next().expect("a route");
    assert_eq!(copy.try_insert(prefix, next_hop), Err(RebuildNeeded));
    assert_eq!(copy.try_remove(prefix), Err(RebuildNeeded));
}

/// The router compacts a pDAG in line once its free-list fragmentation
/// passes 0.25 (`router.rs`'s `DEGRADATION_THRESHOLD`), and BGP churn does
/// not get there: the benchmark's own stream — table seed `0xF1B`, update
/// seed derived from `--seed 11` as `benchmark/src/plan.rs` derives it —
/// peaks at 0.051 over 200 k updates at taz 0.1 (0.103 with seed 12, 0.024
/// over 2 M at taz 1.0); read at each of the publishes below it peaks at
/// 0.035. This pins the fact the one rebuild path rests on: a compaction
/// is an explicit or rare event, not traffic. An `alloc` that ignores the
/// free list (appending every node) trips both bars (it reads 0.247).
#[test]
fn bgp_churn_never_reaches_the_compaction_threshold() {
    const UPDATES: usize = 100_000;
    let trie = instances::scaled("taz", 0.1, 0xF1B).expect("taz");
    let mut mix = SplitMix64::new(11);
    let _keys = mix.next_u64();
    let updates = bgp_sequence(
        &mut Xoshiro256::seed_from_u64(mix.next_u64()),
        &trie,
        UPDATES,
    );
    let config = RouterConfig {
        build: BuildConfig::with_lambda(11),
        publish_every: Some(1000),
    };
    let mut router: Router<u32, PrefixDag<u32>> = Router::new(trie, config);
    let mut peak = 0.0f64;
    for burst in updates.chunks(1000) {
        apply(&mut router, burst);
        let published = router.snapshot();
        peak = peak.max(published.engine().expect("owned").degradation());
    }
    let stats = router.stats();
    assert_eq!((stats.updates, stats.epochs), (UPDATES as u64, 101));
    assert!(peak < 0.125, "fragmentation peaked at {peak:.4}");
    assert_eq!(stats.rebuilds, 0, "{stats:?}");
}

/// Change tracking starts at a consumer's first drain, so an engine
/// nobody publishes from — the benchmark's `engine.update_ns` scratch
/// clone, a `fibc` one-shot — carries the same state after 50,000 updates
/// as after none: within one word per arena slot.
#[test]
fn change_tracking_is_bounded_without_a_publisher() {
    let trie = instances::scaled("taz", 0.1, 0xF1B).expect("taz");
    let updates = bgp_sequence(&mut Xoshiro256::seed_from_u64(11), &trie, 50_000);
    let mut dag: PrefixDag<u32> = FibBuild::build(&trie, &BuildConfig::with_lambda(11));
    for op in &updates {
        let _ = match *op {
            UpdateOp::Announce(prefix, next_hop) => dag.insert(prefix, next_hop),
            UpdateOp::Withdraw(prefix) => dag.remove(prefix),
        };
    }
    let slots = dag.size_bytes() as f64 / 16.0 / (1.0 - dag.fragmentation());
    assert!(
        dag.tracking_bytes() as f64 <= 8.0 * slots,
        "{} tracking bytes for {slots} slots",
        dag.tracking_bytes()
    );
    dag.assert_invariants();
}
