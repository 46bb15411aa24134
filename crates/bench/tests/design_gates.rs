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
//!   the slot penalty the previous compile found, not a fresh search.
//!
//! The matching clock-time figures (`engine.vsdag.stream_ns` against
//! `engine.multibit-dag.stream_ns`, `vrf.saved_pct`,
//! `router.publish_ms_p50`) are per-layer metrics of every `benchmark/`
//! run.

use fib_bench::instance_fib;
use fib_core::{
    compile_vrf_set, BuildConfig, FibBuild, FibEntropy, HotConfig, VarStrideDag, VrfPolicy,
    VrfTable,
};
use fib_router::{Router, RouterConfig};
use fib_workload::rng::Xoshiro256;
use fib_workload::traces::{uniform, ZipfTrace};
use fib_workload::updates::{bgp_sequence, UpdateOp};
use fib_workload::vrf::instance_fleet;
use fib_workload::HeatSummary;

const KEY_COUNT: usize = 65_536;

/// taz 0.1 with the zipf trace that stands in for its traffic, and the
/// vsdag compiled against that trace's sampled heat at the defaults.
fn heat_planned() -> (Vec<u32>, VarStrideDag<u32>) {
    let trie = instance_fib("taz", 0.1, 0xF1B);
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
    let trie = instance_fib("taz", 0.1, 0xF1B);
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

#[test]
fn fleet_arena_saves_thirty_percent() {
    let fleet = instance_fleet("taz", 0.02, 64, 0.9, 0xF1B).expect("taz is a known instance");
    let tables: Vec<VrfTable<'_, u32>> = fleet
        .iter()
        .enumerate()
        .map(|(v, trie)| VrfTable { id: v as u32, trie })
        .collect();
    let stats = compile_vrf_set(&tables, &BuildConfig::default(), &VrfPolicy::Shared).stats;
    let (resident, independent) = (stats.resident_bytes(), stats.independent_bytes);
    assert!(
        resident as f64 <= independent as f64 * 0.7,
        "64-VRF arena {resident} B must be ≥30 % under independent compiles {independent} B"
    );
}

#[test]
fn vsdag_republish_is_one_solve() {
    let trie = instance_fib("taz", 0.1, 0xF1B);
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
    // + one cold search (35 rounds here); the run is deterministic and
    // reads better than the bar, so pin what it reads.
    assert_eq!(
        (held, cold, solves),
        (20, 0, 20),
        "20 publishes took {solves} DP rounds: {held} from the held penalty, {cold} cold"
    );
}
