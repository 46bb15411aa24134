//! A software router under BGP churn, on the control/data-plane split the
//! paper's §5 describes: a DFZ-sized FIB compressed with trie-folding
//! absorbs a live update feed through the control plane, the data plane
//! serves batched lookups from immutable epoch snapshots, and the arena
//! fragmentation λ-barrier refolds leave behind is printed per epoch —
//! BGP churn keeps it far below the 0.25 at which the router compacts by
//! itself, so the example compacts once, halfway, with `start_rebuild()`
//! — all differentially checked against the uncompressed control FIB
//! throughout.
//!
//! ```sh
//! cargo run --release --example router_churn
//! ```

use fibcomp::core::{BuildConfig, FibUpdate, PrefixDag};
use fibcomp::router::{Router, RouterConfig};
use fibcomp::trie::BinaryTrie;
use fibcomp::workload::rng::Xoshiro256;
use fibcomp::workload::updates::{bgp_sequence, UpdateOp};
use fibcomp::workload::{traces, FibSpec};
use std::time::Instant;

const FIB_SIZE: usize = 150_000;
const CHURN_BATCHES: usize = 10;
const UPDATES_PER_BATCH: usize = 2_000;
const LOOKUPS_PER_BATCH: usize = 200_000;
const LOOKUP_CHUNK: usize = 256;

fn main() {
    let mut rng = Xoshiro256::seed_from_u64(2024);
    println!("building a {FIB_SIZE}-prefix DFZ-like FIB…");
    let trie: BinaryTrie<u32> = FibSpec::dfz_like(FIB_SIZE).generate(&mut rng);

    let config = RouterConfig {
        build: BuildConfig::with_lambda(11),
        publish_every: None, // one epoch per churn batch below
    };
    let (mut router, build) = {
        let start = Instant::now();
        let router: Router<u32, PrefixDag<u32>> = Router::new(trie, config);
        (router, start.elapsed())
    };
    println!(
        "router up in {:.0} ms: epoch {} serving {} routes",
        build.as_secs_f64() * 1e3,
        router.epoch(),
        router.len(),
    );
    let mut data_plane = router.data_plane();

    let mut total_updates = 0usize;
    let mut total_lookups = 0usize;
    for batch in 1..=CHURN_BATCHES {
        // Control plane: absorb a burst of BGP updates, then cut an epoch.
        let updates = bgp_sequence(&mut rng, router.control(), UPDATES_PER_BATCH);
        let start = Instant::now();
        for op in &updates {
            match *op {
                UpdateOp::Announce(p, nh) => router.announce(p, nh),
                UpdateOp::Withdraw(p) => router.withdraw(p),
            }
        }
        let compact = batch == CHURN_BATCHES / 2;
        if compact {
            router.start_rebuild();
        }
        router.publish();
        let upd_secs = start.elapsed().as_secs_f64();
        total_updates += updates.len();

        // Data plane: serve a burst of traffic in batches off the newest
        // snapshot (exactly what a forwarding thread would do).
        let keys = traces::uniform::<u32, _>(&mut rng, LOOKUPS_PER_BATCH);
        let snapshot = data_plane.snapshot();
        let start = Instant::now();
        let mut acc = 0u64;
        let mut out = [None; LOOKUP_CHUNK];
        for chunk in keys.chunks(LOOKUP_CHUNK) {
            snapshot.lookup_batch(chunk, &mut out);
            for nh in &out[..chunk.len()] {
                acc = acc.wrapping_add(u64::from(nh.map_or(0, |nh| nh.index())));
            }
        }
        std::hint::black_box(acc);
        let lk_secs = start.elapsed().as_secs_f64();
        total_lookups += keys.len();

        // Differential check against the control FIB.
        for &k in keys.iter().step_by(997) {
            assert_eq!(
                snapshot.lookup(k),
                router.control().lookup(k),
                "divergence at {k:#x}"
            );
        }
        println!(
            "batch {batch:>2}: epoch {:>2}, {:>6.1} Kupd/s, {:>5.2} Mlookup/s, {} routes live, fragmentation {:.4}{}",
            snapshot.epoch(),
            UPDATES_PER_BATCH as f64 / upd_secs / 1e3,
            LOOKUPS_PER_BATCH as f64 / lk_secs / 1e6,
            router.len(),
            snapshot.engine().map_or(0.0, FibUpdate::degradation),
            if compact { " (compacted)" } else { "" },
        );
    }

    let stats = router.stats();
    println!("\nsurvived {total_updates} updates and {total_lookups} lookups with zero divergence");
    // A BGP re-announce of the hop a prefix already has stops at the
    // control FIB: every update is in place, declined or unchanged.
    assert_eq!(
        stats.updates,
        stats.in_place + stats.declined + stats.unchanged,
        "the update counters do not add up: {stats:?}"
    );
    println!(
        "router stats: {} epochs, {} in-place updates, {} unchanged, {} rebuilds ({} from the previous engine)",
        stats.epochs, stats.in_place, stats.unchanged, stats.rebuilds, stats.warm_rebuilds,
    );
    // A publish appends the records that changed to the log the snapshot
    // before it reads; the first publish of each arena — the first one
    // and the one after the compaction — packs a new log instead.
    let publishes = stats.epochs - 1;
    assert_eq!(
        stats.recycled + stats.compactions,
        publishes,
        "every publish shares a log or packs one: {stats:?}"
    );
    assert!(
        stats.compactions >= 2,
        "a new arena shared a log: {stats:?}"
    );
    println!(
        "shared {} of {publishes} publishes, {} records appended, {} compactions",
        stats.recycled, stats.records_written, stats.compactions,
    );
}
