//! The spool lifecycle end to end on a real filesystem: a router under
//! BGP churn commits its journal at every publish, folds it into a
//! crash-consistent epoch image whenever it outgrows its threshold,
//! prunes old checkpoints, survives a simulated bit-rot scrub, and
//! warm-restarts from the newest image plus the journal behind it — with
//! the offline scanner (`fibc spool-status`) reporting health at each
//! stage.
//!
//! ```sh
//! cargo run --release --example spool_churn [SPOOL_DIR]
//! ```
//!
//! The spool directory (default `target/spool-churn`) is left on disk so
//! `fibc spool-status` and `fibc serve --spool` can be pointed at it.

use fibcomp::core::{BuildConfig, PrefixDag};
use fibcomp::router::{scan_spool, Router, RouterConfig, SpoolConfig, StdFs};
use fibcomp::trie::BinaryTrie;
use fibcomp::workload::rng::Xoshiro256;
use fibcomp::workload::updates::{bgp_sequence, UpdateOp};
use fibcomp::workload::{traces, FibSpec};

const FIB_SIZE: usize = 20_000;
const UPDATES: usize = 2_000;
/// Journal records a fold threshold of `24 * FOLD_RECORDS` bytes holds:
/// the record after them folds, so the churn below checkpoints three
/// times.
const FOLD_RECORDS: usize = 600;
/// Updates published after the scrub and left in the journal, for the
/// restart (and `fibc spool-status`) to find.
const TAIL: usize = 40;

fn main() {
    let dir = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "target/spool-churn".to_string());
    let _ = std::fs::remove_dir_all(&dir);

    let mut rng = Xoshiro256::seed_from_u64(7);
    let base: BinaryTrie<u32> = FibSpec::dfz_like(FIB_SIZE).generate(&mut rng);
    let updates = bgp_sequence(&mut rng, &base, UPDATES + TAIL);
    let (churn, tail) = updates.split_at(UPDATES);
    let trace = traces::uniform::<u32, _>(&mut rng, 4_096);

    let mut router: Router<u32, PrefixDag<u32>> = Router::new(
        base,
        RouterConfig {
            build: BuildConfig::with_lambda(11),
            publish_every: Some(64), // each publish is one journal sync
        },
    );
    let spool_cfg = SpoolConfig {
        keep: 2,
        journal_fold_bytes: 24 * FOLD_RECORDS as u64,
        ..SpoolConfig::default()
    };
    router
        .enable_spool_with(StdFs::shared(), &dir, spool_cfg)
        .expect("spool directory");
    println!("spool armed at {dir}");

    let apply = |router: &mut Router<u32, PrefixDag<u32>>, ops: &[UpdateOp<u32>]| {
        for op in ops {
            match *op {
                UpdateOp::Announce(p, nh) => router.announce(p, nh),
                UpdateOp::Withdraw(p) => router.withdraw(p),
            }
        }
        router.publish();
    };
    apply(&mut router, churn);
    let fs = StdFs::shared();
    let status = scan_spool(fs.as_ref(), dir.as_ref()).expect("scan");
    println!("after churn:   {status}");
    assert_eq!(status.verdict(), "ok");
    // Images appear at folds only: the base spill plus one per
    // FOLD_RECORDS + 1 records, however many epochs were published.
    let folds = UPDATES / (FOLD_RECORDS + 1);
    assert_eq!(router.stats().spills as usize, 1 + folds);
    assert!(
        router.stats().epochs as usize > 1 + folds,
        "publishes outnumber images"
    );
    assert!(
        status.images.len() <= spool_cfg.keep + 1,
        "retention must bound checkpoints, found {}",
        status.images.len()
    );
    // The journal carries what the newest image does not.
    assert!(status.journal_bridges);
    assert_eq!(
        status.journal_records as usize,
        UPDATES % (FOLD_RECORDS + 1),
        "every record since the last fold is replayable"
    );
    assert!(router.spool_health().expect("armed").is_healthy());

    // Bit-rot the newest checkpoint in place; the scrub must quarantine
    // it with a typed reason and immediately re-spill the current epoch.
    let newest = status.images.first().expect("checkpoints exist");
    let mut bytes = std::fs::read(&newest.path).expect("read checkpoint");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(&newest.path, &bytes).expect("rot checkpoint");
    let moved = router.scrub_spool();
    let status = scan_spool(fs.as_ref(), dir.as_ref()).expect("scan");
    println!("after scrub:   {status}");
    assert_eq!(moved, 1, "the rotted checkpoint is quarantined");
    assert_eq!(status.verdict(), "ok", "scrub re-spills a clean checkpoint");

    // A published tail the re-spilled checkpoint does not hold: one sync
    // made it durable, the restart below replays it.
    apply(&mut router, tail);
    let status = scan_spool(fs.as_ref(), dir.as_ref()).expect("scan");
    println!("after tail:    {status}");
    assert_eq!(status.journal_records as usize, TAIL);
    assert_eq!(status.verdict(), "ok");

    // Reboot from what is on disk and differentially check the recovered
    // control FIB against the control plane that never died.
    let recovered = Router::<u32, PrefixDag<u32>>::warm_restart(&dir, RouterConfig::default())
        .expect("warm restart");
    assert_eq!(recovered.stats().replayed as usize, TAIL);
    let mut diverged = 0usize;
    for &addr in &trace {
        if recovered.control().lookup(addr) != router.control().lookup(addr) {
            diverged += 1;
        }
    }
    println!(
        "warm restart:  epoch {}, {} routes, {TAIL} records replayed, {} probes, {diverged} divergences",
        recovered.epoch(),
        recovered.control().len(),
        trace.len()
    );
    assert_eq!(diverged, 0, "recovered FIB must answer like the original");

    // No publish copied the engine: each one after the first appended
    // only the records its updates had changed to the log the snapshot
    // before it reads, so nine in ten at least shared that log.
    let stats = router.stats();
    let publishes = stats.epochs - 1;
    assert_eq!(stats.recycled + stats.compactions, publishes, "{stats:?}");
    assert!(
        stats.recycled * 10 >= publishes * 9,
        "publishes stopped sharing the record log: {stats:?}"
    );
    println!(
        "shared {} of {publishes} publishes, {} records appended, {} compactions",
        stats.recycled, stats.records_written, stats.compactions
    );
    println!("OK — spool left at {dir} for `fibc spool-status {dir}`");
}
