//! Differential churn: a `Router<PrefixDag>` and an independent oracle
//! trie absorb the same BGP-style update feed; every published epoch
//! snapshot must agree with the oracle on a fixed lookup trace, including
//! the epochs cut right after an in-line compaction (`start_rebuild`).
//! Every published pDAG is also what the router's working engine is — a
//! published copy, reading a record log freshly packed or appended to
//! since the copy before it, answers and packs as a reference engine fed
//! the same updates does — and an old copy goes on answering for its own
//! epoch however many publishes append to its log or move the engine to
//! a new one.

use fib_core::{BuildConfig, HotConfig, PrefixDag, SerializedDag};
use fib_router::{EpochSnapshot, Router, RouterConfig, SpoolConfig, SpoolHealth, StdFs};
use fib_trie::{Address, BinaryTrie, NextHop};
use fib_workload::rng::Xoshiro256;
use fib_workload::updates::{bgp_sequence, UpdateOp};
use fib_workload::HeatMap;
use fib_workload::{traces, FibSpec};

use std::sync::Arc;

fn rng(seed: u64) -> Xoshiro256 {
    Xoshiro256::seed_from_u64(seed)
}

fn assert_snapshot_matches_oracle<E>(
    snapshot: &fib_router::EpochSnapshot<E>,
    oracle: &BinaryTrie<u32>,
    trace: &[u32],
) where
    E: fib_core::ImageCodec<u32>,
{
    let mut batched = vec![None; trace.len()];
    snapshot.lookup_batch(trace, &mut batched);
    for (&addr, &got) in trace.iter().zip(&batched) {
        assert_eq!(
            got,
            oracle.lookup(addr),
            "epoch {} diverges from the oracle at {addr:#010x}",
            snapshot.epoch()
        );
    }
}

/// The published engine against `reference`, a working engine that
/// absorbed the same updates in place and was never published or
/// compacted: the answers on `trace`, the packed image (words and root —
/// what a spill writes and a reader of the image walks) and the §4.2
/// model size. Not the records themselves: a copy reads them from a log
/// that holds dead records beside them, in the order they were appended.
fn assert_published_is_the_working_engine<A: Address>(
    snapshot: &EpochSnapshot<PrefixDag<A>>,
    reference: &PrefixDag<A>,
    trace: &[A],
) {
    let published = snapshot.engine().expect("an owned engine");
    let epoch = snapshot.epoch();
    assert!(epoch == 0 || published.is_published_copy());
    let mut answers = vec![None; trace.len()];
    published.view().lookup_batch(trace, &mut answers);
    for (&addr, &got) in trace.iter().zip(&answers) {
        assert_eq!(got, reference.lookup(addr), "epoch {epoch}: answer");
    }
    assert_eq!(
        published.write_packed(),
        reference.write_packed(),
        "epoch {epoch}: packed image"
    );
    assert_eq!(
        published.model_size_bits(),
        reference.model_size_bits(),
        "epoch {epoch}: model size"
    );
    assert_eq!(published.len(), reference.len(), "epoch {epoch}: routes");
}

/// Publishes that cut an epoch in [`pdag_churn_differential`]: 24 stream
/// publishes and two hot ones.
const EPOCHS: u64 = 26;

/// The 12k-update BGP stream through a `Router<PrefixDag>` at `lambda`,
/// published every 500 updates — across compactions forced with
/// `start_rebuild()` before the stream publishes numbered in `compact_at`
/// (1-based; a new arena: no snapshot cut before it can be synced
/// afterwards), arena growth and free-list reuse — with a publish that has
/// nothing to publish and two hot publishes on the way.
fn pdag_churn_differential(lambda: u8, compact_at: &[usize]) -> Router<u32, PrefixDag<u32>> {
    const BURST: usize = 500;
    let base: BinaryTrie<u32> = FibSpec::dfz_like(15_000).generate(&mut rng(1));
    let updates = bgp_sequence(&mut rng(2), &base, 12_000);
    let trace = traces::uniform::<u32, _>(&mut rng(3), 1_500);

    let config = RouterConfig {
        build: BuildConfig::with_lambda(lambda),
        publish_every: None, // published explicitly every burst below
    };
    let mut router: Router<u32, PrefixDag<u32>> = Router::new(base.clone(), config);
    let mut reference = PrefixDag::from_trie(&base, lambda);
    let mut oracle = base;
    // A reader that moves on at every epoch, so snapshots come back.
    let mut plane = router.data_plane();

    assert_snapshot_matches_oracle(&router.snapshot(), &oracle, &trace);
    assert_published_is_the_working_engine(&router.snapshot(), &reference, &trace);

    let mut epochs_checked = 0usize;
    // Updates that leave the oracle as it was: a re-announce of the hop a
    // prefix already has, a withdraw of a prefix it does not hold.
    let mut unchanged = 0u64;
    for (i, op) in updates.iter().enumerate() {
        match *op {
            UpdateOp::Announce(p, nh) => {
                unchanged += u64::from(oracle.insert(p, nh) == Some(nh));
                reference.insert(p, nh);
                router.announce(p, nh);
            }
            UpdateOp::Withdraw(p) => {
                unchanged += u64::from(oracle.remove(p).is_none());
                reference.remove(p);
                router.withdraw(p);
            }
        }
        // Publish (and differentially check) every burst — some of these
        // epochs are the first of a freshly compacted arena.
        if (i + 1) % BURST == 0 {
            epochs_checked += 1;
            if compact_at.contains(&epochs_checked) {
                router.start_rebuild();
            }
            let snapshot = router.publish();
            assert_snapshot_matches_oracle(&snapshot, &oracle, &trace);
            assert_published_is_the_working_engine(&snapshot, &reference, &trace);
            match epochs_checked {
                // Nothing to publish: the same snapshot, and the next
                // publish still finds its buffers where it left them.
                7 => assert!(Arc::ptr_eq(&router.publish(), &snapshot)),
                // A hot publish cuts an epoch with no route changed: its
                // copy appends nothing to the log the last one reads. (No
                // traffic sampled, so λ stays where the test put it.)
                9 | 15 => {
                    let hot = router
                        .publish_hot(&HeatMap::new(1, 24, 64), &HotConfig::for_width(32))
                        .0;
                    assert_eq!(hot.epoch(), snapshot.epoch() + 1);
                    assert_snapshot_matches_oracle(&hot, &oracle, &trace);
                    assert_published_is_the_working_engine(&hot, &reference, &trace);
                }
                _ => {}
            }
            assert_eq!(plane.current().epoch(), router.epoch());
        }
    }
    let last = router.publish();
    assert_snapshot_matches_oracle(&last, &oracle, &trace);
    assert_published_is_the_working_engine(&last, &reference, &trace);
    assert_eq!(epochs_checked, 12_000 / BURST);
    let stats = router.stats();
    assert!(unchanged > 0, "the stream re-announces routes");
    assert_eq!((stats.updates, stats.declined), (12_000, 0), "λ = {lambda}");
    assert_eq!(
        (stats.in_place, stats.unchanged),
        (12_000 - unchanged, unchanged),
        "λ = {lambda}: pDAG must absorb every update that changes a route in place"
    );
    // The last publish had nothing left.
    assert_eq!(stats.epochs, 1 + EPOCHS, "λ = {lambda}");
    assert_eq!(
        stats.rebuilds,
        compact_at.len() as u64,
        "λ = {lambda}: the stream never reaches the degradation threshold"
    );
    router
}

#[test]
fn pdag_router_tracks_oracle_through_bgp_churn_and_rebuild() {
    // A compaction before every stream publish: each packs the new
    // engine's records into a log of its own; only the two hot publishes,
    // right after a stream one, extend a log.
    let every: Vec<usize> = (1..=24).collect();
    let stats = pdag_churn_differential(11, &every).stats();
    assert_eq!((stats.compactions, stats.recycled), (24, 2), "{stats:?}");
}

/// The same stream with two compactions, at the default barrier and the
/// ones that bracket it: everything folded (λ = 0: the root itself is a
/// folded node), the root array covering the whole top tree (λ = 8), and
/// nothing folded (λ = 32: a plain trie). A publish packs a new record
/// log at the start, after each compaction and whenever the log is full
/// (four times at λ ≤ 11, never at λ 32); every other one extends the
/// log the one before it read.
#[test]
fn published_copies_are_the_working_engine_at_every_barrier() {
    let counts: Vec<_> = [0, 8, 11, 32]
        .into_iter()
        .map(|lambda| {
            let stats = pdag_churn_differential(lambda, &[6, 13]).stats();
            assert_eq!(stats.recycled + stats.compactions, EPOCHS, "{stats:?}");
            (lambda, stats.compactions, stats.records_written)
        })
        .collect();
    assert_eq!(
        counts,
        [
            (0, 7, 56_109),
            (8, 7, 59_062),
            (11, 7, 60_946),
            (32, 3, 139_158)
        ],
        "(λ, compactions, records written)"
    );
}

/// Bursts published after the held epoch in the isolation tests below.
const LATER_BURSTS: usize = 60;

/// A pDAG router 400 updates into a BGP stream, published there; the
/// snapshot it served then and an oracle cloned at that epoch; the rest
/// of the stream, 60 bursts of 40; and the probes the held snapshot is
/// checked on: both ends of every prefix the stream touches and a uniform
/// trace.
#[allow(clippy::type_complexity)]
fn held_epoch(
    seed: u64,
) -> (
    Router<u32, PrefixDag<u32>>,
    Arc<EpochSnapshot<PrefixDag<u32>>>,
    BinaryTrie<u32>,
    Vec<UpdateOp<u32>>,
    Vec<u32>,
) {
    let base: BinaryTrie<u32> = FibSpec::dfz_like(6_000).generate(&mut rng(seed));
    let mut updates = bgp_sequence(&mut rng(seed + 1), &base, 400 + LATER_BURSTS * 40);
    let later = updates.split_off(400);
    let config = RouterConfig {
        build: BuildConfig::with_lambda(11),
        publish_every: None,
    };
    let mut router: Router<u32, PrefixDag<u32>> = Router::new(base.clone(), config);
    let mut oracle = base;
    for op in &updates {
        match *op {
            UpdateOp::Announce(p, nh) => {
                oracle.insert(p, nh);
                router.announce(p, nh);
            }
            UpdateOp::Withdraw(p) => {
                oracle.remove(p);
                router.withdraw(p);
            }
        }
    }
    let held = router.publish();
    let mut probes = traces::uniform::<u32, _>(&mut rng(seed + 2), 2_000);
    for op in updates.iter().chain(&later) {
        let (UpdateOp::Announce(p, _) | UpdateOp::Withdraw(p)) = *op;
        let host = u32::MAX.checked_shr(u32::from(p.len())).unwrap_or(0);
        probes.extend([p.addr(), p.addr() | host]);
    }
    (router, held, oracle, later, probes)
}

/// Publishes `later` in bursts of 40 and returns how many of those
/// publishes packed a new record log.
fn publish_later(router: &mut Router<u32, PrefixDag<u32>>, later: &[UpdateOp<u32>]) -> u64 {
    let before = router.stats();
    for burst in later.chunks(40) {
        for op in burst {
            match *op {
                UpdateOp::Announce(p, nh) => router.announce(p, nh),
                UpdateOp::Withdraw(p) => router.withdraw(p),
            }
        }
        router.publish();
    }
    let after = router.stats();
    assert_eq!(after.epochs - before.epochs, LATER_BURSTS as u64);
    assert_eq!(after.rebuilds, before.rebuilds, "no rebuild: {after:?}");
    after.compactions - before.compactions
}

/// `snapshot`'s answers on `probes`, batched and one by one, against
/// `oracle`.
fn assert_answers(
    snapshot: &EpochSnapshot<PrefixDag<u32>>,
    oracle: &BinaryTrie<u32>,
    probes: &[u32],
) {
    let mut batched = vec![None; probes.len()];
    snapshot.lookup_batch(probes, &mut batched);
    for (&addr, &got) in probes.iter().zip(&batched) {
        let want = oracle.lookup(addr);
        assert_eq!(got, want, "epoch {} at {addr:#010x}", snapshot.epoch());
        assert_eq!(
            snapshot.lookup(addr),
            want,
            "epoch {} at {addr:#010x}",
            snapshot.epoch()
        );
    }
}

/// A reader holds an old published copy while sixty later publishes
/// append to the record log it reads and at least one of them, finding
/// the log full, packs the live records into a new one: the copy goes on
/// answering exactly for its own epoch, on every prefix the later bursts
/// changed too.
#[test]
fn an_old_copy_answers_its_own_epoch_across_appends_and_a_pack() {
    let (mut router, held, then, later, probes) = held_epoch(61);
    let buffer = |snapshot: &EpochSnapshot<PrefixDag<u32>>| {
        snapshot.engine().expect("owned").view().payload_ptr_range()
    };
    let packs = publish_later(&mut router, &later);
    assert!(packs >= 1, "the log never filled");
    let now = buffer(&router.snapshot());
    assert_ne!(now.start, buffer(&held).start, "a pack moved the records");
    let moved = probes
        .iter()
        .filter(|&&addr| then.lookup(addr) != router.control().lookup(addr))
        .count();
    assert!(moved > 100, "only {moved} probes changed answer since");
    assert_answers(&held, &then, &probes);
    assert_answers(&router.snapshot(), router.control(), &probes);
}

/// The same with the reader on a thread of its own, checking the held
/// copy over and over while the control thread publishes.
#[test]
fn an_old_copy_answers_its_own_epoch_while_a_control_thread_publishes() {
    let (mut router, held, then, later, probes) = held_epoch(71);
    let done = std::sync::atomic::AtomicBool::new(false);
    // Set once the reader has seen `done` false: its first pass then
    // overlaps the publishes, however late the thread starts.
    let started = std::sync::atomic::AtomicBool::new(false);
    let passes = std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let mut passes = 0u64;
            loop {
                // One more pass after the control thread is done.
                let last = done.load(std::sync::atomic::Ordering::Acquire);
                started.store(true, std::sync::atomic::Ordering::Release);
                assert_answers(&held, &then, &probes);
                passes += 1;
                if last {
                    return passes;
                }
            }
        });
        while !started.load(std::sync::atomic::Ordering::Acquire) {
            std::thread::yield_now();
        }
        let packs = publish_later(&mut router, &later);
        done.store(true, std::sync::atomic::Ordering::Release);
        assert!(packs >= 1, "the log never filled");
        reader
            .join()
            .expect("the held copy changed under its reader")
    });
    assert!(passes >= 2, "{passes} passes");
    assert_answers(&router.snapshot(), router.control(), &probes);
}

#[test]
fn static_engine_router_matches_oracle_at_every_publish() {
    // The serialized image has no in-place path: every epoch is a fresh
    // re-emit of the control FIB — the snapshot lifecycle the follow-up
    // papers assume. Smaller feed; each publish costs a full rebuild.
    let base: BinaryTrie<u32> = FibSpec::dfz_like(4_000).generate(&mut rng(4));
    let updates = bgp_sequence(&mut rng(5), &base, 2_000);
    let trace = traces::uniform::<u32, _>(&mut rng(6), 800);

    let config = RouterConfig {
        build: BuildConfig::with_lambda(11),
        publish_every: Some(250),
    };
    let mut router: Router<u32, SerializedDag<u32>> = Router::new(base.clone(), config);
    let mut oracle = base;
    for op in &updates {
        match *op {
            UpdateOp::Announce(p, nh) => {
                oracle.insert(p, nh);
                router.announce(p, nh);
            }
            UpdateOp::Withdraw(p) => {
                oracle.remove(p);
                router.withdraw(p);
            }
        }
    }
    let snapshot = router.publish();
    assert_snapshot_matches_oracle(&snapshot, &oracle, &trace);
    let stats = router.stats();
    assert_eq!(stats.in_place, 0);
    assert!(stats.rebuilds >= 8, "{stats:?}");
}

/// A burst that changes no route — same-hop re-announces and withdraws
/// of prefixes the table does not hold — stops at the control FIB: the
/// static engine is not made stale, so the publish after it rebuilds
/// nothing and serves the snapshot it served. In a burst that does
/// change a route the rebuild covers every update, no-ops included.
#[test]
fn a_burst_that_changes_no_route_rebuilds_no_static_engine() {
    let base: BinaryTrie<u32> = FibSpec::dfz_like(2_000).generate(&mut rng(7));
    let config = RouterConfig {
        build: BuildConfig::with_lambda(11),
        publish_every: None,
    };
    let mut router: Router<u32, SerializedDag<u32>> = Router::new(base.clone(), config);
    let held: Vec<_> = base.iter().step_by(5).collect();
    let absent: Vec<_> = (0..200u32)
        .map(|i| fib_trie::Prefix::new(0xE000_0000 | i << 8, 24))
        .filter(|&p| base.exact_match(p).is_none())
        .collect();
    assert!(!absent.is_empty());
    for &(prefix, hop) in &held {
        router.announce(prefix, hop);
    }
    for &prefix in &absent {
        router.withdraw(prefix);
    }
    let burst = (held.len() + absent.len()) as u64;
    let served = router.snapshot();
    let before = router.stats();
    let snapshot = router.publish();
    let after = router.stats();
    assert_eq!(
        (after.updates, after.unchanged, after.in_place),
        (burst, burst, 0),
        "{after:?}"
    );
    assert_eq!(
        (after.rebuilds, after.declined, after.epochs),
        (before.rebuilds, before.declined, before.epochs),
        "{after:?}"
    );
    assert!(Arc::ptr_eq(&snapshot, &served), "a new epoch");
    let trace = traces::uniform::<u32, _>(&mut rng(8), 800);
    assert_snapshot_matches_oracle(&snapshot, &base, &trace);

    // The same no-ops around one real change: the engine is rebuilt for
    // the change, and every update of the burst counts as declined.
    let (moved, hop) = held[0];
    let mut oracle = base.clone();
    oracle.insert(moved, NextHop::new(hop.index() + 1));
    for &(prefix, hop) in &held[1..] {
        router.announce(prefix, hop);
    }
    router.announce(moved, NextHop::new(hop.index() + 1));
    for &prefix in &absent {
        router.withdraw(prefix);
    }
    let snapshot = router.publish();
    let last = router.stats();
    assert_eq!(
        (last.unchanged, last.declined, last.in_place),
        (burst, burst, 0),
        "{last:?}"
    );
    assert_eq!(
        (last.rebuilds, last.epochs),
        (after.rebuilds + 1, after.epochs + 1),
        "{last:?}"
    );
    assert_snapshot_matches_oracle(&snapshot, &oracle, &trace);
}

// ---------------------------------------------------------------------
// Warm restart: spool, journal replay, and the differential guarantee
// ---------------------------------------------------------------------

fn spool_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("fib-spool-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create spool dir");
    dir
}

/// The tentpole differential test: a router that crashed and warm-restarted
/// must answer exactly like one that never died — both on the snapshot it
/// comes back serving (the last spilled epoch image) and, after one
/// publish, on the full control state including journal-replayed updates.
#[test]
fn warm_restart_answers_identically_to_a_router_that_never_died() {
    let dir = spool_dir("pdag");
    let base: BinaryTrie<u32> = FibSpec::dfz_like(6_000).generate(&mut rng(21));
    let updates = bgp_sequence(&mut rng(22), &base, 3_000);
    let trace = traces::uniform::<u32, _>(&mut rng(23), 1_200);

    let config = RouterConfig {
        build: BuildConfig::with_lambda(11),
        publish_every: None,
    };
    // The reference router lives through everything.
    let mut survivor: Router<u32, PrefixDag<u32>> = Router::new(base.clone(), config);
    // The victim spools, crashes after unpublished updates, and restarts.
    let mut victim: Router<u32, PrefixDag<u32>> = Router::new(base, config);
    let (published_part, journaled_part) = updates.split_at(2_000);
    // Publishes commit the journal; only a fold writes an image. The last
    // record of the published part is the one that crosses the threshold,
    // so the epoch cut there is checkpointed and the journal restarts from
    // it, while the part after it stays journal-only.
    let spool = SpoolConfig {
        journal_fold_bytes: 24 * (published_part.len() as u64 - 1),
        ..SpoolConfig::default()
    };
    victim
        .enable_spool_with(StdFs::shared(), &dir, spool)
        .expect("spool arms");
    assert_eq!(victim.spool_health(), Some(SpoolHealth::Healthy));

    for op in published_part {
        match *op {
            UpdateOp::Announce(p, nh) => {
                survivor.announce(p, nh);
                victim.announce(p, nh);
            }
            UpdateOp::Withdraw(p) => {
                survivor.withdraw(p);
                victim.withdraw(p);
            }
        }
    }
    survivor.publish();
    victim.publish(); // epoch 1, cut and spilled by the fold inside the last update
    let spilled_epoch = victim.epoch();
    assert_eq!(victim.stats().spills, 2, "the base image and one fold");
    for op in journaled_part {
        match *op {
            UpdateOp::Announce(p, nh) => {
                survivor.announce(p, nh);
                victim.announce(p, nh);
            }
            UpdateOp::Withdraw(p) => {
                survivor.withdraw(p);
                victim.withdraw(p);
            }
        }
    }
    // The survivor's *published* snapshot is still the pre-crash epoch;
    // record its answers before anything else happens.
    let survivor_published: Vec<Option<fib_trie::NextHop>> = {
        let snap = survivor.snapshot();
        trace.iter().map(|&a| snap.lookup(a)).collect()
    };
    drop(victim); // crash: the journal tail was never published or spilled

    let restarted: Router<u32, PrefixDag<u32>> =
        Router::warm_restart(&dir, config).expect("warm restart");
    // (a) It comes back serving the last spilled image, zero-copy.
    let snap = restarted.snapshot();
    assert!(snap.is_image_backed(), "restart must serve the image");
    assert_eq!(snap.epoch(), spilled_epoch);
    for (&addr, expected) in trace.iter().zip(&survivor_published) {
        assert_eq!(
            snap.lookup(addr),
            *expected,
            "image-backed snapshot diverges at {addr:#010x}"
        );
    }
    // (b) The journal replay restored every post-spill update into the
    // control FIB.
    assert_eq!(
        restarted.stats().replayed,
        journaled_part.len() as u64,
        "every journaled op must replay"
    );
    let survivor_routes: std::collections::BTreeMap<_, _> = survivor.control().iter().collect();
    let restarted_routes: std::collections::BTreeMap<_, _> = restarted.control().iter().collect();
    assert_eq!(survivor_routes, restarted_routes, "control FIBs diverge");
    // (c) After one publish, the restarted router equals the survivor's
    // fresh publish — the full differential guarantee.
    let mut restarted = restarted;
    let snap_r = restarted.publish();
    assert!(!snap_r.is_image_backed());
    let snap_s = survivor.publish();
    for &addr in &trace {
        assert_eq!(
            snap_r.lookup(addr),
            snap_s.lookup(addr),
            "restarted router diverges at {addr:#010x}"
        );
    }
    // The restart spilled nothing yet beyond what publish just wrote.
    assert_eq!(restarted.spool_health(), Some(SpoolHealth::Healthy));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A corrupted newest image must not take the router down: warm restart
/// falls back to the next-newest valid image (and skips the journal,
/// which no longer bridges the gap).
#[test]
fn warm_restart_skips_corrupt_images() {
    let dir = spool_dir("fallback");
    let base: BinaryTrie<u32> = FibSpec::dfz_like(2_000).generate(&mut rng(31));
    let config = RouterConfig {
        build: BuildConfig::with_lambda(11),
        publish_every: None,
    };
    let mut router: Router<u32, SerializedDag<u32>> = Router::new(base, config);
    // A zero fold threshold checkpoints at every record, so the one update
    // below leaves a second image behind.
    let spool = SpoolConfig {
        journal_fold_bytes: 0,
        ..SpoolConfig::default()
    };
    router
        .enable_spool_with(StdFs::shared(), &dir, spool)
        .expect("spool arms");
    let first_epoch = router.epoch();
    router.announce("203.0.113.0/24".parse().unwrap(), fib_trie::NextHop::new(9));
    router.publish();
    let second_epoch = router.epoch();
    assert!(second_epoch > first_epoch);
    drop(router);

    // Flip one byte in the newest image: its checksum dies.
    let newest = dir.join(format!("epoch-{second_epoch:016x}.img"));
    let mut bytes = std::fs::read(&newest).expect("newest image");
    bytes[200] ^= 0x40;
    std::fs::write(&newest, &bytes).expect("corrupt newest");

    let restarted: Router<u32, SerializedDag<u32>> =
        Router::warm_restart(&dir, config).expect("fallback restart");
    let snap = restarted.snapshot();
    assert!(snap.is_image_backed());
    assert_eq!(snap.epoch(), first_epoch, "fell back to the older image");
    // The fallback serves the *older* forwarding state consistently.
    assert_eq!(
        snap.lookup(0xCB00_7101u32),
        restarted.control().lookup(0xCB00_7101)
    );

    // Regression: after the fallback, the stale journal (stamped with the
    // corrupt image's newer epoch) must be restamped, so updates accepted
    // post-restart survive a SECOND crash instead of being skipped as
    // unbridgeable.
    let mut restarted = restarted;
    restarted.announce(
        "198.51.100.0/24".parse().unwrap(),
        fib_trie::NextHop::new(77),
    );
    drop(restarted);
    let twice: Router<u32, SerializedDag<u32>> =
        Router::warm_restart(&dir, config).expect("second restart");
    assert_eq!(
        twice.stats().replayed,
        1,
        "post-fallback update must replay"
    );
    assert_eq!(
        twice.control().lookup(0xC633_6401u32),
        Some(fib_trie::NextHop::new(77))
    );

    // And with every image gone, restart reports a typed failure.
    let empty = spool_dir("empty");
    assert!(matches!(
        Router::<u32, SerializedDag<u32>>::warm_restart(&empty, config),
        Err(fib_router::RestartError::NoValidImage)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&empty);
}

/// IPv6 churn: the router tracks the oracle through a u128 update feed —
/// the satellite coverage the IPv4-only suite was missing — and what it
/// publishes is its working engine, at the IPv4 default barrier and at
/// one past the root array's reach.
#[test]
fn ipv6_router_tracks_oracle_through_churn() {
    for lambda in [11, 16] {
        ipv6_churn_differential(lambda);
    }
}

fn ipv6_churn_differential(lambda: u8) {
    let mut base: BinaryTrie<u128> = BinaryTrie::new();
    base.insert(
        "::/0".parse::<fib_trie::Prefix6>().unwrap(),
        fib_trie::NextHop::new(1),
    );
    let mut r = rng(41);
    for i in 0..2_000u64 {
        let addr = (0x2001_0db8u128 << 96) | (u128::from(i) << 70);
        base.insert(
            fib_trie::Prefix::new(addr, 48),
            fib_trie::NextHop::new((i % 7) as u32),
        );
    }
    let updates = fib_workload::updates::random_sequence::<u128, _>(&mut r, 3_000, 9);
    let trace = traces::uniform::<u128, _>(&mut rng(42), 800);

    let config = RouterConfig {
        build: BuildConfig::with_lambda(lambda),
        publish_every: None,
    };
    let mut router: Router<u128, PrefixDag<u128>> = Router::new(base.clone(), config);
    let mut reference = PrefixDag::from_trie(&base, lambda);
    let mut oracle = base;
    for (i, op) in updates.iter().enumerate() {
        match *op {
            UpdateOp::Announce(p, nh) => {
                oracle.insert(p, nh);
                reference.insert(p, nh);
                router.announce(p, nh);
            }
            UpdateOp::Withdraw(p) => {
                oracle.remove(p);
                reference.remove(p);
                router.withdraw(p);
            }
        }
        if (i + 1) % 250 == 0 {
            // One compaction halfway: the v6 arena is refolded too.
            if i + 1 == 1_500 {
                router.start_rebuild();
            }
            let snapshot = router.publish();
            assert_published_is_the_working_engine(&snapshot, &reference, &trace);
            let mut out = vec![None; trace.len()];
            snapshot.lookup_batch(&trace, &mut out);
            for (&addr, &got) in trace.iter().zip(&out) {
                assert_eq!(got, oracle.lookup(addr), "IPv6 epoch {}", snapshot.epoch());
            }
        }
    }
    let last = router.publish();
    assert_published_is_the_working_engine(&last, &reference, &trace);
    for &addr in &trace {
        assert_eq!(last.lookup(addr), oracle.lookup(addr), "{addr:#034x}");
    }
    let stats = router.stats();
    assert_eq!((stats.updates, stats.rebuilds), (3_000, 1));
    assert!(stats.recycled > 0, "λ = {lambda}: {stats:?}");
}
