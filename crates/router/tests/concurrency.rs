//! Concurrent churn: forwarding threads serve lookups off wait-free
//! [`fib_router::DataPlane`] readers while the control plane absorbs a
//! BGP feed, publishes epochs, compacts its engine mid-feed, and finally
//! dies and warm-restarts — asserting that no reader ever observes a torn
//! snapshot:
//!
//! * **generation/epoch monotonicity** — a reader never sees an older
//!   epoch after a newer one;
//! * **oracle agreement** — every lookup a reader performs matches the
//!   control-plane oracle *as of the epoch the reader was served*, so a
//!   snapshot can never mix routes from two epochs;
//! * **a publish writes nothing a reader can reach** — a snapshot some
//!   reader still pins keeps answering for its epoch while later
//!   publishes append to, or repack, the record log it reads.
//!
//! A fleet is served by the same forwarding loop as a table:
//! [`fib_router::Forwarder::run`] over a [`VrfSetRouter`]'s snapshots
//! while its control thread publishes announce bursts.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::SeqCst};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use fib_core::{BuildConfig, PrefixDag, SerializedDag, VrfBatchScratch, VrfPolicy};
use fib_router::{
    Forwarder, ForwarderConfig, PacingMode, Router, RouterConfig, Serve, SnapCell, VrfSetRouter,
};
use fib_trie::BinaryTrie;
use fib_workload::rng::{Rng, Xoshiro256};
use fib_workload::updates::{bgp_sequence, UpdateOp};
use fib_workload::FibSpec;

fn rng(seed: u64) -> Xoshiro256 {
    Xoshiro256::seed_from_u64(seed)
}

/// Oracle states keyed by epoch: the writer records `control.clone()`
/// *before* publishing that epoch, so any reader that sees epoch `e` is
/// guaranteed to find `oracle[e]` present (the map insert
/// happens-before the snapshot publication).
type EpochOracles = Arc<Mutex<HashMap<u64, BinaryTrie<u32>>>>;

fn reader_thread<E>(
    mut plane: fib_router::DataPlane<E>,
    oracles: EpochOracles,
    stop: Arc<AtomicBool>,
    seed: u64,
) -> std::thread::JoinHandle<(u64, u64)>
where
    E: fib_core::ImageCodec<u32> + Send + Sync + 'static,
{
    std::thread::spawn(move || {
        let mut r = rng(seed);
        let mut last_epoch = 0u64;
        let mut checked = 0u64;
        let mut epochs_seen = 0u64;
        let mut addrs = [0u32; 32];
        let mut out = [None; 32];
        while !stop.load(SeqCst) {
            let snap = std::sync::Arc::clone(plane.current());
            let epoch = snap.epoch();
            assert!(
                epoch >= last_epoch,
                "torn publication order: epoch {epoch} after {last_epoch}"
            );
            if epoch != last_epoch {
                epochs_seen += 1;
            }
            last_epoch = epoch;
            for slot in &mut addrs {
                *slot = r.random::<u32>();
            }
            snap.lookup_stream(&addrs, &mut out);
            // Compare against the oracle for *this* epoch. The map is a
            // test fixture; the lock is on the checker, not the router.
            let oracles = oracles.lock().unwrap();
            let oracle = oracles
                .get(&epoch)
                .unwrap_or_else(|| panic!("reader saw unpublished epoch {epoch}"));
            for (&addr, &got) in addrs.iter().zip(&out) {
                assert_eq!(
                    got,
                    oracle.lookup(addr),
                    "epoch {epoch} snapshot diverges at {addr:#010x}"
                );
                checked += 1;
            }
        }
        (checked, epochs_seen)
    })
}

#[test]
fn forwarding_threads_never_observe_torn_snapshots_under_churn() {
    let base: BinaryTrie<u32> = FibSpec::dfz_like(8_000).generate(&mut rng(1));
    let updates = bgp_sequence(&mut rng(2), &base, 8_000);

    let config = RouterConfig {
        build: BuildConfig::with_lambda(11),
        publish_every: None,
    };
    let mut router: Router<u32, PrefixDag<u32>> = Router::new(base.clone(), config);

    let oracles: EpochOracles = Arc::new(Mutex::new(HashMap::new()));
    oracles.lock().unwrap().insert(0, base.clone());
    let stop = Arc::new(AtomicBool::new(false));

    let readers: Vec<_> = (0..2)
        .map(|i| {
            reader_thread(
                router.data_plane(),
                Arc::clone(&oracles),
                Arc::clone(&stop),
                100 + i,
            )
        })
        .collect();

    let mut oracle = base;
    for (i, op) in updates.iter().enumerate() {
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
        // Compact mid-feed, mid-burst, beside the two readers: the next
        // epochs come from a fresh arena.
        if i == 3_250 {
            router.start_rebuild();
        }
        if i % 500 == 499 {
            // Record the oracle for the epoch about to be cut, then
            // publish it. Readers move over at their own pace.
            oracles
                .lock()
                .unwrap()
                .insert(router.epoch() + 1, oracle.clone());
            router.publish();
        }
    }
    oracles
        .lock()
        .unwrap()
        .insert(router.epoch() + 1, oracle.clone());
    router.publish();
    assert!(router.stats().rebuilds >= 1, "no compaction ran");

    // Let the readers chew on the final epoch too.
    std::thread::sleep(std::time::Duration::from_millis(30));
    stop.store(true, SeqCst);
    let mut total_checked = 0;
    for handle in readers {
        let (checked, epochs_seen) = handle.join().expect("reader panicked");
        assert!(checked > 0, "reader did no work");
        assert!(epochs_seen > 0, "reader never saw a publish");
        total_checked += checked;
    }
    assert!(total_checked > 1_000, "suspiciously little verification");
}

/// One reader stops refreshing and sits on its snapshot while the router
/// publishes ten more epochs beside a second reader that keeps up. The
/// publishes after it append to the record log the pinned snapshot reads
/// — past the records it reads, which are never written again — and one
/// packs the records into a new log, leaving the pinned one's alone: it
/// answers for its own epoch to the end.
#[test]
fn a_pinned_snapshot_is_never_recycled_under_its_reader() {
    const PINNED: u64 = 2;
    const PUBLISHES: u64 = 12;
    let base: BinaryTrie<u32> = FibSpec::dfz_like(8_000).generate(&mut rng(11));
    let updates = bgp_sequence(&mut rng(12), &base, PUBLISHES as usize * 50);
    let config = RouterConfig {
        build: BuildConfig::with_lambda(11),
        publish_every: None,
    };
    let mut router: Router<u32, PrefixDag<u32>> = Router::new(base.clone(), config);
    let mut pinning = router.data_plane();
    let mut refreshing = router.data_plane();
    let mut oracle = base;
    let mut pinned = None;
    for burst in updates.chunks(50) {
        for op in burst {
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
        router.publish();
        assert_eq!(refreshing.current().epoch(), router.epoch());
        if router.epoch() == PINNED {
            // Its last refresh: from here on it reads what it holds.
            pinned = Some((Arc::clone(pinning.current()), oracle.clone()));
        }
    }
    assert_eq!(router.epoch(), PUBLISHES);
    let stats = router.stats();
    assert_eq!(stats.rebuilds, 0, "one arena throughout: {stats:?}");
    // The first publish packed a log, and so did the one that found it
    // full; every other one extended the log the one before it read.
    assert_eq!(
        (stats.compactions, stats.recycled),
        (2, PUBLISHES - 2),
        "{stats:?}"
    );

    let (snapshot, oracle_then) = pinned.expect("the pinned epoch was published");
    assert_eq!(snapshot.epoch(), PINNED);
    const { assert!(PUBLISHES - PINNED >= 8) };
    let mut r = rng(13);
    let mut differs = 0;
    for _ in 0..4_096 {
        // Half the probes where the later epochs changed something.
        let addr = match updates[r.random::<u32>() as usize % updates.len()] {
            UpdateOp::Announce(p, _) | UpdateOp::Withdraw(p) if r.random::<u32>() % 2 == 0 => {
                p.addr()
            }
            _ => r.random::<u32>(),
        };
        assert_eq!(
            snapshot.lookup(addr),
            oracle_then.lookup(addr),
            "the pinned epoch changed under its reader at {addr:#010x}"
        );
        differs += u32::from(oracle_then.lookup(addr) != oracle.lookup(addr));
    }
    assert!(differs > 0, "the later epochs changed none of the probes");
}

/// The fleet retires through the same publish core: a set one reader
/// pins answers for its own epoch through ten more publishes, and the
/// router lets go of it.
#[test]
fn a_pinned_fleet_snapshot_stays_intact_after_the_router_lets_go() {
    const VRFS: u32 = 4;
    const PINNED: u64 = 2;
    const PUBLISHES: u64 = 12;
    let base: BinaryTrie<u32> = FibSpec::dfz_like(2_000).generate(&mut rng(21));
    let updates = bgp_sequence(&mut rng(22), &base, PUBLISHES as usize * 50);
    let mut router = VrfSetRouter::new(BuildConfig::with_lambda(11), VrfPolicy::Shared);
    for vrf in 0..VRFS {
        router.insert_vrf(vrf, base.clone());
    }
    let mut pinning = router.reader();
    let mut refreshing = router.reader();
    let mut pinned = None;
    for (round, burst) in updates.chunks(50).enumerate() {
        for (i, op) in burst.iter().enumerate() {
            let vrf = (round + i) as u32 % VRFS;
            match *op {
                UpdateOp::Announce(p, nh) => {
                    router.announce(vrf, p, nh);
                }
                UpdateOp::Withdraw(p) => {
                    router.withdraw(vrf, p);
                }
            }
        }
        router.publish();
        assert_eq!(refreshing.snapshot().epoch(), router.epoch());
        if router.epoch() == PINNED {
            // Its last refresh: from here on it reads what it holds.
            let oracles: Vec<BinaryTrie<u32>> = (0..VRFS)
                .map(|vrf| router.oracle(vrf).expect("inserted").clone())
                .collect();
            pinned = Some((Arc::clone(pinning.snapshot()), oracles));
        }
    }
    assert_eq!(router.epoch(), PUBLISHES);
    drop(pinning);

    let (snapshot, oracles_then) = pinned.expect("the pinned epoch was published");
    assert_eq!(snapshot.epoch(), PINNED);
    assert_eq!(Arc::strong_count(&snapshot), 1, "the router still holds it");
    let mut r = rng(23);
    let mut differs = 0;
    for _ in 0..4_096 {
        let vrf = r.random::<u32>() % VRFS;
        let addr = match updates[r.random::<u32>() as usize % updates.len()] {
            UpdateOp::Announce(p, _) | UpdateOp::Withdraw(p) if r.random::<u32>() % 2 == 0 => {
                p.addr()
            }
            _ => r.random::<u32>(),
        };
        let then = oracles_then[vrf as usize].lookup(addr);
        assert_eq!(
            snapshot.lookup(vrf, addr),
            then,
            "the pinned set changed under its reader: vrf {vrf} at {addr:#010x}"
        );
        differs += u32::from(then != router.oracle(vrf).expect("inserted").lookup(addr));
    }
    assert!(differs > 0, "the later epochs changed none of the probes");
}

/// Forwarding workers serve a fleet through `Forwarder::run` while the
/// control thread announces bursts into one VRF at a time and publishes
/// each: no worker sees an epoch go backwards, every one picks up new
/// epochs, and the last set answers as every VRF's oracle does.
#[test]
fn forwarding_workers_serve_a_fleet_through_announce_bursts() {
    const VRFS: u32 = 4;
    const THREADS: usize = 2;
    let base: BinaryTrie<u32> = FibSpec::dfz_like(2_000).generate(&mut rng(31));
    let announces: Vec<_> = (bgp_sequence(&mut rng(32), &base, 2_000).into_iter())
        .filter_map(|op| match op {
            UpdateOp::Announce(p, nh) => Some((p, nh)),
            UpdateOp::Withdraw(_) => None,
        })
        .collect();
    let mut router = VrfSetRouter::new(BuildConfig::with_lambda(11), VrfPolicy::Shared);
    for vrf in 0..VRFS {
        router.insert_vrf(vrf, base.clone());
    }
    // The control thread holds the router mutably, so it cannot lend the
    // router's own cell to the pool: it publishes each set into this one
    // as well.
    let cell = SnapCell::new(router.publish());
    let pool = Forwarder::new();
    let config = ForwarderConfig {
        threads: THREADS,
        batch: 64,
        duration: Duration::from_secs(60),
        pacing: PacingMode::Closed,
    };
    // Batches each worker has drawn keys for.
    let fills: Vec<AtomicUsize> = (0..THREADS).map(|_| AtomicUsize::new(0)).collect();
    let wait_for_fills_past = |counts: Vec<usize>| {
        for (fill, count) in fills.iter().zip(counts) {
            while fill.load(SeqCst) <= count {
                std::thread::yield_now();
            }
        }
    };
    let reports = std::thread::scope(|scope| {
        let control = scope.spawn(|| {
            // Every worker is serving (and `run` has armed its stop flag)
            // before the first burst.
            wait_for_fills_past(vec![0; THREADS]);
            for (round, burst) in announces.chunks(50).enumerate() {
                for &(prefix, hop) in burst {
                    router.announce(round as u32 % VRFS, prefix, hop);
                }
                cell.publish(router.publish());
            }
            // A batch drawn after the last publish checks the generation
            // after it: every worker has seen a refresh before it stops.
            wait_for_fills_past(fills.iter().map(|f| f.load(SeqCst)).collect());
            pool.stop();
        });
        let reports = pool.run(&cell, &config, |worker| {
            let (mut r, fill) = (rng(40 + worker as u64), &fills[worker]);
            move |buf: &mut Vec<(u32, u32)>, n: usize| {
                buf.clear();
                buf.extend((0..n).map(|_| (r.random::<u32>() % VRFS, r.random::<u32>())));
                fill.fetch_add(1, SeqCst);
            }
        });
        control.join().expect("control thread panicked");
        reports
    });
    let publishes = announces.len().div_ceil(50) as u64 + 1;
    assert_eq!(router.epoch(), publishes);
    for r in &reports {
        assert!(!r.epoch_regressed, "worker {} went back an epoch", r.worker);
        assert!(r.refreshes > 0, "worker {} never saw a publish", r.worker);
        assert!(r.last_epoch <= publishes, "worker {}", r.worker);
    }

    // A final pass through the call every worker makes.
    let snapshot = router.snap_cell().load();
    assert_eq!(snapshot.epoch(), publishes);
    let mut r = rng(33);
    let keys: Vec<(u32, u32)> = (0..4_096)
        .map(|_| (r.random::<u32>() % VRFS, r.random::<u32>()))
        .collect();
    let mut out = vec![None; keys.len()];
    snapshot.serve(&keys, &mut out, &mut VrfBatchScratch::new());
    for (&(vrf, addr), got) in keys.iter().zip(&out) {
        let oracle = router.oracle(vrf).expect("inserted");
        assert_eq!(*got, oracle.lookup(addr), "vrf {vrf} at {addr:#010x}");
    }
}

#[test]
fn forwarding_threads_survive_a_warm_restart_cycle() {
    let dir = std::env::temp_dir().join(format!("fib-spool-conc-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create spool dir");

    let base: BinaryTrie<u32> = FibSpec::dfz_like(3_000).generate(&mut rng(7));
    let config = RouterConfig {
        publish_every: None,
        ..RouterConfig::default()
    };

    // Phase 1: a spooling router serves readers, absorbs updates, dies.
    let expected_final: BinaryTrie<u32> = {
        let mut victim: Router<u32, SerializedDag<u32>> = Router::new(base.clone(), config);
        victim.enable_spool(&dir).expect("spool arms");
        let oracles: EpochOracles = Arc::new(Mutex::new(HashMap::new()));
        oracles.lock().unwrap().insert(victim.epoch(), base.clone());
        let stop = Arc::new(AtomicBool::new(false));
        let reader = reader_thread(
            victim.data_plane(),
            Arc::clone(&oracles),
            Arc::clone(&stop),
            1000,
        );
        let mut oracle = base.clone();
        for op in bgp_sequence(&mut rng(8), &base, 1_500) {
            match op {
                UpdateOp::Announce(p, nh) => {
                    oracle.insert(p, nh);
                    victim.announce(p, nh);
                }
                UpdateOp::Withdraw(p) => {
                    oracle.remove(p);
                    victim.withdraw(p);
                }
            }
        }
        oracles
            .lock()
            .unwrap()
            .insert(victim.epoch() + 1, oracle.clone());
        victim.publish();
        std::thread::sleep(std::time::Duration::from_millis(10));
        stop.store(true, SeqCst);
        let (checked, _) = reader.join().expect("reader panicked");
        assert!(checked > 0);
        oracle
        // victim dropped here: crash.
    };

    // Phase 2: warm restart. The image on disk is the base spill — the
    // victim's publish committed its journal, it did not checkpoint — so
    // fresh readers serve that image, zero-copy, at once, while the
    // replayed journal waits in the control FIB; the first publish brings
    // them to the pre-crash state.
    let mut restarted: Router<u32, SerializedDag<u32>> =
        Router::warm_restart(&dir, config).expect("restart comes up");
    assert!(restarted.snapshot().is_image_backed());
    assert_eq!(restarted.stats().replayed, 1_500);
    let restart_epoch = restarted.epoch();

    let oracles: EpochOracles = Arc::new(Mutex::new(HashMap::new()));
    oracles.lock().unwrap().insert(restart_epoch, base);
    oracles
        .lock()
        .unwrap()
        .insert(restart_epoch + 1, expected_final);
    let stop = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..2)
        .map(|i| {
            reader_thread(
                restarted.data_plane(),
                Arc::clone(&oracles),
                Arc::clone(&stop),
                2000 + i,
            )
        })
        .collect();
    std::thread::sleep(std::time::Duration::from_millis(25));
    assert_eq!(restarted.publish().epoch(), restart_epoch + 1);
    std::thread::sleep(std::time::Duration::from_millis(25));
    stop.store(true, SeqCst);
    for handle in readers {
        let (checked, _) = handle.join().expect("post-restart reader panicked");
        assert!(checked > 0, "post-restart reader did no work");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
