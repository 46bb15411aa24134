//! Spool lifecycle integration: crash-consistent retention, journal
//! folding, health transitions under injected I/O faults, and
//! bit-rot scrubbing — all over the deterministic in-memory [`FaultFs`].

use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use fib_core::PrefixDag;
use fib_router::spoolfs::{FaultFs, SpoolFs};
use fib_router::{scan_spool, Router, RouterConfig, SpoolConfig, SpoolHealth};
use fib_trie::{BinaryTrie, NextHop, Prefix};
use fib_workload::rng::Xoshiro256;
use fib_workload::updates::{bgp_sequence, UpdateOp};
use fib_workload::{traces, FibSpec};

const DIR: &str = "/spool";

fn base(seed: u64, n: usize) -> BinaryTrie<u32> {
    FibSpec::dfz_like(n).generate(&mut Xoshiro256::seed_from_u64(seed))
}

fn updates(seed: u64, fib: &BinaryTrie<u32>, n: usize) -> Vec<UpdateOp<u32>> {
    bgp_sequence(&mut Xoshiro256::seed_from_u64(seed), fib, n)
}

fn apply(router: &mut Router<u32, PrefixDag<u32>>, ops: &[UpdateOp<u32>]) {
    for op in ops {
        match *op {
            UpdateOp::Announce(p, nh) => router.announce(p, nh),
            UpdateOp::Withdraw(p) => router.withdraw(p),
        }
    }
}

fn config() -> RouterConfig {
    RouterConfig {
        publish_every: Some(16),
        ..RouterConfig::default()
    }
}

fn spool_cfg() -> SpoolConfig {
    SpoolConfig {
        keep: 2,
        retry_base: Duration::from_millis(1),
        retry_max: Duration::from_millis(8),
        max_retries: 4,
        ..SpoolConfig::default()
    }
}

#[test]
fn retention_bounds_epoch_images_and_sweeps_tmp_files() {
    let fs = FaultFs::new(11);
    let shared: Arc<dyn SpoolFs> = Arc::new(fs.clone());
    let control = base(1, 300);
    let ops = updates(2, &control, 200);
    let mut router: Router<u32, PrefixDag<u32>> = Router::new(control, config());
    // Images come from folds, not publishes: 40 records per fold puts four
    // of them (and the base image) inside the 200 updates.
    let cfg = SpoolConfig {
        journal_fold_bytes: 24 * 40,
        ..spool_cfg()
    };
    router
        .enable_spool_with(Arc::clone(&shared), DIR, cfg)
        .expect("spool dir");
    apply(&mut router, &ops);
    assert!(router.spool_health().expect("armed").is_healthy());
    assert_eq!(
        router.stats().spills,
        5,
        "a checkpoint per fold, none per publish"
    );

    let status = scan_spool(shared.as_ref(), Path::new(DIR)).expect("scan");
    assert!(
        status.images.len() <= spool_cfg().keep + 1,
        "retention must keep newest + K, found {} images",
        status.images.len()
    );
    assert!(status.journal_bridges, "journal must apply on newest image");
    assert_eq!(status.verdict(), "ok");
    assert!(
        fs.paths()
            .iter()
            .all(|p| p.extension().is_none_or(|e| e != "tmp")),
        "no temp files may survive a spill"
    );
}

#[test]
fn journal_folds_into_a_fresh_image_at_the_size_threshold() {
    let fs = FaultFs::new(12);
    let shared: Arc<dyn SpoolFs> = Arc::new(fs.clone());
    let control = base(3, 300);
    let ops = updates(4, &control, 120);
    let mut router: Router<u32, PrefixDag<u32>> = Router::new(
        control,
        RouterConfig {
            publish_every: None, // folding is the only checkpoint trigger
            ..RouterConfig::default()
        },
    );
    let cfg = SpoolConfig {
        journal_fold_bytes: 24 * 8, // fold after ~8 records
        ..spool_cfg()
    };
    router
        .enable_spool_with(Arc::clone(&shared), DIR, cfg)
        .expect("spool dir");
    apply(&mut router, &ops);

    assert!(router.spool_health().expect("armed").is_healthy());
    assert!(
        router.stats().spills >= 5,
        "fold threshold must force periodic spills: {}",
        router.stats().spills
    );
    let status = scan_spool(shared.as_ref(), Path::new(DIR)).expect("scan");
    assert!(
        status.journal_records <= 9,
        "journal must stay folded, found {} records",
        status.journal_records
    );
    assert_eq!(status.verdict(), "ok");
}

/// Updates that change no route publish no epoch of their own, but they
/// are journaled: a journal of nothing else still folds at the threshold.
#[test]
fn a_journal_of_updates_that_change_no_route_folds_too() {
    let fs = FaultFs::new(13);
    let shared: Arc<dyn SpoolFs> = Arc::new(fs.clone());
    let control = base(3, 300);
    let absent: Vec<_> = (0..40u32)
        .map(|i| Prefix::new(0xE000_0000 | i << 8, 24))
        .filter(|&p| control.exact_match(p).is_none())
        .collect();
    let mut router: Router<u32, PrefixDag<u32>> = Router::new(
        control,
        RouterConfig {
            publish_every: None,
            ..RouterConfig::default()
        },
    );
    let cfg = SpoolConfig {
        journal_fold_bytes: 24 * 8,
        ..spool_cfg()
    };
    router
        .enable_spool_with(Arc::clone(&shared), DIR, cfg)
        .expect("spool dir");
    for &prefix in &absent {
        router.withdraw(prefix);
    }
    let stats = router.stats();
    assert_eq!(stats.unchanged, absent.len() as u64);
    assert!(stats.spills >= 4, "no fold: {stats:?}");
    let status = scan_spool(shared.as_ref(), Path::new(DIR)).expect("scan");
    assert!(status.journal_records <= 9, "{}", status.journal_records);
    assert_eq!(status.verdict(), "ok");
}

#[test]
fn journal_append_failure_degrades_health_and_retry_heals() {
    let fs = FaultFs::new(14);
    let shared: Arc<dyn SpoolFs> = Arc::new(fs.clone());
    let control = base(5, 200);
    let ops = updates(6, &control, 80);
    let mut router: Router<u32, PrefixDag<u32>> = Router::new(control, config());
    router
        .enable_spool_with(Arc::clone(&shared), DIR, spool_cfg())
        .expect("spool dir");
    assert!(router.spool_health().expect("armed").is_healthy());

    // Every op from here fails: the next journaled update must land in
    // Degraded (never a panic, never silently dropped health).
    let gate = fs.op_count();
    fs.reconfigure(|c| c.fail_ops = Some((gate + 1, u64::MAX)));
    router.announce(Prefix::new(0x0A00_0000u32, 8), NextHop::new(99));
    match router.spool_health().expect("armed") {
        SpoolHealth::Degraded { error, .. } => {
            assert!(error.contains("injected"), "error must carry the cause")
        }
        other => panic!("expected Degraded after append failure, got {other}"),
    }
    assert!(!router.spool_health().expect("armed").is_healthy());

    // Fault cleared: the backoff schedule retries a re-spill from inside
    // the normal update path and health returns to Healthy.
    fs.reconfigure(|c| c.fail_ops = None);
    apply(&mut router, &ops);
    assert!(
        router.spool_health().expect("armed").is_healthy(),
        "retry must heal after the fault clears: {:?}",
        router.spool_health()
    );
    assert!(router.stats().spool_recoveries >= 1);

    // The healed spool is fully recoverable once the tail is published
    // (publish is the durability point): reboot the durable state and
    // compare answers against the live control plane.
    router.publish();
    assert!(router.spool_health().expect("armed").is_healthy());
    let boot: Arc<dyn SpoolFs> = Arc::new(fs.durable_clone());
    let recovered =
        Router::<u32, PrefixDag<u32>>::warm_restart_with(boot, DIR, config(), spool_cfg())
            .expect("warm restart");
    let trace = traces::uniform::<u32, _>(&mut Xoshiro256::seed_from_u64(7), 512);
    for &addr in &trace {
        assert_eq!(
            recovered.control().lookup(addr),
            router.control().lookup(addr),
            "recovered FIB diverges at {addr:#010x}"
        );
    }
}

#[test]
fn scrub_quarantines_bit_rot_with_typed_reason_and_respills() {
    let fs = FaultFs::new(15);
    let shared: Arc<dyn SpoolFs> = Arc::new(fs.clone());
    let control = base(8, 300);
    let ops = updates(9, &control, 64);
    let mut router: Router<u32, PrefixDag<u32>> = Router::new(control, config());
    router
        .enable_spool_with(Arc::clone(&shared), DIR, spool_cfg())
        .expect("spool dir");
    apply(&mut router, &ops);

    let before = scan_spool(shared.as_ref(), Path::new(DIR)).expect("scan");
    let newest = before.images.first().expect("at least one image");
    // Cosmic ray: one bit deep inside the newest image's payload.
    assert!(fs.flip_bit(&newest.path, (newest.bytes / 2) * 8 + 3));

    let moved = router.scrub_spool();
    assert_eq!(moved, 1, "exactly the rotted image is quarantined");
    assert_eq!(router.stats().quarantined, 1);

    let after = scan_spool(shared.as_ref(), Path::new(DIR)).expect("scan");
    assert_eq!(after.quarantined, 1);
    assert!(
        !after.quarantine_reasons.is_empty(),
        "quarantine must carry a typed reason file"
    );
    // The scrub re-spilled the current epoch, so the spool still serves
    // a warm restart.
    assert_eq!(after.verdict(), "ok");
    let boot: Arc<dyn SpoolFs> = Arc::new(fs.durable_clone());
    Router::<u32, PrefixDag<u32>>::warm_restart_with(boot, DIR, config(), spool_cfg())
        .expect("warm restart after scrub");
}

#[test]
fn enospc_exhausts_retries_into_suspended_then_resume_heals() {
    let fs = FaultFs::new(16);
    let shared: Arc<dyn SpoolFs> = Arc::new(fs.clone());
    let control = base(10, 200);
    let ops = updates(11, &control, 120);
    let mut router: Router<u32, PrefixDag<u32>> = Router::new(control, config());
    router
        .enable_spool_with(Arc::clone(&shared), DIR, spool_cfg())
        .expect("spool dir");
    assert!(router.spool_health().expect("armed").is_healthy());

    // The disk fills for good; the retry budget must exhaust into
    // Suspended (no infinite retry storm) while forwarding continues.
    fs.reconfigure(|c| c.enospc_after_bytes = Some(0));
    apply(&mut router, &ops);
    assert!(
        matches!(router.spool_health(), Some(SpoolHealth::Suspended { .. })),
        "expected Suspended, got {:?}",
        router.spool_health()
    );

    // Operator frees space and resumes: one call re-spills and heals.
    fs.reconfigure(|c| c.enospc_after_bytes = None);
    assert_eq!(router.resume_spool(), Some(SpoolHealth::Healthy));
    assert!(router.stats().spool_recoveries >= 1);
    let status = scan_spool(shared.as_ref(), Path::new(DIR)).expect("scan");
    assert_eq!(status.verdict(), "ok");
}
