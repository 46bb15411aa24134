//! Exhaustive crash-point enumeration of the spool persistence
//! protocol, plus the mutation-kill pass over the seeded protocol bugs.
//!
//! `FIB_FAULT_SEED` (default 1) varies the workload + tear randomness;
//! `FIB_FAULT_MODE` (`drop` | `keep` | `torn`, default `drop`) picks the
//! unsynced-tail semantics — CI sweeps the matrix.

use fib_check::crash::{
    double_crash_probe, replay_guard_probe, rotted_record, run_churn, sweep, sweep_spool_config,
    verify_recovery, CrashScript, JournalDamage,
};
use fib_router::spoolfs::{FaultConfig, TailPolicy};
use fib_router::{SpoolConfig, SpoolHealth, SpoolMutant};

fn env_seed() -> u64 {
    std::env::var("FIB_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1)
}

fn env_tail() -> TailPolicy {
    match std::env::var("FIB_FAULT_MODE").as_deref() {
        Ok("keep") => TailPolicy::Keep,
        Ok("torn") => TailPolicy::Torn,
        _ => TailPolicy::Drop,
    }
}

/// Long enough that, at one sync per publish and one image per journal
/// fold, the sweep still sees ≥ 200 distinct durable states under the
/// `drop` policy (where unsynced appends change nothing durable).
fn script() -> CrashScript {
    CrashScript::new(env_seed(), 250, 480)
}

#[test]
fn every_crash_point_recovers_an_oracle_consistent_fib() {
    let script = script();
    let report = sweep(&script, env_seed(), env_tail(), SpoolMutant::None);
    assert!(
        report.violations.is_empty(),
        "oracle divergences at crash points: {:?}",
        report.violations
    );
    assert!(
        report.crash_points >= 200,
        "workload too small to be exhaustive: {} ops",
        report.crash_points
    );
    assert!(
        report.distinct_states >= 200,
        "only {} distinct durable crash states (need ≥ 200)",
        report.distinct_states
    );
}

#[test]
fn torn_tails_never_reach_the_control_fib() {
    // Regardless of the env-selected mode, the torn-tail policy (random
    // partial survival + seeded bit flips in unsynced spans) must also
    // be clean: the per-record journal checksum and the image lint are
    // what stand between a half-written sector and the FIB.
    let script = script();
    let report = sweep(
        &script,
        env_seed() ^ 0xD15C,
        TailPolicy::Torn,
        SpoolMutant::None,
    );
    assert!(
        report.violations.is_empty(),
        "torn-tail divergences: {:?}",
        report.violations
    );
}

/// Each seeded protocol mutant must be caught by the same sweep that
/// passes clean on the correct protocol — otherwise the harness is too
/// weak to defend the invariant it claims to check.
fn assert_mutant_caught(mutant: SpoolMutant, tail: TailPolicy) {
    let script = script();
    let report = sweep(&script, env_seed(), tail, mutant);
    assert!(
        !report.violations.is_empty(),
        "{mutant:?} survived {} crash points undetected",
        report.crash_points
    );
}

#[test]
fn mutant_skip_fsync_is_caught() {
    assert_mutant_caught(SpoolMutant::SkipFsync, TailPolicy::Drop);
}

#[test]
fn mutant_rename_before_sync_is_caught() {
    assert_mutant_caught(SpoolMutant::RenameBeforeSync, TailPolicy::Drop);
}

#[test]
fn mutant_ack_before_sync_is_caught() {
    assert_mutant_caught(SpoolMutant::AckBeforeSync, TailPolicy::Drop);
}

#[test]
fn mutant_replay_past_tail_is_caught() {
    let script = script();
    // Guard: the correct protocol tolerates a bit-rotted tail record —
    // the per-record checksum stops replay there, recovering exactly the
    // acknowledged state.
    replay_guard_probe(&script, env_seed(), sweep_spool_config(SpoolMutant::None))
        .expect("checksum guard must stop replay at the rotted record");
    // The mutant applies the garbage and serves a FIB matching no
    // oracle state.
    let verdict = replay_guard_probe(
        &script,
        env_seed(),
        sweep_spool_config(SpoolMutant::ReplayPastTail),
    );
    assert!(
        verdict.is_err(),
        "ReplayPastTail survived the rotted-tail probe"
    );
}

#[test]
fn a_second_crash_keeps_what_was_published_after_a_torn_tail_restart() {
    let script = script();
    let spool = sweep_spool_config(SpoolMutant::None);
    // A partial record mis-frames everything appended behind it; a whole
    // bit-rotted one is where the next replay would stop; a torn header
    // hides the whole file.
    let rotted = rotted_record();
    for damage in [
        JournalDamage::Tail(&rotted[..10]),
        JournalDamage::Tail(&rotted),
        JournalDamage::Header,
    ] {
        double_crash_probe(&script, env_seed(), spool, damage).unwrap_or_else(|v| {
            panic!("{damage:?}: what life two published must survive its crash: {v}")
        });
    }
}

#[test]
fn transient_write_failure_degrades_then_recovers_with_respill() {
    let script = script();
    // Fail a window of operations early in the workload: the spool must
    // degrade (not die), back off, re-spill the newest epoch once the
    // window passes, and report Healthy again — with the recovery
    // counted. Degraded retries consume roughly one filesystem op each,
    // so the retry budget must outlast the op-indexed outage window.
    let spool = SpoolConfig {
        max_retries: 8,
        ..sweep_spool_config(SpoolMutant::None)
    };
    // The base spill is ops 1–9; from op 10 on, every four appends are
    // followed by their publish's commit sync, and the 25th append (op 40)
    // crosses the fold threshold, so ops 41–48 are the fold's image
    // (create, write, sync, rename), journal reset (create, write, sync)
    // and retention scan. A 4-op outage starting at each of ops 30–50
    // therefore opens on an append, on a commit sync, and on every step
    // of a fold.
    for start in 30..=50 {
        let run = run_churn(
            &script,
            env_seed(),
            FaultConfig {
                fail_ops: Some((start, start + 4)),
                ..FaultConfig::default()
            },
            spool,
        );
        assert!(
            run.served_final_ok,
            "forwarding must ride through the outage at op {start}"
        );
        // The workload runs long past the outage, so the spool must have
        // recovered and re-acked updates near the end.
        let acked = run.acked.expect("spool recovered and acked updates");
        assert!(
            acked > script.updates.len() / 2,
            "ack floor {acked} stuck before the outage window at op {start}"
        );
        // And the recovered-on-reboot state honours that floor.
        verify_recovery(&script, &run, spool).unwrap_or_else(|v| {
            panic!("outage at op {start}: post-recovery crash state below the ack floor: {v}")
        });
    }
}

#[test]
fn an_outage_then_a_crash_recovers_an_oracle_state() {
    let script = script();
    let spool = sweep_spool_config(SpoolMutant::None);
    // One failed op degrades the spool, and whatever update it was
    // journaling never reaches the journal; the retry re-spills a newer
    // image, and the journal left beside it may still be stamped with
    // the older epoch. A crash 1–8 ops after the outage lands inside that
    // re-spill (create, write, sync, rename, journal reset) or just past
    // it. A restart that replayed the older journal over the newer image
    // would revert what the unjournaled update changed.
    let mut violations = Vec::new();
    for outage in 10..=200u64 {
        for delay in 1..=8 {
            let run = run_churn(
                &script,
                env_seed(),
                FaultConfig {
                    fail_ops: Some((outage, outage + 1)),
                    crash_at_op: Some(outage + delay),
                    tail: env_tail(),
                    ..FaultConfig::default()
                },
                spool,
            );
            if let Err(v) = verify_recovery(&script, &run, spool) {
                violations.push(format!(
                    "outage at op {outage}, crash at op {}: {v}",
                    outage + delay
                ));
            }
        }
    }
    assert!(
        violations.is_empty(),
        "{} runs: {violations:#?}",
        violations.len()
    );
}

/// Bytes `enable_spool` puts on disk for the script's base FIB (the base
/// image plus the journal header), so a disk budget can be stated as
/// "the base spill and this many journal records".
fn base_spill_bytes(script: &CrashScript) -> u64 {
    use fib_router::spoolfs::SpoolFs;
    let base_only = CrashScript {
        base: script.base.clone(),
        updates: Vec::new(),
        trace: script.trace.clone(),
        fingerprints: script.fingerprints[..1].to_vec(),
    };
    let spool = sweep_spool_config(SpoolMutant::None);
    let fs = run_churn(&base_only, env_seed(), FaultConfig::default(), spool).fs;
    fs.paths()
        .iter()
        .map(|p| fs.file_len(p).expect("listed file"))
        .sum()
}

#[test]
fn enospc_suspends_after_retries_and_full_state_still_recovers() {
    let script = script();
    let spool = sweep_spool_config(SpoolMutant::None);
    let base = base_spill_bytes(&script);
    // The disk fills for good: inside an append (ten records past the base
    // spill: two publishes were acknowledged), inside the first fold's
    // image write (a whole 24-record journal fits, the ~10 KB image does
    // not), and a few folds in (64 KiB: the base image and four more).
    for (budget, floor) in [(base + 10 * 24, 8), (base + 40 * 24, 24), (64 * 1024, 24)] {
        let run = run_churn(
            &script,
            env_seed(),
            FaultConfig {
                enospc_after_bytes: Some(budget),
                ..FaultConfig::default()
            },
            spool,
        );
        assert!(run.served_final_ok, "forwarding must outlive a full disk");
        assert!(
            run.acked.is_some_and(|acked| acked >= floor),
            "disk of {budget} B: ack floor {:?} below {floor}",
            run.acked
        );
        verify_recovery(&script, &run, spool)
            .expect("durable prefix must stay recoverable after ENOSPC");
    }
}

#[test]
fn suspended_spool_resumes_to_healthy_after_operator_clears_fault() {
    use fib_core::PrefixDag;
    use fib_router::spoolfs::{FaultFs, SpoolFs};
    use fib_router::{Router, RouterConfig};
    use std::sync::Arc;

    let script = script();
    // Room for the base spill and one journal generation, not for the
    // image the first fold (at the 25th record) wants to write.
    let fs = FaultFs::with_config(
        7,
        FaultConfig {
            enospc_after_bytes: Some(base_spill_bytes(&script) + 30 * 24),
            ..FaultConfig::default()
        },
    );
    let shared: Arc<dyn SpoolFs> = Arc::new(fs.clone());
    let mut router: Router<u32, PrefixDag<u32>> = Router::new(
        script.base.clone(),
        RouterConfig {
            publish_every: Some(20),
            ..RouterConfig::default()
        },
    );
    router
        .enable_spool_with(shared, "/spool", sweep_spool_config(SpoolMutant::None))
        .expect("spool dir");
    for op in &script.updates {
        match *op {
            fib_workload::updates::UpdateOp::Announce(p, nh) => router.announce(p, nh),
            fib_workload::updates::UpdateOp::Withdraw(p) => router.withdraw(p),
        }
    }
    assert!(
        matches!(router.spool_health(), Some(SpoolHealth::Suspended { .. })),
        "retry budget must exhaust against a permanently full disk: {:?}",
        router.spool_health()
    );
    // Operator frees the disk and resumes: one call re-spills the
    // current state and the spool is healthy again.
    fs.reconfigure(|c| c.enospc_after_bytes = None);
    let health = router.resume_spool().expect("spool armed");
    assert_eq!(
        health,
        SpoolHealth::Healthy,
        "resume must re-spill and heal"
    );
    assert!(router.stats().spool_recoveries >= 1);
}

/// The same-epoch re-spill probe. With no publish since the base image,
/// a degraded spool's recovery re-spill would replace that image under
/// its own epoch; a crash at the re-spill's journal reset then left the
/// old journal matching the new image, and replay reverted what the
/// unjournaled update changed — P→2 beside Q→4, a FIB that never existed.
/// The re-spill lands under a fresh epoch, so the old journal applies to
/// no image that holds more than it.
#[test]
fn a_respill_after_no_publish_lands_under_a_fresh_epoch() {
    use fib_core::PrefixDag;
    use fib_router::spoolfs::{FaultFs, SpoolFs};
    use fib_router::{Router, RouterConfig};
    use fib_trie::{BinaryTrie, NextHop, Prefix};
    use std::sync::Arc;

    let nh = NextHop::new;
    let prefix = |s: &str| -> Prefix<u32> { s.parse().expect("a prefix") };
    let (p, q) = (prefix("10.1.0.0/16"), prefix("10.2.0.0/16"));
    let mut base = BinaryTrie::new();
    base.insert(prefix("0.0.0.0/0"), nh(1));
    let fs = FaultFs::with_config(
        env_seed(),
        FaultConfig {
            tail: TailPolicy::Keep,
            ..FaultConfig::default()
        },
    );
    let shared: Arc<dyn SpoolFs> = Arc::new(fs.clone());
    let config = RouterConfig {
        publish_every: None,
        ..RouterConfig::default()
    };
    let spool = sweep_spool_config(SpoolMutant::None);
    let mut router: Router<u32, PrefixDag<u32>> = Router::new(base.clone(), config);
    router
        .enable_spool_with(shared, "/spool", spool)
        .expect("spool dir");
    assert_eq!(router.epoch(), 0, "armed at epoch 0");

    // P→2 is journaled; the append of P→3 fails, so P→3 is in no journal.
    router.announce(p, nh(2));
    let next = fs.op_count() + 1;
    fs.reconfigure(|c| c.fail_ops = Some((next, next + 1)));
    router.announce(p, nh(3));
    assert!(router.spool_health().is_some_and(|h| !h.is_healthy()));
    // Q→4's append finds the retry due and re-spills: image create,
    // write, sync and rename, then the journal reset — crash at its start.
    let reset = fs.op_count() + 5;
    fs.reconfigure(|c| c.crash_at_op = Some(reset));
    router.announce(q, nh(4));
    assert!(fs.crashed(), "the re-spill reached its journal reset");

    let boot: Arc<dyn SpoolFs> = Arc::new(fs.durable_clone());
    let recovered = Router::<u32, PrefixDag<u32>>::warm_restart_with(boot, "/spool", config, spool)
        .expect("an image survives");
    let state = |fib: &BinaryTrie<u32>| (fib.exact_match(p), fib.exact_match(q));
    let oracle = [
        (None, None),
        (Some(nh(2)), None),
        (Some(nh(3)), None),
        (Some(nh(3)), Some(nh(4))),
    ];
    let got = state(recovered.control());
    assert!(
        oracle.contains(&got),
        "restarted to {got:?}, no oracle state"
    );
    assert_eq!(got, (Some(nh(3)), Some(nh(4))), "the re-spill's image");
}
