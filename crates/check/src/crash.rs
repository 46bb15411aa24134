//! Exhaustive crash-recovery checking for the router's persistence
//! protocol.
//!
//! The harness runs one deterministic churn workload against a
//! [`FaultFs`] and enumerates **every** fallible filesystem operation as
//! a crash point: for each `k`, the same workload is re-run with the
//! filesystem configured to crash just before op `k`, the surviving
//! durable state is "rebooted" ([`FaultFs::durable_clone`]), and
//! `Router::warm_restart_with` must recover a control FIB equal to some
//! oracle state **at or past the acknowledgement floor** — the last
//! update covered by a `publish()` that returned with the spool
//! `Healthy` (publish is the durability point: its one sync, or the
//! image it folds the journal into, covers every update accepted so
//! far; updates after it are an unpublished tail a crash may drop).
//!
//! The same sweep doubles as a mutation-kill suite: re-running it with a
//! seeded protocol mutant ([`SpoolMutant::SkipFsync`],
//! [`SpoolMutant::RenameBeforeSync`], [`SpoolMutant::ReplayPastTail`],
//! [`SpoolMutant::AckBeforeSync`]) must surface at least one violation,
//! or the harness would be too weak to notice the bug it exists to
//! prevent.

use std::collections::BTreeSet;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use fib_core::{BuildConfig, PrefixDag};
use fib_router::spoolfs::{FaultConfig, FaultFs, SpoolFs, TailPolicy};
use fib_router::{RestartError, Router, RouterConfig, SpoolConfig, SpoolMutant};
use fib_trie::BinaryTrie;
use fib_workload::rng::Xoshiro256;
use fib_workload::updates::{bgp_sequence, UpdateOp};
use fib_workload::{traces, FibSpec};

/// Spool directory used inside the in-memory filesystem.
const SPOOL_DIR: &str = "/spool";
/// Updates per publish (each publish commits the journal with one sync).
const PUBLISH_EVERY: usize = 4;
/// Journal fold threshold — 24 records of 24 bytes: small enough that the
/// swept workload crosses it again and again, so image spills, journal
/// resets and retention stay inside the enumerated crash points.
const FOLD_BYTES: u64 = 24 * 24;

/// The deterministic churn workload plus the oracle fingerprint of every
/// intermediate control state.
pub struct CrashScript {
    /// Initial control FIB.
    pub base: BinaryTrie<u32>,
    /// The scripted update sequence.
    pub updates: Vec<UpdateOp<u32>>,
    /// Lookup trace the state fingerprints hash over.
    pub trace: Vec<u32>,
    /// `fingerprints[u]` = hash of the oracle state after `u` updates
    /// (`fingerprints[0]` is the base state).
    pub fingerprints: Vec<u64>,
}

/// Hashes a control state: route count plus its answers on the trace.
fn state_hash(fib: &BinaryTrie<u32>, trace: &[u32]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01B3);
        }
    };
    eat(fib.len() as u64);
    for &addr in trace {
        eat(fib.lookup(addr).map_or(0, |nh| 1 + u64::from(nh.index())));
    }
    h
}

impl CrashScript {
    /// Builds the scripted workload for `seed`: a DFZ-shaped base FIB,
    /// a BGP-style update sequence, and per-state oracle fingerprints.
    #[must_use]
    pub fn new(seed: u64, n_routes: usize, n_updates: usize) -> Self {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let base: BinaryTrie<u32> = FibSpec::dfz_like(n_routes).generate(&mut rng);
        let mut rng = Xoshiro256::seed_from_u64(seed ^ 0x5DEE_CE66);
        let updates = bgp_sequence(&mut rng, &base, n_updates);
        let mut rng = Xoshiro256::seed_from_u64(seed ^ 0x0BAD_CAFE);
        let trace = traces::uniform::<u32, _>(&mut rng, 512);

        let mut oracle = base.clone();
        let mut fingerprints = Vec::with_capacity(updates.len() + 1);
        fingerprints.push(state_hash(&oracle, &trace));
        for op in &updates {
            match *op {
                UpdateOp::Announce(p, nh) => {
                    oracle.insert(p, nh);
                }
                UpdateOp::Withdraw(p) => {
                    oracle.remove(p);
                }
            }
            fingerprints.push(state_hash(&oracle, &trace));
        }
        Self {
            base,
            updates,
            trace,
            fingerprints,
        }
    }
}

fn router_config() -> RouterConfig {
    RouterConfig {
        build: BuildConfig::default(),
        publish_every: Some(PUBLISH_EVERY),
    }
}

/// The spool policy every sweep run uses: shallow retention so pruning
/// is exercised, a fold threshold the workload crosses, and a
/// virtual-milliseconds retry schedule so degraded spools retry (and
/// recover or suspend) *within* the workload.
#[must_use]
pub fn sweep_spool_config(mutant: SpoolMutant) -> SpoolConfig {
    SpoolConfig {
        keep: 1,
        journal_fold_bytes: FOLD_BYTES,
        retry_base: Duration::from_millis(1),
        retry_max: Duration::from_millis(8),
        max_retries: 4,
        mutant,
    }
}

fn apply(router: &mut Router<u32, PrefixDag<u32>>, op: &UpdateOp<u32>) {
    match *op {
        UpdateOp::Announce(p, nh) => router.announce(p, nh),
        UpdateOp::Withdraw(p) => router.withdraw(p),
    }
}

/// Outcome of one scripted run over a (possibly crashing) [`FaultFs`].
pub struct CrashRun {
    /// The filesystem after the run (crashed at the configured op, if any).
    pub fs: FaultFs,
    /// Acknowledgement floor: `Some(u)` = a `publish()` covering update
    /// `u` returned with the spool `Healthy`, so oracle state `u` is
    /// guaranteed durable (`Some(0)` = at least the base spill is
    /// durable; `None` = nothing promised).
    pub acked: Option<usize>,
    /// Whether the final published snapshot (cut *after* the crash, from
    /// in-memory state) still answers exactly like the final oracle
    /// state — forwarding must survive a dead spool.
    pub served_final_ok: bool,
}

/// Runs the scripted churn against a fresh [`FaultFs`] seeded with
/// `seed` and configured with `faults`.
#[must_use]
pub fn run_churn(
    script: &CrashScript,
    seed: u64,
    faults: FaultConfig,
    spool: SpoolConfig,
) -> CrashRun {
    let fs = FaultFs::with_config(seed, faults);
    let shared: Arc<dyn SpoolFs> = Arc::new(fs.clone());
    let mut router: Router<u32, PrefixDag<u32>> = Router::new(script.base.clone(), router_config());
    let _ = router.enable_spool_with(shared, SPOOL_DIR, spool);
    let mut acked = router
        .spool_health()
        .is_some_and(|h| h.is_healthy())
        .then_some(0);
    let mut epoch = router.epoch();
    for (i, op) in script.updates.iter().enumerate() {
        apply(&mut router, op);
        // The epoch moved: `publish_every` (or a journal fold) published
        // inside this update.
        let published = router.epoch() != epoch;
        epoch = router.epoch();
        if published && router.spool_health().is_some_and(|h| h.is_healthy()) {
            acked = Some(i + 1);
        }
    }
    // Forwarding must keep working whatever happened to the spool: a
    // final publish (in-memory engine build; its commit may fail) has to
    // serve the exact final oracle state.
    let snapshot = router.publish();
    if router.spool_health().is_some_and(|h| h.is_healthy()) {
        acked = Some(script.updates.len());
    }
    let served_final_ok = script
        .trace
        .iter()
        .all(|&addr| snapshot.lookup(addr) == router.control().lookup(addr))
        && state_hash(router.control(), &script.trace)
            == *script.fingerprints.last().expect("nonempty");
    CrashRun {
        fs,
        acked,
        served_final_ok,
    }
}

/// Reboots the durable state of `run` and checks that warm restart
/// recovers an oracle-consistent FIB at or past the acknowledgement
/// floor.
///
/// # Errors
/// A human-readable violation description.
pub fn verify_recovery(
    script: &CrashScript,
    run: &CrashRun,
    spool: SpoolConfig,
) -> Result<(), String> {
    if !run.served_final_ok {
        return Err("post-crash publish diverged from the oracle".to_string());
    }
    let boot = run.fs.durable_clone();
    let shared: Arc<dyn SpoolFs> = Arc::new(boot);
    match Router::<u32, PrefixDag<u32>>::warm_restart_with(
        shared,
        SPOOL_DIR,
        router_config(),
        spool,
    ) {
        Ok(recovered) => {
            let h = state_hash(recovered.control(), &script.trace);
            let floor = run.acked.unwrap_or(0);
            if script.fingerprints[floor..].contains(&h) {
                Ok(())
            } else if script.fingerprints[..floor].contains(&h) {
                Err(format!(
                    "recovered an oracle state OLDER than the ack floor {floor} \
                     (acknowledged updates lost)"
                ))
            } else {
                Err(format!(
                    "recovered state matches NO oracle state (floor {floor}): \
                     corrupt data would be served"
                ))
            }
        }
        Err(RestartError::NoValidImage) if run.acked.is_none() => Ok(()),
        Err(e) => {
            if run.acked.is_none() {
                // Nothing was ever acknowledged durable; a quarantined
                // torn base image is a legal outcome.
                Ok(())
            } else {
                Err(format!(
                    "warm restart failed ({e}) despite ack floor {:?}",
                    run.acked
                ))
            }
        }
    }
}

/// A record-aligned half-written sector: plausible framing, garbage
/// checksum, an address the workload never announces.
#[must_use]
pub fn rotted_record() -> [u8; 24] {
    let mut rec = [0u8; 24];
    rec[0] = b'A';
    rec[1] = 32;
    rec[2] = 0xFF;
    rec[3] = 0xFE;
    rec[4..8].copy_from_slice(&777u32.to_le_bytes());
    rec[8..24].copy_from_slice(&0xDEAD_BEEFu128.to_le_bytes());
    rec
}

/// Appends `bytes` to the journal behind the router's back and syncs
/// them: damage that survives the reboot.
fn append_to_journal(fs: &FaultFs, bytes: &[u8]) -> Result<(), String> {
    let jpath = Path::new(SPOOL_DIR).join("journal.log");
    let mut f = fs
        .open_append(&jpath)
        .map_err(|e| format!("probe append: {e}"))?;
    f.write_all(bytes)
        .map_err(|e| format!("probe write: {e}"))?;
    f.sync().map_err(|e| format!("probe sync: {e}"))
}

/// Appends one bit-rotted record past the acknowledged journal tail and
/// reboots.
///
/// This is the deterministic kill for the replay-side guards: the
/// correct protocol's per-record checksum stops replay at the rot and
/// recovers exactly the acknowledged final state, while
/// [`SpoolMutant::ReplayPastTail`] applies the garbage and is caught as
/// an oracle divergence. (The crash-point sweep can also produce this
/// situation — a torn sector that happens to be record-aligned — but
/// only with seed luck; the probe makes the kill unconditional.)
///
/// # Errors
/// A violation description (expected when `spool.mutant` is
/// [`SpoolMutant::ReplayPastTail`]).
pub fn replay_guard_probe(
    script: &CrashScript,
    seed: u64,
    spool: SpoolConfig,
) -> Result<(), String> {
    let run = run_churn(script, seed, FaultConfig::default(), spool);
    if run.acked != Some(script.updates.len()) {
        return Err("probe precondition: fault-free run must end healthy".to_string());
    }
    append_to_journal(&run.fs, &rotted_record())?;
    verify_recovery(script, &run, spool)
}

/// What life one's crash leaves of the journal in [`double_crash_probe`].
#[derive(Clone, Copy, Debug)]
pub enum JournalDamage<'a> {
    /// These bytes behind the last record, after three acknowledged
    /// publishes: a torn or bit-flipped tail.
    Tail(&'a [u8]),
    /// One bit of the header's magic flipped, life one having died right
    /// after arming its spool: a journal reset torn in mid-write.
    Header,
}

/// Two lives, two crashes. Life one dies leaving `damage` in its journal.
/// Life two warm-restarts from that, takes a burst of updates and
/// publishes — and the machine dies again, with the adversarial
/// [`TailPolicy::Drop`]. The third boot must recover the burst: had life
/// two appended behind the damage, replay would stop short of every
/// record it acknowledged. Life two is also crashed at each of its own
/// filesystem operations, the restart's journal rewrite included, and
/// must never recover less than life one acknowledged.
///
/// # Errors
/// A violation description.
pub fn double_crash_probe(
    script: &CrashScript,
    seed: u64,
    spool: SpoolConfig,
    damage: JournalDamage<'_>,
) -> Result<(), String> {
    const BURST: usize = 2 * PUBLISH_EVERY;
    // Three publishes, no fold: the journal holds every record.
    let first = match damage {
        JournalDamage::Tail(_) => 3 * PUBLISH_EVERY,
        JournalDamage::Header => 0,
    };
    let fs = FaultFs::new(seed);
    let mut router: Router<u32, PrefixDag<u32>> = Router::new(script.base.clone(), router_config());
    let _ = router.enable_spool_with(Arc::new(fs.clone()), SPOOL_DIR, spool);
    for op in &script.updates[..first] {
        apply(&mut router, op);
    }
    if !router.spool_health().is_some_and(|h| h.is_healthy()) {
        return Err("probe precondition: life one must end healthy".to_string());
    }
    drop(router);
    match damage {
        JournalDamage::Tail(bytes) => append_to_journal(&fs, bytes)?,
        JournalDamage::Header => {
            if !fs.flip_bit(&Path::new(SPOOL_DIR).join("journal.log"), 3) {
                return Err("probe precondition: no journal header to damage".to_string());
            }
        }
    }

    // Life two on a fresh reboot of life one's disk, crashing before op
    // `crash_at` (`None`: it lives to publish the burst). Returns the disk
    // it leaves and the floor it acknowledged.
    let life_two = |crash_at: Option<u64>| {
        let disk = fs.durable_clone();
        disk.reconfigure(|c| c.crash_at_op = crash_at);
        let mut acked = first;
        if let Ok(mut router) = Router::<u32, PrefixDag<u32>>::warm_restart_with(
            Arc::new(disk.clone()),
            SPOOL_DIR,
            router_config(),
            spool,
        ) {
            for op in &script.updates[first..first + BURST] {
                apply(&mut router, op);
            }
            router.publish();
            if router.spool_health().is_some_and(|h| h.is_healthy()) {
                acked += BURST;
            }
        }
        CrashRun {
            fs: disk,
            acked: Some(acked),
            served_final_ok: true,
        }
    };
    let whole = life_two(None);
    if whole.acked != Some(first + BURST) {
        return Err("life two did not acknowledge its burst".to_string());
    }
    verify_recovery(script, &whole, spool)?;
    for k in 1..=whole.fs.op_count() {
        verify_recovery(script, &life_two(Some(k)), spool)
            .map_err(|v| format!("life two crashed at op {k}: {v}"))?;
    }
    Ok(())
}

/// Result of a full crash-point enumeration.
pub struct SweepReport {
    /// Fallible filesystem operations in the fault-free run — the size
    /// of the enumerated crash-point space.
    pub crash_points: u64,
    /// Distinct durable on-disk states observed across all crash points.
    pub distinct_states: usize,
    /// `(crash op, description)` for every oracle divergence.
    pub violations: Vec<(u64, String)>,
}

/// Enumerates every crash point of the scripted workload under the given
/// tail policy and protocol mutant, verifying recovery at each.
#[must_use]
pub fn sweep(
    script: &CrashScript,
    seed: u64,
    tail: TailPolicy,
    mutant: SpoolMutant,
) -> SweepReport {
    let spool = sweep_spool_config(mutant);
    let clean = run_churn(
        script,
        seed,
        FaultConfig {
            tail,
            ..FaultConfig::default()
        },
        spool,
    );
    let crash_points = clean.fs.op_count();
    let mut distinct = BTreeSet::new();
    let mut violations = Vec::new();
    for k in 1..=crash_points {
        let run = run_churn(
            script,
            seed.wrapping_add(k),
            FaultConfig {
                crash_at_op: Some(k),
                tail,
                ..FaultConfig::default()
            },
            spool,
        );
        distinct.insert(run.fs.fingerprint());
        if let Err(v) = verify_recovery(script, &run, spool) {
            if violations.len() < 8 {
                violations.push((k, v));
            } else {
                violations.push((k, "…".to_string()));
                break;
            }
        }
    }
    SweepReport {
        crash_points,
        distinct_states: distinct.len(),
        violations,
    }
}
