//! The held-μ rebuild under churn: a `Router<_, VarStrideDag>` publish
//! re-solves the stride plan once, at the slot penalty μ the previous
//! compile found, instead of searching for it again.
//!
//! After **every** publish the harness checks, against nothing but the
//! control FIB: answers (scalar and batch), the image lint and
//! `from_parts`, the plan's pre-dedup mass against the budget band, and —
//! the `tests/vrf.rs` discipline — that the engine's words equal a
//! from-scratch compile pinned to the same μ and heat. A publish the hook
//! declined must equal the cold compile bit for bit; one it served must
//! equal it whenever the cold search lands on the same μ, and stay within
//! the band's width of its size otherwise. Which of the two a publish was
//! is read from the exact counters (`RouterStats::warm_rebuilds`,
//! `VarStrideDag::plan_solves`), never from a clock.

use std::path::Path;
use std::sync::Arc;

use fibcomp::core::lint::lint_bytes;
use fibcomp::core::{
    write_image, BuildConfig, FibBuild, FibLookup, HotConfig, MultibitDag, VarStrideDag,
    VarStrideDagRef, VsParams,
};
use fibcomp::router::{EpochSnapshot, FaultFs, Router, RouterConfig, SpoolConfig, SpoolFs};
use fibcomp::trie::{Address, BinaryTrie, NextHop, Prefix};
use fibcomp::workload::rng::{Rng, Xoshiro256};
use fibcomp::workload::traces::{self, ZipfTrace};
use fibcomp::workload::updates::{bgp_prefix_len, bgp_sequence, random_sequence, UpdateOp};
use fibcomp::workload::{instances, FibSpec, HeatMap, LabelModel};

type Heat = Option<(Vec<(u64, u64)>, u8)>;

/// A walk-up takes at most four steps after the round at the held μ.
const MAX_HELD_SOLVES: u32 = 5;

fn taz(scale: f64) -> BinaryTrie<u32> {
    let mut inst = instances::by_name("taz").expect("taz is a known instance");
    inst.n_prefixes = (inst.n_prefixes as f64 * scale) as usize;
    inst.build(0xF1B)
}

fn config() -> RouterConfig {
    RouterConfig {
        publish_every: None,
        ..RouterConfig::default()
    }
}

/// Pre-dedup slot mass — what the budget counts: the plan's slot arrays
/// summed along the tree the DAG unfolds to (children precede parents in
/// the directory, so one pass suffices). A run of `len` slots unfolds its
/// child `len` times.
fn plan_mass<A: Address>(vs: &VarStrideDag<A>) -> u64 {
    const LEAF_TAG: u32 = 0x8000_0000;
    let mut unfolded = vec![0u64; vs.node_count()];
    for (i, &node) in vs.node_words().iter().enumerate() {
        let mut mass = 1u64 << (node >> 32);
        for (len, reference) in vs.view().node_runs(i) {
            if reference & LEAF_TAG == 0 {
                mass += u64::from(len) * unfolded[reference as usize];
            }
        }
        unfolded[i] = mass;
    }
    match vs.root_ref() {
        leaf if leaf & LEAF_TAG != 0 => 0,
        root => unfolded[root as usize],
    }
}

/// The default budget in slots, as the compiler derives it.
fn budget_slots<A: Address>(control: &BinaryTrie<A>) -> u64 {
    let reference = plan_mass(&MultibitDag::from_trie(control, 4)).max(1);
    (BuildConfig::default().vs_budget * reference as f64) as u64
}

fn assert_same_words<A: Address>(got: &VarStrideDag<A>, want: &VarStrideDag<A>, tag: &str) {
    assert_eq!(got.shape(), want.shape(), "{tag}: root, counts, run width");
    assert!(got.node_words() == want.node_words(), "{tag}: directory");
    assert!(got.block_words() == want.block_words(), "{tag}: blocks");
    assert!(got.run_words() == want.run_words(), "{tag}: runs");
}

/// How the publish under check got its engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Served {
    /// `FibBuild::rebuild_from` took it, in this many DP rounds.
    Held(u32),
    /// Cold `build_weighted`, in this many.
    Cold(u32),
}

struct Harness<A: Address + Send + Sync + 'static> {
    router: Router<A, VarStrideDag<A>>,
    /// The heat profile the router compiles under (it keeps its own copy).
    heat: Heat,
    ring: Vec<A>,
    rng: Xoshiro256,
    /// Publishes whose cold search landed on the μ the engine holds.
    same_mu: u32,
}

impl<A: Address + Send + Sync + 'static> Harness<A> {
    fn new(control: BinaryTrie<A>, name: &str) -> Self {
        Self::over(Router::new(control, config()), name)
    }

    fn over(router: Router<A, VarStrideDag<A>>, name: &str) -> Self {
        let mut rng = Xoshiro256::for_case(name, 0);
        Self {
            router,
            heat: None,
            ring: traces::uniform::<A, _>(&mut rng, 2048),
            rng,
            same_mu: 0,
        }
    }

    fn apply(&mut self, ops: &[UpdateOp<A>]) {
        for op in ops {
            match *op {
                UpdateOp::Announce(prefix, next_hop) => self.router.announce(prefix, next_hop),
                UpdateOp::Withdraw(prefix) => self.router.withdraw(prefix),
            }
            // The burst's own prefixes join the ring: the addresses whose
            // answers just changed.
            self.ring.push(op.prefix().addr());
        }
    }

    fn publish(&mut self, tag: &str) -> Served {
        let before = self.router.stats();
        let snapshot = self.router.publish();
        self.check(before.rebuilds, before.warm_rebuilds, &snapshot, tag)
    }

    fn publish_hot(&mut self, heat: &HeatMap, tag: &str) -> Served {
        let before = self.router.stats();
        let (snapshot, summary, _) = self
            .router
            .publish_hot(heat, &HotConfig::for_width(A::WIDTH));
        assert!(summary.total() > 0, "{tag}: the profile is not empty");
        self.heat = Some((summary.entries().to_vec(), summary.depth()));
        self.check(before.rebuilds, before.warm_rebuilds, &snapshot, tag)
    }

    fn check(
        &mut self,
        rebuilds: u64,
        warm: u64,
        snapshot: &EpochSnapshot<VarStrideDag<A>>,
        tag: &str,
    ) -> Served {
        let stats = self.router.stats();
        assert_eq!(
            stats.rebuilds,
            rebuilds + 1,
            "{tag}: one rebuild per publish"
        );
        let engine = snapshot.engine().expect("an owned engine");
        let served = match stats.warm_rebuilds - warm {
            0 => Served::Cold(engine.plan_solves()),
            1 => Served::Held(engine.plan_solves()),
            n => panic!("{tag}: {n} warm rebuilds in one publish"),
        };
        let control = self.router.control();

        // Answers, scalar and batch, slab or not.
        let mut batch = vec![None; self.ring.len()];
        snapshot.lookup_batch(&self.ring, &mut batch);
        for (&addr, got) in self.ring.iter().zip(&batch) {
            let want = control.lookup(addr);
            assert_eq!(snapshot.lookup(addr), want, "{tag}: scalar at {addr:?}");
            assert_eq!(*got, want, "{tag}: batch at {addr:?}");
        }

        // The image a spool would write, and the view a reader would take.
        let image = write_image(engine, Some(control), snapshot.epoch()).expect("encodes");
        assert_eq!(lint_bytes(&image), Vec::new(), "{tag}: lint");
        VarStrideDagRef::<A>::from_parts(
            engine.node_words(),
            engine.block_words(),
            engine.run_words(),
            engine.shape(),
        )
        .unwrap_or_else(|e| panic!("{tag}: from_parts: {e}"));

        // In budget; a held μ > 0 also keeps the floor.
        let mu = engine
            .held_mu()
            .expect("the default budget is feasible, so a μ is held");
        let (mass, budget) = (plan_mass(engine), budget_slots(control));
        assert!(mass <= budget, "{tag}: mass {mass} over budget {budget}");
        if let Served::Held(solves) = served {
            assert!((1..=MAX_HELD_SOLVES).contains(&solves), "{tag}: {served:?}");
            assert!(
                mu == 0.0 || mass >= budget - budget / 32,
                "{tag}: held plan at {mass} slots is under the floor of budget {budget}"
            );
        }

        // Bit-identical to a from-scratch compile pinned to the same μ.
        let params = BuildConfig::default().vs_params();
        let heat = self.heat.as_ref().map(|(e, d)| (e.as_slice(), *d));
        let pinned = VarStrideDag::from_trie_at(control, params, heat, mu);
        assert_same_words(engine, &pinned, &format!("{tag}: pinned to μ = {mu:e}"));

        // Against the cold search, beside every publish: a declined
        // publish *is* one.
        let cold = VarStrideDag::build_weighted(control, &BuildConfig::default(), heat);
        if cold.held_mu() == Some(mu) {
            self.same_mu += 1;
            assert_same_words(engine, &cold, &format!("{tag}: cold compile at the same μ"));
        } else {
            assert!(matches!(served, Served::Held(_)), "{tag}: a cold publish");
            // At most 2 % larger; smaller by no more than the band (1/32)
            // plus that.
            let (got, want) = (engine.size_bytes() as f64, cold.size_bytes() as f64);
            assert!(
                got <= want * 1.02 && got >= want * (1.0 - 1.0 / 32.0 - 0.02),
                "{tag}: {got} B against the cold compile's {want} B"
            );
        }
        if let Served::Cold(solves) = served {
            assert_eq!(solves, cold.plan_solves(), "{tag}: cold round count");
        }
        served
    }
}

impl Harness<u32> {
    fn bgp_burst(&mut self, len: usize) {
        let ops = bgp_sequence(&mut self.rng, self.router.control(), len);
        self.apply(&ops);
    }
}

#[test]
fn steady_churn_is_one_solve_per_publish_v4() {
    let mut h = Harness::new(taz(0.1), "replan_steady_v4");
    let (mut held, mut single, mut cold) = (0, 0, 0);
    for burst in 0..40 {
        h.bgp_burst(100);
        match h.publish(&format!("v4 burst {burst}")) {
            Served::Held(solves) => {
                held += 1;
                single += u32::from(solves == 1);
            }
            Served::Cold(_) => cold += 1,
        }
    }
    // A tenth of the benchmark's table sees ten times its relative churn.
    // The budget (∝ the stride-4 plan) outgrows the plan at a fixed μ, so
    // the mass sinks to the floor once in these forty bursts (burst 34);
    // the re-anchored plan sits just under the budget, and two of the
    // five bursts after it overshoot and walk μ up (3 and 4 rounds).
    assert_eq!((held, single, cold), (39, 37, 1));
    assert_eq!(h.router.stats().warm_rebuilds, 39);
}

#[test]
fn steady_churn_is_held_v6() {
    let mut rng = Xoshiro256::for_case("replan_steady_v6", 1);
    let control: BinaryTrie<u128> = FibSpec {
        max_len: 64,
        ..FibSpec::dfz_like(12_000)
    }
    .generate(&mut rng);
    let mut h = Harness::new(control, "replan_steady_v6");
    for burst in 0..8 {
        let ops = random_sequence::<u128, _>(&mut rng, 25, 4);
        h.apply(&ops);
        let served = h.publish(&format!("v6 burst {burst}"));
        assert_eq!(served, Served::Held(1), "v6 burst {burst}");
    }
}

#[test]
fn forced_exits_go_cold_and_re_anchor() {
    let mut h = Harness::new(taz(0.1), "replan_forced_exits");
    h.bgp_burst(100);
    assert!(matches!(h.publish("steady"), Served::Held(_)));
    let anchored = h.router.snapshot().engine().unwrap().held_mu();

    // Withdrawing 15 % of the table takes the mass at the held μ under
    // the floor: decline, cold search (14 rounds; the bisection whose μ
    // it settles on ran 35), a new μ.
    let routes: Vec<Prefix<u32>> = h.router.control().iter().map(|(p, _)| p).collect();
    let doomed: Vec<UpdateOp<u32>> = routes
        .into_iter()
        .filter(|_| h.rng.random::<f64>() < 0.15)
        .map(UpdateOp::Withdraw)
        .collect();
    h.apply(&doomed);
    assert_eq!(h.publish("15 % withdrawn"), Served::Cold(14));
    let re_anchored = h.router.snapshot().engine().unwrap().held_mu();
    assert_ne!(re_anchored, anchored);
    h.bgp_burst(100);
    assert!(matches!(h.publish("steady at the new μ"), Served::Held(_)));

    // Fresh prefixes grow the plan faster than its budget: the mass at
    // the held μ overshoots and the walk-up brings it back.
    let fresh: Vec<UpdateOp<u32>> = (0..50)
        .map(|_| {
            let len = bgp_prefix_len(&mut h.rng);
            let prefix = Prefix::new(h.rng.random::<u32>(), len);
            UpdateOp::Announce(prefix, NextHop::new(h.rng.random_range(0..4)))
        })
        .collect();
    h.apply(&fresh);
    let walked = h.publish("announce-heavy burst");
    assert!(
        matches!(walked, Served::Held(n) if n > 1),
        "{walked:?}: expected a walk-up"
    );
    let stepped = h.router.snapshot().engine().unwrap().held_mu();
    assert!(stepped > re_anchored, "{stepped:?} vs {re_anchored:?}");

    // A traffic profile re-strides through the same hook: the μ held
    // under the old weights is kept only if it lands in the band under
    // the new ones. Two zipf profiles over disjoint halves of the table.
    let heat = HeatMap::new(1, HotConfig::for_width(32).depth, 2048);
    let zipf = ZipfTrace::new(h.router.control(), 1.0).generate(&mut h.rng, 65_536);
    let record = |top_bit: u32| {
        for &addr in zipf.iter().filter(|&&addr| addr >> 31 == top_bit) {
            heat.sketch(0).record(addr);
        }
    };
    record(0);
    // The uniform plan's μ overshoots under the first profile by more
    // than a walk-up recovers: cold, in 12 rounds (the bisection's 37).
    let first = h.publish_hot(&heat, "first heat profile");
    assert_eq!(first, Served::Cold(12));
    h.bgp_burst(100);
    assert_eq!(h.publish("steady under heat"), Served::Held(1));
    // The upper half carries little of this table's traffic: its μ = 0
    // plan fits, which the μ held from the first profile lands far under.
    record(1);
    let disjoint = h.publish_hot(&heat, "disjoint heat profile");
    assert_eq!(disjoint, Served::Cold(1));
    h.bgp_burst(100);
    assert_eq!(h.publish("steady at μ = 0"), Served::Held(1));
}

#[test]
fn warm_restart_compiles_cold_then_holds() {
    const DIR: &str = "/spool";
    let fs: Arc<dyn SpoolFs> = Arc::new(FaultFs::new(7));
    let mut first: Router<u32, VarStrideDag<u32>> = Router::new(taz(0.1), config());
    first
        .enable_spool_with(Arc::clone(&fs), DIR, SpoolConfig::default())
        .expect("spool dir");
    drop(first);

    let restored = Router::warm_restart_with(fs, Path::new(DIR), config(), SpoolConfig::default())
        .expect("the base spill restores");
    assert!(restored.snapshot().is_image_backed());
    let mut h = Harness::over(restored, "replan_warm_restart");
    // No working engine to hold a μ from: the first publish is cold, 15
    // rounds (the bisection's 35).
    h.bgp_burst(20);
    assert_eq!(h.publish("first after restart"), Served::Cold(15));
    h.bgp_burst(20);
    assert_eq!(h.publish("second after restart"), Served::Held(1));
}

/// Buhrman, Hoepman and Vitányi: almost all routing functions are
/// incompressible. With next-hops drawn uniformly from 2^20 labels no two
/// subtrees fold; the held-μ path must not depend on folding to stay
/// correct and in budget.
#[test]
fn incompressible_labels_stay_correct_and_in_budget() {
    const LABELS: u32 = 1 << 20;
    let mut rng = Xoshiro256::for_case("replan_incompressible", 2);
    let control: BinaryTrie<u32> = FibSpec {
        labels: LabelModel::Uniform { delta: LABELS },
        ..FibSpec::dfz_like(20_000)
    }
    .generate(&mut rng);
    let mut h = Harness::new(control, "replan_incompressible");
    let mut held = 0;
    for burst in 0..20 {
        let ops: Vec<UpdateOp<u32>> = bgp_sequence(&mut rng, h.router.control(), 100)
            .into_iter()
            .map(|op| match op {
                UpdateOp::Announce(prefix, _) => {
                    UpdateOp::Announce(prefix, NextHop::new(rng.random_range(0..LABELS)))
                }
                withdraw => withdraw,
            })
            .collect();
        h.apply(&ops);
        if let Served::Held(_) = h.publish(&format!("incompressible burst {burst}")) {
            held += 1;
        }
    }
    // Reads: all 20 held, and the cold search never once agrees on μ (a
    // 100-update burst is 0.5 % of this table, fifty times the
    // benchmark's relative churn), where folding taz 1.0 agrees for 16
    // bursts.
    assert_eq!((held, h.same_mu), (20, 0));
}

#[test]
fn infeasible_budget_is_decided_in_one_round_not_sixty() {
    let trie = taz(0.1);
    let compile = |budget| {
        let params = VsParams {
            budget,
            ..VsParams::default()
        };
        VarStrideDag::from_trie(&trie, params)
    };
    // No plan of this table fits a fifth of the stride-4 mass: both
    // budgets ship the mass-minimal plan, and neither holds a μ.
    let (tiny, small) = (compile(0.01), compile(0.2));
    assert_eq!((tiny.held_mu(), small.held_mu()), (None, None));
    assert_eq!(tiny.slot_count(), small.slot_count());
    assert_same_words(&tiny, &small, "the mass-minimal plan");
    // μ = 0, then the mass-only round, which decides before any search
    // that nothing fits (the bisection asked only after a dozen
    // expansion rounds: 15).
    assert_eq!(tiny.plan_solves(), 2);
    assert!(tiny.planned_cost() > 1.0, "cost is summed from the weights");
    for &addr in &traces::uniform::<u32, _>(&mut Xoshiro256::seed_from_u64(3), 4096) {
        assert_eq!(tiny.lookup(addr), trie.lookup(addr), "addr {addr:#x}");
    }
    // A feasible budget goes on to search for its μ.
    let fits = compile(0.6);
    assert!(fits.held_mu().is_some() && fits.slot_count() > tiny.slot_count());
}

#[test]
fn plans_no_budget_shaped_hold_nothing() {
    let trie = taz(0.02);
    let default = VsParams::default();
    let unbounded = VsParams {
        budget: f64::INFINITY,
        ..default
    };
    for previous in [
        VarStrideDag::from_trie(&trie, 4u8),
        VarStrideDag::from_trie(&trie, unbounded),
    ] {
        assert_eq!(previous.held_mu(), None);
        assert!(previous.plan_solves() <= 1);
        assert!(VarStrideDag::rebuild_from(&previous, &trie, default, None).is_none());
    }
    // A plan that fitted at μ = 0 holds 0 and has no floor to miss ...
    let roomy = VsParams {
        budget: 64.0,
        ..default
    };
    let free = VarStrideDag::from_trie(&trie, roomy);
    assert_eq!((free.held_mu(), free.plan_solves()), (Some(0.0), 1));
    let again = VarStrideDag::rebuild_from(&free, &trie, roomy, None).expect("still fits");
    assert_eq!((again.held_mu(), again.plan_solves()), (Some(0.0), 1));
    assert_same_words(&again, &free, "held at μ = 0");
    // ... and declines a budget the μ = 0 plan does not fit.
    assert!(VarStrideDag::rebuild_from(&free, &trie, default, None).is_none());
}
