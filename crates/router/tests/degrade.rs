//! Rebuild-panic containment: a deliberately panicking engine build
//! must never take the control plane down. A compaction
//! ([`Router::start_rebuild`]) and publish-time materialization both
//! degrade to serving the last good epoch with the panic recorded in
//! [`Router::stats`], and a later successful build restores freshness.
//! A fleet compile that panics ([`VrfSetRouter::publish`]) degrades the
//! same way, into [`VrfSetRouter::stats`].

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use fib_core::{
    BuildConfig, EngineKind, FibBuild, FibImage, FibLookup, FibUpdate, ImageCodec, ImageError,
    ImageWriter, PrefixDag, RebuildNeeded, VrfEngineChoice, VrfPolicy,
};
use fib_router::{Router, RouterConfig, VrfSetRouter};
use fib_trie::{BinaryTrie, NextHop, Prefix};
use fib_workload::rng::Xoshiro256;
use fib_workload::{traces, FibSpec};

/// When set, [`Flaky::build`] panics — simulating a rebuild bug.
static PANIC_BUILD: AtomicBool = AtomicBool::new(false);
/// When set, in-place updates decline, forcing the router stale so the
/// next publish must materialize (and hit the panicking build).
static FORCE_REBUILD: AtomicBool = AtomicBool::new(false);
/// The toggles above are process globals; tests touching them must not
/// interleave.
static TOGGLES: Mutex<()> = Mutex::new(());

/// A [`PrefixDag`] whose build panics on demand.
#[derive(Clone)]
struct Flaky(PrefixDag<u32>);

impl FibLookup<u32> for Flaky {
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn lookup(&self, addr: u32) -> Option<NextHop> {
        self.0.lookup(addr)
    }
    fn size_bytes(&self) -> usize {
        self.0.size_bytes()
    }
}

impl FibBuild<u32> for Flaky {
    fn build(trie: &BinaryTrie<u32>, config: &BuildConfig) -> Self {
        // ordering: Relaxed — a test toggle, no data published across it.
        if PANIC_BUILD.load(Ordering::Relaxed) {
            panic!("deliberate rebuild panic (degrade test)");
        }
        Flaky(PrefixDag::build(trie, config))
    }
}

impl FibUpdate<u32> for Flaky {
    fn try_insert(
        &mut self,
        prefix: Prefix<u32>,
        next_hop: NextHop,
    ) -> Result<Option<NextHop>, RebuildNeeded> {
        // ordering: Relaxed — a test toggle, no data published across it.
        if FORCE_REBUILD.load(Ordering::Relaxed) {
            return Err(RebuildNeeded);
        }
        self.0.try_insert(prefix, next_hop)
    }
    fn try_remove(&mut self, prefix: Prefix<u32>) -> Result<Option<NextHop>, RebuildNeeded> {
        // ordering: Relaxed — a test toggle, no data published across it.
        if FORCE_REBUILD.load(Ordering::Relaxed) {
            return Err(RebuildNeeded);
        }
        self.0.try_remove(prefix)
    }
    fn degradation(&self) -> f64 {
        self.0.degradation()
    }
}

impl ImageCodec<u32> for Flaky {
    const ENGINE: EngineKind = <PrefixDag<u32> as ImageCodec<u32>>::ENGINE;
    const SECTIONS: fib_core::image::Layout = <PrefixDag<u32> as ImageCodec<u32>>::SECTIONS;
    type Ref<'i> = <PrefixDag<u32> as ImageCodec<u32>>::Ref<'i>;
    fn write_sections(&self, writer: &mut ImageWriter) -> Result<(), ImageError> {
        self.0.write_sections(writer)
    }
    fn parse(image: &FibImage) -> Result<Self::Ref<'_>, ImageError> {
        <PrefixDag<u32> as ImageCodec<u32>>::parse(image)
    }
    fn resident_size_bytes(&self) -> usize {
        self.0.resident_size_bytes()
    }
}

fn base(seed: u64) -> BinaryTrie<u32> {
    FibSpec::dfz_like(400).generate(&mut Xoshiro256::seed_from_u64(seed))
}

fn assert_serves_control(router: &mut Router<u32, Flaky>, trace: &[u32]) {
    let snapshot = router.publish();
    for &addr in trace {
        assert_eq!(
            snapshot.lookup(addr),
            router.control().lookup(addr),
            "snapshot diverges from control at {addr:#010x}"
        );
    }
}

#[test]
fn inline_rebuild_panic_is_contained_and_a_later_build_recovers() {
    let _guard = TOGGLES.lock().unwrap_or_else(|p| p.into_inner());
    PANIC_BUILD.store(false, Ordering::Relaxed); // ordering: Relaxed — test toggle
    FORCE_REBUILD.store(false, Ordering::Relaxed); // ordering: Relaxed — test toggle

    let trace = traces::uniform::<u32, _>(&mut Xoshiro256::seed_from_u64(3), 256);
    let mut router: Router<u32, Flaky> = Router::new(
        base(1),
        RouterConfig {
            publish_every: None,
            ..RouterConfig::default()
        },
    );
    assert_serves_control(&mut router, &trace);

    PANIC_BUILD.store(true, Ordering::Relaxed); // ordering: Relaxed — test toggle
    router.start_rebuild();
    let health = router.stats();
    assert_eq!(health.rebuild_panics, 1, "panic must be recorded");
    assert!(
        health
            .last_rebuild_panic
            .as_deref()
            .is_some_and(|m| m.contains("deliberate rebuild panic")),
        "panic message must survive: {:?}",
        health.last_rebuild_panic
    );
    // The old engine keeps serving and updates keep applying in place.
    router.announce(Prefix::new(0x0A00_0000u32, 8), NextHop::new(42));
    assert_serves_control(&mut router, &trace);

    PANIC_BUILD.store(false, Ordering::Relaxed); // ordering: Relaxed — test toggle
    router.start_rebuild();
    assert_eq!(router.stats().rebuild_panics, 1, "no new panics");
    assert_serves_control(&mut router, &trace);
}

#[test]
fn publish_serves_stale_epoch_while_builds_panic_then_heals() {
    let _guard = TOGGLES.lock().unwrap_or_else(|p| p.into_inner());
    PANIC_BUILD.store(false, Ordering::Relaxed); // ordering: Relaxed — test toggle
    FORCE_REBUILD.store(false, Ordering::Relaxed); // ordering: Relaxed — test toggle

    let trace = traces::uniform::<u32, _>(&mut Xoshiro256::seed_from_u64(5), 256);
    let mut router: Router<u32, Flaky> = Router::new(
        base(6),
        RouterConfig {
            publish_every: None,
            ..RouterConfig::default()
        },
    );
    assert_serves_control(&mut router, &trace);
    let before = router.publish();

    // Updates decline in place (stale), and every rebuild panics: the
    // next publish must keep serving the previous epoch, flagged stale.
    FORCE_REBUILD.store(true, Ordering::Relaxed); // ordering: Relaxed — test toggle
    PANIC_BUILD.store(true, Ordering::Relaxed); // ordering: Relaxed — test toggle
    let victim = Prefix::new(0xC0A8_0000u32, 16);
    router.announce(victim, NextHop::new(7));
    let during = router.publish();
    assert!(router.stats().serving_stale, "health must flag staleness");
    assert!(router.stats().rebuild_panics >= 1);
    for &addr in &trace {
        assert_eq!(
            during.lookup(addr),
            before.lookup(addr),
            "stale snapshot must equal the last good epoch at {addr:#010x}"
        );
    }

    // Builds work again: the next publish folds the pending update in
    // and clears the staleness flag.
    FORCE_REBUILD.store(false, Ordering::Relaxed); // ordering: Relaxed — test toggle
    PANIC_BUILD.store(false, Ordering::Relaxed); // ordering: Relaxed — test toggle
    assert_serves_control(&mut router, &trace);
    assert!(!router.stats().serving_stale);
    assert_eq!(
        router.publish().lookup(0xC0A8_0101),
        router.control().lookup(0xC0A8_0101),
        "the update accepted during the outage must be served after recovery"
    );
}

#[test]
fn a_panicking_fleet_compile_is_contained_and_the_next_publish_heals() {
    // A vsdag table under a config the vsdag compiler refuses: the fleet
    // compile panics inside `publish`.
    let config = BuildConfig {
        vs_max_stride: 0,
        ..BuildConfig::default()
    };
    let policy = VrfPolicy::Pinned {
        choices: BTreeMap::from([(2, VrfEngineChoice::VsDag)]),
    };
    let mut router = VrfSetRouter::new(config, policy);
    router.insert_vrf(1, base(11));
    router.insert_vrf(2, base(12));
    let mut reader = router.reader();
    let trace = traces::uniform::<u32, _>(&mut Xoshiro256::seed_from_u64(13), 256);

    let served = router.publish();
    assert_eq!(served.epoch(), 0, "the failed publish cut no epoch");
    assert_eq!(router.epoch(), 0);
    let health = router.stats();
    assert_eq!(health.rebuild_panics, 1, "panic must be recorded");
    assert!(
        health
            .last_rebuild_panic
            .as_deref()
            .is_some_and(|m| m.contains("max_stride 0 out of [1, 16]")),
        "panic message must survive: {:?}",
        health.last_rebuild_panic
    );
    assert!(health.serving_stale, "health must flag staleness");
    assert!(health.spool.is_none(), "a fleet has no spool");
    // Readers keep answering from epoch 0, which holds no table yet.
    assert_eq!(reader.snapshot().epoch(), 0);
    for &addr in &trace {
        assert_eq!(reader.lookup(1, addr), None);
    }

    // The table pinned to the engine that cannot be built leaves, and a
    // third (unpinned, so shared) arrives; the pending tables are still
    // dirty, and the next publish folds VRFs 1 and 3.
    assert!(router.remove_vrf(2));
    router.insert_vrf(3, base(14));
    let healed = router.publish();
    assert_eq!(healed.epoch(), 1);
    let health = router.stats();
    assert!(!health.serving_stale);
    assert_eq!(health.rebuild_panics, 1, "no new panics");
    assert!(healed
        .set()
        .tables
        .iter()
        .all(|t| t.choice() == VrfEngineChoice::Shared));
    assert_eq!(reader.snapshot().epoch(), 1);
    for &addr in &trace {
        assert_eq!(reader.lookup(2, addr), None, "VRF 2 was removed");
    }
    for vrf in [1, 3] {
        let oracle = router.oracle(vrf).expect("announced");
        for &addr in &trace {
            assert_eq!(
                reader.lookup(vrf, addr),
                oracle.lookup(addr),
                "vrf {vrf} diverges from its oracle at {addr:#010x}"
            );
        }
    }
}
