//! The five single-table workloads: one `Router<u32, E>` over the taz
//! stand-in, served either by the product's `Forwarder` (`serve-*`) or
//! by a forwarding thread beside a control thread (`churn-*`).

use std::cell::RefCell;
use std::collections::HashSet;
use std::hint::black_box;
use std::io;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use fib_core::{
    write_image, BuildConfig, FibBuild, FibEntropy, FibImage, FibLookup, FibUpdate, HotConfig,
    HotSlab, HotStats, ImageCodec, MultibitDag, PrefixDag, SerializedDag, XbwFib, XbwStorage,
};
use fib_router::{
    AddressSource, DataPlane, EpochSnapshot, Forwarder, ForwarderConfig, PacingMode, Router,
    RouterConfig, SpoolConfig, SpoolHealth,
};
use fib_trie::{BinaryTrie, LcTrie, NextHop, Prefix};
use fib_workload::loadgen::{AddrStream, KeyModel};
use fib_workload::updates::UpdateOp;
use fib_workload::{HeatMap, HeatSummary};

use crate::loops::{Control, Counters, HeatHook, Plane, RingCursor, SlicedSource, BATCH};
use crate::micro::{
    batch_ns, memory_profile, ns_per_key, ns_per_ring_key, oracle_update_ns, repeat_set_up,
    scalar_ns, stream_ns, succinct_ns, timed_calls, Probe,
};
use crate::phases::{note_agreement, BurstFeed, Phases, ProductPass};
use crate::plan::{key_ring, taz, update_stream, Plan, Seeds};
use crate::registry::MATRIX_ENGINES;
use crate::report::Outcome;
use crate::spool::{CountingFs, SpoolCounters, TempDir};

/// Slots of the forwarding worker's heat sketch: sixteen times the hot
/// slab's 4096-entry budget, so the blocks worth promoting are counted
/// and the long tail lands in the sketch's `missed` counter.
const HEAT_SLOTS: usize = 1 << 16;

/// Everything a served engine must offer: the router's own bounds plus
/// the benchmark's traced lookup.
pub trait TableEngine:
    FibLookup<u32>
    + FibBuild<u32>
    + FibUpdate<u32>
    + ImageCodec<u32>
    + Probe
    + Clone
    + Send
    + Sync
    + 'static
{
}

impl<E> TableEngine for E where
    E: FibLookup<u32>
        + FibBuild<u32>
        + FibUpdate<u32>
        + ImageCodec<u32>
        + Probe
        + Clone
        + Send
        + Sync
        + 'static
{
}

/// The control-thread half of an updating workload.
#[derive(Clone, Copy, Debug)]
pub struct Churn {
    /// Updates per burst (each burst ends in a `publish()`).
    pub burst: usize,
    /// Journal every update and spill every epoch through a spool.
    pub spool: bool,
}

/// What distinguishes one single-table workload from another.
#[derive(Clone, Copy, Debug)]
pub struct TableSpec {
    /// Workload name.
    pub name: &'static str,
    /// Key model of the ring.
    pub keys: KeyModel,
    /// Engine build parameters.
    pub build: BuildConfig,
    /// Warm up through `run_sampled`, `publish_hot`, serve sampled.
    pub hot: bool,
    /// Run a control thread beside the forwarding thread.
    pub churn: Option<Churn>,
    /// Measure the eight-engine `engine.<e>.*` rows.
    pub matrix: bool,
}

/// The `serve-uniform` workload.
#[must_use]
pub fn serve_uniform() -> TableSpec {
    TableSpec {
        name: "serve-uniform",
        keys: KeyModel::Uniform,
        build: BuildConfig::default(),
        hot: false,
        churn: None,
        matrix: true,
    }
}

/// The `serve-zipf-hot` workload.
#[must_use]
pub fn serve_zipf_hot() -> TableSpec {
    TableSpec {
        name: "serve-zipf-hot",
        keys: KeyModel::Zipf { s: 1.0 },
        hot: true,
        ..serve_uniform()
    }
}

/// The `serve-compact` workload.
#[must_use]
pub fn serve_compact() -> TableSpec {
    TableSpec {
        name: "serve-compact",
        keys: KeyModel::Bursty {
            s: 1.0,
            mean_burst: 8.0,
        },
        build: BuildConfig {
            xbw_storage: XbwStorage::Succinct,
            ..BuildConfig::default()
        },
        hot: false,
        churn: None,
        matrix: false,
    }
}

/// The `churn-inplace` workload.
#[must_use]
pub fn churn_inplace() -> TableSpec {
    TableSpec {
        name: "churn-inplace",
        keys: KeyModel::Uniform,
        build: BuildConfig::with_lambda(11),
        hot: false,
        churn: Some(Churn {
            burst: 1000,
            spool: false,
        }),
        matrix: false,
    }
}

/// The `churn-spool` workload.
#[must_use]
pub fn churn_spool() -> TableSpec {
    TableSpec {
        name: "churn-spool",
        churn: Some(Churn {
            burst: 100,
            spool: true,
        }),
        ..churn_inplace()
    }
}

/// What set-up leaves behind for a hot workload.
struct HotSetup {
    map: HeatMap,
    summary: HeatSummary,
    stats: HotStats,
    publish_hot_ms: f64,
}

/// What set-up leaves behind for a spooling workload.
struct SpoolSetup {
    dir: TempDir,
    fs: Arc<CountingFs>,
    counters: Arc<SpoolCounters>,
}

struct TableSetup<E: TableEngine> {
    router: Router<u32, E>,
    ring: Arc<Vec<u32>>,
    updates: Vec<UpdateOp<u32>>,
    hot: Option<HotSetup>,
    spool: Option<SpoolSetup>,
}

/// A traffic source that serves exactly one lap of the ring and then
/// stops the pool, so the warm-up samples a fixed key sequence whatever
/// the machine's speed — the heat, the slab and the heat-restrided
/// layout then depend on the seed alone.
struct OneLap<'p> {
    cursor: RingCursor<u32>,
    left: usize,
    pool: &'p Forwarder,
}

impl AddressSource<u32> for OneLap<'_> {
    fn fill(&mut self, buf: &mut Vec<u32>, n: usize) {
        self.cursor.fill(buf, n);
        self.left = self.left.saturating_sub(n);
        if self.left == 0 {
            self.pool.stop();
        }
    }
}

fn forwarder_config(duration: Duration) -> ForwarderConfig {
    ForwarderConfig {
        threads: 1,
        batch: BATCH,
        duration,
        pacing: PacingMode::Closed,
    }
}

fn router_config(build: BuildConfig) -> RouterConfig {
    RouterConfig {
        build,
        publish_every: None,
        ..RouterConfig::default()
    }
}

/// Table generation + key ring + update stream + first compile + first
/// publish (+ warm-up and `publish_hot`, + spool arm).
fn set_up<E: TableEngine>(
    spec: &TableSpec,
    plan: &Plan,
    seeds: Seeds,
) -> io::Result<TableSetup<E>> {
    let trie = taz(plan.scale, seeds.table);
    let ring = Arc::new(key_ring(spec.keys, &trie, seeds.keys, plan.ring_len));
    let updates = update_stream(&trie, seeds.updates, plan.update_len);
    let mut router: Router<u32, E> = Router::new(trie, router_config(spec.build));
    let hot = spec.hot.then(|| {
        let config = HotConfig::for_width(32);
        let map = HeatMap::new(1, config.depth, HEAT_SLOTS);
        let pool = Forwarder::new();
        pool.run_sampled(
            router.snap_cell(),
            &forwarder_config(Duration::from_secs(120)),
            |_| OneLap {
                cursor: RingCursor::new(Arc::clone(&ring), 0),
                left: ring.len(),
                pool: &pool,
            },
            &map,
        );
        let started = Instant::now();
        let (_, summary, stats) = router.publish_hot(&map, &config);
        HotSetup {
            map,
            summary,
            stats,
            publish_hot_ms: started.elapsed().as_secs_f64() * 1e3,
        }
    });
    let spool = match spec.churn {
        Some(Churn { spool: true, .. }) => {
            let dir = TempDir::new(spec.name)?;
            let (fs, counters) = CountingFs::new();
            router.enable_spool_with(fs.clone(), dir.path(), SpoolConfig::default())?;
            Some(SpoolSetup { dir, fs, counters })
        }
        _ => None,
    };
    Ok(TableSetup {
        router,
        ring,
        updates,
        hot,
        spool,
    })
}

/// The forwarding thread's reader: `DataPlane::current()` (which is
/// `SnapReader::get`) at the pickup boundary, `lookup_stream` on the
/// snapshot it returned at the lookup boundary.
struct TablePlane<E: TableEngine> {
    reader: DataPlane<E>,
    snapshot: Arc<EpochSnapshot<E>>,
}

impl<E: TableEngine> TablePlane<E> {
    fn new(mut reader: DataPlane<E>) -> Self {
        let snapshot = reader.snapshot();
        Self { reader, snapshot }
    }
}

impl<E: TableEngine> Plane for TablePlane<E> {
    type Key = u32;

    #[inline]
    fn get(&mut self) -> u64 {
        let current = self.reader.current();
        if !Arc::ptr_eq(current, &self.snapshot) {
            self.snapshot = Arc::clone(current);
        }
        self.snapshot.epoch()
    }

    #[inline]
    fn generation(&self) -> u64 {
        self.reader.generation()
    }

    #[inline]
    fn lookup(&mut self, keys: &[u32], out: &mut [Option<NextHop>]) {
        self.snapshot.lookup_stream(keys, out);
    }
}

/// The control thread's handle: the router, a reader of its own for the
/// visible check, and the spool's counters when there is one. The router
/// sits in a `RefCell` because the `serve-*` windows lend its `SnapCell`
/// to the product's `Forwarder` between bursts; the two uses alternate,
/// they never overlap.
struct TableControl<'r, E: TableEngine> {
    router: &'r RefCell<Router<u32, E>>,
    reader: DataPlane<E>,
    spool: Option<&'r SpoolCounters>,
}

fn apply<E: TableEngine>(router: &mut Router<u32, E>, op: &UpdateOp<u32>) {
    match *op {
        UpdateOp::Announce(prefix, next_hop) => router.announce(prefix, next_hop),
        UpdateOp::Withdraw(prefix) => router.withdraw(prefix),
    }
}

impl<E: TableEngine> Control for TableControl<'_, E> {
    fn apply(&mut self, _burst: usize, op: &UpdateOp<u32>) {
        apply(&mut self.router.borrow_mut(), op);
    }

    fn publish(&mut self) {
        self.router.borrow_mut().publish();
    }

    fn visible(&mut self, _burst: usize, op: &UpdateOp<u32>) -> bool {
        let addr = op.prefix().addr();
        self.reader.current().lookup(addr) == self.router.borrow().control().lookup(addr)
    }

    fn counters(&self) -> Counters {
        let stats = self.router.borrow().stats();
        let spool = self.spool.map(SpoolCounters::counts).unwrap_or_default();
        Counters {
            in_place: stats.in_place,
            declined: stats.declined,
            rebuilds: stats.rebuilds,
            epochs: stats.epochs,
            spills: stats.spills,
            fsyncs: spool.fsyncs,
            journal_bytes: spool.journal_bytes,
            spill_bytes: spool.spill_bytes,
            renames: spool.renames,
        }
    }
}

/// Checks `keys` through the published snapshot's serving path against
/// the control plane's oracle; returns the mismatches.
fn mismatches<E: TableEngine>(router: &Router<u32, E>, keys: &[u32]) -> u64 {
    let snapshot = router.snapshot();
    let mut out = vec![None; BATCH];
    let mut wrong = 0u64;
    for chunk in keys.chunks(BATCH) {
        snapshot.lookup_stream(chunk, &mut out);
        wrong += chunk
            .iter()
            .zip(&out)
            .filter(|&(&key, &answer)| answer != router.control().lookup(key))
            .count() as u64;
    }
    wrong
}

/// Runs one single-table workload.
///
/// # Errors
/// The spool directory cannot be created, or the warm restart that ends
/// `churn-spool` cannot come up.
pub fn run<E: TableEngine>(
    spec: &TableSpec,
    plan: &Plan,
    seed: u64,
) -> Result<Outcome, Box<dyn std::error::Error>> {
    let seeds = Seeds::derive(seed);
    let mut out = Outcome::new(spec.name, seed, plan.quick);

    // Set-up, repeated so its median is steady; the last one is served.
    let (min_reps, budget) = plan.setup_reps();
    let (setup_s, setup) = repeat_set_up(min_reps, budget, || set_up::<E>(spec, plan, seeds));
    let TableSetup {
        router,
        ring,
        updates,
        hot,
        spool,
    } = setup?;
    let check_keys = &ring[..plan.check_keys.min(ring.len())];

    out.check(check_keys.len() as u64, mismatches(&router, check_keys));

    // Sizes, taken before any update so they depend on the seed alone.
    let served = router.snapshot();
    let slab_bytes = served.hot_slab().map_or(0, HotSlab::size_bytes);
    let engine = served
        .engine()
        .expect("a fresh router serves an owned engine");
    let fib_bytes = (engine.size_bytes() + slab_bytes) as f64;
    let entropy_bits = FibEntropy::of_trie(router.control()).entropy_bits();
    if plan.end_to_end {
        out.set("setup_s", setup_s);
        out.set("fib_bytes", fib_bytes);
        out.set("size_over_entropy", 8.0 * fib_bytes / entropy_bits);
    }

    // Per-layer measurements of the state set-up left.
    if plan.per_layer {
        engine_layers(
            spec, plan, seeds, &router, engine, &updates, &ring, &mut out,
        );
        if let Some(hot) = &hot {
            hot_layers(
                hot,
                &served,
                router.control(),
                &ring,
                plan.micro_keys,
                &mut out,
            );
        }
    }
    drop(served);

    // The measuring phases. The compile a per-layer run times between
    // passes builds from the live oracle: it absorbs bursts meanwhile, but
    // a few thousand updates in 410 513 routes do not move the build time.
    let router = RefCell::new(router);
    let compile = || {
        let heat = hot
            .as_ref()
            .map(|h| (h.summary.entries(), h.summary.depth()));
        black_box(E::build_weighted(
            router.borrow().control(),
            &spec.build,
            heat,
        ));
    };
    let sampler = hot.as_ref().map(|h| {
        let sketch = h.map.sketch(0);
        move |keys: &[u32]| {
            for &key in keys {
                sketch.record(key);
            }
        }
    });
    let serve = |length: Duration| -> ProductPass {
        let router = router.borrow();
        let pool = Forwarder::new();
        let config = forwarder_config(length);
        let rates = Arc::new(Mutex::new(Vec::new()));
        let source = |_| {
            let cursor = RingCursor::new(Arc::clone(&ring), 0);
            SlicedSource::new(cursor, plan.slice, Arc::clone(&rates))
        };
        let reports = match &hot {
            Some(hot) => pool.run_sampled(router.snap_cell(), &config, source, &hot.map),
            None => pool.run(router.snap_cell(), &config, source),
        };
        let slices = std::mem::take(&mut *rates.lock().expect("rates lock"));
        ProductPass {
            slices,
            mean_mlps: reports[0].mlookups_per_s(),
            failed: reports[0].drops + u64::from(reports[0].epoch_regressed),
        }
    };
    let reader = router.borrow().data_plane();
    let new_plane = || TablePlane::new(reader.clone());
    Phases {
        plan,
        new_plane: &new_plane,
        ring: &ring,
        heat: sampler.as_ref().map(|s| s as HeatHook<'_, u32>),
        control: TableControl {
            router: &router,
            reader: reader.clone(),
            spool: spool.as_ref().map(|s| &*s.counters),
        },
        // Serving workloads pay a full rebuild per publish, so their
        // bursts are short and few.
        feed: BurstFeed::new(&updates, spec.churn.map_or(100, |c| c.burst)),
        concurrent: spec.churn.is_some(),
        product_pass: spec.churn.is_none().then_some(&serve),
        fixed_bursts: match spec.churn {
            None => 2,
            Some(Churn { spool: true, .. }) => 8,
            Some(_) => 20,
        },
        compile: &compile,
    }
    .run(&mut out);
    let mut router = router.into_inner();

    if plan.per_layer {
        // What the micro-measured layers predict for one lookup of a
        // batch: the ring copy, a share of the snapshot pickup, the heat
        // record, and the slab probe in front of the engine walk the
        // slab's misses still take.
        let slab_misses = 1.0 - out.get("hot.hit_rate");
        let predicted = out.get("workload.fill_ns")
            + out.get("snapcell.get_ns") / BATCH as f64
            + out.get("heat.record_ns")
            + out.get("hot.probe_ns")
            + slab_misses * out.get("engine.stream_ns");
        note_agreement(&mut out, predicted);
    }

    // After the last publish the data plane must still answer as the
    // oracle does.
    out.check(check_keys.len() as u64, mismatches(&router, check_keys));

    if let Some(spool) = spool {
        // Leave half a burst journaled but unpublished, so the restart
        // has a journal to replay on top of the newest image.
        for op in &updates[updates.len() - 50..] {
            apply(&mut router, op);
        }
        finish_spool(spec, plan, router, &spool, check_keys, &mut out)?;
    }
    Ok(out)
}

/// Micro-measurements of the served engine and of the layers around it.
#[allow(clippy::too_many_arguments)]
fn engine_layers<E: TableEngine>(
    spec: &TableSpec,
    plan: &Plan,
    seeds: Seeds,
    router: &Router<u32, E>,
    engine: &E,
    updates: &[UpdateOp<u32>],
    ring: &[u32],
    out: &mut Outcome,
) {
    let control = router.control();
    let per_pass = plan.micro_keys;
    let check_keys = &ring[..plan.check_keys.min(ring.len())];
    out.set("engine.scalar_ns", scalar_ns(engine, ring, per_pass));
    out.set("engine.batch_ns", batch_ns(engine, ring, per_pass));
    out.set("engine.stream_ns", stream_ns(engine, ring, per_pass));

    let mut prober = engine.prober();
    let memory = memory_profile(check_keys.len(), |i, sink| prober(check_keys[i], sink));
    drop(prober);
    memory.record(out);

    // The generator the ring keeps out of the loop, at its live cost.
    let mut stream = AddrStream::new(spec.keys, control, seeds.keys, 1);
    let mut buf = Vec::with_capacity(BATCH);
    out.set(
        "workload.gen_ns",
        ns_per_key(per_pass, || {
            for _ in 0..per_pass / BATCH {
                stream.fill(&mut buf, BATCH);
                black_box(&buf);
            }
        }),
    );

    let mut reader = router.data_plane();
    let calls = 1usize << 20;
    out.set(
        "snapcell.get_ns",
        ns_per_key(calls, || {
            for _ in 0..calls {
                black_box(reader.current());
            }
        }),
    );

    // The same update stream against the oracle alone and against the
    // engine alone (static engines decline: their cost is the decline).
    let sample = &updates[..updates.len().min(50_000)];
    out.set("trie.update_ns", oracle_update_ns(control, sample));
    let mut scratch = engine.clone();
    let started = Instant::now();
    for op in sample {
        let _ = match *op {
            UpdateOp::Announce(prefix, next_hop) => scratch.try_insert(prefix, next_hop),
            UpdateOp::Withdraw(prefix) => scratch.try_remove(prefix),
        };
    }
    out.set(
        "engine.update_ns",
        started.elapsed().as_nanos() as f64 / sample.len() as f64,
    );
    out.set("engine.degradation", scratch.degradation());

    // The image the spool spills per epoch and a restart loads.
    let bytes = write_image(engine, Some(control), 0).expect("served engines have an image codec");
    out.set("image.bytes", bytes.len() as f64);
    let (encode, _) = timed_calls(3, Duration::ZERO, || {
        black_box(write_image(engine, Some(control), 0).is_ok());
    });
    out.set("image.encode_ms", encode * 1e3);
    let (load, _) = timed_calls(3, Duration::ZERO, || {
        let image = FibImage::from_bytes(&bytes).expect("just encoded");
        black_box(E::view(&image).is_ok());
    });
    out.set("image.load_ms", load * 1e3);

    if let Some((t_nodes, n_leaves, delta)) = engine.xbw_shape() {
        let (rank, select, access) = succinct_ns(t_nodes, n_leaves, delta, seeds.keys);
        out.set("succinct.rank_ns", rank);
        out.set("succinct.select_ns", select);
        out.set("succinct.access_ns", access);
    }
    if spec.matrix {
        engine_matrix(control, engine, ring, per_pass, out);
    }
}

/// The row a change to the engine spine is reviewed against: every
/// engine's stream figure and size on this workload's table and keys.
fn engine_matrix<E: TableEngine>(
    control: &BinaryTrie<u32>,
    served: &E,
    ring: &[u32],
    per_pass: usize,
    out: &mut Outcome,
) {
    let config = BuildConfig::default();
    let dag = PrefixDag::from_trie(control, config.lambda_for(control));
    // In `MATRIX_ENGINES` order; the last is the engine being served.
    let engines: [Box<dyn FibLookup<u32> + '_>; 8] = [
        Box::new(control),
        Box::new(LcTrie::with_params(control, config.fill, config.max_stride)),
        Box::new(XbwFib::build(control, XbwStorage::Succinct)),
        Box::new(XbwFib::build(control, XbwStorage::Entropy)),
        Box::new(&dag),
        Box::new(SerializedDag::from_dag(&dag)),
        Box::new(MultibitDag::from_trie(control, config.stride)),
        Box::new(served),
    ];
    for (name, engine) in MATRIX_ENGINES.iter().zip(&engines) {
        out.set(
            &format!("engine.{name}.stream_ns"),
            stream_ns(engine.as_ref(), ring, per_pass),
        );
        out.set(&format!("engine.{name}.bytes"), engine.size_bytes() as f64);
    }
}

/// The hot slab and the heat sketch, each on its own.
fn hot_layers<E: TableEngine>(
    hot: &HotSetup,
    served: &EpochSnapshot<E>,
    control: &BinaryTrie<u32>,
    ring: &[u32],
    per_pass: usize,
    out: &mut Outcome,
) {
    let slab = served
        .hot_slab()
        .expect("publish_hot attaches a slab")
        .as_ref();
    let hits = ring
        .iter()
        .filter(|&&key| slab.probe_addr(key).is_some())
        .count();
    out.set("hot.hit_rate", hits as f64 / ring.len() as f64);
    out.set(
        "hot.probe_ns",
        ns_per_ring_key(ring, per_pass, |keys| {
            for &key in keys {
                black_box(slab.probe_addr(black_box(key)));
            }
        }),
    );
    let config = HotConfig::for_width(32);
    let (compile, _) = timed_calls(3, Duration::ZERO, || {
        black_box(HotSlab::compile(control, hot.summary.entries(), &config));
    });
    out.set("hot.compile_ms", compile * 1e3);
    out.set("hot.coverage", hot.stats.coverage);
    out.set("router.publish_hot_ms", hot.publish_hot_ms);

    // A sketch of the serving size, recording the ring as a worker
    // does: new blocks claim slots until it is full, the rest count.
    let map = HeatMap::new(1, config.depth, HEAT_SLOTS);
    let sketch = map.sketch(0);
    out.set(
        "heat.record_ns",
        ns_per_ring_key(ring, per_pass, |keys| {
            for &key in keys {
                sketch.record(key);
            }
        }),
    );
    let (merge, _) = timed_calls(3, Duration::ZERO, || {
        black_box(map.merged());
    });
    out.set("heat.merge_ms", merge * 1e3);
}

/// Ends `churn-spool`: the spool must be healthy, and a warm restart
/// from its directory must serve every acknowledged update.
fn finish_spool<E: TableEngine>(
    spec: &TableSpec,
    plan: &Plan,
    router: Router<u32, E>,
    spool: &SpoolSetup,
    check_keys: &[u32],
    out: &mut Outcome,
) -> Result<(), Box<dyn std::error::Error>> {
    let healthy = |health: Option<SpoolHealth>| u64::from(health != Some(SpoolHealth::Healthy));
    out.check(1, healthy(router.spool_health()));
    let acknowledged = router.stats().updates;
    let expected: HashSet<(Prefix<u32>, NextHop)> = router.control().iter().collect();
    drop(router);

    let started = Instant::now();
    let mut restored: Router<u32, E> = Router::warm_restart_with(
        spool.fs.clone(),
        spool.dir.path(),
        router_config(spec.build),
        SpoolConfig::default(),
    )?;
    let restart_ms = started.elapsed().as_secs_f64() * 1e3;
    let recovered: HashSet<(Prefix<u32>, NextHop)> = restored.control().iter().collect();
    let lost = expected.symmetric_difference(&recovered).count() as u64;
    out.check(acknowledged, lost);
    restored.publish();
    out.check(check_keys.len() as u64, mismatches(&restored, check_keys));
    out.check(1, healthy(restored.spool_health()));
    if plan.per_layer {
        let (sync_us, write_us) = spool.counters.p50_us();
        out.set("router.warm_restart_ms", restart_ms);
        out.set("spoolfs.sync_us_p50", sync_us);
        out.set("spoolfs.write_us_p50", write_us);
    }
    Ok(())
}
