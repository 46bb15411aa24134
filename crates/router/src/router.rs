//! The single-table router core: a control plane driving
//! epoch-snapshotted data-plane engines, with optional FIB-image
//! persistence and warm restart.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::lifecycle::{encode_record, RestartError, Spool, SpoolConfig, SpoolHealth};
use crate::publish::Publisher;
use crate::snapcell::{SnapCell, SnapReader};
use crate::spoolfs::{SpoolFs, StdFs};

use fib_core::{
    write_image, BuildConfig, FibBuild, FibImage, FibLookup, FibUpdate, HotConfig, HotFront,
    HotSlab, HotStats, ImageCodec, ImageError,
};
use fib_trie::{Address, BinaryTrie, NextHop, Prefix};
use fib_workload::{HeatMap, HeatSummary};

/// Policy knobs of a [`Router`].
#[derive(Clone, Copy, Debug)]
pub struct RouterConfig {
    /// How data-plane engines are (re)built from the control FIB. The
    /// λ barrier in here is the paper's update-cost/size dial: it decides
    /// both how expensive in-place pDAG updates are and how much work a
    /// full re-fold costs.
    pub build: BuildConfig,
    /// Auto-publish a new epoch snapshot after this many updates
    /// (`None` = only on explicit [`Router::publish`] calls).
    pub publish_every: Option<usize>,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self {
            build: BuildConfig::default(),
            publish_every: Some(1024),
        }
    }
}

/// When the working engine's [`FibUpdate::degradation`] exceeds this, the
/// update that pushed it there compacts the engine in line
/// ([`Router::start_rebuild`]). pDAG degradation is arena fragmentation
/// from λ-barrier refolds, and BGP churn rarely gets here: on the
/// benchmark's stream (`bgp_sequence` over taz, table seed `0xF1B`) it
/// peaks at 0.024 over 2 M updates at taz 1.0 and 0.18 at taz 0.1; only
/// taz 0.02 crossed it (0.27 after 200 k updates), where the re-fold costs
/// 0.4 ms — 18 ms at taz 1.0.
const DEGRADATION_THRESHOLD: f64 = 0.25;

/// What a published snapshot serves from: an owned engine (the normal
/// path) or a loaded FIB image whose zero-copy view answers lookups (a
/// warm restart until its first rebuild, or `fibc serve`).
enum SnapEngine<E> {
    Owned(E),
    Image(FibImage),
}

impl<E> std::fmt::Debug for SnapEngine<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Owned(_) => f.write_str("SnapEngine::Owned"),
            Self::Image(img) => write!(f, "SnapEngine::Image(epoch {})", img.epoch()),
        }
    }
}

/// An immutable data-plane image: the engine state the router published at
/// one epoch. Handed out as an [`Arc`], so packet-path readers keep a
/// consistent view for as long as they hold it while the control plane
/// swaps newer epochs in behind them.
///
/// A published engine is a *lookup structure*: it answers every read-only
/// method as the router's working engine did when the epoch was cut, and
/// nothing more — the control FIB lives in the router
/// ([`Router::control`]), and an engine that publishes only its data-plane
/// half ([`fib_core::PrefixDag`]) declines updates here.
#[derive(Debug)]
pub struct EpochSnapshot<E> {
    epoch: u64,
    routes: usize,
    engine: SnapEngine<E>,
    /// Traffic-pinned hot blocks, gated, in front of the engine walk (a
    /// hot publish or an image that carries a slab attaches one; plain
    /// publishes carry none).
    hot: Option<HotFront>,
}

impl<E> EpochSnapshot<E> {
    /// Monotonic epoch counter (0 = the initial build).
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of routes in the control FIB when this epoch was cut.
    #[must_use]
    pub fn routes(&self) -> usize {
        self.routes
    }

    /// The engine this epoch serves from — what
    /// [`FibUpdate::publish_copy`] made of the working engine: a lookup
    /// structure, not something to update (epoch 0 alone is a full clone
    /// of the engine [`Router::new`] built). `None` when this snapshot
    /// serves straight from a loaded FIB image ([`Self::from_image`]).
    #[must_use]
    pub fn engine(&self) -> Option<&E> {
        match &self.engine {
            SnapEngine::Owned(e) => Some(e),
            SnapEngine::Image(_) => None,
        }
    }

    /// Whether lookups are served from a borrowed FIB image.
    #[must_use]
    pub fn is_image_backed(&self) -> bool {
        matches!(self.engine, SnapEngine::Image(_))
    }

    /// The traffic-pinned hot slab this epoch serves from, if the
    /// publish attached one (see [`Router::publish_hot`]).
    #[must_use]
    pub fn hot_slab(&self) -> Option<&HotSlab> {
        self.hot.as_ref().map(HotFront::slab)
    }

    /// What the slab's gate currently decides: `Some(true)` while the
    /// measured slab hit rate sits below the break-even calibrated against
    /// this epoch's engine and lookups go straight to the walk,
    /// `Some(false)` while they probe the slab first, `None` without a
    /// slab. Answers are identical either way.
    #[must_use]
    pub fn hot_bypassed(&self) -> Option<bool> {
        self.hot.as_ref().map(HotFront::bypassed)
    }

    /// A snapshot that serves lookups straight from `image`'s zero-copy
    /// view — what a warm restart publishes and what `fibc serve` runs its
    /// forwarding workers over. The image's first [`ImageCodec::view`]
    /// validates it in full (here, unless an earlier view did) and the
    /// image records that, so the view the snapshot's lookups assemble
    /// once per call (per batch on the batch paths) skips the O(n) scans.
    /// Epoch and route count come from the header. A
    /// [`HOT_SLAB`](fib_core::image::sections::HOT_SLAB) section goes in
    /// front of the view behind the same calibrated [`HotFront`] a
    /// [`Router::publish_hot`] attaches.
    ///
    /// # Errors
    /// Any [`ImageError`] of `E`'s view, including an image of another
    /// engine or address family, or a malformed slab section.
    pub fn from_image<A: Address>(image: FibImage) -> Result<Arc<Self>, ImageError>
    where
        E: ImageCodec<A>,
    {
        let epoch = image.epoch();
        Self::over_image(image, epoch).map(Arc::new)
    }

    /// [`Self::from_image`] served as `epoch`.
    fn over_image<A: Address>(image: FibImage, epoch: u64) -> Result<Self, ImageError>
    where
        E: ImageCodec<A>,
    {
        E::view(&image)?;
        let slab = image.hot_slab()?.map(HotSlab::from);
        let routes = image.route_count() as usize;
        Ok(Self::cut(epoch, routes, SnapEngine::Image(image), slab))
    }

    /// Cuts a snapshot. A `slab` goes in front of the engine behind a gate
    /// calibrated against the snapshot's own scalar walk (≈3k probes and
    /// walks: microseconds beside the engine clone or image load before).
    fn cut<A: Address>(
        epoch: u64,
        routes: usize,
        engine: SnapEngine<E>,
        slab: Option<HotSlab>,
    ) -> Self
    where
        E: ImageCodec<A>,
    {
        let mut snapshot = Self {
            epoch,
            routes,
            engine,
            hot: None,
        };
        snapshot.hot = slab.map(|slab| HotFront::calibrated(slab, |a| snapshot.lookup(a)));
        snapshot
    }

    /// Runs `serve` on the engine behind the slab: the owned one, or the
    /// image's zero-copy view, assembled once per call. The image's view
    /// at install left its record, so this one skips the O(n) scans.
    fn with_engine<A: Address, R>(&self, serve: impl FnOnce(&dyn FibLookup<A>) -> R) -> R
    where
        E: ImageCodec<A>,
    {
        match &self.engine {
            SnapEngine::Owned(e) => serve(e),
            SnapEngine::Image(img) => {
                serve(&E::view(img).expect("the image recorded its view at install"))
            }
        }
    }

    /// Longest-prefix-match on the snapshot.
    ///
    /// # Panics
    /// Panics if an image-backed snapshot's view failed — impossible, as
    /// the image keeps the record of the view that installed it.
    #[must_use]
    pub fn lookup<A: Address>(&self, addr: A) -> Option<NextHop>
    where
        E: ImageCodec<A>,
    {
        // Statically dispatched, unlike the batch entry points: a scalar
        // caller's loop should inline the walk.
        let walk = |addr| match &self.engine {
            SnapEngine::Owned(e) => e.lookup(addr),
            SnapEngine::Image(img) => E::view(img)
                .expect("the image recorded its view at install")
                .lookup(addr),
        };
        match &self.hot {
            Some(front) => front.lookup(addr, walk),
            None => walk(addr),
        }
    }

    /// Batched longest-prefix-match on the snapshot.
    ///
    /// # Panics
    /// Panics if `out` is shorter than `addrs`, or as [`Self::lookup`].
    pub fn lookup_batch<A: Address>(&self, addrs: &[A], out: &mut [Option<NextHop>])
    where
        E: ImageCodec<A>,
    {
        self.with_engine(|engine| match &self.hot {
            Some(front) => front.lookup_batch(addrs, out, |a, o| engine.lookup_batch(a, o)),
            None => engine.lookup_batch(addrs, out),
        });
    }

    /// [`Self::lookup_batch`] under the name the serving loop calls (see
    /// [`FibLookup::lookup_stream`]).
    ///
    /// # Panics
    /// As [`Self::lookup_batch`].
    pub fn lookup_stream<A: Address>(&self, addrs: &[A], out: &mut [Option<NextHop>])
    where
        E: ImageCodec<A>,
    {
        self.lookup_batch(addrs, out);
    }
}

/// A cloneable reader handle onto a router's published snapshot — what a
/// forwarding thread owns. The packet path is **lock-free**: while no new
/// epoch has been published, [`DataPlane::current`] is one atomic
/// generation-counter load returning the cached snapshot; after a publish
/// the refresh goes through the hazard-slot protocol of
/// [`SnapCell`](crate::SnapCell), still without ever blocking on a lock.
///
/// The handle caches state, so the methods take `&mut self`: each
/// forwarding thread owns its own (cheap) clone instead of sharing one
/// behind a reference.
#[derive(Debug)]
pub struct DataPlane<E: Send + Sync + 'static> {
    reader: SnapReader<EpochSnapshot<E>>,
}

impl<E: Send + Sync + 'static> Clone for DataPlane<E> {
    fn clone(&self) -> Self {
        Self {
            reader: self.reader.clone(),
        }
    }
}

impl<E: Send + Sync + 'static> DataPlane<E> {
    /// The currently published snapshot, as a borrowed handle (the
    /// wait-free fast path — no `Arc` refcount traffic while the
    /// generation is unchanged).
    #[must_use]
    pub fn current(&mut self) -> &Arc<EpochSnapshot<E>> {
        self.reader.get()
    }

    /// The currently published snapshot, as an owned `Arc` (compatibility
    /// shape; prefer [`Self::current`] on the packet path).
    #[must_use]
    pub fn snapshot(&mut self) -> Arc<EpochSnapshot<E>> {
        Arc::clone(self.reader.get())
    }

    /// The publication generation of the snapshot [`Self::current`] would
    /// return (monotonic; starts at 1).
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.reader.generation()
    }
}

/// What a control plane has done so far, and the state it serves in: the
/// one report of a [`Router`] and of a [`VrfSetRouter`]. A field marked
/// "only" is set by that router alone (the other reads 0, `None` or
/// `false`); both set the rest. The publish half — [`Self::epochs`], the
/// record counters, build panics and [`Self::serving_stale`] — is counted
/// for both by the publish core they share. Forwarding never stops in any
/// state it reports: what degrades is durability and freshness.
///
/// [`VrfSetRouter`]: crate::VrfSetRouter
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RouterStats {
    /// Updates accepted by the control plane:
    /// `in_place + declined + unchanged`. A fleet counts its announces
    /// and withdraws; a whole table installed or removed is no update.
    pub updates: u64,
    /// Updates the working engine absorbed in place; on a fleet, those
    /// that changed their VRF's pDAG.
    pub in_place: u64,
    /// [`Router`] only: updates the working engine declined
    /// ([`fib_core::RebuildNeeded`]), so that it is rebuilt at the next
    /// publish, and the [`Self::unchanged`] updates of that same publish
    /// interval, which the rebuild covers: a static engine counts every
    /// update of an interval that changed a route, wherever its no-ops
    /// fall.
    pub declined: u64,
    /// Updates that left the control FIB as it was — a re-announce of the next-hop a prefix already had, a withdraw of a
    /// prefix it did not hold. They never reach the working engine (a
    /// spool journals them), so they make no static engine stale and leave
    /// a fleet's VRF clean, and a publish after nothing but these reuses
    /// the published snapshot. On a [`Router`], until a later update of
    /// the same interval is declined: then they move to
    /// [`Self::declined`].
    pub unchanged: u64,
    /// Snapshots published, the initial one included.
    pub epochs: u64,
    /// [`Router`] only: engine rebuilds from the control FIB installed as
    /// the working engine, all on the control thread — at a publish that
    /// found the working engine stale or absent, or a compaction
    /// ([`Router::start_rebuild`]) — however they were compiled.
    pub rebuilds: u64,
    /// [`Router`] only: the rebuilds among [`Self::rebuilds`] that
    /// [`FibBuild::rebuild_from`] served from the previous engine;
    /// `rebuilds − warm_rebuilds` were cold [`FibBuild::build_weighted`]
    /// compiles.
    pub warm_rebuilds: u64,
    /// [`Router`] only: spool journal records a warm restart replayed onto
    /// the restored control FIB.
    pub replayed: u64,
    /// [`Router`] only: epoch images spilled to the spool directory.
    pub spills: u64,
    /// [`VrfSetRouter`](crate::VrfSetRouter) only: tables re-interned
    /// into the arena or rebuilt on a dedicated engine, summed over its
    /// publishes.
    pub tables_refolded: u64,
    /// [`VrfSetRouter`](crate::VrfSetRouter) only: tables carried over
    /// from the previously published set untouched, summed over its
    /// publishes.
    pub tables_carried: u64,
    /// Records the published snapshots hold that the snapshot published
    /// before each did not: those appended to the record log (a
    /// pDAG's, or a fleet's arena) since, or all of a new log
    /// ([`fib_core::ArenaPublish`]). An engine published as a clone counts
    /// none.
    pub records_written: u64,
    /// Publishes whose readers read the record log the snapshot published
    /// before read, appended to.
    pub recycled: u64,
    /// Publishes whose readers moved to a new record log, which core's
    /// `RecordLog` alone decides: a BFS repack of the live records — the first
    /// publish of every newly built pDAG or fleet arena, a pDAG publish
    /// that found its log full, a fleet's compaction — or a fleet log
    /// that filled mid-sync and grew into a buffer twice its size.
    /// `recycled + compactions` counts every publish from a record log.
    pub compactions: u64,
    /// [`Router`] only: spool persistence health (`None`: no spool armed).
    pub spool: Option<SpoolHealth>,
    /// [`Router`] only: Degraded/Suspended → Healthy spool transitions
    /// (each one re-spilled and re-verified the newest epoch).
    pub spool_recoveries: u64,
    /// [`Router`] only: images moved to `spool/quarantine/` (restart +
    /// scrub).
    pub quarantined: u64,
    /// Engine builds (on a fleet, arena syncs) that panicked and were
    /// contained instead of unwinding into the caller.
    pub rebuild_panics: u64,
    /// Message of the most recent contained build panic.
    pub last_rebuild_panic: Option<String>,
    /// The published snapshot no longer reflects the control state
    /// because the last publish's build panicked; the last good
    /// epoch keeps serving until a publish succeeds.
    pub serving_stale: bool,
}

/// A software router split along the paper's §5 architecture: a slow
/// control plane owning the oracle [`BinaryTrie`], and a fast data plane
/// serving immutable, `Arc`-swapped epoch snapshots of a compressed
/// engine.
///
/// Updates flow control-first: every change lands in the control FIB, then
/// the router tries the engine's in-place path ([`FibUpdate`]). Engines
/// with λ-barrier updates (the prefix DAG) absorb them directly; static
/// images decline and are rebuilt from the control FIB at the next
/// [`publish`](Self::publish). Every rebuild runs on the control thread,
/// through one call: at a publish that finds the working engine stale, or
/// at [`Self::start_rebuild`], which the update that pushes the working
/// engine's [`FibUpdate::degradation`] past 0.25 makes itself — a
/// compaction BGP churn rarely asks for (see `start_rebuild`).
///
/// With a spool enabled ([`Self::enable_spool`]), every accepted update is
/// written to an on-disk journal, every [`publish`](Self::publish) makes
/// the journal durable with one sync, and a full `fibimage/v1` checkpoint
/// is spilled only when the journal outgrows its fold threshold — so
/// [`Self::warm_restart`] can bring a dead router back in image-load plus
/// journal-replay time: the data plane serves the zero-copy image view
/// immediately while the owned engine is rebuilt lazily at the next
/// publish.
///
/// The engine bound includes [`ImageCodec`] unconditionally (not just on
/// the spool methods) because [`EpochSnapshot::lookup`] must be able to
/// dispatch into an image-backed snapshot: which variant a snapshot holds
/// is a runtime property, so the capability has to be part of the type.
/// Every Table 2 engine implements the codec; an engine without one can
/// still serve as a plain [`FibLookup`] data plane outside the router.
pub struct Router<A: Address, E: Send + Sync + 'static> {
    config: RouterConfig,
    control: BinaryTrie<A>,
    /// The engine updates apply to. `None` after a warm restart: the data
    /// plane serves the loaded image and the owned engine is built on the
    /// next publish.
    working: Option<E>,
    /// The working engine no longer reflects `control` (static engine
    /// declined an update); it must be rebuilt before the next publish.
    stale: bool,
    /// The publish half: epoch, readers' cell, contained builds and this
    /// router's [`RouterStats`].
    publisher: Publisher<EpochSnapshot<E>>,
    /// Updates since the last publish (the auto-publish cadence).
    since_publish: usize,
    /// Of those, the ones counted [`RouterStats::unchanged`]: all of
    /// them, while the control FIB is as the published epoch has it.
    unchanged_since_publish: usize,
    spool: Option<Spool>,
    /// The last merged traffic interval, in `HeatSummary` entry shape.
    /// Threaded into every engine (re)build so heat-aware engines (the
    /// variable-stride DAG) re-stride their layout for measured traffic;
    /// heat-blind engines ignore it.
    heat_profile: Option<(Vec<(u64, u64)>, u8)>,
}

impl<A, E> Router<A, E>
where
    A: Address + Send + Sync + 'static,
    E: FibLookup<A> + FibBuild<A> + FibUpdate<A> + ImageCodec<A> + Clone + Send + Sync + 'static,
{
    /// Builds the initial engine from `control` and publishes epoch 0.
    #[must_use]
    pub fn new(control: BinaryTrie<A>, config: RouterConfig) -> Self {
        let working = E::build(&control, &config.build);
        let snapshot =
            EpochSnapshot::cut(0, control.len(), SnapEngine::Owned(working.clone()), None);
        Self::serving(config, control, Some(working), snapshot)
    }

    /// A router over `control` whose data plane serves `snapshot`, with
    /// nothing pending and no spool.
    fn serving(
        config: RouterConfig,
        control: BinaryTrie<A>,
        working: Option<E>,
        snapshot: EpochSnapshot<E>,
    ) -> Self {
        Self {
            config,
            control,
            working,
            stale: false,
            publisher: Publisher::new(snapshot.epoch(), snapshot),
            since_publish: 0,
            unchanged_since_publish: 0,
            spool: None,
            heat_profile: None,
        }
    }

    /// Builds an engine from the control FIB as it stands and installs it
    /// as the working engine — the router's one compile call:
    /// [`FibBuild::rebuild_from`] the working engine it replaces when
    /// that engine takes the job, a cold [`FibBuild::build_weighted`]
    /// otherwise. Returns whether one was installed: a build that panics
    /// is contained and leaves the previous working engine in place.
    fn materialize(&mut self) -> bool {
        let heat = self
            .heat_profile
            .as_ref()
            .map(|(entries, depth)| (entries.as_slice(), *depth));
        let Some((engine, warm)) = self.publisher.build(|| {
            let (control, build) = (&self.control, &self.config.build);
            match self
                .working
                .as_ref()
                .and_then(|p| E::rebuild_from(p, control, build, heat))
            {
                Some(engine) => (engine, true),
                None => (E::build_weighted(control, build, heat), false),
            }
        }) else {
            return false;
        };
        self.working = Some(engine);
        self.stale = false;
        self.publisher.stats.rebuilds += 1;
        self.publisher.stats.warm_rebuilds += u64::from(warm);
        true
    }

    /// Rebuilds a router from the newest valid epoch image in `dir` plus
    /// the journal stamped with that image's epoch — the warm-restart path
    /// (see [Recovery](crate::lifecycle#recovery) for the rule and the
    /// quarantine of corrupt images).
    ///
    /// The published snapshot serves lookups **directly from the loaded
    /// image** (zero-copy view), so forwarding resumes in image-load time
    /// instead of engine-rebuild time. The control FIB is the image's
    /// routes section plus the journal's records, which reach the data
    /// plane at the next [`publish`](Self::publish), exactly like any
    /// other pending update.
    ///
    /// # Errors
    /// [`RestartError`] when the directory cannot be scanned or holds no
    /// valid image for this engine and address family.
    pub fn warm_restart(dir: impl AsRef<Path>, config: RouterConfig) -> Result<Self, RestartError> {
        Self::warm_restart_with(StdFs::shared(), dir, config, SpoolConfig::default())
    }

    /// [`Self::warm_restart`] over an explicit filesystem and spool
    /// policy — the seam the crash-recovery harness drives with a
    /// [`FaultFs`](crate::spoolfs::FaultFs) frozen at an arbitrary crash
    /// point.
    ///
    /// # Errors
    /// As [`Self::warm_restart`].
    pub fn warm_restart_with(
        fs: Arc<dyn SpoolFs>,
        dir: impl AsRef<Path>,
        config: RouterConfig,
        spool_cfg: SpoolConfig,
    ) -> Result<Self, RestartError> {
        let (spool, image, epoch, records) =
            Spool::recover(fs, dir.as_ref(), spool_cfg, A::WIDTH, |image| {
                E::view(image).map(drop)
            })?;
        let mut control = image.routes::<A>().map_err(RestartError::Image)?;
        for &(tag, len, nh, addr) in &records {
            let prefix = Prefix::new(A::from_u128(addr), len);
            if tag == b'W' {
                control.remove(prefix);
            } else {
                control.insert(prefix, NextHop::new(nh));
            }
        }

        // Served under the epoch the spool names the image by, which the
        // journal rule keyed on; the view `recover` ran left its record.
        let snapshot = EpochSnapshot::over_image(image, epoch).map_err(RestartError::Image)?;
        let mut router = Self::serving(config, control, None, snapshot);
        router.stale = !records.is_empty();
        router.since_publish = records.len();
        router.publisher.stats.replayed = records.len() as u64;
        router.spool = Some(spool);
        Ok(router)
    }

    /// Arms FIB-image persistence (see [`crate::lifecycle`]): the current
    /// state is spilled to `dir` as a `fibimage/v1` file (routes section
    /// included) at once, every accepted update is appended to
    /// `dir/journal.log`, and every [`Self::publish`] syncs it. An update
    /// is durable once the `publish()` after it returns with
    /// [`Self::spool_health`] `Healthy`; a crash loses at most the
    /// unpublished tail.
    ///
    /// # Errors
    /// Only directory creation can fail hard; any later write failure
    /// degrades [`RouterStats::spool`] instead of returning an error.
    pub fn enable_spool(&mut self, dir: impl Into<PathBuf>) -> std::io::Result<()> {
        self.enable_spool_with(StdFs::shared(), dir, SpoolConfig::default())
    }

    /// [`Self::enable_spool`] over an explicit filesystem and spool
    /// policy (retention depth, fold threshold, retry schedule).
    ///
    /// # Errors
    /// Only directory creation can fail hard; any later write failure
    /// degrades [`RouterStats::spool`] instead of returning an error.
    pub fn enable_spool_with(
        &mut self,
        fs: Arc<dyn SpoolFs>,
        dir: impl Into<PathBuf>,
        cfg: SpoolConfig,
    ) -> std::io::Result<()> {
        self.spool = Some(Spool::arm(fs, dir.into(), cfg)?);
        // Base spill: image + journal header for the *current* epoch.
        self.spill_current(false);
        Ok(())
    }

    /// Spool persistence health (`None`: no spool armed):
    /// [`RouterStats::spool`].
    #[must_use]
    pub fn spool_health(&self) -> Option<SpoolHealth> {
        self.stats().spool
    }

    /// Operator re-arm after a suspended (or degraded) spool's root
    /// cause is fixed (disk freed, volume remounted): resets the retry
    /// budget and immediately attempts a recovery re-spill of the
    /// current epoch. Returns the resulting health (`None`: no spool).
    pub fn resume_spool(&mut self) -> Option<SpoolHealth> {
        self.spool.as_mut()?.resume();
        self.respill();
        self.spool_health()
    }

    /// Background scrub: lints every epoch image in the spool and moves
    /// failures to `spool/quarantine/` with typed reasons. If the
    /// current epoch's own image was among the casualties, it is
    /// re-spilled. Returns how many images were quarantined.
    pub fn scrub_spool(&mut self) -> usize {
        let (moved, lost_current) = self.spool.as_mut().map_or((0, false), Spool::scrub);
        if lost_current {
            self.respill();
        }
        moved
    }

    /// Journals one accepted update — an announce of `next_hop`, or a
    /// withdraw when it is `None` — or, once a degraded spool's retry is
    /// due, re-spills the current epoch instead.
    fn spool_append(&mut self, prefix: Prefix<A>, next_hop: Option<NextHop>) {
        let Some(spool) = self.spool.as_mut() else {
            return;
        };
        let (tag, nh) = next_hop.map_or((b'W', 0), |nh| (b'A', nh.index()));
        let rec = encode_record(tag, prefix.len(), nh, prefix.addr().to_u128());
        if spool.append(&rec) {
            self.respill();
        }
    }

    /// The durability half of a publish ([`Spool::commit`]).
    fn commit_spool(&mut self) {
        if let Some(spool) = self.spool.as_mut() {
            spool.commit();
        }
    }

    /// A recovery re-spill, landed under an epoch no image carries yet:
    /// when the newest image is the current epoch's — no publish since it
    /// landed — an epoch is cut first, so the journal stamped with that
    /// image's epoch can never be replayed over the image that replaces
    /// it. When no epoch can be cut (the engine does not build), nothing
    /// is spilled and the next retry tries again.
    fn respill(&mut self) {
        let epoch = self.publisher.epoch();
        if self
            .spool
            .as_ref()
            .is_some_and(|spool| spool.respills_over(epoch))
            && self.cut_epoch(None).is_none()
        {
            self.publisher.serve_stale();
            return;
        }
        self.spill_current(true);
    }

    /// Spills the current control state + working engine as the current
    /// epoch's image when the spool says one is due ([`Spool::spill`];
    /// `force` for a recovery re-spill). No-op without a spool.
    fn spill_current(&mut self, force: bool) {
        let Some(mut spool) = self.spool.take() else {
            return;
        };
        let epoch = self.publisher.epoch();
        let spilled = spool.spill(epoch, force, || {
            // The spilled engine must reflect `control` exactly;
            // materialize it if needed (same rule publish applies).
            if (self.stale || self.working.is_none()) && !self.materialize() {
                return None;
            }
            let engine = self.working.as_ref()?;
            Some(write_image(engine, Some(&self.control), epoch))
        });
        self.publisher.stats.spills += u64::from(spilled);
        self.spool = Some(spool);
    }

    /// The control-plane oracle.
    #[must_use]
    pub fn control(&self) -> &BinaryTrie<A> {
        &self.control
    }

    /// Number of live routes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.control.len()
    }

    /// Whether the FIB holds no routes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.control.is_empty()
    }

    /// Epoch of the currently published snapshot.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.publisher.epoch()
    }

    /// What this router has done so far, and its spool and build health.
    #[must_use]
    pub fn stats(&self) -> RouterStats {
        let mut stats = self.publisher.stats.clone();
        if let Some(spool) = &self.spool {
            spool.count(&mut stats);
        }
        stats
    }

    /// A reader handle for forwarding threads (lock-free snapshot reads).
    #[must_use]
    pub fn data_plane(&self) -> DataPlane<E> {
        DataPlane {
            reader: self.publisher.cell().reader(),
        }
    }

    /// The publication cell itself, for runtimes that want to register
    /// readers directly (see [`crate::Forwarder`]).
    #[must_use]
    pub fn snap_cell(&self) -> &SnapCell<EpochSnapshot<E>> {
        self.publisher.cell()
    }

    /// The currently published snapshot (control-path read; forwarding
    /// threads should hold a [`DataPlane`]).
    #[must_use]
    pub fn snapshot(&self) -> Arc<EpochSnapshot<E>> {
        self.publisher.cell().load()
    }

    /// Convenience lookup on the published snapshot. Forwarding threads
    /// should hold a [`DataPlane`] instead and amortize the snapshot fetch
    /// over whole batches.
    #[must_use]
    pub fn lookup(&self, addr: A) -> Option<NextHop> {
        self.snapshot().lookup(addr)
    }

    /// Announces (inserts or replaces) a route. Journaled like every
    /// update; a re-announce of the next-hop the control FIB already holds
    /// stops there ([`RouterStats::unchanged`]): the working engine is not
    /// touched, and a static one is not made stale by it.
    pub fn announce(&mut self, prefix: Prefix<A>, next_hop: NextHop) {
        let old = self.control.insert(prefix, next_hop);
        self.spool_append(prefix, Some(next_hop));
        self.apply_to_working(old != Some(next_hop), |w| {
            w.try_insert(prefix, next_hop).map(|_| ())
        });
        self.after_update();
    }

    /// Withdraws a route. Journaled like every update; withdrawing a
    /// prefix the control FIB does not hold stops there, as a
    /// same-next-hop [`Self::announce`] does.
    pub fn withdraw(&mut self, prefix: Prefix<A>) {
        let old = self.control.remove(prefix);
        self.spool_append(prefix, None);
        self.apply_to_working(old.is_some(), |w| w.try_remove(prefix).map(|_| ()));
        self.after_update();
    }

    /// Runs an in-place update against the working engine, tracking the
    /// stale flag and counters — unless the update left the control FIB
    /// as it was (`changed` false), which leaves the engine and the flag
    /// alone. A missing engine (warm restart) counts as declined, and so
    /// does every update of an interval once one is declined.
    fn apply_to_working(
        &mut self,
        changed: bool,
        f: impl FnOnce(&mut E) -> Result<(), fib_core::RebuildNeeded>,
    ) {
        let stats = &mut self.publisher.stats;
        stats.updates += 1;
        if !changed && !self.stale {
            stats.unchanged += 1;
            self.unchanged_since_publish += 1;
        } else if changed && !self.stale && self.working.as_mut().is_some_and(|w| f(w).is_ok()) {
            stats.in_place += 1;
        } else {
            // The rebuild this decline calls for covers the interval's
            // earlier no-ops too.
            let covered = std::mem::take(&mut self.unchanged_since_publish) as u64;
            stats.unchanged -= covered;
            stats.declined += covered + 1;
            self.stale = true;
        }
    }

    fn after_update(&mut self) {
        self.since_publish += 1;
        // λ-barrier-aware maintenance: in-place updates are cheap, but
        // refolds fragment the arena; past the threshold, compact — unless
        // the last build failed (no panic storm on a poisoned control
        // state).
        if !self.stale
            && !self.publisher.failing()
            && self
                .working
                .as_ref()
                .is_some_and(|w| w.degradation() > DEGRADATION_THRESHOLD)
        {
            self.start_rebuild();
        }
        if let Some(every) = self.config.publish_every {
            if self.since_publish >= every {
                self.publish();
                return;
            }
        }
        // Journal compaction: once the on-disk journal outgrows the fold
        // threshold, cut an epoch — its publish spills a fresh image that
        // subsumes every journaled record and resets the journal onto it.
        if self.spool.as_ref().is_some_and(Spool::wants_fold) {
            self.publish();
        }
    }

    /// Compacts now: rebuilds the working engine from the control FIB on
    /// this thread, offering it the previous one first
    /// ([`FibBuild::rebuild_from`]). The update that pushes the working
    /// engine's [`FibUpdate::degradation`] past 0.25 calls this itself —
    /// BGP churn rarely does (see [`PrefixDag::fragmentation`] for the
    /// measured peaks), and the re-fold is 18 ms at taz 1.0. A build that
    /// panics is contained: it is counted in
    /// [`RouterStats::rebuild_panics`], the old
    /// working engine keeps serving, and the degradation check compacts
    /// nothing more until a build succeeds.
    ///
    /// [`PrefixDag::fragmentation`]: fib_core::PrefixDag::fragmentation
    pub fn start_rebuild(&mut self) {
        self.materialize();
    }

    /// Cuts and publishes a new epoch snapshot reflecting the control FIB
    /// exactly as of this call. With a spool armed this is the durability
    /// point: one sync makes every update journaled so far durable, so
    /// when it returns with [`Self::spool_health`] `Healthy`, a crash
    /// loses none of them. The epoch is spilled as a full image only when
    /// the journal has outgrown [`SpoolConfig::journal_fold_bytes`].
    /// When no update since the last publish changed the control FIB
    /// (none came, or all were [`RouterStats::unchanged`]), no epoch is
    /// cut: the journal is committed and the served snapshot returned.
    ///
    /// The snapshot's engine is [`FibUpdate::publish_copy`] of the working
    /// engine — a lookup structure, answering as the working engine does
    /// at this call; the control FIB stays here ([`Self::control`]). The
    /// prefix DAG publishes by appending the records that changed since
    /// its last publish to a log the snapshots share, and packs a new log
    /// now and then ([`RouterStats::records_written`],
    /// [`RouterStats::recycled`], [`RouterStats::compactions`]); no record
    /// a snapshot reads is written again, whoever still holds it. The
    /// router keeps the last three snapshots, so a retired one is usually
    /// freed on this thread.
    ///
    /// If the working engine went stale (static engine under churn) or is
    /// absent (warm restart), it is (re)built first, on this thread —
    /// [`FibBuild::rebuild_from`] the stale engine over a cold
    /// [`FibBuild::build_weighted`] ([`RouterStats::warm_rebuilds`] counts
    /// which).
    ///
    /// A build that panics is contained: the router keeps serving the
    /// last good epoch, flags [`RouterStats::serving_stale`], and
    /// retries at the next publish.
    pub fn publish(&mut self) -> Arc<EpochSnapshot<E>> {
        self.publish_with(None)
    }

    /// Merges a forwarding pool's per-worker heat sketches and cuts a
    /// *hot* epoch: the hottest pure address blocks of the sampled
    /// traffic are compiled into a [`HotSlab`] (against the control FIB
    /// as of this call) and attached to the published snapshot, whose
    /// lookups consult the slab before the engine walk. The merged
    /// traffic profile also re-tunes the build config's λ barrier via
    /// [`fib_core::lambda::barrier_traffic`], so subsequent rebuilds
    /// fold for the traffic actually seen, and the sketches are reset so
    /// the next publish interval samples fresh. For a heat-aware engine
    /// ([`FibBuild::heat_aware`], e.g. the variable-stride DAG) the
    /// profile is retained and the publish *re-strides*: the engine is
    /// rebuilt under the new profile so the new epoch's layout matches the
    /// live traffic. The re-stride goes through the same hook as every
    /// other rebuild — [`FibBuild::rebuild_from`] with the working engine,
    /// then [`FibBuild::build_weighted`] — so the variable-stride DAG
    /// keeps the slot penalty it held under the old profile only if the
    /// plan it gives under the new one lands in its budget band, and
    /// searches afresh otherwise.
    ///
    /// Returns the snapshot, the merged interval summary, and the slab
    /// compilation stats.
    ///
    /// # Panics
    /// Panics if `hot_config` is out of range for the address family
    /// (see [`HotSlab::compile`]).
    pub fn publish_hot(
        &mut self,
        heat: &HeatMap,
        hot_config: &HotConfig,
    ) -> (Arc<EpochSnapshot<E>>, HeatSummary, HotStats) {
        let summary = heat.merged();
        heat.reset();
        let (slab, stats) = HotSlab::compile(&self.control, summary.entries(), hot_config);
        let mass = fib_core::depth_mass_from_heat(&self.control, summary.entries());
        let base = self.config.build.lambda_for(&self.control);
        self.config.build.lambda = Some(fib_core::lambda::barrier_traffic(
            self.control.len(),
            &mass,
            base,
            1.0,
            A::WIDTH,
        ));
        if !summary.entries().is_empty() {
            self.heat_profile = Some((summary.entries().to_vec(), summary.depth()));
            // A heat-aware engine lays its structure out around the
            // profile, so the fresh interval demands a re-stride: mark
            // the working engine stale and let the publish below rebuild
            // it through `build_weighted`. Heat-blind engines would
            // rebuild into an identical layout — skip the churn.
            if E::heat_aware() {
                self.stale = true;
            }
        }
        let snapshot = self.publish_with(Some(slab));
        (snapshot, summary, stats)
    }

    /// The shared publish path: [`Self::publish`] attaches no slab; a
    /// hot publish always cuts a fresh epoch (its slab is new state even
    /// when no route changed), a plain one reuses an unchanged snapshot.
    fn publish_with(&mut self, hot: Option<HotSlab>) -> Arc<EpochSnapshot<E>> {
        // No-op publish: nothing changed since the last epoch — no update,
        // or only unchanged ones — so reuse the published snapshot instead
        // of copying the engine again. A freshly warm-restarted router
        // with no pending journal lands here, so its snapshot keeps
        // serving the image and its owned engine stays unbuilt. A journal
        // past its fold threshold cuts an epoch all the same, to fold.
        if self.since_publish == self.unchanged_since_publish
            && !self.stale
            && hot.is_none()
            && !self.spool.as_ref().is_some_and(Spool::wants_fold)
        {
            self.since_publish = 0;
            self.unchanged_since_publish = 0;
            self.commit_spool();
            return self.snapshot();
        }
        let Some(snapshot) = self.cut_epoch(hot) else {
            // Keep serving the last good epoch and retry at the next
            // publish (auto-publish cadence bounds the retry rate).
            self.commit_spool();
            return self.publisher.serve_stale();
        };
        // Durability: fold an outgrown journal into a full image of this
        // epoch (which also syncs and resets it), else just commit it.
        if self.spool.as_ref().is_some_and(Spool::wants_fold) {
            self.spill_current(false);
        } else {
            self.commit_spool();
        }
        snapshot
    }

    /// Cuts the next epoch from the working engine, built first if it is
    /// stale or absent; `None`, with the engine marked stale, when the
    /// build fails.
    fn cut_epoch(&mut self, hot: Option<HotSlab>) -> Option<Arc<EpochSnapshot<E>>> {
        self.since_publish = 0;
        self.unchanged_since_publish = 0;
        if (self.stale || self.working.is_none()) && !self.materialize() {
            self.stale = true;
            return None;
        }
        Some(self.publisher.publish(|epoch| {
            let working = self.working.as_mut().expect("materialized");
            let engine = SnapEngine::Owned(working.publish_copy());
            let snapshot = EpochSnapshot::cut(epoch, self.control.len(), engine, hot);
            (snapshot, working.last_publish())
        }))
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use fib_core::{PrefixDag, SerializedDag};
    use fib_trie::Prefix4;

    fn nh(i: u32) -> NextHop {
        NextHop::new(i)
    }

    fn p(s: &str) -> Prefix4 {
        s.parse().unwrap()
    }

    fn base_fib() -> BinaryTrie<u32> {
        let mut t = BinaryTrie::new();
        t.insert(p("0.0.0.0/0"), nh(1));
        t.insert(p("10.0.0.0/8"), nh(2));
        t.insert(p("10.64.0.0/10"), nh(3));
        t
    }

    fn config() -> RouterConfig {
        RouterConfig {
            publish_every: None,
            ..RouterConfig::default()
        }
    }

    #[test]
    fn initial_snapshot_matches_control() {
        let router: Router<u32, PrefixDag<u32>> = Router::new(base_fib(), config());
        let snap = router.snapshot();
        assert_eq!(snap.epoch(), 0);
        assert_eq!(snap.routes(), 3);
        for i in 0..2000u32 {
            let addr = i.wrapping_mul(0x9E37_79B9);
            assert_eq!(snap.lookup(addr), router.control().lookup(addr));
        }
    }

    #[test]
    fn snapshots_are_immutable_under_later_updates() {
        let mut router: Router<u32, PrefixDag<u32>> = Router::new(base_fib(), config());
        let before = router.snapshot();
        router.announce(p("10.64.0.0/10"), nh(9));
        router.publish();
        // The old snapshot still answers with the old next-hop.
        assert_eq!(before.lookup(0x0A40_0001), Some(nh(3)));
        assert_eq!(router.snapshot().lookup(0x0A40_0001), Some(nh(9)));
        assert_eq!(router.snapshot().epoch(), 1);
    }

    #[test]
    fn hot_publish_pins_blocks_and_stays_equivalent() {
        let mut router: Router<u32, SerializedDag<u32>> = Router::new(base_fib(), config());
        let heat = HeatMap::new(1, 24, 2048);
        let mut x = 1u32;
        for _ in 0..8192 {
            x = x.wrapping_mul(0x0101_6B55).wrapping_add(1);
            // Zipf-ish skew: three quarters of the traffic inside 10.64/10.
            let addr = if x % 4 == 0 {
                x
            } else {
                0x0A40_0000 | (x & 0x003F_FFFF)
            };
            heat.sketch(0).record(addr);
        }
        let before = router.epoch();
        let (snap, summary, stats) = router.publish_hot(&heat, &HotConfig::for_width(32));
        assert!(summary.total() > 0, "sampled traffic reached the summary");
        assert!(stats.promoted > 0, "skewed traffic pinned hot blocks");
        assert!(snap.hot_slab().is_some());
        assert!(
            snap.epoch() > before,
            "a hot publish cuts a fresh epoch even without route churn"
        );
        assert_eq!(
            heat.merged().total(),
            0,
            "sketches reset for the next interval"
        );

        // The slab is a pure cache: single, batch, and stream answers all
        // agree with the control FIB on hot and cold addresses alike.
        let mut x = 123u32;
        let mut addrs = Vec::new();
        for _ in 0..1024 {
            x = x.wrapping_mul(0x9E37_79B9).wrapping_add(7);
            addrs.push(if x % 2 == 0 {
                x
            } else {
                0x0A40_0000 | (x & 0x003F_FFFF)
            });
        }
        let mut batch = vec![None; addrs.len()];
        snap.lookup_batch(&addrs, &mut batch);
        let mut stream = vec![None; addrs.len()];
        snap.lookup_stream(&addrs, &mut stream);
        for (i, &addr) in addrs.iter().enumerate() {
            let want = router.control().lookup(addr);
            assert_eq!(snap.lookup(addr), want, "single lookup at {addr:#x}");
            assert_eq!(batch[i], want, "batch lookup at {addr:#x}");
            assert_eq!(stream[i], want, "stream lookup at {addr:#x}");
        }
    }

    #[test]
    fn hot_publish_restrides_a_heat_aware_engine() {
        use fib_core::VarStrideDag;
        // A deeper FIB so the stride DP has real depth to trade on.
        let mut fib = base_fib();
        for i in 0u32..64 {
            fib.insert(Prefix::new(0x0A40_0000 | (i << 10), 22), nh(i % 5));
        }
        let mut router: Router<u32, VarStrideDag<u32>> = Router::new(fib, config());
        let uniform_hist = router
            .snapshot()
            .engine()
            .expect("owned engine")
            .stride_histogram();

        // All sampled traffic concentrates inside 10.64/10.
        let heat = HeatMap::new(1, 24, 2048);
        let mut x = 1u32;
        for _ in 0..8192 {
            x = x.wrapping_mul(0x0101_6B55).wrapping_add(1);
            heat.sketch(0).record(0x0A40_0000 | (x & 0x003F_FFFF));
        }
        let rebuilds_before = router.stats().rebuilds;
        let (snap, summary, _) = router.publish_hot(&heat, &HotConfig::for_width(32));
        assert!(summary.total() > 0);
        assert!(
            router.stats().rebuilds > rebuilds_before,
            "a heat-aware engine re-strides at the hot publish"
        );
        let restrided = snap.engine().expect("owned engine");
        assert_ne!(
            restrided.stride_histogram(),
            uniform_hist,
            "the live profile reshaped the stride placement"
        );
        // Re-striding never changes answers, hot and cold alike.
        let mut x = 123u32;
        for _ in 0..1024 {
            x = x.wrapping_mul(0x9E37_79B9).wrapping_add(7);
            let addr = if x % 2 == 0 {
                x
            } else {
                0x0A40_0000 | (x & 0x003F_FFFF)
            };
            assert_eq!(
                snap.lookup(addr),
                router.control().lookup(addr),
                "{addr:#x}"
            );
        }
    }

    #[test]
    fn pdag_router_applies_updates_in_place() {
        let mut router: Router<u32, PrefixDag<u32>> = Router::new(base_fib(), config());
        router.announce(p("192.168.0.0/16"), nh(7));
        router.withdraw(p("10.64.0.0/10"));
        let stats = router.stats();
        assert_eq!(stats.in_place, 2);
        assert_eq!(stats.declined, 0);
        let snap = router.publish();
        assert_eq!(snap.lookup(0xC0A8_0001), Some(nh(7)));
        assert_eq!(snap.lookup(0x0A40_0001), Some(nh(2)), "withdrawn → /8");
    }

    #[test]
    fn static_engine_router_rebuilds_on_publish() {
        let mut router: Router<u32, SerializedDag<u32>> = Router::new(base_fib(), config());
        router.announce(p("192.168.0.0/16"), nh(7));
        let stats = router.stats();
        assert_eq!(stats.in_place, 0);
        assert_eq!(stats.declined, 1);
        // Not yet published: the data plane still serves the old image.
        assert_eq!(router.lookup(0xC0A8_0001), Some(nh(1)));
        let snap = router.publish();
        assert_eq!(snap.lookup(0xC0A8_0001), Some(nh(7)));
        assert!(router.stats().rebuilds >= 1);
    }

    #[test]
    fn auto_publish_cuts_epochs() {
        let mut cfg = config();
        cfg.publish_every = Some(4);
        let mut router: Router<u32, PrefixDag<u32>> = Router::new(base_fib(), cfg);
        for i in 0..8u32 {
            router.announce(Prefix4::new(i << 24, 8), nh(i));
        }
        assert_eq!(router.epoch(), 2, "8 updates / publish_every 4");
    }

    #[test]
    fn background_rebuild_compacts_and_preserves_equivalence() {
        let mut router: Router<u32, PrefixDag<u32>> = Router::new(base_fib(), config());
        // Churn deep prefixes to fragment the arena, then compact in line.
        for i in 0..4000u32 {
            let prefix = Prefix4::new(0x0A00_0000 | ((i % 97) << 10), 24);
            if i % 3 == 2 {
                router.withdraw(prefix);
            } else {
                router.announce(prefix, nh(i % 5));
            }
        }
        let before = router.publish();
        let then = router.control().clone();
        let fragmented = before.engine().expect("owned").degradation();
        assert!(fragmented > 0.0, "the churn left no holes");
        let rebuilds = router.stats().rebuilds;
        router.start_rebuild();
        assert_eq!(router.stats().rebuilds, rebuilds + 1);
        router.announce(p("192.168.0.0/16"), nh(7));
        router.withdraw(p("10.64.0.0/10"));
        let after = router.publish();
        assert!(
            after.engine().expect("owned").degradation() < fragmented,
            "the compaction left the holes in place"
        );
        // The compacted engine takes updates in place, and each epoch
        // answers for its own control FIB.
        assert_eq!(router.stats().declined, 0);
        for i in 0..3000u32 {
            let addr = i.wrapping_mul(0x9E37_79B9);
            assert_eq!(before.lookup(addr), then.lookup(addr));
            assert_eq!(after.lookup(addr), router.control().lookup(addr));
        }
    }

    #[test]
    fn noop_publish_reuses_the_current_snapshot() {
        let mut router: Router<u32, PrefixDag<u32>> = Router::new(base_fib(), config());
        router.announce(p("192.168.0.0/16"), nh(7));
        let first = router.publish();
        assert_eq!(first.epoch(), 1);
        // Nothing changed: no engine clone, no new epoch, same Arc.
        let second = router.publish();
        assert_eq!(second.epoch(), 1);
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(router.stats().epochs, 2, "initial + one real publish");
        let stats = router.stats();
        router.publish();
        assert_eq!(router.stats(), stats, "a no-op publish counts nothing");
    }

    #[test]
    fn data_plane_handle_tracks_publishes_across_threads() {
        let mut router: Router<u32, PrefixDag<u32>> = Router::new(base_fib(), config());
        let mut dp = router.data_plane();
        let reader = std::thread::spawn(move || {
            // Spin until the writer publishes epoch 1, then answer.
            loop {
                let snap = dp.snapshot();
                if snap.epoch() == 1 {
                    return snap.lookup(0xC0A8_0001u32);
                }
                std::thread::yield_now();
            }
        });
        router.announce(p("192.168.0.0/16"), nh(7));
        router.publish();
        assert_eq!(reader.join().expect("reader panicked"), Some(nh(7)));
    }
}
