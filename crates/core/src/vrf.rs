//! Multi-tenant VRF compilation: many logical forwarding tables folded
//! into **one shared, hash-consed prefix-DAG arena**, with a measured
//! cost model able to place a table on an engine of its own.
//!
//! Production routers hold thousands of VRFs whose FIBs share most of
//! their structure. The paper's trie-folding merges identical subtrees
//! *within* one table; the "Memory size bounds of prefix DAGs" analysis
//! shows the same argument applies *across* tables — a shared subtree
//! collapses to one node regardless of which table points at it. The
//! compiler here exploits exactly that:
//!
//! 1. Every table is folded by the ordinary [`PrefixDag`] compiler
//!    (leaf-pushing below the λ barrier, within-table interning), whose
//!    arena already holds the two-word records (`left | right << 32`,
//!    `label`) every packed form of the structure uses.
//! 2. A **cross-table canonical arena** ([`VrfArena`]) interns every node
//!    reachable from the fold's root on `(left, right, label)` identity,
//!    post-order, straight from that arena, one table at a time in id
//!    order, so structurally identical subtrees from *different* tables
//!    land on one record. The nodes each table adds are its marginal
//!    nodes, what [`VrfPolicy::Auto`] charges it; its fold's live node
//!    count is its standalone size (`solo_nodes`).
//! 3. The compacting BFS every packed pDAG image is written by, its one
//!    queue seeded with every shared-placement table's root, renumbers
//!    the records the roots reach into a single word arena in the exact
//!    [`PrefixDagRef`] record format. Every shared table with a root then
//!    gets the §5.3 root array the updatable pDAG walks from
//!    ([`RootArray`]: for each 8-bit address prefix, the node at depth 8
//!    and the last label above it), derived from the arena, and each VRF
//!    is served zero-copy by a `PrefixDagRef` over the shared words that
//!    starts its walk eight levels down. The arrays are 2 KiB a table and
//!    charged ([`VrfSetStats::root_bytes`]); an image does not store
//!    them, its loader ([`CompiledVrfSet::from_image`]) derives the same
//!    ones.
//!
//! Under `Auto` step 2 sees every table, a dedicated one too, whose
//! records are then released; step 3 packs only what shared-placement
//! roots reach, and the BFS orders nodes by structure, not by interning
//! order, so a table's records never depend on how they were interned.
//! [`compile_vrf_set`] runs the three steps from an empty arena.
//!
//! A fleet whose tables change a few routes at a time keeps its arena
//! ([`VrfArena`]) and each table's fold as an updatable [`PrefixDag`], so
//! a publish **costs what changed**. The pDAG absorbs an update in place
//! and lists the nodes it writes in its change set; the arena keeps a
//! reference count per record, re-interns only the nodes on a dirty
//! table's change set — those written since the last sync plus the top
//! nodes above them — draining it as it goes, releases the old root,
//! and derives root arrays for the dirty tables alone. A table's
//! reachable count, which costs a walk of the whole table, waits for the
//! next compaction: between two, a re-interned table keeps the count of
//! its last one, and [`CompiledVrfSet::reachable_counts`] takes exact
//! ones of any set. Its records live in a `RecordLog`, the one writer of
//! the log [`PrefixDag::publish_copy`] appends to too: a new record is
//! appended, a released one left in place as a free slot, and nothing
//! a published set can read is written again, so a publish
//! ([`VrfArena::publish`]) shares every record, and every line a reader
//! has cached, with the set before it. Readers move to a new buffer only
//! at a compaction — step 3 into a new buffer, when free slots pass a
//! quarter of the arena, after a sync that panicked, and under `Auto` —
//! or when a sync fills the log, which grows into one twice its size.
//! Images ([`write_vrf_image`]) are written compacted, so they stay
//! bit-identical to a full compile. Between compactions a
//! set answers and charges its statistics as the full compile does, all
//! but [`VrfSetStats::free_slots`] and the reachable counts of the tables
//! re-interned since the last compaction ([`CompiledVrf::reachable_nodes`],
//! [`VrfSetStats::total_nodes`]); its exact counts
//! ([`CompiledVrfSet::reachable_counts`]) are the full compile's, and its
//! records sit where they were interned.
//!
//! Not every table belongs in the shared arena. Under
//! [`VrfPolicy::Auto`] a cost model — fitted from measured per-engine
//! size/speed points plus live traffic weight from the `HeatSketch` —
//! places each table on the shared arena (charged only its *marginal*
//! unique bytes) or on a dedicated pdag-serialized, vsdag or xbw-entropy
//! engine; [`VrfPolicy::Pinned`] names the placements outright. Both
//! key their inputs (traffic weights, choices) by VRF id, never by a
//! table's position, so a table keeps its placement however the fleet
//! around it changes. A dedicated table is an ordinary engine:
//! [`VrfEngineChoice::engine_kind`] names its [`EngineKind`], whose
//! `visit` builds it (XBW-b in entropy storage) and whose codec writes it
//! and reads it back through [`any_view`].
//!
//! The whole set ships as one `fibimage/v1` file: a [`sections::VRF_DIR`]
//! directory, the shared [`sections::VRF_PDAG`] arena, and each dedicated
//! table's sections at [`vrf_section_base`] of its directory index plus
//! their position in [`ImageCodec::SECTIONS`].
//!
//! A fleet has one type, [`CompiledVrfSet`], whether compiled, kept or
//! loaded: [`CompiledVrfSet::from_image`] gives back the set its compiler
//! built, arena, roots, root arrays, counts and statistics alike. Only a
//! dedicated table's engine still differs by origin: a compiled table
//! keeps the engine it built, a loaded one keeps its own sections and
//! serves through a view parsed per call, which the image's record of its
//! validation at load spares the O(n) scans (see [`crate::image`],
//! "Validation"). A loaded set carries no control state, so it seeds no
//! arena; a fleet that restarts will rebuild its tables from per-table
//! routes sections.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

use fib_trie::{Address, BinaryTrie, NextHop};

use crate::engine::{ArenaPublish, BuildConfig, FibBuild, FibLookup};
use crate::idhash::IdBuildHasher;
use crate::image::{
    any_view, sections, write_image, AnyView, EngineKind, EngineVisitor, FibImage, ImageCodec,
    ImageError, ImageWriter,
};
use crate::pdag::{
    bfs_order, pack_bfs, packed_node, packed_root_array, record, PrefixDag, PrefixDagRef,
    RecordLog, RootArray, ROOT_BITS,
};
use crate::xbw::XbwStorage;
use fib_succinct::SharedWords;

const NONE: u32 = u32::MAX;

/// Words per [`sections::VRF_DIR`] table record (after the count word).
pub const VRF_DIR_RECORD_WORDS: usize = 6;

/// Resident bytes of one shared table's [`RootArray`].
const ROOT_ARRAY_BYTES: u64 = std::mem::size_of::<RootArray>() as u64;

/// Walks [`CompiledVrfSet::lookup_batch`] keeps in flight, as many as
/// the serialized engine's batch kernel ([`crate::SER_REFILL_LANES`]).
const FLEET_LANES: usize = 8;

/// The engine a VRF table is placed on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum VrfEngineChoice {
    /// A root pointer into the shared hash-consed pDAG arena.
    Shared = 0,
    /// A dedicated λ-collapsed serialized DAG (dense flat layout,
    /// lowest latency after vsdag in the v4 cost model).
    Serialized = 1,
    /// A dedicated entropy-mode XBW-b (smallest footprint).
    Xbw = 2,
    /// A dedicated variable-stride multibit DAG (the speed/size middle
    /// ground: near-serialized latency at a fraction of the slots).
    VsDag = 3,
}

impl VrfEngineChoice {
    /// Decodes the directory byte.
    #[must_use]
    pub fn from_u8(v: u8) -> Option<Self> {
        match v {
            0 => Some(Self::Shared),
            1 => Some(Self::Serialized),
            2 => Some(Self::Xbw),
            3 => Some(Self::VsDag),
            _ => None,
        }
    }

    /// Stable lower-case name (reports, `fibc inspect`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Shared => "shared-pdag",
            Self::Serialized => "serialized",
            Self::Xbw => "xbw-entropy",
            Self::VsDag => "vsdag",
        }
    }

    /// The engine a dedicated placement builds, `None` for the shared
    /// arena — the one place a placement becomes an [`EngineKind`].
    #[must_use]
    pub fn engine_kind(self) -> Option<EngineKind> {
        match self {
            Self::Shared => None,
            Self::Serialized => Some(EngineKind::SerializedDag),
            Self::Xbw => Some(EngineKind::Xbw),
            Self::VsDag => Some(EngineKind::VsDag),
        }
    }
}

/// Measured size/speed cost model for per-VRF engine placement.
///
/// Latency and density defaults were measured on taz 0.1 (uniform keys,
/// scalar lookups with stored results; re-fit them from the
/// `engine.<name>.stream_ns` / `.bytes` per-layer metrics `BENCHMARK.json`
/// declares): pdag-serialized 7.9 ns at 11.49 bits/route, xbw-entropy
/// 585.3 ns at 1.34 bits/route, the heat-compiled vsdag 7.1 ns at
/// 25.65 bits/route, the shared pDAG walk 37.7 ns with its bytes
/// charged as the *marginal* unique arena bytes the table adds.
/// Placement minimizes `traffic_weight · ns + byte_rent · bytes`.
///
/// `shared_ns` was measured on the walk from each table's root; a shared
/// table now starts at its root array, eight levels down, and the 2 KiB
/// array is not among the marginal bytes either. Both, and
/// `vsdag_bits_per_route` (fitted before the vsdag stored runs), are due
/// a re-fit together, since any one of them moves placements.
#[derive(Clone, Copy, Debug)]
pub(crate) struct CostModel {
    /// Measured ns/lookup of a dedicated serialized DAG.
    serialized_ns: f64,
    /// Measured density of a dedicated serialized DAG, bits per route.
    serialized_bits_per_route: f64,
    /// Measured ns/lookup of a dedicated entropy-mode XBW-b.
    xbw_ns: f64,
    /// Measured density of entropy-mode XBW-b, bits per route.
    xbw_bits_per_route: f64,
    /// Measured ns/lookup of a dedicated variable-stride DAG.
    vsdag_ns: f64,
    /// Measured density of a dedicated variable-stride DAG, bits/route.
    vsdag_bits_per_route: f64,
    /// Measured ns/lookup of the shared packed pDAG walk.
    shared_ns: f64,
    /// Memory rent: one resident byte's cost, in expected lookup ns.
    byte_rent: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        Self {
            serialized_ns: 7.9,
            serialized_bits_per_route: 11.49,
            xbw_ns: 585.3,
            xbw_bits_per_route: 1.34,
            vsdag_ns: 7.1,
            vsdag_bits_per_route: 25.65,
            shared_ns: 37.7,
            byte_rent: 1e-4,
        }
    }
}

impl CostModel {
    /// The cheapest engine for a table with `routes` routes, `marginal`
    /// arena bytes unique to it and a normalized traffic `weight` in
    /// `[0, 1]` (the first in declaration order on a tie). Hot tables land
    /// on serialized, cold low-overlap tables on xbw-entropy, high-overlap
    /// tables on the shared arena.
    fn place(&self, routes: u64, marginal: u64, weight: f64) -> VrfEngineChoice {
        use VrfEngineChoice::{Serialized, Shared, VsDag, Xbw};
        let dedicated = |ns, bits_per_route| (ns, routes as f64 * bits_per_route / 8.0);
        let cost = |choice| {
            let (ns, bytes) = match choice {
                Shared => (self.shared_ns, marginal as f64),
                Serialized => dedicated(self.serialized_ns, self.serialized_bits_per_route),
                Xbw => dedicated(self.xbw_ns, self.xbw_bits_per_route),
                VsDag => dedicated(self.vsdag_ns, self.vsdag_bits_per_route),
            };
            weight * ns + self.byte_rent * bytes
        };
        [Shared, Serialized, Xbw, VsDag]
            .into_iter()
            .min_by(|a, b| cost(*a).total_cmp(&cost(*b)))
            .expect("four candidates")
    }
}

/// Placement policy for [`compile_vrf_set`], keyed by VRF id: a table
/// keeps its placement however many tables come and go beside it.
#[derive(Clone, Debug)]
pub enum VrfPolicy {
    /// Every table on the shared arena — the pure-dedup configuration the
    /// memory benchmarks measure.
    Shared,
    /// Cost-model placement. `weights` are per-VRF traffic weights,
    /// normalized over the fleet; a VRF with no entry weighs the mean of
    /// the fleet's given weights, so an empty or all-zero map is uniform.
    Auto {
        /// Traffic weight by VRF id (e.g. live `HeatSketch` mass).
        weights: BTreeMap<u32, f64>,
    },
    /// Explicit placement by VRF id — operator overrides and
    /// deterministic tests bypass the cost model. A VRF with no entry is
    /// [`VrfEngineChoice::Shared`].
    Pinned {
        /// Engine choice by VRF id.
        choices: BTreeMap<u32, VrfEngineChoice>,
    },
}

impl VrfPolicy {
    /// The placement this policy fixes for VRF `id` whatever the rest of
    /// the fleet holds — `None` under [`VrfPolicy::Auto`], whose cost
    /// model charges a table the arena nodes no lower id already brought.
    #[must_use]
    pub fn fixed_choice(&self, id: u32) -> Option<VrfEngineChoice> {
        match self {
            Self::Shared => Some(VrfEngineChoice::Shared),
            Self::Pinned { choices } => choices.get(&id).copied().or(Some(VrfEngineChoice::Shared)),
            Self::Auto { .. } => None,
        }
    }
}

/// One logical table handed to the compiler.
pub struct VrfTable<'t, A: Address> {
    /// VRF id (unique within the set).
    pub id: u32,
    /// The table's control FIB.
    pub trie: &'t BinaryTrie<A>,
}

/// Aggregate dedup statistics of a compiled set.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct VrfSetStats {
    /// Logical tables in the set.
    pub tables: usize,
    /// Tables placed on the shared arena.
    pub shared_tables: usize,
    /// Σ over shared tables of nodes reachable from their roots — what
    /// independent canonical compiles would have stored. Σ of the tables'
    /// [`CompiledVrf::reachable_nodes`], so exact in a compiled, loaded or
    /// just-compacted set; between a kept arena's compactions it holds
    /// the last compaction's count for a table re-interned since.
    pub total_nodes: u64,
    /// Unique nodes in the shared arena after cross-table interning.
    pub unique_nodes: u64,
    /// Shared arena footprint (16 bytes per unique node).
    pub arena_bytes: u64,
    /// Arena slots whose record a kept arena ([`VrfArena`]) released and
    /// has not compacted away: 16 bytes each, held by every reader of the
    /// set but counted in no other field. 0 in a compiled, loaded or
    /// just-compacted set.
    pub free_slots: u64,
    /// Root arrays of the shared tables with a root, 2 KiB each.
    pub root_bytes: u64,
    /// Dedicated per-table engine footprints, summed.
    pub dedicated_bytes: u64,
    /// Σ over *all* tables of their standalone packed-pDAG image bytes —
    /// the independent-compilation baseline.
    pub independent_bytes: u64,
}

impl VrfSetStats {
    /// The statistics of `tables` over an arena of `unique_nodes` live
    /// records and `free_slots` free ones.
    fn of<A: Address>(tables: &[CompiledVrf<A>], unique_nodes: u64, free_slots: u64) -> Self {
        let mut stats = Self {
            tables: tables.len(),
            unique_nodes,
            arena_bytes: unique_nodes * 16,
            free_slots,
            ..Self::default()
        };
        for table in tables {
            stats.independent_bytes += table.solo_nodes * 16;
            if table.root_array.is_some() {
                stats.root_bytes += ROOT_ARRAY_BYTES;
            }
            match &table.dedicated {
                None => {
                    stats.shared_tables += 1;
                    stats.total_nodes += table.reachable_nodes;
                }
                Some(dedicated) => stats.dedicated_bytes += dedicated.served_bytes,
            }
        }
        stats
    }

    /// `total_nodes / unique_nodes`: how many tables each arena node
    /// serves on average (1.0 = no cross-table sharing).
    #[must_use]
    pub fn sharing_ratio(&self) -> f64 {
        if self.unique_nodes == 0 {
            1.0
        } else {
            self.total_nodes as f64 / self.unique_nodes as f64
        }
    }

    /// Resident bytes of the whole set: the arena slots a reader holds,
    /// free ones included, root arrays and dedicated engines.
    #[must_use]
    pub fn resident_bytes(&self) -> u64 {
        self.arena_bytes + self.free_slots * 16 + self.root_bytes + self.dedicated_bytes
    }

    /// Bytes saved versus compiling every table independently.
    #[must_use]
    pub fn bytes_saved(&self) -> u64 {
        self.independent_bytes.saturating_sub(self.resident_bytes())
    }
}

/// The engine of a table placed off the shared arena. It sits behind an
/// `Arc` so every later set that carries the table over unchanged shares
/// it instead of copying or rebuilding it.
#[derive(Clone)]
pub struct VrfDedicated<A: Address> {
    choice: VrfEngineChoice,
    engine: DedicatedEngine<A>,
    /// What the engine's view over its own image sections sizes itself
    /// at — the bytes [`VrfSetStats::dedicated_bytes`] charges for the
    /// table, so a loaded set accounts as the compiled one does.
    served_bytes: u64,
}

/// Where a dedicated table's lookups run.
#[derive(Clone)]
enum DedicatedEngine<A: Address> {
    /// The engine the compiler built, kept rather than served from its
    /// sections: a view parsed per call costs a batch a parse per run,
    /// and a scalar lookup one per packet.
    Built(Arc<dyn Dedicated<A>>),
    /// A loaded table's sections, at their canonical ids in a one-engine
    /// image: its first view, at load, validates it in full, and the view
    /// parsed per call reads that record, as an image-backed snapshot's
    /// does.
    Loaded(Arc<FibImage>),
}

impl<A: Address> VrfDedicated<A> {
    /// The placement this engine realizes.
    #[must_use]
    pub fn choice(&self) -> VrfEngineChoice {
        self.choice
    }

    /// Longest-prefix match against this table.
    #[must_use]
    #[inline]
    pub fn lookup(&self, addr: A) -> Option<NextHop> {
        match &self.engine {
            DedicatedEngine::Built(engine) => engine.lookup(addr),
            DedicatedEngine::Loaded(image) => Self::view(image).lookup(addr),
        }
    }

    /// Batched longest-prefix match against this table.
    ///
    /// # Panics
    /// Panics if `out` is shorter than `addrs`.
    pub fn lookup_batch(&self, addrs: &[A], out: &mut [Option<NextHop>]) {
        match &self.engine {
            DedicatedEngine::Built(engine) => engine.lookup_batch(addrs, out),
            DedicatedEngine::Loaded(image) => Self::view(image).lookup_batch(addrs, out),
        }
    }

    /// The view over a loaded table's one-engine image.
    fn view(image: &FibImage) -> AnyView<'_, A> {
        let view = any_view(image);
        view.expect("the image recorded its view at load") // fibcheck: allow(hot-path): the image's record of its view at load makes this view infallible
    }

    /// A table [`CompiledVrfSet::from_image`] loads from the sections at
    /// `base` of `image`: they are copied into a one-engine image at
    /// their canonical ids, whose first view validates them in full —
    /// what a hostile image fails on.
    fn load(
        choice: VrfEngineChoice,
        kind: EngineKind,
        image: &FibImage,
        base: u32,
    ) -> Result<Self, ImageError> {
        let mut writer = ImageWriter::new::<A>(kind, 0, 0);
        for (slot, &(id, _)) in (0..).zip(kind.sections()) {
            writer.section(id, image.section(base + slot)?);
        }
        let image = FibImage::from_bytes(&writer.finish())?;
        let served_bytes = any_view::<A>(&image)?.size_bytes() as u64;
        Ok(Self {
            choice,
            engine: DedicatedEngine::Loaded(Arc::new(image)),
            served_bytes,
        })
    }

    /// Writes the table's sections into `writer` at `base` + their
    /// position in the engine's [`ImageCodec::SECTIONS`]: a loaded table's
    /// as they were loaded, a built one's re-encoded.
    fn write_at(&self, writer: &mut ImageWriter, base: u32) -> Result<(), ImageError> {
        let built;
        let image = match &self.engine {
            DedicatedEngine::Built(engine) => {
                built = engine.image()?;
                &built
            }
            DedicatedEngine::Loaded(image) => &**image,
        };
        for (slot, &(id, _)) in (0..).zip(image.engine()?.sections()) {
            writer.section(base + slot, image.section(id)?);
        }
        Ok(())
    }
}

/// What a fleet keeps of a built dedicated engine: its lookups, and its
/// one-engine image.
trait Dedicated<A: Address>: FibLookup<A> + Send + Sync {
    /// The engine written as a one-engine image.
    fn image(&self) -> Result<FibImage, ImageError>;
}

impl<A: Address, E: ImageCodec<A> + Send + Sync> Dedicated<A> for E {
    fn image(&self) -> Result<FibImage, ImageError> {
        FibImage::from_bytes(&write_image(self, None, 0)?)
    }
}

/// Builds the engine [`EngineKind::visit`] names over one table, an
/// XBW-b always in the entropy storage the cost model prices.
struct BuildDedicated<'a, A: Address> {
    choice: VrfEngineChoice,
    trie: &'a BinaryTrie<A>,
    config: &'a BuildConfig,
}

impl<A: Address> EngineVisitor<A> for BuildDedicated<'_, A> {
    type Output = Result<VrfDedicated<A>, ImageError>;

    fn visit<E>(self) -> Self::Output
    where
        E: ImageCodec<A> + FibBuild<A> + Send + Sync + 'static,
    {
        let config = BuildConfig {
            xbw_storage: XbwStorage::Entropy,
            ..*self.config
        };
        let engine = E::build(self.trie, &config);
        let served_bytes = E::view(&engine.image()?)?.size_bytes() as u64;
        Ok(VrfDedicated {
            choice: self.choice,
            engine: DedicatedEngine::Built(Arc::new(engine)),
            served_bytes,
        })
    }
}

/// One compiled table of a [`CompiledVrfSet`].
#[derive(Clone)]
pub struct CompiledVrf<A: Address> {
    /// VRF id.
    pub id: u32,
    /// Root index into the shared arena (`u32::MAX` for a dedicated
    /// placement, or for an empty table).
    pub root: u32,
    /// Routes in the table.
    pub routes: u64,
    /// Nodes reachable from `root` in the shared arena (0 for dedicated
    /// placements). Exact in a compiled, loaded or just-compacted set, and
    /// for a table placed on a kept arena since its last compaction; a
    /// table that arena re-interned since holds the count its last
    /// compaction took, until the next one
    /// ([`CompiledVrfSet::reachable_counts`] is exact for any set).
    pub reachable_nodes: u64,
    /// This table's standalone packed-pDAG node count — the
    /// independent-compilation baseline recorded in the directory.
    pub solo_nodes: u64,
    /// The table's own engine; `None` places it on the shared arena.
    pub dedicated: Option<VrfDedicated<A>>,
    /// Where the table's walk starts: derived from the arena at `root`,
    /// present exactly when `root` is; shared by every set the table is
    /// carried into.
    root_array: Option<Arc<RootArray>>,
}

impl<A: Address> CompiledVrf<A> {
    /// Engine placement.
    #[must_use]
    pub fn choice(&self) -> VrfEngineChoice {
        self.dedicated
            .as_ref()
            .map_or(VrfEngineChoice::Shared, VrfDedicated::choice)
    }

    /// The root array the table's shared-arena walk starts from; `None`
    /// for a table with no root in the arena (a dedicated one).
    #[must_use]
    pub fn root_array(&self) -> Option<&RootArray> {
        self.root_array.as_deref()
    }
}

/// A compiled multi-tenant set: the shared arena, per-table roots and
/// dedicated engines, and dedup statistics.
///
/// A set a [`VrfArena`] publishes may hold free slots in its arena
/// (records no root reaches, counted in [`VrfSetStats::free_slots`]), its
/// records in the order they were interned, and the last compaction's
/// reachable counts for tables re-interned since
/// ([`Self::reachable_counts`] counts afresh); one compiled, loaded or
/// just compacted holds exactly the records its shared roots reach, in
/// BFS order, and exact counts.
pub struct CompiledVrfSet<A: Address> {
    /// The shared hash-consed arena, two packed words per node (the
    /// [`PrefixDagRef`] record format): a view of a [`VrfArena`]'s
    /// append-only buffer, which later sets published from it share.
    pub arena: SharedWords,
    /// Per-table results, sorted by VRF id.
    pub tables: Vec<CompiledVrf<A>>,
    /// Aggregate dedup statistics.
    pub stats: VrfSetStats,
}

/// The empty set: no tables, no arena.
impl<A: Address> Default for CompiledVrfSet<A> {
    fn default() -> Self {
        Self {
            arena: SharedWords::default(),
            tables: Vec::new(),
            stats: VrfSetStats::default(),
        }
    }
}

impl<A: Address> CompiledVrfSet<A> {
    /// Loads the set a [`write_vrf_image`] file holds — the set its
    /// compiler built, but that a dedicated table serves from its own
    /// sections instead of a built engine.
    ///
    /// Everything is validated here, once: the directory (its length, ids
    /// strictly ascending, known engine choices, counts whose byte sums
    /// fit a `u64`, shared roots in range), one child-range scan over the
    /// shared arena, and a full parse of every dedicated table's
    /// sections. The arena is copied out of the image once, and every
    /// shared table's root array is derived from it.
    ///
    /// # Errors
    /// Any [`ImageError`]; hostile images fail loudly, never panic.
    pub fn from_image(image: &FibImage) -> Result<Self, ImageError> {
        image.expect::<A>(EngineKind::VrfSet)?;
        let dir = image.section(sections::VRF_DIR)?;
        let arena = image.section(sections::VRF_PDAG)?;
        let count = *dir.first().ok_or(ImageError::Malformed("vrf dir empty"))? as usize;
        if dir.len() - 1 != count.saturating_mul(VRF_DIR_RECORD_WORDS) {
            return Err(ImageError::Malformed("vrf dir length"));
        }
        PrefixDagRef::<A>::from_parts(arena, if arena.is_empty() { NONE } else { 0 })
            .map_err(ImageError::Malformed)?;
        let n_nodes = (arena.len() / 2) as u64;
        let mut tables: Vec<CompiledVrf<A>> = Vec::with_capacity(count);
        // What the statistics sum of the raw directory words, checked here.
        let (mut solo_bytes, mut reachable) = (0u64, 0u64);
        for (index, record) in dir[1..].chunks_exact(VRF_DIR_RECORD_WORDS).enumerate() {
            let id = record[0] as u32;
            if tables.last().is_some_and(|prev| prev.id >= id) {
                return Err(ImageError::Malformed("vrf ids not strictly ascending"));
            }
            let choice = u8::try_from(record[0] >> 32)
                .ok()
                .and_then(VrfEngineChoice::from_u8)
                .ok_or(ImageError::Malformed("vrf engine choice"))?;
            let overflow = || ImageError::Malformed("vrf dir counts overflow");
            solo_bytes = (record[4].checked_mul(16))
                .and_then(|bytes| solo_bytes.checked_add(bytes))
                .ok_or_else(overflow)?;
            reachable = reachable.checked_add(record[3]).ok_or_else(overflow)?;
            let (root, dedicated) = match choice.engine_kind() {
                None => {
                    let root = record[1] as u32;
                    if root != NONE && u64::from(root) >= n_nodes {
                        return Err(ImageError::Malformed("vrf root out of range"));
                    }
                    (root, None)
                }
                Some(kind) => {
                    let base = vrf_section_base(index);
                    (NONE, Some(VrfDedicated::load(choice, kind, image, base)?))
                }
            };
            tables.push(CompiledVrf {
                id,
                root,
                routes: record[2],
                reachable_nodes: record[3],
                solo_nodes: record[4],
                dedicated,
                root_array: (root != NONE).then(|| Arc::from(packed_root_array(arena, root))),
            });
        }
        let stats = VrfSetStats::of(&tables, n_nodes, 0);
        Ok(Self {
            arena: SharedWords::from(arena),
            tables,
            stats,
        })
    }

    /// The compiled table for `vrf`, if present.
    #[must_use]
    #[inline]
    pub fn table(&self, vrf: u32) -> Option<&CompiledVrf<A>> {
        // Ids are often dense from 0: the table at index `vrf` first.
        let dense = self.tables.get(vrf as usize).filter(|t| t.id == vrf);
        dense.or_else(|| {
            let i = self.tables.binary_search_by_key(&vrf, |t| t.id).ok()?;
            self.tables.get(i)
        })
    }

    /// VRF-keyed longest-prefix match against the set. Unknown VRFs
    /// answer `None` (no table, no routes).
    #[must_use]
    #[inline]
    pub fn lookup(&self, vrf: u32, addr: A) -> Option<NextHop> {
        let table = self.table(vrf)?;
        match &table.dedicated {
            None => self.shared_view(table).lookup(addr),
            Some(dedicated) => dedicated.lookup(addr),
        }
    }

    /// Resolves a mixed `(vrf, addr)` batch, answers in input order.
    ///
    /// Keys of shared-arena tables are walked in input order, up to eight
    /// at a time: a lane starts at its key's root-array
    /// entry and follows node records through the shared arena — the walk
    /// of [`PrefixDagRef::lookup_with_depth`], one record a step — so the
    /// record fetches of different keys, whatever their tables, overlap
    /// instead of each walk's chain serializing the next; a key whose walk
    /// ends at its root-array entry is answered without taking a lane.
    /// Keys of dedicated tables are bucketed by VRF id, and each run goes
    /// through its engine's batch path. All working memory lives in
    /// `scratch`; after its vectors have grown to the steady batch size
    /// this path does not allocate.
    ///
    /// # Panics
    /// Panics if `out` is shorter than `keys`.
    pub fn lookup_batch(
        &self,
        keys: &[(u32, A)],
        out: &mut [Option<NextHop>],
        scratch: &mut VrfBatchScratch<A>,
    ) {
        assert!(out.len() >= keys.len(), "output buffer too small"); // fibcheck: allow(hot-path): documented once-per-batch contract, not per-packet
        let VrfBatchScratch { order, addrs, hops } = scratch;
        order.clear();
        let answer = |last: u32| (last != NONE).then(|| NextHop::new(last));
        // Per lane: the key it walks (`usize::MAX`: none), the record it
        // reads next, the last label above it, and that record's depth.
        let mut job = [usize::MAX; FLEET_LANES];
        let mut node = [NONE; FLEET_LANES];
        let mut last = [NONE; FLEET_LANES];
        let mut depth = [0u8; FLEET_LANES];
        let (mut live, mut next) = (0usize, 0usize);
        while live > 0 || next < keys.len() {
            for lane in 0..FLEET_LANES {
                let j = job[lane];
                if j != usize::MAX {
                    if node[lane] != NONE {
                        let (left, right, label) = packed_node(&self.arena, node[lane]);
                        if label != NONE {
                            last[lane] = label;
                        }
                        let d = depth[lane];
                        node[lane] = match d >= A::WIDTH {
                            true => NONE,
                            false if keys[j].1.bit(d) => right,
                            false => left,
                        };
                        depth[lane] = d + 1;
                        continue;
                    }
                    out[j] = answer(last[lane]);
                    job[lane] = usize::MAX;
                    live -= 1;
                }
                // Refill: answer keys inline until one needs a lane.
                while next < keys.len() {
                    let (i, (vrf, addr)) = (next, keys[next]);
                    next += 1;
                    let Some(table) = self.table(vrf) else {
                        out[i] = None;
                        continue;
                    };
                    if table.dedicated.is_some() {
                        order.push(i as u32);
                        continue;
                    }
                    let Some(array) = table.root_array() else {
                        out[i] = None;
                        continue;
                    };
                    let entry = array[addr.bits(0, ROOT_BITS) as usize];
                    if entry.node == NONE {
                        out[i] = answer(entry.last);
                        continue;
                    }
                    (job[lane], node[lane], last[lane]) = (i, entry.node, entry.last);
                    depth[lane] = ROOT_BITS;
                    live += 1;
                    break;
                }
            }
        }
        order.sort_unstable_by_key(|&i| keys[i as usize].0);
        for run in order.chunk_by(|&a, &b| keys[a as usize].0 == keys[b as usize].0) {
            let Some(dedicated) = self
                .table(keys[run[0] as usize].0)
                .and_then(|t| t.dedicated.as_ref())
            else {
                continue;
            };
            addrs.clear();
            addrs.extend(run.iter().map(|&i| keys[i as usize].1));
            hops.clear();
            hops.resize(run.len(), None);
            dedicated.lookup_batch(addrs, hops);
            for (&i, &hop) in run.iter().zip(hops.iter()) {
                out[i as usize] = hop;
            }
        }
    }

    /// Per table, in table order, the nodes reachable from its root in
    /// this set's arena (0 for a dedicated table): exact for any set,
    /// where a kept arena's [`CompiledVrf::reachable_nodes`] may be its
    /// last compaction's. One walk of each shared table, so O(Σ tables).
    #[must_use]
    pub fn reachable_counts(&self) -> Vec<u64> {
        (self.tables.iter())
            .map(|table| reachable(&self.arena, table.root))
            .collect()
    }

    /// The walk that serves `table`, one of this set's shared-arena
    /// tables: over the arena, from the table's root array. (Handed a
    /// dedicated table, which has no root array, it answers `None`.)
    #[must_use]
    #[inline]
    pub fn shared_view<'s>(&'s self, table: &'s CompiledVrf<A>) -> PrefixDagRef<'s, A> {
        PrefixDagRef::from_root_array(&self.arena, table.root_array())
    }
}

/// Caller-owned working memory for [`CompiledVrfSet::lookup_batch`].
/// Reuse one per worker; it grows to the batch size once and is then
/// stable.
#[derive(Default)]
pub struct VrfBatchScratch<A: Address> {
    order: Vec<u32>,
    addrs: Vec<A>,
    hops: Vec<Option<NextHop>>,
}

impl<A: Address> VrfBatchScratch<A> {
    /// An empty scratch (vectors grow on first use).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

/// A VRF fleet's shared arena, kept from one publish to the next: one
/// hash-consed record per distinct `(left, right, label)` triple, with a
/// reference count per record (held by parent records and by table
/// roots), in a `RecordLog`, the record log a single pDAG publishes into.
///
/// [`Self::sync`] re-interns only the nodes a dirty table's pDAG wrote
/// since the last sync and the top-tree nodes above them: a new record is
/// appended, and one whose last reference goes leaves the index and stays
/// in place, a free slot. So [`Self::publish`] costs what changed, and
/// the next set shares the buffer — and a reader's cached lines of it —
/// with the one before. The log alone moves readers to a new buffer: at
/// a compaction, the BFS repack of a full compile (from empty, past a
/// quarter free slots, after a contained panic, at every sync under
/// [`VrfPolicy::Auto`]), or when a sync fills the log, which grows into
/// a buffer twice its size. An image is always written compacted
/// ([`write_vrf_image`]).
#[derive(Default)]
pub struct VrfArena<A: Address> {
    /// The records, live ones and free slots.
    log: RecordLog,
    /// Every table's record and root array, sorted by id.
    tables: Vec<CompiledVrf<A>>,
    stats: VrfSetStats,
    /// Every live record's slot, by content.
    map: HashMap<(u32, u32, u32), u32, IdBuildHasher>,
    /// Shared tables, by VRF id, re-interned since their reachable count
    /// was taken: the next compaction counts them.
    uncounted: BTreeSet<u32>,
    /// Per slot: references to its record from parent records and roots.
    refcounts: Vec<u32>,
    /// Slots whose record lost its last reference.
    free: usize,
    /// Per shared table, by VRF id, how its pDAG maps onto the arena: per
    /// pDAG node, the record it stands for — valid for every node live at
    /// the last sync.
    mirrors: BTreeMap<u32, Vec<u32>>,
    /// A sync is under way — still set at the next one if it panicked.
    torn: bool,
}

impl<A: Address + Send + Sync + 'static> VrfArena<A> {
    /// An empty arena (no tables).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Brings the arena in line with `dags`, one updatable pDAG per VRF
    /// id, of which those in `dirty` changed since the last sync; tables
    /// the last sync held and `dags` does not are dropped.
    ///
    /// A shared table is re-interned when it is dirty, new, or moved onto
    /// the arena: its pDAG's nodes written since the last sync and the top
    /// nodes above them get their records, and its old root is released,
    /// freeing what no other record or root still holds. Its root array is
    /// derived afresh; every other table's stays. Its reachable count is
    /// taken at once only when it is new to the arena, whose interning
    /// walked it whole anyway; a table the arena held keeps its count
    /// until the next compaction takes it, so a sync costs what changed
    /// plus O(tables). A
    /// dedicated table is rebuilt when it is dirty, new or moved; otherwise
    /// its engine is carried. Under an entropy-chosen λ (`config.lambda`
    /// `None`), a dirty table whose barrier moved has its pDAG rebuilt at
    /// the new one first, from the control FIB it moves out of the old.
    ///
    /// From an empty arena, after a sync that panicked, and under
    /// [`VrfPolicy::Auto`], every table is interned afresh in id order and
    /// the arena compacted, so the next set published is bit-identical to
    /// [`compile_vrf_set`] over the same tables; otherwise the arena is
    /// compacted once its free slots pass a quarter of it, with the same
    /// result, and between compactions a set answers as one (see the
    /// module docs).
    ///
    /// Returns how many tables it re-interned or rebuilt on a dedicated
    /// engine. Whether it compacted, or filled the log and grew it, shows
    /// at the next [`Self::publish`], whose readers then move to a new
    /// buffer.
    pub fn sync(
        &mut self,
        dags: &mut BTreeMap<u32, PrefixDag<A>>,
        dirty: &BTreeSet<u32>,
        config: &BuildConfig,
        policy: &VrfPolicy,
    ) -> usize {
        if config.lambda.is_none() {
            for (_, dag) in dags.iter_mut().filter(|(id, _)| dirty.contains(id)) {
                let lambda = config.lambda_for(dag.control());
                if lambda != dag.lambda() {
                    dag.refold_at(lambda);
                }
            }
        }
        let from_empty =
            self.torn || matches!(policy, VrfPolicy::Auto { .. }) || self.log.words().is_empty();
        self.torn = true;
        if from_empty {
            self.restart();
        }
        let mut previous: BTreeMap<u32, CompiledVrf<A>> = std::mem::take(&mut self.tables)
            .into_iter()
            .map(|table| (table.id, table))
            .collect();
        // A root into the arena a from-empty sync cleared went with it.
        let let_go = |arena: &mut Self, previous: Option<&CompiledVrf<A>>| {
            if let Some(table) = previous.filter(|t| !from_empty && t.root != NONE) {
                arena.release(table.root);
            }
        };
        for (&id, table) in previous.iter().filter(|(id, _)| !dags.contains_key(id)) {
            let_go(self, Some(table));
            self.mirrors.remove(&id);
            self.uncounted.remove(&id);
        }

        // Intern what the arena must hold, in id order: every table under
        // `Auto`, so each one's marginal nodes — those no lower id brought
        // — can be priced; the shared tables that changed under a fixed
        // placement. A new root is held before the old one is let go, so
        // the records the two share stay put.
        let mut roots = Vec::with_capacity(dags.len());
        let mut marginal = Vec::with_capacity(dags.len());
        for (&id, dag) in dags.iter_mut() {
            let fixed = policy.fixed_choice(id);
            let stale = from_empty
                || dirty.contains(&id)
                || previous
                    .get(&id)
                    .is_none_or(|table| table.dedicated.is_some());
            let (root, added) = match fixed {
                None | Some(VrfEngineChoice::Shared) if stale => {
                    let before = self.refcounts.len();
                    let root = self.intern_dag(id, dag);
                    let added = self.refcounts.len() - before;
                    self.acquire(root);
                    let_go(self, previous.get(&id));
                    (Some(root), added as u64)
                }
                _ => (None, 0),
            };
            roots.push(root);
            marginal.push(added);
        }
        let choices = place(policy, dags, &marginal);

        // A fresh shared table's root array waits for the compaction,
        // which would renumber it.
        let mut refolded = 0;
        let mut tables = Vec::with_capacity(dags.len());
        for (((&id, dag), root), choice) in dags.iter().zip(roots).zip(choices) {
            let prev = previous.remove(&id);
            refolded += usize::from(root.is_some());
            let fresh = |root, reachable_nodes, dedicated| CompiledVrf {
                id,
                root,
                routes: dag.len() as u64,
                reachable_nodes,
                solo_nodes: dag.stats().live_nodes as u64,
                dedicated,
                root_array: None,
            };
            let Some(kind) = choice.engine_kind() else {
                tables.push(match root {
                    Some(root) => {
                        // A table new to the arena was interned whole, so
                        // counting it costs no more; one the arena held
                        // keeps its count until the next compaction, which
                        // a from-empty sync runs now.
                        let held = prev.filter(|table| table.dedicated.is_none());
                        let count = match held {
                            None if !from_empty => reachable(self.log.words(), root),
                            held => {
                                self.uncounted.insert(id);
                                held.map_or(0, |table| table.reachable_nodes)
                            }
                        };
                        fresh(root, count, None)
                    }
                    None => prev.expect("a shared table not re-interned is carried"),
                });
                continue;
            };
            if let Some(root) = root {
                // Interned for `Auto`'s pricing, then placed off the arena.
                self.release(root);
            } else {
                let_go(self, prev.as_ref());
            }
            self.mirrors.remove(&id);
            self.uncounted.remove(&id);
            let kept = prev.filter(|table| table.choice() == choice && !dirty.contains(&id));
            tables.push(match kept {
                Some(table) => table,
                None => {
                    refolded += usize::from(root.is_none());
                    let build = BuildDedicated {
                        choice,
                        trie: dag.control(),
                        config,
                    };
                    let engine = (kind.visit(build).and_then(|built| built))
                        .expect("a placement names an engine with an image encoding");
                    fresh(NONE, 0, Some(engine))
                }
            });
        }
        self.tables = tables;

        let compacted = from_empty || 4 * self.free > self.refcounts.len();
        if compacted {
            self.compact();
        }
        for table in &mut self.tables {
            if table.root != NONE && (compacted || table.root_array.is_none()) {
                let array = packed_root_array(self.log.words(), table.root);
                table.root_array = Some(Arc::from(array));
            }
        }
        let live = (self.refcounts.len() - self.free) as u64;
        self.stats = VrfSetStats::of(&self.tables, live, self.free as u64);
        self.torn = false;
        refolded
    }

    /// The set a reader is handed: the arena as it stands, answering as
    /// it does now. Its records are a view of the arena's buffer — the
    /// view the set published before it read, plus what was appended
    /// since, unless a compaction or the log's growth moved the arena to
    /// a new buffer — and its tables share their root arrays with the
    /// arena, so a publish copies nothing but the table records.
    pub fn publish(&mut self) -> (CompiledVrfSet<A>, ArenaPublish) {
        let (arena, publish) = self.log.publish();
        let set = CompiledVrfSet {
            arena,
            tables: self.tables.clone(),
            stats: self.stats,
        };
        (set, publish)
    }

    /// Forgets every record, in a new buffer; the tables stay, for what a
    /// sync carries of them.
    fn restart(&mut self) {
        self.log = RecordLog::default();
        self.map.clear();
        self.refcounts.clear();
        self.free = 0;
        self.mirrors.clear();
    }

    /// Re-interns shared table `id`'s pDAG where it changed since the
    /// table's last sync, draining its change set — all of it when the
    /// arena holds no mirror of it or nobody drained the pDAG before —
    /// and returns its root record, not yet held.
    fn intern_dag(&mut self, id: u32, dag: &mut PrefixDag<A>) -> u32 {
        let tracked = dag.start_drain();
        let mut memo = (self.mirrors.remove(&id))
            .filter(|_| tracked)
            .unwrap_or_default();
        memo.resize(dag.slots(), NONE);
        let root = self.intern_node(dag, &mut memo, dag.root);
        dag.finish_drain();
        self.mirrors.insert(id, memo);
        root
    }

    /// The record of pDAG node `idx` by `memo`, interned again if it has
    /// none or is on the pDAG's change set, which it comes off. A node off
    /// the set — or interned by this walk already — is what it was,
    /// children and all: an update lists the top nodes above its writes.
    fn intern_node(&mut self, dag: &mut PrefixDag<A>, memo: &mut [u32], idx: u32) -> u32 {
        if idx == NONE {
            return NONE;
        }
        let at = idx as usize;
        if !dag.take_change(idx) && memo[at] != NONE {
            return memo[at];
        }
        let (left, right, label) = dag.node(idx);
        let left = self.intern_node(dag, memo, left);
        let right = self.intern_node(dag, memo, right);
        memo[at] = self.intern(left, right, label);
        memo[at]
    }

    /// The record `(left, right, label)`: the live one, or a new one
    /// appended, holding a reference to each child.
    fn intern(&mut self, left: u32, right: u32, label: u32) -> u32 {
        let key = (left, right, label);
        if let Some(&idx) = self.map.get(&key) {
            return idx;
        }
        self.acquire(left);
        self.acquire(right);
        self.log.push(record(left, right, label));
        let idx = self.refcounts.len() as u32;
        self.refcounts.push(0);
        self.map.insert(key, idx);
        idx
    }

    fn acquire(&mut self, idx: u32) {
        if idx != NONE {
            self.refcounts[idx as usize] += 1;
        }
    }

    /// Drops one reference; at the last, the record leaves the index — a
    /// free slot, its words left as they are — and releases its children.
    fn release(&mut self, idx: u32) {
        if idx == NONE {
            return;
        }
        let count = &mut self.refcounts[idx as usize];
        debug_assert!(*count > 0, "release of dead record {idx}");
        *count -= 1;
        if *count > 0 {
            return;
        }
        let key = packed_node(self.log.words(), idx);
        let removed = self.map.remove(&key);
        debug_assert_eq!(removed, Some(idx), "record {idx} is not the live one");
        self.free += 1;
        self.release(key.0);
        self.release(key.1);
    }

    /// The BFS repack of a full compile, into a new buffer with room to
    /// append as many records again: the records the shared roots reach,
    /// in id order, renumbered in the order of one queue seeded with them.
    /// It then takes the reachable counts of the tables re-interned since
    /// their last, so the tables are the full compile's too.
    fn compact(&mut self) {
        let roots: Vec<u32> = self.tables.iter().map(|table| table.root).collect();
        let live = self.refcounts.len() - self.free;
        let (log, remap) = RecordLog::packed(self.log.words(), &roots, live);
        let records = log.words().len() / 2;
        debug_assert_eq!(records, live, "a held record no root reaches");
        let mut refcounts = vec![0; records];
        for (&new, &count) in remap.iter().zip(&self.refcounts) {
            if new != NONE {
                refcounts[new as usize] = count;
            }
        }
        self.refcounts = refcounts;
        self.free = 0;
        self.map.clear();
        for idx in 0..records as u32 {
            self.map.insert(packed_node(log.words(), idx), idx);
        }
        let moved = |idx: u32| remap.get(idx as usize).copied().unwrap_or(NONE);
        self.log = log;
        for table in &mut self.tables {
            table.root = moved(table.root);
        }
        for memo in self.mirrors.values_mut() {
            for record in memo {
                *record = moved(*record);
            }
        }
        let stale = (self.tables.iter_mut()).filter(|table| self.uncounted.contains(&table.id));
        for table in stale {
            table.reachable_nodes = reachable(self.log.words(), table.root);
        }
        self.uncounted.clear();
    }
}

/// The records of `words` that `root` reaches (0 for `NONE`).
fn reachable(words: &[u64], root: u32) -> u64 {
    bfs_order(words, &[root]).len() as u64
}

/// Each table's engine, in id order. A fixed policy names it; `Auto`
/// prices each table's `marginal` nodes — those no lower id brought —
/// against its share of the fleet's traffic: its weight (the mean of the
/// fleet's given weights when it has none) over their sum, summed in id
/// order; uniform when that sum is not positive (no weights, or all zero).
fn place<A: Address>(
    policy: &VrfPolicy,
    dags: &BTreeMap<u32, PrefixDag<A>>,
    marginal: &[u64],
) -> Vec<VrfEngineChoice> {
    let model = CostModel::default();
    let weights: Vec<f64> = match policy {
        VrfPolicy::Auto { weights } => {
            let given: Vec<_> = (dags.keys().filter_map(|id| weights.get(id))).collect();
            let mean = given.iter().copied().sum::<f64>() / given.len().max(1) as f64;
            (dags.keys())
                .map(|id| *weights.get(id).unwrap_or(&mean))
                .collect()
        }
        _ => Vec::new(),
    };
    let total: f64 = weights.iter().sum();
    let uniform = 1.0 / dags.len().max(1) as f64;
    (dags.iter().enumerate())
        .map(|(pos, (&id, dag))| {
            policy.fixed_choice(id).unwrap_or_else(|| {
                let weight = if total > 0.0 {
                    weights[pos] / total
                } else {
                    uniform
                };
                model.place(dag.len() as u64, marginal[pos] * 16, weight)
            })
        })
        .collect()
}

/// Compiles `tables` into one shared arena plus dedicated engines per the
/// placement policy: each table folded by the ordinary pDAG compiler,
/// interned into an empty [`VrfArena`] in id order, and the arena
/// compacted. Tables are sorted by id in the result.
///
/// # Panics
/// Panics if two tables share an id.
#[must_use]
pub fn compile_vrf_set<A: Address + Send + Sync + 'static>(
    tables: &[VrfTable<'_, A>],
    config: &BuildConfig,
    policy: &VrfPolicy,
) -> CompiledVrfSet<A> {
    let mut dags = BTreeMap::new();
    for t in tables {
        let dag = PrefixDag::build(t.trie, config);
        assert!(
            dags.insert(t.id, dag).is_none(),
            "duplicate VRF id {}",
            t.id
        );
    }
    let dirty = dags.keys().copied().collect();
    let mut arena = VrfArena::new();
    arena.sync(&mut dags, &dirty, config, policy);
    arena.publish().0
}

// ---------------------------------------------------------------------
// Image encoding
// ---------------------------------------------------------------------

/// First section id of the table at directory index `index`.
#[must_use]
pub fn vrf_section_base(index: usize) -> u32 {
    sections::VRF_TABLE_BASE + index as u32 * sections::VRF_TABLE_STRIDE
}

/// Serializes a compiled set into one `fibimage/v1` blob: `VRF_DIR`
/// directory, shared `VRF_PDAG` arena, and the dedicated engines'
/// sections in per-table id blocks.
///
/// The arena is written compacted — the records the shared roots reach,
/// in BFS order — and every table's reachable count taken from it, so a
/// kept arena's set, free slots and stale counts and all, writes the
/// bytes [`compile_vrf_set`] over the same tables would.
///
/// # Errors
/// [`ImageError::Unsupported`] if a dedicated engine configuration has
/// no image encoding.
pub fn write_vrf_image<A: Address>(
    set: &CompiledVrfSet<A>,
    epoch: u64,
) -> Result<Vec<u8>, ImageError> {
    let roots: Vec<u32> = set.tables.iter().map(|t| t.root).collect();
    let (arena, roots) = pack_bfs(&set.arena, &roots);
    let counts: Vec<u64> = roots.iter().map(|&root| reachable(&arena, root)).collect();
    let route_count: u64 = set.tables.iter().map(|t| t.routes).sum();
    let mut writer = ImageWriter::new::<A>(EngineKind::VrfSet, route_count, epoch);
    let compacted = VrfSetStats {
        free_slots: 0,
        ..set.stats
    };
    writer.set_claimed_size_bytes(compacted.resident_bytes());
    writer.section(
        sections::PARAMS,
        &[
            set.tables.len() as u64,
            set.stats.unique_nodes,
            counts.iter().sum(),
        ],
    );
    writer.section_with(sections::VRF_DIR, |out| {
        out.push(set.tables.len() as u64);
        for ((t, &root), &count) in set.tables.iter().zip(&roots).zip(&counts) {
            out.push(u64::from(t.id) | (u64::from(t.choice() as u8) << 32));
            out.push(u64::from(root));
            out.push(t.routes);
            out.push(count);
            out.push(t.solo_nodes);
            out.push(0);
        }
    });
    writer.section(sections::VRF_PDAG, &arena);
    for (index, t) in set.tables.iter().enumerate() {
        if let Some(dedicated) = &t.dedicated {
            dedicated.write_at(&mut writer, vrf_section_base(index))?;
        }
    }
    Ok(writer.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pdag::RootEntry;
    use fib_trie::Prefix4;

    fn nh(i: u32) -> NextHop {
        NextHop::new(i)
    }

    fn p(s: &str) -> Prefix4 {
        s.parse().unwrap()
    }

    fn base_table() -> BinaryTrie<u32> {
        let mut t = BinaryTrie::new();
        t.insert(p("0.0.0.0/0"), nh(1));
        t.insert(p("10.0.0.0/8"), nh(2));
        t.insert(p("10.1.0.0/16"), nh(3));
        t.insert(p("192.168.0.0/16"), nh(2));
        t.insert(p("192.168.7.0/24"), nh(1));
        t
    }

    #[test]
    fn identical_tables_share_everything() {
        let t = base_table();
        let tables = [
            VrfTable { id: 1, trie: &t },
            VrfTable { id: 2, trie: &t },
            VrfTable { id: 9, trie: &t },
        ];
        let set = compile_vrf_set(&tables, &BuildConfig::default(), &VrfPolicy::Shared);
        assert_eq!(set.stats.tables, 3);
        assert_eq!(
            set.stats.unique_nodes, set.tables[0].reachable_nodes,
            "3 identical tables intern to one table's worth of nodes"
        );
        assert!((set.stats.sharing_ratio() - 3.0).abs() < 1e-9);
        // All three roots are literally the same arena index.
        assert_eq!(set.tables[0].root, set.tables[1].root);
        assert_eq!(set.tables[1].root, set.tables[2].root);
    }

    #[test]
    fn compiled_set_matches_oracle() {
        let t1 = base_table();
        let mut t2 = base_table();
        t2.insert(p("10.2.0.0/16"), nh(4));
        t2.remove(p("192.168.7.0/24"));
        let tables = [VrfTable { id: 1, trie: &t1 }, VrfTable { id: 2, trie: &t2 }];
        let set = compile_vrf_set(&tables, &BuildConfig::default(), &VrfPolicy::Shared);
        for i in 0..4096u32 {
            let addr = i.wrapping_mul(0x9E37_79B9);
            assert_eq!(set.lookup(1, addr), t1.lookup(addr), "vrf 1 addr {addr:#x}");
            assert_eq!(set.lookup(2, addr), t2.lookup(addr), "vrf 2 addr {addr:#x}");
        }
        assert_eq!(set.lookup(7, 0), None, "unknown VRF answers None");
    }

    #[test]
    fn empty_table_compiles_and_answers_none() {
        let t1 = base_table();
        let empty: BinaryTrie<u32> = BinaryTrie::new();
        let tables = [
            VrfTable { id: 1, trie: &t1 },
            VrfTable {
                id: 2,
                trie: &empty,
            },
        ];
        let set = compile_vrf_set(&tables, &BuildConfig::default(), &VrfPolicy::Shared);
        assert_eq!(set.lookup(2, 0x0A00_0001), None);
        assert_eq!(set.lookup(1, 0x0A00_0001), Some(nh(2)));
    }

    #[test]
    fn image_roundtrip_preserves_answers_and_stats() {
        let t1 = base_table();
        let mut t2 = base_table();
        t2.insert(p("172.16.0.0/12"), nh(5));
        let tables = [
            VrfTable { id: 3, trie: &t1 },
            VrfTable { id: 11, trie: &t2 },
        ];
        let set = compile_vrf_set(&tables, &BuildConfig::default(), &VrfPolicy::Shared);
        let bytes = write_vrf_image(&set, 42).unwrap();
        let image = FibImage::from_bytes(&bytes).unwrap();
        assert_eq!(image.engine().unwrap(), EngineKind::VrfSet);
        assert_eq!(image.epoch(), 42);
        let loaded = CompiledVrfSet::<u32>::from_image(&image).unwrap();
        assert_eq!(loaded.tables.len(), 2);
        for i in 0..4096u32 {
            let addr = i.wrapping_mul(0x85EB_CA6B);
            assert_eq!(loaded.lookup(3, addr), t1.lookup(addr));
            assert_eq!(loaded.lookup(11, addr), t2.lookup(addr));
        }
        assert_eq!(loaded.arena, set.arena);
        assert_eq!(loaded.stats, set.stats);
        assert!(
            loaded.stats.sharing_ratio() > 1.0,
            "overlapping tables share"
        );
    }

    /// What the root-array entry for 8-bit prefix `slot` must hold: the
    /// walk's first eight steps from `root` over the packed words, bit by
    /// bit.
    fn walked_entry(arena: &[u64], root: u32, slot: usize) -> RootEntry {
        let (mut node, mut last) = (root, NONE);
        for depth in 0..8 {
            if node == NONE {
                break;
            }
            let (children, label) = (arena[2 * node as usize], arena[2 * node as usize + 1]);
            if label as u32 != NONE {
                last = label as u32;
            }
            node = if slot >> (7 - depth) & 1 == 1 {
                (children >> 32) as u32
            } else {
                children as u32
            };
        }
        RootEntry { node, last }
    }

    #[test]
    fn root_arrays_are_exact_at_every_barrier_and_survive_an_image() {
        let base = base_table();
        let mut deep = base_table();
        deep.insert(p("128.0.0.0/1"), nh(3));
        deep.insert(p("10.1.2.128/25"), nh(6));
        deep.insert(p("10.1.2.3/32"), nh(4));
        let mut default_only = BinaryTrie::new();
        default_only.insert(p("0.0.0.0/0"), nh(5));
        let empty = BinaryTrie::new();
        let tries = [&base, &deep, &default_only, &empty];
        let tables: Vec<_> = (0..)
            .zip(tries)
            .map(|(id, trie)| VrfTable { id, trie })
            .collect();
        // One probe at each end of every /8, and a spread of others.
        let probes: Vec<u32> = (0..256u32)
            .flat_map(|top| [top << 24, top << 24 | 0x00FF_FFFF])
            .chain((0..4096u32).map(|i| i.wrapping_mul(0x9E37_79B9)))
            .chain([0x0A01_0203, 0x0A01_0281])
            .collect();
        // k is 8 whatever λ is: below it, at it, above it, and none at all.
        for lambda in [0u8, 4, 8, 11, 32] {
            let set = compile_vrf_set(
                &tables,
                &BuildConfig::with_lambda(lambda),
                &VrfPolicy::Shared,
            );
            assert_eq!(set.stats.root_bytes, 4 * ROOT_ARRAY_BYTES, "λ {lambda}");
            let bytes = write_vrf_image(&set, 0).unwrap();
            let image = FibImage::from_bytes(&bytes).unwrap();
            let loaded = CompiledVrfSet::<u32>::from_image(&image).unwrap();
            assert_eq!(
                loaded.stats, set.stats,
                "λ {lambda}: the loader charges the same"
            );
            for ((table, trie), loaded_table) in set.tables.iter().zip(tries).zip(&loaded.tables) {
                let array = table.root_array().expect("every table here has a root");
                assert_eq!(
                    Some(array),
                    loaded_table.root_array(),
                    "λ {lambda}: load = compile"
                );
                for (slot, &entry) in array.iter().enumerate() {
                    assert_eq!(entry, walked_entry(&set.arena, table.root, slot));
                }
                for &addr in &probes {
                    let want = trie.lookup(addr);
                    assert_eq!(set.lookup(table.id, addr), want, "λ {lambda}, {addr:#x}");
                    assert_eq!(loaded.lookup(table.id, addr), want, "λ {lambda}, {addr:#x}");
                }
            }
            // A default route alone ends every path above depth 8; a table
            // with no route at all has no label anywhere.
            let ends_above = |table: usize, last| {
                let array = set.tables[table].root_array().unwrap();
                array.iter().all(|&e| e == RootEntry { node: NONE, last })
            };
            assert!(ends_above(2, 5) && ends_above(3, NONE), "λ {lambda}");
        }
    }

    #[test]
    fn cost_model_places_hot_on_serialized_cold_on_xbw() {
        let model = CostModel::default();
        let routes = 40_000u64;
        // Hot table: latency dominates → serialized.
        assert_eq!(
            model.place(routes, 16 * 12_000, 0.25),
            VrfEngineChoice::Serialized
        );
        // Cold, low overlap (big marginal arena cost) → xbw-entropy.
        assert_eq!(
            model.place(routes, 16 * 12_000, 0.0005),
            VrfEngineChoice::Xbw
        );
        // Cold-ish, near-total overlap (tiny marginal bytes) → shared.
        assert_eq!(model.place(routes, 16 * 40, 0.01), VrfEngineChoice::Shared);
    }

    #[test]
    fn auto_policy_dedicated_engines_roundtrip() {
        let t1 = base_table();
        let mut t2 = base_table();
        t2.insert(p("10.9.0.0/16"), nh(6));
        let t3 = base_table();
        let tables = [
            VrfTable { id: 1, trie: &t1 },
            VrfTable { id: 2, trie: &t2 },
            VrfTable { id: 3, trie: &t3 },
        ];
        // Extreme weights force one hot dedicated table; with v4 cost
        // defaults the latency-dominated pick is vsdag (7.1 ns beats
        // serialized's 7.9 and this table is too small for its
        // bits/route premium to matter). Tiny tables otherwise stay
        // shared (marginal bytes are small).
        let set = compile_vrf_set(
            &tables,
            &BuildConfig::default(),
            &VrfPolicy::Auto {
                weights: BTreeMap::from([(1, 0.98), (2, 0.01), (3, 0.01)]),
            },
        );
        assert_eq!(set.tables[0].choice(), VrfEngineChoice::VsDag);
        let bytes = write_vrf_image(&set, 0).unwrap();
        let image = FibImage::from_bytes(&bytes).unwrap();
        let loaded = CompiledVrfSet::<u32>::from_image(&image).unwrap();
        for i in 0..2048u32 {
            let addr = i.wrapping_mul(0xC2B2_AE35);
            assert_eq!(loaded.lookup(1, addr), t1.lookup(addr));
            assert_eq!(loaded.lookup(2, addr), t2.lookup(addr));
            assert_eq!(loaded.lookup(3, addr), t3.lookup(addr));
        }
    }

    #[test]
    fn auto_weighs_an_unnamed_vrf_at_the_mean_and_an_empty_map_uniformly() {
        let t1 = base_table();
        let mut t2 = base_table();
        t2.insert(p("10.9.0.0/16"), nh(6));
        let t3 = base_table();
        let tables = [
            VrfTable { id: 1, trie: &t1 },
            VrfTable { id: 2, trie: &t2 },
            VrfTable { id: 3, trie: &t3 },
        ];
        let placed = |weights: &[(u32, f64)]| {
            let policy = VrfPolicy::Auto {
                weights: weights.iter().copied().collect(),
            };
            let set = compile_vrf_set(&tables, &BuildConfig::default(), &policy);
            set.tables.iter().map(|t| t.choice()).collect::<Vec<_>>()
        };
        // VRF 3 copies VRF 1, so it adds no arena node: cold, it stays
        // shared; at the mean weight it is hot enough to leave.
        let unnamed = placed(&[(1, 1.0), (2, 0.0)]);
        assert_eq!(
            unnamed,
            placed(&[(1, 1.0), (2, 0.0), (3, (1.0 + 0.0) / 2.0)])
        );
        assert_ne!(unnamed, placed(&[(1, 1.0), (2, 0.0), (3, 0.0)]));

        let uniform = placed(&[(1, 1.0), (2, 1.0), (3, 1.0)]);
        assert_eq!(placed(&[]), uniform);
        assert_eq!(placed(&[(1, 0.0), (2, 0.0)]), uniform);
    }

    #[test]
    fn pinned_vsdag_placement_roundtrips() {
        let t1 = base_table();
        let mut t2 = base_table();
        t2.insert(p("172.16.0.0/12"), nh(5));
        let tables = [VrfTable { id: 1, trie: &t1 }, VrfTable { id: 2, trie: &t2 }];
        let set = compile_vrf_set(
            &tables,
            &BuildConfig::default(),
            &VrfPolicy::Pinned {
                choices: BTreeMap::from([
                    (1, VrfEngineChoice::VsDag),
                    (2, VrfEngineChoice::Shared),
                ]),
            },
        );
        assert_eq!(set.tables[0].choice(), VrfEngineChoice::VsDag);
        let bytes = write_vrf_image(&set, 9).unwrap();
        let image = FibImage::from_bytes(&bytes).unwrap();
        let loaded = CompiledVrfSet::<u32>::from_image(&image).unwrap();
        assert_eq!(loaded.tables[0].choice(), VrfEngineChoice::VsDag);
        for i in 0..4096u32 {
            let addr = i.wrapping_mul(0x85EB_CA6B);
            assert_eq!(set.lookup(1, addr), t1.lookup(addr));
            assert_eq!(loaded.lookup(1, addr), t1.lookup(addr));
            assert_eq!(loaded.lookup(2, addr), t2.lookup(addr));
        }
        assert_eq!(crate::lint::lint_bytes(&bytes), Vec::new());
    }

    #[test]
    fn v6_set_compiles_and_roundtrips() {
        let mut t1: BinaryTrie<u128> = BinaryTrie::new();
        let p6 = |s: &str| s.parse::<fib_trie::Prefix6>().unwrap();
        t1.insert(p6("2001:db8::/32"), nh(1));
        t1.insert(p6("2001:db8:7::/48"), nh(2));
        let mut t2 = t1.clone();
        t2.insert(p6("2001:db8:9::/48"), nh(3));
        let tables = [VrfTable { id: 5, trie: &t1 }, VrfTable { id: 6, trie: &t2 }];
        let set = compile_vrf_set(&tables, &BuildConfig::default(), &VrfPolicy::Shared);
        let bytes = write_vrf_image(&set, 0).unwrap();
        let image = FibImage::from_bytes(&bytes).unwrap();
        let loaded = CompiledVrfSet::<u128>::from_image(&image).unwrap();
        let probe: u128 = "2001:db8:9::1"
            .parse::<std::net::Ipv6Addr>()
            .unwrap()
            .into();
        assert_eq!(loaded.lookup(5, probe), Some(nh(1)));
        assert_eq!(loaded.lookup(6, probe), Some(nh(3)));
    }

    #[test]
    fn vrf_image_rejects_plain_view_dispatch() {
        let t = base_table();
        let tables = [VrfTable { id: 1, trie: &t }];
        let set = compile_vrf_set(&tables, &BuildConfig::default(), &VrfPolicy::Shared);
        let bytes = write_vrf_image(&set, 0).unwrap();
        let image = FibImage::from_bytes(&bytes).unwrap();
        assert!(matches!(
            crate::image::any_view::<u32>(&image),
            Err(ImageError::Unsupported(_))
        ));
    }
}
