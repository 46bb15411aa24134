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
//! 2. A **cross-table canonical interner** re-keys every node reachable
//!    from the fold's root on `(left, right, label)` identity, post-order,
//!    straight from that arena, one table at a time in id order, so
//!    structurally identical subtrees from *different* tables land on one
//!    record. The nodes each table adds are its marginal nodes, what
//!    [`VrfPolicy::Auto`] charges it; its fold's live node count is its
//!    standalone size (`solo_nodes`). The fold is then dropped.
//! 3. The compacting BFS every packed pDAG image is written by, its one
//!    queue seeded with every shared-placement table's root (`pack_bfs`
//!    in the pdag module), packs the interned records into a single word
//!    arena in the exact [`PrefixDagRef`] record format. Every shared
//!    table with a root then gets the §5.3 root array the updatable pDAG
//!    walks from ([`RootArray`]: for each 8-bit address prefix, the node
//!    at depth 8 and the last label above it), derived from the packed
//!    arena — for carried tables too, since the BFS renumbers their
//!    nodes — and each VRF is served zero-copy by a `PrefixDagRef` over
//!    the shared words that starts its walk eight levels down. The
//!    arrays are 2 KiB a table and charged ([`VrfSetStats::root_bytes`]);
//!    an image does not store them, its loader
//!    ([`CompiledVrfSet::from_image`]) derives the same ones.
//!
//! Step 2 sees every supplied table, a dedicated one too; step 3 packs
//! only what shared-placement roots reach, and the BFS orders nodes by
//! structure, not by interner id, so a dedicated table's records in the
//! interner change no arena byte.
//!
//! A fleet that changes a table at a time is recompiled **from the set
//! compiled before it** ([`recompile_vrf_set`]): steps 1 and 2 run for
//! the changed tables only, against an interner seeded with the previous
//! arena, and step 3 — whose order depends on structure alone — emits
//! the bytes a from-scratch compile would. [`compile_vrf_set`] is that
//! function with nothing to start from.
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
//! and [`AnyView::parse`]s it back.
//!
//! The whole set ships as one `fibimage/v1` file: a [`sections::VRF_DIR`]
//! directory, the shared [`sections::VRF_PDAG`] arena, and each dedicated
//! table's sections at [`vrf_section_base`] of its directory index plus
//! their position in [`ImageCodec::SECTIONS`].
//!
//! A fleet has one type, [`CompiledVrfSet`], whether compiled or loaded:
//! [`CompiledVrfSet::from_image`] gives back the set its compiler built,
//! arena, roots, root arrays, counts and statistics alike. Only a
//! dedicated table's engine still differs by origin: a compiled table
//! keeps the engine it built, a loaded one keeps its own sections and
//! serves through a view parsed per call. A loaded set is therefore a
//! valid `previous` for [`recompile_vrf_set`], and a fleet restarts by
//! loading its image, then recompiling what changed; a carried loaded
//! dedicated table serves from its sections until it is next re-folded.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

use fib_trie::{Address, BinaryTrie, NextHop};

use crate::engine::{BuildConfig, FibBuild, FibLookup};
use crate::idhash::IdBuildHasher;
use crate::image::{
    sections, write_image, AnyView, EngineKind, EngineVisitor, FibImage, ImageCodec, ImageError,
    ImageWriter, Sections,
};
use crate::pdag::{
    bfs_order, pack_bfs, packed_node, packed_root_array, record, PrefixDag, PrefixDagRef, RootArray,
};
use crate::xbw::XbwStorage;

const NONE: u32 = u32::MAX;

/// Words per [`sections::VRF_DIR`] table record (after the count word).
pub const VRF_DIR_RECORD_WORDS: usize = 6;

/// Resident bytes of one shared table's [`RootArray`].
const ROOT_ARRAY_BYTES: u64 = std::mem::size_of::<RootArray>() as u64;

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
    /// independent canonical compiles would have stored.
    pub total_nodes: u64,
    /// Unique nodes in the shared arena after cross-table interning.
    pub unique_nodes: u64,
    /// Shared arena footprint (16 bytes per unique node).
    pub arena_bytes: u64,
    /// Root arrays of the shared tables with a root, 2 KiB each.
    pub root_bytes: u64,
    /// Dedicated per-table engine footprints, summed.
    pub dedicated_bytes: u64,
    /// Σ over *all* tables of their standalone packed-pDAG image bytes —
    /// the independent-compilation baseline.
    pub independent_bytes: u64,
}

impl VrfSetStats {
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

    /// Resident bytes of the whole set (arena + root arrays + dedicated
    /// engines).
    #[must_use]
    pub fn resident_bytes(&self) -> u64 {
        self.arena_bytes + self.root_bytes + self.dedicated_bytes
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
    /// image: fully parsed once at load, then served through a trusted
    /// view parsed per call, as an image-backed snapshot serves.
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

    /// The trusted view over a loaded table's one-engine image.
    fn view(image: &FibImage) -> AnyView<'_, A> {
        (image.engine())
            .and_then(|kind| AnyView::parse(kind, |id| image.section(id), true))
            .expect("a loaded table passed a full parse at load") // fibcheck: allow(hot-path): the image is immutable and was validated once, at load
    }

    /// A table [`CompiledVrfSet::from_image`] loads: `section` resolves
    /// its sections by canonical id. They are fully parsed — what a
    /// hostile image fails on — then copied into a one-engine image.
    fn load<'i>(
        choice: VrfEngineChoice,
        kind: EngineKind,
        section: impl Sections<'i>,
    ) -> Result<Self, ImageError> {
        let served_bytes = AnyView::<A>::parse(kind, &section, false)?.size_bytes() as u64;
        let mut writer = ImageWriter::new::<A>(kind, 0, 0);
        for &(id, _) in kind.sections() {
            writer.section(id, section(id)?);
        }
        let image = FibImage::from_bytes(&writer.finish())?;
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
        let served_bytes = E::view_prevalidated(&engine.image()?)?.size_bytes() as u64;
        Ok(VrfDedicated {
            choice: self.choice,
            engine: DedicatedEngine::Built(Arc::new(engine)),
            served_bytes,
        })
    }
}

/// One compiled table of a [`CompiledVrfSet`].
pub struct CompiledVrf<A: Address> {
    /// VRF id.
    pub id: u32,
    /// Root index into the shared arena (`u32::MAX` for a dedicated
    /// placement, or for an empty table).
    pub root: u32,
    /// Routes in the table.
    pub routes: u64,
    /// Nodes reachable from `root` in the shared arena (0 for dedicated
    /// placements).
    pub reachable_nodes: u64,
    /// This table's standalone packed-pDAG node count — the
    /// independent-compilation baseline recorded in the directory.
    pub solo_nodes: u64,
    /// The table's own engine; `None` places it on the shared arena.
    pub dedicated: Option<VrfDedicated<A>>,
    /// Where the table's walk starts: derived from the arena at `root`,
    /// present exactly when `root` is.
    root_array: Option<Box<RootArray>>,
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
pub struct CompiledVrfSet<A: Address> {
    /// The shared hash-consed arena, two packed words per node (the
    /// [`PrefixDagRef`] record format).
    pub arena: Vec<u64>,
    /// Per-table results, sorted by VRF id.
    pub tables: Vec<CompiledVrf<A>>,
    /// Aggregate dedup statistics.
    pub stats: VrfSetStats,
}

/// The empty set: no tables, no arena — what a from-scratch compile
/// recompiles from.
impl<A: Address> Default for CompiledVrfSet<A> {
    fn default() -> Self {
        Self {
            arena: Vec::new(),
            tables: Vec::new(),
            stats: VrfSetStats::default(),
        }
    }
}

impl<A: Address> CompiledVrfSet<A> {
    /// The set over `arena` and `tables` (sorted by id), with the
    /// statistics both a compile and a load charge it.
    fn assemble(arena: Vec<u64>, tables: Vec<CompiledVrf<A>>) -> Self {
        let mut stats = VrfSetStats {
            tables: tables.len(),
            unique_nodes: (arena.len() / 2) as u64,
            arena_bytes: arena.len() as u64 * 8,
            ..VrfSetStats::default()
        };
        for table in &tables {
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
        Self {
            arena,
            tables,
            stats,
        }
    }

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
                // Canonical section `id` sits at the table's block base plus
                // its position in the engine's `SECTIONS`.
                Some(kind) => {
                    let slot = |id| kind.sections().iter().position(|&(s, _)| s == id);
                    let section = |id| match slot(id) {
                        Some(slot) => image.section(vrf_section_base(index) + slot as u32),
                        None => Err(ImageError::MissingSection(id)),
                    };
                    (NONE, Some(VrfDedicated::load(choice, kind, section)?))
                }
            };
            tables.push(CompiledVrf {
                id,
                root,
                routes: record[2],
                reachable_nodes: record[3],
                solo_nodes: record[4],
                dedicated,
                root_array: (root != NONE).then(|| packed_root_array(arena, root)),
            });
        }
        Ok(Self::assemble(arena.to_vec(), tables))
    }

    /// The compiled table for `vrf`, if present.
    #[must_use]
    pub fn table(&self, vrf: u32) -> Option<&CompiledVrf<A>> {
        let i = self.tables.binary_search_by_key(&vrf, |t| t.id).ok()?;
        self.tables.get(i)
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
    /// Keys are bucketed by VRF id so every run flows through its table's
    /// batch path — the shared arena's walk from the table's root array,
    /// or a dedicated engine's lanes — instead of ping-ponging between
    /// tables per packet; a run's root array and the top of its arena stay
    /// in cache across it. All working memory lives in `scratch`; after
    /// its vectors have grown to the steady batch size this path does not
    /// allocate.
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
        order.extend(0..keys.len() as u32);
        order.sort_unstable_by_key(|&i| keys[i as usize].0);
        for run in order.chunk_by(|&a, &b| keys[a as usize].0 == keys[b as usize].0) {
            let vrf = keys[run[0] as usize].0;
            addrs.clear();
            addrs.extend(run.iter().map(|&i| keys[i as usize].1));
            hops.clear();
            hops.resize(run.len(), None);
            // An unknown VRF's run keeps the `None`s it was filled with.
            if let Some(table) = self.table(vrf) {
                match &table.dedicated {
                    None => self.shared_view(table).lookup_batch(addrs, hops),
                    Some(dedicated) => dedicated.lookup_batch(addrs, hops),
                }
            }
            for (&i, &hop) in run.iter().zip(hops.iter()) {
                out[i as usize] = hop;
            }
        }
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

/// Cross-table canonical interner: one record per distinct
/// `(left, right, label)` triple, in first-interned order, in the pDAG's
/// two-word record layout.
struct ArenaInterner {
    map: HashMap<(u32, u32, u32), u32, IdBuildHasher>,
    nodes: Vec<u64>,
}

impl ArenaInterner {
    /// An interner already holding every node of a packed arena this
    /// compiler emitted, each under its arena index: arena records are
    /// pairwise distinct canonical triples, so seeding is one insert per
    /// record and no traversal, and a root into `arena` is its own
    /// canonical id. An empty `arena` gives the empty interner.
    fn seeded(arena: &[u64]) -> Self {
        let n = (arena.len() / 2) as u32;
        let mut map = HashMap::with_capacity_and_hasher(n as usize, IdBuildHasher::default());
        for idx in 0..n {
            let earlier = map.insert(packed_node(arena, idx), idx);
            debug_assert!(earlier.is_none(), "arena record {idx} is not canonical");
        }
        Self {
            map,
            nodes: arena.to_vec(),
        }
    }

    /// Nodes interned so far.
    fn len(&self) -> usize {
        self.nodes.len() / 2
    }

    /// Interns every node reachable from `root` in the record arena
    /// `words` — a folded [`PrefixDag`]'s, free slots and all — post-order,
    /// and returns the table's canonical root. `memo` maps the arena's node
    /// indices to canonical ids. Recursion depth is bounded by the address
    /// width (a pDAG is a depth-bounded DAG).
    fn intern_table(&mut self, words: &[u64], root: u32) -> u32 {
        let mut memo = vec![NONE; words.len() / 2];
        self.intern_at(words, root, &mut memo)
    }

    fn intern_at(&mut self, words: &[u64], idx: u32, memo: &mut [u32]) -> u32 {
        if idx == NONE {
            return NONE;
        }
        if memo[idx as usize] != NONE {
            return memo[idx as usize];
        }
        let (left, right, label) = packed_node(words, idx);
        let node = (
            self.intern_at(words, left, memo),
            self.intern_at(words, right, memo),
            label,
        );
        let nodes = &mut self.nodes;
        let id = *self.map.entry(node).or_insert_with(|| {
            nodes.extend(record(node.0, node.1, node.2));
            (nodes.len() / 2 - 1) as u32
        });
        memo[idx as usize] = id;
        id
    }
}

/// Where one table of a recompile comes from.
enum Source<'a, A: Address> {
    /// Folded from its trie and interned in this compile.
    Folded {
        trie: &'a BinaryTrie<A>,
        /// Its canonical root in the interner.
        root: u32,
        /// Nodes its interning added (what `Auto` charges it).
        marginal_nodes: u64,
        /// Live nodes of its standalone fold.
        solo_nodes: u64,
    },
    /// Unchanged since the previous set: its compiled table there.
    Carried(&'a CompiledVrf<A>),
}

/// Compiles `tables` into one shared arena plus dedicated engines per the
/// placement policy. Tables are sorted by id in the result. This is
/// [`recompile_vrf_set`] from the empty set.
///
/// # Panics
/// Panics if two tables share an id.
#[must_use]
pub fn compile_vrf_set<A: Address + Send + Sync + 'static>(
    tables: &[VrfTable<'_, A>],
    config: &BuildConfig,
    policy: &VrfPolicy,
) -> CompiledVrfSet<A> {
    let mut fleet = BTreeMap::new();
    for t in tables {
        assert!(
            fleet.insert(t.id, t.trie).is_none(),
            "duplicate VRF id {}",
            t.id
        );
    }
    let empty = CompiledVrfSet::default();
    recompile_vrf_set(&empty, &fleet, &BTreeSet::new(), config, policy).0
}

/// Recompiles a fleet from the set compiled before it, folding only the
/// tables that changed; returns the set and how many tables it folded.
///
/// `tables` maps every VRF id of the new set to its trie; tables of
/// `previous` it does not list are dropped. A table is **carried over**
/// from `previous` — its root (or dedicated engine), route count and node
/// counts taken as they stand, its trie never looked at — unless its id
/// is in `changed`, it is new, or the policy places it on another engine
/// than `previous` did; those are folded, interned and placed afresh.
/// Under [`VrfPolicy::Auto`] placement is a fleet-wide decision (a
/// table's marginal bytes depend on every lower id), so every table is
/// folded; the interning pass records each table's marginal nodes as it
/// goes, so pricing them costs no second pass. The policy places tables
/// by id, so tables coming and going move no other table.
///
/// When a carried table keeps a shared root, the cross-table interner is
/// seeded with `previous.arena` (already canonical, so that root is its
/// own canonical id); the folded tables are interned against it, and the
/// multi-root BFS packs what is reachable from the new roots. That BFS
/// orders nodes by structure, not by interner id, so the result is
/// **bit-identical** — arena, roots, root arrays, per-table counts,
/// statistics — to a from-scratch [`compile_vrf_set`] over the same
/// tables, provided `previous` was compiled by this function under the
/// same `config` — or loaded ([`CompiledVrfSet::from_image`]) from the
/// image of such a set — and every table not in `changed` is what it was
/// then.
#[must_use]
pub fn recompile_vrf_set<A: Address + Send + Sync + 'static>(
    previous: &CompiledVrfSet<A>,
    tables: &BTreeMap<u32, &BinaryTrie<A>>,
    changed: &BTreeSet<u32>,
    config: &BuildConfig,
    policy: &VrfPolicy,
) -> (CompiledVrfSet<A>, usize) {
    // Carry what is unchanged and stays on its engine (never under `Auto`,
    // which fixes no choice); fold every other table with the ordinary
    // single-table compiler and intern it straight from its arena, in id
    // order. The interner starts from the previous arena when a shared
    // root into it is kept.
    let carried = |id: u32| {
        let fixed = policy.fixed_choice(id);
        (previous.table(id)).filter(|t| !changed.contains(&id) && Some(t.choice()) == fixed)
    };
    let keeps_root = (tables.keys()).any(|&id| carried(id).is_some_and(|t| t.dedicated.is_none()));
    let mut interner = ArenaInterner::seeded(if keeps_root { &previous.arena } else { &[] });
    let sources: Vec<Source<'_, A>> = tables
        .iter()
        .map(|(&id, &trie)| match carried(id) {
            Some(table) => Source::Carried(table),
            None => {
                let dag = PrefixDag::build(trie, config);
                let before = interner.len();
                let root = interner.intern_table(&dag.nodes, dag.root);
                Source::Folded {
                    trie,
                    root,
                    marginal_nodes: (interner.len() - before) as u64,
                    solo_nodes: dag.stats().live_nodes as u64,
                }
            }
        })
        .collect();

    // Placement. A carried table stays where it is. `Auto` prices each
    // table's marginal nodes — those no lower id brought — against its
    // share of the fleet's traffic: its weight (the mean of the fleet's
    // given weights when it has none) over their sum, summed in id order;
    // uniform when that sum is not positive (no weights, or all zero).
    let model = CostModel::default();
    let weights: Vec<f64> = match policy {
        VrfPolicy::Auto { weights } => {
            let given: Vec<_> = (tables.keys().filter_map(|id| weights.get(id))).collect();
            let mean = given.iter().copied().sum::<f64>() / given.len().max(1) as f64;
            (tables.keys())
                .map(|id| *weights.get(id).unwrap_or(&mean))
                .collect()
        }
        _ => Vec::new(),
    };
    let total: f64 = weights.iter().sum();
    let uniform = 1.0 / tables.len().max(1) as f64;
    let choices: Vec<VrfEngineChoice> = (tables.keys().zip(&sources).enumerate())
        .map(|(pos, (&id, source))| match *source {
            Source::Carried(table) => table.choice(),
            Source::Folded {
                trie,
                marginal_nodes,
                ..
            } => policy.fixed_choice(id).unwrap_or_else(|| {
                let weight = if total > 0.0 {
                    weights[pos] / total
                } else {
                    uniform
                };
                model.place(trie.len() as u64, marginal_nodes * 16, weight)
            }),
        })
        .collect();

    // Pack what the shared-placement roots reach; a dedicated table's
    // nodes sit in the interner unreached.
    let canon_roots: Vec<u32> = sources
        .iter()
        .zip(&choices)
        .map(|(source, choice)| match (choice, source) {
            (VrfEngineChoice::Shared, Source::Folded { root, .. }) => *root,
            (VrfEngineChoice::Shared, Source::Carried(table)) => table.root,
            _ => NONE,
        })
        .collect();
    let (arena, packed_roots) = pack_bfs(&interner.nodes, &canon_roots);
    drop(interner);

    // Assemble per-table results; the set charges their statistics.
    let folded = (sources.iter())
        .filter(|source| matches!(source, Source::Folded { .. }))
        .count();
    let compiled = (tables.keys().zip(&sources).enumerate())
        .map(|(pos, (&id, source))| {
            let choice = choices[pos];
            let root = match choice {
                VrfEngineChoice::Shared => packed_roots[pos],
                _ => NONE,
            };
            let root_array = (root != NONE).then(|| packed_root_array(&arena, root));
            match *source {
                Source::Carried(prev) => CompiledVrf {
                    root,
                    root_array,
                    dedicated: prev.dedicated.clone(),
                    ..*prev
                },
                Source::Folded {
                    trie, solo_nodes, ..
                } => {
                    let build = BuildDedicated {
                        choice,
                        trie,
                        config,
                    };
                    let dedicated = choice.engine_kind().map(|kind| {
                        (kind.visit(build).and_then(|built| built))
                            .expect("a placement names an engine with an image encoding")
                    });
                    CompiledVrf {
                        id,
                        root,
                        routes: trie.len() as u64,
                        reachable_nodes: bfs_order(&arena, &[root]).len() as u64,
                        solo_nodes,
                        dedicated,
                        root_array,
                    }
                }
            }
        })
        .collect();
    (CompiledVrfSet::assemble(arena, compiled), folded)
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
/// # Errors
/// [`ImageError::Unsupported`] if a dedicated engine configuration has
/// no image encoding.
pub fn write_vrf_image<A: Address>(
    set: &CompiledVrfSet<A>,
    epoch: u64,
) -> Result<Vec<u8>, ImageError> {
    let route_count: u64 = set.tables.iter().map(|t| t.routes).sum();
    let mut writer = ImageWriter::new::<A>(EngineKind::VrfSet, route_count, epoch);
    writer.set_claimed_size_bytes(set.stats.resident_bytes());
    writer.section(
        sections::PARAMS,
        &[
            set.tables.len() as u64,
            set.stats.unique_nodes,
            set.stats.total_nodes,
        ],
    );
    writer.section_with(sections::VRF_DIR, |out| {
        out.push(set.tables.len() as u64);
        for t in &set.tables {
            out.push(u64::from(t.id) | (u64::from(t.choice() as u8) << 32));
            out.push(u64::from(t.root));
            out.push(t.routes);
            out.push(t.reachable_nodes);
            out.push(t.solo_nodes);
            out.push(0);
        }
    });
    writer.section(sections::VRF_PDAG, &set.arena);
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
    fn recompile_carries_clean_tables_and_equals_a_full_compile() {
        let t1 = base_table();
        let mut t2 = base_table();
        t2.insert(p("10.2.0.0/16"), nh(4));
        let mut t3 = base_table();
        t3.remove(p("192.168.7.0/24"));
        let config = BuildConfig::default();
        let policy = serialized_vrf_1();
        let tables = |t2| {
            [
                VrfTable { id: 1, trie: &t1 },
                VrfTable { id: 2, trie: t2 },
                VrfTable { id: 3, trie: &t3 },
            ]
        };
        let previous = compile_vrf_set(&tables(&t2), &config, &policy);

        // VRF 2 changes; 1 (dedicated) and 3 (shared) are carried.
        let mut t2_next = t2.clone();
        t2_next.insert(p("172.16.0.0/12"), nh(5));
        t2_next.remove(p("10.1.0.0/16"));
        let fleet = BTreeMap::from([(1, &t1), (2, &t2_next), (3, &t3)]);
        let (next, folded) = recompile_vrf_set(&previous, &fleet, &[2].into(), &config, &policy);
        assert_eq!(folded, 1, "VRF 2 alone is folded");
        let full = compile_vrf_set(&tables(&t2_next), &config, &policy);
        assert_eq!(next.arena, full.arena);
        assert_eq!(next.stats, full.stats);
        let record = |t: &CompiledVrf<u32>| {
            let counts = (t.routes, t.reachable_nodes, t.solo_nodes);
            (t.id, t.choice(), t.root, counts)
        };
        for (got, want) in next.tables.iter().zip(&full.tables) {
            assert_eq!(record(got), record(want));
        }
        // Carried means shared, not rebuilt.
        let engine = |set: &CompiledVrfSet<u32>| {
            let dedicated = set.tables[0].dedicated.clone();
            match dedicated.expect("table 1 is pinned to serialized").engine {
                DedicatedEngine::Built(engine) => engine,
                DedicatedEngine::Loaded(_) => unreachable!("compiled, not loaded"),
            }
        };
        assert!(Arc::ptr_eq(&engine(&previous), &engine(&next)));
        for i in 0..2048u32 {
            let addr = i.wrapping_mul(0x9E37_79B9);
            assert_eq!(next.lookup(1, addr), t1.lookup(addr));
            assert_eq!(next.lookup(2, addr), t2_next.lookup(addr));
            assert_eq!(next.lookup(3, addr), t3.lookup(addr));
        }

        // A table the fleet no longer lists is dropped, nodes and all.
        let fleet = BTreeMap::from([(1, &t1), (3, &t3)]);
        let (shrunk, _) = recompile_vrf_set(&next, &fleet, &BTreeSet::new(), &config, &policy);
        let full = compile_vrf_set(
            &[VrfTable { id: 1, trie: &t1 }, VrfTable { id: 3, trie: &t3 }],
            &config,
            &policy,
        );
        assert_eq!(shrunk.arena, full.arena);
        assert_eq!(shrunk.stats, full.stats);
    }

    /// VRF 1 on `Serialized`, every other VRF on the shared arena.
    fn serialized_vrf_1() -> VrfPolicy {
        VrfPolicy::Pinned {
            choices: BTreeMap::from([(1, VrfEngineChoice::Serialized)]),
        }
    }

    #[test]
    fn a_table_the_policy_moves_is_refolded() {
        let t = base_table();
        let config = BuildConfig::default();
        let tables = [VrfTable { id: 1, trie: &t }];
        let previous = compile_vrf_set(&tables, &config, &serialized_vrf_1());
        let fleet = BTreeMap::from([(1, &t)]);
        let (moved, folded) = recompile_vrf_set(
            &previous,
            &fleet,
            &BTreeSet::new(),
            &config,
            &VrfPolicy::Shared,
        );
        assert_eq!(folded, 1, "unchanged, but moved: folded again");
        assert_eq!(moved.tables[0].choice(), VrfEngineChoice::Shared);
        let full = compile_vrf_set(&tables, &config, &VrfPolicy::Shared);
        assert_eq!(moved.arena, full.arena);
        assert_eq!(moved.stats, full.stats);
        assert_eq!(moved.tables[0].root, full.tables[0].root);
        for i in 0..2048u32 {
            let addr = i.wrapping_mul(0x9E37_79B9);
            assert_eq!(moved.lookup(1, addr), t.lookup(addr));
        }
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
