//! The engine spine: the trait family every FIB representation in the
//! workspace answers to, split along the control/data-plane seam of the
//! paper's §5 router architecture, and the one table that wires each
//! engine into it.
//!
//! * [`FibLookup`] — the data-plane surface: single and batched
//!   longest-prefix match, resident size, and the traced-lookup hooks the
//!   cache/SRAM simulators consume. Engines with a flat memory layout
//!   ([`SerializedDag`], [`VarStrideDag`]) and the succinct [`XbwFib`]
//!   override [`FibLookup::lookup_batch`] with interleaved multi-lane
//!   walks.
//! * [`FibBuild`] — the control-plane build step: every engine constructs
//!   from the oracle [`BinaryTrie`] under one uniform [`BuildConfig`], so
//!   a router can re-emit any representation from its control FIB — and
//!   [`FibBuild::rebuild_from`] lets it hand the previous engine along, for
//!   the engines that can carry compile-time state into the next build.
//! * [`FibUpdate`] — incremental updates with a [`RebuildNeeded`] escape
//!   hatch: structures with native λ-barrier updates ([`PrefixDag`],
//!   [`BinaryTrie`], [`RouteTable`]) apply them in place; static images
//!   decline and let the router schedule a rebuild. Its
//!   [`FibUpdate::publish_copy`] is what a router publishes of a working
//!   engine: a clone by default; for the [`PrefixDag`], the data-plane
//!   half, reading the records an append-only log holds, with only what
//!   changed since the last publish appended to it.
//!
//! An engine writes its walk, batch kernel, stream kernel and traced walk
//! once, as inherent methods of the borrowed view its image is served
//! from. [`engine_table`] then has one row per engine, and everything
//! that must know the whole set is generated from it: `FibLookup` for
//! the owned type and for the view (here), and [`crate::EngineKind`] with
//! its [`crate::EngineKind::visit`] and [`crate::EngineKind::sections`],
//! and [`crate::AnyView`] with the dispatch of [`crate::any_view`] (in
//! [`crate::image`]) — which single-engine images and a fleet's dedicated
//! tables share.
//! [`roster`] is the matching value-level list — one built engine per
//! benchmark row — that the differential tests (`tests/equivalence.rs`)
//! and the batch guard (`crates/bench/tests/batch_guard.rs`) enumerate.

use fib_trie::{Address, NextHop, Prefix};

use crate::vsdag::{MultibitDag, VsParams};
use crate::xbw::XbwStorage;

/// Every type an [`engine_table`] row names. The table's consumers
/// glob-import this, so a row's names resolve wherever it expands and a
/// new engine is imported in one place.
pub(crate) mod table_types {
    pub(crate) use crate::pdag::{PrefixDag, PrefixDagRef};
    pub(crate) use crate::serialized::{SerializedDag, SerializedDagRef};
    pub(crate) use crate::vsdag::{VarStrideDag, VarStrideDagRef};
    pub(crate) use crate::xbw::{XbwFib, XbwFibRef};
    pub(crate) use fib_trie::{BinaryTrie, LcTrie, ProperTrie, RouteTable};
}
use table_types::*;

/// Uniform construction parameters for [`FibBuild`].
///
/// Every engine reads the fields relevant to it and ignores the rest, so
/// one config can drive a whole fleet of representations off the same
/// control FIB.
#[derive(Clone, Copy, Debug)]
pub struct BuildConfig {
    /// Leaf-push barrier for the prefix DAGs; `None` selects the
    /// entropy-derived barrier of Eq. (3).
    pub lambda: Option<u8>,
    /// Stride of the fixed-stride plan ([`MultibitDag::from_trie`]) the
    /// [`roster`] carries as its `multibit-dag` baseline.
    pub stride: u8,
    /// LC-trie fill factor in `(0, 1]`.
    pub fill: f64,
    /// LC-trie maximum stride.
    pub max_stride: u8,
    /// Storage mode of the XBW-b transform.
    pub xbw_storage: XbwStorage,
    /// Widest per-node stride the variable-stride DP may choose.
    pub vs_max_stride: u8,
    /// Variable-stride slot budget as a multiple of the fixed stride-4
    /// plan's pre-dedup slot mass (`f64::INFINITY` disables it).
    pub vs_budget: f64,
}

impl Default for BuildConfig {
    /// The paper's evaluation defaults: λ = 11, a fixed stride of 4 (the
    /// ablation sweet spot; byte-wide nodes would be 8), kernel-flavoured
    /// LC-trie parameters, entropy-mode XBW-b.
    fn default() -> Self {
        Self {
            lambda: Some(11),
            stride: 4,
            fill: 0.5,
            max_stride: 12,
            xbw_storage: XbwStorage::Entropy,
            vs_max_stride: 12,
            vs_budget: 0.6,
        }
    }
}

impl BuildConfig {
    /// The variable-stride DP knobs this config implies.
    #[must_use]
    pub fn vs_params(&self) -> VsParams {
        VsParams {
            max_stride: self.vs_max_stride,
            budget: self.vs_budget,
        }
    }

    /// A config with an explicit leaf-push barrier.
    #[must_use]
    pub fn with_lambda(lambda: u8) -> Self {
        Self {
            lambda: Some(lambda),
            ..Self::default()
        }
    }

    /// A config selecting the entropy-derived barrier of Eq. (3).
    #[must_use]
    pub fn entropy_barrier() -> Self {
        Self {
            lambda: None,
            ..Self::default()
        }
    }

    /// Resolves the barrier for a concrete FIB.
    #[must_use]
    pub fn lambda_for<A: Address>(&self, trie: &BinaryTrie<A>) -> u8 {
        match self.lambda {
            Some(l) => l.min(A::WIDTH),
            None => {
                let metrics = crate::entropy::FibEntropy::of_trie(trie);
                crate::lambda::barrier_entropy(metrics.n_leaves, metrics.h0, A::WIDTH)
            }
        }
    }
}

/// Returned by [`FibUpdate`] when a structure cannot absorb an update in
/// place; the owner must rebuild it from the control FIB via [`FibBuild`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RebuildNeeded;

impl std::fmt::Display for RebuildNeeded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "engine requires a rebuild from the control FIB")
    }
}

impl std::error::Error for RebuildNeeded {}

/// The data-plane surface: anything that answers longest-prefix-match
/// queries.
pub trait FibLookup<A: Address> {
    /// Engine name for reports (e.g. `"pDAG"`, `"fib_trie"`).
    fn name(&self) -> &'static str;

    /// Longest-prefix-match lookup.
    fn lookup(&self, addr: A) -> Option<NextHop>;

    /// Batched longest-prefix match: resolves `addrs[i]` into `out[i]`.
    ///
    /// The default implementation is a plain per-address loop; flat-layout
    /// engines override it with interleaved multi-lane walks that overlap
    /// the independent memory fetches of different packets.
    ///
    /// # Panics
    /// Panics if `out` is shorter than `addrs`.
    // Out of line on purpose: one call per batch costs nothing, while the
    // same loop inlined into `EpochSnapshot`'s dyn-dispatch arm measured
    // 5–7 % slower on the pDAG workloads (`churn-inplace`, `churn-spool`).
    #[inline(never)]
    fn lookup_batch(&self, addrs: &[A], out: &mut [Option<NextHop>]) {
        assert!(out.len() >= addrs.len(), "output buffer too small"); // fibcheck: allow(hot-path): documented once-per-batch contract, not per-packet
        for (addr, slot) in addrs.iter().zip(out.iter_mut()) {
            *slot = self.lookup(*addr);
        }
    }

    /// [`FibLookup::lookup_batch`] under the name the serving loop and
    /// the benchmark call. Every engine has one batch kernel, so no type
    /// overrides this.
    ///
    /// # Panics
    /// Panics if `out` is shorter than `addrs`.
    fn lookup_stream(&self, addrs: &[A], out: &mut [Option<NextHop>]) {
        self.lookup_batch(addrs, out);
    }

    /// Resident size in bytes of the lookup structure (the number Table 1
    /// and Table 2 report).
    fn size_bytes(&self) -> usize;

    /// Lookup that reports each memory touch as `(byte offset, size)` into
    /// `sink` for cache simulation. Engines without instrumentation run a
    /// plain lookup and report nothing.
    fn lookup_traced(&self, addr: A, sink: &mut dyn FnMut(u64, u32)) -> Option<NextHop> {
        let _ = sink;
        self.lookup(addr)
    }

    /// Whether [`FibLookup::lookup_traced`] produces a real access stream.
    fn traces_memory(&self) -> bool {
        false
    }
}

/// The control-plane build step: construct an engine from the oracle trie.
pub trait FibBuild<A: Address>: Sized {
    /// Builds the engine from `trie` under `config`.
    fn build(trie: &BinaryTrie<A>, config: &BuildConfig) -> Self;

    /// Builds the engine with a measured traffic profile attached.
    ///
    /// `heat` is `(entries, depth)` in the workload `HeatSummary` shape —
    /// MSB-aligned `u64` prefix keys truncated to `depth` bits with hit
    /// counts. Traffic-aware engines (the variable-stride DAG) reshape
    /// their layout around it; everything else ignores it and builds
    /// uniformly, so a router can thread live heat through every rebuild
    /// without knowing which engine it drives.
    fn build_weighted(
        trie: &BinaryTrie<A>,
        config: &BuildConfig,
        heat: Option<(&[(u64, u64)], u8)>,
    ) -> Self {
        let _ = heat;
        Self::build(trie, config)
    }

    /// Rebuilds the engine for `trie` with the engine built before it at
    /// hand — what a router calls, ahead of [`Self::build_weighted`], when
    /// updates made its working engine stale. `previous` was built by this
    /// trait, from an earlier state of the same control FIB (its config
    /// and heat may differ from the ones passed here); an engine that can
    /// carry compile-time state across (the variable-stride DAG holds its
    /// plan's slot penalty, so the rebuild is one DP round instead of a
    /// search) returns a complete, independent compile of `trie`. The
    /// default declines, as [`FibUpdate`]'s does: `None` sends the caller
    /// to [`Self::build_weighted`].
    #[must_use]
    fn rebuild_from(
        previous: &Self,
        trie: &BinaryTrie<A>,
        config: &BuildConfig,
        heat: Option<(&[(u64, u64)], u8)>,
    ) -> Option<Self> {
        let _ = (previous, trie, config, heat);
        None
    }

    /// Whether [`Self::build_weighted`] actually consumes the heat
    /// profile. Routers use this to decide if a fresh traffic interval
    /// warrants a re-layout rebuild (re-striding) or only a hot-slab cut.
    #[must_use]
    fn heat_aware() -> bool {
        false
    }
}

/// Incremental route updates, with an escape hatch for static structures.
pub trait FibUpdate<A: Address> {
    /// Inserts or replaces a route in place, returning the previous
    /// next-hop, or signals that the structure must be rebuilt. The
    /// default declines: a static engine is rebuilt from the control FIB.
    ///
    /// # Errors
    /// [`RebuildNeeded`] if the engine has no in-place update path.
    fn try_insert(
        &mut self,
        prefix: Prefix<A>,
        next_hop: NextHop,
    ) -> Result<Option<NextHop>, RebuildNeeded> {
        let _ = (prefix, next_hop);
        Err(RebuildNeeded)
    }

    /// Removes a route in place, returning its next-hop if it existed, or
    /// signals that the structure must be rebuilt. The default declines.
    ///
    /// # Errors
    /// [`RebuildNeeded`] if the engine has no in-place update path.
    fn try_remove(&mut self, prefix: Prefix<A>) -> Result<Option<NextHop>, RebuildNeeded> {
        let _ = prefix;
        Err(RebuildNeeded)
    }

    /// How far the structure has degraded from its freshly built form, in
    /// `[0, 1]`. A router checks it after every update and compacts —
    /// rebuilds the engine from its control FIB, on the control thread —
    /// once it passes 0.25; engines without a meaningful metric report 0.
    fn degradation(&self) -> f64 {
        0.0
    }

    /// The engine a router publishes for this one: what its snapshot will
    /// serve lookups from while `self` goes on absorbing updates — the
    /// publish-side twin of [`FibBuild::rebuild_from`]. The copy answers
    /// every read-only method as `self` does at this call; it need not
    /// accept updates (an engine that publishes only its lookup structure
    /// declines them with [`RebuildNeeded`]).
    ///
    /// The default clones, which for a static engine is the whole truth.
    /// An engine that can publish for less than a copy costs does:
    /// [`PrefixDag`] appends the records that changed since its last
    /// publish to a log its copies share ([`Self::last_publish`]).
    #[must_use]
    fn publish_copy(&mut self) -> Self
    where
        Self: Clone,
    {
        self.clone()
    }

    /// What the last [`Self::publish_copy`] handed a reader, for an engine
    /// that publishes from an append-only record log; `None` for one that
    /// publishes clones (the default).
    fn last_publish(&self) -> Option<ArenaPublish> {
        None
    }
}

/// What one publish from an append-only record log handed a reader: a
/// [`PrefixDag`]'s ([`FibUpdate::last_publish`]) or a VRF fleet arena's
/// ([`crate::VrfArena::publish`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ArenaPublish {
    /// Records the published copy holds that the copy published before it
    /// does not: those appended since, or every one in a new buffer.
    pub records_written: usize,
    /// Whether the copy reads the buffer the copy published before it
    /// read, appended to, rather than a new one.
    pub shared: bool,
}

/// References forward wholesale, so code generic over `impl FibLookup`
/// takes a borrowed engine (including a `&dyn` trait object) without
/// taking ownership.
impl<A: Address, E: FibLookup<A> + ?Sized> FibLookup<A> for &E {
    fn name(&self) -> &'static str {
        E::name(self)
    }

    #[inline]
    fn lookup(&self, addr: A) -> Option<NextHop> {
        E::lookup(self, addr)
    }

    fn lookup_batch(&self, addrs: &[A], out: &mut [Option<NextHop>]) {
        E::lookup_batch(self, addrs, out);
    }

    fn size_bytes(&self) -> usize {
        E::size_bytes(self)
    }

    fn lookup_traced(&self, addr: A, sink: &mut dyn FnMut(u64, u32)) -> Option<NextHop> {
        E::lookup_traced(self, addr, sink)
    }

    fn traces_memory(&self) -> bool {
        E::traces_memory(self)
    }
}

// ---------------------------------------------------------------------
// The engine table
// ---------------------------------------------------------------------

/// The engine table: one row per engine, handed whole to `$consumer`.
///
/// ```text
/// Owned |e| walk, "report name", tier, resident-size
///     [, image View, Kind = id, "fibc name"];
/// ```
///
/// * `walk` is where `Owned`'s lookups run: `e` itself when the type
///   carries the methods, `e.view()` when they live on its borrowed view
///   only. The view of an `image` row always answers for itself, under
///   `"report name/image"`, and sizes itself with its own `size_bytes`.
/// * `tier` says how much of [`FibLookup`] the walk overrides, each tier
///   including the one before: `scalar` (`lookup`), `traced`
///   (+ `lookup_traced`), `kernels` (+ `lookup_batch`, the engine's one
///   batch kernel). `batched` is `scalar` plus `lookup_batch`: a scalar
///   walk looped over one view a batch. What a tier leaves out keeps the
///   trait's default.
/// * `image` names the zero-copy view the engine's [`crate::ImageCodec`]
///   assembles and the [`crate::EngineKind`] it is stamped with; the id
///   is a byte of the on-disk header, so it is never reused.
///
/// `containers` are image kinds that hold engines without being one.
macro_rules! engine_table {
    ($consumer:ident) => {
        $consumer! {
            engines {
                RouteTable |e| e, "tabular", scalar, e.model_size_bits().div_ceil(8);
                BinaryTrie |e| e, "binary-trie", traced, e.size_bytes();
                ProperTrie |e| e, "leaf-pushed", traced, e.size_bytes();
                // Size is the kernel memory model — the paper compares
                // against the kernel structure's footprint. Id 5 /
                // "lctrie" is retired: the LC-trie is a Table 2 baseline
                // on neither frontier and has no image encoding.
                LcTrie |e| e, "fib_trie", traced, e.kernel_model_bytes();
                XbwFib |e| e.view(), "XBW-b", kernels, e.size_bytes(),
                    image XbwFibRef, Xbw = 1, "xbw";
                PrefixDag |e| e.view(), "pDAG", batched, e.model_size_bits().div_ceil(8),
                    image PrefixDagRef, PrefixDag = 2, "pdag";
                SerializedDag |e| e.view(), "pDAG-serialized", kernels, e.size_bytes(),
                    image SerializedDagRef, SerializedDag = 3, "serialized";
                // Id 4 / "multibit" is retired: the fixed-stride multibit
                // DAG is a `VarStrideDag` plan and ships as a vsdag image.
                VarStrideDag |e| e.view(), "vsdag", kernels, e.size_bytes(),
                    image VarStrideDagRef, VsDag = 7, "vsdag";
            }
            containers {
                VrfSet = 6, "vrfset",
                    "vrfset images are VRF-keyed; load one with crate::vrf::CompiledVrfSet::from_image";
            }
        }
    };
}
pub(crate) use engine_table;

/// The [`FibLookup`] methods of one table tier, forwarded to `$walk`'s
/// inherent methods (which method-call syntax prefers over the trait's).
macro_rules! fib_lookup_methods {
    (scalar, $e:ident, $walk:expr, $size:expr) => {
        #[inline]
        fn lookup(&self, addr: A) -> Option<NextHop> {
            let $e = self;
            $walk.lookup(addr)
        }

        fn size_bytes(&self) -> usize {
            let $e = self;
            $size
        }
    };
    (batched, $e:ident, $walk:expr, $size:expr) => {
        fib_lookup_methods!(scalar, $e, $walk, $size);

        fn lookup_batch(&self, addrs: &[A], out: &mut [Option<NextHop>]) {
            let $e = self;
            $walk.lookup_batch(addrs, out);
        }
    };
    (traced, $e:ident, $walk:expr, $size:expr) => {
        fib_lookup_methods!(scalar, $e, $walk, $size);

        fn lookup_traced(&self, addr: A, sink: &mut dyn FnMut(u64, u32)) -> Option<NextHop> {
            let $e = self;
            $walk.lookup_traced(addr, sink)
        }

        fn traces_memory(&self) -> bool {
            true
        }
    };
    (kernels, $e:ident, $walk:expr, $size:expr) => {
        fib_lookup_methods!(traced, $e, $walk, $size);

        fn lookup_batch(&self, addrs: &[A], out: &mut [Option<NextHop>]) {
            let $e = self;
            $walk.lookup_batch(addrs, out);
        }
    };
}

/// [`engine_table`] consumer: `FibLookup` for every owned engine and
/// every image view.
macro_rules! impl_fib_lookup {
    (
        engines { $(
            $owned:ident |$e:ident| $walk:expr, $name:literal, $tier:ident, $size:expr
            $(, image $view:ident, $kind:ident = $id:literal, $cli:literal)? ;
        )* }
        containers { $($rest:tt)* }
    ) => { $(
        impl<A: Address> FibLookup<A> for $owned<A> {
            fn name(&self) -> &'static str {
                $name
            }

            fib_lookup_methods!($tier, $e, $walk, $size);
        }

        $(
            impl<A: Address> FibLookup<A> for $view<'_, A> {
                fn name(&self) -> &'static str {
                    concat!($name, "/image")
                }

                fib_lookup_methods!($tier, view, view, view.size_bytes());
            }
        )?
    )* };
}

engine_table!(impl_fib_lookup);

/// One built engine per row of the benchmark's engine matrix, in its
/// order (`binary-trie`, `fib_trie`, `xbw-succinct`, `xbw-entropy`,
/// `pdag`, `pdag-serialized`, `multibit-dag`, `vsdag`) — the list the
/// differential tests (`tests/equivalence.rs`) and the batch guard
/// (`crates/bench/tests/batch_guard.rs`) enumerate instead of each keeping
/// its own. Fields are concrete so a caller can wrap or
/// inspect one engine; [`Roster::engines`] erases them for the loops.
pub struct Roster<'t, A: Address> {
    /// The control trie itself.
    pub binary_trie: &'t BinaryTrie<A>,
    /// `fib_trie` under `config.fill` / `config.max_stride`.
    pub lc: LcTrie<A>,
    /// XBW-b, succinct storage (Lemma 2).
    pub xbw_succinct: XbwFib<A>,
    /// XBW-b, entropy storage (Lemma 3).
    pub xbw_entropy: XbwFib<A>,
    /// The prefix DAG at `config.lambda_for(trie)`.
    pub pdag: PrefixDag<A>,
    /// [`Self::pdag`], serialized.
    pub serialized: SerializedDag<A>,
    /// The fixed stride-`config.stride` plan.
    pub multibit: MultibitDag<A>,
    /// The DP-planned vsdag under `config.vs_params()` and `heat`.
    pub vsdag: VarStrideDag<A>,
}

impl<A: Address> Roster<'_, A> {
    /// Every engine under its benchmark row name, in matrix order.
    #[must_use]
    pub fn engines(&self) -> [(&'static str, &dyn FibLookup<A>); 8] {
        [
            ("binary-trie", self.binary_trie),
            ("fib_trie", &self.lc),
            ("xbw-succinct", &self.xbw_succinct),
            ("xbw-entropy", &self.xbw_entropy),
            ("pdag", &self.pdag),
            ("pdag-serialized", &self.serialized),
            ("multibit-dag", &self.multibit),
            ("vsdag", &self.vsdag),
        ]
    }
}

/// Builds the [`Roster`] over `trie`. `heat` is the traffic profile of
/// [`FibBuild::build_weighted`]; only the vsdag reads it.
#[must_use]
pub fn roster<'t, A: Address>(
    trie: &'t BinaryTrie<A>,
    config: &BuildConfig,
    heat: Option<(&[(u64, u64)], u8)>,
) -> Roster<'t, A> {
    let pdag = PrefixDag::build(trie, config);
    Roster {
        binary_trie: trie,
        lc: LcTrie::build(trie, config),
        xbw_succinct: XbwFib::build(trie, XbwStorage::Succinct),
        xbw_entropy: XbwFib::build(trie, XbwStorage::Entropy),
        serialized: SerializedDag::from_dag(&pdag),
        pdag,
        multibit: MultibitDag::from_trie(trie, config.stride),
        vsdag: VarStrideDag::build_weighted(trie, config, heat),
    }
}

// ---------------------------------------------------------------------
// FibBuild implementations
// ---------------------------------------------------------------------

impl<A: Address> FibBuild<A> for BinaryTrie<A> {
    fn build(trie: &BinaryTrie<A>, _config: &BuildConfig) -> Self {
        trie.clone()
    }
}

impl<A: Address> FibBuild<A> for RouteTable<A> {
    fn build(trie: &BinaryTrie<A>, _config: &BuildConfig) -> Self {
        trie.iter().collect()
    }
}

impl<A: Address> FibBuild<A> for ProperTrie<A> {
    fn build(trie: &BinaryTrie<A>, _config: &BuildConfig) -> Self {
        ProperTrie::from_trie(trie)
    }
}

impl<A: Address> FibBuild<A> for LcTrie<A> {
    fn build(trie: &BinaryTrie<A>, config: &BuildConfig) -> Self {
        LcTrie::with_params(trie, config.fill, config.max_stride)
    }
}

impl<A: Address> FibBuild<A> for XbwFib<A> {
    fn build(trie: &BinaryTrie<A>, config: &BuildConfig) -> Self {
        XbwFib::build(trie, config.xbw_storage)
    }
}

impl<A: Address> FibBuild<A> for PrefixDag<A> {
    fn build(trie: &BinaryTrie<A>, config: &BuildConfig) -> Self {
        PrefixDag::from_trie(trie, config.lambda_for(trie))
    }
}

impl<A: Address> FibBuild<A> for SerializedDag<A> {
    fn build(trie: &BinaryTrie<A>, config: &BuildConfig) -> Self {
        SerializedDag::from_dag(&PrefixDag::from_trie(trie, config.lambda_for(trie)))
    }
}

impl<A: Address> FibBuild<A> for VarStrideDag<A> {
    fn build(trie: &BinaryTrie<A>, config: &BuildConfig) -> Self {
        VarStrideDag::from_trie(trie, config.vs_params())
    }

    fn build_weighted(
        trie: &BinaryTrie<A>,
        config: &BuildConfig,
        heat: Option<(&[(u64, u64)], u8)>,
    ) -> Self {
        VarStrideDag::from_trie_weighted(trie, config.vs_params(), heat)
    }

    fn rebuild_from(
        previous: &Self,
        trie: &BinaryTrie<A>,
        config: &BuildConfig,
        heat: Option<(&[(u64, u64)], u8)>,
    ) -> Option<Self> {
        VarStrideDag::rebuild_from(previous, trie, config.vs_params(), heat)
    }

    fn heat_aware() -> bool {
        true
    }
}

// ---------------------------------------------------------------------
// FibUpdate implementations
// ---------------------------------------------------------------------

impl<A: Address> FibUpdate<A> for BinaryTrie<A> {
    fn try_insert(
        &mut self,
        prefix: Prefix<A>,
        next_hop: NextHop,
    ) -> Result<Option<NextHop>, RebuildNeeded> {
        Ok(self.insert(prefix, next_hop))
    }

    fn try_remove(&mut self, prefix: Prefix<A>) -> Result<Option<NextHop>, RebuildNeeded> {
        Ok(self.remove(prefix))
    }
}

impl<A: Address> FibUpdate<A> for RouteTable<A> {
    fn try_insert(
        &mut self,
        prefix: Prefix<A>,
        next_hop: NextHop,
    ) -> Result<Option<NextHop>, RebuildNeeded> {
        Ok(self.insert(prefix, next_hop))
    }

    fn try_remove(&mut self, prefix: Prefix<A>) -> Result<Option<NextHop>, RebuildNeeded> {
        Ok(self.remove(prefix))
    }
}

impl<A: Address> FibUpdate<A> for PrefixDag<A> {
    fn try_insert(
        &mut self,
        prefix: Prefix<A>,
        next_hop: NextHop,
    ) -> Result<Option<NextHop>, RebuildNeeded> {
        if self.is_published_copy() {
            return Err(RebuildNeeded);
        }
        Ok(self.insert(prefix, next_hop))
    }

    fn try_remove(&mut self, prefix: Prefix<A>) -> Result<Option<NextHop>, RebuildNeeded> {
        if self.is_published_copy() {
            return Err(RebuildNeeded);
        }
        Ok(self.remove(prefix))
    }

    fn publish_copy(&mut self) -> Self {
        PrefixDag::publish_copy(self)
    }

    fn last_publish(&self) -> Option<ArenaPublish> {
        PrefixDag::last_publish(self)
    }

    /// Arena fragmentation: λ-barrier refolds leave free-list holes behind
    /// and the data-plane walk loses locality as they accumulate.
    fn degradation(&self) -> f64 {
        self.fragmentation()
    }
}

// The static engines keep the declining defaults: a router rebuilds
// them from its control FIB instead.
impl<A: Address> FibUpdate<A> for ProperTrie<A> {}
impl<A: Address> FibUpdate<A> for LcTrie<A> {}
impl<A: Address> FibUpdate<A> for XbwFib<A> {}
impl<A: Address> FibUpdate<A> for SerializedDag<A> {}
impl<A: Address> FibUpdate<A> for VarStrideDag<A> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::xbw::XbwStorage;
    use fib_trie::Prefix4;

    fn nh(i: u32) -> NextHop {
        NextHop::new(i)
    }

    fn sample_trie() -> BinaryTrie<u32> {
        let mut trie = BinaryTrie::new();
        trie.insert("0.0.0.0/0".parse::<Prefix4>().unwrap(), nh(1));
        trie.insert("10.0.0.0/8".parse::<Prefix4>().unwrap(), nh(2));
        trie.insert("10.64.0.0/10".parse::<Prefix4>().unwrap(), nh(3));
        trie
    }

    /// The roster at λ = 8, plus the control-plane structures it leaves
    /// out — every `FibLookup` row of the table, as trait objects.
    fn with_every_engine(trie: &BinaryTrie<u32>, check: impl Fn(&dyn FibLookup<u32>)) {
        let built = roster(trie, &BuildConfig::with_lambda(8), None);
        let table: RouteTable<u32> = trie.iter().collect();
        let proper = ProperTrie::from_trie(trie);
        for (_, engine) in built.engines() {
            check(engine);
        }
        check(&table);
        check(&proper);
    }

    #[test]
    fn all_engines_agree_via_trait_objects() {
        let trie = sample_trie();
        with_every_engine(&trie, |engine| {
            for i in 0..4000u32 {
                let addr = i.wrapping_mul(0x9E37_79B9);
                assert_eq!(
                    engine.lookup(addr),
                    trie.lookup(addr),
                    "{} at {addr:#x}",
                    engine.name()
                );
            }
        });
    }

    #[test]
    fn batch_agrees_with_scalar_for_every_engine() {
        let trie = sample_trie();
        let addrs: Vec<u32> = (0..999u32).map(|i| i.wrapping_mul(0x0101_6B55)).collect();
        with_every_engine(&trie, |engine| {
            // Poison: every slot must be written.
            let mut out = vec![Some(nh(u32::MAX - 1)); addrs.len()];
            engine.lookup_batch(&addrs, &mut out);
            for (a, got) in addrs.iter().zip(&out) {
                assert_eq!(*got, engine.lookup(*a), "{} at {a:#x}", engine.name());
            }
        });
    }

    #[test]
    fn traced_engines_report_accesses() {
        let trie = sample_trie();
        with_every_engine(&trie, |engine| {
            // The pointer-machine DAG and the tabular oracle have no
            // flat layout to trace.
            if matches!(engine.name(), "pDAG" | "tabular") {
                assert!(!engine.traces_memory(), "{}", engine.name());
                return;
            }
            assert!(engine.traces_memory(), "{}", engine.name());
            let mut count = 0;
            let traced = engine.lookup_traced(0x0A40_0001, &mut |_, _| count += 1);
            assert_eq!(traced, engine.lookup(0x0A40_0001));
            assert!(count > 0, "{} produced no accesses", engine.name());
        });
    }

    #[test]
    fn sizes_are_positive_and_ordered_sanely() {
        let trie = sample_trie();
        let lc = LcTrie::from_trie(&trie);
        let dag = PrefixDag::from_trie(&trie, 4);
        assert!(FibLookup::<u32>::size_bytes(&lc) > 0);
        assert!(FibLookup::<u32>::size_bytes(&dag) > 0);
        // The kernel-modeled LC-trie is the memory hog of the line-up.
        assert!(FibLookup::<u32>::size_bytes(&lc) > FibLookup::<u32>::size_bytes(&dag));
    }

    #[test]
    fn build_config_drives_every_engine_off_one_control_fib() {
        let trie = sample_trie();
        let config = BuildConfig::with_lambda(6);
        let dag: PrefixDag<u32> = FibBuild::build(&trie, &config);
        assert_eq!(dag.lambda(), 6);
        let ser: SerializedDag<u32> = FibBuild::build(&trie, &config);
        assert_eq!(ser.lambda(), 6);
        let mb = MultibitDag::from_trie(&trie, config.stride);
        assert_eq!(
            mb.stride_histogram(),
            vec![(config.stride, mb.node_count())]
        );
        let lc: LcTrie<u32> = FibBuild::build(&trie, &config);
        let xbw: XbwFib<u32> = FibBuild::build(&trie, &config);
        let table: RouteTable<u32> = FibBuild::build(&trie, &config);
        let proper: ProperTrie<u32> = FibBuild::build(&trie, &config);
        let copy: BinaryTrie<u32> = FibBuild::build(&trie, &config);
        for i in 0..2000u32 {
            let addr = i.wrapping_mul(0x9E37_79B9);
            let expected = trie.lookup(addr);
            for engine in [
                &dag as &dyn FibLookup<u32>,
                &ser,
                &mb,
                &lc,
                &xbw,
                &table,
                &proper,
                &copy,
            ] {
                assert_eq!(engine.lookup(addr), expected, "{}", engine.name());
            }
        }
        // Entropy-barrier configs resolve λ from the FIB itself.
        let auto: PrefixDag<u32> = FibBuild::build(&trie, &BuildConfig::entropy_barrier());
        assert!(auto.lambda() <= 32);
    }

    #[test]
    fn update_capable_engines_apply_in_place_static_ones_decline() {
        let trie = sample_trie();
        let p: Prefix4 = "10.1.0.0/16".parse().unwrap();
        let mut dag = PrefixDag::from_trie(&trie, 8);
        assert_eq!(dag.try_insert(p, nh(7)), Ok(None));
        assert_eq!(dag.try_remove(p), Ok(Some(nh(7))));
        let mut bt = trie.clone();
        assert_eq!(bt.try_insert(p, nh(7)), Ok(None));
        let mut table: RouteTable<u32> = trie.iter().collect();
        assert_eq!(table.try_insert(p, nh(7)), Ok(None));
        let mut ser = SerializedDag::from_dag(&dag);
        assert_eq!(ser.try_insert(p, nh(7)), Err(RebuildNeeded));
        assert_eq!(ser.try_remove(p), Err(RebuildNeeded));
        let mut lc = LcTrie::from_trie(&trie);
        assert_eq!(lc.try_insert(p, nh(7)), Err(RebuildNeeded));
        let mut xbw = XbwFib::build(&trie, XbwStorage::Succinct);
        assert_eq!(xbw.try_remove(p), Err(RebuildNeeded));
        // What a router publishes of the pDAG is its lookup half, which
        // declines like a static image; a static engine's copy is a clone.
        let mut published = FibUpdate::publish_copy(&mut dag);
        assert_eq!(published.try_insert(p, nh(7)), Err(RebuildNeeded));
        assert_eq!(published.try_remove(p), Err(RebuildNeeded));
        assert_eq!(published.lookup(0x0A01_0001), dag.lookup(0x0A01_0001));
        let copy = ser.publish_copy();
        assert_eq!(FibUpdate::<u32>::last_publish(&ser), None);
        assert_eq!(copy.view().lookup(0x0A01_0001), dag.lookup(0x0A01_0001));
    }

    #[test]
    fn pdag_degradation_rises_with_churn_and_resets_on_rebuild() {
        let mut dag = PrefixDag::from_trie(&sample_trie(), 8);
        assert_eq!(FibUpdate::<u32>::degradation(&dag), 0.0);
        // Insert-then-remove below the barrier leaves free-list holes.
        for i in 0..200u32 {
            let p = Prefix4::new(0x0A00_0000 | (i << 8), 28);
            dag.insert(p, nh(4));
        }
        for i in 0..200u32 {
            let p = Prefix4::new(0x0A00_0000 | (i << 8), 28);
            dag.remove(p);
        }
        assert!(
            FibUpdate::<u32>::degradation(&dag) > 0.0,
            "churn must fragment the arena"
        );
        let rebuilt: PrefixDag<u32> = FibBuild::build(dag.control(), &BuildConfig::with_lambda(8));
        assert_eq!(FibUpdate::<u32>::degradation(&rebuilt), 0.0);
    }
}
