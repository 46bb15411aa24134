//! Multi-tenant VRF runtime: one updatable pDAG per VRF, one shared
//! arena kept across publishes, wait-free publication, and VRF-keyed
//! batched lookups.
//!
//! The single-table [`crate::Router`] pairs one oracle with one engine.
//! A provider-edge box runs hundreds of logical tables whose FIBs are
//! mostly identical, so [`VrfSetRouter`] keeps a *map* of updatable
//! [`PrefixDag`]s — each one's control trie is its VRF's oracle, held
//! once — over one shared [`VrfArena`], whose [`CompiledVrfSet`] is
//! swapped in atomically through the publish core (epoch, [`SnapCell`],
//! retirement ring, contained builds) the single-table router uses.
//! Readers ([`VrfDataPlane`]) therefore see all tables move in
//! lock-step: one atomic load observes a consistent fleet, never VRF 7
//! from epoch 4 next to VRF 9 from epoch 5.
//!
//! A publish costs what changed, not what exists — the fold included.
//! An announce or withdraw updates its VRF's pDAG in place, as
//! [`crate::Router`] updates its engine; the publish re-interns only the
//! nodes the dirty tables' pDAGs wrote since the last one, plus the top
//! nodes above them, into the kept arena, and derives root arrays for
//! those tables alone; their reachable counts, a walk of each whole
//! table, wait for the arena's next compaction. The arena's records live
//! in core's `RecordLog`, the one record log type, which a
//! [`crate::Router`]'s pDAG publishes through too: it only ever appends,
//! so the published set is a view of the buffer the set before it read,
//! extended by the records appended since ([`VrfArena::publish`]); a
//! reader that moves on to it keeps every line of the arena it had
//! cached. Readers move to a new buffer only at a
//! compaction or when a publish's records filled the log, which then
//! grew into a buffer twice its size ([`RouterStats::compactions`]).
//! Every other table's root, root array or dedicated engine is carried
//! over. The invariant the tests pin: after every
//! publish the installed set answers and charges its statistics as a
//! from-scratch [`fib_core::compile_vrf_set`] over the current oracles,
//! all but free slots and the stored reachable counts of tables
//! re-interned since the last compaction, which hold that compaction's
//! count; its exact counts ([`CompiledVrfSet::reachable_counts`]) are
//! the compile's, and its image — written compacted, counts taken from
//! it — is that compile's byte for byte; a publish that compacts the
//! arena (free slots past a quarter of it) installs the compile's set
//! itself, counts and all. [`VrfPolicy::Auto`] is the exception to the
//! saving, not to the invariant: its placement weighs each table against
//! the rest of the fleet, so every publish interns every table into an
//! empty arena and compacts it. [`VrfSetRouter::stats`] counts both
//! kinds, and the records each publish writes, in the [`RouterStats`] a
//! [`crate::Router`] reports too.
//!
//! Epochs are tracked at two grains: the *set* epoch counts publishes,
//! and each VRF carries the set epoch at which its table last changed —
//! so a reader can tell "the fleet moved" apart from "my VRF moved". A
//! publish stamps the tables that changed with the new epoch and copies
//! every other table's from the snapshot it replaces.
//!
//! Batched lookups are the set's own ([`CompiledVrfSet::lookup_batch`]):
//! keys of shared tables are walked through the shared arena in input
//! order, eight at a time, whatever their VRFs; only keys of dedicated
//! tables are bucketed by VRF id, each run through its engine's batch
//! path. The scratch that needs is caller-owned ([`VrfBatchScratch`]), so
//! steady-state forwarding does not allocate.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

pub use fib_core::VrfBatchScratch;
use fib_core::{
    BuildConfig, CompiledVrf, CompiledVrfSet, FibBuild, FibImage, ImageError, PrefixDag, VrfArena,
    VrfPolicy,
};
use fib_trie::{Address, BinaryTrie, NextHop, Prefix};

use crate::publish::Publisher;
use crate::router::RouterStats;
use crate::snapcell::{SnapCell, SnapReader};

/// An immutable, published multi-tenant forwarding state: the compiled
/// set plus set- and per-VRF epochs.
pub struct VrfSnapshot<A: Address> {
    set: CompiledVrfSet<A>,
    epoch: u64,
    /// `(vrf id, set epoch at which this table last changed)`, sorted by
    /// id — parallel to `set.tables`.
    vrf_epochs: Vec<(u32, u64)>,
}

impl<A: Address> VrfSnapshot<A> {
    /// A snapshot serving the fleet `image` holds, loaded by
    /// [`CompiledVrfSet::from_image`] — what [`crate::EpochSnapshot::from_image`]
    /// is for one table. Every table carries the image's epoch.
    ///
    /// # Errors
    /// Any [`ImageError`] of [`CompiledVrfSet::from_image`].
    pub fn from_image(image: &FibImage) -> Result<Arc<Self>, ImageError> {
        let set = CompiledVrfSet::from_image(image)?;
        Ok(Arc::new(Self::whole(set, image.epoch())))
    }

    /// `set` served as `epoch`, every table stamped with it.
    fn whole(set: CompiledVrfSet<A>, epoch: u64) -> Self {
        let vrf_epochs = set.tables.iter().map(|t| (t.id, epoch)).collect();
        Self {
            set,
            epoch,
            vrf_epochs,
        }
    }

    /// The set epoch (counts publishes; 0 = initial empty state).
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The compiled set this snapshot serves from.
    #[must_use]
    pub fn set(&self) -> &CompiledVrfSet<A> {
        &self.set
    }

    /// The set epoch at which `vrf`'s table last changed, or `None` for
    /// an unknown VRF.
    #[must_use]
    pub fn vrf_epoch(&self, vrf: u32) -> Option<u64> {
        let i = self
            .vrf_epochs
            .binary_search_by_key(&vrf, |&(id, _)| id)
            .ok()?;
        Some(self.vrf_epochs[i].1)
    }

    /// VRF-keyed longest-prefix match. Unknown VRFs answer `None`.
    #[must_use]
    #[inline]
    pub fn lookup(&self, vrf: u32, addr: A) -> Option<NextHop> {
        self.set.lookup(vrf, addr)
    }

    /// Resolves a mixed `(vrf, addr)` batch, answers in input order,
    /// through the set's batch path ([`CompiledVrfSet::lookup_batch`]).
    ///
    /// # Panics
    /// Panics if `out` is shorter than `keys`.
    pub fn lookup_batch(
        &self,
        keys: &[(u32, A)],
        out: &mut [Option<NextHop>],
        scratch: &mut VrfBatchScratch<A>,
    ) {
        self.set.lookup_batch(keys, out, scratch);
    }
}

/// The multi-tenant control plane: one updatable pDAG per VRF, kept in
/// one shared arena ([`VrfArena`]) and published from it, on the control
/// thread.
pub struct VrfSetRouter<A: Address + Send + Sync + 'static> {
    /// Each VRF's table, updated in place; its control trie is the VRF's
    /// oracle.
    tables: BTreeMap<u32, PrefixDag<A>>,
    /// VRFs whose table changed since the last publish.
    dirty: BTreeSet<u32>,
    arena: VrfArena<A>,
    config: BuildConfig,
    policy: VrfPolicy,
    /// The publish half: epoch, readers' cell, contained syncs and this
    /// router's [`RouterStats`].
    publisher: Publisher<VrfSnapshot<A>>,
}

impl<A: Address + Send + Sync + 'static> VrfSetRouter<A> {
    /// An empty router (no tables) with the given build configuration
    /// and placement policy. Epoch 0 is published immediately so readers
    /// always have a snapshot.
    #[must_use]
    pub fn new(config: BuildConfig, policy: VrfPolicy) -> Self {
        let empty = VrfSnapshot::whole(CompiledVrfSet::default(), 0);
        Self {
            tables: BTreeMap::new(),
            dirty: BTreeSet::new(),
            arena: VrfArena::new(),
            config,
            policy,
            publisher: Publisher::new(0, empty),
        }
    }

    /// Number of logical tables.
    #[must_use]
    pub fn tables(&self) -> usize {
        self.tables.len()
    }

    /// The control oracle of `vrf`, if present: its pDAG's control trie.
    #[must_use]
    pub fn oracle(&self, vrf: u32) -> Option<&BinaryTrie<A>> {
        self.tables.get(&vrf).map(PrefixDag::control)
    }

    /// Installs (or replaces) a whole table, folded around `table` itself
    /// as its control trie.
    pub fn insert_vrf(&mut self, vrf: u32, table: BinaryTrie<A>) {
        let lambda = self.config.lambda_for(&table);
        self.tables
            .insert(vrf, PrefixDag::from_control(table, lambda));
        self.dirty.insert(vrf);
    }

    /// Removes a table. Returns whether it existed.
    pub fn remove_vrf(&mut self, vrf: u32) -> bool {
        let existed = self.tables.remove(&vrf).is_some();
        if existed {
            // A removal is a fleet change: the next publish must run even
            // though the id no longer has a table.
            self.dirty.insert(vrf);
        }
        existed
    }

    /// Announces a route in `vrf` (creating the table if new), folding it
    /// into the VRF's pDAG in place. Returns the previous next-hop for
    /// that exact prefix. A re-announce of that next-hop changes nothing
    /// ([`RouterStats::unchanged`]) and leaves the VRF clean for the next
    /// publish.
    pub fn announce(&mut self, vrf: u32, prefix: Prefix<A>, next_hop: NextHop) -> Option<NextHop> {
        let config = &self.config;
        let prev = (self.tables.entry(vrf))
            .or_insert_with(|| PrefixDag::build(&BinaryTrie::new(), config))
            .insert(prefix, next_hop);
        self.count_update(vrf, prev != Some(next_hop));
        prev
    }

    /// Withdraws a route from `vrf`, in place. Returns the removed
    /// next-hop; withdrawing a prefix `vrf` does not hold leaves it clean.
    pub fn withdraw(&mut self, vrf: u32, prefix: Prefix<A>) -> Option<NextHop> {
        let removed = self.tables.get_mut(&vrf).and_then(|t| t.remove(prefix));
        self.count_update(vrf, removed.is_some());
        removed
    }

    /// Counts an update of `vrf` — in place when it `changed` the VRF's
    /// pDAG, which the next publish then re-interns.
    fn count_update(&mut self, vrf: u32, changed: bool) {
        let stats = &mut self.publisher.stats;
        stats.updates += 1;
        if changed {
            stats.in_place += 1;
            self.dirty.insert(vrf);
        } else {
            stats.unchanged += 1;
        }
    }

    /// Brings the shared arena up to date with what changed and publishes
    /// a new epoch, on this thread. A publish with no control changes
    /// since the last one reuses the published snapshot (no sync, no
    /// epoch bump).
    ///
    /// The policy places tables by VRF id, so tables coming and going
    /// leave every other table's placement alone. [`VrfArena::sync`]
    /// re-interns a shared table's changed nodes when it changed or was
    /// moved, rebuilds a dedicated one, and starts from an empty arena
    /// under `Auto`, whose placement is a fleet-wide decision; every
    /// other table carries over. The set handed to readers reads the
    /// arena buffer the set before it read, extended
    /// ([`RouterStats::recycled`]), unless the sync moved the arena to a
    /// new one ([`RouterStats::compactions`]).
    ///
    /// A sync that panics is contained: the router keeps serving the last
    /// good set at its epoch, counts the panic in [`Self::stats`] with
    /// [`RouterStats::serving_stale`] set, and keeps every pending
    /// change for the next publish, which rebuilds the arena from empty.
    /// The router keeps the last three sets, as [`crate::Router`] does,
    /// so a retired set — and an arena buffer no set reads any more — is
    /// freed on this thread.
    pub fn publish(&mut self) -> Arc<VrfSnapshot<A>> {
        let basis = self.publisher.cell().load();
        if self.dirty.is_empty() && self.publisher.epoch() > 0 {
            return basis;
        }
        let (arena, tables) = (&mut self.arena, &mut self.tables);
        let (config, policy, dirty) = (&self.config, &self.policy, &self.dirty);
        let Some(refolded) = (self.publisher).build(|| arena.sync(tables, dirty, config, policy))
        else {
            return self.publisher.serve_stale();
        };
        let stats = &mut self.publisher.stats;
        stats.tables_refolded += refolded as u64;
        stats.tables_carried += (self.tables.len() - refolded) as u64;
        let dirty = std::mem::take(&mut self.dirty);
        let (set, published) = self.arena.publish();
        self.publisher.publish(|epoch| {
            let carried = |id| basis.vrf_epoch(id).filter(|_| !dirty.contains(&id));
            let stamp = |t: &CompiledVrf<A>| (t.id, carried(t.id).unwrap_or(epoch));
            let vrf_epochs = set.tables.iter().map(stamp).collect();
            let snapshot = VrfSnapshot {
                set,
                epoch,
                vrf_epochs,
            };
            (snapshot, Some(published))
        })
    }

    /// What this router has done so far — updates, publishes, tables
    /// refolded and carried, records written — and whether the published
    /// set lags the oracles; a fleet has no spool, so
    /// [`RouterStats::spool`] is `None`.
    #[must_use]
    pub fn stats(&self) -> RouterStats {
        self.publisher.stats.clone()
    }

    /// A wait-free reader handle for a forwarding worker.
    #[must_use]
    pub fn reader(&self) -> VrfDataPlane<A> {
        VrfDataPlane {
            reader: self.publisher.cell().reader(),
        }
    }

    /// The publication cell itself, for runtimes that register readers
    /// directly (see [`crate::Forwarder`]), as [`crate::Router::snap_cell`].
    #[must_use]
    pub fn snap_cell(&self) -> &SnapCell<VrfSnapshot<A>> {
        self.publisher.cell()
    }

    /// The set epoch of the latest publish.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.publisher.epoch()
    }
}

/// A cloneable packet-path handle: caches the current snapshot, refreshes
/// on a generation bump with one atomic load.
pub struct VrfDataPlane<A: Address + Send + Sync + 'static> {
    reader: SnapReader<VrfSnapshot<A>>,
}

impl<A: Address + Send + Sync + 'static> VrfDataPlane<A> {
    /// The current snapshot (cached; refreshed when the router publishes).
    pub fn snapshot(&mut self) -> &Arc<VrfSnapshot<A>> {
        self.reader.get()
    }

    /// VRF-keyed longest-prefix match against the current snapshot.
    #[inline]
    pub fn lookup(&mut self, vrf: u32, addr: A) -> Option<NextHop> {
        self.reader.get().lookup(vrf, addr)
    }

    /// Mixed-VRF batched lookup against the current snapshot (see
    /// [`VrfSnapshot::lookup_batch`]).
    ///
    /// # Panics
    /// Panics if `out` is shorter than `keys`.
    pub fn lookup_batch(
        &mut self,
        keys: &[(u32, A)],
        out: &mut [Option<NextHop>],
        scratch: &mut VrfBatchScratch<A>,
    ) {
        self.reader.get().lookup_batch(keys, out, scratch);
    }
}

impl<A: Address + Send + Sync + 'static> Clone for VrfDataPlane<A> {
    fn clone(&self) -> Self {
        Self {
            reader: self.reader.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fib_core::VrfEngineChoice;
    use fib_trie::Prefix4;

    fn nh(i: u32) -> NextHop {
        NextHop::new(i)
    }

    fn p(s: &str) -> Prefix4 {
        s.parse().unwrap()
    }

    fn two_vrf_router() -> VrfSetRouter<u32> {
        let mut router = VrfSetRouter::new(BuildConfig::default(), VrfPolicy::Shared);
        for vrf in [1, 2] {
            router.announce(vrf, p("0.0.0.0/0"), nh(1));
            router.announce(vrf, p("10.0.0.0/8"), nh(2));
        }
        router.announce(2, p("10.7.0.0/16"), nh(7));
        router
    }

    #[test]
    fn publish_and_lookup_match_the_oracles() {
        let mut router = two_vrf_router();
        let snapshot = router.publish();
        assert_eq!(snapshot.epoch(), 1);
        for i in 0..2048u32 {
            let addr = i.wrapping_mul(0x9E37_79B9);
            for vrf in [1, 2] {
                assert_eq!(
                    snapshot.lookup(vrf, addr),
                    router.oracle(vrf).unwrap().lookup(addr),
                    "vrf {vrf} addr {addr:#x}"
                );
            }
        }
        assert_eq!(snapshot.lookup(9, 0x0A00_0001), None, "unknown VRF");
    }

    #[test]
    fn per_vrf_epochs_bump_only_for_changed_tables() {
        let mut router = two_vrf_router();
        let first = router.publish();
        assert_eq!(first.vrf_epoch(1), Some(1));
        assert_eq!(first.vrf_epoch(2), Some(1));
        router.announce(2, p("10.8.0.0/16"), nh(8));
        let second = router.publish();
        assert_eq!(second.epoch(), 2);
        assert_eq!(second.vrf_epoch(1), Some(1), "vrf 1 did not change");
        assert_eq!(second.vrf_epoch(2), Some(2), "vrf 2 changed");
        // No-op publish reuses the snapshot.
        let third = router.publish();
        assert_eq!(third.epoch(), 2);
    }

    #[test]
    fn batch_bucketing_matches_scalar_answers() {
        let mut router = two_vrf_router();
        // A third table on a dedicated engine exercises the non-shared
        // run path too.
        let mut hot = BinaryTrie::new();
        hot.insert(p("0.0.0.0/0"), nh(3));
        hot.insert(p("172.16.0.0/12"), nh(4));
        router.insert_vrf(7, hot);
        let router = {
            let mut r = VrfSetRouter::new(
                BuildConfig::default(),
                VrfPolicy::Auto {
                    weights: BTreeMap::from([(1, 0.005), (2, 0.005), (7, 0.99)]),
                },
            );
            for (vrf, oracle) in [1, 2, 7].iter().zip([
                router.oracle(1).unwrap().clone(),
                router.oracle(2).unwrap().clone(),
                router.oracle(7).unwrap().clone(),
            ]) {
                r.insert_vrf(*vrf, oracle);
            }
            r
        };
        let mut router = router;
        let snapshot = router.publish();
        let keys: Vec<(u32, u32)> = (0..1024u32)
            .map(|i| {
                let vrf = [1u32, 2, 7, 42][(i % 4) as usize];
                (vrf, i.wrapping_mul(0x85EB_CA6B))
            })
            .collect();
        let mut out = vec![None; keys.len()];
        let mut scratch = VrfBatchScratch::new();
        snapshot.lookup_batch(&keys, &mut out, &mut scratch);
        for (&(vrf, addr), &got) in keys.iter().zip(&out) {
            assert_eq!(got, snapshot.lookup(vrf, addr), "vrf {vrf} addr {addr:#x}");
        }
        // Reuse the same scratch: second batch must be just as right.
        snapshot.lookup_batch(&keys[..100], &mut out[..100], &mut scratch);
        for (&(vrf, addr), &got) in keys[..100].iter().zip(&out[..100]) {
            assert_eq!(got, snapshot.lookup(vrf, addr));
        }
    }

    #[test]
    fn pinned_placements_follow_the_vrf_id() {
        use VrfEngineChoice::{Serialized, Shared, Xbw};
        let pinned = VrfPolicy::Pinned {
            choices: BTreeMap::from([(1, Shared), (2, Xbw), (3, Serialized)]),
        };
        let mut router = VrfSetRouter::new(BuildConfig::default(), pinned);
        for vrf in [1, 2, 3] {
            router.announce(vrf, p("0.0.0.0/0"), nh(1));
            router.announce(vrf, p("10.0.0.0/8"), nh(vrf));
        }
        let placed = |snapshot: &VrfSnapshot<u32>| -> Vec<_> {
            (snapshot.set().tables.iter())
                .map(|t| (t.id, t.choice()))
                .collect()
        };
        assert_eq!(
            placed(&router.publish()),
            [(1, Shared), (2, Xbw), (3, Serialized)]
        );

        // VRF 1 leaves and unpinned VRF 4 arrives: the others stay put.
        router.remove_vrf(1);
        router.announce(4, p("10.4.0.0/16"), nh(4));
        let snapshot = router.publish();
        assert_eq!(placed(&snapshot), [(2, Xbw), (3, Serialized), (4, Shared)]);
        assert_eq!(snapshot.lookup(1, 0x0A00_0001), None);
        assert_eq!(snapshot.lookup(4, 0x0A04_0001), Some(nh(4)));
        let carried = router.stats().tables_carried;

        router.announce(5, p("10.5.0.0/16"), nh(5));
        let snapshot = router.publish();
        assert_eq!(
            placed(&snapshot),
            [(2, Xbw), (3, Serialized), (4, Shared), (5, Shared)]
        );
        assert_eq!(
            router.stats().tables_carried - carried,
            3,
            "VRFs 2, 3 and 4 are carried, not re-folded"
        );
        for vrf in [2, 3] {
            assert_eq!(snapshot.lookup(vrf, 0x0A00_0001), Some(nh(vrf)));
        }
    }

    #[test]
    fn stats_count_refolded_and_carried_tables() {
        let table = |salt: u32| {
            let mut t = BinaryTrie::new();
            t.insert(p("0.0.0.0/0"), nh(1));
            t.insert(Prefix4::new(0x0A00_0000 | salt << 8, 24), nh(2));
            t
        };
        let mut router = VrfSetRouter::new(BuildConfig::default(), VrfPolicy::Shared);
        for vrf in 0..16 {
            router.insert_vrf(vrf, table(vrf));
        }
        router.publish();
        let counts = |stats: RouterStats| {
            let RouterStats {
                epochs,
                tables_refolded,
                tables_carried,
                ..
            } = stats;
            (epochs, tables_refolded, tables_carried)
        };
        assert_eq!(counts(router.stats()), (2, 16, 0));

        // A burst into one of sixteen re-folds that one.
        for i in 0..100u32 {
            router.announce(5, Prefix4::new(0xC000_0000 | i << 8, 24), nh(3));
        }
        router.publish();
        assert_eq!(counts(router.stats()), (3, 17, 15));

        // A publish with nothing to do re-folds nothing.
        let second = router.stats();
        router.publish();
        assert_eq!(router.stats(), second);

        // Auto placement is fleet-wide: every publish re-folds every table.
        let mut auto = VrfSetRouter::new(
            BuildConfig::default(),
            VrfPolicy::Auto {
                weights: BTreeMap::new(),
            },
        );
        for vrf in 0..16 {
            auto.insert_vrf(vrf, table(vrf));
        }
        auto.publish();
        auto.announce(5, p("192.0.2.0/24"), nh(3));
        auto.publish();
        assert_eq!(counts(auto.stats()), (3, 32, 0));
    }

    #[test]
    fn readers_see_new_epochs_and_removed_vrfs() {
        let mut router = two_vrf_router();
        router.publish();
        let mut plane = router.reader();
        assert_eq!(plane.lookup(2, 0x0A07_0001), Some(nh(7)));
        router.remove_vrf(2);
        router.publish();
        assert_eq!(plane.lookup(2, 0x0A07_0001), None, "removed VRF vanishes");
        assert_eq!(plane.snapshot().epoch(), 2);
        let mut sibling = plane.clone();
        assert_eq!(sibling.lookup(1, 0x0A00_0001), Some(nh(2)));
    }
}
