//! Trie-folding and prefix DAGs (Section 4 of the paper).
//!
//! Trie-folding is a "compressed reinvention" of the prefix tree: below a
//! *leaf-push barrier* λ the trie is normalized (leaf-pushed) and all
//! isomorphic labeled sub-tries are merged — LZ78-style — into a Directed
//! Acyclic Graph, while above λ an ordinary prefix tree is kept so updates
//! stay cheap. Lookup is *exactly* standard trie lookup (Lemma 5, O(W),
//! zero cost over an uncompressed trie); construction is O(t) (Lemma 4);
//! update is O(W + 2^(W−λ)) (Theorem 3); and the folded size meets the
//! information-theoretic bound within a factor 4 (Theorem 1) and the
//! entropy bound within ≈ 6 (Theorem 2) under the barrier choices of
//! `crate::lambda`.
//!
//! # Structure
//!
//! * nodes at depth `< λ` mirror the control FIB exactly: plain, unshared,
//!   labeled tree nodes ("top" nodes);
//! * at depth λ each existing control subtrie is leaf-pushed — with its
//!   root label as the default route, per the paper's `trie_fold` — and
//!   hash-consed bottom-up into the shared region (the *sub-trie index*
//!   `S` and *leaf table* `lp(s)` of Section 4.1 are one interning map
//!   here);
//! * the ⊥ leaf carries no label (the paper's `l(lp(⊥)) ← ∅` line), so a
//!   lookup that lands on it falls back to the last label seen above the
//!   barrier — this is what makes plain trie traversal correct on the DAG.
//!
//! # Root array
//!
//! As in the serialized image of §5.3, the first `k = min(λ, 8)` levels
//! are collapsed into a `2^k`-entry root array: each entry names the
//! top-tree node at depth `k` on its path (or records that the path ended
//! above) together with the last label seen above it, so a lookup starts
//! `k` levels down instead of at the root. `k` is capped at 8 because the
//! array is charged to the §4.2 model size: 256 entries cost about half a
//! percent of a DFZ-sized pDAG where `2^λ` at λ = 11 would cost 4 %. Every
//! node above depth `k` is an unshared top node, so an update re-derives
//! just the entries under the changed prefix.
//!
//! A table of a compiled VRF fleet ([`crate::CompiledVrfSet`]) walks from
//! the same array, derived by the same function over its packed arena
//! ([`RootArray`]), with `k` fixed at 8 whatever λ is. The `min(λ, 8)`
//! above exists so that an in-place update touches only unshared top
//! nodes; a fleet table's array is never patched, but derived whole
//! whenever the table's root moves, and the derivation just replays a
//! walk's first eight steps, which is exact over any DAG — shared nodes
//! above depth 8 included, at any λ, v4 and v6. So neither a fleet's
//! directory nor its image records a `k`: a loaded set derives exactly
//! the arrays its compiler derived.
//!
//! There is one walk, [`PrefixDagRef::lookup_with_depth`], and it starts
//! from a slice of `2^k` entries for any `k ≤ 8`: the updatable pDAG's
//! `min(λ, 8)` array, a fleet table's 256 entries, or — for a kind-2
//! image, which stores no array — the `k = 0` start at the root with no
//! label above it. [`PrefixDag::lookup`] is that walk over its own arena.
//!
//! # Two halves
//!
//! A [`PrefixDag`] is a *data-plane half* — the node records, the root
//! array, the root, λ and the counters `len` / `stats` / `size_bytes`
//! read, which is all a lookup, an image encode or a size report touches —
//! and a *control half*: the control FIB (the uncompressed image the paper
//! keeps in control-plane DRAM, §4.3), the interning map, the free list,
//! the reference counts, the change set and the record log it publishes
//! into. A working engine has both, and its records are an
//! arena it rewrites in place. What a router publishes
//! ([`PrefixDag::publish_copy`]) is the data-plane half alone, its records
//! a view of that log: it answers every read-only method exactly as the
//! working engine did at that publish, and it cannot be updated.
//!
//! Every record is the one every packed form of the structure uses — two
//! words a node, `left | right << 32` and the label, the layout of a
//! kind-2 image and of a fleet's shared arena — read through one decoder
//! (`packed_node`). Writing an image drops the arena's free-list holes
//! and the log's dead records and renumbers in BFS order
//! ([`PrefixDag::write_packed`]), so a working engine and every copy it
//! published at one state write the same words.
//!
//! # Publish
//!
//! Every write that changes a node's record goes through one setter that
//! puts the node on the engine's *change set* — the slots touched since
//! its last drain, each listed once, and a bit a slot — and an update
//! touches the top nodes on its path too, so a node off the set has
//! nothing on it below. A reference count lives beside the set, not in
//! the record: the data plane never reads it, so changing one is not a
//! node write. An engine's one consumer drains the set, and tracking
//! starts at its first drain, which takes the engine whole: a router's
//! publishes, or a VRF fleet's arena ([`crate::VrfArena`]), which walks
//! the pDAG from the root and takes each node it re-interns off the set.
//!
//! Both publishers — the working engine here and a VRF fleet's arena —
//! write records through `RecordLog`, the one holder of an append-only
//! buffer ([`fib_succinct::WordLog`]). It packs live records in BFS order
//! into a new buffer with room for `LOG_ROOM` times as many, appends
//! (growing a full log into one twice its size), and publishes a
//! [`fib_succinct::SharedWords`] view with what it adds to the view
//! before ([`crate::ArenaPublish`]). No record a reader may hold is
//! written again, so consecutive views share one buffer; readers move to
//! a new one only after a pack (a pDAG's first publish, a full pDAG log,
//! a fleet compaction) or a growth (a fleet log that filled mid-sync).
//!
//! The working engine remembers, per arena slot, where its record sits
//! in the log. `publish_copy` appends a record for each live slot on the
//! change set, children remapped through that table, and hands out a copy
//! reading the log's view: a publish costs what changed. Records rewritten
//! or freed since stay in the log, dead, until a publish that finds the
//! log full packs the live ones into a new log rather than growing it.
//!
//! # Update strategy
//!
//! The paper's §4.3 decompresses the DAG path node-by-node and re-folds
//! below the changed prefix. We implement a simpler variant with the same
//! worst case: an update at depth `p < λ` edits the top tree in O(W); an
//! update at depth `p ≥ λ` re-normalizes the one affected λ-subtrie from
//! the control FIB and re-folds it in O(2^(W−λ)), releasing the old
//! subtrie's references. Both match Theorem 3's bound; the re-fold reuses
//! the old fold's sibling subtries on the changed path (`refold_path`),
//! so the common case costs O(W + 2^(W−p)) for an update at depth `p`.

use std::collections::HashMap;
use std::marker::PhantomData;
use std::ops::Deref;

use fib_succinct::{ceil_log2, SharedWords, WordLog};
use fib_trie::{Address, BinaryTrie, Depth, NextHop, NodeRef, Prefix};

use crate::engine::ArenaPublish;
use crate::idhash::IdBuildHasher;

pub(crate) const NONE: u32 = u32::MAX;

const NO_CONTROL: &str = "a published pDAG copy has no control FIB: update the working engine";

/// Most levels the root array collapses: `k = min(λ, ROOT_BITS)` on a
/// [`PrefixDag`], exactly `ROOT_BITS` on a [`RootArray`].
pub(crate) const ROOT_BITS: u8 = 8;

/// A new record log has room for this many times the live records it
/// starts with (see the module docs' "Publish"). Measured at taz 1.0,
/// λ 11, a reader following 1,000-update bursts (≈ 3 k records appended
/// a publish, a pack every ≈ 18): 1.5 and 2 read alike, 4 reads ≈ 10 %
/// slower (the live records spread over more lines), and 2 packs a third
/// less often than 1.5.
const LOG_ROOM: usize = 2;

/// Fewest records a new record log has room for.
const MIN_LOG_RECORDS: usize = 512;

/// Where the walk for one `k`-bit address prefix starts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RootEntry {
    /// The node at depth `k` on the path; `NONE` when the path ended
    /// above, and `last` is then the answer.
    pub(crate) node: u32,
    /// The last label on the path above depth `k` (`NONE`: none).
    pub(crate) last: u32,
}

impl RootEntry {
    /// The start of a walk from `root`: the one entry of a `k = 0` array.
    const fn at(root: u32) -> Self {
        Self {
            node: root,
            last: NONE,
        }
    }
}

/// The root array of a packed pDAG table: one [`RootEntry`] per 8-bit
/// address prefix, 2 KiB. A compiled VRF fleet derives one per shared
/// table with a root, at compile and at image load alike (see the module
/// docs' "Root array").
pub type RootArray = [RootEntry; 1 << ROOT_BITS];

/// Node `idx` of a record arena as `(left, right, label)` — the one
/// decoder of the two-word record `left | right << 32`, `label` that the
/// updatable pDAG, its images and a fleet's shared arena all store.
#[inline]
pub(crate) fn packed_node(words: &[u64], idx: u32) -> (u32, u32, u32) {
    let at = 2 * idx as usize;
    let record = &words[at..at + 2];
    (record[0] as u32, (record[0] >> 32) as u32, record[1] as u32)
}

/// The two words [`packed_node`] decodes as `(left, right, label)`.
#[inline]
pub(crate) fn record(left: u32, right: u32, label: u32) -> [u64; 2] {
    [u64::from(left) | (u64::from(right) << 32), u64::from(label)]
}

/// Fills the `2^(k − depth)` entries of the `2^k`-entry `entries` under
/// the `depth`-bit path `slot`, whose node in the record arena `words` is
/// `idx` (`NONE`: the path already ended) with `last` the last label
/// above it, by replaying the walk. The updatable pDAG and a packed fleet
/// arena both derive their arrays through this.
fn fill_entries(
    entries: &mut [RootEntry],
    words: &[u64],
    idx: u32,
    depth: u8,
    slot: usize,
    last: u32,
) {
    if 1 << depth == entries.len() {
        entries[slot] = RootEntry { node: idx, last };
        return;
    }
    let (left, right, last) = if idx == NONE {
        (NONE, NONE, last)
    } else {
        let (left, right, label) = packed_node(words, idx);
        (left, right, if label == NONE { last } else { label })
    };
    fill_entries(entries, words, left, depth + 1, slot << 1, last);
    fill_entries(entries, words, right, depth + 1, slot << 1 | 1, last);
}

/// The [`RootArray`] of the table rooted at `root` (not `NONE`) in the
/// packed arena `words`, whose child references are in range.
pub(crate) fn packed_root_array(words: &[u64], root: u32) -> Box<RootArray> {
    let mut array = Box::new([RootEntry::at(NONE); 1 << ROOT_BITS]);
    fill_entries(&mut array[..], words, root, 0, 0, NONE);
    array
}

/// The nodes reachable from `roots` in the record arena `words`, each
/// once, in the order of one BFS queue seeded with `roots` in order
/// (`NONE` entries skipped) that visits the left child before the right.
pub(crate) fn bfs_order(words: &[u64], roots: &[u32]) -> Vec<u32> {
    let mut seen = vec![false; words.len() / 2];
    let mut order: Vec<u32> = Vec::new();
    let mut discover = |idx: u32, order: &mut Vec<u32>| {
        if idx != NONE && !seen[idx as usize] {
            seen[idx as usize] = true;
            order.push(idx);
        }
    };
    for &root in roots {
        discover(root, &mut order);
    }
    // `order` doubles as the queue: everything past `next` is pending.
    let mut next = 0;
    while next < order.len() {
        let (left, right, _) = packed_node(words, order[next]);
        discover(left, &mut order);
        discover(right, &mut order);
        next += 1;
    }
    order
}

/// The compacting BFS every packed form is written by: the records of
/// the nodes [`bfs_order`] reaches from `roots`, renumbered in that order
/// and handed to `emit` one by one. Returns the renumbering, one entry per
/// record of `words` (`NONE` for those not reached): an image's words
/// ([`pack_bfs`]) or a new record log's ([`RecordLog::packed`]).
pub(crate) fn pack_bfs_with(
    words: &[u64],
    roots: &[u32],
    mut emit: impl FnMut([u64; 2]),
) -> Vec<u32> {
    let order = bfs_order(words, roots);
    let mut remap = vec![NONE; words.len() / 2];
    for (new, &old) in (0..).zip(&order) {
        remap[old as usize] = new;
    }
    let packed = |idx: u32| remap.get(idx as usize).copied().unwrap_or(NONE);
    for &idx in &order {
        let (left, right, label) = packed_node(words, idx);
        emit(record(packed(left), packed(right), label));
    }
    remap
}

/// [`pack_bfs_with`] into one word vector, with each root remapped.
pub(crate) fn pack_bfs(words: &[u64], roots: &[u32]) -> (Vec<u64>, Vec<u32>) {
    let mut out = Vec::new();
    let remap = pack_bfs_with(words, roots, |node| out.extend(node));
    let packed = |idx: u32| remap.get(idx as usize).copied().unwrap_or(NONE);
    (out, roots.iter().map(|&root| packed(root)).collect())
}

/// The record log under a pDAG's published copies and a VRF fleet's
/// published sets, and the one holder of its [`WordLog`] (see the module
/// docs' "Publish"). Every log it makes is a buffer no reader holds.
pub(crate) struct RecordLog {
    words: WordLog,
    /// Words the last publish handed readers; `None` before the first.
    published: Option<usize>,
}

impl Default for RecordLog {
    fn default() -> Self {
        Self::new(0)
    }
}

impl RecordLog {
    /// An empty log with room for [`LOG_ROOM`] times `live` records,
    /// [`MIN_LOG_RECORDS`] at least.
    fn new(live: usize) -> Self {
        let words = WordLog::with_capacity(2 * (LOG_ROOM * live).max(MIN_LOG_RECORDS));
        Self {
            words,
            published: None,
        }
    }

    /// [`pack_bfs_with`] into a new log sized for `live` records, and the
    /// renumbering.
    pub(crate) fn packed(words: &[u64], roots: &[u32], live: usize) -> (Self, Vec<u32>) {
        let mut log = Self::new(live);
        let remap = pack_bfs_with(words, roots, |node| {
            let fits = log.words.try_extend(&node);
            debug_assert!(fits, "a new log holds every live record");
        });
        (log, remap)
    }

    /// Appends `node`, first moving a full log into one twice its size.
    pub(crate) fn push(&mut self, node: [u64; 2]) {
        if !self.words.try_extend(&node) {
            let mut grown = Self::new(self.words.capacity() / 2);
            let fits = grown.words.try_extend(self.words()) && grown.words.try_extend(&node);
            debug_assert!(fits, "a buffer twice the size holds one record more");
            *self = grown;
        }
    }

    /// Records the log can take before it is full.
    pub(crate) fn room(&self) -> usize {
        (self.words.capacity() - self.words.len()) / 2
    }

    /// The records, two words each.
    pub(crate) fn words(&self) -> &[u64] {
        self.words.words()
    }

    /// A reader's view of the records so far, and what it adds to the
    /// view before it: the records appended since, or all of a new buffer.
    pub(crate) fn publish(&mut self) -> (SharedWords, ArenaPublish) {
        let len = self.words.len();
        let publish = ArenaPublish {
            records_written: (len - self.published.unwrap_or(0)) / 2,
            shared: self.published.is_some(),
        };
        self.published = Some(len);
        (self.words.shared(), publish)
    }
}

/// Interning key of a folded node (the sub-trie id of Definition 1):
/// leaves are identical iff they hold the same label; interior nodes are
/// identical iff their children are the same folded nodes.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum Key {
    /// Folded leaf with label index (`NONE` encodes ⊥).
    Leaf(u32),
    /// Folded interior node keyed by its folded children.
    Interior(u32, u32),
}

/// What [`PrefixDag::len`], [`PrefixDag::stats`] and
/// [`PrefixDag::size_bytes`] read. The update path keeps them current, so a
/// published copy — which has no control FIB, interner or free list to
/// count — answers from its own copy of them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Counts {
    routes: usize,
    top_nodes: usize,
    folded_interior: usize,
    folded_leaves: usize,
    free_slots: usize,
}

/// Where a [`PrefixDag`]'s node records live; either way a lookup reads
/// them as one word slice.
#[derive(Clone)]
enum Records {
    /// A working engine's arena, rewritten in place, free slots included.
    Arena(Vec<u64>),
    /// A published copy's: the prefix of its working engine's record log
    /// the log held when the copy was published, dead records included.
    Log(SharedWords),
}

impl Deref for Records {
    type Target = [u64];

    #[inline]
    fn deref(&self) -> &[u64] {
        match self {
            Self::Arena(words) => words,
            Self::Log(words) => words,
        }
    }
}

/// The slots a working engine touched since its consumer last drained
/// them, each once, and a bit a slot saying whether it is listed (see
/// the module docs' "Publish").
#[derive(Default)]
struct Changes {
    slots: Vec<u32>,
    marks: Vec<u64>,
}

impl Changes {
    /// Lists slot `idx`, unless it is listed.
    fn insert(&mut self, idx: u32) {
        let (word, bit) = (idx as usize / 64, 1 << (idx % 64));
        if word >= self.marks.len() {
            self.marks.resize(word + 1, 0);
        }
        if self.marks[word] & bit == 0 {
            self.marks[word] |= bit;
            self.slots.push(idx);
        }
    }

    /// Unmarks slot `idx`, still listed: whether it was marked.
    fn take(&mut self, idx: u32) -> bool {
        let bit = 1 << (idx % 64);
        self.marks.get_mut(idx as usize / 64).is_some_and(|word| {
            let marked = *word & bit != 0;
            *word &= !bit;
            marked
        })
    }

    fn clear(&mut self) {
        for idx in self.slots.drain(..) {
            self.marks[idx as usize / 64] &= !(1 << (idx % 64));
        }
    }
}

/// A working engine's record log and what it keeps beside it.
struct PublishLog {
    /// The records every published copy reads a prefix of.
    records: RecordLog,
    /// Per arena slot, the index of its record in `records` — current for
    /// every slot live at the last publish.
    at: Vec<u32>,
    /// What the last publish handed a reader.
    last: ArenaPublish,
}

/// A FIB compressed by trie-folding.
///
/// A working engine owns a *control FIB* (a plain [`BinaryTrie`], the
/// uncompressed image the paper keeps in control-plane DRAM) that drives
/// updates, plus the folded arena the data plane reads; a published copy
/// ([`Self::publish_copy`]) is the data-plane half alone, reading its
/// records from the working engine's record log — see the module docs'
/// "Two halves".
pub struct PrefixDag<A: Address> {
    // Data-plane half: all a published copy carries.
    /// Two words a node: `left | right << 32`, then the label.
    nodes: Records,
    pub(crate) root: u32,
    /// One entry per `min(λ, ROOT_BITS)`-bit address prefix.
    root_array: Vec<RootEntry>,
    lambda: u8,
    counts: Counts,
    // Control half: `None` / empty in a published copy.
    control: Option<BinaryTrie<A>>,
    interner: HashMap<Key, u32, IdBuildHasher>,
    free: Vec<u32>,
    /// Per node, its reference count; fixed at 1 for top (unshared) nodes.
    refcounts: Vec<u32>,
    /// What changed since the last drain; `None` until the first.
    changes: Option<Changes>,
    /// What [`Self::publish_copy`] appends to; `None` until the first.
    log: Option<PublishLog>,
    _marker: PhantomData<A>,
}

impl<A: Address> Clone for PrefixDag<A> {
    /// An independent engine: it diverges from `self` from here on, so no
    /// consumer has drained it yet, and its first publish packs a record
    /// log of its own. (A published copy's clone reads the same log.)
    fn clone(&self) -> Self {
        Self {
            nodes: self.nodes.clone(),
            root: self.root,
            root_array: self.root_array.clone(),
            lambda: self.lambda,
            counts: self.counts,
            control: self.control.clone(),
            interner: self.interner.clone(),
            free: self.free.clone(),
            refcounts: self.refcounts.clone(),
            changes: None,
            log: None,
            _marker: PhantomData,
        }
    }
}

impl<A: Address> PrefixDag<A> {
    /// Folds `trie` with leaf-push barrier `lambda` (clamped to the address
    /// width). `lambda = 0` folds everything (smallest, slowest updates);
    /// `lambda = W` degenerates to a plain prefix tree.
    #[must_use]
    pub fn from_trie(trie: &BinaryTrie<A>, lambda: u8) -> Self {
        Self::from_control(trie.clone(), lambda)
    }

    /// [`Self::from_trie`] that keeps `control` as the control FIB
    /// instead of a copy of it.
    #[must_use]
    pub fn from_control(control: BinaryTrie<A>, lambda: u8) -> Self {
        let lambda = lambda.min(A::WIDTH);
        let mut dag = Self {
            nodes: Records::Arena(Vec::new()),
            root: NONE,
            root_array: Vec::new(),
            lambda,
            counts: Counts {
                routes: control.len(),
                ..Counts::default()
            },
            control: None,
            interner: HashMap::default(),
            free: Vec::new(),
            refcounts: Vec::new(),
            changes: None,
            log: None,
            _marker: PhantomData,
        };
        dag.root = dag.build_top(control.root(), 0);
        dag.root_array = vec![RootEntry::at(NONE); 1 << lambda.min(ROOT_BITS)];
        fill_entries(&mut dag.root_array, &dag.nodes, dag.root, 0, 0, NONE);
        dag.control = Some(control);
        dag
    }

    /// Folds the control FIB afresh at barrier `lambda`, moving it into
    /// the new engine instead of copying it.
    pub(crate) fn refold_at(&mut self, lambda: u8) {
        let control = self.control.take().expect(NO_CONTROL);
        *self = Self::from_control(control, lambda);
    }

    /// Folds with the barrier of Eq. (3) computed from the FIB's own
    /// normal-form entropy.
    #[must_use]
    pub fn with_entropy_barrier(trie: &BinaryTrie<A>) -> Self {
        let metrics = crate::entropy::FibEntropy::of_trie(trie);
        let lambda = crate::lambda::barrier_entropy(metrics.n_leaves, metrics.h0, A::WIDTH);
        Self::from_trie(trie, lambda)
    }

    /// The leaf-push barrier in use.
    #[must_use]
    pub fn lambda(&self) -> u8 {
        self.lambda
    }

    /// Number of routes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.counts.routes
    }

    /// Whether the FIB holds no routes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counts.routes == 0
    }

    /// Whether this is the data-plane half alone, as
    /// [`Self::publish_copy`] hands out: a lookup structure with no control
    /// FIB, which declines every update.
    #[must_use]
    pub fn is_published_copy(&self) -> bool {
        self.control.is_none()
    }

    /// The control FIB (the uncompressed image of this DAG).
    ///
    /// # Panics
    /// Panics on a published copy, which has none — the control FIB lives
    /// with the working engine.
    #[must_use]
    pub fn control(&self) -> &BinaryTrie<A> {
        self.control.as_ref().expect(NO_CONTROL)
    }

    // ------------------------------------------------------------------
    // Construction
    // ------------------------------------------------------------------

    /// Node `idx` as `(left, right, label)`.
    #[inline]
    pub(crate) fn node(&self, idx: u32) -> (u32, u32, u32) {
        packed_node(&self.nodes, idx)
    }

    /// Arena slots, live and free.
    pub(crate) fn slots(&self) -> usize {
        self.nodes.len() / 2
    }

    /// The arena updates write.
    fn arena(&mut self) -> &mut Vec<u64> {
        match &mut self.nodes {
            Records::Arena(words) => words,
            Records::Log(_) => panic!("{NO_CONTROL}"),
        }
    }

    fn is_leaf(&self, idx: u32) -> bool {
        let (left, right, _) = self.node(idx);
        left == NONE && right == NONE
    }

    /// A node holding one reference, in a free slot if there is one.
    fn alloc(&mut self, left: u32, right: u32, label: u32) -> u32 {
        let words = record(left, right, label);
        if let Some(idx) = self.free.pop() {
            self.counts.free_slots -= 1;
            let at = 2 * idx as usize;
            self.arena()[at..at + 2].copy_from_slice(&words);
            self.refcounts[idx as usize] = 1;
            self.touch(idx);
            idx
        } else {
            self.arena().extend(words);
            self.refcounts.push(1);
            let idx = self.refcounts.len() as u32 - 1;
            self.touch(idx);
            idx
        }
    }

    /// Returns a dead node's slot to the free list, with no reference. The
    /// slot keeps its bits until [`Self::alloc`] reuses it, so this is not
    /// a node write.
    fn free_slot(&mut self, idx: u32) {
        self.refcounts[idx as usize] = 0;
        self.free.push(idx);
        self.counts.free_slots += 1;
    }

    /// The one place a live node's record is rewritten: a node the data
    /// plane can read differently afterwards goes on the change set.
    fn write(&mut self, idx: u32, (left, right, label): (u32, u32, u32)) {
        let words = record(left, right, label);
        let at = 2 * idx as usize;
        if self.nodes[at..at + 2] != words {
            self.arena()[at..at + 2].copy_from_slice(&words);
            self.touch(idx);
        }
    }

    /// Puts node `idx` on the change set, once a consumer tracks one:
    /// its record changed, or — for a top node on an update's path — a
    /// record below it did (see the module docs' "Publish").
    fn touch(&mut self, idx: u32) {
        if let Some(changes) = self.changes.as_mut() {
            changes.insert(idx);
        }
    }

    /// Copies the control structure above the barrier; folds at depth λ.
    fn build_top(&mut self, node: NodeRef<'_, A>, depth: u8) -> u32 {
        if depth == self.lambda {
            return self.fold(Some(node), None, depth);
        }
        let left = node.left().map(|c| self.build_top(c, depth + 1));
        let right = node.right().map(|c| self.build_top(c, depth + 1));
        self.counts.top_nodes += 1;
        self.alloc(
            left.unwrap_or(NONE),
            right.unwrap_or(NONE),
            node.label().map_or(NONE, |nh| nh.index()),
        )
    }

    /// Leaf-pushes and hash-conses the control subtrie at `node` in one
    /// post-order pass (the paper's `leaf_push` + `compress`). `inherited`
    /// is the pushed-down default label (⊥ = `None` at the subtrie root,
    /// matching `trie_fold`'s use of `l(u)` as the default route).
    fn fold(&mut self, node: Option<NodeRef<'_, A>>, inherited: Option<u32>, depth: u8) -> u32 {
        let Some(node) = node else {
            return self.intern_leaf(inherited.unwrap_or(NONE));
        };
        let effective = node.label().map(|nh| nh.index()).or(inherited);
        if node.is_leaf() || depth == A::WIDTH {
            return self.intern_leaf(effective.unwrap_or(NONE));
        }
        let left = self.fold(node.left(), effective, depth + 1);
        let right = self.fold(node.right(), effective, depth + 1);
        // Coalescing (normalization): identical sibling leaves merge into
        // their parent. Interning makes identical leaves *the same node*,
        // so the check is pointer equality.
        if left == right && self.is_leaf(left) {
            self.release(right); // give back one of our two references
            return left;
        }
        self.intern_interior(left, right)
    }

    fn intern_leaf(&mut self, label: u32) -> u32 {
        if let Some(&existing) = self.interner.get(&Key::Leaf(label)) {
            self.refcounts[existing as usize] += 1;
            return existing;
        }
        let idx = self.alloc(NONE, NONE, label);
        self.interner.insert(Key::Leaf(label), idx);
        self.counts.folded_leaves += 1;
        idx
    }

    /// The paper's `put(i, j, v)`: share an interior node by child ids.
    fn intern_interior(&mut self, left: u32, right: u32) -> u32 {
        if let Some(&existing) = self.interner.get(&Key::Interior(left, right)) {
            self.refcounts[existing as usize] += 1;
            // The existing node already owns references to these children;
            // give back the ones acquired while building them.
            self.release(left);
            self.release(right);
            return existing;
        }
        let idx = self.alloc(left, right, NONE);
        self.interner.insert(Key::Interior(left, right), idx);
        self.counts.folded_interior += 1;
        idx
    }

    /// The paper's `get`: drop one reference, freeing (and un-indexing)
    /// the node and its subtree when the count reaches zero.
    fn release(&mut self, idx: u32) {
        let refcount = &mut self.refcounts[idx as usize];
        debug_assert!(*refcount >= 1, "release of dead node {idx}");
        if *refcount > 1 {
            *refcount -= 1;
            return;
        }
        let (left, right, label) = self.node(idx);
        let leaf = left == NONE && right == NONE;
        let key = if leaf {
            Key::Leaf(label)
        } else {
            Key::Interior(left, right)
        };
        let removed = self.interner.remove(&key);
        debug_assert_eq!(removed, Some(idx), "interner out of sync at {idx}");
        if leaf {
            self.counts.folded_leaves -= 1;
        } else {
            self.counts.folded_interior -= 1;
            self.release(left);
            self.release(right);
        }
        self.free_slot(idx);
    }

    // ------------------------------------------------------------------
    // Lookup
    // ------------------------------------------------------------------

    /// Longest-prefix-match lookup — *standard trie traversal* from the
    /// root-array entry down, remembering the last label on the path
    /// (Lemma 5: O(W), no decompression).
    #[must_use]
    #[inline]
    pub fn lookup(&self, addr: A) -> Option<NextHop> {
        self.view().lookup(addr)
    }

    /// Lookup that also reports the node records read after the root-array
    /// entry (counted as [`crate::SerializedDag::lookup_with_depth`] counts
    /// them).
    #[must_use]
    #[inline]
    pub fn lookup_with_depth(&self, addr: A) -> (Option<NextHop>, Depth) {
        self.view().lookup_with_depth(addr)
    }

    /// The walk over this engine's records, from its root array: a
    /// working engine's arena, or the record log a published copy reads
    /// (whose [`PrefixDagRef::payload_ptr_range`] shows which buffer that
    /// is). Every lookup of `self` runs it.
    #[must_use]
    #[inline]
    pub fn view(&self) -> PrefixDagRef<'_, A> {
        PrefixDagRef {
            words: &self.nodes,
            root: self.root,
            root_array: &self.root_array,
            _marker: PhantomData,
        }
    }

    /// Brings the root array up to date after an arena edit on `prefix`'s
    /// path: the one entry above a prefix of length ≥ `k`, the
    /// `2^(k − len)` entries under a shorter one. No other entry can have
    /// moved — nodes created or pruned along the path carry no label and
    /// no child off it.
    fn refresh_root(&mut self, prefix: Prefix<A>) {
        let stop = prefix.len().min(self.lambda.min(ROOT_BITS));
        let mut idx = self.root;
        let mut last = NONE;
        for depth in 0..stop {
            if idx == NONE {
                break;
            }
            let (left, right, label) = self.node(idx);
            if label != NONE {
                last = label;
            }
            idx = if prefix.bit(depth) { right } else { left };
        }
        let slot = prefix.addr().bits(0, stop) as usize;
        fill_entries(&mut self.root_array, &self.nodes, idx, stop, slot, last);
    }

    // ------------------------------------------------------------------
    // Update (Section 4.3)
    // ------------------------------------------------------------------

    /// Inserts or replaces a route, returning the previous next-hop.
    ///
    /// Cost: O(W) when `prefix.len() < λ`; O(W + 2^(W−λ)) otherwise
    /// (Theorem 3). A re-announce of the next-hop the prefix already
    /// has costs the control-trie insert alone: the arena, the root
    /// array and the change set stay as they are.
    pub fn insert(&mut self, prefix: Prefix<A>, next_hop: NextHop) -> Option<NextHop> {
        let control = self.control.as_mut().expect(NO_CONTROL);
        let old = control.insert(prefix, next_hop);
        if old == Some(next_hop) {
            return old;
        }
        self.counts.routes += usize::from(old.is_none());
        if prefix.len() < self.lambda {
            // Shallow update: edit the top tree in place.
            let mut idx = self.root;
            for depth in 0..prefix.len() {
                self.touch(idx);
                idx = self.ensure_top_child(idx, prefix.bit(depth));
            }
            let (left, right, _) = self.node(idx);
            self.write(idx, (left, right, next_hop.index()));
        } else {
            self.refold_portal(prefix);
        }
        self.refresh_root(prefix);
        old
    }

    /// Removes a route, returning its next-hop if it existed.
    ///
    /// Same complexity as [`Self::insert`]; withdrawing a prefix the
    /// table does not hold costs the control-trie walk alone.
    pub fn remove(&mut self, prefix: Prefix<A>) -> Option<NextHop> {
        let old = self.control.as_mut().expect(NO_CONTROL).remove(prefix)?;
        self.counts.routes -= 1;
        if prefix.len() < self.lambda {
            let mut path = Vec::with_capacity(prefix.len() as usize + 1);
            let mut idx = self.root;
            path.push(idx);
            for depth in 0..prefix.len() {
                self.touch(idx);
                idx = self.top_child(idx, prefix.bit(depth));
                debug_assert_ne!(idx, NONE, "top tree out of sync with control FIB");
                path.push(idx);
            }
            let (left, right, _) = self.node(idx);
            self.write(idx, (left, right, NONE));
            self.prune_top(&path, prefix);
        } else {
            self.refold_portal(prefix);
        }
        self.refresh_root(prefix);
        Some(old)
    }

    /// Re-normalizes and re-folds the λ-subtrie on `prefix`'s path after
    /// the control FIB has been modified. Handles appearing and
    /// disappearing portals and prunes the top path when it dies.
    fn refold_portal(&mut self, prefix: Prefix<A>) {
        // `fold` mutates the arena while walking the control trie, so the
        // control is moved out for the duration (it is not touched by any
        // arena operation).
        let control = self.control.take().expect(NO_CONTROL);
        self.refold_portal_inner(prefix, &control);
        self.control = Some(control);
    }

    fn refold_portal_inner(&mut self, prefix: Prefix<A>, control: &BinaryTrie<A>) {
        // Locate the control node at depth λ (post-update).
        let mut ctrl = Some(control.root());
        for depth in 0..self.lambda {
            ctrl = ctrl.and_then(|c| {
                if prefix.bit(depth) {
                    c.right()
                } else {
                    c.left()
                }
            });
        }
        if self.lambda == 0 {
            let old = self.root;
            let new_root = if old == NONE {
                self.fold(ctrl, None, 0)
            } else {
                self.refold_path(ctrl, old, 0, prefix, None)
            };
            self.root = new_root;
            if old != NONE {
                self.release(old);
            }
            return;
        }
        // Ensure / walk the top path to the portal's parent.
        let mut path = Vec::with_capacity(self.lambda as usize);
        let mut idx = self.root;
        path.push(idx);
        for depth in 0..self.lambda - 1 {
            self.touch(idx);
            idx = self.ensure_top_child(idx, prefix.bit(depth));
            path.push(idx);
        }
        self.touch(idx);
        let portal_bit = prefix.bit(self.lambda - 1);
        let old_portal = self.top_child(idx, portal_bit);
        let new_portal = match ctrl {
            Some(node) if old_portal != NONE => {
                self.refold_path(Some(node), old_portal, self.lambda, prefix, None)
            }
            Some(node) => self.fold(Some(node), None, self.lambda),
            None => NONE,
        };
        self.set_top_child(idx, portal_bit, new_portal);
        if old_portal != NONE {
            self.release(old_portal);
        }
        if new_portal == NONE {
            self.prune_top(&path, prefix);
        }
    }

    /// The paper's §4.3 update path, sharing-aware: rebuilds only the
    /// nodes on `prefix`'s path between the barrier and the changed depth,
    /// re-using the *sibling* folds of the old DAG verbatim (they are
    /// unchanged by construction), and re-normalizes just the subtree below
    /// the changed prefix. Common-case cost is O(W + 2^(W−p)) for an update
    /// at depth p — tiny for the long prefixes that dominate BGP churn —
    /// with Theorem 3's O(W + 2^(W−λ)) as the worst case.
    ///
    /// Returns a new folded reference holding one acquired reference; the
    /// caller must release the old portal afterwards (which cascades down
    /// the old path, balancing the sibling references acquired here).
    fn refold_path(
        &mut self,
        ctrl: Option<NodeRef<'_, A>>,
        old: u32,
        depth: u8,
        prefix: Prefix<A>,
        inherited: Option<u32>,
    ) -> u32 {
        let reached_change = depth >= prefix.len();
        let ctrl_ends = ctrl.is_none_or(|n| n.is_leaf()) || depth == A::WIDTH;
        if reached_change || ctrl_ends || self.is_leaf(old) {
            // Everything below here must be re-normalized from the control
            // FIB (or the old fold coalesced and offers nothing to share).
            return self.fold(ctrl, inherited, depth);
        }
        let node = ctrl.expect("checked non-leaf control node");
        let effective = node.label().map(|nh| nh.index()).or(inherited);
        let bit = prefix.bit(depth);
        let (old_left, old_right, _) = self.node(old);
        let (old_follow, old_other) = if bit {
            (old_right, old_left)
        } else {
            (old_left, old_right)
        };
        let follow_ctrl = if bit { node.right() } else { node.left() };
        let new_follow = self.refold_path(follow_ctrl, old_follow, depth + 1, prefix, effective);
        // The sibling subtrie is untouched by this update, so its fold is
        // identical — acquire a reference instead of re-folding.
        self.refcounts[old_other as usize] += 1;
        let (left, right) = if bit {
            (old_other, new_follow)
        } else {
            (new_follow, old_other)
        };
        if left == right && self.is_leaf(left) {
            self.release(right);
            return left;
        }
        self.intern_interior(left, right)
    }

    /// Removes label-less, childless top nodes along `path` bottom-up,
    /// mirroring the control FIB's own pruning. `path[d]` is the node at
    /// depth `d`; the root survives unconditionally.
    fn prune_top(&mut self, path: &[u32], prefix: Prefix<A>) {
        for depth in (1..path.len()).rev() {
            let idx = path[depth];
            if self.node(idx) == (NONE, NONE, NONE) {
                let parent = path[depth - 1];
                self.set_top_child(parent, prefix.bit(depth as u8 - 1), NONE);
                self.free_slot(idx);
                self.counts.top_nodes -= 1;
            } else {
                break;
            }
        }
    }

    fn top_child(&self, idx: u32, bit: bool) -> u32 {
        let (left, right, _) = self.node(idx);
        if bit {
            right
        } else {
            left
        }
    }

    fn set_top_child(&mut self, idx: u32, bit: bool, child: u32) {
        let (left, right, label) = self.node(idx);
        let node = if bit {
            (left, child, label)
        } else {
            (child, right, label)
        };
        self.write(idx, node);
    }

    fn ensure_top_child(&mut self, idx: u32, bit: bool) -> u32 {
        let child = self.top_child(idx, bit);
        if child != NONE {
            return child;
        }
        let new = self.alloc(NONE, NONE, NONE);
        self.counts.top_nodes += 1;
        self.set_top_child(idx, bit, new);
        new
    }

    // ------------------------------------------------------------------
    // Publish
    // ------------------------------------------------------------------

    /// The engine a router publishes: the data-plane half of `self` as it
    /// stands, which answers every read-only method as `self` does now and
    /// declines every update. (Called on a published copy, this is a plain
    /// copy of it.)
    ///
    /// The copy's records are a view of this engine's record log: the
    /// records of the nodes on the change set — those an update wrote,
    /// and the top nodes above them — are appended to it, so the copy
    /// shares its buffer — and whatever a reader cached of it — with the
    /// copy published before it. The first publish of an engine, and one
    /// that finds the log full, packs the live records into a new log
    /// instead. Either way the cost is what changed plus, at a pack, one
    /// BFS of the live records; [`Self::last_publish`] says which it was.
    /// The publish drains the change set.
    #[must_use]
    pub fn publish_copy(&mut self) -> Self {
        if self.is_published_copy() {
            return self.clone();
        }
        if !(self.start_drain() && self.append_changes()) {
            // A pack, in the order `write_packed` writes.
            let (records, at) =
                RecordLog::packed(&self.nodes, &[self.root], self.stats().live_nodes);
            let last = ArenaPublish::default();
            self.log = Some(PublishLog { records, at, last });
        }
        self.finish_drain();
        let log = self.log.as_mut().expect("appended or packed");
        let (words, last) = log.records.publish();
        log.last = last;
        let at = |idx: u32| log.at.get(idx as usize).copied().unwrap_or(NONE);
        let root_array = (self.root_array.iter())
            .map(|entry| RootEntry {
                node: at(entry.node),
                last: entry.last,
            })
            .collect();
        let copy = Self {
            nodes: Records::Log(words),
            root: at(self.root),
            root_array,
            lambda: self.lambda,
            counts: self.counts,
            control: None,
            interner: HashMap::default(),
            free: Vec::new(),
            refcounts: Vec::new(),
            changes: None,
            log: None,
            _marker: PhantomData,
        };
        debug_assert!(
            copy.write_packed() == self.write_packed(),
            "published copy differs from the working arena"
        );
        copy
    }

    /// Appends a record for every live slot on the change set to the
    /// log, children remapped through the slot → record table; returns
    /// `false`, appending nothing, when there is no log or it cannot take
    /// them, and a pack must run instead.
    ///
    /// Every such record gets its index before any is written, so the
    /// order needs no walk: a child on the set too is remapped to its new
    /// record, one off it to the record the last publish gave it.
    fn append_changes(&mut self) -> bool {
        let slots = self.slots();
        let (Some(log), Some(changes)) = (self.log.as_mut(), self.changes.as_ref()) else {
            return false;
        };
        if changes.slots.len() > log.records.room() {
            return false;
        }
        log.at.resize(slots, NONE);
        let live = |idx: &&u32| self.refcounts[**idx as usize] > 0;
        let start = (log.records.words().len() / 2) as u32;
        for (next, &idx) in (start..).zip(changes.slots.iter().filter(live)) {
            log.at[idx as usize] = next;
        }
        let at = |idx: u32| log.at.get(idx as usize).copied().unwrap_or(NONE);
        for &idx in changes.slots.iter().filter(live) {
            let (left, right, label) = packed_node(&self.nodes, idx);
            log.records.push(record(at(left), at(right), label));
        }
        true
    }

    /// Starts a drain of the change set: whether it lists what changed
    /// since the last — `false` at the first, which takes the engine
    /// whole. Either way it lists every node touched from here on.
    pub(crate) fn start_drain(&mut self) -> bool {
        let tracked = self.changes.is_some();
        self.changes.get_or_insert_with(Changes::default);
        tracked
    }

    /// Takes node `idx` off the change set during a drain: whether its
    /// record was written, or, for a top node, one below it.
    pub(crate) fn take_change(&mut self, idx: u32) -> bool {
        self.changes
            .as_mut()
            .is_some_and(|changes| changes.take(idx))
    }

    /// Ends a drain: what is left on the change set comes off it.
    pub(crate) fn finish_drain(&mut self) {
        if let Some(changes) = self.changes.as_mut() {
            changes.clear();
        }
    }

    /// What the last [`Self::publish_copy`] handed a reader: the records
    /// it appended and that the buffer was the one the copy before it
    /// reads, or every record of a new buffer. `None` before the first
    /// publish and on a published copy.
    #[must_use]
    pub fn last_publish(&self) -> Option<ArenaPublish> {
        self.log.as_ref().map(|log| log.last)
    }

    /// Bytes of change-tracking state: none until the first drain; then
    /// the change set, a bit and at most a `u32` a node however many
    /// updates go by undrained, and, once the engine has published, the
    /// per-node index into its record log, a `u32` each.
    #[must_use]
    pub fn tracking_bytes(&self) -> usize {
        let at = self.log.as_ref().map_or(0, |log| 4 * log.at.capacity());
        let changes = (self.changes.as_ref()).map_or(0, |changes| {
            4 * changes.slots.capacity() + 8 * changes.marks.capacity()
        });
        at + changes
    }

    // ------------------------------------------------------------------
    // Accounting
    // ------------------------------------------------------------------

    /// Structure counters.
    #[must_use]
    pub fn stats(&self) -> DagStats {
        let Counts {
            top_nodes,
            folded_interior,
            folded_leaves,
            ..
        } = self.counts;
        DagStats {
            lambda: self.lambda,
            top_nodes,
            folded_interior,
            folded_leaves,
            live_nodes: top_nodes + folded_interior + folded_leaves,
        }
    }

    /// Distinct labels stored anywhere in the DAG (top labels plus folded
    /// leaf labels, ⊥ excluded) — the δ of the size model.
    #[must_use]
    pub fn distinct_labels(&self) -> usize {
        // Live nodes are the reachable ones: free slots keep stale bits.
        let mut labels: Vec<u32> = bfs_order(&self.nodes, &[self.root])
            .into_iter()
            .map(|idx| self.node(idx).2)
            .filter(|&label| label != NONE)
            .collect(); // fibcheck: allow(hot-path): control-plane statistics; reached through a name-collision edge, not the lookup walk
        labels.sort_unstable();
        labels.dedup();
        labels.len()
    }

    /// Storage size in bits under the paper's §4.2 memory model: nodes
    /// above the barrier hold one node pointer plus a `lg δ` label index;
    /// folded interior nodes hold two pointers; coalesced leaves cost
    /// `δ·lg δ` bits in total; a root-array entry is a pointer plus a
    /// label index, like a top node. Pointers are `⌈lg(live nodes)⌉` bits.
    #[must_use]
    pub fn model_size_bits(&self) -> usize {
        let s = self.stats();
        let delta = self.distinct_labels().max(1) as u64;
        let ptr = ceil_log2(s.live_nodes as u64).max(1) as usize;
        let lg_delta = ceil_log2(delta) as usize;
        (s.top_nodes + self.root_array.len()) * (ptr + lg_delta)
            + s.folded_interior * 2 * ptr
            + delta as usize * lg_delta
    }

    /// Bytes of live records, 16 each: what an image of this state
    /// stores. A working engine's arena holds free slots beside them, and
    /// the record log a published copy reads holds dead records — ones
    /// the working engine has rewritten or freed since they were appended
    /// — until its next pack; neither is counted.
    #[must_use]
    pub fn size_bytes(&self) -> usize {
        self.stats().live_nodes * 16
    }

    /// Fraction of arena slots sitting on the free list, in `[0, 1]` —
    /// of the working engine's arena, on a published copy too.
    ///
    /// A freshly folded DAG is fully compact (0.0); λ-barrier updates
    /// recycle slots but leave holes behind, so locality of the data-plane
    /// walk degrades as churn accumulates. A control plane watches this
    /// number and compacts when it crosses a threshold (the router's is
    /// 0.25) — the snapshot/re-emit lifecycle of the paper's §5. BGP churn
    /// keeps it low: on the benchmark's update stream (taz, seed `0xF1B`,
    /// λ 11) it peaks at 0.024 over 2 M updates at taz 1.0 and at 0.18 at
    /// taz 0.1 (0.051 and 0.103 over the first 200 k, two update seeds),
    /// and crosses 0.25 only at taz 0.02 (0.27 after 200 k).
    #[must_use]
    pub fn fragmentation(&self) -> f64 {
        // Every slot is live or free.
        let slots = self.stats().live_nodes + self.counts.free_slots;
        if slots == 0 {
            0.0
        } else {
            self.counts.free_slots as f64 / slots as f64
        }
    }

    /// Verifies internal consistency: every root-array entry is what a
    /// bit-by-bit walk from the root finds, reference counts match
    /// in-degrees, the interner indexes exactly the folded region, every
    /// folded interior has two children, and the counters agree with the
    /// control FIB, the interner and the free list. A published copy has
    /// only the root array to check (it holds no reference counts).
    /// Test/diagnostic use.
    ///
    /// # Panics
    /// Panics if an invariant is broken.
    pub fn assert_invariants(&self) {
        let k = self.lambda.min(ROOT_BITS);
        assert_eq!(self.root_array.len(), 1 << k, "root array is not 2^k");
        for (slot, &entry) in self.root_array.iter().enumerate() {
            let mut node = self.root;
            let mut last = NONE;
            for depth in 0..k {
                if node == NONE {
                    break;
                }
                let (left, right, label) = self.node(node);
                if label != NONE {
                    last = label;
                }
                node = if slot >> (k - 1 - depth) & 1 == 1 {
                    right
                } else {
                    left
                };
            }
            assert_eq!(
                entry,
                RootEntry { node, last },
                "root-array entry {slot:#x} differs from the walk from the root"
            );
        }
        let Some(control) = &self.control else {
            return;
        };
        assert_eq!(self.counts.routes, control.len(), "route count");
        assert_eq!(self.counts.free_slots, self.free.len(), "free-slot count");
        assert_eq!(
            self.counts.folded_leaves + self.counts.folded_interior,
            self.interner.len(),
            "folded node counts"
        );
        let slots = self.slots();
        assert_eq!(self.refcounts.len(), slots, "one reference count a node");
        if let Some(changes) = &self.changes {
            let marked: u32 = changes.marks.iter().map(|word| word.count_ones()).sum();
            assert_eq!(marked as usize, changes.slots.len(), "marks ≠ listed slots");
        }
        assert_eq!(
            self.stats().live_nodes + self.counts.free_slots,
            slots,
            "a slot neither live nor free"
        );
        // Count in-edges of every folded node.
        let mut indegree: HashMap<u32, u32> = HashMap::new();
        let mut stack = vec![(self.root, 0u8)];
        if self.root == NONE {
            assert!(
                self.lambda == 0,
                "only λ=0 may have a NONE root transiently"
            );
            return;
        }
        let mut visited_top = 0usize;
        while let Some((idx, depth)) = stack.pop() {
            let (left, right, _) = self.node(idx);
            let folded = depth >= self.lambda;
            if !folded {
                visited_top += 1;
            }
            for child in [left, right] {
                if child == NONE {
                    continue;
                }
                if depth + 1 >= self.lambda {
                    let entry = indegree.entry(child).or_insert(0);
                    *entry += 1;
                    // Recurse into a folded node only on first sight.
                    if *entry == 1 {
                        stack.push((child, depth + 1));
                    }
                } else {
                    stack.push((child, depth + 1));
                }
            }
            if folded && !self.is_leaf(idx) {
                assert!(
                    left != NONE && right != NONE,
                    "folded interior missing child"
                );
            }
        }
        assert_eq!(
            visited_top, self.counts.top_nodes,
            "top node count out of sync"
        );
        for &idx in self.interner.values() {
            let refcount = self.refcounts[idx as usize];
            let mut expected = indegree.get(&idx).copied().unwrap_or(0);
            if idx == self.root {
                // The λ=0 root portal is held by the root handle itself.
                expected += 1;
            }
            assert_eq!(
                refcount, expected,
                "refcount mismatch at folded node {idx}: {refcount} vs in-degree {expected}"
            );
        }
        assert_eq!(
            indegree.len() + usize::from(self.lambda == 0),
            self.interner.len(),
            "interner size does not match reachable folded nodes"
        );
    }

    /// Serializes the DAG as a compact packed word image: reachable nodes
    /// are renumbered in BFS order, dropping free-list holes, in the
    /// arena's own two-word records. Returns the words and the remapped
    /// root index.
    ///
    /// Shared folded nodes are emitted once; the sharing survives because
    /// the remap is by node identity.
    #[must_use]
    pub fn write_packed(&self) -> (Vec<u64>, u32) {
        let (words, roots) = pack_bfs(&self.nodes, &[self.root]);
        (words, roots[0])
    }
}

/// Borrowed zero-copy view of a packed [`PrefixDag`] image: plain trie
/// traversal with label fall-through over two-word node records
/// (`left | right << 32`, `label`).
///
/// The walk is one, whatever it starts from (see the module docs' "Root
/// array"): a view of a pDAG image starts at its root, the `k = 0` case
/// whose one entry is the root with no label above it; a compiled fleet's
/// shared-arena table starts at its [`RootArray`]; and the updatable
/// [`PrefixDag`] looks up through this walk over its own arena and
/// `min(λ, 8)`-level array.
#[derive(Clone, Copy, Debug)]
pub struct PrefixDagRef<'a, A: Address> {
    words: &'a [u64],
    /// Where the walk starts when `root_array` is empty.
    root: u32,
    /// Where the walk starts: `2^k` entries for some `k ≤ 8`, indexed by
    /// the address's first `k` bits; empty starts it at `root`.
    root_array: &'a [RootEntry],
    _marker: PhantomData<A>,
}

impl<'a, A: Address> PrefixDagRef<'a, A> {
    /// Assembles a view over packed node words, validating that every
    /// child reference resolves inside the arena. (The walk terminates on
    /// any input because it consumes one address bit per hop, W at most.)
    ///
    /// # Errors
    /// A static message naming the structural violation.
    pub fn from_parts(words: &'a [u64], root: u32) -> Result<Self, &'static str> {
        let view = Self::from_parts_trusted(words, root)?;
        let n_nodes = words.len() / 2;
        for i in 0..n_nodes as u32 {
            let (left, right, _) = packed_node(words, i);
            for child in [left, right] {
                if child != NONE && child as usize >= n_nodes {
                    return Err("pdag child out of range");
                }
            }
        }
        Ok(view)
    }

    /// [`Self::from_parts`] minus the O(n) child scan — only for words
    /// that already passed it, as an image's record of its first view
    /// vouches (see [`crate::image`], "Validation"). The walk is
    /// depth-bounded by `A::WIDTH` either way.
    pub(crate) fn from_parts_trusted(words: &'a [u64], root: u32) -> Result<Self, &'static str> {
        if words.len() % 2 != 0 {
            return Err("pdag image word count is odd");
        }
        if root != NONE && root as usize >= words.len() / 2 {
            return Err("pdag root out of range");
        }
        Ok(Self {
            words,
            root,
            root_array: &[],
            _marker: PhantomData,
        })
    }

    /// The view a compiled fleet serves a shared-arena table by: over the
    /// arena `words`, from the table's `root_array` — `None` for a table
    /// with no root, whose every lookup answers `None`. Unchecked: the
    /// words and the array come from the fleet compiler, or from an image
    /// whose arena passed [`Self::from_parts`]'s scan.
    pub(crate) fn from_root_array(words: &'a [u64], root_array: Option<&'a RootArray>) -> Self {
        Self {
            words,
            root: NONE,
            root_array: root_array.map_or(&[], |array| &array[..]),
            _marker: PhantomData,
        }
    }

    /// The pointer range of the borrowed words, for zero-copy assertions
    /// in tests.
    #[must_use]
    pub fn payload_ptr_range(&self) -> std::ops::Range<usize> {
        let start = self.words.as_ptr() as usize;
        start..start + std::mem::size_of_val(self.words)
    }

    /// Bytes of the borrowed words, 16 per record: an image's footprint;
    /// over a published pDAG copy's record log, its dead records too.
    #[must_use]
    pub fn size_bytes(&self) -> usize {
        self.words.len() * 8
    }

    /// Longest-prefix-match lookup — standard trie traversal (Lemma 5)
    /// over the packed records.
    #[must_use]
    #[inline]
    pub fn lookup(&self, addr: A) -> Option<NextHop> {
        self.lookup_with_depth(addr).0
    }

    /// [`Self::lookup`] of each of `addrs` into `out`, over this one view:
    /// an owned [`PrefixDag`] picks its records' slice once a batch, not
    /// once a lookup.
    ///
    /// # Panics
    /// Panics if `out` is shorter than `addrs`.
    // Out of line for the reason `FibLookup::lookup_batch` is.
    #[inline(never)]
    pub fn lookup_batch(&self, addrs: &[A], out: &mut [Option<NextHop>]) {
        assert!(out.len() >= addrs.len(), "output buffer too small"); // fibcheck: allow(hot-path): documented once-per-batch contract, not per-packet
        for (addr, slot) in addrs.iter().zip(out.iter_mut()) {
            *slot = self.lookup(*addr);
        }
    }

    /// Lookup that also reports the node records read after the walk's
    /// start: from the root, the root is the first read; from a root
    /// array, the node its entry names is.
    #[must_use]
    #[inline]
    pub fn lookup_with_depth(&self, addr: A) -> (Option<NextHop>, Depth) {
        // A view with no root array starts at its root: the k = 0 array.
        let from_root = [RootEntry::at(self.root)];
        let array = if self.root_array.is_empty() {
            &from_root[..]
        } else {
            self.root_array
        };
        // The length is a power of two, 1 at least; `| 1` spares `ilog2`
        // its check for zero.
        let mut depth = (array.len() | 1).ilog2() as u8;
        let entry = array[(addr.bits(0, ROOT_BITS) >> (ROOT_BITS - depth)) as usize];
        let (mut idx, mut last) = (entry.node, entry.last);
        let mut reads: Depth = 0;
        while idx != NONE {
            let (left, right, label) = packed_node(self.words, idx);
            reads += 1;
            if label != NONE {
                last = label;
            }
            if depth >= A::WIDTH {
                break;
            }
            idx = if addr.bit(depth) { right } else { left };
            depth += 1;
        }
        ((last != NONE).then(|| NextHop::new(last)), reads)
    }
}

/// Structure counters of a [`PrefixDag`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DagStats {
    /// Barrier the DAG was folded with.
    pub lambda: u8,
    /// Unshared nodes above the barrier.
    pub top_nodes: usize,
    /// Distinct folded interior nodes.
    pub folded_interior: usize,
    /// Distinct folded leaves (≤ δ + 1).
    pub folded_leaves: usize,
    /// Total live nodes.
    pub live_nodes: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use fib_trie::Prefix4;

    fn nh(i: u32) -> NextHop {
        NextHop::new(i)
    }

    fn p(s: &str) -> Prefix4 {
        s.parse().unwrap()
    }

    fn fig1_trie() -> BinaryTrie<u32> {
        [
            (p("0.0.0.0/0"), nh(2)),
            (p("0.0.0.0/1"), nh(3)),
            (p("0.0.0.0/2"), nh(3)),
            (p("32.0.0.0/3"), nh(2)),
            (p("64.0.0.0/2"), nh(2)),
            (p("96.0.0.0/3"), nh(1)),
        ]
        .into_iter()
        .collect()
    }

    fn assert_equivalent(trie: &BinaryTrie<u32>, dag: &PrefixDag<u32>, samples: u32) {
        for i in 0..samples {
            let addr = i.wrapping_mul(0x9E37_79B9) ^ (i >> 3);
            assert_eq!(dag.lookup(addr), trie.lookup(addr), "addr {addr:#x}");
        }
        for top in 0..=255u32 {
            let addr = top << 24 | 0xABCDE;
            assert_eq!(dag.lookup(addr), trie.lookup(addr), "addr {addr:#x}");
        }
    }

    #[test]
    fn equivalence_across_all_barriers() {
        let trie = fig1_trie();
        for lambda in 0..=32u8 {
            let dag = PrefixDag::from_trie(&trie, lambda);
            dag.assert_invariants();
            assert_equivalent(&trie, &dag, 1000);
        }
    }

    #[test]
    fn lambda_zero_is_fully_folded() {
        let trie = fig1_trie();
        let dag = PrefixDag::from_trie(&trie, 0);
        let stats = dag.stats();
        assert_eq!(stats.top_nodes, 0);
        // Normal form has 9 nodes / 5 leaves over 3 distinct labels.
        // Folding shares the three duplicate "2" leaves into one node; the
        // 4 interiors are structurally distinct here and stay.
        assert_eq!(stats.folded_leaves, 3);
        assert_eq!(stats.folded_interior, 4);
        assert_eq!(stats.live_nodes, 7, "9-node normal form folds to 7");
    }

    #[test]
    fn lambda_w_is_a_plain_trie() {
        let trie = fig1_trie();
        let dag = PrefixDag::from_trie(&trie, 32);
        let stats = dag.stats();
        // Nothing reaches depth 32, so nothing folds.
        assert_eq!(stats.folded_interior + stats.folded_leaves, 0);
        assert_eq!(stats.top_nodes, trie.node_count());
        assert_equivalent(&trie, &dag, 500);
    }

    #[test]
    fn identical_subtries_fold_together() {
        // Two /8s with identical interior structure: the λ=8 DAG must share
        // one folded subtrie between them.
        let mut trie: BinaryTrie<u32> = BinaryTrie::new();
        for base in [10u32, 20] {
            trie.insert(Prefix4::new(base << 24, 8), nh(1));
            trie.insert(Prefix4::new(base << 24 | 0x0080_0000, 9), nh(2));
            trie.insert(Prefix4::new(base << 24 | 0x00C0_0000, 10), nh(3));
        }
        let dag = PrefixDag::from_trie(&trie, 8);
        dag.assert_invariants();
        assert_equivalent(&trie, &dag, 2000);
        // A lone copy of the same subtrie for comparison:
        let mut single: BinaryTrie<u32> = BinaryTrie::new();
        single.insert(Prefix4::new(10 << 24, 8), nh(1));
        single.insert(Prefix4::new(10 << 24 | 0x0080_0000, 9), nh(2));
        single.insert(Prefix4::new(10 << 24 | 0x00C0_0000, 10), nh(3));
        let sdag = PrefixDag::from_trie(&single, 8);
        let (d, s) = (dag.stats(), sdag.stats());
        assert_eq!(
            d.folded_interior, s.folded_interior,
            "two identical subtries must not add folded interiors"
        );
    }

    #[test]
    fn empty_fib() {
        let trie: BinaryTrie<u32> = BinaryTrie::new();
        for lambda in [0u8, 4, 11, 32] {
            let dag = PrefixDag::from_trie(&trie, lambda);
            assert_eq!(dag.lookup(0), None);
            assert_eq!(dag.lookup(u32::MAX), None);
            assert!(dag.is_empty());
        }
    }

    #[test]
    fn insert_below_barrier_is_shallow() {
        let mut dag = PrefixDag::from_trie(&fig1_trie(), 11);
        let before = dag.stats().folded_interior;
        assert_eq!(dag.insert(p("0.0.0.0/4"), nh(9)), None);
        dag.assert_invariants();
        assert_eq!(dag.stats().folded_interior, before, "no folding below λ");
        assert_eq!(dag.lookup(0x0800_0000 >> 1), Some(nh(9)));
        assert_eq!(dag.control().lookup(0x0400_0000), dag.lookup(0x0400_0000));
    }

    #[test]
    fn insert_above_barrier_refolds_one_subtrie() {
        let mut trie = fig1_trie();
        let mut dag = PrefixDag::from_trie(&trie, 4);
        // Insert a /24 (deep below λ=4).
        let prefix = p("10.1.2.0/24");
        trie.insert(prefix, nh(7));
        assert_eq!(dag.insert(prefix, nh(7)), None);
        dag.assert_invariants();
        assert_equivalent(&trie, &dag, 3000);
        assert_eq!(
            dag.lookup(u32::from(std::net::Ipv4Addr::new(10, 1, 2, 99))),
            Some(nh(7))
        );
    }

    #[test]
    fn remove_restores_previous_state_counts() {
        let trie = fig1_trie();
        let mut dag = PrefixDag::from_trie(&trie, 4);
        let baseline = dag.stats();
        let prefix = p("10.1.2.0/24");
        dag.insert(prefix, nh(7));
        assert_ne!(dag.stats(), baseline);
        assert_eq!(dag.remove(prefix), Some(nh(7)));
        dag.assert_invariants();
        assert_eq!(dag.stats(), baseline, "fold state must return to baseline");
        assert_equivalent(&trie, &dag, 1000);
    }

    #[test]
    fn an_update_that_changes_no_route_writes_nothing() {
        for lambda in [0u8, 2, 11] {
            let mut dag = PrefixDag::from_trie(&fig1_trie(), lambda);
            dag.insert(p("10.1.2.0/24"), nh(7));
            assert!(dag.changes.is_none(), "nobody drained it: nothing tracked");
            let (nodes, roots, stats) = (dag.nodes.to_vec(), dag.root_array.clone(), dag.stats());
            assert!(!dag.start_drain(), "the first drain takes the engine whole");
            dag.finish_drain();
            // A route in the top tree (at λ ≥ 2), one folded below the
            // barrier, and a withdraw of a prefix the table never held.
            assert_eq!(dag.insert(p("0.0.0.0/1"), nh(3)), Some(nh(3)));
            assert_eq!(dag.insert(p("10.1.2.0/24"), nh(7)), Some(nh(7)));
            assert_eq!(dag.remove(p("10.1.3.0/24")), None);
            dag.assert_invariants();
            assert!(
                *dag.nodes == nodes[..] && dag.root_array == roots,
                "λ = {lambda}"
            );
            assert_eq!(dag.stats(), stats, "λ = {lambda}");
            let changes = dag.changes.as_ref().expect("tracked since the drain");
            assert_eq!(
                changes.slots,
                [],
                "λ = {lambda}: a no-op update lists nothing"
            );
            // A real one lists what it wrote.
            dag.insert(p("10.1.2.0/24"), nh(8));
            assert!(dag.start_drain());
            assert_ne!(dag.changes.as_ref().map(|c| c.slots.len()), Some(0));
            dag.finish_drain();
            dag.assert_invariants();
        }
    }

    #[test]
    fn update_default_route_with_barrier_is_cheap_and_correct() {
        // The paper's motivating case: rewriting the default route must not
        // touch the folded region when λ > 0.
        let mut dag = PrefixDag::from_trie(&fig1_trie(), 11);
        let folded_before = dag.stats().folded_interior;
        dag.insert(p("0.0.0.0/0"), nh(5));
        assert_eq!(dag.stats().folded_interior, folded_before);
        assert_eq!(dag.lookup(0xF000_0000), Some(nh(5)));
        // Under λ=0 the same update refolds but stays correct.
        let mut dag0 = PrefixDag::from_trie(&fig1_trie(), 0);
        dag0.insert(p("0.0.0.0/0"), nh(5));
        dag0.assert_invariants();
        assert_eq!(dag0.lookup(0xF000_0000), Some(nh(5)));
    }

    #[test]
    fn churn_keeps_equivalence_with_control() {
        // Pseudo-random insert/remove storm, checked against the control
        // trie (which is itself differentially tested against RouteTable).
        let mut dag = PrefixDag::from_trie(&fig1_trie(), 8);
        let mut x: u64 = 0xC0FF_EE11_D00D_F00D;
        let mut live: Vec<Prefix4> = Vec::new();
        for round in 0u32..600 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if !x.is_multiple_of(3) || live.is_empty() {
                let prefix = Prefix4::new((x >> 32) as u32, (x % 33) as u8);
                dag.insert(prefix, nh((x % 9) as u32));
                live.push(prefix);
            } else {
                let victim = live.swap_remove((x as usize) % live.len());
                dag.remove(victim);
            }
            if round.is_multiple_of(97) {
                dag.assert_invariants();
            }
        }
        dag.assert_invariants();
        let control = dag.control().clone();
        assert_equivalent(&control, &dag, 5000);
    }

    /// One update on both sides, then the whole differential: invariants
    /// (every root-array entry against a walk from the root) and every
    /// probe against the oracle.
    fn step<A: Address>(
        dag: &mut PrefixDag<A>,
        oracle: &mut BinaryTrie<A>,
        probes: &[A],
        prefix: Prefix<A>,
        next_hop: Option<NextHop>,
    ) {
        match next_hop {
            Some(next_hop) => assert_eq!(
                dag.insert(prefix, next_hop),
                oracle.insert(prefix, next_hop)
            ),
            None => assert_eq!(dag.remove(prefix), oracle.remove(prefix)),
        }
        dag.assert_invariants();
        for &addr in probes {
            assert_eq!(
                dag.lookup(addr),
                oracle.lookup(addr),
                "λ = {}, after {prefix:?} → {next_hop:?}, at {addr:?}",
                dag.lambda()
            );
        }
    }

    fn root_array_differential<A: Address>(lambda: u8) {
        let w = u32::from(A::WIDTH);
        let at = |top: u128, low: u128| A::from_u128(top << (w - 16) | low & ((1 << (w - 16)) - 1));
        let mut x: u64 = 0x0D1F_F00D ^ u64::from(lambda) << 32 ^ u64::from(w);
        let mut draw = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        // Deep routes everywhere but under 0xC5/8, which the portal below
        // has to itself.
        let deep: Vec<Prefix<A>> = (0..48)
            .map(|_| {
                let top = u128::from(draw() % 0xC500);
                Prefix::new(
                    at(top, u128::from(draw())),
                    8 + (draw() % u64::from(w / 2 - 7)) as u8,
                )
            })
            .collect();
        let lone = Prefix::new(at(0xC5A3, 0x5000), 20);
        // One probe per root-array entry and its neighbour, plus the first
        // and last address of every prefix the stream touches.
        let mut probes: Vec<A> = (0..256)
            .flat_map(|top| [at(top << 8, 0), at(top << 8 | 0x80, u128::MAX)])
            .collect();
        for p in deep.iter().chain([&lone]) {
            let host = (u128::MAX >> (128 - w)) >> p.len();
            probes.extend([p.addr(), A::from_u128(p.addr().to_u128() | host)]);
        }

        let mut oracle = BinaryTrie::new();
        let mut dag = PrefixDag::from_trie(&oracle, lambda);
        let mut go = |prefix, next_hop| step(&mut dag, &mut oracle, &probes, prefix, next_hop);
        for (i, &p) in deep.iter().enumerate() {
            go(p, Some(nh(i as u32 % 7)));
        }
        // /0…/7: each announce and withdrawal re-derives 2^(k − len)
        // entries, nested inside one another and then torn down root first.
        for len in 0..8u8 {
            go(
                Prefix::new(at(0x5A00, 0), len),
                Some(nh(10 + u32::from(len))),
            );
            go(
                Prefix::new(at(0xC500, 0), len),
                Some(nh(20 + u32::from(len))),
            );
        }
        for len in 0..8u8 {
            go(Prefix::new(at(0x5A00, 0), len), None);
        }
        // A portal that dies (its top path pruned) and reappears.
        go(lone, Some(nh(3)));
        go(lone, None);
        go(lone, Some(nh(4)));
        for len in (0..8u8).rev() {
            go(Prefix::new(at(0xC500, 0), len), None);
        }
        // Emptied, then repopulated from nothing.
        go(lone, None);
        for &p in &deep {
            go(p, None);
        }
        go(Prefix::new(at(0, 0), 0), Some(nh(1)));
        go(deep[0], Some(nh(2)));
        go(lone, Some(nh(5)));
    }

    #[test]
    fn root_array_tracks_every_update_at_every_barrier() {
        for lambda in [0u8, 1, 3, 8, 11, 16, 32] {
            root_array_differential::<u32>(lambda);
            root_array_differential::<u128>(lambda);
        }
    }

    /// A deterministic announce/withdraw stream over a few thousand
    /// `/16`–`/27`s, so slots are freed and reused as it runs.
    fn churn(dag: &mut PrefixDag<u32>, x: &mut u64, rounds: usize) {
        for _ in 0..rounds {
            *x ^= *x << 13;
            *x ^= *x >> 7;
            *x ^= *x << 17;
            let addr = 0x0A00_0000 | (*x >> 32) as u32 & 0x403F_C000;
            let prefix = Prefix4::new(addr, 16 + (*x % 12) as u8);
            if x.is_multiple_of(3) {
                dag.remove(prefix);
            } else {
                dag.insert(prefix, nh((*x % 7) as u32));
            }
        }
    }

    /// A copy is what the working engine is, to every reader: the image
    /// it packs to, and answer for answer on the methods a snapshot
    /// serves.
    fn assert_copy_is_current(dag: &PrefixDag<u32>, copy: &PrefixDag<u32>) {
        assert!(copy.is_published_copy());
        assert_eq!(copy.write_packed(), dag.write_packed());
        assert_eq!(copy.model_size_bits(), dag.model_size_bits());
        assert_eq!(
            (copy.stats(), copy.len(), copy.size_bytes(), copy.lambda()),
            (dag.stats(), dag.len(), dag.size_bytes(), dag.lambda())
        );
        assert_eq!(copy.fragmentation(), dag.fragmentation());
        copy.assert_invariants();
        assert_equivalent(dag.control(), copy, 2000);
    }

    /// The buffer a copy's records are a view of.
    fn buffer(copy: &PrefixDag<u32>) -> std::ops::Range<usize> {
        copy.view().payload_ptr_range()
    }

    /// The four publishes a record log reports: a pack and a growth move
    /// readers to a new buffer and count every record; an append counts
    /// what it added to the buffer the view before it reads; a publish
    /// with nothing appended counts nothing.
    #[test]
    fn record_log_reports_every_publish_kind() {
        // Root 0 over leaves 1 and 2; record 3 is unreachable.
        let mut arena = Vec::new();
        for node in [
            (1, 2, NONE),
            (NONE, NONE, 7),
            (NONE, NONE, 8),
            (NONE, NONE, 9),
        ] {
            arena.extend(record(node.0, node.1, node.2));
        }
        let (mut log, remap) = RecordLog::packed(&arena, &[0], 3);
        assert_eq!(remap, [0, 1, 2, NONE]);
        let (packed, publish) = log.publish();
        let new_buffer = |records_written| ArenaPublish {
            records_written,
            shared: false,
        };
        assert_eq!(publish, new_buffer(3), "a pack");
        assert_eq!(&packed[..], &arena[..6]);

        log.push(record(0, 1, 5));
        log.push(record(1, 2, 6));
        let (appended, publish) = log.publish();
        let appending = |records_written| ArenaPublish {
            records_written,
            shared: true,
        };
        assert_eq!(publish, appending(2), "an append");
        assert_eq!(appended.as_ptr(), packed.as_ptr(), "one buffer");
        assert_eq!(appended[..packed.len()], packed[..]);

        let (again, publish) = log.publish();
        assert_eq!(publish, appending(0), "nothing appended");
        assert_eq!(again, appended);

        let room = log.room();
        assert_eq!(
            room,
            MIN_LOG_RECORDS - 5,
            "LOG_ROOM × 3 records is under the floor"
        );
        for idx in 0..room as u32 {
            log.push(record(idx, idx, idx));
        }
        assert_eq!(log.room(), 0);
        let (full, _) = log.publish();
        log.push(record(1, 1, 1));
        let (grown, publish) = log.publish();
        let records = 5 + room + 1;
        assert_eq!(publish, new_buffer(records), "a growth");
        assert_ne!(grown.as_ptr(), full.as_ptr(), "a new buffer");
        assert_eq!(grown[..full.len()], full[..], "the records moved with it");
        assert_eq!(log.room(), 2 * (records - 1) - records, "twice the size");
        assert_eq!(&appended[..], &full[..10], "an old view reads what it did");
    }

    #[test]
    fn publish_copy_appends_what_changed_to_one_log() {
        let mut x: u64 = 0x5EED_CAFE_F00D_0001;
        let mut dag = PrefixDag::from_trie(&fig1_trie(), 11);
        churn(&mut dag, &mut x, 300);
        assert_eq!(dag.last_publish(), None);

        // The first publish packs the live records into a new log.
        let first = dag.publish_copy();
        let live = dag.stats().live_nodes;
        assert_eq!(
            dag.last_publish(),
            Some(ArenaPublish {
                records_written: live,
                shared: false
            })
        );
        assert_copy_is_current(&dag, &first);
        assert_eq!(
            first.view().size_bytes(),
            16 * live,
            "packed: no dead record"
        );

        // Later ones append what changed to the same buffer, and every
        // copy goes on answering for the state it was published at.
        let mut kept = vec![(first, dag.control().clone())];
        for _ in 0..6 {
            churn(&mut dag, &mut x, 5);
            let copy = dag.publish_copy();
            let published = dag.last_publish().expect("published");
            assert!(published.shared, "{published:?}");
            let written = published.records_written;
            assert!(written > 0 && written < dag.stats().live_nodes, "{written}");
            let before = buffer(&kept.last().expect("a copy").0);
            let now = buffer(&copy);
            assert_eq!(now.start, before.start, "one buffer");
            assert_eq!(now.end - before.end, 16 * written, "appended past it");
            assert_copy_is_current(&dag, &copy);
            kept.push((copy, dag.control().clone()));
        }
        // With nothing changed in between there is nothing to append.
        let again = dag.publish_copy();
        assert_eq!(
            dag.last_publish(),
            Some(ArenaPublish {
                records_written: 0,
                shared: true
            })
        );
        assert_copy_is_current(&dag, &again);

        // Until the log is full: that publish packs a new one.
        let packed = loop {
            churn(&mut dag, &mut x, 40);
            let copy = dag.publish_copy();
            let published = dag.last_publish().expect("published");
            if !published.shared {
                assert_eq!(published.records_written, dag.stats().live_nodes);
                break copy;
            }
        };
        assert_copy_is_current(&dag, &packed);
        assert_ne!(buffer(&packed).start, buffer(&again).start);
        for (copy, then) in &kept {
            copy.assert_invariants();
            assert_equivalent(then, copy, 1000);
        }

        // A clone is an engine of its own: its first publish packs a log
        // of its own, and neither engine's publishes move the other's.
        let mut twin = dag.clone();
        let ours = dag.publish_copy();
        let theirs = twin.publish_copy();
        assert!(!twin.last_publish().expect("published").shared);
        assert!(dag.last_publish().expect("published").shared);
        assert_ne!(buffer(&ours).start, buffer(&theirs).start);
        twin.insert(p("10.0.0.0/8"), nh(1));
        assert_copy_is_current(&twin, &twin.clone().publish_copy());
        assert_copy_is_current(&dag, &ours);
        dag.assert_invariants();
    }

    #[test]
    fn a_published_copy_declines_updates_and_has_no_control_fib() {
        let mut dag = PrefixDag::from_trie(&fig1_trie(), 4);
        let copy = dag.publish_copy();
        assert!(copy.is_published_copy() && !dag.is_published_copy());
        assert_equivalent(dag.control(), &copy, 500);
        let refuses = |f: fn(PrefixDag<u32>)| {
            let copy = copy.clone();
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(copy))).is_err()
        };
        assert!(refuses(|mut c| {
            c.insert(p("10.0.0.0/8"), nh(1));
        }));
        assert!(refuses(|mut c| {
            c.remove(p("0.0.0.0/1"));
        }));
        assert!(refuses(|c| {
            let _ = c.control();
        }));
        // A copy of a copy reads the same records, and publishes nothing.
        let mut again = copy.clone();
        let copied = again.publish_copy();
        assert_eq!(buffer(&copied), buffer(&copy));
        assert_eq!(again.last_publish(), None);
        // A clone of a working engine is a working engine of its own; what
        // one publishes does not move the other.
        let mut twin = dag.clone();
        twin.insert(p("10.0.0.0/8"), nh(1));
        twin.assert_invariants();
        assert_eq!(dag.lookup(0x0A00_0001), Some(nh(3)));
        let theirs = twin.publish_copy();
        assert_eq!(theirs.lookup(0x0A00_0001), Some(nh(1)));
        let ours = dag.publish_copy();
        assert_eq!(ours.lookup(0x0A00_0001), Some(nh(3)));
        assert_eq!(copy.lookup(0x0A00_0001), Some(nh(3)));
    }

    #[test]
    fn removing_last_route_under_a_portal_prunes_the_path() {
        let mut dag = PrefixDag::from_trie(&BinaryTrie::new(), 8);
        let prefix = p("10.1.0.0/16");
        dag.insert(prefix, nh(1));
        assert!(dag.stats().live_nodes > 1);
        dag.remove(prefix);
        dag.assert_invariants();
        let stats = dag.stats();
        assert_eq!(stats.top_nodes, 1, "only the root remains: {stats:?}");
        assert_eq!(stats.folded_interior + stats.folded_leaves, 0);
    }

    #[test]
    fn model_size_shrinks_with_smaller_lambda() {
        // More folding (smaller λ) must never increase the folded model
        // size on a FIB with shared structure.
        let mut trie: BinaryTrie<u32> = BinaryTrie::new();
        for i in 0..512u32 {
            trie.insert(Prefix4::new(i << 23, 9), nh(i % 2));
            trie.insert(Prefix4::new(i << 23 | (1 << 22), 10), nh(1 - i % 2));
        }
        let big = PrefixDag::from_trie(&trie, 16).model_size_bits();
        let small = PrefixDag::from_trie(&trie, 4).model_size_bits();
        assert!(small < big, "λ=4: {small} bits, λ=16: {big} bits");
    }

    #[test]
    fn ipv6_folding_works() {
        let mut trie: BinaryTrie<u128> = BinaryTrie::new();
        let p1: fib_trie::Prefix6 = "2001:db8::/32".parse().unwrap();
        let p2: fib_trie::Prefix6 = "2001:db8:8000::/33".parse().unwrap();
        trie.insert(p1, nh(1));
        trie.insert(p2, nh(2));
        let mut dag = PrefixDag::from_trie(&trie, 16);
        dag.assert_invariants();
        let a: u128 = "2001:db8:8000::1"
            .parse::<std::net::Ipv6Addr>()
            .unwrap()
            .into();
        assert_eq!(dag.lookup(a), Some(nh(2)));
        let p3: fib_trie::Prefix6 = "2001:db8:8000::/48".parse().unwrap();
        dag.insert(p3, nh(3));
        let b: u128 = "2001:db8:8000::2"
            .parse::<std::net::Ipv6Addr>()
            .unwrap()
            .into();
        assert_eq!(dag.lookup(b), Some(nh(3)));
    }
}
