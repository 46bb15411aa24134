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
//! A [`PrefixDag`] is a *data-plane half* — the node arena, the root
//! array, the root, λ and the counters `len` / `stats` / `size_bytes`
//! read, which is all a lookup, an image encode or a size report touches —
//! and a *control half*: the control FIB (the uncompressed image the paper
//! keeps in control-plane DRAM, §4.3), the interning map, the free list,
//! the reference counts and the change stamps. A working engine has both.
//! What a router publishes ([`PrefixDag::publish_copy`]) is the data-plane
//! half alone: it answers every read-only method exactly as the working
//! engine did at that publish, and it cannot be updated.
//!
//! The arena is the record every packed form of the structure uses — two
//! words a node, `left | right << 32` and the label, the layout of a
//! kind-2 image and of a fleet's shared arena — read through one decoder
//! (`packed_node`). A published copy therefore holds the image's records
//! and nothing else, in arena order with the free-list holes still in
//! place; writing an image drops the holes and renumbers in BFS order
//! ([`PrefixDag::write_packed`]).
//!
//! Every write that changes a node's record goes through one setter that
//! stamps the node with the number of the publish it will first show in
//! — one `u32` a node, however many updates pass with nobody publishing.
//! A reference count lives beside the stamps, not in the record: the data
//! plane never reads it, so changing one is not a node write. Handed back
//! a copy it published earlier, `publish_copy` rewrites just the records
//! stamped since that copy's publish (each once, however often it
//! changed), appends the arena's growth and refreshes the root array, so
//! a publish costs what changed, and most of the buffer's cache lines are
//! left as the forwarding thread last saw them.
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
use std::sync::atomic::{AtomicU64, Ordering};

use fib_succinct::ceil_log2;
use fib_trie::{Address, BinaryTrie, Depth, NextHop, NodeRef, Prefix};

use crate::idhash::IdBuildHasher;

pub(crate) const NONE: u32 = u32::MAX;

const NO_CONTROL: &str = "a published pDAG copy has no control FIB: update the working engine";

/// Most levels the root array collapses: `k = min(λ, ROOT_BITS)` on a
/// [`PrefixDag`], exactly `ROOT_BITS` on a [`RootArray`].
pub(crate) const ROOT_BITS: u8 = 8;

/// Source of build ids: one per arena lineage.
static NEXT_BUILD: AtomicU64 = AtomicU64::new(1);

/// A build id no other [`PrefixDag`] or VRF fleet arena in the process
/// carries.
pub(crate) fn next_build() -> u64 {
    // ordering: Relaxed — the counter only has to hand out distinct
    // values; it publishes no other data.
    NEXT_BUILD.fetch_add(1, Ordering::Relaxed)
}

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

/// The compacting BFS every packed image is written by: the records of
/// the nodes [`bfs_order`] reaches from `roots`, renumbered in that
/// order, and each root remapped. A pDAG packs its one root
/// ([`PrefixDag::write_packed`]); a compiled VRF fleet packs every
/// table's root into one shared arena.
pub(crate) fn pack_bfs(words: &[u64], roots: &[u32]) -> (Vec<u64>, Vec<u32>) {
    let order = bfs_order(words, roots);
    let mut remap = vec![NONE; words.len() / 2];
    for (new, &old) in (0..).zip(&order) {
        remap[old as usize] = new;
    }
    let packed = |idx: u32| {
        if idx == NONE {
            NONE
        } else {
            remap[idx as usize]
        }
    };
    let mut out = Vec::with_capacity(order.len() * 2);
    for &idx in &order {
        let (left, right, label) = packed_node(words, idx);
        out.extend(record(packed(left), packed(right), label));
    }
    (out, roots.iter().map(|&root| packed(root)).collect())
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

/// A FIB compressed by trie-folding.
///
/// A working engine owns a *control FIB* (a plain [`BinaryTrie`], the
/// uncompressed image the paper keeps in control-plane DRAM) that drives
/// updates, plus the folded arena the data plane reads; a published copy
/// ([`Self::publish_copy`]) is the arena side alone — see the module docs'
/// "Two halves".
pub struct PrefixDag<A: Address> {
    // Data-plane half: all a published copy carries.
    /// Two words a node: `left | right << 32`, then the label.
    pub(crate) nodes: Vec<u64>,
    pub(crate) root: u32,
    /// One entry per `min(λ, ROOT_BITS)`-bit address prefix.
    root_array: Vec<RootEntry>,
    lambda: u8,
    counts: Counts,
    /// The arena lineage: fresh for every [`Self::from_trie`] and every
    /// clone, shared by a working engine and the copies it publishes.
    build: u64,
    /// In a published copy, the number of the publish it shows; in a
    /// working engine, the number its next one will have (from 1).
    publish: u32,
    // Control half: `None` / empty in a published copy.
    control: Option<BinaryTrie<A>>,
    interner: HashMap<Key, u32, IdBuildHasher>,
    free: Vec<u32>,
    /// Per node, its reference count; fixed at 1 for top (unshared) nodes.
    refcounts: Vec<u32>,
    /// Per node, the publish its last change first shows in.
    stamps: Vec<u32>,
    /// What the last [`Self::publish_copy`] wrote into a reused buffer.
    last_copy_writes: Option<usize>,
    _marker: PhantomData<A>,
}

impl<A: Address> Clone for PrefixDag<A> {
    /// An independent engine: it diverges from `self` from here on, so it
    /// starts a lineage of its own and no copy `self` published is ever
    /// synced against it.
    fn clone(&self) -> Self {
        Self {
            build: next_build(),
            control: self.control.clone(),
            interner: self.interner.clone(),
            free: self.free.clone(),
            refcounts: self.refcounts.clone(),
            stamps: self.stamps.clone(),
            ..self.data_plane()
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
            nodes: Vec::new(),
            root: NONE,
            root_array: Vec::new(),
            lambda,
            counts: Counts {
                routes: control.len(),
                ..Counts::default()
            },
            build: next_build(),
            // Construction stamps every node 1, and so does whatever
            // changes before the first publish; no copy is older than that.
            publish: 1,
            control: None,
            interner: HashMap::default(),
            free: Vec::new(),
            refcounts: Vec::new(),
            stamps: Vec::new(),
            last_copy_writes: None,
            _marker: PhantomData,
        };
        dag.root = dag.build_top(control.root(), 0);
        dag.root_array = vec![RootEntry::at(NONE); 1 << lambda.min(ROOT_BITS)];
        fill_entries(&mut dag.root_array, &dag.nodes, dag.root, 0, 0, NONE);
        dag.control = Some(control);
        dag
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
            self.nodes[at..at + 2].copy_from_slice(&words);
            self.refcounts[idx as usize] = 1;
            self.stamps[idx as usize] = self.publish;
            idx
        } else {
            self.nodes.extend(words);
            self.refcounts.push(1);
            self.stamps.push(self.publish);
            self.stamps.len() as u32 - 1
        }
    }

    /// Returns a dead node's slot to the free list. The slot keeps its
    /// bits until [`Self::alloc`] reuses it, so this is not a node write.
    fn free_slot(&mut self, idx: u32) {
        self.free.push(idx);
        self.counts.free_slots += 1;
    }

    /// The one place a live node's record is rewritten: a node the data
    /// plane can read differently afterwards is stamped for the next
    /// [`Self::publish_copy`].
    fn write(&mut self, idx: u32, (left, right, label): (u32, u32, u32)) {
        let words = record(left, right, label);
        let at = 2 * idx as usize;
        if self.nodes[at..at + 2] != words {
            self.nodes[at..at + 2].copy_from_slice(&words);
            self.stamps[idx as usize] = self.publish;
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

    /// The packed walk over this arena, from this root array.
    #[inline]
    fn view(&self) -> PrefixDagRef<'_, A> {
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
    /// array and the change stamps stay as they are.
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
            idx = self.ensure_top_child(idx, prefix.bit(depth));
            path.push(idx);
        }
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

    /// A fresh copy of the data-plane half, with no control half.
    fn data_plane(&self) -> Self {
        Self {
            nodes: self.nodes.clone(),
            root: self.root,
            root_array: self.root_array.clone(),
            lambda: self.lambda,
            counts: self.counts,
            build: self.build,
            publish: self.publish,
            control: None,
            interner: HashMap::default(),
            free: Vec::new(),
            refcounts: Vec::new(),
            stamps: Vec::new(),
            last_copy_writes: None,
            _marker: PhantomData,
        }
    }

    /// The engine a router publishes: the data-plane half of `self` as it
    /// stands, which answers every read-only method as `self` does now and
    /// declines every update.
    ///
    /// `recycled` is a copy this engine published earlier and nobody reads
    /// any more. If it is one — of this build, of an earlier publish, no
    /// longer than the arena — it is brought up to date in place, however
    /// old: the nodes stamped since its publish, the arena's growth, the
    /// root array; [`Self::last_copy_writes`] then reports the node records
    /// written. Anything else (a copy of another build, a working engine)
    /// is dropped and a fresh copy allocated. (Called on a published copy,
    /// this is a plain copy of it.)
    #[must_use]
    pub fn publish_copy(&mut self, recycled: Option<Self>) -> Self {
        if self.is_published_copy() {
            return self.data_plane();
        }
        let reusable = recycled.filter(|buffer| {
            buffer.is_published_copy()
                && buffer.build == self.build
                && buffer.publish < self.publish
                && buffer.nodes.len() <= self.nodes.len()
        });
        let copy = match reusable {
            Some(mut buffer) => {
                let had = buffer.nodes.len();
                let mut writes = (self.nodes.len() - had) / 2;
                let current = self.nodes.chunks_exact(2).zip(&self.stamps);
                for (node, (now, &stamp)) in buffer.nodes.chunks_exact_mut(2).zip(current) {
                    if stamp > buffer.publish {
                        node.copy_from_slice(now);
                        writes += 1;
                    }
                }
                buffer.nodes.extend_from_slice(&self.nodes[had..]);
                buffer.root_array.copy_from_slice(&self.root_array);
                buffer.root = self.root;
                buffer.counts = self.counts;
                buffer.publish = self.publish;
                self.last_copy_writes = Some(writes);
                buffer
            }
            None => {
                self.last_copy_writes = None;
                self.data_plane()
            }
        };
        debug_assert!(
            copy.same_data_plane(self),
            "published copy differs from the working arena"
        );
        self.advance_publish();
        copy
    }

    /// Moves on to the next publish number: records written from here on
    /// are stamped above every stamp so far.
    fn advance_publish(&mut self) {
        self.publish = match self.publish.checked_add(1) {
            Some(next) => next,
            None => {
                // Out of publish numbers: start a lineage, so no copy of
                // this one is compared against stamps that restart.
                self.build = next_build();
                self.stamps.fill(0);
                1
            }
        };
    }

    /// Change tracking for a mirror of this engine's records — a VRF
    /// fleet's shared arena, which re-interns only what changed. Closes
    /// the current window, as a publish does, and returns it: a record
    /// written after this call is [`Self::changed_since`] it.
    pub(crate) fn close_window(&mut self) -> (u64, u32) {
        let window = (self.build, self.publish);
        self.advance_publish();
        window
    }

    /// Whether record `idx` was written after [`Self::close_window`]
    /// returned `window` (always, for a window of another lineage).
    pub(crate) fn changed_since(&self, window: (u64, u32), idx: u32) -> bool {
        window.0 != self.build || self.stamps[idx as usize] > window.1
    }

    /// Node records the last [`Self::publish_copy`] wrote into the buffer
    /// it was handed; `None` when it allocated a fresh copy instead.
    #[must_use]
    pub fn last_copy_writes(&self) -> Option<usize> {
        self.last_copy_writes
    }

    /// Bytes of change-tracking state: the per-node stamps, a `u32` each,
    /// however many updates went by unpublished.
    #[must_use]
    pub fn tracking_bytes(&self) -> usize {
        self.stamps.capacity() * std::mem::size_of::<u32>()
    }

    /// Whether a lookup, an image encode or a size report can tell `self`
    /// from `other`: every node record, every root entry, the root, λ and
    /// the counters.
    fn same_data_plane(&self, other: &Self) -> bool {
        self.nodes == other.nodes
            && self.root_array == other.root_array
            && (self.root, self.lambda, self.counts) == (other.root, other.lambda, other.counts)
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

    /// Actual arena footprint in bytes (live slots only; 16 bytes each).
    #[must_use]
    pub fn size_bytes(&self) -> usize {
        (self.nodes.len() / 2 - self.counts.free_slots) * 16
    }

    /// Fraction of arena slots sitting on the free list, in `[0, 1]`.
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
        if self.nodes.is_empty() {
            0.0
        } else {
            self.counts.free_slots as f64 / (self.nodes.len() / 2) as f64
        }
    }

    /// Verifies internal consistency: every root-array entry is what a
    /// bit-by-bit walk from the root finds, reference counts match
    /// in-degrees, the interner indexes exactly the folded region, every
    /// folded interior has two children, and the counters agree with the
    /// control FIB, the interner and the free list. A published copy has
    /// only the root array to check (its reference counts are whatever
    /// they were when each node was last written). Test/diagnostic use.
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
        let slots = self.nodes.len() / 2;
        assert_eq!(self.stamps.len(), slots, "one stamp a node");
        assert_eq!(self.refcounts.len(), slots, "one reference count a node");
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
    /// that already passed a full validation (a loaded image is
    /// immutable, so one scan covers its lifetime). The walk is
    /// depth-bounded by `A::WIDTH` either way.
    pub fn from_parts_trusted(words: &'a [u64], root: u32) -> Result<Self, &'static str> {
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

    /// Image footprint in bytes (16 per node).
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
            let (nodes, roots, stats) = (dag.nodes.clone(), dag.root_array.clone(), dag.stats());
            let window = dag.close_window();
            // A route in the top tree (at λ ≥ 2), one folded below the
            // barrier, and a withdraw of a prefix the table never held.
            assert_eq!(dag.insert(p("0.0.0.0/1"), nh(3)), Some(nh(3)));
            assert_eq!(dag.insert(p("10.1.2.0/24"), nh(7)), Some(nh(7)));
            assert_eq!(dag.remove(p("10.1.3.0/24")), None);
            dag.assert_invariants();
            assert!(
                dag.nodes == nodes && dag.root_array == roots,
                "λ = {lambda}"
            );
            assert_eq!(dag.stats(), stats, "λ = {lambda}");
            let stamped = (0..dag.stamps.len() as u32).filter(|&i| dag.changed_since(window, i));
            assert_eq!(stamped.count(), 0, "λ = {lambda}");
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

    /// A copy is what the working engine is, to every reader: node for
    /// node against a fresh copy, and answer for answer on the methods a
    /// snapshot serves.
    fn assert_copy_is_current(dag: &PrefixDag<u32>, copy: &PrefixDag<u32>) {
        assert!(copy.is_published_copy());
        assert!(copy.same_data_plane(&dag.data_plane()));
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

    #[test]
    fn publish_copy_syncs_a_recycled_copy_and_refuses_anything_else() {
        let mut x: u64 = 0x5EED_CAFE_F00D_0001;
        let mut dag = PrefixDag::from_trie(&fig1_trie(), 11);
        churn(&mut dag, &mut x, 300);

        // The recycling a router does: the copy of three publishes ago
        // comes back, across arena growth and free-list reuse.
        let mut kept = std::collections::VecDeque::new();
        let mut reused = 0;
        for _ in 0..12 {
            churn(&mut dag, &mut x, 40);
            let recycled = if kept.len() == 3 {
                kept.pop_front()
            } else {
                None
            };
            let offered = recycled.is_some();
            let copy = dag.publish_copy(recycled);
            assert_eq!(dag.last_copy_writes().is_some(), offered);
            if let Some(writes) = dag.last_copy_writes() {
                assert!(
                    writes > 0 && writes < dag.nodes.len() / 2,
                    "{writes} writes"
                );
                reused += 1;
            }
            assert_copy_is_current(&dag, &copy);
            kept.push_back(copy);
        }
        assert_eq!(reused, 9);
        // With nothing changed in between there is nothing to write.
        let current = kept.pop_back().unwrap();
        let again = dag.publish_copy(Some(current));
        assert_eq!(dag.last_copy_writes(), Some(0));
        assert_copy_is_current(&dag, &again);

        // A copy far older than any router keeps: synced all the same,
        // each node that changed since written once.
        let old = dag.publish_copy(None);
        for _ in 0..40 {
            churn(&mut dag, &mut x, 50);
            drop(dag.publish_copy(None));
        }
        let copy = dag.publish_copy(Some(old));
        let writes = dag.last_copy_writes().expect("synced");
        assert!(
            writes > 0 && writes <= dag.nodes.len() / 2,
            "{writes} writes"
        );
        assert_copy_is_current(&dag, &copy);

        // A copy of another build: same table, same λ, another arena.
        let mut other = PrefixDag::from_trie(dag.control(), 11);
        let foreign = other.publish_copy(None);
        // A copy of this build with more nodes than the arena has (no
        // sequence of calls makes one; the hook must not index past the
        // arena all the same).
        let mut longer = dag.publish_copy(None);
        longer.nodes.extend_from_within(..16);
        // A copy that claims a publish this engine has not made yet.
        let mut early = dag.publish_copy(None);
        early.publish = dag.publish;
        // A full working engine, as a router's epoch 0 holds.
        let working = dag.clone();
        for refused in [early, foreign, longer, working] {
            let copy = dag.publish_copy(Some(refused));
            assert_eq!(dag.last_copy_writes(), None, "refused, copied afresh");
            assert_copy_is_current(&dag, &copy);
            churn(&mut dag, &mut x, 10);
        }

        // Out of publish numbers, the engine starts a lineage: the last
        // copy of the old one is not synced against stamps that restart.
        dag.publish = u32::MAX;
        let last = dag.publish_copy(None);
        assert_eq!((last.publish, dag.publish), (u32::MAX, 1));
        churn(&mut dag, &mut x, 10);
        let copy = dag.publish_copy(Some(last));
        assert_eq!(dag.last_copy_writes(), None);
        assert_copy_is_current(&dag, &copy);
        churn(&mut dag, &mut x, 10);
        let copy = dag.publish_copy(Some(copy));
        assert!(dag.last_copy_writes().is_some());
        assert_copy_is_current(&dag, &copy);
        dag.assert_invariants();
    }

    #[test]
    fn a_published_copy_declines_updates_and_has_no_control_fib() {
        let mut dag = PrefixDag::from_trie(&fig1_trie(), 4);
        let copy = dag.publish_copy(None);
        assert!(copy.is_published_copy() && !dag.is_published_copy());
        assert_equivalent(dag.control(), &copy, 500);
        let refuses = |f: fn(PrefixDag<u32>)| {
            let copy = copy.data_plane();
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
        // A clone of a working engine is a working engine of its own
        // lineage; the copies of one are no use to the other.
        let mut twin = dag.clone();
        twin.insert(p("10.0.0.0/8"), nh(1));
        twin.assert_invariants();
        assert_eq!(dag.lookup(0x0A00_0001), Some(nh(3)));
        let theirs = twin.publish_copy(None);
        assert_eq!(theirs.lookup(0x0A00_0001), Some(nh(1)));
        let ours = dag.publish_copy(Some(theirs));
        assert_eq!(dag.last_copy_writes(), None);
        assert_eq!(ours.lookup(0x0A00_0001), Some(nh(3)));
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
