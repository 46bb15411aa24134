//! XBW-b: the Burrows–Wheeler transform for binary leaf-labeled tries
//! (Section 3 of the paper).
//!
//! The leaf-pushed normal form is serialized in level (BFS) order into
//!
//! * `S_I` — one bit per node: 0 = interior, 1 = leaf,
//! * `S_α` — the leaf labels, in the same order,
//!
//! and both strings are handed to compressed string self-indexes, after
//! which longest-prefix match runs *directly on the compressed form* using
//! only the `access`/`rank` primitives (the `lookup` pseudo-code of
//! §3.1). Level order is what gives the transform its name: it clusters
//! nodes of equal context (= depth) exactly as BWT clusters characters of
//! equal context in a string.
//!
//! Two storage modes realize the two lemmas:
//!
//! * [`XbwStorage::Succinct`] — `S_I` in a plain rank bitvector, `S_α`
//!   packed at `⌈lg δ⌉` bits/label: `2n + n·lg δ + o(n)` bits, Lemma 2;
//! * [`XbwStorage::Entropy`] — `S_I` in RRR, `S_α` in a Huffman-shaped
//!   wavelet tree over RRR nodes: `2n + n·H0 + o(n)` bits, Lemma 3.
//!
//! They are the only two. The other (`S_I`, `S_α`) pairings — RRR `S_I`
//! under packed labels, a balanced or plain-node wavelet tree — and a
//! per-level backend (one wavelet tree per trie depth, §3.2's
//! higher-order-entropy sketch) were measured in the XBW-b backend
//! ablation and retired. None is a mode the paper bounds; each lost to
//! one of the two on both size and lookup time or fell between them.
//! Per-level never had an image encoding, and on the taz stand-in the
//! depth-conditioned entropy that A2 still prints
//! ([`FibEntropy::contextual_entropy_bits`](crate::FibEntropy::contextual_entropy_bits))
//! matches `E` (6.3 KB both at taz 0.1), so it had nothing to win.
//!
//! Updates rebuild the transform: XBW-b is the static, size-optimal end
//! of the paper's trade-off, and its dynamic variant via Mäkinen–Navarro
//! indexes is cited but not evaluated in the paper either.

use fib_succinct::{
    BitVec, IntVec, IntVecRef, RrrVec, RrrVecRef, RsBitVec, RsBitVecRef, StorageError, WaveletTree,
    WaveletTreeRef,
};
use fib_trie::{Address, BinaryTrie, NextHop, ProperNode, ProperTrie};
use std::marker::PhantomData;

/// Number of lookups [`XbwFib::lookup_batch`] interleaves.
///
/// Lane-width sweep on a DFZ-scale shape string (out-of-cache, uniform
/// keys, median ns/lookup of the interleaved walk): 4 lanes leave load
/// latency on the table (~0.88× scalar), 8 lanes saturate the walk's
/// useful memory-level parallelism (~0.74×), and 16 lanes give back the
/// gain to register spills in the lane state (~0.80×). 8 is the plateau,
/// so it stays.
///
/// The original per-chunk *lockstep* kernel lost on cache-resident
/// strings (~1.3× scalar on taz 0.1, hidden behind a residency gate
/// that dispatched those tables to the scalar walk): a lane matching
/// shallow idled until the whole chunk retired, so little of the serial
/// rank/access dependency chain actually overlapped. The rolling-refill
/// kernel keeps all 8 lanes busy across the stream and wins everywhere
/// — 0.71× scalar uniform / 0.69× zipf on the cache-resident taz 0.1
/// string (`engine.batch_ns` against `engine.scalar_ns` on
/// `serve-compact` is the live figure), so the batch-side gate is gone and only the RRR backing stays scalar
/// (its walk is decode-bound, not latency-bound).
pub const XBW_BATCH_LANES: usize = 8;

/// How the two XBW-b strings are stored: the two modes the paper proves
/// a size bound for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum XbwStorage {
    /// Plain rank directory + packed labels (`2n + n·lg δ`, Lemma 2).
    Succinct,
    /// RRR + Huffman wavelet tree (`2n + n·H0 + o(n)`, Lemma 3).
    Entropy,
}

#[derive(Clone, Debug)]
enum SiStore {
    Plain(RsBitVec),
    Rrr(RrrVec),
}

impl SiStore {
    /// The borrowed view, hoisted out of walk loops so the per-query cost
    /// is one construction instead of one per level.
    #[inline]
    fn as_view(&self) -> SiRef<'_> {
        match self {
            Self::Plain(v) => SiRef::Plain(v.view()),
            Self::Rrr(v) => SiRef::Rrr(v.view()),
        }
    }

    fn size_bits(&self) -> usize {
        match self {
            Self::Plain(v) => v.size_bits(),
            Self::Rrr(v) => v.size_bits(),
        }
    }
}

#[derive(Clone, Debug)]
enum SaStore {
    Packed(IntVec),
    Wavelet(WaveletTree),
}

impl SaStore {
    #[inline]
    fn access(&self, i: usize) -> u64 {
        match self {
            Self::Packed(v) => v.get(i),
            Self::Wavelet(w) => w.access(i),
        }
    }

    fn size_bits(&self) -> usize {
        match self {
            Self::Packed(v) => v.size_bits(),
            Self::Wavelet(w) => w.size_bits(),
        }
    }
}

/// Size breakdown of an [`XbwFib`], in bits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct XbwSizeReport {
    /// The shape string `S_I` including its rank directory.
    pub si_bits: usize,
    /// The label string `S_α` including its index.
    pub sa_bits: usize,
    /// The symbol → next-hop table.
    pub label_map_bits: usize,
}

impl XbwSizeReport {
    /// Total bits.
    #[must_use]
    pub fn total_bits(&self) -> usize {
        self.si_bits + self.sa_bits + self.label_map_bits
    }

    /// Total bytes, rounded up.
    #[must_use]
    pub fn total_bytes(&self) -> usize {
        self.total_bits().div_ceil(8)
    }
}

/// An entropy-compressed, statically queryable FIB — the XBW-b transform.
#[derive(Clone, Debug)]
pub struct XbwFib<A: Address> {
    si: SiStore,
    sa: SaStore,
    /// Symbol → next-hop (⊥ included when present in the normal form).
    label_map: Vec<Option<NextHop>>,
    n_leaves: usize,
    t_nodes: usize,
    _marker: PhantomData<A>,
}

impl<A: Address> XbwFib<A> {
    /// Builds the transform from a route trie (normalizing it first).
    #[must_use]
    pub fn build(trie: &BinaryTrie<A>, storage: XbwStorage) -> Self {
        Self::from_proper(&ProperTrie::from_trie(trie), storage)
    }

    /// Builds the transform from an already-normalized trie. This is the
    /// O(t) construction of Lemma 1: one BFS pass fills both strings.
    #[must_use]
    pub fn from_proper(proper: &ProperTrie<A>, storage: XbwStorage) -> Self {
        // Stable symbol numbering: sorted distinct labels.
        let hist = proper.leaf_label_histogram();
        let label_map: Vec<Option<NextHop>> = hist.keys().copied().collect();
        let symbol_of = |label: Option<NextHop>| -> u64 {
            label_map
                .binary_search(&label)
                .expect("label seen in histogram") as u64
        };

        let mut si_bits = BitVec::with_capacity(proper.node_count());
        let mut symbols = Vec::with_capacity(proper.n_leaves());
        for (_, node) in proper.bfs_with_depth() {
            match node {
                ProperNode::Internal { .. } => si_bits.push(false),
                ProperNode::Leaf(label) => {
                    si_bits.push(true);
                    symbols.push(symbol_of(*label));
                }
            }
        }

        let sigma = label_map.len().max(1);
        let (si, sa) = match storage {
            XbwStorage::Succinct => {
                let mut iv = IntVec::new(fib_succinct::ceil_log2(sigma as u64));
                for &s in &symbols {
                    iv.push(s);
                }
                (SiStore::Plain(RsBitVec::new(si_bits)), SaStore::Packed(iv))
            }
            XbwStorage::Entropy => (
                SiStore::Rrr(RrrVec::new(&si_bits)),
                SaStore::Wavelet(WaveletTree::new(&symbols, sigma)),
            ),
        };
        Self {
            si,
            sa,
            label_map,
            n_leaves: proper.n_leaves(),
            t_nodes: proper.node_count(),
            _marker: PhantomData,
        }
    }

    /// Longest-prefix match on the compressed form (§3.1's `lookup`): walk
    /// the level-order encoding with one *fused* `access_rank1` probe per
    /// level, O(W) in total.
    ///
    /// The paper's pseudo-code issues an `access` then a `rank0`/`rank1`
    /// at each level; those hit the same `S_I` word and directory entry,
    /// so the fused primitive answers both from one probe:
    /// `rank0(i + 1) = i + 1 − rank1(i)` whenever bit `i` is 0.
    #[must_use]
    pub fn lookup(&self, addr: A) -> Option<NextHop> {
        walk(self, addr, |_| {}).0
    }

    /// Batched longest-prefix match: [`XBW_BATCH_LANES`] independent
    /// walks advance interleaved with rolling lane refill, so the
    /// directory and `S_α` accesses of different packets overlap instead
    /// of serializing. Out of cache that hides miss latency; in cache it
    /// still hides the serial rank/access dependency chain, so the
    /// interleave wins at every table size (see [`XBW_BATCH_LANES`]).
    /// Only the RRR-backed walk stays scalar: it is bound by the serial
    /// combinatorial decode (ALU, not loads), which interleaving cannot
    /// overlap.
    ///
    /// # Panics
    /// Panics if `out` is shorter than `addrs`.
    pub fn lookup_batch(&self, addrs: &[A], out: &mut [Option<NextHop>]) {
        lookup_batch(self, addrs, out);
    }

    /// Lookup reporting every memory touch as `(byte offset, byte size)`
    /// for cache simulation, under a flat `[S_I | S_α | label map]` layout.
    ///
    /// The access model: each level of the walk reads the 8-byte `S_I`
    /// word holding bit `i` (the `access` and the `rank` of §3.1 hit the
    /// same word plus a directory entry that lives alongside it), and the
    /// final label decode walks ≈`lg δ` wavelet-tree levels inside the
    /// `S_α` region — one 8-byte touch per level, spread across the
    /// per-level sub-arrays. Offsets are deterministic for a given query,
    /// which is all the cache and SRAM replay harnesses need.
    pub fn lookup_traced(&self, addr: A, sink: &mut dyn FnMut(u64, u32)) -> Option<NextHop> {
        lookup_traced(self, addr, sink)
    }

    /// Number of leaves `n` of the underlying normal form.
    #[must_use]
    pub fn n_leaves(&self) -> usize {
        self.n_leaves
    }

    /// Number of nodes `t` of the underlying normal form.
    #[must_use]
    pub fn t_nodes(&self) -> usize {
        self.t_nodes
    }

    /// Alphabet size δ (⊥ included when present).
    #[must_use]
    pub fn delta(&self) -> usize {
        self.label_map.len()
    }

    /// Size breakdown.
    #[must_use]
    pub fn size_report(&self) -> XbwSizeReport {
        XbwSizeReport {
            si_bits: self.si.size_bits(),
            sa_bits: self.sa.size_bits(),
            label_map_bits: self.label_map.len() * 33,
        }
    }

    /// Total footprint in bytes.
    #[must_use]
    pub fn size_bytes(&self) -> usize {
        self.size_report().total_bytes()
    }

    // ------------------------------------------------------------------
    // FIB-image serialization (consumed by `crate::image`)
    // ------------------------------------------------------------------

    /// Storage kind codes for the image header: `(S_I kind, S_α kind)`
    /// with 0 = plain/packed and 1 = RRR/wavelet — `(0, 0)` for
    /// [`XbwStorage::Succinct`], `(1, 1)` for [`XbwStorage::Entropy`].
    #[must_use]
    pub(crate) fn image_kind_codes(&self) -> (u64, u64) {
        let si = match self.si {
            SiStore::Plain(_) => 0,
            SiStore::Rrr(_) => 1,
        };
        let sa = match self.sa {
            SaStore::Packed(_) => 0,
            SaStore::Wavelet(_) => 1,
        };
        (si, sa)
    }

    /// `(n_leaves, t_nodes)` for the image header.
    #[must_use]
    pub(crate) fn image_counts(&self) -> (u64, u64) {
        (self.n_leaves as u64, self.t_nodes as u64)
    }

    /// Serializes the shape string `S_I`.
    pub(crate) fn write_si_words(&self, out: &mut Vec<u64>) {
        match &self.si {
            SiStore::Plain(v) => v.write_words(out),
            SiStore::Rrr(v) => v.write_words(out),
        }
    }

    /// Serializes the label string `S_α`.
    pub(crate) fn write_sa_words(&self, out: &mut Vec<u64>) {
        match &self.sa {
            SaStore::Packed(v) => v.write_words(out),
            SaStore::Wavelet(w) => w.write_words(out),
        }
    }

    /// The symbol → next-hop table as one word per symbol (`u64::MAX` for
    /// the ⊥ label).
    #[must_use]
    pub(crate) fn label_words(&self) -> Vec<u64> {
        self.label_map
            .iter()
            .map(|l| l.map_or(u64::MAX, |nh| u64::from(nh.index())))
            .collect()
    }
}

/// Borrowed shape-string backing of an [`XbwFibRef`].
#[derive(Clone, Copy, Debug)]
enum SiRef<'a> {
    Plain(RsBitVecRef<'a>),
    Rrr(RrrVecRef<'a>),
}

impl SiRef<'_> {
    #[inline]
    fn access_rank1(&self, i: usize) -> (bool, usize) {
        match self {
            Self::Plain(v) => v.access_rank1(i),
            Self::Rrr(v) => v.access_rank1(i),
        }
    }
}

/// Borrowed label-string backing of an [`XbwFibRef`].
#[derive(Clone, Copy, Debug)]
enum SaRef<'a> {
    Packed(IntVecRef<'a>),
    Wavelet(WaveletTreeRef<'a>),
}

impl SaRef<'_> {
    #[inline]
    fn access(&self, i: usize) -> u64 {
        match self {
            Self::Packed(v) => v.get(i),
            Self::Wavelet(w) => w.access(i),
        }
    }
}

/// Borrowed zero-copy view of an [`XbwFib`] image: the §3.1 lookup walk
/// over `S_I`/`S_α` sections parsed straight out of a loaded buffer.
#[derive(Clone, Copy, Debug)]
pub struct XbwFibRef<'a, A: Address> {
    si: SiRef<'a>,
    sa: SaRef<'a>,
    /// Symbol → next-hop words (`u64::MAX` = ⊥).
    labels: &'a [u64],
    /// Words the `S_I` and `S_α` sections hold (for size reporting and
    /// the traced walk's layout).
    string_words: (usize, usize),
    _marker: PhantomData<A>,
}

impl<'a, A: Address> XbwFibRef<'a, A> {
    /// Assembles a view from the three image sections, validating that
    /// the strings agree (`S_α` holds exactly one symbol per `S_I` leaf).
    ///
    /// # Errors
    /// [`StorageError`] on malformed sections or inconsistent strings.
    pub fn from_parts(
        si_kind: u64,
        sa_kind: u64,
        si_words: &'a [u64],
        sa_words: &'a [u64],
        labels: &'a [u64],
    ) -> Result<Self, StorageError> {
        let (si, si_len, si_ones, si_consumed) = match si_kind {
            0 => {
                let (v, used) = RsBitVecRef::from_words(si_words)?;
                (SiRef::Plain(v), v.len(), v.count_ones(), used)
            }
            1 => {
                let (v, used) = RrrVecRef::from_words(si_words)?;
                (SiRef::Rrr(v), v.len(), v.count_ones(), used)
            }
            _ => return Err(StorageError("unknown S_I storage kind")),
        };
        let (sa, sa_len, sa_consumed) = match sa_kind {
            0 => {
                let (v, used) = IntVecRef::from_words(sa_words)?;
                (SaRef::Packed(v), v.len(), used)
            }
            1 => {
                let (w, used) = WaveletTreeRef::from_words(sa_words)?;
                (SaRef::Wavelet(w), w.len(), used)
            }
            _ => return Err(StorageError("unknown S_α storage kind")),
        };
        if si_ones != sa_len {
            return Err(StorageError("S_α length does not match S_I leaves"));
        }
        if si_len == 0 {
            return Err(StorageError("S_I is empty"));
        }
        if labels.is_empty() {
            return Err(StorageError("label map is empty"));
        }
        Ok(Self {
            si,
            sa,
            labels,
            string_words: (si_consumed, sa_consumed),
            _marker: PhantomData,
        })
    }

    /// Total borrowed payload words (`S_I` + `S_α` + label map).
    #[must_use]
    pub fn payload_words(&self) -> usize {
        self.string_words.0 + self.string_words.1 + self.labels.len()
    }

    /// The pointer ranges of every borrowed payload (`S_I`, `S_α`, label
    /// map), for zero-copy assertions in tests.
    #[must_use]
    pub fn payload_ptr_ranges(&self) -> Vec<std::ops::Range<usize>> {
        let labels_start = self.labels.as_ptr() as usize;
        vec![
            match &self.si {
                SiRef::Plain(v) => v.payload_ptr_range(),
                SiRef::Rrr(v) => v.payload_ptr_range(),
            },
            match &self.sa {
                SaRef::Packed(v) => v.payload_ptr_range(),
                SaRef::Wavelet(w) => w.payload_ptr_range(),
            },
            labels_start..labels_start + std::mem::size_of_val(self.labels),
        ]
    }

    /// The borrowed payloads' bytes — the image-resident footprint.
    #[must_use]
    pub fn size_bytes(&self) -> usize {
        self.payload_words() * 8
    }

    /// Longest-prefix match (see [`XbwFib::lookup`]), over borrowed
    /// sections.
    #[must_use]
    pub fn lookup(&self, addr: A) -> Option<NextHop> {
        walk(self, addr, |_| {}).0
    }

    /// Batched longest-prefix match (see [`XbwFib::lookup_batch`]).
    ///
    /// # Panics
    /// Panics if `out` is shorter than `addrs`.
    pub fn lookup_batch(&self, addrs: &[A], out: &mut [Option<NextHop>]) {
        lookup_batch(self, addrs, out);
    }

    /// Traced lookup (see [`XbwFib::lookup_traced`]), with the `S_I` and
    /// `S_α` regions sized by the words the image stores for them.
    pub fn lookup_traced(&self, addr: A, sink: &mut dyn FnMut(u64, u32)) -> Option<NextHop> {
        lookup_traced(self, addr, sink)
    }
}

// ---------------------------------------------------------------------
// The §3.1 walk, written once for owned and borrowed strings
// ---------------------------------------------------------------------

/// A pair of XBW-b strings as the lookup walk reads them. [`XbwFib`]
/// answers from its owned stores and [`XbwFibRef`] from borrowed image
/// sections; the scalar walk, the rolling-refill kernel
/// and the traced walk below exist once, over this.
trait Strings {
    /// The shape string `S_I` as a borrowed view, hoisted out of walk
    /// loops so a query pays for it once, not per level.
    fn si(&self) -> SiRef<'_>;

    /// Next-hop of the leaf with 0-based leaf rank `rank`: one `S_α`
    /// access, then the symbol → next-hop table.
    fn leaf(&self, rank: usize) -> Option<NextHop>;

    /// `(S_I bytes, S_α bytes, δ)` of the flat layout the traced walk
    /// models. Off the packet path: sizing the owned stores walks them.
    fn traced_layout(&self) -> (u64, u64, usize);
}

impl<A: Address> Strings for XbwFib<A> {
    #[inline]
    fn si(&self) -> SiRef<'_> {
        self.si.as_view()
    }

    #[inline]
    fn leaf(&self, rank: usize) -> Option<NextHop> {
        self.label_map[self.sa.access(rank) as usize]
    }

    fn traced_layout(&self) -> (u64, u64, usize) {
        (
            (self.si.size_bits().div_ceil(64) * 8) as u64,
            (self.sa.size_bits().div_ceil(64) * 8) as u64,
            self.label_map.len(),
        )
    }
}

impl<A: Address> Strings for XbwFibRef<'_, A> {
    #[inline]
    fn si(&self) -> SiRef<'_> {
        self.si
    }

    #[inline]
    fn leaf(&self, rank: usize) -> Option<NextHop> {
        let word = self.labels[self.sa.access(rank) as usize];
        (word != u64::MAX).then(|| NextHop::new(word as u32))
    }

    fn traced_layout(&self) -> (u64, u64, usize) {
        let (si_words, sa_words) = self.string_words;
        (si_words as u64 * 8, sa_words as u64 * 8, self.labels.len())
    }
}

/// The scalar walk: one fused `access_rank1` probe per level, each
/// `S_I` position reported to `touch` first (the traced lookup is this
/// walk with a reporting `touch`). Returns the answer and the leaf rank
/// it was read at.
#[inline]
fn walk<A: Address>(
    strings: &impl Strings,
    addr: A,
    mut touch: impl FnMut(usize),
) -> (Option<NextHop>, usize) {
    // 0-based variant of the paper's pseudo-code: the children of the
    // r-th interior node (1-based) sit at positions 2r−1 and 2r.
    let si = strings.si();
    let mut i = 0usize;
    let mut q = 0u8;
    loop {
        touch(i);
        let (leaf, rank1) = si.access_rank1(i);
        if leaf {
            return (strings.leaf(rank1), rank1);
        }
        debug_assert!(q < A::WIDTH, "interior node below maximum depth");
        // Bit i is 0 here, so rank0(i + 1) follows from rank1(i).
        let r = i + 1 - rank1;
        i = 2 * r - 1 + usize::from(addr.bit(q));
        q += 1;
    }
}

/// The RRR backing's batch path: its walk is bound by the
/// serial combinatorial decode, which interleaving cannot overlap.
fn scalar_loop<A: Address>(strings: &impl Strings, addrs: &[A], out: &mut [Option<NextHop>]) {
    for (addr, slot) in addrs.iter().zip(out.iter_mut()) {
        *slot = walk(strings, *addr, |_| {}).0;
    }
}

fn lookup_batch<A: Address>(strings: &impl Strings, addrs: &[A], out: &mut [Option<NextHop>]) {
    assert!(out.len() >= addrs.len(), "output buffer too small"); // fibcheck: allow(hot-path): documented once-per-batch contract, not per-packet
    let out = &mut out[..addrs.len()];
    match strings.si() {
        SiRef::Rrr(_) => scalar_loop(strings, addrs, out),
        SiRef::Plain(si) => interleaved_walk(si, strings, addrs, out),
    }
}

/// The rolling-refill walk kernel behind `lookup_batch`. It takes the
/// plain shape string itself, not the backing enum: the RRR fallback is
/// the caller's, and the per-level probe compiles to the one rank-line
/// read.
fn interleaved_walk<A: Address>(
    si: RsBitVecRef<'_>,
    strings: &impl Strings,
    addrs: &[A],
    out: &mut [Option<NextHop>],
) {
    let n = addrs.len();
    // Rolling lane refill: each slot owns one in-flight walk and takes
    // the next address from the stream the moment its walk resolves.
    // The earlier per-chunk lockstep paid a convoy tax — a lane that
    // matched at depth 8 idled while its chunk-mates walked to depth
    // 24, so the average number of overlapped walks sat well below
    // [`XBW_BATCH_LANES`]. Keeping every lane busy across the whole
    // stream is what lets the interleave pay even on cache-resident
    // strings, where the overlap hides the serial rank/access
    // dependency chain rather than memory latency.
    let mut pos = [0usize; XBW_BATCH_LANES];
    let mut depth = [0u8; XBW_BATCH_LANES];
    // Index into `addrs` each lane is walking; `usize::MAX` = drained.
    let mut job = [usize::MAX; XBW_BATCH_LANES];
    let mut live = XBW_BATCH_LANES.min(n);
    for (lane, slot) in job.iter_mut().enumerate().take(live) {
        *slot = lane;
    }
    let mut next = live;
    while live > 0 {
        for lane in 0..XBW_BATCH_LANES {
            let j = job[lane];
            if j == usize::MAX {
                continue;
            }
            let (leaf, rank1) = si.access_rank1(pos[lane]);
            if leaf {
                out[j] = strings.leaf(rank1);
                if next < n {
                    // Refill in place: the next walk starts at the
                    // root word, which is hot.
                    job[lane] = next;
                    pos[lane] = 0;
                    depth[lane] = 0;
                    next += 1;
                } else {
                    job[lane] = usize::MAX;
                    live -= 1;
                }
            } else {
                let r = pos[lane] + 1 - rank1;
                pos[lane] = 2 * r - 1 + usize::from(addrs[j].bit(depth[lane]));
                depth[lane] += 1;
            }
        }
    }
}

fn lookup_traced<A: Address>(
    strings: &impl Strings,
    addr: A,
    sink: &mut dyn FnMut(u64, u32),
) -> Option<NextHop> {
    let (si_bytes, sa_bytes, delta) = strings.traced_layout();
    let sa_bytes = sa_bytes.max(8);
    let (hop, leaf_rank) = walk(strings, addr, |i| sink((i as u64 / 64) * 8, 8));
    // Wavelet walk: one level per code bit, each level owning roughly
    // an equal slice of the S_α region.
    let levels = fib_succinct::ceil_log2(delta.max(2) as u64).max(1);
    let slice = (sa_bytes / u64::from(levels)).max(8);
    for level in 0..u64::from(levels) {
        let within = (leaf_rank as u64 / 8 * 8) % slice;
        sink(si_bytes + (level * slice + within) % sa_bytes, 8);
    }
    hop
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

    const ALL_STORAGES: [XbwStorage; 2] = [XbwStorage::Succinct, XbwStorage::Entropy];

    #[test]
    fn fig2_transform_shape() {
        // Fig. 2 of the paper: S_I = 0 01 00 1111 (t = 9), S_α = 2 3221.
        let proper = ProperTrie::from_trie(&fig1_trie());
        let xbw = XbwFib::from_proper(&proper, XbwStorage::Succinct);
        assert_eq!(xbw.t_nodes(), 9);
        assert_eq!(xbw.n_leaves(), 5);
        assert_eq!(xbw.delta(), 3);
    }

    #[test]
    fn lookup_matches_trie_for_all_storages() {
        let trie = fig1_trie();
        for storage in ALL_STORAGES {
            let xbw = XbwFib::build(&trie, storage);
            for i in 0..2000u32 {
                let addr = i.wrapping_mul(0x9E37_79B9);
                assert_eq!(
                    xbw.lookup(addr),
                    trie.lookup(addr),
                    "{storage:?} addr {addr:#x}"
                );
            }
            for top in 0..=255u32 {
                let addr = top << 24;
                assert_eq!(
                    xbw.lookup(addr),
                    trie.lookup(addr),
                    "{storage:?} addr {addr:#x}"
                );
            }
        }
    }

    #[test]
    fn empty_fib_returns_none() {
        let trie: BinaryTrie<u32> = BinaryTrie::new();
        for storage in ALL_STORAGES {
            let xbw = XbwFib::build(&trie, storage);
            assert_eq!(xbw.lookup(0), None);
            assert_eq!(xbw.lookup(u32::MAX), None);
            assert_eq!(xbw.n_leaves(), 1);
        }
    }

    #[test]
    fn default_route_only() {
        let mut trie: BinaryTrie<u32> = BinaryTrie::new();
        trie.insert(p("0.0.0.0/0"), nh(3));
        let xbw = XbwFib::build(&trie, XbwStorage::Entropy);
        assert_eq!(xbw.lookup(123_456), Some(nh(3)));
        assert_eq!(xbw.delta(), 1);
    }

    #[test]
    fn bottom_leaves_lookup_as_none() {
        let mut trie: BinaryTrie<u32> = BinaryTrie::new();
        trie.insert(p("128.0.0.0/1"), nh(1));
        for storage in ALL_STORAGES {
            let xbw = XbwFib::build(&trie, storage);
            assert_eq!(xbw.lookup(0x7FFF_FFFF), None, "{storage:?}");
            assert_eq!(xbw.lookup(0x8000_0000), Some(nh(1)), "{storage:?}");
        }
    }

    #[test]
    fn host_route_at_maximum_depth() {
        let mut trie: BinaryTrie<u32> = BinaryTrie::new();
        trie.insert(p("0.0.0.0/0"), nh(1));
        trie.insert(p("255.255.255.255/32"), nh(2));
        for storage in ALL_STORAGES {
            let xbw = XbwFib::build(&trie, storage);
            assert_eq!(xbw.lookup(u32::MAX), Some(nh(2)), "{storage:?}");
            assert_eq!(xbw.lookup(u32::MAX - 1), Some(nh(1)), "{storage:?}");
        }
    }

    #[test]
    fn entropy_mode_is_smaller_on_skewed_labels() {
        // A FIB with ~94% of leaves on one next-hop out of 16: the entropy
        // mode must beat the succinct mode clearly. Large enough that the
        // o(n) directory overheads do not dominate.
        let mut trie: BinaryTrie<u32> = BinaryTrie::new();
        trie.insert(p("0.0.0.0/0"), nh(0));
        for i in 0..65_536u32 {
            let hop = if i % 16 == 0 { 1 + (i / 16) % 15 } else { 0 };
            trie.insert(Prefix4::new(i << 16, 16), nh(hop));
        }
        let succinct = XbwFib::build(&trie, XbwStorage::Succinct);
        let entropy = XbwFib::build(&trie, XbwStorage::Entropy);
        assert_eq!(succinct.lookup(0x1234_5678), entropy.lookup(0x1234_5678));
        let (ss, es) = (succinct.size_report(), entropy.size_report());
        assert!(
            es.sa_bits * 2 < ss.sa_bits,
            "Huffman S_α {} not ≪ packed S_α {}",
            es.sa_bits,
            ss.sa_bits
        );
    }

    #[test]
    fn size_close_to_entropy_bound() {
        // Lemma 3: total ≈ 2n + nH0 + o(n). Allow the o(n) overhead of the
        // practical structures a generous ×1.6 slack.
        let mut trie: BinaryTrie<u32> = BinaryTrie::new();
        trie.insert(p("0.0.0.0/0"), nh(0));
        for i in 0..8192u32 {
            trie.insert(
                Prefix4::new(i << 19, 13),
                nh(if i % 8 == 0 { 1 } else { 0 }),
            );
        }
        let metrics = crate::entropy::FibEntropy::of_trie(&trie);
        let xbw = XbwFib::build(&trie, XbwStorage::Entropy);
        let total = xbw.size_report().total_bits() as f64;
        assert!(
            total < metrics.entropy_bits() * 1.6 + 4096.0,
            "XBW-b {} bits vs entropy bound {}",
            total,
            metrics.entropy_bits()
        );
    }

    #[test]
    fn traced_lookup_matches_plain_for_all_storages() {
        let trie = fig1_trie();
        for storage in ALL_STORAGES {
            let xbw = XbwFib::build(&trie, storage);
            for addr in [0u32, 0x2000_0000, 0x6000_0000, 0x9999_9999, u32::MAX] {
                let mut touches = Vec::new();
                let traced = xbw.lookup_traced(addr, &mut |off, sz| touches.push((off, sz)));
                assert_eq!(traced, xbw.lookup(addr), "{storage:?} addr {addr:#x}");
                assert!(!touches.is_empty(), "{storage:?} produced no accesses");
                let total_bytes = (xbw.si.size_bits().div_ceil(64) * 8
                    + (xbw.sa.size_bits().div_ceil(64) * 8).max(8))
                    as u64;
                for &(off, _) in &touches {
                    assert!(off < total_bytes, "touch {off} outside the modeled image");
                }
            }
        }
    }

    #[test]
    fn ipv6_lookup() {
        let mut trie: BinaryTrie<u128> = BinaryTrie::new();
        let p1: fib_trie::Prefix6 = "2001:db8::/32".parse().unwrap();
        let p2: fib_trie::Prefix6 = "2001:db8::/64".parse().unwrap();
        trie.insert(p1, nh(1));
        trie.insert(p2, nh(2));
        let xbw: XbwFib<u128> = XbwFib::build(&trie, XbwStorage::Entropy);
        let a: u128 = "2001:db8::1".parse::<std::net::Ipv6Addr>().unwrap().into();
        let b: u128 = "2001:db8:0:1::1"
            .parse::<std::net::Ipv6Addr>()
            .unwrap()
            .into();
        assert_eq!(xbw.lookup(a), Some(nh(2)));
        assert_eq!(xbw.lookup(b), Some(nh(1)));
    }
}
