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
//!
//! # Root table
//!
//! Every lookup walks the same top levels of `S_I`, so, as the pDAG's
//! root array does (see [`crate::pdag`]), the first
//! [`ROOT_BITS`](crate::pdag::ROOT_BITS) = 8 levels are collapsed into a
//! table of 256 `u16` entries, one per 8-bit address prefix. An entry
//! holds the leaf rank when the prefix's path ends above depth 8 (the
//! answer then needs no `S_I` probe at all), else the `S_I` position of
//! its depth-8 node, where the walk goes on. A leaf at depth `d ≥ 8`
//! costs `d − 7` probes instead of `d + 1`.
//!
//! The table is 512 bytes whatever the FIB's size, like the pDAG's root
//! array: 0.57 % of a taz 1.0 XBW-b, and most of a tiny one. Its depth
//! is a constant, not a knob, so one start function serves every table.
//! What is resident is charged: [`XbwSizeReport::root_bits`] counts it
//! in the total, and the traced walk models it as one 2-byte read placed
//! after `S_α`.
//!
//! The table is a function of `S_I` alone, derived by replaying the
//! walk's first 8 steps (at most 255 probes). The build derives it and
//! so does an image's first view, so images keep their sections and an
//! image written before the table existed serves unchanged. A load
//! refuses an `S_I` whose top levels leave the string: the derivation
//! probes image words no one has checked, through a checked probe.
//!
//! A view borrows its table from the table's owner, never copies it: an
//! [`XbwFib`] owns the table its [`XbwFib::view`] reads, and a loaded
//! [`FibImage`] keeps the one its first
//! [`ImageCodec::view`](crate::image::ImageCodec::view) derived in the
//! record of that validation, which every later view of it reads — the
//! view an image-backed snapshot or fleet table parses per call among
//! them.

use fib_succinct::storage::meta_run_words;
use fib_succinct::{
    Arena, BitVec, IntVec, IntVecRef, RrrVec, RrrVecRef, RsBitVec, RsBitVecRef, StorageError,
    WaveletTree, WaveletTreeRef,
};
use fib_trie::{Address, BinaryTrie, NextHop, ProperNode, ProperTrie};
use std::marker::PhantomData;
use std::ops::Range;

use crate::image::{sections, FibImage, ImageError, ImageWriter};
use crate::pdag::ROOT_BITS;

/// Number of lookups [`XbwFibRef::lookup_batch`] interleaves.
///
/// Lane-width sweep on a DFZ-scale shape string (out-of-cache, uniform
/// keys, median ns/lookup of the interleaved walk): 4 lanes leave load
/// latency on the table (~0.88× scalar), 8 lanes saturate the walk's
/// useful memory-level parallelism (~0.74×), and 16 lanes give back the
/// gain to register spills in the lane state (~0.80×). 8 is the plateau,
/// so it stays.
///
/// The original per-chunk *lockstep* kernel lost even on cache-resident
/// strings: a lane that matched shallow idled until its whole chunk
/// retired, so little of the serial rank/access chain overlapped. The
/// rolling-refill kernel keeps all 8 lanes busy across the stream, and
/// it wins in cache as well as out of it, so every table takes it. The
/// live figure is `engine.batch_ns` against `engine.scalar_ns` on the
/// benchmark's `serve-compact` workload (taz 1.0). Only the RRR backing
/// stays scalar: its walk is bound by decoding, not by load latency.
pub const XBW_BATCH_LANES: usize = 8;

/// Tag of a [`RootTable`] entry that holds the `S_I` position of a
/// depth-[`ROOT_BITS`] node; an entry without it holds a leaf rank.
const NODE: u16 = 1 << 15;

/// The root table: where the walk for each [`ROOT_BITS`]-bit address
/// prefix starts (see the module docs' "Root table").
#[derive(Clone, Debug, PartialEq, Eq)]
struct RootTable([u16; 1 << ROOT_BITS]);

/// Where the walk for one address starts.
#[derive(Clone, Copy, Debug)]
enum Start {
    /// The path ended above depth [`ROOT_BITS`]: the leaf with this rank
    /// answers.
    Leaf(usize),
    /// The walk goes on from this `S_I` position, at depth [`ROOT_BITS`].
    Node(usize),
}

impl RootTable {
    /// What the table takes in memory, and so what the size reports
    /// charge for it.
    const BYTES: usize = std::mem::size_of::<Self>();

    /// Derives the table of the shape string `si` by replaying the walk's
    /// first [`ROOT_BITS`] steps.
    ///
    /// # Errors
    /// [`StorageError`] when a walk leaves the string or an entry does
    /// not fit: `si` came from an image and is not an XBW-b shape.
    fn derive(si: SiRef<'_>) -> Result<Self, StorageError> {
        let mut entries = [0u16; 1 << ROOT_BITS];
        fill_entries(si, &mut entries, 0, 0, 0)?;
        Ok(Self(entries))
    }

    /// Index of the entry `addr` starts from.
    #[inline]
    fn slot<A: Address>(addr: A) -> usize {
        addr.bits(0, ROOT_BITS) as usize
    }

    /// Where the walk for `addr` starts.
    #[inline]
    fn root_start<A: Address>(&self, addr: A) -> Start {
        let entry = usize::from(self.0[Self::slot(addr)]);
        if entry & usize::from(NODE) == 0 {
            Start::Leaf(entry)
        } else {
            Start::Node(entry & !usize::from(NODE))
        }
    }
}

/// Fills the `2^(ROOT_BITS − depth)` entries under the `depth`-bit path
/// `slot`, whose node sits at `S_I` position `i`, by replaying the walk.
fn fill_entries(
    si: SiRef<'_>,
    entries: &mut [u16; 1 << ROOT_BITS],
    i: usize,
    depth: u8,
    slot: usize,
) -> Result<(), StorageError> {
    const OUT: StorageError = StorageError("S_I top levels leave the string");
    // Every entry, node position or leaf rank, is below 2^9 in a trie
    // shape; the tag bit must stay clear.
    let entry = |value: usize| u16::try_from(value).ok().filter(|&v| v & NODE == 0);
    let below = ROOT_BITS - depth;
    if below == 0 {
        entries[slot] = entry(i).filter(|_| i < si.len()).ok_or(OUT)? | NODE;
        return Ok(());
    }
    let (leaf, rank1) = si.checked_access_rank1(i)?;
    if leaf {
        let rank = entry(rank1).ok_or(OUT)?;
        for e in &mut entries[slot << below..(slot + 1) << below] {
            *e = rank;
        }
        return Ok(());
    }
    // The children of the r-th interior node (1-based) sit at 2r−1, 2r.
    let left = (i + 1)
        .checked_sub(rank1)
        .and_then(|r| (2 * r).checked_sub(1))
        .ok_or(OUT)?;
    fill_entries(si, entries, left, depth + 1, slot << 1)?;
    fill_entries(si, entries, left + 1, depth + 1, slot << 1 | 1)
}

/// How the two XBW-b strings are stored: the two modes the paper proves
/// a size bound for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum XbwStorage {
    /// Plain rank directory + packed labels (`2n + n·lg δ`, Lemma 2).
    Succinct,
    /// RRR + Huffman wavelet tree (`2n + n·H0 + o(n)`, Lemma 3).
    Entropy,
}

/// `S_I` as the build made it.
#[derive(Clone, Debug)]
enum SiStore {
    Plain(RsBitVec),
    Rrr(RrrVec),
}

impl SiStore {
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

/// `S_α` as the build made it.
#[derive(Clone, Debug)]
enum SaStore {
    Packed(IntVec),
    /// The words [`WaveletTree::write_words`] wrote, which the image's
    /// `S_α` section holds, and the tree's [`WaveletTree::size_bits`].
    Wavelet {
        words: Arena,
        bits: usize,
    },
}

impl SaStore {
    #[inline]
    fn as_view(&self) -> SaRef<'_> {
        match self {
            Self::Packed(v) => SaRef::Packed(v.view()),
            Self::Wavelet { words, .. } => {
                SaRef::Wavelet(WaveletTreeRef::from_words_trusted(words.words()))
            }
        }
    }

    fn size_bits(&self) -> usize {
        match self {
            Self::Packed(v) => v.size_bits(),
            Self::Wavelet { bits, .. } => *bits,
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
    /// The root table (see the module docs' "Root table").
    pub root_bits: usize,
}

impl XbwSizeReport {
    /// Total bits.
    #[must_use]
    pub fn total_bits(&self) -> usize {
        self.si_bits + self.sa_bits + self.label_map_bits + self.root_bits
    }

    /// Total bytes, rounded up.
    #[must_use]
    pub fn total_bytes(&self) -> usize {
        self.total_bits().div_ceil(8)
    }
}

/// An entropy-compressed, statically queryable FIB — the XBW-b transform.
///
/// It holds what its image holds — `S_I`, `S_α` and the label words — and
/// the root table, and serves every lookup through [`Self::view`].
#[derive(Clone, Debug)]
pub struct XbwFib<A: Address> {
    si: SiStore,
    sa: SaStore,
    /// Symbol → next-hop words (`u64::MAX` for ⊥, present when the normal
    /// form has ⊥ leaves): the image's label section.
    labels: Vec<u64>,
    root: RootTable,
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
    /// O(t) construction of Lemma 1: one pass over the level order
    /// ([`ProperTrie::level_order`], a counting sort of the depth record)
    /// fills both strings.
    #[must_use]
    pub fn from_proper(proper: &ProperTrie<A>, storage: XbwStorage) -> Self {
        let mut si_bits = BitVec::with_capacity(proper.node_count());
        let mut symbols = Vec::with_capacity(proper.n_leaves());
        for idx in proper.level_order() {
            let node = *proper.node(idx);
            si_bits.push(matches!(node, ProperNode::Leaf(_)));
            if let ProperNode::Leaf(label) = node {
                symbols.push(label.map_or(0, |nh| u64::from(nh.index()) + 1));
            }
        }
        let labels = number_symbols(&mut symbols);

        let sigma = labels.len().max(1);
        let (si, sa) = match storage {
            XbwStorage::Succinct => {
                let mut iv = IntVec::new(fib_succinct::ceil_log2(sigma as u64));
                for &s in &symbols {
                    iv.push(s);
                }
                (SiStore::Plain(RsBitVec::new(si_bits)), SaStore::Packed(iv))
            }
            XbwStorage::Entropy => {
                let tree = WaveletTree::new(&symbols, sigma);
                let mut words = Vec::new();
                tree.write_words(&mut words);
                let sa = SaStore::Wavelet {
                    words: Arena::from_words(&words),
                    bits: tree.size_bits(),
                };
                (SiStore::Rrr(RrrVec::new(&si_bits)), sa)
            }
        };
        let root = RootTable::derive(si.as_view()).expect("a built S_I is a trie shape");
        Self {
            si,
            sa,
            labels,
            root,
            n_leaves: proper.n_leaves(),
            t_nodes: proper.node_count(),
            _marker: PhantomData,
        }
    }

    /// The borrowed view every lookup of this engine runs on. It borrows
    /// the strings, the label words and the root table: nothing is
    /// validated and nothing copied.
    #[must_use]
    #[inline]
    pub fn view(&self) -> XbwFibRef<'_, A> {
        XbwFibRef {
            si: self.si.as_view(),
            sa: self.sa.as_view(),
            labels: &self.labels,
            root: &self.root,
            _marker: PhantomData,
        }
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
        self.labels.len()
    }

    /// Size breakdown.
    #[must_use]
    pub fn size_report(&self) -> XbwSizeReport {
        XbwSizeReport {
            si_bits: self.si.size_bits(),
            sa_bits: self.sa.size_bits(),
            label_map_bits: self.labels.len() * 33,
            root_bits: RootTable::BYTES * 8,
        }
    }

    /// Total footprint in bytes.
    #[must_use]
    pub fn size_bytes(&self) -> usize {
        self.size_report().total_bytes()
    }

    /// Writes the image sections: `PARAMS` (`S_I` kind, `S_α` kind — 0 =
    /// plain/packed, 1 = RRR/wavelet —, `n_leaves`, `t_nodes`), then `S_I`,
    /// `S_α` and the label words.
    pub(crate) fn write_image_sections(&self, writer: &mut ImageWriter) {
        let si_kind = match self.si {
            SiStore::Plain(_) => 0,
            SiStore::Rrr(_) => 1,
        };
        let sa_kind = match self.sa {
            SaStore::Packed(_) => 0,
            SaStore::Wavelet { .. } => 1,
        };
        let (n_leaves, t_nodes) = (self.n_leaves as u64, self.t_nodes as u64);
        writer.set_prefix_count(n_leaves);
        writer.section(sections::PARAMS, &[si_kind, sa_kind, n_leaves, t_nodes]);
        writer.section_with(sections::XBW_SI, |out| match &self.si {
            SiStore::Plain(v) => v.write_words(out),
            SiStore::Rrr(v) => v.write_words(out),
        });
        writer.section_with(sections::XBW_SA, |out| match &self.sa {
            SaStore::Packed(v) => v.write_words(out),
            SaStore::Wavelet { words, .. } => out.extend_from_slice(words.words()),
        });
        writer.section(sections::XBW_LABELS, &self.labels);
    }
}

/// Renumbers label keys (⊥ as 0, next-hop `h` as `h + 1`: the order of
/// `Option<NextHop>`) in place as symbols, each key's rank among the
/// distinct keys, and returns the symbol → next-hop words (`u64::MAX` for
/// ⊥): stable symbol numbering, the distinct labels sorted. Next-hop ids
/// are dense in practice, so a key range within a few times the leaf
/// count ranks through a table indexed by key, one read a leaf; a wider
/// range sorts its keys instead.
fn number_symbols(keys: &mut [u64]) -> Vec<u64> {
    let label = |key: u64| key.checked_sub(1).unwrap_or(u64::MAX);
    let max = keys.iter().copied().max().unwrap_or(0);
    if max > 2 * keys.len() as u64 + 1024 {
        let mut distinct = keys.to_vec();
        distinct.sort_unstable();
        distinct.dedup();
        for key in keys.iter_mut() {
            *key = distinct.binary_search(key).expect("a key of its own set") as u64;
        }
        return distinct.into_iter().map(label).collect();
    }
    const ABSENT: u32 = u32::MAX;
    let mut rank = vec![ABSENT; max as usize + 1];
    for &key in keys.iter() {
        rank[key as usize] = 0;
    }
    let mut labels = Vec::new();
    for (key, r) in rank.iter_mut().enumerate() {
        if *r != ABSENT {
            *r = labels.len() as u32;
            labels.push(label(key as u64));
        }
    }
    for key in keys.iter_mut() {
        *key = u64::from(rank[*key as usize]);
    }
    labels
}

/// Borrowed shape-string backing of an [`XbwFibRef`].
#[derive(Clone, Copy, Debug)]
enum SiRef<'a> {
    Plain(RsBitVecRef<'a>),
    Rrr(RrrVecRef<'a>),
}

impl SiRef<'_> {
    fn len(&self) -> usize {
        match self {
            Self::Plain(v) => v.len(),
            Self::Rrr(v) => v.len(),
        }
    }

    fn count_ones(&self) -> usize {
        match self {
            Self::Plain(v) => v.count_ones(),
            Self::Rrr(v) => v.count_ones(),
        }
    }

    fn payload(&self) -> Range<usize> {
        match self {
            Self::Plain(v) => v.payload_ptr_range(),
            Self::Rrr(v) => v.payload_ptr_range(),
        }
    }

    /// Words the string's image section holds: a meta block, then the
    /// payload.
    fn section_words(&self) -> usize {
        meta_run_words(self.payload().len() / 8)
    }

    #[inline]
    fn access_rank1(&self, i: usize) -> (bool, usize) {
        match self {
            Self::Plain(v) => v.access_rank1(i),
            Self::Rrr(v) => v.access_rank1(i),
        }
    }

    /// [`Self::access_rank1`] over untrusted words: a probe that would
    /// leave the string is an error, never a panic.
    fn checked_access_rank1(&self, i: usize) -> Result<(bool, usize), StorageError> {
        match self {
            Self::Plain(v) if i < v.len() => Ok(v.access_rank1(i)),
            Self::Plain(_) => Err(StorageError("S_I top levels leave the string")),
            Self::Rrr(v) => v.checked_access_rank1(i),
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
    fn len(&self) -> usize {
        match self {
            Self::Packed(v) => v.len(),
            Self::Wavelet(w) => w.len(),
        }
    }

    fn payload(&self) -> Range<usize> {
        match self {
            Self::Packed(v) => v.payload_ptr_range(),
            Self::Wavelet(w) => w.payload_ptr_range(),
        }
    }

    /// Words the string's image section holds: a packed string's meta
    /// block and payload, or a wavelet tree's whole run.
    fn section_words(&self) -> usize {
        let words = self.payload().len() / 8;
        match self {
            Self::Packed(_) => meta_run_words(words),
            Self::Wavelet(_) => words,
        }
    }

    #[inline]
    fn access(&self, i: usize) -> u64 {
        match self {
            Self::Packed(v) => v.get(i),
            Self::Wavelet(w) => w.access(i),
        }
    }

    /// Whether every symbol [`Self::access`] can yield is below `bound`,
    /// the label map's length: packed symbols one by one unless their
    /// width cannot reach it, a wavelet tree's leaves and single symbol.
    fn symbols_below(&self, bound: usize) -> bool {
        let bound = bound as u64;
        match self {
            Self::Packed(v) if v.width() < 64 && 1 << v.width() <= bound => true,
            Self::Packed(v) => (0..v.len()).all(|i| v.get(i) < bound),
            Self::Wavelet(w) => w.max_symbol().is_none_or(|s| s < bound),
        }
    }
}

/// Borrowed zero-copy view of an [`XbwFib`] — over the built engine's own
/// strings, or over an image's sections — and the one home of the §3.1
/// walk: the scalar lookup, the rolling-refill batch kernel and the
/// traced walk.
#[derive(Clone, Copy, Debug)]
pub struct XbwFibRef<'a, A: Address> {
    si: SiRef<'a>,
    sa: SaRef<'a>,
    /// Symbol → next-hop words (`u64::MAX` = ⊥).
    labels: &'a [u64],
    /// Borrowed from its owner (see the module docs' "Root table").
    root: &'a RootTable,
    _marker: PhantomData<A>,
}

impl<'a, A: Address> XbwFibRef<'a, A> {
    /// The view over an XBW-b image's sections, borrowing the root table
    /// the image's record keeps. The image's first view validates the
    /// sections inside that record: the strings agree (`S_α` holds exactly
    /// one symbol per `S_I` leaf), every symbol `S_α` can yield indexes
    /// the label map, and the root table derives from `S_I`. Every later
    /// view skips the wavelet tree's node scan and the symbol checks.
    ///
    /// # Errors
    /// [`ImageError`] on missing or malformed sections, inconsistent
    /// strings, a symbol past the label map, or an `S_I` whose top levels
    /// leave the string.
    pub(crate) fn parse(image: &'a FibImage) -> Result<Self, ImageError> {
        let &[si_kind, sa_kind, ..] = image.section(sections::PARAMS)? else {
            return Err(ImageError::Malformed("params"));
        };
        let si_words = image.section(sections::XBW_SI)?;
        let sa_words = image.section(sections::XBW_SA)?;
        let labels = image.section(sections::XBW_LABELS)?;
        let si = match si_kind {
            0 => SiRef::Plain(RsBitVecRef::from_words(si_words)?.0),
            1 => SiRef::Rrr(RrrVecRef::from_words(si_words)?.0),
            _ => return Err(ImageError::Malformed("unknown S_I storage kind")),
        };
        let root = image.validated::<A, XbwFib<A>, _>(|| {
            let sa = match sa_kind {
                0 => SaRef::Packed(IntVecRef::from_words(sa_words)?.0),
                1 => SaRef::Wavelet(WaveletTreeRef::from_words(sa_words)?.0),
                _ => return Err(ImageError::Malformed("unknown S_α storage kind")),
            };
            if si.count_ones() != sa.len() {
                return Err(ImageError::Malformed(
                    "S_α length does not match S_I leaves",
                ));
            }
            if si.len() == 0 {
                return Err(ImageError::Malformed("S_I is empty"));
            }
            if labels.is_empty() {
                return Err(ImageError::Malformed("label map is empty"));
            }
            if !sa.symbols_below(labels.len()) {
                return Err(ImageError::Malformed("S_α symbol past the label map"));
            }
            Ok(RootTable::derive(si)?)
        })?;
        // The record vouches for the wavelet tree's nodes.
        let sa = match sa_kind {
            0 => SaRef::Packed(IntVecRef::from_words(sa_words)?.0),
            _ => SaRef::Wavelet(WaveletTreeRef::from_words_trusted(sa_words)),
        };
        Ok(Self {
            si,
            sa,
            labels,
            root,
            _marker: PhantomData,
        })
    }

    /// Total borrowed payload words (`S_I` + `S_α` + label map): what the
    /// image's three sections hold.
    #[must_use]
    pub fn payload_words(&self) -> usize {
        self.si.section_words() + self.sa.section_words() + self.labels.len()
    }

    /// The pointer ranges of every borrowed payload (`S_I`, `S_α`, label
    /// map), for zero-copy assertions in tests.
    #[must_use]
    pub fn payload_ptr_ranges(&self) -> Vec<Range<usize>> {
        let labels_start = self.labels.as_ptr() as usize;
        vec![
            self.si.payload(),
            self.sa.payload(),
            labels_start..labels_start + std::mem::size_of_val(self.labels),
        ]
    }

    /// The borrowed payloads' bytes and the root table's — the resident
    /// footprint.
    #[must_use]
    pub fn size_bytes(&self) -> usize {
        self.payload_words() * 8 + RootTable::BYTES
    }

    /// Longest-prefix match on the compressed form (§3.1's `lookup`): one
    /// root-table read replaces the top 8 levels, then the walk goes on
    /// down the level-order encoding with one *fused* `access_rank1` probe
    /// per level, at most `W − 7` probes in total (none when the path
    /// ends above depth 8; see the module docs' "Root table").
    ///
    /// The paper's pseudo-code issues an `access` then a `rank0`/`rank1`
    /// at each level; those hit the same `S_I` word and directory entry,
    /// so the fused primitive answers both from one probe:
    /// `rank0(i + 1) = i + 1 − rank1(i)` whenever bit `i` is 0.
    #[must_use]
    #[inline]
    pub fn lookup(&self, addr: A) -> Option<NextHop> {
        self.walk(addr, |_| {}).0
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
        assert!(out.len() >= addrs.len(), "output buffer too small"); // fibcheck: allow(hot-path): documented once-per-batch contract, not per-packet
        let out = &mut out[..addrs.len()];
        match self.si {
            SiRef::Rrr(_) => {
                for (addr, slot) in addrs.iter().zip(out) {
                    *slot = self.lookup(*addr);
                }
            }
            SiRef::Plain(si) => self.interleaved_walk(si, addrs, out),
        }
    }

    /// Lookup reporting every memory touch as `(byte offset, byte size)`
    /// for cache simulation, under a flat `[S_I | S_α | root table]`
    /// layout whose string regions are the words the image sections hold.
    ///
    /// The access model: the walk starts with one 2-byte root-table read;
    /// each level below the table reads the 8-byte `S_I` word holding bit
    /// `i` (the `access` and the `rank` of §3.1 hit the same word plus a
    /// directory entry that lives alongside it); the final label read is
    /// one 8-byte `S_α` word for packed labels, or `⌈lg δ⌉` wavelet-tree
    /// levels — one 8-byte touch per level, spread across the per-level
    /// sub-arrays. Offsets are deterministic for a given query, which is
    /// all the cache and SRAM replay harnesses need.
    pub fn lookup_traced(&self, addr: A, sink: &mut dyn FnMut(u64, u32)) -> Option<NextHop> {
        let si_bytes = self.si.section_words() as u64 * 8;
        let sa_bytes = (self.sa.section_words() as u64 * 8).max(8);
        // The root table sits after S_α: one 2-byte entry.
        sink(si_bytes + sa_bytes + 2 * RootTable::slot(addr) as u64, 2);
        let (hop, leaf_rank) = self.walk(addr, |i| sink((i as u64 / 64) * 8, 8));
        let leaf_rank = leaf_rank as u64;
        match self.sa {
            SaRef::Packed(v) => {
                sink(si_bytes + leaf_rank * u64::from(v.width()) / 64 * 8, 8);
            }
            SaRef::Wavelet(_) => {
                // One level per code bit, each level owning roughly an equal
                // slice of the S_α region.
                let delta = self.labels.len();
                let levels = fib_succinct::ceil_log2(delta.max(2) as u64).max(1);
                let slice = (sa_bytes / u64::from(levels)).max(8);
                for level in 0..u64::from(levels) {
                    let within = (leaf_rank / 8 * 8) % slice;
                    sink(si_bytes + (level * slice + within) % sa_bytes, 8);
                }
            }
        }
        hop
    }

    /// Next-hop of the leaf with 0-based leaf rank `rank`: one `S_α`
    /// access, then the label word.
    #[inline]
    fn leaf(&self, rank: usize) -> Option<NextHop> {
        let word = self.labels[self.sa.access(rank) as usize];
        (word != u64::MAX).then(|| NextHop::new(word as u32))
    }

    /// The scalar walk: the root table, then one fused `access_rank1`
    /// probe per level, each `S_I` position reported to `touch` first
    /// (the traced lookup is this walk with a reporting `touch`). Returns
    /// the answer and the leaf rank it was read at.
    #[inline]
    fn walk(&self, addr: A, mut touch: impl FnMut(usize)) -> (Option<NextHop>, usize) {
        let mut i = match self.root.root_start(addr) {
            Start::Leaf(rank) => return (self.leaf(rank), rank),
            Start::Node(i) => i,
        };
        let mut q = ROOT_BITS;
        // 0-based variant of the paper's pseudo-code: the children of the
        // r-th interior node (1-based) sit at positions 2r−1 and 2r.
        let si = self.si;
        loop {
            touch(i);
            let (leaf, rank1) = si.access_rank1(i);
            if leaf {
                return (self.leaf(rank1), rank1);
            }
            debug_assert!(q < A::WIDTH, "interior node below maximum depth");
            // Bit i is 0 here, so rank0(i + 1) follows from rank1(i).
            let r = i + 1 - rank1;
            i = 2 * r - 1 + usize::from(addr.bit(q));
            q += 1;
        }
    }

    /// The next walk for a lane of [`Self::interleaved_walk`]: answers the
    /// addresses from `*next` on that the root table answers alone, and
    /// returns the first that needs `S_I` as `(index, start position)`, or
    /// `None` once the stream is drained.
    #[inline]
    fn next_walk(
        &self,
        addrs: &[A],
        out: &mut [Option<NextHop>],
        next: &mut usize,
    ) -> Option<(usize, usize)> {
        while let Some(&addr) = addrs.get(*next) {
            let j = *next;
            *next += 1;
            match self.root.root_start(addr) {
                Start::Leaf(rank) => out[j] = self.leaf(rank),
                Start::Node(i) => return Some((j, i)),
            }
        }
        None
    }

    /// The rolling-refill walk kernel behind [`Self::lookup_batch`]. It
    /// takes the plain shape string itself, not the backing enum: the RRR
    /// fallback is the caller's, and the per-level probe compiles to the
    /// one rank-line read.
    fn interleaved_walk(&self, si: RsBitVecRef<'_>, addrs: &[A], out: &mut [Option<NextHop>]) {
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
        let mut depth = [ROOT_BITS; XBW_BATCH_LANES];
        // Index into `addrs` each lane is walking; `usize::MAX` = drained.
        let mut job = [usize::MAX; XBW_BATCH_LANES];
        let mut next = 0;
        let mut live = 0;
        for lane in 0..XBW_BATCH_LANES {
            if let Some((j, i)) = self.next_walk(addrs, out, &mut next) {
                (job[lane], pos[lane]) = (j, i);
                live += 1;
            }
        }
        while live > 0 {
            for lane in 0..XBW_BATCH_LANES {
                let j = job[lane];
                if j == usize::MAX {
                    continue;
                }
                let (leaf, rank1) = si.access_rank1(pos[lane]);
                if leaf {
                    out[j] = self.leaf(rank1);
                    // Refill in place, from the root table.
                    if let Some((j, i)) = self.next_walk(addrs, out, &mut next) {
                        (job[lane], pos[lane], depth[lane]) = (j, i, ROOT_BITS);
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FibLookup;
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
    fn symbols_number_the_sorted_distinct_labels() {
        // Dense keys (the table path) and keys far apart (the sorting
        // path), ⊥ among them or not, against a sorted map of the keys.
        let dense: Vec<u64> = (0..500u64).map(|i| (i * 7919) % 37 + i % 2).collect();
        let sparse: Vec<u64> = (0..500u64).map(|i| ((i % 5) << 30) | (i % 3)).collect();
        let bot_free: Vec<u64> = dense.iter().map(|k| k + 3).collect();
        for keys in [dense, sparse, bot_free, vec![], vec![0]] {
            let map: std::collections::BTreeMap<u64, u64> = keys
                .iter()
                .collect::<std::collections::BTreeSet<_>>()
                .into_iter()
                .enumerate()
                .map(|(rank, &key)| (key, rank as u64))
                .collect();
            let mut symbols = keys.clone();
            let labels = number_symbols(&mut symbols);
            let want: Vec<u64> = keys.iter().map(|k| map[k]).collect();
            assert_eq!(symbols, want);
            let want: Vec<_> = map
                .keys()
                .map(|&k| k.checked_sub(1).unwrap_or(u64::MAX))
                .collect();
            assert_eq!(labels, want);
        }
        // Next-hop ids far apart build through the sorting path.
        let mut trie = fig1_trie();
        trie.insert(p("192.0.0.0/2"), nh(3 << 29));
        for storage in ALL_STORAGES {
            let xbw = XbwFib::build(&trie, storage);
            assert_eq!(xbw.delta(), 4);
            for i in 0..=255u32 {
                let addr = i << 24 | 0xABCDEF;
                assert_eq!(xbw.lookup(addr), trie.lookup(addr), "{storage:?} {addr:#x}");
            }
        }
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
                let view = xbw.view();
                let total_bytes = (view.si.section_words() * 8
                    + (view.sa.section_words() * 8).max(8)
                    + RootTable::BYTES) as u64;
                for &(off, _) in &touches {
                    assert!(off < total_bytes, "touch {off} outside the modeled image");
                }
            }
        }
    }

    /// `S_I` probes of the scalar walk for `addr`.
    fn probes<A: Address>(xbw: &XbwFib<A>, addr: A) -> usize {
        let mut probes = 0;
        xbw.view().walk(addr, |_| probes += 1);
        probes
    }

    /// A v4 table of `n` dfz-like routes.
    fn dfz(n: usize, seed: u64) -> BinaryTrie<u32> {
        use fib_workload::rng::Xoshiro256;
        fib_workload::FibSpec::dfz_like(n).generate(&mut Xoshiro256::seed_from_u64(seed))
    }

    #[test]
    fn shallow_tables_answer_every_key_from_the_root_table() {
        let mut default_only: BinaryTrie<u32> = BinaryTrie::new();
        default_only.insert(p("0.0.0.0/0"), nh(3));
        for storage in ALL_STORAGES {
            // Every leaf of these sits above depth 8 (a lone root leaf for
            // the empty and the default-only FIB), so the table holds all
            // of it.
            for trie in [fig1_trie(), BinaryTrie::new(), default_only.clone()] {
                let xbw = XbwFib::build(&trie, storage);
                for top in 0..=255u32 {
                    let addr = top << 24 | 0x00AB_CDEF;
                    assert_eq!(xbw.lookup(addr), trie.lookup(addr), "{storage:?} {addr:#x}");
                    assert_eq!(probes(&xbw, addr), 0, "{storage:?} {addr:#x}");
                    let mut out = [None];
                    xbw.lookup_batch(&[addr], &mut out);
                    assert_eq!(out[0], trie.lookup(addr), "{storage:?} {addr:#x}");
                }
            }
        }
    }

    #[test]
    fn host_routes_resolve_through_an_eight_level_table() {
        let mut v4: BinaryTrie<u32> = BinaryTrie::new();
        v4.insert(p("0.0.0.0/0"), nh(1));
        v4.insert(p("10.0.0.0/7"), nh(3));
        v4.insert(p("12.0.0.0/8"), nh(4));
        v4.insert(p("255.255.255.255/32"), nh(2));
        let host: fib_trie::Prefix6 = "2001:db8::1/128".parse().unwrap();
        let mut v6: BinaryTrie<u128> = BinaryTrie::new();
        v6.insert("::/0".parse().unwrap(), nh(1));
        v6.insert(host, nh(2));
        let a: u128 = "2001:db8::1".parse::<std::net::Ipv6Addr>().unwrap().into();
        for storage in ALL_STORAGES {
            let xbw = XbwFib::build(&v4, storage);
            for addr in [u32::MAX, u32::MAX - 1, 0x0A01_0203, 0x0C00_0000, 0] {
                assert_eq!(xbw.lookup(addr), v4.lookup(addr), "{storage:?} {addr:#x}");
            }
            // A leaf at depth d ≥ 8 takes d − 7 probes below the table, one
            // above it none.
            assert_eq!(probes(&xbw, u32::MAX), 25, "{storage:?}");
            assert_eq!(probes(&xbw, 0x0C00_0000), 1, "{storage:?}");
            assert_eq!(probes(&xbw, 0x0A01_0203), 0, "{storage:?}");
            let xbw6 = XbwFib::build(&v6, storage);
            assert_eq!(xbw6.lookup(a), Some(nh(2)), "{storage:?}");
            assert_eq!(xbw6.lookup(a ^ 1), Some(nh(1)), "{storage:?}");
            assert_eq!(xbw6.lookup(!a), Some(nh(1)), "{storage:?}");
            assert_eq!(probes(&xbw6, a), 128 - 8 + 1, "{storage:?}");
        }
    }

    #[test]
    fn a_traced_lookup_probes_s_i_below_the_table_only() {
        let trie = dfz(3_000, 0x7AB1E);
        let proper = ProperTrie::from_trie(&trie);
        let keys: Vec<u32> = (0..3_000u32).map(|i| i.wrapping_mul(0x9E37_79B9)).collect();
        for storage in ALL_STORAGES {
            let xbw = XbwFib::from_proper(&proper, storage);
            let view = xbw.view();
            let si_bytes = view.si.section_words() as u64 * 8;
            let table_at = si_bytes + (view.sa.section_words() as u64 * 8).max(8);
            for &addr in &keys {
                let mut levels = 0;
                proper.lookup_traced(addr, &mut |_, _| levels += 1);
                let (mut si, mut sa, mut table) = (0, 0, 0);
                let hop = xbw.lookup_traced(addr, &mut |off, _| match off {
                    off if off < si_bytes => si += 1,
                    off if off < table_at => sa += 1,
                    _ => table += 1,
                });
                assert_eq!(hop, trie.lookup(addr), "{storage:?} {addr:#x}");
                // Levels walked are the leaf's depth + 1.
                let want = (levels - i32::from(ROOT_BITS)).max(0);
                assert_eq!(si, want, "{storage:?} {addr:#x}");
                assert_eq!(table, 1, "{storage:?} {addr:#x}");
                if storage == XbwStorage::Succinct {
                    assert_eq!(sa, 1, "one packed label word, {addr:#x}");
                }
            }
            let mut batch = vec![None; keys.len()];
            xbw.lookup_batch(&keys, &mut batch);
            for (&addr, &hop) in keys.iter().zip(&batch) {
                assert_eq!(hop, trie.lookup(addr), "{storage:?} batch {addr:#x}");
            }
        }
    }

    #[test]
    fn a_loaded_image_derives_the_built_table() {
        use crate::image::{any_view, write_image, ImageCodec};
        use crate::AnyView;
        let trie = dfz(3_000, 0x1AD);
        let mut v6: BinaryTrie<u128> = BinaryTrie::new();
        v6.insert("::/0".parse().unwrap(), nh(1));
        v6.insert("2001:db8::1/128".parse().unwrap(), nh(2));
        for storage in ALL_STORAGES {
            let xbw = XbwFib::build(&trie, storage);
            // The owned view borrows the engine's own table.
            assert!(std::ptr::eq(xbw.view().root, &xbw.root), "{storage:?}");
            let bytes = write_image(&xbw, None, 0).unwrap();
            let image = FibImage::from_bytes(&bytes).unwrap();
            // The header claims the table's resident bytes exactly, and so
            // does the view.
            assert_eq!(xbw.size_report().root_bits, 512 * 8);
            assert_eq!(image.claimed_size_bytes(), xbw.size_bytes() as u64);
            let view = <XbwFib<u32> as ImageCodec<u32>>::view(&image).unwrap();
            assert_eq!(view.root, &xbw.root, "{storage:?}");
            assert_eq!(view.size_bytes(), view.payload_words() * 8 + 512);
            // The first view derived the table in the image's record;
            // every later view borrows that one, erased or not, and so
            // does a clone's.
            let kept = image.validated::<u32, XbwFib<u32>, RootTable>(|| {
                panic!("the first view recorded the table")
            });
            let kept = kept.unwrap();
            assert!(std::ptr::eq(view.root, kept), "{storage:?}");
            let again = <XbwFib<u32> as ImageCodec<u32>>::view(&image).unwrap();
            let Ok(AnyView::Xbw(erased)) = any_view::<u32>(&image) else {
                panic!("{storage:?}: an XBW-b image");
            };
            let clone = image.clone();
            let cloned = <XbwFib<u32> as ImageCodec<u32>>::view(&clone).unwrap();
            for borrowed in [again, erased, cloned] {
                assert!(std::ptr::eq(borrowed.root, kept), "{storage:?}");
            }
            for addr in [0u32, 0x8000_0000, 0xC000_0001, u32::MAX] {
                assert_eq!(
                    view.lookup(addr),
                    trie.lookup(addr),
                    "{storage:?} {addr:#x}"
                );
            }

            let xbw6: XbwFib<u128> = XbwFib::build(&v6, storage);
            let bytes = write_image(&xbw6, None, 0).unwrap();
            let image = FibImage::from_bytes(&bytes).unwrap();
            let view = <XbwFib<u128> as ImageCodec<u128>>::view(&image).unwrap();
            assert_eq!(view.root, &xbw6.root, "{storage:?} v6");
        }
    }

    #[test]
    fn a_load_refuses_an_s_i_whose_top_levels_leave_the_string() {
        use crate::image::{write_image, EngineKind, ImageCodec};
        const OUT: StorageError = StorageError("S_I top levels leave the string");
        let trie = dfz(3_000, 0xBAD);
        for storage in ALL_STORAGES {
            let xbw = XbwFib::build(&trie, storage);
            let good = FibImage::from_bytes(&write_image(&xbw, None, 0).unwrap()).unwrap();
            let si = good.section(sections::XBW_SI).unwrap().to_vec();
            // The image's view with its S_I words replaced by `si`.
            let parse = |si: &[u64]| {
                let mut writer = ImageWriter::new::<u32>(EngineKind::Xbw, 0, 0);
                for &(id, _) in EngineKind::Xbw.sections() {
                    let words = if id == sections::XBW_SI {
                        si
                    } else {
                        good.section(id).unwrap()
                    };
                    writer.section(id, words);
                }
                let image = FibImage::from_bytes(&writer.finish()).unwrap();
                <XbwFib<u32> as ImageCodec<u32>>::view(&image).err()
            };
            assert_eq!(parse(&si), None, "{storage:?}");
            let mut hostile = Vec::new();
            match storage {
                XbwStorage::Succinct => {
                    // Words 0–7 are the rank vector's meta block, word 8
                    // the count of ones before line 0: one past the root's
                    // position sends the first step's rank arithmetic below
                    // position 0.
                    for count in [1, 2, 1 << 20, u64::MAX] {
                        let mut bad = si.clone();
                        bad[8] = count;
                        hostile.push((bad, OUT));
                    }
                }
                XbwStorage::Entropy => {
                    // Words 0–7 are the RRR meta block (length, ones,
                    // offset bits), then the 6-bit classes, the offset
                    // stream, and the superblock directory, whose entry 0
                    // holds the offset-stream position of block 0 in its
                    // high half.
                    let (len, off_bits) = (si[0] as usize, si[2]);
                    let sup0 =
                        8 + (len.div_ceil(63) * 6).div_ceil(64) + off_bits.div_ceil(64) as usize;
                    for pos in [off_bits, u64::from(u32::MAX)] {
                        let mut bad = si.clone();
                        bad[sup0] = bad[sup0] & 0xFFFF_FFFF | pos << 32;
                        hostile
                            .push((bad, StorageError("rrr directory points outside the stream")));
                    }
                }
            }
            for (bad, err) in hostile {
                assert_eq!(parse(&bad), Some(err.into()), "{storage:?}");
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
