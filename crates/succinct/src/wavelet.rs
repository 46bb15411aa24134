//! Huffman-shaped wavelet trees over RRR-compressed node bit vectors:
//! the `n·H0 + o(n)`-bit string self-index (Ferragina–Manzini–Mäkinen–
//! Navarro) that stores XBW-b's label string `S_α` in the entropy mode of
//! Lemma 3.
//!
//! It is the only shape and node backing: the entropy mode is the tree's
//! one caller, and a balanced shape or plain node vectors would be
//! storage modes the paper proves no bound for.
//!
//! [`WaveletTree`] is the builder: it shapes the tree, sizes it, and
//! serializes it into one aligned word run ([`WaveletTree::write_words`]):
//! a meta block, a fixed-width node table, and each node's RRR vector as a
//! nested storage section. Every read runs on the zero-copy
//! [`WaveletTreeRef`] over that run, whether the words are a built
//! engine's or a loaded image's. It answers `access` — the only primitive
//! the XBW-b lookup walk needs — by descending the node table and
//! materializing each node's [`crate::RrrVecRef`] on the fly from
//! borrowed words (no allocation, no copies).

use crate::bits::BitVec;
use crate::huffman::{self, Code};
use crate::rrr::{RrrVec, RrrVecRef};
use crate::storage::{self, meta_usize, pad_to_block, StorageError, BLOCK_WORDS};

/// The meta block's node-backing word: always 1, RRR. It stays in the
/// encoding so images keep their bytes; the loader and lint refuse any
/// other value.
const RRR_BACKING: u64 = 1;

/// The descent step of [`WaveletTreeRef::access`]: bit `i` and
/// `rank1(i)` from one fused RRR block decode, mapped to `(bit, r)` with
/// `r` = `rank1(i)` for a set bit and `rank0(i)` for a clear one — the
/// position in the child the bit selects.
#[inline]
fn descend((bit, r1): (bool, usize), i: usize) -> (bool, usize) {
    (bit, if bit { r1 } else { i - r1 })
}

/// Reference to a wavelet-tree child: an internal node, a leaf holding one
/// symbol, or absent (the root of a tree with at most one distinct
/// symbol; the serialized `none` tag).
#[derive(Clone, Copy, Debug)]
enum ChildRef {
    Node(u32),
    Leaf(u64),
    None,
}

#[derive(Clone, Debug)]
struct WtNode {
    bits: RrrVec,
    left: ChildRef,
    right: ChildRef,
}

/// The builder of a static sequence over a small alphabet: one RRR
/// vector per node of the Huffman code tree, holding at each position
/// the code bit that sends the symbol there to the left or right child.
/// It sizes and writes the words; [`WaveletTreeRef`] reads them.
#[derive(Clone, Debug)]
pub struct WaveletTree {
    nodes: Vec<WtNode>,
    codes: Vec<Code>,
    root: ChildRef,
    /// Set when at most one distinct symbol exists (its code is empty).
    single: Option<u64>,
    len: usize,
}

impl WaveletTree {
    /// Builds the Huffman-shaped, RRR-backed tree over `seq`:
    /// `n·H0 + o(n)` bits (Huffman's one-bit-per-symbol floor removed by
    /// the RRR nodes), O(average code length) expected query depth.
    ///
    /// # Panics
    /// Panics if any symbol is `≥ sigma`.
    #[must_use]
    pub fn new(seq: &[u64], sigma: usize) -> Self {
        let mut freqs = vec![0u64; sigma];
        for &s in seq {
            assert!(
                (s as usize) < sigma,
                "symbol {s} out of alphabet 0..{sigma}"
            );
            freqs[s as usize] += 1;
        }
        let mut tree = Self {
            nodes: Vec::new(),
            codes: huffman::build_codes(&freqs),
            root: ChildRef::None,
            single: None,
            len: seq.len(),
        };
        let distinct: std::collections::BTreeSet<u64> = seq.iter().copied().collect();
        if distinct.len() <= 1 {
            tree.single = distinct.into_iter().next();
            return tree;
        }
        // With ≥ 2 distinct symbols every present code has len ≥ 1.
        tree.root = tree.build_node(seq.to_vec(), 0);
        tree
    }

    fn build_node(&mut self, seq: Vec<u64>, depth: u8) -> ChildRef {
        debug_assert!(!seq.is_empty());
        let mut bits = BitVec::with_capacity(seq.len());
        let mut zeros = Vec::new();
        let mut ones = Vec::new();
        for &s in &seq {
            let bit = self.codes[s as usize].bit(depth);
            bits.push(bit);
            if bit {
                ones.push(s);
            } else {
                zeros.push(s);
            }
        }
        drop(seq);
        let left = self.build_child(zeros, depth + 1);
        let right = self.build_child(ones, depth + 1);
        let idx = self.nodes.len() as u32;
        self.nodes.push(WtNode {
            bits: RrrVec::new(&bits),
            left,
            right,
        });
        ChildRef::Node(idx)
    }

    fn build_child(&mut self, seq: Vec<u64>, depth: u8) -> ChildRef {
        if seq.is_empty() {
            return ChildRef::None;
        }
        let first = seq[0];
        if self.codes[first as usize].len == depth && seq.iter().all(|&s| s == first) {
            return ChildRef::Leaf(first);
        }
        self.build_node(seq, depth)
    }

    /// Footprint in bits: all node RRR vectors (with their sampled rank
    /// directories) plus the per-symbol code table.
    #[must_use]
    pub fn size_bits(&self) -> usize {
        let nodes: usize = self.nodes.iter().map(|n| n.bits.size_bits()).sum();
        nodes + self.codes.len() * (64 + 8)
    }

    /// Serializes the tree as one aligned word run: an 8-word meta block
    /// (length, node count, root, single symbol, the backing word — always
    /// 1, RRR —, run length), a 4-word-per-node table (children + payload
    /// offset), then each node's RRR vector as a nested aligned section. Codes are *not*
    /// serialized: [`WaveletTreeRef`] only answers `access`, which descends
    /// by stored bits alone.
    pub fn write_words(&self, out: &mut Vec<u64>) {
        debug_assert_eq!(out.len() % BLOCK_WORDS, 0, "section must start aligned");
        let base = out.len();
        out.extend_from_slice(&[
            self.len as u64,
            self.nodes.len() as u64,
            pack_child(self.root),
            match self.single {
                Some(s) => (1u64 << 63) | s,
                None => 0,
            },
            RRR_BACKING,
            0, // patched below: total words of this run
            0,
            0,
        ]);
        let table_at = out.len();
        out.extend(std::iter::repeat_n(0u64, self.nodes.len() * 4));
        pad_to_block(out);
        for (idx, node) in self.nodes.iter().enumerate() {
            let payload_off = (out.len() - base) as u64;
            node.bits.write_words(out);
            out[table_at + idx * 4] = pack_child(node.left);
            out[table_at + idx * 4 + 1] = pack_child(node.right);
            out[table_at + idx * 4 + 2] = payload_off;
        }
        out[base + 5] = (out.len() - base) as u64;
    }
}

/// Child-reference packing for the serialized node table: tag in the top
/// two bits (0 = none, 1 = node, 2 = leaf), value below.
fn pack_child(c: ChildRef) -> u64 {
    match c {
        ChildRef::None => 0,
        ChildRef::Node(n) => (1u64 << 62) | u64::from(n),
        ChildRef::Leaf(s) => {
            debug_assert!(s < (1u64 << 62));
            (2u64 << 62) | s
        }
    }
}

fn unpack_child(w: u64) -> Result<ChildRef, StorageError> {
    let value = w & ((1u64 << 62) - 1);
    match w >> 62 {
        0 => Ok(ChildRef::None),
        1 => u32::try_from(value)
            .map(ChildRef::Node)
            .map_err(|_| StorageError("wavelet node index too large")),
        2 => Ok(ChildRef::Leaf(value)),
        _ => Err(StorageError("wavelet child tag invalid")),
    }
}

/// Borrowed zero-copy view of a serialized [`WaveletTree`], supporting
/// `access` (the primitive the XBW-b lookup walk consumes).
#[derive(Clone, Copy, Debug)]
pub struct WaveletTreeRef<'a> {
    /// The full serialized run (meta + table + payloads).
    words: &'a [u64],
    n_nodes: usize,
    root: u64,
    single: Option<u64>,
    len: usize,
}

impl<'a> WaveletTreeRef<'a> {
    /// Parses and validates a view from words written by
    /// [`WaveletTree::write_words`], borrowing — never copying — the node
    /// payloads. Validation parses every node once (children in range and
    /// strictly decreasing, each child node as long as the positions its
    /// parent sends it, payload sections well-formed, every node vector's
    /// directory audited by [`RrrVecRef::audit`]), so descent cannot loop
    /// or panic on inputs that pass. Returns the view and the
    /// number of words consumed.
    ///
    /// # Errors
    /// [`StorageError`] on truncated or structurally inconsistent input.
    pub fn from_words(words: &'a [u64]) -> Result<(Self, usize), StorageError> {
        let meta = storage::slice(words, 0, BLOCK_WORDS)?;
        let len = meta_usize(meta[0])?;
        let n_nodes = meta_usize(meta[1])?;
        if meta[4] != RRR_BACKING {
            return Err(StorageError("wavelet backing invalid"));
        }
        let consumed = meta_usize(meta[5])?;
        if consumed > words.len() || consumed % BLOCK_WORDS != 0 {
            return Err(StorageError("wavelet run truncated"));
        }
        let view = Self::from_words_trusted(words);
        // Structural validation: every child reference in range, node
        // indices strictly decreasing parent → child (the builder pushes
        // children first), every payload parseable and length-consistent.
        storage::slice(words, BLOCK_WORDS, n_nodes * 4)?;
        match unpack_child(view.root)? {
            ChildRef::Node(n) if (n as usize) >= n_nodes => {
                return Err(StorageError("wavelet root out of range"))
            }
            ChildRef::Node(n) if view.node(n as usize)?.2.len() != len => {
                return Err(StorageError("wavelet root length disagrees"))
            }
            _ => {}
        }
        for idx in 0..n_nodes {
            let (left, right, bits) = view.node(idx)?;
            // Each child holds exactly the positions whose bit sends them
            // there, so a descent's rank stays inside the child.
            for (child, positions) in [(left, bits.count_zeros()), (right, bits.count_ones())] {
                match unpack_child(child)? {
                    ChildRef::Node(c) if c as usize >= idx => {
                        return Err(StorageError("wavelet child does not decrease"));
                    }
                    ChildRef::Node(c) if view.node(c as usize)?.2.len() != positions => {
                        return Err(StorageError("wavelet child length disagrees"));
                    }
                    // A descent that reached it would have no symbol.
                    ChildRef::None => return Err(StorageError("wavelet node has an empty child")),
                    _ => {}
                }
            }
            if bits.is_empty() {
                return Err(StorageError("wavelet node is empty"));
            }
            bits.audit()?;
        }
        if len > 0 && view.single.is_none() && matches!(unpack_child(view.root)?, ChildRef::None) {
            return Err(StorageError("wavelet sequence has no storage"));
        }
        Ok((view, consumed))
    }

    /// The view over words [`WaveletTree::write_words`] wrote, or that
    /// [`Self::from_words`] has validated before: it reads the meta block
    /// only, with no node scan, so it costs the same for any tree.
    ///
    /// # Panics
    /// Panics if `words` is shorter than the run its meta block claims,
    /// which neither source ever is.
    #[must_use]
    #[inline]
    pub fn from_words_trusted(words: &'a [u64]) -> Self {
        let meta = &words[..BLOCK_WORDS];
        Self {
            words: &words[..meta[5] as usize],
            n_nodes: meta[1] as usize,
            root: meta[2],
            single: (meta[3] >> 63 == 1).then_some(meta[3] & !(1u64 << 63)),
            len: meta[0] as usize,
        }
    }

    /// The largest symbol [`Self::access`] can return: the single
    /// symbol, else the largest leaf of the node table, reached or not;
    /// `None` when the tree holds no symbol.
    ///
    /// # Panics
    /// Panics if the node table is shorter than the meta block claims,
    /// which it never is in a run [`Self::from_words`] validated.
    #[must_use]
    pub fn max_symbol(&self) -> Option<u64> {
        if self.single.is_some() {
            return self.single;
        }
        let table = &self.words[BLOCK_WORDS..BLOCK_WORDS + self.n_nodes * 4];
        let children = table.chunks_exact(4).flat_map(|rec| [rec[0], rec[1]]);
        (std::iter::once(self.root).chain(children))
            .filter_map(|packed| match unpack_child(packed) {
                Ok(ChildRef::Leaf(symbol)) => Some(symbol),
                _ => None,
            })
            .max()
    }

    /// The pointer range of the borrowed run, for zero-copy assertions in
    /// tests.
    #[must_use]
    pub fn payload_ptr_range(&self) -> std::ops::Range<usize> {
        let start = self.words.as_ptr() as usize;
        start..start + std::mem::size_of_val(self.words)
    }

    /// Node `idx`: `(packed left, packed right, bits view)`.
    #[inline]
    fn node(&self, idx: usize) -> Result<(u64, u64, RrrVecRef<'a>), StorageError> {
        if idx >= self.n_nodes {
            return Err(StorageError("wavelet node index out of range"));
        }
        let rec = storage::slice(self.words, BLOCK_WORDS + idx * 4, 4)?;
        let payload_off = meta_usize(rec[2])?;
        let payload = self
            .words
            .get(payload_off..)
            .ok_or(StorageError("wavelet payload offset out of range"))?;
        Ok((rec[0], rec[1], RrrVecRef::from_words(payload)?.0))
    }

    /// Sequence length.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the sequence is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The symbol at position `i` (the paper's `access(S, q)` primitive).
    ///
    /// # Panics
    /// Panics in debug builds if `i >= len()`.
    /// Release builds elide the check on the packet path.
    #[must_use]
    pub fn access(&self, i: usize) -> u64 {
        debug_assert!(i < self.len, "index {i} out of bounds (len {})", self.len);
        if let Some(s) = self.single {
            return s;
        }
        let mut node_ref = unpack_child(self.root).expect("validated at parse"); // fibcheck: allow(hot-path): image validated at parse; a miss here is unreachable
        let mut pos = i;
        loop {
            match node_ref {
                ChildRef::Node(n) => {
                    let (left, right, bits) = self.node(n as usize).expect("validated at parse"); // fibcheck: allow(hot-path): image validated at parse; a miss here is unreachable
                    let (bit, mapped) = descend(bits.access_rank1(pos), pos);
                    pos = mapped;
                    let child = if bit { right } else { left };
                    // A dangling child is impossible in a parse-validated
                    // image; route it to the None arm below.
                    node_ref = unpack_child(child).unwrap_or(ChildRef::None);
                }
                ChildRef::Leaf(s) => return s,
                ChildRef::None => unreachable!("access walked into an empty branch"), // fibcheck: allow(hot-path): statically impossible: built trees have no dangling child on an in-bounds path
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The words `WaveletTree::new(seq, sigma)` writes.
    fn written(seq: &[u64], sigma: usize) -> Vec<u64> {
        let mut words = Vec::new();
        WaveletTree::new(seq, sigma).write_words(&mut words);
        words
    }

    /// Both views over the written tree read `seq` back, position by
    /// position.
    fn check_access(seq: &[u64], sigma: usize) {
        let words = written(seq, sigma);
        let (checked, consumed) = WaveletTreeRef::from_words(&words).unwrap();
        assert_eq!(consumed, words.len());
        let trusted = WaveletTreeRef::from_words_trusted(&words);
        for view in [checked, trusted] {
            assert_eq!(view.len(), seq.len());
            assert_eq!(view.max_symbol(), seq.iter().max().copied());
            assert_eq!(view.payload_ptr_range(), checked.payload_ptr_range());
            for (i, &s) in seq.iter().enumerate() {
                assert_eq!(view.access(i), s, "access({i})");
            }
        }
    }

    fn pseudo_seq(n: usize, sigma: u64, salt: u64) -> Vec<u64> {
        (0..n as u64)
            .map(|i| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(salt) >> 17) % sigma)
            .collect()
    }

    #[test]
    fn huffman_small_alphabet() {
        check_access(&pseudo_seq(300, 4, 2), 4);
    }

    #[test]
    fn non_power_of_two_alphabet() {
        check_access(&pseudo_seq(257, 5, 3), 5);
        check_access(&pseudo_seq(257, 5, 4), 5);
    }

    #[test]
    fn skewed_distribution() {
        // 90% zeros, tail spread over 7 other symbols.
        let seq: Vec<u64> = (0..500u64)
            .map(|i| if i % 10 != 0 { 0 } else { 1 + (i / 10) % 7 })
            .collect();
        check_access(&seq, 8);
    }

    #[test]
    fn single_distinct_symbol() {
        // One symbol takes no node: the meta block answers every access.
        let seq = vec![3u64; 50];
        let words = written(&seq, 6);
        assert_eq!(words[1], 0, "no nodes");
        check_access(&seq, 6);
    }

    #[test]
    fn empty_sequence() {
        let words = written(&[], 4);
        assert!(WaveletTreeRef::from_words(&words).unwrap().0.is_empty());
        assert!(WaveletTreeRef::from_words_trusted(&words).is_empty());
    }

    #[test]
    fn absent_symbol_queries() {
        // Symbols 0..3 of an alphabet of 10: the absent seven take no
        // node, so three present symbols make a two-node tree.
        let seq = pseudo_seq(100, 3, 9);
        assert_eq!(written(&seq, 10)[1], 2);
        check_access(&seq, 10);
    }

    #[test]
    fn huffman_shape_compresses_skewed_input() {
        let n = 60_000usize;
        // ~97% symbol 0 out of 16 symbols: H0 ≈ 0.3, lg σ = 4.
        let seq: Vec<u64> = (0..n as u64)
            .map(|i| if i % 32 == 0 { 1 + (i / 32) % 15 } else { 0 })
            .collect();
        // What fixed-width codes store before any rank directory.
        let fixed_width_bits = n * 4;
        let huf = WaveletTree::new(&seq, 16);
        assert!(
            huf.size_bits() * 2 < fixed_width_bits,
            "huffman {} not < half of the fixed-width {fixed_width_bits}",
            huf.size_bits()
        );
    }

    #[test]
    fn rrr_backing_breaks_the_one_bit_floor() {
        // 97% of symbols are 0: H0 ≈ 0.3 but Huffman codes alone cannot
        // go below 1 bit/symbol. With RRR-compressed nodes the total must
        // drop well under n bits.
        let n = 60_000usize;
        let seq: Vec<u64> = (0..n as u64)
            .map(|i| if i % 32 == 0 { 1 + (i / 32) % 15 } else { 0 })
            .collect();
        let rrr = WaveletTree::new(&seq, 16);
        assert!(
            rrr.size_bits() < n * 2 / 3,
            "RRR-backed tree too large: {} bits for {n} symbols",
            rrr.size_bits()
        );
    }

    #[test]
    fn larger_alphabet_roundtrip() {
        check_access(&pseudo_seq(2000, 64, 11), 64);
    }

    #[test]
    fn serialized_view_access_matches_owned() {
        for (n, sigma) in [(2000usize, 9u64), (700, 2), (64, 33)] {
            let seq = pseudo_seq(n, sigma, 77);
            let words = written(&seq, sigma as usize);
            assert_eq!(words.len() % 8, 0);
            assert_eq!(words[4], RRR_BACKING);
            let arena = crate::storage::Arena::from_words(&words);
            let (view, consumed) = WaveletTreeRef::from_words(arena.words()).unwrap();
            assert_eq!(consumed, words.len());
            let arena_range = arena.words().as_ptr_range();
            let pr = view.payload_ptr_range();
            assert!(pr.start >= arena_range.start as usize && pr.end <= arena_range.end as usize);
            for (i, &s) in seq.iter().enumerate() {
                assert_eq!(view.access(i), s, "access({i})");
            }
        }
    }

    #[test]
    fn serialized_single_symbol_and_empty() {
        for seq in [vec![5u64; 40], Vec::new()] {
            check_access(&seq, 8);
        }
    }

    #[test]
    fn serialized_view_rejects_corruption() {
        let words = written(&pseudo_seq(900, 5, 3), 5);
        for cut in [0usize, 5, 8, 24, words.len() - 8] {
            assert!(WaveletTreeRef::from_words(&words[..cut]).is_err(), "{cut}");
        }
        // Any backing word but RRR's 1 is refused.
        for backing in [0, 7] {
            let mut bad = words.clone();
            bad[4] = backing;
            assert!(
                WaveletTreeRef::from_words(&bad).is_err(),
                "backing {backing}"
            );
        }
        let mut bad = words.clone();
        bad[8] = (1u64 << 62) | u64::from(u32::MAX); // child points out of range
        assert!(WaveletTreeRef::from_words(&bad).is_err());
        // An empty child, or an empty root over symbols, leaves a descent
        // with no symbol to return.
        let empty = StorageError("wavelet node has an empty child");
        let mut bad = words.clone();
        bad[8] = 0;
        assert_eq!(WaveletTreeRef::from_words(&bad).err(), Some(empty));
        let mut bad = words.clone();
        bad[2] = 0;
        let none = StorageError("wavelet sequence has no storage");
        assert_eq!(WaveletTreeRef::from_words(&bad).err(), Some(none));
        let mut bad = words.clone();
        bad[5] = u64::MAX; // claimed length past the buffer
        assert!(WaveletTreeRef::from_words(&bad).is_err());
        // A node vector's superblock pointing past its offset stream is
        // what the RRR audit refuses.
        let node0 = words[BLOCK_WORDS + 2] as usize;
        let (len, off_bits) = (words[node0] as usize, words[node0 + 2] as usize);
        let sup0 =
            node0 + BLOCK_WORDS + (len.div_ceil(63) * 6).div_ceil(64) + off_bits.div_ceil(64);
        let mut bad = words.clone();
        bad[sup0] |= u64::from(u32::MAX) << 32;
        let directory = StorageError("rrr superblock disagrees with the classes");
        assert_eq!(WaveletTreeRef::from_words(&bad).err(), Some(directory));
        // Swapped children of unequal counts: each is as long as the
        // other side's positions.
        let view = WaveletTreeRef::from_words(&words).unwrap().0;
        let root = match unpack_child(view.root).unwrap() {
            ChildRef::Node(n) => n as usize,
            _ => unreachable!("five symbols need a node"),
        };
        let bits = view.node(root).unwrap().2;
        assert_ne!(bits.count_ones(), bits.count_zeros());
        let rec = BLOCK_WORDS + root * 4;
        let mut bad = words;
        bad.swap(rec, rec + 1);
        let length = StorageError("wavelet child length disagrees");
        assert_eq!(WaveletTreeRef::from_words(&bad).err(), Some(length));
    }
}
