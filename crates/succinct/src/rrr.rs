//! RRR compressed bit vector (Raman–Raman–Rao, SODA 2002).
//!
//! The bit string is split into 63-bit blocks. Each block is stored as a
//! *class* (its popcount, 6 bits) plus an *offset* (the block's index among
//! all 63-bit words of that popcount, `⌈lg C(63,k)⌉` bits), encoded with the
//! combinatorial number system. Low- and high-popcount blocks get short
//! offsets, so the total is `n·H0 + o(n)` bits: this is the structure
//! Lemma 2/3 of the paper uses to store the trie shape string `S_I` of
//! XBW-b. A two-level directory provides `rank`/`access` with a tightly
//! bounded scan: one superblock entry (rank count + offset-stream position
//! every 32 blocks, as two `u32`s) plus a packed sub-sample every 8 blocks,
//! so a query scans at most 7 six-bit classes before decoding its block.
//! Classes 0, 1, 2 and 63 skip the 63-step combinatorial decode entirely
//! (zero/full blocks read nothing, near-empty blocks are resolved from the
//! offset directly or a table).
//!
//! Per the crate's storage discipline the type splits into the owned
//! builder [`RrrVec`] — whose four streams (classes, offsets, superblocks,
//! sub-samples) are frozen into one contiguous aligned [`Arena`] — and the
//! zero-copy view [`RrrVecRef`] that carries all query code and can be
//! parsed straight out of a loaded FIB image.

use std::sync::OnceLock;

use crate::bits::BitVec;
use crate::intvec::IntVec;
use crate::storage::{
    self, meta_usize, pad_to_block, push_u32s, words_for_u32s, Arena, StorageError, BLOCK_WORDS,
};

/// Bits per RRR block. 63 keeps every offset and every binomial in a `u64`.
const BLOCK: usize = 63;
/// Blocks per superblock.
const SUPER: usize = 32;
/// Blocks per sub-sample within a superblock.
const SUB: usize = 8;
/// Sub-samples stored per (full) superblock: before blocks 8, 16 and 24.
const SUBS_PER_SUPER: usize = SUPER / SUB - 1;

/// Pascal's triangle up to C(63, k), in `u64`.
fn binomials() -> &'static [[u64; BLOCK + 1]; BLOCK + 1] {
    static TABLE: OnceLock<[[u64; BLOCK + 1]; BLOCK + 1]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut c = [[0u64; BLOCK + 1]; BLOCK + 1];
        for n in 0..=BLOCK {
            c[n][0] = 1;
            for k in 1..=n {
                c[n][k] = c[n - 1][k - 1] + if k < n { c[n - 1][k] } else { 0 };
            }
        }
        c
    })
}

/// Offset widths `⌈lg C(63,k)⌉` per class.
fn offset_widths() -> &'static [u32; BLOCK + 1] {
    static WIDTHS: OnceLock<[u32; BLOCK + 1]> = OnceLock::new();
    WIDTHS.get_or_init(|| {
        let c = binomials();
        let mut w = [0u32; BLOCK + 1];
        for (k, entry) in w.iter_mut().enumerate() {
            *entry = crate::ceil_log2(c[BLOCK][k]);
        }
        w
    })
}

/// Offset → pattern table for class 2 (C(63,2) = 1953 entries): two-bit
/// blocks are common in trie shape strings, and the table turns their
/// 63-step decode into one load.
fn class2_patterns() -> &'static Vec<u64> {
    static TABLE: OnceLock<Vec<u64>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let n = binomials()[BLOCK][2] as usize;
        let mut t = vec![0u64; n]; // fibcheck: allow(hot-path): one-time OnceLock table build, amortized to zero per probe
        for hi in 1..BLOCK {
            for lo in 0..hi {
                let pattern = (1u64 << hi) | (1u64 << lo);
                t[encode_offset(pattern, 2) as usize] = pattern;
            }
        }
        t
    })
}

/// Ranks `pattern` (LSB-first, `k = popcount`) in the lexicographic order of
/// all 63-bit patterns with that popcount, via the combinatorial number
/// system: scanning positions MSB → LSB, a set bit at position `j` skips the
/// `C(j, k_remaining)` patterns that have a clear bit there.
#[inline]
fn encode_offset(pattern: u64, k: usize) -> u64 {
    let c = binomials();
    let mut offset = 0u64;
    let mut remaining = k;
    let mut j = BLOCK;
    while remaining > 0 {
        j -= 1;
        if (pattern >> j) & 1 == 1 {
            offset += c[j][remaining];
            remaining -= 1;
        }
    }
    offset
}

/// Inverse of [`encode_offset`].
#[inline]
fn decode_offset(mut offset: u64, k: usize) -> u64 {
    let c = binomials();
    let mut pattern = 0u64;
    let mut remaining = k;
    let mut j = BLOCK;
    while remaining > 0 {
        j -= 1;
        let skip = c[j][remaining];
        if offset >= skip {
            offset -= skip;
            pattern |= 1u64 << j;
            remaining -= 1;
        }
    }
    pattern
}

/// An immutable, entropy-compressed bit vector with constant-time `rank`
/// and `access` and O(log n) `select`.
///
/// Owned builder; all queries forward to the zero-copy [`RrrVecRef`].
#[derive(Clone, Debug)]
pub struct RrrVec {
    arena: Arena,
    len: usize,
    ones: usize,
    n_blocks: usize,
    /// Length of the offset stream in bits.
    off_bits: usize,
    /// Superblock entries, sentinel included.
    n_sup: usize,
    /// Packed sub-sample entries.
    n_sub: usize,
}

/// Borrowed zero-copy view of an [`RrrVec`].
#[derive(Clone, Copy, Debug)]
pub struct RrrVecRef<'a> {
    /// The whole payload as one slice — 6-bit classes (packed, at word
    /// 0), the variable-width offset stream, the superblock directory
    /// (one word each: ones strictly before it in the low 32 bits, offset
    /// bit position in the high 32), then the packed sub-samples
    /// (`ones_within << 16 | offset_bits_within` per entry, two per
    /// word). One slice + offsets keeps [`RrrVec::view`] nearly free,
    /// which matters because every owned query goes through it.
    words: &'a [u64],
    /// Word offset of the offset stream.
    off_off: usize,
    /// Word offset of the superblock directory.
    sup_off: usize,
    /// Word offset of the sub-samples.
    sub_off: usize,
    len: usize,
    ones: usize,
    n_blocks: usize,
    off_bits: usize,
    n_sup: usize,
}

/// Expected stream sizes for a vector of `len` bits: `(n_blocks, n_sup,
/// n_sub)`.
fn stream_shape(len: usize) -> (usize, usize, usize) {
    let n_blocks = len.div_ceil(BLOCK);
    let n_sup = n_blocks.div_ceil(SUPER) + 1;
    let n_sub = n_blocks.div_ceil(SUB) - n_blocks.div_ceil(SUPER);
    (n_blocks, n_sup, n_sub)
}

impl RrrVec {
    /// Compresses `bits`.
    ///
    /// # Panics
    /// Panics if `bits` exceeds `u32::MAX` bits — far beyond any FIB.
    #[must_use]
    pub fn new(bits: &BitVec) -> Self {
        assert!(
            bits.len() < u32::MAX as usize,
            "RrrVec limited to 2^32 bits"
        );
        let widths = offset_widths();
        let n_blocks = bits.len().div_ceil(BLOCK);
        let mut classes = IntVec::new(6);
        let mut offsets = BitVec::new();
        let mut sup: Vec<u64> = Vec::with_capacity(n_blocks / SUPER + 2);
        let mut sub: Vec<u32> = Vec::with_capacity(n_blocks / SUB + 1);
        let mut ones: u64 = 0;
        let (mut sup_ones, mut sup_pos) = (0u64, 0usize);
        for b in 0..n_blocks {
            if b % SUPER == 0 {
                sup.push(ones | ((offsets.len() as u64) << 32));
                (sup_ones, sup_pos) = (ones, offsets.len());
            } else if b % SUB == 0 {
                sub.push((((ones - sup_ones) as u32) << 16) | (offsets.len() - sup_pos) as u32);
            }
            let start = b * BLOCK;
            let width = (bits.len() - start).min(BLOCK) as u32;
            // Final block is implicitly padded with zeros.
            let pattern = bits.get_bits(start, width);
            let k = pattern.count_ones() as usize;
            classes.push(k as u64);
            offsets.push_bits(encode_offset(pattern, k), widths[k]);
            ones += k as u64;
        }
        // Sentinel superblock simplifies select's binary search.
        sup.push(ones | ((offsets.len() as u64) << 32));

        // Freeze the four streams into one contiguous arena.
        let (n_sup, n_sub, off_bits) = (sup.len(), sub.len(), offsets.len());
        let mut arena_words =
            Vec::with_capacity(classes.words().len() + offsets.words().len() + n_sup + n_sub);
        arena_words.extend_from_slice(classes.words());
        arena_words.extend_from_slice(offsets.words());
        arena_words.extend_from_slice(&sup);
        push_u32s(&mut arena_words, sub);
        Self {
            arena: Arena::from_words(&arena_words),
            len: bits.len(),
            ones: ones as usize,
            n_blocks,
            off_bits,
            n_sup,
            n_sub,
        }
    }

    /// The borrowed view all queries run on.
    #[must_use]
    #[inline]
    pub fn view(&self) -> RrrVecRef<'_> {
        let cw = (self.n_blocks * 6).div_ceil(64);
        let ow = self.off_bits.div_ceil(64);
        RrrVecRef {
            words: self.arena.words(),
            off_off: cw,
            sup_off: cw + ow,
            sub_off: cw + ow + self.n_sup,
            len: self.len,
            ones: self.ones,
            n_blocks: self.n_blocks,
            off_bits: self.off_bits,
            n_sup: self.n_sup,
        }
    }

    /// Serializes as one 8-word meta block followed by the arena words,
    /// padded to a 64-byte boundary.
    pub fn write_words(&self, out: &mut Vec<u64>) {
        debug_assert_eq!(out.len() % BLOCK_WORDS, 0, "section must start aligned");
        out.extend_from_slice(&[
            self.len as u64,
            self.ones as u64,
            self.off_bits as u64,
            0,
            0,
            0,
            0,
            0,
        ]);
        out.extend_from_slice(self.arena.words());
        pad_to_block(out);
    }

    /// Number of bits in the original vector.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the original vector was empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total number of set bits.
    #[must_use]
    pub fn count_ones(&self) -> usize {
        self.ones
    }

    /// Total number of clear bits.
    #[must_use]
    pub fn count_zeros(&self) -> usize {
        self.len - self.ones
    }

    /// Reads bit `i`.
    ///
    /// # Panics
    /// Panics if `i >= len()`.
    #[must_use]
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        self.view().get(i)
    }

    /// Number of set bits in `[0, i)`.
    ///
    /// # Panics
    /// Panics if `i > len()`.
    #[must_use]
    #[inline]
    pub fn rank1(&self, i: usize) -> usize {
        self.view().rank1(i)
    }

    /// Number of clear bits in `[0, i)`.
    #[must_use]
    #[inline]
    pub fn rank0(&self, i: usize) -> usize {
        self.view().rank0(i)
    }

    /// Fused `(get(i), rank1(i))` from a single block decode.
    ///
    /// # Panics
    /// Panics if `i >= len()`.
    #[must_use]
    #[inline]
    pub fn access_rank1(&self, i: usize) -> (bool, usize) {
        self.view().access_rank1(i)
    }

    /// Position of the `q`-th set bit (`q ≥ 1`), or `None`.
    #[must_use]
    pub fn select1(&self, q: usize) -> Option<usize> {
        self.view().select1(q)
    }

    /// Position of the `q`-th clear bit (`q ≥ 1`), or `None`.
    #[must_use]
    pub fn select0(&self, q: usize) -> Option<usize> {
        self.view().select0(q)
    }

    /// Footprint in bits: classes, offsets and both directory levels.
    /// The universal binomial and class-2 tables (constant, shared per
    /// process) are excluded, as is conventional.
    #[must_use]
    pub fn size_bits(&self) -> usize {
        (self.n_blocks * 6).div_ceil(64) * 64
            + self.off_bits.div_ceil(64) * 64
            + self.n_sup * 64
            + self.n_sub * 32
    }
}

impl<'a> RrrVecRef<'a> {
    /// Parses a view from words written by [`RrrVec::write_words`],
    /// borrowing — never copying — the payload. Returns the view and the
    /// number of words consumed.
    ///
    /// # Errors
    /// [`StorageError`] on truncated or structurally inconsistent input.
    pub fn from_words(words: &'a [u64]) -> Result<(Self, usize), StorageError> {
        let meta = storage::slice(words, 0, BLOCK_WORDS)?;
        let len = meta_usize(meta[0])?;
        let ones = meta_usize(meta[1])?;
        let off_bits = meta_usize(meta[2])?;
        if ones > len || len >= u32::MAX as usize {
            return Err(StorageError("rrr counts inconsistent"));
        }
        let (n_blocks, n_sup, n_sub) = stream_shape(len);
        let cw = (n_blocks * 6).div_ceil(64);
        let ow = off_bits.div_ceil(64);
        let payload_words = cw + ow + n_sup + words_for_u32s(n_sub);
        let payload = storage::slice(words, BLOCK_WORDS, payload_words)?;
        let consumed = storage::meta_run_words(payload_words);
        if consumed > words.len() {
            return Err(StorageError("rrr padding truncated"));
        }
        Ok((
            Self {
                words: payload,
                off_off: cw,
                sup_off: cw + ow,
                sub_off: cw + ow + n_sup,
                len,
                ones,
                n_blocks,
                off_bits,
                n_sup,
            },
            consumed,
        ))
    }

    /// The pointer range of the borrowed payload words, for zero-copy
    /// assertions in tests.
    #[must_use]
    pub fn payload_ptr_range(&self) -> std::ops::Range<usize> {
        let start = self.words.as_ptr() as usize;
        start..start + std::mem::size_of_val(self.words)
    }

    /// Number of bits in the original vector.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the original vector was empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total number of set bits.
    #[must_use]
    pub fn count_ones(&self) -> usize {
        self.ones
    }

    /// Total number of clear bits.
    #[must_use]
    pub fn count_zeros(&self) -> usize {
        self.len - self.ones
    }

    /// The 6-bit class of block `b` (classes start at word 0).
    #[inline]
    fn class(&self, b: usize) -> usize {
        let pos = b * 6;
        let (word, bit) = (pos / 64, pos % 64);
        let lo = self.words[word] >> bit;
        let raw = if bit > 58 {
            lo | (self.words[word + 1] << (64 - bit))
        } else {
            lo
        };
        (raw & 0x3F) as usize
    }

    /// Reads `width ≤ 64` offset-stream bits starting at bit `pos`.
    #[inline]
    fn offset_bits(&self, pos: usize, width: u32) -> u64 {
        if width == 0 {
            return 0;
        }
        debug_assert!(pos + width as usize <= self.off_bits);
        let (word, bit) = (self.off_off + pos / 64, pos % 64);
        let lo = self.words[word] >> bit;
        let have = 64 - bit;
        let raw = if (width as usize) > have {
            lo | (self.words[word + 1] << have)
        } else {
            lo
        };
        if width == 64 {
            raw
        } else {
            raw & ((1u64 << width) - 1)
        }
    }

    /// Superblock `s` as `(ones_before, offset_stream_position)`.
    #[inline]
    fn sup_entry(&self, s: usize) -> (usize, usize) {
        let w = self.words[self.sup_off + s];
        ((w & 0xFFFF_FFFF) as usize, (w >> 32) as usize)
    }

    /// Packed sub-sample entry `j`.
    #[inline]
    fn sub_entry(&self, j: usize) -> u32 {
        (self.words[self.sub_off + j / 2] >> (32 * (j % 2))) as u32
    }

    /// Decodes the pattern of a block whose class is `k` and whose offset
    /// starts at bit `pos`, short-circuiting the cheap classes.
    #[inline]
    fn pattern_at(&self, pos: usize, k: usize) -> u64 {
        match k {
            0 => 0,
            // Offset of a one-bit block *is* the bit position (C(j,1) = j).
            1 => 1u64 << self.offset_bits(pos, 6),
            2 => class2_patterns()[self.offset_bits(pos, 11) as usize],
            BLOCK => (1u64 << BLOCK) - 1,
            _ => decode_offset(self.offset_bits(pos, offset_widths()[k]), k),
        }
    }

    /// Resolves `(bit value, ones strictly below bit)` inside the block
    /// whose class is `k` and whose offset starts at `pos` — the partial
    /// decode behind `get`/`rank1`/`access_rank1`.
    ///
    /// The combinatorial decode walks positions MSB → LSB, so it can stop
    /// as soon as it reaches `bit`: the yet-unplaced ones (`remaining`)
    /// are exactly the ones below it. Halves the decode work on average
    /// versus reconstructing the full 63-bit pattern, on top of the
    /// class fast paths.
    #[inline]
    fn block_access_rank(&self, pos: usize, k: usize, bit: usize) -> (bool, usize) {
        match k {
            0 => (false, 0),
            1 => {
                let p = self.offset_bits(pos, 6) as usize;
                (p == bit, usize::from(p < bit))
            }
            2 => {
                let pattern = class2_patterns()[self.offset_bits(pos, 11) as usize];
                let below = (pattern & ((1u64 << bit) - 1)).count_ones() as usize;
                ((pattern >> bit) & 1 == 1, below)
            }
            BLOCK => (true, bit),
            _ => {
                let mut offset = self.offset_bits(pos, offset_widths()[k]);
                let c = binomials();
                let mut remaining = k;
                let mut j = BLOCK;
                while remaining > 0 && j > bit {
                    j -= 1;
                    let skip = c[j][remaining];
                    if offset >= skip {
                        offset -= skip;
                        remaining -= 1;
                        if j == bit {
                            return (true, remaining);
                        }
                    } else if j == bit {
                        return (false, remaining);
                    }
                }
                // Either every one sits below `bit` (remaining of them) or
                // the scan ran out of ones before reaching it.
                (false, remaining)
            }
        }
    }

    /// Locates block `b` in the streams, returning `(ones_before_block,
    /// offset_position, class)`.
    ///
    /// Directory walk: one superblock entry, one packed sub-sample, then a
    /// scan of at most `SUB − 1 = 7` classes.
    #[inline]
    fn locate_block(&self, b: usize) -> (usize, usize, usize) {
        let widths = offset_widths();
        let s = b / SUPER;
        let (mut ones, mut pos) = self.sup_entry(s);
        let t = (b % SUPER) / SUB;
        if t > 0 {
            let entry = self.sub_entry(s * SUBS_PER_SUPER + t - 1) as usize;
            ones += entry >> 16;
            pos += entry & 0xFFFF;
        }
        for j in (s * SUPER + t * SUB)..b {
            let k = self.class(j);
            ones += k;
            pos += widths[k] as usize;
        }
        let k = self.class(b);
        (ones, pos, k)
    }

    /// Reads bit `i`.
    ///
    /// # Panics
    /// Panics in debug builds if `i >= len()`.
    /// Release builds elide the check on the packet path.
    #[must_use]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(
            i < self.len,
            "bit index {i} out of bounds (len {})",
            self.len
        );
        let (_, pos, k) = self.locate_block(i / BLOCK);
        self.block_access_rank(pos, k, i % BLOCK).0
    }

    /// Number of set bits in `[0, i)`.
    ///
    /// # Panics
    /// Panics if `i > len()`.
    #[must_use]
    pub fn rank1(&self, i: usize) -> usize {
        assert!(
            i <= self.len,
            "rank index {i} out of bounds (len {})",
            self.len
        );
        if i == self.len {
            return self.ones;
        }
        let (ones, pos, k) = self.locate_block(i / BLOCK);
        ones + self.block_access_rank(pos, k, i % BLOCK).1
    }

    /// Number of clear bits in `[0, i)`.
    #[must_use]
    pub fn rank0(&self, i: usize) -> usize {
        i - self.rank1(i)
    }

    /// Fused `(get(i), rank1(i))` from a single block decode — the fast
    /// path for wavelet-tree descent and the XBW-b lookup loop, which
    /// always need the bit and its rank together.
    ///
    /// # Panics
    /// Panics in debug builds if `i >= len()`.
    /// Release builds elide the check on the packet path.
    #[must_use]
    #[inline]
    pub fn access_rank1(&self, i: usize) -> (bool, usize) {
        debug_assert!(
            i < self.len,
            "bit index {i} out of bounds (len {})",
            self.len
        );
        let (ones, pos, k) = self.locate_block(i / BLOCK);
        let (bit, below) = self.block_access_rank(pos, k, i % BLOCK);
        (bit, ones + below)
    }

    /// [`Self::access_rank1`] for a view over untrusted words:
    /// [`Self::from_words`] checks only the meta block, so a directory
    /// entry or a class-2 offset that points outside the streams is
    /// refused here instead of indexing past them.
    ///
    /// # Errors
    /// [`StorageError`] when `i >= len()` or the probe would leave the
    /// offset stream or the class-2 table.
    pub fn checked_access_rank1(&self, i: usize) -> Result<(bool, usize), StorageError> {
        if i >= self.len {
            return Err(StorageError("rrr index out of bounds"));
        }
        let (ones, pos, k) = self.locate_block(i / BLOCK);
        let outside = pos + offset_widths()[k] as usize > self.off_bits
            || (k == 2 && self.offset_bits(pos, 11) as usize >= class2_patterns().len());
        if outside {
            return Err(StorageError("rrr directory points outside the stream"));
        }
        let (bit, below) = self.block_access_rank(pos, k, i % BLOCK);
        Ok((bit, ones + below))
    }

    /// Position of the `q`-th set bit (`q ≥ 1`), or `None`.
    #[must_use]
    pub fn select1(&self, q: usize) -> Option<usize> {
        if q == 0 || q > self.ones {
            return None;
        }
        let target = q;
        let mut lo = 0usize;
        let mut hi = self.n_sup - 1;
        while lo + 1 < hi {
            let mid = usize::midpoint(lo, hi);
            if self.sup_entry(mid).0 < target {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let widths = offset_widths();
        let s = lo;
        let (sup_ones, sup_pos) = self.sup_entry(s);
        let mut remaining = target - sup_ones;
        let mut pos = sup_pos;
        let n_blocks = self.n_blocks;
        // Jump over whole sub-sample strides before scanning classes.
        let mut first = s * SUPER;
        for t in (1..=SUBS_PER_SUPER).rev() {
            if s * SUPER + t * SUB < n_blocks {
                let entry = self.sub_entry(s * SUBS_PER_SUPER + t - 1);
                let sub_ones = (entry >> 16) as usize;
                if sub_ones < remaining {
                    remaining -= sub_ones;
                    pos += (entry & 0xFFFF) as usize;
                    first = s * SUPER + t * SUB;
                    break;
                }
            }
        }
        for b in first..n_blocks.min((s + 1) * SUPER) {
            let k = self.class(b);
            if remaining <= k {
                let mut pattern = self.pattern_at(pos, k);
                for _ in 1..remaining {
                    pattern &= pattern - 1;
                }
                return Some(b * BLOCK + pattern.trailing_zeros() as usize);
            }
            remaining -= k;
            pos += widths[k] as usize;
        }
        unreachable!("select1: superblock directory inconsistent");
    }

    /// Position of the `q`-th clear bit (`q ≥ 1`), or `None`.
    #[must_use]
    pub fn select0(&self, q: usize) -> Option<usize> {
        if q == 0 || q > self.count_zeros() {
            return None;
        }
        let zeros_before = |s: usize| -> usize {
            let bits_before = (s * SUPER * BLOCK).min(self.len);
            bits_before - self.sup_entry(s).0
        };
        let mut lo = 0usize;
        let mut hi = self.n_sup - 1;
        while lo + 1 < hi {
            let mid = usize::midpoint(lo, hi);
            if zeros_before(mid) < q {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let widths = offset_widths();
        let s = lo;
        let mut remaining = q - zeros_before(s);
        let mut pos = self.sup_entry(s).1;
        let n_blocks = self.n_blocks;
        // Jump over whole sub-sample strides; blocks before a stored
        // sub-sample boundary are always full, so their zero count is
        // exactly `t·SUB·BLOCK − ones_within`.
        let mut first = s * SUPER;
        for t in (1..=SUBS_PER_SUPER).rev() {
            if s * SUPER + t * SUB < n_blocks {
                let entry = self.sub_entry(s * SUBS_PER_SUPER + t - 1);
                let sub_zeros = t * SUB * BLOCK - (entry >> 16) as usize;
                if sub_zeros < remaining {
                    remaining -= sub_zeros;
                    pos += (entry & 0xFFFF) as usize;
                    first = s * SUPER + t * SUB;
                    break;
                }
            }
        }
        for b in first..n_blocks.min((s + 1) * SUPER) {
            let k = self.class(b);
            let block_bits = (self.len - b * BLOCK).min(BLOCK);
            let zeros_here = block_bits - k;
            if remaining <= zeros_here {
                // Complement within the real (unpadded) width of this block;
                // block_bits ≤ 63 so the shift is always in range.
                let mask = (1u64 << block_bits) - 1;
                let mut pattern = !self.pattern_at(pos, k) & mask;
                for _ in 1..remaining {
                    pattern &= pattern - 1;
                }
                return Some(b * BLOCK + pattern.trailing_zeros() as usize);
            }
            remaining -= zeros_here;
            pos += widths[k] as usize;
        }
        unreachable!("select0: superblock directory inconsistent");
    }

    /// Footprint in bits (same accounting as [`RrrVec::size_bits`]).
    #[must_use]
    pub fn size_bits(&self) -> usize {
        let n_sub = self.n_blocks.div_ceil(SUB) - self.n_blocks.div_ceil(SUPER);
        (self.n_blocks * 6).div_ceil(64) * 64
            + self.off_bits.div_ceil(64) * 64
            + self.n_sup * 64
            + n_sub * 32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(pattern: impl Fn(usize) -> bool, n: usize) -> (Vec<bool>, RrrVec) {
        let bools: Vec<bool> = (0..n).map(pattern).collect();
        let rrr = RrrVec::new(&BitVec::from_bools(&bools));
        (bools, rrr)
    }

    #[test]
    fn offset_coding_roundtrips_every_popcount() {
        for k in 0..=BLOCK {
            // A deterministic pattern with exactly k ones.
            let pattern: u64 =
                if k == 0 { 0 } else { ((1u128 << k) - 1) as u64 } << (BLOCK - k).min(10);
            let off = encode_offset(pattern, k);
            assert_eq!(decode_offset(off, k), pattern, "class {k}");
            assert!(
                off < binomials()[BLOCK][k].max(1),
                "offset in range for class {k}"
            );
        }
    }

    #[test]
    fn offset_coding_roundtrips_pseudorandom_patterns() {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for _ in 0..2000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let pattern = x & ((1u64 << BLOCK) - 1);
            let k = pattern.count_ones() as usize;
            assert_eq!(decode_offset(encode_offset(pattern, k), k), pattern);
        }
    }

    #[test]
    fn short_class_fast_paths_agree_with_decode() {
        // Classes 0, 1, 2 and 63 take dedicated paths in pattern_at; pin
        // them against the combinatorial decoder through the public API.
        for k in [0usize, 1, 2, BLOCK] {
            let bools: Vec<bool> = (0..BLOCK)
                .map(|i| match k {
                    0 => false,
                    1 => i == 17,
                    2 => i == 3 || i == 60,
                    _ => true,
                })
                .collect();
            let (_, rrr) = build(|i| bools[i % BLOCK], BLOCK * 3);
            for i in 0..rrr.len() {
                assert_eq!(rrr.get(i), bools[i % BLOCK], "class {k}, get({i})");
            }
        }
    }

    #[test]
    fn access_matches_original() {
        let (bools, rrr) = build(|i| (i * i) % 7 < 3, 3000);
        for (i, &b) in bools.iter().enumerate() {
            assert_eq!(rrr.get(i), b, "bit {i}");
        }
    }

    #[test]
    fn rank_matches_naive() {
        let (bools, rrr) = build(|i| i % 11 == 0 || i % 4 == 1, 2500);
        let mut ones = 0;
        for i in 0..=2500 {
            if i < 2500 {
                assert_eq!(rrr.rank1(i), ones, "rank1({i})");
            }
            if i < bools.len() && bools[i] {
                ones += 1;
            }
        }
        assert_eq!(rrr.rank1(2500), ones);
        assert_eq!(rrr.count_ones(), ones);
    }

    #[test]
    fn access_rank1_fuses_get_and_rank() {
        let (bools, rrr) = build(|i| i % 7 == 0 || i % 5 == 2, 2500);
        let mut ones = 0;
        for (i, &b) in bools.iter().enumerate() {
            let (bit, rank) = rrr.access_rank1(i);
            assert_eq!(bit, b, "bit {i}");
            assert_eq!(rank, ones, "rank at {i}");
            ones += usize::from(b);
        }
    }

    #[test]
    fn select1_inverts_rank() {
        let (bools, rrr) = build(|i| i % 6 == 2, 1800);
        let mut q = 0;
        for (i, &b) in bools.iter().enumerate() {
            if b {
                q += 1;
                assert_eq!(rrr.select1(q), Some(i), "select1({q})");
            }
        }
        assert_eq!(rrr.select1(q + 1), None);
        assert_eq!(rrr.select1(0), None);
    }

    #[test]
    fn select0_inverts_rank0() {
        let (bools, rrr) = build(|i| i % 6 != 2, 1801);
        let mut q = 0;
        for (i, &b) in bools.iter().enumerate() {
            if !b {
                q += 1;
                assert_eq!(rrr.select0(q), Some(i), "select0({q})");
            }
        }
        assert_eq!(rrr.select0(q + 1), None);
    }

    #[test]
    fn select0_skips_padded_final_block() {
        // All ones, non-multiple of block size: the final block carries
        // phantom zero padding that select0 must not surface.
        let (_, rrr) = build(|_| true, BLOCK + 5);
        assert_eq!(rrr.count_zeros(), 0);
        assert_eq!(rrr.select0(1), None);
    }

    #[test]
    fn compresses_sparse_input_well_below_plain() {
        // 1% density: H0 ≈ 0.081 bits/bit. RRR(63) should land well under
        // 0.3 bits/bit including all directory overhead.
        let n = 100_000;
        let (_, rrr) = build(|i| i % 100 == 0, n);
        assert!(
            rrr.size_bits() < n * 3 / 10,
            "sparse RRR too large: {} bits for {n}",
            rrr.size_bits()
        );
    }

    #[test]
    fn dense_balanced_input_stays_near_raw_size() {
        // H0 = 1: RRR cannot beat n bits; overhead must stay under ~15%.
        let n = 100_000;
        let (bools, rrr) = build(|i| (i.wrapping_mul(2_654_435_761)) % 2 == 0, n);
        let ones = bools.iter().filter(|&&b| b).count();
        assert!(ones > n / 3 && ones < 2 * n / 3, "pattern not balanced");
        assert!(
            rrr.size_bits() < n * 115 / 100,
            "dense RRR too large: {}",
            rrr.size_bits()
        );
    }

    #[test]
    fn empty_and_tiny_vectors() {
        let (_, rrr) = build(|_| true, 0);
        assert_eq!(rrr.len(), 0);
        assert_eq!(rrr.rank1(0), 0);
        let (_, rrr) = build(|i| i == 0, 1);
        assert!(rrr.get(0));
        assert_eq!(rrr.rank1(1), 1);
        assert_eq!(rrr.select1(1), Some(0));
    }

    #[test]
    fn boundary_at_block_and_superblock_edges() {
        let (bools, rrr) = build(|i| i % 2 == 0, BLOCK * SUPER * 3 + 7);
        for i in [
            BLOCK - 1,
            BLOCK,
            BLOCK + 1,
            BLOCK * SUB - 1,
            BLOCK * SUB,
            BLOCK * SUB + 1,
            BLOCK * SUB * 2,
            BLOCK * SUB * 3 + 5,
            BLOCK * SUPER - 1,
            BLOCK * SUPER,
            BLOCK * SUPER + 1,
            BLOCK * SUPER * 2,
            bools.len() - 1,
        ] {
            assert_eq!(rrr.get(i), bools[i], "get({i})");
            let naive = bools[..i].iter().filter(|&&b| b).count();
            assert_eq!(rrr.rank1(i), naive, "rank1({i})");
        }
    }

    #[test]
    fn serialized_view_answers_identically_and_borrows() {
        let (bools, rrr) = build(|i| i % 9 == 0 || i % 5 == 2, BLOCK * SUPER * 2 + 17);
        let mut words = Vec::new();
        rrr.write_words(&mut words);
        assert_eq!(words.len() % BLOCK_WORDS, 0);
        let arena = Arena::from_words(&words);
        let (view, consumed) = RrrVecRef::from_words(arena.words()).unwrap();
        assert_eq!(consumed, words.len());
        let arena_range = arena.words().as_ptr_range();
        let pr = view.payload_ptr_range();
        assert!(pr.start >= arena_range.start as usize && pr.end <= arena_range.end as usize);
        for i in (0..bools.len()).step_by(11) {
            assert_eq!(view.get(i), bools[i], "get({i})");
            assert_eq!(view.access_rank1(i), rrr.access_rank1(i), "fused({i})");
        }
        for q in (1..=view.count_ones()).step_by(97) {
            assert_eq!(view.select1(q), rrr.select1(q));
        }
        for q in (1..=view.count_zeros()).step_by(97) {
            assert_eq!(view.select0(q), rrr.select0(q));
        }
        assert_eq!(view.size_bits(), rrr.size_bits());
    }

    #[test]
    fn from_words_rejects_corrupt_meta() {
        let (_, rrr) = build(|i| i % 4 == 1, 4000);
        let mut words = Vec::new();
        rrr.write_words(&mut words);
        for cut in [0usize, 3, 8, words.len() - 8] {
            assert!(RrrVecRef::from_words(&words[..cut]).is_err(), "cut {cut}");
        }
        let mut bad = words.clone();
        bad[1] = bad[0] + 1; // ones > len
        assert!(RrrVecRef::from_words(&bad).is_err());
        let mut bad = words;
        bad[0] = u64::from(u32::MAX); // len past the supported ceiling
        assert!(RrrVecRef::from_words(&bad).is_err());
    }

    #[test]
    fn checked_access_refuses_a_directory_outside_the_stream() {
        // Block 0 holds bits 0 and 1: class 2.
        let (bools, rrr) = build(|i| i < 2 || (i >= BLOCK && i % 7 == 3), 4000);
        let mut words = Vec::new();
        rrr.write_words(&mut words);
        let view = RrrVecRef::from_words(&words).unwrap().0;
        for i in 0..bools.len() {
            assert_eq!(view.checked_access_rank1(i), Ok(rrr.access_rank1(i)));
        }
        assert!(view.checked_access_rank1(bools.len()).is_err());
        let (sup0, off0) = (BLOCK_WORDS + view.sup_off, BLOCK_WORDS + view.off_off);
        for pos in [view.off_bits as u64, u64::from(u32::MAX)] {
            let mut bad = words.clone();
            bad[sup0] = bad[sup0] & 0xFFFF_FFFF | pos << 32;
            let view = RrrVecRef::from_words(&bad).unwrap().0;
            assert!(view.checked_access_rank1(0).is_err(), "position {pos}");
        }
        // The class-2 table has C(63, 2) = 1953 entries: offset 2047 is
        // past it.
        let mut bad = words;
        bad[off0] |= 0x7FF;
        let view = RrrVecRef::from_words(&bad).unwrap().0;
        assert!(view.checked_access_rank1(0).is_err());
    }

    #[test]
    fn binomial_table_sanity() {
        let c = binomials();
        assert_eq!(c[63][0], 1);
        assert_eq!(c[63][1], 63);
        assert_eq!(c[63][63], 1);
        assert_eq!(c[4][2], 6);
        // C(63,31) is the largest entry and must not have overflowed.
        assert_eq!(c[63][31], 916_312_070_471_295_267);
    }

    #[test]
    fn class2_table_is_a_bijection() {
        let t = class2_patterns();
        assert_eq!(t.len(), 1953);
        for (off, &p) in t.iter().enumerate() {
            assert_eq!(p.count_ones(), 2, "offset {off}");
            assert_eq!(encode_offset(p, 2), off as u64);
        }
    }
}
