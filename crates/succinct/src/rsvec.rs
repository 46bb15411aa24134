//! Bit vector with single-cache-line rank and sampled constant-time
//! select, split into an owned builder ([`RsBitVec`]) and a zero-copy
//! view ([`RsBitVecRef`]) per the crate's storage discipline.

use crate::bits::BitVec;
use crate::broadword::select_in_word;
use crate::storage::{
    self, meta_usize, pad_to_block, push_u32s, words_for_u32s, Arena, StorageError, BLOCK_WORDS,
};

/// Data bits per directory line.
const LINE_BITS: usize = 384;
/// Data words per directory line.
const LINE_WORDS: usize = LINE_BITS / 64;
/// One select sample (a line hint) is kept per this many ones/zeros.
const SELECT_SAMPLE: usize = 512;

/// A static bit vector whose bits and rank directory are interleaved into
/// aligned 64-byte lines (in the cs-poppy / rank9 lineage).
///
/// Each line is one 64-byte block of the backing [`Arena`]:
///
/// * word 0 — ones strictly before this line's data bits (absolute),
/// * word 1 — five 9-bit intra-line prefix counts (ones before data words
///   1..=5, packed LSB-first; bits 45–63 stay zero),
/// * words 2–7 — the 384 data bits.
///
/// The arena keeps every line on a cache-line boundary, so `rank1`, `get`
/// and the fused [`RsBitVec::access_rank1`] cost **one** cache-line touch.
/// After the lines come the two select-sample directories (`u32` line
/// hints packed two per word): `select1`/`select0` consult the hint
/// sampled every 512 ones (zeros), binary-search only the handful of
/// lines between two hints, and finish with a branchless in-word select
/// ([`select_in_word`]) — O(1) for any density that is not pathologically
/// clustered, O(log n) worst case.
///
/// Space: the in-line directory costs 2 words per 6 data words (33.3 %)
/// and the select samples at most ≈6.3 % more — marginally above the old
/// two-array layout's 37.5 %, traded for the 3× fewer lines per query.
/// This is the *plain* index; use [`crate::RrrVec`] when compression
/// matters.
///
/// All query code lives on the borrowed [`RsBitVecRef`]; this owned type
/// freezes its words into an arena at construction and forwards, so the
/// hot paths are identical whether the words came from this builder or
/// from a loaded FIB image.
#[derive(Clone, Debug)]
pub struct RsBitVec {
    arena: Arena,
    len: usize,
    ones: usize,
    n_lines: usize,
    n_sel1: usize,
    n_sel0: usize,
}

/// Borrowed zero-copy view of an [`RsBitVec`]: the query surface over any
/// 64-byte-aligned word run, owned or loaded.
#[derive(Clone, Copy, Debug)]
pub struct RsBitVecRef<'a> {
    /// The whole payload: interleaved lines (8 words each, 64-byte
    /// aligned, starting at word 0) followed by the two packed-`u32`
    /// select directories. One slice + offsets keeps [`RsBitVec::view`]
    /// nearly free, which matters because every owned query goes through
    /// it.
    words: &'a [u64],
    /// Word offset of `sel1` (`sel1[j]` = line of the `(512·j+1)`-th one).
    sel1_off: usize,
    /// Word offset of `sel0`.
    sel0_off: usize,
    n_lines: usize,
    len: usize,
    ones: usize,
    n_sel1: usize,
    n_sel0: usize,
}

#[cold]
#[inline(never)]
fn index_oob(i: usize, len: usize) -> ! {
    panic!("bit index {i} out of bounds (len {len})");
}

/// Select samples needed for `count` ones (or zeros).
fn sel_entries(count: usize) -> usize {
    if count == 0 {
        0
    } else {
        (count - 1) / SELECT_SAMPLE + 1
    }
}

impl RsBitVec {
    /// Builds the interleaved lines and select directories over `bits`.
    #[must_use]
    pub fn new(bits: BitVec) -> Self {
        let words = bits.words();
        let len = bits.len();
        let n_lines = words.len().div_ceil(LINE_WORDS).max(1);
        let mut arena_words = Vec::with_capacity(n_lines * BLOCK_WORDS);
        let mut total: u64 = 0;
        let mut line_ones = Vec::with_capacity(n_lines + 1);
        for s in 0..n_lines {
            line_ones.push(total as usize);
            let base = arena_words.len();
            arena_words.push(total);
            arena_words.push(0); // subs, patched below
            let mut subs = 0u64;
            let mut within: u64 = 0;
            for w in 0..LINE_WORDS {
                if w > 0 {
                    subs |= within << (9 * (w - 1));
                }
                let wi = s * LINE_WORDS + w;
                if wi < words.len() {
                    arena_words.push(words[wi]);
                    within += u64::from(words[wi].count_ones());
                } else {
                    arena_words.push(0);
                }
            }
            arena_words[base + 1] = subs;
            total += within;
        }
        let ones = total as usize;
        line_ones.push(ones);

        // Select samples: the line holding every 512-th one/zero.
        let mut sel1 = Vec::with_capacity(sel_entries(ones));
        let mut sel0 = Vec::with_capacity(sel_entries(len - ones));
        let mut next1 = 1usize;
        let mut next0 = 1usize;
        for s in 0..n_lines {
            let ones_end = line_ones[s + 1];
            while next1 <= ones_end {
                sel1.push(s as u32);
                next1 += SELECT_SAMPLE;
            }
            let zeros_end = ((s + 1) * LINE_BITS).min(len) - ones_end;
            while next0 <= zeros_end {
                sel0.push(s as u32);
                next0 += SELECT_SAMPLE;
            }
        }
        let (n_sel1, n_sel0) = (sel1.len(), sel0.len());
        push_u32s(&mut arena_words, sel1);
        push_u32s(&mut arena_words, sel0);
        Self {
            arena: Arena::from_words(&arena_words),
            len,
            ones,
            n_lines,
            n_sel1,
            n_sel0,
        }
    }

    /// The borrowed view all queries run on.
    #[must_use]
    #[inline]
    pub fn view(&self) -> RsBitVecRef<'_> {
        let lines_end = self.n_lines * BLOCK_WORDS;
        RsBitVecRef {
            words: self.arena.words(),
            sel1_off: lines_end,
            sel0_off: lines_end + words_for_u32s(self.n_sel1),
            n_lines: self.n_lines,
            len: self.len,
            ones: self.ones,
            n_sel1: self.n_sel1,
            n_sel0: self.n_sel0,
        }
    }

    /// Serializes as one 8-word meta block followed by the arena words,
    /// padded to a 64-byte boundary. If `out` starts the structure on a
    /// 64-byte boundary, every line inside stays cache-line aligned.
    pub fn write_words(&self, out: &mut Vec<u64>) {
        debug_assert_eq!(out.len() % BLOCK_WORDS, 0, "section must start aligned");
        out.extend_from_slice(&[
            self.len as u64,
            self.ones as u64,
            self.n_lines as u64,
            self.n_sel1 as u64,
            self.n_sel0 as u64,
            0,
            0,
            0,
        ]);
        out.extend_from_slice(self.arena.words());
        pad_to_block(out);
    }

    /// Number of bits.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the vector is empty.
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
    ///
    /// # Panics
    /// Panics if `i > len()`.
    #[must_use]
    #[inline]
    pub fn rank0(&self, i: usize) -> usize {
        self.view().rank0(i)
    }

    /// Fused `(get(i), rank1(i))` from the same single cache-line touch.
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

    /// Footprint in bits: the interleaved lines (data + in-line
    /// directory) plus the select samples — exactly the payload a
    /// serialized form carries, so Table 2's size column tracks the real
    /// structure.
    #[must_use]
    pub fn size_bits(&self) -> usize {
        self.n_lines * 512 + (self.n_sel1 + self.n_sel0) * 32
    }
}

impl<'a> RsBitVecRef<'a> {
    /// Parses a view from words written by [`RsBitVec::write_words`],
    /// borrowing — never copying — the payload. Returns the view and the
    /// number of words consumed.
    ///
    /// # Errors
    /// [`StorageError`] on truncated or structurally inconsistent input.
    pub fn from_words(words: &'a [u64]) -> Result<(Self, usize), StorageError> {
        let meta = storage::slice(words, 0, BLOCK_WORDS)?;
        let len = meta_usize(meta[0])?;
        let ones = meta_usize(meta[1])?;
        let n_lines = meta_usize(meta[2])?;
        let n_sel1 = meta_usize(meta[3])?;
        let n_sel0 = meta_usize(meta[4])?;
        if ones > len || len > n_lines.saturating_mul(LINE_BITS) {
            return Err(StorageError("rank vector counts inconsistent"));
        }
        if n_sel1 != sel_entries(ones) || n_sel0 != sel_entries(len - ones) {
            return Err(StorageError("select directory size inconsistent"));
        }
        let lines_words = n_lines
            .checked_mul(BLOCK_WORDS)
            .ok_or(StorageError("line count overflows"))?;
        let sel1_off = lines_words;
        let sel0_off = sel1_off + words_for_u32s(n_sel1);
        let payload_words = sel0_off + words_for_u32s(n_sel0);
        let payload = storage::slice(words, BLOCK_WORDS, payload_words)?;
        let consumed = storage::meta_run_words(payload_words);
        if consumed > words.len() {
            return Err(StorageError("rank vector padding truncated"));
        }
        Ok((
            Self {
                words: payload,
                sel1_off,
                sel0_off,
                n_lines,
                len,
                ones,
                n_sel1,
                n_sel0,
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

    /// Number of bits.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the vector is empty.
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

    /// The 8-word line `s`, bounds-checked once (lines start at word 0).
    #[inline]
    fn line(&self, s: usize) -> &'a [u64; 8] {
        let base = s * BLOCK_WORDS;
        self.words[base..base + BLOCK_WORDS]
            .try_into()
            .expect("8-word line")
    }

    /// Ones strictly before line `s`; `s == n_lines()` reads the total.
    #[inline]
    fn ones_before(&self, s: usize) -> usize {
        if s >= self.n_lines {
            self.ones
        } else {
            self.words[s * BLOCK_WORDS] as usize
        }
    }

    /// Intra-line prefix count: ones before data word `w` (0–5) given the
    /// packed counts `subs`. Branchless: word 0 reads the always-zero top
    /// bits.
    #[inline]
    fn sub_count(subs: u64, w: usize) -> usize {
        ((subs >> ((w.wrapping_sub(1) & 7) * 9)) & 0x1FF) as usize
    }

    /// Reads bit `i`.
    ///
    /// # Panics
    /// Panics if `i >= len()`.
    #[must_use]
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        if i >= self.len {
            index_oob(i, self.len);
        }
        let line = self.line(i / LINE_BITS);
        (line[2 + (i % LINE_BITS) / 64] >> (i % 64)) & 1 == 1
    }

    /// Number of set bits in `[0, i)`.
    ///
    /// One aligned cache-line touch: absolute count, packed sub-count and
    /// the data word all come from the same line, finished by a masked
    /// popcount.
    ///
    /// # Panics
    /// Panics if `i > len()`.
    #[must_use]
    #[inline]
    pub fn rank1(&self, i: usize) -> usize {
        if i > self.len {
            index_oob(i, self.len);
        }
        let s = i / LINE_BITS;
        if s >= self.n_lines {
            // Only reachable when i == len() and len() fills the lines
            // exactly.
            return self.ones;
        }
        let line = self.line(s);
        let w = (i % LINE_BITS) / 64;
        let r = line[0] as usize + Self::sub_count(line[1], w);
        // `!(MAX << bit)` keeps the low `bit` bits; bit == 0 masks to 0.
        let masked = line[2 + w] & !(u64::MAX << (i % 64));
        r + masked.count_ones() as usize
    }

    /// Number of clear bits in `[0, i)`.
    ///
    /// # Panics
    /// Panics if `i > len()`.
    #[must_use]
    #[inline]
    pub fn rank0(&self, i: usize) -> usize {
        i - self.rank1(i)
    }

    /// Fused `(get(i), rank1(i))` from the same single cache-line touch:
    /// callers that need both (wavelet-tree descent, the XBW-b lookup
    /// loop) pay one memory dependence chain instead of two.
    ///
    /// # Panics
    /// Panics if `i >= len()`.
    #[must_use]
    #[inline]
    pub fn access_rank1(&self, i: usize) -> (bool, usize) {
        if i >= self.len {
            index_oob(i, self.len);
        }
        let line = self.line(i / LINE_BITS);
        let w = (i % LINE_BITS) / 64;
        let word = line[2 + w];
        let bit = i % 64;
        let rank = line[0] as usize
            + Self::sub_count(line[1], w)
            + (word & !(u64::MAX << bit)).count_ones() as usize;
        ((word >> bit) & 1 == 1, rank)
    }

    /// Position of the `q`-th set bit (`q ≥ 1`), or `None` if there are
    /// fewer than `q` set bits.
    ///
    /// The sampled directory narrows the search to the lines between two
    /// consecutive hints before binary-searching.
    #[must_use]
    pub fn select1(&self, q: usize) -> Option<usize> {
        if q == 0 || q > self.ones {
            return None;
        }
        // Hint: the line of the nearest sampled one at or below q. Hints
        // are clamped so a corrupted directory cannot index out of range.
        let j = (q - 1) / SELECT_SAMPLE;
        let mut lo = (self.sel_u32(self.sel1_off, j) as usize).min(self.n_lines - 1);
        let mut hi = if j + 1 < self.n_sel1 {
            (self.sel_u32(self.sel1_off, j + 1) as usize + 1).min(self.n_lines)
        } else {
            self.n_lines
        };
        // Largest line s with ones_before(s) < q.
        while lo + 1 < hi {
            let mid = usize::midpoint(lo, hi);
            if self.ones_before(mid) < q {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let s = lo;
        let line = self.line(s);
        let remaining = q - line[0] as usize;
        // Walk the packed 9-bit prefix counts to the word holding the hit.
        let mut w = 0usize;
        while w < LINE_WORDS - 1 && Self::sub_count(line[1], w + 1) < remaining {
            w += 1;
        }
        let within = remaining - Self::sub_count(line[1], w);
        Some(s * LINE_BITS + w * 64 + select_in_word(line[2 + w], within as u32) as usize)
    }

    /// Position of the `q`-th clear bit (`q ≥ 1`), or `None` if there are
    /// fewer than `q` clear bits in `[0, len())`.
    #[must_use]
    pub fn select0(&self, q: usize) -> Option<usize> {
        if q == 0 || q > self.count_zeros() {
            return None;
        }
        let zeros_before =
            |s: usize| -> usize { (s * LINE_BITS).min(self.len) - self.ones_before(s) };
        let j = (q - 1) / SELECT_SAMPLE;
        let mut lo = (self.sel_u32(self.sel0_off, j) as usize).min(self.n_lines - 1);
        let mut hi = if j + 1 < self.n_sel0 {
            (self.sel_u32(self.sel0_off, j + 1) as usize + 1).min(self.n_lines)
        } else {
            self.n_lines
        };
        while lo + 1 < hi {
            let mid = usize::midpoint(lo, hi);
            if zeros_before(mid) < q {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let s = lo;
        let line = self.line(s);
        let remaining = q - zeros_before(s);
        // Zeros before data word w+1 of the line = 64·(w+1) − ones there.
        // Phantom zeros past len() only inflate counts beyond the answer's
        // word, because q ≤ count_zeros() places the hit among real bits.
        let mut w = 0usize;
        while w < LINE_WORDS - 1 && 64 * (w + 1) - Self::sub_count(line[1], w + 1) < remaining {
            w += 1;
        }
        let within = remaining - (64 * w - Self::sub_count(line[1], w));
        let pos = s * LINE_BITS + w * 64 + select_in_word(!line[2 + w], within as u32) as usize;
        debug_assert!(pos < self.len);
        Some(pos)
    }

    /// Footprint in bits (same accounting as [`RsBitVec::size_bits`]).
    #[must_use]
    pub fn size_bits(&self) -> usize {
        self.n_lines * 512 + (self.n_sel1 + self.n_sel0) * 32
    }

    /// Packed-`u32` read at `words[off + j/2]`.
    #[inline]
    fn sel_u32(&self, off: usize, j: usize) -> u32 {
        (self.words[off + j / 2] >> (32 * (j % 2))) as u32
    }

    /// Cross-validates every derived structure against the raw data
    /// bits: each line's absolute rank word, the packed 9-bit intra-line
    /// prefix counts, the total ones count, the zero padding past
    /// `len()`, and both select-sample directories.
    ///
    /// [`Self::from_words`] checks only that the *sizes* are mutually
    /// consistent — a corrupted count word parses fine and then silently
    /// mis-answers every `rank`/`select` that touches it. This is the
    /// deep pass `fibc lint` runs over image-resident rank directories.
    ///
    /// # Errors
    /// [`StorageError`] naming the first inconsistency found; corrupt
    /// input never panics.
    pub fn audit(&self) -> Result<(), StorageError> {
        let mut total: u64 = 0;
        let mut next1 = 1usize;
        let mut next0 = 1usize;
        let mut at1 = 0usize;
        let mut at0 = 0usize;
        for s in 0..self.n_lines {
            let line = self.line(s);
            if line[0] != total {
                return Err(StorageError("rank line disagrees with data popcount"));
            }
            let mut subs = 0u64;
            let mut within: u64 = 0;
            for w in 0..LINE_WORDS {
                if w > 0 {
                    subs |= within << (9 * (w - 1));
                }
                let word = line[2 + w];
                let bit_base = s * LINE_BITS + w * 64;
                let tail_ok = if bit_base >= self.len {
                    word == 0
                } else if self.len - bit_base < 64 {
                    word >> (self.len - bit_base) == 0
                } else {
                    true
                };
                if !tail_ok {
                    return Err(StorageError("rank vector tail padding not zero"));
                }
                within += u64::from(word.count_ones());
            }
            if line[1] != subs {
                return Err(StorageError("rank sub-counts disagree with data popcount"));
            }
            total += within;
            // Re-derive the select samples that land in this line, exactly
            // as the builder does, and compare against the stored hints.
            let ones_end = total as usize;
            while next1 <= ones_end {
                if at1 >= self.n_sel1 || self.sel_u32(self.sel1_off, at1) as usize != s {
                    return Err(StorageError("select-1 sample points at the wrong line"));
                }
                at1 += 1;
                next1 += SELECT_SAMPLE;
            }
            let zeros_end = ((s + 1) * LINE_BITS).min(self.len) - ones_end.min(self.len);
            while next0 <= zeros_end {
                if at0 >= self.n_sel0 || self.sel_u32(self.sel0_off, at0) as usize != s {
                    return Err(StorageError("select-0 sample points at the wrong line"));
                }
                at0 += 1;
                next0 += SELECT_SAMPLE;
            }
        }
        if total as usize != self.ones {
            return Err(StorageError("rank directory total disagrees with data"));
        }
        if at1 != self.n_sel1 || at0 != self.n_sel0 {
            return Err(StorageError("select directory has surplus samples"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_rank1(bits: &[bool], i: usize) -> usize {
        bits[..i].iter().filter(|&&b| b).count()
    }

    fn build(pattern: impl Fn(usize) -> bool, n: usize) -> (Vec<bool>, RsBitVec) {
        let bools: Vec<bool> = (0..n).map(pattern).collect();
        let rs = RsBitVec::new(BitVec::from_bools(&bools));
        (bools, rs)
    }

    #[test]
    fn rank_matches_naive_on_periodic_pattern() {
        let (bools, rs) = build(|i| i % 5 == 0 || i % 7 == 0, 2000);
        for i in (0..=2000).step_by(13) {
            assert_eq!(rs.rank1(i), naive_rank1(&bools, i), "rank1({i})");
            assert_eq!(rs.rank0(i), i - naive_rank1(&bools, i), "rank0({i})");
        }
        assert_eq!(rs.rank1(2000), rs.count_ones());
    }

    #[test]
    fn rank_at_exact_word_and_line_boundaries() {
        let (bools, rs) = build(|i| i % 2 == 0, 1537);
        for i in [0, 63, 64, 65, 383, 384, 385, 767, 768, 1024, 1536, 1537] {
            assert_eq!(rs.rank1(i), naive_rank1(&bools, i), "rank1({i})");
        }
    }

    #[test]
    fn access_rank1_fuses_get_and_rank() {
        let (bools, rs) = build(|i| i % 3 == 0 || i % 11 == 2, 1600);
        for (i, &b) in bools.iter().enumerate() {
            let (bit, rank) = rs.access_rank1(i);
            assert_eq!(bit, b, "bit {i}");
            assert_eq!(rank, naive_rank1(&bools, i), "rank at {i}");
        }
    }

    #[test]
    fn select1_inverts_rank1() {
        let (bools, rs) = build(|i| i % 3 == 1, 1000);
        let mut q = 0;
        for (i, &b) in bools.iter().enumerate() {
            if b {
                q += 1;
                assert_eq!(rs.select1(q), Some(i), "select1({q})");
            }
        }
        assert_eq!(rs.select1(q + 1), None);
        assert_eq!(rs.select1(0), None);
    }

    #[test]
    fn select0_inverts_rank0() {
        let (bools, rs) = build(|i| i % 3 != 1, 700);
        let mut q = 0;
        for (i, &b) in bools.iter().enumerate() {
            if !b {
                q += 1;
                assert_eq!(rs.select0(q), Some(i), "select0({q})");
            }
        }
        assert_eq!(rs.select0(q + 1), None);
    }

    #[test]
    fn select_crosses_many_sample_intervals() {
        // > 100 lines and > 20 select samples on each side, so the
        // sampled directory and the binary search between hints are both
        // exercised away from the trivial first-sample path.
        let (bools, rs) = build(|i| (i / 3) % 2 == 0, 40_000);
        let ones: Vec<usize> = (0..bools.len()).filter(|&i| bools[i]).collect();
        let zeros: Vec<usize> = (0..bools.len()).filter(|&i| !bools[i]).collect();
        for q in (1..=ones.len()).step_by(509) {
            assert_eq!(rs.select1(q), Some(ones[q - 1]), "select1({q})");
        }
        for q in (1..=zeros.len()).step_by(509) {
            assert_eq!(rs.select0(q), Some(zeros[q - 1]), "select0({q})");
        }
    }

    #[test]
    fn select0_ignores_phantom_zeros_past_len() {
        // All ones: no zeros at all, even though the final word has unused
        // zero bits past len.
        let (_, rs) = build(|_| true, 70);
        assert_eq!(rs.select0(1), None);
        assert_eq!(rs.count_zeros(), 0);
    }

    #[test]
    fn empty_vector_is_consistent() {
        let rs = RsBitVec::new(BitVec::new());
        assert_eq!(rs.len(), 0);
        assert_eq!(rs.rank1(0), 0);
        assert_eq!(rs.select1(1), None);
        assert_eq!(rs.select0(1), None);
    }

    #[test]
    fn all_zeros_and_all_ones() {
        let (_, zeros) = build(|_| false, 600);
        assert_eq!(zeros.rank1(600), 0);
        assert_eq!(zeros.select0(600), Some(599));
        let (_, ones) = build(|_| true, 600);
        assert_eq!(ones.rank1(600), 600);
        assert_eq!(ones.select1(600), Some(599));
        assert_eq!(ones.select1(601), None);
    }

    #[test]
    fn directory_overhead_stays_bounded() {
        // In-line directory (2/6 of the data words) + select samples
        // (≤ ~6.3 %): total overhead must stay under 40 % of the raw bits.
        let (_, rs) = build(|i| i % 2 == 0, 1 << 20);
        let raw = 1usize << 20;
        let overhead = rs.size_bits() - raw;
        assert!(
            overhead * 100 <= raw * 40,
            "directory overhead {overhead} bits over {raw} raw bits"
        );
    }

    #[test]
    fn arena_lines_are_cache_aligned() {
        let (_, rs) = build(|i| i % 7 == 0, 10_000);
        let view = rs.view();
        assert_eq!(view.words.as_ptr() as usize % 64, 0, "first line");
        assert!(view.n_lines * BLOCK_WORDS <= view.words.len());
    }

    #[test]
    fn serialized_view_answers_identically_and_borrows() {
        let (bools, rs) = build(|i| i % 5 == 0 || i % 31 == 3, 30_000);
        let mut words = Vec::new();
        rs.write_words(&mut words);
        assert_eq!(words.len() % BLOCK_WORDS, 0);
        let arena = Arena::from_words(&words);
        let (view, consumed) = RsBitVecRef::from_words(arena.words()).unwrap();
        assert_eq!(consumed, words.len());
        // Zero copy: the view's payload lies inside the arena allocation.
        let arena_range = arena.words().as_ptr_range();
        let pr = view.payload_ptr_range();
        assert!(pr.start >= arena_range.start as usize && pr.end <= arena_range.end as usize);
        // Alignment survives the roundtrip.
        assert_eq!(view.words.as_ptr() as usize % 64, 0);
        for i in (0..bools.len()).step_by(37) {
            assert_eq!(view.get(i), bools[i], "get({i})");
            assert_eq!(view.rank1(i), naive_rank1(&bools, i), "rank1({i})");
            assert_eq!(view.access_rank1(i), rs.access_rank1(i));
        }
        for q in (1..=view.count_ones()).step_by(501) {
            assert_eq!(view.select1(q), rs.select1(q), "select1({q})");
        }
        for q in (1..=view.count_zeros()).step_by(501) {
            assert_eq!(view.select0(q), rs.select0(q), "select0({q})");
        }
        assert_eq!(view.size_bits(), rs.size_bits());
    }

    #[test]
    fn from_words_rejects_corrupt_meta() {
        let (_, rs) = build(|i| i % 3 == 0, 5000);
        let mut words = Vec::new();
        rs.write_words(&mut words);
        // Truncation below the payload end fails loudly.
        for cut in [0, 4, 8, 16, words.len() - 8] {
            assert!(RsBitVecRef::from_words(&words[..cut]).is_err(), "cut {cut}");
        }
        // ones > len.
        let mut bad = words.clone();
        bad[1] = bad[0] + 1;
        assert!(RsBitVecRef::from_words(&bad).is_err());
        // Select directory count mismatch.
        let mut bad = words.clone();
        bad[3] += 1;
        assert!(RsBitVecRef::from_words(&bad).is_err());
        // Gigantic line count.
        let mut bad = words;
        bad[2] = u64::MAX;
        assert!(RsBitVecRef::from_words(&bad).is_err());
    }

    #[test]
    fn audit_accepts_honest_and_rejects_corrupt_directories() {
        let (_, rs) = build(|i| i % 7 == 0 || i % 13 == 2, 20_000);
        let mut words = Vec::new();
        rs.write_words(&mut words);
        let (view, _) = RsBitVecRef::from_words(&words).unwrap();
        view.audit().expect("honest directory audits clean");

        // A bumped absolute rank word parses fine but audits dirty.
        let mut bad = words.clone();
        bad[BLOCK_WORDS + 2 * BLOCK_WORDS] += 1; // line 2, word 0
        let (view, _) = RsBitVecRef::from_words(&bad).unwrap();
        assert!(view.audit().unwrap_err().0.contains("rank line"));

        // Corrupt intra-line sub-counts.
        let mut bad = words.clone();
        bad[BLOCK_WORDS + 3 * BLOCK_WORDS + 1] ^= 1 << 9; // line 3, word 1
        let (view, _) = RsBitVecRef::from_words(&bad).unwrap();
        assert!(view.audit().unwrap_err().0.contains("sub-counts"));

        // A select-1 sample pointed at the wrong line.
        let (sel1_off, n_lines) = {
            let (v, _) = RsBitVecRef::from_words(&words).unwrap();
            (v.sel1_off, v.n_lines)
        };
        let mut bad = words.clone();
        bad[BLOCK_WORDS + sel1_off] += 1;
        let (view, _) = RsBitVecRef::from_words(&bad).unwrap();
        assert!(view.audit().unwrap_err().0.contains("select-1"));

        // Nonzero bits past len.
        let mut bad = words;
        let last_line_word = BLOCK_WORDS + (n_lines - 1) * BLOCK_WORDS + 2 + LINE_WORDS - 1;
        bad[last_line_word] |= 1 << 63; // 20_000 % 384 != 0, so this is tail
        let (view, _) = RsBitVecRef::from_words(&bad).unwrap();
        assert!(view.audit().unwrap_err().0.contains("tail"));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn rank_past_len_panics() {
        let (_, rs) = build(|_| true, 70);
        let _ = rs.rank1(71);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn access_rank1_at_len_panics() {
        let (_, rs) = build(|_| true, 70);
        let _ = rs.access_rank1(70);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_past_len_panics() {
        let (_, rs) = build(|_| true, 70);
        let _ = rs.get(70);
    }
}
