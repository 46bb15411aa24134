//! Fixed-width packed integer arrays.

use crate::bits::BitVec;
use crate::storage::{self, meta_usize, pad_to_block, StorageError, BLOCK_WORDS};

/// A packed array of unsigned integers, each stored in exactly `width` bits.
///
/// This is the trivial `n·⌈lg δ⌉`-bit encoding the paper uses for the label
/// string `S_α` in the succinct (non-entropy) mode of XBW-b, and the backing
/// store for RRR block classes and serialized node records.
#[derive(Clone, Debug, Default)]
pub struct IntVec {
    bits: BitVec,
    width: u32,
    len: usize,
}

impl IntVec {
    /// Creates an empty vector of `width`-bit integers (`width ≤ 64`).
    ///
    /// A `width` of 0 is allowed and stores only the count: every element
    /// reads back as 0. This arises naturally for single-symbol alphabets.
    #[must_use]
    pub fn new(width: u32) -> Self {
        assert!(width <= 64, "width {width} > 64");
        Self {
            bits: BitVec::new(),
            width,
            len: 0,
        }
    }

    /// Creates a vector of `len` zeros.
    #[must_use]
    pub fn zeros(width: u32, len: usize) -> Self {
        assert!(width <= 64, "width {width} > 64");
        Self {
            bits: BitVec::zeros(len * width as usize),
            width,
            len,
        }
    }

    /// Builds from a slice, using the smallest width that fits the maximum.
    #[must_use]
    pub fn from_slice_min_width(values: &[u64]) -> Self {
        let width = crate::ceil_log2(values.iter().max().map_or(0, |m| m + 1));
        let mut v = Self::new(width);
        for &x in values {
            v.push(x);
        }
        v
    }

    /// Element width in bits.
    #[must_use]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Number of elements.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the vector is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends a value.
    ///
    /// # Panics
    /// Panics if `value` does not fit in `width` bits.
    #[inline]
    pub fn push(&mut self, value: u64) {
        self.bits.push_bits(value, self.width);
        self.len += 1;
    }

    /// Reads element `i`.
    ///
    /// One bounds check, then a direct one- or two-word extraction — this
    /// sits on the query hot path of the RRR class scan and the packed
    /// XBW-b label string, so it bypasses the layered asserts of
    /// [`BitVec::get_bits`].
    ///
    /// # Panics
    /// Panics in debug builds if `i >= len()`.
    /// Release builds elide the check on the packet path.
    #[must_use]
    #[inline]
    pub fn get(&self, i: usize) -> u64 {
        debug_assert!(i < self.len, "index {i} out of bounds (len {})", self.len);
        let width = self.width as usize;
        if width == 0 {
            return 0;
        }
        // i < len ⇒ the field lies fully inside the pushed bits, so the
        // spill word exists whenever the field straddles a boundary.
        let pos = i * width;
        let (word, bit) = (pos / 64, pos % 64);
        let words = self.bits.words();
        let lo = words[word] >> bit;
        let have = 64 - bit;
        let raw = if width > have {
            lo | (words[word + 1] << have)
        } else {
            lo
        };
        if width == 64 {
            raw
        } else {
            raw & ((1u64 << width) - 1)
        }
    }

    /// Overwrites element `i`.
    ///
    /// # Panics
    /// Panics if `i >= len()` or `value` does not fit in `width` bits.
    pub fn set(&mut self, i: usize, value: u64) {
        assert!(i < self.len, "index {i} out of bounds (len {})", self.len);
        self.bits
            .set_bits(i * self.width as usize, value, self.width);
    }

    /// Iterates over elements in order.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }

    /// The backing words (the final word has unused high bits zeroed).
    #[must_use]
    pub fn words(&self) -> &[u64] {
        self.bits.words()
    }

    /// The borrowed zero-copy view (all reads go through the same
    /// extraction code whether the words are owned or loaded).
    #[must_use]
    #[inline]
    pub fn view(&self) -> IntVecRef<'_> {
        IntVecRef {
            words: self.bits.words(),
            width: self.width,
            len: self.len,
        }
    }

    /// Serializes as one 8-word meta block followed by the payload words,
    /// padded to a 64-byte boundary.
    pub fn write_words(&self, out: &mut Vec<u64>) {
        debug_assert_eq!(out.len() % BLOCK_WORDS, 0, "section must start aligned");
        out.extend_from_slice(&[self.width.into(), self.len as u64, 0, 0, 0, 0, 0, 0]);
        out.extend_from_slice(self.bits.words());
        pad_to_block(out);
    }

    /// Payload footprint in bits.
    #[must_use]
    pub fn size_bits(&self) -> usize {
        self.bits.size_bits()
    }
}

/// Borrowed zero-copy view of an [`IntVec`].
#[derive(Clone, Copy, Debug)]
pub struct IntVecRef<'a> {
    words: &'a [u64],
    width: u32,
    len: usize,
}

impl<'a> IntVecRef<'a> {
    /// Parses a view from words written by [`IntVec::write_words`],
    /// borrowing — never copying — the payload. Returns the view and the
    /// number of words consumed.
    ///
    /// # Errors
    /// [`StorageError`] on truncated or structurally inconsistent input.
    pub fn from_words(words: &'a [u64]) -> Result<(Self, usize), StorageError> {
        let meta = storage::slice(words, 0, BLOCK_WORDS)?;
        let width = u32::try_from(meta[0]).map_err(|_| StorageError("intvec width"))?;
        let len = meta_usize(meta[1])?;
        if width > 64 {
            return Err(StorageError("intvec width > 64"));
        }
        let payload_words = len
            .checked_mul(width as usize)
            .ok_or(StorageError("intvec size overflows"))?
            .div_ceil(64);
        let payload = storage::slice(words, BLOCK_WORDS, payload_words)?;
        let consumed = storage::meta_run_words(payload_words);
        if consumed > words.len() {
            return Err(StorageError("intvec padding truncated"));
        }
        Ok((
            Self {
                words: payload,
                width,
                len,
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

    /// Element width in bits.
    #[must_use]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Number of elements.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the vector is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads element `i` — one bounds check, then a direct one- or
    /// two-word extraction (the query hot path of the RRR class scan and
    /// the packed XBW-b label string).
    ///
    /// # Panics
    /// Panics in debug builds if `i >= len()`.
    /// Release builds elide the check on the packet path.
    #[must_use]
    #[inline]
    pub fn get(&self, i: usize) -> u64 {
        debug_assert!(i < self.len, "index {i} out of bounds (len {})", self.len);
        let width = self.width as usize;
        if width == 0 {
            return 0;
        }
        // i < len ⇒ the field lies fully inside the pushed bits, so the
        // spill word exists whenever the field straddles a boundary.
        let pos = i * width;
        let (word, bit) = (pos / 64, pos % 64);
        let lo = self.words[word] >> bit;
        let have = 64 - bit;
        let raw = if width > have {
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

    /// Payload footprint in bits.
    #[must_use]
    pub fn size_bits(&self) -> usize {
        self.words.len() * 64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_various_widths() {
        for width in [1u32, 3, 7, 13, 32, 63, 64] {
            let mask = if width == 64 {
                u64::MAX
            } else {
                (1u64 << width) - 1
            };
            let mut v = IntVec::new(width);
            let values: Vec<u64> = (0..100u64)
                .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) & mask)
                .collect();
            for &x in &values {
                v.push(x);
            }
            for (i, &x) in values.iter().enumerate() {
                assert_eq!(v.get(i), x, "width {width} index {i}");
            }
        }
    }

    #[test]
    fn set_overwrites_in_place() {
        let mut v = IntVec::zeros(11, 50);
        v.set(0, 2047);
        v.set(49, 1024);
        v.set(25, 1);
        assert_eq!(v.get(0), 2047);
        assert_eq!(v.get(49), 1024);
        assert_eq!(v.get(25), 1);
        assert_eq!(v.get(24), 0);
        assert_eq!(v.get(26), 0);
        v.set(0, 0);
        assert_eq!(v.get(0), 0);
    }

    #[test]
    fn zero_width_stores_count_only() {
        let mut v = IntVec::new(0);
        v.push(0);
        v.push(0);
        assert_eq!(v.len(), 2);
        assert_eq!(v.get(1), 0);
        assert_eq!(v.size_bits(), 0);
    }

    #[test]
    fn min_width_fits_maximum() {
        let v = IntVec::from_slice_min_width(&[0, 5, 3]);
        assert_eq!(v.width(), 3);
        assert_eq!(v.get(1), 5);
        let v = IntVec::from_slice_min_width(&[1, 0]);
        assert_eq!(v.width(), 1);
        let v = IntVec::from_slice_min_width(&[]);
        assert_eq!(v.width(), 0);
        assert!(v.is_empty());
    }

    #[test]
    #[should_panic(expected = "wider than")]
    fn push_too_wide_panics() {
        let mut v = IntVec::new(4);
        v.push(16);
    }

    #[test]
    fn serialized_view_answers_identically() {
        let mut v = IntVec::new(13);
        let values: Vec<u64> = (0..500u64)
            .map(|i| i.wrapping_mul(0x9E37) & 0x1FFF)
            .collect();
        for &x in &values {
            v.push(x);
        }
        let mut words = Vec::new();
        v.write_words(&mut words);
        let (view, consumed) = IntVecRef::from_words(&words).unwrap();
        assert_eq!(consumed, words.len());
        assert_eq!(view.len(), v.len());
        for (i, &x) in values.iter().enumerate() {
            assert_eq!(view.get(i), x, "index {i}");
        }
        // Truncation and bad meta fail loudly.
        assert!(IntVecRef::from_words(&words[..8]).is_err());
        let mut bad = words.clone();
        bad[0] = 65;
        assert!(IntVecRef::from_words(&bad).is_err());
        let mut bad = words;
        bad[1] = u64::MAX;
        assert!(IntVecRef::from_words(&bad).is_err());
    }
}
