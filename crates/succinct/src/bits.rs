//! Plain bit vector backed by `u64` words.

/// A growable bit vector with bit-granular and word-granular access.
///
/// Bit `i` lives in word `i / 64` at bit position `i % 64` (LSB-first).
/// Unused high bits of the final word are kept at zero, which the rank and
/// select structures built on top rely on.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BitVec {
    words: Vec<u64>,
    len: usize,
}

impl BitVec {
    /// Creates an empty bit vector.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty bit vector with room for `bits` bits.
    #[must_use]
    pub fn with_capacity(bits: usize) -> Self {
        Self {
            words: Vec::with_capacity(bits.div_ceil(64)),
            len: 0,
        }
    }

    /// Creates a bit vector of `len` zero bits.
    #[must_use]
    pub fn zeros(len: usize) -> Self {
        Self {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Builds from a slice of booleans (index 0 first).
    #[must_use]
    pub fn from_bools(bools: &[bool]) -> Self {
        let mut bv = Self::with_capacity(bools.len());
        for &b in bools {
            bv.push(b);
        }
        bv
    }

    /// Number of bits stored.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the vector holds no bits.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends a single bit. Inlined, and the bit is ORed in without a
    /// branch on its value: builders push one bit per trie node.
    #[inline]
    pub fn push(&mut self, bit: bool) {
        let word = self.len / 64;
        if word == self.words.len() {
            self.words.push(0);
        }
        self.words[word] |= u64::from(bit) << (self.len % 64);
        self.len += 1;
    }

    /// Reads bit `i`.
    ///
    /// # Panics
    /// Panics in debug builds if `i >= len()`.
    /// Release builds elide the check on the packet path.
    #[must_use]
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(
            i < self.len,
            "bit index {i} out of bounds (len {})",
            self.len
        );
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Writes bit `i`.
    ///
    /// # Panics
    /// Panics if `i >= len()`.
    pub fn set(&mut self, i: usize, bit: bool) {
        assert!(
            i < self.len,
            "bit index {i} out of bounds (len {})",
            self.len
        );
        let mask = 1u64 << (i % 64);
        if bit {
            self.words[i / 64] |= mask;
        } else {
            self.words[i / 64] &= !mask;
        }
    }

    /// Appends the `width` low bits of `value`, LSB first.
    ///
    /// # Panics
    /// Panics if `width > 64` or if `value` has bits above `width`.
    #[inline]
    pub fn push_bits(&mut self, value: u64, width: u32) {
        assert!(width <= 64, "width {width} > 64");
        if width < 64 {
            assert!(
                value >> width == 0,
                "value {value:#x} wider than {width} bits"
            );
        }
        if width == 0 {
            return;
        }
        let bit = self.len % 64;
        let word = self.len / 64;
        if word == self.words.len() {
            self.words.push(0);
        }
        self.words[word] |= value << bit;
        let written = 64 - bit;
        if (width as usize) > written {
            self.words.push(value >> written);
        }
        self.len += width as usize;
    }

    /// Reads `width` bits starting at bit `pos`, returned LSB-first.
    ///
    /// # Panics
    /// Panics if `width > 64` or the range exceeds `len()`.
    #[must_use]
    #[inline]
    pub fn get_bits(&self, pos: usize, width: u32) -> u64 {
        assert!(width <= 64, "width {width} > 64");
        if width == 0 {
            return 0;
        }
        assert!(
            pos + width as usize <= self.len,
            "bit range {pos}..{} out of bounds (len {})",
            pos + width as usize,
            self.len
        );
        let bit = pos % 64;
        let word = pos / 64;
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

    /// Overwrites `width` bits starting at `pos` with the low bits of `value`.
    ///
    /// # Panics
    /// Panics if `width > 64`, the range exceeds `len()`, or `value` has
    /// bits above `width`.
    pub fn set_bits(&mut self, pos: usize, value: u64, width: u32) {
        assert!(width <= 64, "width {width} > 64");
        if width < 64 {
            assert!(
                value >> width == 0,
                "value {value:#x} wider than {width} bits"
            );
        }
        if width == 0 {
            return;
        }
        assert!(pos + width as usize <= self.len, "bit range out of bounds");
        let bit = pos % 64;
        let word = pos / 64;
        let mask = if width == 64 {
            u64::MAX
        } else {
            (1u64 << width) - 1
        };
        self.words[word] &= !(mask << bit);
        self.words[word] |= value << bit;
        let have = 64 - bit;
        if (width as usize) > have {
            let spill = width as usize - have;
            let spill_mask = (1u64 << spill) - 1;
            self.words[word + 1] &= !spill_mask;
            self.words[word + 1] |= value >> have;
        }
    }

    /// Total number of set bits.
    #[must_use]
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The backing words. The final word has its unused high bits zeroed.
    #[must_use]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Iterates over the bits in order.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }

    /// Footprint of the payload in bits (words, rounded up; excludes the
    /// `len` field).
    #[must_use]
    pub fn size_bits(&self) -> usize {
        self.words.len() * 64
    }
}

impl FromIterator<bool> for BitVec {
    fn from_iter<T: IntoIterator<Item = bool>>(iter: T) -> Self {
        let mut bv = Self::new();
        for b in iter {
            bv.push(b);
        }
        bv
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_get_roundtrip() {
        let pattern = [true, false, true, true, false, false, true];
        let bv = BitVec::from_bools(&pattern);
        assert_eq!(bv.len(), 7);
        for (i, &b) in pattern.iter().enumerate() {
            assert_eq!(bv.get(i), b, "bit {i}");
        }
        assert_eq!(bv.count_ones(), 4);
    }

    #[test]
    fn push_across_word_boundary() {
        let mut bv = BitVec::new();
        for i in 0..200 {
            bv.push(i % 3 == 0);
        }
        assert_eq!(bv.len(), 200);
        for i in 0..200 {
            assert_eq!(bv.get(i), i % 3 == 0, "bit {i}");
        }
    }

    #[test]
    fn set_flips_bits() {
        let mut bv = BitVec::zeros(130);
        bv.set(0, true);
        bv.set(64, true);
        bv.set(129, true);
        assert_eq!(bv.count_ones(), 3);
        bv.set(64, false);
        assert_eq!(bv.count_ones(), 2);
        assert!(!bv.get(64));
        assert!(bv.get(129));
    }

    #[test]
    fn push_bits_and_get_bits_roundtrip() {
        let mut bv = BitVec::new();
        let values: [(u64, u32); 6] = [
            (0b101, 3),
            (0xFFFF, 16),
            (0, 1),
            (0x1234_5678_9ABC_DEF0, 64),
            (1, 1),
            (0x7F, 7),
        ];
        let mut positions = Vec::new();
        for &(v, w) in &values {
            positions.push(bv.len());
            bv.push_bits(v, w);
        }
        for (&(v, w), &pos) in values.iter().zip(&positions) {
            assert_eq!(bv.get_bits(pos, w), v, "field at {pos} width {w}");
        }
    }

    #[test]
    fn get_bits_straddles_word_boundary() {
        let mut bv = BitVec::new();
        bv.push_bits(0, 60);
        bv.push_bits(0b1011_0111, 8); // bits 60..68
        assert_eq!(bv.get_bits(60, 8), 0b1011_0111);
        assert_eq!(bv.get_bits(62, 4), 0b1101);
    }

    #[test]
    fn set_bits_straddles_word_boundary() {
        let mut bv = BitVec::zeros(256);
        bv.set_bits(60, 0xABCD, 16);
        assert_eq!(bv.get_bits(60, 16), 0xABCD);
        bv.set_bits(60, 0x1234, 16);
        assert_eq!(bv.get_bits(60, 16), 0x1234);
        // Neighbours untouched.
        assert_eq!(bv.get_bits(0, 60), 0);
        assert_eq!(bv.get_bits(76, 64), 0);
    }

    #[test]
    fn zero_width_ops_are_noops() {
        let mut bv = BitVec::zeros(10);
        bv.push_bits(0, 0);
        assert_eq!(bv.len(), 10);
        assert_eq!(bv.get_bits(5, 0), 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    #[cfg(debug_assertions)]
    fn get_out_of_bounds_panics() {
        let bv = BitVec::zeros(8);
        let _ = bv.get(8);
    }

    #[test]
    fn from_iterator_collects() {
        let bv: BitVec = (0..100).map(|i| i % 2 == 0).collect();
        assert_eq!(bv.len(), 100);
        assert_eq!(bv.count_ones(), 50);
    }
}
