//! Address types and IP prefixes.

use std::fmt;
use std::hash::Hash;
use std::net::{Ipv4Addr, Ipv6Addr};
use std::str::FromStr;

/// Traversal depth of a lookup: the number of nodes, hops or slot reads a
/// structure touched to answer a query. Every `lookup_with_depth` in the
/// workspace returns this one type so depth statistics compose across
/// engines (bit-level walkers used to say `u8`, multibit ones `u32`).
pub type Depth = u32;

/// An IP address viewed as a fixed-width bit string, most significant bit
/// first.
///
/// The paper's algorithms are width-agnostic (`W` only appears in the O(W)
/// bounds), so everything in this workspace is generic over `Address`.
/// `u32` models IPv4 (W = 32) and `u128` models IPv6 (W = 128).
pub trait Address: Copy + Eq + Ord + Hash + fmt::Debug + Default {
    /// Address width in bits (the paper's `W`).
    const WIDTH: u8;

    /// The bit at `index`, where index 0 is the most significant bit.
    ///
    /// # Panics
    /// Panics in debug builds if `index >= WIDTH`.
    fn bit(self, index: u8) -> bool;

    /// Returns `self` with the bit at `index` set (MSB-first indexing).
    #[must_use]
    fn with_bit(self, index: u8) -> Self;

    /// Keeps the top `len` bits and clears the rest.
    #[must_use]
    fn mask(self, len: u8) -> Self;

    /// Extracts `count ≤ 32` bits starting at MSB-first position `start`,
    /// returned right-aligned. Used by multibit tries to read a stride in
    /// one operation.
    ///
    /// # Panics
    /// Panics in debug builds if `start + count > WIDTH` or `count > 32`.
    #[must_use]
    fn bits(self, start: u8, count: u8) -> u32;

    /// Widening conversion used by generic generators and arithmetic.
    fn to_u128(self) -> u128;

    /// Narrowing conversion; the value must fit.
    fn from_u128(value: u128) -> Self;
}

impl Address for u32 {
    const WIDTH: u8 = 32;

    #[inline]
    fn bit(self, index: u8) -> bool {
        debug_assert!(index < 32);
        (self >> (31 - index)) & 1 == 1
    }

    #[inline]
    fn with_bit(self, index: u8) -> Self {
        debug_assert!(index < 32);
        self | (1u32 << (31 - index))
    }

    #[inline]
    fn mask(self, len: u8) -> Self {
        debug_assert!(len <= 32);
        if len == 0 {
            0
        } else {
            self & (u32::MAX << (32 - len))
        }
    }

    #[inline]
    fn bits(self, start: u8, count: u8) -> u32 {
        debug_assert!(count <= 32 && start as u32 + count as u32 <= 32);
        if count == 0 {
            return 0;
        }
        let shifted = self >> (32 - start as u32 - count as u32);
        if count == 32 {
            shifted
        } else {
            shifted & ((1u32 << count) - 1)
        }
    }

    fn to_u128(self) -> u128 {
        u128::from(self)
    }

    fn from_u128(value: u128) -> Self {
        u32::try_from(value).expect("address value exceeds 32 bits")
    }
}

impl Address for u128 {
    const WIDTH: u8 = 128;

    #[inline]
    fn bit(self, index: u8) -> bool {
        debug_assert!(index < 128);
        (self >> (127 - index)) & 1 == 1
    }

    #[inline]
    fn with_bit(self, index: u8) -> Self {
        debug_assert!(index < 128);
        self | (1u128 << (127 - index))
    }

    #[inline]
    fn mask(self, len: u8) -> Self {
        debug_assert!(len <= 128);
        if len == 0 {
            0
        } else {
            self & (u128::MAX << (128 - len))
        }
    }

    #[inline]
    fn bits(self, start: u8, count: u8) -> u32 {
        debug_assert!(count <= 32 && start as u32 + count as u32 <= 128);
        if count == 0 {
            return 0;
        }
        let shifted = self >> (128 - start as u32 - count as u32);
        (shifted as u32) & (((1u64 << count) - 1) as u32)
    }

    fn to_u128(self) -> u128 {
        self
    }

    fn from_u128(value: u128) -> Self {
        value
    }
}

/// Deepest block a [`block_key`] may name: keys keep their low 8 bits free
/// so the tables that store them can tag a slot word as occupied.
pub const MAX_BLOCK_DEPTH: u8 = 56;

/// Truncates `addr` to its top `depth` bits, MSB-aligned in a `u64` — the
/// one key function of the traffic-aware layer. `fib-workload`'s heat
/// sketch counts under it (as `heat_key`) and `fib-core`'s hot slab
/// indexes under it (as `hot_key`), so a sketch recorded at depth `D`
/// feeds a slab compiled at depth `D` with no translation.
///
/// `depth` must be in `1..=MAX_BLOCK_DEPTH` and at most the address
/// width; the tables validate theirs once at construction, so the
/// per-packet check here is debug-only.
#[must_use]
#[inline]
pub fn block_key<A: Address>(addr: A, depth: u8) -> u64 {
    debug_assert!(
        depth > 0 && depth <= MAX_BLOCK_DEPTH && depth <= A::WIDTH,
        "block depth {depth} out of range for width {}",
        A::WIDTH
    );
    let msb = addr.to_u128() << (128 - u32::from(A::WIDTH));
    let top = (msb >> 64) as u64;
    top & (u64::MAX << (64 - u32::from(depth)))
}

/// Hashes a [`block_key`] for the open-addressed tables keyed on it (the
/// heat sketch and the hot slab): the murmur3/splitmix 64-bit finalizer,
/// two multiplies — cheap enough for one hash per packet, where byte-wise
/// FNV-1a spends eight dependent ones.
#[must_use]
#[inline]
pub fn block_hash(key: u64) -> u64 {
    let mut x = key;
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    x ^= x >> 33;
    x = x.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    x ^ (x >> 33)
}

/// An IP prefix: an address plus a length, kept canonical (bits past the
/// length are always zero), so `Eq`/`Hash`/`Ord` behave as expected.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Prefix<A: Address> {
    addr: A,
    len: u8,
}

/// An IPv4 prefix.
pub type Prefix4 = Prefix<u32>;
/// An IPv6 prefix.
pub type Prefix6 = Prefix<u128>;

impl<A: Address> Prefix<A> {
    /// Creates a prefix, masking `addr` down to `len` bits.
    ///
    /// # Panics
    /// Panics if `len > A::WIDTH`.
    #[must_use]
    pub fn new(addr: A, len: u8) -> Self {
        assert!(
            len <= A::WIDTH,
            "prefix length {len} exceeds width {}",
            A::WIDTH
        );
        Self {
            addr: addr.mask(len),
            len,
        }
    }

    /// The root prefix `::/0` covering the whole address space.
    #[must_use]
    pub fn root() -> Self {
        Self {
            addr: A::default(),
            len: 0,
        }
    }

    /// The (masked) address.
    #[must_use]
    pub fn addr(self) -> A {
        self.addr
    }

    /// The prefix length. (A length of 0 is the root prefix, not an
    /// "empty" prefix, so there is deliberately no `is_empty`.)
    #[must_use]
    #[allow(clippy::len_without_is_empty)]
    pub fn len(self) -> u8 {
        self.len
    }

    /// The `i`-th bit of the prefix, `i < len`.
    #[must_use]
    pub fn bit(self, i: u8) -> bool {
        debug_assert!(i < self.len);
        self.addr.bit(i)
    }

    /// Whether `addr` falls inside this prefix.
    #[must_use]
    pub fn contains(self, addr: A) -> bool {
        addr.mask(self.len) == self.addr
    }

    /// Whether `other` is equal to or more specific than `self`.
    #[must_use]
    pub fn covers(self, other: Self) -> bool {
        other.len >= self.len && other.addr.mask(self.len) == self.addr
    }

    /// The two children of this prefix in the binary trie, or `None` at
    /// maximum depth.
    #[must_use]
    pub fn children(self) -> Option<(Self, Self)> {
        if self.len >= A::WIDTH {
            return None;
        }
        let left = Self {
            addr: self.addr,
            len: self.len + 1,
        };
        let right = Self {
            addr: self.addr.with_bit(self.len),
            len: self.len + 1,
        };
        Some((left, right))
    }
}

impl fmt::Display for Prefix<u32> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", Ipv4Addr::from(self.addr), self.len)
    }
}

impl fmt::Display for Prefix<u128> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", Ipv6Addr::from(self.addr), self.len)
    }
}

impl<A: Address> fmt::Debug for Prefix<A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}/{}", self.addr.to_u128(), self.len)
    }
}

/// Error parsing a textual prefix.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParsePrefixError(String);

impl fmt::Display for ParsePrefixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid prefix: {}", self.0)
    }
}

impl std::error::Error for ParsePrefixError {}

impl FromStr for Prefix<u32> {
    type Err = ParsePrefixError;

    /// Parses `"a.b.c.d/len"`; a bare address means `/32`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (addr_s, len) = match s.split_once('/') {
            Some((a, l)) => (
                a,
                l.parse::<u8>()
                    .map_err(|_| ParsePrefixError(s.to_string()))?,
            ),
            None => (s, 32),
        };
        if len > 32 {
            return Err(ParsePrefixError(s.to_string()));
        }
        let addr: Ipv4Addr = addr_s
            .parse()
            .map_err(|_| ParsePrefixError(s.to_string()))?;
        Ok(Self::new(u32::from(addr), len))
    }
}

impl FromStr for Prefix<u128> {
    type Err = ParsePrefixError;

    /// Parses `"addr/len"` in IPv6 notation; a bare address means `/128`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (addr_s, len) = match s.split_once('/') {
            Some((a, l)) => (
                a,
                l.parse::<u8>()
                    .map_err(|_| ParsePrefixError(s.to_string()))?,
            ),
            None => (s, 128),
        };
        if len > 128 {
            return Err(ParsePrefixError(s.to_string()));
        }
        let addr: Ipv6Addr = addr_s
            .parse()
            .map_err(|_| ParsePrefixError(s.to_string()))?;
        Ok(Self::new(u128::from(addr), len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u32_bit_indexing_is_msb_first() {
        let a: u32 = 0x8000_0001;
        assert!(a.bit(0));
        assert!(!a.bit(1));
        assert!(!a.bit(30));
        assert!(a.bit(31));
    }

    #[test]
    fn u32_mask_keeps_top_bits() {
        let a: u32 = 0xFFFF_FFFF;
        assert_eq!(a.mask(0), 0);
        assert_eq!(a.mask(8), 0xFF00_0000);
        assert_eq!(a.mask(32), a);
    }

    #[test]
    fn with_bit_sets_msb_first() {
        assert_eq!(0u32.with_bit(0), 0x8000_0000);
        assert_eq!(0u32.with_bit(31), 1);
        assert_eq!(0u128.with_bit(0), 1u128 << 127);
    }

    #[test]
    fn bits_extracts_strides() {
        let a: u32 = 0xABCD_1234;
        assert_eq!(a.bits(0, 4), 0xA);
        assert_eq!(a.bits(4, 8), 0xBC);
        assert_eq!(a.bits(0, 32), a);
        assert_eq!(a.bits(28, 4), 0x4);
        assert_eq!(a.bits(16, 0), 0);
        let b: u128 = 0xABCD_1234u128 << 96;
        assert_eq!(b.bits(0, 4), 0xA);
        assert_eq!(b.bits(4, 8), 0xBC);
        assert_eq!(b.bits(96, 32), 0, "low bits are zero");
        assert_eq!(b.bits(0, 32), 0xABCD_1234);
    }

    #[test]
    fn prefix_is_canonical() {
        let p = Prefix::new(0xFFFF_FFFFu32, 8);
        assert_eq!(p.addr(), 0xFF00_0000);
        assert_eq!(p, Prefix::new(0xFF12_3456u32, 8));
    }

    #[test]
    fn prefix_contains_and_covers() {
        let p: Prefix4 = "10.0.0.0/8".parse().unwrap();
        assert!(p.contains(u32::from(Ipv4Addr::new(10, 1, 2, 3))));
        assert!(!p.contains(u32::from(Ipv4Addr::new(11, 0, 0, 0))));
        let q: Prefix4 = "10.32.0.0/11".parse().unwrap();
        assert!(p.covers(q));
        assert!(!q.covers(p));
        assert!(p.covers(p));
        assert!(Prefix4::root().covers(p));
    }

    #[test]
    fn prefix_children_split_the_space() {
        let p: Prefix4 = "10.0.0.0/8".parse().unwrap();
        let (l, r) = p.children().unwrap();
        assert_eq!(l.to_string(), "10.0.0.0/9");
        assert_eq!(r.to_string(), "10.128.0.0/9");
        let host: Prefix4 = "1.2.3.4/32".parse().unwrap();
        assert!(host.children().is_none());
    }

    #[test]
    fn parse_and_display_roundtrip_v4() {
        for s in ["0.0.0.0/0", "10.0.0.0/8", "192.168.1.128/25", "1.2.3.4/32"] {
            let p: Prefix4 = s.parse().unwrap();
            assert_eq!(p.to_string(), s);
        }
        // Non-canonical input is masked.
        let p: Prefix4 = "10.0.0.1/8".parse().unwrap();
        assert_eq!(p.to_string(), "10.0.0.0/8");
        // Bare address is a host route.
        let p: Prefix4 = "1.2.3.4".parse().unwrap();
        assert_eq!(p.len(), 32);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("10.0.0.0/33".parse::<Prefix4>().is_err());
        assert!("10.0.0/8".parse::<Prefix4>().is_err());
        assert!("banana".parse::<Prefix4>().is_err());
        assert!("10.0.0.0/x".parse::<Prefix4>().is_err());
    }

    #[test]
    fn parse_and_display_roundtrip_v6() {
        for s in ["::/0", "2001:db8::/32", "fe80::/10"] {
            let p: Prefix6 = s.parse().unwrap();
            assert_eq!(p.to_string(), s);
        }
        assert!("2001:db8::/129".parse::<Prefix6>().is_err());
    }

    #[test]
    fn v6_bit_access() {
        let p: Prefix6 = "8000::/1".parse().unwrap();
        assert!(p.bit(0));
        let p: Prefix6 = "0010::/12".parse().unwrap();
        assert!(p.bit(11));
        assert!(!p.bit(10));
    }
}
