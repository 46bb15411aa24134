//! A level-compressed multibit trie (Fig. 1(d)) in the style of the Linux
//! kernel's `fib_trie` (Nilsson–Karlsson LC-tries).
//!
//! Level compression replaces the top `k` levels of a dense subtrie with a
//! single 2^k-way branch node, cutting lookup depth from O(W) to a few
//! memory accesses. This is the *fast but big* software baseline of the
//! paper's Table 2: the kernel's variant spends tens of megabytes on a
//! DFZ-sized FIB and therefore runs out of CPU cache — which is precisely
//! the effect the paper's compressed structures eliminate.
//!
//! The structure is built statically from the leaf-pushed normal form with
//! a configurable *fill factor*: a node adopts stride `k` as long as at
//! least `fill·2^k` of the depth-`k` descendants are real (the rest
//! duplicate covering leaves), mirroring (statically) the kernel's
//! inflate/halve heuristics.
//!
//! Storage is one packed `u64` per node (leaf tag + label, or stride +
//! child base), so the whole arena is a flat word string. The LC-trie is
//! a baseline only: it has no FIB-image encoding.

use std::marker::PhantomData;

use crate::addr::{Address, Depth};
use crate::binary::BinaryTrie;
use crate::leafpush::{ProperNode, ProperTrie};
use crate::nexthop::NextHop;

/// Packed node encoding: bit 63 tags a leaf; a leaf stores `label + 1` in
/// the low 33 bits (0 = no route); a branch stores the stride in bits
/// 32–39 and the child base index in the low 32 bits. Children of a
/// branch always live at higher indices than the branch itself.
const LEAF_TAG: u64 = 1 << 63;

#[inline]
fn pack_leaf(label: Option<NextHop>) -> u64 {
    LEAF_TAG | label.map_or(0, |nh| u64::from(nh.index()) + 1)
}

#[inline]
fn unpack_leaf(word: u64) -> Option<NextHop> {
    let raw = word & !LEAF_TAG;
    if raw == 0 {
        None
    } else {
        Some(NextHop::new((raw - 1) as u32))
    }
}

#[inline]
fn pack_branch(bits: u8, base: u32) -> u64 {
    (u64::from(bits) << 32) | u64::from(base)
}

/// A static level-compressed multibit trie (owned builder).
#[derive(Clone, Debug)]
pub struct LcTrie<A: Address> {
    nodes: Vec<u64>,
    root: u32,
    max_stride: u8,
    _marker: PhantomData<A>,
}

impl<A: Address> LcTrie<A> {
    /// Builds from a route trie with the default parameters (fill factor
    /// 1/2, maximum stride 12 — the size the kernel's dynamically resized
    /// root typically reaches on a DFZ table).
    #[must_use]
    pub fn from_trie(trie: &BinaryTrie<A>) -> Self {
        Self::with_params(trie, 0.5, 12)
    }

    /// Builds with an explicit fill factor in `(0, 1]` and maximum stride.
    ///
    /// # Panics
    /// Panics if `fill` is not in `(0, 1]` or `max_stride == 0`.
    #[must_use]
    pub fn with_params(trie: &BinaryTrie<A>, fill: f64, max_stride: u8) -> Self {
        assert!(fill > 0.0 && fill <= 1.0, "fill factor {fill} out of (0,1]");
        assert!(max_stride >= 1, "max_stride must be at least 1");
        let proper = ProperTrie::from_trie(trie);
        let mut lc = Self {
            nodes: Vec::new(),
            root: 0,
            max_stride,
            _marker: PhantomData,
        };
        // Reserve the root slot, then fill it.
        lc.nodes.push(pack_leaf(None));
        let built = lc.build(&proper, proper.root_idx(), fill);
        lc.nodes[0] = built;
        lc
    }

    /// Builds the packed node for proper-trie node `idx`; children of
    /// branch nodes are appended contiguously (always above their parent).
    fn build(&mut self, proper: &ProperTrie<A>, idx: u32, fill: f64) -> u64 {
        match *proper.node(idx) {
            ProperNode::Leaf(label) => pack_leaf(label),
            ProperNode::Internal { .. } => {
                let bits = self.choose_stride(proper, idx, fill);
                let width = 1usize << bits;
                let base = self.nodes.len() as u32;
                // Reserve the contiguous child array first.
                self.nodes
                    .extend(std::iter::repeat_n(pack_leaf(None), width));
                for slot in 0..width {
                    let child = self.descend(proper, idx, slot as u32, bits);
                    self.nodes[base as usize + slot] = match child {
                        Descend::Reached(node_idx) => self.build(proper, node_idx, fill),
                        Descend::CutShort(label) => pack_leaf(label),
                    };
                }
                pack_branch(bits, base)
            }
        }
    }

    /// Largest stride `k` such that at least `fill·2^k` of the depth-`k`
    /// descendant slots below `idx` reach a real node.
    ///
    /// A slot reaches a real node at depth `k` exactly when its `k`-bit
    /// path stays on internal nodes for the first `k−1` steps, so the
    /// depth-`k` population is `2 ×` the number of *internal* nodes at
    /// depth `k−1`. That frontier is computed incrementally level by
    /// level (each candidate extends the previous candidate's frontier)
    /// instead of re-walking all `2^k` slot paths per candidate, which
    /// made wide-stride builds quadratic in the fanout.
    fn choose_stride(&self, proper: &ProperTrie<A>, idx: u32, fill: f64) -> u8 {
        let mut best = 1u8;
        // Internal nodes at depth k−1 below `idx` (k starts at 2).
        let mut frontier: Vec<u32> = match *proper.node(idx) {
            ProperNode::Leaf(_) => return best,
            ProperNode::Internal { left, right } => [left, right]
                .into_iter()
                .filter(|&c| matches!(proper.node(c), ProperNode::Internal { .. }))
                .collect(),
        };
        for k in 2..=self.max_stride {
            let width = 1u32 << k;
            let needed = (fill * f64::from(width)).ceil() as u32;
            let reached = 2 * frontier.len() as u32;
            if reached >= needed {
                best = k;
            } else {
                break;
            }
            // Advance the frontier to depth k for the next candidate.
            frontier = frontier
                .iter()
                .flat_map(|&f| match *proper.node(f) {
                    ProperNode::Internal { left, right } => [left, right],
                    ProperNode::Leaf(_) => unreachable!("frontier holds internal nodes"),
                })
                .filter(|&c| matches!(proper.node(c), ProperNode::Internal { .. }))
                .collect();
        }
        best
    }

    /// Walks `k` bits (the bits of `slot`, MSB first) down from `idx`.
    fn descend(&self, proper: &ProperTrie<A>, mut idx: u32, slot: u32, k: u8) -> Descend {
        for depth in 0..k {
            match *proper.node(idx) {
                ProperNode::Leaf(label) => return Descend::CutShort(label),
                ProperNode::Internal { left, right } => {
                    let bit = (slot >> (k - 1 - depth)) & 1 == 1;
                    idx = if bit { right } else { left };
                }
            }
        }
        Descend::Reached(idx)
    }

    /// Longest-prefix-match lookup.
    #[must_use]
    #[inline]
    pub fn lookup(&self, addr: A) -> Option<NextHop> {
        self.walk(addr, |_| {}).0
    }

    /// Lookup returning the number of branch nodes traversed (the paper's
    /// Table 2 "depth").
    #[must_use]
    pub fn lookup_with_depth(&self, addr: A) -> (Option<NextHop>, Depth) {
        self.walk(addr, |_| {})
    }

    /// Lookup reporting every node touch as `(byte offset, byte size)`
    /// within the arena — the access stream for cache simulation.
    pub fn lookup_traced(&self, addr: A, sink: &mut dyn FnMut(u64, u32)) -> Option<NextHop> {
        self.walk(addr, |idx| sink(u64::from(idx) * 8, 8)).0
    }

    /// Like [`Self::lookup_traced`], but with accesses laid out as the
    /// *kernel* structure would be in memory: 40-byte node records (struct
    /// header, alias list, next-hop info) instead of this crate's packed
    /// 8-byte slots. This is the access stream to feed a cache simulator
    /// when modeling the paper's 26 MB in-kernel `fib_trie`.
    pub fn lookup_traced_kernel(&self, addr: A, sink: &mut dyn FnMut(u64, u32)) -> Option<NextHop> {
        const KERNEL_NODE_BYTES: u64 = 40;
        let touch = |idx| sink(u64::from(idx) * KERNEL_NODE_BYTES, KERNEL_NODE_BYTES as u32);
        self.walk(addr, touch).0
    }

    /// Number of nodes (branch slots included).
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Average and maximum traversal depth (branch hops) over the address
    /// space, weighting each leaf by the fraction of addresses it covers.
    #[must_use]
    pub fn depth_stats(&self) -> (f64, u32) {
        let mut avg = 0.0;
        let mut max = 0u32;
        // (node, hops, fraction of address space)
        let mut stack = vec![(self.root, 0u32, 1.0f64)];
        while let Some((idx, hops, frac)) = stack.pop() {
            let word = self.nodes[idx as usize];
            if word & LEAF_TAG != 0 {
                avg += f64::from(hops) * frac;
                max = max.max(hops);
            } else {
                let bits = ((word >> 32) & 0xFF) as u32;
                let base = word as u32;
                let child_frac = frac / f64::from(1u32 << bits);
                for slot in 0..(1u32 << bits) {
                    stack.push((base + slot, hops + 1, child_frac));
                }
            }
        }
        (avg, max)
    }

    /// Actual arena footprint in bytes (8 per packed node).
    #[must_use]
    pub fn size_bytes(&self) -> usize {
        self.nodes.len() * 8
    }

    /// Footprint under a kernel-like memory model: 40 bytes per leaf (a
    /// `struct leaf` plus a `fib_alias`/`fib_info` share) and `32 + 8·2^k`
    /// bytes per 2^k-way tnode (struct header plus one 8-byte pointer per
    /// child). This is the model behind the 26 MB `fib_trie` figure the
    /// paper reports for a 410 K-prefix FIB.
    #[must_use]
    pub fn kernel_model_bytes(&self) -> usize {
        let mut total = 0usize;
        for &word in &self.nodes {
            total += if word & LEAF_TAG != 0 {
                40
            } else {
                32 + 8 * (1usize << ((word >> 32) & 0xFF))
            };
        }
        total
    }

    #[doc(hidden)]
    #[must_use]
    pub fn root_is_branch(&self) -> bool {
        self.nodes[self.root as usize] & LEAF_TAG == 0
    }

    /// The walk from the root to a leaf, counting branch hops; `touch`
    /// sees the index of every node word read (a traced lookup is this
    /// walk with a reporting `touch`).
    #[inline]
    fn walk(&self, addr: A, mut touch: impl FnMut(u32)) -> (Option<NextHop>, Depth) {
        let mut idx = self.root;
        let mut offset = 0u8;
        let mut hops: Depth = 0;
        loop {
            touch(idx);
            let word = self.nodes[idx as usize];
            if word & LEAF_TAG != 0 {
                return (unpack_leaf(word), hops);
            }
            let bits = ((word >> 32) & 0xFF) as u8;
            idx = (word as u32) + addr.bits(offset, bits);
            offset += bits;
            hops += 1;
        }
    }
}

enum Descend {
    /// The slot reaches a real node at exactly depth `k`.
    Reached(u32),
    /// The walk hit a leaf early; the slot duplicates that leaf's label.
    CutShort(Option<NextHop>),
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Prefix4;

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

    fn assert_equivalent(trie: &BinaryTrie<u32>, lc: &LcTrie<u32>, samples: u32) {
        for i in 0..samples {
            let addr = i.wrapping_mul(0x9E37_79B9) ^ (i << 3);
            assert_eq!(lc.lookup(addr), trie.lookup(addr), "addr {addr:#x}");
        }
        for top in 0..=255u32 {
            let addr = top << 24 | 0xFFFF;
            assert_eq!(lc.lookup(addr), trie.lookup(addr), "addr {addr:#x}");
        }
    }

    #[test]
    fn fig1_equivalence_all_fill_factors() {
        let trie = fig1_trie();
        for fill in [0.25, 0.5, 1.0] {
            let lc = LcTrie::with_params(&trie, fill, 16);
            assert_equivalent(&trie, &lc, 2000);
        }
    }

    #[test]
    fn fig1d_full_fill_compresses_levels() {
        // With fill = 1.0 the example's top is a complete depth-2 subtree
        // (after leaf-pushing): Fig. 1(d) shows a 4-way root branch.
        let trie = fig1_trie();
        let lc = LcTrie::with_params(&trie, 1.0, 16);
        assert!(lc.root_is_branch());
        let (avg, max) = lc.depth_stats();
        assert!(max <= 3, "example trie must flatten, max depth {max}");
        assert!(avg >= 1.0);
    }

    #[test]
    fn empty_and_default_only() {
        let trie: BinaryTrie<u32> = BinaryTrie::new();
        let lc = LcTrie::from_trie(&trie);
        assert_eq!(lc.lookup(123), None);
        let mut trie: BinaryTrie<u32> = BinaryTrie::new();
        trie.insert(p("0.0.0.0/0"), nh(4));
        let lc = LcTrie::from_trie(&trie);
        assert_eq!(lc.lookup(123), Some(nh(4)));
        let (avg, max) = lc.depth_stats();
        assert_eq!(avg, 0.0);
        assert_eq!(max, 0);
    }

    #[test]
    fn dense_fib_gets_wide_root() {
        // 256 /8 routes: the root should adopt a wide stride.
        let mut trie: BinaryTrie<u32> = BinaryTrie::new();
        for i in 0..256u32 {
            trie.insert(Prefix4::new(i << 24, 8), nh(i % 4));
        }
        let lc = LcTrie::with_params(&trie, 1.0, 16);
        assert_equivalent(&trie, &lc, 4000);
        let (avg, _) = lc.depth_stats();
        assert!(avg <= 1.5, "dense top should flatten to ~1 hop, got {avg}");
    }

    #[test]
    fn sparse_deep_fib_still_correct() {
        let mut trie: BinaryTrie<u32> = BinaryTrie::new();
        trie.insert(p("0.0.0.0/0"), nh(0));
        trie.insert(p("10.1.2.0/24"), nh(1));
        trie.insert(p("10.1.2.128/25"), nh(2));
        trie.insert(p("10.1.3.0/32"), nh(3));
        let lc = LcTrie::from_trie(&trie);
        assert_equivalent(&trie, &lc, 2000);
        assert_eq!(
            lc.lookup(u32::from(std::net::Ipv4Addr::new(10, 1, 2, 200))),
            Some(nh(2))
        );
        assert_eq!(
            lc.lookup(u32::from(std::net::Ipv4Addr::new(10, 1, 3, 0))),
            Some(nh(3))
        );
        assert_eq!(
            lc.lookup(u32::from(std::net::Ipv4Addr::new(10, 1, 3, 1))),
            Some(nh(0))
        );
    }

    #[test]
    fn kernel_model_dwarfs_actual_size() {
        let mut trie: BinaryTrie<u32> = BinaryTrie::new();
        for i in 0..512u32 {
            trie.insert(Prefix4::new(i << 23, 9), nh(i % 3));
        }
        let lc = LcTrie::from_trie(&trie);
        assert!(lc.kernel_model_bytes() > lc.size_bytes());
    }

    #[test]
    fn pseudorandom_equivalence_with_various_strides() {
        let mut trie: BinaryTrie<u32> = BinaryTrie::new();
        let mut x: u64 = 0x1234_5678_9ABC_DEF0;
        for _ in 0..500 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            trie.insert(
                Prefix4::new((x >> 32) as u32, (x % 33) as u8),
                nh((x % 6) as u32),
            );
        }
        for max_stride in [1u8, 4, 8, 16] {
            let lc = LcTrie::with_params(&trie, 0.5, max_stride);
            assert_equivalent(&trie, &lc, 3000);
        }
    }

    #[test]
    fn ipv6_lookup_works() {
        let mut trie: BinaryTrie<u128> = BinaryTrie::new();
        let p1: crate::Prefix6 = "2001:db8::/32".parse().unwrap();
        let p2: crate::Prefix6 = "2001:db8:aaaa::/48".parse().unwrap();
        trie.insert(p1, nh(1));
        trie.insert(p2, nh(2));
        let lc = LcTrie::from_trie(&trie);
        let a1: u128 = "2001:db8:1::1"
            .parse::<std::net::Ipv6Addr>()
            .unwrap()
            .into();
        let a2: u128 = "2001:db8:aaaa::1"
            .parse::<std::net::Ipv6Addr>()
            .unwrap()
            .into();
        let a3: u128 = "2002::".parse::<std::net::Ipv6Addr>().unwrap().into();
        assert_eq!(lc.lookup(a1), Some(nh(1)));
        assert_eq!(lc.lookup(a2), Some(nh(2)));
        assert_eq!(lc.lookup(a3), None);
    }
}
