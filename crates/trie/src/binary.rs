//! The binary prefix tree of Fig. 1(b) — the venerable trie, arena-based.

use std::marker::PhantomData;

use crate::addr::{Address, Depth, Prefix};
use crate::nexthop::NextHop;

const NONE: u32 = u32::MAX;

#[derive(Clone, Copy, Debug)]
struct Node {
    left: u32,
    right: u32,
    /// `NONE` when the node carries no label; otherwise a next-hop index.
    label: u32,
}

impl Node {
    const EMPTY: Self = Self {
        left: NONE,
        right: NONE,
        label: NONE,
    };
}

/// A binary prefix tree (trie) over addresses of type `A`.
///
/// Every path from the root corresponds to an IP prefix; a node carries a
/// label when that exact prefix has a route. Longest-prefix match walks the
/// address bits and remembers the last label seen — O(W) — and updates are
/// O(W) as well. This is both the baseline FIB of Section 2 and the
/// *control FIB* that trie-folding (Section 4) keeps in slow memory to
/// drive updates.
///
/// Nodes live in an arena (`Vec`) with a free list, so clones are cheap
/// memcpys and there is no per-node allocation.
#[derive(Clone, Debug)]
pub struct BinaryTrie<A: Address> {
    nodes: Vec<Node>,
    free: Vec<u32>,
    routes: usize,
    _marker: PhantomData<A>,
}

impl<A: Address> Default for BinaryTrie<A> {
    fn default() -> Self {
        Self::new()
    }
}

impl<A: Address> BinaryTrie<A> {
    /// Creates an empty trie (a single unlabeled root).
    #[must_use]
    pub fn new() -> Self {
        Self {
            nodes: vec![Node::EMPTY],
            free: Vec::new(),
            routes: 0,
            _marker: PhantomData,
        }
    }

    /// Number of routes (labeled nodes).
    #[must_use]
    pub fn len(&self) -> usize {
        self.routes
    }

    /// Whether the trie holds no routes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.routes == 0
    }

    /// Number of live trie nodes, including unlabeled interior nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.len() - self.free.len()
    }

    fn alloc(&mut self) -> u32 {
        if let Some(idx) = self.free.pop() {
            self.nodes[idx as usize] = Node::EMPTY;
            idx
        } else {
            let idx = self.nodes.len() as u32;
            self.nodes.push(Node::EMPTY);
            idx
        }
    }

    /// Inserts or replaces the route for `prefix`, returning the previous
    /// next-hop if one existed.
    pub fn insert(&mut self, prefix: Prefix<A>, next_hop: NextHop) -> Option<NextHop> {
        let mut idx = 0u32;
        for depth in 0..prefix.len() {
            let bit = prefix.bit(depth);
            let child = self.child(idx, bit);
            idx = if child == NONE {
                let new = self.alloc();
                self.set_child(idx, bit, new);
                new
            } else {
                child
            };
        }
        let old = self.nodes[idx as usize].label;
        self.nodes[idx as usize].label = next_hop.index();
        if old == NONE {
            self.routes += 1;
            None
        } else {
            Some(NextHop::new(old))
        }
    }

    /// Removes the route for `prefix`, returning its next-hop. Interior
    /// nodes left without labels or children are pruned.
    pub fn remove(&mut self, prefix: Prefix<A>) -> Option<NextHop> {
        // Record the path so we can prune bottom-up.
        let mut path = Vec::with_capacity(prefix.len() as usize + 1);
        let mut idx = 0u32;
        path.push(idx);
        for depth in 0..prefix.len() {
            let child = self.child(idx, prefix.bit(depth));
            if child == NONE {
                return None;
            }
            idx = child;
            path.push(idx);
        }
        let old = self.nodes[idx as usize].label;
        if old == NONE {
            return None;
        }
        self.nodes[idx as usize].label = NONE;
        self.routes -= 1;
        // Prune childless, unlabeled nodes (never the root).
        for depth in (1..path.len()).rev() {
            let node = path[depth];
            let n = self.nodes[node as usize];
            if n.left == NONE && n.right == NONE && n.label == NONE {
                let parent = path[depth - 1];
                let bit = prefix.bit(depth as u8 - 1);
                self.set_child(parent, bit, NONE);
                self.free.push(node);
            } else {
                break;
            }
        }
        Some(NextHop::new(old))
    }

    /// The next-hop registered for exactly `prefix`, if any.
    #[must_use]
    pub fn exact_match(&self, prefix: Prefix<A>) -> Option<NextHop> {
        let mut idx = 0u32;
        for depth in 0..prefix.len() {
            let child = self.child(idx, prefix.bit(depth));
            if child == NONE {
                return None;
            }
            idx = child;
        }
        let label = self.nodes[idx as usize].label;
        (label != NONE).then(|| NextHop::new(label))
    }

    /// Longest-prefix-match lookup.
    #[must_use]
    #[inline]
    pub fn lookup(&self, addr: A) -> Option<NextHop> {
        self.lookup_with_depth(addr).0
    }

    /// Longest-prefix-match lookup, also returning the number of nodes
    /// visited below the root (used by depth statistics).
    #[must_use]
    pub fn lookup_with_depth(&self, addr: A) -> (Option<NextHop>, Depth) {
        self.walk(addr, |_| {})
    }

    /// Lookup reporting every node touch as `(byte offset, byte size)`
    /// within the arena — the access stream for cache simulation.
    pub fn lookup_traced(&self, addr: A, sink: &mut dyn FnMut(u64, u32)) -> Option<NextHop> {
        const NODE_BYTES: u64 = 12;
        self.walk(addr, |idx| {
            sink(u64::from(idx) * NODE_BYTES, NODE_BYTES as u32)
        })
        .0
    }

    /// The walk from the root, remembering the deepest label passed;
    /// `touch` sees the arena index of every node read, the root's first
    /// (a traced lookup is this walk with a reporting `touch`).
    #[inline]
    fn walk(&self, addr: A, mut touch: impl FnMut(u32)) -> (Option<NextHop>, Depth) {
        let mut idx = 0u32;
        touch(idx);
        let mut best = self.nodes[0].label;
        let mut depth = 0u8;
        while depth < A::WIDTH {
            let child = self.child(idx, addr.bit(depth));
            if child == NONE {
                break;
            }
            idx = child;
            depth += 1;
            touch(idx);
            let label = self.nodes[idx as usize].label;
            if label != NONE {
                best = label;
            }
        }
        (
            (best != NONE).then(|| NextHop::new(best)),
            Depth::from(depth),
        )
    }

    /// Iterates over all routes in lexicographic (DFS, left-first) order.
    pub fn iter(&self) -> impl Iterator<Item = (Prefix<A>, NextHop)> + '_ {
        let mut stack = vec![(0u32, Prefix::<A>::root())];
        std::iter::from_fn(move || {
            while let Some((idx, prefix)) = stack.pop() {
                let node = self.nodes[idx as usize];
                if let Some((left, right)) = prefix.children() {
                    // Push right first so left pops first.
                    if node.right != NONE {
                        stack.push((node.right, right));
                    }
                    if node.left != NONE {
                        stack.push((node.left, left));
                    }
                }
                if node.label != NONE {
                    return Some((prefix, NextHop::new(node.label)));
                }
            }
            None
        })
    }

    /// The deepest labeled or structural node, in bits.
    #[must_use]
    pub fn max_depth(&self) -> u8 {
        let mut max = 0;
        let mut stack = vec![(0u32, 0u8)];
        while let Some((idx, depth)) = stack.pop() {
            max = max.max(depth);
            let node = self.nodes[idx as usize];
            if node.left != NONE {
                stack.push((node.left, depth + 1));
            }
            if node.right != NONE {
                stack.push((node.right, depth + 1));
            }
        }
        max
    }

    /// A read-only view of the root, for structural traversals.
    #[must_use]
    pub fn root(&self) -> NodeRef<'_, A> {
        NodeRef { trie: self, idx: 0 }
    }

    /// Resolves the whole `depth`-bit block containing `addr` at once:
    /// `Some(answer)` when every address in the block shares one
    /// longest-prefix-match answer (the block is *pure*), `None` when a
    /// route longer than `depth` splits it.
    ///
    /// This is the purity oracle behind the traffic-aware hot slab in
    /// `fib-core`: a pure block's answer can be pinned in a flat
    /// direct-index table and served without walking the compressed
    /// structure, while remaining bit-identical to the full walk.
    ///
    /// # Panics
    /// Panics if `depth` exceeds the address width.
    #[must_use]
    pub fn block_resolution(&self, addr: A, depth: u8) -> Option<Option<NextHop>> {
        assert!(depth <= A::WIDTH, "block depth beyond address width");
        let mut idx = 0u32;
        let mut best = self.nodes[0].label;
        for d in 0..depth {
            let child = self.child(idx, addr.bit(d));
            if child == NONE {
                // The walk falls off the trie above the block boundary:
                // no route longer than `d` covers any address in the
                // block, so the answer is constant across it.
                return Some((best != NONE).then(|| NextHop::new(best)));
            }
            idx = child;
            let label = self.nodes[idx as usize].label;
            if label != NONE {
                best = label;
            }
        }
        // The walk reached the block's root node. Any labeled strict
        // descendant is a longer route that splits the block.
        if self.has_labeled_descendant(idx) {
            None
        } else {
            Some((best != NONE).then(|| NextHop::new(best)))
        }
    }

    /// Whether any strict descendant of `idx` carries a label.
    fn has_labeled_descendant(&self, idx: u32) -> bool {
        let node = self.nodes[idx as usize];
        let mut stack = [0u32; 256];
        let mut top = 0usize;
        for child in [node.left, node.right] {
            if child != NONE {
                stack[top] = child;
                top += 1;
            }
        }
        while top > 0 {
            top -= 1;
            let n = self.nodes[stack[top] as usize];
            if n.label != NONE {
                return true;
            }
            for child in [n.left, n.right] {
                if child != NONE {
                    stack[top] = child;
                    top += 1;
                }
            }
        }
        false
    }

    /// Approximate heap footprint in bytes (12 bytes per arena slot).
    #[must_use]
    pub fn size_bytes(&self) -> usize {
        self.nodes.len() * std::mem::size_of::<Node>()
    }

    #[inline]
    fn child(&self, idx: u32, bit: bool) -> u32 {
        let node = &self.nodes[idx as usize];
        if bit {
            node.right
        } else {
            node.left
        }
    }

    fn set_child(&mut self, idx: u32, bit: bool, child: u32) {
        let node = &mut self.nodes[idx as usize];
        if bit {
            node.right = child;
        } else {
            node.left = child;
        }
    }
}

impl<A: Address> FromIterator<(Prefix<A>, NextHop)> for BinaryTrie<A> {
    fn from_iter<T: IntoIterator<Item = (Prefix<A>, NextHop)>>(iter: T) -> Self {
        let mut trie = Self::new();
        for (prefix, nh) in iter {
            trie.insert(prefix, nh);
        }
        trie
    }
}

/// Read-only view of a [`BinaryTrie`] node, used by the leaf-pushing and
/// trie-folding algorithms to walk the structure without exposing arena
/// indices.
#[derive(Clone, Copy)]
pub struct NodeRef<'a, A: Address> {
    trie: &'a BinaryTrie<A>,
    idx: u32,
}

impl<'a, A: Address> NodeRef<'a, A> {
    /// The label on this node, if any.
    #[must_use]
    pub fn label(self) -> Option<NextHop> {
        let l = self.trie.nodes[self.idx as usize].label;
        (l != NONE).then(|| NextHop::new(l))
    }

    /// The 0-child, if present.
    #[must_use]
    pub fn left(self) -> Option<NodeRef<'a, A>> {
        let c = self.trie.nodes[self.idx as usize].left;
        (c != NONE).then_some(NodeRef {
            trie: self.trie,
            idx: c,
        })
    }

    /// The 1-child, if present.
    #[must_use]
    pub fn right(self) -> Option<NodeRef<'a, A>> {
        let c = self.trie.nodes[self.idx as usize].right;
        (c != NONE).then_some(NodeRef {
            trie: self.trie,
            idx: c,
        })
    }

    /// Whether this node has no children.
    #[must_use]
    pub fn is_leaf(self) -> bool {
        let n = &self.trie.nodes[self.idx as usize];
        n.left == NONE && n.right == NONE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{Prefix4, Prefix6};
    use crate::table::RouteTable;

    fn nh(i: u32) -> NextHop {
        NextHop::new(i)
    }

    fn p(s: &str) -> Prefix4 {
        s.parse().unwrap()
    }

    fn fig1_routes() -> Vec<(Prefix4, NextHop)> {
        vec![
            (p("0.0.0.0/0"), nh(2)),
            (p("0.0.0.0/1"), nh(3)),
            (p("0.0.0.0/2"), nh(3)),
            (p("32.0.0.0/3"), nh(2)),
            (p("64.0.0.0/2"), nh(2)),
            (p("96.0.0.0/3"), nh(1)),
        ]
    }

    #[test]
    fn fig1_lookups_match_paper() {
        let t: BinaryTrie<u32> = fig1_routes().into_iter().collect();
        assert_eq!(t.lookup(0b0111 << 28), Some(nh(1)));
        assert_eq!(t.lookup(0), Some(nh(3)));
        assert_eq!(t.lookup(0b0010 << 28), Some(nh(2)));
        assert_eq!(t.lookup(0x8000_0000), Some(nh(2)));
        assert_eq!(t.len(), 6);
    }

    #[test]
    fn agrees_with_route_table_on_dense_small_space() {
        // Every /0../8 prefix over a few labels; checked against the oracle
        // on all 256 top-byte addresses.
        let mut routes = Vec::new();
        for len in [0u8, 3, 5, 8] {
            for i in 0..(1u32 << len) {
                let addr = i << (32 - len.max(1)) as u32;
                routes.push((Prefix4::new(addr, len), nh(i % 5)));
            }
        }
        let trie: BinaryTrie<u32> = routes.iter().copied().collect();
        let table: RouteTable<u32> = routes.iter().copied().collect();
        for top in 0..=255u32 {
            let addr = top << 24 | 0x0042_4242;
            assert_eq!(trie.lookup(addr), table.lookup(addr), "addr {addr:#x}");
        }
    }

    #[test]
    fn insert_replace_and_remove_roundtrip() {
        let mut t: BinaryTrie<u32> = BinaryTrie::new();
        assert_eq!(t.insert(p("10.0.0.0/8"), nh(1)), None);
        assert_eq!(t.insert(p("10.0.0.0/8"), nh(2)), Some(nh(1)));
        assert_eq!(t.len(), 1);
        assert_eq!(t.remove(p("10.0.0.0/8")), Some(nh(2)));
        assert_eq!(t.remove(p("10.0.0.0/8")), None);
        assert!(t.is_empty());
        // Pruning returns the arena to just the root.
        assert_eq!(t.node_count(), 1);
    }

    #[test]
    fn remove_prunes_only_dead_branches() {
        let mut t: BinaryTrie<u32> = BinaryTrie::new();
        t.insert(p("128.0.0.0/1"), nh(1));
        t.insert(p("192.0.0.0/2"), nh(2));
        let nodes_before = t.node_count();
        t.remove(p("192.0.0.0/2"));
        assert!(t.node_count() < nodes_before);
        assert_eq!(t.lookup(0xC000_0000), Some(nh(1)), "covered by /1 still");
        t.remove(p("128.0.0.0/1"));
        assert_eq!(t.node_count(), 1);
    }

    #[test]
    fn remove_keeps_interior_with_other_child() {
        let mut t: BinaryTrie<u32> = BinaryTrie::new();
        t.insert(p("0.0.0.0/2"), nh(1));
        t.insert(p("64.0.0.0/2"), nh(2));
        t.remove(p("0.0.0.0/2"));
        assert_eq!(t.lookup(0x4000_0000), Some(nh(2)));
        assert_eq!(t.lookup(0), None);
    }

    #[test]
    fn lookup_on_empty_and_default_only() {
        let mut t: BinaryTrie<u32> = BinaryTrie::new();
        assert_eq!(t.lookup(0), None);
        t.insert(p("0.0.0.0/0"), nh(9));
        assert_eq!(t.lookup(0), Some(nh(9)));
        assert_eq!(t.lookup(u32::MAX), Some(nh(9)));
    }

    #[test]
    fn host_routes_at_full_width() {
        let mut t: BinaryTrie<u32> = BinaryTrie::new();
        t.insert(p("1.2.3.4/32"), nh(1));
        t.insert(p("1.2.3.5/32"), nh(2));
        assert_eq!(
            t.lookup(u32::from(std::net::Ipv4Addr::new(1, 2, 3, 4))),
            Some(nh(1))
        );
        assert_eq!(
            t.lookup(u32::from(std::net::Ipv4Addr::new(1, 2, 3, 5))),
            Some(nh(2))
        );
        assert_eq!(
            t.lookup(u32::from(std::net::Ipv4Addr::new(1, 2, 3, 6))),
            None
        );
    }

    #[test]
    fn iter_yields_routes_in_dfs_order_and_roundtrips() {
        let routes = fig1_routes();
        let t: BinaryTrie<u32> = routes.iter().copied().collect();
        let collected: Vec<_> = t.iter().collect();
        assert_eq!(collected.len(), routes.len());
        let rebuilt: BinaryTrie<u32> = collected.into_iter().collect();
        for i in 0..64u32 {
            let addr = i << 26;
            assert_eq!(t.lookup(addr), rebuilt.lookup(addr));
        }
    }

    #[test]
    fn arena_reuses_freed_slots() {
        let mut t: BinaryTrie<u32> = BinaryTrie::new();
        t.insert(p("255.255.255.255/32"), nh(1));
        let grown = t.nodes.len();
        t.remove(p("255.255.255.255/32"));
        t.insert(p("255.255.255.254/32"), nh(2));
        assert_eq!(t.nodes.len(), grown, "free list should be reused");
    }

    #[test]
    fn ipv6_width_is_respected() {
        let mut t: BinaryTrie<u128> = BinaryTrie::new();
        let p1: Prefix6 = "2001:db8::/32".parse().unwrap();
        let p2: Prefix6 = "2001:db8:ffff::/48".parse().unwrap();
        t.insert(p1, nh(1));
        t.insert(p2, nh(2));
        let in_p2: u128 = "2001:db8:ffff::1"
            .parse::<std::net::Ipv6Addr>()
            .unwrap()
            .into();
        let in_p1: u128 = "2001:db8:1::1"
            .parse::<std::net::Ipv6Addr>()
            .unwrap()
            .into();
        let outside: u128 = "2002::1".parse::<std::net::Ipv6Addr>().unwrap().into();
        assert_eq!(t.lookup(in_p2), Some(nh(2)));
        assert_eq!(t.lookup(in_p1), Some(nh(1)));
        assert_eq!(t.lookup(outside), None);
        assert_eq!(t.max_depth(), 48);
    }

    #[test]
    fn block_resolution_agrees_with_lookup() {
        let t: BinaryTrie<u32> = fig1_routes().into_iter().collect();
        // Deepest route is /3, so every depth-3 block is pure and its
        // answer matches a pointwise lookup anywhere inside the block.
        for block in 0u32..8 {
            let base = block << 29;
            let res = t.block_resolution(base, 3);
            assert_eq!(res, Some(t.lookup(base)), "block {block}");
            assert_eq!(res, Some(t.lookup(base | 0x1FFF_FFFF)));
        }
        // A shallower block cut by a longer route is impure…
        assert_eq!(t.block_resolution(96 << 24, 2), None);
        // …while one whose walk falls off the trie early is pure.
        assert_eq!(t.block_resolution(0xFF00_0000, 8), Some(Some(nh(2))));
        // Purity flips when a longer route lands inside a block.
        let mut t = t;
        t.insert(p("96.1.0.0/16"), nh(9));
        assert_eq!(t.block_resolution(96 << 24, 8), None);
        assert_eq!(t.block_resolution(96 << 24, 16), Some(Some(nh(1))));
        assert_eq!(t.block_resolution(0x6001_0000, 16), Some(Some(nh(9))));
        // v6: pure everywhere on an empty trie (default answer None).
        let t6: BinaryTrie<u128> = BinaryTrie::new();
        assert_eq!(t6.block_resolution(0, 48), Some(None));
    }

    #[test]
    fn node_ref_walks_structure() {
        let t: BinaryTrie<u32> = fig1_routes().into_iter().collect();
        let root = t.root();
        assert_eq!(root.label(), Some(nh(2)));
        let left = root.left().expect("0/1 exists");
        assert_eq!(left.label(), Some(nh(3)));
        assert!(root.right().is_none(), "no route under 1/1");
        assert!(!root.is_leaf());
    }
}
