//! Leaf-pushing: the unique normalized trie of Fig. 1(e).
//!
//! Leaf-pushing turns an arbitrary labeled binary trie into a *proper,
//! binary, leaf-labeled* trie that computes the same forwarding function:
//! labels are pushed from interior nodes down to the leaves (first pass),
//! then sibling leaves with identical labels are coalesced into their
//! parent (second pass). The result satisfies the paper's invariants
//!
//! * **P1** — every node is a leaf or has exactly two children,
//! * **P2** — exactly the leaves carry labels,
//! * **P3** — `t < 2n` (in fact `t = 2n − 1`),
//!
//! and is *unique* for a given forwarding function, which is what makes the
//! FIB information-theoretic bound and FIB entropy of Section 2 well
//! defined.

use std::collections::BTreeMap;
use std::marker::PhantomData;

use crate::addr::Address;
use crate::binary::{BinaryTrie, NodeRef};
use crate::nexthop::NextHop;

/// A node of a [`ProperTrie`]: interior nodes are unlabeled and always have
/// two children; leaves carry a label, where `None` is the invalid label ⊥
/// (address space not covered by any route).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProperNode {
    /// A leaf with its pushed-down label (`None` = ⊥).
    Leaf(Option<NextHop>),
    /// An interior node with its two children (arena indices).
    Internal {
        /// 0-subtrie.
        left: u32,
        /// 1-subtrie.
        right: u32,
    },
}

/// The leaf-pushed normal form of a FIB.
///
/// The arena is in **post-order**: every node's subtree occupies the
/// arena positions just before it, its left subtree first, then its
/// right subtree, then the node itself — so children precede their
/// parent, a right child sits at its parent's index minus one, and the
/// root is the last node. One forward pass over [`Self::nodes`] with a
/// stack of per-node results therefore finds a node's two children as
/// the top two entries: the variable-stride DP relies on it.
///
/// Beside the arena lies the **depth record**, one byte a node: its
/// distance from the root in bits, written as the leaf-push pushes the
/// node and truncated with the arena when sibling leaves coalesce. The
/// level order ([`Self::level_order`], a counting sort keyed by depth —
/// post-order keeps each level left to right), the vsdag's budget
/// reference and its heat-free weights (`2^−depth`) read it instead of
/// walking the trie.
#[derive(Clone, Debug)]
pub struct ProperTrie<A: Address> {
    nodes: Vec<ProperNode>,
    /// `depths[i]` is the depth of `nodes[i]`.
    depths: Vec<u8>,
    root: u32,
    n_leaves: usize,
    _marker: PhantomData<A>,
}

impl<A: Address> ProperTrie<A> {
    /// Normalizes `trie` by leaf-pushing and coalescing.
    #[must_use]
    pub fn from_trie(trie: &BinaryTrie<A>) -> Self {
        let mut builder = Self {
            nodes: Vec::new(),
            depths: Vec::new(),
            root: 0,
            n_leaves: 0,
            _marker: PhantomData,
        };
        builder.root = builder.build(Some(trie.root()), None, 0);
        builder
    }

    /// Push-down and coalesce in one post-order pass.
    fn build(
        &mut self,
        node: Option<NodeRef<'_, A>>,
        inherited: Option<NextHop>,
        depth: u8,
    ) -> u32 {
        let Some(node) = node else {
            return self.push_leaf(inherited, depth);
        };
        let effective = node.label().or(inherited);
        if node.is_leaf() || depth == A::WIDTH {
            return self.push_leaf(effective, depth);
        }
        let left = self.build(node.left(), effective, depth + 1);
        let right = self.build(node.right(), effective, depth + 1);
        // Coalesce identical sibling leaves. When both children are leaves
        // they are the two most recently pushed nodes, so the arena can
        // simply shrink.
        if let (ProperNode::Leaf(a), ProperNode::Leaf(b)) =
            (self.nodes[left as usize], self.nodes[right as usize])
        {
            if a == b {
                debug_assert_eq!(right as usize, self.nodes.len() - 1);
                debug_assert_eq!(left as usize, self.nodes.len() - 2);
                self.nodes.truncate(self.nodes.len() - 2);
                self.depths.truncate(self.nodes.len());
                self.n_leaves -= 2;
                return self.push_leaf(a, depth);
            }
        }
        let idx = self.nodes.len() as u32;
        self.nodes.push(ProperNode::Internal { left, right });
        self.depths.push(depth);
        idx
    }

    fn push_leaf(&mut self, label: Option<NextHop>, depth: u8) -> u32 {
        let idx = self.nodes.len() as u32;
        self.nodes.push(ProperNode::Leaf(label));
        self.depths.push(depth);
        self.n_leaves += 1;
        idx
    }

    /// Number of leaves (the paper's `n`).
    #[must_use]
    pub fn n_leaves(&self) -> usize {
        self.n_leaves
    }

    /// Total number of nodes (the paper's `t = 2n − 1`).
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Arena index of the root.
    #[must_use]
    pub fn root_idx(&self) -> u32 {
        self.root
    }

    /// The node at arena index `idx`.
    #[must_use]
    pub fn node(&self, idx: u32) -> &ProperNode {
        &self.nodes[idx as usize]
    }

    /// The whole arena, in post-order (see the type's docs).
    #[must_use]
    pub fn nodes(&self) -> &[ProperNode] {
        &self.nodes
    }

    /// The depth record: `depths()[i]` is the depth in bits of
    /// `nodes()[i]` (the root's is 0).
    #[must_use]
    pub fn depths(&self) -> &[u8] {
        &self.depths
    }

    /// Longest-prefix-match lookup: walk to the unique covering leaf.
    #[must_use]
    pub fn lookup(&self, addr: A) -> Option<NextHop> {
        self.walk(addr, |_| {})
    }

    /// Lookup reporting every node touch as `(byte offset, byte size)`
    /// within the arena — the access stream for cache simulation. The
    /// normal form is a plain array of [`ProperNode`] records, so each
    /// level of the walk reads exactly one record.
    pub fn lookup_traced(&self, addr: A, sink: &mut dyn FnMut(u64, u32)) -> Option<NextHop> {
        let node_bytes = std::mem::size_of::<ProperNode>() as u64;
        self.walk(addr, |idx| {
            sink(u64::from(idx) * node_bytes, node_bytes as u32)
        })
    }

    /// The walk from the root to the covering leaf; `touch` sees the
    /// arena index of every record read (a traced lookup is this walk
    /// with a reporting `touch`).
    #[inline]
    fn walk(&self, addr: A, mut touch: impl FnMut(u32)) -> Option<NextHop> {
        let mut idx = self.root;
        let mut depth = 0u8;
        loop {
            touch(idx);
            match self.nodes[idx as usize] {
                ProperNode::Leaf(label) => return label,
                ProperNode::Internal { left, right } => {
                    idx = if addr.bit(depth) { right } else { left };
                    depth += 1;
                }
            }
        }
    }

    /// Arena indices in level (BFS) order — root first, then each level
    /// left to right: the order the XBW-b transform serializes in.
    ///
    /// One counting pass over the depth record and one stable scatter:
    /// within a depth, the post-order arena already lists nodes left to
    /// right (a node's whole subtree precedes its right sibling's).
    #[must_use]
    pub fn level_order(&self) -> Vec<u32> {
        let mut next = [0u32; 1 + u8::MAX as usize + 1];
        for &depth in &self.depths {
            next[usize::from(depth) + 1] += 1;
        }
        for d in 1..next.len() {
            next[d] += next[d - 1];
        }
        let mut order = vec![0u32; self.nodes.len()];
        for (idx, &depth) in self.depths.iter().enumerate() {
            let at = &mut next[usize::from(depth)];
            order[*at as usize] = idx as u32;
            *at += 1;
        }
        order
    }

    /// Histogram of leaf labels (the distribution whose Shannon entropy is
    /// the paper's `H0`). The invalid label ⊥ is a symbol of its own.
    #[must_use]
    pub fn leaf_label_histogram(&self) -> BTreeMap<Option<NextHop>, u64> {
        let mut hist = BTreeMap::new();
        for node in &self.nodes {
            if let ProperNode::Leaf(label) = node {
                *hist.entry(*label).or_insert(0) += 1;
            }
        }
        hist
    }

    /// Maximum leaf depth in bits (the deepest node is a leaf).
    #[must_use]
    pub fn max_depth(&self) -> u8 {
        self.depths.iter().copied().max().unwrap_or(0)
    }

    /// Checks the structural invariants P1–P3 plus minimality (no two
    /// coalescible sibling leaves), and every recorded depth against a
    /// walk from the root. Intended for tests; cheap enough to run on
    /// real FIBs.
    ///
    /// # Panics
    /// Panics with a descriptive message if an invariant is violated.
    pub fn assert_invariants(&self) {
        let t = self.node_count();
        let n = self.n_leaves();
        assert!(t == 2 * n - 1, "P3 violated: t = {t}, n = {n}");
        assert_eq!(self.depths.len(), t, "one recorded depth per node");
        let (mut seen, mut seen_leaves) = (0, 0);
        let mut stack = vec![(self.root, 0u8)];
        while let Some((idx, depth)) = stack.pop() {
            seen += 1;
            assert_eq!(self.depths[idx as usize], depth, "recorded depth of {idx}");
            match self.nodes[idx as usize] {
                ProperNode::Leaf(_) => seen_leaves += 1,
                ProperNode::Internal { left, right } => {
                    if let (ProperNode::Leaf(a), ProperNode::Leaf(b)) =
                        (self.nodes[left as usize], self.nodes[right as usize])
                    {
                        assert_ne!(a, b, "not minimal: coalescible sibling leaves");
                    }
                    stack.push((left, depth + 1));
                    stack.push((right, depth + 1));
                }
            }
        }
        assert_eq!(seen, t, "node count mismatch");
        assert_eq!(seen_leaves, n, "leaf count mismatch");
    }

    /// Approximate heap footprint in bytes: the arena and the depth
    /// record.
    #[must_use]
    pub fn size_bytes(&self) -> usize {
        self.nodes.len() * (std::mem::size_of::<ProperNode>() + 1)
    }
}

/// Projects aggregated heat counts onto per-node traffic weights of a
/// leaf-pushed trie, indexed by arena position.
///
/// `entries` are `(key, count)` pairs whose keys are address prefixes
/// MSB-aligned in a `u64` and truncated to `heat_depth ≤ 64` bits (the
/// workload `HeatSummary` shape). A node at depth `d ≤ heat_depth` weighs
/// the sum of all counts falling in its address interval; below the
/// measured depth the covering block's mass is split uniformly
/// (`count · 2^−(d − heat_depth)`), matching the "uniform within a block"
/// assumption heat sampling makes. Weights are returned as fractions of
/// the total count; when the total is zero the uniform address-fraction
/// distribution `2^−d` is returned instead (the heat-free weights).
///
/// With heat, one pre-order pass: a node inside the measured depth hands
/// its children the two halves of its own run of sorted keys, split by
/// one binary search over that run; a deeper node weighs half its parent,
/// which is exact (a power-of-two scale of a normal `f64`). Without, no
/// walk: each node's `2^−d` is read off the depth record, the same bits
/// the halving reaches.
#[must_use]
pub fn project_heat_weights<A: Address>(
    proper: &ProperTrie<A>,
    entries: &[(u64, u64)],
    heat_depth: u8,
) -> Vec<f64> {
    let mut keys: Vec<(u64, u64)> = entries.iter().copied().filter(|&(_, c)| c > 0).collect();
    keys.sort_unstable_by_key(|&(k, _)| k);
    let mut prefix = Vec::with_capacity(keys.len() + 1);
    prefix.push(0u64);
    for &(_, c) in &keys {
        prefix.push(prefix[prefix.len() - 1] + c);
    }
    let total = prefix[keys.len()];
    if total == 0 {
        // 2^−d built from its exponent field: exact, and normal for any
        // d ≤ 128.
        return proper
            .depths()
            .iter()
            .map(|&d| f64::from_bits((1023 - u64::from(d)) << 52))
            .collect();
    }
    let totalf = total as f64;
    // The root carries all traffic (`total / total` is exactly one). A stack entry is a node, its depth, its MSB-aligned path and
    // its run `[lo, hi)` of `keys`; path and run are read only while the
    // node's children are measured.
    let mut weights = vec![0.0f64; proper.node_count()];
    weights[proper.root_idx() as usize] = 1.0;
    let mut stack = vec![(proper.root_idx(), 0u8, 0u64, 0usize, keys.len())];
    while let Some((idx, depth, path, lo, hi)) = stack.pop() {
        let ProperNode::Internal { left, right } = *proper.node(idx) else {
            continue;
        };
        let child = depth + 1;
        if child <= heat_depth {
            let right_path = path | 1u64 << (63 - depth);
            let mid = lo + keys[lo..hi].partition_point(|&(k, _)| k < right_path);
            weights[left as usize] = (prefix[mid] - prefix[lo]) as f64 / totalf;
            weights[right as usize] = (prefix[hi] - prefix[mid]) as f64 / totalf;
            stack.push((right, child, right_path, mid, hi));
            stack.push((left, child, path, lo, mid));
        } else {
            let half = weights[idx as usize] * 0.5;
            weights[left as usize] = half;
            weights[right as usize] = half;
            stack.push((right, child, path, lo, hi));
            stack.push((left, child, path, lo, hi));
        }
    }
    weights
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

    #[test]
    fn fig1e_shape_matches_paper() {
        // The paper's Fig. 1(e): leaf-pushing the example FIB yields leaves
        // labeled 3,2,2,1 at depth 3 region and a top-level leaf 2 — in
        // total 4+1 = 5 leaves... concretely: n = 5, t = 9 (Fig. 2 shows
        // S_I of length 9 with 5 ones).
        let pt = ProperTrie::from_trie(&fig1_trie());
        pt.assert_invariants();
        assert_eq!(pt.n_leaves(), 5);
        assert_eq!(pt.node_count(), 9);
        // Leaf labels in BFS order are 2 | 3 2 2 1 per Fig. 2's S_α.
        let bfs_labels: Vec<_> = pt
            .level_order()
            .into_iter()
            .filter_map(|i| match pt.node(i) {
                ProperNode::Leaf(l) => Some(l.unwrap().index()),
                ProperNode::Internal { .. } => None,
            })
            .collect();
        assert_eq!(bfs_labels, vec![2, 3, 2, 2, 1]);
    }

    #[test]
    fn forwarding_equivalence_with_source_trie() {
        let trie = fig1_trie();
        let pt = ProperTrie::from_trie(&trie);
        for i in 0..=255u32 {
            let addr = i << 24 | 0x123456;
            assert_eq!(pt.lookup(addr), trie.lookup(addr), "addr {addr:#x}");
        }
    }

    #[test]
    fn empty_fib_is_a_bottom_leaf() {
        let trie: BinaryTrie<u32> = BinaryTrie::new();
        let pt = ProperTrie::from_trie(&trie);
        assert_eq!(pt.n_leaves(), 1);
        assert_eq!(pt.node_count(), 1);
        assert_eq!(pt.lookup(42), None);
        pt.assert_invariants();
    }

    #[test]
    fn default_route_only_is_a_single_leaf() {
        let mut trie: BinaryTrie<u32> = BinaryTrie::new();
        trie.insert(p("0.0.0.0/0"), nh(5));
        let pt = ProperTrie::from_trie(&trie);
        assert_eq!(pt.n_leaves(), 1);
        assert_eq!(pt.lookup(0), Some(nh(5)));
        assert_eq!(pt.lookup(u32::MAX), Some(nh(5)));
    }

    #[test]
    fn redundant_more_specific_is_coalesced_away() {
        // A more-specific route with the same next-hop as its parent must
        // vanish in the normal form (this is the redundancy FIB aggregation
        // exploits).
        let mut trie: BinaryTrie<u32> = BinaryTrie::new();
        trie.insert(p("0.0.0.0/0"), nh(1));
        trie.insert(p("10.0.0.0/8"), nh(1));
        let pt = ProperTrie::from_trie(&trie);
        assert_eq!(pt.n_leaves(), 1, "same-label specifics must coalesce");
    }

    #[test]
    fn bottom_label_appears_without_default_route() {
        let mut trie: BinaryTrie<u32> = BinaryTrie::new();
        trie.insert(p("128.0.0.0/1"), nh(1));
        let pt = ProperTrie::from_trie(&trie);
        assert_eq!(pt.n_leaves(), 2);
        let hist = pt.leaf_label_histogram();
        assert_eq!(hist.get(&None), Some(&1), "⊥ leaf for uncovered half");
        assert_eq!(hist.get(&Some(nh(1))), Some(&1));
        assert_eq!(pt.lookup(0), None);
        assert_eq!(pt.lookup(u32::MAX), Some(nh(1)));
    }

    #[test]
    fn normal_form_is_unique_across_equivalent_fibs() {
        // Two syntactically different route sets with the same forwarding
        // function must produce identical normal forms.
        let mut a: BinaryTrie<u32> = BinaryTrie::new();
        a.insert(p("0.0.0.0/0"), nh(1));
        a.insert(p("128.0.0.0/1"), nh(2));
        let mut b: BinaryTrie<u32> = BinaryTrie::new();
        b.insert(p("0.0.0.0/1"), nh(1));
        b.insert(p("128.0.0.0/1"), nh(2));
        let pa = ProperTrie::from_trie(&a);
        let pb = ProperTrie::from_trie(&b);
        assert_eq!(pa.n_leaves(), pb.n_leaves());
        assert_eq!(pa.nodes(), pb.nodes());
        assert_eq!(pa.depths(), pb.depths());
    }

    #[test]
    fn host_route_pushes_to_full_depth() {
        let mut trie: BinaryTrie<u32> = BinaryTrie::new();
        trie.insert(p("0.0.0.0/0"), nh(1));
        trie.insert(p("1.2.3.4/32"), nh(2));
        let pt = ProperTrie::from_trie(&trie);
        pt.assert_invariants();
        assert_eq!(pt.max_depth(), 32);
        assert_eq!(
            pt.n_leaves(),
            33,
            "one leaf per disagreeing level plus host"
        );
        assert_eq!(
            pt.lookup(u32::from(std::net::Ipv4Addr::new(1, 2, 3, 4))),
            Some(nh(2))
        );
        assert_eq!(
            pt.lookup(u32::from(std::net::Ipv4Addr::new(1, 2, 3, 5))),
            Some(nh(1))
        );
    }

    #[test]
    fn traced_lookup_matches_plain_and_counts_levels() {
        let pt = ProperTrie::from_trie(&fig1_trie());
        for addr in [0u32, 0x2000_0000, 0x6000_0000, 0x8000_0000, u32::MAX] {
            let mut touches = 0u32;
            let traced = pt.lookup_traced(addr, &mut |_, _| touches += 1);
            assert_eq!(traced, pt.lookup(addr), "addr {addr:#x}");
            assert!(touches >= 1, "the root is always read");
        }
    }

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// `routes` prefixes of uniform length in `[0, max_len]` over four
    /// next-hops: deep, lopsided normal forms with plenty of coalescing.
    fn random_trie<A: Address>(seed: u64, routes: usize, max_len: u8) -> BinaryTrie<A> {
        let mut s = seed;
        let mut trie = BinaryTrie::new();
        for _ in 0..routes {
            let wide = u128::from(splitmix(&mut s)) << 64 | u128::from(splitmix(&mut s));
            let addr = A::from_u128(wide >> (128 - u32::from(A::WIDTH)));
            let len = (splitmix(&mut s) % (u64::from(max_len) + 1)) as u8;
            let hop = nh((splitmix(&mut s) % 4) as u32);
            trie.insert(crate::addr::Prefix::new(addr, len), hop);
        }
        trie
    }

    fn random_tries() -> (Vec<ProperTrie<u32>>, Vec<ProperTrie<u128>>) {
        let v4 = (0..4)
            .map(|seed| ProperTrie::from_trie(&random_trie::<u32>(seed, 400, 32)))
            .chain([ProperTrie::from_trie(&fig1_trie())])
            .collect();
        let v6 = (0..4)
            .map(|seed| ProperTrie::from_trie(&random_trie::<u128>(seed, 400, 60)))
            .collect();
        (v4, v6)
    }

    #[test]
    fn arena_is_post_order() {
        let (v4, v6) = random_tries();
        let check = |nodes: &[ProperNode], root: u32| {
            // Subtree sizes in one forward pass: a node's right child sits
            // just before it and its left child just before the right
            // subtree, so the subtrees tile the arena up to the node.
            let mut size = vec![0u32; nodes.len()];
            for (i, node) in nodes.iter().enumerate() {
                size[i] = match *node {
                    ProperNode::Leaf(_) => 1,
                    ProperNode::Internal { left, right } => {
                        assert_eq!(right as usize + 1, i, "right child of {i}");
                        assert_eq!(left + size[right as usize], right, "left child of {i}");
                        1 + size[left as usize] + size[right as usize]
                    }
                };
            }
            assert_eq!(root as usize + 1, nodes.len(), "the root is last");
            assert_eq!(size[root as usize] as usize, nodes.len());
        };
        for pt in &v4 {
            check(pt.nodes(), pt.root_idx());
        }
        for pt in &v6 {
            check(pt.nodes(), pt.root_idx());
        }
        let empty = ProperTrie::from_trie(&BinaryTrie::<u32>::new());
        check(empty.nodes(), empty.root_idx());
    }

    /// Level order by a FIFO walk from the root, the reference the
    /// counting sort over the depth record must equal.
    fn queue_level_order<A: Address>(pt: &ProperTrie<A>) -> Vec<u32> {
        let mut queue = std::collections::VecDeque::from([pt.root_idx()]);
        let mut order = Vec::new();
        while let Some(idx) = queue.pop_front() {
            order.push(idx);
            if let ProperNode::Internal { left, right } = *pt.node(idx) {
                queue.extend([left, right]);
            }
        }
        order
    }

    #[test]
    fn depth_record_gives_the_level_order() {
        let (v4, v6) = random_tries();
        let empty = ProperTrie::from_trie(&BinaryTrie::<u32>::new());
        let mut host: BinaryTrie<u128> = BinaryTrie::new();
        host.insert(crate::addr::Prefix::new(u128::MAX, 128), nh(1));
        let host = ProperTrie::from_trie(&host);
        assert_eq!(host.max_depth(), 128);
        for pt in v4.iter().chain([&empty]) {
            pt.assert_invariants();
            assert_eq!(pt.level_order(), queue_level_order(pt));
        }
        for pt in v6.iter().chain([&host]) {
            pt.assert_invariants();
            assert_eq!(pt.level_order(), queue_level_order(pt));
        }
    }

    /// The heat-free projection as the pre-order pass computed it: the
    /// root weighs one and every child half its parent.
    fn halving_weights<A: Address>(pt: &ProperTrie<A>) -> Vec<u64> {
        let mut weights = vec![0.0f64; pt.node_count()];
        weights[pt.root_idx() as usize] = 1.0;
        let mut stack = vec![pt.root_idx()];
        while let Some(idx) = stack.pop() {
            if let ProperNode::Internal { left, right } = *pt.node(idx) {
                let half = weights[idx as usize] * 0.5;
                weights[left as usize] = half;
                weights[right as usize] = half;
                stack.extend([right, left]);
            }
        }
        weights.into_iter().map(f64::to_bits).collect()
    }

    #[test]
    fn heat_free_weights_equal_the_halving_pass() {
        let (v4, v6) = random_tries();
        let mut host: BinaryTrie<u128> = BinaryTrie::new();
        host.insert(crate::addr::Prefix::new(1, 128), nh(1));
        let host = ProperTrie::from_trie(&host);
        let bits = |w: Vec<f64>| w.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        for pt in &v4 {
            assert_eq!(bits(project_heat_weights(pt, &[], 0)), halving_weights(pt));
            // All-zero counts are no heat.
            let zero = [(0, 0), (1 << 63, 0)];
            assert_eq!(
                bits(project_heat_weights(pt, &zero, 1)),
                halving_weights(pt)
            );
        }
        for pt in v6.iter().chain([&host]) {
            assert_eq!(bits(project_heat_weights(pt, &[], 0)), halving_weights(pt));
        }
    }

    /// The projection as first written — every node's address span, then
    /// two binary searches over the whole key array per node — kept as
    /// the reference the one-pass projection must equal bit for bit.
    fn reference_weights<A: Address>(
        pt: &ProperTrie<A>,
        entries: &[(u64, u64)],
        heat_depth: u8,
    ) -> Vec<f64> {
        let mut spans = vec![(0u64, 0u8); pt.node_count()];
        let mut stack = vec![(pt.root_idx(), 0u64, 0u8)];
        while let Some((idx, path, depth)) = stack.pop() {
            spans[idx as usize] = (path, depth);
            if let ProperNode::Internal { left, right } = *pt.node(idx) {
                stack.push((left, path, depth + 1));
                let right_path = if depth < 64 {
                    path | 1u64 << (63 - depth)
                } else {
                    path
                };
                stack.push((right, right_path, depth + 1));
            }
        }
        let mut keys: Vec<(u64, u64)> = entries.iter().copied().filter(|&(_, c)| c > 0).collect();
        keys.sort_unstable_by_key(|&(k, _)| k);
        let mut prefix = vec![0u64];
        for &(_, c) in &keys {
            prefix.push(prefix.last().unwrap() + c);
        }
        let total = *prefix.last().unwrap();
        if total == 0 {
            return spans
                .iter()
                .map(|&(_, d)| 0.5f64.powi(i32::from(d)))
                .collect();
        }
        let range_sum = |lo: u64, hi_incl: u64| -> u64 {
            let a = keys.partition_point(|&(k, _)| k < lo);
            let b = keys.partition_point(|&(k, _)| k <= hi_incl);
            prefix[b] - prefix[a]
        };
        let totalf = total as f64;
        spans
            .iter()
            .map(|&(path, depth)| {
                if depth <= heat_depth {
                    let hi = if depth == 0 {
                        u64::MAX
                    } else {
                        path | (u64::MAX >> depth)
                    };
                    range_sum(path, hi) as f64 / totalf
                } else {
                    let (block, hi) = if heat_depth == 0 {
                        (0, u64::MAX)
                    } else {
                        let block = path & (u64::MAX << (64 - heat_depth));
                        (block, block | (u64::MAX >> heat_depth))
                    };
                    let mass = range_sum(block, hi) as f64 / totalf;
                    mass * 0.5f64.powi(i32::from(depth - heat_depth))
                }
            })
            .collect()
    }

    /// `n` heat entries truncated to `depth` bits, some of them zero.
    fn random_heat(seed: u64, n: usize, depth: u8) -> Vec<(u64, u64)> {
        let mut s = seed;
        let mask = if depth == 0 {
            0
        } else {
            u64::MAX << (64 - depth)
        };
        (0..n)
            .map(|_| (splitmix(&mut s) & mask, splitmix(&mut s) % 50))
            .collect()
    }

    fn assert_bit_identical<A: Address>(pt: &ProperTrie<A>, entries: &[(u64, u64)], depth: u8) {
        let bits = |w: Vec<f64>| w.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        assert_eq!(
            bits(project_heat_weights(pt, entries, depth)),
            bits(reference_weights(pt, entries, depth)),
            "heat depth {depth}, {} entries",
            entries.len()
        );
    }

    #[test]
    fn heat_projection_equals_the_range_sum_reference() {
        let (v4, v6) = random_tries();
        // 40 is deeper than any v4 trie; an empty summary is uniform.
        for (i, pt) in v4.iter().enumerate() {
            for depth in [0u8, 1, 8, 24, 40] {
                for n in [0usize, 1, 300] {
                    assert_bit_identical(
                        pt,
                        &random_heat(i as u64 * 7 + n as u64, n, depth),
                        depth,
                    );
                }
            }
        }
        for (i, pt) in v6.iter().enumerate() {
            for depth in [0u8, 16, 48, 63] {
                for n in [0usize, 1, 300] {
                    assert_bit_identical(
                        pt,
                        &random_heat(i as u64 * 7 + n as u64, n, depth),
                        depth,
                    );
                }
            }
        }
        // All-zero counts are an empty summary.
        assert_bit_identical(&v4[0], &[(0, 0), (1 << 63, 0)], 1);
    }

    #[test]
    fn histogram_counts_sum_to_leaves() {
        let pt = ProperTrie::from_trie(&fig1_trie());
        let hist = pt.leaf_label_histogram();
        let total: u64 = hist.values().sum();
        assert_eq!(total as usize, pt.n_leaves());
        assert_eq!(hist.get(&Some(nh(2))), Some(&3));
        assert_eq!(hist.get(&Some(nh(1))), Some(&1));
        assert_eq!(hist.get(&Some(nh(3))), Some(&1));
    }
}
