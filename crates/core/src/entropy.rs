//! FIB entropy and the FIB information-theoretic lower bound (Section 2).
//!
//! Both are defined on the *leaf-pushed normal form* of the FIB, which is
//! unique per forwarding function:
//!
//! * **Proposition 1** — a proper binary leaf-labeled trie with `n` leaves
//!   over an alphabet of size δ needs at least `I = 2n + n·⌈lg δ⌉` bits,
//! * **Proposition 2** — with leaf-label Shannon entropy `H0`, the
//!   zero-order entropy is `E = 2n + n·H0` bits.
//!
//! (These are the *corrected* constants of the revised technical report;
//! the original SIGCOMM text had `4n` by a tree-counting slip.)

use fib_succinct::{ceil_log2, shannon_entropy};
use fib_trie::{Address, BinaryTrie, ProperTrie};

/// The compressibility metrics of one FIB.
#[derive(Clone, Debug, PartialEq)]
pub struct FibEntropy {
    /// Leaves of the normal form (the paper's `n`).
    pub n_leaves: usize,
    /// Total nodes of the normal form (`t = 2n − 1`).
    pub t_nodes: usize,
    /// Distinct leaf labels, the invalid label ⊥ included when present
    /// (the paper's δ).
    pub delta: usize,
    /// Shannon entropy of the leaf-label distribution in bits/label.
    pub h0: f64,
    /// Leaf-label histogram counts (order unspecified).
    pub label_counts: Vec<u64>,
}

impl FibEntropy {
    /// Computes the metrics from a normal form.
    #[must_use]
    pub fn of_proper<A: Address>(proper: &ProperTrie<A>) -> Self {
        let hist = proper.leaf_label_histogram();
        let label_counts: Vec<u64> = hist.values().copied().collect();
        Self {
            n_leaves: proper.n_leaves(),
            t_nodes: proper.node_count(),
            delta: label_counts.len(),
            h0: shannon_entropy(&label_counts),
            label_counts,
        }
    }

    /// Normalizes `trie` and computes the metrics.
    #[must_use]
    pub fn of_trie<A: Address>(trie: &BinaryTrie<A>) -> Self {
        Self::of_proper(&ProperTrie::from_trie(trie))
    }

    /// The depth-conditioned (first-order, context = trie level) label
    /// entropy in bits: `Σ_levels n_level · H0(level)`, plus the `2n`
    /// structure bits. §3.2 argues XBW-b can reach higher-order entropy
    /// because level order clusters equal-context labels; this quantity is
    /// the corresponding bound, and comparing it with
    /// [`Self::entropy_bits`] *answers the paper's open question* of
    /// whether contextual dependency exists in a given FIB: a gap means
    /// yes.
    #[must_use]
    pub fn contextual_entropy_bits<A: Address>(proper: &ProperTrie<A>) -> f64 {
        use std::collections::BTreeMap;
        let mut per_level: BTreeMap<u8, BTreeMap<Option<fib_trie::NextHop>, u64>> = BTreeMap::new();
        for (node, &depth) in proper.nodes().iter().zip(proper.depths()) {
            if let fib_trie::ProperNode::Leaf(label) = node {
                *per_level
                    .entry(depth)
                    .or_default()
                    .entry(*label)
                    .or_insert(0) += 1;
            }
        }
        let n = proper.n_leaves() as f64;
        let mut label_bits = 0.0;
        for hist in per_level.values() {
            let counts: Vec<u64> = hist.values().copied().collect();
            let level_n: u64 = counts.iter().sum();
            label_bits += level_n as f64 * shannon_entropy(&counts);
        }
        2.0 * n + label_bits
    }

    /// The FIB information-theoretic lower bound `I = 2n + n·⌈lg δ⌉`, bits.
    #[must_use]
    pub fn info_bound_bits(&self) -> f64 {
        let n = self.n_leaves as f64;
        2.0 * n + n * f64::from(ceil_log2(self.delta as u64))
    }

    /// The FIB zero-order entropy `E = 2n + n·H0`, bits.
    #[must_use]
    pub fn entropy_bits(&self) -> f64 {
        let n = self.n_leaves as f64;
        2.0 * n + n * self.h0
    }

    /// `I` in KiB-free kilobytes (the paper reports KBytes = 1000 bytes…
    /// we use binary KBytes = 1024 consistently; EXPERIMENTS.md notes
    /// this).
    #[must_use]
    pub fn info_bound_kbytes(&self) -> f64 {
        self.info_bound_bits() / 8.0 / 1024.0
    }

    /// `E` in kilobytes.
    #[must_use]
    pub fn entropy_kbytes(&self) -> f64 {
        self.entropy_bits() / 8.0 / 1024.0
    }

    /// Compression efficiency ν of a representation of `size_bits`: the
    /// factor between achieved size and the entropy bound (Table 1's ν).
    #[must_use]
    pub fn efficiency(&self, size_bits: f64) -> f64 {
        size_bits / self.entropy_bits()
    }

    /// Bits per prefix (Table 1's η) for a FIB of `n_prefixes` routes.
    #[must_use]
    pub fn bits_per_prefix(size_bits: f64, n_prefixes: usize) -> f64 {
        size_bits / n_prefixes as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fib_trie::{NextHop, Prefix4};

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
    fn fig1_metrics() {
        let e = FibEntropy::of_trie(&fig1_trie());
        assert_eq!(e.n_leaves, 5);
        assert_eq!(e.t_nodes, 9);
        assert_eq!(e.delta, 3);
        // Labels 2,3,2,2,1 → p = (3/5, 1/5, 1/5).
        let expected_h0 = -(0.6f64 * 0.6f64.log2() + 2.0 * 0.2 * 0.2f64.log2());
        assert!((e.h0 - expected_h0).abs() < 1e-12);
        // I = 2·5 + 5·lg 3 = 10 + 10 = 20 bits.
        assert_eq!(e.info_bound_bits(), 20.0);
        // E = 10 + 5·H0 < I since the distribution is skewed.
        assert!(e.entropy_bits() < e.info_bound_bits());
    }

    #[test]
    fn uniform_labels_meet_info_bound() {
        // δ = 2 with a 50/50 split: H0 = 1 = lg δ, so E = I.
        let mut trie: BinaryTrie<u32> = BinaryTrie::new();
        trie.insert(p("0.0.0.0/1"), nh(0));
        trie.insert(p("128.0.0.0/1"), nh(1));
        let e = FibEntropy::of_trie(&trie);
        assert_eq!(e.delta, 2);
        assert!((e.entropy_bits() - e.info_bound_bits()).abs() < 1e-12);
    }

    #[test]
    fn single_label_fib_has_zero_entropy() {
        let mut trie: BinaryTrie<u32> = BinaryTrie::new();
        trie.insert(p("0.0.0.0/0"), nh(7));
        let e = FibEntropy::of_trie(&trie);
        assert_eq!(e.n_leaves, 1);
        assert_eq!(e.delta, 1);
        assert_eq!(e.h0, 0.0);
        assert_eq!(e.entropy_bits(), 2.0);
    }

    #[test]
    fn bottom_counts_as_a_symbol() {
        // Half the space uncovered: ⊥ is half the leaf mass → H0 = 1.
        let mut trie: BinaryTrie<u32> = BinaryTrie::new();
        trie.insert(p("128.0.0.0/1"), nh(1));
        let e = FibEntropy::of_trie(&trie);
        assert_eq!(e.delta, 2);
        assert!((e.h0 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn contextual_entropy_never_exceeds_zero_order() {
        // Conditioning cannot increase entropy (within each level the
        // distribution is exact, so Σ n_l·H0(l) ≤ n·H0).
        let trie = fig1_trie();
        let proper = fib_trie::ProperTrie::from_trie(&trie);
        let e = FibEntropy::of_proper(&proper);
        let ctx = FibEntropy::contextual_entropy_bits(&proper);
        assert!(
            ctx <= e.entropy_bits() + 1e-9,
            "{ctx} > {}",
            e.entropy_bits()
        );
    }

    #[test]
    fn contextual_entropy_detects_depth_dependence() {
        // Two depth regimes with disjoint alphabets: /14s alternating
        // {0,1} on the left half, /12s alternating {2,3} on the right.
        // Per level H = 1 bit; globally the four labels mix to H0 ≈ 1.72.
        let mut trie: BinaryTrie<u32> = BinaryTrie::new();
        for i in 0..8192u32 {
            trie.insert(Prefix4::new(i << 18, 14), nh(i % 2));
        }
        for j in 0..2048u32 {
            trie.insert(Prefix4::new(0x8000_0000 | (j << 20), 12), nh(2 + j % 2));
        }
        let proper = fib_trie::ProperTrie::from_trie(&trie);
        let e = FibEntropy::of_proper(&proper);
        let ctx = FibEntropy::contextual_entropy_bits(&proper);
        let n = e.n_leaves as f64;
        let ctx_label = ctx - 2.0 * n;
        let global_label = e.entropy_bits() - 2.0 * n;
        assert!(
            ctx_label < 0.8 * global_label,
            "contextual label bits {ctx_label} should be well below zero-order {global_label}"
        );
    }

    #[test]
    fn efficiency_and_bits_per_prefix() {
        let e = FibEntropy::of_trie(&fig1_trie());
        let ebits = e.entropy_bits();
        assert!((e.efficiency(3.0 * ebits) - 3.0).abs() < 1e-12);
        assert!((FibEntropy::bits_per_prefix(600.0, 6) - 100.0).abs() < 1e-12);
    }
}
