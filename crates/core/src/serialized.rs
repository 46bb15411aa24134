//! The serialized prefix DAG of Section 5.3.
//!
//! The paper's lookup engines (the Linux kernel module and the FPGA) do
//! not walk the pointer-machine DAG: they consume a flat serialized image
//! in which the first λ trie levels are collapsed into a 2^λ-entry root
//! array (the standard "initial stride" trick of DXR and friends, [61]),
//! and every folded interior node is a record of two tagged 32-bit
//! references. One memory word is touched per hop, which is what makes the
//! SRAM cycle model of `fib-hwsim` faithful.
//!
//! Layout (`8` bytes per element, contiguous):
//!
//! ```text
//! [ RootEntry × 2^λ ][ [u32; 2] × interior-count ]
//! ```
//!
//! Both regions are stored as packed `u64` words — a root entry is
//! `slot | fallback << 32`, an interior record `left | right << 32` — so
//! the whole engine is a flat word string: the owned [`SerializedDag`]
//! and the zero-copy [`SerializedDagRef`] that FIB images borrow run the
//! identical walk over the same encoding.
//!
//! A tagged reference is either `LEAF_TAG | label` (label `0x7FFF_FFFF` is
//! ⊥) or the index of an interior record. Each root entry carries the
//! reference for its λ-bit prefix plus the *fallback label*: the last
//! next-hop on the collapsed top path, which is what a ⊥ leaf resolves to
//! — the serialized counterpart of the DAG's label fall-through.

use std::marker::PhantomData;

use fib_trie::{Address, Depth, NextHop};

use crate::pdag::{PrefixDag, NONE};

const LEAF_TAG: u32 = 0x8000_0000;
const BOT: u32 = 0x7FFF_FFFF;

/// In-flight walks of the rolling-refill kernel behind
/// [`SerializedDagRef::lookup_batch`]. Each slot owns one walk and takes
/// the next address the moment its walk resolves, overlapping the
/// serial root-entry → node-record dependency chains even when every
/// probe hits cache; eight matches the XBW retune's lane sweep.
pub const SER_REFILL_LANES: usize = 8;

#[inline]
fn entry_slot(word: u64) -> u32 {
    word as u32
}

#[inline]
fn entry_fallback(word: u64) -> u32 {
    (word >> 32) as u32
}

#[inline]
fn record_child(word: u64, bit: bool) -> u32 {
    if bit {
        (word >> 32) as u32
    } else {
        word as u32
    }
}

/// What a leaf-tagged `reference` reached from root entry `entry`
/// answers: its own label, or — for a ⊥ leaf — the entry's fallback.
#[inline]
fn resolve(entry: u64, reference: u32) -> Option<NextHop> {
    let label = reference & !LEAF_TAG;
    if label == BOT {
        let fallback = entry_fallback(entry);
        (fallback != NONE).then(|| NextHop::new(fallback))
    } else {
        Some(NextHop::new(label))
    }
}

/// A flat, read-only prefix DAG image with zero-allocation lookup
/// (owned builder; all queries run on the borrowed [`SerializedDagRef`]).
#[derive(Clone, Debug)]
pub struct SerializedDag<A: Address> {
    lambda: u8,
    /// Root entries, one word each: `slot | fallback << 32`.
    entries: Vec<u64>,
    /// Interior records, one word each: `left | right << 32`.
    nodes: Vec<u64>,
    _marker: PhantomData<A>,
}

/// Borrowed zero-copy view of a [`SerializedDag`].
#[derive(Clone, Copy, Debug)]
pub struct SerializedDagRef<'a, A: Address> {
    lambda: u8,
    entries: &'a [u64],
    nodes: &'a [u64],
    _marker: PhantomData<A>,
}

impl<A: Address> SerializedDag<A> {
    /// Serializes `dag`.
    ///
    /// # Panics
    /// Panics if the DAG's λ exceeds 25 (the root array would exceed
    /// 256 MiB — far past any sensible configuration; the paper uses 11).
    #[must_use]
    pub fn from_dag(dag: &PrefixDag<A>) -> Self {
        let lambda = dag.lambda();
        assert!(
            lambda <= 25,
            "root array for λ = {lambda} would be enormous"
        );
        // Compact interior numbering, assigned on first visit.
        let mut ser_idx: std::collections::HashMap<u32, u32> = std::collections::HashMap::new();
        let mut nodes: Vec<u64> = Vec::new();
        let mut entries = Vec::with_capacity(1usize << lambda);
        for v in 0..(1u64 << lambda) {
            entries.push(Self::walk_top(dag, v, lambda, &mut ser_idx, &mut nodes));
        }
        Self {
            lambda,
            entries,
            nodes,
            _marker: PhantomData,
        }
    }

    /// Walks the top tree along the λ bits of `v`, producing the packed
    /// root entry and serializing the portal's folded subgraph on first
    /// visit.
    fn walk_top(
        dag: &PrefixDag<A>,
        v: u64,
        lambda: u8,
        ser_idx: &mut std::collections::HashMap<u32, u32>,
        nodes: &mut Vec<u64>,
    ) -> u64 {
        let mut idx = dag.root;
        let mut fallback = NONE;
        for depth in 0..lambda {
            if idx == NONE {
                break;
            }
            let (left, right, label) = dag.node(idx);
            if label != NONE {
                fallback = label;
            }
            let bit = (v >> (lambda - 1 - depth)) & 1 == 1;
            idx = if bit { right } else { left };
        }
        let slot = if idx == NONE {
            LEAF_TAG | BOT
        } else {
            // At λ = depth: idx is the portal (or, when λ = 0, the root
            // itself). Serialize its folded structure.
            Self::encode(dag, idx, ser_idx, nodes)
        };
        u64::from(slot) | (u64::from(fallback) << 32)
    }

    /// Recursively serializes a folded node into a tagged reference.
    fn encode(
        dag: &PrefixDag<A>,
        idx: u32,
        ser_idx: &mut std::collections::HashMap<u32, u32>,
        nodes: &mut Vec<u64>,
    ) -> u32 {
        let (left, right, label) = dag.node(idx);
        if (left, right) == (NONE, NONE) {
            return LEAF_TAG | if label == NONE { BOT } else { label };
        }
        if let Some(&existing) = ser_idx.get(&idx) {
            return existing;
        }
        let record = nodes.len() as u32;
        nodes.push(0); // reserve before recursing (shared DAG, no cycles)
        ser_idx.insert(idx, record);
        let left = Self::encode(dag, left, ser_idx, nodes);
        let right = Self::encode(dag, right, ser_idx, nodes);
        nodes[record as usize] = u64::from(left) | (u64::from(right) << 32);
        record
    }

    /// The collapsed stride λ.
    #[must_use]
    pub fn lambda(&self) -> u8 {
        self.lambda
    }

    /// The borrowed view all queries run on.
    #[must_use]
    #[inline]
    pub fn view(&self) -> SerializedDagRef<'_, A> {
        SerializedDagRef {
            lambda: self.lambda,
            entries: &self.entries,
            nodes: &self.nodes,
            _marker: PhantomData,
        }
    }

    /// The packed root-entry words.
    #[must_use]
    pub fn entry_words(&self) -> &[u64] {
        &self.entries
    }

    /// The packed interior-record words.
    #[must_use]
    pub fn node_words(&self) -> &[u64] {
        &self.nodes
    }

    /// Lookup also returning the number of node records touched after the
    /// root array (Table 2's "depth" for the pDAG engine).
    #[must_use]
    pub fn lookup_with_depth(&self, addr: A) -> (Option<NextHop>, Depth) {
        self.view().lookup_with_depth(addr)
    }

    /// Image size in bytes (see [`SerializedDagRef::size_bytes`]).
    #[must_use]
    pub fn size_bytes(&self) -> usize {
        self.view().size_bytes()
    }

    /// Number of interior records.
    #[must_use]
    pub fn interior_count(&self) -> usize {
        self.nodes.len()
    }

    /// Average and maximum hop depth over a sample of addresses.
    pub fn depth_stats(&self, addrs: impl IntoIterator<Item = A>) -> (f64, u32) {
        let mut total = 0u64;
        let mut count = 0u64;
        let mut max = 0u32;
        for addr in addrs {
            let (_, hops) = self.lookup_with_depth(addr);
            total += u64::from(hops);
            count += 1;
            max = max.max(hops);
        }
        if count == 0 {
            (0.0, 0)
        } else {
            (total as f64 / count as f64, max)
        }
    }
}

impl<'a, A: Address> SerializedDagRef<'a, A> {
    /// Assembles a view over packed entry and record words, validating
    /// the shape (entry count matches λ) and every tagged reference so
    /// the walk cannot index out of bounds.
    ///
    /// # Errors
    /// A static message naming the structural violation.
    pub fn from_parts(
        lambda: u8,
        entries: &'a [u64],
        nodes: &'a [u64],
    ) -> Result<Self, &'static str> {
        let view = Self::from_parts_trusted(lambda, entries, nodes)?;
        let check_ref = |r: u32| -> Result<(), &'static str> {
            if r & LEAF_TAG == 0 && r as usize >= nodes.len() {
                return Err("reference past node region");
            }
            Ok(())
        };
        for &e in entries {
            check_ref(entry_slot(e))?;
        }
        for &n in nodes {
            check_ref(record_child(n, false))?;
            check_ref(record_child(n, true))?;
        }
        Ok(view)
    }

    /// [`Self::from_parts`] minus the O(n) reference scan — only for
    /// words that already passed it, as an image's record of its first
    /// view vouches (see [`crate::image`], "Validation"). An unvalidated
    /// out-of-range reference would panic on lookup, never corrupt.
    pub(crate) fn from_parts_trusted(
        lambda: u8,
        entries: &'a [u64],
        nodes: &'a [u64],
    ) -> Result<Self, &'static str> {
        if lambda > 25 || entries.len() != 1usize << lambda {
            return Err("entry count does not match λ");
        }
        Ok(Self {
            lambda,
            entries,
            nodes,
            _marker: PhantomData,
        })
    }

    /// The pointer range of the borrowed words, for zero-copy assertions
    /// in tests.
    #[must_use]
    pub fn payload_ptr_range(&self) -> std::ops::Range<usize> {
        let start = self.entries.as_ptr() as usize;
        let end = self.nodes.as_ptr() as usize + std::mem::size_of_val(self.nodes);
        start..end
    }

    /// The collapsed stride λ.
    #[must_use]
    pub fn lambda(&self) -> u8 {
        self.lambda
    }

    /// Image size in bytes: 8 per root entry plus 8 per interior record.
    #[must_use]
    pub fn size_bytes(&self) -> usize {
        self.entries.len() * 8 + self.nodes.len() * 8
    }

    /// Longest-prefix-match lookup on the flat image.
    #[must_use]
    #[inline]
    pub fn lookup(&self, addr: A) -> Option<NextHop> {
        self.lookup_with_depth(addr).0
    }

    /// Lookup also returning the number of node records touched after the
    /// root array.
    #[must_use]
    pub fn lookup_with_depth(&self, addr: A) -> (Option<NextHop>, Depth) {
        self.walk(addr, |_| {})
    }

    /// The scalar walk; `touch` sees the index of every node record read
    /// (the traced lookup is this walk with a reporting `touch`).
    #[inline]
    fn walk(&self, addr: A, mut touch: impl FnMut(u32)) -> (Option<NextHop>, Depth) {
        let entry = self.entries[addr.bits(0, self.lambda) as usize];
        let mut reference = entry_slot(entry);
        let mut depth = self.lambda;
        let mut hops: Depth = 0;
        while reference & LEAF_TAG == 0 {
            touch(reference);
            reference = record_child(self.nodes[reference as usize], addr.bit(depth));
            depth += 1;
            hops += 1;
        }
        (resolve(entry, reference), hops)
    }

    /// Batched longest-prefix match: resolves `addrs[i]` into `out[i]` by
    /// a rolling-refill walk with up to [`SER_REFILL_LANES`] node-record
    /// chases in flight. Lookups that resolve at their root-array entry
    /// — the vast majority under uniform keys, where lane bookkeeping
    /// would be pure overhead — are peeled inline by the refill pull
    /// loop at plain scalar-walk cost; only walks that survive into the
    /// record chain occupy a lane, so the serial per-hop fetches of
    /// deep (zipf-popular) lookups overlap instead of one pointer chase
    /// serializing the next.
    ///
    /// # Panics
    /// Panics if `out` is shorter than `addrs`.
    pub fn lookup_batch(&self, addrs: &[A], out: &mut [Option<NextHop>]) {
        assert!(out.len() >= addrs.len(), "output buffer too small"); // fibcheck: allow(hot-path): documented once-per-batch contract, not per-packet
        let n = addrs.len();
        let out = &mut out[..n];
        let mut entry = [0u64; SER_REFILL_LANES];
        let mut reference = [0u32; SER_REFILL_LANES];
        let mut depth = [0u8; SER_REFILL_LANES];
        // Index into `addrs` each lane is walking; `usize::MAX` = empty.
        let mut job = [usize::MAX; SER_REFILL_LANES];
        let mut live = 0usize;
        let mut next = 0usize;
        while live > 0 || next < n {
            for lane in 0..SER_REFILL_LANES {
                let mut j = job[lane];
                if j != usize::MAX {
                    let r = reference[lane];
                    if r & LEAF_TAG == 0 {
                        reference[lane] =
                            record_child(self.nodes[r as usize], addrs[j].bit(depth[lane]));
                        depth[lane] += 1;
                        continue;
                    }
                    out[j] = resolve(entry[lane], r);
                    job[lane] = usize::MAX;
                    live -= 1;
                    j = usize::MAX;
                }
                if j == usize::MAX {
                    // Pull: resolve entry-level leaves inline, park the
                    // first walk that survives into the record chain.
                    while next < n {
                        let e = self.entries[addrs[next].bits(0, self.lambda) as usize];
                        let r0 = entry_slot(e);
                        let idx = next;
                        next += 1;
                        if r0 & LEAF_TAG != 0 {
                            out[idx] = resolve(e, r0);
                        } else {
                            job[lane] = idx;
                            entry[lane] = e;
                            reference[lane] = r0;
                            depth[lane] = self.lambda;
                            live += 1;
                            break;
                        }
                    }
                }
            }
        }
    }

    /// Lookup reporting every memory touch as `(byte offset, byte size)`
    /// within the image — the access stream consumed by the cache and SRAM
    /// models of `fib-hwsim`.
    pub fn lookup_traced(&self, addr: A, sink: &mut dyn FnMut(u64, u32)) -> Option<NextHop> {
        sink(u64::from(addr.bits(0, self.lambda)) * 8, 8);
        let node_base = self.entries.len() as u64 * 8;
        self.walk(addr, |record| sink(node_base + u64::from(record) * 8, 8))
            .0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FibLookup;
    use fib_trie::{BinaryTrie, Prefix4};

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
    fn serialized_matches_dag_across_lambdas() {
        let trie = fig1_trie();
        for lambda in [0u8, 1, 3, 8, 11, 16] {
            let dag = PrefixDag::from_trie(&trie, lambda);
            let ser = SerializedDag::from_dag(&dag);
            assert_eq!(ser.lambda(), lambda);
            for i in 0..3000u32 {
                let addr = i.wrapping_mul(0x9E37_79B9);
                assert_eq!(
                    ser.lookup(addr),
                    dag.lookup(addr),
                    "λ={lambda} addr {addr:#x}"
                );
            }
        }
    }

    #[test]
    fn empty_fib_serializes() {
        let dag = PrefixDag::from_trie(&BinaryTrie::<u32>::new(), 11);
        let ser = SerializedDag::from_dag(&dag);
        assert_eq!(ser.lookup(0), None);
        assert_eq!(ser.lookup(u32::MAX), None);
        assert_eq!(ser.interior_count(), 0);
        assert_eq!(ser.size_bytes(), (1 << 11) * 8);
    }

    #[test]
    fn shared_subtries_are_serialized_once() {
        let mut trie: BinaryTrie<u32> = BinaryTrie::new();
        for base in 0..64u32 {
            // 64 identical /8-rooted subtries.
            trie.insert(Prefix4::new(base << 26, 8), nh(1));
            trie.insert(Prefix4::new(base << 26 | (1 << 23), 9), nh(2));
        }
        let dag = PrefixDag::from_trie(&trie, 6);
        let ser = SerializedDag::from_dag(&dag);
        let stats = dag.stats();
        assert_eq!(
            ser.interior_count(),
            stats.folded_interior,
            "every distinct folded interior appears exactly once"
        );
    }

    #[test]
    fn traced_lookup_touches_entry_then_nodes() {
        let dag = PrefixDag::from_trie(&fig1_trie(), 2);
        let ser = SerializedDag::from_dag(&dag);
        let mut touches = Vec::new();
        let result = ser.lookup_traced(0x6000_0000, &mut |off, sz| touches.push((off, sz)));
        assert_eq!(result, ser.lookup(0x6000_0000));
        assert!(!touches.is_empty());
        // First touch is the root array entry for the top 2 bits (01 → 1).
        assert_eq!(touches[0], (8, 8));
        // Subsequent touches are within the node region.
        for &(off, _) in &touches[1..] {
            assert!(off >= ser.entries.len() as u64 * 8);
        }
    }

    #[test]
    fn depth_stats_are_bounded_by_width_minus_lambda() {
        let trie = fig1_trie();
        let dag = PrefixDag::from_trie(&trie, 2);
        let ser = SerializedDag::from_dag(&dag);
        let (avg, max) = ser.depth_stats((0..1000u32).map(|i| i.wrapping_mul(0x01DE_B851)));
        assert!(avg <= f64::from(max));
        assert!(max <= 30, "hops after a 2-bit stride cannot exceed W-λ");
    }

    #[test]
    fn batch_lookup_matches_scalar_across_lambdas() {
        let trie = fig1_trie();
        for lambda in [0u8, 2, 5, 11] {
            let ser = SerializedDag::from_dag(&PrefixDag::from_trie(&trie, lambda));
            for n in [0usize, 1, 3, 4, 6, 8, 257] {
                let addrs: Vec<u32> = (0..n as u32).map(|i| i.wrapping_mul(0x9E37_79B9)).collect();
                let mut out = vec![None; n];
                ser.lookup_batch(&addrs, &mut out);
                for (a, got) in addrs.iter().zip(&out) {
                    assert_eq!(*got, ser.lookup(*a), "λ={lambda} addr {a:#x}");
                }
                // Oversized output buffer: every addressed slot must still
                // be written (the tails of both chunk streams must align).
                let mut big = vec![Some(NextHop::new(u32::MAX - 1)); n + 5];
                ser.lookup_batch(&addrs, &mut big);
                for (a, got) in addrs.iter().zip(&big) {
                    assert_eq!(*got, ser.lookup(*a), "λ={lambda} oversized at {a:#x}");
                }
            }
        }
    }

    #[test]
    fn fallback_label_resolves_bottom_leaves() {
        // Route only above the barrier: folded region is all ⊥, answers
        // must come from the fallback labels.
        let mut trie: BinaryTrie<u32> = BinaryTrie::new();
        trie.insert(p("0.0.0.0/1"), nh(9));
        trie.insert(p("0.0.0.0/16"), nh(3));
        let dag = PrefixDag::from_trie(&trie, 8);
        let ser = SerializedDag::from_dag(&dag);
        assert_eq!(ser.lookup(0x0000_1111), Some(nh(3)));
        assert_eq!(ser.lookup(0x0100_0000), Some(nh(9)));
        assert_eq!(ser.lookup(0x8000_0000), None);
    }
}
