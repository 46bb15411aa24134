//! Lock-free traffic heat sampling.
//!
//! The paper's λ-optimization (Eqs. (2)/(3)) assumes every address is
//! equally likely. Real traffic is Zipf-skewed toward a small set of
//! popular destinations (§5.3's CAIDA stand-in), and every engine pays a
//! 1.7–2.4x depth-bias penalty on such traces (taz 0.1; see
//! `engine.hops_mean` in `BENCHMARK.json`). The
//! heat layer closes that loop: forwarding workers *sample* the addresses
//! they actually resolve into per-worker [`HeatSketch`]es (lock-free, no
//! coordination on the packet path), the router *merges* them at publish
//! time into a [`HeatSummary`], and the compiler spends a bounded slice of
//! the pDAG's structural slack on exactly the blocks traffic hits
//! (`fib_core::hot`).
//!
//! Keys are addresses truncated to a fixed *block depth* `D` (top `D`
//! bits, MSB-aligned in a `u64`). Zipf traces randomize host bits on every
//! draw, so exact addresses almost never repeat — but the covering
//! `D`-bit block does, which is why the sketch (and the hot slab it
//! feeds) is block-grained rather than address-grained.
//!
//! Everything is deterministic given a fixed insertion stream: the sketch
//! is a plain open-addressed table (no randomized hashing state), so a
//! seeded trace produces a pinned [`HeatSummary::fingerprint`].

use std::sync::atomic::{AtomicU64, Ordering};

use fib_trie::{block_hash, Address};

use crate::rng::fnv1a;

/// The canonical heat key — [`fib_trie::block_key`], which also indexes
/// the hot slab in `fib-core`.
pub use fib_trie::block_key as heat_key;

/// Maximum block depth a sketch accepts (keys keep their low 8 bits free
/// so slot words can carry an occupancy tag; default depths are 24 for v4
/// and 48 for v6).
pub const MAX_HEAT_DEPTH: u8 = fib_trie::MAX_BLOCK_DEPTH;

/// Bounded linear probe length: after this many occupied slots with other
/// keys, the record is counted in [`HeatSketch::missed`] instead. Keeps
/// the record path O(1) under adversarial key sets.
const PROBE_LIMIT: usize = 16;

/// Low bit of a key word marks the slot occupied (keys are MSB-aligned
/// prefixes of ≤ [`MAX_HEAT_DEPTH`] bits, so their low 8 bits are zero).
const OCCUPIED: u64 = 1;

/// A lock-free, fixed-capacity sketch of block hit counts.
///
/// One lives per forwarding worker: `record` is wait-free in the common
/// case (one relaxed load + one relaxed `fetch_add`) and never allocates,
/// blocks, or spins unboundedly, so it is safe to call from the packet
/// path. Counts are monotonically increasing and approximate under
/// contention only in the sense that a racing first-insert may send one
/// increment to `missed`; totals are never lost.
#[derive(Debug)]
pub struct HeatSketch {
    /// `2 * capacity` words: slot `i` is `(slots[2i], slots[2i+1])` =
    /// (key | OCCUPIED, count). Key words are written once (empty → key)
    /// and never change afterwards, which is what makes relaxed reads of
    /// the count word safe to attribute to that key.
    slots: Box<[AtomicU64]>,
    mask: usize,
    depth: u8,
    missed: AtomicU64,
}

impl HeatSketch {
    /// Creates a sketch with at least `capacity` slots (rounded up to a
    /// power of two) for keys at block depth `depth`.
    ///
    /// # Panics
    /// Panics if `depth` is 0 or exceeds [`MAX_HEAT_DEPTH`], or if
    /// `capacity` is 0.
    #[must_use]
    pub fn new(depth: u8, capacity: usize) -> Self {
        assert!(
            depth > 0 && depth <= MAX_HEAT_DEPTH,
            "heat depth {depth} out of range"
        );
        assert!(capacity > 0, "heat sketch capacity must be positive");
        let cap = capacity.next_power_of_two();
        let slots = (0..2 * cap).map(|_| AtomicU64::new(0)).collect();
        Self {
            slots,
            mask: cap - 1,
            depth,
            missed: AtomicU64::new(0),
        }
    }

    /// The block depth keys are truncated to.
    #[must_use]
    pub fn depth(&self) -> u8 {
        self.depth
    }

    /// Number of slots.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.mask + 1
    }

    /// Records one hit for the block covering `addr`.
    #[inline]
    pub fn record<A: Address>(&self, addr: A) {
        self.record_key(heat_key(addr, self.depth));
    }

    /// Records one hit for a pre-computed key (must come from
    /// [`heat_key`] at this sketch's depth).
    pub fn record_key(&self, key: u64) {
        let tagged = key | OCCUPIED;
        let mut idx = block_hash(key) as usize & self.mask;
        for _ in 0..PROBE_LIMIT {
            // ordering: Relaxed — key words are write-once; any non-zero
            // value we observe is the final key for this slot, and counts
            // are independent monotonic counters needing no ordering with
            // other memory.
            let cur = self.slots[2 * idx].load(Ordering::Relaxed);
            if cur == tagged {
                // ordering: Relaxed — pure counter increment; merged reads
                // tolerate staleness.
                self.slots[2 * idx + 1].fetch_add(1, Ordering::Relaxed);
                return;
            }
            if cur == 0 {
                // ordering: Relaxed CAS — claiming an empty slot only has
                // to be atomic against other claimants; the count word is
                // only ever attributed to whichever key wins, and readers
                // ignore slots whose key word is still zero.
                match self.slots[2 * idx].compare_exchange(
                    0,
                    tagged,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // ordering: Relaxed — as above, monotonic counter.
                        self.slots[2 * idx + 1].fetch_add(1, Ordering::Relaxed);
                        return;
                    }
                    Err(winner) if winner == tagged => {
                        // ordering: Relaxed — lost the race to ourselves
                        // (another worker inserting the same key); count it.
                        self.slots[2 * idx + 1].fetch_add(1, Ordering::Relaxed);
                        return;
                    }
                    Err(_) => {} // other key won this slot; keep probing
                }
            }
            idx = (idx + 1) & self.mask;
        }
        // ordering: Relaxed — overflow counter, monotonic.
        self.missed.fetch_add(1, Ordering::Relaxed);
    }

    /// Hits that fell off the bounded probe (table effectively full along
    /// their probe path).
    #[must_use]
    pub fn missed(&self) -> u64 {
        // ordering: Relaxed — approximate monotonic counter read.
        self.missed.load(Ordering::Relaxed)
    }

    /// Snapshot of `(key, count)` pairs currently in the sketch,
    /// unordered. Counts racing with concurrent `record`s may be slightly
    /// stale but never negative or torn.
    #[must_use]
    pub fn entries(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        for i in 0..=self.mask {
            // ordering: Relaxed — key words are write-once; a published
            // key's count only ever grows, so a stale read undercounts.
            let key = self.slots[2 * i].load(Ordering::Relaxed);
            if key != 0 {
                let count = self.slots[2 * i + 1].load(Ordering::Relaxed);
                if count > 0 {
                    out.push((key & !OCCUPIED, count));
                }
            }
        }
        out
    }

    /// Clears all slots and the missed counter (quiescent use only — the
    /// router calls this after merging, between publish epochs).
    pub fn reset(&self) {
        for w in self.slots.iter() {
            // ordering: Relaxed — reset runs while workers are quiescent
            // for this sketch; no ordering to establish.
            w.store(0, Ordering::Relaxed);
        }
        // ordering: Relaxed — same quiescent reset.
        self.missed.store(0, Ordering::Relaxed);
    }
}

/// A set of per-worker sketches sharing one block depth.
///
/// Workers each own index `i` and call `map.sketch(i).record(addr)`
/// without any cross-worker traffic; the publisher calls [`HeatMap::merged`]
/// to fold all sketches into one [`HeatSummary`].
#[derive(Debug)]
pub struct HeatMap {
    sketches: Vec<HeatSketch>,
}

impl HeatMap {
    /// One sketch per worker, each with `capacity` slots at `depth`.
    #[must_use]
    pub fn new(workers: usize, depth: u8, capacity: usize) -> Self {
        Self {
            sketches: (0..workers.max(1))
                .map(|_| HeatSketch::new(depth, capacity))
                .collect(),
        }
    }

    /// Number of per-worker sketches.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.sketches.len()
    }

    /// The sketch owned by worker `i`.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn sketch(&self, i: usize) -> &HeatSketch {
        &self.sketches[i]
    }

    /// Folds every worker sketch into one deterministic summary.
    #[must_use]
    pub fn merged(&self) -> HeatSummary {
        let depth = self.sketches[0].depth;
        let mut counts = std::collections::HashMap::new();
        let mut missed = 0;
        for s in &self.sketches {
            for (key, count) in s.entries() {
                *counts.entry(key).or_insert(0u64) += count;
            }
            missed += s.missed();
        }
        HeatSummary::from_counts(depth, counts, missed)
    }

    /// Resets every sketch (between publish epochs, workers quiescent).
    pub fn reset(&self) {
        for s in &self.sketches {
            s.reset();
        }
    }
}

/// A merged, ordered view of measured traffic heat.
///
/// Entries are sorted hottest-first with key as the tie-break, so the same
/// counts always produce the same summary — the property the fingerprint
/// test pins and the hot-layout pass depends on for reproducible slabs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HeatSummary {
    depth: u8,
    entries: Vec<(u64, u64)>,
    total: u64,
    missed: u64,
}

impl HeatSummary {
    /// Builds a summary from raw `(key → count)` heat.
    #[must_use]
    pub fn from_counts(
        depth: u8,
        counts: impl IntoIterator<Item = (u64, u64)>,
        missed: u64,
    ) -> Self {
        let mut entries: Vec<(u64, u64)> = counts.into_iter().filter(|&(_, c)| c > 0).collect();
        entries.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let total = entries.iter().map(|&(_, c)| c).sum();
        Self {
            depth,
            entries,
            total,
            missed,
        }
    }

    /// Samples `count` draws from `trace` into a fresh summary — the
    /// offline path the bench and `fibc compile --heat` use when no live
    /// router is running.
    #[must_use]
    pub fn sample_addrs<A: Address>(depth: u8, addrs: impl IntoIterator<Item = A>) -> Self {
        let mut counts = std::collections::HashMap::new();
        for a in addrs {
            *counts.entry(heat_key(a, depth)).or_insert(0u64) += 1;
        }
        Self::from_counts(depth, counts, 0)
    }

    /// The block depth of every key.
    #[must_use]
    pub fn depth(&self) -> u8 {
        self.depth
    }

    /// `(key, count)` hottest-first.
    #[must_use]
    pub fn entries(&self) -> &[(u64, u64)] {
        &self.entries
    }

    /// Total recorded hits across all entries.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Hits dropped by full sketches.
    #[must_use]
    pub fn missed(&self) -> u64 {
        self.missed
    }

    /// Fraction of recorded traffic covered by the hottest `n` entries.
    #[must_use]
    pub fn coverage(&self, n: usize) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let covered: u64 = self.entries.iter().take(n).map(|&(_, c)| c).sum();
        covered as f64 / self.total as f64
    }

    /// Deterministic FNV-1a fingerprint over the ordered entries — the
    /// value the determinism test pins.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let mut bytes = Vec::with_capacity(self.entries.len() * 16 + 24);
        bytes.extend_from_slice(&[self.depth]);
        bytes.extend_from_slice(&self.total.to_le_bytes());
        bytes.extend_from_slice(&self.missed.to_le_bytes());
        for &(k, c) in &self.entries {
            bytes.extend_from_slice(&k.to_le_bytes());
            bytes.extend_from_slice(&c.to_le_bytes());
        }
        fnv1a(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{Rng, Xoshiro256};

    #[test]
    fn heat_key_truncates_msb_aligned() {
        // 10.0.0.0/8 block at depth 8: key is 0x0A << 56.
        let addr = 0x0A01_0203u32;
        assert_eq!(heat_key(addr, 8), 0x0A00_0000_0000_0000);
        assert_eq!(heat_key(addr, 8), heat_key(0x0AFF_FFFFu32, 8));
        assert_ne!(heat_key(addr, 9), heat_key(0x0AFF_FFFFu32, 9));
        // Depth 32 keeps all address bits (still MSB-aligned).
        assert_eq!(heat_key(addr, 32), 0x0A01_0203u64 << 32);
        // v6 keys agree with v4 keys on the same top bits.
        let v6 = u128::from(addr) << 96;
        assert_eq!(heat_key(v6, 8), heat_key(addr, 8));
    }

    #[test]
    fn sketch_counts_and_merges() {
        let map = HeatMap::new(2, 16, 64);
        let a = 0x0A01_0203u32;
        let b = 0x0B01_0203u32;
        for _ in 0..5 {
            map.sketch(0).record(a);
        }
        for _ in 0..3 {
            map.sketch(1).record(a);
            map.sketch(1).record(b);
        }
        let sum = map.merged();
        assert_eq!(sum.total(), 11);
        assert_eq!(sum.missed(), 0);
        assert_eq!(sum.entries().len(), 2);
        assert_eq!(sum.entries()[0], (heat_key(a, 16), 8));
        assert_eq!(sum.entries()[1], (heat_key(b, 16), 3));
        assert!((sum.coverage(1) - 8.0 / 11.0).abs() < 1e-12);
    }

    #[test]
    fn sketch_overflow_goes_to_missed() {
        // Capacity 1 (rounded to 1): the probe path saturates fast.
        let s = HeatSketch::new(24, 1);
        let mut rng = Xoshiro256::seed_from_u64(7);
        for _ in 0..1000 {
            s.record(rng.next_u64() as u32);
        }
        let recorded: u64 = s.entries().iter().map(|&(_, c)| c).sum();
        assert_eq!(recorded + s.missed(), 1000, "no hit may vanish");
        assert!(s.missed() > 0, "a 1-slot sketch must overflow");
    }

    #[test]
    fn reset_clears() {
        let s = HeatSketch::new(16, 8);
        s.record(0x0001_0000u32);
        assert_eq!(s.entries().len(), 1);
        s.reset();
        assert!(s.entries().is_empty());
        assert_eq!(s.missed(), 0);
    }

    #[test]
    fn concurrent_records_never_lose_counts() {
        use std::sync::Arc;
        let s = Arc::new(HeatSketch::new(16, 256));
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    let mut rng = Xoshiro256::seed_from_u64(t);
                    for _ in 0..10_000 {
                        let a = ((rng.next_u64() & 0xFF) << 24) as u32;
                        s.record(a);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let recorded: u64 = s.entries().iter().map(|&(_, c)| c).sum();
        assert_eq!(recorded + s.missed(), 40_000);
    }

    #[test]
    fn summary_order_is_deterministic() {
        // Same counts inserted in different orders → identical summaries.
        let counts = [(5u64 << 32, 7u64), (9u64 << 32, 7), (1u64 << 32, 20)];
        let a = HeatSummary::from_counts(24, counts.iter().copied(), 0);
        let b = HeatSummary::from_counts(24, counts.iter().rev().copied(), 0);
        assert_eq!(a, b);
        assert_eq!(a.fingerprint(), b.fingerprint());
        // Hottest first; ties by key.
        assert_eq!(a.entries()[0].0, 1u64 << 32);
        assert_eq!(a.entries()[1].0, 5u64 << 32);
    }
}
