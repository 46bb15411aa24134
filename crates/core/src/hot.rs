//! Traffic-aware hot-path compilation: the pinned hot slab.
//!
//! Every engine pays a 1.7–2.4x zipf penalty over uniform keys (taz 0.1;
//! `engine.hops_mean` on `serve-zipf-hot` against `serve-uniform` in
//! `BENCHMARK.json`). It is *depth bias*: popular destinations match deep
//! prefixes, so the skewed trace walks more levels per packet, not colder
//! cache lines. The paper's λ-optimization cannot
//! see this — Eqs. (2)/(3) weight every address equally.
//!
//! This module spends a measured, bounded slice of the structural slack on
//! the blocks traffic actually hits. A [`HotSlab`] is a small open-addressed
//! direct-index table over *pure* address blocks: a block (top `D` bits) is
//! pure when every address inside it shares one longest-prefix-match
//! answer, which [`BinaryTrie::block_resolution`] decides exactly. The
//! [`HotSlab::compile`] pass walks a merged heat summary hottest-first
//! (`fib-workload`'s `HeatSummary::entries`, but any `(key, weight)` list
//! works) and pins pure blocks until the entry budget is spent.
//!
//! [`HotFront`] puts the slab, behind an adaptive hit-rate gate, in front
//! of any engine (`fib-router`'s epoch snapshots hold one, whether a hot
//! publish or an image's slab section put it there): a probe is one hash
//! and at most [`HOT_PROBE`] cache-adjacent slot reads, and a hit skips the
//! compressed walk entirely while remaining bit-identical to it — impure
//! blocks are never promoted, so the slab can only answer what the full
//! walk would. Batched lookups compact slab misses into sub-batches so
//! the inner engine keeps its interleaved multi-lane kernels.
//!
//! Keys are [`fib_trie::block_key`]s — the top `D` address bits,
//! MSB-aligned in a `u64` — which is also what `fib_workload::heat`
//! counts under, so a sketch recorded at depth `D` feeds a slab compiled
//! at depth `D` with no translation.

use fib_trie::{block_hash, Address, BinaryTrie, NextHop};

/// Maximum slab block depth (keys keep their low 8 bits free for the
/// occupancy tag; matches `fib_workload::heat::MAX_HEAT_DEPTH`).
pub const MAX_HOT_DEPTH: u8 = fib_trie::MAX_BLOCK_DEPTH;

/// Bounded probe length for slab lookups and inserts.
pub const HOT_PROBE: usize = 8;

/// Low bit of a key word marks the slot occupied.
const OCCUPIED: u64 = 1;

/// Label word encoding "the block matches no route" (distinct from an
/// empty slot, whose *key* word is zero).
const NO_ROUTE: u64 = u64::MAX;

/// The slab's key function — [`fib_trie::block_key`], which the heat
/// sketch counts under as `fib_workload::heat::heat_key`.
pub use fib_trie::block_key as hot_key;

/// Reconstructs the block base address from a slab key.
#[must_use]
#[inline]
pub(crate) fn key_addr<A: Address>(key: u64) -> A {
    A::from_u128((u128::from(key) << 64) >> (128 - u32::from(A::WIDTH)))
}

/// Parameters of the hot-layout pass.
#[derive(Clone, Copy, Debug)]
pub struct HotConfig {
    /// Block depth `D` (top bits pinned per entry).
    pub depth: u8,
    /// Maximum promoted blocks.
    pub max_entries: usize,
}

impl HotConfig {
    /// Defaults per address width: depth 24 for v4 (the classic DIR-24
    /// cut, below which pure blocks are plentiful), 48 for v6, 4096
    /// entries (64 KiB of slab — L2-resident).
    #[must_use]
    pub fn for_width(width: u8) -> Self {
        Self {
            depth: if width > 32 { 48 } else { 24 },
            max_entries: 4096,
        }
    }
}

/// Outcome statistics of a [`HotSlab::compile`] pass.
#[derive(Clone, Copy, Debug, Default)]
pub struct HotStats {
    /// Blocks promoted into the slab.
    pub promoted: usize,
    /// Hot blocks skipped because a longer route splits them.
    pub impure: usize,
    /// Pure blocks dropped by probe-limit collisions (table pressure).
    pub dropped: usize,
    /// Fraction of the summary's traffic weight the slab now answers.
    pub coverage: f64,
}

/// A pinned direct-index table over pure address blocks.
///
/// Layout (also its image-section payload): an 8-word meta block
/// `[depth, capacity, occupied, 0, 0, 0, 0, 0]` followed by `2 * capacity`
/// slot words, slot `i` = `(key | 1, label)` with `label = u64::MAX`
/// meaning "matches no route". Capacity is a power of two.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HotSlab {
    depth: u8,
    mask: u64,
    occupied: usize,
    /// `2 * capacity` slot words.
    slots: Vec<u64>,
}

impl HotSlab {
    /// Compiles a slab from a control trie and `(key, weight)` heat
    /// entries, hottest-first (a `HeatSummary::entries()` slice verbatim).
    /// Keys must be at `config.depth`.
    ///
    /// # Panics
    /// Panics if `config.depth` is 0 or exceeds [`MAX_HOT_DEPTH`] or the
    /// address width, or if `config.max_entries` is 0.
    #[must_use]
    pub fn compile<A: Address>(
        trie: &BinaryTrie<A>,
        heat: &[(u64, u64)],
        config: &HotConfig,
    ) -> (Self, HotStats) {
        let depth = config.depth;
        assert!(
            depth > 0 && depth <= MAX_HOT_DEPTH && depth <= A::WIDTH,
            "hot depth {depth} out of range for width {}",
            A::WIDTH
        );
        assert!(config.max_entries > 0, "hot slab needs a positive budget");
        // Load factor ≤ 1/2 keeps the bounded probe effective.
        let cap = (config.max_entries * 2).next_power_of_two();
        let mut slab = Self {
            depth,
            mask: cap as u64 - 1,
            occupied: 0,
            slots: vec![0u64; 2 * cap],
        };
        let mut stats = HotStats::default();
        let total_weight: u64 = heat.iter().map(|&(_, w)| w).sum();
        let mut covered: u64 = 0;
        let key_mask = u64::MAX << (64 - u32::from(depth));
        for &(key, weight) in heat {
            if stats.promoted >= config.max_entries {
                break;
            }
            if key & !key_mask != 0 {
                // Key deeper than the slab depth (foreign summary) —
                // treat its block as unresolvable rather than guessing.
                stats.impure += 1;
                continue;
            }
            match trie.block_resolution(key_addr::<A>(key), depth) {
                None => stats.impure += 1,
                Some(answer) => {
                    if slab.insert(key, answer) {
                        stats.promoted += 1;
                        covered += weight;
                    } else {
                        stats.dropped += 1;
                    }
                }
            }
        }
        stats.coverage = if total_weight == 0 {
            0.0
        } else {
            covered as f64 / total_weight as f64
        };
        (slab, stats)
    }

    /// An empty slab at `depth` (never answers; useful as a neutral
    /// element for tests and unheated builds).
    #[must_use]
    pub fn empty(depth: u8) -> Self {
        Self {
            depth,
            mask: 0,
            occupied: 0,
            slots: vec![0u64; 2],
        }
    }

    fn insert(&mut self, key: u64, answer: Option<NextHop>) -> bool {
        let tagged = key | OCCUPIED;
        let label = answer.map_or(NO_ROUTE, |nh| u64::from(nh.index()));
        let mut idx = block_hash(key) & self.mask;
        for _ in 0..HOT_PROBE {
            let slot = 2 * idx as usize;
            if self.slots[slot] == 0 {
                self.slots[slot] = tagged;
                self.slots[slot + 1] = label;
                self.occupied += 1;
                return true;
            }
            if self.slots[slot] == tagged {
                return true; // duplicate key in the summary
            }
            idx = (idx + 1) & self.mask;
        }
        false
    }

    /// The block depth.
    #[must_use]
    pub fn depth(&self) -> u8 {
        self.depth
    }

    /// Promoted block count.
    #[must_use]
    pub fn occupied(&self) -> usize {
        self.occupied
    }

    /// Slot capacity (a power of two).
    #[must_use]
    pub fn capacity(&self) -> usize {
        (self.mask as usize) + 1
    }

    /// Slab bytes (meta + slots), the number `size_bytes` accounts.
    #[must_use]
    pub fn size_bytes(&self) -> usize {
        (8 + self.slots.len()) * 8
    }

    /// The borrowed view all query code runs on.
    #[must_use]
    #[inline]
    pub fn as_ref(&self) -> HotSlabRef<'_> {
        HotSlabRef {
            depth: self.depth,
            mask: self.mask,
            slots: &self.slots,
        }
    }

    /// Serializes as an image-section payload (meta block + slots).
    pub fn write_words(&self, out: &mut Vec<u64>) {
        out.push(u64::from(self.depth));
        out.push(self.mask + 1);
        out.push(self.occupied as u64);
        out.extend_from_slice(&[0u64; 5]);
        out.extend_from_slice(&self.slots);
    }
}

impl From<HotSlabRef<'_>> for HotSlab {
    /// Re-owns the slot words of a validated view — a section payload
    /// written by [`HotSlab::write_words`], parsed by
    /// [`HotSlabRef::from_words`].
    fn from(r: HotSlabRef<'_>) -> Self {
        Self {
            depth: r.depth,
            mask: r.mask,
            occupied: r.entries().count(),
            slots: r.slots.to_vec(), // fibcheck: allow(hot-path): load-time parse, not packet path
        }
    }
}

/// Zero-copy view of a [`HotSlab`] (e.g. over an image section).
#[derive(Clone, Copy, Debug)]
pub struct HotSlabRef<'a> {
    depth: u8,
    mask: u64,
    slots: &'a [u64],
}

impl<'a> HotSlabRef<'a> {
    /// Validating parse of a [`sections::HOT_SLAB`] payload.
    ///
    /// [`sections::HOT_SLAB`]: crate::image::sections::HOT_SLAB
    ///
    /// # Errors
    /// [`fib_succinct::storage::StorageError`] on any malformed field.
    pub fn from_words(words: &'a [u64]) -> Result<Self, fib_succinct::storage::StorageError> {
        use fib_succinct::storage::StorageError;
        if words.len() < 8 {
            return Err(StorageError("hot slab meta block truncated"));
        }
        let depth = words[0];
        if depth == 0 || depth > u64::from(MAX_HOT_DEPTH) {
            return Err(StorageError("hot slab depth out of range"));
        }
        let cap = words[1];
        if cap == 0 || !cap.is_power_of_two() || cap > 1 << 32 {
            return Err(StorageError("hot slab capacity not a power of two"));
        }
        let cap_us = cap as usize;
        if words.len() != 8 + 2 * cap_us {
            return Err(StorageError("hot slab payload length mismatch"));
        }
        let slots = &words[8..];
        let occupied = words[2];
        let key_mask = u64::MAX << (64 - depth as u32);
        let mut seen = 0u64;
        for slot in slots.chunks_exact(2) {
            let (key_word, label) = (slot[0], slot[1]);
            if key_word == 0 {
                if label != 0 {
                    return Err(StorageError("hot slab empty slot carries a label"));
                }
                continue;
            }
            seen += 1;
            if key_word & OCCUPIED == 0 || key_word & !(key_mask | OCCUPIED) != 0 {
                return Err(StorageError("hot slab key not depth-aligned"));
            }
            if label != NO_ROUTE && label > u64::from(u32::MAX - 1) {
                return Err(StorageError("hot slab label out of range"));
            }
        }
        if seen != occupied {
            return Err(StorageError("hot slab occupancy claim mismatch"));
        }
        Ok(Self {
            depth: depth as u8,
            mask: cap - 1,
            slots,
        })
    }

    /// The block depth.
    #[must_use]
    pub fn depth(&self) -> u8 {
        self.depth
    }

    /// Slot capacity of the viewed slab.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.mask as usize + 1
    }

    /// Section bytes of the viewed slab (meta block + slots).
    #[must_use]
    pub fn size_bytes(&self) -> usize {
        (8 + 2 * self.capacity()) * 8
    }

    /// Probes the slab for the block covering `key` (which must come from
    /// [`hot_key`] at this slab's depth): `Some(answer)` pins the result,
    /// `None` falls through to the full walk.
    #[must_use]
    #[inline]
    pub fn probe(&self, key: u64) -> Option<Option<NextHop>> {
        let tagged = key | OCCUPIED;
        let mut idx = block_hash(key) & self.mask;
        for _ in 0..HOT_PROBE {
            let slot = 2 * idx as usize;
            let word = self.slots[slot];
            if word == 0 {
                return None;
            }
            if word == tagged {
                let label = self.slots[slot + 1];
                return Some((label != NO_ROUTE).then(|| NextHop::new(label as u32)));
            }
            idx = (idx + 1) & self.mask;
        }
        None
    }

    /// Probes with an address instead of a pre-computed key.
    #[must_use]
    #[inline]
    pub fn probe_addr<A: Address>(&self, addr: A) -> Option<Option<NextHop>> {
        self.probe(hot_key(addr, self.depth))
    }

    /// Iterates `(key, answer)` over occupied slots (lint and tooling).
    pub fn entries(&self) -> impl Iterator<Item = (u64, Option<NextHop>)> + 'a {
        self.slots
            .chunks_exact(2)
            .filter(|slot| slot[0] != 0)
            .map(|slot| {
                let key = slot[0] & !OCCUPIED;
                let label = slot[1];
                (key, (label != NO_ROUTE).then(|| NextHop::new(label as u32)))
            })
    }
}

/// Sub-batch width of the miss-compaction path: big enough to keep the
/// inner engine's interleaved kernels fed, small enough for the stack.
const HOT_CHUNK: usize = 64;

/// Lookups per adaptive-gate measurement window while probing.
const GATE_WINDOW: u64 = 4096;

/// Sampled probes per re-arm evaluation while bypassed.
const GATE_REARM_WINDOW: u64 = 512;

/// While bypassed, 1 in this many *batched* lookups still probes the
/// slab so the gate can re-arm when traffic shifts back onto pinned
/// blocks. 64 keeps the bypassed-mode cost — probe time *and* the cache
/// lines the probes drag in over the inner engine's working set — under
/// a couple percent, while a full re-arm evaluation still fits in ~33k
/// lookups (milliseconds at forwarding rates). The scalar path carries
/// no sampling at all: its bypass budget is one load and one branch.
const GATE_SAMPLE: u64 = 64;

/// The runtime hit-rate gate in front of a slab probe.
///
/// An ungated slab *loses* to the bare engine on fast engines under keys
/// that rarely hit it (binary-trie, uniform keys, taz 0.1: 64.4 ns
/// fronted vs 45.7 ns bare; `hot.hit_rate` and `hot.probe_ns` in
/// `BENCHMARK.json` are the live figures): every lookup paid the probe,
/// few were answered by it. The gate makes the probe conditional on its
/// measured worth: cheap relaxed window counters track the slab hit
/// rate, and when it drops below a engine-specific break-even threshold
/// (calibrated at construction from the measured probe and inner-walk
/// costs) the probe is bypassed entirely. While bypassed, the batch
/// paths still probe 1 in [`GATE_SAMPLE`] lookups so a traffic shift
/// back onto the pinned blocks re-arms the fast path (the scalar path
/// stays sampling-free — see [`GATE_SAMPLE`]). Answers are bit-identical
/// in both modes — the gate only decides *whether the probe is worth
/// it*.
#[derive(Debug)]
struct Gate {
    /// Probes observed in the current window.
    probes: std::sync::atomic::AtomicU64,
    /// Probe hits observed in the current window.
    hits: std::sync::atomic::AtomicU64,
    /// 1 when the probe is bypassed, 0 when probing.
    bypassed: std::sync::atomic::AtomicU64,
    /// Break-even slab hit rate ×1000: probe only while the measured
    /// rate stays at or above it.
    threshold_millis: u64,
}

impl Gate {
    fn new(threshold_millis: u64) -> Self {
        Self {
            probes: std::sync::atomic::AtomicU64::new(0),
            hits: std::sync::atomic::AtomicU64::new(0),
            bypassed: std::sync::atomic::AtomicU64::new(0),
            threshold_millis,
        }
    }

    #[inline]
    fn is_bypassed(&self) -> bool {
        use std::sync::atomic::Ordering;
        self.bypassed.load(Ordering::Relaxed) != 0 // ordering: Relaxed — heuristic mode flag; a stale read only delays the mode switch by one probe
    }

    /// Accounts `probes` slab probes of which `hits` hit, and flips the
    /// mode at window boundaries. Concurrent window resets race benignly:
    /// the counters are a heuristic rate estimate, not bookkeeping.
    #[inline]
    fn record(&self, probes: u64, hits: u64) {
        use std::sync::atomic::Ordering;
        let p = self.probes.fetch_add(probes, Ordering::Relaxed) + probes; // ordering: Relaxed — window counter; lost updates only stretch the window
        let h = self.hits.fetch_add(hits, Ordering::Relaxed) + hits; // ordering: Relaxed — window counter; lost updates only stretch the window
        let window = if self.is_bypassed() {
            GATE_REARM_WINDOW
        } else {
            GATE_WINDOW
        };
        if p >= window {
            let below = h.saturating_mul(1000) < self.threshold_millis.saturating_mul(p);
            self.bypassed.store(u64::from(below), Ordering::Relaxed); // ordering: Relaxed — heuristic mode flag; readers tolerate staleness
            self.probes.store(0, Ordering::Relaxed); // ordering: Relaxed — window reset; racing adds fold into the next window
            self.hits.store(0, Ordering::Relaxed); // ordering: Relaxed — window reset; racing adds fold into the next window
        }
    }
}

/// Nanoseconds per call of `op`, as the fastest of three short rounds
/// (fresh inputs each round), so that one preempted round cannot skew a
/// calibration.
fn fastest_round_ns(mut op: impl FnMut(u64) -> u64) -> f64 {
    const ROUNDS: u64 = 3;
    const SAMPLES: u64 = 512;
    let mut best = f64::INFINITY;
    for round in 0..ROUNDS {
        let start = std::time::Instant::now();
        let mut acc = 0u64;
        for i in round * SAMPLES..(round + 1) * SAMPLES {
            acc ^= op(i);
        }
        std::hint::black_box(acc);
        best = best.min(start.elapsed().as_nanos().max(1) as f64 / SAMPLES as f64);
    }
    best
}

/// Calibrates the gate's break-even hit rate for `slab` over the scalar
/// walk `inner`: times ~1.5k slab probes against ~1.5k inner walks and
/// returns the hit rate ×1000 below which probing costs more than it
/// saves (`1.5 · t_probe / t_inner`, clamped to `[0.05, 0.95]` — the 1.5
/// margin keeps the gate from flapping at exact break-even).
fn calibrate_gate<A: Address>(slab: HotSlabRef<'_>, inner: impl Fn(A) -> Option<NextHop>) -> u64 {
    let t_probe = fastest_round_ns(|i| {
        let key = block_hash(i) & (u64::MAX << (64 - u32::from(MAX_HOT_DEPTH)));
        match slab.probe(key) {
            Some(Some(nh)) => u64::from(nh.index()),
            Some(None) => 1,
            None => 2,
        }
    });
    let t_inner = fastest_round_ns(|i| {
        let addr = key_addr::<A>(block_hash(i | 1 << 60));
        inner(addr).map_or(0, |nh| u64::from(nh.index()))
    });
    let ratio = (1.5 * t_probe / t_inner).clamp(0.05, 0.95);
    (ratio * 1000.0) as u64
}

/// A hot slab and its adaptive `Gate`, to be put in front of any
/// engine: the one place "probe the slab, fall through to the walk" is
/// written. `fib-router`'s epoch snapshots — hot publishes and images
/// that carry a slab alike — serve through it, handing in the inner
/// engine's kernel as a closure.
///
/// Compilation promotes only pure blocks, so a front answers exactly what
/// the engine behind it would, probing or bypassed — the gate only
/// decides *whether the probe is worth it*.
#[derive(Debug)]
pub struct HotFront {
    slab: HotSlab,
    gate: Gate,
}

impl Clone for HotFront {
    /// Clones carry the calibrated threshold but start with fresh window
    /// counters in probing mode.
    fn clone(&self) -> Self {
        Self {
            slab: self.slab.clone(),
            gate: Gate::new(self.gate.threshold_millis),
        }
    }
}

impl HotFront {
    /// Puts `slab` in front of the engine whose scalar walk is `inner`,
    /// calibrating the gate from the measured probe and walk costs
    /// (microseconds; see `Gate`).
    #[must_use]
    pub fn calibrated<A: Address>(slab: HotSlab, inner: impl Fn(A) -> Option<NextHop>) -> Self {
        let threshold = calibrate_gate(slab.as_ref(), inner);
        Self {
            slab,
            gate: Gate::new(threshold),
        }
    }

    /// The slab.
    #[must_use]
    pub fn slab(&self) -> &HotSlab {
        &self.slab
    }

    /// Whether the gate currently bypasses the slab probe.
    #[must_use]
    pub fn bypassed(&self) -> bool {
        self.gate.is_bypassed()
    }

    /// The calibrated break-even slab hit rate, ×1000.
    #[must_use]
    pub fn threshold_millis(&self) -> u64 {
        self.gate.threshold_millis
    }

    /// Resolves `addr`: a slab hit answers, anything else runs `inner`.
    #[inline]
    pub fn lookup<A: Address>(
        &self,
        addr: A,
        inner: impl FnOnce(A) -> Option<NextHop>,
    ) -> Option<NextHop> {
        if self.gate.is_bypassed() {
            // No sampling here: the bypassed scalar path is exactly one
            // relaxed load and a predicted branch in front of the inner
            // walk — anything more (a counter RMW, even one multiply)
            // measurably regresses the fastest engines past the ≤1.1×
            // hot-layout budget. Re-arming is driven by the batch path's
            // stride sampling; a scalar-only workload that goes bypassed
            // stays bypassed until traffic reaches a batch entry point.
            return inner(addr);
        }
        let hit = self.slab.as_ref().probe_addr(addr);
        self.gate.record(1, u64::from(hit.is_some()));
        match hit {
            Some(answer) => answer,
            None => inner(addr),
        }
    }

    /// Resolves `addrs` into `out`, delegating what the slab does not
    /// answer to `kernel` — the inner engine's `lookup_batch`. While
    /// probing, misses are compacted into dense sub-batches of up to
    /// `HOT_CHUNK` so the kernel keeps its interleaved lanes fed; while
    /// bypassed, `kernel` gets the whole batch and 1 in `GATE_SAMPLE`
    /// addresses is still probed, purely for the hit-rate estimate that
    /// re-arms the gate.
    ///
    /// # Panics
    /// Panics if `out` is shorter than `addrs`.
    pub fn lookup_batch<A: Address>(
        &self,
        addrs: &[A],
        out: &mut [Option<NextHop>],
        mut kernel: impl FnMut(&[A], &mut [Option<NextHop>]),
    ) {
        assert!(out.len() >= addrs.len(), "output buffer too small"); // fibcheck: allow(hot-path): documented once-per-batch contract, not per-packet
        let slab = self.slab.as_ref();
        if self.gate.is_bypassed() {
            let sampled = addrs.iter().step_by(GATE_SAMPLE as usize);
            let probes = sampled.len() as u64;
            let hits = sampled.filter(|&&a| slab.probe_addr(a).is_some()).count() as u64;
            self.gate.record(probes, hits);
            kernel(addrs, out);
            return;
        }
        let mut missed = 0usize;
        let mut miss_addr = [A::default(); HOT_CHUNK];
        let mut miss_out = [None; HOT_CHUNK];
        let mut miss_pos = [0usize; HOT_CHUNK];
        for (chunk_idx, chunk) in addrs.chunks(HOT_CHUNK).enumerate() {
            let base = chunk_idx * HOT_CHUNK;
            let mut misses = 0usize;
            for (i, &addr) in chunk.iter().enumerate() {
                match slab.probe_addr(addr) {
                    Some(answer) => out[base + i] = answer,
                    None => {
                        miss_addr[misses] = addr;
                        miss_pos[misses] = base + i;
                        misses += 1;
                    }
                }
            }
            if misses > 0 {
                kernel(&miss_addr[..misses], &mut miss_out[..misses]);
                for i in 0..misses {
                    out[miss_pos[i]] = miss_out[i];
                }
                missed += misses;
            }
        }
        self.gate
            .record(addrs.len() as u64, (addrs.len() - missed) as u64);
    }
}

/// Traffic mass per matched-prefix depth, from heat entries and the
/// control trie: `mass[d]` is the fraction of recorded traffic whose
/// longest-prefix match sits at depth `d`. Feeds
/// [`crate::lambda::barrier_traffic`].
#[must_use]
pub fn depth_mass_from_heat<A: Address>(trie: &BinaryTrie<A>, heat: &[(u64, u64)]) -> Vec<f64> {
    let mut mass = vec![0u64; usize::from(A::WIDTH) + 1];
    let mut total = 0u64;
    for &(key, weight) in heat {
        let (_, depth) = trie.lookup_with_depth(key_addr::<A>(key));
        mass[depth as usize] += weight;
        total += weight;
    }
    if total == 0 {
        return vec![0.0; usize::from(A::WIDTH) + 1];
    }
    mass.into_iter().map(|m| m as f64 / total as f64).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{BuildConfig, FibBuild, FibLookup};
    use crate::pdag::PrefixDag;
    use fib_trie::Prefix;

    fn nh(i: u32) -> NextHop {
        NextHop::new(i)
    }

    fn sample_trie() -> BinaryTrie<u32> {
        let mut t = BinaryTrie::new();
        t.insert("0.0.0.0/0".parse::<Prefix<u32>>().unwrap(), nh(1));
        t.insert("10.0.0.0/8".parse::<Prefix<u32>>().unwrap(), nh(2));
        t.insert("10.1.0.0/16".parse::<Prefix<u32>>().unwrap(), nh(3));
        t.insert("10.1.2.0/24".parse::<Prefix<u32>>().unwrap(), nh(4));
        t.insert("10.1.2.128/25".parse::<Prefix<u32>>().unwrap(), nh(5));
        t
    }

    #[test]
    fn compile_promotes_pure_skips_impure() {
        let trie = sample_trie();
        let cfg = HotConfig {
            depth: 24,
            max_entries: 16,
        };
        // 10.1.3.0/24 block is pure (answer nh(3)); 10.1.2.0/24 is split
        // by the /25.
        let pure_key = hot_key(0x0A01_0300u32, 24);
        let impure_key = hot_key(0x0A01_0200u32, 24);
        let heat = [(pure_key, 100u64), (impure_key, 50)];
        let (slab, stats) = HotSlab::compile(&trie, &heat, &cfg);
        assert_eq!(stats.promoted, 1);
        assert_eq!(stats.impure, 1);
        assert_eq!(stats.dropped, 0);
        assert!((stats.coverage - 100.0 / 150.0).abs() < 1e-12);
        let r = slab.as_ref();
        assert_eq!(r.probe(pure_key), Some(Some(nh(3))));
        assert_eq!(r.probe(impure_key), None);
        assert_eq!(r.probe(hot_key(0x0B00_0000u32, 24)), None);
    }

    #[test]
    fn hotfib_is_extensionally_equal() {
        let trie = sample_trie();
        let cfg = HotConfig {
            depth: 24,
            max_entries: 64,
        };
        // Promote every /24 block under 10.1.0.0/16 plus some cold space.
        let heat: Vec<(u64, u64)> = (0..=255u32)
            .map(|b| (hot_key(0x0A01_0000u32 | (b << 8), 24), 10))
            .chain([(hot_key(0xC0A8_0000u32, 24), 3)])
            .collect();
        let (slab, stats) = HotSlab::compile(&trie, &heat, &cfg);
        assert!(stats.promoted > 0);
        let dag = PrefixDag::build(&trie, &BuildConfig::default());
        let hot = HotFront::calibrated(slab, |a| dag.lookup(a));
        let probes: Vec<u32> = (0..4096u32)
            .map(|i| i.wrapping_mul(0x9E37_79B9))
            .chain((0..=255).map(|b| 0x0A01_0000 | (b << 8) | (b & 0xFF)))
            .collect();
        let mut got = vec![None; probes.len()];
        let mut want = vec![None; probes.len()];
        hot.lookup_batch(&probes, &mut got, |a, o| dag.lookup_batch(a, o));
        dag.lookup_batch(&probes, &mut want);
        assert_eq!(got, want);
        for &p in &probes {
            assert_eq!(
                hot.lookup(p, |a| dag.lookup(a)),
                trie.lookup(p),
                "addr {p:#x}"
            );
        }
        let mut streamed = vec![None; probes.len()];
        hot.lookup_batch(&probes, &mut streamed, |a, o| dag.lookup_stream(a, o));
        assert_eq!(streamed, want);
    }

    #[test]
    fn slab_words_roundtrip_and_validate() {
        let trie = sample_trie();
        let cfg = HotConfig {
            depth: 24,
            max_entries: 8,
        };
        let heat = [(hot_key(0x0A01_0300u32, 24), 7u64)];
        let (slab, _) = HotSlab::compile(&trie, &heat, &cfg);
        let mut words = Vec::new();
        slab.write_words(&mut words);
        let back = HotSlab::from(HotSlabRef::from_words(&words).unwrap());
        assert_eq!(back, slab);
        let r = HotSlabRef::from_words(&words).unwrap();
        assert_eq!(r.probe(hot_key(0x0A01_0300u32, 24)), Some(Some(nh(3))));
        // Corrupt: occupancy claim.
        let mut bad = words.clone();
        bad[2] += 1;
        assert!(HotSlabRef::from_words(&bad).is_err());
        // Corrupt: key below the depth mask.
        let mut bad = words.clone();
        let slot = bad[8..].iter().position(|&w| w != 0).unwrap() + 8;
        bad[slot] |= 1 << 8;
        assert!(HotSlabRef::from_words(&bad).is_err());
        // Corrupt: truncated payload.
        assert!(HotSlabRef::from_words(&words[..words.len() - 1]).is_err());
        // Corrupt: capacity not a power of two.
        let mut bad = words;
        bad[1] = 3;
        assert!(HotSlabRef::from_words(&bad).is_err());
    }

    #[test]
    fn empty_slab_never_answers() {
        let slab = HotSlab::empty(24);
        assert_eq!(slab.as_ref().probe(hot_key(0x0A000000u32, 24)), None);
        assert_eq!(slab.occupied(), 0);
    }

    #[test]
    fn depth_mass_tracks_matched_depth() {
        let trie = sample_trie();
        let heat = [
            (hot_key(0x0A01_0280u32, 24), 60u64), // matches the /24 (block of the /25's parent)
            (hot_key(0xC000_0000u32, 24), 40),    // falls to the default route
        ];
        let mass = depth_mass_from_heat(&trie, &heat);
        assert!((mass.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!((mass[24] - 0.6).abs() < 1e-12);
        assert!((mass[0] - 0.4).abs() < 1e-12);
    }

    /// A front whose slab pins the 10.1.x.0/24 blocks, over the folded
    /// sample trie.
    fn gated_front() -> (HotFront, PrefixDag<u32>) {
        let trie = sample_trie();
        let cfg = HotConfig {
            depth: 24,
            max_entries: 64,
        };
        let heat: Vec<(u64, u64)> = (0..=31u32)
            .map(|b| (hot_key(0x0A01_0000u32 | (b << 8), 24), 10))
            .collect();
        let (slab, _) = HotSlab::compile(&trie, &heat, &cfg);
        let dag = PrefixDag::build(&trie, &BuildConfig::default());
        let front = HotFront::calibrated(slab, |a| dag.lookup(a));
        (front, dag)
    }

    /// More than one probing window of addresses no pinned block covers.
    fn cold_addrs() -> Vec<u32> {
        (0..GATE_WINDOW as u32 + 64)
            .map(|i| 0xC000_0000 | i.wrapping_mul(0x9E37_79B9) >> 8)
            .collect()
    }

    #[test]
    fn gate_bypasses_on_cold_traffic_and_rearms_on_hot() {
        let (front, dag) = gated_front();
        assert!(!front.bypassed(), "gate starts in probing mode");
        let threshold = front.threshold_millis();
        assert!(
            (50..=950).contains(&threshold),
            "threshold {threshold} clamped"
        );
        // All-miss traffic: after one window the probe is bypassed.
        let cold = cold_addrs();
        let mut out = vec![None; cold.len()];
        front.lookup_batch(&cold, &mut out, |a, o| dag.lookup_batch(a, o));
        assert!(front.bypassed(), "0% hit rate must bypass the probe");
        // Answers stay bit-identical while bypassed.
        for &addr in cold.iter().take(256) {
            assert_eq!(front.lookup(addr, |a| dag.lookup(a)), dag.lookup(addr));
        }
        // All-hit traffic: sampled probes see a 100% rate and re-arm.
        let warm: Vec<u32> = (0..(GATE_REARM_WINDOW * GATE_SAMPLE) as u32 + 64)
            .map(|i| 0x0A01_0000 | ((i & 31) << 8) | (i & 0xFF))
            .collect();
        let mut out = vec![None; warm.len()];
        front.lookup_batch(&warm, &mut out, |a, o| dag.lookup_stream(a, o));
        assert!(!front.bypassed(), "100% hit rate must re-arm the probe");
        for (&addr, &got) in warm.iter().zip(&out) {
            assert_eq!(got, dag.lookup(addr));
        }
    }

    #[test]
    fn gate_scalar_path_bypasses_and_stays_correct() {
        let (front, dag) = gated_front();
        let trie = sample_trie();
        // Scalar cold lookups flip the gate too (batch and scalar share
        // the same window counters).
        for i in 0..(GATE_WINDOW + 128) {
            let addr = 0xC000_0000u32 | (i as u32).wrapping_mul(0x85EB_CA6B) >> 8;
            assert_eq!(front.lookup(addr, |a| dag.lookup(a)), trie.lookup(addr));
        }
        assert!(front.bypassed());
        // While bypassed, every answer still matches the oracle.
        for i in 0..4096u32 {
            let addr = i.wrapping_mul(0x9E37_79B9);
            assert_eq!(
                front.lookup(addr, |a| dag.lookup(a)),
                trie.lookup(addr),
                "addr {addr:#x}"
            );
        }
    }

    #[test]
    fn gate_clone_resets_counters_keeps_threshold() {
        let (front, dag) = gated_front();
        let cold = cold_addrs();
        let mut out = vec![None; cold.len()];
        front.lookup_batch(&cold, &mut out, |a, o| dag.lookup_batch(a, o));
        assert!(front.bypassed());
        let cloned = front.clone();
        assert!(!cloned.bypassed(), "clone starts probing");
        assert_eq!(cloned.threshold_millis(), front.threshold_millis());
    }

    #[test]
    fn v6_slab_works() {
        let mut t: BinaryTrie<u128> = BinaryTrie::new();
        t.insert(Prefix::new(0x2001u128 << 112, 16), nh(1));
        t.insert(Prefix::new(0x2001_0db8u128 << 96, 32), nh(2));
        let cfg = HotConfig::for_width(128);
        assert_eq!(cfg.depth, 48);
        let addr = 0x2001_0db8_0001u128 << 80;
        let heat = [(hot_key(addr, 48), 5u64)];
        let (slab, stats) = HotSlab::compile(&t, &heat, &cfg);
        assert_eq!(stats.promoted, 1);
        assert_eq!(slab.as_ref().probe_addr(addr | 0xFFFF), Some(Some(nh(2))));
    }
}
