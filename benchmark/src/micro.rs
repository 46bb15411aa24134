//! Per-layer micro-measurements: each times or counts calls into one
//! layer's public functions, from outside, over keys taken from the
//! workload's own ring.

use std::hint::black_box;
use std::time::{Duration, Instant};

use fib_core::{FibLookup, PrefixDag, VarStrideDag, XbwFib};
use fib_hwsim::CacheSim;
use fib_succinct::{BitVec, IntVec, RsBitVec};
use fib_trie::{BinaryTrie, NextHop};
use fib_workload::rng::{Rng, Xoshiro256};
use fib_workload::updates::UpdateOp;

use crate::loops::BATCH;
use crate::plan::{best, median};
use crate::report::Outcome;

/// Timed passes per micro-measurement.
pub const PASSES: usize = 9;

/// Nanoseconds per key over [`PASSES`] runs of `pass`, each of which
/// processes `keys` keys: the best pass (see [`best`]).
pub fn ns_per_key(keys: usize, mut pass: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..PASSES)
        .map(|_| {
            let start = Instant::now();
            pass();
            start.elapsed().as_nanos() as f64 / keys as f64
        })
        .collect();
    best(&samples, false)
}

/// [`ns_per_key`] over successive `per_pass`-key slices of `ring`, one
/// slice per pass, so no pass replays keys whose walk an earlier pass
/// left in cache — the forwarding loop never sees a key twice in a lap
/// either.
pub fn ns_per_ring_key<K>(ring: &[K], per_pass: usize, mut pass: impl FnMut(&[K])) -> f64 {
    let per_pass = per_pass.min(ring.len());
    let mut slices = ring.chunks_exact(per_pass).cycle();
    ns_per_key(per_pass, || pass(slices.next().expect("cycle never ends")))
}

/// Seconds of one call of `f`, the best of at least `min_calls` calls
/// and of more (up to 25) while they fit in `budget`, so a millisecond
/// build is measured as steadily as a one-second build. Returns the
/// calls made too.
pub fn timed_calls(min_calls: usize, budget: Duration, mut f: impl FnMut()) -> (f64, usize) {
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < min_calls || (samples.len() < 25 && started.elapsed() < budget) {
        let start = Instant::now();
        f();
        samples.push(start.elapsed().as_secs_f64());
    }
    (best(&samples, false), samples.len())
}

/// Runs `set_up` at least `min_reps` times and more (up to 9) while
/// they fit in `budget`, dropping each result before the next run;
/// returns the median seconds of one run and the last result. A cheap
/// set-up is so repeated nine times, a three-second one `min_reps`
/// times.
///
/// # Panics
/// Panics if `min_reps` is 0.
pub fn repeat_set_up<T>(
    min_reps: usize,
    budget: Duration,
    mut set_up: impl FnMut() -> T,
) -> (f64, T) {
    let began = Instant::now();
    let mut secs = Vec::new();
    let mut last = None;
    while secs.len() < min_reps || (secs.len() < 9 && began.elapsed() < budget) {
        drop(last.take());
        let started = Instant::now();
        last = Some(set_up());
        secs.push(started.elapsed().as_secs_f64());
    }
    (median(&secs), last.expect("at least one set-up"))
}

/// Nanoseconds per update of `updates` applied to a clone of `oracle`.
pub fn oracle_update_ns(oracle: &BinaryTrie<u32>, updates: &[UpdateOp<u32>]) -> f64 {
    let mut oracle = oracle.clone();
    let started = Instant::now();
    for op in updates {
        op.apply(&mut oracle);
    }
    started.elapsed().as_nanos() as f64 / updates.len().max(1) as f64
}

/// Scalar `lookup`, per key.
pub fn scalar_ns<E: FibLookup<u32> + ?Sized>(engine: &E, ring: &[u32], per_pass: usize) -> f64 {
    let mut out = vec![None; per_pass];
    ns_per_ring_key(ring, per_pass, |keys| {
        for (&key, slot) in keys.iter().zip(out.iter_mut()) {
            *slot = engine.lookup(black_box(key));
        }
        black_box(&out);
    })
}

/// `lookup_batch` in serving-sized batches, per key.
pub fn batch_ns<E: FibLookup<u32> + ?Sized>(engine: &E, ring: &[u32], per_pass: usize) -> f64 {
    let mut out = vec![None; BATCH];
    ns_per_ring_key(ring, per_pass, |keys| {
        for chunk in keys.chunks(BATCH) {
            engine.lookup_batch(black_box(chunk), &mut out);
            black_box(&out);
        }
    })
}

/// `lookup_stream` in serving-sized batches, per key — the call the
/// forwarding loop makes, so this is the figure its lookup span should
/// agree with.
pub fn stream_ns<E: FibLookup<u32> + ?Sized>(engine: &E, ring: &[u32], per_pass: usize) -> f64 {
    let mut out = vec![None; BATCH];
    ns_per_ring_key(ring, per_pass, |keys| {
        for chunk in keys.chunks(BATCH) {
            engine.lookup_stream(black_box(chunk), &mut out);
            black_box(&out);
        }
    })
}

/// A traced lookup: reports each memory touch as `(byte offset, size)`
/// and returns the dependent steps (hops) the walk took.
pub type Prober<'e> = Box<dyn FnMut(u32, &mut dyn FnMut(u64, u32)) -> u32 + 'e>;

/// Engines the benchmark can replay through the cache simulator.
pub trait Probe {
    /// A traced lookup over this engine.
    fn prober(&self) -> Prober<'_>;

    /// `(t_nodes, n_leaves, delta)` when the engine is an XBW-b image:
    /// the lengths its rank/select primitives work at.
    fn xbw_shape(&self) -> Option<(usize, usize, usize)> {
        None
    }
}

impl Probe for VarStrideDag<u32> {
    fn prober(&self) -> Prober<'_> {
        Box::new(move |addr, sink| {
            self.lookup_traced(addr, sink);
            self.lookup_with_depth(addr).1
        })
    }
}

impl Probe for XbwFib<u32> {
    /// Hops are the levels walked: one `S_I` probe each.
    fn prober(&self) -> Prober<'_> {
        let si_bytes = (self.size_report().si_bits.div_ceil(64) * 8) as u64;
        Box::new(move |addr, sink| {
            let mut hops = 0;
            self.lookup_traced(addr, &mut |offset, size| {
                hops += u32::from(offset < si_bytes);
                sink(offset, size);
            });
            hops
        })
    }

    fn xbw_shape(&self) -> Option<(usize, usize, usize)> {
        Some((self.t_nodes(), self.n_leaves(), self.delta()))
    }
}

impl Probe for PrefixDag<u32> {
    /// The pointer-machine DAG has no traced lookup of its own; the walk
    /// is replayed over its packed image (`write_packed`, 16 bytes per
    /// node in BFS order — at least as dense as the live arena).
    fn prober(&self) -> Prober<'_> {
        let (words, root) = self.write_packed();
        Box::new(move |addr, sink| packed_walk(&words, root, addr, sink).1)
    }
}

/// Longest-prefix match over a packed pDAG image (two words per node:
/// `left | right << 32`, then the label), reporting every node record it
/// reads. Returns the answer and the edges followed.
pub fn packed_walk(
    words: &[u64],
    root: u32,
    addr: u32,
    sink: &mut dyn FnMut(u64, u32),
) -> (Option<NextHop>, u32) {
    const NONE: u32 = u32::MAX;
    if root == NONE {
        return (None, 0);
    }
    let mut idx = root as usize;
    let mut last = NONE;
    let mut depth = 0u32;
    loop {
        sink(idx as u64 * 16, 16);
        let children = words[2 * idx];
        let label = words[2 * idx + 1] as u32;
        if label != NONE {
            last = label;
        }
        if depth >= 32 {
            break;
        }
        let child = if addr & (1 << (31 - depth)) != 0 {
            (children >> 32) as u32
        } else {
            children as u32
        };
        if child == NONE {
            break;
        }
        idx = child as usize;
        depth += 1;
    }
    ((last != NONE).then(|| NextHop::new(last)), depth)
}

/// Hops and simulated cache behaviour of a key sequence, per lookup.
/// Exact: the same keys over the same structure give the same figures.
#[derive(Clone, Copy, Debug, Default)]
pub struct MemoryProfile {
    /// Mean hops.
    pub hops_mean: f64,
    /// Largest hop count seen.
    pub hops_max: f64,
    /// Cache-line accesses.
    pub lines: f64,
    /// L1 misses on the paper's Core i5 geometry.
    pub l1_miss: f64,
    /// L2 misses.
    pub l2_miss: f64,
    /// Misses of the whole hierarchy.
    pub llc_miss: f64,
}

impl MemoryProfile {
    /// Records the profile under the `engine.hops_*` and `hwsim.*` names.
    pub fn record(&self, out: &mut Outcome) {
        out.set("engine.hops_mean", self.hops_mean);
        out.set("engine.hops_max", self.hops_max);
        out.set("hwsim.lines_per_lookup", self.lines);
        out.set("hwsim.l1_miss", self.l1_miss);
        out.set("hwsim.l2_miss", self.l2_miss);
        out.set("hwsim.llc_miss", self.llc_miss);
    }
}

/// Replays `count` traced lookups (`probe(i, sink)` performs the `i`-th)
/// through `CacheSim::core_i5()`.
pub fn memory_profile(
    count: usize,
    mut probe: impl FnMut(usize, &mut dyn FnMut(u64, u32)) -> u32,
) -> MemoryProfile {
    let mut sim = CacheSim::core_i5();
    let (mut hops_sum, mut hops_max) = (0u64, 0u32);
    for i in 0..count {
        let hops = probe(i, &mut |offset, size| sim.access(offset, size));
        hops_sum += u64::from(hops);
        hops_max = hops_max.max(hops);
    }
    let per = |n: u64| n as f64 / count.max(1) as f64;
    let levels = sim.level_stats();
    MemoryProfile {
        hops_mean: per(hops_sum),
        hops_max: f64::from(hops_max),
        lines: per(sim.total_accesses()),
        l1_miss: per(levels[0].misses),
        l2_miss: per(levels[1].misses),
        llc_miss: per(sim.llc_misses()),
    }
}

/// `rank`, `select` and `access` at the XBW-b image's own lengths: a
/// shape string of `t_nodes` bits with `n_leaves` ones behind
/// `RsBitVec` (the fused `access_rank1` probe each level of the walk
/// makes, and `select1`), and a packed label string of `n_leaves`
/// symbols over `delta` labels behind `IntVec`. Returns ns per call.
pub fn succinct_ns(t_nodes: usize, n_leaves: usize, delta: usize, seed: u64) -> (f64, f64, f64) {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let mut bits = BitVec::with_capacity(t_nodes);
    let mut ones = 0usize;
    for i in 0..t_nodes {
        // Exactly `n_leaves` ones, spread uniformly (selection sampling).
        let bit = rng.random_range(0..(t_nodes - i) as u64) < (n_leaves - ones) as u64;
        ones += usize::from(bit);
        bits.push(bit);
    }
    let shape = RsBitVec::new(bits);
    let width = fib_succinct::ceil_log2(delta.max(2) as u64);
    let mut labels = IntVec::new(width);
    for _ in 0..n_leaves.max(1) {
        labels.push(rng.random_range(0..delta.max(1) as u64));
    }
    let queries = 1usize << 16;
    let positions: Vec<usize> = (0..queries)
        .map(|_| rng.random_range(0..t_nodes.max(1) as u64) as usize)
        .collect();
    let ranks: Vec<usize> = (0..queries)
        .map(|_| rng.random_range(0..ones.max(1) as u64) as usize)
        .collect();
    let rank = ns_per_key(queries, || {
        for &i in &positions {
            black_box(shape.access_rank1(black_box(i)));
        }
    });
    let select = ns_per_key(queries, || {
        for &q in &ranks {
            black_box(shape.select1(black_box(q)));
        }
    });
    let access = ns_per_key(queries, || {
        for &q in &ranks {
            black_box(labels.get(black_box(q) % labels.len()));
        }
    });
    (rank, select, access)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fib_trie::Prefix;

    #[test]
    fn packed_walk_agrees_with_the_dag_it_was_packed_from() {
        let mut trie: BinaryTrie<u32> = BinaryTrie::new();
        trie.insert(Prefix::new(0, 0), NextHop::new(1));
        trie.insert(Prefix::new(0x0A00_0000, 8), NextHop::new(2));
        trie.insert(Prefix::new(0x0A40_0000, 10), NextHop::new(3));
        trie.insert(Prefix::new(0xC0A8_0100, 24), NextHop::new(4));
        let dag = PrefixDag::from_trie(&trie, 11);
        let (words, root) = dag.write_packed();
        for addr in [0u32, 0x0A01_0203, 0x0A40_0001, 0xC0A8_01FE, 0xFFFF_FFFF] {
            let mut touched = 0;
            let (answer, hops) = packed_walk(&words, root, addr, &mut |_, _| touched += 1);
            assert_eq!(answer, trie.lookup(addr), "{addr:#x}");
            assert_eq!(touched, hops + 1, "one node record per edge, plus the root");
        }
    }

    #[test]
    fn timed_calls_makes_the_minimum_when_the_budget_is_spent() {
        let (secs, calls) = timed_calls(3, Duration::ZERO, || {});
        assert_eq!(calls, 3);
        assert!(secs >= 0.0);
    }
}
