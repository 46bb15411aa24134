//! How long and how large a run is, and the inputs it derives from the
//! seed. The product code only ever sees the generated tables, keys and
//! updates, never the seed.

use std::time::Duration;

use fib_trie::BinaryTrie;
use fib_workload::loadgen::{AddrStream, KeyModel};
use fib_workload::rng::{Rng, SplitMix64, Xoshiro256};
use fib_workload::updates::{bgp_sequence, UpdateOp};

/// Size and duration of one run.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    /// Scale of the taz stand-in (1.0 = 410 513 routes).
    pub scale: f64,
    /// Length of one measuring window, a sixth of `--seconds`: the
    /// untraced pass of an end-to-end run lasts six; a per-layer run has
    /// two untraced, one for the latency pass and one for the traced
    /// pass.
    pub window: Duration,
    /// Length of the slices the `serve-*` passes are cut into; their
    /// lookup rate is taken per slice (see [`best`]). Beside a control
    /// thread nothing is sliced: a slice shorter than a burst would
    /// escape the publish and the reader's refresh after it.
    pub slice: Duration,
    /// Batches per slice of the `serve-*` latency pass (each slice yields
    /// a p99).
    pub latency_slice: u64,
    /// Keys in the pre-generated ring.
    pub ring_len: usize,
    /// Ring keys checked against the oracle before and after timing, and
    /// replayed through the cache simulator.
    pub check_keys: usize,
    /// Ring keys per micro-measurement pass.
    pub micro_keys: usize,
    /// Updates in the pre-generated stream (bursts cycle through it).
    pub update_len: usize,
    /// Spans one thread's traced pass may record.
    pub span_capacity: usize,
    /// Measure the end-to-end metrics (tracing off).
    pub end_to_end: bool,
    /// Run the traced pass and the per-layer micro-measurements.
    pub per_layer: bool,
    /// Smoke scale: marked in every output, never a basis for a claim.
    pub quick: bool,
}

impl Plan {
    /// The plan for `seconds` of measuring, six windows of a sixth each.
    #[must_use]
    pub fn new(seconds: f64, quick: bool, end_to_end: bool, per_layer: bool) -> Self {
        Self {
            scale: if quick { 0.1 } else { 1.0 },
            window: Duration::from_secs_f64(seconds / 6.0),
            slice: Duration::from_millis(2),
            latency_slice: 1000,
            ring_len: if quick { 1 << 18 } else { 1 << 22 },
            check_keys: 1 << 16,
            micro_keys: if quick { 1 << 16 } else { 1 << 18 },
            update_len: if quick { 1 << 16 } else { 1 << 20 },
            span_capacity: if quick { 1 << 18 } else { 1 << 20 },
            end_to_end,
            per_layer,
            quick,
        }
    }

    /// Length of the untraced pass: six windows when it is reported, two
    /// when it only anchors the tracing overhead.
    #[must_use]
    pub fn untraced(&self) -> Duration {
        self.window * if self.end_to_end { 6 } else { 2 }
    }

    /// Least set-up repetitions, and the time further ones may fill:
    /// `setup_s` is the median of three set-ups at least, of up to nine
    /// while they fit in two and a half seconds.
    #[must_use]
    pub fn setup_reps(&self) -> (usize, Duration) {
        if self.end_to_end {
            (3, Duration::from_millis(2500))
        } else {
            (1, Duration::ZERO)
        }
    }
}

/// Seed of the routing table(s): the one `benchdump` has always built
/// taz from.
pub const TABLE_SEED: u64 = 0xF1B;

/// The input seeds of a run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Seeds {
    /// Seeds the routing table(s): [`TABLE_SEED`] on every run, not
    /// derived from `--seed`. The Zipf and bursty key models rank
    /// prefixes by table order, so another table means other heavy
    /// hitters, and every figure of the skewed workloads moves by tens of
    /// percent with them — that is a different workload, not a
    /// repetition of this one.
    pub table: u64,
    /// Seeds the key ring.
    pub keys: u64,
    /// Seeds the update stream.
    pub updates: u64,
}

impl Seeds {
    /// Expands the run seed into the key-ring and update-stream seeds.
    #[must_use]
    pub fn derive(seed: u64) -> Self {
        let mut mix = SplitMix64::new(seed);
        Self {
            table: TABLE_SEED,
            keys: mix.next_u64(),
            updates: mix.next_u64(),
        }
    }
}

/// The taz stand-in at `scale`.
///
/// # Panics
/// Panics if the workload crate lost its `taz` instance.
#[must_use]
pub fn taz(scale: f64, seed: u64) -> BinaryTrie<u32> {
    let mut instance = fib_workload::instances::by_name("taz").expect("taz is a paper instance");
    instance.n_prefixes = ((instance.n_prefixes as f64 * scale) as usize).max(64);
    instance.build(seed)
}

/// The pre-generated key ring for `model` over `fib`.
#[must_use]
pub fn key_ring(model: KeyModel, fib: &BinaryTrie<u32>, seed: u64, len: usize) -> Vec<u32> {
    AddrStream::new(model, fib, seed, 0).take_vec(len)
}

/// The pre-generated BGP-like update stream against `fib`.
#[must_use]
pub fn update_stream(fib: &BinaryTrie<u32>, seed: u64, len: usize) -> Vec<UpdateOp<u32>> {
    bgp_sequence(&mut Xoshiro256::seed_from_u64(seed), fib, len)
}

/// The best of many short slices: the largest rate or the smallest
/// time, passing over the best thousandth as outliers.
///
/// The noise of a shared host is one-sided — neighbours only ever take
/// capacity away, in bursts of seconds — so the mean or the median of a
/// pass tracks what the neighbours did during it, while its best slices
/// track what the code does. Measured on the 2-core sandbox this was
/// written on, over sixteen 7.5 s passes of one loop: the median of 2 ms
/// slices spread 9.7 % between passes, their best 3.5 %.
///
/// # Panics
/// Panics on an empty slice.
#[must_use]
pub fn best(values: &[f64], higher_is_better: bool) -> f64 {
    assert!(!values.is_empty(), "best of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let skip = sorted.len() / 1000;
    if higher_is_better {
        sorted[sorted.len() - 1 - skip]
    } else {
        sorted[skip]
    }
}

/// Median of `values` (the mean of the middle two for an even count).
///
/// # Panics
/// Panics on an empty slice.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        f64::midpoint(sorted[mid - 1], sorted[mid])
    }
}
