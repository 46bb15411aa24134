//! The benchmark's own forwarding and control loops. They make the same
//! public calls the product's `Forwarder::worker_loop` makes — fill a
//! batch from the source, pick up the snapshot, resolve the batch, record
//! heat — so a call boundary can carry a timestamp. One loop serves the
//! untraced windows of the updating workloads (no timer in it at all),
//! the latency pass (one interval per batch) and the traced pass (a span
//! per boundary); which one is picked by the [`Observer`].

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fib_router::AddressSource;
use fib_trie::NextHop;
use fib_workload::updates::UpdateOp;

use crate::hist::LogLinearHist;
use crate::trace::{SpanKind, Tracer, NO_PARENT};

/// Lookups per forwarding batch — the unit of snapshot pickup, as in
/// `ForwarderConfig::default()`.
pub const BATCH: usize = 256;

/// A cursor over the pre-generated key ring: `fill` copies the next `n`
/// keys into the batch buffer, wrapping at the end, so no generator runs
/// inside a measured loop.
#[derive(Clone, Debug)]
pub struct RingCursor<K> {
    keys: Arc<Vec<K>>,
    pos: usize,
}

impl<K: Copy> RingCursor<K> {
    /// A cursor starting at `start` (taken modulo the ring length).
    ///
    /// # Panics
    /// Panics on an empty ring.
    #[must_use]
    pub fn new(keys: Arc<Vec<K>>, start: usize) -> Self {
        assert!(!keys.is_empty(), "empty key ring");
        let pos = start % keys.len();
        Self { keys, pos }
    }

    /// Replaces `buf`'s contents with the next `n` ring keys.
    #[inline]
    pub fn fill(&mut self, buf: &mut Vec<K>, n: usize) {
        buf.clear();
        let mut left = n;
        while left > 0 {
            let take = left.min(self.keys.len() - self.pos);
            buf.extend_from_slice(&self.keys[self.pos..self.pos + take]);
            self.pos = (self.pos + take) % self.keys.len();
            left -= take;
        }
    }
}

impl<K: Copy + Send + Sync> AddressSource<K> for RingCursor<K> {
    fn fill(&mut self, buf: &mut Vec<K>, n: usize) {
        RingCursor::fill(self, buf, n);
    }
}

/// A forwarding thread's view of the data plane, split at the boundary
/// the spans need: pick the snapshot up, then resolve against it.
pub trait Plane {
    /// What one lookup is keyed by (`u32`, or `(vrf, u32)`).
    type Key: Copy + Send + Sync + 'static;

    /// Picks up the current snapshot (`SnapReader::get`) and returns its
    /// epoch.
    fn get(&mut self) -> u64;

    /// The reader's publication generation (changes on a refresh).
    fn generation(&self) -> u64;

    /// Resolves `keys` against the snapshot the last [`Self::get`] saw.
    fn lookup(&mut self, keys: &[Self::Key], out: &mut [Option<NextHop>]);
}

/// Records a batch's keys as traffic heat (`HeatSketch::record` each).
pub type HeatHook<'a, K> = &'a (dyn Fn(&[K]) + Sync);

/// When a loop ends.
#[derive(Clone, Copy, Debug)]
pub enum Stop<'a> {
    /// After this long (needs an observer that reads the clock).
    After(Duration),
    /// When the other thread raises the flag.
    Flag(&'a AtomicBool),
}

/// What a loop does at each call boundary.
pub trait Observer {
    /// A timestamp in nanoseconds, or 0 from the observer that keeps the
    /// clock out of the loop.
    fn stamp(&mut self) -> u64;

    /// One forwarding batch of `n` lookups with its five boundary stamps:
    /// start, after fill, after get, after lookup, after heat. The next
    /// batch starts at a stamp taken after this call returns, so what the
    /// observer does here lies between batches, inside none.
    fn batch(&mut self, stamps: [u64; 5], n: usize, heat: bool);

    /// One control burst with its four boundary stamps: start, after the
    /// announce loop, after publish, after the visible check.
    fn burst(&mut self, stamps: [u64; 4]);

    /// Whether the observer can take another batch or burst.
    fn has_room(&self) -> bool {
        true
    }

    /// Whether [`Self::stamp`] reads the clock ([`Stop::After`] needs it).
    fn timed(&self) -> bool {
        true
    }
}

/// Counts only: no clock read anywhere in the loop (both sides of an
/// untraced pass beside a control thread).
#[derive(Debug, Default)]
pub struct Untimed;

impl Observer for Untimed {
    #[inline]
    fn stamp(&mut self) -> u64 {
        0
    }

    #[inline]
    fn batch(&mut self, _stamps: [u64; 5], _n: usize, _heat: bool) {}

    #[inline]
    fn burst(&mut self, _stamps: [u64; 4]) {}

    fn timed(&self) -> bool {
        false
    }
}

/// Cuts the product `Forwarder`'s run into short slices and keeps each
/// slice's lookup rate: one clock read per batch (as the worker's own
/// loop makes), so a neighbour's burst spoils some slices, not the
/// figure.
#[derive(Debug)]
pub struct Sliced {
    origin: Instant,
    slice_ns: u64,
    slice_start: u64,
    lookups: u64,
    /// Million lookups per second of every finished slice.
    pub mlps: Vec<f64>,
}

impl Sliced {
    /// Slices of `slice` each.
    #[must_use]
    pub fn new(slice: Duration) -> Self {
        Self {
            origin: Instant::now(),
            slice_ns: slice.as_nanos() as u64,
            slice_start: 0,
            lookups: 0,
            mlps: Vec::new(),
        }
    }

    /// Counts `n` more lookups, closing the slice if it has run its
    /// length.
    #[inline]
    pub fn count(&mut self, n: usize) {
        self.lookups += n as u64;
        let now = self.origin.elapsed().as_nanos() as u64;
        if now - self.slice_start >= self.slice_ns {
            self.mlps
                .push(self.lookups as f64 * 1e3 / (now - self.slice_start) as f64);
            self.slice_start = now;
            self.lookups = 0;
        }
    }
}

/// The ring as the product's `Forwarder` sees it: an `AddressSource`
/// that also notes, at every `fill` — once per batch of the worker's own
/// loop — how many lookups the worker has got through, cutting its run
/// into slices. The rates come out through the shared vector when the
/// worker drops the source.
#[derive(Debug)]
pub struct SlicedSource {
    cursor: RingCursor<u32>,
    sliced: Sliced,
    pending: usize,
    rates: Arc<std::sync::Mutex<Vec<f64>>>,
}

impl SlicedSource {
    /// A source over `cursor` with slices of `slice`, reporting into
    /// `rates`.
    #[must_use]
    pub fn new(
        cursor: RingCursor<u32>,
        slice: Duration,
        rates: Arc<std::sync::Mutex<Vec<f64>>>,
    ) -> Self {
        Self {
            cursor,
            sliced: Sliced::new(slice),
            pending: 0,
            rates,
        }
    }
}

impl AddressSource<u32> for SlicedSource {
    #[inline]
    fn fill(&mut self, buf: &mut Vec<u32>, n: usize) {
        // The batch handed out last time has been resolved by now.
        self.sliced.count(self.pending);
        self.pending = n;
        self.cursor.fill(buf, n);
    }
}

impl Drop for SlicedSource {
    fn drop(&mut self) {
        if let Ok(mut rates) = self.rates.lock() {
            rates.append(&mut self.sliced.mlps);
        }
    }
}

/// The latency pass: per batch, the time of `get` + `lookup` divided by
/// the batch size goes into a histogram of ns per lookup; the pass is
/// cut into slices of a fixed number of batches and each slice's p99 is
/// kept, for the same reason [`Sliced`] keeps each slice's rate. With
/// `u64::MAX` batches per slice the whole pass is one slice.
#[derive(Debug)]
pub struct Latency {
    origin: Instant,
    slice_batches: u64,
    hist: LogLinearHist,
    /// p99 of the per-batch ns/lookup of every finished slice.
    p99: Vec<f64>,
    /// Batches timed.
    pub batches: u64,
}

impl Latency {
    /// Slices of `slice_batches` batches each.
    #[must_use]
    pub fn new(slice_batches: u64) -> Self {
        Self {
            origin: Instant::now(),
            slice_batches,
            hist: LogLinearHist::new(256.0),
            p99: Vec::new(),
            batches: 0,
        }
    }

    /// The p99 of every slice; of the one unfinished slice when the pass
    /// was too short to finish any.
    #[must_use]
    pub fn slices(mut self) -> Vec<f64> {
        if self.p99.is_empty() && self.hist.count() > 0 {
            self.p99.push(self.hist.quantile(0.99));
        }
        self.p99
    }
}

impl Observer for Latency {
    #[inline]
    fn stamp(&mut self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    #[inline]
    fn batch(&mut self, stamps: [u64; 5], n: usize, _heat: bool) {
        self.hist.record((stamps[3] - stamps[1]) as f64 / n as f64);
        self.batches += 1;
        if self.hist.count() >= self.slice_batches {
            self.p99.push(self.hist.quantile(0.99));
            self.hist.clear();
        }
    }

    #[inline]
    fn burst(&mut self, _stamps: [u64; 4]) {}
}

impl Observer for Tracer {
    #[inline]
    fn stamp(&mut self) -> u64 {
        self.now()
    }

    #[inline]
    fn batch(&mut self, s: [u64; 5], _n: usize, heat: bool) {
        let parent = self.push(SpanKind::Batch, s[0], s[4], NO_PARENT);
        self.push(SpanKind::Fill, s[0], s[1], parent);
        self.push(SpanKind::Get, s[1], s[2], parent);
        self.push(SpanKind::Lookup, s[2], s[3], parent);
        if heat {
            self.push(SpanKind::Heat, s[3], s[4], parent);
        }
    }

    #[inline]
    fn burst(&mut self, s: [u64; 4]) {
        let parent = self.push(SpanKind::Burst, s[0], s[3], NO_PARENT);
        self.push(SpanKind::Announce, s[0], s[1], parent);
        self.push(SpanKind::Publish, s[1], s[2], parent);
        self.push(SpanKind::Visible, s[2], s[3], parent);
    }

    #[inline]
    fn has_room(&self) -> bool {
        Tracer::has_room(self)
    }
}

/// What one run of [`forward`] did.
#[derive(Clone, Copy, Debug, Default)]
pub struct Forwarded {
    /// Lookups resolved.
    pub lookups: u64,
    /// Batches processed.
    pub batches: u64,
    /// Snapshot refreshes seen (generation changes).
    pub refreshes: u64,
    /// A later batch saw an older epoch than an earlier one (must not
    /// happen; counted as a failure).
    pub epoch_regressed: bool,
    /// Wall time of the loop.
    pub elapsed: Duration,
}

impl Forwarded {
    /// Million lookups per second over the loop's wall time.
    #[must_use]
    pub fn mlps(&self) -> f64 {
        self.lookups as f64 / self.elapsed.as_secs_f64().max(1e-9) / 1e6
    }
}

/// The forwarding loop: fill, get, lookup, optionally heat, until `stop`.
///
/// # Panics
/// Panics when asked to stop after a duration by an observer that keeps
/// the clock out of the loop.
pub fn forward<P: Plane, O: Observer>(
    plane: &mut P,
    ring: &mut RingCursor<P::Key>,
    heat: Option<HeatHook<'_, P::Key>>,
    stop: Stop<'_>,
    obs: &mut O,
) -> Forwarded {
    assert!(
        obs.timed() || matches!(stop, Stop::Flag(_)),
        "a timed stop needs a timed observer"
    );
    let mut buf: Vec<P::Key> = Vec::with_capacity(BATCH);
    let mut out: Vec<Option<NextHop>> = vec![None; BATCH];
    let mut done = Forwarded::default();
    let mut last_gen = plane.generation();
    let mut last_epoch = 0u64;
    let started = Instant::now();
    let first = obs.stamp();
    let mut t0 = first;
    loop {
        let finished = match stop {
            Stop::After(limit) => t0 - first >= limit.as_nanos() as u64,
            // ordering: Relaxed — a pure stop flag; the scope join that
            // follows synchronizes everything else.
            Stop::Flag(flag) => flag.load(Ordering::Relaxed),
        };
        if finished || !obs.has_room() {
            break;
        }
        ring.fill(&mut buf, BATCH);
        let t1 = obs.stamp();
        let epoch = plane.get();
        let t2 = obs.stamp();
        plane.lookup(&buf, &mut out);
        let t3 = obs.stamp();
        if let Some(record) = heat {
            record(&buf);
        }
        std::hint::black_box(&out);
        done.epoch_regressed |= epoch < last_epoch;
        last_epoch = epoch;
        let gen = plane.generation();
        if gen != last_gen {
            done.refreshes += 1;
            last_gen = gen;
        }
        done.lookups += BATCH as u64;
        done.batches += 1;
        let t4 = obs.stamp();
        obs.batch([t0, t1, t2, t3, t4], BATCH, heat.is_some());
        t0 = obs.stamp();
    }
    done.elapsed = started.elapsed();
    done
}

/// Exact counters of a control plane and its spool, read before and
/// after a fixed number of bursts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    /// Updates absorbed in place.
    pub in_place: u64,
    /// Updates the engine declined.
    pub declined: u64,
    /// Full engine rebuilds.
    pub rebuilds: u64,
    /// Epochs published.
    pub epochs: u64,
    /// Epoch images spilled.
    pub spills: u64,
    /// `fdatasync` calls.
    pub fsyncs: u64,
    /// Bytes appended to the journal.
    pub journal_bytes: u64,
    /// Bytes written to epoch images.
    pub spill_bytes: u64,
    /// Renames.
    pub renames: u64,
}

/// A control plane a burst can be driven through.
pub trait Control {
    /// Applies one update of burst number `burst` (`announce`/`withdraw`).
    fn apply(&mut self, burst: usize, op: &UpdateOp<u32>);

    /// Publishes what the burst changed.
    fn publish(&mut self);

    /// Whether a fresh reader answers `op`'s prefix as the control
    /// plane's oracle now does.
    fn visible(&mut self, burst: usize, op: &UpdateOp<u32>) -> bool;

    /// The exact counters now.
    fn counters(&self) -> Counters;
}

/// One burst: apply `ops`, publish, check the last one is visible.
/// Returns the first-announce → visible time in milliseconds and whether
/// the check passed.
pub fn burst<C: Control, O: Observer>(
    control: &mut C,
    number: usize,
    ops: &[UpdateOp<u32>],
    obs: &mut O,
) -> (f64, bool) {
    let started = Instant::now();
    let t0 = obs.stamp();
    for op in ops {
        control.apply(number, op);
    }
    let t1 = obs.stamp();
    control.publish();
    let t2 = obs.stamp();
    let ok = ops.last().is_none_or(|op| control.visible(number, op));
    let ms = started.elapsed().as_secs_f64() * 1e3;
    let t3 = obs.stamp();
    obs.burst([t0, t1, t2, t3]);
    (ms, ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_cursor_wraps_and_fills_exactly() {
        let ring = Arc::new((0u32..10).collect::<Vec<_>>());
        let mut cursor = RingCursor::new(Arc::clone(&ring), 8);
        let mut buf = Vec::new();
        cursor.fill(&mut buf, 5);
        assert_eq!(buf, [8, 9, 0, 1, 2]);
        cursor.fill(&mut buf, 23);
        assert_eq!(buf.len(), 23);
        assert_eq!(buf[0], 3);
        assert_eq!(buf[22], 5);
    }
}
