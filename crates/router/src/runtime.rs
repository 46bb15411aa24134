//! The multi-core forwarding runtime: N worker threads serving lookups
//! off wait-free snapshot readers, with per-worker statistics (packets,
//! drops, ns/lookup histogram). Updates reach the control plane as plain
//! calls on its [`Router`](crate::Router) or
//! [`VrfSetRouter`](crate::VrfSetRouter), from whichever thread owns it.
//!
//! The shape follows the paper's §5 software router: one control CPU
//! absorbs churn and periodically publishes an immutable compressed
//! image; every other core runs a tight forward loop — refill a batch
//! from its traffic source, pick up the current snapshot (one atomic
//! generation check via [`SnapCell`]), resolve the batch through the
//! snapshot's batch path ([`Serve::serve`]), record latency.
//! Workers never take a lock and never contend with each other; the only
//! cross-core traffic on the packet path is the generation counter line,
//! which is read-shared until the (rare) publish invalidates it.
//!
//! [`Forwarder::run`] is the one serving loop, for both control planes: a
//! single table's [`EpochSnapshot`] serves addresses through its engine's
//! batch kernel, a fleet's [`VrfSnapshot`] serves `(vrf, addr)` pairs
//! through its set's batch path, which walks shared tables' keys in input
//! order and buckets only dedicated tables' keys by VRF. The router's own readers, the
//! benchmark and `fibc serve` (over an image-backed
//! [`EpochSnapshot::from_image`] or [`VrfSnapshot::from_image`]) all run
//! it, so what `fibc serve` prints is the [`WorkerReport`]s this module
//! fills, whatever the image holds.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use fib_core::{ImageCodec, VrfBatchScratch};
use fib_trie::{Address, NextHop};
use fib_workload::HeatMap;

use crate::router::EpochSnapshot;
use crate::snapcell::SnapCell;
use crate::vrf::VrfSnapshot;

// ---------------------------------------------------------------------
// Latency histogram
// ---------------------------------------------------------------------

/// Sub-buckets per octave, as a bit count: every bucket is at most 1/16
/// as wide as its lower edge.
const SUB_BITS: u32 = 4;
const SUB: usize = 1 << SUB_BITS;
/// `SUB` one-unit buckets, then `SUB` per octave up to `u64::MAX`.
const HIST_BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB;
/// Fixed-point scale: histogram values are in 1/16 ns, so sub-nanosecond
/// per-lookup latencies (large batches on small engines) stay resolvable.
const HIST_SCALE: f64 = 16.0;

/// A log-linear ns/lookup histogram — 16 buckets an octave, quantiles
/// interpolated by rank inside a bucket, so a steady latency reads as
/// itself within a sixteenth: fixed size, merge-friendly, no allocation
/// on the record path.
#[derive(Clone, Debug)]
pub struct LatencyHistogram {
    buckets: [u64; HIST_BUCKETS],
    count: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self {
            buckets: [0; HIST_BUCKETS],
            count: 0,
        }
    }
}

impl LatencyHistogram {
    /// The bucket holding fixed-point value `fixed`.
    fn index(fixed: u64) -> usize {
        if fixed < SUB as u64 {
            return fixed as usize;
        }
        let msb = 63 - fixed.leading_zeros();
        let sub = (fixed >> (msb - SUB_BITS)) as usize & (SUB - 1);
        (msb - SUB_BITS + 1) as usize * SUB + sub
    }

    /// `(lower edge, width)` of bucket `index`, in fixed-point units.
    fn edges(index: usize) -> (u64, u64) {
        if index < SUB {
            return (index as u64, 1);
        }
        let shift = (index / SUB - 1) as u32;
        (((SUB + index % SUB) as u64) << shift, 1 << shift)
    }

    /// Records `count` lookups that each took `ns_per_lookup`.
    pub fn record(&mut self, ns_per_lookup: f64, count: u64) {
        let fixed = (ns_per_lookup * HIST_SCALE).max(0.0) as u64;
        self.buckets[Self::index(fixed)] += count;
        self.count += count;
    }

    /// Total recorded lookups.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Folds another histogram in.
    pub fn merge(&mut self, other: &Self) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
    }

    /// The `q`-quantile (`0 < q ≤ 1`) in nanoseconds, interpolated by rank
    /// inside the bucket holding it; 0.0 when empty.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = (self.count as f64 * q).clamp(1.0, self.count as f64);
        let mut seen = 0u64;
        for (index, &n) in self.buckets.iter().enumerate() {
            if n > 0 && (seen + n) as f64 >= rank {
                let (lo, width) = Self::edges(index);
                let within = (rank - seen as f64) / n as f64;
                return (lo as f64 + width as f64 * within) / HIST_SCALE;
            }
            seen += n;
        }
        unreachable!("rank within count")
    }

    /// Median ns/lookup.
    #[must_use]
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// 99th-percentile ns/lookup.
    #[must_use]
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }
}

// ---------------------------------------------------------------------
// Worker reports
// ---------------------------------------------------------------------

/// What one forwarding worker did during a run.
#[derive(Clone, Debug)]
pub struct WorkerReport {
    /// Worker index within the pool.
    pub worker: usize,
    /// Lookups performed.
    pub packets: u64,
    /// Packets dropped by open-loop pacing (arrivals the worker could not
    /// keep up with once its queue overflowed). Always 0 in closed loop.
    pub drops: u64,
    /// Batches processed.
    pub batches: u64,
    /// Lookups that matched a route.
    pub matched: u64,
    /// Snapshot refreshes observed (publication generation bumps).
    pub refreshes: u64,
    /// First epoch served.
    pub first_epoch: u64,
    /// Last epoch served.
    pub last_epoch: u64,
    /// Whether a later batch ever saw an *older* epoch than an earlier
    /// one — must stay `false`; the churn tests assert it.
    pub epoch_regressed: bool,
    /// Wall-clock the worker actually ran.
    pub elapsed: Duration,
    /// Per-batch ns/lookup distribution.
    pub hist: LatencyHistogram,
    /// Addresses recorded into the worker's heat sketch: one in
    /// [`HEAT_SAMPLE`] of `packets` under [`Forwarder::run_sampled`], 0
    /// otherwise.
    pub heat_samples: u64,
}

impl WorkerReport {
    fn new(worker: usize) -> Self {
        Self {
            worker,
            packets: 0,
            drops: 0,
            batches: 0,
            matched: 0,
            refreshes: 0,
            first_epoch: u64::MAX,
            last_epoch: 0,
            epoch_regressed: false,
            elapsed: Duration::ZERO,
            hist: LatencyHistogram::default(),
            heat_samples: 0,
        }
    }

    /// Throughput in million lookups per second over the worker's run.
    #[must_use]
    pub fn mlookups_per_s(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.packets as f64 / secs / 1e6
        }
    }
}

// ---------------------------------------------------------------------
// Pacing and configuration
// ---------------------------------------------------------------------

/// How workers source load.
#[derive(Clone, Copy, Debug)]
pub enum PacingMode {
    /// Closed loop: the next batch starts the moment the previous one
    /// finishes — measures capacity.
    Closed,
    /// Open loop: packets arrive at `rate_pps` per worker regardless of
    /// service speed; arrivals beyond `queue` outstanding packets are
    /// dropped — measures behavior under offered load.
    Open {
        /// Arrival rate per worker, packets per second.
        rate_pps: u64,
        /// Queue capacity before arrivals drop.
        queue: u64,
    },
}

/// Forwarder pool parameters.
#[derive(Clone, Copy, Debug)]
pub struct ForwarderConfig {
    /// Number of forwarding threads.
    pub threads: usize,
    /// Lookups per batch (the unit of snapshot pickup and timing).
    pub batch: usize,
    /// How long the pool runs.
    pub duration: Duration,
    /// Closed or open loop.
    pub pacing: PacingMode,
}

impl Default for ForwarderConfig {
    fn default() -> Self {
        Self {
            threads: 1,
            batch: 256,
            duration: Duration::from_millis(250),
            pacing: PacingMode::Closed,
        }
    }
}

/// A worker's traffic source: fills `buf` with exactly `n` addresses.
/// Blanket-implemented for closures, so any generator (uniform, Zipf,
/// bursty — see `fib_workload::loadgen`) plugs in without this crate
/// depending on the workload crate.
pub trait AddressSource<A>: Send {
    /// Replaces `buf`'s contents with the next `n` addresses.
    fn fill(&mut self, buf: &mut Vec<A>, n: usize);
}

impl<A, F> AddressSource<A> for F
where
    F: FnMut(&mut Vec<A>, usize) + Send,
{
    fn fill(&mut self, buf: &mut Vec<A>, n: usize) {
        self(buf, n);
    }
}

/// A published snapshot the forwarding loop serves: a batch of keys `K`
/// in, one next hop per key out, in input order.
pub trait Serve<K>: Send + Sync + 'static {
    /// Per-worker state the batch path reuses from batch to batch, so the
    /// loop does not allocate.
    type Scratch: Default;

    /// The epoch this snapshot was published as.
    fn epoch(&self) -> u64;

    /// Resolves `keys` into `out[..keys.len()]`.
    fn serve(&self, keys: &[K], out: &mut [Option<NextHop>], scratch: &mut Self::Scratch);
}

/// A single table serves addresses through its engine's batch kernel
/// ([`EpochSnapshot::lookup_stream`]).
impl<A: Address, E: ImageCodec<A> + Send + Sync + 'static> Serve<A> for EpochSnapshot<E> {
    type Scratch = ();

    fn epoch(&self) -> u64 {
        EpochSnapshot::epoch(self)
    }

    fn serve(&self, keys: &[A], out: &mut [Option<NextHop>], (): &mut ()) {
        self.lookup_stream(keys, out);
    }
}

/// A fleet serves `(vrf, addr)` pairs through its VRF-bucketed batch path
/// ([`VrfSnapshot::lookup_batch`]).
impl<A: Address + Send + Sync + 'static> Serve<(u32, A)> for VrfSnapshot<A> {
    type Scratch = VrfBatchScratch<A>;

    fn epoch(&self) -> u64 {
        VrfSnapshot::epoch(self)
    }

    fn serve(&self, keys: &[(u32, A)], out: &mut [Option<NextHop>], scratch: &mut Self::Scratch) {
        self.lookup_batch(keys, out, scratch);
    }
}

// ---------------------------------------------------------------------
// Heat sampling
// ---------------------------------------------------------------------

/// Under [`Forwarder::run_sampled`] a worker records one looked-up
/// address in this many into its heat sketch. A constant, not a knob: the
/// sketch ranks blocks by relative weight, which a 1-in-64 subsample of
/// any interval worth publishing from preserves, and recording every
/// address cost more than the lookup it observed.
pub const HEAT_SAMPLE: usize = 64;

/// Picks the sampled addresses out of a worker's batches: exactly one per
/// window of [`HEAT_SAMPLE`] consecutive addresses of the worker's stream
/// (windows run on across batch boundaries, so the rate holds for any
/// batch size), at an in-window offset that a window takes from the batch
/// it starts in and that advances by one each batch. A fixed offset would
/// see the same positions of every batch whenever the batch size (the
/// default 256) or a period of the source divides the window.
#[derive(Debug, Default)]
struct HeatSampler {
    /// Addresses of the current window already seen.
    pos: usize,
    /// In-window offset of the current window's sample.
    offset: usize,
}

impl HeatSampler {
    /// Calls `record` on this batch's samples; returns how many.
    fn sample<A: Copy>(&mut self, addrs: &[A], batch: u64, mut record: impl FnMut(A)) -> u64 {
        let (mut taken, mut i) = (0, 0);
        while i < addrs.len() {
            if self.pos == 0 {
                self.offset = (batch % HEAT_SAMPLE as u64) as usize;
            }
            let span = (HEAT_SAMPLE - self.pos).min(addrs.len() - i);
            if (self.pos..self.pos + span).contains(&self.offset) {
                record(addrs[i + self.offset - self.pos]);
                taken += 1;
            }
            self.pos = (self.pos + span) % HEAT_SAMPLE;
            i += span;
        }
        taken
    }
}

// ---------------------------------------------------------------------
// The forwarder pool
// ---------------------------------------------------------------------

/// A multi-core forwarding runtime over a [`SnapCell`]: spawns
/// [`ForwarderConfig::threads`] workers, each owning a wait-free snapshot
/// reader and a private traffic source, and joins them after the
/// configured duration (or [`Forwarder::stop`]).
#[derive(Debug, Default)]
pub struct Forwarder {
    stop: AtomicBool,
}

impl Forwarder {
    /// A pool handle (reusable across runs).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Asks an in-flight [`Forwarder::run`] (on another thread) to wind
    /// down before its duration elapses.
    pub fn stop(&self) {
        // ordering: Relaxed — a pure shutdown flag: no data is published
        // through it, workers only need to observe it eventually, and the
        // scope join below synchronizes everything at the end of `run`.
        self.stop.store(true, Ordering::Relaxed);
    }

    /// Runs the pool to completion against `cell`, building each worker's
    /// traffic source with `make_source(worker_index)`. Blocks until all
    /// workers finish; returns one report per worker.
    ///
    /// # Panics
    /// Panics if a worker thread panicked.
    pub fn run<K, T: Serve<K>, S: AddressSource<K>>(
        &self,
        cell: &SnapCell<T>,
        config: &ForwarderConfig,
        make_source: impl Fn(usize) -> S + Sync,
    ) -> Vec<WorkerReport> {
        self.run_inner(cell, config, make_source, |_| |_: &[K], _| 0)
    }

    /// [`Self::run`] with traffic sampling: each worker records one in
    /// [`HEAT_SAMPLE`] of the addresses it looks up — exactly, whatever
    /// the batch size, at a position that rotates from batch to batch —
    /// into its own lock-free sketch of `heat` (worker `i` owns sketch
    /// `i % heat.workers()`, so sizing the map for `config.threads` keeps
    /// the sketches contention-free) and counts them in
    /// [`WorkerReport::heat_samples`]. The control plane merges the
    /// sketches at publish time ([`crate::Router::publish_hot`]).
    ///
    /// # Panics
    /// Panics if a worker thread panicked.
    pub fn run_sampled<A: Address, T: Serve<A>, S: AddressSource<A>>(
        &self,
        cell: &SnapCell<T>,
        config: &ForwarderConfig,
        make_source: impl Fn(usize) -> S + Sync,
        heat: &HeatMap,
    ) -> Vec<WorkerReport> {
        self.run_inner(cell, config, make_source, |worker| {
            let sketch = heat.sketch(worker % heat.workers());
            let mut sampler = HeatSampler::default();
            move |addrs: &[A], batch| sampler.sample(addrs, batch, |addr| sketch.record(addr))
        })
    }

    /// The pool: worker `i` serves from `make_source(i)` and hands every
    /// batch it served, with its index, to `make_sample(i)`, which returns
    /// how many addresses it recorded.
    fn run_inner<K, T: Serve<K>, S: AddressSource<K>, R: FnMut(&[K], u64) -> u64 + Send>(
        &self,
        cell: &SnapCell<T>,
        config: &ForwarderConfig,
        make_source: impl Fn(usize) -> S + Sync,
        make_sample: impl Fn(usize) -> R + Sync,
    ) -> Vec<WorkerReport> {
        // ordering: Relaxed — reset before any worker spawns; the spawn
        // itself is the synchronization point that makes it visible.
        self.stop.store(false, Ordering::Relaxed);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..config.threads.max(1))
                .map(|worker| {
                    let source = make_source(worker);
                    let sample = make_sample(worker);
                    scope.spawn(move || self.worker_loop(cell, config, worker, source, sample))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("forwarding worker panicked"))
                .collect()
        })
    }

    fn worker_loop<K, T: Serve<K>>(
        &self,
        cell: &SnapCell<T>,
        config: &ForwarderConfig,
        worker: usize,
        mut source: impl AddressSource<K>,
        mut sample: impl FnMut(&[K], u64) -> u64,
    ) -> WorkerReport {
        let mut reader = cell.reader();
        let mut report = WorkerReport::new(worker);
        let mut last_gen = reader.generation();
        let batch = config.batch.max(1);
        let mut buf: Vec<K> = Vec::with_capacity(batch);
        let mut out: Vec<Option<NextHop>> = vec![None; batch];
        let mut scratch = T::Scratch::default();
        let start = Instant::now();
        loop {
            let elapsed = start.elapsed();
            // ordering: Relaxed — shutdown-flag poll; seeing the store one
            // batch late is fine and no data rides on this load.
            if elapsed >= config.duration || self.stop.load(Ordering::Relaxed) {
                report.elapsed = elapsed;
                break;
            }
            // Pacing: how many packets are due right now?
            let due = match config.pacing {
                PacingMode::Closed => batch as u64,
                PacingMode::Open { rate_pps, queue } => {
                    let arrived = (elapsed.as_secs_f64() * rate_pps as f64) as u64;
                    let mut backlog = arrived.saturating_sub(report.packets + report.drops);
                    if backlog == 0 {
                        std::hint::spin_loop();
                        continue;
                    }
                    if backlog > queue {
                        // The queue overflowed while we were busy: the
                        // excess arrivals were never enqueued.
                        report.drops += backlog - queue;
                        backlog = queue;
                    }
                    backlog.min(batch as u64)
                }
            };
            let n = due as usize;
            source.fill(&mut buf, n);
            debug_assert_eq!(buf.len(), n, "source must fill exactly n");
            let snap = reader.get();
            let epoch = snap.epoch();
            if epoch < report.last_epoch {
                report.epoch_regressed = true;
            }
            report.first_epoch = report.first_epoch.min(epoch);
            report.last_epoch = report.last_epoch.max(epoch);
            let t0 = Instant::now();
            snap.serve(&buf, &mut out[..n], &mut scratch);
            let dt = t0.elapsed().as_nanos() as f64;
            // Sample heat outside the timed window: under `run_sampled`
            // the sketch is this worker's own, so the records are
            // uncontended fetch-adds.
            report.heat_samples += sample(&buf[..n], report.batches);
            let gen = reader.generation();
            if gen != last_gen {
                report.refreshes += 1;
                last_gen = gen;
            }
            report.packets += n as u64;
            report.batches += 1;
            report.matched += out[..n].iter().filter(|o| o.is_some()).count() as u64;
            report.hist.record(dt / n as f64, n as u64);
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fib_core::SerializedDag;
    use fib_trie::{BinaryTrie, Prefix4};

    use crate::router::{Router, RouterConfig};

    fn base_fib() -> BinaryTrie<u32> {
        let mut t = BinaryTrie::new();
        t.insert("0.0.0.0/0".parse::<Prefix4>().unwrap(), NextHop::new(1));
        t.insert("10.0.0.0/8".parse::<Prefix4>().unwrap(), NextHop::new(2));
        t.insert("10.64.0.0/10".parse::<Prefix4>().unwrap(), NextHop::new(3));
        t
    }

    #[test]
    fn histogram_quantiles_are_ordered_and_plausible() {
        let mut h = LatencyHistogram::default();
        for _ in 0..90 {
            h.record(50.0, 1);
        }
        for _ in 0..10 {
            h.record(900.0, 1);
        }
        assert_eq!(h.count(), 100);
        let (p50, p99) = (h.p50(), h.p99());
        assert!((32.0..=96.0).contains(&p50), "p50 = {p50}");
        assert!((512.0..=1536.0).contains(&p99), "p99 = {p99}");
        assert!(p50 <= p99);
        // Sub-nanosecond values stay resolvable.
        let mut tiny = LatencyHistogram::default();
        tiny.record(0.25, 4);
        assert!(tiny.p50() > 0.0 && tiny.p50() < 1.0);
    }

    #[test]
    fn histogram_reads_a_steady_latency_within_a_sixteenth() {
        for ns in [0.25, 10.0, 37.5, 900.0] {
            let mut h = LatencyHistogram::default();
            h.record(ns, 100);
            let p50 = h.p50();
            assert!(
                (p50 - ns).abs() <= ns / 16.0 + 1.0 / HIST_SCALE,
                "{ns} ns reads p50 = {p50}"
            );
        }
    }

    #[test]
    fn histogram_buckets_tile_the_range_without_gaps() {
        let mut next = 0;
        for index in 0..HIST_BUCKETS - SUB {
            let (lo, width) = LatencyHistogram::edges(index);
            assert_eq!((lo, LatencyHistogram::index(lo)), (next, index));
            assert_eq!(LatencyHistogram::index(lo + width - 1), index);
            next = lo + width;
        }
        assert_eq!(LatencyHistogram::index(u64::MAX), HIST_BUCKETS - 1);
    }

    #[test]
    fn histogram_merge_adds_counts() {
        let mut a = LatencyHistogram::default();
        a.record(10.0, 5);
        let mut b = LatencyHistogram::default();
        b.record(1000.0, 5);
        a.merge(&b);
        assert_eq!(a.count(), 10);
        assert!(a.p99() > 500.0);
    }

    #[test]
    fn closed_loop_pool_serves_and_reports() {
        let router: Router<u32, SerializedDag<u32>> = Router::new(
            base_fib(),
            RouterConfig {
                publish_every: None,
                ..RouterConfig::default()
            },
        );
        let pool = Forwarder::new();
        let config = ForwarderConfig {
            threads: 2,
            batch: 64,
            duration: Duration::from_millis(40),
            pacing: PacingMode::Closed,
        };
        let reports = pool.run(router.snap_cell(), &config, |worker| {
            let mut x = 0x9E37_79B9u32.wrapping_mul(worker as u32 + 1);
            move |buf: &mut Vec<u32>, n: usize| {
                buf.clear();
                for _ in 0..n {
                    x = x.wrapping_mul(0x0101_6B55).wrapping_add(1);
                    buf.push(x);
                }
            }
        });
        assert_eq!(reports.len(), 2);
        for r in &reports {
            assert!(r.packets > 0, "worker {} did nothing", r.worker);
            assert_eq!(r.drops, 0, "closed loop never drops");
            assert_eq!(r.matched, r.packets, "default route matches all");
            assert!(!r.epoch_regressed);
            assert!(r.hist.count() == r.packets);
            assert!(r.mlookups_per_s() > 0.0);
            assert!(r.hist.p99() >= r.hist.p50());
        }
    }

    #[test]
    fn sampled_pool_feeds_a_hot_publish() {
        let mut router: Router<u32, SerializedDag<u32>> = Router::new(
            base_fib(),
            RouterConfig {
                publish_every: None,
                ..RouterConfig::default()
            },
        );
        let pool = Forwarder::new();
        let config = ForwarderConfig {
            threads: 2,
            batch: 64,
            duration: Duration::from_millis(30),
            pacing: PacingMode::Closed,
        };
        let heat = fib_workload::HeatMap::new(config.threads, 24, 4096);
        let reports = pool.run_sampled(
            router.snap_cell(),
            &config,
            |worker| {
                let mut x = 0x9E37_79B9u32.wrapping_mul(worker as u32 + 1);
                move |buf: &mut Vec<u32>, n: usize| {
                    buf.clear();
                    for _ in 0..n {
                        x = x.wrapping_mul(0x0101_6B55).wrapping_add(1);
                        // Concentrate on 10.64/10 so hot blocks emerge.
                        buf.push(0x0A40_0000 | (x & 0x003F_FFFF));
                    }
                }
            },
            &heat,
        );
        for r in &reports {
            assert!(r.packets > 0, "worker {} did nothing", r.worker);
            assert!(
                r.heat_samples.abs_diff(r.packets / HEAT_SAMPLE as u64) <= 1,
                "worker {}: {} samples of {} packets is not 1 in {HEAT_SAMPLE}",
                r.worker,
                r.heat_samples,
                r.packets
            );
        }
        let samples: u64 = reports.iter().map(|r| r.heat_samples).sum();
        let merged = heat.merged();
        assert_eq!(
            merged.total() + merged.missed(),
            samples,
            "every sample reached a sketch (or its missed counter)"
        );
        let (snap, summary, stats) = router.publish_hot(&heat, &fib_core::HotConfig::for_width(32));
        assert_eq!(summary.total() + summary.missed(), samples);
        assert!(stats.promoted > 0, "concentrated traffic pinned blocks");
        let slab = snap.hot_slab().expect("hot publish attaches the slab");
        assert!(slab.occupied() > 0);
        // The hot snapshot keeps answering exactly like the control FIB.
        for i in 0..2048u32 {
            let addr = 0x0A40_0000 | i.wrapping_mul(0x9E37);
            assert_eq!(snap.lookup(addr), router.control().lookup(addr));
        }
    }

    #[test]
    fn sampler_takes_one_address_per_window_for_any_batch_size() {
        for batch in [1usize, 7, 63, 64, 65, 100, 256, 1000] {
            let mut sampler = HeatSampler::default();
            let (mut seen, mut taken) = (0u64, Vec::new());
            for b in 0..500u64 {
                let addrs: Vec<u64> = (seen..seen + batch as u64).collect();
                let before = taken.len() as u64;
                let n = sampler.sample(&addrs, b, |g| taken.push(g));
                seen += batch as u64;
                assert_eq!(n, taken.len() as u64 - before, "the count is what ran");
                assert!(
                    (taken.len() as u64).abs_diff(seen / HEAT_SAMPLE as u64) <= 1,
                    "batch {batch}: {} samples after {seen} addresses",
                    taken.len()
                );
            }
            // Exactly one sample in each complete window of the stream.
            let windows: Vec<u64> = taken.iter().map(|g| g / HEAT_SAMPLE as u64).collect();
            assert!(
                windows.windows(2).all(|w| w[1] == w[0] + 1),
                "batch {batch}"
            );
            assert_eq!(windows[0], 0);
        }
    }

    #[test]
    fn sampling_phase_rotates_across_batches() {
        // The default batch of 256 over a source that repeats 64 distinct
        // /24 blocks in order: a fixed in-window offset would only ever
        // see one block (and any fixed set of batch positions at most 4);
        // the rotating one sees all 64 within 64 batches.
        let router: Router<u32, SerializedDag<u32>> = Router::new(
            base_fib(),
            RouterConfig {
                publish_every: None,
                ..RouterConfig::default()
            },
        );
        let pool = Forwarder::new();
        let config = ForwarderConfig {
            duration: Duration::from_secs(60),
            ..ForwarderConfig::default()
        };
        assert_eq!(config.batch % HEAT_SAMPLE, 0);
        let heat = fib_workload::HeatMap::new(1, 24, 4096);
        let reports = pool.run_sampled(
            router.snap_cell(),
            &config,
            |_| {
                let (mut next, mut batches, pool) = (0u32, 0, &pool);
                move |buf: &mut Vec<u32>, n: usize| {
                    buf.clear();
                    for _ in 0..n {
                        buf.push(0x0A40_0000 | (next % 64) << 8);
                        next += 1;
                    }
                    batches += 1;
                    if batches == 64 {
                        pool.stop();
                    }
                }
            },
            &heat,
        );
        assert_eq!(reports[0].batches, 64);
        assert_eq!(reports[0].heat_samples, 64 * 256 / HEAT_SAMPLE as u64);
        let merged = heat.merged();
        assert_eq!(merged.entries().len(), 64, "every block was sampled");
        assert!(merged.entries().iter().all(|&(_, count)| count == 4));
    }

    #[test]
    fn open_loop_pacing_drops_when_oversubscribed() {
        let router: Router<u32, SerializedDag<u32>> = Router::new(
            base_fib(),
            RouterConfig {
                publish_every: None,
                ..RouterConfig::default()
            },
        );
        let pool = Forwarder::new();
        // An absurd offered load with a tiny queue: drops must appear,
        // and accounting must stay consistent (arrivals ≈ served+dropped).
        let config = ForwarderConfig {
            threads: 1,
            batch: 32,
            duration: Duration::from_millis(30),
            pacing: PacingMode::Open {
                rate_pps: 2_000_000_000,
                queue: 64,
            },
        };
        let reports = pool.run(router.snap_cell(), &config, |_| {
            let mut x = 1u32;
            move |buf: &mut Vec<u32>, n: usize| {
                buf.clear();
                for _ in 0..n {
                    x = x.wrapping_mul(0x0101_6B55).wrapping_add(1);
                    buf.push(x);
                }
            }
        });
        let r = &reports[0];
        assert!(r.drops > 0, "2 Gpps into one core must drop");
        assert!(r.packets > 0);
    }
}
