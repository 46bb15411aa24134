//! The measuring phases every workload goes through once it is set up:
//! untraced windows, the latency pass, the traced pass, and the bursts
//! that measure update cost. What differs between workloads — the data
//! plane, the control plane, whether a control thread runs beside the
//! forwarding thread — comes in through [`Phases`].

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fib_workload::updates::UpdateOp;

use crate::hist::LogLinearHist;
use crate::loops::{
    burst, forward, Control, Forwarded, HeatHook, Latency, Observer, Plane, RingCursor, Stop,
    Untimed, BATCH,
};
use crate::micro::timed_calls;
use crate::plan::{best, median, Plan};
use crate::report::Outcome;
use crate::trace::{total, Span, SpanKind, Tracer};

/// The untraced pass served by the product's own `Forwarder`.
#[derive(Clone, Debug)]
pub struct ProductPass {
    /// Lookup rate of every slice of the worker's run, in Mlookups/s.
    pub slices: Vec<f64>,
    /// `WorkerReport.packets / elapsed` over the whole run.
    pub mean_mlps: f64,
    /// Drops plus an epoch regression, if any.
    pub failed: u64,
}

/// Cycles through the pre-generated update stream one burst at a time.
#[derive(Clone, Debug)]
pub struct BurstFeed<'u> {
    ops: &'u [UpdateOp<u32>],
    size: usize,
    pos: usize,
    number: usize,
}

impl<'u> BurstFeed<'u> {
    /// Bursts of `size` updates from `ops`.
    ///
    /// # Panics
    /// Panics if the stream is shorter than one burst.
    #[must_use]
    pub fn new(ops: &'u [UpdateOp<u32>], size: usize) -> Self {
        assert!(size > 0 && ops.len() >= size, "update stream too short");
        Self {
            ops,
            size,
            pos: 0,
            number: 0,
        }
    }

    /// The next burst and its number.
    pub fn next_burst(&mut self) -> (usize, &'u [UpdateOp<u32>]) {
        if self.pos + self.size > self.ops.len() {
            self.pos = 0;
        }
        let ops = &self.ops[self.pos..self.pos + self.size];
        self.pos += self.size;
        self.number += 1;
        (self.number - 1, ops)
    }
}

/// What a workload hands the phases.
pub struct Phases<'a, P: Plane, C: Control> {
    /// Durations and which metric tables to fill.
    pub plan: &'a Plan,
    /// A fresh forwarding-thread reader.
    pub new_plane: &'a dyn Fn() -> P,
    /// The pre-generated key ring.
    pub ring: &'a Arc<Vec<P::Key>>,
    /// Per-batch heat recording, where the workload samples traffic.
    pub heat: Option<HeatHook<'a, P::Key>>,
    /// The control plane bursts are driven through.
    pub control: C,
    /// The update stream, cut into bursts.
    pub feed: BurstFeed<'a>,
    /// A control thread issues bursts beside the forwarding thread (the
    /// updating workloads); otherwise bursts run after serving, alone.
    pub concurrent: bool,
    /// Serves the untraced pass through the product's `Forwarder` (the
    /// `serve-*` workloads); `None` uses the benchmark's own loop.
    pub product_pass: Option<&'a dyn Fn(Duration) -> ProductPass>,
    /// Bursts in the fixed pass the exact counters are read around.
    pub fixed_bursts: usize,
    /// One compile of the workload's engine from its oracle. A per-layer
    /// run times it in four rounds, before and after each of its passes,
    /// with nothing else running, so that one slow stretch of the host
    /// cannot cover every call (`engine.compile_s` is the best call).
    pub compile: &'a dyn Fn(),
}

/// Time one round of compile calls may spend beyond its first call.
const COMPILE_ROUND: Duration = Duration::from_millis(300);

/// Pass numbers: a pass's number places its cursor on the ring.
const UNTRACED_PASS: usize = 0;
const LATENCY_PASS: usize = 1;
const TRACED_PASS: usize = 2;

/// Fewest bursts a `serve-*` run issues after serving.
const SERVE_BURSTS: usize = 5;

/// One burst as the control thread saw it.
#[derive(Clone, Copy, Debug)]
struct BurstSample {
    updates: u64,
    /// First `announce()` → `publish()` returned and a fresh reader
    /// serves the burst; the control loop issues bursts back to back, so
    /// this is also the burst's whole duration.
    visible_ms: f64,
}

/// Updates of `samples` over the time their bursts took, publishes
/// included, in thousands per second.
fn update_kops<'s>(samples: impl Iterator<Item = &'s BurstSample> + Clone) -> f64 {
    let updates: u64 = samples.clone().map(|b| b.updates).sum();
    updates as f64 / samples.map(|b| b.visible_ms).sum::<f64>()
}

impl<P, C> Phases<'_, P, C>
where
    P: Plane + Send,
    C: Control,
{
    /// One round of compile calls, folded into `(best seconds, calls)`.
    fn compile_round(&self, so_far: &mut (f64, usize)) {
        if self.plan.per_layer {
            let (secs, calls) = timed_calls(1, COMPILE_ROUND, self.compile);
            *so_far = (so_far.0.min(secs), so_far.1 + calls);
        }
    }

    /// Length of the slices the traced pass is cut into, in nanoseconds.
    /// Beside a control thread the whole pass is one slice: a shorter one
    /// would escape the publish and the reader's refresh after it.
    fn slice_ns(&self) -> u64 {
        if self.concurrent {
            u64::MAX
        } else {
            self.plan.slice.as_nanos() as u64
        }
    }

    fn cursor(&self, pass: usize) -> RingCursor<P::Key> {
        // Each pass starts an eighth of the ring further on, so passes do
        // not replay one another's keys in lockstep.
        RingCursor::new(Arc::clone(self.ring), pass * (self.ring.len() / 8))
    }

    /// Runs `count` bursts on this thread; returns the updates applied.
    fn bursts<O: Observer>(
        &mut self,
        count: usize,
        obs: &mut O,
        visible: &mut Vec<BurstSample>,
        out: &mut Outcome,
    ) -> u64 {
        let mut updates = 0u64;
        for _ in 0..count {
            let (number, ops) = self.feed.next_burst();
            let (ms, ok) = burst(&mut self.control, number, ops, obs);
            visible.push(BurstSample {
                updates: ops.len() as u64,
                visible_ms: ms,
            });
            updates += ops.len() as u64;
            out.check(ops.len() as u64 + 1, u64::from(!ok));
        }
        updates
    }

    /// One pass with the control thread issuing bursts for `length`
    /// beside the forwarding loop; the forwarding loop runs until the
    /// control side's last burst has published.
    fn churn<FO: Observer + Send, CO: Observer>(
        &mut self,
        pass: usize,
        length: Duration,
        forward_obs: &mut FO,
        control_obs: &mut CO,
        visible: &mut Vec<BurstSample>,
        out: &mut Outcome,
    ) -> Forwarded {
        let mut plane = (self.new_plane)();
        let mut ring = self.cursor(pass);
        let heat = self.heat;
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let forwarding = scope
                .spawn(|| forward(&mut plane, &mut ring, heat, Stop::Flag(&stop), forward_obs));
            let started = Instant::now();
            while started.elapsed() < length && control_obs.has_room() {
                self.bursts(1, control_obs, visible, out);
            }
            // ordering: Relaxed — a pure stop flag; the join below is the
            // synchronization point.
            stop.store(true, Ordering::Relaxed);
            let forwarded = forwarding.join().expect("forwarding thread panicked");
            out.check(0, u64::from(forwarded.epoch_regressed));
            forwarded
        })
    }

    /// The untraced pass: the product's `Forwarder` cut into slices, or
    /// the benchmark's loop, no clock in it, with the control thread
    /// issuing bursts beside it.
    fn untraced(&mut self, visible: &mut Vec<BurstSample>, out: &mut Outcome) {
        let length = self.plan.untraced();
        if let Some(serve) = self.product_pass {
            let pass = serve(length);
            out.check(0, pass.failed);
            out.mean_mlps = pass.mean_mlps;
            out.rate_slices = pass.slices;
        } else {
            let forwarded = self.churn(
                UNTRACED_PASS,
                length,
                &mut Untimed,
                &mut Untimed,
                visible,
                out,
            );
            out.mean_mlps = forwarded.mlps();
        }
    }

    /// Runs every phase the plan asks for and records their metrics.
    pub fn run(mut self, out: &mut Outcome) {
        let plan = self.plan;
        let origin = Instant::now();
        let mut control_trace = Tracer::new(origin, 1 << 31, plan.span_capacity.min(1 << 16));
        // Bursts of the untraced pass (and, on `serve-*`, those after
        // serving), and bursts that ran under tracing or in the fixed pass.
        let mut visible = Vec::new();
        let mut visible_traced = Vec::new();
        let mut compile = (f64::INFINITY, 0);

        // The fixed pass of the updating workloads comes first, from the
        // state set-up left, so its counts depend on the seed alone.
        if self.concurrent && plan.per_layer {
            self.fixed_pass(&mut control_trace, &mut visible_traced, out);
        }

        self.compile_round(&mut compile);
        self.untraced(&mut visible, out);
        self.compile_round(&mut compile);
        // The lookup rate: the best slice of a `serve-*` pass; beside a
        // control thread the whole pass, every publish and refresh in it.
        let (untraced_mlps, samples) = if out.rate_slices.is_empty() {
            (out.mean_mlps, visible.len())
        } else {
            (best(&out.rate_slices, true), out.rate_slices.len())
        };
        if plan.end_to_end {
            out.set_sampled("lookup_mlps", untraced_mlps, samples as u64);
        }

        if plan.per_layer {
            let mut latency = Latency::new(if self.concurrent {
                u64::MAX
            } else {
                plan.latency_slice
            });
            if self.concurrent {
                self.churn(
                    LATENCY_PASS,
                    plan.window,
                    &mut latency,
                    &mut Untimed,
                    &mut visible_traced,
                    out,
                );
            } else {
                let mut plane = (self.new_plane)();
                let mut ring = self.cursor(LATENCY_PASS);
                let served = forward(
                    &mut plane,
                    &mut ring,
                    self.heat,
                    Stop::After(plan.window),
                    &mut latency,
                );
                out.check(0, u64::from(served.epoch_regressed));
            }
            let batches = latency.batches;
            out.latency_slices = latency.slices();
            if !out.latency_slices.is_empty() {
                out.set_sampled(
                    "runtime.lookup_ns_p99",
                    best(&out.latency_slices, false),
                    batches,
                );
            }
            self.compile_round(&mut compile);
        }

        if plan.per_layer {
            let mut forward_trace = Tracer::new(origin, 0, plan.span_capacity);
            let traced = if self.concurrent {
                self.churn(
                    TRACED_PASS,
                    plan.window,
                    &mut forward_trace,
                    &mut control_trace,
                    &mut visible_traced,
                    out,
                )
            } else {
                let mut plane = (self.new_plane)();
                let mut ring = self.cursor(TRACED_PASS);
                forward(
                    &mut plane,
                    &mut ring,
                    self.heat,
                    Stop::After(plan.window),
                    &mut forward_trace,
                )
            };
            out.check(0, u64::from(traced.epoch_regressed));
            record_forward_spans(
                forward_trace.spans(),
                self.slice_ns(),
                &traced,
                untraced_mlps,
                out,
            );
            out.spans = forward_trace.into_spans();
            self.compile_round(&mut compile);
            out.set_sampled("engine.compile_s", compile.0, compile.1 as u64);
        }

        // The serving workloads pay for updates after serving, alone:
        // bursts for a window (five at least) for the end-to-end figure,
        // the fixed pass for the exact counts.
        if !self.concurrent {
            if plan.end_to_end {
                let started = Instant::now();
                while visible.len() < SERVE_BURSTS || started.elapsed() < plan.window {
                    self.bursts(1, &mut Untimed, &mut visible, out);
                }
            }
            if plan.per_layer {
                self.fixed_pass(&mut control_trace, &mut visible_traced, out);
            }
        }

        if plan.end_to_end {
            out.burst_ms = visible.iter().map(|b| b.visible_ms).collect();
            out.set_sampled(
                "visible_ms_p50",
                median(&out.burst_ms),
                visible.len() as u64,
            );
        }
        if plan.per_layer {
            let every = visible.iter().chain(&visible_traced);
            let mut all = LogLinearHist::new(1e3);
            for sample in every.clone() {
                all.record(sample.visible_ms);
            }
            out.set_sampled("router.update_kops", update_kops(every), all.count());
            record_control_spans(control_trace.spans(), self.feed.size, &all, out);
            out.spans.extend_from_slice(control_trace.spans());
        }
    }

    /// A fixed number of bursts, alone on this thread, with the exact
    /// counters read before and after.
    fn fixed_pass(
        &mut self,
        trace: &mut Tracer,
        visible: &mut Vec<BurstSample>,
        out: &mut Outcome,
    ) {
        let before = self.control.counters();
        let updates = self.bursts(self.fixed_bursts, trace, visible, out);
        let after = self.control.counters();
        let per_update = |a: u64, b: u64| (a - b) as f64 / updates.max(1) as f64;
        out.set("router.in_place", (after.in_place - before.in_place) as f64);
        out.set("router.declined", (after.declined - before.declined) as f64);
        out.set("router.rebuilds", (after.rebuilds - before.rebuilds) as f64);
        out.set("router.epochs", (after.epochs - before.epochs) as f64);
        out.set("router.spills", (after.spills - before.spills) as f64);
        out.set(
            "spoolfs.fsyncs_per_update",
            per_update(after.fsyncs, before.fsyncs),
        );
        out.set(
            "spoolfs.bytes_per_update",
            per_update(after.journal_bytes, before.journal_bytes),
        );
        out.set(
            "spoolfs.spill_bytes",
            (after.spill_bytes - before.spill_bytes) as f64,
        );
        out.set("spoolfs.renames", (after.renames - before.renames) as f64);
    }
}

/// Per-lookup nanoseconds of each child span kind, the sum of the four,
/// and the lookup rate, for every slice of the traced pass.
#[derive(Debug, Default)]
struct SliceShares {
    kinds: [Vec<f64>; 4],
    children: Vec<f64>,
    mlps: Vec<f64>,
}

const CHILD_KINDS: [SpanKind; 4] = [
    SpanKind::Fill,
    SpanKind::Get,
    SpanKind::Lookup,
    SpanKind::Heat,
];

impl SliceShares {
    fn push(&mut self, sums: [u64; 4], batches: u64, wall_ns: u64) {
        let lookups = (batches * BATCH as u64) as f64;
        for (kind, sum) in self.kinds.iter_mut().zip(sums) {
            kind.push(sum as f64 / lookups);
        }
        self.children
            .push(sums.iter().sum::<u64>() as f64 / lookups);
        self.mlps.push(lookups * 1e3 / wall_ns.max(1) as f64);
    }
}

/// Cuts the forwarding thread's spans into slices of `slice_ns` (by the
/// start of the enclosing batch).
fn slice_shares(spans: &[Span], slice_ns: u64) -> SliceShares {
    let mut shares = SliceShares::default();
    let mut sums = [0u64; 4];
    let (mut batches, mut slice_start, mut last_end) = (0u64, 0u64, 0u64);
    for span in spans {
        if span.kind == SpanKind::Batch {
            if batches == 0 {
                slice_start = span.start_ns;
            } else if span.start_ns - slice_start >= slice_ns {
                shares.push(sums, batches, last_end - slice_start);
                (sums, batches, slice_start) = ([0; 4], 0, span.start_ns);
            }
            batches += 1;
            last_end = span.end_ns;
        } else if let Some(i) = CHILD_KINDS.iter().position(|&k| k == span.kind) {
            sums[i] += span.ns();
        }
    }
    // The last, partial slice counts only when it is all there is.
    if shares.children.is_empty() && batches > 0 {
        shares.push(sums, batches, last_end - slice_start);
    }
    shares
}

/// The forwarding thread's spans: per-lookup shares, how much of the
/// traced wall time they cover, and what tracing cost.
fn record_forward_spans(
    spans: &[Span],
    slice_ns: u64,
    traced: &Forwarded,
    untraced_mlps: f64,
    out: &mut Outcome,
) {
    let children: u64 = CHILD_KINDS.iter().map(|&kind| total(spans, kind).0).sum();
    // From the first batch's start to the last one's end: what lies
    // between batches — the tracer's own pushes — is wall time no span
    // covers.
    let wall = match (spans.first(), spans.last()) {
        (Some(first), Some(last)) => last.end_ns.saturating_sub(first.start_ns).max(1),
        _ => 1,
    };
    let shares = slice_shares(spans, slice_ns);
    if shares.children.is_empty() {
        out.notes.push("traced pass recorded no batch".to_string());
        return;
    }
    let share = |i: usize| best(&shares.kinds[i], false);
    let wall_ns = 1e3 / untraced_mlps;
    let traced_mlps = best(&shares.mlps, true);
    out.set("workload.fill_ns", share(0));
    out.set("snapcell.refreshes", traced.refreshes as f64);
    out.set("runtime.wall_ns", wall_ns);
    out.set(
        "runtime.unattributed_ns",
        wall_ns - best(&shares.children, false),
    );
    out.set("runtime.span_cover", children as f64 / wall as f64);
    out.set(
        "trace.overhead_pct",
        (untraced_mlps - traced_mlps) / untraced_mlps * 100.0,
    );
    out.notes.push(format!(
        "traced pass: {} batches in {} slices, spans per lookup: fill {:.3} ns, get {:.3} ns, lookup {:.3} ns, heat {:.3} ns",
        traced.batches,
        shares.children.len(),
        share(0),
        share(1),
        share(2),
        share(3),
    ));
}

/// The control thread's spans: per-update announce cost and the publish
/// distribution of every traced burst.
fn record_control_spans(
    spans: &[Span],
    burst_size: usize,
    visible: &LogLinearHist,
    out: &mut Outcome,
) {
    let (announce_ns, bursts) = total(spans, SpanKind::Announce);
    let mut publish = LogLinearHist::new(1e3);
    for span in spans.iter().filter(|s| s.kind == SpanKind::Publish) {
        publish.record(span.ns() as f64 / 1e6);
    }
    out.set(
        "router.announce_us",
        announce_ns as f64 / 1e3 / (bursts.max(1) * burst_size as u64) as f64,
    );
    out.set_sampled(
        "router.publish_ms_p50",
        publish.quantile(0.5),
        publish.count(),
    );
    out.set_sampled(
        "router.publish_ms_p99",
        publish.quantile(0.99),
        publish.count(),
    );
    out.set_sampled(
        "router.visible_ms_p99",
        visible.quantile(0.99),
        visible.count(),
    );
}

/// The share of a batch the micro-measured layers predict, against what
/// the traced spans saw; pushed as a note, with the verdict on the 10 %
/// agreement the attribution is held to.
pub fn note_agreement(out: &mut Outcome, predicted_ns: f64) {
    let spans_ns = out.get("runtime.wall_ns") - out.get("runtime.unattributed_ns");
    let gap = (spans_ns - predicted_ns).abs() / spans_ns.max(1e-9) * 100.0;
    out.notes.push(format!(
        "attribution: spans sum to {spans_ns:.3} ns/lookup, micro-measured layers predict {predicted_ns:.3} ns ({gap:.1} % apart, {} 10 %); span_cover {:.3}",
        if gap <= 10.0 { "within" } else { "OUTSIDE" },
        out.get("runtime.span_cover"),
    ));
}
