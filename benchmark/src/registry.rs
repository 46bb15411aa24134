//! The benchmark's declared surface: workloads, end-to-end metrics with
//! their regression bounds, and per-layer metrics. `BENCHMARK.json` at
//! the repo root is [`manifest_json`] verbatim (`tests/names.rs` pins
//! the two together), and every run emits exactly these names.

/// Which direction is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, bytes, ratios to a bound).
    Lower,
    /// Larger is better (rates).
    Higher,
}

/// One declared metric.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    /// Name as printed and as declared in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit string.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
    /// The value is a count or a size fixed by the seed alone: two runs
    /// with one seed must agree bit for bit.
    pub exact: bool,
}

/// One declared workload and the reason it exists.
#[derive(Clone, Copy, Debug)]
pub struct WorkloadDef {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// One line on what it stresses and what it bypasses.
    pub why: &'static str,
}

/// The six workloads, in `--all` order.
pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: "serve-uniform",
        why: "taz 1.0, vsdag, Forwarder::run, uniform ring: ~1-hop walks make per-batch runtime cost the largest share; deep-walk, slab and heat changes must not move it",
    },
    WorkloadDef {
        name: "serve-zipf-hot",
        why: "taz 1.0, heat-restrided vsdag + HotSlab via publish_hot, run_sampled, zipf ring: deep walks, slab probe and per-address heat recording all engaged, here and nowhere else",
    },
    WorkloadDef {
        name: "serve-compact",
        why: "taz 1.0, XBW-b succinct, bursty ring: rank/select does nearly all the work, so runtime overhead is invisible and size_over_entropy is the headline",
    },
    WorkloadDef {
        name: "churn-inplace",
        why: "taz 1.0, pDAG lambda 11, bursts of 1000 BGP updates + publish beside a reading thread, spool off: in-place update cost against lookup rate in one row",
    },
    WorkloadDef {
        name: "churn-spool",
        why: "as churn-inplace with bursts of 100 through a real-filesystem spool, ending in a warm restart: the durability layer does nearly all control-thread work",
    },
    WorkloadDef {
        name: "vrf-fleet",
        why: "16 taz-0.5 VRFs in one shared arena, mixed-VRF batches beside announce+recompile bursts: the only working set past L2 and the only rebuild-on-publish control plane",
    },
];

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
        exact: false,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        exact: false,
    }
}

const fn exact(mut def: MetricDef) -> MetricDef {
    def.exact = true;
    def
}

use Better::{Higher, Lower};

/// End-to-end metrics: measured with tracing off, printed by every
/// workload.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("lookup_mlps", "Mlookups/s", Higher, 0.25),
    exact(e2e("fib_bytes", "bytes", Lower, 0.02)),
    exact(e2e("size_over_entropy", "ratio", Lower, 0.02)),
    e2e("visible_ms_p50", "ms", Lower, 0.25),
];

/// Per-layer metrics: the traced run and the micro-measurements. A
/// metric a workload does not engage reads 0.
pub const PER_LAYER: &[MetricDef] = &[
    layer("workload.fill_ns", "ns", Lower),
    layer("workload.gen_ns", "ns", Lower),
    layer("snapcell.get_ns", "ns", Lower),
    layer("snapcell.refreshes", "count", Lower),
    exact(layer("hot.hit_rate", "ratio", Higher)),
    layer("hot.probe_ns", "ns", Lower),
    layer("hot.compile_ms", "ms", Lower),
    exact(layer("hot.coverage", "ratio", Higher)),
    layer("heat.record_ns", "ns", Lower),
    layer("heat.merge_ms", "ms", Lower),
    layer("engine.scalar_ns", "ns", Lower),
    layer("engine.batch_ns", "ns", Lower),
    layer("engine.stream_ns", "ns", Lower),
    layer("engine.compile_s", "s", Lower),
    exact(layer("engine.hops_mean", "hops", Lower)),
    exact(layer("engine.hops_max", "hops", Lower)),
    exact(layer("hwsim.lines_per_lookup", "lines", Lower)),
    exact(layer("hwsim.l1_miss", "misses", Lower)),
    exact(layer("hwsim.l2_miss", "misses", Lower)),
    exact(layer("hwsim.llc_miss", "misses", Lower)),
    layer("engine.binary-trie.stream_ns", "ns", Lower),
    exact(layer("engine.binary-trie.bytes", "bytes", Lower)),
    layer("engine.fib_trie.stream_ns", "ns", Lower),
    exact(layer("engine.fib_trie.bytes", "bytes", Lower)),
    layer("engine.xbw-succinct.stream_ns", "ns", Lower),
    exact(layer("engine.xbw-succinct.bytes", "bytes", Lower)),
    layer("engine.xbw-entropy.stream_ns", "ns", Lower),
    exact(layer("engine.xbw-entropy.bytes", "bytes", Lower)),
    layer("engine.pdag.stream_ns", "ns", Lower),
    exact(layer("engine.pdag.bytes", "bytes", Lower)),
    layer("engine.pdag-serialized.stream_ns", "ns", Lower),
    exact(layer("engine.pdag-serialized.bytes", "bytes", Lower)),
    layer("engine.multibit-dag.stream_ns", "ns", Lower),
    exact(layer("engine.multibit-dag.bytes", "bytes", Lower)),
    layer("engine.vsdag.stream_ns", "ns", Lower),
    exact(layer("engine.vsdag.bytes", "bytes", Lower)),
    layer("succinct.rank_ns", "ns", Lower),
    layer("succinct.select_ns", "ns", Lower),
    layer("succinct.access_ns", "ns", Lower),
    layer("runtime.wall_ns", "ns", Lower),
    layer("runtime.unattributed_ns", "ns", Lower),
    layer("runtime.span_cover", "ratio", Higher),
    layer("runtime.lookup_ns_p99", "ns", Lower),
    layer("trie.update_ns", "ns", Lower),
    layer("engine.update_ns", "ns", Lower),
    exact(layer("engine.degradation", "ratio", Lower)),
    layer("router.update_kops", "kupdates/s", Higher),
    layer("router.announce_us", "us", Lower),
    layer("router.publish_ms_p50", "ms", Lower),
    layer("router.publish_ms_p99", "ms", Lower),
    layer("router.publish_hot_ms", "ms", Lower),
    layer("router.visible_ms_p99", "ms", Lower),
    exact(layer("router.in_place", "count", Higher)),
    exact(layer("router.declined", "count", Lower)),
    exact(layer("router.rebuilds", "count", Lower)),
    exact(layer("router.epochs", "count", Lower)),
    exact(layer("router.spills", "count", Lower)),
    exact(layer("spoolfs.fsyncs_per_update", "count", Lower)),
    exact(layer("spoolfs.bytes_per_update", "bytes", Lower)),
    exact(layer("spoolfs.spill_bytes", "bytes", Lower)),
    exact(layer("spoolfs.renames", "count", Lower)),
    layer("spoolfs.sync_us_p50", "us", Lower),
    layer("spoolfs.write_us_p50", "us", Lower),
    layer("image.encode_ms", "ms", Lower),
    layer("image.load_ms", "ms", Lower),
    exact(layer("image.bytes", "bytes", Lower)),
    layer("router.warm_restart_ms", "ms", Lower),
    layer("vrf.compile_s", "s", Lower),
    exact(layer("vrf.sharing_ratio", "ratio", Higher)),
    exact(layer("vrf.saved_pct", "%", Higher)),
    layer("vrf.republish_s", "s", Lower),
    layer("trace.overhead_pct", "%", Lower),
];

/// The engine labels of the `engine.<e>.*` rows, in registry order.
pub const MATRIX_ENGINES: [&str; 8] = [
    "binary-trie",
    "fib_trie",
    "xbw-succinct",
    "xbw-entropy",
    "pdag",
    "pdag-serialized",
    "multibit-dag",
    "vsdag",
];

/// How long one driver run measures (`run_seconds` in the manifest):
/// the untraced pass of an end-to-end run.
pub const RUN_SECONDS: u32 = 12;

/// Looks a metric up by name in either table.
#[must_use]
pub fn metric(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|def| def.name == name)
}

/// Looks a workload up by name.
#[must_use]
pub fn workload(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The exact text of the root `BENCHMARK.json`.
#[must_use]
pub fn manifest_json() -> String {
    let better = |b: Better| match b {
        Lower => "lower",
        Higher => "higher",
    };
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                better(m.better),
                m.bound.expect("end-to-end metrics carry a bound")
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                better(m.better)
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}
