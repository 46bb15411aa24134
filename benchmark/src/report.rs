//! What one workload run produced, and how it is printed: a table for
//! people, and the one-line JSON object the driver reads.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::registry::{self, MetricDef, END_TO_END, PER_LAYER};
use crate::trace::Span;

/// The result of one workload run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Workload name.
    pub workload: String,
    /// The `--seed` it ran with.
    pub seed: u64,
    /// Smoke-scale run (`--quick`): not a basis for any claim.
    pub quick: bool,
    /// Metric values by declared name.
    pub values: BTreeMap<&'static str, f64>,
    /// Sample counts behind the percentile metrics, by metric name.
    pub samples: BTreeMap<&'static str, u64>,
    /// Lookup rate of every slice of a `serve-*` untraced pass
    /// (`lookup_mlps` is the best of them, see `plan::best`); empty where
    /// a control thread ran beside the forwarding thread.
    pub rate_slices: Vec<f64>,
    /// Lookup rate over the whole untraced pass, neighbours included
    /// (`lookup_mlps` itself beside a control thread).
    pub mean_mlps: f64,
    /// p99 of every slice of the latency pass (`lookup_ns_p99` is the
    /// best of them).
    pub latency_slices: Vec<f64>,
    /// Announce → visible time of every untraced burst, in order.
    pub burst_ms: Vec<f64>,
    /// Oracle-checked lookups + visible checks + updates.
    pub attempted: u64,
    /// Oracle mismatches, drops, epoch regressions, failed visible
    /// checks, updates lost across the warm restart, unhealthy spool.
    pub failed: u64,
    /// One-line findings worth reading next to the numbers.
    pub notes: Vec<String>,
    /// The traced pass's spans (empty when tracing was off).
    pub spans: Vec<Span>,
}

impl Outcome {
    /// An empty outcome for `workload`.
    #[must_use]
    pub fn new(workload: &str, seed: u64, quick: bool) -> Self {
        Self {
            workload: workload.to_string(),
            seed,
            quick,
            ..Self::default()
        }
    }

    /// Records a metric value.
    ///
    /// # Panics
    /// Panics on a name the registry does not declare — an undeclared
    /// metric is a bug in the benchmark, not a result.
    pub fn set(&mut self, name: &str, value: f64) {
        let def = registry::metric(name).unwrap_or_else(|| panic!("undeclared metric '{name}'"));
        self.values
            .insert(def.name, if value.is_finite() { value } else { 0.0 });
    }

    /// Records a percentile metric together with its sample count.
    pub fn set_sampled(&mut self, name: &str, value: f64, samples: u64) {
        self.set(name, value);
        let def = registry::metric(name).expect("checked by set");
        self.samples.insert(def.name, samples);
    }

    /// Counts checked operations and how many of them failed.
    pub fn check(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// `failed / attempted`.
    #[must_use]
    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// A recorded value (0 when the workload does not engage the metric).
    #[must_use]
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// The line the driver reads: `correct`, `attempted`, `failed` and
    /// `metrics`, the latter holding every metric of the chosen tables.
    #[must_use]
    pub fn result_line(&self, end_to_end: bool, per_layer: bool) -> String {
        let mut metrics = Vec::new();
        let mut emit = |defs: &[MetricDef]| {
            for def in defs {
                metrics.push(format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    def.name,
                    self.get(def.name),
                    def.unit
                ));
            }
        };
        if end_to_end {
            emit(END_TO_END);
        }
        if per_layer {
            emit(PER_LAYER);
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    /// The `--out` document: the result line's content plus what a person
    /// comparing runs wants beside it.
    #[must_use]
    pub fn document(&self, end_to_end: bool, per_layer: bool) -> String {
        let list = |values: &[f64]| {
            values
                .iter()
                .map(f64::to_string)
                .collect::<Vec<_>>()
                .join(", ")
        };
        let samples: Vec<String> = self
            .samples
            .iter()
            .map(|(name, n)| format!("\"{name}\": {n}"))
            .collect();
        let notes: Vec<String> = self
            .notes
            .iter()
            .map(|n| format!("\"{}\"", n.replace('\\', "\\\\").replace('"', "\\\"")))
            .collect();
        format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"quick\": {}, \"error_rate\": {}, \"lookup_mlps_mean\": {}, \"lookup_mlps_slices\": [{}], \"lookup_ns_p99_slices\": [{}], \"burst_ms\": [{}], \"samples\": {{{}}}, \"notes\": [{}], \"result\": {}}}\n",
            self.workload,
            self.seed,
            self.quick,
            self.error_rate(),
            self.mean_mlps,
            list(&self.rate_slices),
            list(&self.latency_slices),
            list(&self.burst_ms),
            samples.join(", "),
            notes.join(", "),
            self.result_line(end_to_end, per_layer)
        )
    }

    /// The table for people.
    #[must_use]
    pub fn table(&self, end_to_end: bool, per_layer: bool) -> String {
        let mut text = String::new();
        let _ = writeln!(
            text,
            "== {} (seed {}{}) ==",
            self.workload,
            self.seed,
            if self.quick {
                ", QUICK: smoke only"
            } else {
                ""
            }
        );
        let mut section = |title: &str, defs: &[MetricDef]| {
            let _ = writeln!(text, "-- {title} --");
            for def in defs {
                let Some(value) = self.values.get(def.name) else {
                    continue;
                };
                let bound = def
                    .bound
                    .map(|b| format!("  (bound {:.0} %)", b * 100.0))
                    .unwrap_or_default();
                let samples = self
                    .samples
                    .get(def.name)
                    .map(|n| format!("  [{n} samples]"))
                    .unwrap_or_default();
                let _ = writeln!(
                    text,
                    "{:<34} {:>16} {:<11}{}{}",
                    def.name,
                    format_value(*value),
                    def.unit,
                    bound,
                    samples
                );
            }
        };
        if end_to_end {
            section("end to end (tracing off)", END_TO_END);
        }
        if per_layer {
            section("per layer (traced pass + micro-measurements)", PER_LAYER);
        }
        if !self.rate_slices.is_empty() {
            let mut sorted = self.rate_slices.clone();
            sorted.sort_by(f64::total_cmp);
            let at = |q: f64| sorted[((sorted.len() - 1) as f64 * q).round() as usize];
            let _ = writeln!(
                text,
                "lookup rate over {} slices: min {:.2}  p25 {:.2}  p50 {:.2}  p75 {:.2}  max {:.2}; whole pass {:.2} Mlookups/s",
                sorted.len(),
                at(0.0),
                at(0.25),
                at(0.5),
                at(0.75),
                at(1.0),
                self.mean_mlps
            );
        }
        let _ = writeln!(
            text,
            "error_rate {} ({} failed / {} attempted)",
            self.error_rate(),
            self.failed,
            self.attempted
        );
        for note in &self.notes {
            let _ = writeln!(text, "note: {note}");
        }
        text
    }
}

fn format_value(value: f64) -> String {
    if value == value.trunc() && value.abs() < 1e15 {
        format!("{value:.0}")
    } else if value.abs() >= 100.0 {
        format!("{value:.1}")
    } else {
        format!("{value:.4}")
    }
}
