//! What a workload run hands back: call counts, the metrics printed
//! for people under the workload's own names, and the metrics of the
//! final JSON line.

use crate::measure;
use crate::trace::Tracer;
use std::collections::BTreeMap;

/// Gated end-to-end metrics, printed by every workload's untraced run
/// (name, unit). `BENCHMARK.json` lists the same names and units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("call_ms.p50", "ms"),
    ("call_ms.tail", "ms"),
    ("host_throughput", "items/s"),
    ("peak_rss_mb", "MB"),
    ("sim_ips", "inf/s"),
    ("sim_edp", "nJ.s"),
];

/// Per-layer metrics, printed by every workload's traced run (name,
/// unit). A layer the workload does not exercise reads 0.
/// `BENCHMARK.json` lists the same names and units.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.decompose.ms", "ms"),
    ("core.validity.ms", "ms"),
    ("core.partition.ms", "ms"),
    ("core.plan.ms", "ms"),
    ("core.estimate.ms", "ms"),
    ("core.scheduler.ms", "ms"),
    ("sim.run.ms", "ms"),
    ("sim.host_us_per_round", "us"),
    ("sim.instructions_per_host_s", "1/s"),
    ("dram.replay.ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("core.validity.valid_fraction", "ratio"),
    ("core.ga.generations", "count"),
    ("core.ga.evaluations", "count"),
    ("core.memo.entries", "count"),
    ("core.memo.segment_entries", "count"),
    ("core.memo.hit_ratio", "ratio"),
    ("core.mutation.success_ratio", "ratio"),
    ("core.estimate.over_sim", "ratio"),
    ("core.scheduler.instructions", "count"),
    ("core.scheduler.weight_writes", "count"),
    ("core.scheduler.weight_write_bits", "bits"),
    ("dram.requests", "count"),
    ("dram.row_hit_ratio", "ratio"),
    ("dram.utilization", "ratio"),
    ("serve.rss_kb_per_request", "KB"),
    ("serve.growth_16k", "ratio"),
    ("serve.requests", "count"),
    ("serve.dropped", "count"),
    ("serve.rounds", "count"),
    ("serve.batch_mean", "req/round"),
    ("serve.queue_ms.mean", "ms-sim"),
    ("interconnect.bytes", "bytes"),
    ("interconnect.busy_ratio", "ratio"),
    ("interconnect.wait_ms", "ms-sim"),
    ("chips.handoff_wait_ms", "ms-sim"),
    ("core.compile.share", "ratio"),
    ("core.decompose.share", "ratio"),
    ("core.validity.share", "ratio"),
    ("core.partition.share", "ratio"),
    ("core.plan.share", "ratio"),
    ("core.estimate.share", "ratio"),
    ("core.scheduler.share", "ratio"),
    ("sim.run.share", "ratio"),
    ("serve.arrivals.share", "ratio"),
    ("sim.serve.share", "ratio"),
    ("dram.share", "ratio"),
];

/// Span name of the replay-off probe runs. Probes measure the DRAM
/// replay's cost; they are left out of the traced total and the shares.
pub const PROBE: &str = "dram.noreplay";

/// One printed metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as the workload's documentation uses it.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// `true` for quantities of the simulated system, `false` for host
    /// measurements.
    pub simulated: bool,
    /// Free-form context (percentile and sample size, base of a ratio).
    pub note: String,
}

/// The result of one benchmark run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Calls attempted.
    pub attempted: u64,
    /// Calls that returned an error or failed an output check.
    pub failed: u64,
    /// Metrics printed for people, by the workload's own names.
    pub shown: Vec<Metric>,
    /// Values of the final JSON line, keyed by [`END_TO_END`] or
    /// [`PER_LAYER`] name.
    pub json: BTreeMap<String, f64>,
    /// The traced run's spans as a Chrome trace-event document.
    pub spans: Option<String>,
}

impl Outcome {
    /// Counts one attempted call whose outcome is `result`; a failure
    /// is reported on stderr and counted.
    pub fn attempt<T>(&mut self, what: &str, result: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(value) => Some(value),
            Err(e) => {
                self.failed += 1;
                eprintln!("FAILED {what}: {e}");
                None
            }
        }
    }

    /// Adds a host-measured metric to the printed list.
    pub fn host(&mut self, name: impl Into<String>, value: f64, unit: &'static str, note: &str) {
        self.push(name.into(), value, unit, false, note);
    }

    /// Adds a simulated metric to the printed list.
    pub fn sim(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.push(name.into(), value, unit, true, "");
    }

    fn push(&mut self, name: String, value: f64, unit: &'static str, simulated: bool, note: &str) {
        self.shown.push(Metric { name, value, unit, simulated, note: note.to_string() });
    }

    /// Sets a JSON metric.
    pub fn set(&mut self, name: &str, value: f64) {
        self.json.insert(name.to_string(), value);
    }

    /// Sets a per-layer metric and prints it under the same name.
    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.set(name, value);
        self.host(name, value, unit, "");
    }

    /// Sets a simulated per-layer metric and prints it under the same
    /// name.
    pub fn layer_sim(&mut self, name: &str, value: f64, unit: &'static str) {
        self.set(name, value);
        self.sim(name, value, unit);
    }

    /// The end-to-end metrics every workload shares: set-up time, peak
    /// resident set, and the failed-call ratio with its base.
    pub fn finish_end_to_end(&mut self, setup_s: f64) {
        self.host("setup_s", setup_s, "s", &format!("median of {}", measure::SETUP_REPEATS));
        self.set("setup_s", setup_s);
        let peak_mb = measure::peak_rss_kb().unwrap_or(0) as f64 / 1024.0;
        self.host("peak_rss_mb", peak_mb, "MB", "VmHWM");
        self.set("peak_rss_mb", peak_mb);
        let ratio = self.failed as f64 / self.attempted.max(1) as f64;
        let base = format!("{} of {} calls", self.failed, self.attempted);
        self.host("failed_ratio", ratio, "ratio", &base);
    }

    /// Per-layer shares of the traced total, the DRAM replay split out
    /// of `replay_span`'s self time, and the tracing overhead against
    /// `untraced_s` seconds of the same work run without spans
    /// (`traced_s` is the traced time of that work).
    pub fn finish_layers(
        &mut self,
        t: &Tracer,
        replay_span: &str,
        replay_s: f64,
        traced_s: f64,
        untraced_s: f64,
    ) {
        let total = t.root_total(&[PROBE]);
        for (name, self_s) in t.self_times() {
            if name == PROBE {
                continue;
            }
            let own = if name == replay_span { self_s - replay_s } else { self_s };
            self.layer(&format!("{name}.share"), own / total, "ratio");
        }
        self.layer("dram.share", replay_s / total, "ratio");
        self.layer("trace.overhead_ratio", traced_s / untraced_s - 1.0, "ratio");
        self.host("trace.overhead_ms", (traced_s - untraced_s) * 1e3, "ms", "traced - untraced");
        self.spans = Some(t.chrome_json());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` declares exactly the metrics this binary prints.
    #[test]
    fn benchmark_json_lists_the_printed_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        let per_layer_at = text.find("\"per_layer\"").expect("a per_layer section");
        let (end_to_end, per_layer) = text.split_at(per_layer_at);
        for (section, names) in [(end_to_end, END_TO_END), (per_layer, PER_LAYER)] {
            assert_eq!(section.matches("\"unit\":").count(), names.len());
            for (name, unit) in names {
                let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
                assert!(section.contains(&entry), "BENCHMARK.json lacks {entry}");
            }
        }
    }
}
