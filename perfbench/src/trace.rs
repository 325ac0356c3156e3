//! In-memory span recorder for the traced run.
//!
//! Spans wrap calls into the layers' public functions from the
//! benchmark's own code; nothing inside the program is instrumented.
//! Each span keeps its name, an optional detail (e.g. the network),
//! start, end and parent. Spans stay in memory until the run ends and
//! are then written out as a Chrome trace-event file.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name, `<module>.<function>` (e.g. `core.ga`).
    pub name: &'static str,
    /// Free-form qualifier (network, chip) or empty.
    pub detail: String,
    /// Offset of the span's start from the recorder's epoch.
    pub start: Duration,
    /// Offset of the span's end from the recorder's epoch.
    pub end: Duration,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Wall-clock duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

/// Records nested spans on the calling thread.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self { epoch: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }
}

impl Tracer {
    /// Runs `f` inside a span named `name`; spans `f` opens on the
    /// tracer it is handed become children of this one.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        detail: &str,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        let id = self.spans.len();
        let start = self.epoch.elapsed();
        self.spans.push(Span {
            name,
            detail: detail.to_string(),
            start,
            end: start,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end = self.epoch.elapsed();
        out
    }

    /// Durations (seconds) of the spans named `name`, optionally
    /// restricted to one detail.
    pub fn durations(&self, name: &str, detail: Option<&str>) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && detail.is_none_or(|d| s.detail == d))
            .map(Span::secs)
            .collect()
    }

    /// Mean duration (milliseconds) of the spans named `name`,
    /// optionally restricted to one detail; 0 when there are none.
    pub fn mean_ms(&self, name: &str, detail: Option<&str>) -> f64 {
        crate::measure::mean(&self.durations(name, detail)) * 1e3
    }

    /// Summed self time (seconds) per span name: each span's duration
    /// minus the time its children cover. Spans are recorded on one
    /// thread, so children never overlap and their durations add.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut child_secs = vec![0.0; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_secs[p] += span.secs();
            }
        }
        let mut out = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_secs) {
            *out.entry(span.name).or_insert(0.0) += span.secs() - children;
        }
        out
    }

    /// Summed duration (seconds) of the root spans whose names are not
    /// in `exclude` — the traced total that shares are taken of.
    pub fn root_total(&self, exclude: &[&str]) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none() && !exclude.contains(&s.name))
            .map(Span::secs)
            .sum()
    }

    /// The spans as a Chrome trace-event JSON document (complete `X`
    /// events in microseconds; the parent index rides in `args`).
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{parent},\"detail\":\"{}\"}}}}",
                s.name,
                s.start.as_secs_f64() * 1e6,
                s.secs() * 1e6,
                s.detail
            );
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_totals_skip_probes() {
        let mut t = Tracer::default();
        t.span("outer", "", |t| {
            t.span("inner", "a", |_| std::thread::sleep(Duration::from_millis(2)));
            t.span("inner", "b", |_| std::thread::sleep(Duration::from_millis(2)));
        });
        t.span("probe", "", |_| std::thread::sleep(Duration::from_millis(1)));
        let spans = &t.spans;
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[3].parent, None);
        let self_times = t.self_times();
        let outer = spans[0].secs();
        let inner: f64 = t.durations("inner", None).iter().sum();
        assert!((self_times["outer"] - (outer - inner)).abs() < 1e-9);
        assert_eq!(t.durations("inner", Some("b")).len(), 1);
        assert!((t.root_total(&["probe"]) - outer).abs() < 1e-9);
        assert!(t.chrome_json().contains("\"parent\":0"));
    }
}
