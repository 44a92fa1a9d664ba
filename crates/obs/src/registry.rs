//! Named counters, gauges, and fixed-bucket histograms.
//!
//! A [`Registry`] is a cheaply cloneable handle to a shared
//! [`wsn_sim::Stats`] store (nodes, the runtime driver, and the exporter
//! all hold clones) — the same store type the kernel's own statistics
//! use, so there is one metrics substrate from kernel to exporter. The
//! disabled registry holds no store at all, so every instrument call is a
//! single `Option` discriminant check — hot paths can call it
//! unconditionally.
//!
//! Counters are monotonic `u64`s, gauges are last-write-wins `f64`s, and
//! histograms are [`FixedHistogram`]s: counts in a fixed set of
//! upper-bound buckets (Prometheus-style `le` semantics: bucket `i` counts
//! values `<= uppers[i]`, with an implicit `+Inf` bucket at the end).
//!
//! ## Label dimensions
//!
//! Metric keys may carry label pairs after `|` separators:
//! `shard.events|shard=3` is the metric `shard.events` with label
//! `shard="3"` (build keys with [`labeled`]). Storage and JSONL traces
//! keep the raw key; [`Registry::render_prometheus`] splits it and emits
//! proper exposition-format series — metric and label names sanitized to
//! the Prometheus charset, label values escaped per the text format
//! (`\` → `\\`, `"` → `\"`, newline → `\n`).

use std::cell::{Ref, RefCell};
use std::rc::Rc;
use wsn_sim::{FixedHistogram, Stats};

/// Builds a registry key carrying label dimensions: `name|k=v|k2=v2`.
/// Keys compare textually, so series of one metric sort together.
pub fn labeled(name: &str, labels: &[(&str, &str)]) -> String {
    let mut key = String::from(name);
    for (k, v) in labels {
        key.push('|');
        key.push_str(k);
        key.push('=');
        key.push_str(v);
    }
    key
}

/// Splits a registry key into its metric name and label pairs.
pub fn split_labels(key: &str) -> (&str, Vec<(&str, &str)>) {
    let mut parts = key.split('|');
    let base = parts.next().unwrap_or(key);
    let labels = parts
        .map(|p| p.split_once('=').unwrap_or((p, "")))
        .collect();
    (base, labels)
}

/// Shared handle to a metric store; see the module docs.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    store: Option<Rc<RefCell<Stats>>>,
}

impl Registry {
    /// A registry that records nothing; every call is a no-op.
    pub fn disabled() -> Self {
        Registry { store: None }
    }

    /// A live registry; clones share the same store.
    pub fn enabled() -> Self {
        Registry {
            store: Some(Rc::new(RefCell::new(Stats::new()))),
        }
    }

    /// Whether instrument calls record anything.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.store.is_some()
    }

    /// Applies `write` to the store when the registry is enabled.
    #[inline]
    fn write(&self, write: impl FnOnce(&mut Stats)) {
        if let Some(store) = &self.store {
            write(&mut store.borrow_mut());
        }
    }

    /// Read access to the store (`None` when disabled).
    pub fn stats(&self) -> Option<Ref<'_, Stats>> {
        self.store.as_ref().map(|s| s.borrow())
    }

    /// Increments the named monotonic counter by 1.
    #[inline]
    pub fn incr(&self, name: &str) {
        self.incr_by(name, 1);
    }

    /// Increments the named monotonic counter by `by`.
    #[inline]
    pub fn incr_by(&self, name: &str, by: u64) {
        self.write(|s| s.add(name, by));
    }

    /// Sets the named gauge.
    #[inline]
    pub fn gauge_set(&self, name: &str, value: f64) {
        self.write(|s| s.set_gauge(name, value));
    }

    /// Records an observation into the named histogram, creating it with
    /// [`wsn_sim::TICK_BUCKETS`] on first use.
    #[inline]
    pub fn observe(&self, name: &str, value: f64) {
        self.write(|s| s.observe(name, value));
    }

    /// Installs a prebuilt histogram under `name`, replacing any earlier
    /// snapshot (see [`Stats::install_histogram`]).
    pub fn install_histogram(&self, name: &str, histogram: FixedHistogram) {
        self.write(|s| s.install_histogram(name, histogram));
    }

    /// Current value of a counter (0 if never incremented or disabled).
    pub fn counter(&self, name: &str) -> u64 {
        self.stats().map_or(0, |s| s.counter(name))
    }

    /// Current value of a gauge.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.stats().and_then(|s| s.gauge(name))
    }

    /// Snapshot of a histogram.
    pub fn histogram(&self, name: &str) -> Option<FixedHistogram> {
        self.stats().and_then(|s| s.histogram(name).cloned())
    }

    /// All counters, sorted by name.
    pub fn counters(&self) -> Vec<(String, u64)> {
        self.stats()
            .map(|s| s.counters().map(|(k, v)| (k.to_string(), v)).collect())
            .unwrap_or_default()
    }

    /// Renders every metric in the Prometheus text exposition format.
    /// Metric names are sanitized to the exposition charset, label-keyed
    /// series (see [`labeled`]) get proper `{k="v"}` label sets with
    /// escaped values, and a `# TYPE` line is emitted once per metric
    /// name even when many label series share it.
    pub fn render_prometheus(&self) -> String {
        fn type_line(out: &mut String, typed: &mut Option<String>, name: &str, kind: &str) {
            if typed.as_deref() != Some(name) {
                out.push_str(&format!("# TYPE {name} {kind}\n"));
                *typed = Some(name.to_string());
            }
        }
        let mut out = String::new();
        let Some(stats) = self.stats() else {
            return out;
        };
        let mut typed: Option<String> = None;
        for (key, value) in stats.counters() {
            let (name, labels) = split_series(key);
            type_line(&mut out, &mut typed, &name, "counter");
            out.push_str(&format!("{name}{labels} {value}\n"));
        }
        typed = None;
        for (key, value) in stats.gauges() {
            let (name, labels) = split_series(key);
            type_line(&mut out, &mut typed, &name, "gauge");
            out.push_str(&format!("{name}{labels} {value}\n"));
        }
        typed = None;
        for (key, h) in stats.histograms() {
            let (name, labels) = split_series(key);
            type_line(&mut out, &mut typed, &name, "histogram");
            let mut cumulative = 0u64;
            for (i, &c) in h.bucket_counts().iter().enumerate() {
                cumulative += c;
                let le = if i < h.uppers().len() {
                    format!("{}", h.uppers()[i])
                } else {
                    "+Inf".to_string()
                };
                let le_labels = merge_label(&labels, &format!("le=\"{le}\""));
                out.push_str(&format!("{name}_bucket{le_labels} {cumulative}\n"));
            }
            out.push_str(&format!("{name}_sum{labels} {}\n", h.sum()));
            out.push_str(&format!("{name}_count{labels} {}\n", h.count()));
        }
        out
    }
}

/// Splits a raw registry key into a sanitized metric name and a rendered
/// label block (`{k="v",...}`, or empty when the key carries no labels).
fn split_series(key: &str) -> (String, String) {
    let (base, labels) = split_labels(key);
    let name = sanitize(base);
    if labels.is_empty() {
        return (name, String::new());
    }
    let rendered: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{}=\"{}\"", sanitize(k), escape_label_value(v)))
        .collect();
    (name, format!("{{{}}}", rendered.join(",")))
}

/// Inserts `extra` (an already-rendered `k="v"` pair) into a rendered
/// label block, opening one if the series had no labels.
fn merge_label(labels: &str, extra: &str) -> String {
    if labels.is_empty() {
        format!("{{{extra}}}")
    } else {
        format!("{},{extra}}}", &labels[..labels.len() - 1])
    }
}

/// Escapes a label value per the Prometheus text exposition format:
/// backslash, double quote, and line feed have escape sequences; every
/// other character passes through (values are free-form UTF-8).
fn escape_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

/// Sanitizes a metric or label name to `[a-zA-Z0-9_]` (the exposition
/// charset minus the colon, which this codebase never emits); a leading
/// digit gets an underscore prefix so the name stays lexable.
fn sanitize(name: &str) -> String {
    let mut out: String = name
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    if out.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        out.insert(0, '_');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_registry_records_nothing() {
        let r = Registry::disabled();
        r.incr("a");
        r.gauge_set("g", 1.0);
        r.observe("h", 2.0);
        assert!(!r.is_enabled());
        assert_eq!(r.counter("a"), 0);
        assert_eq!(r.gauge("g"), None);
        assert!(r.histogram("h").is_none());
        assert!(r.counters().is_empty());
        assert!(r.render_prometheus().is_empty());
    }

    #[test]
    fn counters_are_monotonic_and_shared_across_clones() {
        let r = Registry::enabled();
        let clone = r.clone();
        r.incr("msgs");
        clone.incr_by("msgs", 4);
        assert_eq!(r.counter("msgs"), 5);
        assert_eq!(clone.counter("msgs"), 5);
        assert_eq!(r.counters(), vec![("msgs".to_string(), 5)]);
    }

    #[test]
    fn gauges_are_last_write_wins() {
        let r = Registry::enabled();
        r.gauge_set("energy", 2.5);
        r.gauge_set("energy", 4.0);
        assert_eq!(r.gauge("energy"), Some(4.0));
    }

    #[test]
    fn empty_registry_reads_report_zeros_not_panics() {
        let r = Registry::enabled();
        assert_eq!(r.counter("never.touched"), 0);
        assert_eq!(r.gauge("never.touched"), None);
        assert!(r.histogram("never.touched").is_none());
        assert!(r.counters().is_empty());
        assert!(r.render_prometheus().is_empty());
    }

    #[test]
    fn prometheus_dump_contains_all_kinds() {
        let r = Registry::enabled();
        r.incr("app.messages");
        r.gauge_set("energy.total", 1.25);
        r.observe("latency", 3.0);
        let text = r.render_prometheus();
        assert!(text.contains("# TYPE app_messages counter"));
        assert!(text.contains("app_messages 1"));
        assert!(text.contains("# TYPE energy_total gauge"));
        assert!(text.contains("energy_total 1.25"));
        assert!(text.contains("latency_bucket{le=\"2\"} 0"));
        assert!(text.contains("latency_bucket{le=\"4\"} 1"));
        assert!(text.contains("latency_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("latency_count 1"));
    }

    #[test]
    fn labeled_round_trips_through_split_labels() {
        let key = labeled("shard.events", &[("shard", "3"), ("lane", "a")]);
        assert_eq!(key, "shard.events|shard=3|lane=a");
        let (base, labels) = split_labels(&key);
        assert_eq!(base, "shard.events");
        assert_eq!(labels, vec![("shard", "3"), ("lane", "a")]);
        let (bare, none) = split_labels("plain.metric");
        assert_eq!(bare, "plain.metric");
        assert!(none.is_empty());
    }

    #[test]
    fn prometheus_renders_label_series_under_one_type_line() {
        let r = Registry::enabled();
        r.incr_by(&labeled("shard.events", &[("shard", "0")]), 7);
        r.incr_by(&labeled("shard.events", &[("shard", "1")]), 9);
        r.incr_by(&labeled("shard.events", &[("shard", "global")]), 2);
        let text = r.render_prometheus();
        assert_eq!(text.matches("# TYPE shard_events counter").count(), 1);
        assert!(text.contains("shard_events{shard=\"0\"} 7\n"));
        assert!(text.contains("shard_events{shard=\"1\"} 9\n"));
        assert!(text.contains("shard_events{shard=\"global\"} 2\n"));
    }

    #[test]
    fn prometheus_escapes_label_values() {
        let r = Registry::enabled();
        r.incr(&labeled("paths", &[("dir", "a\\b\"c\nd")]));
        let text = r.render_prometheus();
        // Exposition format: \ -> \\, " -> \", newline -> the two
        // characters `\n`. Locked byte-for-byte.
        assert!(
            text.contains("paths{dir=\"a\\\\b\\\"c\\nd\"} 1\n"),
            "escaped series missing from:\n{text}"
        );
        assert!(!text.contains('\u{0}'));
        // No raw newline may survive inside a label value: every line
        // must still be a well-formed `name{...} value` or comment.
        for line in text.lines() {
            assert!(
                line.starts_with('#') || line.contains(' '),
                "malformed exposition line: {line:?}"
            );
        }
    }

    #[test]
    fn prometheus_sanitizes_metric_and_label_names() {
        let r = Registry::enabled();
        r.gauge_set(&labeled("queue-depth.max", &[("shard-id", "2")]), 5.0);
        r.incr("0weird");
        let text = r.render_prometheus();
        assert!(text.contains("queue_depth_max{shard_id=\"2\"} 5\n"));
        // A leading digit is not a valid metric-name start.
        assert!(text.contains("_0weird 1\n"));
    }

    #[test]
    fn prometheus_merges_le_into_histogram_label_sets() {
        let r = Registry::enabled();
        let key = labeled("shard.window", &[("shard", "1")]);
        r.observe(&key, 3.0);
        r.observe(&key, 9.0);
        let text = r.render_prometheus();
        assert!(text.contains("shard_window_bucket{shard=\"1\",le=\"4\"} 1\n"));
        assert!(text.contains("shard_window_bucket{shard=\"1\",le=\"16\"} 2\n"));
        assert!(text.contains("shard_window_bucket{shard=\"1\",le=\"+Inf\"} 2\n"));
        assert!(text.contains("shard_window_sum{shard=\"1\"} 12\n"));
        assert!(text.contains("shard_window_count{shard=\"1\"} 2\n"));
    }

    #[test]
    fn install_histogram_publishes_prebuilt_snapshot() {
        let r = Registry::enabled();
        let h = FixedHistogram::from_parts(vec![1.0, 2.0], vec![3, 4, 5], 12, 30.0, 0.5, 9.0);
        r.install_histogram(&labeled("shard.win", &[("shard", "0")]), h.clone());
        assert_eq!(r.histogram("shard.win|shard=0"), Some(h));
        let text = r.render_prometheus();
        assert!(text.contains("shard_win_bucket{shard=\"0\",le=\"2\"} 7\n"));
        assert!(text.contains("shard_win_count{shard=\"0\"} 12\n"));
    }
}
