//! Turns a workload's [`Outcome`] and recorded spans into the named
//! metrics `BENCHMARK.json` declares, and renders the result line.

use crate::spans::{Spans, REPLAY_BASE, SETUP_BASE};
use crate::util::{median, peak_rss_mb};
use crate::Outcome;
use std::collections::BTreeMap;

/// Where a per-layer metric comes from.
enum Src {
    /// Summed self time (ms) of the spans with this name in one op.
    Span(&'static str),
    /// Summed count with this name in one op.
    Count(&'static str),
    /// Nanoseconds per event: a span's time over a count, per op.
    PerEvent(&'static str, &'static str),
    /// Measured outside the op spans; the workload reports it in
    /// [`Outcome::extra`].
    Extra,
}

use Src::{Count, Extra, PerEvent, Span};

/// Every per-layer metric, in output order. A workload that does not
/// exercise a layer reports 0 for it.
const PER_LAYER: &[(&str, &str, Src)] = &[
    ("synth.taskgraph_ms", "ms", Span("synth.taskgraph")),
    ("synth.mapping_ms", "ms", Span("synth.mapping")),
    ("synth.program_ms", "ms", Span("synth.program")),
    ("analyze.program_ms", "ms", Span("analyze.program")),
    ("analyze.graph_ms", "ms", Span("analyze.graph")),
    ("analyze.deadlock_ms", "ms", Span("analyze.deadlock")),
    ("analyze.certify_ms", "ms", Span("analyze.certify")),
    ("analyze.shards_ms", "ms", Span("analyze.shards")),
    ("analyze.frames_ms", "ms", Span("analyze.frames")),
    ("analyze.footprint_ms", "ms", Span("analyze.footprint")),
    ("analyze.reach_states", "count", Extra),
    ("analyze.reach_truncated", "count", Extra),
    ("analyze.verdicts_ok_ratio", "ratio", Extra),
    (
        "analyze.engine_check_ms",
        "ms",
        Span("analyze.engine_check"),
    ),
    ("net.deploy_ms", "ms", Span("net.deploy")),
    ("net.churn_ms", "ms", Span("net.churn")),
    ("net.tx_messages", "count", Count("net.tx_messages")),
    ("net.tx_units", "count", Count("net.tx_units")),
    ("net.dropped", "count", Count("net.dropped")),
    ("runtime.build_ms", "ms", Span("runtime.build")),
    ("runtime.topo_ms", "ms", Span("runtime.topo")),
    ("runtime.topo_events", "count", Count("runtime.topo_events")),
    (
        "runtime.topo_broadcasts",
        "count",
        Count("runtime.topo_broadcasts"),
    ),
    (
        "runtime.topo_suppressed",
        "count",
        Count("runtime.topo_suppressed"),
    ),
    (
        "runtime.topo_useful_ratio",
        "ratio",
        Count("runtime.topo_useful_ratio"),
    ),
    ("runtime.bind_ms", "ms", Span("runtime.bind")),
    ("runtime.bind_events", "count", Count("runtime.bind_events")),
    (
        "runtime.bind_broadcasts",
        "count",
        Count("runtime.bind_broadcasts"),
    ),
    ("runtime.install_ms", "ms", Span("runtime.install")),
    ("runtime.refresh_ms", "ms", Span("runtime.refresh")),
    (
        "runtime.refresh_events",
        "count",
        Count("runtime.refresh_events"),
    ),
    ("runtime.app_ms", "ms", Span("runtime.app")),
    ("runtime.app_events", "count", Count("runtime.app_events")),
    (
        "runtime.app_messages",
        "count",
        Count("runtime.app_messages"),
    ),
    ("runtime.app_hops", "count", Count("runtime.app_hops")),
    (
        "runtime.app_retransmissions",
        "count",
        Count("runtime.app_retransmissions"),
    ),
    ("runtime.maintain_ms", "ms", Span("runtime.maintain")),
    (
        "sim.topo_ns_per_event",
        "ns",
        PerEvent("runtime.topo", "runtime.topo_events"),
    ),
    (
        "sim.bind_ns_per_event",
        "ns",
        PerEvent("runtime.bind", "runtime.bind_events"),
    ),
    (
        "sim.app_ns_per_event",
        "ns",
        PerEvent("runtime.app", "runtime.app_events"),
    ),
    ("sim.shard_windows", "count", Extra),
    ("sim.shard_events_per_window", "count", Extra),
    ("sim.shard_cross_staged", "count", Extra),
    ("sim.shard_barrier_stall", "count", Extra),
    ("sim.shard_overhead_x", "x", Extra),
    ("topoquery.regions", "count", Count("topoquery.regions")),
    ("topoquery.exfils", "count", Count("topoquery.exfils")),
    (
        "topoquery.data_units",
        "count",
        Count("topoquery.data_units"),
    ),
    ("obs.record_ms", "ms", Span("obs.record")),
    ("obs.jsonl_ms", "ms", Span("obs.jsonl")),
    ("obs.jsonl_bytes", "bytes", Count("obs.jsonl_bytes")),
    ("obs.critpath_ms", "ms", Span("obs.critpath")),
    ("obs.causal_events", "count", Count("obs.causal_events")),
    (
        "runtime.rss_bringup_mb",
        "MB",
        Count("runtime.rss_bringup_mb"),
    ),
    ("sim.rss_app_mb", "MB", Count("sim.rss_app_mb")),
    ("obs.rss_export_mb", "MB", Count("obs.rss_export_mb")),
    ("bench.check_ms", "ms", Extra),
    ("bench.uncovered_ms", "ms", Extra),
    ("bench.uncovered_pct", "%", Extra),
    ("bench.trace_overhead_pct", "%", Extra),
];

/// Name of the root span every timed op is recorded under; its self time
/// is the op time no layer span covers.
pub const OP_SPAN: &str = "bench.op";

/// Rescaled (`scaled`) or raw wall times of the primary ops traced or
/// not.
fn primary(o: &Outcome, traced: bool, scaled: bool) -> Vec<f64> {
    o.ops
        .iter()
        .filter(|op| op.primary && op.traced == traced)
        .map(|op| if scaled { op.ms * op.factor } else { op.ms })
        .collect()
}

fn heal(o: &Outcome, scaled: bool) -> Vec<f64> {
    o.ops
        .iter()
        .filter(|op| !op.traced)
        .filter_map(|op| {
            op.heal_ms
                .map(|ms| if scaled { ms * op.factor } else { ms })
        })
        .collect()
}

/// The run's host-speed factor: the median over its ops. Set-up is
/// rescaled by it, since a probe right after a set-up's large frees and
/// first-touch faults reads slow.
fn run_factor(o: &Outcome) -> f64 {
    let factors: Vec<f64> = o.ops.iter().map(|op| op.factor).collect();
    median(&factors).unwrap_or(1.0)
}

fn setup(o: &Outcome, scaled: bool) -> Vec<f64> {
    let f = if scaled { run_factor(o) } else { 1.0 };
    o.setup_s.iter().map(|s| s * f).collect()
}

/// An informational line with the raw (not rescaled) medians and the
/// run's host-speed factor.
pub fn raw_summary(workload: &str, o: &Outcome) -> String {
    let m = |v: Vec<f64>| median(&v).unwrap_or(0.0);
    format!(
        "raw {workload} setup_s={:.4} op_p50_ms={:.3} heal_p50_ms={:.3} ops={} host_factor={:.4}",
        m(setup(o, false)),
        m(primary(o, false, false)),
        m(heal(o, false)),
        o.ops.len(),
        run_factor(o)
    )
}

/// The run-level drift check: the untraced primary ops of the first and
/// second half of the run must have medians within `DRIFT_LIMIT` of each
/// other, so `op_p50_ms` does not depend on how many ops fit in a run.
pub fn drift(o: &Outcome) -> Result<f64, String> {
    const DRIFT_LIMIT: f64 = 0.5;
    let ms = primary(o, false, true);
    if ms.len() < 2 {
        return Err(format!(
            "only {} untraced ops; cannot split halves",
            ms.len()
        ));
    }
    let (a, b) = ms.split_at(ms.len() / 2);
    let ratio = median(b).expect("non-empty half") / median(a).expect("non-empty half");
    if (ratio - 1.0).abs() > DRIFT_LIMIT {
        return Err(format!("second-half / first-half op median = {ratio:.3}"));
    }
    Ok(ratio)
}

fn need(name: &str, v: Option<f64>) -> Result<f64, String> {
    match v {
        Some(x) if x.is_finite() && x > 0.0 => Ok(x),
        other => Err(format!("{name} unmeasured or not positive: {other:?}")),
    }
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(o: &Outcome) -> Result<Vec<(&'static str, &'static str, f64)>, String> {
    Ok(vec![
        ("setup_s", "s", need("setup_s", median(&setup(o, true)))?),
        (
            "op_p50_ms",
            "ms",
            need("op_p50_ms", median(&primary(o, false, true)))?,
        ),
        (
            "heal_p50_ms",
            "ms",
            need("heal_p50_ms", median(&heal(o, true)))?,
        ),
        (
            "peak_rss_mb",
            "MB",
            need("peak_rss_mb", Some(peak_rss_mb()))?,
        ),
        (
            "sim_latency_ticks",
            "ticks",
            need("sim_latency_ticks", Some(o.sim_latency_ticks))?,
        ),
        (
            "sim_energy_units",
            "units",
            need("sim_energy_units", Some(o.sim_energy_units))?,
        ),
    ])
}

type PerOp = BTreeMap<u64, BTreeMap<&'static str, f64>>;

/// Median over the ops that recorded `value`: timed ops first, else the
/// set-up repetitions, else the post-run replays.
fn median_over_ops(
    per_op: &PerOp,
    value: impl Fn(&BTreeMap<&'static str, f64>) -> Option<f64>,
) -> f64 {
    let classes: [&dyn Fn(u64) -> bool; 3] = [
        &|op| op < SETUP_BASE,
        &|op| (SETUP_BASE..REPLAY_BASE).contains(&op),
        &|op| op >= REPLAY_BASE,
    ];
    for in_class in classes {
        let vals: Vec<f64> = per_op
            .iter()
            .filter(|(op, _)| in_class(**op))
            .filter_map(|(_, m)| value(m))
            .collect();
        if let Some(m) = median(&vals) {
            return m;
        }
    }
    0.0
}

/// The per-layer metrics of a traced run.
pub fn per_layer(
    spans: &Spans,
    o: &Outcome,
) -> Result<Vec<(&'static str, &'static str, f64)>, String> {
    let mut per_op: PerOp = spans.self_ms_by_op();
    for (op, counts) in spans.counts_by_op() {
        per_op.entry(op).or_default().extend(counts);
    }
    let uncovered: Vec<f64> = o
        .ops
        .iter()
        .filter(|op| op.primary && op.traced)
        .filter_map(|op| per_op.get(&op.id).and_then(|m| m.get(OP_SPAN)).copied())
        .collect();
    let traced_raw = need("traced op_p50_ms", median(&primary(o, true, false)))?;
    let traced_p50 = need("traced op_p50_ms", median(&primary(o, true, true)))?;
    let untraced_p50 = need("untraced op_p50_ms", median(&primary(o, false, true)))?;
    let uncovered_ms = median(&uncovered).ok_or("no traced op recorded its root span")?;
    let checks: Vec<f64> = o.ops.iter().map(|op| op.check_ms).collect();
    let mut extra: BTreeMap<&str, f64> = o.extra.iter().copied().collect();
    extra.insert("bench.check_ms", median(&checks).unwrap_or(0.0));
    extra.insert("bench.uncovered_ms", uncovered_ms);
    extra.insert("bench.uncovered_pct", 100.0 * uncovered_ms / traced_raw);
    extra.insert(
        "bench.trace_overhead_pct",
        100.0 * (traced_p50 / untraced_p50 - 1.0),
    );
    let mut out = Vec::with_capacity(PER_LAYER.len());
    for (name, unit, src) in PER_LAYER {
        let value = match src {
            Span(s) | Count(s) => median_over_ops(&per_op, |m| m.get(s).copied()),
            PerEvent(s, c) => median_over_ops(&per_op, |m| {
                let (ms, events) = (m.get(s)?, m.get(c)?);
                (*events > 0.0).then(|| ms * 1e6 / events)
            }),
            Extra => extra.get(name).copied().unwrap_or(0.0),
        };
        if !value.is_finite() {
            return Err(format!("{name} is not finite"));
        }
        out.push((*name, *unit, value));
    }
    Ok(out)
}

/// The result line.
pub fn render(o: &Outcome, values: &[(&str, &str, f64)]) -> String {
    let metrics: Vec<String> = values
        .iter()
        .map(|(name, unit, v)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.failed_ops.is_empty() && o.run_failures.is_empty(),
        o.attempted,
        o.failed_ops.len(),
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Op;

    fn op(id: u64, ms: f64, traced: bool) -> Op {
        Op {
            id,
            ms,
            traced,
            primary: true,
            heal_ms: Some(ms / 2.0),
            check_ms: 0.1,
            factor: 2.0,
        }
    }

    fn outcome(ms: &[f64]) -> Outcome {
        Outcome {
            setup_s: vec![0.15, 0.1, 0.2],
            ops: ms
                .iter()
                .enumerate()
                .map(|(i, &m)| op(i as u64, m, false))
                .collect(),
            attempted: ms.len() as u64,
            sim_latency_ticks: 10.0,
            sim_energy_units: 5.0,
            ..Outcome::default()
        }
    }

    #[test]
    fn end_to_end_reports_rescaled_medians_and_refuses_zero() {
        let o = outcome(&[3.0, 1.0, 2.0]);
        let m = end_to_end(&o).unwrap();
        assert_eq!(m[0], ("setup_s", "s", 0.3));
        assert_eq!(m[1], ("op_p50_ms", "ms", 4.0));
        assert_eq!(m[2], ("heal_p50_ms", "ms", 2.0));
        assert!(raw_summary("w", &o).contains("op_p50_ms=2.000"));
        let mut zero = outcome(&[1.0]);
        zero.sim_energy_units = 0.0;
        assert!(end_to_end(&zero).is_err());
    }

    #[test]
    fn drift_check_trips_on_growing_ops() {
        assert!(drift(&outcome(&[10.0, 11.0, 10.0, 10.5])).is_ok());
        assert!(drift(&outcome(&[10.0, 10.0, 20.0, 21.0])).is_err());
    }

    #[test]
    fn render_counts_failures_and_never_hides_them() {
        let mut o = outcome(&[1.0]);
        let line = render(&o, &[("op_p50_ms", "ms", 1.5)]);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        o.checked("op 0", Err("planted".into()));
        let line = render(&o, &[]);
        assert!(line.contains("\"correct\": false"), "{line}");
        assert!(line.contains("\"failed\": 1"), "{line}");
        assert!(line.contains("\"attempted\": 2"), "{line}");
    }
}
