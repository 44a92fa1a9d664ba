//! Cross-commit golden traces: the JSONL bytes of two seeded runs are
//! pinned against committed fixtures, so a change anywhere between the
//! kernel and the exporter that moves a single byte of a certified trace
//! fails here — not only when two runs inside one binary disagree (the
//! determinism suite's check). Together the two documents carry the
//! kernel self-metric histograms, the `merge.levelN.complete` histograms,
//! the registry counters and gauges, and the per-shard
//! `shard.window.events` histograms of the sharded engine.
//!
//! Regenerate a fixture only when a trace change is intentional:
//! `wsn-lint --record-fidelity-trace <out> 2` and
//! `wsn-lint --record-shard-metrics-trace <out> 2`.

use wsn_bench::experiments::{record_model_fidelity_trace, record_shard_metrics_trace};

fn fixture(name: &str) -> String {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

#[test]
fn model_fidelity_trace_matches_the_golden_fixture() {
    let jsonl = record_model_fidelity_trace(4, 3, 5, 1.0, 1.0).to_jsonl();
    assert!(
        jsonl == fixture("fidelity_trace_side4.jsonl"),
        "side-4 model-fidelity trace drifted from tests/fixtures/fidelity_trace_side4.jsonl"
    );
}

#[test]
fn shard_metrics_trace_matches_the_golden_fixture() {
    let jsonl = record_shard_metrics_trace(4, 3, 5, 1, false).to_jsonl();
    assert!(
        jsonl == fixture("shard_metrics_trace_side4.jsonl"),
        "side-4 cut-1 shard-metrics trace drifted from \
         tests/fixtures/shard_metrics_trace_side4.jsonl"
    );
}
