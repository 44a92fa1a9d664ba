//! Layer counts the mission and the query stream both record at the
//! same boundaries.

use crate::spans::Spans;
use wsn_runtime::{AppReport, TopoReport};
use wsn_sim::Stats;

/// Medium and payload counters from the kernel statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct NetCounters {
    tx: u64,
    tx_units: u64,
    dropped: u64,
    data_units: u64,
}

impl NetCounters {
    pub fn read(stats: &Stats) -> Self {
        NetCounters {
            tx: stats.counter("medium.tx"),
            tx_units: stats.counter("medium.tx_units"),
            dropped: stats.counter("medium.dropped"),
            data_units: stats.counter("rt.data_units"),
        }
    }

    /// Records the counts accumulated since `before`; returns the
    /// transmissions and transmitted units for the digest.
    pub fn record_since(self, before: NetCounters, spans: &mut Spans) -> (u64, u64) {
        let tx = self.tx - before.tx;
        let units = self.tx_units - before.tx_units;
        spans.count("net.tx_messages", tx as f64);
        spans.count("net.tx_units", units as f64);
        spans.count("net.dropped", (self.dropped - before.dropped) as f64);
        spans.count(
            "topoquery.data_units",
            (self.data_units - before.data_units) as f64,
        );
        (tx, units)
    }
}

/// Topology-emulation counts for a run of `events` kernel events.
pub fn record_topo(spans: &mut Spans, topo: &TopoReport, events: u64) {
    spans.count("runtime.topo_events", events as f64);
    spans.count("runtime.topo_broadcasts", topo.broadcasts as f64);
    spans.count("runtime.topo_suppressed", topo.suppressed as f64);
    spans.count(
        "runtime.topo_useful_ratio",
        1.0 - topo.suppressed as f64 / events as f64,
    );
}

/// Binding counts for a run of `events` kernel events on a runtime
/// whose statistics hold nothing but bring-up: election delta
/// broadcasts plus announce broadcasts.
pub fn record_bind(spans: &mut Spans, stats: &Stats, events: u64) {
    let broadcasts = stats.counter("bind.broadcast") + stats.counter("announce.broadcast");
    spans.count("runtime.bind_events", events as f64);
    spans.count("runtime.bind_broadcasts", broadcasts as f64);
}

/// Application-phase counts for a run of `events` kernel events.
pub fn record_app(spans: &mut Spans, app: &AppReport, events: u64) {
    spans.count("runtime.app_events", events as f64);
    spans.count("runtime.app_messages", app.messages as f64);
    spans.count("runtime.app_hops", app.physical_hops as f64);
    spans.count("runtime.app_retransmissions", app.retransmissions as f64);
    spans.count("topoquery.exfils", app.exfil_count as f64);
}
