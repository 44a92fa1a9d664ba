//! Run statistics: named counters, gauges, and fixed-bucket histograms.
//!
//! Protocols under test report what they did (messages sent, boundary
//! crossings suppressed, merge operations performed, …) through the
//! [`Stats`] sink carried by the kernel; the experiment harness reads the
//! totals back after the run. Keys are plain strings so that each crate can
//! define its own vocabulary without a central registry.
//!
//! [`FixedHistogram`] is the workspace's one histogram type: kernel
//! self-metrics, actor observations, per-shard window sizes, and the
//! telemetry registry all count into fixed upper-bound buckets, so memory
//! stays bounded however many values a run observes.

use std::collections::BTreeMap;

/// Default histogram buckets for tick-valued observations: powers of two
/// up to 4096 ticks.
pub const TICK_BUCKETS: [f64; 13] = [
    1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0, 2048.0, 4096.0,
];

/// A histogram with fixed upper-bound buckets plus count/sum/min/max.
///
/// Buckets follow Prometheus `le` semantics: bucket `i` counts values
/// `<= uppers[i]`, with an implicit `+Inf` bucket at the end.
#[derive(Debug, Clone, PartialEq)]
pub struct FixedHistogram {
    uppers: Vec<f64>,
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl FixedHistogram {
    /// Creates an empty histogram with the given strictly increasing
    /// upper bounds (an `+Inf` bucket is added implicitly).
    pub fn new(uppers: &[f64]) -> Self {
        debug_assert!(
            uppers.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        FixedHistogram {
            uppers: uppers.to_vec(),
            counts: vec![0; uppers.len() + 1],
            count: 0,
            sum: 0.0,
            min: 0.0,
            max: 0.0,
        }
    }

    /// Creates a histogram with [`TICK_BUCKETS`].
    pub fn ticks() -> Self {
        FixedHistogram::new(&TICK_BUCKETS)
    }

    /// Rebuilds a histogram from exported parts (used by the JSONL parser).
    pub fn from_parts(
        uppers: Vec<f64>,
        counts: Vec<u64>,
        count: u64,
        sum: f64,
        min: f64,
        max: f64,
    ) -> Self {
        debug_assert_eq!(counts.len(), uppers.len() + 1);
        FixedHistogram {
            uppers,
            counts,
            count,
            sum,
            min,
            max,
        }
    }

    /// Records one observation. Never allocates.
    pub fn record(&mut self, value: f64) {
        let idx = self
            .uppers
            .iter()
            .position(|&u| value <= u)
            .unwrap_or(self.uppers.len());
        self.counts[idx] += 1;
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        self.sum += value;
    }

    /// Adds every observation of `other` (same bucket bounds) to this
    /// histogram: the result equals recording both streams into one.
    /// Sums of integer-valued observations stay exact, so merging per-run
    /// or per-event histograms reproduces the one-stream totals bit for bit.
    pub fn merge(&mut self, other: &FixedHistogram) {
        assert_eq!(self.uppers, other.uppers, "merging mismatched buckets");
        if other.count == 0 {
            return;
        }
        for (c, o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    /// Forgets every observation, keeping the bucket bounds (and storage).
    pub fn clear(&mut self) {
        self.counts.fill(0);
        self.count = 0;
        self.sum = 0.0;
        self.min = 0.0;
        self.max = 0.0;
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Smallest observation (0 when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (0 when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Mean observation (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Bucket upper bounds (excluding the implicit `+Inf`).
    pub fn uppers(&self) -> &[f64] {
        &self.uppers
    }

    /// Per-bucket counts; the final entry is the `+Inf` bucket.
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }

    /// Approximate quantile by linear interpolation inside the bucket
    /// that crosses rank `q * count` (`q` in `[0, 1]`, clamped; a NaN `q`
    /// reads as 0). An empty histogram reports every quantile as 0 —
    /// finite, like [`mean`](Self::mean)/[`min`](Self::min)/
    /// [`max`](Self::max) — so report renderers never print NaN.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = if q.is_nan() { 0.0 } else { q };
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if seen + c >= rank && c > 0 {
                let lower = if i == 0 { self.min } else { self.uppers[i - 1] };
                let upper = if i < self.uppers.len() {
                    self.uppers[i]
                } else {
                    self.max
                };
                let frac = (rank - seen) as f64 / c as f64;
                return (lower + (upper - lower) * frac).clamp(self.min, self.max);
            }
            seen += c;
        }
        self.max
    }
}

/// A set of named counters, gauges and histograms.
///
/// Every write is allocation-free once its key exists: the key is looked
/// up through `get_mut` and cloned only on first touch, so per-event
/// instruments settle after their first use and stay off the heap — the
/// invariant the no-alloc gate (`wsn-lint --alloc-gate`) measures.
#[derive(Debug, Default, Clone)]
pub struct Stats {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, FixedHistogram>,
}

impl Stats {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to the counter `key` (creating it at zero).
    pub fn add(&mut self, key: &str, delta: u64) {
        match self.counters.get_mut(key) {
            Some(v) => *v += delta,
            None => {
                self.counters.insert(key.to_owned(), delta);
            }
        }
    }

    /// Increments the counter `key` by one.
    pub fn incr(&mut self, key: &str) {
        self.add(key, 1);
    }

    /// Current value of counter `key` (zero if never touched).
    pub fn counter(&self, key: &str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    /// Sets the gauge `key` to `value`.
    pub fn set_gauge(&mut self, key: &str, value: f64) {
        match self.gauges.get_mut(key) {
            Some(v) => *v = value,
            None => {
                self.gauges.insert(key.to_owned(), value);
            }
        }
    }

    /// Current value of gauge `key`.
    pub fn gauge(&self, key: &str) -> Option<f64> {
        self.gauges.get(key).copied()
    }

    /// Records `value` into the histogram `key`, creating it with
    /// [`TICK_BUCKETS`] on first use.
    pub fn observe(&mut self, key: &str, value: f64) {
        match self.histograms.get_mut(key) {
            Some(h) => h.record(value),
            None => {
                let mut h = FixedHistogram::ticks();
                h.record(value);
                self.histograms.insert(key.to_owned(), h);
            }
        }
    }

    /// Merges `histogram` into the histogram `key` (see
    /// [`FixedHistogram::merge`]), creating it as a copy on first use.
    pub fn merge_histogram(&mut self, key: &str, histogram: &FixedHistogram) {
        match self.histograms.get_mut(key) {
            Some(h) => h.merge(histogram),
            None => {
                self.histograms.insert(key.to_owned(), histogram.clone());
            }
        }
    }

    /// Replaces the histogram `key` with a prebuilt snapshot. Used by
    /// recorders that aggregate outside the store — e.g. the per-shard
    /// window histograms the sharded kernel fills — and publish the
    /// finished snapshot afterwards.
    pub fn install_histogram(&mut self, key: &str, histogram: FixedHistogram) {
        self.histograms.insert(key.to_owned(), histogram);
    }

    /// The histogram `key`, if any value was ever observed.
    pub fn histogram(&self, key: &str) -> Option<&FixedHistogram> {
        self.histograms.get(key)
    }

    /// Iterates over all counters in key order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Iterates over all gauges in key order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> {
        self.gauges.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Iterates over all histograms in key order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &FixedHistogram)> {
        self.histograms.iter().map(|(k, h)| (k.as_str(), h))
    }

    /// Merges another sink into this one (counters add, gauges overwrite,
    /// histograms merge bucket by bucket). Used by parallel sweeps and by
    /// the sharded kernel's canonical-order emission.
    pub fn absorb(&mut self, other: &Stats) {
        for (k, &v) in &other.counters {
            self.add(k, v);
        }
        for (k, &v) in &other.gauges {
            self.set_gauge(k, v);
        }
        for (k, h) in &other.histograms {
            self.merge_histogram(k, h);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut s = Stats::new();
        s.incr("tx");
        s.add("tx", 4);
        assert_eq!(s.counter("tx"), 5);
        assert_eq!(s.counter("never"), 0);
    }

    #[test]
    fn gauges_overwrite() {
        let mut s = Stats::new();
        s.set_gauge("load", 0.5);
        s.set_gauge("load", 0.9);
        assert_eq!(s.gauge("load"), Some(0.9));
        assert_eq!(s.gauge("missing"), None);
    }

    #[test]
    fn absorb_merges_everything() {
        let mut a = Stats::new();
        a.add("tx", 2);
        a.observe("lat", 1.0);
        let mut b = Stats::new();
        b.add("tx", 3);
        b.add("rx", 1);
        b.observe("lat", 3.0);
        b.observe("fresh", 9.0);
        b.set_gauge("g", 7.0);
        a.absorb(&b);
        assert_eq!(a.counter("tx"), 5);
        assert_eq!(a.counter("rx"), 1);
        let lat = a.histogram("lat").unwrap();
        assert_eq!(
            (lat.count(), lat.sum(), lat.min(), lat.max()),
            (2, 4.0, 1.0, 3.0)
        );
        assert_eq!(a.histogram("fresh").unwrap().count(), 1);
        assert_eq!(a.gauge("g"), Some(7.0));
    }

    #[test]
    fn counters_iterate_in_key_order() {
        let mut s = Stats::new();
        s.incr("b");
        s.incr("a");
        s.incr("c");
        let keys: Vec<&str> = s.counters().map(|(k, _)| k).collect();
        assert_eq!(keys, vec!["a", "b", "c"]);
    }

    #[test]
    fn gauges_and_histograms_iterate_in_key_order() {
        let mut s = Stats::new();
        s.set_gauge("z", 1.0);
        s.set_gauge("a", 2.0);
        s.observe("lat", 3.0);
        s.observe("lat", 5.0);
        let gauges: Vec<(&str, f64)> = s.gauges().collect();
        assert_eq!(gauges, vec![("a", 2.0), ("z", 1.0)]);
        let hists: Vec<&str> = s.histograms().map(|(k, _)| k).collect();
        assert_eq!(hists, vec!["lat"]);
        let lat = s.histograms().next().unwrap().1;
        assert_eq!(lat.uppers(), &TICK_BUCKETS);
        assert_eq!((lat.count(), lat.sum()), (2, 8.0));
    }

    #[test]
    fn histogram_bucket_semantics() {
        let mut h = FixedHistogram::new(&[1.0, 10.0]);
        for v in [0.5, 1.0, 3.0, 10.0, 11.0] {
            h.record(v);
        }
        // le=1: {0.5, 1.0}; le=10: {3, 10}; +Inf: {11}.
        assert_eq!(h.bucket_counts(), &[2, 2, 1]);
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 25.5);
        assert_eq!(h.min(), 0.5);
        assert_eq!(h.max(), 11.0);
        assert!((h.mean() - 5.1).abs() < 1e-12);
    }

    #[test]
    fn histogram_quantiles_are_ordered_and_bounded() {
        let mut h = FixedHistogram::ticks();
        for v in 0..1000 {
            h.record(f64::from(v % 97));
        }
        let q50 = h.quantile(0.5);
        let q99 = h.quantile(0.99);
        assert!(q50 <= q99);
        assert!(q50 >= h.min() && q99 <= h.max());
    }

    #[test]
    fn empty_histogram_percentiles_are_finite_zeros() {
        let h = FixedHistogram::ticks();
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 0.0);
        }
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 0.0);
    }

    #[test]
    fn quantile_tolerates_out_of_range_and_nan_q() {
        let mut h = FixedHistogram::new(&[10.0]);
        h.record(4.0);
        h.record(6.0);
        assert_eq!(h.quantile(-3.0), h.quantile(0.0));
        assert_eq!(h.quantile(7.0), h.quantile(1.0));
        let q = h.quantile(f64::NAN);
        assert!(q.is_finite());
        assert_eq!(q, h.quantile(0.0));
    }

    fn recorded(values: &[f64]) -> FixedHistogram {
        let mut h = FixedHistogram::ticks();
        for &v in values {
            h.record(v);
        }
        h
    }

    #[test]
    fn merge_with_empty_sides() {
        let empty = FixedHistogram::ticks();
        let mut both_empty = empty.clone();
        both_empty.merge(&empty);
        assert_eq!(both_empty, empty);

        let x = recorded(&[3.0, 7.0]);
        let mut empty_then_x = empty.clone();
        empty_then_x.merge(&x);
        assert_eq!(empty_then_x, x);

        let mut x_then_empty = x.clone();
        x_then_empty.merge(&empty);
        assert_eq!(x_then_empty, x);
    }

    #[test]
    fn merge_equals_recording_in_sequence() {
        // Negative, zero, in-bucket, and +Inf-bucket values on both
        // sides, with the extremes split across the two halves.
        let first = [5.0, 0.0, 4096.0, 2.0];
        let second = [-3.0, 9000.0, 1.0, 17.0, 5.0];
        let mut merged = recorded(&first);
        merged.merge(&recorded(&second));
        let all: Vec<f64> = first.iter().chain(&second).copied().collect();
        let sequential = recorded(&all);
        assert_eq!(merged.bucket_counts(), sequential.bucket_counts());
        assert_eq!(merged.count(), sequential.count());
        assert_eq!(merged.sum(), sequential.sum());
        assert_eq!(merged.min(), sequential.min());
        assert_eq!(merged.max(), sequential.max());
        assert_eq!(merged, sequential);
    }

    #[test]
    #[should_panic(expected = "mismatched buckets")]
    fn merge_refuses_mismatched_buckets() {
        FixedHistogram::ticks().merge(&FixedHistogram::new(&[1.0]));
    }

    #[test]
    fn clear_forgets_observations_but_keeps_bounds() {
        let mut h = recorded(&[3.0, 300.0]);
        h.clear();
        assert_eq!(h, FixedHistogram::ticks());
    }
}
