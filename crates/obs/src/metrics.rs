//! Metrics registry: named counters and fixed-bucket histograms.
//!
//! The registry is the seam ROADMAP item 2's fleet aggregation plugs into:
//! per-run recorders merge into per-property registries in run-index order,
//! per-property registries merge into sweep-level ones, and the result
//! exports as Prometheus text or as p50/p95/p99 columns in the table1 JSON.
//!
//! Buckets are fixed at construction so merging is a plain vector add —
//! no rebinning, and the merge is associative and deterministic.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

/// Exponential latency bucket bounds in seconds: 1 µs … ~1 s, ×2 per step.
/// Chosen to cover everything from a memoized table lookup (sub-µs rounds
/// to the first bucket) to a slow remote executor round-trip.
pub const LATENCY_BOUNDS_S: &[f64] = &[
    1e-6, 2e-6, 4e-6, 8e-6, 16e-6, 32e-6, 64e-6, 128e-6, 256e-6, 512e-6, 1e-3, 2e-3, 4e-3, 8e-3,
    16e-3, 32e-3, 64e-3, 128e-3, 256e-3, 512e-3, 1.0,
];

/// Bucket bounds for small nonnegative integer distributions (memo probe
/// depth: expansions requested per step).
pub const DEPTH_BOUNDS: &[f64] = &[
    0.0, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0, 48.0, 64.0, 96.0, 128.0, 192.0,
    256.0,
];

/// A fixed-bucket histogram. `counts.len() == bounds.len() + 1`; the last
/// bucket is the overflow (`> bounds.last()`).
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Upper bucket bounds (inclusive), strictly increasing.
    pub bounds: Vec<f64>,
    /// Observation counts per bucket, plus one overflow bucket.
    pub counts: Vec<u64>,
    /// Sum of all observed values.
    pub sum: f64,
    /// Total observation count.
    pub count: u64,
}

impl Histogram {
    /// An empty histogram over the given bounds.
    #[must_use]
    pub fn new(bounds: &[f64]) -> Self {
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            sum: 0.0,
            count: 0,
        }
    }

    /// Records one observation.
    #[inline]
    pub fn observe(&mut self, value: f64) {
        // partition_point gives the first bound >= value's bucket; linear
        // scan would also do but the bound lists are sorted by construction.
        let idx = self.bounds.partition_point(|&b| b < value);
        self.counts[idx] += 1;
        self.sum += value;
        self.count += 1;
    }

    /// Merges another histogram recorded over identical bounds.
    ///
    /// # Panics
    /// If the bucket bounds differ.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.bounds, other.bounds, "histogram bounds mismatch");
        for (c, o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
        self.sum += other.sum;
        self.count += other.count;
    }

    /// Estimates the `q`-quantile (0 ≤ q ≤ 1) by linear interpolation
    /// within the containing bucket. Returns `None` for an empty histogram.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let rank = q.clamp(0.0, 1.0) * self.count as f64;
        let mut cumulative = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            let next = cumulative + c;
            if (next as f64) >= rank && c > 0 {
                let lo = if i == 0 { 0.0 } else { self.bounds[i - 1] };
                let hi = if i < self.bounds.len() {
                    self.bounds[i]
                } else {
                    // Overflow bucket: report its lower bound; we cannot
                    // interpolate into an unbounded range.
                    return Some(lo);
                };
                let within = (rank - cumulative as f64) / c as f64;
                return Some(lo + (hi - lo) * within.clamp(0.0, 1.0));
            }
            cumulative = next;
        }
        self.bounds.last().copied()
    }

    /// Mean of observed values (`None` when empty).
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }
}

/// Named counters and histograms. `BTreeMap` keys give deterministic
/// iteration for exports and equality.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    /// Monotone named counters.
    pub counters: BTreeMap<String, u64>,
    /// Named histograms.
    pub histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Adds `by` to the named counter.
    pub fn counter(&mut self, name: &str, by: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += by;
    }

    /// Records one observation into the named histogram, creating it over
    /// `bounds` on first use.
    pub fn observe(&mut self, name: &str, bounds: &[f64], value: f64) {
        self.histograms
            .entry(name.to_string())
            .or_insert_with(|| Histogram::new(bounds))
            .observe(value);
    }

    /// Merges `other` into `self`. Associative; callers merge in run-index
    /// order so sweep aggregates are independent of `--jobs`.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (name, by) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += by;
        }
        for (name, hist) in &other.histograms {
            match self.histograms.get_mut(name) {
                Some(mine) => mine.merge(hist),
                None => {
                    self.histograms.insert(name.clone(), hist.clone());
                }
            }
        }
    }

    /// Is anything recorded?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.histograms.is_empty()
    }

    /// Renders the registry in the Prometheus text exposition format.
    /// Every metric name is prefixed with `prefix` (e.g. `quickstrom_`).
    #[must_use]
    pub fn to_prometheus(&self, prefix: &str) -> String {
        let mut out = String::new();
        for (name, value) in &self.counters {
            let _ = writeln!(out, "# TYPE {prefix}{name} counter");
            let _ = writeln!(out, "{prefix}{name} {value}");
        }
        for (name, hist) in &self.histograms {
            let _ = writeln!(out, "# TYPE {prefix}{name} histogram");
            let mut cumulative = 0u64;
            for (i, &c) in hist.counts.iter().enumerate() {
                cumulative += c;
                let le = if i < hist.bounds.len() {
                    format!("{}", hist.bounds[i])
                } else {
                    "+Inf".to_string()
                };
                let _ = writeln!(out, "{prefix}{name}_bucket{{le=\"{le}\"}} {cumulative}");
            }
            let _ = writeln!(out, "{prefix}{name}_sum {}", hist.sum);
            let _ = writeln!(out, "{prefix}{name}_count {}", hist.count);
        }
        out
    }
}

/// Histogram slots inside a [`MetricsRecorder`], in registry-name order.
struct RunMetrics {
    step_latency: Histogram,
    send_latency: Histogram,
    probe_depth: Histogram,
}

/// The per-run fast path for the checker's hot loops: three pre-built
/// histograms behind one `Option` box, so the disabled case is a single
/// branch and no map lookups happen per step.
pub struct MetricsRecorder(Option<Box<RunMetrics>>);

impl std::fmt::Debug for MetricsRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.0 {
            None => f.write_str("MetricsRecorder(disabled)"),
            Some(_) => f.write_str("MetricsRecorder(enabled)"),
        }
    }
}

/// Registry names for the recorder's histograms (shared with exports).
pub const STEP_LATENCY: &str = "step_latency_seconds";
/// See [`STEP_LATENCY`].
pub const SEND_LATENCY: &str = "send_latency_seconds";
/// See [`STEP_LATENCY`].
pub const PROBE_DEPTH: &str = "memo_probe_depth";

impl MetricsRecorder {
    /// The no-op recorder.
    #[must_use]
    pub fn disabled() -> Self {
        MetricsRecorder(None)
    }

    /// A recording recorder with the standard histogram set.
    #[must_use]
    pub fn enabled() -> Self {
        MetricsRecorder(Some(Box::new(RunMetrics {
            step_latency: Histogram::new(LATENCY_BOUNDS_S),
            send_latency: Histogram::new(LATENCY_BOUNDS_S),
            probe_depth: Histogram::new(DEPTH_BOUNDS),
        })))
    }

    /// Is this recorder recording?
    #[inline]
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Records one session-step evaluation latency.
    #[inline]
    pub fn step_latency(&mut self, d: Duration) {
        if let Some(m) = &mut self.0 {
            m.step_latency.observe(d.as_secs_f64());
        }
    }

    /// Records one executor send round-trip latency.
    #[inline]
    pub fn send_latency(&mut self, d: Duration) {
        if let Some(m) = &mut self.0 {
            m.send_latency.observe(d.as_secs_f64());
        }
    }

    /// Records the expansion-probe depth of one step (how many atom
    /// expansions the step requested before memoization).
    #[inline]
    pub fn probe_depth(&mut self, depth: u64) {
        if let Some(m) = &mut self.0 {
            m.probe_depth.observe(depth as f64);
        }
    }

    /// Converts the recorder into a mergeable registry (empty when the
    /// recorder was disabled).
    #[must_use]
    pub fn into_registry(self) -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        if let Some(m) = self.0 {
            reg.histograms.insert(STEP_LATENCY.into(), m.step_latency);
            reg.histograms.insert(SEND_LATENCY.into(), m.send_latency);
            reg.histograms.insert(PROBE_DEPTH.into(), m.probe_depth);
        }
        reg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_interpolate() {
        let mut h = Histogram::new(&[1.0, 2.0, 4.0, 8.0]);
        for v in [0.5, 1.5, 1.5, 3.0, 3.0, 3.0, 6.0, 6.0, 7.0, 10.0] {
            h.observe(v);
        }
        assert_eq!(h.count, 10);
        let p50 = h.quantile(0.5).unwrap();
        assert!((2.0..=4.0).contains(&p50), "p50={p50}");
        // p100 lands in the overflow bucket, whose lower bound is reported.
        assert_eq!(h.quantile(1.0).unwrap(), 8.0);
        assert!(h.quantile(0.0).is_some());
        assert!(Histogram::new(&[1.0]).quantile(0.5).is_none());
    }

    #[test]
    fn merge_equals_combined_observation() {
        let bounds = [1.0, 10.0, 100.0];
        let mut a = Histogram::new(&bounds);
        let mut b = Histogram::new(&bounds);
        let mut both = Histogram::new(&bounds);
        for v in [0.1, 5.0, 50.0] {
            a.observe(v);
            both.observe(v);
        }
        for v in [2.0, 200.0] {
            b.observe(v);
            both.observe(v);
        }
        a.merge(&b);
        assert_eq!(a, both);
    }

    #[test]
    fn registry_merge_is_order_insensitive_for_totals() {
        let mut a = MetricsRegistry::new();
        a.counter("steps", 3);
        a.observe("lat", LATENCY_BOUNDS_S, 1e-5);
        let mut b = MetricsRegistry::new();
        b.counter("steps", 4);
        b.counter("sends", 1);
        b.observe("lat", LATENCY_BOUNDS_S, 1e-3);

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.counters["steps"], 7);
        assert_eq!(ab.histograms["lat"].count, 2);
    }

    #[test]
    fn prometheus_text_shape() {
        let mut reg = MetricsRegistry::new();
        reg.counter("runs_total", 2);
        reg.observe("lat_seconds", &[0.1, 1.0], 0.05);
        reg.observe("lat_seconds", &[0.1, 1.0], 0.5);
        let text = reg.to_prometheus("quickstrom_");
        assert!(text.contains("# TYPE quickstrom_runs_total counter"));
        assert!(text.contains("quickstrom_runs_total 2"));
        assert!(text.contains("quickstrom_lat_seconds_bucket{le=\"0.1\"} 1"));
        assert!(text.contains("quickstrom_lat_seconds_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("quickstrom_lat_seconds_count 2"));
    }

    #[test]
    fn recorder_disabled_is_empty() {
        let mut r = MetricsRecorder::disabled();
        r.step_latency(Duration::from_micros(5));
        r.probe_depth(3);
        assert!(r.into_registry().is_empty());
    }

    #[test]
    fn recorder_round_trips_into_registry() {
        let mut r = MetricsRecorder::enabled();
        r.step_latency(Duration::from_micros(5));
        r.send_latency(Duration::from_micros(7));
        r.probe_depth(3);
        let reg = r.into_registry();
        assert_eq!(reg.histograms[STEP_LATENCY].count, 1);
        assert_eq!(reg.histograms[SEND_LATENCY].count, 1);
        assert_eq!(reg.histograms[PROBE_DEPTH].count, 1);
        assert_eq!(reg.histograms.len(), 3);
    }
}
