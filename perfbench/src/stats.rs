//! Order statistics and span self times.

use crate::probe::{Kind, Span};
use std::collections::HashMap;

/// The fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The `q` quantile of `samples` (linear interpolation between order
/// statistics), or `None` when fewer than [`MIN_BEYOND`] samples lie
/// beyond it.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    #[allow(clippy::cast_precision_loss)]
    let enough = samples.len() as f64 * (1.0 - q) >= MIN_BEYOND as f64;
    enough.then(|| quantile(samples, q))
}

/// The median of a non-empty sample, whatever its size (for medians over
/// repetitions, which are few by design).
pub fn median(samples: &[f64]) -> Option<f64> {
    (!samples.is_empty()).then(|| quantile(samples, 0.5))
}

fn quantile(samples: &[f64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    #[allow(clippy::cast_precision_loss)]
    let rank = q * (sorted.len() - 1) as f64;
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let lo = rank.floor() as usize;
    let hi = (lo + 1).min(sorted.len() - 1);
    #[allow(clippy::cast_precision_loss)]
    let frac = rank - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

/// Per-kind totals over a repetition's spans, in seconds.
#[derive(Debug, Default, Clone)]
pub struct Ledger {
    /// Summed durations, by [`Kind`] index.
    total_s: [f64; Kind::ALL.len()],
    /// Summed self times: each span's duration minus the part of it that
    /// its children cover.
    self_s: [f64; Kind::ALL.len()],
    /// Span counts.
    count: [u64; Kind::ALL.len()],
}

fn index(kind: Kind) -> usize {
    Kind::ALL
        .iter()
        .position(|k| *k == kind)
        .expect("every kind is listed")
}

impl Ledger {
    pub fn total(&self, kind: Kind) -> f64 {
        self.total_s[index(kind)]
    }

    pub fn self_time(&self, kind: Kind) -> f64 {
        self.self_s[index(kind)]
    }

    pub fn count(&self, kind: Kind) -> u64 {
        self.count[index(kind)]
    }
}

/// Nanoseconds as seconds.
#[allow(clippy::cast_precision_loss)]
pub fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// Builds the ledger. Children that overlap (sessions multiplexed on one
/// check) are merged before their cover is subtracted, so self time is
/// never negative.
pub fn ledger(spans: &[Span]) -> Ledger {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for span in spans {
        children
            .entry(span.parent)
            .or_default()
            .push((span.start, span.end));
    }
    let mut out = Ledger::default();
    for span in spans {
        let k = index(span.kind);
        let duration = span.end - span.start;
        let covered = children
            .get_mut(&span.id)
            .map_or(0, |intervals| union_within(intervals, span.start, span.end));
        out.total_s[k] += secs(duration);
        out.self_s[k] += secs(duration - covered);
        out.count[k] += 1;
    }
    out
}

/// The length of the union of `intervals`, clipped to `[lo, hi]`.
fn union_within(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(start, end) in intervals.iter() {
        let start = start.max(reach);
        let end = end.min(hi);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

/// The gaps between one executor instance's consecutive sends: the time
/// from a reply to the checker's next send, in seconds.
pub fn think_gaps(spans: &[Span]) -> Vec<f64> {
    let mut steps: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for span in spans.iter().filter(|s| s.kind == Kind::Step) {
        steps
            .entry(span.parent)
            .or_default()
            .push((span.start, span.end));
    }
    let mut gaps = Vec::new();
    for run in steps.values_mut() {
        run.sort_unstable();
        gaps.extend(run.windows(2).map(|w| secs(w[1].0 - w[0].1)));
    }
    gaps
}

/// The durations of every span of `kind`, in seconds.
pub fn durations(spans: &[Span], kind: Kind) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.kind == kind)
        .map(|s| secs(s.end - s.start))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, kind: Kind, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            kind,
            start,
            end,
        }
    }

    #[test]
    fn percentiles_need_ten_samples_beyond() {
        let samples: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(percentile(&samples, 0.5), Some(20.5));
        assert_eq!(percentile(&samples, 0.75), Some(30.25));
        assert_eq!(percentile(&samples, 0.99), None);
        assert_eq!(percentile(&samples[..19], 0.5), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, 0, Kind::Rep, 0, 100),
            span(2, 1, Kind::Check, 10, 90),
            // Two overlapping runs cover 20..70 once.
            span(3, 2, Kind::Run, 20, 60),
            span(4, 2, Kind::Run, 30, 70),
            span(5, 3, Kind::Step, 25, 35),
        ];
        let l = ledger(&spans);
        let ns = |x: f64| (x * 1e9).round();
        assert_eq!(ns(l.self_time(Kind::Rep)), 20.0);
        assert_eq!(ns(l.self_time(Kind::Check)), 30.0);
        assert_eq!(ns(l.self_time(Kind::Run)), 30.0 + 40.0);
        assert_eq!(ns(l.total(Kind::Run)), 80.0);
        assert_eq!(l.count(Kind::Run), 2);
        assert_eq!(ns(l.self_time(Kind::Step)), 10.0);
    }

    #[test]
    fn think_gaps_are_per_instance() {
        let spans = [
            span(10, 3, Kind::Step, 0, 5),
            span(11, 3, Kind::Step, 8, 9),
            span(12, 4, Kind::Step, 1, 2),
            span(13, 4, Kind::Step, 6, 7),
        ];
        let mut gaps: Vec<f64> = think_gaps(&spans).iter().map(|g| g * 1e9).collect();
        gaps.sort_by(f64::total_cmp);
        assert_eq!(gaps.len(), 2);
        assert!((gaps[0] - 3.0).abs() < 1e-6 && (gaps[1] - 4.0).abs() < 1e-6);
    }
}
