//! Span sinks: cheap per-worker trace recording.
//!
//! The design centers on one invariant: a **disabled** sink must cost a
//! single branch per call site — no clock read, no allocation, no
//! formatting. The checker therefore threads a [`TraceSink`] value (not a
//! global) through every run, and the hot paths call
//! [`TraceSink::open`]/[`TraceSink::close`] unconditionally; when the inner
//! recorder is absent those calls return immediately.
//!
//! Spans carry two clocks:
//!
//! - `start_us`/`dur_us`: wall-clock microseconds since a common origin
//!   `Instant`, used only for rendering (chrome://tracing, timelines).
//!   These never appear in deterministic artifacts.
//! - `seq_open`/`seq_close`: a per-track monotone logical sequence. The
//!   proptests in the bench crate check nesting well-formedness against
//!   the logical clock, which is stable across machines and load.

use std::time::Instant;

/// What a span (or instant event) represents. The discriminants map to
/// chrome://tracing event names via [`SpanKind::as_str`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// One whole run: from session start to verdict (or budget exhaustion).
    Run,
    /// One session step: ingest of one state, including atom expansion and
    /// formula progression.
    Step,
    /// One `Executor::send` round-trip (await of the executor reply).
    Send,
    /// The atom expansion batch inside a step (observation construction).
    Atoms,
    /// One table-driven automaton transition (or stepper fallback).
    AutomatonStep,
    /// The whole shrink search for one counterexample.
    Shrink,
    /// One shrink candidate replay.
    ShrinkReplay,
    /// Instant event: a definitive verdict was reached.
    Verdict,
}

impl SpanKind {
    /// The event name used in exported traces.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            SpanKind::Run => "run",
            SpanKind::Step => "step",
            SpanKind::Send => "send",
            SpanKind::Atoms => "atoms",
            SpanKind::AutomatonStep => "automaton_step",
            SpanKind::Shrink => "shrink",
            SpanKind::ShrinkReplay => "shrink_replay",
            SpanKind::Verdict => "verdict",
        }
    }
}

/// An attribute value attached to a span.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// Unsigned counter.
    U64(u64),
    /// Seconds or other floating-point measure.
    F64(f64),
    /// Free-form text (atom names, outcome labels).
    Str(String),
    /// Boolean flag.
    Bool(bool),
}

/// One recorded event: a completed span (`instant == false`) or an instant
/// marker (`instant == true`, `dur_us == 0`, `seq_close == seq_open`).
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// What the event represents.
    pub kind: SpanKind,
    /// Wall-clock microseconds since the sink's origin at open.
    pub start_us: u64,
    /// Wall-clock duration in microseconds.
    pub dur_us: u64,
    /// Logical clock value at open.
    pub seq_open: u64,
    /// Logical clock value at close (equals `seq_open` for instants).
    pub seq_close: u64,
    /// True for zero-duration marker events.
    pub instant: bool,
    /// Attributes attached at close.
    pub attrs: Vec<(&'static str, AttrValue)>,
}

/// The finished recording of one track (chrome://tracing thread).
#[derive(Debug, Clone)]
pub struct TrackLog {
    /// Process id for rendering (the harness groups properties/entries by pid).
    pub pid: u32,
    /// Thread id for rendering; unique per track within a pid.
    pub tid: u64,
    /// Human-readable track name ("run 3", …).
    pub name: String,
    /// Completed events, in close order.
    pub events: Vec<TraceEvent>,
    /// Events discarded because the ring buffer overflowed.
    pub dropped: u64,
}

impl TrackLog {
    /// Checks structural well-formedness of the recorded events: spans must
    /// nest properly (a close order consistent with a stack discipline over
    /// the logical clock), logical clocks must be strictly monotone, and
    /// wall-clock durations must stay inside their parent span.
    ///
    /// Shared between the proptest suite and debug assertions; returns a
    /// description of the first violation.
    pub fn check_well_formed(&self) -> Result<(), String> {
        // Events are recorded in close order; replay them in open order
        // against a stack of enclosing spans. An event opening inside an
        // enclosing span must also close inside it (proper nesting).
        let mut seen_seq: Vec<u64> = Vec::new();
        let mut ordered: Vec<&TraceEvent> = self.events.iter().collect();
        ordered.sort_by_key(|e| e.seq_open);
        let mut open_stack: Vec<(u64, u64)> = Vec::new(); // (seq_open, seq_close)
        for (i, ev) in ordered.iter().enumerate() {
            if ev.seq_close < ev.seq_open {
                return Err(format!("event {i} ({:?}) closes before it opens", ev.kind));
            }
            if ev.instant && ev.seq_close != ev.seq_open {
                return Err(format!("instant event {i} ({:?}) has a span", ev.kind));
            }
            seen_seq.push(ev.seq_open);
            if !ev.instant {
                seen_seq.push(ev.seq_close);
            }
            // Pop completed ancestors: any stacked span that closed before
            // this event opened is finished.
            while let Some(&(_, close)) = open_stack.last() {
                if close < ev.seq_open {
                    open_stack.pop();
                } else {
                    break;
                }
            }
            if let Some(&(open, close)) = open_stack.last() {
                // This event opened inside the enclosing span (guaranteed by
                // the sort and the pop above), so it must close inside too.
                if ev.seq_close >= close {
                    return Err(format!(
                        "event {i} ({:?}) [{}, {}] overlaps enclosing span [{open}, {close}]",
                        ev.kind, ev.seq_open, ev.seq_close
                    ));
                }
            }
            if !ev.instant {
                open_stack.push((ev.seq_open, ev.seq_close));
            }
        }
        // Logical clocks are allocated strictly monotonically per track, so
        // the multiset of all open/close stamps must be duplicate-free.
        seen_seq.sort_unstable();
        if seen_seq.windows(2).any(|w| w[0] == w[1]) {
            return Err("duplicate logical clock values in track".into());
        }
        Ok(())
    }
}

/// Token returned by [`TraceSink::open`]; passed back to `close`.
///
/// A `None` inner means the sink was disabled at open time (or the span was
/// suppressed); `close` on such a token is free.
#[derive(Debug)]
pub struct SpanToken(Option<OpenSpan>);

#[derive(Debug)]
struct OpenSpan {
    kind: SpanKind,
    start_us: u64,
    seq_open: u64,
}

/// Tracing configuration (per check invocation).
#[derive(Debug, Clone)]
pub struct TraceOptions {
    /// Maximum completed events retained per track; the oldest events are
    /// dropped (and counted) beyond this.
    pub track_capacity: usize,
}

impl Default for TraceOptions {
    fn default() -> Self {
        TraceOptions {
            track_capacity: 16 * 1024,
        }
    }
}

/// Top-level observability switchboard passed to the observed check entry
/// points. `ObsOptions::disabled()` is the zero-cost default.
#[derive(Debug, Clone, Default)]
pub struct ObsOptions {
    /// Record spans into per-run tracks when `Some`.
    pub tracing: Option<TraceOptions>,
    /// Record latency histograms and counters.
    pub metrics: bool,
}

impl ObsOptions {
    /// Everything off; observed entry points behave exactly like the plain
    /// ones.
    #[must_use]
    pub fn disabled() -> Self {
        ObsOptions::default()
    }

    /// Tracing and metrics both on with default capacities.
    #[must_use]
    pub fn all() -> Self {
        ObsOptions {
            tracing: Some(TraceOptions::default()),
            metrics: true,
        }
    }

    /// Is any subsystem enabled?
    #[must_use]
    pub fn any(&self) -> bool {
        self.tracing.is_some() || self.metrics
    }
}

struct SinkInner {
    origin: Instant,
    pid: u32,
    tid: u64,
    name: String,
    capacity: usize,
    next_seq: u64,
    events: Vec<TraceEvent>,
    dropped: u64,
}

/// A per-run (or per-stage) span recorder. See the module docs for the
/// cost model; the `Option` box keeps the disabled case to one branch.
pub struct TraceSink(Option<Box<SinkInner>>);

impl std::fmt::Debug for TraceSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.0 {
            None => f.write_str("TraceSink(disabled)"),
            Some(inner) => write!(
                f,
                "TraceSink({:?}, {} events)",
                inner.name,
                inner.events.len()
            ),
        }
    }
}

impl TraceSink {
    /// The no-op sink: every call is a branch on `None`.
    #[must_use]
    pub fn disabled() -> Self {
        TraceSink(None)
    }

    /// A recording sink. `origin` must be shared by every sink in one check
    /// invocation so tracks align on a common timeline.
    #[must_use]
    pub fn enabled(origin: Instant, pid: u32, tid: u64, name: String, capacity: usize) -> Self {
        TraceSink(Some(Box::new(SinkInner {
            origin,
            pid,
            tid,
            name,
            capacity: capacity.max(16),
            next_seq: 0,
            events: Vec::new(),
            dropped: 0,
        })))
    }

    /// Is this sink recording?
    #[inline]
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Opens a span. Free when disabled.
    #[inline]
    pub fn open(&mut self, kind: SpanKind) -> SpanToken {
        match &mut self.0 {
            None => SpanToken(None),
            Some(inner) => {
                let start_us = inner.origin.elapsed().as_micros() as u64;
                let seq_open = inner.next_seq;
                inner.next_seq += 1;
                SpanToken(Some(OpenSpan {
                    kind,
                    start_us,
                    seq_open,
                }))
            }
        }
    }

    /// Closes a span with no attributes.
    #[inline]
    pub fn close(&mut self, token: SpanToken) {
        self.close_with(token, |_| {});
    }

    /// Closes a span, letting `fill` attach attributes. `fill` only runs
    /// when the sink recorded the open, so attribute construction is free
    /// in the disabled case.
    #[inline]
    pub fn close_with(
        &mut self,
        token: SpanToken,
        fill: impl FnOnce(&mut Vec<(&'static str, AttrValue)>),
    ) {
        let (Some(inner), Some(open)) = (&mut self.0, token.0) else {
            return;
        };
        let end_us = inner.origin.elapsed().as_micros() as u64;
        let seq_close = inner.next_seq;
        inner.next_seq += 1;
        let mut attrs = Vec::new();
        fill(&mut attrs);
        inner.push(TraceEvent {
            kind: open.kind,
            start_us: open.start_us,
            dur_us: end_us.saturating_sub(open.start_us),
            seq_open: open.seq_open,
            seq_close,
            instant: false,
            attrs,
        });
    }

    /// Records a zero-duration marker event.
    #[inline]
    pub fn instant(
        &mut self,
        kind: SpanKind,
        fill: impl FnOnce(&mut Vec<(&'static str, AttrValue)>),
    ) {
        let Some(inner) = &mut self.0 else { return };
        let start_us = inner.origin.elapsed().as_micros() as u64;
        let seq = inner.next_seq;
        inner.next_seq += 1;
        let mut attrs = Vec::new();
        fill(&mut attrs);
        inner.push(TraceEvent {
            kind,
            start_us,
            dur_us: 0,
            seq_open: seq,
            seq_close: seq,
            instant: true,
            attrs,
        });
    }

    /// Consumes the sink, returning the recorded track (None when disabled).
    #[must_use]
    pub fn finish(self) -> Option<TrackLog> {
        self.0.map(|inner| TrackLog {
            pid: inner.pid,
            tid: inner.tid,
            name: inner.name,
            events: inner.events,
            dropped: inner.dropped,
        })
    }
}

impl SinkInner {
    fn push(&mut self, ev: TraceEvent) {
        if self.events.len() >= self.capacity {
            // Ring semantics: drop the oldest completed event. O(n) but only
            // on overflow, which the default capacity makes rare; the count
            // is surfaced so truncation is never silent.
            self.events.remove(0);
            self.dropped += 1;
        }
        self.events.push(ev);
    }
}

/// The assembled trace of one check invocation: all tracks, in
/// deterministic (run-index, stage) order.
#[derive(Debug, Clone, Default)]
pub struct TraceLog {
    /// One entry per recorded track.
    pub tracks: Vec<TrackLog>,
}

impl TraceLog {
    /// Total events across tracks.
    #[must_use]
    pub fn event_count(&self) -> usize {
        self.tracks.iter().map(|t| t.events.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sink_records_nothing() {
        let mut sink = TraceSink::disabled();
        let t = sink.open(SpanKind::Run);
        sink.close_with(t, |_| panic!("attr closure must not run when disabled"));
        sink.instant(SpanKind::Verdict, |_| {
            panic!("attr closure must not run when disabled")
        });
        assert!(sink.finish().is_none());
    }

    #[test]
    fn nested_spans_are_well_formed() {
        let mut sink = TraceSink::enabled(Instant::now(), 0, 0, "t".into(), 1024);
        let run = sink.open(SpanKind::Run);
        for _ in 0..3 {
            let step = sink.open(SpanKind::Step);
            let atoms = sink.open(SpanKind::Atoms);
            sink.close(atoms);
            let auto = sink.open(SpanKind::AutomatonStep);
            sink.close_with(auto, |a| a.push(("state", AttrValue::U64(1))));
            sink.close(step);
        }
        sink.instant(SpanKind::Verdict, |a| {
            a.push(("value", AttrValue::Bool(true)))
        });
        sink.close(run);
        let track = sink.finish().expect("enabled");
        assert_eq!(track.events.len(), 11);
        assert_eq!(track.dropped, 0);
        track.check_well_formed().expect("well-formed");
    }

    #[test]
    fn overlapping_spans_are_rejected() {
        // Hand-build an overlap: [0,2] closes inside [1,3]'s span.
        let ev = |open: u64, close: u64| TraceEvent {
            kind: SpanKind::Step,
            start_us: open,
            dur_us: close - open,
            seq_open: open,
            seq_close: close,
            instant: false,
            attrs: Vec::new(),
        };
        let track = TrackLog {
            pid: 0,
            tid: 0,
            name: "t".into(),
            events: vec![ev(0, 2), ev(1, 3)],
            dropped: 0,
        };
        assert!(track.check_well_formed().is_err());
    }

    #[test]
    fn ring_overflow_counts_drops() {
        let mut sink = TraceSink::enabled(Instant::now(), 0, 0, "t".into(), 0);
        for _ in 0..20 {
            let t = sink.open(SpanKind::Step);
            sink.close(t);
        }
        let track = sink.finish().expect("enabled");
        assert_eq!(track.events.len(), 16); // capacity clamped to 16
        assert_eq!(track.dropped, 4);
    }
}
