//! Structured observability for the Quickstrom stack.
//!
//! This crate is the reproduction's answer to "why did that run do what it
//! did?" — three hand-rolled subsystems, dependency-free in the style of
//! `quickstrom_protocol::wire`:
//!
//! - [`trace`]: per-worker span sinks. A [`TraceSink`] is either a no-op
//!   (one branch per call, no clock reads, no allocation) or a ring-buffered
//!   recorder of open/close span pairs stamped with both wall-clock
//!   microseconds and a monotone logical sequence. Tracks map onto
//!   chrome://tracing threads, one per run plus one per shrink search, so
//!   multiplexed sessions render as separate swim lanes.
//! - [`metrics`]: a named-counter + fixed-bucket-histogram registry with a
//!   deterministic merge, quantile estimation, and Prometheus text
//!   exposition. Per-run [`MetricsRecorder`]s are merged in run-index order
//!   so aggregate metrics are reproducible across `--jobs` settings.
//! - [`explain`]: the [`FailureExplanation`] artifact — a purely logical
//!   (no wall-clock) account of a failing run: the automaton state path
//!   over the final shrunk trace, the atoms whose valuations flipped at
//!   each transition together with their footprint selectors, and the step
//!   where the residual collapsed to `False`.
//!
//! Determinism contract: nothing in this crate influences checker control
//! flow. Enabling tracing or metrics may only add observations on the
//! side; `Report`s must stay bit-identical with observability on or off
//! (pinned by the `differential_obs` suite in the bench crate).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod explain;
pub mod export;
pub mod metrics;
pub mod trace;

pub use explain::{AtomFlip, FailureExplanation, StepExplanation};
pub use export::{chrome_trace_json, render_timeline};
pub use metrics::{Histogram, MetricsRecorder, MetricsRegistry};
pub use trace::{
    AttrValue, ObsOptions, SpanKind, SpanToken, TraceEvent, TraceLog, TraceOptions, TraceSink,
    TrackLog,
};
