//! # quickstrom-checker
//!
//! The Quickstrom checker: it evaluates QuickLTL formulae by progression
//! and selects actions to perform (§3.4). Nothing here is specific to any
//! executor — "paired with a different executor, the same checker could be
//! used to test any reactive system".
//!
//! The flow per property:
//!
//! 1. Send [`Start`](quickstrom_protocol::CheckerMsg::Start) with the
//!    selector dependencies from static analysis.
//! 2. Wait for the property's initial event (`loaded?`).
//! 3. Loop: progress the formula through each new state; stop on a
//!    definitive verdict; otherwise pick an enabled action uniformly at
//!    random and request it with the current trace version. Stale requests
//!    (an asynchronous event grew the trace first, Figure 10) are ignored
//!    by the executor, and the checker re-decides.
//! 4. A run may end once the action budget is spent and the formula no
//!    longer demands more states; failing runs yield replayable, shrinkable
//!    counterexamples.
//!
//! With [`CheckOptions::jobs`] greater than one, the runs of a property
//! fan out over an in-tree worker [`pool`]; per-run seeds derive from
//! `(master seed, run index)` ([`derive_run_seed`]), so the report is
//! bit-identical regardless of worker count.
//!
//! There is one evaluation path: each run steps the property's shared
//! evaluation automaton ([`quickltl::TransitionTable`]) through the
//! value-keyed atom memo and the step memo, falling back to the plain
//! stepper ([`quickltl::Evaluator`]) only past the automaton's state cap.
//! The stepper also drives [`explain_failure`], and the reference checker
//! in [`oracle`] — the plain stepper, every atom expanded afresh, on the
//! sequential runtime — is what the differential tests hold production
//! reports to. It is reachable from tests only, never through
//! [`CheckOptions`].
//!
//! By default each run itself executes on the two-stage *pipelined*
//! runtime (`pipeline`): a driver stage owns the executor and the action
//! strategy while an evaluator stage progresses the formula, lagging by up
//! to [`CheckOptions::pipeline_depth`] states; a definitive verdict
//! cancels the driver and discards the speculative tail, keeping reports
//! bit-identical to the sequential engine
//! ([`CheckOptions::pipeline`]` = `[`PipelineMode::Off`]).
//!
//! ## Example
//!
//! A complete check against a tiny hand-rolled executor (real executors
//! live in the `quickstrom-executor` and `ccs` crates):
//!
//! ```
//! use quickstrom_checker::{check_spec, CheckOptions};
//! use quickstrom_protocol::{
//!     CheckerMsg, ElementState, Executor, ExecutorMsg, StateSnapshot,
//! };
//!
//! /// An executor whose single element `#light` toggles on every click.
//! struct Blinker {
//!     on: bool,
//! }
//!
//! impl Blinker {
//!     fn snapshot(&self) -> StateSnapshot {
//!         let mut s = StateSnapshot::new();
//!         s.insert_query(
//!             "#light",
//!             vec![ElementState::with_text(if self.on { "on" } else { "off" })],
//!         );
//!         s
//!     }
//! }
//!
//! // A minimal executor ships full snapshots; incremental executors send
//! // `SnapshotDelta`s after the first state (see `quickstrom-executor`).
//! impl Executor for Blinker {
//!     fn send(&mut self, msg: CheckerMsg) -> Vec<ExecutorMsg> {
//!         match msg {
//!             CheckerMsg::Start { .. } => {
//!                 vec![ExecutorMsg::event("loaded?", Vec::new(), self.snapshot())]
//!             }
//!             CheckerMsg::Act { .. } => {
//!                 self.on = !self.on;
//!                 vec![ExecutorMsg::acted(self.snapshot())]
//!             }
//!             _ => vec![],
//!         }
//!     }
//! }
//!
//! let spec = specstrom::load(
//!     "action flip! = click!(`#light`);\n\
//!      let ~p = always[6] eventually[2] (`#light`.text == \"on\");\n\
//!      check p with flip!;",
//! )
//! .unwrap();
//! let options = CheckOptions::default().with_tests(3).with_max_actions(10);
//! let report = check_spec(&spec, &options, &|| {
//!     Box::new(Blinker { on: false })
//! })
//! .unwrap();
//! assert!(report.passed());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod explain;
pub mod options;
pub mod oracle;
mod pipeline;
pub mod pool;
pub mod report;
mod run;
pub mod runner;
mod session;

pub use explain::explain_failure;
pub use options::{CheckOptions, FingerprintMode, PipelineMode, SelectionStrategy};
pub use quickstrom_explore::{CoverageStats, StateFingerprint};
pub use quickstrom_obs::{FailureExplanation, MetricsRegistry, ObsOptions, TraceLog, TraceOptions};
pub use report::{Counterexample, PhaseTimings, PropertyReport, Report, RunResult, TraceEntry};
pub use runner::{
    check_property, check_property_observed, check_spec, check_spec_observed, derive_run_seed,
    CheckError, MakeExecutor, ObsArtifacts, RunObs,
};
