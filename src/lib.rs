//! # Quickstrom
//!
//! A from-scratch Rust reproduction of *"Quickstrom: Property-based
//! Acceptance Testing with LTL Specifications"* (O'Connor & Wickström,
//! PLDI 2022).
//!
//! Quickstrom tests interactive applications against temporal-logic
//! specifications: engineers describe the allowable behaviours of their
//! user interface in [Specstrom](specstrom), a small terminating language
//! embedding the [QuickLTL](quickltl) dialect of Linear Temporal Logic,
//! and the [checker](quickstrom_checker) automatically explores the
//! application with hundreds of generated interactions, evaluating the
//! formula by progression over the observed trace.
//!
//! This facade crate re-exports the whole stack and bundles the
//! specifications and applications used by the paper's evaluation:
//!
//! * [`quickltl`] — the temporal logic: syntax, four-valued verdicts,
//!   formula progression, baseline logics.
//! * [`specstrom`] — the specification language: parser, sort system,
//!   interpreter, dependency analysis.
//! * [`quickstrom_protocol`] / [`quickstrom_checker`] /
//!   [`quickstrom_executor`] — the checker⟷executor split of §3.4.
//! * [`quickstrom_explore`] — coverage-guided exploration: state
//!   fingerprints, pluggable selection strategies, the trace corpus.
//! * [`webdom`] — the virtual browser substrate (see DESIGN.md).
//! * [`ccs`] — the CCS executor mentioned in §3.4.
//! * [`quickstrom_apps`] — egg timer, TodoMVC (+ fault taxonomy), and the
//!   43-implementation registry of Table 1.
//! * [`specs`] — the bundled Specstrom sources.
//!
//! ## Quickstart
//!
//! Check the counter app against its specification (see the root
//! `README.md` for the full tour):
//!
//! ```
//! use quickstrom::prelude::*;
//!
//! let spec = specstrom::load(quickstrom::specs::COUNTER).unwrap();
//! let options = CheckOptions::default()
//!     .with_tests(5)
//!     .with_max_actions(20)
//!     .with_default_demand(10);
//! let report = check_spec(&spec, &options, &|| {
//!     Box::new(WebExecutor::new(quickstrom_apps::Counter::new))
//! })
//! .unwrap();
//! assert!(report.passed(), "{report}");
//! ```
//!
//! Checks parallelise without changing their outcome: add
//! `.with_jobs(4)` to the options and the runs fan out over four worker
//! threads, producing a report identical to the sequential one (per-run
//! seeds derive from `(master seed, run index)`; see
//! [`quickstrom_checker::derive_run_seed`] and DESIGN.md's *Parallel
//! runtime* section).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use ccs;
pub use quickltl;
pub use quickstrom_apps;
pub use quickstrom_checker;
pub use quickstrom_executor;
pub use quickstrom_explore;
pub use quickstrom_obs;
pub use quickstrom_protocol;
pub use specstrom;
pub use webdom;

/// The bundled Specstrom specifications.
pub mod specs {
    /// The formal TodoMVC specification (§4.1).
    pub const TODOMVC: &str = include_str!("../specs/todomvc.strom");
    /// The egg timer specification (Figure 8).
    pub const EGG_TIMER: &str = include_str!("../specs/egg_timer.strom");
    /// The quickstart counter specification.
    pub const COUNTER: &str = include_str!("../specs/counter.strom");
    /// The §2.1 menu liveness specification.
    pub const MENU: &str = include_str!("../specs/menu.strom");
    /// The BigTable data-grid specification — the large-DOM stress
    /// workload for the incremental snapshot pipeline.
    pub const BIGTABLE: &str = include_str!("../specs/bigtable.strom");
    /// The Wizard checkout-corridor specification — the deep-state
    /// workload for the coverage-guided exploration engine.
    pub const WIZARD: &str = include_str!("../specs/wizard.strom");
}

/// The working set for writing and running checks.
pub mod prelude {
    pub use crate::specs;
    pub use quickltl::{Formula, Outcome, Verdict};
    pub use quickstrom_checker::{
        check_property, check_spec, check_spec_observed, CheckOptions, FingerprintMode,
        ObsArtifacts, PipelineMode, Report, SelectionStrategy,
    };
    pub use quickstrom_executor::{LatencyExecutor, WebExecutor, WebExecutorConfig};
    pub use quickstrom_explore::{CoverageStats, StateFingerprint};
    pub use quickstrom_obs::{FailureExplanation, MetricsRegistry, ObsOptions, TraceOptions};
    pub use quickstrom_protocol::{
        Executor, Selector, SnapshotDelta, StateSnapshot, StateUpdate, TransportStats,
    };
    pub use specstrom::{load, CompiledSpec};
}
