//! The reference checker (test/bench-only).
//!
//! Production checks step each property's shared evaluation automaton
//! through the value-keyed atom memo and the step memo, on any number of
//! workers and in-flight sessions (see DESIGN.md, *Evaluation automata*).
//! This module runs the same test loop with none of that: every run
//! executes inline, one at a time, in run-index order, and progresses the
//! formula with the plain stepper ([`quickltl::Evaluator`]), expanding
//! every atom afresh at every state — QuickLTL progression exactly as
//! §2.2 states it. The bench crate's `differential_*` suites hold every production
//! configuration to this oracle: their [`Report`]s must be equal.
//!
//! It is **not** part of the supported checking pipeline: no option,
//! cargo feature or command-line flag selects it, and it touches none of
//! the compiled spec's shared caches, so interleaving oracle and
//! production checks of one spec leaves the production counters as they
//! would have been.

use crate::options::CheckOptions;
use crate::report::Report;
use crate::run::Role;
use crate::runner::{self, CheckError, MakeExecutor};
use specstrom::CompiledSpec;

/// Checks every property of every `check` command like
/// [`crate::check_spec`], but with the reference engine: sequential runs
/// on one thread, the plain stepper, no memo. `options.jobs`,
/// `options.multiplex` and the cache bounds are ignored; every other
/// option means what it means in production.
///
/// # Errors
///
/// See [`crate::check_property`].
pub fn check_spec(
    spec: &CompiledSpec,
    options: &CheckOptions,
    make_executor: MakeExecutor<'_>,
) -> Result<Report, CheckError> {
    let options = CheckOptions {
        jobs: 1,
        multiplex: 1,
        ..options.clone()
    };
    runner::check_spec_in(spec, &options, make_executor, Role::Oracle)
}
