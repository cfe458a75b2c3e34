//! # QuickLTL
//!
//! A multi-valued dialect of Linear Temporal Logic for *finite, partial*
//! traces, reproduced from the PLDI 2022 paper *"Quickstrom: Property-based
//! Acceptance Testing with LTL Specifications"* (O'Connor & Wickström).
//!
//! Classical LTL describes *behaviours* — completed, infinite executions.
//! Testing, by contrast, only ever observes a finite *prefix* of an
//! execution, and one that could always be extended by performing more
//! actions. QuickLTL adapts LTL to this setting with two ideas:
//!
//! 1. **Four-valued verdicts** (from RV-LTL): a partial trace can prove a
//!    formula ([`Verdict::DefinitelyTrue`]), refute it
//!    ([`Verdict::DefinitelyFalse`]), or merely suggest an answer
//!    ([`Verdict::PresumablyTrue`] / [`Verdict::PresumablyFalse`]).
//! 2. **Demand annotations**: every temporal operator carries a minimum
//!    number of further states ([`Demand`]) that must be examined before
//!    its presumptive answer is trustworthy, eliminating the spurious
//!    counterexamples that RV-LTL produces when a trace happens to end at
//!    the wrong moment.
//!
//! Formulae are evaluated by *formula progression* ([`Evaluator`]): each
//! observed state unrolls the formula one step (Figure 6 of the paper),
//! simplification yields either a definitive constant or a *guarded form*
//! from which a presumptive verdict is read, and stepping (Figure 7)
//! carries the residual obligation to the next state.
//!
//! ## Quick example
//!
//! ```
//! use quickltl::{parse, Evaluator, Outcome, Verdict};
//!
//! // "The menu is never disabled forever": check at least 6 states, and
//! // after any disablement expect re-enablement within 2 states.
//! let formula = parse("G[6] F[2] menuEnabled").unwrap();
//!
//! // States are just sets of true propositions here.
//! let trace = ["m", "", "m", "", "m", "", "m"];
//! let mut eval = Evaluator::new(formula);
//! for state in trace {
//!     eval.observe::<std::convert::Infallible>(&mut |p| {
//!         Ok(p == "menuEnabled" && state.contains('m'))
//!     })
//!     .unwrap();
//! }
//! // Even though the trace *ends* disabled, the demand annotations let the
//! // alternation count as presumably true — no spurious counterexample.
//! assert_eq!(eval.outcome(), Outcome::Verdict(Verdict::PresumablyTrue));
//! ```
//!
//! ## Module map
//!
//! * [`syntax`](mod@syntax) — [`Formula`], [`Demand`], combinators, printing.
//! * [`progress`](mod@progress) — unroll / simplify / step, [`Evaluator`],
//!   [`check_trace`].
//! * [`automaton`](mod@automaton) — table-driven evaluation: the
//!   [`TransitionTable`], memoized per residual state and observed
//!   expansion shape, which the checker steps in production (falling
//!   back to the [`Evaluator`] past its state cap).
//! * [`verdict`](mod@verdict) — [`Verdict`] and [`Outcome`].
//! * [`finite`](mod@finite) — the Pnueli finite-LTL and RV-LTL baselines.
//! * [`infinite`](mod@infinite) — reference semantics on lasso traces.
//! * [`parse`] — a small concrete syntax for tests and docs.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod automaton;
pub mod finite;
pub mod infinite;
mod parse;
pub mod progress;
pub mod syntax;
pub mod verdict;

pub use automaton::{AtomId, Observation, StateId, TableError, TableStep, TransitionTable};
pub use parse::{parse, ParseError};
pub use progress::{
    check_trace, classify, simplify, simplify_with, unroll, Evaluator, Guarded, NotGuardedError,
    Progress, SimplifyMode, StepReport,
};
pub use syntax::{Demand, Formula};
pub use verdict::{Outcome, Verdict};
