//! # Specstrom
//!
//! The Quickstrom specification language (paper §3): a small, terminating
//! language with JavaScript-adjacent syntax in which engineers write
//! QuickLTL properties, declare the actions and events of their
//! application, and issue `check` commands.
//!
//! The pipeline is [`parse_spec`] → [`mod@compile`] → a [`CompiledSpec`] the
//! checker can run. Compilation performs, in order:
//!
//! 1. **Sort checking** ([`sorts`]) — §3's function/data separation.
//! 2. **Interning + slot resolution + lowering** ([`mod@compile`]) — every
//!    identifier and field name becomes a [`quickstrom_protocol::Symbol`],
//!    every variable reference a `(depth, slot)` coordinate, and the AST a
//!    resolved IR with pre-built literal values.
//! 3. **Environment construction** ([`spec`]) — eager bindings evaluated
//!    at definition time, deferred ones captured as compiled thunks,
//!    actions/events registered with guards and timeouts.
//! 4. **Dependency analysis** ([`analysis`]) — the §3.3 selector list for
//!    executor instrumentation.
//!
//! Per-state evaluation then runs the compiled IR ([`mod@eval`]) against a
//! slot-indexed environment: no string comparison or hashing happens on
//! the formula-progression hot path. The original tree-walking
//! interpreter is preserved in [`mod@reference`] (test/bench-only), and
//! differential property tests pin `compiled ≡ reference`.
//!
//! ## Example
//!
//! ```
//! use specstrom::load;
//!
//! let compiled = load(
//!     r#"
//!     let ~stopped = `#toggle`.text == "start";
//!     action start! = click!(`#toggle`) when stopped;
//!     let ~prop = always[10] (start! in happened ==> eventually[5] !stopped);
//!     check prop;
//!     "#,
//! )
//! .unwrap();
//! assert_eq!(compiled.dependencies.len(), 1);
//! assert!(compiled.property_thunk("prop").is_some());
//! ```
//!
//! ## Evaluation control (§3.1)
//!
//! Deferred bindings (`let ~x = …`, `~param`) capture expressions
//! unevaluated and re-run them at every use, against the then-current
//! state. The paper's `evovae` example — "x shall forever have the value it
//! had initially" — type-checks and means what it should:
//!
//! ```
//! use specstrom::load;
//! let compiled = load(
//!     "fun evovae(~x) { let v = x; always (x == v) }\n\
//!      let ~p = evovae(`#field`.text);\n\
//!      check p with noop!;",
//! )
//! .unwrap();
//! assert!(compiled.property_thunk("p").is_some());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod analysis;
pub mod ast;
pub mod atomc;
pub mod compile;
pub mod error;
pub mod eval;
pub mod lexer;
pub mod parser;
pub mod pretty;
pub mod reference;
pub mod sorts;
pub mod spec;
pub mod value;

pub use analysis::{
    analyze_compiled, dependencies, dependencies_of, footprint_of_ir, footprint_of_thunk, line_col,
    lint, AtomFootprint, AtomInfo, Diagnostic, DiagnosticCode, PropertyAnalysis, SelectorUse,
    SpecAnalysis,
};
pub use atomc::{AtomKeyer, AtomMemo, MemoEntry, WordMap, WordSet};
pub use compile::{compile_expr, initial_env, Ir};
pub use error::{EvalError, SpecError};
pub use eval::{element_record, eval_guard, expand_thunk, to_formula, EvalCtx};
pub use parser::{parse_expr, parse_spec};
pub use pretty::{pretty_expr, pretty_item, pretty_spec};
pub use spec::{
    compile, load, CheckDef, CompiledSpec, PropertyCache, PropertyCaches, StepEntry, StepMemo,
    StepNext,
};
pub use value::{ActionValue, Binding, Builtin, Env, SlotParam, Thunk, Value};
