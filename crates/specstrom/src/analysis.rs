//! Static analysis of specifications (§3.3 and beyond).
//!
//! Two layers of analysis live here, one per representation:
//!
//! 1. **AST-level dependency analysis** ([`dependencies`],
//!    [`dependencies_of`]): before checking, Quickstrom must know which
//!    parts of the browser state are relevant to the properties at hand —
//!    both to instrument the running application with change listeners and
//!    to retrieve a consistent snapshot in bulk. Because Specstrom
//!    guarantees termination and has no recursion, a simple abstract
//!    interpretation suffices: we walk the binding graph from the
//!    `check`ed properties (plus the allowable actions and declared
//!    events) and collect every reachable selector literal.
//!
//! 2. **Compiled-spec analysis** ([`analyze_compiled`], stored on
//!    `CompiledSpec::analysis`): after compilation the temporal skeleton
//!    of each property is known, and each atomic proposition can be given
//!    an exact *footprint* — the selectors and element projections it can
//!    read ([`AtomFootprint`]). The footprints invert into per-selector
//!    field masks ([`FieldMask`]) that downstream consumers spend in two
//!    hot paths: the checker skips re-evaluating atoms whose selectors a
//!    snapshot delta did not touch, and the exploration engine hashes only
//!    the projections the spec observes. The same pass computes LTL-level
//!    diagnostics (vacuous implications, tautological or unsatisfiable
//!    skeletons, unreachable `until`/`eventually` branches) by running the
//!    QuickLTL simplifier over the abstracted skeleton.
//!
//! Both layers are *sound over-approximations*: any selector or
//! projection the property could read is included (a selector in a
//! dynamically dead branch may be instrumented or re-evaluated
//! unnecessarily, which costs snapshot size or evaluation time but never
//! correctness). The indirect case is covered automatically: in
//! `if `#toggle`.enabled {0} else {1}` the selector literal occurs in the
//! condition and is collected when the expression is reached.
//!
//! [`lint`] combines both layers into user-facing diagnostics with source
//! spans: unused bindings, actions never referenced by any check, and
//! selectors instrumented but never read.

use crate::ast::{BinOp, Expr, Item, LetStmt, Span, Spec, TemporalOp, UnOp};
use crate::compile::Ir;
use crate::spec::CompiledSpec;
use crate::value::{Binding, Builtin, ClosureData, Env, Thunk, Value};
use quickltl::{Demand, Formula};
use quickstrom_protocol::{sym, FieldMask, Selector, Symbol};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::fmt;
use std::sync::Arc;

/// Collects the selectors a set of root names (transitively) depends on.
#[derive(Debug)]
struct Collector<'a> {
    by_name: HashMap<&'a str, &'a Item>,
    visited: HashSet<&'a str>,
    selectors: BTreeSet<Selector>,
    /// First occurrence span of each selector literal, for diagnostics.
    selector_spans: BTreeMap<Selector, Span>,
}

impl<'a> Collector<'a> {
    fn new(spec: &'a Spec) -> Self {
        let mut by_name = HashMap::new();
        for item in &spec.items {
            if let Some(name) = item.name() {
                // Later bindings shadow earlier ones; keep the last.
                by_name.insert(name, item);
            }
        }
        Collector {
            by_name,
            visited: HashSet::new(),
            selectors: BTreeSet::new(),
            selector_spans: BTreeMap::new(),
        }
    }

    fn visit_name(&mut self, name: &str) {
        let Some(&item) = self.by_name.get(name) else {
            return; // builtins and undefined names carry no selectors
        };
        if !self.visited.insert(item.name().expect("named item")) {
            return;
        }
        match item {
            Item::Let(LetStmt { value, .. }) => self.visit_expr(value),
            Item::Fun { body, .. } => self.visit_expr(body),
            Item::Action {
                body,
                timeout,
                guard,
                ..
            } => {
                self.visit_expr(body);
                if let Some(t) = timeout {
                    self.visit_expr(t);
                }
                if let Some(g) = guard {
                    self.visit_expr(g);
                }
            }
            Item::Check { .. } => {}
        }
    }

    fn visit_expr(&mut self, expr: &Expr) {
        match expr {
            Expr::Selector(s, span) => {
                let sel = Selector::new(s.clone());
                self.selector_spans.entry(sel).or_insert(*span);
                self.selectors.insert(sel);
            }
            Expr::Var(name, _) => {
                let name = name.clone();
                self.visit_name(&name);
            }
            Expr::Lit(_, _) | Expr::Happened(_) => {}
            Expr::Call { func, args, .. } => {
                self.visit_expr(func);
                for a in args {
                    self.visit_expr(a);
                }
            }
            Expr::Unary { expr, .. } => self.visit_expr(expr),
            Expr::Binary { lhs, rhs, .. } => {
                self.visit_expr(lhs);
                self.visit_expr(rhs);
            }
            Expr::Member { obj, .. } => self.visit_expr(obj),
            Expr::Index { obj, index, .. } => {
                self.visit_expr(obj);
                self.visit_expr(index);
            }
            Expr::Array(items, _) => {
                for i in items {
                    self.visit_expr(i);
                }
            }
            Expr::If {
                cond,
                then_branch,
                else_branch,
                ..
            } => {
                self.visit_expr(cond);
                self.visit_expr(then_branch);
                self.visit_expr(else_branch);
            }
            Expr::Block { lets, result, .. } => {
                for l in lets {
                    self.visit_expr(&l.value);
                }
                self.visit_expr(result);
            }
            Expr::Temporal { body, .. } => self.visit_expr(body),
            Expr::TemporalBin { lhs, rhs, .. } => {
                self.visit_expr(lhs);
                self.visit_expr(rhs);
            }
        }
    }
}

/// The root names of a specification's `check` items: every checked
/// property plus the allowable actions (the `with`-list when given, every
/// declared action and event otherwise).
///
/// Returns `None` when the spec declares no `check` at all — a library
/// file, where "reachable from a check" is meaningless.
fn explicit_roots(spec: &Spec) -> Option<Vec<String>> {
    let mut roots: Vec<String> = Vec::new();
    let mut any_check = false;
    for item in &spec.items {
        if let Item::Check {
            properties,
            with_actions,
            ..
        } = item
        {
            any_check = true;
            roots.extend(properties.iter().cloned());
            match with_actions {
                Some(actions) => roots.extend(actions.iter().cloned()),
                None => {
                    // Unrestricted: every declared action and event may run.
                    for other in &spec.items {
                        if let Item::Action { name, .. } = other {
                            roots.push(name.clone());
                        }
                    }
                }
            }
        }
    }
    any_check.then_some(roots)
}

/// The selectors relevant to the given root names (property and action
/// names), following the binding graph transitively.
#[must_use]
pub fn dependencies_of(spec: &Spec, roots: &[String]) -> BTreeSet<Selector> {
    let mut collector = Collector::new(spec);
    for root in roots {
        collector.visit_name(root);
    }
    collector.selectors
}

/// The selectors relevant to the whole specification: everything reachable
/// from any `check` item (its properties, its allowable actions — all
/// actions and events when unrestricted).
///
/// A specification without `check` items is analysed from every item, so
/// library files still report their selector footprint.
#[must_use]
pub fn dependencies(spec: &Spec) -> BTreeSet<Selector> {
    let roots = explicit_roots(spec).unwrap_or_else(|| {
        spec.items
            .iter()
            .filter_map(|item| item.name().map(str::to_owned))
            .collect()
    });
    dependencies_of(spec, &roots)
}

// ---------------------------------------------------------------------------
// Atom footprints (compiled-spec layer)
// ---------------------------------------------------------------------------

/// Which element projections of one selector an atom can read.
///
/// The lattice per selector is `∅ ⊑ {field…} ⊑ ⊤` (`all_fields`): an
/// empty, non-`all_fields` use means only the *match list itself* is
/// observed (`.count` / `.present` / action-target enumeration), a field
/// set means exactly those projections, and `all_fields` means the
/// selector escaped precise tracking (it flowed into an opaque position)
/// so every projection must be assumed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SelectorUse {
    /// Exact projection symbols read (e.g. [`sym::TEXT`]).
    pub fields: BTreeSet<Symbol>,
    /// The selector escapes precise tracking: assume every projection.
    pub all_fields: bool,
}

impl SelectorUse {
    /// Joins another use into this one (lattice join).
    pub fn merge(&mut self, other: &SelectorUse) {
        self.all_fields |= other.all_fields;
        self.fields.extend(other.fields.iter().copied());
    }

    /// The use as a protocol-level [`FieldMask`] for spec-aware
    /// fingerprinting. Unknown field symbols degrade to [`FieldMask::ALL`]
    /// (sound: masking may only *drop* projections the spec cannot read).
    #[must_use]
    pub fn field_mask(&self) -> FieldMask {
        if self.all_fields {
            return FieldMask::ALL;
        }
        let mut mask = FieldMask::default();
        for &field in &self.fields {
            if field == sym::TEXT {
                mask.text = true;
            } else if field == sym::VALUE {
                mask.value = true;
            } else if field == sym::CHECKED {
                mask.checked = true;
            } else if field == sym::ENABLED {
                mask.enabled = true;
            } else if field == sym::VISIBLE {
                mask.visible = true;
            } else if field == sym::FOCUSED {
                mask.focused = true;
            } else if field == sym::CLASSES {
                mask.classes = true;
            } else if field == sym::ATTRIBUTES {
                mask.attributes = true;
            } else {
                return FieldMask::ALL;
            }
        }
        mask
    }
}

/// The dependency footprint of one atomic proposition: everything its
/// evaluation can read from a state.
///
/// A sound over-approximation — see the [module docs](self). Evaluation of
/// an atom is a pure function of its compiled code, captured environment,
/// the state restricted to this footprint, and (when `reads_happened`) the
/// state's event list; this purity is what makes footprint-based
/// re-evaluation skipping sound, and what the soundness property test in
/// `tests/footprint_soundness.rs` exercises.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AtomFootprint {
    /// Selectors the atom can query, each with its projection use.
    pub selectors: BTreeMap<Selector, SelectorUse>,
    /// The atom can read the `happened` event list.
    pub reads_happened: bool,
}

impl AtomFootprint {
    /// Joins another footprint into this one.
    pub fn merge(&mut self, other: &AtomFootprint) {
        self.reads_happened |= other.reads_happened;
        for (sel, use_) in &other.selectors {
            self.selectors.entry(*sel).or_default().merge(use_);
        }
    }
}

/// The abstract value of an expression during the footprint walk: either a
/// statically known selector (whose projections the surrounding context
/// can refine) or anything else.
#[derive(Debug, Clone)]
enum Abs {
    Selector(Selector),
    Opaque,
}

fn is_element_field(field: Symbol) -> bool {
    field == sym::TEXT
        || field == sym::VALUE
        || field == sym::CHECKED
        || field == sym::ENABLED
        || field == sym::VISIBLE
        || field == sym::FOCUSED
        || field == sym::CLASSES
        || field == sym::ATTRIBUTES
}

/// Walks compiled code, accumulating the footprint. Abstract frames mirror
/// the environment frames evaluation would push (`let` bindings, call
/// arguments), so `Var { depth, slot }` resolution stays aligned: depths
/// inside the abstract stack resolve to [`Abs`] values, deeper ones into
/// the real captured environment.
#[derive(Default)]
struct FootprintWalker {
    fp: AtomFootprint,
    visited_thunks: HashSet<(usize, usize)>,
    visited_closures: HashSet<(usize, usize)>,
}

impl FootprintWalker {
    fn use_of(&mut self, sel: &Selector) -> &mut SelectorUse {
        self.fp.selectors.entry(*sel).or_default()
    }

    /// A selector flowing into a position the walk cannot refine must be
    /// assumed fully read.
    fn spill(&mut self, abs: &Abs) {
        if let Abs::Selector(sel) = abs {
            self.use_of(sel).all_fields = true;
        }
    }

    fn walk_deferred(&mut self, thunk: &Thunk) {
        if !self.visited_thunks.insert(thunk.identity()) {
            return;
        }
        let mut stack = Vec::new();
        let abs = self.walk(&thunk.ir, &thunk.env, &mut stack);
        self.spill(&abs);
    }

    /// Walks a closure body with every parameter opaque — for closure
    /// *values* that escape (stored in lists, passed to higher-order
    /// builtins) rather than being called at a known site.
    fn walk_closure_opaque(&mut self, closure: &Arc<ClosureData>) {
        let key = (Arc::as_ptr(&closure.body) as usize, closure.env.ptr_id());
        if !self.visited_closures.insert(key) {
            return;
        }
        let mut stack = vec![vec![Abs::Opaque; closure.params.len()]];
        let abs = self.walk(&closure.body, &closure.env, &mut stack);
        self.spill(&abs);
    }

    fn abs_value(&mut self, value: &Value) -> Abs {
        match value {
            Value::Selector(sel) => Abs::Selector(*sel),
            Value::List(items) => {
                for item in items.iter() {
                    let abs = self.abs_value(item);
                    self.spill(&abs);
                }
                Abs::Opaque
            }
            Value::Record(fields) => {
                for item in fields.values() {
                    let abs = self.abs_value(item);
                    self.spill(&abs);
                }
                Abs::Opaque
            }
            Value::Formula(f) => {
                f.for_each_atom(&mut |t| self.walk_deferred(t));
                Abs::Opaque
            }
            Value::Closure(c) => {
                self.walk_closure_opaque(c);
                Abs::Opaque
            }
            Value::Null
            | Value::Bool(_)
            | Value::Int(_)
            | Value::Float(_)
            | Value::Str(_)
            | Value::Builtin(_)
            | Value::Action(_) => Abs::Opaque,
        }
    }

    /// Resolves a callee expression to a function value when it is a plain
    /// variable bound eagerly (the common case: builtins and top-level
    /// `fun`s live in the sealed global frame).
    fn resolve_callee(&self, ir: &Ir, env: &Env, stack: &[Vec<Abs>]) -> Option<Value> {
        match ir {
            Ir::Const(v @ (Value::Builtin(_) | Value::Closure(_)), _) => Some(v.clone()),
            Ir::Var { depth, slot, .. } => {
                let depth = *depth as usize;
                if depth < stack.len() {
                    return None;
                }
                let under = u32::try_from(depth - stack.len()).ok()?;
                match env.get(under, *slot) {
                    Some(Binding::Eager(v)) if v.is_function() => Some(v.clone()),
                    _ => None,
                }
            }
            _ => None,
        }
    }

    fn walk_call(
        &mut self,
        func: &Arc<Ir>,
        args: &[Arc<Ir>],
        env: &Env,
        stack: &mut Vec<Vec<Abs>>,
    ) -> Abs {
        match self.resolve_callee(func, env, stack) {
            Some(Value::Builtin(b)) => {
                match b {
                    // `texts(sel)` reads exactly the `.text` projection.
                    Builtin::Texts => {
                        for arg in args {
                            let abs = self.walk(arg, env, stack);
                            match abs {
                                Abs::Selector(sel) => {
                                    self.use_of(&sel).fields.insert(sym::TEXT);
                                }
                                Abs::Opaque => {}
                            }
                        }
                    }
                    // Action constructors capture the selector as a target;
                    // evaluating the atom reads nothing of its elements, but
                    // the selector must stay in the footprint's key set so
                    // masking treats target enumeration as observable.
                    Builtin::MkClick
                    | Builtin::MkDblClick
                    | Builtin::MkFocus
                    | Builtin::MkInput
                    | Builtin::MkKeyPress
                    | Builtin::MkChanged => {
                        for arg in args {
                            let abs = self.walk(arg, env, stack);
                            if let Abs::Selector(sel) = abs {
                                self.use_of(&sel);
                            }
                        }
                    }
                    _ if b.higher_order() => {
                        if let Some(f_arg) = args.first() {
                            match self.resolve_callee(f_arg, env, stack) {
                                Some(Value::Closure(c)) => self.walk_closure_opaque(&c),
                                Some(Value::Builtin(_)) => {}
                                _ => {
                                    let abs = self.walk(f_arg, env, stack);
                                    self.spill(&abs);
                                }
                            }
                        }
                        for arg in args.iter().skip(1) {
                            let abs = self.walk(arg, env, stack);
                            self.spill(&abs);
                        }
                    }
                    _ => {
                        for arg in args {
                            let abs = self.walk(arg, env, stack);
                            self.spill(&abs);
                        }
                    }
                }
                Abs::Opaque
            }
            Some(Value::Closure(closure)) => {
                // Known call site: arguments become one abstract frame over
                // the closure's own captured environment, so selector
                // arguments stay refinable inside the body.
                let frame: Vec<Abs> = args.iter().map(|a| self.walk(a, env, stack)).collect();
                let mut inner = vec![frame];
                self.walk(&closure.body, &closure.env, &mut inner)
            }
            _ => {
                let abs = self.walk(func, env, stack);
                self.spill(&abs);
                for arg in args {
                    let abs = self.walk(arg, env, stack);
                    self.spill(&abs);
                }
                Abs::Opaque
            }
        }
    }

    #[allow(clippy::too_many_lines)]
    fn walk(&mut self, ir: &Ir, env: &Env, stack: &mut Vec<Vec<Abs>>) -> Abs {
        match ir {
            Ir::Const(v, _) => self.abs_value(v),
            Ir::Var { depth, slot, .. } => {
                let depth = *depth as usize;
                if depth < stack.len() {
                    let frame = &stack[stack.len() - 1 - depth];
                    return frame.get(*slot as usize).cloned().unwrap_or(Abs::Opaque);
                }
                let Ok(under) = u32::try_from(depth - stack.len()) else {
                    return Abs::Opaque;
                };
                match env.get(under, *slot) {
                    Some(Binding::Eager(v)) => {
                        let v = v.clone();
                        self.abs_value(&v)
                    }
                    Some(Binding::Deferred(t)) => {
                        let t = t.clone();
                        // A deferred selector literal refines like a direct
                        // one: each use re-evaluates to the same selector.
                        if let Ir::Const(Value::Selector(sel), _) = &*t.ir {
                            return Abs::Selector(*sel);
                        }
                        self.walk_deferred(&t);
                        Abs::Opaque
                    }
                    None => Abs::Opaque,
                }
            }
            Ir::Happened(_) => {
                self.fp.reads_happened = true;
                Abs::Opaque
            }
            Ir::Call { func, args, .. } => self.walk_call(func, args, env, stack),
            Ir::Unary { expr, .. } => {
                let abs = self.walk(expr, env, stack);
                self.spill(&abs);
                Abs::Opaque
            }
            Ir::Binary { lhs, rhs, .. } => {
                let l = self.walk(lhs, env, stack);
                self.spill(&l);
                let r = self.walk(rhs, env, stack);
                self.spill(&r);
                Abs::Opaque
            }
            Ir::Member { obj, field, .. } => {
                let abs = self.walk(obj, env, stack);
                match abs {
                    Abs::Selector(sel) => {
                        let use_ = self.use_of(&sel);
                        if *field == sym::COUNT || *field == sym::PRESENT {
                            // Match-list-only read: entry presence suffices.
                        } else if is_element_field(*field) {
                            use_.fields.insert(*field);
                        } else {
                            // `.all` materialises full element records; an
                            // unknown projection still queried the selector.
                            use_.all_fields = true;
                        }
                        Abs::Opaque
                    }
                    Abs::Opaque => Abs::Opaque,
                }
            }
            Ir::Index { obj, index, .. } => {
                let abs = self.walk(obj, env, stack);
                if let Abs::Selector(sel) = &abs {
                    // `sel[i]` materialises a full element record.
                    self.use_of(sel).all_fields = true;
                }
                let idx = self.walk(index, env, stack);
                self.spill(&idx);
                Abs::Opaque
            }
            Ir::Array(items, _) => {
                for item in items {
                    let abs = self.walk(item, env, stack);
                    self.spill(&abs);
                }
                Abs::Opaque
            }
            Ir::If {
                cond,
                then_branch,
                else_branch,
                ..
            } => {
                let c = self.walk(cond, env, stack);
                self.spill(&c);
                let t = self.walk(then_branch, env, stack);
                self.spill(&t);
                let e = self.walk(else_branch, env, stack);
                self.spill(&e);
                Abs::Opaque
            }
            Ir::Let { value, body, .. } => {
                // Both eager and deferred bindings: walking the bound
                // expression here over-approximates whenever it is actually
                // evaluated (now or at each use).
                let bound = self.walk(value, env, stack);
                stack.push(vec![bound]);
                let result = self.walk(body, env, stack);
                stack.pop();
                result
            }
            // Temporal bodies become sub-atoms evaluated at later states;
            // folding their reads into the enclosing atom over-approximates
            // in the time dimension, which is all masking needs.
            Ir::Temporal { body, .. } => {
                let abs = self.walk(body, env, stack);
                self.spill(&abs);
                Abs::Opaque
            }
            Ir::TemporalBin { lhs, rhs, .. } => {
                let l = self.walk(lhs, env, stack);
                self.spill(&l);
                let r = self.walk(rhs, env, stack);
                self.spill(&r);
                Abs::Opaque
            }
        }
    }
}

/// The dependency footprint of compiled code in an environment.
#[must_use]
pub fn footprint_of_ir(ir: &Arc<Ir>, env: &Env) -> AtomFootprint {
    let mut walker = FootprintWalker::default();
    let mut stack = Vec::new();
    let abs = walker.walk(ir, env, &mut stack);
    walker.spill(&abs);
    walker.fp
}

/// The dependency footprint of an atomic proposition (a thunk).
#[must_use]
pub fn footprint_of_thunk(thunk: &Thunk) -> AtomFootprint {
    footprint_of_ir(&thunk.ir, &thunk.env)
}

// ---------------------------------------------------------------------------
// Diagnostics
// ---------------------------------------------------------------------------

/// The kind of a spec diagnostic. Stable kebab-case codes via
/// [`DiagnosticCode::as_str`] — these are pinned by fixture tests and
/// surfaced by `evalharness lint --json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DiagnosticCode {
    /// The property's temporal skeleton simplifies to `⊤`: it can never
    /// fail, so checking it is vacuous.
    TautologicalProperty,
    /// The property's temporal skeleton simplifies to `⊥`: it can never
    /// pass.
    UnsatisfiableProperty,
    /// An implication whose antecedent is statically false: the
    /// implication holds trivially and the consequent is never exercised.
    VacuousImplication,
    /// An `eventually` body or `until` right-hand side that is statically
    /// false: the branch can never be satisfied.
    UnreachableBranch,
    /// A `let` or `fun` binding no check ever reaches.
    UnusedBinding,
    /// A declared action or event no check ever references.
    UnusedAction,
    /// A selector that is instrumented (it appears in reachable code) but
    /// whose state no property, guard, or action target ever reads.
    UnusedSelector,
}

impl DiagnosticCode {
    /// The stable kebab-case code string.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            DiagnosticCode::TautologicalProperty => "tautological-property",
            DiagnosticCode::UnsatisfiableProperty => "unsatisfiable-property",
            DiagnosticCode::VacuousImplication => "vacuous-implication",
            DiagnosticCode::UnreachableBranch => "unreachable-branch",
            DiagnosticCode::UnusedBinding => "unused-binding",
            DiagnosticCode::UnusedAction => "unused-action",
            DiagnosticCode::UnusedSelector => "unused-selector",
        }
    }
}

impl fmt::Display for DiagnosticCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One spec diagnostic: a code, a source span (byte offsets into the spec
/// source; see [`line_col`]), and a human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The diagnostic kind.
    pub code: DiagnosticCode,
    /// Byte-offset span in the spec source.
    pub span: Span,
    /// Human-readable explanation.
    pub message: String,
}

/// Converts a byte offset into a 1-based `(line, column)` pair for
/// human-readable diagnostic output.
#[must_use]
pub fn line_col(src: &str, offset: usize) -> (usize, usize) {
    let mut line = 1;
    let mut col = 1;
    for (i, ch) in src.char_indices() {
        if i >= offset {
            break;
        }
        if ch == '\n' {
            line += 1;
            col = 1;
        } else {
            col += 1;
        }
    }
    (line, col)
}

// ---------------------------------------------------------------------------
// Spec analysis (skeletons, masks)
// ---------------------------------------------------------------------------

/// One atomic proposition of a property's temporal skeleton.
#[derive(Debug, Clone)]
pub struct AtomInfo {
    /// The atom's source expression, pretty-printed.
    pub source: String,
    /// Where the atom's code lives in the spec source.
    pub span: Span,
    /// What the atom can read.
    pub footprint: AtomFootprint,
}

/// The static analysis of one checked property.
#[derive(Debug, Clone)]
pub struct PropertyAnalysis {
    /// The property name, as written in the `check`.
    pub name: String,
    /// The atomic propositions of the skeleton, in discovery order.
    pub atoms: Vec<AtomInfo>,
    /// The temporal skeleton over atom indices into `atoms`. Statically
    /// opaque subexpressions are abstracted as atoms, so the skeleton is a
    /// sound abstraction: whatever the simplifier proves about it (for any
    /// atom valuation) holds for the real property.
    pub skeleton: Formula<usize>,
}

/// The static analysis of a compiled specification: per-property atoms and
/// skeletons, the inverted per-selector field masks, and skeleton-level
/// diagnostics. Computed once by `compile` and stored on
/// `CompiledSpec::analysis`.
#[derive(Debug, Clone, Default)]
pub struct SpecAnalysis {
    /// Analyses of the checked properties, in check order, deduplicated.
    pub properties: Vec<PropertyAnalysis>,
    /// Per-selector projection masks: the union of every atom footprint,
    /// guard footprint, and action/event target across all checks. The
    /// spec-aware fingerprint hashes exactly these projections; selectors
    /// outside this map are unobservable to the spec.
    pub masks: Arc<BTreeMap<Selector, FieldMask>>,
    /// Skeleton-level diagnostics (vacuity, unsatisfiability, unreachable
    /// branches). AST-level lints are added separately by [`lint`].
    pub diagnostics: Vec<Diagnostic>,
}

impl SpecAnalysis {
    /// Total number of atomic propositions across all analysed properties.
    #[must_use]
    pub fn atom_count(&self) -> usize {
        self.properties.iter().map(|p| p.atoms.len()).sum()
    }
}

/// Builds a property's temporal skeleton, abstracting statically opaque
/// subexpressions as atoms (deduplicated by thunk identity, mirroring the
/// evaluator's pointer-based atom equality).
struct SkeletonBuilder<'a> {
    property: &'a str,
    atoms: Vec<AtomInfo>,
    atom_ids: HashMap<(usize, usize), usize>,
    diags: Vec<Diagnostic>,
}

impl<'a> SkeletonBuilder<'a> {
    fn new(property: &'a str) -> Self {
        SkeletonBuilder {
            property,
            atoms: Vec::new(),
            atom_ids: HashMap::new(),
            diags: Vec::new(),
        }
    }

    fn leaf(&mut self, ir: &Arc<Ir>, env: &Env) -> Formula<usize> {
        let key = (Arc::as_ptr(ir) as usize, env.ptr_id());
        if let Some(&idx) = self.atom_ids.get(&key) {
            return Formula::atom(idx);
        }
        let idx = self.atoms.len();
        self.atoms.push(AtomInfo {
            source: crate::pretty::pretty_expr(&ir.to_expr()),
            span: ir.span(),
            footprint: footprint_of_ir(ir, env),
        });
        self.atom_ids.insert(key, idx);
        Formula::atom(idx)
    }

    fn thunk_leaf(&mut self, thunk: &Thunk) -> usize {
        let key = thunk.identity();
        if let Some(&idx) = self.atom_ids.get(&key) {
            return idx;
        }
        let idx = self.atoms.len();
        self.atoms.push(AtomInfo {
            source: thunk.to_string(),
            span: thunk.ir.span(),
            footprint: footprint_of_thunk(thunk),
        });
        self.atom_ids.insert(key, idx);
        idx
    }

    fn diag(&mut self, code: DiagnosticCode, span: Span, message: String) {
        self.diags.push(Diagnostic {
            code,
            span,
            message,
        });
    }

    fn build(&mut self, ir: &Arc<Ir>, env: &Env) -> Formula<usize> {
        match &**ir {
            Ir::Const(Value::Bool(b), _) => Formula::constant(*b),
            Ir::Unary {
                op: UnOp::Not,
                expr,
                ..
            } => self.build(expr, env).not(),
            Ir::Binary {
                op: op @ (BinOp::And | BinOp::Or | BinOp::Implies),
                lhs,
                rhs,
                ..
            } => {
                let l = self.build(lhs, env);
                let r = self.build(rhs, env);
                match op {
                    BinOp::And => l.and(r),
                    BinOp::Or => l.or(r),
                    BinOp::Implies => {
                        if quickltl::simplify(l.clone()).as_constant() == Some(false) {
                            self.diag(
                                DiagnosticCode::VacuousImplication,
                                lhs.span(),
                                format!(
                                    "in property `{}`: the antecedent of this implication \
                                     is statically false, so the implication always holds \
                                     and its consequent is never exercised",
                                    self.property
                                ),
                            );
                        }
                        l.implies(r)
                    }
                    _ => unreachable!("guarded by the match pattern"),
                }
            }
            Ir::Temporal {
                op, demand, body, ..
            } => {
                let b = self.build(body, env);
                // Demand values never affect constant-ness, so any stand-in
                // works for the static skeleton.
                let d = Demand(demand.unwrap_or(1));
                match op {
                    TemporalOp::Always => Formula::always(d, b),
                    TemporalOp::Eventually => {
                        if quickltl::simplify(b.clone()).as_constant() == Some(false) {
                            self.diag(
                                DiagnosticCode::UnreachableBranch,
                                body.span(),
                                format!(
                                    "in property `{}`: the body of this `eventually` is \
                                     statically false and can never be satisfied",
                                    self.property
                                ),
                            );
                        }
                        Formula::eventually(d, b)
                    }
                    TemporalOp::Next => b.next(),
                    TemporalOp::NextW => b.weak_next(),
                    TemporalOp::NextS => b.strong_next(),
                }
            }
            Ir::TemporalBin {
                until,
                demand,
                lhs,
                rhs,
                ..
            } => {
                let l = self.build(lhs, env);
                let r = self.build(rhs, env);
                let d = Demand(demand.unwrap_or(1));
                if *until && quickltl::simplify(r.clone()).as_constant() == Some(false) {
                    self.diag(
                        DiagnosticCode::UnreachableBranch,
                        rhs.span(),
                        format!(
                            "in property `{}`: the right-hand side of this `until` is \
                             statically false, so the release condition never arrives",
                            self.property
                        ),
                    );
                }
                if *until {
                    Formula::until(d, l, r)
                } else {
                    Formula::release(d, l, r)
                }
            }
            Ir::Var { depth, slot, .. } => match env.get(*depth, *slot) {
                Some(Binding::Deferred(t)) => {
                    let t = t.clone();
                    self.build(&t.ir, &t.env)
                }
                Some(Binding::Eager(Value::Bool(b))) => Formula::constant(*b),
                Some(Binding::Eager(Value::Formula(f))) => {
                    let f = f.clone();
                    f.map_atoms(&mut |t| self.thunk_leaf(&t))
                }
                _ => self.leaf(ir, env),
            },
            _ => self.leaf(ir, env),
        }
    }
}

/// The span to attach property-level diagnostics to: the property's
/// defining expression when resolvable, the synthetic reference otherwise.
fn property_root_span(thunk: &Thunk) -> Span {
    if let Ir::Var { depth, slot, .. } = &*thunk.ir {
        match thunk.env.get(*depth, *slot) {
            Some(Binding::Deferred(t)) => return t.ir.span(),
            Some(Binding::Eager(_)) | None => {}
        }
    }
    thunk.ir.span()
}

fn merge_uses(uses: &mut BTreeMap<Selector, SelectorUse>, fp: &AtomFootprint) {
    for (sel, use_) in &fp.selectors {
        uses.entry(*sel).or_default().merge(use_);
    }
}

/// Analyses a compiled specification: extracts each checked property's
/// temporal skeleton and atom footprints, inverts them into per-selector
/// field masks, and computes skeleton-level diagnostics.
///
/// Called by `compile` — consumers read the result from
/// `CompiledSpec::analysis`.
#[must_use]
pub fn analyze_compiled(compiled: &CompiledSpec) -> SpecAnalysis {
    let mut analysis = SpecAnalysis::default();
    let mut uses: BTreeMap<Selector, SelectorUse> = BTreeMap::new();
    let mut seen: BTreeSet<&str> = BTreeSet::new();
    for check in &compiled.checks {
        for prop in &check.properties {
            if !seen.insert(prop) {
                continue;
            }
            let Some(thunk) = compiled.property_thunk(prop) else {
                continue;
            };
            let mut builder = SkeletonBuilder::new(prop);
            let skeleton = builder.build(&thunk.ir, &thunk.env);
            match quickltl::simplify(skeleton.clone()).as_constant() {
                Some(true) => analysis.diagnostics.push(Diagnostic {
                    code: DiagnosticCode::TautologicalProperty,
                    span: property_root_span(&thunk),
                    message: format!(
                        "property `{prop}` simplifies to true — it can never fail, \
                         so checking it is vacuous"
                    ),
                }),
                Some(false) => analysis.diagnostics.push(Diagnostic {
                    code: DiagnosticCode::UnsatisfiableProperty,
                    span: property_root_span(&thunk),
                    message: format!("property `{prop}` simplifies to false — it can never pass"),
                }),
                None => {}
            }
            for atom in &builder.atoms {
                merge_uses(&mut uses, &atom.footprint);
            }
            analysis.diagnostics.append(&mut builder.diags);
            analysis.properties.push(PropertyAnalysis {
                name: prop.clone(),
                atoms: builder.atoms,
                skeleton,
            });
        }
        for name in check.actions.iter().chain(&check.events) {
            let Some(action) = compiled.actions.get(name) else {
                continue; // built-ins (`noop!`, `reload!`, `loaded?`)
            };
            if let Some(sel) = &action.selector {
                uses.entry(*sel).or_default();
            }
            if let Some(guard) = &action.guard {
                merge_uses(&mut uses, &footprint_of_thunk(guard));
            }
        }
    }
    analysis.masks = Arc::new(
        uses.iter()
            .map(|(sel, use_)| (*sel, use_.field_mask()))
            .collect(),
    );
    analysis
}

// ---------------------------------------------------------------------------
// Lints
// ---------------------------------------------------------------------------

/// All diagnostics for a specification: the skeleton-level diagnostics
/// from [`analyze_compiled`] plus AST-level lints — unused `let`/`fun`
/// bindings, actions and events never referenced by any check, and
/// selectors that are instrumented but never read.
///
/// A spec without any `check` item gets no unused-* lints (a library file
/// defines things for other specs to use), only skeleton diagnostics
/// (which are also empty, since there are no checked properties).
///
/// Sorted by source position.
#[must_use]
pub fn lint(spec: &Spec, compiled: &CompiledSpec) -> Vec<Diagnostic> {
    let mut diags = compiled.analysis.diagnostics.clone();
    if let Some(roots) = explicit_roots(spec) {
        let mut collector = Collector::new(spec);
        for root in &roots {
            collector.visit_name(root);
        }
        for item in &spec.items {
            let Some(name) = item.name() else { continue };
            // Shadowed duplicates share a name but only the binding the
            // collector resolves (the last) can be reached.
            let reached = collector.visited.contains(name)
                && collector
                    .by_name
                    .get(name)
                    .is_some_and(|&resolved| std::ptr::eq(resolved, item));
            if reached {
                continue;
            }
            match item {
                Item::Let(_) | Item::Fun { .. } => diags.push(Diagnostic {
                    code: DiagnosticCode::UnusedBinding,
                    span: item.span(),
                    message: format!("`{name}` is never used by any check"),
                }),
                Item::Action { .. } => diags.push(Diagnostic {
                    code: DiagnosticCode::UnusedAction,
                    span: item.span(),
                    message: format!("`{name}` is never referenced by any check"),
                }),
                Item::Check { .. } => {}
            }
        }
        for (sel, span) in &collector.selector_spans {
            if !compiled.analysis.masks.contains_key(sel) {
                diags.push(Diagnostic {
                    code: DiagnosticCode::UnusedSelector,
                    span: *span,
                    message: format!(
                        "selector `{sel}` is instrumented but no property, guard, \
                         or action target ever reads it"
                    ),
                });
            }
        }
    }
    diags.sort_by_key(|d| (d.span.start, d.span.end, d.code));
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_spec;
    use crate::spec::load;

    fn deps(src: &str) -> Vec<String> {
        dependencies(&parse_spec(src).unwrap())
            .into_iter()
            .map(|s| s.as_str().to_owned())
            .collect()
    }

    #[test]
    fn direct_dependencies() {
        let got = deps(
            "let ~stopped = `#toggle`.text == \"start\";\n\
             check stopped;",
        );
        assert_eq!(got, vec!["#toggle"]);
    }

    #[test]
    fn indirect_dependencies_through_bindings() {
        let got = deps(
            "let ~t = `#toggle`.enabled;\n\
             let ~u = if t {0} else {1};\n\
             let ~p = u == 0;\n\
             check p;",
        );
        assert_eq!(got, vec!["#toggle"]);
    }

    #[test]
    fn action_guards_and_bodies_are_included() {
        let got = deps(
            "let ~stopped = `#toggle`.text == \"start\";\n\
             action start! = click!(`#start-btn`) when stopped;\n\
             let ~p = true;\n\
             check p;",
        );
        // Unrestricted check: the action's body and guard selectors count.
        assert_eq!(got, vec!["#start-btn", "#toggle"]);
    }

    #[test]
    fn with_list_restricts_action_roots() {
        let got = deps(
            "action a! = click!(`#a`);\n\
             action b! = click!(`#b`);\n\
             let ~p = true;\n\
             check p with a!;",
        );
        assert_eq!(got, vec!["#a"]);
    }

    #[test]
    fn unreached_bindings_are_excluded() {
        let got = deps(
            "let ~unused = `#nope`.text;\n\
             let ~p = `#used`.present;\n\
             check p with noop!;",
        );
        assert_eq!(got, vec!["#used"]);
    }

    #[test]
    fn functions_are_traversed() {
        let got = deps(
            "fun firstText(s) = s;\n\
             let ~p = firstText(`#x`.text) == \"1\";\n\
             check p with noop!;",
        );
        assert_eq!(got, vec!["#x"]);
    }

    #[test]
    fn no_check_analyses_everything() {
        let got = deps("let ~a = `#one`.present; let ~b = `#two`.present;");
        assert_eq!(got, vec!["#one", "#two"]);
    }

    #[test]
    fn dependencies_of_specific_roots() {
        let spec = parse_spec(
            "let ~a = `#one`.present;\n\
             let ~b = `#two`.present;",
        )
        .unwrap();
        let got = dependencies_of(&spec, &["a".to_owned()]);
        assert_eq!(got.len(), 1);
        assert!(got.contains(&Selector::new("#one")));
    }

    // --- footprints -------------------------------------------------------

    /// The footprint of the single checked property of `src`.
    fn property_footprint(src: &str, prop: &str) -> AtomFootprint {
        let compiled = load(src).unwrap();
        let thunk = compiled.property_thunk(prop).expect("property exists");
        footprint_of_thunk(&thunk)
    }

    fn selector_use(fp: &AtomFootprint, sel: &str) -> SelectorUse {
        fp.selectors
            .get(&Selector::new(sel))
            .cloned()
            .unwrap_or_else(|| panic!("selector {sel} not in footprint {fp:?}"))
    }

    #[test]
    fn footprint_tracks_exact_fields() {
        let fp = property_footprint(
            "let ~p = `#a`.text == \"x\" && `#b`.enabled;\n\
             check p with noop!;",
            "p",
        );
        assert_eq!(
            selector_use(&fp, "#a"),
            SelectorUse {
                fields: [sym::TEXT].into_iter().collect(),
                all_fields: false
            }
        );
        assert_eq!(
            selector_use(&fp, "#b"),
            SelectorUse {
                fields: [sym::ENABLED].into_iter().collect(),
                all_fields: false
            }
        );
        assert!(!fp.reads_happened);
    }

    #[test]
    fn footprint_count_and_present_are_match_list_only() {
        let fp = property_footprint("let ~p = `#a`.count == 1 && `#b`.present; check p;", "p");
        assert_eq!(selector_use(&fp, "#a"), SelectorUse::default());
        assert_eq!(selector_use(&fp, "#b"), SelectorUse::default());
    }

    #[test]
    fn footprint_texts_builtin_reads_text() {
        let fp = property_footprint("let ~p = texts(`#list`) == [\"x\"]; check p;", "p");
        assert_eq!(
            selector_use(&fp, "#list"),
            SelectorUse {
                fields: [sym::TEXT].into_iter().collect(),
                all_fields: false
            }
        );
    }

    #[test]
    fn footprint_escaping_selector_spills_to_all_fields() {
        // `.all` materialises full element records.
        let fp = property_footprint("let ~p = length(`#rows`.all) > 0; check p;", "p");
        assert!(selector_use(&fp, "#rows").all_fields);
        // Indexing does too.
        let fp = property_footprint("let ~p = `#rows`[0] == null; check p;", "p");
        assert!(selector_use(&fp, "#rows").all_fields);
    }

    #[test]
    fn footprint_happened_is_tracked() {
        let fp = property_footprint(
            "action tick! = noop!;\n\
             let ~p = tick! in happened;\n\
             check p with tick!;",
            "p",
        );
        assert!(fp.reads_happened);
    }

    #[test]
    fn footprint_follows_bindings_and_functions() {
        let fp = property_footprint(
            "fun txt(s) = s.text;\n\
             let ~mid = txt(`#x`);\n\
             let ~p = mid == \"1\";\n\
             check p;",
            "p",
        );
        assert_eq!(
            selector_use(&fp, "#x"),
            SelectorUse {
                fields: [sym::TEXT].into_iter().collect(),
                all_fields: false
            }
        );
    }

    #[test]
    fn footprint_temporal_bodies_are_included() {
        let fp = property_footprint("let ~p = always (`#a`.visible); check p;", "p");
        assert_eq!(
            selector_use(&fp, "#a"),
            SelectorUse {
                fields: [sym::VISIBLE].into_iter().collect(),
                all_fields: false
            }
        );
    }

    // --- spec analysis ----------------------------------------------------

    #[test]
    fn analysis_masks_cover_atoms_guards_and_targets() {
        let compiled = load(
            "let ~ready = `#status`.text == \"ok\";\n\
             action go! = click!(`#go`) when ready;\n\
             let ~p = always (`#done`.visible);\n\
             check p with go!;",
        )
        .unwrap();
        let masks = &compiled.analysis.masks;
        assert!(masks.get(&Selector::new("#status")).unwrap().text);
        assert!(masks.get(&Selector::new("#done")).unwrap().visible);
        // The click target is observable (count-only mask).
        let target = masks.get(&Selector::new("#go")).unwrap();
        assert!(!target.any());
    }

    #[test]
    fn analysis_finds_tautological_property() {
        let compiled = load("let ~p = always (true || `#x`.visible); check p;").unwrap();
        let codes: Vec<_> = compiled
            .analysis
            .diagnostics
            .iter()
            .map(|d| d.code)
            .collect();
        assert!(
            codes.contains(&DiagnosticCode::TautologicalProperty),
            "{codes:?}"
        );
    }

    #[test]
    fn analysis_finds_vacuous_implication() {
        let compiled =
            load("let ~p = always ((false && `#x`.visible) ==> `#y`.visible); check p;").unwrap();
        let codes: Vec<_> = compiled
            .analysis
            .diagnostics
            .iter()
            .map(|d| d.code)
            .collect();
        assert!(
            codes.contains(&DiagnosticCode::VacuousImplication),
            "{codes:?}"
        );
    }

    #[test]
    fn analysis_clean_spec_has_no_diagnostics() {
        let compiled = load(
            "let ~p = always (`#x`.visible ==> `#y`.visible);\n\
             check p with noop!;",
        )
        .unwrap();
        assert!(compiled.analysis.diagnostics.is_empty());
        assert_eq!(compiled.analysis.atom_count(), 2);
    }

    // --- lints ------------------------------------------------------------

    fn lint_codes(src: &str) -> Vec<DiagnosticCode> {
        let spec = parse_spec(src).unwrap();
        let compiled = crate::spec::compile(&spec).unwrap();
        lint(&spec, &compiled).into_iter().map(|d| d.code).collect()
    }

    #[test]
    fn lint_unused_binding() {
        let codes = lint_codes(
            "let ~dead = `#gone`.text;\n\
             let ~p = `#x`.present;\n\
             check p with noop!;",
        );
        // The dead binding is flagged; its selector is unreachable, so it
        // is *not* additionally an unused selector (it is not instrumented).
        assert_eq!(codes, vec![DiagnosticCode::UnusedBinding]);
    }

    #[test]
    fn lint_unused_action() {
        let codes = lint_codes(
            "action a! = click!(`#a`);\n\
             action b! = click!(`#b`);\n\
             let ~p = `#x`.present;\n\
             check p with a!;",
        );
        assert_eq!(codes, vec![DiagnosticCode::UnusedAction]);
    }

    #[test]
    fn lint_unused_selector() {
        // `#noise` is reachable (instrumented) through the action's timeout
        // guard expression but its element state is never read by the
        // property or guard.
        let codes = lint_codes(
            "let ~p = if `#cond`.present {`#x`.present} else {`#x`.present};\n\
             check p with noop!;",
        );
        assert!(codes.is_empty(), "{codes:?}");
    }

    #[test]
    fn lint_clean_on_library_spec() {
        // No check: library file, no unused-* lints.
        let codes = lint_codes("let ~dead = `#gone`.text;");
        assert!(codes.is_empty(), "{codes:?}");
    }

    #[test]
    fn lint_sorted_by_position() {
        let spec = parse_spec(
            "let ~dead1 = 1;\n\
             let ~dead2 = 2;\n\
             let ~p = `#x`.present;\n\
             check p with noop!;",
        )
        .unwrap();
        let compiled = crate::spec::compile(&spec).unwrap();
        let diags = lint(&spec, &compiled);
        assert_eq!(diags.len(), 2);
        assert!(diags[0].span.start < diags[1].span.start);
        assert!(diags[0].message.contains("dead1"));
    }

    #[test]
    fn line_col_is_one_based() {
        let src = "ab\ncd";
        assert_eq!(line_col(src, 0), (1, 1));
        assert_eq!(line_col(src, 1), (1, 2));
        assert_eq!(line_col(src, 3), (2, 1));
        assert_eq!(line_col(src, 4), (2, 2));
    }
}
