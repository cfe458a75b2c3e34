//! Atom compilation and value-keyed expansion memoization.
//!
//! Formula progression expands every live atom at every observed state —
//! millions of [`Thunk`] evaluations over a registry sweep, even though a
//! typical sweep only ever *visits* a few hundred distinct states. This
//! module removes that redundancy at two levels:
//!
//! 1. **Value-keyed memoization.** An atom's expansion is a pure function
//!    of (a) the atom itself — its compiled code and captured environment —
//!    and (b) the slice of the state its footprint can read
//!    ([`crate::analysis::AtomFootprint`]). [`AtomKeyer`] hashes (a) into a
//!    *semantic* atom key: the IR node by address (compiled once, stable
//!    for the specification's lifetime) and the environment chain by
//!    *content*, so the fresh frames each run's evaluation builds hash
//!    equal whenever they bind equal values. The checker pairs that key
//!    with a projection hash of (b) and looks the expansion up in a
//!    property-level [`AtomMemo`] shared across runs, workers, and shrink
//!    replays (one of the three caches a
//!    [`PropertyCache`](crate::spec::PropertyCache) owns).
//! 2. **Compiled evaluators.** [`compile_atom`] lowers the common atom
//!    shapes — selector projections, comparisons, first-order builtin
//!    calls — into a closure-free [`CompiledExpr`] with selectors and
//!    bindings pre-resolved, so a memo *miss* skips the generic
//!    environment-walking interpreter too. Anything the lowering does not
//!    cover falls back to [`crate::eval::eval`] unchanged; both paths call
//!    the same value-level kernels (`member`, `compare`, `arith`,
//!    `apply_builtin`, …), so they cannot drift apart semantically.
//!
//! Correctness story: memo keys are hashes, so two different projections
//! could in principle collide. Debug builds re-expand on every hit and
//! assert the served expansion is structurally identical
//! ([`MemoEntry::matches_expansion`]); the differential suites in the
//! bench crate run in debug and exercise exactly that path. Eviction (FIFO
//! by first insertion, bounded capacity) only ever causes re-expansion,
//! never a wrong value.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};

use quickltl::Formula;
use quickstrom_protocol::{sym, ProjectionHash, Selector, Symbol};

use crate::analysis::{footprint_of_thunk, AtomFootprint};
use crate::ast::{BinOp, Span, UnOp};
use crate::compile::Ir;
use crate::error::EvalError;
use crate::eval::{
    apply_builtin, as_logical, binary_values, element_field, element_record, expand_thunk,
    index_value, lift, member, query, to_formula, unary_value, EvalCtx, Logical,
};
use crate::value::{Binding, Builtin, Env, Thunk, Value};

// ---------------------------------------------------------------------------
// Semantic atom keys
// ---------------------------------------------------------------------------

/// Hashes atoms into cross-run-stable *semantic* keys.
///
/// A [`Thunk`]'s pointer identity is stable within a run but useless
/// across runs: re-evaluating the same `let` or call rebuilds the same
/// environment frames at fresh addresses. The keyer therefore hashes the
/// IR node by address (evaluation only ever reuses compiled `Arc<Ir>`
/// nodes, never allocates new ones, so the address *is* the code) and the
/// environment chain by content: eager bindings hash their value
/// structurally, deferred bindings hash their captured code-plus-chain.
///
/// Environment-content hashes are memoized per frame address, which makes
/// the compile-time "snapshot" environments (every top-level item captures
/// a copy of the globals defined before it) linear to hash instead of
/// exponential. The cache is only sound while the hashed frames stay
/// alive, so the keyer's owner must pin every keyed thunk for the keyer's
/// lifetime — the checker's per-run atom-info table does exactly that.
#[derive(Debug, Default)]
pub struct AtomKeyer {
    env_hashes: HashMap<usize, u64>,
}

impl AtomKeyer {
    /// A fresh keyer with an empty environment-hash cache.
    #[must_use]
    pub fn new() -> AtomKeyer {
        AtomKeyer::default()
    }

    /// The semantic key of one atom. Deterministic within a process for
    /// live thunks; equal for thunks with the same code and
    /// content-equal environment chains.
    pub fn key(&mut self, thunk: &Thunk) -> u64 {
        let mut h = ProjectionHash::new();
        self.feed_thunk(&mut h, thunk);
        h.finish()
    }

    fn feed_thunk(&mut self, h: &mut ProjectionHash, thunk: &Thunk) {
        h.term(Arc::as_ptr(&thunk.ir) as usize as u64);
        let env_hash = self.env_hash(&thunk.env);
        h.term(env_hash);
    }

    fn env_hash(&mut self, env: &Env) -> u64 {
        let ptr = env.ptr_id();
        if ptr == 0 {
            return 0;
        }
        if let Some(&cached) = self.env_hashes.get(&ptr) {
            return cached;
        }
        // In-progress sentinel: environments are acyclic by construction
        // (frames only reference values created before them), but if a
        // cycle ever appeared this degrades to pointer hashing instead of
        // recursing forever.
        self.env_hashes.insert(ptr, (ptr as u64) | 1);
        let mut h = ProjectionHash::new();
        if let Some((slots, parent)) = env.split_top() {
            h.term(slots.len() as u64);
            for binding in slots {
                match binding {
                    Binding::Eager(v) => {
                        h.flag(false);
                        self.feed_value(&mut h, v);
                    }
                    Binding::Deferred(t) => {
                        h.flag(true);
                        self.feed_thunk(&mut h, t);
                    }
                }
            }
            let parent_hash = self.env_hash(parent);
            h.term(parent_hash);
        }
        let out = h.finish();
        self.env_hashes.insert(ptr, out);
        out
    }

    #[allow(clippy::cast_sign_loss)]
    fn feed_value(&mut self, h: &mut ProjectionHash, v: &Value) {
        match v {
            Value::Null => h.term(0x10),
            Value::Bool(b) => {
                h.term(0x11);
                h.flag(*b);
            }
            Value::Int(n) => {
                h.term(0x12);
                h.term(*n as u64);
            }
            Value::Float(x) => {
                h.term(0x13);
                h.term(x.to_bits());
            }
            Value::Str(s) => {
                h.term(0x14);
                h.text(s);
            }
            Value::List(items) => {
                h.term(0x15);
                h.term(items.len() as u64);
                for item in items.iter() {
                    self.feed_value(h, item);
                }
            }
            Value::Record(fields) => {
                h.term(0x16);
                h.term(fields.len() as u64);
                for (key, value) in fields.iter() {
                    h.text(key.as_str());
                    self.feed_value(h, value);
                }
            }
            Value::Selector(sel) => {
                h.term(0x17);
                h.text(sel.as_str());
            }
            Value::Formula(f) => {
                h.term(0x18);
                self.feed_formula(h, f);
            }
            Value::Closure(c) => {
                h.term(0x19);
                h.term(Arc::as_ptr(&c.body) as usize as u64);
                let env_hash = self.env_hash(&c.env);
                h.term(env_hash);
            }
            Value::Builtin(b) => {
                h.term(0x1A);
                h.text(b.name());
            }
            Value::Action(a) => {
                h.term(0x1B);
                h.text(a.name.as_deref().unwrap_or(""));
                h.text(
                    &a.kind
                        .as_ref()
                        .map_or_else(String::new, |k| format!("{k:?}")),
                );
                h.text(a.selector.as_ref().map_or("", Selector::as_str));
                h.term(a.timeout_ms.map_or(u64::MAX, |t| t));
                h.flag(a.event);
                match &a.guard {
                    None => h.flag(false),
                    Some(g) => {
                        h.flag(true);
                        self.feed_thunk(h, g);
                    }
                }
            }
        }
    }

    fn feed_formula(&mut self, h: &mut ProjectionHash, f: &Formula<Thunk>) {
        match f {
            Formula::Top => h.term(0x20),
            Formula::Bottom => h.term(0x21),
            Formula::Atom(t) => {
                h.term(0x22);
                self.feed_thunk(h, t);
            }
            Formula::Not(a) => {
                h.term(0x23);
                self.feed_formula(h, a);
            }
            Formula::And(a, b) => {
                h.term(0x24);
                self.feed_formula(h, a);
                self.feed_formula(h, b);
            }
            Formula::Or(a, b) => {
                h.term(0x25);
                self.feed_formula(h, a);
                self.feed_formula(h, b);
            }
            Formula::Next(a) => {
                h.term(0x26);
                self.feed_formula(h, a);
            }
            Formula::WeakNext(a) => {
                h.term(0x27);
                self.feed_formula(h, a);
            }
            Formula::StrongNext(a) => {
                h.term(0x28);
                self.feed_formula(h, a);
            }
            Formula::Always(d, a) => {
                h.term(0x29);
                h.term(u64::from(d.0));
                self.feed_formula(h, a);
            }
            Formula::Eventually(d, a) => {
                h.term(0x2A);
                h.term(u64::from(d.0));
                self.feed_formula(h, a);
            }
            Formula::Until(d, a, b) => {
                h.term(0x2B);
                h.term(u64::from(d.0));
                self.feed_formula(h, a);
                self.feed_formula(h, b);
            }
            Formula::Release(d, a, b) => {
                h.term(0x2C);
                h.term(u64::from(d.0));
                self.feed_formula(h, a);
                self.feed_formula(h, b);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Compiled atom evaluators
// ---------------------------------------------------------------------------

/// A closed, closure-free expression compiled from an atom's IR: variable
/// references are resolved through the captured environment at compile
/// time, selector projections become pre-resolved snapshot-slot reads, and
/// operators evaluate through the same value-level kernels as the generic
/// interpreter.
#[derive(Debug)]
pub enum CompiledExpr {
    /// A pre-resolved constant (literal, or an eager binding's value).
    Const(Value),
    /// The `happened` state variable.
    Happened,
    /// `` `sel`.count `` — a pre-resolved element-count read.
    QueryCount(Selector, Span),
    /// `` `sel`.present `` — a pre-resolved presence read.
    QueryPresent(Selector, Span),
    /// `` `sel`.all `` — every matched element as a record.
    QueryAll(Selector, Span),
    /// `` `sel`.field `` — a first-element projection (`Null` when the
    /// selector matches nothing).
    QueryField(Selector, Symbol, Span),
    /// `obj.field` on a computed base (record chains, null-lenient).
    Member {
        /// Base expression.
        obj: Box<CompiledExpr>,
        /// Interned field name.
        field: Symbol,
        /// Location, for error parity with the interpreter.
        span: Span,
    },
    /// `xs[i]`.
    Index {
        /// Collection expression.
        obj: Box<CompiledExpr>,
        /// Index expression.
        index: Box<CompiledExpr>,
        /// Location.
        span: Span,
    },
    /// `[a, b, c]`.
    Array(Vec<CompiledExpr>),
    /// A first-order builtin call with pre-resolved callee.
    Call {
        /// The builtin (never higher-order; arity checked at compile time).
        builtin: Builtin,
        /// Argument expressions, in order.
        args: Vec<CompiledExpr>,
    },
    /// Unary operator application.
    Unary {
        /// The operator.
        op: UnOp,
        /// Operand.
        expr: Box<CompiledExpr>,
        /// Location.
        span: Span,
    },
    /// A short-circuiting logical operator (`&&`, `||`, `==>`), with
    /// boolean lifting exactly as in the interpreter.
    Logic {
        /// The operator (only `And`/`Or`/`Implies`).
        op: BinOp,
        /// Left operand.
        lhs: Box<CompiledExpr>,
        /// Right operand.
        rhs: Box<CompiledExpr>,
        /// Left operand's source span (for lifting errors).
        lhs_span: Span,
        /// Right operand's source span.
        rhs_span: Span,
    },
    /// A non-short-circuiting binary operator (comparisons, `in`,
    /// arithmetic).
    Binary {
        /// The operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<CompiledExpr>,
        /// Right operand.
        rhs: Box<CompiledExpr>,
        /// Location.
        span: Span,
    },
    /// `if c { … } else { … }`.
    If {
        /// Condition (must evaluate to a plain boolean).
        cond: Box<CompiledExpr>,
        /// Then branch.
        then_branch: Box<CompiledExpr>,
        /// Else branch.
        else_branch: Box<CompiledExpr>,
        /// Location.
        span: Span,
    },
}

impl CompiledExpr {
    /// Evaluates the compiled expression against a state.
    ///
    /// # Errors
    ///
    /// Exactly the errors the generic interpreter produces for the same
    /// source expression — both paths share the value-level kernels.
    pub fn eval(&self, ctx: &EvalCtx<'_>) -> Result<Value, EvalError> {
        match self {
            CompiledExpr::Const(v) => Ok(v.clone()),
            CompiledExpr::Happened => {
                let state = ctx.state()?;
                Ok(Value::list(
                    state
                        .happened
                        .iter()
                        .map(|h| Value::str(h.as_str()))
                        .collect(),
                ))
            }
            CompiledExpr::QueryCount(sel, span) => {
                let elements = query(ctx, sel, *span)?;
                Ok(Value::Int(
                    i64::try_from(elements.len()).unwrap_or(i64::MAX),
                ))
            }
            CompiledExpr::QueryPresent(sel, span) => {
                let elements = query(ctx, sel, *span)?;
                Ok(Value::Bool(!elements.is_empty()))
            }
            CompiledExpr::QueryAll(sel, span) => {
                let elements = query(ctx, sel, *span)?;
                Ok(Value::list(elements.iter().map(element_record).collect()))
            }
            CompiledExpr::QueryField(sel, field, span) => {
                let elements = query(ctx, sel, *span)?;
                match elements.first() {
                    None => Ok(Value::Null),
                    Some(first) => element_field(first, *field).ok_or_else(|| {
                        EvalError::at(*span, format!("unknown element projection `.{field}`"))
                    }),
                }
            }
            CompiledExpr::Member { obj, field, span } => {
                let base = obj.eval(ctx)?;
                member(base, *field, ctx, *span)
            }
            CompiledExpr::Index { obj, index, span } => {
                let base = obj.eval(ctx)?;
                let idx = index.eval(ctx)?;
                index_value(base, idx, ctx, *span)
            }
            CompiledExpr::Array(items) => {
                let mut out = Vec::with_capacity(items.len());
                for item in items {
                    // No function check: the compiler rejects function
                    // constants, and no compiled node evaluates to one.
                    out.push(item.eval(ctx)?);
                }
                Ok(Value::list(out))
            }
            CompiledExpr::Call { builtin, args } => {
                let mut values = Vec::with_capacity(args.len());
                for arg in args {
                    values.push(arg.eval(ctx)?);
                }
                apply_builtin(*builtin, values, ctx)
            }
            CompiledExpr::Unary { op, expr, span } => {
                let v = expr.eval(ctx)?;
                unary_value(*op, v, *span)
            }
            CompiledExpr::Logic {
                op,
                lhs,
                rhs,
                lhs_span,
                rhs_span,
            } => {
                let l = as_logical(lhs.eval(ctx)?, *lhs_span)?;
                match (op, l) {
                    // Short circuit: the right operand is not evaluated.
                    (BinOp::And, Logical::Plain(false)) => Ok(Value::Bool(false)),
                    (BinOp::Or, Logical::Plain(true)) => Ok(Value::Bool(true)),
                    (BinOp::Implies, Logical::Plain(false)) => Ok(Value::Bool(true)),
                    (_, Logical::Plain(_)) => {
                        let r = as_logical(rhs.eval(ctx)?, *rhs_span)?;
                        Ok(match r {
                            Logical::Plain(b) => Value::Bool(b),
                            Logical::Lifted(f) => Value::Formula(f),
                        })
                    }
                    (_, Logical::Lifted(f)) => {
                        let r = lift(as_logical(rhs.eval(ctx)?, *rhs_span)?);
                        Ok(Value::Formula(match op {
                            BinOp::And => f.and(r),
                            BinOp::Or => f.or(r),
                            BinOp::Implies => f.implies(r),
                            _ => unreachable!("logic ops only"),
                        }))
                    }
                }
            }
            CompiledExpr::Binary { op, lhs, rhs, span } => {
                let l = lhs.eval(ctx)?;
                let r = rhs.eval(ctx)?;
                binary_values(*op, l, r, *span)
            }
            CompiledExpr::If {
                cond,
                then_branch,
                else_branch,
                span,
            } => {
                let c = cond.eval(ctx)?;
                match c {
                    Value::Bool(true) => then_branch.eval(ctx),
                    Value::Bool(false) => else_branch.eval(ctx),
                    Value::Formula(_) => Err(EvalError::at(
                        *span,
                        "a temporal formula cannot be an `if` condition — conditions \
                         are evaluated at a single state",
                    )),
                    other => Err(EvalError::at(
                        *span,
                        format!(
                            "`if` condition must be a boolean, got {}",
                            other.type_name()
                        ),
                    )),
                }
            }
        }
    }
}

/// The result of [`compile_atom`]: a specialized evaluator when the atom's
/// IR fits the compiled subset, the generic interpreter otherwise.
#[derive(Debug)]
pub enum CompiledAtom {
    /// The atom lowered to a closure-free [`CompiledExpr`].
    Fast(CompiledExpr),
    /// Shapes the lowering does not cover (temporal operators, `let`,
    /// closure calls, higher-order builtins): evaluate through
    /// [`crate::eval::expand_thunk`].
    Generic,
}

impl CompiledAtom {
    /// `true` when the atom compiled to the fast path.
    #[must_use]
    pub fn is_fast(&self) -> bool {
        matches!(self, CompiledAtom::Fast(_))
    }

    /// Expands the atom at the current state, through whichever evaluator
    /// applies.
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors and non-logical results, identically
    /// on both paths.
    pub fn expand(&self, thunk: &Thunk, ctx: &EvalCtx<'_>) -> Result<Formula<Thunk>, EvalError> {
        match self {
            CompiledAtom::Fast(expr) => to_formula(expr.eval(ctx)?),
            CompiledAtom::Generic => expand_thunk(thunk, ctx),
        }
    }
}

/// Deferred-binding inlining depth cap — keeps compilation linear even for
/// deeply chained `let ~a = ~b; let ~b = …` definitions.
const MAX_COMPILE_DEPTH: u32 = 64;

/// Lowers one atom to a [`CompiledAtom`].
///
/// The lowering is conservative: any construct whose compiled semantics
/// could diverge from the interpreter (temporal operators, `let` frames,
/// closure calls, higher-order builtins, unresolvable bindings, function
/// or formula constants) falls back to [`CompiledAtom::Generic`].
#[must_use]
pub fn compile_atom(thunk: &Thunk) -> CompiledAtom {
    match compile_ir(&thunk.ir, &thunk.env, 0) {
        Some(expr) => CompiledAtom::Fast(expr),
        None => CompiledAtom::Generic,
    }
}

fn compile_ir(ir: &Ir, env: &Env, depth: u32) -> Option<CompiledExpr> {
    if depth > MAX_COMPILE_DEPTH {
        return None;
    }
    match ir {
        Ir::Const(v, _) => compile_const(v),
        Ir::Var { depth: d, slot, .. } => match env.get(*d, *slot)? {
            Binding::Eager(v) => compile_const(v),
            Binding::Deferred(t) => compile_ir(&t.ir, &t.env, depth + 1),
        },
        Ir::Happened(_) => Some(CompiledExpr::Happened),
        Ir::Member { obj, field, span } => {
            let base = compile_ir(obj, env, depth + 1)?;
            if let CompiledExpr::Const(Value::Selector(sel)) = &base {
                let sel = *sel;
                return Some(if *field == sym::COUNT {
                    CompiledExpr::QueryCount(sel, *span)
                } else if *field == sym::PRESENT {
                    CompiledExpr::QueryPresent(sel, *span)
                } else if *field == sym::ALL {
                    CompiledExpr::QueryAll(sel, *span)
                } else {
                    CompiledExpr::QueryField(sel, *field, *span)
                });
            }
            Some(CompiledExpr::Member {
                obj: Box::new(base),
                field: *field,
                span: *span,
            })
        }
        Ir::Index { obj, index, span } => Some(CompiledExpr::Index {
            obj: Box::new(compile_ir(obj, env, depth + 1)?),
            index: Box::new(compile_ir(index, env, depth + 1)?),
            span: *span,
        }),
        Ir::Array(items, _) => {
            let compiled = items
                .iter()
                .map(|item| compile_ir(item, env, depth + 1))
                .collect::<Option<Vec<_>>>()?;
            Some(CompiledExpr::Array(compiled))
        }
        Ir::If {
            cond,
            then_branch,
            else_branch,
            span,
        } => Some(CompiledExpr::If {
            cond: Box::new(compile_ir(cond, env, depth + 1)?),
            then_branch: Box::new(compile_ir(then_branch, env, depth + 1)?),
            else_branch: Box::new(compile_ir(else_branch, env, depth + 1)?),
            span: *span,
        }),
        Ir::Unary { op, expr, span } => Some(CompiledExpr::Unary {
            op: *op,
            expr: Box::new(compile_ir(expr, env, depth + 1)?),
            span: *span,
        }),
        Ir::Binary { op, lhs, rhs, span } => {
            let l = Box::new(compile_ir(lhs, env, depth + 1)?);
            let r = Box::new(compile_ir(rhs, env, depth + 1)?);
            Some(match op {
                BinOp::And | BinOp::Or | BinOp::Implies => CompiledExpr::Logic {
                    op: *op,
                    lhs: l,
                    rhs: r,
                    lhs_span: lhs.span(),
                    rhs_span: rhs.span(),
                },
                _ => CompiledExpr::Binary {
                    op: *op,
                    lhs: l,
                    rhs: r,
                    span: *span,
                },
            })
        }
        Ir::Call { func, args, .. } => {
            let builtin = resolve_builtin(func, env, depth + 1)?;
            // Higher-order builtins need function values (not compiled);
            // arity mismatches keep the interpreter's runtime error.
            if builtin.higher_order() || builtin.arity() != args.len() {
                return None;
            }
            let compiled = args
                .iter()
                .map(|arg| compile_ir(arg, env, depth + 1))
                .collect::<Option<Vec<_>>>()?;
            Some(CompiledExpr::Call {
                builtin,
                args: compiled,
            })
        }
        Ir::Let { .. } | Ir::Temporal { .. } | Ir::TemporalBin { .. } => None,
    }
}

fn resolve_builtin(func: &Ir, env: &Env, depth: u32) -> Option<Builtin> {
    if depth > MAX_COMPILE_DEPTH {
        return None;
    }
    match func {
        Ir::Const(Value::Builtin(b), _) => Some(*b),
        Ir::Var { depth: d, slot, .. } => match env.get(*d, *slot)? {
            Binding::Eager(Value::Builtin(b)) => Some(*b),
            Binding::Deferred(t) => resolve_builtin(&t.ir, &t.env, depth + 1),
            Binding::Eager(_) => None,
        },
        _ => None,
    }
}

/// Constants the compiled subset may carry. Functions are excluded so no
/// compiled node can ever evaluate to one (which keeps the interpreter's
/// "functions in data" checks unreachable on the fast path), and formula
/// constants are excluded because their atoms capture environments the
/// compiler does not resolve.
fn compile_const(v: &Value) -> Option<CompiledExpr> {
    fn plain_data(v: &Value) -> bool {
        match v {
            Value::Null
            | Value::Bool(_)
            | Value::Int(_)
            | Value::Float(_)
            | Value::Str(_)
            | Value::Selector(_)
            | Value::Action(_) => true,
            Value::List(items) => items.iter().all(plain_data),
            Value::Record(fields) => fields.values().all(plain_data),
            Value::Formula(_) | Value::Closure(_) | Value::Builtin(_) => false,
        }
    }
    plain_data(v).then(|| CompiledExpr::Const(v.clone()))
}

// ---------------------------------------------------------------------------
// The shared expansion memo
// ---------------------------------------------------------------------------

/// One memoized expansion: the expansion itself for stepper-style
/// consumers, plus the pre-abstracted shape (`shape[i]` refers to
/// `atoms[i]`, deduplicated by thunk identity in first-occurrence order)
/// so automaton-style consumers can build an observation without walking
/// or cloning a `Formula<Thunk>` at all. `atom` pins the source thunk,
/// keeping every address the memo key hashed alive for the entry's
/// lifetime.
#[derive(Debug)]
pub struct MemoEntry {
    /// The atom this entry was expanded from (pins its pointers).
    pub atom: Thunk,
    /// The memoized expansion.
    pub expansion: Formula<Thunk>,
    /// The expansion abstracted over its own atoms, in first-occurrence
    /// order.
    pub shape: Formula<u32>,
    /// The atoms of `expansion`, deduplicated by identity; indexed by the
    /// `shape` leaves.
    pub atoms: Vec<Thunk>,
}

impl MemoEntry {
    /// Builds an entry from a fresh expansion, abstracting the shape and
    /// deduplicating sub-atoms by identity.
    #[must_use]
    pub fn build(atom: Thunk, expansion: Formula<Thunk>) -> MemoEntry {
        let mut atoms: Vec<Thunk> = Vec::new();
        let mut ids: HashMap<(usize, usize), u32> = HashMap::new();
        let shape = expansion.clone().map_atoms(&mut |t: Thunk| {
            let identity = t.identity();
            *ids.entry(identity).or_insert_with(|| {
                atoms.push(t);
                u32::try_from(atoms.len() - 1).expect("atom count fits u32")
            })
        });
        MemoEntry {
            atom,
            expansion,
            shape,
            atoms,
        }
    }

    /// Whether a freshly computed expansion is structurally identical to
    /// this entry, modulo atom pointer identity: same shape, and
    /// pairwise-equal semantic keys for the abstracted atoms. This is the
    /// collision check behind the debug-build verify-on-hit.
    ///
    /// The comparison uses its own throwaway [`AtomKeyer`]: the pairwise
    /// check only needs key consistency *within* this call (every thunk
    /// involved is alive for its duration), and feeding `fresh`'s
    /// short-lived atoms to a longer-lived keyer would poison its
    /// per-address environment-hash cache once their frames are freed and
    /// the addresses reused.
    #[must_use]
    pub fn matches_expansion(&self, fresh: &Formula<Thunk>) -> bool {
        let mut keyer = AtomKeyer::new();
        let other = MemoEntry::build(self.atom.clone(), fresh.clone());
        if self.shape != other.shape || self.atoms.len() != other.atoms.len() {
            return false;
        }
        self.atoms
            .iter()
            .zip(&other.atoms)
            .all(|(a, b)| keyer.key(a) == keyer.key(b))
    }
}

/// A bounded, thread-shared expansion memo keyed by
/// `(semantic atom key, footprint projection hash)`.
///
/// Eviction is FIFO over first insertion, so for a fixed lookup/insert
/// sequence the contents are deterministic; under `jobs=N` the sequence
/// (and so the hit/miss counters) depends on scheduling, but a hit and a
/// miss produce semantically identical expansions, so verdicts and
/// reports do not. Re-inserting an existing key keeps the first entry
/// (the racing entries are semantically equal).
#[derive(Debug)]
pub struct AtomMemo {
    inner: Mutex<MemoInner>,
    compiled: Mutex<HashMap<u64, CompileInfo>>,
}

#[derive(Debug)]
struct MemoInner {
    map: HashMap<(u64, u64), Arc<MemoEntry>>,
    order: VecDeque<(u64, u64)>,
    capacity: usize,
}

/// The env-resolved derivations shared alongside the expansion memo: the
/// static footprint and the compiled evaluator of one semantic atom.
#[derive(Debug)]
struct CompileInfo {
    footprint: Arc<AtomFootprint>,
    compiled: Arc<CompiledAtom>,
}

impl AtomMemo {
    /// A memo bounded to `capacity` entries (at least one).
    #[must_use]
    pub fn new(capacity: usize) -> AtomMemo {
        AtomMemo {
            inner: Mutex::new(MemoInner {
                map: HashMap::new(),
                order: VecDeque::new(),
                capacity: capacity.max(1),
            }),
            compiled: Mutex::new(HashMap::new()),
        }
    }

    /// The shared derived info of the atom with semantic key `key`: its
    /// static footprint and compiled evaluator, computed on first
    /// request.
    ///
    /// Both derivations resolve variables through the atom's environment
    /// (eager bindings are inlined as constants), so they are functions
    /// of exactly what the semantic key hashes — the IR node and the
    /// environment content. Sharing them here means each distinct atom
    /// is analyzed and compiled once per property instead of once per
    /// fresh thunk identity: residual atoms allocate a fresh environment
    /// (and so a fresh identity) at every unroll, and recompiling them
    /// per identity costs more than the evaluation the memo saves. The
    /// cache is unbounded but small — one entry per distinct semantic
    /// atom, the same population the memo itself keys on.
    #[must_use]
    pub fn compile_info(&self, key: u64, thunk: &Thunk) -> (Arc<AtomFootprint>, Arc<CompiledAtom>) {
        let mut map = self.compiled.lock().expect("atom compile cache lock");
        let info = map.entry(key).or_insert_with(|| CompileInfo {
            footprint: Arc::new(footprint_of_thunk(thunk)),
            compiled: Arc::new(compile_atom(thunk)),
        });
        (Arc::clone(&info.footprint), Arc::clone(&info.compiled))
    }

    /// The entry under `key`, if present.
    #[must_use]
    pub fn lookup(&self, key: (u64, u64)) -> Option<Arc<MemoEntry>> {
        self.inner
            .lock()
            .expect("atom memo lock")
            .map
            .get(&key)
            .cloned()
    }

    /// Inserts an entry, evicting oldest-first past capacity. Returns the
    /// number of entries evicted (0 when the key was already present —
    /// the first insertion wins).
    pub fn insert(&self, key: (u64, u64), entry: MemoEntry) -> u64 {
        let mut inner = self.inner.lock().expect("atom memo lock");
        if inner.map.contains_key(&key) {
            return 0;
        }
        let mut evicted = 0;
        while inner.map.len() >= inner.capacity {
            match inner.order.pop_front() {
                Some(oldest) => {
                    if inner.map.remove(&oldest).is_some() {
                        evicted += 1;
                    }
                }
                None => break,
            }
        }
        inner.map.insert(key, Arc::new(entry));
        inner.order.push_back(key);
        evicted
    }

    /// The number of memoized expansions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.lock().expect("atom memo lock").map.len()
    }

    /// `true` when no expansion is memoized.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The configured capacity bound.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.inner.lock().expect("atom memo lock").capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Span;
    use quickstrom_protocol::{ElementState, StateSnapshot};

    fn span() -> Span {
        Span::default()
    }

    fn eager(v: Value) -> Env {
        Env::new().push(vec![Binding::Eager(v)])
    }

    fn var(depth: u32, slot: u32) -> Arc<Ir> {
        Arc::new(Ir::Var {
            depth,
            slot,
            name: Symbol::intern("x"),
            span: span(),
        })
    }

    fn state_with(selector: &str, elements: Vec<ElementState>) -> StateSnapshot {
        let mut state = StateSnapshot::new();
        state.insert_query(Selector::new(selector), elements);
        state
    }

    fn element(text: &str) -> ElementState {
        ElementState {
            text: text.to_owned(),
            enabled: true,
            visible: true,
            ..ElementState::default()
        }
    }

    #[test]
    fn semantic_keys_ignore_frame_identity() {
        let ir = var(0, 0);
        let mut keyer = AtomKeyer::new();
        let a = Thunk::new(Arc::clone(&ir), eager(Value::Int(42)));
        let b = Thunk::new(Arc::clone(&ir), eager(Value::Int(42)));
        let c = Thunk::new(Arc::clone(&ir), eager(Value::Int(43)));
        assert_ne!(a.identity(), b.identity(), "frames are fresh allocations");
        assert_eq!(keyer.key(&a), keyer.key(&b), "content-equal environments");
        assert_ne!(keyer.key(&a), keyer.key(&c), "different bound values");
    }

    #[test]
    fn semantic_keys_distinguish_code() {
        let mut keyer = AtomKeyer::new();
        let env = eager(Value::Int(1));
        let a = Thunk::new(var(0, 0), env.clone());
        let b = Thunk::new(var(0, 0), env);
        // Two allocations of identical IR are distinct code to the keyer —
        // that only costs sharing, never correctness.
        assert_ne!(keyer.key(&a), keyer.key(&b));
    }

    #[test]
    fn semantic_keys_hash_deferred_bindings_structurally() {
        let ir = var(0, 0);
        let inner = var(1, 0);
        let mut keyer = AtomKeyer::new();
        let deferred = |n: i64| {
            Env::new().push(vec![Binding::Deferred(Thunk::new(
                Arc::clone(&inner),
                eager(Value::Int(n)),
            ))])
        };
        let a = Thunk::new(Arc::clone(&ir), deferred(7));
        let b = Thunk::new(Arc::clone(&ir), deferred(7));
        let c = Thunk::new(Arc::clone(&ir), deferred(8));
        assert_eq!(keyer.key(&a), keyer.key(&b));
        assert_ne!(keyer.key(&a), keyer.key(&c));
    }

    #[test]
    fn compiled_projection_comparison_matches_interpreter() {
        // `#status`.text == "ok"
        let sel = Value::Selector(Selector::new("#status"));
        let ir: Arc<Ir> = Arc::new(Ir::Binary {
            op: BinOp::Eq,
            lhs: Arc::new(Ir::Member {
                obj: Arc::new(Ir::Const(sel, span())),
                field: sym::TEXT,
                span: span(),
            }),
            rhs: Arc::new(Ir::Const(Value::str("ok"), span())),
            span: span(),
        });
        let thunk = Thunk::new(ir, Env::new());
        let compiled = compile_atom(&thunk);
        assert!(compiled.is_fast());

        for text in ["ok", "nope"] {
            let state = state_with("#status", vec![element(text)]);
            let ctx = EvalCtx::with_state(&state, 100);
            let fast = compiled.expand(&thunk, &ctx).unwrap();
            let generic = expand_thunk(&thunk, &ctx).unwrap();
            assert_eq!(fast, generic, "text = {text:?}");
        }
        // Missing element: null-lenient comparison on both paths.
        let state = state_with("#status", vec![]);
        let ctx = EvalCtx::with_state(&state, 100);
        assert_eq!(
            compiled.expand(&thunk, &ctx).unwrap(),
            expand_thunk(&thunk, &ctx).unwrap()
        );
    }

    #[test]
    fn compiled_builtin_call_matches_interpreter() {
        // parseInt(`#counter`.text) > 3, with the builtin resolved through
        // an eager environment binding like the global frame provides.
        let env = eager(Value::Builtin(Builtin::ParseInt));
        let ir: Arc<Ir> = Arc::new(Ir::Binary {
            op: BinOp::Gt,
            lhs: Arc::new(Ir::Call {
                func: var(0, 0),
                args: vec![Arc::new(Ir::Member {
                    obj: Arc::new(Ir::Const(
                        Value::Selector(Selector::new("#counter")),
                        span(),
                    )),
                    field: sym::TEXT,
                    span: span(),
                })],
                span: span(),
            }),
            rhs: Arc::new(Ir::Const(Value::Int(3), span())),
            span: span(),
        });
        let thunk = Thunk::new(ir, env);
        let compiled = compile_atom(&thunk);
        assert!(compiled.is_fast());
        for text in ["2", "12", "not a number"] {
            let state = state_with("#counter", vec![element(text)]);
            let ctx = EvalCtx::with_state(&state, 100);
            assert_eq!(
                compiled.expand(&thunk, &ctx).unwrap(),
                expand_thunk(&thunk, &ctx).unwrap(),
                "text = {text:?}"
            );
        }
    }

    #[test]
    fn temporal_and_let_shapes_fall_back_to_generic() {
        let body = Arc::new(Ir::Const(Value::Bool(true), span()));
        let temporal = Thunk::new(
            Arc::new(Ir::Temporal {
                op: crate::ast::TemporalOp::Always,
                demand: Some(3),
                body: Arc::clone(&body),
                span: span(),
            }),
            Env::new(),
        );
        assert!(!compile_atom(&temporal).is_fast());

        let let_ir = Thunk::new(
            Arc::new(Ir::Let {
                name: Symbol::intern("v"),
                deferred: false,
                value: Arc::clone(&body),
                body,
                span: span(),
            }),
            Env::new(),
        );
        assert!(!compile_atom(&let_ir).is_fast());
    }

    #[test]
    fn memo_entry_shape_deduplicates_atoms_by_identity() {
        let shared = Thunk::new(var(0, 0), eager(Value::Int(1)));
        let other = Thunk::new(var(0, 0), eager(Value::Int(2)));
        let expansion = Formula::Atom(shared.clone())
            .and(Formula::Atom(other.clone()).and(Formula::Atom(shared.clone())));
        let entry = MemoEntry::build(shared.clone(), expansion.clone());
        assert_eq!(entry.atoms.len(), 2, "pointer-equal atoms share one slot");
        assert_eq!(
            entry.shape,
            Formula::Atom(0u32).and(Formula::Atom(1u32).and(Formula::Atom(0u32)))
        );
        assert!(entry.matches_expansion(&expansion));
        let different = Formula::Atom(other).and(Formula::Atom(shared));
        assert!(!entry.matches_expansion(&different));
    }

    #[test]
    fn memo_eviction_is_fifo_and_bounded() {
        let memo = AtomMemo::new(2);
        let entry = || {
            let t = Thunk::new(var(0, 0), Env::new());
            MemoEntry::build(t, Formula::Top)
        };
        assert_eq!(memo.insert((1, 1), entry()), 0);
        assert_eq!(memo.insert((2, 2), entry()), 0);
        assert_eq!(memo.insert((1, 1), entry()), 0, "re-insert keeps first");
        assert_eq!(memo.len(), 2);
        assert_eq!(memo.insert((3, 3), entry()), 1, "oldest evicted");
        assert!(memo.lookup((1, 1)).is_none(), "(1,1) was first in");
        assert!(memo.lookup((2, 2)).is_some());
        assert!(memo.lookup((3, 3)).is_some());
    }
}
