//! The compiled Specstrom evaluator.
//!
//! Evaluation happens *per state*: expressions over selector queries and
//! `happened` read the current [`StateSnapshot`]; temporal operators
//! produce [`Formula`] values whose atoms are [`Thunk`]s closed over the
//! environment, to be re-evaluated at future states by formula progression.
//!
//! This module interprets the resolved IR of [`mod@crate::compile`] against
//! the slot-indexed [`Env`]: variable references are `(depth, slot)` walks
//! (no string comparisons), record fields are interned [`Symbol`]s, and
//! element projections like `` `#e`.text `` read the snapshot field
//! directly instead of materialising a full record first. The original
//! tree-walking interpreter is preserved, unchanged, in
//! [`crate::reference`] for differential testing and benchmarking.
//!
//! Two design points from the paper are load-bearing here:
//!
//! * **Evaluation control (§3.1)**: deferred bindings (`let ~x`, `~param`)
//!   are captured unevaluated and re-run at every use, so `evovae(~x) =
//!   { let v = x; always (x == v) }` freezes `v` at the state where the
//!   `always` body is unrolled while `x` stays live.
//! * **Boolean lifting**: `&&`, `||`, `==>` and `!` operate on plain
//!   booleans until a formula operand appears, at which point the whole
//!   expression is lifted into the temporal logic.

use crate::ast::{BinOp, Span, TemporalOp, UnOp};
use crate::compile::Ir;
use crate::error::EvalError;
use crate::value::{ActionValue, Binding, Builtin, ClosureData, Env, SlotParam, Thunk, Value};
use quickltl::{Demand, Formula};
use quickstrom_protocol::{sym, ActionKind, ElementState, Key, Selector, StateSnapshot, Symbol};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::Arc;

/// The context for one evaluation: the current state (if any), the default
/// demand subscript, and a fuel counter guarding against runaway expansion.
#[derive(Debug)]
pub struct EvalCtx<'a> {
    /// The current state snapshot; `None` at definition time.
    pub state: Option<&'a StateSnapshot>,
    /// The demand used for temporal operators without an explicit
    /// subscript (§4.1: "they use a user-specified default value").
    pub default_demand: u32,
    fuel: Cell<u64>,
}

impl<'a> EvalCtx<'a> {
    /// A context with a state, the given default demand, and default fuel.
    #[must_use]
    pub fn with_state(state: &'a StateSnapshot, default_demand: u32) -> Self {
        EvalCtx {
            state: Some(state),
            default_demand,
            fuel: Cell::new(1_000_000),
        }
    }

    /// A stateless context (definition-time evaluation).
    #[must_use]
    pub fn stateless(default_demand: u32) -> Self {
        EvalCtx {
            state: None,
            default_demand,
            fuel: Cell::new(1_000_000),
        }
    }

    fn burn(&self) -> Result<(), EvalError> {
        let left = self.fuel.get();
        if left == 0 {
            return Err(EvalError::new(
                "evaluation fuel exhausted — this should be impossible for a \
                 type-checked Specstrom program",
            ));
        }
        self.fuel.set(left - 1);
        Ok(())
    }

    fn state(&self) -> Result<&'a StateSnapshot, EvalError> {
        self.state.ok_or_else(|| {
            EvalError::new(
                "state-dependent expression evaluated outside a state context \
                 (bind it with `let ~x = …` so it is evaluated per state)",
            )
        })
    }
}

/// Evaluates a compiled expression to a value.
///
/// # Errors
///
/// Returns [`EvalError`] on runtime type mismatches, state queries without
/// a state, arithmetic errors, or fuel exhaustion.
pub fn eval(ir: &Arc<Ir>, env: &Env, ctx: &EvalCtx<'_>) -> Result<Value, EvalError> {
    ctx.burn()?;
    match ir.as_ref() {
        Ir::Const(v, _) => Ok(v.clone()),
        Ir::Var {
            depth,
            slot,
            name,
            span,
        } => match env.get(*depth, *slot) {
            Some(Binding::Eager(v)) => Ok(v.clone()),
            Some(Binding::Deferred(thunk)) => {
                let thunk = thunk.clone();
                eval(&thunk.ir, &thunk.env, ctx)
            }
            None => Err(EvalError::at(
                *span,
                format!(
                    "internal error: environment shape does not match the \
                     compiled slot for `{name}`"
                ),
            )),
        },
        Ir::Happened(_) => {
            let state = ctx.state()?;
            Ok(Value::list(
                state
                    .happened
                    .iter()
                    .map(|h| Value::str(h.as_str()))
                    .collect(),
            ))
        }
        Ir::Call { func, args, span } => {
            let callee = eval(func, env, ctx)?;
            match callee {
                Value::Closure(closure) => {
                    if closure.params.len() != args.len() {
                        return Err(EvalError::at(
                            *span,
                            format!(
                                "`{}` expects {} argument(s), got {}",
                                closure.name,
                                closure.params.len(),
                                args.len()
                            ),
                        ));
                    }
                    let mut frame = Vec::with_capacity(args.len());
                    for (param, arg) in closure.params.iter().zip(args) {
                        let binding = if param.deferred {
                            // Call-by-name: capture the argument expression
                            // in the *caller's* environment (§3.1).
                            Binding::Deferred(Thunk::new(Arc::clone(arg), env.clone()))
                        } else {
                            Binding::Eager(eval(arg, env, ctx)?)
                        };
                        frame.push(binding);
                    }
                    let call_env = closure.env.push(frame);
                    eval(&closure.body, &call_env, ctx)
                }
                Value::Builtin(builtin) => {
                    if builtin.arity() != args.len() {
                        return Err(EvalError::at(
                            *span,
                            format!(
                                "`{}` expects {} argument(s), got {}",
                                builtin.name(),
                                builtin.arity(),
                                args.len()
                            ),
                        ));
                    }
                    let mut values = Vec::with_capacity(args.len());
                    for arg in args {
                        values.push(eval(arg, env, ctx)?);
                    }
                    apply_builtin(builtin, values, ctx)
                }
                other => Err(EvalError::at(
                    *span,
                    format!("cannot call a {}", other.type_name()),
                )),
            }
        }
        Ir::Unary {
            op,
            expr: inner,
            span,
        } => {
            let v = eval(inner, env, ctx)?;
            match op {
                UnOp::Not => match v {
                    Value::Bool(b) => Ok(Value::Bool(!b)),
                    Value::Formula(f) => Ok(Value::Formula(f.not())),
                    other => Err(EvalError::at(
                        *span,
                        format!("cannot negate a {}", other.type_name()),
                    )),
                },
                UnOp::Neg => match v {
                    Value::Int(n) => n
                        .checked_neg()
                        .map(Value::Int)
                        .ok_or_else(|| EvalError::at(*span, "integer overflow in negation")),
                    Value::Float(x) => Ok(Value::Float(-x)),
                    Value::Null => Ok(Value::Null),
                    other => Err(EvalError::at(
                        *span,
                        format!("cannot negate a {}", other.type_name()),
                    )),
                },
            }
        }
        Ir::Binary { op, lhs, rhs, span } => eval_binary(*op, lhs, rhs, env, ctx, *span),
        Ir::Member { obj, field, span } => {
            let base = eval(obj, env, ctx)?;
            member(base, *field, ctx, *span)
        }
        Ir::Index { obj, index, span } => {
            let base = eval(obj, env, ctx)?;
            let idx = eval(index, env, ctx)?;
            index_value(base, idx, ctx, *span)
        }
        Ir::Array(items, _) => {
            let mut out = Vec::with_capacity(items.len());
            for item in items {
                let v = eval(item, env, ctx)?;
                if v.is_function() {
                    return Err(EvalError::at(
                        item.span(),
                        "functions may not be placed inside data structures",
                    ));
                }
                out.push(v);
            }
            Ok(Value::list(out))
        }
        Ir::If {
            cond,
            then_branch,
            else_branch,
            span,
        } => {
            let c = eval(cond, env, ctx)?;
            match c {
                Value::Bool(true) => eval(then_branch, env, ctx),
                Value::Bool(false) => eval(else_branch, env, ctx),
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
        Ir::Let {
            deferred,
            value,
            body,
            ..
        } => {
            let binding = if *deferred {
                Binding::Deferred(Thunk::new(Arc::clone(value), env.clone()))
            } else {
                Binding::Eager(eval(value, env, ctx)?)
            };
            let inner = env.push(vec![binding]);
            eval(body, &inner, ctx)
        }
        Ir::Temporal {
            op, demand, body, ..
        } => {
            let atom = Formula::Atom(Thunk::new(Arc::clone(body), env.clone()));
            let d = Demand(demand.unwrap_or(ctx.default_demand));
            Ok(Value::Formula(match op {
                TemporalOp::Always => Formula::Always(d, Box::new(atom)),
                TemporalOp::Eventually => Formula::Eventually(d, Box::new(atom)),
                TemporalOp::Next => atom.next(),
                TemporalOp::NextW => atom.weak_next(),
                TemporalOp::NextS => atom.strong_next(),
            }))
        }
        Ir::TemporalBin {
            until,
            demand,
            lhs,
            rhs,
            ..
        } => {
            let l = Formula::Atom(Thunk::new(Arc::clone(lhs), env.clone()));
            let r = Formula::Atom(Thunk::new(Arc::clone(rhs), env.clone()));
            let d = Demand(demand.unwrap_or(ctx.default_demand));
            Ok(Value::Formula(if *until {
                Formula::Until(d, Box::new(l), Box::new(r))
            } else {
                Formula::Release(d, Box::new(l), Box::new(r))
            }))
        }
    }
}

/// Either a plain boolean or a lifted formula — the two "logical" shapes.
enum Logical {
    Plain(bool),
    Lifted(Formula<Thunk>),
}

fn as_logical(v: Value, span: Span) -> Result<Logical, EvalError> {
    match v {
        Value::Bool(b) => Ok(Logical::Plain(b)),
        Value::Formula(f) => Ok(Logical::Lifted(f)),
        other => Err(EvalError::at(
            span,
            format!(
                "expected a boolean or temporal formula, got {}",
                other.type_name()
            ),
        )),
    }
}

fn lift(l: Logical) -> Formula<Thunk> {
    match l {
        Logical::Plain(b) => Formula::constant(b),
        Logical::Lifted(f) => f,
    }
}

#[allow(clippy::too_many_lines)]
fn eval_binary(
    op: BinOp,
    lhs: &Arc<Ir>,
    rhs: &Arc<Ir>,
    env: &Env,
    ctx: &EvalCtx<'_>,
    span: Span,
) -> Result<Value, EvalError> {
    match op {
        BinOp::And => {
            let l = as_logical(eval(lhs, env, ctx)?, lhs.span())?;
            match l {
                // Short circuit: the right operand is not evaluated.
                Logical::Plain(false) => Ok(Value::Bool(false)),
                Logical::Plain(true) => {
                    let r = as_logical(eval(rhs, env, ctx)?, rhs.span())?;
                    Ok(match r {
                        Logical::Plain(b) => Value::Bool(b),
                        Logical::Lifted(f) => Value::Formula(f),
                    })
                }
                Logical::Lifted(f) => {
                    let r = as_logical(eval(rhs, env, ctx)?, rhs.span())?;
                    Ok(Value::Formula(f.and(lift(r))))
                }
            }
        }
        BinOp::Or => {
            let l = as_logical(eval(lhs, env, ctx)?, lhs.span())?;
            match l {
                Logical::Plain(true) => Ok(Value::Bool(true)),
                Logical::Plain(false) => {
                    let r = as_logical(eval(rhs, env, ctx)?, rhs.span())?;
                    Ok(match r {
                        Logical::Plain(b) => Value::Bool(b),
                        Logical::Lifted(f) => Value::Formula(f),
                    })
                }
                Logical::Lifted(f) => {
                    let r = as_logical(eval(rhs, env, ctx)?, rhs.span())?;
                    Ok(Value::Formula(f.or(lift(r))))
                }
            }
        }
        BinOp::Implies => {
            let l = as_logical(eval(lhs, env, ctx)?, lhs.span())?;
            match l {
                Logical::Plain(false) => Ok(Value::Bool(true)),
                Logical::Plain(true) => {
                    let r = as_logical(eval(rhs, env, ctx)?, rhs.span())?;
                    Ok(match r {
                        Logical::Plain(b) => Value::Bool(b),
                        Logical::Lifted(f) => Value::Formula(f),
                    })
                }
                Logical::Lifted(f) => {
                    let r = as_logical(eval(rhs, env, ctx)?, rhs.span())?;
                    Ok(Value::Formula(f.implies(lift(r))))
                }
            }
        }
        BinOp::Eq | BinOp::Ne => {
            let l = eval(lhs, env, ctx)?;
            let r = eval(rhs, env, ctx)?;
            let eq = l.loosely_equals(&r);
            Ok(Value::Bool(if op == BinOp::Eq { eq } else { !eq }))
        }
        BinOp::In => {
            let l = eval(lhs, env, ctx)?;
            let r = eval(rhs, env, ctx)?;
            match r {
                Value::List(items) => Ok(Value::Bool(items.iter().any(|i| i.loosely_equals(&l)))),
                Value::Str(haystack) => match l {
                    Value::Str(needle) => Ok(Value::Bool(haystack.contains(&*needle))),
                    other => Err(EvalError::at(
                        span,
                        format!("cannot search for {} in a string", other.type_name()),
                    )),
                },
                other => Err(EvalError::at(
                    span,
                    format!("`in` expects a list or string, got {}", other.type_name()),
                )),
            }
        }
        BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
            let l = eval(lhs, env, ctx)?;
            let r = eval(rhs, env, ctx)?;
            let ord = compare(&l, &r, span)?;
            Ok(Value::Bool(match (op, ord) {
                // Null (or NaN) never satisfies an ordering comparison.
                (_, None) => false,
                (BinOp::Lt, Some(o)) => o.is_lt(),
                (BinOp::Le, Some(o)) => o.is_le(),
                (BinOp::Gt, Some(o)) => o.is_gt(),
                (BinOp::Ge, Some(o)) => o.is_ge(),
                _ => unreachable!("comparison ops only"),
            }))
        }
        BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod => {
            let l = eval(lhs, env, ctx)?;
            let r = eval(rhs, env, ctx)?;
            arith(op, l, r, span)
        }
    }
}

/// Ordering for `<`/`<=`/`>`/`>=`. `None` means "null was involved": a
/// selector query that matched nothing propagates as an always-false
/// comparison rather than a hard error, so specifications can state
/// invariants about optional elements without defensive guards.
fn compare(l: &Value, r: &Value, span: Span) -> Result<Option<std::cmp::Ordering>, EvalError> {
    match (l, r) {
        (Value::Int(a), Value::Int(b)) => Ok(Some(a.cmp(b))),
        (Value::Str(a), Value::Str(b)) => Ok(Some(a.cmp(b))),
        (Value::Float(a), Value::Float(b)) => Ok(a.partial_cmp(b)),
        (Value::Int(a), Value::Float(b)) =>
        {
            #[allow(clippy::cast_precision_loss)]
            Ok((*a as f64).partial_cmp(b))
        }
        (Value::Float(a), Value::Int(b)) =>
        {
            #[allow(clippy::cast_precision_loss)]
            Ok(a.partial_cmp(&(*b as f64)))
        }
        (Value::Null, _) | (_, Value::Null) => Ok(None),
        _ => Err(EvalError::at(
            span,
            format!("cannot compare {} with {}", l.type_name(), r.type_name()),
        )),
    }
}

fn arith(op: BinOp, l: Value, r: Value, span: Span) -> Result<Value, EvalError> {
    match (op, &l, &r) {
        // Null propagates through arithmetic (a missing element's
        // projection), mirroring the comparison semantics above.
        (_, Value::Null, _) | (_, _, Value::Null) => Ok(Value::Null),
        (BinOp::Add, Value::Str(a), Value::Str(b)) => Ok(Value::str(format!("{a}{b}"))),
        // String concatenation with scalars, for messages like
        // `numLeft + " items left"`.
        (BinOp::Add, Value::Str(a), Value::Int(b)) => Ok(Value::str(format!("{a}{b}"))),
        (BinOp::Add, Value::Int(a), Value::Str(b)) => Ok(Value::str(format!("{a}{b}"))),
        (BinOp::Add, Value::Str(a), Value::Float(b)) => Ok(Value::str(format!("{a}{b}"))),
        (BinOp::Add, Value::Float(a), Value::Str(b)) => Ok(Value::str(format!("{a}{b}"))),
        (_, Value::Int(a), Value::Int(b)) => {
            let out = match op {
                BinOp::Add => a.checked_add(*b),
                BinOp::Sub => a.checked_sub(*b),
                BinOp::Mul => a.checked_mul(*b),
                BinOp::Div => {
                    if *b == 0 {
                        return Err(EvalError::at(span, "division by zero"));
                    }
                    a.checked_div(*b)
                }
                BinOp::Mod => {
                    if *b == 0 {
                        return Err(EvalError::at(span, "remainder by zero"));
                    }
                    a.checked_rem(*b)
                }
                _ => unreachable!("arith ops only"),
            };
            out.map(Value::Int)
                .ok_or_else(|| EvalError::at(span, "integer overflow"))
        }
        (_, a, b) => {
            let fa = to_f64(a, span)?;
            let fb = to_f64(b, span)?;
            let out = match op {
                BinOp::Add => fa + fb,
                BinOp::Sub => fa - fb,
                BinOp::Mul => fa * fb,
                BinOp::Div => fa / fb,
                BinOp::Mod => fa % fb,
                _ => unreachable!("arith ops only"),
            };
            Ok(Value::Float(out))
        }
    }
}

fn to_f64(v: &Value, span: Span) -> Result<f64, EvalError> {
    match v {
        #[allow(clippy::cast_precision_loss)]
        Value::Int(n) => Ok(*n as f64),
        Value::Float(x) => Ok(*x),

        other => Err(EvalError::at(
            span,
            format!("arithmetic on a {}", other.type_name()),
        )),
    }
}

/// Converts an [`ElementState`] into a Specstrom record.
///
/// Field keys are the pre-seeded projection symbols and attribute keys are
/// already interned in the snapshot, so no string is hashed or compared
/// here — this used to be a `BTreeMap<String, _>` rebuild per access.
#[must_use]
pub fn element_record(element: &ElementState) -> Value {
    let mut fields = BTreeMap::new();
    fields.insert(sym::TEXT, Value::str(&element.text));
    fields.insert(sym::VALUE, Value::str(&element.value));
    fields.insert(sym::CHECKED, Value::Bool(element.checked));
    fields.insert(sym::ENABLED, Value::Bool(element.enabled));
    fields.insert(sym::VISIBLE, Value::Bool(element.visible));
    fields.insert(sym::FOCUSED, Value::Bool(element.focused));
    fields.insert(
        sym::CLASSES,
        Value::list(element.classes.iter().map(Value::str).collect()),
    );
    let attrs: BTreeMap<Symbol, Value> = element
        .attributes
        .iter()
        .map(|(k, v)| (*k, Value::str(v)))
        .collect();
    fields.insert(sym::ATTRIBUTES, Value::Record(Arc::new(attrs)));
    Value::Record(Arc::new(fields))
}

/// Projects one field of an element without building the record — the fast
/// path for `` `#e`.text ``-style accesses, which dominate specification
/// bodies.
fn element_field(element: &ElementState, field: Symbol) -> Option<Value> {
    Some(match field {
        f if f == sym::TEXT => Value::str(&element.text),
        f if f == sym::VALUE => Value::str(&element.value),
        f if f == sym::CHECKED => Value::Bool(element.checked),
        f if f == sym::ENABLED => Value::Bool(element.enabled),
        f if f == sym::VISIBLE => Value::Bool(element.visible),
        f if f == sym::FOCUSED => Value::Bool(element.focused),
        f if f == sym::CLASSES => Value::list(element.classes.iter().map(Value::str).collect()),
        f if f == sym::ATTRIBUTES => {
            let attrs: BTreeMap<Symbol, Value> = element
                .attributes
                .iter()
                .map(|(k, v)| (*k, Value::str(v)))
                .collect();
            Value::Record(Arc::new(attrs))
        }
        _ => return None,
    })
}

fn query<'s>(
    ctx: &EvalCtx<'s>,
    selector: &Selector,
    span: Span,
) -> Result<&'s [ElementState], EvalError> {
    let state = ctx.state()?;
    if let Some(elements) = state.queries.get(selector) {
        Ok(elements)
    } else {
        Err(EvalError::at(
            span,
            format!(
                "selector {selector} was not instrumented — it escaped the \
                 dependency analysis; report this as a bug"
            ),
        ))
    }
}

fn member(base: Value, field: Symbol, ctx: &EvalCtx<'_>, span: Span) -> Result<Value, EvalError> {
    match base {
        Value::Selector(selector) => {
            let elements = query(ctx, &selector, span)?;
            if field == sym::COUNT {
                return Ok(Value::Int(
                    i64::try_from(elements.len()).unwrap_or(i64::MAX),
                ));
            }
            if field == sym::PRESENT {
                return Ok(Value::Bool(!elements.is_empty()));
            }
            if field == sym::ALL {
                return Ok(Value::list(elements.iter().map(element_record).collect()));
            }
            match elements.first() {
                None => Ok(Value::Null),
                Some(first) => element_field(first, field).ok_or_else(|| {
                    EvalError::at(span, format!("unknown element projection `.{field}`"))
                }),
            }
        }
        Value::Record(fields) => Ok(fields.get(&field).cloned().unwrap_or(Value::Null)),
        // Lenient chaining: a missing element projects to null, and
        // projecting from null stays null (web-programmer ergonomics).
        Value::Null => Ok(Value::Null),
        other => Err(EvalError::at(
            span,
            format!("cannot access `.{field}` on a {}", other.type_name()),
        )),
    }
}

fn index_value(base: Value, idx: Value, ctx: &EvalCtx<'_>, span: Span) -> Result<Value, EvalError> {
    match (base, idx) {
        (Value::List(items), Value::Int(i)) => {
            let i = usize::try_from(i).ok();
            Ok(i.and_then(|i| items.get(i).cloned()).unwrap_or(Value::Null))
        }
        (Value::Selector(selector), Value::Int(i)) => {
            let elements = query(ctx, &selector, span)?;
            let i = usize::try_from(i).ok();
            Ok(i.and_then(|i| elements.get(i))
                .map(element_record)
                .unwrap_or(Value::Null))
        }
        (Value::Record(fields), Value::Str(key)) => {
            // A key never interned cannot be a field of any record; use the
            // non-inserting lookup so runtime data does not grow the table.
            Ok(Symbol::lookup(&key)
                .and_then(|sym| fields.get(&sym).cloned())
                .unwrap_or(Value::Null))
        }
        (Value::Null, _) => Ok(Value::Null),
        (base, idx) => Err(EvalError::at(
            span,
            format!(
                "cannot index a {} with a {}",
                base.type_name(),
                idx.type_name()
            ),
        )),
    }
}

/// Applies a function *value* to already-evaluated arguments (used by the
/// higher-order builtins). Deferred parameters are not supported through
/// this path — the sort checker rejects passing by-name functions to
/// builtins.
fn apply_function(f: &Value, args: Vec<Value>, ctx: &EvalCtx<'_>) -> Result<Value, EvalError> {
    match f {
        Value::Closure(closure) => {
            if closure.params.len() != args.len() {
                return Err(EvalError::new(format!(
                    "`{}` expects {} argument(s), got {}",
                    closure.name,
                    closure.params.len(),
                    args.len()
                )));
            }
            let mut frame = Vec::with_capacity(args.len());
            for (param, arg) in closure.params.iter().zip(args) {
                if param.deferred {
                    return Err(EvalError::new(format!(
                        "function `{}` with deferred parameter `~{}` cannot be \
                         passed to a higher-order builtin",
                        closure.name, param.name
                    )));
                }
                frame.push(Binding::Eager(arg));
            }
            let call_env = closure.env.push(frame);
            eval(&closure.body, &call_env, ctx)
        }
        Value::Builtin(b) => apply_builtin(*b, args, ctx),
        other => Err(EvalError::new(format!(
            "expected a function, got {}",
            other.type_name()
        ))),
    }
}

fn expect_list(v: &Value, what: &str) -> Result<Arc<Vec<Value>>, EvalError> {
    match v {
        Value::List(items) => Ok(Arc::clone(items)),
        other => Err(EvalError::new(format!(
            "{what} expects a list, got {}",
            other.type_name()
        ))),
    }
}

fn expect_selector(v: Value, what: &str) -> Result<Selector, EvalError> {
    match v {
        Value::Selector(s) => Ok(s),
        other => Err(EvalError::new(format!(
            "{what} expects a selector, got {}",
            other.type_name()
        ))),
    }
}

fn mk_action(kind: ActionKind, selector: Selector) -> Value {
    Value::Action(Arc::new(ActionValue {
        name: None,
        kind: Some(kind),
        selector: Some(selector),
        timeout_ms: None,
        guard: None,
        event: false,
    }))
}

fn apply_builtin(
    builtin: Builtin,
    mut args: Vec<Value>,
    ctx: &EvalCtx<'_>,
) -> Result<Value, EvalError> {
    match builtin {
        Builtin::ParseInt => Ok(match &args[0] {
            Value::Str(s) => s
                .trim()
                .parse::<i64>()
                .map(Value::Int)
                .unwrap_or(Value::Null),
            Value::Int(n) => Value::Int(*n),
            #[allow(clippy::cast_possible_truncation)]
            Value::Float(x) => Value::Int(x.trunc() as i64),
            _ => Value::Null,
        }),
        Builtin::ParseFloat => Ok(match &args[0] {
            Value::Str(s) => s
                .trim()
                .parse::<f64>()
                .map(Value::Float)
                .unwrap_or(Value::Null),
            #[allow(clippy::cast_precision_loss)]
            Value::Int(n) => Value::Float(*n as f64),
            Value::Float(x) => Value::Float(*x),
            _ => Value::Null,
        }),
        Builtin::Length => match &args[0] {
            Value::List(items) => Ok(Value::Int(i64::try_from(items.len()).unwrap_or(i64::MAX))),
            Value::Str(s) => Ok(Value::Int(
                i64::try_from(s.chars().count()).unwrap_or(i64::MAX),
            )),
            other => Err(EvalError::new(format!(
                "length expects a list or string, got {}",
                other.type_name()
            ))),
        },
        Builtin::Contains => {
            let needle = args.pop().expect("arity 2");
            match &args[0] {
                Value::List(items) => {
                    Ok(Value::Bool(items.iter().any(|i| i.loosely_equals(&needle))))
                }
                Value::Str(s) => match needle {
                    Value::Str(n) => Ok(Value::Bool(s.contains(&*n))),
                    other => Err(EvalError::new(format!(
                        "contains on a string expects a string, got {}",
                        other.type_name()
                    ))),
                },
                other => Err(EvalError::new(format!(
                    "contains expects a list or string, got {}",
                    other.type_name()
                ))),
            }
        }
        Builtin::Trim => match &args[0] {
            Value::Str(s) => Ok(Value::str(s.trim())),
            Value::Null => Ok(Value::Null),
            other => Err(EvalError::new(format!(
                "trim expects a string, got {}",
                other.type_name()
            ))),
        },
        Builtin::StartsWith | Builtin::EndsWith => {
            let suffix = args.pop().expect("arity 2");
            match (&args[0], &suffix) {
                (Value::Str(s), Value::Str(p)) => {
                    Ok(Value::Bool(if builtin == Builtin::StartsWith {
                        s.starts_with(&**p)
                    } else {
                        s.ends_with(&**p)
                    }))
                }
                _ => Err(EvalError::new("startsWith/endsWith expect two strings")),
            }
        }
        Builtin::Map => {
            let xs = expect_list(&args[1], "map")?;
            let f = &args[0];
            let mut out = Vec::with_capacity(xs.len());
            for x in xs.iter() {
                out.push(apply_function(f, vec![x.clone()], ctx)?);
            }
            Ok(Value::list(out))
        }
        Builtin::Filter => {
            let xs = expect_list(&args[1], "filter")?;
            let f = &args[0];
            let mut out = Vec::new();
            for x in xs.iter() {
                if apply_function(f, vec![x.clone()], ctx)?.as_bool()? {
                    out.push(x.clone());
                }
            }
            Ok(Value::list(out))
        }
        Builtin::All => {
            let xs = expect_list(&args[1], "all")?;
            let f = &args[0];
            for x in xs.iter() {
                if !apply_function(f, vec![x.clone()], ctx)?.as_bool()? {
                    return Ok(Value::Bool(false));
                }
            }
            Ok(Value::Bool(true))
        }
        Builtin::Any => {
            let xs = expect_list(&args[1], "any")?;
            let f = &args[0];
            for x in xs.iter() {
                if apply_function(f, vec![x.clone()], ctx)?.as_bool()? {
                    return Ok(Value::Bool(true));
                }
            }
            Ok(Value::Bool(false))
        }
        Builtin::Append => {
            let x = args.pop().expect("arity 2");
            if x.is_function() {
                return Err(EvalError::new(
                    "functions may not be placed inside data structures",
                ));
            }
            let xs = expect_list(&args[0], "append")?;
            let mut out = (*xs).clone();
            out.push(x);
            Ok(Value::list(out))
        }
        Builtin::Zip => {
            let ys = expect_list(&args[1], "zip")?;
            let xs = expect_list(&args[0], "zip")?;
            Ok(Value::list(
                xs.iter()
                    .zip(ys.iter())
                    .map(|(x, y)| Value::list(vec![x.clone(), y.clone()]))
                    .collect(),
            ))
        }
        Builtin::Texts => {
            let selector = expect_selector(args.remove(0), "texts")?;
            let elements = query(ctx, &selector, Span::default())?;
            Ok(Value::list(
                elements.iter().map(|e| Value::str(&e.text)).collect(),
            ))
        }
        Builtin::MkClick => {
            let sel = expect_selector(args.remove(0), "click!")?;
            Ok(mk_action(ActionKind::Click, sel))
        }
        Builtin::MkDblClick => {
            let sel = expect_selector(args.remove(0), "dblclick!")?;
            Ok(mk_action(ActionKind::DblClick, sel))
        }
        Builtin::MkFocus => {
            let sel = expect_selector(args.remove(0), "focus!")?;
            Ok(mk_action(ActionKind::Focus, sel))
        }
        Builtin::MkInput => {
            let sel = expect_selector(args.remove(0), "input!")?;
            Ok(mk_action(ActionKind::Input(None), sel))
        }
        Builtin::MkKeyPress => {
            let key = args.pop().expect("arity 2");
            let sel = expect_selector(args.remove(0), "keypress!")?;
            let key = match key {
                Value::Str(s) => match &*s {
                    "Enter" => Key::Enter,
                    "Escape" => Key::Escape,
                    other if other.chars().count() == 1 => {
                        Key::Char(other.chars().next().expect("len 1"))
                    }
                    other => {
                        return Err(EvalError::new(format!("unknown key {other:?}")));
                    }
                },
                other => {
                    return Err(EvalError::new(format!(
                        "keypress! expects a key string, got {}",
                        other.type_name()
                    )))
                }
            };
            Ok(mk_action(ActionKind::KeyPress(key), sel))
        }
        Builtin::MkChanged => {
            let sel = expect_selector(args.remove(0), "changed?")?;
            Ok(Value::Action(Arc::new(ActionValue {
                name: None,
                kind: None,
                selector: Some(sel),
                timeout_ms: None,
                guard: None,
                event: true,
            })))
        }
    }
}

/// Coerces a value into a formula: booleans become constants, formulae pass
/// through.
///
/// # Errors
///
/// When the value is neither.
pub fn to_formula(v: Value) -> Result<Formula<Thunk>, EvalError> {
    match v {
        Value::Bool(b) => Ok(Formula::constant(b)),
        Value::Formula(f) => Ok(f),
        other => Err(EvalError::new(format!(
            "expected a boolean or temporal formula, got {}",
            other.type_name()
        ))),
    }
}

/// Expands a thunk atom at the current state — the bridge between formula
/// progression and the interpreter.
///
/// # Errors
///
/// Propagates evaluation errors and non-logical results.
pub fn expand_thunk(thunk: &Thunk, ctx: &EvalCtx<'_>) -> Result<Formula<Thunk>, EvalError> {
    to_formula(eval(&thunk.ir, &thunk.env, ctx)?)
}

/// Evaluates a thunk expecting a plain boolean (action guards).
///
/// # Errors
///
/// Propagates evaluation errors; errors on non-boolean results.
pub fn eval_guard(thunk: &Thunk, ctx: &EvalCtx<'_>) -> Result<bool, EvalError> {
    eval(&thunk.ir, &thunk.env, ctx)?.as_bool()
}

/// Builds a closure value from a compiled `fun` item.
#[must_use]
pub fn make_closure(name: Symbol, params: Vec<SlotParam>, body: Arc<Ir>, env: Env) -> Value {
    Value::Closure(Arc::new(ClosureData {
        name,
        params,
        body,
        env,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{compile_expr, initial_env};
    use crate::parser::parse_expr;

    fn snapshot() -> StateSnapshot {
        let mut s = StateSnapshot::new();
        let mut toggle = ElementState::with_text("start");
        toggle.classes.push("btn".into());
        s.insert_query(Selector::new("#toggle"), vec![toggle]);
        s.insert_query(
            Selector::new("#remaining"),
            vec![ElementState::with_text("180")],
        );
        s.insert_query(
            Selector::new(".todo-list li"),
            vec![
                ElementState::with_text("walk"),
                ElementState::with_text("shop"),
            ],
        );
        s.insert_query(Selector::new("#missing"), vec![]);
        s.happened.push("loaded?".into());
        s
    }

    fn eval_str(src: &str) -> Result<Value, EvalError> {
        let snap = snapshot();
        let ctx = EvalCtx::with_state(&snap, 7);
        let ir =
            compile_expr(&parse_expr(src).unwrap()).map_err(|e| EvalError::new(e.to_string()))?;
        eval(&ir, &initial_env(), &ctx)
    }

    fn v(src: &str) -> Value {
        eval_str(src).unwrap_or_else(|e| panic!("{src}: {e}"))
    }

    fn b(src: &str) -> bool {
        match v(src) {
            Value::Bool(x) => x,
            other => panic!("{src}: expected bool, got {other}"),
        }
    }

    #[test]
    fn literals_and_arithmetic() {
        assert!(matches!(v("42"), Value::Int(42)));
        assert!(matches!(v("2 + 3 * 4"), Value::Int(14)));
        assert!(matches!(v("(2 + 3) * 4"), Value::Int(20)));
        assert!(matches!(v("7 % 3"), Value::Int(1)));
        assert!(matches!(v("-5 + 5"), Value::Int(0)));
        assert!(matches!(v("1.5 + 1"), Value::Float(x) if (x - 2.5).abs() < 1e-9));
        assert!(eval_str("1 / 0").is_err());
        assert!(matches!(v("\"a\" + \"b\""), Value::Str(s) if &*s == "ab"));
    }

    #[test]
    fn comparisons_and_equality() {
        assert!(b("1 < 2"));
        assert!(b("2 <= 2"));
        assert!(b("\"a\" < \"b\""));
        assert!(b("1 == 1.0"));
        assert!(b("null == null"));
        assert!(b("null != 0"));
        assert!(b("[1,2] == [1,2]"));
        assert!(eval_str("1 < \"a\"").is_err());
    }

    #[test]
    fn state_queries() {
        assert!(b("`#toggle`.text == \"start\""));
        assert!(b("`#toggle`.enabled"));
        assert!(b("`#toggle`.visible"));
        assert!(b("!`#toggle`.checked"));
        assert!(b("`.todo-list li`.count == 2"));
        assert!(b("`.todo-list li`.present"));
        assert!(b("!`#missing`.present"));
        assert!(b("`#missing`.text == null"));
        assert!(b("\"btn\" in `#toggle`.classes"));
    }

    #[test]
    fn parse_int_from_label() {
        assert!(matches!(v("parseInt(`#remaining`.text)"), Value::Int(180)));
        assert!(matches!(v("parseInt(\"oops\")"), Value::Null));
        assert!(matches!(v("parseFloat(\"2.5\")"), Value::Float(x) if (x - 2.5).abs() < 1e-9));
    }

    #[test]
    fn selector_all_and_indexing() {
        assert!(b("`.todo-list li`.all[0].text == \"walk\""));
        assert!(b("`.todo-list li`[1].text == \"shop\""));
        assert!(b("`.todo-list li`[9] == null"));
        assert!(b("`.todo-list li`[9].text == null"));
        assert!(b("texts(`.todo-list li`) == [\"walk\", \"shop\"]"));
    }

    #[test]
    fn happened_membership() {
        assert!(b("loaded? in happened"));
        assert!(b("\"loaded?\" in happened"));
        assert!(!b("reload! in happened"));
    }

    #[test]
    fn logical_short_circuit() {
        // The right operand would error at run time (division by zero), but
        // is never reached. (Unresolved *names* are now compile errors —
        // see `compile::tests::undefined_names_fail_at_compile_time`.)
        assert!(!b("false && 1 / 0 == 0"));
        assert!(b("true || 1 / 0 == 0"));
        assert!(b("false ==> 1 / 0 == 0"));
        assert!(eval_str("true && 1 / 0 == 0").is_err());
    }

    #[test]
    fn temporal_lifting() {
        match v("always[3] (`#toggle`.text == \"start\")") {
            Value::Formula(Formula::Always(d, _)) => assert_eq!(d, Demand(3)),
            other => panic!("unexpected {other}"),
        }
        // Omitted demand uses the context default (7 in these tests).
        match v("eventually (`#toggle`.text == \"stop\")") {
            Value::Formula(Formula::Eventually(d, _)) => assert_eq!(d, Demand(7)),
            other => panic!("unexpected {other}"),
        }
        // Mixed bool/formula conjunction lifts.
        match v("`#toggle`.enabled && next `#toggle`.enabled") {
            Value::Formula(Formula::Next(_)) => {}
            other => panic!("unexpected {other}"),
        }
        // false && formula short-circuits to a plain bool.
        assert!(!b("false && next `#toggle`.enabled"));
    }

    #[test]
    fn until_release_values() {
        match v("`#toggle`.enabled until[2] `#toggle`.checked") {
            Value::Formula(Formula::Until(d, _, _)) => assert_eq!(d, Demand(2)),
            other => panic!("unexpected {other}"),
        }
        match v("`#toggle`.enabled release `#toggle`.checked") {
            Value::Formula(Formula::Release(d, _, _)) => assert_eq!(d, Demand(7)),
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn if_requires_plain_bool() {
        assert!(matches!(v("if 1 == 1 {2} else {3}"), Value::Int(2)));
        assert!(eval_str("if next true {1} else {2}").is_err());
        assert!(eval_str("if 5 {1} else {2}").is_err());
    }

    #[test]
    fn blocks_and_deferred_lets() {
        assert!(matches!(v("{ let x = 2; x * x }"), Value::Int(4)));
        // A deferred let is re-evaluated at use; with a fixed state that is
        // observationally the same, but it must not error at bind time even
        // if state-dependent and unused under a stateless context.
        let ir = compile_expr(&parse_expr("{ let ~q = `#toggle`.text; 1 }").unwrap()).unwrap();
        let ctx = EvalCtx::stateless(0);
        let out = eval(&ir, &initial_env(), &ctx).unwrap();
        assert!(matches!(out, Value::Int(1)));
        // An eager state query without state errors.
        let bad = compile_expr(&parse_expr("{ let q = `#toggle`.text; 1 }").unwrap()).unwrap();
        assert!(eval(&bad, &initial_env(), &ctx).is_err());
    }

    #[test]
    fn higher_order_builtins() {
        assert!(b("length([1,2,3]) == 3"));
        assert!(b("contains([1,2], 2)"));
        assert!(b("contains(\"hello\", \"ell\")"));
        assert!(b("trim(\"  x \") == \"x\""));
        assert!(b("startsWith(\"abc\", \"ab\")"));
        assert!(b("endsWith(\"abc\", \"bc\")"));
        assert!(b("zip([1,2],[3,4]) == [[1,3],[2,4]]"));
        // A higher-order predicate that returns non-booleans is a runtime
        // error inside any/all.
        assert!(eval_str("any(parseInt, [\"1\"])").is_err());
    }

    #[test]
    fn map_filter_all_any_with_closures() {
        // Build a closure through a spec-level `fun` by hand: body `x > 1`
        // compiled against a one-parameter frame over the globals.
        let (names, _) = crate::compile::initial_globals();
        let mut resolver = crate::compile::Resolver::new(names);
        resolver.push_scope(vec![Symbol::intern("x")]);
        let body = crate::compile::lower(&parse_expr("x > 1").unwrap(), &mut resolver).unwrap();
        resolver.pop_scope();
        let f = make_closure(
            Symbol::intern("gt1"),
            vec![SlotParam {
                name: Symbol::intern("x"),
                deferred: false,
            }],
            body,
            initial_env(),
        );
        let snap = snapshot();
        let ctx = EvalCtx::with_state(&snap, 0);
        let out = apply_function(&f, vec![Value::Int(2)], &ctx).unwrap();
        assert!(matches!(out, Value::Bool(true)));
        // map via builtin machinery
        let mapped = apply_builtin(
            Builtin::Map,
            vec![f.clone(), Value::list(vec![Value::Int(0), Value::Int(5)])],
            &ctx,
        )
        .unwrap();
        assert!(mapped.loosely_equals(&Value::list(vec![Value::Bool(false), Value::Bool(true)])));
        let all = apply_builtin(
            Builtin::All,
            vec![f.clone(), Value::list(vec![Value::Int(2), Value::Int(3)])],
            &ctx,
        )
        .unwrap();
        assert!(matches!(all, Value::Bool(true)));
        let filtered = apply_builtin(
            Builtin::Filter,
            vec![f, Value::list(vec![Value::Int(0), Value::Int(2)])],
            &ctx,
        )
        .unwrap();
        assert!(filtered.loosely_equals(&Value::list(vec![Value::Int(2)])));
    }

    #[test]
    fn action_constructors() {
        match v("click!(`#toggle`)") {
            Value::Action(a) => {
                assert_eq!(a.kind, Some(ActionKind::Click));
                assert_eq!(a.selector, Some(Selector::new("#toggle")));
                assert!(!a.event);
            }
            other => panic!("unexpected {other}"),
        }
        match v("keypress!(`input`, \"Enter\")") {
            Value::Action(a) => assert_eq!(a.kind, Some(ActionKind::KeyPress(Key::Enter))),
            other => panic!("unexpected {other}"),
        }
        match v("changed?(`#remaining`)") {
            Value::Action(a) => {
                assert!(a.event);
                assert_eq!(a.kind, None);
            }
            other => panic!("unexpected {other}"),
        }
        match v("noop!") {
            Value::Action(a) => assert_eq!(a.kind, Some(ActionKind::Noop)),
            other => panic!("unexpected {other}"),
        }
        assert!(eval_str("keypress!(`i`, \"Bogus\")").is_err());
    }

    #[test]
    fn functions_not_storable() {
        assert!(eval_str("[parseInt]").is_err());
    }

    #[test]
    fn uninstrumented_selector_is_an_error() {
        let err = eval_str("`#nope`.text").unwrap_err();
        assert!(err.message.contains("not instrumented"));
    }

    #[test]
    fn expand_thunk_bridges_to_formulas() {
        let snap = snapshot();
        let ctx = EvalCtx::with_state(&snap, 0);
        let ir = compile_expr(&parse_expr("`#toggle`.text == \"start\"").unwrap()).unwrap();
        let thunk = Thunk::new(ir, initial_env());
        assert_eq!(expand_thunk(&thunk, &ctx).unwrap(), Formula::Top);
        let ir2 = compile_expr(&parse_expr("next (`#toggle`.text == \"stop\")").unwrap()).unwrap();
        let thunk2 = Thunk::new(ir2, initial_env());
        assert!(matches!(
            expand_thunk(&thunk2, &ctx).unwrap(),
            Formula::Next(_)
        ));
    }

    #[test]
    fn null_is_lenient_in_comparisons_and_arithmetic() {
        // A selector that matched nothing propagates as null: orderings are
        // false, arithmetic stays null, equality distinguishes it.
        assert!(!b("`#missing`.text < \"a\""));
        assert!(!b("`#missing`.text >= \"a\""));
        assert!(b("parseInt(`#missing`.text) + 1 == null"));
        assert!(b("`#missing`.text == null"));
        // But comparing structurally wrong types is still an error.
        assert!(eval_str("1 < \"a\"").is_err());
    }

    #[test]
    fn record_index_by_unknown_key_is_null_and_does_not_intern() {
        assert!(b("`#toggle`.all[0][\"text\"] == \"start\""));
        assert!(b("`#toggle`.all[0][\"never-a-field-xyz\"] == null"));
        assert_eq!(Symbol::lookup("never-a-field-xyz"), None);
    }
}
