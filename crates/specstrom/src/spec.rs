//! Compilation: from a parsed [`Spec`] to a checkable [`CompiledSpec`].
//!
//! Compilation runs the sort checker, then the lowering pass of
//! [`mod@crate::compile`] (interning names, resolving every variable reference
//! to a `(depth, slot)` coordinate), builds the top-level environment as a
//! single slot-indexed global frame (evaluating eager bindings at
//! definition time, capturing deferred ones as compiled thunks), registers
//! actions/events with their guards and timeouts, resolves `check` items,
//! and runs the §3.3 dependency analysis.
//!
//! The global frame grows item by item; each captured environment (a
//! deferred `let`, a closure, an action guard) snapshots the prefix of the
//! frame visible at its definition, which is exactly the set of slots its
//! compiled code can reference — Specstrom has no forward references, so
//! the snapshot is always sufficient.

use crate::analysis;
use crate::ast::{Item, Spec};
use crate::atomc::{AtomMemo, WordMap};
use crate::compile::{self, Resolver};
use crate::error::{EvalError, SpecError};
use crate::eval::{self, EvalCtx};
use crate::parser::parse_spec;
use crate::sorts;
use crate::value::{ActionValue, Binding, Env, Thunk, Value};
use quickltl::{Formula, StateId, TransitionTable};
use quickstrom_protocol::{Selector, Symbol};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// A resolved `check` command: which properties to test, with which
/// allowable actions and events.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckDef {
    /// Property names (bindings in the compiled environment).
    pub properties: Vec<String>,
    /// Names of user actions (`…!`) the checker may perform.
    pub actions: Vec<String>,
    /// Names of events (`…?`) the checker should recognise.
    pub events: Vec<String>,
}

/// A compiled, checkable specification.
///
/// Everything inside is immutable and `Arc`-shared, so one `CompiledSpec`
/// is shared by every worker of the parallel runtime, and all of them
/// address the same interned symbols (there is one process-global
/// interner; see [`quickstrom_protocol::Symbol`]).
#[derive(Debug)]
pub struct CompiledSpec {
    /// The sealed top-level environment: one frame holding builtins plus
    /// every item binding, addressed by slot.
    pub env: Env,
    /// The names of the global slots, in slot order (used to resolve
    /// property names handed to [`CompiledSpec::property_thunk`]).
    global_names: Vec<Symbol>,
    /// Declared actions and events by name.
    pub actions: BTreeMap<String, Arc<ActionValue>>,
    /// The resolved `check` commands, in source order.
    pub checks: Vec<CheckDef>,
    /// Every selector the specification can query (§3.3 analysis) — the
    /// `Start` message's dependency list.
    pub dependencies: Vec<Selector>,
    /// The static analysis of the compiled spec: per-property atoms and
    /// temporal skeletons, per-selector field masks, and skeleton-level
    /// diagnostics. See [`analysis::analyze_compiled`].
    pub analysis: analysis::SpecAnalysis,
    /// The per-property evaluation caches (transition table, atom memo
    /// and step memo), created on a property's first check and shared by
    /// every run, worker and shrink replay that checks it. See
    /// [`PropertyCaches`].
    pub caches: PropertyCaches,
}

/// The per-spec registry of [`PropertyCache`]s, filled lazily: a
/// property's cache is created on its first check, never at load.
///
/// One cache is kept per `(property, default demand, state cap, atom memo
/// capacity)`: the demand changes the formulae `~` thunks expand to, and
/// the cap and capacity bound what the caches may hold, so none of them
/// may share entries with another. Because every cached transition and
/// expansion is a pure function of its key, sharing across concurrent
/// runs never changes a verdict, only who pays for a miss.
#[derive(Debug, Default)]
pub struct PropertyCaches {
    caches: Mutex<BTreeMap<CacheKey, Arc<PropertyCache>>>,
}

/// The registry key: `(property name, default demand, state cap, atom
/// memo capacity)`.
type CacheKey = (String, u32, usize, usize);

impl PropertyCaches {
    /// The shared cache for a property at a given default demand, state
    /// cap and atom memo capacity, creating it on first request.
    ///
    /// The step memo's state-value signature footprint is the union of
    /// the property's atom footprints from `analysis`; if the property
    /// was not analysed (no skeleton), the footprint degrades to every
    /// spec-observable selector with all fields plus the event list —
    /// still sound, merely a coarser signature.
    #[must_use]
    pub fn cache(
        &self,
        property: &str,
        default_demand: u32,
        state_cap: usize,
        atom_memo_capacity: usize,
        analysis: &analysis::SpecAnalysis,
    ) -> Arc<PropertyCache> {
        let mut caches = self.caches.lock().expect("property cache registry lock");
        Arc::clone(
            caches
                .entry((
                    property.to_owned(),
                    default_demand,
                    state_cap,
                    atom_memo_capacity,
                ))
                .or_insert_with(|| {
                    Arc::new(PropertyCache {
                        table: Mutex::new(TransitionTable::new(Formula::Atom(0), state_cap)),
                        atoms: AtomMemo::new(atom_memo_capacity),
                        steps: StepMemo::new(property_footprint(property, analysis)),
                    })
                }),
        )
    }

    /// The number of distinct caches created so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.caches
            .lock()
            .expect("property cache registry lock")
            .len()
    }

    /// Whether no property has been checked yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Everything the runs of one property share: its evaluation automaton,
/// its atom expansion memo, and the step memo whose entries name the
/// automaton's [`StateId`]s.
#[derive(Debug)]
pub struct PropertyCache {
    /// The memoized evaluation automaton. It starts from the canonical
    /// one-atom state `Atom(0)` — the whole property as a single
    /// expanding atom — and grows as runs encounter new residual shapes.
    pub table: Mutex<TransitionTable>,
    /// The value-keyed atom expansion memo.
    pub atoms: AtomMemo,
    /// The whole-transition step memo over `table`'s states.
    pub steps: StepMemo,
}

/// The union footprint of a property's atoms (what its evaluation can
/// read from a state), falling back to "everything the spec observes"
/// when the property has no analysis entry.
fn property_footprint(
    property: &str,
    analysis: &analysis::SpecAnalysis,
) -> analysis::AtomFootprint {
    if let Some(prop) = analysis.properties.iter().find(|p| p.name == property) {
        let mut footprint = analysis::AtomFootprint::default();
        for atom in &prop.atoms {
            footprint.merge(&atom.footprint);
        }
        return footprint;
    }
    let mut footprint = analysis::AtomFootprint {
        reads_happened: true,
        ..analysis::AtomFootprint::default()
    };
    for &sel in analysis.masks.keys() {
        footprint.selectors.insert(
            sel,
            analysis::SelectorUse {
                all_fields: true,
                ..analysis::SelectorUse::default()
            },
        );
    }
    footprint
}

/// Where a memoized automaton step lands.
#[derive(Debug, Clone)]
pub enum StepNext {
    /// The step produced a definitive verdict.
    Done(bool),
    /// The step moved to `state` carrying `bindings`.
    Goto {
        /// The successor automaton state.
        state: StateId,
        /// The presumptive verdict if the trace ended here.
        presumptive: Option<bool>,
        /// The successor state's atom bindings. These are the thunks the
        /// original transition produced; for a later run replaying this
        /// entry they are *semantically equal* stand-ins for the thunks
        /// it would have built itself (atom expansion is pure, and the
        /// signature keys are content-based), so every downstream
        /// observation is identical.
        bindings: Vec<Thunk>,
        /// The bindings signature of `bindings`, so a replaying run can
        /// chain lookups without re-keying the thunks.
        bindings_sig: u64,
    },
}

/// One memoized automaton transition.
#[derive(Debug)]
pub struct StepEntry {
    /// Where the step lands.
    pub next: StepNext,
    /// How many atom expansion requests the original transition issued
    /// (its whole observation BFS). Replaying runs add this to their
    /// expansion counters so the counters stay exactly what an unmemoized
    /// engine would have reported.
    pub expansions: u64,
}

/// A whole-transition memo for one evaluation automaton: from a key
/// `(automaton state, bindings signature, state-value signature)` straight
/// to the transition's outcome, skipping atom expansion, observation, and
/// the table step entirely.
///
/// Soundness: an automaton transition is a pure function of the state's
/// formula residual (determined by the [`StateId`] and the concrete atom
/// bindings) and the observed state restricted to the property's
/// footprint. The bindings signature hashes the bindings' content-based
/// atom keys ([`crate::atomc::AtomKeyer`]) and the state-value signature
/// hashes exactly the footprint's masked projections, so key equality
/// implies the transition — and every atom-expansion delta it would
/// generate — is identical. The one observable a replay does *not*
/// reproduce bit-for-bit is the table hit/miss split: the structural
/// observation an unmemoized step would build here can differ (thunk
/// sharing shifts with atom-cache warmth) while simplifying to the same
/// interned successor, so replays may count slightly more table hits.
#[derive(Debug)]
pub struct StepMemo {
    /// The property's union atom footprint: which masked selector
    /// projections (and whether the event list) feed the state-value
    /// signature.
    pub footprint: analysis::AtomFootprint,
    entries: Mutex<WordMap<(StateId, u64, u64), Arc<StepEntry>>>,
}

/// Stop memoizing new transitions past this many entries (the memo keeps
/// serving hits). Entries are small; real traces saturate long before
/// this — the cap only bounds adversarial state spaces.
const STEP_MEMO_CAPACITY: usize = 1 << 20;

impl StepMemo {
    fn new(footprint: analysis::AtomFootprint) -> Self {
        StepMemo {
            footprint,
            entries: Mutex::new(WordMap::default()),
        }
    }

    /// The memoized transition for a key, if any.
    #[must_use]
    pub fn lookup(&self, key: (StateId, u64, u64)) -> Option<Arc<StepEntry>> {
        self.entries
            .lock()
            .expect("step memo lock")
            .get(&key)
            .cloned()
    }

    /// Records a transition, unless the memo is at capacity.
    pub fn insert(&self, key: (StateId, u64, u64), entry: StepEntry) {
        let mut entries = self.entries.lock().expect("step memo lock");
        if entries.len() < STEP_MEMO_CAPACITY {
            entries.insert(key, Arc::new(entry));
        }
    }

    /// The number of memoized transitions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.lock().expect("step memo lock").len()
    }

    /// Whether the memo is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl CompiledSpec {
    /// A thunk that evaluates the named top-level binding — the property
    /// formula handed to the checker.
    ///
    /// Works uniformly for deferred and eager bindings by evaluating a
    /// synthetic, slot-resolved variable reference in the sealed global
    /// environment.
    #[must_use]
    pub fn property_thunk(&self, name: &str) -> Option<Thunk> {
        let sym = Symbol::lookup(name)?;
        let slot = self.global_names.iter().rposition(|&n| n == sym)?;
        let ir = Arc::new(compile::Ir::Var {
            depth: 0,
            slot: u32::try_from(slot).expect("slot fits u32"),
            name: sym,
            span: crate::ast::Span::default(),
        });
        Some(Thunk::new(ir, self.env.clone()))
    }

    /// The declared action/event with the given name.
    #[must_use]
    pub fn action(&self, name: &str) -> Option<&Arc<ActionValue>> {
        self.actions.get(name)
    }
}

fn eval_error(e: EvalError, fallback: crate::ast::Span) -> SpecError {
    SpecError::at(e.span.unwrap_or(fallback), e.message)
}

/// Compiles a parsed specification.
///
/// # Errors
///
/// Returns sort errors, definition-time evaluation errors (e.g. an eager
/// top-level binding that queries state), malformed action declarations,
/// and unresolved `check` names.
#[allow(clippy::too_many_lines)]
pub fn compile(spec: &Spec) -> Result<CompiledSpec, SpecError> {
    sorts::check_spec(spec)?;
    let (mut names, mut globals) = compile::initial_globals();
    let mut resolver = Resolver::new(names.clone());
    let mut actions: BTreeMap<String, Arc<ActionValue>> = BTreeMap::new();
    let mut checks_raw = Vec::new();
    // Definition-time evaluation is stateless: anything touching the state
    // must be deferred with `~` (the evaluator's error explains this).
    let ctx = EvalCtx::stateless(0);
    // The environment visible to item `k` is the global frame truncated to
    // the slots defined before `k`; `snapshot` rebuilds it after each item.
    let snapshot = |globals: &Vec<Binding>| Env::new().push(globals.clone());
    let mut env = snapshot(&globals);

    for item in &spec.items {
        match item {
            Item::Let(stmt) => {
                let ir = compile::lower(&stmt.value, &mut resolver)?;
                let binding = if stmt.deferred {
                    Binding::Deferred(Thunk::new(ir, env.clone()))
                } else {
                    Binding::Eager(
                        eval::eval(&ir, &env, &ctx).map_err(|e| eval_error(e, stmt.span))?,
                    )
                };
                let name = Symbol::intern(&stmt.name);
                resolver.define_global(name);
                names.push(name);
                globals.push(binding);
                env = snapshot(&globals);
            }
            Item::Fun {
                name, params, body, ..
            } => {
                let slot_params = compile::lower_params(params);
                resolver.push_scope(slot_params.iter().map(|p| p.name).collect());
                let body_ir = compile::lower(body, &mut resolver);
                resolver.pop_scope();
                let name_sym = Symbol::intern(name);
                let closure = eval::make_closure(name_sym, slot_params, body_ir?, env.clone());
                resolver.define_global(name_sym);
                names.push(name_sym);
                globals.push(Binding::Eager(closure));
                env = snapshot(&globals);
            }
            Item::Action {
                name,
                body,
                timeout,
                guard,
                span,
            } => {
                let body_ir = compile::lower(body, &mut resolver)?;
                let base = eval::eval(&body_ir, &env, &ctx).map_err(|e| eval_error(e, *span))?;
                let Value::Action(base) = base else {
                    return Err(SpecError::at(
                        *span,
                        format!(
                            "action `{name}` must be built from a primitive action \
                             (click!, noop!, changed?, …), got {}",
                            base.type_name()
                        ),
                    ));
                };
                let is_event = name.ends_with('?');
                if is_event != base.event {
                    return Err(SpecError::at(
                        *span,
                        format!(
                            "`{name}` mixes conventions: `?` names must be events \
                             (changed?), `!` names must be user actions (click!, noop!, …)"
                        ),
                    ));
                }
                let timeout_ms = match timeout {
                    None => base.timeout_ms,
                    Some(t) => {
                        let t_ir = compile::lower(t, &mut resolver)?;
                        let v =
                            eval::eval(&t_ir, &env, &ctx).map_err(|e| eval_error(e, t.span()))?;
                        match v {
                            Value::Int(ms) if ms >= 0 => {
                                Some(u64::try_from(ms).expect("non-negative"))
                            }
                            other => {
                                return Err(SpecError::at(
                                    t.span(),
                                    format!(
                                        "timeout must be a non-negative integer \
                                         (milliseconds), got {}",
                                        other.type_name()
                                    ),
                                ))
                            }
                        }
                    }
                };
                let guard_thunk = match guard {
                    None => None,
                    Some(g) => Some(Thunk::new(compile::lower(g, &mut resolver)?, env.clone())),
                };
                let value = Arc::new(ActionValue {
                    name: Some(name.clone()),
                    kind: base.kind.clone(),
                    selector: base.selector,
                    timeout_ms,
                    guard: guard_thunk,
                    event: is_event,
                });
                actions.insert(name.clone(), Arc::clone(&value));
                let name_sym = Symbol::intern(name);
                resolver.define_global(name_sym);
                names.push(name_sym);
                globals.push(Binding::Eager(Value::Action(value)));
                env = snapshot(&globals);
            }
            Item::Check {
                properties,
                with_actions,
                span,
            } => {
                checks_raw.push((properties.clone(), with_actions.clone(), *span));
            }
        }
    }

    let mut checks = Vec::with_capacity(checks_raw.len());
    for (properties, with_actions, span) in checks_raw {
        let check_names: Vec<String> = match with_actions {
            Some(check_names) => check_names,
            None => actions.keys().cloned().collect(),
        };
        let mut action_names = Vec::new();
        let mut event_names = Vec::new();
        for n in check_names {
            match actions.get(&n) {
                Some(a) if a.event => event_names.push(n),
                Some(_) => action_names.push(n),
                None if n == "noop!" || n == "reload!" => action_names.push(n),
                None if n == "loaded?" => event_names.push(n),
                None => {
                    return Err(SpecError::at(
                        span,
                        format!("check references undeclared action `{n}`"),
                    ))
                }
            }
        }
        checks.push(CheckDef {
            properties,
            actions: action_names,
            events: event_names,
        });
    }

    let dependencies = analysis::dependencies(spec).into_iter().collect();

    let mut compiled = CompiledSpec {
        env,
        global_names: names,
        actions,
        checks,
        dependencies,
        analysis: analysis::SpecAnalysis::default(),
        caches: PropertyCaches::default(),
    };
    compiled.analysis = analysis::analyze_compiled(&compiled);
    Ok(compiled)
}

/// Parses and compiles in one step.
///
/// # Errors
///
/// Returns the first lexing, parsing, sort, or compilation error.
pub fn load(src: &str) -> Result<CompiledSpec, SpecError> {
    compile(&parse_spec(src)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use quickstrom_protocol::ActionKind;

    const EGG_TIMER: &str = r#"
        let ~stopped = `#toggle`.text == "start";
        let ~started = `#toggle`.text == "stop";
        let ~time = parseInt(`#remaining`.text);
        action start! = click!(`#toggle`) when stopped;
        action stop! = click!(`#toggle`) when started;
        action wait! = noop! timeout 1100 when started;
        action tick? = changed?(`#remaining`);
        let ~liveness = always[40] (start! in happened ==> eventually[36] stopped);
        check liveness;
        check liveness with start! wait! tick?;
    "#;

    #[test]
    fn compile_egg_timer() {
        let compiled = load(EGG_TIMER).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(compiled.actions.len(), 4);
        let wait = compiled.action("wait!").unwrap();
        assert_eq!(wait.kind, Some(ActionKind::Noop));
        assert_eq!(wait.timeout_ms, Some(1100));
        assert!(wait.guard.is_some());
        let tick = compiled.action("tick?").unwrap();
        assert!(tick.event);
        assert_eq!(tick.selector, Some(Selector::new("#remaining")));
        // Dependencies: both selectors.
        let deps: Vec<&str> = compiled.dependencies.iter().map(Selector::as_str).collect();
        assert_eq!(deps, vec!["#remaining", "#toggle"]);
    }

    #[test]
    fn checks_resolve_with_lists() {
        let compiled = load(EGG_TIMER).unwrap();
        assert_eq!(compiled.checks.len(), 2);
        // Unrestricted check gets all actions and events.
        assert_eq!(compiled.checks[0].actions, vec!["start!", "stop!", "wait!"]);
        assert_eq!(compiled.checks[0].events, vec!["tick?"]);
        // The restricted check keeps only the listed ones.
        assert_eq!(compiled.checks[1].actions, vec!["start!", "wait!"]);
        assert_eq!(compiled.checks[1].events, vec!["tick?"]);
    }

    #[test]
    fn property_thunk_resolves() {
        let compiled = load(EGG_TIMER).unwrap();
        assert!(compiled.property_thunk("liveness").is_some());
        assert!(compiled.property_thunk("nonexistent").is_none());
    }

    #[test]
    fn property_thunks_evaluate_against_states() {
        use quickstrom_protocol::{ElementState, StateSnapshot};
        let compiled = load(EGG_TIMER).unwrap();
        let thunk = compiled.property_thunk("stopped").unwrap();
        let mut snap = StateSnapshot::new();
        snap.insert_query(
            Selector::new("#toggle"),
            vec![ElementState::with_text("start")],
        );
        snap.insert_query(Selector::new("#remaining"), vec![]);
        let ctx = EvalCtx::with_state(&snap, 0);
        assert!(eval::eval_guard(&thunk, &ctx).unwrap());
    }

    #[test]
    fn shadowed_top_level_names_resolve_to_the_latest() {
        let compiled = load("let x = 1; let x = 2; let y = x; check y with noop!;").unwrap();
        let thunk = compiled.property_thunk("y").unwrap();
        let ctx = EvalCtx::stateless(0);
        let v = eval::eval(&thunk.ir, &thunk.env, &ctx).unwrap();
        assert!(matches!(v, Value::Int(2)));
    }

    #[test]
    fn eager_state_query_is_a_compile_error() {
        let err = load("let t = `#x`.text; check t;").unwrap_err();
        assert!(err.message.contains("state"), "{err}");
    }

    #[test]
    fn suffix_convention_is_enforced() {
        let err = load("action boom! = changed?(`#x`);").unwrap_err();
        assert!(err.message.contains("mixes conventions"));
        let err2 = load("action boom? = click!(`#x`);").unwrap_err();
        assert!(err2.message.contains("mixes conventions"));
    }

    #[test]
    fn action_body_must_be_action() {
        let err = load("action go! = 42;").unwrap_err();
        assert!(err.message.contains("primitive action"));
    }

    #[test]
    fn timeout_must_be_integer() {
        let err = load("action go! = noop! timeout \"soon\";").unwrap_err();
        assert!(err.message.contains("milliseconds"));
    }

    #[test]
    fn builtin_noop_in_with_list() {
        let compiled = load("let ~p = true; check p with noop!;").unwrap();
        assert_eq!(compiled.checks[0].actions, vec!["noop!"]);
    }

    /// One cache per `(property, demand, state cap, memo capacity)`,
    /// created on first request and never at load.
    #[test]
    fn property_caches_share_by_property_demand_cap_and_capacity() {
        let compiled = load(EGG_TIMER).unwrap();
        assert!(compiled.caches.is_empty(), "load creates no cache");
        let cache = |property: &str, demand: u32, cap: usize, capacity: usize| {
            compiled
                .caches
                .cache(property, demand, cap, capacity, &compiled.analysis)
        };
        let a = cache("liveness", 100, 4096, 1024);
        assert!(Arc::ptr_eq(&a, &cache("liveness", 100, 4096, 1024)));
        for other in [
            cache("liveness", 50, 4096, 1024),
            cache("liveness", 100, 2, 1024),
            cache("liveness", 100, 4096, 2),
            cache("stopped", 100, 4096, 1024),
        ] {
            assert!(!Arc::ptr_eq(&a, &other));
        }
        assert_eq!(compiled.caches.len(), 5);
        assert_eq!(a.table.lock().unwrap().state_cap(), 4096);
        assert_eq!(a.atoms.capacity(), 1024);
    }

    /// The checker's parallel runtime shares one compiled spec (and the
    /// property thunks cloned out of it) across worker threads. Values are
    /// `Arc`-based and immutable after compilation, so this holds by
    /// construction — pin it at compile time.
    #[test]
    fn compiled_specs_are_shareable_across_threads() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CompiledSpec>();
        assert_send_sync::<crate::Thunk>();
        assert_send_sync::<crate::value::Value>();
    }
}
