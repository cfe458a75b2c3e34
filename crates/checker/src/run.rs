//! Per-run state: trace recording, formula progression and action
//! selection.
//!
//! A [`Run`] is the pure half of a test run — it owns the formula
//! progression engine (the property's shared transition table, or the
//! plain stepper, see [`Role`]), the recorded trace, the coverage
//! observations and the action-selection state, but never talks to an
//! executor itself. The protocol half lives in
//! [`crate::session::Session`], which steps a `Run` one executor reply
//! batch at a time.
//!
//! Action selection is delegated to a pluggable
//! [`Strategy`](quickstrom_explore::Strategy) built from
//! [`CheckOptions::strategy`]; the run feeds it the current state's
//! fingerprint and its per-`(state, action)` history, maintained
//! incrementally from the snapshot pipeline's deltas (see DESIGN.md,
//! *Exploration engine*).

use crate::options::{CheckOptions, FingerprintMode};
use crate::report::{Counterexample, RunResult, TraceEntry};
use crate::runner::CheckError;
use quickltl::automaton::for_each_live_atom;
use quickltl::{
    AtomId, Evaluator, Formula, Observation, Outcome, StateId, StepReport, TableStep, Verdict,
};
use quickstrom_explore::{
    target_index, Candidate, Fingerprinter, ProjectionTermCache, RunCoverage, Strategy, StrategyCtx,
};
use quickstrom_obs::{AttrValue, MetricsRecorder, SpanKind, TraceSink};
use quickstrom_protocol::{
    masked_query_term, ActionInstance, ActionKind, ExecutorMsg, FieldMask, ProjectionHash,
    Selector, StateFingerprint, StateSnapshot, StateUpdate, Symbol,
};
use rand::rngs::StdRng;
use specstrom::{
    eval_guard, expand_thunk, ActionValue, AtomFootprint, AtomKeyer, CheckDef, CompiledSpec,
    EvalCtx, MemoEntry, PropertyCache, StepEntry, StepNext, Thunk, WordMap, WordSet,
};
use std::cell::{Cell, RefCell};
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// Per-run semantic record for one distinct atom (keyed by
/// [`Thunk::identity`]): its cross-run semantic key and static footprint,
/// computed once on first sight. Holding `atom` pins the pointers both the
/// identity key and the semantic key hashed, so neither can be reused by a
/// different thunk while the record lives.
struct AtomRecord {
    /// The atom this record describes (pins its pointers).
    #[allow(dead_code)] // held for the pinning guarantee above
    atom: Thunk,
    /// Cross-run semantic key: IR address plus content-hashed environment
    /// ([`AtomKeyer`]); equal for the "same" atom across runs, workers and
    /// shrink replays even when runtime frames differ by address.
    key: u64,
    /// The static over-approximation of what the atom can read, shared
    /// through the property-level memo ([`AtomMemo::footprint`]): one
    /// analysis per distinct semantic atom, not per thunk identity.
    footprint: Arc<AtomFootprint>,
}

/// What the expansion closure served: a freshly expanded formula, or a
/// shared memo entry whose pre-abstracted shape the automaton path
/// consumes without re-walking any IR.
enum Served {
    /// A concrete expansion.
    Formula(Formula<Thunk>),
    /// A value-keyed memo hit.
    Memo(Arc<MemoEntry>),
}

impl Served {
    /// The concrete expansion, for stepper-style consumers.
    fn into_formula(self) -> Formula<Thunk> {
        match self {
            Served::Formula(f) => f,
            Served::Memo(entry) => entry.expansion.clone(),
        }
    }
}

/// The value key of an atom at a state: an order-sensitive hash over the
/// masked projection of every selector in the atom's footprint, plus the
/// `happened` names when the footprint reads them. Selector terms come
/// from the O(changed) [`ProjectionTermCache`] whenever the spec-level
/// merged mask covers the atom's own (the common case — the analysis
/// masks are the union of all footprints); otherwise the term is computed
/// directly with the atom's own mask, which is always sound: hashing at
/// least the fields the atom can read means equal hashes imply equal
/// visible values (modulo 64-bit collision, guarded by the debug
/// verify-on-hit).
fn projection_hash(
    footprint: &AtomFootprint,
    state: &StateSnapshot,
    masks: &BTreeMap<Selector, FieldMask>,
    terms: &mut ProjectionTermCache,
) -> u64 {
    let mut hash = ProjectionHash::new();
    for (selector, usage) in &footprint.selectors {
        let own = usage.field_mask();
        let elements = state.matches(selector);
        let term = match masks.get(selector) {
            Some(&merged) if merged.covers(own) => terms.term(selector, elements, merged),
            _ => masked_query_term(selector, elements, own),
        };
        hash.term(term);
    }
    if footprint.reads_happened {
        hash.flag(true);
        for name in &state.happened {
            hash.text(name.as_str());
        }
    }
    hash.finish()
}

/// The signature of an automaton state's atom bindings: an
/// order-sensitive hash over each thunk's cross-run semantic key
/// ([`AtomKeyer`]) *and* the vector's pointer-aliasing pattern (each
/// position's first identity-equal occurrence). Keys are equal for thunks
/// with the same code and content-equal environments, so equal signatures
/// mean the bindings denote the same atoms; the aliasing pattern is
/// hashed too because the observation builder dedups atoms by thunk
/// identity — content-equal bindings with different sharing would
/// abstract to *structurally* different observations (and so different
/// transition-table keys), which the step memo's exact counter replay
/// must distinguish. Together the two halves pin the whole abstracted
/// observation, making replays structurally — not just semantically —
/// exact.
///
/// The key cache stores the thunk alongside its key: holding the `Arc`s
/// keeps the identity pointers alive, so a cache hit can never serve the
/// key of a dead thunk whose addresses were reused (the same pinning
/// discipline as the atom records).
fn bindings_sig(
    keyer: &mut AtomKeyer,
    keys: &mut WordMap<(usize, usize), (Thunk, u64)>,
    bindings: &[Thunk],
) -> u64 {
    let mut hash = ProjectionHash::new();
    let mut first_seen: WordMap<(usize, usize), u64> =
        WordMap::with_capacity_and_hasher(bindings.len(), Default::default());
    for (i, thunk) in bindings.iter().enumerate() {
        let key = keys
            .entry(thunk.identity())
            .or_insert_with(|| (thunk.clone(), keyer.key(thunk)))
            .1;
        hash.term(key);
        hash.term(*first_seen.entry(thunk.identity()).or_insert(i as u64));
    }
    hash.finish()
}

/// Where the next action comes from: fresh randomness (optionally seeded
/// with a corpus prefix to replay-then-extend) or a recorded script (for
/// counterexample replay and shrinking).
#[allow(clippy::large_enum_variant)] // StdRng is big; sources are stack-local
pub(crate) enum ActionSource<'a> {
    /// Strategy-driven selection with a per-run generator. When `prefix`
    /// is non-empty the run first replays it action by action (a corpus
    /// seed leading back to a novel state), then extends with fresh
    /// strategy-chosen actions; a prefix action whose guard no longer
    /// holds abandons the rest of the prefix.
    Random {
        /// The per-run generator (seeded from `(master seed, run index)`).
        rng: StdRng,
        /// The corpus prefix to replay first (empty for fresh runs).
        prefix: &'a [ActionInstance],
        /// Position of the next prefix action to replay.
        pos: usize,
    },
    /// Replay of a recorded action script.
    Script {
        /// The recorded actions.
        actions: &'a [ActionInstance],
        /// Position of the next action to replay.
        pos: usize,
    },
}

/// The text pool for generated inputs. Includes the empty string and
/// whitespace-only entries deliberately: several TodoMVC faults (blank
/// items, empty-edit deletion) only surface on degenerate input. Widened
/// beyond ASCII with multibyte, combining-mark, emoji and very long
/// samples — all still drawn deterministically from the run RNG.
const INPUT_POOL: &[&str] = &[
    "",
    " ",
    "a",
    "buy milk",
    "walk the dog",
    "  trim me  ",
    "x",
    "déjà vu",
    "meditate",
    "日本語のテキスト",
    "🦀 crabs 🦀",
    "emoji\u{200d}zwj\u{200d}seq",
    "Ω≈ç√∫ µ≤≥÷",
    "a deliberately long entry that overflows typical list layouts, wraps \
     across several lines, and exercises truncation and measurement paths \
     that short inputs never reach (0123456789 0123456789 0123456789)",
];

fn generate_text(rng: &mut StdRng) -> String {
    use rand::Rng;
    let i = rng.gen_range(0..INPUT_POOL.len());
    INPUT_POOL[i].to_owned()
}

/// What [`Run::next_action`] chose, and from where — consumed by the
/// acceptance bookkeeping ([`Run::note_accepted`]/[`Run::note_effect`]).
#[derive(Debug, Clone, Copy)]
struct Choice {
    /// Fingerprint of the state the choice was made in.
    fp: StateFingerprint,
    /// Interned action name.
    name: Symbol,
    /// Target element index (0 for untargeted actions).
    target_index: u32,
}

impl Default for Choice {
    fn default() -> Self {
        Choice {
            fp: StateFingerprint::EMPTY,
            name: Symbol::intern("noop!"),
            target_index: 0,
        }
    }
}

/// What a [`Run`] does with the states it ingests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Role {
    /// The production evaluator: steps the property's shared
    /// [`TransitionTable`](quickltl::TransitionTable) through the
    /// value-keyed atom memo and the step memo of its [`PropertyCache`],
    /// falling back to the stepper past the table's state cap.
    Evaluator,
    /// The reference checker's evaluator ([`crate::oracle`]): the plain
    /// stepper with every atom expanded afresh. Touches no shared cache.
    Oracle,
}

/// How this run progresses its formula.
enum Engine {
    /// Plain formula progression: the residual lives in the evaluator.
    Stepper(Evaluator<Thunk>),
    /// Table-driven progression against the property's shared
    /// [`TransitionTable`](quickltl::TransitionTable) (held by the run's
    /// [`PropertyCache`]): the run only carries its current state id and
    /// the concrete thunks bound to that state's abstract atoms. Falls
    /// back to [`Engine::Stepper`] mid-run (via [`Evaluator::resume`])
    /// when the table reports its state cap exceeded.
    Automaton {
        /// Where in the automaton this run is.
        pos: AutomatonPos,
        /// States observed so far (mirrors [`Evaluator::states_seen`], so
        /// a fallback resumes with the right forced-verdict gating).
        states_seen: usize,
    },
}

/// The automaton-mode position of one run.
enum AutomatonPos {
    /// At `id`, with `bindings[i]` the concrete thunk behind abstract
    /// atom `i` of the state formula.
    Running {
        /// Current table state.
        id: StateId,
        /// Concrete thunk for each abstract atom id, indexed by id.
        bindings: Vec<Thunk>,
        /// Content signature of `bindings` (see [`bindings_sig`]) — one
        /// half of the step-memo key.
        sig: u64,
    },
    /// A definitive verdict was reached; latched like the evaluator.
    Done(bool),
}

/// What one eval step decided before the engine is (possibly) replaced —
/// split out so the stepper fallback can re-observe the current state
/// *after* the borrow of the automaton fields ends.
enum StepPlan {
    Report(StepReport),
    Fallback(Evaluator<Thunk>),
}

/// The per-run machinery shared by random runs and scripted replays:
/// formula progression, trace recording, coverage and action selection.
/// The two [`Role`]s differ only in how they progress the formula.
pub(crate) struct Run<'a> {
    pub(crate) spec: &'a CompiledSpec,
    pub(crate) check: &'a CheckDef,
    pub(crate) options: &'a CheckOptions,
    engine: Engine,
    /// The property's shared transition table, atom memo and step memo —
    /// present exactly in the evaluator role, and kept even after a
    /// mid-run fallback so the `ltl_states` counter can still be read at
    /// session end.
    cache: Option<Arc<PropertyCache>>,
    /// Steps answered by a memoized table transition (no pipeline work).
    pub(crate) ltl_table_hits: u64,
    /// Event name lookup: selector → declared `…?` event names.
    pub(crate) events_by_selector: BTreeMap<Selector, Vec<Symbol>>,
    /// Event-declared timeouts: event name → ms.
    pub(crate) event_timeouts: BTreeMap<Symbol, u64>,
    /// The check's action names, interned once and aligned with
    /// `check.actions` — the enabled-action enumeration runs every step
    /// and must not hit the global interner per candidate set.
    action_syms: Vec<Symbol>,
    /// Pre-interned `"timeout?"` (per-message `happened` filling).
    sym_timeout: Symbol,
    /// Pre-interned `"loaded?"` (per-message `happened` filling).
    sym_loaded: Symbol,
    pub(crate) trace: Vec<TraceEntry>,
    pub(crate) script: Vec<ActionInstance>,
    pub(crate) actions_done: usize,
    /// Per-action-name acceptance counts (the LeastTried signal, §5.1).
    pub(crate) action_counts: BTreeMap<Symbol, usize>,
    /// The pluggable action picker built from [`CheckOptions::strategy`].
    pub(crate) strategy: Box<dyn Strategy>,
    /// Coverage observations: fingerprints, transitions, first visits and
    /// per-`(state, action)` counts, maintained incrementally per step.
    pub(crate) coverage: RunCoverage,
    /// Where and what the last returned action was: the choice-time
    /// fingerprint plus the action's interned name and target index —
    /// captured at selection so acceptance bookkeeping never re-interns
    /// or re-derives them.
    last_choice: Choice,
    pub(crate) last_state: Option<StateSnapshot>,
    pub(crate) last_report: Option<StepReport>,
    pub(crate) pending_wait: Option<u64>,
    /// Wall-clock time spent in specification evaluation — formula
    /// progression plus guard evaluation (the per-phase attribution behind
    /// [`crate::report::PhaseTimings::eval_s`]).
    pub(crate) eval_time: std::time::Duration,
    /// Per-run semantic records for distinct atoms, filled lazily on
    /// first expansion request.
    atom_records: WordMap<(usize, usize), AtomRecord>,
    /// The cross-run semantic keyer (content-hashes environment chains,
    /// memoized per frame address), shared by atom records and bindings
    /// signatures: a successor binding keyed at one step is the atom
    /// expanded at the next, so its frames are hashed once. A `RefCell`
    /// because both the expansion closure and the engine match key thunks
    /// within one step; `atom_records` and `binding_keys` pin every keyed
    /// thunk, as the keyer's frame cache requires.
    keyer: RefCell<AtomKeyer>,
    /// O(changed) cache of per-selector masked projection terms, fed by
    /// the same deltas as the coverage fingerprinter.
    projection_terms: ProjectionTermCache,
    /// Atom expansions requested by the evaluator over the whole run.
    pub(crate) atoms_total: u64,
    /// Of those, how many actually re-evaluated (memo misses). In the
    /// oracle role, which has no memo, the two counters are equal.
    pub(crate) atoms_reevaluated: u64,
    /// Memo lookups served without re-evaluation.
    pub(crate) atom_memo_hits: u64,
    /// Memo lookups that had to expand the atom.
    pub(crate) atom_memo_misses: u64,
    /// Memo entries this run's insertions evicted (FIFO, capacity bound).
    pub(crate) atom_memo_evictions: u64,
    /// Steps answered entirely by the step memo (no expansion, no
    /// observation, no table step).
    pub(crate) step_memo_hits: u64,
    /// Identity-keyed cache of binding thunk keys (the same thunks recur
    /// every step while a residual is stable). Each entry pins its thunk
    /// so the identity pointers stay valid — see [`bindings_sig`].
    binding_keys: WordMap<(usize, usize), (Thunk, u64)>,
    /// Structured-tracing sink for this run's spans (disabled by default;
    /// never influences control flow — see DESIGN.md, *Observability*).
    pub(crate) sink: TraceSink,
    /// Metrics recorder for this run's latency/depth histograms (disabled
    /// by default, same contract as the sink).
    pub(crate) metrics: MetricsRecorder,
}

/// The outcome of one run, before aggregation.
pub(crate) enum RunOutcome {
    /// The run concluded with a result.
    Result(RunResult),
    /// A scripted replay found the script no longer applicable (an action's
    /// guard was false or its target disappeared) — only used by shrinking.
    ScriptInvalid,
}

impl<'a> Run<'a> {
    pub(crate) fn new(
        spec: &'a CompiledSpec,
        check: &'a CheckDef,
        property_name: &str,
        property: &Thunk,
        options: &'a CheckOptions,
        role: Role,
    ) -> Self {
        // Only the evaluator role touches the property's shared cache. It
        // is looked up by property *name* (plus the option knobs baked
        // into residuals and bounds): `property_thunk` builds a fresh
        // thunk per call, so the name is the stable cross-run key, while
        // the thunk itself becomes the binding of the start state's
        // single abstract atom.
        let cache = (role == Role::Evaluator).then(|| {
            spec.caches.cache(
                property_name,
                options.default_demand,
                options.automaton_state_cap,
                options.atom_memo_capacity,
                &spec.analysis,
            )
        });
        let keyer = RefCell::new(AtomKeyer::new());
        let mut binding_keys = WordMap::default();
        let engine = match &cache {
            Some(cache) => Engine::Automaton {
                pos: AutomatonPos::Running {
                    id: cache
                        .table
                        .lock()
                        .expect("automaton table poisoned")
                        .start(),
                    bindings: vec![property.clone()],
                    sig: bindings_sig(
                        &mut keyer.borrow_mut(),
                        &mut binding_keys,
                        std::slice::from_ref(property),
                    ),
                },
                states_seen: 0,
            },
            // The oracle steps the plain stepper.
            None => Engine::Stepper(Evaluator::new(Formula::Atom(property.clone()))),
        };
        let mut events_by_selector: BTreeMap<Selector, Vec<Symbol>> = BTreeMap::new();
        let mut event_timeouts = BTreeMap::new();
        for name in &check.events {
            if let Some(av) = spec.action(name) {
                let sym = Symbol::intern(name);
                if let Some(sel) = &av.selector {
                    events_by_selector.entry(*sel).or_default().push(sym);
                }
                if let Some(t) = av.timeout_ms {
                    event_timeouts.insert(sym, t);
                }
            }
        }
        Run {
            spec,
            check,
            options,
            engine,
            cache,
            ltl_table_hits: 0,
            events_by_selector,
            event_timeouts,
            action_syms: check.actions.iter().map(|n| Symbol::intern(n)).collect(),
            sym_timeout: Symbol::intern("timeout?"),
            sym_loaded: Symbol::intern("loaded?"),
            trace: Vec::new(),
            script: Vec::new(),
            actions_done: 0,
            action_counts: BTreeMap::new(),
            strategy: options.strategy.build(),
            coverage: match options.fingerprint {
                FingerprintMode::Shape => RunCoverage::new(),
                FingerprintMode::SpecAware => RunCoverage::with_fingerprinter(
                    Fingerprinter::spec_aware(Arc::clone(&spec.analysis.masks)),
                ),
            },
            last_choice: Choice::default(),
            last_state: None,
            last_report: None,
            pending_wait: None,
            eval_time: std::time::Duration::ZERO,
            atom_records: WordMap::default(),
            keyer,
            projection_terms: ProjectionTermCache::new(),
            atoms_total: 0,
            atoms_reevaluated: 0,
            atom_memo_hits: 0,
            atom_memo_misses: 0,
            atom_memo_evictions: 0,
            step_memo_hits: 0,
            binding_keys,
            sink: TraceSink::disabled(),
            metrics: MetricsRecorder::disabled(),
        }
    }

    /// Attaches an observability sink and metrics recorder (both disabled
    /// by default). Instrumentation only *observes* — spans and histogram
    /// samples never branch the run's control flow, so reports are
    /// bit-identical with tracing on or off.
    pub(crate) fn with_obs(mut self, sink: TraceSink, metrics: MetricsRecorder) -> Self {
        self.sink = sink;
        self.metrics = metrics;
        self
    }

    /// The `happened` names for an executor message (§3.2: "all events or
    /// actions that occurred immediately prior to the current state").
    /// Interned end to end: no string is cloned per step.
    fn happened_for(&self, msg: &ExecutorMsg, action: Option<&ActionInstance>) -> Vec<Symbol> {
        match msg {
            ExecutorMsg::Acted { .. } => action
                .map(|a| vec![Symbol::intern(&a.name)])
                .unwrap_or_default(),
            ExecutorMsg::Timeout { .. } => vec![self.sym_timeout],
            ExecutorMsg::Event { event, detail, .. } => {
                if event == "loaded?" {
                    return vec![self.sym_loaded];
                }
                let mut mapped: Vec<Symbol> = detail
                    .iter()
                    .filter_map(|sel| self.events_by_selector.get(sel))
                    .flatten()
                    .copied()
                    .collect();
                // Sort by *text* (symbol order is interning order), so
                // the recorded `happened` lists keep the alphabetical
                // order reports and traces have always had.
                mapped.sort_unstable_by_key(|s| s.as_str());
                mapped.dedup();
                if mapped.is_empty() {
                    vec![Symbol::intern(event)]
                } else {
                    mapped
                }
            }
        }
    }

    /// Feeds one executor message into the trace, the formula, and the
    /// coverage accounting.
    ///
    /// The carried [`StateUpdate`] is reconstructed against the previous
    /// state: a full snapshot replaces it, a delta is applied onto it —
    /// sharing the query results of every unchanged selector, so the
    /// recorded trace grows by O(changed) per step. The state's
    /// [`StateFingerprint`] is maintained the same way: a delta only
    /// re-hashes its changed selectors. Delta versions must follow the
    /// trace length exactly (the executor numbers states from 1); a gap
    /// means a missed update and is a protocol error.
    pub(crate) fn ingest(
        &mut self,
        msg: &ExecutorMsg,
        action: Option<&ActionInstance>,
    ) -> Result<(), CheckError> {
        let happened = self.happened_for(msg, action);
        let update = msg.update();
        if let StateUpdate::Delta(delta) = update {
            let expected = self.version() + 1;
            if delta.state_version != expected {
                return Err(CheckError::new(format!(
                    "snapshot delta carries state version {} but the checker \
                     has seen {} state(s) (expected version {expected})",
                    delta.state_version,
                    self.trace.len(),
                )));
            }
        }
        let mut state = update
            .resolve(self.last_state.as_ref())
            .map_err(|e| CheckError::new(e.to_string()))?;
        state.happened = happened.clone();
        // Memo bookkeeping (DESIGN.md, *Atom expansion memoization*): the
        // value-keyed memos need no eviction — entries are keyed by the
        // projected *values* — but the per-selector projection-term cache
        // they hash from must track state changes the same way the
        // coverage fingerprinter does: cleared on full snapshots,
        // invalidated per changed selector on deltas (O(changed) per
        // step).
        if self.cache.is_some() {
            match update {
                StateUpdate::Full(_) => self.projection_terms.clear(),
                StateUpdate::Delta(delta) => {
                    self.projection_terms.invalidate(&delta.changed_selectors());
                }
            }
        }
        let fp = self.coverage.fingerprinter().observe_update(&state, update);
        self.coverage.observe_state(fp, self.script.len());
        self.trace.push(TraceEntry {
            state: state.clone(),
        });
        // Event-declared timeouts (§3.4): when a timeout is associated with
        // an event and that event occurs, the checker requests a Wait.
        if matches!(msg, ExecutorMsg::Event { .. }) {
            for name in &happened {
                if let Some(&t) = self.event_timeouts.get(name) {
                    self.pending_wait = Some(t);
                }
            }
        }
        let ctx = EvalCtx::with_state(&state, self.options.default_demand);
        // Step-memo preparation: hash the state's value signature (the
        // property's union footprint over this state) up front, before the
        // borrow split below — it shares the projection-term cache with
        // atom expansion. Only worth computing when an automaton step will
        // actually consult the memo.
        let state_sig = match (&self.cache, &self.engine) {
            (
                Some(cache),
                Engine::Automaton {
                    pos: AutomatonPos::Running { .. },
                    ..
                },
            ) => Some(projection_hash(
                &cache.steps.footprint,
                &state,
                &self.spec.analysis.masks,
                &mut self.projection_terms,
            )),
            _ => None,
        };
        // Expansion requests this step, readable while the expansion
        // closure is live (a `Cell` borrow is shared) — the step memo
        // records the per-transition delta from it.
        let expansion_requests = Cell::new(0u64);
        // A step-memo hit's replayed expansion count; the counter deltas
        // are applied after the plan match, once the expansion closure's
        // borrows have ended.
        let mut step_replayed: Option<u64> = None;
        // Split the borrows up front: the expansion closure needs the
        // memo and counters while the engine match holds the engine (and,
        // in automaton mode, the hit counter).
        let cache = self.cache.as_deref();
        let memo = cache.map(|c| &c.atoms);
        let records = &mut self.atom_records;
        let keyer = &self.keyer;
        let projection_terms = &mut self.projection_terms;
        let masks: &BTreeMap<Selector, FieldMask> = &self.spec.analysis.masks;
        let atoms_total = &mut self.atoms_total;
        let atoms_reevaluated = &mut self.atoms_reevaluated;
        let memo_hits = &mut self.atom_memo_hits;
        let memo_misses = &mut self.atom_memo_misses;
        let memo_evictions = &mut self.atom_memo_evictions;
        let ltl_table_hits = &mut self.ltl_table_hits;
        let step_memo_hits = &mut self.step_memo_hits;
        let binding_keys = &mut self.binding_keys;
        let sink = &mut self.sink;
        let last_report = self.last_report;
        let state_ref = &state;
        let mut expand = |thunk: &Thunk| -> Result<Served, specstrom::EvalError> {
            *atoms_total += 1;
            expansion_requests.set(expansion_requests.get() + 1);
            let Some(memo) = memo else {
                // The oracle: every atom expanded afresh.
                *atoms_reevaluated += 1;
                return Ok(Served::Formula(expand_thunk(thunk, &ctx)?));
            };
            let record = records.entry(thunk.identity()).or_insert_with(|| {
                let key = keyer.borrow_mut().key(thunk);
                AtomRecord {
                    atom: thunk.clone(),
                    key,
                    footprint: memo.footprint(key, thunk),
                }
            });
            let projection = projection_hash(&record.footprint, state_ref, masks, projection_terms);
            let key = (record.key, projection);
            if let Some(entry) = memo.lookup(key) {
                *memo_hits += 1;
                // Collision safety: in debug builds every hit is re-derived
                // and compared structurally (modulo atom addresses). A
                // 128-bit key collision would trip this before it could
                // corrupt a verdict.
                if cfg!(debug_assertions) {
                    let fresh = expand_thunk(thunk, &ctx)?;
                    debug_assert!(
                        entry.matches_expansion(&fresh),
                        "atom memo collision: key {key:?} served a structurally \
                         different expansion"
                    );
                }
                return Ok(Served::Memo(entry));
            }
            *memo_misses += 1;
            *atoms_reevaluated += 1;
            let expansion = expand_thunk(thunk, &ctx)?;
            *memo_evictions += memo.insert(key, MemoEntry::build(thunk.clone(), expansion.clone()));
            Ok(Served::Formula(expansion))
        };
        let step_span = sink.open(SpanKind::Step);
        let eval_started = std::time::Instant::now();
        let plan = match &mut self.engine {
            Engine::Stepper(ev) => {
                let atoms_span = sink.open(SpanKind::Atoms);
                let report = ev
                    .observe_expanding(&mut |t: &Thunk| expand(t).map(Served::into_formula))
                    .map_err(CheckError::from)?;
                sink.close_with(atoms_span, |a| {
                    a.push(("expansions", AttrValue::U64(expansion_requests.get())))
                });
                StepPlan::Report(report)
            }
            Engine::Automaton { pos, states_seen } => match pos {
                // Latched, like the evaluator: no atom is expanded.
                AutomatonPos::Done(b) => StepPlan::Report(StepReport::Definitive(*b)),
                AutomatonPos::Running { id, bindings, sig } => 'step: {
                    let cache = cache.expect("automaton runs carry a property cache");
                    // Step-memo fast path: key the transition by (state
                    // id, bindings signature, state-value signature) and
                    // replay its outcome wholesale — no expansion, no
                    // observation BFS, no table step. The replayed entry
                    // also carries the exact expansion count the original
                    // transition issued, so the atom counters stay what an
                    // unmemoized engine would have reported (applied after
                    // the plan match; see `step_replayed`).
                    let memo_key = (
                        *id,
                        *sig,
                        state_sig.expect("running automaton steps hash the state"),
                    );
                    if let Some(entry) = cache.steps.lookup(memo_key) {
                        step_replayed = Some(entry.expansions);
                        // A replay counts as a table hit: the entry's
                        // transition was interned when it was recorded,
                        // and its successor state is already interned
                        // (`ltl_states` stays exact). The count can
                        // exceed the unmemoized engine's by a sliver —
                        // rarely, the observation an unmemoized step
                        // would rebuild here differs *structurally*
                        // (thunk-identity sharing shifts with atom-memo
                        // warmth) while simplifying to the same
                        // successor, so the counterfactual lookup would
                        // re-intern instead of hit. Verdicts, traces,
                        // and atom counters are unaffected.
                        *ltl_table_hits += 1;
                        *step_memo_hits += 1;
                        *states_seen += 1;
                        break 'step match &entry.next {
                            StepNext::Done(b) => {
                                *pos = AutomatonPos::Done(*b);
                                StepPlan::Report(StepReport::Definitive(*b))
                            }
                            StepNext::Goto {
                                state: next,
                                presumptive,
                                bindings: next_bindings,
                                bindings_sig: next_sig,
                            } => {
                                *pos = AutomatonPos::Running {
                                    id: *next,
                                    bindings: next_bindings.clone(),
                                    sig: *next_sig,
                                };
                                StepPlan::Report(StepReport::Continue {
                                    presumptive: *presumptive,
                                })
                            }
                        };
                    }
                    let expansions_before = expansion_requests.get();
                    let atoms_span = sink.open(SpanKind::Atoms);
                    let live = cache
                        .table
                        .lock()
                        .expect("automaton table poisoned")
                        .live_atoms(*id);
                    // Build the observation: expand every live atom of the
                    // state formula — plus, transitively, every live atom
                    // of an expansion (`unroll` recurses the same way).
                    // Abstract ids are assigned in discovery order, which
                    // is deterministic given the table state, so equal
                    // concrete steps produce equal observation keys.
                    let mut ids: WordMap<(usize, usize), AtomId> =
                        WordMap::with_capacity_and_hasher(bindings.len(), Default::default());
                    for (i, thunk) in bindings.iter().enumerate() {
                        ids.insert(thunk.identity(), i as AtomId);
                    }
                    let mut step_thunks: Vec<Thunk> = bindings.clone();
                    let mut obs: Observation = Vec::new();
                    let mut queue: VecDeque<AtomId> = live.iter().copied().collect();
                    let mut seen: WordSet<AtomId> = WordSet::default();
                    while let Some(aid) = queue.pop_front() {
                        if !seen.insert(aid) {
                            continue;
                        }
                        let thunk = step_thunks[aid as usize].clone();
                        let served = expand(&thunk).map_err(CheckError::from)?;
                        let mut intern = |t: Thunk| match ids.entry(t.identity()) {
                            Entry::Occupied(e) => *e.get(),
                            Entry::Vacant(e) => {
                                let fresh = step_thunks.len() as AtomId;
                                step_thunks.push(t);
                                *e.insert(fresh)
                            }
                        };
                        let abstracted = match served {
                            Served::Formula(expansion) => expansion.map_atoms(&mut intern),
                            // A memo hit serves the entry's pre-abstracted
                            // shape: re-indexing its deduplicated atoms
                            // into this step's id space is the only work —
                            // a fully warm step does zero IR evaluation
                            // and never re-walks a `Formula<Thunk>`. The
                            // entry's atoms are stored in first-occurrence
                            // order (the order `map_atoms` discovers
                            // them), so id assignment matches the fresh
                            // path exactly.
                            Served::Memo(entry) => {
                                let local: Vec<AtomId> =
                                    entry.atoms.iter().map(|t| intern(t.clone())).collect();
                                entry
                                    .shape
                                    .clone()
                                    .map_atoms(&mut |i: u32| local[i as usize])
                            }
                        };
                        for_each_live_atom(&abstracted, &mut |&a| {
                            if !seen.contains(&a) {
                                queue.push_back(a);
                            }
                        });
                        obs.push((aid, abstracted));
                    }
                    sink.close_with(atoms_span, |a| {
                        a.push(("atoms", AttrValue::U64(obs.len() as u64)));
                        a.push((
                            "expansions",
                            AttrValue::U64(expansion_requests.get() - expansions_before),
                        ));
                    });
                    let table_span = sink.open(SpanKind::AutomatonStep);
                    let step = cache
                        .table
                        .lock()
                        .expect("automaton table poisoned")
                        .step(*id, &obs);
                    sink.close_with(table_span, |a| {
                        if let Ok((_, hit)) = &step {
                            a.push(("table_hit", AttrValue::Bool(*hit)));
                        }
                    });
                    match step {
                        Ok((step, hit)) => {
                            if hit {
                                *ltl_table_hits += 1;
                            }
                            *states_seen += 1;
                            let expansions = expansion_requests.get() - expansions_before;
                            match step {
                                TableStep::Done(b) => {
                                    cache.steps.insert(
                                        memo_key,
                                        StepEntry {
                                            next: StepNext::Done(b),
                                            expansions,
                                        },
                                    );
                                    *pos = AutomatonPos::Done(b);
                                    StepPlan::Report(StepReport::Definitive(b))
                                }
                                TableStep::Goto {
                                    state: next,
                                    presumptive,
                                    sources,
                                } => {
                                    let bindings: Vec<Thunk> = sources
                                        .iter()
                                        .map(|&s| step_thunks[s as usize].clone())
                                        .collect();
                                    let next_sig = bindings_sig(
                                        &mut keyer.borrow_mut(),
                                        binding_keys,
                                        &bindings,
                                    );
                                    cache.steps.insert(
                                        memo_key,
                                        StepEntry {
                                            next: StepNext::Goto {
                                                state: next,
                                                presumptive,
                                                bindings: bindings.clone(),
                                                bindings_sig: next_sig,
                                            },
                                            expansions,
                                        },
                                    );
                                    *pos = AutomatonPos::Running {
                                        id: next,
                                        bindings,
                                        sig: next_sig,
                                    };
                                    StepPlan::Report(StepReport::Continue { presumptive })
                                }
                            }
                        }
                        Err(_) => {
                            // The residual space outgrew the cap (or an
                            // expansion fell outside the observation —
                            // impossible by construction, handled the same
                            // way): reconstitute the concrete residual and
                            // resume the stepper exactly where the table
                            // left off. Re-observing the current state
                            // below re-expands its atoms, which the atom
                            // memo serves; the fallback is
                            // verdict-invisible.
                            let formula = cache
                                .table
                                .lock()
                                .expect("automaton table poisoned")
                                .state_formula(*id)
                                .clone();
                            let residual =
                                formula.map_atoms(&mut |a: AtomId| bindings[a as usize].clone());
                            StepPlan::Fallback(Evaluator::resume(
                                residual,
                                *states_seen,
                                last_report,
                            ))
                        }
                    }
                }
            },
        };
        let report = match plan {
            StepPlan::Report(report) => report,
            StepPlan::Fallback(mut ev) => {
                let atoms_span = sink.open(SpanKind::Atoms);
                let report = ev
                    .observe_expanding(&mut |t: &Thunk| expand(t).map(Served::into_formula))
                    .map_err(CheckError::from)?;
                sink.close_with(atoms_span, |a| {
                    a.push(("fallback", AttrValue::Bool(true)));
                });
                self.engine = Engine::Stepper(ev);
                report
            }
        };
        // A step-memo hit replays the original transition's expansion
        // count into the atom counters (the closure's borrows have ended
        // here): the atom memo would have served every one of those
        // requests, since the original transition inserted them.
        if let Some(expansions) = step_replayed {
            self.atoms_total += expansions;
            self.atom_memo_hits += expansions;
        }
        let elapsed = eval_started.elapsed();
        self.eval_time += elapsed;
        let step_expansions = expansion_requests.get() + step_replayed.unwrap_or(0);
        let step_memoized = step_replayed.is_some();
        self.sink.close_with(step_span, |a| {
            a.push(("expansions", AttrValue::U64(step_expansions)));
            a.push(("step_memo_hit", AttrValue::Bool(step_memoized)));
        });
        if let StepReport::Definitive(b) = report {
            self.sink.instant(SpanKind::Verdict, |a| {
                a.push(("value", AttrValue::Bool(b)));
            });
        }
        self.metrics.step_latency(elapsed);
        self.metrics.probe_depth(step_expansions);
        self.last_report = Some(report);
        self.last_state = Some(state);
        Ok(())
    }

    /// The number of residual states the property's automaton table holds
    /// (0 in the oracle role). Read at session end for
    /// [`crate::report::PhaseTimings::ltl_states`]; the table survives a
    /// mid-run stepper fallback, so the counter stays meaningful.
    pub(crate) fn ltl_states(&self) -> u64 {
        self.cache.as_ref().map_or(0, |c| {
            c.table
                .lock()
                .expect("automaton table poisoned")
                .state_count() as u64
        })
    }

    /// Engine-dispatched forced verdict (see [`Evaluator::forced_outcome`]):
    /// the last report's regular outcome when it yields one; before any
    /// observation, `MoreStatesNeeded`; otherwise the end-of-trace default
    /// of the current residual, read presumptively. The table precomputes
    /// that default per state — `end_of_trace_default` never looks inside
    /// an atom, so the abstract answer is the concrete one.
    fn forced_outcome(&self) -> Outcome {
        match &self.engine {
            Engine::Stepper(ev) => ev.forced_outcome(),
            Engine::Automaton { pos, states_seen } => {
                if let Some(report) = self.last_report {
                    if let Outcome::Verdict(v) = report.outcome() {
                        return Outcome::Verdict(v);
                    }
                }
                if *states_seen == 0 {
                    return Outcome::MoreStatesNeeded;
                }
                match pos {
                    AutomatonPos::Done(b) => Outcome::Verdict(Verdict::definitely(*b)),
                    AutomatonPos::Running { id, .. } => Outcome::Verdict(Verdict::presumably(
                        self.cache
                            .as_ref()
                            .expect("automaton runs carry a property cache")
                            .table
                            .lock()
                            .expect("automaton table poisoned")
                            .forced_default(*id),
                    )),
                }
            }
        }
    }

    pub(crate) fn definitive(&self) -> Option<bool> {
        match self.last_report {
            Some(StepReport::Definitive(b)) => Some(b),
            _ => None,
        }
    }

    fn presumptive(&self) -> Option<bool> {
        match self.last_report {
            Some(StepReport::Continue { presumptive }) => presumptive,
            Some(StepReport::Definitive(b)) => Some(b),
            None => None,
        }
    }

    /// Formula demands more states (required-next outstanding)?
    fn demands_more(&self) -> bool {
        matches!(
            self.last_report,
            Some(StepReport::Continue { presumptive: None })
        )
    }

    /// Has the per-run action budget been spent?
    fn budget_spent(&self) -> bool {
        self.actions_done >= self.options.max_actions
    }

    /// Has the hard action cap (budget plus demand headroom) been hit?
    fn at_hard_cap(&self) -> bool {
        self.actions_done >= self.options.hard_action_cap()
    }

    /// The protocol version of the next `Act`/`Wait`: how many states this
    /// run has seen.
    pub(crate) fn version(&self) -> u64 {
        self.trace.len() as u64
    }

    /// Every enabled action instance at the current state, paired with
    /// its interned name. Guard evaluation counts toward
    /// [`Run::eval_time`].
    fn enabled_instances(
        &mut self,
        rng: &mut Option<&mut StdRng>,
    ) -> Result<Vec<Candidate>, CheckError> {
        let eval_started = std::time::Instant::now();
        let result = self.enabled_instances_inner(rng);
        self.eval_time += eval_started.elapsed();
        result
    }

    fn enabled_instances_inner(
        &self,
        rng: &mut Option<&mut StdRng>,
    ) -> Result<Vec<Candidate>, CheckError> {
        let state = self.last_state.as_ref().expect("state after start");
        let ctx = EvalCtx::with_state(state, self.options.default_demand);
        let mut out = Vec::new();
        for (name, &sym) in self.check.actions.iter().zip(&self.action_syms) {
            let av: Arc<ActionValue> = match self.spec.action(name) {
                Some(av) => Arc::clone(av),
                // `noop!`/`reload!` may appear in with-lists undeclared.
                None => match name.as_str() {
                    "noop!" => Arc::new(ActionValue::constant("noop!", ActionKind::Noop)),
                    "reload!" => Arc::new(ActionValue::constant("reload!", ActionKind::Reload)),
                    other => {
                        return Err(CheckError::new(format!(
                            "check references undeclared action `{other}`"
                        )))
                    }
                },
            };
            if let Some(guard) = &av.guard {
                if !eval_guard(guard, &ctx).map_err(CheckError::from)? {
                    continue;
                }
            }
            let Some(kind) = av.kind.clone() else {
                continue; // events are not performable
            };
            let base = ActionInstance {
                name: name.clone(),
                kind,
                target: None,
                timeout_ms: av.timeout_ms,
            };
            if base.kind.needs_target() {
                let selector = av.selector.ok_or_else(|| {
                    CheckError::new(format!("action `{name}` lacks a target selector"))
                })?;
                let count = state.matches(&selector).len();
                for index in 0..count {
                    let mut instance = base.clone();
                    instance.target = Some((selector, index));
                    if let ActionKind::Input(None) = instance.kind {
                        if let Some(rng) = rng.as_deref_mut() {
                            instance.kind = ActionKind::Input(Some(generate_text(rng)));
                        }
                    }
                    out.push(Candidate {
                        action: instance,
                        name: sym,
                    });
                }
            } else {
                out.push(Candidate {
                    action: base,
                    name: sym,
                });
            }
        }
        Ok(out)
    }

    /// Picks the next action, or `None` when the run should stop.
    pub(crate) fn next_action(
        &mut self,
        source: &mut ActionSource<'_>,
    ) -> Result<Option<ActionInstance>, CheckError> {
        if matches!(source, ActionSource::Random { .. }) {
            if self.budget_spent() && !self.demands_more() {
                return Ok(None);
            }
            if self.at_hard_cap() {
                return Ok(None);
            }
        }
        match source {
            ActionSource::Random { rng, prefix, pos } => {
                // Corpus replay-then-extend: walk the prefix first. An
                // action that no longer applies (guard false, target
                // gone) abandons the rest of the prefix — the run
                // diverged, so the remainder would lead somewhere else
                // anyway — and falls through to strategy selection.
                while *pos < prefix.len() {
                    let action = prefix[*pos].clone();
                    *pos += 1;
                    if self.script_action_valid(&action)? {
                        self.last_choice = Choice {
                            fp: self.coverage.current(),
                            name: Symbol::intern(&action.name),
                            target_index: target_index(&action),
                        };
                        return Ok(Some(action));
                    }
                    *pos = prefix.len();
                }
                let candidates = {
                    let mut rng_opt: Option<&mut StdRng> = Some(rng);
                    self.enabled_instances(&mut rng_opt)?
                };
                if candidates.is_empty() {
                    return Ok(None);
                }
                let ctx = StrategyCtx {
                    current: self.coverage.current(),
                    action_counts: &self.action_counts,
                    coverage: &self.coverage,
                };
                let chosen = &candidates[self.strategy.pick(&ctx, &candidates, rng)];
                self.last_choice = Choice {
                    fp: self.coverage.current(),
                    name: chosen.name,
                    target_index: chosen.target_index(),
                };
                Ok(Some(chosen.action.clone()))
            }
            ActionSource::Script { actions, pos } => {
                let Some(action) = actions.get(*pos) else {
                    return Ok(None);
                };
                *pos += 1;
                // Scripted replays go through the same acceptance
                // bookkeeping as random runs, so the choice must be
                // recorded here too — otherwise their counts and
                // coverage pairs would be credited to a stale choice.
                self.last_choice = Choice {
                    fp: self.coverage.current(),
                    name: Symbol::intern(&action.name),
                    target_index: target_index(action),
                };
                Ok(Some(action.clone()))
            }
        }
    }

    /// Script bookkeeping for an accepted action, called *before* the
    /// resulting states are ingested so that trace positions (and the
    /// corpus prefix lengths harvested from them) include the action
    /// that produced them. The interned name and target index were
    /// captured when the action was chosen ([`Run::next_action`]).
    pub(crate) fn note_accepted(&mut self, action: ActionInstance) {
        *self.action_counts.entry(self.last_choice.name).or_default() += 1;
        self.script.push(action);
        self.actions_done += 1;
    }

    /// Coverage bookkeeping for an accepted action, called *after* its
    /// resulting states were ingested: records the `(state, action)`
    /// pair against the choice-time fingerprint, with productivity read
    /// off the now-current fingerprint ([`RunCoverage::note_action`]).
    pub(crate) fn note_effect(&mut self) {
        let Choice {
            fp,
            name,
            target_index,
        } = self.last_choice;
        self.coverage.note_action(fp, name, target_index);
    }

    /// Is a scripted action still applicable at the current state?
    pub(crate) fn script_action_valid(&self, action: &ActionInstance) -> Result<bool, CheckError> {
        let state = self.last_state.as_ref().expect("state after start");
        let ctx = EvalCtx::with_state(state, self.options.default_demand);
        if let Some(av) = self.spec.action(&action.name) {
            if let Some(guard) = &av.guard {
                if !eval_guard(guard, &ctx).map_err(CheckError::from)? {
                    return Ok(false);
                }
            }
        }
        if let Some((selector, index)) = &action.target {
            if *index >= state.matches(selector).len() {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Concludes the run. `allow_forced` permits the end-of-trace fallback
    /// verdict for formulas whose demands never drain (see
    /// `quickltl::progress::end_of_trace_default`); it is only set for
    /// *random* runs stopping naturally (budget spent, application stuck).
    /// Scripted replays that merely ran out of script must NOT use it —
    /// otherwise the shrinker would count any prefix ending mid-demand as
    /// a fresh "failure" and shrink real counterexamples into noise.
    pub(crate) fn finish(&self, allow_forced: bool) -> RunOutcome {
        if let Some(b) = self.definitive() {
            return RunOutcome::Result(self.to_result(Verdict::definitely(b)));
        }
        if let Some(b) = self.presumptive() {
            return RunOutcome::Result(self.to_result(Verdict::presumably(b)));
        }
        if allow_forced {
            if let Outcome::Verdict(v) = self.forced_outcome() {
                return RunOutcome::Result(self.to_result_forced(v));
            }
        }
        RunOutcome::Result(RunResult::Inconclusive {
            reason: format!(
                "run ended after {} action(s) with trace-length demands \
                 still outstanding",
                self.actions_done
            ),
        })
    }

    fn to_result(&self, verdict: Verdict) -> RunResult {
        self.result_with(verdict, false)
    }

    fn to_result_forced(&self, verdict: Verdict) -> RunResult {
        self.result_with(verdict, true)
    }

    fn result_with(&self, verdict: Verdict, forced: bool) -> RunResult {
        if verdict.to_bool() {
            RunResult::Passed(verdict)
        } else {
            RunResult::Failed(Counterexample {
                verdict,
                script: self.script.clone(),
                trace: self.trace.clone(),
                shrunk: false,
                forced,
            })
        }
    }
}
