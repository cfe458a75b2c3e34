//! Table-driven evaluation automata for QuickLTL.
//!
//! Formula progression ([`crate::progress`]) re-derives the same residual
//! formulae over and over: every observed state clones the residual,
//! unrolls it (Figure 6), simplifies, classifies and steps. For a checker
//! that evaluates the *same* specification across hundreds of runs, the
//! set of residuals actually reached is small and highly repetitive — the
//! classic automaton view of LTL, adapted here to QuickLTL's demand
//! subscripts and four-valued verdicts.
//!
//! The host's atoms *expand* (Specstrom: an atom is a host-language thunk
//! that expands, per state, into a fresh formula over fresh thunks), so
//! residual enumeration ahead of time is impossible — the alphabet is
//! unbounded. The [`TransitionTable`] is therefore *memoized*: states are
//! residual formulae over abstract atom ids, interned on first sight, and
//! transitions are keyed by the observed expansion *shapes*. A miss runs
//! the exact stepper pipeline ([`crate::unroll`] → [`crate::simplify`] →
//! [`crate::classify`] → [`Guarded::step`](crate::Guarded::step)) on the
//! abstract formula, so hits replay precisely what the stepper would have
//! computed: verdict streams are bit-identical by construction, not by
//! luck.
//!
//! The abstraction is sound because every phase of the progression
//! pipeline is *equivariant* under renaming atoms: unrolling is
//! structural, simplification compares subformulae only for equality,
//! and presumptive/definitive readings never inspect an atom's payload.
//! As long as the host keeps the id ↦ atom binding bijective (two
//! distinct concrete atoms never share an id, one atom never holds two
//! ids — see [`TransitionTable::step`]), the abstract transition computed
//! once is valid for every concrete situation with the same shape.

use crate::progress::{classify, end_of_trace_default, simplify, unroll, Progress};
use crate::syntax::Formula;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Visits every *live* atom of a formula — the atoms not guarded by a
/// next operator, i.e. exactly those [`crate::unroll`] will expand
/// against the current state. Traversal order is left-to-right,
/// depth-first, matching unroll's own evaluation order. Duplicate atoms
/// are visited once per occurrence; callers that need a set must dedup.
pub fn for_each_live_atom<P>(f: &Formula<P>, visit: &mut impl FnMut(&P)) {
    match f {
        Formula::Top | Formula::Bottom => {}
        Formula::Atom(p) => visit(p),
        // Next-guarded subformulae concern the following state.
        Formula::Next(_) | Formula::WeakNext(_) | Formula::StrongNext(_) => {}
        Formula::Not(inner) => for_each_live_atom(inner, visit),
        Formula::Always(_, inner) | Formula::Eventually(_, inner) => {
            for_each_live_atom(inner, visit)
        }
        Formula::And(l, r) | Formula::Or(l, r) => {
            for_each_live_atom(l, visit);
            for_each_live_atom(r, visit);
        }
        Formula::Until(_, l, r) | Formula::Release(_, l, r) => {
            for_each_live_atom(l, visit);
            for_each_live_atom(r, visit);
        }
    }
}

/// Abstract atom identifier inside a [`TransitionTable`].
///
/// Ids are *canonical per state*: the atoms of a state formula are
/// numbered `0..n` in first-occurrence traversal order, so two runs that
/// reach the same residual shape agree on ids and can share transitions.
/// The host keeps an id-indexed binding table mapping each id back to its
/// concrete atom.
pub type AtomId = u32;

/// Index of a state in a [`TransitionTable`].
pub type StateId = usize;

/// An observation at one trace state: each consulted atom id paired with
/// the (abstracted) formula it expanded to, in deterministic discovery
/// order — the current state's live atoms first, then the live atoms
/// their expansions introduced, breadth-first.
///
/// Fresh atoms appearing inside expansions must be numbered continuing
/// after the state's own atom count, in the same discovery order; see
/// [`TransitionTable::step`].
pub type Observation = Vec<(AtomId, Formula<AtomId>)>;

/// One memoized transition.
#[derive(Debug, Clone)]
pub enum TableStep {
    /// The observation decides the formula outright.
    Done(bool),
    /// Evaluation moves to a successor state.
    Goto {
        /// Index of the successor state.
        state: StateId,
        /// The presumptive reading at this point, if permitted.
        presumptive: Option<bool>,
        /// For each atom id of the successor state (in order), the id it
        /// had in the step that produced it — an index into the host's
        /// step-time binding table (state atoms `0..atom_count`, then
        /// fresh expansion atoms). The host rebinds with
        /// `new_bindings[i] = step_bindings[sources[i]]`.
        sources: Arc<[AtomId]>,
    },
}

/// Why a [`TransitionTable`] step could not be served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TableError {
    /// Interning the successor state would exceed the state cap; the
    /// host should fall back to the plain stepper (resuming from the
    /// current residual via [`crate::Evaluator::resume`]).
    CapExceeded {
        /// The configured cap that was exceeded.
        cap: usize,
    },
    /// The observation lacks an expansion for an atom the unroll
    /// consulted — the host under-saturated the observation.
    MissingExpansion(AtomId),
}

impl fmt::Display for TableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TableError::CapExceeded { cap } => {
                write!(f, "transition table exceeded the {cap}-state cap")
            }
            TableError::MissingExpansion(id) => {
                write!(f, "observation lacks an expansion for atom {id}")
            }
        }
    }
}

impl std::error::Error for TableError {}

#[derive(Debug)]
struct TableState {
    formula: Formula<AtomId>,
    /// Number of distinct atom ids in `formula` (== `0..atom_count`).
    atom_count: u32,
    /// Live atom ids (not under a next guard), first-occurrence order.
    live: Arc<Vec<AtomId>>,
    forced_default: bool,
}

/// A memoized, shareable transition table over abstract atom ids — the
/// evaluation automaton for hosts whose atoms *expand* into formulae
/// (Specstrom thunks).
///
/// States are residual formulae with atoms renumbered canonically;
/// transitions are keyed by `(state, observation shapes)`. A missing
/// transition is computed with the exact progression pipeline
/// ([`unroll`] → [`simplify`] → [`classify`] →
/// [`Guarded::step`](crate::Guarded::step)) on the abstract formula and
/// memoized; because every pipeline phase is equivariant under the
/// id ↦ atom bijection the host maintains, a hit replays bit-for-bit the
/// computation the stepper would have performed on the concrete formula.
///
/// Tables are designed to be shared (`Mutex`-wrapped) across the many
/// runs of one property: the first run pays the misses, later runs step
/// by pure lookups.
#[derive(Debug)]
pub struct TransitionTable {
    states: Vec<TableState>,
    index: HashMap<Formula<AtomId>, StateId>,
    transitions: HashMap<(StateId, Observation), TableStep>,
    state_cap: usize,
    hits: u64,
    misses: u64,
}

impl TransitionTable {
    /// Creates a table whose start state is `start`.
    ///
    /// `start` must already be canonical: atom ids numbered `0..n` in
    /// first-occurrence traversal order (the usual start state is
    /// `Formula::Atom(0)` — the whole property as one expanding atom,
    /// bound to the property thunk). `state_cap` bounds the number of
    /// interned states; exceeding it surfaces as
    /// [`TableError::CapExceeded`] from [`TransitionTable::step`].
    #[must_use]
    pub fn new(start: Formula<AtomId>, state_cap: usize) -> Self {
        let mut table = TransitionTable {
            states: Vec::new(),
            index: HashMap::new(),
            transitions: HashMap::new(),
            state_cap: state_cap.max(1),
            hits: 0,
            misses: 0,
        };
        let (canonical, _) = canonicalize(start);
        table
            .intern(canonical)
            .expect("the start state fits any cap >= 1");
        table
    }

    fn intern(&mut self, formula: Formula<AtomId>) -> Result<StateId, TableError> {
        if let Some(&id) = self.index.get(&formula) {
            return Ok(id);
        }
        if self.states.len() >= self.state_cap {
            return Err(TableError::CapExceeded {
                cap: self.state_cap,
            });
        }
        let mut atom_count = 0u32;
        formula.for_each_atom(&mut |&id| atom_count = atom_count.max(id + 1));
        let mut live: Vec<AtomId> = Vec::new();
        for_each_live_atom(&formula, &mut |&id| {
            if !live.contains(&id) {
                live.push(id);
            }
        });
        let id = self.states.len();
        self.index.insert(formula.clone(), id);
        self.states.push(TableState {
            forced_default: end_of_trace_default(&formula),
            atom_count,
            live: Arc::new(live),
            formula,
        });
        Ok(id)
    }

    /// The start state (always id 0).
    #[must_use]
    pub fn start(&self) -> StateId {
        0
    }

    /// The number of interned residual states.
    #[must_use]
    pub fn state_count(&self) -> usize {
        self.states.len()
    }

    /// The number of memoized transitions.
    #[must_use]
    pub fn transition_count(&self) -> usize {
        self.transitions.len()
    }

    /// Transitions served from the memo (across all sharers).
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Transitions computed via the full pipeline.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// The configured state cap.
    #[must_use]
    pub fn state_cap(&self) -> usize {
        self.state_cap
    }

    /// The canonical residual formula of a state.
    #[must_use]
    pub fn state_formula(&self, id: StateId) -> &Formula<AtomId> {
        &self.states[id].formula
    }

    /// The number of distinct atom ids in a state (its binding width).
    #[must_use]
    pub fn atom_count(&self, id: StateId) -> u32 {
        self.states[id].atom_count
    }

    /// A state's live atom ids (the ones the host must expand and
    /// observe), in deterministic traversal order.
    #[must_use]
    pub fn live_atoms(&self, id: StateId) -> Arc<Vec<AtomId>> {
        Arc::clone(&self.states[id].live)
    }

    /// The precomputed [`end_of_trace_default`] of a state — the
    /// forced-stop fallback reading (atom-agnostic, so valid for any
    /// concrete binding).
    #[must_use]
    pub fn forced_default(&self, id: StateId) -> bool {
        self.states[id].forced_default
    }

    /// Takes one transition from `state` under `obs`.
    ///
    /// `obs` must contain an entry for every atom id the unroll of the
    /// state formula consults: the state's [`TransitionTable::live_atoms`]
    /// and, transitively, every live atom introduced by an expansion in
    /// `obs` itself. Fresh ids must be assigned contiguously from
    /// [`TransitionTable::atom_count`] upward in discovery order, and the
    /// id ↦ concrete-atom mapping must be bijective (the same concrete
    /// atom observed twice in one step must reuse one id).
    ///
    /// On a miss the transition is computed with the exact stepper
    /// pipeline and memoized. The returned flag is `true` when the
    /// transition was served from the memo.
    ///
    /// # Errors
    ///
    /// [`TableError::CapExceeded`] when the successor state would
    /// overflow the cap — the table is left unchanged so the host can
    /// fall back to the stepper; [`TableError::MissingExpansion`] when
    /// `obs` is under-saturated (a host bug; also safe to fall back).
    pub fn step(
        &mut self,
        state: StateId,
        obs: &Observation,
    ) -> Result<(TableStep, bool), TableError> {
        let key = (state, obs.clone());
        if let Some(step) = self.transitions.get(&key) {
            self.hits += 1;
            return Ok((step.clone(), true));
        }
        let expansions: HashMap<AtomId, &Formula<AtomId>> =
            obs.iter().map(|(id, f)| (*id, f)).collect();
        let unrolled = unroll(self.states[state].formula.clone(), &mut |id: &AtomId| {
            expansions
                .get(id)
                .map(|f| (*f).clone())
                .ok_or(TableError::MissingExpansion(*id))
        })?;
        let step = match classify(simplify(unrolled))
            .expect("unroll+simplify must yield constant or guarded form")
        {
            Progress::Definitive(b) => TableStep::Done(b),
            Progress::Guarded(g) => {
                let presumptive = g.presumptive();
                let (canonical, sources) = canonicalize(g.step());
                let next = self.intern(canonical)?;
                TableStep::Goto {
                    state: next,
                    presumptive,
                    sources: sources.into(),
                }
            }
        };
        self.misses += 1;
        self.transitions.insert(key, step.clone());
        Ok((step, false))
    }
}

/// Renumbers a formula's atom ids to `0..n` in first-occurrence
/// traversal order.
///
/// Returns the canonical formula and, for each new id `i`, the original
/// id `sources[i]` it replaced — the rebinding recipe for a host's
/// id-indexed atom table.
#[must_use]
pub fn canonicalize(f: Formula<AtomId>) -> (Formula<AtomId>, Vec<AtomId>) {
    let mut remap: HashMap<AtomId, AtomId> = HashMap::new();
    let mut sources: Vec<AtomId> = Vec::new();
    let canonical = f.map_atoms(&mut |old| {
        *remap.entry(old).or_insert_with(|| {
            let new = sources.len() as AtomId;
            sources.push(old);
            new
        })
    });
    (canonical, sources)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;
    use crate::progress::{Evaluator, StepReport};

    /// The memoized table, driven with constant expansions, agrees with
    /// the stepper — the same bit-identity the checker relies on, in
    /// miniature.
    #[test]
    fn table_with_constant_observations_matches_stepper() {
        let f = parse("G[3] (!p || F[2] q)").unwrap();
        let atoms: Vec<String> = {
            let mut v = Vec::new();
            f.for_each_atom(&mut |p: &String| {
                if !v.contains(p) {
                    v.push(p.clone());
                }
            });
            v
        };
        let (abstracted, sources) = {
            let mut remap = HashMap::new();
            let abs = f.clone().map_atoms(&mut |p| {
                *remap
                    .entry(p.clone())
                    .or_insert_with(|| atoms.iter().position(|q| *q == p).unwrap() as AtomId)
            });
            (abs, atoms)
        };
        let (canonical, canon_sources) = canonicalize(abstracted);
        // Bindings: canonical id -> concrete atom name.
        let mut bindings: Vec<String> = canon_sources
            .iter()
            .map(|&i| sources[i as usize].clone())
            .collect();
        let mut table = TransitionTable::new(canonical, 64);
        let mut state = table.start();
        let mut stepper = Evaluator::new(f);
        let mut done: Option<bool> = None;
        for trace_state in ["p", "", "q", "p q", "", ""] {
            let s = stepper
                .observe(&mut |p: &String| {
                    Ok::<_, std::convert::Infallible>(trace_state.split(' ').any(|w| w == p))
                })
                .unwrap();
            let a = if let Some(b) = done {
                StepReport::Definitive(b)
            } else {
                let live = table.live_atoms(state);
                let obs: Observation = live
                    .iter()
                    .map(|&id| {
                        let name = &bindings[id as usize];
                        let value = trace_state.split(' ').any(|w| w == name);
                        (id, Formula::constant(value))
                    })
                    .collect();
                let (step, _) = table.step(state, &obs).unwrap();
                match step {
                    TableStep::Done(b) => {
                        done = Some(b);
                        StepReport::Definitive(b)
                    }
                    TableStep::Goto {
                        state: next,
                        presumptive,
                        sources,
                    } => {
                        bindings = sources
                            .iter()
                            .map(|&src| bindings[src as usize].clone())
                            .collect();
                        state = next;
                        StepReport::Continue { presumptive }
                    }
                }
            };
            assert_eq!(a, s, "divergence at state {trace_state:?}");
        }
        assert!(table.state_count() <= 64);
        assert!(table.transition_count() > 0);
    }

    #[test]
    fn table_cap_exceeded_leaves_table_usable() {
        // G[9] p spawns a fresh countdown residual per step: with cap 2
        // the third distinct residual must refuse.
        let mut table = TransitionTable::new(Formula::always(9u32, Formula::Atom(0)), 2);
        let mut state = table.start();
        let mut steps = 0usize;
        loop {
            let obs: Observation = table
                .live_atoms(state)
                .iter()
                .map(|&id| (id, Formula::Top))
                .collect();
            match table.step(state, &obs) {
                Ok((TableStep::Goto { state: next, .. }, _)) => state = next,
                Ok((TableStep::Done(_), _)) => panic!("G[9] ⊤-fed never concludes"),
                Err(TableError::CapExceeded { cap }) => {
                    assert_eq!(cap, 2);
                    break;
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
            steps += 1;
            assert!(steps < 10, "cap never hit");
        }
        // The table is still consistent and serves known transitions.
        assert_eq!(table.state_count(), 2);
        let obs: Observation = table
            .live_atoms(table.start())
            .iter()
            .map(|&id| (id, Formula::Top))
            .collect();
        let (_, hit) = table.step(table.start(), &obs).unwrap();
        assert!(hit, "previously computed transition must be memoized");
    }

    #[test]
    fn missing_expansion_is_reported() {
        let mut table = TransitionTable::new(Formula::Atom(0), 8);
        let err = table.step(table.start(), &Vec::new()).unwrap_err();
        assert_eq!(err, TableError::MissingExpansion(0));
    }

    #[test]
    fn canonicalize_renumbers_in_traversal_order() {
        let f: Formula<AtomId> = Formula::atom(7u32).and(Formula::atom(3).or(Formula::atom(7)));
        let (canonical, sources) = canonicalize(f);
        assert_eq!(
            canonical,
            Formula::atom(0u32).and(Formula::atom(1).or(Formula::atom(0)))
        );
        assert_eq!(sources, vec![7, 3]);
    }
}
