//! Pluggable action-selection strategies.
//!
//! The paper's checker "makes a completely random selection from the set
//! of allowable actions" and names more targeted selection as future work
//! (§5.1). The checker delegates that choice to a [`Strategy`]: given the
//! enabled candidates, the run's coverage observations and an RNG, pick
//! one. Three strategies ship —
//!
//! * [`Uniform`] — the paper's behaviour: uniform over all enabled
//!   instances.
//! * [`LeastTried`] — uniform over the instances of the least-performed
//!   action *names* in this run, keeping rare interactions (toggle-all,
//!   edit commits) in rotation instead of drowning them in high-fan-out
//!   ones.
//! * [`Novelty`] — coverage-guided: prefer actions untried *from the
//!   current state fingerprint*, then pairs known to change the state,
//!   and demote run-wide duds (names that self-looped across several
//!   instances) and known self-loops. Paired with the
//!   [`TraceCorpus`](crate::TraceCorpus)'s replay-then-extend scheduling
//!   this spends budget at the coverage frontier instead of re-exploring
//!   shallow states.
//!
//! Strategies must be deterministic functions of `(context, candidates,
//! RNG)` — no wall clock, no global mutable state — because the parallel
//! runtime replays them from per-run seeds and expects bit-identical
//! choices on every worker (see DESIGN.md, *Exploration engine*).

use crate::coverage::RunCoverage;
use quickstrom_protocol::{ActionInstance, StateFingerprint, Symbol};
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::BTreeMap;
use std::fmt;

/// One performable action instance with its interned name (the checker
/// interns once per enabled-action enumeration, so strategies compare
/// machine words, not strings).
#[derive(Debug, Clone)]
pub struct Candidate {
    /// The concrete instance (target element, generated input, …).
    pub action: ActionInstance,
    /// The interned action name.
    pub name: Symbol,
}

/// The target element index of an action (0 for untargeted actions) —
/// the third component of the novelty triple. The single definition of
/// the index encoding, shared by candidates and by the checker's
/// prefix-replay bookkeeping.
#[must_use]
pub fn target_index(action: &ActionInstance) -> u32 {
    action.target.as_ref().map_or(0, |(_, i)| *i as u32)
}

impl Candidate {
    /// The target element index (0 for untargeted actions) — see
    /// [`target_index`].
    #[must_use]
    pub fn target_index(&self) -> u32 {
        target_index(&self.action)
    }
}

/// Everything a [`Strategy`] may consult when choosing.
#[derive(Debug)]
pub struct StrategyCtx<'a> {
    /// The fingerprint of the state the choice is made in.
    pub current: StateFingerprint,
    /// Per-action-name acceptance counts for this run.
    pub action_counts: &'a BTreeMap<Symbol, usize>,
    /// The run's coverage observations (fingerprints, transitions,
    /// per-`(state, action)` counts).
    pub coverage: &'a RunCoverage,
}

/// A pluggable action-selection strategy.
///
/// `pick` returns an index into `candidates` (which is never empty).
/// Implementations must be deterministic given the context and RNG.
pub trait Strategy: Send {
    /// The strategy's display name.
    fn name(&self) -> &'static str;

    /// Chooses one of the candidates.
    fn pick(&mut self, ctx: &StrategyCtx<'_>, candidates: &[Candidate], rng: &mut StdRng) -> usize;
}

impl fmt::Debug for dyn Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Strategy({})", self.name())
    }
}

/// Uniform over all enabled instances — the paper's behaviour.
#[derive(Debug, Clone, Copy, Default)]
pub struct Uniform;

impl Strategy for Uniform {
    fn name(&self) -> &'static str {
        "uniform"
    }

    fn pick(
        &mut self,
        _ctx: &StrategyCtx<'_>,
        candidates: &[Candidate],
        rng: &mut StdRng,
    ) -> usize {
        rng.gen_range(0..candidates.len())
    }
}

/// Picks uniformly among the indices minimising `score`, consuming
/// exactly one RNG draw — the same consumption pattern for every
/// strategy, so switching strategies never desynchronises input
/// generation.
fn pick_min_by<K: Ord>(
    candidates: &[Candidate],
    rng: &mut StdRng,
    mut score: impl FnMut(&Candidate) -> K,
) -> usize {
    let mut best: Vec<usize> = Vec::with_capacity(candidates.len());
    let mut best_key: Option<K> = None;
    for (i, c) in candidates.iter().enumerate() {
        let key = score(c);
        match &best_key {
            Some(k) if *k < key => {}
            Some(k) if *k == key => best.push(i),
            _ => {
                best_key = Some(key);
                best.clear();
                best.push(i);
            }
        }
    }
    best[rng.gen_range(0..best.len())]
}

/// Uniform over the instances of the least-performed action names (the
/// "more targeted" selection §5.1 anticipates).
#[derive(Debug, Clone, Copy, Default)]
pub struct LeastTried;

impl Strategy for LeastTried {
    fn name(&self) -> &'static str {
        "least-tried"
    }

    fn pick(&mut self, ctx: &StrategyCtx<'_>, candidates: &[Candidate], rng: &mut StdRng) -> usize {
        pick_min_by(candidates, rng, |c| {
            ctx.action_counts.get(&c.name).copied().unwrap_or(0)
        })
    }
}

/// Coverage-guided selection, in tiers (see `pick`): untried-from-here
/// first, then pairs that changed the state before, then run-wide duds,
/// then known self-loops; uniform *within* a tier.
///
/// The within-tier uniformity is load-bearing, not decoration: an
/// earlier design minimised exact per-pair counts, which made the policy
/// a near-deterministic function of the state — every run of a sweep
/// walked nearly the same path and the sweep-level union of visited
/// states collapsed to one trajectory. Coarse tiers keep each run's
/// random walk diverse (each run has its own seed) while still steering
/// budget away from known-wasteful repetitions, and the trace corpus
/// then turns the divergent frontiers into replay seeds.
#[derive(Debug, Clone, Copy, Default)]
pub struct Novelty;

impl Strategy for Novelty {
    fn name(&self) -> &'static str {
        "novelty"
    }

    fn pick(&mut self, ctx: &StrategyCtx<'_>, candidates: &[Candidate], rng: &mut StdRng) -> usize {
        pick_min_by(candidates, rng, |c| {
            let stats = ctx.coverage.pair_stats(ctx.current, c.name);
            // Tier 0: untried from this state (and not a known dud).
            // Tier 1: tried from here and known productive. Tier 2:
            // untried here but a global dud — it never moved the state
            // from anywhere, so spend elsewhere first; local evidence
            // (tiers 0/1) always outranks the global prior, which keeps
            // state-dependent actions (productive only under the right
            // precondition) from being buried by early failures. Tier 3:
            // tried from here and it never moved this state (a
            // self-looping click — repeating it burns budget).
            let tier: u8 = if stats.tried == 0 {
                if ctx.coverage.name_is_dead(c.name) {
                    2
                } else {
                    0
                }
            } else if stats.productive > 0 {
                1
            } else {
                3
            };
            let instance_tried = ctx
                .coverage
                .instance_count(ctx.current, c.name, c.target_index())
                > 0;
            (tier, u8::from(instance_tried))
        })
    }
}

/// How the checker picks among enabled action instances — the named,
/// serialisable selector for the [`Strategy`] implementations above
/// (checker options need `Copy + Eq`; boxed strategies are built per run
/// via [`SelectionStrategy::build`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SelectionStrategy {
    /// Uniform over all enabled instances — the paper's behaviour.
    #[default]
    UniformRandom,
    /// Uniform over the instances of the least-performed action names.
    LeastTried,
    /// Coverage-guided: least-tried conditioned on the current state
    /// fingerprint, with corpus-seeded replay-then-extend runs.
    Novelty,
}

impl SelectionStrategy {
    /// Builds the strategy implementation (one per run).
    #[must_use]
    pub fn build(self) -> Box<dyn Strategy> {
        match self {
            SelectionStrategy::UniformRandom => Box::new(Uniform),
            SelectionStrategy::LeastTried => Box::new(LeastTried),
            SelectionStrategy::Novelty => Box::new(Novelty),
        }
    }

    /// The strategy's display name (also the `--strategy` flag syntax).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SelectionStrategy::UniformRandom => "uniform",
            SelectionStrategy::LeastTried => "least-tried",
            SelectionStrategy::Novelty => "novelty",
        }
    }

    /// Parses a `--strategy` flag value.
    #[must_use]
    pub fn parse(s: &str) -> Option<SelectionStrategy> {
        match s {
            "uniform" | "uniform-random" => Some(SelectionStrategy::UniformRandom),
            "least-tried" => Some(SelectionStrategy::LeastTried),
            "novelty" => Some(SelectionStrategy::Novelty),
            _ => None,
        }
    }

    /// Does this strategy schedule corpus replays between runs?
    #[must_use]
    pub fn uses_corpus(self) -> bool {
        matches!(self, SelectionStrategy::Novelty)
    }

    /// Every shipped strategy, in comparison order (the coverage-compare
    /// harness sweeps these).
    pub const ALL: [SelectionStrategy; 3] = [
        SelectionStrategy::UniformRandom,
        SelectionStrategy::LeastTried,
        SelectionStrategy::Novelty,
    ];
}

impl fmt::Display for SelectionStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quickstrom_protocol::ActionKind;
    use rand::SeedableRng;

    fn candidate(name: &str) -> Candidate {
        Candidate {
            action: ActionInstance::untargeted(name, ActionKind::Noop),
            name: Symbol::intern(name),
        }
    }

    fn ctx<'a>(
        current: StateFingerprint,
        counts: &'a BTreeMap<Symbol, usize>,
        coverage: &'a RunCoverage,
    ) -> StrategyCtx<'a> {
        StrategyCtx {
            current,
            action_counts: counts,
            coverage,
        }
    }

    #[test]
    fn uniform_covers_all_candidates() {
        let counts = BTreeMap::new();
        let coverage = RunCoverage::new();
        let c = ctx(StateFingerprint::EMPTY, &counts, &coverage);
        let candidates = [candidate("a!"), candidate("b!"), candidate("c!")];
        let mut rng = StdRng::seed_from_u64(7);
        let mut seen = [false; 3];
        for _ in 0..64 {
            seen[Uniform.pick(&c, &candidates, &mut rng)] = true;
        }
        assert_eq!(seen, [true; 3]);
    }

    #[test]
    fn least_tried_prefers_the_rare_name() {
        let mut counts = BTreeMap::new();
        counts.insert(Symbol::intern("a!"), 5);
        counts.insert(Symbol::intern("b!"), 1);
        let coverage = RunCoverage::new();
        let c = ctx(StateFingerprint::EMPTY, &counts, &coverage);
        let candidates = [candidate("a!"), candidate("b!"), candidate("a!")];
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..16 {
            assert_eq!(LeastTried.pick(&c, &candidates, &mut rng), 1);
        }
    }

    #[test]
    fn novelty_prefers_untried_from_here() {
        let here = StateFingerprint::from_raw(42);
        let counts = BTreeMap::new();
        // `b!` was tried from `here` (and self-looped); `a!` was not.
        let mut coverage = RunCoverage::new();
        coverage.note_action(here, Symbol::intern("b!"), 0);
        let c = ctx(here, &counts, &coverage);
        let candidates = [candidate("a!"), candidate("b!")];
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..16 {
            assert_eq!(Novelty.pick(&c, &candidates, &mut rng), 0);
        }
        // In a state nobody has acted from, both are untried: the choice
        // is uniform and covers both.
        let elsewhere = ctx(StateFingerprint::from_raw(77), &counts, &coverage);
        let mut seen = [false; 2];
        for _ in 0..32 {
            seen[Novelty.pick(&elsewhere, &candidates, &mut rng)] = true;
        }
        assert_eq!(seen, [true, true]);
    }

    #[test]
    fn novelty_prefers_productive_pairs_over_self_loops() {
        let here = StateFingerprint::from_raw(42);
        let there = StateFingerprint::from_raw(43);
        let counts = BTreeMap::new();
        let mut coverage = RunCoverage::new();
        // `a!` moved the state (the fingerprinter shows a different
        // current state when the action is noted); `b!` self-looped.
        coverage.fingerprinter().observe(
            &{
                let mut s = quickstrom_protocol::StateSnapshot::new();
                s.insert_query("#x", vec![]);
                s
            },
            None,
        );
        let current = coverage.current();
        assert_ne!(current, here, "noted state differs from current");
        coverage.note_action(here, Symbol::intern("a!"), 0); // productive
        coverage.note_action(there, Symbol::intern("b!"), 0); // b! from there: productive
                                                              // Make `b!` a self-loop from `here`: note it with fp == current.
        coverage.note_action(current, Symbol::intern("b!"), 0);
        let c = ctx(current, &counts, &coverage);
        // From `current`: `a!` untried (tier 0) beats `b!` self-looped
        // (tier 3).
        let candidates = [candidate("b!"), candidate("a!")];
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..16 {
            assert_eq!(Novelty.pick(&c, &candidates, &mut rng), 1);
        }
    }

    #[test]
    fn novelty_demotes_run_wide_dead_names() {
        let counts = BTreeMap::new();
        let mut coverage = RunCoverage::new();
        let dud = Symbol::intern("dud!");
        // Six self-looping tries across three distinct instances: a
        // run-wide dud (everything is noted against the current
        // fingerprint, so nothing ever counts as productive).
        let fp0 = coverage.current();
        for index in [0u32, 1, 2, 0, 1, 2] {
            coverage.note_action(fp0, dud, index);
        }
        assert!(coverage.name_is_dead(dud));
        assert!(!coverage.name_is_dead(Symbol::intern("fresh!")));
        // From an unexplored state, an untried clean name beats the dud.
        let elsewhere = ctx(StateFingerprint::from_raw(99), &counts, &coverage);
        let candidates = [candidate("dud!"), candidate("fresh!")];
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..16 {
            assert_eq!(Novelty.pick(&elsewhere, &candidates, &mut rng), 1);
        }
    }

    #[test]
    fn single_instance_names_are_never_convicted() {
        let mut coverage = RunCoverage::new();
        let submit = Symbol::intern("submit!");
        let fp0 = coverage.current();
        for _ in 0..10 {
            coverage.note_action(fp0, submit, 0); // always the same target
        }
        assert!(
            !coverage.name_is_dead(submit),
            "state-dependent single-target actions must stay in rotation"
        );
    }

    #[test]
    fn selection_strategy_round_trips_names() {
        for s in SelectionStrategy::ALL {
            assert_eq!(SelectionStrategy::parse(s.name()), Some(s));
            assert_eq!(s.build().name(), s.name());
            assert_eq!(s.to_string(), s.name());
        }
        assert_eq!(SelectionStrategy::parse("nope"), None);
        assert!(SelectionStrategy::Novelty.uses_corpus());
        assert!(!SelectionStrategy::LeastTried.uses_corpus());
    }
}
