//! Run results, counterexamples and property reports.

use quickltl::{Outcome, Verdict};
use quickstrom_explore::CoverageStats;
use quickstrom_protocol::{ActionInstance, StateSnapshot, Symbol, TransportStats};
use std::fmt;

/// How a single test run ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunResult {
    /// The property held (definitively or presumably).
    Passed(Verdict),
    /// The property failed; a counterexample trace was recorded.
    Failed(Counterexample),
    /// The run ended without enough states for even a presumptive verdict
    /// (action budget exhausted while demands were outstanding, or the
    /// application got stuck with no enabled actions).
    Inconclusive {
        /// Why the run could not conclude.
        reason: String,
    },
}

impl RunResult {
    /// `true` for failed runs.
    #[must_use]
    pub fn is_failure(&self) -> bool {
        matches!(self, RunResult::Failed(_))
    }
}

/// A failing run: the verdict, the action script that produced it, and a
/// per-state summary of the trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counterexample {
    /// The verdict (definitely or presumably false).
    pub verdict: Verdict,
    /// The accepted actions, in order, with targets and generated inputs —
    /// sufficient to replay the run deterministically.
    pub script: Vec<ActionInstance>,
    /// One line per trace state: what happened and when.
    pub trace: Vec<TraceEntry>,
    /// Whether the shrinker minimised this counterexample.
    pub shrunk: bool,
    /// Whether the verdict came from the end-of-trace fallback at a forced
    /// stop (demands never drained). Forced counterexamples are not
    /// shrinkable: any sub-script would be judged by the same fallback.
    pub forced: bool,
}

/// One state of a recorded trace.
///
/// The full reconstructed state is kept, not just a summary — affordably,
/// because per-selector query results are [`Arc`]-shared between
/// neighbouring entries (the checker applies
/// [`SnapshotDelta`](quickstrom_protocol::SnapshotDelta)s onto the
/// previous state, and unchanged selectors keep their allocation). A
/// trace of T steps therefore costs O(changed) memory per step, not
/// O(T × all selectors).
///
/// [`Arc`]: std::sync::Arc
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEntry {
    /// The reconstructed state at this position of the trace, with its
    /// `happened` annotation filled in by the checker.
    pub state: StateSnapshot,
}

impl TraceEntry {
    /// The `happened` annotation of the state (interned names).
    #[must_use]
    pub fn happened(&self) -> &[Symbol] {
        &self.state.happened
    }

    /// Virtual time of the snapshot.
    #[must_use]
    pub fn timestamp_ms(&self) -> u64 {
        self.state.timestamp_ms
    }
}

impl fmt::Display for Counterexample {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "counterexample ({}):", self.verdict)?;
        for (i, action) in self.script.iter().enumerate() {
            writeln!(f, "  {:>3}. {}", i + 1, action)?;
        }
        Ok(())
    }
}

/// Declares [`PhaseTimings`] together with its two accumulation
/// operations from a single field table, so every field carries an
/// explicit `(combine, replay)` rule:
///
/// - combine: `sum` (`+=` in [`PhaseTimings::absorb`]) or `max`
///   (snapshots of shared structures, not independent contributions);
/// - replay: `keep` (survives [`PhaseTimings::reset_for_replay`]) or
///   `zero` (a shrink replay re-accumulates it from scratch).
///
/// `absorb` destructures `other` exhaustively, so adding a field here
/// without a rule — or adding it to the struct by hand — is a compile
/// error, not a silently-dropped counter. The `field_rules_drive_*`
/// tests then check each field's declared semantics generically.
macro_rules! phase_timings {
    (
        $(
            $(#[$doc:meta])*
            $name:ident : $ty:ty => ($combine:ident, $replay:ident)
        ),* $(,)?
    ) => {
        /// Wall-clock attribution of one property check across the phases
        /// of the §3.4 loop, accumulated over every run (and shrink
        /// replay).
        ///
        /// `executor_s` is time spent inside [`Executor::send`] — driving
        /// the application, firing timers, rendering snapshots.  `eval_s`
        /// is time spent in specification evaluation: formula progression
        /// through each state and action-guard evaluation.  Together with
        /// the spec-compile time measured by callers, these let a
        /// benchmark JSON attribute a regression to a phase instead of
        /// only recording wall time.
        ///
        /// [`Executor::send`]: quickstrom_protocol::Executor::send
        #[derive(Debug, Clone, Copy, Default)]
        pub struct PhaseTimings {
            $( $(#[$doc])* pub $name: $ty, )*
        }

        impl PhaseTimings {
            /// Component-wise accumulation ([`ltl_states`] combines by
            /// max — the automaton table is shared across a property's
            /// runs, so its size is a snapshot, not an independent
            /// contribution).
            ///
            /// [`ltl_states`]: PhaseTimings::ltl_states
            pub fn absorb(&mut self, other: PhaseTimings) {
                // Exhaustive destructure: a field added to the table above
                // is named here by expansion; one added outside it fails
                // this pattern. Either way nothing can be dropped silently.
                let PhaseTimings { $($name),* } = other;
                $( phase_timings!(@absorb $combine, self.$name, $name); )*
            }

            /// Zeroes the counters that a shrink replay re-accumulates
            /// from scratch — atom, memo and LTL counters — while keeping
            /// the wall-clock fields, so absorbing a replay's timings into
            /// a run's does not double-count work the replay shares with
            /// the original run (the property-level memo and automaton
            /// table are warm, so their counters would mis-attribute).
            pub fn reset_for_replay(&mut self) {
                $( phase_timings!(@replay $replay, self.$name); )*
            }
        }

        #[cfg(test)]
        impl PhaseTimings {
            /// `(field, combine, replay)` rows, for rule-driven tests.
            pub(crate) const FIELD_RULES: &'static [(&'static str, &'static str, &'static str)] =
                &[ $( (stringify!($name), stringify!($combine), stringify!($replay)) ),* ];

            /// Reads a field by name as `f64` (test support).
            #[allow(trivial_numeric_casts, clippy::unnecessary_cast)]
            pub(crate) fn test_get(&self, name: &str) -> f64 {
                match name {
                    $( stringify!($name) => self.$name as f64, )*
                    _ => panic!("unknown PhaseTimings field {name}"),
                }
            }

            /// Writes a field by name from `f64` (test support).
            #[allow(trivial_numeric_casts, clippy::unnecessary_cast)]
            pub(crate) fn test_set(&mut self, name: &str, value: f64) {
                match name {
                    $( stringify!($name) => self.$name = value as $ty, )*
                    _ => panic!("unknown PhaseTimings field {name}"),
                }
            }
        }
    };
    (@absorb sum, $lhs:expr, $rhs:expr) => { $lhs += $rhs; };
    (@absorb max, $lhs:expr, $rhs:expr) => { $lhs = $lhs.max($rhs); };
    (@replay keep, $lhs:expr) => {};
    (@replay zero, $lhs:expr) => { $lhs = Default::default(); };
}

phase_timings! {
    /// Seconds inside `Executor::send`.
    executor_s: f64 => (sum, keep),
    /// Seconds in formula evaluation/progression and guard evaluation.
    eval_s: f64 => (sum, keep),
    /// Atom expansions requested by the evaluator across all steps.
    atoms_total: u64 => (sum, zero),
    /// Atom expansions actually evaluated — the rest were served from the
    /// value-keyed expansion memo because the slice of state the atom can
    /// read had a value already seen. Equal to `atoms_total` in the
    /// reference checker ([`crate::oracle`]), which has no memo.
    atoms_reevaluated: u64 => (sum, zero),
    /// Memo lookups served without re-evaluation (summed over runs; the
    /// memo is shared per property). Under `jobs = N` the hit/miss split
    /// can differ from `jobs = 1` (which worker warms an entry first is
    /// scheduling-dependent) even though verdicts are bit-identical.
    atom_memo_hits: u64 => (sum, zero),
    /// Memo lookups that had to expand the atom (summed).
    atom_memo_misses: u64 => (sum, zero),
    /// Memo entries evicted by the FIFO capacity bound
    /// (`CheckOptions::atom_memo_capacity`), summed over runs.
    atom_memo_evictions: u64 => (sum, zero),
    /// Residual formulae interned by the property's evaluation automaton
    /// (`quickltl::TransitionTable::state_count` at the end of the run).
    /// The table is shared by every run of a property, so [`absorb`]
    /// combines this field by *maximum*, not by sum — each run reports
    /// the table size it last saw. Zero in the reference checker.
    ///
    /// [`absorb`]: PhaseTimings::absorb
    ltl_states: u64 => (max, zero),
    /// Formula-progression steps answered by a transition-table lookup
    /// instead of the unroll/simplify/classify pipeline (summed over
    /// runs). Zero in the reference checker.
    ltl_table_hits: u64 => (sum, zero),
    /// Formula-progression steps answered wholesale by the property's
    /// step memo — no atom expansion, no observation, no table step; the
    /// replay reproduces the counter deltas the full step would have
    /// produced, so every other counter here stays comparable (summed
    /// over runs; see `specstrom::StepMemo`). A step-memo hit also
    /// counts as an `ltl_table_hits` hit; that counter may exceed an
    /// unmemoized engine's by a sliver, because a replayed step
    /// occasionally stands in for a table lookup that would have
    /// re-interned a structurally novel observation of the same
    /// transition. Every other counter replays exactly.
    step_memo_hits: u64 => (sum, zero),
}

/// The aggregate result of checking one property.
///
/// Equality ignores [`PropertyReport::timings`],
/// [`PropertyReport::transport`] and [`PropertyReport::coverage`]:
/// wall-clock attribution, wire-cost accounting and coverage accounting
/// are the observability fields layered on top of the verdict (the
/// `jobs = N` ⇒ `jobs = 1` determinism invariant — and the delta-mode ≡
/// full-mode invariant — are stated over everything else; coverage has
/// its own, separately pinned determinism invariant, see
/// `crates/bench/tests/coverage_determinism.rs`).
#[derive(Debug, Clone)]
pub struct PropertyReport {
    /// The property name.
    pub property: String,
    /// Results of every run executed (stops early at the first failure).
    pub runs: Vec<RunResult>,
    /// Total states observed across runs.
    pub states_total: usize,
    /// Total actions performed across runs.
    pub actions_total: usize,
    /// Per-phase wall-clock attribution (excluded from equality).
    pub timings: PhaseTimings,
    /// Snapshot-transport accounting accumulated over every run and
    /// shrink replay (excluded from equality): bytes shipped vs the
    /// full-snapshot counterfactual, delta counts, changed selectors.
    pub transport: TransportStats,
    /// Coverage accounting merged over the test runs in canonical index
    /// order (excluded from equality — but itself deterministic:
    /// bit-identical for any `jobs`): distinct state fingerprints,
    /// fingerprint transitions, and trace-corpus usage. Shrink replays do
    /// not contribute — coverage measures what the *test budget*
    /// explored.
    pub coverage: CoverageStats,
}

impl PartialEq for PropertyReport {
    fn eq(&self, other: &Self) -> bool {
        self.property == other.property
            && self.runs == other.runs
            && self.states_total == other.states_total
            && self.actions_total == other.actions_total
    }
}

impl PropertyReport {
    /// The first counterexample, if the property failed.
    #[must_use]
    pub fn counterexample(&self) -> Option<&Counterexample> {
        self.runs.iter().find_map(|r| match r {
            RunResult::Failed(cx) => Some(cx),
            _ => None,
        })
    }

    /// `true` when no run failed.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.counterexample().is_none()
    }

    /// The number of inconclusive runs.
    #[must_use]
    pub fn inconclusive_runs(&self) -> usize {
        self.runs
            .iter()
            .filter(|r| matches!(r, RunResult::Inconclusive { .. }))
            .count()
    }
}

impl fmt::Display for PropertyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.passed() {
            write!(
                f,
                "{}: passed ({} runs, {} states, {} actions",
                self.property,
                self.runs.len(),
                self.states_total,
                self.actions_total
            )?;
            let inconclusive = self.inconclusive_runs();
            if inconclusive > 0 {
                write!(f, ", {inconclusive} inconclusive")?;
            }
            write!(f, ")")
        } else {
            write!(
                f,
                "{}: FAILED after {} run(s)",
                self.property,
                self.runs.len()
            )
        }
    }
}

/// The result of checking a whole specification (all `check` commands).
///
/// Equality compares verdicts, scripts, traces and totals — not the
/// [`PhaseTimings`] (see [`PropertyReport`]).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Report {
    /// Reports per property, in check order.
    pub properties: Vec<PropertyReport>,
}

impl Report {
    /// `true` when every property passed.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.properties.iter().all(PropertyReport::passed)
    }

    /// Summed per-phase timings across all properties.
    #[must_use]
    pub fn timings(&self) -> PhaseTimings {
        let mut total = PhaseTimings::default();
        for p in &self.properties {
            total.absorb(p.timings);
        }
        total
    }

    /// Summed snapshot-transport accounting across all properties.
    #[must_use]
    pub fn transport(&self) -> TransportStats {
        let mut total = TransportStats::default();
        for p in &self.properties {
            total.absorb(p.transport);
        }
        total
    }

    /// Summed coverage accounting across all properties. Distinct counts
    /// are per-property and may overlap between properties, so this is an
    /// upper bound on whole-spec coverage (exact per property).
    #[must_use]
    pub fn coverage(&self) -> CoverageStats {
        let mut total = CoverageStats::default();
        for p in &self.properties {
            total.absorb(p.coverage);
        }
        total
    }

    /// The names of failed properties.
    #[must_use]
    pub fn failures(&self) -> Vec<&str> {
        self.properties
            .iter()
            .filter(|p| !p.passed())
            .map(|p| p.property.as_str())
            .collect()
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for p in &self.properties {
            writeln!(f, "{p}")?;
            if let Some(cx) = p.counterexample() {
                write!(f, "{cx}")?;
            }
        }
        Ok(())
    }
}

/// Classifies an outcome into pass/fail/inconclusive.
#[must_use]
pub fn classify_outcome(outcome: Outcome) -> Option<bool> {
    match outcome {
        Outcome::Verdict(v) => Some(v.to_bool()),
        Outcome::MoreStatesNeeded => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quickstrom_protocol::ActionKind;

    fn cx() -> Counterexample {
        Counterexample {
            verdict: Verdict::DefinitelyFalse,
            script: vec![ActionInstance::targeted(
                "add!",
                ActionKind::Click,
                ".new-todo",
                0,
            )],
            trace: vec![TraceEntry {
                state: {
                    let mut s = StateSnapshot::new();
                    s.happened.push("loaded?".into());
                    s
                },
            }],
            shrunk: true,
            forced: false,
        }
    }

    #[test]
    fn report_aggregation() {
        let report = Report {
            properties: vec![
                PropertyReport {
                    property: "safety".into(),
                    runs: vec![RunResult::Passed(Verdict::PresumablyTrue)],
                    states_total: 10,
                    actions_total: 9,
                    timings: PhaseTimings::default(),
                    transport: TransportStats::default(),
                    coverage: CoverageStats::default(),
                },
                PropertyReport {
                    property: "liveness".into(),
                    runs: vec![RunResult::Failed(cx())],
                    states_total: 5,
                    actions_total: 4,
                    timings: PhaseTimings::default(),
                    transport: TransportStats::default(),
                    coverage: CoverageStats::default(),
                },
            ],
        };
        assert!(!report.passed());
        assert_eq!(report.failures(), vec!["liveness"]);
        let text = report.to_string();
        assert!(text.contains("safety: passed"));
        assert!(text.contains("liveness: FAILED"));
        assert!(text.contains("add!"));
    }

    #[test]
    fn property_report_projections() {
        let p = PropertyReport {
            property: "p".into(),
            runs: vec![
                RunResult::Passed(Verdict::PresumablyTrue),
                RunResult::Inconclusive {
                    reason: "stuck".into(),
                },
            ],
            states_total: 3,
            actions_total: 2,
            timings: PhaseTimings::default(),
            transport: TransportStats::default(),
            coverage: CoverageStats::default(),
        };
        assert!(p.passed());
        assert_eq!(p.inconclusive_runs(), 1);
        assert!(p.to_string().contains("1 inconclusive"));
    }

    #[test]
    fn run_result_failure_flag() {
        assert!(RunResult::Failed(cx()).is_failure());
        assert!(!RunResult::Passed(Verdict::DefinitelyTrue).is_failure());
    }

    #[test]
    fn absorb_and_replay_reset_semantics() {
        let mut a = PhaseTimings {
            executor_s: 1.0,
            eval_s: 2.0,
            atoms_total: 10,
            ltl_states: 5,
            ltl_table_hits: 3,
            ..PhaseTimings::default()
        };
        let b = PhaseTimings {
            executor_s: 1.0,
            ltl_states: 7,
            ltl_table_hits: 2,
            ..PhaseTimings::default()
        };
        a.absorb(b);
        assert_eq!(a.executor_s, 2.0);
        assert_eq!(a.ltl_states, 7, "table size combines by max");
        assert_eq!(a.ltl_table_hits, 5);

        a.reset_for_replay();
        assert_eq!(a.executor_s, 2.0, "wall-clock fields survive the reset");
        assert_eq!(a.eval_s, 2.0);
        assert_eq!(a.atoms_total, 0);
        assert_eq!(a.ltl_states, 0);
        assert_eq!(a.ltl_table_hits, 0);
    }

    #[test]
    fn field_rules_drive_absorb() {
        for &(field, combine, _) in PhaseTimings::FIELD_RULES {
            let mut a = PhaseTimings::default();
            let mut b = PhaseTimings::default();
            a.test_set(field, 3.0);
            b.test_set(field, 5.0);
            a.absorb(b);
            let expected = match combine {
                "sum" => 8.0,
                "max" => 5.0,
                other => panic!("unknown combine rule {other} for {field}"),
            };
            assert_eq!(a.test_get(field), expected, "absorb({combine}) of {field}");
            // max must also hold when the larger value is already in place.
            let mut c = PhaseTimings::default();
            c.test_set(field, 5.0);
            c.absorb({
                let mut d = PhaseTimings::default();
                d.test_set(field, 3.0);
                d
            });
            let expected = match combine {
                "sum" => 8.0,
                _ => 5.0,
            };
            assert_eq!(a.test_get(field), expected, "absorb({combine}) of {field}");
            assert_eq!(c.test_get(field), expected, "absorb({combine}) of {field}");
        }
    }

    #[test]
    fn field_rules_drive_replay_reset() {
        for &(field, _, replay) in PhaseTimings::FIELD_RULES {
            let mut t = PhaseTimings::default();
            t.test_set(field, 7.0);
            t.reset_for_replay();
            let expected = match replay {
                "keep" => 7.0,
                "zero" => 0.0,
                other => panic!("unknown replay rule {other} for {field}"),
            };
            assert_eq!(
                t.test_get(field),
                expected,
                "reset_for_replay({replay}) of {field}"
            );
        }
    }

    #[test]
    fn field_rules_cover_every_field() {
        // The destructure in `absorb` already makes a missing rule a
        // compile error; this pins the expected shape so a refactor that
        // bypasses the macro shows up as a failing count.
        assert_eq!(PhaseTimings::FIELD_RULES.len(), 10);
        let wall_clock: Vec<&str> = PhaseTimings::FIELD_RULES
            .iter()
            .filter(|(_, _, replay)| *replay == "keep")
            .map(|(name, _, _)| *name)
            .collect();
        assert_eq!(wall_clock, ["executor_s", "eval_s"]);
    }

    #[test]
    fn outcome_classification() {
        assert_eq!(
            classify_outcome(Outcome::Verdict(Verdict::PresumablyTrue)),
            Some(true)
        );
        assert_eq!(
            classify_outcome(Outcome::Verdict(Verdict::DefinitelyFalse)),
            Some(false)
        );
        assert_eq!(classify_outcome(Outcome::MoreStatesNeeded), None);
    }
}
