//! The production ≡ oracle differential harness.
//!
//! The checker has one production evaluation path — each property's
//! shared evaluation automaton, stepped through the value-keyed atom memo
//! and the step memo — and one oracle: the reference checker
//! (`quickstrom_checker::oracle`), which progresses every property with
//! the plain stepper, expands every atom afresh and runs sequentially.
//! A [`Case`] checks its workload once with the oracle and then under
//! each production [`Row`] it is given, and every row's [`Report`] must
//! equal the oracle's. `Report`'s `PartialEq` compares verdicts, runs,
//! traces, shrunk counterexamples and totals; it skips wall-clock,
//! transport and coverage accounting, which rows may legitimately change.
//!
//! The production rows form one table ([`rows`]): jobs 1/2 × delta/full
//! snapshots × runtime (pipelined at depth 1 and 16, sequential,
//! multiplexed ×3), plus the spec-aware fingerprint under the uniform
//! strategy. Five suites share this harness and between them check every
//! row on every input:
//!
//! | suite                    | bundled specs and the faulty entry      |
//! |--------------------------|-----------------------------------------|
//! | `differential_pipeline`  | jobs 1, delta snapshots, every runtime  |
//! | `differential_delta`     | jobs 1, full snapshots, every runtime   |
//! | `differential_atom_memo` | jobs 2, delta snapshots, every runtime  |
//! | `differential_automaton` | jobs 2, full snapshots, every runtime   |
//! | `differential_mask`      | the spec-aware fingerprint              |
//!
//! and each suite checks one fifth of the 43-entry registry under every
//! row ([`check_registry`]). Each suite also holds the corner cases of
//! the cache or runtime it is named after.
//!
//! All rows of a case share one compiled spec, so later rows run against
//! memos the earlier rows warmed: cold and warm caches, sequential and
//! racing workers must all produce the oracle's report. Every row must
//! also keep the counter invariants that make the memo bookkeeping
//! trustworthy (every atom request is a memo hit or a miss, the atom
//! demand is the same in every row), echo its runtime and ship the
//! snapshots its row asks for.
//!
//! These tests run in debug builds, so every atom-memo hit also goes
//! through the collision check: the served expansion is re-derived and
//! compared structurally before it is used.

// Each suite uses its own part of the harness.
#![allow(dead_code)]

use quickstrom::prelude::*;
use quickstrom::quickstrom_apps::registry::{self, Entry, REGISTRY};
use quickstrom::quickstrom_apps::{BigTable, Counter, EggTimer, Fault, MenuApp, TodoMvc, Wizard};
use quickstrom::quickstrom_checker::{oracle, PhaseTimings};
use quickstrom::specstrom;
use quickstrom::webdom::App;
pub use quickstrom_bench::SnapshotMode;

/// How a row runs each test run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Runtime {
    /// The two-stage pipelined runtime at the given speculation depth.
    Pipelined { depth: usize },
    /// The sequential engine.
    Sequential,
    /// The pipelined runtime with several in-flight sessions per worker.
    Multiplexed { width: usize },
}

/// One production configuration the harness holds to the oracle.
#[derive(Debug, Clone, Copy)]
pub struct Row {
    pub jobs: usize,
    pub snapshots: SnapshotMode,
    pub runtime: Runtime,
    pub fingerprint: FingerprintMode,
}

impl Row {
    fn options(&self, base: &CheckOptions) -> CheckOptions {
        let options = base
            .clone()
            .with_jobs(self.jobs)
            .with_fingerprint(self.fingerprint);
        match self.runtime {
            Runtime::Pipelined { depth } => options
                .with_pipeline(PipelineMode::On)
                .with_pipeline_depth(depth),
            Runtime::Sequential => options.with_pipeline(PipelineMode::Off),
            Runtime::Multiplexed { width } => options
                .with_pipeline(PipelineMode::On)
                .with_multiplex(width),
        }
    }
}

/// The runtimes every jobs × snapshots pair of the table runs under.
pub const RUNTIMES: [Runtime; 4] = [
    Runtime::Pipelined { depth: 1 },
    Runtime::Pipelined { depth: 16 },
    Runtime::Sequential,
    Runtime::Multiplexed { width: 3 },
];

/// The table's rows for `jobs` workers shipping `snapshots`, one per
/// runtime.
pub fn runtime_rows(jobs: usize, snapshots: SnapshotMode) -> Vec<Row> {
    RUNTIMES
        .iter()
        .map(|&runtime| Row {
            jobs,
            snapshots,
            runtime,
            fingerprint: FingerprintMode::Shape,
        })
        .collect()
}

/// The spec-aware fingerprint row. The fingerprint changes only the
/// coverage abstraction, which the uniform strategy never consults, so it
/// must not change the report either.
pub const SPEC_AWARE: Row = Row {
    jobs: 1,
    snapshots: SnapshotMode::Delta,
    runtime: Runtime::Pipelined { depth: 16 },
    fingerprint: FingerprintMode::SpecAware,
};

/// Every production row: jobs 1/2 × delta/full snapshots × the four
/// runtimes, plus the spec-aware fingerprint.
pub fn rows() -> Vec<Row> {
    let mut rows = Vec::new();
    for jobs in [1, 2] {
        for snapshots in [SnapshotMode::Delta, SnapshotMode::Full] {
            rows.extend(runtime_rows(jobs, snapshots));
        }
    }
    rows.push(SPEC_AWARE);
    rows
}

/// The jobs-1, delta-snapshot row on the sequential engine.
pub const SEQUENTIAL: Row = Row {
    jobs: 1,
    snapshots: SnapshotMode::Delta,
    runtime: Runtime::Sequential,
    fingerprint: FingerprintMode::Shape,
};

/// Builds one executor for the system under test.
pub type Factory = Box<dyn Fn(WebExecutorConfig) -> Box<dyn Executor> + Sync>;

pub fn app<A: App + 'static>(make: impl Fn() -> A + Send + Sync + Clone + 'static) -> Factory {
    Box::new(move |config| Box::new(WebExecutor::with_config(make.clone(), config)))
}

fn entry_app(entry: &'static Entry) -> Factory {
    app(move || entry.build())
}

/// One table entry: a specification, the application it is checked
/// against, and the options the oracle and every row start from.
pub struct Case {
    pub name: String,
    pub spec: &'static str,
    pub app: Factory,
    pub base: CheckOptions,
}

/// What a case produced: the oracle's report and each row's.
pub struct Checked {
    pub oracle: Report,
    pub rows: Vec<(Row, Report)>,
}

impl Checked {
    /// A counter summed over every production row.
    pub fn total(&self, counter: fn(&PhaseTimings) -> u64) -> u64 {
        self.rows.iter().map(|(_, r)| counter(&r.timings())).sum()
    }
}

impl Case {
    pub fn new(name: &str, spec: &'static str, app: Factory, base: CheckOptions) -> Case {
        Case {
            name: name.to_owned(),
            spec,
            app,
            base,
        }
    }

    /// Checks the case under one row, without comparing it to anything.
    pub fn check(&self, spec: &CompiledSpec, row: &Row) -> Report {
        let config = row.snapshots.config();
        check_spec(spec, &row.options(&self.base), &|| {
            (self.app)(config.clone())
        })
        .expect("no protocol errors")
    }

    fn oracle(&self, spec: &CompiledSpec) -> Report {
        let config = SnapshotMode::Delta.config();
        let report = oracle::check_spec(spec, &self.base, &|| (self.app)(config.clone()))
            .expect("no protocol errors");
        let t = report.timings();
        assert_eq!(
            (t.atoms_total, t.atom_memo_hits, t.step_memo_hits),
            (t.atoms_reevaluated, 0, 0),
            "{}: the oracle must expand every atom afresh",
            self.name
        );
        assert_eq!(
            (t.ltl_states, t.ltl_table_hits, t.pipeline_depth),
            (0, 0, 0),
            "{}: the oracle must step the plain stepper, sequentially",
            self.name
        );
        report
    }

    /// Checks the case with a freshly compiled spec.
    pub fn run(&self, rows: &[Row]) -> Checked {
        let spec = specstrom::load(self.spec).expect("bundled spec compiles");
        self.run_on(&spec, rows)
    }

    /// Checks the case with the oracle and then under each row, all on
    /// `spec`, asserting that every row reproduces the oracle's report
    /// and keeps the counter invariants.
    pub fn run_on(&self, spec: &CompiledSpec, rows: &[Row]) -> Checked {
        let oracle = self.oracle(spec);
        let mut checked = Checked {
            oracle,
            rows: Vec::new(),
        };
        for row in rows {
            let report = self.check(spec, row);
            assert_eq!(
                report, checked.oracle,
                "{} under {row:?}: production diverged from the oracle",
                self.name
            );
            self.assert_counters(row, &report);
            if let Some((first_row, first)) = checked.rows.first() {
                assert_eq!(
                    report.timings().atoms_total,
                    first.timings().atoms_total,
                    "{}: atom demand under {row:?} differs from {first_row:?}",
                    self.name
                );
            }
            checked.rows.push((*row, report));
        }
        checked
    }

    fn assert_counters(&self, row: &Row, report: &Report) {
        let name = &self.name;
        let t = report.timings();
        assert_eq!(
            t.atom_memo_hits + t.atom_memo_misses,
            t.atoms_total,
            "{name} under {row:?}: every atom request is a memo hit or a miss"
        );
        assert_eq!(
            t.atom_memo_misses, t.atoms_reevaluated,
            "{name} under {row:?}: only memo misses may run atom code"
        );
        assert!(t.ltl_states > 0, "{name} under {row:?}: no state interned");
        match row.runtime {
            Runtime::Sequential => {
                assert_eq!(
                    (t.pipeline_depth, t.speculative_states_discarded),
                    (0, 0),
                    "{name}: the sequential engine has no pipeline"
                );
                assert_eq!((t.executor_stall_s, t.evaluator_stall_s), (0.0, 0.0));
            }
            Runtime::Pipelined { depth } => assert_eq!(
                t.pipeline_depth, depth as u64,
                "{name} under {row:?}: the pipeline must echo its depth"
            ),
            Runtime::Multiplexed { .. } => assert_eq!(
                t.pipeline_depth,
                CheckOptions::default().pipeline_depth as u64,
                "{name} under {row:?}: the pipeline must echo its depth"
            ),
        }
        if row.snapshots == SnapshotMode::Full {
            assert_eq!(
                report.transport().delta_states,
                0,
                "{name} under {row:?}: a delta was shipped"
            );
        }
    }
}

pub fn quick_options() -> CheckOptions {
    CheckOptions::default()
        .with_tests(8)
        .with_max_actions(25)
        .with_default_demand(20)
        .with_seed(97)
        .with_shrink(false)
}

fn vue() -> &'static Entry {
    registry::by_name("vue").expect("registry entry")
}

/// The six bundled specifications, each against its application.
#[derive(Debug, Clone, Copy)]
pub enum Bundled {
    Counter,
    Menu,
    EggTimer,
    TodoMvc,
    BigTable,
    Wizard,
}

impl Bundled {
    pub fn case(self) -> Case {
        match self {
            Bundled::Counter => Case::new(
                "counter",
                quickstrom::specs::COUNTER,
                app(Counter::new),
                quick_options(),
            ),
            Bundled::Menu => Case::new(
                "menu",
                quickstrom::specs::MENU,
                app(|| MenuApp::new(500)),
                quick_options(),
            ),
            Bundled::EggTimer => Case::new(
                "egg timer",
                quickstrom::specs::EGG_TIMER,
                app(EggTimer::new),
                quick_options().with_max_actions(40),
            ),
            Bundled::TodoMvc => Case::new(
                "todomvc",
                quickstrom::specs::TODOMVC,
                entry_app(vue()),
                quick_options().with_default_demand(40).with_max_actions(50),
            ),
            Bundled::BigTable => Case::new(
                "bigtable",
                quickstrom::specs::BIGTABLE,
                app(|| BigTable::with_rows(120)),
                quick_options(),
            ),
            Bundled::Wizard => Case::new(
                "wizard",
                quickstrom::specs::WIZARD,
                app(Wizard::new),
                quick_options(),
            ),
        }
    }
}

/// Declares one test per bundled specification, each handing its
/// [`Bundled`] case to `$check`.
macro_rules! bundled_tests {
    ($check:path; $($name:ident: $bundled:ident),* $(,)?) => {$(
        #[test]
        fn $name() {
            $check(Bundled::$bundled);
        }
    )*};
}

/// Checks a bundled specification under `rows`, and that the memos did
/// real work and every delta row shipped deltas (the comparison is not
/// vacuous). The BigTable and wizard applications are correct, so
/// their specs must pass, and BigTable is the large-DOM regime, in which
/// deltas ship far less than full snapshots.
pub fn check_bundled(bundled: Bundled, rows: &[Row]) -> Checked {
    let case = bundled.case();
    let checked = case.run(rows);
    for (row, report) in &checked.rows {
        if row.snapshots == SnapshotMode::Delta {
            assert!(
                report.transport().delta_states > 0,
                "{} under {row:?}: no delta shipped",
                case.name
            );
        }
    }
    assert!(
        checked.total(|t| t.atom_memo_hits) > 0,
        "{}: the atom memo never hit",
        case.name
    );
    // Later rows replay transitions the earlier rows recorded.
    if rows.len() > 1 {
        assert!(
            checked.total(|t| t.step_memo_hits) > 0,
            "{}: the step memo never fired",
            case.name
        );
    }
    if matches!(bundled, Bundled::BigTable | Bundled::Wizard) {
        assert!(checked.oracle.passed(), "{}", checked.oracle);
    }
    if matches!(bundled, Bundled::BigTable) {
        let deltas = checked
            .rows
            .iter()
            .filter(|(row, _)| row.snapshots == SnapshotMode::Delta)
            .map(|(_, report)| report);
        for report in std::iter::once(&checked.oracle).chain(deltas) {
            let t = report.transport();
            assert!(t.delta_ratio() < 0.5, "no large-DOM delta win: {t:?}");
        }
    }
    checked
}

/// A faulty TodoMVC with the shrinker on: the counterexample search and
/// every shrink replay run through the memos too.
pub fn faulty_case() -> Case {
    Case::new(
        "faulty todomvc",
        quickstrom::specs::TODOMVC,
        app(|| TodoMvc::with_faults([Fault::PendingCleared])),
        CheckOptions::default()
            .with_tests(30)
            .with_max_actions(40)
            .with_default_demand(30)
            .with_seed(20220322)
            .with_shrink(true),
    )
}

/// Checks the faulty entry under `rows`: every row must find and shrink
/// the oracle's counterexample, whose trace carries real states.
pub fn check_faulty(rows: &[Row]) -> Checked {
    let checked = faulty_case().run(rows);
    assert!(!checked.oracle.passed(), "the faulty app must fail");
    let cx = checked.oracle.properties[0]
        .counterexample()
        .expect("a counterexample");
    assert!(cx.shrunk, "the shrinker ran");
    assert!(cx.trace[0].happened().contains(&"loaded?".into()));
    checked
}

/// How many slices [`check_registry`] cuts the registry into.
pub const REGISTRY_SLICES: usize = 5;

/// Checks every `REGISTRY_SLICES`-th registry entry, starting at `slice`,
/// under every row, all on one shared TodoMVC spec as the Table 1 sweep
/// runs it: later entries hit memo entries and automaton states that
/// *other* implementations produced.
pub fn check_registry(slice: usize) {
    let spec = quickstrom_bench::todomvc_spec();
    let base = CheckOptions::default()
        .with_tests(3)
        .with_max_actions(25)
        .with_default_demand(25)
        .with_seed(11)
        .with_shrink(false);
    let (mut memo_hits, mut table_hits, mut deltas, mut discarded) = (0, 0, 0, 0);
    for entry in REGISTRY.iter().skip(slice).step_by(REGISTRY_SLICES) {
        let case = Case::new(
            entry.name,
            quickstrom::specs::TODOMVC,
            entry_app(entry),
            base.clone(),
        );
        let checked = case.run_on(&spec, &rows());
        memo_hits += checked.total(|t| t.atom_memo_hits);
        table_hits += checked.total(|t| t.ltl_table_hits);
        deltas += checked
            .rows
            .iter()
            .map(|(_, r)| r.transport().delta_states)
            .sum::<u64>();
        discarded += checked.total(|t| t.speculative_states_discarded);
    }
    assert!(memo_hits > 0, "the shared memo never hit");
    assert!(table_hits > 0, "the table never answered a step by lookup");
    assert!(deltas > 0, "no delta was ever shipped");
    // Failing entries reach their verdict mid-run, so the pipeline must
    // have truncated speculation somewhere (otherwise the pin is vacuous).
    assert!(discarded > 0, "no speculative state was ever discarded");
}
