//! The checker's test loop (§2.3 + §3.4) and its parallel runtime.
//!
//! For each `check`ed property, the runner executes a number of test runs.
//! Each run starts a fresh executor session, waits for the initial
//! `loaded?` event, then repeatedly: progresses the QuickLTL formula
//! through every newly observed state, stops on a definitive verdict,
//! otherwise selects an enabled action uniformly at random (guards are
//! evaluated against the current state; one `action` declaration fans out
//! into one candidate per matched element) and sends it with the current
//! trace version. Stale action requests — rejected by the executor because
//! an asynchronous event arrived first (Figure 10) — simply cause
//! re-deciding against the fresher state.
//!
//! A run may stop once the action budget is spent *and* the formula no
//! longer demands more states; the verdict is then the presumptive reading.
//!
//! ## Parallelism and determinism
//!
//! With [`CheckOptions::jobs`] greater than one, the runs of one property
//! fan out over a worker pool ([`crate::pool`]). Each run's RNG seed is
//! derived from `(master seed, run index)` by [`derive_run_seed`], so a
//! run's behaviour depends only on its index — never on which worker
//! executed it or in what order runs completed. With
//! [`CheckOptions::multiplex`] greater than one, each worker also keeps
//! several runs in flight (DESIGN.md, *Multiplexed sessions*). Results are
//! merged back in canonical run-index order, reproducing the sequential
//! stop-at-first-failure semantics exactly: the report for any `jobs` and
//! `multiplex` is identical to the report for one run at a time. See
//! DESIGN.md, *Parallel runtime*.

use crate::multiplex;
use crate::options::CheckOptions;
use crate::pool::{self, Cancellation};
use crate::report::{Counterexample, PhaseTimings, PropertyReport, Report, RunResult};
use crate::run::{ActionSource, Role, RunOutcome};
use crate::session::{self, Session};
use quickstrom_explore::{CoverageMap, CoverageStats, RunCoverage, TraceCorpus};
use quickstrom_obs::{
    AttrValue, FailureExplanation, MetricsRecorder, MetricsRegistry, ObsOptions, SpanKind,
    TraceLog, TraceSink, TrackLog,
};
use quickstrom_protocol::{ActionInstance, Executor, TransportStats};
use rand::rngs::StdRng;
use rand::SeedableRng;
use specstrom::{CheckDef, CompiledSpec, Thunk};
use std::fmt;
use std::time::Instant;

/// A shareable executor factory: called once per run (and per shrink
/// replay) to open a fresh session against the system under test. The
/// `Sync` bound lets the parallel runtime hand the same factory to every
/// worker; stateless closures like
/// `&|| Box::new(WebExecutor::new(App::new)) as Box<dyn Executor>`
/// satisfy it automatically.
pub type MakeExecutor<'a> = &'a (dyn Fn() -> Box<dyn Executor> + Sync);

/// An unrecoverable checking error (as opposed to a failing property):
/// specification evaluation errors or protocol violations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckError {
    /// Description of the failure.
    pub message: String,
}

impl CheckError {
    pub(crate) fn new(message: impl Into<String>) -> Self {
        CheckError {
            message: message.into(),
        }
    }
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "check error: {}", self.message)
    }
}

impl std::error::Error for CheckError {}

impl From<specstrom::EvalError> for CheckError {
    fn from(e: specstrom::EvalError) -> Self {
        CheckError::new(e.to_string())
    }
}

/// Derives the RNG seed of one test run from the master seed and the run's
/// index, with a SplitMix64-style mixing step.
///
/// Nearby master seeds and indices must not yield correlated run seeds —
/// the mixer guarantees avalanche — and, crucially for the parallel
/// runtime, the derivation depends *only* on `(master_seed, run_index)`:
/// never on worker count, scheduling, or completion order. This is the
/// load-bearing half of the `jobs = N` ⇒ `jobs = 1` determinism invariant.
///
/// # Examples
///
/// ```
/// use quickstrom_checker::derive_run_seed;
///
/// // Deterministic in both arguments…
/// assert_eq!(derive_run_seed(42, 3), derive_run_seed(42, 3));
/// // …and decorrelated across neighbouring indices.
/// assert_ne!(derive_run_seed(42, 3), derive_run_seed(42, 4));
/// assert_ne!(derive_run_seed(42, 3), derive_run_seed(43, 3));
/// ```
#[must_use]
pub fn derive_run_seed(master_seed: u64, run_index: u64) -> u64 {
    // SplitMix64: state = master + (index + 1) · golden gamma, then the
    // standard finalizer (Steele, Lea & Flood, OOPSLA 2014).
    let mut z = master_seed.wrapping_add(
        run_index
            .wrapping_add(1)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15),
    );
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The per-property check context: the [`Role`] every run's evaluator
/// plays (the production evaluator, or the reference checker's oracle),
/// plus the observability setup — shared options, a common time origin
/// (so every track's timestamps are comparable), and the chrome-trace
/// process id the property's tracks are grouped under.
///
/// Everything is read-only and `Sync`, so worker threads share one context
/// by reference. When observability is off, every sink/recorder it hands
/// out is disabled — a single branch per span, no allocation.
pub(crate) struct CheckCtx {
    pub(crate) role: Role,
    pub(crate) opts: ObsOptions,
    pub(crate) origin: Instant,
    pub(crate) pid: u32,
}

impl CheckCtx {
    /// A context with observability off.
    pub(crate) fn unobserved(role: Role) -> Self {
        CheckCtx {
            role,
            opts: ObsOptions::disabled(),
            origin: Instant::now(),
            pid: 0,
        }
    }

    /// A sink for one track. The `name` closure only runs when tracing is
    /// enabled, so disabled runs never allocate a label.
    pub(crate) fn sink(&self, tid: u64, name: impl FnOnce() -> String) -> TraceSink {
        match &self.opts.tracing {
            Some(t) => TraceSink::enabled(self.origin, self.pid, tid, name(), t.track_capacity),
            None => TraceSink::disabled(),
        }
    }

    pub(crate) fn recorder(&self) -> MetricsRecorder {
        if self.opts.metrics {
            MetricsRecorder::enabled()
        } else {
            MetricsRecorder::disabled()
        }
    }
}

/// The observability artifacts of one run (or one property, once
/// aggregated): the trace tracks and the merged metrics registry.
#[derive(Debug, Default)]
pub struct RunObs {
    /// Trace tracks (one per run, plus the shrink search's; empty when
    /// tracing is off).
    pub tracks: Vec<TrackLog>,
    /// Merged metrics (empty when metrics are off).
    pub metrics: MetricsRegistry,
}

impl RunObs {
    pub(crate) fn absorb(&mut self, other: RunObs) {
        self.tracks.extend(other.tracks);
        self.metrics.merge(&other.metrics);
    }
}

/// One executed run, with the observation totals the report aggregates.
pub(crate) struct ExecutedRun {
    pub(crate) states: usize,
    pub(crate) actions: usize,
    pub(crate) result: RunResult,
    pub(crate) timings: PhaseTimings,
    pub(crate) transport: TransportStats,
    /// The accepted action script (the corpus harvests novel prefixes
    /// from it).
    pub(crate) script: Vec<ActionInstance>,
    /// The run's coverage observations, merged into the property's map in
    /// canonical index order.
    pub(crate) coverage: RunCoverage,
    /// Whether the run was seeded with a corpus prefix.
    pub(crate) replayed: bool,
    /// The run's observability artifacts (empty when obs is off).
    pub(crate) obs: RunObs,
}

/// Does this outcome end the canonical sequence of runs? Failures and
/// errors do: a sequential loop would run nothing after them.
pub(crate) fn stops(outcome: &Result<ExecutedRun, CheckError>) -> bool {
    outcome.as_ref().map_or(true, |run| run.result.is_failure())
}

/// How many runs are dispatched between corpus-harvest barriers when the
/// strategy schedules corpus replays.
///
/// The epoch is a fixed constant — *never* derived from the worker
/// count — because it is part of the determinism contract: runs within
/// an epoch are seeded before the epoch starts (from the corpus contents
/// at the barrier) and merged in index order after it, so the corpus a
/// run sees depends only on `(strategy, seed, run index)`, not on
/// scheduling. Larger epochs would fan out better but feed discoveries
/// back more slowly; four runs keeps both effects small.
const CORPUS_EPOCH: usize = 4;

/// What the corpus-scheduled fan-out produces beyond the runs: the merged
/// coverage and how the corpus was used.
struct CorpusOutcome {
    executed: Vec<ExecutedRun>,
    coverage: CoverageMap,
    corpus_size: usize,
    corpus_replays: usize,
}

/// The chrome-trace thread id of the shrink search's own track — far above
/// any run index, which is its run's thread id.
const SHRINK_TID: u64 = 1 << 32;

/// One property's check: what all of its runs and shrink replays share.
pub(crate) struct PropertyCheck<'a> {
    spec: &'a CompiledSpec,
    check: &'a CheckDef,
    name: &'a str,
    property: Thunk,
    pub(crate) options: &'a CheckOptions,
    pub(crate) make_executor: MakeExecutor<'a>,
    ctx: &'a CheckCtx,
}

impl PropertyCheck<'_> {
    /// The session of the random run at `index`: a fresh RNG seeded from
    /// `(options.seed, index)`, replaying a corpus `prefix` (if any)
    /// before extending with strategy-chosen actions, recorded on the
    /// run's own trace track.
    pub(crate) fn session<'s>(
        &'s self,
        index: usize,
        prefix: Option<&'s [ActionInstance]>,
    ) -> Session<'s> {
        let source = ActionSource::Random {
            rng: StdRng::seed_from_u64(derive_run_seed(self.options.seed, index as u64)),
            prefix: prefix.unwrap_or(&[]),
            pos: 0,
        };
        self.session_from(source).with_obs(
            self.ctx.sink(index as u64, || format!("run {index}")),
            self.ctx.recorder(),
        )
    }

    fn session_from<'s>(&'s self, source: ActionSource<'s>) -> Session<'s> {
        Session::new(
            self.spec,
            self.check,
            self.name,
            &self.property,
            self.options,
            self.ctx.role,
            source,
        )
    }

    /// Executes the run at `index` inline, against a fresh executor.
    fn run_one(
        &self,
        index: usize,
        prefix: Option<&[ActionInstance]>,
    ) -> Result<ExecutedRun, CheckError> {
        let mut executor = (self.make_executor)();
        let mut session = self.session(index, prefix);
        let outcome = session::drive(&mut session, executor.as_mut())?;
        Ok(session.retire(outcome, executor.transport_stats(), prefix.is_some()))
    }

    /// Runs the random runs `base..base + count`, the `k`-th replaying
    /// `prefixes[k]` first. Runs go inline on up to `jobs` workers, or
    /// with `multiplex` sessions in flight per worker
    /// ([`crate::multiplex`]). Results come back in index order; a slot
    /// is `None` only when `cancel` skipped it, which happens strictly
    /// after the earliest recorded stop.
    fn run_batch(
        &self,
        base: usize,
        count: usize,
        prefixes: Option<&[Option<Vec<ActionInstance>>]>,
        cancel: Option<&Cancellation>,
    ) -> Vec<Option<Result<ExecutedRun, CheckError>>> {
        if self.options.multiplex > 1 {
            return multiplex::run_batch(self, base, count, prefixes, cancel);
        }
        pool::run_ordered(self.options.jobs, count, |k| {
            let index = base + k;
            if cancel.is_some_and(|c| c.should_skip(index)) {
                return None;
            }
            let outcome = self.run_one(index, prefixes.and_then(|p| p[k].as_deref()));
            if stops(&outcome) {
                if let Some(cancel) = cancel {
                    cancel.note_stop(index);
                }
            }
            Some(outcome)
        })
    }

    /// The test loop: every run index goes to [`Self::run_batch`], and the
    /// results merge in canonical index order, replaying the sequential
    /// decisions — take runs until the first failure (inclusive) or the
    /// first error. Every index up to that point was executed, so the
    /// outcome matches a sequential loop bit for bit.
    fn run_tests(&self) -> Result<Vec<ExecutedRun>, CheckError> {
        let cancel = Cancellation::new();
        let mut executed = Vec::new();
        for slot in self.run_batch(0, self.options.tests, None, Some(&cancel)) {
            let Some(outcome) = slot else {
                break; // only reachable past the earliest stop
            };
            let run = outcome?;
            let failed = run.result.is_failure();
            executed.push(run);
            if failed {
                break;
            }
        }
        Ok(executed)
    }

    /// The coverage-guided loop: runs execute in fixed-size epochs; between
    /// epochs the per-run coverage is merged (in index order) into the
    /// property's map, prefixes that reached property-novel fingerprints
    /// enter the [`TraceCorpus`], and the next epoch's runs are
    /// deterministically seeded with replay-then-extend prefixes.
    ///
    /// Stop-at-first-failure matches the sequential semantics: the merge
    /// stops at the first failing index (inclusive); later runs of that
    /// epoch are discarded identically for every `jobs` value.
    fn run_tests_corpus(&self) -> Result<CorpusOutcome, CheckError> {
        let options = self.options;
        let mut corpus = TraceCorpus::default();
        let mut coverage = CoverageMap::new();
        let mut executed = Vec::new();
        let mut corpus_replays = 0usize;
        let mut stopped = false;
        let mut start = 0usize;
        while start < options.tests && !stopped {
            let end = (start + CORPUS_EPOCH).min(options.tests);
            // Seed the epoch from the corpus as it stands at this barrier —
            // a pure function of (corpus contents, run index).
            let prefixes: Vec<Option<Vec<ActionInstance>>> = (start..end)
                .map(|index| {
                    corpus
                        .schedule(index, options.max_actions)
                        .map(|entry| entry.script.clone())
                })
                .collect();
            // No cancellation inside an epoch: every slot is executed.
            let slots = self.run_batch(start, end - start, Some(&prefixes), None);
            for slot in slots {
                let run = slot.expect("corpus epochs run without cancellation")?;
                // Harvest prefixes that reached property-novel fingerprints
                // *before* merging this run's map — merge order is the
                // canonical index order, so the corpus contents are
                // deterministic too.
                for &(len, fp) in &run.coverage.first_visits {
                    if !coverage.contains_state(fp) && len > 0 {
                        corpus.add(run.script[..len].to_vec(), fp);
                    }
                }
                coverage.merge(&run.coverage.map);
                if run.replayed {
                    corpus_replays += 1;
                }
                let failed = run.result.is_failure();
                executed.push(run);
                if failed {
                    stopped = true;
                    break;
                }
            }
            start = end;
        }
        Ok(CorpusOutcome {
            executed,
            coverage,
            corpus_size: corpus.len(),
            corpus_replays,
        })
    }

    /// Runs one scripted replay inline; used by the shrinker.
    fn replay(
        &self,
        script: &[ActionInstance],
    ) -> Result<(RunOutcome, PhaseTimings, TransportStats), CheckError> {
        let mut executor = (self.make_executor)();
        let mut session = self.session_from(ActionSource::Script {
            actions: script,
            pos: 0,
        });
        let outcome = session::drive(&mut session, executor.as_mut())?;
        Ok((outcome, session.timings(), executor.transport_stats()))
    }

    /// Minimises a failing script by removing chunks and replaying (a
    /// light delta-debugging pass). Not described in the paper — the real
    /// tool shrinks too — and documented as an extension in DESIGN.md.
    fn shrink(
        &self,
        mut failing: Counterexample,
        timings: &mut PhaseTimings,
        transport: &mut TransportStats,
        run_obs: &mut RunObs,
    ) -> Result<Counterexample, CheckError> {
        // The shrink search gets its own track: one `shrink` span around
        // the whole search, one `shrink-replay` span per candidate. The
        // replay sessions themselves run with observability off,
        // mirroring `reset_for_replay`'s exclusion of replay counters from
        // the report.
        let mut sink = self
            .ctx
            .sink(SHRINK_TID, || format!("{} · shrink", self.name));
        let shrink_span = sink.open(SpanKind::Shrink);
        let original_len = failing.script.len();
        let mut budget = 200usize;
        let mut chunk = (failing.script.len() / 2).max(1);
        loop {
            let mut improved = false;
            let mut i = 0;
            while i < failing.script.len() && budget > 0 {
                budget -= 1;
                let mut candidate: Vec<ActionInstance> = failing.script.clone();
                let end = (i + chunk).min(candidate.len());
                candidate.drain(i..end);
                let candidate_len = candidate.len() as u64;
                let replay_span = sink.open(SpanKind::ShrinkReplay);
                let (outcome, mut replay_timings, replay_transport) = self.replay(&candidate)?;
                let still_failing = matches!(&outcome, RunOutcome::Result(RunResult::Failed(_)));
                sink.close_with(replay_span, |a| {
                    a.push(("candidate_len", AttrValue::U64(candidate_len)));
                    a.push(("still_failing", AttrValue::Bool(still_failing)));
                });
                // Fold in the replay's wall-clock attribution but not its
                // evaluation counters: each replay re-expands the atoms of
                // its whole candidate prefix, so absorbing the counts would
                // make the per-property atom/table columns depend on
                // whether a counterexample happened to shrink (and on how
                // many candidates the shrinker tried). Counters measure
                // what the *test budget* evaluated, mirroring coverage's
                // exclusion of shrink replays.
                replay_timings.reset_for_replay();
                timings.absorb(replay_timings);
                transport.absorb(replay_transport);
                match outcome {
                    RunOutcome::Result(RunResult::Failed(cx)) => {
                        failing = Counterexample { shrunk: true, ..cx };
                        improved = true;
                        // Retry at the same index: the next chunk shifted
                        // left.
                    }
                    _ => {
                        // Slide by one, not by chunk: guard-coupled pairs
                        // can sit at any offset (budget bounds the
                        // quadratic cost).
                        i += 1;
                    }
                }
            }
            if budget == 0 {
                break;
            }
            if !improved {
                if chunk == 1 {
                    break;
                }
                // Ceiling halving so every size down to 1 is attempted —
                // guard-coupled action pairs (enter-edit/exit-edit) can
                // only be removed together, at exactly chunk size 2.
                chunk = chunk.div_ceil(2);
            } else {
                chunk = (failing.script.len() / 2).max(1);
            }
        }
        let final_len = failing.script.len() as u64;
        sink.close_with(shrink_span, |a| {
            a.push(("original_len", AttrValue::U64(original_len as u64)));
            a.push(("final_len", AttrValue::U64(final_len)));
        });
        if let Some(track) = sink.finish() {
            run_obs.tracks.push(track);
        }
        Ok(failing)
    }
}

/// Checks one property of one `check` command.
///
/// `make_executor` is called once per run (and per shrink replay) to build
/// a fresh session against the system under test. With
/// [`CheckOptions::jobs`] greater than one, runs execute on a worker pool;
/// the report is guaranteed identical to a sequential check (see
/// [`derive_run_seed`]). Shrinking always happens after the fan-out, on
/// the canonical (earliest-index) counterexample.
///
/// # Errors
///
/// Returns [`CheckError`] on specification evaluation errors or executor
/// protocol violations — *not* on failing properties, which are reported in
/// the [`PropertyReport`].
pub fn check_property(
    spec: &CompiledSpec,
    check: &CheckDef,
    property_name: &str,
    options: &CheckOptions,
    make_executor: MakeExecutor<'_>,
) -> Result<PropertyReport, CheckError> {
    let ctx = CheckCtx::unobserved(Role::Evaluator);
    check_property_inner(spec, check, property_name, options, make_executor, &ctx)
        .map(|(report, _)| report)
}

/// [`check_property`] with observability: structured tracing and/or a
/// metrics registry per [`ObsOptions`]. The returned [`RunObs`] carries
/// every recorded trace track (in canonical run-index order, then the
/// shrink search's) plus the merged metrics. The report itself is
/// bit-identical to [`check_property`]'s — instrumentation never branches
/// control flow.
///
/// # Errors
///
/// See [`check_property`].
pub fn check_property_observed(
    spec: &CompiledSpec,
    check: &CheckDef,
    property_name: &str,
    options: &CheckOptions,
    make_executor: MakeExecutor<'_>,
    obs: &ObsOptions,
) -> Result<(PropertyReport, RunObs), CheckError> {
    let ctx = CheckCtx {
        role: Role::Evaluator,
        opts: obs.clone(),
        origin: Instant::now(),
        pid: 1,
    };
    check_property_inner(spec, check, property_name, options, make_executor, &ctx)
}

fn check_property_inner(
    spec: &CompiledSpec,
    check: &CheckDef,
    property_name: &str,
    options: &CheckOptions,
    make_executor: MakeExecutor<'_>,
    ctx: &CheckCtx,
) -> Result<(PropertyReport, RunObs), CheckError> {
    let property = spec
        .property_thunk(property_name)
        .ok_or_else(|| CheckError::new(format!("unknown property `{property_name}`")))?;
    let prop = PropertyCheck {
        spec,
        check,
        name: property_name,
        property,
        options,
        make_executor,
        ctx,
    };
    let outcome = if options.strategy.uses_corpus() {
        prop.run_tests_corpus()?
    } else {
        let executed = prop.run_tests()?;
        // Merge per-run coverage in canonical index order (the union is
        // order-insensitive anyway, but the canonical order is the
        // stated contract).
        let mut coverage = CoverageMap::new();
        for run in &executed {
            coverage.merge(&run.coverage.map);
        }
        CorpusOutcome {
            executed,
            coverage,
            corpus_size: 0,
            corpus_replays: 0,
        }
    };
    let coverage_stats = CoverageStats {
        distinct_states: outcome.coverage.distinct_states(),
        distinct_edges: outcome.coverage.distinct_edges(),
        corpus_size: outcome.corpus_size,
        corpus_replays: outcome.corpus_replays,
    };
    let executed = outcome.executed;
    let mut runs = Vec::with_capacity(executed.len());
    let mut states_total = 0;
    let mut actions_total = 0;
    let mut timings = PhaseTimings::default();
    let mut transport = TransportStats::default();
    let mut run_obs = RunObs::default();
    for run in executed {
        states_total += run.states;
        actions_total += run.actions;
        timings.absorb(run.timings);
        transport.absorb(run.transport);
        run_obs.absorb(run.obs);
        match run.result {
            RunResult::Failed(cx) => {
                let cx = if options.shrink && cx.script.len() > 1 && !cx.forced {
                    prop.shrink(cx, &mut timings, &mut transport, &mut run_obs)?
                } else {
                    cx
                };
                runs.push(RunResult::Failed(cx));
            }
            other => runs.push(other),
        }
    }
    if ctx.opts.metrics {
        run_obs.metrics.counter("runs_total", runs.len() as u64);
        run_obs.metrics.counter("states_total", states_total as u64);
        run_obs
            .metrics
            .counter("actions_total", actions_total as u64);
    }
    Ok((
        PropertyReport {
            property: property_name.to_owned(),
            runs,
            states_total,
            actions_total,
            timings,
            transport,
            coverage: coverage_stats,
        },
        run_obs,
    ))
}

/// Checks every property of every `check` command in the specification.
///
/// Properties are checked in declaration order; within each property the
/// runs fan out over [`CheckOptions::jobs`] workers.
///
/// # Errors
///
/// See [`check_property`].
pub fn check_spec(
    spec: &CompiledSpec,
    options: &CheckOptions,
    make_executor: MakeExecutor<'_>,
) -> Result<Report, CheckError> {
    check_spec_in(spec, options, make_executor, Role::Evaluator)
}

/// [`check_spec`] with every run's evaluator playing `role` (the
/// reference checker, [`crate::oracle`], passes [`Role::Oracle`]).
pub(crate) fn check_spec_in(
    spec: &CompiledSpec,
    options: &CheckOptions,
    make_executor: MakeExecutor<'_>,
    role: Role,
) -> Result<Report, CheckError> {
    let ctx = CheckCtx::unobserved(role);
    let mut report = Report::default();
    for check in &spec.checks {
        for property in &check.properties {
            let (prop, _) =
                check_property_inner(spec, check, property, options, make_executor, &ctx)?;
            report.properties.push(prop);
        }
    }
    Ok(report)
}

/// The observability artifacts of one observed spec check: every trace
/// track (properties grouped as chrome-trace processes, in declaration
/// order), the merged metrics registry, and one [`FailureExplanation`]
/// per failing property, built from the final (shrunk) counterexample.
#[derive(Debug, Default)]
pub struct ObsArtifacts {
    /// All trace tracks, ready for
    /// [`chrome_trace_json`](quickstrom_obs::chrome_trace_json) or
    /// [`render_timeline`](quickstrom_obs::render_timeline).
    pub trace: TraceLog,
    /// The merged metrics registry across all properties and workers.
    pub metrics: MetricsRegistry,
    /// One explanation per failing property, in declaration order.
    pub explanations: Vec<FailureExplanation>,
}

/// [`check_spec`] with observability: structured tracing, a metrics
/// registry, and explainable failure reports, per [`ObsOptions`]. The
/// returned [`Report`] is bit-identical to [`check_spec`]'s — the
/// instrumentation never branches control flow — and failure explanations
/// are built even when tracing and metrics are both off (they replay the
/// recorded counterexample trace, which is deterministic and cheap).
///
/// # Errors
///
/// See [`check_property`].
pub fn check_spec_observed(
    spec: &CompiledSpec,
    options: &CheckOptions,
    make_executor: MakeExecutor<'_>,
    obs: &ObsOptions,
) -> Result<(Report, ObsArtifacts), CheckError> {
    let origin = Instant::now();
    let mut report = Report::default();
    let mut artifacts = ObsArtifacts::default();
    let mut pid = 1u32;
    for check in &spec.checks {
        for property in &check.properties {
            let ctx = CheckCtx {
                role: Role::Evaluator,
                opts: obs.clone(),
                origin,
                pid,
            };
            let (prop, run_obs) =
                check_property_inner(spec, check, property, options, make_executor, &ctx)?;
            artifacts.trace.tracks.extend(run_obs.tracks);
            artifacts.metrics.merge(&run_obs.metrics);
            if let Some(cx) = prop.counterexample() {
                artifacts.explanations.push(crate::explain::explain_failure(
                    spec, property, cx, options,
                )?);
            }
            report.properties.push(prop);
            pid += 1;
        }
    }
    Ok((report, artifacts))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_seeds_are_stable_and_spread() {
        // Pinned values: the derivation is part of the reproducibility
        // contract (reports cite seeds), so changing the mixer constants
        // must fail loudly. (0, 0) is the canonical first output of
        // SplitMix64 from state 0.
        assert_eq!(derive_run_seed(0, 0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(derive_run_seed(20220322, 5), 0x32A6_D737_1F3E_3766);
        let seeds: Vec<u64> = (0..64).map(|i| derive_run_seed(20220322, i)).collect();
        let mut deduped = seeds.clone();
        deduped.sort_unstable();
        deduped.dedup();
        assert_eq!(deduped.len(), seeds.len(), "no collisions in 64 indices");
        // Avalanche sanity: flipping the low master-seed bit flips roughly
        // half the output bits on average; just require ≥ 16 of 64 here.
        let a = derive_run_seed(7, 0);
        let b = derive_run_seed(6, 0);
        assert!((a ^ b).count_ones() >= 16);
    }
}
