//! The two-stage pipelined session runtime (`--pipeline on`, the default).
//!
//! The sequential engine ([`crate::session::Session`]) strictly serializes
//! each step: perform → render → ingest → LTL-step before the next action
//! fires, so wall-clock per run is the *sum* of the executor and evaluator
//! phases. This module splits the step into two concurrent stages over a
//! bounded state stream:
//!
//! * The **driver** stage owns the executor and the action strategy. It
//!   runs an observer-role [`Run`] — action selection needs only the
//!   resolved snapshot/delta, the guard results and (for the novelty
//!   strategy) the coverage fingerprints, never the LTL verdict — and
//!   pushes every reply batch into a bounded per-run channel as a
//!   [`StageEvent`].
//! * The **evaluator** stage owns the full [`Run`]: atom memo, automaton
//!   step, trace and coverage bookkeeping. It consumes the stream lagging
//!   by up to [`CheckOptions::pipeline_depth`] states.
//!
//! ## Truncation and determinism
//!
//! The driver speculates: by the time the evaluator reaches a definitive
//! verdict at state *t*, the driver may have executed up to
//! `pipeline_depth` further states. The evaluator then raises the shared
//! stop flag (cancelling the driver at its next check) and discards the
//! speculative tail unprocessed, so every report artefact — trace, states
//! counter, scripts, coverage — is derived from exactly the states the
//! sequential engine would have seen. Driver decisions at position *t*
//! depend only on history up to *t* (state, guards, action counts,
//! fingerprints, the run RNG — never the verdict), so the two engines
//! agree on every step up to the canonical stop point; divergence exists
//! only in the discarded tail. The same truncation resolves the one
//! evaluator-dependent stop condition — "budget spent and the formula
//! demands no more states": the driver speculates straight through the
//! budget boundary (never parking for a `demands_more` answer), and the
//! evaluator, whose replayed `Run` holds the exact canonical history,
//! concludes the run at the first decision point where the condition
//! holds. The hard action cap bounds that speculation absolutely.
//! The `differential_pipeline` suite pins Report equality against the
//! reference checker (sequential, plain stepper) across all bundled
//! specs, the registry, jobs, snapshot modes and pipeline depths, and at
//! jobs 1 the sequential engine's evaluation counters.
//!
//! ## Multiplexing
//!
//! On top of the same seam, [`run_batch_pipelined`] lets each worker drive
//! several in-flight sessions at once: the evaluator stages are poll-driven
//! ([`EvalStage::poll`]), so one worker thread interleaves them while each
//! session's driver thread blocks on its executor. Runs retire into
//! index-ordered slots, preserving the `jobs = N` ⇒ `jobs = 1` determinism
//! contract. This is what hides executor latency (remote executors, real
//! browsers) — see the `pipeline` bench.

use crate::options::CheckOptions;
use crate::pool::Cancellation;
use crate::report::PhaseTimings;
use crate::run::{ActionSource, Role, Run, RunOutcome};
use crate::runner::{derive_run_seed, CheckCtx, CheckError, ExecutedRun, MakeExecutor, RunObs};
use quickstrom_obs::{AttrValue, MetricsRecorder, SpanKind, TraceSink};
use quickstrom_protocol::{ActionInstance, CheckerMsg, Executor, ExecutorMsg, TransportStats};
use rand::rngs::StdRng;
use rand::SeedableRng;
use specstrom::{CheckDef, CompiledSpec, Thunk};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TryRecvError, TrySendError};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// How long an idle multiplexing worker sleeps before re-polling its
/// in-flight sessions.
const IDLE_POLL: Duration = Duration::from_micros(20);

/// One unit of work crossing the stage seam: a reply batch (shared by
/// `Arc` — the driver ingests from its own handle, so nothing is cloned),
/// or a terminal signal.
enum StageEvent {
    /// The `Start` replies (never empty — the driver reports an empty
    /// batch as [`StageEvent::Failed`]). Ingested with Start-batch
    /// semantics: stop at the first definitive reply, remaining replies
    /// never ingested.
    Started(Arc<Vec<ExecutorMsg>>),
    /// Replies to a `Wait`. The whole batch is ingested before the
    /// verdict check, exactly like the sequential engine — the trace
    /// includes every reply of the batch even when an early one was
    /// decisive.
    Waited(Arc<Vec<ExecutorMsg>>),
    /// Replies to an `Act`, with the action for the acceptance
    /// bookkeeping. Ingestion stops mid-batch at a definitive verdict;
    /// the effect bookkeeping still runs for accepted actions.
    Acted {
        /// The action the driver requested.
        action: ActionInstance,
        /// The executor's replies (possibly without an `Acted` — a stale
        /// request outrun by asynchronous events).
        replies: Arc<Vec<ExecutorMsg>>,
    },
    /// The driver stopped naturally: hard action cap, or no enabled
    /// actions. (The budget-boundary stop is the evaluator's decision —
    /// the driver speculates through it.)
    Finished,
    /// A driver-side error (protocol violation, guard-evaluation error).
    /// Discarded when the evaluator already holds a canonical conclusion —
    /// the sequential engine would have stopped before the error site.
    Failed(CheckError),
}

/// The driver⟷evaluator rendezvous state of one pipelined run. The only
/// coordination is a stop flag: the driver never waits on an evaluator
/// answer. In particular it speculates straight through the action-budget
/// boundary — whether the run ends there depends on `demands_more()`,
/// which only the evaluator can answer, so the evaluator owns that stop
/// decision and truncates the speculative tail exactly as it does for a
/// definitive verdict.
struct PipeShared {
    /// The evaluator concluded (definitive verdict, natural finish or
    /// error): the driver must wind down.
    stop: AtomicBool,
}

impl PipeShared {
    fn new() -> Self {
        PipeShared {
            stop: AtomicBool::new(false),
        }
    }

    fn stopped(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }

    /// Evaluator side: signal conclusion. The driver notices at its next
    /// loop-top check (or via the channel disconnecting once the
    /// evaluator's drain finishes).
    fn request_stop(&self) {
        self.stop.store(true, Ordering::Release);
    }
}

/// What the driver stage hands back when it exits.
struct DriverOutcome {
    /// Time inside `Executor::send` (including speculative steps).
    exec_time: Duration,
    /// Time blocked on a full channel — the evaluator was the
    /// bottleneck.
    stall_time: Duration,
    /// Guard-evaluation time (the driver's share of `eval_s`).
    eval_time: Duration,
    /// States the driver executed, including the speculative tail.
    states_sent: usize,
    /// The executor's transport accounting (includes speculative
    /// messages — one reason transport is excluded from Report equality).
    transport: TransportStats,
    /// The driver's trace track (disabled sink when tracing is off).
    sink: TraceSink,
    /// The driver's metrics recorder (send latency, executor stalls).
    metrics: MetricsRecorder,
}

fn timed_send(
    executor: &mut dyn Executor,
    exec_time: &mut Duration,
    sink: &mut TraceSink,
    metrics: &mut MetricsRecorder,
    msg: CheckerMsg,
) -> Vec<ExecutorMsg> {
    let span = sink.open(SpanKind::Send);
    let started = Instant::now();
    let replies = executor.send(msg);
    let elapsed = started.elapsed();
    *exec_time += elapsed;
    metrics.send_latency(elapsed);
    sink.close_with(span, |a| {
        a.push(("replies", AttrValue::U64(replies.len() as u64)));
    });
    replies
}

/// Forwards an event to the evaluator, timing any backpressure stall.
/// Returns `false` when the evaluator hung up (it concluded and finished
/// draining); the driver then winds down.
fn forward(
    tx: &SyncSender<StageEvent>,
    stall: &mut Duration,
    sink: &mut TraceSink,
    metrics: &mut MetricsRecorder,
    event: StageEvent,
) -> bool {
    match tx.try_send(event) {
        Ok(()) => true,
        Err(TrySendError::Full(event)) => {
            let span = sink.open(SpanKind::Stall);
            let started = Instant::now();
            let delivered = tx.send(event).is_ok();
            let elapsed = started.elapsed();
            *stall += elapsed;
            metrics.executor_stall(elapsed);
            sink.close(span);
            delivered
        }
        Err(TrySendError::Disconnected(_)) => false,
    }
}

/// The driver stage: mirrors the sequential `Session::drive` control flow
/// with an observer-role [`Run`], forwarding every reply batch across the
/// seam. Never returns an error — driver-side failures travel to the
/// evaluator as [`StageEvent::Failed`], where they become canonical only
/// if no verdict preceded them.
#[allow(clippy::too_many_arguments)] // internal: mirrors run_one's surface
fn drive_stage(
    spec: &CompiledSpec,
    check: &CheckDef,
    property_name: &str,
    property: &Thunk,
    options: &CheckOptions,
    make_executor: MakeExecutor<'_>,
    index: usize,
    prefix: &[ActionInstance],
    shared: &PipeShared,
    tx: SyncSender<StageEvent>,
    obs: &CheckCtx,
) -> DriverOutcome {
    // The driver's own track: executor sends and backpressure stalls.
    // The evaluator stage's spans land on the run's sink (attached in
    // `run_one_pipelined`/`run_batch_pipelined`), a separate track.
    let mut sink = obs.sink(2 * index as u64, || format!("run {index} · driver"));
    let mut metrics = obs.recorder();
    let run_span = sink.open(SpanKind::Run);
    let mut run = Run::new(
        spec,
        check,
        property_name,
        property,
        options,
        Role::Observer,
    );
    let mut source = ActionSource::Random {
        rng: StdRng::seed_from_u64(derive_run_seed(options.seed, index as u64)),
        prefix,
        pos: 0,
    };
    // `Box<dyn Executor>` is not `Send`: the executor is constructed here,
    // inside the driver thread, and never leaves it.
    let mut executor = make_executor();
    let mut exec_time = Duration::ZERO;
    let mut stall_time = Duration::ZERO;
    // Send `End` on the way out? Matches the sequential engine: yes on
    // natural stops and verdict cancellation, no on protocol/eval errors.
    let mut clean = true;
    'session: {
        let replies = timed_send(
            executor.as_mut(),
            &mut exec_time,
            &mut sink,
            &mut metrics,
            CheckerMsg::Start {
                dependencies: spec.dependencies.clone(),
            },
        );
        if replies.is_empty() {
            let _ = tx.send(StageEvent::Failed(CheckError::new(
                "executor sent nothing in response to Start (expected the \
                 loaded? event)",
            )));
            clean = false;
            break 'session;
        }
        let replies = Arc::new(replies);
        if !forward(
            &tx,
            &mut stall_time,
            &mut sink,
            &mut metrics,
            StageEvent::Started(Arc::clone(&replies)),
        ) {
            break 'session;
        }
        for msg in replies.iter() {
            if let Err(e) = run.ingest(msg, None) {
                let _ = tx.send(StageEvent::Failed(e));
                clean = false;
                break 'session;
            }
        }
        loop {
            if shared.stopped() {
                break;
            }
            // Event-associated timeouts first (§3.4, Wait).
            if let Some(t) = run.pending_wait.take() {
                let version = run.version();
                let replies = timed_send(
                    executor.as_mut(),
                    &mut exec_time,
                    &mut sink,
                    &mut metrics,
                    CheckerMsg::Wait {
                        time_ms: t,
                        version,
                    },
                );
                let replies = Arc::new(replies);
                if !forward(
                    &tx,
                    &mut stall_time,
                    &mut sink,
                    &mut metrics,
                    StageEvent::Waited(Arc::clone(&replies)),
                ) {
                    break;
                }
                for msg in replies.iter() {
                    if let Err(e) = run.ingest(msg, None) {
                        let _ = tx.send(StageEvent::Failed(e));
                        clean = false;
                        break 'session;
                    }
                }
                continue;
            }
            // Of the sequential stop conditions only the hard cap is the
            // driver's to evaluate. The budget boundary needs
            // `demands_more()`, which only the evaluator can answer — so
            // the driver speculates straight through it and keeps acting
            // until the evaluator concludes (stop flag above) or the hard
            // cap bounds the speculation absolutely. If the canonical run
            // ended at the boundary, everything past it is a speculative
            // tail the evaluator discards.
            if run.at_hard_cap() {
                let _ = forward(
                    &tx,
                    &mut stall_time,
                    &mut sink,
                    &mut metrics,
                    StageEvent::Finished,
                );
                break;
            }
            let action = match run.select_action(&mut source) {
                Ok(Some(action)) => action,
                Ok(None) => {
                    let _ = forward(
                        &tx,
                        &mut stall_time,
                        &mut sink,
                        &mut metrics,
                        StageEvent::Finished,
                    );
                    break;
                }
                Err(e) => {
                    let _ = tx.send(StageEvent::Failed(e));
                    clean = false;
                    break 'session;
                }
            };
            let version = run.version();
            let replies = timed_send(
                executor.as_mut(),
                &mut exec_time,
                &mut sink,
                &mut metrics,
                CheckerMsg::Act {
                    action: action.clone(),
                    version,
                },
            );
            if replies.is_empty() {
                // Neither acted nor any pending event: protocol violation.
                let _ = tx.send(StageEvent::Failed(CheckError::new(
                    "executor ignored an up-to-date Act without sending events",
                )));
                clean = false;
                break 'session;
            }
            let accepted = replies.iter().any(ExecutorMsg::is_acted);
            let replies = Arc::new(replies);
            if !forward(
                &tx,
                &mut stall_time,
                &mut sink,
                &mut metrics,
                StageEvent::Acted {
                    action: action.clone(),
                    replies: Arc::clone(&replies),
                },
            ) {
                break;
            }
            if accepted {
                // Before ingesting, like the sequential engine: the states
                // the action produced see a script that includes it.
                run.note_accepted(action.clone());
            }
            let mut acted_seen = false;
            for msg in replies.iter() {
                let tag = if msg.is_acted() && !acted_seen {
                    acted_seen = true;
                    Some(&action)
                } else {
                    None
                };
                if let Err(e) = run.ingest(msg, tag) {
                    let _ = tx.send(StageEvent::Failed(e));
                    clean = false;
                    break 'session;
                }
            }
            if accepted {
                run.note_effect();
            }
        }
    }
    if clean {
        let _ = timed_send(
            executor.as_mut(),
            &mut exec_time,
            &mut sink,
            &mut metrics,
            CheckerMsg::End,
        );
    }
    // Dropping the sender unblocks the evaluator's drain.
    drop(tx);
    let states_sent = run.states_count;
    sink.close_with(run_span, |a| {
        a.push(("states_sent", AttrValue::U64(states_sent as u64)));
    });
    DriverOutcome {
        exec_time,
        stall_time,
        eval_time: run.eval_time,
        states_sent,
        transport: executor.transport_stats(),
        sink,
        metrics,
    }
}

/// Where an evaluator stage is in its lifecycle.
#[derive(Clone, Copy, PartialEq, Eq)]
enum StagePhase {
    /// Consuming events.
    Running,
    /// Concluded; discarding the speculative tail until the driver
    /// disconnects.
    Draining,
    /// Tail discarded, driver gone; the outcome is final.
    Done,
}

/// What one [`EvalStage::poll`] call achieved (drives the multiplex
/// scheduler's sleep decision).
enum StagePoll {
    /// Consumed at least one event (or finished draining).
    Progress,
    /// Channel empty — the executor side is the bottleneck right now.
    Idle,
    /// The stage is complete; retire it.
    Done,
}

/// The evaluator stage of one pipelined run: the full [`Run`] plus the
/// receiving end of the state stream. Replays the sequential engine's
/// control flow event by event.
struct EvalStage<'a> {
    run: Run<'a>,
    rx: Receiver<StageEvent>,
    shared: Arc<PipeShared>,
    phase: StagePhase,
    outcome: Option<Result<RunOutcome, CheckError>>,
    /// Time starved on an empty channel — the executor was the
    /// bottleneck. Exact in blocking mode; in poll mode, idle gaps
    /// between polls.
    stall_time: Duration,
    idle_since: Option<Instant>,
}

impl<'a> EvalStage<'a> {
    fn new(run: Run<'a>, rx: Receiver<StageEvent>, shared: Arc<PipeShared>) -> Self {
        EvalStage {
            run,
            rx,
            shared,
            phase: StagePhase::Running,
            outcome: None,
            stall_time: Duration::ZERO,
            idle_since: None,
        }
    }

    /// Replays one stage event with exactly the sequential
    /// `Session::drive` semantics. Returns the conclusion, if this event
    /// produced one.
    fn apply(&mut self, event: StageEvent) -> Option<Result<RunOutcome, CheckError>> {
        match event {
            StageEvent::Started(replies) => {
                for msg in replies.iter() {
                    if let Err(e) = self.run.ingest(msg, None) {
                        return Some(Err(e));
                    }
                    if self.run.definitive().is_some() {
                        // Sequential: remaining Start replies are never
                        // ingested.
                        return Some(Ok(self.run.finish(true)));
                    }
                }
                None
            }
            StageEvent::Waited(replies) => {
                for msg in replies.iter() {
                    if let Err(e) = self.run.ingest(msg, None) {
                        return Some(Err(e));
                    }
                }
                if self.run.definitive().is_some() {
                    return Some(Ok(self.run.finish(true)));
                }
                None
            }
            StageEvent::Acted { action, replies } => {
                let accepted = replies.iter().any(ExecutorMsg::is_acted);
                if accepted {
                    // Reconstruct the choice the driver made — same
                    // choice-time fingerprint, because the coverage here
                    // has seen exactly the states the driver's had when it
                    // chose.
                    self.run.note_chosen(&action);
                    self.run.note_accepted(action.clone());
                }
                let mut acted_seen = false;
                for msg in replies.iter() {
                    let tag = if msg.is_acted() && !acted_seen {
                        acted_seen = true;
                        Some(&action)
                    } else {
                        None
                    };
                    if let Err(e) = self.run.ingest(msg, tag) {
                        return Some(Err(e));
                    }
                    if self.run.definitive().is_some() {
                        break;
                    }
                }
                if accepted {
                    // After the batch, even when a definitive verdict cut
                    // it short — the sequential engine does the same.
                    self.run.note_effect();
                }
                if self.run.definitive().is_some() {
                    return Some(Ok(self.run.finish(true)));
                }
                None
            }
            StageEvent::Finished => Some(Ok(self.run.finish(true))),
            StageEvent::Failed(e) => Some(Err(e)),
        }
    }

    fn step(&mut self, event: StageEvent) {
        let conclusion = self.apply(event).or_else(|| {
            // The sequential loop's natural stop, evaluated at the same
            // decision point it uses: after a fully ingested batch with
            // no pending wait. The driver speculates past the budget
            // boundary (it cannot answer `demands_more`), so the
            // canonical run ends *here* and everything the driver did
            // beyond this history is a discardable tail. The hard-cap arm
            // matters only when the evaluator reaches the cap before the
            // driver's own `Finished` event arrives.
            (self.run.pending_wait.is_none()
                && ((self.run.budget_spent() && !self.run.demands_more())
                    || self.run.at_hard_cap()))
            .then(|| Ok(self.run.finish(true)))
        });
        if let Some(outcome) = conclusion {
            self.outcome = Some(outcome);
            self.phase = StagePhase::Draining;
            // Cancel the driver wherever it is — mid-loop or blocked on a
            // full channel (the drain frees that one).
            self.shared.request_stop();
        }
    }

    fn fail_disconnected(&mut self) {
        // Only reachable when the driver died without a terminal event —
        // i.e. it panicked; the scheduler re-raises the payload on join.
        self.outcome = Some(Err(CheckError::new(
            "pipelined driver stage exited without concluding the run",
        )));
        self.phase = StagePhase::Done;
        self.shared.request_stop();
    }

    /// Non-blocking progress — the multiplex scheduler's entry point.
    /// Consumes every event currently buffered.
    fn poll(&mut self) -> StagePoll {
        loop {
            match self.phase {
                StagePhase::Done => return StagePoll::Done,
                StagePhase::Draining => match self.rx.try_recv() {
                    Ok(_) => continue, // discard the speculative tail
                    Err(TryRecvError::Empty) => return self.idle(),
                    Err(TryRecvError::Disconnected) => {
                        self.note_progress();
                        self.phase = StagePhase::Done;
                        return StagePoll::Done;
                    }
                },
                StagePhase::Running => match self.rx.try_recv() {
                    Ok(event) => {
                        self.note_progress();
                        self.step(event);
                        if self.phase == StagePhase::Running {
                            return StagePoll::Progress;
                        }
                        continue; // concluded: start draining immediately
                    }
                    Err(TryRecvError::Empty) => return self.idle(),
                    Err(TryRecvError::Disconnected) => {
                        self.fail_disconnected();
                        return StagePoll::Done;
                    }
                },
            }
        }
    }

    fn idle(&mut self) -> StagePoll {
        if self.idle_since.is_none() {
            self.idle_since = Some(Instant::now());
        }
        StagePoll::Idle
    }

    fn note_progress(&mut self) {
        if let Some(started) = self.idle_since.take() {
            let elapsed = started.elapsed();
            self.stall_time += elapsed;
            self.run.metrics.evaluator_stall(elapsed);
        }
    }

    /// Blocking drive to completion — the one-session-per-worker path.
    fn run_to_completion(&mut self) {
        loop {
            match self.phase {
                StagePhase::Done => return,
                StagePhase::Draining => {
                    // Discard the speculative tail until the driver drops
                    // its sender (it exits at its next stop-flag check).
                    while self.rx.recv().is_ok() {}
                    self.phase = StagePhase::Done;
                    return;
                }
                StagePhase::Running => {
                    let event = match self.rx.try_recv() {
                        Ok(event) => event,
                        Err(TryRecvError::Empty) => {
                            let started = Instant::now();
                            match self.rx.recv() {
                                Ok(event) => {
                                    let elapsed = started.elapsed();
                                    self.stall_time += elapsed;
                                    self.run.metrics.evaluator_stall(elapsed);
                                    event
                                }
                                Err(_) => {
                                    self.fail_disconnected();
                                    return;
                                }
                            }
                        }
                        Err(TryRecvError::Disconnected) => {
                            self.fail_disconnected();
                            return;
                        }
                    };
                    self.step(event);
                }
            }
        }
    }
}

/// Assembles the [`ExecutedRun`] from a concluded evaluator stage and its
/// joined driver.
fn finalize_run(
    mut stage: EvalStage<'_>,
    driver: DriverOutcome,
    options: &CheckOptions,
    replayed: bool,
) -> Result<ExecutedRun, CheckError> {
    let outcome = stage
        .outcome
        .take()
        .expect("evaluator stage concluded before retirement")?;
    let result = match outcome {
        RunOutcome::Result(result) => result,
        RunOutcome::ScriptInvalid => {
            unreachable!("random runs never report script invalidity")
        }
    };
    let run = &mut stage.run;
    let timings = PhaseTimings {
        executor_s: driver.exec_time.as_secs_f64(),
        // Guard evaluation happens driver-side, progression
        // evaluator-side; both are spec evaluation. The two stages overlap
        // in wall time, so executor_s + eval_s no longer bounds wall.
        eval_s: (run.eval_time + driver.eval_time).as_secs_f64(),
        atoms_total: run.atoms_total,
        atoms_reevaluated: run.atoms_reevaluated,
        atom_memo_hits: run.atom_memo_hits,
        atom_memo_misses: run.atom_memo_misses,
        atom_memo_evictions: run.atom_memo_evictions,
        ltl_states: run.ltl_states(),
        ltl_table_hits: run.ltl_table_hits,
        step_memo_hits: run.step_memo_hits,
        pipeline_depth: options.pipeline_depth.max(1) as u64,
        executor_stall_s: driver.stall_time.as_secs_f64(),
        evaluator_stall_s: stage.stall_time.as_secs_f64(),
        speculative_states_discarded: driver.states_sent.saturating_sub(run.states_count) as u64,
    };
    // Truncation marker on the evaluator track: how much speculative work
    // the driver did past the canonical stop point.
    let discarded = timings.speculative_states_discarded;
    if discarded > 0 {
        run.sink.instant(SpanKind::Truncated, |a| {
            a.push(("speculative_states", AttrValue::U64(discarded)));
        });
    }
    // Collect both stages' observability artifacts: driver track first,
    // then the evaluator's, then both metric registries merged.
    let mut obs = RunObs::default();
    let driver_sink = driver.sink;
    if let Some(track) = driver_sink.finish() {
        obs.tracks.push(track);
    }
    let eval_sink = std::mem::replace(&mut run.sink, TraceSink::disabled());
    if let Some(track) = eval_sink.finish() {
        obs.tracks.push(track);
    }
    obs.metrics = driver.metrics.into_registry();
    let eval_metrics = std::mem::replace(&mut run.metrics, MetricsRecorder::disabled());
    obs.metrics.merge(&eval_metrics.into_registry());
    Ok(ExecutedRun {
        states: run.trace.len(),
        actions: run.actions_done,
        result,
        timings,
        transport: driver.transport,
        script: std::mem::take(&mut run.script),
        coverage: std::mem::take(&mut run.coverage),
        replayed,
        obs,
    })
}

/// Executes one pipelined run to completion: the driver stage on a scoped
/// thread, the evaluator stage on the calling thread.
#[allow(clippy::too_many_arguments)] // internal: mirrors run_one's surface
pub(crate) fn run_one_pipelined(
    spec: &CompiledSpec,
    check: &CheckDef,
    property_name: &str,
    property: &Thunk,
    options: &CheckOptions,
    make_executor: MakeExecutor<'_>,
    index: usize,
    prefix: Option<&[ActionInstance]>,
    obs: &CheckCtx,
) -> Result<ExecutedRun, CheckError> {
    let shared = Arc::new(PipeShared::new());
    let (tx, rx) = mpsc::sync_channel(options.pipeline_depth.max(1));
    let mut stage = EvalStage::new(
        Run::new(spec, check, property_name, property, options, obs.role).with_obs(
            obs.sink(2 * index as u64 + 1, || format!("run {index} · evaluator")),
            obs.recorder(),
        ),
        rx,
        Arc::clone(&shared),
    );
    let driver = thread::scope(|scope| {
        let handle = {
            let shared = Arc::clone(&shared);
            scope.spawn(move || {
                drive_stage(
                    spec,
                    check,
                    property_name,
                    property,
                    options,
                    make_executor,
                    index,
                    prefix.unwrap_or(&[]),
                    &shared,
                    tx,
                    obs,
                )
            })
        };
        stage.run_to_completion();
        match handle.join() {
            Ok(outcome) => outcome,
            Err(payload) => panic::resume_unwind(payload),
        }
    });
    finalize_run(stage, driver, options, prefix.is_some())
}

/// One in-flight multiplexed session: the evaluator stage polled by the
/// worker, plus the driver thread to join at retirement.
struct InFlight<'env, 'scope> {
    slot: usize,
    stage: EvalStage<'env>,
    driver: thread::ScopedJoinHandle<'scope, DriverOutcome>,
}

/// Runs `count` pipelined sessions (absolute run indices `base + k`) with
/// up to [`CheckOptions::multiplex`] in-flight sessions per worker across
/// [`CheckOptions::jobs`] workers. Results return in slot order; a slot is
/// `None` only when `cancel` allowed it to be skipped (strictly after the
/// earliest recorded stop, so the canonical merge is unaffected).
///
/// Determinism: run seeds depend only on the absolute index, `prefixes`
/// are fixed before the batch starts, and results retire into their slots
/// — scheduling never leaks into the report.
#[allow(clippy::too_many_arguments)] // internal: mirrors run_one's surface
pub(crate) fn run_batch_pipelined<'env>(
    spec: &'env CompiledSpec,
    check: &'env CheckDef,
    property_name: &'env str,
    property: &'env Thunk,
    options: &'env CheckOptions,
    make_executor: MakeExecutor<'env>,
    base: usize,
    count: usize,
    prefixes: Option<&'env [Option<Vec<ActionInstance>>]>,
    cancel: Option<&'env Cancellation>,
    obs: &'env CheckCtx,
) -> Vec<Option<Result<ExecutedRun, CheckError>>> {
    if count == 0 {
        return Vec::new();
    }
    let multiplex = options.multiplex.max(1);
    let workers = options.jobs.max(1).min(count.div_ceil(multiplex)).max(1);
    let next = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let panic_payload: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);
    let (results_tx, results_rx) = mpsc::channel();
    let slots = thread::scope(|scope| {
        for _ in 0..workers {
            let results_tx = results_tx.clone();
            let next = &next;
            let stop = &stop;
            let panic_payload = &panic_payload;
            scope.spawn(move || {
                let body = || {
                    let mut active: Vec<InFlight<'env, '_>> = Vec::new();
                    loop {
                        if stop.load(Ordering::SeqCst) {
                            break;
                        }
                        // Top up the in-flight set.
                        while active.len() < multiplex {
                            let slot = next.fetch_add(1, Ordering::Relaxed);
                            if slot >= count {
                                break;
                            }
                            if cancel.is_some_and(|c| c.should_skip(base + slot)) {
                                let _ = results_tx.send((slot, None));
                                continue;
                            }
                            let prefix = prefixes.and_then(|p| p[slot].as_deref()).unwrap_or(&[]);
                            let replayed =
                                !prefix.is_empty() || prefixes.is_some_and(|p| p[slot].is_some());
                            let shared = Arc::new(PipeShared::new());
                            let (tx, rx) = mpsc::sync_channel(options.pipeline_depth.max(1));
                            let run_index = base + slot;
                            let stage = EvalStage::new(
                                Run::new(spec, check, property_name, property, options, obs.role)
                                    .with_obs(
                                        obs.sink(2 * run_index as u64 + 1, || {
                                            format!("run {run_index} · evaluator")
                                        }),
                                        obs.recorder(),
                                    ),
                                rx,
                                Arc::clone(&shared),
                            );
                            let driver = {
                                let shared = Arc::clone(&shared);
                                scope.spawn(move || {
                                    drive_stage(
                                        spec,
                                        check,
                                        property_name,
                                        property,
                                        options,
                                        make_executor,
                                        base + slot,
                                        prefix,
                                        &shared,
                                        tx,
                                        obs,
                                    )
                                })
                            };
                            active.push(InFlight {
                                slot,
                                stage,
                                driver,
                            });
                            let _ = replayed; // recorded at retirement below
                        }
                        if active.is_empty() {
                            break;
                        }
                        let mut progress = false;
                        let mut i = 0;
                        while i < active.len() {
                            match active[i].stage.poll() {
                                StagePoll::Progress => {
                                    progress = true;
                                    i += 1;
                                }
                                StagePoll::Idle => {
                                    i += 1;
                                }
                                StagePoll::Done => {
                                    progress = true;
                                    let session = active.swap_remove(i);
                                    let slot = session.slot;
                                    let driver = match session.driver.join() {
                                        Ok(outcome) => outcome,
                                        Err(payload) => panic::resume_unwind(payload),
                                    };
                                    let replayed = prefixes.is_some_and(|p| p[slot].is_some());
                                    let outcome =
                                        finalize_run(session.stage, driver, options, replayed);
                                    if let Some(cancel) = cancel {
                                        let stops = match &outcome {
                                            Ok(run) => run.result.is_failure(),
                                            Err(_) => true,
                                        };
                                        if stops {
                                            cancel.note_stop(base + slot);
                                        }
                                    }
                                    let _ = results_tx.send((slot, Some(outcome)));
                                }
                            }
                        }
                        if !progress {
                            thread::sleep(IDLE_POLL);
                        }
                    }
                };
                // On panic: record the payload, signal siblings, and let
                // the in-flight sessions unwind (dropping an EvalStage
                // closes its channel, so its driver thread winds down and
                // is joined at scope exit).
                if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(body)) {
                    stop.store(true, Ordering::SeqCst);
                    panic_payload
                        .lock()
                        .expect("payload lock")
                        .get_or_insert(payload);
                }
            });
        }
        drop(results_tx);
        let mut slots: Vec<Option<Option<Result<ExecutedRun, CheckError>>>> =
            (0..count).map(|_| None).collect();
        for (slot, value) in results_rx {
            slots[slot] = Some(value);
        }
        slots
    });
    if let Some(payload) = panic_payload.into_inner().expect("payload lock") {
        panic::resume_unwind(payload);
    }
    slots
        .into_iter()
        .map(|slot| slot.expect("every slot retired"))
        .collect()
}
