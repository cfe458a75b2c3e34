//! One checker⟷executor session: the protocol loop of §3.4 as a
//! resumable state machine.
//!
//! A [`Session`] owns a [`Run`] and the run's [`ActionSource`], but no
//! executor. [`Session::begin`] returns the `Start` message; every
//! [`Session::resume`] takes the executor's replies to the last message
//! and returns the next message to send — a pending event timeout's
//! `Wait` first, then the next `Act`, and `End` once a definitive verdict
//! arrives or the action source dries up — or, after `End`, the run's
//! outcome. Protocol violations and evaluation errors end the session at
//! once, without an `End`.
//!
//! Two drivers feed it. [`drive`] sends inline through a blocking
//! [`Executor::send`]: every `multiplex = 1` run and every shrink replay.
//! [`crate::multiplex`] keeps several sessions in flight on one worker
//! thread, each executor on a thread of its own.

use crate::options::CheckOptions;
use crate::report::PhaseTimings;
use crate::run::{ActionSource, Role, Run, RunOutcome};
use crate::runner::{CheckError, ExecutedRun, RunObs};
use quickstrom_obs::{AttrValue, MetricsRecorder, SpanKind, SpanToken, TraceSink};
use quickstrom_protocol::{ActionInstance, CheckerMsg, Executor, ExecutorMsg, TransportStats};
use specstrom::{CheckDef, CompiledSpec, Thunk};
use std::time::{Duration, Instant};

/// What [`Session::resume`] asks of its driver.
pub(crate) enum Step {
    /// Send this message and resume with its replies.
    Send(CheckerMsg),
    /// The run is over: its outcome, or the error that ended it.
    Done(Result<RunOutcome, CheckError>),
}

/// The message the session last sent, which the next replies answer.
enum Awaiting {
    Start,
    Wait,
    Act(ActionInstance),
    /// The run concluded with this outcome; its `End` is in flight.
    End(RunOutcome),
    /// The session returned [`Step::Done`].
    Nothing,
}

/// A [`Run`] and its action source, stepped one executor reply batch at a
/// time.
pub(crate) struct Session<'a> {
    run: Run<'a>,
    source: ActionSource<'a>,
    awaiting: Awaiting,
    /// The `run` span, open from `begin` until the session is done.
    run_span: Option<SpanToken>,
    /// Wall-clock time spent inside `Executor::send` (the per-phase
    /// attribution behind [`PhaseTimings::executor_s`]).
    exec_time: Duration,
}

impl<'a> Session<'a> {
    /// Opens a session: a fresh `Run` in `role` taking its actions from
    /// `source`. `property_name` keys the property's shared evaluation
    /// cache; `property` is the thunk the formula progression starts from.
    pub(crate) fn new(
        spec: &'a CompiledSpec,
        check: &'a CheckDef,
        property_name: &str,
        property: &Thunk,
        options: &'a CheckOptions,
        role: Role,
        source: ActionSource<'a>,
    ) -> Self {
        Session {
            run: Run::new(spec, check, property_name, property, options, role),
            source,
            awaiting: Awaiting::Start,
            run_span: None,
            exec_time: Duration::ZERO,
        }
    }

    /// Attaches an observability sink and metrics recorder to the session's
    /// run (both disabled by default; spans and samples never branch
    /// control flow).
    pub(crate) fn with_obs(mut self, sink: TraceSink, metrics: MetricsRecorder) -> Self {
        self.run = self.run.with_obs(sink, metrics);
        self
    }

    /// Starts the session: the `Start` message to send first.
    pub(crate) fn begin(&mut self) -> CheckerMsg {
        self.run_span = Some(self.run.sink.open(SpanKind::Run));
        CheckerMsg::Start {
            dependencies: self.run.spec.dependencies.clone(),
        }
    }

    /// Opens the `send` span of a message about to go out.
    pub(crate) fn open_send(&mut self) -> SpanToken {
        self.run.sink.open(SpanKind::Send)
    }

    /// Closes a `send` span once its replies arrived, attributing the
    /// `elapsed` time inside `Executor::send` to the executor phase.
    pub(crate) fn close_send(&mut self, span: SpanToken, elapsed: Duration, replies: usize) {
        self.exec_time += elapsed;
        self.run.metrics.send_latency(elapsed);
        self.run.sink.close_with(span, |a| {
            a.push(("replies", AttrValue::U64(replies as u64)));
        });
    }

    /// Feeds the replies to the last message into the run and decides
    /// what comes next.
    pub(crate) fn resume(&mut self, replies: &[ExecutorMsg]) -> Step {
        let step = match std::mem::replace(&mut self.awaiting, Awaiting::Nothing) {
            Awaiting::End(outcome) => Step::Done(Ok(outcome)),
            Awaiting::Nothing => unreachable!("resumed a finished session"),
            awaiting => self
                .advance(awaiting, replies)
                .unwrap_or_else(|e| Step::Done(Err(e))),
        };
        if matches!(step, Step::Done(_)) {
            if let Some(span) = self.run_span.take() {
                let states = self.run.trace.len() as u64;
                let actions = self.run.actions_done as u64;
                self.run.sink.close_with(span, |a| {
                    a.push(("states", AttrValue::U64(states)));
                    a.push(("actions", AttrValue::U64(actions)));
                });
            }
        }
        step
    }

    fn advance(&mut self, awaiting: Awaiting, replies: &[ExecutorMsg]) -> Result<Step, CheckError> {
        match awaiting {
            Awaiting::Start => {
                if replies.is_empty() {
                    return Err(CheckError::new(
                        "executor sent nothing in response to Start (expected the \
                         loaded? event)",
                    ));
                }
                // Replies after a definitive one are never ingested.
                for msg in replies {
                    self.run.ingest(msg, None)?;
                    if self.run.definitive().is_some() {
                        break;
                    }
                }
            }
            Awaiting::Wait => {
                // An up-to-date `Wait` is answered by an event or a
                // timeout; an empty batch means the reply was lost.
                if replies.is_empty() {
                    return Err(CheckError::new(
                        "executor ignored an up-to-date Wait without sending events",
                    ));
                }
                // The whole batch, even past a definitive reply.
                for msg in replies {
                    self.run.ingest(msg, None)?;
                }
            }
            Awaiting::Act(action) => {
                let accepted = replies.iter().any(ExecutorMsg::is_acted);
                if accepted {
                    // Script bookkeeping happens *before* ingesting the
                    // replies, so the states the action produced see a
                    // trace position that includes it — the corpus
                    // harvests replay prefixes from exactly these
                    // positions.
                    self.run.note_accepted(action.clone());
                }
                let mut acted_seen = false;
                for msg in replies {
                    let tag = if msg.is_acted() && !acted_seen {
                        acted_seen = true;
                        Some(&action)
                    } else {
                        None
                    };
                    self.run.ingest(msg, tag)?;
                    if self.run.definitive().is_some() {
                        break;
                    }
                }
                if accepted {
                    // Coverage bookkeeping happens *after*: productivity
                    // is the post-action fingerprint differing from the
                    // choice-time one.
                    self.run.note_effect();
                } else if replies.is_empty() {
                    // Neither acted nor any pending event: the request
                    // was up to date, so its reply was lost.
                    return Err(CheckError::new(
                        "executor ignored an up-to-date Act without sending events",
                    ));
                }
            }
            Awaiting::End(_) | Awaiting::Nothing => unreachable!("handled by resume"),
        }
        if self.run.definitive().is_some() {
            return Ok(self.conclude());
        }
        // Event-associated timeouts first (§3.4, Wait).
        let version = self.run.version();
        if let Some(time_ms) = self.run.pending_wait.take() {
            self.awaiting = Awaiting::Wait;
            return Ok(Step::Send(CheckerMsg::Wait { time_ms, version }));
        }
        let Some(action) = self.run.next_action(&mut self.source)? else {
            return Ok(self.conclude());
        };
        if matches!(self.source, ActionSource::Script { .. })
            && !self.run.script_action_valid(&action)?
        {
            return Ok(self.end(RunOutcome::ScriptInvalid));
        }
        self.awaiting = Awaiting::Act(action.clone());
        Ok(Step::Send(CheckerMsg::Act { action, version }))
    }

    /// Concludes the run. Only random runs may fall back to the forced
    /// end-of-trace verdict (see [`Run::finish`]).
    fn conclude(&mut self) -> Step {
        let allow_forced = matches!(self.source, ActionSource::Random { .. });
        let outcome = self.run.finish(allow_forced);
        self.end(outcome)
    }

    fn end(&mut self, outcome: RunOutcome) -> Step {
        self.awaiting = Awaiting::End(outcome);
        Step::Send(CheckerMsg::End)
    }

    /// The per-phase wall-clock attribution of this session so far.
    pub(crate) fn timings(&self) -> PhaseTimings {
        PhaseTimings {
            executor_s: self.exec_time.as_secs_f64(),
            eval_s: self.run.eval_time.as_secs_f64(),
            atoms_total: self.run.atoms_total,
            atoms_reevaluated: self.run.atoms_reevaluated,
            atom_memo_hits: self.run.atom_memo_hits,
            atom_memo_misses: self.run.atom_memo_misses,
            atom_memo_evictions: self.run.atom_memo_evictions,
            ltl_states: self.run.ltl_states(),
            ltl_table_hits: self.run.ltl_table_hits,
            step_memo_hits: self.run.step_memo_hits,
        }
    }

    /// Packs a concluded random run into an [`ExecutedRun`]: its result,
    /// totals, script, coverage and observability artifacts.
    pub(crate) fn retire(
        mut self,
        outcome: RunOutcome,
        transport: TransportStats,
        replayed: bool,
    ) -> ExecutedRun {
        let RunOutcome::Result(result) = outcome else {
            unreachable!("random runs never report script invalidity")
        };
        let timings = self.timings();
        let sink = std::mem::replace(&mut self.run.sink, TraceSink::disabled());
        let metrics = std::mem::replace(&mut self.run.metrics, MetricsRecorder::disabled());
        ExecutedRun {
            states: self.run.trace.len(),
            actions: self.run.actions_done,
            result,
            timings,
            transport,
            script: std::mem::take(&mut self.run.script),
            coverage: std::mem::take(&mut self.run.coverage),
            replayed,
            obs: RunObs {
                tracks: sink.finish().into_iter().collect(),
                metrics: metrics.into_registry(),
            },
        }
    }
}

/// Drives `session` to completion inline, sending through `executor`.
pub(crate) fn drive(
    session: &mut Session<'_>,
    executor: &mut dyn Executor,
) -> Result<RunOutcome, CheckError> {
    let mut msg = session.begin();
    loop {
        let span = session.open_send();
        let started = Instant::now();
        let replies = executor.send(msg);
        session.close_send(span, started.elapsed(), replies.len());
        match session.resume(&replies) {
            Step::Send(next) => msg = next,
            Step::Done(outcome) => return outcome,
        }
    }
}
