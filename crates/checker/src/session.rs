//! One checker⟷executor session: the I/O half of a test run.
//!
//! A [`Session`] owns a fresh executor and a [`Run`], and drives the
//! protocol loop of §3.4 against it: send `Start`, ingest the `loaded?`
//! event, then alternate between picking actions (or honouring pending
//! `Wait`s) and feeding the executor's replies back into the formula,
//! until a definitive verdict arrives or the action source dries up.
//!
//! Sessions are single-threaded and self-contained — the parallel runtime
//! in [`crate::runner`] simply constructs one `Session` per worker.

use crate::options::CheckOptions;
use crate::report::PhaseTimings;
use crate::run::{ActionSource, Role, Run, RunOutcome};
use crate::runner::CheckError;
use quickstrom_explore::RunCoverage;
use quickstrom_obs::{AttrValue, MetricsRecorder, SpanKind, TraceSink, TrackLog};
use quickstrom_protocol::{ActionInstance, CheckerMsg, Executor, ExecutorMsg, TransportStats};
use specstrom::{CheckDef, CompiledSpec, Thunk};

/// A [`Run`] coupled with the executor session that feeds it.
pub(crate) struct Session<'a> {
    run: Run<'a>,
    executor: Box<dyn Executor>,
    /// Wall-clock time spent inside `Executor::send` (the per-phase
    /// attribution behind [`PhaseTimings::executor_s`]).
    exec_time: std::time::Duration,
}

impl<'a> Session<'a> {
    /// Opens a session: a fresh `Run` in `role` against a fresh executor.
    /// `property_name` keys the property's shared evaluation cache;
    /// `property` is the thunk the formula progression starts from.
    pub(crate) fn new(
        spec: &'a CompiledSpec,
        check: &'a CheckDef,
        property_name: &str,
        property: &Thunk,
        options: &'a CheckOptions,
        role: Role,
        executor: Box<dyn Executor>,
    ) -> Self {
        Session {
            run: Run::new(spec, check, property_name, property, options, role),
            executor,
            exec_time: std::time::Duration::ZERO,
        }
    }

    /// Attaches an observability sink and metrics recorder to the session's
    /// run (both disabled by default; spans and samples never branch
    /// control flow).
    pub(crate) fn with_obs(mut self, sink: TraceSink, metrics: MetricsRecorder) -> Self {
        self.run = self.run.with_obs(sink, metrics);
        self
    }

    /// Takes the session's trace track (if tracing was enabled) and
    /// metrics registry; only called once the run has concluded.
    pub(crate) fn take_obs(&mut self) -> (Option<TrackLog>, quickstrom_obs::MetricsRegistry) {
        let sink = std::mem::replace(&mut self.run.sink, TraceSink::disabled());
        let metrics = std::mem::replace(&mut self.run.metrics, MetricsRecorder::disabled());
        (sink.finish(), metrics.into_registry())
    }

    /// Sends one message, attributing the wall time to the executor phase.
    fn send(&mut self, msg: CheckerMsg) -> Vec<ExecutorMsg> {
        let span = self.run.sink.open(SpanKind::Send);
        let started = std::time::Instant::now();
        let replies = self.executor.send(msg);
        let elapsed = started.elapsed();
        self.exec_time += elapsed;
        self.run.metrics.send_latency(elapsed);
        self.run.sink.close_with(span, |a| {
            a.push(("replies", AttrValue::U64(replies.len() as u64)));
        });
        replies
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
            // The sequential engine has no pipeline: no depth, no stalls,
            // no speculation to truncate.
            pipeline_depth: 0,
            executor_stall_s: 0.0,
            evaluator_stall_s: 0.0,
            speculative_states_discarded: 0,
        }
    }

    /// The snapshot-transport accounting of this session's executor.
    pub(crate) fn transport(&self) -> TransportStats {
        self.executor.transport_stats()
    }

    /// States observed so far (trace length).
    pub(crate) fn states(&self) -> usize {
        self.run.trace.len()
    }

    /// Actions accepted so far.
    pub(crate) fn actions(&self) -> usize {
        self.run.actions_done
    }

    /// Takes the run's accepted action script (the corpus harvests
    /// replay prefixes from it). Only called once the run has concluded
    /// and its result — including any counterexample, which clones the
    /// script — has been extracted.
    pub(crate) fn take_script(&mut self) -> Vec<ActionInstance> {
        std::mem::take(&mut self.run.script)
    }

    /// Takes the run's coverage observations (leaving fresh, empty
    /// coverage behind — only called once the run has concluded).
    pub(crate) fn take_coverage(&mut self) -> RunCoverage {
        std::mem::take(&mut self.run.coverage)
    }

    /// Executes the run to completion against the owned executor,
    /// wrapping the whole session in a `run` span when tracing is on.
    pub(crate) fn drive(
        &mut self,
        source: &mut ActionSource<'_>,
    ) -> Result<RunOutcome, CheckError> {
        let span = self.run.sink.open(SpanKind::Run);
        let result = self.drive_inner(source);
        let states = self.run.trace.len() as u64;
        let actions = self.run.actions_done as u64;
        self.run.sink.close_with(span, |a| {
            a.push(("states", AttrValue::U64(states)));
            a.push(("actions", AttrValue::U64(actions)));
        });
        result
    }

    fn drive_inner(&mut self, source: &mut ActionSource<'_>) -> Result<RunOutcome, CheckError> {
        let start = CheckerMsg::Start {
            dependencies: self.run.spec.dependencies.clone(),
        };
        let replies = self.send(start);
        if replies.is_empty() {
            return Err(CheckError::new(
                "executor sent nothing in response to Start (expected the \
                 loaded? event)",
            ));
        }
        let allow_forced = matches!(source, ActionSource::Random { .. });
        for msg in &replies {
            self.run.ingest(msg, None)?;
            if self.run.definitive().is_some() {
                self.send(CheckerMsg::End);
                return Ok(self.run.finish(allow_forced));
            }
        }
        loop {
            // Event-associated timeouts first (§3.4, Wait).
            if let Some(t) = self.run.pending_wait.take() {
                let version = self.run.version();
                let replies = self.send(CheckerMsg::Wait {
                    time_ms: t,
                    version,
                });
                for msg in &replies {
                    self.run.ingest(msg, None)?;
                }
                if self.run.definitive().is_some() {
                    break;
                }
                continue;
            }
            let Some(action) = self.run.next_action(source)? else {
                break;
            };
            if matches!(source, ActionSource::Script { .. })
                && !self.run.script_action_valid(&action)?
            {
                self.send(CheckerMsg::End);
                return Ok(RunOutcome::ScriptInvalid);
            }
            let version = self.run.version();
            let replies = self.send(CheckerMsg::Act {
                action: action.clone(),
                version,
            });
            let accepted = replies.iter().any(ExecutorMsg::is_acted);
            if accepted {
                // Script bookkeeping happens *before* ingesting the
                // replies, so the states the action produced see a trace
                // position that includes it — the corpus harvests replay
                // prefixes from exactly these positions.
                self.run.note_accepted(action.clone());
            }
            let mut acted_seen = false;
            for msg in &replies {
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
                // Coverage bookkeeping happens *after*: productivity is
                // the post-action fingerprint differing from the
                // choice-time one.
                self.run.note_effect();
            } else if replies.is_empty() {
                // Neither acted nor any pending event: protocol violation.
                return Err(CheckError::new(
                    "executor ignored an up-to-date Act without sending events",
                ));
            }
            if self.run.definitive().is_some() {
                break;
            }
        }
        self.send(CheckerMsg::End);
        Ok(self.run.finish(allow_forced))
    }
}
