//! Multiplexed sessions: up to [`CheckOptions::multiplex`] resumable
//! [`Session`]s in flight on each worker thread.
//!
//! A session spends most of a slow executor's round trip waiting, so a
//! worker keeps several of them in flight and steps whichever has replies.
//! Each session's executor is built on, and driven by, a thread of its own
//! that does nothing but call the blocking [`Executor::send`] and post the
//! replies back; executors need not be `Send`, and the evaluation of every
//! session stays on its worker. The worker polls its sessions' reply
//! channels and sleeps [`IDLE_POLL`] when none has replies.
//!
//! Runs retire into index-ordered slots under the batch's
//! [`Cancellation`], so reports do not depend on the width, the worker
//! count or the order in which runs finish. An executor that panics posts
//! its payload instead of replies; the check stops and re-raises it.
//!
//! [`CheckOptions::multiplex`]: crate::CheckOptions::multiplex
//! [`Executor::send`]: quickstrom_protocol::Executor::send

use crate::pool::Cancellation;
use crate::runner::{stops, CheckError, ExecutedRun, MakeExecutor, PropertyCheck};
use crate::session::{Session, Step};
use quickstrom_obs::SpanToken;
use quickstrom_protocol::{ActionInstance, CheckerMsg, ExecutorMsg, TransportStats};
use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender, TryRecvError};
use std::sync::Mutex;
use std::thread::{self, Scope};
use std::time::{Duration, Instant};

/// How long a worker whose sessions all await replies sleeps before
/// polling them again.
const IDLE_POLL: Duration = Duration::from_micros(20);

/// What an executor thread posts back to its session.
enum Reply {
    /// The replies to one message, the time spent inside `send`, and —
    /// after `End` — the executor's transport accounting.
    Batch {
        replies: Vec<ExecutorMsg>,
        elapsed: Duration,
        transport: Option<TransportStats>,
    },
    /// Building the executor or a `send` panicked with this payload.
    Panicked(Box<dyn Any + Send>),
}

/// One session in flight, with the channels to its executor thread.
struct InFlight<'s> {
    slot: usize,
    replayed: bool,
    session: Session<'s>,
    requests: Sender<CheckerMsg>,
    replies: Receiver<Reply>,
    /// The `send` span of the message awaiting replies.
    send_span: Option<SpanToken>,
}

impl InFlight<'_> {
    /// Dispatches `msg` to the executor thread. If the thread is gone it
    /// panicked, and its payload is already waiting in `replies`.
    fn send(&mut self, msg: CheckerMsg) {
        self.send_span = Some(self.session.open_send());
        let _ = self.requests.send(msg);
    }
}

/// The shared state of one batch's workers.
struct Batch<'s> {
    prop: &'s PropertyCheck<'s>,
    base: usize,
    count: usize,
    prefixes: Option<&'s [Option<Vec<ActionInstance>>]>,
    cancel: Option<&'s Cancellation>,
    /// The next slot to start.
    next: AtomicUsize,
    /// A worker panicked: every worker stops starting and stepping runs.
    stop: AtomicBool,
}

/// Runs the random runs `base..base + count` with up to `multiplex`
/// sessions in flight on each of up to `jobs` workers. Results come back
/// in slot order; a slot is `None` only when `cancel` skipped it.
pub(crate) fn run_batch<'s>(
    prop: &'s PropertyCheck<'s>,
    base: usize,
    count: usize,
    prefixes: Option<&'s [Option<Vec<ActionInstance>>]>,
    cancel: Option<&'s Cancellation>,
) -> Vec<Option<Result<ExecutedRun, CheckError>>> {
    let multiplex = prop.options.multiplex.max(1);
    let workers = prop.options.jobs.max(1).min(count.div_ceil(multiplex));
    let batch = Batch {
        prop,
        base,
        count,
        prefixes,
        cancel,
        next: AtomicUsize::new(0),
        stop: AtomicBool::new(false),
    };
    let panic_payload: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
    let mut slots: Vec<Option<Result<ExecutedRun, CheckError>>> =
        (0..count).map(|_| None).collect();
    thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let (batch, panic_payload) = (&batch, &panic_payload);
                scope.spawn(move || {
                    let mut retired = Vec::new();
                    let worked =
                        panic::catch_unwind(AssertUnwindSafe(|| batch.work(scope, &mut retired)));
                    if let Err(payload) = worked {
                        batch.stop.store(true, Ordering::SeqCst);
                        panic_payload
                            .lock()
                            .expect("payload lock")
                            .get_or_insert(payload);
                    }
                    retired
                })
            })
            .collect();
        for handle in handles {
            for (slot, outcome) in handle.join().expect("workers catch their panics") {
                slots[slot] = Some(outcome);
            }
        }
    });
    if let Some(payload) = panic_payload.into_inner().expect("payload lock") {
        panic::resume_unwind(payload);
    }
    slots
}

impl<'s> Batch<'s> {
    /// One worker: keeps up to `multiplex` sessions in flight until the
    /// batch runs out of slots, pushing each retired run to `retired`.
    fn work<'scope>(
        &'s self,
        scope: &'scope Scope<'scope, '_>,
        retired: &mut Vec<(usize, Result<ExecutedRun, CheckError>)>,
    ) where
        's: 'scope,
    {
        let multiplex = self.prop.options.multiplex.max(1);
        let mut active: Vec<InFlight<'s>> = Vec::with_capacity(multiplex);
        loop {
            if self.stop.load(Ordering::SeqCst) {
                return;
            }
            while active.len() < multiplex {
                let slot = self.next.fetch_add(1, Ordering::Relaxed);
                if slot >= self.count {
                    break;
                }
                if !self.cancel.is_some_and(|c| c.should_skip(self.base + slot)) {
                    active.push(self.launch(scope, slot));
                }
            }
            if active.is_empty() {
                return;
            }
            let mut progress = false;
            let mut i = 0;
            while i < active.len() {
                let flight = &mut active[i];
                let (replies, elapsed, transport) = match flight.replies.try_recv() {
                    Ok(Reply::Batch {
                        replies,
                        elapsed,
                        transport,
                    }) => (replies, elapsed, transport),
                    Ok(Reply::Panicked(payload)) => panic::resume_unwind(payload),
                    Err(TryRecvError::Empty) => {
                        i += 1;
                        continue;
                    }
                    Err(TryRecvError::Disconnected) => {
                        unreachable!("executor threads reply until their session ends")
                    }
                };
                progress = true;
                let span = flight.send_span.take().expect("a message in flight");
                flight.session.close_send(span, elapsed, replies.len());
                match flight.session.resume(&replies) {
                    Step::Send(msg) => {
                        flight.send(msg);
                        i += 1;
                    }
                    Step::Done(outcome) => {
                        let flight = active.swap_remove(i);
                        let outcome = outcome.map(|outcome| {
                            let transport = transport.unwrap_or_default();
                            flight.session.retire(outcome, transport, flight.replayed)
                        });
                        if stops(&outcome) {
                            if let Some(cancel) = self.cancel {
                                cancel.note_stop(self.base + flight.slot);
                            }
                        }
                        retired.push((flight.slot, outcome));
                    }
                }
            }
            if !progress {
                thread::sleep(IDLE_POLL);
            }
        }
    }

    /// Opens the session of `slot`, spawns its executor thread and sends
    /// `Start`.
    fn launch<'scope>(&'s self, scope: &'scope Scope<'scope, '_>, slot: usize) -> InFlight<'s>
    where
        's: 'scope,
    {
        let prefix = self.prefixes.and_then(|p| p[slot].as_deref());
        let (requests, inbox) = mpsc::channel();
        let (outbox, replies) = mpsc::channel();
        let make_executor = self.prop.make_executor;
        scope.spawn(move || serve(make_executor, &inbox, &outbox));
        let mut session = self.prop.session(self.base + slot, prefix);
        let start = session.begin();
        let mut flight = InFlight {
            slot,
            replayed: prefix.is_some(),
            session,
            requests,
            replies,
            send_span: None,
        };
        flight.send(start);
        flight
    }
}

/// An executor thread: builds the session's executor and answers each
/// request until `End`, or until the session is dropped. A panic is
/// posted as the reply, so the thread itself never panics.
fn serve(make_executor: MakeExecutor<'_>, inbox: &Receiver<CheckerMsg>, outbox: &Sender<Reply>) {
    let served = panic::catch_unwind(AssertUnwindSafe(|| {
        let mut executor = make_executor();
        while let Ok(msg) = inbox.recv() {
            let end = matches!(msg, CheckerMsg::End);
            let started = Instant::now();
            let replies = executor.send(msg);
            let elapsed = started.elapsed();
            let transport = end.then(|| executor.transport_stats());
            let batch = Reply::Batch {
                replies,
                elapsed,
                transport,
            };
            if outbox.send(batch).is_err() || end {
                return;
            }
        }
    }));
    if let Err(payload) = served {
        let _ = outbox.send(Reply::Panicked(payload));
    }
}
