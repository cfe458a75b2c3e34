//! Measurement at the `Executor` seam, from outside the program.
//!
//! The checker reaches the system under test only through the executor
//! factory it is given and the [`Executor`] trait, so every layer below it
//! can be timed by wrapping public items:
//!
//! ```text
//! Probe        one `step` span per send, as the checker sees it, and one
//!              `run` span per executor instance (its lifetime)
//!   Wire       the wire codec round trip (`wire` spans)
//!     Latency  the injected per-message delay (remote workload only)
//!       Busy   the executor's own work (`send` spans)
//!         WebExecutor
//! ```
//!
//! `build` spans time the constructor call inside the factory.
//!
//! Untraced repetitions keep only the step durations the end-to-end step
//! percentiles need. Traced repetitions record a span at every boundary;
//! layers of one executor instance share an [`Instance`] and flush it to
//! the repetition's [`Log`] once, when the instance is dropped.

use quickstrom::prelude::*;
use quickstrom::quickstrom_apps::registry::Entry;
use quickstrom::quickstrom_protocol::{wire, CheckerMsg, ExecutorMsg};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The fixed per-message delay of the remote workload.
pub const REMOTE_DELAY: Duration = Duration::from_millis(1);

/// What a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One repetition of a workload (the root).
    Rep,
    /// One `specstrom::load` call.
    Load,
    /// One registry entry's check, to its verdict.
    Check,
    /// One executor instance, from construction to drop.
    Run,
    /// The executor constructor call inside the factory.
    Build,
    /// One `Executor::send` as the checker sees it.
    Step,
    /// One pass through the wire codec (request or reply batch).
    Wire,
    /// One `Executor::send` inside the executor itself.
    Send,
}

impl Kind {
    pub const ALL: [Kind; 8] = [
        Kind::Rep,
        Kind::Load,
        Kind::Check,
        Kind::Run,
        Kind::Build,
        Kind::Step,
        Kind::Wire,
        Kind::Send,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Rep => "rep",
            Kind::Load => "load",
            Kind::Check => "check",
            Kind::Run => "run",
            Kind::Build => "build",
            Kind::Step => "step",
            Kind::Wire => "wire",
            Kind::Send => "send",
        }
    }
}

/// A closed span; times are nanoseconds since the repetition's origin.
/// `parent` is 0 for the root.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub kind: Kind,
    pub start: u64,
    pub end: u64,
}

/// What one repetition collected.
#[derive(Debug, Default)]
pub struct Collected {
    /// Every span (traced repetitions only).
    pub spans: Vec<Span>,
    /// Durations of the checker's sends, in nanoseconds (always kept).
    pub steps_ns: Vec<u64>,
    /// Bytes that crossed the wire codec, frames included.
    pub wire_bytes: u64,
}

/// The span log of one repetition, shared by every executor instance.
#[derive(Debug)]
pub struct Log {
    origin: Instant,
    traced: bool,
    next_id: AtomicU64,
    /// The span id of the check in progress: new executor instances
    /// parent their `run` span to it.
    current_check: AtomicU64,
    collected: Mutex<Collected>,
}

/// The id of the root `rep` span.
pub const ROOT: u64 = 1;

impl Log {
    pub fn new(traced: bool) -> Log {
        Log {
            origin: Instant::now(),
            traced,
            next_id: AtomicU64::new(ROOT + 1),
            current_check: AtomicU64::new(ROOT),
            collected: Mutex::new(Collected::default()),
        }
    }

    /// Nanoseconds since the repetition started.
    pub fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("a repetition lasts under 584 years")
    }

    pub fn new_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    pub fn set_current_check(&self, id: u64) {
        self.current_check.store(id, Ordering::Relaxed);
    }

    /// Records a closed span (a no-op when untraced).
    pub fn push(&self, span: Span) {
        if self.traced {
            self.lock().spans.push(span);
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Collected> {
        self.collected
            .lock()
            .expect("no thread panics while holding the span log")
    }

    /// Takes everything collected so far.
    pub fn take(&self) -> Collected {
        std::mem::take(&mut *self.lock())
    }
}

/// The per-instance record shared by the layers of one executor stack.
#[derive(Debug)]
struct Instance {
    log: Arc<Log>,
    run_id: u64,
    check_id: u64,
    /// The step in progress: inner layers parent their spans to it.
    current_step: u64,
    spans: Vec<Span>,
    steps_ns: Vec<u64>,
    wire_bytes: u64,
}

type Shared = Rc<RefCell<Instance>>;

/// The outermost layer: times each send as the checker sees it and owns
/// the instance record, which it flushes to the log on drop.
struct Probe {
    inner: Box<dyn Executor>,
    shared: Shared,
    started: u64,
}

impl Executor for Probe {
    fn send(&mut self, msg: CheckerMsg) -> Vec<ExecutorMsg> {
        let (log, traced) = {
            let instance = self.shared.borrow();
            (Arc::clone(&instance.log), instance.log.traced)
        };
        let id = if traced { log.new_id() } else { 0 };
        self.shared.borrow_mut().current_step = id;
        let start = log.now();
        let replies = self.inner.send(msg);
        let end = log.now();
        let mut instance = self.shared.borrow_mut();
        instance.steps_ns.push(end - start);
        if traced {
            let parent = instance.run_id;
            instance.spans.push(Span {
                id,
                parent,
                kind: Kind::Step,
                start,
                end,
            });
        }
        replies
    }

    fn transport_stats(&self) -> TransportStats {
        self.inner.transport_stats()
    }
}

impl Drop for Probe {
    fn drop(&mut self) {
        let mut instance = self.shared.borrow_mut();
        let log = Arc::clone(&instance.log);
        if log.traced {
            let span = Span {
                id: instance.run_id,
                parent: instance.check_id,
                kind: Kind::Run,
                start: self.started,
                end: log.now(),
            };
            instance.spans.push(span);
        }
        // A poisoned log only means another instance panicked; the panic
        // itself already fails the benchmark, so drop must not add one.
        if let Ok(mut collected) = log.collected.lock() {
            collected.spans.append(&mut instance.spans);
            collected.steps_ns.append(&mut instance.steps_ns);
            collected.wire_bytes += instance.wire_bytes;
        };
    }
}

/// Records a span of `kind` under the current step (traced only).
fn traced_span<T>(shared: &Shared, kind: Kind, f: impl FnOnce() -> T) -> T {
    let log = Arc::clone(&shared.borrow().log);
    if !log.traced {
        return f();
    }
    let id = log.new_id();
    let start = log.now();
    let out = f();
    let end = log.now();
    let mut instance = shared.borrow_mut();
    let parent = instance.current_step;
    instance.spans.push(Span {
        id,
        parent,
        kind,
        start,
        end,
    });
    out
}

/// Round-trips every message through the public wire codec, framed, as a
/// remote executor proxy does: the request is encoded and decoded before
/// it reaches the inner executor, the reply batch after it leaves.
struct Wire<E> {
    inner: E,
    shared: Shared,
}

fn frame_round_trip(payload: &[u8]) -> Vec<u8> {
    let mut framed = Vec::with_capacity(payload.len() + 4);
    wire::write_frame(&mut framed, payload).expect("a frame fits in memory");
    wire::read_frame(&mut framed.as_slice())
        .expect("a frame read back from memory")
        .expect("the frame is complete")
}

impl<E: Executor> Executor for Wire<E> {
    fn send(&mut self, msg: CheckerMsg) -> Vec<ExecutorMsg> {
        let msg = traced_span(&self.shared, Kind::Wire, || {
            let bytes = frame_round_trip(&wire::encode_checker_msg(&msg));
            self.shared.borrow_mut().wire_bytes += bytes.len() as u64 + 4;
            wire::decode_checker_msg(&bytes).expect("the codec round-trips a checker message")
        });
        let replies = self.inner.send(msg);
        traced_span(&self.shared, Kind::Wire, || {
            let bytes = frame_round_trip(&wire::encode_executor_batch(&replies));
            self.shared.borrow_mut().wire_bytes += bytes.len() as u64 + 4;
            wire::decode_executor_batch(&bytes).expect("the codec round-trips a reply batch")
        })
    }

    fn transport_stats(&self) -> TransportStats {
        self.inner.transport_stats()
    }
}

/// Times the executor's own work per send.
struct Busy<E> {
    inner: E,
    shared: Shared,
}

impl<E: Executor> Executor for Busy<E> {
    fn send(&mut self, msg: CheckerMsg) -> Vec<ExecutorMsg> {
        traced_span(&self.shared, Kind::Send, || self.inner.send(msg))
    }

    fn transport_stats(&self) -> TransportStats {
        self.inner.transport_stats()
    }
}

/// The timed executor factory: builds the entry's web executor, times the
/// constructor call, and wraps the instance in the decorators; `remote`
/// adds the wire codec and [`REMOTE_DELAY`].
pub fn make_executor(entry: &'static Entry, remote: bool, log: &Arc<Log>) -> Box<dyn Executor> {
    let started = log.now();
    let web = WebExecutor::new(|| entry.build());
    let built = log.now();
    let traced = log.traced;
    let run_id = if traced { log.new_id() } else { 0 };
    let shared = Rc::new(RefCell::new(Instance {
        log: Arc::clone(log),
        run_id,
        check_id: log.current_check.load(Ordering::Relaxed),
        current_step: 0,
        spans: Vec::new(),
        steps_ns: Vec::new(),
        wire_bytes: 0,
    }));
    if traced {
        let id = log.new_id();
        shared.borrow_mut().spans.push(Span {
            id,
            parent: run_id,
            kind: Kind::Build,
            start: started,
            end: built,
        });
    }
    let mut inner: Box<dyn Executor> = if traced {
        Box::new(Busy {
            inner: web,
            shared: Rc::clone(&shared),
        })
    } else {
        Box::new(web)
    };
    if remote {
        inner = Box::new(LatencyExecutor::new(inner, REMOTE_DELAY));
    }
    // Traced repetitions of the in-process workloads also pass through the
    // codec, so the wire layer is measured on every workload; tracing
    // overhead is reported net of it.
    if remote || traced {
        inner = Box::new(Wire {
            inner,
            shared: Rc::clone(&shared),
        });
    }
    Box::new(Probe {
        inner,
        shared,
        started,
    })
}
