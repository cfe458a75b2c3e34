//! # quickstrom-executor
//!
//! The web executor: drives a [`webdom`] application behind the Quickstrom
//! checker protocol (§3.4), playing the role the Selenium-WebDriver-based
//! executor plays in the original system.
//!
//! On [`Start`](CheckerMsg::Start) it boots the app, instruments the
//! dependency selectors, and reports the `loaded?` event. Actions are
//! resolved against the rendered document (selector + match index), routed
//! through event-handler bubbling, and answered with
//! [`Acted`](ExecutorMsg::Acted). Asynchronous work — app timers on the
//! virtual clock — fires during a small *deliberation* time charged while
//! the checker is thinking, and surfaces as `changed?`
//! [`Event`](ExecutorMsg::Event)s; a checker `Act` carrying a stale trace
//! version is ignored, exactly reproducing the Figure 10 race,
//! deterministically.
//!
//! ## The incremental snapshot pipeline
//!
//! Observation is dirty-tracked end to end. Rendering goes through a
//! [`webdom::RenderCache`]: an unchanged view tree costs one comparison
//! instead of a re-render, and each dependency selector's projected
//! results are memoised per render generation — so unchanged documents
//! answer every query without matching a single node, and pointer
//! equality of the memoised [`QueryResults`] is a complete change test.
//! After the initial full [`StateSnapshot`], every message ships a
//! [`SnapshotDelta`] (per-selector element edits, monotone
//! `state_version`) instead of a full state; the executor's record of
//! "the last reported state" is just the memoised query handles plus that
//! version number — no second snapshot copy exists anywhere.
//! [`Executor::transport_stats`] reports what the wire carried versus the
//! full-snapshot counterfactual. Set
//! [`WebExecutorConfig::full_snapshots`] to ship complete snapshots
//! instead; the two modes are observably identical (the differential
//! tests pin verdicts, states and shrunk counterexamples bit-for-bit).
//!
//! The virtual clock makes every run replayable: given the same action
//! script, the same trace results — which is what the checker's shrinker
//! relies on.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

use quickstrom_protocol::{
    ActionInstance, ActionKind, CheckerMsg, Executor, ExecutorMsg, Key, QueryResults, Selector,
    SnapshotDelta, StateSnapshot, StateUpdate, TransportStats, DELTA_FORMAT_VERSION,
};
use std::collections::BTreeMap;
use std::sync::Arc;
use webdom::{
    App, AppCtx, EventKind, LocalStorage, Payload, RenderCache, SelectorExpr, VirtualClock,
};

/// Configuration for a [`WebExecutor`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WebExecutorConfig {
    /// Virtual milliseconds charged per checker message, during which due
    /// timers may fire (this is what makes the Figure 10 stale-action race
    /// reachable, deterministically).
    pub deliberation_ms: u64,
    /// Ship [`SnapshotDelta`]s after the initial full snapshot (the
    /// default). With `false`, every message carries a complete
    /// [`StateSnapshot`] — observably identical, just more bytes.
    pub deltas: bool,
}

impl Default for WebExecutorConfig {
    fn default() -> Self {
        WebExecutorConfig {
            deliberation_ms: 1,
            deltas: true,
        }
    }
}

impl WebExecutorConfig {
    /// The default configuration with delta shipping disabled — every
    /// state goes out as a full snapshot (the pre-incremental protocol,
    /// kept for differential testing and as a cross-process fallback).
    #[must_use]
    pub fn full_snapshots() -> Self {
        WebExecutorConfig {
            deltas: false,
            ..WebExecutorConfig::default()
        }
    }
}

/// An executor hosting one [`App`] on a virtual DOM and a virtual clock.
///
/// `WebExecutor<A>` is `Send` whenever the app is: the checker's parallel
/// runtime constructs one executor per worker thread (the factory closure
/// handed to `check_spec` must be `Sync`), and nothing in here touches
/// thread-local or shared state.
pub struct WebExecutor<A> {
    factory: Box<dyn Fn() -> A + Send + Sync>,
    app: A,
    clock: VirtualClock,
    storage: LocalStorage,
    dependencies: Vec<(Selector, SelectorExpr)>,
    /// Dirty-tracked rendering and per-selector query memoisation.
    cache: RenderCache,
    /// The query results of the last reported state, positionally aligned
    /// with `dependencies` — shared handles into the cache, not a snapshot
    /// copy. Together with `trace_len` (the state version) this *is* the
    /// executor's record of what the checker knows.
    last_queries: Vec<QueryResults>,
    /// Per-selector wire-size contributions of `last_queries` (aligned
    /// with `dependencies`), and their sum — the O(changed)-maintained
    /// full-snapshot counterfactual behind [`TransportStats::full_bytes`].
    query_sizes: Vec<usize>,
    full_queries_bytes: usize,
    /// Whether the initial full snapshot has been sent (deltas only ever
    /// follow a full base).
    sent_initial: bool,
    trace_len: u64,
    started: bool,
    stats: TransportStats,
    config: WebExecutorConfig,
}

impl<A> std::fmt::Debug for WebExecutor<A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WebExecutor")
            .field("trace_len", &self.trace_len)
            .field("now_ms", &self.clock.now_ms())
            .field("started", &self.started)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl<A: App> WebExecutor<A> {
    /// Creates an executor; `factory` builds the app (and rebuilds it on
    /// `reload!`, with storage preserved).
    pub fn new(factory: impl Fn() -> A + Send + Sync + 'static) -> Self {
        Self::with_config(factory, WebExecutorConfig::default())
    }

    /// Creates an executor with explicit configuration.
    pub fn with_config(
        factory: impl Fn() -> A + Send + Sync + 'static,
        config: WebExecutorConfig,
    ) -> Self {
        let app = factory();
        WebExecutor {
            factory: Box::new(factory),
            app,
            clock: VirtualClock::new(),
            storage: LocalStorage::new(),
            dependencies: Vec::new(),
            cache: RenderCache::new(),
            last_queries: Vec::new(),
            query_sizes: Vec::new(),
            full_queries_bytes: 0,
            sent_initial: false,
            trace_len: 0,
            started: false,
            stats: TransportStats::default(),
            config,
        }
    }

    /// The current virtual time (useful in tests and benchmarks: running
    /// time in the simulated world).
    #[must_use]
    pub fn now_ms(&self) -> u64 {
        self.clock.now_ms()
    }

    /// Renders the current view through the dirty-tracking cache and
    /// returns the memoised query results of every dependency selector,
    /// positionally aligned with `dependencies`.
    fn current_queries(&mut self) -> Vec<QueryResults> {
        self.cache.render(self.app.view());
        let cache = &mut self.cache;
        self.dependencies
            .iter()
            .map(|(selector, expr)| cache.query(*selector, expr))
            .collect()
    }

    /// The dependency indices whose results changed since the last
    /// reported state. Pointer equality is a complete test here: the
    /// render cache revalidates (returns the previous allocation for)
    /// every selector whose projections came out unchanged.
    fn changed_since_last(&self, queries: &[QueryResults]) -> Vec<usize> {
        queries
            .iter()
            .enumerate()
            .filter(|(i, results)| match self.last_queries.get(*i) {
                Some(last) => !Arc::ptr_eq(last, results),
                None => true,
            })
            .map(|(i, _)| i)
            .collect()
    }

    /// Maps changed dependency indices to their selectors, in selector
    /// order (the order events report in their `detail`).
    fn changed_selectors(&self, changed: &[usize]) -> Vec<Selector> {
        let mut selectors: Vec<Selector> =
            changed.iter().map(|&i| self.dependencies[i].0).collect();
        selectors.sort();
        selectors.dedup();
        selectors
    }

    /// Books a new state: bumps the version, maintains the wire-size
    /// counterfactual, records transport stats, and returns the update to
    /// ship — the initial (or full-mode) snapshot, or a delta against the
    /// previous state.
    fn emit_state(&mut self, queries: Vec<QueryResults>, changed: &[usize]) -> StateUpdate {
        let timestamp_ms = self.clock.now_ms();
        self.trace_len += 1;
        self.query_sizes.resize(queries.len(), 0);
        for &i in changed {
            let entry = StateSnapshot::query_wire_size(&self.dependencies[i].0, &queries[i]);
            let old = std::mem::replace(&mut self.query_sizes[i], entry);
            self.full_queries_bytes = self.full_queries_bytes - old + entry;
        }
        // What a full snapshot of this state would cost on the wire.
        let full_equivalent = StateSnapshot::full_update_wire_size(self.full_queries_bytes);
        let delta = if self.config.deltas && self.sent_initial {
            let mut changes = BTreeMap::new();
            for &i in changed {
                let base = self.last_queries.get(i).map_or(&[][..], |r| r);
                // The change list only holds provably changed selectors
                // (pointer inequality), so the element-level diff is
                // always Some — but tolerate None rather than ship an
                // empty edit.
                if let Some(edit) = quickstrom_protocol::delta::diff_results(base, &queries[i]) {
                    changes.insert(self.dependencies[i].0, edit);
                }
            }
            let delta = SnapshotDelta {
                format: DELTA_FORMAT_VERSION,
                state_version: self.trace_len,
                changes,
                happened: Vec::new(),
                timestamp_ms,
            };
            // Adaptive fallback: a step that rewrote most of the document
            // (a re-sort, a filter flip) produces a delta as large as the
            // snapshot itself — then the full form is strictly better, on
            // the wire *and* in process (the receiver reuses its shared
            // allocations instead of patching element lists).
            if 1 + delta.wire_size() < full_equivalent {
                Some(delta)
            } else {
                None
            }
        } else {
            None
        };
        let update = match delta {
            Some(delta) => StateUpdate::Delta(delta),
            None => {
                self.sent_initial = true;
                StateUpdate::Full(StateSnapshot {
                    queries: self
                        .dependencies
                        .iter()
                        .zip(&queries)
                        .map(|((selector, _), results)| (*selector, Arc::clone(results)))
                        .collect(),
                    happened: Vec::new(),
                    timestamp_ms,
                })
            }
        };
        self.stats.record(&update, full_equivalent, changed.len());
        self.last_queries = queries;
        update
    }

    /// Observes the current state and, when any instrumented selector
    /// changed, emits a `changed?` event carrying the update.
    fn emit_if_changed(&mut self, out: &mut Vec<ExecutorMsg>) {
        let queries = self.current_queries();
        let changed = self.changed_since_last(&queries);
        if changed.is_empty() {
            return;
        }
        let detail = self.changed_selectors(&changed);
        let update = self.emit_state(queries, &changed);
        out.push(ExecutorMsg::Event {
            event: "changed?".to_owned(),
            detail,
            state: update,
        });
    }

    /// Fires app timers due within the next `delta_ms` of virtual time; for
    /// each visible state change, emits a `changed?` event and bumps the
    /// trace.
    fn pump(&mut self, delta_ms: u64, out: &mut Vec<ExecutorMsg>) {
        let fired = self.clock.advance(delta_ms);
        for (_, tag) in fired {
            let mut ctx = AppCtx {
                clock: &mut self.clock,
                storage: &mut self.storage,
            };
            self.app.on_timer(&tag, &mut ctx);
            self.emit_if_changed(out);
        }
    }

    /// Advances virtual time until an observable event fires or `time_ms`
    /// elapses; emits either the `changed?` event or a `Timeout`.
    fn wait_for_event_or_timeout(&mut self, time_ms: u64, out: &mut Vec<ExecutorMsg>) {
        let deadline = self.clock.now_ms().saturating_add(time_ms);
        loop {
            match self.clock.next_due() {
                Some(due) if due <= deadline => {
                    let fired = self.clock.advance_to(due);
                    for (_, tag) in fired {
                        let mut ctx = AppCtx {
                            clock: &mut self.clock,
                            storage: &mut self.storage,
                        };
                        self.app.on_timer(&tag, &mut ctx);
                    }
                    let before = out.len();
                    self.emit_if_changed(out);
                    if out.len() != before {
                        return; // an event interrupted the wait
                    }
                }
                _ => {
                    self.clock.advance_to(deadline);
                    let queries = self.current_queries();
                    let changed = self.changed_since_last(&queries);
                    let update = self.emit_state(queries, &changed);
                    out.push(ExecutorMsg::Timeout { state: update });
                    return;
                }
            }
        }
    }

    fn boot(&mut self, out: &mut Vec<ExecutorMsg>) {
        let mut ctx = AppCtx {
            clock: &mut self.clock,
            storage: &mut self.storage,
        };
        self.app.start(&mut ctx);
        let queries = self.current_queries();
        let changed: Vec<usize> = (0..queries.len()).collect();
        let update = self.emit_state(queries, &changed);
        out.push(ExecutorMsg::Event {
            event: "loaded?".to_owned(),
            detail: Vec::new(),
            state: update,
        });
    }

    /// Performs one action against the rendered document.
    ///
    /// Actions on vanished, invisible or disabled targets are no-ops that
    /// still produce an `Acted` state — a real user's click lands on
    /// whatever is (not) there.
    fn perform(&mut self, action: &ActionInstance, out: &mut Vec<ExecutorMsg>) {
        match &action.kind {
            ActionKind::Noop => {}
            ActionKind::Reload => {
                // Rebuild the app; persistent storage survives, timers die.
                self.clock.cancel_all();
                self.app = (self.factory)();
                let mut ctx = AppCtx {
                    clock: &mut self.clock,
                    storage: &mut self.storage,
                };
                self.app.start(&mut ctx);
            }
            kind => {
                // After Start, the cached document is always current at
                // message entry: every path that mutates the app (boot,
                // pump, perform, reload) re-renders before handing control
                // back, so the checker's (selector, index) target resolves
                // against exactly the state it was chosen from. An Act
                // before Start is protocol misuse (debug-asserted in
                // `send`), but must stay a well-defined no-op reply in
                // release builds, not a cache panic — render on demand.
                if !self.started {
                    self.cache.render(self.app.view());
                }
                let doc = self.cache.document();
                let target = action.target.as_ref().and_then(|(selector, index)| {
                    let expr = SelectorExpr::parse(selector.as_str()).ok()?;
                    doc.select(&expr).get(*index).copied()
                });
                if let Some(node) = target {
                    if doc.visible(node) && doc.enabled(node) {
                        let (event_kind, payload) = match kind {
                            ActionKind::Click => (EventKind::Click, Payload::None),
                            ActionKind::DblClick => (EventKind::DblClick, Payload::None),
                            ActionKind::Focus => (EventKind::Focus, Payload::None),
                            ActionKind::Input(text) => (
                                EventKind::Input,
                                Payload::Text(text.clone().unwrap_or_default()),
                            ),
                            ActionKind::KeyPress(key) => (
                                EventKind::KeyDown,
                                Payload::Key(match key {
                                    Key::Enter => "Enter".to_owned(),
                                    Key::Escape => "Escape".to_owned(),
                                    Key::Char(c) => c.to_string(),
                                }),
                            ),
                            ActionKind::Noop | ActionKind::Reload => {
                                unreachable!("handled above")
                            }
                        };
                        if let Some(msg) = doc.handler(node, event_kind) {
                            let msg = msg.to_owned();
                            let mut ctx = AppCtx {
                                clock: &mut self.clock,
                                storage: &mut self.storage,
                            };
                            self.app.on_event(&msg, &payload, &mut ctx);
                        }
                    }
                }
            }
        }
        let queries = self.current_queries();
        let changed = self.changed_since_last(&queries);
        let update = self.emit_state(queries, &changed);
        out.push(ExecutorMsg::Acted { state: update });
    }
}

impl<A: App> Executor for WebExecutor<A> {
    fn send(&mut self, msg: CheckerMsg) -> Vec<ExecutorMsg> {
        let mut out = Vec::new();
        match msg {
            CheckerMsg::Start { dependencies } => {
                self.dependencies = dependencies
                    .into_iter()
                    .map(|sel| {
                        let expr = SelectorExpr::parse(sel.as_str())
                            .unwrap_or_else(|e| panic!("invalid dependency selector {sel}: {e}"));
                        (sel, expr)
                    })
                    .collect();
                // A Start opens a *new session*: versions restart from
                // zero and the first state must be a full snapshot again
                // (a delta against a previous session's base — possibly
                // over a different dependency list — would be rejected or,
                // worse, mis-applied by a fresh checker).
                self.last_queries = Vec::new();
                self.query_sizes = Vec::new();
                self.full_queries_bytes = 0;
                self.sent_initial = false;
                self.trace_len = 0;
                self.stats = TransportStats::default();
                self.started = true;
                self.boot(&mut out);
                // Immediately-due timers (e.g. zero-delay init work).
                self.pump(0, &mut out);
            }
            CheckerMsg::Act { action, version } => {
                debug_assert!(self.started, "Act before Start");
                // Deliberation: the app lived on while the checker decided.
                self.pump(self.config.deliberation_ms, &mut out);
                if version < self.trace_len {
                    // Stale request (Figure 10): ignore; the pending events
                    // in `out` explain why.
                    return out;
                }
                self.perform(&action, &mut out);
                if let Some(t) = action.timeout_ms {
                    // §3.2: after a timed action, wait for an event or the
                    // timeout before handing control back.
                    self.wait_for_event_or_timeout(t, &mut out);
                }
            }
            CheckerMsg::Wait { time_ms, version } => {
                debug_assert!(self.started, "Wait before Start");
                self.pump(self.config.deliberation_ms, &mut out);
                if version < self.trace_len {
                    return out;
                }
                self.wait_for_event_or_timeout(time_ms, &mut out);
            }
            CheckerMsg::End => {}
        }
        out
    }

    fn transport_stats(&self) -> TransportStats {
        self.stats
    }
}

/// An [`Executor`] decorator that charges a fixed wall-clock delay per
/// checker message, simulating the transport and render latency of a real
/// browser or remote executor (the in-process [`WebExecutor`] answers in
/// microseconds, which makes latency-hiding effects invisible).
///
/// With latency injected, multiplexing becomes measurable: a worker with
/// several sessions in flight (`CheckOptions::multiplex`) steps whichever
/// has replies while the others wait, so their delays overlap — see the
/// `pipeline` benchmark.
#[derive(Debug)]
pub struct LatencyExecutor<E> {
    inner: E,
    delay: std::time::Duration,
}

impl<E> LatencyExecutor<E> {
    /// Wraps `inner`, sleeping `delay` before every delivered message.
    pub fn new(inner: E, delay: std::time::Duration) -> Self {
        LatencyExecutor { inner, delay }
    }
}

impl<E: Executor> Executor for LatencyExecutor<E> {
    fn send(&mut self, msg: CheckerMsg) -> Vec<ExecutorMsg> {
        std::thread::sleep(self.delay);
        self.inner.send(msg)
    }

    fn transport_stats(&self) -> TransportStats {
        self.inner.transport_stats()
    }
}

#[cfg(test)]
mod send_audit {
    use super::*;

    fn assert_send<T: Send>() {}

    /// The parallel check runtime constructs executors on worker threads;
    /// this pins the `Send` guarantee at compile time for a concrete app.
    #[test]
    fn web_executor_is_send_for_send_apps() {
        #[derive(Debug)]
        struct Nop;
        impl App for Nop {
            fn start(&mut self, _: &mut AppCtx<'_>) {}
            fn view(&self) -> webdom::El {
                webdom::El::new("div")
            }
            fn on_event(&mut self, _: &str, _: &Payload, _: &mut AppCtx<'_>) {}
            fn on_timer(&mut self, _: &str, _: &mut AppCtx<'_>) {}
        }
        assert_send::<WebExecutor<Nop>>();
    }
}
