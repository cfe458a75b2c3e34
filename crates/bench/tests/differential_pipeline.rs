//! The session engine and the step memo against the oracle.
//!
//! This suite holds the jobs-1, delta-snapshot rows of the table in
//! `differential/mod.rs`: one session at a time, and three multiplexed on
//! one worker. Multiplexed sessions finish in whatever order their
//! executors answer and retire into index-ordered slots, so the report may
//! depend on neither the width nor the worker count. They also interleave
//! runs on the shared caches, so their evaluation counters depend on
//! scheduling and only their reports are compared.
//!
//! The step memo has no switch to compare against, so it is checked cold
//! against warm: a second check of the same workload on the same compiled
//! spec is answered mostly by step-memo replays, and must reproduce the
//! first check's report, atom demand and automaton size.

#[macro_use]
mod differential;

use differential::*;
use quickstrom::prelude::*;
use quickstrom::quickstrom_apps::Counter;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

fn session_rows() -> Vec<Row> {
    runtime_rows(1, SnapshotMode::Delta)
}

fn check(bundled: Bundled) {
    check_bundled(bundled, &session_rows());
}

bundled_tests! {
    check;
    counter_spec_verdicts_pipeline_invariant: Counter,
    menu_spec_verdicts_pipeline_invariant: Menu,
    egg_timer_spec_verdicts_pipeline_invariant: EggTimer,
    todomvc_spec_verdicts_pipeline_invariant: TodoMvc,
    bigtable_spec_verdicts_pipeline_invariant: BigTable,
    wizard_spec_verdicts_pipeline_invariant: Wizard,
}

#[test]
fn faulty_entry_shrinks_identically_across_pipeline_modes() {
    check_faulty(&session_rows());
}

#[test]
fn registry_sweep_agrees_across_pipeline_jobs_snapshots_engines_and_caches() {
    check_registry(0);
}

/// §3.4 event timeouts under every row: each observed `tick?` makes the
/// checker send a `Wait`, and the runs must stop at the action budget
/// exactly as the oracle's do.
#[test]
fn event_timeouts_match_the_oracle_in_every_row() {
    check_event_timeouts(&rows());
}

/// Several in-flight sessions per worker, with and without extra
/// workers: slot-ordered retirement keeps the merged report equal to the
/// oracle's for every (jobs, multiplex) combination — also when later
/// runs finish first.
#[test]
fn multiplexed_sessions_match_sequential_reports() {
    let rows: Vec<Row> = [(1, 4), (2, 2), (2, 4), (4, 1)]
        .into_iter()
        .map(|(jobs, width)| Row {
            jobs,
            runtime: Runtime::Multiplexed { width },
            ..SEQUENTIAL
        })
        .collect();
    check_bundled(Bundled::Counter, &rows);
    // Executors alternate between no delay and 2 ms per message in
    // construction order, so with three sessions in flight on one worker
    // a slow run retires after the fast runs started behind it.
    let built = AtomicUsize::new(0);
    let case = Case::new(
        "counter, alternating latency",
        quickstrom::specs::COUNTER,
        Box::new(move |config| {
            let slow = built.fetch_add(1, Ordering::SeqCst) % 2 == 1;
            let delay = Duration::from_millis(if slow { 2 } else { 0 });
            Box::new(LatencyExecutor::new(
                WebExecutor::with_config(Counter::new, config),
                delay,
            ))
        }),
        quick_options(),
    );
    case.run(&[Row {
        runtime: Runtime::Multiplexed { width: 3 },
        ..SEQUENTIAL
    }]);
}

/// Checks `case` cold and then warm on one compiled spec at jobs 1. The
/// cold pass must reproduce the oracle's report; the warm pass, answered
/// mostly by step-memo replays, must reproduce the cold pass's report,
/// atom demand and automaton size. Returns the warm pass's report.
fn assert_step_memo_replays_exact(case: &Case) -> Report {
    let spec = quickstrom::specstrom::load(case.spec).expect("bundled spec compiles");
    let cold = case.run_on(&spec, &[SEQUENTIAL]).rows.remove(0).1;
    let warm = case.check(&spec, &SEQUENTIAL);
    assert_eq!(
        warm, cold,
        "{}: the warm pass changed the report",
        case.name
    );
    let (c, w) = (cold.timings(), warm.timings());
    assert_eq!(w.atoms_total, c.atoms_total, "replays changed atom demand");
    assert_eq!(w.ltl_states, c.ltl_states, "replays interned new states");
    assert!(
        w.step_memo_hits > c.step_memo_hits,
        "the warm pass was not answered by the step memo ({} vs {} hits)",
        w.step_memo_hits,
        c.step_memo_hits
    );
    let states: usize = warm.properties.iter().map(|p| p.states_total).sum();
    assert!(
        2 * w.step_memo_hits > states as u64,
        "replays answered only {} of {states} warm steps",
        w.step_memo_hits
    );
    for t in [c, w] {
        assert_eq!(t.atom_memo_hits + t.atom_memo_misses, t.atoms_total);
    }
    warm
}

#[test]
fn todomvc_step_memo_is_invisible() {
    assert_step_memo_replays_exact(&Bundled::TodoMvc.case());
}

/// Shrink replays warm the shared memos too, but their counters are
/// excluded from the totals, and the warm pass must shrink to the same
/// counterexample.
#[test]
fn faulty_entry_shrinks_identically_across_step_memo_modes() {
    let warm = assert_step_memo_replays_exact(&faulty_case());
    assert!(!warm.passed(), "the faulty app must fail");
    let cx = warm.properties[0]
        .counterexample()
        .expect("a counterexample");
    assert!(cx.shrunk, "the shrinker ran");
}
