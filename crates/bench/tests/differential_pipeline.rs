//! The pipelined runtime and the step memo against the oracle.
//!
//! This suite holds the jobs-1, delta-snapshot rows of the table in
//! `differential/mod.rs`. The pipelined runtime speculates past the
//! evaluator and discards the speculative tail when a verdict lands, so
//! the report may depend on neither the speculation depth nor the
//! multiplex width.
//!
//! The evaluator stage replays the sequential engine exactly, so on a
//! freshly compiled spec the pipelined rows must also reproduce the
//! sequential engine's evaluation counters. Multiplexed sessions
//! interleave runs on the shared caches, so their counters depend on
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

fn pipeline_rows() -> Vec<Row> {
    runtime_rows(1, SnapshotMode::Delta)
}

fn check(bundled: Bundled) {
    let checked = check_bundled(bundled, &pipeline_rows());
    assert_counters_match_sequential(&bundled.case(), &checked.oracle);
}

/// Checks `case` sequentially and pipelined at each depth, each on its
/// own freshly compiled spec so that all start equally cold, and asserts
/// that every pipelined check reproduces the oracle's report and the
/// sequential engine's evaluation counters.
fn assert_counters_match_sequential(case: &Case, oracle: &Report) {
    let counters = |row: &Row| {
        let spec = quickstrom::specstrom::load(case.spec).expect("bundled spec compiles");
        let report = case.check(&spec, row);
        assert_eq!(&report, oracle, "{} under {row:?}: diverged", case.name);
        let t = report.timings();
        [
            t.atoms_total,
            t.atoms_reevaluated,
            t.atom_memo_hits,
            t.atom_memo_misses,
            t.ltl_table_hits,
            t.ltl_states,
            t.step_memo_hits,
        ]
    };
    let sequential = counters(&SEQUENTIAL);
    let pipelined = pipeline_rows()
        .into_iter()
        .filter(|row| matches!(row.runtime, Runtime::Pipelined { .. }));
    for row in pipelined {
        assert_eq!(
            counters(&row),
            sequential,
            "{} under {row:?}: evaluation counters differ from the sequential engine's",
            case.name
        );
    }
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
    check_faulty(&pipeline_rows());
}

#[test]
fn registry_sweep_agrees_across_pipeline_jobs_snapshots_engines_and_caches() {
    check_registry(0);
}

/// The speculation window bounds how far the driver can run past the
/// canonical stop point, so the shape of speculation differs wildly
/// between depth 1 (near-lockstep), 4 and 64 (the driver can race a whole
/// run ahead) — but the evaluator discards the speculative tail
/// unprocessed, so every depth must produce the oracle's report.
#[test]
fn speculation_depth_never_leaks_into_reports() {
    let rows: Vec<Row> = [1, 4, 64]
        .into_iter()
        .map(|depth| Row {
            runtime: Runtime::Pipelined { depth },
            ..SEQUENTIAL
        })
        .collect();
    check_bundled(Bundled::TodoMvc, &rows);
}

/// Several in-flight sessions per worker, with and without extra
/// workers: slot-ordered retirement keeps the merged report equal to the
/// oracle's for every (jobs, multiplex) combination.
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
