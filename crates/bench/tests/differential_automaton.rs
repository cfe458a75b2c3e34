//! The evaluation automaton against the oracle, which steps the plain
//! stepper.
//!
//! Production progresses each property through its shared transition
//! table instead of re-running unroll → simplify → step per state, and
//! hands a run to the stepper mid-trace when the table outgrows its state
//! cap. This suite holds the jobs-2, full-snapshot rows of the table in
//! `differential/mod.rs`. A table capped small enough to force the
//! fallback must not change the report either, and shrink replays must
//! not inflate the reported counters.

#[macro_use]
mod differential;

use differential::*;

/// Checks a bundled specification under the jobs-2, full-snapshot rows,
/// and that the table served lookups wherever a property executed more
/// than one run: later runs re-walk the residual prefix the first run
/// interned. (A single run rarely hits its own table: demand subscripts
/// decrement per state, so each step usually reaches a new residual.)
fn assert_automaton_invisible(bundled: Bundled) {
    let checked = check_bundled(bundled, &runtime_rows(2, SnapshotMode::Full));
    if checked.oracle.properties.iter().any(|p| p.runs.len() > 1) {
        assert!(
            checked.total(|t| t.ltl_table_hits) > 0,
            "{bundled:?}: no progression step hit the table"
        );
    }
}

bundled_tests! {
    assert_automaton_invisible;
    counter_spec_verdicts_eval_mode_invariant: Counter,
    menu_spec_verdicts_eval_mode_invariant: Menu,
    egg_timer_spec_verdicts_eval_mode_invariant: EggTimer,
    todomvc_spec_verdicts_eval_mode_invariant: TodoMvc,
    bigtable_spec_verdicts_eval_mode_invariant: BigTable,
    wizard_spec_verdicts_eval_mode_invariant: Wizard,
}

#[test]
fn faulty_entry_shrinks_identically_across_eval_modes() {
    check_faulty(&runtime_rows(2, SnapshotMode::Full));
}

#[test]
fn registry_sweep_agrees_across_eval_modes_jobs_and_snapshots() {
    check_registry(3);
}

/// A state cap small enough that every run outgrows it mid-trace: the
/// automaton hands each run to the stepper, which must carry on exactly
/// where the table left off.
#[test]
fn fallback_at_tiny_state_cap_is_verdict_invariant() {
    let cap = 2;
    let mut case = Bundled::TodoMvc.case();
    case.name = "todomvc at a tiny state cap".to_owned();
    let uncapped = case.base.clone();
    case.base = case.base.with_automaton_state_cap(cap);
    let spec = quickstrom::specstrom::load(case.spec).expect("bundled spec compiles");
    let checked = case.run_on(&spec, &rows());
    for (row, report) in &checked.rows {
        assert!(
            report.timings().ltl_states <= cap as u64,
            "{row:?}: the capped table outgrew its cap"
        );
    }
    // The uncapped automaton needs more states than the cap allows, so
    // the cap really forced the fallback.
    case.base = uncapped;
    let report = case.check(&spec, &SEQUENTIAL);
    assert!(
        report.timings().ltl_states > cap as u64,
        "the workload never exceeded the cap; the fallback was not exercised"
    );
}

/// Shrink replays must not inflate the reported counters: the search is
/// seed-identical with shrinking on and off, and replay counters are
/// excluded from the totals.
#[test]
fn shrink_replays_do_not_inflate_eval_counters() {
    // A fresh spec per check: the caches hang off the compiled spec, and
    // a warm second check would count differently regardless of shrink.
    let shrunk = faulty_case().run(&[SEQUENTIAL]).rows.remove(0).1;
    let mut unshrunk_case = faulty_case();
    unshrunk_case.base = unshrunk_case.base.with_shrink(false);
    let unshrunk = unshrunk_case.run(&[SEQUENTIAL]).rows.remove(0).1;
    assert!(
        shrunk.properties[0].counterexample().expect("cx").shrunk,
        "the shrinker ran"
    );
    let (s, u) = (shrunk.timings(), unshrunk.timings());
    assert_eq!(
        (s.atoms_total, s.atoms_reevaluated, s.ltl_table_hits),
        (u.atoms_total, u.atoms_reevaluated, u.ltl_table_hits),
        "shrink replays inflated the counters"
    );
}
