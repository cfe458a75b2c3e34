//! Full-snapshot shipping against the oracle, which ships deltas.
//!
//! The incremental snapshot pipeline must be invisible: a checker fed
//! `SnapshotDelta`s reconstructs exactly the states a full-snapshot
//! executor would have shipped. This suite holds the jobs-1,
//! full-snapshot rows of the table in `differential/mod.rs`, against the
//! reference checker, which always runs on delta snapshots. The deltas
//! must also really flow and, on the sequential engine, ship fewer bytes
//! than full snapshots.

#[macro_use]
mod differential;

use differential::*;
use quickstrom::prelude::*;
use quickstrom::quickstrom_apps::BigTable;

/// Checks a bundled specification under the jobs-1, full-snapshot rows,
/// and that the oracle's deltas were a real saving over full snapshots.
fn assert_modes_agree(bundled: Bundled) -> Checked {
    let checked = check_bundled(bundled, &runtime_rows(1, SnapshotMode::Full));
    let delta = checked.oracle.transport();
    assert!(delta.delta_states > 0, "the oracle shipped no delta");
    let (_, full) = checked
        .rows
        .iter()
        .find(|(row, _)| row.runtime == Runtime::Sequential)
        .expect("a sequential full-snapshot row");
    assert!(
        delta.shipped_bytes < full.transport().shipped_bytes,
        "deltas shipped {} bytes, full snapshots {}",
        delta.shipped_bytes,
        full.transport().shipped_bytes
    );
    checked
}

bundled_tests! {
    assert_modes_agree;
    counter_spec_agrees_across_modes: Counter,
    menu_spec_agrees_across_modes: Menu,
    egg_timer_spec_agrees_across_modes: EggTimer,
    todomvc_spec_agrees_across_modes: TodoMvc,
    bigtable_spec_agrees_across_modes: BigTable,
    wizard_spec_agrees_across_modes: Wizard,
}

/// The counterexample search, the scripted shrink replays and the final
/// minimised script all run on reconstructed states.
#[test]
fn faulty_entry_shrinks_identically_in_both_modes() {
    check_faulty(&runtime_rows(1, SnapshotMode::Full));
}

#[test]
fn registry_sweep_agrees_across_modes() {
    check_registry(1);
}

/// Delta shipping keeps the parallel runtime's determinism: reports at
/// `jobs = 2` and `4` equal the oracle's, which runs at `jobs = 1`.
#[test]
fn delta_mode_keeps_jobs_determinism() {
    let case = Case::new(
        "bigtable",
        quickstrom::specs::BIGTABLE,
        app(|| BigTable::with_rows(80)),
        CheckOptions::default()
            .with_tests(8)
            .with_max_actions(20)
            .with_default_demand(15)
            .with_seed(13)
            .with_shrink(false),
    );
    let rows: Vec<Row> = [1, 2, 4]
        .into_iter()
        .map(|jobs| Row { jobs, ..SEQUENTIAL })
        .collect();
    case.run(&rows);
}
