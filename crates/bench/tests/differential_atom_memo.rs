//! The value-keyed atom memo against the oracle, which expands every atom
//! afresh.
//!
//! The memo serves a cached expansion whenever an atom's footprint
//! projection of the current state hashes to a key it has seen. It is
//! shared per property, so parallel workers race its lookups and inserts
//! and later checks start from a warm memo. This suite holds the jobs-2,
//! delta-snapshot rows of the table in `differential/mod.rs`. A memo
//! small enough to evict constantly must not change the report either,
//! and property-based tests pin the keying soundness condition: states
//! that agree on an atom's footprint projection yield structurally
//! identical expansions.

#[macro_use]
mod differential;

use differential::*;
use proptest::prelude::*;
use quickstrom::prelude::*;
use quickstrom::quickstrom_apps::Counter;
use quickstrom::quickstrom_protocol::ElementState;
use quickstrom::specstrom::{self, expand_thunk, EvalCtx, MemoEntry};
use std::sync::OnceLock;

fn raced_rows() -> Vec<Row> {
    runtime_rows(2, SnapshotMode::Delta)
}

fn check(bundled: Bundled) {
    check_bundled(bundled, &raced_rows());
}

bundled_tests! {
    check;
    counter_spec_verdicts_cache_invariant: Counter,
    menu_spec_verdicts_cache_invariant: Menu,
    egg_timer_spec_verdicts_cache_invariant: EggTimer,
    todomvc_spec_verdicts_cache_invariant: TodoMvc,
    bigtable_spec_verdicts_cache_invariant: BigTable,
    wizard_spec_verdicts_cache_invariant: Wizard,
}

#[test]
fn faulty_entry_shrinks_identically_across_cache_modes() {
    check_faulty(&raced_rows());
}

#[test]
fn registry_sweep_agrees_across_cache_modes_jobs_snapshots_and_engines() {
    check_registry(2);
}

/// A memo of two entries evicts long before a run ends; the churn must
/// not change the report.
#[test]
fn tiny_memo_capacity_evicts_without_changing_verdicts() {
    let case = Case::new(
        "counter at a tiny memo capacity",
        quickstrom::specs::COUNTER,
        app(Counter::new),
        quick_options().with_atom_memo_capacity(2),
    );
    let checked = case.run(&rows());
    assert!(
        checked.total(|t| t.atom_memo_evictions) > 0,
        "capacity 2 never evicted"
    );
}

/// A second check with two workers starts from the memo the first check
/// warmed, and its racing workers insert into it concurrently. Neither
/// may change the report.
#[test]
fn shared_memo_is_job_count_invariant() {
    let parallel = Row {
        jobs: 2,
        ..SEQUENTIAL
    };
    let checked = Bundled::Counter.case().run(&[SEQUENTIAL, parallel]);
    let misses = |i: usize| checked.rows[i].1.timings().atom_memo_misses;
    assert!(
        misses(1) < misses(0),
        "the jobs-2 check did not reuse the warm memo ({} vs {} misses)",
        misses(1),
        misses(0)
    );
}

/// The spec backing the projection proptests: one state-comparison atom
/// and one unrolling atom whose expansion captures an eager binding
/// (`old`), so `MemoEntry` comparison covers both constant-folded
/// expansions and sub-atom environments.
const PROJECTION_SPEC: &str = r#"
let ~stable = `#status`.text == "ok" && `#items`.count > 2;

let ~stepper {
  let old = `#status`.text;
  nextW (`#status`.text == old)
};

let ~prop = always (stable || stepper);

action poke! = click!(`#status`);

check prop;
"#;

fn projection_spec() -> &'static CompiledSpec {
    static SPEC: OnceLock<CompiledSpec> = OnceLock::new();
    SPEC.get_or_init(|| specstrom::load(PROJECTION_SPEC).expect("projection spec compiles"))
}

/// Builds a snapshot whose footprint-relevant content is `status` (the
/// `#status` text) and `items` (the `#items` element count), and whose
/// irrelevant content — extra fields on `#status`, a whole `#noise`
/// query — is free to differ between snapshots.
fn snapshot_with_junk(
    status: &str,
    items: usize,
    junk_value: &str,
    junk_checked: bool,
    noise: &[String],
) -> StateSnapshot {
    let mut state = StateSnapshot::default();
    let mut status_el = ElementState::with_text(status);
    status_el.value = junk_value.to_owned();
    status_el.checked = junk_checked;
    state.insert_query("#status", vec![status_el]);
    state.insert_query(
        "#items",
        (0..items)
            .map(|i| ElementState::with_text(i.to_string()))
            .collect(),
    );
    state.insert_query(
        "#noise",
        noise.iter().map(ElementState::with_text).collect(),
    );
    state
}

proptest! {
    /// The keying soundness condition behind the atom memo: two states
    /// that agree on an atom's footprint projection (here: `#status` text
    /// and `#items` count) produce structurally identical expansions — no
    /// matter how the rest of the state differs. `MemoEntry` performs
    /// exactly the comparison the checker's debug collision check uses.
    #[test]
    fn equal_footprint_projections_expand_identically(
        status in prop_oneof![Just("ok".to_owned()), "[a-z]{0,2}"],
        items in 0usize..5,
        junk_value1 in "[a-z]{0,3}",
        junk_value2 in "[a-z]{0,3}",
        junk_checked1 in any::<bool>(),
        junk_checked2 in any::<bool>(),
        noise1 in prop::collection::vec("[a-z]{0,4}", 0..3),
        noise2 in prop::collection::vec("[a-z]{0,4}", 0..3),
    ) {
        let spec = projection_spec();
        let s1 = snapshot_with_junk(&status, items, &junk_value1, junk_checked1, &noise1);
        let s2 = snapshot_with_junk(&status, items, &junk_value2, junk_checked2, &noise2);
        let ctx1 = EvalCtx::with_state(&s1, 20);
        let ctx2 = EvalCtx::with_state(&s2, 20);
        for name in ["stable", "stepper"] {
            let atom = spec.property_thunk(name).expect("atom exists");
            let e1 = expand_thunk(&atom, &ctx1).expect("expansion succeeds");
            let e2 = expand_thunk(&atom, &ctx2).expect("expansion succeeds");
            let entry = MemoEntry::build(atom.clone(), e1);
            prop_assert!(
                entry.matches_expansion(&e2),
                "{name}: equal projections produced different expansions \
                 (status {status:?}, items {items})"
            );
        }
    }

    /// And the discriminating direction: when the footprint projection
    /// *differs* (different `#status` text), the state-capturing atom's
    /// expansions must not be conflated by the comparison the collision
    /// check relies on.
    #[test]
    fn different_projections_are_distinguished(
        items in 0usize..5,
        noise in prop::collection::vec("[a-z]{0,4}", 0..3),
    ) {
        let spec = projection_spec();
        let s1 = snapshot_with_junk("ok", items, "", false, &noise);
        let s2 = snapshot_with_junk("nope", items, "", false, &noise);
        let atom = spec.property_thunk("stepper").expect("atom exists");
        let e1 = expand_thunk(&atom, &EvalCtx::with_state(&s1, 20)).expect("expansion");
        let e2 = expand_thunk(&atom, &EvalCtx::with_state(&s2, 20)).expect("expansion");
        let entry = MemoEntry::build(atom.clone(), e1);
        prop_assert!(
            !entry.matches_expansion(&e2),
            "expansions capturing different `old` values compared equal"
        );
    }
}
