//! Expansion reuse and the spec-aware fingerprint against the oracle.
//!
//! Production reuses an atom's expansion whenever the state it reads —
//! its static footprint from `specstrom::analysis` — is one the atom memo
//! has seen, while the reference checker expands every atom afresh. This
//! suite holds the spec-aware fingerprint row of the table in
//! `differential/mod.rs`. The fingerprint changes only the coverage
//! abstraction, which the uniform strategy never consults, so it must not
//! change the report either.

#[macro_use]
mod differential;

use differential::*;
use quickstrom::prelude::*;

/// Checks a bundled specification under the spec-aware row, and that
/// production really skipped atom work the oracle did.
fn assert_masking_invisible(bundled: Bundled) {
    let checked = check_bundled(bundled, &[SPEC_AWARE]);
    let t = checked.rows[0].1.timings();
    assert!(
        t.atoms_reevaluated < t.atoms_total,
        "{bundled:?}: no atom expansion was ever reused ({} of {} re-evaluated)",
        t.atoms_reevaluated,
        t.atoms_total,
    );
}

bundled_tests! {
    assert_masking_invisible;
    counter_spec_verdicts_mask_invariant: Counter,
    menu_spec_verdicts_mask_invariant: Menu,
    egg_timer_spec_verdicts_mask_invariant: EggTimer,
    todomvc_spec_verdicts_mask_invariant: TodoMvc,
    bigtable_spec_verdicts_mask_invariant: BigTable,
    wizard_spec_verdicts_mask_invariant: Wizard,
}

/// Under the uniform strategy the shape and spec-aware fingerprints must
/// both produce the oracle's report.
#[test]
fn spec_aware_fingerprint_is_verdict_invariant_under_uniform() {
    let shape = Row {
        fingerprint: FingerprintMode::Shape,
        ..SPEC_AWARE
    };
    check_bundled(Bundled::Wizard, &[shape, SPEC_AWARE]);
}

#[test]
fn faulty_entry_shrinks_identically_with_masking() {
    check_faulty(&[SPEC_AWARE]);
}

#[test]
fn registry_sweep_agrees_with_and_without_masks() {
    check_registry(4);
}
