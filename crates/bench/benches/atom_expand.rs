//! The atom-expansion micro-benchmark: the IR interpreter vs a warm memo
//! hit.
//!
//! One sample expands the TodoMVC safety invariants against a realistic
//! `loaded?` snapshot, two ways:
//!
//! * `atom_expand_generic` — the IR interpreter (`expand_thunk`), what
//!   the reference checker pays for every requested atom and what the
//!   production checker pays on a memo miss.
//! * `atom_expand_memo_hit` — the warm path: hash the atom's
//!   footprint-restricted projection of the state and look the expansion
//!   up in the value-keyed memo. No IR runs at all; this is what repeat
//!   states cost.
//!
//! The two are pinned semantically by `differential_atom_memo`; this
//! benchmark quantifies the gap the DESIGN.md *Atom expansion
//! memoization* section cites.

use criterion::{criterion_group, criterion_main, Criterion};
use quickstrom::prelude::*;
use quickstrom::quickstrom_apps::registry;
use quickstrom::quickstrom_protocol::{masked_query_term, CheckerMsg, ExecutorMsg, ProjectionHash};
use quickstrom::specstrom::{
    self, footprint_of_thunk, AtomFootprint, AtomKeyer, AtomMemo, EvalCtx, MemoEntry, Thunk,
};
use quickstrom_bench::todomvc_spec;

/// The TodoMVC safety invariants — the atoms every observed state
/// re-evaluates, and exactly what the expansion memo collapses.
const SAFETY_ATOMS: &[&str] = &[
    "checkboxInv",
    "strongInv",
    "pluralInv",
    "filtersInv",
    "focusInv",
    "blankInv",
    "toggleAllInv",
    "emptyAllInv",
    "countingInv",
    "stateInv",
    "initial",
];

/// A realistic TodoMVC snapshot: boot the vue registry entry behind the
/// executor and take the `loaded?` state with every spec dependency
/// instrumented.
fn todomvc_snapshot() -> StateSnapshot {
    let spec = todomvc_spec();
    let entry = registry::by_name("vue").expect("registry entry");
    let mut executor = WebExecutor::new(|| entry.build());
    let replies = executor.send(CheckerMsg::Start {
        dependencies: spec.dependencies.clone(),
    });
    let first = replies.first().expect("loaded? reply");
    let mut state = match first {
        ExecutorMsg::Event { state, .. } => state
            .full()
            .expect("the initial state is a full snapshot")
            .clone(),
        other => panic!("unexpected first reply {other:?}"),
    };
    state.happened = vec!["loaded?".into()];
    state
}

/// The checker's projection hash, reproduced over public API: an ordered
/// fold of the footprint-masked query terms plus the `happened` set when
/// the atom reads it.
fn projection_hash(footprint: &AtomFootprint, state: &StateSnapshot) -> u64 {
    let mut hash = ProjectionHash::new();
    for (selector, usage) in &footprint.selectors {
        hash.term(masked_query_term(
            selector,
            state.matches(selector),
            usage.field_mask(),
        ));
    }
    if footprint.reads_happened {
        hash.flag(true);
        for name in &state.happened {
            hash.text(name.as_str());
        }
    }
    hash.finish()
}

fn bench_atom_expand(c: &mut Criterion) {
    let state = todomvc_snapshot();
    let spec = todomvc_spec();
    let atoms: Vec<Thunk> = SAFETY_ATOMS
        .iter()
        .map(|name| spec.property_thunk(name).expect("safety atom exists"))
        .collect();

    c.bench_function("atom_expand_generic", |b| {
        b.iter(|| {
            let ctx = EvalCtx::with_state(&state, 100);
            for atom in &atoms {
                std::hint::black_box(
                    specstrom::expand_thunk(atom, &ctx).expect("expansion succeeds"),
                );
            }
        });
    });

    // Warm memo: key and insert every atom's expansion up front, then
    // measure the serve path — projection hash, lookup, entry clone.
    let mut keyer = AtomKeyer::new();
    let footprints: Vec<AtomFootprint> = atoms.iter().map(footprint_of_thunk).collect();
    let keys: Vec<u64> = atoms.iter().map(|a| keyer.key(a)).collect();
    let memo = AtomMemo::new(1024);
    let ctx = EvalCtx::with_state(&state, 100);
    for ((atom, key), footprint) in atoms.iter().zip(&keys).zip(&footprints) {
        let expansion = specstrom::expand_thunk(atom, &ctx).expect("expansion succeeds");
        memo.insert(
            (*key, projection_hash(footprint, &state)),
            MemoEntry::build(atom.clone(), expansion),
        );
    }

    c.bench_function("atom_expand_memo_hit", |b| {
        b.iter(|| {
            for (key, footprint) in keys.iter().zip(&footprints) {
                let entry = memo
                    .lookup((*key, projection_hash(footprint, &state)))
                    .expect("warm memo hits");
                std::hint::black_box(entry);
            }
        });
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_atom_expand
}
criterion_main!(benches);
