//! The formula-progression micro-benchmark: the table-driven evaluation
//! automaton vs the plain stepper.
//!
//! One "step" is one observed state pushed through the temporal skeleton.
//! The stepper re-derives the residual every time (unroll → simplify →
//! classify → step); the memoized [`TransitionTable`] — what the checker
//! actually uses — pays the stepper price on a miss and a hash lookup on
//! a hit. The two are pinned semantically by `automaton_equivalence.rs`
//! and the `differential_automaton` suite; this benchmark quantifies the
//! gap. The `ltl_step_check_*` pair measures the difference end to end
//! through a real checking session: the production checker against the
//! reference checker (`quickstrom_checker::oracle`), which steps the
//! plain stepper and expands every atom afresh.

use criterion::{criterion_group, criterion_main, Criterion};
use quickstrom::prelude::*;
use quickstrom::quickltl::automaton::canonicalize;
use quickstrom::quickltl::{AtomId, Evaluator, Observation, TableStep, TransitionTable};
use quickstrom::quickstrom_apps::Counter;
use quickstrom::quickstrom_checker::{oracle, CheckError, MakeExecutor};

/// The benchmark formula: a safety/response skeleton in the shape the
/// bundled specs use — `□₅₀ (a → ◇₁₀ b) ∧ □₅₀ ¬c` over three atoms.
fn skeleton() -> Formula<u8> {
    Formula::always(
        50u32,
        Formula::atom(0u8).implies(Formula::eventually(10u32, Formula::atom(1u8))),
    )
    .and(Formula::always(50u32, Formula::atom(2u8).not()))
}

/// A deterministic 100-state trace of valuation bitsets: `a` holds on
/// every third state, `b` two states later, `c` never — so obligations
/// are constantly spawned and discharged without a definitive verdict.
fn trace() -> Vec<u8> {
    (0..100u32)
        .map(|i| u8::from(i % 3 == 0) | (u8::from(i % 3 == 2) << 1))
        .collect()
}

fn eval(p: u8, s: u8) -> bool {
    s & (1 << p) != 0
}

fn bench_ltl_step(c: &mut Criterion) {
    let formula = skeleton();
    let states = trace();

    c.bench_function("ltl_step_stepper", |b| {
        b.iter(|| {
            let mut ev = Evaluator::new(formula.clone());
            for s in &states {
                ev.observe(&mut |p| Ok::<_, std::convert::Infallible>(eval(*p, *s)))
                    .expect("infallible");
            }
            std::hint::black_box(ev.forced_outcome())
        });
    });

    // The memoized table, pre-warmed: steady-state checking where every
    // transition is a hit (the checker shares one table per property
    // across all runs, so after the first run this is the common case).
    let (canonical, sources) = canonicalize(formula.map_atoms(&mut |p| AtomId::from(p)));
    let drive = |table: &mut TransitionTable, bindings0: &[u8]| {
        let mut state = table.start();
        let mut bindings = bindings0.to_vec();
        for s in &states {
            let obs: Observation = table
                .live_atoms(state)
                .iter()
                .map(|&id| {
                    #[allow(clippy::cast_possible_truncation)]
                    let atom = bindings[id as usize];
                    (id, Formula::constant(eval(atom, *s)))
                })
                .collect();
            match table.step(state, &obs).expect("within cap") {
                (TableStep::Done(_), _) => break,
                (
                    TableStep::Goto {
                        state: next,
                        sources,
                        ..
                    },
                    _,
                ) => {
                    bindings = sources.iter().map(|&i| bindings[i as usize]).collect();
                    state = next;
                }
            }
        }
        state
    };
    #[allow(clippy::cast_possible_truncation)]
    let bindings0: Vec<u8> = sources.iter().map(|&i| i as u8).collect();
    let mut table = TransitionTable::new(canonical, 4096);
    drive(&mut table, &bindings0); // warm: every subsequent pass hits
    c.bench_function("ltl_step_transition_table", |b| {
        b.iter(|| std::hint::black_box(drive(&mut table, &bindings0)));
    });

    // End to end: a full checking session on the counter app through the
    // production checker and through the reference checker (everything
    // else — seeds, actions, one session at a time — identical; so is the
    // report, by the differential suite).
    type Check = fn(&CompiledSpec, &CheckOptions, MakeExecutor<'_>) -> Result<Report, CheckError>;
    let spec = std::sync::Arc::new(load(quickstrom::specs::COUNTER).expect("spec compiles"));
    let options = CheckOptions::default()
        .with_tests(3)
        .with_max_actions(30)
        .with_default_demand(25)
        .with_seed(11)
        .with_shrink(false);
    for (name, check) in [
        ("ltl_step_check_automaton", check_spec as Check),
        ("ltl_step_check_stepper", oracle::check_spec as Check),
    ] {
        let spec = std::sync::Arc::clone(&spec);
        let options = options.clone();
        c.bench_function(name, move |b| {
            b.iter(|| {
                let report = check(&spec, &options, &|| {
                    Box::new(WebExecutor::new(Counter::new))
                })
                .expect("no protocol errors");
                assert!(report.passed());
                std::hint::black_box(report)
            });
        });
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_ltl_step
}
criterion_main!(benches);
