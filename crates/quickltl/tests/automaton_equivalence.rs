//! Differential semantics harness for the evaluation automaton
//! (`quickltl::automaton`), pinning the memoized [`TransitionTable`] to
//! the formula-progression stepper and to per-prefix unroll verdicts: on
//! random formulae and random finite traces, driven with constant
//! observations, the table emits exactly the stepper's [`StepReport`] at
//! every state, the same running outcome as a fresh per-prefix
//! [`check_trace`] unroll, and the same forced end-of-trace fallback —
//! and it never interns more states than its cap.

use proptest::prelude::*;
use quickltl::automaton::canonicalize;
use quickltl::{
    check_trace, AtomId, Evaluator, Formula, Observation, Outcome, StepReport, TableError,
    TableStep, TransitionTable,
};

type F = Formula<u8>;

/// A state is a bitmask of true propositions (propositions are 0..8).
type State = u8;

fn eval(p: &u8, s: &State) -> bool {
    s & (1 << (p % 8)) != 0
}

/// Random formulae over atoms 0..4 (same generator as `properties.rs`).
fn formula(depth: u32, with_required: bool, max_demand: u32) -> BoxedStrategy<F> {
    let leaf = prop_oneof![
        (0u8..4).prop_map(Formula::Atom),
        Just(Formula::Top),
        Just(Formula::Bottom),
    ];
    leaf.prop_recursive(depth, 64, 2, move |inner| {
        let demand = 0..=max_demand;
        let unary = prop_oneof![
            inner.clone().prop_map(|f| f.not()),
            inner.clone().prop_map(Formula::weak_next),
            inner.clone().prop_map(Formula::strong_next),
            (demand.clone(), inner.clone()).prop_map(|(n, f)| Formula::always(n, f)),
            (demand.clone(), inner.clone()).prop_map(|(n, f)| Formula::eventually(n, f)),
        ];
        let binary = prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.or(b)),
            (demand.clone(), inner.clone(), inner.clone())
                .prop_map(|(n, a, b)| Formula::until(n, a, b)),
            (demand.clone(), inner.clone(), inner.clone())
                .prop_map(|(n, a, b)| Formula::release(n, a, b)),
        ];
        if with_required {
            prop_oneof![unary, binary, inner.prop_map(Formula::next)].boxed()
        } else {
            prop_oneof![unary, binary].boxed()
        }
    })
    .boxed()
}

fn trace_strategy() -> impl Strategy<Value = Vec<State>> {
    prop::collection::vec(any::<u8>(), 1..10)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The memoized transition table, driven with constant observations
    /// and explicit id ↦ atom rebinding — exactly the checker's protocol,
    /// minus thunk expansion — replays the stepper bit for bit, agrees
    /// with a from-scratch unroll of every prefix, and never interns more
    /// states than its cap.
    #[test]
    fn transition_table_matches_stepper(
        f in formula(3, true, 3),
        trace in trace_strategy(),
    ) {
        // Abstract the u8 atoms into contiguous ids, keeping bindings.
        let mut atoms: Vec<u8> = Vec::new();
        f.for_each_atom(&mut |p: &u8| {
            if !atoms.contains(p) {
                atoms.push(*p);
            }
        });
        let abstracted = f.clone().map_atoms(&mut |p| {
            atoms.iter().position(|q| *q == p).unwrap() as AtomId
        });
        let (canonical, canon_sources) = canonicalize(abstracted);
        let mut bindings: Vec<u8> = canon_sources
            .iter()
            .map(|&i| atoms[i as usize])
            .collect();
        let cap = 512;
        let mut table = TransitionTable::new(canonical, cap);
        let mut state = table.start();
        let mut stepper = Evaluator::new(f.clone());
        let mut done: Option<bool> = None;
        let mut overflowed = false;
        for (k, s) in trace.iter().enumerate() {
            let e = stepper
                .observe(&mut |p| Ok::<_, std::convert::Infallible>(eval(p, s)))
                .unwrap();
            if overflowed {
                continue; // cap hit: the checker would have fallen back
            }
            let a = if let Some(b) = done {
                StepReport::Definitive(b)
            } else {
                let obs: Observation = table
                    .live_atoms(state)
                    .iter()
                    .map(|&id| (id, Formula::constant(eval(&bindings[id as usize], s))))
                    .collect();
                match table.step(state, &obs) {
                    Ok((TableStep::Done(b), _)) => {
                        done = Some(b);
                        StepReport::Definitive(b)
                    }
                    Ok((TableStep::Goto { state: next, presumptive, sources }, _)) => {
                        bindings = sources
                            .iter()
                            .map(|&src| bindings[src as usize])
                            .collect();
                        state = next;
                        StepReport::Continue { presumptive }
                    }
                    Err(TableError::CapExceeded { .. }) => {
                        overflowed = true;
                        continue;
                    }
                    Err(e) => {
                        prop_assert!(false, "constant observations under-saturated: {}", e);
                        unreachable!()
                    }
                }
            };
            prop_assert_eq!(a, e, "table diverged from stepper on {:?} for {}", trace, f);
            // The running outcome equals a from-scratch unroll of the
            // prefix observed so far.
            let oracle = check_trace(f.clone(), &trace[..=k], &mut |p, s| {
                Ok::<_, std::convert::Infallible>(eval(p, s))
            })
            .unwrap();
            prop_assert_eq!(
                a.outcome(),
                oracle,
                "outcome != prefix unroll after {} states of {:?} for {}",
                k + 1,
                trace,
                f
            );
            // Forced stops agree at every intermediate point too,
            // mirroring `Evaluator::forced_outcome`: the last report's
            // regular outcome when it yields one, otherwise the state's
            // end-of-trace default. The table keeps residuals
            // un-resimplified (beyond renaming), so its defaults are the
            // stepper's exactly.
            let forced = match a.outcome() {
                Outcome::Verdict(v) => Outcome::Verdict(v),
                Outcome::MoreStatesNeeded => Outcome::Verdict(quickltl::Verdict::presumably(
                    table.forced_default(state),
                )),
            };
            prop_assert_eq!(
                forced,
                stepper.forced_outcome(),
                "forced outcome diverged on {:?} for {}",
                trace,
                f
            );
        }
        prop_assert!(
            table.state_count() <= cap,
            "table interned {} states over the {} cap",
            table.state_count(),
            cap
        );
    }
}
