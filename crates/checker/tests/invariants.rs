//! Checker invariants: determinism under a fixed seed, shrink soundness
//! (a shrunk counterexample still fails and is no larger), stop-at-first-
//! failure, verdict classification, and malformed executor updates ending
//! the check with an error.

use quickstrom_apps::todomvc::{Fault, TodoMvc};
use quickstrom_apps::Counter;
use quickstrom_checker::{check_property, check_spec, CheckOptions, PipelineMode, RunResult};
use quickstrom_executor::WebExecutor;
use quickstrom_protocol::{
    CheckerMsg, ElementState, Executor, ExecutorMsg, QueryDelta, SnapshotDelta, StateSnapshot,
    StateUpdate,
};

const COUNTER_SPEC: &str = r#"
    let ~count = parseInt(`#count`.text);
    action inc!   = click!(`#increment`);
    action reset! = click!(`#reset`);
    let ~incStep {
      let old = count;
      nextW (inc! in happened && count == old + 1)
    };
    let ~resetStep = nextW (reset! in happened && count == 0);
    let ~safety = loaded? in happened && count == 0 && always (incStep || resetStep);
    check safety;
"#;

const TODOMVC_SPEC: &str = include_str!("../../../specs/todomvc.strom");

fn options(seed: u64) -> CheckOptions {
    CheckOptions::default()
        .with_tests(25)
        .with_max_actions(40)
        .with_default_demand(30)
        .with_seed(seed)
}

fn counter_executor() -> Box<dyn Executor> {
    Box::new(WebExecutor::new(Counter::new))
}

#[test]
fn reports_are_deterministic_for_a_seed() {
    let spec = specstrom::load(COUNTER_SPEC).unwrap();
    let a = check_spec(&spec, &options(11), &counter_executor).unwrap();
    let b = check_spec(&spec, &options(11), &counter_executor).unwrap();
    assert_eq!(a, b);
    let c = check_spec(&spec, &options(12), &counter_executor).unwrap();
    // Same verdicts (the app is correct), possibly different exploration.
    assert!(c.passed());
}

#[test]
fn shrunk_counterexamples_still_fail_when_replayed() {
    // A faulty TodoMVC: pending input cleared on filter change.
    let spec = specstrom::load(TODOMVC_SPEC).unwrap();
    let make = &|| -> Box<dyn Executor> {
        Box::new(WebExecutor::new(|| {
            TodoMvc::with_faults([Fault::PendingCleared])
        }))
    };
    let check = &spec.checks[0];
    let shrunk = check_property(
        &spec,
        check,
        "safety",
        &CheckOptions::default()
            .with_tests(40)
            .with_max_actions(50)
            .with_default_demand(40)
            .with_seed(3),
        make,
    )
    .unwrap();
    let cx = shrunk.counterexample().expect("fault is caught").clone();
    assert!(cx.shrunk, "shrinking ran");
    assert!(
        cx.script.len() <= 5,
        "fault 7 needs only type-then-filter: {} actions\n{cx}",
        cx.script.len()
    );
    // The shrunk script must still mention the two essential actions.
    let names: Vec<&str> = cx.script.iter().map(|a| a.name.as_str()).collect();
    assert!(names.contains(&"typeNew!"), "{names:?}");
    assert!(names.contains(&"changeFilter!"), "{names:?}");
}

#[test]
fn unshrunk_counterexamples_are_no_smaller_than_shrunk() {
    let spec = specstrom::load(TODOMVC_SPEC).unwrap();
    let run = |shrink: bool| {
        let options = CheckOptions::default()
            .with_tests(40)
            .with_max_actions(50)
            .with_default_demand(40)
            .with_seed(3)
            .with_shrink(shrink);
        let report = check_spec(&spec, &options, &|| -> Box<dyn Executor> {
            Box::new(WebExecutor::new(|| {
                TodoMvc::with_faults([Fault::PendingCleared])
            }))
        })
        .unwrap();
        report.properties[0]
            .counterexample()
            .expect("fault caught")
            .script
            .len()
    };
    let with_shrink = run(true);
    let without = run(false);
    assert!(
        with_shrink <= without,
        "shrunk {with_shrink} > raw {without}"
    );
}

#[test]
fn checking_stops_at_the_first_failing_run() {
    let spec = specstrom::load(TODOMVC_SPEC).unwrap();
    let options = CheckOptions::default()
        .with_tests(1000) // would take ages if not stopped early
        .with_max_actions(40)
        .with_default_demand(30)
        .with_seed(0)
        .with_shrink(false);
    let report = check_spec(&spec, &options, &|| -> Box<dyn Executor> {
        Box::new(WebExecutor::new(|| {
            TodoMvc::with_faults([Fault::NoCheckboxes])
        }))
    })
    .unwrap();
    let prop = &report.properties[0];
    assert!(!prop.passed());
    assert!(
        prop.runs.len() < 1000,
        "stopped after {} runs",
        prop.runs.len()
    );
    assert!(prop.runs.last().unwrap().is_failure());
    // Everything before the failure passed.
    for run in &prop.runs[..prop.runs.len() - 1] {
        assert!(matches!(run, RunResult::Passed(_)));
    }
}

#[test]
fn missing_property_is_a_check_error() {
    let spec = specstrom::load(COUNTER_SPEC).unwrap();
    let check = &spec.checks[0];
    let err =
        check_property(&spec, check, "nonexistent", &options(0), &counter_executor).unwrap_err();
    assert!(err.message.contains("nonexistent"));
}

#[test]
fn action_and_state_totals_accumulate() {
    let spec = specstrom::load(COUNTER_SPEC).unwrap();
    let report = check_spec(&spec, &options(1), &counter_executor).unwrap();
    let prop = &report.properties[0];
    // Every run contributes its loaded? state plus one per action.
    assert_eq!(prop.states_total, prop.actions_total + prop.runs.len());
}

/// An executor that answers `Start` with `loaded` and every `Act` with
/// `acted`.
struct Scripted {
    loaded: StateUpdate,
    acted: StateUpdate,
}

impl Executor for Scripted {
    fn send(&mut self, msg: CheckerMsg) -> Vec<ExecutorMsg> {
        match msg {
            CheckerMsg::Start { .. } => {
                vec![ExecutorMsg::event(
                    "loaded?",
                    Vec::new(),
                    self.loaded.clone(),
                )]
            }
            CheckerMsg::Act { .. } => vec![ExecutorMsg::acted(self.acted.clone())],
            CheckerMsg::Wait { .. } | CheckerMsg::End => Vec::new(),
        }
    }
}

#[test]
fn malformed_deltas_are_check_errors_on_both_runtimes() {
    let spec =
        specstrom::load("let ~p = always (`#a`.text == \"x\");\ncheck p with noop!;").unwrap();
    let mut base = StateSnapshot::new();
    base.insert_query("#a", vec![ElementState::with_text("x")]);
    // A delta that keeps `#a` at `len` elements without editing any.
    let delta = |state_version, len| -> StateUpdate {
        let mut delta = SnapshotDelta::diff(&base, &base, state_version);
        let edits = QueryDelta::Edits {
            len,
            changed: Vec::new(),
        };
        delta.changes.insert("#a".into(), edits);
        delta.into()
    };
    let cases = [
        // What a corrupt 49-byte reply batch decodes to.
        (
            base.clone().into(),
            delta(2, u32::MAX as usize),
            "no element for added position 1",
        ),
        // State version 2 never arrives.
        (base.clone().into(), delta(3, 1), "state version 3"),
        // No full snapshot precedes the first delta.
        (delta(1, 1), delta(2, 1), "before any full snapshot"),
    ];
    for (loaded, acted, message) in &cases {
        for pipeline in [PipelineMode::On, PipelineMode::Off] {
            let options = options(0).with_tests(2).with_pipeline(pipeline);
            let make = || -> Box<dyn Executor> {
                Box::new(Scripted {
                    loaded: loaded.clone(),
                    acted: acted.clone(),
                })
            };
            match check_spec(&spec, &options, &make) {
                Err(e) => assert!(e.message.contains(message), "{pipeline}: {e}"),
                Ok(report) => panic!("{pipeline}: expected `{message}`, got {report:?}"),
            }
        }
    }
}
