//! The observability differential suite: tracing/metrics on ≡ off.
//!
//! The observability layer (`quickstrom-obs`, wired through
//! `check_spec_observed`) may only *watch*: span sinks, metrics recorders
//! and failure explanations must never branch checker control flow, so a
//! check run with tracing and metrics fully enabled must produce a
//! [`Report`] bit-identical to the plain entry points — on every
//! workload, at every jobs and multiplex width, with the shrinker on.
//!
//! On top of the report pins, the suite checks the artifacts themselves:
//! every emitted track must be structurally well-formed (spans properly
//! nested, instants zero-width) with strictly monotone logical clocks —
//! proptested across random seeds, budgets, jobs and multiplex widths —
//! and failure explanations must be deterministic and name the injected
//! fault's atom.

use proptest::prelude::*;
use quickstrom::prelude::*;
use quickstrom::quickstrom_apps::{registry, Counter, EggTimer, MenuApp, Wizard, REGISTRY};
use quickstrom::quickstrom_obs::metrics::PROBE_DEPTH;
use quickstrom::specstrom;
use quickstrom::webdom::App;
use quickstrom_bench::todomvc_spec;

/// Checks `source` against `app` plain and observed (tracing + metrics
/// on), asserts the reports are bit-identical, and sanity-checks the
/// artifacts: at least one track, all well-formed, nothing dropped.
fn assert_obs_invisible<A, F>(
    source: &str,
    make_app: F,
    options: &CheckOptions,
) -> (Report, ObsArtifacts)
where
    A: App + 'static,
    F: Fn() -> A + Send + Sync + Clone + 'static,
{
    let spec = specstrom::load(source).expect("bundled spec compiles");
    let app = make_app.clone();
    let plain = check_spec(&spec, options, &move || {
        Box::new(WebExecutor::new(app.clone()))
    })
    .expect("no protocol errors");
    let (observed, artifacts) = check_spec_observed(
        &spec,
        options,
        &move || Box::new(WebExecutor::new(make_app.clone())),
        &ObsOptions::all(),
    )
    .expect("no protocol errors");
    assert_eq!(observed, plain, "observability changed the report");
    assert!(!artifacts.trace.tracks.is_empty(), "no tracks recorded");
    for track in &artifacts.trace.tracks {
        track
            .check_well_formed()
            .unwrap_or_else(|e| panic!("track {:?}: {e}", track.name));
        assert_eq!(track.dropped, 0, "track {:?} overflowed", track.name);
    }
    assert!(!artifacts.metrics.is_empty(), "no metrics recorded");
    (observed, artifacts)
}

fn quick_options() -> CheckOptions {
    CheckOptions::default()
        .with_tests(6)
        .with_max_actions(20)
        .with_default_demand(15)
        .with_seed(43)
        .with_shrink(false)
}

#[test]
fn counter_report_is_obs_invariant() {
    assert_obs_invisible(quickstrom::specs::COUNTER, Counter::new, &quick_options());
}

#[test]
fn menu_report_is_obs_invariant() {
    assert_obs_invisible(
        quickstrom::specs::MENU,
        || MenuApp::new(500),
        &quick_options(),
    );
}

#[test]
fn egg_timer_report_is_obs_invariant() {
    assert_obs_invisible(
        quickstrom::specs::EGG_TIMER,
        EggTimer::new,
        &quick_options().with_max_actions(40),
    );
}

#[test]
fn wizard_report_is_obs_invariant() {
    let (report, _) =
        assert_obs_invisible(quickstrom::specs::WIZARD, Wizard::new, &quick_options());
    assert!(report.passed(), "{report}");
}

/// The whole 43-entry registry, crossed over the runtime knobs the
/// tracing layer instruments: entry `i` runs under combination `i % 4`
/// of jobs 1/2 × multiplex 1/3, plain and observed, and the reports must
/// be bit-identical for every entry.
#[test]
fn registry_reports_identical_with_observability_enabled() {
    let spec = todomvc_spec();
    let base = CheckOptions::default()
        .with_tests(2)
        .with_max_actions(20)
        .with_default_demand(20)
        .with_seed(13)
        .with_shrink(false);
    for (i, entry) in REGISTRY.iter().enumerate() {
        let jobs = 1 + (i % 2);
        let multiplex = if (i / 2) % 2 == 0 { 1 } else { 3 };
        let options = base.clone().with_jobs(jobs).with_multiplex(multiplex);
        let make =
            move || -> Box<dyn Executor> { Box::new(WebExecutor::new(move || entry.build())) };
        let plain = check_spec(&spec, &options, &make).expect("no protocol errors");
        let (observed, artifacts) = check_spec_observed(&spec, &options, &make, &ObsOptions::all())
            .expect("no protocol errors");
        assert_eq!(
            observed, plain,
            "{} (jobs {jobs}, multiplex {multiplex}): observability changed the report",
            entry.name
        );
        for track in &artifacts.trace.tracks {
            track
                .check_well_formed()
                .unwrap_or_else(|e| panic!("{}: track {:?}: {e}", entry.name, track.name));
        }
    }
}

/// The faulty case with the shrinker on: the counterexample search and the
/// shrink replays run identically under full observability, the
/// explanation blames the atom the injected fault actually breaks (the
/// checkbox invariant reads `.toggle`), and the explanation artifact is
/// deterministic — bit-identical JSON across repeated observed checks.
#[test]
fn faulty_entry_explanation_is_deterministic_and_names_the_fault() {
    let spec = todomvc_spec();
    let entry = registry::by_name("angular2_es2015").expect("registry entry");
    let options = CheckOptions::default()
        .with_tests(20)
        .with_max_actions(40)
        .with_default_demand(30)
        .with_seed(20220322)
        .with_shrink(true)
        .with_jobs(2)
        .with_multiplex(2);
    let make = move || -> Box<dyn Executor> { Box::new(WebExecutor::new(move || entry.build())) };
    let plain = check_spec(&spec, &options, &make).expect("no protocol errors");
    let observe = || {
        check_spec_observed(&spec, &options, &make, &ObsOptions::all()).expect("no protocol errors")
    };
    let (observed, artifacts) = observe();
    assert_eq!(observed, plain, "observability changed the failing report");
    assert!(!observed.passed(), "the faulty entry must fail");

    let explanation = artifacts.explanations.first().expect("an explanation");
    assert!(
        explanation.failed_at_step.is_some(),
        "the explanation must locate the collapsing step"
    );
    assert!(
        explanation.steps.iter().flat_map(|s| &s.flips).any(
            |f| f.atom.contains(".toggle") || f.selectors.iter().any(|s| s.contains(".toggle"))
        ),
        "the explanation must name the `.toggle` atom:\n{explanation}"
    );
    let (_, again) = observe();
    assert_eq!(
        explanation.to_json(),
        again
            .explanations
            .first()
            .expect("an explanation")
            .to_json(),
        "the explanation artifact must be deterministic"
    );
}

/// Metric *counters* and the probe-depth histogram are purely logical
/// (run/state/action totals, expansions demanded per step), so — unlike
/// the latency histograms — they must be independent of the worker count:
/// recorders merge in run-index order.
#[test]
fn logical_metrics_are_jobs_invariant() {
    let spec = todomvc_spec();
    let entry = registry::by_name("vue").expect("registry entry");
    let options = CheckOptions::default()
        .with_tests(6)
        .with_max_actions(25)
        .with_default_demand(20)
        .with_seed(7)
        .with_shrink(false);
    let run = |jobs: usize| {
        let (_, artifacts) = check_spec_observed(
            &spec,
            &options.clone().with_jobs(jobs),
            &move || Box::new(WebExecutor::new(move || entry.build())),
            &ObsOptions::all(),
        )
        .expect("no protocol errors");
        artifacts.metrics
    };
    let one = run(1);
    let two = run(2);
    assert_eq!(one.counters, two.counters, "counters diverged across jobs");
    assert_eq!(
        one.histograms.get(PROBE_DEPTH),
        two.histograms.get(PROBE_DEPTH),
        "probe-depth histogram diverged across jobs"
    );
    assert!(one.counters["runs_total"] > 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Under multiplexed sessions, with random seeds, budgets, jobs and
    /// widths: every emitted track nests properly and its logical clocks
    /// are strictly monotone — every span closes after it opens, instants
    /// are zero-width, and no clock value is ever reused within a track.
    #[test]
    fn spans_nest_properly_under_the_multiplexed_pipeline(
        seed in 0u64..1000,
        tests in 1usize..5,
        multiplex in 1usize..4,
        jobs in 1usize..3,
    ) {
        let spec = specstrom::load(quickstrom::specs::COUNTER).expect("bundled spec compiles");
        let options = CheckOptions::default()
            .with_tests(tests)
            .with_max_actions(12)
            .with_default_demand(8)
            .with_seed(seed)
            .with_shrink(false)
            .with_jobs(jobs)
            .with_multiplex(multiplex);
        let (_, artifacts) = check_spec_observed(
            &spec,
            &options,
            &|| Box::new(WebExecutor::new(Counter::new)),
            &ObsOptions::all(),
        )
        .expect("no protocol errors");
        prop_assert!(!artifacts.trace.tracks.is_empty(), "no tracks recorded");
        for track in &artifacts.trace.tracks {
            prop_assert_eq!(track.dropped, 0u64, "track {} overflowed", &track.name);
            if let Err(e) = track.check_well_formed() {
                panic!("track {:?}: {e}", track.name);
            }
            let mut clocks = Vec::new();
            for event in &track.events {
                if event.instant {
                    prop_assert_eq!(
                        event.seq_open, event.seq_close,
                        "instant with width in {}", &track.name
                    );
                    clocks.push(event.seq_open);
                } else {
                    prop_assert!(
                        event.seq_open < event.seq_close,
                        "span closed before it opened in {}", &track.name
                    );
                    clocks.push(event.seq_open);
                    clocks.push(event.seq_close);
                }
            }
            let total = clocks.len();
            clocks.sort_unstable();
            clocks.dedup();
            prop_assert_eq!(clocks.len(), total, "clock value reused in {}", &track.name);
        }
    }
}
