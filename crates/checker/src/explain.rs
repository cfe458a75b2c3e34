//! Builds [`FailureExplanation`]s: *why* did a property fail?
//!
//! The builder replays the recorded (already shrunk) counterexample trace
//! through a fresh formula stepper — the plain [`Evaluator`], never the
//! automaton, so every atom the residual demands is expanded and can be
//! classified. Per transition it records:
//!
//! * the residual formula before and after (interned into a state table,
//!   so the path reads like an automaton walk),
//! * every requested atom's truth value (when its expansion simplifies to
//!   `Top`/`Bottom`) plus the DOM selectors its static footprint reads,
//! * which of those valuations *flipped* versus the previous state,
//! * the stepper's outcome, and the step where the residual collapsed to
//!   definitively `False`.
//!
//! The replay is deterministic — it consumes only the recorded trace —
//! and contains no wall-clock values, so explanations are bit-identical
//! across jobs settings, multiplex widths and machines.

use crate::options::CheckOptions;
use crate::report::Counterexample;
use crate::runner::CheckError;
use quickltl::{simplify, Evaluator, Formula, StepReport};
use quickstrom_obs::{AtomFlip, FailureExplanation, StepExplanation};
use specstrom::{expand_thunk, footprint_of_thunk, CompiledSpec, EvalCtx, Thunk};
use std::collections::BTreeMap;

/// Per-step atom record: pretty-printed atom → (truth value, selectors).
type AtomVals = BTreeMap<String, (Option<bool>, Vec<String>)>;

/// The truth value of an atom's expansion, when it reduces to one. An
/// expansion that keeps temporal structure (`next …`) has no state-local
/// truth value and classifies as `None`.
fn truth_of(expansion: &Formula<Thunk>) -> Option<bool> {
    match simplify(expansion.clone()) {
        Formula::Top => Some(true),
        Formula::Bottom => Some(false),
        _ => None,
    }
}

fn outcome_label(report: &StepReport) -> String {
    match report {
        StepReport::Continue { presumptive: None } => "continue",
        StepReport::Continue {
            presumptive: Some(true),
        } => "presumably true",
        StepReport::Continue {
            presumptive: Some(false),
        } => "presumably false",
        StepReport::Definitive(true) => "definitely true",
        StepReport::Definitive(false) => "definitely false",
    }
    .to_owned()
}

fn intern(states: &mut Vec<String>, rendered: String) -> usize {
    match states.iter().position(|s| *s == rendered) {
        Some(i) => i,
        None => {
            states.push(rendered);
            states.len() - 1
        }
    }
}

/// Explains one counterexample: replays its trace through a fresh stepper
/// and assembles the state path, per-transition atom flips (with footprint
/// selectors) and the collapsing step.
///
/// # Errors
///
/// Returns [`CheckError`] when the property is unknown or an atom
/// expansion fails — both impossible for a counterexample the checker
/// itself produced, but surfaced rather than swallowed.
pub fn explain_failure(
    spec: &CompiledSpec,
    property_name: &str,
    cx: &Counterexample,
    options: &CheckOptions,
) -> Result<FailureExplanation, CheckError> {
    let property = spec
        .property_thunk(property_name)
        .ok_or_else(|| CheckError::new(format!("unknown property `{property_name}`")))?;
    let mut ev = Evaluator::new(Formula::Atom(property));
    let mut states: Vec<String> = Vec::new();
    let initial = ev
        .residual()
        .map(|f| f.to_string())
        .unwrap_or_else(|| "true".to_owned());
    let mut from_state = intern(&mut states, initial);
    let mut prev_vals = AtomVals::new();
    let mut steps = Vec::new();
    let mut failed_at = None;
    for (i, entry) in cx.trace.iter().enumerate() {
        let ctx = EvalCtx::with_state(&entry.state, options.default_demand);
        let mut vals = AtomVals::new();
        let report = ev
            .observe_expanding(&mut |t: &Thunk| {
                let expansion = expand_thunk(t, &ctx)?;
                let footprint = footprint_of_thunk(t);
                let selectors: Vec<String> =
                    footprint.selectors.keys().map(|s| s.to_string()).collect();
                vals.insert(t.to_string(), (truth_of(&expansion), selectors));
                Ok::<_, specstrom::EvalError>(expansion)
            })
            .map_err(CheckError::from)?;
        let rendered = match (&report, ev.residual()) {
            (_, Some(f)) => f.to_string(),
            (StepReport::Definitive(b), None) => b.to_string(),
            (_, None) => "(done)".to_owned(),
        };
        let to_state = intern(&mut states, rendered);
        let mut flips = Vec::new();
        for (atom, (after, selectors)) in &vals {
            let before = prev_vals.get(atom).and_then(|(v, _)| *v);
            if before != *after {
                flips.push(AtomFlip {
                    atom: atom.clone(),
                    before,
                    after: *after,
                    selectors: selectors.clone(),
                });
            }
        }
        if matches!(report, StepReport::Definitive(false)) && failed_at.is_none() {
            failed_at = Some(i);
        }
        steps.push(StepExplanation {
            step: i,
            happened: entry
                .state
                .happened
                .iter()
                .map(|s| s.as_str().to_owned())
                .collect(),
            from_state,
            to_state,
            flips,
            outcome: outcome_label(&report),
        });
        let done = matches!(report, StepReport::Definitive(_));
        prev_vals = vals;
        from_state = to_state;
        if done {
            break;
        }
    }
    Ok(FailureExplanation {
        property: property_name.to_owned(),
        verdict: cx.verdict.to_bool(),
        forced: cx.forced,
        shrunk: cx.shrunk,
        failed_at_step: failed_at,
        states,
        steps,
    })
}
