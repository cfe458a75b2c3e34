//! Explainable failure reports.
//!
//! A [`FailureExplanation`] is the machine-readable account of *why* a
//! property failed: the path the residual formula (equivalently, the
//! automaton state) took over the final — already shrunk — trace, which
//! atom valuations flipped at each transition (with the DOM selectors each
//! atom reads, from the spec's footprint analysis), and the step at which
//! the residual collapsed to `False`.
//!
//! This module holds only the data model and its renderings. The checker
//! crate builds explanations by replaying the counterexample trace through
//! a fresh formula stepper (`quickstrom_checker::explain`); keeping the
//! construction there avoids a dependency cycle and keeps this crate
//! dependency-free.
//!
//! Everything here is **logical**: step indices, state ids, atom texts.
//! No wall-clock values appear, so explanations are bit-reproducible
//! across machines, jobs settings, and multiplex widths.

use std::fmt;
use std::fmt::Write as _;

use crate::export::json_escape;

/// One atom whose valuation changed at a transition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AtomFlip {
    /// The atom's pretty-printed source form.
    pub atom: String,
    /// Valuation in the previous state (`None` when the atom was not
    /// requested there, or did not reduce to a boolean).
    pub before: Option<bool>,
    /// Valuation in this state.
    pub after: Option<bool>,
    /// The DOM selectors the atom's footprint reads, in deterministic
    /// order.
    pub selectors: Vec<String>,
}

/// One transition of the failing run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StepExplanation {
    /// Zero-based index of the observed state.
    pub step: usize,
    /// The actions recorded as having happened entering this state.
    pub happened: Vec<String>,
    /// Residual-state id before ingesting this state (index into
    /// [`FailureExplanation::states`]).
    pub from_state: usize,
    /// Residual-state id after ingesting this state.
    pub to_state: usize,
    /// Atoms whose valuations changed versus the previous state.
    pub flips: Vec<AtomFlip>,
    /// The stepper's outcome label for this transition:
    /// `"continue"`, `"presumably true"`, `"presumably false"`,
    /// `"definitely true"`, or `"definitely false"`.
    pub outcome: String,
}

/// The full explanation artifact for one failing (or forced) property.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailureExplanation {
    /// The property name (`check`ed formula) this explains.
    pub property: String,
    /// The final verdict being explained (`false` for genuine failures).
    pub verdict: bool,
    /// Was the verdict forced at trace end from a presumptive residual?
    pub forced: bool,
    /// Was the explained trace produced by shrinking?
    pub shrunk: bool,
    /// The step index where the residual became definitively `False`
    /// (`None` for forced verdicts, which never collapse).
    pub failed_at_step: Option<usize>,
    /// Interned residual pretty-prints; `StepExplanation::{from,to}_state`
    /// index into this table. State 0 is the initial formula.
    pub states: Vec<String>,
    /// One entry per observed state of the trace.
    pub steps: Vec<StepExplanation>,
}

impl FailureExplanation {
    /// The atoms that flipped on the failing transition itself (empty for
    /// forced verdicts).
    #[must_use]
    pub fn failing_flips(&self) -> &[AtomFlip] {
        match self.failed_at_step {
            Some(step) => self
                .steps
                .iter()
                .find(|s| s.step == step)
                .map(|s| s.flips.as_slice())
                .unwrap_or(&[]),
            None => &[],
        }
    }

    /// Renders the explanation as a JSON document (hand-rolled, matching
    /// the dialect of the bench harness's writers).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"property\": \"{}\",", json_escape(&self.property));
        let _ = writeln!(out, "  \"verdict\": {},", self.verdict);
        let _ = writeln!(out, "  \"forced\": {},", self.forced);
        let _ = writeln!(out, "  \"shrunk\": {},", self.shrunk);
        match self.failed_at_step {
            Some(step) => {
                let _ = writeln!(out, "  \"failed_at_step\": {step},");
            }
            None => {
                let _ = writeln!(out, "  \"failed_at_step\": null,");
            }
        }
        out.push_str("  \"states\": [\n");
        for (i, state) in self.states.iter().enumerate() {
            let comma = if i + 1 < self.states.len() { "," } else { "" };
            let _ = writeln!(out, "    \"{}\"{comma}", json_escape(state));
        }
        out.push_str("  ],\n");
        out.push_str("  \"steps\": [\n");
        for (i, step) in self.steps.iter().enumerate() {
            out.push_str("    {");
            let _ = write!(out, "\"step\": {}, ", step.step);
            out.push_str("\"happened\": [");
            for (j, a) in step.happened.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "\"{}\"", json_escape(a));
            }
            out.push_str("], ");
            let _ = write!(
                out,
                "\"from_state\": {}, \"to_state\": {}, \"outcome\": \"{}\", ",
                step.from_state,
                step.to_state,
                json_escape(&step.outcome)
            );
            out.push_str("\"flips\": [");
            for (j, flip) in step.flips.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "{{\"atom\": \"{}\", ", json_escape(&flip.atom));
                let fmt_val = |v: Option<bool>| match v {
                    Some(true) => "true",
                    Some(false) => "false",
                    None => "null",
                };
                let _ = write!(
                    out,
                    "\"before\": {}, \"after\": {}, ",
                    fmt_val(flip.before),
                    fmt_val(flip.after)
                );
                out.push_str("\"selectors\": [");
                for (k, sel) in flip.selectors.iter().enumerate() {
                    if k > 0 {
                        out.push_str(", ");
                    }
                    let _ = write!(out, "\"{}\"", json_escape(sel));
                }
                out.push_str("]}");
            }
            out.push_str("]}");
            out.push_str(if i + 1 < self.steps.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// The terminal rendering: a readable per-step account, flips annotated
/// with their selectors, and the failing transition called out.
impl fmt::Display for FailureExplanation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "property `{}` {}{}",
            self.property,
            if self.verdict { "passed" } else { "failed" },
            if self.forced {
                " (verdict forced at trace end)"
            } else {
                ""
            }
        )?;
        if self.shrunk {
            writeln!(f, "  (trace shown after shrinking)")?;
        }
        for step in &self.steps {
            let marker = if Some(step.step) == self.failed_at_step {
                " ✗"
            } else {
                ""
            };
            let happened = if step.happened.is_empty() {
                "(initial state)".to_string()
            } else {
                step.happened.join(", ")
            };
            writeln!(
                f,
                "  step {:>3}{marker}: {happened} — state {} → {} [{}]",
                step.step, step.from_state, step.to_state, step.outcome
            )?;
            for flip in &step.flips {
                let render = |v: Option<bool>| match v {
                    Some(true) => "true",
                    Some(false) => "false",
                    None => "?",
                };
                write!(
                    f,
                    "      {} : {} → {}",
                    flip.atom,
                    render(flip.before),
                    render(flip.after)
                )?;
                if flip.selectors.is_empty() {
                    writeln!(f)?;
                } else {
                    writeln!(f, "   (reads {})", flip.selectors.join(", "))?;
                }
            }
        }
        match self.failed_at_step {
            Some(step) => writeln!(f, "  residual collapsed to False at step {step}"),
            None => writeln!(f, "  no collapsing step (presumptive residual forced)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> FailureExplanation {
        FailureExplanation {
            property: "safety".into(),
            verdict: false,
            forced: false,
            shrunk: true,
            failed_at_step: Some(1),
            states: vec!["always p".into(), "false".into()],
            steps: vec![
                StepExplanation {
                    step: 0,
                    happened: vec!["loaded?".into()],
                    from_state: 0,
                    to_state: 0,
                    flips: vec![],
                    outcome: "continue".into(),
                },
                StepExplanation {
                    step: 1,
                    happened: vec!["addNew!".into()],
                    from_state: 0,
                    to_state: 1,
                    flips: vec![AtomFlip {
                        atom: "`.toggle`.count == numItems".into(),
                        before: Some(true),
                        after: Some(false),
                        selectors: vec![".toggle".into(), ".todo-list li".into()],
                    }],
                    outcome: "definitely false".into(),
                },
            ],
        }
    }

    #[test]
    fn failing_flips_come_from_the_failing_step() {
        let ex = sample();
        let flips = ex.failing_flips();
        assert_eq!(flips.len(), 1);
        assert_eq!(flips[0].after, Some(false));
    }

    #[test]
    fn json_contains_the_flip_and_is_balanced() {
        let json = sample().to_json();
        assert!(json.contains("\"failed_at_step\": 1"));
        assert!(json.contains("`.toggle`.count == numItems"));
        assert!(json.contains("\".toggle\""));
        let opens = json.matches(['{', '[']).count();
        let closes = json.matches(['}', ']']).count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn display_marks_the_failing_step() {
        let text = sample().to_string();
        assert!(text.contains("step   1 ✗"));
        assert!(text.contains("reads .toggle"));
        assert!(text.contains("collapsed to False at step 1"));
    }
}
