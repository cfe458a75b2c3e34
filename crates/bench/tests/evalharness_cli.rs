//! The evaluation harness's command line: anything it does not
//! understand — an unknown command or flag, a flag missing its value, a
//! number that does not parse, or an engine flag that no longer exists —
//! exits with code 2 before any work starts, instead of silently running
//! something else.

use std::process::{Command, Output};

fn evalharness(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_evalharness"))
        .args(args)
        .output()
        .expect("evalharness runs")
}

fn assert_rejected(args: &[&str], complaint: &str) {
    let output = evalharness(args);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains(complaint), "{args:?}: {stderr}");
    assert!(output.stdout.is_empty(), "{args:?} did work before failing");
}

#[test]
fn unknown_command_is_rejected() {
    assert_rejected(&["tabel1"], "unknown command");
}

#[test]
fn unknown_flag_is_rejected() {
    assert_rejected(&["lint", "--no-such-flag"], "--no-such-flag");
}

#[test]
fn flag_without_value_is_rejected() {
    assert_rejected(&["lint", "--json"], "--json requires a value");
    assert_rejected(
        &["table1", "--json", "--jobs", "2"],
        "--json requires a value",
    );
}

#[test]
fn unparsable_numbers_are_rejected() {
    assert_rejected(&["table1", "--tests", "abc"], "--tests");
    assert_rejected(&["table1", "--jobs", "x"], "--jobs");
    assert_rejected(&["table1", "--pipeline-depth", "-1"], "--pipeline-depth");
}

#[test]
fn deleted_engine_flags_are_rejected() {
    for args in [
        &["table1", "--eval-mode", "stepper"][..],
        &["table1", "--atom-cache", "off"],
        &["table1", "--step-memo", "off"],
        &["table1", "--no-mask-atoms"],
        &["lint", "--fingerprint", "spec-aware"],
    ] {
        assert_rejected(args, args[1]);
    }
}

#[test]
fn known_command_and_flags_are_accepted() {
    let output = evalharness(&["lint", "--deny-warnings"]);
    assert!(
        output.status.success(),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(String::from_utf8_lossy(&output.stdout).contains("diagnostic(s)"));
}
