//! The `ucp` binary's exit-code contract: `help` exits 0, an argument
//! mistake prints `error: …` plus the usage block and exits 2, and a
//! runtime failure (such as a missing file) exits 1 without the usage
//! block.

use std::process::{Command, Output};

fn ucp(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ucp"))
        .args(args)
        .output()
        .expect("the ucp binary runs")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// Exit 2, an `error:` line containing `needle`, then the usage block.
fn assert_usage_error(args: &[&str], needle: &str) {
    let out = ucp(args);
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(2), "ucp {args:?}: {err}");
    let first = err.lines().next().unwrap_or_default();
    assert!(
        first.starts_with("error: ") && first.contains(needle),
        "ucp {args:?}: {err}"
    );
    assert!(err.contains("usage: ucp"), "ucp {args:?}: {err}");
}

#[test]
fn help_exits_zero() {
    let out = ucp(&["help"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("usage: ucp"));
}

#[test]
fn unknown_flag_after_the_instance_is_a_usage_error() {
    assert_usage_error(&["solve", "exam", "--node-budget", "16"], "--node-budget");
}

#[test]
fn unknown_flag_before_the_instance_is_a_usage_error() {
    assert_usage_error(&["solve", "--node-budget", "16", "exam"], "--node-budget");
}

#[test]
fn unknown_flags_are_refused_by_every_subcommand() {
    assert_usage_error(&["batch", "easy", "--node-budget", "16"], "--node-budget");
    assert_usage_error(&["trace", "t.jsonl", "--bogus"], "--bogus");
    assert_usage_error(&["minimize", "f.pla", "--bogus"], "--bogus");
}

#[test]
fn preset_without_a_value_is_a_usage_error() {
    assert_usage_error(&["solve", "exam", "--preset"], "--preset");
}

#[test]
fn unknown_suite_is_a_usage_error() {
    assert_usage_error(&["batch", "impossible"], "impossible");
}

#[test]
fn missing_file_is_a_runtime_failure_without_usage() {
    for args in [
        ["solve", "no/such/instance.ucp"],
        ["minimize", "no/such/function.pla"],
    ] {
        let out = ucp(&args);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(1), "ucp {args:?}: {err}");
        assert!(err.starts_with("error: "), "ucp {args:?}: {err}");
        assert!(!err.contains("usage:"), "ucp {args:?}: {err}");
    }
}
