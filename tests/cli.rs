//! Argument handling of the `symbi optimize` front end: every flag it
//! does not know, and every value it no longer accepts, fails the run
//! with exit code 1 instead of being ignored.

use std::process::{Command, Output};

fn optimize(flags: &[&str]) -> Output {
    let input = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/corpus/toggle.aag");
    Command::new(env!("CARGO_BIN_EXE_symbi"))
        .arg("optimize")
        .arg(input)
        .args(flags)
        .output()
        .expect("the symbi binary runs")
}

fn assert_rejected(flags: &[&str], message: &str) {
    let out = optimize(flags);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(1),
        "{flags:?} must exit 1; stderr: {stderr}"
    );
    assert!(
        stderr.contains(message),
        "{flags:?}: expected `{message}` in: {stderr}"
    );
}

#[test]
fn unknown_flags_are_rejected() {
    assert_rejected(&["--jbos", "4"], "unknown option `--jbos`");
    assert_rejected(
        &["--jobs", "2", "--no-such-flag"],
        "unknown option `--no-such-flag`",
    );
    assert_rejected(&["--no-such-flag"], "usage:");
}

#[test]
fn removed_concurrent_kernel_flag_is_rejected() {
    assert_rejected(
        &["--shared-workers", "2"],
        "unknown option `--shared-workers`",
    );
}

#[test]
fn removed_race_backend_is_rejected() {
    assert_rejected(&["--dec-backend", "portfolio"], "(bdd|sat)");
}

#[test]
fn removed_race_fault_site_is_rejected() {
    assert_rejected(
        &["--fault-plan", "portfolio.race:1:panic"],
        "unknown fault site",
    );
}

#[test]
fn flag_without_its_value_is_rejected() {
    assert_rejected(&["--jobs"], "--jobs requires a value");
}

#[test]
fn valid_invocation_succeeds() {
    let out = optimize(&[
        "--jobs",
        "2",
        "--dec-backend",
        "sat",
        "--budget-steps",
        "100000",
        "--sweep",
        "--no-auto-gc",
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "valid flags must run; stderr: {stderr}"
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("mapped area"));
}
