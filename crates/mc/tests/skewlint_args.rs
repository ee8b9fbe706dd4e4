//! `skewlint audit --window D,U` accepts only windows the timing model
//! admits, `0 ≤ U ≤ D`: any other pair names no delay interval
//! `[D − U, D]` inside `[0, D]`, so an audit under it proves nothing.

use std::process::{Command, Output};

const SKEWLINT: &str = env!("CARGO_BIN_EXE_skewlint");
const HONEST_TRACE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/honest.trace.jsonl"
);

fn audit(window: &str) -> Output {
    Command::new(SKEWLINT)
        .args(["audit", HONEST_TRACE, "--window", window])
        .output()
        .expect("run skewlint")
}

/// Asserts that `skewlint` refuses `window` with a failing exit, the
/// usage line on stderr and no audit verdict on stdout.
fn assert_rejected(window: &str) {
    let out = audit(window);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{window}: stderr: {stderr}");
    assert!(stderr.contains("usage:"), "{window}: stderr: {stderr}");
    assert!(!stdout.contains("audit:"), "{window}: stdout: {stdout}");
}

/// `9000,12000` puts the window's lower end below zero, `-5,3` names a
/// negative delay, and `D − U` overflows `i64` on the last pair: each
/// must be refused, not wrapped into a vacuous window or overflowed.
#[test]
fn windows_the_model_forbids_are_rejected() {
    for window in ["9000,12000", "-5,3", "9223372036854775807,-1"] {
        assert_rejected(window);
    }
}

/// The window the honest trace was recorded under still audits clean.
#[test]
fn the_model_window_audits_the_honest_trace_clean() {
    let out = audit("9000,2400");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.lines().any(|l| l == "audit: OK"), "stdout: {stdout}");
}
