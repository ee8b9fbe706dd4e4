//! The `tables` command line: a filter value it does not know, a flag
//! with no value, or a selection that would print nothing is a usage
//! error (exit 2, usage line on stderr), not an empty table run.

use std::process::Command;

#[test]
fn bad_selections_are_usage_errors() {
    for args in [
        &["--object", "foo"][..],
        &["--fig", "nope"],
        &["--fig"],
        &["--object"],
        &["--csv", "--fig", "fig1"],
        &["--object", "queue", "--fig", "thmC"],
        &["--bogus"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_tables"))
            .args(args)
            .output()
            .expect("run the tables binary");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "tables {args:?}: {stderr}");
        assert!(
            stderr.contains("usage: tables"),
            "tables {args:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "tables {args:?} printed to stdout");
    }
}
