//! The `tables` command line: it takes no arguments, so any argument —
//! a flag, a value, a request for help — is a usage error (exit 2,
//! usage line on stderr), not a partial or empty table run.

use std::process::Command;

#[test]
fn bad_selections_are_usage_errors() {
    for args in [
        &["--object", "queue"][..],
        &["--fig", "thmC"],
        &["--csv"],
        &["--help"],
        &["--bogus"],
        &["table1"],
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
