//! Tables I–IV and the figure experiments, byte for byte: the `tables`
//! binary's full output must equal the committed `tables_output.txt`,
//! sequentially and on a forced four-worker pool.

use std::process::Command;

fn tables_stdout(var: &str, value: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_tables"))
        .env_remove("SKEWBOUND_PAR")
        .env_remove("SKEWBOUND_THREADS")
        .env(var, value)
        .output()
        .expect("run the tables binary");
    assert!(out.status.success(), "tables exited with {}", out.status);
    String::from_utf8(out.stdout).expect("tables prints UTF-8")
}

#[test]
fn tables_output_matches_the_committed_artefact() {
    let golden = include_str!("../../../tables_output.txt");
    for (var, value) in [("SKEWBOUND_PAR", "0"), ("SKEWBOUND_THREADS", "4")] {
        assert!(
            tables_stdout(var, value) == golden,
            "tables output with {var}={value} differs from tables_output.txt; \
             regenerate it with `cargo run --release --bin tables > tables_output.txt`"
        );
    }
}
