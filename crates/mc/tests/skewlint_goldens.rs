//! The certificate artefacts, byte for byte: `skewlint --out DIR --trace
//! DIR/foil.trace.jsonl` must end with `skewlint: OK` and write exactly
//! the committed files in `tests/golden/`, on a one-worker and on a
//! two-worker exploration pool.

use std::path::Path;
use std::process::Command;

const GOLDENS: [&str; 4] = [
    "local_first_register.json",
    "eager_queue.json",
    "honest.trace.jsonl",
    "foil.trace.jsonl",
];

#[test]
fn skewlint_artefacts_match_the_committed_goldens() {
    let golden_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    for threads in ["1", "2"] {
        let out_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("skewlint-t{threads}"));
        let _ = std::fs::remove_dir_all(&out_dir);
        let out = Command::new(env!("CARGO_BIN_EXE_skewlint"))
            .arg("--out")
            .arg(&out_dir)
            .arg("--trace")
            .arg(out_dir.join("foil.trace.jsonl"))
            .env("SKEWBOUND_THREADS", threads)
            .output()
            .expect("run the skewlint binary");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success() && stdout.lines().last() == Some("skewlint: OK"),
            "skewlint with SKEWBOUND_THREADS={threads} failed:\n{stdout}"
        );
        for name in GOLDENS {
            let written = std::fs::read(out_dir.join(name)).expect("skewlint wrote the file");
            let golden = std::fs::read(golden_dir.join(name)).expect("the golden is committed");
            assert!(
                written == golden,
                "{name} with SKEWBOUND_THREADS={threads} differs from tests/golden/{name}; \
                 regenerate the goldens with `cargo run --release -p skewbound-mc --bin \
                 skewlint -- --out crates/mc/tests/golden --trace \
                 crates/mc/tests/golden/foil.trace.jsonl` and review the diff"
            );
        }
    }
}
