//! `skewbound-serve` refuses a group it could not serve: the peer set
//! plus its own pid must be exactly `0..n`.

use std::io::Read;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// `--pid 0 --peer 2=…` names a two-process group without pid 1: the
/// server must exit 2 at once, naming the missing pid, instead of
/// serving until its first broadcast to pid 1 fails.
#[test]
fn a_peer_set_with_a_gap_is_rejected_at_parse_time() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_skewbound-serve"))
        .args(["--pid", "0", "--listen", "127.0.0.1:0"])
        .args(["--peer", "2=127.0.0.1:9"])
        .args(["--object", "register", "--d", "20000", "--u", "8000"])
        .args(["--epoch-micros", "0"])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn skewbound-serve");
    let deadline = Instant::now() + Duration::from_secs(2);
    let status = loop {
        if let Some(status) = child.try_wait().expect("poll skewbound-serve") {
            break Some(status);
        }
        if Instant::now() >= deadline {
            break None;
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    let Some(status) = status else {
        let _ = child.kill();
        let _ = child.wait();
        panic!("skewbound-serve accepted the peer set and kept serving");
    };
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .expect("piped stderr")
        .read_to_string(&mut stderr)
        .expect("read stderr");
    assert_eq!(status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("pid 1 is missing"), "stderr: {stderr}");
    assert!(stderr.contains("usage:"), "stderr: {stderr}");
}
