//! `skewbound-serve` and `skewbound-load` refuse, at parse time, a run
//! they could not carry out: a group that is not exactly `0..n`, a delay
//! the frame header cannot carry, a per-key load past the checker.

use std::io::Read;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

const SERVE: &str = env!("CARGO_BIN_EXE_skewbound-serve");
const LOAD: &str = env!("CARGO_BIN_EXE_skewbound-load");

/// Runs `bin` with the whitespace-separated `args` and asserts that it
/// exits 2 within two seconds with `fragment` and the usage text on
/// stderr, instead of starting to serve or load.
fn assert_rejected(bin: &str, args: &str, fragment: &str) {
    let mut child = Command::new(bin)
        .args(args.split_whitespace())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn the binary");
    let deadline = Instant::now() + Duration::from_secs(2);
    let status = loop {
        if let Some(status) = child.try_wait().expect("poll the binary") {
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
        panic!("{bin} accepted `{args}` and kept running");
    };
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .expect("piped stderr")
        .read_to_string(&mut stderr)
        .expect("read stderr");
    assert_eq!(status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains(fragment), "stderr: {stderr}");
    assert!(stderr.contains("usage:"), "stderr: {stderr}");
}

/// `--pid 0 --peer 2=…` names a two-process group without pid 1: the
/// server must exit 2 at once, naming the missing pid, instead of
/// serving until its first broadcast to pid 1 fails.
#[test]
fn a_peer_set_with_a_gap_is_rejected_at_parse_time() {
    assert_rejected(
        SERVE,
        "--pid 0 --listen 127.0.0.1:0 --peer 2=127.0.0.1:9 --object register \
         --d 20000 --u 8000 --epoch-micros 0",
        "pid 1 is missing",
    );
}

/// A frame header carries the injected delay in a `u32`: a `--d` past
/// `u32::MAX` µs would serve until the first broadcast, then panic.
#[test]
fn a_delay_the_frame_header_cannot_carry_is_rejected_at_parse_time() {
    assert_rejected(
        SERVE,
        "--pid 0 --listen 127.0.0.1:0 --peer 1=127.0.0.1:9 --object register \
         --d 5000000000 --u 1000 --epoch-micros 0",
        "u32 delay",
    );
}

/// Sessions per key times ops per session overflows `u64` here; the
/// 128-op guard must reject it, not overflow.
#[test]
fn an_overflowing_per_key_load_is_rejected_at_parse_time() {
    assert_rejected(
        LOAD,
        "--server 127.0.0.1:9 --object register --d 20000 --u 8000 \
         --ops 9223372036854775807",
        "128-op limit",
    );
}
