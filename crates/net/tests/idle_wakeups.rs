//! An idle `skewbound-serve` sleeps: once its last operation's timers
//! have fired, it does not wake until something arrives. A replica's
//! only scheduled work is its timers, and the node thread blocks on its
//! own sockets. And it runs one thread, whatever the number of peers and
//! sessions: the node thread, which dials and writes its peers and
//! accepts and reads every inbound connection itself.
//!
//! The count is the kernel's `voluntary_ctxt_switches` summed over one
//! server's threads (`/proc/PID/task/*/status`), so the test runs only
//! where that file exists. It has a binary of its own so that no other
//! test's threads run in the process it measures.

use std::net::{SocketAddr, TcpListener};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::thread;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use skewbound_net::runtime::NetClient;
use skewbound_spec::namespace::NsOp;
use skewbound_spec::register::{RegOp, RegResp};

const SERVE: &str = env!("CARGO_BIN_EXE_skewbound-serve");

/// The idle window the wake-ups are counted over.
const WINDOW: Duration = Duration::from_millis(500);
/// The most wake-ups one idle server may take in [`WINDOW`]: stray
/// kernel or allocator work, nothing periodic.
const MAX_WAKEUPS: u64 = 20;

/// Kills and reaps every server still running, also on a failed
/// assertion.
struct Servers(Vec<Child>);

impl Drop for Servers {
    fn drop(&mut self) {
        for child in &mut self.0 {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Three free loopback addresses: each bound once on port 0, then freed
/// for a server to bind.
fn free_addrs() -> Vec<SocketAddr> {
    let listeners: Vec<TcpListener> = (0..3)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind port 0"))
        .collect();
    listeners
        .iter()
        .map(|l| l.local_addr().expect("bound address"))
        .collect()
}

/// Connects to `addr`, retrying while the server starts.
fn connect(addr: SocketAddr) -> NetClient {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        match NetClient::connect(addr) {
            Ok(client) => return client,
            Err(e) if Instant::now() >= deadline => panic!("connect to {addr}: {e}"),
            Err(_) => thread::sleep(Duration::from_millis(10)),
        }
    }
}

/// The number of threads of process `pid`.
fn threads(pid: u32) -> usize {
    let tasks = std::fs::read_dir(format!("/proc/{pid}/task")).expect("read the task list");
    tasks.count()
}

/// The voluntary context switches of every thread of process `pid`.
fn voluntary_switches(pid: u32) -> u64 {
    let tasks = std::fs::read_dir(format!("/proc/{pid}/task")).expect("read the task list");
    tasks
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("status")).ok())
        .filter_map(|status| {
            let line = status
                .lines()
                .find(|l| l.starts_with("voluntary_ctxt_switches:"))?;
            line.split_whitespace().nth(1)?.parse::<u64>().ok()
        })
        .sum()
}

#[test]
fn an_idle_server_takes_no_periodic_wakeups() {
    if !Path::new("/proc/self/task").is_dir() {
        eprintln!("skipped: no /proc/self/task to count context switches in");
        return;
    }
    let addrs = free_addrs();
    let epoch = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .expect("clock after the epoch")
        .as_micros()
        .to_string();
    let mut servers = Servers(Vec::new());
    for (i, addr) in addrs.iter().enumerate() {
        let mut cmd = Command::new(SERVE);
        cmd.args(["--pid", &i.to_string(), "--listen", &addr.to_string()]);
        for (j, peer) in addrs.iter().enumerate().filter(|&(j, _)| j != i) {
            cmd.args(["--peer", &format!("{j}={peer}")]);
        }
        cmd.args(["--object", "register", "--d", "20000", "--u", "8000"])
            .args([
                "--epoch-micros",
                &epoch,
                "--seed",
                "7",
                "--headroom",
                "7000",
            ])
            .stdout(Stdio::null())
            .stderr(Stdio::null());
        servers.0.push(cmd.spawn().expect("spawn skewbound-serve"));
    }

    // One write through server 0 connects the whole mesh and arms
    // every replica's timers.
    let mut client = connect(addrs[0]);
    let resp: RegResp<i64> = client
        .invoke(&NsOp::new(0, RegOp::Write(1_i64)))
        .expect("the write completes");
    assert!(
        matches!(resp, RegResp::Ack),
        "a write answers Ack: {resp:?}"
    );
    // With two peers connected and a client session open: the node
    // thread alone.
    let server = servers.0[0].id();
    assert_eq!(threads(server), 1, "a server runs the node thread alone");
    drop(client);
    // Its last timer fires by d + eps after the write, its last
    // delivery by d after the last send: 200 ms covers both.
    thread::sleep(Duration::from_millis(200));

    let before = voluntary_switches(server);
    thread::sleep(WINDOW);
    let after = voluntary_switches(server);
    let wakeups = after.saturating_sub(before);

    assert!(
        wakeups <= MAX_WAKEUPS,
        "an idle server woke {wakeups} times in {WINDOW:?} (at most {MAX_WAKEUPS})"
    );

    // And a sleeping server still drains and exits on Bye.
    for addr in &addrs {
        connect(*addr).bye().expect("send Bye");
    }
    let deadline = Instant::now() + Duration::from_secs(5);
    for child in &mut servers.0 {
        while child.try_wait().expect("poll a server").is_none() {
            assert!(Instant::now() < deadline, "a server did not exit after Bye");
            thread::sleep(Duration::from_millis(10));
        }
    }
}
