//! Orchestration of one three-process `skewbound-serve` mesh on
//! loopback: free ports, spawn, a readiness probe over every directed
//! peer link, shutdown by `Bye`, and a guard that kills the children on
//! every exit path.

use std::io::{self, Read};
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use skewbound_core::params::Params;
use skewbound_net::runtime::{NetClient, TimeBase};
use skewbound_net::wire::{Decode, Encode};
use skewbound_sim::time::SimDuration;
use skewbound_spec::namespace::NsOp;

/// Replica processes per mesh.
pub const N: usize = 3;
/// How long the whole mesh may take to come up, and each server to exit.
const PATIENCE: Duration = Duration::from_secs(20);

/// The `skewbound-serve` flags shared by the three processes of a mesh.
#[derive(Debug, Clone)]
pub struct MeshConfig {
    pub object: &'static str,
    pub d: u64,
    pub u: u64,
    pub headroom: u64,
    /// `None` lets the server pick the optimal skew `(1 − 1/n)·u`.
    pub eps: Option<u64>,
    pub seed: u64,
}

impl MeshConfig {
    /// The model parameters the servers derive from the same flags
    /// (`X = 0` on every benchmark mesh).
    pub fn params(&self) -> Params {
        let (d, u) = (
            SimDuration::from_ticks(self.d),
            SimDuration::from_ticks(self.u),
        );
        match self.eps {
            Some(e) => Params::new(N, d, u, SimDuration::from_ticks(e), SimDuration::ZERO),
            None => Params::with_optimal_skew(N, d, u, SimDuration::ZERO),
        }
        .expect("benchmark mesh parameters are valid")
    }
}

/// How one server process ended.
#[derive(Debug)]
pub struct ServerExit {
    pub success: bool,
    /// The `complete=` field of the server's summary line.
    pub complete: bool,
}

/// A client connection that stamps every operation on the mesh's shared
/// timebase. The stamps of *all* operations are kept in send order: the
/// k-th stamp pairs with the k-th `invoke` event of the server's trace.
pub struct StampedClient {
    client: NetClient,
    base: TimeBase,
    pub stamps: Vec<(u64, u64)>,
}

impl StampedClient {
    /// Invokes `op` and returns the response with its send and receive
    /// ticks.
    pub fn invoke<Op: Encode, Resp: Decode>(
        &mut self,
        op: &NsOp<Op>,
    ) -> io::Result<(Resp, u64, u64)> {
        let sent = self.base.now_ticks();
        let resp = self.client.invoke(op)?;
        let received = self.base.now_ticks();
        self.stamps.push((sent, received));
        Ok((resp, sent, received))
    }
}

/// A running mesh. Dropping it kills and reaps whatever is still alive.
pub struct Mesh {
    children: Vec<Child>,
    pub trace_paths: Vec<PathBuf>,
    /// One connection per server; the load runs on 0 and 1, connection 2
    /// exists for the readiness probe and the final `Bye`.
    pub clients: Vec<StampedClient>,
    /// Spawn of the first server until the readiness probe passed.
    pub setup: Duration,
    /// The timebase the servers and the clients' stamps share.
    pub base: TimeBase,
}

impl Drop for Mesh {
    fn drop(&mut self) {
        for child in &mut self.children {
            // Errors mean the child is already gone, which is the goal.
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Three distinct loopback ports that were free a moment ago.
fn free_addrs() -> io::Result<Vec<SocketAddr>> {
    let listeners: Vec<TcpListener> = (0..N)
        .map(|_| TcpListener::bind("127.0.0.1:0"))
        .collect::<io::Result<_>>()?;
    listeners.iter().map(TcpListener::local_addr).collect()
}

/// The object-specific half of the readiness probe: a mutator that
/// leaves `value` visible on `key`, an accessor, and whether the
/// accessor's response shows the value.
pub struct Probe<Op, Resp> {
    pub write: fn(i64) -> Op,
    pub read: fn() -> Op,
    pub saw: fn(&Resp, i64) -> bool,
}

/// Keys the probe and the warm-up use; measured keys count up from 0.
pub const SCRATCH_KEYS: u64 = 1 << 40;

impl Mesh {
    /// Spawns the three servers and returns once every directed peer
    /// link has carried a write that a read at the far end observed.
    /// With `trace_stem`, server `i` writes `<stem><i>.jsonl` on exit.
    pub fn start<Op: Encode, Resp: Decode>(
        serve_bin: &Path,
        cfg: &MeshConfig,
        trace_stem: Option<&Path>,
        probe: &Probe<Op, Resp>,
    ) -> io::Result<Mesh> {
        let started = Instant::now();
        let addrs = free_addrs()?;
        let epoch = TimeBase::epoch_now_micros();
        let mut mesh = Mesh {
            children: Vec::with_capacity(N),
            trace_paths: Vec::new(),
            clients: Vec::with_capacity(N),
            setup: Duration::ZERO,
            base: TimeBase::new(epoch),
        };
        for pid in 0..N {
            let mut cmd = Command::new(serve_bin);
            cmd.args([
                "--pid",
                &pid.to_string(),
                "--listen",
                &addrs[pid].to_string(),
            ]);
            for (peer, addr) in addrs.iter().enumerate().filter(|&(p, _)| p != pid) {
                cmd.args(["--peer", &format!("{peer}={addr}")]);
            }
            cmd.args(["--object", cfg.object, "--x", "0"]);
            cmd.args(["--d", &cfg.d.to_string(), "--u", &cfg.u.to_string()]);
            cmd.args(["--headroom", &cfg.headroom.to_string()]);
            cmd.args(["--seed", &cfg.seed.to_string()]);
            cmd.args(["--epoch-micros", &epoch.to_string()]);
            if let Some(e) = cfg.eps {
                cmd.args(["--eps", &e.to_string()]);
            }
            if let Some(stem) = trace_stem {
                let path = PathBuf::from(format!("{}{pid}.jsonl", stem.display()));
                cmd.arg("--trace").arg(&path);
                mesh.trace_paths.push(path);
            }
            cmd.stdin(Stdio::null())
                .stdout(Stdio::piped())
                .stderr(Stdio::inherit());
            mesh.children.push(cmd.spawn()?);
        }

        let deadline = started + PATIENCE;
        for addr in &addrs {
            let client = loop {
                match NetClient::connect(addr) {
                    Ok(c) => break c,
                    Err(e) if Instant::now() >= deadline => return Err(e),
                    Err(_) => std::thread::sleep(Duration::from_millis(2)),
                }
            };
            mesh.clients.push(StampedClient {
                client,
                base: mesh.base,
                stamps: Vec::new(),
            });
        }

        // A listener that accepts says nothing about the peer links, and
        // an operation sent over a link that is still dialling is
        // delivered late, outside the model. So: write at every server,
        // read each write back at the other two, and repeat with fresh
        // keys until one round sees all six links deliver in time.
        let mut round = 0u64;
        loop {
            round += 1;
            let key = |writer: usize| SCRATCH_KEYS + round * N as u64 + writer as u64;
            let value = round as i64;
            for writer in 0..N {
                let op = NsOp::new(key(writer), (probe.write)(value));
                mesh.clients[writer].invoke::<Op, Resp>(&op)?;
            }
            let mut all_seen = true;
            for reader in 0..N {
                for writer in (0..N).filter(|&w| w != reader) {
                    let op = NsOp::new(key(writer), (probe.read)());
                    let (resp, _, _) = mesh.clients[reader].invoke::<Op, Resp>(&op)?;
                    all_seen &= (probe.saw)(&resp, value);
                }
            }
            if all_seen {
                break;
            }
            if Instant::now() >= deadline {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "peer links did not come up within the patience window",
                ));
            }
        }
        mesh.setup = started.elapsed();
        Ok(mesh)
    }

    /// Sum of the three servers' peak resident set sizes (`VmHWM`), in
    /// bytes; 0 where procfs does not provide it.
    pub fn peak_rss_bytes(&self) -> u64 {
        self.children
            .iter()
            .filter_map(|c| std::fs::read_to_string(format!("/proc/{}/status", c.id())).ok())
            .filter_map(|status| {
                let kb = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
                kb.trim().trim_end_matches("kB").trim().parse::<u64>().ok()
            })
            .map(|kb| kb * 1024)
            .sum()
    }

    /// Tells all three servers to drain (`Bye`), waits for each to exit
    /// and reports how it went. A server that outlives the patience
    /// window is killed and reported as failed.
    pub fn finish(mut self) -> Vec<ServerExit> {
        for c in &mut self.clients {
            // A dead server shows up below as a failed exit.
            let _ = c.client.bye();
        }
        let deadline = Instant::now() + PATIENCE;
        let mut exits = Vec::with_capacity(N);
        for child in &mut self.children {
            let status = loop {
                match child.try_wait() {
                    Ok(Some(status)) => break Some(status),
                    Ok(None) if Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    _ => break None,
                }
            };
            let mut summary = String::new();
            if status.is_some() {
                if let Some(out) = child.stdout.as_mut() {
                    let _ = out.read_to_string(&mut summary);
                }
            }
            exits.push(ServerExit {
                success: status.is_some_and(|s| s.success()),
                complete: summary.contains("complete=true"),
            });
        }
        exits // dropping self kills any server that did not exit
    }
}
