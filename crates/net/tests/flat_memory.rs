//! A server's memory does not grow with the operations it serves: it
//! keeps a count of them and no record of any, and its replica keeps no
//! timestamp of an operation it has executed. Live heap bytes are
//! counted by a global allocator. This is the only test in its binary,
//! so nothing else allocates while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicI64, Ordering};
use std::thread::{self, JoinHandle};

use skewbound_core::params::Params;
use skewbound_core::replica::Replica;
use skewbound_net::runtime::{run_server, NetClient, ServerConfig, TimeBase};
use skewbound_net::tcp::MeshListener;
use skewbound_sim::clock::ClockAssignment;
use skewbound_sim::delay::UniformDelay;
use skewbound_sim::ids::ProcessId;
use skewbound_sim::time::SimDuration;
use skewbound_spec::namespace::{Namespace, NsOp};
use skewbound_spec::register::{RegOp, RegResp, RwRegister};

/// Tracks the bytes currently allocated, then defers to [`System`].
struct Live;

static LIVE: AtomicI64 = AtomicI64::new(0);

fn grew(by: usize) {
    LIVE.fetch_add(by as i64, Ordering::Relaxed);
}

fn shrank(by: usize) {
    LIVE.fetch_sub(by as i64, Ordering::Relaxed);
}

// SAFETY: every call goes to `System` with its arguments unchanged, so
// `System`'s guarantees hold; the counter is all this adds.
unsafe impl GlobalAlloc for Live {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grew(new_size);
        shrank(layout.size());
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrank(layout.size());
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Live = Live;

/// The writes served before the first reading, and before the second.
const WARM: u64 = 1_000;
const OPS: u64 = 3_000;
/// How far the live heap may move between the readings: what is in
/// flight at either one (held batches, bytes a peer socket has not yet
/// taken), not a record per operation: a node that kept a record and
/// three timestamps a write grew by 360 KiB over the 2 000.
const SLACK: i64 = 4 << 10;

/// A server per process of Algorithm 1's register replica group on a
/// loopback mesh in this process: their addresses and threads, each
/// returning what its `run_server` returned.
fn serve(params: &Params) -> (Vec<SocketAddr>, Vec<JoinHandle<u64>>) {
    let n = params.n();
    let epoch = TimeBase::epoch_now_micros();
    let listeners: Vec<_> = ProcessId::all(n)
        .map(|pid| MeshListener::bind(pid, "127.0.0.1:0").expect("bind loopback"))
        .collect();
    let addrs: Vec<_> = (listeners.iter())
        .map(|l| l.local_addr().expect("bound address"))
        .collect();
    let servers = ProcessId::all(n)
        .zip(listeners)
        .map(|(pid, listener)| {
            let peers: Vec<_> = ProcessId::all(n)
                .filter(|&q| q != pid)
                .map(|q| (q, addrs[q.index()]))
                .collect();
            let cfg = ServerConfig::new(pid, n, params.delay_bounds(), epoch);
            let delays = UniformDelay::new(cfg.delay_draw_bounds().expect("a draw window"), 7);
            let replica = Replica::new(Namespace::new(RwRegister::default()), params);
            thread::spawn(move || {
                let mesh = listener.start(&peers).expect("start the mesh");
                let clocks = ClockAssignment::zero(n);
                let served = run_server(replica, &cfg, &clocks, delays, &mesh, None);
                mesh.shutdown();
                served
            })
        })
        .collect();
    (addrs, servers)
}

/// Three replicas with `d` = 1 ms, so a write answers in about a third
/// of a millisecond; one client writes through process 0, one write at
/// a time.
#[test]
fn a_server_keeps_no_record_per_operation() {
    let params = Params::with_optimal_skew(
        3,
        SimDuration::from_ticks(1_000),
        SimDuration::from_ticks(500),
        SimDuration::ZERO,
    )
    .expect("valid parameters");
    let (addrs, servers) = serve(&params);
    let mut client = NetClient::connect(addrs[0]).expect("connect");
    let mut live = Vec::new();
    for op in 1..=OPS {
        let write = NsOp::new(0, RegOp::Write(op as i64));
        let resp: RegResp<i64> = client.invoke(&write).expect("write");
        assert_eq!(resp, RegResp::Ack);
        if op == WARM || op == OPS {
            live.push(LIVE.load(Ordering::Relaxed));
        }
    }
    for addr in &addrs {
        NetClient::connect(addr)
            .expect("connect")
            .bye()
            .expect("bye");
    }
    let served: Vec<_> = servers
        .into_iter()
        .map(|s| s.join().expect("a server panicked"))
        .collect();
    assert_eq!(served, [OPS, 0, 0]);

    let growth = live[1] - live[0];
    eprintln!(
        "live heap {} B after write {WARM}, {} B after write {OPS}: {growth:+} B",
        live[0], live[1]
    );
    assert!(
        growth <= SLACK,
        "the live heap grew by {growth} B between write {WARM} and write {OPS}"
    );
}
