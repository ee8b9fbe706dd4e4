//! How often one namespace check allocates, counted by a global
//! allocator. It is the only test in its binary, so nothing else
//! allocates while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use skewbound_lin::{check_namespace, CheckOutcome};
use skewbound_sim::history::History;
use skewbound_sim::ids::ProcessId;
use skewbound_sim::time::SimTime;
use skewbound_spec::namespace::NsOp;
use skewbound_spec::register::{RmwKind, RmwOp, RmwRegister, RmwResp};
use skewbound_spec::seqspec::SequentialSpec;

/// Counts every allocation and reallocation, then defers to [`System`].
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const KEYS: u64 = 512;
const PROCESSES: u32 = 3;
const BATCHES_PER_PROCESS: usize = 1_000;
const BATCH: usize = 8;

/// One `engine-sharded` shard's shape: three closed-loop processes, each
/// turn a batch of eight ops on random keys sharing one interval, 24 000
/// ops over 512 keys. Every op takes effect at its batch's invocation,
/// in batch order, so the history is linearizable and each key's
/// ascending-index walk finds the witness without backtracking.
fn shard_history(seed: u64) -> History<NsOp<RmwOp>, RmwResp> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut turns = Vec::new();
    for pid in 0..PROCESSES {
        let mut now = rng.gen_range(0..10u64);
        for _ in 0..BATCHES_PER_PROCESS {
            let responded = now + rng.gen_range(1..=30u64);
            let ops: Vec<NsOp<RmwOp>> = (0..BATCH)
                .map(|_| {
                    let op = match rng.gen_range(0..3) {
                        0 => RmwOp::Read,
                        1 => RmwOp::Write(rng.gen_range(0..1000)),
                        _ => RmwOp::Rmw(RmwKind::FetchAdd(1)),
                    };
                    NsOp::new(rng.gen_range(0..KEYS), op)
                })
                .collect();
            turns.push((now, pid, responded, ops));
            now = responded + rng.gen_range(0..=5u64);
        }
    }
    turns.sort_unstable_by_key(|&(invoked, pid, _, _)| (invoked, pid));
    let spec = RmwRegister::default();
    let mut values = vec![spec.initial(); KEYS as usize];
    let mut h = History::with_capacity(turns.len() * BATCH);
    for (invoked, pid, responded, ops) in turns {
        for op in ops {
            let value = &mut values[op.key as usize];
            let (next, resp) = spec.apply(value, &op.op);
            *value = next;
            h.record_complete(
                ProcessId::new(pid),
                op,
                SimTime::from_ticks(invoked),
                resp,
                SimTime::from_ticks(responded),
            );
        }
    }
    h
}

#[test]
fn a_namespace_check_allocates_at_most_twice_per_key() {
    let h = shard_history(1);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let outcome = check_namespace(&RmwRegister::default(), &h);
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;

    assert_eq!(outcome.per_key.len(), KEYS as usize);
    let nodes: u64 = outcome
        .per_key
        .iter()
        .map(|(key, o)| match o {
            CheckOutcome::Linearizable(lin) => lin.nodes,
            other => panic!("key {key}: {other:?}"),
        })
        .sum();
    assert_eq!(nodes, h.len() as u64 + KEYS, "one node per op and key");
    // Per key: its sub-history and its witness order. Everything else —
    // the split's map, the precedence buffers, the result vector — is
    // allocated a bounded number of times per check.
    let bound = 2 * KEYS + 64;
    assert!(
        allocations <= bound,
        "{allocations} allocations for {KEYS} keys, more than {bound}"
    );
}
