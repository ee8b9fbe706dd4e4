//! How often the explorer allocates per schedule, counted by a global
//! allocator. It is the only test in its binary, so nothing else
//! allocates while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use skewbound_core::params::Params;
use skewbound_core::replica::Replica;
use skewbound_mc::{model_check, McConfig};
use skewbound_sim::ids::ProcessId;
use skewbound_sim::time::{SimDuration, SimTime};
use skewbound_spec::probes;
use skewbound_spec::register::{RmwOp, RmwRegister};

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

/// The schedules one exploration runs: the capped count the integration
/// suite pins for this script.
const SCHEDULES: u64 = 20_000;

/// At most this many allocations per explored schedule (0.31 measured,
/// 26.75 when every snapshot was a fresh fork). A schedule still
/// allocates one payload vector per new send and, when clean, the list
/// of replica orders the invariants read; pooled runs, snapshots and
/// check buffers must not add to that.
const PER_SCHEDULE: u64 = 1;

/// The `mc-register` benchmark's shape: three processes, two waves of
/// three concurrent register operations, one per process.
#[test]
fn an_exploration_allocates_a_bounded_amount_per_schedule() {
    let p = Params::with_optimal_skew(
        3,
        SimDuration::from_ticks(9_000),
        SimDuration::from_ticks(2_400),
        SimDuration::ZERO,
    )
    .expect("valid parameters");
    let (pid, t) = (ProcessId::new, SimTime::from_ticks);
    let script = [
        (pid(0), t(0), RmwOp::Write(11)),
        (pid(1), t(0), RmwOp::Write(22)),
        (pid(2), t(0), RmwOp::Read),
        (pid(0), t(40_000), RmwOp::Read),
        (pid(1), t(40_000), RmwOp::Write(33)),
        (pid(2), t(40_000), RmwOp::Write(44)),
    ];
    let mut config = McConfig::corners(&p, probes::register_states());
    config.max_schedules = SCHEDULES;
    config.workers = Some(1);
    let make = || Replica::group(RmwRegister::default(), &p);

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let report = model_check(&RmwRegister::default(), make, &p, &script, &config);
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;

    assert!(report.capped && report.violations.is_empty());
    assert_eq!(report.schedules, SCHEDULES);
    #[allow(clippy::cast_precision_loss)]
    let per_schedule = allocations as f64 / report.schedules as f64;
    eprintln!("{allocations} allocations, {per_schedule:.2} per schedule");
    assert!(
        allocations <= PER_SCHEDULE * report.schedules,
        "{allocations} allocations over {} schedules: {per_schedule:.2} per schedule, \
         more than {PER_SCHEDULE}",
        report.schedules
    );
}
