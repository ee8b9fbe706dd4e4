//! Deterministic parallel fan-out for scenario grids.
//!
//! The measurement harness (`skewbound-bench`) and the lower-bound
//! machinery (`skewbound-shift`) both sweep large grids of *independent*
//! scenarios: every cell fixes its own seed, clock assignment and delay
//! model, runs one simulation, and (often) checks the resulting history
//! for linearizability. Each cell is deterministic in isolation, so the
//! grid is embarrassingly parallel — as long as the results are put back
//! in input order, a parallel sweep is bit-identical to the sequential
//! one.
//!
//! [`run_grid`] is that primitive: it takes a slice of job descriptors
//! and a pure-per-job function, fans the jobs out over a scoped worker
//! pool (work-stealing via an atomic cursor), and returns the results
//! *in input order*. A panicking job does not poison the pool: the
//! remaining jobs still run, and the first panic (by input order) is
//! re-raised once the pool has drained.
//!
//! ## Choosing the worker count
//!
//! * `SKEWBOUND_THREADS=k` — use exactly `k` workers; `k = 1` (or `0`)
//!   runs sequentially. A value that is not an integer is an error, so
//!   a mistyped determinism gate cannot silently run one worker per
//!   core.
//! * otherwise — one worker per available core.
//!
//! Sequential mode runs the jobs on the calling thread with no pool at
//! all, which keeps single-threaded profiling honest.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;

/// Number of workers [`run_grid`] would use for `jobs` jobs, honouring
/// `SKEWBOUND_THREADS` (see the module docs).
///
/// # Panics
///
/// Panics if `SKEWBOUND_THREADS` is set to a value that is not an
/// integer.
#[must_use]
pub fn worker_count(jobs: usize) -> usize {
    available_workers().min(jobs).max(1)
}

/// Worker count the environment asks for, before clamping to a job
/// count: `SKEWBOUND_THREADS=k` forces `k` (at least 1), otherwise one
/// per available core. The model checker's work-stealing frontier
/// (`skewbound-mc`) sizes its pool with this so both layers obey the
/// same knob.
///
/// # Panics
///
/// Panics if `SKEWBOUND_THREADS` is set to a value that is not an
/// integer.
#[must_use]
pub fn available_workers() -> usize {
    match std::env::var("SKEWBOUND_THREADS") {
        Ok(threads) => match threads.trim().parse::<usize>() {
            Ok(k) => k.max(1),
            Err(_) => panic!("SKEWBOUND_THREADS must be a worker count, got {threads:?}"),
        },
        Err(_) => thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
    }
}

/// The message a caught panic carries: its `&str` or `String` payload,
/// else a placeholder. The model checker's frontier reports its workers'
/// panics with this too.
#[must_use]
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs `f` over every job and returns the results in input order.
///
/// Jobs are claimed from an atomic cursor by one worker loop. With more
/// than one worker a scoped thread pool runs that loop; with one worker
/// (or one job, or sequential mode via `SKEWBOUND_THREADS=1`) the calling
/// thread runs it inline. Either way the result vector is ordered by job
/// index, so a deterministic `f` yields byte-identical output regardless
/// of the worker count.
///
/// # Panics
///
/// A panicking job is contained with `catch_unwind`: the pool drains the
/// remaining jobs normally, and once all workers have joined the
/// earliest (by input order) panic is re-raised as
/// `grid job INDEX panicked: MESSAGE`.
pub fn run_grid<I, R, F>(jobs: &[I], f: F) -> Vec<R>
where
    I: Sync,
    R: Send,
    F: Fn(usize, &I) -> R + Sync,
{
    let cursor = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = Vec::new();
    slots.resize_with(jobs.len(), || None);
    let slots = Mutex::new(slots);
    let first_panic: Mutex<Option<(usize, String)>> = Mutex::new(None);

    let run_worker = || {
        let mut local: Vec<(usize, R)> = Vec::new();
        loop {
            let index = cursor.fetch_add(1, Ordering::Relaxed);
            if index >= jobs.len() {
                break;
            }
            match catch_unwind(AssertUnwindSafe(|| f(index, &jobs[index]))) {
                Ok(r) => local.push((index, r)),
                Err(payload) => {
                    let mut first = first_panic.lock().unwrap();
                    if first.as_ref().is_none_or(|&(i, _)| index < i) {
                        *first = Some((index, panic_message(payload.as_ref())));
                    }
                }
            }
        }
        let mut slots = slots.lock().unwrap();
        for (index, r) in local {
            slots[index] = Some(r);
        }
    };

    let workers = worker_count(jobs.len());
    if workers <= 1 {
        run_worker();
    } else {
        thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(run_worker);
            }
        });
    }

    if let Some((index, message)) = first_panic.into_inner().unwrap() {
        panic!("grid job {index} panicked: {message}");
    }
    slots
        .into_inner()
        .unwrap()
        .into_iter()
        .map(|slot| slot.expect("every job ran"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_input_order() {
        let jobs: Vec<u64> = (0..257).collect();
        let out = run_grid(&jobs, |i, &job| {
            assert_eq!(i as u64, job);
            job * job
        });
        let expected: Vec<u64> = jobs.iter().map(|j| j * j).collect();
        assert_eq!(out, expected);
    }

    #[test]
    #[should_panic(expected = "grid job 13 panicked: unlucky job")]
    fn panic_is_surfaced_and_pool_drains() {
        // Jobs 13 and 40 both panic: the pool drains and the earliest
        // by input order is the one re-raised, on any worker count.
        let jobs: Vec<usize> = (0..64).collect();
        run_grid(&jobs, |_, &job| {
            assert!(job != 13 && job != 40, "unlucky job");
            job
        });
    }

    #[test]
    fn empty_grid_is_fine() {
        let out: Vec<u32> = run_grid(&[], |_, job: &u32| *job);
        assert!(out.is_empty());
    }
}
