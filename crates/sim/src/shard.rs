//! Shard fan-out: running `S` independent simulations side by side.
//!
//! A *shard* is a self-contained replica group: its own actors, its own
//! [`CalendarQueue`](crate::equeue::CalendarQueue), its own payload
//! slabs, its own RNG stream. Shards share no allocation and no lock, so
//! a sharded run is just a grid of `S` single-shard runs — [`run_shards`]
//! delegates to [`par::run_grid`], inheriting its
//! worker-pool policy (`SKEWBOUND_THREADS`, `SKEWBOUND_PAR`) and its
//! input-order determinism: shard `i`'s result is bit-identical whether
//! the shards ran sequentially or on any number of workers.

use crate::par;

/// One shard's measurement: how many simulation events it processed and
/// how long its run took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRun {
    /// Events the shard's engine dispatched.
    pub events: u64,
    /// Wall-clock nanoseconds the shard's run (and check) took.
    pub wall_nanos: u64,
}

/// Runs `run(shard)` for every shard in `0..shards` over the scenario
/// worker pool and returns the results in shard order.
///
/// `run` must be pure per shard (seed everything from the shard index):
/// then the returned vector is bit-identical across `SKEWBOUND_THREADS`
/// settings, because [`par::run_grid`] only
/// reorders *execution*, never results.
///
/// # Panics
///
/// Re-raises the first (by shard index) panic of any shard job.
pub fn run_shards<R, F>(shards: usize, run: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let jobs: Vec<usize> = (0..shards).collect();
    par::run_grid(&jobs, |_, &shard| run(shard))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shards_run_in_order_and_independently() {
        let out = run_shards(8, |shard| shard * 10);
        assert_eq!(out, vec![0, 10, 20, 30, 40, 50, 60, 70]);
    }
}
