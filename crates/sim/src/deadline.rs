//! Real-time deadlines for the wall-clock backends: the pending-timer
//! list and the wait that reaches a deadline.
//!
//! The discrete-event engine schedules on *nominal* time: a timer set
//! with delay `δ` inside an activation at virtual time `t` expires at
//! exactly `t + δ`, however long the host took to run the handler. The
//! real-thread runtime ([`crate::rt`]) and the socket backend
//! (`skewbound-net`) get the same rule from the two pieces here:
//!
//! * [`PendingTimers`] keeps armed timers under absolute [`Instant`]
//!   deadlines and pops them in `(deadline, id)` order. The run loop
//!   arms at `anchor + δ`, where the anchor is the *nominal* instant of
//!   the running activation — for a timer activation the popped
//!   deadline itself — so a chain of timers lands on the sum of its
//!   delays and the lateness of one wake-up is not inherited by the
//!   next.
//! * [`wait`] blocks on an inbox until an arrival or a deadline. It
//!   never reports a timeout early, and when the caller says a late
//!   wake-up would cost latency it trades a bounded slice of CPU for
//!   punctuality: sleep to one margin (150 µs) short of the deadline,
//!   then poll.

use std::sync::mpsc::{Receiver, RecvTimeoutError, TryRecvError};
use std::time::{Duration, Instant};

use crate::ids::TimerId;

/// Timers armed by one node, waiting for their wall-clock deadlines.
///
/// A plain vector scanned per query: a replica holds a handful of
/// timers (its own operation's two or three plus one hold timer per
/// in-flight remote operation), and cancels remove by id.
#[derive(Debug)]
pub struct PendingTimers<T> {
    armed: Vec<(Instant, TimerId, T)>,
}

impl<T> Default for PendingTimers<T> {
    fn default() -> Self {
        PendingTimers { armed: Vec::new() }
    }
}

impl<T> PendingTimers<T> {
    /// An empty list.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Arms timer `id` to expire at `at`.
    pub fn arm(&mut self, id: TimerId, at: Instant, item: T) {
        self.armed.push((at, id, item));
    }

    /// Removes timer `id` if it is still armed.
    pub fn cancel(&mut self, id: TimerId) {
        self.armed.retain(|&(_, armed_id, _)| armed_id != id);
    }

    /// Pops the timer with the earliest `(deadline, id)` among those
    /// whose deadline is `≤ now`. The returned instant is the deadline
    /// the timer was armed for — the nominal instant of its activation.
    pub fn pop_due(&mut self, now: Instant) -> Option<(Instant, TimerId, T)> {
        let due = self
            .armed
            .iter()
            .enumerate()
            .filter(|(_, &(at, _, _))| at <= now)
            .min_by_key(|(_, &(at, id, _))| (at, id))
            .map(|(i, _)| i)?;
        Some(self.armed.swap_remove(due))
    }

    /// The earliest armed deadline.
    #[must_use]
    pub fn next_deadline(&self) -> Option<Instant> {
        self.armed.iter().map(|&(at, _, _)| at).min()
    }

    /// `true` when no timer is armed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.armed.is_empty()
    }
}

/// How far ahead of a deadline [`wait`] stops sleeping and starts
/// polling. Sized at the p90 of the wake-up latency of a
/// `recv_timeout` under a 1 ns timer slack on the 2-vCPU Firecracker
/// host the benchmark bounds were sized on (p50 ≈ 100 µs, p90 ≈ 150 µs:
/// an idle vCPU has to be woken by the host first), so nine sleeps in
/// ten are awake before the deadline and the poll ends on it.
const SPIN_MARGIN: Duration = Duration::from_micros(150);

/// A wait must be at least this many margins long before [`wait`]
/// polls at its end, which bounds the polling duty cycle without any
/// state: a poll of at most one margin always follows a sleep of at
/// least seven. (Polling before *every* deadline was measured and
/// rejected: on a write-heavy mesh whose timers are 500 µs apart it
/// keeps both vCPUs busy and every cross-thread wake-up on the host
/// gets dearer — see EXPERIMENTS.md.)
const MIN_MARGINS_TO_SPIN: u32 = 8;

/// For a wait of `left` up to its deadline: how long to sleep before
/// polling, or `None` to sleep all the way.
fn sleep_before_spin(left: Duration, may_spin: bool) -> Option<Duration> {
    (may_spin && left >= SPIN_MARGIN * MIN_MARGINS_TO_SPIN).then(|| left - SPIN_MARGIN)
}

/// Waits on `rx` until an event arrives or the wait ends, whichever is
/// first. The wait ends at `deadline`, or `cap` from now if that is
/// sooner (or there is no deadline). An arrival returns at once;
/// `Err(Timeout)` is never returned before the end of the wait.
///
/// With `may_spin`, a wait that ends on its deadline and is at least
/// eight margins long sleeps to one margin before the deadline and
/// polls the rest, so the timeout is reported within a microsecond or
/// so of the deadline instead of a scheduler wake-up later. Callers
/// pass `may_spin` only while a late wake-up costs somebody latency (an
/// operation is pending at this node).
///
/// # Errors
///
/// [`RecvTimeoutError::Timeout`] at the end of the wait,
/// [`RecvTimeoutError::Disconnected`] as soon as every sender is gone.
pub fn wait<E>(
    rx: &Receiver<E>,
    deadline: Option<Instant>,
    cap: Duration,
    may_spin: bool,
) -> Result<E, RecvTimeoutError> {
    let Some(deadline) = deadline else {
        return rx.recv_timeout(cap);
    };
    let left = deadline.saturating_duration_since(Instant::now());
    if left > cap {
        return rx.recv_timeout(cap);
    }
    let Some(sleep) = sleep_before_spin(left, may_spin) else {
        return rx.recv_timeout(left);
    };
    match rx.recv_timeout(sleep) {
        Err(RecvTimeoutError::Timeout) => poll_until(rx, deadline),
        arrived_or_closed => arrived_or_closed,
    }
}

/// The polling end of [`wait`]: looks at `rx` without blocking until an
/// event arrives or `deadline` passes.
fn poll_until<E>(rx: &Receiver<E>, deadline: Instant) -> Result<E, RecvTimeoutError> {
    loop {
        match rx.try_recv() {
            Ok(event) => return Ok(event),
            Err(TryRecvError::Disconnected) => return Err(RecvTimeoutError::Disconnected),
            Err(TryRecvError::Empty) => {}
        }
        if Instant::now() >= deadline {
            return Err(RecvTimeoutError::Timeout);
        }
        std::hint::spin_loop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;
    use std::thread;

    fn id(raw: u64) -> TimerId {
        TimerId::new(raw)
    }

    const MS: Duration = Duration::from_millis(1);

    #[test]
    fn pop_due_orders_by_deadline_then_id() {
        let t0 = Instant::now();
        let mut timers = PendingTimers::new();
        timers.arm(id(7), t0 + 2 * MS, "late");
        timers.arm(id(5), t0 + MS, "tie, larger id");
        timers.arm(id(3), t0 + MS, "tie, smaller id");
        let now = t0 + 10 * MS;
        let order: Vec<_> = std::iter::from_fn(|| timers.pop_due(now)).collect();
        assert_eq!(
            order,
            vec![
                (t0 + MS, id(3), "tie, smaller id"),
                (t0 + MS, id(5), "tie, larger id"),
                (t0 + 2 * MS, id(7), "late"),
            ]
        );
        assert!(timers.is_empty());
    }

    #[test]
    fn nothing_pops_before_its_deadline() {
        let t0 = Instant::now();
        let mut timers = PendingTimers::new();
        timers.arm(id(1), t0 + MS, ());
        timers.arm(id(2), t0 + 3 * MS, ());
        assert_eq!(timers.next_deadline(), Some(t0 + MS));
        assert!(timers.pop_due(t0).is_none());
        assert!(timers.pop_due(t0 + MS - Duration::from_nanos(1)).is_none());
        // Exactly on the deadline is due; the later timer stays armed.
        assert_eq!(timers.pop_due(t0 + MS), Some((t0 + MS, id(1), ())));
        assert!(timers.pop_due(t0 + 2 * MS).is_none());
        assert_eq!(timers.next_deadline(), Some(t0 + 3 * MS));
        assert!(!timers.is_empty());
    }

    #[test]
    fn cancel_removes_only_the_named_timer() {
        let t0 = Instant::now();
        let mut timers = PendingTimers::new();
        timers.arm(id(1), t0, 'a');
        timers.arm(id(2), t0, 'b');
        timers.cancel(id(1));
        timers.cancel(id(9)); // never armed: a no-op
        assert_eq!(timers.pop_due(t0), Some((t0, id(2), 'b')));
        assert!(timers.is_empty());
        assert_eq!(timers.next_deadline(), None);
    }

    /// A chain armed at `anchor + delay` lands on the sum of its
    /// delays, however late each link was popped.
    #[test]
    fn anchored_chain_lands_on_the_sum_of_its_delays() {
        let a = Instant::now();
        let (d1, d2) = (5 * MS, 7 * MS);
        for lateness in [Duration::ZERO, 2 * MS, 400 * MS] {
            let mut timers = PendingTimers::new();
            timers.arm(id(1), a + d1, ());
            let now = a + d1 + lateness;
            let (anchor, _, ()) = timers.pop_due(now).expect("first link is due");
            assert_eq!(anchor, a + d1, "the popped deadline is the anchor");
            timers.arm(id(2), anchor + d2, ());
            assert_eq!(timers.next_deadline(), Some(a + d1 + d2));
        }
    }

    /// An event sent while `wait` polls is returned at once. The
    /// polling phase is entered directly, with a deadline far enough out
    /// that only the arrival can end it; the sender holds back until the
    /// poller says it is about to start.
    #[test]
    fn an_event_sent_during_the_spin_phase_is_returned_at_once() {
        let (tx, rx) = channel::<u32>();
        let (ready_tx, ready_rx) = channel::<()>();
        let sender = thread::spawn(move || {
            ready_rx.recv().unwrap();
            tx.send(42).unwrap();
        });
        let start = Instant::now();
        ready_tx.send(()).unwrap();
        let got = poll_until(&rx, start + Duration::from_secs(30));
        sender.join().unwrap();
        assert_eq!(got, Ok(42));
        assert!(start.elapsed() < Duration::from_secs(10));
    }

    #[test]
    fn wait_never_times_out_before_the_deadline() {
        let (_tx, rx) = channel::<u32>();
        for may_spin in [false, true] {
            // Long enough to take the sleep-then-spin branch when allowed.
            let deadline = Instant::now() + SPIN_MARGIN * (MIN_MARGINS_TO_SPIN + 1);
            let got = wait(&rx, Some(deadline), Duration::from_secs(1), may_spin);
            assert_eq!(got, Err(RecvTimeoutError::Timeout));
            assert!(Instant::now() >= deadline, "timed out early");
        }
        // A deadline already in the past times out at once.
        let past = Instant::now();
        assert_eq!(
            wait(&rx, Some(past), Duration::from_secs(1), true),
            Err(RecvTimeoutError::Timeout)
        );
    }

    #[test]
    fn wait_is_capped_and_the_cap_never_spins() {
        let (_tx, rx) = channel::<u32>();
        let start = Instant::now();
        // No deadline: the cap is the whole wait.
        assert_eq!(
            wait(&rx, None, 2 * MS, true),
            Err(RecvTimeoutError::Timeout)
        );
        assert!(start.elapsed() >= 2 * MS);
        // A deadline beyond the cap: the cap ends the wait first.
        let start = Instant::now();
        let far = start + Duration::from_secs(60);
        assert_eq!(
            wait(&rx, Some(far), 2 * MS, true),
            Err(RecvTimeoutError::Timeout)
        );
        let took = start.elapsed();
        assert!(took >= 2 * MS && took < Duration::from_secs(1));
    }

    #[test]
    fn waits_under_eight_margins_take_the_plain_sleep_branch() {
        let threshold = SPIN_MARGIN * MIN_MARGINS_TO_SPIN;
        let just_under = threshold - Duration::from_nanos(1);
        assert_eq!(sleep_before_spin(just_under, true), None);
        assert_eq!(sleep_before_spin(Duration::ZERO, true), None);
        // At the threshold the sleep is seven margins, the poll one.
        assert_eq!(
            sleep_before_spin(threshold, true),
            Some(SPIN_MARGIN * (MIN_MARGINS_TO_SPIN - 1))
        );
        // Nobody waiting on the result: never poll, however long.
        assert_eq!(sleep_before_spin(threshold * 100, false), None);

        // Through `wait` itself: a short wait still returns a queued
        // event and still does not time out early.
        let (tx, rx) = channel::<u32>();
        tx.send(1).unwrap();
        let deadline = Instant::now() + just_under;
        assert_eq!(
            wait(&rx, Some(deadline), Duration::from_secs(1), true),
            Ok(1)
        );
        let deadline = Instant::now() + just_under;
        assert_eq!(
            wait(&rx, Some(deadline), Duration::from_secs(1), true),
            Err(RecvTimeoutError::Timeout)
        );
        assert!(Instant::now() >= deadline);
    }

    #[test]
    fn wait_reports_a_closed_channel() {
        let (tx, rx) = channel::<u32>();
        drop(tx);
        let deadline = Instant::now() + Duration::from_secs(5);
        let start = Instant::now();
        assert_eq!(
            wait(&rx, Some(deadline), Duration::from_secs(5), true),
            Err(RecvTimeoutError::Disconnected)
        );
        assert!(start.elapsed() < Duration::from_secs(1));
    }
}
