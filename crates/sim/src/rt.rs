//! A real-thread runtime for the same [`Actor`] state machines.
//!
//! This module is the second backend over the shared
//! [`NodeCore`]: each process is a [`WallNode`] on an OS thread —
//! the wall-clock core the socket mesh runs too. A send draws a seeded
//! delay from the same `[d − u, d]` bounds the engine enforces and goes
//! straight into the destination worker's inbox, which holds it on its
//! agenda until `sent + delay`; timers and held deliveries fire in one
//! nominal-time order, each anchored at its own instant. All effect
//! application, the one-pending-op invariant, timer generations, trace
//! emission and history recording live in the node core — the
//! discrete-event engine ([`crate::engine`]) drives the identical code
//! from its virtual-time heap. Clocks are wall-clock readings plus
//! per-process offsets; one tick is interpreted as one microsecond.
//!
//! Entry points:
//!
//! * [`RtCluster`] — an interactive cluster: obtain an [`RtClient`] per
//!   process and call [`RtClient::invoke`] like a blocking RPC, or run a
//!   closed-loop [`Driver`] with [`RtCluster::run_driver`];
//! * [`run_threaded`] — batch mode: execute a timed script and return the
//!   observed [`History`].
//!
//! Because the OS scheduler adds real, unbounded noise, this runtime is
//! suitable for functional demonstrations (histories can still be checked
//! for linearizability) but not for measuring the tight time bounds — the
//! injected delay is a *lower* bound on actual delivery latency. Scheduling
//! noise can also perturb the relative order of closely spaced events, so
//! prefer workloads whose correctness does not hinge on exact tie-breaks.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::actor::Actor;
use crate::clock::ClockAssignment;
use crate::deadline::{self, TimeBase, WallNode};
use crate::delay::DelayBounds;
use crate::history::History;
use crate::ids::{MsgId, OpId, ProcessId};
use crate::node::{Activation, HistorySink, NodeCore, TraceOutput};
use crate::time::{instant_to_sim, ticks_to_duration, SimDuration, SimTime};
use crate::trace::{TraceEvent, TraceSink};
use crate::transport::{Link, TransportError, WallTransport};
use crate::workload::{Driver, Script};

/// A trace sink shared by every worker thread of an [`RtCluster`].
///
/// Workers emit the same [`TraceEvent`]s as the discrete-event engine
/// (stamped with real time since the cluster epoch and the worker's
/// offset clock), serialised through the mutex. Keep a typed
/// `Arc<Mutex<S>>` clone before coercing to read the sink back after
/// [`RtCluster::shutdown`].
pub type RtTraceSink = Arc<Mutex<dyn TraceSink + Send>>;

/// A scripted invocation for [`run_threaded`].
#[derive(Debug, Clone)]
pub struct RtInvocation<O> {
    /// Target process.
    pub pid: ProcessId,
    /// Wall-clock offset from the start of the run, in ticks (µs).
    pub at: SimDuration,
    /// The operation.
    pub op: O,
}

/// Error returned by [`RtCluster::try_invoke_async`] when the target
/// process still has an operation in flight — the one-pending-op model
/// of Chapter III forbids overlapping invocations at one process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpPending {
    /// The process whose previous operation has not yet responded.
    pub pid: ProcessId,
}

impl core::fmt::Display for OpPending {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "{}: invocation while another operation is pending \
             (the application layer allows one pending operation per process)",
            self.pid
        )
    }
}

impl std::error::Error for OpPending {}

/// The real-thread [`TraceOutput`]: the optional mutex-shared sink,
/// locked per event.
struct RtTrace<'a>(Option<&'a RtTraceSink>);

impl TraceOutput for RtTrace<'_> {
    fn active(&self) -> bool {
        self.0.is_some()
    }

    fn emit(&mut self, event: TraceEvent) {
        if let Some(sink) = self.0 {
            sink.lock().unwrap().event(&event);
        }
    }
}

/// The real-thread [`HistorySink`]: the cluster's mutex-shared history,
/// locked per record.
struct SharedHistory<'a, A: Actor>(&'a Mutex<History<A::Op, A::Resp>>);

impl<A: Actor> HistorySink<A> for SharedHistory<'_, A> {
    fn record_invoke(&mut self, pid: ProcessId, op: A::Op, at: SimTime) -> OpId {
        self.0.lock().unwrap().record_invoke(pid, op, at)
    }

    fn record_response(&mut self, id: OpId, resp: A::Resp, at: SimTime) {
        self.0.lock().unwrap().record_response(id, resp, at);
    }
}

/// A worker thread's inbox message.
enum Input<A: Actor> {
    /// Invoke an operation already recorded in the history as `OpId`.
    Invoke(OpId, A::Op),
    /// A batch from another process, holding the ids
    /// `first_id..first_id + msgs.len()`, to deliver at tick
    /// `deliver_at`.
    Deliver {
        from: ProcessId,
        first_id: MsgId,
        deliver_at: u64,
        msgs: Vec<A::Msg>,
    },
    /// Stop once drained, after this grace period of quiet.
    Stop(Duration),
}

/// The thread runtime's [`Link`]: every worker's inbox. Inboxes are
/// unbounded, so two workers flooding each other never block on a full
/// one.
struct Inboxes<A: Actor>(Vec<Sender<Input<A>>>);

impl<A: Actor> Link<A::Msg> for Inboxes<A> {
    fn hand_off(
        &mut self,
        from: ProcessId,
        to: ProcessId,
        first_id: MsgId,
        sent: u64,
        delay: u64,
        msgs: Vec<A::Msg>,
    ) -> Result<(), TransportError> {
        let deliver_at = sent + delay;
        let batch = Input::Deliver {
            from,
            first_id,
            deliver_at,
            msgs,
        };
        // A worker that has drained and exited takes no more input; by
        // the drain rule nothing was still due to it.
        let _ = self.0[to.index()].send(batch);
        Ok(())
    }
}

/// A running cluster of actor threads, one per process.
///
/// # Examples
///
/// ```no_run
/// use std::time::Duration;
/// use skewbound_sim::prelude::*;
/// use skewbound_sim::rt::RtCluster;
///
/// # #[derive(Debug)] struct Echo;
/// # impl Actor for Echo {
/// #     type Msg = (); type Op = u32; type Resp = u32; type Timer = ();
/// #     fn on_invoke(&mut self, op: u32, ctx: &mut Context<'_, Self>) { ctx.respond(op + 1); }
/// #     fn on_message(&mut self, _: ProcessId, _: (), _: &mut Context<'_, Self>) {}
/// #     fn on_timer(&mut self, _: (), _: &mut Context<'_, Self>) {}
/// # }
/// let bounds = DelayBounds::new(SimDuration::from_ticks(2_000), SimDuration::from_ticks(1_000));
/// let mut cluster = RtCluster::start(
///     vec![Echo, Echo],
///     &ClockAssignment::zero(2),
///     bounds,
///     7,
/// );
/// let mut client = cluster.client(ProcessId::new(0));
/// assert_eq!(client.invoke(41), 42);
/// drop(client);
/// let history = cluster.shutdown(Duration::from_millis(10));
/// assert!(history.is_complete());
/// ```
pub struct RtCluster<A: Actor> {
    epoch: Instant,
    proc_txs: Vec<Sender<Input<A>>>,
    history: Arc<Mutex<History<A::Op, A::Resp>>>,
    /// One flag per process: `true` while an operation is in flight.
    /// Client-side enforcement of the one-pending-op invariant — the
    /// worker clears its flag before announcing the completion.
    in_flight: Arc<Vec<AtomicBool>>,
    resp_rxs: Vec<Option<Receiver<A::Resp>>>,
    done_rx: Receiver<(ProcessId, OpId)>,
    worker_handles: Vec<JoinHandle<()>>,
}

impl<A: Actor> core::fmt::Debug for RtCluster<A> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("RtCluster")
            .field("n", &self.proc_txs.len())
            .finish_non_exhaustive()
    }
}

/// A per-process handle for blocking invocations on an [`RtCluster`].
pub struct RtClient<A: Actor> {
    pid: ProcessId,
    epoch: Instant,
    proc_tx: Sender<Input<A>>,
    resp_rx: Receiver<A::Resp>,
    history: Arc<Mutex<History<A::Op, A::Resp>>>,
    in_flight: Arc<Vec<AtomicBool>>,
}

impl<A: Actor> core::fmt::Debug for RtClient<A> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("RtClient").field("pid", &self.pid).finish()
    }
}

impl<A: Actor> RtClient<A> {
    /// Invokes `op` at this client's process and blocks until the
    /// response arrives.
    ///
    /// The application model allows **at most one pending operation per
    /// process** (Chapter III): because this call blocks until the
    /// response, sequential calls keep the invariant by construction.
    /// Mixing a client with [`RtCluster::invoke_async`] on the same
    /// process can violate it, in which case this call panics rather
    /// than corrupt the history.
    ///
    /// # Panics
    ///
    /// Panics if an operation is already in flight at this process, if
    /// the cluster has shut down or a worker died, or if no response
    /// arrives within 30 seconds.
    pub fn invoke(&mut self, op: A::Op) -> A::Resp {
        claim_process(&self.in_flight, self.pid);
        let op_id = self.history.lock().unwrap().record_invoke(
            self.pid,
            op.clone(),
            instant_to_sim(self.epoch, Instant::now()),
        );
        self.proc_tx
            .send(Input::Invoke(op_id, op))
            .expect("cluster has shut down");
        self.resp_rx
            .recv_timeout(Duration::from_secs(30))
            .expect("no response within 30s")
    }
}

/// Marks `pid` as having an operation in flight, panicking if it
/// already has one — the shared enforcement behind [`RtClient::invoke`]
/// and [`RtCluster::invoke_async`].
fn claim_process(in_flight: &[AtomicBool], pid: ProcessId) {
    assert!(
        !in_flight[pid.index()].swap(true, Ordering::AcqRel),
        "{pid}: invocation while another operation is pending \
         (the application layer allows one pending operation per process)"
    );
}

impl<A> RtCluster<A>
where
    A: Actor + Send + 'static,
    A::Msg: Send + 'static,
    A::Op: Send + 'static,
    A::Resp: Send + 'static,
    A::Timer: Send + 'static,
{
    /// Starts one thread per actor, injecting message delays drawn
    /// uniformly from `bounds` (seeded by `seed`).
    ///
    /// # Panics
    ///
    /// Panics if `actors` is empty or its length differs from `clocks`.
    #[must_use]
    pub fn start(actors: Vec<A>, clocks: &ClockAssignment, bounds: DelayBounds, seed: u64) -> Self {
        Self::start_inner(actors, clocks, bounds, seed, None)
    }

    /// Like [`RtCluster::start`], but every worker additionally streams
    /// structured [`TraceEvent`]s into `sink` — the same six event kinds
    /// the discrete-event engine emits, stamped with real time since the
    /// cluster epoch and the worker's offset clock. Message ids are
    /// unique cluster-wide, so each `send` pairs with exactly one
    /// `deliver` carrying the same id.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`RtCluster::start`].
    #[must_use]
    pub fn start_traced(
        actors: Vec<A>,
        clocks: &ClockAssignment,
        bounds: DelayBounds,
        seed: u64,
        sink: RtTraceSink,
    ) -> Self {
        Self::start_inner(actors, clocks, bounds, seed, Some(sink))
    }

    fn start_inner(
        actors: Vec<A>,
        clocks: &ClockAssignment,
        bounds: DelayBounds,
        seed: u64,
        trace: Option<RtTraceSink>,
    ) -> Self {
        assert!(!actors.is_empty(), "at least one process required");
        assert_eq!(
            actors.len(),
            clocks.len(),
            "clocks must cover all processes"
        );
        assert!(
            clocks.is_drift_free(),
            "the real-thread runtime does not emulate clock drift"
        );
        let n = actors.len();
        let epoch = Instant::now();
        let history: Arc<Mutex<History<A::Op, A::Resp>>> = Arc::new(Mutex::new(History::new()));
        let in_flight: Arc<Vec<AtomicBool>> =
            Arc::new((0..n).map(|_| AtomicBool::new(false)).collect());
        let (done_tx, done_rx) = channel::<(ProcessId, OpId)>();
        let (proc_txs, proc_rxs): (Vec<_>, Vec<_>) = (0..n).map(|_| channel()).unzip();
        let (resp_txs, resp_rxs): (Vec<_>, Vec<_>) = (0..n).map(|_| channel()).unzip();
        // Ticks count µs from the cluster epoch, as the clients' stamps do.
        let base = TimeBase {
            start_instant: epoch,
            start_ticks: 0,
        };
        let (lo, hi) = (bounds.min().as_ticks(), bounds.max().as_ticks());

        let mut worker_handles = Vec::with_capacity(n);
        for ((idx, actor), (rx, resp_tx)) in actors
            .into_iter()
            .enumerate()
            .zip(proc_rxs.into_iter().zip(resp_txs))
        {
            let pid = ProcessId::new(u32::try_from(idx).expect("too many processes"));
            let rng =
                StdRng::seed_from_u64(seed ^ (idx as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let link = Inboxes(proc_txs.clone());
            let transport = WallTransport::new(pid, link, base, rng, (lo, hi));
            let node = WallNode::new(NodeCore::new(pid, n, actor), transport, clocks.offset(pid));
            let (history, in_flight) = (Arc::clone(&history), Arc::clone(&in_flight));
            let (done_tx, trace) = (done_tx.clone(), trace.clone());
            worker_handles.push(thread::spawn(move || {
                worker_loop(
                    pid,
                    node,
                    &rx,
                    &history,
                    &in_flight,
                    &done_tx,
                    &resp_tx,
                    trace.as_ref(),
                );
            }));
        }

        RtCluster {
            epoch,
            proc_txs,
            history,
            in_flight,
            resp_rxs: resp_rxs.into_iter().map(Some).collect(),
            done_rx,
            worker_handles,
        }
    }

    /// Number of processes.
    #[must_use]
    pub fn n(&self) -> usize {
        self.proc_txs.len()
    }

    /// Takes the blocking client for process `pid`.
    ///
    /// # Panics
    ///
    /// Panics if the client was already taken or `pid` is out of range.
    #[must_use]
    pub fn client(&mut self, pid: ProcessId) -> RtClient<A> {
        let resp_rx = self.resp_rxs[pid.index()]
            .take()
            .expect("client already taken");
        RtClient {
            pid,
            epoch: self.epoch,
            proc_tx: self.proc_txs[pid.index()].clone(),
            resp_rx,
            history: Arc::clone(&self.history),
            in_flight: Arc::clone(&self.in_flight),
        }
    }

    /// Fire-and-forget invocation: the response is recorded in the
    /// history (and consumes one [`RtCluster::wait_for`] credit) but not
    /// returned. Useful for timed scripts.
    ///
    /// # Panics
    ///
    /// Panics if `pid` still has an operation in flight (the model
    /// allows at most one pending operation per process — use
    /// [`RtCluster::try_invoke_async`] to detect this without
    /// panicking), or if the cluster has shut down.
    pub fn invoke_async(&self, pid: ProcessId, op: A::Op) {
        claim_process(&self.in_flight, pid);
        self.send_invoke(pid, op);
    }

    /// Like [`RtCluster::invoke_async`], but returns `Err(OpPending)`
    /// instead of panicking when `pid` still has an operation in flight.
    ///
    /// # Errors
    ///
    /// Returns [`OpPending`] if a previous invocation at `pid` has not
    /// yet responded.
    ///
    /// # Panics
    ///
    /// Panics if the cluster has shut down.
    pub fn try_invoke_async(&self, pid: ProcessId, op: A::Op) -> Result<(), OpPending> {
        if self.in_flight[pid.index()].swap(true, Ordering::AcqRel) {
            return Err(OpPending { pid });
        }
        self.send_invoke(pid, op);
        Ok(())
    }

    fn send_invoke(&self, pid: ProcessId, op: A::Op) {
        let op_id = self.history.lock().unwrap().record_invoke(
            pid,
            op.clone(),
            instant_to_sim(self.epoch, Instant::now()),
        );
        self.proc_txs[pid.index()]
            .send(Input::Invoke(op_id, op))
            .expect("cluster has shut down");
    }

    /// Blocks until `count` operation responses have occurred since the
    /// cluster started (including ones answered through clients).
    ///
    /// # Panics
    ///
    /// Panics if the responses do not arrive within 30 seconds each.
    pub fn wait_for(&self, count: usize) {
        for _ in 0..count {
            self.done_rx
                .recv_timeout(Duration::from_secs(30))
                .expect("timed out waiting for responses");
        }
    }

    /// Runs a closed-loop [`Driver`] against the cluster — the same
    /// workload abstraction
    /// [`Simulation::run_with`](crate::engine::Simulation::run_with)
    /// consumes, so one `ClosedLoop` definition exercises both backends.
    ///
    /// The driver's initial invocations are scheduled at their offsets
    /// from the cluster epoch; on each completion the driver is
    /// consulted (with the response time the worker recorded) for the
    /// process's follow-up invocation. Returns the number of completed
    /// operations. Because each follow-up is only issued after its
    /// predecessor's response, the one-pending-op invariant holds by
    /// construction.
    ///
    /// Do not interleave with [`RtCluster::wait_for`] — both consume
    /// completion notifications.
    ///
    /// # Panics
    ///
    /// Panics if a completion notification does not arrive within 30
    /// seconds of becoming due, or if the driver overlaps invocations
    /// at one process.
    pub fn run_driver<Dr>(&self, driver: &mut Dr) -> usize
    where
        Dr: Driver<A::Op, A::Resp> + ?Sized,
    {
        // Scheduled-but-not-yet-issued invocations, scanned for the
        // earliest deadline (like the workers' pending-timer lists; a
        // closed loop holds at most one entry per process).
        let mut due: Vec<(Instant, ProcessId, A::Op)> = driver
            .initial()
            .into_iter()
            .map(|(pid, at, op)| (self.epoch + Duration::from_micros(at.as_ticks()), pid, op))
            .collect();
        let mut outstanding = 0usize;
        let mut completed = 0usize;
        loop {
            while let Some(i) = due
                .iter()
                .enumerate()
                .filter(|(_, d)| d.0 <= Instant::now())
                .min_by_key(|(_, d)| d.0)
                .map(|(i, _)| i)
            {
                let (_, pid, op) = due.swap_remove(i);
                self.invoke_async(pid, op);
                outstanding += 1;
            }
            if outstanding == 0 && due.is_empty() {
                break;
            }
            let timeout = due
                .iter()
                .map(|d| d.0)
                .min()
                .map(|at| at.saturating_duration_since(Instant::now()))
                .unwrap_or(Duration::from_secs(30));
            match self.done_rx.recv_timeout(timeout) {
                Ok((pid, op_id)) => {
                    outstanding -= 1;
                    completed += 1;
                    let next = {
                        let history = self.history.lock().unwrap();
                        let rec = history.get(op_id).expect("completed op is recorded");
                        let resp = rec.resp().expect("completion implies a response");
                        let at = rec.responded_at().expect("completion implies a response");
                        driver.next(pid, &rec.op, resp, at)
                    };
                    if let Some((gap, op)) = next {
                        due.push((Instant::now() + ticks_to_duration(gap), pid, op));
                    }
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
        completed
    }

    /// Tells every worker to stop, waits for them to drain, and returns
    /// the observed history.
    ///
    /// A worker exits once its agenda is empty, no operation is pending
    /// anywhere in the cluster, and it has been quiet for `settle` — so
    /// every message in flight, and every message sent while some
    /// operation is pending, is delivered first.
    ///
    /// # Panics
    ///
    /// Panics if a worker thread panicked.
    #[must_use]
    pub fn shutdown(mut self, settle: Duration) -> History<A::Op, A::Resp> {
        for tx in &self.proc_txs {
            let _ = tx.send(Input::Stop(settle));
        }
        for h in self.worker_handles.drain(..) {
            h.join().expect("worker thread panicked");
        }
        // Workers are joined; unless a client still holds the Arc, the
        // history moves out without a clone.
        let history = std::mem::replace(&mut self.history, Arc::new(Mutex::new(History::new())));
        match Arc::try_unwrap(history) {
            Ok(mutex) => mutex.into_inner().unwrap(),
            Err(shared) => shared.lock().unwrap().clone(),
        }
    }
}

/// One worker thread: a [`WallNode`] fed by its inbox. All
/// effect/trace/history semantics live in the node core; this loop only
/// relays completions to the cluster (clearing the in-flight flag
/// *before* announcing, so a follow-up invocation never races the flag).
#[allow(clippy::too_many_arguments)]
fn worker_loop<A: Actor>(
    pid: ProcessId,
    mut node: WallNode<A, Inboxes<A>>,
    rx: &Receiver<Input<A>>,
    history: &Mutex<History<A::Op, A::Resp>>,
    in_flight: &[AtomicBool],
    done_tx: &Sender<(ProcessId, OpId)>,
    resp_tx: &Sender<A::Resp>,
    trace: Option<&RtTraceSink>,
) {
    const INFALLIBLE: &str = "the thread link never fails a send";
    let (trace_out, hist) = (&mut RtTrace(trace), &mut SharedHistory(history));
    let finish = |act: Activation| {
        let Activation::Completed(op_id) = act else {
            return;
        };
        let resp = history
            .lock()
            .unwrap()
            .get(op_id)
            .and_then(|r| r.resp().cloned());
        in_flight[pid.index()].store(false, Ordering::Release);
        // Closed ends mean the counterpart was dropped; not an error.
        let _ = resp_tx.send(resp.expect("completion implies a response"));
        let _ = done_tx.send((pid, op_id));
    };
    finish(node.start(trace_out, hist).expect(INFALLIBLE));
    let mut woken_by = None;
    loop {
        // File everything that has arrived, so the fire-due step sees
        // every delivery it has to place.
        for input in woken_by.take().into_iter().chain(rx.try_iter()) {
            match input {
                Input::Invoke(op_id, op) => {
                    let act = node.invoke(Some(op_id), op, trace_out, hist);
                    finish(act.expect(INFALLIBLE));
                }
                Input::Deliver {
                    from,
                    first_id,
                    deliver_at,
                    msgs,
                } => node.hold(deliver_at, from, first_id, msgs),
                Input::Stop(grace) => node.stop(grace),
            }
        }
        while let Some(act) = node.fire_due(trace_out, hist).expect(INFALLIBLE) {
            finish(act);
        }
        // Another worker's pending operation may still send here.
        let busy = in_flight.iter().any(|f| f.load(Ordering::Acquire));
        let Some(cap) = node.drain_wait(busy) else {
            break;
        };
        // A late wake-up costs latency only while an operation waits here.
        let may_spin = node.pending_op().is_some();
        woken_by = deadline::wait(rx, node.next_deadline(), cap, may_spin).ok();
    }
    // One counter line per worker; trace consumers sum across processes.
    if let Some(sink) = trace {
        sink.lock()
            .unwrap()
            .counter("rt", "timers_fired", node.timers_fired());
    }
}

/// Runs `actors` on real threads, injecting message delays drawn uniformly
/// from `bounds` (seeded by `seed`), executing `script`, and returning the
/// observed [`History`].
///
/// Once the last scripted invocation has responded, the runtime shuts
/// down by [`RtCluster::shutdown`]'s drain rule: each worker delivers
/// everything held for it and fires every armed timer, then exits after
/// `settle` of quiet. Only a send made once every operation has
/// responded, after its destination has been quiet for `settle`, can be
/// lost that way; Algorithm 1's replicas make none.
///
/// # Panics
///
/// Panics if `actors` is empty, its length differs from `clocks`, the
/// script overlaps invocations at one process, or a worker thread panics
/// (e.g. an actor invariant fails).
pub fn run_threaded<A>(
    actors: Vec<A>,
    clocks: &ClockAssignment,
    bounds: DelayBounds,
    seed: u64,
    script: Vec<RtInvocation<A::Op>>,
    settle: Duration,
) -> History<A::Op, A::Resp>
where
    A: Actor + Send + 'static,
    A::Msg: Send + 'static,
    A::Op: Clone + Send + Sync + 'static,
    A::Resp: Send + 'static,
    A::Timer: Send + 'static,
{
    let cluster = RtCluster::start(actors, clocks, bounds, seed);
    // A timed script is just a driver with no follow-up invocations.
    let mut driver = Script::new();
    for inv in script {
        driver.push(inv.pid, SimTime::from_ticks(inv.at.as_ticks()), inv.op);
    }
    cluster.run_driver(&mut driver);
    cluster.shutdown(settle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor::Context;
    use crate::ids::TimerId;

    /// Each process forwards its op value to the next process and responds
    /// when the ring token returns.
    #[derive(Debug, Default)]
    struct Ring;

    impl Actor for Ring {
        type Msg = u32;
        type Op = u32;
        type Resp = u32;
        type Timer = ();

        fn on_invoke(&mut self, op: u32, ctx: &mut Context<'_, Self>) {
            let next = ProcessId::new((ctx.pid().as_u32() + 1) % ctx.n() as u32);
            ctx.send(next, op);
        }

        fn on_message(&mut self, _from: ProcessId, msg: u32, ctx: &mut Context<'_, Self>) {
            if ctx.pid() == ProcessId::new(0) {
                ctx.respond(msg);
            } else {
                let next = ProcessId::new((ctx.pid().as_u32() + 1) % ctx.n() as u32);
                ctx.send(next, msg);
            }
        }

        fn on_timer(&mut self, _t: (), _ctx: &mut Context<'_, Self>) {}
    }

    #[test]
    fn ring_completes_on_threads() {
        let bounds = DelayBounds::new(
            SimDuration::from_ticks(2000), // 2 ms
            SimDuration::from_ticks(1000),
        );
        let history = run_threaded(
            vec![Ring, Ring, Ring],
            &ClockAssignment::zero(3),
            bounds,
            7,
            vec![RtInvocation {
                pid: ProcessId::new(0),
                at: SimDuration::ZERO,
                op: 42,
            }],
            Duration::from_millis(20),
        );
        assert!(history.is_complete());
        assert_eq!(history.records()[0].resp(), Some(&42));
        // Three hops of ≥ 1 ms each.
        assert!(history.records()[0].latency().unwrap().as_ticks() >= 3000);
    }

    /// On invoke, broadcast a `send_batch` to every peer; peers ack the
    /// whole batch with one message; the origin responds once every
    /// peer has acked.
    #[derive(Debug, Default)]
    struct BatchFlood {
        acks: u32,
    }

    impl Actor for BatchFlood {
        type Msg = i64; // −1 = batch ack, anything else = payload
        type Op = u32; // batch size
        type Resp = u32; // acks received
        type Timer = ();

        fn on_invoke(&mut self, op: u32, ctx: &mut Context<'_, Self>) {
            for p in 0..ctx.n() as u32 {
                let p = ProcessId::new(p);
                if p != ctx.pid() {
                    ctx.send_batch(p, (0..i64::from(op)).collect());
                }
            }
        }

        fn on_message(&mut self, _from: ProcessId, msg: i64, ctx: &mut Context<'_, Self>) {
            if msg == -1 {
                self.acks += 1;
                if self.acks == ctx.n() as u32 - 1 {
                    ctx.respond(self.acks);
                }
            }
        }

        fn on_message_batch(
            &mut self,
            from: ProcessId,
            msgs: Vec<i64>,
            ctx: &mut Context<'_, Self>,
        ) {
            // A single send arrives as a batch of one: the ack.
            match msgs[..] {
                [-1] => self.on_message(from, -1, ctx),
                _ => ctx.send(from, -1),
            }
        }

        fn on_timer(&mut self, _t: (), _ctx: &mut Context<'_, Self>) {}
    }

    /// Regression: tearing the cluster down with zero settle while
    /// batches (and the acks they trigger) are still in flight must not
    /// drop them. A worker holds its deliveries until they are due and
    /// exits only once drained while no operation is pending anywhere,
    /// so the flooded run still completes.
    #[test]
    fn shutdown_drains_in_flight_batches() {
        let bounds = DelayBounds::new(
            SimDuration::from_ticks(2000), // 2 ms
            SimDuration::from_ticks(1000),
        );
        let cluster = RtCluster::start(
            vec![
                BatchFlood::default(),
                BatchFlood::default(),
                BatchFlood::default(),
            ],
            &ClockAssignment::zero(3),
            bounds,
            11,
        );
        cluster.invoke_async(ProcessId::new(0), 64);
        // No settle: the 64-message batches are still in flight.
        let history = cluster.shutdown(Duration::ZERO);
        assert!(
            history.is_complete(),
            "teardown dropped in-flight batches: {history:?}"
        );
        assert_eq!(history.records()[0].resp(), Some(&2));
    }

    /// On invoke, sends `op` single messages to the other process inside
    /// the one activation and responds; each delivery is counted.
    #[derive(Debug, Default)]
    struct Flood {
        got: u32,
    }

    impl Actor for Flood {
        type Msg = ();
        type Op = u32;
        type Resp = ();
        type Timer = ();

        fn on_invoke(&mut self, op: u32, ctx: &mut Context<'_, Self>) {
            let other = ProcessId::new(1 - ctx.pid().as_u32());
            for _ in 0..op {
                ctx.send(other, ());
            }
            ctx.respond(());
        }
        fn on_message(&mut self, _: ProcessId, _: (), _: &mut Context<'_, Self>) {
            self.got += 1;
        }
        fn on_timer(&mut self, _t: (), _ctx: &mut Context<'_, Self>) {}
    }

    /// Two workers each send 4096 single messages to the other inside
    /// one activation and the cluster completes: inboxes are unbounded,
    /// so neither blocks on the other's full inbox.
    #[test]
    fn two_workers_flooding_each_other_complete() {
        let bounds = DelayBounds::new(SimDuration::from_ticks(1000), SimDuration::from_ticks(500));
        let cluster = RtCluster::start(
            vec![Flood::default(), Flood::default()],
            &ClockAssignment::zero(2),
            bounds,
            13,
        );
        cluster.invoke_async(ProcessId::new(0), 4096);
        cluster.invoke_async(ProcessId::new(1), 4096);
        cluster.wait_for(2);
        let history = cluster.shutdown(Duration::from_millis(5));
        assert!(history.is_complete());
        assert_eq!(history.len(), 2);
    }

    /// Timer-driven response with injected delay bounds honoured.
    #[derive(Debug, Default)]
    struct TimerEcho;

    impl Actor for TimerEcho {
        type Msg = ();
        type Op = u32;
        type Resp = u32;
        type Timer = u32;

        fn on_invoke(&mut self, op: u32, ctx: &mut Context<'_, Self>) {
            ctx.set_timer(SimDuration::from_ticks(1000), op);
        }
        fn on_message(&mut self, _: ProcessId, _: (), _: &mut Context<'_, Self>) {}
        fn on_timer(&mut self, t: u32, ctx: &mut Context<'_, Self>) {
            ctx.respond(t + 1);
        }
    }

    #[test]
    fn timers_fire_on_threads() {
        let bounds = DelayBounds::new(SimDuration::from_ticks(1000), SimDuration::from_ticks(500));
        let history = run_threaded(
            vec![TimerEcho],
            &ClockAssignment::zero(1),
            bounds,
            1,
            vec![
                RtInvocation {
                    pid: ProcessId::new(0),
                    at: SimDuration::ZERO,
                    op: 1,
                },
                RtInvocation {
                    pid: ProcessId::new(0),
                    // Generous spacing: under full-suite parallel load the
                    // OS may delay the first timer by many milliseconds.
                    at: SimDuration::from_ticks(250_000),
                    op: 2,
                },
            ],
            Duration::from_millis(5),
        );
        assert!(history.is_complete());
        assert_eq!(history.records()[0].resp(), Some(&2));
        assert_eq!(history.records()[1].resp(), Some(&3));
        // The timer wait is 1 ms; latency must be at least that.
        assert!(history.records()[0].latency().unwrap().as_ticks() >= 1000);
    }

    /// Captures both events and counters emitted by the worker threads.
    #[derive(Debug, Default)]
    struct RecordingSink {
        trace: crate::trace::Trace,
        counters: Vec<(&'static str, &'static str, u64)>,
    }

    impl TraceSink for RecordingSink {
        fn event(&mut self, event: &TraceEvent) {
            self.trace.event(event);
        }
        fn counter(&mut self, stage: &'static str, name: &'static str, value: u64) {
            self.counters.push((stage, name, value));
        }
    }

    #[test]
    fn traced_cluster_pairs_sends_with_deliveries() {
        let bounds = DelayBounds::new(SimDuration::from_ticks(2000), SimDuration::from_ticks(1000));
        let sink = Arc::new(Mutex::new(RecordingSink::default()));
        let mut cluster = RtCluster::start_traced(
            vec![Ring, Ring, Ring],
            &ClockAssignment::zero(3),
            bounds,
            7,
            Arc::clone(&sink) as RtTraceSink,
        );
        let mut c0 = cluster.client(ProcessId::new(0));
        assert_eq!(c0.invoke(42), 42);
        drop(c0);
        let history = cluster.shutdown(Duration::from_millis(20));
        assert!(history.is_complete());

        let sink = sink.lock().unwrap();
        let events = sink.trace.events();
        let count = |want: &str| events.iter().filter(|e| e.kind.label() == want).count();
        assert_eq!(count("invoke"), 1);
        assert_eq!(count("respond"), 1);
        assert_eq!(count("send"), 3);
        assert_eq!(count("deliver"), 3);
        // Every send pairs with exactly one later delivery carrying the
        // same message id, at the process the send addressed.
        for e in events {
            if let crate::trace::TraceEventKind::Send { to, msg, .. } = &e.kind {
                let delivered = events
                    .iter()
                    .filter(|d| {
                        d.pid == *to
                            && d.at >= e.at
                            && matches!(&d.kind, crate::trace::TraceEventKind::Recv { msg: m, .. } if m == msg)
                    })
                    .count();
                assert_eq!(delivered, 1, "send {msg:?} should deliver once at {to}");
            }
        }
        // One exit counter per worker; Ring arms no timers.
        assert_eq!(sink.counters.len(), 3);
        assert!(sink
            .counters
            .iter()
            .all(|c| *c == ("rt", "timers_fired", 0)));
    }

    #[test]
    fn traced_cluster_records_timer_events() {
        let bounds = DelayBounds::new(SimDuration::from_ticks(1000), SimDuration::from_ticks(500));
        let sink = Arc::new(Mutex::new(RecordingSink::default()));
        let mut cluster = RtCluster::start_traced(
            vec![TimerEcho],
            &ClockAssignment::zero(1),
            bounds,
            1,
            Arc::clone(&sink) as RtTraceSink,
        );
        let mut c0 = cluster.client(ProcessId::new(0));
        assert_eq!(c0.invoke(5), 6);
        drop(c0);
        let _ = cluster.shutdown(Duration::from_millis(5));
        let sink = sink.lock().unwrap();
        let labels: Vec<_> = sink.trace.events().iter().map(|e| e.kind.label()).collect();
        assert_eq!(labels, ["invoke", "timer-set", "timer-fire", "respond"]);
        assert_eq!(sink.counters, [("rt", "timers_fired", 1)]);
    }

    #[test]
    fn interactive_clients_block_per_invocation() {
        let bounds = DelayBounds::new(SimDuration::from_ticks(1000), SimDuration::from_ticks(500));
        let mut cluster = RtCluster::start(
            vec![TimerEcho, TimerEcho],
            &ClockAssignment::zero(2),
            bounds,
            3,
        );
        let mut c0 = cluster.client(ProcessId::new(0));
        let mut c1 = cluster.client(ProcessId::new(1));
        assert_eq!(c0.invoke(10), 11);
        assert_eq!(c1.invoke(20), 21);
        assert_eq!(c0.invoke(30), 31);
        drop((c0, c1));
        let history = cluster.shutdown(Duration::from_millis(5));
        assert!(history.is_complete());
        assert_eq!(history.len(), 3);
    }

    /// A second async invocation while the first is still in flight must
    /// be rejected — the silent one-pending-op violation this runtime
    /// used to allow.
    #[test]
    fn overlapping_async_invocations_rejected() {
        let bounds = DelayBounds::new(SimDuration::from_ticks(1000), SimDuration::from_ticks(500));
        let cluster = RtCluster::start(
            vec![TimerEcho, TimerEcho],
            &ClockAssignment::zero(2),
            bounds,
            3,
        );
        // The first op waits on a 1 ms timer before responding.
        cluster.invoke_async(ProcessId::new(0), 1);
        assert_eq!(
            cluster.try_invoke_async(ProcessId::new(0), 2),
            Err(OpPending {
                pid: ProcessId::new(0)
            })
        );
        // A different process is unaffected.
        assert_eq!(cluster.try_invoke_async(ProcessId::new(1), 3), Ok(()));
        cluster.wait_for(2);
        // After the responses, both processes accept new work.
        assert_eq!(cluster.try_invoke_async(ProcessId::new(0), 4), Ok(()));
        cluster.wait_for(1);
        let history = cluster.shutdown(Duration::from_millis(5));
        assert!(history.is_complete());
        assert_eq!(history.len(), 3);
    }

    #[test]
    #[should_panic(expected = "another operation is pending")]
    fn overlapping_invoke_async_panics() {
        let bounds = DelayBounds::new(SimDuration::from_ticks(1000), SimDuration::from_ticks(500));
        let cluster = RtCluster::start(vec![TimerEcho], &ClockAssignment::zero(1), bounds, 3);
        cluster.invoke_async(ProcessId::new(0), 1);
        cluster.invoke_async(ProcessId::new(0), 2);
    }

    /// Op 0 arms a timer and responds when it fires (remembering the id);
    /// op 1 cancels the remembered — by then already fired — timer and
    /// responds with the fire count.
    #[derive(Debug, Default)]
    struct CancelRace {
        armed: Option<TimerId>,
        fired: u32,
    }

    impl Actor for CancelRace {
        type Msg = ();
        type Op = u32;
        type Resp = u32;
        type Timer = ();

        fn on_invoke(&mut self, op: u32, ctx: &mut Context<'_, Self>) {
            match op {
                0 => self.armed = Some(ctx.set_timer(SimDuration::from_ticks(1000), ())),
                _ => {
                    if let Some(id) = self.armed {
                        ctx.cancel_timer(id);
                    }
                    ctx.respond(self.fired);
                }
            }
        }
        fn on_message(&mut self, _: ProcessId, _: (), _: &mut Context<'_, Self>) {}
        fn on_timer(&mut self, _t: (), ctx: &mut Context<'_, Self>) {
            self.fired += 1;
            ctx.respond(self.fired);
        }
    }

    /// Cancelling a timer *after* it fired must be a no-op: the slab id
    /// is stale by then, so the cancel neither panics nor disturbs later
    /// timers — the invariant the engine's generation scheme promises,
    /// checked here on the real-thread runtime where the fire and the
    /// cancel race through separate queue hops.
    #[test]
    fn cancel_after_fire_is_a_noop() {
        let bounds = DelayBounds::new(SimDuration::from_ticks(1000), SimDuration::from_ticks(500));
        let mut cluster = RtCluster::start(
            vec![CancelRace::default()],
            &ClockAssignment::zero(1),
            bounds,
            11,
        );
        let mut c0 = cluster.client(ProcessId::new(0));
        // Blocks until the timer fires and responds.
        assert_eq!(c0.invoke(0), 1);
        // The remembered id is now stale; cancelling it must not panic
        // and must not affect anything else.
        assert_eq!(c0.invoke(1), 1);
        // A fresh arm still works after the stale cancel.
        assert_eq!(c0.invoke(0), 2);
        drop(c0);
        let history = cluster.shutdown(Duration::from_millis(5));
        assert!(history.is_complete());
        assert_eq!(history.len(), 3);
    }

    /// Arms a long timer and responds immediately, leaving the timer
    /// pending at shutdown.
    #[derive(Debug, Default)]
    struct SlowTimer {
        fired: bool,
    }

    impl Actor for SlowTimer {
        type Msg = ();
        type Op = ();
        type Resp = ();
        type Timer = ();

        fn on_invoke(&mut self, _op: (), ctx: &mut Context<'_, Self>) {
            ctx.set_timer(SimDuration::from_ticks(20_000), ()); // 20 ms
            ctx.respond(());
        }
        fn on_message(&mut self, _: ProcessId, _: (), _: &mut Context<'_, Self>) {}
        fn on_timer(&mut self, _t: (), _ctx: &mut Context<'_, Self>) {
            self.fired = true;
        }
    }

    /// Shutdown with a timer still pending must drain it — the worker
    /// loop only exits once its timer list is empty, so the runtime
    /// neither hangs nor drops armed timers on the floor.
    #[test]
    fn shutdown_drains_pending_timers() {
        let bounds = DelayBounds::new(SimDuration::from_ticks(1000), SimDuration::from_ticks(500));
        let history = run_threaded(
            vec![SlowTimer::default()],
            &ClockAssignment::zero(1),
            bounds,
            5,
            vec![RtInvocation {
                pid: ProcessId::new(0),
                at: SimDuration::ZERO,
                op: (),
            }],
            Duration::from_millis(1),
        );
        // The op responded instantly; the join in shutdown() only
        // returned because the worker drained the pending 20 ms timer
        // first (a hang here would trip the test harness timeout).
        assert!(history.is_complete());
        assert_eq!(history.len(), 1);
    }

    /// The drain must actually *wait* for the pending timer, not discard
    /// it: measure that shutdown takes at least the timer's delay.
    #[test]
    fn shutdown_waits_for_pending_timers_to_fire() {
        let bounds = DelayBounds::new(SimDuration::from_ticks(1000), SimDuration::from_ticks(500));
        let cluster = RtCluster::start(
            vec![SlowTimer::default()],
            &ClockAssignment::zero(1),
            bounds,
            5,
        );
        cluster.invoke_async(ProcessId::new(0), ());
        cluster.wait_for(1);
        let before = Instant::now();
        let history = cluster.shutdown(Duration::from_millis(1));
        // 20 ms timer armed at invocation; shutdown began within a few
        // ms of that, so the drain accounts for most of the wait.
        assert!(
            before.elapsed() >= Duration::from_millis(10),
            "shutdown returned before the pending timer could have fired"
        );
        assert!(history.is_complete());
    }

    #[test]
    #[should_panic(expected = "client already taken")]
    fn clients_are_unique_per_process() {
        let bounds = DelayBounds::new(SimDuration::from_ticks(1000), SimDuration::from_ticks(500));
        let mut cluster = RtCluster::start(vec![TimerEcho], &ClockAssignment::zero(1), bounds, 3);
        let _a = cluster.client(ProcessId::new(0));
        let _b = cluster.client(ProcessId::new(0));
    }

    /// A driver-run closed loop on the rt backend: every process issues
    /// its quota sequentially and the history completes.
    #[test]
    fn run_driver_executes_a_closed_loop() {
        use crate::workload::ClosedLoop;

        let bounds = DelayBounds::new(SimDuration::from_ticks(1000), SimDuration::from_ticks(500));
        let cluster = RtCluster::start(
            vec![TimerEcho, TimerEcho],
            &ClockAssignment::zero(2),
            bounds,
            9,
        );
        let mut driver = ClosedLoop::new(
            vec![ProcessId::new(0), ProcessId::new(1)],
            3,
            42,
            |pid, idx, _rng| pid.as_u32() * 100 + u32::try_from(idx).unwrap(),
        );
        let completed = cluster.run_driver(&mut driver);
        assert_eq!(completed, 6);
        let history = cluster.shutdown(Duration::from_millis(5));
        assert!(history.is_complete());
        assert_eq!(history.len(), 6);
        // Per process, ops are issued in index order (closed loop).
        for pid in [ProcessId::new(0), ProcessId::new(1)] {
            let ops: Vec<u32> = history
                .records()
                .iter()
                .filter(|r| r.pid == pid)
                .map(|r| r.op)
                .collect();
            let base = pid.as_u32() * 100;
            assert_eq!(ops, vec![base, base + 1, base + 2]);
        }
    }
}
