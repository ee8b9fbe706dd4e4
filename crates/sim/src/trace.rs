//! Structured event traces: what happened, when, at which process.
//!
//! Tracing is off by default (the measurement workloads stay allocation
//! light). A node emits every invocation, response, send, delivery,
//! timer arm and timer firing — the six event kinds — into the
//! `Option<&mut dyn TraceSink>` its entries take, each event stamped
//! with its real time, the local clock reading of the process it
//! happened at, and the process id.
//! `None` is the gate: the disabled path constructs nothing, so runs
//! without tracing stay allocation-free. The engine holds one owned
//! sink ([`Simulation::set_trace_sink`](crate::engine::Simulation::set_trace_sink));
//! the socket server is handed one per process.
//!
//! [`Trace`] is the in-memory sink. It renders either as a chronological
//! log or as per-process lanes — handy when staring at an adversarial
//! run trying to see *why* a foil's history fell apart — and it is a
//! run's one record of its messages ([`Trace::messages`]). A caller that
//! wants its sink back after handing it over keeps an
//! `Rc<RefCell<_>>` clone, which is itself a [`TraceSink`]. The
//! JSON-lines writer the offline auditor reads lives in
//! `skewbound-lint`, beside that auditor.

use core::cell::RefCell;
use core::fmt;
use std::rc::Rc;

use fxhash::FxHashMap;

use crate::ids::{MsgId, ProcessId, TimerId};
use crate::time::{ClockTime, SimDuration, SimTime};

/// What a trace event describes. Payloads are captured as their `Debug`
/// rendering so traces are uniform across actor types.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEventKind {
    /// An operation invocation.
    Invoke {
        /// `Debug` rendering of the operation.
        op: String,
    },
    /// An operation response.
    Respond {
        /// `Debug` rendering of the response.
        resp: String,
    },
    /// A message send (one recipient of a broadcast per event).
    Send {
        /// Recipient.
        to: ProcessId,
        /// Message id (matches the later
        /// [`Recv`](TraceEventKind::Recv) event's).
        msg: MsgId,
        /// `Debug` rendering of the payload.
        payload: String,
    },
    /// A message delivery.
    Recv {
        /// Sender.
        from: ProcessId,
        /// Message id.
        msg: MsgId,
    },
    /// A timer being armed.
    TimerSet {
        /// The slab handle of the armed timer; matches the later
        /// [`Timer`](TraceEventKind::Timer) event, so offline auditors
        /// can pair set and fire per timer.
        id: TimerId,
        /// `Debug` rendering of the timer tag.
        tag: String,
        /// The requested wait, in local clock ticks.
        delay: SimDuration,
    },
    /// A timer firing.
    Timer {
        /// The slab handle assigned when the timer was set.
        id: TimerId,
        /// `Debug` rendering of the timer tag.
        tag: String,
    },
}

impl TraceEventKind {
    /// Stable label for this event kind — the `kind` field of the
    /// JSON-lines trace schema (DESIGN.md §9).
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            TraceEventKind::Invoke { .. } => "invoke",
            TraceEventKind::Respond { .. } => "respond",
            TraceEventKind::Send { .. } => "send",
            TraceEventKind::Recv { .. } => "deliver",
            TraceEventKind::TimerSet { .. } => "timer-set",
            TraceEventKind::Timer { .. } => "timer-fire",
        }
    }
}

/// One trace event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Real time of the event.
    pub at: SimTime,
    /// The local clock reading of `pid` at `at`.
    pub clock: ClockTime,
    /// The process at which it happened.
    pub pid: ProcessId,
    /// What happened.
    pub kind: TraceEventKind,
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:<8} c={:<8} {}  ", self.at, self.clock, self.pid)?;
        match &self.kind {
            TraceEventKind::Invoke { op } => write!(f, "INVOKE  {op}"),
            TraceEventKind::Respond { resp } => write!(f, "RESPOND {resp}"),
            TraceEventKind::Send { to, msg, payload } => {
                write!(f, "SEND    -> {to} {msg:?} {payload}")
            }
            TraceEventKind::Recv { from, msg } => write!(f, "RECV    <- {from} {msg:?}"),
            TraceEventKind::TimerSet { id, tag, delay } => {
                write!(f, "TSET    {tag} +{delay} ({id:?})")
            }
            TraceEventKind::Timer { id, tag } => write!(f, "TIMER   {tag} ({id:?})"),
        }
    }
}

/// A consumer of structured trace events.
///
/// Nodes emit through `Option<&mut dyn TraceSink>`; with `None` the
/// hook sites do no work and allocate nothing. Implementations decide what
/// to do with each event — record it ([`Trace`]), stream it to a file,
/// or aggregate it into counters.
pub trait TraceSink {
    /// Receives one engine event.
    fn event(&mut self, event: &TraceEvent);

    /// Receives a per-stage counter increment (e.g. checker DFS nodes,
    /// model-checker schedules). `stage` names the pipeline stage
    /// (`"engine"`, `"check"`, `"mc"`), `name` the counter within it.
    /// The default implementation discards counters.
    fn counter(&mut self, stage: &'static str, name: &'static str, value: u64) {
        let _ = (stage, name, value);
    }
}

impl fmt::Debug for dyn TraceSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("dyn TraceSink")
    }
}

/// A shared sink: the caller keeps one `Rc` clone to read the buffer
/// back and hands another to the engine or the server.
impl<T: TraceSink + ?Sized> TraceSink for Rc<RefCell<T>> {
    fn event(&mut self, event: &TraceEvent) {
        self.borrow_mut().event(event);
    }

    fn counter(&mut self, stage: &'static str, name: &'static str, value: u64) {
        self.borrow_mut().counter(stage, name, value);
    }
}

/// One delivered message, as [`Trace::messages`] pairs it from its
/// `send` and `deliver` events (payload omitted).
///
/// This is the raw material from which the `shift` crate reconstructs
/// runs-as-data for admissibility checking and chopping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MsgEvent {
    /// Run-unique message id.
    pub id: MsgId,
    /// Sender.
    pub from: ProcessId,
    /// Recipient.
    pub to: ProcessId,
    /// Real send time.
    pub sent_at: SimTime,
    /// The delay the message took (`recv_at − sent_at`).
    pub delay: SimDuration,
    /// Real delivery time.
    pub recv_at: SimTime,
}

/// A recorded trace: the in-memory [`TraceSink`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    events: Vec<TraceEvent>,
}

impl TraceSink for Trace {
    fn event(&mut self, event: &TraceEvent) {
        self.events.push(event.clone());
    }
}

impl Trace {
    /// Creates an empty trace.
    #[must_use]
    pub fn new() -> Self {
        Trace { events: Vec::new() }
    }

    /// All events, in the order they happened.
    #[must_use]
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when nothing was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Every delivered message, in id order: each `send` event paired
    /// with the `deliver` event of the same message id. A message only
    /// has a delay once delivered, so a send with no delivery in the
    /// trace (still in flight when the run stopped) is left out, and so
    /// is a delivery whose send the trace lacks (sent before the sink
    /// was attached).
    ///
    /// # Panics
    ///
    /// Panics if a delivery is stamped before its send.
    #[must_use]
    pub fn messages(&self) -> Vec<MsgEvent> {
        let mut sent = FxHashMap::default();
        for e in &self.events {
            if let TraceEventKind::Send { to, msg, .. } = e.kind {
                sent.insert(msg, (e.pid, to, e.at));
            }
        }
        let mut out = Vec::with_capacity(sent.len());
        for e in &self.events {
            if let TraceEventKind::Recv { msg, .. } = e.kind {
                if let Some((from, to, sent_at)) = sent.remove(&msg) {
                    out.push(MsgEvent {
                        id: msg,
                        from,
                        to,
                        sent_at,
                        delay: e.at - sent_at,
                        recv_at: e.at,
                    });
                }
            }
        }
        out.sort_unstable_by_key(|m| m.id);
        out
    }

    /// Events at one process only.
    pub fn at_process(&self, pid: ProcessId) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter().filter(move |e| e.pid == pid)
    }

    /// Renders the chronological log, one event per line.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            out.push_str(&format!("{e}\n"));
        }
        out
    }

    /// Renders per-process operation lanes: for each process, its
    /// invocations and responses as `[op ............ resp]` spans, in
    /// time order. Sends/receives/timers are omitted.
    #[must_use]
    pub fn render_lanes(&self, n: usize) -> String {
        let mut out = String::new();
        for pid in ProcessId::all(n) {
            out.push_str(&format!("{pid}:\n"));
            let mut pending: Option<(&str, SimTime)> = None;
            for e in self.at_process(pid) {
                match &e.kind {
                    TraceEventKind::Invoke { op } => pending = Some((op, e.at)),
                    TraceEventKind::Respond { resp } => {
                        if let Some((op, started)) = pending.take() {
                            out.push_str(&format!(
                                "  [{started:>8} .. {:>8}]  {op} -> {resp}\n",
                                e.at
                            ));
                        }
                    }
                    _ => {}
                }
            }
            if let Some((op, started)) = pending {
                out.push_str(&format!("  [{started:>8} ..  pending]  {op}\n"));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(x: u64) -> SimTime {
        SimTime::from_ticks(x)
    }

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    fn ev(at: SimTime, pid: ProcessId, kind: TraceEventKind) -> TraceEvent {
        TraceEvent {
            at,
            clock: ClockTime::from_ticks(i64::try_from(at.as_ticks()).unwrap()),
            pid,
            kind,
        }
    }

    #[test]
    fn records_and_filters() {
        let mut tr = Trace::new();
        tr.event(&ev(t(0), p(0), TraceEventKind::Invoke { op: "w".into() }));
        tr.event(&ev(
            t(5),
            p(1),
            TraceEventKind::Timer {
                id: TimerId::new(0),
                tag: "hold".into(),
            },
        ));
        tr.event(&ev(
            t(9),
            p(0),
            TraceEventKind::Respond { resp: "ok".into() },
        ));
        assert_eq!(tr.len(), 3);
        assert_eq!(tr.at_process(p(0)).count(), 2);
        assert_eq!(tr.at_process(p(2)).count(), 0);
    }

    #[test]
    fn render_log_lines() {
        let mut tr = Trace::new();
        tr.event(&ev(t(0), p(0), TraceEventKind::Invoke { op: "deq".into() }));
        tr.event(&ev(
            t(1),
            p(0),
            TraceEventKind::Send {
                to: p(1),
                msg: MsgId::new(0),
                payload: "m".into(),
            },
        ));
        tr.event(&ev(
            t(3),
            p(1),
            TraceEventKind::Recv {
                from: p(0),
                msg: MsgId::new(0),
            },
        ));
        let text = tr.render();
        assert!(text.contains("INVOKE  deq"));
        assert!(text.contains("SEND    -> p1"));
        assert!(text.contains("RECV    <- p0"));
    }

    #[test]
    fn messages_pair_sends_with_deliveries_in_id_order() {
        let send = |at, from, to, msg| {
            ev(
                t(at),
                p(from),
                TraceEventKind::Send {
                    to: p(to),
                    msg: MsgId::new(msg),
                    payload: String::new(),
                },
            )
        };
        let recv = |at, from, to, msg| {
            ev(
                t(at),
                p(to),
                TraceEventKind::Recv {
                    from: p(from),
                    msg: MsgId::new(msg),
                },
            )
        };
        let mut tr = Trace::new();
        // Message 1 is delivered before message 0; message 2 never is;
        // message 3's send is not in the trace.
        for e in [
            send(0, 0, 1, 0),
            send(2, 1, 0, 1),
            send(3, 0, 2, 2),
            recv(5, 1, 0, 1),
            recv(6, 2, 1, 3),
            recv(7, 0, 1, 0),
        ] {
            tr.event(&e);
        }
        let msg = |id, from, to, sent, recv| MsgEvent {
            id: MsgId::new(id),
            from: p(from),
            to: p(to),
            sent_at: t(sent),
            delay: SimDuration::from_ticks(recv - sent),
            recv_at: t(recv),
        };
        assert_eq!(tr.messages(), [msg(0, 0, 1, 0, 7), msg(1, 1, 0, 2, 5)]);
    }

    #[test]
    fn lanes_pair_invokes_with_responses() {
        let mut tr = Trace::new();
        tr.event(&ev(t(0), p(0), TraceEventKind::Invoke { op: "a".into() }));
        tr.event(&ev(
            t(10),
            p(0),
            TraceEventKind::Respond { resp: "ra".into() },
        ));
        tr.event(&ev(t(20), p(1), TraceEventKind::Invoke { op: "b".into() }));
        let lanes = tr.render_lanes(2);
        assert!(lanes.contains("a -> ra"));
        assert!(lanes.contains("pending]  b"));
    }

    #[test]
    fn kind_labels_are_stable() {
        // These labels are the JSON-lines schema's `kind` values; CI
        // greps for them, so treat changes as schema changes.
        assert_eq!(
            TraceEventKind::Invoke { op: String::new() }.label(),
            "invoke"
        );
        assert_eq!(
            TraceEventKind::Respond {
                resp: String::new()
            }
            .label(),
            "respond"
        );
        assert_eq!(
            TraceEventKind::Send {
                to: p(0),
                msg: MsgId::new(0),
                payload: String::new(),
            }
            .label(),
            "send"
        );
        assert_eq!(
            TraceEventKind::Recv {
                from: p(0),
                msg: MsgId::new(0),
            }
            .label(),
            "deliver"
        );
        assert_eq!(
            TraceEventKind::TimerSet {
                id: TimerId::new(0),
                tag: String::new(),
                delay: SimDuration::from_ticks(1),
            }
            .label(),
            "timer-set"
        );
        assert_eq!(
            TraceEventKind::Timer {
                id: TimerId::new(0),
                tag: String::new(),
            }
            .label(),
            "timer-fire"
        );
    }

    #[test]
    fn trace_is_a_sink() {
        let mut tr = Trace::new();
        let event = ev(t(2), p(1), TraceEventKind::Invoke { op: "x".into() });
        {
            let sink: &mut dyn TraceSink = &mut tr;
            sink.event(&event);
            sink.counter("check", "nodes", 7); // default: discarded
        }
        assert_eq!(tr.events(), std::slice::from_ref(&event));
        // A shared handle writes into the buffer its clone reads back.
        let shared = Rc::new(RefCell::new(Trace::new()));
        let mut handle: Box<dyn TraceSink> = Box::new(Rc::clone(&shared));
        handle.event(&event);
        drop(handle);
        assert_eq!(shared.borrow().events(), &[event]);
    }

    #[test]
    fn display_includes_clock_reading() {
        let e = TraceEvent {
            at: t(10),
            clock: ClockTime::from_ticks(6),
            pid: p(0),
            kind: TraceEventKind::TimerSet {
                id: TimerId::new(3),
                tag: "hold".into(),
                delay: SimDuration::from_ticks(50),
            },
        };
        let text = e.to_string();
        assert!(text.contains("c=6"), "{text}");
        assert!(text.contains("TSET    hold +50"), "{text}");
        assert!(text.contains("timer#3"), "{text}");
    }
}
