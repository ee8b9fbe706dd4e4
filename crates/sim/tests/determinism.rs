//! Engine determinism: identical inputs produce identical runs — the
//! property that makes every experiment in this workspace reproducible.

use std::cell::RefCell;
use std::rc::Rc;

use skewbound_sim::prelude::*;

/// A gossiping actor with timers, exercising every event type.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
struct Gossip {
    seen: Vec<(u32, u64)>,
}

#[derive(Debug, Clone)]
enum Timer {
    Echo(u64),
}

impl Actor for Gossip {
    type Msg = u64;
    type Op = u64;
    type Resp = u64;
    type Timer = Timer;

    fn on_invoke(&mut self, op: u64, ctx: &mut Context<'_, Self>) {
        ctx.broadcast(op);
        ctx.set_timer(SimDuration::from_ticks(op % 7 + 1), Timer::Echo(op));
    }

    fn on_message(&mut self, from: ProcessId, msg: u64, ctx: &mut Context<'_, Self>) {
        self.seen.push((from.as_u32(), msg));
        if msg.is_multiple_of(3) && msg > 0 {
            // Fan out a decayed copy.
            ctx.broadcast(msg / 3);
        }
    }

    fn on_timer(&mut self, Timer::Echo(v): Timer, ctx: &mut Context<'_, Self>) {
        ctx.respond(v * 2);
    }
}

#[allow(clippy::type_complexity)]
fn run_once(seed: u64) -> (Vec<Vec<(u32, u64)>>, Vec<(u64, u64)>) {
    let bounds = DelayBounds::new(SimDuration::from_ticks(100), SimDuration::from_ticks(40));
    let mut sim = Simulation::new(
        vec![Gossip::default(), Gossip::default(), Gossip::default()],
        ClockAssignment::spread(3, SimDuration::from_ticks(30)),
        UniformDelay::new(bounds, seed),
    );
    for i in 0..6u64 {
        sim.schedule_invoke(
            ProcessId::new((i % 3) as u32),
            SimTime::from_ticks(i * 500),
            i * 9,
        );
    }
    sim.run().unwrap();
    let states = ProcessId::all(3)
        .map(|p| sim.actor(p).seen.clone())
        .collect();
    let history = sim
        .history()
        .records()
        .iter()
        .map(|r| (r.op, r.resp().copied().unwrap()))
        .collect();
    (states, history)
}

#[test]
fn identical_seeds_identical_runs() {
    let a = run_once(12345);
    let b = run_once(12345);
    assert_eq!(a, b);
}

#[test]
fn different_seeds_usually_differ() {
    // Different delay seeds should (for this workload) change message
    // arrival orders; we only require *some* observable difference.
    let a = run_once(1);
    let b = run_once(2);
    assert_ne!(a.0, b.0, "delay randomness had no observable effect");
}

#[test]
fn traced_messages_are_reproducible() {
    let bounds = DelayBounds::new(SimDuration::from_ticks(100), SimDuration::from_ticks(40));
    let build = || {
        let mut sim = Simulation::new(
            vec![Gossip::default(), Gossip::default()],
            ClockAssignment::zero(2),
            UniformDelay::new(bounds, 9),
        );
        let trace = Rc::new(RefCell::new(Trace::new()));
        sim.set_trace_sink(Box::new(Rc::clone(&trace)));
        sim.schedule_invoke(ProcessId::new(0), SimTime::ZERO, 27);
        sim.run().unwrap();
        let messages = trace.borrow().messages();
        assert!(!messages.is_empty(), "the sink was attached before the run");
        messages
    };
    assert_eq!(build(), build());
}

#[test]
fn trace_captures_all_event_kinds() {
    let bounds = DelayBounds::new(SimDuration::from_ticks(100), SimDuration::from_ticks(40));
    let mut sim = Simulation::new(
        vec![Gossip::default(), Gossip::default()],
        ClockAssignment::zero(2),
        UniformDelay::new(bounds, 4),
    );
    let trace = Rc::new(RefCell::new(Trace::new()));
    sim.set_trace_sink(Box::new(Rc::clone(&trace)));
    sim.schedule_invoke(ProcessId::new(0), SimTime::ZERO, 5);
    sim.run().unwrap();
    let trace = trace.borrow();
    let has = |pred: fn(&TraceEventKind) -> bool| trace.events().iter().any(|e| pred(&e.kind));
    assert!(has(|k| matches!(k, TraceEventKind::Invoke { .. })));
    assert!(has(|k| matches!(k, TraceEventKind::Respond { .. })));
    assert!(has(|k| matches!(k, TraceEventKind::Send { .. })));
    assert!(has(|k| matches!(k, TraceEventKind::Recv { .. })));
    assert!(has(|k| matches!(k, TraceEventKind::TimerSet { .. })));
    assert!(has(|k| matches!(k, TraceEventKind::Timer { .. })));
    // Renders without panicking and mentions the op.
    assert!(trace.render().contains("INVOKE"));
    assert!(trace.render_lanes(2).contains("p0"));
}

#[test]
fn trace_sink_receives_stamped_events_and_counters() {
    #[derive(Debug, Default)]
    struct Collected {
        events: Vec<TraceEvent>,
        counters: Vec<(&'static str, &'static str, u64)>,
    }

    impl TraceSink for Collected {
        fn event(&mut self, event: &TraceEvent) {
            self.events.push(event.clone());
        }
        fn counter(&mut self, stage: &'static str, name: &'static str, value: u64) {
            self.counters.push((stage, name, value));
        }
    }

    let bounds = DelayBounds::new(SimDuration::from_ticks(100), SimDuration::from_ticks(40));
    let offset = SimDuration::from_ticks(30);
    let mut sim = Simulation::new(
        vec![Gossip::default(), Gossip::default()],
        // Non-zero offsets so clock stamps visibly differ from real time.
        ClockAssignment::spread(2, offset),
        UniformDelay::new(bounds, 4),
    );
    let collected = Rc::new(RefCell::new(Collected::default()));
    sim.set_trace_sink(Box::new(Rc::clone(&collected)));
    sim.schedule_invoke(ProcessId::new(0), SimTime::from_ticks(100), 5);
    sim.run().unwrap();
    assert!(sim.take_trace_sink().is_some());

    let collected = collected.borrow();
    // Every event carries the emitting process's local clock reading.
    let clocks = sim.clocks().clone();
    assert!(!collected.events.is_empty());
    for e in &collected.events {
        assert_eq!(e.clock, clocks.clock_at(e.pid, e.at), "clock stamp at {e}");
    }
    // All six kinds appear (the Gossip workload arms a timer and
    // broadcasts on invoke).
    for label in [
        "invoke",
        "respond",
        "send",
        "deliver",
        "timer-set",
        "timer-fire",
    ] {
        assert!(
            collected.events.iter().any(|e| e.kind.label() == label),
            "missing {label} event"
        );
    }
    // Engine-stage counters arrive once the run completes.
    assert!(collected
        .counters
        .iter()
        .any(|&(stage, name, v)| stage == "engine" && name == "events" && v > 0));
}

/// Attaching a sink changes nothing a run produces: the same scenario
/// traced and untraced gives an equal history and report,
/// on the closed-loop hot path and on the scheduled path alike.
#[test]
fn tracing_does_not_change_the_run() {
    let run = |traced: bool, scheduled: bool| {
        let bounds = DelayBounds::new(SimDuration::from_ticks(100), SimDuration::from_ticks(40));
        let mut sim = Simulation::new(
            vec![Gossip::default(), Gossip::default(), Gossip::default()],
            ClockAssignment::spread(3, SimDuration::from_ticks(30)),
            UniformDelay::new(bounds, 11),
        );
        let trace = Rc::new(RefCell::new(Trace::new()));
        if traced {
            sim.set_trace_sink(Box::new(Rc::clone(&trace)));
        }
        let report = if scheduled {
            sim.schedule_invoke(ProcessId::new(0), SimTime::ZERO, 9);
            sim.schedule_invoke(ProcessId::new(1), SimTime::from_ticks(50), 12);
            sim.run_scheduled(&mut FifoPolicy)
                .map(|report| report.expect("FifoPolicy never yields"))
        } else {
            let mut driver =
                ClosedLoop::new(ProcessId::all(3).collect(), 4, 3, |_, i, _| i as u64 * 3);
            sim.run_with(&mut driver)
        }
        .unwrap();
        assert_eq!(trace.borrow().is_empty(), !traced);
        (report, sim.into_history())
    };
    for scheduled in [false, true] {
        assert_eq!(
            run(false, scheduled),
            run(true, scheduled),
            "scheduled={scheduled}"
        );
    }
}

/// FNV-1a: the digest the golden run below pins.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Fixed values, not a second run of the same build: the trace's
/// messages, the rendered trace, the history and the event count of a
/// run of single sends (broadcasts and their fan-out) and timers over
/// skewed clocks and random delays. A change to delay draws, message
/// ids, event order or trace output shows up here, where the run-twice
/// tests above would stay green.
#[test]
fn single_send_run_matches_golden() {
    let bounds = DelayBounds::new(SimDuration::from_ticks(100), SimDuration::from_ticks(40));
    let mut sim = Simulation::new(
        vec![Gossip::default(), Gossip::default(), Gossip::default()],
        ClockAssignment::spread(3, SimDuration::from_ticks(30)),
        UniformDelay::new(bounds, 12345),
    );
    let trace = Rc::new(RefCell::new(Trace::new()));
    sim.set_trace_sink(Box::new(Rc::clone(&trace)));
    for i in 0..6u64 {
        sim.schedule_invoke(
            ProcessId::new((i % 3) as u32),
            SimTime::from_ticks(i * 500),
            i * 9,
        );
    }
    let report = sim.run().unwrap();
    let digests = [
        fnv1a(&format!("{:?}", trace.borrow().messages())),
        fnv1a(&trace.borrow().render()),
        fnv1a(&format!("{:?}", sim.history().records())),
    ];
    assert_eq!(
        (report.events, digests),
        (
            100,
            [
                0x22c4_8cf4_d422_81ca,
                0x25e9_114e_550a_5048,
                0x5aa4_6461_f3d2_7efa
            ]
        )
    );
}

mod cluster {
    use skewbound_sim::prelude::*;
    use skewbound_sim::rt;

    /// A counter replica good enough for cluster smoke tests: applies
    /// adds locally and gossips them (not linearizable — this test is
    /// about the cluster plumbing, not the algorithm).
    #[derive(Debug, Default)]
    struct GossipCounter {
        value: i64,
    }

    impl Actor for GossipCounter {
        type Msg = i64;
        type Op = i64;
        type Resp = i64;
        type Timer = ();

        fn on_invoke(&mut self, add: i64, ctx: &mut Context<'_, Self>) {
            self.value += add;
            ctx.broadcast(add);
            ctx.respond(self.value);
        }
        fn on_message(&mut self, _: ProcessId, add: i64, _: &mut Context<'_, Self>) {
            self.value += add;
        }
        fn on_timer(&mut self, _: (), _: &mut Context<'_, Self>) {}
    }

    /// Three processes each add 1 five times, closed loop, all at once.
    #[test]
    fn concurrent_clients_from_threads() {
        let bounds = DelayBounds::new(SimDuration::from_ticks(1_000), SimDuration::from_ticks(500));
        let mut driver = ClosedLoop::new(ProcessId::all(3).collect(), 5, 5, |_, _, _| 1);
        let history = rt::run_history(
            vec![
                GossipCounter::default(),
                GossipCounter::default(),
                GossipCounter::default(),
            ],
            ClockAssignment::zero(3),
            UniformDelay::new(bounds, 5),
            &mut driver,
        )
        .unwrap();
        assert!(history.is_complete());
        assert_eq!(history.len(), 15);
        for pid in ProcessId::all(3) {
            let last = history.records().iter().rfind(|r| r.pid == pid);
            let local_total = *last.unwrap().resp().unwrap();
            assert!(local_total >= 5, "each process saw at least its own adds");
        }
    }
}
