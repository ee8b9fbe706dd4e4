//! JSON-lines trace emission: the [`TraceSink`] that turns node events
//! and per-stage counters into one [`crate::json`] value per line
//! (DESIGN.md §9) — the format [`crate::audit`] reads back.
//!
//! The sink buffers lines in memory; callers write the buffer wherever
//! they like (`skewlint --trace <path>`, `skewbound-serve --trace
//! <path>`). Every line is an object with a `"kind"` field — the six
//! node kinds (`invoke`, `respond`, `send`, `deliver`, `timer-set`,
//! `timer-fire`) plus `counter` for stage counters — so
//! a reader can dispatch on one key without a schema in hand. Lines
//! parse back through [`crate::json::parse_lines`]. A caller that hands
//! the sink to an engine and wants the lines back keeps an
//! `Rc<RefCell<JsonLinesSink>>` clone, which is itself a sink.

use skewbound_sim::prelude::{TraceEvent, TraceEventKind, TraceSink};

use crate::json::{obj, Json};

/// Clamp-converting number constructor: trace magnitudes are tick
/// counts and ids far below `i64::MAX`, but the JSON layer is `i64`.
fn num_u64(v: u64) -> Json {
    Json::Num(i64::try_from(v).unwrap_or(i64::MAX))
}

/// Converts one node event to its JSON-lines object.
///
/// Common fields: `kind` (stable label), `at` (real time, ticks),
/// `clock` (local clock reading of `pid` at `at`), `pid`. Kind-specific
/// fields follow the variant payloads.
#[must_use]
pub fn event_json(event: &TraceEvent) -> Json {
    let mut members = vec![
        ("kind", Json::Str(event.kind.label().to_owned())),
        ("at", num_u64(event.at.as_ticks())),
        ("clock", Json::Num(event.clock.as_ticks())),
        ("pid", Json::Num(i64::from(event.pid.as_u32()))),
    ];
    match &event.kind {
        TraceEventKind::Invoke { op } => members.push(("op", Json::Str(op.clone()))),
        TraceEventKind::Respond { resp } => members.push(("resp", Json::Str(resp.clone()))),
        TraceEventKind::Send { to, msg, payload } => {
            members.push(("to", Json::Num(i64::from(to.as_u32()))));
            members.push(("msg", num_u64(msg.as_u64())));
            members.push(("payload", Json::Str(payload.clone())));
        }
        TraceEventKind::Recv { from, msg } => {
            members.push(("from", Json::Num(i64::from(from.as_u32()))));
            members.push(("msg", num_u64(msg.as_u64())));
        }
        TraceEventKind::TimerSet { id, tag, delay } => {
            members.push(("timer", num_u64(id.as_u64())));
            members.push(("tag", Json::Str(tag.clone())));
            members.push(("delay", num_u64(delay.as_ticks())));
        }
        TraceEventKind::Timer { id, tag } => {
            members.push(("timer", num_u64(id.as_u64())));
            members.push(("tag", Json::Str(tag.clone())));
        }
    }
    obj(members)
}

/// A [`TraceSink`] that renders every event and counter as one compact
/// JSON object per line.
#[derive(Debug, Default)]
pub struct JsonLinesSink {
    buf: String,
    events: u64,
}

impl JsonLinesSink {
    /// Creates an empty sink.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of node events written so far (counter lines excluded).
    #[must_use]
    pub fn events(&self) -> u64 {
        self.events
    }

    /// The buffered JSON-lines text.
    #[must_use]
    pub fn lines(&self) -> &str {
        &self.buf
    }

    /// Consumes the sink, returning the buffered JSON-lines text.
    #[must_use]
    pub fn into_string(self) -> String {
        self.buf
    }

    fn push_line(&mut self, value: &Json) {
        self.buf.push_str(&value.compact());
        self.buf.push('\n');
    }
}

impl TraceSink for JsonLinesSink {
    fn event(&mut self, event: &TraceEvent) {
        self.events += 1;
        self.push_line(&event_json(event));
    }

    fn counter(&mut self, stage: &'static str, name: &'static str, value: u64) {
        self.push_line(&obj([
            ("kind", Json::Str("counter".to_owned())),
            ("stage", Json::Str(stage.to_owned())),
            ("name", Json::Str(name.to_owned())),
            ("value", num_u64(value)),
        ]));
    }
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;
    use std::rc::Rc;

    use skewbound_sim::prelude::*;

    use super::*;
    use crate::json::parse_lines;

    fn sample_event() -> TraceEvent {
        TraceEvent {
            at: SimTime::from_ticks(6600),
            clock: ClockTime::from_ticks(5000),
            pid: ProcessId::new(1),
            kind: TraceEventKind::Recv {
                from: ProcessId::new(0),
                msg: MsgId::new(3),
            },
        }
    }

    #[test]
    fn events_render_one_parseable_line_each() {
        let mut sink = JsonLinesSink::new();
        sink.event(&sample_event());
        sink.event(&TraceEvent {
            at: SimTime::from_ticks(0),
            clock: ClockTime::from_ticks(0),
            pid: ProcessId::new(0),
            kind: TraceEventKind::Invoke {
                op: "Write(1)".into(),
            },
        });
        assert_eq!(sink.events(), 2);
        let parsed = parse_lines(sink.lines()).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(
            parsed[0].get("kind").and_then(Json::as_str),
            Some("deliver")
        );
        assert_eq!(parsed[0].get("at").and_then(Json::as_num), Some(6600));
        assert_eq!(parsed[0].get("clock").and_then(Json::as_num), Some(5000));
        assert_eq!(parsed[0].get("from").and_then(Json::as_num), Some(0));
        assert_eq!(parsed[0].get("msg").and_then(Json::as_num), Some(3));
        assert_eq!(parsed[1].get("op").and_then(Json::as_str), Some("Write(1)"));
    }

    #[test]
    fn counters_render_as_counter_lines() {
        let mut sink = JsonLinesSink::new();
        sink.counter("check", "nodes", 42);
        let parsed = parse_lines(sink.lines()).unwrap();
        assert_eq!(parsed.len(), 1);
        assert_eq!(
            parsed[0].get("kind").and_then(Json::as_str),
            Some("counter")
        );
        assert_eq!(parsed[0].get("stage").and_then(Json::as_str), Some("check"));
        assert_eq!(parsed[0].get("name").and_then(Json::as_str), Some("nodes"));
        assert_eq!(parsed[0].get("value").and_then(Json::as_num), Some(42));
        assert_eq!(sink.events(), 0, "counter lines are not node events");
    }

    #[test]
    fn every_kind_serializes_with_its_payload_fields() {
        let kinds: Vec<(TraceEventKind, &str, &str)> = vec![
            (TraceEventKind::Invoke { op: "w".into() }, "invoke", "op"),
            (
                TraceEventKind::Respond { resp: "ok".into() },
                "respond",
                "resp",
            ),
            (
                TraceEventKind::Send {
                    to: ProcessId::new(2),
                    msg: MsgId::new(7),
                    payload: "m".into(),
                },
                "send",
                "payload",
            ),
            (
                TraceEventKind::Recv {
                    from: ProcessId::new(2),
                    msg: MsgId::new(7),
                },
                "deliver",
                "from",
            ),
            (
                TraceEventKind::TimerSet {
                    id: TimerId::new(4),
                    tag: "hold".into(),
                    delay: SimDuration::from_ticks(9),
                },
                "timer-set",
                "delay",
            ),
            (
                TraceEventKind::Timer {
                    id: TimerId::new(4),
                    tag: "hold".into(),
                },
                "timer-fire",
                "tag",
            ),
        ];
        for (kind, label, field) in kinds {
            let json = event_json(&TraceEvent {
                at: SimTime::from_ticks(1),
                clock: ClockTime::from_ticks(1),
                pid: ProcessId::new(0),
                kind,
            });
            assert_eq!(json.get("kind").and_then(Json::as_str), Some(label));
            assert!(json.get(field).is_some(), "{label} missing {field}");
        }
    }

    #[test]
    fn shared_sink_clones_write_one_buffer() {
        let shared = Rc::new(RefCell::new(JsonLinesSink::new()));
        let mut handle: Box<dyn TraceSink> = Box::new(Rc::clone(&shared));
        handle.event(&sample_event());
        handle.counter("mc", "schedules", 5);
        drop(handle);
        assert_eq!(shared.borrow().events(), 1);
        let parsed = parse_lines(shared.borrow().lines()).unwrap();
        assert_eq!(parsed.len(), 2);
    }

    #[test]
    fn parse_lines_reports_the_offending_line() {
        let err = parse_lines("{\"kind\":\"invoke\"}\nnot json\n").unwrap_err();
        assert!(err.contains("line 2"), "{err}");
    }
}
