//! Joins a server's JSON-lines trace with the client-side stamps of the
//! connection that drove it, giving each operation's path through the
//! layers: request path, timer lateness, response path.

use std::collections::BTreeMap;

use skewbound_lint::json::Json;

/// One operation's boundaries, all in ticks (µs) of the shared timebase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpPath {
    /// Client stamp just before the request was written.
    pub sent: i64,
    /// Server `invoke` event.
    pub invoke: i64,
    /// When the responding timer was due (`timer-set.at + delay`) and
    /// when it fired; `None` for an operation that responded without a
    /// timer firing between its invoke and its respond.
    pub timer: Option<(i64, i64)>,
    /// Server `respond` event.
    pub respond: i64,
    /// Client stamp just after the response was read.
    pub received: i64,
}

impl OpPath {
    /// Client send stamp → server `invoke`.
    pub fn req_path(&self) -> i64 {
        self.invoke - self.sent
    }

    /// How late the responding timer fired.
    pub fn timer_late(&self) -> Option<i64> {
        self.timer.map(|(due, fired)| fired - due)
    }

    /// Server `respond` → client receipt.
    pub fn resp_path(&self) -> i64 {
        self.received - self.respond
    }
}

fn num(ev: &Json, key: &str) -> Option<i64> {
    ev.get(key).and_then(Json::as_num)
}

/// Pairs the k-th `invoke`/`respond` of process `pid` in `events` (one
/// server's trace, in file order) with the k-th client stamp. The
/// responding timer of an operation is the last timer that fired at
/// `pid` between its invoke and its respond: the replica responds from
/// inside that timer's activation.
///
/// # Errors
///
/// Returns a description when the trace and the stamps disagree on the
/// number of operations or a record lacks a field.
pub fn join_ops(events: &[Json], pid: i64, stamps: &[(u64, u64)]) -> Result<Vec<OpPath>, String> {
    let mut paths = Vec::with_capacity(stamps.len());
    // timer id → due tick, for timers armed and not yet fired.
    let mut armed: BTreeMap<i64, i64> = BTreeMap::new();
    let mut invoke: Option<i64> = None;
    let mut last_fire: Option<(i64, i64)> = None;
    for (line, ev) in events.iter().enumerate() {
        if num(ev, "pid") != Some(pid) {
            continue;
        }
        let kind = ev.get("kind").and_then(Json::as_str).unwrap_or("");
        let at = num(ev, "at").ok_or_else(|| format!("line {}: no `at`", line + 1))?;
        match kind {
            "invoke" => {
                invoke = Some(at);
                last_fire = None;
            }
            "timer-set" => {
                let (id, delay) = num(ev, "timer")
                    .zip(num(ev, "delay"))
                    .ok_or_else(|| format!("line {}: timer-set lacks timer/delay", line + 1))?;
                armed.insert(id, at + delay);
            }
            "timer-fire" => {
                let id = num(ev, "timer")
                    .ok_or_else(|| format!("line {}: timer-fire lacks timer", line + 1))?;
                if let Some(due) = armed.remove(&id) {
                    last_fire = Some((due, at));
                }
            }
            "timer-cancel" => {
                if let Some(id) = num(ev, "timer") {
                    armed.remove(&id);
                }
            }
            "respond" => {
                let invoke = invoke
                    .take()
                    .ok_or_else(|| format!("line {}: respond without invoke", line + 1))?;
                let &(sent, received) = stamps.get(paths.len()).ok_or_else(|| {
                    format!("trace of p{pid} holds more operations than the client sent")
                })?;
                paths.push(OpPath {
                    sent: sent as i64,
                    invoke,
                    timer: last_fire.take(),
                    respond: at,
                    received: received as i64,
                });
            }
            _ => {}
        }
    }
    if paths.len() != stamps.len() {
        return Err(format!(
            "trace of p{pid} holds {} operations, the client sent {}",
            paths.len(),
            stamps.len()
        ));
    }
    Ok(paths)
}

/// Send → deliver latency of every peer message whose send is at or
/// after `from_tick`, from the merged traces of all servers.
pub fn delivery_latencies(events: &[Json], from_tick: i64) -> Vec<f64> {
    let mut sent: BTreeMap<i64, i64> = BTreeMap::new();
    let mut out = Vec::new();
    for ev in events {
        let (Some(msg), Some(at)) = (num(ev, "msg"), num(ev, "at")) else {
            continue;
        };
        match ev.get("kind").and_then(Json::as_str) {
            Some("send") if at >= from_tick => {
                sent.insert(msg, at);
            }
            Some("deliver") => {
                if let Some(s) = sent.remove(&msg) {
                    out.push((at - s) as f64);
                }
            }
            _ => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use skewbound_lint::json::parse_lines;

    /// One write at p0 as `skewbound-serve --trace` records it: the
    /// client sent at 1000, the server invoked at 1040, armed the 500 µs
    /// mutator timer (and broadcast), the timer fired 90 µs late, the
    /// response left at 1632 and the client read it at 1670.
    const TRACE: &str = r#"
{"kind":"invoke","at":1040,"clock":1040,"pid":0,"op":"NsOp { key: 1, op: Write(7) }"}
{"kind":"send","at":1041,"clock":1041,"pid":0,"to":1,"msg":1099511627776,"payload":"OpMsg"}
{"kind":"timer-set","at":1042,"clock":1042,"pid":0,"timer":3,"tag":"MutatorRespond","delay":500}
{"kind":"timer-fire","at":1632,"clock":1632,"pid":0,"timer":3,"tag":"MutatorRespond"}
{"kind":"respond","at":1632,"clock":1632,"pid":0,"resp":"Ack"}
"#;

    #[test]
    fn joins_a_hand_written_trace() {
        let events = parse_lines(TRACE).unwrap();
        let paths = join_ops(&events, 0, &[(1000, 1670)]).unwrap();
        assert_eq!(
            paths,
            vec![OpPath {
                sent: 1000,
                invoke: 1040,
                timer: Some((1542, 1632)),
                respond: 1632,
                received: 1670,
            }]
        );
        let p = paths[0];
        assert_eq!(
            (p.req_path(), p.timer_late(), p.resp_path()),
            (40, Some(90), 38)
        );
        // The three pieces and the 2 µs between invoke and timer-set
        // account for the whole excess over the 500 µs bound.
        let excess = (p.received - p.sent) - 500;
        assert_eq!(p.req_path() + 90 + p.resp_path() + 2, excess);
    }

    #[test]
    fn other_processes_and_foreign_timers_do_not_leak_in() {
        let mut text = String::from(
            r#"{"kind":"timer-fire","at":900,"clock":900,"pid":0,"timer":9,"tag":"Execute"}"#,
        );
        text.push_str(TRACE);
        text.push_str(r#"{"kind":"respond","at":5000,"clock":5000,"pid":1,"resp":"Ack"}"#);
        let events = parse_lines(&text).unwrap();
        let paths = join_ops(&events, 0, &[(1000, 1670)]).unwrap();
        assert_eq!(paths[0].timer, Some((1542, 1632)));
    }

    #[test]
    fn a_count_mismatch_is_an_error() {
        let events = parse_lines(TRACE).unwrap();
        assert!(join_ops(&events, 0, &[]).is_err());
        assert!(join_ops(&events, 0, &[(1, 2), (3, 4)]).is_err());
    }

    #[test]
    fn delivery_latency_pairs_by_message_id() {
        let text = r#"
{"kind":"send","at":10,"clock":10,"pid":0,"to":1,"msg":5,"payload":"x"}
{"kind":"send","at":100,"clock":100,"pid":0,"to":1,"msg":6,"payload":"x"}
{"kind":"deliver","at":13000,"clock":13000,"pid":1,"from":0,"msg":5}
{"kind":"deliver","at":19100,"clock":19100,"pid":1,"from":0,"msg":6}
"#;
        let events = parse_lines(text).unwrap();
        assert_eq!(delivery_latencies(&events, 0), vec![12990.0, 19000.0]);
        assert_eq!(delivery_latencies(&events, 50), vec![19000.0]);
    }
}
