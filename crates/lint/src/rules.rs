//! The static spec rules `SB001`–`SB005`, each a plain function that
//! returns its findings. (`SB105`, the payload-leak rule, is checked
//! where the count exists: on the engine's `leaked_payloads` counter by
//! [`crate::audit`].)
//!
//! Static rules run against the finite probe sets of
//! [`skewbound_spec::probes`]: each takes a target label, a
//! specification and its probe states/ops, and returns [`Diagnostic`]s
//! with stable codes from the [`crate::diag::catalog`]. Rules are
//! *checked by foils*, not trusted: this module's tests seed a violating
//! spec per rule and require the diagnostic to fire, so a rule that rots
//! into a no-op fails the suite.

use skewbound_core::invariants::routing_lint;
use skewbound_core::timestamp::Timestamp;
use skewbound_spec::classify::immediately_non_commuting;
use skewbound_spec::namespace::NsOp;
use skewbound_spec::seqspec::SequentialSpec;

use crate::diag::Diagnostic;

/// `SB001` — routing consistency, ported from
/// [`skewbound_core::invariants::routing_lint`]: declared pure mutators
/// must have a mutator witness and no accessor witness, declared pure
/// accessors must not have a mutator witness.
pub fn routing<S: SequentialSpec>(
    target: &str,
    spec: &S,
    states: &[S::State],
    ops: &[S::Op],
) -> Vec<Diagnostic> {
    routing_findings(target, spec, states, ops, "routing-consistency", "SB001")
}

/// `SB002` — accessor purity (class consistency): on the probe set, a
/// declared [`PureAccessor`](skewbound_spec::seqspec::OpClass) must
/// never change the state, and a declared
/// [`PureMutator`](skewbound_spec::seqspec::OpClass)'s response must not
/// depend on it.
pub fn accessor_purity<S: SequentialSpec>(
    target: &str,
    spec: &S,
    states: &[S::State],
    ops: &[S::Op],
) -> Vec<Diagnostic> {
    routing_findings(target, spec, states, ops, "class-consistency", "SB002")
}

/// The `routing_lint` findings of one invariant, under one code.
fn routing_findings<S: SequentialSpec>(
    target: &str,
    spec: &S,
    states: &[S::State],
    ops: &[S::Op],
    invariant: &str,
    code: &str,
) -> Vec<Diagnostic> {
    routing_lint(spec, states, ops)
        .into_iter()
        .filter(|v| v.invariant == invariant)
        .map(|v| Diagnostic::new(code, target, v.detail))
        .collect()
}

/// True when the probe set distinguishes the two orders of `a`, `b`:
/// either some response differs (immediate witness) or some final state
/// does (eventual witness).
fn has_witness<S: SequentialSpec>(spec: &S, states: &[S::State], a: &S::Op, b: &S::Op) -> bool {
    if immediately_non_commuting(
        spec,
        states,
        core::slice::from_ref(a),
        core::slice::from_ref(b),
    )
    .is_some()
    {
        return true;
    }
    states
        .iter()
        .any(|s| !spec.equivalent_after(s, &[a.clone(), b.clone()], &[b.clone(), a.clone()]))
}

/// `SB003` — commutativity declarations
/// ([`SequentialSpec::declares_commuting`]) cross-checked against
/// classifier witnesses on the probe set:
///
/// * asymmetric declarations are an error;
/// * `Some(true)` with an immediate or eventual non-commuting witness is
///   an error (the declaration is a lie);
/// * `Some(false)` with no witness at all is a warning (the probe set
///   cannot confirm the claimed conflict).
pub fn commutativity<S: SequentialSpec>(
    target: &str,
    spec: &S,
    states: &[S::State],
    ops: &[S::Op],
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (i, a) in ops.iter().enumerate() {
        for b in &ops[i + 1..] {
            if a == b {
                continue;
            }
            let declared = spec.declares_commuting(a, b);
            if declared != spec.declares_commuting(b, a) {
                out.push(Diagnostic::new(
                    "SB003",
                    target,
                    format!("asymmetric commutativity declaration for {a:?} and {b:?}"),
                ));
                continue;
            }
            let Some(claim) = declared else { continue };
            let witness = has_witness(spec, states, a, b);
            if claim && witness {
                out.push(Diagnostic::new(
                    "SB003",
                    target,
                    format!(
                        "{a:?} and {b:?} are declared commuting but a probe state \
                         distinguishes the two orders"
                    ),
                ));
            } else if !claim && !witness {
                out.push(Diagnostic::warning(
                    "SB003",
                    target,
                    format!(
                        "{a:?} and {b:?} are declared non-commuting but no probe \
                         witness distinguishes the orders"
                    ),
                ));
            }
        }
    }
    out
}

/// `SB004` — batch-vs-sequential equivalence for namespace operations:
/// ops addressing *distinct* keys must be order-independent (same final
/// state, same per-op responses in both orders). This is exactly what
/// lets the sharded runtime apply a key-grouped batch without fixing an
/// inter-key order, and lets `lin::multi` check shards independently.
pub fn ns_batch<S, O>(
    target: &str,
    spec: &S,
    states: &[S::State],
    ops: &[NsOp<O>],
) -> Vec<Diagnostic>
where
    S: SequentialSpec<Op = NsOp<O>>,
    O: Clone + Eq + core::hash::Hash + core::fmt::Debug,
{
    let mut out = Vec::new();
    for state in states {
        for (i, a) in ops.iter().enumerate() {
            for b in &ops[i + 1..] {
                if a.key == b.key {
                    // Same object: ordered by the batch's seq components,
                    // so order-dependence is fine.
                    continue;
                }
                let (s_ab, r_ab) = spec.run(state, &[a.clone(), b.clone()]);
                let (s_ba, r_ba) = spec.run(state, &[b.clone(), a.clone()]);
                if s_ab != s_ba || r_ab[0] != r_ba[1] || r_ab[1] != r_ba[0] {
                    out.push(Diagnostic::new(
                        "SB004",
                        target,
                        format!(
                            "ops on distinct keys {} and {} are order-dependent from \
                             state {state:?}: batched application is not equivalent \
                             to the sequential orders ({a:?}, {b:?})",
                            a.key, b.key
                        ),
                    ));
                }
            }
        }
    }
    out
}

/// `SB005` — timestamp seq-component discipline over an execution
/// order: timestamps must be strictly ascending, and the ops of one
/// batch (same `⟨time, pid⟩`) must carry a contiguous `seq` run
/// starting at `0`, so no foreign timestamp can interleave a batch and
/// single ops keep the paper's two-component form.
pub fn timestamp_seq(target: &str, order: &[Timestamp]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for w in order.windows(2) {
        if w[0] >= w[1] {
            out.push(Diagnostic::new(
                "SB005",
                target,
                format!(
                    "executed timestamps are not strictly ascending: {} then {}",
                    w[0], w[1]
                ),
            ));
        }
    }
    // Group maximal runs with equal ⟨time, pid⟩ and check the seq
    // components count 0, 1, 2, … within each run.
    let mut i = 0;
    while i < order.len() {
        let mut j = i;
        while j < order.len() && order[j].time == order[i].time && order[j].pid == order[i].pid {
            j += 1;
        }
        for (offset, ts) in order[i..j].iter().enumerate() {
            if ts.seq != offset as u32 {
                out.push(Diagnostic::new(
                    "SB005",
                    target,
                    format!(
                        "batch at ⟨{},{}⟩ has a non-contiguous seq run: position \
                         {offset} carries seq {}",
                        ts.time, ts.pid, ts.seq
                    ),
                ));
                break;
            }
        }
        i = j;
    }
    out
}

#[cfg(test)]
mod tests {
    use skewbound_sim::ids::ProcessId;
    use skewbound_sim::time::ClockTime;
    use skewbound_spec::namespace::Namespace;
    use skewbound_spec::prelude::*;
    use skewbound_spec::probes;

    use super::*;

    fn ts(time: i64, pid: u32, seq: u32) -> Timestamp {
        Timestamp::with_seq(ClockTime::from_ticks(time), ProcessId::new(pid), seq)
    }

    /// A register that routes `Read` as a pure mutator: the classic
    /// misdeclaration `routing_lint` exists to catch.
    #[derive(Debug, Clone, Default)]
    struct MisroutedRegister;

    impl SequentialSpec for MisroutedRegister {
        type State = i64;
        type Op = RmwOp;
        type Resp = RmwResp;

        fn initial(&self) -> i64 {
            0
        }

        fn apply(&self, state: &i64, op: &RmwOp) -> (i64, RmwResp) {
            RmwRegister::default().apply(state, op)
        }

        fn class(&self, _op: &RmwOp) -> OpClass {
            OpClass::PureMutator
        }
    }

    /// A counter that lies about commutativity in both directions:
    /// claims Add/Read commute (they do not) and denies Add/Add
    /// commuting (they do).
    #[derive(Debug, Clone, Default)]
    struct DeclLiarCounter;

    impl SequentialSpec for DeclLiarCounter {
        type State = i64;
        type Op = CounterOp;
        type Resp = CounterResp;

        fn initial(&self) -> i64 {
            0
        }

        fn apply(&self, state: &i64, op: &CounterOp) -> (i64, CounterResp) {
            Counter::default().apply(state, op)
        }

        fn class(&self, op: &CounterOp) -> OpClass {
            Counter::default().class(op)
        }

        fn declares_commuting(&self, a: &CounterOp, b: &CounterOp) -> Option<bool> {
            match (a, b) {
                (CounterOp::Add(_), CounterOp::Add(_)) => Some(false),
                (CounterOp::Read, CounterOp::Read) => None,
                _ => Some(true),
            }
        }
    }

    /// A namespace whose keys are *not* independent: writing key 7 also
    /// clobbers key 40. Batch application over distinct keys is then
    /// order-dependent.
    #[derive(Debug, Clone, Default)]
    struct CrossTalkNs;

    impl SequentialSpec for CrossTalkNs {
        type State = std::collections::BTreeMap<u64, i64>;
        type Op = NsOp<RmwOp>;
        type Resp = RmwResp;

        fn initial(&self) -> Self::State {
            std::collections::BTreeMap::new()
        }

        fn apply(&self, state: &Self::State, op: &Self::Op) -> (Self::State, RmwResp) {
            let ns = Namespace::new(RmwRegister::default());
            let (mut next, resp) = ns.apply(state, op);
            if op.key == 7 {
                if let RmwOp::Write(v) = op.op {
                    next.insert(40, v);
                }
            }
            (next, resp)
        }

        fn class(&self, op: &Self::Op) -> OpClass {
            RmwRegister::default().class(&op.op)
        }
    }

    #[test]
    fn honest_specs_are_clean() {
        let findings = [
            routing(
                "register",
                &RmwRegister::default(),
                &probes::register_states(),
                &probes::register_ops(),
            ),
            accessor_purity(
                "register",
                &RmwRegister::default(),
                &probes::register_states(),
                &probes::register_ops(),
            ),
            commutativity(
                "counter",
                &Counter::default(),
                &probes::counter_states(),
                &probes::counter_ops(),
            ),
            ns_batch(
                "ns-register",
                &Namespace::new(RmwRegister::default()),
                &probes::ns_register_states(),
                &probes::ns_register_ops(),
            ),
            timestamp_seq(
                "order",
                &[
                    ts(1, 0, 0),
                    ts(2, 1, 0),
                    ts(2, 1, 1),
                    ts(2, 1, 2),
                    ts(3, 0, 0),
                ],
            ),
        ]
        .concat();
        assert!(findings.is_empty(), "unexpected findings: {findings:?}");
    }

    #[test]
    fn misrouted_register_trips_sb001_and_sb002() {
        let states = probes::register_states();
        let ops = probes::register_ops();
        let sb001 = routing("misrouted", &MisroutedRegister, &states, &ops);
        let sb002 = accessor_purity("misrouted", &MisroutedRegister, &states, &ops);
        assert!(sb001.iter().any(|d| d.code == "SB001"), "{sb001:?}");
        assert!(sb002.iter().any(|d| d.code == "SB002"), "{sb002:?}");
    }

    #[test]
    fn lying_declarations_trip_sb003_both_ways() {
        let out = commutativity(
            "liar",
            &DeclLiarCounter,
            &probes::counter_states(),
            &probes::counter_ops(),
        );
        // Add/Read declared commuting → error; Add/Add declared
        // non-commuting with no witness → warning.
        assert!(
            out.iter()
                .any(|d| d.code == "SB003" && d.severity == crate::diag::Severity::Error),
            "{out:?}"
        );
        assert!(
            out.iter()
                .any(|d| d.code == "SB003" && d.severity == crate::diag::Severity::Warning),
            "{out:?}"
        );
    }

    #[test]
    fn cross_talk_namespace_trips_sb004() {
        let out = ns_batch(
            "cross-talk",
            &CrossTalkNs,
            &probes::ns_register_states(),
            &probes::ns_register_ops(),
        );
        assert!(out.iter().any(|d| d.code == "SB004"), "{out:?}");
    }

    #[test]
    fn seq_violations_trip_sb005() {
        for order in [
            // Descending timestamps.
            vec![ts(2, 0, 0), ts(1, 0, 0)],
            // A batch whose seq run has a gap: 0 then 2.
            vec![ts(5, 1, 0), ts(5, 1, 2)],
            // A batch that starts at seq 1.
            vec![ts(5, 1, 1), ts(5, 1, 2)],
            // Both at once: a descent into a batch with a gap.
            vec![ts(300, 0, 0), ts(200, 1, 0), ts(200, 1, 2)],
        ] {
            let out = timestamp_seq("bad-order", &order);
            assert!(out.iter().any(|d| d.code == "SB005"), "{order:?}: {out:?}");
        }
    }
}
