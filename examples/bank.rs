//! A multi-object system on real threads: bank accounts as a
//! `Namespace<Counter>`, one teller per process driven by a
//! closed-loop `Driver` on the thread runtime, with the final history
//! checked per-object (Herlihy–Wing locality).
//!
//! ```text
//! cargo run -p skewbound-examples --bin bank
//! ```

use skewbound_core::params::Params;
use skewbound_core::replica::Replica;
use skewbound_lin::multi::check_namespace;
use skewbound_sim::clock::ClockAssignment;
use skewbound_sim::delay::UniformDelay;
use skewbound_sim::ids::ProcessId;
use skewbound_sim::rt;
use skewbound_sim::time::SimDuration;
use skewbound_sim::workload::ClosedLoop;
use skewbound_spec::prelude::*;

const ACCOUNTS: u64 = 3;
const TELLERS: usize = 3;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let params = Params::with_optimal_skew(
        TELLERS,
        SimDuration::from_ticks(3_000), // 3 ms network
        SimDuration::from_ticks(1_000),
        SimDuration::ZERO,
    )?;
    let spec = Namespace::new(Counter::default());

    println!("{TELLERS} teller processes over {ACCOUNTS} accounts, {params} (1 tick = 1 µs)");

    // Each teller performs a few transfers from "its" account to the
    // next one, then a balance inquiry on its account: a closed loop of
    // seven operations per teller process.
    let mut tellers = ClosedLoop::new(ProcessId::all(TELLERS).collect(), 7, 99, |pid, idx, _| {
        let teller = pid.index() as u64;
        let (from, to) = (teller % ACCOUNTS, (teller + 1) % ACCOUNTS);
        let amount = 10 * (teller as i64 + 1);
        match idx {
            6 => NsOp::new(from, CounterOp::Read),
            _ if idx % 2 == 0 => NsOp::new(from, CounterOp::Add(-amount)),
            _ => NsOp::new(to, CounterOp::Add(amount)),
        }
    });
    let history = rt::run_history(
        Replica::group(spec, &params),
        ClockAssignment::zero(TELLERS),
        UniformDelay::new(params.delay_bounds(), 99),
        &mut tellers,
    )?;
    for rec in history.records() {
        if rec.op.op == CounterOp::Read {
            println!("teller read account {}: {:?}", rec.op.key, rec.resp());
        }
    }
    println!("\n{} operations recorded", history.len());

    // Money is conserved: transfers are balanced, so final sum = 0.
    let net: i64 = history
        .records()
        .iter()
        .map(|r| match r.op.op {
            CounterOp::Add(v) => v,
            CounterOp::Read => 0,
        })
        .sum();
    println!("net of all transfers: {net}");
    assert_eq!(net, 0, "transfers must balance");

    // Per-object linearizability (equivalent to whole-system
    // linearizability by locality).
    let outcome = check_namespace(&Counter::default(), &history);
    println!(
        "per-account linearizability: {}",
        if outcome.is_linearizable() {
            "all accounts OK".to_string()
        } else {
            format!("VIOLATION in accounts {:?}", outcome.violating_keys())
        }
    );
    assert!(outcome.is_linearizable());
    Ok(())
}
