//! Regenerates every table and figure experiment of the paper.
//!
//! ```text
//! tables
//! ```
//!
//! Prints everything: Tables I–IV and all figure experiments, using the
//! workspace default parameters. The output is deterministic —
//! byte-identical at any worker count — and committed as
//! `tables_output.txt`. It takes no arguments; any argument is a usage
//! error (exit 2).

use skewbound_bench::default_params;
use skewbound_bench::figures;
use skewbound_bench::report::{table_report, Object};
use skewbound_sim::time::SimDuration;

fn main() {
    if let Some(arg) = std::env::args().nth(1) {
        eprintln!("tables: unknown argument {arg:?}\nusage: tables");
        std::process::exit(2);
    }
    let params = default_params();
    let ops_per_process = 8;

    println!("skewbound experiment harness — params: {params}");
    println!("(1 tick = 1 µs; bounds and measurements in ticks)\n");

    for o in Object::ALL {
        let report = table_report(o, &params, ops_per_process);
        println!("{}", report.render());
        match report.verify() {
            Ok(()) => println!("  verification: all measured values within bounds\n"),
            Err(e) => println!("  verification FAILED: {e}\n"),
        }
    }

    let (d, u) = (
        SimDuration::from_ticks(9_000),
        SimDuration::from_ticks(2_400),
    );
    let experiments = [
        figures::fig1(&params),
        figures::thm_c1(&params),
        figures::thm_d1(&params, params.n()),
        figures::thm_e1(&params),
        figures::derivation(&params),
        figures::ablation_timers(&params),
        figures::n_sweep(d, u, 8),
        figures::x_sweep(&params, 5),
        figures::drift_experiment(&params, 40),
        figures::skew_experiment(d, u, 8),
    ];
    for experiment in experiments {
        println!("{experiment}");
    }
}
