//! Regenerates every table and figure experiment of the paper.
//!
//! ```text
//! tables [--object register|queue|stack|tree] [--csv]
//!        [--fig fig1|thmC|thmD|thmE|derive|ablation|nsweep|xsweep|drift|skew]
//! ```
//!
//! With no arguments, prints everything: Tables I–IV and all figure
//! experiments, using the workspace default parameters. The output is
//! deterministic — byte-identical at any worker count — and committed
//! as `tables_output.txt`. `--object` and `--csv` select tables, `--fig`
//! one figure experiment; an unknown value, a missing value or a mix of
//! the two selections is a usage error (exit 2).

use skewbound_bench::default_params;
use skewbound_bench::figures;
use skewbound_bench::report::{table_report, Object};
use skewbound_core::params::Params;
use skewbound_sim::time::SimDuration;

const USAGE: &str = "usage: tables [--object register|queue|stack|tree] [--csv] \
     [--fig fig1|thmC|thmD|thmE|derive|ablation|nsweep|xsweep|drift|skew]";

/// The figure experiments, in print order.
const FIGS: [&str; 10] = [
    "fig1", "thmC", "thmD", "thmE", "derive", "ablation", "nsweep", "xsweep", "drift", "skew",
];

fn fail(msg: &str) -> ! {
    eprintln!("tables: {msg}\n{USAGE}");
    std::process::exit(2);
}

fn figure(name: &str, params: &Params) -> String {
    let (d, u) = (
        SimDuration::from_ticks(9_000),
        SimDuration::from_ticks(2_400),
    );
    match name {
        "fig1" => figures::fig1(params),
        "thmC" => figures::thm_c1(params),
        "thmD" => figures::thm_d1(params, params.n()),
        "thmE" => figures::thm_e1(params),
        "derive" => figures::derivation(params),
        "ablation" => figures::ablation_timers(params),
        "nsweep" => figures::n_sweep(d, u, 8),
        "xsweep" => figures::x_sweep(params, 5),
        "drift" => figures::drift_experiment(params, 40),
        "skew" => figures::skew_experiment(d, u, 8),
        _ => unreachable!("{name} is not in FIGS"),
    }
}

fn main() {
    let params = default_params();
    let ops_per_process = 8;

    let mut object: Option<Object> = None;
    let mut fig: Option<&str> = None;
    let mut csv = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| fail(&format!("{arg} needs a value")))
        };
        match arg.as_str() {
            "--object" => {
                let name = value();
                object = Some(
                    Object::ALL
                        .into_iter()
                        .find(|o| o.short_name() == name)
                        .unwrap_or_else(|| fail(&format!("unknown object {name:?}"))),
                );
            }
            "--fig" => {
                let name = value();
                fig = Some(
                    FIGS.into_iter()
                        .find(|&f| f == name)
                        .unwrap_or_else(|| fail(&format!("unknown figure {name:?}"))),
                );
            }
            "--csv" => csv = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other => fail(&format!("unknown argument {other:?}")),
        }
    }
    if fig.is_some() && (csv || object.is_some()) {
        fail("--fig selects a figure experiment and combines with neither --csv nor --object");
    }

    println!("skewbound experiment harness — params: {params}");
    println!("(1 tick = 1 µs; bounds and measurements in ticks)\n");

    if fig.is_none() {
        for o in Object::ALL {
            if object.is_some_and(|want| want != o) {
                continue;
            }
            let report = table_report(o, &params, ops_per_process);
            if csv {
                print!("{}", report.to_csv());
                continue;
            }
            println!("{}", report.render());
            match report.verify() {
                Ok(()) => println!("  verification: all measured values within bounds\n"),
                Err(e) => println!("  verification FAILED: {e}\n"),
            }
        }
    }

    if !csv && object.is_none() {
        for name in FIGS {
            if fig.is_none_or(|f| f == name) {
                println!("{}", figure(name, &params));
            }
        }
    }
}
