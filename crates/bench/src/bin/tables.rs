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
//! as `tables_output.txt`.

use skewbound_bench::default_params;
use skewbound_bench::figures;
use skewbound_bench::report::{table_report, Object};
use skewbound_sim::time::SimDuration;

const USAGE: &str = "usage: tables [--object register|queue|stack|tree] [--csv] \
     [--fig fig1|thmC|thmD|thmE|derive|ablation|nsweep|xsweep|drift|skew]";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let params = default_params();
    let ops_per_process = 8;

    let mut object_filter: Option<&str> = None;
    let mut fig_filter: Option<&str> = None;
    let mut csv = false;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--object" => {
                object_filter = Some(Box::leak(
                    iter.next()
                        .expect("--object needs a value")
                        .clone()
                        .into_boxed_str(),
                ));
            }
            "--fig" => {
                fig_filter = Some(Box::leak(
                    iter.next()
                        .expect("--fig needs a value")
                        .clone()
                        .into_boxed_str(),
                ));
            }
            "--csv" => csv = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }

    println!("skewbound experiment harness — params: {params}");
    println!("(1 tick = 1 µs; bounds and measurements in ticks)\n");

    let want_object = |name: &str| object_filter.is_none() || object_filter == Some(name);
    let want_fig = |name: &str| {
        !csv && object_filter.is_none() && (fig_filter.is_none() || fig_filter == Some(name))
    };

    if fig_filter.is_none() {
        for object in Object::ALL {
            if !want_object(object.short_name()) {
                continue;
            }
            let report = table_report(object, &params, ops_per_process);
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

    if want_fig("fig1") {
        println!("{}", figures::fig1(&params));
    }
    if want_fig("thmC") {
        println!("{}", figures::thm_c1(&params));
    }
    if want_fig("thmD") {
        println!("{}", figures::thm_d1(&params, params.n()));
    }
    if want_fig("thmE") {
        println!("{}", figures::thm_e1(&params));
    }
    if want_fig("derive") {
        println!("{}", figures::derivation(&params));
    }
    if want_fig("ablation") {
        println!("{}", figures::ablation_timers(&params));
    }
    if want_fig("nsweep") {
        println!(
            "{}",
            figures::n_sweep(
                SimDuration::from_ticks(9_000),
                SimDuration::from_ticks(2_400),
                8,
            )
        );
    }
    if want_fig("xsweep") {
        println!("{}", figures::x_sweep(&params, 5));
    }
    if want_fig("drift") {
        println!("{}", figures::drift_experiment(&params, 40));
    }
    if want_fig("skew") {
        println!(
            "{}",
            figures::skew_experiment(
                SimDuration::from_ticks(9_000),
                SimDuration::from_ticks(2_400),
                8,
            )
        );
    }
}
