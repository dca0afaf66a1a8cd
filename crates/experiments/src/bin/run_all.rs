//! Builds the experiment world once and runs every registered experiment
//! on it (or the ones named on the command line), writing `<name>.txt`
//! for each. Exits 1 if a gating experiment reads a VIOLATED shape check,
//! and 2 on a usage error:
//!
//! ```text
//! cargo run --release -p tauw-experiments --bin run_all -- --scale 0.2
//! cargo run --release -p tauw-experiments --bin run_all -- table1 fig4 --scale 0.2
//! ```

use tauw_experiments::report::{emit, section};
use tauw_experiments::{CliOptions, ExperimentContext};

fn main() {
    let opts = CliOptions::from_env();
    println!(
        "{}",
        section(&format!(
            "run_all: scale {} seed {} -> {}",
            opts.scale, opts.seed, opts.out_dir
        ))
    );
    let ctx =
        ExperimentContext::build(opts.scale, opts.seed).expect("experiment context must build");
    let mut failures = Vec::new();
    for experiment in opts.selected() {
        println!("\n>>> {}", experiment.name);
        let report = (experiment.run)(&ctx);
        let file = format!("{}.txt", experiment.name);
        emit(&opts.out_dir, &file, &report.text).expect("write results");
        if experiment.gates {
            if let Err(message) = report.checks.outcome(experiment.name) {
                eprintln!("{message}");
                failures.push(experiment.name);
            }
        }
    }
    if failures.is_empty() {
        println!("\nall experiments completed; results in {}/", opts.out_dir);
    } else {
        eprintln!("\nfailed experiments: {failures:?}");
        std::process::exit(1);
    }
}
