//! Runs every experiment binary, one child process each, with the same
//! options, and writes all result files. Exits 1 if any experiment does
//! (the gating binaries exit 1 on a VIOLATED shape check). It starts the
//! other binaries from its own directory, so build them all first:
//!
//! ```text
//! cargo build --release -p tauw-experiments
//! target/release/run_all --scale 0.2
//! ```

use std::process::Command;
use tauw_experiments::report::section;
use tauw_experiments::{CliOptions, BINARIES};

fn main() {
    let opts = CliOptions::from_env();
    println!(
        "{}",
        section(&format!(
            "run_all: scale {} seed {} -> {}",
            opts.scale, opts.seed, opts.out_dir
        ))
    );
    // Each experiment runs as a child process of the same (already built)
    // binary set, so a failure in one experiment cannot poison the others
    // and memory is returned to the OS between the heavyweight runs.
    let exe = std::env::current_exe().expect("current exe path");
    let bin_dir = exe.parent().expect("binary directory");
    let mut failures = Vec::new();
    for bin in BINARIES {
        println!("\n>>> {bin}");
        let status = Command::new(bin_dir.join(bin))
            .args([
                "--scale",
                &opts.scale.to_string(),
                "--seed",
                &opts.seed.to_string(),
                "--out",
                &opts.out_dir,
            ])
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("{bin} exited with {s}");
                failures.push(bin);
            }
            Err(e) => {
                eprintln!("{bin} failed to start: {e} (build all binaries first: cargo build -p tauw-experiments --release)");
                failures.push(bin);
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
