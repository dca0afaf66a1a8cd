//! `ledgerbench` — the serving benchmark of the taUW workspace.
//!
//! ```text
//! cargo run --release --manifest-path ledgerbench/Cargo.toml -- \
//!     --workload <tsr_tracks|cohort_100k|adaptive_forest> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process drives one named workload closed-loop: the next wave is
//! sent only after the previous one returns. Serving goes through
//! `tauw_core::sharded::ShardedEngine` with a thread budget of
//! [`workload::THREADS`]; worlds and models come from `tauw_sim` and
//! `tauw_experiments`. Every run replays a fixed stride of slots through
//! dedicated reference sessions and compares every served step bitwise.
//!
//! With `--trace 0` the run sets up [`SETUP_REPS`] times, then serves the
//! last set-up for `--seconds` of timed waves; it prints the end-to-end
//! metrics. With `--trace 1` it sets up once with the ledger
//! replicas of [`ledger`], records spans for the first half of the run,
//! writes them out, and serves the second half untraced to measure the
//! tracing overhead; it prints the per-layer metrics.
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. A run whose outputs
//! differ from the reference, or whose percentiles lack samples, exits
//! non-zero.

mod ledger;
mod serve;
mod stats;
mod workload;

use serve::{Served, QUALITY_STEPS};
use stats::{median, percentile};
use std::process::ExitCode;
use std::time::Instant;
use workload::{Kind, Shape, World, THREADS};

/// Full set-ups per untraced run. `setup_s` is their median; only the last
/// one is served.
const SETUP_REPS: usize = 3;

const USAGE: &str = "usage: ledgerbench --workload <tsr_tracks|cohort_100k|adaptive_forest> \
                     --seed <n> --seconds <s> --trace <0|1>";

#[derive(Debug, Clone, PartialEq)]
struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::from_name(&value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse()
                        .map_err(|_| bad("expected an unsigned integer"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("expected a number"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad("expected a positive number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// A finished run: its metrics, failure accounting and printed notes.
struct Report {
    metrics: Vec<(&'static str, f64, &'static str)>,
    tally: serve::Tally,
    notes: Vec<String>,
}

fn run_untraced(args: &Args, shape: &Shape) -> Result<Report, String> {
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    for _ in 1..SETUP_REPS {
        let start = Instant::now();
        let world = World::build(args.kind, args.seed).map_err(|e| e.to_string())?;
        Served::new(&world, shape, false).map_err(|e| e.to_string())?;
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let start = Instant::now();
    let world = World::build(args.kind, args.seed).map_err(|e| e.to_string())?;
    let mut served = Served::new(&world, shape, false).map_err(|e| e.to_string())?;
    setup_s.push(start.elapsed().as_secs_f64());

    let (mut latencies, mut steps) = (Vec::new(), 0usize);
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < args.seconds {
        let timing = served.serve_wave();
        latencies.push(timing.seconds);
        steps += timing.steps;
    }
    let tally = served.tally;
    if tally.quality_steps < QUALITY_STEPS {
        return Err(format!(
            "the run served only {} timed steps; the quality window needs {QUALITY_STEPS}",
            tally.quality_steps
        ));
    }
    let busy_s: f64 = latencies.iter().sum();
    Ok(Report {
        metrics: vec![
            ("steps_per_s", steps as f64 / busy_s, "steps/s"),
            ("wave_p50_ms", percentile(&latencies, 50)? * 1e3, "ms"),
            (
                "setup_s",
                median(&setup_s).expect("at least one set-up"),
                "s",
            ),
            ("peak_rss_mb", peak_rss_mb()?, "MB"),
            ("fused_accuracy", tally.fused_accuracy(), "share"),
            ("brier_score", tally.brier_score(), "score"),
        ],
        tally,
        notes: vec![
            format!(
                "timed waves {} ({steps} steps, {busy_s:.3} s in wave calls)",
                latencies.len()
            ),
            tail_note(&latencies),
            format!("setup_s samples {setup_s:?}"),
        ],
    })
}

/// The wave-latency tail, printed with every untraced run but not reported
/// as a metric: on a two-vCPU host a share of the two-thread waves, moving
/// between runs, takes about twice the median, so any tail percentile moves
/// between runs by more than a metric's bound allows. A percentile with
/// fewer than ten samples beyond it is named as missing, with the reason.
fn tail_note(latencies: &[f64]) -> String {
    let tails: Vec<String> = [90, 99]
        .into_iter()
        .map(|pct| match percentile(latencies, pct) {
            Ok(v) => format!("p{pct} {:.6} ms", v * 1e3),
            Err(e) => format!("no p{pct} ({e})"),
        })
        .collect();
    format!("wave latency tail (not a metric): {}", tails.join(", "))
}

fn run_traced(args: &Args, shape: &Shape) -> Result<Report, String> {
    let world = World::build(args.kind, args.seed).map_err(|e| e.to_string())?;
    let mut served = Served::new(&world, shape, true).map_err(|e| e.to_string())?;
    served
        .ledger
        .as_mut()
        .expect("a traced run has a ledger")
        .recording = true;
    let half = args.seconds / 2.0;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < half {
        served.serve_wave();
    }
    let ledger = served.ledger.take().expect("a traced run has a ledger");
    let traced_s_per_step = ledger::total_per_count(&ledger.tracer.spans, ledger::SERVE);
    let mut metrics = ledger::layer_rows(&ledger.tracer.spans, ledger.streams_created);
    let traced_waves = ledger
        .tracer
        .spans
        .iter()
        .filter(|s| s.name == ledger::SERVE)
        .count();
    let path = format!(
        "ledgerbench/traces/{}-seed{}.tsv",
        args.kind.name(),
        args.seed
    );
    if let Some(dir) = std::path::Path::new(&path).parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&path, ledger.tracer.to_tsv()).map_err(|e| format!("{path}: {e}"))?;
    let n_spans = ledger.tracer.spans.len();
    drop(ledger);

    // Second half: the same engine with the replicas gone and no spans.
    let (mut busy_s, mut steps) = (0.0, 0usize);
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < half {
        let timing = served.serve_wave();
        busy_s += timing.seconds;
        steps += timing.steps;
    }
    let untraced_s_per_step = busy_s / steps.max(1) as f64;
    metrics.extend([
        (
            "sharded.shard_skew",
            ledger::shard_skew(&served.engine),
            "ratio",
        ),
        ("setup.sim_s", world.sim_s, "s"),
        ("setup.fit_s", world.fit_s, "s"),
        ("setup.engine_s", served.engine_s, "s"),
        (
            "trace.overhead_pct",
            (traced_s_per_step / untraced_s_per_step - 1.0) * 100.0,
            "%",
        ),
    ]);
    Ok(Report {
        metrics,
        tally: served.tally,
        notes: vec![
            format!("traced waves {traced_waves}; {n_spans} spans written to {path}"),
            format!(
                "served ns/step traced {:.1}, untraced {:.1}",
                traced_s_per_step * 1e9,
                untraced_s_per_step * 1e9
            ),
        ],
    })
}

/// Peak resident set size (`VmHWM`), MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "VmHWM missing from /proc/self/status".into())
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The commit of the checkout, read from `.git` when there is one.
fn git_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(commit) = std::fs::read_to_string(format!(".git/{reference}")) {
        return Some(commit.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed.lines().find_map(|line| {
        line.strip_suffix(reference)?
            .strip_suffix(' ')
            .map(str::to_string)
    })
}

fn cpu_model() -> Option<String> {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    cpuinfo.lines().find_map(|line| {
        line.strip_prefix("model name")?
            .split_once(':')
            .map(|(_, m)| m.trim().to_string())
    })
}

fn provenance(args: &Args, shape: &Shape) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let opt = |v: Option<String>| v.map_or("null".to_string(), |s| json_str(&s));
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"threads\": {THREADS}, \
         \"nproc\": {nproc}, \"cpu_model\": {}, \"git_commit\": {}, \"tauw_threads_env\": {}, \
         \"setup_reps\": {}, \"quality_steps\": {QUALITY_STEPS}, \"shape\": {{\"slots\": {}, \
         \"shards\": {}, \"shard_cap\": {}, \"window\": {}, \"adaptive\": {}, \"check_stride\": {}, \
         \"warmup_waves\": {}}}}}",
        json_str(args.kind.name()),
        args.seed,
        args.seconds,
        args.trace,
        opt(cpu_model()),
        opt(git_commit()),
        opt(std::env::var("TAUW_THREADS").ok()),
        if args.trace { 1 } else { SETUP_REPS },
        shape.slots,
        shape.shards,
        shape.shard_cap,
        shape.window.map_or("null".to_string(), |w| w.to_string()),
        shape.adaptive,
        shape.check_stride,
        shape.warmup_waves,
    )
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("ledgerbench: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let shape = args.kind.shape();
    let report = if args.trace {
        run_traced(&args, &shape)
    } else {
        run_untraced(&args, &shape)
    };
    let report = match report {
        Ok(report) => report,
        Err(msg) => {
            eprintln!("ledgerbench: {msg}");
            return ExitCode::FAILURE;
        }
    };
    if let Some((name, value, _)) = report.metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        eprintln!("ledgerbench: metric {name} is not finite ({value})");
        return ExitCode::FAILURE;
    }
    let tally = report.tally;
    println!(
        "ledgerbench {} seed {} trace {}",
        args.kind.name(),
        args.seed,
        u8::from(args.trace)
    );
    println!("provenance {}", provenance(&args, &shape));
    for (name, value, unit) in &report.metrics {
        println!("{name:<28} {value:>18.6} {unit}");
    }
    for note in &report.notes {
        println!("{note}");
    }
    println!(
        "failed_share {} ({} errors + {} mismatches + {} rejected of {} attempted; {} checked against references)",
        tally.failed_share(),
        tally.errors,
        tally.mismatches,
        tally.rejected,
        tally.attempted,
        tally.checked
    );
    println!(
        "fingerprint {:016x} over the first {} timed waves ({} steps)",
        tally.fingerprint, tally.quality_waves, tally.quality_steps
    );
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                json_str(name),
                json_str(unit)
            )
        })
        .collect();
    let correct = tally.failed() == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed(),
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "ledgerbench: {} served steps failed their checks",
            tally.failed()
        );
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn arguments_parse_and_reject_bad_values() {
        let args = parse(&[
            "--workload",
            "cohort_100k",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (args.kind, args.seed, args.seconds, args.trace),
            (Kind::Cohort100k, 7, 10.0, true)
        );
        assert!(parse(&["--workload", "nope", "--seed", "1", "--seconds", "1"]).is_err());
        assert!(parse(&["--workload", "tsr_tracks", "--seed", "-1", "--seconds", "1"]).is_err());
        assert!(parse(&["--workload", "tsr_tracks", "--seed", "1", "--seconds", "0"]).is_err());
        assert!(parse(&["--workload", "tsr_tracks", "--seed", "1"]).is_err());
        assert!(parse(&[
            "--workload",
            "tsr_tracks",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2"
        ])
        .is_err());
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
