//! The machine-readable baseline report schema the `baseline` binary
//! writes: one schema tag, one comparison-row shape, one writer with a
//! programmatically composed reading guide.

use serde::Serialize;

/// Schema tag so CI can detect malformed or stale baseline files.
///
/// v2: rows carry explicit `baseline_label` / `contender_label` columns so
/// pointer-vs-flat rows coexist with serial-vs-parallel rows.
/// v3: adds the per-step taQF rows `taqf_step_window_{10,100,10000}`
/// (full-recompute vs incremental-aggregate serving) so the O(1)-in-window
/// per-step cost is measured and locked in.
/// v4: adds the `qim_uncertainty_tree_vs_forest{4,16}` rows (single-tree
/// taQIM vs boundary-smoothed K-member forest) so the K-traversal serving
/// cost of the ensemble estimator is measured and locked in.
/// v5: adds the `adaptive_step_window_{10,100,10000}` rows (coverage-stats
/// recompute vs incremental-aggregate adaptive stepping) so the O(1)
/// per-step cost of the adaptive calibration layer is measured and locked
/// in.
/// v6: the QIM rows serve through a batch-major wave path, and two rows
/// time the wave kernels against one-query-at-a-time routing. (Both were
/// later removed without a schema bump: the QIM rows serve per sample, the
/// only serving shape, and the two kernel rows are gone.)
/// v7: adds the `qim_uncertainty_tree_vs_conformal` row (single-tree taQIM
/// vs the leafless split-conformal backend of the `TaQim` enum) so
/// the table-lookup serving cost of the distribution-free estimator is
/// measured and locked in.
/// v8: every row carries per-side p99 tail-latency columns (`0.0` on rows
/// that only time aggregate wall time), and the pipeline report gains the
/// `soak_engine_vs_sharded` row — the sharded serving front end replaying
/// a simulated stream cohort against the plain multi-stream engine,
/// recording steps/s and p99 wave latency.
/// v9: the pipeline report gains the `soak_scenario_mixed` row — the soak
/// cohort replayed through the hash-partitioned scenario mix (dropout,
/// regime switch, heavy tails, multi-source overlays on the hashed
/// traffic), locking in throughput and bit-identity for scenario-shaped
/// serving; the `soak` binary gains `--scenario`, writing scenario rows
/// as `soak_scenario_<name>`.
/// v10: the soak harness is gone, and with it both `soak_*` rows and the
/// two p99 columns; serving throughput and wave latency are measured by
/// the serving ledger (`ledgerbench/`).
pub const SCHEMA: &str = "tauw-bench-baseline/v10";

/// One timed comparison row: a baseline implementation against a
/// contender, with throughput on both sides and a bit-identity verdict.
#[derive(Debug, Serialize)]
pub struct Comparison {
    /// Row identifier, stable across schema versions.
    pub name: String,
    /// Work units processed per run (rows for training, routed samples or
    /// steps for inference) — the numerator of the throughput columns.
    pub work_units: u64,
    /// What the `baseline_*` columns measure (e.g. "serial", "pointer").
    pub baseline_label: String,
    /// What the `contender_*` columns measure (e.g. "parallel(4)", "flat").
    pub contender_label: String,
    /// Baseline wall time, milliseconds.
    pub baseline_ms: f64,
    /// Contender wall time, milliseconds.
    pub contender_ms: f64,
    /// `baseline / contender` wall time; > 1 means the contender is faster.
    pub speedup: f64,
    /// Baseline throughput, work units per second.
    pub baseline_per_s: f64,
    /// Contender throughput, work units per second.
    pub contender_per_s: f64,
    /// Whether both sides produced verified bit-identical outputs.
    pub bit_identical: bool,
}

impl Comparison {
    /// Builds a row from `(label, seconds)` pairs.
    pub fn new(
        name: &str,
        work_units: u64,
        (baseline_label, baseline_s): (&str, f64),
        (contender_label, contender_s): (&str, f64),
        bit_identical: bool,
    ) -> Self {
        Comparison {
            name: name.to_string(),
            work_units,
            baseline_label: baseline_label.to_string(),
            contender_label: contender_label.to_string(),
            baseline_ms: baseline_s * 1e3,
            contender_ms: contender_s * 1e3,
            speedup: baseline_s / contender_s,
            baseline_per_s: work_units as f64 / baseline_s,
            contender_per_s: work_units as f64 / contender_s,
            bit_identical,
        }
    }

    /// Prints the row in the one-line console format the binaries use.
    pub fn print(&self) {
        println!(
            "{}: {} {:.2} ms vs {} {:.2} ms ({:.2}x, identical={})",
            self.name,
            self.baseline_label,
            self.baseline_ms,
            self.contender_label,
            self.contender_ms,
            self.speedup,
            self.bit_identical,
        );
    }
}

/// The on-disk report: schema tag, run shape, host note, comparison rows.
#[derive(Debug, Serialize)]
pub struct Report {
    /// [`SCHEMA`].
    pub schema: String,
    /// Which bench produced the file ("dtree" or "pipeline").
    pub bench: String,
    /// Whether the run used the scaled-down CI smoke shape.
    pub smoke: bool,
    /// Thread budget of the parallel sides.
    pub threads_parallel: usize,
    /// Best-of-N repetitions per timed section.
    pub repetitions: usize,
    /// Hardware threads the producing host exposed.
    pub host_parallelism: usize,
    /// Host description plus how to read the speedup columns, composed
    /// programmatically from the environment the run actually saw.
    pub note: String,
    /// The comparison rows.
    pub results: Vec<Comparison>,
}

/// Composes the report `note` from the environment the run actually saw:
/// host shape, how to read the speedup columns, the `TAUW_THREADS` cap
/// that applied, and whether `BENCH_SPEEDUP_FLOOR` gates this file.
pub fn compose_note(threads_parallel: usize, host_parallelism: usize) -> String {
    let reading_guide = if host_parallelism < threads_parallel {
        format!(
            "host exposes fewer hardware threads than the {threads_parallel}-thread budget: \
             parallel rows measure scheduling overhead, not speedup; \
             regenerate on a multicore host to measure scaling"
        )
    } else {
        "speedup = baseline / contender wall time; > 1 means the contender wins".to_string()
    };
    let tauw_threads_guide = match std::env::var("TAUW_THREADS") {
        Ok(v) => format!("TAUW_THREADS={v} capped the default wave parallelism for this run"),
        Err(_) => {
            "TAUW_THREADS was unset (unpinned wave paths default to host parallelism)".to_string()
        }
    };
    let floor_guide = if host_parallelism <= 1 {
        "the BENCH_SPEEDUP_FLOOR gate is skipped against this file (1-thread host); \
         regenerate on a multicore host before tightening the floor"
    } else {
        "parallel rows in this file are gated by BENCH_SPEEDUP_FLOOR (default 1.0)"
    };
    format!(
        "host: {host_parallelism} hardware thread(s), {}-{}; {reading_guide}; \
         {tauw_threads_guide}; {floor_guide}",
        std::env::consts::OS,
        std::env::consts::ARCH,
    )
}

/// Writes `results` as a pretty-printed JSON [`Report`] to
/// `out_dir/file`, composing the note via [`compose_note`].
pub fn write_report(
    out_dir: &str,
    file: &str,
    bench: &str,
    smoke: bool,
    threads_parallel: usize,
    repetitions: usize,
    results: Vec<Comparison>,
) {
    let host_parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    let report = Report {
        schema: SCHEMA.to_string(),
        bench: bench.to_string(),
        smoke,
        threads_parallel,
        repetitions,
        host_parallelism,
        note: compose_note(threads_parallel, host_parallelism),
        results,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    let path = std::path::Path::new(out_dir).join(file);
    std::fs::create_dir_all(out_dir).expect("create out dir");
    std::fs::write(&path, json + "\n").expect("write report");
    println!("wrote {}", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comparison_rows_carry_every_column() {
        let row = Comparison::new("r", 100, ("a", 0.5), ("b", 0.25), true);
        assert!((row.speedup - 2.0).abs() < 1e-12);
        let json = serde_json::to_string(&row).expect("row serializes");
        for column in [
            "\"name\"",
            "\"work_units\"",
            "\"baseline_label\"",
            "\"contender_label\"",
            "\"baseline_ms\"",
            "\"contender_ms\"",
            "\"speedup\"",
            "\"baseline_per_s\"",
            "\"contender_per_s\"",
            "\"bit_identical\"",
        ] {
            assert!(json.contains(column), "missing {column} in {json}");
        }
    }

    #[test]
    fn schema_tag_is_v10() {
        assert_eq!(SCHEMA, "tauw-bench-baseline/v10");
    }

    #[test]
    fn note_names_the_env_knobs() {
        let note = compose_note(4, 1);
        assert!(note.contains("TAUW_THREADS"));
        assert!(note.contains("BENCH_SPEEDUP_FLOOR"));
        assert!(note.contains("1 hardware thread(s)"));
        // Multicore hosts get the gating phrasing instead of the skip note.
        let note = compose_note(4, 8);
        assert!(note.contains("gated by BENCH_SPEEDUP_FLOOR"));
    }
}
