//! Perf-trajectory baseline: times the parallel training and multi-stream
//! inference hot paths at a fixed scale and writes machine-readable
//! `BENCH_dtree.json` and `BENCH_pipeline.json` files (wall time +
//! throughput, baseline-vs-contender pairs, bit-identity verdicts).
//!
//! Two kinds of comparison rows share one schema:
//!
//! * **serial vs parallel** — the same code on thread budgets 1 and N
//!   (training fan-out, series replay, batched engine waves);
//! * **pointer vs flat** — the arena [`tauw_dtree::DecisionTree`] against
//!   the compiled [`tauw_dtree::FlatTree`] serving form, on raw leaf
//!   routing and on the calibrated QIM lookup.
//!
//! Every row records whether the two sides produced bit-identical outputs;
//! the CI `bench-regression` job fails the build on any `false`, on schema
//! drift, or on a throughput collapse against the committed files.
//!
//! The committed files at the repo root are the baseline; regenerate with
//!
//! ```text
//! cargo run --release -p tauw-bench --bin baseline -- --out .
//! ```
//!
//! `--smoke` runs a heavily scaled-down variant for CI schema validation.

use std::time::Instant;
use tauw_bench::report::{write_report, Comparison};
use tauw_core::buffer::TimeseriesBuffer;
use tauw_core::engine::TauwEngine;
use tauw_core::taqf::TaqfVector;
use tauw_core::tauw::replay_with_threads;
use tauw_dtree::{Dataset, FlatTree, TreeBuilder};
use tauw_experiments::ExperimentContext;
use tauw_stats::bootstrap::SplitMix64;

#[derive(Debug, Clone)]
struct Options {
    out_dir: String,
    smoke: bool,
    threads: usize,
    repetitions: usize,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            out_dir: ".".to_string(),
            smoke: false,
            threads: 4,
            repetitions: 3,
        }
    }
}

fn parse_args() -> Options {
    let mut opts = Options::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => opts.out_dir = args.next().unwrap_or_else(|| usage("--out needs a value")),
            "--smoke" => opts.smoke = true,
            "--threads" => {
                let v = args
                    .next()
                    .unwrap_or_else(|| usage("--threads needs a value"));
                opts.threads = v
                    .parse()
                    .ok()
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| usage(&format!("bad --threads value: {v}")));
            }
            other => usage(&format!("unknown argument: {other}")),
        }
    }
    opts
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("usage: baseline [--out dir] [--threads n] [--smoke]");
    std::process::exit(2);
}

/// Best-of-`reps` wall time of `f`, in seconds.
fn time_best<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        let out = f();
        best = best.min(start.elapsed().as_secs_f64());
        last = Some(out);
    }
    (best, last.expect("at least one repetition"))
}

fn finish_report(opts: &Options, file: &str, bench: &str, results: Vec<Comparison>) {
    write_report(
        &opts.out_dir,
        file,
        bench,
        opts.smoke,
        opts.threads,
        opts.repetitions,
        results,
    );
}

/// Synthetic training dataset matching `bench_dtree`'s shape.
fn make_dataset(n: usize, n_features: usize) -> Dataset {
    let mut rng = SplitMix64::new(42);
    let mut ds = Dataset::with_anonymous_features(n_features, 2).expect("dataset");
    for _ in 0..n {
        let row: Vec<f64> = (0..n_features).map(|_| rng.next_f64()).collect();
        let risk: f64 = row.iter().take(3).sum::<f64>() / 3.0;
        let label = u32::from(rng.next_f64() < risk * 0.3);
        ds.push_row(&row, label).expect("row");
    }
    ds
}

/// Random query rows for the routing comparisons.
fn make_queries(n: usize, n_features: usize) -> Vec<Vec<f64>> {
    let mut rng = SplitMix64::new(0x51EE7);
    (0..n)
        .map(|_| (0..n_features).map(|_| rng.next_f64()).collect())
        .collect()
}

fn bench_dtree(opts: &Options) {
    let rows = if opts.smoke { 3_000 } else { 20_000 };
    let ds = make_dataset(rows, 10);
    let mut results = Vec::new();
    let parallel_label = format!("parallel({})", opts.threads);
    let fit = |threads: usize| {
        TreeBuilder::new()
            .max_depth(8)
            .threads(threads)
            .fit(&ds)
            .expect("fit")
    };
    let (serial_s, tree) = time_best(opts.repetitions, || fit(1));
    let (parallel_s, parallel_tree) = time_best(opts.repetitions, || fit(opts.threads));
    let identical = serde_json::to_string(&tree).expect("tree serializes")
        == serde_json::to_string(&parallel_tree).expect("tree serializes");
    results.push(Comparison::new(
        "fit_exact_depth8",
        rows as u64,
        ("serial", serial_s),
        (&parallel_label, parallel_s),
        identical,
    ));
    results.last().expect("just pushed").print();

    // Routing: the pointer arena tree vs the flattened SoA serving form,
    // one query at a time (the wrapper's per-step shape).
    let flat = FlatTree::from_tree(&tree);
    let queries = make_queries(rows, 10);
    let (pointer_s, pointer_leaves) = time_best(opts.repetitions, || {
        queries
            .iter()
            .map(|q| tree.leaf_id(q).expect("route"))
            .collect::<Vec<_>>()
    });
    let (flat_s, flat_leaves) = time_best(opts.repetitions, || {
        queries
            .iter()
            .map(|q| flat.predict_leaf_id(q).expect("route"))
            .collect::<Vec<_>>()
    });
    let identical = pointer_leaves.len() == flat_leaves.len()
        && pointer_leaves
            .iter()
            .zip(&flat_leaves)
            .all(|(&node, &lid)| flat.leaf_node(lid) == node);
    results.push(Comparison::new(
        "route_single_pointer_vs_flat",
        rows as u64,
        ("pointer", pointer_s),
        ("flat", flat_s),
        identical,
    ));
    results.last().expect("just pushed").print();

    finish_report(opts, "BENCH_dtree.json", "dtree", results);
}

fn bench_pipeline(opts: &Options) {
    let scale = if opts.smoke { 0.02 } else { 0.1 };
    let ctx = ExperimentContext::build(scale, 0xBE5C).expect("bench context builds");
    let mut results = Vec::new();
    let parallel_label = format!("parallel({})", opts.threads);

    // Training-side hot path: the series replay feeding taQIM fitting.
    let replay_steps: u64 = ctx.calib.iter().map(|s| s.len() as u64).sum();
    let stateless = ctx.tauw.stateless();
    let (serial_s, serial_rows) = time_best(opts.repetitions, || {
        replay_with_threads(stateless, &ctx.calib, 1).expect("replay")
    });
    let (parallel_s, parallel_rows) = time_best(opts.repetitions, || {
        replay_with_threads(stateless, &ctx.calib, opts.threads).expect("replay")
    });
    results.push(Comparison::new(
        "replay_calibration_series",
        replay_steps,
        ("serial", serial_s),
        (&parallel_label, parallel_s),
        serial_rows == parallel_rows,
    ));
    results.last().expect("just pushed").print();

    // Inference-side hot path: N concurrent streams through batched
    // engine waves, vs the same traffic on a single-thread budget. One
    // engine is reused; `step_series_waves` resets the streams per run.
    let inference_steps: u64 = ctx.test.iter().map(|s| s.len() as u64).sum();
    let mut engine = TauwEngine::new(ctx.tauw.clone());
    let (serial_s, serial_steps) = time_best(opts.repetitions, || {
        engine.threads(1);
        engine.step_series_waves(&ctx.test).expect("waves")
    });
    let (parallel_s, parallel_steps) = time_best(opts.repetitions, || {
        engine.threads(opts.threads);
        engine.step_series_waves(&ctx.test).expect("waves")
    });
    results.push(Comparison::new(
        "engine_step_many_test_streams",
        inference_steps,
        ("serial", serial_s),
        (&parallel_label, parallel_s),
        serial_steps == parallel_steps,
    ));
    results.last().expect("just pushed").print();

    // The calibrated QIM lookup itself: pointer reference vs the flat
    // serving path, over every stateless quality-factor vector in the test
    // windows. The stateless QIM is the paper's tree as a one-member
    // `CalibratedForestQim`, which serves through member 0's flat walk and
    // bound array, not the lockstep kernel. This is the per-step tree cost
    // the wrapper pays twice (stateless QIM + taQIM), isolated from
    // buffering and fusion. Both sides serve one query at a time, the
    // shape every session and engine step uses.
    let qim = ctx.tauw.stateless().qim();
    let qfs: Vec<&[f64]> = ctx
        .test
        .iter()
        .flat_map(|s| s.steps.iter().map(|st| st.quality_factors.as_slice()))
        .collect();
    // Replicate the query set several times so the row clears the timer
    // granularity even at smoke scale.
    const QIM_PASSES: usize = 32;
    let qim_wave: Vec<&[f64]> = (0..QIM_PASSES).flat_map(|_| qfs.iter().copied()).collect();
    let (pointer_s, pointer_u) = time_best(opts.repetitions, || {
        qim_wave
            .iter()
            .map(|q| qim.uncertainty_reference(q).expect("reference"))
            .collect::<Vec<_>>()
    });
    let (flat_s, flat_u) = time_best(opts.repetitions, || {
        qim_wave
            .iter()
            .map(|q| qim.uncertainty(q).expect("flat"))
            .collect::<Vec<_>>()
    });
    let identical = pointer_u.len() == flat_u.len()
        && pointer_u
            .iter()
            .zip(&flat_u)
            .all(|(a, b)| a.to_bits() == b.to_bits());
    results.push(Comparison::new(
        "qim_uncertainty_pointer_vs_flat",
        (qfs.len() * QIM_PASSES) as u64,
        ("pointer", pointer_s),
        ("flat", flat_s),
        identical,
    ));
    results.last().expect("just pushed").print();

    // The taQIM lookup across estimator families: the paper's single tree
    // vs a boundary-smoothed bootstrap forest of K members, both served
    // one query at a time, so the rows track the forest's lockstep walk
    // of K members per query. `bit_identical` here verifies each side
    // against its own pointer-representation per-sample reference
    // recompute (the models legitimately differ from each other).
    let taqf_set = ctx.tauw.taqf_set();
    let ta_queries: Vec<Vec<f64>> = ctx
        .calib_replay
        .iter()
        .map(|row| row.ta_features(taqf_set))
        .collect();
    let single_taqim = ctx.tauw.taqim();
    const FOREST_PASSES: usize = 8;
    let ta_wave: Vec<&[f64]> = (0..FOREST_PASSES)
        .flat_map(|_| ta_queries.iter().map(Vec::as_slice))
        .collect();
    let run_qim = |qim: &tauw_core::calibration::TaQim| {
        ta_wave
            .iter()
            .map(|q| qim.uncertainty(q).expect("qim"))
            .collect::<Vec<_>>()
    };
    let verified_against_reference = |qim: &tauw_core::calibration::TaQim, served: &[f64]| {
        served.len() == ta_wave.len()
            && ta_wave.iter().zip(served).all(|(q, &u)| {
                qim.uncertainty_reference(q).expect("reference").to_bits() == u.to_bits()
            })
    };
    // One tree-side measurement, shared by both comparison rows — the
    // baseline workload is identical for every K.
    let (tree_s, tree_u) = time_best(opts.repetitions, || run_qim(single_taqim));
    let tree_verified = verified_against_reference(single_taqim, &tree_u);
    for k in [4usize, 16] {
        let forest_tauw = ctx
            .tauw_forest_variant(k, 0xF0E57 + k as u64)
            .expect("forest variant builds");
        let forest_taqim = forest_tauw.taqim();
        let (forest_s, forest_u) = time_best(opts.repetitions, || run_qim(forest_taqim));
        let identical = tree_verified && verified_against_reference(forest_taqim, &forest_u);
        results.push(Comparison::new(
            &format!("qim_uncertainty_tree_vs_forest{k}"),
            (ta_queries.len() * FOREST_PASSES) as u64,
            ("tree", tree_s),
            (&format!("forest{k}"), forest_s),
            identical,
        ));
        results.last().expect("just pushed").print();
    }

    // The taQIM lookup across the backend seam: the paper's single tree vs
    // the leafless split-conformal backend (histogram scorer + quantile
    // shift — table indexes instead of a traversal). Same queries, same
    // per-sample path, same per-side reference verification as the forest
    // rows above.
    let conformal_tauw = ctx
        .tauw_conformal_variant(tauw_core::conformal::ConformalOptions::default(), 0.9)
        .expect("conformal variant builds");
    let conformal_taqim = conformal_tauw.taqim();
    let (conformal_s, conformal_u) = time_best(opts.repetitions, || run_qim(conformal_taqim));
    let identical = tree_verified && verified_against_reference(conformal_taqim, &conformal_u);
    results.push(Comparison::new(
        "qim_uncertainty_tree_vs_conformal",
        (ta_queries.len() * FOREST_PASSES) as u64,
        ("tree", tree_s),
        ("conformal", conformal_s),
        identical,
    ));
    results.last().expect("just pushed").print();

    // Per-step taQF + fusion cost over a sliding window: the seed path
    // recomputed everything from the buffer each step (O(window)); serving
    // now reads running aggregates (O(1) in the window). Both paths run
    // the same deterministic traffic; the committed rows across window
    // sizes 10/100/10k are the lock-in — the incremental side must stay
    // flat in the window size while the recompute side degrades.
    let taqf_steps = if opts.smoke { 2_000 } else { 20_000 };
    let mut traffic_rng = SplitMix64::new(0x7A9F);
    let traffic: Vec<(u32, f64)> = (0..taqf_steps)
        .map(|_| (traffic_rng.next_index(3) as u32, traffic_rng.next_f64()))
        .collect();
    for window in [10usize, 100, 10_000] {
        let run_incremental = || {
            let mut buf = TimeseriesBuffer::bounded(window);
            let mut out = Vec::with_capacity(traffic.len());
            for &(outcome, u) in &traffic {
                buf.push(outcome, u);
                let fused = buf.fused_outcome().expect("non-empty");
                let taqf = TaqfVector::compute(&buf, fused).expect("non-empty");
                out.push((fused, taqf));
            }
            out
        };
        let run_recompute = || {
            let mut buf = TimeseriesBuffer::bounded(window);
            let mut out = Vec::with_capacity(traffic.len());
            for &(outcome, u) in &traffic {
                buf.push(outcome, u);
                let fused = buf.fused_outcome_reference().expect("non-empty");
                let taqf = TaqfVector::compute_reference(&buf, fused).expect("non-empty");
                out.push((fused, taqf));
            }
            out
        };
        let (recompute_s, recompute_out) = time_best(opts.repetitions, run_recompute);
        let (incremental_s, incremental_out) = time_best(opts.repetitions, run_incremental);
        let identical = recompute_out.len() == incremental_out.len()
            && recompute_out.iter().zip(&incremental_out).all(|(a, b)| {
                a.0 == b.0
                    && a.1.ratio.to_bits() == b.1.ratio.to_bits()
                    && a.1.length.to_bits() == b.1.length.to_bits()
                    && a.1.unique_outcomes.to_bits() == b.1.unique_outcomes.to_bits()
                    && a.1.cumulative_certainty.to_bits() == b.1.cumulative_certainty.to_bits()
            });
        results.push(Comparison::new(
            &format!("taqf_step_window_{window}"),
            taqf_steps as u64,
            ("recompute", recompute_s),
            ("incremental", incremental_s),
            identical,
        ));
        results.last().expect("just pushed").print();
    }

    // Per-step adaptive-calibration cost over the coverage window: the
    // reference path recomputes the coverage stats from the ring each step
    // (O(window)); serving reads the buffer's running aggregates (O(1) in
    // the window). Same lock-in shape as the taQF rows above: the
    // incremental side must stay flat in the window size.
    let adaptive_steps = if opts.smoke { 2_000 } else { 20_000 };
    let mut adaptive_rng = SplitMix64::new(0xADA9);
    let adaptive_traffic: Vec<(bool, f64)> = (0..adaptive_steps)
        .map(|_| (adaptive_rng.next_f64() < 0.3, adaptive_rng.next_f64()))
        .collect();
    for window in [10usize, 100, 10_000] {
        let config = tauw_core::adaptive::AdaptiveConfig {
            window,
            min_observations: (window / 4).max(1),
            rate: 0.05,
            ..Default::default()
        };
        let run_stepper = |observe: fn(&mut tauw_core::adaptive::AdaptiveState, f64, bool)| {
            let mut state = tauw_core::adaptive::AdaptiveState::new(config).expect("valid config");
            let mut out = Vec::with_capacity(adaptive_traffic.len());
            for &(failed, bound) in &adaptive_traffic {
                let served = state.adapted_bound(bound);
                observe(&mut state, served, failed);
                out.push((state.inflation_steps(), state.adapted_bound(0.37)));
            }
            out
        };
        let (reference_s, reference_out) = time_best(opts.repetitions, || {
            run_stepper(tauw_core::adaptive::AdaptiveState::observe_reference)
        });
        let (incremental_s, incremental_out) = time_best(opts.repetitions, || {
            run_stepper(tauw_core::adaptive::AdaptiveState::observe)
        });
        let identical = reference_out.len() == incremental_out.len()
            && reference_out
                .iter()
                .zip(&incremental_out)
                .all(|(a, b)| a.0 == b.0 && a.1.to_bits() == b.1.to_bits());
        results.push(Comparison::new(
            &format!("adaptive_step_window_{window}"),
            adaptive_steps as u64,
            ("recompute", reference_s),
            ("incremental", incremental_s),
            identical,
        ));
        results.last().expect("just pushed").print();
    }

    finish_report(opts, "BENCH_pipeline.json", "pipeline", results);
}

fn main() {
    let opts = parse_args();
    println!(
        "baseline bench: smoke={}, parallel threads={}, host parallelism={}",
        opts.smoke,
        opts.threads,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    bench_dtree(&opts);
    bench_pipeline(&opts);
}
