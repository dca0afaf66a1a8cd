//! Runtime verification with the simplex-style uncertainty monitor: how
//! much more of the drive can the AI channel serve (availability) at a
//! fixed residual-risk budget when uncertainty estimates are
//! timeseries-aware?
//!
//! The replay runs on the sharded multi-stream engine
//! ([`ShardedEngine`]): test windows are served in cohorts of concurrent
//! streams, each stream hash-assigned to one of a few shards, each frame
//! advancing the whole cohort through one batched wave — the service
//! deployment shape where one trained wrapper monitors many vehicles at
//! once. Shards only partition the stream table, so the estimates are
//! bit-identical to per-series sessions (and to the one-shard
//! [`TauwEngine`]) at any shard count.
//!
//! ```text
//! cargo run --release --example runtime_monitoring
//! ```

use tauw_suite::core::monitor::{MonitorDecision, UncertaintyMonitor};
use tauw_suite::core::sharded::ShardedEngine;
use tauw_suite::core::tauw::TauwBuilder;
use tauw_suite::core::training::{TrainingSeries, TrainingStep};
use tauw_suite::core::wrapper::WrapperBuilder;
use tauw_suite::core::CalibrationOptions;
use tauw_suite::sim::{DatasetBuilder, QualityObservation, SeriesRecord, SimConfig};

/// How many streams the engine serves concurrently per cohort.
const COHORT_STREAMS: usize = 16;

/// How many shards the engine partitions those streams into.
const N_SHARDS: usize = 4;

fn convert(records: &[SeriesRecord]) -> Vec<TrainingSeries> {
    records
        .iter()
        .map(|r| TrainingSeries {
            true_outcome: u32::from(r.true_class.id()),
            steps: r
                .frames
                .iter()
                .map(|f| TrainingStep {
                    quality_factors: f.observation.feature_vector().to_vec(),
                    outcome: u32::from(f.outcome.id()),
                })
                .collect(),
        })
        .collect()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A third of the paper's scale: large enough for the calibrated
    // bounds to reach the ~1% regime that makes tight budgets meaningful.
    let config = SimConfig::scaled(0.3);
    let data = DatasetBuilder::new(config, 13)
        .map_err(std::io::Error::other)?
        .build();

    let mut wrapper_builder = WrapperBuilder::new();
    wrapper_builder
        .max_depth(8)
        .calibration(CalibrationOptions {
            min_samples_per_leaf: 150,
            confidence: 0.999,
            ..Default::default()
        });
    let mut builder = TauwBuilder::new();
    builder.wrapper(wrapper_builder);
    let tauw = builder.fit(
        QualityObservation::feature_names(),
        &convert(&data.train),
        &convert(&data.calib),
    )?;

    let test = convert(&data.test);
    // The models serve through the compiled flat form: per step, each
    // lookup is one SoA traversal plus one leaf-ID-indexed bound read.
    let ta_qim = tauw
        .taqim()
        .as_forest()
        .expect("this example trains the default single-tree taQIM");
    let (stateless_flat, ta_flat) = (&tauw.stateless().qim().flat()[0], &ta_qim.flat()[0]);
    println!(
        "serving {} test windows on a {COHORT_STREAMS}-stream, {N_SHARDS}-shard engine",
        test.len()
    );
    println!(
        "flat serving forms: stateless QIM {} nodes / {} leaf IDs, taQIM {} nodes / {} leaf IDs\n",
        stateless_flat.n_nodes(),
        stateless_flat.n_leaves(),
        ta_flat.n_nodes(),
        ta_flat.n_leaves()
    );
    println!("uncertainty budget | channel      | availability | accepted-outcome error rate");
    println!("-------------------+--------------+--------------+----------------------------");
    // Serve the windows in cohorts of concurrent streams; within a cohort
    // every frame is one batched wave fanned across the shards. The
    // estimates do not depend on the monitor configuration, so one
    // inference pass feeds all budget × channel rows below.
    let mut engine = ShardedEngine::new(tauw, N_SHARDS);
    let cohort_waves = test
        .chunks(COHORT_STREAMS)
        .map(|cohort| engine.step_series_waves(cohort))
        .collect::<Result<Vec<_>, _>>()?;
    for budget in [0.15, 0.05, 0.02] {
        for use_tauw in [false, true] {
            let mut monitor = UncertaintyMonitor::new(budget);
            let mut accepted_failures = 0u64;
            let mut accepted = 0u64;
            for (cohort, waves) in test.chunks(COHORT_STREAMS).zip(&cohort_waves) {
                for (series, outs) in cohort.iter().zip(waves) {
                    for (j, out) in outs.iter().enumerate() {
                        let (uncertainty, failed) = if use_tauw {
                            (out.uncertainty, out.fused_outcome != series.true_outcome)
                        } else {
                            (out.stateless_uncertainty, series.is_failure(j))
                        };
                        if monitor.assess(uncertainty) == MonitorDecision::Accept {
                            accepted += 1;
                            if failed {
                                accepted_failures += 1;
                            }
                        }
                    }
                }
            }
            let stats = monitor.stats();
            println!(
                "{:>18.2} | {:<12} | {:>11.1}% | {:.3}% ({} of {})",
                budget,
                if use_tauw {
                    "taUW + IF"
                } else {
                    "stateless UW"
                },
                stats.availability() * 100.0,
                100.0 * accepted_failures as f64 / accepted.max(1) as f64,
                accepted_failures,
                accepted
            );
        }
    }
    println!(
        "\nreading guide: at the same budget, the timeseries-aware estimates keep more\n\
         outcomes available while the accepted-outcome error rate stays below the budget\n\
         (the bounds are calibrated at 99.9% confidence)."
    );
    Ok(())
}
