//! Reproducibility: the entire pipeline — world generation, training,
//! calibration, runtime estimates — is a pure function of (config, seed).

use tauw_suite::core::calibration::{CalibrationOptions, ServingScratch};
use tauw_suite::core::persist::Artifact;
use tauw_suite::core::tauw::{BackendSpec, TauwBuilder};
use tauw_suite::core::training::{TrainingSeries, TrainingStep};
use tauw_suite::core::wrapper::WrapperBuilder;
use tauw_suite::sim::{DatasetBuilder, QualityObservation, SeriesRecord, SimConfig};

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

/// Appends four copies of the first streams in which every other quality
/// factor of each step (alternating slots step by step) is an extreme
/// value, ±inf or ±1e300, rotating per step and stream. Trees route
/// `x <= threshold` left, so −inf goes left and +inf right; the
/// serving-vs-reference walls must agree bit for bit on those paths too.
fn with_extreme_streams(mut streams: Vec<TrainingSeries>) -> Vec<TrainingSeries> {
    const EXTREMES: [f64; 4] = [f64::INFINITY, f64::NEG_INFINITY, 1e300, -1e300];
    let extreme: Vec<TrainingSeries> = streams
        .iter()
        .take(EXTREMES.len())
        .enumerate()
        .map(|(e, series)| {
            let mut series = series.clone();
            for (k, step) in series.steps.iter_mut().enumerate() {
                for (slot, x) in step.quality_factors.iter_mut().enumerate() {
                    if (slot + k) % 2 == 0 {
                        *x = EXTREMES[(e + k + slot) % EXTREMES.len()];
                    }
                }
            }
            series
        })
        .collect();
    streams.extend(extreme);
    streams
}

fn pipeline_fingerprint(seed: u64) -> Vec<f64> {
    let config = SimConfig::scaled(0.04);
    let data = DatasetBuilder::new(config, seed).unwrap().build();
    let mut wb = WrapperBuilder::new();
    wb.max_depth(6).calibration(CalibrationOptions {
        min_samples_per_leaf: 50,
        confidence: 0.99,
        ..Default::default()
    });
    let mut builder = TauwBuilder::new();
    builder.wrapper(wb);
    let tauw = builder
        .fit(
            QualityObservation::feature_names(),
            &convert(&data.train),
            &convert(&data.calib),
        )
        .unwrap();
    let mut fingerprint = Vec::new();
    let mut session = tauw.new_session();
    for series in convert(&data.test).iter().take(20) {
        session.begin_series();
        for step in &series.steps {
            let out = session.step(&step.quality_factors, step.outcome).unwrap();
            fingerprint.push(out.uncertainty);
            fingerprint.push(out.stateless_uncertainty);
            fingerprint.push(f64::from(out.fused_outcome));
        }
    }
    fingerprint
}

#[test]
fn same_seed_reproduces_bit_identical_estimates() {
    let a = pipeline_fingerprint(31);
    let b = pipeline_fingerprint(31);
    assert_eq!(a, b, "pipeline must be bit-deterministic for a fixed seed");
}

#[test]
fn different_seeds_produce_different_worlds() {
    let a = pipeline_fingerprint(31);
    let b = pipeline_fingerprint(32);
    assert_ne!(a, b, "different seeds should change the generated world");
}

#[test]
fn persisted_wrapper_reproduces_bit_identical_estimates() {
    // Train offline, save, reload: the deployed artifact must yield
    // bit-identical estimates on a held-out series — the JSON roundtrip may
    // not perturb a single calibrated bound.
    let config = SimConfig::scaled(0.04);
    let data = DatasetBuilder::new(config, 31).unwrap().build();
    let mut wb = WrapperBuilder::new();
    wb.max_depth(6).calibration(CalibrationOptions {
        min_samples_per_leaf: 50,
        confidence: 0.99,
        ..Default::default()
    });
    let mut builder = TauwBuilder::new();
    builder.wrapper(wb);
    let tauw = builder
        .fit(
            QualityObservation::feature_names(),
            &convert(&data.train),
            &convert(&data.calib),
        )
        .unwrap();

    let path = std::env::temp_dir().join(format!(
        "tauw_determinism_roundtrip_{}.json",
        std::process::id()
    ));
    tauw.save(&path).unwrap();
    let reloaded = tauw_suite::core::tauw::TimeseriesAwareWrapper::load(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    assert_eq!(
        tauw, reloaded,
        "persisted model must be structurally identical"
    );

    let held_out = convert(&data.test);
    let mut fresh = tauw.new_session();
    let mut deployed = reloaded.new_session();
    let mut compared = 0usize;
    for series in held_out.iter().take(20) {
        fresh.begin_series();
        deployed.begin_series();
        for step in &series.steps {
            let a = fresh.step(&step.quality_factors, step.outcome).unwrap();
            let b = deployed.step(&step.quality_factors, step.outcome).unwrap();
            assert_eq!(
                a.uncertainty.to_bits(),
                b.uncertainty.to_bits(),
                "estimates diverged after persistence roundtrip"
            );
            assert_eq!(a, b);
            compared += 1;
        }
    }
    assert!(
        compared > 100,
        "held-out comparison covered only {compared} steps"
    );
}

#[test]
fn parallel_fit_is_bit_identical_across_thread_counts() {
    // A dataset large enough that both the per-feature split fan-out and
    // the sibling-subtree fork actually engage (root children ≥ 1024).
    use tauw_suite::dtree::{Dataset, TreeBuilder};
    let mut state = 0xD7EEu64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut ds = Dataset::with_anonymous_features(6, 3).unwrap();
    for _ in 0..8000 {
        let row: Vec<f64> = (0..6).map(|_| next()).collect();
        let label = ((row[0] * 2.0 + row[3]) as u32).min(2);
        ds.push_row(&row, label).unwrap();
    }
    let serial = TreeBuilder::new().max_depth(8).threads(1).fit(&ds).unwrap();
    let serial_json = serde_json::to_string(&serial).unwrap();
    let serial_text = tauw_suite::dtree::export::to_text(&serial);
    for threads in [2usize, 8] {
        let par = TreeBuilder::new()
            .max_depth(8)
            .threads(threads)
            .fit(&ds)
            .unwrap();
        // Structural equality AND byte-for-byte identical exports: the
        // parallel build must reproduce the serial pre-order node
        // layout exactly, not just an equivalent predictor.
        assert_eq!(serial, par, "threads={threads}");
        assert_eq!(
            serial_json,
            serde_json::to_string(&par).unwrap(),
            "threads={threads}: serialized trees diverged"
        );
        assert_eq!(
            serial_text,
            tauw_suite::dtree::export::to_text(&par),
            "threads={threads}: text exports diverged"
        );
    }
}

#[test]
fn flat_tree_is_bit_identical_to_pointer_tree_across_thread_counts() {
    // The compiled SoA form must be a *lowering*, not a reinterpretation:
    // same leaves and same routing, for a tree fitted at every thread
    // budget — proven via the leaf-id mapping and equality of the flat
    // forms.
    use tauw_suite::dtree::{Dataset, FlatTree, TreeBuilder};
    let mut state = 0xF1A7u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut ds = Dataset::with_anonymous_features(6, 3).unwrap();
    for _ in 0..6000 {
        let row: Vec<f64> = (0..6).map(|_| next()).collect();
        let label = ((row[0] * 2.0 + row[3]) as u32).min(2);
        ds.push_row(&row, label).unwrap();
    }
    let queries: Vec<Vec<f64>> = (0..2000)
        .map(|_| (0..6).map(|_| next()).collect())
        .collect();
    let tree = TreeBuilder::new().max_depth(8).fit(&ds).unwrap();
    let flat = FlatTree::from_tree(&tree);
    let before = flat.clone();
    let text = tauw_suite::dtree::export::to_text(&tree);
    assert_eq!(
        text.lines().count(),
        flat.n_nodes(),
        "flat form must carry exactly the exported nodes"
    );
    assert_eq!(
        flat.leaf_nodes(),
        tree.leaf_ids(),
        "leaf ids must follow the depth-first leaf order"
    );

    // Single-sample fast path vs the pointer tree, bit for bit.
    let serial: Vec<u32> = queries
        .iter()
        .map(|q| flat.predict_leaf_id(q).unwrap())
        .collect();
    for (q, &lid) in queries.iter().zip(&serial) {
        assert_eq!(flat.leaf_node(lid), tree.leaf_id(q).unwrap());
    }

    // A tree fitted at any thread budget lowers to the same flat form
    // and routes every query to the same leaf.
    for threads in [1usize, 2, 8] {
        let refit = TreeBuilder::new()
            .max_depth(8)
            .threads(threads)
            .fit(&ds)
            .unwrap();
        let reflat = FlatTree::from_tree(&refit);
        assert_eq!(reflat, flat, "threads={threads}");
        for (q, &lid) in queries.iter().zip(&serial) {
            assert_eq!(reflat.predict_leaf_id(q).unwrap(), lid);
        }
    }

    // The flat form itself is unchanged by serving, and lowering the
    // tree again reproduces it.
    assert_eq!(flat, before);
    assert_eq!(FlatTree::from_tree(&tree), flat);
}

/// FNV-1a 64 over `bytes`.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn fitted_trees_match_pinned_hashes() {
    // Pins the serialized trees themselves, not only serial == parallel
    // within one build: a learner change that moves any split, threshold,
    // count or impurity bit moves these hashes.
    use tauw_suite::dtree::{Dataset, ForestBuilder, TreeBuilder};
    let dataset = |n_classes: u32, seed: u64| {
        let mut state = seed;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        // Two features on a coarse grid with both signed zeros (heavy
        // ties), three continuous ones; enough rows to fork subtrees.
        const GRID: [f64; 6] = [-2.0, -0.0, 0.0, 0.5, 1.0, 7.25];
        let mut ds = Dataset::with_anonymous_features(5, n_classes).unwrap();
        for _ in 0..6000 {
            let row = [
                GRID[(next() * 6.0) as usize],
                GRID[(next() * 6.0) as usize],
                next(),
                next(),
                (next() * 40.0).floor(),
            ];
            let signal = row[0] + 2.0 * row[2] - row[3];
            let label = if next() < 0.15 {
                (next() * f64::from(n_classes)) as u32
            } else {
                ((signal.max(0.0) * 1.5) as u32).min(n_classes - 1)
            };
            ds.push_row(&row, label).unwrap();
        }
        ds
    };
    for (n_classes, seed, pinned) in [
        (2u32, 0x2C1A55, 0x085a_fab9_dbb6_63c5),
        (3, 0x3C1A55, 0xe72b_1bdd_60b0_3875),
    ] {
        let ds = dataset(n_classes, seed);
        for threads in [1usize, 2, 8] {
            let tree = TreeBuilder::new()
                .max_depth(8)
                .threads(threads)
                .fit(&ds)
                .unwrap();
            assert!(tree.n_leaves() > 50, "the tree must actually grow");
            assert_eq!(
                fnv1a64(serde_json::to_string(&tree).unwrap().as_bytes()),
                pinned,
                "{n_classes} classes, threads={threads}"
            );
        }
    }
    let ds = dataset(2, 0xF0257);
    let mut builder = ForestBuilder::new(4, 20230627);
    builder.tree(TreeBuilder::new().max_depth(8).clone());
    for threads in [1usize, 2, 8] {
        let forest = builder.clone().threads(threads).fit(&ds).unwrap();
        let json = serde_json::to_string(&forest.trees().to_vec()).unwrap();
        assert_eq!(
            fnv1a64(json.as_bytes()),
            0x0393_e8c1_bb13_d737,
            "forest, threads={threads}"
        );
    }
}

#[test]
fn tauw_flat_serving_matches_pointer_reference_paths() {
    // The engine/session serve estimates through the flat form; the
    // pointer trees stay aboard as the reference. Recompute every estimate
    // through the reference path and demand bitwise equality, across
    // engine thread budgets 1/2/8, on streams with ±inf and ±1e300
    // quality factors too.
    use tauw_suite::core::engine::{StreamId, TauwEngine};

    let config = SimConfig::scaled(0.04);
    let data = DatasetBuilder::new(config, 31).unwrap().build();
    let mut wb = WrapperBuilder::new();
    wb.max_depth(6).calibration(CalibrationOptions {
        min_samples_per_leaf: 50,
        confidence: 0.99,
        ..Default::default()
    });
    let mut builder = TauwBuilder::new();
    builder.wrapper(wb);
    let tauw = builder
        .fit(
            QualityObservation::feature_names(),
            &convert(&data.train),
            &convert(&data.calib),
        )
        .unwrap();

    let streams = with_extreme_streams(convert(&data.test).into_iter().take(24).collect());
    let window_len = streams.iter().map(|s| s.steps.len()).max().unwrap();
    let mut compared = 0usize;
    for threads in [1usize, 2, 8] {
        let mut engine = TauwEngine::new(tauw.clone());
        engine.threads(threads);
        for j in 0..window_len {
            let mut positions = Vec::new();
            let mut batch: Vec<(StreamId, &[f64], u32)> = Vec::new();
            for (s, series) in streams.iter().enumerate() {
                if let Some(step) = series.steps.get(j) {
                    positions.push(s);
                    batch.push((StreamId(s as u64), &step.quality_factors[..], step.outcome));
                }
            }
            for (&s, out) in positions
                .iter()
                .zip(engine.step_many_borrowed(&batch).unwrap())
            {
                let qf = &streams[s].steps[j].quality_factors;
                // Stateless QIM: flat-served value vs pointer reference.
                let stateless_ref = tauw.stateless().qim().uncertainty_reference(qf).unwrap();
                assert_eq!(
                    out.stateless_uncertainty.to_bits(),
                    stateless_ref.to_bits(),
                    "stateless stream {s} step {j} threads={threads}"
                );
                // taQIM: rebuild the feature vector the step used and run
                // it through the pointer reference.
                let mut features = qf.clone();
                features.extend(tauw.taqf_set().select(&out.taqf));
                let ta_ref = tauw.taqim().uncertainty_reference(&features).unwrap();
                assert_eq!(
                    out.uncertainty.to_bits(),
                    ta_ref.to_bits(),
                    "taQIM stream {s} step {j} threads={threads}"
                );
                // And the shared per-step routine reproduces it exactly.
                let again = tauw
                    .ta_uncertainty_with_scratch(&mut ServingScratch::new(), qf, &out.taqf)
                    .unwrap();
                assert_eq!(out.uncertainty.to_bits(), again.to_bits());
                compared += 1;
            }
        }
    }
    assert!(compared > 300, "covered only {compared} comparisons");
}

#[test]
fn incremental_taqf_serving_matches_full_recompute_reference() {
    // The serving path reads O(1) running aggregates (ring buffer stats);
    // the O(window) scans stay aboard as the reference. Recompute every
    // per-step estimate through the reference path — majority-vote scan,
    // full taQF recompute, pointer-tree taQIM — and demand bitwise
    // equality, across engine thread budgets 1/2/8 and for both unbounded
    // and bounded (sliding-window) stream buffers.
    use tauw_suite::core::engine::{StreamId, TauwEngine};
    use tauw_suite::core::taqf::TaqfVector;

    let config = SimConfig::scaled(0.04);
    let data = DatasetBuilder::new(config, 31).unwrap().build();
    let mut wb = WrapperBuilder::new();
    wb.max_depth(6).calibration(CalibrationOptions {
        min_samples_per_leaf: 50,
        confidence: 0.99,
        ..Default::default()
    });
    let mut builder = TauwBuilder::new();
    builder.wrapper(wb);
    let tauw = builder
        .fit(
            QualityObservation::feature_names(),
            &convert(&data.train),
            &convert(&data.calib),
        )
        .unwrap();

    let streams: Vec<_> = convert(&data.test).into_iter().take(24).collect();
    let window_len = streams.iter().map(|s| s.steps.len()).max().unwrap();
    let mut compared = 0usize;
    for capacity in [None, Some(4usize), Some(1)] {
        for threads in [1usize, 2, 8] {
            let mut engine = TauwEngine::new(tauw.clone());
            engine.threads(threads);
            if let Some(cap) = capacity {
                engine.buffer_capacity(cap);
            }
            for j in 0..window_len {
                let mut positions = Vec::new();
                let mut batch: Vec<(StreamId, &[f64], u32)> = Vec::new();
                for (s, series) in streams.iter().enumerate() {
                    if let Some(step) = series.steps.get(j) {
                        positions.push(s);
                        batch.push((StreamId(s as u64), &step.quality_factors[..], step.outcome));
                    }
                }
                for (&s, out) in positions
                    .iter()
                    .zip(engine.step_many_borrowed(&batch).unwrap())
                {
                    let ctx = format!("stream {s} step {j} threads={threads} cap={capacity:?}");
                    let buffer = engine.stream_buffer(StreamId(s as u64)).unwrap();
                    // Fused outcome: O(1) argmax == O(window) vote scan.
                    let fused_ref = buffer.fused_outcome_reference().unwrap();
                    assert_eq!(out.fused_outcome, fused_ref, "{ctx}");
                    // taQFs: running aggregates == full recompute, bitwise.
                    let taqf_ref = TaqfVector::compute_reference(buffer, fused_ref).unwrap();
                    for (fast, slow) in [
                        (out.taqf.ratio, taqf_ref.ratio),
                        (out.taqf.length, taqf_ref.length),
                        (out.taqf.unique_outcomes, taqf_ref.unique_outcomes),
                        (out.taqf.cumulative_certainty, taqf_ref.cumulative_certainty),
                    ] {
                        assert_eq!(fast.to_bits(), slow.to_bits(), "{ctx}");
                    }
                    // taQF2 reports the lifetime series length even when
                    // the window has evicted steps.
                    assert_eq!(out.taqf.length, (j + 1) as f64, "{ctx}");
                    assert_eq!(out.series_length, j + 1, "{ctx}");
                    // And the final estimate: reference features through
                    // the pointer-tree taQIM reference lookup.
                    let qf = &streams[s].steps[j].quality_factors;
                    let mut features = qf.clone();
                    features.extend(tauw.taqf_set().select(&taqf_ref));
                    let u_ref = tauw.taqim().uncertainty_reference(&features).unwrap();
                    assert_eq!(out.uncertainty.to_bits(), u_ref.to_bits(), "{ctx}");
                    compared += 1;
                }
            }
        }
    }
    assert!(compared > 1000, "covered only {compared} comparisons");
}

#[test]
fn forest_engine_serving_is_bit_identical_across_thread_budgets_and_to_reference() {
    // A forest taQIM (4 bootstrap members) served through the multi-stream
    // engine: training must be a pure function of the seed (the per-member
    // fits fan out over the thread budget), and every served estimate must
    // be bit-identical across engine thread budgets 1/2/8 AND to the
    // pointer-member reference recompute, ±inf and ±1e300 inputs included.
    use tauw_suite::core::engine::{StreamId, TauwEngine};

    let config = SimConfig::scaled(0.04);
    let data = DatasetBuilder::new(config, 31).unwrap().build();
    let mut wb = WrapperBuilder::new();
    wb.max_depth(6).calibration(CalibrationOptions {
        min_samples_per_leaf: 50,
        confidence: 0.99,
        ..Default::default()
    });
    let fit = || {
        let mut builder = TauwBuilder::new();
        builder.wrapper(wb.clone()).backend(BackendSpec::Forest {
            n_trees: 4,
            seed: 0xF0E57,
        });
        builder
            .fit(
                QualityObservation::feature_names(),
                &convert(&data.train),
                &convert(&data.calib),
            )
            .unwrap()
    };
    let tauw = fit();
    assert_eq!(tauw.taqim().n_trees(), 4);
    assert_eq!(
        tauw,
        fit(),
        "forest training must be reproducible under the ambient thread budget"
    );

    let streams = with_extreme_streams(convert(&data.test).into_iter().take(24).collect());
    let window_len = streams.iter().map(|s| s.steps.len()).max().unwrap();
    let mut baseline: Option<Vec<tauw_suite::core::tauw::TauwStep>> = None;
    let mut compared = 0usize;
    for threads in [1usize, 2, 8] {
        let mut engine = TauwEngine::new(tauw.clone());
        engine.threads(threads);
        let mut all = Vec::new();
        for j in 0..window_len {
            let mut positions = Vec::new();
            let mut batch: Vec<(StreamId, &[f64], u32)> = Vec::new();
            for (s, series) in streams.iter().enumerate() {
                if let Some(step) = series.steps.get(j) {
                    positions.push(s);
                    batch.push((StreamId(s as u64), &step.quality_factors[..], step.outcome));
                }
            }
            for (&s, out) in positions
                .iter()
                .zip(engine.step_many_borrowed(&batch).unwrap())
            {
                let qf = &streams[s].steps[j].quality_factors;
                // The forest's serving path (one lockstep walk of the K
                // members + mean in canonical member order) recomputed via
                // the pointer members, bit for bit.
                let mut features = qf.clone();
                features.extend(tauw.taqf_set().select(&out.taqf));
                let reference = tauw.taqim().uncertainty_reference(&features).unwrap();
                assert_eq!(
                    out.uncertainty.to_bits(),
                    reference.to_bits(),
                    "stream {s} step {j} threads={threads}"
                );
                compared += 1;
                all.push(out);
            }
        }
        match &baseline {
            None => baseline = Some(all),
            Some(expected) => assert_eq!(expected, &all, "threads={threads}"),
        }
    }
    assert!(compared > 300, "covered only {compared} comparisons");
}

#[test]
fn engine_step_many_matches_sequential_single_stream_wrappers() {
    use tauw_suite::core::engine::{StreamId, TauwEngine};

    let config = SimConfig::scaled(0.04);
    let data = DatasetBuilder::new(config, 31).unwrap().build();
    let mut wb = WrapperBuilder::new();
    wb.max_depth(6).calibration(CalibrationOptions {
        min_samples_per_leaf: 50,
        confidence: 0.99,
        ..Default::default()
    });
    let mut builder = TauwBuilder::new();
    builder.wrapper(wb);
    let tauw = builder
        .fit(
            QualityObservation::feature_names(),
            &convert(&data.train),
            &convert(&data.calib),
        )
        .unwrap();

    let streams: Vec<_> = convert(&data.test).into_iter().take(32).collect();

    // Reference: one dedicated session per stream, stepped sequentially.
    let mut expected: Vec<Vec<tauw_suite::core::tauw::TauwStep>> = Vec::new();
    for series in &streams {
        let mut session = tauw.new_session();
        session.begin_series();
        expected.push(
            series
                .steps
                .iter()
                .map(|s| session.step(&s.quality_factors, s.outcome).unwrap())
                .collect(),
        );
    }

    // Engine: all streams advance together, one batched call per wave,
    // across several thread budgets.
    for threads in [1usize, 2, 8] {
        let mut engine = TauwEngine::new(tauw.clone());
        engine.threads(threads);
        let window_len = streams.iter().map(|s| s.steps.len()).max().unwrap();
        let mut got: Vec<Vec<tauw_suite::core::tauw::TauwStep>> = vec![Vec::new(); streams.len()];
        for j in 0..window_len {
            let mut positions = Vec::new();
            let mut batch: Vec<(StreamId, &[f64], u32)> = Vec::new();
            for (s, series) in streams.iter().enumerate() {
                if let Some(step) = series.steps.get(j) {
                    positions.push(s);
                    batch.push((StreamId(s as u64), &step.quality_factors[..], step.outcome));
                }
            }
            for (&s, out) in positions
                .iter()
                .zip(engine.step_many_borrowed(&batch).unwrap())
            {
                got[s].push(out);
            }
        }
        assert_eq!(expected.len(), got.len());
        for (s, (want, have)) in expected.iter().zip(&got).enumerate() {
            assert_eq!(want.len(), have.len(), "stream {s} length");
            for (k, (w, h)) in want.iter().zip(have).enumerate() {
                assert_eq!(
                    w.uncertainty.to_bits(),
                    h.uncertainty.to_bits(),
                    "stream {s} step {k} threads={threads}"
                );
                assert_eq!(w, h, "stream {s} step {k} threads={threads}");
            }
        }
    }
}

#[test]
fn adaptive_engine_matches_sequential_adaptive_sessions_across_thread_budgets() {
    use tauw_suite::core::adaptive::{AdaptiveConfig, DriftSignal};
    use tauw_suite::core::engine::{AdaptiveStreamStep, StreamId, TauwEngine};

    let config = SimConfig::scaled(0.04);
    let data = DatasetBuilder::new(config, 31).unwrap().build();
    let mut wb = WrapperBuilder::new();
    wb.max_depth(6).calibration(CalibrationOptions {
        min_samples_per_leaf: 50,
        confidence: 0.99,
        ..Default::default()
    });
    let mut builder = TauwBuilder::new();
    builder.wrapper(wb);
    let tauw = builder
        .fit(
            QualityObservation::feature_names(),
            &convert(&data.train),
            &convert(&data.calib),
        )
        .unwrap();

    // Inject a regime switch: in the second half of every stream, every
    // other step flips to an unmodeled outcome so the wrapper's promised
    // bounds undercover and the adaptive layer has real work to do.
    let streams: Vec<_> = convert(&data.test)
        .into_iter()
        .take(24)
        .map(|mut series| {
            let half = series.steps.len() / 2;
            let truth = series.true_outcome;
            for (j, step) in series.steps.iter_mut().enumerate() {
                if j >= half && j % 2 == 0 {
                    step.outcome = truth + 1;
                }
            }
            series
        })
        .collect();

    let adaptive = AdaptiveConfig {
        window: 8,
        min_observations: 4,
        rate: 0.05,
        max_inflation_steps: 32,
        ..Default::default()
    };

    // Reference: one dedicated adaptive session per stream, sequential.
    let mut expected: Vec<Vec<tauw_suite::core::tauw::TauwStep>> = Vec::new();
    for series in &streams {
        let mut session = tauw.new_adaptive_session(adaptive).unwrap();
        session.begin_series();
        expected.push(
            series
                .steps
                .iter()
                .map(|s| {
                    session
                        .step(
                            &s.quality_factors,
                            s.outcome,
                            s.outcome != series.true_outcome,
                        )
                        .unwrap()
                })
                .collect(),
        );
    }

    // Non-vacuity: the regime switch must actually trigger adaptation.
    let flat: Vec<_> = expected.iter().flatten().collect();
    assert!(
        flat.iter().any(|s| s.adapted_uncertainty > s.uncertainty),
        "regime switch should inflate at least one served bound"
    );
    assert!(
        flat.iter().any(|s| s.drift != DriftSignal::Stable),
        "regime switch should surface at least one drift signal"
    );

    // Engine: all streams advance together in batched waves, across
    // several thread budgets; every step must be bit-identical.
    for threads in [1usize, 2, 8] {
        let mut engine = TauwEngine::new(tauw.clone());
        engine.threads(threads);
        engine.enable_adaptation(adaptive).unwrap();
        let window_len = streams.iter().map(|s| s.steps.len()).max().unwrap();
        let mut got: Vec<Vec<tauw_suite::core::tauw::TauwStep>> = vec![Vec::new(); streams.len()];
        for j in 0..window_len {
            let mut positions = Vec::new();
            let mut batch = Vec::new();
            for (s, series) in streams.iter().enumerate() {
                if let Some(step) = series.steps.get(j) {
                    positions.push(s);
                    batch.push(AdaptiveStreamStep::new(
                        StreamId(s as u64),
                        step.quality_factors.clone(),
                        step.outcome,
                        step.outcome != series.true_outcome,
                    ));
                }
            }
            for (&s, out) in positions
                .iter()
                .zip(engine.step_many_adaptive(&batch).unwrap())
            {
                got[s].push(out);
            }
        }
        assert_eq!(expected.len(), got.len());
        for (s, (want, have)) in expected.iter().zip(&got).enumerate() {
            assert_eq!(want.len(), have.len(), "stream {s} length");
            for (k, (w, h)) in want.iter().zip(have).enumerate() {
                assert_eq!(
                    w.adapted_uncertainty.to_bits(),
                    h.adapted_uncertainty.to_bits(),
                    "stream {s} step {k} threads={threads} adapted bound"
                );
                assert_eq!(
                    w.drift, h.drift,
                    "stream {s} step {k} threads={threads} drift"
                );
                assert_eq!(w, h, "stream {s} step {k} threads={threads}");
            }
        }
    }
}

#[test]
fn warmed_engine_wave_scratch_replays_bit_identically() {
    // The engine reuses per-wave scaffolding (slot pool, grouping order,
    // scratch feature rows) across calls. Replaying the same workload
    // through an already-warmed engine — where every reusable buffer
    // carries values from the previous pass — must reproduce the cold
    // pass bit for bit, for the plain and the adaptive wave path alike.
    use tauw_suite::core::adaptive::AdaptiveConfig;
    use tauw_suite::core::engine::{AdaptiveStreamStep, StreamId, TauwEngine};

    let config = SimConfig::scaled(0.04);
    let data = DatasetBuilder::new(config, 31).unwrap().build();
    let mut wb = WrapperBuilder::new();
    wb.max_depth(6).calibration(CalibrationOptions {
        min_samples_per_leaf: 50,
        confidence: 0.99,
        ..Default::default()
    });
    let mut builder = TauwBuilder::new();
    builder.wrapper(wb);
    let tauw = builder
        .fit(
            QualityObservation::feature_names(),
            &convert(&data.train),
            &convert(&data.calib),
        )
        .unwrap();

    let streams: Vec<_> = convert(&data.test).into_iter().take(16).collect();
    let window_len = streams.iter().map(|s| s.steps.len()).max().unwrap();
    let adaptive = AdaptiveConfig {
        window: 8,
        min_observations: 4,
        rate: 0.05,
        ..Default::default()
    };

    let mut engine = TauwEngine::new(tauw.clone());
    engine.threads(2);
    engine.enable_adaptation(adaptive).unwrap();

    let run = |engine: &mut TauwEngine| {
        let mut all = Vec::new();
        for j in 0..window_len {
            let batch: Vec<AdaptiveStreamStep> = streams
                .iter()
                .enumerate()
                .filter_map(|(s, series)| {
                    series.steps.get(j).map(|step| {
                        AdaptiveStreamStep::new(
                            StreamId(s as u64),
                            step.quality_factors.clone(),
                            step.outcome,
                            step.outcome != streams[s].true_outcome,
                        )
                    })
                })
                .collect();
            all.extend(engine.step_many_adaptive(&batch).unwrap());
        }
        all
    };

    let cold = run(&mut engine);
    // Drop all stream state (buffers AND adaptive notches) but keep the
    // engine — and with it the warmed wave scaffolding — alive.
    engine.clear_streams();
    let warm = run(&mut engine);
    assert_eq!(cold.len(), warm.len());
    for (k, (c, w)) in cold.iter().zip(&warm).enumerate() {
        assert_eq!(
            c.uncertainty.to_bits(),
            w.uncertainty.to_bits(),
            "step {k}: warmed wave scratch changed a served bound"
        );
        assert_eq!(c, w, "step {k}");
    }

    // Same replay property for the plain (non-adaptive) wave path.
    let run_plain = |engine: &mut TauwEngine| {
        let mut all = Vec::new();
        for j in 0..window_len {
            let batch: Vec<(StreamId, &[f64], u32)> = streams
                .iter()
                .enumerate()
                .filter_map(|(s, series)| {
                    series
                        .steps
                        .get(j)
                        .map(|step| (StreamId(s as u64), &step.quality_factors[..], step.outcome))
                })
                .collect();
            all.extend(engine.step_many_borrowed(&batch).unwrap());
        }
        all
    };
    engine.clear_streams();
    let plain_cold = run_plain(&mut engine);
    engine.clear_streams();
    let plain_warm = run_plain(&mut engine);
    assert_eq!(plain_cold, plain_warm);
}

#[test]
fn dataset_generation_is_order_independent_per_series() {
    // Each series derives its RNG stream from (master seed, series index),
    // so regenerating the same world twice yields identical series even
    // though the generator state is not shared.
    let config = SimConfig::scaled(0.03);
    let a = DatasetBuilder::new(config.clone(), 77).unwrap().build();
    let b = DatasetBuilder::new(config, 77).unwrap().build();
    assert_eq!(a.train.len(), b.train.len());
    for (x, y) in a.train.iter().zip(&b.train).step_by(7) {
        assert_eq!(x, y);
    }
    for (x, y) in a.test.iter().zip(&b.test).step_by(3) {
        assert_eq!(x, y);
    }
}

#[test]
fn sharded_engine_matches_sequential_sessions_across_shard_and_thread_grid() {
    // The sharded serving front end is a pure router: at every shard
    // count x thread budget, the served steps must be bit-identical to N
    // dedicated sequential references — and a mid-replay snapshot restored
    // into a *different* shard count must continue the exact same
    // trajectory (the stream hash decides placement, never estimates).
    // Two stream sets run the grid: clean test windows on unbounded
    // buffers, and test windows shifted by each scenario family on 4-step
    // sliding windows.
    use tauw_suite::core::buffer::TimeseriesBuffer;
    use tauw_suite::core::engine::StreamId;
    use tauw_suite::core::sharded::ShardedEngine;
    use tauw_suite::core::tauw::TauwStep;
    use tauw_suite::sim::scenario::{
        BurstParams, DropoutParams, MultiSourceParams, RegimeParams, ScenarioConfig,
        ScenarioFamily, SplitKind,
    };

    let config = SimConfig::scaled(0.04);
    let data = DatasetBuilder::new(config.clone(), 31).unwrap().build();
    let mut wb = WrapperBuilder::new();
    wb.max_depth(6).calibration(CalibrationOptions {
        min_samples_per_leaf: 50,
        confidence: 0.99,
        ..Default::default()
    });
    let mut builder = TauwBuilder::new();
    builder.wrapper(wb);
    let tauw = builder
        .fit(
            QualityObservation::feature_names(),
            &convert(&data.train),
            &convert(&data.calib),
        )
        .unwrap();

    // Serves `streams` over the shard x thread grid, snapshotting at step
    // `snap_at` into a resharded engine, and demands every step equal
    // `expected` bit for bit.
    let check_grid = |label: &str,
                      streams: &[TrainingSeries],
                      capacity: Option<usize>,
                      snap_at: usize,
                      expected: &[Vec<TauwStep>]| {
        let window_len = streams.iter().map(|s| s.steps.len()).max().unwrap();
        // Non-sequential ids so the shard hash actually scatters.
        let id_of = |s: usize| StreamId(s as u64 * 7919 + 3);
        let engine_with = |shards: usize, threads: usize| {
            let mut engine = ShardedEngine::new(tauw.clone(), shards);
            engine.threads(threads);
            if let Some(cap) = capacity {
                engine.buffer_capacity(cap);
            }
            engine
        };
        for shards in [1usize, 2, 7] {
            for threads in [1usize, 2, 8] {
                let mut engine = engine_with(shards, threads);
                // Snapshot at `snap_at`, restore into a different shard
                // count, and finish the replay on the resharded engine.
                let reshard = (shards % 7) + 2; // 1 -> 3, 2 -> 4, 7 -> 2
                let mut resharded = engine_with(reshard, threads);
                let mut moved = false;
                let mut got: Vec<Vec<TauwStep>> = vec![Vec::new(); streams.len()];
                for j in 0..window_len {
                    if j == snap_at {
                        for state in engine.snapshot() {
                            resharded.restore(&state).unwrap();
                        }
                        assert_eq!(resharded.n_streams(), engine.n_streams());
                        moved = true;
                    }
                    let serving = if moved { &mut resharded } else { &mut engine };
                    let mut positions = Vec::new();
                    let mut batch: Vec<(StreamId, &[f64], u32)> = Vec::new();
                    for (s, series) in streams.iter().enumerate() {
                        if let Some(step) = series.steps.get(j) {
                            positions.push(s);
                            batch.push((id_of(s), step.quality_factors.as_slice(), step.outcome));
                        }
                    }
                    for (&s, out) in positions
                        .iter()
                        .zip(serving.step_many_borrowed(&batch).unwrap())
                    {
                        got[s].push(out);
                    }
                }
                assert!(moved, "snapshot point must lie inside the replay");
                for (s, (want, have)) in expected.iter().zip(&got).enumerate() {
                    assert_eq!(want.len(), have.len(), "{label} stream {s} length");
                    for (k, (w, h)) in want.iter().zip(have).enumerate() {
                        let ctx = format!(
                            "{label} stream {s} step {k} shards={shards}->{reshard} \
                             threads={threads}"
                        );
                        assert_eq!(w.uncertainty.to_bits(), h.uncertainty.to_bits(), "{ctx}");
                        assert_eq!(w, h, "{ctx}");
                    }
                }
            }
        }
    };

    // Clean set. Reference: one dedicated session per stream, stepped
    // sequentially.
    let clean: Vec<_> = convert(&data.test).into_iter().take(24).collect();
    let expected: Vec<Vec<TauwStep>> = clean
        .iter()
        .map(|series| {
            let mut session = tauw.new_session();
            session.begin_series();
            series
                .steps
                .iter()
                .map(|s| session.step(&s.quality_factors, s.outcome).unwrap())
                .collect()
        })
        .collect();
    let window_len = clean.iter().map(|s| s.steps.len()).max().unwrap();
    check_grid("clean", &clean, None, window_len / 2, &expected);

    // Shifted set: six windows spread over the test split per family (so
    // the regime switch's second half is in), served through 4-step
    // windows. Reference: one bounded buffer per stream through
    // `step_with_parts`.
    const WINDOW: usize = 4;
    let mut shifted = Vec::new();
    for family in [
        ScenarioFamily::SensorDropout(DropoutParams::default()),
        ScenarioFamily::RegimeSwitch(RegimeParams::default()),
        ScenarioFamily::HeavyTails(BurstParams::default()),
        ScenarioFamily::MultiSource(MultiSourceParams::default()),
    ] {
        let mut records = data.test.clone();
        ScenarioConfig::new(config.clone(), family).apply_split(
            SplitKind::Test,
            &mut records,
            31,
            2,
        );
        let stride = records.len() / 6;
        shifted.extend(convert(&records).into_iter().step_by(stride).take(6));
    }
    let expected: Vec<Vec<TauwStep>> = shifted
        .iter()
        .map(|series| {
            let mut buffer = TimeseriesBuffer::bounded(WINDOW);
            let mut scratch = ServingScratch::new();
            series
                .steps
                .iter()
                .map(|s| {
                    tauw.step_with_parts(&mut buffer, &mut scratch, &s.quality_factors, s.outcome)
                        .unwrap()
                })
                .collect()
        })
        .collect();
    // Half the shortest window: every stream has evicted before the
    // snapshot, and the 3-source streams keep evicting after it.
    let snap_at = shifted.iter().map(|s| s.steps.len()).min().unwrap() / 2;
    assert!(snap_at > WINDOW, "windows must evict before the snapshot");
    assert!(
        shifted.iter().any(|s| s.steps.len() > snap_at + WINDOW),
        "windows must evict after the snapshot"
    );
    check_grid("shifted", &shifted, Some(WINDOW), snap_at, &expected);
}

#[test]
fn adaptive_sharded_engine_matches_adaptive_sessions_across_the_grid() {
    // Adaptive variant of the grid test: per-stream coverage windows and
    // inflation state ride along through sharding, wave batching, and a
    // mid-replay snapshot/reshard, bit for bit.
    use tauw_suite::core::adaptive::AdaptiveConfig;
    use tauw_suite::core::engine::{AdaptiveStreamStep, StreamId};
    use tauw_suite::core::sharded::ShardedEngine;

    let config = SimConfig::scaled(0.04);
    let data = DatasetBuilder::new(config, 31).unwrap().build();
    let mut wb = WrapperBuilder::new();
    wb.max_depth(6).calibration(CalibrationOptions {
        min_samples_per_leaf: 50,
        confidence: 0.99,
        ..Default::default()
    });
    let mut builder = TauwBuilder::new();
    builder.wrapper(wb);
    let tauw = builder
        .fit(
            QualityObservation::feature_names(),
            &convert(&data.train),
            &convert(&data.calib),
        )
        .unwrap();

    // Regime switch in the second half so adaptation has real work to do
    // when the snapshot moves the streams between shard layouts.
    let streams: Vec<_> = convert(&data.test)
        .into_iter()
        .take(16)
        .map(|mut series| {
            let half = series.steps.len() / 2;
            let truth = series.true_outcome;
            for (j, step) in series.steps.iter_mut().enumerate() {
                if j >= half && j % 2 == 0 {
                    step.outcome = truth + 1;
                }
            }
            series
        })
        .collect();
    let window_len = streams.iter().map(|s| s.steps.len()).max().unwrap();
    let id_of = |s: usize| StreamId(s as u64 * 104_729 + 11);
    let adaptive = AdaptiveConfig {
        window: 8,
        min_observations: 4,
        rate: 0.05,
        max_inflation_steps: 32,
        ..Default::default()
    };

    let mut expected: Vec<Vec<tauw_suite::core::tauw::TauwStep>> = Vec::new();
    for series in &streams {
        let mut session = tauw.new_adaptive_session(adaptive).unwrap();
        session.begin_series();
        expected.push(
            series
                .steps
                .iter()
                .map(|s| {
                    session
                        .step(
                            &s.quality_factors,
                            s.outcome,
                            s.outcome != series.true_outcome,
                        )
                        .unwrap()
                })
                .collect(),
        );
    }
    assert!(
        expected
            .iter()
            .flatten()
            .any(|s| s.adapted_uncertainty > s.uncertainty),
        "regime switch should inflate at least one served bound"
    );

    for shards in [1usize, 2, 7] {
        for threads in [1usize, 2, 8] {
            let mut engine = ShardedEngine::new(tauw.clone(), shards);
            engine.threads(threads);
            engine.enable_adaptation(adaptive).unwrap();
            let snap_at = window_len / 2;
            let reshard = (shards % 7) + 2;
            let mut resharded = ShardedEngine::new(tauw.clone(), reshard);
            resharded.threads(threads);
            resharded.enable_adaptation(adaptive).unwrap();
            let mut moved = false;
            let mut got: Vec<Vec<tauw_suite::core::tauw::TauwStep>> =
                vec![Vec::new(); streams.len()];
            for j in 0..window_len {
                if j == snap_at {
                    for state in engine.snapshot() {
                        resharded.restore(&state).unwrap();
                    }
                    moved = true;
                }
                let serving = if moved { &mut resharded } else { &mut engine };
                let mut positions = Vec::new();
                let mut batch = Vec::new();
                for (s, series) in streams.iter().enumerate() {
                    if let Some(step) = series.steps.get(j) {
                        positions.push(s);
                        batch.push(AdaptiveStreamStep::new(
                            id_of(s),
                            step.quality_factors.clone(),
                            step.outcome,
                            step.outcome != series.true_outcome,
                        ));
                    }
                }
                for (&s, out) in positions
                    .iter()
                    .zip(serving.step_many_adaptive(&batch).unwrap())
                {
                    got[s].push(out);
                }
            }
            assert!(moved);
            for (s, (want, have)) in expected.iter().zip(&got).enumerate() {
                assert_eq!(want.len(), have.len(), "stream {s} length");
                for (k, (w, h)) in want.iter().zip(have).enumerate() {
                    assert_eq!(
                        w.adapted_uncertainty.to_bits(),
                        h.adapted_uncertainty.to_bits(),
                        "stream {s} step {k} shards={shards}->{reshard} threads={threads}"
                    );
                    assert_eq!(
                        w, h,
                        "stream {s} step {k} shards={shards} threads={threads}"
                    );
                }
            }
        }
    }
}

#[test]
fn waves_above_the_precheck_fan_out_floor_match_sessions_and_reject_atomically() {
    // Waves of more than 4096 entries take the engine's fanned-out
    // precheck; the parallel primitive's floor keeps smaller waves on the
    // caller. Three shuffled waves over 7000 scattered stream ids, in
    // which streams step one to three times and new streams join at
    // scattered positions, must match one sequential session per stream
    // bit for bit: plain and adaptive, at K = 1/7 and thread budgets
    // 1/2/8. A wave with bad-arity entries in two different precheck
    // chunks must then report the earlier entry and change nothing. So
    // must a well-formed wave with new streams when it is adaptive on an
    // engine without adaptation, or overflows a per-shard cap.
    use tauw_suite::core::adaptive::{AdaptiveConfig, AdaptiveState};
    use tauw_suite::core::engine::{AdaptiveStreamStep, StreamId};
    use tauw_suite::core::error::CoreError;
    use tauw_suite::core::sharded::ShardedEngine;
    use tauw_suite::core::tauw::TauwStep;

    const STREAMS: u64 = 7000;
    const FLOOR: usize = 4096;
    let config = SimConfig::scaled(0.04);
    let data = DatasetBuilder::new(config, 31).unwrap().build();
    let mut wb = WrapperBuilder::new();
    wb.max_depth(6).calibration(CalibrationOptions {
        min_samples_per_leaf: 50,
        confidence: 0.99,
        ..Default::default()
    });
    let mut builder = TauwBuilder::new();
    builder.wrapper(wb);
    let tauw = builder
        .fit(
            QualityObservation::feature_names(),
            &convert(&data.train),
            &convert(&data.calib),
        )
        .unwrap();
    let arity = QualityObservation::feature_names().len();
    let adaptive_config = AdaptiveConfig {
        window: 8,
        min_observations: 4,
        rate: 0.05,
        max_inflation_steps: 32,
        ..Default::default()
    };

    // (quality factors, outcome, failed) of every test step.
    let pool: Vec<(Vec<f64>, u32, bool)> = convert(&data.test)
        .into_iter()
        .flat_map(|series| {
            let truth = series.true_outcome;
            series
                .steps
                .into_iter()
                .map(move |s| (s.quality_factors, s.outcome, s.outcome != truth))
        })
        .collect();
    // A bijection of `a` for every `b`, so `id_of` ids are distinct.
    let mix = |a: u64, b: u64| {
        let mut z = a.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ b.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z ^= z >> 31;
        z = z.wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 29)
    };
    let id_of = |s: u64| StreamId(mix(s, 0xD1CE));
    // Stream `s` joins in wave 0, 1 or 2 and then steps 1-3 times per
    // wave. Entries are `(stream, pool step)` in shuffled batch order.
    let waves: Vec<Vec<(u64, usize)>> = (0..3u64)
        .map(|w| {
            let mut entries = Vec::new();
            for s in (0..STREAMS).filter(|&s| [0, 0, 0, 1, 2][(mix(s, 1) % 5) as usize] <= w) {
                for c in 0..1 + mix(s, 10 + w) % 3 {
                    let pool_step = (mix(s * 4 + c, 30 + w) % pool.len() as u64) as usize;
                    entries.push((mix(s * 4 + c, 20 + w), s, pool_step));
                }
            }
            entries.sort_unstable();
            entries.into_iter().map(|(_, s, p)| (s, p)).collect()
        })
        .collect();
    assert!(waves.iter().all(|wave| wave.len() > FLOOR));
    assert!(waves[2].len() >= 3 * FLOOR, "{} entries", waves[2].len());

    let serve = |engine: &mut ShardedEngine,
                 wave: &[(u64, usize)],
                 features: &[Vec<f64>],
                 adaptive: bool| {
        if adaptive {
            let batch: Vec<AdaptiveStreamStep> = wave
                .iter()
                .zip(features)
                .map(|(&(s, p), q)| {
                    AdaptiveStreamStep::new(id_of(s), q.clone(), pool[p].1, pool[p].2)
                })
                .collect();
            engine.step_many_adaptive(&batch)
        } else {
            let batch: Vec<(StreamId, &[f64], u32)> = wave
                .iter()
                .zip(features)
                .map(|(&(s, p), q)| (id_of(s), q.as_slice(), pool[p].1))
                .collect();
            engine.step_many_borrowed(&batch)
        }
    };
    let features_of = |wave: &[(u64, usize)]| -> Vec<Vec<f64>> {
        wave.iter().map(|&(_, p)| pool[p].0.clone()).collect()
    };

    // The rejected wave: the last wave plus 64 new streams at scattered
    // positions, with a short entry early in the first precheck chunk and
    // a long one in the last chunk.
    let mut bad_wave = waves[2].clone();
    for k in 0..64 {
        let at = (mix(k, 40) % bad_wave.len() as u64) as usize;
        bad_wave.insert(at, (STREAMS + k, k as usize));
    }
    let mut bad_features = features_of(&bad_wave);
    let (early, late) = (1000, bad_wave.len() - 10);
    bad_features[early].pop();
    bad_features[late].push(0.5);

    let mut all_ids: Vec<StreamId> = (0..STREAMS).map(id_of).collect();
    all_ids.sort_unstable();
    for adaptive in [false, true] {
        let mut expected: Vec<Vec<TauwStep>> = Vec::new();
        if adaptive {
            let mut sessions: Vec<_> = (0..STREAMS)
                .map(|_| tauw.new_adaptive_session(adaptive_config).unwrap())
                .collect();
            for wave in &waves {
                expected.push(
                    wave.iter()
                        .map(|&(s, p)| {
                            let (q, outcome, failed) = &pool[p];
                            sessions[s as usize].step(q, *outcome, *failed).unwrap()
                        })
                        .collect(),
                );
            }
        } else {
            let mut sessions: Vec<_> = (0..STREAMS).map(|_| tauw.new_session()).collect();
            for wave in &waves {
                expected.push(
                    wave.iter()
                        .map(|&(s, p)| sessions[s as usize].step(&pool[p].0, pool[p].1).unwrap())
                        .collect(),
                );
            }
        }
        for shards in [1usize, 7] {
            for threads in [1usize, 2, 8] {
                let ctx = format!("adaptive={adaptive} shards={shards} threads={threads}");
                let mut engine = ShardedEngine::new(tauw.clone(), shards);
                engine.threads(threads);
                if adaptive {
                    engine.enable_adaptation(adaptive_config).unwrap();
                }
                for (w, (wave, want)) in waves.iter().zip(&expected).enumerate() {
                    let got = serve(&mut engine, wave, &features_of(wave), adaptive).unwrap();
                    assert_eq!(got.len(), want.len(), "{ctx} wave {w}");
                    for (k, (want, got)) in want.iter().zip(&got).enumerate() {
                        assert_eq!(
                            want.uncertainty.to_bits(),
                            got.uncertainty.to_bits(),
                            "{ctx} wave {w} entry {k}"
                        );
                        assert_eq!(
                            want.adapted_uncertainty.to_bits(),
                            got.adapted_uncertainty.to_bits(),
                            "{ctx} wave {w} entry {k}"
                        );
                        assert_eq!(want, got, "{ctx} wave {w} entry {k}");
                    }
                }
                assert_eq!(engine.stream_ids(), all_ids, "{ctx}");

                // Everything a rejected wave could touch: the live ids,
                // every stream's lifetime steps and adaptive state, and the
                // snapshot artifact bytes.
                let state_of = |engine: &ShardedEngine| {
                    let ids = engine.stream_ids();
                    let steps: Vec<Option<u64>> = ids
                        .iter()
                        .map(|&id| engine.stream_total_steps(id))
                        .collect();
                    let adaptive: Vec<Option<AdaptiveState>> = ids
                        .iter()
                        .map(|&id| engine.adaptive_state(id).cloned())
                        .collect();
                    let bytes: Vec<String> = engine
                        .snapshot()
                        .iter()
                        .map(|shard| shard.to_artifact_json().unwrap())
                        .collect();
                    (ids, steps, adaptive, bytes)
                };
                let before = state_of(&engine);
                assert_eq!(before.0, all_ids, "{ctx}");

                let err = serve(&mut engine, &bad_wave, &bad_features, adaptive).unwrap_err();
                assert!(
                    matches!(
                        err,
                        CoreError::FeatureArityMismatch { expected, actual }
                            if expected == arity && actual == arity - 1
                    ),
                    "{ctx}: {err}"
                );
                assert!(
                    state_of(&engine) == before,
                    "{ctx}: a wave rejected on arity changed the engine"
                );

                // A well-formed wave with new streams: adaptive on an
                // engine without adaptation, then past a per-shard cap
                // every shard already meets.
                let new_wave = &bad_wave;
                let new_features = features_of(new_wave);
                if !adaptive {
                    let err = serve(&mut engine, new_wave, &new_features, true).unwrap_err();
                    assert!(
                        err.to_string().contains("enable_adaptation"),
                        "{ctx}: {err}"
                    );
                    assert!(
                        state_of(&engine) == before,
                        "{ctx}: an adaptive wave without adaptation changed the engine"
                    );
                }
                let cap = (0..shards)
                    .map(|shard| engine.shard_n_streams(shard).unwrap())
                    .min()
                    .unwrap();
                engine.max_streams_per_shard(cap);
                let err = serve(&mut engine, new_wave, &new_features, adaptive).unwrap_err();
                assert!(
                    err.to_string().contains("admission rejected"),
                    "{ctx}: {err}"
                );
                assert!(
                    state_of(&engine) == before,
                    "{ctx}: a wave rejected on admission changed the engine"
                );
            }
        }
    }
}
