//! Property-based tests over the core invariants, spanning crates.

use proptest::prelude::*;
use tauw_suite::core::buffer::TimeseriesBuffer;
use tauw_suite::core::taqf::{TaqfSet, TaqfVector};
use tauw_suite::fusion::majority_vote;
use tauw_suite::fusion::uncertainty::UncertaintyFusion;
use tauw_suite::stats::binomial::{lower_bound, upper_bound, BoundMethod};
use tauw_suite::stats::brier::{brier_score, BrierDecomposition, Grouping};
use tauw_suite::stats::calibration::CalibrationCurve;
use tauw_suite::stats::descriptive::quantile;

fn outcome_seq() -> impl Strategy<Value = Vec<u32>> {
    prop::collection::vec(0u32..6, 1..30)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    // --- fusion ---

    #[test]
    fn majority_vote_returns_a_member(outcomes in outcome_seq()) {
        let fused = majority_vote(&outcomes).unwrap();
        prop_assert!(outcomes.contains(&fused));
    }

    #[test]
    fn majority_vote_respects_absolute_majority(
        winner in 0u32..6,
        loser in 0u32..6,
        n_win in 3usize..10,
    ) {
        prop_assume!(winner != loser);
        // winner occupies > half the slots, interleaved.
        let mut outcomes = Vec::new();
        for _ in 0..n_win {
            outcomes.push(winner);
        }
        for _ in 0..n_win - 1 {
            outcomes.push(loser);
        }
        prop_assert_eq!(majority_vote(&outcomes), Some(winner));
    }

    #[test]
    fn majority_vote_is_permutation_sensitive_only_for_ties(outcomes in outcome_seq()) {
        // Reversing the sequence can only change the result if there is a
        // tie in counts (tie-break is recency-based).
        let fused = majority_vote(&outcomes).unwrap();
        let mut rev = outcomes.clone();
        rev.reverse();
        let fused_rev = majority_vote(&rev).unwrap();
        let count = |v: &[u32], x: u32| v.iter().filter(|&&o| o == x).count();
        if fused != fused_rev {
            prop_assert_eq!(count(&outcomes, fused), count(&outcomes, fused_rev));
        }
    }

    #[test]
    fn uncertainty_fusion_ordering(u in prop::collection::vec(0.0f64..=1.0, 1..20)) {
        let naive = UncertaintyFusion::Naive.fuse(&u).unwrap();
        let opportune = UncertaintyFusion::Opportune.fuse(&u).unwrap();
        let worst = UncertaintyFusion::WorstCase.fuse(&u).unwrap();
        prop_assert!(naive <= opportune + 1e-15);
        prop_assert!(opportune <= worst + 1e-15);
        for v in [naive, opportune, worst] {
            prop_assert!((0.0..=1.0).contains(&v));
        }
    }

    #[test]
    fn uncertainty_fusion_is_prefix_monotone(u in prop::collection::vec(0.0f64..=1.0, 2..15)) {
        // Adding observations can only decrease naive/opportune and only
        // increase worst-case.
        let shorter = &u[..u.len() - 1];
        prop_assert!(
            UncertaintyFusion::Naive.fuse(&u).unwrap()
                <= UncertaintyFusion::Naive.fuse(shorter).unwrap() + 1e-15
        );
        prop_assert!(
            UncertaintyFusion::Opportune.fuse(&u).unwrap()
                <= UncertaintyFusion::Opportune.fuse(shorter).unwrap() + 1e-15
        );
        prop_assert!(
            UncertaintyFusion::WorstCase.fuse(&u).unwrap() + 1e-15
                >= UncertaintyFusion::WorstCase.fuse(shorter).unwrap()
        );
    }

    // --- taQF ---

    #[test]
    fn taqf_invariants(
        outcomes in outcome_seq(),
        raw_u in prop::collection::vec(0.0f64..=1.0, 30),
    ) {
        let mut buffer = TimeseriesBuffer::new();
        for (i, &o) in outcomes.iter().enumerate() {
            buffer.push(o, raw_u[i]);
        }
        let fused = majority_vote(&outcomes).unwrap();
        let taqf = TaqfVector::compute(&buffer, fused).unwrap();
        let n = outcomes.len() as f64;
        prop_assert!((0.0..=1.0).contains(&taqf.ratio));
        prop_assert_eq!(taqf.length, n);
        prop_assert!(taqf.unique_outcomes >= 1.0);
        prop_assert!(taqf.unique_outcomes <= n);
        prop_assert!(taqf.cumulative_certainty >= -1e-12);
        prop_assert!(taqf.cumulative_certainty <= taqf.ratio * n + 1e-9);
        // The fused outcome has at least one supporter (majority vote
        // returns a member), so ratio > 0.
        prop_assert!(taqf.ratio > 0.0);
    }

    #[test]
    fn taqf_subset_selection_is_consistent(mask in 0u8..16) {
        let kinds: Vec<_> = tauw_suite::core::taqf::TaqfKind::ALL
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, k)| *k)
            .collect();
        let set = TaqfSet::from_kinds(&kinds);
        prop_assert_eq!(set.len(), kinds.len());
        let mut buffer = TimeseriesBuffer::new();
        buffer.push(1, 0.25);
        buffer.push(2, 0.5);
        let taqf = TaqfVector::compute(&buffer, 2).unwrap();
        let selected = set.select(&taqf);
        prop_assert_eq!(selected.len(), set.len());
        for (value, kind) in selected.iter().zip(set.kinds()) {
            prop_assert_eq!(*value, taqf.get(kind));
        }
    }

    // --- timeseries buffer: incremental aggregates vs full recompute ---

    #[test]
    fn buffer_incremental_aggregates_match_full_recompute(
        // op < 12 pushes (outcome, uncertainty); op == 12 clears — so
        // arbitrary interleavings of push/evict/clear are covered.
        // Uncertainties straddle [0, 1] to exercise the push clamping.
        ops in prop::collection::vec(
            (0u8..=12, 0u32..5, -0.2f64..=1.2),
            1..100,
        ),
    ) {
        // Bounded (incl. the degenerate capacity-1 window) and unbounded.
        for capacity in [None, Some(1usize), Some(2), Some(5)] {
            let mut buffer = match capacity {
                Some(cap) => TimeseriesBuffer::bounded(cap),
                None => TimeseriesBuffer::new(),
            };
            // Shadow model: a plain Vec of the whole series + a lifetime
            // counter; the window is its suffix.
            let mut model: Vec<(u32, f64)> = Vec::new();
            for &(op, outcome, uncertainty) in &ops {
                if op == 12 {
                    buffer.clear();
                    model.clear();
                } else {
                    buffer.push(outcome, uncertainty);
                    model.push((outcome, uncertainty.clamp(0.0, 1.0)));
                }
                // Window contents and counters match the model.
                let window: Vec<(u32, f64)> = match capacity {
                    Some(cap) => model[model.len().saturating_sub(cap)..].to_vec(),
                    None => model.clone(),
                };
                prop_assert_eq!(buffer.total_steps() as usize, model.len());
                prop_assert_eq!(buffer.len(), window.len());
                let zipped: Vec<(u32, f64)> =
                    buffer.iter().map(|e| (e.outcome, e.uncertainty)).collect();
                prop_assert_eq!(&zipped, &window);

                if window.is_empty() {
                    prop_assert!(buffer.fused_outcome().is_none());
                    prop_assert!(TaqfVector::compute(&buffer, 0).is_none());
                    continue;
                }
                // Incremental fusion == the O(window) majority-vote scan.
                let fused = buffer.fused_outcome().unwrap();
                prop_assert_eq!(Some(fused), buffer.fused_outcome_reference());
                // Incremental taQFs == the O(window) recompute, bit for
                // bit, for the fused outcome and for absent classes alike.
                for probe in [fused, 0, 4, 99] {
                    let fast = TaqfVector::compute(&buffer, probe).unwrap();
                    let slow = TaqfVector::compute_reference(&buffer, probe).unwrap();
                    prop_assert_eq!(fast.ratio.to_bits(), slow.ratio.to_bits());
                    prop_assert_eq!(fast.length.to_bits(), slow.length.to_bits());
                    prop_assert_eq!(
                        fast.unique_outcomes.to_bits(),
                        slow.unique_outcomes.to_bits()
                    );
                    prop_assert_eq!(
                        fast.cumulative_certainty.to_bits(),
                        slow.cumulative_certainty.to_bits()
                    );
                }
                // taQF2 is the lifetime length; taQF1/3/4 are windowed.
                let t = TaqfVector::compute(&buffer, fused).unwrap();
                prop_assert_eq!(t.length, model.len() as f64);
                let agree = window.iter().filter(|(o, _)| *o == fused).count();
                prop_assert_eq!(t.ratio, agree as f64 / window.len() as f64);
            }
        }
    }

    // --- adaptive calibration: incremental coverage vs full recompute ---

    #[test]
    fn adaptive_incremental_coverage_matches_reference_recompute(
        // op < 12 observes (failed?, served bound); op == 12 resets the
        // adaptation — so arbitrary interleavings of observe/evict/reset
        // (including mid-run regime switches, since `failed` is free per
        // op) are covered. Served bounds straddle [0, 1] to exercise the
        // coverage ring's push clamping.
        ops in prop::collection::vec(
            (0u8..=12, prop::bool::ANY, -0.2f64..=1.2),
            1..120,
        ),
        window in 1usize..8,
        rate_millis in 1u32..=1000,
    ) {
        use tauw_suite::core::adaptive::{AdaptiveConfig, AdaptiveState};

        let config = AdaptiveConfig {
            window,
            min_observations: (window / 2).max(1),
            rate: f64::from(rate_millis) / 1000.0,
            ..Default::default()
        };
        // Twin states: one driven by the O(1) incremental aggregates, one
        // by the O(window) reference recompute. They must stay bitwise
        // identical through every interleaving.
        let mut fast = AdaptiveState::new(config).unwrap();
        let mut slow = AdaptiveState::new(config).unwrap();
        for &(op, failed, bound) in &ops {
            if op == 12 {
                fast.reset();
                slow.reset();
            } else {
                fast.observe(bound, failed);
                slow.observe_reference(bound, failed);
            }
            let a = fast.coverage();
            let b = fast.coverage_reference();
            prop_assert_eq!(a.observations, b.observations);
            prop_assert_eq!(a.failures, b.failures);
            prop_assert_eq!(a.promised_failure_units, b.promised_failure_units);
            prop_assert_eq!(slow.coverage(), slow.coverage_reference());
            prop_assert_eq!(fast.inflation_steps(), slow.inflation_steps());
            prop_assert_eq!(
                fast.adapted_bound(0.37).to_bits(),
                slow.adapted_bound(0.37).to_bits()
            );
            prop_assert_eq!(&fast, &slow);
            // The exact-integer coverage invariants hold along the way.
            prop_assert!(a.observations <= window);
            prop_assert!(a.failures <= a.observations);
            prop_assert!(
                a.promised_failure_units
                    <= (a.observations as u128) << 53
            );
            prop_assert!(
                fast.inflation_steps() <= config.max_inflation_steps
            );
        }
    }

    // --- binomial bounds ---

    #[test]
    fn bounds_bracket_the_point_estimate(
        failures in 0u64..200,
        extra in 1u64..500,
        // Bayesian bounds (Jeffreys) are posterior quantiles and can sit
        // below the MLE at low confidence; the bracketing property is only
        // claimed for the high-confidence regime wrappers actually use.
        confidence in 0.9f64..0.9999,
    ) {
        let trials = failures + extra;
        let p_hat = failures as f64 / trials as f64;
        for method in BoundMethod::ALL {
            let up = upper_bound(method, failures, trials, confidence).unwrap();
            let lo = lower_bound(method, failures, trials, confidence).unwrap();
            prop_assert!(up + 1e-12 >= p_hat, "{method}: upper {up} < point {p_hat}");
            prop_assert!(lo <= p_hat + 1e-12, "{method}: lower {lo} > point {p_hat}");
            prop_assert!((0.0..=1.0).contains(&up));
            prop_assert!((0.0..=1.0).contains(&lo));
        }
    }

    #[test]
    fn clopper_pearson_tightens_with_data(
        rate_num in 0u64..10,
        confidence in 0.9f64..0.999,
    ) {
        // Same empirical rate, 10x the data: the bound must shrink.
        let small = upper_bound(BoundMethod::ClopperPearson, rate_num, 100, confidence).unwrap();
        let large =
            upper_bound(BoundMethod::ClopperPearson, rate_num * 10, 1000, confidence).unwrap();
        prop_assert!(large <= small + 1e-12);
    }

    // --- Brier / calibration ---

    #[test]
    fn murphy_identity_on_random_data(
        values in prop::collection::vec((0.0f64..=1.0, prop::bool::ANY), 2..200),
    ) {
        let forecasts: Vec<f64> = values.iter().map(|(f, _)| *f).collect();
        let failures: Vec<bool> = values.iter().map(|(_, y)| *y).collect();
        let d = BrierDecomposition::compute(
            &forecasts,
            &failures,
            Grouping::UniqueValues { tolerance: 0.0 },
        )
        .unwrap();
        prop_assert!(d.within_group_residual.abs() < 1e-9);
        prop_assert!(d.brier >= -1e-12);
        prop_assert!(d.resolution >= -1e-12);
        prop_assert!(d.unreliability >= -1e-12);
        prop_assert!((d.overconfidence + d.underconfidence - d.unreliability).abs() < 1e-12);
        let plain = brier_score(&forecasts, &failures).unwrap();
        prop_assert!((plain - d.brier).abs() < 1e-12);
    }

    #[test]
    fn calibration_curve_partitions_all_cases(
        values in prop::collection::vec((0.0f64..=1.0, prop::bool::ANY), 10..300),
        bins in 1usize..12,
    ) {
        let u: Vec<f64> = values.iter().map(|(f, _)| *f).collect();
        let y: Vec<bool> = values.iter().map(|(_, v)| *v).collect();
        let curve = CalibrationCurve::from_uncertainties(&u, &y, bins).unwrap();
        let total: usize = curve.points.iter().map(|p| p.count).sum();
        prop_assert_eq!(total, values.len());
        prop_assert!(curve.points.len() <= bins.max(1));
        prop_assert!(curve.ece() <= 1.0 + 1e-12);
        prop_assert!(curve.mce() <= 1.0 + 1e-12);
        prop_assert!(curve.ece() <= curve.mce() + 1e-12);
    }

    // --- descriptive ---

    #[test]
    fn quantiles_are_monotone_and_bounded(
        xs in prop::collection::vec(-1e6f64..1e6, 1..100),
        q1 in 0.0f64..=1.0,
        q2 in 0.0f64..=1.0,
    ) {
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        let v_lo = quantile(&xs, lo).unwrap();
        let v_hi = quantile(&xs, hi).unwrap();
        prop_assert!(v_lo <= v_hi);
        let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(v_lo >= min - 1e-9 && v_hi <= max + 1e-9);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    // --- decision trees (heavier cases, fewer iterations) ---

    #[test]
    fn tree_predictions_are_valid_classes(
        rows in prop::collection::vec(
            (0.0f64..1.0, 0.0f64..1.0, 0u32..3),
            20..200,
        ),
        depth in 1usize..6,
    ) {
        use tauw_suite::dtree::{Dataset, TreeBuilder};
        let mut ds = Dataset::new(vec!["a".into(), "b".into()], 3).unwrap();
        for (a, b, label) in &rows {
            ds.push_row(&[*a, *b], *label).unwrap();
        }
        let tree = TreeBuilder::new().max_depth(depth).fit(&ds).unwrap();
        prop_assert!(tree.depth() <= depth);
        for (a, b, _) in rows.iter().take(50) {
            let class = tree.predict(&[*a, *b]).unwrap();
            prop_assert!(class < 3);
            let proba = tree.predict_proba(&[*a, *b]).unwrap();
            let sum: f64 = proba.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-9);
        }
        // Training counts are conserved at every level.
        let root = tree.node(0);
        prop_assert_eq!(root.info.n as usize, rows.len());
    }

    #[test]
    fn tree_predictions_invariant_under_sample_permutation(
        rows in prop::collection::vec(
            (0.0f64..1.0, 0.0f64..1.0, 0u32..3),
            20..150,
        ),
        perm_seed in 0u64..u64::MAX,
        depth in 1usize..6,
    ) {
        use tauw_suite::dtree::{Dataset, TreeBuilder};
        // Deterministic Fisher–Yates shuffle from the generated seed.
        let mut permuted = rows.clone();
        let mut state = perm_seed | 1;
        for i in (1..permuted.len()).rev() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let j = (state >> 33) as usize % (i + 1);
            permuted.swap(i, j);
        }
        let build = |data: &[(f64, f64, u32)]| {
            let mut ds = Dataset::new(vec!["a".into(), "b".into()], 3).unwrap();
            for (a, b, label) in data {
                ds.push_row(&[*a, *b], *label).unwrap();
            }
            TreeBuilder::new().max_depth(depth).fit(&ds).unwrap()
        };
        let original = build(&rows);
        let shuffled = build(&permuted);
        // CART training is a function of the sample *multiset*: split
        // search sorts per feature and class counts are order-free, so the
        // trained trees — and thus all predictions — must coincide exactly.
        prop_assert_eq!(&original, &shuffled);
        for (a, b, _) in rows.iter().take(30) {
            prop_assert_eq!(
                original.predict_proba(&[*a, *b]).unwrap(),
                shuffled.predict_proba(&[*a, *b]).unwrap()
            );
        }
    }

    #[test]
    fn every_leaf_respects_min_samples_leaf(
        rows in prop::collection::vec((0.0f64..1.0, 0.0f64..1.0, 0u32..2), 10..200),
        min_leaf in 1usize..20,
        depth in 1usize..8,
    ) {
        use tauw_suite::dtree::{Dataset, NodeKind, TreeBuilder};
        let mut ds = Dataset::new(vec!["a".into(), "b".into()], 2).unwrap();
        for (a, b, label) in &rows {
            ds.push_row(&[*a, *b], *label).unwrap();
        }
        let tree = TreeBuilder::new()
            .max_depth(depth)
            .min_samples_leaf(min_leaf)
            .fit(&ds)
            .unwrap();
        for leaf in tree.leaf_ids() {
            let node = tree.node(leaf);
            // The root may hold fewer samples than `min_samples_leaf` (an
            // unsplit tiny dataset); every leaf *created by a split* must
            // respect the bound.
            if leaf != 0 {
                prop_assert!(
                    node.info.n >= min_leaf as u64,
                    "leaf {leaf} holds {} < min_samples_leaf {min_leaf}", node.info.n
                );
            }
        }
        // And the structural invariant that makes that check meaningful:
        // internal nodes route every sample to exactly one child.
        for id in 0..tree.n_nodes() {
            if let NodeKind::Internal { left, right, .. } = tree.node(id).kind {
                prop_assert_eq!(
                    tree.node(id).info.n,
                    tree.node(left).info.n + tree.node(right).info.n
                );
            }
        }
    }

    #[test]
    fn flat_tree_matches_pointer_tree_on_random_trees(
        // Row counts start at 1 so degenerate trees (a single row, or a
        // pure root) flatten to a single-leaf FlatTree and still agree.
        rows in prop::collection::vec(
            (0.0f64..1.0, 0.0f64..1.0, 0u32..3),
            1..200,
        ),
        queries in prop::collection::vec((0.0f64..1.0, 0.0f64..1.0), 1..30),
        depth in 1usize..7,
        min_leaf in 1usize..10,
    ) {
        use tauw_suite::dtree::{Dataset, FlatTree, TreeBuilder};
        let mut ds = Dataset::new(vec!["a".into(), "b".into()], 3).unwrap();
        for (a, b, label) in &rows {
            ds.push_row(&[*a, *b], *label).unwrap();
        }
        let tree = TreeBuilder::new()
            .max_depth(depth)
            .min_samples_leaf(min_leaf)
            .fit(&ds)
            .unwrap();
        let flat = FlatTree::from_tree(&tree);

        // Structure: dense depth-first leaf ids covering exactly the
        // pointer tree's reachable leaves.
        prop_assert_eq!(flat.n_leaves(), tree.n_leaves());
        prop_assert_eq!(
            flat.leaf_nodes(),
            tree.leaf_ids()
        );

        // Per-query routing to the pointer tree's leaf.
        for (a, b) in &queries {
            let q = [*a, *b];
            let lid = flat.predict_leaf_id(&q).unwrap();
            prop_assert_eq!(flat.leaf_node(lid), tree.leaf_id(&q).unwrap());
        }
    }

    #[test]
    fn threaded_leaf_routing_matches_per_sample_routing_bitwise(
        // Row counts start at 1 so degenerate single-leaf trees are
        // covered; the query mask injects NaN features (bit 0 poisons
        // `a`, bit 1 poisons `b`) to exercise the route-right rule.
        rows in prop::collection::vec(
            (0.0f64..1.0, 0.0f64..1.0, 0u32..3),
            1..150,
        ),
        queries in prop::collection::vec(
            (0.0f64..1.0, 0.0f64..1.0, 0u8..4),
            1..40,
        ),
        depth in 1usize..7,
        k in 1usize..5,
        seed in 0u64..u64::MAX,
    ) {
        use tauw_suite::dtree::{Dataset, FlatTree, ForestBuilder, TreeBuilder};
        let mut ds = Dataset::new(vec!["a".into(), "b".into()], 3).unwrap();
        for (a, b, label) in &rows {
            ds.push_row(&[*a, *b], *label).unwrap();
        }
        let tree = TreeBuilder::new().max_depth(depth).fit(&ds).unwrap();
        let flat = FlatTree::from_tree(&tree);
        let mut builder = ForestBuilder::new(k, seed);
        builder.tree(TreeBuilder::new().max_depth(depth).clone());
        let forest = builder.fit(&ds).unwrap();
        let members: Vec<FlatTree> = forest.trees().iter().map(FlatTree::from_tree).collect();

        let query_rows: Vec<Vec<f64>> = queries
            .iter()
            .map(|(a, b, mask)| {
                vec![
                    if mask & 1 != 0 { f64::NAN } else { *a },
                    if mask & 2 != 0 { f64::NAN } else { *b },
                ]
            })
            .collect();

        // The lowered tree and every lowered member of the thread-fanned
        // forest fit route exactly like their pointer trees.
        prop_assert_eq!(members.len(), k);
        for q in &query_rows {
            let leaf = flat.predict_leaf_id(q).unwrap();
            prop_assert_eq!(flat.leaf_node(leaf), tree.leaf_id(q).unwrap());
            for (member, pointer) in members.iter().zip(forest.trees()) {
                let leaf = member.predict_leaf_id(q).unwrap();
                prop_assert_eq!(member.leaf_node(leaf), pointer.leaf_id(q).unwrap());
            }
        }
    }

    #[test]
    fn forest_qim_degenerates_to_the_single_tree_path_at_k1(
        // The one-member model serves through its tree's flat walk: bound
        // and support equal, bit for bit, the pointer reference, member 0's
        // bound table at the flat leaf id and that leaf's calibration
        // record, on finite, NaN and ±inf features (mask 1 = NaN, 2 =
        // +inf, 3 = -inf).
        rows in prop::collection::vec((0.0f64..1.0, prop::bool::ANY), 60..200),
        queries in prop::collection::vec((0.0f64..1.0, 0u8..4), 1..20),
        depth in 1usize..5,
    ) {
        use tauw_suite::core::calibration::{CalibratedForestQim, CalibrationOptions};
        use tauw_suite::dtree::{Dataset, Forest, TreeBuilder};
        let mut ds = Dataset::new(vec!["x".into()], 2).unwrap();
        for (x, failed) in &rows {
            ds.push_row(&[*x], u32::from(*failed)).unwrap();
        }
        let tree = TreeBuilder::new().max_depth(depth).fit(&ds).unwrap();
        let calib: Vec<(Vec<f64>, bool)> =
            rows.iter().map(|(x, failed)| (vec![*x], *failed)).collect();
        let options = CalibrationOptions {
            min_samples_per_leaf: 20,
            confidence: 0.95,
            ..Default::default()
        };
        let backend = TaQim::Forest(
            CalibratedForestQim::calibrate(Forest::from_trees(vec![tree]).unwrap(), &calib, options)
                .unwrap(),
        );
        let qim = backend.as_forest().unwrap();
        prop_assert_eq!(qim.n_trees(), 1);
        let flat = &qim.flat()[0];
        for (x, mask) in &queries {
            let q = [match mask {
                1 => f64::NAN,
                2 => f64::INFINITY,
                3 => f64::NEG_INFINITY,
                _ => *x,
            }];
            let leaf = flat.predict_leaf_id(&q).unwrap();
            let bound = qim.leaf_bounds()[0][leaf as usize];
            let record = qim.calibrated_leaf(0, flat.leaf_node(leaf)).unwrap();
            let (served, support) = backend.uncertainty_with_support(&q).unwrap();
            prop_assert_eq!(served.to_bits(), bound.to_bits());
            prop_assert_eq!(qim.uncertainty(&q).unwrap().to_bits(), bound.to_bits());
            prop_assert_eq!(qim.uncertainty_reference(&q).unwrap().to_bits(), bound.to_bits());
            prop_assert_eq!(record.uncertainty_bound.to_bits(), bound.to_bits());
            prop_assert_eq!(support, RouteSupport::Samples(record.total));
        }
        // The served floor is the single tree's: its smallest leaf bound.
        let min_leaf = qim.leaf_bounds()[0].iter().copied().fold(1.0, f64::min);
        prop_assert_eq!(qim.min_uncertainty().to_bits(), min_leaf.to_bits());
    }

    #[test]
    fn forest_uncertainty_is_permutation_invariant_in_tree_order(
        rows in prop::collection::vec((0.0f64..1.0, prop::bool::ANY), 60..200),
        queries in prop::collection::vec(0.0f64..1.0, 1..20),
        k in 2usize..6,
        seed in 0u64..u64::MAX,
        perm_seed in 0u64..u64::MAX,
    ) {
        use tauw_suite::core::calibration::{CalibratedForestQim, CalibrationOptions};
        use tauw_suite::dtree::{Dataset, Forest, ForestBuilder, TreeBuilder};
        let mut ds = Dataset::new(vec!["x".into()], 2).unwrap();
        for (x, failed) in &rows {
            ds.push_row(&[*x], u32::from(*failed)).unwrap();
        }
        let mut builder = ForestBuilder::new(k, seed);
        builder.tree(TreeBuilder::new().max_depth(4).clone());
        let forest = builder.fit(&ds).unwrap();

        // Deterministic Fisher–Yates shuffle of the member order.
        let mut permuted = forest.trees().to_vec();
        let mut state = perm_seed | 1;
        for i in (1..permuted.len()).rev() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let j = (state >> 33) as usize % (i + 1);
            permuted.swap(i, j);
        }

        let calib: Vec<(Vec<f64>, bool)> =
            rows.iter().map(|(x, failed)| (vec![*x], *failed)).collect();
        let options = CalibrationOptions {
            min_samples_per_leaf: 20,
            confidence: 0.95,
            ..Default::default()
        };
        let in_order = CalibratedForestQim::calibrate(
            Forest::from_trees(forest.trees().to_vec()).unwrap(),
            &calib,
            options,
        )
        .unwrap();
        let shuffled = CalibratedForestQim::calibrate(
            Forest::from_trees(permuted).unwrap(),
            &calib,
            options,
        )
        .unwrap();
        // The canonical member order makes the calibrated model — and
        // therefore every served mean, bit for bit — independent of the
        // order the trees were supplied in.
        prop_assert_eq!(&in_order, &shuffled);
        in_order.validate().unwrap();
        for x in &queries {
            let q = [*x];
            let a = in_order.uncertainty(&q).unwrap();
            let b = shuffled.uncertainty(&q).unwrap();
            prop_assert_eq!(a.to_bits(), b.to_bits());
            // Serving path == pointer-member reference recompute.
            prop_assert_eq!(
                a.to_bits(),
                in_order.uncertainty_reference(&q).unwrap().to_bits()
            );
            prop_assert!((0.0..=1.0).contains(&a));
        }
    }

    #[test]
    fn backend_seam_per_sample_and_reference_agree_bitwise(
        // The seam contract, checked for every serving route (one-member
        // forest, forest, conformal): the per-sample `uncertainty` path and the
        // `uncertainty_reference` recompute are bitwise identical under
        // NaN-injected queries (bit 0 of the mask poisons the feature),
        // support has the shape's kind, the served floor holds on the
        // calibration set, and a wrong arity is an `Err`.
        rows in prop::collection::vec((0.0f64..1.0, prop::bool::ANY), 60..200),
        queries in prop::collection::vec((0.0f64..1.0, 0u8..2), 1..30),
        depth in 1usize..5,
        k in 1usize..4,
        bins in 2usize..24,
        seed in 0u64..u64::MAX,
    ) {
        let backends = seam_backends(&rows, depth, k, bins, seed);
        let query_rows: Vec<Vec<f64>> = queries
            .iter()
            .map(|(x, mask)| vec![if mask & 1 != 0 { f64::NAN } else { *x }])
            .collect();
        for backend in &backends {
            backend.validate().unwrap();
            for q in &query_rows {
                let u = backend.uncertainty(q).unwrap();
                prop_assert!((0.0..=1.0).contains(&u));
                prop_assert_eq!(
                    u.to_bits(),
                    backend.uncertainty_reference(q).unwrap().to_bits()
                );
                match backend.route_support(q).unwrap() {
                    RouteSupport::Samples(n) => prop_assert!(backend.as_conformal().is_none() && n >= 1),
                    RouteSupport::Unsupported => prop_assert!(backend.as_conformal().is_some()),
                }
            }
            for (x, _) in &rows {
                prop_assert!(backend.min_uncertainty() <= backend.uncertainty(&[*x]).unwrap());
            }
            prop_assert!(backend.uncertainty(&[0.1, 0.2]).is_err());
            prop_assert!(backend.route_support(&[0.1, 0.2]).is_err());
        }
    }

    #[test]
    fn fused_lookup_matches_bound_and_support_bitwise(
        // The adaptive step's single traversal must equal the bound-only
        // lookup and the standalone support lookup, bit for bit, for every
        // shape — forests at K = 1, 4 and 16 — on finite, NaN and ±inf
        // features (mask 1 = NaN, 2 = +inf, 3 = -inf).
        rows in prop::collection::vec((0.0f64..1.0, prop::bool::ANY), 60..200),
        queries in prop::collection::vec((-0.5f64..1.5, 0u8..4), 1..30),
        depth in 1usize..5,
        k_index in 0usize..3,
        bins in 2usize..24,
        seed in 0u64..u64::MAX,
    ) {
        let k = [1usize, 4, 16][k_index];
        let backends = seam_backends(&rows, depth, k, bins, seed);
        for (x, mask) in &queries {
            let q = [match mask {
                1 => f64::NAN,
                2 => f64::INFINITY,
                3 => f64::NEG_INFINITY,
                _ => *x,
            }];
            for backend in &backends {
                let (bound, support) = backend.uncertainty_with_support(&q).unwrap();
                prop_assert_eq!(bound.to_bits(), backend.uncertainty(&q).unwrap().to_bits());
                prop_assert_eq!(support, backend.route_support(&q).unwrap());
                prop_assert_eq!(support, support_reference(backend, &q));
            }
        }
        for backend in &backends {
            prop_assert!(backend.uncertainty_with_support(&[0.1, 0.2]).is_err());
        }
    }

    #[test]
    fn lockstep_forest_kernel_matches_the_per_member_walk_bitwise(
        // Forests of K = 1, 7, 8, 9, 16 or 17 members, so single, partial
        // and multiple lane blocks all occur, over 3-6 features. Member
        // depths are drawn from 0..=8 (a depth-0 member is a root leaf);
        // from K = 2 on, one member is a root leaf and one has depth 8.
        // Each query starts from a calibration row or a fresh value per
        // feature, and two mask bits per feature put NaN (1), +inf (2) or
        // -inf (3) there.
        n_rows in 300usize..600,
        n_features in 3usize..7,
        k_index in 0usize..6,
        depths in prop::collection::vec(0usize..9, 17),
        queries in prop::collection::vec((0usize..400, 0u32..4096, -0.5f64..1.5), 1..40),
        seed in 0u64..u64::MAX,
    ) {
        use tauw_suite::core::calibration::{CalibratedForestQim, CalibrationOptions};
        use tauw_suite::dtree::{Dataset, Forest, TreeBuilder};
        let k = [1usize, 7, 8, 9, 16, 17][k_index];
        let mut state = seed;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let rows: Vec<(Vec<f64>, bool)> = (0..n_rows)
            .map(|_| {
                let x: Vec<f64> = (0..n_features).map(|_| next()).collect();
                let failed = (x[0] + x[n_features - 1] > 1.0) ^ (next() < 0.15);
                (x, failed)
            })
            .collect();
        let names: Vec<String> = (0..n_features).map(|f| format!("f{f}")).collect();
        let trees = (0..k)
            .map(|t| {
                // Each member trains on its own two-thirds of the rows.
                let mut ds = Dataset::new(names.clone(), 2).unwrap();
                for (i, (x, failed)) in rows.iter().enumerate() {
                    if (i + t) % 3 != 0 {
                        ds.push_row(x, u32::from(*failed)).unwrap();
                    }
                }
                let depth = match t {
                    0 if k > 1 => 0,
                    1 => 8,
                    _ => depths[t],
                };
                TreeBuilder::new().max_depth(depth).fit(&ds).unwrap()
            })
            .collect();
        let options = CalibrationOptions {
            min_samples_per_leaf: 2,
            confidence: 0.95,
            ..Default::default()
        };
        let qim = CalibratedForestQim::calibrate(
            Forest::from_trees(trees).unwrap(),
            &rows,
            options,
        )
        .unwrap();
        prop_assert_eq!(qim.n_trees(), k);
        let backend = TaQim::Forest(qim);
        let qim = backend.as_forest().unwrap();

        for (row, mask, fresh) in &queries {
            let base = &rows[row % n_rows].0;
            let q: Vec<f64> = (0..n_features)
                .map(|f| match (mask >> (2 * f)) & 3 {
                    1 => f64::NAN,
                    2 => f64::INFINITY,
                    3 => f64::NEG_INFINITY,
                    _ if (row + f) % 2 == 0 => base[f],
                    _ => fresh + f as f64 / 8.0,
                })
                .collect();
            // The per-member walk: each flat member on its own, bounds
            // summed in member order, supports folded by minimum.
            let mut sum = 0.0;
            let mut support = u64::MAX;
            for t in 0..k {
                let member = &qim.flat()[t];
                let leaf = member.predict_leaf_id(&q).unwrap();
                sum += qim.leaf_bounds()[t][leaf as usize];
                let node = member.leaf_node(leaf);
                support = support.min(qim.calibrated_leaf(t, node).unwrap().total);
            }
            let (bound, served_support) = backend.uncertainty_with_support(&q).unwrap();
            prop_assert_eq!(bound.to_bits(), (sum / k as f64).to_bits());
            prop_assert_eq!(bound.to_bits(), qim.uncertainty_reference(&q).unwrap().to_bits());
            prop_assert_eq!(served_support, RouteSupport::Samples(support));
            prop_assert_eq!(qim.uncertainty(&q).unwrap().to_bits(), bound.to_bits());
        }
    }

    #[test]
    fn tree_routing_agrees_with_decision_path(
        rows in prop::collection::vec((0.0f64..1.0, 0u32..2), 30..120),
        queries in prop::collection::vec(0.0f64..1.0, 1..20),
    ) {
        use tauw_suite::dtree::{Dataset, TreeBuilder};
        let mut ds = Dataset::new(vec!["x".into()], 2).unwrap();
        for (x, label) in &rows {
            ds.push_row(&[*x], *label).unwrap();
        }
        let tree = TreeBuilder::new().max_depth(5).fit(&ds).unwrap();
        for q in queries {
            let leaf = tree.leaf_id(&[q]).unwrap();
            let path = tree.decision_path(&[q]).unwrap();
            prop_assert_eq!(*path.last().unwrap(), leaf);
            prop_assert_eq!(path[0], 0);
        }
    }
}

use tauw_suite::core::calibration::{RouteSupport, TaQim};

/// One calibrated model per serving route over a single feature `x`: the
/// tree at `depth` as a one-member forest, a `k`-member forest from `seed`,
/// and a conformal model with `bins` cells, all calibrated on `rows`.
fn seam_backends(
    rows: &[(f64, bool)],
    depth: usize,
    k: usize,
    bins: usize,
    seed: u64,
) -> [TaQim; 3] {
    use tauw_suite::core::calibration::{CalibratedForestQim, CalibrationOptions};
    use tauw_suite::core::conformal::{ConformalOptions, ConformalQim};
    use tauw_suite::dtree::{Dataset, Forest, ForestBuilder, TreeBuilder};
    let mut ds = Dataset::new(vec!["x".into()], 2).unwrap();
    for (x, failed) in rows {
        ds.push_row(&[*x], u32::from(*failed)).unwrap();
    }
    let calib: Vec<(Vec<f64>, bool)> = rows.iter().map(|(x, failed)| (vec![*x], *failed)).collect();
    let options = CalibrationOptions {
        min_samples_per_leaf: 20,
        confidence: 0.95,
        ..Default::default()
    };
    let tree = TreeBuilder::new().max_depth(depth).fit(&ds).unwrap();
    let tree =
        CalibratedForestQim::calibrate(Forest::from_trees(vec![tree]).unwrap(), &calib, options)
            .unwrap();
    let mut builder = ForestBuilder::new(k, seed);
    builder.tree(TreeBuilder::new().max_depth(depth).clone());
    let forest =
        CalibratedForestQim::calibrate(builder.fit(&ds).unwrap(), &calib, options).unwrap();
    let conformal =
        ConformalQim::calibrate(&calib, &calib, options, ConformalOptions { bins }).unwrap();
    [
        TaQim::Forest(tree),
        TaQim::Forest(forest),
        TaQim::Conformal(conformal),
    ]
}

/// The calibration support behind `backend`'s bound for `q`, recomputed
/// member by member from the public routing and calibration records —
/// independent of the fused lookup.
fn support_reference(backend: &TaQim, q: &[f64]) -> RouteSupport {
    match backend {
        TaQim::Forest(qim) => RouteSupport::Samples(
            (0..qim.n_trees())
                .map(|t| {
                    let tree = &qim.flat()[t];
                    let node = tree.leaf_node(tree.predict_leaf_id(q).unwrap());
                    qim.calibrated_leaf(t, node).unwrap().total
                })
                .min()
                .unwrap(),
        ),
        TaQim::Conformal(_) => RouteSupport::Unsupported,
    }
}

// --- sharded serving ---

/// `n` one-factor training series: a quality reading `q` per series and
/// outcomes from `{3, 7}` that fail more often at high `q`, drawn from an
/// LCG seeded by `seed`.
fn one_factor_series(n: usize, seed: u64) -> Vec<tauw_suite::core::training::TrainingSeries> {
    use tauw_suite::core::training::{TrainingSeries, TrainingStep};
    let mut state = seed
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..n)
        .map(|_| {
            let q = next();
            let bias = if next() < 0.5 { 1.3 } else { 0.5 };
            let steps = (0..10)
                .map(|_| TrainingStep {
                    quality_factors: vec![q],
                    outcome: if next() < (q * bias).min(0.95) { 3 } else { 7 },
                })
                .collect();
            TrainingSeries {
                true_outcome: 7,
                steps,
            }
        })
        .collect()
}

/// A small one-factor wrapper over [`one_factor_series`] with the given
/// taQIM backend.
fn one_factor_wrapper(
    backend: tauw_suite::core::tauw::BackendSpec,
) -> tauw_suite::core::tauw::TimeseriesAwareWrapper {
    use tauw_suite::core::calibration::CalibrationOptions;
    use tauw_suite::core::tauw::TauwBuilder;
    use tauw_suite::core::wrapper::WrapperBuilder;
    let mut wb = WrapperBuilder::new();
    wb.max_depth(3).calibration(CalibrationOptions {
        min_samples_per_leaf: 50,
        confidence: 0.99,
        ..Default::default()
    });
    let mut builder = TauwBuilder::new();
    builder.wrapper(wb).backend(backend);
    builder
        .fit(
            vec!["q".into()],
            &one_factor_series(300, 1),
            &one_factor_series(300, 2),
        )
        .expect("one-factor proptest fixture fits")
}

/// One small trained wrapper shared by every sharded proptest case (the
/// property under test is the serving router, not training).
fn sharded_fixture() -> &'static tauw_suite::core::tauw::TimeseriesAwareWrapper {
    use std::sync::OnceLock;
    use tauw_suite::core::tauw::{BackendSpec, TimeseriesAwareWrapper};
    static FIXTURE: OnceLock<TimeseriesAwareWrapper> = OnceLock::new();
    FIXTURE.get_or_init(|| one_factor_wrapper(BackendSpec::Tree))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn sharded_serving_is_bitwise_identical_to_sequential_sessions(
        // Shard counts 1/2/7 x thread budgets 1/2/8, plain and adaptive,
        // with a snapshot -> restore into a different shard count at a
        // random wave mid-replay: the engine must reproduce one dedicated
        // sequential session per stream bit for bit. Each wave steps a
        // random subset of the streams (some twice, in random order), and
        // streams end and come back, restarting from a fresh session. Ids
        // come from one of three families (spread; at 0 and at u64::MAX;
        // sharing their low 32 bits), and wrong outcomes include 0 and
        // u32::MAX.
        n_streams in 1usize..10,
        waves in 1usize..12,
        traffic_seed in 0u64..u64::MAX,
        shard_sel in 0usize..3,
        thread_sel in 0usize..3,
        snap_frac in 0.0f64..1.0,
        adaptive in prop::bool::ANY,
        id_family in 0usize..3,
    ) {
        use tauw_suite::core::adaptive::{AdaptiveConfig, AdaptiveTauwSession};
        use tauw_suite::core::engine::{AdaptiveStreamStep, StreamId};
        use tauw_suite::core::sharded::ShardedEngine;
        use tauw_suite::core::tauw::{TauwSession, TauwStep};

        enum Reference<'w> {
            Plain(TauwSession<'w>),
            Adaptive(AdaptiveTauwSession<'w>),
        }

        let shards = [1usize, 2, 7][shard_sel];
        let threads = [1usize, 2, 8][thread_sel];
        let reshard = (shards % 7) + 2; // 1 -> 3, 2 -> 4, 7 -> 2
        let tauw = sharded_fixture();
        let id_of = |s: usize| {
            let s = s as u64;
            StreamId(match id_family {
                0 => s.wrapping_mul(0x9E37_79B9) + 5,
                1 if s % 2 == 0 => s / 2,
                1 => u64::MAX - s / 2,
                _ => (s.wrapping_mul(0x9E37_79B9) << 32) | 0xDEAD_BEEF,
            })
        };
        let config = AdaptiveConfig {
            window: 4,
            min_observations: 2,
            rate: 0.1,
            max_inflation_steps: 16,
            ..Default::default()
        };
        let fresh_reference = || {
            if adaptive {
                Reference::Adaptive(tauw.new_adaptive_session(config).unwrap())
            } else {
                Reference::Plain(tauw.new_session())
            }
        };

        // Deterministic draws per (stream, wave, purpose).
        let draw = |s: usize, w: usize, purpose: u64| -> f64 {
            let mut state = traffic_seed
                ^ (s as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ (w as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9)
                ^ purpose.wrapping_mul(0x94D0_49BB_1331_11EB);
            for _ in 0..2 {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
            }
            (state >> 11) as f64 / (1u64 << 53) as f64
        };

        let mut engine = ShardedEngine::new(tauw.clone(), shards);
        engine.threads(threads);
        let mut resharded = ShardedEngine::new(tauw.clone(), reshard);
        resharded.threads(threads);
        if adaptive {
            engine.enable_adaptation(config).unwrap();
            resharded.enable_adaptation(config).unwrap();
        }
        // `None` marks a stream the engine does not hold.
        let mut references: Vec<Option<Reference>> = (0..n_streams).map(|_| None).collect();
        let mut lengths = vec![0u64; n_streams];
        let snap_at = ((waves as f64) * snap_frac) as usize;
        let mut moved = false;
        for w in 0..waves {
            if w == snap_at {
                for state in engine.snapshot() {
                    prop_assert!(state.validate().is_ok());
                    resharded.restore(&state).unwrap();
                }
                prop_assert_eq!(resharded.n_streams(), engine.n_streams());
                moved = true;
            }
            let serving = if moved { &mut resharded } else { &mut engine };

            // Lifecycle: live streams may end; ended streams may begin a
            // fresh series (or come back implicitly by being stepped).
            for s in 0..n_streams {
                let roll = draw(s, w, 1);
                if references[s].is_some() && roll < 0.2 {
                    prop_assert!(serving.end_stream(id_of(s)));
                    references[s] = None;
                } else if let (Some(reference), true) = (&mut references[s], roll < 0.3) {
                    // A new series on a live stream keeps its adaptive state.
                    prop_assert!(serving.begin_series(id_of(s)).is_accepted());
                    match reference {
                        Reference::Plain(session) => session.begin_series(),
                        Reference::Adaptive(session) => session.begin_series(),
                    }
                    lengths[s] = 0;
                } else if references[s].is_none() && roll > 0.7 {
                    prop_assert!(serving.begin_series(id_of(s)).is_accepted());
                    references[s] = Some(fresh_reference());
                    lengths[s] = 0;
                }
            }

            // The wave: each stream 0, 1 or 2 times, in a random order.
            let mut entries: Vec<(f64, usize, f64, u32)> = Vec::new();
            for s in 0..n_streams {
                let copies = (draw(s, w, 2) * 3.0) as usize;
                for copy in 0..copies {
                    let q = draw(s, w, 3 + copy as u64);
                    let wrong = [3, 0, u32::MAX][(draw(s, w, 9 + copy as u64) * 3.0) as usize];
                    let outcome = if draw(s, w, 5 + copy as u64) < (q * 0.9).min(0.95) { wrong } else { 7 };
                    entries.push((draw(s, w, 7 + copy as u64), s, q, outcome));
                }
            }
            entries.sort_by(|a, b| a.0.total_cmp(&b.0));
            let outputs = if adaptive {
                let batch: Vec<AdaptiveStreamStep> = entries
                    .iter()
                    .map(|&(_, s, q, outcome)| AdaptiveStreamStep::new(id_of(s), vec![q], outcome, outcome != 7))
                    .collect();
                serving.step_many_adaptive(&batch).unwrap()
            } else {
                let features: Vec<[f64; 1]> = entries.iter().map(|e| [e.2]).collect();
                let batch: Vec<(StreamId, &[f64], u32)> = entries
                    .iter()
                    .zip(&features)
                    .map(|(&(_, s, _, outcome), q)| (id_of(s), &q[..], outcome))
                    .collect();
                serving.step_many_borrowed(&batch).unwrap()
            };
            prop_assert_eq!(outputs.len(), entries.len());
            for (&(_, s, q, outcome), got) in entries.iter().zip(&outputs) {
                let reference = references[s].get_or_insert_with(|| {
                    lengths[s] = 0;
                    fresh_reference()
                });
                let want: TauwStep = match reference {
                    Reference::Plain(session) => session.step(&[q], outcome).unwrap(),
                    Reference::Adaptive(session) => session.step(&[q], outcome, outcome != 7).unwrap(),
                };
                lengths[s] += 1;
                prop_assert!(
                    want.uncertainty.to_bits() == got.uncertainty.to_bits(),
                    "stream {} wave {} shards={}->{} threads={} adaptive={}",
                    s, w, shards, reshard, threads, adaptive
                );
                prop_assert_eq!(&want, got);
            }
            let live: Vec<StreamId> = (0..n_streams)
                .filter(|&s| references[s].is_some())
                .map(id_of)
                .collect();
            let mut sorted = live.clone();
            sorted.sort_unstable();
            prop_assert_eq!(serving.stream_ids(), sorted);
            for s in (0..n_streams).filter(|&s| references[s].is_some()) {
                prop_assert_eq!(serving.stream_total_steps(id_of(s)), Some(lengths[s]));
            }
        }
        prop_assert!(moved, "snapshot wave must lie inside the replay");

        // Admission: cap every shard at its fullest live count, then send a
        // batch that steps the live streams around one new stream hashing
        // to a full shard. The rejected batch must leave every stream as it
        // was.
        let serving = if moved { &mut resharded } else { &mut engine };
        if serving.n_streams() == 0 {
            prop_assert!(serving.admit(id_of(0)).is_accepted());
        }
        let fullest = (0..serving.n_shards())
            .max_by_key(|&shard| serving.shard_n_streams(shard))
            .unwrap();
        serving.max_streams_per_shard(serving.shard_n_streams(fullest).unwrap());
        let ids = serving.stream_ids();
        let newcomer = (0..u64::MAX)
            .map(|k| StreamId(u64::MAX - k))
            .find(|&id| serving.shard_of(id) == fullest && !ids.contains(&id))
            .unwrap();
        let lens: Vec<Option<usize>> = ids.iter().map(|&id| serving.stream_len(id)).collect();
        let q = [0.5];
        let mut batch: Vec<(StreamId, &[f64], u32)> = ids.iter().map(|&id| (id, &q[..], 7)).collect();
        batch.insert(batch.len() / 2, (newcomer, &q[..], 7));
        let rejected = serving.step_many_borrowed(&batch).unwrap_err().to_string();
        prop_assert!(rejected.contains("admission rejected"), "{}", rejected);
        prop_assert_eq!(serving.stream_ids(), ids.clone());
        let after: Vec<Option<usize>> = ids.iter().map(|&id| serving.stream_len(id)).collect();
        prop_assert_eq!(after, lens);
    }
}

// --- artifact fuzzing ---

use std::sync::OnceLock;
use tauw_suite::core::adaptive::{AdaptiveConfig, AdaptiveState};
use tauw_suite::core::engine::{AdaptiveStreamStep, StreamId};
use tauw_suite::core::persist::Artifact;
use tauw_suite::core::sharded::{EngineShardState, ShardedEngine};
use tauw_suite::core::tauw::{TauwStep, TimeseriesAwareWrapper};
use tauw_suite::core::wrapper::UncertaintyWrapper;
use tauw_suite::stats::bootstrap::SplitMix64;

/// Adaptive configuration of every fuzz fixture and exercise engine.
const FUZZ_ADAPTIVE: AdaptiveConfig = AdaptiveConfig {
    window: 4,
    min_observations: 2,
    rate: 0.1,
    max_inflation_steps: 16,
    thin_support: 1,
};

/// Feature values every loaded model is served: NaN, ±inf, ±1e300 and one
/// ordinary reading.
const EXTREME_FEATURES: [f64; 6] = [
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    1e300,
    -1e300,
    0.5,
];

/// Step `k`'s feature row for an `n`-feature model, cycling every slot
/// through [`EXTREME_FEATURES`].
fn extreme_row(n: usize, k: usize) -> Vec<f64> {
    (0..n)
        .map(|j| EXTREME_FEATURES[(k + j) % EXTREME_FEATURES.len()])
        .collect()
}

/// One artifact per loadable shape, as `(label, json)`: the stateless
/// wrapper, a taUW per taQIM backend, each standalone QIM, a bounded
/// buffer, an adaptive state and an engine shard, so every artifact kind
/// is covered.
fn fuzz_artifacts() -> &'static [(&'static str, String)] {
    use tauw_suite::core::conformal::ConformalOptions;
    use tauw_suite::core::tauw::BackendSpec;
    static ARTIFACTS: OnceLock<Vec<(&'static str, String)>> = OnceLock::new();
    ARTIFACTS.get_or_init(|| {
        let tree = sharded_fixture();
        let forest = one_factor_wrapper(BackendSpec::Forest {
            n_trees: 3,
            seed: 7,
        });
        let conformal = one_factor_wrapper(BackendSpec::Conformal(ConformalOptions { bins: 8 }));
        let (TaQim::Forest(forest_qim), TaQim::Conformal(conformal_qim)) =
            (forest.taqim(), conformal.taqim())
        else {
            panic!("fixtures carry the requested backends");
        };
        // Runtime state from a short adaptive K = 3 replay whose 4-step
        // windows have evicted.
        let mut engine = ShardedEngine::new(tree.clone(), 3);
        engine.buffer_capacity(4);
        engine.enable_adaptation(FUZZ_ADAPTIVE).unwrap();
        for k in 0..12u64 {
            let batch: Vec<AdaptiveStreamStep> = (0..6u64)
                .map(|s| {
                    let q = ((k * 7 + s * 3) % 12) as f64 / 12.0;
                    let outcome = if (k + s) % 3 == 0 { 3 } else { 7 };
                    AdaptiveStreamStep::new(StreamId(s), vec![q], outcome, outcome == 3)
                })
                .collect();
            engine.step_many_adaptive(&batch).unwrap();
        }
        let shard = engine
            .snapshot()
            .into_iter()
            .max_by_key(|state| state.streams.len())
            .unwrap();
        let stream = &shard.streams[0];
        vec![
            ("stateless", tree.stateless().to_artifact_json().unwrap()),
            ("tauw_tree", tree.to_artifact_json().unwrap()),
            ("tauw_forest", forest.to_artifact_json().unwrap()),
            ("tauw_conformal", conformal.to_artifact_json().unwrap()),
            (
                "tree_qim",
                tree.stateless().qim().to_artifact_json().unwrap(),
            ),
            ("forest_qim", forest_qim.to_artifact_json().unwrap()),
            ("conformal_qim", conformal_qim.to_artifact_json().unwrap()),
            ("buffer", stream.buffer.to_artifact_json().unwrap()),
            (
                "adaptive_state",
                stream
                    .adaptive
                    .as_ref()
                    .unwrap()
                    .to_artifact_json()
                    .unwrap(),
            ),
            ("engine_shard", shard.to_artifact_json().unwrap()),
        ]
    })
}

/// Byte ranges of every number token outside JSON strings.
fn number_tokens(json: &[u8]) -> Vec<(usize, usize)> {
    let mut tokens = Vec::new();
    let (mut i, mut in_string) = (0, false);
    while i < json.len() {
        match json[i] {
            b'\\' if in_string => i += 1,
            b'"' => in_string = !in_string,
            b'-' | b'0'..=b'9' if !in_string => {
                let start = i;
                while i < json.len()
                    && matches!(json[i], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
                {
                    i += 1;
                }
                tokens.push((start, i));
                continue;
            }
            _ => {}
        }
        i += 1;
    }
    tokens
}

/// One seeded mutant of `json`: a number swapped for 0, 1, 2^32,
/// u64::MAX or another token's value (half the draws), a deleted byte
/// range, a truncation, or a duplicated range spliced in elsewhere.
fn mutate(json: &str, rng: &mut SplitMix64) -> String {
    let bytes = json.as_bytes();
    let mut out = bytes.to_vec();
    let range = |rng: &mut SplitMix64| {
        let start = rng.next_index(bytes.len());
        (
            start,
            start + 1 + rng.next_index(64.min(bytes.len() - start)),
        )
    };
    match rng.next_index(6) {
        0..=2 => {
            let tokens = number_tokens(bytes);
            let (start, end) = tokens[rng.next_index(tokens.len())];
            let (other_start, other_end) = tokens[rng.next_index(tokens.len())];
            let values = [
                "0",
                "1",
                "4294967296",
                "18446744073709551615",
                &json[other_start..other_end],
            ];
            out.splice(start..end, values[rng.next_index(values.len())].bytes());
        }
        3 => {
            let (start, end) = range(rng);
            out.drain(start..end);
        }
        4 => out.truncate(rng.next_index(bytes.len())),
        _ => {
            let (start, end) = range(rng);
            let at = rng.next_index(bytes.len() + 1);
            out.splice(at..at, bytes[start..end].iter().copied());
        }
    }
    String::from_utf8(out).expect("artifacts are ASCII")
}

/// Whether every uncertainty a served step reports is a probability.
fn step_in_unit_interval(step: &TauwStep) -> bool {
    [step.uncertainty, step.adapted_uncertainty]
        .iter()
        .all(|u| (0.0..=1.0).contains(u))
}

/// Serves 40 extreme steps through a session and through a K = 3
/// adaptive engine, then moves the engine state through snapshot ->
/// restore. A panic fails the caller.
fn exercise_wrapper(tauw: &TimeseriesAwareWrapper) {
    let n = tauw.stateless().feature_names().len();
    // Any wrapper that loads must then serve without an error, and serve
    // probabilities.
    let mut session = tauw.new_session();
    for k in 0..40 {
        match session.step(&extreme_row(n, k), [3, 7][k % 2]) {
            Ok(step) => assert!(
                step_in_unit_interval(&step),
                "a loaded taUW served {step:?} at session step {k}"
            ),
            Err(e) => panic!("a loaded taUW failed session step {k}: {e}"),
        }
    }
    let adaptive_engine = |shards: usize| {
        let mut engine = ShardedEngine::new(tauw.clone(), shards);
        engine.enable_adaptation(FUZZ_ADAPTIVE).unwrap();
        engine
    };
    let mut engine = adaptive_engine(3);
    for k in 0..40 {
        let batch: Vec<AdaptiveStreamStep> = (0..3)
            .map(|s| {
                AdaptiveStreamStep::new(StreamId(s as u64), extreme_row(n, k + s), 3, k % 3 == 0)
            })
            .collect();
        match engine.step_many_adaptive(&batch) {
            Ok(steps) => assert!(
                steps.iter().all(step_in_unit_interval),
                "a loaded taUW served {steps:?} in adaptive wave {k}"
            ),
            Err(e) => panic!("a loaded taUW failed adaptive wave {k}: {e}"),
        }
    }
    let mut restored = adaptive_engine(2);
    for state in engine.snapshot() {
        restored.restore(&state).unwrap();
    }
    assert_eq!(restored.stream_ids(), engine.stream_ids());
}

/// Loads `json` as artifact shape `label`: `Ok(false)` when the load
/// fails, `Ok(true)` when it succeeds and the loaded model or state
/// validates and then serves extreme inputs. A panic fails the caller.
fn load_and_exercise(label: &str, json: &str) -> Result<bool, String> {
    use tauw_suite::core::buffer::TimeseriesBuffer;
    use tauw_suite::core::calibration::{CalibratedForestQim, ServingScratch};
    use tauw_suite::core::conformal::ConformalQim;
    use tauw_suite::core::taqf::TaqfVector;
    let invalid = |what: &str| Err(format!("{label}: loaded {what}"));
    let qim_serves = |qim: TaQim| {
        if qim.validate().is_err() {
            return invalid("a QIM that fails validate()");
        }
        for k in 0..40 {
            let row = extreme_row(qim.n_features(), k);
            let _ = qim.uncertainty_reference(&row);
            if let Ok(u) = qim.uncertainty(&row) {
                if !(0.0..=1.0).contains(&u) {
                    return invalid(&format!("a QIM that serves {u}"));
                }
            }
        }
        Ok(true)
    };
    match label {
        "stateless" => {
            let Ok(wrapper) = UncertaintyWrapper::from_artifact_json(json) else {
                return Ok(false);
            };
            if wrapper.validate().is_err() {
                return invalid("a wrapper that fails validate()");
            }
            for k in 0..40 {
                let row = extreme_row(wrapper.feature_names().len(), k);
                let _ = wrapper.explain(&row);
                if let Ok(e) = wrapper.estimate(&row) {
                    let fields = [
                        e.quality_uncertainty,
                        e.scope_compliance,
                        e.combined_uncertainty,
                    ];
                    if !fields.iter().all(|v| (0.0..=1.0).contains(v)) {
                        return invalid(&format!("a wrapper that estimates {e:?}"));
                    }
                }
            }
        }
        "tauw_tree" | "tauw_forest" | "tauw_conformal" => {
            let Ok(tauw) = TimeseriesAwareWrapper::from_artifact_json(json) else {
                return Ok(false);
            };
            if tauw.validate().is_err() {
                return invalid("a taUW that fails validate()");
            }
            exercise_wrapper(&tauw);
        }
        "tree_qim" | "forest_qim" => match CalibratedForestQim::from_artifact_json(json) {
            Ok(qim) => return qim_serves(TaQim::Forest(qim)),
            Err(_) => return Ok(false),
        },
        "conformal_qim" => match ConformalQim::from_artifact_json(json) {
            Ok(qim) => return qim_serves(TaQim::Conformal(qim)),
            Err(_) => return Ok(false),
        },
        "buffer" => {
            let Ok(mut buffer) = TimeseriesBuffer::from_artifact_json(json) else {
                return Ok(false);
            };
            // A buffer has no validate(): its running aggregates must
            // equal the full recompute.
            let fused = buffer.fused_outcome();
            if fused != buffer.fused_outcome_reference() {
                return invalid("a buffer whose fused outcome disagrees with the recompute");
            }
            if let Some(fused) = fused {
                if TaqfVector::compute(&buffer, fused)
                    != TaqfVector::compute_reference(&buffer, fused)
                {
                    return invalid("a buffer whose taQFs disagree with the recompute");
                }
            }
            let mut scratch = ServingScratch::new();
            for k in 0..40 {
                if let Err(e) = sharded_fixture().step_with_parts(
                    &mut buffer,
                    &mut scratch,
                    &extreme_row(1, k),
                    7,
                ) {
                    return Err(format!("{label}: a loaded buffer failed to serve: {e}"));
                }
            }
        }
        "adaptive_state" => {
            let Ok(mut state) = AdaptiveState::from_artifact_json(json) else {
                return Ok(false);
            };
            if state.config().validate().is_err() || state.coverage() != state.coverage_reference()
            {
                return invalid("adaptive state that fails its config or coverage check");
            }
            for k in 0..40 {
                let bound = state.adapted_bound([0.0, 0.3, 1.0][k % 3]);
                state.observe(bound, k % 4 == 0);
            }
        }
        "engine_shard" => {
            let Ok(state) = EngineShardState::from_artifact_json(json) else {
                return Ok(false);
            };
            if state.validate().is_err() {
                return invalid("an engine shard that fails validate()");
            }
            // The restoring engine's adaptive config may differ from the
            // snapshot's; a refused restore is an error, not a panic.
            let mut engine = ShardedEngine::new(sharded_fixture().clone(), 3);
            engine.enable_adaptation(FUZZ_ADAPTIVE).unwrap();
            if engine.restore(&state).is_ok() {
                for k in 0..40 {
                    let batch: Vec<AdaptiveStreamStep> = engine
                        .stream_ids()
                        .into_iter()
                        .map(|id| AdaptiveStreamStep::new(id, extreme_row(1, k), 7, k % 3 == 0))
                        .collect();
                    let _ = engine.step_many_adaptive(&batch);
                }
            }
        }
        other => unreachable!("unknown artifact shape {other}"),
    }
    Ok(true)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn mutated_artifacts_load_as_err_or_as_valid_serving_models(
        // Each case mutates every artifact shape `MUTANTS` times. A mutant
        // must load as `Err`, or as a model or state that validates and
        // then serves NaN, ±inf and ±1e300 inputs (session, K = 3
        // adaptive engine, snapshot -> restore) without panicking.
        seed in 0u64..u64::MAX,
    ) {
        const MUTANTS: usize = 8;
        let mut rng = SplitMix64::new(seed);
        for (label, json) in fuzz_artifacts() {
            prop_assert!(load_and_exercise(label, json) == Ok(true), "pristine {} must load", label);
            for _ in 0..MUTANTS {
                let mutant = mutate(json, &mut rng);
                if let Err(reason) = load_and_exercise(label, &mutant) {
                    prop_assert!(false, "{} (seed {})", reason, seed);
                }
            }
        }
    }
}

// --- scenario families (tauw-sim) ---

mod scenario_families {
    use proptest::prelude::*;
    use tauw_suite::sim::{
        BurstParams, DropoutParams, MultiSourceParams, RegimeParams, ScenarioConfig,
        ScenarioFamily, SimConfig, SplitKind,
    };

    /// Builds one of the four non-baseline families from generic drawn
    /// knobs (the vendored proptest stub has no `prop_oneof`/`prop_map`,
    /// so selection and construction happen in the test body).
    fn make_family(kind: usize, a: f64, b: f64, c: f64, n: usize, flag: bool) -> ScenarioFamily {
        match kind % 4 {
            0 => ScenarioFamily::SensorDropout(DropoutParams {
                gate_prob: a * 0.4,
                stale_prob: b,
                multi_rate_period: n,
                drop_pixel: flag,
                ..Default::default()
            }),
            1 => ScenarioFamily::RegimeSwitch(RegimeParams {
                switch_at: a,
                flip_prob: b,
                within_series_onset: c * 0.9,
            }),
            2 => ScenarioFamily::HeavyTails(BurstParams {
                gate_prob: a * 0.3,
                tail_alpha: 1.1 + b * 1.9,
                scale: c * 0.3,
                ..Default::default()
            }),
            _ => ScenarioFamily::MultiSource(MultiSourceParams {
                n_sources: 2 + n % 3,
                correlation: a,
                disagree_prob: b * 0.5,
                ..Default::default()
            }),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        // The determinism wall, extended to scenario generation: the
        // whole scenario-shaped dataset is bitwise identical across
        // thread budgets 1 / 2 / 8.
        #[test]
        fn scenario_build_is_bitwise_deterministic_across_thread_budgets(
            kind in 0usize..4,
            a in 0.0..=1.0f64,
            b in 0.0..=1.0f64,
            c in 0.0..=1.0f64,
            n in 1usize..5,
            flag in proptest::bool::ANY,
            seed in 0u64..1_000,
        ) {
            let family = make_family(kind, a, b, c, n, flag);
            let cfg = ScenarioConfig::new(SimConfig::scaled(0.01), family);
            let one = cfg.build_with_threads(seed, 1).unwrap();
            for threads in [2usize, 8] {
                let other = cfg.build_with_threads(seed, threads).unwrap();
                prop_assert_eq!(&one.train, &other.train);
                prop_assert_eq!(&one.calib, &other.calib);
                prop_assert_eq!(&one.test, &other.test);
            }
        }

        // Transforms key every draw off the series id, never the slice
        // position: applying the family to a reversed split and
        // un-reversing must reproduce the in-order result exactly.
        #[test]
        fn scenario_transform_is_invariant_to_series_order(
            kind in 0usize..4,
            a in 0.0..=1.0f64,
            b in 0.0..=1.0f64,
            c in 0.0..=1.0f64,
            n in 1usize..5,
            flag in proptest::bool::ANY,
            seed in 0u64..1_000,
        ) {
            let family = make_family(kind, a, b, c, n, flag);
            let base = tauw_suite::sim::DatasetBuilder::new(SimConfig::scaled(0.01), seed)
                .unwrap()
                .build();
            let cfg = ScenarioConfig::new(SimConfig::scaled(0.01), family);
            let mut in_order = base.test.clone();
            cfg.apply_split(SplitKind::Test, &mut in_order, seed, 2);
            let mut reversed = base.test.clone();
            reversed.reverse();
            cfg.apply_split(SplitKind::Test, &mut reversed, seed, 2);
            reversed.reverse();
            prop_assert_eq!(in_order, reversed);
        }
    }
}
