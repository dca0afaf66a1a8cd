//! Benchmarks CART training and prediction, including the exact-vs-
//! histogram splitter ablation called out in `DESIGN.md` §5.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use tauw_dtree::{Dataset, Splitter, TreeBuilder};
use tauw_stats::bootstrap::SplitMix64;

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

fn bench_training(c: &mut Criterion) {
    let mut group = c.benchmark_group("tree_training");
    group.sample_size(10);
    for &n in &[2_000usize, 20_000] {
        let ds = make_dataset(n, 10);
        group.bench_with_input(BenchmarkId::new("exact", n), &ds, |b, ds| {
            b.iter(|| {
                TreeBuilder::new()
                    .splitter(Splitter::Exact)
                    .max_depth(8)
                    .fit(black_box(ds))
                    .expect("fit")
            });
        });
        group.bench_with_input(BenchmarkId::new("histogram64", n), &ds, |b, ds| {
            b.iter(|| {
                TreeBuilder::new()
                    .splitter(Splitter::Histogram { bins: 64 })
                    .max_depth(8)
                    .fit(black_box(ds))
                    .expect("fit")
            });
        });
    }
    group.finish();
}

fn bench_prediction(c: &mut Criterion) {
    let ds = make_dataset(20_000, 10);
    let tree = TreeBuilder::new().max_depth(8).fit(&ds).expect("fit");
    let flat = tauw_dtree::FlatTree::from_tree(&tree);
    let query: Vec<f64> = (0..10).map(|i| i as f64 / 10.0).collect();
    c.bench_function("tree_predict_single", |b| {
        b.iter(|| tree.predict(black_box(&query)).expect("predict"));
    });
    c.bench_function("flat_predict_single", |b| {
        b.iter(|| flat.predict(black_box(&query)).expect("predict"));
    });
    c.bench_function("tree_leaf_routing_1k_rows", |b| {
        b.iter(|| {
            for i in 0..1000 {
                let mut q = query.clone();
                q[0] = (i % 100) as f64 / 100.0;
                black_box(tree.leaf_id(&q).expect("route"));
            }
        });
    });
    c.bench_function("flat_leaf_routing_1k_rows", |b| {
        b.iter(|| {
            for i in 0..1000 {
                let mut q = query.clone();
                q[0] = (i % 100) as f64 / 100.0;
                black_box(flat.predict_leaf_id(&q).expect("route"));
            }
        });
    });
    let batch: Vec<Vec<f64>> = (0..1000)
        .map(|i| {
            let mut q = query.clone();
            q[0] = (i % 100) as f64 / 100.0;
            q
        })
        .collect();
    let mut group = c.benchmark_group("flat_batch_routing_1k_rows");
    for threads in [1usize, 4] {
        group.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, &t| {
            let mut out = Vec::with_capacity(batch.len());
            b.iter(|| {
                out.clear();
                flat.predict_leaf_ids_into(t, black_box(&batch), &mut out)
                    .expect("batch");
                black_box(out.len())
            });
        });
    }
    group.finish();
}

fn bench_pruning(c: &mut Criterion) {
    let ds = make_dataset(20_000, 10);
    let tree = TreeBuilder::new().max_depth(8).fit(&ds).expect("fit");
    let calib: Vec<Vec<f64>> = {
        let calib_ds = make_dataset(5_000, 10);
        (0..calib_ds.n_samples())
            .map(|i| calib_ds.row(i).to_vec())
            .collect()
    };
    let mut group = c.benchmark_group("pruning");
    group.sample_size(20);
    group.bench_function("calibration_driven_min200", |b| {
        b.iter(|| {
            let mut t = tree.clone();
            let counts = t
                .node_sample_counts(calib.iter().map(|r| r.as_slice()))
                .expect("counts");
            tauw_dtree::prune::prune_to_min_count(&mut t, &counts, 200).expect("prune");
            black_box(t.n_leaves())
        });
    });
    group.bench_function("cost_complexity_alpha_1e-3", |b| {
        b.iter(|| {
            let mut t = tree.clone();
            tauw_dtree::prune::prune_cost_complexity(&mut t, 1e-3);
            black_box(t.n_leaves())
        });
    });
    group.finish();
}

criterion_group!(benches, bench_training, bench_prediction, bench_pruning);
criterion_main!(benches);
