//! Steady-state serving performs no per-step heap allocation.
//!
//! This test binary installs a counting global allocator. The counter is
//! thread-local, so each test sees only its own allocations, whatever the
//! harness runs beside it. After a warm-up that sizes every reusable
//! buffer, plain steps (`step_with_parts` on a bounded buffer) and
//! adaptive session steps must allocate nothing, for every taQIM shape.
//! An engine wave makes a fixed number of allocations (the returned
//! `Vec` and the worker fan-out) however many streams it steps, and
//! ending streams hands stream-table capacity back.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use tauw_suite::core::adaptive::AdaptiveConfig;
use tauw_suite::core::buffer::TimeseriesBuffer;
use tauw_suite::core::calibration::{CalibrationOptions, ServingScratch};
use tauw_suite::core::conformal::ConformalOptions;
use tauw_suite::core::engine::{AdaptiveStreamStep, StreamId, TauwEngine};
use tauw_suite::core::sharded::ShardedEngine;
use tauw_suite::core::tauw::{BackendSpec, TauwBuilder, TimeseriesAwareWrapper};
use tauw_suite::core::training::{TrainingSeries, TrainingStep};
use tauw_suite::core::wrapper::WrapperBuilder;

struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call forwards to `System` unchanged; the only addition is
// a thread-local counter bump, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Heap allocations (including reallocations) made by this thread so far.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// A miniature world: one quality factor `q` in [0, 1]; the model fails
/// with probability ~q, with a series-level bias; true class 7, failures
/// report class 3.
fn make_series(n: usize, seed: u64, steps: usize) -> Vec<TrainingSeries> {
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
            let steps = (0..steps)
                .map(|_| {
                    let failed = next() < (q * bias).min(0.95);
                    TrainingStep {
                        quality_factors: vec![q],
                        outcome: if failed { 3 } else { 7 },
                    }
                })
                .collect();
            TrainingSeries {
                true_outcome: 7,
                steps,
            }
        })
        .collect()
}

/// One small wrapper per taQIM shape: tree, 4-member forest, conformal.
fn wrappers() -> Vec<(&'static str, TimeseriesAwareWrapper)> {
    let train = make_series(300, 1, 10);
    let calib = make_series(300, 2, 10);
    let backends = [
        ("tree", BackendSpec::Tree),
        (
            "forest",
            BackendSpec::Forest {
                n_trees: 4,
                seed: 0xF0,
            },
        ),
        (
            "conformal",
            BackendSpec::Conformal(ConformalOptions::default()),
        ),
    ];
    backends
        .into_iter()
        .map(|(shape, backend)| {
            let mut wb = WrapperBuilder::new();
            wb.max_depth(3).calibration(CalibrationOptions {
                min_samples_per_leaf: 50,
                confidence: 0.99,
                ..Default::default()
            });
            let mut builder = TauwBuilder::new();
            builder.wrapper(wb).backend(backend);
            (
                shape,
                builder.fit(vec!["q".into()], &train, &calib).unwrap(),
            )
        })
        .collect()
}

/// Deterministic traffic: quality factor and outcome for step `i`.
fn traffic(i: usize) -> ([f64; 1], u32) {
    (
        [0.1 + 0.8 * ((i % 7) as f64 / 7.0)],
        if i % 3 == 0 { 3 } else { 7 },
    )
}

#[test]
fn warmed_plain_steps_do_not_allocate() {
    for (shape, wrapper) in wrappers() {
        let mut buffer = TimeseriesBuffer::bounded(8);
        let mut scratch = ServingScratch::new();
        for i in 0..16 {
            let (q, outcome) = traffic(i);
            wrapper
                .step_with_parts(&mut buffer, &mut scratch, &q, outcome)
                .unwrap();
        }
        let before = allocations();
        for i in 0..1000 {
            let (q, outcome) = traffic(i);
            wrapper
                .step_with_parts(&mut buffer, &mut scratch, &q, outcome)
                .unwrap();
        }
        assert_eq!(allocations() - before, 0, "{shape} taQIM");
    }
}

#[test]
fn warmed_adaptive_steps_do_not_allocate() {
    for (shape, wrapper) in wrappers() {
        let mut session = wrapper
            .new_adaptive_session(AdaptiveConfig::default())
            .unwrap();
        // One long series sizes the fusion buffer past the measured series
        // and fills the coverage ring.
        for i in 0..1000 {
            let (q, outcome) = traffic(i);
            session.step(&q, outcome, outcome == 3).unwrap();
        }
        session.begin_series();
        let before = allocations();
        for i in 0..1000 {
            let (q, outcome) = traffic(i);
            session.step(&q, outcome, outcome == 3).unwrap();
        }
        assert_eq!(allocations() - before, 0, "{shape} taQIM");
    }
}

/// Allocations made by one warmed engine wave that steps each of `n`
/// streams once.
fn wave_allocations(
    wrapper: &TimeseriesAwareWrapper,
    shards: usize,
    threads: usize,
    adaptive: bool,
    n: usize,
) -> u64 {
    let mut engine = ShardedEngine::new(wrapper.clone(), shards);
    engine.threads(threads).buffer_capacity(8);
    engine.enable_adaptation(AdaptiveConfig::default()).unwrap();
    let traffic: Vec<([f64; 1], u32)> = (0..n).map(traffic).collect();
    let plain: Vec<(StreamId, &[f64], u32)> = traffic
        .iter()
        .enumerate()
        .map(|(s, (q, outcome))| (StreamId(s as u64), &q[..], *outcome))
        .collect();
    let adaptive_batch: Vec<AdaptiveStreamStep> = traffic
        .iter()
        .enumerate()
        .map(|(s, (q, outcome))| {
            AdaptiveStreamStep::new(StreamId(s as u64), q.to_vec(), *outcome, *outcome == 3)
        })
        .collect();
    let mut wave = || match adaptive {
        true => engine.step_many_adaptive(&adaptive_batch).unwrap(),
        false => engine.step_many_borrowed(&plain).unwrap(),
    };
    // Fill the bounded buffers and the coverage rings.
    for _ in 0..32 {
        wave();
    }
    let before = allocations();
    drop(wave());
    allocations() - before
}

#[test]
fn warmed_wave_allocations_do_not_grow_with_the_stream_count() {
    let (_, wrapper) = wrappers().remove(0);
    for adaptive in [false, true] {
        for shards in [1, 2] {
            for threads in [1, 2] {
                let small = wave_allocations(&wrapper, shards, threads, adaptive, 16);
                let large = wave_allocations(&wrapper, shards, threads, adaptive, 1024);
                assert_eq!(
                    small, large,
                    "adaptive={adaptive} K={shards} threads={threads}"
                );
            }
        }
    }
}

#[test]
fn ending_streams_hands_stream_table_capacity_back() {
    let (_, wrapper) = wrappers().remove(0);
    let mut engine = TauwEngine::new(wrapper.clone());
    let q = [0.3];
    let batch: Vec<(StreamId, &[f64], u32)> = (0..64).map(|s| (StreamId(s), &q[..], 7)).collect();
    engine.step_many_borrowed(&batch).unwrap();
    let peak = engine.stream_capacity();
    assert!(peak >= 64);
    for s in 4..64 {
        assert!(engine.end_stream(StreamId(s)));
    }
    assert!(
        !engine.end_stream(StreamId(999)),
        "unknown streams are a no-op"
    );
    assert!(
        engine.stream_capacity() < peak,
        "4 live streams still pin a table of {} rows",
        engine.stream_capacity()
    );

    // The survivors keep serving exactly like dedicated sessions.
    let q2 = [0.6];
    let survivors: Vec<(StreamId, &[f64], u32)> =
        (0..4).map(|s| (StreamId(s), &q2[..], 3)).collect();
    for got in engine.step_many_borrowed(&survivors).unwrap() {
        let mut session = wrapper.new_session();
        session.step(&q, 7).unwrap();
        assert_eq!(got, session.step(&q2, 3).unwrap());
    }
}
