//! Steady-state serving performs no heap allocation.
//!
//! This test binary installs a counting global allocator. The counter is
//! thread-local, so each test sees only its own allocations, whatever the
//! harness runs beside it. After a warm-up that sizes every reusable
//! buffer, plain steps (`step_with_parts` on a bounded buffer) and
//! adaptive session steps must allocate nothing, for every taQIM shape.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use tauw_suite::core::adaptive::AdaptiveConfig;
use tauw_suite::core::buffer::TimeseriesBuffer;
use tauw_suite::core::calibration::{CalibrationOptions, ServingScratch};
use tauw_suite::core::conformal::ConformalOptions;
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
