//! The traced run's cost ledger. Every served wave is replayed, on one
//! thread, through three replicas that hold the same stream state as the
//! served engine:
//!
//! * a `ShardedEngine` with the served shard count,
//! * a `TauwEngine`,
//! * a dense per-slot table stepped row-major through
//!   `step_with_parts` / `AdaptiveTauwSession::step` (the compute floor),
//!
//! and once more stage-major over a second dense table, timing each layer's
//! public call on its own. Spans are recorded from these files around the
//! calls into each layer, kept in memory and written out at the end; the
//! per-layer rows are medians over the traced waves of span time per step.
//!
//! The sharded-path rows telescope: `dense.floor_ns +
//! engine.wave_overhead_ns + sharded.route_merge_ns = ledger.sharded_ns`.

use crate::stats::median;
use crate::workload::{Shape, Wave, THREADS};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;
use tauw_core::adaptive::{AdaptiveConfig, AdaptiveState, AdaptiveTauwSession};
use tauw_core::buffer::TimeseriesBuffer;
use tauw_core::calibration::{RouteSupport, ServingScratch};
use tauw_core::engine::{AdaptiveStreamStep, TauwEngine};
use tauw_core::sharded::ShardedEngine;
use tauw_core::taqf::TaqfVector;
use tauw_core::tauw::{TauwStep, TimeseriesAwareWrapper};
use tauw_core::CoreError;

/// The served wave: lifecycle calls plus the step call.
pub const SERVE: &str = "serve.wave";
/// `ShardedEngine::end_stream` calls of the served wave.
pub const END_STREAM: &str = "engine.end_stream";
/// `ShardedEngine::begin_series` calls of the served wave.
pub const BEGIN_SERIES: &str = "engine.begin_series";
/// The served batched step call.
pub const STEP_MANY: &str = "serve.step_many";
/// The one-thread `ShardedEngine` replica's wave.
pub const SHARDED: &str = "ledger.sharded";
/// The one-thread `TauwEngine` replica's wave.
pub const ENGINE: &str = "ledger.engine";
/// The row-major dense replay.
pub const FLOOR: &str = "dense.floor";
/// The stage-major dense replay (parent of the stage spans).
pub const STAGES: &str = "ledger.stages";
/// `UncertaintyWrapper::uncertainty`.
pub const QIM: &str = "wrapper.qim";
/// `TimeseriesBuffer::push` + `fused_outcome`.
pub const PUSH_FUSE: &str = "buffer.push_fuse";
/// `TaqfVector::compute`.
pub const TAQF: &str = "taqf.compute";
/// `TimeseriesAwareWrapper::ta_uncertainty_with_scratch`.
pub const TAQIM: &str = "taqim";
/// `TimeseriesAwareWrapper::route_support_with_scratch`.
pub const ROUTE_SUPPORT: &str = "adaptive.route_support";
/// `AdaptiveState::adapted_bound` + `classify` + `observe`.
pub const OBSERVE: &str = "adaptive.observe";
/// `parallel::par_map_mut` over no-op items, one per thread.
pub const DISPATCH: &str = "parallel.dispatch";

/// The layer stages of one step, in serving order.
const STAGE_NAMES: [&str; 6] = [QIM, PUSH_FUSE, TAQF, TAQIM, ROUTE_SUPPORT, OBSERVE];

/// One timed interval of the traced run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// The wave the span belongs to (waves served since set-up began).
    pub wave: u64,
    /// What was timed.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
    /// Items the span covers (steps or calls).
    pub count: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span store.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    /// Spans in recording order.
    pub spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn record(
        &mut self,
        wave: u64,
        name: &'static str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
        count: usize,
    ) -> usize {
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            wave,
            name,
            parent,
            start_ns: ns(start),
            end_ns: ns(end),
            count: count as u64,
        });
        self.spans.len() - 1
    }

    /// The spans as tab-separated text, one per line, with a header.
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("index\twave\tname\tparent\tstart_ns\tend_ns\tcount\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = writeln!(
                out,
                "{i}\t{}\t{}\t{parent}\t{}\t{}\t{}",
                s.wave, s.name, s.start_ns, s.end_ns, s.count
            );
        }
        out
    }
}

/// Per-wave nanoseconds per counted item of every `name` span that
/// counted something.
fn per_item_ns(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name && s.count > 0)
        .map(|s| s.duration_ns() as f64 / s.count as f64)
        .collect()
}

/// Summed duration over summed count of every `name` span, in seconds per
/// item (0 when nothing was counted).
pub fn total_per_count(spans: &[Span], name: &str) -> f64 {
    let (ns, count) = spans
        .iter()
        .filter(|s| s.name == name)
        .fold((0u64, 0u64), |(ns, count), s| {
            (ns + s.duration_ns(), count + s.count)
        });
    if count == 0 {
        0.0
    } else {
        ns as f64 * 1e-9 / count as f64
    }
}

/// Mean count per served wave of the `name` spans.
fn mean_count(spans: &[Span], name: &str) -> f64 {
    let waves = spans.iter().filter(|s| s.name == SERVE).count();
    let count: u64 = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.count)
        .sum();
    count as f64 / waves.max(1) as f64
}

/// The per-layer rows derived from the spans and the count of streams the
/// traced waves created, as `(metric, value, unit)`.
///
/// Every row is returned on every workload, so a traced result always
/// carries the full ledger. A layer the workload never calls reads exactly
/// 0: the adaptive stages on the plain workloads, `end_stream` on the
/// long-lived workloads, `begin_series` and stream creation on
/// `cohort_100k`. The three difference rows (`ledger.stage_residual_ns`,
/// `engine.wave_overhead_ns`, `sharded.route_merge_ns`) are differences of
/// medians and go negative when the outer replay is not slower than the
/// inner one.
pub fn layer_rows(spans: &[Span], streams_created: u64) -> Vec<(&'static str, f64, &'static str)> {
    let waves = spans.iter().filter(|s| s.name == SERVE).count().max(1) as f64;
    let med = |name: &str| median(&per_item_ns(spans, name)).unwrap_or(0.0);
    let stages: Vec<f64> = STAGE_NAMES.iter().map(|name| med(name)).collect();
    let floor = med(FLOOR);
    let engine = med(ENGINE);
    let sharded = med(SHARDED);
    vec![
        ("wrapper.qim_ns", stages[0], "ns"),
        ("buffer.push_fuse_ns", stages[1], "ns"),
        ("taqf.compute_ns", stages[2], "ns"),
        ("taqim.ns", stages[3], "ns"),
        ("adaptive.route_support_ns", stages[4], "ns"),
        ("adaptive.observe_ns", stages[5], "ns"),
        ("dense.floor_ns", floor, "ns"),
        (
            "ledger.stage_residual_ns",
            floor - stages.iter().sum::<f64>(),
            "ns",
        ),
        ("engine.wave_overhead_ns", engine - floor, "ns"),
        ("sharded.route_merge_ns", sharded - engine, "ns"),
        ("ledger.sharded_ns", sharded, "ns"),
        ("engine.end_stream_ns", med(END_STREAM), "ns"),
        ("engine.begin_series_ns", med(BEGIN_SERIES), "ns"),
        ("parallel.dispatch_us", med(DISPATCH) * 1e-3, "us"),
        ("wave.steps", mean_count(spans, STEP_MANY), "count"),
        (
            "wave.streams_created",
            streams_created as f64 / waves,
            "count",
        ),
        ("wave.streams_ended", mean_count(spans, END_STREAM), "count"),
    ]
}

fn fresh_buffer(window: Option<usize>) -> TimeseriesBuffer {
    match window {
        Some(window) => TimeseriesBuffer::bounded(window),
        None => TimeseriesBuffer::with_capacity(32),
    }
}

/// The dense row-major table: one buffer (plain) or adaptive session per
/// slot, stepped in wave order.
#[derive(Debug)]
enum Floor<'w> {
    Plain {
        buffers: Vec<TimeseriesBuffer>,
        scratch: ServingScratch,
    },
    Adaptive(Vec<AdaptiveTauwSession<'w>>),
}

impl<'w> Floor<'w> {
    fn replay(
        &mut self,
        wrapper: &'w TimeseriesAwareWrapper,
        wave: &Wave,
        out: &mut Vec<TauwStep>,
    ) -> Result<(), CoreError> {
        out.clear();
        match self {
            Floor::Plain { buffers, scratch } => {
                for &(_, slot) in wave.ended.iter().chain(&wave.begun) {
                    buffers[slot].clear();
                }
                for (i, step) in wave.steps.iter().enumerate() {
                    out.push(wrapper.step_with_parts(
                        &mut buffers[step.slot],
                        scratch,
                        wave.quality_factors(i),
                        step.outcome,
                    )?);
                }
            }
            Floor::Adaptive(sessions) => {
                for &(_, slot) in &wave.ended {
                    sessions[slot] = wrapper.new_adaptive_session(AdaptiveConfig::default())?;
                }
                for &(_, slot) in &wave.begun {
                    sessions[slot].begin_series();
                }
                for (i, step) in wave.steps.iter().enumerate() {
                    out.push(sessions[step.slot].step(
                        wave.quality_factors(i),
                        step.outcome,
                        step.failed,
                    )?);
                }
            }
        }
        Ok(())
    }
}

/// The dense stage-major table and its per-stage staging vectors.
#[derive(Debug)]
struct Stages {
    buffers: Vec<TimeseriesBuffer>,
    /// Per-slot adaptive state (adaptive workloads only).
    states: Vec<AdaptiveState>,
    scratch: ServingScratch,
    stateless: Vec<f64>,
    fused: Vec<u32>,
    taqf: Vec<TaqfVector>,
    uncertainty: Vec<f64>,
    support: Vec<RouteSupport>,
    adapted: Vec<f64>,
}

impl Stages {
    /// Replays the wave one layer at a time; returns the instants that
    /// bound the six stages.
    fn replay(
        &mut self,
        wrapper: &TimeseriesAwareWrapper,
        wave: &Wave,
    ) -> Result<[Instant; 7], CoreError> {
        for &(_, slot) in &wave.ended {
            self.buffers[slot].clear();
            if let Some(state) = self.states.get_mut(slot) {
                state.reset();
            }
        }
        for &(_, slot) in &wave.begun {
            self.buffers[slot].clear();
        }
        let adaptive = !self.states.is_empty();
        self.stateless.clear();
        self.fused.clear();
        self.taqf.clear();
        self.uncertainty.clear();
        self.support.clear();
        self.adapted.clear();

        let t0 = Instant::now();
        for i in 0..wave.steps.len() {
            self.stateless
                .push(wrapper.stateless().uncertainty(wave.quality_factors(i))?);
        }
        let t1 = Instant::now();
        for (step, &u) in wave.steps.iter().zip(&self.stateless) {
            let buffer = &mut self.buffers[step.slot];
            buffer.push(step.outcome, u);
            self.fused.push(
                buffer
                    .fused_outcome()
                    .expect("the buffer is non-empty after a push"),
            );
        }
        let t2 = Instant::now();
        for (step, &fused) in wave.steps.iter().zip(&self.fused) {
            self.taqf.push(
                TaqfVector::compute(&self.buffers[step.slot], fused)
                    .expect("the buffer is non-empty after a push"),
            );
        }
        let t3 = Instant::now();
        for (i, taqf) in self.taqf.iter().enumerate() {
            self.uncertainty.push(wrapper.ta_uncertainty_with_scratch(
                &mut self.scratch,
                wave.quality_factors(i),
                taqf,
            )?);
        }
        let t4 = Instant::now();
        if adaptive {
            for (i, taqf) in self.taqf.iter().enumerate() {
                self.support.push(wrapper.route_support_with_scratch(
                    &mut self.scratch,
                    wave.quality_factors(i),
                    taqf,
                )?);
            }
        }
        let t5 = Instant::now();
        if adaptive {
            for (i, step) in wave.steps.iter().enumerate() {
                let state = &mut self.states[step.slot];
                let served = state.adapted_bound(self.uncertainty[i]);
                black_box(state.classify(self.support[i]));
                state.observe(served, step.failed);
                self.adapted.push(served);
            }
        }
        let t6 = Instant::now();
        Ok([t0, t1, t2, t3, t4, t5, t6])
    }

    /// Steps whose stage-major fused outcome or bounds differ from `served`.
    fn diverged(&self, served: &[TauwStep]) -> u64 {
        let adapted = |i: usize| self.adapted.get(i).copied().unwrap_or(self.uncertainty[i]);
        served
            .iter()
            .enumerate()
            .filter(|&(i, s)| {
                s.fused_outcome != self.fused[i]
                    || s.uncertainty.to_bits() != self.uncertainty[i].to_bits()
                    || s.adapted_uncertainty.to_bits() != adapted(i).to_bits()
            })
            .count() as u64
    }
}

fn diverged(replayed: &[TauwStep], served: &[TauwStep]) -> u64 {
    if replayed.len() != served.len() {
        return served.len() as u64;
    }
    replayed
        .iter()
        .zip(served)
        .filter(|(a, b)| !crate::serve::same_bits(a, b))
        .count() as u64
}

/// The replicas of a traced run and the spans recorded over them.
#[derive(Debug)]
pub struct Ledger<'w> {
    wrapper: &'w TimeseriesAwareWrapper,
    adaptive: bool,
    sharded: ShardedEngine,
    engine: TauwEngine,
    floor: Floor<'w>,
    floor_out: Vec<TauwStep>,
    stages: Stages,
    adaptive_batch: Vec<AdaptiveStreamStep>,
    /// The recorded spans.
    pub tracer: Tracer,
    /// Whether spans are recorded (replicas replay every wave regardless,
    /// so they stay in step with the served engine).
    pub recording: bool,
    /// Seconds spent replaying.
    pub busy_s: f64,
    /// Streams the recorded waves created.
    pub streams_created: u64,
}

impl<'w> Ledger<'w> {
    /// Empty replicas for a workload of `shape` served from `wrapper`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] if adaptation cannot be enabled.
    pub fn new(wrapper: &'w TimeseriesAwareWrapper, shape: &Shape) -> Result<Self, CoreError> {
        let config = AdaptiveConfig::default();
        let mut sharded = ShardedEngine::new(wrapper.clone(), shape.shards);
        sharded.threads(1).max_streams_per_shard(shape.shard_cap);
        let mut engine = TauwEngine::new(wrapper.clone());
        engine.threads(1);
        if let Some(window) = shape.window {
            sharded.buffer_capacity(window);
            engine.buffer_capacity(window);
        }
        let floor = if shape.adaptive {
            sharded.enable_adaptation(config)?;
            engine.enable_adaptation(config)?;
            Floor::Adaptive(
                (0..shape.slots)
                    .map(|_| wrapper.new_adaptive_session(config))
                    .collect::<Result<_, _>>()?,
            )
        } else {
            Floor::Plain {
                buffers: (0..shape.slots)
                    .map(|_| fresh_buffer(shape.window))
                    .collect(),
                scratch: ServingScratch::new(),
            }
        };
        let states = if shape.adaptive {
            vec![AdaptiveState::new(config)?; shape.slots]
        } else {
            Vec::new()
        };
        Ok(Ledger {
            wrapper,
            adaptive: shape.adaptive,
            sharded,
            engine,
            floor,
            floor_out: Vec::new(),
            stages: Stages {
                buffers: (0..shape.slots)
                    .map(|_| fresh_buffer(shape.window))
                    .collect(),
                states,
                scratch: ServingScratch::new(),
                stateless: Vec::new(),
                fused: Vec::new(),
                taqf: Vec::new(),
                uncertainty: Vec::new(),
                support: Vec::new(),
                adapted: Vec::new(),
            },
            adaptive_batch: Vec::new(),
            tracer: Tracer::new(),
            recording: false,
            busy_s: 0.0,
            streams_created: 0,
        })
    }

    /// Records the served wave's spans from the instants that bound its
    /// `end_stream` calls, `begin_series` calls and step call.
    pub fn record_serve(
        &mut self,
        wave_id: u64,
        t0: Instant,
        t1: Instant,
        t2: Instant,
        t3: Instant,
        wave: &Wave,
    ) {
        if !self.recording {
            return;
        }
        self.streams_created += wave.created as u64;
        let tracer = &mut self.tracer;
        let parent = Some(tracer.record(wave_id, SERVE, None, t0, t3, wave.steps.len()));
        tracer.record(wave_id, END_STREAM, parent, t0, t1, wave.ended.len());
        tracer.record(wave_id, BEGIN_SERIES, parent, t1, t2, wave.begun.len());
        tracer.record(wave_id, STEP_MANY, parent, t2, t3, wave.steps.len());
    }

    fn span(
        &mut self,
        wave_id: u64,
        name: &'static str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
        count: usize,
    ) -> Option<usize> {
        self.recording
            .then(|| self.tracer.record(wave_id, name, parent, start, end, count))
    }

    /// Replays the served wave through every replica; returns how many
    /// replayed steps differ from `served`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] if a replica refuses the wave.
    pub fn replay(
        &mut self,
        wave_id: u64,
        wave: &Wave,
        served: &[TauwStep],
    ) -> Result<u64, CoreError> {
        let start = Instant::now();
        let n = wave.steps.len();
        let batch = if self.adaptive {
            wave.adaptive_batch(&mut self.adaptive_batch);
            Vec::new()
        } else {
            wave.borrowed()
        };
        let mut diverged_steps = 0;

        let t0 = Instant::now();
        for &(stream, _) in &wave.ended {
            self.sharded.end_stream(stream);
        }
        for &(stream, _) in &wave.begun {
            if !self.sharded.begin_series(stream).is_accepted() {
                return Err(CoreError::InvalidInput {
                    reason: format!("the sharded replica refused {stream}"),
                });
            }
        }
        let out = if self.adaptive {
            self.sharded.step_many_adaptive(&self.adaptive_batch)?
        } else {
            self.sharded.step_many_borrowed(&batch)?
        };
        let t1 = Instant::now();
        self.span(wave_id, SHARDED, None, t0, t1, n);
        diverged_steps += diverged(&out, served);

        let t0 = Instant::now();
        for &(stream, _) in &wave.ended {
            self.engine.end_stream(stream);
        }
        for &(stream, _) in &wave.begun {
            self.engine.begin_series(stream);
        }
        let out = if self.adaptive {
            self.engine.step_many_adaptive(&self.adaptive_batch)?
        } else {
            self.engine.step_many_borrowed(&batch)?
        };
        let t1 = Instant::now();
        self.span(wave_id, ENGINE, None, t0, t1, n);
        diverged_steps += diverged(&out, served);
        drop(batch);

        let t0 = Instant::now();
        self.floor.replay(self.wrapper, wave, &mut self.floor_out)?;
        let t1 = Instant::now();
        self.span(wave_id, FLOOR, None, t0, t1, n);
        diverged_steps += diverged(&self.floor_out, served);

        let bounds = self.stages.replay(self.wrapper, wave)?;
        let parent = self.span(wave_id, STAGES, None, bounds[0], bounds[6], n);
        for (stage, name) in STAGE_NAMES.iter().enumerate() {
            // The two adaptive stages do no work on plain workloads.
            let count = if stage >= 4 && !self.adaptive { 0 } else { n };
            self.span(
                wave_id,
                name,
                parent,
                bounds[stage],
                bounds[stage + 1],
                count,
            );
        }
        diverged_steps += self.stages.diverged(served);

        if self.recording {
            let mut items = [(); THREADS];
            let t0 = Instant::now();
            parallel::par_map_mut(THREADS, &mut items, |_| ());
            let t1 = Instant::now();
            self.span(wave_id, DISPATCH, None, t0, t1, 1);
        }
        self.busy_s += start.elapsed().as_secs_f64();
        Ok(diverged_steps)
    }
}

/// Live streams per shard of `engine`, as max / mean.
pub fn shard_skew(engine: &ShardedEngine) -> f64 {
    let counts: Vec<usize> = (0..engine.n_shards())
        .filter_map(|shard| engine.shard_n_streams(shard))
        .collect();
    let max = counts.iter().copied().max().unwrap_or(0) as f64;
    let mean = counts.iter().sum::<usize>() as f64 / counts.len().max(1) as f64;
    if mean == 0.0 {
        0.0
    } else {
        max / mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::Served;

    fn span(wave: u64, name: &'static str, ns: u64, count: u64) -> Span {
        Span {
            wave,
            name,
            parent: None,
            start_ns: 1_000,
            end_ns: 1_000 + ns,
            count,
        }
    }

    #[test]
    fn sharded_path_rows_add_up_to_the_sharded_ns_per_step() {
        let mut spans = Vec::new();
        for wave in 0..9 {
            spans.push(span(wave, SERVE, 5_000 + 37 * wave, 100));
            spans.push(span(wave, SHARDED, 31_000 + 173 * wave * wave, 100));
            spans.push(span(wave, ENGINE, 27_500 + 911 * (wave % 4), 100));
            spans.push(span(wave, FLOOR, 9_000 + 59 * wave, 100));
        }
        let rows: std::collections::BTreeMap<_, _> = layer_rows(&spans, 0)
            .into_iter()
            .map(|(name, v, _)| (name, v))
            .collect();
        let sum = rows["dense.floor_ns"]
            + rows["engine.wave_overhead_ns"]
            + rows["sharded.route_merge_ns"];
        assert!(
            (sum - rows["ledger.sharded_ns"]).abs() < 1e-9,
            "{sum} vs {}",
            rows["ledger.sharded_ns"]
        );
    }

    #[test]
    fn a_traced_run_fills_the_ledger_and_its_replicas_agree() {
        let world = crate::serve::tests::toy_world();
        let shape = crate::serve::tests::toy_shape();
        let mut served = Served::new(&world, &shape, true).unwrap();
        served.ledger.as_mut().unwrap().recording = true;
        for _ in 0..30 {
            served.serve_wave();
        }
        assert_eq!(
            served.tally.failed(),
            0,
            "replicas diverged from the served engine"
        );
        let ledger = served.ledger.as_ref().unwrap();
        let rows: std::collections::BTreeMap<_, _> =
            layer_rows(&ledger.tracer.spans, ledger.streams_created)
                .into_iter()
                .map(|(name, v, _)| (name, v))
                .collect();
        for name in [
            "wrapper.qim_ns",
            "taqim.ns",
            "dense.floor_ns",
            "ledger.sharded_ns",
            "engine.end_stream_ns",
        ] {
            assert!(rows[name] > 0.0, "{name} is empty");
        }
        assert_eq!(rows["adaptive.route_support_ns"], 0.0);
        assert_eq!(rows["wave.steps"], 24.0);
        assert!(
            (rows["wave.streams_created"] - 2.4).abs() < 0.2,
            "a tenth of the tracks turn over"
        );
        let sum = rows["dense.floor_ns"]
            + rows["engine.wave_overhead_ns"]
            + rows["sharded.route_merge_ns"];
        assert!((sum - rows["ledger.sharded_ns"]).abs() < 1e-6);
        assert!(ledger.tracer.to_tsv().lines().count() > 30 * 10);
    }
}
