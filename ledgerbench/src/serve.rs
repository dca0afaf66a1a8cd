//! Serving a workload through the sharded engine: set-up and warm-up, the
//! timed wave call, and the untimed per-wave accounting (reference check,
//! quality, fingerprint).

use crate::ledger::Ledger;
use crate::workload::{Shape, Traffic, Wave, WaveStep, World, THREADS};
use std::time::Instant;
use tauw_core::adaptive::{AdaptiveConfig, AdaptiveTauwSession, DriftSignal};
use tauw_core::buffer::TimeseriesBuffer;
use tauw_core::calibration::ServingScratch;
use tauw_core::engine::AdaptiveStreamStep;
use tauw_core::sharded::ShardedEngine;
use tauw_core::tauw::{TauwSession, TauwStep, TimeseriesAwareWrapper};
use tauw_core::CoreError;

/// The fingerprint and the quality metrics cover the first timed waves
/// that hold at least this many steps: a fixed, seed-determined prefix, so
/// both repeat exactly for a seed.
pub const QUALITY_STEPS: u64 = 250_000;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Every output field of a step, as raw bits.
fn step_words(step: &TauwStep) -> [u64; 10] {
    let drift = match step.drift {
        DriftSignal::Stable => 0,
        DriftSignal::Drifting { epistemic } => 1 + u64::from(epistemic),
        DriftSignal::Noisy => 3,
        DriftSignal::SupportUnavailable => 4,
    };
    [
        u64::from(step.fused_outcome),
        step.uncertainty.to_bits(),
        step.stateless_uncertainty.to_bits(),
        step.adapted_uncertainty.to_bits(),
        step.series_length as u64,
        step.taqf.ratio.to_bits(),
        step.taqf.length.to_bits(),
        step.taqf.unique_outcomes.to_bits(),
        step.taqf.cumulative_certainty.to_bits(),
        drift,
    ]
}

/// Whether two steps agree in every field, bit for bit.
pub fn same_bits(a: &TauwStep, b: &TauwStep) -> bool {
    step_words(a) == step_words(b)
}

/// Failure and quality accounting over a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tally {
    /// Steps submitted.
    pub attempted: u64,
    /// Steps of waves whose step call returned `Err`.
    pub errors: u64,
    /// Checked steps that differ from their reference.
    pub mismatches: u64,
    /// Admission rejections and lifecycle calls on unknown streams.
    pub rejected: u64,
    /// Steps compared against a reference.
    pub checked: u64,
    /// Timed waves folded into the quality metrics and fingerprint.
    pub quality_waves: u64,
    /// Steps of those waves.
    pub quality_steps: u64,
    fused_correct: u64,
    brier_sum: f64,
    /// FNV-1a over every output field of the quality waves, in order.
    pub fingerprint: u64,
}

impl Default for Tally {
    fn default() -> Self {
        Tally {
            attempted: 0,
            errors: 0,
            mismatches: 0,
            rejected: 0,
            checked: 0,
            quality_waves: 0,
            quality_steps: 0,
            fused_correct: 0,
            brier_sum: 0.0,
            fingerprint: FNV_OFFSET,
        }
    }
}

impl Tally {
    /// Failed steps: errors, reference mismatches and rejections.
    pub fn failed(&self) -> u64 {
        self.errors + self.mismatches + self.rejected
    }

    /// Failed steps per attempted step.
    pub fn failed_share(&self) -> f64 {
        self.failed() as f64 / self.attempted.max(1) as f64
    }

    /// Share of quality-window steps whose fused outcome is the ground
    /// truth.
    pub fn fused_accuracy(&self) -> f64 {
        self.fused_correct as f64 / self.quality_steps.max(1) as f64
    }

    /// Mean squared gap between the served uncertainty and the fused
    /// outcome's failure indicator over the quality window.
    pub fn brier_score(&self) -> f64 {
        self.brier_sum / self.quality_steps.max(1) as f64
    }

    fn record_quality(&mut self, wave: &Wave, steps: &[TauwStep]) {
        self.quality_waves += 1;
        for (input, step) in wave.steps.iter().zip(steps) {
            let failed = step.fused_outcome != input.truth;
            self.quality_steps += 1;
            self.fused_correct += u64::from(!failed);
            self.brier_sum += (step.adapted_uncertainty - f64::from(u8::from(failed))).powi(2);
            for word in step_words(step) {
                for byte in word.to_le_bytes() {
                    self.fingerprint = (self.fingerprint ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
                }
            }
        }
    }
}

/// One slot's reference: the dedicated session a stream would have if it
/// were served alone.
#[derive(Debug)]
enum Reference<'w> {
    Session(TauwSession<'w>),
    Adaptive(AdaptiveTauwSession<'w>),
    /// Sessions keep whole-series buffers, so a bounded-window stream
    /// replays through `step_with_parts`, the routine sessions delegate to,
    /// over a bounded buffer of its own.
    Window(TimeseriesBuffer, ServingScratch),
}

impl Reference<'_> {
    fn begin_series(&mut self) {
        match self {
            Reference::Session(session) => session.begin_series(),
            Reference::Adaptive(session) => session.begin_series(),
            Reference::Window(buffer, _) => buffer.clear(),
        }
    }
}

/// Replays every `stride`-th slot through its own reference and compares
/// each served step with it bitwise.
#[derive(Debug)]
pub struct Checker<'w> {
    wrapper: &'w TimeseriesAwareWrapper,
    shape: Shape,
    refs: Vec<Option<Reference<'w>>>,
}

impl<'w> Checker<'w> {
    /// A checker for a workload of `shape` served from `wrapper`.
    pub fn new(wrapper: &'w TimeseriesAwareWrapper, shape: &Shape) -> Self {
        let stride = shape.check_stride.max(1);
        Checker {
            wrapper,
            shape: Shape {
                check_stride: stride,
                ..*shape
            },
            refs: (0..shape.slots.div_ceil(stride)).map(|_| None).collect(),
        }
    }

    fn fresh(&self) -> Result<Reference<'w>, CoreError> {
        Ok(match self.shape.window {
            Some(window) => {
                Reference::Window(TimeseriesBuffer::bounded(window), ServingScratch::new())
            }
            None if self.shape.adaptive => Reference::Adaptive(
                self.wrapper
                    .new_adaptive_session(AdaptiveConfig::default())?,
            ),
            None => Reference::Session(self.wrapper.new_session()),
        })
    }

    fn sampled(&self, slot: usize) -> Option<usize> {
        (slot % self.shape.check_stride == 0).then_some(slot / self.shape.check_stride)
    }

    fn expected(&mut self, i: usize, input: &WaveStep, wave: &Wave) -> Result<TauwStep, CoreError> {
        let k = input.slot / self.shape.check_stride;
        if self.refs[k].is_none() {
            self.refs[k] = Some(self.fresh()?);
        }
        let qf = wave.quality_factors(i);
        match self.refs[k].as_mut().expect("created above") {
            Reference::Session(session) => session.step(qf, input.outcome),
            Reference::Adaptive(session) => session.step(qf, input.outcome, input.failed),
            Reference::Window(buffer, scratch) => {
                self.wrapper
                    .step_with_parts(buffer, scratch, qf, input.outcome)
            }
        }
    }

    /// Applies the wave's lifecycle calls to the sampled references and
    /// compares every sampled served step. Returns `(checked, mismatches)`.
    pub fn check(&mut self, wave: &Wave, served: &[TauwStep]) -> (u64, u64) {
        for &(_, slot) in &wave.ended {
            if let Some(k) = self.sampled(slot) {
                self.refs[k] = None;
            }
        }
        for &(_, slot) in &wave.begun {
            if let Some(reference) = self.sampled(slot).and_then(|k| self.refs[k].as_mut()) {
                reference.begin_series();
            }
        }
        let (mut checked, mut mismatches) = (0, 0);
        for (i, (input, step)) in wave.steps.iter().zip(served).enumerate() {
            if self.sampled(input.slot).is_none() {
                continue;
            }
            checked += 1;
            match self.expected(i, input, wave) {
                Ok(expected) if same_bits(&expected, step) => {}
                _ => mismatches += 1,
            }
        }
        (checked, mismatches)
    }
}

/// One served wave's size and latency.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WaveTiming {
    /// Steps in the wave.
    pub steps: usize,
    /// Seconds in the wave's lifecycle calls plus its step call.
    pub seconds: f64,
}

/// A workload being served: the engine, its traffic, the checker, and in
/// a traced run the ledger replicas.
#[derive(Debug)]
pub struct Served<'w> {
    /// The served engine.
    pub engine: ShardedEngine,
    adaptive: bool,
    traffic: Traffic<'w>,
    wave: Wave,
    adaptive_batch: Vec<AdaptiveStreamStep>,
    checker: Checker<'w>,
    /// Failure and quality accounting.
    pub tally: Tally,
    /// Ledger replicas (traced runs only).
    pub ledger: Option<Ledger<'w>>,
    /// Whether warm-up is over: only timed waves feed the quality window.
    timed: bool,
    /// Waves served so far, warm-up included.
    waves: u64,
    /// Seconds spent building the engine and serving warm-up waves; the
    /// ledger replicas' construction and replay are not counted.
    pub engine_s: f64,
}

impl<'w> Served<'w> {
    /// Builds the engine for `world`, then serves the warm-up waves.
    /// `traced` also builds the ledger replicas, which replay every wave.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] if adaptation cannot be enabled.
    pub fn new(world: &'w World, shape: &Shape, traced: bool) -> Result<Self, CoreError> {
        // The replicas are built before the clock starts, and their replay
        // time is taken out of it below.
        let ledger = if traced {
            Some(Ledger::new(&world.wrapper, shape)?)
        } else {
            None
        };
        let start = Instant::now();
        let mut engine = ShardedEngine::new(world.wrapper.clone(), shape.shards);
        engine
            .threads(THREADS)
            .max_streams_per_shard(shape.shard_cap);
        if let Some(window) = shape.window {
            engine.buffer_capacity(window);
        }
        if shape.adaptive {
            engine.enable_adaptation(AdaptiveConfig::default())?;
        }
        let mut served = Served {
            engine,
            adaptive: shape.adaptive,
            traffic: Traffic::new(world, shape),
            wave: Wave::default(),
            adaptive_batch: Vec::new(),
            checker: Checker::new(&world.wrapper, shape),
            tally: Tally::default(),
            ledger,
            timed: false,
            waves: 0,
            engine_s: 0.0,
        };
        for _ in 0..shape.warmup_waves {
            served.serve_wave();
        }
        served.timed = true;
        let ledger_s = served.ledger.as_ref().map_or(0.0, |l| l.busy_s);
        served.engine_s = start.elapsed().as_secs_f64() - ledger_s;
        Ok(served)
    }

    /// Generates and serves the next wave. Only the lifecycle calls and
    /// the step call are timed; generating the batch, checking the outputs
    /// and the ledger replay are not.
    pub fn serve_wave(&mut self) -> WaveTiming {
        let Served {
            engine,
            adaptive,
            traffic,
            wave,
            adaptive_batch,
            checker,
            tally,
            ledger,
            timed,
            waves,
            ..
        } = self;
        traffic.next_wave(wave);
        let batch = if *adaptive {
            wave.adaptive_batch(adaptive_batch);
            Vec::new()
        } else {
            wave.borrowed()
        };

        let t0 = Instant::now();
        let mut unknown = 0u64;
        for &(stream, _) in &wave.ended {
            unknown += u64::from(!engine.end_stream(stream));
        }
        let t1 = Instant::now();
        let mut rejected = 0u64;
        for &(stream, _) in &wave.begun {
            rejected += u64::from(!engine.begin_series(stream).is_accepted());
        }
        let t2 = Instant::now();
        let result = if *adaptive {
            engine.step_many_adaptive(adaptive_batch)
        } else {
            engine.step_many_borrowed(&batch)
        };
        let t3 = Instant::now();
        drop(batch);

        let timing = WaveTiming {
            steps: wave.steps.len(),
            seconds: (t3 - t0).as_secs_f64(),
        };
        tally.attempted += wave.steps.len() as u64;
        tally.rejected += unknown + rejected;
        match result {
            Ok(steps) => {
                let (checked, mismatches) = checker.check(wave, &steps);
                tally.checked += checked;
                tally.mismatches += mismatches;
                if *timed && tally.quality_steps < QUALITY_STEPS {
                    tally.record_quality(wave, &steps);
                }
                if let Some(ledger) = ledger {
                    ledger.record_serve(*waves, t0, t1, t2, t3, wave);
                    match ledger.replay(*waves, wave, &steps) {
                        Ok(diverged) => tally.mismatches += diverged,
                        Err(e) => {
                            eprintln!("ledger replica failed on wave {waves}: {e}");
                            tally.errors += wave.steps.len() as u64;
                        }
                    }
                }
            }
            Err(e) => {
                eprintln!("wave {waves} failed: {e}");
                tally.errors += wave.steps.len() as u64;
            }
        }
        *waves += 1;
        timing
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::workload::Kind;
    use tauw_core::training::{TrainingSeries, TrainingStep};

    /// A tiny track world over the soak model.
    pub(crate) fn toy_world() -> World {
        let series = (0..60)
            .map(|i| TrainingSeries {
                true_outcome: 7,
                steps: (0..10)
                    .map(|j| TrainingStep {
                        quality_factors: vec![((i * 7 + j * 3) % 20) as f64 / 20.0],
                        outcome: if (i + j) % 4 == 0 { 3 } else { 7 },
                    })
                    .collect(),
            })
            .collect();
        World {
            kind: Kind::TsrTracks,
            seed: 9,
            wrapper: tauw_bench::soak::soak_wrapper(),
            series,
            sim_s: 0.0,
            fit_s: 0.0,
        }
    }

    pub(crate) fn toy_shape() -> Shape {
        Shape {
            slots: 24,
            shards: 3,
            shard_cap: 24,
            window: None,
            adaptive: false,
            check_stride: 1,
            warmup_waves: 10,
        }
    }

    #[test]
    fn served_waves_match_their_references() {
        let world = toy_world();
        let mut served = Served::new(&world, &toy_shape(), false).unwrap();
        for _ in 0..40 {
            served.serve_wave();
        }
        let tally = served.tally;
        assert_eq!(tally.failed(), 0);
        assert_eq!(tally.checked, tally.attempted, "stride 1 checks every step");
        assert_eq!(tally.quality_waves, 40);
        assert!(tally.fused_accuracy() > 0.0 && tally.brier_score() > 0.0);
        // A fresh set-up of the same seed serves the same outputs.
        let mut again = Served::new(&world, &toy_shape(), false).unwrap();
        for _ in 0..40 {
            again.serve_wave();
        }
        assert_eq!(again.tally, tally);
    }

    #[test]
    fn an_injected_mismatch_counts_in_failed_share() {
        let world = toy_world();
        let shape = toy_shape();
        let mut engine = ShardedEngine::new(world.wrapper.clone(), 2);
        let mut checker = Checker::new(&world.wrapper, &shape);
        let mut traffic = Traffic::new(&world, &shape);
        let mut tally = Tally::default();
        let mut wave = Wave::default();
        for n in 0..12 {
            traffic.next_wave(&mut wave);
            for &(stream, _) in &wave.ended {
                engine.end_stream(stream);
            }
            let mut steps = engine.step_many_borrowed(&wave.borrowed()).unwrap();
            if n == 11 {
                steps[5].uncertainty = f64::from_bits(steps[5].uncertainty.to_bits() ^ 1);
            }
            let (checked, mismatches) = checker.check(&wave, &steps);
            tally.attempted += steps.len() as u64;
            tally.checked += checked;
            tally.mismatches += mismatches;
        }
        assert_eq!(tally.mismatches, 1, "a one-ulp change is a mismatch");
        assert_eq!(tally.failed(), 1);
        assert_eq!(tally.failed_share(), 1.0 / tally.attempted as f64);
    }
}
