//! The three named workloads: how each builds its world and model, and the
//! deterministic closed-loop wave traffic it replays from a seed.
//!
//! Worlds and models are built from one fixed seed, [`WORLD_SEED`]; the
//! run's seed drives only the traffic (series order, stream ids, cohort
//! draws). A model trained from another seed has trees of another shape
//! and so another cost per step, which would make runs of different seeds
//! measure different workloads.

use std::time::Instant;
use tauw_core::engine::{AdaptiveStreamStep, StreamId};
use tauw_core::tauw::TimeseriesAwareWrapper;
use tauw_core::training::TrainingSeries;
use tauw_core::CoreError;
use tauw_experiments::{ExperimentContext, DEFAULT_SEED};
use tauw_sim::{DatasetBuilder, RegimeParams, ScenarioFamily, SimConfig};
use tauw_stats::bootstrap::SplitMix64;

/// Engine thread budget of every workload. Fixed rather than read from
/// the host so results compare across hosts; every result prints `nproc`
/// beside it.
pub const THREADS: usize = 2;

/// The seed every world and model is generated and trained from: the
/// experiments' default seed.
pub const WORLD_SEED: u64 = DEFAULT_SEED;

/// Tracks join `STAGGER` waves apart in phase, so with the paper's
/// length-10 test series a tenth of the tracks turn over on every wave.
const STAGGER: usize = 10;

/// Members of the `adaptive_forest` taQIM.
const FOREST_TREES: usize = 16;

/// Streams in the `cohort_100k` cohort.
const COHORT_STREAMS: usize = 100_000;

/// The cohort's ground-truth class; outcome 3 is the confusion.
pub const COHORT_TRUTH: u32 = 7;

/// Bounded window of every cohort stream buffer.
const COHORT_WINDOW: usize = 64;

const ORDER_SALT: u64 = 0x0DE5_0001;
const ID_SALT: u64 = 0x1D5A_0002;
const PASS_SALT: u64 = 0x9A55_0003;
const DRAW_SALT: u64 = 0xD8A1_0004;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The paper's TSR world replayed as 256 short-lived tracks.
    TsrTracks,
    /// 100k long-lived streams over the one-factor soak model.
    Cohort100k,
    /// The paper world with a 16-member forest taQIM, adaptive
    /// calibration and the regime-switch test split.
    AdaptiveForest,
}

/// The static shape of a workload, printed with every result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Shape {
    /// Concurrent streams (track slots or cohort members).
    pub slots: usize,
    /// Engine shards of the served `ShardedEngine`.
    pub shards: usize,
    /// Live-stream admission cap per shard.
    pub shard_cap: usize,
    /// Bounded buffer window, or `None` for whole-series buffers.
    pub window: Option<usize>,
    /// Whether adaptive calibration is on.
    pub adaptive: bool,
    /// Every `check_stride`-th slot is replayed through a reference session.
    pub check_stride: usize,
    /// Waves served during set-up (stream creation, window fill).
    pub warmup_waves: usize,
}

impl Kind {
    /// Every workload, in a stable order.
    pub const ALL: [Kind; 3] = [Kind::TsrTracks, Kind::Cohort100k, Kind::AdaptiveForest];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::TsrTracks => "tsr_tracks",
            Kind::Cohort100k => "cohort_100k",
            Kind::AdaptiveForest => "adaptive_forest",
        }
    }

    /// Parses a command-line name.
    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|kind| kind.name() == name)
    }

    /// The workload's shape.
    pub fn shape(self) -> Shape {
        match self {
            Kind::TsrTracks => Shape {
                slots: 256,
                shards: 2,
                shard_cap: 256,
                window: None,
                adaptive: false,
                check_stride: 4,
                warmup_waves: STAGGER,
            },
            Kind::Cohort100k => Shape {
                slots: COHORT_STREAMS,
                shards: 8,
                shard_cap: COHORT_STREAMS / 4,
                window: Some(COHORT_WINDOW),
                adaptive: false,
                check_stride: 64,
                // One admission wave, then one wave per window step.
                warmup_waves: 1 + COHORT_WINDOW,
            },
            Kind::AdaptiveForest => Shape {
                slots: 1024,
                shards: 2,
                shard_cap: 1024,
                window: None,
                adaptive: true,
                check_stride: 16,
                // Stagger, then fill the default 20-step coverage window.
                warmup_waves: 4 * STAGGER,
            },
        }
    }
}

/// A workload's world: the served model and the series it replays.
#[derive(Debug, Clone)]
pub struct World {
    /// Which workload this world belongs to.
    pub kind: Kind,
    /// The run's seed, which drives the traffic.
    pub seed: u64,
    /// The trained wrapper every engine and reference serves.
    pub wrapper: TimeseriesAwareWrapper,
    /// Series replayed as tracks (empty for the cohort, whose traffic is
    /// drawn per step).
    pub series: Vec<TrainingSeries>,
    /// Seconds spent generating data.
    pub sim_s: f64,
    /// Seconds spent training and calibrating.
    pub fit_s: f64,
}

impl World {
    /// Builds the world of `kind` from [`WORLD_SEED`]; its traffic will be
    /// drawn from `seed`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] if the simulator configuration is invalid or
    /// training fails.
    pub fn build(kind: Kind, seed: u64) -> Result<World, CoreError> {
        if kind == Kind::Cohort100k {
            let start = Instant::now();
            let wrapper = tauw_bench::soak::soak_wrapper();
            return Ok(World {
                kind,
                seed,
                wrapper,
                series: Vec::new(),
                sim_s: 0.0,
                fit_s: start.elapsed().as_secs_f64(),
            });
        }
        // `ExperimentContext::build(1.0, WORLD_SEED)`, split so data
        // generation and training are timed apart.
        let start = Instant::now();
        let config = SimConfig::default();
        let data = DatasetBuilder::new(config.clone(), WORLD_SEED)
            .map_err(|reason| CoreError::InvalidInput { reason })?
            .build();
        let mut sim_s = start.elapsed().as_secs_f64();
        let start = Instant::now();
        let ctx = ExperimentContext::build_with_dataset(config, data, WORLD_SEED)?;
        if kind == Kind::TsrTracks {
            return Ok(World {
                kind,
                seed,
                wrapper: ctx.tauw,
                series: ctx.test,
                sim_s,
                fit_s: start.elapsed().as_secs_f64(),
            });
        }
        let wrapper = ctx.tauw_forest_variant(FOREST_TREES, WORLD_SEED)?;
        let fit_s = start.elapsed().as_secs_f64();
        let start = Instant::now();
        let series = ctx.scenario_test(ScenarioFamily::RegimeSwitch(RegimeParams::default()))?;
        sim_s += start.elapsed().as_secs_f64();
        Ok(World {
            kind,
            seed,
            wrapper,
            series,
            sim_s,
            fit_s,
        })
    }
}

/// One step of a wave.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WaveStep {
    /// The stream the step belongs to.
    pub stream: StreamId,
    /// The stream's slot: its index in dense per-slot tables.
    pub slot: usize,
    /// The DDM outcome.
    pub outcome: u32,
    /// Whether the outcome disagrees with the ground truth.
    pub failed: bool,
    /// The ground-truth class.
    pub truth: u32,
}

/// One closed-loop wave: lifecycle calls, then one batched step call.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Wave {
    /// Streams closed with `end_stream` before the step, with their slots.
    pub ended: Vec<(StreamId, usize)>,
    /// Streams whose series begins (created if new) before the step.
    pub begun: Vec<(StreamId, usize)>,
    /// How many of `begun` are new streams.
    pub created: usize,
    /// The batched steps, in submission order.
    pub steps: Vec<WaveStep>,
    qf: Vec<f64>,
    arity: usize,
}

impl Wave {
    fn clear(&mut self) {
        self.ended.clear();
        self.begun.clear();
        self.created = 0;
        self.steps.clear();
        self.qf.clear();
    }

    fn push(&mut self, step: WaveStep, quality_factors: &[f64]) {
        self.arity = quality_factors.len();
        self.qf.extend_from_slice(quality_factors);
        self.steps.push(step);
    }

    /// The quality factors of step `i`.
    pub fn quality_factors(&self, i: usize) -> &[f64] {
        &self.qf[i * self.arity..(i + 1) * self.arity]
    }

    /// The wave as a `step_many_borrowed` batch.
    pub fn borrowed(&self) -> Vec<(StreamId, &[f64], u32)> {
        self.steps
            .iter()
            .enumerate()
            .map(|(i, step)| (step.stream, self.quality_factors(i), step.outcome))
            .collect()
    }

    /// Refills `batch` in place as the wave's `step_many_adaptive` batch
    /// (no allocation once the entries exist).
    pub fn adaptive_batch(&self, batch: &mut Vec<AdaptiveStreamStep>) {
        batch.truncate(self.steps.len());
        for (i, step) in self.steps.iter().enumerate() {
            let qf = self.quality_factors(i);
            match batch.get_mut(i) {
                Some(entry) => {
                    entry.stream = step.stream;
                    entry.quality_factors.clear();
                    entry.quality_factors.extend_from_slice(qf);
                    entry.outcome = step.outcome;
                    entry.failed = step.failed;
                }
                None => batch.push(AdaptiveStreamStep::new(
                    step.stream,
                    qf.to_vec(),
                    step.outcome,
                    step.failed,
                )),
            }
        }
    }
}

/// Fisher–Yates shuffle driven by `rng`.
fn shuffle<T>(items: &mut [T], rng: &mut SplitMix64) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.next_index(i + 1));
    }
}

/// A workload's wave generator.
#[derive(Debug, Clone)]
pub enum Traffic<'w> {
    /// Series replayed over concurrent track slots.
    Tracks(Tracks<'w>),
    /// A long-lived cohort, every stream stepped once per wave.
    Cohort(Cohort),
}

impl<'w> Traffic<'w> {
    /// The traffic of `world`'s workload.
    pub fn new(world: &'w World, shape: &Shape) -> Traffic<'w> {
        match world.kind {
            Kind::Cohort100k => Traffic::Cohort(Cohort::new(world.seed, shape.slots)),
            Kind::TsrTracks => {
                Traffic::Tracks(Tracks::new(&world.series, shape.slots, true, world.seed))
            }
            Kind::AdaptiveForest => {
                Traffic::Tracks(Tracks::new(&world.series, shape.slots, false, world.seed))
            }
        }
    }

    /// Overwrites `wave` with the next wave.
    pub fn next_wave(&mut self, wave: &mut Wave) {
        wave.clear();
        match self {
            Traffic::Tracks(tracks) => tracks.next_wave(wave),
            Traffic::Cohort(cohort) => cohort.next_wave(wave),
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Track {
    stream: Option<StreamId>,
    series: usize,
    frame: usize,
}

/// Replays series over concurrent track slots. Slot `s` joins at wave
/// `s % 10`, then plays one series after another from a seeded order of the
/// series set; each wave steps every joined slot once.
#[derive(Debug, Clone)]
pub struct Tracks<'w> {
    series: &'w [TrainingSeries],
    order: Vec<usize>,
    cursor: usize,
    slots: Vec<Track>,
    /// Each series is a fresh stream closed with `end_stream` after its
    /// last frame; otherwise a slot is one long-lived stream that calls
    /// `begin_series` between series.
    fresh_streams: bool,
    next_id: u64,
    wave: usize,
}

impl<'w> Tracks<'w> {
    /// Replays `series` over `slots` tracks.
    ///
    /// # Panics
    ///
    /// Panics if every series is empty.
    pub fn new(series: &'w [TrainingSeries], slots: usize, fresh_streams: bool, seed: u64) -> Self {
        let mut order: Vec<usize> = (0..series.len())
            .filter(|&i| !series[i].is_empty())
            .collect();
        assert!(
            !order.is_empty(),
            "a track workload needs a non-empty series"
        );
        shuffle(&mut order, &mut SplitMix64::new(seed ^ ORDER_SALT));
        Tracks {
            series,
            order,
            cursor: 0,
            slots: vec![Track::default(); slots],
            fresh_streams,
            next_id: 0,
            wave: 0,
        }
    }

    fn next_wave(&mut self, wave: &mut Wave) {
        for s in 0..self.slots.len() {
            if self.wave < s % STAGGER {
                continue;
            }
            let track = &mut self.slots[s];
            if track.stream.is_none() || track.frame == self.series[track.series].len() {
                wave.created += usize::from(self.fresh_streams || track.stream.is_none());
                let stream = if self.fresh_streams {
                    if let Some(old) = track.stream {
                        wave.ended.push((old, s));
                    }
                    self.next_id += 1;
                    StreamId(self.next_id)
                } else {
                    track.stream.unwrap_or(StreamId(s as u64))
                };
                wave.begun.push((stream, s));
                track.stream = Some(stream);
                track.series = self.order[self.cursor % self.order.len()];
                track.frame = 0;
                self.cursor += 1;
            }
            let series = &self.series[track.series];
            let step = &series.steps[track.frame];
            track.frame += 1;
            wave.push(
                WaveStep {
                    stream: track.stream.expect("the track was started above"),
                    slot: s,
                    outcome: step.outcome,
                    failed: step.outcome != series.true_outcome,
                    truth: series.true_outcome,
                },
                &step.quality_factors,
            );
        }
        self.wave += 1;
    }
}

/// A long-lived cohort with SplitMix64-scrambled stream ids. The first wave
/// admits every stream; after that each wave steps every stream once, in a
/// freshly shuffled order.
#[derive(Debug, Clone)]
pub struct Cohort {
    seed: u64,
    ids: Vec<StreamId>,
    order: Vec<usize>,
    admitted: bool,
    pass: u64,
}

impl Cohort {
    /// A cohort of `streams` streams.
    pub fn new(seed: u64, streams: usize) -> Self {
        let ids = (0..streams as u64)
            .map(|i| StreamId(SplitMix64::new(seed ^ ID_SALT ^ i).next_u64()))
            .collect();
        Cohort {
            seed,
            ids,
            order: (0..streams).collect(),
            admitted: false,
            pass: 0,
        }
    }

    fn next_wave(&mut self, wave: &mut Wave) {
        if !self.admitted {
            self.admitted = true;
            wave.begun.extend(self.ids.iter().copied().zip(0..));
            wave.created = self.ids.len();
            return;
        }
        self.pass += 1;
        shuffle(
            &mut self.order,
            &mut SplitMix64::new(self.seed ^ self.pass.wrapping_mul(PASS_SALT)),
        );
        for &slot in &self.order {
            let (q, outcome) = cohort_draw(self.seed, slot as u64, self.pass);
            wave.push(
                WaveStep {
                    stream: self.ids[slot],
                    slot,
                    outcome,
                    failed: outcome != COHORT_TRUTH,
                    truth: COHORT_TRUTH,
                },
                &[q],
            );
        }
    }
}

/// The soak model's traffic shape: a uniform quality reading `q` and the
/// confusion class with probability `0.9·q`, drawn per `(stream, pass)`.
fn cohort_draw(seed: u64, slot: u64, pass: u64) -> (f64, u32) {
    let mut rng = SplitMix64::new(
        seed ^ DRAW_SALT
            ^ slot.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ pass.wrapping_mul(0xBF58_476D_1CE4_E5B9),
    );
    let q = rng.next_f64();
    let confused = rng.next_f64() < (q * 0.9).min(0.95);
    (q, if confused { 3 } else { COHORT_TRUTH })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tauw_core::training::TrainingStep;

    fn waves(traffic: &mut Traffic<'_>, n: usize) -> Vec<Wave> {
        (0..n)
            .map(|_| {
                let mut wave = Wave::default();
                traffic.next_wave(&mut wave);
                wave
            })
            .collect()
    }

    fn toy_series(n: usize) -> Vec<TrainingSeries> {
        (0..n)
            .map(|i| TrainingSeries {
                true_outcome: 7,
                steps: (0..10)
                    .map(|j| TrainingStep {
                        quality_factors: vec![(i * 10 + j) as f64],
                        outcome: if (i + j) % 3 == 0 { 3 } else { 7 },
                    })
                    .collect(),
            })
            .collect()
    }

    #[test]
    fn cohort_traffic_is_seed_deterministic() {
        let mut a = Traffic::Cohort(Cohort::new(11, 1000));
        let mut b = Traffic::Cohort(Cohort::new(11, 1000));
        let mut c = Traffic::Cohort(Cohort::new(12, 1000));
        let (wa, wb, wc) = (waves(&mut a, 4), waves(&mut b, 4), waves(&mut c, 4));
        assert_eq!(wa, wb);
        assert_ne!(wa[1], wc[1]);
        // The admission wave creates every stream once, with distinct ids.
        let mut ids: Vec<u64> = wa[0].begun.iter().map(|(id, _)| id.0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 1000);
        assert!(wa[0].steps.is_empty());
        // Each wave steps every stream exactly once, in a fresh order.
        for wave in &wa[1..] {
            let mut slots: Vec<usize> = wave.steps.iter().map(|s| s.slot).collect();
            assert_ne!(slots, (0..1000).collect::<Vec<_>>());
            slots.sort_unstable();
            assert_eq!(slots, (0..1000).collect::<Vec<_>>());
        }
        assert_ne!(wa[1].steps, wa[2].steps);
    }

    #[test]
    fn track_traffic_is_seed_deterministic_and_staggered() {
        let series = toy_series(40);
        let mut a = Traffic::Tracks(Tracks::new(&series, 30, true, 5));
        let mut b = Traffic::Tracks(Tracks::new(&series, 30, true, 5));
        let mut c = Traffic::Tracks(Tracks::new(&series, 30, true, 6));
        let (wa, wb, wc) = (waves(&mut a, 40), waves(&mut b, 40), waves(&mut c, 40));
        assert_eq!(wa, wb);
        assert_ne!(wa, wc);
        // Warm-up: slots join a tenth at a time.
        assert_eq!(wa[0].steps.len(), 3);
        assert_eq!(wa[9].steps.len(), 30);
        // Steady state: every slot steps, a tenth turn over per wave, and
        // each ended stream is never seen again.
        for wave in &wa[10..] {
            assert_eq!(wave.steps.len(), 30);
            assert_eq!(wave.ended.len(), 3);
            assert_eq!(wave.begun.len(), 3);
        }
        let ended: Vec<StreamId> = wa
            .iter()
            .flat_map(|w| w.ended.iter().map(|e| e.0))
            .collect();
        for (i, wave) in wa.iter().enumerate() {
            for step in &wave.steps {
                let closed_before = wa[..=i]
                    .iter()
                    .any(|w| w.ended.iter().any(|e| e.0 == step.stream));
                assert!(!closed_before, "stepped a closed stream");
            }
        }
        assert!(!ended.is_empty());
        // Long-lived slots keep their stream and only begin new series.
        let mut slots = Traffic::Tracks(Tracks::new(&series, 30, false, 5));
        let long = waves(&mut slots, 40);
        assert!(long.iter().all(|w| w.ended.is_empty()));
        assert_eq!(
            long.iter().map(|w| w.created).sum::<usize>(),
            30,
            "one stream per slot"
        );
        assert_eq!(wa[20].created, 3, "fresh streams are created per series");
        assert!(long[25]
            .begun
            .iter()
            .all(|&(id, slot)| id == StreamId(slot as u64)));
    }

    #[test]
    fn adaptive_batch_refills_in_place() {
        let mut wave = Wave::default();
        let mut cohort = Cohort::new(3, 10);
        cohort.next_wave(&mut wave);
        wave.clear();
        cohort.next_wave(&mut wave);
        let mut batch = Vec::new();
        wave.adaptive_batch(&mut batch);
        assert_eq!(batch.len(), 10);
        for (entry, (i, step)) in batch.iter().zip(wave.steps.iter().enumerate()) {
            assert_eq!(entry.stream, step.stream);
            assert_eq!(entry.quality_factors, wave.quality_factors(i));
            assert_eq!((entry.outcome, entry.failed), (step.outcome, step.failed));
        }
        wave.clear();
        cohort.next_wave(&mut wave);
        wave.adaptive_batch(&mut batch);
        assert_eq!(batch[0].stream, wave.steps[0].stream);
    }
}
