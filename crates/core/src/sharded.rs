//! Sharded serving: the engine's stream table as `K` hash partitions.
//!
//! A shard is a hash partition of the [`ShardedEngine`] stream table, not
//! a separate engine: every wave runs once over the whole table (see
//! [`crate::engine`]). Shards add the two service-grade properties a
//! long-running deployment needs:
//!
//! * **Admission control** — a configurable per-shard live-stream cap
//!   turns unbounded table growth into a typed [`Admission`] outcome.
//!   [`ShardedEngine::end_stream`] reclaims capacity.
//! * **Live snapshot/restore** — [`ShardedEngine::snapshot_shard`] exports
//!   one shard's complete per-stream state as an [`EngineShardState`]
//!   artifact through the versioned persistence layer
//!   ([`crate::persist::FORMAT_VERSION`], kind `EngineShard`).
//!   [`ShardedEngine::restore`] re-hashes the streams into the *current*
//!   shard layout, so a snapshot taken at K shards restores into K' shards
//!   with bit-identical estimates from there on.
//!
//! Because every stream's state is self-contained, served results are
//! bit-identical to N sequential [`crate::tauw::TauwSession`]s at *any*
//! shard count and thread budget (asserted by `tests/determinism.rs` and
//! the resharding proptest).
//!
//! # Shard hash
//!
//! Streams map to shards via a SplitMix64 finalizer over the raw
//! [`StreamId`] modulo the shard count. The finalizer is a fixed, platform
//! independent bijection on `u64`, so the assignment is stable across
//! processes and hosts (snapshots rely on this only for balance, not for
//! correctness: restore re-hashes under the current shard count). The
//! hash runs only when a stream is created, ended or snapshotted.
//!
//! # Example
//!
//! ```
//! use tauw_core::calibration::CalibrationOptions;
//! use tauw_core::engine::StreamId;
//! use tauw_core::sharded::{Admission, ShardedEngine};
//! use tauw_core::tauw::TauwBuilder;
//! use tauw_core::training::{TrainingSeries, TrainingStep};
//! use tauw_core::wrapper::WrapperBuilder;
//!
//! // Train a tiny wrapper (same toy world as the crate quickstart).
//! let series = |q: f64, outcomes: &[u32]| TrainingSeries {
//!     true_outcome: 0,
//!     steps: outcomes
//!         .iter()
//!         .map(|&o| TrainingStep { quality_factors: vec![q], outcome: o })
//!         .collect(),
//! };
//! let mut train = Vec::new();
//! let mut calib = Vec::new();
//! for i in 0..120 {
//!     let q = (i % 12) as f64 / 12.0;
//!     let outcomes: Vec<u32> = (0..10).map(|j| u32::from(q > 0.6 && j % 3 == 0)).collect();
//!     train.push(series(q, &outcomes));
//!     calib.push(series(q, &outcomes));
//! }
//! let mut wb = WrapperBuilder::new();
//! wb.max_depth(3).calibration(CalibrationOptions {
//!     min_samples_per_leaf: 50,
//!     confidence: 0.99,
//!     ..Default::default()
//! });
//! let mut builder = TauwBuilder::new();
//! builder.wrapper(wb);
//! let tauw = builder.fit(vec!["q".into()], &train, &calib)?;
//!
//! // Four shards, at most 2 live streams per shard.
//! let mut engine = ShardedEngine::new(tauw, 4);
//! engine.max_streams_per_shard(2);
//! let (q1, q2) = ([0.1], [0.9]);
//! let steps = engine.step_many_borrowed(&[(StreamId(1), &q1, 0), (StreamId(2), &q2, 1)])?;
//! assert_eq!(steps.len(), 2);
//! assert_eq!(engine.n_streams(), 2);
//! assert!(matches!(engine.admission(StreamId(1)), Admission::Accepted { .. }));
//!
//! // Snapshot every shard, restore into a *different* shard count: the
//! // stream state re-hashes and serving continues bit-identically.
//! let snapshots = engine.snapshot();
//! let mut resharded = ShardedEngine::new(engine.wrapper().clone(), 7);
//! for shard_state in &snapshots {
//!     resharded.restore(shard_state)?;
//! }
//! assert_eq!(resharded.n_streams(), 2);
//! # Ok::<(), tauw_core::CoreError>(())
//! ```

use crate::adaptive::AdaptiveState;
use crate::buffer::TimeseriesBuffer;
use crate::engine::StreamId;
use crate::error::CoreError;
use serde::{Deserialize, Serialize};

pub use crate::engine::ShardedEngine;

/// Outcome of an admission check: either the stream is (or may become)
/// live on a shard, or the shard is at its live-stream cap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use = "a rejected admission means the stream is NOT being served"]
pub enum Admission {
    /// The stream is live on `shard`, or there is capacity for it there.
    Accepted {
        /// The shard serving (or about to serve) the stream.
        shard: usize,
    },
    /// The stream cannot be admitted.
    Rejected {
        /// Why admission failed.
        reason: AdmissionReason,
    },
}

impl Admission {
    /// Whether the stream is (or may become) live.
    pub fn is_accepted(&self) -> bool {
        matches!(self, Admission::Accepted { .. })
    }
}

/// Why a stream was refused admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionReason {
    /// The stream's shard is at its configured live-stream cap.
    ShardFull {
        /// The shard the stream hashes to.
        shard: usize,
        /// Live streams currently on that shard.
        live: usize,
        /// The configured per-shard cap.
        cap: usize,
    },
}

impl std::fmt::Display for AdmissionReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmissionReason::ShardFull { shard, live, cap } => {
                write!(f, "shard {shard} is at its live-stream cap ({live}/{cap})")
            }
        }
    }
}

pub(crate) fn admission_error(stream: StreamId, reason: AdmissionReason) -> CoreError {
    CoreError::InvalidInput {
        reason: format!(
            "admission rejected for {stream}: {reason} — end finished streams \
             (`ShardedEngine::end_stream`) to reclaim capacity, or raise \
             `max_streams_per_shard`"
        ),
    }
}

/// SplitMix64 finalizer: a fixed, platform-independent bijection on `u64`
/// used as the shard hash. Sequential stream ids (0, 1, 2, …) scatter
/// uniformly instead of landing on consecutive shards.
fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A snapshot of one shard's complete per-stream runtime state: the
/// restartable half of a serving process. Model state (the trained
/// wrapper) is persisted separately as its own
/// [`Artifact`](crate::persist::Artifact); stream state is what a restart
/// would otherwise lose.
///
/// Produced by [`ShardedEngine::snapshot_shard`], persisted through
/// [`Artifact::save`](crate::persist::Artifact::save) or
/// [`Artifact::to_artifact_json`](crate::persist::Artifact::to_artifact_json)
/// (artifact kind `EngineShard`), and re-installed — under *any* shard
/// count — via [`ShardedEngine::restore`]. Deserializing validates the
/// snapshot ([`EngineShardState::validate`]).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct EngineShardState {
    /// Index of the shard this snapshot was taken from.
    pub shard: usize,
    /// Shard count of the engine at snapshot time (provenance metadata;
    /// restore re-hashes, so it does not need to match the restoring
    /// engine).
    pub n_shards: usize,
    /// Per-stream runtime state, in ascending stream-id order.
    pub streams: Vec<StreamState>,
}

/// One stream's complete, self-contained runtime state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamState {
    /// The stream.
    pub stream: StreamId,
    /// The stream's fusion window (ring buffer + running aggregates).
    pub buffer: TimeseriesBuffer,
    /// The stream's online-calibration state, when adaptation was active.
    pub adaptive: Option<AdaptiveState>,
}

impl Deserialize for EngineShardState {
    /// Reads the three serialized fields and checks the shard-level shape;
    /// every stream's buffer and adaptive state have validated themselves
    /// while deserializing.
    fn deserialize(value: &serde::Value) -> Result<Self, serde::Error> {
        let map = serde::__expect_map(value, "EngineShardState")?;
        let field = |name| serde::__field(map, name, "EngineShardState");
        let state = EngineShardState {
            shard: Deserialize::deserialize(field("shard")?)?,
            n_shards: Deserialize::deserialize(field("n_shards")?)?,
            streams: Deserialize::deserialize(field("streams")?)?,
        };
        state
            .validate()
            .map_err(|e| serde::Error::custom(e.to_string()))?;
        Ok(state)
    }
}

impl EngineShardState {
    /// Checks the snapshot invariants; deserialization runs it. The
    /// component types validate themselves on load (buffers via
    /// `TimeseriesBuffer::from_parts`, adaptive state via
    /// `AdaptiveState::from_parts`); this checks the shard-level shape.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidInput`] when the shard index is out of
    /// range for the recorded shard count or the stream list is not
    /// strictly ascending by id.
    pub fn validate(&self) -> Result<(), CoreError> {
        if self.n_shards == 0 || self.shard >= self.n_shards {
            return Err(CoreError::InvalidInput {
                reason: format!(
                    "engine-shard snapshot carries shard index {} of {} shards",
                    self.shard, self.n_shards
                ),
            });
        }
        for pair in self.streams.windows(2) {
            if pair[0].stream >= pair[1].stream {
                return Err(CoreError::InvalidInput {
                    reason: format!(
                        "engine-shard snapshot streams are not strictly ascending: \
                         {} precedes {}",
                        pair[0].stream, pair[1].stream
                    ),
                });
            }
        }
        Ok(())
    }
}

impl ShardedEngine {
    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.live.len()
    }

    /// The shard a stream hashes to (see the [module docs](self)).
    pub fn shard_of(&self, stream: StreamId) -> usize {
        (splitmix64(stream.0) % self.live.len() as u64) as usize
    }

    /// Live streams on one shard, or `None` for an out-of-range index.
    pub fn shard_n_streams(&self, shard: usize) -> Option<usize> {
        self.live.get(shard).copied()
    }

    /// Caps the number of live streams per shard (clamped to ≥ 1).
    /// Uncapped by default. Once a shard is full, new streams are refused
    /// — [`ShardedEngine::admission`] returns [`Admission::Rejected`] and
    /// the step paths error without touching any stream state — until
    /// [`ShardedEngine::end_stream`] reclaims capacity. Streams already
    /// live above a newly lowered cap keep serving; the cap gates
    /// *admission*, not eviction.
    pub fn max_streams_per_shard(&mut self, cap: usize) -> &mut Self {
        self.max_streams_per_shard = Some(cap.max(1));
        self
    }

    /// Non-mutating admission check: where the stream would be served, or
    /// why it cannot be.
    pub fn admission(&self, stream: StreamId) -> Admission {
        let shard = self.shard_of(stream);
        let live = self.live[shard];
        match self.max_streams_per_shard {
            Some(cap) if live >= cap && !self.index.contains_key(&stream) => Admission::Rejected {
                reason: AdmissionReason::ShardFull { shard, live, cap },
            },
            _ => Admission::Accepted { shard },
        }
    }

    /// Checks that the streams in `new` — ids that are not live yet,
    /// repeats allowed — all fit under the per-shard cap together.
    /// Reports the first stream that would overflow.
    pub(crate) fn check_admissions(
        &self,
        new: impl Iterator<Item = StreamId>,
    ) -> Result<(), CoreError> {
        let Some(cap) = self.max_streams_per_shard else {
            return Ok(());
        };
        let mut new: Vec<(usize, StreamId)> = new.map(|s| (self.shard_of(s), s)).collect();
        new.sort_unstable();
        new.dedup();
        for group in new.chunk_by(|a, b| a.0 == b.0) {
            let shard = group[0].0;
            let live = self.live[shard];
            if let Some(&(_, stream)) = group.get(cap.saturating_sub(live)) {
                return Err(admission_error(
                    stream,
                    AdmissionReason::ShardFull { shard, live, cap },
                ));
            }
        }
        Ok(())
    }

    /// Exports one shard's complete per-stream state as a persistable
    /// [`EngineShardState`] (streams in ascending id order, so the
    /// artifact layout is canonical and round-trips byte-for-byte).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidInput`] for an out-of-range shard
    /// index.
    pub fn snapshot_shard(&self, shard: usize) -> Result<EngineShardState, CoreError> {
        if shard >= self.n_shards() {
            return Err(CoreError::InvalidInput {
                reason: format!(
                    "shard index {shard} is out of range for {} shards",
                    self.n_shards()
                ),
            });
        }
        let mut rows: Vec<_> = self
            .rows
            .iter()
            .filter(|row| self.shard_of(row.stream) == shard)
            .collect();
        rows.sort_unstable_by_key(|row| row.stream);
        let streams = rows
            .into_iter()
            .map(|row| StreamState {
                stream: row.stream,
                buffer: row.buffer.clone(),
                adaptive: row.adaptive.as_deref().cloned(),
            })
            .collect();
        Ok(EngineShardState {
            shard,
            n_shards: self.n_shards(),
            streams,
        })
    }

    /// Snapshots every shard (index order).
    pub fn snapshot(&self) -> Vec<EngineShardState> {
        (0..self.n_shards())
            .map(|shard| {
                self.snapshot_shard(shard)
                    .expect("in-range shard index cannot fail")
            })
            .collect()
    }

    /// Installs a shard snapshot into this engine, re-hashing every stream
    /// into the *current* shard layout — so a snapshot taken at K shards
    /// restores into K' shards, with bit-identical estimates from there on
    /// (stream state is self-contained). Existing streams with the same id
    /// are overwritten, adaptive state included; admission capacity is
    /// validated up front against the per-shard cap, so a rejected restore
    /// leaves the engine untouched.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidInput`] on an invalid snapshot or when
    /// the restored streams would overflow a shard's live-stream cap.
    pub fn restore(&mut self, state: &EngineShardState) -> Result<(), CoreError> {
        state.validate()?;
        self.check_admissions(
            state
                .streams
                .iter()
                .map(|entry| entry.stream)
                .filter(|stream| !self.index.contains_key(stream)),
        )?;
        for entry in &state.streams {
            let buffer = entry.buffer.clone();
            let adaptive = entry.adaptive.clone().map(Box::new);
            match self.index.get(&entry.stream) {
                Some(&row) => {
                    let row = &mut self.rows[row as usize];
                    row.buffer = buffer;
                    row.adaptive = adaptive;
                }
                None => {
                    self.insert_row(entry.stream, buffer, adaptive);
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adaptive::AdaptiveConfig;
    use crate::calibration::CalibrationOptions;
    use crate::engine::AdaptiveStreamStep;
    use crate::tauw::TauwBuilder;
    use crate::tauw::TimeseriesAwareWrapper;
    use crate::training::TrainingSeries;
    use crate::training::TrainingStep;
    use crate::wrapper::WrapperBuilder;

    /// Same miniature world as the engine tests.
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
                let series_bias = next() < 0.5;
                let steps = (0..steps)
                    .map(|_| {
                        let p_fail = (q * if series_bias { 1.3 } else { 0.5 }).min(0.95);
                        let failed = next() < p_fail;
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

    fn fitted() -> TimeseriesAwareWrapper {
        let train = make_series(300, 1, 10);
        let calib = make_series(300, 2, 10);
        let mut wb = WrapperBuilder::new();
        wb.max_depth(3).calibration(CalibrationOptions {
            min_samples_per_leaf: 50,
            confidence: 0.99,
            ..Default::default()
        });
        let mut b = TauwBuilder::new();
        b.wrapper(wb);
        b.fit(vec!["q".into()], &train, &calib).unwrap()
    }

    /// The shard hash is a frozen function: this duplicates the SplitMix64
    /// finalizer constants so an accidental edit of either copy fails.
    #[test]
    fn shard_hash_is_the_splitmix64_finalizer_and_spreads_sequential_ids() {
        let reference = |seed: u64| -> u64 {
            let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for seed in [0u64, 1, 2, 41, 0xDEAD_BEEF, u64::MAX] {
            assert_eq!(splitmix64(seed), reference(seed));
        }

        let engine = ShardedEngine::new(fitted(), 7);
        // Stable across calls …
        for id in 0..32u64 {
            assert_eq!(engine.shard_of(StreamId(id)), engine.shard_of(StreamId(id)));
            assert!(engine.shard_of(StreamId(id)) < 7);
        }
        // … and sequential ids touch every shard (no striding pathology).
        let mut touched = [false; 7];
        for id in 0..64u64 {
            touched[engine.shard_of(StreamId(id))] = true;
        }
        assert!(touched.iter().all(|&t| t), "sequential ids skip a shard");
    }

    #[test]
    fn shard_count_is_clamped_to_one_and_k1_serves_everything() {
        let mut engine = ShardedEngine::new(fitted(), 0);
        assert_eq!(engine.n_shards(), 1);
        for id in 0..8u64 {
            assert_eq!(engine.shard_of(StreamId(id)), 0);
            engine.step(StreamId(id), &[0.4], 7).unwrap();
        }
        assert_eq!(engine.n_streams(), 8);
        assert_eq!(engine.shard_n_streams(0), Some(8));
        assert_eq!(engine.shard_n_streams(1), None);
    }

    #[test]
    fn sharded_steps_match_engine_and_sessions_bitwise() {
        let tauw = fitted();
        let series = make_series(24, 77, 8);
        let mut reference = tauw.clone().into_engine();
        let reference_waves = reference.step_series_waves(&series).unwrap();
        for n_shards in [1usize, 2, 7] {
            for threads in [1usize, 2, 8] {
                let mut sharded = ShardedEngine::new(tauw.clone(), n_shards);
                sharded.threads(threads);
                let waves = sharded.step_series_waves(&series).unwrap();
                assert_eq!(
                    waves, reference_waves,
                    "shards={n_shards} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn admission_caps_are_enforced_and_reclaimed() {
        let mut engine = ShardedEngine::new(fitted(), 2);
        engine.max_streams_per_shard(1);

        // Fill both shards: find one stream per shard.
        let mut per_shard: [Option<StreamId>; 2] = [None, None];
        let mut id = 0u64;
        while per_shard.iter().any(Option::is_none) {
            let stream = StreamId(id);
            let shard = engine.shard_of(stream);
            if per_shard[shard].is_none() {
                per_shard[shard] = Some(stream);
                assert_eq!(engine.admit(stream), Admission::Accepted { shard });
                // Admission claims capacity immediately.
                assert_eq!(engine.stream_len(stream), Some(0));
            }
            id += 1;
        }
        assert_eq!(engine.n_streams(), 2);

        // Every further stream is rejected with a typed reason…
        let overflow = StreamId(id + 1000);
        let shard = engine.shard_of(overflow);
        assert_eq!(
            engine.admit(overflow),
            Admission::Rejected {
                reason: AdmissionReason::ShardFull {
                    shard,
                    live: 1,
                    cap: 1
                }
            }
        );
        // …while live streams keep being re-accepted and served.
        let live = per_shard[shard].unwrap();
        assert!(engine.admission(live).is_accepted());
        engine.step(live, &[0.2], 7).unwrap();

        // The step paths refuse the newcomer without touching state.
        let err = engine.step(overflow, &[0.2], 7).unwrap_err().to_string();
        assert!(err.contains("admission rejected"), "{err}");
        assert!(err.contains("end_stream"), "{err}");
        assert_eq!(engine.stream_len(overflow), None);
        let before: Vec<_> = engine.stream_ids();
        assert!(engine
            .step_many_borrowed(&[(live, &[0.2], 7), (overflow, &[0.2], 7)])
            .is_err());
        assert_eq!(engine.stream_ids(), before, "failed batch mutated state");
        assert_eq!(
            engine.stream_len(live),
            Some(1),
            "failed batch advanced a live stream"
        );

        // A batch whose *own* new streams overflow a shard is refused even
        // with free capacity right now.
        engine.end_stream(live);
        // Find two fresh streams hashing to the same (now free) shard.
        let mut fresh = Vec::new();
        let mut probe = id + 2000;
        while fresh.len() < 2 {
            let s = StreamId(probe);
            if engine.shard_of(s) == shard {
                fresh.push(s);
            }
            probe += 1;
        }
        assert!(engine
            .step_many_borrowed(&[(fresh[0], &[0.2], 7), (fresh[1], &[0.2], 7)])
            .is_err());
        // One alone is admitted: end_stream reclaimed the capacity.
        engine.step(fresh[0], &[0.2], 7).unwrap();
    }

    #[test]
    fn begin_series_and_end_stream_manage_lifecycle() {
        let mut engine = ShardedEngine::new(fitted(), 3);
        engine.step(StreamId(4), &[0.1], 7).unwrap();
        engine.step(StreamId(4), &[0.1], 7).unwrap();
        assert_eq!(engine.stream_total_steps(StreamId(4)), Some(2));
        assert!(engine.begin_series(StreamId(4)).is_accepted());
        assert_eq!(engine.stream_len(StreamId(4)), Some(0));
        assert_eq!(engine.stream_total_steps(StreamId(4)), Some(0));
        assert!(engine.end_stream(StreamId(4)));
        assert!(!engine.end_stream(StreamId(4)));
        engine.step(StreamId(5), &[0.1], 7).unwrap();
        engine.clear_streams();
        assert_eq!(engine.n_streams(), 0);
        assert_eq!(engine.stream_ids(), Vec::<StreamId>::new());
    }

    #[test]
    fn adaptive_sharded_serving_matches_adaptive_sessions() {
        let tauw = fitted();
        let config = AdaptiveConfig {
            window: 6,
            min_observations: 3,
            ..Default::default()
        };
        let mut sharded = ShardedEngine::new(tauw.clone(), 3);
        sharded.enable_adaptation(config).unwrap();
        assert_eq!(sharded.adaptive_config(), Some(config));
        let mut sessions: Vec<_> = (0..5)
            .map(|_| tauw.new_adaptive_session(config).unwrap())
            .collect();
        for round in 0..12 {
            let batch: Vec<AdaptiveStreamStep> = (0..5u64)
                .map(|s| {
                    let q = 0.1 + 0.15 * s as f64 + 0.02 * (round % 4) as f64;
                    let failed = (round + s as usize) % 3 == 0;
                    AdaptiveStreamStep::new(
                        StreamId(s),
                        vec![q],
                        if failed { 3 } else { 7 },
                        failed,
                    )
                })
                .collect();
            let got = sharded.step_many_adaptive(&batch).unwrap();
            for (entry, step) in batch.iter().zip(&got) {
                let expected = sessions[entry.stream.0 as usize]
                    .step(&entry.quality_factors, entry.outcome, entry.failed)
                    .unwrap();
                assert_eq!(step, &expected, "round {round} {}", entry.stream);
            }
        }
        for s in 0..5u64 {
            assert_eq!(
                sharded.adaptive_state(StreamId(s)).unwrap(),
                sessions[s as usize].adaptive_state()
            );
            assert_eq!(
                sharded.stream_drift(StreamId(s)),
                Some(sessions[s as usize].adaptive_state().last_drift())
            );
        }
    }

    #[test]
    fn step_many_adaptive_requires_enable_adaptation() {
        let mut engine = ShardedEngine::new(fitted(), 2);
        let err = engine
            .step_many_adaptive(&[AdaptiveStreamStep::new(StreamId(0), vec![0.2], 7, false)])
            .unwrap_err()
            .to_string();
        assert!(err.contains("enable_adaptation"), "{err}");
        assert!(engine.step_adaptive(StreamId(0), &[0.2], 7, false).is_err());
        assert_eq!(engine.n_streams(), 0);
    }

    #[test]
    fn bad_arity_is_rejected_before_any_shard_is_touched() {
        let mut engine = ShardedEngine::new(fitted(), 3);
        engine.step(StreamId(1), &[0.3], 7).unwrap();
        assert!(matches!(
            engine.step_many_borrowed(&[(StreamId(1), &[0.1], 7), (StreamId(2), &[0.1, 0.2], 7)]),
            Err(CoreError::FeatureArityMismatch { .. })
        ));
        assert_eq!(engine.stream_len(StreamId(1)), Some(1));
        assert_eq!(engine.stream_len(StreamId(2)), None);
    }

    #[test]
    fn snapshot_restore_round_trips_and_reshards() {
        let tauw = fitted();
        let config = AdaptiveConfig {
            window: 6,
            min_observations: 3,
            ..Default::default()
        };
        let series = make_series(16, 9, 8);
        // Drive a 2-shard engine halfway through an adaptive replay.
        let mut original = ShardedEngine::new(tauw.clone(), 2);
        original.enable_adaptation(config).unwrap();
        let step_wave = |engine: &mut ShardedEngine, j: usize| {
            let batch: Vec<AdaptiveStreamStep> = series
                .iter()
                .enumerate()
                .map(|(s, ts)| {
                    let step = &ts.steps[j];
                    let failed = step.outcome != 7;
                    AdaptiveStreamStep::new(
                        StreamId(s as u64),
                        step.quality_factors.clone(),
                        step.outcome,
                        failed,
                    )
                })
                .collect();
            engine.step_many_adaptive(&batch).unwrap()
        };
        for j in 0..4 {
            step_wave(&mut original, j);
        }

        // Snapshot → restore into 5 shards; structural equality holds.
        let snapshots = original.snapshot();
        assert_eq!(snapshots.len(), 2);
        for (shard, snapshot) in snapshots.iter().enumerate() {
            assert_eq!(snapshot.shard, shard);
            assert_eq!(snapshot.n_shards, 2);
            snapshot.validate().unwrap();
        }
        assert_eq!(snapshots.iter().map(|s| s.streams.len()).sum::<usize>(), 16);
        let mut resharded = ShardedEngine::new(tauw, 5);
        resharded.enable_adaptation(config).unwrap();
        for snapshot in &snapshots {
            resharded.restore(snapshot).unwrap();
        }
        assert_eq!(resharded.n_streams(), 16);
        assert_eq!(resharded.stream_ids(), original.stream_ids());

        // The restored engine continues bit-identically to the original.
        for j in 4..8 {
            let a = step_wave(&mut original, j);
            let b = step_wave(&mut resharded, j);
            assert_eq!(a, b, "wave {j} diverged after resharding");
        }
        // And its own snapshot round-trips structurally.
        let again = resharded.snapshot_shard(0).unwrap();
        again.validate().unwrap();

        assert!(resharded.snapshot_shard(9).is_err());
    }

    #[test]
    fn restore_respects_the_admission_cap_atomically() {
        let tauw = fitted();
        let mut source = ShardedEngine::new(tauw.clone(), 1);
        for id in 0..6u64 {
            source.step(StreamId(id), &[0.3], 7).unwrap();
        }
        let snapshot = source.snapshot_shard(0).unwrap();

        let mut target = ShardedEngine::new(tauw, 1);
        target.max_streams_per_shard(3);
        let err = target.restore(&snapshot).unwrap_err().to_string();
        assert!(err.contains("admission rejected"), "{err}");
        assert_eq!(target.n_streams(), 0, "failed restore must be atomic");

        target.max_streams_per_shard(6);
        target.restore(&snapshot).unwrap();
        assert_eq!(target.n_streams(), 6);
    }

    #[test]
    fn shard_snapshot_validation_rejects_malformed_state() {
        let tauw = fitted();
        let mut engine = ShardedEngine::new(tauw, 2);
        engine.step(StreamId(1), &[0.3], 7).unwrap();
        engine.step(StreamId(2), &[0.4], 7).unwrap();
        let mut all: Vec<StreamState> = engine
            .snapshot()
            .into_iter()
            .flat_map(|s| s.streams)
            .collect();
        all.sort_unstable_by_key(|s| s.stream);

        let shard_oob = EngineShardState {
            shard: 2,
            n_shards: 2,
            streams: Vec::new(),
        };
        assert!(shard_oob.validate().is_err());

        let mut unsorted = EngineShardState {
            shard: 0,
            n_shards: 1,
            streams: all.clone(),
        };
        unsorted.streams.reverse();
        if unsorted.streams.len() > 1 {
            assert!(unsorted.validate().is_err());
        }

        let mut duplicated = EngineShardState {
            shard: 0,
            n_shards: 1,
            streams: all.clone(),
        };
        duplicated.streams.push(all[0].clone());
        duplicated.streams.sort_unstable_by_key(|s| s.stream);
        assert!(duplicated.validate().is_err());

        let ok = EngineShardState {
            shard: 0,
            n_shards: 1,
            streams: all,
        };
        ok.validate().unwrap();
        let mut target = ShardedEngine::new(engine.wrapper().clone(), 3);
        target.restore(&ok).unwrap();
        assert_eq!(target.n_streams(), 2);
    }
}
