//! Multi-stream inference engine: one trained wrapper serving many
//! concurrent timeseries.
//!
//! A [`crate::tauw::TauwSession`] monitors exactly one stream; the
//! [`ShardedEngine`] serves many. It owns the trained
//! [`TimeseriesAwareWrapper`] plus a dense **stream table**: one row per
//! live [`StreamId`] holding the stream's [`TimeseriesBuffer`] and, once
//! adaptation is on, its boxed [`AdaptiveState`]. A hashed `StreamId →
//! row` index is probed once per batch entry, in O(1); rows stay in place
//! while a wave steps them. [`TauwEngine`] is the same engine with one
//! shard.
//!
//! Every step path runs through **one wave core**. A wave is plain or
//! adaptive as a whole; an adaptive wave needs adaptation enabled. A batch
//! entry is a stream, its quality factors, its DDM outcome and, in an
//! adaptive wave, its realized failure:
//!
//! 1. **Precheck** — the feature arity and the index probe of every
//!    entry, read-only and fanned out with one
//!    [`parallel::par_zip_chunks_mut`] on large waves (the first failing
//!    entry is reported). Then, serially, admission of every new stream
//!    against the per-shard cap and creation of its row.
//! 2. **Group** — one sort of packed `row << 32 | batch position` keys
//!    puts the steps of each stream together, in batch order.
//! 3. **Step** — the grouped rows are cut into one contiguous chunk per
//!    worker (disjoint `&mut` rows via `split_at_mut`, the matching slice
//!    of a sorted output buffer, and the worker's own [`ServingScratch`])
//!    and fanned out with one [`parallel::par_map_mut`].
//! 4. **Scatter** — the sorted outputs return in batch order.
//!
//! **A rejected wave changes nothing:** every error is raised before the
//! first row is created. The step phase runs the infallible step core a
//! session runs, and a batch behaves exactly as if its steps were applied
//! one by one in batch order. An engine serving N streams therefore produces
//! bit-identical estimates to N sequential sessions at any shard count
//! and thread budget (asserted by `tests/determinism.rs`). Per-step cost
//! is O(1) in the series length (see [`crate::buffer`]).

use crate::adaptive::{AdaptiveConfig, AdaptiveState, DriftSignal};
use crate::buffer::TimeseriesBuffer;
use crate::calibration::ServingScratch;
use crate::error::CoreError;
use crate::sharded::{admission_error, Admission};
use crate::tauw::{TauwStep, TimeseriesAwareWrapper};
use crate::training::TrainingSeries;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Identifier of one logical stream (one tracked object / user / camera).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct StreamId(pub u64);

impl std::fmt::Display for StreamId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "stream#{}", self.0)
    }
}

/// One unit of batched work for [`ShardedEngine::step_many_adaptive`]:
/// the target stream, the step's quality factors and DDM outcome, and the
/// step's realized ground truth, which feeds the stream's coverage window
/// *after* its adapted bound is served.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdaptiveStreamStep {
    /// Target stream (created on first use).
    pub stream: StreamId,
    /// Stateless quality factors of this step.
    pub quality_factors: Vec<f64>,
    /// DDM outcome (class id) of this step.
    pub outcome: u32,
    /// Whether the DDM's reading was actually wrong at this step (the
    /// realized outcome the served bound promised to cover).
    pub failed: bool,
}

impl AdaptiveStreamStep {
    /// Convenience constructor.
    pub fn new(stream: StreamId, quality_factors: Vec<f64>, outcome: u32, failed: bool) -> Self {
        AdaptiveStreamStep {
            stream,
            quality_factors,
            outcome,
            failed,
        }
    }
}

/// One live stream's complete serving state: a row of the stream table.
/// Adaptive state is boxed so plain engines pay one pointer per row for
/// it, not the state's full size.
#[derive(Debug, Clone)]
pub(crate) struct Row {
    pub(crate) stream: StreamId,
    pub(crate) buffer: TimeseriesBuffer,
    pub(crate) adaptive: Option<Box<AdaptiveState>>,
}

/// One worker's share of a wave: a contiguous run of stream groups, the
/// table rows they span, their slice of the sorted output buffer, and the
/// worker's serving scratch.
struct Chunk<'a> {
    /// Table rows `row_base..row_base + rows.len()`.
    rows: &'a mut [Row],
    row_base: usize,
    /// `row << 32 | batch position` keys, sorted.
    entries: &'a [u64],
    /// One output per entry, in `entries` order.
    out: &'a mut [Option<TauwStep>],
    scratch: &'a mut ServingScratch,
}

/// The multi-stream engine: a trained wrapper plus a dense table of
/// per-stream state, stepped in batched waves and hash-partitioned into
/// `K` shards for admission control and snapshots (see
/// [`crate::sharded`]). A shard is not a separate engine: every wave runs
/// once over the whole table.
///
/// See the [`crate::sharded`] module docs for an end-to-end example.
#[derive(Debug, Clone)]
pub struct ShardedEngine {
    wrapper: TimeseriesAwareWrapper,
    /// The stream table, in no particular order.
    pub(crate) rows: Vec<Row>,
    /// `StreamId → row`. Keyed SipHash (the default `RandomState`), since
    /// stream ids are untrusted; only ever probed, never iterated.
    pub(crate) index: HashMap<StreamId, u32>,
    /// Live streams per shard.
    pub(crate) live: Vec<usize>,
    pub(crate) max_streams_per_shard: Option<usize>,
    adaptive_config: Option<AdaptiveConfig>,
    buffer_capacity: Option<usize>,
    n_threads: Option<usize>,
    /// Reused by every wave: the batch positions `0..n`, one
    /// `row << 32 | batch position` key per entry, the batch's new
    /// streams, the sorted outputs, each position's rank in `order`, and
    /// one serving scratch per worker.
    positions: Vec<u32>,
    order: Vec<u64>,
    fresh: Vec<(StreamId, u32)>,
    staged: Vec<Option<TauwStep>>,
    rank: Vec<u32>,
    scratches: Vec<ServingScratch>,
}

impl ShardedEngine {
    /// Creates an engine over `n_shards` hash partitions (clamped to ≥ 1)
    /// with no active streams.
    pub fn new(wrapper: TimeseriesAwareWrapper, n_shards: usize) -> Self {
        ShardedEngine {
            wrapper,
            rows: Vec::new(),
            index: HashMap::new(),
            live: vec![0; n_shards.max(1)],
            max_streams_per_shard: None,
            adaptive_config: None,
            buffer_capacity: None,
            n_threads: None,
            positions: Vec::new(),
            order: Vec::new(),
            fresh: Vec::new(),
            staged: Vec::new(),
            rank: Vec::new(),
            scratches: Vec::new(),
        }
    }

    /// Bounds every *newly created* stream buffer to a sliding window of
    /// `capacity` steps (see [`TimeseriesBuffer::bounded`]); existing
    /// streams keep their buffers. Unbounded by default.
    pub fn buffer_capacity(&mut self, capacity: usize) -> &mut Self {
        self.buffer_capacity = Some(capacity.max(1));
        self
    }

    /// Pins the thread budget of the batched step paths (clamped to ≥ 1).
    /// Unpinned engines use [`parallel::max_threads`]. Results are
    /// bit-identical for every budget and shard count.
    pub fn threads(&mut self, n: usize) -> &mut Self {
        self.n_threads = Some(n.max(1));
        self
    }

    /// The trained wrapper the engine serves.
    pub fn wrapper(&self) -> &TimeseriesAwareWrapper {
        &self.wrapper
    }

    /// Number of active streams.
    pub fn n_streams(&self) -> usize {
        self.rows.len()
    }

    /// Rows the stream table holds room for. Ending streams hands this
    /// back in halving steps once the table is a quarter full.
    pub fn stream_capacity(&self) -> usize {
        self.rows.capacity()
    }

    /// Active stream ids in ascending order. Sorts the table's ids on
    /// every call, at O(n log n).
    pub fn stream_ids(&self) -> Vec<StreamId> {
        let mut ids: Vec<StreamId> = self.rows.iter().map(|row| row.stream).collect();
        ids.sort_unstable();
        ids
    }

    fn row(&self, stream: StreamId) -> Option<&Row> {
        self.index.get(&stream).map(|&r| &self.rows[r as usize])
    }

    /// Steps currently buffered for a stream (the window occupancy for
    /// bounded buffers), or `None` if the stream is unknown. See
    /// [`ShardedEngine::stream_total_steps`] for the lifetime series
    /// length.
    pub fn stream_len(&self, stream: StreamId) -> Option<usize> {
        self.stream_buffer(stream).map(TimeseriesBuffer::len)
    }

    /// Lifetime steps of the stream's current series (`i + 1`, which
    /// window eviction does not shrink), or `None` if the stream is
    /// unknown.
    pub fn stream_total_steps(&self, stream: StreamId) -> Option<u64> {
        self.stream_buffer(stream)
            .map(TimeseriesBuffer::total_steps)
    }

    /// Read access to a stream's buffer (diagnostics).
    pub fn stream_buffer(&self, stream: StreamId) -> Option<&TimeseriesBuffer> {
        self.row(stream).map(|row| &row.buffer)
    }

    /// Turns on online adaptive calibration (see [`crate::adaptive`]):
    /// every stream gets its own coverage window and bound-correction
    /// state, created on its first adaptive step. Serving via
    /// [`ShardedEngine::step_adaptive`] /
    /// [`ShardedEngine::step_many_adaptive`] then returns adapted bounds
    /// and drift signals.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidInput`] when the config is invalid
    /// (see [`AdaptiveConfig::validate`]).
    pub fn enable_adaptation(&mut self, config: AdaptiveConfig) -> Result<(), CoreError> {
        config.validate()?;
        self.adaptive_config = Some(config);
        Ok(())
    }

    /// The adaptive configuration, if adaptation is enabled.
    pub fn adaptive_config(&self) -> Option<AdaptiveConfig> {
        self.adaptive_config
    }

    /// A stream's adaptive state (diagnostics, persistence), or `None` if
    /// the stream has no adaptive state yet.
    pub fn adaptive_state(&self, stream: StreamId) -> Option<&AdaptiveState> {
        self.row(stream)?.adaptive.as_deref()
    }

    /// The drift classification of a stream's most recent adaptive step,
    /// or `None` if the stream has no adaptive state.
    pub fn stream_drift(&self, stream: StreamId) -> Option<DriftSignal> {
        self.adaptive_state(stream).map(AdaptiveState::last_drift)
    }

    /// Appends a row for a stream that is not live yet and returns its
    /// index, which is never [`ABSENT`].
    pub(crate) fn insert_row(
        &mut self,
        stream: StreamId,
        buffer: TimeseriesBuffer,
        adaptive: Option<Box<AdaptiveState>>,
    ) -> u32 {
        let row = u32::try_from(self.rows.len())
            .ok()
            .filter(|&row| row != ABSENT)
            .expect("the stream table holds < 2^32 - 1 rows");
        self.rows.push(Row {
            stream,
            buffer,
            adaptive,
        });
        self.index.insert(stream, row);
        let shard = self.shard_of(stream);
        self.live[shard] += 1;
        row
    }

    fn new_buffer(&self) -> TimeseriesBuffer {
        match self.buffer_capacity {
            Some(cap) => TimeseriesBuffer::bounded(cap),
            None => TimeseriesBuffer::with_capacity(32),
        }
    }

    /// Clears a stream's buffer (tracking reported a new physical object on
    /// that stream), creating the stream if admission allows.
    ///
    /// This resets the fusion window **and** the lifetime step counter:
    /// afterwards [`ShardedEngine::stream_total_steps`] reads `Some(0)`
    /// and the next step's `series_length` (and taQF2) restarts at 1 —
    /// exactly the semantics of [`crate::tauw::TauwSession::begin_series`]
    /// on the single-stream path (the regression suite pins both).
    /// Adaptive calibration state, if enabled, deliberately survives:
    /// drift is a property of the stream, not of the tracked object.
    pub fn begin_series(&mut self, stream: StreamId) -> Admission {
        let admission = self.admission(stream);
        if admission.is_accepted() {
            match self.index.get(&stream) {
                Some(&row) => self.rows[row as usize].buffer.clear(),
                None => {
                    let buffer = self.new_buffer();
                    self.insert_row(stream, buffer, None);
                }
            }
        }
        admission
    }

    /// Admits a stream: on [`Admission::Accepted`] the stream is
    /// registered (created empty if new) and its capacity claimed, so a
    /// subsequent step cannot be refused by a race with other admissions.
    /// Already-live streams are re-accepted untouched.
    pub fn admit(&mut self, stream: StreamId) -> Admission {
        if self.index.contains_key(&stream) {
            return self.admission(stream);
        }
        self.begin_series(stream)
    }

    /// Removes a stream and its state entirely (the object left the scene
    /// / the user disconnected), reclaiming its admission capacity.
    /// Returns whether the stream existed.
    ///
    /// The last row moves into the freed slot. The table and its index give
    /// memory back in halving steps once they are a quarter full, so
    /// steady-state memory tracks the *live* stream count at amortized
    /// O(1) cost per call.
    pub fn end_stream(&mut self, stream: StreamId) -> bool {
        let Some(row) = self.index.remove(&stream) else {
            return false;
        };
        self.rows.swap_remove(row as usize);
        if let Some(moved) = self.rows.get(row as usize) {
            self.index.insert(moved.stream, row);
        }
        let shard = self.shard_of(stream);
        self.live[shard] -= 1;
        if self.rows.len() <= self.rows.capacity() / 4 {
            self.rows.shrink_to(self.rows.capacity() / 2);
        }
        if self.index.len() <= self.index.capacity() / 4 {
            self.index.shrink_to(self.index.capacity() / 2);
        }
        true
    }

    /// Removes all streams (including their adaptive state) and releases
    /// the stream table and its index.
    pub fn clear_streams(&mut self) {
        self.rows = Vec::new();
        self.index = HashMap::new();
        self.live.fill(0);
    }

    /// Processes one timestep on one stream (created on first use, if
    /// admission allows). Equivalent to [`crate::tauw::TauwSession::step`]
    /// on that stream's dedicated session.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] on feature-arity mismatch or a rejected
    /// admission; a rejected step changes nothing.
    pub fn step(
        &mut self,
        stream: StreamId,
        quality_factors: &[f64],
        outcome: u32,
    ) -> Result<TauwStep, CoreError> {
        let mut steps = self.run_wave(1, false, |_| (stream, quality_factors, outcome, false))?;
        Ok(steps.pop().expect("a one-entry wave yields one step"))
    }

    /// Processes one adaptive timestep on one stream (created on first
    /// use). Equivalent to [`crate::adaptive::AdaptiveTauwSession::step`]
    /// on that stream's dedicated adaptive session: serve the adapted
    /// bound, classify drift, then feed `failed` into the coverage window.
    ///
    /// # Errors
    ///
    /// As [`ShardedEngine::step`], and [`CoreError::InvalidInput`] when
    /// adaptation is not enabled.
    pub fn step_adaptive(
        &mut self,
        stream: StreamId,
        quality_factors: &[f64],
        outcome: u32,
        failed: bool,
    ) -> Result<TauwStep, CoreError> {
        let mut steps = self.run_wave(1, true, |_| (stream, quality_factors, outcome, failed))?;
        Ok(steps.pop().expect("a one-entry wave yields one step"))
    }

    /// Processes a batch of steps spanning any number of streams,
    /// returning one [`TauwStep`] per input **in batch order**.
    ///
    /// Independent streams fan out over the engine's thread budget; steps
    /// of the same stream are applied in batch order within one worker.
    /// The results are bit-identical to calling [`ShardedEngine::step`]
    /// for each entry sequentially (and therefore to N dedicated
    /// sessions), at any shard count and thread budget.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] on feature-arity mismatch of **any** batch
    /// entry or a rejected admission of any new stream; a rejected wave
    /// changes nothing.
    pub fn step_many_borrowed(
        &mut self,
        batch: &[(StreamId, &[f64], u32)],
    ) -> Result<Vec<TauwStep>, CoreError> {
        self.run_wave(batch.len(), false, |i| {
            let (stream, quality_factors, outcome) = batch[i];
            (stream, quality_factors, outcome, false)
        })
    }

    /// Adaptive variant of [`ShardedEngine::step_many_borrowed`]: a batch
    /// of (step, realized outcome) pairs spanning any number of streams,
    /// returning one [`TauwStep`] per input **in batch order** with
    /// [`TauwStep::adapted_uncertainty`] and [`TauwStep::drift`] filled by
    /// each stream's own coverage loop — bit-identical to N sequential
    /// [`crate::adaptive::AdaptiveTauwSession`]s for every thread budget
    /// and shard count (asserted by `tests/determinism.rs`).
    ///
    /// # Errors
    ///
    /// As [`ShardedEngine::step_many_borrowed`], and
    /// [`CoreError::InvalidInput`] when adaptation is not enabled.
    pub fn step_many_adaptive(
        &mut self,
        batch: &[AdaptiveStreamStep],
    ) -> Result<Vec<TauwStep>, CoreError> {
        self.run_wave(batch.len(), true, |i| {
            let s = &batch[i];
            (s.stream, &s.quality_factors[..], s.outcome, s.failed)
        })
    }

    /// Replays a batch of series as concurrent streams: series `s` becomes
    /// stream `StreamId(s as u64)` (reset at the start), and step `j` of
    /// every series is submitted as one batched wave. Returns one
    /// `Vec<TauwStep>` per series, in series order — bit-identical to
    /// replaying each series through its own dedicated session.
    ///
    /// This is the canonical wave-batching loop shared by the experiment
    /// evaluation, the monitoring example, and the bench baseline.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] on feature-arity mismatch or rejected
    /// admissions.
    pub fn step_series_waves(
        &mut self,
        series: &[TrainingSeries],
    ) -> Result<Vec<Vec<TauwStep>>, CoreError> {
        for s in 0..series.len() {
            let stream = StreamId(s as u64);
            if let Admission::Rejected { reason } = self.begin_series(stream) {
                return Err(admission_error(stream, reason));
            }
        }
        let window_len = series.iter().map(TrainingSeries::len).max().unwrap_or(0);
        let mut out: Vec<Vec<TauwStep>> =
            series.iter().map(|s| Vec::with_capacity(s.len())).collect();
        let mut positions: Vec<usize> = Vec::with_capacity(series.len());
        let mut batch: Vec<(StreamId, &[f64], u32)> = Vec::with_capacity(series.len());
        for j in 0..window_len {
            positions.clear();
            batch.clear();
            for (s, ts) in series.iter().enumerate() {
                if let Some(step) = ts.steps.get(j) {
                    positions.push(s);
                    batch.push((StreamId(s as u64), &step.quality_factors[..], step.outcome));
                }
            }
            for (&s, step) in positions.iter().zip(self.step_many_borrowed(&batch)?) {
                out[s].push(step);
            }
        }
        Ok(out)
    }

    /// The one wave core behind every step path. `entry(i)` yields batch
    /// entry `i` as `(stream, quality factors, outcome, failed)`; `failed`
    /// is read only when `adaptive` is set. See the [module docs](self)
    /// for the four phases: every error comes before the first row is
    /// created, and the workers run the infallible step core.
    fn run_wave<'a, F>(
        &mut self,
        n: usize,
        adaptive: bool,
        entry: F,
    ) -> Result<Vec<TauwStep>, CoreError>
    where
        F: Fn(usize) -> (StreamId, &'a [f64], u32, bool) + Sync,
    {
        let n32 = u32::try_from(n).map_err(|_| CoreError::InvalidInput {
            reason: format!("a wave holds at most {} steps, got {n}", u32::MAX),
        })?;
        let config = adaptive
            .then(|| self.adaptive_config.ok_or_else(adaptation_disabled))
            .transpose()?;

        // 1. Precheck: one arity check and one read-only index probe per
        //    entry, fanned out on large waves, writes each entry's key in
        //    batch order; streams that are not live yet carry the row
        //    `ABSENT`.
        let wrapper = &self.wrapper;
        let threads = self.n_threads.unwrap_or_else(parallel::max_threads);
        if self.positions.len() < n {
            self.positions.extend(self.positions.len() as u32..n32);
        }
        self.order.clear();
        self.order.resize(n, 0);
        let index = &self.index;
        let checked = parallel::par_zip_chunks_mut(
            threads,
            &self.positions[..n],
            &mut self.order,
            |positions, keys| {
                for (&i, key) in positions.iter().zip(keys) {
                    let (stream, quality_factors, _, _) = entry(i as usize);
                    wrapper.check_features(quality_factors)?;
                    let row = index.get(&stream).copied().unwrap_or(ABSENT);
                    *key = wave_key(row, i);
                }
                Ok(())
            },
        );
        checked.into_iter().collect::<Result<(), CoreError>>()?;

        //    New streams wait in `fresh` until the whole batch has passed
        //    admission, then get their rows.
        self.fresh.clear();
        for &key in &self.order {
            if key_row(key) == ABSENT {
                let position = key as u32;
                self.fresh.push((entry(position as usize).0, position));
            }
        }
        if !self.fresh.is_empty() {
            self.fresh.sort_unstable();
            self.check_admissions(self.fresh.iter().map(|&(stream, _)| stream))?;
            let fresh = std::mem::take(&mut self.fresh);
            let mut row = 0;
            for (k, &(stream, position)) in fresh.iter().enumerate() {
                if k == 0 || fresh[k - 1].0 != stream {
                    let buffer = self.new_buffer();
                    row = self.insert_row(stream, buffer, None);
                }
                self.order[position as usize] = wave_key(row, position);
            }
            self.fresh = fresh;
        }

        // 2. Group: rows ascending, batch order within each row.
        self.order.sort_unstable();
        let n_groups = match self.order.len() {
            0 => 0,
            _ => {
                1 + self
                    .order
                    .windows(2)
                    .filter(|w| key_row(w[0]) != key_row(w[1]))
                    .count()
            }
        };
        let workers = threads.min(n_groups).max(1);
        if self.scratches.len() < workers {
            self.scratches.resize_with(workers, ServingScratch::new);
        }
        self.staged.clear();
        self.staged.resize(n, None);

        // 3. Step: one chunk of whole groups per worker.
        let per_worker = n_groups.div_ceil(workers);
        let mut chunks = Vec::with_capacity(workers);
        let mut rows = self.rows.as_mut_slice();
        let mut row_base = 0;
        let mut entries = self.order.as_slice();
        let mut out = self.staged.as_mut_slice();
        for scratch in &mut self.scratches[..workers] {
            let mut len = 0;
            for _ in 0..per_worker {
                let Some(&key) = entries.get(len) else {
                    break;
                };
                len += entries[len..]
                    .iter()
                    .take_while(|&&e| key_row(e) == key_row(key))
                    .count();
            }
            if len == 0 {
                break;
            }
            let (chunk_entries, rest) = entries.split_at(len);
            entries = rest;
            let row_end = key_row(chunk_entries[len - 1]) as usize + 1;
            let (chunk_rows, rest) = std::mem::take(&mut rows).split_at_mut(row_end - row_base);
            rows = rest;
            let (chunk_out, rest) = std::mem::take(&mut out).split_at_mut(len);
            out = rest;
            chunks.push(Chunk {
                rows: chunk_rows,
                row_base,
                entries: chunk_entries,
                out: chunk_out,
                scratch,
            });
            row_base = row_end;
        }
        let wrapper = &self.wrapper;
        parallel::par_map_mut(threads, &mut chunks, |chunk| {
            for (&key, out) in chunk.entries.iter().zip(chunk.out.iter_mut()) {
                let row = &mut chunk.rows[key_row(key) as usize - chunk.row_base];
                let (_, quality_factors, outcome, failed) = entry(key as u32 as usize);
                let features = wrapper
                    .check_features(quality_factors)
                    .expect("the precheck accepted every entry");
                let adaptive = config.map(|config| {
                    let state = row
                        .adaptive
                        .get_or_insert_with(|| Box::new(AdaptiveState::fresh(config)));
                    (&mut **state, failed)
                });
                *out = Some(wrapper.serve(
                    &mut row.buffer,
                    chunk.scratch,
                    features,
                    outcome,
                    adaptive,
                ));
            }
        });

        // 4. Scatter back to batch order.
        self.rank.resize(n, 0);
        for (k, &key) in self.order.iter().enumerate() {
            self.rank[key as u32 as usize] = k as u32;
        }
        Ok(self.rank[..n]
            .iter()
            .map(|&k| self.staged[k as usize].expect("every batch position produced a result"))
            .collect())
    }
}

/// The precheck's row for a stream that is not live yet; no table row
/// carries it.
const ABSENT: u32 = u32::MAX;

/// A wave's grouping key: sorted keys put each row's entries together,
/// in batch order. The low 32 bits are the batch position.
fn wave_key(row: u32, position: u32) -> u64 {
    u64::from(row) << 32 | u64::from(position)
}

fn key_row(key: u64) -> u32 {
    (key >> 32) as u32
}

fn adaptation_disabled() -> CoreError {
    CoreError::InvalidInput {
        reason: "adaptive serving is not enabled — call `enable_adaptation` first".into(),
    }
}

/// The engine with a single shard: `TauwEngine::new(w)` is
/// `ShardedEngine::new(w, 1)`, and every [`ShardedEngine`] method is
/// available through `Deref`.
#[derive(Debug, Clone)]
pub struct TauwEngine(ShardedEngine);

impl TauwEngine {
    /// Creates a one-shard engine around a trained wrapper with no active
    /// streams.
    pub fn new(wrapper: TimeseriesAwareWrapper) -> Self {
        TauwEngine(ShardedEngine::new(wrapper, 1))
    }

    /// [`ShardedEngine::begin_series`], reporting whether the stream is
    /// live afterwards (always, unless a per-shard cap was set).
    pub fn begin_series(&mut self, stream: StreamId) -> bool {
        self.0.begin_series(stream).is_accepted()
    }
}

impl std::ops::Deref for TauwEngine {
    type Target = ShardedEngine;

    fn deref(&self) -> &ShardedEngine {
        &self.0
    }
}

impl std::ops::DerefMut for TauwEngine {
    fn deref_mut(&mut self) -> &mut ShardedEngine {
        &mut self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibration::CalibrationOptions;
    use crate::tauw::TauwBuilder;
    use crate::training::{TrainingSeries, TrainingStep};
    use crate::wrapper::WrapperBuilder;

    /// Same miniature world as the `tauw` module tests.
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

    #[test]
    fn streams_are_created_on_first_step_and_independent() {
        let mut engine = fitted().into_engine();
        let a = engine.step(StreamId(10), &[0.2], 7).unwrap();
        let b = engine.step(StreamId(20), &[0.2], 3).unwrap();
        assert_eq!(engine.n_streams(), 2);
        assert_eq!(a.fused_outcome, 7);
        assert_eq!(b.fused_outcome, 3);
        assert_eq!(engine.stream_len(StreamId(10)), Some(1));
        assert_eq!(engine.stream_len(StreamId(99)), None);
        assert_eq!(engine.stream_ids(), vec![StreamId(10), StreamId(20)]);
    }

    #[test]
    fn engine_step_matches_session_step_exactly() {
        let tauw = fitted();
        let mut engine = tauw.clone().into_engine();
        let mut session = tauw.new_session();
        for (i, &(q, o)) in [(0.1, 7), (0.5, 3), (0.2, 7), (0.9, 3)].iter().enumerate() {
            let from_engine = engine.step(StreamId(0), &[q], o).unwrap();
            let from_session = session.step(&[q], o).unwrap();
            assert_eq!(from_engine, from_session, "step {i}");
            assert_eq!(
                from_engine.uncertainty.to_bits(),
                from_session.uncertainty.to_bits()
            );
        }
    }

    #[test]
    fn step_many_preserves_batch_order_and_intra_stream_sequencing() {
        let tauw = fitted();
        let mut engine = tauw.clone().into_engine();
        // Stream 5 appears twice in one batch: the second occurrence must
        // see the first one's push (series_length 2).
        let out = engine
            .step_many_borrowed(&[
                (StreamId(5), &[0.1], 7),
                (StreamId(9), &[0.4], 3),
                (StreamId(5), &[0.1], 3),
            ])
            .unwrap();
        assert_eq!(out.len(), 3);
        assert_eq!(out[0].series_length, 1);
        assert_eq!(out[1].series_length, 1);
        assert_eq!(out[2].series_length, 2);
        assert_eq!(out[2].fused_outcome, 3, "tie breaks to most recent");

        let mut session = tauw.new_session();
        assert_eq!(session.step(&[0.1], 7).unwrap(), out[0]);
        assert_eq!(session.step(&[0.1], 3).unwrap(), out[2]);
    }

    #[test]
    fn step_many_rejects_bad_arity_without_mutating_state() {
        let mut engine = fitted().into_engine();
        engine.step(StreamId(1), &[0.3], 7).unwrap();
        assert!(matches!(
            engine.step_many_borrowed(&[(StreamId(1), &[0.1], 7), (StreamId(2), &[0.1, 0.2], 7)]),
            Err(CoreError::FeatureArityMismatch { .. })
        ));
        assert_eq!(
            engine.stream_len(StreamId(1)),
            Some(1),
            "failed batch must not advance any stream"
        );
        assert_eq!(engine.stream_len(StreamId(2)), None);
    }

    #[test]
    fn step_rejects_bad_arity_without_creating_a_phantom_stream() {
        let mut engine = fitted().into_engine();
        assert!(matches!(
            engine.step(StreamId(77), &[0.1, 0.2], 7),
            Err(CoreError::FeatureArityMismatch { .. })
        ));
        assert_eq!(
            engine.n_streams(),
            0,
            "failed step must not register a stream"
        );
        assert_eq!(engine.stream_len(StreamId(77)), None);
    }

    #[test]
    fn begin_series_and_end_stream_manage_lifecycle() {
        let mut engine = fitted().into_engine();
        engine.step(StreamId(3), &[0.1], 7).unwrap();
        engine.step(StreamId(3), &[0.1], 7).unwrap();
        engine.begin_series(StreamId(3));
        assert_eq!(engine.stream_len(StreamId(3)), Some(0));
        engine.begin_series(StreamId(4)); // creates an empty stream
        assert_eq!(engine.stream_len(StreamId(4)), Some(0));
        assert!(engine.end_stream(StreamId(3)));
        assert!(!engine.end_stream(StreamId(3)));
        engine.clear_streams();
        assert_eq!(engine.n_streams(), 0);
    }

    #[test]
    fn bounded_engine_buffers_slide() {
        let mut engine = fitted().into_engine();
        engine.buffer_capacity(2);
        for _ in 0..5 {
            engine.step(StreamId(0), &[0.2], 7).unwrap();
        }
        assert_eq!(engine.stream_len(StreamId(0)), Some(2));
        assert_eq!(
            engine.stream_buffer(StreamId(0)).unwrap().capacity(),
            Some(2)
        );
        // The sliding window bounds memory, but taQF2 stays the paper's
        // lifetime series length `i + 1` (it used to be capped at the
        // window size — the windowed-semantics bugfix).
        let out = engine.step(StreamId(0), &[0.2], 7).unwrap();
        assert_eq!(out.taqf.length, 6.0);
        assert_eq!(out.series_length, 6);
        assert_eq!(engine.stream_total_steps(StreamId(0)), Some(6));
        assert_eq!(engine.stream_len(StreamId(0)), Some(2));
        // taQF1/3/4 in contrast are windowed: 2 agreeing steps of the
        // window, one distinct class.
        assert_eq!(out.taqf.ratio, 1.0);
        assert_eq!(out.taqf.unique_outcomes, 1.0);
        assert!(out.taqf.cumulative_certainty <= 2.0);
        engine.begin_series(StreamId(0));
        assert_eq!(engine.stream_total_steps(StreamId(0)), Some(0));
    }

    #[test]
    fn step_many_is_identical_across_thread_budgets() {
        let tauw = fitted();
        let series = make_series(24, 77, 10);
        let mut baseline: Option<Vec<TauwStep>> = None;
        for threads in [1usize, 2, 8] {
            let mut engine = tauw.clone().into_engine();
            engine.threads(threads);
            let mut all = Vec::new();
            for j in 0..10 {
                let batch: Vec<(StreamId, &[f64], u32)> = series
                    .iter()
                    .enumerate()
                    .map(|(s, ts)| {
                        let step = &ts.steps[j];
                        (StreamId(s as u64), &step.quality_factors[..], step.outcome)
                    })
                    .collect();
                all.extend(engine.step_many_borrowed(&batch).unwrap());
            }
            match &baseline {
                None => baseline = Some(all),
                Some(expected) => assert_eq!(expected, &all, "threads={threads}"),
            }
        }
    }

    #[test]
    fn step_series_waves_matches_dedicated_sessions() {
        let tauw = fitted();
        let series = make_series(12, 5, 7);
        let mut engine = tauw.clone().into_engine();
        let waves = engine.step_series_waves(&series).unwrap();
        assert_eq!(waves.len(), series.len());
        for (s, ts) in series.iter().enumerate() {
            let mut session = tauw.new_session();
            session.begin_series();
            assert_eq!(waves[s].len(), ts.steps.len());
            for (step, expected) in ts.steps.iter().zip(&waves[s]) {
                let got = session.step(&step.quality_factors, step.outcome).unwrap();
                assert_eq!(&got, expected);
            }
        }
        // A second call resets the streams (fresh series, same ids).
        let again = engine.step_series_waves(&series).unwrap();
        assert_eq!(waves, again);
    }

    #[test]
    fn stream_id_formats_readably() {
        assert_eq!(StreamId(42).to_string(), "stream#42");
        assert!(StreamId(1) < StreamId(2));
    }

    /// Satellite regression test: `begin_series` resets the lifetime step
    /// counter (and with it taQF2's `i + 1` semantics) identically on the
    /// session and engine paths.
    #[test]
    fn begin_series_resets_the_lifetime_counter_on_both_paths() {
        let tauw = fitted();

        let mut session = tauw.new_session();
        for _ in 0..4 {
            session.step(&[0.2], 7).unwrap();
        }
        assert_eq!(session.series_length(), 4);
        session.begin_series();
        assert_eq!(session.series_length(), 0);
        let from_session = session.step(&[0.2], 7).unwrap();
        assert_eq!(from_session.series_length, 1);
        assert_eq!(from_session.taqf.length, 1.0);

        let mut engine = tauw.into_engine();
        for _ in 0..4 {
            engine.step(StreamId(0), &[0.2], 7).unwrap();
        }
        assert_eq!(engine.stream_total_steps(StreamId(0)), Some(4));
        engine.begin_series(StreamId(0));
        assert_eq!(engine.stream_total_steps(StreamId(0)), Some(0));
        let from_engine = engine.step(StreamId(0), &[0.2], 7).unwrap();
        assert_eq!(from_engine, from_session, "both paths restart at step 1");
    }

    #[test]
    fn step_adaptive_requires_enable_adaptation() {
        let mut engine = fitted().into_engine();
        let err = engine
            .step_adaptive(StreamId(0), &[0.2], 7, false)
            .unwrap_err()
            .to_string();
        assert!(err.contains("enable_adaptation"), "{err}");
        assert_eq!(engine.n_streams(), 0, "failed step must not create state");
        assert!(engine
            .step_many_adaptive(&[AdaptiveStreamStep::new(StreamId(0), vec![0.2], 7, false)])
            .is_err());
    }

    #[test]
    fn engine_adaptive_step_matches_adaptive_session_exactly() {
        let tauw = fitted();
        let config = AdaptiveConfig {
            window: 6,
            min_observations: 3,
            ..Default::default()
        };
        let mut engine = tauw.clone().into_engine();
        engine.enable_adaptation(config).unwrap();
        let mut session = tauw.new_adaptive_session(config).unwrap();
        // Quiet first half, then a burst of failures the frozen bounds
        // never promised: the adaptive path must inflate identically.
        for (i, &(q, o)) in [
            (0.1, 7),
            (0.1, 7),
            (0.2, 7),
            (0.9, 3),
            (0.9, 3),
            (0.9, 3),
            (0.9, 3),
            (0.8, 3),
        ]
        .iter()
        .enumerate()
        {
            let failed = o != 7;
            let from_engine = engine.step_adaptive(StreamId(0), &[q], o, failed).unwrap();
            let from_session = session.step(&[q], o, failed).unwrap();
            assert_eq!(from_engine, from_session, "step {i}");
        }
        assert_eq!(
            engine.adaptive_state(StreamId(0)).unwrap(),
            session.adaptive_state()
        );
        assert_eq!(
            engine.stream_drift(StreamId(0)),
            Some(session.adaptive_state().last_drift())
        );
        assert!(
            engine
                .adaptive_state(StreamId(0))
                .unwrap()
                .inflation_steps()
                > 0,
            "the failure burst must have engaged adaptation"
        );
    }

    #[test]
    fn ending_streams_hands_index_capacity_back() {
        let mut engine = fitted().into_engine();
        for s in 0..4096 {
            assert!(engine.admit(StreamId(s)).is_accepted());
        }
        let full = engine.index.capacity();
        assert!(full >= 4096);
        for s in 0..4000 {
            assert!(engine.end_stream(StreamId(s)));
        }
        assert!(
            engine.index.capacity() < full / 4,
            "{} of {full}",
            engine.index.capacity()
        );
        assert_eq!(
            engine.stream_ids(),
            (4000..4096).map(StreamId).collect::<Vec<_>>()
        );
        engine.clear_streams();
        assert_eq!(engine.index.capacity(), 0);
    }

    #[test]
    fn end_stream_and_clear_streams_drop_adaptive_state() {
        let mut engine = fitted().into_engine();
        engine.enable_adaptation(AdaptiveConfig::default()).unwrap();
        engine.step_adaptive(StreamId(1), &[0.2], 7, false).unwrap();
        engine.step_adaptive(StreamId(2), &[0.2], 7, false).unwrap();
        assert!(engine.adaptive_state(StreamId(1)).is_some());
        engine.end_stream(StreamId(1));
        assert!(engine.adaptive_state(StreamId(1)).is_none());
        engine.clear_streams();
        assert!(engine.adaptive_state(StreamId(2)).is_none());
        assert_eq!(engine.stream_drift(StreamId(2)), None);
    }
}
