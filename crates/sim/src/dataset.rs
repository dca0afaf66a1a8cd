//! Dataset construction following the paper's study design (Section IV-B):
//!
//! * 1307 base series are split 523/392/392 into train/calibration/test;
//! * every **training** series is augmented once per (deficit kind ×
//!   intensity level) plus one clean variant;
//! * every **calibration/test** series is augmented 28 times with random
//!   realistic situation settings;
//! * calibration/test series are subsampled to length-10 windows with a
//!   uniformly random start, "to avoid biased uncertainty predictions due
//!   to the distance from the traffic signs".

use crate::classes::SignClass;
use crate::config::SimConfig;
use crate::ddm::SimulatedDdm;
use crate::deficits::{DeficitKind, DeficitVector};
use crate::rng_util::{derive_seed, sample_weighted};
use crate::series::SeriesRecord;
use crate::situation::{SituationModel, SituationSetting};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The three datasets of the study.
#[derive(Debug, Clone)]
pub struct GtsrbLikeDataset {
    /// Full-length training series (deficit-wise augmentation).
    pub train: Vec<SeriesRecord>,
    /// Length-`window_len` calibration series (random-setting augmentation).
    pub calib: Vec<SeriesRecord>,
    /// Length-`window_len` test series (random-setting augmentation).
    pub test: Vec<SeriesRecord>,
}

impl GtsrbLikeDataset {
    /// Total number of frames across all three splits.
    pub fn total_frames(&self) -> usize {
        self.train.iter().map(SeriesRecord::len).sum::<usize>()
            + self.calib.iter().map(SeriesRecord::len).sum::<usize>()
            + self.test.iter().map(SeriesRecord::len).sum::<usize>()
    }
}

/// Deterministic builder for [`GtsrbLikeDataset`].
///
/// Generation is embarrassingly parallel: every base series derives its
/// own RNG stream from `(master seed, base index)`, so batches of base
/// series fan out over a thread budget ([`DatasetBuilder::threads`]) and
/// the result is **bit-identical** for every thread count.
#[derive(Debug, Clone)]
pub struct DatasetBuilder {
    config: SimConfig,
    seed: u64,
    n_threads: Option<usize>,
}

impl DatasetBuilder {
    /// Creates a builder for the given configuration and master seed.
    ///
    /// # Errors
    ///
    /// Returns the configuration's validation error, if any.
    pub fn new(config: SimConfig, seed: u64) -> Result<Self, String> {
        config.validate()?;
        Ok(DatasetBuilder {
            config,
            seed,
            n_threads: None,
        })
    }

    /// Pins the thread budget for [`DatasetBuilder::build`] (clamped to
    /// ≥ 1). Unpinned builders use [`parallel::max_threads`]. The generated
    /// dataset is bit-identical for every budget.
    pub fn threads(&mut self, n: usize) -> &mut Self {
        self.n_threads = Some(n.max(1));
        self
    }

    fn effective_threads(&self) -> usize {
        self.n_threads.unwrap_or_else(parallel::max_threads).max(1)
    }

    /// Access to the configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Builds all three splits.
    pub fn build(&self) -> GtsrbLikeDataset {
        let specs = self.base_series_specs();
        let (train_specs, rest) = specs.split_at(self.config.split.0);
        let (calib_specs, rest2) = rest.split_at(self.config.split.1);
        let test_specs = &rest2[..self.config.split.2];

        GtsrbLikeDataset {
            train: self.build_train(train_specs),
            calib: self.build_windows(calib_specs, self.config.calib_augmentations, 0xCA11B),
            test: self.build_windows(test_specs, self.config.test_augmentations, 0x7E57),
        }
    }

    /// Builds only the test split (bit-identical to the `test` field of
    /// [`DatasetBuilder::build`]; used by scenario studies that re-derive
    /// a transformed test set without paying for the training split).
    pub fn build_test_only(&self) -> Vec<SeriesRecord> {
        let specs = self.base_series_specs();
        let start = self.config.split.0 + self.config.split.1;
        self.build_windows(
            &specs[start..start + self.config.split.2],
            self.config.test_augmentations,
            0x7E57,
        )
    }

    /// The per-base-series ground truth: a true class per series, shuffled
    /// deterministically so splits are random with respect to class.
    fn base_series_specs(&self) -> Vec<SignClass> {
        let mut rng = StdRng::seed_from_u64(derive_seed(self.seed, 0xBA5E));
        let weights: Vec<f64> = SignClass::all().map(|c| c.frequency_weight()).collect();
        (0..self.config.n_series)
            .map(|_| {
                SignClass::new(sample_weighted(&mut rng, &weights) as u8)
                    .expect("weighted index is a valid class")
            })
            .collect()
    }

    /// Training augmentation: one clean copy plus one copy per
    /// (deficit, level). Base series fan out over the thread budget; the
    /// per-base RNG stream and series ids depend only on the base index,
    /// so output order and content match the serial loop exactly.
    fn build_train(&self, specs: &[SignClass]) -> Vec<SeriesRecord> {
        let ddm = SimulatedDdm::new(self.config.clone());
        let model = SituationModel::new();
        // The clean variant keeps contextual fields plausible but zeroes
        // the deficits.
        let mut variants: Vec<DeficitVector> = vec![DeficitVector::zero()];
        for kind in DeficitKind::ALL {
            for &level in &self.config.train_intensity_levels {
                variants.push(DeficitVector::single(kind, level));
            }
        }
        let indexed: Vec<(usize, SignClass)> = specs.iter().copied().enumerate().collect();
        let per_base: Vec<Vec<SeriesRecord>> = parallel::par_map(
            self.effective_threads(),
            &indexed,
            |&(base_idx, true_class)| {
                let base_seed = derive_seed(self.seed, 0x7EA1_0000 ^ base_idx as u64);
                let mut rng = StdRng::seed_from_u64(base_seed);
                let first_id = (base_idx * variants.len()) as u64;
                let mut out = Vec::with_capacity(variants.len());
                for (series_id, deficits) in (first_id..).zip(&variants) {
                    let mut setting = model.sample(&mut rng);
                    setting.deficits = *deficits;
                    out.push(ddm.generate_series(series_id, true_class, &setting, &mut rng));
                }
                out
            },
        );
        per_base.into_iter().flatten().collect()
    }

    /// Calibration/test augmentation: random settings, then window
    /// subsampling. Parallel over base series like [`Self::build_train`].
    fn build_windows(
        &self,
        specs: &[SignClass],
        augmentations: usize,
        salt: u64,
    ) -> Vec<SeriesRecord> {
        let ddm = SimulatedDdm::new(self.config.clone());
        let model = SituationModel::new();
        let window_len = self.config.window_len;
        let n_frames = self.config.geometry.n_frames;
        let indexed: Vec<(usize, SignClass)> = specs.iter().copied().enumerate().collect();
        let per_base: Vec<Vec<SeriesRecord>> = parallel::par_map(
            self.effective_threads(),
            &indexed,
            |&(base_idx, true_class)| {
                let base_seed = derive_seed(self.seed, salt ^ ((base_idx as u64) << 8));
                let mut rng = StdRng::seed_from_u64(base_seed);
                let first_id = (salt << 32) + (base_idx * augmentations) as u64;
                let mut out = Vec::with_capacity(augmentations);
                for series_id in first_id..first_id + augmentations as u64 {
                    let setting: SituationSetting = model.sample(&mut rng);
                    let full = ddm.generate_series(series_id, true_class, &setting, &mut rng);
                    let start = rng.gen_range(0..=n_frames - window_len);
                    out.push(full.window(start, window_len));
                }
                out
            },
        );
        per_base.into_iter().flatten().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_builder() -> DatasetBuilder {
        DatasetBuilder::new(SimConfig::scaled(0.02), 42).unwrap()
    }

    #[test]
    fn splits_have_expected_sizes() {
        let b = small_builder();
        let cfg = b.config().clone();
        let ds = b.build();
        let variants_per_series = 1 + 9 * cfg.train_intensity_levels.len();
        assert_eq!(ds.train.len(), cfg.split.0 * variants_per_series);
        assert_eq!(ds.calib.len(), cfg.split.1 * cfg.calib_augmentations);
        assert_eq!(ds.test.len(), cfg.split.2 * cfg.test_augmentations);
    }

    #[test]
    fn train_series_are_full_length_and_windows_are_short() {
        let b = small_builder();
        let cfg = b.config().clone();
        let ds = b.build();
        for s in &ds.train {
            assert_eq!(s.len(), cfg.geometry.n_frames);
        }
        for s in ds.calib.iter().chain(&ds.test) {
            assert_eq!(s.len(), cfg.window_len);
            // Window starts vary; absolute steps expose the original index.
            assert!(s.frames[0].absolute_step <= cfg.geometry.n_frames - cfg.window_len);
        }
    }

    #[test]
    fn window_starts_are_spread_out() {
        let b = small_builder();
        let ds = b.build();
        let starts: std::collections::HashSet<usize> =
            ds.test.iter().map(|s| s.frames[0].absolute_step).collect();
        assert!(
            starts.len() > 5,
            "window starts should vary, got {starts:?}"
        );
    }

    #[test]
    fn build_is_deterministic() {
        let a = small_builder().build();
        let b = small_builder().build();
        assert_eq!(a.train.len(), b.train.len());
        assert_eq!(a.test[3], b.test[3]);
        assert_eq!(a.train[5], b.train[5]);
    }

    #[test]
    fn build_is_bit_identical_across_thread_counts() {
        let serial = small_builder().threads(1).build();
        for threads in [2usize, 8] {
            let par = small_builder().threads(threads).build();
            assert_eq!(serial.train, par.train, "threads={threads}");
            assert_eq!(serial.calib, par.calib, "threads={threads}");
            assert_eq!(serial.test, par.test, "threads={threads}");
        }
    }

    #[test]
    fn test_only_build_matches_full_build() {
        let full = small_builder().build();
        let test_only = small_builder().build_test_only();
        assert_eq!(full.test, test_only);
    }

    #[test]
    fn different_seeds_differ() {
        let a = DatasetBuilder::new(SimConfig::scaled(0.02), 1)
            .unwrap()
            .build();
        let b = DatasetBuilder::new(SimConfig::scaled(0.02), 2)
            .unwrap()
            .build();
        assert_ne!(a.test[0], b.test[0]);
    }

    #[test]
    fn train_variants_cover_all_deficits() {
        let b = small_builder();
        let ds = b.build();
        for kind in DeficitKind::ALL {
            let found = ds.train.iter().any(|s| {
                s.setting.deficits.get(kind) > 0.9
                    && s.setting.deficits.total() <= s.setting.deficits.get(kind) + 1e-9
            });
            assert!(found, "no high-intensity single-deficit variant for {kind}");
        }
    }

    #[test]
    fn invalid_config_is_rejected() {
        let cfg = SimConfig {
            split: (2000, 2000, 2000),
            ..Default::default()
        };
        assert!(DatasetBuilder::new(cfg, 1).is_err());
    }

    #[test]
    fn class_distribution_is_imbalanced_like_gtsrb() {
        let b = DatasetBuilder::new(SimConfig::scaled(0.3), 7).unwrap();
        let specs = b.base_series_specs();
        let mut counts = [0usize; 43];
        for c in &specs {
            counts[c.id() as usize] += 1;
        }
        // Speed limit 50 (class 2) must appear far more often than limit 20.
        assert!(counts[2] > 3 * counts[0].max(1), "{counts:?}");
    }
}
