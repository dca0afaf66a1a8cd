//! Model persistence: train and calibrate wrappers offline, deploy the
//! frozen artifact to the vehicle.
//!
//! The on-disk format is a versioned JSON envelope around the serde
//! representation of the model. JSON (rather than a binary format) keeps
//! the deployed artifact *reviewable* — the same transparency argument the
//! paper makes for decision trees extends to the calibrated bounds a
//! safety assessor has to sign off on.

use crate::adaptive::AdaptiveState;
use crate::buffer::TimeseriesBuffer;
use crate::calibration::CalibratedForestQim;
use crate::conformal::ConformalQim;
use crate::error::CoreError;
use crate::sharded::EngineShardState;
use crate::tauw::TimeseriesAwareWrapper;
use crate::wrapper::UncertaintyWrapper;
use serde::de::DeserializeOwned;
use serde::{Deserialize, Serialize};
use std::path::Path;

/// Current artifact format version. Bumped on breaking model-layout
/// changes; loading rejects mismatches instead of misinterpreting fields.
///
/// History: v1 carried pointer-tree models only; v2 added the compiled
/// [`tauw_dtree::FlatTree`] serving form and the leaf-ID-indexed bound
/// table inside every calibrated QIM, so a deployed artifact round-trips
/// the exact flat representation it serves with; v3 makes the wrapper's
/// taQIM slot a tagged shape (single tree or calibrated forest) and adds
/// the standalone `ForestQim` artifact kind; v4 adds the served-minimum
/// bound to forest QIMs and the `AdaptiveState` artifact kind (per-stream
/// online-calibration state, so a serving process restarts without losing
/// adaptation); v5 adds the `Conformal` shape to the
/// [`crate::calibration::TaQim`] backend enum plus the standalone `TreeQim`
/// and `ConformalQim` artifact kinds, so every backend has its own
/// deployable envelope; v6 adds the `EngineShard` artifact kind (one
/// serving shard's complete per-stream runtime state — buffers plus
/// adaptive state — so a sharded serving process restarts, or reshards,
/// without losing windows); v7 folds the single calibrated tree into the
/// one-member [`CalibratedForestQim`]: the stateless wrapper's QIM and a
/// tree taQIM serialize as forests, the taQIM enum loses its `Tree` shape
/// and the `TreeQim` artifact kind is gone (a tree QIM ships as a
/// `ForestQim` artifact); v8 stores each model once, as trees plus
/// calibration records (or the nested conformal rate table), and derives
/// every serving form at load, after checking each leaf bound against its
/// calibration counts.
pub const FORMAT_VERSION: u32 = 8;

/// Kind tag inside the envelope, so a stateless wrapper cannot be loaded
/// where a timeseries-aware one is expected. Each [`Artifact`] type
/// carries exactly one kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ArtifactKind {
    /// A stateless [`UncertaintyWrapper`] (QIM tree, calibrated bounds,
    /// scope model).
    StatelessWrapper,
    /// A [`TimeseriesAwareWrapper`] (stateless wrapper + taQIM + taQF
    /// configuration).
    TimeseriesAwareWrapper,
    /// A [`TimeseriesBuffer`] snapshot (per-stream runtime state, e.g. for
    /// migrating a long-running stream between hosts).
    TimeseriesBuffer,
    /// A standalone [`CalibratedForestQim`] (a calibrated tree or
    /// boundary-smoothing forest quality impact model, deployable without a
    /// surrounding wrapper).
    ForestQim,
    /// A standalone [`ConformalQim`] (leafless split-conformal quality
    /// impact model, deployable without a surrounding wrapper).
    ConformalQim,
    /// An [`AdaptiveState`] snapshot (one stream's online calibration
    /// state: coverage window, correction notch, last drift signal).
    AdaptiveState,
    /// An [`EngineShardState`] snapshot (one serving shard's complete
    /// per-stream runtime state: every stream's fusion buffer plus
    /// adaptive state, restorable under any shard count).
    EngineShard,
}

#[derive(Debug, Serialize, Deserialize)]
struct Envelope<T> {
    format_version: u32,
    kind: ArtifactKind,
    model: T,
}

/// Header-only view of an envelope: deserializing it never touches the
/// model payload, so version/kind mismatches are reported as such instead
/// of surfacing as missing-field errors from a model layout the running
/// version no longer understands.
#[derive(Debug, Deserialize)]
struct EnvelopeHeader {
    format_version: u32,
    kind: ArtifactKind,
}

fn to_json<T: Serialize>(kind: ArtifactKind, model: &T) -> Result<String, CoreError> {
    serde_json::to_string_pretty(&Envelope {
        format_version: FORMAT_VERSION,
        kind,
        model,
    })
    .map_err(|e| CoreError::InvalidInput {
        reason: format!("serialization failed: {e}"),
    })
}

fn from_json<T: DeserializeOwned>(kind: ArtifactKind, json: &str) -> Result<T, CoreError> {
    let header: EnvelopeHeader =
        serde_json::from_str(json).map_err(|e| CoreError::InvalidInput {
            reason: format!("deserialization failed: {e}"),
        })?;
    if header.format_version != FORMAT_VERSION {
        // Name the kind being loaded, not just the version numbers: in a
        // mixed-version deployment "version 2 is not supported" alone does
        // not tell the operator *which* of their artifacts is stale.
        return Err(CoreError::InvalidInput {
            reason: format!(
                "artifact format version {} is not supported (expected {FORMAT_VERSION}) \
                 while loading a {:?} artifact",
                header.format_version, header.kind
            ),
        });
    }
    if header.kind != kind {
        return Err(CoreError::InvalidInput {
            reason: format!(
                "artifact kind {:?} does not match expected {kind:?}",
                header.kind
            ),
        });
    }
    let envelope: Envelope<T> =
        serde_json::from_str(json).map_err(|e| CoreError::InvalidInput {
            reason: format!("deserialization failed: {e}"),
        })?;
    Ok(envelope.model)
}

/// A type that ships as a versioned JSON artifact: an envelope of
/// [`FORMAT_VERSION`], the type's [`ArtifactKind`] and its serde form.
///
/// Loading checks the version and the kind before it reads the payload,
/// and then runs the type's own `Deserialize`, which validates every
/// invariant the type keeps (a hand-edited leaf bound, a feature-name list
/// that disagrees with the QIM, a buffer over its capacity, a shard
/// snapshot whose streams are not ascending) and derives any serving form.
/// A crafted artifact therefore loads as an error or as a value that
/// holds every invariant its type keeps.
///
/// # Examples
///
/// ```
/// use tauw_core::persist::Artifact;
/// use tauw_core::TimeseriesBuffer;
///
/// let mut buffer = TimeseriesBuffer::bounded(4);
/// buffer.push(1, 0.25);
/// let json = buffer.to_artifact_json()?;
/// assert_eq!(TimeseriesBuffer::from_artifact_json(&json)?, buffer);
/// # Ok::<(), tauw_core::CoreError>(())
/// ```
pub trait Artifact: Serialize + DeserializeOwned {
    /// The kind tag this type's envelope carries.
    const KIND: ArtifactKind;

    /// Serializes to a versioned JSON artifact.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidInput`] if serialization fails.
    fn to_artifact_json(&self) -> Result<String, CoreError> {
        to_json(Self::KIND, self)
    }

    /// Loads from a JSON artifact produced by
    /// [`Artifact::to_artifact_json`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidInput`] on malformed JSON, a format
    /// version mismatch, a wrong artifact kind, or a payload that violates
    /// the type's invariants.
    fn from_artifact_json(json: &str) -> Result<Self, CoreError> {
        from_json(Self::KIND, json)
    }

    /// Writes the artifact to a file.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidInput`] on serialization or I/O errors.
    fn save(&self, path: impl AsRef<Path>) -> Result<(), CoreError> {
        std::fs::write(path, self.to_artifact_json()?).map_err(|e| CoreError::InvalidInput {
            reason: format!("writing artifact failed: {e}"),
        })
    }

    /// Reads an artifact file written by [`Artifact::save`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidInput`] on I/O or format errors.
    fn load(path: impl AsRef<Path>) -> Result<Self, CoreError> {
        let json = std::fs::read_to_string(path).map_err(|e| CoreError::InvalidInput {
            reason: format!("reading artifact failed: {e}"),
        })?;
        Self::from_artifact_json(&json)
    }
}

impl Artifact for UncertaintyWrapper {
    const KIND: ArtifactKind = ArtifactKind::StatelessWrapper;
}

impl Artifact for TimeseriesAwareWrapper {
    const KIND: ArtifactKind = ArtifactKind::TimeseriesAwareWrapper;
}

impl Artifact for TimeseriesBuffer {
    const KIND: ArtifactKind = ArtifactKind::TimeseriesBuffer;
}

impl Artifact for CalibratedForestQim {
    const KIND: ArtifactKind = ArtifactKind::ForestQim;
}

impl Artifact for ConformalQim {
    const KIND: ArtifactKind = ArtifactKind::ConformalQim;
}

impl Artifact for AdaptiveState {
    const KIND: ArtifactKind = ArtifactKind::AdaptiveState;
}

impl Artifact for EngineShardState {
    const KIND: ArtifactKind = ArtifactKind::EngineShard;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibration::{CalibrationOptions, ServingScratch};
    use crate::conformal::ConformalOptions;
    use crate::tauw::{BackendSpec, TauwBuilder};
    use crate::training::{TrainingSeries, TrainingStep};
    use crate::wrapper::WrapperBuilder;

    fn toy_series(n: usize, seed: u64) -> Vec<TrainingSeries> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n)
            .map(|_| {
                let q = next();
                let steps = (0..10)
                    .map(|_| TrainingStep {
                        quality_factors: vec![q],
                        outcome: u32::from(next() < q * 0.8),
                    })
                    .collect();
                TrainingSeries {
                    true_outcome: 0,
                    steps,
                }
            })
            .collect()
    }

    fn fitted() -> TimeseriesAwareWrapper {
        let mut wb = WrapperBuilder::new();
        wb.max_depth(3).calibration(CalibrationOptions {
            min_samples_per_leaf: 50,
            confidence: 0.99,
            ..Default::default()
        });
        let mut b = TauwBuilder::new();
        b.wrapper(wb);
        b.fit(vec!["q".into()], &toy_series(200, 1), &toy_series(200, 2))
            .unwrap()
    }

    #[test]
    fn tauw_roundtrips_through_json() {
        let tauw = fitted();
        let json = tauw.to_artifact_json().unwrap();
        let back = TimeseriesAwareWrapper::from_artifact_json(&json).unwrap();
        assert_eq!(tauw, back);
        // Behavioural equality, not just structural: same estimates.
        let mut s1 = tauw.new_session();
        let mut s2 = back.new_session();
        for (qf, outcome) in [(0.1, 0u32), (0.9, 1), (0.9, 1), (0.5, 0)] {
            let a = s1.step(&[qf], outcome).unwrap();
            let b = s2.step(&[qf], outcome).unwrap();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn stateless_wrapper_roundtrips_through_json() {
        let tauw = fitted();
        let wrapper = tauw.stateless().clone();
        let json = wrapper.to_artifact_json().unwrap();
        let back = UncertaintyWrapper::from_artifact_json(&json).unwrap();
        assert_eq!(wrapper, back);
        assert_eq!(
            wrapper.uncertainty(&[0.42]).unwrap(),
            back.uncertainty(&[0.42]).unwrap()
        );
    }

    #[test]
    fn artifact_roundtrips_the_flat_form_bit_for_bit() {
        use tauw_dtree::FlatTree;
        let tauw = fitted();
        let json = tauw.to_artifact_json().unwrap();
        let back = TimeseriesAwareWrapper::from_artifact_json(&json).unwrap();
        // The flat serving form is derived at load, not stored: it must
        // come back identical, be the lowering of its pointer tree, and
        // serve bit for bit what the calibrated model serves.
        let taqim = tauw.taqim().as_forest().expect("default taQIM is one tree");
        let taqim_back = back.taqim().as_forest().expect("default taQIM is one tree");
        for (qim, qim_back, rows) in [
            (
                tauw.stateless().qim(),
                back.stateless().qim(),
                vec![vec![0.1], vec![0.5], vec![0.9], vec![f64::NAN]],
            ),
            (taqim, taqim_back, taqim_rows()),
        ] {
            assert_eq!(qim_back.n_trees(), 1);
            assert_eq!(qim.flat(), qim_back.flat());
            assert_eq!(qim.leaf_bounds(), qim_back.leaf_bounds());
            assert_eq!(
                qim_back.flat()[0],
                FlatTree::from_tree(&qim_back.trees()[0])
            );
            for row in &rows {
                assert_eq!(
                    qim.uncertainty(row).unwrap().to_bits(),
                    qim_back.uncertainty(row).unwrap().to_bits()
                );
            }
        }
    }

    /// taQIM feature rows: [stateless QF ‖ ratio, length, size, certainty].
    fn taqim_rows() -> Vec<Vec<f64>> {
        vec![
            vec![0.1, 1.0, 1.0, 1.0, 0.9],
            vec![0.5, 0.6, 5.0, 2.0, 2.5],
            vec![0.9, 0.3, 9.0, 3.0, 1.1],
        ]
    }

    fn fitted_forest() -> TimeseriesAwareWrapper {
        let mut wb = WrapperBuilder::new();
        wb.max_depth(3).calibration(CalibrationOptions {
            min_samples_per_leaf: 50,
            confidence: 0.99,
            ..Default::default()
        });
        let mut b = TauwBuilder::new();
        b.wrapper(wb).backend(BackendSpec::Forest {
            n_trees: 3,
            seed: 0xF0E,
        });
        b.fit(vec!["q".into()], &toy_series(200, 1), &toy_series(200, 2))
            .unwrap()
    }

    fn fitted_conformal() -> TimeseriesAwareWrapper {
        let mut wb = WrapperBuilder::new();
        wb.max_depth(3).calibration(CalibrationOptions {
            min_samples_per_leaf: 50,
            confidence: 0.99,
            ..Default::default()
        });
        let mut b = TauwBuilder::new();
        b.wrapper(wb)
            .backend(BackendSpec::Conformal(ConformalOptions::default()));
        b.fit(vec!["q".into()], &toy_series(200, 1), &toy_series(200, 2))
            .unwrap()
    }

    #[test]
    fn forest_wrapper_roundtrips_with_bit_identical_estimates() {
        let tauw = fitted_forest();
        assert_eq!(tauw.taqim().n_trees(), 3);
        let json = tauw.to_artifact_json().unwrap();
        let back = TimeseriesAwareWrapper::from_artifact_json(&json).unwrap();
        assert_eq!(tauw, back);
        let mut s1 = tauw.new_session();
        let mut s2 = back.new_session();
        for (qf, outcome) in [(0.1, 0u32), (0.9, 1), (0.9, 1), (0.5, 0)] {
            let a = s1.step(&[qf], outcome).unwrap();
            let b = s2.step(&[qf], outcome).unwrap();
            assert_eq!(a.uncertainty.to_bits(), b.uncertainty.to_bits());
            assert_eq!(a, b);
        }
    }

    #[test]
    fn forest_qim_artifact_roundtrips_the_flat_form_bit_for_bit() {
        use tauw_dtree::FlatTree;
        let tauw = fitted_forest();
        let qim = tauw.taqim().as_forest().unwrap();
        let json = qim.to_artifact_json().unwrap();
        let back = CalibratedForestQim::from_artifact_json(&json).unwrap();
        assert_eq!(qim, &back);
        // The flat members are derived at load, each exactly the lowering
        // of its pointer member, and serve bit for bit what the calibrated
        // model serves.
        assert_eq!(qim.flat(), back.flat());
        assert_eq!(qim.leaf_bounds(), back.leaf_bounds());
        for (flat, tree) in back.flat().iter().zip(back.trees()) {
            assert_eq!(flat, &FlatTree::from_tree(tree));
        }
        for q in taqim_rows() {
            assert_eq!(
                qim.uncertainty(&q).unwrap().to_bits(),
                back.uncertainty(&q).unwrap().to_bits()
            );
        }
    }

    #[test]
    fn forest_qim_artifact_rejects_tampering() {
        let tauw = fitted_forest();
        let qim = tauw.taqim().as_forest().unwrap();
        let json = qim.to_artifact_json().unwrap();

        // Move one of the second member's leaf bounds off the bound its
        // calibration counts give.
        let first = json.match_indices("\"uncertainty_bound\"").count() - 1;
        let tampered = set_nth(&json, "uncertainty_bound", first, 0.123456789);
        assert_ne!(tampered, json, "tamper edit must hit the artifact");
        match CalibratedForestQim::from_artifact_json(&tampered) {
            Err(CoreError::InvalidInput { reason }) => {
                assert!(reason.contains("calibrated forest QIM"), "reason: {reason}");
            }
            other => panic!("expected InvalidInput, got {other:?}"),
        }

        // A wrapper artifact is not a standalone forest QIM.
        let wrapper_json = tauw.to_artifact_json().unwrap();
        assert!(CalibratedForestQim::from_artifact_json(&wrapper_json).is_err());

        // The untampered artifact still loads.
        assert!(CalibratedForestQim::from_artifact_json(&json).is_ok());
    }

    #[test]
    fn forest_artifacts_reload_byte_stable_and_serve_bitwise_on_every_calibration_row() {
        let tauw = fitted_forest();
        let calib = toy_series(200, 2);
        let rows: Vec<Vec<f64>> = crate::tauw::replay(tauw.stateless(), &calib)
            .unwrap()
            .iter()
            .map(|row| row.ta_features(tauw.taqf_set()))
            .collect();
        let qim = tauw.taqim().as_forest().unwrap();
        let json = qim.to_artifact_json().unwrap();
        let back = CalibratedForestQim::from_artifact_json(&json).unwrap();
        assert_eq!(back.to_artifact_json().unwrap(), json);
        let wrapper_json = tauw.to_artifact_json().unwrap();
        let wrapper_back = TimeseriesAwareWrapper::from_artifact_json(&wrapper_json).unwrap();
        assert_eq!(wrapper_back.to_artifact_json().unwrap(), wrapper_json);

        // The serving kernel is derived at load, so the loaded models must
        // serve what the calibrated one serves on every calibration row...
        for features in &rows {
            let (bound, support) = qim.uncertainty_with_support(features).unwrap();
            for loaded in [&back, wrapper_back.taqim().as_forest().unwrap()] {
                let (loaded_bound, loaded_support) =
                    loaded.uncertainty_with_support(features).unwrap();
                assert_eq!(loaded_bound.to_bits(), bound.to_bits());
                assert_eq!(loaded_support, support);
                assert_eq!(
                    loaded.uncertainty(features).unwrap().to_bits(),
                    bound.to_bits()
                );
            }
        }
        // ...and the loaded wrapper steps every calibration series alike.
        for series in &calib {
            let mut s1 = tauw.new_session();
            let mut s2 = wrapper_back.new_session();
            for step in &series.steps {
                let a = s1.step(&step.quality_factors, step.outcome).unwrap();
                let b = s2.step(&step.quality_factors, step.outcome).unwrap();
                assert_eq!(a.uncertainty.to_bits(), b.uncertainty.to_bits());
                assert_eq!(a, b);
            }
        }
    }

    #[test]
    fn forest_qim_save_and_load_file() {
        let tauw = fitted_forest();
        let qim = tauw.taqim().as_forest().unwrap();
        let path = std::env::temp_dir().join(format!(
            "tauw_forest_qim_persist_test_{}.json",
            std::process::id()
        ));
        qim.save(&path).unwrap();
        let back = CalibratedForestQim::load(&path).unwrap();
        assert_eq!(qim, &back);
        let _ = std::fs::remove_file(path);
    }

    /// The byte range of the number after the `nth` `"key": `.
    fn nth_number(json: &str, key: &str, nth: usize) -> std::ops::Range<usize> {
        let pattern = format!("\"{key}\": ");
        let (at, _) = json
            .match_indices(&pattern)
            .nth(nth)
            .expect("field present");
        let start = at + pattern.len();
        let number = |c: char| c.is_ascii_digit() || "+-.eE".contains(c);
        start..start + json[start..].find(|c: char| !number(c)).unwrap()
    }

    /// Rewrites the number after the `nth` `"key": `.
    fn set_nth(json: &str, key: &str, nth: usize, value: impl std::fmt::Display) -> String {
        let range = nth_number(json, key, nth);
        format!("{}{value}{}", &json[..range.start], &json[range.end..])
    }

    #[test]
    fn tampered_tree_graphs_are_rejected_by_every_tree_artifact() {
        let wrapper = fitted();
        let forest = fitted_forest();
        type Load = fn(&str) -> bool;
        let artifacts: [(&str, String, Load); 4] = [
            ("wrapper", wrapper.to_artifact_json().unwrap(), |json| {
                TimeseriesAwareWrapper::from_artifact_json(json).is_ok()
            }),
            (
                "stateless wrapper",
                wrapper.stateless().to_artifact_json().unwrap(),
                |json| UncertaintyWrapper::from_artifact_json(json).is_ok(),
            ),
            (
                "tree taQIM",
                wrapper
                    .taqim()
                    .as_forest()
                    .unwrap()
                    .to_artifact_json()
                    .unwrap(),
                |json| CalibratedForestQim::from_artifact_json(json).is_ok(),
            ),
            (
                "forest taQIM",
                forest
                    .taqim()
                    .as_forest()
                    .unwrap()
                    .to_artifact_json()
                    .unwrap(),
                |json| CalibratedForestQim::from_artifact_json(json).is_ok(),
            ),
        ];
        for (kind, json, loads) in artifacts {
            assert!(loads(&json), "{kind}: the untampered artifact loads");
            // The first tree is compact: its root (node 0) splits into node
            // 1 (left) and a right child, and has a second internal node.
            for (defect, tampered) in [
                ("out-of-range child", set_nth(&json, "left", 0, 1u64 << 32)),
                ("back-edge", set_nth(&json, "left", 1, 0)),
                ("shared child", set_nth(&json, "right", 0, 1)),
            ] {
                assert_ne!(tampered, json, "{kind}: {defect} edit must hit");
                assert!(!loads(&tampered), "{kind}: {defect} must be rejected");
            }
        }
    }

    #[test]
    fn tree_qim_artifact_roundtrips_byte_for_byte() {
        // The single tree ships in the forest envelope as its one member.
        let tauw = fitted();
        let qim = tauw.taqim().as_forest().unwrap();
        let json = qim.to_artifact_json().unwrap();
        let back = CalibratedForestQim::from_artifact_json(&json).unwrap();
        assert_eq!(back.n_trees(), 1);
        assert_eq!(qim, &back);
        assert_eq!(json, back.to_artifact_json().unwrap());
        for q in taqim_rows() {
            assert_eq!(
                qim.uncertainty(&q).unwrap().to_bits(),
                back.uncertainty(&q).unwrap().to_bits()
            );
        }
        // A tree envelope is not a conformal one.
        assert!(ConformalQim::from_artifact_json(&json).is_err());
    }

    #[test]
    fn conformal_wrapper_roundtrips_with_bit_identical_estimates() {
        let tauw = fitted_conformal();
        assert!(tauw.taqim().as_conformal().is_some());
        let json = tauw.to_artifact_json().unwrap();
        let back = TimeseriesAwareWrapper::from_artifact_json(&json).unwrap();
        assert_eq!(tauw, back);
        // Byte-for-byte: re-serializing the loaded wrapper reproduces the
        // artifact exactly (canonical layout, no representation drift).
        assert_eq!(json, back.to_artifact_json().unwrap());
        let mut s1 = tauw.new_session();
        let mut s2 = back.new_session();
        for (qf, outcome) in [(0.1, 0u32), (0.9, 1), (0.9, 1), (0.5, 0)] {
            let a = s1.step(&[qf], outcome).unwrap();
            let b = s2.step(&[qf], outcome).unwrap();
            assert_eq!(a.uncertainty.to_bits(), b.uncertainty.to_bits());
            assert_eq!(a, b);
        }
    }

    #[test]
    fn conformal_qim_artifact_roundtrips_byte_for_byte() {
        let tauw = fitted_conformal();
        let qim = tauw.taqim().as_conformal().unwrap();
        let json = qim.to_artifact_json().unwrap();
        let back = ConformalQim::from_artifact_json(&json).unwrap();
        assert_eq!(qim, &back);
        assert_eq!(json, back.to_artifact_json().unwrap());
        for q in taqim_rows() {
            assert_eq!(
                qim.uncertainty(&q).unwrap().to_bits(),
                back.uncertainty(&q).unwrap().to_bits()
            );
        }
    }

    #[test]
    fn conformal_qim_artifact_rejects_tampering_and_stale_versions() {
        let tauw = fitted_conformal();
        let qim = tauw.taqim().as_conformal().unwrap();
        let json = qim.to_artifact_json().unwrap();

        // No serving table is stored; the rate table it is derived from is
        // checked. Splice an extra cell into feature 0's rates.
        assert!(!json.contains("flat_rates"));
        let field = json.find("\"bin_rates\"").expect("field present");
        let outer = field + json[field..].find('[').expect("outer array opens");
        let bracket = outer + 1 + json[outer + 1..].find('[').expect("row opens");
        let mut tampered = json.clone();
        tampered.insert_str(bracket + 1, " 0.123456789,");
        assert_ne!(tampered, json, "tamper edit must hit the artifact");
        match ConformalQim::from_artifact_json(&tampered) {
            Err(CoreError::InvalidInput { reason }) => {
                assert!(
                    reason.contains("feature 0 carries 17 cells"),
                    "reason: {reason}"
                );
            }
            other => panic!("expected InvalidInput, got {other:?}"),
        }

        // A wrapper artifact is not a standalone conformal QIM.
        let wrapper_json = tauw.to_artifact_json().unwrap();
        assert!(ConformalQim::from_artifact_json(&wrapper_json).is_err());

        // Stale format version: refused with the version message naming
        // the kind, before any model payload is read.
        let stale = r#"{"format_version": 4, "kind": "ConformalQim", "model": {}}"#;
        match ConformalQim::from_artifact_json(stale) {
            Err(CoreError::InvalidInput { reason }) => {
                assert!(
                    reason.contains("format version 4 is not supported")
                        && reason.contains("ConformalQim artifact"),
                    "reason: {reason}"
                );
            }
            other => panic!("expected InvalidInput, got {other:?}"),
        }

        // The untampered artifact still loads.
        assert!(ConformalQim::from_artifact_json(&json).is_ok());
    }

    #[test]
    fn conformal_qim_save_and_load_file() {
        let tauw = fitted_conformal();
        let qim = tauw.taqim().as_conformal().unwrap();
        let path = std::env::temp_dir().join(format!(
            "tauw_conformal_qim_persist_test_{}.json",
            std::process::id()
        ));
        qim.save(&path).unwrap();
        let back = ConformalQim::load(&path).unwrap();
        assert_eq!(qim, &back);
        let _ = std::fs::remove_file(path);
    }

    /// Loads `json` as a `T` artifact and serializes the result again.
    fn reload<T: Artifact>(json: &str) -> Result<String, CoreError> {
        T::from_artifact_json(json)?.to_artifact_json()
    }

    #[test]
    fn every_artifact_kind_roundtrips_and_refuses_the_other_six() {
        type Reload = fn(&str) -> Result<String, CoreError>;
        let tauw = fitted();
        let mut buffer = TimeseriesBuffer::bounded(3);
        for (outcome, u) in [(0u32, 0.2), (1, 0.9), (0, 0.4), (1, 0.8)] {
            buffer.push(outcome, u);
        }
        let kinds: [(ArtifactKind, String, Reload); 7] = [
            (
                UncertaintyWrapper::KIND,
                tauw.stateless().to_artifact_json().unwrap(),
                reload::<UncertaintyWrapper>,
            ),
            (
                TimeseriesAwareWrapper::KIND,
                tauw.to_artifact_json().unwrap(),
                reload::<TimeseriesAwareWrapper>,
            ),
            (
                TimeseriesBuffer::KIND,
                buffer.to_artifact_json().unwrap(),
                reload::<TimeseriesBuffer>,
            ),
            (
                CalibratedForestQim::KIND,
                fitted_forest()
                    .taqim()
                    .as_forest()
                    .unwrap()
                    .to_artifact_json()
                    .unwrap(),
                reload::<CalibratedForestQim>,
            ),
            (
                ConformalQim::KIND,
                fitted_conformal()
                    .taqim()
                    .as_conformal()
                    .unwrap()
                    .to_artifact_json()
                    .unwrap(),
                reload::<ConformalQim>,
            ),
            (
                AdaptiveState::KIND,
                adapted_state().to_artifact_json().unwrap(),
                reload::<AdaptiveState>,
            ),
            (
                EngineShardState::KIND,
                sharded_engine_with_traffic()
                    .snapshot_shard(0)
                    .unwrap()
                    .to_artifact_json()
                    .unwrap(),
                reload::<EngineShardState>,
            ),
        ];
        // Seven pairwise distinct kinds: every `ArtifactKind` is covered.
        for (i, (a, ..)) in kinds.iter().enumerate() {
            for (b, ..) in &kinds[i + 1..] {
                assert_ne!(a, b);
            }
        }
        for (kind, json, _) in &kinds {
            for (expected, _, load) in &kinds {
                let loaded = load(json);
                if kind == expected {
                    assert_eq!(&loaded.unwrap(), json, "{kind:?} reloads byte for byte");
                    continue;
                }
                match loaded {
                    Err(CoreError::InvalidInput { reason }) => assert_eq!(
                        reason,
                        format!("artifact kind {kind:?} does not match expected {expected:?}")
                    ),
                    other => panic!("{expected:?} loader on a {kind:?} artifact: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let tauw = fitted();
        let json = tauw.to_artifact_json().unwrap().replace(
            &format!("\"format_version\": {FORMAT_VERSION}"),
            "\"format_version\": 999",
        );
        assert!(json.contains("\"format_version\": 999"), "replace must hit");
        let err = TimeseriesAwareWrapper::from_artifact_json(&json);
        assert!(matches!(err, Err(CoreError::InvalidInput { .. })));
    }

    #[test]
    fn garbage_is_rejected() {
        assert!(TimeseriesAwareWrapper::from_artifact_json("not json").is_err());
        assert!(TimeseriesAwareWrapper::from_artifact_json("{}").is_err());
    }

    #[test]
    fn deeply_nested_input_is_rejected_by_every_artifact_kind() {
        // 100k levels once aborted the process with a stack overflow; the
        // parser now stops at its depth cap. Bare and inside the envelope.
        const DEPTH: usize = 100_000;
        let arrays = "[".repeat(DEPTH);
        let closed_arrays = format!("{arrays}{}", "]".repeat(DEPTH));
        let objects = "{\"a\":".repeat(DEPTH);
        let closed_objects = format!("{objects}0{}", "}".repeat(DEPTH));
        let mut inputs = Vec::new();
        for nested in [&arrays, &closed_arrays, &objects, &closed_objects] {
            inputs.push(nested.clone());
            inputs.push(format!(
                "{{\"format_version\": {FORMAT_VERSION}, \"kind\": \"ForestQim\", \"model\": {nested}}}"
            ));
        }
        for input in &inputs {
            assert!(UncertaintyWrapper::from_artifact_json(input).is_err());
            assert!(TimeseriesAwareWrapper::from_artifact_json(input).is_err());
            assert!(TimeseriesBuffer::from_artifact_json(input).is_err());
            assert!(CalibratedForestQim::from_artifact_json(input).is_err());
            assert!(ConformalQim::from_artifact_json(input).is_err());
            assert!(crate::adaptive::AdaptiveState::from_artifact_json(input).is_err());
            assert!(crate::sharded::EngineShardState::from_artifact_json(input).is_err());
        }
    }

    #[test]
    fn old_format_version_is_rejected_as_such() {
        // A v1 artifact (pre-flat-form model layout) must be refused with
        // the version message, not with a missing-field error from the
        // model payload — the header is checked before the model is read.
        // The message also names the artifact kind being loaded, so a
        // mixed-version deployment can tell *which* artifact is stale.
        let v1 = r#"{"format_version": 1, "kind": "TimeseriesAwareWrapper", "model": {}}"#;
        match TimeseriesAwareWrapper::from_artifact_json(v1) {
            Err(CoreError::InvalidInput { reason }) => {
                assert!(
                    reason.contains("format version 1 is not supported"),
                    "unexpected reason: {reason}"
                );
                assert!(
                    reason.contains("TimeseriesAwareWrapper artifact"),
                    "version error must name the artifact kind: {reason}"
                );
            }
            other => panic!("expected InvalidInput, got {other:?}"),
        }
        // Same for a stale buffer snapshot: the kind in the message follows
        // the artifact, not the loader.
        let v2 = r#"{"format_version": 2, "kind": "TimeseriesBuffer", "model": {}}"#;
        match TimeseriesBuffer::from_artifact_json(v2) {
            Err(CoreError::InvalidInput { reason }) => {
                assert!(
                    reason.contains("format version 2 is not supported")
                        && reason.contains("TimeseriesBuffer artifact"),
                    "unexpected reason: {reason}"
                );
            }
            other => panic!("expected InvalidInput, got {other:?}"),
        }
    }

    #[test]
    fn tampered_bound_table_is_rejected_at_load() {
        // The artifact format is deliberately reviewable/editable JSON; an
        // edit that moves a leaf bound off its calibration counts must fail
        // at load, not be served. The taQIM's records come last.
        let tauw = fitted();
        let json = tauw.to_artifact_json().unwrap();
        let last = json.match_indices("\"uncertainty_bound\"").count() - 1;
        let tampered = set_nth(&json, "uncertainty_bound", last, 0.123456789);
        assert_ne!(tampered, json, "tamper edit must hit the artifact");
        match TimeseriesAwareWrapper::from_artifact_json(&tampered) {
            Err(CoreError::InvalidInput { reason }) => {
                assert!(
                    reason.contains("calibrated forest QIM member 0"),
                    "reason: {reason}"
                );
            }
            other => panic!("expected InvalidInput, got {other:?}"),
        }
    }

    #[test]
    fn edited_leaf_bounds_counts_and_confidence_are_rejected_by_every_qim_artifact() {
        // A bound of 7.5 is no probability; an edited failure count or
        // confidence level no longer gives the stored bound. Every artifact
        // that carries a calibrated QIM must refuse all three.
        let tauw = fitted();
        let qim_json = tauw
            .taqim()
            .as_forest()
            .unwrap()
            .to_artifact_json()
            .unwrap();
        let stateless_json = tauw.stateless().to_artifact_json().unwrap();
        let tauw_json = tauw.to_artifact_json().unwrap();
        type Load = fn(&str) -> Result<(), CoreError>;
        let artifacts: [(&str, &str, Load); 3] = [
            ("ForestQim", &qim_json, |json| {
                CalibratedForestQim::from_artifact_json(json).map(drop)
            }),
            ("stateless", &stateless_json, |json| {
                UncertaintyWrapper::from_artifact_json(json).map(drop)
            }),
            ("taUW", &tauw_json, |json| {
                TimeseriesAwareWrapper::from_artifact_json(json).map(drop)
            }),
        ];
        for (kind, json, load) in artifacts {
            load(json).unwrap();
            let bump = |key: &str, nth: usize| {
                let value: u64 = json[nth_number(json, key, nth)].parse().unwrap();
                set_nth(json, key, nth, value + 1)
            };
            let last = |key: &str| json.match_indices(&format!("\"{key}\"")).count() - 1;
            let mut edits = Vec::new();
            // The first QIM in the artifact, and the last (the taQIM of a
            // taUW artifact).
            for (key, nth) in [("uncertainty_bound", 0), ("failures", 0), ("confidence", 0)]
                .into_iter()
                .chain([
                    ("uncertainty_bound", last("uncertainty_bound")),
                    ("failures", last("failures")),
                    ("confidence", last("confidence")),
                ])
            {
                edits.push(match key {
                    "uncertainty_bound" => set_nth(json, key, nth, 7.5),
                    "failures" => bump(key, nth),
                    _ => set_nth(json, key, nth, 0.995),
                });
            }
            for tampered in edits {
                assert_ne!(&tampered, json, "{kind}: tamper edit must hit");
                match load(&tampered) {
                    Err(CoreError::InvalidInput { reason }) => {
                        assert!(reason.contains("leaf node"), "{kind}: {reason}")
                    }
                    other => panic!("{kind}: expected InvalidInput, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn one_member_served_minimum_above_the_smallest_leaf_bound_is_rejected() {
        // Loaded, it would report a `min_uncertainty()` of 1.0 while the
        // model serves far less.
        let tauw = fitted();
        let qim = tauw.taqim().as_forest().unwrap();
        assert!(qim.uncertainty(&taqim_rows()[0]).unwrap() < 1.0);
        let json = qim.to_artifact_json().unwrap();
        let tampered = set_nth(&json, "min_served_bound", 0, "1.0");
        assert_ne!(tampered, json, "tamper edit must hit the artifact");
        match CalibratedForestQim::from_artifact_json(&tampered) {
            Err(CoreError::InvalidInput { reason }) => {
                assert!(reason.contains("smallest leaf bound"), "reason: {reason}");
            }
            other => panic!("expected InvalidInput, got {other:?}"),
        }
    }

    #[test]
    fn scope_models_that_disagree_with_the_qim_are_rejected() {
        // A scope model with a second boundary would load, and then every
        // `estimate()` would fail on arity.
        let mut wb = WrapperBuilder::new();
        wb.max_depth(3)
            .calibration(CalibrationOptions {
                min_samples_per_leaf: 50,
                confidence: 0.99,
                ..Default::default()
            })
            .with_scope_model(0.1);
        let mut b = TauwBuilder::new();
        b.wrapper(wb);
        let tauw = b
            .fit(vec!["q".into()], &toy_series(200, 1), &toy_series(200, 2))
            .unwrap();
        assert!(tauw.stateless().estimate(&[0.5]).is_ok());
        let add_boundary = |json: &str| {
            let field = json.find("\"boundaries\"").expect("field present");
            let bracket = field + json[field..].find('[').expect("array opens");
            let mut tampered = json.to_string();
            tampered.insert_str(bracket + 1, "[0.0, 1.0], ");
            tampered
        };
        let stateless_json = tauw.stateless().to_artifact_json().unwrap();
        let tauw_json = tauw.to_artifact_json().unwrap();
        let plain_json = serde_json::to_string_pretty(tauw.stateless()).unwrap();
        assert!(UncertaintyWrapper::from_artifact_json(&stateless_json).is_ok());
        assert!(TimeseriesAwareWrapper::from_artifact_json(&tauw_json).is_ok());
        assert!(serde_json::from_str::<UncertaintyWrapper>(&plain_json).is_ok());
        for (kind, loaded) in [
            (
                "stateless artifact",
                UncertaintyWrapper::from_artifact_json(&add_boundary(&stateless_json))
                    .map(drop)
                    .map_err(|e| e.to_string()),
            ),
            (
                "taUW artifact",
                TimeseriesAwareWrapper::from_artifact_json(&add_boundary(&tauw_json))
                    .map(drop)
                    .map_err(|e| e.to_string()),
            ),
            (
                "plain stateless",
                serde_json::from_str::<UncertaintyWrapper>(&add_boundary(&plain_json))
                    .map(drop)
                    .map_err(|e| e.to_string()),
            ),
        ] {
            let reason = loaded.expect_err(kind);
            assert!(reason.contains("2 boundaries"), "{kind}: {reason}");
        }
    }

    #[test]
    fn qim_artifacts_store_only_their_source_fields() {
        let keys = |value: serde::Value| match value {
            serde::Value::Map(fields) => fields.into_iter().map(|(k, _)| k).collect::<Vec<_>>(),
            other => panic!("expected a map, got {other:?}"),
        };
        for tauw in [fitted(), fitted_forest()] {
            let qim = tauw.taqim().as_forest().unwrap();
            assert_eq!(
                keys(qim.serialize()),
                ["trees", "leaves", "options", "min_served_bound"]
            );
        }
        let conformal = fitted_conformal();
        let fields = keys(conformal.taqim().as_conformal().unwrap().serialize());
        assert!(!fields.iter().any(|k| k == "flat_rates"), "{fields:?}");
        assert!(fields.iter().any(|k| k == "bin_rates"), "{fields:?}");
    }

    #[test]
    fn v7_artifacts_are_rejected_with_the_version_error() {
        let json = fitted().to_artifact_json().unwrap();
        let v7 = json.replacen(
            &format!("\"format_version\": {FORMAT_VERSION}"),
            "\"format_version\": 7",
            1,
        );
        assert_ne!(v7, json, "version edit must hit the artifact");
        match TimeseriesAwareWrapper::from_artifact_json(&v7) {
            Err(CoreError::InvalidInput { reason }) => assert!(
                reason.contains("format version 7 is not supported (expected 8)"),
                "reason: {reason}"
            ),
            other => panic!("expected InvalidInput, got {other:?}"),
        }
    }

    #[test]
    fn stateless_feature_names_that_disagree_with_the_qim_are_rejected() {
        // One name per stateless QIM feature: an extra name would size rows
        // that every step rejects.
        let tauw = fitted();
        let add_name = |json: &str| {
            let scope = json.find("\"scope\"").expect("field present");
            let names = scope
                + json[scope..]
                    .find("\"feature_names\"")
                    .expect("field present");
            let bracket = names + json[names..].find('[').expect("array opens");
            let mut tampered = json.to_string();
            tampered.insert_str(bracket + 1, " \"extra\",");
            tampered
        };
        let stateless_json = tauw.stateless().to_artifact_json().unwrap();
        let tauw_json = tauw.to_artifact_json().unwrap();
        let plain_json = serde_json::to_string_pretty(&tauw).unwrap();
        assert!(UncertaintyWrapper::from_artifact_json(&stateless_json).is_ok());
        assert!(TimeseriesAwareWrapper::from_artifact_json(&tauw_json).is_ok());
        for (kind, loaded) in [
            (
                "stateless artifact",
                UncertaintyWrapper::from_artifact_json(&add_name(&stateless_json))
                    .map(drop)
                    .map_err(|e| e.to_string()),
            ),
            (
                "taUW artifact",
                TimeseriesAwareWrapper::from_artifact_json(&add_name(&tauw_json))
                    .map(drop)
                    .map_err(|e| e.to_string()),
            ),
            (
                "plain taUW",
                serde_json::from_str::<TimeseriesAwareWrapper>(&add_name(&plain_json))
                    .map(drop)
                    .map_err(|e| e.to_string()),
            ),
        ] {
            let reason = loaded.expect_err(kind);
            assert!(reason.contains("names 2 features"), "{kind}: {reason}");
        }
    }

    #[test]
    fn stateless_wrapper_rejects_a_multi_member_qim() {
        // `explain` describes one tree, so the stateless QIM must be one.
        use tauw_dtree::{Dataset, ForestBuilder, TreeBuilder};
        let rows: Vec<(Vec<f64>, bool)> = (0..400)
            .map(|i| (vec![i as f64 / 400.0], i % 3 == 0 || i > 280))
            .collect();
        let mut ds = Dataset::new(vec!["q".into()], 2).unwrap();
        for (x, failed) in &rows {
            ds.push_row(x, u32::from(*failed)).unwrap();
        }
        let mut builder = ForestBuilder::new(2, 3);
        builder.tree(TreeBuilder::new().max_depth(2).clone());
        let options = CalibrationOptions {
            min_samples_per_leaf: 20,
            ..Default::default()
        };
        let two =
            CalibratedForestQim::calibrate(builder.fit(&ds).unwrap(), &rows, options).unwrap();
        // Swap the artifact's one-member QIM for the two-member one.
        let json = fitted().stateless().to_artifact_json().unwrap();
        let start = json.find("\"qim\": ").unwrap() + "\"qim\": ".len();
        let end = json[..start + json[start..].find("\"scope\"").unwrap()]
            .rfind(',')
            .unwrap();
        let two = serde_json::to_string(&two).unwrap();
        let json = format!("{}{two}{}", &json[..start], &json[end..]);
        let err = UncertaintyWrapper::from_artifact_json(&json).unwrap_err();
        assert!(err.to_string().contains("QIM of 2 trees"), "{err}");
    }

    #[test]
    fn taqf_set_that_disagrees_with_the_taqim_is_rejected_at_load() {
        // An edited taQF set would otherwise load and then fail every step
        // on arity — after the buffer push. Mask 1 selects one factor for a
        // taQIM trained on four; mask 0b10111 keeps four set bits (so the
        // counts agree) but one of them names no factor.
        for tauw in [fitted(), fitted_forest(), fitted_conformal()] {
            let json = tauw.to_artifact_json().unwrap();
            assert!(TimeseriesAwareWrapper::from_artifact_json(&json).is_ok());
            for mask in ["1", "23"] {
                let tampered =
                    json.replacen("\"taqf_set\": 15", &format!("\"taqf_set\": {mask}"), 1);
                assert_ne!(tampered, json, "tamper edit must hit the artifact");
                match TimeseriesAwareWrapper::from_artifact_json(&tampered) {
                    Err(CoreError::InvalidInput { reason }) => {
                        assert!(reason.contains("taQ"), "reason: {reason}");
                    }
                    other => panic!("mask {mask}: expected InvalidInput, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn plain_deserialization_rejects_a_wrapper_that_fails_validate() {
        // Deserialize itself validates, so no caller can build a wrapper
        // whose step would fail after its arity check. Mask 7 selects
        // three taQFs for a taQIM trained on four.
        for tauw in [fitted(), fitted_forest(), fitted_conformal()] {
            let json = serde_json::to_string_pretty(&tauw).unwrap();
            let back: TimeseriesAwareWrapper = serde_json::from_str(&json).unwrap();
            assert_eq!(back, tauw);
            let tampered = json.replacen("\"taqf_set\": 15", "\"taqf_set\": 7", 1);
            assert_ne!(tampered, json, "tamper edit must hit the wrapper");
            let err = serde_json::from_str::<TimeseriesAwareWrapper>(&tampered).unwrap_err();
            assert!(err.to_string().contains("taQIM reads"), "{err}");
        }
    }

    #[test]
    fn buffer_snapshot_roundtrips_mid_wrap_and_resumes_bit_identically() {
        // A bounded buffer that has wrapped (ring head != 0) must reload
        // into the same semantic state: same window, same lifetime counter,
        // and bit-identical estimates for every future step.
        let tauw = fitted();
        let mut buffer = TimeseriesBuffer::bounded(3);
        let mut scratch = ServingScratch::new();
        for (o, q) in [(0u32, 0.2), (1, 0.9), (0, 0.4), (1, 0.8), (0, 0.1)] {
            tauw.step_with_parts(&mut buffer, &mut scratch, &[q], o)
                .unwrap();
        }
        assert_eq!(buffer.total_steps(), 5);
        let json = buffer.to_artifact_json().unwrap();
        let mut back = TimeseriesBuffer::from_artifact_json(&json).unwrap();
        assert_eq!(buffer, back);
        assert_eq!(back.total_steps(), 5);
        for (o, q) in [(1u32, 0.7), (0, 0.3), (1, 0.5)] {
            let a = tauw
                .step_with_parts(&mut buffer, &mut scratch, &[q], o)
                .unwrap();
            let b = tauw
                .step_with_parts(&mut back, &mut scratch, &[q], o)
                .unwrap();
            assert_eq!(a.uncertainty.to_bits(), b.uncertainty.to_bits());
            assert_eq!(a, b);
        }
    }

    #[test]
    fn buffer_artifact_rejects_invariant_violations() {
        let mut buffer = TimeseriesBuffer::bounded(2);
        buffer.push(1, 0.25);
        buffer.push(2, 0.75);
        let json = buffer.to_artifact_json().unwrap();

        // Out-of-range uncertainty: the deserializer must re-establish the
        // push invariants, not trust the artifact.
        let tampered = json.replace("0.25", "7.5");
        assert_ne!(tampered, json, "tamper edit must hit");
        match TimeseriesBuffer::from_artifact_json(&tampered) {
            Err(CoreError::InvalidInput { reason }) => {
                assert!(reason.contains("outside [0, 1]"), "reason: {reason}");
            }
            other => panic!("expected InvalidInput, got {other:?}"),
        }

        // More entries than the capacity bound.
        let tampered = json.replace("\"capacity\": 2", "\"capacity\": 1");
        assert_ne!(tampered, json);
        match TimeseriesBuffer::from_artifact_json(&tampered) {
            Err(CoreError::InvalidInput { reason }) => {
                assert!(reason.contains("capacity"), "reason: {reason}");
            }
            other => panic!("expected InvalidInput, got {other:?}"),
        }

        // Lifetime counter smaller than the window.
        let tampered = json.replace("\"total_steps\": 2", "\"total_steps\": 1");
        assert_ne!(tampered, json);
        assert!(TimeseriesBuffer::from_artifact_json(&tampered).is_err());

        // Non-finite uncertainty (JSON null decodes to NaN).
        let tampered = json.replace("0.75", "null");
        assert_ne!(tampered, json);
        assert!(TimeseriesBuffer::from_artifact_json(&tampered).is_err());

        // Wrong artifact kind.
        let wrapper_json = fitted().to_artifact_json().unwrap();
        assert!(TimeseriesBuffer::from_artifact_json(&wrapper_json).is_err());

        // The untampered artifact still loads.
        assert!(TimeseriesBuffer::from_artifact_json(&json).is_ok());
    }

    #[test]
    fn buffer_snapshot_save_and_load_file() {
        let mut buffer = TimeseriesBuffer::new();
        buffer.push(3, 0.5);
        let path = std::env::temp_dir().join(format!(
            "tauw_buffer_persist_test_{}.json",
            std::process::id()
        ));
        buffer.save(&path).unwrap();
        let back = TimeseriesBuffer::load(&path).unwrap();
        assert_eq!(buffer, back);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn save_and_load_file() {
        let tauw = fitted();
        let path =
            std::env::temp_dir().join(format!("tauw_persist_test_{}.json", std::process::id()));
        tauw.save(&path).unwrap();
        let back = TimeseriesAwareWrapper::load(&path).unwrap();
        assert_eq!(tauw, back);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn missing_file_errors_cleanly() {
        let err = TimeseriesAwareWrapper::load("/nonexistent/path/tauw.json");
        assert!(matches!(err, Err(CoreError::InvalidInput { .. })));
    }

    use crate::adaptive::{AdaptiveConfig, DriftSignal};

    fn adapted_state() -> AdaptiveState {
        let mut state = AdaptiveState::new(AdaptiveConfig {
            window: 6,
            min_observations: 3,
            ..Default::default()
        })
        .unwrap();
        // A mix of successes and failures, enough to ratchet the notch.
        for i in 0..9 {
            let served = state.adapted_bound(0.1 + 0.05 * (i % 4) as f64);
            state.observe(served, i % 2 == 0);
        }
        state
    }

    #[test]
    fn adaptive_state_roundtrips_byte_for_byte() {
        let state = adapted_state();
        let json = state.to_artifact_json().unwrap();
        let back = AdaptiveState::from_artifact_json(&json).unwrap();
        assert_eq!(state, back);
        // Byte-for-byte: re-serializing the loaded state reproduces the
        // artifact exactly (canonical layout, no representation drift).
        assert_eq!(json, back.to_artifact_json().unwrap());
        // Behavioural equality: both copies adapt identically from here.
        let mut a = state;
        let mut b = back;
        for i in 0..12 {
            let ua = a.adapted_bound(0.2);
            let ub = b.adapted_bound(0.2);
            assert_eq!(ua.to_bits(), ub.to_bits());
            a.observe(ua, i % 3 == 0);
            b.observe(ub, i % 3 == 0);
        }
        assert_eq!(a, b);
    }

    #[test]
    fn adaptive_state_artifact_rejects_tampering() {
        let state = adapted_state();
        let json = state.to_artifact_json().unwrap();

        // Correction notch above the configured cap.
        let needle = format!("\"inflation_steps\": {}", state.inflation_steps());
        let tampered = json.replace(
            &needle,
            &format!(
                "\"inflation_steps\": {}",
                state.config().max_inflation_steps + 1
            ),
        );
        assert_ne!(tampered, json, "tamper edit must hit the artifact");
        match AdaptiveState::from_artifact_json(&tampered) {
            Err(CoreError::InvalidInput { reason }) => {
                assert!(reason.contains("inflation step count"), "reason: {reason}");
            }
            other => panic!("expected InvalidInput, got {other:?}"),
        }

        // A non-binary coverage outcome (the ring stores 0/1 only).
        let tampered = json.replace("\"outcome\": 1", "\"outcome\": 3");
        assert_ne!(tampered, json);
        match AdaptiveState::from_artifact_json(&tampered) {
            Err(CoreError::InvalidInput { reason }) => {
                assert!(reason.contains("outcome 3"), "reason: {reason}");
            }
            other => panic!("expected InvalidInput, got {other:?}"),
        }

        // Coverage capacity desynchronized from the configured window.
        let tampered = json.replace("\"capacity\": 6", "\"capacity\": 7");
        assert_ne!(tampered, json);
        match AdaptiveState::from_artifact_json(&tampered) {
            Err(CoreError::InvalidInput { reason }) => {
                assert!(
                    reason.contains("coverage window capacity"),
                    "reason: {reason}"
                );
            }
            other => panic!("expected InvalidInput, got {other:?}"),
        }

        // Wrong artifact kind and stale format version.
        let buffer_json = TimeseriesBuffer::new().to_artifact_json().unwrap();
        assert!(AdaptiveState::from_artifact_json(&buffer_json).is_err());
        let stale = r#"{"format_version": 3, "kind": "AdaptiveState", "model": {}}"#;
        match AdaptiveState::from_artifact_json(stale) {
            Err(CoreError::InvalidInput { reason }) => {
                assert!(
                    reason.contains("format version 3 is not supported")
                        && reason.contains("AdaptiveState artifact"),
                    "reason: {reason}"
                );
            }
            other => panic!("expected InvalidInput, got {other:?}"),
        }

        // The untampered artifact still loads.
        assert!(AdaptiveState::from_artifact_json(&json).is_ok());
    }

    use crate::engine::StreamId;
    use crate::sharded::ShardedEngine;

    fn sharded_engine_with_traffic() -> ShardedEngine {
        let tauw = fitted();
        let mut engine = ShardedEngine::new(tauw, 2);
        engine
            .enable_adaptation(AdaptiveConfig {
                window: 6,
                min_observations: 3,
                ..Default::default()
            })
            .unwrap();
        for round in 0..8 {
            for id in 0..6u64 {
                let q = 0.1 + 0.1 * id as f64;
                let failed = (round + id) % 3 == 0;
                engine
                    .step_adaptive(StreamId(id), &[q], if failed { 1 } else { 0 }, failed)
                    .unwrap();
            }
        }
        engine
    }

    #[test]
    fn engine_shard_artifact_roundtrips_byte_for_byte() {
        let engine = sharded_engine_with_traffic();
        for shard in 0..engine.n_shards() {
            let state = engine.snapshot_shard(shard).unwrap();
            let json = state.to_artifact_json().unwrap();
            let back = EngineShardState::from_artifact_json(&json).unwrap();
            assert_eq!(state, back);
            // Byte-for-byte: re-serializing the loaded snapshot reproduces
            // the artifact exactly (canonical stream order, no
            // representation drift).
            assert_eq!(json, back.to_artifact_json().unwrap());
        }
    }

    #[test]
    fn engine_shard_restore_from_artifact_continues_bit_identically() {
        let mut original = sharded_engine_with_traffic();
        let config = original.adaptive_config().unwrap();
        // Persist every shard, restore into a differently-sharded engine.
        let mut restored = ShardedEngine::new(original.wrapper().clone(), 5);
        restored.enable_adaptation(config).unwrap();
        for shard in 0..original.n_shards() {
            let json = original
                .snapshot_shard(shard)
                .unwrap()
                .to_artifact_json()
                .unwrap();
            let state = EngineShardState::from_artifact_json(&json).unwrap();
            restored.restore(&state).unwrap();
        }
        assert_eq!(restored.n_streams(), original.n_streams());
        for round in 0..4 {
            for id in 0..6u64 {
                let q = 0.2 + 0.1 * id as f64;
                let failed = round % 2 == 0;
                let a = original
                    .step_adaptive(StreamId(id), &[q], u32::from(failed), failed)
                    .unwrap();
                let b = restored
                    .step_adaptive(StreamId(id), &[q], u32::from(failed), failed)
                    .unwrap();
                assert_eq!(a, b, "round {round} stream {id}");
            }
        }
    }

    #[test]
    fn engine_shard_artifact_rejects_tampering_and_stale_versions() {
        let engine = sharded_engine_with_traffic();
        let state = engine.snapshot_shard(0).unwrap();
        assert!(
            !state.streams.is_empty(),
            "shard 0 must carry streams for this test"
        );
        let json = state.to_artifact_json().unwrap();

        // A tampered stream id that breaks the ascending-order invariant.
        let first = state.streams[0].stream.0;
        let needle = format!("\"stream\": {first}");
        let tampered = json.replacen(&needle, "\"stream\": 18446744073709551615", 1);
        assert_ne!(tampered, json, "tamper edit must hit the artifact");
        match EngineShardState::from_artifact_json(&tampered) {
            Err(CoreError::InvalidInput { reason }) => {
                assert!(reason.contains("strictly ascending"), "reason: {reason}");
            }
            other => panic!("expected InvalidInput, got {other:?}"),
        }

        // A buffer invariant violation inside one stream's state is caught
        // by the buffer's own validating deserializer.
        let tampered = json.replacen("\"total_steps\": 8", "\"total_steps\": 1", 1);
        if tampered != json {
            assert!(EngineShardState::from_artifact_json(&tampered).is_err());
        }

        // Wrong artifact kind and stale format version.
        let buffer_json = TimeseriesBuffer::new().to_artifact_json().unwrap();
        assert!(EngineShardState::from_artifact_json(&buffer_json).is_err());
        let stale = r#"{"format_version": 5, "kind": "EngineShard", "model": {}}"#;
        match EngineShardState::from_artifact_json(stale) {
            Err(CoreError::InvalidInput { reason }) => {
                assert!(
                    reason.contains("format version 5 is not supported")
                        && reason.contains("EngineShard artifact"),
                    "reason: {reason}"
                );
            }
            other => panic!("expected InvalidInput, got {other:?}"),
        }

        // The untampered artifact still loads.
        assert!(EngineShardState::from_artifact_json(&json).is_ok());
    }

    #[test]
    fn plain_engine_shard_parse_validates() {
        let engine = sharded_engine_with_traffic();
        let state = engine.snapshot_shard(0).unwrap();
        assert!(state.streams.len() > 1, "shard 0 must carry two streams");
        let parse = |state: &EngineShardState| {
            let json = serde_json::to_string_pretty(state).unwrap();
            serde_json::from_str::<EngineShardState>(&json).map_err(|e| e.to_string())
        };
        assert_eq!(parse(&state).unwrap(), state);

        let mut descending = state.clone();
        descending.streams.reverse();
        let reason = parse(&descending).unwrap_err();
        assert!(reason.contains("strictly ascending"), "{reason}");

        for shard in [state.n_shards, state.n_shards + 7] {
            let out_of_range = EngineShardState {
                shard,
                ..state.clone()
            };
            let reason = parse(&out_of_range).unwrap_err();
            assert!(reason.contains("shard index"), "{reason}");
        }
    }

    #[test]
    fn engine_shard_save_and_load_file() {
        let engine = sharded_engine_with_traffic();
        let state = engine.snapshot_shard(1).unwrap();
        let path = std::env::temp_dir().join(format!(
            "tauw_engine_shard_persist_test_{}.json",
            std::process::id()
        ));
        state.save(&path).unwrap();
        let back = EngineShardState::load(&path).unwrap();
        assert_eq!(state, back);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn adaptive_state_save_and_load_file() {
        let mut state = adapted_state();
        state.record_drift(DriftSignal::Drifting { epistemic: true });
        let path = std::env::temp_dir().join(format!(
            "tauw_adaptive_persist_test_{}.json",
            std::process::id()
        ));
        state.save(&path).unwrap();
        let back = AdaptiveState::load(&path).unwrap();
        assert_eq!(state, back);
        assert_eq!(back.last_drift(), DriftSignal::Drifting { epistemic: true });
        let _ = std::fs::remove_file(path);
    }
}
