//! Dataset abstraction for tree training: a dense feature-major matrix
//! with named columns and integer class labels.

use crate::error::DtreeError;

/// A dense training dataset, stored feature-major: one contiguous `f64`
/// column per feature.
///
/// Rows are samples, columns are features; labels are class ids in
/// `0..n_classes`. The uncertainty wrapper uses binary labels
/// (0 = correct, 1 = failure) but the tree is fully multiclass. The split
/// search reads one feature at a time, in an order that is random in the
/// rows, so a column keeps those reads inside `8 · n_samples` bytes.
///
/// Every sample enters through [`Dataset::push_row`], which checks its
/// arity, finiteness and label. There is deliberately no `Deserialize`
/// (or `Serialize`), which would bypass those checks:
///
/// ```compile_fail,E0277
/// fn loadable<T: serde::Deserialize>() {}
/// loadable::<tauw_dtree::Dataset>();
/// ```
///
/// (The same probe compiles for a type that has one:)
///
/// ```
/// fn loadable<T: serde::Deserialize>() {}
/// loadable::<tauw_dtree::DecisionTree>();
/// ```
///
/// # Examples
///
/// ```
/// use tauw_dtree::data::Dataset;
///
/// let mut ds = Dataset::new(vec!["rain".into(), "size".into()], 2)?;
/// ds.push_row(&[0.2, 30.0], 0)?;
/// ds.push_row(&[0.9, 12.0], 1)?;
/// assert_eq!(ds.n_samples(), 2);
/// assert_eq!(ds.n_features(), 2);
/// # Ok::<(), tauw_dtree::DtreeError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    feature_names: Vec<String>,
    n_classes: u32,
    /// `columns[f][row]`: one column of `n_samples` values per feature.
    columns: Vec<Vec<f64>>,
    labels: Vec<u32>,
}

impl Dataset {
    /// Creates an empty dataset with the given feature names and number of
    /// classes.
    ///
    /// # Errors
    ///
    /// Returns [`DtreeError::InvalidHyperParameter`] if there are no
    /// features or fewer than two classes.
    pub fn new(feature_names: Vec<String>, n_classes: u32) -> Result<Self, DtreeError> {
        if feature_names.is_empty() {
            return Err(DtreeError::InvalidHyperParameter {
                constraint: "at least one feature is required",
            });
        }
        if n_classes < 2 {
            return Err(DtreeError::InvalidHyperParameter {
                constraint: "at least two classes are required",
            });
        }
        Ok(Dataset {
            columns: vec![Vec::new(); feature_names.len()],
            feature_names,
            n_classes,
            labels: Vec::new(),
        })
    }

    /// Creates a dataset with auto-generated feature names `f0, f1, ...`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Dataset::new`].
    pub fn with_anonymous_features(n_features: usize, n_classes: u32) -> Result<Self, DtreeError> {
        Dataset::new(
            (0..n_features).map(|i| format!("f{i}")).collect(),
            n_classes,
        )
    }

    /// Appends one sample.
    ///
    /// # Errors
    ///
    /// Returns [`DtreeError`] if the row length does not match the feature
    /// count, any value is non-finite, or the label is out of range.
    pub fn push_row(&mut self, row: &[f64], label: u32) -> Result<(), DtreeError> {
        if row.len() != self.feature_names.len() {
            return Err(DtreeError::FeatureCountMismatch {
                expected: self.feature_names.len(),
                actual: row.len(),
            });
        }
        if label >= self.n_classes {
            return Err(DtreeError::LabelOutOfRange {
                label,
                n_classes: self.n_classes,
            });
        }
        for (j, &v) in row.iter().enumerate() {
            if !v.is_finite() {
                return Err(DtreeError::NonFiniteFeature {
                    row: self.labels.len(),
                    column: j,
                });
            }
        }
        for (column, &v) in self.columns.iter_mut().zip(row) {
            column.push(v);
        }
        self.labels.push(label);
        Ok(())
    }

    /// Reserves capacity for `additional` further samples.
    pub fn reserve(&mut self, additional: usize) {
        for column in &mut self.columns {
            column.reserve(additional);
        }
        self.labels.reserve(additional);
    }

    /// Number of samples.
    pub fn n_samples(&self) -> usize {
        self.labels.len()
    }

    /// Number of features per sample.
    pub fn n_features(&self) -> usize {
        self.feature_names.len()
    }

    /// Number of classes.
    pub fn n_classes(&self) -> u32 {
        self.n_classes
    }

    /// Feature names in column order.
    pub fn feature_names(&self) -> &[String] {
        &self.feature_names
    }

    /// Feature value at `(row, column)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn value(&self, row: usize, column: usize) -> f64 {
        self.columns[column][row]
    }

    /// All values of feature `column`, in sample order.
    ///
    /// # Panics
    ///
    /// Panics if `column >= n_features()`.
    pub(crate) fn column(&self, column: usize) -> &[f64] {
        &self.columns[column]
    }

    /// Label of sample `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= n_samples()`.
    pub fn label(&self, i: usize) -> u32 {
        self.labels[i]
    }

    /// All labels in sample order.
    pub fn labels(&self) -> &[u32] {
        &self.labels
    }

    /// Per-class counts over the whole dataset.
    pub fn class_counts(&self) -> Vec<u64> {
        let mut counts = vec![0u64; self.n_classes as usize];
        for &l in &self.labels {
            counts[l as usize] += 1;
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Dataset {
        let mut ds = Dataset::new(vec!["a".into(), "b".into()], 3).unwrap();
        ds.push_row(&[1.0, 2.0], 0).unwrap();
        ds.push_row(&[3.0, -1.0], 2).unwrap();
        ds.push_row(&[0.5, 0.5], 1).unwrap();
        ds
    }

    #[test]
    fn push_and_access_roundtrip() {
        let ds = sample();
        assert_eq!(ds.n_samples(), 3);
        assert_eq!(ds.value(1, 0), 3.0);
        assert_eq!(ds.value(2, 1), 0.5);
        assert_eq!(ds.column(1), &[2.0, -1.0, 0.5]);
        assert_eq!(ds.label(1), 2);
        assert_eq!(ds.labels(), &[0, 2, 1]);
    }

    #[test]
    fn class_counts_are_correct() {
        let ds = sample();
        assert_eq!(ds.class_counts(), vec![1, 1, 1]);
    }

    #[test]
    fn rejects_wrong_arity() {
        let mut ds = sample();
        assert_eq!(
            ds.push_row(&[1.0], 0),
            Err(DtreeError::FeatureCountMismatch {
                expected: 2,
                actual: 1
            })
        );
    }

    #[test]
    fn rejects_out_of_range_label() {
        let mut ds = sample();
        assert_eq!(
            ds.push_row(&[1.0, 1.0], 3),
            Err(DtreeError::LabelOutOfRange {
                label: 3,
                n_classes: 3
            })
        );
    }

    #[test]
    fn rejects_non_finite_values() {
        let mut ds = sample();
        assert!(matches!(
            ds.push_row(&[f64::NAN, 1.0], 0),
            Err(DtreeError::NonFiniteFeature { column: 0, .. })
        ));
        assert!(matches!(
            ds.push_row(&[1.0, f64::INFINITY], 0),
            Err(DtreeError::NonFiniteFeature { column: 1, .. })
        ));
    }

    #[test]
    fn rejects_degenerate_construction() {
        assert!(Dataset::new(vec![], 2).is_err());
        assert!(Dataset::new(vec!["a".into()], 1).is_err());
        assert!(Dataset::with_anonymous_features(0, 2).is_err());
    }

    #[test]
    fn anonymous_feature_names() {
        let ds = Dataset::with_anonymous_features(3, 2).unwrap();
        assert_eq!(ds.feature_names(), &["f0", "f1", "f2"]);
    }
}
