//! Labeled feature datasets and the paper's preprocessing (§IV-D).
//!
//! - invalid-entry removal (NaN / infinite feature rows),
//! - z-score normalization (for the CNN path),
//! - stratified 80/20 train/test split,
//! - stratified 10-fold cross-validation splits,
//! - CSV export (the paper writes `.csv` for Weka).

use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// A labeled feature matrix: `rows × dim` features with one class label per
/// row.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct FeatureDataset {
    features: Vec<Vec<f64>>,
    labels: Vec<usize>,
    feature_names: Vec<String>,
    class_names: Vec<String>,
}

impl FeatureDataset {
    /// Creates an empty dataset with the given schema.
    pub fn new(feature_names: Vec<String>, class_names: Vec<String>) -> Self {
        FeatureDataset { features: Vec::new(), labels: Vec::new(), feature_names, class_names }
    }

    /// Appends one sample.
    ///
    /// # Panics
    ///
    /// Panics if the row length does not match the schema or the label is
    /// out of range.
    pub fn push(&mut self, row: Vec<f64>, label: usize) {
        assert_eq!(row.len(), self.feature_names.len(), "feature dimension mismatch");
        assert!(label < self.class_names.len(), "label out of range");
        self.features.push(row);
        self.labels.push(label);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.features.len()
    }

    /// Whether the dataset has no samples.
    pub fn is_empty(&self) -> bool {
        self.features.is_empty()
    }

    /// Feature dimensionality.
    pub fn dim(&self) -> usize {
        self.feature_names.len()
    }

    /// Number of classes in the schema.
    pub fn num_classes(&self) -> usize {
        self.class_names.len()
    }

    /// The feature rows.
    pub fn features(&self) -> &[Vec<f64>] {
        &self.features
    }

    /// The labels, parallel to [`FeatureDataset::features`].
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// The feature names.
    pub fn feature_names(&self) -> &[String] {
        &self.feature_names
    }

    /// The class names.
    pub fn class_names(&self) -> &[String] {
        &self.class_names
    }

    /// Removes rows containing NaN or infinite entries (the paper's
    /// invalid-entry cleaning), returning how many were dropped.
    pub fn clean_invalid(&mut self) -> usize {
        let before = self.features.len();
        let keep: Vec<bool> = self
            .features
            .iter()
            .map(|row| row.iter().all(|v| v.is_finite()))
            .collect();
        let mut features = Vec::with_capacity(before);
        let mut labels = Vec::with_capacity(before);
        for (i, k) in keep.iter().enumerate() {
            if *k {
                features.push(std::mem::take(&mut self.features[i]));
                labels.push(self.labels[i]);
            }
        }
        self.features = features;
        self.labels = labels;
        before - self.features.len()
    }

    /// Z-score normalizes each feature in place using the dataset's own
    /// statistics, returning the per-feature `(mean, std)` so a test set can
    /// be normalized with training statistics via
    /// [`FeatureDataset::apply_normalization`].
    pub fn fit_normalization(&mut self) -> Vec<(f64, f64)> {
        let dim = self.dim();
        let n = self.features.len().max(1) as f64;
        let mut params = Vec::with_capacity(dim);
        for j in 0..dim {
            let mean = self.features.iter().map(|r| r[j]).sum::<f64>() / n;
            let var = self.features.iter().map(|r| (r[j] - mean).powi(2)).sum::<f64>() / n;
            let std = var.sqrt().max(1e-12);
            params.push((mean, std));
        }
        self.apply_normalization(&params);
        params
    }

    /// Applies externally fitted normalization parameters.
    ///
    /// # Panics
    ///
    /// Panics if `params.len() != self.dim()`.
    pub fn apply_normalization(&mut self, params: &[(f64, f64)]) {
        assert_eq!(params.len(), self.dim(), "normalization dimension mismatch");
        for row in &mut self.features {
            for (v, (m, s)) in row.iter_mut().zip(params) {
                *v = (*v - m) / s;
            }
        }
    }

    /// Stratified split: `train_fraction` of each class goes to the first
    /// dataset, the rest to the second. Deterministic per `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `train_fraction` is outside `(0, 1)`.
    pub fn stratified_split(&self, train_fraction: f64, seed: u64) -> (FeatureDataset, FeatureDataset) {
        assert!(
            train_fraction > 0.0 && train_fraction < 1.0,
            "train fraction must be in (0, 1)"
        );
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut train = FeatureDataset::new(self.feature_names.clone(), self.class_names.clone());
        let mut test = FeatureDataset::new(self.feature_names.clone(), self.class_names.clone());
        for class in 0..self.num_classes() {
            let mut idx: Vec<usize> =
                (0..self.len()).filter(|&i| self.labels[i] == class).collect();
            idx.shuffle(&mut rng);
            let n_train = ((idx.len() as f64) * train_fraction).round() as usize;
            for (k, &i) in idx.iter().enumerate() {
                let target = if k < n_train { &mut train } else { &mut test };
                target.push(self.features[i].clone(), self.labels[i]);
            }
        }
        (train, test)
    }

    /// Stratified k-fold cross-validation indices: returns `k` folds, each a
    /// list of row indices forming that fold's test set.
    ///
    /// # Panics
    ///
    /// Panics if `k < 2`.
    pub fn stratified_folds(&self, k: usize, seed: u64) -> Vec<Vec<usize>> {
        assert!(k >= 2, "need at least 2 folds");
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut folds = vec![Vec::new(); k];
        for class in 0..self.num_classes() {
            let mut idx: Vec<usize> =
                (0..self.len()).filter(|&i| self.labels[i] == class).collect();
            idx.shuffle(&mut rng);
            for (pos, i) in idx.into_iter().enumerate() {
                folds[pos % k].push(i);
            }
        }
        folds
    }

    /// Builds the sub-dataset selected by `indices`.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn subset(&self, indices: &[usize]) -> FeatureDataset {
        let mut out = FeatureDataset::new(self.feature_names.clone(), self.class_names.clone());
        for &i in indices {
            out.push(self.features[i].clone(), self.labels[i]);
        }
        out
    }

    /// The complement of `indices` as a sub-dataset (k-fold train split).
    pub fn subset_complement(&self, indices: &[usize]) -> FeatureDataset {
        let exclude: std::collections::HashSet<usize> = indices.iter().copied().collect();
        let keep: Vec<usize> = (0..self.len()).filter(|i| !exclude.contains(i)).collect();
        self.subset(&keep)
    }

    /// Per-class sample counts.
    pub fn class_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.num_classes()];
        for &l in &self.labels {
            counts[l] += 1;
        }
        counts
    }

    /// Serializes to CSV with a header row (feature names + `label`).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.feature_names.join(","));
        out.push_str(",label\n");
        for (row, &label) in self.features.iter().zip(&self.labels) {
            for v in row {
                out.push_str(&format!("{v},"));
            }
            out.push_str(&self.class_names[label]);
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy(n_per_class: usize, classes: usize) -> FeatureDataset {
        let mut d = FeatureDataset::new(
            vec!["a".into(), "b".into()],
            (0..classes).map(|c| format!("c{c}")).collect(),
        );
        for c in 0..classes {
            for i in 0..n_per_class {
                d.push(vec![c as f64, i as f64], c);
            }
        }
        d
    }

    #[test]
    fn push_and_counts() {
        let d = toy(5, 3);
        assert_eq!(d.len(), 15);
        assert_eq!(d.dim(), 2);
        assert_eq!(d.class_counts(), vec![5, 5, 5]);
    }

    #[test]
    #[should_panic(expected = "dimension")]
    fn push_rejects_wrong_dim() {
        let mut d = toy(1, 2);
        d.push(vec![1.0], 0);
    }

    #[test]
    fn clean_invalid_removes_nan_rows() {
        let mut d = toy(3, 2);
        d.push(vec![f64::NAN, 1.0], 0);
        d.push(vec![1.0, f64::INFINITY], 1);
        let dropped = d.clean_invalid();
        assert_eq!(dropped, 2);
        assert_eq!(d.len(), 6);
        assert!(d.features().iter().all(|r| r.iter().all(|v| v.is_finite())));
    }

    #[test]
    fn normalization_zeroes_mean_and_units_std() {
        let mut d = toy(50, 2);
        d.fit_normalization();
        for j in 0..d.dim() {
            let col: Vec<f64> = d.features().iter().map(|r| r[j]).collect();
            let mean = col.iter().sum::<f64>() / col.len() as f64;
            let var = col.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / col.len() as f64;
            assert!(mean.abs() < 1e-9);
            assert!((var - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn train_statistics_transfer_to_test() {
        let mut train = toy(50, 2);
        let mut test = toy(10, 2);
        let params = train.fit_normalization();
        test.apply_normalization(&params);
        // Test set normalized with train params is finite and scaled.
        assert!(test.features().iter().flatten().all(|v| v.is_finite()));
    }

    #[test]
    fn stratified_split_preserves_class_balance() {
        let d = toy(100, 4);
        let (train, test) = d.stratified_split(0.8, 7);
        assert_eq!(train.len(), 320);
        assert_eq!(test.len(), 80);
        assert_eq!(train.class_counts(), vec![80; 4]);
        assert_eq!(test.class_counts(), vec![20; 4]);
    }

    #[test]
    fn split_is_deterministic_and_seed_sensitive() {
        let d = toy(50, 2);
        let (a1, _) = d.stratified_split(0.8, 1);
        let (a2, _) = d.stratified_split(0.8, 1);
        let (b, _) = d.stratified_split(0.8, 2);
        assert_eq!(a1, a2);
        assert_ne!(a1, b);
    }

    #[test]
    fn folds_partition_all_samples() {
        let d = toy(25, 3);
        let folds = d.stratified_folds(10, 3);
        assert_eq!(folds.len(), 10);
        let mut all: Vec<usize> = folds.iter().flatten().copied().collect();
        all.sort_unstable();
        let expected: Vec<usize> = (0..d.len()).collect();
        assert_eq!(all, expected);
        // Each fold's complement plus the fold re-covers the dataset.
        let test = d.subset(&folds[0]);
        let train = d.subset_complement(&folds[0]);
        assert_eq!(test.len() + train.len(), d.len());
    }

    #[test]
    fn csv_round_trips_header_and_rows() {
        let d = toy(1, 2);
        let csv = d.to_csv();
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some("a,b,label"));
        assert_eq!(csv.lines().count(), 3);
        assert!(csv.contains(",c1"));
    }
}
