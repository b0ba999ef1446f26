//! # emoleak-features
//!
//! The analysis front half of the EmoLeak attack: everything between a raw
//! accelerometer trace and a classifier input.
//!
//! - [`regions`] — automatic speech-region detection (§III-B.2): energy
//!   spikes in the trace mark played speech; the handheld preset applies the
//!   paper's 8 Hz high-pass *for detection only*.
//! - [`time_domain`] / [`freq_domain`] — the 24 features of Table II.
//! - [`spectrogram`] — labeled 32×32 spectrogram images for the CNN image
//!   classifier (§IV-C).
//! - [`info_gain`] — information-gain analysis (Table I ablation).
//! - [`dataset`] — labeled feature datasets: NaN cleaning, z-score
//!   normalization, stratified 80/20 splits and 10-fold CV (§IV-D).
//!
//! # Example
//!
//! ```
//! use emoleak_features::regions::RegionDetector;
//!
//! // A trace with a burst in the middle.
//! let mut trace = vec![0.001; 2000];
//! for i in 800..1200 {
//!     trace[i] = if i % 2 == 0 { 0.2 } else { -0.2 };
//! }
//! let detector = RegionDetector::table_top();
//! let regions = detector.detect(&trace, 420.0);
//! assert_eq!(regions.len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dataset;
pub mod freq_domain;
pub mod info_gain;
pub mod regions;
pub mod spectrogram;
pub mod time_domain;

pub use dataset::FeatureDataset;
pub use regions::RegionDetector;
pub use spectrogram::LabeledSpectrogram;

/// Names of all 24 Table II features, time-domain first.
pub fn all_feature_names() -> Vec<String> {
    time_domain::FEATURE_NAMES
        .iter()
        .chain(freq_domain::FEATURE_NAMES.iter())
        .map(|s| s.to_string())
        .collect()
}

/// Extracts the full 24-dimensional Table II feature vector from one speech
/// region sampled at `fs`.
///
/// Degenerate regions degrade to NaN entries rather than panicking: empty
/// or too-short regions, and regions carrying any non-finite sample (a
/// corrupted sensor log), all yield all-NaN vectors that
/// [`FeatureDataset::clean_invalid`](dataset::FeatureDataset::clean_invalid)
/// removes — mirroring the paper's invalid-entry cleaning step.
pub fn extract_all(region: &[f64], fs: f64) -> Vec<f64> {
    if region.iter().any(|v| !v.is_finite()) {
        return vec![f64::NAN; 24];
    }
    let mut v = Vec::with_capacity(24);
    v.extend_from_slice(&time_domain::extract(region));
    v.extend_from_slice(&freq_domain::extract(region, fs));
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degenerate_regions_yield_nan_not_panic() {
        assert!(extract_all(&[], 420.0).iter().all(|v| v.is_nan()));
        assert!(extract_all(&[1.0, f64::NAN, 2.0], 420.0).iter().all(|v| v.is_nan()));
        assert!(extract_all(&[1.0, f64::INFINITY], 420.0).iter().all(|v| v.is_nan()));
    }

    #[test]
    fn nan_rows_are_cleaned_from_datasets() {
        let mut d = FeatureDataset::new(all_feature_names(), vec!["a".into(), "b".into()]);
        d.push(extract_all(&[], 420.0), 0); // all-NaN row
        let good: Vec<f64> = (0..700).map(|i| 0.05 * (i as f64 * 0.3).sin()).collect();
        d.push(extract_all(&good, 420.0), 1);
        let dropped = d.clean_invalid();
        assert_eq!(dropped, 1);
        assert_eq!(d.len(), 1);
    }
}
