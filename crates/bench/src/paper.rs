//! The paper's evaluation as one registry of reports: Tables I–VII,
//! Figures 2–7 and the §III-B and §VI studies, each rendered into a
//! [`Report`] and published as `<name>.txt` under
//! [`results_dir`](crate::results_dir).
//!
//! The `paper` binary runs [`REPORTS`] in order, or only the reports named
//! on its command line (`paper table5_tess`). A report that reads the
//! scale knobs states the [`Budget`](crate::Budget) it ran at in its
//! banner (Figures 2–4 use fixed clips and have none). With no environment
//! set, the run regenerates the committed `results/*.txt` byte for byte,
//! at any `EMOLEAK_THREADS`.

use crate::Report;
use emoleak_core::prelude::*;
use emoleak_features::{all_feature_names, extract_all};
use emoleak_synth::Clip;

mod figures;
mod studies;
mod tables;

/// Renders one report into its artifact.
pub type Render = fn(&mut Report) -> Result<(), EmoleakError>;

/// Every paper report, by artifact name, in the order `paper` runs them.
pub const REPORTS: [(&str, Render); 17] = [
    ("table1_info_gain", tables::table1_info_gain),
    ("table2_features", tables::table2_features),
    ("table3_savee", tables::table3_savee),
    ("table4_cremad", tables::table4_cremad),
    ("table5_tess", tables::table5_tess),
    ("table6_earspeaker", tables::table6_earspeaker),
    ("table7_summary", tables::table7_summary),
    ("fig2_spectrograms", figures::fig2_spectrograms),
    ("fig3_word_regions", figures::fig3_word_regions),
    ("fig4_earpiece_filter", figures::fig4_earpiece_filter),
    ("fig6_confusion", figures::fig6_confusion),
    ("fig7_training_curves", figures::fig7_training_curves),
    ("region_detection", studies::region_detection),
    ("accel_vs_gyro", studies::accel_vs_gyro),
    ("ablation_features", studies::ablation_features),
    ("android_200hz", studies::android_200hz),
    ("mitigations", studies::mitigations),
];

/// The reports `names` selects, in the order given; every report, in
/// registry order, when `names` is empty.
///
/// # Errors
///
/// [`EmoleakError::Config`] naming the first unknown name and listing the
/// valid ones. Names are checked before any report runs.
pub fn select(names: &[String]) -> Result<Vec<(&'static str, Render)>, EmoleakError> {
    if names.is_empty() {
        return Ok(REPORTS.to_vec());
    }
    names
        .iter()
        .map(|name| {
            REPORTS.iter().find(|(known, _)| known == name).copied().ok_or_else(|| {
                let valid: Vec<&str> = REPORTS.iter().map(|(known, _)| *known).collect();
                EmoleakError::Config(format!(
                    "unknown paper report {name:?}; valid names: {}",
                    valid.join(", ")
                ))
            })
        })
        .collect()
}

/// Runs the reports `names` selects (see [`select`]), publishing each as
/// soon as it is rendered.
///
/// # Errors
///
/// An unknown name, or the first report that fails; the reports before it
/// stay published.
pub fn run(names: &[String]) -> Result<(), EmoleakError> {
    for (name, render) in select(names)? {
        let mut report = Report::new(name);
        render(&mut report)?;
        report.publish()?;
    }
    Ok(())
}

/// Table II features of every region of every clip of `corpus`, labelled
/// with the clip's emotion. `regions` turns clip `i` into the samples, rate
/// and spans to extract from. Clips run in parallel; rows land in clip
/// order, and invalid rows are dropped.
fn clip_features(
    corpus: &CorpusSpec,
    regions: impl Fn(usize, Clip) -> (Vec<f64>, f64, Vec<(usize, usize)>) + Sync,
) -> FeatureDataset {
    let emotions = corpus.emotions();
    let mut features = FeatureDataset::new(
        all_feature_names(),
        emotions.iter().map(|e| e.to_string()).collect(),
    );
    let clip_indices: Vec<usize> = (0..corpus.total_clips()).collect();
    let per_clip = emoleak_exec::par_map_indexed(&clip_indices, |_, &i| {
        let clip = corpus.clip_at(i);
        let label = emotions.iter().position(|e| *e == clip.emotion).expect("a corpus emotion");
        let (samples, fs, spans) = regions(i, clip);
        spans
            .iter()
            .map(|&(s, e)| (extract_all(&samples[s..e.min(samples.len())], fs), label))
            .collect::<Vec<_>>()
    });
    for (row, label) in per_clip.into_iter().flatten() {
        features.push(row, label);
    }
    features.clean_invalid();
    features
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// Text artifacts under `results/` that other binaries publish.
    const NOT_PAPER: [&str; 1] = ["fleet_clean_digest"];

    #[test]
    fn registry_names_match_the_committed_paper_reports() {
        let names: Vec<&str> = REPORTS.iter().map(|(name, _)| *name).collect();
        let unique: BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len(), "duplicate report name in {names:?}");

        let results = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
        let committed: BTreeSet<String> = std::fs::read_dir(&results)
            .expect("results/ is committed")
            .map(|entry| entry.expect("readable results/ entry").path())
            .filter(|path| path.extension().is_some_and(|ext| ext == "txt"))
            .filter_map(|path| Some(path.file_stem()?.to_str()?.to_string()))
            .filter(|stem| !NOT_PAPER.contains(&stem.as_str()))
            .collect();
        let registered: BTreeSet<String> = unique.iter().map(|name| name.to_string()).collect();
        assert_eq!(registered, committed);
    }

    #[test]
    fn selection_keeps_order_and_rejects_unknown_names() {
        assert_eq!(select(&[]).unwrap().len(), REPORTS.len());
        let picked = select(&["table5_tess".into(), "fig2_spectrograms".into()]).unwrap();
        let picked: Vec<&str> = picked.iter().map(|(name, _)| *name).collect();
        assert_eq!(picked, ["table5_tess", "fig2_spectrograms"]);
        let err = select(&["table4_cremad".into(), "table8".into()]).unwrap_err();
        assert!(matches!(err, EmoleakError::Config(_)), "{err}");
        assert!(err.to_string().contains("\"table8\""), "{err}");
        assert!(REPORTS.iter().all(|(name, _)| err.to_string().contains(name)), "{err}");
    }
}
