//! The §III-B and §VI studies, plus the feature-half ablation.

use super::clip_features;
use crate::{clips_per_cell, Report};
use emoleak_core::mitigation::{damping_study, SamplingCapStudy};
use emoleak_core::prelude::*;
use emoleak_core::{evaluate_features, ClassifierKind, Protocol};
use emoleak_features::regions::RegionDetector;
use emoleak_phone::gyro::GyroChannel;
use emoleak_phone::SpeakerKind;
use rand::SeedableRng;

/// §III-B.2 — speech-region extraction rates: ~90 % for the
/// table-top/loudspeaker setting, >= 45 % for the handheld/ear-speaker
/// setting.
pub(super) fn region_detection(report: &mut Report) -> Result<(), EmoleakError> {
    let corpus = CorpusSpec::tess().with_clips_per_cell(clips_per_cell()?);
    report.banner("Speech-region extraction rates (TESS, OnePlus 7T)", &[&corpus])?;
    let loud = AttackScenario::table_top(corpus.clone(), DeviceProfile::oneplus_7t()).harvest()?;
    let ear = AttackScenario::handheld(corpus, DeviceProfile::oneplus_7t()).harvest()?;
    report.line(format!(
        "table-top / loudspeaker : {:.0}% of word regions (paper: ~90%)",
        loud.detection_rate * 100.0
    ));
    report.line(format!(
        "handheld / ear speaker  : {:.0}% of word regions (paper: >= 45%)",
        ear.detection_rate * 100.0
    ));
    Ok(())
}

/// §III-B.1 — the sensor-choice justification: the accelerometer captures
/// speech vibrations far better than the gyroscope, so the attack uses the
/// accelerometer. Identical playback campaigns run through both sensor
/// channels, then emotion classification on each.
pub(super) fn accel_vs_gyro(report: &mut Report) -> Result<(), EmoleakError> {
    let corpus = CorpusSpec::tess().with_clips_per_cell(clips_per_cell()?.min(20));
    report.banner("Sensor choice: accelerometer vs gyroscope (TESS / OnePlus 7T)", &[&corpus])?;
    let device = DeviceProfile::oneplus_7t();

    // Accelerometer arm: the standard pipeline.
    let accel = AttackScenario::table_top(corpus.clone(), device.clone()).harvest()?;
    let accel_acc =
        evaluate_features(&accel.features, ClassifierKind::Logistic, Protocol::Holdout8020, 1)?
            .accuracy;

    // Gyroscope arm: identical playback through the rotational channel.
    let gyro_channel = GyroChannel::new(&device, SpeakerKind::Loudspeaker);
    let detector = RegionDetector::table_top();
    let gyro_features = clip_features(&corpus, |i, clip| {
        // Per-clip RNG streams (not one shared sequential RNG) so the clips
        // simulate in parallel with worker-count-independent output.
        let mut rng =
            rand::rngs::StdRng::seed_from_u64(emoleak_exec::derive_seed(0xE40, i as u64));
        let trace = gyro_channel.simulate(&clip.samples, clip.fs, &mut rng);
        let regions = detector.detect(&trace.samples, trace.fs);
        (trace.samples, trace.fs, regions)
    });
    let gyro_acc = if gyro_features.len() > 40
        && gyro_features.class_counts().iter().all(|&c| c >= 5)
    {
        evaluate_features(&gyro_features, ClassifierKind::Logistic, Protocol::Holdout8020, 1)?
            .accuracy
    } else {
        corpus.random_guess() // too little signal to even train
    };

    report.line(format!(
        "accelerometer : accuracy {:.1}% ({} regions)",
        accel_acc * 100.0,
        accel.features.len()
    ));
    report.line(format!(
        "gyroscope     : accuracy {:.1}% ({} regions from {} clips)",
        gyro_acc * 100.0,
        gyro_features.len(),
        corpus.total_clips()
    ));
    report.line("paper (§III-B.1): gyroscope exhibits a much weaker audio response — attack uses the accelerometer");
    Ok(())
}

/// Projects a dataset onto a column range.
fn project(d: &FeatureDataset, cols: std::ops::Range<usize>) -> FeatureDataset {
    let mut out = FeatureDataset::new(
        d.feature_names()[cols.clone()].to_vec(),
        d.class_names().to_vec(),
    );
    for (row, &label) in d.features().iter().zip(d.labels()) {
        out.push(row[cols.clone()].to_vec(), label);
    }
    out
}

/// Design-choice ablation: which half of Table II does the work?
///
/// Compares emotion-recognition accuracy using (a) the 12 time-domain
/// features only, (b) the 12 frequency-domain features only, (c) all 24 —
/// on the TESS/loudspeaker/OnePlus 7T campaign. The paper uses all 24; this
/// ablation quantifies why.
pub(super) fn ablation_features(report: &mut Report) -> Result<(), EmoleakError> {
    let corpus = CorpusSpec::tess().with_clips_per_cell(clips_per_cell()?);
    report.banner(
        "Ablation: time-domain vs frequency-domain features (TESS / OnePlus 7T)",
        &[&corpus],
    )?;
    let harvest = AttackScenario::table_top(corpus, DeviceProfile::oneplus_7t()).harvest()?;
    let variants: [(&str, FeatureDataset); 3] = [
        ("time-domain only (12)", project(&harvest.features, 0..12)),
        ("frequency-domain only (12)", project(&harvest.features, 12..24)),
        ("all Table II features (24)", harvest.features.clone()),
    ];
    report.line(format!("{:<30} {:>10}", "feature set", "accuracy"));
    // The three projections train independently: evaluate in parallel.
    let accs = emoleak_exec::par_map_indexed(&variants, |_, (_, data)| {
        evaluate_features(data, ClassifierKind::Logistic, Protocol::Holdout8020, 0xAB1)
            .map(|eval| eval.accuracy)
    });
    for ((name, _), acc) in variants.iter().zip(accs) {
        report.line(format!("{name:<30} {:>9.2}%", acc? * 100.0));
    }
    Ok(())
}

/// §VI-A — the Android 12 sampling-rate restriction: TESS/loudspeaker
/// accuracy at the native sensor rate vs capped at 200 Hz.
///
/// Paper: 95.3 % native vs 80.1 % capped — still > 5× random guessing.
pub(super) fn android_200hz(report: &mut Report) -> Result<(), EmoleakError> {
    let corpus = CorpusSpec::tess().with_clips_per_cell(clips_per_cell()?);
    report.banner("Android 200 Hz sampling cap (TESS / loudspeaker / OnePlus 7T)", &[&corpus])?;
    let scenario = AttackScenario::table_top(corpus, DeviceProfile::oneplus_7t());
    let study = SamplingCapStudy::run(&scenario, ClassifierKind::Logistic, 0xA12)?;
    report.line(format!("native rate accuracy : {:.2}%", study.accuracy_default * 100.0));
    report.line(format!("200 Hz cap accuracy  : {:.2}%", study.accuracy_capped * 100.0));
    report.line(format!("random guess         : {:.2}%", study.random_guess * 100.0));
    report.line(format!(
        "attack survives the cap at >5x random guess: {}",
        study.attack_survives(5.0)
    ));
    report.line("paper: 95.3% native vs 80.1% capped");
    Ok(())
}

/// §VI-B — risk-mitigation study: vibration damping / sensor relocation,
/// modeled as scaling the chassis coupling, plus the delivered-data
/// high-pass from Table I.
pub(super) fn mitigations(report: &mut Report) -> Result<(), EmoleakError> {
    let corpus = CorpusSpec::tess().with_clips_per_cell(clips_per_cell()?.min(20));
    report.banner(
        "Mitigations: vibration damping / sensor relocation (TESS / OnePlus 7T)",
        &[&corpus],
    )?;
    let scenario = AttackScenario::table_top(corpus, DeviceProfile::oneplus_7t());
    report.line(format!("{:<24} {:>10}", "coupling remaining", "accuracy"));
    // Each damping level is an independent campaign: sweep in parallel.
    let levels = [1.0, 0.5, 0.25, 0.1, 0.05, 0.02];
    let accs = emoleak_exec::par_map_indexed(&levels, |_, &damping| {
        damping_study(&scenario, ClassifierKind::Logistic, damping, 0x317)
    });
    for (&damping, acc) in levels.iter().zip(accs) {
        report.line(format!("{:<24} {:>9.2}%", format!("{:.0}%", damping * 100.0), acc? * 100.0));
    }
    report.line(format!("(random guess {:.2}%)", scenario.corpus.random_guess() * 100.0));
    Ok(())
}
