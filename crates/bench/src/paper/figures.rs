//! Figures 2, 3, 4, 6 and 7.

use crate::{clips_per_cell, Report};
use emoleak_core::pipeline::{cnn_train_config, cnn_width_divisor};
use emoleak_core::prelude::*;
use emoleak_core::report::render_history;
use emoleak_core::scenario::Setting;
use emoleak_core::{evaluate_features, ClassifierKind, HarvestResult, Protocol};
use emoleak_dsp::filter::earpiece_region_highpass;
use emoleak_features::regions::{detection_rate, RegionDetector};
use emoleak_features::spectrogram::{ascii_render, SpectrogramGenerator, IMAGE_SIZE};
use emoleak_ml::nn::CnnClassifier;
use emoleak_ml::Classifier;
use emoleak_phone::session::{RecordingSession, SessionTrace};
use rand::SeedableRng;

/// Figure 2 — spectrograms of the same utterance played with five different
/// emotions through the loudspeaker (OnePlus 7T, table-top), rendered as
/// ASCII heat maps (time down the page, frequency across).
pub(super) fn fig2_spectrograms(report: &mut Report) -> Result<(), EmoleakError> {
    report.line("Figure 2: accelerometer spectrograms per emotion (OnePlus 7T, loudspeaker)");
    let corpus = CorpusSpec::tess().with_clips_per_cell(1);
    let session = session(Setting::TableTopLoudspeaker);
    let detector = RegionDetector::table_top();
    let spec_gen = SpectrogramGenerator::for_accel();
    let mut rng = rand::rngs::StdRng::seed_from_u64(2);
    for emotion in [
        Emotion::Anger,
        Emotion::Neutral,
        Emotion::Fear,
        Emotion::Happy,
        Emotion::Sad,
    ] {
        // Same speaker, same repetition index: "the same sentence by the
        // same actor with different emotions" (§III-B.5).
        let clip = corpus.clip(0, emotion, 0);
        let trace = session.record_clip(&clip.samples, clip.fs, &mut rng);
        let regions = detector.detect(&trace.samples, trace.fs);
        let Some(&(s, e)) = regions.first() else {
            report.line(format!("\n[{emotion}] (no region detected)"));
            continue;
        };
        let img = spec_gen
            .generate(&trace.samples[s..e.min(trace.samples.len())], trace.fs, 0)
            .expect("region long enough for a spectrogram");
        report.line(format!(
            "\n[{emotion}] region {:.2}-{:.2} s, freq -> 0..{:.0} Hz",
            s as f64 / trace.fs, e as f64 / trace.fs, trace.fs / 2.0
        ));
        report.block(ascii_render(&img.pixels, IMAGE_SIZE));
    }
    Ok(())
}

/// Figure 3 — word regions in a TESS playback: the acceleration-vs-time view
/// and the per-region detection, rendered as an ASCII amplitude plot.
pub(super) fn fig3_word_regions(report: &mut Report) -> Result<(), EmoleakError> {
    report.line("Figure 3: word regions in accelerometer data (TESS, loudspeaker)");
    let corpus = CorpusSpec::tess().with_clips_per_cell(3);
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    // A few consecutive clips, like the paper's 1.1–2.0 s window.
    let st = session(Setting::TableTopLoudspeaker)
        .record_session(clips(&corpus, Emotion::Happy, 3), &mut rng);
    let trace = &st.trace;
    let detector = RegionDetector::table_top();
    let regions = detector.detect(&trace.samples, trace.fs);

    // ASCII amplitude strip: 100 columns over the trace.
    let cols = 100;
    let n = trace.samples.len();
    let mut amp_row = String::new();
    let mut marker_row = String::new();
    for c in 0..cols {
        let lo = c * n / cols;
        let hi = ((c + 1) * n / cols).max(lo + 1);
        let seg = &trace.samples[lo..hi.min(n)];
        let peak = seg.iter().fold(0.0f64, |a, &b| a.max(b.abs()));
        let level = (peak * 400.0).min(9.0) as usize;
        amp_row.push(char::from_digit(level as u32, 10).unwrap());
        let in_region = regions.iter().any(|&(s, e)| lo < e && hi > s);
        marker_row.push(if in_region { '^' } else { ' ' });
    }
    report.line(format!("|amplitude| (0-9 scale), {:.1} s total:", trace.duration()));
    report.line(&amp_row);
    report.line(format!("{marker_row}  <- detected speech regions"));
    report.line(format!("\ndetected {} regions: {:?}", regions.len(), regions));
    report.line(format!(
        "word-region detection rate: {:.0}% (paper: ~90% table-top)",
        detection_rate(&regions, &word_spans(&corpus, Emotion::Happy, &st)) * 100.0
    ));
    Ok(())
}

/// Figure 4 — why the 8 Hz high-pass is needed for the ear-speaker setting:
/// (a) raw handheld trace shows no visible speech, (b) after the 8 Hz HPF
/// the regions emerge, (c) the loudspeaker trace needs no filter.
pub(super) fn fig4_earpiece_filter(report: &mut Report) -> Result<(), EmoleakError> {
    report.line("Figure 4: earpiece vs loudspeaker region visibility (TESS, OnePlus 7T)");
    let corpus = CorpusSpec::tess().with_clips_per_cell(4);
    let mut rng = rand::rngs::StdRng::seed_from_u64(4);

    // (a)+(b): handheld, ear speaker.
    let st = session(Setting::HandheldEarSpeaker)
        .record_session(clips(&corpus, Emotion::Anger, 4), &mut rng);
    let raw = &st.trace.samples;
    report.line("\n(a) raw earpiece trace (motion noise dominates):");
    report.line(amp_strip(raw, 100));
    let hp = earpiece_region_highpass(st.trace.fs).expect("accel rate above 16 Hz");
    let filtered = hp.filtfilt(raw);
    report.line("(b) after 8 Hz high-pass (speech regions emerge):");
    report.line(amp_strip(&filtered, 100));
    let regions_hp = RegionDetector::handheld().detect(raw, st.trace.fs);
    report.line(format!("    detected regions: {regions_hp:?}"));
    report.line(format!(
        "    ear-speaker detection rate: {:.0}% (paper: >= 45%)",
        detection_rate(&regions_hp, &word_spans(&corpus, Emotion::Anger, &st)) * 100.0
    ));

    // (c): loudspeaker, table-top — no filter needed.
    let st2 = session(Setting::TableTopLoudspeaker)
        .record_session(clips(&corpus, Emotion::Anger, 4), &mut rng);
    report.line("\n(c) loudspeaker trace (no filter needed):");
    report.line(amp_strip(&st2.trace.samples, 100));
    let regions_ls = RegionDetector::table_top().detect(&st2.trace.samples, st2.trace.fs);
    report.line(format!("    detected regions: {regions_ls:?}"));
    Ok(())
}

/// A OnePlus 7T recording session in `setting`.
fn session(setting: Setting) -> RecordingSession {
    RecordingSession::new(&DeviceProfile::oneplus_7t(), setting.speaker_kind(), setting.placement())
}

/// The first `n` repetitions of speaker 0's `emotion` clips, as a session
/// playlist labelled by repetition.
fn clips(corpus: &CorpusSpec, emotion: Emotion, n: usize) -> Vec<(Vec<f64>, f64, usize)> {
    (0..n).map(|r| (corpus.clip(0, emotion, r).samples, 8000.0, r)).collect()
}

/// Ground-truth word spans of a session recorded from [`clips`], in trace
/// samples: each clip's voiced spans, rescaled to the trace rate and offset
/// by the clip's start.
fn word_spans(
    corpus: &CorpusSpec,
    emotion: Emotion,
    st: &SessionTrace<usize>,
) -> Vec<(usize, usize)> {
    let mut truths = Vec::new();
    for span in &st.labels {
        let clip = corpus.clip(0, emotion, span.label);
        let scale = st.trace.fs / clip.fs;
        for &(s, e) in &clip.voiced_spans {
            truths.push((
                span.start + (s as f64 * scale) as usize,
                span.start + (e as f64 * scale) as usize,
            ));
        }
    }
    truths
}

/// Renders a 0–9 amplitude strip, auto-scaled to the strip's own peak so
/// every panel uses its full dynamic range (the paper's panels are
/// individually scaled too).
fn amp_strip(samples: &[f64], cols: usize) -> String {
    let n = samples.len();
    let global_peak = samples.iter().fold(0.0f64, |a, &b| a.max(b.abs())).max(1e-12);
    (0..cols)
        .map(|c| {
            let lo = c * n / cols;
            let hi = ((c + 1) * n / cols).max(lo + 1).min(n);
            let peak = samples[lo..hi].iter().fold(0.0f64, |a, &b| a.max(b.abs()));
            char::from_digit(((peak / global_peak * 9.0).min(9.0)) as u32, 10).unwrap()
        })
        .collect()
}

/// Figure 6 — confusion matrices for TESS on the OnePlus 7T:
/// (a) loudspeaker/table-top (80/20 holdout), (b) ear speaker/handheld
/// (10-fold cross-validation), both on time–frequency features.
///
/// Paper shape: (a) near-diagonal (95 %+); (b) diffuse with
/// disgust/fear/neutral/sad confusions.
pub(super) fn fig6_confusion(report: &mut Report) -> Result<(), EmoleakError> {
    let corpus = CorpusSpec::tess().with_clips_per_cell(clips_per_cell()?);
    report.banner("Figure 6: TESS confusion matrices (OnePlus 7T)", &[&corpus])?;

    let loud = AttackScenario::table_top(corpus.clone(), DeviceProfile::oneplus_7t()).harvest()?;
    let eval_a =
        evaluate_features(&loud.features, ClassifierKind::Logistic, Protocol::Holdout8020, 6)?;
    report.line(format!(
        "\n(a) loudspeaker / table-top, Logistic, 80/20 split — accuracy {:.2}%",
        eval_a.accuracy * 100.0
    ));
    report.block(eval_a.confusion.render());

    let ear = AttackScenario::handheld(corpus, DeviceProfile::oneplus_7t()).harvest()?;
    let eval_b =
        evaluate_features(&ear.features, ClassifierKind::RandomForest, Protocol::KFold(10), 6)?;
    report.line(format!(
        "\n(b) ear speaker / handheld, Random Forest, 10-fold CV — accuracy {:.2}%",
        eval_b.accuracy * 100.0
    ));
    report.block(eval_b.confusion.render());
    Ok(())
}

/// Figure 7 — CNN training/validation loss and accuracy curves for the
/// TESS dataset, loudspeaker (a, b) and ear speaker (c, d).
pub(super) fn fig7_training_curves(report: &mut Report) -> Result<(), EmoleakError> {
    let corpus = CorpusSpec::tess().with_clips_per_cell(clips_per_cell()?);
    report.banner("Figure 7: CNN training curves (TESS, OnePlus 7T)", &[&corpus])?;
    let loud = AttackScenario::table_top(corpus.clone(), DeviceProfile::oneplus_7t()).harvest()?;
    curves(report, "loudspeaker (a, b)", &loud)?;
    let ear = AttackScenario::handheld(corpus, DeviceProfile::oneplus_7t()).harvest()?;
    curves(report, "ear speaker (c, d)", &ear)?;
    Ok(())
}

fn curves(report: &mut Report, name: &str, harvest: &HarvestResult) -> Result<(), EmoleakError> {
    let mut features = harvest.features.clone();
    features.fit_normalization();
    let mut cnn =
        CnnClassifier::new(cnn_train_config()?, 0xF16).with_width_divisor(cnn_width_divisor()?);
    cnn.fit(features.features(), features.labels(), features.num_classes());
    let history = cnn.history().expect("history recorded during fit");
    report.line(format!("\n[{name}]"));
    report.block(render_history(history));
    let first = history.train_loss.first().copied().unwrap_or(f64::NAN);
    let last = history.train_loss.last().copied().unwrap_or(f64::NAN);
    report.line(format!(
        "training loss {first:.3} -> {last:.3} (decreasing: {})",
        last < first
    ));
    Ok(())
}
