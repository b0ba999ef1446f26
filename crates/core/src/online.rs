//! Incremental (online) entry points into the attack pipeline.
//!
//! [`AttackScenario::harvest`] is batch-shaped: it materializes a whole
//! campaign and returns one result. A live attacker — a zero-permission app
//! sampling the accelerometer during playback or a call — sees the same
//! data *incrementally*: one window of trace at a time, one detected region
//! at a time. This module splits the batch pipeline at exactly those seams
//! so the streaming service (`emoleak-stream`) and `harvest()` run the
//! **same code** on the same inputs:
//!
//! - [`AttackScenario::record_windows`] — stage 1 (record) alone: the
//!   labeled trace windows a campaign produces, with fault accounting.
//! - [`extract_window`] — stage 2 (detect + extract) for a single window:
//!   region detection, Table II features, optional spectrograms. Calling it
//!   per window in order reproduces the batch feature matrix byte for byte.
//! - [`ModelBundle`] / [`InferenceLevel`] — a trained classifier stack the
//!   online service degrades through under deadline pressure: spectrogram
//!   CNN → classical 24-feature Logistic → energy-only speech flagging.

use crate::error::{ClipContext, EmoleakError};
use crate::pipeline::{cnn_train_config, cnn_width_divisor, HarvestResult};
use crate::rung::Rung;
use crate::scenario::AttackScenario;
use emoleak_features::regions::{Region, RegionDetector};
use emoleak_features::spectrogram::SpectrogramGenerator;
use emoleak_features::{all_feature_names, extract_all, LabeledSpectrogram};
use emoleak_ml::logistic::Logistic;
use emoleak_ml::nn::{spectrogram_cnn_scaled, CnnScratch, KernelMode, LoweredCnn, Precision, Tensor};
use emoleak_ml::Classifier;
use emoleak_phone::session::RecordingSession;
use emoleak_phone::FaultLog;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;

/// One clip's trace window with its ground-truth speech spans and label.
pub type LabeledWindow = (Vec<f64>, Vec<(usize, usize)>, usize);
/// A clip queued for continuous-session recording: samples, sample rate,
/// and the (label, ground-truth spans) payload carried through the session.
type SessionClip = (Vec<f64>, f64, (usize, Vec<(usize, usize)>));

/// Stage-1 output of a campaign: the recorded windows before any feature
/// extraction, plus fault accounting. This is both what `harvest()`
/// consumes and what a streaming replay source feeds chunk by chunk.
#[derive(Debug, Clone)]
pub struct RecordedCampaign {
    /// One labeled window per corpus clip, in clip order.
    pub windows: Vec<LabeledWindow>,
    /// The delivered accelerometer rate.
    pub fs: f64,
    /// Per-recording fault accounting (see `HarvestResult::clip_faults`).
    pub clip_faults: Vec<FaultLog>,
    /// Aggregate fault accounting over the campaign.
    pub faults: FaultLog,
    /// Class names, indexed by window label.
    pub class_names: Vec<String>,
}

impl AttackScenario {
    /// Runs stage 1 of the campaign only: records every corpus clip through
    /// the channel (table-top: clip by clip; handheld: one continuous
    /// session) and returns the labeled trace windows.
    ///
    /// [`AttackScenario::harvest`] is `record_windows()` followed by
    /// [`extract_window`] over each window; the streaming service replays
    /// the same windows chunk by chunk. Determinism carries over: output is
    /// bit-identical at any `EMOLEAK_THREADS`.
    ///
    /// # Errors
    ///
    /// Returns [`EmoleakError::UnknownLabel`] (wrapped in
    /// [`EmoleakError::InClip`] identifying the offending clip) if a corpus
    /// clip carries an emotion missing from the corpus's own class set.
    pub fn record_windows(&self) -> Result<RecordedCampaign, EmoleakError> {
        let session = RecordingSession::new(
            &self.device,
            self.setting.speaker_kind(),
            self.setting.placement(),
        )
        .with_policy(self.policy)
        .with_faults(self.faults.clone());
        let emotions = self.corpus.emotions().to_vec();
        let class_names: Vec<String> = emotions.iter().map(|e| e.to_string()).collect();
        let fs_out = session.delivered_rate();
        let mut clip_faults = Vec::new();
        let mut faults = FaultLog::default();

        let label_of = |clip: &emoleak_synth::Clip, i: usize| {
            emotions
                .iter()
                .position(|e| *e == clip.emotion)
                .ok_or_else(|| {
                    EmoleakError::UnknownLabel(clip.emotion.to_string()).in_clip(ClipContext {
                        corpus: self.corpus.name().to_string(),
                        speaker: clip.speaker,
                        emotion: clip.emotion.to_string(),
                        clip: i,
                    })
                })
        };

        // Parallel over clip index; clip i synthesizes via `clip_at(i)` and
        // draws channel noise from stream `derive_seed(seed, i)`, so
        // scheduling cannot reorder any draw.
        let clip_indices: Vec<usize> = (0..self.corpus.total_clips()).collect();
        let mut windows: Vec<LabeledWindow> = Vec::new();
        match self.setting {
            crate::scenario::Setting::TableTopLoudspeaker => {
                let recorded: Vec<Result<(LabeledWindow, FaultLog), EmoleakError>> =
                    emoleak_exec::par_map_indexed(&clip_indices, |_, &i| {
                        let clip = self.corpus.clip_at(i);
                        let label = label_of(&clip, i)?;
                        let mut rng = rand::rngs::StdRng::seed_from_u64(
                            emoleak_exec::derive_seed(self.seed, i as u64),
                        );
                        let (trace, log) =
                            session.record_clip_logged(&clip.samples, clip.fs, &mut rng);
                        let scale = trace.fs / clip.fs;
                        let truth = rescale_spans(&clip.voiced_spans, scale);
                        Ok(((trace.samples, truth, label), log))
                    });
                for r in recorded {
                    let (window, log) = r?;
                    faults.absorb(&log);
                    if !self.faults.is_noop() {
                        clip_faults.push(log);
                    }
                    windows.push(window);
                }
            }
            crate::scenario::Setting::HandheldEarSpeaker => {
                // Synthesis is parallel per clip; the continuous recording
                // itself derives per-clip streams internally
                // (`record_session_seeded`), since posture drift spans
                // clip boundaries and must stay a single whole-session
                // stream.
                let synthesized: Vec<Result<SessionClip, EmoleakError>> =
                    emoleak_exec::par_map_indexed(&clip_indices, |_, &i| {
                        let clip = self.corpus.clip_at(i);
                        let label = label_of(&clip, i)?;
                        let scale = fs_out / clip.fs;
                        let truth = rescale_spans(&clip.voiced_spans, scale);
                        Ok((clip.samples, clip.fs, (label, truth)))
                    });
                let mut clips: Vec<SessionClip> = Vec::with_capacity(synthesized.len());
                for c in synthesized {
                    clips.push(c?);
                }
                let session_seed = rand::rngs::StdRng::seed_from_u64(self.seed).next_u64();
                let (st, log) = session.record_session_seeded(clips, session_seed);
                faults.absorb(&log);
                if !self.faults.is_noop() {
                    clip_faults.push(log);
                }
                for (i, span) in st.labels.iter().enumerate() {
                    let window = st.window(i).to_vec();
                    let (label, truth) = span.label.clone();
                    windows.push((window, truth, label));
                }
            }
        }
        Ok(RecordedCampaign { windows, fs: fs_out, clip_faults, faults, class_names })
    }
}

fn rescale_spans(spans: &[(usize, usize)], scale: f64) -> Vec<(usize, usize)> {
    spans
        .iter()
        .map(|&(s, e)| ((s as f64 * scale) as usize, (e as f64 * scale) as usize))
        .collect()
}

/// One detected region with everything the online classifier needs.
#[derive(Debug, Clone)]
pub struct RegionFeatures {
    /// Region start within its window, samples.
    pub start: usize,
    /// Region end (exclusive, clamped to the window), samples.
    pub end: usize,
    /// The 24 Table II features of the region.
    pub features: Vec<f64>,
    /// The 32×32 spectrogram image, when a generator was supplied.
    pub spectrogram: Option<LabeledSpectrogram>,
}

/// Stage-2 output for one window: raw detected regions (for
/// detection-rate scoring) and per-region features.
#[derive(Debug, Clone, Default)]
pub struct WindowExtraction {
    /// The detector's raw region list (unclamped; indices into the window).
    pub regions: Vec<Region>,
    /// One entry per non-empty clamped region, in region order.
    pub rows: Vec<RegionFeatures>,
}

/// Detects speech regions in one trace window and extracts per-region
/// features — stage 2 of [`AttackScenario::harvest`] for a single window.
///
/// Batch and streaming both call this, so applying it to the same windows
/// in the same order yields byte-identical feature rows. Spectrograms are
/// generated only when `spec_gen` is supplied (the CNN rung needs them;
/// the classical rungs do not); `label` is carried into the generated
/// [`LabeledSpectrogram`] and does not affect features.
pub fn extract_window(
    window: &[f64],
    fs: f64,
    detector: &RegionDetector,
    spec_gen: Option<&SpectrogramGenerator>,
    label: usize,
) -> WindowExtraction {
    let regions = detector.detect(window, fs);
    let mut rows = Vec::new();
    for &(start, end) in &regions {
        let end = end.min(window.len());
        let start = start.min(end);
        let region = &window[start..end];
        if region.is_empty() {
            continue;
        }
        rows.push(RegionFeatures {
            start,
            end,
            features: extract_all(region, fs),
            spectrogram: spec_gen.and_then(|g| g.generate(region, fs, label)),
        });
    }
    WindowExtraction { regions, rows }
}

/// The quality rungs of the online degradation ladder, best first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum InferenceLevel {
    /// Full spectrogram-CNN inference (§IV-C), f64 kernels.
    Cnn,
    /// Spectrogram-CNN inference through the int8-quantized network —
    /// cheaper than [`InferenceLevel::Cnn`], still label-producing, but
    /// deliberately lossy relative to the f64 model.
    CnnInt8,
    /// Classical 24-feature Logistic classification (§IV-D.1).
    Classical,
    /// Energy-only speech/silence flagging — no emotion label.
    EnergyOnly,
    /// Shed load: the region is acknowledged but not processed.
    Shed,
}

impl Rung for InferenceLevel {
    const ALL: &'static [InferenceLevel] = &[
        InferenceLevel::Cnn,
        InferenceLevel::CnnInt8,
        InferenceLevel::Classical,
        InferenceLevel::EnergyOnly,
        InferenceLevel::Shed,
    ];

    fn index(self) -> usize {
        self as usize
    }
}

impl core::fmt::Display for InferenceLevel {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(match self {
            InferenceLevel::Cnn => "cnn",
            InferenceLevel::CnnInt8 => "cnn-int8",
            InferenceLevel::Classical => "classical",
            InferenceLevel::EnergyOnly => "energy-only",
            InferenceLevel::Shed => "shed",
        })
    }
}

/// The verdict one region classification produced.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    /// The rung that actually ran (after coercion for a missing CNN).
    pub level: InferenceLevel,
    /// Predicted emotion label (`None` on the energy-only and shed rungs).
    pub label: Option<usize>,
    /// Whether the region carries speech-band energy.
    pub is_speech: bool,
}

/// A trained classifier stack for online inference: every rung of the
/// degradation ladder backed by one model, trained once on a harvested
/// campaign and then applied region by region.
pub struct ModelBundle {
    class_names: Vec<String>,
    /// Per-feature (mean, std) z-score parameters fitted on training data.
    norm: Vec<(f64, f64)>,
    classical: Logistic,
    /// The trained spectrogram CNN, lowered for inference: f64 weights for
    /// the [`InferenceLevel::Cnn`] rung beside their int8 quantization for
    /// [`InferenceLevel::CnnInt8`]. Prediction is `&self` with a per-thread
    /// scratch, so sessions share it without a lock. Absent when trained
    /// with [`ModelBundle::train`].
    cnn: Option<LoweredCnn>,
    /// Speech/silence threshold on the region's std-dev feature.
    energy_threshold: f64,
}

impl core::fmt::Debug for ModelBundle {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("ModelBundle")
            .field("classes", &self.class_names.len())
            .field("cnn", &self.cnn.is_some())
            .field("energy_threshold", &self.energy_threshold)
            .finish()
    }
}

/// Index of the std-dev entry in the Table II feature vector, used as the
/// energy proxy by the energy-only rung.
const STD_DEV_FEATURE: usize = 3;

thread_local! {
    /// Each thread's CNN activation and im2col buffers, reused across
    /// verdicts and bundles, so a steady-state verdict allocates nothing.
    static CNN_SCRATCH: RefCell<CnnScratch> = RefCell::new(CnnScratch::default());
}

impl ModelBundle {
    /// Trains the classical and energy rungs on a harvested campaign (no
    /// CNN: [`InferenceLevel::Cnn`] then coerces to
    /// [`InferenceLevel::Classical`]).
    ///
    /// # Errors
    ///
    /// Returns [`EmoleakError::DegenerateDataset`] when the harvest has
    /// fewer than 2 rows or fewer than 2 represented classes.
    pub fn train(harvest: &HarvestResult, _seed: u64) -> Result<Self, EmoleakError> {
        Self::train_inner(harvest, None)
    }

    /// Trains all rungs including the spectrogram CNN (honoring
    /// `EMOLEAK_EPOCHS` / `EMOLEAK_CNN_DIV`).
    ///
    /// # Errors
    ///
    /// Returns [`EmoleakError::DegenerateDataset`] on a dataset too small
    /// to train, or [`EmoleakError::Config`] on malformed CNN env knobs.
    pub fn train_with_cnn(harvest: &HarvestResult, seed: u64) -> Result<Self, EmoleakError> {
        if harvest.spectrograms.len() < 2 {
            return Err(EmoleakError::DegenerateDataset(format!(
                "{} spectrograms (CNN rung needs at least 2)",
                harvest.spectrograms.len()
            )));
        }
        Self::train_inner(harvest, Some(seed))
    }

    fn train_inner(harvest: &HarvestResult, cnn_seed: Option<u64>) -> Result<Self, EmoleakError> {
        let features = &harvest.features;
        let represented = features.class_counts().iter().filter(|&&c| c > 0).count();
        if features.len() < 2 || represented < 2 {
            return Err(EmoleakError::DegenerateDataset(format!(
                "{} rows over {represented} represented class(es): online bundle needs \
                 at least 2 of each",
                features.len()
            )));
        }
        let mut normed = features.clone();
        let norm = normed.fit_normalization();
        let mut classical = Logistic::default();
        classical.fit(normed.features(), normed.labels(), normed.num_classes());
        // Energy rung: speech when the region's std-dev exceeds a quarter
        // of the median training std-dev — robust to campaign loudness.
        let mut stds: Vec<f64> =
            features.features().iter().map(|r| r[STD_DEV_FEATURE]).collect();
        stds.sort_by(f64::total_cmp);
        let median = stds.get(stds.len() / 2).copied().unwrap_or(0.0);
        let energy_threshold = 0.25 * median;

        let cnn = match cnn_seed {
            None => None,
            Some(seed) => {
                let config = cnn_train_config()?;
                let divisor = cnn_width_divisor()?;
                let side = emoleak_features::spectrogram::IMAGE_SIZE;
                let mut net =
                    spectrogram_cnn_scaled(features.num_classes(), seed, divisor);
                let xs: Vec<Tensor> = harvest
                    .spectrograms
                    .iter()
                    .map(|s| Tensor::from_shape(&[1, side, side], s.pixels.clone()))
                    .collect();
                let ys: Vec<usize> = harvest.spectrograms.iter().map(|s| s.label).collect();
                // Train on everything: the bundle is the deployed model,
                // not an evaluation protocol. Hold one sample out as the
                // (unused) validation series `fit` requires.
                let (vx, tx) = xs.split_at(1);
                let (vy, ty) = ys.split_at(1);
                net.fit(tx, ty, vx, vy, &config);
                // Keep only the lowered network: the `Sequential`, with its
                // training caches, is dropped here.
                Some(
                    LoweredCnn::from_sequential(&net)
                        .expect("the spectrogram CNN has only layers that lower"),
                )
            }
        };
        Ok(ModelBundle {
            class_names: features.class_names().to_vec(),
            norm,
            classical,
            cnn,
            energy_threshold,
        })
    }

    /// Whether the CNN rungs are backed by a trained network (the f64
    /// and int8 rungs run the one lowered network).
    pub fn has_cnn(&self) -> bool {
        self.cnn.is_some()
    }

    /// The emotion class names, indexed by predicted label.
    pub fn class_names(&self) -> &[String] {
        &self.class_names
    }

    /// The rung that would actually run for `want`:
    /// [`InferenceLevel::Cnn`] coerces to [`InferenceLevel::Classical`]
    /// when no CNN was trained (same for a region without a spectrogram),
    /// and [`InferenceLevel::CnnInt8`] likewise.
    pub fn effective_level(&self, want: InferenceLevel) -> InferenceLevel {
        match want {
            InferenceLevel::Cnn | InferenceLevel::CnnInt8 if self.cnn.is_none() => {
                InferenceLevel::Classical
            }
            other => other,
        }
    }

    /// The region's `side × side` spectrogram pixels, checked, so a
    /// pixel-count mismatch is a typed error naming the bundle.
    fn spectrogram_pixels(region: &RegionFeatures) -> Result<&[f64], EmoleakError> {
        let side = emoleak_features::spectrogram::IMAGE_SIZE;
        let pixels = &region
            .spectrogram
            .as_ref()
            .expect("callers coerce away CNN rungs when the spectrogram is absent")
            .pixels;
        if pixels.len() != side * side {
            return Err(EmoleakError::Shape(emoleak_ml::nn::ShapeError {
                layer: "ModelBundle",
                expected: format!("{side}×{side} spectrogram ({} pixels)", side * side),
                got: vec![pixels.len()],
            }));
        }
        Ok(pixels)
    }

    /// Classifies one detected region at the requested ladder rung,
    /// reporting a typed error when the CNN input is malformed.
    ///
    /// # Errors
    ///
    /// Returns [`EmoleakError::Shape`] when a CNN rung rejects the
    /// region's spectrogram (wrong pixel count or a layer-level shape
    /// mismatch). The cheaper rungs never error.
    pub fn try_classify(
        &self,
        want: InferenceLevel,
        region: &RegionFeatures,
    ) -> Result<Verdict, EmoleakError> {
        let is_speech = region
            .features
            .get(STD_DEV_FEATURE)
            .is_some_and(|&s| s.is_finite() && s > self.energy_threshold);
        let mut level = self.effective_level(want);
        if matches!(level, InferenceLevel::Cnn | InferenceLevel::CnnInt8)
            && region.spectrogram.is_none()
        {
            level = InferenceLevel::Classical;
        }
        let label = match level {
            InferenceLevel::Cnn | InferenceLevel::CnnInt8 => {
                let pixels = Self::spectrogram_pixels(region)?;
                let net = self.cnn.as_ref().expect("coerced above when absent");
                let precision = if level == InferenceLevel::Cnn {
                    Precision::F64(KernelMode::current())
                } else {
                    Precision::Int8
                };
                let side = emoleak_features::spectrogram::IMAGE_SIZE;
                let label = CNN_SCRATCH.with(|scratch| {
                    net.try_predict(&[1, side, side], pixels, precision, &mut scratch.borrow_mut())
                });
                Some(label.map_err(EmoleakError::Shape)?)
            }
            InferenceLevel::Classical => {
                let row: Vec<f64> = region
                    .features
                    .iter()
                    .zip(&self.norm)
                    .map(|(v, (mean, std))| (v - mean) / std)
                    .collect();
                Some(self.classical.predict(&row))
            }
            InferenceLevel::EnergyOnly | InferenceLevel::Shed => None,
        };
        Ok(Verdict { level, label, is_speech })
    }

    /// Classifies one detected region at the requested ladder rung. A CNN
    /// shape error (a malformed spectrogram) falls back to the classical
    /// rung instead of panicking — the region still gets a verdict.
    pub fn classify(&self, want: InferenceLevel, region: &RegionFeatures) -> Verdict {
        match self.try_classify(want, region) {
            Ok(v) => v,
            Err(_) => self
                .try_classify(InferenceLevel::Classical, region)
                .expect("classical rung cannot fail"),
        }
    }
}

/// Convenience: the feature schema the online path shares with batch
/// harvesting (re-exported so stream consumers need not depend on
/// `emoleak-features` directly).
pub fn feature_names() -> Vec<String> {
    all_feature_names()
}

#[cfg(test)]
mod tests {
    use super::*;
    use emoleak_phone::DeviceProfile;
    use emoleak_synth::CorpusSpec;

    fn small_scenario() -> AttackScenario {
        AttackScenario::table_top(
            CorpusSpec::tess().with_clips_per_cell(3),
            DeviceProfile::oneplus_7t(),
        )
    }

    fn restore_env(name: &str, prior: Result<String, std::env::VarError>) {
        match prior {
            Ok(v) => std::env::set_var(name, v),
            Err(_) => std::env::remove_var(name),
        }
    }

    #[test]
    fn record_plus_extract_equals_harvest() {
        let scenario = small_scenario();
        let campaign = scenario.record_windows().unwrap();
        let h = scenario.harvest().unwrap();
        let detector = scenario.setting.region_detector();
        let spec_gen = SpectrogramGenerator::for_accel();
        let mut rows = Vec::new();
        for (window, _truth, label) in &campaign.windows {
            let ex = extract_window(window, campaign.fs, &detector, Some(&spec_gen), *label);
            for rf in ex.rows {
                rows.push(rf.features);
            }
        }
        // harvest() drops NaN rows via clean_invalid; replicate.
        rows.retain(|r| r.iter().all(|v| v.is_finite()));
        assert_eq!(rows.len(), h.features.len());
        for (a, b) in rows.iter().zip(h.features.features()) {
            let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(a), bits(b));
        }
        assert_eq!(campaign.faults, h.faults);
    }

    #[test]
    fn ladder_levels_order_and_saturate() {
        use InferenceLevel::*;
        assert_eq!(Cnn.worse(), CnnInt8);
        assert_eq!(CnnInt8.worse(), Classical);
        assert_eq!(Classical.worse(), EnergyOnly);
        assert_eq!(EnergyOnly.worse(), Shed);
        assert_eq!(Shed.worse(), Shed);
        assert_eq!(Shed.better(), EnergyOnly);
        assert_eq!(Classical.better(), CnnInt8);
        assert_eq!(CnnInt8.better(), Cnn);
        assert_eq!(Cnn.better(), Cnn);
        assert!(Cnn < CnnInt8 && CnnInt8 < Classical && Classical < EnergyOnly && EnergyOnly < Shed);
    }

    #[test]
    fn bundle_classifies_at_every_rung() {
        let h = small_scenario().harvest().unwrap();
        let bundle = ModelBundle::train(&h, 7).unwrap();
        assert!(!bundle.has_cnn());
        let campaign = small_scenario().record_windows().unwrap();
        let detector = RegionDetector::table_top();
        let (window, _, label) = &campaign.windows[0];
        let ex = extract_window(window, campaign.fs, &detector, None, *label);
        let region = &ex.rows[0];
        // Cnn coerces to classical without a trained CNN.
        let v = bundle.classify(InferenceLevel::Cnn, region);
        assert_eq!(v.level, InferenceLevel::Classical);
        assert!(v.label.is_some());
        let v = bundle.classify(InferenceLevel::Classical, region);
        assert!(v.label.unwrap() < bundle.class_names().len());
        let v = bundle.classify(InferenceLevel::EnergyOnly, region);
        assert_eq!(v.label, None);
        assert!(v.is_speech, "a detected region should carry speech energy");
        let v = bundle.classify(InferenceLevel::Shed, region);
        assert_eq!(v.label, None);
    }

    #[test]
    fn classical_rung_matches_direct_logistic() {
        // The bundle's classical rung must agree with training a Logistic
        // by hand on the same normalized data.
        let h = small_scenario().harvest().unwrap();
        let bundle = ModelBundle::train(&h, 7).unwrap();
        let mut normed = h.features.clone();
        normed.fit_normalization();
        let mut clf = Logistic::default();
        clf.fit(normed.features(), normed.labels(), normed.num_classes());
        for (raw, normed_row) in h.features.features().iter().zip(normed.features()) {
            let rf = RegionFeatures {
                start: 0,
                end: 0,
                features: raw.clone(),
                spectrogram: None,
            };
            let v = bundle.classify(InferenceLevel::Classical, &rf);
            assert_eq!(v.label, Some(clf.predict(normed_row)));
        }
    }

    #[test]
    fn degenerate_bundle_training_errors() {
        let h = small_scenario().harvest().unwrap();
        let mut empty = h.clone();
        empty.features =
            emoleak_features::FeatureDataset::new(feature_names(), vec!["a".into(), "b".into()]);
        assert!(matches!(
            ModelBundle::train(&empty, 1),
            Err(EmoleakError::DegenerateDataset(_))
        ));
        let mut no_specs = h.clone();
        no_specs.spectrograms.clear();
        assert!(matches!(
            ModelBundle::train_with_cnn(&no_specs, 1),
            Err(EmoleakError::DegenerateDataset(_))
        ));
    }

    /// A CNN bundle trained for one cheap epoch at `divisor` on the small
    /// campaign.
    fn cnn_bundle(divisor: &str) -> ModelBundle {
        let h = small_scenario().harvest().unwrap();
        // Pin the CNN cost knobs regardless of ambient env; the lock keeps
        // sibling tests from observing them.
        let _guard = crate::test_support::ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let prior = (std::env::var("EMOLEAK_EPOCHS"), std::env::var("EMOLEAK_CNN_DIV"));
        std::env::set_var("EMOLEAK_EPOCHS", "1");
        std::env::set_var("EMOLEAK_CNN_DIV", divisor);
        let b = ModelBundle::train_with_cnn(&h, 7).unwrap();
        restore_env("EMOLEAK_EPOCHS", prior.0);
        restore_env("EMOLEAK_CNN_DIV", prior.1);
        b
    }

    /// The small campaign's regions that carry a spectrogram.
    fn cnn_regions() -> Vec<RegionFeatures> {
        let campaign = small_scenario().record_windows().unwrap();
        let detector = RegionDetector::table_top();
        let spec_gen = SpectrogramGenerator::for_accel();
        campaign
            .windows
            .iter()
            .flat_map(|(window, _, label)| {
                extract_window(window, campaign.fs, &detector, Some(&spec_gen), *label).rows
            })
            .filter(|r| r.spectrogram.is_some())
            .collect()
    }

    /// Per region, its label at the f64 and at the int8 CNN rung.
    type CnnLabels = Vec<[Option<usize>; 2]>;

    /// Classifies every region at both CNN rungs on the calling thread.
    fn cnn_labels(bundle: &ModelBundle, regions: &[RegionFeatures]) -> CnnLabels {
        regions
            .iter()
            .map(|r| {
                [InferenceLevel::Cnn, InferenceLevel::CnnInt8].map(|level| {
                    let v = bundle.classify(level, r);
                    assert_eq!(v.level, level);
                    v.label
                })
            })
            .collect()
    }

    /// `cnn_labels` on a new thread, so with a scratch no call has used.
    fn fresh_thread_labels(bundle: &ModelBundle, regions: &[RegionFeatures]) -> CnnLabels {
        std::thread::scope(|s| s.spawn(|| cnn_labels(bundle, regions)).join().unwrap())
    }

    #[test]
    fn concurrent_sessions_share_one_bundle_and_get_the_serial_verdicts() {
        let bundle = std::sync::Arc::new(cnn_bundle("8"));
        let regions = cnn_regions();
        assert!(regions.len() >= 4, "the check needs real CNN regions");
        let serial = fresh_thread_labels(&bundle, &regions);
        let barrier = std::sync::Barrier::new(4);
        let concurrent: Vec<_> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..4)
                .map(|_| {
                    let bundle = std::sync::Arc::clone(&bundle);
                    let (barrier, regions) = (&barrier, &regions);
                    s.spawn(move || {
                        barrier.wait();
                        cnn_labels(&bundle, regions)
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        for labels in concurrent {
            assert_eq!(labels, serial);
        }
    }

    #[test]
    fn one_threads_scratch_stays_clean_across_bundle_widths() {
        let (narrow, wide) = (cnn_bundle("32"), cnn_bundle("8"));
        let regions = cnn_regions();
        let (want_narrow, want_wide) =
            (fresh_thread_labels(&narrow, &regions), fresh_thread_labels(&wide, &regions));
        for _ in 0..2 {
            assert_eq!(cnn_labels(&wide, &regions), want_wide);
            assert_eq!(cnn_labels(&narrow, &regions), want_narrow);
        }
    }

    #[test]
    fn cnn_bundle_trains_and_predicts() {
        // One cheap epoch on a tiny campaign: the point is the plumbing
        // (spectrogram tensors in, a label out), not accuracy.
        let bundle = cnn_bundle("8");
        assert!(bundle.has_cnn());
        let campaign = small_scenario().record_windows().unwrap();
        let detector = RegionDetector::table_top();
        let spec_gen = SpectrogramGenerator::for_accel();
        let (window, _, label) = &campaign.windows[0];
        let ex = extract_window(window, campaign.fs, &detector, Some(&spec_gen), *label);
        let with_spec = ex.rows.iter().find(|r| r.spectrogram.is_some()).unwrap();
        let v = bundle.classify(InferenceLevel::Cnn, with_spec);
        assert_eq!(v.level, InferenceLevel::Cnn);
        assert!(v.label.unwrap() < bundle.class_names().len());
    }
}
