//! Harvesting and classification: the attack's data path.
//!
//! [`AttackScenario::harvest`] plays every corpus clip through the phone
//! channel, detects speech regions, and extracts the Table II features and
//! 32×32 spectrograms with playback-time labels. [`evaluate_features`] and
//! [`evaluate_spectrograms`] then run any of the paper's classifiers under
//! the 80/20 or 10-fold protocol.

use crate::error::EmoleakError;
use crate::scenario::AttackScenario;
use emoleak_features::spectrogram::SpectrogramGenerator;
use emoleak_features::{all_feature_names, FeatureDataset, LabeledSpectrogram};
use emoleak_ml::eval::{cross_validate, train_test_evaluate, ConfusionMatrix, Evaluation};
use emoleak_ml::nn::{spectrogram_cnn_scaled, CnnClassifier, Tensor, TrainConfig, TrainingHistory};
use emoleak_ml::{forest::RandomForest, lmt::Lmt, logistic::Logistic, one_vs_rest::OneVsRest,
    subspace::RandomSubspace, Classifier};
use emoleak_phone::FaultLog;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Everything the attacker extracts from one recording campaign.
#[derive(Debug, Clone)]
pub struct HarvestResult {
    /// Table II features per detected region, labeled by played emotion.
    pub features: FeatureDataset,
    /// 32×32 spectrogram images per detected region.
    pub spectrograms: Vec<LabeledSpectrogram>,
    /// Fraction of ground-truth speech spans recovered by the detector
    /// (paper: ≥ 90 % table-top, ≥ 45 % ear speaker).
    pub detection_rate: f64,
    /// The delivered accelerometer rate (after the Android policy).
    pub accel_fs: f64,
    /// Fault accounting per recording: table-top campaigns record clip by
    /// clip (one entry per clip); handheld campaigns record one continuous
    /// session (a single campaign-wide entry). Empty for fault-free runs.
    pub clip_faults: Vec<FaultLog>,
    /// Aggregate of `clip_faults` over the whole campaign.
    pub faults: FaultLog,
}

impl AttackScenario {
    /// Runs the full recording + extraction campaign for this scenario.
    ///
    /// Table-top campaigns record clip by clip; handheld campaigns record
    /// **one continuous session** of the grouped-by-emotion playback — the
    /// paper's protocol (§V-B: "we collected all the data in a continuous
    /// manner"), which matters because slow posture drift then spans
    /// consecutive clips.
    ///
    /// The per-clip work (synthesis, channel simulation, fault injection,
    /// region detection, feature extraction) runs in parallel on
    /// `EMOLEAK_THREADS` workers, and the result is bit-identical for any
    /// worker count: clip `i` draws from its own RNG stream
    /// `derive_seed(seed, i)` instead of a shared sequential RNG, results
    /// are collected by clip index, and float accumulators are folded in
    /// index order (see `emoleak_exec`).
    ///
    /// A heavily faulted or damped channel degrades gracefully: the result
    /// may carry few (or zero) features, and `clip_faults` accounts for
    /// every injected fault. The downstream `evaluate_*` functions report
    /// such datasets as [`EmoleakError::DegenerateDataset`] rather than
    /// panicking.
    ///
    /// # Errors
    ///
    /// Returns [`EmoleakError::UnknownLabel`] if a corpus clip carries an
    /// emotion missing from the corpus's own class set (a corpus-construction
    /// bug, not a channel condition), wrapped in [`EmoleakError::InClip`]
    /// identifying the offending clip.
    pub fn harvest(&self) -> Result<HarvestResult, EmoleakError> {
        // Stage 1 — record (see `online::record_windows`).
        let campaign = self.record_windows()?;
        let detector = self.setting.region_detector();
        let spec_gen = SpectrogramGenerator::for_accel();
        let mut features =
            FeatureDataset::new(all_feature_names(), campaign.class_names.clone());
        let fs_out = campaign.fs;

        // Stage 2 — detect + extract. Parallel over windows; pure DSP with
        // no RNG, combined strictly in window order below. The per-window
        // body is `online::extract_window`, shared verbatim with the
        // streaming service so batch and online features are identical.
        let processed: Vec<crate::online::WindowExtraction> =
            emoleak_exec::par_map_indexed(&campaign.windows, |_, (window, _truth, label)| {
                crate::online::extract_window(window, fs_out, &detector, Some(&spec_gen), *label)
            });
        let truth_total: usize = campaign.windows.iter().map(|(_, t, _)| t.len()).sum();
        // f64 addition is order-sensitive; fold the per-window hit mass in
        // index order so worker count cannot change the last bit.
        let truth_hit =
            emoleak_exec::sum_ordered(processed.iter().zip(&campaign.windows).map(
                |(ex, (_, truth, _))| {
                    let rate =
                        emoleak_features::regions::detection_rate(&ex.regions, truth);
                    if rate.is_finite() { rate * truth.len() as f64 } else { 0.0 }
                },
            ));
        let mut spectrograms = Vec::new();
        for (ex, (_, _, label)) in processed.into_iter().zip(&campaign.windows) {
            for rf in ex.rows {
                features.push(rf.features, *label);
                if let Some(img) = rf.spectrogram {
                    spectrograms.push(img);
                }
            }
        }
        features.clean_invalid();
        Ok(HarvestResult {
            features,
            spectrograms,
            detection_rate: if truth_total == 0 {
                f64::NAN
            } else {
                truth_hit / truth_total as f64
            },
            accel_fs: fs_out,
            clip_faults: campaign.clip_faults,
            faults: campaign.faults,
        })
    }
}

/// The five classifier families of the paper's tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ClassifierKind {
    /// Weka "Logistic" — multinomial ridge logistic regression.
    Logistic,
    /// Weka "MultiClassClassifier" — one-vs-rest logistic.
    MultiClass,
    /// Weka "trees.LMT" — logistic model tree.
    Lmt,
    /// Weka "RandomForest".
    RandomForest,
    /// Weka "RandomSubSpace".
    RandomSubspace,
    /// The §IV-D.2 CNN on time–frequency features.
    Cnn,
}

impl ClassifierKind {
    /// All classifiers of the loudspeaker tables (III–V).
    pub const LOUDSPEAKER_SET: [ClassifierKind; 4] = [
        ClassifierKind::Logistic,
        ClassifierKind::MultiClass,
        ClassifierKind::Lmt,
        ClassifierKind::Cnn,
    ];

    /// All classifiers of the ear-speaker table (VI).
    pub const EAR_SPEAKER_SET: [ClassifierKind; 4] = [
        ClassifierKind::RandomForest,
        ClassifierKind::RandomSubspace,
        ClassifierKind::Lmt,
        ClassifierKind::Cnn,
    ];

    /// Display name matching the paper's tables.
    pub fn display_name(self) -> &'static str {
        match self {
            ClassifierKind::Logistic => "Logistic",
            ClassifierKind::MultiClass => "multiClassClassifier",
            ClassifierKind::Lmt => "trees.lmt",
            ClassifierKind::RandomForest => "Random Forest",
            ClassifierKind::RandomSubspace => "RandomSubspace",
            ClassifierKind::Cnn => "CNN",
        }
    }
}

/// The evaluation protocol (§IV-D.1 uses both).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Protocol {
    /// Stratified 80/20 train/test split.
    Holdout8020,
    /// Stratified k-fold cross-validation (the paper uses 10).
    KFold(usize),
}

/// CNN cost controls: width divisor 1 is the paper-exact architecture; the
/// default divisor 4 keeps single-core runtimes practical with the same
/// layer structure. Overridable via `EMOLEAK_CNN_DIV` / `EMOLEAK_EPOCHS`.
///
/// # Errors
///
/// Returns [`EmoleakError::Config`] when `EMOLEAK_EPOCHS` is set to
/// anything other than a positive integer. A set knob either applies or
/// errors — it is never silently replaced by the default (same contract as
/// `EMOLEAK_THREADS` in `emoleak_exec`).
pub fn cnn_train_config() -> Result<TrainConfig, EmoleakError> {
    let epochs =
        emoleak_exec::parse_checked::<usize>("EMOLEAK_EPOCHS", "a positive integer", |&n| {
            n > 0
        })?
        .unwrap_or(40);
    Ok(TrainConfig { epochs, batch_size: 16, learning_rate: 3e-3, seed: 0xC44 })
}

/// The CNN channel-width divisor for this run (`EMOLEAK_CNN_DIV`, default 4;
/// set to 1 for the paper-exact architectures).
///
/// # Errors
///
/// Returns [`EmoleakError::Config`] when `EMOLEAK_CNN_DIV` is set to
/// anything other than a positive integer.
pub fn cnn_width_divisor() -> Result<usize, EmoleakError> {
    Ok(
        emoleak_exec::parse_checked::<usize>("EMOLEAK_CNN_DIV", "a positive integer", |&d| {
            d > 0
        })?
        .unwrap_or(4),
    )
}

/// The cap on spectrogram images one [`evaluate_spectrograms`] call trains
/// and tests on (`EMOLEAK_MAX_IMAGES`, default 600). Large campaigns produce
/// thousands of images and training cost is linear in their count, so each
/// class keeps at most `cap / classes` of its images (stratified, and at
/// least 2).
///
/// # Errors
///
/// Returns [`EmoleakError::Config`] when `EMOLEAK_MAX_IMAGES` is set to
/// anything other than an integer of at least 10.
pub fn spectrogram_image_cap() -> Result<usize, EmoleakError> {
    Ok(emoleak_exec::parse_checked::<usize>(
        "EMOLEAK_MAX_IMAGES",
        "an integer of at least 10",
        |&n| n >= 10,
    )?
    .unwrap_or(600))
}

/// Builds a classifier of `kind`. CNN settings are resolved (and their env
/// knobs validated) once by the caller and passed in, so this stays
/// infallible and cheap inside per-fold factory closures.
fn make_classifier(
    kind: ClassifierKind,
    seed: u64,
    cnn: Option<(TrainConfig, usize)>,
) -> Box<dyn Classifier + Send> {
    match kind {
        ClassifierKind::Logistic => Box::new(Logistic::default()),
        ClassifierKind::MultiClass => Box::new(OneVsRest::default()),
        ClassifierKind::Lmt => Box::new(Lmt::default()),
        ClassifierKind::RandomForest => Box::new(RandomForest::new(60, 14, seed)),
        ClassifierKind::RandomSubspace => Box::new(RandomSubspace::new(30, 0.5, 12, seed)),
        ClassifierKind::Cnn => {
            let (config, divisor) = cnn.expect("CNN settings resolved by the caller");
            Box::new(CnnClassifier::new(config, seed).with_width_divisor(divisor))
        }
    }
}

/// Evaluates one classifier on a harvested feature dataset under the given
/// protocol. Features are z-score normalized with training statistics.
///
/// # Errors
///
/// Returns [`EmoleakError::DegenerateDataset`] when the dataset cannot
/// support the protocol: fewer than 10 rows, fewer than 2 represented
/// classes, a class with fewer than 2 rows (holdout), or fewer rows than
/// folds (k-fold). Heavily faulted harvests routinely hit these conditions;
/// callers should score such campaigns as random-guess performance.
///
/// For the CNN, returns [`EmoleakError::Config`] when `EMOLEAK_EPOCHS` or
/// `EMOLEAK_CNN_DIV` is set to a malformed value.
pub fn evaluate_features(
    features: &FeatureDataset,
    kind: ClassifierKind,
    protocol: Protocol,
    seed: u64,
) -> Result<Evaluation, EmoleakError> {
    let counts = features.class_counts();
    let represented = counts.iter().filter(|&&c| c > 0).count();
    if features.len() < 10 {
        return Err(EmoleakError::DegenerateDataset(format!(
            "{} feature rows (need at least 10)",
            features.len()
        )));
    }
    if represented < 2 {
        return Err(EmoleakError::DegenerateDataset(format!(
            "{represented} represented class(es) (need at least 2)"
        )));
    }
    let class_names = features.class_names().to_vec();
    // Resolve (and strictly validate) the CNN env knobs once, up front:
    // the per-fold factory below must stay infallible.
    let cnn = match kind {
        ClassifierKind::Cnn => Some((cnn_train_config()?, cnn_width_divisor()?)),
        _ => None,
    };
    match protocol {
        Protocol::Holdout8020 => {
            if counts.iter().any(|&c| c > 0 && c < 2) {
                return Err(EmoleakError::DegenerateDataset(
                    "a represented class has fewer than 2 rows".into(),
                ));
            }
            let (mut train, mut test) = features.stratified_split(0.8, seed);
            if train.is_empty() || test.is_empty() {
                return Err(EmoleakError::DegenerateDataset(
                    "holdout split produced an empty train or test set".into(),
                ));
            }
            let params = train.fit_normalization();
            test.apply_normalization(&params);
            let mut clf = make_classifier(kind, seed, cnn);
            Ok(train_test_evaluate(
                clf.as_mut(),
                train.features(),
                train.labels(),
                test.features(),
                test.labels(),
                &class_names,
            ))
        }
        Protocol::KFold(k) => {
            if k < 2 || features.len() < k {
                return Err(EmoleakError::DegenerateDataset(format!(
                    "{} rows cannot be split into {k} folds",
                    features.len()
                )));
            }
            let mut normed = features.clone();
            normed.fit_normalization();
            Ok(cross_validate(
                || BoxedClassifier { inner: make_classifier(kind, seed, cnn.clone()) },
                normed.features(),
                normed.labels(),
                &class_names,
                k,
                seed,
            ))
        }
    }
}

/// Adapter so `cross_validate` (generic over `C: Classifier + Send`) can
/// construct fresh boxed classifiers of a runtime-selected kind.
struct BoxedClassifier {
    inner: Box<dyn Classifier + Send>,
}

impl Classifier for BoxedClassifier {
    fn fit(&mut self, x: &[Vec<f64>], y: &[usize], n: usize) {
        self.inner.fit(x, y, n)
    }

    fn predict(&self, x: &[f64]) -> usize {
        self.inner.predict(x)
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// Evaluates every classifier in `kinds` on the same harvested dataset, in
/// parallel — the shape of the paper's per-table classifier columns.
///
/// Each `(kind, result)` pair is exactly what a sequential
/// [`evaluate_features`] loop would produce: classifiers never share RNG
/// state (each seeds from `seed`), and results are returned in `kinds`
/// order. Per-classifier inner parallelism (k-fold) automatically runs
/// serially inside these workers, so total thread count stays bounded.
pub fn evaluate_feature_grid(
    features: &FeatureDataset,
    kinds: &[ClassifierKind],
    protocol: Protocol,
    seed: u64,
) -> Vec<(ClassifierKind, Result<Evaluation, EmoleakError>)> {
    let evals = emoleak_exec::par_map_indexed(kinds, |_, &kind| {
        evaluate_features(features, kind, protocol, seed)
    });
    kinds.iter().copied().zip(evals).collect()
}

/// The spectrogram-CNN evaluation (§IV-C): stratified 80/20 over labeled
/// images, with the paper's three-conv architecture (width scaled by
/// `EMOLEAK_CNN_DIV`; divisor 1 is paper-exact). Returns the evaluation and
/// the training history.
///
/// # Errors
///
/// Returns [`EmoleakError::DegenerateDataset`] for fewer than 10 images or
/// fewer than 2 represented classes (common outcomes of heavily faulted
/// campaigns), and [`EmoleakError::Config`] when `EMOLEAK_MAX_IMAGES`,
/// `EMOLEAK_EPOCHS` or `EMOLEAK_CNN_DIV` is set to a malformed value.
pub fn evaluate_spectrograms(
    spectrograms: &[LabeledSpectrogram],
    class_names: &[String],
    seed: u64,
) -> Result<(Evaluation, TrainingHistory), EmoleakError> {
    if spectrograms.len() < 10 {
        return Err(EmoleakError::DegenerateDataset(format!(
            "{} spectrograms (need at least 10)",
            spectrograms.len()
        )));
    }
    let mut class_seen = vec![false; class_names.len()];
    for s in spectrograms {
        if let Some(seen) = class_seen.get_mut(s.label) {
            *seen = true;
        }
    }
    let represented = class_seen.iter().filter(|&&s| s).count();
    if represented < 2 {
        return Err(EmoleakError::DegenerateDataset(format!(
            "{represented} represented class(es) among spectrograms (need at least 2)"
        )));
    }
    let side = emoleak_features::spectrogram::IMAGE_SIZE;
    let per_class = (spectrogram_image_cap()? / class_names.len()).max(2);
    // Stratified 80/20 split by label.
    use rand::seq::SliceRandom;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut train_idx = Vec::new();
    let mut test_idx = Vec::new();
    for class in 0..class_names.len() {
        let mut idx: Vec<usize> = (0..spectrograms.len())
            .filter(|&i| spectrograms[i].label == class)
            .collect();
        idx.shuffle(&mut rng);
        idx.truncate(per_class);
        let n_train = (idx.len() as f64 * 0.8).round() as usize;
        train_idx.extend_from_slice(&idx[..n_train]);
        test_idx.extend_from_slice(&idx[n_train..]);
    }
    let to_tensor = |i: usize| {
        Tensor::from_shape(&[1, side, side], spectrograms[i].pixels.clone())
    };
    let train_x: Vec<Tensor> = train_idx.iter().map(|&i| to_tensor(i)).collect();
    let train_y: Vec<usize> = train_idx.iter().map(|&i| spectrograms[i].label).collect();
    let test_x: Vec<Tensor> = test_idx.iter().map(|&i| to_tensor(i)).collect();
    let test_y: Vec<usize> = test_idx.iter().map(|&i| spectrograms[i].label).collect();

    let mut net = spectrogram_cnn_scaled(class_names.len(), seed, cnn_width_divisor()?);
    let history = net.fit(&train_x, &train_y, &test_x, &test_y, &cnn_train_config()?);
    let mut confusion = ConfusionMatrix::new(class_names.to_vec());
    for (x, &y) in test_x.iter().zip(&test_y) {
        confusion.record(y, net.predict(x));
    }
    Ok((Evaluation { accuracy: confusion.accuracy(), confusion }, history))
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

    #[test]
    fn harvest_produces_labeled_data() {
        let h = small_scenario().harvest().unwrap();
        assert!(h.features.len() > 20, "features {}", h.features.len());
        assert_eq!(h.features.dim(), 24);
        assert_eq!(h.features.num_classes(), 7);
        assert!(!h.spectrograms.is_empty());
        assert!(h.detection_rate > 0.5, "detection {}", h.detection_rate);
        assert!(h.accel_fs > 200.0);
        // Every class is represented.
        assert!(h.features.class_counts().iter().all(|&c| c > 0));
        // A fault-free campaign carries clean accounting.
        assert!(h.faults.is_clean());
        assert!(h.clip_faults.is_empty());
    }

    #[test]
    fn harvest_is_deterministic() {
        let a = small_scenario().harvest().unwrap();
        let b = small_scenario().harvest().unwrap();
        assert_eq!(a.features.features(), b.features.features());
        assert_eq!(a.detection_rate, b.detection_rate);
    }

    #[test]
    fn classical_classifier_beats_random_guess_on_small_harvest() {
        let h = AttackScenario::table_top(
            CorpusSpec::tess().with_clips_per_cell(6),
            DeviceProfile::oneplus_7t(),
        )
        .harvest()
        .unwrap();
        let eval =
            evaluate_features(&h.features, ClassifierKind::Logistic, Protocol::Holdout8020, 1)
                .unwrap();
        assert!(
            eval.accuracy > 2.0 / 7.0,
            "accuracy {} should beat 2x random guess",
            eval.accuracy
        );
    }

    #[test]
    fn capped_policy_reduces_rate() {
        let h = small_scenario()
            .with_policy(emoleak_phone::SamplingPolicy::Capped200Hz)
            .harvest()
            .unwrap();
        assert_eq!(h.accel_fs, 200.0);
    }

    #[test]
    fn faulted_harvest_accounts_per_clip() {
        use emoleak_phone::FaultProfile;
        let h = small_scenario()
            .with_faults(FaultProfile::handheld_walking())
            .harvest()
            .unwrap();
        // Table-top records clip by clip: one log per corpus clip.
        let n_clips = small_scenario().corpus.iter().count();
        assert_eq!(h.clip_faults.len(), n_clips);
        assert!(!h.faults.is_clean());
        assert!(h.faults.dropped > 0);
        // Features still flow (moderate faults degrade, not destroy).
        assert!(h.features.len() > 10, "features {}", h.features.len());
        assert!(h.features.features().iter().flatten().all(|v| v.is_finite()));
    }

    #[test]
    fn extreme_faults_degrade_gracefully() {
        use emoleak_phone::FaultProfile;
        // Severity 20 on the walking profile: most samples dropped, the
        // rest clipped at a tiny full scale. The pipeline must not panic.
        let h = small_scenario()
            .with_faults(FaultProfile::handheld_walking().with_severity(20.0))
            .harvest()
            .unwrap();
        assert!(h.faults.dropped > 0);
        match evaluate_features(&h.features, ClassifierKind::Logistic, Protocol::Holdout8020, 1) {
            Ok(eval) => assert!((0.0..=1.0).contains(&eval.accuracy) || eval.accuracy.is_nan()),
            Err(EmoleakError::DegenerateDataset(_)) => {} // expected outcome
            Err(e) => panic!("unexpected error: {e}"),
        }
    }

    fn restore_env(name: &str, prior: Result<String, std::env::VarError>) {
        match prior {
            Ok(v) => std::env::set_var(name, v),
            Err(_) => std::env::remove_var(name),
        }
    }

    #[test]
    fn malformed_env_knobs_error_not_default() {
        let _guard = crate::test_support::ENV_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());

        let prior = std::env::var("EMOLEAK_EPOCHS");
        for bad in ["abc", "0", "-3", "4.5", ""] {
            std::env::set_var("EMOLEAK_EPOCHS", bad);
            let err = cnn_train_config().unwrap_err();
            assert!(matches!(err, EmoleakError::Config(_)), "{bad:?}: {err}");
            assert!(err.to_string().contains("EMOLEAK_EPOCHS"), "{err}");
        }
        std::env::set_var("EMOLEAK_EPOCHS", "12");
        assert_eq!(cnn_train_config().unwrap().epochs, 12);
        restore_env("EMOLEAK_EPOCHS", prior);
        assert!(cnn_train_config().is_ok(), "ambient env must stay valid");

        let prior = std::env::var("EMOLEAK_CNN_DIV");
        std::env::set_var("EMOLEAK_CNN_DIV", "zero");
        assert!(matches!(cnn_width_divisor(), Err(EmoleakError::Config(_))));
        std::env::set_var("EMOLEAK_CNN_DIV", "2");
        assert_eq!(cnn_width_divisor().unwrap(), 2);
        restore_env("EMOLEAK_CNN_DIV", prior);

        // Malformed knobs surface through the public evaluation entry
        // points as typed Config errors, not as silently-defaulted runs.
        let prior = std::env::var("EMOLEAK_MAX_IMAGES");
        std::env::set_var("EMOLEAK_MAX_IMAGES", "lots");
        let specs: Vec<LabeledSpectrogram> = (0..12)
            .map(|i| LabeledSpectrogram {
                pixels: vec![0.5; emoleak_features::spectrogram::IMAGE_SIZE.pow(2)],
                label: i % 2,
            })
            .collect();
        let out = evaluate_spectrograms(&specs, &["a".into(), "b".into()], 1);
        assert!(matches!(out, Err(EmoleakError::Config(_))), "{out:?}");
        restore_env("EMOLEAK_MAX_IMAGES", prior);
    }

    #[test]
    fn degenerate_datasets_error_not_panic() {
        use emoleak_features::FeatureDataset;
        let empty = FeatureDataset::new(all_feature_names(), vec!["a".into(), "b".into()]);
        assert!(matches!(
            evaluate_features(&empty, ClassifierKind::Logistic, Protocol::Holdout8020, 1),
            Err(EmoleakError::DegenerateDataset(_))
        ));
        let mut one_class = FeatureDataset::new(all_feature_names(), vec!["a".into(), "b".into()]);
        for _ in 0..12 {
            one_class.push(vec![0.0; all_feature_names().len()], 0);
        }
        assert!(matches!(
            evaluate_features(&one_class, ClassifierKind::Logistic, Protocol::Holdout8020, 1),
            Err(EmoleakError::DegenerateDataset(_))
        ));
        assert!(matches!(
            evaluate_features(&one_class, ClassifierKind::Logistic, Protocol::KFold(100), 1),
            Err(EmoleakError::DegenerateDataset(_))
        ));
        assert!(matches!(
            evaluate_spectrograms(&[], &["a".into(), "b".into()], 1),
            Err(EmoleakError::DegenerateDataset(_))
        ));
    }
}
