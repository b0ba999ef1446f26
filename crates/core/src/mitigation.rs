//! Defense evaluation (§VI-A/B).
//!
//! Three mitigations are modeled:
//!
//! 1. **Android 200 Hz sampling cap** — the paper finds the attack survives
//!    (80.1 % vs 95.3 % on TESS/loudspeaker).
//! 2. **Mandatory high-pass filtering of delivered sensor data** — the
//!    Table I ablation: even a 1 Hz high-pass collapses the information
//!    gain of the time-domain features.
//! 3. **Vibration damping / sensor relocation** — modeled as a reduction of
//!    the chassis coupling coefficients.

use crate::error::EmoleakError;
use crate::pipeline::{evaluate_features, ClassifierKind, Protocol};
use crate::scenario::AttackScenario;
use emoleak_dsp::filter::ablation_1hz_highpass;
use emoleak_features::info_gain::information_gain;
use emoleak_features::FeatureDataset;
use emoleak_phone::SamplingPolicy;
use serde::{Deserialize, Serialize};

/// Outcome of the sampling-cap study (§VI-A).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SamplingCapStudy {
    /// Accuracy at the device's native rate.
    pub accuracy_default: f64,
    /// Accuracy under the 200 Hz cap.
    pub accuracy_capped: f64,
    /// The corpus's random-guess accuracy.
    pub random_guess: f64,
}

impl SamplingCapStudy {
    /// Runs the cap study for one scenario and classifier. The two arms
    /// (native rate vs 200 Hz cap) are independent campaigns and run in
    /// parallel; each arm's harvest is fully determined by the scenario
    /// seed, so the pairing is bit-identical to running them sequentially.
    ///
    /// # Errors
    ///
    /// Propagates harvest/evaluation errors ([`EmoleakError`]) from either
    /// arm — e.g. a corpus too small to split.
    pub fn run(
        scenario: &AttackScenario,
        kind: ClassifierKind,
        seed: u64,
    ) -> Result<Self, EmoleakError> {
        let random_guess = scenario.corpus.random_guess();
        let policies = [SamplingPolicy::Default, SamplingPolicy::Capped200Hz];
        let arms: Vec<Result<f64, EmoleakError>> =
            emoleak_exec::par_map_indexed(&policies, |_, &policy| {
                let harvest = scenario.clone().with_policy(policy).harvest()?;
                Ok(evaluate_features(&harvest.features, kind, Protocol::Holdout8020, seed)?
                    .accuracy)
            });
        let mut arms = arms.into_iter();
        Ok(SamplingCapStudy {
            accuracy_default: arms.next().expect("two arms")?,
            accuracy_capped: arms.next().expect("two arms")?,
            random_guess,
        })
    }

    /// Whether the attack still beats `factor ×` random guessing when
    /// capped (the paper reports > 5× at 200 Hz).
    pub fn attack_survives(&self, factor: f64) -> bool {
        self.accuracy_capped > factor * self.random_guess
    }
}

/// The Table I study: information gain of selected features with no filter
/// vs a 1 Hz high-pass applied to the trace before feature extraction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FilterAblation {
    /// Feature names in study order (min, mean, max, CV, power, smoothness).
    pub features: Vec<String>,
    /// Information gain with unfiltered traces.
    pub gain_no_filter: Vec<f64>,
    /// Information gain after the 1 Hz high-pass.
    pub gain_1hz: Vec<f64>,
}

/// The Table I feature subset: three time-domain level statistics, CV, and
/// two spectral-shape features ("power" maps to our Energy).
const TABLE1_FEATURES: [(&str, usize); 6] = [
    ("min", 0),
    ("mean", 2),
    ("max", 1),
    ("CV", 6),
    ("power", 12),     // Energy (first frequency-domain feature)
    ("smoothness", 18), // Smoothness
];

impl FilterAblation {
    /// Runs the ablation the way §III-B.2 describes it: one continuous
    /// handheld-style recording of the grouped-by-emotion playback, then two
    /// feature-extraction arms over the *same* detected regions — raw vs
    /// 1 Hz high-passed — each scored by information gain.
    ///
    /// # Errors
    ///
    /// Returns [`EmoleakError`] when the recording cannot be produced or
    /// filtered (e.g. a delivered rate too low for the 1 Hz high-pass).
    pub fn run(scenario: &AttackScenario) -> Result<Self, EmoleakError> {
        let (raw, filtered) = harvest_both_arms(scenario)?;
        Ok(FilterAblation {
            features: TABLE1_FEATURES.iter().map(|(n, _)| n.to_string()).collect(),
            gain_no_filter: gains(&raw),
            gain_1hz: gains(&filtered),
        })
    }

    /// True when the filter "significantly decreases the information gain"
    /// (§III-B.2): the summed gain of the four level statistics
    /// (min/mean/max/CV) falls by at least 20 %. A single statistic's gain
    /// may still rise; this checks only the sum.
    ///
    /// The paper's Table I reports exact zeros after filtering; in our
    /// physically grounded channel the in-band amplitude retains genuine
    /// emotional information (which is also why the attack works at all),
    /// so the gains decrease substantially rather than vanish. The criterion
    /// is the *aggregate* level-statistic gain: individual per-feature gain
    /// estimates (10-bin discretization on a few hundred regions) are noisy
    /// enough that a near-zero gain such as CV's can fluctuate upward even
    /// as the level information collapses. EXPERIMENTS.md discusses the
    /// discrepancy.
    pub fn filter_degrades_features(&self) -> bool {
        let raw_sum: f64 = self.gain_no_filter[..4].iter().sum();
        let hp_sum: f64 = self.gain_1hz[..4].iter().sum();
        hp_sum < 0.8 * raw_sum
    }
}

fn gains(features: &FeatureDataset) -> Vec<f64> {
    TABLE1_FEATURES
        .iter()
        .map(|&(_, col)| {
            let col_vals: Vec<f64> = features.features().iter().map(|r| r[col]).collect();
            information_gain(&col_vals, features.labels(), 10)
        })
        .collect()
}

/// Records one continuous session of the whole corpus playback and extracts
/// features twice from identical regions: from the raw trace and from the
/// 1 Hz-high-passed trace. The paper records continuous sessions, so the
/// filter acts on minutes of data and removes the slow posture-drift level
/// structure that the time-domain statistics live on.
fn harvest_both_arms(
    scenario: &AttackScenario,
) -> Result<(FeatureDataset, FeatureDataset), EmoleakError> {
    use emoleak_features::{all_feature_names, extract_all};
    use emoleak_phone::session::RecordingSession;
    use rand::SeedableRng;
    let session = RecordingSession::new(
        &scenario.device,
        scenario.setting.speaker_kind(),
        scenario.setting.placement(),
    )
    .with_policy(scenario.policy)
    .with_faults(scenario.faults.clone());
    let detector = scenario.setting.region_detector();
    let emotions = scenario.corpus.emotions().to_vec();
    let class_names: Vec<String> = emotions.iter().map(|e| e.to_string()).collect();
    let mut raw_features = FeatureDataset::new(all_feature_names(), class_names.clone());
    let mut hp_features = FeatureDataset::new(all_feature_names(), class_names);
    let mut rng = rand::rngs::StdRng::seed_from_u64(scenario.seed);
    // One continuous recording of the whole corpus playback (the corpus
    // iterator is already grouped by emotion, matching §IV-B).
    let mut clips = Vec::new();
    for clip in scenario.corpus.iter() {
        let label = emotions
            .iter()
            .position(|e| *e == clip.emotion)
            .ok_or_else(|| EmoleakError::UnknownLabel(clip.emotion.to_string()))?;
        clips.push((clip.samples, clip.fs, label));
    }
    let st = session.record_session(clips, &mut rng);
    let fs = st.trace.fs;
    let hp = ablation_1hz_highpass(fs)?;
    let filtered = hp.filtfilt(&st.trace.samples);
    // Regions are detected per labeled playback window on the raw trace
    // (isolating the filter's effect on the *features*, which is what
    // Table I reports); both arms extract from identical regions.
    for (i, span) in st.labels.iter().enumerate() {
        let window = st.window(i);
        for &(rs, re) in &detector.detect(window, fs) {
            let a = (span.start + rs).min(filtered.len());
            let b = (span.start + re).min(filtered.len());
            if a >= b {
                continue;
            }
            raw_features.push(extract_all(&st.trace.samples[a..b], fs), span.label);
            hp_features.push(extract_all(&filtered[a..b], fs), span.label);
        }
    }
    raw_features.clean_invalid();
    hp_features.clean_invalid();
    Ok((raw_features, hp_features))
}

/// Vibration-damping mitigation: scales the victim device's chassis
/// coupling by `damping` (0 = perfect isolation, 1 = unmodified) and
/// reports attack accuracy.
///
/// # Errors
///
/// Propagates [`EmoleakError`] from the harvest; a dataset merely too
/// degraded to train on is *not* an error — it scores as random guessing
/// (the mitigation worked).
pub fn damping_study(
    scenario: &AttackScenario,
    kind: ClassifierKind,
    damping: f64,
    seed: u64,
) -> Result<f64, EmoleakError> {
    let mut damped = scenario.clone();
    damped.device = damped.device.with_coupling_scale(damping);
    let harvest = damped.harvest()?;
    // With heavy damping the detector finds too few regions (or loses whole
    // classes) to train on — the attack is defeated and degenerates to
    // guessing.
    let counts = harvest.features.class_counts();
    if harvest.features.len() < 40 || counts.iter().any(|&c| c < 5) {
        return Ok(scenario.corpus.random_guess());
    }
    match evaluate_features(&harvest.features, kind, Protocol::Holdout8020, seed) {
        Ok(eval) => Ok(eval.accuracy),
        Err(EmoleakError::DegenerateDataset(_)) => Ok(scenario.corpus.random_guess()),
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emoleak_phone::DeviceProfile;
    use emoleak_synth::CorpusSpec;

    fn tiny_scenario() -> AttackScenario {
        AttackScenario::table_top(
            CorpusSpec::tess().with_clips_per_cell(4),
            DeviceProfile::oneplus_7t(),
        )
    }

    #[test]
    fn filter_ablation_shows_table1_degradation() {
        // Table I's analysis is motivated by the handheld setting, where
        // slow posture drift and the vocal-effort DC dominate the level
        // statistics.
        let scenario = AttackScenario::handheld(
            CorpusSpec::tess().with_clips_per_cell(6),
            DeviceProfile::oneplus_7t(),
        );
        let ablation = FilterAblation::run(&scenario).unwrap();
        for (name, g) in ablation.features.iter().zip(&ablation.gain_no_filter) {
            assert!(g.is_finite(), "{name} gain {g}");
        }
        assert!(
            ablation.filter_degrades_features(),
            "1 Hz HPF should significantly decrease time-domain info gain: {:?} vs {:?}",
            ablation.gain_no_filter,
            ablation.gain_1hz
        );
    }

    #[test]
    fn damping_reduces_accuracy() {
        let scenario = tiny_scenario();
        let open = damping_study(&scenario, ClassifierKind::Logistic, 1.0, 3).unwrap();
        let sealed = damping_study(&scenario, ClassifierKind::Logistic, 0.02, 3).unwrap();
        assert!(
            open > sealed + 0.1 || sealed <= scenario.corpus.random_guess() + 0.1,
            "damping should hurt the attack: open {open}, sealed {sealed}"
        );
    }
}
