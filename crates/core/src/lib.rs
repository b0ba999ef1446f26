//! # emoleak-core
//!
//! The end-to-end EmoLeak attack pipeline, tying every substrate together:
//!
//! ```text
//! emoleak-synth ──clips──► emoleak-phone ──traces──► emoleak-features
//!      (corpus)              (channel sim)             (regions + Table II
//!                                                       features + images)
//!                                 │
//!                                 ▼
//!                     emoleak-ml (Weka-style classifiers + CNNs)
//! ```
//!
//! - [`scenario`] — what the attacker records: corpus × device × setting
//!   (table-top loudspeaker vs handheld ear speaker) × Android policy.
//! - [`pipeline`] — harvesting labeled features/spectrograms from simulated
//!   recordings and evaluating any of the paper's five classifiers.
//! - [`report`] — result-table rendering for the Table III–VII binaries.
//! - [`mitigation`] — the defenses of §VI: the Android 200 Hz cap, the 1 Hz
//!   high-pass ablation (Table I), and sensor damping/relocation.
//! - [`rung`] — the order and index coding shared by the three degradation
//!   ladders (inference level, fleet state, durability level).
//!
//! # Example
//!
//! ```no_run
//! use emoleak_core::prelude::*;
//!
//! # fn main() -> Result<(), EmoleakError> {
//! let scenario = AttackScenario::table_top(CorpusSpec::tess().with_clips_per_cell(10),
//!                                          DeviceProfile::oneplus_7t());
//! let harvest = scenario.harvest()?;
//! let eval = evaluate_features(&harvest.features, ClassifierKind::Logistic, Protocol::Holdout8020, 1)?;
//! println!("accuracy {:.1}%", eval.accuracy * 100.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod error;
pub mod mitigation;
pub mod online;
pub mod pipeline;
pub mod report;
pub mod rung;
pub mod scenario;

pub use admission::{AdmissionError, DurabilityLevel, FleetState, VerdictMeta};
pub use error::{ClipContext, EmoleakError};
pub use online::{
    extract_window, InferenceLevel, ModelBundle, RecordedCampaign, RegionFeatures, Verdict,
    WindowExtraction,
};
pub use pipeline::{
    evaluate_feature_grid, evaluate_features, evaluate_spectrograms, ClassifierKind,
    HarvestResult, Protocol,
};
pub use rung::Rung;
pub use scenario::{AttackScenario, Setting};

#[cfg(test)]
pub(crate) mod test_support {
    /// Serializes unit tests that mutate `EMOLEAK_*` process env vars, so
    /// they cannot race tests reading the same knobs on sibling threads.
    pub static ENV_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
}

/// Convenient re-exports for examples and benches.
pub mod prelude {
    pub use crate::admission::{AdmissionError, DurabilityLevel, FleetState, VerdictMeta};
    pub use crate::error::{ClipContext, EmoleakError};
    pub use crate::online::{InferenceLevel, ModelBundle, RecordedCampaign, Verdict};
    pub use crate::pipeline::{
        evaluate_feature_grid, evaluate_features, evaluate_spectrograms, ClassifierKind,
        HarvestResult, Protocol,
    };
    pub use crate::report::ResultTable;
    pub use crate::rung::Rung;
    pub use crate::scenario::{AttackScenario, Setting};
    pub use emoleak_features::FeatureDataset;
    pub use emoleak_ml::eval::Evaluation;
    pub use emoleak_phone::{DeviceProfile, FaultLog, FaultProfile, SamplingPolicy};
    pub use emoleak_synth::{CorpusSpec, Emotion};
}
