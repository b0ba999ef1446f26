//! # EmoLeak — reproduction of "EmoLeak: Smartphone Motions Reveal Emotions"
//! (ICDCS 2023)
//!
//! A complete Rust reimplementation of the EmoLeak side-channel study:
//! speech played through a smartphone speaker induces chassis vibrations
//! that the zero-permission accelerometer picks up, from which an attacker
//! classifies the speaker's **emotion**.
//!
//! This facade crate re-exports the workspace:
//!
//! | crate | role |
//! |---|---|
//! | [`exec`] | deterministic work-stealing thread pool (`EMOLEAK_THREADS`) |
//! | [`dsp`] | FFT, STFT, Butterworth filters, statistics |
//! | [`synth`] | parametric emotional-speech corpora (SAVEE/TESS/CREMA-D substitutes) |
//! | [`phone`] | vibration channel: speakers, chassis, accelerometer, motion noise |
//! | [`features`] | speech-region detection, Table-II features, spectrograms |
//! | [`ml`] | Weka-style classifiers and CNNs, from scratch |
//! | [`core`] | the end-to-end attack pipeline, reports, mitigations |
//! | [`stream`] | resilient online inference: one loop per session, panic firewall, degradation |
//! | [`durable`] | crash safety: write-ahead journal, checkpoints, resumable campaigns |
//! | [`admission`] | multi-tenant overload protection: rate limits, bulkheads, shedding |
//! | [`fleet`] | fault-contained sharding: consistent-hash placement, brown-out failover |
//!
//! # Quickstart
//!
//! ```no_run
//! use emoleak::prelude::*;
//!
//! # fn main() -> Result<(), EmoleakError> {
//! // 1. Pick a corpus and a victim phone.
//! let corpus = CorpusSpec::tess().with_clips_per_cell(10);
//! let scenario = AttackScenario::table_top(corpus, DeviceProfile::oneplus_7t());
//!
//! // 2. Record the campaign through the vibration channel.
//! let harvest = scenario.harvest()?;
//! println!("{} labeled regions, {:.0}% detected",
//!          harvest.features.len(), harvest.detection_rate * 100.0);
//!
//! // 3. Classify emotions from accelerometer features.
//! let eval = evaluate_features(&harvest.features, ClassifierKind::Logistic,
//!                              Protocol::Holdout8020, 1)?;
//! println!("accuracy {:.1}%", eval.accuracy * 100.0);
//! # Ok(())
//! # }
//! ```

pub use emoleak_admission as admission;
pub use emoleak_core as core;
pub use emoleak_dsp as dsp;
pub use emoleak_durable as durable;
pub use emoleak_exec as exec;
pub use emoleak_features as features;
pub use emoleak_fleet as fleet;
pub use emoleak_kernels as kernels;
pub use emoleak_ml as ml;
pub use emoleak_phone as phone;
pub use emoleak_stream as stream;
pub use emoleak_synth as synth;

/// One-stop imports for examples and downstream users.
pub mod prelude {
    pub use emoleak_admission::prelude::*;
    pub use emoleak_core::mitigation::{FilterAblation, SamplingCapStudy};
    pub use emoleak_core::prelude::*;
    pub use emoleak_fleet::prelude::*;
    pub use emoleak_ml::Classifier;
    pub use emoleak_phone::{Placement, SpeakerKind};
    pub use emoleak_stream::prelude::*;
    pub use emoleak_synth::{Emotion, Speaker};
}
