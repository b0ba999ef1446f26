//! `emoleak-stream`: a resilient online inference service for the EmoLeak
//! attack pipeline.
//!
//! Where `emoleak-core`'s batch pipeline harvests a whole recorded campaign
//! at once, this crate classifies emotions *as the accelerometer stream
//! arrives*: each session pulls fixed-size chunks, reassembles them into
//! windows, runs incremental region detection and feature extraction, and
//! classifies every region under a configurable deadline — one loop on the
//! caller's thread.
//!
//! The crate is built around the failure modes a long-lived service meets
//! in the wild, each handled by a dedicated module:
//!
//! | failure | mechanism | module |
//! |---|---|---|
//! | transient source errors | seeded exponential backoff, bounded by the run's deadline | [`retry`] |
//! | unbounded buffering | one window held at a time, metered on a shared byte gauge | [`service`], [`gauge`] |
//! | sustained overload | deadline-miss degradation ladder with hysteresis | [`ladder`] |
//! | step panics / stuck runs | per-step panic firewall with a restart budget, run timeout | [`service`] |
//!
//! Everything the resilience machinery does is recorded in a deterministic
//! [`ServiceLog`], and on a clean stream the service's emissions are
//! byte-identical to a batch harvest of the same recording — degradation
//! is observable and optional, never silent.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod disk;
pub mod durable;
pub mod gauge;
pub mod ladder;
pub mod log;
pub mod retry;
pub mod service;
pub mod source;

pub use disk::{DiskGauge, DiskGaugeConfig, DiskOutcome, DurabilityTransition};
pub use durable::{
    recover_run, ChunkAdmit, ChunkServe, DurableSink, LedgerRecord, RecoveredRun,
    REC_CHUNK_ADMIT, REC_CHUNK_SERVE, REC_DURABILITY, REC_EMISSION, REC_FLEET_TRANSITION,
    REC_LOAD_SHED, REC_RUN_SUMMARY, REC_SHARD_LEDGER, REC_TRANSITION,
};
pub use gauge::ByteGauge;
pub use ladder::{DegradationLadder, LadderConfig, LevelCap, Transition};
pub use log::{ServiceEvent, ServiceLog};
pub use retry::{retry_with_backoff, RetryError, RetryPolicy};
pub use service::{
    RegionEmission, StreamConfig, StreamError, StreamReport, StreamService, StreamStats,
    SupervisionError,
};
pub use source::{
    FlakySource, ReplaySource, SampleSource, SourceChunk, SourceError, ValidatingSource,
};

/// Commonly used types for streaming consumers.
pub mod prelude {
    pub use crate::gauge::ByteGauge;
    pub use crate::ladder::{LadderConfig, LevelCap};
    pub use crate::service::{StreamConfig, StreamError, StreamReport, StreamService};
    pub use crate::source::{FlakySource, ReplaySource, SampleSource, ValidatingSource};
    pub use emoleak_core::online::{InferenceLevel, ModelBundle, Verdict};
}
