//! `emoleak-admission`: multi-tenant overload protection for the streaming
//! service.
//!
//! `emoleak-stream` keeps *one* session alive under duress — retries,
//! supervision, a per-session degradation ladder. This crate protects a
//! *fleet* of sessions sharing one box from each other and from hostile
//! load, with the classic overload-protection stack:
//!
//! | threat | mechanism | module |
//! |---|---|---|
//! | one tenant floods the front door | per-tenant token buckets | [`tokens`] |
//! | one tenant hoards every slot | per-tenant + global bulkheads | [`bulkhead`] |
//! | queues hide standing latency | deterministic CoDel shedding | [`codel`] |
//! | the whole fleet saturates | circuit breaker (a [`DegradationLadder`](emoleak_stream::DegradationLadder) over [`FleetState`](emoleak_core::admission::FleetState)) driving the shared [`LevelCap`](emoleak_stream::LevelCap) | [`controller`] |
//! | unbounded buffering | global byte budget ([`ByteGauge`](emoleak_stream::ByteGauge)) | [`controller`] |
//!
//! Everything is deterministic: time is a logical tick the caller
//! advances, token buckets are integer arithmetic, and CoDel's control law
//! uses only IEEE-754 `sqrt` — so an overload scenario replays
//! byte-identically under any thread count. [`AdmissionController`] is the
//! pure state machine the chaos harness drives; [`FleetGate`] wires it to
//! real [`StreamService`](emoleak_stream::StreamService) runs.
//!
//! Every refusal is a typed
//! [`AdmissionError`](emoleak_core::admission::AdmissionError), every shed
//! and fleet transition lands in the [`ServiceLog`](emoleak_stream::ServiceLog)
//! and (optionally) the write-ahead journal — overload handling is
//! observable, accountable (`offered == served + rejected + shed`), and
//! never silent.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bulkhead;
pub mod codel;
pub mod config;
pub mod controller;
pub mod gate;
pub mod tokens;

pub use bulkhead::Bulkhead;
pub use codel::{Codel, CodelConfig, CodelVerdict};
pub use config::AdmissionConfig;
pub use controller::{AdmissionController, AdmissionStats, QueuedChunk, TenantStats};
pub use gate::{FleetGate, SessionPermit};
pub use tokens::TokenBucket;

/// Commonly used types for overload-protection consumers.
pub mod prelude {
    pub use crate::config::AdmissionConfig;
    pub use crate::controller::{AdmissionController, AdmissionStats};
    pub use crate::gate::{FleetGate, SessionPermit};
    pub use emoleak_core::admission::{AdmissionError, FleetState};
}
