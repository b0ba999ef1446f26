//! `emoleak-fleet`: a fault-contained sharded fleet for the EmoLeak
//! streaming service.
//!
//! The robustness arc so far hardened a *single process*: supervised
//! streaming ([`emoleak_stream`]), crash-safe journals
//! ([`emoleak_durable`]), and multi-tenant admission control
//! ([`emoleak_admission`]). One poisoned tenant or wedged stage could
//! still brown out the whole attack pipeline. This crate splits the
//! pipeline into **shards** — independent admission domains that share
//! nothing — and puts a **coordinator** over them:
//!
//! | piece | role | module |
//! |---|---|---|
//! | [`HashRing`] | seeded consistent hashing; only a dead shard's tenants move | [`ring`] |
//! | [`Shard`] | controller + journal segment + panic firewall | [`shard`] |
//! | [`FleetCoordinator`] | routing, leases, health, failover, conservation | [`coordinator`] |
//! | [`FleetService`] | real sessions per shard, brown-out spill-over | [`service`] |
//! | [`LoadProfile`] | deterministic diurnal/bursty load for the perf baseline | [`loadgen`] |
//! | [`FleetConfig`] | fleet tuning; `EMOLEAK_SHARDS` and `EMOLEAK_NET` override it | [`config`] |
//! | [`SimNet`] | the one coordinator↔shard path: faults, at-least-once, dedup | [`transport`] |
//!
//! Two invariants carry the whole design:
//!
//! 1. **Conservation.** Per shard, at every tick:
//!    `offered == served + rejected + shed + queued + migrated`. Migrated
//!    chunks re-enter through another shard's front door (counting in its
//!    `offered`), so the fleet-wide roll-up satisfies the same identity by
//!    construction — through graceful fencing, crash reconciliation, and
//!    coordinator restart alike. Fleet-wide, offers still on the message
//!    plane are the one extra term ([`FleetStats::in_flight`]). Crash
//!    losses are *booked* (as shed, surfaced as
//!    [`FleetStats::crash_loss`]), never silently leaked.
//! 2. **Determinism.** Ring placement, per-tenant chunk seqs, shard
//!    advance order, and the load generator are all pure functions of
//!    seeds and logical ticks. Clean-path output is byte-identical across
//!    `EMOLEAK_THREADS` and across shard counts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod coordinator;
pub mod loadgen;
pub mod ring;
pub mod service;
pub mod shard;
pub mod transport;

pub use config::{DiskConfig, FleetConfig, NetConfig};
pub use coordinator::{
    coordinator_journal_path, FailoverEvent, FailoverKind, FleetCoordinator, FleetInternalError,
    FleetStats, FleetView, REC_CHECKPOINT,
};
pub use loadgen::LoadProfile;
pub use ring::HashRing;
pub use service::{FleetService, Placement};
pub use shard::{shard_journal_path, Shard, ShardHealth, ShardState, ShardTick};
pub use transport::{Delivery, Msg, NetProfile, NetProfileKind, NetStats, NodeId, SimNet};

/// Commonly used types for fleet consumers.
pub mod prelude {
    pub use crate::config::FleetConfig;
    pub use crate::coordinator::{FleetCoordinator, FleetStats, FleetView};
    pub use crate::loadgen::LoadProfile;
    pub use crate::ring::HashRing;
    pub use crate::service::FleetService;
    pub use crate::shard::{ShardHealth, ShardState};
    pub use crate::transport::{NetProfile, NetProfileKind, SimNet};
}
