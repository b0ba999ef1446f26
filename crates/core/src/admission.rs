//! Fleet-level admission types shared by the streaming service and the
//! overload-protection front end (`emoleak-admission`).
//!
//! One `emoleak-stream` session already degrades itself through the
//! [`InferenceLevel`] ladder when *it* misses deadlines. A fleet of
//! sessions needs a second, coarser state machine: when the whole service
//! is saturated, every session must cheapen at once, and at the extreme no
//! new session should be admitted at all. [`FleetState`] is that coarse
//! ladder; [`AdmissionError`] is the typed refusal a caller receives at the
//! front door; [`VerdictMeta`] tags each emission with the tenant, session,
//! and fleet state it was produced under, so multi-tenant output stays
//! attributable without touching the wire-stable [`Verdict`] type.
//!
//! [`Verdict`]: crate::online::Verdict

use crate::online::InferenceLevel;
use crate::rung::Rung;

/// The fleet-wide overload state, best first. Ordered like
/// [`InferenceLevel`]: a *greater* state is a *worse* one, so hysteresis
/// comparisons read the same way on both ladders.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FleetState {
    /// Plenty of headroom: sessions run at whatever rung their own ladder
    /// allows.
    Healthy,
    /// Sustained pressure: CNN inference is capped off fleet-wide
    /// (sessions run at [`InferenceLevel::Classical`] or cheaper).
    Degraded,
    /// Serious overload: only energy-only speech flagging survives.
    Saturated,
    /// Brown-out: existing sessions shed every region, and **new sessions
    /// are refused admission** until the fleet recovers.
    BrownOut,
}

impl Rung for FleetState {
    const ALL: &'static [FleetState] = &[
        FleetState::Healthy,
        FleetState::Degraded,
        FleetState::Saturated,
        FleetState::BrownOut,
    ];

    fn index(self) -> usize {
        self as usize
    }
}

impl FleetState {
    /// The cheapest inference rung this state still permits. A session
    /// classifies at the *worse* of its own ladder's rung and this cap.
    pub fn level_cap(self) -> InferenceLevel {
        match self {
            FleetState::Healthy => InferenceLevel::Cnn,
            FleetState::Degraded => InferenceLevel::Classical,
            FleetState::Saturated => InferenceLevel::EnergyOnly,
            FleetState::BrownOut => InferenceLevel::Shed,
        }
    }

    /// Whether new sessions may be admitted in this state. Only
    /// [`FleetState::BrownOut`] closes the front door entirely.
    pub fn admits_sessions(self) -> bool {
        self != FleetState::BrownOut
    }
}

impl core::fmt::Display for FleetState {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(match self {
            FleetState::Healthy => "healthy",
            FleetState::Degraded => "degraded",
            FleetState::Saturated => "saturated",
            FleetState::BrownOut => "brown-out",
        })
    }
}

/// Per-shard *storage* health ladder, best first — the durability analogue
/// of [`FleetState`]. Where [`FleetState`] cheapens compute when the CPU
/// is saturated, this ladder cheapens the durability guarantee when the
/// disk under a shard's journal goes bad: each rung trades a little more
/// crash safety for staying up, and the bottom rung closes the write door
/// rather than ever leaking loss.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DurabilityLevel {
    /// Full guarantee: primary journal + replica, every append fsynced.
    Durable,
    /// The primary disk is refusing or stalling writes; appends land only
    /// on the replica. A crash now loses nothing (the replica has the
    /// stream), but the shard is one disk away from `MemoryOnly`.
    ReplicaOnly,
    /// No journal accepts writes; emissions survive only in memory. A
    /// crash in this state loses the unjournaled suffix — which the
    /// conservation books must then report as `crash_loss`, never leak.
    MemoryOnly,
    /// Even the memory guarantee is not worth offering (disk gone, no
    /// recovery in sight): new writes are refused with a typed
    /// [`AdmissionError::WritesRefused`] so callers can fail over.
    RefuseWrites,
}

impl Rung for DurabilityLevel {
    const ALL: &'static [DurabilityLevel] = &[
        DurabilityLevel::Durable,
        DurabilityLevel::ReplicaOnly,
        DurabilityLevel::MemoryOnly,
        DurabilityLevel::RefuseWrites,
    ];

    fn index(self) -> usize {
        self as usize
    }
}

impl DurabilityLevel {
    /// Whether this level still accepts new emissions at all.
    pub fn accepts_writes(self) -> bool {
        self != DurabilityLevel::RefuseWrites
    }

    /// Whether appends still reach the primary journal.
    pub fn journals_primary(self) -> bool {
        self == DurabilityLevel::Durable
    }

    /// Whether appends still reach the replica journal (when one exists).
    pub fn journals_replica(self) -> bool {
        self <= DurabilityLevel::ReplicaOnly
    }
}

impl core::fmt::Display for DurabilityLevel {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(match self {
            DurabilityLevel::Durable => "durable",
            DurabilityLevel::ReplicaOnly => "replica-only",
            DurabilityLevel::MemoryOnly => "memory-only",
            DurabilityLevel::RefuseWrites => "refuse-writes",
        })
    }
}

/// Why the admission layer refused work. Every variant is a *deliberate*
/// refusal under an explicit budget — callers can retry later, no refusal
/// corrupts state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmissionError {
    /// The tenant exhausted its token bucket (`EMOLEAK_TENANT_RPS`).
    RateLimited {
        /// The throttled tenant.
        tenant: String,
    },
    /// The tenant is already running its full concurrency bulkhead.
    TenantSaturated {
        /// The saturated tenant.
        tenant: String,
        /// The per-tenant concurrency limit that was hit.
        limit: usize,
    },
    /// The global session bulkhead is full (`EMOLEAK_MAX_SESSIONS`).
    FleetSaturated {
        /// The global concurrency limit that was hit.
        limit: usize,
    },
    /// Charging the request against the memory budget would exceed it
    /// (`EMOLEAK_MEM_BUDGET`).
    MemoryExhausted {
        /// Bytes the request wanted to charge.
        requested: u64,
        /// Bytes already charged fleet-wide.
        charged: u64,
        /// The configured budget.
        budget: u64,
    },
    /// The fleet is in [`FleetState::BrownOut`]: no new work is admitted
    /// until the breaker recovers.
    BrownedOut,
    /// The routed shard was fenced (or removed) between routing and
    /// admission — a rebalance race, not a fault. Callers retry; the ring
    /// has already moved the tenant's home.
    ShardFenced {
        /// The shard that is no longer accepting work.
        shard: u32,
    },
    /// The shard's storage ladder sits at
    /// [`DurabilityLevel::RefuseWrites`]: its disk can no longer honor any
    /// durability guarantee, so new writes are refused instead of being
    /// accepted and silently lost. Callers retry once the coordinator has
    /// drained the shard or the disk recovered.
    WritesRefused {
        /// The shard whose storage refused the write.
        shard: u32,
    },
}

impl AdmissionError {
    /// A short stable tag for logs and JSON (`rate-limited`,
    /// `tenant-saturated`, `fleet-saturated`, `memory-exhausted`,
    /// `browned-out`, `shard-fenced`, `writes-refused`).
    pub fn tag(&self) -> &'static str {
        match self {
            AdmissionError::RateLimited { .. } => "rate-limited",
            AdmissionError::TenantSaturated { .. } => "tenant-saturated",
            AdmissionError::FleetSaturated { .. } => "fleet-saturated",
            AdmissionError::MemoryExhausted { .. } => "memory-exhausted",
            AdmissionError::BrownedOut => "browned-out",
            AdmissionError::ShardFenced { .. } => "shard-fenced",
            AdmissionError::WritesRefused { .. } => "writes-refused",
        }
    }
}

impl core::fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            AdmissionError::RateLimited { tenant } => {
                write!(f, "tenant {tenant} is rate-limited")
            }
            AdmissionError::TenantSaturated { tenant, limit } => {
                write!(f, "tenant {tenant} already runs {limit} concurrent unit(s)")
            }
            AdmissionError::FleetSaturated { limit } => {
                write!(f, "fleet is at its global concurrency limit of {limit}")
            }
            AdmissionError::MemoryExhausted { requested, charged, budget } => write!(
                f,
                "memory budget exhausted: {requested} B requested with {charged}/{budget} B charged"
            ),
            AdmissionError::BrownedOut => {
                write!(f, "fleet is browned out; admission is closed")
            }
            AdmissionError::ShardFenced { shard } => {
                write!(f, "shard {shard} was fenced mid-route; retry for a new placement")
            }
            AdmissionError::WritesRefused { shard } => {
                write!(f, "shard {shard}'s storage refuses writes; retry after failover")
            }
        }
    }
}

impl std::error::Error for AdmissionError {}

/// Multi-tenant provenance for one emission: which tenant and session
/// produced it, and the fleet state it was classified under. Kept separate
/// from [`Verdict`](crate::online::Verdict) so the single-session wire
/// format (journals, golden fixtures) is untouched.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerdictMeta {
    /// The tenant the session belongs to.
    pub tenant: String,
    /// The fleet-assigned session id (unique within a gate's lifetime).
    pub session: u64,
    /// The fleet state at the time the session closed.
    pub fleet_state: FleetState,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn states_order_worst_last_and_walk_both_ways() {
        assert!(FleetState::Healthy < FleetState::Degraded);
        assert!(FleetState::Saturated < FleetState::BrownOut);
        let mut s = FleetState::Healthy;
        for expect in [FleetState::Degraded, FleetState::Saturated, FleetState::BrownOut] {
            s = s.worse();
            assert_eq!(s, expect);
        }
        assert_eq!(s.worse(), FleetState::BrownOut, "saturates at the bottom");
        for expect in [FleetState::Saturated, FleetState::Degraded, FleetState::Healthy] {
            s = s.better();
            assert_eq!(s, expect);
        }
        assert_eq!(s.better(), FleetState::Healthy, "saturates at the top");
    }

    #[test]
    fn level_caps_mirror_the_inference_ladder() {
        // Four fleet states map onto the five-rung ladder; the int8 CNN
        // rung is reached by per-session latency degradation, not by a
        // fleet-wide cap (a struggling fleet wants the bigger step down).
        for (state, level) in [
            (FleetState::Healthy, InferenceLevel::Cnn),
            (FleetState::Degraded, InferenceLevel::Classical),
            (FleetState::Saturated, InferenceLevel::EnergyOnly),
            (FleetState::BrownOut, InferenceLevel::Shed),
        ] {
            assert_eq!(state.level_cap(), level);
        }
        // Applying a cap is a max(): the worse of the two rungs wins.
        assert_eq!(
            InferenceLevel::Cnn.max(FleetState::Saturated.level_cap()),
            InferenceLevel::EnergyOnly
        );
        assert_eq!(
            InferenceLevel::Shed.max(FleetState::Healthy.level_cap()),
            InferenceLevel::Shed
        );
    }

    #[test]
    fn only_brownout_closes_admission() {
        for &state in FleetState::ALL {
            assert_eq!(state.admits_sessions(), state != FleetState::BrownOut);
        }
    }

    #[test]
    fn errors_render_their_budget_context() {
        let e = AdmissionError::MemoryExhausted { requested: 4096, charged: 900, budget: 1000 };
        let msg = e.to_string();
        assert!(msg.contains("4096") && msg.contains("900") && msg.contains("1000"), "{msg}");
        assert_eq!(e.tag(), "memory-exhausted");
        let e = AdmissionError::TenantSaturated { tenant: "t7".into(), limit: 3 };
        assert!(e.to_string().contains("t7"));
        assert_eq!(AdmissionError::BrownedOut.tag(), "browned-out");
        let tags: std::collections::BTreeSet<&str> = [
            AdmissionError::RateLimited { tenant: String::new() }.tag(),
            AdmissionError::TenantSaturated { tenant: String::new(), limit: 0 }.tag(),
            AdmissionError::FleetSaturated { limit: 0 }.tag(),
            AdmissionError::MemoryExhausted { requested: 0, charged: 0, budget: 0 }.tag(),
            AdmissionError::BrownedOut.tag(),
            AdmissionError::ShardFenced { shard: 0 }.tag(),
            AdmissionError::WritesRefused { shard: 0 }.tag(),
        ]
        .into();
        assert_eq!(tags.len(), 7, "tags are distinct");
    }

    #[test]
    fn durability_ladder_walks_both_ways_and_gates_writes() {
        let mut l = DurabilityLevel::Durable;
        for expect in [
            DurabilityLevel::ReplicaOnly,
            DurabilityLevel::MemoryOnly,
            DurabilityLevel::RefuseWrites,
        ] {
            l = l.worse();
            assert_eq!(l, expect);
        }
        assert_eq!(l.worse(), DurabilityLevel::RefuseWrites, "saturates at the bottom");
        for expect in [
            DurabilityLevel::MemoryOnly,
            DurabilityLevel::ReplicaOnly,
            DurabilityLevel::Durable,
        ] {
            l = l.better();
            assert_eq!(l, expect);
        }
        assert_eq!(l.better(), DurabilityLevel::Durable, "saturates at the top");
        // Each rung strictly gives up one write target.
        assert!(DurabilityLevel::Durable.journals_primary());
        assert!(DurabilityLevel::Durable.journals_replica());
        assert!(!DurabilityLevel::ReplicaOnly.journals_primary());
        assert!(DurabilityLevel::ReplicaOnly.journals_replica());
        assert!(!DurabilityLevel::MemoryOnly.journals_replica());
        assert!(DurabilityLevel::MemoryOnly.accepts_writes());
        assert!(!DurabilityLevel::RefuseWrites.accepts_writes());
        // Display tags are distinct (they key JSON counters).
        let tags: std::collections::BTreeSet<String> =
            DurabilityLevel::ALL.iter().map(|l| l.to_string()).collect();
        assert_eq!(tags.len(), 4);
    }
}
