//! Fleet tuning, with the same strict environment contract as the
//! admission layer: a set-but-malformed knob errors, it is never silently
//! defaulted.
//!
//! | variable | meaning | default |
//! |---|---|---|
//! | `EMOLEAK_SHARDS` | number of independent shards | 4 |
//! | `EMOLEAK_NET` | message-plane fault profile: `ideal`, `lossy`, `chaotic` | `ideal` |
//!
//! Everything else is a [`FleetConfig`] field that programs set directly:
//! the chaos harnesses arm the disk nemesis per grid cell through
//! [`DiskConfig`], and tests shorten the scrub cadence or the lease.

use crate::transport::NetProfileKind;
use emoleak_admission::AdmissionConfig;
use emoleak_core::EmoleakError;
use emoleak_durable::FaultPlan;
use emoleak_exec::{derive_seed, parse_checked};
use emoleak_stream::disk::DiskGaugeConfig;

/// Tuning for the simulated message plane
/// ([`SimNet`](crate::transport::SimNet)) every coordinator↔shard
/// exchange rides.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetConfig {
    /// Which fault profile the plane runs under. Its fault draws are
    /// seeded from the fleet seed, so one seed reseeds everything.
    pub profile: NetProfileKind,
    /// The serving-lease length, in ticks. Every fresh grant runs to
    /// `now + lease_ticks`; the coordinator renews a lease that nothing
    /// renewed for `lease_ticks / 2` ticks. A shard whose lease expires
    /// unrenewed self-fences, and the coordinator fails it over only
    /// after the grant provably expired — the two deadlines are the same
    /// number, so no tick exists where both sides believe they may act.
    pub lease_ticks: u64,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig { profile: NetProfileKind::Ideal, lease_ticks: 8 }
    }
}

/// Tuning for the storage fault domain: an optional disk nemesis
/// ([`FaultVfs`](emoleak_durable::FaultVfs) plan) plus the per-shard
/// [`DiskGauge`](emoleak_stream::DiskGauge) that drives the durability
/// degradation ladder.
///
/// The plan chooses only the VFS. `plan: None` keeps shards on the real
/// filesystem through [`OsVfs`](emoleak_durable::OsVfs); a plan installs
/// a seeded `FaultVfs` per shard (seed derived from the plan seed and the
/// shard id), the test seam. Every shard runs the gauge either way.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskConfig {
    /// The fault plan, or `None` for the real filesystem. A *quiet* plan
    /// (all severities zero) must be byte-identical to `None` — that
    /// invariant is what makes the nemesis trustworthy.
    pub plan: Option<FaultPlan>,
    /// Hysteresis and watermark tuning for every shard's durability
    /// ladder.
    pub gauge: DiskGaugeConfig,
}

impl DiskConfig {
    /// The plan for one shard: the fleet-level plan reseeded so each
    /// shard draws an independent fault stream.
    pub fn shard_plan(&self, fleet_seed: u64, shard: u32) -> Option<FaultPlan> {
        self.plan.map(|plan| FaultPlan {
            seed: derive_seed(derive_seed(plan.seed, fleet_seed), u64::from(shard)),
            ..plan
        })
    }
}

/// Tuning for a sharded fleet ([`FleetCoordinator`](crate::FleetCoordinator)
/// / [`FleetService`](crate::FleetService)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetConfig {
    /// Number of independent shards (each owns its controller, journal
    /// segment, and — in a [`FleetService`](crate::FleetService) — its
    /// session gate).
    pub shards: u32,
    /// Consistent-hash ring seed: placement is a pure function of this
    /// and the live shard set.
    pub seed: u64,
    /// Virtual nodes per shard on the ring (more = tighter balance).
    pub vnodes: usize,
    /// Consecutive BrownOut health observations of one shard before the
    /// coordinator fences it and migrates its tenants.
    pub failover_after: u32,
    /// Contained panics a shard survives before it is declared dead.
    pub restart_budget: u32,
    /// Ticks between journaled shard-ledger snapshots (the crash-recovery
    /// reconciliation floor: a kill loses at most this much accounting).
    pub ledger_every: u64,
    /// Ticks between anti-entropy scrub passes. Each pass CRC-verifies one
    /// live shard's replica against its primary (round-robin over the
    /// fleet) and read-repairs lag or divergence. `0` disables scrubbing.
    pub scrub_every: u64,
    /// Message-plane tuning (`EMOLEAK_NET` picks the profile): the
    /// coordinator reaches its shards only over the plane, faultless by
    /// default.
    pub net: NetConfig,
    /// Per-shard admission tuning.
    pub admission: AdmissionConfig,
    /// Storage fault-domain tuning. No fault plan by default: shards
    /// write through the real filesystem, under the default gauge.
    pub disk: DiskConfig,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            shards: 4,
            seed: 0xE40F_1EE7,
            vnodes: 64,
            failover_after: 3,
            restart_budget: 3,
            ledger_every: 50,
            scrub_every: 25,
            net: NetConfig::default(),
            admission: AdmissionConfig::default(),
            disk: DiskConfig::default(),
        }
    }
}

impl FleetConfig {
    /// The defaults with the `EMOLEAK_SHARDS` and `EMOLEAK_NET` overrides
    /// applied (and the nested [`AdmissionConfig`] read through its own
    /// `from_env`).
    ///
    /// # Errors
    ///
    /// [`EmoleakError::Config`] when a set knob is malformed or out of
    /// range (`EMOLEAK_SHARDS` must be positive; `EMOLEAK_NET` must name a
    /// profile).
    pub fn from_env() -> Result<Self, EmoleakError> {
        let mut cfg = FleetConfig { admission: AdmissionConfig::from_env()?, ..Self::default() };
        if let Some(n) = parse_checked::<u32>("EMOLEAK_SHARDS", "a positive shard count", |&n| {
            n > 0
        })? {
            cfg.shards = n;
        }
        if let Some(kind) = parse_checked::<NetProfileKind>(
            "EMOLEAK_NET",
            "one of ideal, lossy, chaotic",
            |_| true,
        )? {
            cfg.net.profile = kind;
        }
        Ok(cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Env mutation is process-global; this test owns these two names.
    #[test]
    fn env_overrides_are_strict() {
        const NAMES: [&str; 2] = ["EMOLEAK_SHARDS", "EMOLEAK_NET"];
        for name in NAMES {
            std::env::remove_var(name);
        }
        assert_eq!(FleetConfig::from_env().unwrap(), FleetConfig::default());
        assert_eq!(FleetConfig::default().net.profile, NetProfileKind::Ideal);
        assert_eq!(FleetConfig::default().disk.plan, None, "disk nemesis is off by default");

        std::env::set_var("EMOLEAK_SHARDS", "2");
        std::env::set_var("EMOLEAK_NET", "lossy");
        let cfg = FleetConfig::from_env().unwrap();
        assert_eq!(cfg.shards, 2);
        assert_eq!(cfg.net.profile, NetProfileKind::Lossy);
        let rest = FleetConfig { shards: 4, net: NetConfig::default(), ..cfg };
        assert_eq!(rest, FleetConfig::default(), "no other field reads the environment");

        // `off` names no profile: it is refused like any other unknown
        // value.
        for bad in ["flaky-wifi", "off"] {
            std::env::set_var("EMOLEAK_NET", bad);
            let err = FleetConfig::from_env().unwrap_err();
            assert!(matches!(err, EmoleakError::Config(_)), "{bad}: {err:?}");
            assert!(err.to_string().contains("EMOLEAK_NET"));
        }
        std::env::remove_var("EMOLEAK_NET");

        std::env::set_var("EMOLEAK_SHARDS", "0");
        let err = FleetConfig::from_env().unwrap_err();
        assert!(matches!(err, EmoleakError::Config(_)), "{err:?}");
        assert!(err.to_string().contains("EMOLEAK_SHARDS"));
        for name in NAMES {
            std::env::remove_var(name);
        }
    }

    #[test]
    fn each_shard_draws_its_own_disk_fault_stream() {
        let disk = DiskConfig { plan: Some(FaultPlan::quiet(777)), ..DiskConfig::default() };
        let seed = FleetConfig::default().seed;
        let (a, b) = (disk.shard_plan(seed, 0).unwrap(), disk.shard_plan(seed, 1).unwrap());
        assert_ne!(a.seed, b.seed, "shards draw independent fault streams");
        assert_eq!(FaultPlan { seed: 777, ..a }, FaultPlan::quiet(777), "only the seed moves");
        assert_eq!(DiskConfig::default().shard_plan(seed, 0), None);
    }
}
