//! Fleet tuning, with the same strict environment contract as the
//! admission layer: a set-but-malformed knob errors, it is never silently
//! defaulted.
//!
//! | variable | meaning | default |
//! |---|---|---|
//! | `EMOLEAK_SHARDS` | number of independent shards | 4 |
//! | `EMOLEAK_FLEET_SEED` | consistent-hash ring seed | `0xE40F_1EE7` |
//! | `EMOLEAK_REPLICAS` | journal replicas per shard (0 disables replication) | 1 |
//! | `EMOLEAK_SCRUB_EVERY` | ticks between anti-entropy scrub passes (0 disables) | 25 |
//! | `EMOLEAK_NET` | message-plane fault profile: `ideal`, `lossy`, `chaotic` | `ideal` |
//! | `EMOLEAK_NET_SEED` | transport fault seed (0 derives from the fleet seed) | 0 |
//! | `EMOLEAK_NET_LEASE_TICKS` | shard serving-lease length, ticks | 8 |
//! | `EMOLEAK_NET_DEDUP_WINDOW` | receiver dedup window, seqs per link | 1024 |
//! | `EMOLEAK_DISK_BYTE_BUDGET` | bytes each shard's disk accepts before ENOSPC (arms the nemesis) | off |
//! | `EMOLEAK_DISK_EIO_PPM` | per-op EIO probability, parts-per-million (arms) | off |
//! | `EMOLEAK_DISK_STALL_EVERY` | every Nth fsync stalls (0 never; arms) | off |
//! | `EMOLEAK_DISK_STALL_TICKS` | ticks each stalling fsync charges (arms) | off |
//! | `EMOLEAK_DISK_SEED` | disk-fault seed (arms, even alone: a quiet armed VFS) | derived |

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
    /// Which fault profile the plane runs under.
    pub profile: NetProfileKind,
    /// Seed for the plane's fault draws. `0` derives a stream from the
    /// fleet seed so one knob reseeds everything together.
    pub seed: u64,
    /// The serving-lease length, in ticks. Every fresh grant runs to
    /// `now + lease_ticks`; the coordinator renews a lease that nothing
    /// renewed for `lease_ticks / 2` ticks. A shard whose lease expires
    /// unrenewed self-fences, and the coordinator fails it over only
    /// after the grant provably expired — the two deadlines are the same
    /// number, so no tick exists where both sides believe they may act.
    pub lease_ticks: u64,
    /// Receiver-side dedup window per directed link, in sequence numbers.
    pub dedup_window: usize,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            profile: NetProfileKind::Ideal,
            seed: 0,
            lease_ticks: 8,
            dedup_window: 1024,
        }
    }
}

/// Tuning for the storage fault domain: an optional disk nemesis
/// ([`FaultVfs`](emoleak_durable::FaultVfs) plan) plus the per-shard
/// [`DiskGauge`](emoleak_stream::DiskGauge) that drives the durability
/// degradation ladder.
///
/// `plan: None` keeps shards on the real filesystem through
/// [`OsVfs`](emoleak_durable::OsVfs) with no gauge — the pre-nemesis
/// byte-identical path. Arming any `EMOLEAK_DISK_*` knob installs a
/// seeded `FaultVfs` per shard (seed derived from the plan seed and the
/// shard id) and the gauge with it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskConfig {
    /// The fault plan, or `None` for the real filesystem. A *quiet* plan
    /// (all severities zero) is a valid armed state: it must be
    /// byte-identical to `None` — that invariant is what makes the
    /// nemesis trustworthy.
    pub plan: Option<FaultPlan>,
    /// Hysteresis and watermark tuning for the durability ladder. Only
    /// consulted when `plan` is armed.
    pub gauge: DiskGaugeConfig,
}

impl DiskConfig {
    /// Whether shards run on the injectable fault VFS.
    pub fn armed(&self) -> bool {
        self.plan.is_some()
    }

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
    /// Journal replicas per shard. `1` ships every committed record to the
    /// shard's deterministic ring successor, so a crashed primary's queue
    /// replays with zero loss; `0` disables replication (and chunk-level
    /// journaling with it), restoring the PR 6 bounded-loss behaviour.
    /// Values above 1 are capped at 1 — the chain has a single follower.
    pub replicas: u32,
    /// Ticks between anti-entropy scrub passes. Each pass CRC-verifies one
    /// live shard's replica against its primary (round-robin over the
    /// fleet) and read-repairs lag or divergence. `0` disables scrubbing.
    pub scrub_every: u64,
    /// Message-plane tuning (`EMOLEAK_NET*`): the coordinator reaches its
    /// shards only over the plane, faultless by default.
    pub net: NetConfig,
    /// Per-shard admission tuning.
    pub admission: AdmissionConfig,
    /// Storage fault-domain tuning (`EMOLEAK_DISK_*`). Unarmed by
    /// default: shards write through the real filesystem with no gauge.
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
            replicas: 1,
            scrub_every: 25,
            net: NetConfig::default(),
            admission: AdmissionConfig::default(),
            disk: DiskConfig::default(),
        }
    }
}

impl FleetConfig {
    /// The defaults with `EMOLEAK_SHARDS` / `EMOLEAK_FLEET_SEED` overrides
    /// applied (and the nested [`AdmissionConfig`] read through its own
    /// `from_env`).
    ///
    /// # Errors
    ///
    /// [`EmoleakError::Config`] when a set knob is malformed or out of
    /// range (`EMOLEAK_SHARDS` must be positive).
    pub fn from_env() -> Result<Self, EmoleakError> {
        let mut cfg = FleetConfig { admission: AdmissionConfig::from_env()?, ..Self::default() };
        if let Some(n) = parse_checked::<u32>("EMOLEAK_SHARDS", "a positive shard count", |&n| {
            n > 0
        })? {
            cfg.shards = n;
        }
        if let Some(s) = parse_checked::<u64>("EMOLEAK_FLEET_SEED", "a u64 seed", |_| true)? {
            cfg.seed = s;
        }
        if let Some(r) = parse_checked::<u32>("EMOLEAK_REPLICAS", "0 or 1 replicas", |&r| r <= 1)? {
            cfg.replicas = r;
        }
        if let Some(n) =
            parse_checked::<u64>("EMOLEAK_SCRUB_EVERY", "a tick interval (0 disables)", |_| true)?
        {
            cfg.scrub_every = n;
        }
        if let Some(kind) = parse_checked::<NetProfileKind>(
            "EMOLEAK_NET",
            "one of ideal, lossy, chaotic",
            |_| true,
        )? {
            cfg.net.profile = kind;
        }
        if let Some(s) =
            parse_checked::<u64>("EMOLEAK_NET_SEED", "a u64 seed (0 derives)", |_| true)?
        {
            cfg.net.seed = s;
        }
        if let Some(t) =
            parse_checked::<u64>("EMOLEAK_NET_LEASE_TICKS", "a positive tick count", |&t| t > 0)?
        {
            cfg.net.lease_ticks = t;
        }
        if let Some(w) = parse_checked::<usize>(
            "EMOLEAK_NET_DEDUP_WINDOW",
            "a positive window size",
            |&w| w > 0,
        )? {
            cfg.net.dedup_window = w;
        }
        // Any EMOLEAK_DISK_* knob arms the nemesis; the plan starts quiet
        // (all severities off) so setting only the seed yields an armed
        // but fault-free VFS — the byte-identity control case.
        let mut plan = FaultPlan::quiet(derive_seed(cfg.seed, 0xD15C));
        let mut armed = false;
        if let Some(b) =
            parse_checked::<u64>("EMOLEAK_DISK_BYTE_BUDGET", "a positive byte budget", |&b| b > 0)?
        {
            plan.byte_budget = b;
            armed = true;
        }
        if let Some(p) = parse_checked::<u32>(
            "EMOLEAK_DISK_EIO_PPM",
            "a probability in parts-per-million (0..=1000000)",
            |&p| p <= 1_000_000,
        )? {
            plan.eio_ppm = p;
            armed = true;
        }
        if let Some(n) = parse_checked::<u64>(
            "EMOLEAK_DISK_STALL_EVERY",
            "an fsync interval (0 never stalls)",
            |_| true,
        )? {
            plan.stall_every = n;
            armed = true;
        }
        if let Some(t) =
            parse_checked::<u64>("EMOLEAK_DISK_STALL_TICKS", "a stall cost in ticks", |_| true)?
        {
            plan.stall_ticks = t;
            armed = true;
        }
        if let Some(s) = parse_checked::<u64>("EMOLEAK_DISK_SEED", "a u64 seed", |_| true)? {
            plan.seed = s;
            armed = true;
        }
        if armed {
            cfg.disk.plan = Some(plan);
        }
        Ok(cfg)
    }

    /// Whether shards replicate their journals (and journal per-chunk
    /// admit/serve records to make replay exact).
    pub fn replicated(&self) -> bool {
        self.replicas > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Env mutation is process-global; this test owns these thirteen names.
    #[test]
    fn env_overrides_are_strict() {
        const NAMES: [&str; 13] = [
            "EMOLEAK_SHARDS",
            "EMOLEAK_FLEET_SEED",
            "EMOLEAK_REPLICAS",
            "EMOLEAK_SCRUB_EVERY",
            "EMOLEAK_NET",
            "EMOLEAK_NET_SEED",
            "EMOLEAK_NET_LEASE_TICKS",
            "EMOLEAK_NET_DEDUP_WINDOW",
            "EMOLEAK_DISK_BYTE_BUDGET",
            "EMOLEAK_DISK_EIO_PPM",
            "EMOLEAK_DISK_STALL_EVERY",
            "EMOLEAK_DISK_STALL_TICKS",
            "EMOLEAK_DISK_SEED",
        ];
        for name in NAMES {
            std::env::remove_var(name);
        }
        assert_eq!(FleetConfig::from_env().unwrap(), FleetConfig::default());
        assert!(FleetConfig::default().replicated(), "replication is on by default");
        assert_eq!(FleetConfig::default().net.profile, NetProfileKind::Ideal);
        assert!(!FleetConfig::default().disk.armed(), "disk nemesis is off by default");

        std::env::set_var("EMOLEAK_SHARDS", "2");
        std::env::set_var("EMOLEAK_FLEET_SEED", "12345");
        std::env::set_var("EMOLEAK_REPLICAS", "0");
        std::env::set_var("EMOLEAK_SCRUB_EVERY", "10");
        std::env::set_var("EMOLEAK_NET", "lossy");
        std::env::set_var("EMOLEAK_NET_SEED", "99");
        std::env::set_var("EMOLEAK_NET_LEASE_TICKS", "12");
        std::env::set_var("EMOLEAK_NET_DEDUP_WINDOW", "256");
        let cfg = FleetConfig::from_env().unwrap();
        assert_eq!(cfg.shards, 2);
        assert_eq!(cfg.seed, 12345);
        assert_eq!(cfg.replicas, 0);
        assert!(!cfg.replicated());
        assert_eq!(cfg.scrub_every, 10);
        assert_eq!(cfg.net.profile, NetProfileKind::Lossy);
        assert_eq!(cfg.net.seed, 99);
        assert_eq!(cfg.net.lease_ticks, 12);
        assert_eq!(cfg.net.dedup_window, 256);

        // Any disk knob arms the nemesis; unset knobs stay at their quiet
        // values and the seed derives from the fleet seed.
        std::env::set_var("EMOLEAK_DISK_EIO_PPM", "2500");
        std::env::set_var("EMOLEAK_DISK_STALL_EVERY", "4");
        let cfg = FleetConfig::from_env().unwrap();
        let plan = cfg.disk.plan.expect("a set disk knob arms the plan");
        assert!(cfg.disk.armed());
        assert_eq!(plan.eio_ppm, 2500);
        assert_eq!(plan.stall_every, 4);
        assert_eq!(plan.byte_budget, u64::MAX, "unset knobs stay quiet");
        assert_eq!(plan.seed, derive_seed(cfg.seed, 0xD15C));
        let (a, b) = (cfg.disk.shard_plan(cfg.seed, 0), cfg.disk.shard_plan(cfg.seed, 1));
        assert_ne!(a.unwrap().seed, b.unwrap().seed, "shards draw independent fault streams");

        std::env::set_var("EMOLEAK_DISK_SEED", "777");
        let cfg = FleetConfig::from_env().unwrap();
        assert_eq!(cfg.disk.plan.unwrap().seed, 777);
        std::env::remove_var("EMOLEAK_DISK_EIO_PPM");
        std::env::remove_var("EMOLEAK_DISK_STALL_EVERY");

        // A seed alone arms a *quiet* plan: the byte-identity control case.
        let cfg = FleetConfig::from_env().unwrap();
        assert_eq!(cfg.disk.plan.unwrap(), FaultPlan::quiet(777));
        std::env::remove_var("EMOLEAK_DISK_SEED");

        std::env::set_var("EMOLEAK_DISK_EIO_PPM", "1000001");
        let err = FleetConfig::from_env().unwrap_err();
        assert!(matches!(err, EmoleakError::Config(_)), "{err:?}");
        assert!(err.to_string().contains("EMOLEAK_DISK_EIO_PPM"));
        std::env::remove_var("EMOLEAK_DISK_EIO_PPM");

        // `off` names no profile: it is refused like any other unknown
        // value.
        for bad in ["flaky-wifi", "off"] {
            std::env::set_var("EMOLEAK_NET", bad);
            let err = FleetConfig::from_env().unwrap_err();
            assert!(matches!(err, EmoleakError::Config(_)), "{bad}: {err:?}");
            assert!(err.to_string().contains("EMOLEAK_NET"));
        }
        std::env::remove_var("EMOLEAK_NET");

        std::env::set_var("EMOLEAK_NET_LEASE_TICKS", "0");
        let err = FleetConfig::from_env().unwrap_err();
        assert!(matches!(err, EmoleakError::Config(_)), "{err:?}");
        assert!(err.to_string().contains("EMOLEAK_NET_LEASE_TICKS"));
        std::env::remove_var("EMOLEAK_NET_LEASE_TICKS");

        std::env::set_var("EMOLEAK_REPLICAS", "3");
        let err = FleetConfig::from_env().unwrap_err();
        assert!(matches!(err, EmoleakError::Config(_)), "{err:?}");
        assert!(err.to_string().contains("EMOLEAK_REPLICAS"));
        std::env::remove_var("EMOLEAK_REPLICAS");

        std::env::set_var("EMOLEAK_SHARDS", "0");
        let err = FleetConfig::from_env().unwrap_err();
        assert!(matches!(err, EmoleakError::Config(_)), "{err:?}");
        assert!(err.to_string().contains("EMOLEAK_SHARDS"));
        for name in NAMES {
            std::env::remove_var(name);
        }
    }
}
