//! Disk-health gauge: maps storage fault signals onto the durability
//! degradation ladder.
//!
//! A shard's disk does not fail cleanly — it runs out of space, starts
//! returning EIO intermittently, or stalls inside fsync. The gauge watches
//! every durable operation's outcome (error / success, stall ticks charged,
//! free space remaining) and walks the shard through
//! [`DurabilityLevel::Durable`] → [`DurabilityLevel::ReplicaOnly`] →
//! [`DurabilityLevel::MemoryOnly`] → [`DurabilityLevel::RefuseWrites`] on
//! the [`DegradationLadder`] that also runs the inference ladder and the
//! fleet breaker. The gauge adds two rules of its own:
//!
//! - **What counts as a miss**: a failed operation, or one that charged at
//!   least `stall_miss` stall ticks even though it succeeded. Misses and
//!   clean operations feed the ladder's streaks: `degrade_after`
//!   consecutive misses drop one rung, and `recover_after` consecutive
//!   clean operations climb one rung once the post-shift cooldown has
//!   drained. A flapping disk stays degraded.
//! - **Watermarks are a floor, not a streak**: free space below
//!   `low_water` pins the shard at [`DurabilityLevel::MemoryOnly`] or
//!   worse; below `refuse_water` it pins at
//!   [`DurabilityLevel::RefuseWrites`]. The floor is the ladder's best
//!   allowed rung, so it applies instantly (a full disk must not need
//!   three failed appends to notice) and holds recovery down until space
//!   frees up.
//!
//! The gauge is pure bookkeeping — no I/O, no clock reads — so a replayed
//! sequence of outcomes produces a byte-identical transition history.

use crate::ladder::{DegradationLadder, LadderConfig, Transition};
use emoleak_core::admission::DurabilityLevel;

/// One observed durable-operation outcome, as fed to [`DiskGauge::observe`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiskOutcome {
    /// The operation failed (EIO, ENOSPC, short write, …).
    pub errored: bool,
    /// Stall ticks the operation charged (0 on a healthy disk).
    pub stall_ticks: u64,
    /// Free space remaining on the device, if the VFS can report it.
    pub free_space: Option<u64>,
}

impl DiskOutcome {
    /// A clean operation on a disk with unknown (assumed ample) free space.
    pub fn clean() -> Self {
        DiskOutcome { errored: false, stall_ticks: 0, free_space: None }
    }

    /// A failed operation.
    pub fn error() -> Self {
        DiskOutcome { errored: true, stall_ticks: 0, free_space: None }
    }
}

/// Hysteresis and watermark thresholds for the [`DiskGauge`].
///
/// Plain `Eq` data so it can ride inside a fleet config compared against
/// its default by the strict-env test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiskGaugeConfig {
    /// Streak and cooldown tuning of the durability ladder (3/8/4 by
    /// default).
    pub ladder: LadderConfig,
    /// Free space (bytes) below which the shard is pinned at
    /// [`DurabilityLevel::MemoryOnly`] or worse.
    pub low_water: u64,
    /// Free space (bytes) below which the shard is pinned at
    /// [`DurabilityLevel::RefuseWrites`].
    pub refuse_water: u64,
    /// A single operation charging at least this many stall ticks counts
    /// as a miss even when it eventually succeeded. `0` disables
    /// stall-driven degradation.
    pub stall_miss: u64,
}

impl Default for DiskGaugeConfig {
    fn default() -> Self {
        DiskGaugeConfig {
            ladder: LadderConfig::default(),
            low_water: 4096,
            refuse_water: 512,
            stall_miss: 4,
        }
    }
}

/// The per-shard disk-health state machine.
#[derive(Debug, Clone)]
pub struct DiskGauge {
    config: DiskGaugeConfig,
    ladder: DegradationLadder<DurabilityLevel>,
}

impl DiskGauge {
    /// A gauge starting at full durability.
    pub fn new(config: DiskGaugeConfig) -> Self {
        let ladder = DegradationLadder::new(config.ladder, DurabilityLevel::Durable);
        DiskGauge { config, ladder }
    }

    /// The current durability level.
    pub fn level(&self) -> DurabilityLevel {
        self.ladder.level()
    }

    /// Feeds one operation outcome; returns the transition if the gauge
    /// moved.
    ///
    /// A watermark floor worse than the current level applies at once
    /// (possibly jumping several rungs); streak-driven moves go one rung
    /// at a time.
    pub fn observe(&mut self, outcome: DiskOutcome) -> Option<Transition<DurabilityLevel>> {
        let cfg = &self.config;
        let miss = outcome.errored || (cfg.stall_miss > 0 && outcome.stall_ticks >= cfg.stall_miss);
        self.ladder.observe(miss, cfg.floor(outcome.free_space))
    }
}

impl DiskGaugeConfig {
    /// The worst level `free_space` forces, independent of streaks.
    fn floor(&self, free_space: Option<u64>) -> DurabilityLevel {
        match free_space {
            Some(free) if free < self.refuse_water => DurabilityLevel::RefuseWrites,
            Some(free) if free < self.low_water => DurabilityLevel::MemoryOnly,
            _ => DurabilityLevel::Durable,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use DurabilityLevel::*;

    fn cfg() -> DiskGaugeConfig {
        DiskGaugeConfig {
            ladder: LadderConfig { degrade_after: 3, recover_after: 4, cooldown: 2 },
            low_water: 1000,
            refuse_water: 100,
            stall_miss: 5,
        }
    }

    #[test]
    fn consecutive_errors_degrade_one_rung_at_a_time() {
        let mut g = DiskGauge::new(cfg());
        for _ in 0..2 {
            assert_eq!(g.observe(DiskOutcome::error()), None);
        }
        assert_eq!(
            g.observe(DiskOutcome::error()),
            Some(Transition { from: Durable, to: ReplicaOnly })
        );
        // Streak resets after a shift; three more misses drop the next rung
        // even though cooldown has not drained (cooldown only gates
        // recovery).
        for _ in 0..2 {
            assert_eq!(g.observe(DiskOutcome::error()), None);
        }
        assert_eq!(
            g.observe(DiskOutcome::error()),
            Some(Transition { from: ReplicaOnly, to: MemoryOnly })
        );
        for _ in 0..2 {
            assert_eq!(g.observe(DiskOutcome::error()), None);
        }
        assert_eq!(
            g.observe(DiskOutcome::error()),
            Some(Transition { from: MemoryOnly, to: RefuseWrites })
        );
        // The floor is absorbing under continued errors.
        for _ in 0..10 {
            assert_eq!(g.observe(DiskOutcome::error()), None);
        }
        assert_eq!(g.level(), RefuseWrites);
    }

    #[test]
    fn interleaved_success_resets_the_miss_streak() {
        let mut g = DiskGauge::new(cfg());
        g.observe(DiskOutcome::error());
        g.observe(DiskOutcome::error());
        g.observe(DiskOutcome::clean());
        g.observe(DiskOutcome::error());
        g.observe(DiskOutcome::error());
        assert_eq!(g.level(), Durable, "non-consecutive errors must not trip");
    }

    #[test]
    fn recovery_needs_streak_plus_cooldown() {
        let mut g = DiskGauge::new(cfg());
        for _ in 0..3 {
            g.observe(DiskOutcome::error());
        }
        assert_eq!(g.level(), ReplicaOnly);
        // 4 clean ops would satisfy recover_after, but cooldown (2) eats
        // into the window: with the cooldown counted down first, op 4 has
        // cooldown drained and the streak full.
        let mut transitions = Vec::new();
        for _ in 0..4 {
            transitions.extend(g.observe(DiskOutcome::clean()));
        }
        assert_eq!(
            transitions,
            vec![Transition { from: ReplicaOnly, to: Durable }]
        );
        assert_eq!(g.level(), Durable);
    }

    #[test]
    fn stalls_count_as_misses_above_threshold() {
        let mut g = DiskGauge::new(cfg());
        for _ in 0..2 {
            g.observe(DiskOutcome { errored: false, stall_ticks: 5, free_space: None });
        }
        assert_eq!(g.level(), Durable);
        let t = g.observe(DiskOutcome { errored: false, stall_ticks: 7, free_space: None });
        assert_eq!(t, Some(Transition { from: Durable, to: ReplicaOnly }));
        // Below-threshold stalls are clean.
        let mut g2 = DiskGauge::new(cfg());
        for _ in 0..10 {
            g2.observe(DiskOutcome { errored: false, stall_ticks: 4, free_space: None });
        }
        assert_eq!(g2.level(), Durable);
    }

    #[test]
    fn watermarks_pin_instantly_and_hold_recovery_down() {
        let mut g = DiskGauge::new(cfg());
        // Clean op, but the disk is nearly full: the floor applies at once.
        let t = g.observe(DiskOutcome { errored: false, stall_ticks: 0, free_space: Some(999) });
        assert_eq!(t, Some(Transition { from: Durable, to: MemoryOnly }));
        // Still under low_water: clean streaks cannot climb past the floor.
        for _ in 0..20 {
            assert_eq!(
                g.observe(DiskOutcome { errored: false, stall_ticks: 0, free_space: Some(999) }),
                None
            );
        }
        assert_eq!(g.level(), MemoryOnly);
        // Space exhausts further: straight to the refuse floor.
        let t = g.observe(DiskOutcome { errored: false, stall_ticks: 0, free_space: Some(50) });
        assert_eq!(t, Some(Transition { from: MemoryOnly, to: RefuseWrites }));
        // Space frees: the held recovery streak climbs back one rung per
        // observation window.
        let mut seen = Vec::new();
        for _ in 0..40 {
            seen.extend(
                g.observe(DiskOutcome { errored: false, stall_ticks: 0, free_space: Some(5000) }),
            );
        }
        assert_eq!(
            seen,
            vec![
                Transition { from: RefuseWrites, to: MemoryOnly },
                Transition { from: MemoryOnly, to: ReplicaOnly },
                Transition { from: ReplicaOnly, to: Durable },
            ]
        );
    }

    #[test]
    fn ladder_is_monotone_under_sustained_pressure() {
        // Under a pure-degradation input sequence the level never improves.
        let mut g = DiskGauge::new(cfg());
        let mut prev = g.level();
        for i in 0..50u64 {
            let free = 2000u64.saturating_sub(i * 100);
            g.observe(DiskOutcome { errored: i % 2 == 0, stall_ticks: 0, free_space: Some(free) });
            assert!(
                g.level() >= prev,
                "level improved under sustained pressure: {prev} -> {}",
                g.level()
            );
            prev = g.level();
        }
        assert_eq!(g.level(), RefuseWrites);
    }
}
