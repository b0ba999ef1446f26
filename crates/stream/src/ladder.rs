//! The degradation ladder: one hysteresis machine for every rung type.
//!
//! Three ladders step down under pressure and climb back when it eases:
//! - the per-session inference ladder. The online service promises a
//!   per-region classification deadline; when the current rung keeps
//!   missing it, the session steps one rung down the quality ladder
//!   (CNN → int8 CNN → classical → energy-only → shed);
//! - the fleet breaker (`emoleak-admission`), which walks a shard through
//!   [`FleetState`](emoleak_core::admission::FleetState) on its overload
//!   signal (standing queue latency, memory pressure);
//! - the disk gauge ([`crate::disk`]), which walks a shard's storage through
//!   [`DurabilityLevel`](emoleak_core::admission::DurabilityLevel) on
//!   failed or stalled durable operations.
//!
//! [`DegradationLadder`] is that machine, generic over the [`Rung`] type.
//! `degrade_after` misses in a row step one rung down, and a cooldown never
//! delays that: overload must always be escapable. Climbing back one rung
//! needs a much longer streak of met observations *and* an elapsed
//! cooldown since the last transition (hysteresis), so the ladder settles
//! instead of oscillating every few observations. Each observation also
//! names the best rung currently allowed: a ladder above it jumps straight
//! down to it, and no streak climbs past it.
//!
//! The ladder is a *pure state machine*: time enters only as the boolean
//! "was this observation a miss", which the owner computes (or, in tests,
//! synthesizes). That keeps every transition unit-testable and every chaos
//! run reproducible.

use emoleak_core::online::InferenceLevel;
use emoleak_core::Rung;
use std::sync::atomic::{AtomicU8, Ordering};

/// A shared, fleet-imposed *ceiling* on inference quality.
///
/// The per-session [`DegradationLadder`] reacts to the session's own
/// deadline misses; a `LevelCap` is how the fleet breaker
/// (`emoleak-admission`) cheapens every session at once when the whole
/// service saturates. The classify stage runs each region at the worse of
/// the two — `want.max(cap)` in the [`InferenceLevel`] ordering, where a
/// greater rung is a cheaper one — so neither mechanism can ever *raise*
/// quality above what the other allows.
#[derive(Debug, Default)]
pub struct LevelCap {
    // The cap's `Rung::index`; 0 (Cnn) caps nothing.
    code: AtomicU8,
}

impl LevelCap {
    /// An open cap (no restriction: everything up to CNN is allowed).
    pub fn new() -> Self {
        LevelCap::default()
    }

    /// Sets the cheapest rung sessions may exceed — [`InferenceLevel::Cnn`]
    /// lifts the cap, [`InferenceLevel::Shed`] forces every region shed.
    pub fn set(&self, cap: InferenceLevel) {
        self.code.store(cap.index() as u8, Ordering::Relaxed);
    }

    /// The current cap.
    pub fn get(&self) -> InferenceLevel {
        InferenceLevel::from_index(usize::from(self.code.load(Ordering::Relaxed)))
            .unwrap_or(InferenceLevel::Cnn)
    }

    /// The rung a session wanting `want` actually runs at under this cap.
    pub fn apply(&self, want: InferenceLevel) -> InferenceLevel {
        want.max(self.get())
    }
}

/// Tuning for a [`DegradationLadder`]. The session ladder defaults to
/// 3/8/4; the fleet breaker runs 3/10/5 and the disk gauge 3/8/4.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LadderConfig {
    /// Consecutive misses that step one rung down.
    pub degrade_after: u32,
    /// Consecutive met observations that climb one rung up.
    pub recover_after: u32,
    /// Observations after any transition during which recovery is frozen
    /// (degradation is never frozen — overload must always be escapable).
    pub cooldown: u32,
}

impl Default for LadderConfig {
    fn default() -> Self {
        // recover_after ≫ degrade_after: climbing back is much harder than
        // falling, the hysteresis that prevents flapping.
        LadderConfig { degrade_after: 3, recover_after: 8, cooldown: 4 }
    }
}

/// A recorded rung change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transition<L = InferenceLevel> {
    /// The rung before.
    pub from: L,
    /// The rung after.
    pub to: L,
}

/// The degradation state machine. Feed it one
/// [`observe`](DegradationLadder::observe) per classified region, breaker
/// tick or durable operation.
#[derive(Debug, Clone)]
pub struct DegradationLadder<L = InferenceLevel> {
    config: LadderConfig,
    level: L,
    misses: u32,
    meets: u32,
    cooldown_left: u32,
}

impl<L: Rung> DegradationLadder<L> {
    /// A ladder starting at `start`.
    pub fn new(config: LadderConfig, start: L) -> Self {
        DegradationLadder { config, level: start, misses: 0, meets: 0, cooldown_left: 0 }
    }

    /// The current rung.
    pub fn level(&self) -> L {
        self.level
    }

    /// Records one observation, a miss or a met one, under the best rung
    /// currently allowed; returns the transition it caused, if any. A
    /// ladder above `best_allowed` jumps straight down to it.
    pub fn observe(&mut self, missed: bool, best_allowed: L) -> Option<Transition<L>> {
        self.cooldown_left = self.cooldown_left.saturating_sub(1);
        if best_allowed > self.level {
            return Some(self.shift(best_allowed));
        }
        // The streaks saturate: a healthy owner observes forever.
        if missed {
            self.meets = 0;
            self.misses = self.misses.saturating_add(1);
            let to = self.level.worse();
            if self.misses >= self.config.degrade_after && to != self.level {
                return Some(self.shift(to));
            }
        } else {
            self.misses = 0;
            self.meets = self.meets.saturating_add(1);
            if self.meets >= self.config.recover_after
                && self.cooldown_left == 0
                && self.level > best_allowed
            {
                return Some(self.shift(self.level.better()));
            }
        }
        None
    }

    fn shift(&mut self, to: L) -> Transition<L> {
        let t = Transition { from: self.level, to };
        self.level = to;
        self.misses = 0;
        self.meets = 0;
        self.cooldown_left = self.config.cooldown;
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emoleak_core::admission::{DurabilityLevel, FleetState};
    use proptest::prelude::*;

    /// Runs the generic `check` once at each rung type.
    macro_rules! at_every_rung {
        ($check:ident) => {{
            $check::<InferenceLevel>();
            $check::<FleetState>();
            $check::<DurabilityLevel>();
        }};
    }

    fn best<L: Rung>() -> L {
        L::ALL[0]
    }

    fn worst<L: Rung>() -> L {
        L::ALL[L::ALL.len() - 1]
    }

    #[test]
    fn misses_trip_one_rung_at_a_time() {
        fn check<L: Rung>() {
            let mut l = DegradationLadder::new(LadderConfig::default(), best::<L>());
            for pair in L::ALL.windows(2) {
                // The miss streak resets after each transition.
                assert_eq!(l.observe(true, best()), None);
                assert_eq!(l.observe(true, best()), None);
                let step = Transition { from: pair[0], to: pair[1] };
                assert_eq!(l.observe(true, best()), Some(step));
                assert_eq!(l.level(), pair[1]);
            }
            // The last rung is the floor: further misses change nothing.
            for _ in 0..10 {
                assert_eq!(l.observe(true, best()), None);
            }
            assert_eq!(l.level(), worst());
        }
        at_every_rung!(check);
    }

    #[test]
    fn a_met_deadline_resets_the_miss_streak() {
        fn check<L: Rung>() {
            let mut l = DegradationLadder::new(LadderConfig::default(), best::<L>());
            l.observe(true, best());
            l.observe(true, best());
            assert_eq!(l.observe(false, best()), None);
            assert_eq!(l.observe(true, best()), None);
            assert_eq!(l.observe(true, best()), None, "streak restarted after the meet");
            assert_eq!(l.level(), best());
        }
        at_every_rung!(check);
    }

    #[test]
    fn recovery_needs_a_long_streak_and_respects_cooldown() {
        fn check<L: Rung>() {
            let cfg = LadderConfig { degrade_after: 2, recover_after: 5, cooldown: 3 };
            let mut l = DegradationLadder::new(cfg, best::<L>());
            l.observe(true, best());
            assert_eq!(l.observe(true, best()).unwrap().to, L::ALL[1]);
            // Cooldown: the first `cooldown` meets cannot recover even once
            // the meet streak is long enough.
            let mut transitions = Vec::new();
            for _ in 0..20 {
                transitions.extend(l.observe(false, best()));
            }
            assert_eq!(transitions, vec![Transition { from: L::ALL[1], to: best() }]);
            // And it never climbs above its best rung.
            for _ in 0..50 {
                assert_eq!(l.observe(false, best()), None);
            }
            assert_eq!(l.level(), best());
        }
        at_every_rung!(check);
    }

    #[test]
    fn degradation_ignores_cooldown() {
        // Overload must always be escapable: a fresh transition's cooldown
        // freezes recovery, never further degradation.
        fn check<L: Rung>() {
            let cfg = LadderConfig { degrade_after: 2, recover_after: 4, cooldown: 10 };
            let mut l = DegradationLadder::new(cfg, best::<L>());
            l.observe(true, best());
            l.observe(true, best()); // -> ALL[1], cooldown 10
            l.observe(true, best());
            assert_eq!(l.observe(true, best()).unwrap().to, L::ALL[2]);
        }
        at_every_rung!(check);
    }

    #[test]
    fn a_ladder_never_climbs_past_the_best_allowed_rung() {
        fn check<L: Rung>() {
            let cfg = LadderConfig { degrade_after: 1, recover_after: 1, cooldown: 0 };
            let top = L::ALL[2];
            let mut l = DegradationLadder::new(cfg, top);
            assert_eq!(l.observe(true, top).unwrap().to, L::ALL[3]);
            assert_eq!(l.observe(false, top).unwrap().to, top);
            assert_eq!(l.observe(false, top), None, "tops out at the best allowed rung");
            // A worse best-allowed rung pulls the ladder straight down.
            assert_eq!(l.observe(false, worst()), Some(Transition { from: top, to: worst() }));
        }
        at_every_rung!(check);
    }

    #[test]
    fn overload_oscillation_is_bounded_by_hysteresis() {
        // Under permanent overload (every observation above the last rung
        // misses), the ladder must spend almost all its time at the bottom,
        // not flap: the bottom rung always meets, so without hysteresis it
        // would bounce between the last two rungs every few observations.
        fn check<L: Rung>() {
            let mut l = DegradationLadder::new(LadderConfig::default(), best::<L>());
            let mut transitions = 0;
            for _ in 0..1000 {
                let missed = l.level() != worst(); // the bottom rung is always fast
                if l.observe(missed, best()).is_some() {
                    transitions += 1;
                }
            }
            // The walk down, then bounded cycling between the last two
            // rungs: each full cycle needs ≥ recover_after + degrade_after
            // observations.
            let cfg = LadderConfig::default();
            let cycle = (cfg.recover_after + cfg.degrade_after) as usize;
            assert!(
                transitions <= L::ALL.len() - 1 + 2 * (1000 / cycle + 1),
                "{transitions} transitions in 1000 observations is flapping"
            );
        }
        at_every_rung!(check);
    }

    #[test]
    fn streaks_saturate_instead_of_overflowing() {
        fn check<L: Rung>() {
            let calm = |level| DegradationLadder {
                config: LadderConfig::default(),
                level,
                misses: u32::MAX,
                meets: u32::MAX,
                cooldown_left: 0,
            };
            let mut l = calm(best::<L>());
            assert_eq!(l.observe(false, best()), None);
            assert_eq!(l.meets, u32::MAX);
            let mut l = calm(worst::<L>());
            assert_eq!(l.observe(true, best()), None);
            assert_eq!(l.misses, u32::MAX);
            // A saturated meet streak still climbs.
            let mut l = calm(worst::<L>());
            assert_eq!(l.observe(false, best()).map(|t| t.to), Some(worst::<L>().better()));
        }
        at_every_rung!(check);
    }

    #[test]
    fn level_cap_only_ever_cheapens() {
        use InferenceLevel::*;
        let cap = LevelCap::new();
        assert_eq!(cap.get(), Cnn, "fresh cap restricts nothing");
        assert_eq!(cap.apply(Classical), Classical);
        cap.set(EnergyOnly);
        assert_eq!(cap.apply(Cnn), EnergyOnly, "cap wins when stricter");
        assert_eq!(cap.apply(Shed), Shed, "session's own shed survives the cap");
        cap.set(Cnn);
        assert_eq!(cap.apply(Classical), Classical, "lifting the cap restores the ladder");
    }

    /// Replays `steps` — `(miss selector, best-allowed selector)` pairs —
    /// and checks every transition against the contract: one step worse
    /// after `degrade_after` misses in a row, a jump down to the best
    /// allowed rung, or one step better after `recover_after` meets and
    /// outside the cooldown; the rung never above the best allowed, and
    /// always one of `ALL`.
    fn contract<L: Rung>(cfg: LadderConfig, steps: &[(u32, u32)]) -> Result<(), String> {
        let mut l = DegradationLadder::new(cfg, best::<L>());
        let mut allowed = best::<L>();
        let (mut misses, mut meets, mut since) = (0u32, 0u32, u32::MAX);
        for &(miss_sel, best_sel) in steps {
            // A third of the observations miss, and the best allowed rung
            // moves on a few steps in a hundred, as a disk's free space does.
            let missed = miss_sel == 0;
            if let Some(rung) = L::from_index(best_sel as usize) {
                allowed = rung;
            }
            let from = l.level();
            if missed {
                (misses, meets) = (misses + 1, 0);
            } else {
                (misses, meets) = (0, meets + 1);
            }
            since = since.saturating_add(1);
            if let Some(t) = l.observe(missed, allowed) {
                prop_assert_eq!(t.from, from);
                let jump = allowed > from && t.to == allowed;
                let down = missed && misses >= cfg.degrade_after && t.to == from.worse();
                let up = !missed && meets >= cfg.recover_after && t.to == from.better();
                prop_assert!(jump || down || up, "unexplained {:?} at {:?}", t, allowed);
                prop_assert!(allowed <= from || jump, "{:?} skipped the jump to {:?}", t, allowed);
                if t.to < from {
                    prop_assert!(since >= cfg.cooldown, "climb {} after a transition", since);
                }
                (misses, meets, since) = (0, 0, 0);
            }
            prop_assert!(l.level() >= allowed, "{:?} above {:?}", l.level(), allowed);
            prop_assert_eq!(L::from_index(l.level().index()), Some(l.level()));
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn every_transition_follows_the_ladder_contract(
            tuning in (0u32..4, 0u32..6, 0u32..5),
            steps in prop::collection::vec((0u32..3, 0u32..64), 0..200usize),
        ) {
            let (degrade_after, recover_after, cooldown) = tuning;
            let cfg = LadderConfig { degrade_after, recover_after, cooldown };
            contract::<InferenceLevel>(cfg, &steps)?;
            contract::<FleetState>(cfg, &steps)?;
            contract::<DurabilityLevel>(cfg, &steps)?;
        }
    }
}
