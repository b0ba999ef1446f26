//! The rungs of a degradation ladder.
//!
//! Three ladders step down under pressure and climb back when it eases: the
//! per-session inference ladder ([`InferenceLevel`]), the fleet breaker
//! ([`FleetState`]) and the per-shard disk gauge ([`DurabilityLevel`]).
//! Each is a small enum ordered best first, so a *greater* rung is a
//! *worse* (cheaper) one and `max` picks the worse of two. [`Rung`] owns
//! what the three share: the order, the one-step moves, and the index that
//! the journal writes as a rung's code. One hysteresis machine,
//! `emoleak_stream::DegradationLadder`, runs all three.
//!
//! [`InferenceLevel`]: crate::online::InferenceLevel
//! [`FleetState`]: crate::admission::FleetState
//! [`DurabilityLevel`]: crate::admission::DurabilityLevel

/// One rung of a ladder ordered best first.
pub trait Rung: Copy + Ord + core::fmt::Debug + 'static {
    /// Every rung, best first. A rung's position here is its
    /// [`index`](Rung::index), which journals store as the rung's code.
    const ALL: &'static [Self];

    /// This rung's position in [`Rung::ALL`].
    fn index(self) -> usize;

    /// The rung at `index` in [`Rung::ALL`], if there is one.
    fn from_index(index: usize) -> Option<Self> {
        Self::ALL.get(index).copied()
    }

    /// One rung worse (saturates at the last rung).
    #[must_use]
    fn worse(self) -> Self {
        Self::from_index(self.index() + 1).unwrap_or(self)
    }

    /// One rung better (saturates at the first rung).
    #[must_use]
    fn better(self) -> Self {
        self.index().checked_sub(1).and_then(Self::from_index).unwrap_or(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::{DurabilityLevel, FleetState};
    use crate::online::InferenceLevel;

    /// The codes journals store, in the order `Ord` compares. Each type's
    /// walk through `worse`/`better` is pinned beside the type.
    fn pin<R: Rung>() {
        for (i, rung) in R::ALL.iter().enumerate() {
            assert_eq!(rung.index(), i, "{rung:?} is not at its index");
            assert_eq!(R::from_index(i), Some(*rung));
        }
        assert_eq!(R::from_index(R::ALL.len()), None);
        assert!(R::ALL.windows(2).all(|pair| pair[0] < pair[1]), "ALL is sorted best first");
    }

    #[test]
    fn every_ladder_codes_its_rungs_in_order() {
        pin::<InferenceLevel>();
        pin::<FleetState>();
        pin::<DurabilityLevel>();
        // The journal's codes, spelled out: changing one orphans every
        // journal written before the change.
        assert_eq!(InferenceLevel::Classical.index(), 2);
        assert_eq!(InferenceLevel::Shed.index(), 4);
        assert_eq!(FleetState::BrownOut.index(), 3);
        assert_eq!(DurabilityLevel::ReplicaOnly.index(), 1);
    }
}
