//! [`ByteGauge`]: the memory accountant streaming sessions charge for the
//! partial window and the unclassified regions they hold, and the
//! admission layer budgets.

use std::sync::atomic::{AtomicU64, Ordering};

/// A shared byte gauge: the fleet-wide memory accountant that sessions
/// charge and release against.
///
/// Every held chunk or region costs bytes; one gauge shared by every
/// session makes "how much is the whole fleet holding?" a single number
/// with a high-water mark, and [`ByteGauge::try_charge`] turns it into a
/// hard budget: a charge that would exceed the budget is refused
/// atomically, so concurrent chargers can never conspire past it.
#[derive(Debug, Default)]
pub struct ByteGauge {
    charged: AtomicU64,
    peak: AtomicU64,
}

impl ByteGauge {
    /// A gauge at zero.
    pub fn new() -> Self {
        ByteGauge::default()
    }

    /// Unconditionally charges `bytes` (sessions account what they
    /// actually hold; budget *enforcement* happens at admission).
    pub fn charge(&self, bytes: u64) {
        let now = self.charged.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.peak.fetch_max(now, Ordering::Relaxed);
    }

    /// Atomically charges `bytes` only if the total stays within `budget`.
    /// Returns whether the charge was taken.
    pub fn try_charge(&self, bytes: u64, budget: u64) -> bool {
        let mut current = self.charged.load(Ordering::Relaxed);
        loop {
            let Some(next) = current.checked_add(bytes) else {
                return false;
            };
            if next > budget {
                return false;
            }
            match self.charged.compare_exchange_weak(
                current,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    self.peak.fetch_max(next, Ordering::Relaxed);
                    return true;
                }
                Err(seen) => current = seen,
            }
        }
    }

    /// Releases a previous charge (saturating: a stray double-release can
    /// never wrap the gauge to astronomical values).
    pub fn release(&self, bytes: u64) {
        let _ = self.charged.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |cur| {
            Some(cur.saturating_sub(bytes))
        });
    }

    /// Bytes currently charged.
    pub fn charged(&self) -> u64 {
        self.charged.load(Ordering::Relaxed)
    }

    /// The most bytes ever charged at once.
    pub fn peak(&self) -> u64 {
        self.peak.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gauge_budget_is_atomic_and_saturating() {
        let g = ByteGauge::new();
        assert!(g.try_charge(600, 1000));
        assert!(!g.try_charge(500, 1000), "would exceed the budget");
        assert!(g.try_charge(400, 1000));
        assert_eq!(g.charged(), 1000);
        assert_eq!(g.peak(), 1000);
        g.release(700);
        assert_eq!(g.charged(), 300);
        g.release(10_000); // stray double release
        assert_eq!(g.charged(), 0, "release saturates at zero");
        assert_eq!(g.peak(), 1000, "peak is a high-water mark");
        assert!(!g.try_charge(u64::MAX, u64::MAX - 1), "overflow is a refusal");
    }
}
