//! Deadlines for tasks that must give up in bounded time.
//!
//! A [`Deadline`] answers "how much budget is left" without any callback or
//! timer thread, so a loop can check it between steps and cap every sleep
//! at what remains. The streaming service (`emoleak-stream`) arms one per
//! run from its `run_timeout`: retry backoff never sleeps past it, and a
//! run that reaches it ends with a typed timeout error instead of hanging.
//!
//! It is a hook, not enforcement: a call that never returns is not
//! interrupted, which is why the service requires its sources to return in
//! bounded time.

use std::time::{Duration, Instant};

/// A wall-clock time budget that starts counting at construction.
#[derive(Debug, Clone, Copy)]
pub struct Deadline {
    start: Instant,
    budget: Duration,
}

impl Deadline {
    /// A deadline `budget` from now.
    pub fn within(budget: Duration) -> Self {
        Deadline { start: Instant::now(), budget }
    }

    /// Time spent since the deadline was armed.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Whether the budget is exhausted.
    pub fn expired(&self) -> bool {
        self.start.elapsed() >= self.budget
    }

    /// Remaining budget (zero once expired).
    pub fn remaining(&self) -> Duration {
        self.budget.saturating_sub(self.start.elapsed())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deadline_expires_and_clamps() {
        let d = Deadline::within(Duration::ZERO);
        assert!(d.expired());
        assert_eq!(d.remaining(), Duration::ZERO);

        let d = Deadline::within(Duration::from_secs(3600));
        assert!(!d.expired());
        assert!(d.remaining() > Duration::from_secs(3599));
        assert!(d.elapsed() < Duration::from_secs(1));
    }
}
