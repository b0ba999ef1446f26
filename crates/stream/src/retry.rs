//! Retry with exponential backoff and seeded jitter.
//!
//! Transient source errors ([`SourceError::Transient`](crate::source::SourceError::Transient))
//! are absorbed here: the service retries the read with exponentially
//! growing delays plus full jitter. The jitter is *seeded* — drawn from
//! `derive_seed(seed, attempt)` like every other random stream in the repo
//! — so a chaos run's retry timing is as reproducible as its data. Every
//! backoff sleep is capped by the run's [`Deadline`], so retrying never
//! outlives the run.

use emoleak_exec::Deadline;
use std::time::Duration;

/// Backoff schedule for transient-error retries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Attempts before giving up (the first try counts; ≥ 1).
    pub max_attempts: u32,
    /// Delay before the first retry; doubles each further retry.
    pub base_delay: Duration,
    /// Hard cap on any single delay.
    pub max_delay: Duration,
    /// Seed for the jitter stream.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 6,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(40),
            seed: 0x5E7,
        }
    }
}

impl RetryPolicy {
    /// The backoff before retry number `attempt` (1-based): jittered
    /// `base_delay * 2^(attempt-1)`, capped at `max_delay`. Full jitter —
    /// uniform in `[0, exponential]` — derived from `(seed, attempt)`, so
    /// the schedule is a pure function of the policy.
    pub fn delay(&self, attempt: u32) -> Duration {
        let exp = self
            .base_delay
            .saturating_mul(1u32.checked_shl(attempt.saturating_sub(1)).unwrap_or(u32::MAX))
            .min(self.max_delay);
        let mut stream = emoleak_exec::derive_seed(self.seed, u64::from(attempt));
        let uniform =
            (emoleak_exec::splitmix64(&mut stream) >> 11) as f64 / (1u64 << 53) as f64;
        exp.mul_f64(uniform)
    }
}

/// Why a retried operation ultimately failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RetryError<E> {
    /// Every allowed attempt failed transiently; the last error.
    Exhausted(E),
    /// The operation failed in a way retrying cannot fix.
    Permanent(E),
    /// The deadline passed before an attempt succeeded.
    TimedOut,
}

/// Runs `op` under `policy`, sleeping the backoff between transient
/// failures but never past `deadline`. `op` classifies its own errors:
/// `Ok(Err(e))` is transient, `Err(e)` is permanent. Returns the number of
/// retries that were needed alongside the success value.
///
/// # Errors
///
/// [`RetryError::Exhausted`] after `max_attempts` transient failures,
/// [`RetryError::Permanent`] immediately on a permanent failure, and
/// [`RetryError::TimedOut`] once `deadline` has passed: no attempt starts
/// after it.
pub fn retry_with_backoff<T, E>(
    policy: &RetryPolicy,
    deadline: &Deadline,
    mut op: impl FnMut() -> Result<Result<T, E>, E>,
) -> Result<(T, u32), RetryError<E>> {
    let attempts = policy.max_attempts.max(1);
    let mut retries = 0;
    loop {
        if deadline.expired() {
            return Err(RetryError::TimedOut);
        }
        match op() {
            Ok(Ok(value)) => return Ok((value, retries)),
            Err(e) => return Err(RetryError::Permanent(e)),
            Ok(Err(e)) => {
                retries += 1;
                if retries >= attempts {
                    return Err(RetryError::Exhausted(e));
                }
                std::thread::sleep(policy.delay(retries).min(deadline.remaining()));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delays_grow_exponentially_and_cap() {
        let p = RetryPolicy {
            max_attempts: 10,
            base_delay: Duration::from_millis(2),
            max_delay: Duration::from_millis(10),
            seed: 1,
        };
        for attempt in 1..10 {
            let exp = Duration::from_millis(2u64 << (attempt - 1)).min(p.max_delay);
            let d = p.delay(attempt);
            assert!(d <= exp, "attempt {attempt}: {d:?} within jitter envelope {exp:?}");
        }
        // Deterministic: same policy, same schedule.
        let q = p.clone();
        assert!((1..10).all(|a| p.delay(a) == q.delay(a)));
        // Jitter actually varies across attempts (full jitter, not none).
        let delays: Vec<_> = (1..10).map(|a| p.delay(a)).collect();
        assert!(delays.windows(2).any(|w| w[0] != w[1]), "{delays:?}");
    }

    #[test]
    fn succeeds_after_transient_failures() {
        let policy = RetryPolicy { base_delay: Duration::from_micros(10), ..Default::default() };
        let deadline = Deadline::within(Duration::from_secs(60));
        let mut calls = 0;
        let out = retry_with_backoff(&policy, &deadline, || {
            calls += 1;
            if calls < 3 { Ok(Err("flaky")) } else { Ok(Ok(calls)) }
        });
        assert_eq!(out, Ok((3, 2)));
    }

    #[test]
    fn exhausts_after_max_attempts() {
        let policy = RetryPolicy {
            max_attempts: 4,
            base_delay: Duration::from_micros(10),
            ..Default::default()
        };
        let deadline = Deadline::within(Duration::from_secs(60));
        let mut calls = 0u32;
        let out: Result<((), u32), _> = retry_with_backoff(&policy, &deadline, || {
            calls += 1;
            Ok(Err(calls))
        });
        assert_eq!(out, Err(RetryError::Exhausted(4)));
        assert_eq!(calls, 4);
    }

    #[test]
    fn permanent_errors_short_circuit() {
        let policy = RetryPolicy::default();
        let deadline = Deadline::within(Duration::from_secs(60));
        let mut calls = 0u32;
        let out: Result<((), u32), _> = retry_with_backoff(&policy, &deadline, || {
            calls += 1;
            Err("dead")
        });
        assert_eq!(out, Err(RetryError::Permanent("dead")));
        assert_eq!(calls, 1);
    }

    #[test]
    fn the_deadline_caps_the_backoff_and_stops_retrying() {
        // A 2 s backoff against a 50 ms deadline: one attempt, one sleep
        // cut short at the deadline, then no further attempt.
        let policy = RetryPolicy {
            base_delay: Duration::from_secs(2),
            max_delay: Duration::from_secs(2),
            ..Default::default()
        };
        let deadline = Deadline::within(Duration::from_millis(50));
        assert!(policy.delay(1) > Duration::from_millis(50), "the first backoff outlasts it");
        let mut calls = 0u32;
        let t0 = std::time::Instant::now();
        let out: Result<((), u32), RetryError<&str>> =
            retry_with_backoff(&policy, &deadline, || {
                calls += 1;
                Ok(Err("flaky"))
            });
        assert_eq!(out, Err(RetryError::TimedOut));
        assert_eq!(calls, 1);
        assert!(t0.elapsed() < Duration::from_secs(1), "slept past the deadline");
    }
}
