//! Admission-layer tuning, with strict environment overrides.
//!
//! Three knobs are operator-facing and read from the environment through
//! [`emoleak_exec::parse_checked`] — set-but-malformed values error, they
//! are never silently defaulted:
//!
//! | variable | meaning | default |
//! |---|---|---|
//! | `EMOLEAK_MAX_SESSIONS` | global concurrent-session bulkhead | 8 |
//! | `EMOLEAK_MEM_BUDGET` | fleet byte budget for queued work | 64 MiB |
//! | `EMOLEAK_TENANT_RPS` | per-tenant offered-chunk rate limit | 200/s |

use crate::codel::CodelConfig;
use emoleak_core::EmoleakError;
use emoleak_exec::parse_checked;
use emoleak_stream::LadderConfig;

/// Tuning for an [`AdmissionController`](crate::AdmissionController) /
/// [`FleetGate`](crate::FleetGate).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Global bulkhead: concurrent sessions across all tenants.
    pub max_sessions: usize,
    /// Per-tenant bulkhead: concurrent sessions for any one tenant.
    pub tenant_sessions: usize,
    /// Fleet byte budget charged by every queued chunk and region.
    pub mem_budget: u64,
    /// Per-tenant token-bucket rate, offered chunks per second.
    pub tenant_rps: u64,
    /// Per-tenant token-bucket burst, chunks.
    pub tenant_burst: u64,
    /// CoDel shedding tuning for the shared ingest queue.
    pub codel: CodelConfig,
    /// Fleet circuit-breaker tuning: the [`FleetState`] ladder's streaks
    /// and cooldown, 3/10/5 by default.
    ///
    /// [`FleetState`]: emoleak_core::admission::FleetState
    pub breaker: LadderConfig,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            max_sessions: 8,
            tenant_sessions: 4,
            mem_budget: 64 << 20,
            tenant_rps: 200,
            tenant_burst: 50,
            codel: CodelConfig::default(),
            // recover_after ≫ degrade_after: falling is easy, climbing back
            // is earned — the same hysteresis shape as the session ladder.
            breaker: LadderConfig { degrade_after: 3, recover_after: 10, cooldown: 5 },
        }
    }
}

impl AdmissionConfig {
    /// The defaults with any `EMOLEAK_MAX_SESSIONS` / `EMOLEAK_MEM_BUDGET`
    /// / `EMOLEAK_TENANT_RPS` overrides applied.
    ///
    /// # Errors
    ///
    /// [`EmoleakError::Config`] when a set knob is malformed or
    /// out of range (zero is out of range for all three).
    pub fn from_env() -> Result<Self, EmoleakError> {
        let mut cfg = AdmissionConfig::default();
        if let Some(n) =
            parse_checked::<usize>("EMOLEAK_MAX_SESSIONS", "a positive integer", |&n| n > 0)?
        {
            cfg.max_sessions = n;
        }
        if let Some(b) =
            parse_checked::<u64>("EMOLEAK_MEM_BUDGET", "a positive byte count", |&b| b > 0)?
        {
            cfg.mem_budget = b;
        }
        if let Some(r) =
            parse_checked::<u64>("EMOLEAK_TENANT_RPS", "a positive rate per second", |&r| r > 0)?
        {
            cfg.tenant_rps = r;
        }
        Ok(cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Env mutation is process-global; this test owns these three names.
    #[test]
    fn env_overrides_are_strict() {
        for name in ["EMOLEAK_MAX_SESSIONS", "EMOLEAK_MEM_BUDGET", "EMOLEAK_TENANT_RPS"] {
            std::env::remove_var(name);
        }
        assert_eq!(AdmissionConfig::from_env().unwrap(), AdmissionConfig::default());

        std::env::set_var("EMOLEAK_MAX_SESSIONS", "3");
        std::env::set_var("EMOLEAK_MEM_BUDGET", "1048576");
        std::env::set_var("EMOLEAK_TENANT_RPS", "17");
        let cfg = AdmissionConfig::from_env().unwrap();
        assert_eq!(cfg.max_sessions, 3);
        assert_eq!(cfg.mem_budget, 1 << 20);
        assert_eq!(cfg.tenant_rps, 17);

        std::env::set_var("EMOLEAK_MAX_SESSIONS", "0");
        let err = AdmissionConfig::from_env().unwrap_err();
        assert!(matches!(err, EmoleakError::Config(_)), "{err:?}");
        assert!(err.to_string().contains("EMOLEAK_MAX_SESSIONS"));
        for name in ["EMOLEAK_MAX_SESSIONS", "EMOLEAK_MEM_BUDGET", "EMOLEAK_TENANT_RPS"] {
            std::env::remove_var(name);
        }
    }
}
