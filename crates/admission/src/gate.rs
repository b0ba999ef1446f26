//! The fleet gate: overload protection in front of real
//! [`StreamService`](emoleak_stream::StreamService) sessions.
//!
//! [`AdmissionController`] is a pure state machine; [`FleetGate`] is its
//! thread-safe front end. A caller asks the gate to
//! [`admit`](FleetGate::admit) a session for a tenant; on success it gets
//! a [`SessionPermit`] that (a) holds the tenant's and the fleet's
//! bulkhead slots until dropped, and (b)
//! [`configure`](SessionPermit::configure)s a [`StreamConfig`] with the
//! shared byte gauge and fleet level cap — so every admitted session
//! bills the one budget and obeys the one quality ceiling.

use crate::config::AdmissionConfig;
use crate::controller::AdmissionController;
use emoleak_core::admission::AdmissionError;
use emoleak_stream::gauge::ByteGauge;
use emoleak_stream::ladder::LevelCap;
use emoleak_stream::service::StreamConfig;
use std::sync::{Arc, Mutex};

fn locked<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// A thread-safe admission front end for a fleet of streaming sessions.
#[derive(Clone)]
pub struct FleetGate {
    ctrl: Arc<Mutex<AdmissionController>>,
}

impl FleetGate {
    /// A gate over a fresh controller.
    pub fn new(cfg: AdmissionConfig) -> Self {
        FleetGate { ctrl: Arc::new(Mutex::new(AdmissionController::new(cfg))) }
    }

    /// The shared controller, for driving `drain`/`observe` or reading
    /// stats and the event log.
    pub fn controller(&self) -> Arc<Mutex<AdmissionController>> {
        Arc::clone(&self.ctrl)
    }

    /// Admits a session for `tenant` at logical tick `now`.
    ///
    /// # Errors
    ///
    /// Whatever [`AdmissionController::open_session`] refuses with:
    /// brown-out, a full tenant bulkhead, or a full fleet bulkhead.
    pub fn admit(&self, tenant: &str, now: u64) -> Result<SessionPermit, AdmissionError> {
        let mut ctrl = locked(&self.ctrl);
        ctrl.open_session(tenant, now)?;
        Ok(SessionPermit {
            tenant: tenant.to_string(),
            ctrl: Arc::clone(&self.ctrl),
            memory: ctrl.memory(),
            cap: ctrl.level_cap(),
        })
    }
}

/// A held admission: one session's bulkhead slots plus the shared gauges
/// it must run under. Dropping the permit releases the slots.
pub struct SessionPermit {
    tenant: String,
    ctrl: Arc<Mutex<AdmissionController>>,
    memory: Arc<ByteGauge>,
    cap: Arc<LevelCap>,
}

impl core::fmt::Debug for SessionPermit {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("SessionPermit").field("tenant", &self.tenant).finish_non_exhaustive()
    }
}

impl SessionPermit {
    /// The tenant this permit belongs to.
    pub fn tenant(&self) -> &str {
        &self.tenant
    }

    /// Plugs the fleet's shared byte gauge and level cap into a session
    /// config: the session meters what it holds on the fleet budget and
    /// its classify step obeys the fleet ceiling.
    #[must_use]
    pub fn configure(&self, cfg: StreamConfig) -> StreamConfig {
        StreamConfig {
            memory: Some(Arc::clone(&self.memory)),
            fleet_cap: Some(Arc::clone(&self.cap)),
            ..cfg
        }
    }
}

impl Drop for SessionPermit {
    fn drop(&mut self) {
        locked(&self.ctrl).close_session(&self.tenant);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emoleak_core::admission::FleetState;

    fn gate() -> FleetGate {
        FleetGate::new(AdmissionConfig {
            max_sessions: 2,
            tenant_sessions: 1,
            ..AdmissionConfig::default()
        })
    }

    #[test]
    fn permits_hold_and_release_bulkhead_slots() {
        let g = gate();
        let a = g.admit("a", 0).unwrap();
        assert!(matches!(
            g.admit("a", 0).unwrap_err(),
            AdmissionError::TenantSaturated { .. }
        ));
        let _b = g.admit("b", 0).unwrap();
        assert!(matches!(
            g.admit("c", 0).unwrap_err(),
            AdmissionError::FleetSaturated { .. }
        ));
        drop(a);
        let _c = g.admit("c", 1).unwrap();
        let stats = locked(&g.controller()).stats();
        assert_eq!(stats.peak_sessions, 2);
    }

    #[test]
    fn configure_wires_the_shared_gauges_into_a_session_config() {
        let g = gate();
        let permit = g.admit("a", 0).unwrap();
        let cfg = permit.configure(StreamConfig::default());
        let (gauge, cap) = (cfg.memory.unwrap(), cfg.fleet_cap.unwrap());
        // Same instances the controller enforces with.
        assert!(Arc::ptr_eq(&gauge, &locked(&g.controller()).memory()));
        assert!(Arc::ptr_eq(&cap, &locked(&g.controller()).level_cap()));
    }

    #[test]
    fn browned_out_gate_refuses_new_sessions() {
        let g = gate();
        {
            let ctrl = g.controller();
            let mut c = locked(&ctrl);
            let _ = c.offer("a", 1, 0);
            for now in 0..100 {
                c.observe(now);
            }
            assert_eq!(c.fleet_state(), FleetState::BrownOut);
        }
        assert!(matches!(g.admit("b", 100).unwrap_err(), AdmissionError::BrownedOut));
    }
}
