//! The service log: a structured record of everything the resilience
//! machinery did.
//!
//! Chaos assertions and operators both need to know *what the service did
//! to survive* — which rungs it degraded through, how often retries saved a
//! read, which steps panicked and were absorbed. [`ServiceLog`] records
//! those as typed events ordered by a logical clock (the running region /
//! chunk counters), not wall-clock timestamps, so a clean-path run produces
//! a byte-identical log every time.

use crate::ladder::Transition;
use emoleak_core::admission::{DurabilityLevel, FleetState};
use emoleak_core::online::InferenceLevel;

/// One resilience event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceEvent {
    /// The ladder tripped one rung down after consecutive deadline misses.
    Degraded {
        /// Region counter when the breaker tripped.
        region: u64,
        /// The transition taken.
        transition: Transition,
    },
    /// The ladder climbed one rung back up after sustained headroom.
    Recovered {
        /// Region counter when recovery fired.
        region: u64,
        /// The transition taken.
        transition: Transition,
    },
    /// A transient source failure was retried into a success.
    SourceRecovered {
        /// Chunk counter at the affected read.
        chunk: u64,
        /// Retries the read needed.
        retries: u32,
    },
    /// A session step panicked; the panic firewall absorbed it and the
    /// session went on without that step's work.
    WorkerPanicked {
        /// Step name: `ingest`, `extract` or `classify`.
        stage: &'static str,
        /// Restarts of this step so far (this one included).
        restarts: u32,
        /// The panic message, if it carried one.
        message: String,
    },
    /// The fleet breaker moved the whole fleet to a new overload state.
    FleetTransition {
        /// Logical tick (admission-layer clock) of the transition.
        tick: u64,
        /// The state before.
        from: FleetState,
        /// The state after.
        to: FleetState,
    },
    /// The admission layer refused a request or session at the front door.
    AdmissionRejected {
        /// Logical tick of the refusal.
        tick: u64,
        /// The refused tenant.
        tenant: String,
        /// The stable refusal tag (see
        /// [`AdmissionError::tag`](emoleak_core::admission::AdmissionError::tag)).
        reason: String,
    },
    /// A shard's disk gauge moved the shard to a new durability level.
    DurabilityTransition {
        /// Logical tick (admission-layer clock) of the transition.
        tick: u64,
        /// The shard whose storage moved.
        shard: u32,
        /// The durability level before.
        from: DurabilityLevel,
        /// The durability level after.
        to: DurabilityLevel,
    },
    /// CoDel shed an already-admitted item whose queue sojourn exceeded
    /// the target for a sustained interval.
    LoadShed {
        /// Logical tick of the shed.
        tick: u64,
        /// The tenant whose item was shed.
        tenant: String,
        /// How long the item had been queued, ticks.
        sojourn: u64,
    },
}

/// An append-only, deterministic event log.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServiceLog {
    events: Vec<ServiceEvent>,
}

impl ServiceLog {
    /// An empty log.
    pub fn new() -> Self {
        ServiceLog::default()
    }

    /// Appends an event.
    pub fn push(&mut self, event: ServiceEvent) {
        self.events.push(event);
    }

    /// All events, in order.
    pub fn events(&self) -> &[ServiceEvent] {
        &self.events
    }

    /// The ladder transitions, in order.
    pub fn transitions(&self) -> Vec<Transition> {
        self.events
            .iter()
            .filter_map(|e| match e {
                ServiceEvent::Degraded { transition, .. }
                | ServiceEvent::Recovered { transition, .. } => Some(*transition),
                _ => None,
            })
            .collect()
    }

    /// The lowest (worst) rung the ladder ever reached, if it ever moved.
    pub fn worst_level(&self) -> Option<InferenceLevel> {
        self.transitions().iter().map(|t| t.to).max()
    }

    /// Count of step panics absorbed.
    pub fn panics(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, ServiceEvent::WorkerPanicked { .. }))
            .count()
    }

    /// Count of reads saved by retry.
    pub fn source_recoveries(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, ServiceEvent::SourceRecovered { .. }))
            .count()
    }

    /// The fleet-state transitions, in order, as `(tick, from, to)`.
    pub fn fleet_transitions(&self) -> Vec<(u64, FleetState, FleetState)> {
        self.events
            .iter()
            .filter_map(|e| match e {
                ServiceEvent::FleetTransition { tick, from, to } => Some((*tick, *from, *to)),
                _ => None,
            })
            .collect()
    }

    /// The worst fleet state the breaker ever reached, if it ever moved.
    pub fn worst_fleet_state(&self) -> Option<FleetState> {
        self.fleet_transitions().iter().map(|(_, _, to)| *to).max()
    }

    /// The durability transitions, in order, as `(tick, shard, from, to)`.
    pub fn durability_transitions(&self) -> Vec<(u64, u32, DurabilityLevel, DurabilityLevel)> {
        self.events
            .iter()
            .filter_map(|e| match e {
                ServiceEvent::DurabilityTransition { tick, shard, from, to } => {
                    Some((*tick, *shard, *from, *to))
                }
                _ => None,
            })
            .collect()
    }

    /// The worst durability level any shard ever reached, if one moved.
    pub fn worst_durability(&self) -> Option<DurabilityLevel> {
        self.durability_transitions().iter().map(|(_, _, _, to)| *to).max()
    }

    /// Count of admission refusals.
    pub fn rejections(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, ServiceEvent::AdmissionRejected { .. }))
            .count()
    }

    /// Count of CoDel sheds.
    pub fn sheds(&self) -> usize {
        self.events.iter().filter(|e| matches!(e, ServiceEvent::LoadShed { .. })).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use InferenceLevel::*;

    #[test]
    fn log_summarizes_by_event_kind() {
        let mut log = ServiceLog::new();
        log.push(ServiceEvent::SourceRecovered { chunk: 3, retries: 2 });
        log.push(ServiceEvent::Degraded {
            region: 10,
            transition: Transition { from: Cnn, to: Classical },
        });
        log.push(ServiceEvent::Degraded {
            region: 14,
            transition: Transition { from: Classical, to: EnergyOnly },
        });
        log.push(ServiceEvent::WorkerPanicked {
            stage: "extract",
            restarts: 1,
            message: "boom".into(),
        });
        log.push(ServiceEvent::Recovered {
            region: 40,
            transition: Transition { from: EnergyOnly, to: Classical },
        });
        assert_eq!(log.events().len(), 5);
        assert_eq!(log.transitions().len(), 3);
        assert_eq!(log.worst_level(), Some(EnergyOnly));
        assert_eq!(log.panics(), 1);
        assert_eq!(log.source_recoveries(), 1);
    }

    #[test]
    fn untouched_log_reports_nothing() {
        let log = ServiceLog::new();
        assert!(log.events().is_empty());
        assert_eq!(log.worst_level(), None);
        assert_eq!(log.transitions(), Vec::new());
        assert_eq!(log.worst_fleet_state(), None);
        assert_eq!(log.worst_durability(), None);
        assert_eq!(log.rejections(), 0);
        assert_eq!(log.sheds(), 0);
    }

    #[test]
    fn fleet_events_summarize_separately_from_session_events() {
        let mut log = ServiceLog::new();
        log.push(ServiceEvent::FleetTransition {
            tick: 10,
            from: FleetState::Healthy,
            to: FleetState::Degraded,
        });
        log.push(ServiceEvent::AdmissionRejected {
            tick: 11,
            tenant: "t1".into(),
            reason: "rate-limited".into(),
        });
        log.push(ServiceEvent::LoadShed { tick: 12, tenant: "t2".into(), sojourn: 9 });
        log.push(ServiceEvent::DurabilityTransition {
            tick: 20,
            shard: 1,
            from: DurabilityLevel::Durable,
            to: DurabilityLevel::ReplicaOnly,
        });
        log.push(ServiceEvent::FleetTransition {
            tick: 30,
            from: FleetState::Degraded,
            to: FleetState::Saturated,
        });
        log.push(ServiceEvent::FleetTransition {
            tick: 90,
            from: FleetState::Saturated,
            to: FleetState::Degraded,
        });
        assert_eq!(
            log.fleet_transitions(),
            vec![
                (10, FleetState::Healthy, FleetState::Degraded),
                (30, FleetState::Degraded, FleetState::Saturated),
                (90, FleetState::Saturated, FleetState::Degraded),
            ]
        );
        assert_eq!(log.worst_fleet_state(), Some(FleetState::Saturated));
        assert_eq!(
            log.durability_transitions(),
            vec![(20, 1, DurabilityLevel::Durable, DurabilityLevel::ReplicaOnly)]
        );
        assert_eq!(log.worst_durability(), Some(DurabilityLevel::ReplicaOnly));
        assert_eq!(log.rejections(), 1);
        assert_eq!(log.sheds(), 1);
        // Fleet events do not leak into the per-session ladder summaries.
        assert_eq!(log.transitions(), Vec::new());
        assert_eq!(log.worst_level(), None);
    }
}
