//! The admission controller: one deterministic state machine multiplexing
//! many tenants over a shared ingest queue.
//!
//! The controller is driven on a logical clock (ticks). Each tick a caller
//! may [`offer`](AdmissionController::offer) chunks on behalf of tenants,
//! [`drain`](AdmissionController::drain) served work toward the service,
//! and [`observe`](AdmissionController::observe) the overload signal. The
//! front door applies, in order:
//!
//! 1. **brown-out** — a browned-out fleet refuses everything;
//! 2. **per-tenant token bucket** — rate, [`TokenBucket`];
//! 3. **memory budget** — every queued byte is charged against the fleet
//!    [`ByteGauge`], a refused charge is `MemoryExhausted`;
//! 4. **the shared queue** — where CoDel sheds on drain if standing
//!    latency develops.
//!
//! Every outcome increments exactly one counter, so the conservation law
//! `offered == served + rejected + shed + queued + migrated` holds at
//! every tick — the chaos harness asserts it after every scenario. (The
//! `migrated` term is zero for a standalone controller; it counts chunks
//! [`evacuate`](AdmissionController::evacuate)d to another shard when the
//! controller runs inside a fleet.) Sheds and fleet transitions land in
//! the [`ServiceLog`] and, when a [`DurableSink`] is attached, in the
//! write-ahead journal.

use crate::bulkhead::Bulkhead;
use crate::codel::{Codel, CodelVerdict};
use crate::config::AdmissionConfig;
use crate::tokens::TokenBucket;
use emoleak_core::admission::{AdmissionError, FleetState};
use emoleak_stream::durable::{ChunkAdmit, ChunkServe, DurableSink};
use emoleak_stream::gauge::ByteGauge;
use emoleak_stream::ladder::{DegradationLadder, LevelCap, Transition};
use emoleak_stream::log::{ServiceEvent, ServiceLog};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// One admitted chunk waiting in the shared ingest queue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueuedChunk {
    /// The tenant that offered it.
    pub tenant: String,
    /// Its charged cost, bytes.
    pub cost: u64,
    /// The tick it was admitted.
    pub enqueued: u64,
    /// The tenant's chunk sequence number. Assigned per tenant by the
    /// controller (or by a fleet coordinator via
    /// [`offer_tagged`](AdmissionController::offer_tagged)) and preserved
    /// across shard migration, so per-tenant served order is stable no
    /// matter which shard ends up serving the chunk.
    pub seq: u64,
}

/// Per-tenant accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// Chunks the tenant offered.
    pub offered: u64,
    /// Chunks served to the backend.
    pub served: u64,
    /// Chunks refused at the front door.
    pub rejected: u64,
    /// Admitted chunks CoDel shed before service.
    pub shed: u64,
    /// Admitted chunks evacuated to another shard before service.
    pub migrated: u64,
    /// Most sessions the tenant ever held at once.
    pub peak_sessions: usize,
}

struct TenantState {
    bucket: TokenBucket,
    sessions: Bulkhead,
    stats: TenantStats,
    next_seq: u64,
}

/// Fleet-wide accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionStats {
    /// Chunks offered across all tenants.
    pub offered: u64,
    /// Chunks served to the backend.
    pub served: u64,
    /// Chunks refused at the front door.
    pub rejected: u64,
    /// Admitted chunks CoDel shed before service.
    pub shed: u64,
    /// Admitted chunks evacuated to another shard before service.
    pub migrated: u64,
    /// Chunks still queued.
    pub queued: u64,
    /// High-water mark of charged bytes.
    pub mem_peak: u64,
    /// Bytes currently charged.
    pub mem_charged: u64,
    /// Most sessions ever concurrently open, fleet-wide.
    pub peak_sessions: usize,
}

/// The deterministic multi-tenant admission state machine.
pub struct AdmissionController {
    cfg: AdmissionConfig,
    tenants: BTreeMap<String, TenantState>,
    sessions: Bulkhead,
    memory: Arc<ByteGauge>,
    cap: Arc<LevelCap>,
    codel: Codel,
    /// The fleet breaker: walks [`FleetState`] on the overload signal.
    breaker: DegradationLadder<FleetState>,
    queue: VecDeque<QueuedChunk>,
    log: ServiceLog,
    durable: Option<DurableSink>,
    journal_chunks: bool,
    offered: u64,
    served: u64,
    rejected: u64,
    shed: u64,
    migrated: u64,
}

impl AdmissionController {
    /// A fresh controller: fleet Healthy, queue empty, budget untouched.
    pub fn new(cfg: AdmissionConfig) -> Self {
        AdmissionController {
            sessions: Bulkhead::new(cfg.max_sessions),
            codel: Codel::new(cfg.codel),
            breaker: DegradationLadder::new(cfg.breaker, FleetState::Healthy),
            cfg,
            tenants: BTreeMap::new(),
            memory: Arc::new(ByteGauge::new()),
            cap: Arc::new(LevelCap::new()),
            queue: VecDeque::new(),
            log: ServiceLog::new(),
            durable: None,
            journal_chunks: false,
            offered: 0,
            served: 0,
            rejected: 0,
            shed: 0,
            migrated: 0,
        }
    }

    /// Attaches a write-ahead journal for shed and fleet-transition events.
    #[must_use]
    pub fn with_durable(mut self, sink: DurableSink) -> Self {
        self.durable = Some(sink);
        self
    }

    /// Additionally journals every chunk admission (write-ahead of the
    /// enqueue) and every serve, so a crashed shard's exact queue can be
    /// reconstructed as `admits − serves − sheds` by `(tenant, seq)`.
    /// Requires a [`DurableSink`]; every fleet shard enables this so
    /// crash failover can replay in-flight work instead of booking it as
    /// loss.
    #[must_use]
    pub fn with_chunk_journal(mut self) -> Self {
        self.journal_chunks = true;
        self
    }

    /// The shared quality ceiling sessions must classify under.
    pub fn level_cap(&self) -> Arc<LevelCap> {
        Arc::clone(&self.cap)
    }

    /// The shared byte gauge sessions must meter what they hold on.
    pub fn memory(&self) -> Arc<ByteGauge> {
        Arc::clone(&self.memory)
    }

    /// The current fleet state.
    pub fn fleet_state(&self) -> FleetState {
        self.breaker.level()
    }

    /// The configuration the controller runs with.
    pub fn config(&self) -> &AdmissionConfig {
        &self.cfg
    }

    /// `name`'s state, created on first use. The key is allocated only
    /// then: every later call looks the tenant up by `&str`.
    fn tenant(&mut self, name: &str) -> &mut TenantState {
        if !self.tenants.contains_key(name) {
            let cfg = &self.cfg;
            let fresh = TenantState {
                bucket: TokenBucket::new(cfg.tenant_rps, cfg.tenant_burst),
                sessions: Bulkhead::new(cfg.tenant_sessions),
                stats: TenantStats::default(),
                next_seq: 0,
            };
            self.tenants.insert(name.to_string(), fresh);
        }
        self.tenants.get_mut(name).expect("inserted above")
    }

    /// Opens a session for `tenant` at tick `now`.
    ///
    /// # Errors
    ///
    /// [`AdmissionError::BrownedOut`] when the fleet refuses new sessions,
    /// [`AdmissionError::FleetSaturated`] / [`AdmissionError::TenantSaturated`]
    /// when a bulkhead is full.
    pub fn open_session(&mut self, tenant: &str, now: u64) -> Result<(), AdmissionError> {
        if !self.breaker.level().admits_sessions() {
            self.reject(tenant, now, AdmissionError::BrownedOut)?;
        }
        if self.sessions.in_flight() >= self.sessions.limit() {
            let limit = self.sessions.limit();
            self.reject(tenant, now, AdmissionError::FleetSaturated { limit })?;
        }
        let limit = self.cfg.tenant_sessions;
        let t = self.tenant(tenant);
        if !t.sessions.try_acquire() {
            let e = AdmissionError::TenantSaturated { tenant: tenant.to_string(), limit };
            self.reject(tenant, now, e)?;
        }
        let peak = {
            let t = self.tenant(tenant);
            t.stats.peak_sessions = t.stats.peak_sessions.max(t.sessions.in_flight());
            t.sessions.in_flight()
        };
        debug_assert!(peak <= limit);
        assert!(self.sessions.try_acquire(), "checked above; bulkhead cannot refuse");
        Ok(())
    }

    /// Closes one of `tenant`'s sessions.
    pub fn close_session(&mut self, tenant: &str) {
        self.sessions.release();
        self.tenant(tenant).sessions.release();
    }

    /// Records a refusal against `tenant` and returns it as an `Err`. (The
    /// `Result` return is a convenience so call sites can `?` it.)
    fn reject(
        &mut self,
        tenant: &str,
        now: u64,
        error: AdmissionError,
    ) -> Result<(), AdmissionError> {
        self.log.push(ServiceEvent::AdmissionRejected {
            tick: now,
            tenant: tenant.to_string(),
            reason: error.tag().to_string(),
        });
        Err(error)
    }

    /// Offers one chunk of `cost` bytes on behalf of `tenant` at tick
    /// `now`. On success the chunk is queued and its bytes are charged.
    ///
    /// # Errors
    ///
    /// [`AdmissionError::BrownedOut`], [`AdmissionError::RateLimited`] or
    /// [`AdmissionError::MemoryExhausted`] — each refusal increments the
    /// tenant's and the fleet's `rejected` counters.
    pub fn offer(&mut self, tenant: &str, cost: u64, now: u64) -> Result<(), AdmissionError> {
        let seq = {
            let t = self.tenant(tenant);
            let seq = t.next_seq;
            t.next_seq += 1;
            seq
        };
        self.offer_tagged(tenant, cost, now, seq)
    }

    /// [`offer`](Self::offer) with a caller-assigned per-tenant sequence
    /// number. A fleet coordinator uses this to keep a tenant's chunk
    /// numbering global across shards: the coordinator assigns `seq` once
    /// per chunk, and the tag survives migration, so the tenant's served
    /// order is independent of how many shards the fleet runs.
    ///
    /// # Errors
    ///
    /// Same as [`offer`](Self::offer).
    pub fn offer_tagged(
        &mut self,
        tenant: &str,
        cost: u64,
        now: u64,
        seq: u64,
    ) -> Result<(), AdmissionError> {
        self.offered += 1;
        self.tenant(tenant).stats.offered += 1;
        let outcome = self.try_admit(tenant, cost, now, seq);
        if let Err(e) = &outcome {
            self.rejected += 1;
            self.tenant(tenant).stats.rejected += 1;
            let e = e.clone();
            let _ = self.reject(tenant, now, e);
        }
        outcome
    }

    fn try_admit(
        &mut self,
        tenant: &str,
        cost: u64,
        now: u64,
        seq: u64,
    ) -> Result<(), AdmissionError> {
        if self.breaker.level() == FleetState::BrownOut {
            return Err(AdmissionError::BrownedOut);
        }
        if !self.tenant(tenant).bucket.try_take(now) {
            return Err(AdmissionError::RateLimited { tenant: tenant.to_string() });
        }
        if !self.memory.try_charge(cost, self.cfg.mem_budget) {
            return Err(AdmissionError::MemoryExhausted {
                requested: cost,
                charged: self.memory.charged(),
                budget: self.cfg.mem_budget,
            });
        }
        // Write-ahead: journal the admission *before* the enqueue, so a
        // crash between the two replays a chunk that never entered the
        // queue — harmless at-least-once, never silent loss.
        if self.journal_chunks {
            if let Some(sink) = &self.durable {
                sink.record_admit(&ChunkAdmit {
                    tick: now,
                    tenant: tenant.to_string(),
                    seq,
                    cost,
                });
            }
        }
        self.queue.push_back(QueuedChunk { tenant: tenant.to_string(), cost, enqueued: now, seq });
        Ok(())
    }

    /// Empties the ingest queue for shard evacuation, releasing every
    /// chunk's bytes and counting each as `migrated` (fleet-wide and per
    /// tenant). The returned chunks keep their `seq` tags; the caller
    /// re-offers them through another shard's front door, where they are
    /// counted as that shard's `offered` — so the per-shard conservation
    /// identity `offered == served + rejected + shed + queued + migrated`
    /// rolls up exactly across the fleet.
    pub fn evacuate(&mut self) -> Vec<QueuedChunk> {
        let mut out = Vec::with_capacity(self.queue.len());
        while let Some(chunk) = self.queue.pop_front() {
            self.memory.release(chunk.cost);
            self.migrated += 1;
            self.tenant(&chunk.tenant).stats.migrated += 1;
            out.push(chunk);
        }
        out
    }

    /// Dequeues up to `capacity` chunks for service at tick `now`,
    /// applying CoDel: a shed chunk does not consume capacity (shedding is
    /// how the queue catches up). Released bytes are returned to the
    /// budget either way.
    pub fn drain(&mut self, now: u64, capacity: usize) -> Vec<QueuedChunk> {
        let mut out = Vec::new();
        while out.len() < capacity {
            let Some(chunk) = self.queue.pop_front() else { break };
            self.memory.release(chunk.cost);
            let sojourn = now.saturating_sub(chunk.enqueued);
            match self.codel.on_dequeue(sojourn, now) {
                CodelVerdict::Serve => {
                    self.served += 1;
                    self.tenant(&chunk.tenant).stats.served += 1;
                    if self.journal_chunks {
                        if let Some(sink) = &self.durable {
                            sink.record_serve(&ChunkServe {
                                tick: now,
                                tenant: chunk.tenant.clone(),
                                seq: chunk.seq,
                            });
                        }
                    }
                    out.push(chunk);
                }
                CodelVerdict::Shed => {
                    self.shed += 1;
                    self.tenant(&chunk.tenant).stats.shed += 1;
                    if let Some(sink) = &self.durable {
                        sink.record_shed(now, &chunk.tenant, sojourn, chunk.seq);
                    }
                    self.log.push(ServiceEvent::LoadShed {
                        tick: now,
                        tenant: chunk.tenant,
                        sojourn,
                    });
                }
            }
        }
        out
    }

    /// Feeds the breaker one overload observation (standing queue latency
    /// or a memory budget under pressure) and, on a transition, moves the
    /// shared [`LevelCap`] so every session cheapens (or recovers) at once.
    pub fn observe(&mut self, now: u64) {
        let head_sojourn = self
            .queue
            .front()
            .map_or(0, |c| now.saturating_sub(c.enqueued));
        let mem_strained = self.memory.charged() > self.cfg.mem_budget / 2;
        let overloaded = head_sojourn > self.cfg.codel.target || mem_strained;
        let step = self.breaker.observe(overloaded, FleetState::Healthy);
        if let Some(Transition { from, to }) = step {
            self.cap.set(to.level_cap());
            if let Some(sink) = &self.durable {
                sink.record_fleet_transition(now, from, to);
            }
            self.log.push(ServiceEvent::FleetTransition { tick: now, from, to });
        }
    }

    /// Chunks currently queued.
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// Fleet-wide counters. `offered == served + rejected + shed +
    /// queued + migrated` holds at every tick by construction.
    pub fn stats(&self) -> AdmissionStats {
        AdmissionStats {
            offered: self.offered,
            served: self.served,
            rejected: self.rejected,
            shed: self.shed,
            migrated: self.migrated,
            queued: self.queue.len() as u64,
            mem_peak: self.memory.peak(),
            mem_charged: self.memory.charged(),
            peak_sessions: self.sessions.peak(),
        }
    }

    /// Per-tenant counters, in tenant-name order (deterministic).
    pub fn tenant_stats(&self) -> Vec<(String, TenantStats)> {
        self.tenants.iter().map(|(k, v)| (k.clone(), v.stats)).collect()
    }

    /// The event log (rejections, sheds, fleet transitions).
    pub fn log(&self) -> &ServiceLog {
        &self.log
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> AdmissionConfig {
        AdmissionConfig {
            max_sessions: 3,
            tenant_sessions: 2,
            mem_budget: 1000,
            tenant_rps: 1000,
            tenant_burst: 1000,
            ..AdmissionConfig::default()
        }
    }

    fn conserve(c: &AdmissionController) {
        let s = c.stats();
        assert_eq!(
            s.offered,
            s.served + s.rejected + s.shed + s.queued + s.migrated,
            "conservation violated: {s:?}"
        );
    }

    #[test]
    fn bulkheads_guard_sessions_per_tenant_and_globally() {
        let mut c = AdmissionController::new(small());
        assert!(c.open_session("a", 0).is_ok());
        assert!(c.open_session("a", 0).is_ok());
        let err = c.open_session("a", 0).unwrap_err();
        assert!(matches!(err, AdmissionError::TenantSaturated { ref tenant, limit: 2 }
            if tenant == "a"), "{err:?}");
        assert!(c.open_session("b", 0).is_ok());
        let err = c.open_session("c", 0).unwrap_err();
        assert!(matches!(err, AdmissionError::FleetSaturated { limit: 3 }), "{err:?}");
        // Closing a session frees both bulkheads.
        c.close_session("a");
        assert!(c.open_session("c", 0).is_ok());
        assert_eq!(c.log().rejections(), 2);
    }

    #[test]
    fn rate_limit_and_memory_budget_guard_offers() {
        let mut c = AdmissionController::new(AdmissionConfig {
            tenant_rps: 1,
            tenant_burst: 2,
            ..small()
        });
        assert!(c.offer("a", 100, 0).is_ok());
        assert!(c.offer("a", 100, 0).is_ok());
        let err = c.offer("a", 100, 0).unwrap_err();
        assert!(matches!(err, AdmissionError::RateLimited { .. }), "{err:?}");
        // Tenant "b" has its own bucket but shares the byte budget.
        assert!(c.offer("b", 700, 0).is_ok());
        let err = c.offer("b", 200, 1000).unwrap_err();
        assert!(
            matches!(err, AdmissionError::MemoryExhausted { requested: 200, budget: 1000, .. }),
            "{err:?}"
        );
        conserve(&c);
        // Serving a chunk returns its bytes.
        let served = c.drain(1000, 1);
        assert_eq!(served.len(), 1);
        assert!(c.offer("b", 200, 1000).is_ok());
        conserve(&c);
    }

    #[test]
    fn standing_latency_sheds_and_trips_the_fleet() {
        let mut c = AdmissionController::new(AdmissionConfig {
            mem_budget: u64::MAX / 2,
            ..small()
        });
        // Load far beyond drain capacity: 20 offers/tick, 1 served/tick.
        let mut now = 0;
        for _ in 0..600 {
            for k in 0..20 {
                let _ = c.offer(if k % 2 == 0 { "a" } else { "b" }, 64, now);
            }
            c.drain(now, 1);
            c.observe(now);
            now += 1;
        }
        let s = c.stats();
        assert!(s.shed > 0, "standing latency must shed: {s:?}");
        assert!(c.log().sheds() > 0);
        assert!(
            c.fleet_state() > FleetState::Healthy,
            "sustained overload must trip the breaker: {:?}",
            c.fleet_state()
        );
        assert!(!c.log().fleet_transitions().is_empty());
        conserve(&c);
        // Drain everything: conservation with queued == 0.
        while c.queue_depth() > 0 {
            now += 1;
            c.drain(now, usize::MAX);
        }
        conserve(&c);
        let s = c.stats();
        assert_eq!(s.offered, s.served + s.rejected + s.shed);
    }

    #[test]
    fn brown_out_closes_the_front_door_and_recovery_reopens_it() {
        let mut c = AdmissionController::new(small());
        // Force the breaker all the way down with a standing queue.
        assert!(c.offer("a", 10, 0).is_ok());
        for now in 0..100 {
            c.observe(now); // head sojourn grows without bound
        }
        assert_eq!(c.fleet_state(), FleetState::BrownOut);
        let err = c.offer("a", 10, 100).unwrap_err();
        assert!(matches!(err, AdmissionError::BrownedOut), "{err:?}");
        let err = c.open_session("a", 100).unwrap_err();
        assert!(matches!(err, AdmissionError::BrownedOut), "{err:?}");
        // Brown-out forces every session to shed.
        assert_eq!(
            c.level_cap().get(),
            emoleak_core::online::InferenceLevel::Shed
        );
        conserve(&c);
        // Drain the queue; calm observations climb the breaker back up.
        c.drain(100, usize::MAX);
        for now in 100..600 {
            c.observe(now);
        }
        assert_eq!(c.fleet_state(), FleetState::Healthy);
        assert_eq!(
            c.level_cap().get(),
            emoleak_core::online::InferenceLevel::Cnn,
            "recovery lifts the cap"
        );
        assert!(c.offer("a", 10, 600).is_ok());
        conserve(&c);
    }

    #[test]
    fn evacuation_releases_bytes_counts_migrated_and_keeps_seq_tags() {
        let mut c = AdmissionController::new(small());
        assert!(c.offer("a", 100, 0).is_ok());
        assert!(c.offer("b", 200, 0).is_ok());
        assert!(c.offer("a", 100, 1).is_ok());
        assert_eq!(c.stats().mem_charged, 400);

        let moved = c.evacuate();
        assert_eq!(moved.len(), 3);
        // Auto-assigned seqs count per tenant, and survive evacuation.
        let tags: Vec<(&str, u64)> =
            moved.iter().map(|q| (q.tenant.as_str(), q.seq)).collect();
        assert_eq!(tags, vec![("a", 0), ("b", 0), ("a", 1)]);
        let s = c.stats();
        assert_eq!(s.migrated, 3);
        assert_eq!(s.mem_charged, 0, "evacuated bytes are released");
        assert_eq!(c.queue_depth(), 0);
        conserve(&c);

        // Re-offering through another controller's front door preserves
        // the tag and makes the two-shard roll-up conserve.
        let mut other = AdmissionController::new(small());
        for q in &moved {
            assert!(other.offer_tagged(&q.tenant, q.cost, 2, q.seq).is_ok());
        }
        let served = other.drain(2, usize::MAX);
        assert_eq!(
            served.iter().map(|q| (q.tenant.as_str(), q.seq)).collect::<Vec<_>>(),
            tags
        );
        let (a, b) = (c.stats(), other.stats());
        assert_eq!(
            a.offered + b.offered,
            a.served + b.served + a.rejected + b.rejected + a.shed + b.shed
                + a.queued + b.queued + a.migrated + b.migrated
        );
    }

    #[test]
    fn tenant_isolation_one_flood_does_not_starve_the_other() {
        let mut c = AdmissionController::new(AdmissionConfig {
            tenant_rps: 5,
            tenant_burst: 5,
            mem_budget: u64::MAX / 2,
            ..small()
        });
        for now in 0..1000 {
            // "flood" offers 10/tick; "polite" offers 1 every 250 ticks
            // (4/s, under its 5/s limit).
            for _ in 0..10 {
                let _ = c.offer("flood", 8, now);
            }
            if now % 250 == 0 {
                let _ = c.offer("polite", 8, now);
            }
            c.drain(now, 50);
            c.observe(now);
        }
        let stats: BTreeMap<_, _> = c.tenant_stats().into_iter().collect();
        let polite = stats["polite"];
        let flood = stats["flood"];
        assert_eq!(
            polite.rejected, 0,
            "a tenant under its own rate limit is never refused: {polite:?}"
        );
        assert!(flood.rejected > 0, "the flood is throttled: {flood:?}");
        conserve(&c);
    }
}
