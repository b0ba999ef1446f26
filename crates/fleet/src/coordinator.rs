//! The fleet coordinator: routing, health aggregation, failover, and the
//! fleet-wide conservation ledger.
//!
//! The coordinator owns the [`HashRing`] and every [`Shard`]. It assigns
//! each tenant a global chunk sequence (so served order is independent of
//! shard count), routes offers to the tenant's home shard, advances all
//! shards one tick, and watches per-shard health. A tick hands only the
//! shards with queued chunks to [`emoleak_exec::par_map_vec_indexed`]
//! (each shard owned by exactly one worker, on the process's parked
//! workers) and steps the idle ones in place; a tick with at most one
//! busy shard, the common case, wakes no worker. Ticks come back in
//! shard-id order either way, so the byte stream is deterministic.
//!
//! # One path: the message plane
//!
//! Every exchange between the coordinator and a shard is a frame on the
//! simulated message plane ([`SimNet`]): offers are admitted when they
//! are delivered, lease grants ride those offers (a [`Msg::Probe`] goes
//! only to a shard nothing renewed for `lease_ticks / 2` ticks), health
//! reaches the coordinator as [`Msg::Health`] only when a shard's breaker
//! state or durability level changed, and a graceful failover is a
//! [`Msg::Drain`] answered by [`Msg::Evacuated`]. Any frame delivered
//! from a shard, acks included, counts as hearing from it; the
//! coordinator grants leases only while it heard from the shard within
//! `lease_ticks`, so a partitioned shard's lease runs out, the shard
//! self-fences, and only then — at `now > granted_until + 1` — is it
//! failed over. On the default plane
//! ([`NetProfile::ideal`](crate::NetProfile::ideal)) an offer lands the
//! tick it is made.
//!
//! # Failover and the conservation algebra
//!
//! The PR-5 identity `offered == served + rejected + shed + queued`
//! gains a `migrated` term and becomes *per shard*:
//!
//! ```text
//! offered_s == served_s + rejected_s + shed_s + queued_s + migrated_s
//! ```
//!
//! A migrated chunk is **re-offered through the target shard's normal
//! front door**, so it counts once in the source shard's `migrated` and
//! once in the target's `offered` — the fleet-wide roll-up (retired
//! shards' final ledgers plus live shards' counters) then satisfies the
//! identity by construction, with no special cases. Fleet-wide, an offer
//! on the message plane counts in `offered` once sent and in
//! [`FleetStats::in_flight`] until a shard applies it, so a drained fleet
//! is [`FleetStats::settled`]: nothing queued, nothing in flight.
//!
//! Two failover paths:
//!
//! - **graceful** (sustained BrownOut): the shard's vnodes leave the ring
//!   (only *its* tenants move) and it is sent a drain; it fences on
//!   receipt — queue evacuated with seq tags intact, final ledger
//!   journaled — and its evacuation, once delivered, books the retired
//!   counters and re-offers the evacuees along each tenant's new route.
//! - **crash** (panic budget exhausted, a hard kill, or an expired
//!   lease): in-memory state is gone. The shard journaled an admit
//!   record before every enqueue and a serve/shed record after every
//!   dequeue, and shipped each committed record synchronously to a
//!   deterministic follower ([`HashRing::successor_shard`]). The
//!   coordinator replays the first *clean* surviving segment — primary
//!   (process death, disk intact) or replica (disk loss) — reconstructs
//!   the exact queue at death (`admits − serves − sheds`), and re-offers
//!   it along each tenant's new route: `crash_loss == 0`, with the
//!   replayed chunks surfaced as [`FleetStats::recovered`] (they count as
//!   `migrated` in the identity, like a graceful evacuation). Only when
//!   *every* copy is damaged (a double failure: primary disk lost *and*
//!   replica corrupted) does the coordinator fall back to bounded-loss
//!   reconciliation — last ledger snapshot plus exact journaled sheds,
//!   bounded by the routed count — and book the honest residual as
//!   `crash_loss` (counted as shed), keeping the identity exact instead
//!   of silently leaking chunks.
//!
//! # Anti-entropy scrubbing
//!
//! Replicas are only worth what they can replay. Every
//! [`FleetConfig::scrub_every`] ticks, the coordinator CRC-verifies one
//! live shard's replica against its primary (round-robin over the
//! fleet), classifies any difference ([`Defect::ReplicaLag`] /
//! [`Defect::ReplicaDiverged`]), and read-repairs it by deterministic
//! rebuild ([`Defect::ScrubRepaired`]). A damaged primary is reported
//! with its own defect and never used to repair the replica. Findings
//! accumulate on the [`FleetView`]. Scrubbing runs on ticks, not wall
//! clock, so fleet output stays byte-identical across thread counts.

use crate::config::{DiskConfig, FleetConfig};
use crate::ring::HashRing;
use crate::shard::{
    shard_journal_path, shard_replica_path, Shard, ShardHealth, ShardState, ShardTick,
};
use crate::transport::{Delivery, Msg, NetStats, NodeId, SimNet};
use emoleak_admission::{AdmissionStats, QueuedChunk};
use emoleak_core::admission::{AdmissionError, DurabilityLevel, FleetState};
use emoleak_core::Rung;
use emoleak_durable::{Dec, Defect, DurableError, Enc, Journal};
use emoleak_exec::{derive_seed, par_map_vec_indexed};
use emoleak_stream::durable::{recover_run, ChunkAdmit, LedgerRecord, RecoveredRun};
use emoleak_stream::log::{ServiceEvent, ServiceLog};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Bound;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Coordinator-journal record kind: one checkpoint.
pub const REC_CHECKPOINT: u8 = 1;

/// Receiver-side dedup window of every plane link, in sequence numbers.
const DEDUP_WINDOW: usize = 1024;

/// Fleet-wide counters: live shards plus the retired ledger.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FleetStats {
    /// Chunks offered across all shards (migrated chunks count again at
    /// their target — see the module docs).
    pub offered: u64,
    /// Chunks served to backends.
    pub served: u64,
    /// Chunks refused at a front door.
    pub rejected: u64,
    /// Chunks shed (CoDel sheds plus crash losses).
    pub shed: u64,
    /// Chunks still queued on live shards.
    pub queued: u64,
    /// Chunks evacuated out of a shard.
    pub migrated: u64,
    /// The subset of `shed` that a crashed shard's journal could not
    /// account for (in-memory queue lost to the crash).
    pub crash_loss: u64,
    /// The subset of `migrated` that was *replayed* out of a crashed
    /// shard's surviving journal (primary or replica) and re-offered —
    /// work that replication rescued from the crash. Not a new identity
    /// term: recovered chunks count as `migrated` at the dead shard and
    /// `offered` at their new home, exactly like a graceful evacuation.
    pub recovered: u64,
    /// Offers on the message plane that no shard has applied yet, fresh
    /// and re-offered alike: already in `offered`, not yet anywhere else.
    pub in_flight: u64,
}

impl FleetStats {
    /// The fleet conservation identity.
    pub fn conserves(&self) -> bool {
        let booked = self.served + self.rejected + self.shed + self.queued + self.migrated;
        self.offered == booked + self.in_flight
    }

    /// Whether every offer has reached its final ledger: nothing queued
    /// on a live shard, nothing in flight on the plane.
    pub fn settled(&self) -> bool {
        self.queued == 0 && self.in_flight == 0
    }
}

/// Why a shard was failed over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailoverKind {
    /// Sustained BrownOut: fenced and evacuated.
    Graceful,
    /// Crash: reconciled from the journal segment.
    Crash,
}

/// One failover the coordinator performed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailoverEvent {
    /// The tick it happened at.
    pub tick: u64,
    /// The shard that left the ring.
    pub shard: u32,
    /// Graceful or crash.
    pub kind: FailoverKind,
    /// Chunks moved off the shard and re-offered: a graceful evacuation,
    /// or a crash replay out of a surviving journal.
    pub moved_chunks: u64,
    /// Chunks booked as crash loss (crash only; zero when a clean journal
    /// copy survived).
    pub crash_loss: u64,
    /// Chunks replayed from a surviving journal copy (crash only).
    pub recovered: u64,
}

/// The aggregated health picture one `view()` call returns.
#[derive(Debug, Clone)]
pub struct FleetView {
    /// Per-shard health samples, shard-id order.
    pub shards: Vec<ShardHealth>,
    /// Shards still in the ring.
    pub live: usize,
    /// The worst live shard's breaker state ([`FleetState::Healthy`] when
    /// nothing is live — an empty fleet has nothing to brown out).
    pub worst: FleetState,
    /// Total chunks queued across live shards.
    pub queue_depth_total: usize,
    /// Total contained panics across all shards.
    pub restart_burn: u32,
    /// Live shards whose replica is currently latched (a ship failed and
    /// no scrub has repaired it yet).
    pub replicas_latched: usize,
    /// Every defect the anti-entropy scrubber has found so far, in
    /// detection order: replica lag or divergence with its repair, or a
    /// damaged primary's own defect (reported, not repaired).
    pub scrub_events: Vec<Defect>,
    /// Every internal invariant violation the coordinator detected and
    /// survived, in detection order. Empty in a correct build.
    pub internal_errors: Vec<FleetInternalError>,
    /// The worst storage durability level among live shards' disk gauges
    /// ([`DurabilityLevel::Durable`] when nothing is live). Each gauge
    /// reports its last verdict, and one on a dead disk climbs back to
    /// `Durable` between failed probes; `unjournaled_total` is the
    /// reliable health signal.
    pub durability_worst: DurabilityLevel,
    /// Shard-ticks spent at each durability level (indexed like
    /// [`DurabilityLevel::ALL`], best rung first), accumulated over every
    /// `advance` for live shards. The fleet's storage-health budget:
    /// `[all, 0, 0, 0]` on a healthy disk.
    pub durability_level_ticks: [u64; 4],
    /// Records committed in memory but journaled nowhere across all
    /// shards — the honest would-be-lost-on-crash exposure right now.
    pub unjournaled_total: u64,
}

/// A violated internal invariant the coordinator detected — and survived —
/// at runtime. These are coordinator *bugs made visible*: instead of a
/// `debug_assert` that vanishes in release builds (or an abort that takes
/// the fleet down), the violation is booked honestly (conservation stays
/// exact) and reported here for harnesses and operators to flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetInternalError {
    /// A fence returned a non-empty queue snapshot: `Shard::fence` is
    /// specified to evacuate before snapshotting, so the final counters
    /// should always show `queued == 0`. The residual was booked as shed
    /// (and counted into `crash_loss`) so the identity still holds.
    FenceLeftQueue {
        /// The fenced shard.
        shard: u32,
        /// Chunks the final snapshot still showed queued.
        queued: u64,
    },
}

impl core::fmt::Display for FleetInternalError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FleetInternalError::FenceLeftQueue { shard, queued } => write!(
                f,
                "invariant violated: fencing shard {shard} left {queued} chunk(s) queued \
                 (booked as shed)"
            ),
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct RetiredTotals {
    offered: u64,
    served: u64,
    rejected: u64,
    shed: u64,
    migrated: u64,
}

/// One live shard as the coordinator knows it: its serving lease and the
/// newest health sample the plane delivered.
#[derive(Debug, Clone, Copy)]
struct Link {
    /// The furthest `lease_until` the coordinator has granted. The shard
    /// may serve through this tick, so failover before `now >
    /// granted_until` could split-brain; the coordinator never does.
    granted_until: u64,
    /// The tick the link came up: it counts as hearing from the shard,
    /// so a recovered coordinator resuming mid-clock does not find every
    /// lease stale on its first tick.
    since: u64,
    /// The tick a probe goes out unless a fresh grant renews the lease
    /// first.
    renew_at: u64,
    /// The newest [`Msg::Health`] sample, with its link seq; `None`
    /// until the shard reports a change from Healthy and Durable.
    health: Option<(u64, ShardHealth)>,
}

impl Link {
    /// The grant a frame sent to the shard at `now` carries. While the
    /// coordinator heard from the shard within `lease_ticks` it extends
    /// the lease to `now + lease_ticks` and reschedules the renewal
    /// `half` ticks out. Once it went quiet, the frame re-states the
    /// frozen grant instead (`grant_lease` is monotonic, so that never
    /// extends anything): the lease runs down and both sides converge on
    /// a fence and a failover with no overlap.
    fn grant(&mut self, heard: Option<u64>, now: u64, lease_ticks: u64, half: u64) -> u64 {
        let heard = heard.map_or(self.since, |t| t.max(self.since));
        if now.saturating_sub(heard) > lease_ticks {
            return self.granted_until;
        }
        self.granted_until = self.granted_until.max(now + lease_ticks);
        self.renew_at = now + half;
        now + lease_ticks
    }
}

/// The fleet coordinator. See the module docs for the failover model.
pub struct FleetCoordinator {
    cfg: FleetConfig,
    dir: PathBuf,
    ring: HashRing,
    shards: Vec<Shard>,
    routed: BTreeMap<u32, u64>,
    /// Each tenant's next chunk seq, keyed by the name every offer of the
    /// tenant shares.
    tenant_seq: BTreeMap<Arc<str>, u64>,
    retired: RetiredTotals,
    crash_loss: u64,
    recovered: u64,
    brownout_streak: BTreeMap<u32, u32>,
    checkpoint: Journal,
    ckpt_seq: u64,
    failovers: Vec<FailoverEvent>,
    scrub_events: Vec<Defect>,
    internal_errors: Vec<FleetInternalError>,
    /// The message plane every coordinator↔shard exchange rides.
    net: SimNet<Msg>,
    /// The frames one pump delivers; kept between ticks for its buffer.
    inbox: Vec<Delivery<Msg>>,
    /// Per shard not yet failed over (live, or draining): lease and
    /// delivered health. A shard's link goes when its failover is booked.
    links: BTreeMap<u32, Link>,
    /// Per-shard fencing-token authority: the minimum token the shard's
    /// journal currently accepts. Shared (`Arc`) with the shard's sink so
    /// a resurrected stale incarnation checks the *live* value.
    fence_authorities: BTreeMap<u32, Arc<AtomicU64>>,
    /// The coordinator's own event log: durability transitions drained
    /// from shard gauges, re-stamped onto the tick clock.
    log: ServiceLog,
    /// Shard-ticks spent at each durability level (see
    /// [`FleetView::durability_level_ticks`]).
    durability_level_ticks: [u64; 4],
}

/// The coordinator's own checkpoint journal path under `dir`.
pub fn coordinator_journal_path(dir: &Path) -> PathBuf {
    dir.join("coordinator.log")
}

impl FleetCoordinator {
    /// A fresh fleet under `dir`: shards `0..cfg.shards`, each with its
    /// own journal segment, plus the coordinator's checkpoint journal.
    ///
    /// # Errors
    ///
    /// [`DurableError`] when `dir` or a journal cannot be created.
    pub fn new(cfg: FleetConfig, dir: &Path) -> Result<FleetCoordinator, DurableError> {
        std::fs::create_dir_all(dir)
            .map_err(|e| DurableError::io(dir, "create fleet dir", &e))?;
        // The ring first: replication pairs (primary → follower) are read
        // off it before any shard exists.
        let ring = HashRing::new(cfg.seed, cfg.shards, cfg.vnodes);
        let checkpoint = Journal::create(&coordinator_journal_path(dir))?;
        let mut coord = FleetCoordinator::bare(cfg, dir, ring, checkpoint);
        for id in 0..coord.cfg.shards {
            coord.spawn_shard(id, 0)?;
        }
        Ok(coord)
    }

    /// A coordinator with no shards yet: a fresh plane, empty books.
    fn bare(cfg: FleetConfig, dir: &Path, ring: HashRing, checkpoint: Journal) -> Self {
        let seed = derive_seed(cfg.seed, 0x005E_70FF_A111);
        FleetCoordinator {
            net: SimNet::new(cfg.net.profile.profile(), seed, DEDUP_WINDOW, 2),
            inbox: Vec::new(),
            ring,
            routed: BTreeMap::new(),
            cfg,
            dir: dir.to_path_buf(),
            shards: Vec::new(),
            tenant_seq: BTreeMap::new(),
            retired: RetiredTotals::default(),
            crash_loss: 0,
            recovered: 0,
            brownout_streak: BTreeMap::new(),
            checkpoint,
            ckpt_seq: 0,
            failovers: Vec::new(),
            scrub_events: Vec::new(),
            internal_errors: Vec::new(),
            links: BTreeMap::new(),
            fence_authorities: BTreeMap::new(),
            log: ServiceLog::new(),
            durability_level_ticks: [0; 4],
        }
    }

    /// The fencing token every first shard incarnation holds. Authorities
    /// start below it (0 = accept anything), and a failover raises the
    /// shard's authority past it, fencing the incarnation out.
    const FIRST_INCARNATION_TOKEN: u64 = 1;

    /// Lease ticks between renewals of a lease nothing else renewed:
    /// half the lease, so a renewal always lands with time to spare.
    fn renew_every(&self) -> u64 {
        (self.cfg.net.lease_ticks / 2).max(1)
    }

    /// Brings up shard `id` on the ring's current follower: a fresh
    /// journal segment under a fencing token, a lease through `start +
    /// lease_ticks`, and a link at the coordinator. `start` is tick 0 for
    /// a fresh fleet and the checkpoint tick for a recovered one — a
    /// recovered coordinator resumes mid-clock, and leases dated from 0
    /// would all look expired on the first advance, failing over the
    /// entire (healthy) fleet. First renewals are staggered by shard id.
    fn spawn_shard(&mut self, id: u32, start: u64) -> Result<(), DurableError> {
        let cfg = &self.cfg;
        let follower = self.ring.successor_shard(id);
        let lease_until = start + cfg.net.lease_ticks;
        let shard = Shard::new(
            id,
            &self.dir,
            cfg.admission.clone(),
            cfg.restart_budget,
            cfg.ledger_every,
            follower,
            DiskConfig { plan: cfg.disk.shard_plan(cfg.seed, id), gauge: cfg.disk.gauge },
            lease_until,
        )?;
        let authority = Arc::new(AtomicU64::new(0));
        shard.arm_fence(Self::FIRST_INCARNATION_TOKEN, authority.clone());
        self.fence_authorities.insert(id, authority);
        let renew_at = start + 1 + u64::from(id) % self.renew_every();
        self.links
            .insert(id, Link { granted_until: lease_until, since: start, renew_at, health: None });
        self.routed.insert(id, 0);
        self.shards.push(shard);
        Ok(())
    }

    /// The live routing ring.
    pub fn ring(&self) -> &HashRing {
        &self.ring
    }

    /// The fleet's tuning.
    pub fn config(&self) -> &FleetConfig {
        &self.cfg
    }

    /// Every failover performed so far, in order.
    pub fn failovers(&self) -> &[FailoverEvent] {
        &self.failovers
    }

    fn shard_mut(&mut self, id: u32) -> &mut Shard {
        self.shards
            .iter_mut()
            .find(|s| s.id() == id)
            .expect("ring routed to a shard the coordinator does not own")
    }

    /// Offers one chunk for `tenant`: assigns the tenant's next global
    /// seq and sends the chunk to its home shard as a [`Msg::Offer`]. The
    /// seq advances even on a refusal, so numbering is a pure function of
    /// the offer stream — not of per-shard admission outcomes.
    ///
    /// The shard admits the offer when it is delivered (the same tick on
    /// the ideal plane), so admission refusals happen at its front door
    /// and are counted there; the offer itself is `Ok`, and counts in
    /// [`FleetStats::in_flight`] until it lands.
    ///
    /// # Errors
    ///
    /// [`AdmissionError::BrownedOut`] when no shard is left to route to
    /// (every shard retired): the chunk is booked as offered and rejected
    /// in the retired ledger.
    pub fn offer(&mut self, tenant: &str, cost: u64, now: u64) -> Result<(), AdmissionError> {
        let (tenant, seq) = self.next_seq(tenant);
        if self.ring.is_empty() {
            self.retired.offered += 1;
            self.retired.rejected += 1;
            return Err(AdmissionError::BrownedOut);
        }
        let id = self.ring.route(&tenant);
        self.send_offer(id, tenant, seq, cost, now);
        Ok(())
    }

    /// `tenant`'s shared name and its next chunk seq, advanced by one.
    /// The name is allocated only on the tenant's first offer.
    fn next_seq(&mut self, tenant: &str) -> (Arc<str>, u64) {
        let key = (Bound::Included(tenant), Bound::Included(tenant));
        if let Some((name, next)) = self.tenant_seq.range_mut::<str, _>(key).next() {
            *next += 1;
            return (Arc::clone(name), *next - 1);
        }
        let name: Arc<str> = Arc::from(tenant);
        self.tenant_seq.insert(Arc::clone(&name), 1);
        (name, 0)
    }

    /// Sends one tagged chunk to shard `id`, carrying the shard's lease
    /// grant (see [`Link::grant`]; 0, which extends nothing, for a shard
    /// with no link).
    fn send_offer(&mut self, id: u32, tenant: Arc<str>, chunk_seq: u64, cost: u64, now: u64) {
        let heard = self.net.last_heard(NodeId::Shard(id), NodeId::Coordinator);
        let (lease_ticks, half) = (self.cfg.net.lease_ticks, self.renew_every());
        let lease_until =
            self.links.get_mut(&id).map_or(0, |link| link.grant(heard, now, lease_ticks, half));
        let msg = Msg::Offer { tenant, chunk_seq, cost, lease_until };
        self.net.send(NodeId::Coordinator, NodeId::Shard(id), msg, now);
    }

    /// Advances every live shard one tick: fails over any shard whose
    /// lease provably expired (its replayed queue and undelivered offers
    /// go out ahead of the pump), delivers this tick's frames, then
    /// drains up to `capacity` chunks per shard, observes, and ledgers on
    /// cadence.
    /// Shards with queued chunks run in parallel on the pool's workers;
    /// idle ones step on the caller's thread. `panics` names the shard
    /// ids whose drain worker the chaos harness kills this tick; those
    /// panics are contained inside their shard. Served chunks come back
    /// in shard-id-then-queue order — deterministic for any worker count.
    /// A shard whose restart budget dies this tick is crash-failed over
    /// before this returns, and leases nothing renewed lately are probed.
    pub fn advance(&mut self, now: u64, capacity: usize, panics: &[u32]) -> Vec<QueuedChunk> {
        self.lease_expiry_failover(now);
        self.net_deliver(now);
        let ticks = self.step_shards(now, capacity, panics);
        let mut served = Vec::new();
        let mut deaths = Vec::new();
        for (shard, mut tick) in self.shards.iter().zip(ticks) {
            served.append(&mut tick.served);
            if tick.died {
                deaths.push(shard.id());
            }
        }
        self.observe_shards(now);
        for id in deaths {
            self.crash_failover(id, now);
        }
        self.scrub_tick(now);
        self.renew_leases(now);
        served
    }

    /// Runs [`Shard::advance`] on every shard and returns the ticks in
    /// shard order. Only shards with queued chunks go to
    /// [`par_map_vec_indexed`]: a shard with an empty queue only observes
    /// and journals its ledger on cadence, which costs less than waking a
    /// worker, so it steps in place on the caller's thread. Most ticks
    /// leave at most one shard busy, and a one-item region runs inline,
    /// so those ticks wake no worker; ticks where several shards serve
    /// still overlap their journal fsyncs. Each shard owns all of its
    /// state, so where it runs cannot change what it computes.
    fn step_shards(&mut self, now: u64, capacity: usize, panics: &[u32]) -> Vec<ShardTick> {
        // Busy shards travel to the pool's long-lived workers, so the
        // closure captures only owned values: settle the injected panics
        // here. Removing back to front keeps the lower indices valid.
        let mut travelling = Vec::new();
        for i in (0..self.shards.len()).rev() {
            if self.shards[i].queued() > 0 {
                let shard = self.shards.remove(i);
                travelling.push((i, panics.contains(&shard.id()), shard));
            }
        }
        let fanned = par_map_vec_indexed(travelling, move |_, (i, inject, mut shard)| {
            let tick = shard.advance(now, capacity, inject);
            (i, shard, tick)
        });
        let mut ticks: Vec<ShardTick> = self
            .shards
            .iter_mut()
            .map(|shard| {
                let inject = panics.contains(&shard.id());
                shard.advance(now, capacity, inject)
            })
            .collect();
        // Inserting in ascending index order puts every busy shard back
        // where it was.
        for (i, shard, tick) in fanned.into_iter().rev() {
            self.shards.insert(i, shard);
            ticks.insert(i, tick);
        }
        ticks
    }

    /// Pumps the plane at `now` and applies every fresh delivery, in
    /// delivery order.
    fn net_deliver(&mut self, now: u64) {
        let mut inbox = std::mem::take(&mut self.inbox);
        self.net.pump(now, &mut inbox);
        for d in inbox.drain(..) {
            match d.dst {
                NodeId::Shard(id) => self.deliver_to_shard(id, d, now),
                NodeId::Coordinator => self.deliver_to_coordinator(d, now),
            }
        }
        self.inbox = inbox;
    }

    /// Applies one delivery addressed to shard `id` (the coordinator owns
    /// every shard object, so it runs the shard's receive logic in place):
    /// offers land at the front door, and offers and probes extend the
    /// lease; a drain fences the shard, which ships its queue back.
    fn deliver_to_shard(&mut self, id: u32, d: Delivery<Msg>, now: u64) {
        let Some(shard) =
            self.shards.iter_mut().find(|s| s.id() == id && s.state() == ShardState::Active)
        else {
            // Dead or fenced: refuse. The frame stays pending and the
            // failover path re-routes it (`take_pending_to`) —
            // at-least-once, never lost.
            self.net.refuse();
            return;
        };
        match d.payload {
            Msg::Offer { tenant, chunk_seq, cost, lease_until } => {
                if !self.ring.contains(id) {
                    // Draining: off the ring, so the offer is refused and
                    // re-routed when the failover is booked.
                    self.net.refuse();
                    return;
                }
                shard.grant_lease(lease_until);
                // A front-door refusal is counted in the shard's
                // `rejected`: delivery still succeeded. A storage refusal
                // fires before the shard's controller can count the
                // offer, so it is booked at the retired ledger instead,
                // and not against the shard's routed count, which must
                // keep matching what its journal can prove at
                // reconciliation.
                match shard.offer_tagged(&tenant, cost, now, chunk_seq) {
                    Err(AdmissionError::WritesRefused { .. }) => {
                        self.retired.offered += 1;
                        self.retired.rejected += 1;
                    }
                    _ => *self.routed.entry(id).or_insert(0) += 1,
                }
                self.net.accept(d.src, d.dst, d.seq, now);
            }
            Msg::Probe { lease_until } => {
                shard.grant_lease(lease_until);
                self.net.accept(d.src, d.dst, d.seq, now);
            }
            Msg::Drain => {
                let (chunks, stats) = shard.fence(now);
                self.net.accept(d.src, d.dst, d.seq, now);
                let msg = Msg::Evacuated { chunks, stats: Box::new(stats) };
                self.net.send(NodeId::Shard(id), NodeId::Coordinator, msg, now);
            }
            // Shards never receive health reports or evacuations; a
            // misrouted frame is refused (and eventually discarded by
            // failover cleanup).
            Msg::Health { .. } | Msg::Evacuated { .. } => self.net.refuse(),
        }
    }

    /// Applies one delivery addressed to the coordinator. Accepting it
    /// also counts as hearing from the sending shard.
    fn deliver_to_coordinator(&mut self, d: Delivery<Msg>, now: u64) {
        let NodeId::Shard(from) = d.src else {
            self.net.refuse();
            return;
        };
        match d.payload {
            Msg::Health { health } => {
                self.net.accept(d.src, d.dst, d.seq, now);
                if let Some(link) = self.links.get_mut(&from) {
                    // Keep the newest sample by link seq: a reordered
                    // older report never replaces a newer one.
                    if link.health.is_none_or(|(seq, _)| d.seq > seq) {
                        link.health = Some((d.seq, *health));
                    }
                }
            }
            Msg::Evacuated { chunks, stats } => {
                self.net.accept(d.src, d.dst, d.seq, now);
                // Gate on the shard's unbooked final snapshot: if a lease
                // expiry crash-failed this shard while the evacuation was
                // in flight, the journal already reconciled it and this
                // message is a stale duplicate of that accounting.
                if self.shard_mut(from).take_final_stats().is_none() {
                    return;
                }
                self.book_fenced_stats(from, &stats);
                self.bump_fence_authority(from);
                self.links.remove(&from);
                self.routed.remove(&from);
                let moved = chunks.len() as u64;
                let mut lost = 0;
                for chunk in chunks {
                    let tenant = Arc::from(chunk.tenant);
                    lost += u64::from(self.reoffer(tenant, chunk.seq, chunk.cost, now));
                }
                self.reroute_pending(from, now);
                self.failovers.push(FailoverEvent {
                    tick: now,
                    shard: from,
                    kind: FailoverKind::Graceful,
                    moved_chunks: moved,
                    crash_loss: lost,
                    recovered: 0,
                });
            }
            // The coordinator never receives offers, probes, or drains.
            Msg::Offer { .. } | Msg::Probe { .. } | Msg::Drain => self.net.refuse(),
        }
    }

    /// Takes every frame still pending to retired shard `id` off the
    /// plane. Offers that were never applied at the receiver re-route to
    /// the tenant's current home (at-least-once across failover); applied
    /// frames are already accounted by the receiver's journal, and
    /// control frames (probes, drains) die with the endpoint.
    fn reroute_pending(&mut self, id: u32, now: u64) {
        for (_src, _seq, msg, applied) in self.net.take_pending_to(NodeId::Shard(id)) {
            let Msg::Offer { tenant, chunk_seq, cost, .. } = msg else { continue };
            if !applied {
                self.reoffer(tenant, chunk_seq, cost, now);
            }
        }
    }

    /// Re-offers a chunk that left a shard along its tenant's current
    /// route. With no live shard left to take it, the chunk is booked as
    /// offered and shed (crash loss) in the retired ledger instead:
    /// honest, never silently leaked. Returns whether it was lost.
    fn reoffer(&mut self, tenant: Arc<str>, seq: u64, cost: u64, now: u64) -> bool {
        if self.ring.is_empty() {
            self.retired.offered += 1;
            self.retired.shed += 1;
            self.crash_loss += 1;
            return true;
        }
        let target = self.ring.route(&tenant);
        self.send_offer(target, tenant, seq, cost, now);
        false
    }

    /// Fails over every shard whose lease *provably* expired: the
    /// coordinator granted `lease_until` values only up to
    /// `granted_until`, so once `now > granted_until` the shard — which
    /// can hold no fresher grant — has already self-fenced. Failing over
    /// before that tick could split-brain; at it, it cannot.
    fn lease_expiry_failover(&mut self, now: u64) {
        // One extra tick beyond the recorded grant: the grant value a
        // shard holds was delivered a tick after it was recorded here, so
        // the epsilon guarantees the shard's own lease check fires
        // strictly first — even when every grant up to the horizon was
        // delivered (one-way partitions). No split-brain without relying
        // on intra-tick ordering.
        let expired: Vec<u32> = self
            .links
            .iter()
            .filter(|(_, l)| now > l.granted_until + 1)
            .map(|(id, _)| *id)
            .collect();
        for id in expired {
            // The shard is unreachable or wedged; treat it as dead. Its
            // journal segment (and replica) reconcile the exact queue.
            self.shard_mut(id).kill();
            self.crash_failover(id, now);
        }
    }

    /// Probes every live shard whose lease nothing renewed for
    /// `lease_ticks / 2` ticks. A shard receiving offers is renewed by
    /// the grants they carry and is never probed; a quiet one costs one
    /// probe, whose ack is the sign of life, per half lease. A shard the
    /// coordinator stopped hearing from is probed every tick with its
    /// frozen grant, so a healed partition resumes the handshake: the
    /// first ack through refreshes the link and grants resume.
    fn renew_leases(&mut self, now: u64) {
        let (lease_ticks, half) = (self.cfg.net.lease_ticks, self.renew_every());
        for (&id, link) in self.links.iter_mut() {
            if link.renew_at > now || !self.ring.contains(id) {
                continue;
            }
            let heard = self.net.last_heard(NodeId::Shard(id), NodeId::Coordinator);
            let lease_until = link.grant(heard, now, lease_ticks, half);
            self.net.send(NodeId::Coordinator, NodeId::Shard(id), Msg::Probe { lease_until }, now);
        }
    }

    /// Books this tick's storage picture: per-level occupancy across live
    /// shards (the `durability_level_ticks` budget) and every gauge
    /// transition drained from the shards, re-stamped onto the tick clock
    /// and surfaced as typed [`ServiceEvent::DurabilityTransition`]s on
    /// the coordinator's log. A live shard whose breaker state or
    /// durability level changed this tick reports its health over the
    /// plane. Runs once per `advance`, *before* death processing, so a
    /// shard that dies this tick still reports its last transitions.
    fn observe_shards(&mut self, now: u64) {
        let mut moves: Vec<(u32, DurabilityLevel, DurabilityLevel)> = Vec::new();
        for shard in &mut self.shards {
            if shard.state() == ShardState::Active && self.ring.contains(shard.id()) {
                let level = shard.durability_level();
                self.durability_level_ticks[level.index()] += 1;
                if let Some(health) = shard.health_change(level) {
                    let msg = Msg::Health { health: Box::new(health) };
                    self.net.send(NodeId::Shard(shard.id()), NodeId::Coordinator, msg, now);
                }
            }
            for (_, from, to) in shard.take_durability_transitions() {
                moves.push((shard.id(), from, to));
            }
        }
        for (shard, from, to) in moves {
            self.log.push(ServiceEvent::DurabilityTransition { tick: now, shard, from, to });
        }
    }

    /// One anti-entropy pass on cadence: every `scrub_every` ticks, one
    /// live shard (round-robin over the fleet in id order, so every
    /// replica gets verified within `live × scrub_every` ticks) has its
    /// replica CRC-verified against its primary and read-repaired.
    /// Logical ticks only — deterministic for any thread count.
    fn scrub_tick(&mut self, now: u64) {
        let every = self.cfg.scrub_every;
        if every == 0 || !now.is_multiple_of(every) {
            return;
        }
        let live: Vec<u32> = self
            .shards
            .iter()
            .filter(|s| s.state() == ShardState::Active && self.ring.contains(s.id()))
            .map(Shard::id)
            .collect();
        if live.is_empty() {
            return;
        }
        let victim = live[((now / every) as usize) % live.len()];
        let found = self.shard_mut(victim).scrub();
        self.scrub_events.extend(found);
    }

    /// Advances per-shard BrownOut streaks from the health the plane
    /// delivered, and starts a graceful failover of any shard browned out
    /// for `failover_after` consecutive scans — unless it is the last one
    /// standing (fencing the whole fleet would turn a brown-out into a
    /// blackout; the single shard's own breaker already sheds load). A
    /// shard whose disk gauge sits at the bottom rung
    /// ([`DurabilityLevel::RefuseWrites`]) counts as browned out too: its
    /// storage cannot hold work honestly, so the same streak drains it to
    /// healthier disks through the existing fencing machinery.
    ///
    /// The coordinator acts only on what the plane told it: a shard's
    /// sample stands until a newer report replaces it, and a partitioned
    /// shard's freezes at its last report (its *lease* is what expires,
    /// not its health picture). A started failover completes when the
    /// shard's evacuation is delivered, and appears in
    /// [`FleetCoordinator::failovers`] then.
    pub fn react(&mut self, now: u64) {
        let mut drain = Vec::new();
        for (&id, link) in &self.links {
            if !self.ring.contains(id) {
                continue;
            }
            let streak = self.brownout_streak.entry(id).or_insert(0);
            let browned = link.health.is_some_and(|(_, h)| {
                h.fleet == FleetState::BrownOut || h.durability == DurabilityLevel::RefuseWrites
            });
            if browned {
                *streak += 1;
            } else {
                *streak = 0;
            }
            if *streak >= self.cfg.failover_after && self.ring.len() > 1 {
                drain.push(id);
            }
        }
        for id in drain {
            if self.ring.len() > 1 {
                self.drain_shard(id, now);
            }
        }
    }

    /// Starts a graceful failover: the shard leaves the ring immediately
    /// (no new offers route to it) and a [`Msg::Drain`] is sent; the
    /// shard fences on receipt and ships its queue back as
    /// [`Msg::Evacuated`], which books the retirement and re-offers the
    /// evacuees. At-least-once delivery carries both legs through loss.
    fn drain_shard(&mut self, id: u32, now: u64) {
        self.ring.remove_shard(id);
        self.rehome_replicas();
        // The fencing authority is NOT bumped yet: the shard still has to
        // write its final ledger when the drain lands. The bump happens
        // when the evacuation is booked (or a lease expiry crash-fails
        // the shard first).
        self.net.send(NodeId::Coordinator, NodeId::Shard(id), Msg::Drain, now);
    }

    /// Raises shard `id`'s fencing authority past its incarnation's
    /// token: any append the stale writer attempts from here on is
    /// refused with [`DurableError::Fenced`], before touching the bytes.
    fn bump_fence_authority(&mut self, id: u32) {
        if let Some(auth) = self.fence_authorities.get(&id) {
            auth.store(Self::FIRST_INCARNATION_TOKEN + 1, Ordering::SeqCst);
        }
    }

    /// Hard-kills shard `id` (chaos: a `SIGKILL` mid-campaign) and
    /// immediately crash-fails it over. The process dies but the disk
    /// survives: reconciliation replays the primary journal.
    pub fn kill_shard(&mut self, id: u32, now: u64) -> FailoverEvent {
        self.shard_mut(id).kill();
        self.crash_failover(id, now)
    }

    /// Kills shard `id` *and destroys its disk* (chaos: a machine loss) —
    /// the primary journal is gone; only the replica on the follower's
    /// node can reconcile. This is the failure replication exists for.
    pub fn kill_shard_with_disk_loss(&mut self, id: u32, now: u64) -> FailoverEvent {
        self.shard_mut(id).kill_with_disk_loss();
        self.crash_failover(id, now)
    }

    /// Arms the nemesis on shard `id`: its next replica ship tears
    /// mid-frame and the replica latches (the primary record still
    /// commits). See [`Shard::tear_replica_next`].
    pub fn tear_replica_next(&mut self, id: u32, frac: f64) {
        self.shard_mut(id).tear_replica_next(frac);
    }

    /// Shard `id`'s replica segment path, when it has a follower.
    pub fn replica_path_of(&self, id: u32) -> Option<PathBuf> {
        self.shards.iter().find(|s| s.id() == id).and_then(Shard::replica_path)
    }

    /// Books a fenced shard's final counters into the retired ledger,
    /// enforcing the fence invariant *in release builds*: `Shard::fence`
    /// evacuates before snapshotting, so `queued` must be zero. A
    /// violation (a coordinator bug) is reported as a typed
    /// [`FleetInternalError`] and the residual is booked as shed, keeping
    /// the conservation identity exact instead of aborting the fleet.
    fn book_fenced_stats(&mut self, id: u32, stats: &AdmissionStats) {
        if stats.queued != 0 {
            self.internal_errors
                .push(FleetInternalError::FenceLeftQueue { shard: id, queued: stats.queued });
            self.retired.shed += stats.queued;
            self.crash_loss += stats.queued;
        }
        self.retired.offered += stats.offered;
        self.retired.served += stats.served;
        self.retired.rejected += stats.rejected;
        self.retired.shed += stats.shed;
        self.retired.migrated += stats.migrated;
    }

    /// Re-pairs every live shard with its current ring successor after a
    /// membership change. Shards whose follower moved get a fresh replica
    /// rebuilt from their primary (the old copy is deleted); unchanged
    /// pairings are untouched.
    fn rehome_replicas(&mut self) {
        let ring = self.ring.clone();
        for shard in &mut self.shards {
            if shard.state() == ShardState::Active && ring.contains(shard.id()) {
                shard.rehome_replica(ring.successor_shard(shard.id()));
            }
        }
    }

    /// Reconciles a crashed shard, removes it from the ring, re-pairs the
    /// survivors' replicas, and re-offers whatever queue a surviving
    /// journal copy replays. See the module docs for the algebra.
    fn crash_failover(&mut self, id: u32, now: u64) -> FailoverEvent {
        let routed = self.routed.remove(&id).unwrap_or(0);
        // The dead shard's replica lives where its *last rehome* put it —
        // the Shard object remembers; the ring is the fallback for a
        // shard the coordinator no longer holds (post-restart reconcile
        // goes through `reconcile_books` directly instead).
        let follower = self
            .shards
            .iter()
            .find(|s| s.id() == id)
            .map_or_else(|| self.ring.successor_shard(id), Shard::follower);
        // The sink's unjournaled counter survives an in-process kill (the
        // Shard object outlives its controller), so a degraded shard's
        // admitted-but-never-journaled records can be booked honestly.
        let unjournaled =
            self.shards.iter().find(|s| s.id() == id).map_or(0, Shard::unjournaled);
        let (queue, booked_loss) = self.reconcile_books(id, follower, routed, unjournaled);
        self.ring.remove_shard(id);
        self.rehome_replicas();
        // Fence the dead incarnation out of its journal (a resurrected
        // stale writer gets a typed refusal, not a corrupted replay), then
        // drop its link and re-offer the replayed queue ahead of its
        // undelivered offers, which carry later seqs.
        self.bump_fence_authority(id);
        self.links.remove(&id);
        let event = self.replay(id, queue, booked_loss, now);
        self.reroute_pending(id, now);
        event
    }

    /// Reconciles a dead shard's counters from the best surviving journal
    /// copy. Returns the exact queue at the moment of death when a clean
    /// copy replays it (loss limited to records the shard's degraded
    /// gauge never journaled — `unjournaled`, booked as shed), or an
    /// empty queue plus the honest bounded loss (already booked as shed)
    /// when every copy is damaged. Every tenant's next seq moves past the
    /// seqs any copy journaled (see [`FleetCoordinator::recover`]).
    /// Touches books only — never the ring.
    fn reconcile_books(
        &mut self,
        id: u32,
        follower: Option<u32>,
        routed: u64,
        unjournaled: u64,
    ) -> (Vec<ChunkAdmit>, u64) {
        let primary = shard_journal_path(&self.dir, id);
        let replica = follower.map(|f| shard_replica_path(&self.dir, id, f));
        // Only copies that *exist* testify: `recover_run` materialises a
        // fresh empty journal for a missing path, and an empty journal
        // must never pass for a clean account of a destroyed disk. A
        // record gap is not damage: it holds records a degraded gauge
        // kept off this copy, which `unjournaled` or the other copy
        // accounts for.
        let runs: Vec<(RecoveredRun, bool)> = std::iter::once(primary)
            .chain(replica.clone())
            .filter(|p| p.exists())
            .filter_map(|p| recover_run(&p).ok())
            .map(|(run, defects)| {
                (run, defects.iter().all(|d| matches!(d, Defect::RecordGap { .. })))
            })
            .collect();
        if let Some(r) = &replica {
            let _ = std::fs::remove_file(r); // consumed
        }
        for (run, _) in &runs {
            self.resume_seqs_past(run);
        }
        // A damaged copy is a *detected* liar: fsync ordering and CRCs
        // guarantee a clean scan covers every commit, so only clean
        // copies are trusted for exact replay. Among them, the first with
        // the most records wins: a shard that spent time at ReplicaOnly
        // has a primary that scans clean but legitimately trails its
        // replica.
        let records = |run: &RecoveredRun| run.admits.len() + run.serves.len() + run.sheds.len();
        let clean = runs.iter().filter(|(_, clean)| *clean);
        let best = clean.min_by_key(|(run, _)| Reverse(records(run)));
        if let Some((run, _)) = best {
            // Exact replay: every admit was journaled before its
            // enqueue, every serve/shed after its dequeue, so the
            // queue at death is the admit multiset minus both.
            let mut done: BTreeSet<(String, u64)> = run
                .serves
                .iter()
                .map(|s| (s.tenant.clone(), s.seq))
                .chain(run.sheds.iter().map(|(_, t, _, seq)| (t.clone(), *seq)))
                .collect();
            let queue: Vec<ChunkAdmit> = run
                .admits
                .iter()
                .filter(|a| !done.remove(&(a.tenant.clone(), a.seq)))
                .cloned()
                .collect();
            // What survives in `done` is the *orphans*: serves/sheds
            // journaled with no matching admit record, because the
            // admit landed while the gauge was degraded past
            // journaling and the serve after a climb. Each orphan is
            // a chunk inside the routed-minus-admits gap that is
            // already evidenced as served or shed — booking it as a
            // rejection too would double-count it.
            let orphans = done.len() as u64;
            let admits = run.admits.len() as u64;
            // `routed` is exact in-process; after a coordinator
            // restart it comes from a checkpoint and may lag the
            // journal — the max is the tightest honest offer count
            // (post-checkpoint refusals are then under-counted on
            // both sides of the identity, which stays exact).
            let offered = routed.max(admits + orphans);
            // The rest of the gap is front-door refusals (and, after
            // a restart, offers that died on the plane) plus records
            // a degraded gauge admitted but never journaled. The
            // latter died with the shard's memory: book them as shed
            // crash loss, not as rejections.
            let gap = offered - admits - orphans;
            let lost = unjournaled.min(gap);
            self.retired.offered += offered;
            self.retired.served += run.serves.len() as u64;
            self.retired.rejected += gap - lost;
            self.retired.shed += run.sheds.len() as u64 + lost;
            self.crash_loss += lost;
            return (queue, lost);
        }
        // Bounded-loss reconciliation (a double failure damaged every
        // copy): the best surviving prefix's last ledger plus its exact
        // journaled sheds.
        let mut ledger = LedgerRecord::default();
        let mut exact_shed = 0;
        for (run, _) in &runs {
            let l = run.ledgers.last().copied().unwrap_or_default();
            let s = run.sheds.len() as u64;
            let known = l.served + l.rejected + s + l.migrated;
            let best = ledger.served + ledger.rejected + exact_shed + ledger.migrated;
            if known > best || (known == best && l.offered > ledger.offered) {
                ledger = l;
                exact_shed = s;
            }
        }
        let known = ledger.served + ledger.rejected + exact_shed + ledger.migrated;
        // `routed` counts every chunk the coordinator sent; the journal
        // can only under-report (post-ledger serves/rejects, the queue at
        // the moment of death). The max of the lower bounds is the
        // tightest honest estimate; the shortfall is booked, not leaked.
        let offered = routed.max(ledger.offered).max(known);
        let loss = offered - known;
        self.retired.offered += offered;
        self.retired.served += ledger.served;
        self.retired.rejected += ledger.rejected;
        self.retired.shed += exact_shed + loss;
        self.retired.migrated += ledger.migrated;
        self.crash_loss += loss;
        (Vec::new(), loss)
    }

    /// Moves each tenant's next seq past every seq `run` journaled as
    /// admitted, served or shed: those seqs are spent. In process this
    /// never moves anything (the coordinator issued them all); after a
    /// restart it covers what the shards took after the checkpoint.
    fn resume_seqs_past(&mut self, run: &RecoveredRun) {
        let spent = run
            .admits
            .iter()
            .map(|a| (a.tenant.as_str(), a.seq))
            .chain(run.serves.iter().map(|s| (s.tenant.as_str(), s.seq)))
            .chain(run.sheds.iter().map(|(_, t, _, seq)| (t.as_str(), *seq)));
        for (tenant, seq) in spent {
            match self.tenant_seq.get_mut(tenant) {
                Some(next) => *next = (*next).max(seq + 1),
                None => {
                    self.tenant_seq.insert(Arc::from(tenant), seq + 1);
                }
            }
        }
    }

    /// Re-offers crashed shard `id`'s replayed queue along each tenant's
    /// new route, over the plane like any offer, booking the moves as
    /// `migrated` at the dead shard (and `recovered` fleet-wide), and
    /// records the crash failover. With no live shard left to take them,
    /// the chunks are booked as honest residual loss instead, on top of
    /// the `loss` reconciliation already booked.
    fn replay(&mut self, id: u32, queue: Vec<ChunkAdmit>, loss: u64, now: u64) -> FailoverEvent {
        let moved = queue.len() as u64;
        let lost = if self.ring.is_empty() { moved } else { 0 };
        let recovered = moved - lost;
        self.retired.shed += lost;
        self.crash_loss += lost;
        self.retired.migrated += recovered;
        self.recovered += recovered;
        if lost == 0 {
            for chunk in queue {
                let target = self.ring.route(&chunk.tenant);
                self.send_offer(target, Arc::from(chunk.tenant), chunk.seq, chunk.cost, now);
            }
        }
        let event = FailoverEvent {
            tick: now,
            shard: id,
            kind: FailoverKind::Crash,
            moved_chunks: recovered,
            crash_loss: loss + lost,
            recovered,
        };
        self.failovers.push(event);
        event
    }

    /// The aggregated health picture.
    pub fn view(&self) -> FleetView {
        let shards: Vec<ShardHealth> = self.shards.iter().map(Shard::health).collect();
        let live: Vec<&ShardHealth> =
            shards.iter().filter(|h| self.ring.contains(h.id)).collect();
        FleetView {
            live: live.len(),
            worst: live.iter().map(|h| h.fleet).max().unwrap_or(FleetState::Healthy),
            queue_depth_total: live.iter().map(|h| h.queue_depth).sum(),
            restart_burn: shards.iter().map(|h| h.restarts_used).sum(),
            replicas_latched: live.iter().filter(|h| h.replica_latched).count(),
            scrub_events: self.scrub_events.clone(),
            internal_errors: self.internal_errors.clone(),
            durability_worst: live
                .iter()
                .map(|h| h.durability)
                .max()
                .unwrap_or(DurabilityLevel::Durable),
            durability_level_ticks: self.durability_level_ticks,
            unjournaled_total: shards.iter().map(|h| h.unjournaled).sum(),
            shards,
        }
    }

    /// The coordinator's event log: every durability transition any
    /// shard's disk gauge took, as typed
    /// [`ServiceEvent::DurabilityTransition`]s on the tick clock.
    pub fn log(&self) -> &ServiceLog {
        &self.log
    }

    /// The message plane's counters.
    pub fn net_stats(&self) -> NetStats {
        self.net.stats()
    }

    /// Every internal invariant violation detected (and survived) so far.
    pub fn internal_errors(&self) -> &[FleetInternalError] {
        &self.internal_errors
    }

    /// Scripts a full partition between the coordinator and shard `id`:
    /// both directions of the pair are blocked until healed.
    pub fn partition_shard(&mut self, id: u32) {
        self.net.partition_pair(NodeId::Coordinator, NodeId::Shard(id));
    }

    /// Scripts a one-way partition: when `inbound` is true the shard can
    /// no longer reach the coordinator (acks and evacuations are lost —
    /// the asymmetric case that forces self-fencing); otherwise the
    /// coordinator can no longer reach the shard.
    pub fn partition_shard_one_way(&mut self, id: u32, inbound: bool) {
        if inbound {
            self.net.block(NodeId::Shard(id), NodeId::Coordinator);
        } else {
            self.net.block(NodeId::Coordinator, NodeId::Shard(id));
        }
    }

    /// Heals every scripted partition.
    pub fn heal_partitions(&mut self) {
        self.net.heal_all();
    }

    /// Whether shard `id` is currently self-fenced: its lease expired, so
    /// it serves nothing until a fresher grant arrives.
    pub fn shard_self_fenced(&self, id: u32, now: u64) -> bool {
        self.shards
            .iter()
            .find(|s| s.id() == id)
            .is_some_and(|s| s.state() == ShardState::Active && s.lease_expired(now))
    }

    /// The fencing token shard `id`'s journal writer holds, when armed.
    pub fn fence_token_of(&self, id: u32) -> Option<u64> {
        self.shards.iter().find(|s| s.id() == id).and_then(Shard::fence_token)
    }

    /// Resurrects retired shard `id` as a *stale writer*: attempts one
    /// journal append under its old incarnation's token and returns the
    /// typed refusal. `Some(DurableError::Fenced { .. })` proves the
    /// fencing token rejected the write with the bytes untouched; `None`
    /// means the append went through (the shard was never fenced out).
    pub fn stale_writer_probe(&self, id: u32, now: u64) -> Option<DurableError> {
        self.shards.iter().find(|s| s.id() == id).and_then(|s| s.stale_append_probe(now))
    }

    /// The fleet-wide roll-up: retired ledgers plus live counters.
    /// [`FleetStats::conserves`] holds at every tick by construction.
    pub fn stats(&self) -> FleetStats {
        let in_flight = self.net.count_unapplied(|_, msg| matches!(msg, Msg::Offer { .. }));
        let mut s = FleetStats {
            offered: self.retired.offered + in_flight,
            served: self.retired.served,
            rejected: self.retired.rejected,
            shed: self.retired.shed,
            queued: 0,
            migrated: self.retired.migrated,
            crash_loss: self.crash_loss,
            recovered: self.recovered,
            in_flight,
        };
        for shard in &self.shards {
            if let Some(a) = shard.stats() {
                s.offered += a.offered;
                s.served += a.served;
                s.rejected += a.rejected;
                s.shed += a.shed;
                s.queued += a.queued;
                s.migrated += a.migrated;
            }
        }
        s
    }

    /// Journals a coordinator checkpoint: the shards not yet failed over
    /// (a draining shard included, until its evacuation is booked), their
    /// routed counts (offers still on the plane included), per-tenant
    /// seqs, and the retired ledger. [`FleetCoordinator::recover`]
    /// restarts from the newest one.
    ///
    /// # Errors
    ///
    /// [`DurableError::Io`] when the append fails.
    pub fn checkpoint(&mut self, now: u64) -> Result<(), DurableError> {
        let mut enc = Enc::new();
        enc.u64(now);
        let live: Vec<u32> = self.links.keys().copied().collect();
        enc.u64(live.len() as u64);
        for id in &live {
            // Offers still on the plane count as routed to their target:
            // one the restart never delivers lands in the reconciled
            // refusal gap instead of vanishing with the old process.
            let dst = NodeId::Shard(*id);
            let pending =
                self.net.count_unapplied(|to, m| to == dst && matches!(m, Msg::Offer { .. }));
            enc.u64(u64::from(*id));
            enc.u64(self.routed.get(id).copied().unwrap_or(0) + pending);
        }
        enc.u64(self.retired.offered)
            .u64(self.retired.served)
            .u64(self.retired.rejected)
            .u64(self.retired.shed)
            .u64(self.retired.migrated)
            .u64(self.crash_loss)
            .u64(self.recovered);
        enc.u64(self.tenant_seq.len() as u64);
        for (tenant, seq) in &self.tenant_seq {
            enc.str(tenant).u64(*seq);
        }
        let seq = self.ckpt_seq;
        self.checkpoint.append(REC_CHECKPOINT, seq, &enc.into_bytes())?;
        self.ckpt_seq += 1;
        Ok(())
    }

    /// Restarts a coordinator from `dir` after a crash: replays the
    /// newest checkpoint, reconciles every then-live shard from its
    /// journal segment as a crash (the process died — their memory is
    /// gone), and brings up fresh shards under the same ids. A drain the
    /// crash interrupted dies with it: the draining shard is reconciled
    /// and restarted like the others. The ring is rebuilt from the same
    /// seed and shard set, so every tenant keeps its home. Each tenant's
    /// seqs resume past both the checkpoint's value and every seq a
    /// journal copy shows admitted, served or shed after it, so no chunk
    /// the old process served is numbered again.
    ///
    /// # Errors
    ///
    /// [`DurableError`] when the checkpoint journal is unreadable or
    /// `dir` has no checkpoint at all.
    pub fn recover(cfg: FleetConfig, dir: &Path) -> Result<FleetCoordinator, DurableError> {
        let ckpt_path = coordinator_journal_path(dir);
        let (_journal, records, _defects) = Journal::open(&ckpt_path)?;
        let last = records
            .iter()
            .rev()
            .find(|r| r.kind == REC_CHECKPOINT)
            .ok_or_else(|| DurableError::Corrupt {
                path: ckpt_path.display().to_string(),
                offset: 0,
                detail: "no checkpoint to recover from".to_string(),
            })?;
        let corrupt = |e: emoleak_durable::WireError| DurableError::Corrupt {
            path: ckpt_path.display().to_string(),
            offset: e.offset,
            detail: e.detail,
        };
        let mut dec = Dec::new(&last.data);
        let tick = dec.u64().map_err(corrupt)?;
        let live_n = dec.u64().map_err(corrupt)? as usize;
        let mut live = Vec::with_capacity(live_n);
        for _ in 0..live_n {
            let id = dec.u64().map_err(corrupt)? as u32;
            let routed = dec.u64().map_err(corrupt)?;
            live.push((id, routed));
        }
        let retired = RetiredTotals {
            offered: dec.u64().map_err(corrupt)?,
            served: dec.u64().map_err(corrupt)?,
            rejected: dec.u64().map_err(corrupt)?,
            shed: dec.u64().map_err(corrupt)?,
            migrated: dec.u64().map_err(corrupt)?,
        };
        let crash_loss = dec.u64().map_err(corrupt)?;
        let recovered = dec.u64().map_err(corrupt)?;
        let tenants_n = dec.u64().map_err(corrupt)? as usize;
        let mut tenant_seq = BTreeMap::new();
        for _ in 0..tenants_n {
            let tenant = dec.str().map_err(corrupt)?;
            let seq = dec.u64().map_err(corrupt)?;
            tenant_seq.insert(Arc::from(tenant), seq);
        }
        dec.finish().map_err(corrupt)?;

        // The process died with the checkpointed shards live: reconcile
        // each from its segment, then restart it fresh under the same id.
        // The fresh plane starts with nothing in flight: in-flight frames
        // died with the old process, exactly like a real restart. Offers
        // the checkpoint saw in flight count as routed to their targets,
        // so reconciliation books any that never landed as refused.
        let ring = HashRing::new(cfg.seed, 0, cfg.vnodes);
        let mut coord = FleetCoordinator::bare(cfg, dir, ring, Journal::create(&ckpt_path)?);
        coord.tenant_seq = tenant_seq;
        coord.retired = retired;
        coord.crash_loss = crash_loss;
        coord.recovered = recovered;
        for (id, routed) in &live {
            coord.ring.insert_shard(*id);
            coord.routed.insert(*id, *routed);
        }
        // Every shard restarts under the same id, so the ring — and with
        // it each shard's follower — never changes across the restart.
        // Reconcile against the *full* ring (the replicas were shipped
        // under it), collect the replayed queues, and only re-offer once
        // fresh shards exist to take them.
        let mut queues = Vec::with_capacity(live.len());
        for &(id, routed) in &live {
            let follower = coord.ring.successor_shard(id);
            // A restart lost every in-memory counter, the unjournaled
            // count included; the journal's account is the floor.
            let (queue, loss) = coord.reconcile_books(id, follower, routed, 0);
            queues.push((id, queue, loss));
        }
        // Fresh shards under the same ids (truncating the reconciled
        // segments), same seed: every tenant keeps its home. Fresh
        // incarnations get fresh fencing tokens and leases.
        for (id, _) in &live {
            coord.spawn_shard(*id, tick)?;
        }
        for (id, queue, booked_loss) in queues {
            coord.replay(id, queue, booked_loss, tick);
        }
        Ok(coord)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::ops::Range;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("emoleak-coord-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn small(shards: u32) -> FleetConfig {
        FleetConfig {
            shards,
            ledger_every: 10,
            admission: emoleak_admission::AdmissionConfig {
                mem_budget: u64::MAX / 2,
                tenant_rps: 1_000_000,
                tenant_burst: 1_000_000,
                ..Default::default()
            },
            ..FleetConfig::default()
        }
    }

    fn tenants(n: usize) -> Vec<String> {
        (0..n).map(|t| format!("tenant-{t}")).collect()
    }

    /// Offers one chunk per tenant and advances at `capacity`, every tick
    /// of `ticks`. A starved campaign's refusals are part of the deal.
    fn feed(c: &mut FleetCoordinator, ts: &[String], ticks: Range<u64>, capacity: usize) {
        for now in ticks {
            for t in ts {
                let _ = c.offer(t, 64, now);
            }
            c.advance(now, capacity, &[]);
        }
    }

    #[test]
    fn clean_path_conserves_and_serves_everything() {
        let dir = scratch("clean");
        let mut c = FleetCoordinator::new(small(4), &dir).unwrap();
        let ts = tenants(16);
        for now in 0..200 {
            for t in &ts {
                c.offer(t, 64, now).unwrap();
            }
            c.advance(now, 64, &[]);
        }
        let mut now = 200;
        while c.stats().queued > 0 {
            c.advance(now, usize::MAX, &[]);
            now += 1;
        }
        let s = c.stats();
        assert!(s.conserves(), "{s:?}");
        assert_eq!(s.offered, 16 * 200);
        assert_eq!(s.served, s.offered, "clean path serves everything: {s:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn killing_a_shard_replays_its_queue_with_zero_loss() {
        let dir = scratch("kill");
        let mut c = FleetCoordinator::new(small(4), &dir).unwrap();
        let ts = tenants(24);
        let homes: BTreeMap<&String, u32> =
            ts.iter().map(|t| (t, c.ring().route(t))).collect();
        // Capacity-starved on purpose: queues must be non-empty at the kill.
        feed(&mut c, &ts, 0..100, 2);
        let victim = 1;
        let event = c.kill_shard(victim, 100);
        assert_eq!(event.kind, FailoverKind::Crash);
        assert_eq!(event.crash_loss, 0, "a clean journal replays the queue: {event:?}");
        assert!(event.recovered > 0, "the starved queue must replay: {event:?}");
        assert_eq!(c.stats().in_flight, event.recovered, "the replay rides the plane");
        assert!(c.stats().conserves(), "{:?}", c.stats());
        // Bounded movement: only the victim's tenants re-home.
        for t in &ts {
            let new_home = c.ring().route(t);
            if homes[t] == victim {
                assert_ne!(new_home, victim);
            } else {
                assert_eq!(new_home, homes[t], "{t} moved without cause");
            }
        }
        // The fleet keeps serving; the identity keeps holding.
        feed(&mut c, &ts, 101..200, usize::MAX);
        let s = c.stats();
        assert!(s.conserves(), "{s:?}");
        assert_eq!(s.crash_loss, 0, "replicated failover is lossless: {s:?}");
        assert!(s.recovered > 0, "{s:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn disk_loss_recovers_from_the_replica_and_double_failure_is_honest() {
        let dir = scratch("diskloss");
        let mut c = FleetCoordinator::new(small(4), &dir).unwrap();
        let ts = tenants(24);
        feed(&mut c, &ts, 0..100, 2);
        // Machine loss: primary journal destroyed; only the replica on
        // the follower's node reconciles — still zero loss.
        let event = c.kill_shard_with_disk_loss(1, 100);
        assert_eq!(event.crash_loss, 0, "the replica replays the queue: {event:?}");
        assert!(event.recovered > 0, "{event:?}");
        assert!(c.stats().conserves(), "{:?}", c.stats());

        // Double failure: shard 2's disk dies *and* its replica is
        // corrupted mid-file. No clean copy survives — the residual is
        // booked honestly, never silently leaked.
        let replica = c.replica_path_of(2).expect("replication is on");
        let mut bytes = std::fs::read(&replica).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&replica, &bytes).unwrap();
        let event = c.kill_shard_with_disk_loss(2, 101);
        assert!(event.crash_loss > 0, "a double failure must book loss: {event:?}");
        assert_eq!(event.recovered, 0, "{event:?}");
        let s = c.stats();
        assert!(s.conserves(), "{s:?}");
        assert!(s.crash_loss > 0 && s.recovered > 0, "{s:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn scrub_detects_and_repairs_a_corrupted_replica_on_cadence() {
        let dir = scratch("scrub");
        let mut cfg = small(2);
        cfg.scrub_every = 10;
        let mut c = FleetCoordinator::new(cfg, &dir).unwrap();
        let ts = tenants(8);
        for now in 0..10 {
            for t in &ts {
                c.offer(t, 64, now).unwrap();
            }
            c.advance(now, 8, &[]);
        }
        // Bit-rot on shard 0's replica; the cadence scrub must find it,
        // classify it, and rebuild the copy from the primary.
        let replica = c.replica_path_of(0).expect("replication is on");
        let mut bytes = std::fs::read(&replica).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&replica, &bytes).unwrap();
        let mut now = 10;
        while c.view().scrub_events.is_empty() && now < 60 {
            for t in &ts {
                c.offer(t, 64, now).unwrap();
            }
            c.advance(now, 8, &[]);
            now += 1;
        }
        let view = c.view();
        assert!(
            view.scrub_events
                .iter()
                .any(|d| matches!(d, Defect::ReplicaDiverged { .. })),
            "{:?}",
            view.scrub_events
        );
        assert!(
            view.scrub_events
                .iter()
                .any(|d| matches!(d, Defect::ScrubRepaired { .. })),
            "{:?}",
            view.scrub_events
        );
        assert_eq!(view.replicas_latched, 0, "repair clears the latch");
        // The repaired replica reconciles a subsequent disk loss exactly.
        let event = c.kill_shard_with_disk_loss(0, now);
        assert_eq!(event.crash_loss, 0, "{event:?}");
        assert!(c.stats().conserves(), "{:?}", c.stats());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn panic_storm_is_contained_until_the_budget_dies_then_reconciled() {
        let dir = scratch("storm");
        let mut c = FleetCoordinator::new(small(2), &dir).unwrap();
        let ts = tenants(8);
        let mut died_at = None;
        for now in 0..50 {
            for t in &ts {
                let _ = c.offer(t, 64, now);
            }
            // Shard 0 eats a hostile chunk every tick; budget 3 → dead at
            // the 4th panic.
            c.advance(now, 8, &[0]);
            if c.view().live == 1 && died_at.is_none() {
                died_at = Some(now);
            }
            assert!(c.stats().conserves(), "tick {now}: {:?}", c.stats());
        }
        let died_at = died_at.expect("the storm must eventually kill shard 0");
        assert_eq!(died_at, 3, "budget 3 contains exactly 3 panics");
        assert_eq!(c.failovers().len(), 1);
        assert_eq!(c.failovers()[0].kind, FailoverKind::Crash);
        // Shard 1 never noticed.
        let h1 = c.view().shards.iter().find(|h| h.id == 1).unwrap().restarts_used;
        assert_eq!(h1, 0, "the storm leaked across the shard boundary");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sustained_brownout_fences_gracefully_with_zero_loss() {
        let dir = scratch("brownout");
        let mut cfg = small(2);
        // Tiny budget so one tenant's flood browns its shard out.
        cfg.admission.mem_budget = 4096;
        let mut c = FleetCoordinator::new(cfg, &dir).unwrap();
        // Find a tenant homed on shard 0 and flood it; drain nothing.
        let flooder = (0..64)
            .map(|t| format!("tenant-{t}"))
            .find(|t| c.ring().route(t) == 0)
            .unwrap();
        let mut fenced = false;
        for now in 0..400 {
            for _ in 0..8 {
                let _ = c.offer(&flooder, 64, now);
            }
            c.advance(now, 0, &[]);
            c.react(now);
            let events = c.failovers();
            if !events.is_empty() {
                assert_eq!(events[0].kind, FailoverKind::Graceful);
                assert_eq!(events[0].shard, 0);
                assert!(events[0].moved_chunks > 0, "{events:?}");
                fenced = true;
                break;
            }
        }
        assert!(fenced, "sustained brown-out must fence the shard");
        let s = c.stats();
        assert!(s.conserves(), "{s:?}");
        assert_eq!(s.crash_loss, 0, "graceful failover loses nothing");
        assert!(s.migrated > 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Two shards with a small memory budget, so a flood browns one out.
    fn floodable() -> FleetConfig {
        let mut cfg = small(2);
        cfg.admission.mem_budget = 4096;
        cfg
    }

    /// Floods shard 0 of a [`floodable`] fleet, serving nothing, until
    /// `react` starts draining it; returns the fleet and the next tick.
    fn draining_fleet(dir: &Path) -> (FleetCoordinator, u64) {
        let mut c = FleetCoordinator::new(floodable(), dir).unwrap();
        let flooder =
            (0..64).map(|t| format!("tenant-{t}")).find(|t| c.ring().route(t) == 0).unwrap();
        let mut now = 0;
        while c.ring().contains(0) {
            assert!(now < 400, "the flood never browned shard 0 out");
            feed(&mut c, &vec![flooder.clone(); 8], now..now + 1, 0);
            c.react(now);
            now += 1;
        }
        (c, now)
    }

    #[test]
    fn a_checkpoint_during_a_drain_reconciles_the_draining_shard() {
        let dir = scratch("ckpt-drain");
        let (mut c, now) = draining_fleet(&dir);
        let before = c.stats();
        assert!(before.queued > 0, "{before:?}");
        c.checkpoint(now).unwrap();
        drop(c);
        // The drain dies with the coordinator; the shard's journal still
        // accounts for everything it took, and its queue replays.
        let c = FleetCoordinator::recover(floodable(), &dir).unwrap();
        let s = c.stats();
        assert!(s.conserves(), "{s:?}");
        assert_eq!(s.crash_loss, 0, "{s:?}");
        assert_eq!((s.offered - s.recovered, s.recovered), (before.offered, before.queued));
        assert_eq!(c.view().live, 2, "the drained shard restarts: {s:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn an_evacuation_landing_on_an_empty_ring_is_booked_as_loss() {
        let dir = scratch("evac-empty");
        let (mut c, now) = draining_fleet(&dir);
        // The drain is in flight when the last other shard dies.
        c.kill_shard(1, now);
        feed(&mut c, &[], now..now + 3, 0);
        let event = c.failovers().iter().find(|f| f.kind == FailoverKind::Graceful).copied();
        let event = event.expect("the evacuation must land");
        assert!(event.moved_chunks > 0, "{event:?}");
        assert_eq!(event.crash_loss, event.moved_chunks, "{event:?}");
        assert!(c.stats().conserves(), "{:?}", c.stats());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn an_offer_with_no_live_shard_is_refused_and_booked() {
        let dir = scratch("empty-ring");
        let mut c = FleetCoordinator::new(small(2), &dir).unwrap();
        c.kill_shard(0, 0);
        c.kill_shard(1, 0);
        assert_eq!(c.offer("tenant-0", 64, 1), Err(AdmissionError::BrownedOut));
        c.advance(1, 8, &[]);
        let s = c.stats();
        assert!(s.conserves(), "{s:?}");
        assert_eq!((s.offered, s.rejected), (1, 1), "{s:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn coordinator_restart_recovers_from_the_checkpoint() {
        let dir = scratch("restart");
        let ts = tenants(12);
        let (pre_stats, seqs) = {
            let mut c = FleetCoordinator::new(small(3), &dir).unwrap();
            for now in 0..60 {
                for t in &ts {
                    // Capacity-starved: refusals are expected and still
                    // advance the tenant's seq.
                    let _ = c.offer(t, 64, now);
                }
                c.advance(now, 2, &[]);
                if now % 20 == 19 {
                    c.checkpoint(now).unwrap();
                }
            }
            (c.stats(), c.tenant_seq.clone())
            // Dropped without a final checkpoint: ticks 40..59 are the
            // window a restart must reconcile honestly.
        };
        let c = FleetCoordinator::recover(small(3), &dir).unwrap();
        let s = c.stats();
        assert!(s.conserves(), "{s:?}");
        // Everything checkpoint-known or journal-known is retired;
        // nothing silently vanishes: recovered offered covers at least
        // the last checkpoint's routing and at most what really ran —
        // plus the replayed queues, which (like any migration) count a
        // second time at their new home's front door.
        assert!(
            s.offered <= pre_stats.offered + s.recovered,
            "recovered more than ran: {s:?}"
        );
        assert!(
            s.offered >= 12 * 40,
            "recovery lost checkpointed routing: {} < {}",
            s.offered,
            12 * 40
        );
        // Seqs resume from the checkpoint: monotone, never reused from 0.
        for t in &ts {
            let recovered = c.tenant_seq.get(t.as_str()).copied().unwrap_or(0);
            assert!(recovered >= 40, "{t} seq rewound to {recovered}");
            assert!(recovered <= seqs[t.as_str()]);
        }
        assert_eq!(c.view().live, 3, "all shards restart fresh");
        assert!(c.stats().conserves());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn offers_in_flight_at_a_checkpoint_are_booked_after_a_restart() {
        let dir = scratch("restart-in-flight");
        let ts = tenants(8);
        let mut c = FleetCoordinator::new(small(2), &dir).unwrap();
        feed(&mut c, &ts, 0..5, usize::MAX);
        // Three more go out, and the coordinator dies before a tick
        // delivers them.
        for t in &ts[..3] {
            c.offer(t, 64, 5).unwrap();
        }
        let s = c.stats();
        assert_eq!((s.offered, s.in_flight), (43, 3), "{s:?}");
        assert!(s.conserves(), "{s:?}");
        c.checkpoint(5).unwrap();
        drop(c);
        let s = FleetCoordinator::recover(small(2), &dir).unwrap().stats();
        assert!(s.conserves(), "{s:?}");
        assert_eq!((s.offered, s.served, s.rejected, s.in_flight), (43, 40, 3, 0), "{s:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn quiet_armed_disk_is_byte_identical_to_the_real_path() {
        use emoleak_durable::FaultPlan;
        let dir_a = scratch("quiet-a");
        let dir_b = scratch("quiet-b");
        let mut cfg_b = small(2);
        cfg_b.disk.plan = Some(FaultPlan::quiet(123));
        let mut a = FleetCoordinator::new(small(2), &dir_a).unwrap();
        let mut b = FleetCoordinator::new(cfg_b, &dir_b).unwrap();
        let ts = tenants(8);
        for now in 0..40 {
            for t in &ts {
                a.offer(t, 64, now).unwrap();
                b.offer(t, 64, now).unwrap();
            }
            a.advance(now, 8, &[]);
            b.advance(now, 8, &[]);
        }
        assert_eq!(a.stats(), b.stats());
        let view = b.view();
        assert_eq!(view.durability_worst, DurabilityLevel::Durable);
        assert_eq!(view.durability_level_ticks[1..], [0, 0, 0]);
        assert!(view.durability_level_ticks[0] > 0);
        assert_eq!(view.unjournaled_total, 0);
        assert!(b.log().events().is_empty(), "a quiet disk never transitions");
        for id in 0..2 {
            let pa = std::fs::read(shard_journal_path(&dir_a, id)).unwrap();
            let pb = std::fs::read(shard_journal_path(&dir_b, id)).unwrap();
            assert_eq!(pa, pb, "shard {id}: quiet FaultVfs must be byte-identical to OsVfs");
        }
        std::fs::remove_dir_all(&dir_a).unwrap();
        std::fs::remove_dir_all(&dir_b).unwrap();
    }

    #[test]
    fn storage_brownout_drains_through_the_fencing_machinery() {
        use emoleak_durable::FaultPlan;
        use emoleak_stream::DiskGaugeConfig;
        let dir = scratch("disk-drain");
        let mut cfg = small(2);
        // Tiny disks with the refuse watermark far above them: the first
        // journaled append pins every shard's gauge at the bottom rung.
        cfg.disk.plan = Some(FaultPlan { byte_budget: 4096, ..FaultPlan::quiet(5) });
        cfg.disk.gauge = DiskGaugeConfig {
            low_water: 1 << 20,
            refuse_water: 1 << 20,
            ..DiskGaugeConfig::default()
        };
        let mut c = FleetCoordinator::new(cfg, &dir).unwrap();
        let ts = tenants(8);
        let mut fenced = false;
        for now in 0..50 {
            for t in &ts {
                let _ = c.offer(t, 64, now);
            }
            c.advance(now, 2, &[]);
            c.react(now);
            if !c.failovers().is_empty() {
                fenced = true;
            }
            assert!(c.stats().conserves(), "tick {now}: {:?}", c.stats());
        }
        assert!(fenced, "sustained storage refusal must fence a shard");
        let view = c.view();
        assert_eq!(view.live, 1, "the last shard is never fenced");
        assert_eq!(view.durability_worst, DurabilityLevel::RefuseWrites);
        assert!(view.durability_level_ticks[3] > 0, "{:?}", view.durability_level_ticks);
        let moves = c.log().durability_transitions();
        assert!(!moves.is_empty());
        assert!(
            moves.iter().all(|(_, _, from, to)| to > from),
            "pressure-only runs degrade monotonically: {moves:?}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
