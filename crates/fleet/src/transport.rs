//! A deterministic simulated message plane for coordinator↔shard traffic.
//!
//! The plane is the coordinator's only path to its shards: offers,
//! lease grants, health reports, drains and evacuations are all frames on
//! it. Real deployments run shards across cores and hosts, where the
//! *network* is the dominant fault domain, so every frame is subject to a
//! seeded [`NetProfile`] fault model — drop, duplicate, delay, reorder —
//! plus scripted one-way and full partitions, in the spirit of
//! `phone::FaultProfile`'s sensor nemesis.
//!
//! # At-least-once delivery
//!
//! The plane gives the fleet exactly the guarantees a real datagram
//! network would force it to build:
//!
//! - **Per-sender sequence numbers.** Every directed link `(src, dst)`
//!   numbers its frames; the sender keeps each unacked frame in an
//!   outbox and retransmits it every `rto` ticks until an ack
//!   arrives (acks ride the reverse link and suffer the same faults).
//! - **Idempotent dedup window at the receiver.** The receiver remembers
//!   the last `dedup_window` sequence numbers per link; a retransmitted
//!   or duplicated frame whose seq was already *accepted* is silently
//!   re-acked and never surfaced again, so at-least-once transmission
//!   becomes exactly-once application.
//!
//! Delivery is two-phase: [`SimNet::pump`] surfaces the frames due this
//! tick (faults already applied, duplicates already filtered), and the
//! endpoint owner calls [`SimNet::accept`] — which enters the seq into
//! the dedup window, schedules the ack, and marks the outbox entry
//! applied — or [`SimNet::refuse`] for a frame that reached a dead or
//! retired endpoint (no ack: the sender keeps retransmitting until a
//! failover re-routes or discards the pending frame). Every ack and
//! every accepted frame is a sign of life from its sender, which
//! the coordinator's leases key off (`SimNet::last_heard`).
//!
//! # Determinism
//!
//! Everything is a pure function of the profile, the seed, and the order
//! of `send`/`pump` calls: fault draws come from one SplitMix64 stream,
//! frames are delivered in `(deliver_at, order)` order with a monotonic
//! order counter (perturbed only by seeded reorder jitter), and time is
//! the fleet's logical tick — never the wall clock. Two runs with the
//! same seed replay byte-identically on any machine or thread count.
//!
//! Under [`NetProfile::ideal`] — zero loss, zero delay, no duplication,
//! no reorder — a frame sent at tick `t` is delivered at tick `t` in
//! send order, and an offer or probe allocates nothing once the plane's
//! buffers have grown.

use crate::shard::ShardHealth;
use emoleak_admission::{AdmissionStats, QueuedChunk};
use emoleak_exec::{derive_seed, splitmix64};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// A network endpoint address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum NodeId {
    /// The fleet coordinator.
    Coordinator,
    /// Shard `id`'s node.
    Shard(u32),
}

impl core::fmt::Display for NodeId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            NodeId::Coordinator => write!(f, "coordinator"),
            NodeId::Shard(id) => write!(f, "shard-{id}"),
        }
    }
}

/// The stochastic fault model one link draw lives under. Probabilities
/// are parts-per-million so the profile stays `Eq`-comparable and every
/// draw is integer arithmetic — bit-identical on every platform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetProfile {
    /// Probability (ppm) a transmitted frame is silently dropped.
    pub drop_ppm: u32,
    /// Probability (ppm) a transmitted frame is duplicated in flight.
    pub dup_ppm: u32,
    /// Probability (ppm) a frame's relative order is perturbed within its
    /// delivery tick.
    pub reorder_ppm: u32,
    /// Maximum extra delivery delay, ticks (each delayed frame draws
    /// uniformly from `1..=delay_max`; `0` = every frame arrives the tick
    /// it was sent).
    pub delay_max: u64,
    /// Probability (ppm) a frame is delayed at all.
    pub delay_ppm: u32,
}

impl NetProfile {
    /// The perfect network: zero loss, zero delay, in-order. Every frame
    /// lands the tick it was sent, in send order.
    pub fn ideal() -> NetProfile {
        NetProfile { drop_ppm: 0, dup_ppm: 0, reorder_ppm: 0, delay_max: 0, delay_ppm: 0 }
    }

    /// A flaky but serviceable network: occasional loss, duplication,
    /// and short delays.
    pub fn lossy() -> NetProfile {
        NetProfile {
            drop_ppm: 50_000,     // 5%
            dup_ppm: 20_000,      // 2%
            reorder_ppm: 100_000, // 10%
            delay_max: 2,
            delay_ppm: 150_000, // 15%
        }
    }

    /// A hostile network: heavy loss, frequent duplication, long delays,
    /// aggressive reordering. Liveness still holds — retransmission plus
    /// dedup grind every frame through eventually.
    pub fn chaotic() -> NetProfile {
        NetProfile {
            drop_ppm: 150_000,    // 15%
            dup_ppm: 50_000,      // 5%
            reorder_ppm: 250_000, // 25%
            delay_max: 4,
            delay_ppm: 300_000, // 30%
        }
    }
}

/// The named profile presets the `EMOLEAK_NET` knob selects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NetProfileKind {
    /// [`NetProfile::ideal`]: faultless.
    #[default]
    Ideal,
    /// [`NetProfile::lossy`].
    Lossy,
    /// [`NetProfile::chaotic`].
    Chaotic,
}

impl NetProfileKind {
    /// The profile this preset names.
    pub fn profile(self) -> NetProfile {
        match self {
            NetProfileKind::Ideal => NetProfile::ideal(),
            NetProfileKind::Lossy => NetProfile::lossy(),
            NetProfileKind::Chaotic => NetProfile::chaotic(),
        }
    }
}

impl core::str::FromStr for NetProfileKind {
    type Err = ();

    fn from_str(s: &str) -> Result<NetProfileKind, ()> {
        match s {
            "ideal" => Ok(NetProfileKind::Ideal),
            "lossy" => Ok(NetProfileKind::Lossy),
            "chaotic" => Ok(NetProfileKind::Chaotic),
            _ => Err(()),
        }
    }
}

/// Coordinator↔shard traffic: everything the fleet says over the plane.
/// The rare frames box their payloads, so the offers and probes that
/// make up the traffic stay small to copy.
#[derive(Debug, Clone)]
pub enum Msg {
    /// Coordinator → shard: one seq-tagged chunk offer, carrying a lease
    /// grant so a shard that receives work needs no separate probe.
    Offer {
        /// The owning tenant, shared with the coordinator's seq table so
        /// an offer copies no string.
        tenant: Arc<str>,
        /// The coordinator-assigned per-tenant chunk seq.
        chunk_seq: u64,
        /// The chunk's admission cost.
        cost: u64,
        /// The tick up to which the shard holds the serving lease.
        lease_until: u64,
    },
    /// Coordinator → shard: a lease renewal for a shard no other frame
    /// renewed. The shard may serve while `now <= lease_until`; past that
    /// it must self-fence (stop draining and emitting) until a fresher
    /// grant arrives. Its ack is the shard's sign of life.
    Probe {
        /// The tick up to which the shard holds the serving lease.
        lease_until: u64,
    },
    /// Shard → coordinator: a health sample, sent only when what the
    /// coordinator reacts to — breaker state or durability level —
    /// changed.
    Health {
        /// The sampled health.
        health: Box<ShardHealth>,
    },
    /// Coordinator → shard: drain and fence yourself (graceful failover).
    Drain,
    /// Shard → coordinator: the drain's result — the evacuated queue
    /// (seq tags intact) plus the shard's final counters for the retired
    /// ledger.
    Evacuated {
        /// The evacuated chunks, ready to re-offer elsewhere.
        chunks: Vec<QueuedChunk>,
        /// The shard's final admission counters.
        stats: Box<AdmissionStats>,
    },
}

/// One frame surfaced by [`SimNet::pump`]: a fresh (never-accepted)
/// message due for delivery this tick.
#[derive(Debug, Clone)]
pub struct Delivery<P> {
    /// The sending endpoint.
    pub src: NodeId,
    /// The receiving endpoint.
    pub dst: NodeId,
    /// The link-local sequence number.
    pub seq: u64,
    /// The payload.
    pub payload: P,
}

/// Plane-wide counters, for chaos reports and the lease-upkeep bound.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Messages handed to [`SimNet::send`].
    pub sent: u64,
    /// Fresh frames surfaced (and accepted) by endpoints.
    pub delivered: u64,
    /// Transmissions lost to the stochastic drop fault.
    pub dropped: u64,
    /// Transmissions lost to a scripted partition.
    pub partitioned: u64,
    /// Extra in-flight copies created by the duplication fault.
    pub duplicated: u64,
    /// Frames filtered by the receiver's dedup window (retransmits and
    /// duplicates of already-accepted seqs).
    pub deduped: u64,
    /// Retransmissions of unacked outbox frames.
    pub retransmits: u64,
    /// Frames an endpoint refused (dead or retired receiver).
    pub refused: u64,
}

/// One pending (sent, not yet acked) frame in the sender's outbox.
#[derive(Debug, Clone)]
struct Pending<P> {
    src: NodeId,
    dst: NodeId,
    seq: u64,
    payload: P,
    last_sent: u64,
    /// Whether the frame was accepted by the receiver at least once. An
    /// applied frame may still sit in the outbox (its ack was lost); a
    /// failover discards applied frames and re-routes unapplied ones.
    applied: bool,
}

/// One in-flight data frame.
#[derive(Debug, Clone)]
struct Wire<P> {
    deliver_at: u64,
    order: u64,
    src: NodeId,
    dst: NodeId,
    seq: u64,
    payload: P,
}

/// One in-flight ack frame (receiver → sender, acking `seq` on the
/// forward link).
#[derive(Debug, Clone, Copy)]
struct AckWire {
    deliver_at: u64,
    src: NodeId,
    dst: NodeId,
    seq: u64,
}

/// The receiver's per-link dedup window: a low-watermark (every seq below
/// it was accepted) plus the set of accepted seqs at or above it, capped
/// at `window` entries.
#[derive(Debug, Clone, Default)]
struct DedupWindow {
    watermark: u64,
    seen: BTreeSet<u64>,
}

impl DedupWindow {
    fn contains(&self, seq: u64) -> bool {
        seq < self.watermark || self.seen.contains(&seq)
    }

    fn insert(&mut self, seq: u64, window: usize) {
        if seq < self.watermark {
            return;
        }
        if seq == self.watermark {
            // In order, the common case: no set entry to make.
            self.watermark += 1;
            while self.seen.remove(&self.watermark) {
                self.watermark += 1;
            }
            return;
        }
        self.seen.insert(seq);
        // Advance the watermark over the contiguous prefix.
        while self.seen.remove(&self.watermark) {
            self.watermark += 1;
        }
        // Cap the sparse set. Evicting the lowest seqs raises the
        // effective floor; with retransmission every `rto` ticks a live
        // frame's seq cannot fall `window` behind the newest accepted
        // seq, so nothing in flight is ever mistaken for a duplicate.
        while self.seen.len() > window {
            if let Some(lowest) = self.seen.iter().next().copied() {
                self.seen.remove(&lowest);
                self.watermark = self.watermark.max(lowest + 1);
            }
        }
    }
}

/// A directed link `src → dst`, packed into one integer so the per-link
/// maps compare keys in a single step.
type Link = u128;

fn link(src: NodeId, dst: NodeId) -> Link {
    let code = |n: NodeId| match n {
        NodeId::Coordinator => 0,
        NodeId::Shard(id) => u128::from(id) + 1,
    };
    code(src) << 64 | code(dst)
}

/// The simulated message plane. Generic over the payload so the fault
/// machinery is testable with plain values; the fleet instantiates
/// `SimNet<Msg>`.
#[derive(Debug, Clone)]
pub struct SimNet<P> {
    profile: NetProfile,
    rng: u64,
    order: u64,
    rto: u64,
    dedup_window: usize,
    wires: Vec<Wire<P>>,
    /// The frames one pump delivers; kept between pumps for its buffer.
    due: Vec<Wire<P>>,
    /// The `(src, dst, seq)` of the frames one pump surfaced, so a twin
    /// landing the same tick is dropped; kept for its buffer.
    batch: Vec<(NodeId, NodeId, u64)>,
    acks: Vec<AckWire>,
    outbox: Vec<Pending<P>>,
    send_seq: BTreeMap<Link, u64>,
    dedup: BTreeMap<Link, DedupWindow>,
    /// The tick `dst` last heard from `src` on the `(src, dst)` link: an
    /// ack arriving, or a frame accepted.
    heard: BTreeMap<Link, u64>,
    blocked: BTreeSet<Link>,
    stats: NetStats,
}

impl<P: Clone> SimNet<P> {
    /// A fresh plane under `profile`, drawing faults from `seed`.
    /// `dedup_window` caps each link's receiver-side memory; `rto` is the
    /// retransmission timeout in ticks.
    pub fn new(profile: NetProfile, seed: u64, dedup_window: usize, rto: u64) -> SimNet<P> {
        SimNet {
            profile,
            rng: derive_seed(seed, 0x7E1E_C0DE),
            order: 0,
            rto: rto.max(1),
            dedup_window: dedup_window.max(1),
            wires: Vec::new(),
            due: Vec::new(),
            batch: Vec::new(),
            acks: Vec::new(),
            outbox: Vec::new(),
            send_seq: BTreeMap::new(),
            dedup: BTreeMap::new(),
            heard: BTreeMap::new(),
            blocked: BTreeSet::new(),
            stats: NetStats::default(),
        }
    }

    /// The plane's counters so far.
    pub fn stats(&self) -> NetStats {
        self.stats
    }

    /// Blocks the directed link `from → to` (frames transmitted while
    /// blocked are lost; the reverse direction is untouched).
    pub fn block(&mut self, from: NodeId, to: NodeId) {
        self.blocked.insert(link(from, to));
    }

    /// Blocks both directions between `a` and `b` (a full partition of
    /// the pair).
    pub fn partition_pair(&mut self, a: NodeId, b: NodeId) {
        self.block(a, b);
        self.block(b, a);
    }

    /// Heals every scripted partition.
    pub fn heal_all(&mut self) {
        self.blocked.clear();
    }

    fn draw(&mut self) -> u64 {
        splitmix64(&mut self.rng)
    }

    fn chance(&mut self, ppm: u32) -> bool {
        ppm > 0 && self.draw() % 1_000_000 < u64::from(ppm)
    }

    /// One physical transmission attempt of a frame (first send or
    /// retransmit): partition check, then the stochastic faults.
    fn transmit(&mut self, src: NodeId, dst: NodeId, seq: u64, payload: P, now: u64) {
        if self.blocked.contains(&link(src, dst)) {
            self.stats.partitioned += 1;
            return;
        }
        if self.chance(self.profile.drop_ppm) {
            self.stats.dropped += 1;
            return;
        }
        if self.chance(self.profile.dup_ppm) {
            self.stats.duplicated += 1;
            self.put_on_wire(src, dst, seq, payload.clone(), now);
        }
        self.put_on_wire(src, dst, seq, payload, now);
    }

    /// Queues one in-flight copy, with its seeded delay and reorder.
    fn put_on_wire(&mut self, src: NodeId, dst: NodeId, seq: u64, payload: P, now: u64) {
        let extra = if self.profile.delay_max > 0 && self.chance(self.profile.delay_ppm) {
            1 + self.draw() % self.profile.delay_max
        } else {
            0
        };
        let mut order = self.order;
        self.order += 1;
        if self.chance(self.profile.reorder_ppm) {
            // Perturb the relative order within the delivery tick:
            // jump the frame ahead of up to 16 later sends.
            order += 1 + self.draw() % 16;
        }
        self.wires.push(Wire { deliver_at: now + extra, order, src, dst, seq, payload });
    }

    fn transmit_ack(&mut self, src: NodeId, dst: NodeId, seq: u64, now: u64) {
        // Acks ride the reverse link and suffer the same partition and
        // drop faults; a lost ack just means one more retransmission.
        if self.blocked.contains(&link(src, dst)) {
            self.stats.partitioned += 1;
            return;
        }
        if self.chance(self.profile.drop_ppm) {
            self.stats.dropped += 1;
            return;
        }
        let extra = if self.profile.delay_max > 0 && self.chance(self.profile.delay_ppm) {
            1 + self.draw() % self.profile.delay_max
        } else {
            0
        };
        self.acks.push(AckWire { deliver_at: now + extra, src, dst, seq });
    }

    /// Sends `payload` from `src` to `dst` at tick `now`: assigns the
    /// link's next seq, stores the frame in the outbox (retransmitted
    /// every `rto` ticks until acked), and attempts the first
    /// transmission. Returns the assigned seq.
    pub fn send(&mut self, src: NodeId, dst: NodeId, payload: P, now: u64) -> u64 {
        let seq = {
            let s = self.send_seq.entry(link(src, dst)).or_insert(0);
            let seq = *s;
            *s += 1;
            seq
        };
        self.stats.sent += 1;
        self.transmit(src, dst, seq, payload.clone(), now);
        self.outbox.push(Pending { src, dst, seq, payload, last_sent: now, applied: false });
        seq
    }

    /// One plane tick: applies due acks, retransmits overdue outbox
    /// frames, and appends the fresh data frames due for delivery to
    /// `out`, in deterministic `(deliver_at, order)` order with
    /// duplicates already filtered (and re-acked). The caller must
    /// [`SimNet::accept`] or [`SimNet::refuse`] each surfaced frame.
    pub fn pump(&mut self, now: u64, out: &mut Vec<Delivery<P>>) {
        // 1. Apply due acks first: an ack that has already arrived must
        //    cancel the retransmission it races, or every clean round
        //    trip would spuriously retransmit once the RTO elapses in the
        //    same pump.
        let (outbox, heard) = (&mut self.outbox, &mut self.heard);
        self.acks.retain(|ack| {
            if ack.deliver_at > now {
                return true;
            }
            // The ack travels dst→src of the data link: it acks seq on
            // the (ack.dst, ack.src) data link.
            let acked = |p: &Pending<P>| p.src == ack.dst && p.dst == ack.src && p.seq == ack.seq;
            if let Some(i) = outbox.iter().position(acked) {
                outbox.remove(i);
            }
            heard.insert(link(ack.src, ack.dst), now);
            false
        });
        // 2. Retransmit overdue unacked frames.
        for i in 0..self.outbox.len() {
            let p = &mut self.outbox[i];
            if now.saturating_sub(p.last_sent) < self.rto {
                continue;
            }
            p.last_sent = now;
            let (src, dst, seq, payload) = (p.src, p.dst, p.seq, p.payload.clone());
            self.stats.retransmits += 1;
            self.transmit(src, dst, seq, payload, now);
        }
        // 3. Deliver due data frames in deterministic order, filtering
        //    duplicates of already-accepted seqs. On a faultless plane
        //    every frame is due, and the wire list is taken whole.
        let mut due = std::mem::take(&mut self.due);
        if self.wires.iter().all(|w| w.deliver_at <= now) {
            std::mem::swap(&mut due, &mut self.wires);
        } else {
            due.extend(self.wires.extract_if(.., |w| w.deliver_at <= now));
        }
        due.sort_by_key(|w| (w.deliver_at, w.order));
        self.batch.clear();
        for w in due.drain(..) {
            let accepted_before =
                self.dedup.get(&link(w.src, w.dst)).is_some_and(|d| d.contains(w.seq));
            if accepted_before {
                // Retransmit of an applied frame: filter, and re-ack in
                // case the earlier ack was lost.
                self.stats.deduped += 1;
                self.transmit_ack(w.dst, w.src, w.seq, now);
                continue;
            }
            let frame = (w.src, w.dst, w.seq);
            if self.batch.contains(&frame) {
                // An in-flight duplicate landing the same tick as its
                // twin: drop silently. If the twin is accepted its ack
                // covers both; if it is refused, no ack may be sent.
                self.stats.deduped += 1;
                continue;
            }
            self.batch.push(frame);
            out.push(Delivery { src: w.src, dst: w.dst, seq: w.seq, payload: w.payload });
        }
        self.due = due;
    }

    /// Accepts a delivered frame: enters its seq into the link's dedup
    /// window (later copies are filtered), schedules the ack, and marks
    /// the outbox entry applied.
    pub fn accept(&mut self, src: NodeId, dst: NodeId, seq: u64, now: u64) {
        self.stats.delivered += 1;
        self.dedup.entry(link(src, dst)).or_default().insert(seq, self.dedup_window);
        self.heard.insert(link(src, dst), now);
        self.transmit_ack(dst, src, seq, now);
        if let Some(p) =
            self.outbox.iter_mut().find(|p| p.src == src && p.dst == dst && p.seq == seq)
        {
            p.applied = true;
        }
    }

    /// The last tick `dst` heard from `src`: an ack `src` sent arriving,
    /// or a frame `src` sent being accepted. `None` before either.
    pub(crate) fn last_heard(&self, src: NodeId, dst: NodeId) -> Option<u64> {
        self.heard.get(&link(src, dst)).copied()
    }

    /// Refuses a delivered frame (dead or retired endpoint): no ack, no
    /// dedup entry — the sender keeps retransmitting until a failover
    /// discards or re-routes the pending frame.
    pub fn refuse(&mut self) {
        self.stats.refused += 1;
    }

    /// How many sent frames no receiver has applied yet satisfy `pred`,
    /// which sees each frame's destination and payload.
    pub fn count_unapplied(&self, pred: impl Fn(NodeId, &P) -> bool) -> u64 {
        self.outbox.iter().filter(|p| !p.applied && pred(p.dst, &p.payload)).count() as u64
    }

    /// Removes every pending frame destined to `dst` and returns them
    /// with their applied flag. A failover calls this: applied frames are
    /// already accounted at the receiver (the journal is the authority)
    /// and are discarded; unapplied frames never reached it and are
    /// re-routed by the caller.
    pub fn take_pending_to(&mut self, dst: NodeId) -> Vec<(NodeId, u64, P, bool)> {
        self.outbox
            .extract_if(.., |p| p.dst == dst)
            .map(|p| (p.src, p.seq, p.payload, p.applied))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: NodeId = NodeId::Coordinator;
    const B: NodeId = NodeId::Shard(1);

    fn pump(net: &mut SimNet<u32>, now: u64) -> Vec<Delivery<u32>> {
        let mut due = Vec::new();
        net.pump(now, &mut due);
        due
    }

    fn drain_accept(net: &mut SimNet<u32>, now: u64) -> Vec<u32> {
        let mut out = Vec::new();
        for d in pump(net, now) {
            net.accept(d.src, d.dst, d.seq, now);
            out.push(d.payload);
        }
        out
    }

    #[test]
    fn ideal_plane_delivers_same_tick_in_send_order() {
        let mut net: SimNet<u32> = SimNet::new(NetProfile::ideal(), 7, 64, 2);
        for v in 0..10 {
            net.send(A, B, v, 5);
        }
        assert_eq!(drain_accept(&mut net, 5), (0..10).collect::<Vec<_>>());
        // Acked next tick; nothing retransmits, nothing re-delivers.
        assert!(pump(&mut net, 6).is_empty());
        assert!(pump(&mut net, 7).is_empty());
        assert!(net.take_pending_to(B).is_empty(), "acks cleared the outbox");
        let s = net.stats();
        assert_eq!((s.dropped, s.duplicated, s.deduped, s.retransmits), (0, 0, 0, 0));
    }

    #[test]
    fn dropped_frames_are_retransmitted_until_acked() {
        // 100% drop: nothing arrives while the fault holds.
        let mut net: SimNet<u32> =
            SimNet::new(NetProfile { drop_ppm: 1_000_000, ..NetProfile::ideal() }, 7, 64, 2);
        net.send(A, B, 42, 0);
        assert!(pump(&mut net, 0).is_empty());
        assert!(pump(&mut net, 2).is_empty(), "retransmit at rto also dropped");
        assert!(net.stats().retransmits >= 1);
        // Heal the fault: the next retransmission lands exactly once.
        net.profile.drop_ppm = 0;
        let mut got = Vec::new();
        for now in 3..10 {
            got.extend(drain_accept(&mut net, now));
        }
        assert_eq!(got, vec![42]);
        assert!(net.take_pending_to(B).is_empty());
    }

    #[test]
    fn duplicates_and_retransmits_apply_exactly_once() {
        // 100% duplication: every frame arrives twice; the window filters
        // the twin.
        let mut net: SimNet<u32> =
            SimNet::new(NetProfile { dup_ppm: 1_000_000, ..NetProfile::ideal() }, 7, 64, 2);
        for v in 0..20 {
            net.send(A, B, v, 1);
        }
        assert_eq!(drain_accept(&mut net, 1), (0..20).collect::<Vec<_>>());
        assert_eq!(net.stats().deduped, 20, "every twin filtered");
        // Nothing ghosts in later.
        for now in 2..8 {
            assert!(drain_accept(&mut net, now).is_empty());
        }
    }

    #[test]
    fn refused_frames_keep_retransmitting_until_taken() {
        let mut net: SimNet<u32> = SimNet::new(NetProfile::ideal(), 7, 64, 2);
        net.send(A, B, 9, 0);
        let due = pump(&mut net, 0);
        assert_eq!(due.len(), 1);
        net.refuse();
        // Refused: not deduped, not acked — the retransmit surfaces it
        // again.
        let due = pump(&mut net, 2);
        assert_eq!(due.len(), 1, "refused frame must come back");
        assert_eq!(due[0].payload, 9);
        // A failover takes it out of the outbox, unapplied.
        let pending = net.take_pending_to(B);
        assert_eq!(pending.len(), 1);
        assert!(!pending[0].3, "never applied");
        assert!(pump(&mut net, 4).is_empty() || pump(&mut net, 6).is_empty());
    }

    #[test]
    fn one_way_partition_blocks_only_that_direction() {
        let mut net: SimNet<u32> = SimNet::new(NetProfile::ideal(), 7, 64, 2);
        net.block(A, B);
        net.send(A, B, 1, 0);
        net.send(B, A, 2, 0);
        let due = pump(&mut net, 0);
        assert_eq!(due.len(), 1);
        assert_eq!((due[0].src, due[0].payload), (B, 2));
        net.accept(B, A, due[0].seq, 0);
        assert!(net.stats().partitioned >= 1);
        // Heal: the blocked frame's retransmission gets through.
        net.heal_all();
        let mut got = Vec::new();
        for now in 1..6 {
            got.extend(drain_accept(&mut net, now));
        }
        assert_eq!(got, vec![1], "at-least-once across the heal");
    }

    #[test]
    fn full_partition_loses_nothing_after_heal() {
        let mut net: SimNet<u32> = SimNet::new(NetProfile::ideal(), 7, 64, 2);
        net.partition_pair(A, B);
        for v in 0..5 {
            net.send(A, B, v, 0);
        }
        for now in 0..4 {
            assert!(pump(&mut net, now).is_empty());
        }
        net.heal_all();
        let mut got = Vec::new();
        for now in 4..12 {
            got.extend(drain_accept(&mut net, now));
        }
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn chaotic_profile_is_deterministic_and_eventually_complete() {
        let run = |seed: u64| -> (Vec<u32>, NetStats) {
            let mut net: SimNet<u32> = SimNet::new(NetProfile::chaotic(), seed, 256, 2);
            let mut got = Vec::new();
            for now in 0..200u64 {
                if now < 50 {
                    net.send(A, B, now as u32, now);
                }
                for d in pump(&mut net, now) {
                    net.accept(d.src, d.dst, d.seq, now);
                    got.push(d.payload);
                }
            }
            (got, net.stats())
        };
        let (a1, s1) = run(11);
        let (a2, s2) = run(11);
        assert_eq!(a1, a2, "same seed, same schedule");
        assert_eq!(s1, s2);
        let mut sorted = a1.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>(), "all 50 applied exactly once");
        assert_eq!(a1.len(), 50, "dedup window killed every duplicate");
        let (b1, _) = run(12);
        assert_ne!(a1, b1, "different seed, different schedule");
        assert!(s1.dropped > 0 && s1.duplicated > 0 && s1.retransmits > 0, "{s1:?}");
    }

    #[test]
    fn dedup_window_watermark_survives_eviction() {
        let mut w = DedupWindow::default();
        for seq in 0..100 {
            w.insert(seq, 8);
        }
        assert_eq!(w.watermark, 100);
        assert!(w.contains(57));
        assert!(!w.contains(100));
        // Sparse far-ahead seqs evict the lowest once past the cap.
        let mut w = DedupWindow::default();
        for seq in (0..40).step_by(2) {
            w.insert(seq, 4);
        }
        assert!(w.seen.len() <= 4);
        assert!(w.contains(38));
        assert!(w.contains(0), "evicted seqs fall below the watermark (still seen)");
    }
}
