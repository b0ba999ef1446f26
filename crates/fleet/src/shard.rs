//! One shard: an isolated admission domain with its own journal segment
//! and a panic firewall.
//!
//! A shard owns everything whose failure must stay contained: its
//! [`AdmissionController`] (queue, token buckets, byte gauge, breaker),
//! and its [`DurableSink`] journal segment (`shard-<id>.log`). Nothing is
//! shared with sibling shards, so a panic storm, memory squeeze, or
//! hostile-input burst inside one shard cannot — by construction, not by
//! discipline — touch the others.
//!
//! The panic firewall lives in [`Shard::advance`]: every tick runs under
//! `catch_unwind`, a caught panic burns one unit of the shard's restart
//! budget, and an exhausted budget flips the shard to [`ShardState::Dead`]
//! (dropping the controller, exactly as a crashed process would lose its
//! memory). The coordinator then reconciles the shard from its journal —
//! see [`crate::FleetCoordinator`].

use crate::config::DiskConfig;
use emoleak_admission::{AdmissionConfig, AdmissionController, AdmissionStats, QueuedChunk};
use emoleak_core::admission::{AdmissionError, DurabilityLevel, FleetState};
use emoleak_durable::{Defect, DurableError, FaultVfs, OsVfs, Vfs};
use emoleak_stream::durable::{DurableSink, LedgerRecord};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

/// A shard's position in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardState {
    /// Serving: routed offers land here.
    Active,
    /// Drained gracefully: queue evacuated, final ledger written, removed
    /// from the ring. Terminal.
    Fenced,
    /// Crashed (restart budget exhausted, or killed): in-memory state
    /// lost; only the journal segment remains. Terminal.
    Dead,
}

/// One health sample of one shard, as aggregated by the coordinator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardHealth {
    /// The shard's id.
    pub id: u32,
    /// Lifecycle state.
    pub state: ShardState,
    /// The shard's breaker state (Healthy → BrownOut); `BrownOut` for a
    /// dead or fenced shard.
    pub fleet: FleetState,
    /// Chunks waiting in the shard's ingest queue.
    pub queue_depth: usize,
    /// Bytes currently charged against the shard's budget.
    pub mem_charged: u64,
    /// The shard's byte budget.
    pub mem_budget: u64,
    /// Contained panics so far.
    pub restarts_used: u32,
    /// Contained panics the shard survives before dying.
    pub restart_budget: u32,
    /// Whether the shard's replica is latched (a ship failed and no scrub
    /// has repaired it yet). Always `false` for a follower-less shard.
    pub replica_latched: bool,
    /// The shard's storage durability level, as its disk gauge reports it.
    pub durability: DurabilityLevel,
    /// Records committed in memory but journaled nowhere because the
    /// gauge had degraded — honest would-be-lost-on-crash accounting.
    pub unjournaled: u64,
}

/// What one [`Shard::advance`] tick produced.
#[derive(Debug, Default)]
pub struct ShardTick {
    /// Chunks served to the backend this tick (empty if the tick panicked).
    pub served: Vec<QueuedChunk>,
    /// Whether a panic was caught (and contained) this tick.
    pub panicked: bool,
    /// Whether this tick exhausted the restart budget and killed the shard.
    pub died: bool,
}

/// An isolated admission domain: controller + journal segment + firewall.
pub struct Shard {
    id: u32,
    state: ShardState,
    /// Boxed, so a tick that hands the shard to a worker moves a small
    /// struct.
    ctrl: Option<Box<AdmissionController>>,
    sink: DurableSink,
    dir: PathBuf,
    journal_path: PathBuf,
    follower: Option<u32>,
    restarts_used: u32,
    restart_budget: u32,
    ledger_every: u64,
    next_ledger: u64,
    /// Final counters snapshotted at [`Shard::fence`], held until the
    /// coordinator books them into its retired ledger (the booking rides
    /// an `Evacuated` message and may arrive ticks later; until then the
    /// roll-up still sees these numbers).
    final_stats: Option<AdmissionStats>,
    /// The tick up to which the shard holds the serving lease.
    lease_until: u64,
    /// The breaker state and durability level the last health report
    /// carried (a fresh shard is Healthy and Durable, which the
    /// coordinator assumes without a report).
    reported: (FleetState, DurabilityLevel),
}

impl core::fmt::Debug for Shard {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Shard")
            .field("id", &self.id)
            .field("state", &self.state)
            .field("restarts_used", &self.restarts_used)
            .finish_non_exhaustive()
    }
}

/// The journal segment path for shard `id` under `dir`.
pub fn shard_journal_path(dir: &Path, id: u32) -> PathBuf {
    dir.join(format!("shard-{id}.log"))
}

/// The replica segment path for `primary`'s journal hosted on `follower`.
/// The follower id is part of the name so a rebalance re-homes to a fresh
/// file and a crashed primary's replica is findable from ring state alone.
pub fn shard_replica_path(dir: &Path, primary: u32, follower: u32) -> PathBuf {
    dir.join(format!("shard-{primary}.replica-on-{follower}.log"))
}

impl Shard {
    /// A fresh shard with its journal segment at `dir/shard-<id>.log`
    /// (truncating any previous segment — each fleet run owns its
    /// segments).
    ///
    /// Every shard journals per-chunk admit/serve/shed records (the exact
    /// replay that makes crash failover lossless). `follower` names the
    /// shard whose node hosts this shard's synchronous replica, or `None`
    /// when the ring has no other shard; a follower-less shard still
    /// journals chunks, so a process kill with the disk intact still
    /// replays exactly.
    ///
    /// `disk` carries this shard's (already reseeded) fault plan and the
    /// durability-gauge tuning. The plan picks only the VFS: a plan puts
    /// the shard's journals on a seeded `FaultVfs`, no plan on the real
    /// filesystem. The gauge runs either way.
    ///
    /// Every shard is lease-gated: it serves through `lease_until` and,
    /// past it, only while a fresher grant ([`Shard::grant_lease`]) has
    /// arrived.
    ///
    /// # Errors
    ///
    /// [`emoleak_durable::DurableError`] when a segment cannot be created.
    #[allow(clippy::too_many_arguments)] // construction facts, each orthogonal
    pub fn new(
        id: u32,
        dir: &Path,
        admission: AdmissionConfig,
        restart_budget: u32,
        ledger_every: u64,
        follower: Option<u32>,
        disk: DiskConfig,
        lease_until: u64,
    ) -> Result<Shard, emoleak_durable::DurableError> {
        let journal_path = shard_journal_path(dir, id);
        let vfs: Arc<dyn Vfs> = match disk.plan {
            Some(plan) => Arc::new(FaultVfs::new(plan)),
            None => Arc::new(OsVfs),
        };
        let replica = follower.map(|f| shard_replica_path(dir, id, f));
        let sink = DurableSink::create_with(&journal_path, replica.as_deref(), vfs, disk.gauge)?;
        let ctrl =
            AdmissionController::new(admission).with_durable(sink.clone()).with_chunk_journal();
        Ok(Shard {
            id,
            state: ShardState::Active,
            ctrl: Some(Box::new(ctrl)),
            sink,
            dir: dir.to_path_buf(),
            journal_path,
            follower,
            restarts_used: 0,
            restart_budget,
            ledger_every,
            next_ledger: ledger_every,
            final_stats: None,
            lease_until,
            reported: (FleetState::Healthy, DurabilityLevel::Durable),
        })
    }

    /// The shard's id.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// The shard's lifecycle state.
    pub fn state(&self) -> ShardState {
        self.state
    }

    /// The shard's journal segment path.
    pub fn journal_path(&self) -> &Path {
        &self.journal_path
    }

    /// The shard hosting this shard's replica, when it has a follower.
    pub fn follower(&self) -> Option<u32> {
        self.follower
    }

    /// The replica segment's path, when the shard has a follower.
    pub fn replica_path(&self) -> Option<PathBuf> {
        self.sink.replica_path()
    }

    /// Re-homes the replica to `follower` (the ring's current successor
    /// after a rebalance): the old copy is deleted and a copy of the
    /// primary is rebuilt on the new follower — or of the old replica,
    /// when the primary is damaged and the old replica is clean (see
    /// [`DurableSink::rehome_replica`]). A no-op when the follower is
    /// unchanged or the shard is retired.
    pub fn rehome_replica(&mut self, follower: Option<u32>) {
        if self.state != ShardState::Active || self.follower == follower {
            return;
        }
        let path = follower.map(|f| shard_replica_path(&self.dir, self.id, f));
        self.sink.rehome_replica(path.as_deref());
        self.follower = follower;
    }

    /// One anti-entropy scrub pass: CRC-verify the replica against the
    /// primary and read-repair any lag or divergence. Returns the defects
    /// found (detection plus repair, or a damaged primary's own defect);
    /// empty for a healthy or follower-less shard. See
    /// [`DurableSink::scrub_replica`].
    pub fn scrub(&self) -> Vec<Defect> {
        self.sink.scrub_replica()
    }

    /// Arms the nemesis: the next replica ship tears mid-frame and the
    /// replica latches (a kill landing mid-ship; the primary record still
    /// commits). See [`DurableSink::tear_replica_next`].
    pub fn tear_replica_next(&self, frac: f64) {
        self.sink.tear_replica_next(frac);
    }

    /// Arms the fencing token: the shard's incarnation holds `token`, and
    /// every journal append is checked against the shared `authority`
    /// (the coordinator's monotonic minimum). A stale incarnation's
    /// appends are refused with [`DurableError::Fenced`] before touching
    /// the file. The token is also stamped into the journal so recovery
    /// can attribute each epoch.
    pub fn arm_fence(&self, token: u64, authority: Arc<AtomicU64>) {
        self.sink.set_fence(token, authority);
    }

    /// The fencing token this shard's journal writer holds, if armed.
    pub fn fence_token(&self) -> Option<u64> {
        self.sink.fence_token()
    }

    /// Extends the lease to `until` (monotonic: a late-arriving older
    /// grant never shortens it).
    pub fn grant_lease(&mut self, until: u64) {
        self.lease_until = self.lease_until.max(until);
    }

    /// Whether the lease has expired at `now` — i.e. the shard is
    /// currently self-fenced and will not serve.
    pub fn lease_expired(&self, now: u64) -> bool {
        now > self.lease_until
    }

    /// Attempts one journal append as this shard's (possibly stale)
    /// incarnation and returns the typed refusal, if any. The chaos
    /// harness resurrects a fenced shard and calls this to prove the
    /// fencing token rejects the write without touching the bytes.
    pub fn stale_append_probe(&self, now: u64) -> Option<DurableError> {
        self.sink.record_ledger(&LedgerRecord {
            tick: now,
            offered: 0,
            served: 0,
            rejected: 0,
            shed: 0,
            queued: 0,
            migrated: 0,
        });
        self.sink.take_error()
    }

    /// The live controller, or `None` for a fenced/dead shard.
    fn ctrl_mut(&mut self) -> &mut AdmissionController {
        self.ctrl.as_mut().expect("offer/advance on a retired shard is a coordinator bug")
    }

    /// Offers one seq-tagged chunk through the shard's front door.
    ///
    /// # Errors
    ///
    /// [`AdmissionError::WritesRefused`] when the disk gauge sits at the
    /// bottom rung (the shard cannot journal *or* buffer honestly, so it
    /// refuses rather than silently accepting doomed work — the caller
    /// retries after failover); otherwise whatever the shard's
    /// [`AdmissionController`] refuses with.
    ///
    /// # Panics
    ///
    /// Panics if the shard is not [`ShardState::Active`] — the coordinator
    /// must never route to a retired shard.
    pub fn offer_tagged(
        &mut self,
        tenant: &str,
        cost: u64,
        now: u64,
        seq: u64,
    ) -> Result<(), AdmissionError> {
        assert_eq!(self.state, ShardState::Active, "offer to a retired shard");
        if !self.durability_level().accepts_writes() {
            return Err(AdmissionError::WritesRefused { shard: self.id });
        }
        self.ctrl_mut().offer_tagged(tenant, cost, now, seq)
    }

    /// Runs one tick: drain up to `capacity` chunks, feed the breaker one
    /// observation, and journal a ledger snapshot on the configured
    /// cadence — all inside the panic firewall. `inject_panic` models a
    /// hostile chunk killing the drain worker at pickup (before any chunk
    /// is dequeued, so the accounting stays consistent); the panic is
    /// caught here and never crosses the shard boundary.
    pub fn advance(&mut self, now: u64, capacity: usize, inject_panic: bool) -> ShardTick {
        if self.state != ShardState::Active {
            return ShardTick::default();
        }
        if self.lease_expired(now) {
            // Self-fenced: the lease ran out unrenewed, so for all this
            // shard knows the coordinator has already failed it over.
            // Serving now would be the split-brain half — freeze instead
            // (queue intact) until a fresher grant arrives.
            return ShardTick::default();
        }
        let ctrl = self.ctrl.as_mut().expect("active shard has a controller");
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if inject_panic {
                panic!("injected: hostile chunk killed shard {} drain worker", self.id);
            }
            let served = ctrl.drain(now, capacity);
            ctrl.observe(now);
            served
        }));
        match outcome {
            Ok(served) => {
                if now >= self.next_ledger {
                    let ctrl = self.ctrl.as_ref().expect("active shard has a controller");
                    let ledger = ledger_at(now, &ctrl.stats());
                    self.sink.record_ledger(&ledger);
                    self.next_ledger = now + self.ledger_every;
                }
                ShardTick { served, panicked: false, died: false }
            }
            Err(_) => {
                self.restarts_used += 1;
                let died = self.restarts_used > self.restart_budget;
                if died {
                    // Crash semantics: in-memory state (queue included) is
                    // gone; the journal segment is all that survives.
                    self.ctrl = None;
                    self.state = ShardState::Dead;
                }
                ShardTick { served: Vec::new(), panicked: true, died }
            }
        }
    }

    /// The health sample to report when the breaker state or `durability`
    /// (the shard's current level, which the caller has read) differs
    /// from the last report; `None` for a steady or retired shard, so a
    /// steady shard reports nothing.
    pub(crate) fn health_change(&mut self, durability: DurabilityLevel) -> Option<ShardHealth> {
        let now = (self.ctrl.as_ref()?.fleet_state(), durability);
        if now == self.reported {
            return None;
        }
        self.reported = now;
        Some(self.health())
    }

    /// Chunks waiting in the shard's ingest queue; zero for a retired
    /// shard.
    pub(crate) fn queued(&self) -> usize {
        self.ctrl.as_deref().map_or(0, AdmissionController::queue_depth)
    }

    /// One health sample for the coordinator's fleet view.
    pub fn health(&self) -> ShardHealth {
        let (fleet, mem_charged, mem_budget) = match &self.ctrl {
            Some(c) => (c.fleet_state(), c.stats().mem_charged, c.config().mem_budget),
            None => (FleetState::BrownOut, 0, 0),
        };
        let queue_depth = self.queued();
        ShardHealth {
            id: self.id,
            state: self.state,
            fleet,
            queue_depth,
            mem_charged,
            mem_budget,
            restarts_used: self.restarts_used,
            restart_budget: self.restart_budget,
            replica_latched: self.sink.replica_latched(),
            durability: self.durability_level(),
            unjournaled: self.sink.unjournaled(),
        }
    }

    /// The shard's storage durability level, as its disk gauge reports it.
    pub fn durability_level(&self) -> DurabilityLevel {
        self.sink.durability_level()
    }

    /// Records that committed in memory but reached no journal because
    /// the gauge had degraded. See [`DurableSink::unjournaled`].
    pub fn unjournaled(&self) -> u64 {
        self.sink.unjournaled()
    }

    /// Drains the shard's durability transitions observed so far, as
    /// `(seq, from, to)` in the sink's record clock. The coordinator
    /// re-stamps them onto its tick clock when it surfaces them as
    /// [`ServiceEvent::DurabilityTransition`](emoleak_stream::ServiceEvent).
    pub fn take_durability_transitions(
        &self,
    ) -> Vec<(u64, DurabilityLevel, DurabilityLevel)> {
        self.sink.take_durability_transitions()
    }

    /// Current admission counters: the live controller's, or — for a
    /// fenced shard whose final snapshot has not yet been booked into the
    /// coordinator's retired ledger — the frozen final counters, so the
    /// fleet-wide roll-up conserves across the in-flight window. `None`
    /// once retired *and* booked (or dead).
    pub fn stats(&self) -> Option<AdmissionStats> {
        self.ctrl.as_deref().map(AdmissionController::stats).or(self.final_stats)
    }

    /// Consumes the fenced shard's final counters (the coordinator calls
    /// this exactly once, when it books them into its retired ledger).
    pub fn take_final_stats(&mut self) -> Option<AdmissionStats> {
        self.final_stats.take()
    }

    /// Gracefully retires the shard: evacuates its queue (each chunk
    /// counted `migrated`, bytes released), writes the final ledger, and
    /// fences it. Returns the evacuated chunks (seq tags intact, ready to
    /// re-offer elsewhere) and the shard's final counters for the
    /// coordinator's retired ledger.
    ///
    /// # Panics
    ///
    /// Panics if the shard is not [`ShardState::Active`].
    pub fn fence(&mut self, now: u64) -> (Vec<QueuedChunk>, AdmissionStats) {
        assert_eq!(self.state, ShardState::Active, "fence on a retired shard");
        let ctrl = self.ctrl.as_mut().expect("active shard has a controller");
        let evacuated = ctrl.evacuate();
        let stats = ctrl.stats();
        self.sink.record_ledger(&ledger_at(now, &stats));
        self.ctrl = None;
        self.state = ShardState::Fenced;
        self.final_stats = Some(stats);
        (evacuated, stats)
    }

    /// Hard-kills the shard: no evacuation, no final ledger — exactly what
    /// a `SIGKILL` leaves behind. The chaos harness uses this; recovery
    /// goes through the journal segment.
    pub fn kill(&mut self) {
        self.ctrl = None;
        self.state = ShardState::Dead;
        // A crash loses memory — any unbooked final snapshot included.
        // The journal segment is the sole authority from here, so the
        // coordinator's reconciliation cannot double-count.
        self.final_stats = None;
    }

    /// Kills the shard *and destroys its local disk*: the primary journal
    /// segment is deleted along with the in-memory state. Only the replica
    /// on the follower's node survives — this is the failure replication
    /// exists for. (The open handle keeps writing into an unlinked inode,
    /// exactly like a real machine loss severing the disk.)
    pub fn kill_with_disk_loss(&mut self) {
        self.kill();
        let _ = std::fs::remove_file(&self.journal_path);
    }
}

/// A ledger snapshot of `stats` at tick `now`.
fn ledger_at(now: u64, s: &AdmissionStats) -> LedgerRecord {
    LedgerRecord {
        tick: now,
        offered: s.offered,
        served: s.served,
        rejected: s.rejected,
        shed: s.shed,
        queued: s.queued,
        migrated: s.migrated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emoleak_stream::durable::recover_run;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("emoleak-shard-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn shard(dir: &Path) -> Shard {
        let disk = DiskConfig::default();
        Shard::new(0, dir, AdmissionConfig::default(), 2, 10, None, disk, u64::MAX).unwrap()
    }

    #[test]
    fn panics_are_contained_and_budgeted() {
        let dir = scratch("panic");
        let mut s = shard(&dir);
        s.offer_tagged("a", 64, 0, 0).unwrap();
        // Two contained panics: still Active, queue intact.
        for now in 1..=2 {
            let tick = s.advance(now, 8, true);
            assert!(tick.panicked && !tick.died);
            assert_eq!(s.state(), ShardState::Active);
        }
        assert_eq!(s.health().queue_depth, 1, "contained panic must not lose the queue");
        // The third exhausts the budget of 2: Dead, controller gone.
        let tick = s.advance(3, 8, true);
        assert!(tick.panicked && tick.died);
        assert_eq!(s.state(), ShardState::Dead);
        assert!(s.stats().is_none());
        // A dead shard's advance is a no-op, not a panic.
        let tick = s.advance(4, 8, false);
        assert!(tick.served.is_empty() && !tick.panicked);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn ledgers_land_on_cadence_and_on_fence() {
        let dir = scratch("ledger");
        let mut s = shard(&dir);
        for now in 0..25 {
            s.offer_tagged("a", 64, now, now).unwrap();
            s.advance(now, 1, false);
        }
        // Cadence 10 with next_ledger starting at 10: ticks 10 and 20.
        let (evacuated, stats) = s.fence(25);
        assert!(evacuated.is_empty(), "capacity 1 kept up with 1 offer/tick");
        assert_eq!(stats.offered, stats.served + stats.migrated);
        let (run, defects) = recover_run(s.journal_path()).unwrap();
        assert!(defects.is_empty(), "{defects:?}");
        assert_eq!(
            run.ledgers.iter().map(|l| l.tick).collect::<Vec<_>>(),
            vec![10, 20, 25],
            "cadence ledgers plus the fence ledger"
        );
        let last = run.ledgers.last().unwrap();
        assert_eq!(last.offered, stats.offered);
        assert_eq!(last.served, stats.served);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn disk_loss_leaves_only_the_replica_and_rehome_moves_it() {
        let dir = scratch("diskloss");
        let mut s = Shard::new(
            0,
            &dir,
            AdmissionConfig::default(),
            2,
            10,
            Some(1),
            DiskConfig::default(),
            u64::MAX,
        )
        .unwrap();
        for now in 0..12 {
            s.offer_tagged("a", 64, now, now).unwrap();
            s.advance(now, 1, false);
        }
        assert_eq!(s.follower(), Some(1));
        let old_replica = s.replica_path().unwrap();
        assert_eq!(old_replica, shard_replica_path(&dir, 0, 1));

        // Rebalance: the follower moves to shard 2; the old copy is gone,
        // the new copy replays the full primary stream.
        s.rehome_replica(Some(2));
        assert!(!old_replica.exists(), "rehome must delete the old copy");
        let replica = s.replica_path().unwrap();
        assert_eq!(replica, shard_replica_path(&dir, 0, 2));
        let (primary_run, _) = recover_run(s.journal_path()).unwrap();
        let (replica_run, defects) = recover_run(&replica).unwrap();
        assert!(defects.is_empty(), "{defects:?}");
        assert_eq!(primary_run, replica_run, "rehome rebuilds the exact stream");
        assert_eq!(primary_run.admits.len(), 12, "chunk journaling records every admit");

        // Disk loss: the primary file is gone; the replica still replays.
        s.kill_with_disk_loss();
        assert_eq!(s.state(), ShardState::Dead);
        assert!(!s.journal_path().exists(), "the primary disk is gone");
        let (survivor, defects) = recover_run(&replica).unwrap();
        assert!(defects.is_empty(), "{defects:?}");
        assert_eq!(survivor, replica_run);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn enospc_pins_durability_and_refuses_at_the_front_door() {
        use emoleak_durable::FaultPlan;
        use emoleak_stream::DiskGaugeConfig;
        let dir = scratch("enospc");
        // A 64-byte disk with the refuse watermark far above it: the first
        // journal append that probes free space pins the gauge straight to
        // the bottom rung.
        let disk = DiskConfig {
            plan: Some(FaultPlan { byte_budget: 64, ..FaultPlan::quiet(9) }),
            gauge: DiskGaugeConfig {
                low_water: 1 << 20,
                refuse_water: 1 << 20,
                ..DiskGaugeConfig::default()
            },
        };
        let mut s =
            Shard::new(0, &dir, AdmissionConfig::default(), 2, 10, None, disk, u64::MAX)
                .unwrap();
        assert_eq!(s.durability_level(), DurabilityLevel::Durable);
        for now in 0..=10 {
            let _ = s.offer_tagged("a", 64, now, now);
            s.advance(now, 1, false);
        }
        assert_eq!(s.durability_level(), DurabilityLevel::RefuseWrites);
        let err = s.offer_tagged("a", 64, 11, 11).unwrap_err();
        assert!(matches!(err, AdmissionError::WritesRefused { shard: 0 }), "{err:?}");
        let h = s.health();
        assert_eq!(h.durability, DurabilityLevel::RefuseWrites);
        let moves = s.take_durability_transitions();
        assert!(
            moves.iter().all(|(_, from, to)| to > from),
            "pressure-only runs degrade monotonically: {moves:?}"
        );
        assert!(!moves.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn kill_leaves_only_the_journal() {
        let dir = scratch("kill");
        let mut s = shard(&dir);
        for now in 0..12 {
            s.offer_tagged("a", 64, now, now).unwrap();
            s.advance(now, 1, false);
        }
        s.kill();
        assert_eq!(s.state(), ShardState::Dead);
        let (run, _) = recover_run(s.journal_path()).unwrap();
        assert!(!run.complete, "a killed shard never writes a summary");
        assert_eq!(run.ledgers.last().unwrap().tick, 10, "only the cadence ledger");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
