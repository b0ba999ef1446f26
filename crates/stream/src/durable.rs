//! Durable journaling for the streaming service and the fleet's shards.
//!
//! A long-lived capture service is routinely killed — by the OS, a battery
//! manager, or a chaos harness. [`DurableSink`] writes each event to a
//! write-ahead journal (`emoleak-durable`) *at the moment it commits*, so a
//! kill loses at most the record being appended: a session's region
//! emissions and ladder [`Transition`]s, and a shard's fleet-breaker and
//! disk-gauge transitions, load sheds, chunk admits and serves, ledger
//! snapshots and fencing stamps. A replicated sink appends each record to
//! its follower's journal right after the primary. [`recover_run`] replays
//! a journal — including one torn by a kill mid-append — back into typed
//! records.
//!
//! Appends run inside a session's classify step or a shard's tick, where an
//! `Err` has no caller to land in. Every sink therefore owns a disk gauge
//! ([`crate::disk`]): a failed or stalled append walks the sink down the
//! durability ladder, a record that reaches no journal is counted in
//! [`DurableSink::unjournaled`], and clean appends climb it back.
//! Classification and admission never block on a broken disk. Only a
//! fencing refusal latches ([`DurableSink::take_error`]): a stale writer
//! stops for good.

use crate::disk::{DiskGauge, DiskGaugeConfig, DiskOutcome};
use crate::ladder::Transition;
use crate::service::RegionEmission;
use emoleak_core::admission::{DurabilityLevel, FleetState};
use emoleak_core::online::{InferenceLevel, Verdict};
use emoleak_core::Rung;
use emoleak_durable::{
    compare_streams, merge_streams, rebuild_journal_with, Dec, Defect, DurableError, Enc,
    Journal, OsVfs, Record, StreamDiff, Vfs, WireError,
};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Journal record kind: one committed region emission.
pub const REC_EMISSION: u8 = 1;
/// Journal record kind: one degradation-ladder transition.
pub const REC_TRANSITION: u8 = 2;
/// Journal record kind: end-of-run summary (its presence marks a run that
/// shut down cleanly rather than being killed).
pub const REC_RUN_SUMMARY: u8 = 3;
/// Journal record kind: one fleet-breaker state transition.
pub const REC_FLEET_TRANSITION: u8 = 4;
/// Journal record kind: one CoDel load shed.
pub const REC_LOAD_SHED: u8 = 5;
/// Journal record kind: one periodic shard admission ledger snapshot.
pub const REC_SHARD_LEDGER: u8 = 6;
/// Journal record kind: one chunk admitted into the shard queue
/// (write-ahead: journaled *before* the enqueue, so a crash between the
/// two replays a chunk that was never queued — harmless at-least-once).
pub const REC_CHUNK_ADMIT: u8 = 7;
/// Journal record kind: one queued chunk served.
pub const REC_CHUNK_SERVE: u8 = 8;
/// Journal record kind: the writer's fencing-token stamp. Written when a
/// coordinator hands a journal to a shard incarnation; recovery surfaces
/// the last stamp so a successor can prove which incarnation wrote the
/// tail.
pub const REC_FENCE_EPOCH: u8 = 9;
/// Journal record kind: one disk-gauge durability transition. Journaled
/// best-effort at the *new* level (a transition into `MemoryOnly` or
/// `RefuseWrites` has nowhere durable to land and is carried only in
/// memory), so recovery can see when and how far the writer's storage had
/// degraded.
pub const REC_DURABILITY: u8 = 10;

/// One snapshot of a shard's admission counters, journaled periodically so
/// a fleet coordinator can reconcile a crash-killed shard: the last ledger
/// plus the journaled sheds after it bound exactly how many routed chunks
/// the shard can account for.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LedgerRecord {
    /// The logical tick the snapshot was taken at.
    pub tick: u64,
    /// Chunks offered to the shard so far.
    pub offered: u64,
    /// Chunks served so far.
    pub served: u64,
    /// Chunks rejected at the front door so far.
    pub rejected: u64,
    /// Chunks CoDel shed so far.
    pub shed: u64,
    /// Chunks queued at snapshot time.
    pub queued: u64,
    /// Chunks evacuated to other shards so far.
    pub migrated: u64,
}

/// One chunk admission, journaled write-ahead of the enqueue. Together
/// with [`ChunkServe`] and the shed records, these reconstruct a crashed
/// shard's exact queue: `queued = admits − serves − sheds` by
/// `(tenant, seq)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkAdmit {
    /// The logical tick the chunk was admitted at.
    pub tick: u64,
    /// The owning tenant.
    pub tenant: String,
    /// The coordinator-assigned per-tenant sequence number.
    pub seq: u64,
    /// The chunk's admission cost (token/memory units).
    pub cost: u64,
}

/// One chunk leaving the queue as served work.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkServe {
    /// The logical tick the chunk was served at.
    pub tick: u64,
    /// The owning tenant.
    pub tenant: String,
    /// The coordinator-assigned per-tenant sequence number.
    pub seq: u64,
}

/// Encodes a `(clock, from, to)` rung transition: the clock, then each
/// rung as its [`Rung::index`].
fn encode_transition<L: Rung>(clock: u64, t: Transition<L>) -> Vec<u8> {
    let mut enc = Enc::new();
    enc.u64(clock).u8(t.from.index() as u8).u8(t.to.index() as u8);
    enc.into_bytes()
}

/// Decodes a record written by [`encode_transition`].
fn decode_transition<L: Rung>(dec: &mut Dec) -> Result<(u64, Transition<L>), WireError> {
    Ok((dec.u64()?, Transition { from: decode_rung(dec)?, to: decode_rung(dec)? }))
}

/// Reads one rung's index code.
fn decode_rung<L: Rung>(dec: &mut Dec) -> Result<L, WireError> {
    let offset = dec.offset();
    let code = dec.u8()?;
    L::from_index(usize::from(code)).ok_or_else(|| WireError {
        offset,
        detail: format!("unknown {} code {code}", std::any::type_name::<L>()),
    })
}

fn encode_emission(e: &RegionEmission) -> Vec<u8> {
    let mut enc = Enc::new();
    enc.u64(e.window as u64)
        .u64(e.start as u64)
        .u64(e.end as u64)
        .u64(e.truth as u64)
        .u8(e.verdict.level.index() as u8)
        .u8(u8::from(e.verdict.is_speech))
        .u8(u8::from(e.verdict.label.is_some()))
        .u64(e.verdict.label.unwrap_or(0) as u64)
        .u8(u8::from(e.deadline_missed))
        .u64(e.latency.as_nanos() as u64);
    enc.into_bytes()
}

fn decode_emission(region: u64, dec: &mut Dec) -> Result<RegionEmission, WireError> {
    let window = dec.u64()? as usize;
    let start = dec.u64()? as usize;
    let end = dec.u64()? as usize;
    let truth = dec.u64()? as usize;
    let level = decode_rung(dec)?;
    let is_speech = dec.u8()? != 0;
    let has_label = dec.u8()? != 0;
    let label_raw = dec.u64()? as usize;
    let deadline_missed = dec.u8()? != 0;
    let latency = Duration::from_nanos(dec.u64()?);
    Ok(RegionEmission {
        region,
        window,
        start,
        end,
        truth,
        verdict: Verdict { level, label: has_label.then_some(label_raw), is_speech },
        deadline_missed,
        latency,
    })
}

/// The sink's fencing guard: the writer's incarnation token checked
/// against a shared storage-side authority on every append. The authority
/// holds the minimum token it still accepts; a coordinator bumps it past a
/// fenced incarnation's token at failover, so a resurrected stale writer's
/// appends are refused before they touch the file.
#[derive(Debug, Clone)]
struct FenceGuard {
    token: u64,
    authority: Arc<AtomicU64>,
    /// Whether the `REC_FENCE_EPOCH` stamp is journaled yet. It goes out
    /// ahead of the incarnation's first record, so an incarnation that
    /// never writes costs no append.
    stamped: bool,
}

struct SinkInner {
    journal: Journal,
    /// Synchronous replica journal (the follower shard's copy). `None`
    /// when replication is off.
    replica: Option<Journal>,
    seq: u64,
    /// The fencing refusal, latched: a fenced writer journals nothing more.
    error: Option<DurableError>,
    /// Replica failures latch separately: a dead follower must never stop
    /// the primary from committing.
    replica_error: Option<DurableError>,
    /// Armed nemesis: tear the next replica append after this fraction of
    /// its frame bytes (a kill landing mid-ship).
    tear_replica: Option<f64>,
    /// Fencing guard; `None` when the sink's writer is not fenced (solo
    /// deployments).
    fence: Option<FenceGuard>,
    /// The VFS every durable byte of this sink crosses — `OsVfs` in
    /// production, a `FaultVfs` under the disk nemesis.
    vfs: Arc<dyn Vfs>,
    /// The disk-health gauge driving the durability ladder.
    gauge: DiskGauge,
    /// Records that committed in memory but reached no journal, because
    /// the gauge had degraded or every write of the record failed — the
    /// honest would-be-lost-on-crash count.
    unjournaled: u64,
    /// Gauge transitions as `(seq, from, to)`, drained by the shard for
    /// service-log events and tick accounting.
    durability_log: Vec<(u64, DurabilityLevel, DurabilityLevel)>,
}

/// A thread-safe handle journaling service events as they commit. Cloning
/// shares the underlying journal.
#[derive(Clone)]
pub struct DurableSink {
    inner: Arc<Mutex<SinkInner>>,
}

impl core::fmt::Debug for DurableSink {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        f.debug_struct("DurableSink")
            .field("path", &inner.journal.path())
            .field("seq", &inner.seq)
            .field("error", &inner.error)
            .finish()
    }
}

/// The sink's one append path: journaling follows the gauge's current
/// durability level, every outcome feeds the gauge, and a record that
/// reaches no journal is counted as unjournaled.
fn append_record(inner: &mut SinkInner, kind: u8, data: &[u8]) {
    let seq = inner.seq;
    inner.seq += 1;
    let (journaled, outcome) = write_record(inner, inner.gauge.level(), kind, seq, data);
    if !journaled {
        inner.unjournaled += 1;
    }
    if let Some(t) = inner.gauge.observe(outcome) {
        apply_transition(inner, seq, t);
    }
}

/// Writes one record to the copies `level` journals and returns whether
/// any copy took it, with the outcome the gauge scores.
fn write_record(
    inner: &mut SinkInner,
    level: DurabilityLevel,
    kind: u8,
    seq: u64,
    data: &[u8],
) -> (bool, DiskOutcome) {
    let free_space = inner.vfs.free_space(inner.journal.path());
    let mut outcome = DiskOutcome { errored: false, stall_ticks: 0, free_space };
    let mut journaled = false;
    if level.journals_primary() {
        let result = inner.journal.append(kind, seq, data);
        outcome.stall_ticks += inner.journal.take_stalled_ticks();
        match result {
            Ok(()) => journaled = true,
            Err(_) => outcome.errored = true,
        }
    }
    if level.journals_replica() && inner.replica_error.is_none() {
        let tear = inner.tear_replica.take();
        if let Some(replica) = inner.replica.as_mut() {
            let result = match tear {
                Some(frac) => replica.append_torn(kind, seq, data, frac).and(Err(
                    DurableError::Injected {
                        op: seq,
                        detail: "replica ship torn mid-write".into(),
                    },
                )),
                None => replica.append(kind, seq, data),
            };
            outcome.stall_ticks += replica.take_stalled_ticks();
            match result {
                Ok(()) => journaled = true,
                Err(e) => {
                    // At ReplicaOnly the replica *is* the shard's
                    // durability, so its failure drives the gauge; at
                    // Durable a dead follower stays the follower's problem.
                    if level > DurabilityLevel::Durable {
                        outcome.errored = true;
                    }
                    inner.replica_error = Some(e);
                }
            }
        }
    }
    (journaled, outcome)
}

/// Bookkeeping for one gauge transition: log it, reopen any journal the
/// climb re-enables (its handle may be poisoned by the very faults that
/// degraded it; the reopen cuts the file back to the handle's last synced
/// record, so a record whose fsync failed never stays under later ones),
/// and journal the transition record best-effort at the *new* level: its
/// outcome does not feed the gauge, and it takes a seq only if a copy
/// took it.
fn apply_transition(inner: &mut SinkInner, tick: u64, t: Transition<DurabilityLevel>) {
    inner.durability_log.push((tick, t.from, t.to));
    if t.to < t.from {
        if t.to.journals_primary() {
            if let Ok(journal) = inner.journal.reopen_with(inner.vfs.as_ref()) {
                inner.journal = journal;
            }
            // A failed reopen leaves the old handle; the next append's
            // error feeds the gauge and degrades again.
        }
        if t.to.journals_replica() {
            if let Some(Ok(journal)) =
                inner.replica.as_ref().map(|r| r.reopen_with(inner.vfs.as_ref()))
            {
                inner.replica = Some(journal);
                inner.replica_error = None;
            }
        }
    }
    let data = encode_transition(tick, t);
    let (journaled, _) = write_record(inner, t.to, REC_DURABILITY, inner.seq, &data);
    inner.seq += u64::from(journaled);
}

impl DurableSink {
    /// Creates a fresh journal at `path` (truncating an existing one — each
    /// service run is its own journal) on the real filesystem, with the
    /// default disk gauge.
    ///
    /// # Errors
    ///
    /// [`DurableError::Io`] when the journal cannot be created.
    pub fn create(path: &Path) -> Result<DurableSink, DurableError> {
        DurableSink::create_with(path, None, Arc::new(OsVfs), DiskGaugeConfig::default())
    }

    /// [`DurableSink::create`] plus a synchronous replica at
    /// `replica_path`. Every committed record is shipped to the replica
    /// immediately after the primary fsync; a replica failure latches
    /// separately ([`DurableSink::take_replica_error`]) and never blocks
    /// the primary.
    ///
    /// # Errors
    ///
    /// [`DurableError::Io`] when either journal cannot be created.
    pub fn create_replicated(path: &Path, replica_path: &Path) -> Result<DurableSink, DurableError> {
        let vfs = Arc::new(OsVfs);
        DurableSink::create_with(path, Some(replica_path), vfs, DiskGaugeConfig::default())
    }

    /// A sink journaling to `path` and, when `replica` is set, shipping
    /// each record to a synchronous replica there. Every durable byte
    /// crosses `vfs` — [`OsVfs`] for the real disk, a
    /// [`FaultVfs`](emoleak_durable::FaultVfs) under the disk nemesis — and
    /// the disk gauge tuned by `gauge` walks the sink down the durability
    /// ladder when appends fail or stall.
    ///
    /// # Errors
    ///
    /// [`DurableError::Io`] when either journal cannot be created.
    pub fn create_with(
        path: &Path,
        replica: Option<&Path>,
        vfs: Arc<dyn Vfs>,
        gauge: DiskGaugeConfig,
    ) -> Result<DurableSink, DurableError> {
        let journal = Journal::create_with(path, vfs.as_ref())?;
        let replica = replica.map(|r| Journal::create_with(r, vfs.as_ref())).transpose()?;
        Ok(DurableSink {
            inner: Arc::new(Mutex::new(SinkInner {
                journal,
                replica,
                seq: 0,
                error: None,
                replica_error: None,
                tear_replica: None,
                fence: None,
                vfs,
                gauge: DiskGauge::new(gauge),
                unjournaled: 0,
                durability_log: Vec::new(),
            })),
        })
    }

    /// Arms the fencing guard: every later append checks `token` against
    /// the shared `authority` (the storage-side minimum-valid token) and
    /// refuses with [`DurableError::Fenced`] once the authority moves past
    /// it. The stamp itself is journaled (`REC_FENCE_EPOCH`) ahead of the
    /// first record the sink writes under it, so recovery can prove which
    /// incarnation wrote the tail.
    pub fn set_fence(&self, token: u64, authority: Arc<AtomicU64>) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.fence = Some(FenceGuard { token, authority, stamped: false });
    }

    /// The fencing token this sink writes under, when fenced.
    pub fn fence_token(&self) -> Option<u64> {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.fence.as_ref().map(|f| f.token)
    }

    fn append(&self, kind: u8, data: &[u8]) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if inner.error.is_some() {
            return; // fenced: a stale writer journals nothing more
        }
        if let Some(fence) = inner.fence.as_mut() {
            let current = fence.authority.load(Ordering::SeqCst);
            if current > fence.token {
                // A stale incarnation: refuse before touching the file so
                // the successor's replay sees exactly the bytes this
                // writer committed while it was still the valid holder.
                let held = fence.token;
                inner.error = Some(DurableError::Fenced {
                    path: inner.journal.path().display().to_string(),
                    held,
                    current,
                });
                return;
            }
            if !fence.stamped {
                fence.stamped = true;
                let mut enc = Enc::new();
                enc.u64(fence.token);
                append_record(&mut inner, REC_FENCE_EPOCH, &enc.into_bytes());
            }
        }
        append_record(&mut inner, kind, data);
    }

    /// Journals one committed region emission (append + fsync).
    pub fn record_emission(&self, emission: &RegionEmission) {
        self.append(REC_EMISSION, &encode_emission(emission));
    }

    /// Journals one degradation-ladder transition, tagged with the region
    /// counter it fired at.
    pub fn record_transition(&self, region: u64, transition: Transition) {
        self.append(REC_TRANSITION, &encode_transition(region, transition));
    }

    /// Journals one fleet-breaker transition at logical tick `tick`.
    pub fn record_fleet_transition(&self, tick: u64, from: FleetState, to: FleetState) {
        self.append(REC_FLEET_TRANSITION, &encode_transition(tick, Transition { from, to }));
    }

    /// Journals one CoDel load shed: `tenant`'s chunk `seq`, queued for
    /// `sojourn` ticks, dropped at tick `tick`.
    pub fn record_shed(&self, tick: u64, tenant: &str, sojourn: u64, seq: u64) {
        let mut enc = Enc::new();
        enc.u64(tick).str(tenant).u64(sojourn).u64(seq);
        self.append(REC_LOAD_SHED, &enc.into_bytes());
    }

    /// Journals one chunk admission (write-ahead of the enqueue).
    pub fn record_admit(&self, admit: &ChunkAdmit) {
        let mut enc = Enc::new();
        enc.u64(admit.tick).str(&admit.tenant).u64(admit.seq).u64(admit.cost);
        self.append(REC_CHUNK_ADMIT, &enc.into_bytes());
    }

    /// Journals one chunk leaving the queue as served work.
    pub fn record_serve(&self, serve: &ChunkServe) {
        let mut enc = Enc::new();
        enc.u64(serve.tick).str(&serve.tenant).u64(serve.seq);
        self.append(REC_CHUNK_SERVE, &enc.into_bytes());
    }

    /// Journals one shard admission-ledger snapshot.
    pub fn record_ledger(&self, ledger: &LedgerRecord) {
        let mut enc = Enc::new();
        enc.u64(ledger.tick)
            .u64(ledger.offered)
            .u64(ledger.served)
            .u64(ledger.rejected)
            .u64(ledger.shed)
            .u64(ledger.queued)
            .u64(ledger.migrated);
        self.append(REC_SHARD_LEDGER, &enc.into_bytes());
    }

    /// Journals the end-of-run summary. A journal ending without one was
    /// killed mid-run.
    pub fn finish(&self, regions: u64, final_level: InferenceLevel) {
        let mut enc = Enc::new();
        enc.u64(regions).u8(final_level.index() as u8);
        self.append(REC_RUN_SUMMARY, &enc.into_bytes());
    }

    /// The gauge's current durability level: its last verdict, not a
    /// promise. A sink with no working replica climbs back from
    /// `ReplicaOnly` on appends that journaled nothing, so on a dead disk
    /// it reports `Durable` between failed probes;
    /// [`DurableSink::unjournaled`] is the reliable health signal.
    pub fn durability_level(&self) -> DurabilityLevel {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).gauge.level()
    }

    /// Records that committed in memory but reached no journal, because
    /// the gauge had degraded or every write of the record failed — the
    /// honest would-be-lost-on-crash count.
    pub fn unjournaled(&self) -> u64 {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).unjournaled
    }

    /// Drains the gauge transitions observed so far, as `(seq, from, to)`
    /// (the sink's record sequence is its logical clock).
    pub fn take_durability_transitions(
        &self,
    ) -> Vec<(u64, DurabilityLevel, DurabilityLevel)> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        std::mem::take(&mut inner.durability_log)
    }

    /// The fencing refusal ([`DurableError::Fenced`]), once the sink's
    /// writer has been fenced. It is the only error the sink latches: disk
    /// failures feed the gauge instead, so a journal-health check also
    /// reads [`DurableSink::unjournaled`]. Taking the refusal resets the
    /// latch, and the next append is refused again.
    pub fn take_error(&self) -> Option<DurableError> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).error.take()
    }

    /// The first replica-shipping failure, if any. A latched replica stops
    /// receiving ships until a scrub pass repairs it; the primary is
    /// unaffected.
    pub fn take_replica_error(&self) -> Option<DurableError> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).replica_error.take()
    }

    /// The replica journal's path, when replication is on.
    pub fn replica_path(&self) -> Option<PathBuf> {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.replica.as_ref().map(|r| r.path().to_path_buf())
    }

    /// Whether the replica is currently latched (a ship failed and nothing
    /// has repaired it yet). A non-consuming peek for health aggregation;
    /// [`DurableSink::take_replica_error`] consumes the underlying error.
    pub fn replica_latched(&self) -> bool {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).replica_error.is_some()
    }

    /// Re-homes the replica: drops the old copy (deleting its file) and —
    /// when `new_path` is `Some` — rebuilds a copy of the journal there.
    /// The coordinator calls this when a rebalance changes the shard's
    /// follower; `None` turns replication off (the follower chain has no
    /// peer left).
    ///
    /// The new copy holds every record the primary or the old replica
    /// holds, in sequence order ([`merge_streams`]). The old replica is
    /// read before its file is deleted, so a rehome never turns one good
    /// copy into none, and never drops a record a degraded writer
    /// journaled on the replica alone.
    ///
    /// A rebuild failure latches [`DurableSink::take_replica_error`]
    /// instead of erroring out: a dead follower must never stop the
    /// primary, and the next scrub pass retries the rebuild.
    pub fn rehome_replica(&self, new_path: Option<&Path>) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let vfs = Arc::clone(&inner.vfs);
        let target = new_path.map(|path| (path, rehome_source(&inner, vfs.as_ref())));
        if let Some(old) = inner.replica.take() {
            let old_path = old.path().to_path_buf();
            drop(old);
            let _ = std::fs::remove_file(old_path);
        }
        inner.replica_error = None;
        let Some((new_path, source)) = target else { return };
        match source.and_then(|records| rebuild_journal_with(new_path, &records, vfs.as_ref())) {
            Ok(fresh) => inner.replica = Some(fresh),
            Err(e) => inner.replica_error = Some(e),
        }
    }

    /// Arms the nemesis: the next replica ship is torn after `frac` of its
    /// frame bytes and the replica latches — a kill landing mid-ship. The
    /// primary record still commits.
    pub fn tear_replica_next(&self, frac: f64) {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).tear_replica = Some(frac);
    }

    /// Anti-entropy scrub: CRC-verifies the replica against the primary,
    /// classifies the difference, and performs deterministic read-repair.
    ///
    /// The repair target is the union of both copies' verified records in
    /// sequence order ([`merge_streams`]). A writer whose primary failed,
    /// or whose gauge held it at `ReplicaOnly`, journaled some records on
    /// the replica alone; a replica that holds those and every primary
    /// record is healthy, and a repair never drops one of them.
    ///
    /// Each journal is read once. A healthy replica is byte-identical to its
    /// primary, so its pass costs one byte compare plus one CRC pass over
    /// the shared bytes, which verifies both copies and copies no record.
    /// Only copies that differ are scanned into records and classified.
    ///
    /// A damaged primary is never a repair source: when its scan finds a
    /// torn tail or a corrupt record, the pass returns that defect, which
    /// names the primary's path, and leaves the replica untouched — it may
    /// be the only clean copy. An unreadable primary (missing file, trashed
    /// header) is the crash-failover path's problem, and the pass returns
    /// nothing.
    ///
    /// Runs entirely inside the sink lock, so the single-writer invariant
    /// holds: no ship can interleave with the repair, and the replica
    /// handle is atomically replaced on rebuild. Returns the defects found
    /// (detection first — [`Defect::ReplicaLag`] / [`Defect::ReplicaDiverged`]
    /// or the scan's own corruption defects — then a [`Defect::ScrubRepaired`]
    /// for the repair). Empty when the replica is identical or replication
    /// is off.
    pub fn scrub_replica(&self) -> Vec<Defect> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        // Below full durability the writer journals on the replica alone
        // or nowhere, and a poisoned primary's tail is unknowable until
        // the climb back reopens it; the scrub, which repairs through the
        // same sick disk, waits for both.
        if inner.gauge.level() != DurabilityLevel::Durable || inner.journal.is_poisoned() {
            return Vec::new();
        }
        let vfs = Arc::clone(&inner.vfs);
        let Some(replica) = inner.replica.as_ref() else {
            return Vec::new();
        };
        let replica_path = replica.path().to_path_buf();
        let primary_path = inner.journal.path().to_path_buf();
        // An unpoisoned primary handle has fsynced every record it holds,
        // so the file content *is* its committed stream.
        let Ok(primary_bytes) = vfs.read(&primary_path) else {
            return Vec::new();
        };
        let replica_bytes = vfs.read(&replica_path).ok();
        let primary_display = primary_path.display().to_string();
        if replica_bytes.as_deref() == Some(primary_bytes.as_slice()) {
            // One scan of the shared bytes verifies both copies: clean is a
            // healthy replica, and damage is the primary's as well.
            return Journal::scan(&primary_bytes, &primary_display, |_| {}).unwrap_or_default();
        }
        let mut primary = Vec::new();
        match Journal::scan(&primary_bytes, &primary_display, |f| primary.push(f.to_record())) {
            Ok(defects) if defects.is_empty() => {}
            Ok(defects) => return defects,
            Err(_) => return Vec::new(),
        }
        let mut defects = Vec::new();
        let replica_display = replica_path.display().to_string();
        let mut replica_records = Vec::new();
        let replica_scan = replica_bytes.as_deref().map(|bytes| {
            Journal::scan(bytes, &replica_display, |f| replica_records.push(f.to_record()))
        });
        let scan_clean = match replica_scan {
            Some(Ok(scan_defects)) => {
                let clean = scan_defects.is_empty();
                defects.extend(scan_defects);
                clean
            }
            // Missing or header-trashed replica: nothing of it is
            // trustworthy — diverged from record 0, full rebuild.
            Some(Err(_)) | None => false,
        };
        // The repair target keeps every record either copy holds: a
        // degraded writer may have journaled some on the replica alone.
        let target = merge_streams(&primary, &replica_records);
        match (scan_clean, compare_streams(&target, &replica_records)) {
            (true, StreamDiff::Identical) => {
                return defects; // the same records: nothing to repair
            }
            // A clean strict prefix is ordinary lag (crash between primary
            // commit and ship, or a fresh follower catching up).
            (true, StreamDiff::ReplicaLag { missing }) => {
                defects.push(Defect::ReplicaLag { path: replica_display.clone(), missing });
            }
            // A record-level mismatch is divergence wherever the scan stood.
            (_, StreamDiff::Diverged { at }) => {
                defects.push(Defect::ReplicaDiverged { path: replica_display.clone(), at });
            }
            // Damage on disk (torn ship, bit rot, trashed header): nothing
            // past the valid prefix is trustworthy — divergence at the
            // damage point.
            (false, _) => {
                defects.push(Defect::ReplicaDiverged {
                    path: replica_display.clone(),
                    at: replica_records.len() as u64,
                });
            }
        }
        // Deterministic read-repair. Pure lag over a clean tail could
        // append just the suffix, but a single rebuild path keeps repair
        // byte-reproducible in every case (the journal format is
        // append-deterministic, so rebuild == re-ship).
        match rebuild_journal_with(&replica_path, &target, vfs.as_ref()) {
            Ok(fresh) => {
                inner.replica = Some(fresh);
                inner.replica_error = None; // repaired: shipping resumes
                defects.push(Defect::ScrubRepaired {
                    path: replica_display,
                    records: target.len() as u64,
                });
            }
            Err(e) => {
                inner.replica_error = Some(e);
            }
        }
        defects
    }
}

/// The records a re-homed replica is built from: every record the
/// primary's or the current replica's verified prefix holds
/// ([`merge_streams`]), so the move keeps a record only one copy took.
fn rehome_source(inner: &SinkInner, vfs: &dyn Vfs) -> Result<Vec<Record>, DurableError> {
    let (primary, _) = Journal::verify_with(inner.journal.path(), vfs)?;
    let replica = inner.replica.as_ref().and_then(|r| Journal::verify_with(r.path(), vfs).ok());
    Ok(match replica {
        Some((records, _)) => merge_streams(&primary, &records),
        None => primary,
    })
}

/// A service run replayed from its journal.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveredRun {
    /// Committed emissions, in commit order. Region counters are 1-based
    /// positions in this list; they match the writer's counters unless
    /// [`recover_run`] reports a [`Defect::RecordGap`] before them.
    pub emissions: Vec<RegionEmission>,
    /// Committed ladder transitions as `(region, transition)` pairs.
    pub transitions: Vec<(u64, Transition)>,
    /// Committed fleet-breaker transitions as `(tick, from, to)` triples.
    pub fleet_transitions: Vec<(u64, FleetState, FleetState)>,
    /// Committed CoDel sheds as `(tick, tenant, sojourn, seq)` tuples.
    pub sheds: Vec<(u64, String, u64, u64)>,
    /// Committed shard admission-ledger snapshots, in commit order.
    pub ledgers: Vec<LedgerRecord>,
    /// Committed chunk admissions, in admission order.
    pub admits: Vec<ChunkAdmit>,
    /// Committed chunk serves, in serve order.
    pub serves: Vec<ChunkServe>,
    /// Committed disk-gauge durability transitions as `(seq, from, to)`
    /// triples. Only transitions that had somewhere durable to land appear
    /// here (see [`REC_DURABILITY`]).
    pub durability_transitions: Vec<(u64, DurabilityLevel, DurabilityLevel)>,
    /// The last fencing-token stamp in the journal, when the writer was
    /// fenced (`None` for unfenced writers).
    pub fence_token: Option<u64>,
    /// Whether the run wrote its end-of-run summary (`false` = killed).
    pub complete: bool,
}

/// Replays a service journal, repairing a torn tail if the writer was
/// killed mid-append.
///
/// A sink numbers its records 0, 1, 2, … and counts a record it could not
/// journal as it goes, so a hole in a journal that scans clean is reported
/// as a [`Defect::RecordGap`]: the writer's gauge degraded, and the
/// missing records went to the replica only or to no journal at all.
///
/// # Errors
///
/// [`DurableError::Format`]/[`DurableError::Version`] for a file that is
/// not (or is a future) journal, [`DurableError::Corrupt`] for a record
/// whose payload passes the CRC but does not decode — that is real damage,
/// never served silently.
pub fn recover_run(path: &Path) -> Result<(RecoveredRun, Vec<Defect>), DurableError> {
    let (_journal, records, defects) = Journal::open(path)?;
    let corrupt = |e: WireError| DurableError::Corrupt {
        path: path.display().to_string(),
        offset: e.offset,
        detail: e.detail,
    };
    let mut run = RecoveredRun::default();
    let mut next_seq = 0;
    let mut gaps = Vec::new();
    for record in records {
        if record.seq > next_seq {
            gaps.push(Defect::RecordGap {
                path: path.display().to_string(),
                seq: next_seq,
                missing: record.seq - next_seq,
            });
        }
        next_seq = record.seq + 1;
        replay_record(&mut run, record.kind, &record.data).map_err(corrupt)?;
    }
    Ok((run, gaps.into_iter().chain(defects).collect()))
}

/// Decodes one service record of `kind` into `run`.
fn replay_record(run: &mut RecoveredRun, kind: u8, data: &[u8]) -> Result<(), WireError> {
    let dec = &mut Dec::new(data);
    match kind {
        REC_EMISSION => {
            let region = run.emissions.len() as u64 + 1;
            run.emissions.push(decode_emission(region, dec)?);
        }
        REC_TRANSITION => run.transitions.push(decode_transition(dec)?),
        REC_FLEET_TRANSITION => {
            let (tick, t) = decode_transition(dec)?;
            run.fleet_transitions.push((tick, t.from, t.to));
        }
        REC_LOAD_SHED => run.sheds.push((dec.u64()?, dec.str()?, dec.u64()?, dec.u64()?)),
        REC_CHUNK_ADMIT => run.admits.push(ChunkAdmit {
            tick: dec.u64()?,
            tenant: dec.str()?,
            seq: dec.u64()?,
            cost: dec.u64()?,
        }),
        REC_CHUNK_SERVE => {
            run.serves.push(ChunkServe { tick: dec.u64()?, tenant: dec.str()?, seq: dec.u64()? })
        }
        REC_SHARD_LEDGER => run.ledgers.push(LedgerRecord {
            tick: dec.u64()?,
            offered: dec.u64()?,
            served: dec.u64()?,
            rejected: dec.u64()?,
            shed: dec.u64()?,
            queued: dec.u64()?,
            migrated: dec.u64()?,
        }),
        REC_DURABILITY => {
            let (tick, t) = decode_transition(dec)?;
            run.durability_transitions.push((tick, t.from, t.to));
        }
        REC_FENCE_EPOCH => run.fence_token = Some(dec.u64()?),
        // The summary's presence is the signal; its body is not replayed.
        REC_RUN_SUMMARY => {
            run.complete = true;
            return Ok(());
        }
        other => {
            let detail = format!("unknown service record kind {other}");
            return Err(WireError { offset: 0, detail });
        }
    }
    dec.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "emoleak-sink-{name}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn emission(region: u64) -> RegionEmission {
        RegionEmission {
            region,
            window: 3,
            start: 10,
            end: 250,
            truth: 2,
            verdict: Verdict {
                level: InferenceLevel::Classical,
                label: Some(5),
                is_speech: true,
            },
            deadline_missed: region.is_multiple_of(2),
            latency: Duration::from_micros(123 + region),
        }
    }

    #[test]
    fn emissions_and_transitions_round_trip() {
        let dir = scratch("roundtrip");
        let path = dir.join("run.log");
        let sink = DurableSink::create(&path).unwrap();
        sink.record_emission(&emission(1));
        sink.record_transition(
            1,
            Transition { from: InferenceLevel::Classical, to: InferenceLevel::EnergyOnly },
        );
        sink.record_emission(&emission(2));
        sink.finish(2, InferenceLevel::EnergyOnly);
        assert!(sink.take_error().is_none());

        let (run, defects) = recover_run(&path).unwrap();
        assert!(defects.is_empty(), "{defects:?}");
        assert!(run.complete);
        assert_eq!(run.emissions, vec![emission(1), emission(2)]);
        assert_eq!(
            run.transitions,
            vec![(1, Transition { from: InferenceLevel::Classical, to: InferenceLevel::EnergyOnly })]
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fleet_events_round_trip() {
        let dir = scratch("fleet");
        let path = dir.join("run.log");
        let sink = DurableSink::create(&path).unwrap();
        sink.record_fleet_transition(17, FleetState::Healthy, FleetState::Degraded);
        sink.record_shed(21, "tenant-b", 9, 4);
        sink.record_fleet_transition(40, FleetState::Degraded, FleetState::Healthy);
        sink.finish(0, InferenceLevel::Cnn);
        assert!(sink.take_error().is_none());

        let (run, defects) = recover_run(&path).unwrap();
        assert!(defects.is_empty(), "{defects:?}");
        assert!(run.complete);
        assert!(run.emissions.is_empty());
        assert_eq!(
            run.fleet_transitions,
            vec![
                (17, FleetState::Healthy, FleetState::Degraded),
                (40, FleetState::Degraded, FleetState::Healthy),
            ]
        );
        assert_eq!(run.sheds, vec![(21, "tenant-b".to_string(), 9, 4)]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn shard_ledgers_round_trip() {
        let dir = scratch("ledger");
        let path = dir.join("run.log");
        let sink = DurableSink::create(&path).unwrap();
        let a = LedgerRecord {
            tick: 100,
            offered: 40,
            served: 25,
            rejected: 5,
            shed: 3,
            queued: 7,
            migrated: 0,
        };
        let b = LedgerRecord { tick: 200, offered: 80, served: 60, migrated: 7, ..a };
        sink.record_ledger(&a);
        sink.record_shed(150, "tenant-a", 12, 0);
        sink.record_ledger(&b);
        assert!(sink.take_error().is_none());

        let (run, defects) = recover_run(&path).unwrap();
        assert!(defects.is_empty(), "{defects:?}");
        assert_eq!(run.ledgers, vec![a, b]);
        assert_eq!(run.sheds.len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn none_label_round_trips() {
        let dir = scratch("shed");
        let path = dir.join("run.log");
        let sink = DurableSink::create(&path).unwrap();
        let shed = RegionEmission {
            verdict: Verdict { level: InferenceLevel::Shed, label: None, is_speech: false },
            ..emission(1)
        };
        sink.record_emission(&shed);
        let (run, _) = recover_run(&path).unwrap();
        assert_eq!(run.emissions, vec![shed]);
        assert!(!run.complete, "no summary record: the run was cut short");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_loses_only_the_last_record() {
        let dir = scratch("torn");
        let path = dir.join("run.log");
        let sink = DurableSink::create(&path).unwrap();
        sink.record_emission(&emission(1));
        sink.record_emission(&emission(2));
        drop(sink);
        // Chop the last record in half: a kill mid-append.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 20]).unwrap();

        let (run, defects) = recover_run(&path).unwrap();
        assert_eq!(run.emissions, vec![emission(1)]);
        assert_eq!(defects.len(), 1, "{defects:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn chunk_records_round_trip() {
        let dir = scratch("chunks");
        let path = dir.join("run.log");
        let sink = DurableSink::create(&path).unwrap();
        let admit = ChunkAdmit { tick: 5, tenant: "amber".into(), seq: 17, cost: 3 };
        let serve = ChunkServe { tick: 8, tenant: "amber".into(), seq: 17 };
        sink.record_admit(&admit);
        sink.record_serve(&serve);
        assert!(sink.take_error().is_none());
        let (run, defects) = recover_run(&path).unwrap();
        assert!(defects.is_empty(), "{defects:?}");
        assert_eq!(run.admits, vec![admit]);
        assert_eq!(run.serves, vec![serve]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn replica_receives_every_committed_record_byte_identically() {
        let dir = scratch("replica");
        let path = dir.join("run.log");
        let replica = dir.join("run.replica.log");
        let sink = DurableSink::create_replicated(&path, &replica).unwrap();
        sink.record_emission(&emission(1));
        sink.record_shed(3, "amber", 2, 0);
        sink.finish(1, InferenceLevel::Classical);
        assert!(sink.take_error().is_none());
        assert!(sink.take_replica_error().is_none());
        assert_eq!(sink.replica_path().as_deref(), Some(replica.as_path()));
        drop(sink);
        assert_eq!(std::fs::read(&path).unwrap(), std::fs::read(&replica).unwrap());
        let (run, defects) = recover_run(&replica).unwrap();
        assert!(defects.is_empty(), "{defects:?}");
        assert!(run.complete);
        assert_eq!(run.emissions.len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_ship_latches_replica_and_scrub_repairs_it() {
        let dir = scratch("torn-ship");
        let path = dir.join("run.log");
        let replica = dir.join("run.replica.log");
        let sink = DurableSink::create_replicated(&path, &replica).unwrap();
        sink.record_emission(&emission(1));
        sink.tear_replica_next(0.5);
        sink.record_emission(&emission(2)); // primary commits, ship tears
        sink.record_emission(&emission(3)); // replica latched: not shipped
        assert!(sink.take_error().is_none());
        let err = sink.take_replica_error().expect("torn ship must latch");
        assert!(err.is_injected(), "{err}");

        // Primary has all three records; replica holds a valid one-record
        // prefix plus torn bytes.
        let (primary, _) = Journal::verify(&path).unwrap();
        assert_eq!(primary.len(), 3);
        let defects = sink.scrub_replica();
        assert!(
            defects.iter().any(|d| matches!(d, Defect::ReplicaDiverged { .. })),
            "{defects:?}"
        );
        assert!(
            defects.iter().any(|d| matches!(d, Defect::ScrubRepaired { records: 3, .. })),
            "{defects:?}"
        );
        // Repair restores byte identity and shipping resumes.
        assert_eq!(std::fs::read(&path).unwrap(), std::fs::read(&replica).unwrap());
        sink.record_emission(&emission(4));
        assert!(sink.take_replica_error().is_none());
        assert_eq!(std::fs::read(&path).unwrap(), std::fs::read(&replica).unwrap());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn scrub_detects_lag_and_bit_rot() {
        let dir = scratch("scrub");
        let path = dir.join("run.log");
        let replica = dir.join("run.replica.log");
        let sink = DurableSink::create_replicated(&path, &replica).unwrap();
        sink.record_emission(&emission(1));
        sink.record_emission(&emission(2));
        // Healthy replica: scrub is a no-op.
        assert!(sink.scrub_replica().is_empty());

        // Chop the replica's last record: pure lag. Emission frames all
        // have one length, after the 6-byte header.
        let bytes = std::fs::read(&replica).unwrap();
        std::fs::write(&replica, &bytes[..6 + (bytes.len() - 6) / 2]).unwrap();
        let defects = sink.scrub_replica();
        assert!(
            defects.iter().any(|d| matches!(d, Defect::ReplicaLag { missing: 1, .. })),
            "{defects:?}"
        );
        assert_eq!(std::fs::read(&path).unwrap(), std::fs::read(&replica).unwrap());

        // Flip a bit mid-replica: divergence, repaired.
        let mut bytes = std::fs::read(&replica).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x08;
        std::fs::write(&replica, &bytes).unwrap();
        let defects = sink.scrub_replica();
        assert!(
            defects.iter().any(|d| matches!(d, Defect::ReplicaDiverged { .. })),
            "{defects:?}"
        );
        assert!(
            defects.iter().any(|d| matches!(d, Defect::ScrubRepaired { .. })),
            "{defects:?}"
        );
        assert_eq!(std::fs::read(&path).unwrap(), std::fs::read(&replica).unwrap());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A replicated sink holding four emissions whose primary has a bit
    /// flipped in its second record. Returns the sink, the primary and
    /// replica paths, and the replica's (clean) bytes.
    fn sink_with_rotted_primary(dir: &Path) -> (DurableSink, PathBuf, PathBuf, Vec<u8>) {
        let path = dir.join("run.log");
        let replica = dir.join("run.replica.log");
        let sink = DurableSink::create_replicated(&path, &replica).unwrap();
        for region in 1..=4 {
            sink.record_emission(&emission(region));
        }
        let clean = std::fs::read(&replica).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Emission frames all have one length; flip mid-way through the second.
        let frame = (bytes.len() - 6) / 4;
        bytes[6 + frame + frame / 2] ^= 0x08;
        std::fs::write(&path, &bytes).unwrap();
        (sink, path, replica, clean)
    }

    #[test]
    fn scrub_reports_a_damaged_primary_and_leaves_the_clean_replica_alone() {
        let dir = scratch("scrub-primary-rot");
        let (sink, path, replica, clean) = sink_with_rotted_primary(&dir);
        let defects = sink.scrub_replica();
        let primary = path.display().to_string();
        assert!(
            matches!(defects.as_slice(), [Defect::CorruptRecord { path, .. }] if *path == primary),
            "{defects:?}"
        );
        assert_eq!(std::fs::read(&replica).unwrap(), clean, "the clean replica was rewritten");
        assert!(sink.take_replica_error().is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rehome_copies_the_clean_replica_when_the_primary_is_damaged() {
        let dir = scratch("rehome-primary-rot");
        let (sink, _path, replica, clean) = sink_with_rotted_primary(&dir);
        let moved = dir.join("run.replica-moved.log");
        sink.rehome_replica(Some(&moved));
        assert!(!replica.exists(), "the old copy must be deleted");
        assert_eq!(std::fs::read(&moved).unwrap(), clean, "the new copy lost records");
        assert_eq!(sink.replica_path().as_deref(), Some(moved.as_path()));
        assert!(sink.take_replica_error().is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fence_stamp_round_trips_and_stale_writer_is_refused_bytes_untouched() {
        let dir = scratch("fence");
        let path = dir.join("shard-0.log");
        let authority = Arc::new(AtomicU64::new(1));
        let sink = DurableSink::create(&path).unwrap();
        let header = std::fs::read(&path).unwrap();
        sink.set_fence(1, Arc::clone(&authority));
        assert_eq!(std::fs::read(&path).unwrap(), header, "the stamp waits for a record");
        let admit = ChunkAdmit { tick: 2, tenant: "amber".into(), seq: 0, cost: 4 };
        sink.record_admit(&admit);
        assert!(sink.take_error().is_none());
        assert_eq!(sink.fence_token(), Some(1));
        let committed = std::fs::read(&path).unwrap();

        // The coordinator fences incarnation 1 and hands the journal to a
        // successor; the resurrected stale writer's append is refused with
        // a typed error and the bytes on disk do not move.
        authority.store(2, Ordering::SeqCst);
        sink.record_admit(&ChunkAdmit { tick: 9, tenant: "amber".into(), seq: 1, cost: 4 });
        let err = sink.take_error().expect("stale append must latch");
        assert!(
            matches!(err, DurableError::Fenced { held: 1, current: 2, .. }),
            "{err:?}"
        );
        assert_eq!(std::fs::read(&path).unwrap(), committed, "journal bytes moved");

        // Recovery replays exactly the valid incarnation's records and
        // surfaces the stamp.
        let (run, defects) = recover_run(&path).unwrap();
        assert!(defects.is_empty(), "{defects:?}");
        assert_eq!(run.fence_token, Some(1));
        assert_eq!(run.admits, vec![admit]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fence_stamp_ships_to_the_replica() {
        let dir = scratch("fence-repl");
        let path = dir.join("run.log");
        let replica = dir.join("run.replica.log");
        let sink = DurableSink::create_replicated(&path, &replica).unwrap();
        sink.set_fence(3, Arc::new(AtomicU64::new(3)));
        sink.record_emission(&emission(1));
        assert!(sink.take_error().is_none());
        assert!(sink.take_replica_error().is_none());
        assert_eq!(std::fs::read(&path).unwrap(), std::fs::read(&replica).unwrap());
        let (run, _) = recover_run(&replica).unwrap();
        assert_eq!(run.fence_token, Some(3));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn durability_transitions_round_trip() {
        let dir = scratch("durability-codec");
        let path = dir.join("run.log");
        {
            let mut j = Journal::create(&path).unwrap();
            let (from, to) = (DurabilityLevel::ReplicaOnly, DurabilityLevel::Durable);
            j.append(REC_DURABILITY, 0, &encode_transition(7, Transition { from, to })).unwrap();
        }
        let (run, defects) = recover_run(&path).unwrap();
        assert!(defects.is_empty(), "{defects:?}");
        assert_eq!(
            run.durability_transitions,
            vec![(7, DurabilityLevel::ReplicaOnly, DurabilityLevel::Durable)]
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn quiet_gauged_sink_is_byte_identical_to_the_default_sink() {
        use emoleak_durable::{FaultPlan, FaultVfs};
        let dir = scratch("quiet-gauge");
        let plain = dir.join("plain.log");
        let gauged = dir.join("gauged.log");
        let a = DurableSink::create(&plain).unwrap();
        let quiet = Arc::new(FaultVfs::new(FaultPlan::quiet(42)));
        let b = DurableSink::create_with(&gauged, None, quiet, DiskGaugeConfig::default()).unwrap();
        for sink in [&a, &b] {
            sink.record_emission(&emission(1));
            sink.record_shed(3, "amber", 2, 0);
            sink.finish(1, InferenceLevel::Classical);
            assert!(sink.take_error().is_none());
            assert_eq!(sink.durability_level(), DurabilityLevel::Durable);
            assert_eq!(sink.unjournaled(), 0);
            assert!(sink.take_durability_transitions().is_empty());
        }
        assert_eq!(std::fs::read(&plain).unwrap(), std::fs::read(&gauged).unwrap());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn gauged_sink_degrades_under_stalls_and_climbs_back_without_latching() {
        use crate::ladder::LadderConfig;
        use emoleak_durable::{FaultPlan, FaultVfs};
        let dir = scratch("gauge-walk");
        let path = dir.join("run.log");
        // Every fsync stalls 9 ticks (≥ stall_miss), so appends at the
        // Durable rung are misses; at ReplicaOnly (no replica configured)
        // no I/O happens, the probes run clean, and the gauge climbs back —
        // a deterministic degrade/recover oscillation.
        let plan = FaultPlan {
            stall_every: 1,
            stall_ticks: 9,
            stall_budget: u64::MAX,
            ..FaultPlan::quiet(7)
        };
        let gauge = DiskGaugeConfig {
            ladder: LadderConfig { degrade_after: 2, recover_after: 2, cooldown: 0 },
            low_water: 0,
            refuse_water: 0,
            stall_miss: 5,
        };
        let sink =
            DurableSink::create_with(&path, None, Arc::new(FaultVfs::new(plan)), gauge).unwrap();
        for region in 1..=10 {
            sink.record_emission(&emission(region));
        }
        assert!(sink.take_error().is_none(), "the gauge must absorb faults, not latch");
        assert!(sink.unjournaled() > 0, "ReplicaOnly appends without a replica are unjournaled");
        let transitions = sink.take_durability_transitions();
        assert!(
            transitions
                .iter()
                .any(|(_, from, to)| *from == DurabilityLevel::Durable
                    && *to == DurabilityLevel::ReplicaOnly),
            "{transitions:?}"
        );
        assert!(
            transitions
                .iter()
                .any(|(_, from, to)| *from == DurabilityLevel::ReplicaOnly
                    && *to == DurabilityLevel::Durable),
            "{transitions:?}"
        );
        // The climb transitions had a working primary to land in, so
        // recovery sees them.
        let (run, _) = recover_run(&path).unwrap();
        assert!(
            run.durability_transitions
                .iter()
                .any(|(_, _, to)| *to == DurabilityLevel::Durable),
            "{:?}",
            run.durability_transitions
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn enospc_pins_the_gauge_at_refuse_writes() {
        use emoleak_durable::{FaultPlan, FaultVfs};
        let dir = scratch("gauge-enospc");
        let path = dir.join("run.log");
        let plan = FaultPlan { byte_budget: 256, ..FaultPlan::quiet(11) };
        let gauge = DiskGaugeConfig {
            low_water: 70,
            refuse_water: 64,
            ..DiskGaugeConfig::default()
        };
        let sink =
            DurableSink::create_with(&path, None, Arc::new(FaultVfs::new(plan)), gauge).unwrap();
        for region in 1..=20 {
            sink.record_emission(&emission(region));
        }
        assert_eq!(sink.durability_level(), DurabilityLevel::RefuseWrites);
        assert!(sink.take_error().is_none());
        assert!(sink.unjournaled() > 0);
        // Monotone under sustained pressure: the transition history only
        // ever worsens.
        let transitions = sink.take_durability_transitions();
        assert!(!transitions.is_empty());
        for (_, from, to) in &transitions {
            assert!(to > from, "improved under a full disk: {from} -> {to}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Journals emissions 1..=40 with the primary's fsync failing on
    /// emission 2 (an EIO from the dying disk: the failed sync poisons the
    /// handle, so every later append on it fails too). Asserts that the
    /// gauge leaves `Durable` and climbs back, and returns the record seq
    /// the climb fired on; emission `r` is record `r - 1`.
    fn journal_through_a_failed_fsync(sink: &DurableSink) -> u64 {
        sink.record_emission(&emission(1));
        sink.inner.lock().unwrap().journal.inject_fsync_failure();
        for region in 2..=40 {
            sink.record_emission(&emission(region));
        }
        assert!(sink.take_error().is_none(), "a disk error must feed the gauge, not latch");
        let transitions = sink.take_durability_transitions();
        let levels: Vec<_> = transitions.iter().map(|&(_, from, to)| (from, to)).collect();
        use DurabilityLevel::{Durable, ReplicaOnly};
        assert_eq!(levels, [(Durable, ReplicaOnly), (ReplicaOnly, Durable)], "{transitions:?}");
        assert!(transitions[1].0 + 2 <= 40, "the climb came too late: {transitions:?}");
        transitions[1].0
    }

    #[test]
    fn failed_fsync_on_the_real_disk_degrades_and_climbs_back_instead_of_latching() {
        let dir = scratch("fsync-fail");
        let path = dir.join("run.log");
        let sink = DurableSink::create(&path).unwrap();
        let climb = journal_through_a_failed_fsync(&sink);
        // The climb fired on a record no journal took and reopened the
        // primary; every record from the failed fsync's up to it is
        // unjournaled.
        assert_eq!(sink.unjournaled(), climb, "records 1..={climb} reached no journal");
        let (run, defects) = recover_run(&path).unwrap();
        // The emission whose fsync failed is gone with the reopen: a record
        // after it must never be durable while it is not.
        let mut expected = vec![emission(1)];
        expected.extend((climb + 2..=40).map(emission));
        let latencies = |es: &[RegionEmission]| es.iter().map(|e| e.latency).collect::<Vec<_>>();
        assert_eq!(latencies(&run.emissions), latencies(&expected));
        // The hole is reported, so positional region numbers are known
        // not to match past it.
        let gap = Defect::RecordGap { path: path.display().to_string(), seq: 1, missing: climb };
        assert_eq!(defects, [gap]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn records_journaled_on_the_replica_alone_survive_the_climb_scrub_and_rehome() {
        let dir = scratch("replica-only");
        let path = dir.join("run.log");
        let replica = dir.join("run.replica.log");
        let sink = DurableSink::create_replicated(&path, &replica).unwrap();
        journal_through_a_failed_fsync(&sink);
        assert_eq!(sink.unjournaled(), 0, "the replica journaled every record");
        let all: Vec<_> = (1..=40).map(emission).collect();
        let (primary_run, defects) = recover_run(&path).unwrap();
        assert!(primary_run.emissions.len() < all.len());
        assert!(matches!(defects.as_slice(), [Defect::RecordGap { seq: 1, .. }]), "{defects:?}");
        // The replica holds every primary record and more: healthy, so
        // the scrub leaves it alone instead of cutting it to the primary.
        let before = std::fs::read(&replica).unwrap();
        assert_eq!(sink.scrub_replica(), []);
        assert_eq!(std::fs::read(&replica).unwrap(), before);
        let (run, defects) = recover_run(&replica).unwrap();
        assert!(defects.is_empty(), "{defects:?}");
        assert_eq!(run.emissions, all);
        // A rebalance moves the copy without losing the replica-only part.
        let moved = dir.join("run.replica-moved.log");
        sink.rehome_replica(Some(&moved));
        assert_eq!(std::fs::read(&moved).unwrap(), before);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
