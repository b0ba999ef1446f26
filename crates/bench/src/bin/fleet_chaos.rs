//! Fleet-chaos harness for the sharded coordinator.
//!
//! Drives `emoleak_fleet::FleetCoordinator` through a grid of fleet-level
//! failure scenarios × severities × seeds and asserts the *fleet contract*
//! on every run:
//!
//! * conservation — at the end of every run (after a full drain),
//!   `offered == served + rejected + shed + queued + migrated +
//!   in_flight` fleet-wide, with nothing queued or in flight;
//! * no lost tenants — after any single-shard kill, every tenant is still
//!   served (its chunks flow through its new home shard);
//! * nothing is served twice — no `(tenant, seq)` pair is served more
//!   than once, even across failovers and crash replays;
//! * contained panics — hostile chunks panic inside their shard only; a
//!   sibling shard never burns restart budget, and no panic escapes to
//!   this harness;
//! * graceful failover is lossless — a brown-out fence books zero
//!   `crash_loss` and a positive `migrated` count;
//! * the last shard is never fenced — cascades stop at one live shard;
//! * clean-path silence — at severity 0 there are no failovers, no
//!   rejections, no sheds, and everything offered is served;
//! * clean-path placement invariance — the per-tenant served stream
//!   (tenant, seq, cost) digests to the same value for ANY shard count,
//!   because coordinator-assigned seqs survive routing. The digests land
//!   in their own artifact so CI can byte-compare it across
//!   `EMOLEAK_SHARDS` values;
//! * crash failover is exact — a kill (disk intact) or a disk loss
//!   (replica reconciles) replays the queue with `crash_loss == 0` and
//!   `recovered > 0`; a scrub-repaired replica
//!   reconciles a later disk loss exactly; only a double failure (disk
//!   gone *and* replica corrupted) books loss — and it must book it
//!   honestly, never replay a damaged copy;
//! * partitions cannot split the brain — a shard cut off the message
//!   plane (fully or one-way) self-fences when its lease runs out
//!   *before* the coordinator fails it over, its journal replays the
//!   queue exactly, and a resurrected stale incarnation's appends are
//!   refused with a typed fencing error, bytes untouched. Every scenario
//!   runs on the message plane, which is the coordinator's only path to
//!   its shards: faultless by default, and `EMOLEAK_NET=lossy|chaotic`
//!   runs the whole grid — the partition arc included — through a
//!   faulty one.
//!
//! The simulation runs on the fleet's logical clock, and the scenario grid
//! is parallelized with order-preserving `par_map_indexed`, so
//! `fleet_chaos.json` is **byte-identical under any `EMOLEAK_THREADS`**
//! (for a fixed shard count) — except the `failover_wall_us` summary
//! lines, which report wall time and are stripped before comparison
//! (`grep -v failover_wall_us`). The grid, its knobs
//! (`EMOLEAK_CHAOS_SEVERITIES`, default `0,1,2`; `EMOLEAK_CHAOS_SEEDS`,
//! default 2), the fleet tuning, the final drain and the reports live in
//! `emoleak_bench::chaos`; `EMOLEAK_SHARDS` (default 4) sizes the fleet
//! and `EMOLEAK_NET` picks the plane. Exits non-zero if any run violates
//! the contract.

use emoleak_bench::chaos::{self, Cell, Fields, Json};
use emoleak_core::EmoleakError;
use emoleak_durable::Defect;
use emoleak_exec::{derive_seed, par_map_indexed, splitmix64};
use emoleak_fleet::{
    shard_journal_path, FailoverKind, FleetConfig, FleetCoordinator, NetProfileKind,
};
use std::collections::BTreeMap;
use std::time::Duration;

const TICKS: u64 = 400;
const TENANTS: [&str; 8] =
    ["amber", "brook", "coral", "dune", "ember", "fjord", "grove", "heath"];

#[derive(Clone, Copy)]
enum Scenario {
    /// A healthy fleet under steady load — the placement-invariance and
    /// clean-path baseline.
    SteadyState,
    /// One shard is hard-killed mid-run (`SIGKILL`); its tenants must
    /// re-home and keep being served.
    ShardKill,
    /// One shard's tenants flood it into a sustained BrownOut; the
    /// coordinator must fence it gracefully, with zero loss.
    BrownOutFailover,
    /// Brown-outs cascade shard by shard; the fleet must stop fencing at
    /// one live shard.
    Cascade,
    /// The coordinator itself is killed mid-run and restarted from its
    /// checkpoint journal.
    CoordinatorRestart,
    /// Hostile chunks panic one shard's workers while a flood squeezes
    /// another: two containment domains failing differently at once.
    SplitTenantFlood,
    /// One shard's machine dies mid-run — process *and* disk. The replica
    /// on the follower's node must replay the queue with zero loss.
    DiskLoss,
    /// The replica suffers bit rot and a torn ship mid-run; the
    /// anti-entropy scrub must detect and repair it in time for a later
    /// disk loss to still recover exactly.
    ReplicaCorrupt,
    /// Primary disk loss *and* a corrupted replica at once: no clean copy
    /// survives, and the residual must be booked as honest crash loss.
    DoubleFailure,
    /// One shard is fully partitioned off the message plane mid-run: its
    /// lease must run out, the shard must self-fence *before* the
    /// coordinator fails it over, and its journal must replay exactly.
    Partition,
    /// One-way partition: the shard still hears the coordinator (offers
    /// and probes land) but its acks vanish. The lease is the only thing
    /// that can save the fleet, and self-fence must still come first.
    AsymmetricPartition,
    /// After a partition-driven failover, the deposed shard "wakes up"
    /// and tries to append to its journal. The fencing token must refuse
    /// it with a typed error and leave the journal bytes untouched.
    StaleWriter,
}

const SCENARIOS: [(&str, Scenario); 12] = [
    ("steady_state", Scenario::SteadyState),
    ("shard_kill", Scenario::ShardKill),
    ("brown_out_failover", Scenario::BrownOutFailover),
    ("cascade", Scenario::Cascade),
    ("coordinator_restart", Scenario::CoordinatorRestart),
    ("split_tenant_flood", Scenario::SplitTenantFlood),
    ("disk_loss", Scenario::DiskLoss),
    ("replica_corrupt", Scenario::ReplicaCorrupt),
    ("double_failure", Scenario::DoubleFailure),
    ("partition", Scenario::Partition),
    ("asymmetric_partition", Scenario::AsymmetricPartition),
    ("stale_writer", Scenario::StaleWriter),
];

/// Offers issued for tick `now`, as `(tenant index, cost)` pairs — a pure
/// function of `(scenario, severity, seed, now, flood targets)`.
fn offers(
    scenario: Scenario,
    severity: f64,
    seed: u64,
    now: u64,
    flooded: &[usize],
) -> Vec<(usize, u64)> {
    let mut stream = derive_seed(seed, now);
    let mut draw = || splitmix64(&mut stream);
    // Baseline: two polite offers per tick, round-robin over all tenants.
    let mut out = vec![
        ((now as usize * 2) % TENANTS.len(), 64 + draw() % 64),
        ((now as usize * 2 + 1) % TENANTS.len(), 64 + draw() % 64),
    ];
    if severity > 0.0 {
        match scenario {
            Scenario::SteadyState
            | Scenario::ShardKill
            | Scenario::CoordinatorRestart
            | Scenario::DiskLoss
            | Scenario::ReplicaCorrupt
            | Scenario::DoubleFailure
            | Scenario::Partition
            | Scenario::AsymmetricPartition
            | Scenario::StaleWriter => {}
            Scenario::BrownOutFailover | Scenario::Cascade | Scenario::SplitTenantFlood => {
                // The flood tenants hammer their home shards hard enough
                // to overrun the byte budget and trip the breaker.
                for &t in flooded {
                    for _ in 0..(12.0 * severity) as u64 {
                        out.push((t, 256));
                    }
                }
            }
        }
    }
    out
}

/// Flips one byte mid-file — bit rot on a replica segment.
fn corrupt_file(path: &std::path::Path) -> bool {
    let Ok(mut bytes) = std::fs::read(path) else { return false };
    if bytes.is_empty() {
        return false;
    }
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(path, &bytes).is_ok()
}

/// The burst issued one tick before a kill: deep enough that the victim
/// still holds queue at the moment of death even after one drain tick.
/// It goes out a tick early so that the chunks are *admitted and
/// journaled* when the shard dies, not in flight on the plane (in-flight
/// frames are rerouted at failover, which is lossless but is not the
/// journal-replay path these scenarios pin).
fn burst_victim_queue(coord: &mut FleetCoordinator, now: u64) {
    if coord.ring().len() < 2 {
        return;
    }
    for t in victims(coord).1 {
        for _ in 0..8 {
            let _ = coord.offer(&t, 64, now);
        }
    }
}

/// The shard homing `TENANTS[0]`, and every tenant it homes.
fn victims(coord: &FleetCoordinator) -> (u32, Vec<String>) {
    let victim = coord.ring().route(TENANTS[0]);
    let homed = TENANTS.iter().filter(|t| coord.ring().route(t) == victim);
    (victim, homed.map(|t| t.to_string()).collect())
}

/// Kills the shard homing `TENANTS[0]` — optionally destroying its disk
/// and/or corrupting its replica first. The queue was loaded by
/// [`burst_victim_queue`] on the previous tick, so replication must
/// either replay it or book its loss honestly. Returns the victim shard
/// and its homed tenants, or `None` on a one-shard fleet (nothing to
/// fail over to). `wall` accumulates time spent inside the
/// kill/reconcile machinery.
fn kill_with_queue(
    coord: &mut FleetCoordinator,
    now: u64,
    lose_disk: bool,
    corrupt_replica: bool,
    violations: &mut Vec<String>,
    wall: &mut Duration,
) -> Option<(u32, Vec<String>)> {
    if coord.ring().len() < 2 {
        return None;
    }
    let (victim, homed) = victims(coord);
    if corrupt_replica {
        if let Some(replica) = coord.replica_path_of(victim) {
            if !corrupt_file(&replica) {
                violations.push("the nemesis could not corrupt the replica".to_string());
            }
        }
    }
    let t0 = std::time::Instant::now();
    let event = if lose_disk {
        coord.kill_shard_with_disk_loss(victim, now)
    } else {
        coord.kill_shard(victim, now)
    };
    *wall += t0.elapsed();
    if event.kind != FailoverKind::Crash {
        violations.push("a kill must reconcile as a crash".to_string());
    }
    Some((victim, homed))
}

/// One run of `spec`; `failover_wall` accumulates the wall time spent
/// inside the failover and recovery machinery itself (kill
/// reconciliation, coordinator recovery), which only the report's
/// summary carries.
fn simulate(
    spec: &Cell<Scenario>,
    env: &FleetConfig,
    dir: &std::path::Path,
    violations: &mut Vec<String>,
    failover_wall: &mut Duration,
) -> Result<Fields, String> {
    let cfg = chaos::fleet_config(env);
    // A deliberately faulty plane (`EMOLEAK_NET=lossy|chaotic`) weakens
    // the exact-replay expectations: part of a pre-kill burst can still
    // be in flight when the shard dies, and in-flight chunks are
    // *rerouted* at failover rather than replayed from the journal.
    // Conservation and zero-loss still hold and are still checked.
    let faulty_plane =
        matches!(cfg.net.profile, NetProfileKind::Lossy | NetProfileKind::Chaotic);
    let mut coord =
        FleetCoordinator::new(cfg.clone(), dir).map_err(|e| format!("fleet dir unusable: {e}"))?;

    // Flood targets: for the brown-out scenarios, one tenant homed on
    // shard 0 (and, for the split flood, the panic victim is a *different*
    // shard). For the cascade, one tenant per shard so the floods roll
    // across the whole fleet.
    let home_of =
        |c: &FleetCoordinator, t: &str| -> u32 { c.ring().route(t) };
    let tenant_on = |c: &FleetCoordinator, shard: u32| -> Option<usize> {
        (0..TENANTS.len()).find(|&t| home_of(c, TENANTS[t]) == shard)
    };
    let flooded: Vec<usize> = match spec.scenario {
        Scenario::BrownOutFailover | Scenario::SplitTenantFlood => {
            tenant_on(&coord, 0).into_iter().collect()
        }
        Scenario::Cascade => coord
            .ring()
            .shard_ids()
            .iter()
            .filter_map(|&s| tenant_on(&coord, s))
            .collect(),
        _ => Vec::new(),
    };
    // The split flood panics the shard housing the round-robin tenant
    // furthest from the flooded one, so the two failure domains differ.
    let panic_shard: Option<u32> = match spec.scenario {
        Scenario::SplitTenantFlood if spec.severity > 0.0 => coord
            .ring()
            .shard_ids()
            .into_iter()
            .find(|&s| s != 0),
        _ => None,
    };

    let kill_tick = TICKS / 2;
    let restart_tick = TICKS / 2;
    // The replica-corrupt arc: damage early, let the scrub repair on its
    // cadence, lose the disk late — recovery must still be exact.
    let corrupt_tick = TICKS / 4;
    let late_kill_tick = 3 * TICKS / 4;
    let mut killed: Option<u32> = None;
    let mut kill_at = 0u64;
    let mut partitioned: Option<u32> = None;
    let mut self_fenced_before_failover = false;
    let mut victim_tenants: Vec<String> = Vec::new();
    let mut served: BTreeMap<String, Vec<(u64, u64)>> = BTreeMap::new();
    let mut first_served_after_kill: BTreeMap<String, u64> = BTreeMap::new();

    let mut now = 0;
    while now < TICKS {
        let kill_now = match spec.scenario {
            Scenario::ShardKill if now == kill_tick => Some((false, false)),
            Scenario::DiskLoss if now == kill_tick => Some((true, false)),
            Scenario::DoubleFailure if now == kill_tick => Some((true, true)),
            Scenario::ReplicaCorrupt if now == late_kill_tick => Some((true, false)),
            _ => None,
        };
        let burst_now = match spec.scenario {
            Scenario::ShardKill | Scenario::DiskLoss | Scenario::DoubleFailure => {
                now + 1 == kill_tick
            }
            Scenario::ReplicaCorrupt => now + 1 == late_kill_tick,
            _ => false,
        };
        if burst_now && spec.severity > 0.0 {
            burst_victim_queue(&mut coord, now);
        }
        if let Some((lose_disk, corrupt_replica)) = kill_now.filter(|_| spec.severity > 0.0) {
            if let Some((victim, homed)) = kill_with_queue(
                &mut coord,
                now,
                lose_disk,
                corrupt_replica,
                violations,
                failover_wall,
            ) {
                victim_tenants = homed;
                killed = Some(victim);
                kill_at = now;
            }
        }
        // The partition arc: cut one shard off the plane with a queue in
        // flight. No kill — the lease machinery must notice on its own.
        let partition_now = match spec.scenario {
            Scenario::Partition | Scenario::StaleWriter if now == kill_tick => Some(false),
            Scenario::AsymmetricPartition if now == kill_tick => Some(true),
            _ => None,
        };
        if let Some(one_way) = partition_now.filter(|_| spec.severity > 0.0) {
            if coord.ring().len() > 1 {
                let (victim, homed) = victims(&coord);
                // A deep burst so the victim still holds queue when its
                // lease finally runs out, forcing a real journal replay.
                for t in &homed {
                    for _ in 0..80 {
                        let _ = coord.offer(t, 64, now);
                    }
                }
                if one_way {
                    // Shard → coordinator blocked: offers and probes
                    // still land, acks vanish.
                    coord.partition_shard_one_way(victim, true);
                } else {
                    coord.partition_shard(victim);
                }
                partitioned = Some(victim);
                victim_tenants = homed;
                killed = Some(victim);
                kill_at = now;
            }
        }
        // The resurrection attempt: well after the failover, the deposed
        // incarnation tries to append. Typed refusal, bytes untouched.
        if matches!(spec.scenario, Scenario::StaleWriter)
            && spec.severity > 0.0
            && now == late_kill_tick
        {
            if let Some(victim) = partitioned {
                let journal = shard_journal_path(dir, victim);
                let before = std::fs::read(&journal).unwrap_or_default();
                match coord.stale_writer_probe(victim, now) {
                    Some(e) if e.is_fenced() => {}
                    other => violations
                        .push(format!("stale writer was not refused typed: {other:?}")),
                }
                let after = std::fs::read(&journal).unwrap_or_default();
                if before != after {
                    violations.push("a fenced append moved journal bytes".to_string());
                }
                if coord.fence_token_of(victim) != Some(1) {
                    violations.push(format!(
                        "the deposed incarnation should still hold token 1, not {:?}",
                        coord.fence_token_of(victim)
                    ));
                }
            }
        }
        if matches!(spec.scenario, Scenario::ReplicaCorrupt)
            && spec.severity > 0.0
            && now == corrupt_tick
            && coord.ring().len() > 1
        {
            // Bit rot on the victim's replica plus a torn ship: the scrub
            // has until `late_kill_tick` to find and repair both.
            let victim = coord.ring().route(TENANTS[0]);
            if let Some(replica) = coord.replica_path_of(victim) {
                if !corrupt_file(&replica) {
                    violations.push("the nemesis could not corrupt the replica".to_string());
                }
                coord.tear_replica_next(victim, 0.5);
            }
        }
        if matches!(spec.scenario, Scenario::CoordinatorRestart)
            && spec.severity > 0.0
            && now == restart_tick
        {
            // Checkpoint, drop the coordinator (its shards' memory dies
            // with it), and recover from the journal.
            if let Err(e) = coord.checkpoint(now) {
                violations.push(format!("checkpoint failed: {e}"));
            }
            drop(coord);
            let t0 = std::time::Instant::now();
            coord = FleetCoordinator::recover(cfg.clone(), dir)
                .map_err(|e| format!("recovery failed: {e}"))?;
            *failover_wall += t0.elapsed();
            if !coord.stats().conserves() {
                violations.push(format!(
                    "identity broken right after recovery: {:?}",
                    coord.stats()
                ));
            }
        }

        for (t, cost) in offers(spec.scenario, spec.severity, spec.seed, now, &flooded) {
            // Refusals (brown-out, memory) are legitimate under attack;
            // they are counted and conserved, not hidden.
            let _ = coord.offer(TENANTS[t], cost, now);
        }
        let panics: Vec<u32> = match panic_shard {
            // One hostile chunk per tick until the restart budget dies.
            Some(s) if now < kill_tick && coord.ring().contains(s) => vec![s],
            _ => Vec::new(),
        };
        for chunk in coord.advance(now, 4, &panics) {
            served.entry(chunk.tenant.clone()).or_default().push((chunk.seq, chunk.cost));
            if killed.is_some() {
                first_served_after_kill.entry(chunk.tenant).or_insert(now);
            }
        }
        coord.react(now);
        if let Some(victim) = partitioned {
            // Split-brain ordering: the victim must be observably
            // self-fenced (alive, lease expired, serving nothing) while
            // the coordinator has not yet failed anything over.
            if !self_fenced_before_failover
                && coord.shard_self_fenced(victim, now)
                && coord.failovers().is_empty()
            {
                self_fenced_before_failover = true;
            }
        }
        if !coord.stats().conserves() {
            violations.push(format!("identity broken at tick {now}: {:?}", coord.stats()));
            break;
        }
        now += 1;
    }
    let (stats, view) = chaos::drain_fleet(&mut coord, now, violations, |chunk, now| {
        served.entry(chunk.tenant.clone()).or_default().push((chunk.seq, chunk.cost));
        if killed.is_some() {
            first_served_after_kill.entry(chunk.tenant).or_insert(now);
        }
    });
    for (tenant, chunks) in served.iter_mut() {
        chunks.sort_unstable();
        // At-most-once serving: no (tenant, seq) leaves a queue twice.
        for twice in chunks.chunk_by(|a, b| a.0 == b.0).filter(|run| run.len() > 1) {
            violations.push(format!("{tenant} chunk {} served {} times", twice[0].0, twice.len()));
        }
    }
    let graceful =
        coord.failovers().iter().filter(|f| f.kind == FailoverKind::Graceful).count();
    let crashes =
        coord.failovers().iter().filter(|f| f.kind == FailoverKind::Crash).count();
    let scrub_found = view
        .scrub_events
        .iter()
        .filter(|d| matches!(d, Defect::ReplicaLag { .. } | Defect::ReplicaDiverged { .. }))
        .count();
    let scrub_repaired = view
        .scrub_events
        .iter()
        .filter(|d| matches!(d, Defect::ScrubRepaired { .. }))
        .count();
    // Failover latency on the logical clock: ticks from the kill until the
    // slowest victim tenant was served again through its new home.
    let recovery_ticks = victim_tenants
        .iter()
        .filter_map(|t| first_served_after_kill.get(t))
        .map(|&first| first.saturating_sub(kill_at))
        .max()
        .unwrap_or(0);
    // No lost tenants: every tenant of a killed shard keeps being served
    // through its new home.
    let lost: Vec<String> = victim_tenants
        .iter()
        .filter(|t| !first_served_after_kill.contains_key(*t))
        .map(|t| format!("tenant {t} was lost with its shard (never served again)"))
        .collect();

    if spec.severity == 0.0 {
        // Clean path: no failure machinery may have moved.
        if !coord.failovers().is_empty()
            || stats.rejected != 0
            || stats.shed != 0
            || stats.migrated != 0
            || stats.crash_loss != 0
        {
            violations.push(format!("clean run was not silent: {stats:?}"));
        }
        if stats.served != stats.offered {
            violations.push(format!("clean run dropped chunks: {stats:?}"));
        }
    } else {
        match spec.scenario {
            Scenario::SteadyState => {}
            Scenario::ShardKill => {
                // A single-shard fleet has nothing to fail over to; the
                // kill is skipped rather than blacking out the fleet.
                if env.shards > 1 && crashes == 0 {
                    violations.push("the kill never registered as a crash".to_string());
                }
                violations.extend(lost);
                // The disk survived the kill, so the primary journal
                // replays the pre-kill burst exactly.
                if env.shards > 1 {
                    if stats.crash_loss != 0 {
                        violations.push(format!(
                            "a kill with an intact disk must replay losslessly: {} lost",
                            stats.crash_loss
                        ));
                    }
                    if stats.recovered == 0 && !faulty_plane {
                        violations
                            .push("the pre-kill burst never replayed".to_string());
                    }
                }
            }
            Scenario::DiskLoss => {
                if env.shards > 1 {
                    if crashes == 0 {
                        violations.push("the kill never registered as a crash".to_string());
                    }
                    violations.extend(lost);
                    // The failure replication exists for: primary disk
                    // gone, the replica replays the queue exactly.
                    if stats.crash_loss != 0 {
                        violations.push(format!(
                            "the replica must reconcile a disk loss exactly: {} lost",
                            stats.crash_loss
                        ));
                    }
                    if stats.recovered == 0 && !faulty_plane {
                        violations.push("nothing replayed from the replica".to_string());
                    }
                }
            }
            Scenario::ReplicaCorrupt => {
                if env.shards > 1 {
                    // The scrub must have found the bit rot / torn ship
                    // and repaired the replica before the late disk loss.
                    if scrub_found == 0 {
                        violations
                            .push("the scrub never detected the corruption".to_string());
                    }
                    if scrub_repaired == 0 {
                        violations
                            .push("the scrub never repaired the replica".to_string());
                    }
                    if stats.crash_loss != 0 {
                        violations.push(format!(
                            "a scrub-repaired replica must reconcile exactly: {} lost",
                            stats.crash_loss
                        ));
                    }
                    if stats.recovered == 0 && !faulty_plane {
                        violations.push(
                            "nothing replayed from the repaired replica".to_string(),
                        );
                    }
                }
            }
            Scenario::DoubleFailure => {
                if env.shards > 1 {
                    // No clean copy survives (disk gone; replica corrupt
                    // or absent): the residual must be booked, not hidden.
                    if stats.crash_loss == 0 {
                        violations.push(
                            "a double failure must book honest residual loss".to_string(),
                        );
                    }
                    if stats.recovered != 0 {
                        violations.push(format!(
                            "a damaged copy was trusted for replay: {} recovered",
                            stats.recovered
                        ));
                    }
                    // The tenants survive even when their queue does not.
                    violations.extend(lost);
                }
            }
            Scenario::BrownOutFailover => {
                // The last shard is never fenced — a one-shard fleet
                // rides the brown-out out behind its own breaker.
                if spec.severity >= 2.0 && env.shards > 1 {
                    if graceful == 0 {
                        violations
                            .push("a sustained brown-out must fence the shard".to_string());
                    }
                    if stats.crash_loss != 0 {
                        violations.push(format!(
                            "graceful failover must be lossless: {} crash loss",
                            stats.crash_loss
                        ));
                    }
                    if stats.migrated == 0 {
                        violations.push("a fence must migrate the queue".to_string());
                    }
                }
            }
            Scenario::Cascade => {
                if view.live < 1 {
                    violations.push("the cascade fenced the last shard".to_string());
                }
                if spec.severity >= 2.0 && env.shards > 1 && graceful == 0 {
                    violations.push("a fleet-wide flood must fence something".to_string());
                }
            }
            Scenario::CoordinatorRestart => {
                if view.live != env.shards as usize {
                    violations.push(format!(
                        "restart lost shards: {} live of {}",
                        view.live, env.shards
                    ));
                }
            }
            Scenario::Partition | Scenario::AsymmetricPartition | Scenario::StaleWriter => {
                if env.shards > 1 {
                    if crashes == 0 {
                        violations
                            .push("the lease never expired into a failover".to_string());
                    }
                    if !self_fenced_before_failover {
                        violations.push(
                            "the victim never self-fenced ahead of the failover"
                                .to_string(),
                        );
                    }
                    // The partition killed the process, not the disk: the
                    // journal replays the queue exactly.
                    if stats.crash_loss != 0 {
                        violations.push(format!(
                            "a partition must lose nothing (the journal survives): {} lost",
                            stats.crash_loss
                        ));
                    }
                    if stats.recovered == 0 && !faulty_plane {
                        violations.push("the partitioned queue never replayed".to_string());
                    }
                    violations.extend(lost);
                    if coord.net_stats().partitioned == 0 {
                        violations.push("the partition never blocked a frame".to_string());
                    }
                }
            }
            Scenario::SplitTenantFlood => {
                if let Some(s) = panic_shard {
                    // The panic storm stayed inside its shard: every
                    // *other* shard's restart budget is untouched.
                    for h in &view.shards {
                        if h.id != s && h.restarts_used != 0 {
                            violations.push(format!(
                                "panic leaked across the bulkhead into shard {}",
                                h.id
                            ));
                        }
                    }
                }
            }
        }
    }

    Ok(vec![
        ("offered", stats.offered.into()),
        ("served", stats.served.into()),
        ("rejected", stats.rejected.into()),
        ("shed", stats.shed.into()),
        ("migrated", stats.migrated.into()),
        ("crash_loss", stats.crash_loss.into()),
        ("recovered", stats.recovered.into()),
        ("recovery_ticks", recovery_ticks.into()),
        ("scrub_found", scrub_found.into()),
        ("scrub_repaired", scrub_repaired.into()),
        ("failovers_graceful", graceful.into()),
        ("failovers_crash", crashes.into()),
        ("live_shards", view.live.into()),
        ("restart_burn", view.restart_burn.into()),
        ("served_digest", Json::Hex(chaos::served_digest(&served))),
    ])
}

fn main() -> Result<(), EmoleakError> {
    println!(
        "Fleet chaos: kills, disk losses, replica corruption, brown-outs, coordinator restarts"
    );
    let env = FleetConfig::from_env()?;
    let grid = chaos::grid(&SCENARIOS, 0xF1EE, &[0.0, 1.0, 2.0], 2)?;
    // Order-preserving parallel map: the record order — and therefore the
    // JSON bytes — is the grid order under any EMOLEAK_THREADS.
    let (records, walls): (Vec<_>, Vec<u64>) = par_map_indexed(&grid, |i, cell| {
        let mut wall = Duration::ZERO;
        let record =
            chaos::run_cell("fleet_chaos", i, cell.fields("scenario"), |dir, violations| {
                simulate(cell, &env, dir, violations, &mut wall)
            });
        (record, wall.as_micros() as u64)
    })
    .into_iter()
    .unzip();

    // The shard-count-invariant artifact: only the clean-path (severity 0)
    // served digests, which a correct fleet reproduces for ANY shard
    // count, kernel mode or message plane.
    let mut digests =
        String::from("# clean-path served digests: invariant across EMOLEAK_SHARDS\n");
    for (cell, record) in grid.iter().zip(&records).filter(|(c, _)| c.severity == 0.0) {
        let digest = record.get("served_digest").and_then(Json::as_u64).unwrap_or(0);
        digests.push_str(&format!("{} seed={} digest={digest:016x}\n", cell.name, cell.seed));
    }
    chaos::publish("fleet_clean_digest.txt", &digests);

    // The wall-clock aggregates sit on their own `failover_wall_us` lines,
    // so CI can strip them (`grep -v failover_wall_us`) and byte-compare
    // the rest across EMOLEAK_THREADS.
    let summary = [
        ("crash_loss_total", chaos::column(&records, "crash_loss").sum::<u64>().into()),
        ("recovered_total", chaos::column(&records, "recovered").sum::<u64>().into()),
        ("recovery_ticks_max", chaos::column(&records, "recovery_ticks").max().unwrap_or(0).into()),
        ("failover_wall_us_total", walls.iter().sum::<u64>().into()),
        ("failover_wall_us_max", walls.iter().copied().max().unwrap_or(0).into()),
    ];
    chaos::finish(
        "fleet_chaos",
        &[("shards", env.shards.into())],
        &records,
        &summary,
        &[
            "offered", "served", "rejected", "shed", "migrated", "crash_loss", "recovered",
            "failovers_graceful", "failovers_crash", "live_shards", "restart_burn",
        ],
    );
    Ok(())
}
