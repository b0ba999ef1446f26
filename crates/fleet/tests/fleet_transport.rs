//! Partition-tolerance contract tests at the fleet boundary.
//!
//! The simulated message plane is the coordinator's only path to its
//! shards. Faultless (`NetProfile::ideal`), it must serve every offered
//! chunk exactly once, in per-tenant order, with no protocol noise, and
//! keep lease upkeep to one round trip per quiet shard per half lease.
//! Hostile, it must stay **split-brain-free**: a partitioned shard
//! self-fences when its lease runs out, the coordinator fails over only
//! after the grant provably expired, the dead shard's queue replays with
//! zero loss, and a resurrected stale incarnation's journal appends are
//! refused with a typed [`DurableError::Fenced`] — bytes untouched.
//!
//! The global no-double-serve check is the split-brain proof: if a
//! deposed shard ever served while its queue was replayed elsewhere, a
//! `(tenant, seq)` pair would appear twice in the served stream.

use emoleak_admission::AdmissionConfig;
use emoleak_durable::DurableError;
use emoleak_fleet::config::NetConfig;
use emoleak_core::admission::FleetState;
use emoleak_fleet::{FailoverKind, FleetConfig, FleetCoordinator, NetProfileKind};
use emoleak_stream::durable::recover_run;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

fn scratch(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("emoleak-fleet-net-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config(profile: NetProfileKind) -> FleetConfig {
    FleetConfig {
        shards: 4,
        ledger_every: 10,
        scrub_every: 10,
        net: NetConfig { profile, lease_ticks: 6 },
        admission: AdmissionConfig {
            mem_budget: u64::MAX / 2,
            tenant_rps: 1_000_000,
            tenant_burst: 1_000_000,
            ..AdmissionConfig::default()
        },
        ..FleetConfig::default()
    }
}

fn tenants(n: usize) -> Vec<String> {
    (0..n).map(|t| format!("tenant-{t}")).collect()
}

/// A served stream: `(tenant, seq, cost)` in the order chunks came back.
type Served = Vec<(String, u64, u64)>;

/// Advances the fleet one tick and appends what it served to `served`.
fn serve(c: &mut FleetCoordinator, now: u64, cap: usize, served: &mut Served) {
    served.extend(c.advance(now, cap, &[]).into_iter().map(|q| (q.tenant, q.seq, q.cost)));
}

/// Offers one chunk per tenant (refusals allowed), then [`serve`]s.
fn tick(c: &mut FleetCoordinator, ts: &[String], now: u64, cap: usize, served: &mut Served) {
    for t in ts {
        let _ = c.offer(t, 64, now);
    }
    serve(c, now, cap, served);
}

fn assert_no_double_serve(served: &[(String, u64, u64)]) {
    let mut seen = BTreeSet::new();
    for (tenant, seq, _) in served {
        assert!(
            seen.insert((tenant.clone(), *seq)),
            "chunk ({tenant}, {seq}) served twice — split-brain or dedup failure"
        );
    }
}

/// Drives a simple campaign: `ticks` offer rounds at `capacity`, then a
/// generous drain window with offers stopped. Returns the served stream.
fn run_campaign(c: &mut FleetCoordinator, ts: &[String], ticks: u64, capacity: usize) -> Served {
    let mut served = Vec::new();
    for now in 0..ticks {
        tick(c, ts, now, capacity, &mut served);
    }
    for now in ticks..ticks + 50 {
        serve(c, now, usize::MAX, &mut served);
    }
    served
}

#[test]
fn clean_plane_serves_every_offer_once_in_order_without_protocol_noise() {
    let dir = scratch("clean");
    let ts = tenants(16);
    let mut c = FleetCoordinator::new(config(NetProfileKind::Ideal), &dir).unwrap();
    let mut served = Vec::new();
    for now in 0..100 {
        for t in &ts {
            c.offer(t, 64, now).unwrap();
        }
        serve(&mut c, now, 8, &mut served);
        for id in 0..4 {
            assert!(!c.shard_self_fenced(id, now), "shard {id} self-fenced at tick {now}");
        }
    }
    // Every shard received offers on every tick, and their grants kept
    // its lease: not one probe went out.
    assert_eq!(c.net_stats().sent, 1600, "{:?}", c.net_stats());
    for now in 100..150 {
        serve(&mut c, now, usize::MAX, &mut served);
    }
    let mut per_tenant: BTreeMap<&str, Vec<u64>> = BTreeMap::new();
    for (tenant, seq, _) in &served {
        per_tenant.entry(tenant).or_default().push(*seq);
    }
    assert_eq!(per_tenant.len(), ts.len());
    for (tenant, seqs) in &per_tenant {
        assert_eq!(*seqs, (0..100).collect::<Vec<_>>(), "{tenant}: once each, in seq order");
    }
    let s = c.stats();
    assert!(s.conserves(), "{s:?}");
    assert_eq!((s.offered, s.served, s.queued), (1600, 1600, 0), "{s:?}");
    assert!(c.failovers().is_empty());
    let ns = c.net_stats();
    assert!(ns.sent >= 1600 && ns.delivered == ns.sent, "{ns:?}");
    assert_eq!(
        (ns.dropped, ns.duplicated, ns.deduped, ns.retransmits, ns.partitioned, ns.refused),
        (0, 0, 0, 0, 0, 0),
        "an ideal plane has no faults: {ns:?}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn quiet_shards_keep_their_leases_at_one_round_trip_per_half_lease() {
    let dir = scratch("upkeep");
    let cfg = config(NetProfileKind::Ideal);
    let (shards, lease_ticks) = (u64::from(cfg.shards), cfg.net.lease_ticks);
    let mut c = FleetCoordinator::new(cfg, &dir).unwrap();
    let ts = tenants(3);
    let ticks = 1000;
    let mut offered = 0;
    for now in 0..ticks {
        // Sparse load: most shards go many ticks without an offer, so
        // only the probes keep their leases.
        if now % 7 == 0 {
            c.offer(&ts[(now / 7) as usize % ts.len()], 64, now).unwrap();
            offered += 1;
        }
        c.advance(now, 8, &[]);
        for id in 0..4 {
            assert!(!c.shard_self_fenced(id, now), "shard {id} self-fenced at tick {now}");
        }
    }
    let s = c.stats();
    assert_eq!((s.offered, s.served), (offered, offered), "{s:?}");
    assert!(c.failovers().is_empty());
    // On a clean run every frame that is not an offer is lease upkeep (a
    // steady shard sends no health): at most one probe per shard per
    // half lease, each acked once.
    let ns = c.net_stats();
    let upkeep = ns.sent - offered;
    let bound = shards * ticks.div_ceil(lease_ticks / 2);
    assert!(upkeep > 0, "quiet shards must be probed: {ns:?}");
    assert!(upkeep <= bound, "{upkeep} upkeep frames over {bound}: {ns:?}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Floods one tenant homed on shard 0 of a two-shard fleet that serves
/// nothing, until the shard's own breaker reads BrownOut, then lets it
/// serve again. Returns how many ticks the breaker read BrownOut and
/// whether the coordinator drained the shard.
fn brownout_blip(name: &str, failover_after: u32) -> (u64, bool) {
    let dir = scratch(name);
    let mut cfg = config(NetProfileKind::Ideal);
    cfg.shards = 2;
    cfg.failover_after = failover_after;
    cfg.admission.mem_budget = 4096;
    let mut c = FleetCoordinator::new(cfg, &dir).unwrap();
    let flooder =
        (0..64).map(|t| format!("tenant-{t}")).find(|t| c.ring().route(t) == 0).unwrap();
    let mut browned = 0;
    let mut flooding = true;
    for now in 0..120 {
        if flooding {
            for _ in 0..8 {
                let _ = c.offer(&flooder, 64, now);
            }
        }
        c.advance(now, if flooding { 0 } else { usize::MAX }, &[]);
        c.react(now);
        let fleet = c.view().shards.iter().find(|h| h.id == 0).map(|h| h.fleet);
        if fleet == Some(FleetState::BrownOut) {
            browned += 1;
            flooding = false;
        }
        assert!(c.stats().conserves(), "tick {now}: {:?}", c.stats());
    }
    let drained = c.failovers().iter().any(|f| f.shard == 0 && f.kind == FailoverKind::Graceful);
    std::fs::remove_dir_all(&dir).unwrap();
    (browned, drained)
}

#[test]
fn a_brief_brownout_is_never_drained() {
    // The breaker holds BrownOut for a bounded stretch once the flood
    // stops. A coordinator that counted one cached report on every scan
    // after the shard recovered would drain it; one that hears the
    // recovery reacts only to the ticks the shard really browned out.
    let (browned, drained) = brownout_blip("blip", 64);
    assert!(browned > 0, "the flood must brown the shard out");
    assert!(browned < 64, "the brown-out must end: {browned} ticks");
    assert!(!drained, "a {browned}-tick brown-out under failover_after 64 was drained");
    // The same blip against a threshold it exceeds is drained: the
    // streak is counted, just not past the brown-out.
    let (_, drained) = brownout_blip("blip-short", (browned as u32).saturating_sub(2).max(1));
    assert!(drained, "a {browned}-tick brown-out must trip a shorter threshold");
}

/// The full-partition drill, shared by two tests: partition shard 1 at
/// tick 40, keep the load coming, and let the lease machinery converge.
/// Returns the coordinator (post-drain), the served stream, the tick the
/// shard was first observed self-fenced, and the failover tick.
fn partition_drill(dir: &Path, one_way: bool) -> (FleetCoordinator, Served, u64, u64) {
    let mut c = FleetCoordinator::new(config(NetProfileKind::Ideal), dir).unwrap();
    let ts = tenants(16);
    let victim = 1;
    let mut served = Vec::new();
    let mut self_fenced_at = None;
    let mut failover_at = None;
    for now in 0..120 {
        if now == 40 {
            if one_way {
                // The shard can hear the coordinator but not answer: the
                // asymmetric case where only the lease can save us.
                c.partition_shard_one_way(victim, true);
            } else {
                c.partition_shard(victim);
            }
        }
        tick(&mut c, &ts, now, 2, &mut served);
        if self_fenced_at.is_none() && c.shard_self_fenced(victim, now) {
            self_fenced_at = Some(now);
        }
        if failover_at.is_none() && !c.failovers().is_empty() {
            failover_at = Some(now);
        }
    }
    for now in 120..180 {
        serve(&mut c, now, usize::MAX, &mut served);
    }
    let self_fenced_at = self_fenced_at.expect("the victim must self-fence");
    let failover_at = failover_at.expect("the coordinator must fail the victim over");
    (c, served, self_fenced_at, failover_at)
}

#[test]
fn full_partition_self_fences_then_fails_over_with_zero_loss() {
    let dir = scratch("partition");
    let (c, served, self_fenced_at, failover_at) = partition_drill(&dir, false);
    // No split-brain: the shard stopped serving (lease ran out) strictly
    // before the coordinator acted on the provably-expired grant.
    assert!(
        self_fenced_at < failover_at,
        "self-fence at {self_fenced_at} must precede failover at {failover_at}"
    );
    let event = c.failovers()[0];
    assert_eq!(event.shard, 1);
    assert_eq!(event.kind, FailoverKind::Crash);
    assert_eq!(event.crash_loss, 0, "the journal replays the queue exactly: {event:?}");
    assert!(event.recovered > 0, "the starved queue must replay: {event:?}");
    let s = c.stats();
    assert!(s.conserves(), "{s:?}");
    assert_eq!(s.crash_loss, 0, "a partition must lose nothing: {s:?}");
    assert_eq!(s.queued, 0);
    assert_no_double_serve(&served);
    let ns = c.net_stats();
    assert!(ns.partitioned > 0, "the partition must actually bite: {ns:?}");
    assert!(ns.retransmits > 0, "blocked frames must retry: {ns:?}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn asymmetric_partition_forces_self_fence_before_failover() {
    let dir = scratch("asymmetric");
    let (c, served, self_fenced_at, failover_at) = partition_drill(&dir, true);
    // One-way loss (shard → coordinator blocked): offers still land and
    // are admitted, but acks vanish, so the coordinator stops extending
    // and the shard's lease runs down. Self-fence must still strictly
    // precede the failover.
    assert!(self_fenced_at < failover_at, "{self_fenced_at} vs {failover_at}");
    let event = c.failovers()[0];
    assert_eq!(event.kind, FailoverKind::Crash);
    assert_eq!(
        event.crash_loss, 0,
        "offers admitted during the half-open window replay from the journal: {event:?}"
    );
    let s = c.stats();
    assert!(s.conserves(), "{s:?}");
    assert_eq!(s.crash_loss, 0, "{s:?}");
    assert_no_double_serve(&served);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn healing_before_lease_expiry_resumes_without_failover() {
    let dir = scratch("heal");
    let mut c = FleetCoordinator::new(config(NetProfileKind::Ideal), &dir).unwrap();
    let ts = tenants(16);
    let mut served = Vec::new();
    for now in 0..120 {
        if now == 40 {
            c.partition_shard(1);
        }
        if now == 44 {
            // Healed while the last grant is still live: the next probe
            // through extends the lease and nothing ever fences.
            c.heal_partitions();
        }
        tick(&mut c, &ts, now, 8, &mut served);
    }
    for now in 120..170 {
        serve(&mut c, now, usize::MAX, &mut served);
    }
    assert!(c.failovers().is_empty(), "a healed blip must not fail anything over");
    assert_eq!(c.view().live, 4, "all four shards still serve");
    let s = c.stats();
    assert!(s.conserves(), "{s:?}");
    assert_eq!(s.crash_loss, 0, "{s:?}");
    assert_eq!(s.queued, 0);
    assert_no_double_serve(&served);
    // At-least-once across the blip: the frames blocked by the partition
    // were retransmitted through after the heal, not lost.
    let ns = c.net_stats();
    assert!(ns.partitioned > 0 && ns.retransmits > 0, "{ns:?}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn resurrected_stale_writer_is_refused_typed_and_bytes_stay_identical() {
    let dir = scratch("stale");
    let (c, _served, _sf, _fo) = partition_drill(&dir, false);
    let victim = 1;
    assert_eq!(c.fence_token_of(victim), Some(1), "first incarnation holds token 1");
    // Snapshot the fenced journal before the resurrection attempt.
    let journal = emoleak_fleet::shard_journal_path(&dir, victim);
    let before_bytes = std::fs::read(&journal).unwrap();
    let (before_run, defects) = recover_run(&journal).unwrap();
    assert!(defects.is_empty(), "{defects:?}");
    assert_eq!(before_run.fence_token, Some(1), "the journal carries its epoch stamp");

    // The stale incarnation wakes up and tries to write. Twice, for luck.
    for probe in 0..2 {
        let err = c
            .stale_writer_probe(victim, 500 + probe)
            .expect("the stale writer must be refused");
        assert!(err.is_fenced(), "{err}");
        match &err {
            DurableError::Fenced { held, current, .. } => {
                assert_eq!((*held, *current), (1, 2), "{err}");
            }
            other => panic!("expected Fenced, got {other:?}"),
        }
    }

    // Byte-identical: the refusal happened before the file was touched.
    let after_bytes = std::fs::read(&journal).unwrap();
    assert_eq!(before_bytes, after_bytes, "a fenced append must not move a single byte");
    let (after_run, defects) = recover_run(&journal).unwrap();
    assert!(defects.is_empty(), "{defects:?}");
    assert_eq!(before_run, after_run, "recovery is identical before and after the attempt");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn lossy_and_chaotic_profiles_conserve_and_never_double_serve() {
    for (name, profile) in
        [("lossy", NetProfileKind::Lossy), ("chaotic", NetProfileKind::Chaotic)]
    {
        let dir = scratch(name);
        let mut c = FleetCoordinator::new(config(profile), &dir).unwrap();
        let ts = tenants(12);
        let mut served = Vec::new();
        let (mut calls, mut peak_in_flight) = (0, 0);
        for now in 0..150 {
            for t in &ts {
                c.offer(t, 64, now).unwrap();
                calls += 1;
            }
            serve(&mut c, now, 4, &mut served);
            let s = c.stats();
            assert!(s.conserves(), "tick {now} ({name}): {s:?}");
            // An offer counts the moment it is made, landed or not.
            assert_eq!(s.offered, calls, "tick {now} ({name}): {s:?}");
            peak_in_flight = peak_in_flight.max(s.in_flight);
        }
        let mut now = 150;
        while !c.stats().settled() && now < 400 {
            serve(&mut c, now, usize::MAX, &mut served);
            now += 1;
        }
        let s = c.stats();
        assert!(s.conserves(), "{name}: {s:?}");
        assert!(s.settled(), "{name}: the drain must finish: {s:?}");
        assert!(peak_in_flight > 0, "{name}: a faulty plane must delay some offers");
        assert!(c.failovers().is_empty(), "{name}: {:?}", c.failovers());
        assert_eq!((s.offered, s.served), (calls, calls), "{name}: {s:?}");
        assert_no_double_serve(&served);
        let ns = c.net_stats();
        assert!(ns.dropped > 0 && ns.retransmits > 0, "{name}: faults must fire: {ns:?}");
        assert!(ns.deduped > 0, "{name}: the dedup window must catch duplicates: {ns:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn coordinator_restart_rebuilds_the_plane_and_keeps_serving() {
    let dir = scratch("restart");
    let ts = tenants(16);
    let mut c = FleetCoordinator::new(config(NetProfileKind::Ideal), &dir).unwrap();
    let mut served = Vec::new();
    for now in 0..60 {
        tick(&mut c, &ts, now, 8, &mut served);
    }
    c.checkpoint(60).unwrap();
    drop(c);
    // A fresh incarnation: new plane, new leases, fresh fence epochs. The
    // queues replay out of the journals and service continues.
    let mut c = FleetCoordinator::recover(config(NetProfileKind::Ideal), &dir).unwrap();
    for now in 60..120 {
        tick(&mut c, &ts, now, 8, &mut served);
    }
    for now in 120..170 {
        serve(&mut c, now, usize::MAX, &mut served);
    }
    // recover() books one reconciliation crash per then-live shard; a
    // clean restart reconciles all four losslessly and loses none later
    // (in particular, the fresh leases must not mass-expire at tick 60).
    assert_eq!(c.failovers().len(), 4, "{:?}", c.failovers());
    assert!(
        c.failovers().iter().all(|f| f.tick == 60 && f.crash_loss == 0),
        "{:?}",
        c.failovers()
    );
    assert_eq!(c.view().live, 4);
    let s = c.stats();
    assert!(s.conserves(), "{s:?}");
    assert_eq!(s.queued, 0);
    assert_no_double_serve(&served);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn determinism_same_seed_same_bytes_under_chaos() {
    let run = |tag: &str| {
        let dir = scratch(&format!("det-{tag}"));
        let mut c = FleetCoordinator::new(config(NetProfileKind::Chaotic), &dir).unwrap();
        let ts = tenants(8);
        let served = run_campaign(&mut c, &ts, 80, 3);
        let stats = c.stats();
        let net = c.net_stats();
        std::fs::remove_dir_all(&dir).unwrap();
        (served, stats, net)
    };
    let a = run("a");
    let b = run("b");
    assert_eq!(a.0, b.0, "same seed must replay the same served stream");
    assert_eq!(a.1, b.1);
    assert_eq!(a.2, b.2, "even the fault counters must replay");
}
