//! Replication contract tests at the fleet boundary: zero-loss crash
//! failover must be byte-identical for any worker count, a double failure
//! must book honest loss, and a restarted coordinator must never number a
//! served chunk again.
//!
//! The thread-identity check uses `emoleak_exec::with_threads`, the same
//! mechanism the determinism suites use elsewhere: the identical campaign
//! runs under 1 and 4 workers and every observable — the served
//! `(tenant, seq, cost)` stream, the conservation counters, the failover
//! ledger — is compared exactly.

use emoleak_admission::AdmissionConfig;
use emoleak_exec::with_threads;
use emoleak_fleet::{FailoverKind, FleetConfig, FleetCoordinator, FleetStats};
use std::collections::BTreeSet;
use std::path::PathBuf;

fn scratch(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("emoleak-fleet-repl-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config() -> FleetConfig {
    FleetConfig {
        shards: 4,
        ledger_every: 10,
        scrub_every: 10,
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

/// One deterministic campaign: 120 capacity-starved ticks, a mid-run hard
/// kill, then a full drain. Returns the served stream in served order
/// plus the final counters.
fn campaign(dir: &std::path::Path) -> (Vec<(String, u64, u64)>, FleetStats, Vec<FailoverKind>) {
    let mut c = FleetCoordinator::new(config(), dir).unwrap();
    let ts = tenants(16);
    let mut served = Vec::new();
    for now in 0..120 {
        if now == 60 {
            // Starved queues guarantee work in flight at the kill.
            let event = c.kill_shard(1, now);
            assert_eq!(event.kind, FailoverKind::Crash);
        }
        for t in &ts {
            let _ = c.offer(t, 64, now);
        }
        served.extend(c.advance(now, 2, &[]).into_iter().map(|q| (q.tenant, q.seq, q.cost)));
        // No react(): the sustained starvation would brown-out-fence the
        // fleet, and this suite tests the *crash* path in isolation.
        assert!(c.stats().conserves(), "tick {now}: {:?}", c.stats());
    }
    let mut now = 120;
    while c.stats().queued > 0 {
        let tick = c.advance(now, usize::MAX, &[]);
        served.extend(tick.into_iter().map(|q| (q.tenant, q.seq, q.cost)));
        now += 1;
    }
    let kinds = c.failovers().iter().map(|f| f.kind).collect();
    (served, c.stats(), kinds)
}

#[test]
fn replicated_crash_failover_is_lossless_and_thread_identical() {
    let dir1 = scratch("t1");
    let dir4 = scratch("t4");
    let (served1, stats1, kinds1) = with_threads(1, || campaign(&dir1));
    let (served4, stats4, kinds4) = with_threads(4, || campaign(&dir4));

    // The replication contract: a crash with a clean journal copy loses
    // nothing, and the replay is visible in the books.
    assert_eq!(stats1.crash_loss, 0, "replicated failover must be lossless: {stats1:?}");
    assert!(stats1.recovered > 0, "the starved queue must replay: {stats1:?}");
    assert!(stats1.conserves(), "{stats1:?}");
    assert_eq!(kinds1, vec![FailoverKind::Crash]);

    // The determinism contract: every observable is worker-count-blind.
    assert_eq!(served1, served4, "served stream diverged across thread counts");
    assert_eq!(stats1, stats4, "counters diverged across thread counts");
    assert_eq!(kinds1, kinds4);

    std::fs::remove_dir_all(&dir1).unwrap();
    std::fs::remove_dir_all(&dir4).unwrap();
}

#[test]
fn double_failure_books_honest_loss_not_a_silent_leak() {
    let dir = scratch("double");
    let mut c = FleetCoordinator::new(config(), &dir).unwrap();
    let ts = tenants(16);
    for now in 0..60 {
        for t in &ts {
            let _ = c.offer(t, 64, now);
        }
        c.advance(now, 2, &[]);
    }
    // Disk loss + corrupted replica: no clean copy testifies.
    let replica = c.replica_path_of(1).expect("replication is on");
    let mut bytes = std::fs::read(&replica).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&replica, &bytes).unwrap();
    let event = c.kill_shard_with_disk_loss(1, 60);
    assert!(event.crash_loss > 0, "a double failure must book loss: {event:?}");
    assert_eq!(event.recovered, 0, "a damaged copy must never replay: {event:?}");
    assert!(c.stats().conserves(), "{:?}", c.stats());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The restart drill: a checkpoint at tick 4, five more ticks that serve
/// `amber`'s seqs 5..=9, then a restart from that checkpoint, ten more
/// offers and a drain. A recovered fleet that resumed seqs at the
/// checkpoint's value would number and serve 5..=9 a second time.
#[test]
fn a_recovered_coordinator_never_reissues_a_served_seq() {
    let dir = scratch("recover-seqs");
    let cfg = FleetConfig { shards: 2, ..config() };
    let mut c = FleetCoordinator::new(cfg.clone(), &dir).unwrap();
    let mut served = Vec::new();
    for now in 0..10 {
        c.offer("amber", 64, now).unwrap();
        served.extend(c.advance(now, 1, &[]).into_iter().map(|q| (q.tenant, q.seq)));
        if now == 4 {
            c.checkpoint(now).unwrap();
        }
    }
    drop(c);
    let mut c = FleetCoordinator::recover(cfg, &dir).unwrap();
    let mut now = 10;
    while now < 20 || !c.stats().settled() {
        assert!(now < 100, "the drain never settled: {:?}", c.stats());
        if now < 20 {
            c.offer("amber", 64, now).unwrap();
        }
        served.extend(c.advance(now, 1, &[]).into_iter().map(|q| (q.tenant, q.seq)));
        now += 1;
    }
    let mut seen = BTreeSet::new();
    let twice: Vec<_> = served.iter().filter(|chunk| !seen.insert(*chunk)).collect();
    assert!(twice.is_empty(), "served twice after the restart: {twice:?}");
    assert_eq!(served.len(), 20, "every offer is served once: {served:?}");
    assert!(c.stats().conserves(), "{:?}", c.stats());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Every file the fleet left under `dir` (primary and replica journals,
/// the coordinator's checkpoint journal), as `(name, bytes)` in name order.
fn journal_files(dir: &std::path::Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| {
            let path = entry.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read(&path).unwrap())
        })
        .collect();
    files.sort();
    files
}

/// One tenant homed on each shard, in shard-id order.
fn one_tenant_per_shard(c: &FleetCoordinator) -> Vec<String> {
    let mut homed: Vec<Option<String>> = vec![None; c.config().shards as usize];
    for t in (0..).map(|k| format!("tenant-{k}")) {
        let home = &mut homed[c.ring().route(&t) as usize];
        if home.is_none() {
            *home = Some(t);
        }
        if homed.iter().all(Option::is_some) {
            break;
        }
    }
    homed.into_iter().map(Option::unwrap).collect()
}

/// What one run shows from outside the fleet.
struct Observed {
    served: Vec<(String, u64, u64)>,
    stats: FleetStats,
    level_ticks: [u64; 4],
    files: Vec<(String, Vec<u8>)>,
}

impl Observed {
    fn names(&self) -> Vec<&str> {
        self.files.iter().map(|(name, _)| name.as_str()).collect()
    }
}

/// A 4-shard campaign driven from the calling thread, so its
/// `advance` calls are top-level parallel regions. Even ticks are quiet:
/// one tenant offers, one shard is busy and the tick runs inline. Odd
/// ticks are bursts: every shard's tenant offers, every shard is busy and
/// the tick fans out. Every tick serves all it queued.
fn quiet_and_burst_campaign(dir: &std::path::Path) -> Observed {
    let mut c = FleetCoordinator::new(config(), dir).unwrap();
    let homes = one_tenant_per_shard(&c);
    let mut served = Vec::new();
    for now in 0..120 {
        let offering = if now % 2 == 1 {
            &homes[..]
        } else {
            let k = (now / 2) as usize % homes.len();
            &homes[k..=k]
        };
        for t in offering {
            c.offer(t, 64, now).unwrap();
        }
        // Offers land when `advance` pumps the plane, so the busy shards
        // show in what the tick served: one chunk from each offering
        // tenant's home shard, each a different shard.
        let before = served.len();
        let tick = c.advance(now, usize::MAX, &[]);
        served.extend(tick.into_iter().map(|q| (q.tenant, q.seq, q.cost)));
        let busy = served.len() - before;
        assert_eq!(busy, offering.len(), "tick {now}: the schedule's busy-shard count");
        assert_eq!(c.stats().queued, 0, "tick {now}: every tick serves all it queued");
    }
    let (stats, level_ticks) = (c.stats(), c.view().durability_level_ticks);
    drop(c);
    Observed { served, stats, level_ticks, files: journal_files(dir) }
}

/// Quiet ticks step their one busy shard inline and burst ticks fan out to
/// the pool, so a tick's thread count may differ from tick to tick; what
/// the fleet serves and journals must not. This test exists because
/// nothing else compares the fan-out's journals across thread counts:
/// `fleet_chaos` runs each cell inside `par_map_indexed`, where a nested
/// region runs serially, so CI's 1-vs-4-thread `cmp`s of its reports never
/// run the coordinator's fan-out.
#[test]
fn quiet_and_burst_ticks_are_thread_identical_down_to_the_journal_bytes() {
    let dir1 = scratch("mixed-t1");
    let dir4 = scratch("mixed-t4");
    let one = with_threads(1, || quiet_and_burst_campaign(&dir1));
    let four = with_threads(4, || quiet_and_burst_campaign(&dir4));

    assert_eq!(one.served.len(), 60 + 60 * 4, "one chunk per quiet tick, four per burst");
    assert!(one.stats.conserves(), "{:?}", one.stats);
    let replicas = one.names().iter().filter(|name| name.contains(".replica-on-")).count();
    assert_eq!(replicas, 4, "every shard ships a replica: {:?}", one.names());

    assert_eq!(one.served, four.served, "served stream diverged across thread counts");
    assert_eq!(one.stats, four.stats, "counters diverged across thread counts");
    assert_eq!(one.level_ticks, four.level_ticks, "durability occupancy diverged");
    assert_eq!(one.names(), four.names(), "journal file sets differ");
    for ((name, bytes1), (_, bytes4)) in one.files.iter().zip(&four.files) {
        assert!(bytes1 == bytes4, "{name} differs across thread counts");
    }

    std::fs::remove_dir_all(&dir1).unwrap();
    std::fs::remove_dir_all(&dir4).unwrap();
}
