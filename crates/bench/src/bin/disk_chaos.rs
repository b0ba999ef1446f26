//! Disk-chaos harness for the storage fault domain.
//!
//! Drives `emoleak_fleet::FleetCoordinator` with every shard's durable
//! bytes routed through the seeded [`FaultVfs`](emoleak_durable::FaultVfs)
//! nemesis, over a grid of disk-failure scenarios × severities × seeds,
//! and asserts the *storage contract* on every run:
//!
//! * conservation — at every tick and after a full drain,
//!   `offered == served + rejected + shed + queued + migrated +
//!   in_flight`, with nothing queued or in flight at the end. A dying
//!   disk may refuse or lose work; it may never make the books lie;
//! * zero escaped panics — ENOSPC, EIO storms, and dead-disk stalls are
//!   absorbed by the durability ladder, never thrown at this harness;
//! * ladder coherence — each shard's durability transitions form an
//!   unbroken chain from `Durable` (every `from` equals the previous
//!   `to`); under a monotone nemesis (a disk that only fills) the chain
//!   is also monotone: the ladder only descends;
//! * clean-path byte-identity — at severity 0 the nemesis is *armed but
//!   quiet*, and the run must be indistinguishable from the same fleet on
//!   the real filesystem (`OsVfs`, same gauge): identical fleet stats,
//!   identical served stream, and byte-identical shard journals. This is
//!   what makes the nemesis trustworthy: severity-0 faults cost nothing,
//!   so any nonzero-severity difference is the fault's doing alone;
//! * honest loss — when the mixed scenario kills a shard whose gauge had
//!   already degraded past journaling, the unaccounted residual is booked
//!   as `crash_loss` (a subset of `shed`), and anything replayed counts
//!   in `recovered ⊆ migrated` — never both for the same chunk.
//!
//! The simulation runs on the fleet's logical clock and the grid is
//! parallelized with order-preserving `par_map_indexed`, so
//! `disk_chaos.json` is **byte-identical under any `EMOLEAK_THREADS`**
//! (for a fixed shard count) — there are no wall-clock fields at all.
//! The grid, its knobs (`EMOLEAK_CHAOS_SEVERITIES`, default `0,1,2`;
//! `EMOLEAK_CHAOS_SEEDS`, default 2), the fleet tuning, the final drain
//! and the report live in `emoleak_bench::chaos`; `EMOLEAK_SHARDS` sizes
//! the fleet and `EMOLEAK_NET` picks its message plane (`ideal` by
//! default, `lossy`, `chaotic`). Exits non-zero if any run violates the
//! contract.

use emoleak_bench::chaos::{self, Cell, Fields, Json};
use emoleak_core::admission::DurabilityLevel;
use emoleak_core::EmoleakError;
use emoleak_durable::FaultPlan;
use emoleak_exec::par_map_indexed;
use emoleak_fleet::{
    shard_journal_path, DiskConfig, FleetConfig, FleetCoordinator, FleetStats,
};
use emoleak_stream::DiskGaugeConfig;
use std::collections::BTreeMap;

const TICKS: u64 = 300;
const TENANTS: [&str; 8] =
    ["amber", "brook", "coral", "dune", "ember", "fjord", "grove", "heath"];

/// Faultable ops that pass clean before the storm starts: enough for
/// every shard's journals (and their headers) to boot, so construction
/// never dies before the scenario begins.
const WARMUP_OPS: u64 = 64;

#[derive(Clone, Copy)]
enum Scenario {
    /// The disk fills as the run writes: free space ramps down through
    /// the gauge watermarks. At severity 2 the disk is born below the
    /// refuse watermark. The ladder must descend monotonically — a disk
    /// that only fills never earns a climb.
    EnospcRamp,
    /// Random EIO on writes, fsyncs, and renames. Error streaks walk the
    /// ladder down; clean streaks (plus the cooldown) earn it back.
    EioStorm,
    /// Stalling fsyncs. At severity 1 only every 4th fsync stalls —
    /// misses never streak, and the hysteresis must hold the ladder
    /// steady. At severity 2 every fsync stalls and the stall budget
    /// exhausts into EIO: the hung disk dies for real.
    FsyncStall,
    /// Everything at once — EIO, stalls, a finite disk — plus a mid-run
    /// shard kill, so degraded-mode exposure turns into real crash loss
    /// that must be booked honestly.
    Mixed,
}

const SCENARIOS: [(&str, Scenario); 4] = [
    ("enospc_ramp", Scenario::EnospcRamp),
    ("eio_storm", Scenario::EioStorm),
    ("fsync_stall", Scenario::FsyncStall),
    ("mixed", Scenario::Mixed),
];

impl Scenario {
    /// The per-fleet fault plan (reseeded per shard by
    /// [`DiskConfig::shard_plan`]) and gauge for one grid cell. Severity
    /// 0 is the armed-but-quiet control.
    fn disk(self, severity: f64, seed: u64) -> DiskConfig {
        let quiet = FaultPlan::quiet(seed);
        if severity <= 0.0 {
            return DiskConfig { plan: Some(quiet), gauge: DiskGaugeConfig::default() };
        }
        let mut gauge = DiskGaugeConfig::default();
        let plan = match self {
            Scenario::EnospcRamp => {
                if severity >= 2.0 {
                    // Born beyond the refuse watermark: the first probe
                    // floors the gauge straight to RefuseWrites.
                    gauge.refuse_water = 2048;
                    FaultPlan { byte_budget: 1024, warmup_ops: WARMUP_OPS, ..quiet }
                } else {
                    FaultPlan { byte_budget: 8192, warmup_ops: WARMUP_OPS, ..quiet }
                }
            }
            Scenario::EioStorm => FaultPlan {
                eio_ppm: (severity * 150_000.0) as u32,
                warmup_ops: WARMUP_OPS,
                ..quiet
            },
            Scenario::FsyncStall => FaultPlan {
                stall_every: if severity >= 2.0 { 1 } else { 4 },
                stall_ticks: 8,
                stall_budget: if severity >= 2.0 { 4_000 } else { u64::MAX },
                warmup_ops: WARMUP_OPS,
                ..quiet
            },
            Scenario::Mixed => FaultPlan {
                byte_budget: if severity >= 2.0 { 6 * 1024 } else { 16 * 1024 },
                eio_ppm: (severity * 80_000.0) as u32,
                stall_every: 6,
                stall_ticks: 8,
                stall_budget: 3_000,
                warmup_ops: WARMUP_OPS,
                ..quiet
            },
        };
        DiskConfig { plan: Some(plan), gauge }
    }
}

/// One full fleet run under `disk`, with the per-tick conservation check
/// and (for the mixed scenario) the mid-run kill.
struct DriveOutcome {
    stats: FleetStats,
    digest: u64,
    transitions: Vec<(u64, u32, DurabilityLevel, DurabilityLevel)>,
    worst: DurabilityLevel,
    level_ticks: [u64; 4],
    unjournaled: u64,
    violations: Vec<String>,
}

fn drive(
    spec: &Cell<Scenario>,
    env: &FleetConfig,
    disk: DiskConfig,
    dir: &std::path::Path,
) -> Result<DriveOutcome, String> {
    let cfg = FleetConfig { disk, ..chaos::fleet_config(env) };
    let mut violations = Vec::new();
    let mut coord =
        FleetCoordinator::new(cfg, dir).map_err(|e| format!("fleet dir unusable: {e}"))?;
    let kill_tick = TICKS / 2;
    let mut served: BTreeMap<String, Vec<(u64, u64)>> = BTreeMap::new();
    let mut now = 0;
    while now < TICKS {
        if matches!(spec.scenario, Scenario::Mixed)
            && spec.severity > 0.0
            && now == kill_tick
            && coord.ring().len() > 1
        {
            let victim = coord.ring().route(TENANTS[0]);
            coord.kill_shard(victim, now);
        }
        for k in 0..2u64 {
            let t = TENANTS[((now * 2 + k) as usize) % TENANTS.len()];
            // Refusals (rate, memory, RefuseWrites) are legitimate under
            // a dying disk; they are counted and conserved, not hidden.
            let _ = coord.offer(t, 64 + (now + k) % 64, now);
        }
        for chunk in coord.advance(now, 4, &[]) {
            served.entry(chunk.tenant).or_default().push((chunk.seq, chunk.cost));
        }
        coord.react(now);
        if !coord.stats().conserves() {
            violations.push(format!("identity broken at tick {now}: {:?}", coord.stats()));
            break;
        }
        now += 1;
    }
    let (stats, view) = chaos::drain_fleet(&mut coord, now, &mut violations, |chunk, _| {
        served.entry(chunk.tenant).or_default().push((chunk.seq, chunk.cost));
    });
    for chunks in served.values_mut() {
        chunks.sort_unstable();
    }
    Ok(DriveOutcome {
        stats,
        digest: chaos::served_digest(&served),
        transitions: coord.log().durability_transitions(),
        worst: view.durability_worst,
        level_ticks: view.durability_level_ticks,
        unjournaled: view.unjournaled_total,
        violations,
    })
}

/// Every shard's durability transitions must chain without gaps: the
/// first `from` is `Durable`, and each later `from` is the previous `to`.
fn check_chain(
    transitions: &[(u64, u32, DurabilityLevel, DurabilityLevel)],
    violations: &mut Vec<String>,
) {
    let mut last: BTreeMap<u32, DurabilityLevel> = BTreeMap::new();
    for &(tick, shard, from, to) in transitions {
        let expect = last.get(&shard).copied().unwrap_or(DurabilityLevel::Durable);
        if from != expect {
            violations.push(format!(
                "shard {shard} teleported at tick {tick}: {expect:?} on the gauge \
                 but the transition claims {from:?} -> {to:?}"
            ));
        }
        if from == to {
            violations.push(format!("shard {shard} logged a no-op transition at tick {tick}"));
        }
        last.insert(shard, to);
    }
}

fn simulate(
    spec: &Cell<Scenario>,
    env: &FleetConfig,
    dir: &std::path::Path,
    violations: &mut Vec<String>,
) -> Result<Fields, String> {
    let disk = spec.scenario.disk(spec.severity, spec.seed);
    let out = drive(spec, env, disk, dir.join("armed").as_path())?;
    violations.extend(out.violations);
    check_chain(&out.transitions, violations);

    if spec.severity == 0.0 {
        // The armed-but-quiet control: re-run the identical schedule on
        // the real filesystem (OsVfs, the same default gauge) and demand
        // indistinguishability, down to the journal bytes.
        let bare = drive(spec, env, DiskConfig::default(), dir.join("bare").as_path())
            .map_err(|e| format!("real-disk control: {e}"))?;
        violations.extend(bare.violations.iter().map(|v| format!("real-disk control: {v}")));
        if out.stats != bare.stats {
            violations.push(format!(
                "a quiet nemesis changed the books: {:?} armed vs {:?} on the real disk",
                out.stats, bare.stats
            ));
        }
        if out.digest != bare.digest {
            violations.push("a quiet nemesis changed what was served".to_string());
        }
        for id in 0..env.shards {
            let armed = std::fs::read(shard_journal_path(&dir.join("armed"), id));
            let plain = std::fs::read(shard_journal_path(&dir.join("bare"), id));
            match (armed, plain) {
                (Ok(a), Ok(b)) if a == b => {}
                (Ok(_), Ok(_)) => violations
                    .push(format!("a quiet nemesis moved shard {id}'s journal bytes")),
                (a, b) => violations.push(format!(
                    "shard {id} journal unreadable for the byte compare: {a:?} vs {b:?}"
                )),
            }
        }
        if !out.transitions.is_empty() {
            violations.push(format!(
                "a quiet nemesis moved the ladder: {:?}",
                out.transitions
            ));
        }
        if out.worst != DurabilityLevel::Durable || out.level_ticks[1..] != [0, 0, 0] {
            violations.push(format!(
                "severity 0 must spend every tick at Durable, not {:?} / {:?}",
                out.worst, out.level_ticks
            ));
        }
        if out.unjournaled != 0 {
            violations.push(format!(
                "a quiet nemesis left {} record(s) unjournaled",
                out.unjournaled
            ));
        }
    } else {
        let degraded: u64 = out.level_ticks[1..].iter().sum();
        match spec.scenario {
            Scenario::EnospcRamp => {
                // A disk that only fills never earns a climb.
                for &(tick, shard, from, to) in &out.transitions {
                    if to < from {
                        violations.push(format!(
                            "shard {shard} climbed {from:?} -> {to:?} at tick {tick} \
                             while its disk only filled"
                        ));
                    }
                }
                if degraded == 0 {
                    violations.push("the filling disk never degraded anything".to_string());
                }
                if spec.severity >= 2.0 {
                    if out.level_ticks[3] == 0 {
                        violations.push(
                            "a disk born beyond the refuse watermark never refused".to_string(),
                        );
                    }
                    if out.stats.rejected == 0 {
                        violations.push(
                            "RefuseWrites never surfaced as front-door rejections".to_string(),
                        );
                    }
                }
            }
            Scenario::EioStorm => {
                if out.stats.crash_loss != 0 {
                    violations.push(format!(
                        "an EIO storm without a crash booked {} crash loss",
                        out.stats.crash_loss
                    ));
                }
                if spec.severity >= 2.0 && out.transitions.is_empty() {
                    violations
                        .push("a dense EIO storm never moved the ladder".to_string());
                }
            }
            Scenario::FsyncStall => {
                if spec.severity >= 2.0 {
                    if degraded == 0 {
                        violations.push(
                            "every fsync stalling never degraded the ladder".to_string(),
                        );
                    }
                } else if !out.transitions.is_empty() {
                    // Sporadic stalls (no two consecutive misses) must be
                    // absorbed by the hysteresis, not flap the ladder.
                    violations.push(format!(
                        "sporadic stalls flapped the ladder: {:?}",
                        out.transitions
                    ));
                }
            }
            Scenario::Mixed => {
                if out.stats.crash_loss > out.stats.shed {
                    violations.push(format!(
                        "crash_loss {} exceeds shed {} — loss booked twice",
                        out.stats.crash_loss, out.stats.shed
                    ));
                }
                if out.stats.recovered > out.stats.migrated {
                    violations.push(format!(
                        "recovered {} exceeds migrated {} — replay booked twice",
                        out.stats.recovered, out.stats.migrated
                    ));
                }
            }
        }
    }

    Ok(vec![
        ("offered", out.stats.offered.into()),
        ("served", out.stats.served.into()),
        ("rejected", out.stats.rejected.into()),
        ("shed", out.stats.shed.into()),
        ("migrated", out.stats.migrated.into()),
        ("crash_loss", out.stats.crash_loss.into()),
        ("recovered", out.stats.recovered.into()),
        ("transitions", out.transitions.len().into()),
        ("worst_durability", level_name(out.worst).into()),
        ("durability_level_ticks", Json::Arr(out.level_ticks.map(Json::Int).to_vec())),
        ("unjournaled", out.unjournaled.into()),
        ("served_digest", Json::Hex(out.digest)),
    ])
}

fn level_name(level: DurabilityLevel) -> &'static str {
    match level {
        DurabilityLevel::Durable => "durable",
        DurabilityLevel::ReplicaOnly => "replica_only",
        DurabilityLevel::MemoryOnly => "memory_only",
        DurabilityLevel::RefuseWrites => "refuse_writes",
    }
}

fn main() -> Result<(), EmoleakError> {
    println!("Disk chaos: ENOSPC ramps, EIO storms, fsync stalls, and the durability ladder");
    // EMOLEAK_SHARDS and EMOLEAK_NET come through the fleet config; each
    // grid cell arms its own disk.
    let env = FleetConfig::from_env()?;
    let grid = chaos::grid(&SCENARIOS, 0xD15C, &[0.0, 1.0, 2.0], 2)?;
    // Order-preserving parallel map: the record order — and therefore the
    // JSON bytes — is the grid order under any EMOLEAK_THREADS.
    let records = par_map_indexed(&grid, |i, cell| {
        chaos::run_cell("disk_chaos", i, cell.fields("scenario"), |dir, violations| {
            simulate(cell, &env, dir, violations)
        })
    });
    let mut level_ticks = [0u64; 4];
    for record in &records {
        if let Some(Json::Arr(ticks)) = record.get("durability_level_ticks") {
            for (total, t) in level_ticks.iter_mut().zip(ticks) {
                *total += t.as_u64().unwrap_or(0);
            }
        }
    }
    let summary = [
        ("durability_level_ticks", Json::Arr(level_ticks.map(Json::Int).to_vec())),
        ("transitions_total", chaos::column(&records, "transitions").sum::<u64>().into()),
        ("crash_loss_total", chaos::column(&records, "crash_loss").sum::<u64>().into()),
        ("unjournaled_total", chaos::column(&records, "unjournaled").sum::<u64>().into()),
    ];
    chaos::finish(
        "disk_chaos",
        &[("shards", env.shards.into())],
        &records,
        &summary,
        &[
            "offered", "served", "rejected", "shed", "crash_loss", "transitions",
            "worst_durability", "durability_level_ticks", "unjournaled",
        ],
    );
    Ok(())
}
