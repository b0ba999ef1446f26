//! Fleet performance baseline: a sharded fleet under diurnal/bursty load.
//!
//! Drives real streaming sessions (trained bundle, recorded campaign,
//! full verdict pipeline) through a [`FleetService`] while a seeded
//! [`LoadProfile`] shapes the arrival rate — a sinusoidal diurnal cycle
//! with multiplicative bursts. Publishes the repo's perf baseline to
//! `BENCH_fleet.json`:
//!
//! * `sessions_per_sec` — admitted sessions completed per wall-clock
//!   second (the fleet's session throughput);
//! * `verdict_latency_us` — p50/p99/p99.9/max of per-region
//!   classification latency, measured inside the sessions (the tail
//!   percentiles match what stream_chaos/overload_chaos publish);
//! * `bytes_per_verdict` — ingested sample bytes per emitted verdict
//!   (the pipeline's data efficiency);
//! * `journal_append_us` — mean journal-append latency solo vs with a
//!   synchronous replica ship, plus the overhead percentage: the price
//!   of `EMOLEAK_REPLICAS=1` on the hot durable path;
//! * `coordinator_tick_us` — mean cost of the chunk coordinator's
//!   offer+advance hot loop on the direct in-process path vs through the
//!   ideal simulated message plane, plus the overhead percentage: the
//!   price of `EMOLEAK_NET=ideal` on the clean path (the served stream
//!   itself is asserted identical — the plane may only cost time, never
//!   bytes);
//! * `durability_level_ticks` — shard-ticks the direct-path coordinator
//!   run spent at each durability-ladder rung, best rung first. The disk
//!   gauge is unarmed here, so a healthy build reports `[all, 0, 0, 0]`
//!   — any nonzero tail is a storage regression;
//! * admission counters — offered/admitted/spilled/refused sessions, so
//!   a regression in the brown-out path shows up next to the latency it
//!   causes.
//!
//! Wall-clock numbers vary by machine; the *shape* (counters, emissions,
//! verdicts) is deterministic for a fixed seed and shard count. Knobs:
//! `EMOLEAK_SHARDS`, `EMOLEAK_FLEET_SEED`, `EMOLEAK_FLEET_BENCH_TICKS`
//! (default 48), `EMOLEAK_FLEET_BENCH_RATE` (mean sessions/tick, default
//! 1.5), `EMOLEAK_FLEET_BENCH_JSON` (default `BENCH_fleet.json`).

use emoleak_bench::chaos::percentile;
use emoleak_bench::write_result;
use emoleak_core::prelude::*;
use emoleak_fleet::{FleetConfig, FleetService, LoadProfile};
use emoleak_stream::durable::{ChunkAdmit, DurableSink};
use emoleak_stream::{ReplaySource, StreamConfig, StreamReport, StreamService};
use std::sync::Arc;
use std::time::Instant;

const TENANTS: [&str; 6] = ["amber", "brook", "coral", "dune", "ember", "fjord"];
const CHUNK: usize = 256;

/// Mean append latency (µs) over `n` journaled chunk admits, solo or with
/// a synchronous replica ship — the per-record price of replication on
/// the hot durable path.
fn journal_append_us(dir: &std::path::Path, n: u64, replicated: bool) -> f64 {
    let primary = dir.join(if replicated { "bench-repl.log" } else { "bench-solo.log" });
    let replica = dir.join("bench-repl.replica.log");
    let sink = if replicated {
        DurableSink::create_replicated(&primary, &replica)
    } else {
        DurableSink::create(&primary)
    }
    .expect("bench scratch dir is writable");
    let t0 = Instant::now();
    for seq in 0..n {
        sink.record_admit(&ChunkAdmit { tick: seq, tenant: "bench".to_string(), seq, cost: 64 });
    }
    let us = t0.elapsed().as_secs_f64() * 1e6 / n as f64;
    assert!(sink.take_error().is_none(), "append bench hit a journal error");
    us
}

/// Mean per-tick cost (µs) of the chunk coordinator's offer+advance hot
/// loop, the chunks it served, and the shard-ticks spent at each
/// durability-ladder rung (best first — `[all, 0, 0, 0]` on a healthy
/// disk): on the direct in-process path, or routed through the ideal
/// simulated message plane. The serve counts of the two runs must match
/// exactly — the transport is byte-invisible on the clean path, so the
/// only thing it may add is time.
fn coordinator_tick_us(dir: &std::path::Path, ticks: u64, net: bool) -> (f64, u64, [u64; 4]) {
    use emoleak_fleet::{FleetCoordinator, NetProfileKind};
    let sub = dir.join(if net { "coord-net" } else { "coord-direct" });
    let mut cfg = FleetConfig {
        shards: 4,
        ledger_every: 10,
        scrub_every: 10,
        ..FleetConfig::default()
    };
    cfg.admission.mem_budget = u64::MAX / 2;
    cfg.admission.tenant_rps = 1_000_000;
    cfg.admission.tenant_burst = 1_000_000;
    if net {
        cfg.net.profile = NetProfileKind::Ideal;
    }
    let mut coord = FleetCoordinator::new(cfg, &sub).expect("bench scratch dir is writable");
    let mut served = 0u64;
    let t0 = Instant::now();
    for now in 0..ticks {
        for t in TENANTS {
            let _ = coord.offer(t, 64, now);
        }
        served += coord.advance(now, usize::MAX, &[]).len() as u64;
    }
    let us = t0.elapsed().as_secs_f64() * 1e6 / ticks as f64;
    (us, served, coord.durability_level_ticks())
}

fn main() -> Result<(), EmoleakError> {
    println!("Fleet bench: diurnal/bursty session load over a sharded fleet");

    let ticks: u64 = emoleak_exec::parse_checked(
        "EMOLEAK_FLEET_BENCH_TICKS",
        "a positive tick count",
        |&n: &u64| n > 0,
    )?
    .unwrap_or(48);
    let rate: f64 = emoleak_exec::parse_checked(
        "EMOLEAK_FLEET_BENCH_RATE",
        "a positive mean arrival rate",
        |&r: &f64| r.is_finite() && r > 0.0,
    )?
    .unwrap_or(1.5);
    let cfg = FleetConfig::from_env()?;
    let shards = cfg.shards;
    let service = FleetService::new(&cfg);
    let profile = LoadProfile {
        base_rate: rate,
        period: ticks.max(2) / 2, // two diurnal cycles per run
        ..LoadProfile::default()
    };

    // The workload: one trained bundle + recorded campaign shared by every
    // session. The bench measures the serving fleet, not model training.
    let scenario = AttackScenario::table_top(
        CorpusSpec::tess().with_clips_per_cell(2),
        DeviceProfile::oneplus_7t(),
    );
    let harvest = scenario.harvest()?;
    let bundle = Arc::new(ModelBundle::train(&harvest, 7)?);
    let campaign = scenario.record_windows()?;
    let detector = scenario.setting.region_detector();

    let mut offered = 0u64;
    let mut refused = 0u64;
    let mut reports: Vec<StreamReport> = Vec::new();
    let t0 = Instant::now();
    for now in 0..ticks {
        // This tick's arrivals, shaped by the diurnal/bursty profile and
        // spread round-robin over the tenants.
        let arrivals = profile.offers_at(now);
        let placements: Vec<_> = (0..arrivals)
            .filter_map(|k| {
                offered += 1;
                let tenant = TENANTS[((now * 8 + k) as usize) % TENANTS.len()];
                match service.admit(tenant, now) {
                    Ok(p) => Some(p),
                    Err(_) => {
                        refused += 1;
                        None
                    }
                }
            })
            .collect();
        // Admitted sessions of one tick run concurrently — that is the
        // fleet's actual serving shape.
        let batch = emoleak_exec::par_map_vec_indexed(placements, |_, placement| {
            let svc = StreamService::new(
                Arc::clone(&bundle),
                detector.clone(),
                campaign.fs,
                placement.permit.configure(StreamConfig::default()),
            );
            svc.run(Box::new(ReplaySource::from_campaign(&campaign, CHUNK)))
        });
        for report in batch {
            reports.push(
                report.map_err(|e| EmoleakError::Durable(format!("session failed: {e}")))?,
            );
        }
    }
    let wall_s = t0.elapsed().as_secs_f64();

    let admitted = reports.len() as u64;
    let spilled = service.migrated_sessions();
    let verdicts: u64 = reports.iter().map(|r| r.stats.regions).sum();
    let bytes: u64 = reports
        .iter()
        .map(|r| r.stats.chunks_ingested * (CHUNK as u64) * 8)
        .sum();
    let mut lat: Vec<f64> = reports
        .iter()
        .flat_map(|r| r.emissions.iter().map(|e| e.latency.as_secs_f64() * 1e6))
        .collect();
    lat.sort_by(|a, b| a.total_cmp(b));
    let p50 = percentile(&lat, 0.50);
    let p99 = percentile(&lat, 0.99);
    let p999 = percentile(&lat, 0.999);
    let max = lat.last().copied().unwrap_or(0.0);
    let sessions_per_sec = if wall_s > 0.0 { admitted as f64 / wall_s } else { 0.0 };
    let bytes_per_verdict = if verdicts > 0 { bytes as f64 / verdicts as f64 } else { 0.0 };

    // The replication overhead column: mean journal-append latency with
    // and without the synchronous replica ship, same record stream.
    let scratch = std::env::temp_dir()
        .join(format!("emoleak-fleet-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch)
        .map_err(|e| EmoleakError::Durable(format!("bench scratch dir: {e}")))?;
    let append_solo = journal_append_us(&scratch, 512, false);
    let append_repl = journal_append_us(&scratch, 512, true);
    // The transport overhead column: the same coordinator hot loop on the
    // direct path and through the ideal plane, with the serve counts
    // pinned equal (time is the only acceptable cost).
    let (tick_direct, served_direct, level_ticks) = coordinator_tick_us(&scratch, 256, false);
    let (tick_net, served_net, _) = coordinator_tick_us(&scratch, 256, true);
    assert!(
        served_direct == served_net,
        "the ideal plane changed what was served: {served_direct} direct vs {served_net} net"
    );
    let _ = std::fs::remove_dir_all(&scratch);
    let repl_overhead_pct =
        if append_solo > 0.0 { (append_repl / append_solo - 1.0) * 100.0 } else { 0.0 };
    let net_overhead_pct =
        if tick_direct > 0.0 { (tick_net / tick_direct - 1.0) * 100.0 } else { 0.0 };

    println!(
        "{ticks} ticks, {shards} shard(s): {offered} offered, {admitted} admitted \
         ({spilled} spilled to a sibling shard), {refused} refused"
    );
    println!(
        "{verdicts} verdicts in {wall_s:.2}s wall — {sessions_per_sec:.2} sessions/s, \
         verdict latency p50 {p50:.0}us p99 {p99:.0}us p99.9 {p999:.0}us max {max:.0}us, \
         {bytes_per_verdict:.0} bytes/verdict"
    );
    println!(
        "journal append: {append_solo:.1}us solo, {append_repl:.1}us replicated \
         ({repl_overhead_pct:+.0}% replication overhead)"
    );
    println!(
        "coordinator tick: {tick_direct:.1}us direct, {tick_net:.1}us through the ideal \
         plane ({net_overhead_pct:+.0}% transport overhead)"
    );

    let json = format!(
        "{{\n  \"ticks\": {ticks},\n  \"shards\": {shards},\n  \"mean_rate\": {rate},\n  \
         \"sessions_offered\": {offered},\n  \"sessions_admitted\": {admitted},\n  \
         \"sessions_spilled\": {spilled},\n  \"sessions_refused\": {refused},\n  \
         \"verdicts\": {verdicts},\n  \"wall_seconds\": {wall_s:.3},\n  \
         \"sessions_per_sec\": {sessions_per_sec:.3},\n  \
         \"verdict_latency_us\": {{\"p50\": {p50:.1}, \"p99\": {p99:.1}, \
         \"p999\": {p999:.1}, \"max\": {max:.1}}},\n  \
         \"journal_append_us\": {{\"solo\": {append_solo:.2}, \
         \"replicated\": {append_repl:.2}, \
         \"overhead_pct\": {repl_overhead_pct:.1}}},\n  \
         \"coordinator_tick_us\": {{\"direct\": {tick_direct:.2}, \
         \"ideal_net\": {tick_net:.2}, \
         \"overhead_pct\": {net_overhead_pct:.1}}},\n  \
         \"durability_level_ticks\": [{}, {}, {}, {}],\n  \
         \"bytes_per_verdict\": {bytes_per_verdict:.1}\n}}\n",
        level_ticks[0], level_ticks[1], level_ticks[2], level_ticks[3]
    );
    let path = std::env::var("EMOLEAK_FLEET_BENCH_JSON")
        .unwrap_or_else(|_| "BENCH_fleet.json".to_string());
    match write_result(std::path::Path::new(&path), json.as_bytes()) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => println!("could not write {path} ({e}); JSON follows:\n{json}"),
    }
    assert!(verdicts > 0, "the bench produced no verdicts");
    Ok(())
}
