//! The `fleet_chunks` workload: a `FleetCoordinator` at its default config
//! (4 shards, one replica, a scrub every 25 ticks, transport off) fed by a
//! seeded `LoadProfile`. Each logical tick offers that tick's arrivals and
//! then calls `advance`, for a fixed number of ticks, as fast as `advance`
//! returns (open loop in logical ticks).

use crate::measure::{self, best_half, mean, summarize, us, Digest, Part, Report, Trace};
use crate::{Args, TENANTS};
use emoleak_exec::derive_seed;
use emoleak_fleet::{FleetConfig, FleetCoordinator, FleetStats, LoadProfile};
use std::path::Path;
use std::time::Instant;

/// Bytes charged per chunk: one 256-sample f64 chunk.
const COST: u64 = 2048;
/// Chunks each shard may serve per tick. Peak arrivals are below it (see
/// `profile`), so every chunk is served in the tick it was offered.
const CAPACITY: usize = 8;
/// Ticks of one fleet lifetime (an epoch); a run serves whole epochs of
/// one schedule, each from a fresh coordinator.
const EPOCH_TICKS: u64 = 5000;
/// Epochs per requested second; fixes the work of a run.
const EPOCHS_PER_SECOND: f64 = 1.5;
/// Coordinator constructions before the epochs; with each epoch's own
/// construction, their median is `setup_s`.
const SETUP_REPS: usize = 10;

/// The arrival shape. Arrivals go to the tenants in turn, so each tenant
/// offers at most `0.6 * 1.5 / 6 = 0.15` chunks per tick outside a burst
/// and 0.3 inside one, against the default per-tenant token rate of 0.2
/// per tick: a 20-tick burst draws 2 of the 50-token burst allowance, so
/// no chunk is refused for its rate. Bursts double the rate rather than
/// quadruple it so that the chunk count, and with it the journal length
/// the scrub re-reads, varies by about 1% between seeds.
fn profile(seed: u64) -> LoadProfile {
    LoadProfile {
        base_rate: 0.6,
        amplitude: 0.5,
        period: 600,
        burst_prob: 0.05,
        burst_len: 20,
        burst_multiplier: 2.0,
        seed: derive_seed(seed, 4),
    }
}

/// Tenant indices offered at each tick.
fn schedule(seed: u64, ticks: u64) -> Vec<Vec<usize>> {
    let profile = profile(seed);
    let mut next = (derive_seed(seed, 5) % TENANTS.len() as u64) as usize;
    (0..ticks)
        .map(|t| {
            (0..profile.offers_at(t))
                .map(|_| {
                    next = (next + 1) % TENANTS.len();
                    next
                })
                .collect()
        })
        .collect()
}

fn config(seed: u64) -> FleetConfig {
    FleetConfig {
        seed: derive_seed(seed, 3),
        ..FleetConfig::default()
    }
}

fn is_scrub_tick(cfg: &FleetConfig, now: u64) -> bool {
    cfg.scrub_every != 0 && now.is_multiple_of(cfg.scrub_every)
}

/// One pass over the schedule.
#[derive(Default)]
struct Pass {
    latencies_us: Vec<f64>,
    /// (tick, µs) of every `advance` call.
    advance_us: Vec<(u64, f64)>,
    offer_us: Vec<f64>,
    wall_s: f64,
    served: u64,
    /// Offers refused plus served chunks that were never offered.
    errors: u64,
    digest: Digest,
    backlog_max: u64,
}

/// Offers each tick's arrivals, then advances the fleet one tick. With a
/// trace, records every `offer` (id: tenant << 32 | seq) and `advance` (id:
/// tick, tagged plain or scrub) as a span.
fn drive(
    coord: &mut FleetCoordinator,
    sched: &[Vec<usize>],
    mut trace: Option<&mut Trace>,
) -> Pass {
    let mut out = Pass::default();
    // When each tenant's chunks were offered, indexed by chunk seq.
    let mut offered_at: Vec<Vec<Instant>> = vec![Vec::new(); TENANTS.len()];
    let phase = Instant::now();
    for (now, arrivals) in sched.iter().enumerate() {
        let now = now as u64;
        for &t in arrivals {
            let t0 = Instant::now();
            let res = coord.offer(TENANTS[t], COST, now);
            if let Some(trace) = trace.as_deref_mut() {
                let t1 = Instant::now();
                let id = (t as u64) << 32 | offered_at[t].len() as u64;
                trace.record("fleet.offer", id, None, t0, t1);
                out.offer_us.push(us(t1 - t0));
            }
            offered_at[t].push(t0);
            out.errors += u64::from(res.is_err());
        }
        let a0 = Instant::now();
        let served = coord.advance(now, CAPACITY, &[]);
        let a1 = Instant::now();
        out.advance_us.push((now, us(a1 - a0)));
        if let Some(trace) = trace.as_deref_mut() {
            let scrub = is_scrub_tick(coord.config(), now);
            let name = if scrub {
                "fleet.advance.scrub"
            } else {
                "fleet.advance.plain"
            };
            trace.record(name, now, None, a0, a1);
            out.backlog_max = out.backlog_max.max(coord.stats().queued);
        }
        for chunk in served {
            let t = TENANTS
                .iter()
                .position(|n| *n == chunk.tenant)
                .unwrap_or(TENANTS.len());
            match offered_at.get(t).and_then(|v| v.get(chunk.seq as usize)) {
                Some(&t0) => out.latencies_us.push(us(a1 - t0)),
                None => out.errors += 1,
            }
            out.digest.push(t as u64);
            out.digest.push(chunk.seq);
            out.served += 1;
        }
    }
    out.wall_s = phase.elapsed().as_secs_f64();
    out
}

/// Bytes of every journal under `dir`.
fn journal_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// The correctness check: conservation, no internal errors, every offered
/// chunk served. Returns the chunks that were not served.
fn check(coord: &FleetCoordinator, pass: &Pass, report: &mut Report) -> u64 {
    let stats = coord.stats();
    if !stats.conserves() {
        report.fail(format!("fleet books do not conserve: {stats:?}"));
    }
    if !coord.internal_errors().is_empty() {
        report.fail(format!(
            "fleet internal errors: {:?}",
            coord.internal_errors()
        ));
    }
    let unserved = stats.offered - stats.served.min(stats.offered);
    if unserved > 0 || pass.errors > 0 {
        report.fail(format!(
            "{} refused, {} shed, {} still queued of {} offered; {} offer or serve errors",
            stats.rejected, stats.shed, stats.queued, stats.offered, pass.errors
        ));
    }
    unserved.max(pass.errors)
}

fn fresh(dir: &Path, seed: u64) -> Result<(FleetCoordinator, f64), String> {
    let _ = std::fs::remove_dir_all(dir);
    let t0 = Instant::now();
    let coord = FleetCoordinator::new(config(seed), dir)
        .map_err(|e| format!("coordinator in {}: {e}", dir.display()))?;
    Ok((coord, t0.elapsed().as_secs_f64()))
}

/// What one epoch served and how long it took.
struct Epoch {
    pass: Pass,
    stats: FleetStats,
    /// Offered chunks the epoch did not serve.
    unserved: u64,
    bytes: u64,
    /// Seconds `FleetCoordinator::new` took.
    setup_s: f64,
}

impl Epoch {
    fn throughput(&self) -> f64 {
        self.pass.served as f64 / self.pass.wall_s
    }

    fn part(&self) -> Part<'_> {
        Part {
            work: self.pass.served,
            secs: self.pass.wall_s,
            latencies: &self.pass.latencies_us,
        }
    }
}

/// One fleet lifetime over the schedule, from a fresh coordinator.
fn epoch(
    args: &Args,
    sched: &[Vec<usize>],
    trace: Option<&mut Trace>,
    report: &mut Report,
) -> Result<Epoch, String> {
    let dir = args.journal_dir.join("fleet");
    let (mut coord, setup_s) = fresh(&dir, args.seed)?;
    let pass = drive(&mut coord, sched, trace);
    let unserved = check(&coord, &pass, report);
    let stats = coord.stats();
    drop(coord);
    let bytes = journal_bytes(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(Epoch {
        pass,
        stats,
        unserved,
        bytes,
        setup_s,
    })
}

pub fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    let (ticks, epochs) = if args.tiny {
        (600, 2)
    } else {
        (
            EPOCH_TICKS,
            ((args.seconds * EPOCHS_PER_SECOND).round() as usize).max(3),
        )
    };
    let sched = schedule(args.seed, ticks);
    let cfg = config(args.seed);

    let reps = if args.tiny { 1 } else { SETUP_REPS };
    let mut setup_s = Vec::new();
    for rep in 0..reps {
        let dir = args.journal_dir.join(format!("setup-{rep}"));
        setup_s.push(fresh(&dir, args.seed)?.1);
        let _ = std::fs::remove_dir_all(dir);
    }

    // One untimed short run warms caches and lazy state before timing.
    epoch(args, &sched[..sched.len().min(200)], None, report)?;

    let offered: usize = sched.iter().map(Vec::len).sum();
    println!(
        "fleet_chunks: {epochs} epochs of {ticks} ticks from a fresh coordinator, {offered} chunks \
         offered by 6 tenants per epoch, {CAPACITY} chunks/shard/tick drain"
    );
    let mut runs = Vec::new();
    for _ in 0..epochs {
        runs.push(epoch(args, &sched, None, report)?);
    }
    let first = &runs[0];
    if runs
        .iter()
        .any(|e| e.pass.digest != first.pass.digest || e.bytes != first.bytes)
    {
        report.fail("epochs over one schedule served different streams".into());
    }
    report.attempted = runs.iter().map(|e| e.stats.offered).sum();
    report.failed = runs.iter().map(|e| e.unserved).sum();
    // Every epoch's coordinator construction is one more set-up sample,
    // spread over the whole run.
    setup_s.extend(runs.iter().map(|e| e.setup_s));
    let ms: Vec<f64> = setup_s.iter().map(|s| s * 1e3).collect();
    println!("set-up repetitions (ms): {ms:.3?}");

    let (throughput, lat, used) = best_half(&runs.iter().map(Epoch::part).collect::<Vec<_>>());
    let (p50_ms, p90_ms) = (lat.median / 1e3, lat.p90 / 1e3);
    let median =
        |f: &dyn Fn(&Epoch) -> f64| summarize(&runs.iter().map(f).collect::<Vec<_>>()).median;
    let growth = median(&|e| scrub_figures(&cfg, &e.pass.advance_us, ticks).0);
    let share = median(&|e| scrub_figures(&cfg, &e.pass.advance_us, ticks).1);
    for (i, e) in runs.iter().enumerate() {
        let l = summarize(&e.pass.latencies_us);
        println!(
            "  epoch {i}: {:.1} chunks/s, latency p50 {:.4} ms p90 {:.4} ms (n={}){}",
            e.throughput(),
            l.median / 1e3,
            l.p90 / 1e3,
            l.n,
            if used.contains(&i) {
                ""
            } else {
                "  (disturbed half)"
            }
        );
    }
    println!(
        "untraced (best {} of {} epochs): {throughput:.1} chunks/s; latency p50 {p50_ms:.4} ms \
         p90 {p90_ms:.4} ms (n={}); failed_share {}",
        used.len(),
        runs.len(),
        lat.n,
        report.failed as f64 / report.attempted.max(1) as f64
    );
    println!(
        "run length: {ticks} ticks per epoch; scrub-tick cost last tenth / first tenth = \
         {growth:.3}; scrub ticks take {:.1}% of advance time",
        share * 100.0
    );
    for (name, v) in [
        ("ticks", ticks),
        ("epochs", epochs as u64),
        ("fleet.offered", first.stats.offered),
        ("fleet.served", first.stats.served),
        ("fleet.rejected", first.stats.rejected),
        ("fleet.shed", first.stats.shed),
        ("fleet.queued", first.stats.queued),
        ("fleet.journal_bytes", first.bytes),
        ("digest.served", first.pass.digest.value()),
    ] {
        report.count(name, v);
    }

    if !args.trace {
        report.metric("setup_s", summarize(&setup_s).median, "s", setup_s.len());
        report.metric("throughput_per_s", throughput, "1/s", lat.n);
        report.metric("latency_p50_ms", p50_ms, "ms", lat.n);
        report.metric("latency_p90_ms", p90_ms, "ms", lat.n);
        report.metric("peak_rss_mb", measure::usage().max_rss_mb, "MB", 1);
        return Ok(());
    }

    // A traced epoch, then one with `exec` pinned to one thread: the
    // difference in plain-tick cost is the per-tick fan-out.
    let mut trace = Trace::new();
    let traced = epoch(args, &sched, Some(&mut trace), report)?;
    let mut single_trace = Trace::new();
    let single =
        emoleak_exec::with_threads(1, || epoch(args, &sched, Some(&mut single_trace), report))?;
    for (name, e) in [("traced", &traced), ("single-threaded", &single)] {
        report.failed += e.unserved;
        if e.pass.digest != first.pass.digest {
            report.fail(format!(
                "the {name} epoch served a different (tenant, seq) stream"
            ));
        }
    }
    let tlat = summarize(&traced.pass.latencies_us);
    println!("tracing overhead (one traced epoch against the best half of untraced epochs):");
    println!("  untraced {throughput:>10.1}/s  p50 {p50_ms:>8.4} ms  p90 {p90_ms:>8.4} ms");
    println!(
        "  traced   {:>10.1}/s  p50 {:>8.4} ms  p90 {:>8.4} ms  (p50 {:+.1}%)",
        traced.throughput(),
        tlat.median / 1e3,
        tlat.p90 / 1e3,
        (tlat.median / 1e3 / p50_ms - 1.0) * 100.0
    );

    let plain = summarize(&trace.durations_us("fleet.advance.plain"));
    let plain_single = summarize(&single_trace.durations_us("fleet.advance.plain"));
    let (growth, share) = scrub_figures(&cfg, &traced.pass.advance_us, ticks);
    report.timing("fleet.offer_us", summarize(&traced.pass.offer_us), "us");
    report.timing("fleet.advance_us.plain", plain, "us");
    let scrub = summarize(&trace.durations_us("fleet.advance.scrub"));
    report.timing("fleet.advance_us.scrub", scrub, "us");
    report.metric("fleet.scrub_growth", growth, "ratio", ticks as usize);
    report.metric("fleet.scrub_share", share, "ratio", ticks as usize);
    report.metric(
        "fleet.backlog_max",
        traced.pass.backlog_max as f64,
        "count",
        ticks as usize,
    );
    report.metric("fleet.journal_bytes", traced.bytes as f64, "B", 1);
    let st = traced.stats;
    for (name, v) in [
        ("fleet.offered", st.offered),
        ("fleet.served", st.served),
        ("fleet.rejected", st.rejected),
        ("fleet.shed", st.shed),
        ("fleet.queued", st.queued),
    ] {
        report.metric(name, v as f64, "count", 1);
    }
    report.timing("exec.advance_us.plain_1thread", plain_single, "us");
    let fanout = plain.median - plain_single.median;
    report.metric(
        "exec.fanout_us_per_tick",
        fanout,
        "us",
        plain.n.min(plain_single.n),
    );
    println!(
        "exec fan-out: plain tick p50 {:.1} us at {} threads vs {:.1} us at 1 thread",
        plain.median,
        emoleak_exec::threads(),
        plain_single.median
    );

    trace
        .write(&args.spans)
        .map_err(|e| format!("writing spans to {}: {e}", args.spans.display()))
}

/// Mean scrub-tick `advance` cost over the last tenth of the run ÷ the
/// first tenth, and the scrub ticks' share of all `advance` time.
fn scrub_figures(cfg: &FleetConfig, advance_us: &[(u64, f64)], ticks: u64) -> (f64, f64) {
    let tenth = (ticks / 10).max(1);
    let scrub: Vec<(u64, f64)> = advance_us
        .iter()
        .copied()
        .filter(|&(t, _)| is_scrub_tick(cfg, t))
        .collect();
    let first: Vec<f64> = scrub
        .iter()
        .filter(|(t, _)| *t < tenth)
        .map(|p| p.1)
        .collect();
    let last: Vec<f64> = scrub
        .iter()
        .filter(|(t, _)| *t >= ticks - tenth)
        .map(|p| p.1)
        .collect();
    let total: f64 = advance_us.iter().map(|p| p.1).sum();
    let scrub_total: f64 = scrub.iter().map(|p| p.1).sum();
    (mean(&last) / mean(&first), scrub_total / total)
}
