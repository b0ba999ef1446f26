//! Overload-chaos harness for the multi-tenant admission layer.
//!
//! Drives `emoleak_admission::AdmissionController` through a grid of
//! overload scenarios × severities × seeds and asserts the *overload
//! contract* on every run:
//!
//! * conservation — after a full drain,
//!   `offered == served + rejected + shed + migrated`, fleet-wide and per
//!   tenant (`migrated` is zero for a standalone controller; the term
//!   exists so the identity matches the fleet-wide form);
//! * bounded memory — charged bytes never exceed the budget (`mem_peak <=
//!   budget`) and a drained fleet holds zero bytes;
//! * bulkheads hold — per-tenant and fleet session peaks never exceed
//!   their limits, however hard sessions are requested;
//! * no cross-tenant starvation — a tenant under its own rate limit is
//!   never refused, no matter how hard a neighbour floods;
//! * zero escaped panics — the admission layer never panics at the caller;
//! * clean-path silence — at severity 0 nothing is rejected, shed, or
//!   tripped;
//! * a faithful journal — sheds and fleet transitions recovered from the
//!   write-ahead journal match the in-memory log exactly.
//!
//! The simulation runs entirely on the admission layer's logical clock —
//! no wall time reaches the report — and the grid is parallelized with
//! order-preserving `par_map_indexed`, so `overload_chaos.json` is
//! **byte-identical under any `EMOLEAK_THREADS`**. The grid, its knobs
//! (`EMOLEAK_CHAOS_SEVERITIES`, default `0,1,2,4`; `EMOLEAK_CHAOS_SEEDS`,
//! default 2) and the report live in `emoleak_bench::chaos`. Exits
//! non-zero if any run violates the contract.

use emoleak_admission::{AdmissionConfig, AdmissionController, CodelConfig};
use emoleak_bench::chaos::{self, Cell, Fields, Json};
use emoleak_core::admission::{AdmissionError, FleetState};
use emoleak_core::EmoleakError;
use emoleak_exec::{derive_seed, par_map_indexed, splitmix64};
use emoleak_stream::durable::{recover_run, DurableSink};
use emoleak_stream::LadderConfig;

const TICKS: u64 = 1800;
const TENANTS: [&str; 4] = ["flood", "amber", "brook", "coral"];

#[derive(Clone, Copy)]
enum Scenario {
    /// Offered load ramps far past drain capacity and back down.
    LoadRamp,
    /// One tenant floods; three stay politely under their rate limit.
    TenantFlood,
    /// The backend stalls mid-run: drain capacity collapses, then recovers.
    SlowConsumer,
    /// Oversized chunks squeeze a small byte budget.
    MemoryPressure,
}

const SCENARIOS: [(&str, Scenario); 4] = [
    ("load_ramp", Scenario::LoadRamp),
    ("tenant_flood", Scenario::TenantFlood),
    ("slow_consumer", Scenario::SlowConsumer),
    ("memory_pressure", Scenario::MemoryPressure),
];

impl Scenario {
    fn config(self) -> AdmissionConfig {
        let base = AdmissionConfig {
            max_sessions: 6,
            tenant_sessions: 2,
            mem_budget: 1 << 20,
            tenant_rps: 100_000,
            tenant_burst: 1_000,
            codel: CodelConfig { target: 5, interval: 50 },
            breaker: LadderConfig { degrade_after: 3, recover_after: 10, cooldown: 5 },
        };
        match self {
            Scenario::LoadRamp => base,
            Scenario::TenantFlood => AdmissionConfig {
                // Tight per-tenant rate: 20/s, i.e. one chunk per 50 ticks.
                tenant_rps: 20,
                tenant_burst: 4,
                ..base
            },
            // A patient breaker, so standing latency is resolved by CoDel
            // shedding rather than the brown-out front door.
            Scenario::SlowConsumer => AdmissionConfig {
                codel: CodelConfig { target: 5, interval: 25 },
                breaker: LadderConfig { degrade_after: 200, recover_after: 10, cooldown: 5 },
                ..base
            },
            // severity shapes the load, not the limits; the patient breaker
            // keeps the byte budget the binding constraint.
            Scenario::MemoryPressure => AdmissionConfig {
                mem_budget: 4096,
                breaker: LadderConfig { degrade_after: 50, recover_after: 10, cooldown: 5 },
                ..base
            },
        }
    }
}

/// Offers issued for tick `now`, as `(tenant index, cost bytes)` pairs —
/// a pure function of `(scenario, severity, seed, now)`.
fn offers(scenario: Scenario, severity: f64, seed: u64, now: u64) -> Vec<(usize, u64)> {
    let mut stream = derive_seed(seed, now);
    let mut draw = || splitmix64(&mut stream);
    let mut out = Vec::new();
    match scenario {
        Scenario::LoadRamp => {
            // Triangle ramp peaking mid-run at `2 + 10*severity` offers/tick
            // against a fixed drain of 4/tick.
            let peak = 2.0 + 10.0 * severity;
            let phase = (now as f64) / (TICKS as f64);
            let shape = 1.0 - (2.0 * phase - 1.0).abs();
            let n = (1.0 + peak * shape) as u64;
            for _ in 0..n {
                out.push(((draw() % 3 + 1) as usize, 64 + draw() % 64));
            }
        }
        Scenario::TenantFlood => {
            // Tenant 0 floods at `8*severity`/tick; the others offer once
            // every 100 ticks (10/s, half their 20/s limit).
            for _ in 0..(8.0 * severity) as u64 {
                out.push((0, 64));
            }
            for t in 1..TENANTS.len() {
                if (now + 33 * t as u64).is_multiple_of(100) {
                    out.push((t, 64));
                }
            }
        }
        Scenario::SlowConsumer => {
            // Steady 3/tick spread over the polite tenants.
            for _ in 0..3 {
                out.push(((draw() % 3 + 1) as usize, 64 + draw() % 32));
            }
        }
        Scenario::MemoryPressure => {
            // 3/tick with costs that grow with severity against the 4 KiB
            // budget (drain keeps up; memory is the scarce resource).
            for _ in 0..3 {
                let cost = 64 + (draw() % 64) * (1 + (severity * 4.0) as u64);
                out.push(((draw() % 3 + 1) as usize, cost));
            }
        }
    }
    out
}

/// Drain capacity at tick `now` — the backend the admission layer protects.
fn capacity(scenario: Scenario, severity: f64, now: u64) -> usize {
    match scenario {
        Scenario::LoadRamp => 4,
        Scenario::TenantFlood => 10,
        Scenario::SlowConsumer => {
            // The backend stalls for the middle third of the run, harder
            // with severity; at severity 0 it never stalls.
            let third = TICKS / 3;
            if severity > 0.0 && (third..2 * third).contains(&now) {
                usize::from(severity < 2.0)
            } else {
                3
            }
        }
        // Under pressure the backend lags the 3/tick offers by one, so the
        // queue — and the byte budget — is what fills up.
        Scenario::MemoryPressure => {
            if severity == 0.0 {
                3
            } else {
                2
            }
        }
    }
}

fn simulate(
    spec: &Cell<Scenario>,
    dir: &std::path::Path,
    violations: &mut Vec<String>,
) -> Result<Fields, String> {
    let cfg = spec.scenario.config();
    let journal = dir.join("admission.log");
    let sink = DurableSink::create(&journal).map_err(|e| format!("journal unusable: {e}"))?;
    let mut ctrl = AdmissionController::new(cfg.clone()).with_durable(sink.clone());
    let mut held: Vec<&str> = Vec::new();
    let mut sojourns: Vec<u64> = Vec::new();

    for now in 0..TICKS {
        // Session churn: every 50 ticks each tenant asks for a session,
        // every 97 ticks the oldest one closes. Refusals are expected —
        // the contract is that the bulkhead peaks never exceed the limits.
        if now % 50 == 0 {
            for t in TENANTS {
                if ctrl.open_session(t, now).is_ok() {
                    held.push(t);
                }
            }
        }
        if now % 97 == 0 {
            if let Some(t) = held.pop() {
                ctrl.close_session(t);
            }
        }
        for (tenant, cost) in offers(spec.scenario, spec.severity, spec.seed, now) {
            let _: Result<(), AdmissionError> = ctrl.offer(TENANTS[tenant], cost, now);
        }
        for chunk in ctrl.drain(now, capacity(spec.scenario, spec.severity, now)) {
            sojourns.push(now.saturating_sub(chunk.enqueued));
        }
        ctrl.observe(now);
    }
    // Full drain: whatever is still queued is served or shed, so the
    // conservation identity closes without a `queued` term.
    let mut now = TICKS;
    while ctrl.queue_depth() > 0 {
        for chunk in ctrl.drain(now, 64) {
            sojourns.push(now.saturating_sub(chunk.enqueued));
        }
        now += 1;
    }
    for t in held.drain(..) {
        ctrl.close_session(t);
    }
    sink.finish(0, emoleak_core::online::InferenceLevel::Cnn);

    let stats = ctrl.stats();
    let tenants = ctrl.tenant_stats();

    if stats.offered != stats.served + stats.rejected + stats.shed + stats.migrated {
        violations.push(format!(
            "conservation broken: {} offered != {} served + {} rejected + {} shed + {} migrated",
            stats.offered, stats.served, stats.rejected, stats.shed, stats.migrated
        ));
    }
    for (name, t) in &tenants {
        if t.offered != t.served + t.rejected + t.shed + t.migrated {
            violations.push(format!("tenant {name} conservation broken: {t:?}"));
        }
        if t.peak_sessions > cfg.tenant_sessions {
            violations.push(format!(
                "tenant {name} bulkhead exceeded: peak {} > limit {}",
                t.peak_sessions, cfg.tenant_sessions
            ));
        }
    }
    if stats.peak_sessions > cfg.max_sessions {
        violations.push(format!(
            "fleet bulkhead exceeded: peak {} > limit {}",
            stats.peak_sessions, cfg.max_sessions
        ));
    }
    if stats.mem_peak > cfg.mem_budget {
        violations.push(format!(
            "memory budget exceeded: peak {} > budget {}",
            stats.mem_peak, cfg.mem_budget
        ));
    }
    if stats.mem_charged != 0 {
        violations.push(format!("drained fleet still holds {} bytes", stats.mem_charged));
    }
    if spec.severity == 0.0 {
        // Clean path: the overload machinery must stay silent.
        if stats.rejected != 0 || stats.shed != 0 || !ctrl.log().fleet_transitions().is_empty()
        {
            violations.push(format!(
                "clean run was not silent: {} rejected, {} shed, {} fleet transitions",
                stats.rejected,
                stats.shed,
                ctrl.log().fleet_transitions().len()
            ));
        }
    } else {
        match spec.scenario {
            Scenario::TenantFlood => {
                for (name, t) in &tenants {
                    if *name != "flood" && t.rejected != 0 {
                        violations.push(format!(
                            "cross-tenant starvation: polite tenant {name} was refused {} time(s)",
                            t.rejected
                        ));
                    }
                }
                let flood = tenants.iter().find(|(n, _)| n == "flood");
                if flood.is_none_or(|(_, t)| t.rejected == 0) {
                    violations.push("the flood was never throttled".to_string());
                }
            }
            Scenario::SlowConsumer => {
                if stats.shed == 0 {
                    violations.push("a stalled backend must shed standing latency".to_string());
                }
            }
            Scenario::MemoryPressure => {
                let exhausted = ctrl
                    .log()
                    .events()
                    .iter()
                    .filter(|e| matches!(
                        e,
                        emoleak_stream::ServiceEvent::AdmissionRejected { reason, .. }
                            if reason == "memory-exhausted"
                    ))
                    .count();
                if spec.severity >= 2.0 && exhausted == 0 {
                    violations
                        .push("high memory pressure never refused for memory".to_string());
                }
            }
            Scenario::LoadRamp => {
                if spec.severity >= 2.0 && ctrl.log().fleet_transitions().is_empty() {
                    violations
                        .push("a hard ramp must trip the fleet breaker".to_string());
                }
            }
        }
    }

    // The journal must replay the exact sheds and fleet transitions the
    // in-memory log saw, in order.
    if let Some(e) = sink.take_error() {
        violations.push(format!("journal write failed: {e}"));
    }
    if sink.unjournaled() > 0 {
        violations.push(format!("{} records reached no journal", sink.unjournaled()));
    }
    match recover_run(&journal) {
        Ok((run, defects)) => {
            if !defects.is_empty() {
                violations.push(format!("journal recovery defects: {defects:?}"));
            }
            if !run.complete {
                violations.push("journal missing its end-of-run summary".to_string());
            }
            if run.fleet_transitions != ctrl.log().fleet_transitions() {
                violations.push(format!(
                    "journal fleet transitions diverge from the log: {} vs {}",
                    run.fleet_transitions.len(),
                    ctrl.log().fleet_transitions().len()
                ));
            }
            if run.sheds.len() != ctrl.log().sheds() {
                violations.push(format!(
                    "journal sheds diverge from the log: {} vs {}",
                    run.sheds.len(),
                    ctrl.log().sheds()
                ));
            }
        }
        Err(e) => violations.push(format!("journal recovery failed: {e}")),
    }

    sojourns.sort_unstable();
    let sojourn = |p: f64| Json::Int(chaos::percentile(&sojourns, p / 100.0));
    Ok(vec![
        ("offered", stats.offered.into()),
        ("served", stats.served.into()),
        ("rejected", stats.rejected.into()),
        ("shed", stats.shed.into()),
        ("mem_peak", stats.mem_peak.into()),
        ("peak_sessions", stats.peak_sessions.into()),
        ("fleet_transitions", ctrl.log().fleet_transitions().len().into()),
        (
            "worst_state",
            ctrl.log()
                .worst_fleet_state()
                .map_or_else(|| "-".to_string(), |s: FleetState| s.to_string())
                .into(),
        ),
        (
            "sojourn_ticks",
            Json::Obj(vec![
                ("p50", sojourn(50.0)),
                ("p99", sojourn(99.0)),
                ("p999", sojourn(99.9)),
                ("max", Json::Int(sojourns.last().copied().unwrap_or(0))),
            ]),
        ),
    ])
}

fn main() -> Result<(), EmoleakError> {
    println!("Overload chaos: admission control, bulkheads, shedding, and the fleet breaker");
    let grid = chaos::grid(&SCENARIOS, 0x0A3D, &[0.0, 1.0, 2.0, 4.0], 2)?;
    // Order-preserving parallel map: the record order — and therefore the
    // JSON bytes — is the grid order under any EMOLEAK_THREADS.
    let records = par_map_indexed(&grid, |i, cell| {
        chaos::run_cell("overload_chaos", i, cell.fields("scenario"), |dir, violations| {
            simulate(cell, dir, violations)
        })
    });
    chaos::finish(
        "overload_chaos",
        &[],
        &records,
        &[],
        &["offered", "served", "rejected", "shed", "mem_peak", "fleet_transitions", "worst_state"],
    );
    Ok(())
}
