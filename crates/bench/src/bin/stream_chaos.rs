//! Chaos harness for the streaming inference service.
//!
//! Drives `emoleak_stream::StreamService` through a grid of fault-injected
//! recordings (every `FaultProfile` preset × severity) with a flaky,
//! occasionally panicking transport on top, and asserts the *robustness
//! contract* on every run:
//!
//! * liveness — the run terminates (`run_timeout` is the backstop) and
//!   returns `Ok`;
//! * bounded memory — the session never holds more chunks than the
//!   campaign's longest window, and its metered bytes all return to the
//!   gauge when it ends;
//! * zero escaped panics — injected step panics are absorbed by the panic
//!   firewall, never propagated to the caller;
//! * honest accounting — a clean run reports zero resilience events.
//!
//! Prints a summary table and writes the full per-run results to
//! `stream_chaos.json`. The grid, its knobs (`EMOLEAK_CHAOS_SEVERITIES`,
//! default `0,0.5,1,2,4,8`; `EMOLEAK_CHAOS_SEEDS`, default 3) and the
//! report live in `emoleak_bench::chaos`. Exits non-zero if any run
//! violates the contract.

use emoleak_bench::banner;
use emoleak_bench::chaos::{self, Cell, Fields, Json};
use emoleak_core::online::{ModelBundle, RecordedCampaign};
use emoleak_core::prelude::*;
use emoleak_features::regions::RegionDetector;
use emoleak_phone::FaultProfile;
use emoleak_stream::{ByteGauge, FlakySource, ReplaySource, StreamConfig, StreamService};
use std::sync::Arc;
use std::time::{Duration, Instant};

type Preset = fn() -> FaultProfile;

const PRESETS: [(&str, Preset); 3] = [
    ("handheld_walking", FaultProfile::handheld_walking),
    ("background_doze", FaultProfile::background_doze),
    ("cheap_imu", FaultProfile::cheap_imu),
];

/// Transport flakiness grows with channel-fault severity, capped well
/// below 1 so liveness stays falsifiable.
fn fail_rate(severity: f64) -> f64 {
    (0.08 * severity).min(0.85)
}

fn simulate(
    bundle: &Arc<ModelBundle>,
    campaign: &RecordedCampaign,
    detector: &RegionDetector,
    cell: &Cell<Preset>,
    inject_panic: bool,
    violations: &mut Vec<String>,
) -> Result<Fields, String> {
    let gauge = Arc::new(ByteGauge::new());
    let config = StreamConfig {
        // High severities get an unmeetable deadline so the degradation
        // ladder is exercised under chaos, not just in unit tests.
        deadline: if cell.severity >= 4.0 {
            Duration::from_micros(2)
        } else {
            Duration::from_millis(50)
        },
        panic_after_chunks: inject_panic.then_some(5),
        memory: Some(Arc::clone(&gauge)),
        ..StreamConfig::default()
    };
    let chunk_len = config.chunk_len;
    let service =
        StreamService::new(Arc::clone(bundle), detector.clone(), campaign.fs, config);
    let source = FlakySource::new(
        ReplaySource::from_campaign(campaign, chunk_len),
        fail_rate(cell.severity),
        cell.seed,
    );
    let t0 = Instant::now();
    let outcome = service.run(Box::new(source));
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let report = outcome.map_err(|e| format!("run failed: {e}"))?;
    let s = &report.stats;
    let longest = campaign
        .windows
        .iter()
        .map(|(w, _, _)| w.len().div_ceil(chunk_len).max(1))
        .max()
        .unwrap_or(0);
    if s.max_chunk_depth > longest {
        violations.push(format!(
            "memory bound exceeded: held {} chunks, the longest window has {longest}",
            s.max_chunk_depth
        ));
    }
    if gauge.charged() != 0 {
        violations.push(format!("finished run still holds {} metered bytes", gauge.charged()));
    }
    let expected_panics = u32::from(inject_panic);
    if s.panic_restarts != expected_panics {
        violations.push(format!(
            "expected {expected_panics} absorbed panic(s), saw {}",
            s.panic_restarts
        ));
    }
    if cell.severity == 0.0 && !inject_panic {
        // Clean path: the resilience machinery must stay silent.
        if s.retries != 0 || !report.log.events().is_empty() {
            violations.push(format!(
                "clean run was not silent: {} retries, {} events",
                s.retries,
                report.log.events().len()
            ));
        }
        if s.regions == 0 {
            violations.push("clean run classified no regions".to_string());
        }
    }

    let mut lat: Vec<f64> =
        report.emissions.iter().map(|e| e.latency.as_secs_f64() * 1e6).collect();
    lat.sort_by(f64::total_cmp);
    let us = |v: f64| Json::Num(v, 3);
    Ok(vec![
        ("regions", s.regions.into()),
        ("retries", s.retries.into()),
        ("deadline_misses", s.deadline_misses.into()),
        ("transitions", report.log.transitions().len().into()),
        (
            "worst_level",
            report.log.worst_level().map_or_else(|| "-".to_string(), |l| l.to_string()).into(),
        ),
        ("panic_restarts", s.panic_restarts.into()),
        ("max_chunk_depth", s.max_chunk_depth.into()),
        (
            "latency_us",
            Json::Obj(vec![
                ("p50", us(chaos::percentile(&lat, 0.50))),
                ("p95", us(chaos::percentile(&lat, 0.95))),
                ("p99", us(chaos::percentile(&lat, 0.99))),
                ("p999", us(chaos::percentile(&lat, 0.999))),
                ("max", us(lat.last().copied().unwrap_or(0.0))),
            ]),
        ),
        ("wall_ms", us(wall_ms)),
    ])
}

fn main() -> Result<(), EmoleakError> {
    // The injected step panics are absorbed by the firewall; keep their
    // default-hook backtraces out of the report. Real panics still print.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<&str>()
            .is_some_and(|m| m.contains("injected chaos panic"));
        if !injected {
            default_hook(info);
        }
    }));

    let corpus = CorpusSpec::tess().with_clips_per_cell(2);
    banner("Stream chaos: liveness under faults, flaky transport, and panics", &[&corpus])?;
    let device = DeviceProfile::oneplus_7t();

    // One classical bundle, trained once on the clean campaign, backs every
    // run: chaos is about the service, not the model.
    let clean = AttackScenario::table_top(corpus.clone(), device.clone());
    let bundle = Arc::new(
        ModelBundle::train(&clean.harvest()?, 0xC4A05).expect("clean campaign must train"),
    );
    let detector = clean.setting.region_detector();

    let grid = chaos::grid(&PRESETS, 0xC4A0, &[0.0, 0.5, 1.0, 2.0, 4.0, 8.0], 3)?;
    // Cells run one at a time: their latency fields are wall-clock. The
    // seeds of one (preset, severity) pair share its faulted recording and
    // vary the transport failure pattern; the last also injects a step
    // panic to exercise the panic firewall.
    let mut records = Vec::with_capacity(grid.len());
    for cells in grid.chunk_by(|a, b| (a.name, a.severity) == (b.name, b.severity)) {
        let faults = (cells[0].scenario)().with_severity(cells[0].severity);
        let campaign = AttackScenario::table_top(corpus.clone(), device.clone())
            .with_faults(faults)
            .record_windows()?;
        for (k, cell) in cells.iter().enumerate() {
            let inject_panic = k + 1 == cells.len();
            let mut naming = cell.fields("preset");
            naming.push(("inject_panic", inject_panic.into()));
            records.push(chaos::run_cell("stream_chaos", records.len(), naming, |_, violations| {
                simulate(&bundle, &campaign, &detector, cell, inject_panic, violations)
            }));
        }
    }
    chaos::finish(
        "stream_chaos",
        &[],
        &records,
        &[],
        &["regions", "retries", "transitions", "panic_restarts", "wall_ms"],
    );
    Ok(())
}
