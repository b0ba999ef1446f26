//! End-to-end contracts of the streaming inference service.
//!
//! Two promises lock the streaming path to the batch pipeline, and a third
//! keeps sessions from waiting on the supervisor:
//!
//! 1. **Clean-path equivalence** — streaming a recording through
//!    `StreamService` yields region-for-region the labels the batch
//!    pipeline's extraction + classification produces, byte-identical, at
//!    any worker count.
//! 2. **Deterministic degradation** — with synthetic latencies, the
//!    ladder's transitions (and therefore which rung labeled which region)
//!    are a pure function of the input: two identical runs produce
//!    identical `ServiceLog`s and identical emissions.
//! 3. **Prompt completion** — a session ends, and a panicked stage
//!    restarts, as soon as a stage exits: a supervisor poll far longer than
//!    the session changes neither when it ends nor what it emits.

use emoleak::core::online::extract_window;
use emoleak::prelude::*;
use emoleak::stream::{ReplaySource, StreamConfig, StreamReport, StreamService};
use emoleak_exec::with_threads;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn scenario() -> AttackScenario {
    AttackScenario::table_top(
        CorpusSpec::tess().with_clips_per_cell(2),
        DeviceProfile::oneplus_7t(),
    )
}

/// Deterministic config: zero synthetic latency, so every deadline is met
/// and the ladder never moves.
fn fast_config() -> StreamConfig {
    StreamConfig {
        latency_override: Some([Duration::ZERO; 4]),
        ..StreamConfig::default()
    }
}

fn streamed_labels(report: &StreamReport) -> Vec<(usize, usize, usize, Option<usize>)> {
    report
        .emissions
        .iter()
        .map(|e| (e.window, e.start, e.end, e.verdict.label))
        .collect()
}

#[test]
fn clean_stream_labels_are_byte_identical_to_batch_at_any_thread_count() {
    let mut per_thread_count = Vec::new();
    for threads in [1usize, 4] {
        let labels = with_threads(threads, || {
            let scenario = scenario();
            let harvest = scenario.harvest().unwrap();
            let bundle = Arc::new(ModelBundle::train(&harvest, 7).unwrap());
            let campaign = scenario.record_windows().unwrap();
            let detector = scenario.setting.region_detector();

            // Batch side: the same extraction the batch pipeline runs,
            // classified row by row at the classical rung.
            let mut batch = Vec::new();
            for (i, (window, _truth, label)) in campaign.windows.iter().enumerate() {
                let ex = extract_window(window, campaign.fs, &detector, None, *label);
                for rf in ex.rows {
                    let verdict = bundle.classify(InferenceLevel::Classical, &rf);
                    batch.push((i, rf.start, rf.end, verdict.label));
                }
            }

            // Streaming side: the same recording, chunked and replayed.
            let service = StreamService::new(
                Arc::clone(&bundle),
                detector,
                campaign.fs,
                fast_config(),
            );
            let source = ReplaySource::from_campaign(&campaign, 256);
            let report = service.run(Box::new(source)).unwrap();

            assert_eq!(
                streamed_labels(&report),
                batch,
                "streaming != batch at {threads} thread(s)"
            );
            assert!(report.log.events().is_empty(), "clean path must be silent");
            assert_eq!(report.stats.deadline_misses, 0);
            batch
        });
        per_thread_count.push(labels);
    }
    assert_eq!(
        per_thread_count[0], per_thread_count[1],
        "worker count changed the streamed labels"
    );
}

#[test]
fn sessions_end_when_their_stages_exit_not_on_the_supervisor_poll() {
    let scenario = scenario();
    let harvest = scenario.harvest().unwrap();
    let bundle = Arc::new(ModelBundle::train(&harvest, 7).unwrap());
    let campaign = scenario.record_windows().unwrap();
    let run = |config: StreamConfig| {
        let service = StreamService::new(
            Arc::clone(&bundle),
            scenario.setting.region_detector(),
            campaign.fs,
            config,
        );
        let t0 = Instant::now();
        let report = service
            .run(Box::new(ReplaySource::from_campaign(&campaign, 256)))
            .unwrap();
        (report, t0.elapsed())
    };
    for panic_after_chunks in [None, Some(2)] {
        let config = StreamConfig { panic_after_chunks, ..fast_config() };
        let (reference, _) = run(config.clone());
        let mut slow_poll = config;
        slow_poll.supervisor.poll = Duration::from_secs(20);
        let (report, took) = run(slow_poll);
        assert!(
            took < Duration::from_secs(5),
            "session with panic_after_chunks {panic_after_chunks:?} took {took:?}"
        );
        assert_eq!(report.emissions, reference.emissions);
        assert_eq!(report.stats.panic_restarts, u32::from(panic_after_chunks.is_some()));
    }
}

#[test]
fn deadline_pressure_degrades_then_recovers_deterministically() {
    let scenario = scenario();
    let harvest = scenario.harvest().unwrap();
    let bundle = Arc::new(ModelBundle::train(&harvest, 7).unwrap());
    let campaign = scenario.record_windows().unwrap();

    // Classical blows the 40 ms deadline every time; energy-only is
    // instant. The ladder must cycle: trip down after 3 misses, climb back
    // only after 5 meets and a 2-region cooldown (hysteresis).
    let config = StreamConfig {
        deadline: Duration::from_millis(40),
        latency_override: Some([
            Duration::from_millis(80),
            Duration::from_millis(80),
            Duration::from_millis(80),
            Duration::ZERO,
        ]),
        ladder: emoleak::stream::LadderConfig {
            degrade_after: 3,
            recover_after: 5,
            cooldown: 2,
        },
        ..StreamConfig::default()
    };
    let run = || {
        let service = StreamService::new(
            Arc::clone(&bundle),
            scenario.setting.region_detector(),
            campaign.fs,
            config.clone(),
        );
        service
            .run(Box::new(ReplaySource::from_campaign(&campaign, 256)))
            .unwrap()
    };

    let report = run();
    let transitions = report.log.transitions();
    assert!(
        transitions.len() >= 2,
        "expected degrade + recover, got {transitions:?}"
    );
    assert_eq!(transitions[0].from, InferenceLevel::Classical);
    assert_eq!(transitions[0].to, InferenceLevel::EnergyOnly);
    assert!(
        transitions.iter().any(|t| t.to < t.from),
        "sustained headroom never climbed back: {transitions:?}"
    );
    // Hysteresis is visible in the event stream: a recovery fires only
    // after at least `recover_after` regions at the degraded rung.
    let events = report.log.events();
    let degrade_at = events.iter().find_map(|e| match e {
        emoleak::stream::ServiceEvent::Degraded { region, .. } => Some(*region),
        _ => None,
    });
    let recover_at = events.iter().find_map(|e| match e {
        emoleak::stream::ServiceEvent::Recovered { region, .. } => Some(*region),
        _ => None,
    });
    let (d, r) = (degrade_at.unwrap(), recover_at.unwrap());
    assert!(
        r >= d + u64::from(config.ladder.recover_after),
        "recovery at region {r} too soon after degradation at {d}"
    );
    // Both rungs actually labeled regions.
    assert!(report.stats.level_counts[2] > 0, "classical ran");
    assert!(report.stats.level_counts[3] > 0, "energy-only ran");

    // Synthetic latencies make the whole run a pure function of the input:
    // a second run reproduces the log and the emissions exactly.
    let again = run();
    assert_eq!(report.log, again.log, "ServiceLog must be deterministic");
    assert_eq!(streamed_labels(&report), streamed_labels(&again));
    // Queue max-depths are scheduling-dependent; everything the ladder and
    // classifier produced is not.
    assert_eq!(report.stats.regions, again.stats.regions);
    assert_eq!(report.stats.level_counts, again.stats.level_counts);
    assert_eq!(report.stats.deadline_misses, again.stats.deadline_misses);
    assert_eq!(report.final_level, again.final_level);
}
