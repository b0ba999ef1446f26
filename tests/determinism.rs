//! Worker-count invariance: the whole attack pipeline must produce
//! byte-identical results whether it runs on 1, 2 or 8 threads.
//!
//! This is the contract the `emoleak-exec` engine is built around: per-clip
//! RNG streams derived from `(campaign_seed, clip_index)`, index-ordered
//! result collection, and index-ordered float folds. If any stage ever
//! consumed a shared RNG from inside a parallel region — or reduced floats
//! in scheduling order — these tests would catch it as a bit-level diff
//! between thread counts.

use emoleak::prelude::*;
use emoleak_exec::with_threads;

fn feature_bits(h: &HarvestResult) -> Vec<Vec<u64>> {
    h.features
        .features()
        .iter()
        .map(|row| row.iter().map(|v| v.to_bits()).collect())
        .collect()
}

fn spectrogram_bits(h: &HarvestResult) -> Vec<(usize, Vec<u64>)> {
    h.spectrograms
        .iter()
        .map(|s| (s.label, s.pixels.iter().map(|v| v.to_bits()).collect()))
        .collect()
}

fn assert_harvests_identical(a: &HarvestResult, b: &HarvestResult, what: &str) {
    assert_eq!(feature_bits(a), feature_bits(b), "{what}: feature matrix");
    assert_eq!(a.features.labels(), b.features.labels(), "{what}: labels");
    assert_eq!(spectrogram_bits(a), spectrogram_bits(b), "{what}: spectrograms");
    assert_eq!(
        a.detection_rate.to_bits(),
        b.detection_rate.to_bits(),
        "{what}: detection rate"
    );
    assert_eq!(a.accel_fs.to_bits(), b.accel_fs.to_bits(), "{what}: accel fs");
    assert_eq!(a.faults, b.faults, "{what}: fault aggregate");
    assert_eq!(a.clip_faults, b.clip_faults, "{what}: per-clip faults");
}

#[test]
fn table_top_harvest_is_worker_count_invariant() {
    let scenario = || {
        AttackScenario::table_top(
            CorpusSpec::tess().with_clips_per_cell(2),
            DeviceProfile::oneplus_7t(),
        )
        .with_faults(FaultProfile::handheld_walking())
    };
    let baseline = with_threads(1, || scenario().harvest().unwrap());
    for n in [2, 8] {
        let h = with_threads(n, || scenario().harvest().unwrap());
        assert_harvests_identical(&baseline, &h, &format!("table-top, {n} threads"));
    }
}

#[test]
fn handheld_harvest_is_worker_count_invariant() {
    let scenario = || {
        AttackScenario::handheld(
            CorpusSpec::savee().with_clips_per_cell(2),
            DeviceProfile::oneplus_7t(),
        )
    };
    let baseline = with_threads(1, || scenario().harvest().unwrap());
    for n in [2, 8] {
        let h = with_threads(n, || scenario().harvest().unwrap());
        assert_harvests_identical(&baseline, &h, &format!("handheld, {n} threads"));
    }
}

#[test]
fn evaluation_tables_are_worker_count_invariant() {
    // One harvest (already proven invariant above), then the evaluation
    // stack — parallel k-fold plus the parallel classifier grid — at three
    // thread counts. Accuracy must match to the bit, and the confusion
    // matrices must match exactly.
    let harvest = with_threads(1, || {
        AttackScenario::table_top(
            CorpusSpec::tess().with_clips_per_cell(3),
            DeviceProfile::oneplus_7t(),
        )
        .harvest()
        .unwrap()
    });
    let kinds = [ClassifierKind::Logistic, ClassifierKind::MultiClass];
    let run = || {
        evaluate_feature_grid(&harvest.features, &kinds, Protocol::KFold(5), 0xD5)
            .into_iter()
            .map(|(kind, result)| {
                let eval = result.unwrap();
                (kind, eval.accuracy.to_bits(), eval.confusion.counts().to_vec())
            })
            .collect::<Vec<_>>()
    };
    let baseline = with_threads(1, run);
    for n in [2, 8] {
        let table = with_threads(n, run);
        assert_eq!(baseline, table, "evaluation grid at {n} threads");
    }
}

#[test]
fn streaming_labels_are_worker_count_invariant() {
    // The streaming service itself runs each session as one loop on the
    // caller's thread, but its inputs — the recorded campaign (parallel
    // stage 1) and the trained bundle (parallel harvest) — come off the
    // pool. Streamed labels must not depend on how many workers produced
    // those inputs.
    use emoleak::stream::{ReplaySource, StreamConfig, StreamService};
    use std::sync::Arc;
    use std::time::Duration;

    let run = || {
        let scenario = AttackScenario::table_top(
            CorpusSpec::tess().with_clips_per_cell(1),
            DeviceProfile::oneplus_7t(),
        )
        .with_faults(FaultProfile::cheap_imu());
        let campaign = scenario.record_windows().unwrap();
        let bundle = Arc::new(ModelBundle::train(&scenario.harvest().unwrap(), 7).unwrap());
        let service = StreamService::new(
            bundle,
            scenario.setting.region_detector(),
            campaign.fs,
            StreamConfig {
                latency_override: Some([Duration::ZERO; 4]),
                ..StreamConfig::default()
            },
        );
        let report = service
            .run(Box::new(ReplaySource::from_campaign(&campaign, 256)))
            .unwrap();
        report
            .emissions
            .iter()
            .map(|e| (e.window, e.start, e.end, e.verdict.label))
            .collect::<Vec<_>>()
    };
    let baseline = with_threads(1, run);
    for n in [2, 8] {
        assert_eq!(baseline, with_threads(n, run), "streamed labels at {n} threads");
    }
}
