//! End-to-end kernel parity: the full verdict stream is byte-identical
//! under `EMOLEAK_KERNELS=reference` and `EMOLEAK_KERNELS=fast`, crossed
//! with `EMOLEAK_THREADS` 1 and 4.
//!
//! `tests/proptest_kernels.rs` pins each kernel to its reference at the
//! function boundary; this binary pins the composition — chunked ingest →
//! assembly → region detection → STFT/resize/features → CNN (and every
//! cheaper rung) — by byte-comparing complete clean-path runs of a real
//! trained bundle, the same digest the fleet placement-invariance tests
//! use. It is a single `#[test]` in its own binary because it owns the
//! process-global `EMOLEAK_KERNELS` variable: the hot paths deliberately
//! re-read the knob per top-level operation so one process can flip modes
//! between runs, but parallel tests in a shared binary would race on it.

use emoleak::prelude::*;
use emoleak::stream::{ReplaySource, StreamConfig, StreamReport, StreamService};
use emoleak_exec::with_threads;
use std::sync::Arc;
use std::time::Duration;

/// Everything classification decided for one region, in emission order:
/// any kernel-mode divergence anywhere in the pipeline shows up here.
type Digest = Vec<(usize, usize, usize, Option<usize>, InferenceLevel, bool)>;

fn digest(report: &StreamReport) -> Digest {
    report
        .emissions
        .iter()
        .map(|e| {
            (e.window, e.start, e.end, e.verdict.label, e.verdict.level, e.verdict.is_speech)
        })
        .collect()
}

#[test]
fn verdict_stream_is_identical_across_kernel_modes_and_thread_counts() {
    // A CNN-backed bundle (one cheap epoch, narrow net) so the conv fast
    // path actually runs end to end; the knobs are pinned before any
    // training so the weights are reproducible regardless of ambient env.
    std::env::set_var("EMOLEAK_EPOCHS", "1");
    std::env::set_var("EMOLEAK_CNN_DIV", "8");
    let scenario = AttackScenario::table_top(
        CorpusSpec::tess().with_clips_per_cell(2),
        DeviceProfile::oneplus_7t(),
    );
    let harvest = scenario.harvest().unwrap();
    let bundle = Arc::new(ModelBundle::train_with_cnn(&harvest, 7).unwrap());
    assert!(bundle.has_cnn(), "parity must cover the conv forward pass");
    let campaign = scenario.record_windows().unwrap();

    let run = |mode: &str, threads: usize| -> StreamReport {
        std::env::set_var("EMOLEAK_KERNELS", mode);
        let report = with_threads(threads, || {
            let svc = StreamService::new(
                Arc::clone(&bundle),
                scenario.setting.region_detector(),
                campaign.fs,
                StreamConfig {
                    latency_override: Some([Duration::ZERO; 4]),
                    ..StreamConfig::default()
                },
            );
            svc.run(Box::new(ReplaySource::from_campaign(&campaign, 256))).unwrap()
        });
        std::env::remove_var("EMOLEAK_KERNELS");
        report
    };

    let baseline = run("reference", 1);
    let base = digest(&baseline);
    assert!(!base.is_empty(), "the parity check must cover real verdicts");
    assert!(
        base.iter().any(|(.., level, _)| *level == InferenceLevel::Cnn),
        "a clean run of a CNN bundle must classify at the CNN rung"
    );

    for (mode, threads) in
        [("reference", 4), ("fast", 1), ("fast", 4)]
    {
        let report = run(mode, threads);
        assert_eq!(
            digest(&report),
            base,
            "EMOLEAK_KERNELS={mode} at {threads} thread(s) changed the verdict stream"
        );
    }

    // The int8 rung is deliberately lossy vs f64 but must itself be
    // deterministic and kernel-mode-independent: classify every region at
    // CnnInt8 under both modes and compare streams.
    let int8_digest = |mode: &str| -> Vec<Option<usize>> {
        std::env::set_var("EMOLEAK_KERNELS", mode);
        let labels = campaign
            .windows
            .iter()
            .flat_map(|(window, _truth, label)| {
                let ex = emoleak::core::online::extract_window(
                    window,
                    campaign.fs,
                    &scenario.setting.region_detector(),
                    Some(&emoleak::features::spectrogram::SpectrogramGenerator::for_accel()),
                    *label,
                );
                ex.rows
                    .into_iter()
                    .map(|rf| bundle.classify(InferenceLevel::CnnInt8, &rf).label)
                    .collect::<Vec<_>>()
            })
            .collect();
        std::env::remove_var("EMOLEAK_KERNELS");
        labels
    };
    let int8_ref = int8_digest("reference");
    assert!(!int8_ref.is_empty());
    assert_eq!(int8_ref, int8_digest("fast"), "int8 rung must not depend on the knob");

    std::env::remove_var("EMOLEAK_EPOCHS");
    std::env::remove_var("EMOLEAK_CNN_DIV");
}
