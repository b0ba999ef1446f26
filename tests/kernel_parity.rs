//! End-to-end kernel parity: a bundle trained under
//! `EMOLEAK_KERNELS=reference` and one trained under `EMOLEAK_KERNELS=fast`
//! serve byte-identical verdict streams under either mode, crossed with
//! `EMOLEAK_THREADS` 1 and 4.
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

use emoleak::ml::nn::{spectrogram_cnn_scaled, Tensor, TrainConfig};
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

/// Runs `f` with `EMOLEAK_KERNELS` set to `mode`, then unsets it.
fn in_mode<T>(mode: &str, f: impl FnOnce() -> T) -> T {
    std::env::set_var("EMOLEAK_KERNELS", mode);
    let out = f();
    std::env::remove_var("EMOLEAK_KERNELS");
    out
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
    // Harvest and train under each mode: the training forward passes run
    // the same conv kernels, so a divergence there forks the weights.
    let harvest = in_mode("reference", || scenario.harvest().unwrap());
    let bundles = ["reference", "fast"].map(|mode| {
        in_mode(mode, || {
            let harvest = scenario.harvest().unwrap();
            Arc::new(ModelBundle::train_with_cnn(&harvest, 7).unwrap())
        })
    });
    assert!(bundles[0].has_cnn(), "parity must cover the conv forward pass");
    let campaign = scenario.record_windows().unwrap();

    // A one-epoch CNN gives few distinct labels, so the verdict streams
    // below could hide a small divergence in training. Train the bundle's
    // architecture under each mode and compare its logits on every
    // harvested image bit for bit.
    let side = emoleak::features::spectrogram::IMAGE_SIZE;
    let images: Vec<Tensor> = harvest
        .spectrograms
        .iter()
        .map(|s| Tensor::from_shape(&[1, side, side], s.pixels.clone()))
        .collect();
    let labels: Vec<usize> = harvest.spectrograms.iter().map(|s| s.label).collect();
    let trained_logits = |mode: &str| -> Vec<u64> {
        in_mode(mode, || {
            let mut net = spectrogram_cnn_scaled(harvest.features.num_classes(), 7, 8);
            let config = TrainConfig { epochs: 2, batch_size: 4, learning_rate: 3e-3, seed: 5 };
            net.fit(&images[1..], &labels[1..], &images[..1], &labels[..1], &config);
            images.iter().flat_map(|x| net.forward(x, false).data).map(f64::to_bits).collect()
        })
    };
    assert_eq!(
        trained_logits("reference"),
        trained_logits("fast"),
        "training under EMOLEAK_KERNELS=reference and =fast gave different weights"
    );

    let run = |bundle: &Arc<ModelBundle>, mode: &str, threads: usize| -> StreamReport {
        in_mode(mode, || {
            with_threads(threads, || {
                let svc = StreamService::new(
                    Arc::clone(bundle),
                    scenario.setting.region_detector(),
                    campaign.fs,
                    StreamConfig {
                        latency_override: Some([Duration::ZERO; 4]),
                        ..StreamConfig::default()
                    },
                );
                svc.run(Box::new(ReplaySource::from_campaign(&campaign, 256))).unwrap()
            })
        })
    };

    let base = digest(&run(&bundles[0], "reference", 1));
    assert!(!base.is_empty(), "the parity check must cover real verdicts");
    assert!(
        base.iter().any(|(.., level, _)| *level == InferenceLevel::Cnn),
        "a clean run of a CNN bundle must classify at the CNN rung"
    );

    for (trained, bundle) in ["reference", "fast"].iter().zip(&bundles) {
        for (mode, threads) in [("reference", 1), ("reference", 4), ("fast", 1), ("fast", 4)] {
            if (*trained, mode, threads) == ("reference", "reference", 1) {
                continue;
            }
            assert_eq!(
                digest(&run(bundle, mode, threads)),
                base,
                "a bundle trained at EMOLEAK_KERNELS={trained}, served at {mode} on \
                 {threads} thread(s), changed the verdict stream"
            );
        }
    }

    // The int8 rung is deliberately lossy vs f64 but must itself be
    // deterministic and kernel-mode-independent: classify every region at
    // CnnInt8 under both modes, with both bundles, and compare streams.
    let int8_digest = |bundle: &ModelBundle, mode: &str| -> Vec<Option<usize>> {
        in_mode(mode, || {
            campaign
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
                .collect()
        })
    };
    let int8_ref = int8_digest(&bundles[0], "reference");
    assert!(!int8_ref.is_empty());
    for (trained, bundle) in ["reference", "fast"].iter().zip(&bundles) {
        for mode in ["reference", "fast"] {
            assert_eq!(
                int8_digest(bundle, mode),
                int8_ref,
                "the int8 rung of a bundle trained at {trained} changed at {mode}"
            );
        }
    }

    std::env::remove_var("EMOLEAK_EPOCHS");
    std::env::remove_var("EMOLEAK_CNN_DIV");
}
