//! Live streaming attack: classify emotions while the recording "plays",
//! through a flaky transport, and watch the service stay up.
//!
//! The batch quickstart records a whole campaign and harvests it at once.
//! This example feeds the same recording to `emoleak_stream::StreamService`
//! chunk by chunk — with injected transient read failures and a step
//! panic — and prints the verdicts as they stream out, followed by the
//! service's resilience log.
//!
//! ```sh
//! cargo run --release --example streaming_live
//! ```

use emoleak::prelude::*;
use std::sync::Arc;

fn main() -> Result<(), EmoleakError> {
    // The panic injected below is absorbed by the firewall; keep its
    // default-hook backtrace out of the demo output.
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

    // 1. Record a campaign and train the classifier stack on it (classical
    //    rungs only; pass `ModelBundle::train_with_cnn` output to start the
    //    ladder at the CNN rung instead).
    let corpus = CorpusSpec::tess().with_clips_per_cell(3);
    let scenario = AttackScenario::table_top(corpus, DeviceProfile::oneplus_7t());
    let harvest = scenario.harvest()?;
    let bundle = Arc::new(ModelBundle::train(&harvest, 7)?);
    let class_names: Vec<String> = bundle.class_names().to_vec();

    // 2. Re-record the campaign as a chunk stream and wrap it in a flaky
    //    transport: 30% of reads fail transiently, and one extract-step
    //    panic is injected mid-stream.
    let campaign = scenario.record_windows()?;
    let config = emoleak_stream::StreamConfig {
        panic_after_chunks: Some(10),
        ..emoleak_stream::StreamConfig::default()
    };
    let source = FlakySource::new(
        ReplaySource::from_campaign(&campaign, config.chunk_len),
        0.30,
        0xCAFE,
    );

    // 3. Stream it. The panic firewall absorbs the panic, retries absorb
    //    the flaky reads; the emissions arrive in order regardless.
    let service = emoleak_stream::StreamService::new(
        bundle,
        scenario.setting.region_detector(),
        campaign.fs,
        config,
    );
    let report = service
        .run(Box::new(source))
        .map_err(|e| EmoleakError::Config(format!("stream failed: {e}")))?;

    println!("streamed verdicts (first 12 of {}):", report.emissions.len());
    for e in report.emissions.iter().take(12) {
        let label = e
            .verdict
            .label
            .map_or("-".to_string(), |l| class_names[l].clone());
        println!(
            "  region {:>3}  window {:>2}  [{:>5}..{:>5}]  rung {:<9}  emotion {:<8}  truth {}",
            e.region, e.window, e.start, e.end,
            e.verdict.level.to_string(), label, class_names[e.truth],
        );
    }

    let s = &report.stats;
    println!("\nwhat the service survived:");
    println!("  chunks {} regions {} windows {}", s.chunks_ingested, s.regions, s.windows);
    println!("  transient read failures retried: {}", s.retries);
    println!("  step panics absorbed:            {}", s.panic_restarts);
    println!("  final ladder rung:               {}", report.final_level);
    println!("\nresilience log ({} events):", report.log.events().len());
    for event in report.log.events().iter().take(8) {
        println!("  {event:?}");
    }

    // Ground-truth agreement of the streamed labels (the classical rung's
    // training accuracy — the stream saw its own training campaign).
    let hits = report
        .emissions
        .iter()
        .filter(|e| e.verdict.label == Some(e.truth))
        .count();
    println!(
        "\nstreamed label agreement with ground truth: {}/{} ({:.1}%)",
        hits,
        report.emissions.len(),
        100.0 * hits as f64 / report.emissions.len().max(1) as f64
    );
    Ok(())
}
