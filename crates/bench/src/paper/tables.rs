//! Tables I–VII.

use super::clip_features;
use crate::{
    clips_per_cell, decode_column, encode_column, loudspeaker_column, run_campaign, Report,
};
use emoleak_core::mitigation::FilterAblation;
use emoleak_core::prelude::*;
use emoleak_core::{evaluate_feature_grid, evaluate_features, ClassifierKind, Protocol};
use emoleak_features::info_gain::information_gain_per_feature;

/// Table I — information gain of time–frequency features, no filter vs
/// 1 Hz high-pass.
///
/// Paper values: unfiltered min/mean/max ≈ 1.27–1.31, CV 0.994, power 0.903,
/// smoothness 0.761; after the 1 Hz HPF everything collapses to 0 except
/// power (0.117). Our channel reproduces the direction of the summed level
/// gain, not the zeros — see EXPERIMENTS.md for the discrepancy discussion.
pub(super) fn table1_info_gain(report: &mut Report) -> Result<(), EmoleakError> {
    // Short grouped-emotion blocks are where the posture-drift structure
    // that Table I measures lives; larger campaigns wash the in-session
    // association out (see EXPERIMENTS.md).
    let corpus = CorpusSpec::tess().with_clips_per_cell(clips_per_cell()?.min(6));
    report.banner(
        "Table I: information gain, no filter vs 1 Hz high-pass (TESS, handheld)",
        &[&corpus],
    )?;
    let scenario = AttackScenario::handheld(corpus, DeviceProfile::oneplus_7t());
    let ablation = FilterAblation::run(&scenario)?;
    report.line(format!("{:<12} {:>10} {:>10}", "feature", "no filter", "1 Hz HPF"));
    report.line("-".repeat(34));
    let rows = ablation.features.iter().zip(&ablation.gain_no_filter).zip(&ablation.gain_1hz);
    for ((name, raw), hp) in rows.clone() {
        report.line(format!("{name:<12} {raw:>10.3} {hp:>10.3}"));
    }
    // The verdict sums the four level statistics (min/mean/max/CV); name
    // the ones whose own gain rises anyway.
    let rising: Vec<&str> = rows
        .take(4)
        .filter(|&((_, raw), hp)| hp > raw)
        .map(|((name, _), _)| name.as_str())
        .collect();
    report.line(format!(
        "\nfilter cuts the summed min/mean/max/CV gain by >= 20%: {} (gain rises for: {})",
        ablation.filter_degrades_features(),
        if rising.is_empty() { "none".to_string() } else { rising.join(", ") }
    ));
    Ok(())
}

/// Table II — the 24 time/frequency-domain features, with an information
/// gain per feature on a live campaign (the paper reports that all features
/// have non-zero gain in both settings; §III-B.4).
pub(super) fn table2_features(report: &mut Report) -> Result<(), EmoleakError> {
    let corpus = CorpusSpec::tess().with_clips_per_cell(clips_per_cell()?.min(20));
    report.banner("Table II: feature inventory + information gain (TESS)", &[&corpus])?;
    let settings = [
        ("table-top", AttackScenario::table_top(corpus.clone(), DeviceProfile::oneplus_7t())),
        ("handheld", AttackScenario::handheld(corpus, DeviceProfile::oneplus_7t())),
    ];
    // Both campaigns harvest in parallel; the report prints in order.
    let harvests = emoleak_exec::par_map_indexed(&settings, |_, (_, s)| s.harvest());
    for ((setting, _), harvest) in settings.iter().zip(harvests) {
        let harvest = harvest?;
        let gains = information_gain_per_feature(
            harvest.features.features(),
            harvest.features.labels(),
            10,
        );
        report.line(format!("\n[{setting}] {} regions", harvest.features.len()));
        report.line(format!("{:<20} {:>8}", "feature", "gain"));
        let mut nonzero = 0;
        for (name, g) in harvest.features.feature_names().iter().zip(&gains) {
            report.line(format!("{name:<20} {g:>8.3}"));
            if *g > 0.0 {
                nonzero += 1;
            }
        }
        report.line(format!("non-zero gains: {nonzero}/24"));
    }
    Ok(())
}

/// Table III — SAVEE dataset, loudspeaker/table-top, OnePlus 7T and
/// Pixel 5.
///
/// Paper: Logistic 53.77 % / 44.44 %, MultiClass 51.85 % / 52.97 %,
/// trees.LMT 51.58 % / 53.00 %, CNN 46.98 % / 44.18 %, spectrogram CNN
/// 39.16 % / 35.38 % (random guess 14.28 %).
pub(super) fn table3_savee(report: &mut Report) -> Result<(), EmoleakError> {
    loudspeaker_table(
        report,
        "Table III",
        CorpusSpec::savee().with_clips_per_cell(clips_per_cell()?),
        &[DeviceProfile::oneplus_7t(), DeviceProfile::pixel_5()],
        0x7AB3,
        &[
            "paper: Logistic 53.77%/44.44%, CNN 46.98%/44.18%, spec-CNN 39.16%/35.38%",
            "random guess 14.28%",
        ],
    )
}

/// Table IV — CREMA-D dataset, loudspeaker/table-top, Samsung Galaxy S10.
///
/// Paper: Logistic 58.99 %, MultiClass 58.51 %, trees.LMT 58.99 %,
/// CNN 60.32 %, spectrogram CNN 53 % (random guess 16.67 %).
pub(super) fn table4_cremad(report: &mut Report) -> Result<(), EmoleakError> {
    // CREMA-D has 91 speakers; its per-cell count is intrinsically small
    // (13 in the real corpus), so the scale knob is capped accordingly.
    loudspeaker_table(
        report,
        "Table IV",
        CorpusSpec::crema_d().with_clips_per_cell(clips_per_cell()?.clamp(2, 13)),
        &[DeviceProfile::galaxy_s10()],
        0xC4E,
        &["paper: Logistic 58.99%, CNN 60.32%, spec-CNN 53%", "random guess 16.67%"],
    )
}

/// Table V — TESS dataset, loudspeaker/table-top, five devices.
///
/// Paper (best per device): OnePlus 7T 95.3 % (CNN), Galaxy S10 85.37 %
/// (spec-CNN), Pixel 5 82.62 % (CNN), Galaxy S21 88.49 % (CNN), S21 Ultra
/// 85.74 % (spec-CNN); random guess 14.28 %.
pub(super) fn table5_tess(report: &mut Report) -> Result<(), EmoleakError> {
    loudspeaker_table(
        report,
        "Table V",
        CorpusSpec::tess().with_clips_per_cell(clips_per_cell()?),
        &[
            DeviceProfile::oneplus_7t(),
            DeviceProfile::galaxy_s10(),
            DeviceProfile::pixel_5(),
            DeviceProfile::galaxy_s21(),
            DeviceProfile::galaxy_s21_ultra(),
        ],
        0x7E55,
        &["paper best-per-device: 95.3%, 85.37%, 82.62%, 88.49%, 85.74%", "random guess 14.28%"],
    )
}

/// A loudspeaker table (Tables III–V): one [`loudspeaker_column`] per
/// device on a table-top campaign over `corpus`. Each column is one unit of
/// a campaign named after the report, so with `EMOLEAK_CHECKPOINT_DIR` set
/// completed columns are journaled and a killed run resumes from its
/// cursor, byte-identically. Within a chunk the columns run in parallel.
fn loudspeaker_table(
    report: &mut Report,
    table: &str,
    corpus: CorpusSpec,
    devices: &[DeviceProfile],
    seed: u64,
    notes: &[&str],
) -> Result<(), EmoleakError> {
    let budget = report.banner(&format!("{table}: {} / loudspeaker", corpus.name()), &[&corpus])?;
    let device_names: Vec<String> = devices.iter().map(|d| d.name().to_string()).collect();
    let columns = run_campaign(
        report.name(),
        &budget,
        &[&format!("seed={seed:#x}"), &device_names.join(",")],
        devices.len(),
        encode_column,
        decode_column,
        |range| {
            emoleak_exec::par_map_indexed(&devices[range], |_, d| {
                loudspeaker_column(&AttackScenario::table_top(corpus.clone(), d.clone()), seed)
            })
            .into_iter()
            .collect()
        },
    )?;
    let mut table = ResultTable::new(
        &format!("{} (time-frequency features + spectrograms)", corpus.name()),
        device_names,
    );
    for row in 0..columns[0].len() {
        let label = columns[0][row].0.clone();
        table.push_row(&label, columns.iter().map(|c| c[row].1).collect());
    }
    for note in notes {
        table.push_note(note);
    }
    report.block(table.render());
    Ok(())
}

/// Table VI — ear-speaker / handheld setting: SAVEE on OnePlus 7T and
/// OnePlus 9, TESS on OnePlus 7T.
///
/// Paper: Random Forest 53.12 % / 58.40 % / 59.67 %, RandomSubSpace
/// 56.25 % / 54.83 % / 55.45 %, trees.LMT 49.11 % / 53.76 % / 53.03 %,
/// CNN 51.11 % / 60.52 % / 54.82 % (random guess 14.28 %). The paper uses
/// 10-fold cross-validation for these results.
pub(super) fn table6_earspeaker(report: &mut Report) -> Result<(), EmoleakError> {
    let savee = CorpusSpec::savee().with_clips_per_cell(clips_per_cell()?);
    let tess = CorpusSpec::tess().with_clips_per_cell(clips_per_cell()?);
    report.banner("Table VI: ear speaker / handheld (10-fold CV)", &[&savee, &tess])?;
    let scenarios = [
        ("SAVEE (OnePlus 7T)", AttackScenario::handheld(savee.clone(), DeviceProfile::oneplus_7t())),
        ("SAVEE (OnePlus 9)", AttackScenario::handheld(savee, DeviceProfile::oneplus_9())),
        ("TESS (OnePlus 7T)", AttackScenario::handheld(tess, DeviceProfile::oneplus_7t())),
    ];
    let mut table = ResultTable::new(
        "Ear speaker (time-frequency features)",
        scenarios.iter().map(|(n, _)| n.to_string()).collect(),
    );
    let kinds = [
        ClassifierKind::RandomForest,
        ClassifierKind::RandomSubspace,
        ClassifierKind::Lmt,
        ClassifierKind::Cnn,
    ];
    // The three campaigns are independent: harvest them in parallel.
    let harvests = emoleak_exec::par_map_indexed(&scenarios, |_, (_, s)| s.harvest())
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?;
    for kind in kinds {
        let accs: Vec<f64> = emoleak_exec::par_map_indexed(&harvests, |_, h| {
            // The paper's ear-speaker protocol: 10-fold CV (§V-D). The
            // CNN uses a holdout split to keep runtimes single-core sane.
            let protocol = if kind == ClassifierKind::Cnn {
                Protocol::Holdout8020
            } else {
                Protocol::KFold(10)
            };
            evaluate_features(&h.features, kind, protocol, 0xEA6)
                .map(|eval| eval.accuracy)
                .unwrap_or(f64::NAN)
        });
        table.push_row(kind.display_name(), accs);
    }
    for (h, (name, _)) in harvests.iter().zip(&scenarios) {
        table.push_note(&format!(
            "{name}: region detection rate {:.0}% (paper: >= 45%)",
            h.detection_rate * 100.0
        ));
    }
    table.push_note("paper: RF 53.12/58.40/59.67, RSS 56.25/54.83/55.45, LMT 49.11/53.76/53.03, CNN 51.11/60.52/54.82");
    report.block(table.render());
    Ok(())
}

/// Table VII — summary: vibration-domain (EmoLeak) accuracy per dataset vs
/// the audio-domain state of the art.
///
/// Paper: SAVEE 53.77 % (audio 91.7 %), TESS 95.3 % (audio 99.57 %),
/// CREMA-D 60.32 % (audio 94.99 %). We reproduce the vibration column with
/// our pipeline and the audio column with a *clean-audio baseline*: the same
/// Table II features extracted directly from the synthesized audio (no
/// vibration channel), which stands in for the cited audio-domain systems.
pub(super) fn table7_summary(report: &mut Report) -> Result<(), EmoleakError> {
    const SEED: u64 = 0x7AB7;
    let n = clips_per_cell()?;
    let rows: [(&str, CorpusSpec, DeviceProfile); 3] = [
        ("SAVEE", CorpusSpec::savee().with_clips_per_cell(n), DeviceProfile::oneplus_7t()),
        ("TESS", CorpusSpec::tess().with_clips_per_cell(n), DeviceProfile::oneplus_7t()),
        (
            "CREMA-D",
            CorpusSpec::crema_d().with_clips_per_cell(n.clamp(2, 13)),
            DeviceProfile::galaxy_s10(),
        ),
    ];
    let corpora: Vec<&CorpusSpec> = rows.iter().map(|(_, corpus, _)| corpus).collect();
    let budget = report.banner("Table VII: vibration domain vs audio domain", &corpora)?;
    let mut table = ResultTable::new(
        "Summary (best classical classifier, vibration vs clean audio)",
        vec!["vibration (EmoLeak)".into(), "audio baseline".into()],
    );
    // The three dataset rows are independent campaign units: run each
    // chunk in parallel, checkpoint completed rows (as labelled cells),
    // collect in row order.
    let row_cells = run_campaign(
        report.name(),
        &budget,
        &[
            &format!("seed={SEED:#x}"),
            &rows.iter().map(|(name, _, _)| *name).collect::<Vec<_>>().join(","),
        ],
        rows.len(),
        encode_column,
        decode_column,
        |range| {
            emoleak_exec::par_map_indexed(&rows[range], |_, (_, corpus, device)| {
                let scenario = AttackScenario::table_top(corpus.clone(), device.clone());
                let harvest = scenario.harvest()?;
                let classical =
                    [ClassifierKind::Logistic, ClassifierKind::MultiClass, ClassifierKind::Lmt];
                let holdout = Protocol::Holdout8020;
                let vib = evaluate_feature_grid(&harvest.features, &classical, holdout, SEED)
                    .into_iter()
                    .map(|(_, eval)| eval.map_or(f64::NAN, |eval| eval.accuracy))
                    .fold(f64::NAN, f64::max);
                let audio = audio_domain_accuracy(corpus, SEED);
                Ok(vec![("vibration".to_string(), vib), ("audio".to_string(), audio)])
            })
            .into_iter()
            .collect()
        },
    )?;
    for ((name, _, _), cells) in rows.iter().zip(row_cells) {
        table.push_row(name, cells.into_iter().map(|(_, acc)| acc).collect());
    }
    table.push_note("paper: SAVEE 53.77% vs 91.7%, TESS 95.3% vs 99.57%, CREMA-D 60.32% vs 94.99%");
    table.push_note("audio baseline = same features on clean audio (substitute for cited SOTA)");
    report.block(table.render());
    Ok(())
}

/// The audio-domain baseline: Table II features of each clip's voiced
/// spans in the clean synthesized audio (16× the accelerometer bandwidth,
/// no channel loss).
fn audio_domain_accuracy(corpus: &CorpusSpec, seed: u64) -> f64 {
    let features = clip_features(corpus, |_, clip| (clip.samples, clip.fs, clip.voiced_spans));
    evaluate_features(&features, ClassifierKind::Logistic, Protocol::Holdout8020, seed)
        .map(|eval| eval.accuracy)
        .unwrap_or(f64::NAN)
}
