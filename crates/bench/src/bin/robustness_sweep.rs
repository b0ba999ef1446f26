//! Robustness sweep: attack accuracy vs sensor-fault severity, one curve
//! per fault axis.
//!
//! Each axis isolates one family of channel imperfections from
//! `emoleak_phone::FaultProfile` (delivery loss, saturation, user motion,
//! power management) and sweeps its severity over the same campaign.
//! Severity 0 is the clean baseline; the attack should decay toward random
//! guessing as each axis intensifies, without a single panic along the way.
//!
//! Prints a text degradation table and writes the full results as JSON
//! (default `robustness_sweep.json`, override with `EMOLEAK_SWEEP_JSON`).
//! The 24 (axis, severity) campaigns run in parallel on `EMOLEAK_THREADS`
//! workers with bit-identical output at any worker count.

use emoleak_bench::chaos::Json;
use emoleak_bench::{banner, clips_per_cell, run_campaign, write_result};
use emoleak_core::prelude::*;
use emoleak_core::{evaluate_features, ClassifierKind, Protocol};
use emoleak_durable::{Dec, Enc};
use emoleak_phone::{BatchingSpec, FaultProfile, ThermalThrottle};

/// One fault axis: a named base profile whose severity gets swept.
struct Axis {
    name: &'static str,
    base: FaultProfile,
}

fn axes() -> Vec<Axis> {
    vec![
        Axis {
            name: "delivery",
            base: FaultProfile {
                drop_rate: 0.10,
                dup_rate: 0.03,
                jitter_std_s: 1.0e-3,
                ..FaultProfile::clean()
            },
        },
        Axis {
            name: "saturation",
            // Full scale chosen near the speech-band vibration amplitude so
            // clipping starts to bite at severity 1 and dominates beyond.
            base: FaultProfile { full_scale: Some(0.02), ..FaultProfile::clean() },
        },
        Axis {
            name: "motion",
            base: FaultProfile {
                burst_rate_hz: 1.8,
                burst_amp: 0.12,
                burst_duration_s: 0.12,
                ..FaultProfile::clean()
            },
        },
        Axis {
            name: "power",
            base: FaultProfile {
                batching: Some(BatchingSpec::doze_default()),
                throttle: ThermalThrottle { onset_s: 30.0, rate_factor: 0.8 },
                ..FaultProfile::clean()
            },
        },
    ]
}

struct Cell {
    severity: f64,
    accuracy: f64,
    regions: usize,
    faults: emoleak_phone::FaultLog,
}

/// Checkpoint payload for one sweep cell; accuracies are raw `f64` bits so
/// a resumed sweep's JSON is byte-identical to an uninterrupted one.
fn encode_cell(c: &Cell) -> Vec<u8> {
    let mut enc = Enc::new();
    enc.f64(c.severity).f64(c.accuracy).u64(c.regions as u64);
    for n in [
        c.faults.dropped,
        c.faults.duplicated,
        c.faults.clipped,
        c.faults.bursts,
        c.faults.suspensions,
        c.faults.throttled,
    ] {
        enc.u64(n as u64);
    }
    enc.into_bytes()
}

fn decode_cell(bytes: &[u8]) -> Option<Cell> {
    let mut dec = Dec::new(bytes);
    let severity = dec.f64().ok()?;
    let accuracy = dec.f64().ok()?;
    let regions = dec.u64().ok()? as usize;
    let mut counts = [0usize; 6];
    for slot in &mut counts {
        *slot = dec.u64().ok()? as usize;
    }
    dec.finish().ok()?;
    Some(Cell {
        severity,
        accuracy,
        regions,
        faults: emoleak_phone::FaultLog {
            dropped: counts[0],
            duplicated: counts[1],
            clipped: counts[2],
            bursts: counts[3],
            suspensions: counts[4],
            throttled: counts[5],
        },
    })
}

fn render_json(random_guess: f64, severities: &[f64], results: &[(String, Vec<Cell>)]) -> String {
    let mut out = String::from("{\n");
    let num = |v: f64| Json::Num(v, 6);
    out.push_str(&format!("  \"random_guess\": {},\n", num(random_guess)));
    out.push_str(&format!(
        "  \"severities\": {},\n",
        Json::Arr(severities.iter().map(|&s| num(s)).collect())
    ));
    out.push_str("  \"axes\": [\n");
    for (i, (name, cells)) in results.iter().enumerate() {
        out.push_str(&format!("    {{\"name\": \"{name}\", \"cells\": [\n"));
        for (j, c) in cells.iter().enumerate() {
            out.push_str(&format!(
                "      {{\"severity\": {}, \"accuracy\": {}, \"regions\": {}, \
                 \"dropped\": {}, \"duplicated\": {}, \"clipped\": {}, \
                 \"bursts\": {}, \"suspensions\": {}, \"throttled\": {}}}{}\n",
                num(c.severity),
                num(c.accuracy),
                c.regions,
                c.faults.dropped,
                c.faults.duplicated,
                c.faults.clipped,
                c.faults.bursts,
                c.faults.suspensions,
                c.faults.throttled,
                if j + 1 < cells.len() { "," } else { "" }
            ));
        }
        out.push_str(&format!("    ]}}{}\n", if i + 1 < results.len() { "," } else { "" }));
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() -> Result<(), EmoleakError> {
    let corpus = CorpusSpec::tess().with_clips_per_cell(clips_per_cell()?.min(12));
    let random_guess = corpus.random_guess();
    let budget =
        banner("Robustness sweep: accuracy vs fault severity (TESS / OnePlus 7T)", &[&corpus])?;
    let severities = [0.0, 0.5, 1.0, 2.0, 4.0, 8.0];
    let device = DeviceProfile::oneplus_7t();

    // Every (axis, severity) cell is an independent campaign: flatten the
    // grid and run all cells in parallel. Each campaign is fully seeded, so
    // the sweep is bit-identical at any EMOLEAK_THREADS.
    let axes = axes();
    let grid: Vec<(usize, f64)> = (0..axes.len())
        .flat_map(|ai| severities.iter().map(move |&s| (ai, s)))
        .collect();
    let cells = run_campaign(
        "robustness_sweep",
        &budget,
        &[
            &format!("severities={severities:?}"),
            &axes.iter().map(|a| a.name).collect::<Vec<_>>().join(","),
        ],
        grid.len(),
        encode_cell,
        decode_cell,
        |range| {
            emoleak_exec::par_map_indexed(&grid[range], |_, &(ai, severity)| {
                let scenario = AttackScenario::table_top(corpus.clone(), device.clone())
                    .with_faults(axes[ai].base.clone().with_severity(severity));
                let h = scenario.harvest()?;
                // 5-fold CV: a single 80/20 split on a small faulted campaign
                // is noisy enough to hide the decay trend. A campaign degraded
                // below trainability is the fault winning, not an error: it
                // scores as random guessing.
                let accuracy = match evaluate_features(
                    &h.features,
                    ClassifierKind::Logistic,
                    Protocol::KFold(5),
                    0x5EED,
                ) {
                    Ok(eval) => eval.accuracy,
                    Err(EmoleakError::DegenerateDataset(_)) => random_guess,
                    Err(e) => return Err(e),
                };
                Ok(Cell { severity, accuracy, regions: h.features.len(), faults: h.faults })
            })
            .into_iter()
            .collect()
        },
    )?;
    let mut results: Vec<(String, Vec<Cell>)> = Vec::new();
    let mut cells = cells.into_iter();
    for axis in &axes {
        let row: Vec<Cell> = cells.by_ref().take(severities.len()).collect();
        results.push((axis.name.to_string(), row));
    }

    // Text degradation table: one row per axis, one column per severity.
    print!("{:<12}", "axis");
    for s in severities {
        print!(" {:>8}", format!("s={s}"));
    }
    println!();
    println!("{}", "-".repeat(12 + severities.len() * 9));
    for (name, cells) in &results {
        print!("{name:<12}");
        for c in cells {
            print!(" {:>7.1}%", c.accuracy * 100.0);
        }
        println!();
        // Coverage row: power-management faults (doze, throttling) mostly
        // cost *regions*, not per-region accuracy.
        print!("{:<12}", "  regions");
        for c in cells {
            print!(" {:>8}", c.regions);
        }
        println!();
    }
    println!("(random guess {:.1}%; accuracy at high severity should fall toward it)", random_guess * 100.0);
    for (name, cells) in &results {
        let f = &cells.last().expect("severities is non-empty").faults;
        println!("  {name:<12} faults at s=4: {f}");
    }

    let json = render_json(random_guess, &severities, &results);
    let path = std::env::var("EMOLEAK_SWEEP_JSON")
        .unwrap_or_else(|_| "robustness_sweep.json".to_string());
    // Atomic write: an interrupt leaves either the previous sweep's JSON or
    // this one, never a torn file.
    match write_result(std::path::Path::new(&path), json.as_bytes()) {
        Ok(()) => println!("\nwrote {path}"),
        Err(e) => println!("\ncould not write {path} ({e}); JSON follows:\n{json}"),
    }
    Ok(())
}
