//! The repository benchmark: one workload per run, driven through the
//! public APIs of `fleet`, `admission`, `stream`, `durable`,
//! `core::online`, `features` and `ml`. Every number is taken by this
//! binary around its own calls into those layers.
//!
//! ```text
//! emoleak-perfbench --workload <call_cnn|clip_classical|fleet_chunks>
//!     --seed <n> --seconds <s> --trace <0|1> --journal-dir <dir> --spans <file> [--tiny]
//! ```
//!
//! `--journal-dir` holds every journal the run writes; put it on a
//! memory-backed filesystem so disk latency does not enter the figures.
//! The last stdout line is `REPORT <json>`: metrics with units and sample
//! counts, exact counts and digests, and every failed check.

mod fleet;
mod measure;
mod sessions;

use std::path::PathBuf;

/// The tenants sessions and chunks are offered for, in turn.
pub const TENANTS: [&str; 6] = ["amber", "brook", "coral", "dune", "ember", "fjord"];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub journal_dir: PathBuf,
    pub spans: PathBuf,
    /// A run small enough for the self-test: shortest schedule, one set-up.
    pub tiny: bool,
}

fn parse() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut dir, mut spans, mut tiny) =
        (None, None, None, None, None, None, false);
    while let Some(flag) = it.next() {
        if flag == "--tiny" {
            tiny = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| bad("an unsigned integer"))?,
                )
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|_| bad("a number of seconds"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad("a positive number of seconds"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            "--journal-dir" => dir = Some(PathBuf::from(value)),
            "--spans" => spans = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        journal_dir: dir.ok_or("--journal-dir is required")?,
        spans: spans.ok_or("--spans is required")?,
        tiny,
    })
}

fn main() {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("emoleak-perfbench: {e}");
            std::process::exit(2);
        }
    };
    if args.tiny {
        // The self-test checks plumbing and determinism, not model quality:
        // one training epoch keeps its CNN set-up short.
        std::env::set_var("EMOLEAK_EPOCHS", "1");
    }
    if let Err(e) = std::fs::create_dir_all(&args.journal_dir) {
        eprintln!("emoleak-perfbench: {}: {e}", args.journal_dir.display());
        std::process::exit(2);
    }
    let mut report = measure::Report::default();
    let outcome = match args.workload.as_str() {
        "call_cnn" => sessions::run(&sessions::CALL_CNN, &args, &mut report),
        "clip_classical" => sessions::run(&sessions::CLIP_CLASSICAL, &args, &mut report),
        "fleet_chunks" => fleet::run(&args, &mut report),
        other => Err(format!("unknown workload {other}")),
    };
    if let Err(e) = outcome {
        eprintln!("emoleak-perfbench: {}: {e}", args.workload);
        std::process::exit(1);
    }
    report.print();
    println!("REPORT {}", report.to_json());
}
