//! # emoleak-bench
//!
//! The benchmark harness that regenerates every table and figure of the
//! EmoLeak paper. One binary per experiment (see `src/bin/`), plus Criterion
//! benches for pipeline-stage throughput (see `benches/`).
//!
//! ## Scale knobs (environment variables)
//!
//! | Variable | Default | Meaning |
//! |---|---|---|
//! | `EMOLEAK_CLIPS` | 40 | clips per (speaker, emotion) cell per campaign |
//! | `EMOLEAK_EPOCHS` | 25 | CNN training epochs |
//! | `EMOLEAK_CNN_DIV` | 4 | CNN channel-width divisor (1 = paper-exact) |
//! | `EMOLEAK_SKIP_CNN` | unset | skip the CNN rows entirely (quick runs) |
//! | `EMOLEAK_THREADS` | all cores | worker threads (`emoleak-exec`); any value produces bit-identical tables |
//! | `EMOLEAK_CHECKPOINT_DIR` | unset | checkpoint campaigns here; a killed run resumes from its cursor |
//! | `EMOLEAK_SNAPSHOT_EVERY` | 4 | units between snapshot checkpoints (journal covers the gap) |
//!
//! The defaults complete on a single core in minutes; `EMOLEAK_CLIPS=200
//! EMOLEAK_CNN_DIV=1` reproduces the full-scale campaign. Every experiment
//! is deterministic **independent of `EMOLEAK_THREADS`**: parallel stages
//! draw from per-task RNG streams and combine results in task order, so a
//! 16-core run reproduces the single-core numbers exactly. The same
//! property makes resumption exact: with `EMOLEAK_CHECKPOINT_DIR` set, a
//! run killed mid-campaign restarts from its checkpoint cursor and produces
//! tables byte-identical to an uninterrupted run.

use emoleak_core::prelude::*;
use emoleak_core::{evaluate_feature_grid, evaluate_features, ClassifierKind, Protocol};
use emoleak_durable::{
    run_resumable, CampaignError, CampaignSpec, Dec, Enc, RunOptions,
};
use std::path::{Path, PathBuf};

pub mod chaos;

/// Clips per (speaker, emotion) cell for this run (`EMOLEAK_CLIPS`,
/// default 40). Strict: a set-but-malformed value errors instead of
/// silently running the default campaign size.
///
/// # Errors
///
/// [`EmoleakError::Config`] when `EMOLEAK_CLIPS` is set but not a
/// positive integer.
pub fn clips_per_cell() -> Result<usize, EmoleakError> {
    Ok(emoleak_exec::parse_checked("EMOLEAK_CLIPS", "a positive integer", |&n: &usize| n > 0)?
        .unwrap_or(40))
}

/// Whether CNN rows should be skipped (`EMOLEAK_SKIP_CNN`).
pub fn skip_cnn() -> bool {
    std::env::var("EMOLEAK_SKIP_CNN").is_ok()
}

/// Where campaigns checkpoint (`EMOLEAK_CHECKPOINT_DIR`); `None` disables
/// durability. Each campaign uses its own subdirectory, so one directory
/// serves every bench bin.
pub fn checkpoint_dir() -> Option<PathBuf> {
    std::env::var_os("EMOLEAK_CHECKPOINT_DIR").map(PathBuf::from)
}

/// Units between snapshot checkpoints (`EMOLEAK_SNAPSHOT_EVERY`, default 4).
/// The write-ahead journal covers the units since the last snapshot, so
/// this trades snapshot I/O against recovery replay length, never safety.
///
/// # Errors
///
/// [`EmoleakError::Config`] when `EMOLEAK_SNAPSHOT_EVERY` is set but not a
/// positive integer.
pub fn snapshot_every() -> Result<usize, EmoleakError> {
    Ok(emoleak_exec::parse_checked(
        "EMOLEAK_SNAPSHOT_EVERY",
        "a positive integer",
        |&n: &usize| n > 0,
    )?
    .unwrap_or(4))
}

/// Fingerprints everything that shapes a campaign's unit results (FNV-1a
/// over the rendered parts). Resuming under a different configuration
/// discards the checkpoint instead of splicing incompatible results.
pub fn campaign_fingerprint(parts: &[&str]) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for part in parts {
        for byte in part.bytes().chain([0xFF]) {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    hash
}

/// Runs (or resumes) a campaign of `total` typed units through the
/// durability layer. With `EMOLEAK_CHECKPOINT_DIR` unset this is just
/// `compute(0..total)`; with it set, each completed unit is journaled
/// under `<dir>/<id>/` and a rerun picks up from the recovered cursor —
/// byte-identically, because units derive their RNG streams from their
/// index.
///
/// `encode`/`decode` serialize one unit payload; `compute` must return one
/// value per index in its range.
///
/// # Errors
///
/// Propagates `compute` failures; durability failures surface as
/// [`EmoleakError::Durable`].
pub fn run_campaign<T>(
    id: &str,
    fingerprint: u64,
    total: usize,
    encode: impl Fn(&T) -> Vec<u8>,
    decode: impl Fn(&[u8]) -> Option<T>,
    mut compute: impl FnMut(std::ops::Range<usize>) -> Result<Vec<T>, EmoleakError>,
) -> Result<Vec<T>, EmoleakError> {
    let dir = checkpoint_dir().map(|d| d.join(id));
    let spec = CampaignSpec { id: id.to_string(), fingerprint, total };
    let opts = RunOptions {
        chunk: emoleak_exec::threads().max(1),
        snapshot_every: snapshot_every()?,
        crash: None,
    };
    let outcome = run_resumable(dir.as_deref(), &spec, &opts, &mut |range| {
        compute(range).map(|units| units.iter().map(&encode).collect())
    })
    .map_err(|e| match e {
        CampaignError::App(app) => app,
        CampaignError::Durable(d) => EmoleakError::Durable(d.to_string()),
    })?;
    for defect in &outcome.defects {
        eprintln!("[{id}] checkpoint recovery: {defect}");
    }
    if outcome.resumed_units > 0 {
        eprintln!(
            "[{id}] resumed from checkpoint: {}/{} unit(s) restored",
            outcome.resumed_units, total
        );
    }
    outcome
        .payloads
        .iter()
        .map(|payload| {
            decode(payload).ok_or_else(|| {
                EmoleakError::Durable(format!(
                    "campaign {id}: checkpointed unit payload does not decode"
                ))
            })
        })
        .collect()
}

/// Encodes a named table column (classifier name, accuracy) for
/// checkpointing. Accuracies round-trip as raw `f64` bits — exactly.
pub fn encode_column(rows: &Vec<(String, f64)>) -> Vec<u8> {
    let mut enc = Enc::new();
    enc.u64(rows.len() as u64);
    for (name, acc) in rows {
        enc.str(name).f64(*acc);
    }
    enc.into_bytes()
}

/// Decodes a column encoded by [`encode_column`].
pub fn decode_column(bytes: &[u8]) -> Option<Vec<(String, f64)>> {
    let mut dec = Dec::new(bytes);
    let n = dec.u64().ok()?;
    let mut rows = Vec::new();
    for _ in 0..n {
        let name = dec.str().ok()?;
        let acc = dec.f64().ok()?;
        rows.push((name, acc));
    }
    dec.finish().ok()?;
    Some(rows)
}

/// Atomically writes a result artifact (temp file + fsync + rename via
/// `emoleak-durable`), creating parent directories first. An interrupt
/// can no longer leave a torn `results/*` file.
///
/// # Errors
///
/// [`EmoleakError::Durable`] when the directory or file cannot be written.
pub fn write_result(path: &Path, contents: &[u8]) -> Result<(), EmoleakError> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent).map_err(|e| {
            EmoleakError::Durable(format!("mkdir {}: {e}", parent.display()))
        })?;
    }
    emoleak_durable::write_atomic(path, contents)
        .map_err(|e| EmoleakError::Durable(e.to_string()))
}

/// Runs one classifier on a harvested campaign under the standard protocol
/// (80/20 holdout, as in the loudspeaker tables).
///
/// A dataset too degenerate to evaluate scores as `NaN` (rendered as a
/// missing table cell), matching the `EMOLEAK_SKIP_CNN` convention.
pub fn classifier_accuracy(
    harvest: &emoleak_core::HarvestResult,
    kind: ClassifierKind,
    seed: u64,
) -> f64 {
    evaluate_features(&harvest.features, kind, Protocol::Holdout8020, seed)
        .map(|eval| eval.accuracy)
        .unwrap_or(f64::NAN)
}

/// Builds a full table column (one accuracy per classifier) for a scenario.
///
/// The classifier set mirrors the paper's table (time–frequency features ×
/// {Logistic, MultiClassClassifier, trees.LMT, CNN} for loudspeaker tables).
///
/// # Errors
///
/// Propagates harvest failures ([`emoleak_core::EmoleakError`]); degenerate
/// *evaluations* degrade to `NaN` cells instead.
pub fn loudspeaker_column(
    scenario: &AttackScenario,
    seed: u64,
) -> Result<Vec<(String, f64)>, EmoleakError> {
    let harvest = scenario.harvest()?;
    let mut kinds = vec![
        ClassifierKind::Logistic,
        ClassifierKind::MultiClass,
        ClassifierKind::Lmt,
    ];
    if !skip_cnn() {
        kinds.push(ClassifierKind::Cnn);
    }
    // All classifiers of the column train in parallel on the same harvest;
    // the grid returns results in `kinds` order.
    let mut rows: Vec<(String, f64)> =
        evaluate_feature_grid(&harvest.features, &kinds, Protocol::Holdout8020, seed)
            .into_iter()
            .map(|(kind, result)| {
                (
                    kind.display_name().to_string(),
                    result.map(|eval| eval.accuracy).unwrap_or(f64::NAN),
                )
            })
            .collect();
    if skip_cnn() {
        rows.push(("CNN".to_string(), f64::NAN));
        rows.push(("Spectrogram CNN".to_string(), f64::NAN));
    } else {
        let class_names = harvest.features.class_names().to_vec();
        let spec_acc =
            emoleak_core::evaluate_spectrograms(&harvest.spectrograms, &class_names, seed)
                .map(|(eval, _history)| eval.accuracy)
                .unwrap_or(f64::NAN);
        rows.push(("Spectrogram CNN".to_string(), spec_acc));
    }
    Ok(rows)
}

/// Renders the banner block for experiment binaries (leading blank line,
/// title, scale-knob summary), without printing it.
pub fn banner_text(title: &str, random_guess: f64) -> String {
    format!(
        "\n{title}\n(clips/cell = {}, CNN width divisor = {}, random guess = {:.2}%)\n",
        clips_per_cell().map_or_else(|e| format!("invalid ({e})"), |n| n.to_string()),
        emoleak_core::pipeline::cnn_width_divisor()
            .map_or_else(|e| format!("invalid ({e})"), |d| d.to_string()),
        random_guess * 100.0
    )
}

/// Prints a banner line for experiment binaries.
pub fn banner(title: &str, random_guess: f64) {
    print!("{}", banner_text(title, random_guess));
}

/// Directory for published artifacts (`EMOLEAK_RESULTS_DIR`, default
/// `results/`).
pub fn results_dir() -> PathBuf {
    std::env::var_os("EMOLEAK_RESULTS_DIR")
        .map_or_else(|| PathBuf::from("results"), PathBuf::from)
}

/// Accumulates an experiment's rendered output, mirroring every piece to
/// stdout, then publishes the whole artifact **atomically** to
/// `results/<name>.txt` (see [`results_dir`]). This replaces the old
/// shell-redirection workflow (`bin > results/name.txt`), which left a
/// torn artifact whenever a run was interrupted mid-write.
pub struct Report {
    name: String,
    buf: String,
}

impl Report {
    /// Starts an artifact named `<name>.txt`.
    pub fn new(name: &str) -> Self {
        Report { name: name.to_string(), buf: String::new() }
    }

    /// Mirrors the standard experiment banner (see [`banner`]).
    pub fn banner(&mut self, title: &str, random_guess: f64) {
        self.block(banner_text(title, random_guess));
    }

    /// Mirrors one line (a trailing newline is added).
    pub fn line(&mut self, text: impl AsRef<str>) {
        println!("{}", text.as_ref());
        self.buf.push_str(text.as_ref());
        self.buf.push('\n');
    }

    /// Mirrors a pre-rendered block verbatim (no newline added).
    pub fn block(&mut self, text: impl AsRef<str>) {
        print!("{}", text.as_ref());
        self.buf.push_str(text.as_ref());
    }

    /// Writes the accumulated artifact atomically and returns its path.
    ///
    /// # Errors
    ///
    /// [`EmoleakError::Durable`] when the artifact cannot be written.
    pub fn publish(self) -> Result<PathBuf, EmoleakError> {
        let path = results_dir().join(format!("{}.txt", self.name));
        write_result(&path, self.buf.as_bytes())?;
        eprintln!("[{}] artifact published to {}", self.name, path.display());
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emoleak_phone::DeviceProfile;
    use emoleak_synth::CorpusSpec;

    #[test]
    fn classifier_accuracy_runs_on_tiny_campaign() {
        let scenario = AttackScenario::table_top(
            CorpusSpec::tess().with_clips_per_cell(4),
            DeviceProfile::oneplus_7t(),
        );
        let harvest = scenario.harvest().unwrap();
        let acc = classifier_accuracy(&harvest, ClassifierKind::Logistic, 1);
        assert!((0.0..=1.0).contains(&acc));
    }

    #[test]
    fn env_knob_defaults() {
        // Not set in the test environment.
        assert!(clips_per_cell().unwrap() >= 1);
        assert!(snapshot_every().unwrap() >= 1);
    }

    /// Serializes the env-mutating tests in this binary.
    static ENV_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn column_round_trips_exactly() {
        let rows = vec![
            ("Logistic".to_string(), 0.8125),
            ("CNN".to_string(), f64::NAN),
            ("LMT".to_string(), -0.0),
        ];
        let back = decode_column(&encode_column(&rows)).unwrap();
        assert_eq!(back.len(), rows.len());
        for ((n1, a1), (n2, a2)) in rows.iter().zip(&back) {
            assert_eq!(n1, n2);
            assert_eq!(a1.to_bits(), a2.to_bits(), "bit-exact, NaN included");
        }
        assert!(decode_column(b"garbage").is_none());
    }

    #[test]
    fn fingerprint_separates_configurations() {
        let a = campaign_fingerprint(&["table5", "seed=0x7E55", "clips=40"]);
        let b = campaign_fingerprint(&["table5", "seed=0x7E55", "clips=41"]);
        assert_ne!(a, b);
        // Part boundaries matter: ["ab","c"] != ["a","bc"].
        assert_ne!(campaign_fingerprint(&["ab", "c"]), campaign_fingerprint(&["a", "bc"]));
        assert_eq!(a, campaign_fingerprint(&["table5", "seed=0x7E55", "clips=40"]));
    }

    #[test]
    fn run_campaign_without_checkpoint_dir_computes_everything() {
        let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        std::env::remove_var("EMOLEAK_CHECKPOINT_DIR");
        let got = run_campaign(
            "lib-test-plain",
            1,
            3,
            |v: &u64| v.to_le_bytes().to_vec(),
            |b| Some(u64::from_le_bytes(b.try_into().ok()?)),
            |range| Ok(range.map(|i| i as u64 * 10).collect()),
        )
        .unwrap();
        assert_eq!(got, vec![0, 10, 20]);
    }

    #[test]
    fn run_campaign_resumes_from_checkpoint_dir() {
        let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let dir = std::env::temp_dir()
            .join(format!("emoleak-bench-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::env::set_var("EMOLEAK_CHECKPOINT_DIR", &dir);
        let encode = |v: &u64| v.to_le_bytes().to_vec();
        let decode = |b: &[u8]| Some(u64::from_le_bytes(b.try_into().ok()?));

        let mut first_ran = 0usize;
        let a = run_campaign("lib-test-resume", 7, 4, encode, decode, |range| {
            first_ran += range.len();
            Ok(range.map(|i| i as u64 + 100).collect())
        })
        .unwrap();
        assert_eq!(first_ran, 4);

        let mut second_ran = 0usize;
        let b = run_campaign("lib-test-resume", 7, 4, encode, decode, |range| {
            second_ran += range.len();
            Ok(range.map(|i| i as u64 + 100).collect())
        })
        .unwrap();
        assert_eq!(second_ran, 0, "completed campaign must not recompute");
        assert_eq!(a, b);

        std::env::remove_var("EMOLEAK_CHECKPOINT_DIR");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn report_publishes_the_mirrored_artifact_atomically() {
        let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let dir = std::env::temp_dir()
            .join(format!("emoleak-bench-report-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::env::set_var("EMOLEAK_RESULTS_DIR", &dir);
        let mut report = Report::new("unit");
        report.line("header");
        report.block("cell-a cell-b\n");
        report.line(format!("acc {:.2}%", 86.304));
        let path = report.publish().unwrap();
        std::env::remove_var("EMOLEAK_RESULTS_DIR");
        assert_eq!(path, dir.join("unit.txt"));
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            "header\ncell-a cell-b\nacc 86.30%\n"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn chaos_reports_land_in_the_results_dir() {
        let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let dir = std::env::temp_dir()
            .join(format!("emoleak-bench-chaos-report-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::env::set_var("EMOLEAK_RESULTS_DIR", &dir);
        let path = chaos::publish("unit_chaos.json", "{}\n");
        std::env::remove_var("EMOLEAK_RESULTS_DIR");
        assert_eq!(path, dir.join("unit_chaos.json"));
        assert_eq!(std::fs::read_to_string(dir.join("unit_chaos.json")).unwrap(), "{}\n");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_result_creates_parents_and_replaces_atomically() {
        let dir = std::env::temp_dir()
            .join(format!("emoleak-bench-write-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("results").join("out.json");
        write_result(&path, b"{\"a\":1}").unwrap();
        write_result(&path, b"{\"a\":2}").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"{\"a\":2}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
