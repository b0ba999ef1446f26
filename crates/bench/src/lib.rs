//! # emoleak-bench
//!
//! The benchmark harness that regenerates every table and figure of the
//! EmoLeak paper: the `paper` binary runs the report registry in [`paper`],
//! the chaos and bench binaries in `src/bin/` drive the serving substrate,
//! and Criterion benches measure pipeline-stage throughput (see `benches/`).
//!
//! ## Scale knobs (environment variables)
//!
//! | Variable | Default | Meaning |
//! |---|---|---|
//! | `EMOLEAK_CLIPS` | 20 | clips per (speaker, emotion) cell per campaign |
//! | `EMOLEAK_EPOCHS` | 40 | CNN training epochs |
//! | `EMOLEAK_MAX_IMAGES` | 600 | spectrogram images per CNN evaluation |
//! | `EMOLEAK_CNN_DIV` | 4 | CNN channel-width divisor (1 = paper-exact) |
//! | `EMOLEAK_THREADS` | all cores | worker threads (`emoleak-exec`); any value produces bit-identical tables |
//! | `EMOLEAK_CHECKPOINT_DIR` | unset | checkpoint campaigns here; a killed run resumes from its cursor |
//! | `EMOLEAK_RESULTS_DIR` | `results` | where reports are published |
//!
//! The defaults regenerate the committed `results/*.txt` byte for byte;
//! `EMOLEAK_CLIPS=200 EMOLEAK_CNN_DIV=1` reproduces the full-scale
//! campaign. Every banner states the [`Budget`] its report ran at. Every
//! experiment is deterministic **independent of `EMOLEAK_THREADS`**: parallel stages
//! draw from per-task RNG streams and combine results in task order, so a
//! 16-core run reproduces the single-core numbers exactly. The same
//! property makes resumption exact: with `EMOLEAK_CHECKPOINT_DIR` set, a
//! run killed mid-campaign restarts from its checkpoint cursor and produces
//! tables byte-identical to an uninterrupted run.

use emoleak_core::pipeline::{cnn_train_config, cnn_width_divisor, spectrogram_image_cap};
use emoleak_core::prelude::*;
use emoleak_core::{evaluate_feature_grid, ClassifierKind, Protocol};
use emoleak_durable::{
    run_resumable, CampaignError, CampaignSpec, Dec, Enc, RunOptions,
};
use std::fmt;
use std::path::{Path, PathBuf};

pub mod chaos;
pub mod paper;

/// Clips per (speaker, emotion) cell for this run (`EMOLEAK_CLIPS`,
/// default 20). Strict: a set-but-malformed value errors instead of
/// silently running the default campaign size.
///
/// # Errors
///
/// [`EmoleakError::Config`] when `EMOLEAK_CLIPS` is set but not a
/// positive integer.
pub fn clips_per_cell() -> Result<usize, EmoleakError> {
    Ok(emoleak_exec::parse_checked("EMOLEAK_CLIPS", "a positive integer", |&n: &usize| n > 0)?
        .unwrap_or(20))
}

/// Units between snapshot checkpoints. The write-ahead journal covers the
/// units since the last snapshot, so this trades snapshot I/O against
/// recovery replay length, never safety.
const SNAPSHOT_EVERY: usize = 4;

/// The budget a run used: the clips per cell each of its corpora really
/// used, and the CNN budget (`EMOLEAK_EPOCHS`, `EMOLEAK_MAX_IMAGES`,
/// `EMOLEAK_CNN_DIV`). Every banner prints it and every campaign
/// fingerprint hashes it, so a checkpoint resumes only under the budget
/// that its report states.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Budget(String);

impl Budget {
    /// Reads the CNN knobs for a run over `corpora`, whose clip counts
    /// render per corpus, in order.
    ///
    /// # Errors
    ///
    /// [`EmoleakError::Config`] when a CNN knob is set but malformed.
    pub fn of(corpora: &[&CorpusSpec]) -> Result<Self, EmoleakError> {
        let clips = corpora
            .iter()
            .map(|c| format!("{} {}", c.name(), c.clips_per_cell()))
            .collect::<Vec<_>>()
            .join(" / ");
        Ok(Budget(format!(
            "clips/cell = {clips}, epochs = {}, image cap = {}, CNN width divisor = {}",
            cnn_train_config()?.epochs,
            spectrogram_image_cap()?,
            cnn_width_divisor()?,
        )))
    }
}

impl fmt::Display for Budget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
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
/// under `<dir>/<id>/` (one directory serves every campaign) and a rerun
/// picks up from the recovered cursor — byte-identically, because units
/// derive their RNG streams from their index. The checkpoint's fingerprint
/// hashes `budget` and `parts` (seed, devices, grid), so a rerun under
/// another budget or grid recomputes.
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
    budget: &Budget,
    parts: &[&str],
    total: usize,
    encode: impl Fn(&T) -> Vec<u8>,
    decode: impl Fn(&[u8]) -> Option<T>,
    mut compute: impl FnMut(std::ops::Range<usize>) -> Result<Vec<T>, EmoleakError>,
) -> Result<Vec<T>, EmoleakError> {
    let dir = std::env::var_os("EMOLEAK_CHECKPOINT_DIR").map(|d| PathBuf::from(d).join(id));
    let fingerprint = campaign_fingerprint(&[&[budget.0.as_str()], parts].concat());
    let spec = CampaignSpec { id: id.to_string(), fingerprint, total };
    let opts = RunOptions {
        chunk: emoleak_exec::threads().max(1),
        snapshot_every: SNAPSHOT_EVERY,
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
    let kinds = [
        ClassifierKind::Logistic,
        ClassifierKind::MultiClass,
        ClassifierKind::Lmt,
        ClassifierKind::Cnn,
    ];
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
    let class_names = harvest.features.class_names().to_vec();
    let spec_acc = emoleak_core::evaluate_spectrograms(&harvest.spectrograms, &class_names, seed)
        .map(|(eval, _history)| eval.accuracy)
        .unwrap_or(f64::NAN);
    rows.push(("Spectrogram CNN".to_string(), spec_acc));
    Ok(rows)
}

/// Renders the banner block for a run over `corpora` (leading blank line,
/// title, then the run's [`Budget`] and the random guess: one figure when
/// every corpus shares it, else each corpus's, in order), and returns the
/// budget it states.
fn banner_text(title: &str, corpora: &[&CorpusSpec]) -> Result<(String, Budget), EmoleakError> {
    let budget = Budget::of(corpora)?;
    let guesses: Vec<String> =
        corpora.iter().map(|c| format!("{:.2}%", c.random_guess() * 100.0)).collect();
    let first = guesses.first().expect("a run covers at least one corpus");
    let random_guess = if guesses.iter().all(|g| g == first) {
        first.clone()
    } else {
        let named = corpora.iter().zip(&guesses).map(|(c, g)| format!("{} {g}", c.name()));
        named.collect::<Vec<_>>().join(" / ")
    };
    let text = format!("\n{title}\n({budget}, random guess = {random_guess})\n");
    Ok((text, budget))
}

/// Prints the banner for a run over `corpora` (see [`Report::banner`]) and
/// returns the budget it states.
///
/// # Errors
///
/// [`EmoleakError::Config`] when a CNN knob is set but malformed.
pub fn banner(title: &str, corpora: &[&CorpusSpec]) -> Result<Budget, EmoleakError> {
    let (text, budget) = banner_text(title, corpora)?;
    print!("{text}");
    Ok(budget)
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

    /// The artifact's name, without the `.txt`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Mirrors the standard experiment banner for a run over `corpora`: the
    /// title, the run's [`Budget`] and the random guess (one figure when
    /// every corpus shares it, else each corpus's, in order).
    /// Returns the budget, which the run's campaigns hash.
    ///
    /// # Errors
    ///
    /// [`EmoleakError::Config`] when a CNN knob is set but malformed.
    pub fn banner(&mut self, title: &str, corpora: &[&CorpusSpec]) -> Result<Budget, EmoleakError> {
        let (text, budget) = banner_text(title, corpora)?;
        self.block(text);
        Ok(budget)
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

    #[test]
    fn env_knob_defaults() {
        // Not set in the test environment.
        assert!(clips_per_cell().unwrap() >= 1);
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
        let budget = Budget::of(&[&CorpusSpec::tess()]).unwrap();
        let got = run_campaign(
            "lib-test-plain",
            &budget,
            &[],
            3,
            |v: &u64| v.to_le_bytes().to_vec(),
            |b| Some(u64::from_le_bytes(b.try_into().ok()?)),
            |range| Ok(range.map(|i| i as u64 * 10).collect()),
        )
        .unwrap();
        assert_eq!(got, vec![0, 10, 20]);
    }

    #[test]
    fn run_campaign_resumes_only_under_the_same_budget() {
        let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let dir = std::env::temp_dir()
            .join(format!("emoleak-bench-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::env::set_var("EMOLEAK_CHECKPOINT_DIR", &dir);
        let prior = std::env::var("EMOLEAK_EPOCHS");
        let corpus = CorpusSpec::savee().with_clips_per_cell(3);
        // One run of a four-unit campaign at `epochs`: its units, and how
        // many of them it computed rather than restored.
        let run = |epochs: &str| {
            std::env::set_var("EMOLEAK_EPOCHS", epochs);
            let budget = Budget::of(&[&corpus]).unwrap();
            let mut computed = 0usize;
            let units = run_campaign(
                "lib-test-resume",
                &budget,
                &["seed=7"],
                4,
                |v: &u64| v.to_le_bytes().to_vec(),
                |b| Some(u64::from_le_bytes(b.try_into().ok()?)),
                |range| {
                    computed += range.len();
                    Ok(range.map(|i| i as u64 + 100).collect::<Vec<_>>())
                },
            )
            .unwrap();
            (units, computed)
        };
        let units = vec![100, 101, 102, 103];
        assert_eq!(run("1"), (units.clone(), 4));
        assert_eq!(run("1"), (units.clone(), 0), "a completed campaign must not recompute");
        assert_eq!(run("6"), (units, 4), "a checkpoint from another epoch count must not resume");

        match prior {
            Ok(v) => std::env::set_var("EMOLEAK_EPOCHS", v),
            Err(_) => std::env::remove_var("EMOLEAK_EPOCHS"),
        }
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
    fn banner_states_each_corpus_random_guess_only_when_they_disagree() {
        let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let (savee, tess) = (CorpusSpec::savee(), CorpusSpec::tess());
        let crema = CorpusSpec::crema_d();
        let guess = |corpora: &[&CorpusSpec]| {
            let (text, _) = banner_text("T", corpora).unwrap();
            text.split("random guess = ").nth(1).unwrap().trim_end_matches(")\n").to_string()
        };
        assert_eq!(guess(&[&savee, &tess]), "14.29%");
        assert_eq!(
            guess(&[&savee, &tess, &crema]),
            "SAVEE 14.29% / TESS 14.29% / CREMA-D 16.67%"
        );
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
