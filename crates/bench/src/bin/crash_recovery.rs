//! Kill-and-resume chaos harness for the durability layer.
//!
//! Runs a real (small) fault-sweep campaign — TESS through the vibration
//! channel, 2 fault axes × 3 severities — under `emoleak-durable`
//! checkpointing, then attacks it:
//!
//! 1. **Seeded kill points**: the campaign is killed at N randomized
//!    durable operations (including mid-journal-append, with a random
//!    fraction of the record's bytes on disk, and between an atomic
//!    write's fsync and its rename), then resumed. The resumed run's
//!    payloads and rendered JSON must be **byte-identical** to an
//!    uninterrupted run.
//! 2. **Corruption injections**: journal truncation, journal bit flips,
//!    snapshot bit flips, a stale manifest, and a future-version header.
//!    Every one must be detected via checksum/version (typed
//!    `DurableError`/`Defect`, never a panic) and recovered from the
//!    last valid state — again byte-identically.
//!
//! Knobs: `EMOLEAK_CRASH_KILLS` (randomized kill points, default 6),
//! `EMOLEAK_CRASH_SEED` (kill-point RNG, default 0xC4A5). The report is
//! `crash_recovery.json` under `EMOLEAK_RESULTS_DIR` (default `results/`).

use emoleak_bench::campaign_fingerprint;
use emoleak_bench::chaos::{self, Json};
use emoleak_core::prelude::*;
use emoleak_core::{evaluate_features, ClassifierKind, Protocol};
use emoleak_durable::{
    journal_path, manifest_path, run_resumable, CampaignError, CampaignSpec, CrashPlan, Dec, Enc,
    Outcome, RunOptions, JOURNAL_MAGIC, JOURNAL_VERSION,
};
use emoleak_phone::FaultProfile;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};

const SEED: u64 = 0x0C4A;
const SEVERITIES: [f64; 3] = [0.0, 1.0, 4.0];

/// One fault axis of the chaos campaign (a slice of the robustness sweep).
fn axes() -> Vec<(&'static str, FaultProfile)> {
    vec![
        (
            "delivery",
            FaultProfile {
                drop_rate: 0.10,
                dup_rate: 0.03,
                jitter_std_s: 1.0e-3,
                ..FaultProfile::clean()
            },
        ),
        (
            "motion",
            FaultProfile {
                burst_rate_hz: 1.8,
                burst_amp: 0.12,
                burst_duration_s: 0.12,
                ..FaultProfile::clean()
            },
        ),
    ]
}

fn clips() -> Result<usize, EmoleakError> {
    Ok(emoleak_exec::parse_checked("EMOLEAK_CLIPS", "a positive integer", |&n: &usize| n > 0)?
        .unwrap_or(2)
        .min(4))
}

/// Computes units `range` of the campaign grid: one payload per
/// (axis, severity) cell, holding severity, accuracy, and region count as
/// raw bits.
fn compute_units(
    grid: &[(usize, f64)],
    range: std::ops::Range<usize>,
) -> Result<Vec<Vec<u8>>, EmoleakError> {
    let corpus = CorpusSpec::tess().with_clips_per_cell(clips()?);
    let random_guess = corpus.random_guess();
    let axes = axes();
    emoleak_exec::par_map_indexed(&grid[range], |_, &(ai, severity)| {
        let scenario =
            AttackScenario::table_top(corpus.clone(), DeviceProfile::oneplus_7t())
                .with_faults(axes[ai].1.clone().with_severity(severity));
        let h = scenario.harvest()?;
        let accuracy = match evaluate_features(
            &h.features,
            ClassifierKind::Logistic,
            Protocol::Holdout8020,
            SEED,
        ) {
            Ok(eval) => eval.accuracy,
            Err(EmoleakError::DegenerateDataset(_)) => random_guess,
            Err(e) => return Err(e),
        };
        let mut enc = Enc::new();
        enc.u64(ai as u64).f64(severity).f64(accuracy).u64(h.features.len() as u64);
        Ok(enc.into_bytes())
    })
    .into_iter()
    .collect()
}

/// Renders the campaign's final artifact from its unit payloads. The chaos
/// contract is on these bytes: clean vs killed-and-resumed must be equal.
fn render_json(payloads: &[Vec<u8>]) -> String {
    let axes = axes();
    let mut out = String::from("{\n  \"cells\": [\n");
    for (i, payload) in payloads.iter().enumerate() {
        let mut dec = Dec::new(payload);
        let ai = dec.u64().expect("own payload") as usize;
        let severity = dec.f64().expect("own payload");
        let accuracy = dec.f64().expect("own payload");
        let regions = dec.u64().expect("own payload");
        out.push_str(&format!(
            "    {{\"axis\": \"{}\", \"severity\": {}, \"accuracy\": {}, \"regions\": {}}}{}\n",
            axes[ai].0,
            Json::Num(severity, 6),
            Json::Num(accuracy, 6),
            regions,
            if i + 1 < payloads.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// One chaos trial's outcome for the report.
struct Trial {
    name: String,
    detail: String,
    defects: Vec<String>,
    ok: bool,
}

struct Harness {
    spec: CampaignSpec,
    grid: Vec<(usize, f64)>,
    clean_payloads: Vec<Vec<u8>>,
    clean_json: String,
    base: PathBuf,
    trials: Vec<Trial>,
}

impl Harness {
    fn opts(crash: Option<CrashPlan>) -> RunOptions {
        RunOptions { chunk: emoleak_exec::threads().max(1), snapshot_every: 2, crash }
    }

    fn run(&self, dir: Option<&Path>, crash: Option<CrashPlan>) -> Result<Outcome, String> {
        let grid = self.grid.clone();
        run_resumable(dir, &self.spec, &Self::opts(crash), &mut |range| {
            compute_units(&grid, range)
        })
        .map_err(|e| match e {
            CampaignError::App(a) => format!("compute failed: {a}"),
            CampaignError::Durable(d) => format!("durable: {d}"),
        })
    }

    fn scratch(&self, name: &str) -> PathBuf {
        let dir = self.base.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Kills the campaign at `at_op` (torn fraction `frac`), resumes until
    /// it completes, and checks byte-identity. Returns the trial.
    fn kill_trial(&self, name: &str, dir: &Path, at_op: u64, frac: f64) -> Trial {
        let mut defects = Vec::new();
        let err = match self.run(Some(dir), Some(CrashPlan::kill(at_op, frac))) {
            Err(e) => e,
            Ok(_) => {
                return Trial {
                    name: name.into(),
                    detail: format!("kill at op {at_op} never fired"),
                    defects,
                    ok: false,
                }
            }
        };
        if !err.contains("injected crash") {
            return Trial {
                name: name.into(),
                detail: format!("expected injected crash at op {at_op}, got: {err}"),
                defects,
                ok: false,
            };
        }
        self.resume_and_check(name, dir, format!("killed at op {at_op} (frac {frac:.2})"), &mut defects)
    }

    /// Resumes `dir` (up to 3 attempts) and verifies byte-identity with the
    /// clean run.
    fn resume_and_check(
        &self,
        name: &str,
        dir: &Path,
        detail: String,
        defects: &mut Vec<String>,
    ) -> Trial {
        for _attempt in 0..3 {
            match self.run(Some(dir), None) {
                Ok(outcome) => {
                    defects.extend(outcome.defects.iter().map(|d| d.to_string()));
                    let json = render_json(&outcome.payloads);
                    let ok = outcome.payloads == self.clean_payloads
                        && json == self.clean_json;
                    let detail = if ok {
                        format!("{detail}; resumed {} unit(s), byte-identical", outcome.resumed_units)
                    } else {
                        format!("{detail}; RESUMED RUN DIVERGED")
                    };
                    return Trial { name: name.into(), detail, defects: defects.clone(), ok };
                }
                Err(e) => defects.push(format!("resume attempt failed: {e}")),
            }
        }
        Trial {
            name: name.into(),
            detail: format!("{detail}; never completed after 3 resume attempts"),
            defects: defects.clone(),
            ok: false,
        }
    }
}

fn flip_byte(path: &Path, from_end: usize, mask: u8) {
    let mut bytes = std::fs::read(path).expect("corruption target exists");
    let idx = bytes.len().saturating_sub(from_end.min(bytes.len() - 1) + 1);
    bytes[idx] ^= mask;
    std::fs::write(path, &bytes).expect("write corrupted bytes");
}

fn newest_snapshot(dir: &Path) -> Option<PathBuf> {
    let mut snaps: Vec<(u64, PathBuf)> = std::fs::read_dir(dir)
        .ok()?
        .flatten()
        .filter_map(|e| {
            let name = e.file_name().into_string().ok()?;
            let seq: u64 = name.strip_prefix("snap-")?.strip_suffix(".bin")?.parse().ok()?;
            Some((seq, e.path()))
        })
        .collect();
    snaps.sort();
    snaps.pop().map(|(_, p)| p)
}

fn main() -> Result<(), EmoleakError> {
    let kills: u64 =
        emoleak_exec::parse_checked("EMOLEAK_CRASH_KILLS", "a kill count", |_| true)?.unwrap_or(6);
    let chaos_seed: u64 =
        emoleak_exec::parse_checked("EMOLEAK_CRASH_SEED", "a u64 seed", |_| true)?
            .unwrap_or(0xC4A5);
    println!("crash_recovery: kill-and-resume chaos over a checkpointed campaign");
    println!("(kills = {kills}, chaos seed = {chaos_seed:#x}, clips/cell = {})\n", clips()?);

    let grid: Vec<(usize, f64)> = (0..axes().len())
        .flat_map(|ai| SEVERITIES.iter().map(move |&s| (ai, s)))
        .collect();
    let spec = CampaignSpec {
        id: "crash_recovery".into(),
        fingerprint: campaign_fingerprint(&[
            &format!("seed={SEED:#x}"),
            &format!("clips={}", clips()?),
            &format!("severities={SEVERITIES:?}"),
        ]),
        total: grid.len(),
    };

    let base = std::env::temp_dir().join(format!("emoleak-crash-recovery-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);

    let mut harness = Harness {
        spec,
        grid,
        clean_payloads: Vec::new(),
        clean_json: String::new(),
        base,
        trials: Vec::new(),
    };

    // Baseline 1: the uninterrupted, durability-free run. Its payloads and
    // JSON are the identity target for every chaos trial.
    let clean = harness.run(None, None).map_err(EmoleakError::Durable)?;
    harness.clean_payloads = clean.payloads;
    harness.clean_json = render_json(&harness.clean_payloads);

    // Baseline 2: a durable dry run. Verifies checkpointing itself changes
    // nothing and measures the op count the kill points aim at.
    let dry_dir = harness.scratch("dry");
    let dry = harness.run(Some(&dry_dir), None).map_err(EmoleakError::Durable)?;
    let total_ops = dry.ops;
    {
        let ok = dry.payloads == harness.clean_payloads;
        harness.trials.push(Trial {
            name: "durable-dry-run".into(),
            detail: format!("{total_ops} durable op(s); checkpointed == clean: {ok}"),
            defects: Vec::new(),
            ok,
        });
    }

    // Seeded kill points, including mid-append tears and the snapshot /
    // manifest / journal-reset boundaries (ops 1..=total are uniform, so
    // rename-boundary kills are hit as soon as kills ≳ ops/3).
    let mut rng = rand::rngs::StdRng::seed_from_u64(chaos_seed);
    for k in 0..kills {
        let at_op = rng.gen_range(1..=total_ops);
        let frac: f64 = rng.gen_range(0.05..0.95);
        let name = format!("kill-{k}");
        let dir = harness.scratch(&name);
        let trial = harness.kill_trial(&name, &dir, at_op, frac);
        harness.trials.push(trial);
    }

    // A double kill: the resume itself is killed again before completing.
    if total_ops >= 2 {
        let dir = harness.scratch("double-kill");
        let first = harness.kill_trial("double-kill/first", &dir, total_ops / 2, 0.5);
        harness.trials.push(first);
        // Re-kill an almost-finished directory at its first remaining op.
        let trial = harness.kill_trial("double-kill/second", &dir, 1, 0.3);
        harness.trials.push(trial);
    }

    // An fsync failure the process *survives*: the first append's sync
    // "fails" (EIO from a dying disk), the journal latches and refuses the
    // run rather than silently continuing on an unknowable tail, and a
    // reopen re-verifies the tail and completes byte-identically.
    {
        let dir = harness.scratch("fsync-fail");
        let trial = match harness.run(Some(&dir), Some(CrashPlan::fsync_fail(1))) {
            Ok(_) => Trial {
                name: "fsync-fail".into(),
                detail: "fsync failure at op 1 never fired".into(),
                defects: Vec::new(),
                ok: false,
            },
            Err(err) => {
                let latched = err.contains("injected crash") && err.contains("latched");
                let mut defects = vec![format!("run refused: {err}")];
                let mut trial = harness.resume_and_check(
                    "fsync-fail",
                    &dir,
                    "fsync failed at op 1; journal latched, process survived".into(),
                    &mut defects,
                );
                trial.ok &= latched;
                trial
            }
        };
        harness.trials.push(trial);
    }

    // Corruption injections: each must surface a typed defect AND converge
    // to the clean bytes.
    {
        // Torn + externally truncated journal.
        let dir = harness.scratch("truncate-journal");
        let _ = harness.run(Some(&dir), Some(CrashPlan::kill(2, 0.6)));
        let journal = journal_path(&dir);
        let bytes = std::fs::read(&journal).expect("journal exists");
        std::fs::write(&journal, &bytes[..bytes.len().saturating_sub(3)]).expect("truncate");
        let mut defects = Vec::new();
        let mut trial = harness.resume_and_check(
            "truncate-journal",
            &dir,
            "journal truncated mid-record".into(),
            &mut defects,
        );
        trial.ok &= trial.defects.iter().any(|d| d.contains("torn journal tail"));
        harness.trials.push(trial);
    }
    {
        // Bit flip inside a committed journal record.
        let dir = harness.scratch("bitflip-journal");
        let _ = harness.run(Some(&dir), Some(CrashPlan::kill(2, 0.6)));
        flip_byte(&journal_path(&dir), 40, 0x20);
        let mut defects = Vec::new();
        let mut trial = harness.resume_and_check(
            "bitflip-journal",
            &dir,
            "bit flipped in journal record".into(),
            &mut defects,
        );
        trial.ok &= trial
            .defects
            .iter()
            .any(|d| d.contains("corrupt journal record") || d.contains("torn journal tail"));
        harness.trials.push(trial);
    }
    {
        // Bit flip inside the newest snapshot of a completed campaign.
        let dir = harness.scratch("bitflip-snapshot");
        harness.run(Some(&dir), None).map_err(EmoleakError::Durable)?;
        let snap = newest_snapshot(&dir).expect("completed campaign has snapshots");
        flip_byte(&snap, 10, 0x40);
        let mut defects = Vec::new();
        let mut trial = harness.resume_and_check(
            "bitflip-snapshot",
            &dir,
            "bit flipped in newest snapshot".into(),
            &mut defects,
        );
        trial.ok &= trial.defects.iter().any(|d| d.contains("stale manifest"));
        harness.trials.push(trial);
    }
    {
        // Manifest pointing at a snapshot that does not exist.
        let dir = harness.scratch("stale-manifest");
        harness.run(Some(&dir), None).map_err(EmoleakError::Durable)?;
        let mut payload = Enc::new();
        payload.u64(999);
        emoleak_durable::write_container(
            emoleak_durable::MANIFEST_MAGIC,
            emoleak_durable::MANIFEST_VERSION,
            &manifest_path(&dir),
            &payload.into_bytes(),
        )
        .map_err(|e| EmoleakError::Durable(e.to_string()))?;
        let mut defects = Vec::new();
        let mut trial = harness.resume_and_check(
            "stale-manifest",
            &dir,
            "manifest points at snapshot #999".into(),
            &mut defects,
        );
        trial.ok &= trial.defects.iter().any(|d| d.contains("stale manifest"));
        harness.trials.push(trial);
    }
    {
        // A journal from a future format version: typed fatal error, then a
        // fresh directory completes cleanly.
        let dir = harness.scratch("future-version");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let mut header = JOURNAL_MAGIC.to_vec();
        header.extend_from_slice(&(JOURNAL_VERSION + 1).to_le_bytes());
        std::fs::write(journal_path(&dir), &header).expect("write vnext header");
        let err = harness.run(Some(&dir), None).expect_err("future version must refuse");
        let typed = err.contains("version error");
        let mut defects = vec![format!("open refused: {err}")];
        std::fs::remove_dir_all(&dir).expect("clear damaged dir");
        let mut trial = harness.resume_and_check(
            "future-version",
            &dir,
            "v-next journal header refused with typed error".into(),
            &mut defects,
        );
        trial.ok &= typed;
        harness.trials.push(trial);
    }

    // Report.
    println!("{:<22} {:<6} detail", "trial", "ok");
    println!("{}", "-".repeat(78));
    let mut failed = 0;
    for t in &harness.trials {
        println!("{:<22} {:<6} {}", t.name, if t.ok { "ok" } else { "FAIL" }, t.detail);
        for d in &t.defects {
            println!("{:<22} {:<6}   defect: {d}", "", "");
        }
        if !t.ok {
            failed += 1;
        }
    }
    println!(
        "\n{} trial(s), {} failed; campaign = {} unit(s), {} durable op(s) per clean run",
        harness.trials.len(),
        failed,
        harness.spec.total,
        total_ops
    );

    let mut json = String::from("{\n");
    json.push_str(&format!("  \"kills\": {kills},\n  \"chaos_seed\": {chaos_seed},\n"));
    json.push_str(&format!("  \"total_ops\": {total_ops},\n  \"trials\": [\n"));
    for (i, t) in harness.trials.iter().enumerate() {
        let trial = Json::Obj(vec![
            ("name", t.name.as_str().into()),
            ("ok", t.ok.into()),
            ("detail", t.detail.as_str().into()),
            ("defects", Json::Arr(t.defects.iter().map(|d| d.as_str().into()).collect())),
        ]);
        let sep = if i + 1 < harness.trials.len() { "," } else { "" };
        json.push_str(&format!("    {trial}{sep}\n"));
    }
    json.push_str("  ]\n}\n");
    chaos::publish("crash_recovery.json", &json);

    let _ = std::fs::remove_dir_all(&harness.base);
    assert_eq!(failed, 0, "{failed} chaos trial(s) violated the durability contract");
    Ok(())
}
