//! The session workloads, `call_cnn` and `clip_classical`: one client
//! admits a session through `FleetService`, gives it a fresh
//! `DurableSink`, runs it through `StreamService` to completion, and only
//! then starts the next one (a closed loop).
//!
//! A call is any run of `call_windows` consecutive campaign windows. A run
//! serves whole cycles over every call, visiting them in a coprime-stride
//! order so that each tenth of the run samples the whole campaign: the work
//! of a run then barely depends on which windows one seed makes long or
//! short, and throughput can be taken as the median over ten slices of the
//! run, which a burst of host CPU steal in one slice does not move.

use crate::measure::{self, best_half, summarize, us, Digest, Part, Report, Trace};
use crate::{Args, TENANTS};
use emoleak_core::online::{extract_window, LabeledWindow, RegionFeatures};
use emoleak_core::prelude::*;
use emoleak_exec::derive_seed;
use emoleak_features::regions::RegionDetector;
use emoleak_features::spectrogram::SpectrogramGenerator;
use emoleak_fleet::{FleetConfig, FleetService};
use emoleak_stream::durable::{recover_run, DurableSink};
use emoleak_stream::{
    RegionEmission, ReplaySource, SampleSource, SourceChunk, SourceError, StreamConfig,
    StreamService,
};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

pub struct SessionSpec {
    pub name: &'static str,
    /// Handheld ear-speaker calls classified by the CNN rung, or table-top
    /// loudspeaker clips classified by the classical rung.
    pub cnn: bool,
    /// Corpus clips per (speaker, emotion) cell of the recorded campaign.
    pub clips_per_cell: usize,
    /// Consecutive campaign windows one session replays.
    pub call_windows: usize,
    /// Timed sessions per requested second, rounded to whole cycles over
    /// the calls; fixes the work of a run.
    pub sessions_per_second: f64,
    /// Set-up repetitions whose median is `setup_s`.
    pub setup_reps: usize,
}

pub const CALL_CNN: SessionSpec = SessionSpec {
    name: "call_cnn",
    cnn: true,
    clips_per_cell: 6,
    call_windows: 8,
    sessions_per_second: 48.0,
    setup_reps: 3,
};

pub const CLIP_CLASSICAL: SessionSpec = SessionSpec {
    name: "clip_classical",
    cnn: false,
    clips_per_cell: 10,
    call_windows: 1,
    sessions_per_second: 200.0,
    setup_reps: 5,
};

const CHUNK: usize = 256;
/// Spectrograms the CNN trains on: a fixed count, so training cost does
/// not follow how many regions a seed's campaign yields.
const TRAIN_IMAGES: usize = 32;
/// Windows per traced run replayed layer by layer.
const REPLAYED_WINDOWS: usize = 320;
/// Consecutive slices of the timed phase; the end-to-end figures come
/// from the best half of them (see `measure::best_half`).
const SLICES: usize = 10;

/// The rungs `ModelBundle::classify` is timed at in the traced run, best
/// first, with their span names.
const RUNGS: [(InferenceLevel, &str); 3] = [
    (InferenceLevel::Cnn, "ml.classify.cnn"),
    (InferenceLevel::CnnInt8, "ml.classify.cnn_int8"),
    (InferenceLevel::Classical, "ml.classify.classical"),
];

fn scenario(spec: &SessionSpec, seed: u64) -> AttackScenario {
    let corpus_seed = derive_seed(seed, 1);
    let channel_seed = derive_seed(seed, 2);
    let device = DeviceProfile::oneplus_7t();
    if spec.cnn {
        let corpus = CorpusSpec::savee().with_clips_per_cell(spec.clips_per_cell);
        AttackScenario::handheld(corpus.with_seed(corpus_seed), device)
    } else {
        let corpus = CorpusSpec::tess().with_clips_per_cell(spec.clips_per_cell);
        AttackScenario::table_top(corpus.with_seed(corpus_seed), device)
    }
    .with_seed(channel_seed)
}

/// The campaign and trained bundle every session is served from.
struct Setup {
    campaign: RecordedCampaign,
    bundle: Arc<ModelBundle>,
    detector: RegionDetector,
    record_s: f64,
    harvest_s: f64,
    train_s: f64,
}

fn set_up(spec: &SessionSpec, seed: u64) -> Result<Setup, EmoleakError> {
    let scenario = scenario(spec, seed);
    let t0 = Instant::now();
    let campaign = scenario.record_windows()?;
    let t1 = Instant::now();
    let mut harvest = scenario.harvest()?;
    let t2 = Instant::now();
    let bundle = if spec.cnn {
        harvest.spectrograms.truncate(TRAIN_IMAGES);
        ModelBundle::train_with_cnn(&harvest, derive_seed(seed, 6))?
    } else {
        ModelBundle::train(&harvest, derive_seed(seed, 6))?
    };
    let t3 = Instant::now();
    Ok(Setup {
        campaign,
        bundle: Arc::new(bundle),
        detector: scenario.setting.region_detector(),
        record_s: (t1 - t0).as_secs_f64(),
        harvest_s: (t2 - t1).as_secs_f64(),
        train_s: (t3 - t2).as_secs_f64(),
    })
}

/// What a region's verdict must be: its span, label and rung.
type Expected = (usize, usize, Option<usize>, InferenceLevel);

/// One verdict's identity within its session: window within the call,
/// region span, label and rung. A session's digest folds these in
/// emission order.
fn push_verdict(d: &mut Digest, window: usize, v: &Expected) {
    let rung = InferenceLevel::ALL
        .iter()
        .position(|l| *l == v.3)
        .unwrap_or(9);
    for word in [window, v.0, v.1, v.2.unwrap_or(usize::MAX), rung] {
        d.push(word as u64);
    }
}

/// The batch answer for every campaign window: `extract_window` plus
/// `ModelBundle::classify` at the rung sessions serve at.
fn reference(setup: &Setup) -> Vec<Vec<Expected>> {
    let want = setup.bundle.effective_level(InferenceLevel::Cnn);
    let spec_gen = setup.bundle.has_cnn().then(SpectrogramGenerator::for_accel);
    let fs = setup.campaign.fs;
    setup
        .campaign
        .windows
        .iter()
        .map(|(window, _, label)| {
            extract_window(window, fs, &setup.detector, spec_gen.as_ref(), *label)
                .rows
                .iter()
                .map(|rf| {
                    let v = setup.bundle.classify(want, rf);
                    (rf.start, rf.end, v.label, v.level)
                })
                .collect()
        })
        .collect()
}

/// A replay source that stamps every `next_chunk` call the service makes.
struct StampedSource {
    inner: ReplaySource,
    /// (call start, call end, whether a chunk came back).
    stamps: Arc<Mutex<Vec<(Instant, Instant, bool)>>>,
}

impl SampleSource for StampedSource {
    fn next_chunk(&mut self) -> Result<Option<SourceChunk>, SourceError> {
        let t0 = Instant::now();
        let chunk = self.inner.next_chunk();
        let t1 = Instant::now();
        let got = matches!(chunk, Ok(Some(_)));
        self.stamps
            .lock()
            .expect("stamp lock is never poisoned")
            .push((t0, t1, got));
        chunk
    }
}

/// Everything a workload needs to serve sessions.
struct Bench<'a> {
    spec: &'a SessionSpec,
    setup: Setup,
    /// The batch reference of every campaign window.
    batch: Vec<Vec<Expected>>,
    service: FleetService,
    dir: PathBuf,
    /// Session `s` replays call `s * stride % calls`.
    stride: usize,
}

/// The outcome of serving a run of sessions.
#[derive(Default)]
struct Served {
    latencies_ms: Vec<f64>,
    verdicts: u64,
    wall_s: f64,
    attempted: u64,
    failed: u64,
    refused: u64,
    digest: Digest,
    level_counts: [u64; 5],
    records: u64,
    journal_bytes: u64,
    windows: u64,
    max_chunk_depth: usize,
    max_region_depth: usize,
    /// Traced passes only: process CPU and wall time inside `run`, each
    /// session's `run` span, the time from its last chunk pull until `run`
    /// returned, and the `run` span minus the replayed layer work of the
    /// same windows.
    run_cpu_s: f64,
    run_wall_s: f64,
    run_ms: Vec<f64>,
    drain_ms: Vec<f64>,
    self_ms: Vec<f64>,
}

impl Bench<'_> {
    fn calls(&self) -> usize {
        self.setup.campaign.windows.len() - self.spec.call_windows + 1
    }

    fn call(&self, s: usize) -> Range<usize> {
        let first = s * self.stride % self.calls();
        first..first + self.spec.call_windows
    }

    fn source(&self, s: usize) -> ReplaySource {
        let part = RecordedCampaign {
            windows: self.setup.campaign.windows[self.call(s)].to_vec(),
            fs: self.setup.campaign.fs,
            clip_faults: Vec::new(),
            faults: FaultLog::default(),
            class_names: Vec::new(),
        };
        ReplaySource::from_campaign(&part, CHUNK)
    }

    /// The digest and verdict count session `s` must produce.
    fn expected(&self, s: usize) -> (u64, u64) {
        let mut d = Digest::default();
        let mut n = 0;
        for (w, verdicts) in self.batch[self.call(s)].iter().enumerate() {
            for v in verdicts {
                push_verdict(&mut d, w, v);
                n += 1;
            }
        }
        (d.value(), n)
    }

    /// Serves the sessions of `range` back to back. With a trace, records
    /// the spans of each session and replays the windows of sessions below
    /// `replay_below` through every layer as that session's child spans.
    fn serve(
        &self,
        range: Range<usize>,
        mut trace: Option<&mut Trace>,
        replay_below: usize,
        report: &mut Report,
    ) -> Served {
        let mut out = Served::default();
        let path = self.dir.join(format!("{}-session.log", self.spec.name));
        let phase = Instant::now();
        for s in range {
            let stamps = Arc::new(Mutex::new(Vec::new()));
            let source: Box<dyn SampleSource> = if trace.is_some() {
                Box::new(StampedSource {
                    inner: self.source(s),
                    stamps: Arc::clone(&stamps),
                })
            } else {
                Box::new(self.source(s))
            };
            out.attempted += 1;
            let t0 = Instant::now();
            let placement = match self.service.admit(TENANTS[s % TENANTS.len()], s as u64) {
                Ok(p) => p,
                Err(e) => {
                    out.failed += 1;
                    out.refused += 1;
                    report.fail(format!("session {s} refused: {e}"));
                    continue;
                }
            };
            let t_admit = Instant::now();
            let sink = match DurableSink::create(&path) {
                Ok(sink) => sink,
                Err(e) => {
                    out.failed += 1;
                    report.fail(format!("session {s}: journal create failed: {e}"));
                    continue;
                }
            };
            let t_create = Instant::now();
            let svc = StreamService::new(
                Arc::clone(&self.setup.bundle),
                self.setup.detector.clone(),
                self.setup.campaign.fs,
                placement.permit.configure(StreamConfig {
                    chunk_len: CHUNK,
                    durable: Some(sink.clone()),
                    // Every rung finishes well within the 50 ms deadline;
                    // pinning the outcome keeps machine noise from moving
                    // the rung mix.
                    latency_override: Some([Duration::ZERO; 4]),
                    ..StreamConfig::default()
                }),
            );
            let cpu0 = trace.is_some().then(|| measure::usage().cpu_s);
            let t_run = Instant::now();
            let result = svc.run(source);
            let t1 = Instant::now();
            if let Some(cpu0) = cpu0 {
                out.run_cpu_s += measure::usage().cpu_s - cpu0;
                out.run_wall_s += (t1 - t_run).as_secs_f64();
            }
            drop(placement);
            out.latencies_ms.push((t1 - t0).as_secs_f64() * 1e3);

            let run = match result {
                Ok(r) => r,
                Err(e) => {
                    out.failed += 1;
                    report.fail(format!("session {s} failed: {e}"));
                    continue;
                }
            };
            if let Err(problem) = self.check(s, &run.emissions, &sink, &path, &mut out) {
                out.failed += 1;
                report.fail(format!("session {s}: {problem}"));
                continue;
            }
            out.verdicts += run.stats.regions;
            out.windows += run.stats.windows;
            for (total, n) in out.level_counts.iter_mut().zip(run.stats.level_counts) {
                *total += n;
            }
            out.max_chunk_depth = out.max_chunk_depth.max(run.stats.max_chunk_depth);
            out.max_region_depth = out.max_region_depth.max(run.stats.max_region_depth);

            if let Some(trace) = trace.as_deref_mut() {
                let id = s as u64;
                let root = trace.record("session", id, None, t0, t1);
                trace.record("admission.admit", id, Some(root), t0, t_admit);
                trace.record("durable.create", id, Some(root), t_admit, t_create);
                let run_span = trace.record("stream.run", id, Some(root), t_run, t1);
                let stamps = stamps.lock().expect("stamp lock is never poisoned");
                for &(a, b, _) in stamps.iter() {
                    trace.record("stream.next_chunk", id, Some(run_span), a, b);
                }
                if let Some(&(_, last, _)) = stamps.iter().rev().find(|st| st.2) {
                    out.drain_ms.push((t1 - last).as_secs_f64() * 1e3);
                }
                drop(stamps);
                let run_ms = (t1 - t_run).as_secs_f64() * 1e3;
                out.run_ms.push(run_ms);
                if s < replay_below {
                    match self.replay(s, root, trace) {
                        Ok(layer_us) => out.self_ms.push(run_ms - layer_us / 1e3),
                        Err(problem) => {
                            out.failed += 1;
                            report.fail(format!("session {s} replay: {problem}"));
                        }
                    }
                }
            }
        }
        out.wall_s = phase.elapsed().as_secs_f64();
        out
    }

    /// The output check: the session's verdicts equal the batch reference
    /// and every one of them reached the journal.
    fn check(
        &self,
        s: usize,
        emissions: &[RegionEmission],
        sink: &DurableSink,
        path: &Path,
        out: &mut Served,
    ) -> Result<(), String> {
        let (digest, verdicts) = self.expected(s);
        let mut d = Digest::default();
        for e in emissions {
            push_verdict(
                &mut d,
                e.window,
                &(e.start, e.end, e.verdict.label, e.verdict.level),
            );
        }
        if d.value() != digest || emissions.len() as u64 != verdicts {
            return Err(format!(
                "{} verdicts with digest {:016x}; the batch reference has {verdicts} with \
                 {digest:016x}",
                emissions.len(),
                d.value(),
            ));
        }
        if let Some(e) = sink.take_error() {
            return Err(format!("journal error: {e}"));
        }
        let (run, defects) = recover_run(path).map_err(|e| format!("journal replay: {e}"))?;
        if !defects.is_empty() || !run.complete || run.emissions.as_slice() != emissions {
            return Err(format!(
                "journal holds {} of {} verdicts (complete: {}, defects: {})",
                run.emissions.len(),
                emissions.len(),
                run.complete,
                defects.len()
            ));
        }
        out.digest.push(digest);
        out.records += run.emissions.len() as u64 + run.transitions.len() as u64 + 1;
        out.journal_bytes += std::fs::metadata(path).map_err(|e| e.to_string())?.len();
        Ok(())
    }

    /// Replays session `s`'s windows through each layer the session used,
    /// timing every call as a child span of the session. Every rung the
    /// bundle has is timed on each region; returns the µs of the calls on
    /// the session's own path (the serving rung only).
    fn replay(&self, s: usize, root: usize, trace: &mut Trace) -> Result<f64, String> {
        let bundle = &self.setup.bundle;
        let fs = self.setup.campaign.fs;
        let spec_gen = bundle.has_cnn().then(SpectrogramGenerator::for_accel);
        let want = bundle.effective_level(InferenceLevel::Cnn);
        let sink = DurableSink::create(&self.dir.join(format!("{}-replay.log", self.spec.name)))
            .map_err(|e| e.to_string())?;
        let windows: &[LabeledWindow] = &self.setup.campaign.windows[self.call(s)];
        let mut d = Digest::default();
        let mut region = 0;
        let mut path_us = 0.0;
        let id = s as u64;
        let mut timed = |trace: &mut Trace, name: &'static str, t0: Instant, on_path: bool| {
            let t1 = Instant::now();
            trace.record(name, id, Some(root), t0, t1);
            if on_path {
                path_us += us(t1 - t0);
            }
        };
        for (w, (window, _, label)) in windows.iter().enumerate() {
            let t0 = Instant::now();
            let regions = self.setup.detector.detect(window, fs);
            timed(trace, "features.detect", t0, true);
            for &(start, end) in &regions {
                let end = end.min(window.len());
                let start = start.min(end);
                let samples = &window[start..end];
                if samples.is_empty() {
                    continue;
                }
                let t0 = Instant::now();
                let features = emoleak_features::extract_all(samples, fs);
                timed(trace, "features.table2", t0, true);
                let spectrogram = spec_gen.as_ref().and_then(|g| {
                    let t0 = Instant::now();
                    let img = g.generate(samples, fs, *label);
                    timed(trace, "features.spectrogram", t0, true);
                    if img.is_some() {
                        timed(trace, "features.spectrogram_image", Instant::now(), false);
                    }
                    img
                });
                let rf = RegionFeatures {
                    start,
                    end,
                    features,
                    spectrogram,
                };
                // A region without a spectrogram runs on the classical rung.
                let serving = if rf.spectrogram.is_none() && want < InferenceLevel::Classical {
                    InferenceLevel::Classical
                } else {
                    want
                };
                let mut served = None;
                for (level, span) in RUNGS {
                    if bundle.effective_level(level) != level
                        || (level < InferenceLevel::Classical && rf.spectrogram.is_none())
                    {
                        continue;
                    }
                    let t0 = Instant::now();
                    let v = bundle.classify(level, &rf);
                    timed(trace, span, t0, level == serving);
                    if level == serving {
                        served = Some(v);
                    }
                }
                let verdict = served.ok_or("the serving rung was not timed")?;
                push_verdict(&mut d, w, &(start, end, verdict.label, verdict.level));
                region += 1;
                let emission = RegionEmission {
                    region,
                    window: w,
                    start,
                    end,
                    truth: *label,
                    verdict,
                    deadline_missed: false,
                    latency: Duration::ZERO,
                };
                let t0 = Instant::now();
                sink.record_emission(&emission);
                timed(trace, "durable.append", t0, true);
            }
        }
        if d.value() != self.expected(s).0 {
            return Err("replayed verdicts differ from the batch reference".into());
        }
        sink.take_error()
            .map_or(Ok(path_us), |e| Err(e.to_string()))
    }
}

impl Served {
    fn part(&self) -> Part<'_> {
        Part {
            work: self.verdicts,
            secs: self.wall_s,
            latencies: &self.latencies_ms,
        }
    }

    /// The whole run: every slice added up, in order.
    fn total(parts: &[Served]) -> Served {
        let mut t = Served::default();
        for p in parts {
            t.latencies_ms.extend(&p.latencies_ms);
            t.verdicts += p.verdicts;
            t.wall_s += p.wall_s;
            t.attempted += p.attempted;
            t.failed += p.failed;
            t.refused += p.refused;
            t.digest.push(p.digest.value());
            for (a, b) in t.level_counts.iter_mut().zip(p.level_counts) {
                *a += b;
            }
            t.records += p.records;
            t.journal_bytes += p.journal_bytes;
            t.windows += p.windows;
            t.max_chunk_depth = t.max_chunk_depth.max(p.max_chunk_depth);
            t.max_region_depth = t.max_region_depth.max(p.max_region_depth);
            t.run_cpu_s += p.run_cpu_s;
            t.run_wall_s += p.run_wall_s;
            t.run_ms.extend(&p.run_ms);
            t.drain_ms.extend(&p.drain_ms);
            t.self_ms.extend(&p.self_ms);
        }
        t
    }
}

/// Set-up times of every repetition.
#[derive(Default)]
struct SetupTimes {
    total: Vec<f64>,
    record: Vec<f64>,
    harvest: Vec<f64>,
    train: Vec<f64>,
}

/// One timed set-up repetition and the batch reference it yields.
fn timed_setup(
    spec: &SessionSpec,
    seed: u64,
    times: &mut SetupTimes,
) -> Result<(Setup, Vec<Vec<Expected>>), String> {
    let t0 = Instant::now();
    let s = set_up(spec, seed).map_err(|e| format!("set-up failed: {e}"))?;
    times.total.push(t0.elapsed().as_secs_f64());
    times.record.push(s.record_s);
    times.harvest.push(s.harvest_s);
    times.train.push(s.train_s);
    let expected = reference(&s);
    Ok((s, expected))
}

pub fn run(spec: &SessionSpec, args: &Args, report: &mut Report) -> Result<(), String> {
    let reps = if args.tiny { 1 } else { spec.setup_reps };
    let mut times = SetupTimes::default();
    let (setup, batch) = timed_setup(spec, args.seed, &mut times)?;
    let windows = setup.campaign.windows.len();
    if windows < spec.call_windows {
        return Err(format!("{windows} campaign windows cannot fill one call"));
    }
    let calls = windows - spec.call_windows + 1;
    let mut stride = ((calls as f64 * 0.618) as usize).max(1);
    while gcd(stride, calls) != 1 {
        stride += 1;
    }
    // Whole cycles over the calls, never below the 100 samples a p90 needs.
    let cycles = (args.seconds * spec.sessions_per_second / calls as f64)
        .round()
        .max(1.0);
    let sessions = if args.tiny {
        12
    } else {
        (cycles as usize * calls).max(100)
    };
    let bench = Bench {
        spec,
        setup,
        batch,
        service: FleetService::new(&FleetConfig {
            seed: derive_seed(args.seed, 3),
            ..FleetConfig::default()
        }),
        dir: args.journal_dir.clone(),
        stride,
    };

    // One untimed session warms caches and lazy state before timing.
    if bench.serve(0..1, None, 0, report).failed > 0 {
        return Err("the warm-up session failed".into());
    }

    println!(
        "{}: {sessions} sessions of {} window(s), {} cycle(s) over {calls} calls (stride \
         {stride}), closed loop with one client",
        spec.name,
        spec.call_windows,
        sessions / calls,
    );
    let slices = if args.tiny { 2 } else { SLICES };
    let ranges: Vec<Range<usize>> = (0..slices)
        .map(|i| 1 + i * sessions / slices..1 + (i + 1) * sessions / slices)
        .collect();
    let parts: Vec<Served> = ranges
        .iter()
        .map(|r| bench.serve(r.clone(), None, 0, report))
        .collect();
    // Peak memory of one set-up plus serving, before the repetitions below
    // hold a second campaign and model.
    let peak_rss_mb = measure::usage().max_rss_mb;
    // The other set-up repetitions run after the timed phase, so that a
    // burst of host CPU steal at the start of the run does not decide
    // `setup_s`. Each must rebuild the same campaign and model.
    for _ in 1..reps {
        let (_, again) = timed_setup(spec, args.seed, &mut times)?;
        if again != bench.batch {
            report.fail("set-up repetitions built different campaigns or models".into());
        }
    }
    println!("set-up repetitions (s): {:.3?}", times.total);
    let plain = Served::total(&parts);
    report.attempted = plain.attempted;
    report.failed = plain.failed;
    let (throughput, lat, used) = best_half(&parts.iter().map(Served::part).collect::<Vec<_>>());
    let (p50, p90) = (lat.median, lat.p90);
    for (i, p) in parts.iter().enumerate() {
        let l = summarize(&p.latencies_ms);
        println!(
            "  slice {i}: {:.1} verdicts/s, latency p50 {:.3} ms p90 {:.3} ms{}",
            p.verdicts as f64 / p.wall_s,
            l.median,
            l.p90,
            if used.contains(&i) {
                ""
            } else {
                "  (disturbed half)"
            }
        );
    }
    println!(
        "untraced (best {} of {} slices): {throughput:.1} verdicts/s; latency p50 {p50:.3} ms \
         p90 {p90:.3} ms (n={}); {} verdicts in {:.3} s; failed_share {}",
        used.len(),
        parts.len(),
        lat.n,
        plain.verdicts,
        plain.wall_s,
        plain.failed as f64 / plain.attempted.max(1) as f64
    );

    let cnn_regions = bench
        .batch
        .iter()
        .flatten()
        .filter(|v| v.3 < InferenceLevel::Classical)
        .count();
    for (name, v) in [
        ("sessions", plain.attempted),
        ("verdicts", plain.verdicts),
        ("windows", plain.windows),
        ("campaign.windows", windows as u64),
        ("campaign.cnn_regions", cnn_regions as u64),
        (
            "campaign.regions",
            bench.batch.iter().flatten().count() as u64,
        ),
        ("ml.verdicts.cnn", plain.level_counts[0]),
        ("ml.verdicts.cnn_int8", plain.level_counts[1]),
        ("ml.verdicts.classical", plain.level_counts[2]),
        ("ml.verdicts.energy_only", plain.level_counts[3]),
        ("ml.verdicts.shed", plain.level_counts[4]),
        ("durable.records", plain.records),
        ("durable.journal_bytes", plain.journal_bytes),
        ("digest.sessions", plain.digest.value()),
    ] {
        report.count(name, v);
    }

    if !args.trace {
        let setup_s = summarize(&times.total).median;
        report.metric("setup_s", setup_s, "s", times.total.len());
        report.metric(
            "throughput_per_s",
            throughput,
            "1/s",
            plain.verdicts as usize,
        );
        report.metric("latency_p50_ms", p50, "ms", lat.n);
        report.metric("latency_p90_ms", p90, "ms", lat.n);
        report.metric("peak_rss_mb", peak_rss_mb, "MB", 1);
        return Ok(());
    }

    let mut trace = Trace::new();
    let replay_below = 1 + REPLAYED_WINDOWS.div_ceil(spec.call_windows);
    let traced_parts: Vec<Served> = ranges
        .iter()
        .map(|r| bench.serve(r.clone(), Some(&mut trace), replay_below, report))
        .collect();
    let traced = Served::total(&traced_parts);
    report.failed += traced.failed;
    if traced.digest != plain.digest || traced.level_counts != plain.level_counts {
        report.fail("the traced pass served different verdicts than the untraced pass".into());
    }
    let (t_throughput, tlat, _) =
        best_half(&traced_parts.iter().map(Served::part).collect::<Vec<_>>());
    println!("tracing overhead (best half of slices; traced slices include replaying windows):");
    println!("  untraced {throughput:>10.2}/s  p50 {p50:>8.3} ms  p90 {p90:>8.3} ms");
    println!(
        "  traced   {t_throughput:>10.2}/s  p50 {:>8.3} ms  p90 {:>8.3} ms  (p50 {:+.1}%)",
        tlat.median,
        tlat.p90,
        (tlat.median / p50 - 1.0) * 100.0
    );

    for (name, t) in [
        ("setup.record_s", &times.record),
        ("setup.harvest_s", &times.harvest),
        ("setup.train_s", &times.train),
    ] {
        report.metric(name, summarize(t).median, "s", t.len());
    }

    let table2 = trace.durations_us("features.table2");
    let images = trace.durations_us("features.spectrogram_image").len();
    let detect = summarize(&trace.durations_us("features.detect"));
    report.timing("features.detect_us_per_window", detect, "us");
    report.timing("features.table2_us_per_region", summarize(&table2), "us");
    let spectrogram = summarize(&trace.durations_us("features.spectrogram"));
    report.timing("features.spectrogram_us_per_region", spectrogram, "us");
    let yield_ = images as f64 / table2.len().max(1) as f64;
    report.metric("features.spectrogram_yield", yield_, "ratio", table2.len());

    println!("ladder order (ModelBundle::classify on the same regions):");
    let mut above: Option<(&str, f64)> = None;
    for (_, span) in RUNGS {
        let name = &span["ml.classify.".len()..];
        let s = summarize(&trace.durations_us(span));
        report.timing(&format!("ml.classify_us.{name}"), s, "us");
        if s.n == 0 {
            println!("  {name:<10} not in this bundle");
            continue;
        }
        let order = match above {
            Some((up, t)) if s.median < t => format!("cheaper than {up}"),
            Some((up, _)) => format!("NOT cheaper than {up}"),
            None => "top rung".to_string(),
        };
        println!(
            "  {name:<10} p50 {:>9.1} us  p90 {:>9.1} us  (n={})  {order}",
            s.median, s.p90, s.n
        );
        above = Some((name, s.median));
    }
    let rungs = ["cnn", "cnn_int8", "classical", "energy_only", "shed"];
    for (name, n) in rungs.iter().zip(traced.level_counts) {
        report.metric(&format!("ml.verdicts.{name}"), n as f64, "count", 1);
    }

    let sessions_n = traced.run_ms.len();
    report.timing("stream.session_ms", summarize(&traced.run_ms), "ms");
    report.timing("stream.self_ms", summarize(&traced.self_ms), "ms");
    report.timing("stream.drain_ms", summarize(&traced.drain_ms), "ms");
    let cpu_per_wall = traced.run_cpu_s / traced.run_wall_s;
    report.metric("stream.cpu_per_wall", cpu_per_wall, "ratio", sessions_n);
    report.metric(
        "stream.max_chunk_depth",
        traced.max_chunk_depth as f64,
        "count",
        sessions_n,
    );
    report.metric(
        "stream.max_region_depth",
        traced.max_region_depth as f64,
        "count",
        sessions_n,
    );

    report.timing(
        "admission.admit_us",
        summarize(&trace.durations_us("admission.admit")),
        "us",
    );
    report.metric(
        "admission.refused",
        traced.refused as f64,
        "count",
        traced.attempted as usize,
    );
    report.timing(
        "durable.create_us",
        summarize(&trace.durations_us("durable.create")),
        "us",
    );
    report.timing(
        "durable.append_us",
        summarize(&trace.durations_us("durable.append")),
        "us",
    );
    report.metric("durable.records", traced.records as f64, "count", 1);
    let bytes_per_verdict = traced.journal_bytes as f64 / traced.verdicts.max(1) as f64;
    report.metric(
        "durable.bytes_per_verdict",
        bytes_per_verdict,
        "B",
        traced.verdicts as usize,
    );

    trace
        .write(&args.spans)
        .map_err(|e| format!("writing spans to {}: {e}", args.spans.display()))
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}
