//! The streaming inference service: source → chunks → regions → verdicts.
//!
//! A session is one loop on the caller's thread over three steps:
//!
//! ```text
//! ingest ──SourceChunk──▶ extract ──PendingRegion──▶ classify
//! (retry w/ backoff)      (window assembly +         (ModelBundle +
//!                          region detection/features) degradation ladder)
//! ```
//!
//! * **ingest** pulls the next chunk from the [`SampleSource`], absorbing
//!   transient errors with seeded-backoff retries that never sleep past the
//!   run's deadline.
//! * **extract** reassembles chunks into playback windows and runs the same
//!   [`extract_window`] the batch pipeline uses — on a clean stream the
//!   emitted regions are *byte-identical* to a batch harvest.
//! * **classify** runs each region through the [`ModelBundle`] at the rung
//!   the [`DegradationLadder`] currently allows, feeding the ladder each
//!   region's deadline outcome.
//!
//! Every region of a window is classified before the next chunk is pulled,
//! so a session holds at most one partial window and the regions its last
//! chunk completed, and nothing it does depends on a scheduler. Each step runs behind a
//! panic firewall with its own restart budget, and `run_timeout` bounds the
//! whole run: the service can degrade and can fail with an error, but it
//! cannot crash the caller, and it cannot hang as long as its source keeps
//! the [`SampleSource`] contract of returning in bounded time.

use crate::gauge::ByteGauge;
use crate::ladder::{DegradationLadder, LadderConfig, LevelCap};
use crate::log::{ServiceEvent, ServiceLog};
use crate::retry::{retry_with_backoff, RetryError, RetryPolicy};
use crate::source::{SampleSource, SourceChunk, SourceError, ValidatingSource};
use emoleak_core::online::{
    extract_window, InferenceLevel, ModelBundle, RegionFeatures, Verdict,
};
use emoleak_core::Rung;
use emoleak_exec::Deadline;
use emoleak_features::regions::RegionDetector;
use emoleak_features::spectrogram::SpectrogramGenerator;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Consecutive exhausted retry cycles on one read before the service stops
/// treating the failures as transient and shuts down. Keeps a
/// permanently-failing "transient" source from spinning until the global
/// timeout.
const MAX_DRY_RETRY_CYCLES: u32 = 64;

/// The session's steps, in `SessionCore::restarts` order: the names its
/// `WorkerPanicked` events and restart-budget errors carry.
const STAGES: [&str; 3] = ["ingest", "extract", "classify"];
const INGEST: usize = 0;
const EXTRACT: usize = 1;
const CLASSIFY: usize = 2;

/// Tuning for a [`StreamService`] run.
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Chunk size callers should use when building replay sources
    /// (samples; the service consumes whatever the source delivers).
    pub chunk_len: usize,
    /// Per-region classification deadline.
    pub deadline: Duration,
    /// The rung the service starts at and recovers toward (coerced to
    /// [`InferenceLevel::Classical`] when the bundle has no CNN).
    pub start_level: InferenceLevel,
    /// Degradation circuit-breaker tuning.
    pub ladder: LadderConfig,
    /// Transient-source-error retry tuning.
    pub retry: RetryPolicy,
    /// Panics *each step* (ingest, extract, classify) may absorb before the
    /// run fails with [`SupervisionError::TooManyRestarts`].
    pub max_restarts: u32,
    /// Global bound on the whole run, checked between steps and capping
    /// every backoff sleep: a run still going when it passes ends with
    /// [`SupervisionError::Stalled`] instead of hanging.
    pub run_timeout: Duration,
    /// Synthetic per-rung classification latencies `[cnn, cnn-int8,
    /// classical, energy-only]` (shed is always instant). `Some` makes
    /// deadline outcomes — and therefore ladder transitions and emission
    /// labels — a pure function of the input, which tests and chaos runs
    /// rely on; `None` measures wall-clock latency.
    pub latency_override: Option<[Duration; 4]>,
    /// Chaos knob: the extract step panics on the chunk with this 0-based
    /// index, losing it, to exercise the panic firewall end to end.
    pub panic_after_chunks: Option<u64>,
    /// Optional write-ahead journal: every emission and ladder transition
    /// is persisted (append + fsync) as it commits, so a killed run loses
    /// at most the region in flight (see [`crate::durable`]).
    pub durable: Option<crate::durable::DurableSink>,
    /// Optional shared memory accountant: when set, the partial window and
    /// the unclassified regions a session holds are charged against this
    /// gauge, and released when the run ends however it ends, so a fleet
    /// of sessions can be held to one byte budget (`emoleak-admission`
    /// enforces the budget at admission time).
    pub memory: Option<Arc<ByteGauge>>,
    /// Optional fleet-imposed quality ceiling: the classify step runs each
    /// region at the worse of the session ladder's rung and this cap (see
    /// [`LevelCap`]). The fleet breaker lowers it for every session at once.
    pub fleet_cap: Option<Arc<LevelCap>>,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            chunk_len: 256,
            deadline: Duration::from_millis(50),
            start_level: InferenceLevel::Cnn,
            ladder: LadderConfig::default(),
            retry: RetryPolicy::default(),
            max_restarts: 3,
            run_timeout: Duration::from_secs(120),
            latency_override: None,
            panic_after_chunks: None,
            durable: None,
            memory: None,
            fleet_cap: None,
        }
    }
}

/// Resident cost of a pending region, bytes (features + optional
/// spectrogram + header).
fn region_cost(p: &PendingRegion) -> u64 {
    let spec = p.rf.spectrogram.as_ref().map_or(0, |s| s.pixels.len() * 8);
    (p.rf.features.len() * 8 + spec + 64) as u64
}

/// A region extracted but not yet classified.
#[derive(Debug, Clone)]
struct PendingRegion {
    window: usize,
    truth: usize,
    rf: RegionFeatures,
}

/// One classified region, as emitted by the service.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionEmission {
    /// Running region counter (1-based), the service's logical clock.
    pub region: u64,
    /// The playback window the region was detected in.
    pub window: usize,
    /// Region start within its window, samples.
    pub start: usize,
    /// Region end (exclusive) within its window, samples.
    pub end: usize,
    /// Ground-truth label of the window (scoring only).
    pub truth: usize,
    /// The classification verdict.
    pub verdict: Verdict,
    /// Whether this region missed its deadline.
    pub deadline_missed: bool,
    /// Classification latency (synthetic under `latency_override`).
    pub latency: Duration,
}

/// Counters accumulated across a run. Under `latency_override` every field
/// is a pure function of the input.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Chunks successfully pulled from the source.
    pub chunks_ingested: u64,
    /// Playback windows reassembled.
    pub windows: u64,
    /// Regions classified.
    pub regions: u64,
    /// Transient source failures absorbed by retry.
    pub retries: u64,
    /// Most chunks the session held at once in its partial window (at most
    /// the chunk count of the longest window).
    pub max_chunk_depth: usize,
    /// Most extracted regions waiting at once for classification.
    pub max_region_depth: usize,
    /// Regions that missed their deadline.
    pub deadline_misses: u64,
    /// Regions classified at each rung, `InferenceLevel::ALL` order.
    pub level_counts: [u64; 5],
    /// Step panics absorbed.
    pub panic_restarts: u32,
}

/// Everything a completed run produced.
#[derive(Debug, Clone)]
pub struct StreamReport {
    /// All region emissions, in classification order.
    pub emissions: Vec<RegionEmission>,
    /// The resilience event log.
    pub log: ServiceLog,
    /// Run counters.
    pub stats: StreamStats,
    /// The rung the ladder ended at.
    pub final_level: InferenceLevel,
}

/// Why supervision gave up on a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SupervisionError {
    /// One step panicked more than `max_restarts` times.
    TooManyRestarts {
        /// The step that kept panicking.
        stage: &'static str,
        /// Restarts it consumed.
        restarts: u32,
    },
    /// The run exceeded its global timeout without completing.
    Stalled,
}

impl core::fmt::Display for SupervisionError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SupervisionError::TooManyRestarts { stage, restarts } => {
                write!(f, "stage '{stage}' exceeded its restart budget ({restarts} restarts)")
            }
            SupervisionError::Stalled => write!(f, "run exceeded its global timeout"),
        }
    }
}

impl std::error::Error for SupervisionError {}

/// Why a run failed (as opposed to degraded).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamError {
    /// The source failed fatally (or never stopped failing transiently).
    Source(String),
    /// Supervision gave up: restart budget exhausted or global timeout.
    Supervision(SupervisionError),
}

impl core::fmt::Display for StreamError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            StreamError::Source(why) => write!(f, "source failed: {why}"),
            StreamError::Supervision(e) => write!(f, "supervision failed: {e}"),
        }
    }
}

impl std::error::Error for StreamError {}

impl From<SupervisionError> for StreamError {
    fn from(e: SupervisionError) -> Self {
        StreamError::Supervision(e)
    }
}

/// Reassembles in-order chunks into whole playback windows.
///
/// Tolerates loss: if a window's tail chunk was lost (an injected panic),
/// the next window's first chunk flushes the stale partial window so
/// extraction still sees it (truncated), and no window is ever silently
/// swallowed.
#[derive(Debug, Default)]
struct Assembler {
    current: Option<(usize, usize, Vec<f64>)>,
    /// Chunks in `current`.
    chunks: usize,
    /// The most chunks `current` ever held.
    max_chunks: usize,
}

impl Assembler {
    /// Feeds one chunk; returns the windows it completed (0, 1, or 2 — a
    /// stale partial flushed by a window change plus the chunk's own).
    fn feed(&mut self, chunk: SourceChunk) -> Vec<(usize, usize, Vec<f64>)> {
        let mut done = Vec::new();
        if self.current.as_ref().is_some_and(|(w, _, _)| *w != chunk.window) {
            done.extend(self.flush());
        }
        let (_, _, buf) =
            self.current.get_or_insert((chunk.window, chunk.label, Vec::new()));
        buf.extend_from_slice(&chunk.samples);
        self.chunks += 1;
        self.max_chunks = self.max_chunks.max(self.chunks);
        if chunk.last_in_window {
            done.extend(self.flush());
        }
        done
    }

    /// Takes whatever partial window is left (end of stream).
    fn flush(&mut self) -> Option<(usize, usize, Vec<f64>)> {
        self.chunks = 0;
        self.current.take()
    }

    /// Resident cost of the partial window, bytes (samples + a header per
    /// chunk).
    fn bytes(&self) -> u64 {
        let samples = self.current.as_ref().map_or(0, |(_, _, buf)| buf.len());
        (samples * 8 + self.chunks * 64) as u64
    }
}

fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The bytes a session holds on its optional [`ByteGauge`]. Whatever is
/// still charged is released on drop, so every exit path — errors and
/// exhausted restart budgets included — returns it.
#[derive(Debug)]
struct Held {
    gauge: Option<Arc<ByteGauge>>,
    bytes: u64,
}

impl Held {
    /// Charges or releases the difference so the gauge carries `bytes`.
    fn set(&mut self, bytes: u64) {
        if let Some(gauge) = &self.gauge {
            if bytes > self.bytes {
                gauge.charge(bytes - self.bytes);
            } else {
                gauge.release(self.bytes - bytes);
            }
        }
        self.bytes = bytes;
    }
}

impl Drop for Held {
    fn drop(&mut self) {
        self.set(0);
    }
}

/// One session's whole state, advanced one step at a time by
/// [`SessionCore::step`] with no locks and no threads.
pub(crate) struct SessionCore {
    bundle: Arc<ModelBundle>,
    detector: RegionDetector,
    fs: f64,
    cfg: StreamConfig,
    spec_gen: Option<SpectrogramGenerator>,
    source: ValidatingSource<Box<dyn SampleSource>>,
    /// The source has reported end of stream.
    ended: bool,
    assembler: Assembler,
    pending: VecDeque<PendingRegion>,
    ladder: DegradationLadder,
    /// The rung the ladder starts at and never climbs past.
    best: InferenceLevel,
    log: ServiceLog,
    stats: StreamStats,
    emissions: Vec<RegionEmission>,
    /// Panics absorbed per step, `STAGES` order.
    restarts: [u32; 3],
    deadline: Deadline,
    held: Held,
}

impl SessionCore {
    /// A session of `service` over `source`, its `run_timeout` armed now.
    /// Every chunk is screened for hostile input before it is assembled;
    /// the first defect fails the run as a fatal source error.
    pub(crate) fn new(service: &StreamService, source: Box<dyn SampleSource>) -> Self {
        let cfg = service.config.clone();
        let best = service.bundle.effective_level(cfg.start_level);
        SessionCore {
            spec_gen: service.bundle.has_cnn().then(SpectrogramGenerator::for_accel),
            ladder: DegradationLadder::new(cfg.ladder, best),
            best,
            deadline: Deadline::within(cfg.run_timeout),
            held: Held { gauge: cfg.memory.clone(), bytes: 0 },
            bundle: Arc::clone(&service.bundle),
            detector: service.detector.clone(),
            fs: service.fs,
            cfg,
            source: ValidatingSource::new(source),
            ended: false,
            assembler: Assembler::default(),
            pending: VecDeque::new(),
            log: ServiceLog::new(),
            stats: StreamStats::default(),
            emissions: Vec::new(),
            restarts: [0; 3],
        }
    }

    /// Advances the session by one step: classifies the oldest pending
    /// region if there is one; otherwise pulls the next chunk and feeds it
    /// to the assembler, or flushes the partial window at end of stream.
    /// Returns `Ok(true)` once the source has ended and every region is
    /// classified.
    ///
    /// # Errors
    ///
    /// [`StreamError::Source`] on a fatal (or permanently transient) source
    /// failure; [`StreamError::Supervision`] once a step has panicked more
    /// than `max_restarts` times or `run_timeout` has passed.
    pub(crate) fn step(&mut self) -> Result<bool, StreamError> {
        if self.deadline.expired() {
            return Err(SupervisionError::Stalled.into());
        }
        if let Some(region) = self.pending.pop_front() {
            self.guarded(CLASSIFY, |core| core.classify(region))?;
        } else if self.ended {
            return Ok(true);
        } else {
            match self.guarded(INGEST, Self::pull)?.transpose()? {
                Some(Some(chunk)) => {
                    self.guarded(EXTRACT, |core| core.feed(chunk))?;
                }
                Some(None) => {
                    self.ended = true;
                    self.guarded(EXTRACT, Self::flush)?;
                }
                None => {} // the pull panicked: nothing was taken
            }
        }
        let bytes = self.assembler.bytes() + self.pending.iter().map(region_cost).sum::<u64>();
        self.held.set(bytes);
        Ok(false)
    }

    /// Runs one step behind the panic firewall. An absorbed panic loses
    /// the step's work (`Ok(None)`), is logged as a `WorkerPanicked` event
    /// and costs `stage` one restart.
    fn guarded<T>(
        &mut self,
        stage: usize,
        step: impl FnOnce(&mut Self) -> T,
    ) -> Result<Option<T>, StreamError> {
        let payload = match catch_unwind(AssertUnwindSafe(|| step(self))) {
            Ok(value) => return Ok(Some(value)),
            Err(payload) => payload,
        };
        self.restarts[stage] += 1;
        self.stats.panic_restarts += 1;
        let (name, restarts) = (STAGES[stage], self.restarts[stage]);
        self.log.push(ServiceEvent::WorkerPanicked {
            stage: name,
            restarts,
            message: panic_text(payload),
        });
        if restarts > self.cfg.max_restarts {
            return Err(SupervisionError::TooManyRestarts { stage: name, restarts }.into());
        }
        Ok(None)
    }

    /// Pulls the next chunk, retrying transient failures with backoff;
    /// `Ok(None)` is the end of the stream.
    fn pull(&mut self) -> Result<Option<SourceChunk>, StreamError> {
        let mut dry_cycles = 0u32;
        loop {
            let source = &mut self.source;
            let outcome = retry_with_backoff(&self.cfg.retry, &self.deadline, || {
                match source.next_chunk() {
                    Ok(v) => Ok(Ok(v)),
                    Err(SourceError::Transient(e)) => Ok(Err(e)),
                    Err(SourceError::Fatal(e)) => Err(e),
                }
            });
            match outcome {
                Ok((Some(chunk), tries)) => {
                    if tries > 0 {
                        self.stats.retries += u64::from(tries);
                        self.log.push(ServiceEvent::SourceRecovered {
                            chunk: self.stats.chunks_ingested,
                            retries: tries,
                        });
                    }
                    self.stats.chunks_ingested += 1;
                    return Ok(Some(chunk));
                }
                // Retries ahead of the end-of-stream read delivered no
                // chunk, and are not counted.
                Ok((None, _)) => return Ok(None),
                Err(RetryError::Exhausted(e)) => {
                    // Still transient: start a fresh backoff cycle (the
                    // source is at-least-once, nothing is lost) — but only
                    // so many times in a row.
                    self.stats.retries += u64::from(self.cfg.retry.max_attempts.max(1));
                    dry_cycles += 1;
                    if dry_cycles > MAX_DRY_RETRY_CYCLES {
                        return Err(StreamError::Source(format!(
                            "source never stopped failing transiently: {e}"
                        )));
                    }
                }
                Err(RetryError::Permanent(e)) => return Err(StreamError::Source(e)),
                Err(RetryError::TimedOut) => return Err(SupervisionError::Stalled.into()),
            }
        }
    }

    /// Feeds the chunk just pulled to the assembler and extracts every
    /// window it completes.
    fn feed(&mut self, chunk: SourceChunk) {
        if self.cfg.panic_after_chunks == Some(self.stats.chunks_ingested - 1) {
            panic!("injected chaos panic in extract");
        }
        for (window, label, samples) in self.assembler.feed(chunk) {
            self.extract(window, label, &samples);
        }
        self.stats.max_chunk_depth = self.assembler.max_chunks;
    }

    /// Extracts whatever partial window the end of the stream left.
    fn flush(&mut self) {
        if let Some((window, label, samples)) = self.assembler.flush() {
            self.extract(window, label, &samples);
        }
    }

    /// Detects and featurizes one window, queueing its regions.
    fn extract(&mut self, window: usize, truth: usize, samples: &[f64]) {
        self.stats.windows += 1;
        let ex = extract_window(samples, self.fs, &self.detector, self.spec_gen.as_ref(), truth);
        self.pending.extend(ex.rows.into_iter().map(|rf| PendingRegion { window, truth, rf }));
        self.stats.max_region_depth = self.stats.max_region_depth.max(self.pending.len());
    }

    /// Classifies one region at the ladder's rung (under the fleet cap),
    /// feeds the ladder its deadline outcome and commits the emission.
    fn classify(&mut self, p: PendingRegion) {
        let mut want = self.ladder.level();
        if let Some(cap) = &self.cfg.fleet_cap {
            want = cap.apply(want);
        }
        let t0 = Instant::now();
        let verdict = self.bundle.classify(want, &p.rf);
        let latency = match self.cfg.latency_override {
            Some(lat) => lat.get(verdict.level.index()).copied().unwrap_or_default(),
            None => t0.elapsed(),
        };
        let missed = latency > self.cfg.deadline;
        self.stats.regions += 1;
        let region = self.stats.regions;
        self.stats.level_counts[verdict.level.index()] += 1;
        if missed {
            self.stats.deadline_misses += 1;
        }
        if let Some(t) = self.ladder.observe(missed, self.best) {
            if let Some(sink) = &self.cfg.durable {
                sink.record_transition(region, t);
            }
            self.log.push(if t.to > t.from {
                ServiceEvent::Degraded { region, transition: t }
            } else {
                ServiceEvent::Recovered { region, transition: t }
            });
        }
        let emission = RegionEmission {
            region,
            window: p.window,
            start: p.rf.start,
            end: p.rf.end,
            truth: p.truth,
            verdict,
            deadline_missed: missed,
            latency,
        };
        if let Some(sink) = &self.cfg.durable {
            sink.record_emission(&emission);
        }
        self.emissions.push(emission);
    }

    /// Closes the journal and hands over what the run produced.
    pub(crate) fn finish(self) -> StreamReport {
        let final_level = self.ladder.level();
        if let Some(sink) = &self.cfg.durable {
            sink.finish(self.stats.regions, final_level);
        }
        StreamReport { emissions: self.emissions, log: self.log, stats: self.stats, final_level }
    }
}

/// The online inference service. Construct once per trained bundle, run
/// once per source.
#[derive(Debug)]
pub struct StreamService {
    bundle: Arc<ModelBundle>,
    detector: RegionDetector,
    fs: f64,
    config: StreamConfig,
}

impl StreamService {
    /// A service classifying with `bundle` over regions found by
    /// `detector` in a stream sampled at `fs` Hz. The bundle is shared
    /// (`Arc`) so one trained stack can back many runs.
    pub fn new(
        bundle: Arc<ModelBundle>,
        detector: RegionDetector,
        fs: f64,
        config: StreamConfig,
    ) -> Self {
        StreamService { bundle, detector, fs, config }
    }

    /// The configuration the service runs with.
    pub fn config(&self) -> &StreamConfig {
        &self.config
    }

    /// Drains `source` to completion, one step at a time on the calling
    /// thread.
    ///
    /// # Errors
    ///
    /// [`StreamError::Source`] on a fatal (or permanently transient)
    /// source failure, [`StreamError::Supervision`] when a step exceeds
    /// its restart budget or the run times out. Degradation is *not* an
    /// error — an overloaded run returns `Ok` with the ladder transitions
    /// in the report.
    pub fn run(&self, source: Box<dyn SampleSource>) -> Result<StreamReport, StreamError> {
        let mut core = SessionCore::new(self, source);
        while !core.step()? {}
        Ok(core.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{FlakySource, ReplaySource};
    use emoleak_core::online::RecordedCampaign;
    use emoleak_core::AttackScenario;
    use emoleak_phone::DeviceProfile;
    use emoleak_synth::CorpusSpec;
    use std::sync::OnceLock;

    struct Fixture {
        campaign: RecordedCampaign,
        bundle: Arc<ModelBundle>,
        detector: RegionDetector,
    }

    // Record + train once; every test replays the same tiny campaign.
    fn fixture() -> &'static Fixture {
        static FIX: OnceLock<Fixture> = OnceLock::new();
        FIX.get_or_init(|| {
            let scenario = AttackScenario::table_top(
                CorpusSpec::tess().with_clips_per_cell(2),
                DeviceProfile::oneplus_7t(),
            );
            let campaign = scenario.record_windows().unwrap();
            let bundle =
                Arc::new(ModelBundle::train(&scenario.harvest().unwrap(), 7).unwrap());
            Fixture { campaign, bundle, detector: scenario.setting.region_detector() }
        })
    }

    fn service(config: StreamConfig) -> StreamService {
        let fix = fixture();
        StreamService::new(
            Arc::clone(&fix.bundle),
            fix.detector.clone(),
            fix.campaign.fs,
            config,
        )
    }

    fn fast_config() -> StreamConfig {
        StreamConfig {
            // Everything meets the deadline: no ladder motion.
            latency_override: Some([Duration::ZERO; 4]),
            ..StreamConfig::default()
        }
    }

    #[test]
    fn assembler_reassembles_and_flushes_partials() {
        let chunk = |window, samples: &[f64], last| SourceChunk {
            window,
            offset: 0,
            samples: samples.to_vec(),
            label: window,
            last_in_window: last,
        };
        let mut a = Assembler::default();
        assert!(a.feed(chunk(0, &[1.0, 2.0], false)).is_empty());
        assert_eq!(a.bytes(), 2 * 8 + 64, "the partial window is held");
        assert_eq!(a.feed(chunk(0, &[3.0], true)), vec![(0, 0, vec![1.0, 2.0, 3.0])]);
        assert_eq!(a.bytes(), 0);
        // A lost tail chunk: the next window's first chunk flushes the
        // stale partial ahead of its own accumulation.
        assert!(a.feed(chunk(1, &[4.0], false)).is_empty());
        assert_eq!(
            a.feed(chunk(2, &[5.0], true)),
            vec![(1, 1, vec![4.0]), (2, 2, vec![5.0])]
        );
        assert_eq!(a.flush(), None);
        assert_eq!(a.max_chunks, 2, "window 0 was held as two chunks");
    }

    #[test]
    fn clean_stream_classifies_every_batch_region_in_order() {
        let fix = fixture();
        let svc = service(fast_config());
        let chunk_len = svc.config().chunk_len;
        let source = ReplaySource::from_campaign(&fix.campaign, chunk_len);
        let report = svc.run(Box::new(source)).unwrap();

        // Exactly the batch pipeline's rows, in window order.
        let spec_gen: Option<&SpectrogramGenerator> = None; // classical bundle
        let mut expected = Vec::new();
        let mut most_regions = 0;
        for (i, (window, _truth, label)) in fix.campaign.windows.iter().enumerate() {
            let ex = extract_window(window, fix.campaign.fs, &fix.detector, spec_gen, *label);
            most_regions = most_regions.max(ex.rows.len());
            for rf in ex.rows {
                expected.push((i, rf.start, rf.end));
            }
        }
        let got: Vec<_> =
            report.emissions.iter().map(|e| (e.window, e.start, e.end)).collect();
        assert_eq!(got, expected);
        assert_eq!(report.stats.regions, expected.len() as u64);
        assert_eq!(report.stats.windows, fix.campaign.windows.len() as u64);
        // Clean run: nothing for the resilience machinery to do.
        assert!(report.log.events().is_empty());
        assert_eq!(report.stats.retries, 0);
        assert_eq!(report.stats.deadline_misses, 0);
        assert_eq!(report.final_level, InferenceLevel::Classical, "no CNN: coerced");
        // The session held one window's chunks and one window's regions.
        let longest = fix.campaign.windows.iter().map(|(w, _, _)| w.len()).max().unwrap();
        assert_eq!(report.stats.max_chunk_depth, longest.div_ceil(chunk_len));
        assert_eq!(report.stats.max_region_depth, most_regions);
        // Every region got a classical label.
        assert!(report.emissions.iter().all(|e| e.verdict.label.is_some()));
    }

    #[test]
    fn flaky_source_recovers_losslessly_with_logged_retries() {
        let fix = fixture();
        let clean = service(fast_config())
            .run(Box::new(ReplaySource::from_campaign(&fix.campaign, 256)))
            .unwrap();
        let svc = service(fast_config());
        let flaky = FlakySource::new(
            ReplaySource::from_campaign(&fix.campaign, 256),
            0.4,
            0xF1A6,
        );
        let report = svc.run(Box::new(flaky)).unwrap();
        assert!(report.stats.retries > 0, "flaky source must have failed sometimes");
        assert!(report.log.source_recoveries() > 0);
        // At-least-once + retry = lossless: same emissions as the clean run.
        let labels = |r: &StreamReport| {
            r.emissions
                .iter()
                .map(|e| (e.window, e.start, e.verdict.label))
                .collect::<Vec<_>>()
        };
        assert_eq!(labels(&report), labels(&clean));
    }

    #[test]
    fn fatal_source_fails_the_run_cleanly() {
        let fix = fixture();
        let svc = service(fast_config());
        let source =
            FlakySource::new(ReplaySource::from_campaign(&fix.campaign, 256), 0.0, 1)
                .with_fatal_at(3);
        let err = svc.run(Box::new(source)).unwrap_err();
        assert!(matches!(err, StreamError::Source(ref m) if m.contains("fatal")), "{err:?}");
    }

    #[test]
    fn injected_panic_is_absorbed_and_the_run_completes() {
        let fix = fixture();
        let svc = service(StreamConfig {
            panic_after_chunks: Some(2),
            ..fast_config()
        });
        let source = ReplaySource::from_campaign(&fix.campaign, 256);
        let chunks = source.remaining() as u64;
        let report = svc.run(Box::new(source)).unwrap();
        assert_eq!(report.stats.panic_restarts, 1);
        assert_eq!(report.log.panics(), 1);
        assert!(matches!(
            report.log.events()[0],
            ServiceEvent::WorkerPanicked { stage: "extract", .. }
        ));
        // The panicked chunk is lost, the rest of the stream is not.
        assert_eq!(report.stats.chunks_ingested, chunks);
        assert!(report.stats.regions > 0);
    }

    #[test]
    fn slow_rung_trips_the_ladder_and_recovery_climbs_back() {
        let fix = fixture();
        let svc = service(StreamConfig {
            // Classical blows the deadline, energy-only is instant.
            deadline: Duration::from_millis(10),
            latency_override: Some([
                Duration::from_millis(100),
                Duration::from_millis(100),
                Duration::from_millis(100),
                Duration::ZERO,
            ]),
            ladder: LadderConfig { degrade_after: 2, recover_after: 3, cooldown: 1 },
            ..StreamConfig::default()
        });
        let source = ReplaySource::from_campaign(&fix.campaign, 256);
        let report = svc.run(Box::new(source)).unwrap();
        let transitions = report.log.transitions();
        assert!(!transitions.is_empty(), "misses must trip the breaker");
        assert_eq!(
            transitions[0],
            crate::ladder::Transition {
                from: InferenceLevel::Classical,
                to: InferenceLevel::EnergyOnly
            }
        );
        // Energy-only meets the deadline, so recovery fires too (given
        // enough regions), and some regions ran on each side.
        assert!(report.stats.level_counts[2] > 0);
        assert!(report.stats.level_counts[3] > 0);
        assert!(
            transitions.iter().any(|t| t.to < t.from),
            "sustained headroom must climb back up: {transitions:?}"
        );
    }

    #[test]
    fn durable_sink_journals_every_emission_as_it_commits() {
        use crate::durable::{recover_run, DurableSink};
        let fix = fixture();
        let dir = std::env::temp_dir()
            .join(format!("emoleak-service-durable-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.log");
        let sink = DurableSink::create(&path).unwrap();
        let svc = service(StreamConfig { durable: Some(sink.clone()), ..fast_config() });
        let source = ReplaySource::from_campaign(&fix.campaign, svc.config().chunk_len);
        let report = svc.run(Box::new(source)).unwrap();
        assert!(sink.take_error().is_none());

        let (run, defects) = recover_run(&path).unwrap();
        assert!(defects.is_empty(), "{defects:?}");
        assert!(run.complete, "clean shutdown must write the summary record");
        assert_eq!(run.emissions, report.emissions, "journal must replay the exact run");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn memory_gauge_and_fleet_cap_govern_a_run() {
        let fix = fixture();
        let gauge = Arc::new(ByteGauge::new());
        let cap = Arc::new(LevelCap::new());
        cap.set(InferenceLevel::EnergyOnly);
        let svc = service(StreamConfig {
            memory: Some(Arc::clone(&gauge)),
            fleet_cap: Some(Arc::clone(&cap)),
            ..fast_config()
        });
        let source = ReplaySource::from_campaign(&fix.campaign, 256);
        let report = svc.run(Box::new(source)).unwrap();
        assert!(report.stats.regions > 0);
        // The fleet cap forced every region below the ladder's rung.
        assert_eq!(report.stats.level_counts[0], 0);
        assert_eq!(report.stats.level_counts[1], 0);
        assert_eq!(report.stats.level_counts[2], 0);
        assert!(report.stats.level_counts[3] > 0);
        assert!(report
            .emissions
            .iter()
            .all(|e| e.verdict.level == InferenceLevel::EnergyOnly));
        // The gauge metered real traffic and every byte was released when
        // the session drained.
        assert!(gauge.peak() > 0, "held chunks must be charged");
        assert_eq!(gauge.charged(), 0, "a drained run must release everything");
    }

    /// A source whose every read panics.
    struct PanickingSource;

    impl SampleSource for PanickingSource {
        fn next_chunk(&mut self) -> Result<Option<SourceChunk>, SourceError> {
            panic!("injected chaos panic in the source")
        }
    }

    /// A live source with no data yet: every read fails transiently.
    struct SilentSource;

    impl SampleSource for SilentSource {
        fn next_chunk(&mut self) -> Result<Option<SourceChunk>, SourceError> {
            Err(SourceError::Transient("no data yet".into()))
        }
    }

    #[test]
    fn a_source_that_always_panics_exhausts_the_ingest_restart_budget() {
        let err = service(fast_config()).run(Box::new(PanickingSource)).unwrap_err();
        assert_eq!(
            err,
            StreamError::Supervision(SupervisionError::TooManyRestarts {
                stage: "ingest",
                restarts: 4
            })
        );
    }

    #[test]
    fn a_backoff_longer_than_the_run_timeout_ends_the_run_stalled() {
        let svc = service(StreamConfig {
            retry: RetryPolicy {
                base_delay: Duration::from_secs(2),
                max_delay: Duration::from_secs(2),
                ..RetryPolicy::default()
            },
            run_timeout: Duration::from_millis(100),
            ..fast_config()
        });
        let t0 = Instant::now();
        let err = svc.run(Box::new(SilentSource)).unwrap_err();
        assert_eq!(err, StreamError::Supervision(SupervisionError::Stalled));
        assert!(t0.elapsed() < Duration::from_secs(1), "took {:?}", t0.elapsed());
    }

    #[test]
    fn a_run_killed_mid_stream_releases_every_metered_byte() {
        let fix = fixture();
        let gauge = Arc::new(ByteGauge::new());
        let svc = service(StreamConfig { memory: Some(Arc::clone(&gauge)), ..fast_config() });
        let replay = ReplaySource::from_campaign(&fix.campaign, 256);
        let fatal_at = replay.remaining() as u64 / 2;
        let source = FlakySource::new(replay, 0.0, 1).with_fatal_at(fatal_at);
        let err = svc.run(Box::new(source)).unwrap_err();
        assert!(matches!(err, StreamError::Source(_)), "{err:?}");
        assert!(gauge.peak() > 0, "the run held metered bytes before it died");
        assert_eq!(gauge.charged(), 0, "a failed run must release everything");
    }
}
