//! Sample sources: where the online service's accelerometer chunks come
//! from.
//!
//! The service is source-agnostic — it consumes any [`SampleSource`]. The
//! repo ships replay sources backed by the phone simulator
//! ([`ReplaySource`]), including fault-injected recordings, plus a
//! [`FlakySource`] decorator that makes any source fail transiently with a
//! seeded probability (the HAL-flakiness counterpart of the channel-level
//! [`emoleak_phone::FaultProfile`]).

use emoleak_core::online::RecordedCampaign;
use emoleak_phone::replay::{ChunkValidator, ReplayChunk};
use emoleak_phone::session::{LabeledSpan, SessionTrace};
use emoleak_phone::AccelTrace;

/// The chunk type the service consumes: a [`ReplayChunk`] whose label is
/// the ground-truth class index (carried along for scoring only — the
/// service never uses it for inference).
pub type SourceChunk = ReplayChunk<usize>;

/// Why a source read failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SourceError {
    /// Retry with backoff: the read may succeed next time, without loss
    /// (sources are at-least-once across transient failures).
    Transient(String),
    /// The stream is dead; the service shuts down with an error.
    Fatal(String),
}

impl core::fmt::Display for SourceError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SourceError::Transient(why) => write!(f, "transient source error: {why}"),
            SourceError::Fatal(why) => write!(f, "fatal source error: {why}"),
        }
    }
}

impl std::error::Error for SourceError {}

/// A pull-based feed of accelerometer chunks.
///
/// `Ok(None)` means end of stream (delivered reliably — a source must not
/// fail the end-of-stream read). A [`SourceError::Transient`] read must be
/// lossless: the service retries it with backoff and expects the chunk it
/// would have gotten.
///
/// `next_chunk` must return in bounded time. The service calls it on the
/// caller's thread and checks its `run_timeout` only between calls, so a
/// live source with no data yet returns [`SourceError::Transient`] rather
/// than blocking; the retry backoff then paces the polling.
pub trait SampleSource: Send {
    /// Pulls the next chunk.
    ///
    /// # Errors
    ///
    /// [`SourceError::Transient`] for retryable failures,
    /// [`SourceError::Fatal`] when the stream cannot continue.
    fn next_chunk(&mut self) -> Result<Option<SourceChunk>, SourceError>;
}

impl<S: SampleSource + ?Sized> SampleSource for Box<S> {
    fn next_chunk(&mut self) -> Result<Option<SourceChunk>, SourceError> {
        (**self).next_chunk()
    }
}

/// Decorates any source with hostile-input screening: every delivered chunk
/// passes through a [`ChunkValidator`] (NaN/Inf samples, non-monotonic or
/// duplicate timestamps, reopened windows), and the first defect kills the
/// stream with [`SourceError::Fatal`].
///
/// Fatal, not transient, on purpose: a poisoned or replayed stream is an
/// integrity failure, and retrying would hand the attacker-controlled chunk
/// straight back to the retry loop. Transient errors and end-of-stream pass
/// through unvalidated — there is no chunk to screen.
#[derive(Debug)]
pub struct ValidatingSource<S> {
    inner: S,
    validator: ChunkValidator,
}

impl<S: SampleSource> ValidatingSource<S> {
    /// Wraps `inner` with a fresh validator.
    pub fn new(inner: S) -> Self {
        ValidatingSource { inner, validator: ChunkValidator::default() }
    }
}

impl<S: SampleSource> SampleSource for ValidatingSource<S> {
    fn next_chunk(&mut self) -> Result<Option<SourceChunk>, SourceError> {
        match self.inner.next_chunk() {
            Ok(Some(chunk)) => match self.validator.check(&chunk) {
                Ok(()) => Ok(Some(chunk)),
                Err(defect) => {
                    Err(SourceError::Fatal(format!("hostile input rejected: {defect}")))
                }
            },
            other => other,
        }
    }
}

/// Replays a recorded campaign or session as a clean chunk stream.
///
/// Chunking matches [`SessionTrace::chunks`]: windows in playback order,
/// `chunk_len`-sample chunks, one empty flagged chunk for a window emptied
/// by fault injection. Draining a `ReplaySource` therefore visits exactly
/// the windows the batch pipeline iterates.
#[derive(Debug, Clone)]
pub struct ReplaySource {
    chunks: std::vec::IntoIter<SourceChunk>,
}

impl ReplaySource {
    /// Replays a labeled session trace.
    pub fn from_session(session: &SessionTrace<usize>, chunk_len: usize) -> Self {
        ReplaySource { chunks: session.chunks(chunk_len).collect::<Vec<_>>().into_iter() }
    }

    /// Replays the stage-1 output of a batch campaign
    /// ([`emoleak_core::AttackScenario::record_windows`]) — the source used
    /// to prove streaming/batch equivalence, since both sides then see the
    /// very same windows.
    pub fn from_campaign(campaign: &RecordedCampaign, chunk_len: usize) -> Self {
        let mut samples = Vec::new();
        let mut labels = Vec::new();
        for (window, _truth, label) in &campaign.windows {
            let start = samples.len();
            samples.extend_from_slice(window);
            labels.push(LabeledSpan { start, end: samples.len(), label: *label });
        }
        let session =
            SessionTrace { trace: AccelTrace { samples, fs: campaign.fs }, labels };
        Self::from_session(&session, chunk_len)
    }

    /// Chunks remaining to deliver.
    pub fn remaining(&self) -> usize {
        self.chunks.len()
    }
}

impl SampleSource for ReplaySource {
    fn next_chunk(&mut self) -> Result<Option<SourceChunk>, SourceError> {
        Ok(self.chunks.next())
    }
}

/// Decorates any source with seeded transient failures (and optionally a
/// single fatal failure), for retry and chaos testing.
///
/// Failure draws are a pure function of `(seed, attempt_index)`, so a chaos
/// run is reproducible end to end. Transient failures are lossless — the
/// inner source is only pulled on success paths.
#[derive(Debug)]
pub struct FlakySource<S> {
    inner: S,
    fail_rate: f64,
    seed: u64,
    draws: u64,
    /// Fail fatally on the n-th read (0-based), if set.
    fatal_at: Option<u64>,
    reads: u64,
}

impl<S: SampleSource> FlakySource<S> {
    /// Wraps `inner`; each read fails transiently with probability
    /// `fail_rate` (clamped to `[0, 0.95]` so liveness stays falsifiable).
    pub fn new(inner: S, fail_rate: f64, seed: u64) -> Self {
        FlakySource {
            inner,
            fail_rate: fail_rate.clamp(0.0, 0.95),
            seed,
            draws: 0,
            fatal_at: None,
            reads: 0,
        }
    }

    /// Makes the `n`-th read (0-based, counting successful and transiently
    /// failed reads alike) fail fatally.
    #[must_use]
    pub fn with_fatal_at(mut self, n: u64) -> Self {
        self.fatal_at = Some(n);
        self
    }
}

impl<S: SampleSource> SampleSource for FlakySource<S> {
    fn next_chunk(&mut self) -> Result<Option<SourceChunk>, SourceError> {
        let read = self.reads;
        self.reads += 1;
        if self.fatal_at == Some(read) {
            return Err(SourceError::Fatal("injected fatal source failure".into()));
        }
        let mut stream = emoleak_exec::derive_seed(self.seed, self.draws);
        self.draws += 1;
        let uniform =
            (emoleak_exec::splitmix64(&mut stream) >> 11) as f64 / (1u64 << 53) as f64;
        if uniform < self.fail_rate {
            return Err(SourceError::Transient("injected sensor read failure".into()));
        }
        self.inner.next_chunk()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn session() -> SessionTrace<usize> {
        let samples: Vec<f64> = (0..40).map(f64::from).collect();
        SessionTrace {
            trace: AccelTrace { samples, fs: 420.0 },
            labels: vec![
                LabeledSpan { start: 0, end: 17, label: 2 },
                LabeledSpan { start: 17, end: 40, label: 5 },
            ],
        }
    }

    fn drain(source: &mut dyn SampleSource) -> (Vec<SourceChunk>, u64) {
        let mut out = Vec::new();
        let mut transients = 0;
        loop {
            match source.next_chunk() {
                Ok(Some(c)) => out.push(c),
                Ok(None) => return (out, transients),
                Err(SourceError::Transient(_)) => transients += 1,
                Err(SourceError::Fatal(e)) => panic!("unexpected fatal: {e}"),
            }
        }
    }

    #[test]
    fn replay_source_delivers_the_whole_session() {
        let st = session();
        let mut src = ReplaySource::from_session(&st, 8);
        assert_eq!(src.remaining(), 3 + 3);
        let (chunks, _) = drain(&mut src);
        let rebuilt: Vec<f64> = chunks
            .iter()
            .filter(|c| c.window == 1)
            .flat_map(|c| c.samples.iter().copied())
            .collect();
        assert_eq!(rebuilt, st.window(1));
        // End of stream is stable.
        assert_eq!(src.next_chunk(), Ok(None));
        assert_eq!(src.next_chunk(), Ok(None));
    }

    #[test]
    fn flaky_source_is_lossless_and_seed_deterministic() {
        let st = session();
        let (clean, _) = drain(&mut ReplaySource::from_session(&st, 8));
        let run = |seed| {
            let mut src = FlakySource::new(ReplaySource::from_session(&st, 8), 0.6, seed);
            drain(&mut src)
        };
        let (a, ta) = run(11);
        assert_eq!(a, clean, "transient failures must not lose chunks");
        assert!(ta > 0);
        let (b, tb) = run(11);
        assert_eq!((a, ta), (b, tb), "failure pattern is a function of the seed");
        let (_, tc) = run(12);
        assert_ne!(ta, tc, "different seeds give different failure patterns");
    }

    #[test]
    fn validating_source_passes_honest_streams_untouched() {
        let st = session();
        let (clean, _) = drain(&mut ReplaySource::from_session(&st, 8));
        let mut src = ValidatingSource::new(ReplaySource::from_session(&st, 8));
        let (screened, _) = drain(&mut src);
        assert_eq!(screened, clean);
        assert_eq!(src.next_chunk(), Ok(None));
    }

    #[test]
    fn validating_source_kills_poisoned_streams() {
        struct Poisoned(u64);
        impl SampleSource for Poisoned {
            fn next_chunk(&mut self) -> Result<Option<SourceChunk>, SourceError> {
                let read = self.0;
                self.0 += 1;
                let samples = if read == 1 { vec![f64::NAN] } else { vec![1.0, 2.0] };
                Ok(Some(ReplayChunk {
                    window: read as usize,
                    offset: 0,
                    samples,
                    label: 0,
                    last_in_window: true,
                }))
            }
        }
        let mut src = ValidatingSource::new(Poisoned(0));
        assert!(src.next_chunk().is_ok());
        match src.next_chunk() {
            Err(SourceError::Fatal(msg)) => {
                assert!(msg.contains("hostile input"), "{msg}");
                assert!(msg.contains("non-finite"), "{msg}");
            }
            other => panic!("poisoned chunk must be fatal, got {other:?}"),
        }
    }

    #[test]
    fn fatal_read_surfaces_as_fatal() {
        let st = session();
        let mut src =
            FlakySource::new(ReplaySource::from_session(&st, 8), 0.0, 1).with_fatal_at(2);
        assert!(src.next_chunk().is_ok());
        assert!(src.next_chunk().is_ok());
        assert!(matches!(src.next_chunk(), Err(SourceError::Fatal(_))));
    }
}
