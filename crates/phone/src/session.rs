//! Continuous recording sessions.
//!
//! The paper's data collection (§IV-A) plays clips of the same emotion
//! grouped together while the "Physics Toolbox Sensor Suite" records one
//! continuous accelerometer trace; labels are assigned by playback time.
//! [`RecordingSession`] reproduces that workflow: it concatenates clip
//! playbacks (with inter-clip gaps where only noise is recorded) and
//! returns the trace plus time-window labels.

use crate::accel::AccelTrace;
use crate::android::SamplingPolicy;
use crate::device::{DeviceProfile, SpeakerKind};
use crate::faults::{FaultLog, FaultProfile};
use crate::{Placement, VibrationChannel};
use emoleak_dsp::noise::Gaussian;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A labeled time window within a session trace, in samples of the trace.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LabeledSpan<L> {
    /// First sample of the window.
    pub start: usize,
    /// One past the last sample.
    pub end: usize,
    /// The label (the paper uses the acted emotion of the playback).
    pub label: L,
}

/// A continuous accelerometer recording with playback-time labels.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionTrace<L> {
    /// The recorded trace.
    pub trace: AccelTrace,
    /// One labeled window per played clip, in playback order.
    pub labels: Vec<LabeledSpan<L>>,
}

impl<L> SessionTrace<L> {
    /// The samples of the window for label entry `i`.
    ///
    /// Never panics: spans are clamped to the recorded trace, so a window
    /// that falls partly or wholly past the end of the recording (possible
    /// when fault injection shortened the trace) yields the surviving
    /// overlap — or an empty slice, as does an out-of-range `i`.
    pub fn window(&self, i: usize) -> &[f64] {
        let Some(span) = self.labels.get(i) else {
            return &[];
        };
        let end = span.end.min(self.trace.samples.len());
        let start = span.start.min(end);
        &self.trace.samples[start..end]
    }
}

/// A recording campaign for one (device, speaker, placement, policy) tuple.
#[derive(Debug, Clone)]
pub struct RecordingSession {
    channel: VibrationChannel,
    policy: SamplingPolicy,
    gap_s: f64,
    device_name: String,
    faults: FaultProfile,
}

impl RecordingSession {
    /// Creates a session on `device` playing through `kind` in `placement`.
    pub fn new(device: &DeviceProfile, kind: SpeakerKind, placement: Placement) -> Self {
        RecordingSession {
            channel: VibrationChannel::new(device, kind, placement),
            policy: SamplingPolicy::Default,
            gap_s: 0.25,
            device_name: device.name().to_string(),
            faults: FaultProfile::clean(),
        }
    }

    /// Applies an Android sampling policy to the recording app.
    #[must_use]
    pub fn with_policy(mut self, policy: SamplingPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Injects channel imperfections ([`FaultProfile`]) into every recording
    /// made by this session. The faulted irregular trace is regularized back
    /// onto the nominal grid before being returned, so downstream consumers
    /// keep seeing a uniform [`AccelTrace`]; fault accounting is available
    /// through [`RecordingSession::record_clip_logged`] and
    /// [`RecordingSession::record_session_logged`].
    #[must_use]
    pub fn with_faults(mut self, faults: FaultProfile) -> Self {
        self.faults = faults;
        self
    }

    /// The device this session records on.
    pub fn device_name(&self) -> &str {
        &self.device_name
    }

    /// The delivered accelerometer rate under the session's policy.
    pub fn delivered_rate(&self) -> f64 {
        self.policy.delivered_rate(self.channel.accel_rate_hz())
    }

    /// Records one clip in isolation (no session concatenation).
    pub fn record_clip<R: Rng + ?Sized>(
        &self,
        audio: &[f64],
        fs_audio: f64,
        rng: &mut R,
    ) -> AccelTrace {
        self.record_clip_logged(audio, fs_audio, rng).0
    }

    /// Records one clip and reports the faults injected into it.
    ///
    /// With a [`FaultProfile::clean`] profile (the default) the log is
    /// always clean and the trace matches [`RecordingSession::record_clip`].
    pub fn record_clip_logged<R: Rng + ?Sized>(
        &self,
        audio: &[f64],
        fs_audio: f64,
        rng: &mut R,
    ) -> (AccelTrace, FaultLog) {
        let clean = self.record_clip_clean(audio, fs_audio, rng);
        self.fault_and_regularize(clean, rng)
    }

    /// The ideal-channel recording: simulation + sampling policy, no faults.
    fn record_clip_clean<R: Rng + ?Sized>(
        &self,
        audio: &[f64],
        fs_audio: f64,
        rng: &mut R,
    ) -> AccelTrace {
        let raw = self.channel.simulate(audio, fs_audio, rng);
        self.policy.apply(raw)
    }

    /// Runs `trace` through the session's fault profile and regularizes the
    /// resulting irregular delivery back onto the nominal uniform grid.
    /// Degenerate outcomes (every sample dropped) yield an empty trace, not
    /// an error — downstream guards handle empty input.
    fn fault_and_regularize<R: Rng + ?Sized>(
        &self,
        trace: AccelTrace,
        rng: &mut R,
    ) -> (AccelTrace, FaultLog) {
        if self.faults.is_noop() {
            return (trace, FaultLog::default());
        }
        let fs = trace.fs;
        let (timed, log) = self.faults.apply(&trace, rng);
        // Interpolate across ordinary delivery hiccups (a handful of nominal
        // periods, wider when thermal throttling legitimately slows the
        // cadence) but rest-fill longer blackouts such as doze suspensions.
        let period = 1.0 / fs;
        let mut max_gap = 8.0 * period;
        if !self.faults.throttle.is_off() && self.faults.throttle.rate_factor > 0.0 {
            max_gap = max_gap.max(3.0 * period / self.faults.throttle.rate_factor);
        }
        match timed.regularize(max_gap) {
            Ok(regular) => (regular, log),
            Err(_) => (AccelTrace { samples: Vec::new(), fs }, log),
        }
    }

    /// Plays `clips` back-to-back (with gaps) into one continuous recording,
    /// labeling each playback window.
    ///
    /// Clips should be pre-grouped by emotion by the caller if the paper's
    /// grouped-playback protocol is wanted; the session does not reorder.
    pub fn record_session<L: Clone, R: Rng + ?Sized>(
        &self,
        clips: impl IntoIterator<Item = (Vec<f64>, f64, L)>,
        rng: &mut R,
    ) -> SessionTrace<L> {
        self.record_session_logged(clips, rng).0
    }

    /// Like [`RecordingSession::record_session`], also returning the
    /// campaign-wide fault accounting.
    ///
    /// Faults are injected into the *continuous* recording (after
    /// concatenation), as a real background recorder would experience them:
    /// doze blackouts and thermal throttling act on wall-clock recording
    /// time, not per clip. Label spans keep their nominal sample indices —
    /// timestamps survive regularization, so windows stay aligned to within
    /// a few samples — and [`SessionTrace::window`] clamps spans that
    /// outlive a fault-shortened trace.
    ///
    /// One seed is drawn from `rng` and the rest of the recording runs on
    /// per-clip derived streams (see
    /// [`RecordingSession::record_session_seeded`]), so the channel noise
    /// is identical however many workers record the session.
    pub fn record_session_logged<L: Clone, R: Rng + ?Sized>(
        &self,
        clips: impl IntoIterator<Item = (Vec<f64>, f64, L)>,
        rng: &mut R,
    ) -> (SessionTrace<L>, FaultLog) {
        let session_seed = rng.next_u64();
        self.record_session_seeded(clips.into_iter().collect(), session_seed)
    }

    /// Records one continuous session from an explicit seed, with each
    /// clip's channel noise drawn from its own RNG stream derived from
    /// `(seed, clip_index)` — the determinism contract that lets the clips
    /// be simulated **in parallel** (worker count cannot affect the trace,
    /// because no clip shares a random stream with any other, and the
    /// posture-drift and fault-injection stages run on dedicated streams
    /// over the concatenated trace in playback order).
    pub fn record_session_seeded<L: Clone>(
        &self,
        clips: Vec<(Vec<f64>, f64, L)>,
        seed: u64,
    ) -> (SessionTrace<L>, FaultLog) {
        use rand::SeedableRng;
        // Dedicated streams: clip i uses stream i; whole-trace stages use
        // high-bit streams that no clip index can reach.
        const DRIFT_STREAM: u64 = 1 << 63;
        const FAULT_STREAM: u64 = (1 << 63) | 1;
        let fs_out = self.delivered_rate();
        let gap_len = (self.gap_s * fs_out) as usize;
        let (payloads, label_payloads): (Vec<(Vec<f64>, f64)>, Vec<L>) = clips
            .into_iter()
            .map(|(audio, fs_audio, label)| ((audio, fs_audio), label))
            .unzip();
        // Per-clip recording (gap first, then the playback) on stream i.
        let recorded: Vec<(Vec<f64>, Vec<f64>)> =
            emoleak_exec::par_map_indexed(&payloads, |i, (audio, fs_audio)| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(
                    emoleak_exec::derive_seed(seed, i as u64),
                );
                let silent = vec![0.0; (self.gap_s * fs_audio) as usize];
                let gap_trace = self.record_clip_clean(&silent, *fs_audio, &mut rng);
                let clip_trace = self.record_clip_clean(audio, *fs_audio, &mut rng);
                (gap_trace.samples, clip_trace.samples)
            });
        // Concatenation in playback order — index-ordered, never
        // completion-ordered.
        let mut samples: Vec<f64> = Vec::new();
        let mut labels = Vec::new();
        for ((gap, clip), label) in recorded.into_iter().zip(label_payloads) {
            samples.extend(gap.into_iter().take(gap_len));
            let start = samples.len();
            samples.extend(clip);
            labels.push(LabeledSpan { start, end: samples.len(), label });
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(
            emoleak_exec::derive_seed(seed, DRIFT_STREAM),
        );
        // Handheld sessions additionally carry a continuous posture drift:
        // the holder's arm slowly settles and shifts over tens of seconds,
        // moving the gravity projection on the z axis. This is the slow
        // component that the paper's 1 Hz high-pass ablation (Table I)
        // removes.
        if self.channel.placement() == Placement::Handheld {
            add_posture_drift(
                &mut samples,
                fs_out,
                6.0 * self.channel.motion_noise_std(),
                &mut rng,
            );
        }
        let mut fault_rng = rand::rngs::StdRng::seed_from_u64(
            emoleak_exec::derive_seed(seed, FAULT_STREAM),
        );
        let (trace, log) =
            self.fault_and_regularize(AccelTrace { samples, fs: fs_out }, &mut fault_rng);
        (SessionTrace { trace, labels }, log)
    }
}

/// Adds a leaky-random-walk posture drift (correlation time ~12 s,
/// stationary standard deviation `std`) to a session trace in place.
fn add_posture_drift<R: Rng + ?Sized>(samples: &mut [f64], fs: f64, std: f64, rng: &mut R) {
    let tau_s = 25.0;
    let a = (-1.0 / (tau_s * fs)).exp();
    let sigma_w = std * (1.0 - a * a).sqrt();
    let mut gauss = Gaussian::new();
    let mut drift = gauss.sample(rng, 0.0, std);
    for v in samples.iter_mut() {
        drift = a * drift + gauss.sample(rng, 0.0, sigma_w);
        *v += drift;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    fn session() -> RecordingSession {
        RecordingSession::new(
            &DeviceProfile::oneplus_7t(),
            SpeakerKind::Loudspeaker,
            Placement::TableTop,
        )
    }

    fn tone_clip(n: usize) -> Vec<f64> {
        (0..n).map(|i| 0.4 * (i as f64 * 0.5).sin()).collect()
    }

    #[test]
    fn record_clip_outputs_device_rate() {
        let t = session().record_clip(&tone_clip(8000), 8000.0, &mut rng(1));
        assert_eq!(t.fs, 420.0);
    }

    #[test]
    fn capped_session_outputs_200hz() {
        let s = session().with_policy(SamplingPolicy::Capped200Hz);
        assert_eq!(s.delivered_rate(), 200.0);
        let t = s.record_clip(&tone_clip(8000), 8000.0, &mut rng(2));
        assert_eq!(t.fs, 200.0);
    }

    #[test]
    fn session_labels_cover_each_clip() {
        let clips = vec![
            (tone_clip(4000), 8000.0, "anger"),
            (tone_clip(4000), 8000.0, "sad"),
        ];
        let st = session().record_session(clips, &mut rng(3));
        assert_eq!(st.labels.len(), 2);
        assert_eq!(st.labels[0].label, "anger");
        assert!(st.labels[0].start > 0, "gap precedes first clip");
        assert!(st.labels[0].end <= st.labels[1].start);
        assert_eq!(st.labels[1].end, st.trace.samples.len());
        // Each ~0.5 s clip occupies ~210 samples at 420 Hz.
        let w = st.window(0);
        assert!((w.len() as f64 - 210.0).abs() < 10.0, "window len {}", w.len());
    }

    #[test]
    fn clip_windows_carry_signal_gaps_carry_noise() {
        let clips = vec![(tone_clip(8000), 8000.0, ())];
        let st = session().record_session(clips, &mut rng(4));
        let span = &st.labels[0];
        let rms = |x: &[f64]| (x.iter().map(|v| v * v).sum::<f64>() / x.len() as f64).sqrt();
        let gap_rms = rms(&st.trace.samples[..span.start]);
        let clip_rms = rms(st.window(0));
        assert!(clip_rms > 4.0 * gap_rms, "clip {clip_rms} vs gap {gap_rms}");
    }

    #[test]
    fn handheld_session_carries_slow_posture_drift() {
        // The drift should dominate low frequencies and correlate over
        // seconds: the windowed means of a silent handheld session vary far
        // more than a table-top one's.
        let d = DeviceProfile::oneplus_7t();
        let silent: Vec<(Vec<f64>, f64, ())> =
            (0..20).map(|_| (vec![0.0; 8000], 8000.0, ())).collect();
        let hand = RecordingSession::new(&d, SpeakerKind::EarSpeaker, Placement::Handheld)
            .record_session(silent.clone(), &mut rng(21));
        let table = RecordingSession::new(&d, SpeakerKind::Loudspeaker, Placement::TableTop)
            .record_session(silent, &mut rng(21));
        let window_mean_spread = |x: &[f64]| {
            let w = 420; // ~1 s windows
            let means: Vec<f64> = x.chunks(w).map(|c| c.iter().sum::<f64>() / c.len() as f64).collect();
            let m = means.iter().sum::<f64>() / means.len() as f64;
            (means.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / means.len() as f64).sqrt()
        };
        let hs = window_mean_spread(&hand.trace.samples);
        let ts = window_mean_spread(&table.trace.samples);
        assert!(hs > 10.0 * ts, "handheld drift {hs:.4} vs table-top {ts:.6}");
        // And consecutive windows are correlated (slow process, ~25 s).
        let w = 420;
        let means: Vec<f64> = hand.trace.samples.chunks(w)
            .map(|c| c.iter().sum::<f64>() / c.len() as f64)
            .collect();
        let r = emoleak_dsp::stats::pearson(&means[..means.len() - 1], &means[1..]);
        assert!(r > 0.5, "adjacent-second drift correlation {r:.2}");
    }

    #[test]
    fn coupling_scale_zero_silences_the_channel() {
        let d = DeviceProfile::oneplus_7t().with_coupling_scale(0.0);
        let s = RecordingSession::new(&d, SpeakerKind::Loudspeaker, Placement::TableTop);
        let t = s.record_clip(&tone_clip(8000), 8000.0, &mut rng(22));
        // Only sensor noise remains.
        let rms = (t.samples.iter().map(|v| v * v).sum::<f64>() / t.samples.len() as f64).sqrt();
        assert!(rms < 0.005, "silenced channel rms {rms}");
    }

    #[test]
    fn window_clamps_out_of_range_spans() {
        let st = SessionTrace {
            trace: AccelTrace { samples: vec![1.0, 2.0, 3.0], fs: 420.0 },
            labels: vec![
                LabeledSpan { start: 1, end: 3, label: () },
                LabeledSpan { start: 2, end: 10, label: () },
                LabeledSpan { start: 7, end: 10, label: () },
            ],
        };
        assert_eq!(st.window(0), &[2.0, 3.0]);
        assert_eq!(st.window(1), &[3.0]); // end clamped
        assert!(st.window(2).is_empty()); // start past trace
        assert!(st.window(99).is_empty()); // index out of range
    }

    #[test]
    fn faulted_clip_keeps_nominal_rate_and_logs_faults() {
        let s = session().with_faults(FaultProfile::handheld_walking());
        let (t, log) = s.record_clip_logged(&tone_clip(16000), 8000.0, &mut rng(31));
        assert_eq!(t.fs, 420.0);
        assert!(!log.is_clean(), "expected injected faults, log: {log}");
        assert!(log.dropped > 0);
        assert!(t.samples.iter().all(|v| v.is_finite()));
        // ~2 s of audio still ~2 s of trace after regularization.
        assert!((t.duration() - 2.0).abs() < 0.1, "duration {}", t.duration());
    }

    #[test]
    fn clean_profile_logged_matches_unlogged() {
        let audio = tone_clip(8000);
        let a = session().record_clip(&audio, 8000.0, &mut rng(32));
        let (b, log) = session().record_clip_logged(&audio, 8000.0, &mut rng(32));
        assert!(log.is_clean());
        assert_eq!(a, b);
    }

    #[test]
    fn faulted_session_keeps_label_alignment() {
        let clips = vec![
            (tone_clip(8000), 8000.0, "anger"),
            (tone_clip(8000), 8000.0, "sad"),
        ];
        // Delivery faults only (drops/dups/jitter): motion bursts would add
        // energy to the gaps and confound the alignment check below.
        let s = session().with_faults(FaultProfile {
            drop_rate: 0.05,
            dup_rate: 0.02,
            jitter_std_s: 0.5e-3,
            ..FaultProfile::clean()
        });
        let (st, log) = s.record_session_logged(clips, &mut rng(33));
        assert!(!log.is_clean());
        assert_eq!(st.labels.len(), 2);
        // Windows still carry the clip energy: signal ≫ the preceding gap.
        let rms = |x: &[f64]| {
            if x.is_empty() {
                return 0.0;
            }
            (x.iter().map(|v| v * v).sum::<f64>() / x.len() as f64).sqrt()
        };
        let gap_rms = rms(&st.trace.samples[..st.labels[0].start.min(st.trace.samples.len())]);
        let clip_rms = rms(st.window(0));
        assert!(
            clip_rms > 2.0 * gap_rms,
            "alignment lost: clip {clip_rms} vs gap {gap_rms}"
        );
    }

    #[test]
    fn seeded_session_is_identical_across_worker_counts() {
        let clips: Vec<(Vec<f64>, f64, usize)> =
            (0..6).map(|r| (tone_clip(4000), 8000.0, r)).collect();
        let s = RecordingSession::new(
            &DeviceProfile::oneplus_7t(),
            SpeakerKind::EarSpeaker,
            Placement::Handheld,
        )
        .with_faults(FaultProfile::handheld_walking());
        let run = |n: usize| {
            emoleak_exec::with_threads(n, || s.record_session_seeded(clips.clone(), 0xD5))
        };
        let (a, log_a) = run(1);
        for n in [2, 8] {
            let (b, log_b) = run(n);
            let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&a.trace.samples), bits(&b.trace.samples), "{n} workers");
            assert_eq!(a.labels, b.labels);
            assert_eq!(log_a, log_b);
        }
    }

    #[test]
    fn logged_session_draws_one_seed_then_delegates() {
        // record_session_logged must equal record_session_seeded with the
        // seed the caller's RNG would produce next.
        let clips = vec![(tone_clip(4000), 8000.0, "anger")];
        let mut r = rng(40);
        let expected_seed = r.next_u64();
        let (a, _) = session().record_session_logged(clips.clone(), &mut rng(40));
        let (b, _) = session().record_session_seeded(clips, expected_seed);
        assert_eq!(a, b);
    }

    #[test]
    fn total_drop_profile_yields_empty_trace_not_panic() {
        let p = FaultProfile { drop_rate: 1.0, ..FaultProfile::clean() }
            .with_severity(10.0); // clamps at 0.95 — still nearly everything
        let s = session().with_faults(p);
        let (t, log) = s.record_clip_logged(&tone_clip(4000), 8000.0, &mut rng(34));
        assert!(log.dropped > 0);
        assert!(t.samples.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn handheld_ear_speaker_is_noisier_relative_to_signal() {
        let d = DeviceProfile::oneplus_7t();
        let loud = RecordingSession::new(&d, SpeakerKind::Loudspeaker, Placement::TableTop);
        let ear = RecordingSession::new(&d, SpeakerKind::EarSpeaker, Placement::Handheld);
        let audio = tone_clip(16000);
        let rms = |x: &[f64]| (x.iter().map(|v| v * v).sum::<f64>() / x.len() as f64).sqrt();
        // Compare silent-gap noise to in-clip signal for both settings.
        let silent = vec![0.0; 16000];
        let loud_sig = rms(&loud.record_clip(&audio, 8000.0, &mut rng(5)).samples);
        let loud_noise = rms(&loud.record_clip(&silent, 8000.0, &mut rng(6)).samples);
        let ear_sig = rms(&ear.record_clip(&audio, 8000.0, &mut rng(7)).samples);
        let ear_noise = rms(&ear.record_clip(&silent, 8000.0, &mut rng(8)).samples);
        let loud_snr = loud_sig / loud_noise;
        let ear_snr = ear_sig / ear_noise;
        assert!(
            loud_snr > 1.5 * ear_snr,
            "loudspeaker SNR {loud_snr:.1} should exceed ear SNR {ear_snr:.2}"
        );
    }
}
