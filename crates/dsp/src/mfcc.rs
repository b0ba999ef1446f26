//! Mel-frequency cepstral coefficients.
//!
//! The audio-domain emotion recognizers the paper compares against
//! (Table VII: Zeeshan et al., Pappagari et al., Gokilavani et al.) are
//! MFCC-based. This module provides the MFCC front end used by the
//! reproduction's audio-domain baseline, implemented from scratch:
//! STFT → mel filterbank → log → DCT-II.

use crate::{fft::next_pow2, window::Window, Fft};
use serde::{Deserialize, Serialize};

/// MFCC extraction parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MfccConfig {
    /// Number of mel filterbank channels.
    pub num_filters: usize,
    /// Number of cepstral coefficients to keep (including C0).
    pub num_coeffs: usize,
    /// Analysis frame length in samples.
    pub frame_len: usize,
    /// Hop between frames in samples.
    pub hop: usize,
    /// Lowest filterbank edge in Hz.
    pub low_hz: f64,
    /// Highest filterbank edge in Hz (clamped to Nyquist).
    pub high_hz: f64,
}

impl Default for MfccConfig {
    fn default() -> Self {
        MfccConfig {
            num_filters: 26,
            num_coeffs: 13,
            frame_len: 200, // 25 ms at 8 kHz
            hop: 80,        // 10 ms at 8 kHz
            low_hz: 50.0,
            high_hz: 4000.0,
        }
    }
}

/// Converts Hz to mel (HTK formula).
#[inline]
pub fn hz_to_mel(hz: f64) -> f64 {
    2595.0 * (1.0 + hz / 700.0).log10()
}

/// Converts mel to Hz (HTK formula).
#[inline]
pub fn mel_to_hz(mel: f64) -> f64 {
    700.0 * (10f64.powf(mel / 2595.0) - 1.0)
}

/// An MFCC extractor for a fixed sampling rate.
#[derive(Debug, Clone)]
pub struct MfccExtractor {
    config: MfccConfig,
    fft: Fft,
    window: Vec<f64>,
    /// Triangular filterbank: per filter, (start bin, weights).
    filters: Vec<(usize, Vec<f64>)>,
}

impl MfccExtractor {
    /// Builds the extractor (precomputes the FFT plan and mel filterbank).
    ///
    /// # Panics
    ///
    /// Panics if `fs` is not positive or the configuration is degenerate
    /// (zero filters/coefficients, `num_coeffs > num_filters`).
    pub fn new(config: MfccConfig, fs: f64) -> Self {
        assert!(fs > 0.0, "sampling rate must be positive");
        assert!(config.num_filters > 0 && config.num_coeffs > 0, "degenerate configuration");
        assert!(
            config.num_coeffs <= config.num_filters,
            "cannot keep more coefficients than filters"
        );
        let n_fft = next_pow2(config.frame_len);
        let fft = Fft::new(n_fft);
        let window = Window::Hamming.coefficients(config.frame_len);
        let bins = n_fft / 2 + 1;
        let high = config.high_hz.min(fs / 2.0);
        let low_mel = hz_to_mel(config.low_hz);
        let high_mel = hz_to_mel(high);
        // Filter edge frequencies, equally spaced in mel.
        let edges: Vec<f64> = (0..config.num_filters + 2)
            .map(|i| {
                let mel = low_mel + (high_mel - low_mel) * i as f64 / (config.num_filters + 1) as f64;
                mel_to_hz(mel)
            })
            .collect();
        let bin_hz = fs / n_fft as f64;
        let mut filters = Vec::with_capacity(config.num_filters);
        for f in 0..config.num_filters {
            let (lo, center, hi) = (edges[f], edges[f + 1], edges[f + 2]);
            let start_bin = (lo / bin_hz).ceil() as usize;
            let end_bin = ((hi / bin_hz).floor() as usize).min(bins - 1);
            let mut weights = Vec::new();
            for k in start_bin..=end_bin {
                let freq = k as f64 * bin_hz;
                let w = if freq <= center {
                    (freq - lo) / (center - lo).max(1e-12)
                } else {
                    (hi - freq) / (hi - center).max(1e-12)
                };
                weights.push(w.max(0.0));
            }
            filters.push((start_bin, weights));
        }
        MfccExtractor { config, fft, window, filters }
    }

    /// MFCCs for one analysis frame (length `config.frame_len`).
    ///
    /// # Panics
    ///
    /// Panics if `frame.len() != config.frame_len`.
    pub fn frame_mfcc(&self, frame: &[f64]) -> Vec<f64> {
        assert_eq!(frame.len(), self.config.frame_len, "frame length mismatch");
        let mut windowed = frame.to_vec();
        Window::apply_with(&self.window, &mut windowed);
        let power = self.fft.power_spectrum(&windowed);
        // Mel filterbank energies → log.
        let log_energies: Vec<f64> = self
            .filters
            .iter()
            .map(|(start, weights)| {
                let e: f64 = weights
                    .iter()
                    .enumerate()
                    .map(|(i, w)| w * power.get(start + i).copied().unwrap_or(0.0))
                    .sum();
                e.max(1e-12).ln()
            })
            .collect();
        // DCT-II, orthonormal-ish scaling.
        let m = log_energies.len() as f64;
        (0..self.config.num_coeffs)
            .map(|c| {
                log_energies
                    .iter()
                    .enumerate()
                    .map(|(j, &le)| {
                        le * (std::f64::consts::PI * c as f64 * (j as f64 + 0.5) / m).cos()
                    })
                    .sum::<f64>()
                    * (2.0 / m).sqrt()
            })
            .collect()
    }

    /// Mean and standard deviation of each coefficient over all frames of a
    /// signal — a fixed-length utterance descriptor (`2 × num_coeffs`).
    /// Returns `None` if the signal is shorter than one frame.
    pub fn utterance_descriptor(&self, signal: &[f64]) -> Option<Vec<f64>> {
        let fl = self.config.frame_len;
        if signal.len() < fl {
            return None;
        }
        let frames: Vec<Vec<f64>> = (0..)
            .map(|t| t * self.config.hop)
            .take_while(|start| start + fl <= signal.len())
            .map(|start| self.frame_mfcc(&signal[start..start + fl]))
            .collect();
        let n = frames.len() as f64;
        let c = self.config.num_coeffs;
        let mut out = Vec::with_capacity(2 * c);
        for j in 0..c {
            let mean = frames.iter().map(|f| f[j]).sum::<f64>() / n;
            out.push(mean);
        }
        for j in 0..c {
            let mean = out[j];
            let var = frames.iter().map(|f| (f[j] - mean).powi(2)).sum::<f64>() / n;
            out.push(var.sqrt());
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn extractor() -> MfccExtractor {
        MfccExtractor::new(MfccConfig::default(), 8000.0)
    }

    fn tone(freq: f64, n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| (2.0 * std::f64::consts::PI * freq * i as f64 / 8000.0).sin())
            .collect()
    }

    #[test]
    fn mel_scale_round_trips() {
        for hz in [50.0, 300.0, 1000.0, 3999.0] {
            assert!((mel_to_hz(hz_to_mel(hz)) - hz).abs() < 1e-6);
        }
        // 1000 Hz ~ 1000 mel by construction of the HTK formula.
        assert!((hz_to_mel(1000.0) - 999.99).abs() < 0.5);
    }

    #[test]
    fn frame_mfcc_has_requested_length() {
        let ex = extractor();
        let frame = tone(440.0, 200);
        assert_eq!(ex.frame_mfcc(&frame).len(), 13);
    }

    #[test]
    fn different_spectra_give_different_cepstra() {
        let ex = extractor();
        let a = ex.frame_mfcc(&tone(300.0, 200));
        let b = ex.frame_mfcc(&tone(2000.0, 200));
        let dist: f64 = a.iter().zip(&b).map(|(x, y)| (x - y).powi(2)).sum();
        assert!(dist > 1.0, "cepstral distance {dist}");
    }

    #[test]
    fn louder_signal_raises_c0_only_roughly() {
        let ex = extractor();
        let quiet = ex.frame_mfcc(&tone(500.0, 200).iter().map(|v| v * 0.1).collect::<Vec<_>>());
        let loud = ex.frame_mfcc(&tone(500.0, 200));
        // C0 tracks log energy; shape coefficients barely move.
        assert!(loud[0] > quiet[0] + 1.0);
        assert!((loud[3] - quiet[3]).abs() < 0.3);
    }

    #[test]
    fn utterance_descriptor_shape_and_short_input() {
        let ex = extractor();
        let d = ex.utterance_descriptor(&tone(440.0, 4000)).unwrap();
        assert_eq!(d.len(), 26);
        assert!(ex.utterance_descriptor(&[0.0; 50]).is_none());
    }

    #[test]
    fn amplitude_modulation_raises_c0_variance() {
        let ex = extractor();
        let stationary = ex.utterance_descriptor(&tone(440.0, 8000)).unwrap();
        // 3 Hz amplitude modulation (syllable-like) makes frame energies —
        // and hence C0 — fluctuate far more than the stationary tone.
        let am: Vec<f64> = tone(440.0, 8000)
            .iter()
            .enumerate()
            .map(|(i, v)| {
                let t = i as f64 / 8000.0;
                v * 0.5 * (1.0 + (2.0 * std::f64::consts::PI * 3.0 * t).sin())
            })
            .collect();
        let modulated = ex.utterance_descriptor(&am).unwrap();
        assert!(
            modulated[13] > 1.5 * stationary[13],
            "AM C0 std {:.2} vs stationary {:.2}",
            modulated[13],
            stationary[13]
        );
    }

    #[test]
    #[should_panic(expected = "frame length")]
    fn wrong_frame_length_panics() {
        extractor().frame_mfcc(&[0.0; 64]);
    }
}
