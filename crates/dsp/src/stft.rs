//! Short-time Fourier transform and power spectrograms.
//!
//! Figures 2–4 of the paper are spectrograms of accelerometer traces; the
//! spectrogram classifier (§IV-C) consumes labeled spectrogram images. This
//! module produces the time–frequency matrices those tools need.

use crate::{fft::Fft, window::Window, Complex, DspError};
use emoleak_kernels::KernelMode;
use serde::{Deserialize, Serialize};

/// STFT analysis parameters.
///
/// # Example
///
/// ```
/// use emoleak_dsp::{StftConfig, Window};
/// let cfg = StftConfig::new(256, 64).with_window(Window::Hamming);
/// let signal: Vec<f64> = (0..2048).map(|i| (i as f64 * 0.3).sin()).collect();
/// let spec = cfg.spectrogram(&signal, 500.0).unwrap();
/// assert_eq!(spec.num_bins(), 129);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StftConfig {
    /// Frame length in samples (rounded up to a power of two for the FFT).
    pub frame_len: usize,
    /// Hop between consecutive frames in samples.
    pub hop: usize,
    /// Analysis window.
    pub window: Window,
}

impl StftConfig {
    /// Creates a configuration with a Hamming window.
    ///
    /// # Panics
    ///
    /// Panics if `frame_len` or `hop` is zero.
    pub fn new(frame_len: usize, hop: usize) -> Self {
        assert!(frame_len > 0, "frame_len must be positive");
        assert!(hop > 0, "hop must be positive");
        StftConfig { frame_len, hop, window: Window::Hamming }
    }

    /// Sets the analysis window.
    #[must_use]
    pub fn with_window(mut self, window: Window) -> Self {
        self.window = window;
        self
    }

    /// FFT length: the frame length rounded up to a power of two.
    pub fn n_fft(&self) -> usize {
        self.frame_len.next_power_of_two()
    }

    /// Number of frames produced for a signal of length `n`.
    pub fn num_frames(&self, n: usize) -> usize {
        if n < self.frame_len {
            0
        } else {
            (n - self.frame_len) / self.hop + 1
        }
    }

    /// Computes the power spectrogram of `signal` sampled at `fs` Hz,
    /// dispatching on the `EMOLEAK_KERNELS` knob (see
    /// [`spectrogram_in_mode`](Self::spectrogram_in_mode)).
    ///
    /// # Errors
    ///
    /// Returns [`DspError::EmptyInput`] if the signal is shorter than one
    /// frame.
    pub fn spectrogram(&self, signal: &[f64], fs: f64) -> Result<Spectrogram, DspError> {
        self.spectrogram_in_mode(signal, fs, KernelMode::current())
    }

    /// [`spectrogram`](Self::spectrogram) with an explicit kernel mode —
    /// the dispatch seam the differential tests and benches drive directly
    /// (no process-global environment mutation needed).
    ///
    /// The fast path reuses one complex transform scratch and one bin
    /// buffer across all frames instead of allocating two `Vec`s per
    /// frame; the butterfly arithmetic is untouched, so the two modes are
    /// bit-identical.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::EmptyInput`] if the signal is shorter than one
    /// frame.
    pub fn spectrogram_in_mode(
        &self,
        signal: &[f64],
        fs: f64,
        mode: KernelMode,
    ) -> Result<Spectrogram, DspError> {
        let frames = self.num_frames(signal.len());
        if frames == 0 {
            return Err(DspError::EmptyInput);
        }
        let n_fft = self.n_fft();
        let fft = Fft::new(n_fft);
        let coeffs = self.window.coefficients(self.frame_len);
        let bins = n_fft / 2 + 1;
        let mut power = Vec::with_capacity(frames * bins);
        let mut frame = vec![0.0; self.frame_len];
        let mut scratch: Vec<Complex> = Vec::new();
        let mut bin_buf: Vec<f64> = Vec::new();
        for t in 0..frames {
            let start = t * self.hop;
            frame.copy_from_slice(&signal[start..start + self.frame_len]);
            Window::apply_with(&coeffs, &mut frame);
            match mode {
                KernelMode::Reference => {
                    let spec = fft.power_spectrum(&frame);
                    power.extend_from_slice(&spec);
                }
                KernelMode::Fast => {
                    fft.power_spectrum_into(&frame, &mut scratch, &mut bin_buf);
                    power.extend_from_slice(&bin_buf);
                }
            }
        }
        Ok(Spectrogram {
            power,
            num_frames: frames,
            num_bins: bins,
            fs,
            hop: self.hop,
            n_fft,
        })
    }
}

/// A power spectrogram: `num_frames × num_bins` matrix in row-major order
/// (one row per time frame).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Spectrogram {
    power: Vec<f64>,
    num_frames: usize,
    num_bins: usize,
    fs: f64,
    hop: usize,
    n_fft: usize,
}

impl Spectrogram {
    /// Number of time frames (rows).
    pub fn num_frames(&self) -> usize {
        self.num_frames
    }

    /// Number of frequency bins (columns), `n_fft/2 + 1`.
    pub fn num_bins(&self) -> usize {
        self.num_bins
    }

    /// Power value at frame `t`, bin `k`.
    ///
    /// # Panics
    ///
    /// Panics if `t` or `k` is out of range.
    #[inline]
    pub fn at(&self, t: usize, k: usize) -> f64 {
        assert!(t < self.num_frames && k < self.num_bins, "index out of range");
        self.power[t * self.num_bins + k]
    }

    /// The power row for frame `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range.
    pub fn frame(&self, t: usize) -> &[f64] {
        assert!(t < self.num_frames, "frame index out of range");
        &self.power[t * self.num_bins..(t + 1) * self.num_bins]
    }

    /// Center time (seconds) of frame `t`.
    pub fn frame_time(&self, t: usize) -> f64 {
        (t * self.hop) as f64 / self.fs + self.n_fft as f64 / (2.0 * self.fs)
    }

    /// Frequency (Hz) of bin `k`.
    pub fn bin_frequency(&self, k: usize) -> f64 {
        k as f64 * self.fs / self.n_fft as f64
    }

    /// Flattens the power matrix (row-major) — used to feed image classifiers.
    pub fn as_flat(&self) -> &[f64] {
        &self.power
    }

    /// Converts power to decibels with a floor, `10·log10(max(p, floor))`.
    pub fn to_db(&self, floor: f64) -> Vec<f64> {
        self.power
            .iter()
            .map(|&p| 10.0 * p.max(floor).log10())
            .collect()
    }

    /// Per-frame total power (energy envelope over time).
    pub fn frame_energies(&self) -> Vec<f64> {
        (0..self.num_frames)
            .map(|t| self.frame(t).iter().sum())
            .collect()
    }

    /// Per-bin total power (long-term spectrum).
    pub fn bin_energies(&self) -> Vec<f64> {
        let mut acc = vec![0.0; self.num_bins];
        for t in 0..self.num_frames {
            for (a, p) in acc.iter_mut().zip(self.frame(t)) {
                *a += p;
            }
        }
        acc
    }

    /// Bilinearly resizes the dB-scaled spectrogram to `rows × cols` — the
    /// 32×32 resize of §IV-C.1.
    pub fn resize_db(&self, rows: usize, cols: usize, floor: f64) -> Vec<f64> {
        let db = self.to_db(floor);
        bilinear_resize(&db, self.num_frames, self.num_bins, rows, cols)
    }
}

/// Bilinear resize of a row-major `src_rows × src_cols` matrix to
/// `dst_rows × dst_cols`.
///
/// # Panics
///
/// Panics if the source dimensions do not match `src.len()` or if any
/// dimension is zero.
pub fn bilinear_resize(
    src: &[f64],
    src_rows: usize,
    src_cols: usize,
    dst_rows: usize,
    dst_cols: usize,
) -> Vec<f64> {
    assert_eq!(src.len(), src_rows * src_cols, "source dimension mismatch");
    assert!(src_rows > 0 && src_cols > 0 && dst_rows > 0 && dst_cols > 0);
    let mut out = Vec::with_capacity(dst_rows * dst_cols);
    let rscale = if dst_rows > 1 { (src_rows - 1) as f64 / (dst_rows - 1) as f64 } else { 0.0 };
    let cscale = if dst_cols > 1 { (src_cols - 1) as f64 / (dst_cols - 1) as f64 } else { 0.0 };
    for r in 0..dst_rows {
        let fy = r as f64 * rscale;
        let y0 = fy.floor() as usize;
        let y1 = (y0 + 1).min(src_rows - 1);
        let wy = fy - y0 as f64;
        for c in 0..dst_cols {
            let fx = c as f64 * cscale;
            let x0 = fx.floor() as usize;
            let x1 = (x0 + 1).min(src_cols - 1);
            let wx = fx - x0 as f64;
            let v00 = src[y0 * src_cols + x0];
            let v01 = src[y0 * src_cols + x1];
            let v10 = src[y1 * src_cols + x0];
            let v11 = src[y1 * src_cols + x1];
            let top = v00 * (1.0 - wx) + v01 * wx;
            let bot = v10 * (1.0 - wx) + v11 * wx;
            out.push(top * (1.0 - wy) + bot * wy);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tone(freq: f64, fs: f64, n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| (2.0 * std::f64::consts::PI * freq * i as f64 / fs).sin())
            .collect()
    }

    #[test]
    fn spectrogram_dimensions() {
        let cfg = StftConfig::new(128, 32);
        let spec = cfg.spectrogram(&tone(50.0, 500.0, 1000), 500.0).unwrap();
        assert_eq!(spec.num_frames(), (1000 - 128) / 32 + 1);
        assert_eq!(spec.num_bins(), 65);
    }

    #[test]
    fn too_short_signal_errors() {
        let cfg = StftConfig::new(128, 32);
        assert_eq!(cfg.spectrogram(&[0.0; 64], 500.0), Err(DspError::EmptyInput));
    }

    #[test]
    fn tone_energy_lands_in_expected_bin() {
        let fs = 512.0;
        let cfg = StftConfig::new(256, 64).with_window(Window::Hann);
        let spec = cfg.spectrogram(&tone(64.0, fs, 2048), fs).unwrap();
        // 64 Hz at n_fft=256, fs=512 → bin 32.
        let long_term = spec.bin_energies();
        let peak = long_term
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert_eq!(peak, 32);
        assert!((spec.bin_frequency(peak) - 64.0).abs() < 1e-9);
    }

    #[test]
    fn chirp_moves_energy_over_time() {
        let fs = 500.0;
        let n = 5000;
        // Linear chirp 20 → 200 Hz.
        let x: Vec<f64> = (0..n)
            .map(|i| {
                let t = i as f64 / fs;
                let f = 20.0 + 18.0 * t * 10.0 / 2.0; // instantaneous phase integral below
                (2.0 * std::f64::consts::PI * f * t).sin()
            })
            .collect();
        let cfg = StftConfig::new(256, 64);
        let spec = cfg.spectrogram(&x, fs).unwrap();
        let peak_bin = |t: usize| {
            spec.frame(t)
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .unwrap()
                .0
        };
        assert!(peak_bin(spec.num_frames() - 1) > peak_bin(0));
    }

    #[test]
    fn frame_energy_tracks_amplitude_envelope() {
        let fs = 500.0;
        // Quiet first half, loud second half.
        let mut x = tone(40.0, fs, 4000);
        for v in x.iter_mut().take(2000) {
            *v *= 0.1;
        }
        let cfg = StftConfig::new(128, 64);
        let spec = cfg.spectrogram(&x, fs).unwrap();
        let e = spec.frame_energies();
        let first: f64 = e[..10].iter().sum();
        let last: f64 = e[e.len() - 10..].iter().sum();
        assert!(last > 20.0 * first);
    }

    #[test]
    fn db_conversion_floors() {
        let cfg = StftConfig::new(64, 32);
        let spec = cfg.spectrogram(&vec![0.0; 256], 500.0).unwrap();
        let db = spec.to_db(1e-12);
        assert!(db.iter().all(|&v| (v + 120.0).abs() < 1e-9));
    }

    #[test]
    fn resize_identity_when_same_size() {
        let src = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let out = bilinear_resize(&src, 2, 3, 2, 3);
        assert_eq!(out, src);
    }

    #[test]
    fn resize_upscales_smoothly() {
        let src = vec![0.0, 1.0, 1.0, 2.0]; // 2x2
        let out = bilinear_resize(&src, 2, 2, 3, 3);
        assert_eq!(out.len(), 9);
        assert!((out[4] - 1.0).abs() < 1e-12); // center = average
        assert_eq!(out[0], 0.0);
        assert_eq!(out[8], 2.0);
    }

    #[test]
    fn num_frames_edge_cases() {
        let cfg = StftConfig::new(64, 16);
        // Empty signal and anything shorter than one frame: no frames.
        assert_eq!(cfg.num_frames(0), 0);
        assert_eq!(cfg.num_frames(63), 0);
        // Exactly one frame.
        assert_eq!(cfg.num_frames(64), 1);
        // One sample short of the next hop boundary still yields only the
        // frames that fully fit: a single-sample tail is dropped.
        assert_eq!(cfg.num_frames(64 + 16 - 1), 1);
        assert_eq!(cfg.num_frames(64 + 16), 2);
        assert_eq!(cfg.num_frames(64 + 16 + 1), 2);

        // hop larger than frame_len: frames skip samples entirely.
        let gappy = StftConfig::new(64, 100);
        assert_eq!(gappy.num_frames(63), 0);
        assert_eq!(gappy.num_frames(64), 1);
        assert_eq!(gappy.num_frames(163), 1);
        assert_eq!(gappy.num_frames(164), 2);
        let spec = gappy.spectrogram(&vec![0.5; 264], 500.0).unwrap();
        assert_eq!(spec.num_frames(), 3);
    }

    #[test]
    fn empty_signal_errors() {
        let cfg = StftConfig::new(64, 16);
        assert_eq!(cfg.spectrogram(&[], 500.0), Err(DspError::EmptyInput));
    }

    #[test]
    fn fast_and_reference_spectrograms_are_bit_identical() {
        use emoleak_kernels::KernelMode;
        let fs = 500.0;
        let x = tone(42.0, fs, 1234);
        for cfg in [StftConfig::new(128, 32), StftConfig::new(100, 150)] {
            let r = cfg.spectrogram_in_mode(&x, fs, KernelMode::Reference).unwrap();
            let f = cfg.spectrogram_in_mode(&x, fs, KernelMode::Fast).unwrap();
            assert_eq!(r.num_frames(), f.num_frames());
            let bits = |s: &Spectrogram| {
                s.as_flat().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            };
            assert_eq!(bits(&r), bits(&f));
        }
    }

    #[test]
    fn frame_time_increases_with_hop() {
        let cfg = StftConfig::new(128, 64);
        let spec = cfg.spectrogram(&vec![0.1; 1024], 500.0).unwrap();
        assert!(spec.frame_time(1) > spec.frame_time(0));
        let dt = spec.frame_time(1) - spec.frame_time(0);
        assert!((dt - 64.0 / 500.0).abs() < 1e-12);
    }
}
