//! IIR filters: biquad sections and Butterworth designs.
//!
//! EmoLeak uses two high-pass filters:
//!
//! - an **8 Hz high-pass** applied to handheld accelerometer traces *only* for
//!   speech-region detection (§III-B.2, Figure 4b),
//! - a **1 Hz high-pass** studied in the Table I ablation, which destroys the
//!   information gain of the time-domain statistics.
//!
//! Both are realized here as cascaded Butterworth biquad sections, applied
//! either causally ([`FilterCascade::process`]) or zero-phase
//! ([`FilterCascade::filtfilt`], forward-backward like MATLAB's `filtfilt`).

use crate::DspError;
use serde::{Deserialize, Serialize};

/// A single second-order IIR section in direct form II transposed.
///
/// Transfer function: `H(z) = (b0 + b1·z⁻¹ + b2·z⁻²) / (1 + a1·z⁻¹ + a2·z⁻²)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Biquad {
    /// Numerator coefficients.
    pub b: [f64; 3],
    /// Denominator coefficients `a1`, `a2` (with `a0` normalized to 1).
    pub a: [f64; 2],
}

impl Biquad {
    /// An identity (pass-through) section.
    pub const IDENTITY: Biquad = Biquad { b: [1.0, 0.0, 0.0], a: [0.0, 0.0] };

    /// Creates a section from raw coefficients with `a0` already normalized
    /// to one.
    pub fn new(b: [f64; 3], a: [f64; 2]) -> Self {
        Biquad { b, a }
    }

    /// Filters `input` into a freshly allocated output vector (causal, zero
    /// initial state).
    pub fn process(&self, input: &[f64]) -> Vec<f64> {
        let mut state = BiquadState::default();
        input.iter().map(|&x| state.step(self, x)).collect()
    }

    /// The magnitude response `|H(e^{jω})|` at normalized angular frequency
    /// `omega` (radians/sample).
    pub fn magnitude_at(&self, omega: f64) -> f64 {
        use crate::Complex;
        let z1 = Complex::from_polar_angle(-omega);
        let z2 = z1 * z1;
        let num = Complex::from_real(self.b[0])
            + z1.scale(self.b[1])
            + z2.scale(self.b[2]);
        let den = Complex::ONE + z1.scale(self.a[0]) + z2.scale(self.a[1]);
        (num / den).abs()
    }
}

/// Running state for streaming application of a [`Biquad`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BiquadState {
    s1: f64,
    s2: f64,
}

impl BiquadState {
    /// Advances the filter by one sample (direct form II transposed).
    #[inline]
    pub fn step(&mut self, c: &Biquad, x: f64) -> f64 {
        let y = c.b[0] * x + self.s1;
        self.s1 = c.b[1] * x - c.a[0] * y + self.s2;
        self.s2 = c.b[2] * x - c.a[1] * y;
        y
    }
}

/// The filter type for Butterworth design.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FilterKind {
    /// Passes frequencies below the cutoff.
    LowPass,
    /// Passes frequencies above the cutoff.
    HighPass,
}

/// A Butterworth filter design: maximally flat passband, specified by kind,
/// order, cutoff, and sampling rate.
///
/// # Example
///
/// Designing the paper's 8 Hz high-pass at a 420 Hz accelerometer rate:
///
/// ```
/// use emoleak_dsp::filter::{ButterworthDesign, FilterKind};
/// let hp = ButterworthDesign::new(FilterKind::HighPass, 4, 8.0, 420.0)
///     .unwrap()
///     .build();
/// // DC is blocked, high band passes:
/// assert!(hp.magnitude_at_hz(0.5, 420.0) < 0.01);
/// assert!(hp.magnitude_at_hz(50.0, 420.0) > 0.99);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ButterworthDesign {
    kind: FilterKind,
    order: usize,
    cutoff_hz: f64,
    fs: f64,
}

impl ButterworthDesign {
    /// Creates a design after validating parameters.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidParameter`] if the order is zero, the cutoff
    /// is not strictly between 0 and the Nyquist frequency, or the sampling
    /// rate is not positive.
    pub fn new(kind: FilterKind, order: usize, cutoff_hz: f64, fs: f64) -> Result<Self, DspError> {
        if order == 0 {
            return Err(DspError::InvalidParameter("order must be >= 1".into()));
        }
        if fs.is_nan() || fs <= 0.0 {
            return Err(DspError::InvalidParameter(format!(
                "sampling rate must be positive, got {fs}"
            )));
        }
        if !(cutoff_hz > 0.0 && cutoff_hz < fs / 2.0) {
            return Err(DspError::InvalidParameter(format!(
                "cutoff {cutoff_hz} Hz must lie in (0, {}) Hz",
                fs / 2.0
            )));
        }
        Ok(ButterworthDesign { kind, order, cutoff_hz, fs })
    }

    /// Builds the cascade of biquad sections realizing this design via the
    /// bilinear transform with frequency pre-warping.
    pub fn build(self) -> FilterCascade {
        // Pre-warped analog cutoff.
        let warped = (std::f64::consts::PI * self.cutoff_hz / self.fs).tan();
        let mut sections = Vec::new();
        let n = self.order;
        let n_pairs = n / 2;
        // Conjugate pole pairs of the analog Butterworth prototype.
        for k in 0..n_pairs {
            let theta = std::f64::consts::PI * (2.0 * k as f64 + 1.0) / (2.0 * n as f64)
                + std::f64::consts::FRAC_PI_2;
            // Pole at e^{jθ}: s² − 2·cosθ·s + 1 (unit analog prototype).
            let q = -1.0 / (2.0 * theta.cos());
            sections.push(self.bilinear_section(warped, q));
        }
        if n % 2 == 1 {
            sections.push(self.bilinear_first_order(warped));
        }
        FilterCascade { sections }
    }

    /// Bilinear transform of a second-order prototype section with quality
    /// factor `q`, low-pass or high-pass at pre-warped cutoff `w`.
    fn bilinear_section(&self, w: f64, q: f64) -> Biquad {
        let w2 = w * w;
        match self.kind {
            FilterKind::LowPass => {
                let norm = 1.0 / (1.0 + w / q + w2);
                Biquad {
                    b: [w2 * norm, 2.0 * w2 * norm, w2 * norm],
                    a: [2.0 * (w2 - 1.0) * norm, (1.0 - w / q + w2) * norm],
                }
            }
            FilterKind::HighPass => {
                let norm = 1.0 / (1.0 + w / q + w2);
                Biquad {
                    b: [norm, -2.0 * norm, norm],
                    a: [2.0 * (w2 - 1.0) * norm, (1.0 - w / q + w2) * norm],
                }
            }
        }
    }

    fn bilinear_first_order(&self, w: f64) -> Biquad {
        let norm = 1.0 / (1.0 + w);
        match self.kind {
            FilterKind::LowPass => Biquad {
                b: [w * norm, w * norm, 0.0],
                a: [(w - 1.0) * norm, 0.0],
            },
            FilterKind::HighPass => Biquad {
                b: [norm, -norm, 0.0],
                a: [(w - 1.0) * norm, 0.0],
            },
        }
    }
}

/// A cascade of biquad sections applied in series.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct FilterCascade {
    sections: Vec<Biquad>,
}

impl FilterCascade {
    /// The number of biquad sections.
    pub fn len(&self) -> usize {
        self.sections.len()
    }

    /// Returns `true` if the cascade has no sections (identity filter).
    pub fn is_empty(&self) -> bool {
        self.sections.is_empty()
    }

    /// Causal filtering with zero initial conditions.
    pub fn process(&self, input: &[f64]) -> Vec<f64> {
        let mut out = input.to_vec();
        for s in &self.sections {
            out = s.process(&out);
        }
        out
    }

    /// Zero-phase forward–backward filtering (like MATLAB `filtfilt`): the
    /// signal is filtered, reversed, filtered again and reversed back, which
    /// squares the magnitude response and cancels phase distortion.
    pub fn filtfilt(&self, input: &[f64]) -> Vec<f64> {
        let mut out = self.process(input);
        out.reverse();
        out = self.process(&out);
        out.reverse();
        out
    }

    /// Magnitude response at `freq_hz` for a sampling rate of `fs`.
    pub fn magnitude_at_hz(&self, freq_hz: f64, fs: f64) -> f64 {
        let omega = 2.0 * std::f64::consts::PI * freq_hz / fs;
        self.sections
            .iter()
            .map(|s| s.magnitude_at(omega))
            .product()
    }
}

/// Convenience: the paper's 8 Hz high-pass used for handheld region detection.
///
/// # Errors
///
/// Returns an error if `fs <= 16 Hz` (cutoff would exceed Nyquist).
pub fn earpiece_region_highpass(fs: f64) -> Result<FilterCascade, DspError> {
    Ok(ButterworthDesign::new(FilterKind::HighPass, 4, 8.0, fs)?.build())
}

/// Convenience: the 1 Hz high-pass of the Table I information-gain ablation.
///
/// # Errors
///
/// Returns an error if `fs <= 2 Hz`.
pub fn ablation_1hz_highpass(fs: f64) -> Result<FilterCascade, DspError> {
    Ok(ButterworthDesign::new(FilterKind::HighPass, 4, 1.0, fs)?.build())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sine(freq: f64, fs: f64, n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| (2.0 * std::f64::consts::PI * freq * i as f64 / fs).sin())
            .collect()
    }

    fn rms(x: &[f64]) -> f64 {
        (x.iter().map(|v| v * v).sum::<f64>() / x.len() as f64).sqrt()
    }

    #[test]
    fn design_rejects_bad_parameters() {
        assert!(ButterworthDesign::new(FilterKind::LowPass, 0, 10.0, 100.0).is_err());
        assert!(ButterworthDesign::new(FilterKind::LowPass, 2, 60.0, 100.0).is_err());
        assert!(ButterworthDesign::new(FilterKind::LowPass, 2, -1.0, 100.0).is_err());
        assert!(ButterworthDesign::new(FilterKind::LowPass, 2, 10.0, 0.0).is_err());
        assert!(ButterworthDesign::new(FilterKind::LowPass, 2, 10.0, 100.0).is_ok());
    }

    #[test]
    fn lowpass_attenuates_high_frequency() {
        let fs = 500.0;
        let lp = ButterworthDesign::new(FilterKind::LowPass, 4, 20.0, fs)
            .unwrap()
            .build();
        let low = lp.process(&sine(5.0, fs, 4000));
        let high = lp.process(&sine(150.0, fs, 4000));
        // Skip transient.
        assert!(rms(&low[1000..]) > 0.65);
        assert!(rms(&high[1000..]) < 0.01);
    }

    #[test]
    fn highpass_blocks_dc_and_slow_drift() {
        let fs = 420.0;
        let hp = earpiece_region_highpass(fs).unwrap();
        let dc = vec![1.0; 4000];
        let out = hp.process(&dc);
        assert!(rms(&out[2000..]) < 1e-4);
        // 0.5 Hz drift (hand movement band) strongly attenuated, 50 Hz passes.
        let drift = hp.process(&sine(0.5, fs, 8000));
        let speech = hp.process(&sine(50.0, fs, 8000));
        assert!(rms(&drift[4000..]) < 0.02);
        assert!(rms(&speech[4000..]) > 0.68);
    }

    #[test]
    fn magnitude_response_half_power_at_cutoff() {
        let fs = 1000.0;
        for order in [2usize, 3, 4, 5] {
            let lp = ButterworthDesign::new(FilterKind::LowPass, order, 100.0, fs)
                .unwrap()
                .build();
            let m = lp.magnitude_at_hz(100.0, fs);
            assert!(
                (m - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-6,
                "order {order}: |H(fc)| = {m}"
            );
        }
    }

    #[test]
    fn butterworth_is_monotone() {
        let fs = 1000.0;
        let lp = ButterworthDesign::new(FilterKind::LowPass, 4, 100.0, fs)
            .unwrap()
            .build();
        let mut prev = f64::INFINITY;
        for k in 1..100 {
            let f = k as f64 * 5.0;
            let m = lp.magnitude_at_hz(f, fs);
            assert!(m <= prev + 1e-9, "response not monotone at {f} Hz");
            prev = m;
        }
    }

    #[test]
    fn filtfilt_preserves_peak_position() {
        let fs = 500.0;
        // Impulse-like bump at sample 2000.
        let mut x = vec![0.0; 4000];
        for (i, v) in x.iter_mut().enumerate().take(2020).skip(1980) {
            let t = (i as f64 - 2000.0) / 10.0;
            *v = (-t * t).exp();
        }
        let lp = ButterworthDesign::new(FilterKind::LowPass, 4, 30.0, fs)
            .unwrap()
            .build();
        let causal = lp.process(&x);
        let zero_phase = lp.filtfilt(&x);
        let argmax = |v: &[f64]| {
            v.iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .unwrap()
                .0 as i64
        };
        // Causal filtering delays the peak; filtfilt does not.
        assert!(argmax(&causal) > 2000);
        assert!((argmax(&zero_phase) - 2000).abs() <= 2);
    }

    #[test]
    fn identity_biquad_passes_through() {
        let x = sine(10.0, 100.0, 64);
        let y = Biquad::IDENTITY.process(&x);
        for (a, b) in x.iter().zip(&y) {
            assert!((a - b).abs() < 1e-15);
        }
    }

    #[test]
    fn odd_order_has_first_order_section() {
        let lp = ButterworthDesign::new(FilterKind::LowPass, 5, 50.0, 500.0)
            .unwrap()
            .build();
        assert_eq!(lp.len(), 3); // 2 biquads + 1 first-order
    }

    #[test]
    fn ablation_filter_kills_sub_hertz_content() {
        let fs = 420.0;
        let hp = ablation_1hz_highpass(fs).unwrap();
        let slow = hp.process(&sine(0.1, fs, 42000));
        assert!(rms(&slow[21000..]) < 0.06);
        let fast = hp.process(&sine(30.0, fs, 42000));
        assert!(rms(&fast[21000..]) > 0.69);
    }
}
