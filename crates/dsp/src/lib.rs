//! # emoleak-dsp
//!
//! Pure-Rust signal-processing substrate for the EmoLeak reproduction.
//!
//! The EmoLeak attack pipeline (speech playback → chassis vibration →
//! accelerometer trace → features → classifier) rests on a handful of DSP
//! primitives that the original authors got from MATLAB. This crate
//! reimplements all of them from scratch:
//!
//! - [`fft`] — iterative radix-2 complex FFT / inverse FFT and a real-input
//!   spectrum helper,
//! - [`stft`] — short-time Fourier transform and power spectrograms (Figures
//!   2–4 of the paper),
//! - [`filter`] — biquad sections and Butterworth high/low-pass designs (the
//!   paper's 1 Hz and 8 Hz high-pass filters),
//! - [`window`] — Hann / Hamming / Blackman / rectangular analysis windows,
//! - [`resample`] — decimation used to model Android's 200 Hz sampling cap,
//! - [`stats`] — the moment/quantile statistics behind the Table II features,
//! - [`envelope`] — RMS and moving-average envelopes used by speech-region
//!   detection.
//!
//! # Example
//!
//! ```
//! use emoleak_dsp::{fft::Fft, window::Window};
//!
//! let fft = Fft::new(8);
//! let spectrum = fft.forward_real(&[1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]);
//! // An impulse has a flat magnitude spectrum.
//! for bin in &spectrum {
//!     assert!((bin.abs() - 1.0).abs() < 1e-9);
//! }
//! let w = Window::Hann.coefficients(8);
//! assert_eq!(w.len(), 8);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod complex;
pub mod envelope;
pub mod noise;
pub mod fft;
pub mod filter;
pub mod resample;
pub mod stats;
pub mod stft;
pub mod window;

pub use complex::Complex;
pub use fft::Fft;
pub use filter::{Biquad, ButterworthDesign, FilterCascade};
pub use stft::{Spectrogram, StftConfig};
pub use window::Window;

/// Errors produced by the DSP layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DspError {
    /// An FFT size that is not a power of two was requested.
    NonPowerOfTwo(usize),
    /// The input was empty where a non-empty signal is required.
    EmptyInput,
    /// A filter design parameter was out of range (e.g. cutoff ≥ Nyquist).
    InvalidParameter(String),
}

impl core::fmt::Display for DspError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DspError::NonPowerOfTwo(n) => write!(f, "fft size {n} is not a power of two"),
            DspError::EmptyInput => write!(f, "input signal is empty"),
            DspError::InvalidParameter(msg) => write!(f, "invalid parameter: {msg}"),
        }
    }
}

impl std::error::Error for DspError {}
