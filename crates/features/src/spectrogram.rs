//! Labeled spectrogram images for the CNN image classifier (§IV-C).
//!
//! Each detected speech region becomes one spectrogram, dB-scaled, resized
//! to 32 × 32 and min–max normalized to `[0, 1]` — the exact preprocessing
//! of §IV-C.1. Labels come from the recorded playback schedule.

use emoleak_dsp::{StftConfig, Window};
use serde::{Deserialize, Serialize};

/// Image side length used by the paper's classifier.
pub const IMAGE_SIZE: usize = 32;

/// A spectrogram image with its class label.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LabeledSpectrogram {
    /// Row-major `IMAGE_SIZE × IMAGE_SIZE` pixels in `[0, 1]`.
    pub pixels: Vec<f64>,
    /// Class index (emotion).
    pub label: usize,
}

/// Generator turning speech regions into labeled spectrogram images.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SpectrogramGenerator {
    stft: StftConfig,
    db_floor: f64,
}

impl SpectrogramGenerator {
    /// Creates a generator tuned for accelerometer-rate traces
    /// (frame 64 / hop 16, Hamming window).
    pub fn for_accel() -> Self {
        SpectrogramGenerator {
            stft: StftConfig::new(64, 16).with_window(Window::Hamming),
            db_floor: 1e-14,
        }
    }

    /// Generates the labeled 32×32 image for one region, or `None` if the
    /// region is shorter than one STFT frame.
    pub fn generate(&self, region: &[f64], fs: f64, label: usize) -> Option<LabeledSpectrogram> {
        let spec = self.stft.spectrogram(region, fs).ok()?;
        let img = spec.resize_db(IMAGE_SIZE, IMAGE_SIZE, self.db_floor);
        Some(LabeledSpectrogram { pixels: normalize_01(&img), label })
    }
}

/// Min–max normalizes to `[0, 1]`; a constant image maps to all zeros.
fn normalize_01(img: &[f64]) -> Vec<f64> {
    let lo = img.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = img.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    if hi <= lo {
        return vec![0.0; img.len()];
    }
    img.iter().map(|v| (v - lo) / (hi - lo)).collect()
}

/// Renders a spectrogram image as coarse ASCII art (for the Figure 2
/// reproduction binary). Rows are time frames (top = start), columns are
/// frequency bins.
pub fn ascii_render(pixels: &[f64], cols: usize) -> String {
    const RAMP: &[u8] = b" .:-=+*#%@";
    let rows = pixels.len() / cols;
    let mut out = String::with_capacity(rows * (cols + 1));
    for r in 0..rows {
        for c in 0..cols {
            let v = pixels[r * cols + c].clamp(0.0, 1.0);
            let idx = ((v * (RAMP.len() - 1) as f64).round() as usize).min(RAMP.len() - 1);
            out.push(RAMP[idx] as char);
        }
        out.push('\n');
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
    fn image_has_expected_shape_and_range() {
        let gen = SpectrogramGenerator::for_accel();
        let img = gen.generate(&tone(100.0, 420.0, 600), 420.0, 3).unwrap();
        assert_eq!(img.pixels.len(), IMAGE_SIZE * IMAGE_SIZE);
        assert_eq!(img.label, 3);
        assert!(img.pixels.iter().all(|&p| (0.0..=1.0).contains(&p)));
        let max = img.pixels.iter().cloned().fold(0.0f64, f64::max);
        assert!((max - 1.0).abs() < 1e-12);
    }

    #[test]
    fn too_short_region_yields_none() {
        let gen = SpectrogramGenerator::for_accel();
        assert!(gen.generate(&[0.0; 10], 420.0, 0).is_none());
    }

    #[test]
    fn different_tones_give_different_images() {
        let gen = SpectrogramGenerator::for_accel();
        let a = gen.generate(&tone(60.0, 420.0, 600), 420.0, 0).unwrap();
        let b = gen.generate(&tone(160.0, 420.0, 600), 420.0, 0).unwrap();
        let dist: f64 = a
            .pixels
            .iter()
            .zip(&b.pixels)
            .map(|(x, y)| (x - y) * (x - y))
            .sum();
        assert!(dist > 1.0, "images should differ: {dist}");
    }

    #[test]
    fn constant_region_concentrates_at_dc() {
        let gen = SpectrogramGenerator::for_accel();
        let img = gen.generate(&vec![0.5; 600], 420.0, 0).unwrap();
        // All of the DC region's energy sits in the lowest-frequency column.
        for r in 0..IMAGE_SIZE {
            let row = &img.pixels[r * IMAGE_SIZE..(r + 1) * IMAGE_SIZE];
            let brightest = row
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .unwrap()
                .0;
            assert_eq!(brightest, 0, "row {r} brightest at {brightest}");
        }
    }

    #[test]
    fn ascii_render_shape() {
        let art = ascii_render(&[0.0; 64], 8);
        assert_eq!(art.lines().count(), 8);
        assert!(art.lines().all(|l| l.len() == 8));
        let bright = ascii_render(&[1.0; 4], 2);
        assert!(bright.contains('@'));
    }
}
