//! Handheld motion noise.
//!
//! In the handheld (ear-speaker) setting the accelerometer also sees hand
//! and body movement: a `1/f`-like drift with occasional larger sway. The
//! paper notes (§III-B.2) that this low-frequency noise is what forces the
//! 8 Hz high-pass before region detection — and that filtering it away also
//! destroys speech features, which is why feature extraction runs unfiltered.

use emoleak_dsp::filter::{ButterworthDesign, FilterKind};
use emoleak_dsp::noise::PinkNoise;
use rand::Rng;

/// Corner above which hand/body motion has essentially no energy. Voluntary
/// movement lives below ~2 Hz and physiological tremor below ~12 Hz, so the
/// pink tremor component is band-limited here — this is what leaves the
/// > 8 Hz detection band usable for the ear-speaker attack (§III-B.2).
const TREMOR_CORNER_HZ: f64 = 12.0;

/// Adds handheld hand/body motion noise to a vibration signal at rate `fs`.
///
/// The noise has two components:
/// - pink (`1/f`) tremor with standard deviation `std`, band-limited below
///   `TREMOR_CORNER_HZ` (12 Hz),
/// - a slow sinusoidal sway (0.2–1.2 Hz) with amplitude `2·std` and random
///   phase, modeling arm movement during a call.
pub fn add_handheld_noise<R: Rng + ?Sized>(
    mut vibration: Vec<f64>,
    fs: f64,
    std: f64,
    rng: &mut R,
) -> Vec<f64> {
    if vibration.is_empty() || std <= 0.0 {
        return vibration;
    }
    let mut pink = PinkNoise::new(16);
    let tremor_raw: Vec<f64> = (0..vibration.len())
        .map(|_| pink.next_sample(rng))
        .collect();
    let tremor = if TREMOR_CORNER_HZ < 0.45 * fs {
        ButterworthDesign::new(FilterKind::LowPass, 4, TREMOR_CORNER_HZ, fs)
            .expect("tremor corner below Nyquist")
            .build()
            .process(&tremor_raw)
    } else {
        tremor_raw
    };
    let sway_freq = 0.2 + rng.gen::<f64>() * 1.0;
    let sway_phase = rng.gen::<f64>() * 2.0 * std::f64::consts::PI;
    let sway_amp = 0.7 * std;
    for ((i, v), tr) in vibration.iter_mut().enumerate().zip(&tremor) {
        let t = i as f64 / fs;
        let sway = sway_amp * (2.0 * std::f64::consts::PI * sway_freq * t + sway_phase).sin();
        *v += std * tr + sway;
    }
    vibration
}

#[cfg(test)]
mod tests {
    use super::*;
    use emoleak_dsp::{stats, Fft};
    use rand::SeedableRng;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    #[test]
    fn zero_std_is_identity() {
        let x = vec![0.5; 100];
        assert_eq!(add_handheld_noise(x.clone(), 400.0, 0.0, &mut rng(1)), x);
    }

    #[test]
    fn noise_energy_scales_with_std() {
        let quiet = add_handheld_noise(vec![0.0; 40_000], 400.0, 0.01, &mut rng(2));
        let loud = add_handheld_noise(vec![0.0; 40_000], 400.0, 0.05, &mut rng(2));
        assert!(stats::std_dev(&loud) > 3.0 * stats::std_dev(&quiet));
    }

    #[test]
    fn noise_is_low_frequency_dominated() {
        let fs = 400.0;
        let x = add_handheld_noise(vec![0.0; 1 << 15], fs, 0.02, &mut rng(3));
        let fft = Fft::new(1 << 15);
        let p = fft.power_spectrum(&x[..1 << 15]);
        // Below 8 Hz vs above 8 Hz (the paper's region-detection HPF corner).
        let corner = (8.0 / fs * (1 << 15) as f64) as usize;
        let low: f64 = p[1..corner].iter().sum();
        let high: f64 = p[corner..].iter().sum();
        assert!(low > 3.0 * high, "low {low:.3e} vs high {high:.3e}");
    }

    #[test]
    fn empty_input_stays_empty() {
        assert!(add_handheld_noise(Vec::new(), 400.0, 0.05, &mut rng(4)).is_empty());
    }
}
