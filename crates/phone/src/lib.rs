//! # emoleak-phone
//!
//! Smartphone vibration-channel simulator: the hardware substitute for the
//! six physical phones of the EmoLeak paper (OnePlus 7T, OnePlus 9, Google
//! Pixel 5, Samsung Galaxy S10, S21, S21 Ultra).
//!
//! The simulated signal chain mirrors the physical one:
//!
//! ```text
//! audio playback ──► speaker (SPL drive, HP rolloff)
//!                 ──► chassis conduction (resonant modes + envelope
//!                      down-conversion into the accelerometer band)
//!                 ──► accelerometer (device sample rate, aliasing,
//!                      noise floor, quantization)
//!                 (+ handheld motion noise in the ear-speaker setting)
//! ```
//!
//! What matters for the attack is *which speech information survives* into
//! the ≤ 250 Hz accelerometer band: the energy envelope (speaking rate,
//! vocal effort, attack shape), the fundamental frequency for typical voices,
//! and the spectral spread induced by jitter. Loudspeaker playback at max
//! volume gives a strong coupling; the ear speaker's 36–46 dB SPL yields a
//! signal near the sensor noise floor, which — together with hand/body
//! motion — reproduces the paper's loudspeaker ≫ ear-speaker accuracy gap.
//!
//! # Example
//!
//! ```
//! use emoleak_phone::{DeviceProfile, Placement, SpeakerKind, VibrationChannel};
//! use rand::SeedableRng;
//!
//! let device = DeviceProfile::oneplus_7t();
//! let channel = VibrationChannel::new(&device, SpeakerKind::Loudspeaker, Placement::TableTop);
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let audio: Vec<f64> = (0..8000).map(|i| (i as f64 * 0.1).sin() * 0.3).collect();
//! let trace = channel.simulate(&audio, 8000.0, &mut rng);
//! assert_eq!(trace.fs, device.accel_rate_hz());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accel;
pub mod android;
pub mod chassis;
pub mod device;
pub mod faults;
pub mod gyro;
pub mod motion;
pub mod replay;
pub mod session;

pub use accel::{AccelTrace, Accelerometer};
pub use android::{BatchingSpec, SamplingPolicy, ThermalThrottle};
pub use chassis::{ChassisModel, ResonantMode};
pub use device::{DeviceProfile, SpeakerKind, SpeakerSpec};
pub use faults::{FaultLog, FaultProfile, TimedTrace};
pub use replay::{ChunkValidator, ChunkedReplay, InputDefect, ReplayChunk};
pub use session::{LabeledSpan, RecordingSession, SessionTrace};

use rand::Rng;
use serde::{Deserialize, Serialize};

/// Where the phone is during recording.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Placement {
    /// On a wooden table (loudspeaker experiments): no body-motion noise.
    TableTop,
    /// Held at the ear (ear-speaker experiments): pink hand/body motion
    /// noise is added.
    Handheld,
}

/// A complete playback→accelerometer channel for one (device, speaker,
/// placement) combination.
#[derive(Debug, Clone)]
pub struct VibrationChannel {
    speaker: SpeakerSpec,
    chassis: ChassisModel,
    accel: Accelerometer,
    placement: Placement,
    motion_noise_std: f64,
}

impl VibrationChannel {
    /// Builds the channel for `device` playing through `kind` in `placement`.
    pub fn new(device: &DeviceProfile, kind: SpeakerKind, placement: Placement) -> Self {
        VibrationChannel {
            speaker: device.speaker(kind).clone(),
            chassis: device.chassis_model(),
            accel: device.accelerometer(),
            placement,
            motion_noise_std: device.motion_noise_std(),
        }
    }

    /// The accelerometer sampling rate of this channel's device.
    pub fn accel_rate_hz(&self) -> f64 {
        self.accel.rate_hz()
    }

    /// The placement this channel was built for.
    pub fn placement(&self) -> Placement {
        self.placement
    }

    /// The handheld motion-noise scale of this channel's device.
    pub fn motion_noise_std(&self) -> f64 {
        self.motion_noise_std
    }

    /// Simulates the full chain for one audio clip sampled at `fs_audio`,
    /// returning the z-axis accelerometer trace.
    pub fn simulate<R: Rng + ?Sized>(
        &self,
        audio: &[f64],
        fs_audio: f64,
        rng: &mut R,
    ) -> AccelTrace {
        // 1. Speaker: drive scaling + low-frequency rolloff.
        let driven = self.speaker.drive(audio, fs_audio);
        // 2. Chassis: conduction into the accelerometer band.
        let vibration = self.chassis.conduct(&driven, fs_audio);
        // 3. Motion noise (handheld only), added at audio rate pre-sampling.
        let vibration = match self.placement {
            Placement::TableTop => vibration,
            Placement::Handheld => {
                motion::add_handheld_noise(vibration, fs_audio, self.motion_noise_std, rng)
            }
        };
        // 4. Accelerometer: sampling, noise floor, quantization.
        self.accel.sample(&vibration, fs_audio, rng)
    }
}
