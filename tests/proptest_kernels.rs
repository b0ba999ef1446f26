//! Differential property tests for the hot-path kernels.
//!
//! The optimized kernels in `emoleak-kernels` (and the fast paths they back
//! in `dsp` and `features`) promise **bit-identity** with the scalar
//! reference implementations on the f64 path — not closeness, equality of
//! every output bit. These tests hold that line across random shapes and
//! values by driving the explicit-mode seams (`*_in_mode`, `*_ref`/`*_fast`)
//! directly, so no test ever mutates the process-global `EMOLEAK_KERNELS`
//! variable (that end-to-end angle lives in `tests/kernel_parity.rs`, which
//! owns the variable in its own test binary). The lowered CNN is held to
//! `Sequential::forward(x, false)` the same way, through its explicit
//! `Precision::F64(mode)` seam.

use emoleak::dsp::fft::Fft;
use emoleak::dsp::{Complex, StftConfig};
use emoleak::features::{freq_domain, time_domain};
use emoleak::kernels::conv::{conv2d_fast, conv2d_ref};
use emoleak::kernels::gemm::{gemm_fast, gemm_ref};
use emoleak::kernels::{Activation, Conv2dScratch, KernelMode};
use emoleak::ml::nn::{spectrogram_cnn_scaled, CnnScratch, LoweredCnn, Precision, Tensor};
use emoleak::ml::nn::{Sequential, TrainConfig};
use proptest::prelude::*;

/// Bit-level equality: `a == b` as u64 payloads, so NaNs and signed zeros
/// compare by representation, not by IEEE semantics.
fn bits_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn act_of(relu: bool) -> Activation {
    if relu {
        Activation::Relu
    } else {
        Activation::Identity
    }
}

/// The plain scalar 1-D convolution (stride 1, "same" zero padding,
/// out-of-bounds taps skipped), `[C_in, L]` in and `[C_out, L]` out: the
/// oracle the 2-D kernels must equal at `H = kh = 1`.
#[allow(clippy::too_many_arguments)]
fn conv1d_oracle(
    input: &[f64],
    in_ch: usize,
    l: usize,
    out_ch: usize,
    k: usize,
    weights: &[f64],
    bias: &[f64],
    act: Activation,
) -> Vec<f64> {
    let p = k / 2;
    let mut out = vec![0.0; out_ch * l];
    for o in 0..out_ch {
        for t in 0..l {
            let mut acc = bias[o];
            for c in 0..in_ch {
                for kk in 0..k {
                    let it = (t + kk).wrapping_sub(p);
                    if it < l {
                        acc += weights[(o * in_ch + c) * k + kk] * input[c * l + it];
                    }
                }
            }
            out[o * l + t] = acc;
        }
    }
    act.apply(&mut out);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The register-tiled GEMM performs the identical per-element rounding
    /// sequence as the scalar reference — bit-identical for all inputs,
    /// including a non-zero preloaded C (the bias-preload idiom) and
    /// `k = 0` (a convolution whose input planes are all dead).
    #[test]
    fn gemm_fast_is_bit_identical(
        m in 1usize..9,
        k in 0usize..80,
        n in 1usize..70,
        vals in prop::collection::vec(-100.0f64..100.0, 80 * 9 + 80 * 70 + 9 * 70),
    ) {
        let a = &vals[..m * k];
        let b = &vals[m * k..m * k + k * n];
        let seed = &vals[m * k + k * n..m * k + k * n + m * n];
        let mut c_ref = seed.to_vec();
        let mut c_fast = seed.to_vec();
        gemm_ref(m, k, n, a, b, &mut c_ref);
        gemm_fast(m, k, n, a, b, &mut c_fast);
        prop_assert!(bits_eq(&c_ref, &c_fast));
    }

    /// im2col + GEMM 2-D convolution matches the direct reference loop bit
    /// for bit across random shapes, kernels, biases, and fused ReLU.
    #[test]
    fn conv2d_fast_is_bit_identical(
        in_ch in 1usize..4,
        h in 3usize..9,
        w in 3usize..9,
        out_ch in 1usize..5,
        kh in 1usize..4,
        kw in 1usize..4,
        relu in 0u32..2,
        vals in prop::collection::vec(-10.0f64..10.0, 3 * 8 * 8 + 4 * 3 * 3 * 3 + 4),
    ) {
        let input = &vals[..in_ch * h * w];
        let woff = 3 * 8 * 8;
        let weights = &vals[woff..woff + out_ch * in_ch * kh * kw];
        let boff = woff + 4 * 3 * 3 * 3;
        let bias = &vals[boff..boff + out_ch];
        let act = act_of(relu == 1);
        let mut out_ref = Vec::new();
        let mut out_fast = Vec::new();
        let mut scratch = Conv2dScratch::default();
        conv2d_ref(input, in_ch, h, w, out_ch, kh, kw, weights, bias, act, &mut out_ref);
        conv2d_fast(
            input, in_ch, h, w, out_ch, kh, kw, weights, bias, act,
            &mut scratch, &mut out_fast,
        );
        prop_assert!(bits_eq(&out_ref, &out_fast));
    }

    /// The feature CNN's 1-D convolutions run as the 2-D kernels on a
    /// `[C_in, 1, L]` map with a `1 × k` kernel: both equal the scalar 1-D
    /// loop bit for bit.
    #[test]
    fn conv1d_fast_is_bit_identical(
        in_ch in 1usize..5,
        l in 2usize..40,
        out_ch in 1usize..6,
        k in 1usize..6,
        relu in 0u32..2,
        vals in prop::collection::vec(-10.0f64..10.0, 4 * 39 + 5 * 4 * 5 + 5),
    ) {
        let input = &vals[..in_ch * l];
        let woff = 4 * 39;
        let weights = &vals[woff..woff + out_ch * in_ch * k];
        let boff = woff + 5 * 4 * 5;
        let bias = &vals[boff..boff + out_ch];
        let act = act_of(relu == 1);
        let want = conv1d_oracle(input, in_ch, l, out_ch, k, weights, bias, act);
        let mut out_ref = Vec::new();
        let mut out_fast = Vec::new();
        let mut scratch = Conv2dScratch::default();
        conv2d_ref(input, in_ch, 1, l, out_ch, 1, k, weights, bias, act, &mut out_ref);
        conv2d_fast(
            input, in_ch, 1, l, out_ch, 1, k, weights, bias, act, &mut scratch, &mut out_fast,
        );
        prop_assert!(bits_eq(&want, &out_ref));
        prop_assert!(bits_eq(&want, &out_fast));
    }

    /// The scratch-buffer real FFT is bit-identical to the allocating one,
    /// and the scratch survives reuse across different signal lengths.
    #[test]
    fn fft_into_is_bit_identical_and_round_trips(
        signal in prop::collection::vec(-50.0f64..50.0, 1..257),
    ) {
        let n = signal.len().next_power_of_two().max(8);
        let fft = Fft::new(n);
        let alloc = fft.forward_real(&signal);
        let mut scratch: Vec<Complex> = Vec::new();
        let mut out: Vec<Complex> = Vec::new();
        // Dirty the buffers with a different-length transform first: reuse
        // must not leak state between calls.
        fft.forward_real_into(&signal[..signal.len() / 2], &mut scratch, &mut out);
        fft.forward_real_into(&signal, &mut scratch, &mut out);
        prop_assert_eq!(alloc.len(), out.len());
        for (a, b) in alloc.iter().zip(&out) {
            prop_assert_eq!(a.re.to_bits(), b.re.to_bits());
            prop_assert_eq!(a.im.to_bits(), b.im.to_bits());
        }
        // And the plan still round-trips: forward then inverse is identity.
        let mut buf: Vec<Complex> =
            signal.iter().map(|&v| Complex::from_real(v)).collect();
        buf.resize(n, Complex::ZERO);
        fft.forward(&mut buf);
        fft.inverse(&mut buf);
        for (z, &v) in buf.iter().zip(&signal) {
            prop_assert!((z.re - v).abs() < 1e-9);
            prop_assert!(z.im.abs() < 1e-9);
        }
    }

    /// The power-spectrum scratch path matches the allocating path bitwise.
    #[test]
    fn power_spectrum_into_is_bit_identical(
        signal in prop::collection::vec(-50.0f64..50.0, 1..200),
    ) {
        let n = signal.len().next_power_of_two().max(8);
        let fft = Fft::new(n);
        let alloc = fft.power_spectrum(&signal);
        let mut scratch: Vec<Complex> = Vec::new();
        let mut out: Vec<f64> = Vec::new();
        fft.power_spectrum_into(&signal, &mut scratch, &mut out);
        prop_assert!(bits_eq(&alloc, &out));
    }

    /// The in-place STFT produces byte-identical spectrograms to the
    /// per-frame-allocating reference across random frame/hop geometry.
    #[test]
    fn stft_fast_is_bit_identical(
        signal in prop::collection::vec(-1.0f64..1.0, 64..1500),
        frame_pow in 4u32..8,
        hop_div in 1usize..5,
    ) {
        let frame_len = 1usize << frame_pow;
        let hop = (frame_len / hop_div).max(1);
        let cfg = StftConfig::new(frame_len, hop);
        let reference = cfg.spectrogram_in_mode(&signal, 420.0, KernelMode::Reference);
        let fast = cfg.spectrogram_in_mode(&signal, 420.0, KernelMode::Fast);
        match (reference, fast) {
            (Ok(r), Ok(f)) => {
                prop_assert_eq!(r.num_frames(), f.num_frames());
                prop_assert_eq!(r.num_bins(), f.num_bins());
                prop_assert!(bits_eq(r.as_flat(), f.as_flat()));
            }
            (Err(re), Err(fe)) => prop_assert_eq!(re, fe),
            (r, f) => prop_assert!(false, "modes disagree on fallibility: {r:?} vs {f:?}"),
        }
    }

    /// Fused single-pass Table-II time-domain extraction is bit-identical
    /// to the twelve independent reference statistics.
    #[test]
    fn time_features_fused_is_bit_identical(
        region in prop::collection::vec(-5.0f64..5.0, 0..400),
    ) {
        let reference = time_domain::extract_in_mode(&region, KernelMode::Reference);
        let fast = time_domain::extract_in_mode(&region, KernelMode::Fast);
        prop_assert!(bits_eq(&reference, &fast));
    }

    /// Fused spectrum walk + FFT-plan reuse in the frequency-domain
    /// extractor is bit-identical to the reference.
    #[test]
    fn freq_features_fused_is_bit_identical(
        region in prop::collection::vec(-5.0f64..5.0, 0..600),
        fs in 100.0f64..1000.0,
    ) {
        let reference = freq_domain::extract_in_mode(&region, fs, KernelMode::Reference);
        let fast = freq_domain::extract_in_mode(&region, fs, KernelMode::Fast);
        prop_assert!(bits_eq(&reference, &fast));
    }
}

proptest! {
    // Small maps, so many cases stay cheap; about half the cases have every
    // plane dead.
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The fast path does not lower input planes that hold only `±0.0`.
    /// Each plane here is random values, all `+0.0`, all `-0.0` or mixed
    /// `±0`, so some cases have every plane dead (the `k = 0` GEMM). Half
    /// the cases put a NaN or ∞ in a live plane, when there is one, and a
    /// quarter put a non-finite weight on a dead plane, where `w · 0.0` is
    /// a NaN the reference adds, so that input must go to the reference.
    #[test]
    fn conv2d_fast_skips_dead_planes_bit_identically(
        in_ch in 1usize..6,
        h in 1usize..8,
        w in 1usize..8,
        out_ch in 1usize..5,
        kh in 1usize..4,
        kw in 1usize..4,
        relu in 0u32..2,
        kinds in prop::collection::vec(0u32..4, 5),
        signs in prop::collection::vec(0u32..2, 5 * 7 * 7),
        poison in 0u32..4,
        at in 0usize..10_000,
        vals in prop::collection::vec(-10.0f64..10.0, 5 * 7 * 7 + 4 * 5 * 3 * 3 + 4),
    ) {
        let n = h * w;
        let mut input: Vec<f64> = (0..in_ch * n)
            .map(|i| match kinds[i / n] {
                0 => vals[i],
                1 => 0.0,
                2 => -0.0,
                _ if signs[i] == 0 => 0.0,
                _ => -0.0,
            })
            .collect();
        let woff = 5 * 7 * 7;
        let mut weights = vals[woff..woff + out_ch * in_ch * kh * kw].to_vec();
        let boff = woff + 4 * 5 * 3 * 3;
        let bias = &vals[boff..boff + out_ch];
        let live: Vec<usize> = (0..in_ch).filter(|&c| kinds[c] == 0).collect();
        let dead: Vec<usize> = (0..in_ch).filter(|&c| kinds[c] != 0).collect();
        match poison {
            1 | 2 if !live.is_empty() => {
                let c = live[at % live.len()];
                input[c * n + at % n] = if poison == 1 { f64::NAN } else { f64::INFINITY };
            }
            3 if !dead.is_empty() => {
                let taps = kh * kw;
                let c = dead[at % dead.len()];
                let o = at % out_ch;
                weights[(o * in_ch + c) * taps + at % taps] =
                    if at % 2 == 0 { f64::NAN } else { f64::NEG_INFINITY };
            }
            _ => {}
        }
        let act = act_of(relu == 1);
        let mut out_ref = Vec::new();
        let mut out_fast = Vec::new();
        let mut scratch = Conv2dScratch::default();
        conv2d_ref(&input, in_ch, h, w, out_ch, kh, kw, &weights, bias, act, &mut out_ref);
        conv2d_fast(
            &input, in_ch, h, w, out_ch, kh, kw, &weights, bias, act,
            &mut scratch, &mut out_fast,
        );
        prop_assert!(bits_eq(&out_ref, &out_fast));
    }
}

/// A `[1, 32, 32]` spectrogram-shaped input: `zeros` marks pixels that
/// become `+0.0` (mark 0) or `-0.0` (mark 1); the rest keep their value.
fn image(values: &[f64], zeros: &[u32]) -> Tensor {
    let pixels = values
        .iter()
        .zip(zeros)
        .map(|(&v, &z)| match z {
            0 => 0.0,
            1 => -0.0,
            _ => v,
        })
        .collect();
    Tensor::from_shape(&[1, 32, 32], pixels)
}

/// Asserts the lowered network's f64 logits equal `net.forward(x, false)`
/// bit for bit in both kernel modes, on a scratch dirtied by `other`.
fn assert_lowered_matches(net: &mut Sequential, other: &LoweredCnn, x: &Tensor) {
    let want: Vec<u64> = net.forward(x, false).data.iter().map(|v| v.to_bits()).collect();
    let lowered = LoweredCnn::from_sequential(net).expect("the spectrogram CNN lowers");
    for mode in [KernelMode::Reference, KernelMode::Fast] {
        let mut scratch = CnnScratch::default();
        other.try_logits(&x.shape, &x.data, Precision::F64(mode), &mut scratch).unwrap();
        let got = lowered.try_logits(&x.shape, &x.data, Precision::F64(mode), &mut scratch);
        let got: Vec<u64> = got.unwrap().iter().map(|v| v.to_bits()).collect();
        assert_eq!(got, want, "{mode}");
    }
}

proptest! {
    // Each case runs five forwards of a CNN up to 32 channels wide.
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The lowered network's f64 forward is `Sequential::forward(x, false)`
    /// bit for bit, in both kernel modes, across widths, weight seeds and
    /// inputs with negatives and signed zeros, on a scratch last used by a
    /// network of another width.
    #[test]
    fn lowered_cnn_matches_sequential_bit_for_bit(
        divisor in 4usize..33,
        other_divisor in 4usize..33,
        seed in 0u64..1_000_000,
        values in prop::collection::vec(-2.0f64..2.0, 32 * 32),
        zeros in prop::collection::vec(0u32..8, 32 * 32),
    ) {
        let mut net = spectrogram_cnn_scaled(7, seed, divisor);
        let other = LoweredCnn::from_sequential(&spectrogram_cnn_scaled(7, !seed, other_divisor));
        assert_lowered_matches(&mut net, &other.unwrap(), &image(&values, &zeros));
    }
}

/// After a short training run (weights and biases off their initial
/// values), the lowered f64 logits still equal `Sequential::forward` bit
/// for bit.
#[test]
fn lowered_cnn_matches_sequential_after_training() {
    let sample = |i: usize| {
        let values: Vec<f64> = (0..32 * 32).map(|p| ((p * (i + 3)) as f64 * 0.011).sin()).collect();
        image(&values, &[2; 32 * 32])
    };
    let xs: Vec<Tensor> = (0..6).map(sample).collect();
    let ys: Vec<usize> = (0..6).map(|i| i % 3).collect();
    let mut net = spectrogram_cnn_scaled(3, 11, 16);
    let config = TrainConfig { epochs: 2, batch_size: 2, learning_rate: 1e-2, seed: 5 };
    net.fit(&xs, &ys, &xs[..1], &ys[..1], &config);
    let other = LoweredCnn::from_sequential(&spectrogram_cnn_scaled(3, 12, 32)).unwrap();
    for x in xs.iter().chain([&sample(17)]) {
        assert_lowered_matches(&mut net, &other, x);
    }
}
