//! Convolution kernels: scalar reference and im2col + register-tiled GEMM
//! fast path, with fused bias preload and optional fused ReLU.
//!
//! Layout matches `emoleak_ml::nn`: stride 1, "same" zero padding, input
//! `[C_in, H, W]` / `[C_in, L]`, weights `[out][in][kh][kw]` / `[out][in][k]`.
//!
//! # Bit-exactness and the padded-tap hazard
//!
//! The reference kernels *skip* out-of-bounds taps; im2col instead lowers
//! them to explicit `0.0` entries, so the fast path adds `w · 0.0 = ±0.0`
//! terms the reference never sees. Adding `±0.0` to an accumulator is an
//! IEEE-754 no-op **unless** the accumulator is exactly `-0.0` (then
//! `-0.0 + 0.0 = +0.0`) or the weight is non-finite (`NaN · 0.0 = NaN`,
//! `∞ · 0.0 = NaN`). The accumulator starts at the bias and, in
//! round-to-nearest, a sum can only be `-0.0` when *both* operands are
//! `-0.0` — so with a bias that is not `-0.0`, the accumulator never
//! becomes `-0.0` and every padded-tap addition is exact. Trained biases
//! cannot be `-0.0` (they start at `+0.0`, and neither SGD/momentum nor
//! Adam updates can produce `-0.0` from a non-`-0.0` parameter), but the
//! kernels do not rely on callers knowing that: [`conv2d_fast`] /
//! [`conv1d_fast`] check the hazard preconditions and silently delegate to
//! the reference path for hand-built pathological parameters. Bit-identity
//! is therefore unconditional.

use crate::gemm::gemm_fast;

/// Activation fused into the convolution's output pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Activation {
    /// No activation: plain conv + bias.
    #[default]
    Identity,
    /// `v.max(0.0)`, bitwise-identical to `emoleak_ml`'s ReLU layer.
    Relu,
}

impl Activation {
    /// Applies the activation in place.
    pub fn apply(self, out: &mut [f64]) {
        if self == Activation::Relu {
            for v in out {
                *v = v.max(0.0);
            }
        }
    }
}

/// True when the im2col lowering's extra `w · 0.0` terms are provably
/// exact no-ops (see the module docs); false falls back to the reference.
fn fast_path_safe(weights: &[f64], bias: &[f64]) -> bool {
    weights.iter().all(|v| v.is_finite())
        && !bias.iter().any(|v| *v == 0.0 && v.is_sign_negative())
}

// ---------------------------------------------------------------------------
// Conv2d
// ---------------------------------------------------------------------------

/// Reusable im2col buffer for [`conv2d_fast`]; hold one per layer so the
/// steady-state forward pass performs no allocation.
#[derive(Debug, Clone, Default)]
pub struct Conv2dScratch {
    cols: Vec<f64>,
}

/// Scalar reference 2-D convolution (+ bias, + optional fused activation),
/// writing `[C_out, H, W]` into `out`.
///
/// # Panics
///
/// Panics if the slice lengths are inconsistent with the dimensions.
#[allow(clippy::too_many_arguments)]
pub fn conv2d_ref(
    input: &[f64],
    in_ch: usize,
    h: usize,
    w: usize,
    out_ch: usize,
    kh: usize,
    kw: usize,
    weights: &[f64],
    bias: &[f64],
    act: Activation,
    out: &mut Vec<f64>,
) {
    assert_eq!(input.len(), in_ch * h * w, "conv2d: input must be C*H*W");
    assert_eq!(weights.len(), out_ch * in_ch * kh * kw, "conv2d: bad weight count");
    assert_eq!(bias.len(), out_ch, "conv2d: bad bias count");
    let (ph, pw) = (kh / 2, kw / 2);
    out.clear();
    out.resize(out_ch * h * w, 0.0);
    for o in 0..out_ch {
        for y in 0..h {
            for x in 0..w {
                let mut acc = bias[o];
                for c in 0..in_ch {
                    for ky in 0..kh {
                        let iy = (y + ky).wrapping_sub(ph);
                        if iy >= h {
                            continue;
                        }
                        for kx in 0..kw {
                            let ix = (x + kx).wrapping_sub(pw);
                            if ix >= w {
                                continue;
                            }
                            acc += weights[((o * in_ch + c) * kh + ky) * kw + kx]
                                * input[(c * h + iy) * w + ix];
                        }
                    }
                }
                out[(o * h + y) * w + x] = acc;
            }
        }
    }
    act.apply(out);
}

/// im2col + register-tiled GEMM 2-D convolution, bit-identical to
/// [`conv2d_ref`] for all inputs (pathological parameters delegate to it).
///
/// # Panics
///
/// Panics if the slice lengths are inconsistent with the dimensions.
#[allow(clippy::too_many_arguments)]
pub fn conv2d_fast(
    input: &[f64],
    in_ch: usize,
    h: usize,
    w: usize,
    out_ch: usize,
    kh: usize,
    kw: usize,
    weights: &[f64],
    bias: &[f64],
    act: Activation,
    scratch: &mut Conv2dScratch,
    out: &mut Vec<f64>,
) {
    if !fast_path_safe(weights, bias) {
        return conv2d_ref(input, in_ch, h, w, out_ch, kh, kw, weights, bias, act, out);
    }
    assert_eq!(input.len(), in_ch * h * w, "conv2d: input must be C*H*W");
    assert_eq!(weights.len(), out_ch * in_ch * kh * kw, "conv2d: bad weight count");
    assert_eq!(bias.len(), out_ch, "conv2d: bad bias count");
    let k_dim = in_ch * kh * kw;
    let n = h * w;
    im2col_2d(input, in_ch, h, w, kh, kw, &mut scratch.cols);
    let cols = &scratch.cols;

    // out = bias ⊕ W · cols, accumulated in the same ascending-k order as
    // the reference's register accumulation.
    out.clear();
    out.resize(out_ch * n, 0.0);
    for (o, orow) in out.chunks_exact_mut(n).enumerate() {
        orow.fill(bias[o]);
    }
    gemm_fast(out_ch, k_dim, n, weights, cols, out);
    act.apply(out);
}

/// Lowers a `[C_in, H, W]` map to the `[C_in·kh·kw × H·W]` im2col patch
/// matrix for a stride-1 "same"-padded convolution: row `(c, ky, kx)` —
/// matching the `[out][in][kh][kw]` weight layout — column `(y, x)`,
/// out-of-bounds taps as `T::default()` (`0.0`, or `0` for int8). Shared by
/// the f64 fast path and the int8 path, which lowers the already-quantized
/// input.
pub fn im2col_2d<T: Copy + Default>(
    input: &[T],
    in_ch: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    cols: &mut Vec<T>,
) {
    assert_eq!(input.len(), in_ch * h * w, "im2col2d: input must be C*H*W");
    let (ph, pw) = (kh / 2, kw / 2);
    let n = h * w;
    cols.clear();
    cols.resize(in_ch * kh * kw * n, T::default());
    for c in 0..in_ch {
        for ky in 0..kh {
            for kx in 0..kw {
                let row = (c * kh + ky) * kw + kx;
                let dst = &mut cols[row * n..(row + 1) * n];
                for y in 0..h {
                    let iy = (y + ky).wrapping_sub(ph);
                    if iy >= h {
                        continue; // whole row stays zero-padded
                    }
                    let src = &input[(c * h + iy) * w..(c * h + iy + 1) * w];
                    // valid x satisfy 0 <= x + kx - pw < w
                    let x0 = pw.saturating_sub(kx);
                    let x1 = ((w + pw).saturating_sub(kx)).min(w);
                    if x0 < x1 {
                        dst[y * w + x0..y * w + x1]
                            .copy_from_slice(&src[x0 + kx - pw..x1 + kx - pw]);
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Conv1d
// ---------------------------------------------------------------------------

/// Reusable im2col buffer for [`conv1d_fast`].
#[derive(Debug, Clone, Default)]
pub struct Conv1dScratch {
    cols: Vec<f64>,
}

/// Scalar reference 1-D convolution (+ bias, + optional fused activation),
/// writing `[C_out, L]` into `out`.
///
/// # Panics
///
/// Panics if the slice lengths are inconsistent with the dimensions.
#[allow(clippy::too_many_arguments)]
pub fn conv1d_ref(
    input: &[f64],
    in_ch: usize,
    l: usize,
    out_ch: usize,
    k: usize,
    weights: &[f64],
    bias: &[f64],
    act: Activation,
    out: &mut Vec<f64>,
) {
    assert_eq!(input.len(), in_ch * l, "conv1d: input must be C*L");
    assert_eq!(weights.len(), out_ch * in_ch * k, "conv1d: bad weight count");
    assert_eq!(bias.len(), out_ch, "conv1d: bad bias count");
    let p = k / 2;
    out.clear();
    out.resize(out_ch * l, 0.0);
    for o in 0..out_ch {
        for t in 0..l {
            let mut acc = bias[o];
            for c in 0..in_ch {
                for kk in 0..k {
                    let it = (t + kk).wrapping_sub(p);
                    if it >= l {
                        continue;
                    }
                    acc += weights[(o * in_ch + c) * k + kk] * input[c * l + it];
                }
            }
            out[o * l + t] = acc;
        }
    }
    act.apply(out);
}

/// im2col + register-tiled GEMM 1-D convolution, bit-identical to
/// [`conv1d_ref`] for all inputs (pathological parameters delegate to it).
///
/// # Panics
///
/// Panics if the slice lengths are inconsistent with the dimensions.
#[allow(clippy::too_many_arguments)]
pub fn conv1d_fast(
    input: &[f64],
    in_ch: usize,
    l: usize,
    out_ch: usize,
    k: usize,
    weights: &[f64],
    bias: &[f64],
    act: Activation,
    scratch: &mut Conv1dScratch,
    out: &mut Vec<f64>,
) {
    if !fast_path_safe(weights, bias) {
        return conv1d_ref(input, in_ch, l, out_ch, k, weights, bias, act, out);
    }
    assert_eq!(input.len(), in_ch * l, "conv1d: input must be C*L");
    assert_eq!(weights.len(), out_ch * in_ch * k, "conv1d: bad weight count");
    assert_eq!(bias.len(), out_ch, "conv1d: bad bias count");
    let k_dim = in_ch * k;
    im2col_1d(input, in_ch, l, k, &mut scratch.cols);
    let cols = &scratch.cols;

    out.clear();
    out.resize(out_ch * l, 0.0);
    for (o, orow) in out.chunks_exact_mut(l).enumerate() {
        orow.fill(bias[o]);
    }
    gemm_fast(out_ch, k_dim, l, weights, cols, out);
    act.apply(out);
}

/// Lowers a `[C_in, L]` map to the `[C_in·k × L]` im2col patch matrix for
/// a stride-1 "same"-padded convolution (see [`im2col_2d`]).
pub fn im2col_1d(input: &[f64], in_ch: usize, l: usize, k: usize, cols: &mut Vec<f64>) {
    assert_eq!(input.len(), in_ch * l, "im2col1d: input must be C*L");
    let p = k / 2;
    cols.clear();
    cols.resize(in_ch * k * l, 0.0);
    for c in 0..in_ch {
        for kk in 0..k {
            let row = c * k + kk;
            let dst = &mut cols[row * l..(row + 1) * l];
            let src = &input[c * l..(c + 1) * l];
            // valid t satisfy 0 <= t + kk - p < l
            let t0 = p.saturating_sub(kk);
            let t1 = ((l + p).saturating_sub(kk)).min(l);
            if t0 < t1 {
                dst[t0..t1].copy_from_slice(&src[t0 + kk - p..t1 + kk - p]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn vals(rng: &mut StdRng, len: usize) -> Vec<f64> {
        (0..len).map(|_| rng.gen_range(-1.5..1.5)).collect()
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn conv2d_fast_matches_ref_bitwise_over_shapes() {
        let mut rng = StdRng::seed_from_u64(11);
        // Odd and even kernels, 1x1, non-square maps, multi-channel.
        for (in_ch, h, w, out_ch, kh, kw) in
            [(1, 4, 4, 2, 3, 3), (2, 5, 3, 3, 1, 1), (3, 6, 7, 2, 2, 2), (2, 1, 9, 4, 3, 5)]
        {
            let input = vals(&mut rng, in_ch * h * w);
            let weights = vals(&mut rng, out_ch * in_ch * kh * kw);
            let bias = vals(&mut rng, out_ch);
            let (mut r, mut f) = (Vec::new(), Vec::new());
            let mut scratch = Conv2dScratch::default();
            for act in [Activation::Identity, Activation::Relu] {
                conv2d_ref(&input, in_ch, h, w, out_ch, kh, kw, &weights, &bias, act, &mut r);
                conv2d_fast(
                    &input, in_ch, h, w, out_ch, kh, kw, &weights, &bias, act, &mut scratch,
                    &mut f,
                );
                assert_eq!(bits(&r), bits(&f), "shape ({in_ch},{h},{w},{out_ch},{kh},{kw})");
            }
        }
    }

    #[test]
    fn conv1d_fast_matches_ref_bitwise_over_shapes() {
        let mut rng = StdRng::seed_from_u64(13);
        for (in_ch, l, out_ch, k) in [(1, 8, 2, 3), (2, 5, 3, 1), (3, 9, 2, 4), (1, 1, 1, 7)] {
            let input = vals(&mut rng, in_ch * l);
            let weights = vals(&mut rng, out_ch * in_ch * k);
            let bias = vals(&mut rng, out_ch);
            let (mut r, mut f) = (Vec::new(), Vec::new());
            let mut scratch = Conv1dScratch::default();
            conv1d_ref(&input, in_ch, l, out_ch, k, &weights, &bias, Activation::Identity, &mut r);
            conv1d_fast(
                &input,
                in_ch,
                l,
                out_ch,
                k,
                &weights,
                &bias,
                Activation::Identity,
                &mut scratch,
                &mut f,
            );
            assert_eq!(bits(&r), bits(&f), "shape ({in_ch},{l},{out_ch},{k})");
        }
    }

    #[test]
    fn pathological_parameters_fall_back_and_stay_bit_identical() {
        // A -0.0 bias and a NaN weight are exactly the cases where im2col's
        // padded zeros would not be no-ops; the fast path must delegate.
        let input = [1.0, -2.0, 3.0, 0.5];
        let mut scratch = Conv2dScratch::default();
        let (mut r, mut f) = (Vec::new(), Vec::new());
        for (weights, bias) in [
            (vec![0.5, -0.25, 1.0, 2.0, -1.0, 0.0, 0.75, -0.5, 0.125], vec![-0.0]),
            (vec![0.5, f64::NAN, 1.0, 2.0, -1.0, 0.0, 0.75, -0.5, 0.125], vec![0.1]),
        ] {
            conv2d_ref(&input, 1, 2, 2, 1, 3, 3, &weights, &bias, Activation::Identity, &mut r);
            conv2d_fast(
                &input,
                1,
                2,
                2,
                1,
                3,
                3,
                &weights,
                &bias,
                Activation::Identity,
                &mut scratch,
                &mut f,
            );
            assert_eq!(bits(&r), bits(&f));
        }
    }

    #[test]
    fn fused_relu_clamps_negative_outputs() {
        let input = [1.0, 1.0];
        let weights = [-1.0];
        let bias = [0.25];
        let mut out = Vec::new();
        conv1d_ref(&input, 1, 2, 1, 1, &weights, &bias, Activation::Relu, &mut out);
        assert_eq!(out, vec![0.0, 0.0]);
        conv1d_ref(&input, 1, 2, 1, 1, &weights, &bias, Activation::Identity, &mut out);
        assert_eq!(out, vec![-0.75, -0.75]);
    }

    #[test]
    fn scratch_reuse_across_differing_shapes_is_clean() {
        let mut rng = StdRng::seed_from_u64(17);
        let mut scratch = Conv2dScratch::default();
        // Big shape first, then small: stale tail bytes must not leak in.
        for (h, w) in [(8, 8), (2, 3)] {
            let input = vals(&mut rng, h * w);
            let weights = vals(&mut rng, 9);
            let bias = vals(&mut rng, 1);
            let (mut r, mut f) = (Vec::new(), Vec::new());
            conv2d_ref(&input, 1, h, w, 1, 3, 3, &weights, &bias, Activation::Identity, &mut r);
            conv2d_fast(
                &input,
                1,
                h,
                w,
                1,
                3,
                3,
                &weights,
                &bias,
                Activation::Identity,
                &mut scratch,
                &mut f,
            );
            assert_eq!(bits(&r), bits(&f), "{h}x{w}");
        }
    }
}
