//! Convolution kernels: scalar reference and im2col + register-tiled GEMM
//! fast path, with fused bias preload and optional fused ReLU.
//!
//! Layout matches `emoleak_ml::nn`: stride 1, "same" zero padding, input
//! `[C_in, H, W]`, weights `[out][in][kh][kw]`. A 1-D convolution over
//! `[C_in, L]` with `[out][in][k]` weights is the case `H = kh = 1`: the
//! same values in the same layout, and the same operations in the same
//! order.
//!
//! # Bit-exactness: padded taps and dead planes
//!
//! The reference kernel *skips* out-of-bounds taps; im2col instead lowers
//! them to explicit `0.0` entries, so the fast path adds `w · 0.0 = ±0.0`
//! terms the reference never sees. Adding `±0.0` to an accumulator is an
//! IEEE-754 no-op **unless** the accumulator is exactly `-0.0` (then
//! `-0.0 + 0.0 = +0.0`) or the weight is non-finite (`NaN · 0.0 = NaN`,
//! `∞ · 0.0 = NaN`). The accumulator starts at the bias and, in
//! round-to-nearest, a sum can only be `-0.0` when *both* operands are
//! `-0.0` — so with a bias that is not `-0.0`, the accumulator never
//! becomes `-0.0` and every padded-tap addition is exact.
//!
//! The same two preconditions make a second kind of term an exact no-op:
//! the taps of a *dead* input plane, one whose every value is `±0.0` (a
//! channel its ReLU zeroes for this input). The reference adds that
//! plane's `w · ±0.0` terms; [`conv2d_fast`] does not lower the plane at
//! all. It lowers only the live planes and their weight columns, so its
//! GEMM runs over `k = live · kh · kw` and every term it keeps is added
//! in the reference's order. With every plane dead, the output is the
//! bias.
//!
//! Trained biases cannot be `-0.0` (they start at `+0.0`, and neither
//! SGD/momentum nor Adam updates can produce `-0.0` from a non-`-0.0`
//! parameter), but the kernel does not rely on callers knowing that:
//! [`conv2d_fast`] checks both preconditions (`fast_path_safe`) before it
//! lowers anything, and delegates hand-built pathological parameters to
//! the reference path. Bit-identity is therefore unconditional.
//!
//! The int8 rung lowers through the same [`lower_live_planes`]. There the
//! dropped terms are integer zeros, exact without any precondition.

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

/// True when the `w · ±0.0` terms the fast path adds (padded taps) or
/// drops (dead planes) are provably exact no-ops (see the module docs);
/// false falls back to the reference.
fn fast_path_safe(weights: &[f64], bias: &[f64]) -> bool {
    weights.iter().all(|v| v.is_finite())
        && !bias.iter().any(|v| *v == 0.0 && v.is_sign_negative())
}

// ---------------------------------------------------------------------------
// Conv2d
// ---------------------------------------------------------------------------

/// Reusable buffers for [`lower_live_planes`]: the live plane indices,
/// their im2col matrix and their gathered weight columns. Hold one per
/// layer (or per serving thread) so the steady-state forward pass performs
/// no allocation. `T` is `f64` for [`conv2d_fast`] and `i8` for the int8
/// rung.
#[derive(Debug, Clone, Default)]
pub struct Conv2dScratch<T = f64> {
    live: Vec<usize>,
    cols: Vec<T>,
    gathered: Vec<T>,
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

/// im2col + register-tiled GEMM 2-D convolution over the live input
/// planes, bit-identical to [`conv2d_ref`] for all inputs (pathological
/// parameters delegate to it; see the module docs).
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
    assert_eq!(weights.len(), out_ch * in_ch * kh * kw, "conv2d: bad weight count");
    assert_eq!(bias.len(), out_ch, "conv2d: bad bias count");
    let n = h * w;
    let (k, a, cols) = lower_live_planes(input, in_ch, h, w, kh, kw, weights, scratch);

    // out = bias ⊕ W · cols, accumulated in the same ascending-k order as
    // the reference's register accumulation.
    out.clear();
    out.resize(out_ch * n, 0.0);
    for (o, orow) in out.chunks_exact_mut(n).enumerate() {
        orow.fill(bias[o]);
    }
    gemm_fast(out_ch, k, n, a, cols, out);
    act.apply(out);
}

/// Lowers the live planes of a `[C_in, H, W]` map, those holding a value
/// other than `T::default()` (`-0.0` counts as zero, NaN as live), for the
/// `[out][in][kh][kw]` `weights`. Returns the GEMM operands `(k, a, b)`:
/// `k = live · kh · kw`, `a` the `out × k` weight columns of the live
/// planes (`weights` itself when every plane is live, so that case is the
/// plain lowering) and `b` their `k × H·W` im2col matrix. With no live
/// plane, `k` is 0 and both operands are empty.
///
/// # Panics
///
/// Panics if `input` is not `C_in·H·W` long or `weights` is not a whole
/// number of `C_in·kh·kw` rows.
#[allow(clippy::too_many_arguments)]
pub fn lower_live_planes<'a, T: Copy + Default + PartialEq>(
    input: &[T],
    in_ch: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    weights: &'a [T],
    scratch: &'a mut Conv2dScratch<T>,
) -> (usize, &'a [T], &'a [T]) {
    let (n, taps) = (h * w, kh * kw);
    assert_eq!(input.len(), in_ch * n, "conv2d: input must be C*H*W");
    let row = in_ch * taps;
    assert!(weights.len().is_multiple_of(row), "conv2d: bad weight count");
    let Conv2dScratch { live, cols, gathered } = scratch;
    live.clear();
    live.extend((0..in_ch).filter(|&c| input[c * n..][..n].iter().any(|&v| v != T::default())));
    im2col_2d(input, live, h, w, kh, kw, cols);
    if live.len() == in_ch {
        return (row, weights, cols);
    }
    gathered.clear();
    for wrow in weights.chunks_exact(row) {
        for &c in live.iter() {
            gathered.extend_from_slice(&wrow[c * taps..][..taps]);
        }
    }
    (live.len() * taps, gathered, cols)
}

/// Lowers the listed `planes` of a `[C_in, H, W]` map to the
/// `[planes·kh·kw × H·W]` im2col patch matrix for a stride-1
/// "same"-padded convolution: row `(i, ky, kx)` for the `i`-th listed
/// plane — matching the `[out][in][kh][kw]` weight layout — column
/// `(y, x)`, out-of-bounds taps as `T::default()` (`0.0`, or `0` for
/// int8).
pub(crate) fn im2col_2d<T: Copy + Default>(
    input: &[T],
    planes: &[usize],
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    cols: &mut Vec<T>,
) {
    let (ph, pw) = (kh / 2, kw / 2);
    let n = h * w;
    cols.clear();
    cols.resize(planes.len() * kh * kw * n, T::default());
    for (i, &c) in planes.iter().enumerate() {
        let plane = &input[c * n..(c + 1) * n];
        for ky in 0..kh {
            for kx in 0..kw {
                let row = (i * kh + ky) * kw + kx;
                let dst = &mut cols[row * n..(row + 1) * n];
                for y in 0..h {
                    let iy = (y + ky).wrapping_sub(ph);
                    if iy >= h {
                        continue; // whole row stays zero-padded
                    }
                    let src = &plane[iy * w..(iy + 1) * w];
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

    fn assert_fast_matches_ref(
        input: &[f64],
        (in_ch, h, w, out_ch, kh, kw): (usize, usize, usize, usize, usize, usize),
        weights: &[f64],
        bias: &[f64],
        scratch: &mut Conv2dScratch,
    ) {
        let (mut r, mut f) = (Vec::new(), Vec::new());
        for act in [Activation::Identity, Activation::Relu] {
            conv2d_ref(input, in_ch, h, w, out_ch, kh, kw, weights, bias, act, &mut r);
            conv2d_fast(input, in_ch, h, w, out_ch, kh, kw, weights, bias, act, scratch, &mut f);
            assert_eq!(bits(&r), bits(&f), "shape ({in_ch},{h},{w},{out_ch},{kh},{kw})");
        }
    }

    #[test]
    fn conv2d_fast_matches_ref_bitwise_over_shapes() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut scratch = Conv2dScratch::default();
        // Odd and even kernels, 1x1, non-square maps, multi-channel; the
        // last four are 1-D convolutions (H = kh = 1).
        for shape @ (in_ch, h, w, out_ch, kh, kw) in [
            (1, 4, 4, 2, 3, 3),
            (2, 5, 3, 3, 1, 1),
            (3, 6, 7, 2, 2, 2),
            (2, 1, 9, 4, 3, 5),
            (1, 1, 8, 2, 1, 3),
            (2, 1, 5, 3, 1, 1),
            (3, 1, 9, 2, 1, 4),
            (1, 1, 1, 1, 1, 7),
        ] {
            let input = vals(&mut rng, in_ch * h * w);
            let weights = vals(&mut rng, out_ch * in_ch * kh * kw);
            let bias = vals(&mut rng, out_ch);
            assert_fast_matches_ref(&input, shape, &weights, &bias, &mut scratch);
        }
    }

    #[test]
    fn only_live_planes_are_lowered() {
        let mut rng = StdRng::seed_from_u64(19);
        let shape @ (in_ch, h, w, out_ch, kh, kw) = (4, 5, 6, 3, 3, 3);
        let n = h * w;
        let mut scratch = Conv2dScratch::default();
        let weights = vals(&mut rng, out_ch * in_ch * kh * kw);
        let bias = vals(&mut rng, out_ch);
        let live_values = vals(&mut rng, in_ch * n);
        // Planes 0 and 2 live; 1 all -0.0; 3 mixed ±0.
        let mut input = live_values.clone();
        input[n..2 * n].fill(-0.0);
        for (i, v) in input[3 * n..].iter_mut().enumerate() {
            *v = if i % 3 == 0 { -0.0 } else { 0.0 };
        }
        let (k, a, cols) = lower_live_planes(&input, in_ch, h, w, kh, kw, &weights, &mut scratch);
        assert_eq!((k, a.len(), cols.len()), (2 * 9, out_ch * 2 * 9, 2 * 9 * n));
        assert_fast_matches_ref(&input, shape, &weights, &bias, &mut scratch);

        // Every plane dead: the k = 0 GEMM leaves the bias.
        let dead = vec![-0.0; in_ch * n];
        let (k, a, cols) = lower_live_planes(&dead, in_ch, h, w, kh, kw, &weights, &mut scratch);
        assert_eq!((k, a.len(), cols.len()), (0, 0, 0));
        assert_fast_matches_ref(&dead, shape, &weights, &bias, &mut scratch);

        // A non-finite weight on a dead plane makes w · 0.0 a NaN the
        // reference adds: the fast path must delegate, not skip it.
        let mut bad = weights.clone();
        bad[in_ch * kh * kw + 9 + 4] = f64::INFINITY; // output 1, plane 1
        assert_fast_matches_ref(&input, shape, &bad, &bias, &mut scratch);
        let (act, mut f) = (Activation::Identity, Vec::new());
        conv2d_fast(&input, in_ch, h, w, out_ch, kh, kw, &bad, &bias, act, &mut scratch, &mut f);
        assert!(f[n..2 * n].iter().all(|v| v.is_nan()), "w · 0.0 = NaN reaches the output");

        // Every plane live: the lowering passes the weights through as is.
        let (k, a, _) =
            lower_live_planes(&live_values, in_ch, h, w, kh, kw, &weights, &mut scratch);
        assert_eq!(k, in_ch * 9);
        assert!(std::ptr::eq(a, &weights[..]));
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
        conv2d_ref(&input, 1, 1, 2, 1, 1, 1, &weights, &bias, Activation::Relu, &mut out);
        assert_eq!(out, vec![0.0, 0.0]);
        conv2d_ref(&input, 1, 1, 2, 1, 1, 1, &weights, &bias, Activation::Identity, &mut out);
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
