//! Symmetric int8 quantization and an i32-accumulating int8 GEMM.
//!
//! These back the `cnn-int8` rung of the stream degradation ladder: a
//! post-training quantization of the spectrogram CNN that trades a bounded
//! accuracy loss for integer arithmetic. Unlike the f64 kernels, the int8
//! path is **explicitly lossy** — it is a distinct [`InferenceLevel`] the
//! operator opts into under load, never a silent substitution, so the
//! bit-exactness contract of the f64 reference/fast pair does not apply
//! here. Determinism still does: quantization and the integer GEMM are
//! exact, so the rung's verdicts are byte-identical across thread counts
//! and kernel modes.
//!
//! [`InferenceLevel`]: https://docs.rs/emoleak-core

/// Symmetric per-tensor quantization to int8: `q = round(v / scale)`
/// clamped to `[-127, 127]`, with `scale = max|v| / 127` (1.0 for an
/// all-zero tensor). Infinities saturate and NaN maps to 0.
#[must_use]
pub fn quantize_symmetric(values: &[f64]) -> (Vec<i8>, f64) {
    let mut q = Vec::new();
    let scale = quantize_symmetric_into(values, &mut q);
    (q, scale)
}

/// [`quantize_symmetric`] into a reused buffer; returns the scale.
pub fn quantize_symmetric_into(values: &[f64], q: &mut Vec<i8>) -> f64 {
    let max = values.iter().fold(0.0f64, |a, &v| if v.is_finite() { a.max(v.abs()) } else { a });
    let scale = if max > 0.0 { max / 127.0 } else { 1.0 };
    q.clear();
    q.extend(values.iter().map(|&v| {
        if v.is_nan() {
            0
        } else {
            (v / scale).round().clamp(-127.0, 127.0) as i8
        }
    }));
    scale
}

/// Reconstructs the real value a quantized entry represents.
#[inline]
#[must_use]
pub fn dequantize(q: i8, scale: f64) -> f64 {
    f64::from(q) * scale
}

/// Integer GEMM: `C += A · B` for row-major int8 `A` (`m × k`), `B`
/// (`k × n`) with i32 accumulation. With `|q| ≤ 127`, an i32 accumulator
/// is exact up to k ≈ 133 000 taps — far beyond any layer here — so the
/// result is order-independent and deterministic by construction.
///
/// # Panics
///
/// Panics if the slice lengths do not match `m`/`k`/`n`.
pub fn gemm_i8(m: usize, k: usize, n: usize, a: &[i8], b: &[i8], c: &mut [i32]) {
    assert_eq!(a.len(), m * k, "gemm_i8: A must be m*k");
    assert_eq!(b.len(), k * n, "gemm_i8: B must be k*n");
    assert_eq!(c.len(), m * n, "gemm_i8: C must be m*n");
    // ikj row-panel loop; i16 products widen into the i32 accumulator
    // without overflow.
    for i in 0..m {
        let arow = &a[i * k..(i + 1) * k];
        let crow = &mut c[i * n..(i + 1) * n];
        for (kk, &aik) in arow.iter().enumerate() {
            if aik == 0 {
                continue;
            }
            let aik = i32::from(aik);
            let brow = &b[kk * n..(kk + 1) * n];
            for (cv, &bv) in crow.iter_mut().zip(brow) {
                *cv += aik * i32::from(bv);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantization_round_trips_within_half_step() {
        let v = [0.5, -1.0, 0.25, 0.0, 1.0];
        let (q, scale) = quantize_symmetric(&v);
        for (orig, &qi) in v.iter().zip(&q) {
            let back = dequantize(qi, scale);
            assert!((orig - back).abs() <= scale / 2.0 + 1e-12, "{orig} -> {back}");
        }
        // Extremes hit the full ±127 range.
        assert_eq!(q[1], -127);
        assert_eq!(q[4], 127);
    }

    #[test]
    fn all_zero_tensor_uses_unit_scale() {
        let (q, scale) = quantize_symmetric(&[0.0, 0.0]);
        assert_eq!(q, vec![0, 0]);
        assert_eq!(scale, 1.0);
    }

    #[test]
    fn non_finite_values_saturate_or_zero() {
        let (q, scale) = quantize_symmetric(&[f64::INFINITY, f64::NEG_INFINITY, f64::NAN, 1.0]);
        assert_eq!(scale, 1.0 / 127.0);
        assert_eq!(q, vec![127, -127, 0, 127]);
    }

    #[test]
    fn quantizing_before_im2col_equals_quantizing_after() {
        use crate::conv::im2col_2d;
        let map = [0.5, -0.0, f64::NAN, 2.0, 0.0, -1.25, f64::INFINITY, 0.75, -3.0];
        for input in [&map[..], &[0.0; 9][..], &[f64::NAN; 9][..]] {
            for (kh, kw) in [(3, 3), (1, 1), (2, 3)] {
                let mut cols = Vec::new();
                im2col_2d(input, &[0], 3, 3, kh, kw, &mut cols);
                let (after, after_scale) = quantize_symmetric(&cols);
                let (xq, before_scale) = quantize_symmetric(input);
                let mut before = Vec::new();
                im2col_2d(&xq, &[0], 3, 3, kh, kw, &mut before);
                assert_eq!(after, before, "{kh}x{kw} on {input:?}");
                assert_eq!(after_scale.to_bits(), before_scale.to_bits());
            }
        }
    }

    #[test]
    fn dropping_zero_planes_keeps_every_accumulator() {
        use crate::conv::{im2col_2d, lower_live_planes, Conv2dScratch};
        // Planes 1 and 3 quantize to all zeros (one of them from values
        // below half a step); the compacted product must give the full
        // product's i32 sums exactly, with every plane dead too.
        let (in_ch, h, w, out_ch, kh, kw) = (4, 4, 5, 3, 3, 3);
        let n = h * w;
        let x: Vec<f64> = (0..in_ch * n)
            .map(|i| match i / n {
                1 => 0.0,
                3 => 1e-9 * (i % 3) as f64,
                _ => ((i * 37) % 23) as f64 - 11.0,
            })
            .collect();
        let wf: Vec<f64> =
            (0..out_ch * in_ch * kh * kw).map(|i| ((i * 13) % 17) as f64 - 8.0).collect();
        let (wq, _) = quantize_symmetric(&wf);
        let mut scratch = Conv2dScratch::default();
        for input in [x.clone(), vec![0.0; in_ch * n]] {
            let (xq, _) = quantize_symmetric(&input);
            let mut cols = Vec::new();
            im2col_2d(&xq, &[0, 1, 2, 3], h, w, kh, kw, &mut cols);
            let mut full = vec![0i32; out_ch * n];
            gemm_i8(out_ch, in_ch * kh * kw, n, &wq, &cols, &mut full);
            let (k, a, b) = lower_live_planes(&xq, in_ch, h, w, kh, kw, &wq, &mut scratch);
            let mut live = vec![0i32; out_ch * n];
            gemm_i8(out_ch, k, n, a, b, &mut live);
            assert!(k < in_ch * kh * kw);
            assert_eq!(live, full);
        }
    }

    #[test]
    fn integer_gemm_is_exact() {
        // [1 2; 3 4] * [5 6; 7 8]
        let a: [i8; 4] = [1, 2, 3, 4];
        let b: [i8; 4] = [5, 6, 7, 8];
        let mut c = [0i32; 4];
        gemm_i8(2, 2, 2, &a, &b, &mut c);
        assert_eq!(c, [19, 22, 43, 50]);
    }

    #[test]
    fn worst_case_accumulation_does_not_overflow() {
        let k = 4096;
        let a = vec![127i8; k];
        let b = vec![-127i8; k];
        let mut c = [0i32];
        gemm_i8(1, k, 1, &a, &b, &mut c);
        assert_eq!(c[0], -(127 * 127 * k as i32));
    }
}
