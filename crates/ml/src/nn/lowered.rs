//! The lowered inference network behind both CNN rungs of the serving
//! ladder.
//!
//! [`LoweredCnn`] lowers a trained [`Sequential`] once into an immutable
//! stack of inference layers: ReLU is fused into the preceding convolution
//! or dense layer and dropout disappears (inference identity). Every
//! convolution and dense layer keeps its f64 weights beside their
//! symmetric int8 quantization, so one lowering serves two precisions:
//!
//! - [`Precision::F64`] runs the f64 conv kernels with the ReLU fused. Its
//!   logits are **bit-identical** to `Sequential::forward(x, false)`, in
//!   either kernel mode.
//! - [`Precision::Int8`] quantizes each matmul layer's input once per
//!   tensor, lowers the planes that quantize to anything but zero to
//!   im2col in i8, and multiplies through
//!   `emoleak_kernels::int8::gemm_i8` with exact i32 accumulation. It is
//!   deliberately *lossy* relative to the f64 model — a distinct
//!   `InferenceLevel` rung the streaming service opts into under load,
//!   never a silent substitute — but deterministic: integer arithmetic is
//!   exact, so the same input always yields the same verdict.
//!
//! Pooling and flatten run in f64 at both precisions. A forward pass takes
//! `&self` and a caller-owned [`CnnScratch`] holding every activation and
//! im2col buffer, so threads share one network without a lock, and a
//! reused scratch allocates nothing per call. Every layer reports a shape
//! it cannot take as a typed [`ShapeError`].

use super::layers::{max_pool, ShapeError};
use super::Sequential;
use crate::linalg::{argmax, dot};
use emoleak_kernels::conv::{conv2d_fast, conv2d_ref, lower_live_planes};
use emoleak_kernels::int8::{gemm_i8, quantize_symmetric, quantize_symmetric_into};
use emoleak_kernels::{Activation, Conv2dScratch, KernelMode};

/// An inference-relevant description of one trained layer, exported by
/// [`super::layers::Layer::spec`] so [`LoweredCnn::from_sequential`] can
/// lower a network without downcasting.
#[derive(Debug, Clone)]
pub enum LayerSpec {
    /// Stride-1 "same"-padded 2-D convolution with trained weights/bias.
    Conv2d {
        /// Input channels.
        in_ch: usize,
        /// Kernel height.
        kh: usize,
        /// Kernel width.
        kw: usize,
        /// Weights, `[out][in][kh][kw]`.
        w: Vec<f64>,
        /// Per-output-channel bias; its length is the output channels.
        b: Vec<f64>,
    },
    /// Stride-1 "same"-padded 1-D convolution.
    Conv1d {
        /// Input channels.
        in_ch: usize,
        /// Kernel length.
        k: usize,
        /// Weights, `[out][in][k]`.
        w: Vec<f64>,
        /// Per-output-channel bias; its length is the output channels.
        b: Vec<f64>,
    },
    /// Fully connected layer.
    Dense {
        /// Input dimension.
        in_dim: usize,
        /// Weights, `out × in` row-major.
        w: Vec<f64>,
        /// Bias; its length is the output dimension.
        b: Vec<f64>,
    },
    /// ReLU — fused into the preceding matmul layer at lowering time.
    Relu,
    /// Inference-time identity (dropout).
    Identity,
    /// 2-D max pooling, kernel = stride.
    MaxPool2d {
        /// Pool size.
        pool: usize,
    },
    /// 1-D max pooling, kernel = stride.
    MaxPool1d {
        /// Pool size.
        pool: usize,
    },
    /// Flatten to 1-D.
    Flatten,
}

/// The arithmetic a lowered forward pass runs in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Precision {
    /// f64 through the given kernel mode, bit-identical to
    /// `Sequential::forward(x, false)`.
    F64(KernelMode),
    /// Symmetric int8 with i32 accumulation: lossy, deterministic.
    Int8,
}

/// A convolution or dense layer's parameters at both precisions.
#[derive(Debug, Clone)]
struct Params {
    w: Vec<f64>,
    b: Vec<f64>,
    wq: Vec<i8>,
    wscale: f64,
    act: Activation,
}

impl Params {
    fn new(w: Vec<f64>, b: Vec<f64>) -> Params {
        let (wq, wscale) = quantize_symmetric(&w);
        Params { w, b, wq, wscale, act: Activation::Identity }
    }

    /// `y = act(wq · xq · wscale · xscale + b)` for the `m × k` int8
    /// weights `wq` (all of `self.wq`, or the columns a lowering kept) and
    /// the `k × n` int8 activations `xq`, with `m = b.len()`.
    fn matmul_q8(
        &self,
        wq: &[i8],
        n: usize,
        xq: &[i8],
        xscale: f64,
        acc: &mut Vec<i32>,
        y: &mut Vec<f64>,
    ) {
        let m = self.b.len();
        acc.clear();
        acc.resize(m * n, 0);
        gemm_i8(m, wq.len() / m, n, wq, xq, acc);
        let s = self.wscale * xscale;
        y.clear();
        y.extend(acc.iter().enumerate().map(|(i, &v)| f64::from(v) * s + self.b[i / n]));
        self.act.apply(y);
    }
}

/// One lowered layer. A 1-D convolution or pool runs as the 2-D one on a
/// `[C, 1, L]` map with a `1 × k` window, which performs the same
/// operations in the same order; `rank` keeps the shape it checks and
/// reports.
#[derive(Debug, Clone)]
enum Lowered {
    Conv { rank: usize, in_ch: usize, kh: usize, kw: usize, p: Params },
    Dense { in_dim: usize, p: Params },
    MaxPool { rank: usize, pool: usize },
    Flatten,
}

/// Reusable buffers for [`LoweredCnn`] forward passes: the activations,
/// the f64 and int8 conv lowerings, and the int8 input and accumulator
/// buffers. One scratch serves networks of any width; hold one per thread.
#[derive(Debug, Default)]
pub struct CnnScratch {
    shape: Vec<usize>,
    x: Vec<f64>,
    y: Vec<f64>,
    conv: Conv2dScratch,
    xq: Vec<i8>,
    convq: Conv2dScratch<i8>,
    acc: Vec<i32>,
}

/// An immutable inference network lowered from a trained [`Sequential`],
/// serving both the f64 and the int8 CNN rung (see the module docs).
#[derive(Debug, Clone)]
pub struct LoweredCnn {
    layers: Vec<Lowered>,
}

impl LoweredCnn {
    /// Lowers a trained network. Returns `None` if any layer has no
    /// lowered form (e.g. batch normalization), a ReLU does not directly
    /// follow a convolution or dense layer, or the network is empty.
    pub fn from_sequential(net: &Sequential) -> Option<LoweredCnn> {
        let mut layers: Vec<Lowered> = Vec::new();
        for layer in &net.layers {
            match layer.spec()? {
                LayerSpec::Conv2d { in_ch, kh, kw, w, b } => {
                    layers.push(Lowered::Conv { rank: 3, in_ch, kh, kw, p: Params::new(w, b) });
                }
                LayerSpec::Conv1d { in_ch, k, w, b } => {
                    let p = Params::new(w, b);
                    layers.push(Lowered::Conv { rank: 2, in_ch, kh: 1, kw: k, p });
                }
                LayerSpec::Dense { in_dim, w, b } => {
                    layers.push(Lowered::Dense { in_dim, p: Params::new(w, b) });
                }
                LayerSpec::Relu => match layers.last_mut() {
                    Some(Lowered::Conv { p, .. } | Lowered::Dense { p, .. }) => {
                        p.act = Activation::Relu;
                    }
                    _ => return None,
                },
                LayerSpec::Identity => {}
                LayerSpec::MaxPool2d { pool } => layers.push(Lowered::MaxPool { rank: 3, pool }),
                LayerSpec::MaxPool1d { pool } => layers.push(Lowered::MaxPool { rank: 2, pool }),
                LayerSpec::Flatten => layers.push(Lowered::Flatten),
            }
        }
        if layers.is_empty() {
            return None;
        }
        Some(LoweredCnn { layers })
    }

    /// Logits for one input of the given `shape`, computed in `scratch`.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] naming the first layer that cannot take
    /// its input, or `LoweredCnn` when `data` does not fill `shape`.
    pub fn try_logits<'s>(
        &self,
        shape: &[usize],
        data: &[f64],
        precision: Precision,
        scratch: &'s mut CnnScratch,
    ) -> Result<&'s [f64], ShapeError> {
        if shape.iter().product::<usize>() != data.len() {
            return Err(ShapeError {
                layer: "LoweredCnn",
                expected: format!("a shape of {} values", data.len()),
                got: shape.to_vec(),
            });
        }
        let CnnScratch { shape: cur, x, y, conv, xq, convq, acc } = scratch;
        cur.clear();
        cur.extend_from_slice(shape);
        x.clear();
        x.extend_from_slice(data);
        for layer in &self.layers {
            layer.check(cur)?;
            match layer {
                Lowered::Conv { rank, in_ch, kh, kw, p } => {
                    let (h, w) = if *rank == 3 { (cur[1], cur[2]) } else { (1, cur[1]) };
                    let out_ch = p.b.len();
                    match precision {
                        Precision::F64(KernelMode::Reference) => {
                            conv2d_ref(x, *in_ch, h, w, out_ch, *kh, *kw, &p.w, &p.b, p.act, y);
                        }
                        Precision::F64(KernelMode::Fast) => conv2d_fast(
                            x, *in_ch, h, w, out_ch, *kh, *kw, &p.w, &p.b, p.act, conv, y,
                        ),
                        Precision::Int8 => {
                            // Quantize, then lower: the same scale and
                            // entries as quantizing the f64 im2col matrix,
                            // since every input value sits at its kernel's
                            // centre tap and the padding, 0.0, maps to 0.
                            // A plane that quantizes to all zeros only
                            // adds integer zeros, so it is not lowered.
                            let xscale = quantize_symmetric_into(x, xq);
                            let (_, wq, cols) =
                                lower_live_planes(xq, *in_ch, h, w, *kh, *kw, &p.wq, convq);
                            p.matmul_q8(wq, h * w, cols, xscale, acc, y);
                        }
                    }
                    cur[0] = out_ch;
                }
                Lowered::Dense { in_dim, p } => {
                    match precision {
                        Precision::F64(_) => {
                            let rows = p.w.chunks_exact(*in_dim);
                            y.clear();
                            y.extend(p.b.iter().zip(rows).map(|(&b, row)| b + dot(row, x)));
                            p.act.apply(y);
                        }
                        Precision::Int8 => {
                            let xscale = quantize_symmetric_into(x, xq);
                            p.matmul_q8(&p.wq, 1, xq, xscale, acc, y);
                        }
                    }
                    cur.clear();
                    cur.push(y.len());
                }
                Lowered::MaxPool { rank, pool } => {
                    let (h, w, ph) =
                        if *rank == 3 { (cur[1], cur[2], *pool) } else { (1, cur[1], 1) };
                    let (oh, ow) = max_pool(x, (cur[0], h, w), (ph, *pool), y, None);
                    if *rank == 3 {
                        cur[1] = oh;
                    }
                    cur[*rank - 1] = ow;
                }
                Lowered::Flatten => {
                    cur.clear();
                    cur.push(x.len());
                    continue;
                }
            }
            std::mem::swap(x, y);
        }
        Ok(x)
    }

    /// Predicted class for one input: the argmax of its logits.
    ///
    /// # Errors
    ///
    /// As [`LoweredCnn::try_logits`].
    pub fn try_predict(
        &self,
        shape: &[usize],
        data: &[f64],
        precision: Precision,
        scratch: &mut CnnScratch,
    ) -> Result<usize, ShapeError> {
        Ok(argmax(self.try_logits(shape, data, precision, scratch)?))
    }
}

impl Lowered {
    /// Rejects an input shape the layer it was lowered from would reject,
    /// naming that layer. Builds the message only on a mismatch.
    fn check(&self, shape: &[usize]) -> Result<(), ShapeError> {
        let ok = match self {
            Lowered::Conv { rank, in_ch, .. } => shape.len() == *rank && shape[0] == *in_ch,
            Lowered::Dense { in_dim, .. } => shape.iter().product::<usize>() == *in_dim,
            Lowered::MaxPool { rank, .. } => shape.len() == *rank,
            Lowered::Flatten => true,
        };
        if ok {
            return Ok(());
        }
        let (layer, expected) = match self {
            Lowered::Conv { rank: 3, in_ch, .. } => ("Conv2d", format!("[{in_ch}, H, W]")),
            Lowered::Conv { in_ch, .. } => ("Conv1d", format!("[{in_ch}, L]")),
            Lowered::Dense { in_dim, .. } => ("Dense", format!("[{in_dim}]")),
            Lowered::MaxPool { rank: 3, .. } => ("MaxPool2d", "[C, H, W]".into()),
            Lowered::MaxPool { .. } => ("MaxPool1d", "[C, L]".into()),
            Lowered::Flatten => unreachable!("Flatten takes any shape"),
        };
        Err(ShapeError { layer, expected, got: shape.to_vec() })
    }
}

#[cfg(test)]
mod tests {
    use super::super::architectures::{feature_cnn, spectrogram_cnn_scaled};
    use super::super::layers::{Conv1d, Conv2d, Dense, Flatten, Layer, MaxPool1d, MaxPool2d, Relu};
    use super::super::Tensor;
    use super::*;

    const F64_MODES: [Precision; 2] =
        [Precision::F64(KernelMode::Reference), Precision::F64(KernelMode::Fast)];

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn spectrogram_cnn_lowers_and_predicts_in_range() {
        let mut net = spectrogram_cnn_scaled(7, 3, 8);
        let q = LoweredCnn::from_sequential(&net).expect("spectrogram CNN must lower");
        let input = Tensor::from_shape(
            &[1, 32, 32],
            (0..32 * 32).map(|i| ((i as f64) * 0.37).sin()).collect(),
        );
        let mut scratch = CnnScratch::default();
        let class =
            q.try_predict(&input.shape, &input.data, Precision::Int8, &mut scratch).unwrap();
        assert!(class < 7);
        // Deterministic: integer arithmetic has no run-to-run variance.
        assert_eq!(
            class,
            q.try_predict(&input.shape, &input.data, Precision::Int8, &mut scratch).unwrap()
        );
        let want = bits(&net.forward(&input, false).data);
        for precision in F64_MODES {
            let logits = q.try_logits(&input.shape, &input.data, precision, &mut scratch).unwrap();
            assert_eq!(bits(logits), want, "{precision:?}");
        }
    }

    #[test]
    fn feature_cnn_with_batchnorm_does_not_lower() {
        let net = feature_cnn(24, 7, 1);
        assert!(LoweredCnn::from_sequential(&net).is_none());
    }

    #[test]
    fn one_d_layers_match_sequential_bit_for_bit() {
        let mut net = Sequential::new(vec![
            Box::new(Conv1d::new(2, 5, 3, 1)),
            Box::new(Relu::new()),
            Box::new(MaxPool1d::new(2)),
            Box::new(Conv1d::new(5, 3, 2, 2)),
            Box::new(Relu::new()),
            Box::new(Flatten::new()),
            Box::new(Dense::new(3 * 4, 4, 3)),
        ]);
        let q = LoweredCnn::from_sequential(&net).unwrap();
        let input =
            Tensor::from_shape(&[2, 9], (0..18).map(|i| ((i as f64) * 0.7).cos() - 0.2).collect());
        let want = bits(&net.forward(&input, false).data);
        let mut scratch = CnnScratch::default();
        for precision in F64_MODES {
            let logits = q.try_logits(&input.shape, &input.data, precision, &mut scratch).unwrap();
            assert_eq!(bits(logits), want, "{precision:?}");
        }
        let class =
            q.try_predict(&input.shape, &input.data, Precision::Int8, &mut scratch).unwrap();
        assert!(class < 4);
    }

    #[test]
    fn grid_aligned_weights_make_quantized_forward_exact() {
        // Weights and input activations in {-1, 0, 1}: scale = 1/127 and
        // quantized values ±127, both exactly representable, so the first
        // (and only) matmul is exact integer arithmetic and the quantized
        // network must agree with the f64 network. (A second matmul would
        // re-quantize intermediate activations off-grid, which is the
        // rung's deliberate lossiness.)
        let mut conv = Conv2d::new(1, 3, (3, 3), 1);
        let mut first = true;
        conv.visit_params(&mut |p, _| {
            if first {
                for (i, v) in p.iter_mut().enumerate() {
                    *v = match i % 3 {
                        0 => 1.0,
                        1 => -1.0,
                        _ => 0.0,
                    };
                }
                first = false;
            } else {
                p.iter_mut().for_each(|v| *v = 0.25);
            }
        });
        let mut net = Sequential::new(vec![
            Box::new(conv),
            Box::new(Relu::new()),
            Box::new(MaxPool2d::new(2)),
            Box::new(Flatten::new()),
        ]);
        let q = LoweredCnn::from_sequential(&net).unwrap();
        let input = Tensor::from_shape(
            &[1, 4, 4],
            (0..16).map(|i| f64::from([1i8, -1, 0, 1][i % 4])).collect(),
        );
        let mut scratch = CnnScratch::default();
        assert_eq!(
            q.try_predict(&input.shape, &input.data, Precision::Int8, &mut scratch).unwrap(),
            net.predict(&input)
        );
    }

    #[test]
    fn every_layer_reports_a_shape_it_cannot_take() {
        let q = LoweredCnn::from_sequential(&spectrogram_cnn_scaled(7, 3, 8)).unwrap();
        let mut scratch = CnnScratch::default();
        for precision in [Precision::Int8, F64_MODES[0], F64_MODES[1]] {
            let err = q.try_predict(&[2, 8, 8], &[0.0; 128], precision, &mut scratch).unwrap_err();
            assert_eq!((err.layer, err.got), ("Conv2d", vec![2, 8, 8]));
            // A 16×16 map flows through every conv and pool but leaves
            // Flatten with 8·2·2 values where the first dense layer wants
            // 8·4·4.
            let err =
                q.try_predict(&[1, 16, 16], &[0.5; 256], precision, &mut scratch).unwrap_err();
            assert_eq!((err.layer, err.got), ("Dense", vec![32]));
            let err = q.try_predict(&[1, 32], &[0.5; 32], precision, &mut scratch).unwrap_err();
            assert_eq!(err.layer, "Conv2d");
            let err = q.try_predict(&[1, 32, 32], &[0.5; 10], precision, &mut scratch).unwrap_err();
            assert_eq!(err.layer, "LoweredCnn");
        }
        let pools = |rank| {
            let pool: Box<dyn Layer> =
                if rank == 3 { Box::new(MaxPool2d::new(2)) } else { Box::new(MaxPool1d::new(2)) };
            LoweredCnn::from_sequential(&Sequential::new(vec![pool])).unwrap()
        };
        let err = pools(3).try_predict(&[4, 4], &[0.0; 16], Precision::Int8, &mut scratch);
        assert_eq!(err.unwrap_err().layer, "MaxPool2d");
        let err = pools(2).try_predict(&[1, 4, 4], &[0.0; 16], Precision::Int8, &mut scratch);
        assert_eq!(err.unwrap_err().layer, "MaxPool1d");
        let net = Sequential::new(vec![Box::new(Conv1d::new(3, 2, 3, 1))]);
        let err = LoweredCnn::from_sequential(&net)
            .unwrap()
            .try_predict(&[2, 5], &[0.0; 10], Precision::Int8, &mut scratch)
            .unwrap_err();
        assert_eq!((err.layer, err.got), ("Conv1d", vec![2, 5]));
    }
}
