//! Neural-network layers with full forward/backward passes.
//!
//! Shape conventions (no batch dimension — training accumulates gradients
//! sample by sample):
//! - dense vectors: `[N]`
//! - 1-D feature maps: `[C, L]`
//! - 2-D feature maps: `[C, H, W]`
//!
//! Convolutions are stride-1 with "same" zero padding (§IV-D.2: *"zero
//! padding is applied to all inputs in the convolutional layers"*).

use super::lowered::LayerSpec;
use super::tensor::Tensor;
use emoleak_kernels::{conv, Activation, Conv2dScratch, KernelMode};
use rand::{Rng, SeedableRng};

/// A typed input-shape mismatch reported by the lowered inference network
/// ([`super::LoweredCnn`]).
///
/// Carries the rejecting layer's name, what it expected, and the shape it
/// was handed, so callers can degrade gracefully (the streaming service
/// falls back a rung) instead of unwinding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShapeError {
    /// Display name of the layer that rejected the input.
    pub layer: &'static str,
    /// Human-readable description of the expected shape.
    pub expected: String,
    /// The offending input shape.
    pub got: Vec<usize>,
}

impl std::fmt::Display for ShapeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} expects {}, got shape {:?}",
            self.layer, self.expected, self.got
        )
    }
}

impl std::error::Error for ShapeError {}

/// A differentiable layer.
///
/// `Send` is a supertrait so networks can move across `emoleak_exec`
/// workers (parallel k-fold trains one CNN per fold on its own thread).
pub trait Layer: Send {
    /// Forward pass. `training` toggles dropout/batch-norm behaviour.
    ///
    /// # Panics
    ///
    /// Panics on an input shape the layer cannot take.
    fn forward(&mut self, input: &Tensor, training: bool) -> Tensor;

    /// Backward pass: consumes `dL/d(output)`, accumulates parameter
    /// gradients, returns `dL/d(input)`.
    fn backward(&mut self, grad_out: &Tensor) -> Tensor;

    /// Clears accumulated parameter gradients.
    fn zero_grad(&mut self) {}

    /// Visits `(parameters, gradients)` pairs for the optimizer.
    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut [f64], &mut [f64])) {}

    /// Describes this layer for inference lowering ([`super::lowered`]);
    /// `None` marks a layer the lowered network cannot represent.
    fn spec(&self) -> Option<LayerSpec> {
        None
    }

    /// Layer display name.
    fn name(&self) -> &'static str;
}

fn he_init(rng: &mut rand::rngs::StdRng, fan_in: usize, n: usize) -> Vec<f64> {
    let std = (2.0 / fan_in.max(1) as f64).sqrt();
    (0..n)
        .map(|_| {
            // Box–Muller.
            let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
            let u2: f64 = rng.gen();
            std * (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Dense
// ---------------------------------------------------------------------------

/// Fully connected layer `y = W·x + b`.
#[derive(Debug, Clone)]
pub struct Dense {
    in_dim: usize,
    out_dim: usize,
    w: Vec<f64>, // out × in
    b: Vec<f64>,
    gw: Vec<f64>,
    gb: Vec<f64>,
    cached_input: Vec<f64>,
}

impl Dense {
    /// Creates a dense layer with He-initialized weights.
    pub fn new(in_dim: usize, out_dim: usize, seed: u64) -> Self {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        Dense {
            in_dim,
            out_dim,
            w: he_init(&mut rng, in_dim, in_dim * out_dim),
            b: vec![0.0; out_dim],
            gw: vec![0.0; in_dim * out_dim],
            gb: vec![0.0; out_dim],
            cached_input: Vec::new(),
        }
    }
}

impl Layer for Dense {
    fn forward(&mut self, input: &Tensor, _training: bool) -> Tensor {
        assert_eq!(input.len(), self.in_dim, "dense input dimension mismatch");
        self.cached_input = input.data.clone();
        let mut out = self.b.clone();
        for (o, out_v) in out.iter_mut().enumerate() {
            let row = &self.w[o * self.in_dim..(o + 1) * self.in_dim];
            *out_v += crate::linalg::dot(row, &input.data);
        }
        Tensor::from_vec(out)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        assert_eq!(grad_out.len(), self.out_dim, "dense grad dimension mismatch");
        let mut grad_in = vec![0.0; self.in_dim];
        for o in 0..self.out_dim {
            let g = grad_out.data[o];
            self.gb[o] += g;
            let row = &self.w[o * self.in_dim..(o + 1) * self.in_dim];
            let grow = &mut self.gw[o * self.in_dim..(o + 1) * self.in_dim];
            for i in 0..self.in_dim {
                grow[i] += g * self.cached_input[i];
                grad_in[i] += g * row[i];
            }
        }
        Tensor::from_vec(grad_in)
    }

    fn zero_grad(&mut self) {
        self.gw.iter_mut().for_each(|g| *g = 0.0);
        self.gb.iter_mut().for_each(|g| *g = 0.0);
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f64], &mut [f64])) {
        f(&mut self.w, &mut self.gw);
        f(&mut self.b, &mut self.gb);
    }

    fn spec(&self) -> Option<LayerSpec> {
        Some(LayerSpec::Dense {
            in_dim: self.in_dim,
            w: self.w.clone(),
            b: self.b.clone(),
        })
    }

    fn name(&self) -> &'static str {
        "Dense"
    }
}

// ---------------------------------------------------------------------------
// ReLU
// ---------------------------------------------------------------------------

/// Rectified linear unit.
#[derive(Debug, Clone, Default)]
pub struct Relu {
    mask: Vec<bool>,
}

impl Relu {
    /// Creates a ReLU.
    pub fn new() -> Self {
        Relu::default()
    }
}

impl Layer for Relu {
    fn forward(&mut self, input: &Tensor, _training: bool) -> Tensor {
        self.mask = input.data.iter().map(|&v| v > 0.0).collect();
        Tensor {
            shape: input.shape.clone(),
            data: input.data.iter().map(|&v| v.max(0.0)).collect(),
        }
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        Tensor {
            shape: grad_out.shape.clone(),
            data: grad_out
                .data
                .iter()
                .zip(&self.mask)
                .map(|(&g, &m)| if m { g } else { 0.0 })
                .collect(),
        }
    }

    fn spec(&self) -> Option<LayerSpec> {
        Some(LayerSpec::Relu)
    }

    fn name(&self) -> &'static str {
        "ReLU"
    }
}

// ---------------------------------------------------------------------------
// Dropout
// ---------------------------------------------------------------------------

/// Inverted dropout: active only in training mode.
#[derive(Debug, Clone)]
pub struct Dropout {
    rate: f64,
    rng: rand::rngs::StdRng,
    mask: Vec<f64>,
}

impl Dropout {
    /// Creates a dropout layer dropping activations with probability `rate`.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is outside `[0, 1)`.
    pub fn new(rate: f64, seed: u64) -> Self {
        assert!((0.0..1.0).contains(&rate), "dropout rate must be in [0, 1)");
        Dropout { rate, rng: rand::rngs::StdRng::seed_from_u64(seed), mask: Vec::new() }
    }
}

impl Layer for Dropout {
    fn forward(&mut self, input: &Tensor, training: bool) -> Tensor {
        if !training || self.rate == 0.0 {
            self.mask = vec![1.0; input.len()];
            return input.clone();
        }
        let keep = 1.0 - self.rate;
        self.mask = (0..input.len())
            .map(|_| if self.rng.gen::<f64>() < keep { 1.0 / keep } else { 0.0 })
            .collect();
        Tensor {
            shape: input.shape.clone(),
            data: input.data.iter().zip(&self.mask).map(|(v, m)| v * m).collect(),
        }
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        Tensor {
            shape: grad_out.shape.clone(),
            data: grad_out.data.iter().zip(&self.mask).map(|(g, m)| g * m).collect(),
        }
    }

    fn spec(&self) -> Option<LayerSpec> {
        // Identity at inference time.
        Some(LayerSpec::Identity)
    }

    fn name(&self) -> &'static str {
        "Dropout"
    }
}

// ---------------------------------------------------------------------------
// Flatten
// ---------------------------------------------------------------------------

/// Flattens any shape to 1-D.
#[derive(Debug, Clone, Default)]
pub struct Flatten {
    cached_shape: Vec<usize>,
}

impl Flatten {
    /// Creates a flatten layer.
    pub fn new() -> Self {
        Flatten::default()
    }
}

impl Layer for Flatten {
    fn forward(&mut self, input: &Tensor, _training: bool) -> Tensor {
        self.cached_shape = input.shape.clone();
        Tensor::from_vec(input.data.clone())
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        Tensor { shape: self.cached_shape.clone(), data: grad_out.data.clone() }
    }

    fn spec(&self) -> Option<LayerSpec> {
        Some(LayerSpec::Flatten)
    }

    fn name(&self) -> &'static str {
        "Flatten"
    }
}

// ---------------------------------------------------------------------------
// Conv2d
// ---------------------------------------------------------------------------

/// 2-D convolution, stride 1, "same" zero padding. Input `[C_in, H, W]`,
/// output `[C_out, H, W]`.
///
/// The forward pass dispatches on [`KernelMode`]: `reference` runs the
/// scalar loops, `fast` the im2col + register-tiled GEMM kernel. Both are
/// bit-identical (see `emoleak_kernels::conv`); the backward pass is
/// mode-independent.
#[derive(Debug, Clone)]
pub struct Conv2d {
    in_ch: usize,
    out_ch: usize,
    kh: usize,
    kw: usize,
    w: Vec<f64>, // [out][in][kh][kw]
    b: Vec<f64>,
    gw: Vec<f64>,
    gb: Vec<f64>,
    cached_input: Tensor,
    scratch: Conv2dScratch,
}

impl Conv2d {
    /// Creates a Conv2d layer with He-initialized kernels.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new(in_ch: usize, out_ch: usize, kernel: (usize, usize), seed: u64) -> Self {
        assert!(in_ch > 0 && out_ch > 0 && kernel.0 > 0 && kernel.1 > 0);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let n = out_ch * in_ch * kernel.0 * kernel.1;
        Conv2d {
            in_ch,
            out_ch,
            kh: kernel.0,
            kw: kernel.1,
            w: he_init(&mut rng, in_ch * kernel.0 * kernel.1, n),
            b: vec![0.0; out_ch],
            gw: vec![0.0; n],
            gb: vec![0.0; out_ch],
            cached_input: Tensor::default(),
            scratch: Conv2dScratch::default(),
        }
    }

    #[inline]
    fn widx(&self, o: usize, c: usize, ky: usize, kx: usize) -> usize {
        ((o * self.in_ch + c) * self.kh + ky) * self.kw + kx
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, input: &Tensor, _training: bool) -> Tensor {
        assert!(
            input.shape.len() == 3 && input.shape[0] == self.in_ch,
            "Conv2d expects [{}, H, W], got shape {:?}",
            self.in_ch,
            input.shape
        );
        let (h, w) = (input.shape[1], input.shape[2]);
        self.cached_input = input.clone();
        let mut out = Tensor::zeros(&[self.out_ch, h, w]);
        match KernelMode::current() {
            KernelMode::Reference => conv::conv2d_ref(
                &input.data,
                self.in_ch,
                h,
                w,
                self.out_ch,
                self.kh,
                self.kw,
                &self.w,
                &self.b,
                Activation::Identity,
                &mut out.data,
            ),
            KernelMode::Fast => conv::conv2d_fast(
                &input.data,
                self.in_ch,
                h,
                w,
                self.out_ch,
                self.kh,
                self.kw,
                &self.w,
                &self.b,
                Activation::Identity,
                &mut self.scratch,
                &mut out.data,
            ),
        }
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let input = &self.cached_input;
        let (h, w) = (input.shape[1], input.shape[2]);
        let (ph, pw) = (self.kh / 2, self.kw / 2);
        let mut grad_in = Tensor::zeros(&input.shape);
        for o in 0..self.out_ch {
            for y in 0..h {
                for x in 0..w {
                    let g = grad_out.data[(o * h + y) * w + x];
                    if g == 0.0 {
                        continue;
                    }
                    self.gb[o] += g;
                    for c in 0..self.in_ch {
                        for ky in 0..self.kh {
                            let iy = (y + ky).wrapping_sub(ph);
                            if iy >= h {
                                continue;
                            }
                            for kx in 0..self.kw {
                                let ix = (x + kx).wrapping_sub(pw);
                                if ix >= w {
                                    continue;
                                }
                                let ii = (c * h + iy) * w + ix;
                                let wi = self.widx(o, c, ky, kx);
                                self.gw[wi] += g * input.data[ii];
                                grad_in.data[ii] += g * self.w[wi];
                            }
                        }
                    }
                }
            }
        }
        grad_in
    }

    fn zero_grad(&mut self) {
        self.gw.iter_mut().for_each(|g| *g = 0.0);
        self.gb.iter_mut().for_each(|g| *g = 0.0);
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f64], &mut [f64])) {
        f(&mut self.w, &mut self.gw);
        f(&mut self.b, &mut self.gb);
    }

    fn spec(&self) -> Option<LayerSpec> {
        Some(LayerSpec::Conv2d {
            in_ch: self.in_ch,
            kh: self.kh,
            kw: self.kw,
            w: self.w.clone(),
            b: self.b.clone(),
        })
    }

    fn name(&self) -> &'static str {
        "Conv2d"
    }
}

// ---------------------------------------------------------------------------
// Conv1d
// ---------------------------------------------------------------------------

/// 1-D convolution, stride 1, "same" zero padding. Input `[C_in, L]`,
/// output `[C_out, L]`.
///
/// Forward dispatches on [`KernelMode`] like [`Conv2d`], running the 2-D
/// kernels on the input as a `[C_in, 1, L]` map with a `1 × k` kernel: the
/// same operations in the same order.
#[derive(Debug, Clone)]
pub struct Conv1d {
    in_ch: usize,
    out_ch: usize,
    k: usize,
    w: Vec<f64>, // [out][in][k]
    b: Vec<f64>,
    gw: Vec<f64>,
    gb: Vec<f64>,
    cached_input: Tensor,
    scratch: Conv2dScratch,
}

impl Conv1d {
    /// Creates a Conv1d layer with He-initialized kernels.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new(in_ch: usize, out_ch: usize, kernel: usize, seed: u64) -> Self {
        assert!(in_ch > 0 && out_ch > 0 && kernel > 0);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let n = out_ch * in_ch * kernel;
        Conv1d {
            in_ch,
            out_ch,
            k: kernel,
            w: he_init(&mut rng, in_ch * kernel, n),
            b: vec![0.0; out_ch],
            gw: vec![0.0; n],
            gb: vec![0.0; out_ch],
            cached_input: Tensor::default(),
            scratch: Conv2dScratch::default(),
        }
    }
}

impl Layer for Conv1d {
    fn forward(&mut self, input: &Tensor, _training: bool) -> Tensor {
        assert!(
            input.shape.len() == 2 && input.shape[0] == self.in_ch,
            "Conv1d expects [{}, L], got shape {:?}",
            self.in_ch,
            input.shape
        );
        let l = input.shape[1];
        self.cached_input = input.clone();
        let mut out = Tensor::zeros(&[self.out_ch, l]);
        match KernelMode::current() {
            KernelMode::Reference => conv::conv2d_ref(
                &input.data,
                self.in_ch,
                1,
                l,
                self.out_ch,
                1,
                self.k,
                &self.w,
                &self.b,
                Activation::Identity,
                &mut out.data,
            ),
            KernelMode::Fast => conv::conv2d_fast(
                &input.data,
                self.in_ch,
                1,
                l,
                self.out_ch,
                1,
                self.k,
                &self.w,
                &self.b,
                Activation::Identity,
                &mut self.scratch,
                &mut out.data,
            ),
        }
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let input = &self.cached_input;
        let l = input.shape[1];
        let p = self.k / 2;
        let mut grad_in = Tensor::zeros(&input.shape);
        for o in 0..self.out_ch {
            for t in 0..l {
                let g = grad_out.data[o * l + t];
                if g == 0.0 {
                    continue;
                }
                self.gb[o] += g;
                for c in 0..self.in_ch {
                    for kk in 0..self.k {
                        let it = (t + kk).wrapping_sub(p);
                        if it >= l {
                            continue;
                        }
                        let wi = (o * self.in_ch + c) * self.k + kk;
                        self.gw[wi] += g * input.data[c * l + it];
                        grad_in.data[c * l + it] += g * self.w[wi];
                    }
                }
            }
        }
        grad_in
    }

    fn zero_grad(&mut self) {
        self.gw.iter_mut().for_each(|g| *g = 0.0);
        self.gb.iter_mut().for_each(|g| *g = 0.0);
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f64], &mut [f64])) {
        f(&mut self.w, &mut self.gw);
        f(&mut self.b, &mut self.gb);
    }

    fn spec(&self) -> Option<LayerSpec> {
        Some(LayerSpec::Conv1d {
            in_ch: self.in_ch,
            k: self.k,
            w: self.w.clone(),
            b: self.b.clone(),
        })
    }

    fn name(&self) -> &'static str {
        "Conv1d"
    }
}

// ---------------------------------------------------------------------------
// MaxPool
// ---------------------------------------------------------------------------

/// Max-pools a `[C, H, W]` map over non-overlapping `ph × pw` windows into
/// `[C, max(H / ph, 1), max(W / pw, 1)]`, returning the output's height and
/// width. A 1-D `[C, L]` map is the case `H = ph = 1`.
///
/// Each output keeps the first candidate strictly greater than all before
/// it, visiting its window row by row (`dy`, then `dx`). So NaNs never
/// win, and a window with nothing above `-∞` yields `-∞` with argmax 0.
/// `argmax`, when given, receives each output's flat input index for the
/// backward pass. The layers and the lowered network share this one loop.
pub(crate) fn max_pool(
    input: &[f64],
    (c, h, w): (usize, usize, usize),
    (ph, pw): (usize, usize),
    out: &mut Vec<f64>,
    mut argmax: Option<&mut Vec<usize>>,
) -> (usize, usize) {
    let (oh, ow) = ((h / ph).max(1), (w / pw).max(1));
    out.clear();
    if let Some(argmax) = argmax.as_deref_mut() {
        argmax.clear();
    }
    for ch in 0..c {
        for y in 0..oh {
            // A lone partial window (H < ph or W < pw) is clipped to the map.
            let rows = y * ph..(y * ph + ph).min(h);
            for x in 0..ow {
                let cols = x * pw..(x * pw + pw).min(w);
                let (mut best, mut best_i) = (f64::NEG_INFINITY, 0);
                for iy in rows.clone() {
                    let i0 = (ch * h + iy) * w + cols.start;
                    for (i, &v) in (i0..).zip(&input[i0..i0 + cols.len()]) {
                        if v > best {
                            best = v;
                            best_i = i;
                        }
                    }
                }
                out.push(best);
                if let Some(argmax) = argmax.as_deref_mut() {
                    argmax.push(best_i);
                }
            }
        }
    }
    (oh, ow)
}

/// A pool's backward pass: each output's gradient goes to the input its
/// forward pass picked.
fn route_to_argmax(argmax: &[usize], in_shape: &[usize], grad_out: &Tensor) -> Tensor {
    let mut grad_in = Tensor::zeros(in_shape);
    for (oi, &ii) in argmax.iter().enumerate() {
        grad_in.data[ii] += grad_out.data[oi];
    }
    grad_in
}

/// 2-D max pooling with square kernel = stride. Input `[C, H, W]`.
#[derive(Debug, Clone)]
pub struct MaxPool2d {
    pool: usize,
    argmax: Vec<usize>,
    in_shape: Vec<usize>,
}

impl MaxPool2d {
    /// Creates a pool of size `pool × pool`.
    ///
    /// # Panics
    ///
    /// Panics if `pool` is zero.
    pub fn new(pool: usize) -> Self {
        assert!(pool > 0, "pool size must be positive");
        MaxPool2d { pool, argmax: Vec::new(), in_shape: Vec::new() }
    }
}

impl Layer for MaxPool2d {
    fn forward(&mut self, input: &Tensor, _training: bool) -> Tensor {
        assert_eq!(input.shape.len(), 3, "maxpool2d expects [C, H, W]");
        let (c, h, w) = (input.shape[0], input.shape[1], input.shape[2]);
        self.in_shape = input.shape.clone();
        let mut out = Vec::new();
        let pool = (self.pool, self.pool);
        let (oh, ow) = max_pool(&input.data, (c, h, w), pool, &mut out, Some(&mut self.argmax));
        Tensor::from_shape(&[c, oh, ow], out)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        route_to_argmax(&self.argmax, &self.in_shape, grad_out)
    }

    fn spec(&self) -> Option<LayerSpec> {
        Some(LayerSpec::MaxPool2d { pool: self.pool })
    }

    fn name(&self) -> &'static str {
        "MaxPool2d"
    }
}

/// 1-D max pooling with kernel = stride. Input `[C, L]`.
#[derive(Debug, Clone)]
pub struct MaxPool1d {
    pool: usize,
    argmax: Vec<usize>,
    in_shape: Vec<usize>,
}

impl MaxPool1d {
    /// Creates a pool of size `pool`.
    ///
    /// # Panics
    ///
    /// Panics if `pool` is zero.
    pub fn new(pool: usize) -> Self {
        assert!(pool > 0, "pool size must be positive");
        MaxPool1d { pool, argmax: Vec::new(), in_shape: Vec::new() }
    }
}

impl Layer for MaxPool1d {
    fn forward(&mut self, input: &Tensor, _training: bool) -> Tensor {
        assert_eq!(input.shape.len(), 2, "maxpool1d expects [C, L]");
        let (c, l) = (input.shape[0], input.shape[1]);
        self.in_shape = input.shape.clone();
        let mut out = Vec::new();
        let pool = (1, self.pool);
        let (_, ol) = max_pool(&input.data, (c, 1, l), pool, &mut out, Some(&mut self.argmax));
        Tensor::from_shape(&[c, ol], out)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        route_to_argmax(&self.argmax, &self.in_shape, grad_out)
    }

    fn spec(&self) -> Option<LayerSpec> {
        Some(LayerSpec::MaxPool1d { pool: self.pool })
    }

    fn name(&self) -> &'static str {
        "MaxPool1d"
    }
}

// ---------------------------------------------------------------------------
// BatchNorm1d
// ---------------------------------------------------------------------------

/// Per-channel normalization over the length axis of a `[C, L]` map, with
/// learnable scale/shift and running statistics for inference.
///
/// With single-sample training there is no batch axis, so this is instance
/// normalization — the standard substitution, documented in DESIGN.md; the
/// gradient is the exact instance-norm gradient.
#[derive(Debug, Clone)]
pub struct BatchNorm1d {
    channels: usize,
    eps: f64,
    gamma: Vec<f64>,
    beta: Vec<f64>,
    ggamma: Vec<f64>,
    gbeta: Vec<f64>,
    running_mean: Vec<f64>,
    running_var: Vec<f64>,
    momentum: f64,
    // Cached per-forward state for the backward pass.
    cached_xhat: Vec<f64>,
    cached_inv_std: Vec<f64>,
    cached_len: usize,
    cached_training: bool,
}

impl BatchNorm1d {
    /// Creates a batch-norm layer for `channels` feature channels.
    ///
    /// # Panics
    ///
    /// Panics if `channels` is zero.
    pub fn new(channels: usize) -> Self {
        assert!(channels > 0, "channels must be positive");
        BatchNorm1d {
            channels,
            eps: 1e-5,
            gamma: vec![1.0; channels],
            beta: vec![0.0; channels],
            ggamma: vec![0.0; channels],
            gbeta: vec![0.0; channels],
            running_mean: vec![0.0; channels],
            running_var: vec![1.0; channels],
            momentum: 0.1,
            cached_xhat: Vec::new(),
            cached_inv_std: Vec::new(),
            cached_len: 0,
            cached_training: false,
        }
    }
}

impl Layer for BatchNorm1d {
    fn forward(&mut self, input: &Tensor, training: bool) -> Tensor {
        assert_eq!(input.shape.len(), 2, "batchnorm1d expects [C, L]");
        assert_eq!(input.shape[0], self.channels, "batchnorm channel mismatch");
        let l = input.shape[1];
        self.cached_len = l;
        self.cached_training = training && l > 1;
        let mut out = Tensor::zeros(&input.shape);
        self.cached_xhat = vec![0.0; input.len()];
        self.cached_inv_std = vec![0.0; self.channels];
        for c in 0..self.channels {
            let xs = &input.data[c * l..(c + 1) * l];
            // Normalize with the *pre-update* running statistics (so the
            // output does not depend on the current sample's own stats —
            // this keeps per-sample magnitude, which carries vocal effort,
            // and makes the backward pass an exact plain scale), then fold
            // the sample into the running estimate.
            let (mean, var) = (self.running_mean[c], self.running_var[c]);
            if self.cached_training {
                let smean = xs.iter().sum::<f64>() / l as f64;
                let svar =
                    xs.iter().map(|v| (v - smean) * (v - smean)).sum::<f64>() / l as f64;
                self.running_mean[c] =
                    (1.0 - self.momentum) * self.running_mean[c] + self.momentum * smean;
                self.running_var[c] =
                    (1.0 - self.momentum) * self.running_var[c] + self.momentum * svar;
            }
            let inv_std = 1.0 / (var + self.eps).sqrt();
            self.cached_inv_std[c] = inv_std;
            for (i, &x) in xs.iter().enumerate() {
                let xhat = (x - mean) * inv_std;
                self.cached_xhat[c * l + i] = xhat;
                out.data[c * l + i] = self.gamma[c] * xhat + self.beta[c];
            }
        }
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let l = self.cached_len;
        let mut grad_in = Tensor::zeros(&grad_out.shape);
        for c in 0..self.channels {
            let g = &grad_out.data[c * l..(c + 1) * l];
            let xhat = &self.cached_xhat[c * l..(c + 1) * l];
            let dgamma: f64 = g.iter().zip(xhat).map(|(a, b)| a * b).sum();
            let dbeta: f64 = g.iter().sum();
            self.ggamma[c] += dgamma;
            self.gbeta[c] += dbeta;
            // Mean/var are (near-)constants w.r.t. this sample (running
            // statistics), so the gradient is a plain scale.
            let scale = self.gamma[c] * self.cached_inv_std[c];
            for (gi, &go) in grad_in.data[c * l..(c + 1) * l].iter_mut().zip(g) {
                *gi = scale * go;
            }
        }
        grad_in
    }

    fn zero_grad(&mut self) {
        self.ggamma.iter_mut().for_each(|g| *g = 0.0);
        self.gbeta.iter_mut().for_each(|g| *g = 0.0);
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f64], &mut [f64])) {
        f(&mut self.gamma, &mut self.ggamma);
        f(&mut self.beta, &mut self.gbeta);
    }

    fn name(&self) -> &'static str {
        "BatchNorm1d"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Numerical gradient check: loss = Σ coef · output.
    fn check_input_gradient(layer: &mut dyn Layer, input: &Tensor, tol: f64) {
        let out = layer.forward(input, true);
        let coefs: Vec<f64> = (0..out.len()).map(|i| ((i * 7 + 3) % 11) as f64 - 5.0).collect();
        let grad_out = Tensor { shape: out.shape.clone(), data: coefs.clone() };
        layer.zero_grad();
        let analytic = layer.backward(&grad_out);
        let eps = 1e-6;
        for i in 0..input.len() {
            let mut plus = input.clone();
            plus.data[i] += eps;
            let mut minus = input.clone();
            minus.data[i] -= eps;
            let lp: f64 = layer
                .forward(&plus, true)
                .data
                .iter()
                .zip(&coefs)
                .map(|(o, c)| o * c)
                .sum();
            let lm: f64 = layer
                .forward(&minus, true)
                .data
                .iter()
                .zip(&coefs)
                .map(|(o, c)| o * c)
                .sum();
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (numeric - analytic.data[i]).abs() < tol * (1.0 + numeric.abs()),
                "input grad mismatch at {i}: numeric {numeric}, analytic {}",
                analytic.data[i]
            );
        }
    }

    fn ramp(shape: &[usize]) -> Tensor {
        let n: usize = shape.iter().product();
        Tensor::from_shape(shape, (0..n).map(|i| (i as f64 * 0.13).sin()).collect())
    }

    #[test]
    fn dense_gradient_check() {
        let mut layer = Dense::new(5, 3, 42);
        check_input_gradient(&mut layer, &ramp(&[5]), 1e-5);
    }

    #[test]
    fn dense_weight_gradient_check() {
        let mut layer = Dense::new(3, 2, 7);
        let input = ramp(&[3]);
        let out = layer.forward(&input, true);
        let coefs: Vec<f64> = vec![1.0, -2.0];
        layer.zero_grad();
        layer.backward(&Tensor { shape: out.shape.clone(), data: coefs.clone() });
        // Collect analytic weight grads.
        let mut grads: Vec<Vec<f64>> = Vec::new();
        layer.visit_params(&mut |_p, g| grads.push(g.to_vec()));
        let analytic_w = grads[0].clone();
        // Numerical check on each weight (test module can touch private
        // fields directly).
        let eps = 1e-6;
        for (wi, &analytic) in analytic_w.iter().enumerate() {
            let probe = |delta: f64| -> f64 {
                let mut l = layer.clone();
                l.w[wi] += delta;
                let o = l.forward(&input, true);
                o.data.iter().zip(&coefs).map(|(a, b)| a * b).sum()
            };
            let numeric = (probe(eps) - probe(-eps)) / (2.0 * eps);
            assert!(
                (numeric - analytic).abs() < 1e-5 * (1.0 + numeric.abs()),
                "weight grad mismatch at {wi}"
            );
        }
    }

    #[test]
    fn conv2d_gradient_check() {
        let mut layer = Conv2d::new(2, 3, (3, 3), 1);
        check_input_gradient(&mut layer, &ramp(&[2, 5, 4]), 1e-5);
    }

    #[test]
    fn conv2d_1x1_kernel_gradient_check() {
        // The paper's first spectrogram-CNN layer uses a (1,1) kernel.
        let mut layer = Conv2d::new(1, 4, (1, 1), 2);
        check_input_gradient(&mut layer, &ramp(&[1, 4, 4]), 1e-5);
    }

    #[test]
    fn conv1d_gradient_check() {
        let mut layer = Conv1d::new(2, 3, 3, 3);
        check_input_gradient(&mut layer, &ramp(&[2, 7]), 1e-5);
    }

    #[test]
    fn batchnorm_gradient_check() {
        // BatchNorm mutates its running statistics on every training
        // forward, so each numerical probe needs a pristine clone.
        let proto = BatchNorm1d::new(2);
        let input = ramp(&[2, 6]);
        let mut layer = proto.clone();
        let out = layer.forward(&input, true);
        let coefs: Vec<f64> = (0..out.len()).map(|i| ((i * 7 + 3) % 11) as f64 - 5.0).collect();
        layer.zero_grad();
        let analytic = layer.backward(&Tensor { shape: out.shape.clone(), data: coefs.clone() });
        let eps = 1e-6;
        for i in 0..input.len() {
            let probe = |delta: f64| -> f64 {
                let mut l = proto.clone();
                let mut x = input.clone();
                x.data[i] += delta;
                l.forward(&x, true)
                    .data
                    .iter()
                    .zip(&coefs)
                    .map(|(o, c)| o * c)
                    .sum()
            };
            let numeric = (probe(eps) - probe(-eps)) / (2.0 * eps);
            assert!(
                (numeric - analytic.data[i]).abs() < 1e-4 * (1.0 + numeric.abs()),
                "bn grad mismatch at {i}: numeric {numeric}, analytic {}",
                analytic.data[i]
            );
        }
    }

    #[test]
    fn relu_masks_negative() {
        let mut relu = Relu::new();
        let out = relu.forward(&Tensor::from_vec(vec![-1.0, 2.0, -3.0]), true);
        assert_eq!(out.data, vec![0.0, 2.0, 0.0]);
        let grad = relu.backward(&Tensor::from_vec(vec![1.0, 1.0, 1.0]));
        assert_eq!(grad.data, vec![0.0, 1.0, 0.0]);
    }

    #[test]
    fn maxpool2d_selects_and_routes() {
        let mut pool = MaxPool2d::new(2);
        let input = Tensor::from_shape(
            &[1, 2, 4],
            vec![1.0, 5.0, 2.0, 0.0, 3.0, 4.0, 1.0, 6.0],
        );
        let out = pool.forward(&input, true);
        assert_eq!(out.shape, vec![1, 1, 2]);
        assert_eq!(out.data, vec![5.0, 6.0]);
        let grad = pool.backward(&Tensor::from_shape(&[1, 1, 2], vec![1.0, 2.0]));
        assert_eq!(grad.data[1], 1.0); // routed to the 5.0 position
        assert_eq!(grad.data[7], 2.0); // routed to the 6.0 position
        assert_eq!(grad.data.iter().sum::<f64>(), 3.0);
    }

    #[test]
    fn max_pool_matches_a_per_window_scan() {
        // Ties, NaNs, -∞ and non-divisible sides: the row-wise loop must
        // pick the same value and the same argmax as scanning each window
        // in dy, dx order for the first strict maximum.
        let special = [f64::NAN, f64::NEG_INFINITY, 1.0, 1.0, -0.0, 0.0];
        let shapes = [(2, 5, 7, 2, 2), (1, 1, 9, 1, 4), (3, 3, 2, 4, 4), (1, 6, 6, 3, 2)];
        for (c, h, w, ph, pw) in shapes {
            let value = |i: usize| match i % 5 {
                0 => special[(i / 5) % 6],
                _ => ((i * 7) % 11) as f64 - 5.0,
            };
            let input: Vec<f64> = (0..c * h * w).map(value).collect();
            let (oh, ow) = ((h / ph).max(1), (w / pw).max(1));
            let mut want = (Vec::new(), Vec::new());
            for ch in 0..c {
                for y in 0..oh {
                    for x in 0..ow {
                        let (mut best, mut best_i) = (f64::NEG_INFINITY, 0);
                        for iy in (y * ph..y * ph + ph).filter(|&iy| iy < h) {
                            for ix in (x * pw..x * pw + pw).filter(|&ix| ix < w) {
                                let i = (ch * h + iy) * w + ix;
                                if input[i] > best {
                                    (best, best_i) = (input[i], i);
                                }
                            }
                        }
                        want.0.push(best.to_bits());
                        want.1.push(best_i);
                    }
                }
            }
            let (mut out, mut argmax) = (Vec::new(), Vec::new());
            let dims = max_pool(&input, (c, h, w), (ph, pw), &mut out, Some(&mut argmax));
            assert_eq!(dims, (oh, ow));
            let bits: Vec<u64> = out.iter().map(|v| v.to_bits()).collect();
            assert_eq!((bits, argmax), want, "{c}x{h}x{w} by {ph}x{pw}");
        }
    }

    #[test]
    fn maxpool1d_handles_non_divisible_length() {
        let mut pool = MaxPool1d::new(2);
        let input = Tensor::from_shape(&[1, 5], vec![1.0, 3.0, 2.0, 0.0, 9.0]);
        let out = pool.forward(&input, true);
        assert_eq!(out.shape, vec![1, 2]);
        assert_eq!(out.data, vec![3.0, 2.0]);
    }

    #[test]
    fn dropout_scales_in_training_only() {
        let mut d = Dropout::new(0.5, 3);
        let input = Tensor::from_vec(vec![1.0; 1000]);
        let train = d.forward(&input, true);
        let kept: Vec<f64> = train.data.iter().filter(|&&v| v > 0.0).cloned().collect();
        // Inverted dropout: kept activations are scaled by 1/keep = 2.
        assert!(kept.iter().all(|&v| (v - 2.0).abs() < 1e-12));
        let frac = kept.len() as f64 / 1000.0;
        assert!((frac - 0.5).abs() < 0.08, "keep fraction {frac}");
        // Inference: identity.
        let inference = d.forward(&input, false);
        assert_eq!(inference.data, input.data);
    }

    #[test]
    fn batchnorm_running_stats_converge_to_normalization() {
        let mut bn = BatchNorm1d::new(1);
        let input = Tensor::from_shape(&[1, 4], vec![10.0, 12.0, 14.0, 16.0]);
        // Repeated exposure lets the running statistics converge; the
        // normalized output then has ~zero mean and ~unit variance.
        for _ in 0..400 {
            bn.forward(&input, true);
        }
        let out = bn.forward(&input, false);
        let mean = out.data.iter().sum::<f64>() / 4.0;
        let var = out.data.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / 4.0;
        assert!(mean.abs() < 1e-3, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn flatten_round_trips_shape() {
        let mut f = Flatten::new();
        let input = ramp(&[2, 3, 4]);
        let out = f.forward(&input, true);
        assert_eq!(out.shape, vec![24]);
        let back = f.backward(&out);
        assert_eq!(back.shape, vec![2, 3, 4]);
    }
}
