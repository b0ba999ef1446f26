//! Criterion benches for the hot-path kernels: reference vs fast, side by
//! side, on the shapes the CNN forward pass actually runs. The differential
//! tests pin the two paths bit-identical; these benches show what the fast
//! path buys (and catch a regression that would make it pointless).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use emoleak_kernels::conv::{conv2d_fast, conv2d_ref};
use emoleak_kernels::gemm::{gemm_fast, gemm_ref};
use emoleak_kernels::{Activation, Conv2dScratch};
use std::hint::black_box;

fn filled(n: usize, step: f64) -> Vec<f64> {
    (0..n).map(|i| (i as f64 * step).sin()).collect()
}

fn bench_gemm(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm");
    for &(m, k, n) in &[(8usize, 36usize, 1024usize), (16, 144, 1024)] {
        let a = filled(m * k, 0.11);
        let b = filled(k * n, 0.07);
        let label = format!("{m}x{k}x{n}");
        group.bench_with_input(BenchmarkId::new("reference", &label), &n, |bch, _| {
            let mut cbuf = vec![0.0; m * n];
            bch.iter(|| {
                cbuf.fill(0.0);
                gemm_ref(m, k, n, black_box(&a), black_box(&b), &mut cbuf);
                black_box(&cbuf);
            });
        });
        group.bench_with_input(BenchmarkId::new("fast", &label), &n, |bch, _| {
            let mut cbuf = vec![0.0; m * n];
            bch.iter(|| {
                cbuf.fill(0.0);
                gemm_fast(m, k, n, black_box(&a), black_box(&b), &mut cbuf);
                black_box(&cbuf);
            });
        });
    }
    group.finish();
}

fn bench_conv2d(c: &mut Criterion) {
    // The spectrogram CNN's widest layer shape (32x32 maps, 3x3 taps).
    let (in_ch, h, w, out_ch, kh, kw) = (4usize, 32usize, 32usize, 8usize, 3usize, 3usize);
    let input = filled(in_ch * h * w, 0.37);
    let weights = filled(out_ch * in_ch * kh * kw, 0.11);
    let bias = vec![0.01; out_ch];
    let mut group = c.benchmark_group("conv2d");
    group.bench_function("reference", |bch| {
        let mut out = Vec::new();
        bch.iter(|| {
            conv2d_ref(
                black_box(&input), in_ch, h, w, out_ch, kh, kw,
                &weights, &bias, Activation::Relu, &mut out,
            );
            black_box(&out);
        });
    });
    group.bench_function("fast", |bch| {
        let mut out = Vec::new();
        let mut scratch = Conv2dScratch::default();
        bch.iter(|| {
            conv2d_fast(
                black_box(&input), in_ch, h, w, out_ch, kh, kw,
                &weights, &bias, Activation::Relu, &mut scratch, &mut out,
            );
            black_box(&out);
        });
    });
    group.finish();
}

criterion_group!(benches, bench_gemm, bench_conv2d);
criterion_main!(benches);
