//! f64 matrix multiply: scalar reference and a register-tiled fast path.
//!
//! Both kernels compute `C += A · B` for row-major `A` (`m × k`),
//! `B` (`k × n`) and `C` (`m × n`). Accumulating *onto* `C` (instead of
//! overwriting it) lets convolution callers preload the bias for free.
//!
//! # Bit-exactness
//!
//! For every output element `C[i][j]`, both kernels perform the identical
//! chain of IEEE-754 operations: starting from the preloaded value, add
//! `A[i][kk] * B[kk][j]` for `kk = 0, 1, …, k-1`, rounding after every
//! multiply and every add. The fast kernel splits the work into small
//! tiles of `C` over `i` and `j` only — never over `kk` — and runs each
//! tile's full `kk` chain in local accumulators, so it changes only
//! *which element's* next addition runs when, never the per-element order.
//! The two are therefore bit-identical for **all** inputs, including
//! non-finite values and signed zeros. No FMA is used: a fused
//! multiply-add rounds once where the reference rounds twice. The
//! differential proptest harness (`tests/proptest_kernels.rs`) holds that
//! line.

/// Rows of `C` per register tile. With [`NR`] = 8 the tile's 16
/// accumulators fill eight SSE2 registers; 4 × 6 and 4 × 8 tiles measured
/// slower on the CNN's conv shapes.
const MR: usize = 2;
/// Columns of `C` per full-width register tile; the last `n % NR` columns
/// take tiles of width 4, 2 and 1.
const NR: usize = 8;

fn check_dims(m: usize, k: usize, n: usize, a: &[f64], b: &[f64], c: &[f64]) {
    assert_eq!(a.len(), m * k, "gemm: A must be m*k");
    assert_eq!(b.len(), k * n, "gemm: B must be k*n");
    assert_eq!(c.len(), m * n, "gemm: C must be m*n");
}

/// Scalar reference: per-element register accumulation in ascending `kk`.
///
/// # Panics
///
/// Panics if the slice lengths do not match `m`/`k`/`n`.
pub fn gemm_ref(m: usize, k: usize, n: usize, a: &[f64], b: &[f64], c: &mut [f64]) {
    check_dims(m, k, n, a, b, c);
    for i in 0..m {
        let arow = &a[i * k..(i + 1) * k];
        for j in 0..n {
            let mut acc = c[i * n + j];
            for (kk, &aik) in arow.iter().enumerate() {
                acc += aik * b[kk * n + j];
            }
            c[i * n + j] = acc;
        }
    }
}

/// Register-tiled fast path: identical per-element operation order to
/// [`gemm_ref`]. Each `MR × NR` tile of `C` is loaded once, accumulates
/// its whole `kk` chain in registers, and is stored once.
///
/// # Panics
///
/// Panics if the slice lengths do not match `m`/`k`/`n`.
pub fn gemm_fast(m: usize, k: usize, n: usize, a: &[f64], b: &[f64], c: &mut [f64]) {
    check_dims(m, k, n, a, b, c);
    let mut i0 = 0;
    while i0 + MR <= m {
        row_block::<MR>(i0, k, n, a, b, c);
        i0 += MR;
    }
    if i0 < m {
        row_block::<1>(i0, k, n, a, b, c);
    }
}

/// Covers rows `i0..i0 + R` of `C` with tiles of width [`NR`], then one
/// each of width 4, 2 and 1 as the remaining columns allow.
fn row_block<const R: usize>(i0: usize, k: usize, n: usize, a: &[f64], b: &[f64], c: &mut [f64]) {
    let mut j0 = 0;
    while j0 + NR <= n {
        tile::<R, NR>(i0, j0, k, n, a, b, c);
        j0 += NR;
    }
    if n - j0 >= 4 {
        tile::<R, 4>(i0, j0, k, n, a, b, c);
        j0 += 4;
    }
    if n - j0 >= 2 {
        tile::<R, 2>(i0, j0, k, n, a, b, c);
        j0 += 2;
    }
    if n > j0 {
        tile::<R, 1>(i0, j0, k, n, a, b, c);
    }
}

/// `C[i0..i0+R][j0..j0+W] += A[i0..i0+R][..] · B[..][j0..j0+W]`, with the
/// tile held in local accumulators across the full ascending `kk` chain.
#[inline(always)]
fn tile<const R: usize, const W: usize>(
    i0: usize,
    j0: usize,
    k: usize,
    n: usize,
    a: &[f64],
    b: &[f64],
    c: &mut [f64],
) {
    let mut acc = [[0.0f64; W]; R];
    for (r, row) in acc.iter_mut().enumerate() {
        row.copy_from_slice(&c[(i0 + r) * n + j0..][..W]);
    }
    let arows: [&[f64]; R] = core::array::from_fn(|r| &a[(i0 + r) * k..][..k]);
    for kk in 0..k {
        let bv: &[f64; W] = b[kk * n + j0..][..W].try_into().expect("W columns");
        for (row, arow) in acc.iter_mut().zip(&arows) {
            let aik = arow[kk];
            for (cv, &bv) in row.iter_mut().zip(bv) {
                *cv += aik * bv;
            }
        }
    }
    for (r, row) in acc.iter().enumerate() {
        c[(i0 + r) * n + j0..][..W].copy_from_slice(row);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn mat(rng: &mut StdRng, len: usize) -> Vec<f64> {
        (0..len).map(|_| rng.gen_range(-2.0..2.0)).collect()
    }

    #[test]
    fn small_known_product() {
        // [1 2; 3 4] * [5 6; 7 8] + [1 0; 0 1]
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [5.0, 6.0, 7.0, 8.0];
        let mut c = [1.0, 0.0, 0.0, 1.0];
        gemm_ref(2, 2, 2, &a, &b, &mut c);
        assert_eq!(c, [20.0, 22.0, 43.0, 51.0]);
        let mut c = [1.0, 0.0, 0.0, 1.0];
        gemm_fast(2, 2, 2, &a, &b, &mut c);
        assert_eq!(c, [20.0, 22.0, 43.0, 51.0]);
    }

    #[test]
    fn fast_is_bit_identical_across_blocking_boundaries() {
        let mut rng = StdRng::seed_from_u64(7);
        // Odd m leaves a one-row block; n not a multiple of 8 takes the
        // narrower edge tiles. The last six are the spectrogram CNN's conv
        // GEMMs (conv 2, conv 3, conv 1 at width divisor 4) and the feature
        // CNN's.
        for (m, k, n) in [
            (1, 1, 1),
            (3, 63, 5),
            (4, 64, 4),
            (2, 65, 7),
            (5, 130, 3),
            (3, 1, 9),
            (1, 2, 15),
            (32, 288, 256),
            (16, 288, 64),
            (32, 1, 1024),
            (64, 192, 24),
            (32, 192, 12),
            (16, 96, 1),
        ] {
            let a = mat(&mut rng, m * k);
            let b = mat(&mut rng, k * n);
            let init = mat(&mut rng, m * n);
            let mut c_ref = init.clone();
            let mut c_fast = init;
            gemm_ref(m, k, n, &a, &b, &mut c_ref);
            gemm_fast(m, k, n, &a, &b, &mut c_fast);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&c_ref), bits(&c_fast), "m={m} k={k} n={n}");
        }
    }

    #[test]
    fn signed_zeros_and_nans_round_trip_identically() {
        let a = [0.0, -0.0, f64::NAN, 1.0];
        let b = [-0.0, 1.0, 0.5, -0.0];
        let mut c_ref = [-0.0, 0.0, -0.0, 0.0];
        let mut c_fast = c_ref;
        gemm_ref(2, 2, 2, &a, &b, &mut c_ref);
        gemm_fast(2, 2, 2, &a, &b, &mut c_fast);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&c_ref), bits(&c_fast));
    }

    #[test]
    #[should_panic(expected = "gemm: A must be m*k")]
    fn mismatched_dims_panic() {
        gemm_ref(2, 2, 2, &[0.0; 3], &[0.0; 4], &mut [0.0; 4]);
    }
}
