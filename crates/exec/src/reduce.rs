//! Index-ordered combination of parallel floating-point results.
//!
//! IEEE-754 addition is commutative but **not associative**: `(a + b) + c`
//! and `a + (b + c)` round differently whenever intermediate magnitudes
//! differ. A reduction whose tree shape follows completion order would
//! therefore make campaign statistics — and through z-score normalization,
//! every logistic-regression gradient trained on them — depend on thread
//! scheduling. The pipeline's rule, enforced by convention and documented by
//! this module's tests: parallel stages *produce* per-index values; floats
//! are only ever *combined* by one sequential left fold over the index
//! order.

/// Sums `values` by a strict left fold in iteration order.
///
/// This is deliberately the plain `fold(0.0, +)` — the point is not a
/// clever compensated sum but a *fixed association order*, so a parallel
/// map followed by `sum_ordered` is bit-identical to the serial loop it
/// replaced.
pub fn sum_ordered(values: impl IntoIterator<Item = f64>) -> f64 {
    values.into_iter().fold(0.0, |acc, v| acc + v)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The hazard itself: reordering a float sum changes its bits. These
    /// magnitudes are unremarkable — feature energies routinely span this
    /// range — so any scheduling-ordered reduction would be nondeterministic.
    #[test]
    fn float_sum_order_changes_bits() {
        let values = [1.0e16, 3.25, -1.0e16, 2.5];
        let forward = sum_ordered(values);
        let reverse = sum_ordered(values.iter().rev().copied());
        assert_ne!(
            forward.to_bits(),
            reverse.to_bits(),
            "these values were chosen so association order matters"
        );
    }

    #[test]
    fn ordered_sum_matches_the_serial_loop_bit_for_bit() {
        // Pseudo-random magnitudes spanning 12 orders of magnitude.
        let values: Vec<f64> = (0..4096)
            .map(|i| {
                let mut s = i as u64;
                let r = crate::splitmix64(&mut s);
                let mag = 10f64.powi((r % 12) as i32 - 6);
                mag * ((r >> 12) as f64 / (1u64 << 52) as f64 - 0.5)
            })
            .collect();
        let mut serial = 0.0;
        for &v in &values {
            serial += v;
        }
        assert_eq!(serial.to_bits(), sum_ordered(values).to_bits());
    }

    #[test]
    fn empty_sum_is_zero() {
        assert_eq!(sum_ordered(std::iter::empty()), 0.0);
    }
}
