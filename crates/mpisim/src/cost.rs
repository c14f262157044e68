//! The LogGP-style cost model driving the simulated clocks.

/// Cost model: per-message latency, per-word transfer time and per-flop
/// compute time.
///
/// All times are in seconds; "word" means one matrix element (the
/// simulator is generic over the scalar, so a word is 4 bytes for `f32`
/// runs and 8 for `f64` — the default constants assume 8).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Per-message latency `alpha` (seconds): software + network stack.
    pub alpha: f64,
    /// Per-word inverse bandwidth `beta` (seconds/word).
    pub beta: f64,
    /// Seconds per floating-point operation of the local kernels.
    pub flop_time: f64,
}

impl CostModel {
    /// Calibrated to the paper's hardware class: Xeon E5-2630v3 cores at
    /// 2.4 GHz (~38.4 peak DP GFLOPs/core), blocked kernels at ~25%
    /// efficiency, 10 GbE-class interconnect (alpha = 25 us,
    /// beta = 0.8 ns/byte = 6.4 ns per f64 word).
    pub fn terastat() -> Self {
        Self {
            alpha: 25e-6,
            beta: 6.4e-9,
            flop_time: 1.0 / 9.6e9,
        }
    }

    /// Zero-cost model: clocks stay at 0; useful for functional tests.
    pub fn zero() -> Self {
        Self {
            alpha: 0.0,
            beta: 0.0,
            flop_time: 0.0,
        }
    }

    /// A model with explicit parameters.
    ///
    /// # Panics
    /// If any parameter is negative or not finite.
    pub fn new(alpha: f64, beta: f64, flop_time: f64) -> Self {
        for (name, v) in [("alpha", alpha), ("beta", beta), ("flop_time", flop_time)] {
            assert!(
                v.is_finite() && v >= 0.0,
                "CostModel {name} must be finite and >= 0, got {v}"
            );
        }
        Self {
            alpha,
            beta,
            flop_time,
        }
    }

    /// Transfer time of a `words`-element payload (excluding the latency
    /// already charged to the sender).
    #[inline]
    pub(crate) fn transfer_time(&self, words: usize) -> f64 {
        self.alpha + self.beta * words as f64
    }

    /// Compute time of `flops` floating-point operations.
    #[inline]
    pub fn compute_time(&self, flops: f64) -> f64 {
        self.flop_time * flops
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terastat_orders_of_magnitude() {
        let m = CostModel::terastat();
        // A 1 MB (128 Ki f64 words) message takes under 10 ms but more
        // than the bare latency.
        let t = m.transfer_time(128 * 1024);
        assert!(t > m.alpha);
        assert!(t < 10e-3);
        // A GFLOP of compute takes ~0.1 s on one core.
        let c = m.compute_time(1e9);
        assert!(c > 0.05 && c < 0.5);
    }

    #[test]
    fn zero_model_is_free() {
        let m = CostModel::zero();
        assert_eq!(m.transfer_time(1_000_000), 0.0);
        assert_eq!(m.compute_time(1e12), 0.0);
    }

    #[test]
    fn bigger_messages_cost_more() {
        let m = CostModel::terastat();
        assert!(m.transfer_time(1000) < m.transfer_time(100_000));
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn negative_parameters_rejected() {
        let _ = CostModel::new(-1.0, 0.0, 0.0);
    }
}
