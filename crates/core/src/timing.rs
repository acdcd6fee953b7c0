//! Latency-threshold calibration and decoding.
//!
//! MetaLeak attacks reduce to classifying observed access latencies
//! into bands ("tree leaf cached" vs "missed", "overflow" vs "quiet").
//! [`ThresholdClassifier`] learns a cut between two calibration sample
//! sets.

use crate::error::AttackError;
use metaleak_sim::clock::Cycles;

/// One class-labelled side-channel observation: the secret class the
/// victim/trojan held during the window (transmitted bit, symbol,
/// key-bit value...) paired with what the attacker measured (probe
/// latency in cycles, spy write count...).
///
/// This is the unit the statistical leakage-assessment layer
/// (`metaleak-analysis`) consumes: covert-channel outcomes expose
/// their per-window traces as labelled samples instead of only an
/// aggregate bit-error rate, so TVLA / mutual-information estimators
/// can run on real attack traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LabelledSample {
    /// The secret class behind the observation.
    pub class: u64,
    /// The attacker-side measurement for the window.
    pub value: u64,
}

/// A binary latency classifier: `fast` (below threshold) vs `slow`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThresholdClassifier {
    threshold: Cycles,
}

impl ThresholdClassifier {
    /// Creates a classifier with an explicit threshold (e.g. the
    /// 600-cycle SGX tree-leaf-hit cut of §VIII-B2).
    pub fn with_threshold(threshold: Cycles) -> Self {
        ThresholdClassifier { threshold }
    }

    /// Calibrates from labelled samples: `fast` (e.g. victim accessed,
    /// metadata cached) and `slow` distributions. The threshold is the
    /// midpoint between the fast mean and the slow mean.
    ///
    /// # Errors
    /// [`AttackError::CalibrationFailed`] if either sample set is empty
    /// or the bands overlap completely (fast mean at or above the slow
    /// mean — no threshold can separate them).
    pub fn calibrate(fast: &[Cycles], slow: &[Cycles]) -> Result<Self, AttackError> {
        if fast.is_empty() || slow.is_empty() {
            return Err(AttackError::CalibrationFailed);
        }
        let mean =
            |xs: &[Cycles]| xs.iter().map(|c| c.as_u64()).sum::<u64>() as f64 / xs.len() as f64;
        let (mf, ms) = (mean(fast), mean(slow));
        if mf >= ms {
            return Err(AttackError::CalibrationFailed);
        }
        let t = (mf + ms) / 2.0;
        Ok(ThresholdClassifier { threshold: Cycles::new(t as u64) })
    }

    /// The decision threshold.
    pub fn threshold(&self) -> Cycles {
        self.threshold
    }

    /// True if `lat` falls in the fast band.
    pub fn is_fast(&self, lat: Cycles) -> bool {
        lat < self.threshold
    }
}

/// Fraction of positions where `decoded` matches `truth` (bit/symbol
/// accuracy metric used throughout the evaluation).
///
/// # Panics
/// Panics if lengths differ or are zero.
pub fn accuracy<T: PartialEq>(decoded: &[T], truth: &[T]) -> f64 {
    assert_eq!(decoded.len(), truth.len(), "length mismatch");
    assert!(!truth.is_empty(), "empty sequences");
    let hits = decoded.iter().zip(truth).filter(|(d, t)| d == t).count();
    hits as f64 / truth.len() as f64
}

/// Shannon capacity of a binary symmetric channel with bit-error rate
/// `p`: `1 - H(p)` bits per transmitted bit. The honest throughput
/// metric for a noisy covert channel.
pub fn bsc_capacity(error_rate: f64) -> f64 {
    let p = error_rate.clamp(0.0, 1.0);
    if p == 0.0 || p == 1.0 {
        return 1.0;
    }
    let h = -p * p.log2() - (1.0 - p) * (1.0 - p).log2();
    (1.0 - h).max(0.0)
}

/// Effective covert-channel capacity in bits per second, given the raw
/// symbol rate, bits per symbol, measured accuracy and a clock
/// frequency to convert cycles to time.
pub fn effective_bits_per_second(
    cycles_per_symbol: f64,
    bits_per_symbol: f64,
    accuracy: f64,
    clock_hz: f64,
) -> f64 {
    if cycles_per_symbol <= 0.0 {
        return 0.0;
    }
    let symbols_per_second = clock_hz / cycles_per_symbol;
    symbols_per_second * bits_per_symbol * bsc_capacity(1.0 - accuracy)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cy(xs: &[u64]) -> Vec<Cycles> {
        xs.iter().map(|&x| Cycles::new(x)).collect()
    }

    #[test]
    fn calibrated_threshold_separates_bands() {
        let fast = cy(&[100, 110, 105]);
        let slow = cy(&[300, 290, 310]);
        let c = ThresholdClassifier::calibrate(&fast, &slow).unwrap();
        assert!(c.is_fast(Cycles::new(150)));
        assert!(!c.is_fast(Cycles::new(250)));
        assert!(c.threshold().as_u64() > 100 && c.threshold().as_u64() < 300);
    }

    #[test]
    fn accuracy_metric() {
        assert_eq!(accuracy(&[1, 0, 1, 1], &[1, 0, 0, 1]), 0.75);
        assert_eq!(accuracy(&[true], &[true]), 1.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn accuracy_length_mismatch_panics() {
        accuracy(&[1], &[1, 2]);
    }

    #[test]
    fn bsc_capacity_endpoints_and_midpoint() {
        assert_eq!(bsc_capacity(0.0), 1.0);
        assert_eq!(bsc_capacity(1.0), 1.0); // inverted channel is perfect too
        assert!(bsc_capacity(0.5) < 1e-12, "coin flip carries nothing");
        let c01 = bsc_capacity(0.1);
        assert!(c01 > 0.5 && c01 < 0.6, "H(0.1) ~ 0.469 => C ~ 0.531, got {c01}");
    }

    #[test]
    fn effective_rate_scales_with_clock_and_accuracy() {
        // 10k cycles/bit at 3 GHz, perfect accuracy: 300 kbit/s.
        let perfect = effective_bits_per_second(10_000.0, 1.0, 1.0, 3e9);
        assert!((perfect - 300_000.0).abs() < 1.0);
        let noisy = effective_bits_per_second(10_000.0, 1.0, 0.9, 3e9);
        assert!(noisy < perfect && noisy > 0.0);
        assert_eq!(effective_bits_per_second(0.0, 1.0, 1.0, 3e9), 0.0);
    }

    #[test]
    fn degenerate_calibration_is_an_error_not_a_panic() {
        // Empty sample sets.
        assert_eq!(
            ThresholdClassifier::calibrate(&[], &[Cycles::new(1)]),
            Err(AttackError::CalibrationFailed)
        );
        assert_eq!(
            ThresholdClassifier::calibrate(&[Cycles::new(1)], &[]),
            Err(AttackError::CalibrationFailed)
        );
        // Inverted bands: the "fast" samples are slower than the "slow"
        // ones, so no threshold separates them in the right direction.
        assert_eq!(
            ThresholdClassifier::calibrate(&cy(&[500, 510]), &cy(&[100, 110])),
            Err(AttackError::CalibrationFailed)
        );
    }
}
