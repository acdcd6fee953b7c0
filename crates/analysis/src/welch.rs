//! Welch's t-test and the TVLA leakage verdict.
//!
//! The Test Vector Leakage Assessment methodology (Goodwill et al.,
//! "A testing methodology for side-channel resistance validation")
//! compares two measurement populations that differ only in the secret
//! (fixed-vs-random, or class-0-vs-class-1) with Welch's unequal-
//! variance t-statistic and declares leakage when `|t|` exceeds 4.5 —
//! the conventional threshold putting the false-positive probability
//! below ~1e-5 for trace counts in the thousands.

/// The standard TVLA decision threshold on `|t|`.
pub const TVLA_THRESHOLD: f64 = 4.5;

/// Sentinel magnitude reported when the two populations are disjoint
/// constants (zero variance on both sides but different means): the
/// t-statistic is formally infinite, and a deterministic simulator
/// produces exactly this case on a noise-free leaky path. Kept finite
/// so reports stay valid JSON (the sink renders non-finite floats as
/// `null`).
pub const T_SATURATED: f64 = 1e12;

/// Welch's t-test summary for two sample populations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WelchResult {
    /// The t-statistic (class A minus class B; saturated to
    /// ±[`T_SATURATED`] when both variances vanish but means differ).
    pub t: f64,
    /// Welch–Satterthwaite degrees of freedom (0 when saturated).
    pub df: f64,
    /// Sample mean of population A.
    pub mean_a: f64,
    /// Sample mean of population B.
    pub mean_b: f64,
    /// Sample count of population A.
    pub n_a: usize,
    /// Sample count of population B.
    pub n_b: usize,
}

impl WelchResult {
    /// The TVLA verdict: does `|t|` clear the 4.5 threshold?
    pub fn leaks(&self) -> bool {
        self.t.abs() > TVLA_THRESHOLD
    }
}

/// Welch's unequal-variance t-test between populations `a` and `b`.
///
/// Returns `None` when either population has fewer than 2 samples (no
/// variance estimate exists). Zero-variance corner cases, which a
/// deterministic simulator hits routinely, resolve to `t = 0` for
/// identical constant populations and to `±T_SATURATED` for disjoint
/// constant populations.
///
/// # Examples
///
/// ```
/// use metaleak_analysis::welch::welch_t;
///
/// // Fast (cached) vs slow (tree-walk) latency populations.
/// let fast = [40.0, 41.0, 42.0, 40.0, 41.0];
/// let slow = [300.0, 310.0, 305.0, 299.0, 308.0];
/// let result = welch_t(&fast, &slow).expect("both populations have >= 2 samples");
/// assert!(result.leaks(), "|t| = {} clears the 4.5 TVLA threshold", result.t.abs());
/// assert!(result.t < 0.0, "class A is faster, so t is negative");
///
/// // Indistinguishable populations stay below the threshold.
/// let same = welch_t(&fast, &[40.0, 41.0, 42.0, 41.0, 40.0]).unwrap();
/// assert!(!same.leaks());
/// ```
pub fn welch_t(a: &[f64], b: &[f64]) -> Option<WelchResult> {
    if a.len() < 2 || b.len() < 2 {
        return None;
    }
    let (n_a, n_b) = (a.len() as f64, b.len() as f64);
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
    let (mean_a, mean_b) = (mean(a), mean(b));
    // Unbiased sample variances.
    let var = |xs: &[f64], m: f64| {
        xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64
    };
    let (var_a, var_b) = (var(a, mean_a), var(b, mean_b));
    let se2 = var_a / n_a + var_b / n_b;
    let (t, df) = if se2 == 0.0 {
        let t = if mean_a == mean_b {
            0.0
        } else if mean_a > mean_b {
            T_SATURATED
        } else {
            -T_SATURATED
        };
        (t, 0.0)
    } else {
        let t = (mean_a - mean_b) / se2.sqrt();
        // Welch–Satterthwaite effective degrees of freedom.
        let df = se2 * se2
            / ((var_a / n_a) * (var_a / n_a) / (n_a - 1.0)
                + (var_b / n_b) * (var_b / n_b) / (n_b - 1.0));
        (t, df)
    };
    Some(WelchResult { t, df, mean_a, mean_b, n_a: a.len(), n_b: b.len() })
}

/// Splits class-labelled samples into the two TVLA populations. With
/// exactly two distinct classes they map directly to the populations;
/// with more (e.g. covert-C's 7-bit symbols) the samples are
/// partitioned around the median class, which preserves the
/// fixed-vs-random spirit (low-secret vs high-secret halves) without
/// discarding data. Returns `None` when fewer than two distinct classes
/// exist.
pub fn class_populations(samples: &[(u64, f64)]) -> Option<(Vec<f64>, Vec<f64>)> {
    let mut classes: Vec<u64> = samples.iter().map(|&(c, _)| c).collect();
    classes.sort_unstable();
    classes.dedup();
    if classes.len() < 2 {
        return None;
    }
    let cut = if classes.len() == 2 {
        classes[1]
    } else {
        // Median distinct class: classes below it vs at-or-above it.
        classes[classes.len() / 2]
    };
    let a: Vec<f64> = samples.iter().filter(|&&(c, _)| c < cut).map(|&(_, v)| v).collect();
    let b: Vec<f64> = samples.iter().filter(|&&(c, _)| c >= cut).map(|&(_, v)| v).collect();
    Some((a, b))
}

/// Runs [`welch_t`] on the [`class_populations`] of class-labelled
/// samples. Returns `None` when fewer than two distinct classes exist
/// or either population is too small.
pub fn tvla_from_labelled(samples: &[(u64, f64)]) -> Option<WelchResult> {
    let (a, b) = class_populations(samples)?;
    welch_t(&a, &b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use metaleak_sim::rng::SimRng;

    #[test]
    fn identical_populations_do_not_leak() {
        let mut rng = SimRng::seed_from(1);
        let a: Vec<f64> = (0..500).map(|_| 100.0 + rng.gaussian()).collect();
        let b: Vec<f64> = (0..500).map(|_| 100.0 + rng.gaussian()).collect();
        let r = welch_t(&a, &b).unwrap();
        assert!(!r.leaks(), "same-distribution t = {}", r.t);
        assert!(r.t.abs() < TVLA_THRESHOLD);
        assert!(r.df > 100.0);
    }

    #[test]
    fn shifted_populations_leak() {
        let mut rng = SimRng::seed_from(2);
        let a: Vec<f64> = (0..500).map(|_| 100.0 + rng.gaussian()).collect();
        let b: Vec<f64> = (0..500).map(|_| 101.0 + rng.gaussian()).collect();
        let r = welch_t(&a, &b).unwrap();
        assert!(r.leaks(), "1-sigma shift over 500 samples must clear 4.5, t = {}", r.t);
        assert!(r.t < 0.0, "a below b means negative t");
    }

    #[test]
    fn zero_variance_cases_saturate_or_vanish() {
        let r = welch_t(&[5.0, 5.0, 5.0], &[5.0, 5.0]).unwrap();
        assert_eq!(r.t, 0.0);
        assert!(!r.leaks());
        let r = welch_t(&[300.0, 300.0], &[40.0, 40.0]).unwrap();
        assert_eq!(r.t, T_SATURATED);
        assert!(r.leaks());
        let r = welch_t(&[40.0, 40.0], &[300.0, 300.0]).unwrap();
        assert_eq!(r.t, -T_SATURATED);
        assert!(r.leaks());
        // One-sided constant against a varying population still works.
        let r = welch_t(&[40.0, 40.0, 40.0], &[300.0, 310.0, 290.0]).unwrap();
        assert!(r.leaks());
        assert!(r.t.is_finite());
    }

    #[test]
    fn tiny_populations_are_rejected() {
        assert!(welch_t(&[1.0], &[2.0, 3.0]).is_none());
        assert!(welch_t(&[1.0, 2.0], &[3.0]).is_none());
        assert!(welch_t(&[], &[]).is_none());
    }

    #[test]
    fn labelled_binary_classes_split_directly() {
        let samples: Vec<(u64, f64)> =
            (0..100)
                .map(|i| {
                    if i % 2 == 0 {
                        (0, 40.0 + (i % 5) as f64)
                    } else {
                        (1, 300.0 + (i % 7) as f64)
                    }
                })
                .collect();
        let r = tvla_from_labelled(&samples).unwrap();
        assert!(r.leaks());
        assert!(r.mean_a < r.mean_b);
        assert_eq!(r.n_a + r.n_b, 100);
    }

    #[test]
    fn labelled_multiclass_splits_at_median_class() {
        // Classes 0..8, measurement proportional to class: leaks.
        let mut rng = SimRng::seed_from(3);
        let samples: Vec<(u64, f64)> = (0..400)
            .map(|_| {
                let c = rng.below(8);
                (c, c as f64 * 10.0 + rng.gaussian())
            })
            .collect();
        let r = tvla_from_labelled(&samples).unwrap();
        assert!(r.leaks(), "t = {}", r.t);
        // Measurement independent of class: no leak.
        let flat: Vec<(u64, f64)> =
            (0..400).map(|_| (rng.below(8), 50.0 + rng.gaussian())).collect();
        let r = tvla_from_labelled(&flat).unwrap();
        assert!(!r.leaks(), "t = {}", r.t);
    }

    #[test]
    fn labelled_degenerate_inputs_are_rejected() {
        assert!(tvla_from_labelled(&[]).is_none());
        assert!(tvla_from_labelled(&[(0, 1.0), (0, 2.0), (0, 3.0)]).is_none());
        // Two classes but one sample on a side.
        assert!(tvla_from_labelled(&[(0, 1.0), (1, 2.0), (1, 3.0)]).is_none());
    }
}
