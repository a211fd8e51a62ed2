//! The estimator every host-side number goes through.
//!
//! The simulated work is deterministic, so host noise is one-sided: a pass
//! is never faster than the code allows, only slower when a neighbour
//! steals the core. Each round therefore keeps its *fastest* pass, and the
//! reported value is the median of the round minimums, with the quartiles
//! of the same sample as the spread.

/// Median of a sample.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile, computed exactly as Python's
/// `statistics.quantiles(xs, n=4)` (the default exclusive method), so the
/// spread printed here is the spread an outside checker computes from the
/// same values. A single sample has no spread: both quartiles are the value.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    assert!(!xs.is_empty(), "quartiles of an empty sample");
    if xs.len() == 1 {
        return (xs[0], xs[0]);
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// A reported host-side value with its spread.
#[derive(Debug, Clone, PartialEq)]
pub struct Estimate {
    /// Median of the samples.
    pub value: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// The samples themselves (round minimums, set-up repetitions or
    /// counted passes), kept so `compare` can test whether two runs overlap.
    pub samples: Vec<f64>,
}

impl Estimate {
    /// Summarises `samples` (median, quartiles).
    pub fn of(samples: Vec<f64>) -> Self {
        let (q1, q3) = quartiles(&samples);
        Estimate {
            value: median(&samples),
            q1,
            q3,
            samples,
        }
    }

    /// A value that is a single exact reading (modelled time, a count).
    pub fn exact(value: f64) -> Self {
        Estimate {
            value,
            q1: value,
            q3: value,
            samples: vec![value],
        }
    }

    /// Interquartile range as a share of the median (0 for a zero median).
    pub fn spread(&self) -> f64 {
        if self.value == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.value.abs()
        }
    }

    /// The same estimate with every sample multiplied by `k` (used to turn
    /// `pass_ms` into `host_us_per_fault` without re-measuring).
    pub fn scaled(&self, k: f64) -> Self {
        Estimate {
            value: self.value * k,
            q1: self.q1 * k,
            q3: self.q3 * k,
            samples: self.samples.iter().map(|s| s * k).collect(),
        }
    }
}

/// The fastest pass of one round.
///
/// # Panics
///
/// Panics on an empty round.
pub fn round_min(passes: &[f64]) -> f64 {
    assert!(!passes.is_empty(), "a round holds at least one pass");
    passes.iter().copied().fold(f64::INFINITY, f64::min)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([1..12], n=4) == [3.25, 6.5, 9.75]
        let xs: Vec<f64> = (1..=12).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (3.25, 9.75));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 22.5));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    /// A deterministic pass takes 3.0 ms; a noisy neighbour makes some
    /// passes up to 40% slower for a stretch covering a few rounds. The
    /// round-minimum estimator must sit on the true cost while the plain
    /// median of all passes is dragged up.
    #[test]
    fn round_minimum_shrugs_off_injected_bursts() {
        let truth = 3.0;
        let mut all = Vec::new();
        let mut mins = Vec::new();
        for round in 0..12 {
            let burst = (4..7).contains(&round);
            let passes: Vec<f64> = (0..8)
                .map(|p| {
                    let jitter = 0.002 * ((round * 8 + p) % 5) as f64;
                    // Inside the burst seven of eight passes are slowed.
                    if burst && p != 3 {
                        truth * 1.4 + jitter
                    } else if !burst && p % 3 == 0 {
                        truth * 1.1 + jitter
                    } else {
                        truth + jitter
                    }
                })
                .collect();
            mins.push(round_min(&passes));
            all.extend(passes);
        }
        let est = Estimate::of(mins);
        assert!((est.value - truth).abs() < 0.01, "estimate {}", est.value);
        assert!(est.spread() < 0.01, "spread {}", est.spread());
        assert_eq!(est.samples.len(), 12);
        assert!(
            median(&all) > truth + 0.004,
            "plain median {}",
            median(&all)
        );
    }

    #[test]
    fn a_burst_covering_whole_rounds_shows_in_the_spread() {
        // Four of twelve rounds entirely slowed: the median holds, the
        // third quartile reports it.
        let mins: Vec<f64> = (0..12).map(|r| if r < 4 { 4.2 } else { 3.0 }).collect();
        let est = Estimate::of(mins);
        assert_eq!(est.value, 3.0);
        assert!(est.q3 > 4.0 && est.spread() > 0.3);
    }

    #[test]
    fn scaling_keeps_the_relative_spread() {
        let est = Estimate::of(vec![1.0, 2.0, 3.0, 4.0]);
        let k = est.scaled(10.0);
        assert_eq!(k.value, 25.0);
        assert!((k.spread() - est.spread()).abs() < 1e-12);
    }
}
