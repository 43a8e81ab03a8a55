//! Order statistics over the benchmark's samples.

/// One reported value with the spread of the samples behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// The value reported.
    pub value: f64,
    /// First quartile of the samples.
    pub q1: f64,
    /// Third quartile of the samples.
    pub q3: f64,
    /// Number of samples.
    pub n: usize,
}

impl Summary {
    /// The median of `samples` (at least one) with their quartiles: how the
    /// runs of a result set are summarised.
    pub fn median_of(samples: &[f64]) -> Self {
        Self {
            value: quantile(samples, 0.5),
            q1: quantile(samples, 0.25),
            q3: quantile(samples, 0.75),
            n: samples.len(),
        }
    }

    /// The lowest of `samples` (at least one) with their quartiles: how the
    /// set-up times of a run's repetitions are summarised. Interference
    /// from the host's other tenants only ever adds time, so the lowest of a
    /// fixed number of samples is the steadiest estimate of what one costs.
    pub fn lowest_of(samples: &[f64]) -> Self {
        Self {
            value: quantile(samples, 0.0),
            ..Self::median_of(samples)
        }
    }

    /// A value that repeats exactly (a simulated metric): no spread.
    pub fn exact(value: f64, n: usize) -> Self {
        Self {
            value,
            q1: value,
            q3: value,
            n,
        }
    }

    /// Distance between the quartiles as a share of the value.
    pub fn spread(&self) -> f64 {
        if self.value == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1).abs() / self.value.abs()
        }
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    assert!(!samples.is_empty(), "no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Quantile `q` (0 to 1) of `samples`, interpolated linearly between the
/// two nearest order statistics.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    let v = sorted(samples);
    let at = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let below = at.floor() as usize;
    let above = at.ceil() as usize;
    v[below] + (v[above] - v[below]) * (at - below as f64)
}

/// Nearest-rank percentile (`0 < p <= 100`) of exact samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(p > 0.0 && p <= 100.0, "percentile out of range");
    let v = sorted(samples);
    let rank = ((p / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        assert_eq!(quantile(&[3.0, 1.0, 2.0], 0.5), 2.0);
        assert_eq!(quantile(&[4.0, 1.0, 2.0, 3.0], 0.5), 2.5);
        assert_eq!(quantile(&[7.0], 0.25), 7.0);
        let v: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 0.25), 2.0);
        assert_eq!(quantile(&v, 0.75), 4.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.75), 1.75);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[5.0], 99.9), 5.0);
    }

    #[test]
    fn summaries_report_median_or_lowest_with_the_same_quartiles() {
        let samples = [30.0, 10.0, 20.0, 50.0, 40.0];
        let median = Summary::median_of(&samples);
        assert_eq!(
            (median.value, median.q1, median.q3, median.n),
            (30.0, 20.0, 40.0, 5)
        );
        assert_eq!(median.spread(), 20.0 / 30.0);
        let lowest = Summary::lowest_of(&samples);
        assert_eq!((lowest.value, lowest.q1, lowest.q3), (10.0, 20.0, 40.0));
        assert_eq!(Summary::exact(3.0, 4).spread(), 0.0);
    }
}
