//! A bounded Zipf sampler for hot-data skew.

/// Samples ranks `0..n` with probability proportional to `1 / (rank+1)^s`.
///
/// Uses the rejection-inversion method of Hörmann and Derflinger, the same
/// algorithm behind `rand_distr::Zipf`, so sampling is O(1) without a
/// harmonic table — important because hot sets can span tens of thousands
/// of pages.
///
/// # Example
///
/// ```
/// use flash_trace::Zipf;
///
/// let mut zipf = Zipf::new(100, 1.2);
/// let rank = zipf.sample(0.37);
/// assert!(rank < 100);
/// ```
#[derive(Debug, Clone)]
pub struct Zipf {
    n: u64,
    s: f64,
    t: f64,
    q: f64,
    /// `h(1)` and `h(n + 1)`: the span `sample` inverts over.
    lo: f64,
    hi: f64,
}

impl Zipf {
    /// Creates a sampler over `n` ranks with exponent `s`.
    ///
    /// `s = 0` degenerates to the uniform distribution; `s` near 1 gives the
    /// classic "80/20" skew.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, or if `s` is negative or not finite.
    pub fn new(n: u64, s: f64) -> Self {
        assert!(n > 0, "zipf needs at least one rank");
        assert!(s.is_finite() && s >= 0.0, "exponent must be non-negative");
        let q = s;
        // t = (n+1)^(1-q) / (1-q) + H-ish constant; handle q == 1 specially.
        let t = if (q - 1.0).abs() < 1e-9 {
            1.0 + (n as f64 + 1.0).ln()
        } else {
            ((n as f64 + 1.0).powf(1.0 - q) - q) / (1.0 - q)
        };
        Self {
            n,
            s,
            t,
            q,
            lo: Self::h(q, 1.0),
            hi: Self::h(q, n as f64 + 1.0),
        }
    }

    /// Number of ranks.
    pub fn ranks(&self) -> u64 {
        self.n
    }

    /// Skew exponent.
    pub fn exponent(&self) -> f64 {
        self.s
    }

    fn h(q: f64, x: f64) -> f64 {
        if (q - 1.0).abs() < 1e-9 {
            x.ln()
        } else {
            (x.powf(1.0 - q) - 1.0) / (1.0 - q)
        }
    }

    fn h_inv(&self, x: f64) -> f64 {
        if (self.q - 1.0).abs() < 1e-9 {
            x.exp()
        } else {
            (1.0 + x * (1.0 - self.q)).powf(1.0 / (1.0 - self.q))
        }
    }

    /// Maps a uniform `u ∈ [0, 1)` to a rank in `0..n`.
    ///
    /// The mapping is a deterministic inverse-CDF approximation, so callers
    /// control randomness entirely through `u` (which keeps trace generation
    /// reproducible).
    ///
    /// # Panics
    ///
    /// Panics if `u` is outside `[0, 1)`.
    pub fn sample(&self, u: f64) -> u64 {
        assert!((0.0..1.0).contains(&u), "u must be in [0,1)");
        if self.s == 0.0 {
            return ((u * self.n as f64) as u64).min(self.n - 1);
        }
        // Invert the integral-of-density upper bound; clamp into range.
        // h spans [h(1), h(n+1)]; u selects a point in that span.
        let x = self.h_inv(self.lo + u * (self.hi - self.lo));
        let rank = (x.floor() as u64).clamp(1, self.n);
        rank - 1
    }

    /// Exposes the integration constant, for diagnostics.
    #[doc(hidden)]
    pub fn t(&self) -> f64 {
        self.t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn histogram(zipf: &Zipf, samples: u64) -> Vec<u64> {
        let mut counts = vec![0u64; zipf.ranks() as usize];
        for i in 0..samples {
            // Low-discrepancy uniform sweep is enough for shape checks.
            let u = (i as f64 + 0.5) / samples as f64;
            counts[zipf.sample(u) as usize] += 1;
        }
        counts
    }

    #[test]
    fn samples_stay_in_range() {
        let zipf = Zipf::new(10, 1.1);
        for i in 0..1000 {
            let u = i as f64 / 1000.0;
            assert!(zipf.sample(u) < 10);
        }
    }

    #[test]
    fn skew_concentrates_on_low_ranks() {
        let zipf = Zipf::new(100, 1.0);
        let counts = histogram(&zipf, 100_000);
        assert!(counts[0] > counts[10]);
        assert!(counts[10] > counts[90]);
        // Rank 0 should dominate noticeably under s = 1.
        let total: u64 = counts.iter().sum();
        assert!(counts[0] as f64 / total as f64 > 0.1);
    }

    #[test]
    fn zero_exponent_is_uniform() {
        let zipf = Zipf::new(4, 0.0);
        let counts = histogram(&zipf, 4000);
        for &c in &counts {
            assert!((c as i64 - 1000).abs() < 50, "counts {counts:?}");
        }
    }

    #[test]
    fn exponent_one_is_handled() {
        let zipf = Zipf::new(1000, 1.0);
        assert!(zipf.sample(0.0) < 1000);
        assert!(zipf.sample(0.999_999) < 1000);
    }

    #[test]
    fn single_rank_always_zero() {
        let zipf = Zipf::new(1, 2.0);
        assert_eq!(zipf.sample(0.5), 0);
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_ranks_rejected() {
        Zipf::new(0, 1.0);
    }

    #[test]
    #[should_panic(expected = "in [0,1)")]
    fn out_of_range_u_rejected() {
        Zipf::new(4, 1.0).sample(1.0);
    }
}
