//! The benchmark's own arithmetic: nearest-rank percentiles, the rule that
//! picks which percentile a sample can support, Python-compatible
//! quartiles, failure shares, and the steadiness comparison between two
//! sets of runs.

/// Percentiles are named in per-mille so the rank arithmetic stays exact
/// (`0.9 * 100.0` is not `90.0` in binary floating point).
pub const P50: u32 = 500;
/// 90th percentile, per-mille.
pub const P90: u32 = 900;
/// 99th percentile, per-mille.
pub const P99: u32 = 990;
/// 99.9th percentile, per-mille.
pub const P999: u32 = 999;

/// Samples a percentile must leave above it before it is reported.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `per_mille` in `n` samples:
/// `ceil(p * n)`, clamped to `1..=n`.
#[must_use]
pub fn nearest_rank(n: usize, per_mille: u32) -> usize {
    let rank = (per_mille as usize * n).div_ceil(1000);
    rank.clamp(1, n.max(1))
}

/// Nearest-rank percentile of an ascending slice.
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn percentile(sorted: &[f64], per_mille: u32) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[nearest_rank(sorted.len(), per_mille) - 1]
}

/// Nearest-rank percentile of an ascending slice in which every value
/// stands for `weight` equal samples (a batch's duration, once per read).
///
/// # Panics
///
/// Panics on an empty slice or a zero weight.
#[must_use]
pub fn weighted_percentile(sorted: &[f64], weight: usize, per_mille: u32) -> f64 {
    assert!(
        !sorted.is_empty() && weight > 0,
        "weighted percentile of nothing"
    );
    sorted[(nearest_rank(sorted.len() * weight, per_mille) - 1) / weight]
}

/// How many of `n` samples lie above the nearest-rank percentile.
#[must_use]
pub fn samples_beyond(n: usize, per_mille: u32) -> usize {
    if n == 0 {
        0
    } else {
        n - nearest_rank(n, per_mille)
    }
}

/// The highest of `candidates` (per-mille) that leaves at least
/// [`MIN_BEYOND`] samples above it, or `None` if even the lowest does not.
#[must_use]
pub fn highest_supported(n: usize, candidates: &[u32]) -> Option<u32> {
    candidates
        .iter()
        .copied()
        .filter(|&p| samples_beyond(n, p) >= MIN_BEYOND)
        .max()
}

/// Sorts a sample ascending (total order; the benchmark never produces NaN).
#[must_use]
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// The median as Python's `statistics.median` defines it.
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let s = sorted(values.to_vec());
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(values, n=4)`
/// computes them (the default `exclusive` method).
///
/// # Panics
///
/// Panics with fewer than two values.
#[must_use]
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let data = sorted(values.to_vec());
    let ld = data.len();
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Inter-quartile distance as a share of the median (0 when the median is 0
/// and the quartiles agree).
#[must_use]
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let med = median(values);
    if q3 == q1 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

/// Failed over attempted. A refused request is a failure, so it counts in
/// both; zero attempts is a share of zero.
#[must_use]
pub fn error_share(attempted: u64, failed: u64) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (times, memory).
    Lower,
    /// Larger values are better (throughput, recall).
    Higher,
}

impl Better {
    /// The word used in reports and `BENCHMARK.json`.
    #[must_use]
    pub fn word(self) -> &'static str {
        match self {
            Self::Lower => "lower",
            Self::Higher => "higher",
        }
    }
}

/// How one metric fared across two sets of runs of the same code.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Steadiness {
    /// Spread of the first set.
    pub spread_first: f64,
    /// Spread of the second set.
    pub spread_second: f64,
    /// Median of the first set.
    pub median_first: f64,
    /// Median of the second set.
    pub median_second: f64,
    /// By how much the second median is worse than the first, as a share
    /// of the first (negative when it is better).
    pub worsening: f64,
    /// Both spreads within the bound (always true when `spread_exempt`).
    pub spread_ok: bool,
    /// The second median is not worse than the first by more than the bound.
    pub median_ok: bool,
    /// Both spreads below a third of the bound: steady with margin.
    pub comfortable: bool,
}

/// Compares two sets of runs of one metric: each set's quartile spread
/// must stay within `bound` (unless `spread_exempt`, as for set-up time),
/// and the second median may not be worse than the first by more than
/// `bound`.
///
/// # Panics
///
/// Panics if either set has fewer than two values.
#[must_use]
pub fn steadiness(
    first: &[f64],
    second: &[f64],
    bound: f64,
    better: Better,
    spread_exempt: bool,
) -> Steadiness {
    let (spread_first, spread_second) = (spread(first), spread(second));
    let (median_first, median_second) = (median(first), median(second));
    let worsening = if median_first == median_second {
        0.0
    } else {
        let change = (median_second - median_first) / median_first.abs();
        match better {
            Better::Lower => change,
            Better::Higher => -change,
        }
    };
    let spread_ok = spread_exempt || (spread_first <= bound && spread_second <= bound);
    Steadiness {
        spread_first,
        spread_second,
        median_first,
        median_second,
        worsening,
        spread_ok,
        median_ok: worsening <= bound,
        comfortable: spread_exempt || (spread_first < bound / 3.0 && spread_second < bound / 3.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_uses_exact_ceilings() {
        assert_eq!(nearest_rank(100, P90), 90);
        assert_eq!(nearest_rank(101, P90), 91);
        assert_eq!(nearest_rank(10, P50), 5);
        assert_eq!(nearest_rank(11, P50), 6);
        assert_eq!(nearest_rank(1, P99), 1);
        assert_eq!(nearest_rank(1000, P999), 999);
        // Never below the first sample.
        assert_eq!(nearest_rank(3, 1), 1);
    }

    #[test]
    fn percentile_picks_a_real_sample() {
        let values: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&values, P50), 10.0);
        assert_eq!(percentile(&values, P90), 18.0);
        assert_eq!(percentile(&values, P99), 20.0);
        assert_eq!(percentile(&[7.5], P50), 7.5);
    }

    #[test]
    fn weighted_percentile_expands_each_value() {
        let batches = [1.0, 2.0, 3.0, 4.0];
        let expanded: Vec<f64> = batches.iter().flat_map(|&v| [v; 256]).collect();
        for p in [1, P50, P90, P99, P999, 1000] {
            assert_eq!(
                weighted_percentile(&batches, 256, p),
                percentile(&expanded, p),
                "{p}"
            );
        }
        assert_eq!(weighted_percentile(&batches, 1, P50), 2.0);
    }

    #[test]
    fn highest_supported_needs_ten_beyond() {
        let all = [P50, P90, P99, P999];
        assert_eq!(highest_supported(19, &all), None);
        assert_eq!(highest_supported(20, &all), Some(P50));
        assert_eq!(highest_supported(99, &all), Some(P50));
        assert_eq!(highest_supported(100, &all), Some(P90));
        assert_eq!(highest_supported(999, &all), Some(P90));
        assert_eq!(highest_supported(1000, &all), Some(P99));
        assert_eq!(highest_supported(10_000, &all), Some(P999));
        assert_eq!(samples_beyond(100, P90), 10);
        assert_eq!(samples_beyond(0, P50), 0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25] clamps to
        // the first/last pair.
        let (q1, q3) = quartiles(&[1.0, 2.0]);
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
        // Order of input does not matter.
        let shuffled = [9.0, 1.0, 4.0, 10.0, 2.0, 7.0, 3.0, 8.0, 5.0, 6.0];
        assert_eq!(quartiles(&shuffled), (2.75, 8.25));
        assert_eq!(median(&shuffled), 5.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&ten) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[4.0; 10]), 0.0);
        assert_eq!(spread(&[0.0; 10]), 0.0);
    }

    #[test]
    fn refused_requests_count_as_failed() {
        // 1000 sent, 3 refused (overload), 1 send error: 4 failed.
        assert_eq!(error_share(1000, 4), 0.004);
        assert_eq!(error_share(1000, 0), 0.0);
        assert_eq!(error_share(0, 0), 0.0);
        assert_eq!(error_share(5, 5), 1.0);
    }

    #[test]
    fn steadiness_flags_spread_and_regressions() {
        let first = [
            100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9,
        ];
        let same: Vec<f64> = first.iter().map(|v| v * 1.01).collect();
        let verdict = steadiness(&first, &same, 0.1, Better::Lower, false);
        assert!(verdict.spread_ok && verdict.median_ok && verdict.comfortable);
        assert!((verdict.worsening - 0.01).abs() < 1e-9);

        // A lower-is-better metric 20% higher breaks a 10% bound...
        let slower: Vec<f64> = first.iter().map(|v| v * 1.2).collect();
        let verdict = steadiness(&first, &slower, 0.1, Better::Lower, false);
        assert!(verdict.spread_ok && !verdict.median_ok);
        // ...but the same move on a higher-is-better metric is a gain.
        let verdict = steadiness(&first, &slower, 0.1, Better::Higher, false);
        assert!(verdict.median_ok && verdict.worsening < 0.0);

        // Wide spread fails unless the metric is exempt (set-up time).
        let wide = [
            50.0, 150.0, 60.0, 140.0, 70.0, 130.0, 80.0, 120.0, 90.0, 110.0,
        ];
        let verdict = steadiness(&wide, &wide, 0.25, Better::Lower, false);
        assert!(!verdict.spread_ok && verdict.median_ok && !verdict.comfortable);
        let verdict = steadiness(&wide, &wide, 0.25, Better::Lower, true);
        assert!(verdict.spread_ok && verdict.comfortable);

        // Spread within the bound but above a third of it: passes, not
        // comfortably.
        let middling = [
            90.0, 110.0, 92.0, 108.0, 95.0, 105.0, 97.0, 103.0, 99.0, 101.0,
        ];
        let verdict = steadiness(&middling, &middling, 0.25, Better::Higher, false);
        assert!(verdict.spread_ok && !verdict.comfortable);
    }
}
