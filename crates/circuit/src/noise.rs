//! Gaussian sampling for the variation models.
//!
//! `rand` 0.8 ships only uniform-family distributions; the normal draws the
//! variation models need are generated here with the Box–Muller transform,
//! avoiding an extra dependency for one function.

use crate::Rng;
use rand::Rng as _;

/// Lower end of the Box–Muller `u1` draw, which keeps `ln(u1)` finite and
/// bounds every [`standard_normal`] sample by `√(−2 ln ε) ≈ 8.4904`.
pub(crate) const U1_MIN: f64 = f64::EPSILON;

/// 32-bit stream words one [`standard_normal`] draw consumes: two `u64`s.
pub(crate) const STANDARD_NORMAL_WORDS: u64 = 4;

/// Draws one standard-normal sample (`N(0, 1)`).
///
/// # Examples
///
/// ```
/// let mut rng = asmcap_circuit::rng(1);
/// let x = asmcap_circuit::noise::standard_normal(&mut rng);
/// assert!(x.is_finite());
/// ```
#[must_use]
pub fn standard_normal(rng: &mut Rng) -> f64 {
    // Box–Muller; u1 bounded away from 0 so ln() is finite.
    let u1: f64 = rng.gen_range(U1_MIN..1.0);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Draws one `N(mean, sigma²)` sample.
///
/// # Panics
///
/// Panics if `sigma` is negative.
#[must_use]
pub fn normal(mean: f64, sigma: f64, rng: &mut Rng) -> f64 {
    assert!(sigma >= 0.0, "sigma must be non-negative");
    mean + sigma * standard_normal(rng)
}

/// Advances `rng` past `words` stream words without generating them: the
/// draw a sure decision does not need.
pub(crate) fn skip_words(rng: &mut Rng, words: u64) {
    if words > 0 {
        rng.set_word_pos(rng.get_word_pos() + u128::from(words));
    }
}

/// Draws one uniform sample in `[0, 1)` — the Bernoulli primitive the
/// fault-injection models use for per-cell and per-sense event draws.
#[must_use]
pub fn uniform(rng: &mut Rng) -> f64 {
    rng.gen()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng;

    #[test]
    fn moments_are_plausible() {
        let mut rng = rng(11);
        let n = 50_000usize;
        let samples: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "variance {var}");
    }

    #[test]
    fn tail_mass_is_gaussian() {
        let mut rng = rng(13);
        let n = 100_000usize;
        let beyond_2sigma = (0..n)
            .filter(|_| standard_normal(&mut rng).abs() > 2.0)
            .count();
        let rate = beyond_2sigma as f64 / n as f64;
        // True mass beyond 2 sigma is ~4.55%.
        assert!((rate - 0.0455).abs() < 0.005, "2-sigma tail rate {rate}");
    }

    #[test]
    fn normal_scales_and_shifts() {
        let mut rng = rng(17);
        let samples: Vec<f64> = (0..20_000).map(|_| normal(5.0, 2.0, &mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        assert!((mean - 5.0).abs() < 0.05);
        assert_eq!(normal(3.0, 0.0, &mut rng), 3.0);
    }

    #[test]
    fn standard_normal_uses_its_declared_words() {
        let mut rng = rng(23);
        for _ in 0..10 {
            let before = rng.get_word_pos();
            let _ = standard_normal(&mut rng);
            assert_eq!(
                rng.get_word_pos() - before,
                u128::from(STANDARD_NORMAL_WORDS)
            );
        }
    }

    #[test]
    fn skip_words_matches_drawing() {
        let mut drawn = rng(29);
        let mut skipped = rng(29);
        for _ in 0..5 {
            let _ = standard_normal(&mut drawn);
        }
        skip_words(&mut skipped, 5 * STANDARD_NORMAL_WORDS);
        assert_eq!(standard_normal(&mut drawn), standard_normal(&mut skipped));
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(standard_normal(&mut rng(19)), standard_normal(&mut rng(19)));
    }
}
