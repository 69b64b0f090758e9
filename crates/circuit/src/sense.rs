//! Sense amplifiers and the threshold decision.
//!
//! Each matchline ends in a sense amplifier comparing `V_ML` against a
//! reference `V_ref`. The paper sets `V_ref = T/N · V_DD` so that the SA
//! outputs `match` exactly when `ED* ≤ T` (§III-B/C). With sensing noise,
//! where the reference sits *between* states matters, so the placement is a
//! configurable [`VrefPolicy`].

use crate::{noise, MlCam, Rng};

/// Where to place `V_ref` relative to the threshold state `T`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VrefPolicy {
    /// `V_ref = (T + ½)/N · V_DD`: centred between states `T` and `T + 1`,
    /// the engineering-correct placement that maximises noise margin on both
    /// sides. This is the default.
    #[default]
    Centered,
    /// `V_ref = T/N · V_DD`, exactly as printed in the paper: a noiseless
    /// row at `n_mis = T` sits *on* the reference.
    Exact,
}

impl VrefPolicy {
    /// The decision boundary in state units for threshold `T`.
    #[must_use]
    pub fn boundary_states(self, threshold: usize) -> f64 {
        match self {
            VrefPolicy::Centered => threshold as f64 + 0.5,
            VrefPolicy::Exact => threshold as f64,
        }
    }

    /// The reference voltage in volts for threshold `T` on an `n`-cell row.
    #[must_use]
    pub fn vref(self, threshold: usize, n: usize, vdd: f64) -> f64 {
        self.boundary_states(threshold) / n as f64 * vdd
    }
}

/// A sense amplifier bound to a sensing model and a `V_ref` policy.
///
/// # Examples
///
/// ```
/// use asmcap_circuit::{ChargeDomainCam, SenseAmp, VrefPolicy};
/// let sa = SenseAmp::new(ChargeDomainCam::paper(), VrefPolicy::Centered);
/// let mut rng = asmcap_circuit::rng(1);
/// // A clean row with 2 mismatches matches at T = 4 ...
/// assert!(sa.decide(2, 256, 4, &mut rng));
/// // ... and does not at T = 1.
/// assert!(!sa.decide(2, 256, 1, &mut rng));
/// ```
#[derive(Debug, Clone)]
pub struct SenseAmp<M> {
    cam: M,
    policy: VrefPolicy,
}

impl<M: MlCam> SenseAmp<M> {
    /// Creates a sense amplifier over the given sensing model.
    #[must_use]
    pub fn new(cam: M, policy: VrefPolicy) -> Self {
        Self { cam, policy }
    }

    /// The sensing model.
    #[must_use]
    pub fn cam(&self) -> &M {
        &self.cam
    }

    /// The reference placement policy.
    #[must_use]
    pub fn policy(&self) -> VrefPolicy {
        self.policy
    }

    /// The decision every draw agrees on for a row with `n_mis` of `n`
    /// cells mismatched at `threshold`, shifted by `offset_states`, with
    /// the stream words one draw consumes: `Some((matched, words))` when
    /// the model's sure support ([`MlCam::measure_support`]) lies wholly on
    /// one side of `V_ref`, `None` when noise could flip the answer or the
    /// support is unknown.
    fn sure_decision(
        &self,
        n_mis: usize,
        n: usize,
        threshold: usize,
        offset_states: f64,
    ) -> Option<(bool, u64)> {
        let support = self.cam.measure_support(n_mis, n)?;
        let boundary = self.policy.boundary_states(threshold);
        // Adding the offset is monotone under rounding, so the shifted
        // support still bounds every shifted draw.
        if support.hi + offset_states <= boundary {
            Some((true, support.words))
        } else if support.lo + offset_states > boundary {
            Some((false, support.words))
        } else {
            None
        }
    }

    /// One noisy match decision: `true` iff the measured matchline value
    /// falls at or below the `V_ref` boundary for `threshold`. Exactly
    /// [`SenseAmp::decide_with_offset`] with a zero offset.
    pub fn decide(&self, n_mis: usize, n: usize, threshold: usize, rng: &mut Rng) -> bool {
        self.decide_with_offset(n_mis, n, threshold, 0.0, rng)
    }

    /// [`SenseAmp::decide`] with a systematic matchline offset in state
    /// units — the fault-injection hook for per-array capacitance drift.
    /// A positive offset pushes every measurement away from "match",
    /// eroding the sense margin.
    ///
    /// When the model's sure support ([`MlCam::measure_support`]), shifted
    /// by the offset, lies wholly on one side of `V_ref`, no noise is
    /// drawn: `rng` seeks past the words one draw would have used, so the
    /// stream ends where drawing would have left it and every later draw
    /// is unchanged.
    pub fn decide_with_offset(
        &self,
        n_mis: usize,
        n: usize,
        threshold: usize,
        offset_states: f64,
        rng: &mut Rng,
    ) -> bool {
        if let Some((matched, words)) = self.sure_decision(n_mis, n, threshold, offset_states) {
            noise::skip_words(rng, words);
            return matched;
        }
        self.cam.measure(n_mis, n, rng) + offset_states <= self.policy.boundary_states(threshold)
    }

    /// Analytic probability that a row with `n_mis` mismatches is declared
    /// a match at `threshold`, assuming Gaussian sensing noise (and
    /// accounting for any systematic gain error of the model).
    #[must_use]
    pub fn match_probability(&self, n_mis: usize, n: usize, threshold: usize) -> f64 {
        let boundary = self.policy.boundary_states(threshold);
        let mean = self.cam.mean_states(n_mis, n);
        let sigma = self.cam.sigma_states(n_mis, n);
        if sigma == 0.0 {
            return if mean <= boundary { 1.0 } else { 0.0 };
        }
        normal_cdf((boundary - mean) / sigma)
    }
}

/// Standard normal CDF via the Abramowitz–Stegun erf approximation
/// (|error| < 1.5e-7, plenty for misjudgment-probability analysis).
#[must_use]
pub fn normal_cdf(z: f64) -> f64 {
    0.5 * (1.0 + erf(z / std::f64::consts::SQRT_2))
}

fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let poly = t
        * (0.254_829_592
            + t * (-0.284_496_736
                + t * (1.421_413_741 + t * (-1.453_152_027 + t * 1.061_405_429))));
    sign * (1.0 - poly * (-x * x).exp())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::charge::ChargeDomainCam;
    use crate::current::CurrentDomainCam;
    use crate::rng;

    #[test]
    fn vref_matches_paper_formula() {
        // Paper: V_ref = T/N * V_DD (Exact policy).
        let v = VrefPolicy::Exact.vref(8, 256, 1.2);
        assert!((v - 8.0 / 256.0 * 1.2).abs() < 1e-15);
        let centered = VrefPolicy::Centered.vref(8, 256, 1.2);
        assert!(centered > v);
    }

    #[test]
    fn noiseless_decision_is_exact_threshold_comparison() {
        let mut cam = ChargeDomainCam::paper();
        // Remove the SA offset to make the model fully deterministic at the
        // extremes.
        let mut params = cam.params().clone();
        params.sa_offset_states = 0.0;
        params.cap_sigma_rel = 0.0;
        cam = ChargeDomainCam::new(params);
        let sa = SenseAmp::new(cam, VrefPolicy::Centered);
        let mut rng = rng(1);
        for t in 0..10 {
            for n_mis in 0..20 {
                assert_eq!(sa.decide(n_mis, 256, t, &mut rng), n_mis <= t);
            }
        }
    }

    /// One sense amplifier over `cam` per `V_ref` policy.
    fn sense_amps<M: MlCam + Clone>(cam: &M) -> Vec<SenseAmp<M>> {
        [VrefPolicy::Centered, VrefPolicy::Exact]
            .into_iter()
            .map(|policy| SenseAmp::new(cam.clone(), policy))
            .collect()
    }

    #[test]
    fn sure_decisions_agree_with_every_real_draw() {
        // A decision is monotone in the measured value, so a sure `true`
        // must hold for the largest of the draws and a sure `false` for
        // the smallest.
        let cam = ChargeDomainCam::paper();
        let mut rng = rng(41);
        let mut sure = 0usize;
        for n in [32usize, 64, 128, 256] {
            for n_mis in 0..=n {
                let draws: Vec<f64> = (0..2_000)
                    .map(|_| cam.measure(n_mis, n, &mut rng))
                    .collect();
                let lo = draws.iter().copied().fold(f64::INFINITY, f64::min);
                let hi = draws.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                for sa in sense_amps(&cam) {
                    for t in 0..=16 {
                        let boundary = sa.policy().boundary_states(t);
                        match sa.sure_decision(n_mis, n, t, 0.0) {
                            Some((true, 4)) => assert!(hi <= boundary, "n={n} n_mis={n_mis} T={t}"),
                            Some((false, 4)) => assert!(lo > boundary, "n={n} n_mis={n_mis} T={t}"),
                            Some(other) => panic!("unexpected sure decision {other:?}"),
                            None => continue,
                        }
                        sure += 1;
                    }
                }
            }
        }
        // Nearly every (row, threshold) pair is far from V_ref.
        assert!(sure > 15_000, "only {sure} sure decisions");
    }

    #[test]
    fn noiseless_rows_are_always_sure() {
        let mut params = crate::AsmcapParams::paper();
        params.sa_offset_states = 0.0;
        params.cap_sigma_rel = 0.0;
        for sa in sense_amps(&ChargeDomainCam::new(params)) {
            for n in [32usize, 128] {
                for t in 0..=16 {
                    for n_mis in 0..=n {
                        let expected = n_mis as f64 <= sa.policy().boundary_states(t);
                        assert_eq!(sa.sure_decision(n_mis, n, t, 0.0), Some((expected, 4)));
                    }
                }
            }
        }
    }

    #[test]
    fn edam_never_claims_a_sure_decision() {
        let sa = SenseAmp::new(CurrentDomainCam::paper(), VrefPolicy::Centered);
        assert_eq!(sa.cam().measure_support(50, 128), None);
        for n_mis in [0usize, 6, 50, 128] {
            assert_eq!(sa.sure_decision(n_mis, 128, 6, 0.0), None);
        }
    }

    #[test]
    fn decide_is_decide_with_zero_offset_and_a_plain_draw() {
        // Three streams: `decide`, `decide_with_offset(.., 0.0, ..)`, and
        // the always-draw oracle. Decisions and stream positions agree
        // row for row, over rows near and far from V_ref.
        let sa = SenseAmp::new(ChargeDomainCam::paper(), VrefPolicy::Centered);
        let (mut a, mut b, mut oracle) = (rng(5), rng(5), rng(5));
        for round in 0..50 {
            for n_mis in 0..=40 {
                let t = round % 12;
                let d = sa.decide(n_mis, 128, t, &mut a);
                let o = sa.decide_with_offset(n_mis, 128, t, 0.0, &mut b);
                let truth =
                    sa.cam().measure(n_mis, 128, &mut oracle) <= sa.policy().boundary_states(t);
                assert_eq!((d, o), (truth, truth), "n_mis={n_mis} T={t}");
                assert_eq!(a.get_word_pos(), oracle.get_word_pos());
                assert_eq!(b.get_word_pos(), oracle.get_word_pos());
            }
        }
    }

    #[test]
    fn offset_decisions_match_a_plain_draw() {
        let sa = SenseAmp::new(ChargeDomainCam::paper(), VrefPolicy::Exact);
        let (mut fast, mut oracle) = (rng(6), rng(6));
        for offset in [-3.0, -0.4, 0.25, 1.5, 7.0] {
            for n_mis in 0..=30 {
                let d = sa.decide_with_offset(n_mis, 64, 8, offset, &mut fast);
                let truth = sa.cam().measure(n_mis, 64, &mut oracle) + offset
                    <= sa.policy().boundary_states(8);
                assert_eq!(d, truth, "n_mis={n_mis} offset={offset}");
                assert_eq!(fast.get_word_pos(), oracle.get_word_pos());
            }
        }
    }

    #[test]
    fn match_probability_is_monotone_in_threshold() {
        let sa = SenseAmp::new(CurrentDomainCam::paper(), VrefPolicy::Centered);
        let probs: Vec<f64> = (0..20).map(|t| sa.match_probability(10, 256, t)).collect();
        for pair in probs.windows(2) {
            assert!(pair[1] >= pair[0] - 1e-12);
        }
    }

    #[test]
    fn match_probability_agrees_with_monte_carlo() {
        let sa = SenseAmp::new(CurrentDomainCam::paper(), VrefPolicy::Centered);
        let mut rng = rng(31);
        let trials = 20_000usize;
        for (n_mis, t) in [(6usize, 8usize), (10, 8), (9, 8)] {
            let hits = (0..trials)
                .filter(|_| sa.decide(n_mis, 256, t, &mut rng))
                .count();
            let empirical = hits as f64 / trials as f64;
            let analytic = sa.match_probability(n_mis, 256, t);
            assert!(
                (empirical - analytic).abs() < 0.015,
                "n_mis={n_mis} T={t}: mc={empirical} analytic={analytic}"
            );
        }
    }

    #[test]
    fn normal_cdf_reference_values() {
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-7);
        assert!((normal_cdf(1.959_964) - 0.975).abs() < 1e-4);
        assert!((normal_cdf(-1.959_964) - 0.025).abs() < 1e-4);
        assert!(normal_cdf(8.0) > 0.999_999);
        assert!(normal_cdf(-8.0) < 1e-6);
    }

    #[test]
    fn charge_domain_is_sharper_than_current_domain() {
        let asmcap = SenseAmp::new(ChargeDomainCam::paper(), VrefPolicy::Centered);
        let edam = SenseAmp::new(CurrentDomainCam::paper(), VrefPolicy::Centered);
        // A row 3 states above threshold: ASMCap rejects it almost surely,
        // EDAM has a visible false-positive probability.
        let t = 8usize;
        let n_mis = 11usize;
        assert!(asmcap.match_probability(n_mis, 256, t) < 1e-6);
        assert!(edam.match_probability(n_mis, 256, t) > 0.01);
    }
}
