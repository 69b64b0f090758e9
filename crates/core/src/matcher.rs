//! The matcher abstraction: one (read, segment, threshold) decision.
//!
//! [`AsmMatcher`] has one decision method, [`AsmMatcher::matches`], over
//! 2-bit packed operands, and every implementor has exactly one decision
//! procedure behind it. Callers that hold base slices pack each pair once
//! at the call site.

use asmcap_genome::PackedSeq;
use asmcap_metrics::{ed_star_packed, edit_distance_banded_packed};

/// Result of one match decision, with the cycle cost the decision incurred
/// on the accelerator (1 for a plain search, +1 for an HDAC HD search, +1
/// per TASR rotation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatchOutcome {
    /// The matching result: `true` = match.
    pub matched: bool,
    /// Search cycles consumed.
    pub cycles: u32,
    /// Whether an HDAC HD-mode search was issued.
    pub used_hd: bool,
    /// Number of TASR rotated searches issued.
    pub rotations: u32,
}

impl MatchOutcome {
    /// A single-cycle plain decision.
    #[must_use]
    pub fn plain(matched: bool) -> Self {
        Self {
            matched,
            cycles: 1,
            used_hd: false,
            rotations: 0,
        }
    }
}

/// An approximate string matcher: decides whether `read` matches the stored
/// `segment` at edit-distance threshold `threshold`.
///
/// `&mut self` because hardware matchers carry RNG state for their sensing
/// noise; pure matchers simply ignore it.
pub trait AsmMatcher {
    /// One match decision over 2-bit packed operands. The evaluation
    /// harness packs each pair exactly once and calls this (see
    /// `asmcap_eval::EvalDataset::evaluate`); callers holding base slices
    /// pack them with [`PackedSeq::from_seq`] or [`PackedSeq::from_bases`].
    ///
    /// # Panics
    ///
    /// Implementations panic if `segment` and `read` lengths differ (a CAM
    /// row is exactly as wide as the read).
    fn matches(&mut self, segment: &PackedSeq, read: &PackedSeq, threshold: usize) -> MatchOutcome;

    /// Short display name for reports.
    fn name(&self) -> &str;
}

/// Ground-truth matcher: exact (banded) edit distance `ED ≤ T`.
///
/// This is *not* a hardware model — it is the oracle the F1 evaluation
/// scores everything against, and also the functional behaviour of the
/// CM-CPU/ReSMA baselines.
///
/// # Examples
///
/// ```
/// use asmcap::{AsmMatcher, ExactEdMatcher};
/// use asmcap_genome::{DnaSeq, PackedSeq};
/// let mut oracle = ExactEdMatcher::new();
/// let a = PackedSeq::from_seq(&"ACGTACGT".parse::<DnaSeq>()?);
/// let b = PackedSeq::from_seq(&"ACGAACGT".parse::<DnaSeq>()?);
/// assert!(oracle.matches(&a, &b, 1).matched);
/// assert!(!oracle.matches(&a, &b, 0).matched);
/// # Ok::<(), asmcap_genome::base::ParseBaseError>(())
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct ExactEdMatcher {
    _private: (),
}

impl ExactEdMatcher {
    /// Creates the oracle matcher.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl AsmMatcher for ExactEdMatcher {
    fn matches(&mut self, segment: &PackedSeq, read: &PackedSeq, threshold: usize) -> MatchOutcome {
        MatchOutcome::plain(edit_distance_banded_packed(segment, read, threshold).is_some())
    }

    fn name(&self) -> &str {
        "exact-ED"
    }
}

/// Noiseless ED\* matcher: the pure matching semantics of an EDAM/ASMCap
/// array with ideal sensing. Useful for isolating algorithmic misjudgments
/// from analog noise in tests and ablations.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoiselessEdStarMatcher {
    _private: (),
}

impl NoiselessEdStarMatcher {
    /// Creates the noiseless matcher.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl AsmMatcher for NoiselessEdStarMatcher {
    fn matches(&mut self, segment: &PackedSeq, read: &PackedSeq, threshold: usize) -> MatchOutcome {
        MatchOutcome::plain(ed_star_packed(segment, read) <= threshold)
    }

    fn name(&self) -> &str {
        "ED* (noiseless)"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(s: &str) -> PackedSeq {
        PackedSeq::from_seq(&s.parse().expect("valid test sequence"))
    }

    #[test]
    fn exact_matcher_is_the_ed_oracle() {
        let mut oracle = ExactEdMatcher::new();
        let a = seq("AGCTGAGA");
        let b = seq("ATCTGCGA"); // ED = 2
        assert!(!oracle.matches(&a, &b, 1).matched);
        assert!(oracle.matches(&a, &b, 2).matched);
        assert_eq!(oracle.matches(&a, &b, 2).cycles, 1);
    }

    #[test]
    fn noiseless_edstar_hides_substitutions() {
        // Stored CAG vs read CGA: both substituted bases are found in the
        // neighbour windows, so ED* = 0 although ED = 2.
        let mut matcher = NoiselessEdStarMatcher::new();
        assert!(matcher.matches(&seq("CAG"), &seq("CGA"), 0).matched);
        let mut oracle = ExactEdMatcher::new();
        assert!(!oracle.matches(&seq("CAG"), &seq("CGA"), 0).matched);
    }

    #[test]
    fn outcome_plain_constructor() {
        let o = MatchOutcome::plain(true);
        assert!(o.matched && o.cycles == 1 && !o.used_hd && o.rotations == 0);
    }
}
