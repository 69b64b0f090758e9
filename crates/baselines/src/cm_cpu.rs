//! The CM-CPU baseline: comparison-matrix edit distance in software.
//!
//! The paper's software baseline computes the comparison matrix `M[i,j]` on
//! an i9-10980XE. Functionally that is exact edit distance — 100 % accuracy
//! by construction — implemented here with the threshold-banded DP from
//! `asmcap-metrics`. The throughput model for Fig. 8 lives in
//! [`crate::perf`]; [`CmCpuAligner::measured_cell_rate`] measures the *host*
//! machine's actual DP cell rate for the honesty section of
//! `EXPERIMENTS.md`.

use asmcap::{AsmMatcher, MatchOutcome};
use asmcap_genome::{Base, PackedSeq};
use asmcap_metrics::{edit_distance_banded, edit_distance_banded_packed, edit_distance_myers};
use std::time::Instant;

/// The software comparison-matrix aligner.
///
/// # Examples
///
/// ```
/// use asmcap::AsmMatcher;
/// use asmcap_baselines::CmCpuAligner;
/// use asmcap_genome::{DnaSeq, PackedSeq};
///
/// let mut cpu = CmCpuAligner::new();
/// let a = PackedSeq::from_seq(&"ACGTACGT".parse::<DnaSeq>()?);
/// let b = PackedSeq::from_seq(&"ACGAACGT".parse::<DnaSeq>()?);
/// assert!(cpu.matches(&a, &b, 1).matched);
/// assert!(!cpu.matches(&a, &b, 0).matched);
/// # Ok::<(), asmcap_genome::base::ParseBaseError>(())
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct CmCpuAligner {
    _private: (),
}

impl CmCpuAligner {
    /// Creates the aligner.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Exact edit distance if it does not exceed `limit` (banded DP).
    #[must_use]
    pub fn distance_within(&self, a: &[Base], b: &[Base], limit: usize) -> Option<usize> {
        edit_distance_banded(a, b, limit)
    }

    /// Measures this host's DP throughput in cells per second by timing the
    /// bit-parallel kernel over `iterations` full `len×len` matrices.
    ///
    /// This is *our* machine, not the paper's i9; the number goes into the
    /// paper-vs-measured table, not into the Fig. 8 model (which uses the
    /// calibrated constant in [`crate::perf::calib`]).
    ///
    /// # Panics
    ///
    /// Panics if `len` or `iterations` is zero.
    #[must_use]
    pub fn measured_cell_rate(&self, len: usize, iterations: usize) -> f64 {
        assert!(len > 0 && iterations > 0, "need work to measure");
        let a = asmcap_genome::GenomeModel::uniform().generate(len, 0xC0FFEE);
        let b = asmcap_genome::GenomeModel::uniform().generate(len, 0xBEEF);
        // lint: timing-ok — measures kernel throughput; the rate is perf
        // metadata and never feeds a mapping decision.
        let start = Instant::now();
        let mut sink = 0usize;
        for _ in 0..iterations {
            sink = sink.wrapping_add(edit_distance_myers(a.as_slice(), b.as_slice()));
        }
        let elapsed = start.elapsed().as_secs_f64();
        std::hint::black_box(sink);
        (len * len * iterations) as f64 / elapsed
    }
}

impl AsmMatcher for CmCpuAligner {
    fn matches(&mut self, segment: &PackedSeq, read: &PackedSeq, threshold: usize) -> MatchOutcome {
        MatchOutcome::plain(edit_distance_banded_packed(segment, read, threshold).is_some())
    }

    fn name(&self) -> &str {
        "CM-CPU"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asmcap_genome::GenomeModel;

    #[test]
    fn cm_cpu_is_exact() {
        let genome = GenomeModel::uniform().generate(600, 1);
        let a = genome.window(0..128);
        let mut bases = a.clone().into_bases();
        bases[5] = bases[5].substituted(1);
        bases[64] = bases[64].substituted(2);
        let b = PackedSeq::from_bases(&bases);
        let a = PackedSeq::from_seq(&a);
        let mut cpu = CmCpuAligner::new();
        assert!(!cpu.matches(&a, &b, 1).matched);
        assert!(cpu.matches(&a, &b, 2).matched);
    }

    #[test]
    fn packed_matcher_agrees_with_slice_matcher() {
        // The packed decision against the base-slice banded DP of
        // `distance_within`.
        let genome = GenomeModel::uniform().generate(600, 3);
        let a = genome.window(0..128);
        let mut bases = a.clone().into_bases();
        bases.remove(40);
        bases.push(asmcap_genome::Base::G);
        let (pa, pb) = (PackedSeq::from_seq(&a), PackedSeq::from_bases(&bases));
        let mut cpu = CmCpuAligner::new();
        for t in [0usize, 1, 2, 8] {
            let within = cpu.distance_within(a.as_slice(), &bases, t).is_some();
            assert_eq!(
                cpu.matches(&pa, &pb, t),
                MatchOutcome::plain(within),
                "T={t}"
            );
        }
    }

    #[test]
    fn measured_rate_is_positive_and_fast() {
        let rate = CmCpuAligner::new().measured_cell_rate(256, 20);
        // Any modern machine should push the bit-parallel kernel well past
        // 10 MCell/s even in debug builds.
        assert!(rate > 1e7, "measured {rate} cells/s");
    }
}
