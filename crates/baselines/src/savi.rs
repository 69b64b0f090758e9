//! SaVI (ICCAD 2020): the TCAM-based seed-and-vote baseline.
//!
//! The seed-and-vote strategy (Subread/Liao et al.) splits the read into
//! `k`-mers, looks each up in the reference by exact match, and lets every
//! hit vote for the alignment offset it implies; the read maps where the
//! votes pile up. SaVI executes the exact-match lookups on TCAMs.
//!
//! For the pair-decision task the vote rule is: a pair matches at threshold
//! `T` iff the largest group of offset-consistent votes (offsets within
//! `±T`, since each indel shifts downstream seeds by one) loses at most
//! `T` of the read's seeds — each edit can corrupt at most one
//! non-overlapping seed. This reproduces seed-and-vote's characteristic
//! accuracy loss (the paper quotes ~93.8 % on average) without any analog
//! modelling: the losses are algorithmic.

use asmcap::{AsmMatcher, MatchOutcome};
use asmcap_genome::kmer::{packed_kmers, KmerIndex};
use asmcap_genome::{PackedSeq, PackedWords};
use std::collections::HashMap;

/// The SaVI functional model.
///
/// # Examples
///
/// ```
/// use asmcap::AsmMatcher;
/// use asmcap_baselines::SaviAccelerator;
/// use asmcap_genome::{GenomeModel, PackedSeq};
///
/// let genome = GenomeModel::uniform().generate(300, 1);
/// let segment = PackedSeq::from_seq(&genome.window(0..128));
/// let mut savi = SaviAccelerator::paper();
/// assert!(savi.matches(&segment, &segment, 0).matched);
/// let decoy = PackedSeq::from_seq(&genome.window(150..278));
/// assert!(!savi.matches(&decoy, &segment, 4).matched);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct SaviAccelerator {
    seed_len: usize,
}

impl SaviAccelerator {
    /// The configuration used in the comparison: 16-base seeds.
    #[must_use]
    pub fn paper() -> Self {
        Self { seed_len: 16 }
    }

    /// Custom seed length.
    ///
    /// # Panics
    ///
    /// Panics if `seed_len` is zero or greater than 32 (seeds are packed
    /// k-mer codes).
    #[must_use]
    pub fn with_seed_len(seed_len: usize) -> Self {
        assert!(
            asmcap_genome::kmer::check_k(seed_len).is_ok(),
            "seed length must be in 1..=32"
        );
        Self { seed_len }
    }

    /// The configured seed length.
    #[must_use]
    pub fn seed_len(&self) -> usize {
        self.seed_len
    }

    /// Number of non-overlapping seeds a read of `len` bases contributes.
    #[must_use]
    pub fn seed_count(&self, len: usize) -> usize {
        len / self.seed_len
    }

    /// The vote profile of a pair: for every non-overlapping read seed that
    /// occurs exactly in the segment, the alignment offsets it votes for.
    /// Returns the vote count of the best `±tolerance` offset window.
    ///
    /// The segment is indexed through the packed k-mer roller and the
    /// read's seeds are packed codes read straight out of the words.
    #[must_use]
    pub fn best_vote_count<S: PackedWords, R: PackedWords>(
        &self,
        segment: &S,
        read: &R,
        tolerance: usize,
    ) -> usize {
        let k = self.seed_len;
        if read.len() < k || segment.len() < k {
            return 0;
        }
        let index =
            KmerIndex::build_packed(segment, k).expect("seed length validated at construction");
        // One vote per (seed, supported offset); a repeated seed votes for
        // each hit (the TCAM reports all matching rows).
        let mut votes: HashMap<isize, usize> = HashMap::new();
        // Non-overlapping seeds sit at read positions 0, k, 2k, …: keep
        // exactly those codes from the rolling packed scan.
        for (read_pos, seed) in packed_kmers(read, k).filter(|(pos, _)| pos % k == 0) {
            for &segment_pos in index.positions_of_code(seed) {
                let offset = segment_pos as isize - read_pos as isize;
                *votes.entry(offset).or_insert(0) += 1;
            }
        }
        Self::best_window(&votes, tolerance)
    }

    /// Vote count of the best `±tolerance` offset window.
    fn best_window(votes: &HashMap<isize, usize>, tolerance: usize) -> usize {
        let mut best = 0usize;
        // lint: order-insensitive — max over every center; visiting order
        // cannot change which window wins.
        for &center in votes.keys() {
            let total: usize = votes // lint: order-insensitive — commutative sum
                .iter()
                .filter(|(&o, _)| (o - center).unsigned_abs() <= tolerance)
                .map(|(_, &c)| c)
                .sum();
            best = best.max(total);
        }
        best
    }
}

impl AsmMatcher for SaviAccelerator {
    fn matches(&mut self, segment: &PackedSeq, read: &PackedSeq, threshold: usize) -> MatchOutcome {
        let seeds = self.seed_count(read.len());
        let required = seeds.saturating_sub(threshold).max(1);
        let votes = self.best_vote_count(segment, read, threshold);
        MatchOutcome {
            matched: votes >= required,
            // One TCAM lookup cycle per seed plus one voting cycle.
            cycles: seeds as u32 + 1,
            used_hd: false,
            rotations: 0,
        }
    }

    fn name(&self) -> &str {
        "SaVI"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asmcap_genome::{ErrorProfile, GenomeModel, ReadSampler};

    fn packed(bases: &[asmcap_genome::Base]) -> PackedSeq {
        PackedSeq::from_bases(bases)
    }

    #[test]
    fn identical_pair_gets_all_votes() {
        let savi = SaviAccelerator::paper();
        let s = packed(GenomeModel::uniform().generate(256, 1).as_slice());
        assert_eq!(savi.best_vote_count(&s, &s, 0), 16);
    }

    #[test]
    fn substitutions_corrupt_bounded_seeds() {
        let savi = SaviAccelerator::paper();
        let s = GenomeModel::uniform().generate(256, 2);
        let mut bases = s.clone().into_bases();
        bases[10] = bases[10].substituted(0); // seed 0
        bases[100] = bases[100].substituted(1); // seed 6
        let votes = savi.best_vote_count(&packed(s.as_slice()), &packed(&bases), 2);
        assert_eq!(votes, 14); // exactly two seeds lost
    }

    #[test]
    fn indel_shifts_split_votes_but_window_recovers() {
        let genome = GenomeModel::uniform().generate(400, 3);
        let segment = genome.window(0..256);
        // Read with one deletion at base 50: downstream seeds vote offset +1.
        let mut bases = segment.clone().into_bases();
        bases.remove(50);
        bases.push(genome.as_slice()[256]);
        let (segment, read) = (packed(segment.as_slice()), packed(&bases));
        let savi = SaviAccelerator::paper();
        let strict = savi.best_vote_count(&segment, &read, 0);
        let tolerant = savi.best_vote_count(&segment, &read, 1);
        assert!(tolerant > strict, "offset window should merge split votes");
        assert!(tolerant >= 14);
    }

    #[test]
    fn matcher_accepts_condition_a_reads_at_loose_threshold() {
        let genome = GenomeModel::uniform().generate(20_000, 4);
        let sampler = ReadSampler::new(256, ErrorProfile::condition_a());
        let mut savi = SaviAccelerator::paper();
        let reads = sampler.sample_many(&genome, 30, 5);
        let accepted = reads
            .iter()
            .filter(|r| {
                let segment = packed(r.aligned_segment(&genome).as_slice());
                savi.matches(&segment, &packed(r.bases.as_slice()), 8)
                    .matched
            })
            .count();
        assert!(
            accepted >= 27,
            "SaVI accepted only {accepted}/30 true reads"
        );
    }

    #[test]
    fn matcher_rejects_decoys() {
        let mut savi = SaviAccelerator::paper();
        let a = packed(GenomeModel::uniform().generate(256, 6).as_slice());
        let b = packed(GenomeModel::uniform().generate(256, 7).as_slice());
        for t in [0usize, 4, 8, 16] {
            assert!(!savi.matches(&a, &b, t).matched);
        }
    }

    #[test]
    fn cycle_model_counts_seed_lookups() {
        let mut savi = SaviAccelerator::paper();
        let s = packed(GenomeModel::uniform().generate(256, 8).as_slice());
        let outcome = savi.matches(&s, &s, 0);
        assert_eq!(outcome.cycles, 17); // 16 lookups + 1 vote
    }
}
