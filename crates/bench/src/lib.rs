//! Shared fixtures for the criterion benchmarks.
//!
//! The benches regenerate the paper's tables/figures as *measured kernels*:
//! `distances` and `fig7_accuracy` back Fig. 2/Fig. 7, `table1_circuit`
//! backs Table I/Fig. 3, `array_search` the architecture layer,
//! `strategies` the §IV overhead analyses, `baselines`/`fig8_perf` Fig. 8.

#![forbid(unsafe_code)]

use asmcap_genome::{DnaSeq, ErrorProfile, GenomeModel, PackedSeq, ReadSampler, SampledRead};

/// A deterministic genome for benching.
#[must_use]
pub fn genome(len: usize) -> DnaSeq {
    GenomeModel::uniform().generate(len, 0xBEBC)
}

/// A deterministic (segment, erroneous read) pair of the given length.
#[must_use]
pub fn pair(len: usize, profile: ErrorProfile) -> (DnaSeq, DnaSeq) {
    let genome = genome(len * 8 + 64);
    let sampler = ReadSampler::new(len, profile);
    let read: SampledRead = sampler.sample(&genome, 0x9A12);
    let segment = read.aligned_segment(&genome);
    (segment, read.bases)
}

/// A deterministic pair of unrelated sequences (decoy workload).
#[must_use]
pub fn decoy_pair(len: usize) -> (DnaSeq, DnaSeq) {
    (
        GenomeModel::uniform().generate(len, 1),
        GenomeModel::uniform().generate(len, 2),
    )
}

/// A pair 2-bit packed once, for the benches that time matcher decisions.
#[must_use]
pub fn packed((a, b): (DnaSeq, DnaSeq)) -> (PackedSeq, PackedSeq) {
    (PackedSeq::from_seq(&a), PackedSeq::from_seq(&b))
}
