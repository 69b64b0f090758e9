//! Workloads and the inputs they are generated from.
//!
//! Every input derives from the workload seed: the reference, the reads,
//! the foreign genome, and the pipeline's sensing seed. The library only
//! ever sees the generated reads.

use asmcap::{ExtensionConfig, PipelineConfig, PrefilterConfig};
use asmcap_genome::{DnaSeq, ErrorProfile, GenomeModel, PackedSeq, ReadSampler};
use rand::Rng as _;

/// Generated reference length in bases.
pub const REF_LEN: usize = 65_536;
/// CAM row width = read length.
pub const ROW_WIDTH: usize = 128;
/// Reference segmentation stride.
pub const STRIDE: usize = 8;
/// Edit-distance threshold T.
pub const THRESHOLD: usize = 6;
/// Reads per `map_batch_packed` call on the map-* workloads.
pub const BATCH: usize = 256;
/// Closed-loop window per serving connection.
pub const WINDOW: usize = 64;

/// The three named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Batch mapping of Condition-A reads on the stride grid, extension on.
    MapAligned,
    /// Batch mapping of Condition-B reads, every 8th from a foreign genome.
    MapContaminated,
    /// Two closed-loop clients against an in-process server.
    ServeLoopback,
}

impl Workload {
    /// All workloads, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::MapAligned,
        Workload::MapContaminated,
        Workload::ServeLoopback,
    ];

    /// Parses a workload name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name on the command line and in reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::MapAligned => "map-aligned",
            Self::MapContaminated => "map-contaminated",
            Self::ServeLoopback => "serve-loopback",
        }
    }

    /// Reads in the generated pool. The first pass over the pool is the
    /// fixed sample that recall, precision and the simulated costs are
    /// computed on, so those repeat exactly for a seed.
    #[must_use]
    pub fn pool_size(self) -> usize {
        match self {
            Self::MapContaminated => 8_192,
            Self::MapAligned | Self::ServeLoopback => 16_384,
        }
    }

    /// Every n-th read of the pool comes from an unrelated genome.
    #[must_use]
    pub fn foreign_every(self) -> Option<usize> {
        match self {
            Self::MapContaminated => Some(8),
            Self::MapAligned | Self::ServeLoopback => None,
        }
    }

    /// The error profile reads are sampled with (and the pipeline expects).
    #[must_use]
    pub fn profile(self) -> ErrorProfile {
        match self {
            Self::MapContaminated => ErrorProfile::condition_b(),
            Self::MapAligned | Self::ServeLoopback => ErrorProfile::condition_a(),
        }
    }
}

/// SplitMix64 over `seed` and a stream tag: independent sub-seeds.
#[must_use]
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A workload's generated inputs.
pub struct Inputs {
    /// The reference the pipeline stores.
    pub reference: DnaSeq,
    /// The read pool, packed, each exactly [`ROW_WIDTH`] bases.
    pub reads: Vec<PackedSeq>,
    /// The same reads as ASCII, for the wire.
    pub ascii: Vec<Vec<u8>>,
    /// True origin of each read, `None` for a foreign read.
    pub origins: Vec<Option<usize>>,
}

impl Inputs {
    /// The reads and true origins for run read indices `ids`: index `i`
    /// maps pool read `i mod pool size`.
    #[must_use]
    pub fn pick(&self, ids: &[u64]) -> (Vec<PackedSeq>, Vec<Option<usize>>) {
        let pool = self.reads.len() as u64;
        ids.iter()
            .map(|&id| {
                let i = (id % pool) as usize;
                (self.reads[i].clone(), self.origins[i])
            })
            .unzip()
    }
}

/// Generates a workload's inputs from its seed.
///
/// # Panics
///
/// Panics if the generated geometry is inconsistent (a constant bug).
#[must_use]
pub fn generate(workload: Workload, seed: u64) -> Inputs {
    let reference = GenomeModel::uniform().generate(REF_LEN, mix(seed, 1));
    let foreign = workload
        .foreign_every()
        .map(|_| GenomeModel::uniform().generate(REF_LEN, mix(seed, 3)));
    let sampler = ReadSampler::new(ROW_WIDTH, workload.profile());
    let grid = sampler.max_origin(REF_LEN).expect("reference holds reads") / STRIDE + 1;
    let mut rng = asmcap_genome::rng(mix(seed, 2));
    let mut reads = Vec::with_capacity(workload.pool_size());
    let mut ascii = Vec::with_capacity(workload.pool_size());
    let mut origins = Vec::with_capacity(workload.pool_size());
    for i in 0..workload.pool_size() {
        let origin = (rng.gen::<u64>() as usize % grid) * STRIDE;
        let is_foreign = workload.foreign_every().is_some_and(|k| i % k == k - 1);
        let source = match (&foreign, is_foreign) {
            (Some(foreign), true) => foreign,
            _ => &reference,
        };
        let read = sampler.sample_at(source, origin, &mut rng).bases;
        assert_eq!(read.len(), ROW_WIDTH, "sampled reads are one row wide");
        ascii.push(read.to_string().into_bytes());
        reads.push(PackedSeq::from_seq(&read));
        origins.push((!is_foreign).then_some(origin));
    }
    Inputs {
        reference,
        reads,
        ascii,
        origins,
    }
}

/// The pipeline configuration every workload shares: 64 kbp reference,
/// row width 128, stride 8, T = 6, prefilter on; extension on for the
/// map-* workloads and off for serving (the server's default).
#[must_use]
pub fn pipeline_config(workload: Workload, seed: u64) -> PipelineConfig {
    PipelineConfig {
        threshold: THRESHOLD,
        profile: workload.profile(),
        stride: STRIDE,
        row_width: ROW_WIDTH,
        seed: mix(seed, 4),
        prefilter: Some(PrefilterConfig::default()),
        extension: (workload != Workload::ServeLoopback).then(ExtensionConfig::default),
        ..PipelineConfig::default()
    }
}

/// Worker threads and client connections: the host's parallelism.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let a = generate(Workload::MapContaminated, 5);
        let b = generate(Workload::MapContaminated, 5);
        assert_eq!(a.reads, b.reads);
        assert_eq!(a.origins, b.origins);
        let c = generate(Workload::MapContaminated, 6);
        assert_ne!(a.reads, c.reads);
    }

    #[test]
    fn contaminated_pool_has_every_eighth_read_foreign() {
        let inputs = generate(Workload::MapContaminated, 1);
        for (i, origin) in inputs.origins.iter().enumerate() {
            assert_eq!(origin.is_none(), i % 8 == 7, "read {i}");
            if let Some(origin) = origin {
                assert_eq!(origin % STRIDE, 0);
            }
        }
        assert!(inputs.ascii.iter().all(|r| r.len() == ROW_WIDTH));
    }
}
