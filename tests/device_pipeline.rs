//! Integration test: the end-to-end device path — genome → arrays →
//! pipeline → strategies — is consistent with the metrics layer and
//! recovers read origins.

use asmcap::{AsmcapPipeline, PipelineConfig};
use asmcap_arch::{CamArray, MatchMode};
use asmcap_genome::{DnaSeq, ErrorProfile, GenomeModel, PackedSeq, ReadSampler};

fn device_pipeline(genome: &DnaSeq, config: PipelineConfig) -> AsmcapPipeline {
    AsmcapPipeline::builder()
        .reference(genome.clone())
        .config(config)
        .build()
        .expect("pipeline builds")
}

#[test]
fn array_mismatch_counts_equal_metrics_distances() {
    let genome = GenomeModel::human_like().generate(5_000, 1);
    let mut array = CamArray::asmcap(16, 128);
    for i in 0..16 {
        array
            .store_row(&genome.as_slice()[i * 200..i * 200 + 128])
            .unwrap();
    }
    let read = genome.window(1_000..1_128);
    for row in 0..16 {
        let stored = array.stored_row(row).unwrap();
        assert_eq!(
            array.row_mismatches(row, read.as_slice(), MatchMode::EdStar),
            asmcap_metrics::ed_star(&stored, read.as_slice())
        );
        assert_eq!(
            array.row_mismatches(row, read.as_slice(), MatchMode::Hamming),
            asmcap_metrics::hamming(&stored, read.as_slice())
        );
    }
}

#[test]
fn device_recovers_origins_for_erroneous_reads() {
    let genome = GenomeModel::uniform().generate(20_000, 2);
    let profile = ErrorProfile::condition_a();
    let width = 256usize;
    let pipeline = device_pipeline(
        &genome,
        PipelineConfig {
            row_width: width,
            seed: 4,
            ..PipelineConfig::paper(8, profile)
        },
    );

    let sampler = ReadSampler::new(width, profile);
    let (origins, reads): (Vec<usize>, Vec<DnaSeq>) = sampler
        .sample_many(&genome, 15, 3)
        .into_iter()
        .map(|r| (r.origin, r.bases))
        .unzip();
    let records = pipeline.map_batch(&reads);
    let recovered = records
        .iter()
        .zip(&origins)
        .filter(|(record, origin)| record.positions.contains(origin))
        .count();
    assert!(
        recovered >= 14,
        "only {recovered}/15 origins recovered at T=8"
    );
}

#[test]
fn consecutive_deletions_need_tasr_on_device() {
    let genome = GenomeModel::uniform().generate(8_192, 3);
    let width = 256usize;
    // A read with two consecutive deletions relative to its origin at 512.
    let mut bases = genome.window(512..512 + width).into_bases();
    bases.drain(64..66);
    bases.extend_from_slice(&genome.as_slice()[512 + width..512 + width + 2]);
    let read = DnaSeq::from_bases(bases);

    let plain = device_pipeline(
        &genome,
        PipelineConfig {
            row_width: width,
            seed: 5,
            ..PipelineConfig::plain(8)
        },
    );
    let with_tasr = device_pipeline(
        &genome,
        PipelineConfig {
            row_width: width,
            seed: 6,
            ..PipelineConfig::paper(8, ErrorProfile::condition_b())
        },
    );
    let before = plain.map(&read);
    let after = with_tasr.map(&read);
    assert!(!before.positions.contains(&512), "plain ED* should miss");
    assert!(after.positions.contains(&512), "TASR should recover");
    assert!(after.cycles > before.cycles, "rotations must cost cycles");
}

#[test]
fn engine_and_pipeline_agree_on_clean_decisions() {
    // Far from the threshold boundary, the pair engine and the device path
    // must agree (noise only matters near the boundary).
    use asmcap::{AsmMatcher, AsmcapEngine};
    let genome = GenomeModel::uniform().generate(4_096, 7);
    let width = 128usize;
    let segment = genome.window(100..100 + width);
    let mut engine = AsmcapEngine::paper(ErrorProfile::condition_a(), 8);

    let pipeline = device_pipeline(
        &genome,
        PipelineConfig {
            row_width: width,
            seed: 9,
            ..PipelineConfig::paper(4, ErrorProfile::condition_a())
        },
    );

    // Exact copy: both must match at T=4.
    let packed_segment = PackedSeq::from_seq(&segment);
    let outcome = engine.matches(&packed_segment, &packed_segment, 4);
    assert!(outcome.matched);
    let record = pipeline.map(&segment);
    assert!(record.positions.contains(&100));

    // Unrelated read: both must reject.
    let decoy = GenomeModel::uniform().generate(width, 99);
    let outcome = engine.matches(&packed_segment, &PackedSeq::from_seq(&decoy), 4);
    assert!(!outcome.matched);
    let record = pipeline.map(&decoy);
    assert!(record.positions.is_empty());
}
