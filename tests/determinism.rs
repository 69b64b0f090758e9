//! Integration test: every experiment is bit-reproducible from its seed.

use asmcap_eval::{Condition, EvalDataset, Fig7Config};

#[test]
fn datasets_are_reproducible() {
    let a = EvalDataset::build(Condition::A, 20, 4, 128, 30_000, 42);
    let b = EvalDataset::build(Condition::A, 20, 4, 128, 30_000, 42);
    assert_eq!(a.pairs().pairs(), b.pairs().pairs());
    for i in 0..a.pairs().pairs().len() {
        assert_eq!(a.distance(i), b.distance(i));
    }
    let c = EvalDataset::build(Condition::A, 20, 4, 128, 30_000, 43);
    assert_ne!(a.pairs().pairs(), c.pairs().pairs());
}

#[test]
fn fig7_runs_are_reproducible() {
    let config = Fig7Config {
        reads: 30,
        decoys: 4,
        read_len: 128,
        genome_len: 40_000,
        seed: 7,
    };
    let x = asmcap_eval::fig7::run(Condition::B, &config);
    let y = asmcap_eval::fig7::run(Condition::B, &config);
    for (sx, sy) in x.series.iter().zip(&y.series) {
        assert_eq!(sx.system, sy.system);
        for (px, py) in sx.points.iter().zip(&sy.points) {
            assert_eq!(px.f1, py.f1, "series {} diverged", sx.system);
        }
    }
}

#[test]
fn pipelines_are_reproducible_per_seed() {
    use asmcap::{AsmcapPipeline, PipelineConfig};
    use asmcap_genome::{DnaSeq, ErrorProfile, GenomeModel, ReadSampler};
    let genome = GenomeModel::uniform().generate(6_000, 17);
    let sampler = ReadSampler::new(128, ErrorProfile::condition_a());
    let reads: Vec<DnaSeq> = sampler
        .sample_many(&genome, 8, 3)
        .into_iter()
        .map(|r| r.bases)
        .collect();
    let run = |seed: u64| {
        let pipeline = AsmcapPipeline::builder()
            .reference(genome.clone())
            .config(PipelineConfig {
                row_width: 128,
                seed,
                ..PipelineConfig::paper(6, ErrorProfile::condition_a())
            })
            .build()
            .unwrap();
        pipeline.map_batch(&reads)
    };
    assert_eq!(run(9), run(9));
}

#[test]
fn engines_are_reproducible_per_seed() {
    use asmcap::{AsmMatcher, AsmcapEngine};
    use asmcap_genome::{ErrorProfile, GenomeModel, PackedSeq};
    let s = PackedSeq::from_seq(&GenomeModel::uniform().generate(256, 1));
    let d = PackedSeq::from_seq(&GenomeModel::uniform().generate(256, 2));
    let run = |seed: u64| {
        let mut engine = AsmcapEngine::paper(ErrorProfile::condition_b(), seed);
        (0..50)
            .map(|t| engine.matches(&s, &d, t % 16).matched)
            .collect::<Vec<_>>()
    };
    assert_eq!(run(5), run(5));
}
