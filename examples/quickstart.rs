//! Quickstart: build an `AsmcapPipeline` over a reference, map an erroneous
//! read, and inspect the structured result.
//!
//! Run with: `cargo run -p asmcap-workspace --example quickstart`

use asmcap::{AsmMatcher, AsmcapEngine, AsmcapPipeline, PipelineConfig};
use asmcap_genome::{ErrorProfile, GenomeModel, PackedSeq, ReadSampler};

fn main() {
    // 1. A synthetic reference genome (stand-in for an NCBI sequence).
    let genome = GenomeModel::human_like().generate(50_000, 42);
    println!(
        "reference: {} bases, GC content {:.1}%",
        genome.len(),
        genome.gc_content() * 100.0
    );

    // 2. A 256-base read sampled with Condition-A sequencing errors.
    let profile = ErrorProfile::condition_a();
    let sampler = ReadSampler::new(256, profile);
    let read = sampler.sample(&genome, 7);
    println!(
        "read: origin {}, injected edits: {}",
        read.origin, read.edits
    );

    // 3. Pair-level decision with the full ASMCap engine (the layer the
    //    pipeline's PairBackend wraps), over 2-bit packed operands.
    let segment = PackedSeq::from_seq(&read.aligned_segment(&genome));
    let mut engine = AsmcapEngine::paper(profile, 1);
    let outcome = engine.matches(&segment, &PackedSeq::from_seq(&read.bases), 8);
    println!(
        "engine decision vs true segment at T=8: {} ({} cycles)",
        if outcome.matched { "match" } else { "no match" },
        outcome.cycles
    );

    // 4. The pipeline: reference stored once at stride 1, then any number
    //    of reads mapped through the simulated device.
    let pipeline = AsmcapPipeline::builder()
        .reference(genome.clone())
        .config(PipelineConfig {
            seed: 2,
            ..PipelineConfig::paper(8, profile)
        })
        .build()
        .expect("pipeline builds for this genome");
    let record = pipeline.map(&read.bases);
    println!(
        "pipeline mapping at T=8: status {}, {} candidate position(s), {:?} (true origin {}), {} search cycles",
        record.status,
        record.positions.len(),
        &record.positions[..record.positions.len().min(5)],
        read.origin,
        record.cycles
    );
    assert!(
        record.positions.contains(&read.origin),
        "the true origin must be recovered"
    );
    let stats = pipeline.stats();
    println!(
        "pipeline stats: {} read(s), {} cycles, {:.2} uJ, {:.1} ms wall",
        stats.reads,
        stats.cycles,
        stats.energy_j * 1e6,
        stats.wall_s * 1e3
    );
    println!("quickstart OK");
}
