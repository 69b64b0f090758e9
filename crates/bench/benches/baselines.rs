//! Baseline-system benchmarks (backs Fig. 8's functional side): ReSMA's
//! filter + wavefront, SaVI's seed-and-vote, Kraken2-style classification,
//! and the CM-CPU banded DP.

use asmcap::AsmMatcher;
use asmcap_baselines::{
    CmCpuAligner, KrakenClassifier, KrakenMode, ResmaAccelerator, SaviAccelerator,
};
use asmcap_bench::{decoy_pair, packed, pair};
use asmcap_genome::ErrorProfile;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_resma(c: &mut Criterion) {
    let mut group = c.benchmark_group("resma");
    let (segment, read) = packed(pair(256, ErrorProfile::condition_a()));
    let (decoy_a, decoy_b) = packed(decoy_pair(256));
    let mut resma = ResmaAccelerator::paper();
    group.bench_function("aligned_pair_t8", |bencher| {
        bencher.iter(|| resma.matches(black_box(&segment), &read, 8));
    });
    group.bench_function("decoy_filtered_out", |bencher| {
        bencher.iter(|| resma.matches(black_box(&decoy_a), &decoy_b, 8));
    });
    group.finish();
}

fn bench_savi(c: &mut Criterion) {
    let mut group = c.benchmark_group("savi");
    let (segment, read) = packed(pair(256, ErrorProfile::condition_a()));
    let mut savi = SaviAccelerator::paper();
    group.bench_function("seed_and_vote_t8", |bencher| {
        bencher.iter(|| savi.matches(black_box(&segment), &read, 8));
    });
    group.finish();
}

fn bench_kraken(c: &mut Criterion) {
    let mut group = c.benchmark_group("kraken");
    let (segment, read) = packed(pair(256, ErrorProfile::condition_a()));
    let mut exact = KrakenClassifier::new(KrakenMode::Exact);
    let mut kmer = KrakenClassifier::new(KrakenMode::kraken2_defaults());
    group.bench_function("exact", |bencher| {
        bencher.iter(|| exact.matches(black_box(&segment), &read, 0));
    });
    group.bench_function("kmer35", |bencher| {
        bencher.iter(|| kmer.matches(black_box(&segment), &read, 0));
    });
    group.finish();
}

fn bench_cm_cpu(c: &mut Criterion) {
    let mut group = c.benchmark_group("cm_cpu");
    let (segment, read) = packed(pair(256, ErrorProfile::condition_b()));
    let mut cpu = CmCpuAligner::new();
    group.bench_function("banded_t8", |bencher| {
        bencher.iter(|| cpu.matches(black_box(&segment), &read, 8));
    });
    group.finish();
}

criterion_group!(benches, bench_resma, bench_savi, bench_kraken, bench_cm_cpu);
criterion_main!(benches);
