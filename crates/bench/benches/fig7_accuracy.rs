//! Fig. 7 kernel benchmarks: one pair decision for each engine, and a full
//! reduced sweep — the workload the accuracy figures are generated from.

use asmcap::engine::fig7_engines;
use asmcap::AsmMatcher;
use asmcap_bench::{packed, pair};
use asmcap_eval::{Condition, Fig7Config};
use asmcap_genome::ErrorProfile;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_pair_decisions(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig7_pair_decision");
    let (segment, read) = packed(pair(256, ErrorProfile::condition_a()));
    let (mut edam, mut without, mut with) = fig7_engines(ErrorProfile::condition_a(), 1);
    group.bench_function("edam", |bencher| {
        bencher.iter(|| edam.matches(black_box(&segment), black_box(&read), 4));
    });
    group.bench_function("asmcap_without", |bencher| {
        bencher.iter(|| without.matches(black_box(&segment), black_box(&read), 4));
    });
    group.bench_function("asmcap_with_hdac_tasr", |bencher| {
        bencher.iter(|| with.matches(black_box(&segment), black_box(&read), 4));
    });
    group.finish();
}

fn bench_reduced_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig7_sweep");
    group.sample_size(10);
    let config = Fig7Config {
        reads: 20,
        decoys: 4,
        read_len: 128,
        genome_len: 30_000,
        seed: 9,
    };
    group.bench_function("condition_a_reduced", |bencher| {
        bencher.iter(|| asmcap_eval::fig7::run(black_box(Condition::A), &config));
    });
    group.finish();
}

criterion_group!(benches, bench_pair_decisions, bench_reduced_sweep);
criterion_main!(benches);
