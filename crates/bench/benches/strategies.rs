//! Strategy-overhead benchmarks (§IV overhead analyses): the cost of HDAC's
//! extra HD search and TASR's rotated searches, at the decision level.

use asmcap::{AsmMatcher, AsmcapConfig, HdacParams, TasrParams};
use asmcap_bench::{decoy_pair, packed, pair};
use asmcap_genome::ErrorProfile;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_hdac_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("hdac_overhead");
    let profile = ErrorProfile::condition_a();
    let (segment, read) = packed(pair(256, profile));
    let mut plain = AsmcapConfig::new(profile)
        .hdac(None)
        .tasr(None)
        .seed(1)
        .build();
    let mut hdac = AsmcapConfig::new(profile)
        .hdac(Some(HdacParams::paper()))
        .tasr(None)
        .seed(2)
        .build();
    // T=1: HDAC armed.
    group.bench_function("without", |bencher| {
        bencher.iter(|| plain.matches(black_box(&segment), &read, 1));
    });
    group.bench_function("with_hd_search", |bencher| {
        bencher.iter(|| hdac.matches(black_box(&segment), &read, 1));
    });
    group.finish();
}

fn bench_tasr_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("tasr_overhead");
    let profile = ErrorProfile::condition_b();
    // Decoy pair: the base search misses, so TASR issues all rotations —
    // the worst case for the rotation loop.
    let (segment, read) = packed(decoy_pair(256));
    let mut plain = AsmcapConfig::new(profile)
        .hdac(None)
        .tasr(None)
        .seed(3)
        .build();
    let mut tasr2 = AsmcapConfig::new(profile)
        .hdac(None)
        .tasr(Some(TasrParams::paper()))
        .seed(4)
        .build();
    let mut tasr4 = AsmcapConfig::new(profile)
        .hdac(None)
        .tasr(Some(TasrParams {
            rotations: 4,
            ..TasrParams::paper()
        }))
        .seed(5)
        .build();
    group.bench_function("without", |bencher| {
        bencher.iter(|| plain.matches(black_box(&segment), &read, 8));
    });
    group.bench_function("nr2", |bencher| {
        bencher.iter(|| tasr2.matches(black_box(&segment), &read, 8));
    });
    group.bench_function("nr4", |bencher| {
        bencher.iter(|| tasr4.matches(black_box(&segment), &read, 8));
    });
    group.finish();
}

criterion_group!(benches, bench_hdac_overhead, bench_tasr_overhead);
criterion_main!(benches);
