//! Architecture-layer benchmarks: in-array search across array sizes and
//! device-level search (the operation Fig. 8's throughput model counts).

use asmcap_arch::{CamArray, DeviceBuilder, MatchMode};
use asmcap_bench::genome;
use asmcap_circuit::rng;
use asmcap_genome::Base;
use asmcap_genome::PackedSeq;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

fn bench_array_search(c: &mut Criterion) {
    let mut group = c.benchmark_group("array_search");
    for (rows, width) in [(64usize, 64usize), (256, 256)] {
        let reference = genome(rows * width + width);
        let mut array = CamArray::asmcap(rows, width);
        for i in 0..rows {
            array
                .store_row(&reference.as_slice()[i * width..(i + 1) * width])
                .unwrap();
        }
        let read = PackedSeq::from_seq(&reference.window(32..32 + width));
        let mut r = rng(4);
        group.throughput(Throughput::Elements((rows * width) as u64));
        for mode in [MatchMode::EdStar, MatchMode::Hamming] {
            let name = if mode == MatchMode::EdStar {
                "ed_star"
            } else {
                "hamming"
            };
            group.bench_with_input(
                BenchmarkId::new(name, format!("{rows}x{width}")),
                &rows,
                |bencher, _| {
                    bencher.iter(|| array.search(black_box(&read), 8, mode, None, &mut r, None));
                },
            );
        }
    }
    group.finish();
}

/// Cost per sensed row of a full scan (throughput counts rows), in the
/// two regimes of the sense model, at the mapping workloads' shape
/// (1024 rows × 128 cells, T = 6, HD mode so counts are exact):
/// `far_from_threshold` scans an unrelated read, so every row sits tens
/// of states above `V_ref`, its decision is sure and its draw is seeked
/// past; `at_threshold` stores rows with 6 or 7 mismatches, so every row
/// is within noise of `V_ref` and pays for a Gaussian draw.
fn bench_sense_per_row(c: &mut Criterion) {
    let mut group = c.benchmark_group("sense_per_row");
    let (rows, width, threshold) = (1024usize, 128usize, 6usize);
    let reference = genome((rows + 1) * width);
    let read_bases = &reference.as_slice()[rows * width..];
    let read = PackedSeq::from_bases(read_bases);
    let mut far = CamArray::asmcap(rows, width);
    let mut near = CamArray::asmcap(rows, width);
    for i in 0..rows {
        far.store_row(&reference.as_slice()[i * width..(i + 1) * width])
            .unwrap();
        let mut edited: Vec<Base> = read_bases.to_vec();
        for k in 0..threshold + i % 2 {
            let col = (k * 37 + i) % width;
            edited[col] = edited[col].complement();
        }
        near.store_row(&edited).unwrap();
    }
    let mut r = rng(6);
    group.throughput(Throughput::Elements(rows as u64));
    for (name, array) in [("far_from_threshold", &far), ("at_threshold", &near)] {
        group.bench_function(
            BenchmarkId::new(name, format!("{rows}x{width}")),
            |bencher| {
                bencher.iter(|| {
                    array.search(
                        black_box(&read),
                        threshold,
                        MatchMode::Hamming,
                        None,
                        &mut r,
                        None,
                    )
                });
            },
        );
    }
    group.finish();
}

/// `AsmcapDevice::search` over N batches of one vs one batch of N (sized
/// so the packed row store — 16k × 256-base rows = 1 MiB — exceeds
/// cache). Nearly every row here is far from `V_ref`, so since sensing
/// skips the noise draw of sure decisions a row costs its ED\* pre-pass
/// plus a sure check: on a noisy 2-vCPU x86-64 VM one batch of 64 took
/// 28–47 ms (about 27–45 ns per sensed row), against 80–90 ms when every
/// row drew. The two shapes still land within about 10% of each other:
/// the row fetches the array-major drain amortizes are not yet what
/// dominates. Track both here so it shows when that balance tips.
fn bench_device_batch_search(c: &mut Criterion) {
    let mut group = c.benchmark_group("device_batch_search");
    group.sample_size(10);
    let width = 256usize;
    let arrays = 64usize;
    let reference = genome(arrays * 256 + width - 1);
    let mut device = DeviceBuilder::new()
        .arrays(arrays)
        .rows_per_array(256)
        .row_width(width)
        .build_asmcap();
    device.store_reference(&reference, 1).unwrap();
    let batch = 64usize;
    let reads: Vec<PackedSeq> = (0..batch)
        .map(|i| PackedSeq::from_seq(&reference.window(i * 17..i * 17 + width)))
        .collect();
    group.throughput(Throughput::Elements((device.stored_rows() * batch) as u64));
    group.bench_function("64_batches_of_one", |bencher| {
        bencher.iter(|| {
            let mut rngs: Vec<_> = (0..batch as u64).map(rng).collect();
            reads
                .chunks(1)
                .zip(rngs.chunks_mut(1))
                .flat_map(|(read, r)| {
                    device.search(black_box(read), 8, MatchMode::EdStar, &[None], r, None)
                })
                .map(|result| result.matches.len())
                .sum::<usize>()
        });
    });
    group.bench_function("one_batch_of_64", |bencher| {
        bencher.iter(|| {
            let mut rngs: Vec<_> = (0..batch as u64).map(rng).collect();
            device
                .search(
                    black_box(&reads),
                    8,
                    MatchMode::EdStar,
                    &vec![None; batch],
                    &mut rngs,
                    None,
                )
                .iter()
                .map(|result| result.matches.len())
                .sum::<usize>()
        });
    });
    group.finish();
}

/// One device search: a full scan of 16 stride-1 arrays, and a
/// shortlisted batch at the mapping workloads' shape (32 arrays × 256
/// rows of 128 cells, stride 8, T = 6) where four reads list 3–6 rows
/// each, spread over several arrays. Throughput counts sensed rows, so the
/// shortlisted case shows what a search costs beyond the rows it senses.
fn bench_device_search(c: &mut Criterion) {
    let mut group = c.benchmark_group("device_search");
    group.sample_size(10);
    let width = 256usize;
    let arrays = 16usize;
    // 16 arrays x 256 rows hold exactly 4096 stride-1 windows.
    let reference = genome(arrays * 256 + width - 1);
    let mut device = DeviceBuilder::new()
        .arrays(arrays)
        .rows_per_array(256)
        .row_width(width)
        .build_asmcap();
    device.store_reference(&reference, 1).unwrap();
    let read = [PackedSeq::from_seq(&reference.window(1000..1000 + width))];
    let (mut r, full) = ([rng(5)], [None]);
    group.throughput(Throughput::Elements(device.stored_rows() as u64));
    group.bench_function("asmcap_16_arrays_stride1", |bencher| {
        bencher.iter(|| device.search(black_box(&read), 8, MatchMode::EdStar, &full, &mut r, None));
    });

    let (width, stride, arrays) = (128usize, 8usize, 32usize);
    let reference = genome((arrays * 256 - 1) * stride + width);
    let mut device = DeviceBuilder::new()
        .arrays(arrays)
        .rows_per_array(256)
        .row_width(width)
        .build_asmcap();
    device.store_reference(&reference, stride).unwrap();
    let rows: Vec<Option<Vec<usize>>> = vec![
        Some(vec![300, 301, 4_000]),
        Some(vec![10, 1_500, 1_501, 7_900]),
        Some(vec![255, 256, 3_100, 5_000, 8_191]),
        Some(vec![700, 701, 702, 2_600, 4_444, 6_000]),
    ];
    let reads: Vec<PackedSeq> = rows
        .iter()
        .flatten()
        .map(|list| {
            let origin = list[1] * stride;
            PackedSeq::from_seq(&reference.window(origin..origin + width))
        })
        .collect();
    let sensed: usize = rows.iter().flatten().map(Vec::len).sum();
    group.throughput(Throughput::Elements(sensed as u64));
    group.bench_function("asmcap_32_arrays_shortlisted", |bencher| {
        bencher.iter(|| {
            let mut rngs: Vec<_> = (0..reads.len() as u64).map(rng).collect();
            device.search(
                black_box(&reads),
                6,
                MatchMode::EdStar,
                black_box(&rows),
                &mut rngs,
                None,
            )
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_array_search,
    bench_sense_per_row,
    bench_device_batch_search,
    bench_device_search
);
criterion_main!(benches);
