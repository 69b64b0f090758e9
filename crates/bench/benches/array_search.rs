//! Architecture-layer benchmarks: in-array search across array sizes and
//! device-level search (the operation Fig. 8's throughput model counts).

use asmcap_arch::{CamArray, DeviceBuilder, MatchMode};
use asmcap_bench::genome;
use asmcap_circuit::rng;
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

/// `AsmcapDevice::search` over N batches of one vs one batch of N (sized
/// so the packed row store — 16k × 256-base rows = 1 MiB — exceeds
/// cache). Honest result on current hosts: the two are within a few
/// percent of each other, because the software sense-amplifier model (an
/// RNG draw per sensed row) dominates the row fetches the array-major
/// batch drain amortizes; the batch's value is the pipelined-global-buffer
/// modeling and the single-call surface with per-read RNG isolation. Track
/// both here so a future sense-model speedup shows when the balance tips.
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
                    device.search(black_box(read), 8, MatchMode::EdStar, None, r, None)
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
                    None,
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
    let mut r = [rng(5)];
    group.throughput(Throughput::Elements(device.stored_rows() as u64));
    group.bench_function("asmcap_16_arrays_stride1", |bencher| {
        bencher.iter(|| device.search(black_box(&read), 8, MatchMode::EdStar, None, &mut r, None));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_array_search,
    bench_device_batch_search,
    bench_device_search
);
criterion_main!(benches);
