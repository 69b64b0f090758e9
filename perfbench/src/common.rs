//! Pieces every workload shares: set-up timing, memory, the traced-layer
//! metrics, and the kernel probe.

use crate::inputs::{Inputs, ROW_WIDTH};
use crate::layers::{ratio, BuildTimes, Layers, Tally};
use crate::report::Outcome;
use crate::stats;
use crate::trace::Span;
use asmcap::{AsmcapPipeline, BackendKind, PipelineConfig};
use asmcap_genome::{GenomeModel, PackedSeq};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Throughput is the median over this many equal slices of the measured
/// interval.
pub const SLICES: usize = 10;
/// Untimed work before measuring starts.
pub const WARMUP: Duration = Duration::from_millis(500);
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 15;

/// One workload run's result and the spans kept for the span file.
pub struct Run {
    /// Metrics and findings.
    pub outcome: Outcome,
    /// A sample of the traced run's spans (empty when untraced).
    pub spans: Vec<Span>,
}

/// Runs `build` [`SETUP_REPS`] times, dropping each result before the next
/// build, and returns the last result with the median build time.
///
/// # Errors
///
/// The first build error.
pub fn timed_setups<T>(
    mut build: impl FnMut() -> Result<(T, f64), String>,
) -> Result<(T, f64), String> {
    let mut last = None;
    let mut times = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let (value, seconds) = build()?;
        times.push(seconds);
        last = Some(value);
    }
    let value = last.expect("at least one set-up");
    Ok((value, stats::median(&times)))
}

/// The pipeline under test: the workload's configuration on the device
/// backend at `workers`.
///
/// # Errors
///
/// A configuration the builder refuses.
pub fn build_pipeline(
    inputs: &Inputs,
    config: &PipelineConfig,
    workers: usize,
) -> Result<AsmcapPipeline, String> {
    AsmcapPipeline::builder()
        .reference(inputs.reference.clone())
        .config(config.clone())
        .backend(BackendKind::Device)
        .workers(workers)
        .build()
        .map_err(|e| format!("pipeline build: {e}"))
}

/// Builds the traced layers; when `reps` is set, builds them
/// [`SETUP_REPS`] times and reports the median build times.
///
/// # Errors
///
/// A build failure.
pub fn timed_layer_builds(
    inputs: &Inputs,
    config: &PipelineConfig,
    reps: bool,
) -> Result<(Layers, BuildTimes), String> {
    let n = if reps { SETUP_REPS } else { 1 };
    let mut store = Vec::with_capacity(n);
    let mut index = Vec::with_capacity(n);
    let mut last = None;
    for _ in 0..n {
        drop(last.take());
        let (layers, times) = Layers::build(&inputs.reference, config)?;
        store.push(times.device_store_s);
        index.push(times.prefilter_build_s);
        last = Some(layers);
    }
    Ok((
        last.expect("at least one build"),
        BuildTimes {
            device_store_s: stats::median(&store),
            prefilter_build_s: stats::median(&index),
        },
    ))
}

/// A finding listing each slice's throughput, so drift inside a run shows.
#[must_use]
pub fn slice_note(rates: &[f64]) -> String {
    let listed: Vec<String> = rates.iter().map(|r| format!("{r:.0}")).collect();
    format!("reads/s per slice: {}", listed.join(" "))
}

/// Host CPU counters `(steal, total)` in clock ticks from `/proc/stat`:
/// time the hypervisor gave this machine's CPUs to someone else.
#[must_use]
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// A finding on how much CPU the host stole between two [`cpu_ticks`]
/// readings: the first suspect when a run is slower than its neighbours.
#[must_use]
pub fn steal_note(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> String {
    match (before, after) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => format!(
            "host steal during the measured phase: {:.1}% of CPU time",
            100.0 * (s1 - s0) as f64 / (t1 - t0) as f64
        ),
        _ => "host steal during the measured phase: unknown".to_string(),
    }
}

/// Peak resident memory of this process so far (VmHWM), in MB.
///
/// # Errors
///
/// When `/proc/self/status` is unreadable.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Nanoseconds per `ed_star_packed` call on one-row operands: the median
/// of several timed sweeps over 1024 stored rows.
#[must_use]
pub fn ed_star_ns(seed: u64) -> f64 {
    let genome = GenomeModel::uniform().generate(1024 + ROW_WIDTH, seed);
    let rows: Vec<PackedSeq> = (0..1024)
        .map(|i| PackedSeq::from_seq(&genome.window(i..i + ROW_WIDTH)))
        .collect();
    let read = PackedSeq::from_seq(&genome.window(512..512 + ROW_WIDTH));
    let sweeps = 64;
    let samples: Vec<f64> = (0..9)
        .map(|_| {
            let start = Instant::now();
            let mut acc = 0usize;
            for _ in 0..sweeps {
                for row in &rows {
                    acc += asmcap_metrics::ed_star_packed(black_box(row), black_box(&read));
                }
            }
            black_box(acc);
            start.elapsed().as_nanos() as f64 / (sweeps * rows.len()) as f64
        })
        .collect();
    stats::median(&samples)
}

/// The per-layer metrics both traced phases give: `full` at `workers`,
/// `single` at one worker. The extension figures come from `extension`
/// (the full phase itself wherever the extension stage runs).
pub fn layer_metrics(
    outcome: &mut Outcome,
    full: &Tally,
    single: &Tally,
    extension: &Tally,
    build: &BuildTimes,
    seed: u64,
) {
    let reads = full.reads as f64;
    let capacity = full.capacity_ns as f64;
    let shortlisted = (full.reads - full.full_scans) as f64;
    outcome.put("prefilter.us_per_read", full.shortlist_us_per_read());
    outcome.put("prefilter.us_per_read_w1", single.shortlist_us_per_read());
    outcome.put(
        "prefilter.contention_x",
        ratio(full.shortlist_us_per_read(), single.shortlist_us_per_read()),
    );
    outcome.put("prefilter.build_s", build.prefilter_build_s);
    outcome.put(
        "prefilter.shortlist_len_mean",
        ratio(full.shortlist_len_sum as f64, shortlisted),
    );
    outcome.put(
        "prefilter.fallback_share",
        ratio(full.full_scans as f64, reads),
    );
    outcome.put(
        "prefilter.hit_share",
        ratio(full.origin_listed as f64, full.native as f64),
    );
    outcome.put(
        "prefilter.self_share",
        ratio(full.shortlist_ns as f64, capacity),
    );
    outcome.put(
        "backend.us_per_read",
        ratio(full.backend_ns as f64 / 1e3, reads),
    );
    outcome.put(
        "backend.ns_per_row_sensed",
        ratio(full.backend_ns as f64, full.rows_sensed as f64),
    );
    outcome.put(
        "backend.rows_sensed_per_read",
        ratio(full.rows_sensed as f64, reads),
    );
    outcome.put(
        "backend.searches_per_read",
        ratio(full.searches as f64, reads),
    );
    outcome.put(
        "backend.self_share",
        ratio(full.backend_ns as f64, capacity),
    );
    outcome.put("device.store_s", build.device_store_s);
    let ext_reads = extension.reads as f64;
    outcome.put(
        "extension.us_per_read",
        ratio(extension.extension_ns as f64 / 1e3, ext_reads),
    );
    outcome.put(
        "extension.us_per_call",
        ratio(
            extension.align_ns as f64 / 1e3,
            extension.align_calls as f64,
        ),
    );
    outcome.put(
        "extension.calls_per_read",
        ratio(extension.align_calls as f64, ext_reads),
    );
    outcome.put(
        "extension.aligned_share",
        ratio(extension.aligned_calls as f64, extension.align_calls as f64),
    );
    outcome.put(
        "extension.self_share",
        ratio(full.extension_ns as f64, capacity),
    );
    outcome.put("kernels.ed_star_ns", ed_star_ns(seed));
    outcome.put(
        "executor.worker_scaling",
        ratio(full.reads_per_s(), single.reads_per_s()),
    );
    outcome.put(
        "executor.overhead_share",
        ratio(
            full.capacity_ns.saturating_sub(full.tile_ns) as f64,
            capacity,
        ),
    );
    outcome.put(
        "executor.self_us_per_batch",
        ratio(full.executor_self_ns as f64 / 1e3, full.batches as f64),
    );
    outcome.put("pipeline.glue_share", ratio(full.glue_ns as f64, capacity));
}

/// The findings the traced run exists to answer: does per-thread shortlist
/// time rise with workers, and where does worker time go.
pub fn answer_scaling(outcome: &mut Outcome, full: &Tally, single: &Tally, workers: usize) {
    let capacity = full.capacity_ns as f64;
    let share = |ns: u64| 100.0 * ratio(ns as f64, capacity);
    outcome.note(format!(
        "shortlist: {:.2} us/read at {workers} workers vs {:.2} us/read at 1 worker \
         ({:.2}x per thread); traced throughput {:.0} vs {:.0} reads/s ({:.2}x scaling)",
        full.shortlist_us_per_read(),
        single.shortlist_us_per_read(),
        ratio(full.shortlist_us_per_read(), single.shortlist_us_per_read()),
        full.reads_per_s(),
        single.reads_per_s(),
        ratio(full.reads_per_s(), single.reads_per_s()),
    ));
    outcome.note(format!(
        "worker time at {workers} workers: prefilter {:.1}% + backend {:.1}% + extension {:.1}% \
         + tile glue {:.1}% + executor overhead {:.1}% = 100%",
        share(full.shortlist_ns),
        share(full.backend_ns),
        share(full.extension_ns),
        share(full.glue_ns),
        share(full.capacity_ns.saturating_sub(full.tile_ns)),
    ));
}
