//! The map-* workloads: in-process `map_batch_packed` in 256-read batches.

use crate::digest::{self, Digest};
use crate::inputs::{self, Inputs, Workload, BATCH};
use crate::layers::{ratio, Layers, Tally};
use crate::report::Outcome;
use crate::stats::{self, P50, P90, P99};
use crate::{common, trace};
use asmcap::{AsmcapPipeline, MapRecord, MapStatus};
use std::time::{Duration, Instant};

/// Fewest timed batches a run makes, so the batch p90 has at least ten
/// samples beyond it.
const MIN_TIMED_BATCHES: usize = 100;

/// Recall, precision and simulated cost over the first pass of the pool.
#[derive(Debug, Default, Clone, Copy)]
pub struct Quality {
    reads: u64,
    native: u64,
    recalled: u64,
    reported: u64,
    cycles: u64,
    energy_j: f64,
}

impl Quality {
    /// Folds one read: its true origin, reported positions and costs.
    pub fn absorb(
        &mut self,
        origin: Option<usize>,
        positions: &[usize],
        cycles: u64,
        energy_j: f64,
    ) {
        self.reads += 1;
        self.reported += positions.len() as u64;
        if let Some(origin) = origin {
            self.native += 1;
            if positions.contains(&origin) {
                self.recalled += 1;
            }
        }
        self.cycles += cycles;
        self.energy_j += energy_j;
    }

    /// Adds another tally's counts.
    pub fn merge(&mut self, other: &Quality) {
        self.reads += other.reads;
        self.native += other.native;
        self.recalled += other.recalled;
        self.reported += other.reported;
        self.cycles += other.cycles;
        self.energy_j += other.energy_j;
    }

    /// Puts recall, precision and the simulated costs.
    pub fn report(&self, outcome: &mut Outcome) {
        outcome.put("recall", ratio(self.recalled as f64, self.native as f64));
        outcome.put(
            "precision",
            ratio(self.recalled as f64, self.reported as f64),
        );
        outcome.put(
            "sim_cycles_per_read",
            ratio(self.cycles as f64, self.reads as f64),
        );
        outcome.put(
            "sim_energy_nj_per_read",
            ratio(self.energy_j * 1e9, self.reads as f64),
        );
    }
}

/// Digest of a batch's records in order.
fn batch_digest<'a>(records: impl Iterator<Item = &'a MapRecord>) -> u128 {
    let mut d = Digest::default();
    for r in records {
        let v = digest::record(r);
        d.word((v >> 64) as u64);
        d.word(v as u64);
    }
    d.finish()
}

/// What the untraced run leaves for the gate and the traced run.
struct Untraced {
    batches: usize,
    digests: Vec<u128>,
    /// Every batch call's duration, warm-up included.
    all_ns: Vec<u64>,
    /// Durations of the timed batches, in seconds.
    timed_s: Vec<f64>,
    measure_s: f64,
    slice_rates: Vec<f64>,
    /// Per-read round-trip percentiles of each closed slice, ms:
    /// `(p50, p99)`.
    slice_rtt: Vec<(f64, f64)>,
    /// Batches in the smallest closed slice.
    fewest_in_slice: usize,
    quality: Quality,
    attempted: u64,
    failed: u64,
    /// Host CPU counters when measuring started.
    ticks_at_start: Option<(u64, u64)>,
}

fn run_untraced(
    pipeline: &AsmcapPipeline,
    inputs: &Inputs,
    seconds: f64,
) -> Result<Untraced, String> {
    let per_pass = inputs.reads.len() / BATCH;
    let slice = Duration::from_secs_f64(seconds / common::SLICES as f64);
    let warm_until = Instant::now() + common::WARMUP;
    let mut run = Untraced {
        batches: 0,
        digests: Vec::new(),
        all_ns: Vec::new(),
        timed_s: Vec::new(),
        measure_s: 0.0,
        slice_rates: Vec::new(),
        slice_rtt: Vec::new(),
        fewest_in_slice: usize::MAX,
        quality: Quality::default(),
        attempted: 0,
        failed: 0,
        ticks_at_start: None,
    };
    let mut measuring: Option<Instant> = None;
    let mut slice_start = Instant::now();
    let mut in_slice_s: Vec<f64> = Vec::new();
    loop {
        let b = run.batches;
        // Batch b maps run read indices b*BATCH.., pool reads lo.. (the
        // pool size is a multiple of BATCH).
        let lo = (b * BATCH) % inputs.reads.len();
        let reads = &inputs.reads[lo..lo + BATCH];
        let start = Instant::now();
        let records = pipeline.map_batch_packed(reads);
        let elapsed = start.elapsed();
        let now = Instant::now();
        let first = (b * BATCH) as u64;
        if records.len() != BATCH || records.iter().zip(first..).any(|(r, i)| r.index != i) {
            return Err(format!(
                "batch {b}: records do not carry the expected read indices"
            ));
        }
        run.all_ns.push(elapsed.as_nanos() as u64);
        run.digests.push(batch_digest(records.iter()));
        run.attempted += BATCH as u64;
        run.failed += records
            .iter()
            .filter(|r| matches!(r.status, MapStatus::Rejected | MapStatus::Truncated))
            .count() as u64;
        if b < per_pass {
            for (r, origin) in records.iter().zip(&inputs.origins[lo..lo + BATCH]) {
                run.quality
                    .absorb(*origin, &r.positions, r.cycles, r.energy_j);
            }
        }
        run.batches += 1;
        match measuring {
            None => {
                if now >= warm_until {
                    run.ticks_at_start = common::cpu_ticks();
                    measuring = Some(now);
                    slice_start = now;
                }
            }
            Some(measure_start) => {
                run.timed_s.push(elapsed.as_secs_f64());
                in_slice_s.push(elapsed.as_secs_f64());
                let in_slice = now - slice_start;
                if in_slice >= slice {
                    run.fewest_in_slice = run.fewest_in_slice.min(in_slice_s.len());
                    let reads = (in_slice_s.len() * BATCH) as f64;
                    run.slice_rates.push(reads / in_slice.as_secs_f64());
                    // Each read's round trip is the batch call that
                    // carried it: every batch weighs its reads.
                    let durations = stats::sorted(std::mem::take(&mut in_slice_s));
                    let per_read = |p| stats::weighted_percentile(&durations, BATCH, p) * 1e3;
                    run.slice_rtt.push((per_read(P50), per_read(P99)));
                    slice_start = now;
                }
                let measured = now - measure_start;
                if measured.as_secs_f64() >= seconds
                    && run.timed_s.len() >= MIN_TIMED_BATCHES
                    && run.batches >= per_pass
                {
                    run.measure_s = measured.as_secs_f64();
                    return Ok(run);
                }
            }
        }
    }
}

/// A traced phase over the untraced run's first `batches` batches (same
/// reads, same indices), each checked against the untraced digest.
fn run_traced(
    layers: &Layers,
    inputs: &Inputs,
    untraced: &Untraced,
    batches: usize,
    workers: usize,
    keep_spans: usize,
) -> Result<(Tally, Vec<trace::Span>), String> {
    let ids: Vec<u64> = (0..(batches * BATCH) as u64).collect();
    layers.trace_phase(
        inputs,
        ids.chunks(BATCH),
        workers,
        keep_spans,
        |b, results| {
            if batch_digest(results.iter().map(|(r, _)| r)) == untraced.digests[b] {
                Ok(())
            } else {
                Err(format!(
                    "batch {b}: traced layers disagree with map_batch_packed (workers {workers})"
                ))
            }
        },
    )
}

/// Runs a map-* workload.
///
/// # Errors
///
/// A build failure or a correctness-gate violation.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<common::Run, String> {
    let inputs = inputs::generate(workload, seed);
    let config = inputs::pipeline_config(workload, seed);
    let workers = inputs::nproc();
    let (pipeline, setup_s) = common::timed_setups(|| {
        let start = Instant::now();
        let pipeline = common::build_pipeline(&inputs, &config, workers)?;
        Ok((pipeline, start.elapsed().as_secs_f64()))
    })?;

    // A traced run spends half its time on the untraced reference phase.
    let untraced = run_untraced(
        &pipeline,
        &inputs,
        if traced { seconds / 2.0 } else { seconds },
    )?;
    let steal = common::steal_note(untraced.ticks_at_start, common::cpu_ticks());
    let peak_rss_mb = common::peak_rss_mb()?;
    drop(pipeline);

    let mut outcome = Outcome {
        attempted: untraced.attempted,
        failed: untraced.failed,
        ..Outcome::default()
    };
    let per_pass = inputs.reads.len() / BATCH;
    let (layers, build) = common::timed_layer_builds(&inputs, &config, traced)?;
    let mut spans = Vec::new();
    if traced {
        let (full, kept) = run_traced(&layers, &inputs, &untraced, untraced.batches, workers, 32)?;
        let (single, _) = run_traced(&layers, &inputs, &untraced, untraced.batches, 1, 0)?;
        spans = kept;
        let untraced_ns: u64 = untraced.all_ns.iter().sum();
        let timed_ns: f64 = untraced.timed_s.iter().sum::<f64>() * 1e9;
        let batch_p50_us = stats::percentile(&stats::sorted(untraced.timed_s.clone()), P50) * 1e6;
        common::layer_metrics(&mut outcome, &full, &single, &full, &build, seed);
        outcome.put(
            "trace.overhead_share",
            ratio(full.wall_ns as f64, untraced_ns as f64) - 1.0,
        );
        // No coalescer or socket here: a read waits inside its batch call
        // for a worker to pick up its tile, and after its tile is done for
        // the rest of the batch.
        let waits = |pick: fn(&(u64, u64)) -> u64, p| {
            let us: Vec<f64> = full
                .tile_waits_ns
                .iter()
                .map(|w| pick(w) as f64 / 1e3)
                .collect();
            stats::percentile(&stats::sorted(us), p)
        };
        outcome.put("coalescer.queue_us_p50", waits(|w| w.0, P50));
        outcome.put("coalescer.queue_us_p99", waits(|w| w.0, P99));
        outcome.put("coalescer.batch_reads_mean", BATCH as f64);
        outcome.put(
            "coalescer.overload_share",
            stats::error_share(untraced.attempted, untraced.failed),
        );
        outcome.put(
            "server.pipeline_busy_share",
            ratio(timed_ns, untraced.measure_s * 1e9),
        );
        outcome.put("server.service_us_p50", batch_p50_us);
        outcome.put("socket.overhead_us_p50", waits(|w| w.1, P50));
        common::answer_scaling(&mut outcome, &full, &single, workers);
    } else {
        // The gate: the traced layers over the first pass must reproduce
        // the pipeline's records, and every alignment must replay.
        let _ = run_traced(&layers, &inputs, &untraced, per_pass, workers, 0)?;
        let timed = stats::sorted(untraced.timed_s.clone());
        let n = timed.len();
        let supported = stats::highest_supported(n, &[P50, P90, P99, stats::P999]);
        if supported.is_none_or(|p| p < P90) {
            return Err(format!("{n} batches cannot support a p90"));
        }
        let fewest_reads = untraced.fewest_in_slice * BATCH;
        if stats::samples_beyond(fewest_reads, P99) < stats::MIN_BEYOND {
            return Err(format!(
                "a slice of {fewest_reads} reads cannot support an rtt p99"
            ));
        }
        outcome.put("setup_s", setup_s);
        outcome.put("reads_per_s", stats::median(&untraced.slice_rates));
        outcome.put("batch_p50_ms", stats::percentile(&timed, P50) * 1e3);
        outcome.put("batch_p90_ms", stats::percentile(&timed, P90) * 1e3);
        let slice_rtt = |pick: fn(&(f64, f64)) -> f64| {
            stats::median(&untraced.slice_rtt.iter().map(pick).collect::<Vec<_>>())
        };
        outcome.put("rtt_p50_ms", slice_rtt(|s| s.0));
        outcome.put("rtt_p99_ms", slice_rtt(|s| s.1));
        untraced.quality.report(&mut outcome);
        outcome.put(
            "ok_share",
            1.0 - stats::error_share(untraced.attempted, untraced.failed),
        );
        outcome.put("peak_rss_mb", peak_rss_mb);
        outcome.note(common::slice_note(&untraced.slice_rates));
        outcome.note(steal);
        outcome.note(format!(
            "{n} timed batches of {BATCH} ({} with warm-up); batch p90 has {} beyond, \
             highest supported percentile p{}",
            untraced.batches,
            stats::samples_beyond(n, P90),
            f64::from(supported.unwrap_or(P50)) / 10.0
        ));
    }
    Ok(common::Run { outcome, spans })
}
