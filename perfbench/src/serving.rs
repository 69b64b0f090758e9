//! The serve-loopback workload: an in-process `Server` and closed-loop
//! `MapClient` connections, one thread each, every connection keeping a
//! window of requests in flight.

use crate::digest;
use crate::inputs::{self, Inputs, Workload, BATCH, WINDOW};
use crate::layers::{ratio, Layers, Tally};
use crate::mapping::Quality;
use crate::report::Outcome;
use crate::stats::{self, P50, P90, P99};
use crate::{common, trace};
use asmcap_serve::{MapClient, Request, Response, Server, ServerConfig, ServerCounters};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// How long a client waits for a reply before it counts the connection
/// as lost.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// Replies per second per connection the sample buffer is sized for. The
/// buffer is allocated and written before the run, so the process's peak
/// memory does not grow with throughput below this rate.
const SAMPLE_RATE_CAP: f64 = 60_000.0;

/// When a client stops sending.
#[derive(Clone, Copy)]
enum Stop<'a> {
    /// After the measured interval ends, once at least `min` requests
    /// went out (the first pass of the pool).
    Timed { end: Instant, min: u64 },
    /// After exactly `quotas[c]` requests on connection `c`.
    Quotas(&'a [u64]),
}

/// One client connection's tallies.
#[derive(Default)]
struct ClientRun {
    sent: u64,
    replies: u64,
    failed: u64,
    /// Request ids that got no map reply.
    unanswered: Vec<u64>,
    /// Wrapping sum of reply digests (order-free).
    digest_sum: u128,
    /// Sampled replies: those inside the measured interval, or all of
    /// them when the phase has no interval.
    samples: Vec<Sample>,
    /// Replies completed in each slice of the measured interval.
    slices: Vec<u64>,
    quality: Quality,
    first_send: Option<Instant>,
    last_reply: Option<Instant>,
}

/// One reply's round trip and the server's account of it.
#[derive(Clone, Copy, Default)]
struct Sample {
    /// Slice of the measured interval the reply completed in.
    slot: u8,
    rtt_ns: u32,
    queue_us: u32,
    service_us: u32,
}

struct Plan<'a> {
    inputs: &'a Inputs,
    clients: usize,
    stop: Stop<'a>,
    /// Start and length of the measured interval; `None` samples every
    /// reply and keeps no throughput slices.
    window: Option<(Instant, f64)>,
    /// Record a request span around every request.
    traced: bool,
    /// Samples each connection's buffer holds before it must grow.
    sample_cap: usize,
}

fn client(addr: SocketAddr, c: usize, plan: &Plan<'_>) -> ClientRun {
    let mut run = ClientRun {
        slices: vec![0; common::SLICES],
        samples: presized(plan.sample_cap),
        ..ClientRun::default()
    };
    let pool = plan.inputs.reads.len() as u64;
    let Ok(mut conn) = MapClient::connect(addr) else {
        run.failed += 1;
        return run;
    };
    let _ = conn.set_read_timeout(Some(REPLY_TIMEOUT));
    let mut inflight: HashMap<u64, (Instant, Option<trace::Open>)> =
        HashMap::with_capacity(WINDOW * 2);
    let id_of = |k: u64| c as u64 + k * plan.clients as u64;
    let may_send = |sent: u64, now: Instant| match plan.stop {
        Stop::Timed { end, min } => now < end || sent < min,
        Stop::Quotas(quotas) => sent < quotas[c],
    };
    let send = |conn: &mut MapClient,
                run: &mut ClientRun,
                inflight: &mut HashMap<u64, (Instant, Option<trace::Open>)>| {
        let req_id = id_of(run.sent);
        let bases = plan.inputs.ascii[(req_id % pool) as usize].clone();
        run.sent += 1;
        let span = plan
            .traced
            .then(|| trace::open(trace::Layer::Request, 0, req_id));
        let now = Instant::now();
        run.first_send.get_or_insert(now);
        if conn.send(&Request::Map { req_id, bases }).is_ok() {
            inflight.insert(req_id, (now, span));
            true
        } else {
            run.failed += 1;
            run.unanswered.push(req_id);
            false
        }
    };
    for _ in 0..WINDOW {
        if !may_send(run.sent, Instant::now()) || !send(&mut conn, &mut run, &mut inflight) {
            break;
        }
    }
    while !inflight.is_empty() {
        let response = conn.recv();
        let now = Instant::now();
        match response {
            Ok(Response::Map(reply)) => {
                let Some((sent_at, span)) = inflight.remove(&reply.req_id) else {
                    run.failed += 1;
                    break;
                };
                if let Some(span) = span {
                    trace::close(span);
                }
                run.replies += 1;
                run.last_reply = Some(now);
                run.digest_sum = run.digest_sum.wrapping_add(digest::reply(&reply));
                if reply.req_id < pool {
                    let positions: Vec<usize> =
                        reply.positions.iter().map(|&p| p as usize).collect();
                    run.quality.absorb(
                        plan.inputs.origins[reply.req_id as usize],
                        &positions,
                        reply.cycles,
                        reply.energy_j,
                    );
                }
                let mut sample = Sample {
                    slot: 0,
                    rtt_ns: u32::try_from((now - sent_at).as_nanos()).unwrap_or(u32::MAX),
                    queue_us: reply.queue_us,
                    service_us: reply.service_us,
                };
                match plan.window {
                    None => run.samples.push(sample),
                    Some((start, seconds)) => {
                        let offset = now.saturating_duration_since(start).as_secs_f64();
                        if now >= start && offset < seconds {
                            let slot = ((offset * common::SLICES as f64 / seconds) as usize)
                                .min(common::SLICES - 1);
                            run.slices[slot] += 1;
                            sample.slot = slot as u8;
                            run.samples.push(sample);
                        }
                    }
                }
            }
            Ok(Response::Overload { req_id, .. }) => {
                inflight.remove(&req_id);
                run.failed += 1;
                run.unanswered.push(req_id);
            }
            Ok(_) | Err(_) => break,
        }
        if may_send(run.sent, now) && !send(&mut conn, &mut run, &mut inflight) {
            break;
        }
    }
    // Whatever is still in flight never got an answer.
    run.failed += inflight.len() as u64;
    run.unanswered.extend(inflight.into_keys());
    run
}

/// An empty sample buffer whose pages are already resident.
fn presized(cap: usize) -> Vec<Sample> {
    let touched = Sample {
        slot: u8::MAX,
        ..Sample::default()
    };
    let mut buffer = vec![touched; cap];
    buffer.clear();
    buffer
}

/// All clients of one phase, merged.
struct Phase {
    runs: Vec<ClientRun>,
    wall_s: f64,
    counters_before: ServerCounters,
    counters_after: ServerCounters,
    busy_s: f64,
}

impl Phase {
    fn sent(&self) -> u64 {
        self.runs.iter().map(|r| r.sent).sum()
    }

    fn failed(&self) -> u64 {
        self.runs.iter().map(|r| r.failed).sum()
    }

    fn digest_sum(&self) -> u128 {
        self.runs
            .iter()
            .fold(0u128, |acc, r| acc.wrapping_add(r.digest_sum))
    }
}

fn run_phase(server: &Server, plan: &Plan<'_>) -> Phase {
    let counters_before = server.counters();
    let busy_before = server.pipeline_stats().wall_s;
    let addr = server.local_addr();
    let runs: Vec<ClientRun> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..plan.clients)
            .map(|c| scope.spawn(move || client(addr, c, plan)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let first = runs.iter().filter_map(|r| r.first_send).min();
    let last = runs.iter().filter_map(|r| r.last_reply).max();
    let wall_s = match (first, last) {
        (Some(a), Some(b)) => (b - a).as_secs_f64(),
        _ => 0.0,
    };
    Phase {
        wall_s,
        counters_after: server.counters(),
        counters_before,
        busy_s: server.pipeline_stats().wall_s - busy_before,
        runs,
    }
}

/// The ids every phase sent that got a map reply, ascending.
fn answered_ids(phase: &Phase, clients: usize) -> Vec<u64> {
    let failed: std::collections::BTreeSet<u64> = phase
        .runs
        .iter()
        .flat_map(|r| r.unanswered.iter().copied())
        .collect();
    let mut ids: Vec<u64> = phase
        .runs
        .iter()
        .enumerate()
        .flat_map(|(c, r)| (0..r.sent).map(move |k| c as u64 + k * clients as u64))
        .filter(|id| !failed.contains(id))
        .collect();
    ids.sort_unstable();
    ids
}

/// Runs the serve-loopback workload.
///
/// # Errors
///
/// A build or bind failure, or a correctness-gate violation.
pub fn run(seed: u64, seconds: f64, traced: bool) -> Result<common::Run, String> {
    let workload = Workload::ServeLoopback;
    let inputs = inputs::generate(workload, seed);
    let config = inputs::pipeline_config(workload, seed);
    let workers = inputs::nproc();
    let clients = workers.min(2);
    let (server, setup_s) = common::timed_setups(|| {
        let start = Instant::now();
        let pipeline = common::build_pipeline(&inputs, &config, workers)?;
        let server = Server::spawn(pipeline, ServerConfig::default())
            .map_err(|e| format!("server spawn: {e}"))?;
        Ok((server, start.elapsed().as_secs_f64()))
    })?;

    let pool = inputs.reads.len() as u64;
    // A traced run spends half its time on the untraced reference phase.
    let seconds = if traced { seconds / 2.0 } else { seconds };
    let measure_start = Instant::now() + common::WARMUP;
    let plan = Plan {
        inputs: &inputs,
        clients,
        stop: Stop::Timed {
            end: measure_start + Duration::from_secs_f64(seconds),
            min: pool.div_ceil(clients as u64),
        },
        window: Some((measure_start, seconds)),
        traced: false,
        sample_cap: (SAMPLE_RATE_CAP * seconds) as usize,
    };
    let ticks = common::cpu_ticks();
    let untraced = run_phase(&server, &plan);
    let steal = common::steal_note(ticks, common::cpu_ticks());
    let peak_rss_mb = common::peak_rss_mb()?;
    // The traced phase resends exactly the untraced phase's requests, so
    // both phases do the same work and their walls compare.
    let traced_phase = traced.then(|| {
        let _ = trace::drain();
        let quotas: Vec<u64> = untraced.runs.iter().map(|r| r.sent).collect();
        let plan = Plan {
            stop: Stop::Quotas(&quotas),
            window: None,
            traced: true,
            ..plan
        };
        let phase = run_phase(&server, &plan);
        (phase, trace::drain())
    });
    server.shutdown();

    // The gate: every reply must equal what a twin pipeline maps for the
    // same request id, and the traced layers must reproduce the twin's
    // records.
    let ids = answered_ids(&untraced, clients);
    let twin = common::build_pipeline(&inputs, &config, workers)?;
    let (mut reply_sum, mut record_sum, mut first_pass_sum) = (0u128, 0u128, 0u128);
    for chunk in ids.chunks(BATCH) {
        for record in twin.map_batch_packed_indexed(&inputs.pick(chunk).0, chunk) {
            reply_sum = reply_sum.wrapping_add(digest::record_as_reply(&record));
            let full = digest::record(&record);
            record_sum = record_sum.wrapping_add(full);
            if record.index < pool {
                first_pass_sum = first_pass_sum.wrapping_add(full);
            }
        }
    }
    drop(twin);
    if reply_sum != untraced.digest_sum() {
        return Err("serve replies differ from map_batch_packed_indexed on a twin pipeline".into());
    }

    let mut outcome = Outcome {
        attempted: untraced.sent(),
        failed: untraced.failed(),
        ..Outcome::default()
    };
    let (layers, build_times) = common::timed_layer_builds(&inputs, &config, traced)?;
    let mut spans = Vec::new();
    if let Some((phase, request_spans)) = traced_phase {
        if answered_ids(&phase, clients) != ids || phase.digest_sum() != reply_sum {
            return Err("traced serve replies differ from the untraced run".into());
        }
        let (batches, batched, refused) = counter_delta(&phase);
        let mean_batch = ratio(batched as f64, batches as f64);
        let batch = (mean_batch.round() as usize).clamp(1, BATCH);
        let (full, kept) = traced_layers(&layers, &inputs, &ids, batch, workers, record_sum, 32)?;
        let (single, _) = traced_layers(&layers, &inputs, &ids, batch, 1, record_sum, 0)?;
        spans = kept;
        spans.extend(request_spans.into_iter().take(4096));
        let probe = extension_probe(&inputs, &config, &ids, pool, workers)?;
        common::layer_metrics(&mut outcome, &full, &single, &probe, &build_times, seed);
        // Serving is traced by the request spans and the replies'
        // queue/service fields: its tracing overhead is the traced serve
        // phase against the untraced one.
        outcome.put(
            "trace.overhead_share",
            ratio(phase.wall_s, untraced.wall_s) - 1.0,
        );
        let samples: Vec<Sample> = phase
            .runs
            .iter()
            .flat_map(|r| r.samples.iter().copied())
            .collect();
        let pct = |value: fn(&Sample) -> f64, p: u32| {
            stats::percentile(&stats::sorted(samples.iter().map(value).collect()), p)
        };
        let rtt_us = |s: &Sample| f64::from(s.rtt_ns) / 1e3;
        let queue_us = |s: &Sample| f64::from(s.queue_us);
        let service_us = |s: &Sample| f64::from(s.service_us);
        let socket_us = |s: &Sample| {
            f64::from(s.rtt_ns) / 1e3 - f64::from(s.queue_us) - f64::from(s.service_us)
        };
        let (r50, q50, s50, k50) = (
            pct(rtt_us, P50),
            pct(queue_us, P50),
            pct(service_us, P50),
            pct(socket_us, P50),
        );
        outcome.put("coalescer.queue_us_p50", q50);
        outcome.put("coalescer.queue_us_p99", pct(queue_us, P99));
        outcome.put("coalescer.batch_reads_mean", mean_batch);
        outcome.put(
            "coalescer.overload_share",
            stats::error_share(phase.sent(), refused),
        );
        outcome.put(
            "server.pipeline_busy_share",
            ratio(phase.busy_s, phase.wall_s),
        );
        outcome.put("server.service_us_p50", s50);
        outcome.put("socket.overhead_us_p50", k50);
        common::answer_scaling(&mut outcome, &full, &single, workers);
        outcome.note(format!(
            "serving round trip p50 {r50:.0} us = queue p50 {q50:.0} us + service p50 {s50:.0} us \
             + socket/protocol p50 {k50:.0} us (medians of each part, so they need not sum); \
             coalesced batches average {mean_batch:.1} reads; the pipeline was busy {:.0}% of the phase",
            100.0 * ratio(phase.busy_s, phase.wall_s)
        ));
    } else {
        // Second half of the gate on untraced runs: the traced layers over
        // the first pass of the pool reproduce the twin's records.
        let first: Vec<u64> = ids.iter().copied().filter(|&id| id < pool).collect();
        let _ = traced_layers(&layers, &inputs, &first, BATCH, workers, first_pass_sum, 0)?;
        let samples: Vec<Sample> = untraced
            .runs
            .iter()
            .flat_map(|r| r.samples.iter().copied())
            .collect();
        let n = samples.len();
        // Round-trip percentiles are taken per slice and the median over
        // the slices is reported, so one burst of host interference moves
        // one slice rather than the figure.
        let mut slice_rtt: Vec<Vec<f64>> = vec![Vec::new(); common::SLICES];
        for s in &samples {
            slice_rtt[usize::from(s.slot)].push(f64::from(s.rtt_ns) / 1e6);
        }
        let fewest = slice_rtt.iter().map(Vec::len).min().unwrap_or(0);
        if stats::samples_beyond(fewest, P99) < stats::MIN_BEYOND {
            return Err(format!(
                "a slice with {fewest} replies cannot support an rtt p99"
            ));
        }
        let slice_rtt: Vec<Vec<f64>> = slice_rtt.into_iter().map(stats::sorted).collect();
        let rtt_pct = |p| {
            stats::median(
                &slice_rtt
                    .iter()
                    .map(|s| stats::percentile(s, p))
                    .collect::<Vec<_>>(),
            )
        };
        let service = stats::sorted(
            samples
                .iter()
                .map(|s| f64::from(s.service_us) / 1e3)
                .collect(),
        );
        let slice_s = seconds / common::SLICES as f64;
        let rates: Vec<f64> = (0..common::SLICES)
            .map(|i| untraced.runs.iter().map(|r| r.slices[i]).sum::<u64>() as f64 / slice_s)
            .collect();
        let mut quality = Quality::default();
        for r in &untraced.runs {
            quality.merge(&r.quality);
        }
        outcome.put("setup_s", setup_s);
        outcome.put("reads_per_s", stats::median(&rates));
        outcome.put("batch_p50_ms", stats::percentile(&service, P50));
        outcome.put("batch_p90_ms", stats::percentile(&service, P90));
        outcome.put("rtt_p50_ms", rtt_pct(P50));
        outcome.put("rtt_p99_ms", rtt_pct(P99));
        quality.report(&mut outcome);
        outcome.put(
            "ok_share",
            1.0 - stats::error_share(untraced.sent(), untraced.failed()),
        );
        outcome.put("peak_rss_mb", peak_rss_mb);
        outcome.note(common::slice_note(&rates));
        outcome.note(steal);
        outcome.note(format!(
            "{n} replies in the measured {seconds} s ({} requests sent, {} failed) over {clients} \
             connections with {WINDOW} in flight each",
            untraced.sent(),
            untraced.failed()
        ));
    }
    Ok(common::Run { outcome, spans })
}

/// The server maps without the extension stage, so its extension figures
/// are a probe: what the stage would cost on the served reads, measured by
/// the traced layers with the stage armed over the first pass of the pool.
/// Every alignment it derives must replay at its score.
fn extension_probe(
    inputs: &Inputs,
    config: &asmcap::PipelineConfig,
    ids: &[u64],
    pool: u64,
    workers: usize,
) -> Result<Tally, String> {
    let armed = asmcap::PipelineConfig {
        extension: Some(asmcap::ExtensionConfig::default()),
        ..config.clone()
    };
    let (layers, _) = Layers::build(&inputs.reference, &armed)?;
    let first: Vec<u64> = ids.iter().copied().filter(|&id| id < pool).collect();
    let (tally, _) = layers.trace_phase(inputs, first.chunks(BATCH), workers, 0, |_, _| Ok(()))?;
    Ok(tally)
}

/// Batches, batched reads and refusals the server counted in a phase.
fn counter_delta(phase: &Phase) -> (u64, u64, u64) {
    let (a, b) = (&phase.counters_before, &phase.counters_after);
    (
        b.batches - a.batches,
        b.batched_reads - a.batched_reads,
        (b.overloaded + b.shed + b.deadline_expired) - (a.overloaded + a.shed + a.deadline_expired),
    )
}

/// Maps every answered request through the traced layers in batches of
/// the coalescer's mean size, checking the records against the twin's.
fn traced_layers(
    layers: &Layers,
    inputs: &Inputs,
    ids: &[u64],
    batch: usize,
    workers: usize,
    record_sum: u128,
    keep_spans: usize,
) -> Result<(Tally, Vec<trace::Span>), String> {
    let mut sum = 0u128;
    let traced = layers.trace_phase(
        inputs,
        ids.chunks(batch),
        workers,
        keep_spans,
        |_, results| {
            for (record, _) in results {
                sum = sum.wrapping_add(digest::record(record));
            }
            Ok(())
        },
    )?;
    if sum != record_sum {
        return Err(format!(
            "traced layers disagree with the twin pipeline (workers {workers})"
        ));
    }
    Ok(traced)
}
