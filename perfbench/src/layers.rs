//! The traced run: the pipeline's batch path re-composed from each layer's
//! public entry point, with a span around every call.
//!
//! `AsmcapPipeline::map_batch_packed` runs `asmcap::executor::run_tiled`
//! over the batch, and each tile shortlists every read
//! (`PrefilterIndex::shortlist`), drains the tile through
//! `DeviceBackend::map_batch_shortlisted`, and re-aligns each read's first
//! `max_candidates` positions with `align_packed` inside a band of 2T+2.
//! [`Layers::map_batch`] does exactly that from outside the library, so
//! its records must equal the pipeline's byte for byte (the benchmark's
//! correctness gate checks this), and the spans say where the time went.

use crate::inputs::Inputs;
use crate::trace::{self, Layer, Span};
use asmcap::executor::{run_tiled, TILE};
use asmcap::{read_seed, segment_count, DeviceBackend, MapRecord, MapStatus, MappingBackend};
use asmcap::{Alignment, PipelineConfig};
use asmcap_arch::DeviceBuilder;
use asmcap_genome::{DnaSeq, PackedRef, PackedSeq, PrefilterIndex};
use asmcap_metrics::align_packed;
use std::time::Instant;

/// What the traced run saw for one read besides its record.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReadNote {
    /// The prefilter fell back to a full scan.
    pub full_scan: bool,
    /// Shortlist length (0 on a full scan).
    pub shortlist_len: u32,
    /// A native read whose true origin the shortlist (or full scan) covers.
    pub origin_listed: bool,
    /// `align_packed` calls made for this read.
    pub align_calls: u32,
    /// Of those, calls that returned an alignment.
    pub aligned_calls: u32,
}

/// The layers, built from the same reference and configuration as the
/// pipeline under test.
pub struct Layers {
    backend: DeviceBackend,
    prefilter: PrefilterIndex,
    reference: PackedRef,
    width: usize,
    stored_rows: usize,
    /// `(band, max_candidates)` when the extension stage is armed.
    extension: Option<(usize, usize)>,
    seed: u64,
}

/// Build times of the two layers that do work at set-up.
#[derive(Debug, Clone, Copy)]
pub struct BuildTimes {
    /// Device construction plus `store_reference`.
    pub device_store_s: f64,
    /// `PrefilterIndex::new` over the packed reference.
    pub prefilter_build_s: f64,
}

impl Layers {
    /// Builds the device backend, prefilter index and packed reference the
    /// way the pipeline builder does, timing the device store and the
    /// index build.
    ///
    /// # Errors
    ///
    /// A configuration the device or prefilter refuses.
    pub fn build(
        reference: &DnaSeq,
        config: &PipelineConfig,
    ) -> Result<(Self, BuildTimes), String> {
        let width = config.row_width;
        let start = Instant::now();
        let rows = segment_count(reference.len(), width, config.stride);
        let mut device = DeviceBuilder::new()
            .arrays(rows.div_ceil(config.rows_per_array))
            .rows_per_array(config.rows_per_array)
            .row_width(width)
            .build_asmcap();
        device
            .store_reference(reference, config.stride)
            .map_err(|e| format!("device store: {e:?}"))?;
        let device_store_s = start.elapsed().as_secs_f64();
        let stored_rows = device.stored_rows();
        let backend = DeviceBackend::new(device, config.mapper());

        let prefilter_config = config.prefilter.ok_or("the benchmark arms the prefilter")?;
        let start = Instant::now();
        let prefilter = PrefilterIndex::new(
            &PackedRef::new(reference),
            width,
            config.stride,
            prefilter_config,
        )
        .map_err(|e| format!("prefilter build: {e:?}"))?;
        let prefilter_build_s = start.elapsed().as_secs_f64();

        let layers = Self {
            backend,
            prefilter,
            reference: PackedRef::new(reference),
            width,
            stored_rows,
            extension: config
                .extension
                .map(|e| (e.effective_band(config.threshold), e.max_candidates.max(1))),
            seed: config.seed,
        };
        Ok((
            layers,
            BuildTimes {
                device_store_s,
                prefilter_build_s,
            },
        ))
    }

    /// Maps one batch as the pipeline would, recording spans keyed by
    /// `batch` (executor, tiles, backend) and by read index (shortlist,
    /// extension). `origins` gives each read's true origin, for
    /// [`ReadNote::origin_listed`].
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length or a read is not one row wide.
    #[must_use]
    pub fn map_batch(
        &self,
        reads: &[PackedSeq],
        indices: &[u64],
        origins: &[Option<usize>],
        workers: usize,
        batch: u64,
    ) -> Vec<(MapRecord, ReadNote)> {
        assert!(reads.len() == indices.len() && reads.len() == origins.len());
        let root = trace::open(Layer::Executor, 0, batch);
        let root_id = root.id();
        let out = run_tiled(reads.len(), workers, |tile| {
            let span = trace::open(Layer::Tile, root_id, batch);
            let tile_id = span.id();
            let mut seeds = Vec::with_capacity(tile.len());
            let mut shortlists = Vec::with_capacity(tile.len());
            let mut notes = Vec::with_capacity(tile.len());
            for i in tile.clone() {
                assert_eq!(reads[i].len(), self.width, "reads are one row wide");
                seeds.push(read_seed(self.seed, indices[i]));
                let call = trace::open(Layer::Shortlist, tile_id, indices[i]);
                let shortlist = self.prefilter.shortlist(&reads[i]);
                let listed = (!shortlist.is_full_scan()).then(|| shortlist.starts_ascending());
                trace::close(call);
                notes.push(ReadNote {
                    full_scan: listed.is_none(),
                    shortlist_len: listed.as_ref().map_or(0, |l| l.len() as u32),
                    origin_listed: origins[i].is_some_and(|origin| {
                        listed
                            .as_ref()
                            .is_none_or(|l| l.binary_search(&origin).is_ok())
                    }),
                    ..ReadNote::default()
                });
                shortlists.push(listed);
            }
            let call = trace::open(Layer::Backend, tile_id, batch);
            let outcomes =
                self.backend
                    .map_batch_shortlisted(&reads[tile.clone()], &seeds, &shortlists);
            trace::close(call);
            let records = outcomes
                .into_iter()
                .zip(tile.clone())
                .zip(notes)
                .map(|((outcome, i), mut note)| {
                    let alignment = self.extension.and_then(|(band, max_candidates)| {
                        self.extend(
                            &reads[i],
                            &outcome.positions,
                            band,
                            max_candidates,
                            (tile_id, indices[i]),
                            &mut note,
                        )
                    });
                    let record = MapRecord {
                        index: indices[i],
                        status: if outcome.positions.is_empty() {
                            MapStatus::Unmapped
                        } else {
                            MapStatus::Mapped
                        },
                        positions: outcome.positions,
                        cycles: outcome.cycles,
                        searches: outcome.searches,
                        energy_j: outcome.energy_j,
                        alignment,
                        resensed: outcome.resensed,
                        requarried: outcome.requarried,
                        degraded: outcome.resensed + outcome.requarried > 0,
                    };
                    (record, note)
                })
                .collect::<Vec<_>>();
            trace::close(span);
            records
        });
        trace::close(root);
        out
    }

    /// The extension stage's rule: align the first `max_candidates`
    /// in-range positions, lowest score wins, ties to the earliest.
    fn extend(
        &self,
        read: &PackedSeq,
        positions: &[usize],
        band: usize,
        max_candidates: usize,
        (parent, key): (u64, u64),
        note: &mut ReadNote,
    ) -> Option<Alignment> {
        let span = trace::open(Layer::Extension, parent, key);
        let mut best: Option<Alignment> = None;
        for &origin in positions.iter().take(max_candidates) {
            if origin + self.width > self.reference.len() {
                continue;
            }
            let segment = self.reference.segment(origin, self.width);
            let call = trace::open(Layer::Align, span.id(), key);
            let result = align_packed(read, &segment, band);
            trace::close(call);
            note.align_calls += 1;
            if let Some((score, cigar)) = result {
                note.aligned_calls += 1;
                if best.as_ref().is_none_or(|b| score < b.score) {
                    best = Some(Alignment {
                        origin,
                        score,
                        cigar,
                    });
                }
            }
        }
        trace::close(span);
        best
    }

    /// Whether `alignment` replays against the reference at its score.
    #[must_use]
    pub fn replays(&self, read: &PackedSeq, alignment: &Alignment) -> bool {
        alignment.origin + self.width <= self.reference.len()
            && alignment
                .cigar
                .check_replay(read, &self.reference.segment(alignment.origin, self.width))
                == Some(alignment.score)
    }

    /// A traced phase: maps each batch of read indices at `workers`,
    /// checks that every alignment replays at its score, hands each batch's
    /// records to `each` (to compare against the untraced pipeline), and
    /// folds the spans into a [`Tally`]. The spans of the first
    /// `keep_spans` batches are returned for the span file.
    ///
    /// # Errors
    ///
    /// An alignment that does not replay, or whatever `each` reports.
    pub fn trace_phase<'a>(
        &self,
        inputs: &Inputs,
        batches: impl Iterator<Item = &'a [u64]>,
        workers: usize,
        keep_spans: usize,
        mut each: impl FnMut(usize, &[(MapRecord, ReadNote)]) -> Result<(), String>,
    ) -> Result<(Tally, Vec<Span>), String> {
        let mut tally = Tally::default();
        let mut kept = Vec::new();
        let _ = trace::drain();
        for (b, ids) in batches.enumerate() {
            let (reads, origins) = inputs.pick(ids);
            let results = self.map_batch(&reads, ids, &origins, workers, b as u64);
            let spans = trace::drain();
            for ((record, _), read) in results.iter().zip(&reads) {
                if let Some(a) = &record.alignment {
                    if !self.replays(read, a) {
                        return Err(format!(
                            "read {}: alignment {} does not replay at score {}",
                            record.index, a.cigar, a.score
                        ));
                    }
                }
            }
            each(b, &results)?;
            tally.absorb(&spans, &results, &origins, workers, self.stored_rows);
            if b < keep_spans {
                kept.extend(spans);
            }
        }
        Ok((tally, kept))
    }
}

/// Per-layer totals over a traced phase, folded batch by batch so spans
/// never pile up in memory.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Reads mapped.
    pub reads: u64,
    /// Executor calls (batches).
    pub batches: u64,
    /// Sum of executor span durations: the traced wall time.
    pub wall_ns: u64,
    /// Executor self time: no tile running on any thread.
    pub executor_self_ns: u64,
    /// Worker-seconds available: each batch's duration times the workers
    /// the executor actually used for it.
    pub capacity_ns: u64,
    /// Sum of tile spans.
    pub tile_ns: u64,
    /// Tile self time (the glue around the layer calls).
    pub glue_ns: u64,
    /// Sum of shortlist spans.
    pub shortlist_ns: u64,
    /// Sum of backend spans.
    pub backend_ns: u64,
    /// Sum of extension spans (align calls included).
    pub extension_ns: u64,
    /// Sum of align spans.
    pub align_ns: u64,
    /// `align_packed` calls.
    pub align_calls: u64,
    /// Calls that returned an alignment.
    pub aligned_calls: u64,
    /// Reads the prefilter sent to a full scan.
    pub full_scans: u64,
    /// Sum of shortlist lengths over shortlisted reads.
    pub shortlist_len_sum: u64,
    /// Native reads (with a true origin).
    pub native: u64,
    /// Native reads whose origin the shortlist covers.
    pub origin_listed: u64,
    /// Rows sensed: (shortlist length, or stored rows on a full scan)
    /// times searches.
    pub rows_sensed: u64,
    /// Device searches.
    pub searches: u64,
    /// Per tile: how long after the batch call started its first read was
    /// picked up, and how long after it finished the batch call returned.
    pub tile_waits_ns: Vec<(u64, u64)>,
}

impl Tally {
    /// Folds one batch: its spans (drained right after the call), its
    /// outcomes, and its reads' true origins.
    pub fn absorb(
        &mut self,
        spans: &[Span],
        results: &[(MapRecord, ReadNote)],
        origins: &[Option<usize>],
        workers: usize,
        stored_rows: usize,
    ) {
        let self_ns = trace::self_times(spans);
        let used = workers.max(1).min(results.len().div_ceil(TILE)).max(1) as u64;
        if let Some(batch) = spans.iter().find(|s| s.layer == Layer::Executor) {
            self.tile_waits_ns.extend(
                spans
                    .iter()
                    .filter(|s| s.layer == Layer::Tile)
                    .map(|t| (t.start_ns - batch.start_ns, batch.end_ns - t.end_ns)),
            );
        }
        for (span, &own) in spans.iter().zip(&self_ns) {
            let d = span.duration_ns();
            match span.layer {
                Layer::Executor => {
                    self.batches += 1;
                    self.wall_ns += d;
                    self.executor_self_ns += own;
                    self.capacity_ns += d * used;
                }
                Layer::Tile => {
                    self.tile_ns += d;
                    self.glue_ns += own;
                }
                Layer::Shortlist => self.shortlist_ns += d,
                Layer::Backend => self.backend_ns += d,
                Layer::Extension => self.extension_ns += d,
                Layer::Align => self.align_ns += d,
                Layer::Request => {}
            }
        }
        for (record, note) in results {
            self.reads += 1;
            self.align_calls += u64::from(note.align_calls);
            self.aligned_calls += u64::from(note.aligned_calls);
            self.searches += record.searches;
            let rows = if note.full_scan {
                self.full_scans += 1;
                stored_rows as u64
            } else {
                self.shortlist_len_sum += u64::from(note.shortlist_len);
                u64::from(note.shortlist_len)
            };
            self.rows_sensed += rows * record.searches;
        }
        for ((_, note), origin) in results.iter().zip(origins) {
            if origin.is_some() {
                self.native += 1;
                self.origin_listed += u64::from(note.origin_listed);
            }
        }
    }

    /// Microseconds per read spent in shortlist calls.
    #[must_use]
    pub fn shortlist_us_per_read(&self) -> f64 {
        ratio(self.shortlist_ns as f64 / 1e3, self.reads as f64)
    }

    /// Traced reads per second.
    #[must_use]
    pub fn reads_per_s(&self) -> f64 {
        ratio(self.reads as f64, self.wall_ns as f64 / 1e9)
    }
}

/// `a / b`, or 0 when `b` is 0 (a layer that did no work).
#[must_use]
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}
