//! Pluggable execution engines behind [`crate::AsmcapPipeline`].
//!
//! A [`MappingBackend`] turns a batch of row-width reads into candidate
//! reference positions. The pipeline owns batching, sharding, statuses, and
//! statistics; a backend only answers "where does each read match, and what
//! did the search cost". Three implementations ship:
//!
//! * [`DeviceBackend`] — the hardware-faithful path through the simulated
//!   multi-array device (search-level cycle and energy accounting);
//! * [`PairBackend`] — the per-pair [`crate::AsmcapEngine`] fast path used
//!   by the accuracy sweeps: statistically equivalent sensing without
//!   materialising arrays (and therefore without an energy model);
//! * [`SoftwareBackend`] — a noiseless pure-software ED\* reference, the
//!   functional ground truth the hardware paths approximate.
//!
//! Backends take `&self` and a **per-read seed**: all mutable state (sensing
//! RNG, rotation registers) is created per call, which is what lets
//! [`crate::AsmcapPipeline::map_batch`] shard reads across threads while
//! staying bit-identical to a sequential run.
//!
//! All three built-in backends run on the packed matchplane: the reference
//! is 2-bit packed once at construction, reads arrive packed through
//! [`MappingBackend::map_batch_shortlisted`], and every distance is computed
//! by the word-parallel kernels in `asmcap-metrics` over zero-copy
//! [`asmcap_genome::SegmentView`]s — no per-segment re-slicing anywhere.
//!
//! They also all honour a prefilter shortlist: when the pipeline's k-mer
//! prefilter is on, only shortlisted segment starts reach the kernels — the
//! software and pair paths skip unlisted segments outright, and the device
//! path maps each read's starts to its ascending list of stored rows once
//! per batch, then senses only those rows through one
//! [`asmcap_arch::AsmcapDevice::search`] per search stage. A shortlisted
//! start no stored segment begins at panics alike on all three.

use crate::hdac::HdacParams;
use crate::tasr::TasrParams;
use asmcap_arch::{AsmcapDevice, DeviceSearchResult, FaultPlan, MatchMode};
use asmcap_circuit::ChargeDomainCam;
use asmcap_genome::{DnaSeq, ErrorProfile, PackedRef, PackedSeq};
use asmcap_metrics::ed_star_packed;
use rand::Rng as _;

/// The per-read matching configuration the backends share: threshold,
/// error profile, and which correction strategies are armed.
#[derive(Debug, Clone)]
pub struct MapperConfig {
    /// Edit-distance threshold `T`.
    pub threshold: usize,
    /// Expected error profile (parameterises HDAC and TASR).
    pub profile: ErrorProfile,
    /// HDAC parameters, or `None` to disable.
    pub hdac: Option<HdacParams>,
    /// TASR parameters, or `None` to disable.
    pub tasr: Option<TasrParams>,
}

impl MapperConfig {
    /// The paper's full configuration at a given threshold.
    #[must_use]
    pub fn paper(threshold: usize, profile: ErrorProfile) -> Self {
        Self {
            threshold,
            profile,
            hdac: Some(HdacParams::paper()),
            tasr: Some(TasrParams::paper()),
        }
    }

    /// Plain ED\* matching at a given threshold (no strategies).
    #[must_use]
    pub fn plain(threshold: usize) -> Self {
        Self {
            threshold,
            profile: ErrorProfile::error_free(),
            hdac: None,
            tasr: None,
        }
    }
}

/// What one backend invocation found and what it cost.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BackendOutcome {
    /// Genome origins of all matching stored segments, ascending.
    pub positions: Vec<usize>,
    /// Cycles consumed (1 read latch + 1 per search operation).
    pub cycles: u64,
    /// Search operations issued.
    pub searches: u64,
    /// Energy in joules (0 for backends without a circuit energy model).
    pub energy_j: f64,
    /// Rows where re-sense majority voting fired (0 without fault
    /// injection).
    pub resensed: u64,
    /// Quarantined rows answered by the exact digital fallback (0 without
    /// fault injection).
    pub requarried: u64,
}

/// One execution engine the pipeline can map reads through.
///
/// Implementations must be `Send + Sync`: [`crate::AsmcapPipeline::map_batch`]
/// calls [`MappingBackend::map_batch_shortlisted`] concurrently from scoped
/// worker threads. All randomness must derive from the passed seeds so a
/// read's result depends only on `(read, seed, shortlist)`, never on which
/// worker ran it or which other reads shared its batch.
pub trait MappingBackend: Send + Sync {
    /// Short display name for reports (e.g. `"device"`).
    fn name(&self) -> &'static str;

    /// Row width every read must match exactly (the pipeline truncates or
    /// rejects other lengths before calling in).
    fn row_width(&self) -> usize;

    /// Maps a batch of row-width reads in one call — the one entry point
    /// the pipeline drains each executor tile through (per-read mapping is
    /// a batch of one), and the surface a serving coalescer batches for.
    ///
    /// Read `i` is mapped with all randomness derived from `seeds[i]`.
    /// `shortlists[i]` is its prefilter shortlist: segment start offsets
    /// (strictly ascending, on the shared [`segment_starts`] grid), of
    /// which only those segments may be evaluated; `None` is a full scan
    /// (no prefilter armed, or its fallback fired). With every stored
    /// start listed, each built-in is byte-identical to the full scan,
    /// RNG draws included. `outcomes[i]` must not depend on the other
    /// reads of the batch.
    ///
    /// # Panics
    ///
    /// The built-ins panic if `reads`, `seeds`, and `shortlists` lengths
    /// differ, any read width differs from the row width, or a shortlist
    /// is not strictly ascending or lists a start no stored segment begins
    /// at.
    fn map_batch_shortlisted(
        &self,
        reads: &[PackedSeq],
        seeds: &[u64],
        shortlists: &[Option<Vec<usize>>],
    ) -> Vec<BackendOutcome>;
}

/// The batch contract of [`MappingBackend::map_batch_shortlisted`], checked
/// identically by every built-in backend.
pub(crate) fn check_batch(
    width: usize,
    reads: &[PackedSeq],
    seeds: &[u64],
    shortlists: &[Option<Vec<usize>>],
) {
    assert_eq!(reads.len(), seeds.len(), "one seed per batched read");
    assert_eq!(
        reads.len(),
        shortlists.len(),
        "one shortlist slot per batched read"
    );
    for read in reads {
        assert_eq!(read.len(), width, "read must match the row width");
    }
    for candidates in shortlists.iter().flatten() {
        assert!(
            // lint: index-ok — windows(2) yields exactly two elements per pair
            candidates.windows(2).all(|pair| pair[0] < pair[1]),
            "shortlist must be strictly ascending"
        );
    }
}

/// Checks every shortlisted start against a backend's ascending stored
/// `starts`, for the backends that index the reference by start.
fn check_stored(starts: &[usize], shortlists: &[Option<Vec<usize>>]) {
    for &start in shortlists.iter().flatten().flatten() {
        if starts.binary_search(&start).is_err() {
            unstored_start(start);
        }
    }
}

/// The one panic every built-in backend raises for a shortlisted start no
/// stored segment begins at (off the stride grid, or past the last row).
fn unstored_start(start: usize) -> ! {
    // lint: panic-ok — the documented `map_batch_shortlisted` contract
    panic!("shortlist start {start} is not a stored segment start")
}

/// The segment start offsets a `width`-row backend stores for `reference`
/// at `stride` — the one segmentation rule every backend shares (and the
/// device's [`asmcap_arch::AsmcapDevice::store_reference`] follows).
///
/// # Panics
///
/// Panics if `stride` is zero or the reference is shorter than one row.
#[must_use]
pub fn segment_starts(reference: &DnaSeq, width: usize, stride: usize) -> Vec<usize> {
    assert!(stride > 0, "stride must be positive");
    assert!(reference.len() >= width, "reference shorter than one row");
    (0..=reference.len() - width).step_by(stride).collect()
}

/// How many segments [`segment_starts`] would produce, without allocating
/// them — for sizing devices over large references.
///
/// # Panics
///
/// Panics if `stride` is zero or the reference is shorter than one row.
#[must_use]
pub fn segment_count(reference_len: usize, width: usize, stride: usize) -> usize {
    assert!(stride > 0, "stride must be positive");
    assert!(reference_len >= width, "reference shorter than one row");
    (reference_len - width) / stride + 1
}

/// The hardware-faithful backend: searches through the simulated
/// multi-array device, with HDAC's HD-mode search and TASR's rotated
/// searches issued exactly as the controller would sequence them.
///
/// One hardware-faithful detail carried over from the device path: HDAC
/// draws its random number **once per read** (a host-side draw steering the
/// result MUX for all rows), rather than once per pair.
#[derive(Debug)]
pub struct DeviceBackend {
    device: AsmcapDevice<ChargeDomainCam>,
    config: MapperConfig,
    fault: Option<FaultPlan>,
}

impl DeviceBackend {
    /// Wraps a device that already stores the segmented reference.
    #[must_use]
    pub fn new(device: AsmcapDevice<ChargeDomainCam>, config: MapperConfig) -> Self {
        Self {
            device,
            config,
            fault: None,
        }
    }

    /// Installs `plan` on the wrapped device (instantiation + self-test
    /// quarantine at this backend's threshold) and arms the per-read fault
    /// streams. An inactive plan (e.g. [`FaultPlan::none`]) uninstalls all
    /// fault state, leaving the backend byte-identical to a fresh one.
    pub fn install_fault_plan(&mut self, plan: &FaultPlan) {
        self.device.install_faults(plan, self.config.threshold);
        self.fault = plan.is_active().then(|| plan.clone());
    }

    /// The armed fault plan, if any.
    #[must_use]
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault.as_ref()
    }

    /// Quarantined rows across the device (0 without faults).
    #[must_use]
    pub fn quarantined_rows(&self) -> usize {
        self.device.quarantined_rows()
    }

    /// The wrapped device.
    #[must_use]
    pub fn device(&self) -> &AsmcapDevice<ChargeDomainCam> {
        &self.device
    }

    /// The per-read matching configuration.
    #[must_use]
    pub fn config(&self) -> &MapperConfig {
        &self.config
    }

    /// The ED\* → HDAC → TASR search sequencing, each stage draining the
    /// **whole read queue** through one [`AsmcapDevice::search`]. Read `i`
    /// draws its sensing noise, host-side HDAC draw, and (with a fault plan
    /// armed) fault events from its own seed-derived streams, so its
    /// outcome depends only on `(reads[i], seeds[i], rows[i])`.
    fn run(
        &self,
        reads: &[PackedSeq],
        seeds: &[u64],
        rows: &[Option<Vec<usize>>],
    ) -> Vec<BackendOutcome> {
        let t = self.config.threshold;
        // One stream for sensing noise and one for the host-side HDAC draw
        // per read. Fault injection adds a third, dedicated stream so the
        // first two keep their draw order.
        let mut sense_rngs: Vec<crate::Rng> = seeds.iter().map(|&s| crate::rng(s)).collect();
        let mut host_rngs: Vec<crate::Rng> = seeds
            .iter()
            .map(|&s| crate::rng(s.wrapping_mul(0x9E37_79B9).wrapping_add(1)))
            .collect();
        let mut fault_rngs: Option<Vec<crate::Rng>> = self
            .fault
            .as_ref()
            .map(|plan| seeds.iter().map(|&s| plan.read_fault_rng(s)).collect());
        let mut outcomes: Vec<BackendOutcome> = vec![BackendOutcome::default(); reads.len()];
        let mut search = |queue: &[PackedSeq], mode: MatchMode| {
            let results = self.device.search(
                queue,
                t,
                mode,
                rows,
                &mut sense_rngs,
                fault_rngs.as_deref_mut(),
            );
            for (outcome, result) in outcomes.iter_mut().zip(&results) {
                outcome.searches += 1;
                outcome.energy_j += result.stats.energy_j;
                outcome.resensed += result.stats.resensed;
                outcome.requarried += result.stats.requarried;
            }
            results
        };
        let origins = |result: &DeviceSearchResult| -> Vec<usize> {
            result.matches.iter().map(|m| m.origin).collect()
        };

        // Cycle 1 (after the latch): the ED* search.
        let base = search(reads, MatchMode::EdStar);
        let mut matched: Vec<Vec<usize>> = base.iter().map(origins).collect();

        // HDAC: one HD-mode search, one host-side draw per read steering
        // the result MUX for all of that read's rows.
        if let Some(hdac) = self.config.hdac {
            if hdac.enabled(&self.config.profile, t) {
                let hd = search(reads, MatchMode::Hamming);
                let p = hdac.probability(&self.config.profile, t);
                for ((matched, host_rng), result) in matched.iter_mut().zip(&mut host_rngs).zip(&hd)
                {
                    if host_rng.gen::<f64>() < p {
                        *matched = origins(result);
                    }
                }
            }
        }

        // TASR: N_R rotated ED* searches, OR-ed into each read's result
        // set. Each rotated read is what the shift register file would
        // present after `amount` single-position rotations — computed
        // word-parallel here.
        if let Some(tasr) = self.config.tasr {
            if tasr.active(&self.config.profile, self.row_width(), t) {
                for amount in 1..=tasr.rotations {
                    let rotated: Vec<PackedSeq> = reads
                        .iter()
                        .map(|read| tasr.schedule.rotated(read, amount))
                        .collect();
                    for (matched, result) in
                        matched.iter_mut().zip(search(&rotated, MatchMode::EdStar))
                    {
                        matched.extend(result.matches.iter().map(|m| m.origin));
                    }
                }
            }
        }

        for (outcome, mut positions) in outcomes.iter_mut().zip(matched) {
            positions.sort_unstable();
            positions.dedup();
            outcome.positions = positions;
            outcome.cycles = 1 + outcome.searches;
        }
        outcomes
    }
}

impl MappingBackend for DeviceBackend {
    fn name(&self) -> &'static str {
        "device"
    }

    fn row_width(&self) -> usize {
        self.device.row_width()
    }

    /// Each shortlist becomes that read's ascending list of stored rows
    /// once per batch ([`AsmcapDevice::rows_for_origins`]); a full-scan read
    /// passes through as `None`, so a mixed batch drains every read exactly
    /// as it would alone.
    fn map_batch_shortlisted(
        &self,
        reads: &[PackedSeq],
        seeds: &[u64],
        shortlists: &[Option<Vec<usize>>],
    ) -> Vec<BackendOutcome> {
        check_batch(self.row_width(), reads, seeds, shortlists);
        let rows: Vec<Option<Vec<usize>>> = shortlists
            .iter()
            .map(|shortlist| {
                shortlist.as_deref().map(|starts| {
                    self.device
                        .rows_for_origins(starts)
                        .unwrap_or_else(|start| unstored_start(start))
                })
            })
            .collect();
        self.run(reads, seeds, &rows)
    }
}

/// The per-pair fast path: one [`crate::AsmcapEngine`] decision per stored
/// segment, with the same ED\* + HDAC + TASR semantics and sensing-noise
/// model as the device but no array bookkeeping — the right backend for
/// large statistical sweeps.
///
/// Cycle accounting models the rows being sensed in parallel (as the
/// hardware would): the read costs the *maximum* per-pair cycle count, not
/// the sum. There is no energy model on this path (`energy_j` is 0).
#[derive(Debug, Clone)]
pub struct PairBackend {
    reference: PackedRef,
    starts: Vec<usize>,
    width: usize,
    config: MapperConfig,
}

impl PairBackend {
    /// Segments `reference` into `width`-base windows every `stride` bases.
    /// The reference is packed once here; each per-pair decision runs on a
    /// zero-copy segment view of that packing.
    ///
    /// # Panics
    ///
    /// Panics if `stride` is zero or the reference is shorter than one row.
    #[must_use]
    pub fn new(reference: DnaSeq, stride: usize, width: usize, config: MapperConfig) -> Self {
        let starts = segment_starts(&reference, width, stride);
        Self {
            reference: PackedRef::new(&reference),
            starts,
            width,
            config,
        }
    }

    /// Number of stored segments.
    #[must_use]
    pub fn segments(&self) -> usize {
        self.starts.len()
    }

    /// One per-pair engine pass over `starts` (the full segment list or a
    /// prefilter shortlist).
    fn run(&self, read: &PackedSeq, seed: u64, starts: &[usize]) -> BackendOutcome {
        let mut builder = crate::config::AsmcapConfig::new(self.config.profile);
        builder
            .hdac(self.config.hdac)
            .tasr(self.config.tasr)
            .seed(seed);
        let mut engine = builder.build();
        let t = self.config.threshold;
        let mut positions = Vec::new();
        let mut max_cycles = 0u64;
        for &start in starts {
            let segment = self.reference.segment(start, self.width);
            let outcome = engine.decide(&segment, read, t);
            max_cycles = max_cycles.max(u64::from(outcome.cycles));
            if outcome.matched {
                positions.push(start);
            }
        }
        BackendOutcome {
            positions,
            cycles: 1 + max_cycles,
            searches: max_cycles,
            energy_j: 0.0,
            ..BackendOutcome::default()
        }
    }
}

impl MappingBackend for PairBackend {
    fn name(&self) -> &'static str {
        "pair"
    }

    fn row_width(&self) -> usize {
        self.width
    }

    fn map_batch_shortlisted(
        &self,
        reads: &[PackedSeq],
        seeds: &[u64],
        shortlists: &[Option<Vec<usize>>],
    ) -> Vec<BackendOutcome> {
        check_batch(self.width, reads, seeds, shortlists);
        check_stored(&self.starts, shortlists);
        reads
            .iter()
            .zip(seeds)
            .zip(shortlists)
            .map(|((read, &seed), shortlist)| {
                self.run(read, seed, shortlist.as_deref().unwrap_or(&self.starts))
            })
            .collect()
    }
}

/// The noiseless software reference: a read matches a stored segment iff
/// `ED*(segment, read) <= T`, with ideal sensing and no correction
/// strategies. This is the functional behaviour both hardware backends
/// reduce to when their noise and strategies are stripped away, and the
/// determinism anchor for the backend-equivalence tests.
#[derive(Debug, Clone)]
pub struct SoftwareBackend {
    reference: PackedRef,
    starts: Vec<usize>,
    width: usize,
    threshold: usize,
}

impl SoftwareBackend {
    /// Segments `reference` into `width`-base windows every `stride` bases.
    /// The reference is packed once here; every scan step is a word-parallel
    /// ED\* over a zero-copy segment view.
    ///
    /// # Panics
    ///
    /// Panics if `stride` is zero or the reference is shorter than one row.
    #[must_use]
    pub fn new(reference: DnaSeq, stride: usize, width: usize, threshold: usize) -> Self {
        let starts = segment_starts(&reference, width, stride);
        Self {
            reference: PackedRef::new(&reference),
            starts,
            width,
            threshold,
        }
    }

    /// One noiseless ED\* pass over `starts` (the full segment list or a
    /// prefilter shortlist).
    fn run(&self, read: &PackedSeq, starts: &[usize]) -> BackendOutcome {
        let positions = starts
            .iter()
            .copied()
            .filter(|&start| {
                ed_star_packed(&self.reference.segment(start, self.width), read) <= self.threshold
            })
            .collect();
        BackendOutcome {
            positions,
            cycles: 2,
            searches: 1,
            energy_j: 0.0,
            ..BackendOutcome::default()
        }
    }
}

impl MappingBackend for SoftwareBackend {
    fn name(&self) -> &'static str {
        "software"
    }

    fn row_width(&self) -> usize {
        self.width
    }

    fn map_batch_shortlisted(
        &self,
        reads: &[PackedSeq],
        seeds: &[u64],
        shortlists: &[Option<Vec<usize>>],
    ) -> Vec<BackendOutcome> {
        check_batch(self.width, reads, seeds, shortlists);
        check_stored(&self.starts, shortlists);
        reads
            .iter()
            .zip(shortlists)
            .map(|(read, shortlist)| self.run(read, shortlist.as_deref().unwrap_or(&self.starts)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asmcap_arch::DeviceBuilder;
    use asmcap_genome::GenomeModel;
    use asmcap_metrics::ed_star;

    fn device_for(genome: &DnaSeq, width: usize, stride: usize) -> AsmcapDevice<ChargeDomainCam> {
        let rows = (genome.len() - width) / stride + 1;
        let mut device = DeviceBuilder::new()
            .arrays(rows.div_ceil(64))
            .rows_per_array(64)
            .row_width(width)
            .build_asmcap();
        device.store_reference(genome, stride).unwrap();
        device
    }

    /// A full-scan batch of one.
    fn map_one(backend: &dyn MappingBackend, read: &DnaSeq, seed: u64) -> BackendOutcome {
        backend
            .map_batch_shortlisted(&[PackedSeq::from_seq(read)], &[seed], &[None])
            .pop()
            .expect("one outcome per read")
    }

    #[test]
    fn device_backend_is_seed_deterministic() {
        let genome = GenomeModel::uniform().generate(2_048, 11);
        let backend = DeviceBackend::new(device_for(&genome, 64, 1), MapperConfig::plain(2));
        let read = genome.window(500..564);
        let a = map_one(&backend, &read, 42);
        let b = map_one(&backend, &read, 42);
        assert_eq!(a, b);
        assert!(a.positions.contains(&500));
        assert_eq!(a.cycles, 2); // latch + ED* search
    }

    #[test]
    fn software_backend_is_pure_edstar() {
        let genome = GenomeModel::uniform().generate(1_024, 12);
        let backend = SoftwareBackend::new(genome.clone(), 1, 64, 0);
        let read = genome.window(100..164);
        let out = map_one(&backend, &read, 0);
        assert!(out.positions.contains(&100));
        for &p in &out.positions {
            assert!(ed_star(genome.window(p..p + 64).as_slice(), read.as_slice()) == 0);
        }
    }

    #[test]
    fn pair_backend_recovers_origins() {
        let genome = GenomeModel::uniform().generate(1_024, 13);
        let backend = PairBackend::new(genome.clone(), 1, 64, MapperConfig::plain(2));
        assert_eq!(backend.segments(), 1_024 - 64 + 1);
        let read = genome.window(300..364);
        let out = map_one(&backend, &read, 7);
        assert!(out.positions.contains(&300));
        assert_eq!(out.energy_j, 0.0);
        assert!(out.cycles >= 2);
    }

    #[test]
    fn exact_read_maps_to_its_origin() {
        let genome = GenomeModel::uniform().generate(4096, 31);
        let backend = DeviceBackend::new(device_for(&genome, 64, 1), MapperConfig::plain(0));
        let read = genome.window(777..841);
        let mapped = map_one(&backend, &read, 1);
        // With stride-1 storage the rows at ±1 are one-shift windows of the
        // read, which ED*'s neighbor tolerance can legitimately accept (the
        // false-positive mode of paper Fig. 2c that HDAC corrects); plain
        // ED* must still report the true origin, and nothing further away.
        assert!(mapped.positions.contains(&777), "origin 777 not mapped");
        assert!(
            mapped.positions.iter().all(|&p| p.abs_diff(777) <= 1),
            "plain ED* matched beyond one-shift neighbors: {:?}",
            mapped.positions
        );
        assert_eq!(mapped.cycles, 2); // latch + search
    }

    #[test]
    fn erroneous_read_maps_with_paper_config() {
        let genome = GenomeModel::uniform().generate(8192, 32);
        let profile = ErrorProfile::condition_a();
        let backend =
            DeviceBackend::new(device_for(&genome, 256, 1), MapperConfig::paper(8, profile));
        let sampler = asmcap_genome::ReadSampler::new(256, profile);
        let mut rng = asmcap_genome::rng(5);
        let read = sampler.sample_at(&genome, 1000, &mut rng);
        let mapped = map_one(&backend, &read.bases, 2);
        assert!(
            mapped.positions.contains(&1000),
            "expected origin 1000 among {:?}",
            mapped.positions
        );
    }

    #[test]
    fn hdac_spends_its_cycle_only_when_armed() {
        let genome = GenomeModel::uniform().generate(2048, 33);
        let read = genome.window(0..256);
        // T=1: HDAC armed in Condition A; TASR gated off (T_l = 52).
        let backend = DeviceBackend::new(
            device_for(&genome, 256, 256),
            MapperConfig::paper(1, ErrorProfile::condition_a()),
        );
        let mapped = map_one(&backend, &read, 3);
        assert_eq!(mapped.searches, 2); // ED* + HD
        assert_eq!(mapped.cycles, 3);

        // Condition B: HDAC disabled, T=8 >= T_l=6 arms TASR (2 rotations).
        let backend = DeviceBackend::new(
            device_for(&genome, 256, 256),
            MapperConfig::paper(8, ErrorProfile::condition_b()),
        );
        let mapped = map_one(&backend, &read, 4);
        assert_eq!(mapped.searches, 3); // ED* + 2 rotated
    }

    #[test]
    fn tasr_recovers_shifted_reads_on_device() {
        let genome = GenomeModel::uniform().generate(4096, 34);
        let width = 256usize;
        // Read with two consecutive deletions at its origin 500.
        let mut bases = genome.window(500..500 + width).into_bases();
        bases.drain(30..32);
        bases.extend_from_slice(&genome.as_slice()[500 + width..500 + width + 2]);
        let read = DnaSeq::from_bases(bases);

        let plain = DeviceBackend::new(device_for(&genome, width, 1), MapperConfig::plain(8));
        let without = map_one(&plain, &read, 5);
        let with = DeviceBackend::new(
            device_for(&genome, width, 1),
            MapperConfig::paper(8, ErrorProfile::condition_b()),
        );
        let recovered = map_one(&with, &read, 6);

        assert!(
            !without.positions.contains(&500),
            "plain ED* should miss the shifted read"
        );
        assert!(
            recovered.positions.contains(&500),
            "TASR should recover origin 500, got {:?}",
            recovered.positions
        );
    }

    #[test]
    fn duplicated_shortlist_panics_alike_on_every_backend() {
        // Stride 8 over 1,024 bases: stored starts 0, 8, .., 960.
        let genome = GenomeModel::uniform().generate(1_024, 14);
        let backends: [Box<dyn MappingBackend>; 3] = [
            Box::new(DeviceBackend::new(
                device_for(&genome, 64, 8),
                MapperConfig::plain(2),
            )),
            Box::new(PairBackend::new(
                genome.clone(),
                8,
                64,
                MapperConfig::plain(2),
            )),
            Box::new(SoftwareBackend::new(genome.clone(), 8, 64, 2)),
        ];
        let read = PackedSeq::from_seq(&genome.window(200..264));
        let cases = [
            (vec![200, 200], "shortlist must be strictly ascending"),
            (vec![3], "shortlist start 3 is not a stored segment start"),
            (
                vec![200, 968],
                "shortlist start 968 is not a stored segment start",
            ),
        ];
        for (shortlist, expected) in cases {
            for backend in &backends {
                let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    backend.map_batch_shortlisted(
                        std::slice::from_ref(&read),
                        &[1],
                        &[Some(shortlist.clone())],
                    )
                }))
                .expect_err("a bad shortlist must panic");
                let message = panic
                    .downcast_ref::<&str>()
                    .copied()
                    .or_else(|| panic.downcast_ref::<String>().map(String::as_str))
                    .unwrap_or_default();
                assert_eq!(
                    message,
                    expected,
                    "{} backend, shortlist {shortlist:?}",
                    backend.name()
                );
            }
        }
    }

    #[test]
    fn mixed_shortlist_batch_maps_each_read_as_alone() {
        let genome = GenomeModel::uniform().generate(4_096, 15);
        let backend = DeviceBackend::new(
            device_for(&genome, 64, 8),
            MapperConfig::paper(4, ErrorProfile::condition_a()),
        );
        let reads: Vec<PackedSeq> = [96usize, 800, 1_600, 2_400, 3_200]
            .iter()
            .map(|&origin| PackedSeq::from_seq(&genome.window(origin..origin + 64)))
            .collect();
        let seeds = [11u64, 12, 13, 14, 15];
        // Full scans between shortlists that span several 64-row arrays,
        // miss the origin, or are empty.
        let shortlists = vec![
            None,
            Some(vec![0, 504, 800, 1_600, 3_000]),
            None,
            Some(vec![]),
            Some(vec![8, 3_200]),
        ];
        let batched = backend.map_batch_shortlisted(&reads, &seeds, &shortlists);
        for (i, read) in reads.iter().enumerate() {
            let alone = backend
                .map_batch_shortlisted(
                    std::slice::from_ref(read),
                    &seeds[i..=i],
                    &shortlists[i..=i],
                )
                .pop()
                .expect("one outcome per read");
            assert_eq!(batched[i], alone, "read {i} diverged in the mixed batch");
        }
        assert!(batched[0].positions.contains(&96));
        assert!(batched[1].positions.contains(&800));
        assert!(batched[3].positions.is_empty());
        assert!(batched[4].positions.contains(&3_200));
    }
}
