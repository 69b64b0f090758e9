//! The top-level ASMCap device (paper Fig. 4a).
//!
//! A device is a bank of CAM arrays (the paper evaluates 512 arrays of
//! 256×256 = 64 Mb) fed by a global buffer over an H-tree. A reference
//! genome is segmented into row-sized windows at a configurable stride and
//! written across the arrays; one search operation broadcasts a read to
//! every array and senses all matchlines in parallel.

use crate::array::{CamArray, MatchMode, SearchEnergy};
use crate::fault::{FaultPlan, FaultTally};
use asmcap_circuit::{ChargeDomainCam, CurrentDomainCam, MlCam, Rng};
use asmcap_genome::{DnaSeq, PackedRef, PackedSeq, PackedWords as _};
use std::fmt;

/// Location of one stored row inside the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RowId {
    /// Array index within the device.
    pub array: usize,
    /// Row index within the array.
    pub row: usize,
}

/// One matching row reported by a device search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceMatch {
    /// Which physical row matched.
    pub id: RowId,
    /// Genome position the row's segment was taken from.
    pub origin: usize,
    /// The row's noiseless mismatch count.
    pub n_mis: usize,
}

/// Timing/energy accounting of one device search.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SearchStats {
    /// Number of array-level search operations issued (all in parallel).
    pub array_searches: usize,
    /// Energy across all arrays, in joules.
    pub energy_j: f64,
    /// Wall-clock latency (arrays operate in parallel), in seconds.
    pub latency_s: f64,
    /// Rows where re-sense majority voting fired (0 without faults).
    pub resensed: u64,
    /// Quarantined rows answered by the exact digital fallback (0 without
    /// faults).
    pub requarried: u64,
}

/// Result of searching one read against the whole device.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceSearchResult {
    /// All rows whose sense amplifier fired, with their origins.
    pub matches: Vec<DeviceMatch>,
    /// Accounting for this search.
    pub stats: SearchStats,
}

/// Error returned when a reference does not fit the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CapacityError {
    /// Rows the segmentation requires.
    pub required_rows: usize,
    /// Rows the device provides.
    pub available_rows: usize,
}

impl fmt::Display for CapacityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "reference needs {} rows but the device has {}",
            self.required_rows, self.available_rows
        )
    }
}

impl std::error::Error for CapacityError {}

/// Builder for [`AsmcapDevice`] (see paper §V-A for the evaluated shape).
///
/// # Examples
///
/// ```
/// use asmcap_arch::DeviceBuilder;
/// let device = DeviceBuilder::new()
///     .arrays(4)
///     .rows_per_array(64)
///     .row_width(128)
///     .build_asmcap();
/// assert_eq!(device.capacity_rows(), 256);
/// ```
#[derive(Debug, Clone)]
pub struct DeviceBuilder {
    arrays: usize,
    rows: usize,
    width: usize,
}

impl DeviceBuilder {
    /// Starts from the paper's configuration: 512 arrays of 256×256.
    #[must_use]
    pub fn new() -> Self {
        Self {
            arrays: asmcap_circuit::params::ARRAY_COUNT,
            rows: asmcap_circuit::params::ARRAY_ROWS,
            width: asmcap_circuit::params::ARRAY_COLS,
        }
    }

    /// Sets the number of arrays.
    #[must_use]
    pub fn arrays(mut self, arrays: usize) -> Self {
        self.arrays = arrays;
        self
    }

    /// Sets the rows per array (`M`).
    #[must_use]
    pub fn rows_per_array(mut self, rows: usize) -> Self {
        self.rows = rows;
        self
    }

    /// Sets the row width (`N`), which must equal the read length.
    #[must_use]
    pub fn row_width(mut self, width: usize) -> Self {
        self.width = width;
        self
    }

    /// Builds a charge-domain (ASMCap) device.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    #[must_use]
    pub fn build_asmcap(&self) -> AsmcapDevice<ChargeDomainCam> {
        AsmcapDevice::from_arrays(
            (0..self.arrays)
                .map(|_| CamArray::asmcap(self.rows, self.width))
                .collect(),
        )
    }

    /// Builds a current-domain (EDAM) device for baseline comparison.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    #[must_use]
    pub fn build_edam(&self) -> AsmcapDevice<CurrentDomainCam> {
        AsmcapDevice::from_arrays(
            (0..self.arrays)
                .map(|_| CamArray::edam(self.rows, self.width))
                .collect(),
        )
    }
}

impl Default for DeviceBuilder {
    fn default() -> Self {
        Self::new()
    }
}

/// A full multi-array device over sensing model `M`.
#[derive(Debug, Clone)]
pub struct AsmcapDevice<M> {
    arrays: Vec<CamArray<M>>,
    origins: Vec<usize>, // flat, in storage order
    // Whether `origins` is strictly ascending (true for one stored
    // reference; a second `store_reference` call restarts at 0 and clears
    // it), which is what lets `rows_for_origins` binary-search instead of
    // scanning.
    origins_sorted: bool,
    width: usize,
}

impl<M: MlCam + SearchEnergy> AsmcapDevice<M> {
    /// Wraps pre-built arrays (all must share one width).
    ///
    /// # Panics
    ///
    /// Panics if `arrays` is empty or widths disagree.
    #[must_use]
    pub fn from_arrays(arrays: Vec<CamArray<M>>) -> Self {
        assert!(!arrays.is_empty(), "a device needs at least one array");
        let width = arrays[0].width();
        assert!(
            arrays.iter().all(|a| a.width() == width),
            "all arrays must share one row width"
        );
        Self {
            arrays,
            origins: Vec::new(),
            origins_sorted: true,
            width,
        }
    }

    /// Row width (= read length) in bases.
    #[must_use]
    pub fn row_width(&self) -> usize {
        self.width
    }

    /// Total row capacity across all arrays.
    #[must_use]
    pub fn capacity_rows(&self) -> usize {
        self.arrays.iter().map(CamArray::max_rows).sum()
    }

    /// Occupied rows.
    #[must_use]
    pub fn stored_rows(&self) -> usize {
        self.origins.len()
    }

    /// Reference capacity in bases at stride `stride`.
    #[must_use]
    pub fn reference_capacity(&self, stride: usize) -> usize {
        self.capacity_rows().saturating_sub(1) * stride + self.width
    }

    /// The arrays, for inspection.
    #[must_use]
    pub fn arrays(&self) -> &[CamArray<M>] {
        &self.arrays
    }

    /// Installs `plan`'s faults on every array (array index = stream
    /// index) and runs each array's self-test quarantine scan at the
    /// pipeline's search `threshold`. Call **after** the reference is
    /// stored so faults land on the occupied rows. An inactive plan
    /// uninstalls all fault state.
    pub fn install_faults(&mut self, plan: &FaultPlan, threshold: usize) {
        for (array_index, array) in self.arrays.iter_mut().enumerate() {
            array.install_faults(plan, array_index, threshold);
        }
    }

    /// Total quarantined rows across all arrays (0 without faults).
    #[must_use]
    pub fn quarantined_rows(&self) -> usize {
        self.arrays.iter().map(CamArray::quarantined_rows).sum()
    }

    /// Whether any array has fault state installed.
    #[must_use]
    pub fn has_faults(&self) -> bool {
        self.arrays.iter().any(|a| a.faults().is_some())
    }

    /// Segments `reference` into row-width windows every `stride` bases and
    /// stores them across the arrays in order.
    ///
    /// Stride 1 stores every alignment offset (needed to map reads sampled
    /// at arbitrary positions); stride = row width maximises the unique
    /// reference a device holds (the paper's 64 Mb figure).
    ///
    /// # Errors
    ///
    /// Returns [`CapacityError`] if the segmentation needs more rows than
    /// the device has; nothing is stored in that case.
    ///
    /// # Panics
    ///
    /// Panics if `stride` is zero or the reference is shorter than one row.
    pub fn store_reference(
        &mut self,
        reference: &DnaSeq,
        stride: usize,
    ) -> Result<usize, CapacityError> {
        self.store_packed_reference(&PackedRef::new(reference), stride)
    }

    /// [`AsmcapDevice::store_reference`] over an already packed reference:
    /// each row is a word-aligned extraction from the single packing, never
    /// an unpack/repack round trip.
    ///
    /// # Errors
    ///
    /// Returns [`CapacityError`] if the segmentation needs more rows than
    /// the device has; nothing is stored in that case.
    ///
    /// # Panics
    ///
    /// Panics if `stride` is zero or the reference is shorter than one row.
    pub fn store_packed_reference(
        &mut self,
        reference: &PackedRef,
        stride: usize,
    ) -> Result<usize, CapacityError> {
        assert!(stride > 0, "stride must be positive");
        assert!(
            reference.len() >= self.width,
            "reference shorter than one row"
        );
        let starts: Vec<usize> = (0..=reference.len() - self.width).step_by(stride).collect();
        let free: usize = self.capacity_rows() - self.stored_rows();
        if starts.len() > free {
            return Err(CapacityError {
                required_rows: starts.len(),
                available_rows: free,
            });
        }
        for &start in &starts {
            let segment = reference.segment(start, self.width).to_packed();
            let array = self
                .arrays
                .iter_mut()
                .find(|a| !a.is_full())
                .expect("capacity checked above");
            array
                .store_row_packed(segment)
                .expect("width and capacity checked");
            if self.origins.last().is_some_and(|&last| start <= last) {
                self.origins_sorted = false;
            }
            self.origins.push(start);
        }
        Ok(starts.len())
    }

    /// One search operation per read: the global buffer latches the read
    /// queue once, each read is broadcast to every array holding one of its
    /// rows, and each array senses its enabled matchlines at threshold `T`
    /// in `mode`.
    ///
    /// The drain is **array-major** — the software model of the paper's
    /// pipelined global buffer: the buffer stages one array, every queued
    /// read senses that array's rows, then the buffer moves on. Read `i`
    /// draws all sensing noise from `rngs[i]`, visiting arrays in index
    /// order and rows in row order, so its result is byte-identical to a
    /// batch of one holding just that read — matches, energy, and RNG
    /// stream state included. A per-read search is a batch of one.
    ///
    /// `rows[i]` gates read `i`: `Some(list)` senses only the listed flat
    /// row ids (storage order, strictly ascending, see
    /// [`AsmcapDevice::rows_for_origins`]); `None` senses every stored
    /// row, exactly like listing them all. An array holding none of a
    /// read's rows issues no search operation and burns no energy for it.
    ///
    /// `fault_rngs[i]` is read `i`'s dedicated fault stream: each array
    /// senses through its installed fault model and the result's stats
    /// carry the `resensed`/`requarried` mitigation counters.
    ///
    /// # Panics
    ///
    /// Panics if `reads`, `rows`, `rngs`, and (when given) `fault_rngs`
    /// lengths differ; if any read width differs from the row width; if a
    /// row list is not strictly ascending or names a row past the stored
    /// ones; or if `fault_rngs` is given without faults installed, or
    /// missing with faults installed — a faulted device is never searched
    /// fault-free by accident.
    #[must_use]
    pub fn search(
        &self,
        reads: &[PackedSeq],
        threshold: usize,
        mode: MatchMode,
        rows: &[Option<Vec<usize>>],
        rngs: &mut [Rng],
        mut fault_rngs: Option<&mut [Rng]>,
    ) -> Vec<DeviceSearchResult> {
        assert_eq!(reads.len(), rows.len(), "one row list per batched read");
        assert_eq!(
            reads.len(),
            rngs.len(),
            "one sensing RNG stream per batched read"
        );
        assert_eq!(
            fault_rngs.is_some(),
            self.has_faults(),
            "fault streams are required exactly when faults are installed"
        );
        if let Some(fault_rngs) = &fault_rngs {
            assert_eq!(
                reads.len(),
                fault_rngs.len(),
                "one fault RNG stream per batched read"
            );
        }
        for read in reads {
            assert_eq!(read.len(), self.width, "read must match the row width");
        }
        for list in rows.iter().flatten() {
            assert!(
                list.windows(2).all(|pair| pair[0] < pair[1]),
                "row list must be strictly ascending"
            );
            assert!(
                list.last().is_none_or(|&last| last < self.origins.len()),
                "row list names a row past the stored ones"
            );
        }
        let mut results: Vec<DeviceSearchResult> = reads
            .iter()
            .map(|_| DeviceSearchResult {
                matches: Vec::new(),
                stats: SearchStats::default(),
            })
            .collect();
        // How far each read's list has been walked: the arrays go by in
        // storage order, so every read's next listed row is at its cursor.
        let mut cursors = vec![0usize; reads.len()];
        let mut local: Vec<usize> = Vec::new();
        let mut flat_base = 0usize;
        for (array_idx, array) in self.arrays.iter().enumerate() {
            if array.rows() == 0 {
                continue;
            }
            let flat_end = flat_base + array.rows();
            for (i, (read, result)) in reads.iter().zip(&mut results).enumerate() {
                let listed = match &rows[i] {
                    None => None,
                    Some(list) => {
                        let rest = &list[cursors[i]..];
                        let here = rest.partition_point(|&flat| flat < flat_end);
                        if here == 0 {
                            continue;
                        }
                        cursors[i] += here;
                        local.clear();
                        local.extend(rest[..here].iter().map(|&flat| flat - flat_base));
                        Some(local.as_slice())
                    }
                };
                let mut tally = FaultTally::default();
                let fault = fault_rngs
                    .as_deref_mut()
                    .map(|fault_rngs| (&mut fault_rngs[i], &mut tally));
                let outcome = array.search(read, threshold, mode, listed, &mut rngs[i], fault);
                result.stats.energy_j += outcome.energy_j;
                result.stats.array_searches += 1;
                result.stats.latency_s = result
                    .stats
                    .latency_s
                    .max(array.sense().cam().search_time_s());
                result.stats.resensed += tally.resensed;
                result.stats.requarried += tally.requarried;
                result
                    .matches
                    .extend(outcome.matches.iter().map(|&(row, n_mis)| DeviceMatch {
                        id: RowId {
                            array: array_idx,
                            row,
                        },
                        origin: self.origins[flat_base + row],
                        n_mis,
                    }));
            }
            flat_base = flat_end;
        }
        results
    }

    /// The flat row ids (storage order, ascending) of every stored row
    /// whose genome origin appears in `origins` — the row list
    /// [`AsmcapDevice::search`] takes for a prefilter shortlist.
    ///
    /// # Errors
    ///
    /// Returns the first origin in `origins` that no stored row holds.
    ///
    /// # Panics
    ///
    /// Panics if `origins` is not strictly ascending (the shape the
    /// prefilter's shortlist hands over).
    pub fn rows_for_origins(&self, origins: &[usize]) -> Result<Vec<usize>, usize> {
        assert!(
            origins.windows(2).all(|pair| pair[0] < pair[1]),
            "candidate origins must be strictly ascending"
        );
        if self.origins_sorted {
            // One stored reference: each candidate binary-searches straight
            // to its row, so the lookup is O(c log rows) — a shortlist must
            // not cost O(reference) to apply.
            origins
                .iter()
                .map(|origin| self.origins.binary_search(origin).map_err(|_| *origin))
                .collect()
        } else {
            let mut found = vec![false; origins.len()];
            let mut rows = Vec::new();
            for (flat, origin) in self.origins.iter().enumerate() {
                if let Ok(i) = origins.binary_search(origin) {
                    found[i] = true;
                    rows.push(flat);
                }
            }
            match origins.iter().zip(&found).find(|(_, &found)| !found) {
                Some((&origin, _)) => Err(origin),
                None => Ok(rows),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use asmcap_circuit::rng;
    use asmcap_genome::GenomeModel;

    fn small_device() -> AsmcapDevice<ChargeDomainCam> {
        DeviceBuilder::new()
            .arrays(4)
            .rows_per_array(16)
            .row_width(64)
            .build_asmcap()
    }

    /// A batch of one through [`AsmcapDevice::search`].
    fn search_one<M: MlCam + SearchEnergy>(
        device: &AsmcapDevice<M>,
        read: &PackedSeq,
        threshold: usize,
        mode: MatchMode,
        rows: Option<&[usize]>,
        rng: &mut Rng,
        fault_rng: Option<&mut Rng>,
    ) -> DeviceSearchResult {
        device
            .search(
                std::slice::from_ref(read),
                threshold,
                mode,
                &[rows.map(<[_]>::to_vec)],
                std::slice::from_mut(rng),
                fault_rng.map(std::slice::from_mut),
            )
            .pop()
            .expect("one result per read")
    }

    #[test]
    fn capacity_accounting() {
        let device = small_device();
        assert_eq!(device.capacity_rows(), 64);
        assert_eq!(device.row_width(), 64);
        assert_eq!(device.reference_capacity(64), 64 * 64);
        assert_eq!(device.reference_capacity(1), 63 + 64);
    }

    #[test]
    fn store_spills_across_arrays() {
        let mut device = small_device();
        let genome = GenomeModel::uniform().generate(offset_len(40, 64, 32), 3);
        let stored = device.store_reference(&genome, 32).unwrap();
        assert_eq!(stored, 40);
        assert_eq!(device.stored_rows(), 40);
        // 16 rows per array: rows spill into the third array.
        assert_eq!(device.arrays()[0].rows(), 16);
        assert_eq!(device.arrays()[1].rows(), 16);
        assert_eq!(device.arrays()[2].rows(), 8);
    }

    fn offset_len(rows: usize, width: usize, stride: usize) -> usize {
        (rows - 1) * stride + width
    }

    #[test]
    fn store_rejects_overflow_atomically() {
        let mut device = small_device();
        let genome = GenomeModel::uniform().generate(10_000, 4);
        let err = device.store_reference(&genome, 1).unwrap_err();
        assert!(err.required_rows > err.available_rows);
        assert_eq!(device.stored_rows(), 0);
    }

    #[test]
    fn search_locates_origin() {
        let mut device = small_device();
        let genome = GenomeModel::uniform().generate(offset_len(60, 64, 16), 7);
        device.store_reference(&genome, 16).unwrap();
        let mut rng = rng(11);
        // Read taken exactly at row 20's origin = 20 * 16 = 320.
        let read = PackedSeq::from_seq(&genome.window(320..384));
        let result = search_one(&device, &read, 0, MatchMode::EdStar, None, &mut rng, None);
        assert!(
            result
                .matches
                .iter()
                .any(|m| m.origin == 320 && m.n_mis == 0),
            "expected an exact match at origin 320, got {:?}",
            result.matches
        );
        assert!(result.stats.energy_j > 0.0);
        assert!(result.stats.latency_s > 0.0);
        assert_eq!(result.stats.array_searches, 4);
    }

    #[test]
    fn full_mask_search_is_byte_identical_to_unmasked() {
        let mut device = small_device();
        let genome = GenomeModel::uniform().generate(offset_len(60, 64, 16), 15);
        device.store_reference(&genome, 16).unwrap();
        let read = PackedSeq::from_seq(&genome.window(320..384));
        let all: Vec<usize> = (0..device.stored_rows()).collect();
        for t in [0usize, 2, 6] {
            let mut rng_a = rng(21);
            let mut rng_b = rng(21);
            let full = search_one(&device, &read, t, MatchMode::EdStar, None, &mut rng_a, None);
            let masked = search_one(
                &device,
                &read,
                t,
                MatchMode::EdStar,
                Some(&all),
                &mut rng_b,
                None,
            );
            assert_eq!(full, masked, "full row list diverged at T={t}");
            // A second search from the same streams agrees too, proving the
            // RNGs stayed in lockstep through the first one.
            assert_eq!(
                search_one(
                    &device,
                    &read,
                    t,
                    MatchMode::Hamming,
                    None,
                    &mut rng_a,
                    None
                ),
                search_one(
                    &device,
                    &read,
                    t,
                    MatchMode::Hamming,
                    Some(&all),
                    &mut rng_b,
                    None
                ),
                "RNG streams fell out of lockstep at T={t}"
            );
        }
    }

    #[test]
    fn masked_search_touches_only_masked_rows() {
        let mut device = small_device();
        let genome = GenomeModel::uniform().generate(offset_len(60, 64, 16), 16);
        device.store_reference(&genome, 16).unwrap();
        let read = PackedSeq::from_seq(&genome.window(320..384));
        // Shortlist exactly the true origin: one row, one array searched.
        let rows = device.rows_for_origins(&[320]).unwrap();
        assert_eq!(rows, vec![20]);
        let mut noise = rng(22);
        let result = search_one(
            &device,
            &read,
            1,
            MatchMode::EdStar,
            Some(&rows),
            &mut noise,
            None,
        );
        assert_eq!(result.stats.array_searches, 1, "idle arrays must be gated");
        assert!(result
            .matches
            .iter()
            .any(|m| m.origin == 320 && m.n_mis == 0));
        // Energy scales with sensed rows: far below the full search.
        let mut noise = rng(22);
        let full = search_one(&device, &read, 1, MatchMode::EdStar, None, &mut noise, None);
        assert!(result.stats.energy_j < full.stats.energy_j / 4.0);

        // An empty row list issues no search at all.
        let mut noise = rng(23);
        let none = search_one(
            &device,
            &read,
            1,
            MatchMode::EdStar,
            Some(&[]),
            &mut noise,
            None,
        );
        assert_eq!(none.stats.array_searches, 0);
        assert_eq!(none.stats.energy_j, 0.0);
        assert!(none.matches.is_empty());
    }

    #[test]
    fn batched_device_search_is_byte_identical_to_sequential() {
        let mut device = small_device();
        let genome = GenomeModel::uniform().generate(offset_len(60, 64, 16), 41);
        device.store_reference(&genome, 16).unwrap();
        let reads: Vec<PackedSeq> = (0..6)
            .map(|i| PackedSeq::from_seq(&genome.window(i * 100..i * 100 + 64)))
            .collect();
        for t in [0usize, 2, 6] {
            let mut batch_rngs: Vec<_> = (0..6).map(|i| rng(500 + i)).collect();
            let batched = device.search(
                &reads,
                t,
                MatchMode::EdStar,
                &vec![None; 6],
                &mut batch_rngs,
                None,
            );
            for (i, read) in reads.iter().enumerate() {
                let mut solo_rng = rng(500 + i as u64);
                let solo = search_one(
                    &device,
                    read,
                    t,
                    MatchMode::EdStar,
                    None,
                    &mut solo_rng,
                    None,
                );
                assert_eq!(batched[i], solo, "read {i} diverged at T={t}");
            }
        }
    }

    #[test]
    fn batched_masked_search_is_byte_identical_to_sequential_masked() {
        let mut device = small_device();
        let genome = GenomeModel::uniform().generate(offset_len(60, 64, 16), 42);
        device.store_reference(&genome, 16).unwrap();
        let reads: Vec<PackedSeq> = (0..7)
            .map(|i| PackedSeq::from_seq(&genome.window(i * 100..i * 100 + 64)))
            .collect();
        // Row lists of very different shapes (60 rows over arrays of 16):
        // a full scan, an empty list, one row in the last array, a list
        // spanning the first array boundary, and adversarially skewed
        // strides (read 4 senses almost everything, read 6 one row per
        // array).
        let rows: Vec<Option<Vec<usize>>> = vec![
            None,
            Some(vec![]),
            Some(vec![59]),
            Some(vec![14, 15, 16, 17]),
            Some((0..60).step_by(2).collect()),
            Some((0..60).step_by(9).collect()),
            Some((0..60).step_by(16).collect()),
        ];
        let mut batch_rngs: Vec<_> = (0..7).map(|i| rng(900 + i)).collect();
        let batched = device.search(&reads, 2, MatchMode::EdStar, &rows, &mut batch_rngs, None);
        for (i, read) in reads.iter().enumerate() {
            let mut solo_rng = rng(900 + i as u64);
            let solo = search_one(
                &device,
                read,
                2,
                MatchMode::EdStar,
                rows[i].as_deref(),
                &mut solo_rng,
                None,
            );
            assert_eq!(batched[i], solo, "listed read {i} diverged");
            assert_eq!(batch_rngs[i].get_word_pos(), solo_rng.get_word_pos());
        }
        assert_eq!(batched[1].stats.array_searches, 0);
        assert_eq!(batched[2].stats.array_searches, 1);
        assert_eq!(batched[3].stats.array_searches, 2);
        // A batch listing every row degenerates to the full-scan batch.
        let full = vec![Some((0..device.stored_rows()).collect::<Vec<_>>()); 7];
        let mut a: Vec<_> = (0..7).map(|i| rng(31 + i)).collect();
        let mut b: Vec<_> = (0..7).map(|i| rng(31 + i)).collect();
        assert_eq!(
            device.search(&reads, 2, MatchMode::EdStar, &full, &mut a, None),
            device.search(&reads, 2, MatchMode::EdStar, &vec![None; 7], &mut b, None),
        );
    }

    #[test]
    fn rows_for_origins_selects_matching_rows() {
        let mut device = small_device();
        let genome = GenomeModel::uniform().generate(offset_len(20, 64, 64), 17);
        device.store_reference(&genome, 64).unwrap();
        assert_eq!(device.rows_for_origins(&[0, 192, 640]), Ok(vec![0, 3, 10]));
        // Origins not on the stored grid are reported, not dropped.
        assert_eq!(device.rows_for_origins(&[1, 65]), Err(1));
        assert_eq!(device.rows_for_origins(&[0, 65]), Err(65));
    }

    #[test]
    fn rows_for_origins_survives_a_second_stored_reference() {
        // Two references stored back to back: the flat origin list restarts
        // at 0, so the sorted binary-search fast path must disable itself
        // and the duplicate origin must select *both* rows.
        let mut device = small_device();
        let g1 = GenomeModel::uniform().generate(offset_len(10, 64, 64), 31);
        let g2 = GenomeModel::uniform().generate(offset_len(10, 64, 64), 32);
        device.store_reference(&g1, 64).unwrap();
        device.store_reference(&g2, 64).unwrap();
        assert_eq!(
            device.rows_for_origins(&[128]),
            Ok(vec![2, 12]),
            "both stored copies of origin 128"
        );
        assert_eq!(device.rows_for_origins(&[128, 129]), Err(129));
        // A second reference may also restart exactly at the last origin.
        let mut device = small_device();
        device.store_reference(&g1.window(0..64), 64).unwrap();
        device.store_reference(&g2, 64).unwrap();
        assert_eq!(device.rows_for_origins(&[0]), Ok(vec![0, 1]));
    }

    #[test]
    fn device_fault_install_is_observable_and_inactive_plan_clears() {
        let mut device = small_device();
        let genome = GenomeModel::uniform().generate(offset_len(60, 64, 16), 51);
        device.store_reference(&genome, 16).unwrap();
        assert!(!device.has_faults());
        let plan = FaultPlan {
            seed: 2,
            dead_row_rate: 1.0,
            selftest_trials: 3,
            ..FaultPlan::none()
        };
        device.install_faults(&plan, 6);
        assert!(device.has_faults());
        assert_eq!(device.quarantined_rows(), device.stored_rows());
        let read = PackedSeq::from_seq(&genome.window(320..384));
        let result = search_one(
            &device,
            &read,
            6,
            MatchMode::EdStar,
            None,
            &mut rng(1),
            Some(&mut plan.read_fault_rng(1)),
        );
        assert_eq!(result.stats.requarried, device.stored_rows() as u64);
        // Quarantined rows answer exactly: the true origin matches.
        assert!(result.matches.iter().any(|m| m.origin == 320));
        device.install_faults(&FaultPlan::none(), 6);
        assert!(!device.has_faults());
        assert_eq!(device.quarantined_rows(), 0);
    }

    #[test]
    fn fault_streams_must_match_the_installed_state() {
        let mut device = small_device();
        let genome = GenomeModel::uniform().generate(offset_len(60, 64, 16), 54);
        device.store_reference(&genome, 16).unwrap();
        let read = PackedSeq::from_seq(&genome.window(160..224));
        let plan = FaultPlan::paper_corner(3);
        let search = |device: &AsmcapDevice<ChargeDomainCam>, with_stream: bool| {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let mut fault_rng = plan.read_fault_rng(1);
                search_one(
                    device,
                    &read,
                    4,
                    MatchMode::EdStar,
                    None,
                    &mut rng(1),
                    with_stream.then_some(&mut fault_rng),
                )
            }))
        };
        assert!(search(&device, true).is_err(), "stream without faults");
        device.install_faults(&plan, 4);
        assert!(search(&device, false).is_err(), "faults without stream");
        assert!(search(&device, true).is_ok());
    }

    #[test]
    fn faultless_faulted_search_is_byte_identical_to_plain() {
        let mut plain_device = small_device();
        let genome = GenomeModel::uniform().generate(offset_len(60, 64, 16), 52);
        plain_device.store_reference(&genome, 16).unwrap();
        // An active plan whose rates inject nothing: the faulted walk runs
        // but perturbs no row.
        let plan = FaultPlan {
            seed: 5,
            dead_row_rate: f64::MIN_POSITIVE,
            ..FaultPlan::none()
        };
        let mut faulted_device = plain_device.clone();
        faulted_device.install_faults(&plan, 4);
        assert!(faulted_device.has_faults());
        let read = PackedSeq::from_seq(&genome.window(160..224));
        let mut rng_a = rng(61);
        let mut rng_b = rng(61);
        let plain = search_one(
            &plain_device,
            &read,
            4,
            MatchMode::EdStar,
            None,
            &mut rng_a,
            None,
        );
        let faulted = search_one(
            &faulted_device,
            &read,
            4,
            MatchMode::EdStar,
            None,
            &mut rng_b,
            Some(&mut plan.read_fault_rng(61)),
        );
        assert_eq!(plain, faulted);
        assert_eq!(faulted.stats.resensed, 0);
        assert_eq!(faulted.stats.requarried, 0);
    }

    #[test]
    fn faulted_batch_is_byte_identical_to_solo_faulted() {
        let mut device = small_device();
        let genome = GenomeModel::uniform().generate(offset_len(60, 64, 16), 53);
        device.store_reference(&genome, 16).unwrap();
        let plan = FaultPlan::paper_corner(17);
        device.install_faults(&plan, 4);
        let reads: Vec<PackedSeq> = (0..5)
            .map(|i| PackedSeq::from_seq(&genome.window(i * 120..i * 120 + 64)))
            .collect();
        // Full scans, every row listed, and partial lists: in a batch each
        // read senses exactly as alone, fault stream included.
        let all: Vec<usize> = (0..device.stored_rows()).collect();
        let partial = vec![
            Some(vec![3, 17, 40]),
            None,
            Some(vec![]),
            Some(vec![59]),
            Some((10..34).collect()),
        ];
        let batches: Vec<_> = [vec![None; 5], vec![Some(all); 5], partial]
            .iter()
            .map(|rows| {
                let mut rngs: Vec<_> = (0..5).map(|i| rng(700 + i)).collect();
                let mut fault_rngs: Vec<_> = (0..5).map(|i| plan.read_fault_rng(700 + i)).collect();
                let batched = device.search(
                    &reads,
                    4,
                    MatchMode::EdStar,
                    rows,
                    &mut rngs,
                    Some(&mut fault_rngs),
                );
                for (i, read) in reads.iter().enumerate() {
                    let mut solo = rng(700 + i as u64);
                    let mut solo_fault = plan.read_fault_rng(700 + i as u64);
                    let want = search_one(
                        &device,
                        read,
                        4,
                        MatchMode::EdStar,
                        rows[i].as_deref(),
                        &mut solo,
                        Some(&mut solo_fault),
                    );
                    assert_eq!(batched[i], want, "faulted read {i} diverged");
                    assert_eq!(rngs[i].get_word_pos(), solo.get_word_pos());
                    assert_eq!(fault_rngs[i].get_word_pos(), solo_fault.get_word_pos());
                }
                batched
            })
            .collect();
        // Listing every row degenerates to the full-scan faulted walk.
        assert_eq!(batches[0], batches[1]);
    }

    #[test]
    fn edam_device_builds_and_searches() {
        let mut device = DeviceBuilder::new()
            .arrays(2)
            .rows_per_array(8)
            .row_width(32)
            .build_edam();
        let genome = GenomeModel::uniform().generate(offset_len(10, 32, 32), 5);
        device.store_reference(&genome, 32).unwrap();
        let mut rng = rng(13);
        let read = PackedSeq::from_seq(&genome.window(0..32));
        let result = search_one(&device, &read, 1, MatchMode::EdStar, None, &mut rng, None);
        assert!(result.matches.iter().any(|m| m.origin == 0));
    }
}
