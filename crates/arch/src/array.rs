//! The `M×N` CAM array (paper Fig. 4b).
//!
//! Each row stores a reference segment as wide as the incoming read; a
//! search drives the read onto the searchlines, every cell compares in
//! parallel, the per-row mismatch counts land on the matchlines, and the
//! sense amplifiers compare against `V_ref`. The sensing path is pluggable:
//! [`CamArray::asmcap`] uses the charge-domain model,
//! [`CamArray::edam`] the current-domain model.
//!
//! Rows are held 2-bit packed — one base per two SRAM bits, as in the
//! silicon — and a search runs in two stages mirroring the hardware split:
//! a **digital pre-pass** computes every row's exact mismatch count
//! `n_mis` with the word-parallel kernels (32 cells per instruction; what
//! the cell comparison logic encodes on the matchline), then the **analog
//! stage** senses each count against `V_ref(threshold)` through the noisy
//! sense-amplifier model, in row order. The per-cell functional model the
//! pre-pass vectorises lives in [`crate::cell`] / [`crate::driver`].
//!
//! Draw discipline: each sensed row owns one draw's worth of words of the
//! read's noise stream, in row order, seeked past when the decision is
//! sure. Most rows sit many noise sigmas from `V_ref` (an unrelated
//! segment at `T = 6` has `n_mis` near 50 on a 128-cell row, where σ
//! stays below 0.2 states), so every draw would give them the same
//! answer; [`SenseAmp::decide`] takes that answer from the model's sure
//! support ([`MlCam::measure_support`]) and seeks the stream past their
//! words. Only rows near the threshold pay for the Gaussian draw, and the
//! stream ends exactly where drawing every row would have left it.

use crate::fault::{ArrayFaults, FaultPlan, FaultTally};
use asmcap_circuit::energy::{asmcap_array_search_energy, edam_array_search_energy};
use asmcap_circuit::{ChargeDomainCam, CurrentDomainCam, MlCam, Rng, SenseAmp, VrefPolicy};
use asmcap_genome::{Base, PackedSeq};
use asmcap_metrics::{ed_star_packed, hamming_packed};
use std::fmt;

/// The shared MUX select signal `S`: which distance the array evaluates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MatchMode {
    /// `S = 1`: cell matches if any of `O_L`, `O_C`, `O_R` matched (ED\*).
    #[default]
    EdStar,
    /// `S = 0`: only the co-located comparison counts (Hamming distance).
    Hamming,
}

impl fmt::Display for MatchMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MatchMode::EdStar => write!(f, "ED*"),
            MatchMode::Hamming => write!(f, "HD"),
        }
    }
}

/// Per-search energy model of a sensing domain; implemented for the two CAM
/// models so the array can account energy without knowing its domain.
pub trait SearchEnergy {
    /// Energy in joules of one search over a `rows × width` array whose
    /// rows average `mean_n_mis` mismatched cells.
    fn search_energy_j(&self, rows: usize, width: usize, mean_n_mis: f64) -> f64;
}

impl SearchEnergy for ChargeDomainCam {
    fn search_energy_j(&self, rows: usize, width: usize, mean_n_mis: f64) -> f64 {
        asmcap_array_search_energy(self.params(), rows, width, mean_n_mis)
    }
}

impl SearchEnergy for CurrentDomainCam {
    fn search_energy_j(&self, rows: usize, width: usize, mean_n_mis: f64) -> f64 {
        let _ = mean_n_mis; // EDAM pre-charges and discharges regardless
        edam_array_search_energy(self.params(), rows, width)
    }
}

/// Error returned by [`CamArray::store_row`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreRowError {
    /// All `M` rows are occupied.
    ArrayFull,
    /// The segment length differs from the array width.
    WidthMismatch {
        /// Configured array width.
        expected: usize,
        /// Length of the rejected segment.
        actual: usize,
    },
}

impl fmt::Display for StoreRowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreRowError::ArrayFull => write!(f, "array is full"),
            StoreRowError::WidthMismatch { expected, actual } => {
                write!(
                    f,
                    "segment of {actual} bases does not fit {expected}-wide rows"
                )
            }
        }
    }
}

impl std::error::Error for StoreRowError {}

/// Result of one array search operation.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchOutcome {
    /// `(row, n_mis)` of each row the SAs declared matching, in row order.
    /// `n_mis` is the count the matchline encodes: the exact digital
    /// count, or the stuck-cell-perturbed effective count when faults are
    /// installed.
    pub matches: Vec<(usize, usize)>,
    /// Number of rows sensed.
    pub sensed: usize,
    /// Energy consumed by this search, in joules.
    pub energy_j: f64,
}

/// An `M×N` content-addressable array over sensing model `M`.
///
/// # Examples
///
/// ```
/// use asmcap_arch::{CamArray, MatchMode};
/// use asmcap_genome::{DnaSeq, PackedSeq};
///
/// let mut array = CamArray::asmcap(4, 8);
/// array.store_row("ACGTACGT".parse::<DnaSeq>()?.as_slice())?;
/// array.store_row("TTTTTTTT".parse::<DnaSeq>()?.as_slice())?;
/// let mut rng = asmcap_circuit::rng(1);
/// let read = PackedSeq::from_seq(&"ACGTACGA".parse()?);
/// let outcome = array.search(&read, 2, MatchMode::EdStar, None, &mut rng, None);
/// assert_eq!(outcome.matches, vec![(0, 1)]);
/// assert_eq!(outcome.sensed, 2);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct CamArray<M> {
    rows: Vec<PackedSeq>,
    width: usize,
    max_rows: usize,
    sense: SenseAmp<M>,
    supports_hd: bool,
    faults: Option<ArrayFaults>,
}

impl CamArray<ChargeDomainCam> {
    /// An ASMCap array with the paper's charge-domain sensing and centred
    /// `V_ref` placement.
    ///
    /// # Panics
    ///
    /// Panics if `max_rows` or `width` is zero.
    #[must_use]
    pub fn asmcap(max_rows: usize, width: usize) -> Self {
        Self::with_sense(
            max_rows,
            width,
            SenseAmp::new(ChargeDomainCam::paper(), VrefPolicy::Centered),
            true,
        )
    }
}

impl CamArray<CurrentDomainCam> {
    /// An EDAM array with current-domain sensing. EDAM hardware has no HD
    /// MUX, so [`MatchMode::Hamming`] searches panic.
    ///
    /// # Panics
    ///
    /// Panics if `max_rows` or `width` is zero.
    #[must_use]
    pub fn edam(max_rows: usize, width: usize) -> Self {
        Self::with_sense(
            max_rows,
            width,
            SenseAmp::new(CurrentDomainCam::paper(), VrefPolicy::Centered),
            false,
        )
    }
}

impl<M: MlCam + SearchEnergy> CamArray<M> {
    /// An array with a custom sense amplifier configuration.
    ///
    /// # Panics
    ///
    /// Panics if `max_rows` or `width` is zero.
    #[must_use]
    pub fn with_sense(
        max_rows: usize,
        width: usize,
        sense: SenseAmp<M>,
        supports_hd: bool,
    ) -> Self {
        assert!(
            max_rows > 0 && width > 0,
            "array dimensions must be positive"
        );
        Self {
            rows: Vec::new(),
            width,
            max_rows,
            sense,
            supports_hd,
            faults: None,
        }
    }

    /// Row width `N` in cells.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Occupied row count.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows.len()
    }

    /// Maximum row count `M`.
    #[must_use]
    pub fn max_rows(&self) -> usize {
        self.max_rows
    }

    /// Whether every row is occupied.
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.rows.len() == self.max_rows
    }

    /// The sense amplifier (and through it, the sensing model).
    #[must_use]
    pub fn sense(&self) -> &SenseAmp<M> {
        &self.sense
    }

    /// Writes `segment` into the next free row and returns its row index.
    ///
    /// # Errors
    ///
    /// [`StoreRowError::ArrayFull`] when all rows are occupied, and
    /// [`StoreRowError::WidthMismatch`] when the segment length differs from
    /// the array width.
    pub fn store_row(&mut self, segment: &[Base]) -> Result<usize, StoreRowError> {
        if segment.len() != self.width {
            return Err(StoreRowError::WidthMismatch {
                expected: self.width,
                actual: segment.len(),
            });
        }
        self.store_row_packed(PackedSeq::from_bases(segment))
    }

    /// Writes an already packed `segment` into the next free row — the
    /// zero-repack path [`crate::AsmcapDevice::store_reference`] uses when
    /// segmenting a packed reference.
    ///
    /// # Errors
    ///
    /// Same contract as [`CamArray::store_row`].
    pub fn store_row_packed(&mut self, segment: PackedSeq) -> Result<usize, StoreRowError> {
        if segment.len() != self.width {
            return Err(StoreRowError::WidthMismatch {
                expected: self.width,
                actual: segment.len(),
            });
        }
        if self.is_full() {
            return Err(StoreRowError::ArrayFull);
        }
        self.rows.push(segment);
        Ok(self.rows.len() - 1)
    }

    /// The segment stored in `row`, or `None` for an unoccupied row.
    #[must_use]
    pub fn stored_row(&self, row: usize) -> Option<Vec<Base>> {
        self.rows
            .get(row)
            .map(|packed| packed.to_seq().into_bases())
    }

    /// The noiseless mismatch count of `read` against `row` in `mode`
    /// (exactly what the matchline encodes before sensing noise).
    ///
    /// # Panics
    ///
    /// Panics if the row does not exist, the read width differs, or HD mode
    /// is requested on hardware without the HD MUX.
    #[must_use]
    pub fn row_mismatches(&self, row: usize, read: &[Base], mode: MatchMode) -> usize {
        assert_eq!(read.len(), self.width, "read must match the array width");
        self.row_mismatches_packed(row, &PackedSeq::from_bases(read), mode)
    }

    /// [`CamArray::row_mismatches`] over an already packed read: the
    /// word-parallel digital pre-pass for one row.
    ///
    /// # Panics
    ///
    /// Same contract as [`CamArray::row_mismatches`].
    #[must_use]
    pub fn row_mismatches_packed(&self, row: usize, read: &PackedSeq, mode: MatchMode) -> usize {
        assert_eq!(read.len(), self.width, "read must match the array width");
        self.check_mode(mode);
        match mode {
            MatchMode::EdStar => ed_star_packed(&self.rows[row], read),
            MatchMode::Hamming => hamming_packed(&self.rows[row], read),
        }
    }

    /// One in-array search: the read is broadcast on the searchlines and
    /// each enabled matchline is sensed against `V_ref(threshold)`.
    ///
    /// `rows` is the controller's row gating: `None` senses every occupied
    /// row, `Some(list)` only the listed rows (strictly ascending). Either
    /// way each sensed row runs the word-parallel digital pre-pass (its
    /// exact `n_mis`) and then the analog sense, in ascending row order.
    /// Each sensed row owns one draw's worth of stream words of `rng`,
    /// seeked past when the decision is sure, so the stream is consumed
    /// exactly as a full search would reach those rows, and listing every
    /// row is byte-identical to `None`. The energy model is charged for the
    /// sensed rows only — unlisted matchlines stay pre-charged and
    /// untouched.
    ///
    /// `fault` is the read's dedicated fault stream and the tally its
    /// mitigations accumulate into. The fault model applies when faults
    /// are installed ([`CamArray::install_faults`]); without them the
    /// stream is ignored and the search is the fault-free one.
    ///
    /// # Panics
    ///
    /// Panics if the read width differs from the array width, HD mode is
    /// requested on hardware without the HD MUX, `rows` is not strictly
    /// ascending, a listed row is unoccupied, or faults are installed and
    /// `fault` is `None`.
    #[must_use]
    pub fn search(
        &self,
        read: &PackedSeq,
        threshold: usize,
        mode: MatchMode,
        rows: Option<&[usize]>,
        rng: &mut Rng,
        fault: Option<(&mut Rng, &mut FaultTally)>,
    ) -> SearchOutcome {
        assert_eq!(read.len(), self.width, "read must match the array width");
        self.check_mode(mode);
        match rows {
            None => self.sense_rows(
                self.rows.iter().enumerate(),
                read,
                threshold,
                mode,
                rng,
                fault,
            ),
            Some(list) => {
                assert!(
                    list.windows(2).all(|pair| pair[0] < pair[1]),
                    "row shortlist must be strictly ascending"
                );
                self.sense_rows(
                    list.iter().map(|&row| (row, &self.rows[row])),
                    read,
                    threshold,
                    mode,
                    rng,
                    fault,
                )
            }
        }
    }

    /// The per-row body of [`CamArray::search`]: the fault branch is picked
    /// once from the installed state, then each row's digital count is
    /// sensed in the order `rows` yields them.
    fn sense_rows<'a>(
        &'a self,
        rows: impl Iterator<Item = (usize, &'a PackedSeq)>,
        read: &PackedSeq,
        threshold: usize,
        mode: MatchMode,
        rng: &mut Rng,
        fault: Option<(&mut Rng, &mut FaultTally)>,
    ) -> SearchOutcome {
        let count = |stored: &PackedSeq| match mode {
            MatchMode::EdStar => ed_star_packed(stored, read),
            MatchMode::Hamming => hamming_packed(stored, read),
        };
        match (&self.faults, fault) {
            // Counting draws nothing from the RNG, so fusing the digital
            // pre-pass with the sense row by row keeps the noise stream
            // identical to a separate pre-pass without a counts buffer.
            (None, _) => self.finish_outcome(rows.map(|(row, stored)| {
                let n_mis = count(stored);
                let matched = self.sense.decide(n_mis, self.width, threshold, rng);
                (row, n_mis, matched)
            })),
            (Some(faults), Some((fault_rng, tally))) => {
                self.finish_outcome(rows.map(|(row, stored)| {
                    let n_true = count(stored);
                    let (n_mis, matched) = self.sense_row_faulty(
                        faults, row, stored, read, n_true, threshold, mode, rng, fault_rng, tally,
                    );
                    (row, n_mis, matched)
                }))
            }
            (Some(_), None) => panic!("a faulted array needs the read's fault stream"),
        }
    }

    /// Instantiates and installs `plan`'s faults for this array (as array
    /// number `array_index` of the device), then runs the self-test
    /// quarantine scan: each row is sensed `selftest_trials` times against
    /// its own stored word (expected mismatch count = the row's welded
    /// stuck-at-mismatch cells) from the dedicated self-test stream; rows
    /// failing a strict majority of trials — dead rows always do — are
    /// quarantined. An inactive plan uninstalls any fault state.
    ///
    /// Call after the rows are stored: faults are instantiated for the
    /// occupied rows only.
    pub fn install_faults(&mut self, plan: &FaultPlan, array_index: usize, threshold: usize) {
        if !plan.is_active() {
            self.faults = None;
            return;
        }
        let mut faults = plan.instantiate(array_index, self.rows.len(), self.width);
        if plan.selftest_trials > 0 {
            let mut rng = plan.selftest_rng(array_index);
            let drift = faults.drift_states;
            for rf in &mut faults.rows {
                let self_mis = rf.self_mismatches();
                let mut fails = 0u32;
                for _ in 0..plan.selftest_trials {
                    // A dead matchline fails every trial without sensing;
                    // live rows own one self-test draw per trial.
                    let pass = !rf.dead
                        && self
                            .sense
                            .decide_with_offset(self_mis, self.width, threshold, drift, &mut rng);
                    fails += u32::from(!pass);
                }
                rf.quarantined = fails * 2 > plan.selftest_trials;
            }
        }
        self.faults = Some(faults);
    }

    /// The installed fault state, if any.
    #[must_use]
    pub fn faults(&self) -> Option<&ArrayFaults> {
        self.faults.as_ref()
    }

    /// Number of quarantined rows (0 when no faults are installed).
    #[must_use]
    pub fn quarantined_rows(&self) -> usize {
        self.faults
            .as_ref()
            .map_or(0, ArrayFaults::quarantined_rows)
    }

    /// One row's fault-aware decision: `(n_reported, matched)`.
    ///
    /// Draw discipline — the invariant the determinism pins rely on:
    /// one draw's worth of stream words from the main sensing stream `rng`
    /// per live, non-quarantined row, seeked past when the decision is
    /// sure (quarantined and dead rows consume nothing), and every
    /// transient-flip or re-sense draw comes from the dedicated per-read
    /// `fault_rng` under the same rule, so the sensing stream's order
    /// matches the fault-free path row for row.
    #[allow(clippy::too_many_arguments)]
    fn sense_row_faulty(
        &self,
        faults: &ArrayFaults,
        row: usize,
        stored: &PackedSeq,
        read: &PackedSeq,
        n_true: usize,
        threshold: usize,
        mode: MatchMode,
        rng: &mut Rng,
        fault_rng: &mut Rng,
        tally: &mut FaultTally,
    ) -> (usize, bool) {
        // Rows stored after the plan was installed have no fault entry and
        // sense cleanly.
        let Some(rf) = faults.rows.get(row) else {
            return (
                n_true,
                self.sense.decide(n_true, self.width, threshold, rng),
            );
        };
        if rf.quarantined {
            // The controller answers from its pristine stored copy: exact
            // digital comparison, no analog sense, no draws.
            tally.requarried += 1;
            return (n_true, n_true <= threshold);
        }
        let n_eff = if rf.stuck.is_empty() {
            n_true
        } else {
            ArrayFaults::effective_n_mis(rf, stored, read, n_true, mode)
        };
        if rf.dead {
            // The matchline never discharges; the SA reads "no match".
            return (n_eff, false);
        }
        let drift = faults.drift_states;
        let flip_rate = faults.transient_flip_rate;
        let mut decision = self
            .sense
            .decide_with_offset(n_eff, self.width, threshold, drift, rng);
        if flip_rate > 0.0 && asmcap_circuit::noise::uniform(fault_rng) < flip_rate {
            decision = !decision;
        }
        // Re-sense voting: when the analog decision disagrees with the
        // matchline's digital expectation, sense again and let the
        // majority win. Extra senses draw from the fault stream so the
        // main stream stays in lockstep with the unvoted path.
        let expected = n_eff <= threshold;
        if faults.resense_votes > 1 && decision != expected {
            tally.resensed += 1;
            let mut yes = u32::from(decision);
            for _ in 1..faults.resense_votes {
                let mut vote = self
                    .sense
                    .decide_with_offset(n_eff, self.width, threshold, drift, fault_rng);
                if flip_rate > 0.0 && asmcap_circuit::noise::uniform(fault_rng) < flip_rate {
                    vote = !vote;
                }
                yes += u32::from(vote);
            }
            decision = yes * 2 > faults.resense_votes;
        }
        (n_eff, decision)
    }

    /// Folds the sensed `(row, n_mis, matched)` triples into an outcome,
    /// charging energy at the sensed rows' mean `n_mis`. The sum is kept
    /// in integers: every partial sum of a float sum would be an integer
    /// below 2^53 too, so the mean is bit-identical to one.
    fn finish_outcome(&self, sensed: impl Iterator<Item = (usize, usize, bool)>) -> SearchOutcome {
        let mut matches = Vec::new();
        let (mut rows, mut n_mis_sum) = (0usize, 0usize);
        for (row, n_mis, matched) in sensed {
            rows += 1;
            n_mis_sum += n_mis;
            if matched {
                matches.push((row, n_mis));
            }
        }
        let mean = if rows == 0 {
            0.0
        } else {
            n_mis_sum as f64 / rows as f64
        };
        SearchOutcome {
            matches,
            sensed: rows,
            energy_j: self.sense.cam().search_energy_j(rows, self.width, mean),
        }
    }

    fn check_mode(&self, mode: MatchMode) {
        assert!(
            self.supports_hd || mode == MatchMode::EdStar,
            "this CAM has no HD-mode MUX (EDAM hardware)"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asmcap_circuit::{noise, rng};
    use asmcap_genome::{DnaSeq, GenomeModel};

    fn seq(s: &str) -> DnaSeq {
        s.parse().expect("valid test sequence")
    }

    #[test]
    fn store_and_read_back() {
        let mut array = CamArray::asmcap(2, 4);
        let row = array.store_row(seq("ACGT").as_slice()).unwrap();
        assert_eq!(row, 0);
        assert_eq!(array.stored_row(0).unwrap(), seq("ACGT").into_bases());
        assert!(array.stored_row(1).is_none());
    }

    #[test]
    fn store_rejects_bad_width_and_overflow() {
        let mut array = CamArray::asmcap(1, 4);
        assert_eq!(
            array.store_row(seq("ACG").as_slice()),
            Err(StoreRowError::WidthMismatch {
                expected: 4,
                actual: 3
            })
        );
        array.store_row(seq("ACGT").as_slice()).unwrap();
        assert_eq!(
            array.store_row(seq("TTTT").as_slice()),
            Err(StoreRowError::ArrayFull)
        );
    }

    #[test]
    fn mismatch_counts_agree_with_metrics() {
        let genome = GenomeModel::uniform().generate(4_000, 5);
        let mut array = CamArray::asmcap(8, 64);
        for i in 0..8 {
            array
                .store_row(&genome.as_slice()[i * 100..i * 100 + 64])
                .unwrap();
        }
        let read = &genome.as_slice()[1234..1298];
        for row in 0..8 {
            let stored = array.stored_row(row).unwrap();
            assert_eq!(
                array.row_mismatches(row, read, MatchMode::EdStar),
                asmcap_metrics::ed_star(&stored, read),
                "ED* mismatch on row {row}"
            );
            assert_eq!(
                array.row_mismatches(row, read, MatchMode::Hamming),
                asmcap_metrics::hamming(&stored, read),
                "HD mismatch on row {row}"
            );
        }
    }

    #[test]
    fn search_finds_exact_row() {
        let mut array = CamArray::asmcap(4, 32);
        let genome = GenomeModel::uniform().generate(400, 9);
        for i in 0..4 {
            array
                .store_row(&genome.as_slice()[i * 40..i * 40 + 32])
                .unwrap();
        }
        let mut rng = rng(2);
        let read = PackedSeq::from_bases(&genome.as_slice()[80..112]); // row 2's segment
        let outcome = array.search(&read, 0, MatchMode::EdStar, None, &mut rng, None);
        assert_eq!(outcome.matches, vec![(2, 0)]);
        assert_eq!(outcome.sensed, 4);
    }

    #[test]
    fn edam_array_rejects_hd_mode() {
        let mut array = CamArray::edam(2, 8);
        array.store_row(seq("ACGTACGT").as_slice()).unwrap();
        let mut rng = rng(3);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let read = PackedSeq::from_seq(&seq("ACGTACGT"));
            array.search(&read, 1, MatchMode::Hamming, None, &mut rng, None)
        }));
        assert!(result.is_err());
    }

    #[test]
    fn search_reports_energy() {
        let mut asmcap = CamArray::asmcap(4, 32);
        let mut edam = CamArray::edam(4, 32);
        let genome = GenomeModel::uniform().generate(200, 1);
        for i in 0..4 {
            asmcap
                .store_row(&genome.as_slice()[i * 40..i * 40 + 32])
                .unwrap();
            edam.store_row(&genome.as_slice()[i * 40..i * 40 + 32])
                .unwrap();
        }
        let mut rng = rng(4);
        let read = PackedSeq::from_bases(&genome.as_slice()[60..92]);
        let a = asmcap.search(&read, 2, MatchMode::EdStar, None, &mut rng, None);
        let e = edam.search(&read, 2, MatchMode::EdStar, None, &mut rng, None);
        assert!(a.energy_j > 0.0);
        assert!(
            e.energy_j > a.energy_j,
            "EDAM should burn more energy per search"
        );
    }

    #[test]
    fn batched_search_is_byte_identical_to_sequential() {
        let genome = GenomeModel::uniform().generate(4_000, 8);
        let mut array = CamArray::asmcap(12, 64);
        for i in 0..12 {
            array
                .store_row(&genome.as_slice()[i * 120..i * 120 + 64])
                .unwrap();
        }
        let reads: Vec<asmcap_genome::PackedSeq> = (0..5)
            .map(|i| asmcap_genome::PackedSeq::from_seq(&genome.window(i * 300..i * 300 + 64)))
            .collect();
        for mode in [MatchMode::EdStar, MatchMode::Hamming] {
            // The device's array-major drain: the queue shares this array,
            // each read on its own stream.
            let mut batch_rngs: Vec<_> = (0..5).map(|i| rng(100 + i)).collect();
            let batched: Vec<SearchOutcome> = reads
                .iter()
                .zip(&mut batch_rngs)
                .map(|(read, r)| array.search(read, 2, mode, None, r, None))
                .collect();
            for (i, read) in reads.iter().enumerate() {
                let mut solo_rng = rng(100 + i as u64);
                let solo = array.search(read, 2, mode, None, &mut solo_rng, None);
                assert_eq!(batched[i], solo, "read {i} diverged in {mode} mode");
            }
            // The RNG streams stayed in lockstep with the sequential path:
            // a follow-up search from each stream agrees too.
            for (i, read) in reads.iter().enumerate() {
                let mut solo_rng = rng(100 + i as u64);
                let _ = array.search(read, 2, mode, None, &mut solo_rng, None);
                assert_eq!(
                    array.search(read, 5, mode, None, &mut batch_rngs[i], None),
                    array.search(read, 5, mode, None, &mut solo_rng, None),
                    "stream {i} fell out of lockstep"
                );
            }
        }
    }

    fn faulty_test_array() -> CamArray<ChargeDomainCam> {
        let genome = GenomeModel::uniform().generate(8_000, 31);
        let mut array = CamArray::asmcap(32, 64);
        for i in 0..32 {
            array
                .store_row(&genome.as_slice()[i * 200..i * 200 + 64])
                .unwrap();
        }
        array
    }

    #[test]
    fn inactive_plan_installs_nothing_and_search_is_byte_identical() {
        let mut array = faulty_test_array();
        array.install_faults(&FaultPlan::none(), 0, 6);
        assert!(array.faults().is_none());
        assert_eq!(array.quarantined_rows(), 0);
        let read = array
            .stored_row(3)
            .map(|bases| PackedSeq::from_bases(&bases))
            .unwrap();
        let mut tally = FaultTally::default();
        let mut plain_rng = rng(42);
        let mut fault_path_rng = rng(42);
        let mut fault_rng = FaultPlan::none().read_fault_rng(42);
        let plain = array.search(&read, 6, MatchMode::EdStar, None, &mut plain_rng, None);
        let faulted = array.search(
            &read,
            6,
            MatchMode::EdStar,
            None,
            &mut fault_path_rng,
            Some((&mut fault_rng, &mut tally)),
        );
        assert_eq!(plain, faulted);
        assert_eq!(tally, FaultTally::default());
        // The main stream consumed identically on both paths.
        assert_eq!(
            array.search(&read, 6, MatchMode::EdStar, None, &mut plain_rng, None),
            array.search(&read, 6, MatchMode::EdStar, None, &mut fault_path_rng, None),
        );
    }

    #[test]
    fn installed_faults_are_deterministic_across_installs() {
        let plan = FaultPlan::paper_corner(11);
        let mut a = faulty_test_array();
        let mut b = faulty_test_array();
        a.install_faults(&plan, 5, 6);
        b.install_faults(&plan, 5, 6);
        assert_eq!(a.faults(), b.faults());
        let read = a
            .stored_row(9)
            .map(|bases| PackedSeq::from_bases(&bases))
            .unwrap();
        let mut tally_a = FaultTally::default();
        let mut tally_b = FaultTally::default();
        let out_a = a.search(
            &read,
            6,
            MatchMode::EdStar,
            None,
            &mut rng(77),
            Some((&mut plan.read_fault_rng(77), &mut tally_a)),
        );
        let out_b = b.search(
            &read,
            6,
            MatchMode::EdStar,
            None,
            &mut rng(77),
            Some((&mut plan.read_fault_rng(77), &mut tally_b)),
        );
        assert_eq!(out_a, out_b);
        assert_eq!(tally_a, tally_b);
    }

    #[test]
    fn dead_rows_are_quarantined_and_answered_exactly() {
        // A plan that kills every row: the self-test scan must quarantine
        // all of them, and searches then answer with the exact digital
        // fallback without touching the sensing stream.
        let plan = FaultPlan {
            seed: 3,
            dead_row_rate: 1.0,
            selftest_trials: 3,
            ..FaultPlan::none()
        };
        // dead_row_rate makes it active.
        assert!(plan.is_active());
        let mut array = faulty_test_array();
        array.install_faults(&plan, 0, 6);
        assert_eq!(array.quarantined_rows(), array.rows());
        let read = array
            .stored_row(7)
            .map(|bases| PackedSeq::from_bases(&bases))
            .unwrap();
        let mut tally = FaultTally::default();
        let mut main = rng(5);
        let before: u64 = {
            let mut probe = main.clone();
            use rand::Rng as _;
            probe.gen()
        };
        let out = array.search(
            &read,
            6,
            MatchMode::EdStar,
            None,
            &mut main,
            Some((&mut plan.read_fault_rng(5), &mut tally)),
        );
        // Exact digital answers: row 7 matches itself, all else by count.
        assert!(out.matches.contains(&(7, 0)));
        let by_count: Vec<(usize, usize)> = (0..array.rows())
            .map(|row| {
                (
                    row,
                    array.row_mismatches_packed(row, &read, MatchMode::EdStar),
                )
            })
            .filter(|&(_, n_mis)| n_mis <= 6)
            .collect();
        assert_eq!(out.matches, by_count);
        assert_eq!(out.sensed, array.rows());
        assert_eq!(tally.requarried, array.rows() as u64);
        // No draws were consumed from the main sensing stream.
        use rand::Rng as _;
        assert_eq!(main.gen::<u64>(), before);
    }

    #[test]
    fn quarantine_catches_heavily_stuck_rows() {
        // Weld enough stuck-at-mismatch cells that a row can never sense
        // below a small threshold: the self-test must quarantine it.
        let plan = FaultPlan {
            seed: 8,
            stuck_mismatch_rate: 0.5,
            selftest_trials: 5,
            ..FaultPlan::none()
        };
        let mut array = faulty_test_array();
        array.install_faults(&plan, 2, 3);
        let faults = array.faults().unwrap();
        for (row, rf) in faults.rows.iter().enumerate() {
            if rf.self_mismatches() > 10 {
                assert!(rf.quarantined, "row {row} with heavy welds must quarantine");
            }
        }
        assert!(array.quarantined_rows() > 0);
    }

    #[test]
    fn masked_fault_search_agrees_with_full_on_listed_rows_draw_order() {
        let plan = FaultPlan::paper_corner(21);
        let mut array = faulty_test_array();
        array.install_faults(&plan, 1, 6);
        let read = array
            .stored_row(0)
            .map(|bases| PackedSeq::from_bases(&bases))
            .unwrap();
        let all_rows: Vec<usize> = (0..array.rows()).collect();
        let mut tally_full = FaultTally::default();
        let mut tally_masked = FaultTally::default();
        let full = array.search(
            &read,
            6,
            MatchMode::EdStar,
            None,
            &mut rng(9),
            Some((&mut plan.read_fault_rng(9), &mut tally_full)),
        );
        let masked = array.search(
            &read,
            6,
            MatchMode::EdStar,
            Some(&all_rows),
            &mut rng(9),
            Some((&mut plan.read_fault_rng(9), &mut tally_masked)),
        );
        assert_eq!(full, masked, "full row list must be byte-identical");
        assert_eq!(tally_full, tally_masked);
    }

    /// The always-draw sense: one real `measure` per call.
    fn drawn(
        array: &CamArray<ChargeDomainCam>,
        n_mis: usize,
        threshold: usize,
        offset_states: f64,
        rng: &mut Rng,
    ) -> bool {
        let sense = array.sense();
        sense.cam().measure(n_mis, array.width(), rng) + offset_states
            <= sense.policy().boundary_states(threshold)
    }

    /// `sense_row_faulty` with every analog decision drawn.
    #[allow(clippy::too_many_arguments)]
    fn oracle_faulty_row(
        array: &CamArray<ChargeDomainCam>,
        faults: &ArrayFaults,
        row: usize,
        read: &PackedSeq,
        n_true: usize,
        threshold: usize,
        mode: MatchMode,
        rng: &mut Rng,
        fault_rng: &mut Rng,
        tally: &mut FaultTally,
    ) -> (usize, bool) {
        let Some(rf) = faults.rows.get(row) else {
            return (n_true, drawn(array, n_true, threshold, 0.0, rng));
        };
        if rf.quarantined {
            tally.requarried += 1;
            return (n_true, n_true <= threshold);
        }
        let n_eff = ArrayFaults::effective_n_mis(rf, &array.rows[row], read, n_true, mode);
        if rf.dead {
            return (n_eff, false);
        }
        let rate = faults.transient_flip_rate;
        let flip = |r: &mut Rng| rate > 0.0 && noise::uniform(r) < rate;
        let drift = faults.drift_states;
        let mut decision = drawn(array, n_eff, threshold, drift, rng) ^ flip(fault_rng);
        if faults.resense_votes > 1 && decision != (n_eff <= threshold) {
            tally.resensed += 1;
            let mut yes = u32::from(decision);
            for _ in 1..faults.resense_votes {
                yes +=
                    u32::from(drawn(array, n_eff, threshold, drift, fault_rng) ^ flip(fault_rng));
            }
            decision = yes * 2 > faults.resense_votes;
        }
        (n_eff, decision)
    }

    /// Oracle for [`CamArray::search`]: every sensed row draws.
    fn oracle_search(
        array: &CamArray<ChargeDomainCam>,
        read: &PackedSeq,
        threshold: usize,
        mode: MatchMode,
        rows: Option<&[usize]>,
        rng: &mut Rng,
        mut fault: Option<(&mut Rng, &mut FaultTally)>,
    ) -> SearchOutcome {
        let listed: Vec<usize> = rows.map_or_else(|| (0..array.rows()).collect(), <[_]>::to_vec);
        array.finish_outcome(listed.into_iter().map(|row| {
            let n_true = array.row_mismatches_packed(row, read, mode);
            let (n_mis, matched) = match (array.faults(), fault.as_mut()) {
                (None, _) => (n_true, drawn(array, n_true, threshold, 0.0, rng)),
                (Some(faults), Some((fault_rng, tally))) => oracle_faulty_row(
                    array, faults, row, read, n_true, threshold, mode, rng, fault_rng, tally,
                ),
                (Some(_), None) => unreachable!("faulted searches carry a fault stream"),
            };
            (row, n_mis, matched)
        }))
    }

    /// Row `i` holds one segment with `i` substitutions, so mismatch
    /// counts cover every threshold's noise-limited band. The reads are
    /// that segment, an edited copy, a one-base shift and an unrelated
    /// window.
    fn graded_array() -> (CamArray<ChargeDomainCam>, Vec<PackedSeq>) {
        let genome = GenomeModel::uniform().generate(400, 17);
        let segment = &genome.as_slice()[100..164];
        let edited = |edits: usize, phase: usize| {
            let mut bases = segment.to_vec();
            for k in 0..edits {
                let col = (k * 37 + phase) % 64;
                bases[col] = bases[col].complement();
            }
            bases
        };
        let mut array = CamArray::asmcap(48, 64);
        for i in 0..48 {
            array.store_row(&edited(i, 0)).unwrap();
        }
        let reads = [
            edited(0, 0),
            edited(4, 9),
            genome.as_slice()[101..165].to_vec(),
            genome.as_slice()[300..364].to_vec(),
        ];
        (
            array,
            reads.iter().map(|r| PackedSeq::from_bases(r)).collect(),
        )
    }

    #[test]
    fn search_matches_an_always_draw_oracle() {
        let (array, reads) = graded_array();
        let listed: Vec<usize> = (0..48).filter(|row| row % 3 != 1).collect();
        let (mut sure, mut unsure, mut mostly_unsure) = (0usize, 0usize, 0usize);
        for mode in [MatchMode::EdStar, MatchMode::Hamming] {
            for threshold in [0usize, 2, 6, 12, 64 / 4] {
                for (i, read) in reads.iter().enumerate() {
                    // The rows within a state of T: a mostly-not-sure search.
                    let near: Vec<usize> = (0..48)
                        .filter(|&row| {
                            let n_mis = array.row_mismatches_packed(row, read, mode);
                            n_mis.abs_diff(threshold) <= 1
                        })
                        .collect();
                    for rows in [None, Some(listed.as_slice()), Some(near.as_slice())] {
                        let sensed: Vec<usize> =
                            rows.map_or_else(|| (0..48).collect(), <[_]>::to_vec);
                        let seed = 1_000 + i as u64;
                        let (mut fast, mut slow) = (rng(seed), rng(seed));
                        let got = array.search(read, threshold, mode, rows, &mut fast, None);
                        let want =
                            oracle_search(&array, read, threshold, mode, rows, &mut slow, None);
                        assert_eq!(got, want, "{mode} T={threshold} read {i}");
                        assert_eq!(fast.get_word_pos(), slow.get_word_pos());
                        // A row is sure when the model's support lies
                        // wholly on one side of V_ref.
                        let boundary = array.sense().policy().boundary_states(threshold);
                        let drawn_rows = sensed
                            .iter()
                            .filter(|&&row| {
                                let n_mis = array.row_mismatches_packed(row, read, mode);
                                let s = array.sense().cam().measure_support(n_mis, 64).unwrap();
                                s.lo <= boundary && boundary < s.hi
                            })
                            .count();
                        sure += sensed.len() - drawn_rows;
                        unsure += drawn_rows;
                        mostly_unsure += usize::from(drawn_rows * 2 > sensed.len());
                    }
                }
            }
        }
        // Both branches ran, and some searches drew on most of their rows.
        assert!(sure > 0 && unsure > 100, "sure {sure}, unsure {unsure}");
        assert!(mostly_unsure >= 10, "{mostly_unsure} mostly-drawn searches");
    }

    #[test]
    fn faulted_search_matches_an_always_draw_oracle() {
        let (mut array, reads) = graded_array();
        // Paper-corner rates raised so flips, votes, stuck cells, dead and
        // quarantined rows all show up in 48 rows.
        let plan = FaultPlan {
            stuck_mismatch_rate: 0.02,
            dead_row_rate: 0.05,
            drift_sigma_states: 0.4,
            transient_flip_rate: 0.05,
            ..FaultPlan::paper_corner(13)
        };
        array.install_faults(&plan, 0, 6);
        // The self-test scan agrees with an always-draw scan too.
        let faults = array.faults().unwrap().clone();
        let mut selftest = plan.selftest_rng(0);
        for rf in &faults.rows {
            let fails = (0..plan.selftest_trials)
                .filter(|_| {
                    rf.dead
                        || !drawn(
                            &array,
                            rf.self_mismatches(),
                            6,
                            faults.drift_states,
                            &mut selftest,
                        )
                })
                .count() as u32;
            assert_eq!(rf.quarantined, fails * 2 > plan.selftest_trials);
        }
        let listed: Vec<usize> = (0..48).step_by(2).collect();
        let mut tally = FaultTally::default();
        for mode in [MatchMode::EdStar, MatchMode::Hamming] {
            for threshold in [0usize, 2, 6, 12, 64 / 4] {
                // Rows graded around T: a search that is mostly not sure.
                let near: Vec<usize> = (threshold.saturating_sub(1)..threshold + 3).collect();
                for rows in [None, Some(listed.as_slice()), Some(near.as_slice())] {
                    for (i, read) in reads.iter().enumerate() {
                        let seed = 2_000 + i as u64;
                        let (mut fast, mut slow) = (rng(seed), rng(seed));
                        let (mut fast_fault, mut slow_fault) =
                            (plan.read_fault_rng(seed), plan.read_fault_rng(seed));
                        let (mut fast_tally, mut slow_tally) =
                            (FaultTally::default(), FaultTally::default());
                        let got = array.search(
                            read,
                            threshold,
                            mode,
                            rows,
                            &mut fast,
                            Some((&mut fast_fault, &mut fast_tally)),
                        );
                        let want = oracle_search(
                            &array,
                            read,
                            threshold,
                            mode,
                            rows,
                            &mut slow,
                            Some((&mut slow_fault, &mut slow_tally)),
                        );
                        assert_eq!(got, want, "{mode} T={threshold} read {i}");
                        assert_eq!(fast_tally, slow_tally);
                        assert_eq!(fast.get_word_pos(), slow.get_word_pos());
                        assert_eq!(fast_fault.get_word_pos(), slow_fault.get_word_pos());
                        tally.absorb(fast_tally);
                    }
                }
            }
        }
        assert!(array.quarantined_rows() > 0);
        assert!(tally.resensed > 0 && tally.requarried > 0, "{tally:?}");
    }
}
