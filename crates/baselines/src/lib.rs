//! Baseline ASM systems the paper compares against (§II-B, §V-E).
//!
//! Every comparator in the paper's Fig. 7/Fig. 8 is re-implemented here,
//! functionally (so its accuracy can be measured on the same datasets) and
//! as a performance model (so Fig. 8's speedup/energy-efficiency chart can
//! be regenerated):
//!
//! * [`cm_cpu`] — the comparison-matrix software baseline: exact banded
//!   edit distance on a general-purpose CPU;
//! * [`resma`] — ReSMA (DAC 2022): RRAM-CAM pre-filtering plus an
//!   anti-diagonal wavefront comparison matrix on RRAM crossbars;
//! * [`savi`] — SaVI (ICCAD 2020): the TCAM seed-and-vote strategy;
//! * [`kraken`] — a Kraken2-style exact-matching classifier, the paper's
//!   accuracy normalisation baseline;
//! * [`perf`] — the Fig. 8 latency/energy models with every calibrated
//!   constant documented in one place.
//!
//! Every comparator implements [`asmcap::AsmMatcher`], whose one entry
//! point takes 2-bit packed operands, and makes each decision through one
//! procedure: SaVI's seed votes and ReSMA's CAM filter roll their k-mer
//! codes straight out of the packed words. Two paths still unpack once,
//! because their models are base-indexed: ReSMA's crossbar wavefront (for
//! filter survivors only) and Kraken2's 35-mer scan, whose `k` exceeds the
//! 32-base packed-code limit.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cm_cpu;
pub mod kraken;
pub mod perf;
pub mod resma;
pub mod savi;

pub use cm_cpu::CmCpuAligner;
pub use kraken::{KrakenClassifier, KrakenMode};
pub use perf::{PerfModel, PerfReport, Workload};
pub use resma::ResmaAccelerator;
pub use savi::SaviAccelerator;
