//! Shift registers with enable signal (paper Fig. 4b).
//!
//! The register file holds the incoming read and rotates it left or right
//! base-by-base while the enable signal is asserted — the hardware that
//! implements the TASR strategy's rotated searches without re-fetching the
//! read from the global buffer. The software model computes each rotated
//! read word-parallel (`asmcap::RotationSchedule::rotated`); this
//! module keeps the rotation direction both share.

use std::fmt;

/// Direction of one base-by-base rotation step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RotateDirection {
    /// Towards lower indices (base 1 moves to position 0).
    Left,
    /// Towards higher indices (base 0 moves to position 1).
    Right,
}

impl fmt::Display for RotateDirection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RotateDirection::Left => write!(f, "left"),
            RotateDirection::Right => write!(f, "right"),
        }
    }
}
