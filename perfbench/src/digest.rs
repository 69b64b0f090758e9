//! Fixed-width digests of mapping outcomes, so two runs can be compared
//! field by field without holding every record in memory.
//!
//! A digest absorbs every field as whole 64-bit words through two
//! independent multiply-rotate lanes (128 bits). Equal outcomes always
//! give equal digests; different outcomes collide only by accident.

use asmcap::{MapRecord, MapStatus};
use asmcap_serve::{MapReply, WireStatus};

/// A 128-bit streaming digest.
#[derive(Debug, Clone, Copy)]
pub struct Digest {
    a: u64,
    b: u64,
}

impl Default for Digest {
    fn default() -> Self {
        Self {
            a: 0x243F_6A88_85A3_08D3,
            b: 0x1319_8A2E_0370_7344,
        }
    }
}

impl Digest {
    /// Absorbs one word.
    pub fn word(&mut self, w: u64) {
        self.a = (self.a ^ w)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(29);
        self.b = (self.b ^ w.rotate_left(17))
            .wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
            .rotate_left(31);
    }

    /// Absorbs a length-prefixed word sequence.
    pub fn words(&mut self, words: impl ExactSizeIterator<Item = u64>) {
        self.word(words.len() as u64);
        for w in words {
            self.word(w);
        }
    }

    /// The final 128-bit value.
    #[must_use]
    pub fn finish(mut self) -> u128 {
        self.word(0xFF);
        (u128::from(self.a) << 64) | u128::from(self.b)
    }
}

fn status_code(status: MapStatus) -> u64 {
    match status {
        MapStatus::Mapped => 0,
        MapStatus::Unmapped => 1,
        MapStatus::Truncated => 2,
        MapStatus::Rejected => 3,
    }
}

fn wire_code(status: WireStatus) -> u64 {
    match status {
        WireStatus::Mapped => 0,
        WireStatus::Unmapped => 1,
        WireStatus::Truncated => 2,
        WireStatus::Rejected => 3,
    }
}

/// Every field of a [`MapRecord`], alignment transcript included.
#[must_use]
pub fn record(r: &MapRecord) -> u128 {
    let mut d = Digest::default();
    d.word(r.index);
    d.word(status_code(r.status));
    d.words(r.positions.iter().map(|&p| p as u64));
    d.word(r.cycles);
    d.word(r.searches);
    d.word(r.energy_j.to_bits());
    match &r.alignment {
        None => d.word(0),
        Some(a) => {
            d.word(1);
            d.word(a.origin as u64);
            d.word(a.score as u64);
            d.words(
                a.cigar
                    .runs()
                    .iter()
                    .map(|&(op, n)| ((op as u64) << 32) | u64::from(n)),
            );
        }
    }
    d.word(r.resensed);
    d.word(r.requarried);
    d.word(u64::from(r.degraded));
    d.finish()
}

/// The fields a serving reply carries, keyed by the read index.
fn reply_fields(
    index: u64,
    status: u64,
    positions: impl ExactSizeIterator<Item = u64>,
    cycles: u64,
    searches: u64,
    energy_bits: u64,
) -> u128 {
    let mut d = Digest::default();
    d.word(index);
    d.word(status);
    d.words(positions);
    d.word(cycles);
    d.word(searches);
    d.word(energy_bits);
    d.finish()
}

/// A wire reply's digest; equal to [`record_as_reply`] of the record the
/// server mapped for it.
#[must_use]
pub fn reply(r: &MapReply) -> u128 {
    reply_fields(
        r.req_id,
        wire_code(r.status),
        r.positions.iter().copied(),
        r.cycles,
        r.searches,
        r.energy_j.to_bits(),
    )
}

/// The reply a server would send for `r` (its index is the request id).
#[must_use]
pub fn record_as_reply(r: &MapRecord) -> u128 {
    reply_fields(
        r.index,
        wire_code(r.status.into()),
        r.positions.iter().map(|&p| p as u64),
        r.cycles,
        r.searches,
        r.energy_j.to_bits(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(index: u64) -> MapRecord {
        MapRecord {
            index,
            status: MapStatus::Mapped,
            positions: vec![8, 16],
            cycles: 3,
            searches: 2,
            energy_j: 1.5e-12,
            alignment: None,
            resensed: 0,
            requarried: 0,
            degraded: false,
        }
    }

    #[test]
    fn every_field_moves_the_digest() {
        let base = record(&sample(4));
        assert_eq!(base, record(&sample(4)));
        let mut r = sample(4);
        r.positions = vec![8, 24];
        assert_ne!(record(&r), base);
        let mut r = sample(4);
        r.energy_j = 1.5000001e-12;
        assert_ne!(record(&r), base);
        let mut r = sample(4);
        r.positions = vec![8];
        r.cycles = 16;
        assert_ne!(record(&r), base);
        assert_ne!(record(&sample(5)), base);
    }

    #[test]
    fn reply_digest_matches_its_record() {
        let r = sample(9);
        let reply = MapReply {
            req_id: 9,
            status: WireStatus::Mapped,
            queue_us: 10,
            service_us: 20,
            cycles: 3,
            searches: 2,
            energy_j: 1.5e-12,
            positions: vec![8, 16],
        };
        assert_eq!(super::reply(&reply), record_as_reply(&r));
        let mut other = reply.clone();
        other.positions = vec![16];
        assert_ne!(super::reply(&other), record_as_reply(&r));
    }
}
