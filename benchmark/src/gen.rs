//! Seeded payload generator and its checker.
//!
//! Every sample, event, call argument and file the sources offer carries
//! its source, its sequence number and a checksum, all derived from the
//! run's `--seed`; the sinks recompute them, so a corrupted, misrouted or
//! replayed payload is detected at the handler, not assumed away.

use marea_services::names::Position;

/// Bytes of header in front of the fill of a byte payload: sequence
/// number, offer time and checksum, each a little-endian `u64`.
pub const HEADER_LEN: usize = 24;

/// What a verified byte payload says about itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    /// Per-source sequence number, from 0.
    pub seq: u64,
    /// Container time at which the source offered it (µs).
    pub stamp_us: u64,
}

/// The payload generator of one run.
#[derive(Debug, Clone, Copy)]
pub struct Gen {
    seed: u64,
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn word(bytes: &[u8]) -> u64 {
    let mut w = [0u8; 8];
    w[..bytes.len()].copy_from_slice(bytes);
    u64::from_le_bytes(w)
}

/// Wrapping sum of the fill's little-endian words (a short last word is
/// zero-padded). Whole words go through `chunks_exact`, which the compiler
/// turns into plain loads: checking a 256 KiB file must stay far cheaper
/// than carrying it.
fn fill_sum(fill: &[u8]) -> u64 {
    let words = fill.chunks_exact(8);
    let tail = word(words.remainder());
    words.fold(tail, |sum, c| sum.wrapping_add(word(c)))
}

impl Gen {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Self {
        Gen { seed }
    }

    fn key(&self, source: u32, seq: u64) -> u64 {
        splitmix(self.seed ^ splitmix(u64::from(source) << 40 ^ seq))
    }

    /// A `len`-byte payload (`len >= HEADER_LEN`) of `source`'s message
    /// `seq`, offered at `stamp_us`.
    pub fn bytes(&self, source: u32, seq: u64, stamp_us: u64, len: usize) -> Vec<u8> {
        assert!(len >= HEADER_LEN, "payload shorter than its header");
        let mut out = vec![0u8; len];
        let key = self.key(source, seq);
        let mut x = key;
        let mut next = || {
            // xorshift64: one cheap step per eight fill bytes.
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut words = out[HEADER_LEN..].chunks_exact_mut(8);
        for chunk in &mut words {
            chunk.copy_from_slice(&next().to_le_bytes());
        }
        let tail = words.into_remainder();
        let n = tail.len();
        tail.copy_from_slice(&next().to_le_bytes()[..n]);
        let sum = fill_sum(&out[HEADER_LEN..]) ^ key ^ stamp_us;
        out[0..8].copy_from_slice(&seq.to_le_bytes());
        out[8..16].copy_from_slice(&stamp_us.to_le_bytes());
        out[16..24].copy_from_slice(&sum.to_le_bytes());
        out
    }

    /// Verifies a payload claimed to come from `source`; `None` when the
    /// checksum, the source or the length does not hold.
    pub fn check_bytes(&self, source: u32, data: &[u8], len: usize) -> Option<Header> {
        if data.len() != len || len < HEADER_LEN {
            return None;
        }
        let seq = word(&data[0..8]);
        let stamp_us = word(&data[8..16]);
        let sum = fill_sum(&data[HEADER_LEN..]) ^ self.key(source, seq) ^ stamp_us;
        (sum == word(&data[16..24])).then_some(Header { seq, stamp_us })
    }

    /// The typed `Position` sample `seq` of `source`: `lat` carries the
    /// sequence number, the other fields are functions of it.
    pub fn position(&self, source: u32, seq: u64) -> Position {
        let k = self.key(source, seq);
        let unit = |bits: u64| (bits >> 11) as f64 / (1u64 << 53) as f64;
        Position {
            lat: seq as f64,
            lon: f64::from(source) + unit(self.seed),
            alt: (seq % 1000) as f64 * 0.5,
            heading: unit(k) * std::f64::consts::TAU,
            speed: unit(splitmix(k)) * 100.0,
        }
    }

    /// The sequence number of a `Position` that `source` generated;
    /// `None` when any field disagrees with the generator.
    pub fn check_position(&self, source: u32, p: &Position) -> Option<u64> {
        if !(p.lat >= 0.0 && p.lat < (1u64 << 53) as f64) {
            return None;
        }
        let seq = p.lat as u64;
        (self.position(source, seq) == *p).then_some(seq)
    }

    /// The `u64` beacon `seq` of `source` (swarm ring payload).
    pub fn beacon(&self, source: u32, seq: u64) -> u64 {
        self.key(source, seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_roundtrip_and_detect_damage() {
        let g = Gen::new(1107);
        for len in [HEADER_LEN, 64, 256, 16 * 1024 + 3] {
            let p = g.bytes(7, 42, 9_000, len);
            assert_eq!(p.len(), len);
            assert_eq!(g.check_bytes(7, &p, len), Some(Header { seq: 42, stamp_us: 9_000 }));
            assert_eq!(g.check_bytes(8, &p, len), None, "wrong source");
            assert_eq!(Gen::new(2903).check_bytes(7, &p, len), None, "wrong seed");
            assert_eq!(g.check_bytes(7, &p[..len - 1], len), None, "truncated");
            let mut bad = p.clone();
            *bad.last_mut().unwrap() ^= 1;
            if len > HEADER_LEN {
                assert_eq!(g.check_bytes(7, &bad, len), None, "flipped fill bit");
            }
        }
        assert_eq!(g.bytes(1, 2, 3, 64), g.bytes(1, 2, 3, 64), "same inputs, same payload");
        assert_ne!(g.bytes(1, 2, 3, 64), g.bytes(1, 3, 3, 64));
    }

    #[test]
    fn position_roundtrip_and_detect_damage() {
        let g = Gen::new(1107);
        let p = g.position(3, 123_456);
        assert_eq!(g.check_position(3, &p), Some(123_456));
        assert_eq!(g.check_position(2, &p), None);
        let mut bad = p;
        bad.alt += 1.0;
        assert_eq!(g.check_position(3, &bad), None);
        bad = p;
        bad.lat = -1.0;
        assert_eq!(g.check_position(3, &bad), None);
    }
}
