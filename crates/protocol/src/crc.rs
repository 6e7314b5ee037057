//! CRC-32 (IEEE 802.3 polynomial), slicing-by-16.
//!
//! Implemented locally rather than pulled from a crate: the frame integrity
//! check is a core protocol element and must stay byte-identical across
//! every MAREA port.
//!
//! Every frame in and out is checked byte for byte, so this loop bounds
//! bulk delivery (MFTP chunks, fragments). The kernel folds sixteen input
//! bytes per step through sixteen 256-entry tables (Intel's "slicing-by-N"):
//! the lookups of a step are independent of one another, where the classic
//! one-table loop serialises a load behind every input byte. `TABLES[0]` is
//! that classic table for the reflected polynomial 0xEDB88320;
//! `TABLES[k][i]` is the CRC of byte `i` followed by `k` zero bytes. All
//! sixteen (16 KiB) are evaluated at compile time.
//!
//! A frame header is 12 checked bytes and most control frames carry under
//! 64, so what is left after the last whole step matters as much as the
//! step: up to eight bytes of it take one half-width step through
//! `TABLES[..8]` (which *are* the slicing-by-8 tables) before the
//! byte-at-a-time tail.

const POLY: u32 = 0xEDB8_8320;

/// Bytes folded per full step of [`crc32_update`], one table each.
const SLICES: usize = 16;

static TABLES: [[u32; 256]; SLICES] = make_tables();

const fn make_tables() -> [[u32; 256]; SLICES] {
    let mut t = [[0u32; 256]; SLICES];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < SLICES {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// Computes the CRC-32 (IEEE) of `data`.
///
/// # Examples
///
/// ```
/// // Standard check value for "123456789".
/// assert_eq!(marea_protocol::crc32(b"123456789"), 0xCBF4_3926);
/// ```
pub fn crc32(data: &[u8]) -> u32 {
    crc32_update(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
}

/// Streaming update: feed successive slices with the running state.
/// Initialize with `0xFFFF_FFFF` and finalize by xoring `0xFFFF_FFFF`.
pub(crate) fn crc32_update(state: u32, data: &[u8]) -> u32 {
    let t = &TABLES;
    let word = |w: &[u8]| u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
    // Folds the eight bytes `lo ++ hi` (the running CRC already xored into
    // `lo`), which are followed by `after` more bytes of the same step.
    let fold8 = |lo: u32, hi: u32, after: usize| {
        t[after + 7][(lo & 0xFF) as usize]
            ^ t[after + 6][((lo >> 8) & 0xFF) as usize]
            ^ t[after + 5][((lo >> 16) & 0xFF) as usize]
            ^ t[after + 4][(lo >> 24) as usize]
            ^ t[after + 3][(hi & 0xFF) as usize]
            ^ t[after + 2][((hi >> 8) & 0xFF) as usize]
            ^ t[after + 1][((hi >> 16) & 0xFF) as usize]
            ^ t[after][(hi >> 24) as usize]
    };
    let mut c = state;
    let mut steps = data.chunks_exact(SLICES);
    for w in &mut steps {
        c = fold8(c ^ word(w), word(&w[4..]), 8) ^ fold8(word(&w[8..]), word(&w[12..]), 0);
    }
    let mut rest = steps.remainder();
    if rest.len() >= 8 {
        c = fold8(c ^ word(rest), word(&rest[4..]), 0);
        rest = &rest[8..];
    }
    for &b in rest {
        c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The byte-at-a-time table loop this crate shipped before the sliced
    /// kernel, kept as the reference the kernel is checked against. It
    /// builds its own table at run time so that it shares nothing with
    /// [`TABLES`] but the polynomial.
    fn reference_update(state: u32, data: &[u8]) -> u32 {
        let mut table = [0u32; 256];
        for (i, entry) in table.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            }
            *entry = c;
        }
        let mut c = state;
        for &b in data {
            c = table[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
        }
        c
    }

    fn reference(data: &[u8]) -> u32 {
        reference_update(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
    }

    #[test]
    fn known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn matches_reference_at_every_short_length_and_offset() {
        // 0..=72 spans zero to four whole steps, with and without the
        // half step, plus every byte tail; the start offset moves the step
        // boundaries across the buffer.
        let buf: Vec<u8> = (0..96u32).map(|i| (i.wrapping_mul(167) ^ (i >> 2)) as u8).collect();
        for offset in 0..8 {
            for len in 0..=72 {
                let data = &buf[offset..offset + len];
                assert_eq!(crc32(data), reference(data), "offset {offset} len {len}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        #[test]
        fn matches_reference_on_generated_buffers(
            data in proptest::collection::vec(any::<u8>(), 0..=64 * 1024),
            state in any::<u32>(),
        ) {
            prop_assert_eq!(crc32(&data), reference(&data));
            // Any running state, not only the initial one.
            prop_assert_eq!(crc32_update(state, &data), reference_update(state, &data));
        }
    }

    #[test]
    fn streaming_matches_oneshot() {
        let data: Vec<u8> = (0..100u8).map(|i| i.wrapping_mul(37).wrapping_add(11)).collect();
        let oneshot = crc32(&data);
        assert_eq!(oneshot, reference(&data));
        for split in 0..=data.len() {
            let (head, tail) = data.split_at(split);
            let state = crc32_update(crc32_update(0xFFFF_FFFF, head), tail);
            assert_eq!(state ^ 0xFFFF_FFFF, oneshot, "split at {split}");
        }
    }

    #[test]
    fn detects_single_bit_flips() {
        let data = vec![0xA5u8; 64];
        let base = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut corrupted = data.clone();
                corrupted[byte] ^= 1 << bit;
                assert_ne!(crc32(&corrupted), base, "flip at {byte}:{bit} undetected");
            }
        }
    }
}
