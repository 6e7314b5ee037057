//! CRC-32 (IEEE 802.3 polynomial): slicing-by-16 over two interleaved
//! streams.
//!
//! Implemented locally rather than pulled from a crate: the frame integrity
//! check is a core protocol element and must stay byte-identical across
//! every MAREA port.
//!
//! Every frame in and out is checked byte for byte, so this loop bounds
//! bulk delivery (MFTP chunks, fragments). A step folds sixteen input bytes
//! through sixteen 256-entry tables (Intel's "slicing-by-N"): the lookups
//! of a step are independent of one another, where the classic one-table
//! loop serialises a load behind every input byte. `TABLES[0]` is that
//! classic table for the reflected polynomial 0xEDB88320; `TABLES[k][i]` is
//! the CRC of byte `i` followed by `k` zero bytes.
//!
//! # Why one chain waits
//!
//! Twelve of a step's lookups are indexed by input bytes alone and can
//! issue at any time; four are indexed by the running state xored into the
//! step's first word, and the next step's four wait for this step's result.
//! That path — xor, index, load, then every xor between the load and the
//! new state — is the only thing that orders two steps, and while the core
//! walks it its load ports idle. Its length is a matter of association: the
//! sixteen-way xor is compiled as one chain in source order, so with the
//! state's lookups written first (as they were) all fifteen xors sat behind
//! them, about seventeen cycles per sixteen bytes; written last, four do.
//! [`step16`] and [`step8`] therefore put them last.
//!
//! # Two streams
//!
//! What is left of the wait is filled by a second, independent chain. The
//! update without the final inversion, `U(s, data)`, is linear over GF(2)
//! in `s` and `data` together, so for a split input
//!
//! ```text
//! U(s, A ‖ B) = shift_|B|(U(s, A)) ⊕ U(0, B)
//! ```
//!
//! where `shift_n(c) = U(c, n zero bytes)`. [`crc32_update`] takes the
//! input in pairs of 64-byte blocks, runs `U(s, A)` and `U(0, B)` in one
//! loop — four steps each, no step of one waiting on the other — and joins
//! them with the identity. `shift_64` needs no machinery of its own: it
//! is a step over 64 bytes of which only the first word — the state — is
//! not zero, so sixty of its lookups vanish and four remain. Their tables
//! are `SHIFT`: rows 60 to 63 of the family whose rows 0 to 15 are
//! `TABLES`.
//!
//! `TABLES` is 16 KiB and `SHIFT` 4 KiB, both evaluated at compile time
//! into read-only statics; nothing is initialised at run time.
//!
//! # Short inputs
//!
//! An input (or the end of one) shorter than a pair of blocks runs as one
//! chain. A frame header is 12 checked bytes and most control frames carry
//! under 64, so what is left after the last whole step matters as much as
//! the step: up to eight bytes of it take one half-width step through
//! `TABLES[..8]` (which *are* the slicing-by-8 tables) before the
//! byte-at-a-time tail. Which path runs depends on the length alone.

const POLY: u32 = 0xEDB8_8320;

/// Bytes folded per step of one stream, one table each.
const SLICES: usize = 16;

/// Bytes each of [`crc32_update`]'s two chains folds between two joins:
/// four steps.
const BLOCK: usize = 64;

static TABLES: [[u32; 256]; SLICES] = make_tables();

/// Rows `BLOCK - 4 ..BLOCK` of the family `TABLES` begins (`SHIFT[j][i]`
/// is the CRC of byte `i` followed by `BLOCK - 4 + j` zero bytes): what a
/// step over a word followed by `BLOCK - 4` more bytes would index. When
/// those bytes are all zero the word's four lookups are the whole step, so
/// folding a state through them advances it over one block of zeros.
static SHIFT: [[u32; 256]; 4] = make_shift();

/// The row after `prev`: each entry followed by one more zero byte.
const fn next_row(t0: &[u32; 256], prev: &[u32; 256]) -> [u32; 256] {
    let mut row = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        row[i] = (prev[i] >> 8) ^ t0[(prev[i] & 0xFF) as usize];
        i += 1;
    }
    row
}

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
        t[k] = next_row(&t[0], &t[k - 1]);
        k += 1;
    }
    t
}

const fn make_shift() -> [[u32; 256]; 4] {
    let t = make_tables();
    let mut s = [[0u32; 256]; 4];
    let mut row = t[SLICES - 1];
    let mut k = SLICES;
    while k < BLOCK {
        row = next_row(&t[0], &row);
        if k >= BLOCK - 4 {
            s[k - (BLOCK - 4)] = row;
        }
        k += 1;
    }
    s
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

fn word(w: &[u8]) -> u32 {
    u32::from_le_bytes([w[0], w[1], w[2], w[3]])
}

/// The four lookups of the word `w` whose last byte is followed by `after`
/// more bytes of the same step, `t[k]` being the table for a byte followed
/// by `k`.
#[inline(always)]
fn fold4<const N: usize>(t: &[[u32; 256]; N], w: u32, after: usize) -> u32 {
    t[after + 3][(w & 0xFF) as usize]
        ^ t[after + 2][((w >> 8) & 0xFF) as usize]
        ^ t[after + 1][((w >> 16) & 0xFF) as usize]
        ^ t[after][(w >> 24) as usize]
}

/// Half step: state `c` over the eight bytes at the head of `w`.
///
/// In both steps the lookups the input alone indexes come first and the
/// four that wait for `c` last: the xors are emitted as one chain in this
/// order, and only what follows the state's lookups is on the path from one
/// step's state to the next.
#[inline(always)]
fn step8(c: u32, w: &[u8]) -> u32 {
    fold4(&TABLES, word(&w[4..]), 0) ^ fold4(&TABLES, c ^ word(w), 4)
}

/// Full step: state `c` over the sixteen bytes at the head of `w`.
#[inline(always)]
fn step16(c: u32, w: &[u8]) -> u32 {
    fold4(&TABLES, word(&w[4..]), 8)
        ^ fold4(&TABLES, word(&w[8..]), 4)
        ^ fold4(&TABLES, word(&w[12..]), 0)
        ^ fold4(&TABLES, c ^ word(w), 12)
}

/// Streaming update: feed successive slices with the running state.
/// Initialize with `0xFFFF_FFFF` and finalize by xoring `0xFFFF_FFFF`.
pub(crate) fn crc32_update(state: u32, data: &[u8]) -> u32 {
    let mut c = state;
    // Whole pairs of blocks: a chain per block, the second seeded with 0,
    // joined after the blocks' last step. A shorter input has none.
    let mut pairs = data.chunks_exact(2 * BLOCK);
    for pair in &mut pairs {
        let (first, second) = pair.split_at(BLOCK);
        let mut c2 = 0;
        for (w1, w2) in first.chunks_exact(SLICES).zip(second.chunks_exact(SLICES)) {
            c = step16(c, w1);
            c2 = step16(c2, w2);
        }
        // `c` over a block of zeros: a step whose only non-zero word is `c`.
        c = fold4(&SHIFT, c, 0) ^ c2;
    }
    // Under a pair is left: one chain, in steps of 16, 8 and 1.
    let mut steps = pairs.remainder().chunks_exact(SLICES);
    for w in &mut steps {
        c = step16(c, w);
    }
    let mut rest = steps.remainder();
    if rest.len() >= 8 {
        c = step8(c, rest);
        rest = &rest[8..];
    }
    for &b in rest {
        c = TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
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
    /// [`TABLES`] and [`SHIFT`] but the polynomial.
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
        // 0..=four pairs + 72 crosses every pair boundary and, before the
        // first and after each, zero to four whole steps with and without
        // the half step plus every byte tail; the start offset moves all of
        // those boundaries across the buffer.
        const LONGEST: usize = 4 * 2 * BLOCK + 72;
        let buf: Vec<u8> =
            (0..LONGEST as u32 + 8).map(|i| (i.wrapping_mul(167) ^ (i >> 2)) as u8).collect();
        for offset in 0..8 {
            for len in 0..=LONGEST {
                let data = &buf[offset..offset + len];
                assert_eq!(crc32(data), reference(data), "offset {offset} len {len}");
            }
        }
    }

    #[test]
    fn shift_rows_advance_a_state_over_one_block_of_zeros() {
        // Row `j` serves the state's byte `3 - j`, as in any step's word.
        for (j, row) in SHIFT.iter().enumerate() {
            for (i, &entry) in row.iter().enumerate() {
                let state = (i as u32) << (8 * (3 - j));
                assert_eq!(entry, reference_update(state, &[0; BLOCK]), "SHIFT[{j}][{i}]");
            }
        }
        // And, xored together, any state.
        for state in [0xFFFF_FFFF, 0x0102_0408, 0xDEAD_BEEF] {
            assert_eq!(fold4(&SHIFT, state, 0), reference_update(state, &[0; BLOCK]));
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
        // Three pairs, so both halves of a split can hold whole pairs.
        let data: Vec<u8> =
            (0..3 * 2 * BLOCK).map(|i| (i as u8).wrapping_mul(37).wrapping_add(11)).collect();
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
