//! Low-level wire primitives: little-endian scalars, LEB128 varints and
//! zigzag transforms over [`bytes`] buffers.
//!
//! Both codecs and the protocol layer build on these; keeping them in one
//! place guarantees every MAREA subsystem agrees byte-for-byte.

use bytes::{BufMut, BytesMut};

use crate::error::DecodeError;

/// Maximum bytes a LEB128-encoded `u64` may occupy.
pub(crate) const MAX_VARINT_LEN: usize = 10;

/// Append-only wire writer over a [`BytesMut`].
///
/// All multi-byte scalars are little-endian; unsigned integers use LEB128
/// varints via [`WireWriter::put_varint`]. The puts are `#[inline]`: a
/// message writer makes one per field, and a call into this crate for each
/// costs more than the bytes it writes.
#[derive(Debug)]
pub struct WireWriter<'a> {
    buf: &'a mut BytesMut,
}

impl<'a> WireWriter<'a> {
    /// Wraps a buffer for writing.
    #[inline]
    pub fn new(buf: &'a mut BytesMut) -> Self {
        WireWriter { buf }
    }

    /// Bytes written so far (over the whole underlying buffer).
    #[inline]
    pub fn written(&self) -> usize {
        self.buf.len()
    }

    /// Writes a single byte.
    #[inline]
    pub fn put_u8(&mut self, v: u8) {
        self.buf.put_u8(v);
    }

    /// Writes a bool as one byte (0 or 1).
    #[inline]
    pub fn put_bool(&mut self, v: bool) {
        self.buf.put_u8(u8::from(v));
    }

    /// Writes a little-endian `u16`.
    #[inline]
    pub fn put_u16_le(&mut self, v: u16) {
        self.buf.put_u16_le(v);
    }

    /// Writes a little-endian `u32`.
    #[inline]
    pub fn put_u32_le(&mut self, v: u32) {
        self.buf.put_u32_le(v);
    }

    /// Writes a little-endian `u64`.
    #[inline]
    pub fn put_u64_le(&mut self, v: u64) {
        self.buf.put_u64_le(v);
    }

    /// Writes a little-endian IEEE-754 `f32`.
    #[inline]
    pub fn put_f32_le(&mut self, v: f32) {
        self.buf.put_f32_le(v);
    }

    /// Writes a little-endian IEEE-754 `f64`.
    #[inline]
    pub fn put_f64_le(&mut self, v: f64) {
        self.buf.put_f64_le(v);
    }

    /// Writes an unsigned LEB128 varint.
    #[inline]
    pub fn put_varint(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.put_u8(byte);
                return;
            }
            self.buf.put_u8(byte | 0x80);
        }
    }

    /// Writes a signed integer as a zigzag-transformed varint.
    #[inline]
    pub fn put_signed_varint(&mut self, v: i64) {
        self.put_varint(zigzag_encode(v));
    }

    /// Writes raw bytes with no length prefix.
    #[inline]
    pub fn put_raw(&mut self, bytes: &[u8]) {
        self.buf.put_slice(bytes);
    }

    /// Writes a varint length prefix followed by the bytes.
    #[inline]
    pub fn put_len_prefixed(&mut self, bytes: &[u8]) {
        self.put_varint(bytes.len() as u64);
        self.put_raw(bytes);
    }

    /// Writes a varint length prefix followed by UTF-8 string bytes.
    #[inline]
    pub fn put_str(&mut self, s: &str) {
        self.put_len_prefixed(s.as_bytes());
    }
}

/// Cursor-style wire reader over a byte slice.
#[derive(Debug, Clone)]
pub struct WireReader<'a> {
    input: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Wraps a byte slice for reading.
    pub fn new(input: &'a [u8]) -> Self {
        WireReader { input, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.input.len() - self.pos
    }

    /// `true` when all input has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Current read offset from the start of the input.
    pub fn position(&self) -> usize {
        self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::UnexpectedEof { needed: n - self.remaining() });
        }
        let out = &self.input[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`DecodeError::UnexpectedEof`] if the input is exhausted.
    pub fn get_u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a bool byte, rejecting values other than 0/1.
    ///
    /// # Errors
    ///
    /// [`DecodeError::InvalidBool`] on any byte other than 0 or 1.
    pub fn get_bool(&mut self) -> Result<bool, DecodeError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(DecodeError::InvalidBool(other)),
        }
    }

    /// Reads a little-endian `u16`.
    ///
    /// # Errors
    ///
    /// [`DecodeError::UnexpectedEof`] if fewer than 2 bytes remain.
    pub fn get_u16_le(&mut self) -> Result<u16, DecodeError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`DecodeError::UnexpectedEof`] if fewer than 4 bytes remain.
    pub fn get_u32_le(&mut self) -> Result<u32, DecodeError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`DecodeError::UnexpectedEof`] if fewer than 8 bytes remain.
    pub fn get_u64_le(&mut self) -> Result<u64, DecodeError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("slice of 8")))
    }

    /// Reads a little-endian `f32`.
    ///
    /// # Errors
    ///
    /// [`DecodeError::UnexpectedEof`] if fewer than 4 bytes remain.
    pub fn get_f32_le(&mut self) -> Result<f32, DecodeError> {
        Ok(f32::from_bits(self.get_u32_le()?))
    }

    /// Reads a little-endian `f64`.
    ///
    /// # Errors
    ///
    /// [`DecodeError::UnexpectedEof`] if fewer than 8 bytes remain.
    pub fn get_f64_le(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.get_u64_le()?))
    }

    /// Reads an unsigned LEB128 varint.
    ///
    /// # Errors
    ///
    /// [`DecodeError::VarintOverflow`] if the encoding exceeds 10 bytes or
    /// overflows 64 bits; [`DecodeError::UnexpectedEof`] on truncation.
    pub fn get_varint(&mut self) -> Result<u64, DecodeError> {
        let mut result: u64 = 0;
        let mut shift = 0u32;
        for i in 0..MAX_VARINT_LEN {
            let byte = self.get_u8()?;
            let low = u64::from(byte & 0x7f);
            if shift >= 64 || (shift == 63 && low > 1) {
                return Err(DecodeError::VarintOverflow);
            }
            result |= low << shift;
            if byte & 0x80 == 0 {
                // Reject non-canonical encodings with redundant trailing 0x80 groups
                // except the single-byte zero.
                if byte == 0 && i > 0 {
                    return Err(DecodeError::VarintOverflow);
                }
                return Ok(result);
            }
            shift += 7;
        }
        Err(DecodeError::VarintOverflow)
    }

    /// Reads a zigzag-transformed signed varint.
    ///
    /// # Errors
    ///
    /// Propagates [`WireReader::get_varint`] errors.
    pub fn get_signed_varint(&mut self) -> Result<i64, DecodeError> {
        Ok(zigzag_decode(self.get_varint()?))
    }

    /// Reads a varint length prefix then that many bytes, enforcing `limit`.
    ///
    /// # Errors
    ///
    /// [`DecodeError::LengthOverflow`] when the prefix exceeds `limit`;
    /// otherwise the usual EOF/varint errors.
    pub fn get_len_prefixed(&mut self, limit: usize) -> Result<&'a [u8], DecodeError> {
        let len = self.get_varint()?;
        if len > limit as u64 {
            return Err(DecodeError::LengthOverflow { declared: len, limit });
        }
        self.take(len as usize)
    }

    /// Reads a length-prefixed UTF-8 string, enforcing `limit`.
    ///
    /// # Errors
    ///
    /// [`DecodeError::InvalidUtf8`] on malformed UTF-8, plus the errors of
    /// [`WireReader::get_len_prefixed`].
    pub fn get_str(&mut self, limit: usize) -> Result<&'a str, DecodeError> {
        let bytes = self.get_len_prefixed(limit)?;
        std::str::from_utf8(bytes).map_err(|_| DecodeError::InvalidUtf8)
    }
}

/// Zigzag-encodes a signed integer so small magnitudes stay small varints.
pub(crate) fn zigzag_encode(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag_encode`].
pub(crate) fn zigzag_decode(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_varint(v: u64) -> u64 {
        let mut buf = BytesMut::new();
        WireWriter::new(&mut buf).put_varint(v);
        let mut r = WireReader::new(&buf);
        let got = r.get_varint().unwrap();
        assert!(r.is_empty());
        got
    }

    #[test]
    fn varint_roundtrips_boundaries() {
        for v in [0, 1, 127, 128, 16383, 16384, u32::MAX as u64, u64::MAX] {
            assert_eq!(roundtrip_varint(v), v);
        }
    }

    #[test]
    fn varint_is_minimal_for_small_values() {
        let mut buf = BytesMut::new();
        WireWriter::new(&mut buf).put_varint(5);
        assert_eq!(buf.len(), 1);
        buf.clear();
        WireWriter::new(&mut buf).put_varint(300);
        assert_eq!(buf.len(), 2);
    }

    #[test]
    fn varint_rejects_overlong_encodings() {
        // 11 continuation bytes.
        let bytes = [0x80u8; 11];
        assert_eq!(WireReader::new(&bytes).get_varint(), Err(DecodeError::VarintOverflow));
        // Non-canonical: 0x80 0x00 encodes zero in two bytes.
        let bytes = [0x80u8, 0x00];
        assert_eq!(WireReader::new(&bytes).get_varint(), Err(DecodeError::VarintOverflow));
    }

    #[test]
    fn varint_rejects_65_bit_values() {
        // 10 bytes with the top byte > 1 overflows 64 bits.
        let mut bytes = [0xffu8; 10];
        bytes[9] = 0x02;
        assert_eq!(WireReader::new(&bytes).get_varint(), Err(DecodeError::VarintOverflow));
    }

    #[test]
    fn zigzag_roundtrips() {
        for v in [0i64, -1, 1, -2, 2, i64::MIN, i64::MAX, -123456789] {
            assert_eq!(zigzag_decode(zigzag_encode(v)), v);
        }
        // Small magnitudes map to small codes.
        assert_eq!(zigzag_encode(0), 0);
        assert_eq!(zigzag_encode(-1), 1);
        assert_eq!(zigzag_encode(1), 2);
    }

    #[test]
    fn scalars_roundtrip() {
        let mut buf = BytesMut::new();
        {
            let mut w = WireWriter::new(&mut buf);
            w.put_bool(true);
            w.put_u16_le(0xBEEF);
            w.put_u32_le(0xDEADBEEF);
            w.put_u64_le(u64::MAX - 1);
            w.put_f32_le(1.5);
            w.put_f64_le(-2.25);
            w.put_str("hola");
            w.put_len_prefixed(&[9, 8, 7]);
        }
        let mut r = WireReader::new(&buf);
        assert!(r.get_bool().unwrap());
        assert_eq!(r.get_u16_le().unwrap(), 0xBEEF);
        assert_eq!(r.get_u32_le().unwrap(), 0xDEADBEEF);
        assert_eq!(r.get_u64_le().unwrap(), u64::MAX - 1);
        assert_eq!(r.get_f32_le().unwrap(), 1.5);
        assert_eq!(r.get_f64_le().unwrap(), -2.25);
        assert_eq!(r.get_str(64).unwrap(), "hola");
        assert_eq!(r.get_len_prefixed(64).unwrap(), &[9, 8, 7]);
        assert!(r.is_empty());
    }

    #[test]
    fn bool_rejects_junk() {
        assert_eq!(WireReader::new(&[7]).get_bool(), Err(DecodeError::InvalidBool(7)));
    }

    #[test]
    fn eof_is_detected_with_needed_count() {
        let mut r = WireReader::new(&[1, 2]);
        assert_eq!(r.get_u32_le(), Err(DecodeError::UnexpectedEof { needed: 2 }));
    }

    #[test]
    fn length_limit_is_enforced() {
        let mut buf = BytesMut::new();
        WireWriter::new(&mut buf).put_len_prefixed(&[0u8; 100]);
        let mut r = WireReader::new(&buf);
        assert!(matches!(r.get_len_prefixed(10), Err(DecodeError::LengthOverflow { .. })));
    }

    #[test]
    fn invalid_utf8_is_rejected() {
        let mut buf = BytesMut::new();
        WireWriter::new(&mut buf).put_len_prefixed(&[0xff, 0xfe]);
        assert_eq!(WireReader::new(&buf).get_str(16), Err(DecodeError::InvalidUtf8));
    }

    #[test]
    fn position_tracks_consumption() {
        let mut r = WireReader::new(&[1, 2, 3, 4]);
        r.get_u8().unwrap();
        assert_eq!(r.position(), 1);
        assert_eq!(r.remaining(), 3);
    }
}
