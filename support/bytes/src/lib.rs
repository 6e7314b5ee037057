//! Offline stand-in for the [`bytes`](https://docs.rs/bytes) crate.
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors the small API subset MAREA actually uses: a cheaply-clonable
//! immutable byte buffer ([`Bytes`]), an append-only builder
//! ([`BytesMut`]) and the [`BufMut`] writer trait. The observable
//! behaviour of this subset matches the real crate, and so do the costs
//! the middleware relies on: `clone`/`slice` are O(1) and share storage,
//! [`BytesMut::freeze`] and `Bytes::from(Vec<u8>)` take the vector over
//! without copying it, and [`Bytes::new`]/[`Bytes::from_static`] do not
//! allocate. What differs is the representation (an `Arc<Vec<u8>>`, one
//! pointer hop more than upstream's vtable design — no `unsafe` here) and
//! that a frozen buffer keeps its spare capacity. Swap the path
//! dependency for the upstream crate when networked builds are available.

#![forbid(unsafe_code)]

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Bound, Deref, DerefMut, RangeBounds};
use std::sync::Arc;

/// A cheaply clonable, immutable contiguous slice of memory.
///
/// Internally a window onto either a static slice or a reference-counted
/// vector, so `clone` and `slice` are O(1) and taking over a `Vec<u8>`
/// moves it instead of copying it.
#[derive(Clone)]
pub struct Bytes {
    data: Storage,
    start: usize,
    end: usize,
}

#[derive(Clone)]
enum Storage {
    Static(&'static [u8]),
    Shared(Arc<Vec<u8>>),
}

impl Bytes {
    /// Creates an empty `Bytes` (no allocation).
    pub const fn new() -> Self {
        Bytes::from_static(&[])
    }

    /// Creates `Bytes` from a static slice (no allocation, no copy).
    pub const fn from_static(bytes: &'static [u8]) -> Self {
        Bytes { data: Storage::Static(bytes), start: 0, end: bytes.len() }
    }

    /// Creates `Bytes` by copying `data`.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes::from(data.to_vec())
    }

    /// Number of bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns a slice of self for the provided range (O(1), shares the
    /// underlying storage).
    ///
    /// # Panics
    ///
    /// Panics when the range is out of bounds.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Self {
        let len = self.len();
        let begin = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => len,
        };
        assert!(begin <= end && end <= len, "slice out of bounds");
        Bytes { data: self.data.clone(), start: self.start + begin, end: self.start + end }
    }

    /// Copies self into a new `Vec`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_ref().to_vec()
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        let all = match &self.data {
            Storage::Static(s) => s,
            Storage::Shared(v) => v.as_slice(),
        };
        &all[self.start..self.end]
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        self
    }
}

impl From<Vec<u8>> for Bytes {
    /// O(1): the vector is moved behind the reference count, not copied.
    fn from(v: Vec<u8>) -> Self {
        if v.is_empty() {
            return Bytes::new();
        }
        Bytes { start: 0, end: v.len(), data: Storage::Shared(Arc::new(v)) }
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(v: &'static [u8]) -> Self {
        Bytes::from_static(v)
    }
}

impl From<&'static str> for Bytes {
    fn from(v: &'static str) -> Self {
        Bytes::from_static(v.as_bytes())
    }
}

impl From<String> for Bytes {
    fn from(v: String) -> Self {
        Bytes::from(v.into_bytes())
    }
}

impl From<Bytes> for Vec<u8> {
    fn from(b: Bytes) -> Self {
        b.to_vec()
    }
}

impl FromIterator<u8> for Bytes {
    fn from_iter<T: IntoIterator<Item = u8>>(iter: T) -> Self {
        Bytes::from(iter.into_iter().collect::<Vec<u8>>())
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_ref() == other.as_ref()
    }
}

impl Eq for Bytes {}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Bytes {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_ref().cmp(other.as_ref())
    }
}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_ref() == other
    }
}

impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_ref() == *other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_ref() == other.as_slice()
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_ref().hash(state);
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.iter() {
            if (0x20..0x7f).contains(&b) && b != b'"' && b != b'\\' {
                write!(f, "{}", b as char)?;
            } else {
                write!(f, "\\x{b:02x}")?;
            }
        }
        write!(f, "\"")
    }
}

/// A growable byte buffer, frozen into [`Bytes`] when complete.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    data: Vec<u8>,
}

impl BytesMut {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        BytesMut { data: Vec::new() }
    }

    /// Creates an empty buffer with `capacity` reserved.
    pub fn with_capacity(capacity: usize) -> Self {
        BytesMut { data: Vec::with_capacity(capacity) }
    }

    /// Number of bytes written.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Bytes the buffer can hold without reallocating.
    pub fn capacity(&self) -> usize {
        self.data.capacity()
    }

    /// Removes all bytes, keeping capacity.
    pub fn clear(&mut self) {
        self.data.clear();
    }

    /// Shortens the buffer to `len` bytes, keeping capacity (no effect
    /// when it is already that short).
    pub fn truncate(&mut self, len: usize) {
        self.data.truncate(len);
    }

    /// Reserves capacity for at least `additional` more bytes.
    pub fn reserve(&mut self, additional: usize) {
        self.data.reserve(additional);
    }

    /// Appends `extend` to the buffer.
    pub fn extend_from_slice(&mut self, extend: &[u8]) {
        self.data.extend_from_slice(extend);
    }

    /// Converts into an immutable [`Bytes`] (O(1), the buffer is moved).
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.data)
    }
}

impl Deref for BytesMut {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.data
    }
}

impl From<Vec<u8>> for BytesMut {
    fn from(data: Vec<u8>) -> Self {
        BytesMut { data }
    }
}

/// Write access to a byte buffer (little-endian scalar helpers).
pub trait BufMut {
    /// Appends raw bytes.
    fn put_slice(&mut self, src: &[u8]);

    /// Appends one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Appends a little-endian `u16`.
    fn put_u16_le(&mut self, v: u16) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `f32`.
    fn put_f32_le(&mut self, v: f32) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `f64`.
    fn put_f64_le(&mut self, v: f64) {
        self.put_slice(&v.to_le_bytes());
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.data.extend_from_slice(src);
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_shares_storage() {
        let b = Bytes::from(vec![1, 2, 3, 4, 5]);
        let s = b.slice(1..4);
        assert_eq!(s.as_ref(), &[2, 3, 4]);
        assert_eq!(s.slice(1..).as_ref(), &[3, 4]);
        assert_eq!(b.len(), 5);
    }

    #[test]
    fn freeze_and_from_vec_keep_the_data_pointer() {
        let mut m = BytesMut::with_capacity(64);
        m.extend_from_slice(b"0123456789");
        let before = m.as_ptr();
        let b = m.freeze();
        assert_eq!(b.as_ptr(), before, "freeze must not copy");
        let v = vec![7u8; 4096];
        let before = v.as_ptr();
        assert_eq!(Bytes::from(v).as_ptr(), before, "From<Vec<u8>> must not copy");
    }

    #[test]
    fn slice_and_clone_share_storage() {
        let b = Bytes::from(vec![1, 2, 3, 4, 5]);
        let base = b.as_ptr();
        assert_eq!(b.clone().as_ptr(), base);
        let s = b.slice(2..);
        assert_eq!(s.as_ptr(), base.wrapping_add(2));
        assert_eq!(s.slice(1..2).as_ptr(), base.wrapping_add(3));
        // The window outlives the handle it was cut from.
        drop(b);
        assert_eq!(s.as_ref(), &[3, 4, 5]);
    }

    #[test]
    fn empty_and_static_do_not_allocate() {
        // A `const fn` cannot allocate: evaluating both at compile time is
        // the proof.
        const EMPTY: Bytes = Bytes::new();
        const HELLO: Bytes = Bytes::from_static(b"hello");
        assert!(EMPTY.is_empty());
        assert_eq!(HELLO.slice(1..3).as_ref(), b"el");
        static SRC: [u8; 3] = [1, 2, 3];
        assert_eq!(Bytes::from_static(&SRC).as_ptr(), SRC.as_ptr());
    }

    #[test]
    #[should_panic(expected = "slice out of bounds")]
    fn slice_past_the_end_panics() {
        let _ = Bytes::from(vec![1, 2, 3]).slice(1..3).slice(..3);
    }

    #[test]
    #[should_panic(expected = "slice out of bounds")]
    fn slice_with_inverted_range_panics() {
        #[allow(clippy::reversed_empty_ranges)]
        let _ = Bytes::from(vec![1, 2, 3]).slice(2..1);
    }

    #[test]
    fn bytes_mut_is_patchable_in_place() {
        let mut m = BytesMut::new();
        m.put_u32_le(0);
        m.put_u8(9);
        m[..4].copy_from_slice(&0xAABB_CCDDu32.to_le_bytes());
        assert_eq!(m.freeze().as_ref(), &[0xDD, 0xCC, 0xBB, 0xAA, 9]);
    }

    #[test]
    fn freeze_roundtrip() {
        let mut m = BytesMut::new();
        m.put_u8(7);
        m.put_u32_le(0x01020304);
        m.extend_from_slice(b"xy");
        let b = m.freeze();
        assert_eq!(b.as_ref(), &[7, 4, 3, 2, 1, b'x', b'y']);
    }

    #[test]
    fn equality_ignores_window_offsets() {
        let a = Bytes::from(vec![9, 1, 2, 9]).slice(1..3);
        let b = Bytes::from(vec![1, 2]);
        assert_eq!(a, b);
        assert_eq!(a, vec![1u8, 2]);
    }

    #[test]
    fn debug_is_printable() {
        let b = Bytes::from_static(b"a\x00b");
        assert_eq!(format!("{b:?}"), "b\"a\\x00b\"");
    }
}
