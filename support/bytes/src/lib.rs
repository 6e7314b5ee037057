//! Offline stand-in for the [`bytes`](https://docs.rs/bytes) crate.
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors the small API subset MAREA actually uses: a cheaply-clonable
//! immutable byte buffer ([`Bytes`]), an append-only builder
//! ([`BytesMut`]) and the [`BufMut`] writer trait. The observable
//! behaviour of this subset matches the real crate, and so do the costs
//! the middleware relies on: `clone`/`slice` are O(1) and share storage,
//! [`BytesMut::freeze`] and `Bytes::from(Vec<u8>)` take the vector over
//! without copying it, [`Bytes::new`]/[`Bytes::from_static`] do not
//! allocate, and [`Bytes::try_into_mut`] hands storage nothing else holds
//! back to be written again. What differs is the representation (an `Arc<Vec<u8>>`, one
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

    /// `true` when no other handle (clone or slice) shares this storage —
    /// what [`Bytes::try_into_mut`] needs to succeed. Always `false` for
    /// static bytes.
    pub fn is_unique(&self) -> bool {
        match &self.data {
            Storage::Static(_) => false,
            Storage::Shared(v) => Arc::strong_count(v) == 1 && Arc::weak_count(v) == 0,
        }
    }

    /// The storage back as a writable buffer holding this window's bytes,
    /// when nothing else shares it ([`Bytes::is_unique`]); `self`
    /// unchanged otherwise, and always for static bytes. O(1) for a window
    /// that starts at the front. The vector keeps its capacity, and the
    /// buffer keeps the emptied reference-count box, which
    /// [`BytesMut::freeze`] fills again instead of allocating one.
    ///
    /// # Errors
    ///
    /// `self`, when the storage is static or shared.
    pub fn try_into_mut(self) -> Result<BytesMut, Bytes> {
        let Bytes { data, start, end } = self;
        let mut shell = match data {
            Storage::Shared(shell) => shell,
            data => return Err(Bytes { data, start, end }),
        };
        let Some(vec) = Arc::get_mut(&mut shell) else {
            return Err(Bytes { data: Storage::Shared(shell), start, end });
        };
        let mut data = std::mem::take(vec);
        data.truncate(end);
        data.drain(..start);
        Ok(BytesMut { data, shell: Some(shell) })
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
///
/// Equality, `Debug` and `Clone` see the bytes only: a buffer reclaimed by
/// [`Bytes::try_into_mut`] also holds an emptied reference-count box for
/// [`freeze`](Self::freeze) to reuse, and a clone does not share it.
#[derive(Default)]
pub struct BytesMut {
    data: Vec<u8>,
    shell: Option<Arc<Vec<u8>>>,
}

impl BytesMut {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        BytesMut { data: Vec::new(), shell: None }
    }

    /// Creates an empty buffer with `capacity` reserved.
    pub fn with_capacity(capacity: usize) -> Self {
        BytesMut { data: Vec::with_capacity(capacity), shell: None }
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

    /// Converts into an immutable [`Bytes`] (O(1), the buffer is moved —
    /// into the reference-count box it was reclaimed with, if any).
    pub fn freeze(self) -> Bytes {
        let BytesMut { data, shell } = self;
        if let Some(mut shell) = shell.filter(|_| !data.is_empty()) {
            if let Some(slot) = Arc::get_mut(&mut shell) {
                let end = data.len();
                *slot = data;
                return Bytes { data: Storage::Shared(shell), start: 0, end };
            }
        }
        Bytes::from(data)
    }
}

impl Clone for BytesMut {
    fn clone(&self) -> Self {
        BytesMut::from(self.data.clone())
    }
}

impl PartialEq for BytesMut {
    fn eq(&self, other: &Self) -> bool {
        self.data == other.data
    }
}

impl Eq for BytesMut {}

impl fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BytesMut").field("data", &self.data).finish()
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
        BytesMut { data, shell: None }
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

    fn arc_of(b: &Bytes) -> *const Vec<u8> {
        match &b.data {
            Storage::Shared(v) => Arc::as_ptr(v),
            Storage::Static(_) => std::ptr::null(),
        }
    }

    #[test]
    fn shared_and_static_bytes_are_not_reclaimed() {
        let b = Bytes::from(vec![1, 2, 3, 4]);
        let clone = b.clone();
        assert!(!b.is_unique());
        let b = b.try_into_mut().expect_err("a clone shares it");
        let slice = clone.slice(1..3);
        drop(clone);
        assert!(!slice.is_unique());
        let slice = slice.try_into_mut().expect_err("the whole buffer still shares it");
        assert_eq!(slice.as_ref(), &[2, 3], "a refused handle is handed back as it was");
        assert_eq!(b.as_ref(), &[1, 2, 3, 4]);
        for fixed in [Bytes::new(), Bytes::from_static(b"fixed")] {
            assert!(!fixed.is_unique());
            assert!(fixed.try_into_mut().is_err(), "static bytes are never writable");
        }
    }

    #[test]
    fn a_unique_window_comes_back_as_its_own_bytes() {
        let whole = Bytes::from(vec![1, 2, 3, 4, 5]);
        let window = whole.slice(1..4);
        drop(whole);
        assert!(window.is_unique());
        let m = window.try_into_mut().expect("nothing else holds it");
        assert_eq!(m.as_ref(), &[2, 3, 4]);
        assert!(m.capacity() >= 5, "the vector keeps its capacity");
    }

    #[test]
    fn freeze_after_reclaim_reuses_the_vector_and_its_box() {
        let b = Bytes::from(vec![9u8; 64]);
        let (data, arc) = (b.as_ptr(), arc_of(&b));
        let mut m = b.try_into_mut().expect("unique");
        m.clear();
        m.extend_from_slice(b"again");
        let again = m.freeze();
        assert_eq!(again.as_ref(), b"again");
        assert_eq!(again.as_ptr(), data, "the vector was reallocated");
        assert_eq!(arc_of(&again), arc, "a new reference-count box was allocated");
    }

    #[test]
    fn equality_and_clone_ignore_the_reclaimed_box() {
        let mut m = Bytes::from(vec![1, 2]).try_into_mut().expect("unique");
        assert_eq!(m, BytesMut::from(vec![1, 2]));
        let copy = m.clone();
        m.put_u8(3);
        assert_eq!(copy.freeze().as_ref(), &[1, 2], "a clone is its own buffer");
        assert_eq!(format!("{m:?}"), "BytesMut { data: [1, 2, 3] }");
    }

    #[test]
    fn debug_is_printable() {
        let b = Bytes::from_static(b"a\x00b");
        assert_eq!(format!("{b:?}"), "b\"a\\x00b\"");
    }
}
