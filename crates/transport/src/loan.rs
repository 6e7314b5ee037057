//! One wire buffer on loan: a writer keeps a handle on the last buffer it
//! handed out and writes the next one into that storage once every reader
//! has dropped theirs (`Bytes::try_into_mut` succeeds).

use bytes::{Bytes, BytesMut};

/// Most capacity a writer keeps of a wire buffer it handed out — a
/// datagram it sent or copied out of the kernel, a `RelData` envelope —
/// to write the next one into once nothing else holds it. A larger buffer
/// is not kept, so a rare large message or a hostile 64 KiB datagram pins
/// nothing. The value of `marea_protocol::LOAN_KEEP_BYTES`, the cap on the
/// reliable sender's spare envelope; declared here too because this crate
/// does not depend on that one (`marea-core` asserts they agree).
pub const LOAN_KEEP_BYTES: usize = 2 * 1024;

/// The last buffer a writer handed out within [`LOAN_KEEP_BYTES`], and its
/// capacity.
#[derive(Debug, Default)]
pub struct Loan {
    held: Bytes,
    capacity: usize,
}

impl Loan {
    /// An empty buffer for the next write: the loaned storage when nothing
    /// else holds it any more, else a new one. Either way the loan is
    /// given up.
    pub fn reclaim(&mut self) -> BytesMut {
        match std::mem::take(&mut self.held).try_into_mut() {
            Ok(mut storage) => {
                storage.clear();
                storage
            }
            Err(_) => BytesMut::new(),
        }
    }

    /// Freezes `wire` for its readers, and keeps a handle on it as the
    /// loan when its capacity is at most [`LOAN_KEEP_BYTES`].
    pub fn keep(&mut self, wire: BytesMut) -> Bytes {
        let capacity = wire.capacity();
        let wire = wire.freeze();
        if capacity <= LOAN_KEEP_BYTES {
            (self.held, self.capacity) = (wire.clone(), capacity);
        }
        wire
    }

    /// Capacity of the loaned storage while nothing else holds it.
    pub fn bytes(&self) -> usize {
        if self.held.is_unique() {
            self.capacity
        } else {
            0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storage_comes_back_only_once_every_reader_is_gone() {
        let mut loan = Loan::default();
        assert_eq!(loan.bytes(), 0);
        let mut wire = loan.reclaim();
        wire.extend_from_slice(&[1; 100]);
        let first = loan.keep(wire);
        let storage = first.as_ptr();
        let window = first.slice(10..20);
        drop(first);
        assert_eq!(loan.bytes(), 0, "a window still reads it");
        assert_ne!(loan.reclaim().as_ptr(), storage);

        let mut wire = loan.reclaim();
        wire.extend_from_slice(&[2; 100]);
        drop(loan.keep(wire));
        assert!(loan.bytes() >= 100 && loan.bytes() <= LOAN_KEEP_BYTES, "{}", loan.bytes());
        let again = loan.reclaim();
        assert!(again.is_empty());
        assert_eq!(loan.bytes(), 0, "a reclaimed loan is given up");
        assert_eq!(window.as_ref(), &[1; 10]);
    }
}
