//! Wire buffers on loan: a writer keeps a handle on every buffer it handed
//! out, oldest first, within a byte cap, and writes the next one into the
//! oldest of them that every reader has dropped (`Bytes::try_into_mut`
//! succeeds).

use std::collections::VecDeque;

use bytes::{Bytes, BytesMut};

/// Most capacity a writer keeps of the wire buffers it handed out — the
/// datagrams it sent or copied out of the kernel, the payloads it encoded
/// — to write the next ones into once nothing else holds them. A buffer
/// larger than this is not kept, so a rare large message or a hostile
/// 64 KiB datagram pins nothing. The value of
/// `marea_protocol::LOAN_KEEP_BYTES`, the cap on the reliable sender's
/// spare envelope; declared here too because this crate does not depend on
/// that one (`marea-core` asserts they agree).
pub const LOAN_KEEP_BYTES: usize = 2 * 1024;

/// The buffers a writer handed out, oldest first, each with its capacity,
/// while those capacities sum to at most [`LOAN_KEEP_BYTES`].
#[derive(Debug, Default)]
pub struct Loan {
    held: VecDeque<(Bytes, usize)>,
    /// The held buffers' capacities, summed.
    capacity: usize,
}

impl Loan {
    /// An empty buffer for the next write: the storage of the oldest held
    /// buffer nothing else holds any more, which leaves the loan, else a
    /// new one.
    pub fn reclaim(&mut self) -> BytesMut {
        let idle = self.held.iter().position(|(wire, _)| wire.is_unique());
        let Some((wire, capacity)) = idle.and_then(|at| self.held.remove(at)) else {
            return BytesMut::new();
        };
        self.capacity -= capacity;
        match wire.try_into_mut() {
            Ok(mut storage) => {
                storage.clear();
                storage
            }
            Err(_) => BytesMut::new(),
        }
    }

    /// Freezes `wire` for its readers and keeps a handle on it, newest,
    /// when its capacity is at most [`LOAN_KEEP_BYTES`]: the oldest held
    /// buffers leave until the capacities fit the cap again. An empty
    /// buffer freezes into no storage and is not kept.
    pub fn keep(&mut self, wire: BytesMut) -> Bytes {
        let capacity = wire.capacity();
        let wire = wire.freeze();
        if capacity <= LOAN_KEEP_BYTES && !wire.is_empty() {
            self.held.push_back((wire.clone(), capacity));
            self.capacity += capacity;
            while self.capacity > LOAN_KEEP_BYTES {
                let Some((_, oldest)) = self.held.pop_front() else { break };
                self.capacity -= oldest;
            }
        }
        wire
    }

    /// Capacity of the held buffers nothing else holds.
    pub fn bytes(&self) -> usize {
        self.held.iter().filter(|(wire, _)| wire.is_unique()).map(|(_, capacity)| capacity).sum()
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

    /// Random keeps (written through `reclaim`, some empty, some above the
    /// cap), windows taken and readers dropped, against a model of the
    /// loan: after every step the held capacities fit the cap, `reclaim`
    /// hands back the oldest held buffer no reader holds (a new one when
    /// there is none), and every reader reads the bytes it was given.
    #[test]
    fn reclaim_takes_the_oldest_buffer_no_reader_holds_under_random_ops() {
        /// A reader: the buffer it reads (by write number) and its bytes.
        struct Reader {
            buffer: usize,
            bytes: Bytes,
            expected: Vec<u8>,
        }
        for seed in 1..=16u64 {
            let mut rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let mut draw = |n: u64| {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                (rng % n) as usize
            };
            let mut loan = Loan::default();
            // The model: held (write number, capacity), oldest first; each
            // write's storage address.
            let mut model: VecDeque<(usize, usize)> = VecDeque::new();
            let mut storage: Vec<*const u8> = Vec::new();
            let mut readers: Vec<Reader> = Vec::new();
            for step in 0..400 {
                match draw(4) {
                    0 | 1 => {
                        let free =
                            model.iter().position(|(w, _)| readers.iter().all(|r| r.buffer != *w));
                        let mut wire = loan.reclaim();
                        assert!(wire.is_empty(), "seed {seed} step {step}");
                        match free.and_then(|at| model.remove(at)) {
                            Some((w, _)) => {
                                assert_eq!(wire.as_ptr(), storage[w], "seed {seed} step {step}");
                            }
                            None => assert_eq!(wire.capacity(), 0, "seed {seed} step {step}"),
                        }
                        let len = match draw(16) {
                            0 => 0,
                            1 => 3000,
                            _ => 1 + draw(700),
                        };
                        let expected: Vec<u8> = (0..len).map(|i| (i + step) as u8).collect();
                        wire.extend_from_slice(&expected);
                        let capacity = wire.capacity();
                        let bytes = loan.keep(wire);
                        let buffer = storage.len();
                        storage.push(bytes.as_ptr());
                        if capacity <= LOAN_KEEP_BYTES && len > 0 {
                            model.push_back((buffer, capacity));
                            while model.iter().map(|(_, c)| c).sum::<usize>() > LOAN_KEEP_BYTES {
                                model.pop_front();
                            }
                        }
                        readers.push(Reader { buffer, bytes, expected });
                    }
                    2 if !readers.is_empty() => {
                        let r = &readers[draw(readers.len() as u64)];
                        let len = r.expected.len();
                        let start = draw(len as u64 + 1);
                        let end = start + draw((len - start) as u64 + 1);
                        let window = Reader {
                            buffer: r.buffer,
                            bytes: r.bytes.slice(start..end),
                            expected: r.expected[start..end].to_vec(),
                        };
                        readers.push(window);
                    }
                    _ if !readers.is_empty() => {
                        readers.swap_remove(draw(readers.len() as u64));
                    }
                    _ => {}
                }
                let held = loan.held.iter().map(|(wire, c)| (wire.as_ptr(), *c));
                let modelled = model.iter().map(|(w, c)| (storage[*w], *c));
                assert!(held.eq(modelled), "seed {seed} step {step}");
                let sum = model.iter().map(|(_, c)| c).sum::<usize>();
                assert!(sum <= LOAN_KEEP_BYTES, "seed {seed} step {step}: {sum}");
                assert_eq!(loan.capacity, sum, "seed {seed} step {step}");
                let idle = model.iter().filter(|(w, _)| readers.iter().all(|r| r.buffer != *w));
                assert_eq!(
                    loan.bytes(),
                    idle.map(|(_, c)| c).sum::<usize>(),
                    "seed {seed} step {step}"
                );
                for r in &readers {
                    assert_eq!(r.bytes.as_ref(), &r.expected[..], "seed {seed} step {step}");
                }
            }
        }
    }
}
