//! Fragmentation and reassembly of payloads larger than the transport MTU.
//!
//! The transport layer reports an MTU; any logical message whose frame
//! would exceed it is split into [`Message::Fragment`]s. Fragments of
//! different logical messages may interleave on the wire (and arrive
//! reordered or duplicated from multicast retransmission), so the
//! [`Reassembler`] keys buffers by `(source node, message id)` and evicts
//! incomplete sets after a timeout — best-effort traffic must never pin
//! memory on a low-resource node.

use std::collections::HashMap;
use std::ops::Range;

use bytes::{Bytes, BytesMut};

use crate::error::ProtocolError;
use crate::ids::NodeId;
use crate::messages::Message;
use crate::time::{Micros, ProtoDuration};

/// Upper bound on fragments per logical message.
pub const MAX_FRAGMENTS: u32 = 64 * 1024;

/// Upper bound on concurrently reassembling messages per source.
const MAX_PENDING_PER_SOURCE: usize = 64;

/// Splits `payload` into fragment messages of at most `max_chunk` bytes,
/// copying each piece out of the slice.
///
/// Returns a single-element vector when the payload already fits — callers
/// can treat the fragmentation path uniformly.
///
/// # Errors
///
/// [`ProtocolError::BadFragment`] when `max_chunk` is zero or the payload
/// would need more than [`MAX_FRAGMENTS`] pieces.
pub fn fragment_payload(
    msg_id: u64,
    payload: &[u8],
    max_chunk: usize,
) -> Result<Vec<Message>, ProtocolError> {
    fragments(msg_id, payload.len(), max_chunk, |piece| Bytes::copy_from_slice(&payload[piece]))
}

/// [`fragment_payload`] for a payload already held as [`Bytes`]: the same
/// split, but every piece is an O(1) window onto `payload`.
///
/// # Errors
///
/// Exactly those of [`fragment_payload`].
pub fn fragment_shared(
    msg_id: u64,
    payload: &Bytes,
    max_chunk: usize,
) -> Result<Vec<Message>, ProtocolError> {
    fragments(msg_id, payload.len(), max_chunk, |piece| payload.slice(piece))
}

fn fragments(
    msg_id: u64,
    len: usize,
    max_chunk: usize,
    piece: impl Fn(Range<usize>) -> Bytes,
) -> Result<Vec<Message>, ProtocolError> {
    if max_chunk == 0 {
        return Err(ProtocolError::BadFragment("fragment size of zero"));
    }
    // An empty payload still travels, as one empty fragment.
    let count = len.div_ceil(max_chunk).max(1);
    if count > MAX_FRAGMENTS as usize {
        return Err(ProtocolError::BadFragment("payload needs too many fragments"));
    }
    Ok((0..count)
        .map(|index| {
            let start = index * max_chunk;
            Message::Fragment {
                msg_id,
                index: index as u32,
                count: count as u32,
                payload: piece(start..usize::min(start + max_chunk, len)),
            }
        })
        .collect())
}

#[derive(Debug)]
struct Pending {
    parts: Vec<Option<Bytes>>,
    received: u32,
    first_seen: Micros,
}

/// Reassembles interleaved fragment streams from many sources.
#[derive(Debug)]
pub struct Reassembler {
    pending: HashMap<(NodeId, u64), Pending>,
    timeout: ProtoDuration,
    /// Lower bound on the oldest `first_seen` in `pending` (`None` when
    /// nothing is pending; exact again after every [`expire`](Self::expire)
    /// sweep). Lets the sweep — and a driver asking when it is next
    /// needed — skip the walk while nothing can be old enough.
    oldest: Option<Micros>,
}

impl Reassembler {
    /// Creates a reassembler that drops incomplete messages after `timeout`.
    pub fn new(timeout: ProtoDuration) -> Self {
        Reassembler { pending: HashMap::new(), timeout, oldest: None }
    }

    /// No incomplete set can expire before this instant (`None` when
    /// nothing is pending). May be early, never late.
    pub fn next_expiry(&self) -> Option<Micros> {
        self.oldest.map(|t| t + self.timeout)
    }

    /// Number of partially reassembled messages currently buffered.
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }

    /// Offers one received fragment; returns the full payload when this
    /// fragment completes its set.
    ///
    /// Duplicated fragments are ignored; inconsistent counts abort the set.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::BadFragment`] on inconsistent metadata (index out of
    /// range, count mismatch, zero count, over-limit counts or per-source
    /// buffer exhaustion).
    pub fn offer(
        &mut self,
        src: NodeId,
        msg_id: u64,
        index: u32,
        count: u32,
        payload: Bytes,
        now: Micros,
    ) -> Result<Option<Bytes>, ProtocolError> {
        if count == 0 {
            return Err(ProtocolError::BadFragment("fragment count of zero"));
        }
        if count > MAX_FRAGMENTS {
            return Err(ProtocolError::BadFragment("fragment count over limit"));
        }
        if index >= count {
            return Err(ProtocolError::BadFragment("fragment index out of range"));
        }
        // Fast path: unfragmented payload.
        if count == 1 {
            return Ok(Some(payload));
        }
        let key = (src, msg_id);
        if !self.pending.contains_key(&key) {
            // marea-lint: allow(D1): cardinality count; iteration order cannot affect the result
            let per_source = self.pending.keys().filter(|(s, _)| *s == src).count();
            if per_source >= MAX_PENDING_PER_SOURCE {
                return Err(ProtocolError::BadFragment("too many pending messages from source"));
            }
            self.oldest = Some(self.oldest.map_or(now, |t| t.min(now)));
        }
        let entry = self.pending.entry(key).or_insert_with(|| Pending {
            parts: vec![None; count as usize],
            received: 0,
            first_seen: now,
        });
        if entry.parts.len() != count as usize {
            // A mismatched count means the stream is corrupt; drop the set.
            self.remove(&key);
            return Err(ProtocolError::BadFragment("fragment count changed mid-stream"));
        }
        let slot = &mut entry.parts[index as usize];
        if slot.is_none() {
            *slot = Some(payload);
            entry.received += 1;
        }
        if entry.received == count {
            let Some(entry) = self.remove(&key) else { return Ok(None) };
            // `received == count` means every slot is filled; `flatten`
            // states that without a panic path.
            let total = entry.parts.iter().flatten().map(Bytes::len).sum();
            let mut full = BytesMut::with_capacity(total);
            for part in entry.parts.into_iter().flatten() {
                full.extend_from_slice(&part);
            }
            return Ok(Some(full.freeze()));
        }
        Ok(None)
    }

    fn remove(&mut self, key: &(NodeId, u64)) -> Option<Pending> {
        let entry = self.pending.remove(key);
        if self.pending.is_empty() {
            self.oldest = None;
        }
        entry
    }

    /// Drops incomplete sets older than the timeout; returns how many were
    /// evicted.
    pub fn expire(&mut self, now: Micros) -> usize {
        let timeout = self.timeout;
        if self.oldest.is_none_or(|t| now.saturating_since(t) < timeout) {
            return 0;
        }
        let before = self.pending.len();
        let mut oldest: Option<Micros> = None;
        self.pending.retain(|_, p| {
            let keep = now.saturating_since(p.first_seen) < timeout;
            if keep {
                oldest = Some(oldest.map_or(p.first_seen, |t| t.min(p.first_seen)));
            }
            keep
        });
        self.oldest = oldest;
        before - self.pending.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parts_of(msgs: &[Message]) -> Vec<(u64, u32, u32, Bytes)> {
        msgs.iter()
            .map(|m| match m {
                Message::Fragment { msg_id, index, count, payload } => {
                    (*msg_id, *index, *count, payload.clone())
                }
                other => panic!("unexpected {other:?}"),
            })
            .collect()
    }

    #[test]
    fn fragments_cover_payload_exactly() {
        let payload: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        let frags = fragment_payload(1, &payload, 1024).unwrap();
        assert_eq!(frags.len(), 10);
        let mut r = Reassembler::new(ProtoDuration::from_secs(1));
        let mut done = None;
        for (id, idx, cnt, bytes) in parts_of(&frags) {
            done = r.offer(NodeId(1), id, idx, cnt, bytes, Micros::ZERO).unwrap();
        }
        assert_eq!(done.unwrap().as_ref(), payload.as_slice());
        assert_eq!(r.pending_count(), 0);
    }

    #[test]
    fn small_payload_is_single_fragment() {
        let frags = fragment_payload(2, b"tiny", 1024).unwrap();
        assert_eq!(frags.len(), 1);
        let mut r = Reassembler::new(ProtoDuration::from_secs(1));
        let (id, idx, cnt, bytes) = parts_of(&frags).remove(0);
        let out = r.offer(NodeId(1), id, idx, cnt, bytes, Micros::ZERO).unwrap();
        assert_eq!(out.unwrap().as_ref(), b"tiny");
    }

    #[test]
    fn empty_payload_works() {
        let frags = fragment_payload(3, b"", 1024).unwrap();
        assert_eq!(frags.len(), 1);
    }

    #[test]
    fn out_of_order_and_duplicates_are_handled() {
        let payload: Vec<u8> = (0..5000u32).map(|i| i as u8).collect();
        let frags = parts_of(&fragment_payload(4, &payload, 999).unwrap());
        let mut r = Reassembler::new(ProtoDuration::from_secs(1));
        let mut order: Vec<usize> = (0..frags.len()).rev().collect();
        order.push(0); // duplicate
        let mut done = None;
        for i in order {
            let (id, idx, cnt, bytes) = frags[i].clone();
            if let Some(full) = r.offer(NodeId(9), id, idx, cnt, bytes, Micros::ZERO).unwrap() {
                done = Some(full);
            }
        }
        assert_eq!(done.unwrap().as_ref(), payload.as_slice());
    }

    #[test]
    fn interleaved_sources_do_not_collide() {
        let a = parts_of(&fragment_payload(7, b"aaaaaaaaaa", 4).unwrap());
        let b = parts_of(&fragment_payload(7, b"bbbbbbbbbb", 4).unwrap());
        let mut r = Reassembler::new(ProtoDuration::from_secs(1));
        let mut got = Vec::new();
        for ((id_a, ia, ca, pa), (id_b, ib, cb, pb)) in a.into_iter().zip(b) {
            if let Some(f) = r.offer(NodeId(1), id_a, ia, ca, pa, Micros::ZERO).unwrap() {
                got.push(f);
            }
            if let Some(f) = r.offer(NodeId(2), id_b, ib, cb, pb, Micros::ZERO).unwrap() {
                got.push(f);
            }
        }
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].as_ref(), b"aaaaaaaaaa");
        assert_eq!(got[1].as_ref(), b"bbbbbbbbbb");
    }

    #[test]
    fn timeout_evicts_incomplete_sets() {
        let frags = parts_of(&fragment_payload(5, &[0u8; 4000], 1000).unwrap());
        let mut r = Reassembler::new(ProtoDuration::from_millis(100));
        let (id, idx, cnt, bytes) = frags[0].clone();
        r.offer(NodeId(1), id, idx, cnt, bytes, Micros::ZERO).unwrap();
        assert_eq!(r.pending_count(), 1);
        assert_eq!(r.expire(Micros::from_millis(50)), 0);
        assert_eq!(r.expire(Micros::from_millis(150)), 1);
        assert_eq!(r.pending_count(), 0);
    }

    #[test]
    fn next_expiry_bounds_the_oldest_incomplete_set() {
        let frags = parts_of(&fragment_payload(5, &[0u8; 4000], 1000).unwrap());
        let mut r = Reassembler::new(ProtoDuration::from_millis(100));
        assert_eq!(r.next_expiry(), None);
        let (id, idx, cnt, bytes) = frags[0].clone();
        r.offer(NodeId(1), id, idx, cnt, bytes.clone(), Micros::from_millis(10)).unwrap();
        r.offer(NodeId(2), id, idx, cnt, bytes, Micros::from_millis(40)).unwrap();
        assert_eq!(r.next_expiry(), Some(Micros::from_millis(110)));
        assert_eq!(r.expire(Micros::from_millis(109)), 0);
        assert_eq!(r.expire(Micros::from_millis(110)), 1);
        assert_eq!(r.next_expiry(), Some(Micros::from_millis(140)), "exact after a sweep");
        // Completing the last pending set clears the bound.
        for (id, idx, cnt, bytes) in frags {
            r.offer(NodeId(2), id, idx, cnt, bytes, Micros::from_millis(50)).unwrap();
        }
        assert_eq!((r.pending_count(), r.next_expiry()), (0, None));
    }

    #[test]
    fn bad_metadata_is_rejected() {
        let mut r = Reassembler::new(ProtoDuration::from_secs(1));
        assert!(r.offer(NodeId(1), 1, 0, 0, Bytes::new(), Micros::ZERO).is_err());
        assert!(r.offer(NodeId(1), 1, 5, 3, Bytes::new(), Micros::ZERO).is_err());
        assert!(r.offer(NodeId(1), 1, 0, MAX_FRAGMENTS + 1, Bytes::new(), Micros::ZERO).is_err());
    }

    #[test]
    fn count_change_mid_stream_aborts_set() {
        let mut r = Reassembler::new(ProtoDuration::from_secs(1));
        r.offer(NodeId(1), 8, 0, 3, Bytes::from_static(b"x"), Micros::ZERO).unwrap();
        let err = r.offer(NodeId(1), 8, 1, 4, Bytes::from_static(b"y"), Micros::ZERO);
        assert!(err.is_err());
        assert_eq!(r.pending_count(), 0, "corrupt set is dropped");
    }

    #[test]
    fn per_source_buffer_limit() {
        let mut r = Reassembler::new(ProtoDuration::from_secs(1));
        for id in 0..64u64 {
            r.offer(NodeId(1), id, 0, 2, Bytes::new(), Micros::ZERO).unwrap();
        }
        assert!(r.offer(NodeId(1), 999, 0, 2, Bytes::new(), Micros::ZERO).is_err());
        // A different source is unaffected.
        assert!(r.offer(NodeId(2), 999, 0, 2, Bytes::new(), Micros::ZERO).is_ok());
    }

    #[test]
    fn zero_chunk_size_is_rejected() {
        assert!(fragment_payload(1, b"abc", 0).is_err());
    }
}
