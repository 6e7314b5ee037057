//! Forward error correction below the ARQ layer.
//!
//! The reliable channel's weakness on a degraded radio link is that every
//! erasure costs a full retransmission round-trip: the ARQ sender only
//! learns about a hole after an RTO or a SACK gap, which is exactly the
//! regime the paper's avionics workload cannot afford. This module adds a
//! transparent repair layer *underneath* ARQ: outgoing `RelData`
//! envelopes are wrapped as data shards of an interleaved systematic XOR
//! group ([`block`]), parity shards ride along at a code rate chosen from
//! a small table ([`rate`]), and the receiver rebuilds erased shards
//! locally — no round-trip — while an observed-loss estimator drives the
//! rate up and down as the link degrades and heals ([`adapt`]).
//!
//! Layering (wire order):
//!
//! ```text
//!   application payload
//!     └─ RelData { seq }              (ARQ: ordering + backstop retransmit)
//!          └─ FecShard { group, idx } (this module: RTT-free erasure repair)
//!               └─ Frame + CRC32      (framing, corruption detection)
//! ```
//!
//! Because the code is systematic, intact shards decode with zero added
//! latency; FEC only ever *adds* recovery opportunities, so every ARQ
//! invariant (exactly-once, in-order, RTO backstop) is preserved even if
//! the whole FEC layer is starved or confused.
//!
//! Who owns which bytes: a data shard's payload *is* the ARQ sender's
//! [`Envelope`] (shared, not re-encoded — [`FecSender::wrap`] alone still
//! encodes, for callers that hold a `Message`); a parity shard's payload is
//! lent to the [`WireSink`] as a [`ShardRef`] onto the encoder's lane, so a
//! sink that frames on the spot never copies it; a data shard received is
//! a window onto its datagram, and only a shard rebuilt from parity gets
//! storage of its own.

pub mod adapt;
pub mod block;
pub mod rate;

use bytes::Bytes;

use crate::arq::Envelope;
use crate::messages::{Message, ShardRef, WireSink};

pub use adapt::{LossEstimator, RateController};
pub use block::{Absorb, GroupDecoder, GroupEncoder, MAX_GROUP_DATA, PARITY_INDEX_BIT};
pub use rate::FecRate;

/// Largest inner message (tagged encoding) that will be coded; anything
/// bigger travels bare outside any group. Sized so a shard plus its
/// headers still fits a default 1500-byte MTU frame.
pub const MAX_SHARD_LEN: usize = 1200;

/// Group decoders kept live per link; groups older than the ring are
/// retired (and their losses accounted) as new groups arrive.
pub const DECODER_RING: usize = 4;

/// Sender-side counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FecTxStats {
    /// Data shards emitted (coded `RelData` envelopes).
    pub data_shards: u64,
    /// Parity shards emitted.
    pub parity_shards: u64,
    /// Messages sent bare because they exceeded [`MAX_SHARD_LEN`].
    pub bypassed: u64,
    /// Groups closed (full or flushed).
    pub groups: u64,
}

/// Receiver-side counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FecRxStats {
    /// Data shards received off the wire.
    pub data_shards: u64,
    /// Parity shards received off the wire.
    pub parity_shards: u64,
    /// Shards reconstructed via parity (each one a saved retransmit RTT).
    pub recovered: u64,
    /// Groups retired with unrecoverable erasures (ARQ's RTO backstop
    /// covers these).
    pub unrecoverable_groups: u64,
    /// Duplicate or malformed shards ignored.
    pub discarded: u64,
}

/// Wraps a link's outgoing `RelData` stream into FEC groups.
#[derive(Debug)]
pub struct FecSender {
    channel: u16,
    encoder: GroupEncoder,
    controller: RateController,
    next_group: u64,
    /// Geometry of the open group (rate changes apply at group start).
    open: Option<(u8, u8)>,
    stats: FecTxStats,
}

impl FecSender {
    /// A sender bounded by the negotiated `cap`.
    pub fn new(channel: u16, cap: FecRate) -> Self {
        FecSender {
            channel,
            encoder: GroupEncoder::new(MAX_SHARD_LEN, 2),
            controller: RateController::new(cap),
            next_group: 0,
            open: None,
            stats: FecTxStats::default(),
        }
    }

    /// Sender counters.
    pub fn stats(&self) -> FecTxStats {
        self.stats
    }

    /// The rate currently in force.
    pub fn rate(&self) -> FecRate {
        self.controller.rate()
    }

    /// The negotiated ceiling.
    pub fn cap(&self) -> FecRate {
        self.controller.cap()
    }

    /// Re-negotiates the ceiling (peer capability learned or changed).
    /// Resets the controller to the lightest rate under the new cap but
    /// keeps group ids monotonic so the peer's decoder ring stays sane.
    /// Any open group is abandoned without parity — its data shards are
    /// already out and remain decodable (systematic code, ARQ backstop).
    pub fn set_cap(&mut self, cap: FecRate) {
        if self.open.take().is_some() {
            self.stats.groups += 1;
            self.next_group += 1;
        }
        self.controller = RateController::new(cap);
    }

    /// Feeds the peer's piggybacked loss estimate into the controller.
    pub fn on_loss_report(&mut self, loss_permille: u16) {
        self.controller.update(loss_permille);
    }

    /// `true` when a started group is still waiting for more shards.
    pub fn has_open_group(&self) -> bool {
        self.open.is_some()
    }

    /// Wraps one reliable message; hands `sink` the resulting wire
    /// messages: the data shard around the envelope now, plus the group's
    /// parity when it fills. A message that cannot be coded goes bare.
    pub fn wrap_envelope(&mut self, envelope: Envelope, sink: &mut impl WireSink) {
        let Envelope { channel, seq, tagged, body } = envelope;
        let bare = move |tagged| Envelope { channel, seq, tagged, body }.into_message();
        self.wrap_tagged(tagged, bare, sink);
    }

    /// [`FecSender::wrap_envelope`] for a caller that holds the inner
    /// message decoded: it is encoded here to become the shard.
    pub fn wrap(&mut self, inner: Message, out: &mut Vec<Message>) {
        self.wrap_tagged(inner.encode_tagged(), |_| inner, out);
    }

    /// Codes `tagged` as the open group's next data shard, or sends
    /// `bare(tagged)` — the same message, uncoded — when it cannot be.
    fn wrap_tagged(
        &mut self,
        tagged: Bytes,
        bare: impl FnOnce(Bytes) -> Message,
        sink: &mut impl WireSink,
    ) {
        if self.controller.rate() == FecRate::Off {
            return sink.message(bare(tagged));
        }
        if tagged.len() > self.encoder.max_shard() {
            self.stats.bypassed += 1;
            return sink.message(bare(tagged));
        }
        let (k, r) = match self.open {
            Some(geom) => geom,
            None => {
                let (k, r) = self.controller.rate().params();
                self.encoder.begin(k, r);
                self.open = Some((k, r));
                (k, r)
            }
        };
        let Some(index) = self.encoder.push(&tagged) else {
            // Group refused the shard (cannot happen with an open,
            // non-full group and a size-checked payload — but never
            // silently drop reliable traffic on a defensive branch).
            self.stats.bypassed += 1;
            return sink.message(bare(tagged));
        };
        self.stats.data_shards += 1;
        sink.message(Message::FecShard {
            channel: self.channel,
            group: self.next_group,
            index,
            k,
            r,
            payload: tagged,
        });
        if self.encoder.is_full() {
            self.close_group(sink);
        }
    }

    /// Closes the open group if any shards are pending, emitting its
    /// parity. Called by the link on tick boundaries so sparse traffic
    /// still gets repair shards with bounded delay.
    pub fn flush(&mut self, sink: &mut impl WireSink) {
        if self.open.is_some() && self.encoder.pushed() > 0 {
            self.close_group(sink);
        } else {
            self.open = None;
        }
    }

    fn close_group(&mut self, sink: &mut impl WireSink) {
        let Some((_, r)) = self.open.take() else { return };
        let k_actual = self.encoder.pushed();
        for lane in 0..self.encoder.parity_lanes() {
            sink.shard(ShardRef {
                channel: self.channel,
                group: self.next_group,
                index: PARITY_INDEX_BIT | lane,
                k: k_actual,
                r,
                payload: self.encoder.parity(lane),
            });
            self.stats.parity_shards += 1;
        }
        self.stats.groups += 1;
        self.next_group += 1;
    }
}

/// Unwraps a link's incoming FEC shard stream, recovering erasures.
#[derive(Debug)]
pub struct FecReceiver {
    ring: Vec<GroupDecoder>,
    estimator: LossEstimator,
    /// Groups at or below this id are retired; late shards for them are
    /// passed through without bookkeeping.
    retired_below: u64,
    stats: FecRxStats,
}

impl Default for FecReceiver {
    fn default() -> Self {
        FecReceiver::new()
    }
}

impl FecReceiver {
    /// A receiver with a preallocated [`DECODER_RING`]-deep group ring.
    pub fn new() -> Self {
        FecReceiver {
            ring: (0..DECODER_RING).map(|_| GroupDecoder::new(MAX_SHARD_LEN, 2)).collect(),
            estimator: LossEstimator::new(),
            retired_below: 0,
            stats: FecRxStats::default(),
        }
    }

    /// Receiver counters.
    pub fn stats(&self) -> FecRxStats {
        self.stats
    }

    /// The smoothed shard-loss estimate, ready to piggyback on `RelAck`.
    pub fn loss_permille(&self) -> u16 {
        self.estimator.loss_permille()
    }

    /// Processes one shard. Inner tagged messages ready for the ARQ layer
    /// — the shard's own payload for a fresh data shard, plus any shards
    /// recovery just rebuilt — are appended to `deliver`.
    pub fn on_shard(
        &mut self,
        group: u64,
        index: u8,
        k: u8,
        r: u8,
        payload: &Bytes,
        deliver: &mut Vec<Bytes>,
    ) {
        let is_parity = index & PARITY_INDEX_BIT != 0;
        if is_parity {
            self.stats.parity_shards += 1;
        } else {
            self.stats.data_shards += 1;
        }
        let Some(slot) = self.slot_for(group) else {
            // Group already aged out of the ring: the data itself is
            // still perfectly good (ARQ dedups), only repair bookkeeping
            // is lost.
            if is_parity {
                self.stats.discarded += 1;
            } else {
                deliver.push(payload.clone());
            }
            return;
        };
        let outcome = if is_parity {
            self.ring[slot].on_parity(index & !PARITY_INDEX_BIT, k, r, payload)
        } else {
            self.ring[slot].on_data(index, r, payload)
        };
        match outcome {
            Absorb::Fresh if !is_parity => deliver.push(payload.clone()),
            Absorb::Fresh => {}
            Absorb::Duplicate => {
                self.stats.discarded += 1;
                return;
            }
            Absorb::Rejected => {
                self.stats.discarded += 1;
                // Malformed bookkeeping must not eat reliable data.
                if !is_parity {
                    deliver.push(payload.clone());
                }
                return;
            }
        }
        while let Some((_, data)) = self.ring[slot].recover() {
            self.stats.recovered += 1;
            deliver.push(Bytes::copy_from_slice(data));
        }
    }

    /// Finds (or evicts for) the decoder serving `group`.
    fn slot_for(&mut self, group: u64) -> Option<usize> {
        if group < self.retired_below {
            return None;
        }
        let mut free: Option<usize> = None;
        let mut oldest: Option<(usize, u64)> = None;
        for (i, d) in self.ring.iter().enumerate() {
            if d.in_use() {
                if d.group == group {
                    return Some(i);
                }
                match oldest {
                    Some((_, g)) if g <= d.group => {}
                    _ => oldest = Some((i, d.group)),
                }
            } else if free.is_none() {
                free = Some(i);
            }
        }
        if let Some(i) = free {
            self.ring[i].reset(group);
            return Some(i);
        }
        // Ring full: retire the oldest group, accounting its losses.
        let (i, evicted) = oldest?;
        if evicted > group {
            // Incoming shard is older than everything live: too late.
            return None;
        }
        self.retire_slot(i);
        self.retired_below = self.retired_below.max(evicted + 1);
        self.ring[i].reset(group);
        Some(i)
    }

    fn retire_slot(&mut self, i: usize) {
        let d = &mut self.ring[i];
        let expected = d.expected_count();
        let received = d.received_count();
        if expected > 0 {
            self.estimator.observe_group(received, expected);
            if received < expected {
                self.stats.unrecoverable_groups += 1;
            }
        }
        d.retire();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inner(seq: u64) -> Message {
        Message::RelData { channel: 0, seq, payload: Bytes::copy_from_slice(&seq.to_le_bytes()) }
    }

    fn roundtrip(drop: impl Fn(usize) -> bool, n: u64) -> (Vec<Message>, FecRxStats) {
        let mut tx = FecSender::new(0, FecRate::Medium);
        let mut wire = Vec::new();
        for seq in 0..n {
            tx.wrap(inner(seq), &mut wire);
        }
        tx.flush(&mut wire);
        let mut rx = FecReceiver::new();
        let mut delivered = Vec::new();
        for (i, m) in wire.iter().enumerate() {
            if drop(i) {
                continue;
            }
            let Message::FecShard { group, index, k, r, payload, .. } = m else {
                panic!("all coded at Medium: {m:?}");
            };
            rx.on_shard(*group, *index, *k, *r, payload, &mut delivered);
        }
        let msgs = delivered.iter().map(|b| Message::decode_tagged(b).expect("valid")).collect();
        (msgs, rx.stats())
    }

    #[test]
    fn lossless_stream_passes_straight_through() {
        let (msgs, stats) = roundtrip(|_| false, 8);
        assert_eq!(msgs.len(), 8);
        assert_eq!(stats.recovered, 0);
        assert_eq!(stats.unrecoverable_groups, 0);
        for (seq, m) in msgs.iter().enumerate() {
            assert_eq!(*m, inner(seq as u64));
        }
    }

    #[test]
    fn single_erasure_per_group_is_rebuilt_without_arq() {
        // Medium = (4, 1): wire layout per group is d d d d p.
        // Drop the second data shard of the first group (wire index 1).
        let (msgs, stats) = roundtrip(|i| i == 1, 8);
        assert_eq!(stats.recovered, 1);
        let mut seqs: Vec<u64> = msgs
            .iter()
            .map(|m| match m {
                Message::RelData { seq, .. } => *seq,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        seqs.sort_unstable();
        assert_eq!(seqs, (0..8).collect::<Vec<_>>(), "every seq arrives, one via parity");
    }

    #[test]
    fn beyond_budget_losses_fall_through_to_arq() {
        // Drop two data shards of the same group: XOR cannot rebuild.
        let (msgs, _) = roundtrip(|i| i == 0 || i == 1, 4);
        assert_eq!(msgs.len(), 2, "survivors still delivered; ARQ covers the rest");
    }

    #[test]
    fn oversize_messages_bypass_coding() {
        let mut tx = FecSender::new(0, FecRate::Medium);
        let big = Message::RelData {
            channel: 0,
            seq: 1,
            payload: Bytes::from(vec![0u8; MAX_SHARD_LEN + 100]),
        };
        let mut out = Vec::new();
        tx.wrap(big.clone(), &mut out);
        assert_eq!(out, vec![big]);
        assert_eq!(tx.stats().bypassed, 1);
    }

    #[test]
    fn off_rate_is_a_no_op() {
        let mut tx = FecSender::new(0, FecRate::Off);
        let mut out = Vec::new();
        tx.wrap(inner(0), &mut out);
        tx.flush(&mut out);
        assert_eq!(out, vec![inner(0)]);
        assert_eq!(tx.stats().data_shards, 0);
    }

    #[test]
    fn loss_reports_tighten_the_sender_rate() {
        let mut tx = FecSender::new(0, FecRate::Max);
        assert_eq!(tx.rate(), FecRate::Light);
        tx.on_loss_report(250);
        assert_eq!(tx.rate(), FecRate::Max);
    }

    #[test]
    fn ring_eviction_feeds_the_estimator() {
        let mut tx = FecSender::new(0, FecRate::Max); // (2, 2) groups at Max
        tx.on_loss_report(999);
        let mut wire = Vec::new();
        for seq in 0..64 {
            tx.wrap(inner(seq), &mut wire);
        }
        tx.flush(&mut wire);
        let mut rx = FecReceiver::new();
        let mut delivered = Vec::new();
        // Drop every parity shard and every other data shard: heavy loss.
        for (i, m) in wire.iter().enumerate() {
            let Message::FecShard { group, index, k, r, payload, .. } = m else {
                panic!("coded stream expected");
            };
            if (index & PARITY_INDEX_BIT != 0) || i.is_multiple_of(2) {
                continue;
            }
            rx.on_shard(*group, *index, *k, *r, payload, &mut delivered);
        }
        assert!(rx.loss_permille() > 300, "estimator must see the bleed: {}", rx.loss_permille());
        assert!(rx.stats().unrecoverable_groups > 0);
    }

    #[test]
    fn late_shards_still_deliver_their_data() {
        let mut rx = FecReceiver::new();
        let mut delivered = Vec::new();
        // Groups 10..14 fill the ring and slide the retire watermark.
        for g in 10..14u64 {
            rx.on_shard(g, 0, 2, 1, &Bytes::from_static(b"live"), &mut delivered);
        }
        rx.on_shard(14, 0, 2, 1, &Bytes::from_static(b"evictor"), &mut delivered);
        let before = delivered.len();
        rx.on_shard(9, 0, 2, 1, &Bytes::from_static(b"late"), &mut delivered);
        assert_eq!(delivered.len(), before + 1, "late data passes through bare");
    }
}
