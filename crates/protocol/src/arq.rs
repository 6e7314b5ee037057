//! Sliding-window ARQ: the reliable channel under events and invocations.
//!
//! The paper maps events onto "UDP using a mechanism to acknowledge and
//! resend lost packets", arguing that "this specific retransmission
//! mechanism in the application layer is more efficient for event messages
//! than the generic case provided by the TCP stack" (§4.2). This module is
//! that mechanism: a per-link, message-oriented sliding window with
//! cumulative + selective acknowledgements and exponential backoff.
//!
//! The retransmission timer follows the link's measured round trip (RFC
//! 6298). Each acknowledgement that [`ArqSender::on_ack_at`] processes
//! yields at most one sample: the send-to-ack time of the newest message
//! it newly acknowledges that was sent only once (Karn's rule: a resent
//! message's ack says nothing about which transmission it answers). The
//! smoothed round trip and its deviation set the first timer of every
//! message admitted afterwards, `srtt + max(G, 4·rttvar) + repair`, within
//! [`MIN_RTO`] and `max_rto`; `repair` is the longest a coded link's
//! receiver may wait for the parity that rebuilds an erasure, so the timer
//! does not race the FEC. Until the first sample a message gets
//! [`ArqConfig::initial_rto`]. A message's timer doubles at every resend.
//!
//! Unlike TCP there is no connection setup, no in-order byte stream head-of-
//! line blocking across *channels*, and acks piggyback one 64-bit selective
//! bitmap — the `arq_vs_tcp` bench (experiment C3) quantifies the payoff.
//!
//! Sequence numbering starts at 0 per channel. An acknowledgement carries
//! `cumulative` = the receiver's next expected sequence (all `seq <
//! cumulative` delivered) plus a bitmap covering `cumulative+1 ..=
//! cumulative+64` (bit `i` set means `cumulative + 1 + i` was received out
//! of order).
//!
//! Who owns which bytes: the sender copies a message once, into the tagged
//! `RelData` [`Envelope`] it builds when the window admits it, and keeps
//! that in flight; the first transmission and every retransmission — bare,
//! or as the payload of an FEC data shard — are windows onto those bytes.
//! Once an acknowledgement takes an envelope out of the window and nothing
//! else holds it, its storage is kept (up to [`LOAN_KEEP_BYTES`]) and the
//! next envelope is written into it.
//! The receiver's out-of-order buffer holds windows onto the datagrams the
//! messages arrived in. Operations that produce several things append them
//! to a buffer their caller owns; [`ArqSender::send`] and
//! [`ArqReceiver::on_data`] are the same operations for a caller that has
//! a `Bytes` and wants a fresh value back.

use std::collections::BTreeMap;

use bytes::{Bytes, BytesMut};

use crate::error::ProtocolError;
use crate::frame::LOAN_KEEP_BYTES;
use crate::messages::Message;
use crate::time::{Micros, ProtoDuration};

/// Tuning parameters for an ARQ sender.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArqConfig {
    /// Maximum unacknowledged messages in flight.
    pub window: usize,
    /// The timer before the first round-trip sample: until an
    /// acknowledgement has been timed, every message's first
    /// retransmission waits this long.
    pub initial_rto: ProtoDuration,
    /// Upper bound for the exponential backoff.
    pub max_rto: ProtoDuration,
    /// Transmission attempts (including the first) before giving up.
    pub max_attempts: u32,
}

impl Default for ArqConfig {
    fn default() -> Self {
        ArqConfig {
            window: 64,
            initial_rto: ProtoDuration::from_millis(50),
            max_rto: ProtoDuration::from_secs(1),
            max_attempts: 10,
        }
    }
}

/// The least the timer allows beyond the smoothed round trip: one
/// container tick, the longest a receiver holds its acknowledgement (RFC
/// 6298's clock granularity `G`).
const RTO_GRANULARITY: ProtoDuration = ProtoDuration(500);

/// The floor of a measured timer: RFC 6298 §2.4's one second, scaled down
/// to a LAN. It also keeps the give-up horizon under total loss (ten
/// transmissions, 4.27 s at the default `max_rto`) above a node timeout.
pub const MIN_RTO: ProtoDuration = ProtoDuration(10_000);

/// `srtt` before the first sample.
const UNSAMPLED: u32 = u32::MAX;

/// Counters exposed for the benchmarks and the container's health report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArqStats {
    /// First transmissions.
    pub sent: u64,
    /// Retransmissions.
    pub retransmitted: u64,
    /// Messages acknowledged.
    pub acked: u64,
    /// Messages abandoned after the retry budget.
    pub failed: u64,
    /// Payload bytes sent, including retransmissions.
    pub payload_bytes: u64,
}

/// One reliable message as it travels: its tagged `RelData` encoding
/// (`tag ‖ channel ‖ varint seq ‖ varint len ‖ inner`), built once when the
/// window admitted it. Every transmission of the message is these bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope {
    pub(crate) channel: u16,
    pub(crate) seq: u64,
    pub(crate) tagged: Bytes,
    /// Where the inner message starts in `tagged`.
    pub(crate) body: usize,
}

impl Envelope {
    /// The message's sequence number on its channel.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// The whole envelope: what `Message::RelData { .. }.encode_tagged()`
    /// would produce, and the payload of the message's FEC data shard.
    pub fn tagged(&self) -> &Bytes {
        &self.tagged
    }

    /// The bare wire message; its payload is a window onto the envelope.
    pub fn into_message(self) -> Message {
        let Envelope { channel, seq, tagged, body } = self;
        Message::RelData { channel, seq, payload: tagged.slice(body..) }
    }
}

#[derive(Debug)]
struct InFlight {
    envelope: Envelope,
    attempts: u32,
    rto: ProtoDuration,
    next_retx: Micros,
}

/// Sending half of a reliable channel.
#[derive(Debug)]
pub struct ArqSender {
    channel: u16,
    config: ArqConfig,
    next_seq: u64,
    inflight: BTreeMap<u64, InFlight>,
    stats: ArqStats,
    /// The emptied storage of an acknowledged envelope nothing else held
    /// (at most [`LOAN_KEEP_BYTES`] of capacity; none when empty): the next
    /// admitted message's envelope is written into it.
    spare: BytesMut,
    /// Smoothed round trip, µs ([`UNSAMPLED`] before the first sample).
    srtt: u32,
    /// Its smoothed mean deviation, µs.
    rttvar: u32,
}

impl ArqSender {
    /// Creates a sender for `channel`.
    pub fn new(channel: u16, config: ArqConfig) -> Self {
        ArqSender {
            channel,
            config,
            next_seq: 0,
            inflight: BTreeMap::new(),
            stats: ArqStats::default(),
            spare: BytesMut::new(),
            srtt: UNSAMPLED,
            rttvar: 0,
        }
    }

    /// Channel id.
    pub fn channel(&self) -> u16 {
        self.channel
    }

    /// `true` when another message can enter the window.
    pub fn can_send(&self) -> bool {
        self.inflight.len() < self.config.window
    }

    /// Messages currently awaiting acknowledgement.
    pub fn inflight_len(&self) -> usize {
        self.inflight.len()
    }

    /// Counters snapshot.
    pub fn stats(&self) -> ArqStats {
        self.stats
    }

    /// Capacity of the spare envelope storage kept for the next message.
    pub fn spare_bytes(&self) -> usize {
        self.spare.capacity()
    }

    /// The smoothed round trip, once an acknowledgement has been timed.
    pub fn srtt(&self) -> Option<ProtoDuration> {
        (self.srtt != UNSAMPLED).then_some(ProtoDuration(u64::from(self.srtt)))
    }

    /// The first retransmission timer a message admitted now gets, on a
    /// link whose receiver may wait up to `repair` for the parity that
    /// rebuilds an erasure (zero without FEC): [`ArqConfig::initial_rto`]
    /// before the first sample, else `srtt + max(G, 4·rttvar) + repair`
    /// within [`MIN_RTO`] and `max_rto` (`max_rto` wins if it is lower).
    pub fn rto(&self, repair: ProtoDuration) -> ProtoDuration {
        if self.srtt == UNSAMPLED {
            return self.config.initial_rto;
        }
        let spread = (4 * u64::from(self.rttvar)).max(RTO_GRANULARITY.0);
        let rto = ProtoDuration(u64::from(self.srtt) + spread + repair.0);
        rto.max(MIN_RTO).min(self.config.max_rto)
    }

    /// Folds one round-trip sample into the estimate (RFC 6298 §2).
    fn sample(&mut self, rtt: ProtoDuration) {
        let r = rtt.0.min(u64::from(UNSAMPLED - 1));
        if self.srtt == UNSAMPLED {
            self.srtt = r as u32;
            self.rttvar = (r / 2) as u32;
            return;
        }
        let (srtt, rttvar) = (u64::from(self.srtt), u64::from(self.rttvar));
        self.rttvar = ((3 * rttvar + srtt.abs_diff(r)) / 4) as u32;
        self.srtt = ((7 * srtt + r) / 8) as u32;
    }

    /// Accepts the tagged message `inner` into the window: builds its
    /// envelope — in the spare an acknowledgement left, if any — keeps it
    /// in flight with the timer [`ArqSender::rto`]`(repair)` and returns it
    /// for the first transmission.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::WindowFull`] when the window has no room; the caller
    /// queues and retries after the next acknowledgement.
    pub fn admit(
        &mut self,
        inner: &[u8],
        now: Micros,
        repair: ProtoDuration,
    ) -> Result<Envelope, ProtocolError> {
        if !self.can_send() {
            return Err(ProtocolError::WindowFull { window: self.config.window });
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.stats.sent += 1;
        self.stats.payload_bytes += inner.len() as u64;
        let spare = std::mem::take(&mut self.spare);
        let (tagged, body) = Message::rel_data_envelope(self.channel, seq, inner, spare);
        let envelope = Envelope { channel: self.channel, seq, tagged, body };
        let rto = self.rto(repair);
        self.inflight.insert(
            seq,
            InFlight { envelope: envelope.clone(), attempts: 1, rto, next_retx: now + rto },
        );
        Ok(envelope)
    }

    /// [`ArqSender::admit`] on a link without FEC, for a caller that holds
    /// the message as `Bytes` and wants the bare wire message.
    ///
    /// # Errors
    ///
    /// Those of [`ArqSender::admit`].
    pub fn send(&mut self, payload: Bytes, now: Micros) -> Result<Message, ProtocolError> {
        self.admit(&payload, now, ProtoDuration::ZERO).map(Envelope::into_message)
    }

    /// Processes an acknowledgement that arrived at `now`; returns how many
    /// messages left the window. The newest of them that was sent only
    /// once gives the round-trip sample. Without a spare, the first
    /// acknowledged envelope that nothing else holds any more — no
    /// transmission still queued, no receiver's window onto it — and that
    /// is no larger than [`LOAN_KEEP_BYTES`] becomes it.
    pub fn on_ack_at(&mut self, cumulative: u64, sack: u64, now: Micros) -> usize {
        self.ack(cumulative, sack, Some(now))
    }

    /// [`ArqSender::on_ack_at`] for a caller with no clock: the
    /// acknowledgement is not timed.
    pub fn on_ack(&mut self, cumulative: u64, sack: u64) -> usize {
        self.ack(cumulative, sack, None)
    }

    fn ack(&mut self, cumulative: u64, sack: u64, now: Option<Micros>) -> usize {
        let before = self.inflight.len();
        let spare = &mut self.spare;
        // A first transmission went out `rto` before its `next_retx`.
        let mut sent_once_at = None;
        self.inflight.retain(|&seq, entry| {
            let acked = acknowledges(cumulative, sack, seq);
            if acked && entry.attempts == 1 {
                sent_once_at = Some(entry.next_retx.0 - entry.rto.0);
            }
            if acked && spare.capacity() == 0 {
                let tagged = std::mem::take(&mut entry.envelope.tagged);
                if let Ok(mut storage) = tagged.try_into_mut() {
                    if storage.capacity() <= LOAN_KEEP_BYTES {
                        storage.clear();
                        *spare = storage;
                    }
                }
            }
            !acked
        });
        if let (Some(now), Some(sent)) = (now, sent_once_at) {
            self.sample(now.saturating_since(Micros(sent)));
        }
        let acked = before - self.inflight.len();
        self.stats.acked += acked as u64;
        acked
    }

    /// Hands every due retransmission to `retransmit`, in sequence order,
    /// and appends the sequences abandoned after their retry budget to
    /// `failed`.
    ///
    /// Call once per container tick. Abandoned sequences are reported so
    /// the container can raise the programmed emergency procedure (paper
    /// §4.3: "the middleware will warn the system").
    pub fn poll(
        &mut self,
        now: Micros,
        mut retransmit: impl FnMut(Envelope),
        failed: &mut Vec<u64>,
    ) {
        let abandoned_from = failed.len();
        for (&seq, entry) in self.inflight.iter_mut() {
            if entry.next_retx > now {
                continue;
            }
            if entry.attempts >= self.config.max_attempts {
                failed.push(seq);
                continue;
            }
            entry.attempts += 1;
            entry.rto = ProtoDuration(entry.rto.0.saturating_mul(2)).min(self.config.max_rto);
            entry.next_retx = now + entry.rto;
            self.stats.retransmitted += 1;
            self.stats.payload_bytes += (entry.envelope.tagged.len() - entry.envelope.body) as u64;
            retransmit(entry.envelope.clone());
        }
        for seq in &failed[abandoned_from..] {
            self.inflight.remove(seq);
            self.stats.failed += 1;
        }
    }

    /// Earliest pending retransmission deadline, for tick scheduling.
    pub fn next_deadline(&self) -> Option<Micros> {
        self.inflight.values().map(|e| e.next_retx).min()
    }
}

/// `true` when the acknowledgement `(cumulative, sack)` covers `seq`.
pub fn acknowledges(cumulative: u64, sack: u64, seq: u64) -> bool {
    if seq < cumulative {
        return true;
    }
    if seq > cumulative {
        let offset = seq - cumulative - 1;
        return offset < 64 && (sack >> offset) & 1 == 1;
    }
    false
}

/// Receiving half of a reliable channel.
#[derive(Debug)]
pub struct ArqReceiver {
    channel: u16,
    next_expected: u64,
    buffered: BTreeMap<u64, Bytes>,
    max_buffer: usize,
    duplicates: u64,
}

impl ArqReceiver {
    /// Creates a receiver for `channel`; `max_buffer` bounds out-of-order
    /// storage (protecting low-resource nodes).
    pub fn new(channel: u16, max_buffer: usize) -> Self {
        ArqReceiver {
            channel,
            next_expected: 0,
            buffered: BTreeMap::new(),
            max_buffer,
            duplicates: 0,
        }
    }

    /// Channel id.
    pub fn channel(&self) -> u16 {
        self.channel
    }

    /// Next sequence the receiver is waiting for.
    pub fn next_expected(&self) -> u64 {
        self.next_expected
    }

    /// Count of duplicate receptions observed (retransmission overshoot).
    pub fn duplicates(&self) -> u64 {
        self.duplicates
    }

    /// Processes incoming data; appends to `out` the payloads that became
    /// deliverable *in order* (possibly none, possibly several when a gap
    /// closes).
    pub fn on_data_into(&mut self, seq: u64, payload: Bytes, out: &mut Vec<Bytes>) {
        if seq < self.next_expected || self.buffered.contains_key(&seq) {
            self.duplicates += 1;
            return;
        }
        if seq != self.next_expected {
            // Out of order: buffer if within bounds, else drop (the sender
            // retransmits).
            if self.buffered.len() < self.max_buffer {
                self.buffered.insert(seq, payload);
            }
            return;
        }
        out.push(payload);
        self.next_expected += 1;
        while let Some(p) = self.buffered.remove(&self.next_expected) {
            out.push(p);
            self.next_expected += 1;
        }
    }

    /// [`ArqReceiver::on_data_into`] with a buffer of its own.
    pub fn on_data(&mut self, seq: u64, payload: Bytes) -> Vec<Bytes> {
        let mut out = Vec::new();
        self.on_data_into(seq, payload, &mut out);
        out
    }

    /// Builds the current acknowledgement message.
    ///
    /// `loss_permille` is not ARQ state: it is the FEC receiver's
    /// smoothed shard-loss estimate, piggybacked here so the peer's
    /// adaptive code-rate controller gets feedback for free (0 when the
    /// link runs no FEC).
    pub fn make_ack(&self) -> Message {
        self.make_ack_with_loss(0)
    }

    /// [`ArqReceiver::make_ack`] with an explicit piggybacked loss
    /// estimate.
    pub fn make_ack_with_loss(&self, loss_permille: u16) -> Message {
        let mut sack = 0u64;
        for &seq in self.buffered.keys() {
            let offset = seq - self.next_expected;
            debug_assert!(offset >= 1, "buffered seq below next_expected");
            let bit = offset - 1;
            if bit < 64 {
                sack |= 1 << bit;
            }
        }
        Message::RelAck {
            channel: self.channel,
            cumulative: self.next_expected,
            sack,
            loss_permille,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(n: u8) -> Bytes {
        Bytes::from(vec![n; 4])
    }

    fn cfg() -> ArqConfig {
        ArqConfig {
            window: 8,
            initial_rto: ProtoDuration::from_millis(10),
            max_rto: ProtoDuration::from_millis(80),
            max_attempts: 4,
        }
    }

    /// The retransmissions due at `now`, as bare messages, and the failures.
    fn poll(tx: &mut ArqSender, now: Micros) -> (Vec<Message>, Vec<u64>) {
        let (mut retx, mut failed) = (Vec::new(), Vec::new());
        tx.poll(now, |env| retx.push(env.into_message()), &mut failed);
        (retx, failed)
    }

    fn seq_of(m: &Message) -> u64 {
        match m {
            Message::RelData { seq, .. } => *seq,
            _ => panic!("not data"),
        }
    }

    #[test]
    fn lossless_in_order_delivery() {
        let mut tx = ArqSender::new(1, cfg());
        let mut rx = ArqReceiver::new(1, 64);
        let mut delivered = Vec::new();
        for i in 0..5u8 {
            let m = tx.send(payload(i), Micros::ZERO).unwrap();
            if let Message::RelData { seq, payload, .. } = m {
                delivered.extend(rx.on_data(seq, payload));
            }
        }
        assert_eq!(delivered.len(), 5);
        if let Message::RelAck { cumulative, sack, .. } = rx.make_ack() {
            assert_eq!(cumulative, 5);
            assert_eq!(sack, 0);
            assert_eq!(tx.on_ack(cumulative, sack), 5);
        }
        assert_eq!(tx.inflight_len(), 0);
        assert_eq!(tx.stats().retransmitted, 0);
    }

    #[test]
    fn window_fills_and_reopens() {
        let mut tx = ArqSender::new(1, cfg());
        for i in 0..8u8 {
            tx.send(payload(i), Micros::ZERO).unwrap();
        }
        assert!(!tx.can_send());
        assert!(matches!(
            tx.send(payload(9), Micros::ZERO),
            Err(ProtocolError::WindowFull { window: 8 })
        ));
        tx.on_ack(3, 0); // seqs 0,1,2 acked
        assert!(tx.can_send());
        assert_eq!(tx.inflight_len(), 5);
    }

    #[test]
    fn gap_is_buffered_and_closed() {
        let mut rx = ArqReceiver::new(1, 64);
        assert!(rx.on_data(1, payload(1)).is_empty());
        assert!(rx.on_data(2, payload(2)).is_empty());
        // Ack advertises the gap via sack bits.
        if let Message::RelAck { cumulative, sack, .. } = rx.make_ack() {
            assert_eq!(cumulative, 0);
            assert_eq!(sack, 0b11); // seqs 1 and 2 held
        }
        let got = rx.on_data(0, payload(0));
        assert_eq!(got.len(), 3, "gap closure releases the whole run");
        assert_eq!(rx.next_expected(), 3);
    }

    #[test]
    fn duplicates_are_counted_not_delivered() {
        let mut rx = ArqReceiver::new(1, 64);
        assert_eq!(rx.on_data(0, payload(0)).len(), 1);
        assert!(rx.on_data(0, payload(0)).is_empty());
        assert!(rx.on_data(5, payload(5)).is_empty());
        assert!(rx.on_data(5, payload(5)).is_empty());
        assert_eq!(rx.duplicates(), 2);
    }

    #[test]
    fn selective_ack_removes_out_of_order_receipts() {
        let mut tx = ArqSender::new(1, cfg());
        for i in 0..4u8 {
            tx.send(payload(i), Micros::ZERO).unwrap();
        }
        // Receiver saw 0 and 2, not 1 and 3.
        // cumulative=1 (next expected), sack bit0 -> seq 2.
        let removed = tx.on_ack(1, 0b01);
        assert_eq!(removed, 2);
        assert_eq!(tx.inflight_len(), 2);
        let left: Vec<u64> = tx.inflight.keys().copied().collect();
        assert_eq!(left, vec![1, 3]);
    }

    #[test]
    fn retransmission_backs_off_and_eventually_fails() {
        let mut tx = ArqSender::new(1, cfg());
        tx.send(payload(0), Micros::ZERO).unwrap();
        let mut now = Micros::ZERO;
        let mut retx_count = 0;
        let mut failed = Vec::new();
        // Drive time forward far enough for all attempts to expire.
        for _ in 0..64 {
            now += ProtoDuration::from_millis(10);
            let (retx, fail) = poll(&mut tx, now);
            retx_count += retx.len();
            failed.extend(fail);
            if !failed.is_empty() {
                break;
            }
        }
        assert_eq!(retx_count as u32, cfg().max_attempts - 1, "first send + retries");
        assert_eq!(failed, vec![0]);
        assert_eq!(tx.inflight_len(), 0);
        assert_eq!(tx.stats().failed, 1);
    }

    #[test]
    fn retransmits_carry_same_payload_and_seq() {
        let mut tx = ArqSender::new(3, cfg());
        let first = tx.send(payload(7), Micros::ZERO).unwrap();
        let (retx, _) = poll(&mut tx, Micros::from_millis(11));
        assert_eq!(retx.len(), 1);
        assert_eq!(seq_of(&retx[0]), seq_of(&first));
        if let (Message::RelData { payload: a, .. }, Message::RelData { payload: b, .. }) =
            (&first, &retx[0])
        {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn ack_after_retransmit_cleans_window() {
        let mut tx = ArqSender::new(1, cfg());
        tx.send(payload(0), Micros::ZERO).unwrap();
        poll(&mut tx, Micros::from_millis(11));
        assert_eq!(tx.on_ack(1, 0), 1);
        let (retx, fail) = poll(&mut tx, Micros::from_secs(10));
        assert!(retx.is_empty() && fail.is_empty());
    }

    #[test]
    fn next_deadline_tracks_earliest() {
        let mut tx = ArqSender::new(1, cfg());
        assert_eq!(tx.next_deadline(), None);
        tx.send(payload(0), Micros::ZERO).unwrap();
        tx.send(payload(1), Micros::from_millis(5)).unwrap();
        assert_eq!(tx.next_deadline(), Some(Micros::from_millis(10)));
    }

    #[test]
    fn receiver_buffer_bound_is_respected() {
        let mut rx = ArqReceiver::new(1, 2);
        assert!(rx.on_data(1, payload(1)).is_empty());
        assert!(rx.on_data(2, payload(2)).is_empty());
        assert!(rx.on_data(3, payload(3)).is_empty()); // dropped silently
        let got = rx.on_data(0, payload(0));
        assert_eq!(got.len(), 3, "seq 3 was dropped, run stops at 2");
        assert_eq!(rx.next_expected(), 3);
    }

    #[test]
    fn an_acknowledged_envelope_nothing_holds_is_written_again() {
        let mut tx = ArqSender::new(1, cfg());
        let first = tx.admit(&[1, 2, 3], Micros::ZERO, ProtoDuration::ZERO).unwrap();
        let storage = first.tagged().as_ptr();
        drop(first);
        assert_eq!(tx.spare_bytes(), 0);
        tx.on_ack(1, 0);
        assert!(tx.spare_bytes() > 0, "the acknowledged envelope became the spare");
        let second = tx.admit(&[4, 5, 6], Micros::ZERO, ProtoDuration::ZERO).unwrap();
        assert_eq!(second.tagged().as_ptr(), storage, "the next envelope was written elsewhere");
        let msg = Message::RelData { channel: 1, seq: 1, payload: Bytes::from_static(&[4, 5, 6]) };
        assert_eq!(second.tagged(), &msg.encode_tagged());
        // Still held (by `second`), then too large to keep: no spare.
        let big = tx.admit(&vec![7; 16 * 1024], Micros::ZERO, ProtoDuration::ZERO).unwrap();
        drop(big);
        tx.on_ack(3, 0);
        assert_eq!(tx.spare_bytes(), 0, "a held or oversized envelope was kept");
        assert_eq!(second.tagged(), &msg.encode_tagged());
    }

    /// The receiver's out-of-order buffer holds a window onto an envelope
    /// the sender has seen acknowledged; a hundred more messages through
    /// the sender's spare leave it as it was.
    #[test]
    fn a_held_out_of_order_window_survives_a_hundred_more_sends() {
        let mut tx = ArqSender::new(1, cfg());
        let mut rx = ArqReceiver::new(1, 64);
        let lost = tx.send(payload(0), Micros::ZERO).unwrap();
        let Message::RelData { seq, payload: held, .. } =
            tx.send(payload(1), Micros::ZERO).unwrap()
        else {
            panic!("not data")
        };
        assert!(rx.on_data(seq, held).is_empty(), "seq 1 waits for seq 0");
        for _ in 0..100 {
            let Message::RelData { seq, .. } = tx.send(payload(0xEE), Micros::ZERO).unwrap() else {
                panic!("not data")
            };
            tx.on_ack(seq + 1, 0);
        }
        assert!(tx.spare_bytes() > 0, "the sender reused storage meanwhile");
        let Message::RelData { payload: first, .. } = lost else { panic!("not data") };
        let released = rx.on_data(0, first);
        assert_eq!(released, [payload(0), payload(1)], "a held window was written over");
    }

    /// A link never acknowledged in time keeps the fixed timer: under total
    /// loss, sends at 0, 50, 150, … ms and abandonment at 6.55 s.
    #[test]
    fn before_any_sample_the_timer_is_initial_rto_doubling() {
        let mut tx = ArqSender::new(1, ArqConfig::default());
        tx.send(payload(0), Micros::ZERO).unwrap();
        tx.on_ack(1, 0); // untimed: no sample
        assert_eq!(tx.srtt(), None);
        assert_eq!(tx.rto(ProtoDuration::from_millis(5)), ArqConfig::default().initial_rto);
        tx.send(payload(1), Micros::ZERO).unwrap();
        let mut sends = vec![0];
        let mut now = Micros::ZERO;
        let abandoned = loop {
            now += ProtoDuration::from_millis(1);
            let (retx, failed) = poll(&mut tx, now);
            sends.extend(retx.iter().map(|_| now.as_millis()));
            if !failed.is_empty() {
                break now.as_millis();
            }
        };
        assert_eq!(sends, [0, 50, 150, 350, 750, 1_550, 2_550, 3_550, 4_550, 5_550]);
        assert_eq!(abandoned, 6_550);
    }

    #[test]
    fn an_ack_covering_a_resent_message_is_not_sampled() {
        let mut tx = ArqSender::new(1, cfg());
        tx.send(payload(0), Micros::ZERO).unwrap();
        assert_eq!(poll(&mut tx, Micros::from_millis(10)).0.len(), 1);
        tx.on_ack_at(1, 0, Micros::from_millis(12));
        assert_eq!(tx.srtt(), None, "which transmission did the ack answer?");

        tx.send(payload(1), Micros::from_millis(20)).unwrap();
        tx.on_ack_at(2, 0, Micros::from_millis(24));
        assert_eq!(tx.srtt(), Some(ProtoDuration::from_millis(4)));
        let rto = tx.rto(ProtoDuration::ZERO);
        tx.send(payload(2), Micros::from_millis(30)).unwrap();
        assert_eq!(poll(&mut tx, Micros::from_millis(30) + rto).0.len(), 1);
        tx.on_ack_at(3, 0, Micros::from_millis(70));
        assert_eq!(tx.srtt(), Some(ProtoDuration::from_millis(4)), "Karn's rule");
        assert_eq!(tx.rto(ProtoDuration::ZERO), rto);
    }

    #[test]
    fn the_newest_message_sent_once_gives_the_sample() {
        let mut tx = ArqSender::new(1, cfg());
        tx.send(payload(0), Micros::ZERO).unwrap();
        tx.send(payload(1), Micros::from_millis(3)).unwrap();
        tx.send(payload(2), Micros::from_millis(4)).unwrap();
        tx.on_ack_at(0, 0b11, Micros::from_millis(10)); // seqs 1 and 2
        assert_eq!(tx.srtt(), Some(ProtoDuration::from_millis(6)));
        tx.on_ack_at(3, 0, Micros::from_millis(10));
        assert_eq!(tx.srtt(), Some(ProtoDuration(6_000 * 7 / 8 + 10_000 / 8)), "seq 0 sampled");
    }

    #[test]
    fn a_steady_round_trip_sets_the_timer_to_it_plus_granularity_and_repair() {
        let config = ArqConfig { max_rto: ProtoDuration::from_secs(1), ..cfg() };
        for rtt_ms in [0, 1, 4, 12, 30] {
            for repair_ms in [0, 5] {
                let (rtt, repair) =
                    (ProtoDuration::from_millis(rtt_ms), ProtoDuration::from_millis(repair_ms));
                let mut tx = ArqSender::new(1, config);
                let mut now = Micros::ZERO;
                for seq in 0..100 {
                    tx.admit(&[0], now, repair).unwrap();
                    now += rtt;
                    tx.on_ack_at(seq + 1, 0, now);
                }
                assert_eq!(tx.srtt(), Some(rtt));
                let want = ProtoDuration(rtt.0 + RTO_GRANULARITY.0 + repair.0).max(MIN_RTO);
                assert_eq!(tx.rto(repair), want, "round trip {rtt_ms} ms, repair {repair_ms} ms");
                tx.admit(&[0], now, repair).unwrap();
                assert_eq!(tx.next_deadline(), Some(now + want), "the admitted message's timer");
            }
        }
    }

    #[test]
    fn the_timer_stays_within_its_floor_and_max_rto() {
        let mut tx = ArqSender::new(1, cfg());
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut now = Micros::ZERO;
        for seq in 0..2_000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            // Round trips from 0 to ~2 s, mostly short, some very long.
            let rtt = ProtoDuration((state >> 33) % if seq % 7 == 0 { 2_000_000 } else { 20_000 });
            tx.send(payload(0), now).unwrap();
            now += rtt;
            tx.on_ack_at(seq + 1, 0, now);
            for repair in [ProtoDuration::ZERO, ProtoDuration::from_millis(5)] {
                let rto = tx.rto(repair);
                assert!(MIN_RTO <= rto && rto <= cfg().max_rto, "{rto} after a {rtt} round trip");
            }
        }
    }

    #[test]
    fn sack_bitmap_caps_at_64() {
        let mut rx = ArqReceiver::new(1, 256);
        rx.on_data(70, payload(1)); // beyond bitmap range of cumulative 0
        if let Message::RelAck { cumulative, sack, .. } = rx.make_ack() {
            assert_eq!(cumulative, 0);
            assert_eq!(sack, 0, "seq 70 not representable, will be retransmitted");
        }
    }
}
