//! The per-tick outbox: frames staged into one datagram per destination.
//!
//! Nothing the container sends leaves at once. Every message is encoded
//! straight into the tail of its destination's open datagram and the
//! container hands the lot to the transport when its `tick` (or `start`,
//! or `stop`) ends — so a reply, the acknowledgement that follows it and a
//! heartbeat to the same peer cost one `Transport::send`, not three. The
//! rules (DESIGN.md §3):
//!
//! * datagrams leave in the order of their first staged frame, and the
//!   frames inside one are in staging order — per destination, the wire
//!   order is the staging order;
//! * a datagram closes when the next frame for its destination would pass
//!   the MTU; that frame opens the destination's next datagram;
//! * **a datagram carries at most one `FecShard`**: the datagram is FEC's
//!   erasure unit, and a parity shard lost together with a data shard of
//!   its group repairs nothing;
//! * nothing stays staged across a tick.
//!
//! The datagram is the only storage a frame gets here. The reliable links
//! write into it through [`Outbox::to`], a [`WireSink`]: a message is framed
//! and dropped, a parity shard is framed from the FEC encoder's own lane.
//! A datagram that closes at the MTU leaves its buffer to the next one,
//! which is written straight behind it: a burst to one destination — a
//! file round's chunks, a large message's fragments — is one buffer,
//! frozen once at [`drain`](Outbox::drain) and handed out as a window per
//! datagram. Every other datagram opens a buffer of its own. The outbox
//! keeps a handle on each such datagram it drained, newest last, while
//! their capacities sum to at most 2 KiB — its *loan*: the next buffer it
//! opens is the storage of the oldest one that the transport and every
//! receiver that read it have dropped (`Bytes::try_into_mut` succeeds),
//! instead of a new one.

use bytes::{Bytes, BytesMut};

use marea_protocol::fragment::fragment_shared;
use marea_protocol::{Appended, FrameBody, Message, MessageKind, NodeId, ShardRef, WireSink};
use marea_transport::{Loan, TransportDestination};

use crate::stats::ContainerStats;

/// Bytes a burst's buffer holds before its next datagram opens a buffer of
/// its own. The buffer is sized once, as the burst begins, for this much
/// more than its first datagram, so a window a receiver keeps pins little
/// more than this. Grown from one datagram's size by doubling instead, a
/// 32-datagram burst's buffer left the heap top to be trimmed and faulted
/// in again every round (`payload_bulk` under glibc 2.36 malloc: 311 k
/// minor page faults a run instead of 12 k, and 19 % fewer deliveries per
/// host second).
const BURST_BYTES: usize = 16 * 1024;

/// One datagram staged this tick.
#[derive(Debug)]
struct Datagram {
    dest: TransportDestination,
    frames: Frames,
}

// The staging table costs no more per datagram for holding bursts.
const _: () = assert!(std::mem::size_of::<Datagram>() <= 48);

/// Where a staged datagram's whole frames are.
#[derive(Debug)]
enum Frames {
    /// The last `len` bytes of `wire`. The bytes in front of them are the
    /// destination's earlier datagrams of the same burst, whose `wire` is
    /// empty: a datagram that closed at the MTU hands its buffer to the
    /// next one. The destination's open datagram always holds its buffer.
    Staged { wire: BytesMut, len: u32, has_shard: bool },
    /// Drained out of a burst: its window onto the burst's frozen buffer.
    Window(Bytes),
}

/// Datagrams staged since the last drain, in order of their first frame.
/// The last one for a destination is its open one; earlier ones are closed.
#[derive(Debug)]
pub(crate) struct Outbox {
    /// The node every frame is from.
    src: NodeId,
    datagrams: Vec<Datagram>,
    /// Id of the last message sent as fragments.
    last_msg_id: u64,
    frames_out: u64,
    bytes_out: u64,
    /// The datagrams with a buffer of their own drained, newest last,
    /// within the loan cap.
    loan: Loan,
}

impl Outbox {
    pub fn new(src: NodeId) -> Self {
        Outbox {
            src,
            datagrams: Vec::new(),
            last_msg_id: 0,
            frames_out: 0,
            bytes_out: 0,
            loan: Loan::default(),
        }
    }

    /// Stages `body` for `dest`, for a transport whose datagrams hold `mtu`
    /// bytes: as one frame, in the datagram it shares with the other frames
    /// bound there, or — a message no datagram can hold — as fragments.
    pub fn send(&mut self, dest: TransportDestination, body: &impl FrameBody, mtu: usize) {
        let Err(tagged) = self.stage(dest, body, mtu) else { return };
        self.last_msg_id += 1;
        let budget = mtu.saturating_sub(96).max(128);
        let Ok(frags) = fragment_shared(self.last_msg_id, &tagged, budget) else {
            return;
        };
        for frag in &frags {
            // Only under an MTU below the 128-byte fragment floor can a
            // fragment fit no datagram; no transport could carry it.
            let _ = self.stage(dest, frag, mtu);
        }
    }

    /// Stages `body` as one frame and counts it; answers the frame's size.
    /// A message that fits no datagram is not staged: its tagged bytes come
    /// back as the error, for the caller to fragment and stage in pieces.
    pub fn stage(
        &mut self,
        dest: TransportDestination,
        body: &impl FrameBody,
        mtu: usize,
    ) -> Result<usize, Bytes> {
        let len = self.place(dest, body, mtu)?;
        self.frames_out += 1;
        self.bytes_out += len as u64;
        Ok(len)
    }

    /// Frames `body` into `dest`'s open datagram, or into the one it opens:
    /// behind the open one, in its buffer, when that one is full, else in a
    /// buffer of its own.
    fn place(
        &mut self,
        dest: TransportDestination,
        body: &impl FrameBody,
        mtu: usize,
    ) -> Result<usize, Bytes> {
        let shard = body.kind() == MessageKind::FecShard;
        let open = self.datagrams.iter_mut().rev().find(|d| d.dest == dest);
        if let Some(Frames::Staged { wire, len, has_shard }) = open.map(|d| &mut d.frames) {
            if !(shard && *has_shard) {
                let start = wire.len() - *len as usize;
                if let Appended::Frame(n) = body.append_frame(self.src, wire, start, mtu) {
                    *len += n as u32;
                    *has_shard |= shard;
                    return Ok(n);
                }
                // Full at the MTU: the next datagram follows it in its
                // buffer, sized once as the burst begins.
                if wire.len() < BURST_BYTES {
                    if wire.len() == *len as usize {
                        wire.reserve(BURST_BYTES);
                    }
                    let behind = wire.len();
                    if let Appended::Frame(n) = body.append_frame(self.src, wire, behind, mtu) {
                        let wire = std::mem::take(wire);
                        let frames = Frames::Staged { wire, len: n as u32, has_shard: shard };
                        self.datagrams.push(Datagram { dest, frames });
                        return Ok(n);
                    }
                }
            }
        }
        // A frame that neither joined nor followed the open datagram opens
        // the next one in a buffer of its own, which has room for any frame
        // that fits the MTU.
        let mut wire = self.loan.reclaim();
        if let Appended::Oversize(tagged) = body.append_frame(self.src, &mut wire, 0, mtu) {
            return Err(tagged);
        }
        let len = wire.len();
        let frames = Frames::Staged { wire, len: len as u32, has_shard: shard };
        self.datagrams.push(Datagram { dest, frames });
        Ok(len)
    }

    /// The sink that [`send`](Self::send)s everything it is given to `dest`.
    pub fn to(&mut self, dest: TransportDestination, mtu: usize) -> Staging<'_> {
        Staging { outbox: self, dest, mtu }
    }

    /// `true` when nothing is staged.
    pub fn is_empty(&self) -> bool {
        self.datagrams.is_empty()
    }

    /// Hands out every staged datagram in sending order and leaves the
    /// outbox empty (its table keeps its capacity for the next tick). A
    /// burst's datagrams are windows onto its buffer, frozen once; of the
    /// others, each one within the loan cap joins the loan.
    pub fn drain(&mut self) -> impl Iterator<Item = (TransportDestination, Bytes)> + '_ {
        self.seal_bursts();
        let loan = &mut self.loan;
        self.datagrams.drain(..).map(|d| match d.frames {
            Frames::Staged { wire, .. } => (d.dest, loan.keep(wire)),
            Frames::Window(window) => (d.dest, window),
        })
    }

    /// Turns every burst into windows: a staged datagram with an empty
    /// `wire` is a burst's first, and the burst's buffer is in the first of
    /// the destination's later datagrams that holds one.
    fn seal_bursts(&mut self) {
        for first in 0..self.datagrams.len() {
            let dest = self.datagrams[first].dest;
            let Frames::Staged { wire, .. } = &self.datagrams[first].frames else { continue };
            if !wire.is_empty() {
                continue;
            }
            let burst = &mut self.datagrams[first..];
            let buffer =
                burst.iter_mut().filter(|d| d.dest == dest).find_map(|d| match &mut d.frames {
                    Frames::Staged { wire, .. } if !wire.is_empty() => Some(std::mem::take(wire)),
                    _ => None,
                });
            let Some(whole) = buffer.map(BytesMut::freeze) else { continue };
            let mut at = 0;
            for d in burst.iter_mut().filter(|d| d.dest == dest) {
                let Frames::Staged { len, .. } = d.frames else { break };
                let end = at + len as usize;
                d.frames = Frames::Window(whole.slice(at..end));
                at = end;
                if at == whole.len() {
                    break;
                }
            }
        }
    }

    /// Capacity of the loan's storage nothing else holds.
    pub fn loan_bytes(&self) -> usize {
        self.loan.bytes()
    }

    /// Writes the counters the outbox owns.
    pub fn fill_stats(&self, stats: &mut ContainerStats) {
        stats.frames_out = self.frames_out;
        stats.bytes_out = self.bytes_out;
    }
}

/// The outbox as the [`WireSink`] of one destination.
#[derive(Debug)]
pub(crate) struct Staging<'a> {
    outbox: &'a mut Outbox,
    dest: TransportDestination,
    mtu: usize,
}

impl WireSink for Staging<'_> {
    fn message(&mut self, msg: Message) {
        self.outbox.send(self.dest, &msg, self.mtu);
    }

    fn shard(&mut self, shard: ShardRef<'_>) {
        self.outbox.send(self.dest, &shard, self.mtu);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use marea_protocol::frames;

    const MTU: usize = 200;
    const A: TransportDestination = TransportDestination::Node(7);
    const B: TransportDestination = TransportDestination::Group(7);

    fn shard(index: u8, len: usize) -> Message {
        let payload = Bytes::from(vec![index; len]);
        Message::FecShard { channel: 0, group: 1, index, k: 2, r: 1, payload }
    }

    fn ack(cumulative: u64) -> Message {
        Message::RelAck { channel: 0, cumulative, sack: 0, loss_permille: 0 }
    }

    fn kinds(datagram: &Bytes) -> Vec<MessageKind> {
        frames(datagram).map(|f| f.expect("staged frames are valid").header().kind).collect()
    }

    #[test]
    fn frames_for_one_destination_share_a_datagram_in_staging_order() {
        let mut outbox = Outbox::new(NodeId(1));
        let mut staged = 0;
        for msg in [ack(1), shard(0, 40), Message::Bye] {
            staged += outbox.stage(A, &msg, MTU).expect("fits");
        }
        outbox.stage(B, &Message::Bye, MTU).expect("fits");
        let sent: Vec<_> = outbox.drain().collect();
        assert!(outbox.is_empty());
        assert_eq!(sent.len(), 2, "a node and a group of the same number are two destinations");
        assert_eq!(sent[0].0, A);
        assert_eq!(sent[0].1.len(), staged, "frame sizes answered add up to the datagram");
        assert_eq!(
            kinds(&sent[0].1),
            [MessageKind::RelAck, MessageKind::FecShard, MessageKind::Bye]
        );
        assert_eq!(kinds(&sent[1].1), [MessageKind::Bye]);
    }

    #[test]
    fn second_shard_opens_the_next_datagram_and_later_frames_follow_it() {
        let mut outbox = Outbox::new(NodeId(1));
        for msg in [shard(0, 20), ack(1), shard(1, 20), ack(2)] {
            outbox.stage(A, &msg, MTU).expect("fits");
        }
        let sent: Vec<_> = outbox.drain().map(|(_, wire)| kinds(&wire)).collect();
        assert_eq!(
            sent,
            [
                vec![MessageKind::FecShard, MessageKind::RelAck],
                vec![MessageKind::FecShard, MessageKind::RelAck]
            ]
        );
    }

    fn reply(len: usize) -> Message {
        Message::CallReply {
            request: marea_protocol::RequestId(1),
            status: marea_protocol::messages::CallStatus::Ok,
            trace: 0,
            codec: 0,
            payload: Bytes::from(vec![9u8; len]),
        }
    }

    #[test]
    fn datagram_closes_at_the_mtu_whether_the_overrun_shows_before_or_after_encoding() {
        let mut outbox = Outbox::new(NodeId(1));
        outbox.stage(A, &reply(120), MTU).expect("fits");
        outbox.stage(A, &ack(1), MTU).expect("fits");
        // An Unsubscribe carries no blob, so only encoding it shows that it
        // overruns the room left; the reply behind it overruns by its
        // payload alone.
        let unsubscribe = Message::Unsubscribe {
            name: marea_presentation::Name::new("a/rather/long/container/longname").unwrap(),
        };
        outbox.stage(A, &unsubscribe, MTU).expect("fits a datagram of its own");
        outbox.stage(A, &reply(140), MTU).expect("fits a datagram of its own");
        outbox.stage(A, &ack(2), MTU).expect("fits");
        let sent: Vec<_> = outbox.drain().map(|(_, wire)| wire).collect();
        assert!(sent.iter().all(|wire| wire.len() <= MTU));
        let sent: Vec<_> = sent.iter().map(kinds).collect();
        assert_eq!(
            sent,
            [
                vec![MessageKind::CallReply, MessageKind::RelAck],
                vec![MessageKind::Unsubscribe],
                vec![MessageKind::CallReply, MessageKind::RelAck]
            ]
        );
    }

    #[test]
    fn oversize_message_is_handed_back_and_leaves_the_open_datagram_alone() {
        let mut outbox = Outbox::new(NodeId(1));
        outbox.stage(A, &ack(1), MTU).expect("fits");
        let big = reply(3 * MTU);
        let tagged = outbox.stage(A, &big, MTU).expect_err("fits no datagram");
        assert_eq!(tagged, big.encode_tagged());
        let sent: Vec<_> = outbox.drain().map(|(_, wire)| kinds(&wire)).collect();
        assert_eq!(sent, [vec![MessageKind::RelAck]]);
    }

    /// A transport that drops each datagram once sent: every later one is
    /// written into the first one's storage — even with an allocation of
    /// the same size made in between, which would take that storage had it
    /// been freed.
    #[test]
    fn a_dropped_datagram_is_the_storage_of_the_next() {
        let mut outbox = Outbox::new(NodeId(1));
        let (mut storage, mut decoys) = (None, Vec::new());
        for i in 0..10 {
            outbox.stage(A, &reply(100), MTU).expect("fits");
            let sent: Vec<_> = outbox.drain().collect();
            let [(_, wire)] = &sent[..] else { panic!("{} datagrams", sent.len()) };
            assert_eq!(*storage.get_or_insert(wire.as_ptr()), wire.as_ptr(), "datagram {i}");
            assert_eq!(outbox.loan_bytes(), 0, "a datagram the transport holds is no loan");
            drop(sent);
            let kept = outbox.loan_bytes();
            assert!(kept > 0 && kept <= marea_transport::LOAN_KEEP_BYTES, "{kept}");
            decoys.push(Vec::<u8>::with_capacity(kept));
        }
    }

    fn chunk(data: &Bytes, index: u32, size: usize) -> Message {
        let at = index as usize * size;
        let payload = data.slice(at..at + size);
        Message::FileChunk { transfer: marea_protocol::TransferId(1), revision: 1, index, payload }
    }

    /// `true` when `next` starts where `wire` ends: two windows onto one
    /// buffer.
    fn contiguous(wire: &Bytes, next: &Bytes) -> bool {
        wire.as_ptr().wrapping_add(wire.len()) == next.as_ptr()
    }

    /// Stages a file round's burst of 32 chunks of `size` bytes to one
    /// group, over a transport whose datagrams hold one chunk each, and
    /// drains it: 32 datagrams, each within the MTU and holding its chunk.
    fn burst(outbox: &mut Outbox, size: usize) -> Vec<Bytes> {
        let mtu = size + 100;
        let data = Bytes::from((0..32 * size).map(|i| (i % 251) as u8).collect::<Vec<u8>>());
        for index in 0..32 {
            outbox.stage(B, &chunk(&data, index, size), mtu).expect("fits");
        }
        let sent: Vec<_> = outbox.drain().collect();
        assert_eq!(sent.len(), 32, "one chunk per datagram");
        for (index, (dest, wire)) in sent.iter().enumerate() {
            assert_eq!(*dest, B);
            assert!(wire.len() <= mtu, "datagram {index} is {} bytes", wire.len());
            let [frame] = &frames(wire).collect::<Vec<_>>()[..] else { panic!("datagram {index}") };
            let msg = Message::from_frame(frame.as_ref().expect("valid")).expect("parses");
            assert_eq!(msg, chunk(&data, index as u32, size));
        }
        sent.into_iter().map(|(_, wire)| wire).collect()
    }

    /// A burst to one destination: each datagram starts where the one
    /// before ends — one buffer, frozen once — and none of it is the loan.
    #[test]
    fn a_burst_to_one_destination_is_one_buffer_of_contiguous_windows() {
        let mut outbox = Outbox::new(NodeId(1));
        let sent = burst(&mut outbox, 400);
        assert!(sent.windows(2).all(|pair| contiguous(&pair[0], &pair[1])));
        drop(sent);
        assert_eq!(outbox.loan_bytes(), 0, "a burst leaves no loan behind");
    }

    /// A burst goes on in a buffer of its own once its buffer holds
    /// `BURST_BYTES`: 32 one-KiB chunks are two buffers of 16 datagrams.
    #[test]
    fn a_burst_past_its_buffer_goes_on_in_a_buffer_of_its_own() {
        let sent = burst(&mut Outbox::new(NodeId(1)), 1024);
        let breaks: Vec<_> = (1..32).filter(|&i| !contiguous(&sent[i - 1], &sent[i])).collect();
        assert_eq!(breaks, [16]);
        let first: usize = sent[..16].iter().map(Bytes::len).sum();
        assert!(first - sent[15].len() < BURST_BYTES && first >= BURST_BYTES, "{first}");
    }

    /// Windows are cut at the datagrams' edges: the frames of every
    /// datagram the script sends, staged again on their own, make that
    /// datagram byte for byte — across seeds whose scripts put many
    /// datagrams behind one another.
    #[test]
    fn every_datagram_is_what_its_frames_make_alone() {
        let (mut behind, mut last) = (0, Bytes::new());
        for seed in 0..64 {
            mixed_script(0x5EED_0000 + 2 * seed, 60, |wire| {
                let mut alone = Outbox::new(NodeId(1));
                for frame in frames(&wire) {
                    let msg = Message::from_frame(&frame.expect("valid")).expect("parses");
                    alone.stage(A, &msg, MTU).expect("fits");
                }
                let again: Vec<_> = alone.drain().map(|(_, wire)| wire).collect();
                assert_eq!(again, std::slice::from_ref(&wire), "seed {seed}");
                behind += usize::from(contiguous(&last, &wire));
                last = wire;
            });
        }
        assert!(behind > 500, "{behind} datagrams written behind another");
    }

    /// A receiver that keeps a window onto the middle datagram of a burst
    /// keeps the burst's buffer: a hundred more ticks of bursts leave it
    /// as it was.
    #[test]
    fn a_window_on_a_burst_reads_the_same_after_a_hundred_more_ticks() {
        let mut outbox = Outbox::new(NodeId(1));
        for len in [150, 151, 152] {
            outbox.stage(A, &reply(len), MTU).expect("fits");
        }
        let sent: Vec<_> = outbox.drain().map(|(_, wire)| wire).collect();
        assert_eq!(sent.len(), 3);
        assert!(contiguous(&sent[0], &sent[1]) && contiguous(&sent[1], &sent[2]));
        let held = sent[1].clone();
        let was = held.to_vec();
        drop(sent);
        for tick in 0..100 {
            for len in [150, 160, 170] {
                outbox.stage(A, &reply(len + tick % 7), MTU).expect("fits");
            }
            assert_eq!(outbox.drain().count(), 3);
        }
        assert_eq!(held.as_ref(), was.as_slice(), "a held window was written over");
    }

    /// The one-shard rule outranks the burst: a second shard for a
    /// destination opens a buffer of its own, not the next datagram behind
    /// the first, and that buffer is what the outbox keeps as its loan.
    #[test]
    fn a_second_shard_opens_a_buffer_of_its_own() {
        let mut outbox = Outbox::new(NodeId(1));
        outbox.stage(A, &shard(0, 20), MTU).expect("fits");
        outbox.stage(A, &shard(1, 20), MTU).expect("fits");
        let sent: Vec<_> = outbox.drain().map(|(_, wire)| wire).collect();
        assert_eq!(sent.len(), 2);
        assert!(!contiguous(&sent[0], &sent[1]), "the second shard was written behind the first");
        drop(sent);
        assert!(outbox.loan_bytes() > 0, "the second shard's buffer is the loan");
    }

    /// A message that must be fragmented, staged behind a full datagram, is
    /// encoded once: into a buffer of its own, whose bytes are its tagged
    /// form — not first behind the full datagram, then again alone.
    #[test]
    fn an_oversize_message_behind_a_full_datagram_is_encoded_once() {
        struct Counted {
            msg: Message,
            writes: std::cell::Cell<usize>,
        }
        impl FrameBody for Counted {
            fn kind(&self) -> MessageKind {
                self.msg.kind()
            }
            fn verbatim_len(&self) -> usize {
                self.msg.verbatim_len()
            }
            fn write_body(&self, w: &mut marea_encoding::WireWriter<'_>) {
                self.writes.set(self.writes.get() + 1);
                self.msg.write_body(w);
            }
        }
        let mut outbox = Outbox::new(NodeId(1));
        outbox.stage(A, &reply(150), MTU).expect("fits");
        let big = Counted { msg: reply(3 * MTU), writes: Default::default() };
        let tagged = outbox.stage(A, &big, MTU).expect_err("fits no datagram");
        assert_eq!(big.writes.get(), 1);
        assert_eq!(tagged, big.msg.encode_tagged());
        let sent: Vec<_> = outbox.drain().map(|(_, wire)| kinds(&wire)).collect();
        assert_eq!(sent, [vec![MessageKind::CallReply]]);
    }

    /// Stages `seed`'s script of acks, shards, replies up to three MTUs
    /// (fragmented) and bare frames for two destinations, a tick at a
    /// time, handing every drained datagram to `transport`.
    fn mixed_script(seed: u64, ticks: usize, mut transport: impl FnMut(Bytes)) {
        let mut outbox = Outbox::new(NodeId(1));
        let mut rng = seed | 1;
        for _ in 0..ticks {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            for i in 0..=rng % 4 {
                let draw = rng >> (8 * i + 8);
                let dest = if draw & 1 == 0 { A } else { B };
                let msg = match (draw >> 1) % 4 {
                    0 => ack(draw),
                    1 => shard(i as u8, (draw >> 3) as usize % 120),
                    2 => reply((draw >> 3) as usize % (3 * MTU)),
                    _ => Message::Bye,
                };
                outbox.send(dest, &msg, MTU);
            }
            outbox.drain().for_each(|(_, wire)| transport(wire));
        }
    }

    /// Reusing storage changes no byte sent, and never touches a datagram
    /// something still holds: a transport that keeps every datagram finds
    /// each as it was sent, at an address of its own.
    #[test]
    fn a_kept_datagram_is_never_written_and_reuse_sends_the_same_bytes() {
        let mut dropped = Vec::new();
        mixed_script(0x5EED_1107, 400, |wire| dropped.push(wire.to_vec()));
        let mut kept = Vec::new();
        mixed_script(0x5EED_1107, 400, |wire| kept.push(wire));
        assert!(dropped.len() > 400, "{} datagrams", dropped.len());
        assert_eq!(kept.iter().map(|w| w.to_vec()).collect::<Vec<_>>(), dropped);
        let mut storage: Vec<_> = kept.iter().map(|w| w.as_ptr()).collect();
        storage.sort();
        storage.dedup();
        assert_eq!(storage.len(), kept.len(), "two kept datagrams share storage");
    }

    /// A receiver keeps windows onto a datagram — a fragment waiting for
    /// its siblings, an out-of-order `RelData` — after the datagram itself
    /// is dropped; the sender's next hundred datagrams leave them alone.
    #[test]
    fn held_windows_read_the_same_after_a_hundred_more_datagrams() {
        let mut outbox = Outbox::new(NodeId(1));
        let data = Message::RelData { channel: 0, seq: 9, payload: Bytes::from(vec![0xD7; 60]) };
        outbox.send(A, &data, MTU);
        outbox.send(A, &reply(2 * MTU), MTU);
        let mut held = Vec::new();
        for (_, wire) in outbox.drain() {
            for frame in frames(&wire) {
                match Message::from_frame(&frame.expect("valid")).expect("parses") {
                    Message::RelData { payload, .. } | Message::Fragment { payload, .. } => {
                        held.push((payload.to_vec(), payload));
                    }
                    other => panic!("{other:?}"),
                }
            }
        }
        assert!(held.len() > 2, "{} windows", held.len());
        for i in 0..100 {
            outbox.send(A, &shard(i, 150), MTU);
            assert_eq!(outbox.drain().count(), 1);
        }
        for (was, window) in &held {
            assert_eq!(window.as_ref(), was.as_slice(), "a held window was written over");
        }
    }
}
