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

use bytes::{Bytes, BytesMut};

use marea_protocol::fragment::fragment_shared;
use marea_protocol::{Appended, FrameBody, Message, MessageKind, NodeId, ShardRef, WireSink};
use marea_transport::TransportDestination;

use crate::stats::ContainerStats;

/// One datagram being filled: whole frames, back to back.
#[derive(Debug)]
struct Datagram {
    dest: TransportDestination,
    wire: BytesMut,
    has_shard: bool,
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
}

impl Outbox {
    pub fn new(src: NodeId) -> Self {
        Outbox { src, datagrams: Vec::new(), last_msg_id: 0, frames_out: 0, bytes_out: 0 }
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

    /// Frames `body` into `dest`'s open datagram, or into the one it opens.
    fn place(
        &mut self,
        dest: TransportDestination,
        body: &impl FrameBody,
        mtu: usize,
    ) -> Result<usize, Bytes> {
        let shard = body.kind() == MessageKind::FecShard;
        let open = self
            .datagrams
            .iter_mut()
            .rev()
            .find(|d| d.dest == dest)
            .filter(|d| !(shard && d.has_shard));
        let mut fresh = BytesMut::new();
        let appended = match open {
            Some(open) => match body.append_frame(self.src, &mut open.wire, mtu) {
                Appended::Frame(len) => {
                    open.has_shard |= shard;
                    return Ok(len);
                }
                no_room => no_room,
            },
            None => body.append_frame(self.src, &mut fresh, mtu),
        };
        // Whatever did not join an open datagram opens the next one.
        let wire = match appended {
            Appended::Frame(_) => fresh,
            Appended::Spilled(alone) => alone,
            Appended::Oversize(tagged) => return Err(tagged),
        };
        let len = wire.len();
        self.datagrams.push(Datagram { dest, wire, has_shard: shard });
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
    /// outbox empty (its table keeps its capacity for the next tick).
    pub fn drain(&mut self) -> impl Iterator<Item = (TransportDestination, Bytes)> + '_ {
        self.datagrams.drain(..).map(|d| (d.dest, d.wire.freeze()))
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
        // A Hello carries no blob, so only encoding it shows that it overruns
        // the room left; the reply behind it overruns by its payload alone.
        let hello = Message::Hello {
            container: marea_presentation::Name::new("a/rather/long/container/name").unwrap(),
            incarnation: 1,
            fec_cap: 0,
        };
        outbox.stage(A, &hello, MTU).expect("fits a datagram of its own");
        outbox.stage(A, &reply(140), MTU).expect("fits a datagram of its own");
        outbox.stage(A, &ack(2), MTU).expect("fits");
        let sent: Vec<_> = outbox.drain().map(|(_, wire)| wire).collect();
        assert!(sent.iter().all(|wire| wire.len() <= MTU));
        let sent: Vec<_> = sent.iter().map(kinds).collect();
        assert_eq!(
            sent,
            [
                vec![MessageKind::CallReply, MessageKind::RelAck],
                vec![MessageKind::Hello],
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
}
