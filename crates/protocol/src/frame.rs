//! Frame layout: fixed 16-byte header + payload, CRC32-protected — and
//! the datagram layout above it: one or more whole frames, back to back.
//!
//! ```text
//! offset  size  field
//! 0       2     magic 0x4D41 ("MA", little-endian)
//! 2       1     protocol version
//! 3       1     message kind
//! 4       4     source node id (LE)
//! 8       4     payload length (LE)
//! 12      4     crc32 over bytes 0..12 ++ payload (LE)
//! 16      n     payload
//! ```
//!
//! The CRC covers header fields and payload so that a corrupted kind or
//! source id is rejected, not just corrupted payload bytes.
//!
//! # Datagrams
//!
//! A datagram is **1..n whole frames concatenated**, nothing between or
//! around them: every frame keeps its own header, length and CRC, so the
//! length field of one frame is what finds the next. A sender stages the
//! frames of one tick per destination and coalesces them in staging order,
//! closing a datagram when the next frame would pass the transport's MTU
//! (DESIGN.md §3 has the rules, including "at most one `FecShard` per
//! datagram" — the datagram is FEC's erasure unit). A receiver walks the
//! datagram with [`frames`]: each frame goes through the same validator a
//! lone frame does, and the walk **stops at the first invalid frame** —
//! once a length field cannot be trusted, neither can anything behind it.
//! [`Frame::decode`] stays strict: exactly one frame, a trailing byte is a
//! [`FrameError::LengthMismatch`].
//!
//! One frame may go unchecked: a receiver that kept the CRC of a frame that
//! passed the checks may [`Frames::peek`] at the next frame's bytes and,
//! where they equal that frame's byte for byte, [`Frames::step_over`] them —
//! they are that frame again. Nothing else is read without the checks.

use bytes::{BufMut, Bytes, BytesMut};

use crate::crc::crc32_update;
use crate::error::FrameError;
use crate::ids::NodeId;
use crate::messages::MessageKind;

/// Frame magic: ASCII "MA" read as a little-endian u16.
pub const FRAME_MAGIC: u16 = u16::from_le_bytes(*b"MA");

/// Current protocol version.
pub const PROTOCOL_VERSION: u8 = 1;

/// Size of the fixed header (including CRC) in bytes.
pub const FRAME_HEADER_LEN: usize = 16;

/// Offset of the payload-length field in the header.
const LEN_OFFSET: usize = 8;

/// Offset of the CRC field in the header.
const CRC_OFFSET: usize = 12;

/// Maximum accepted payload size. Larger application payloads must be
/// fragmented (see [`crate::fragment`]).
pub const MAX_FRAME_PAYLOAD: usize = 4 * 1024 * 1024;

/// Most capacity [`ArqSender`](crate::arq::ArqSender) keeps of an
/// acknowledged `RelData` envelope, to write the next one into once nothing
/// else holds it (`Bytes::try_into_mut`). A larger one is dropped, so a
/// rare large message pins nothing. `marea-transport` declares the same
/// value as the cap of its datagram `Loan`; the two crates share no
/// dependency, and `marea-core` asserts they agree.
pub const LOAN_KEEP_BYTES: usize = 2 * 1024;

/// Parsed frame header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// Protocol version of the sender.
    pub version: u8,
    /// Kind of the message carried in the payload.
    pub kind: MessageKind,
    /// Node that emitted the frame.
    pub src: NodeId,
    /// Payload length in bytes.
    pub payload_len: u32,
}

/// A complete wire frame: header plus payload bytes.
///
/// # Examples
///
/// ```
/// use marea_protocol::{Frame, MessageKind, NodeId};
///
/// let f = Frame::new(NodeId(3), MessageKind::Beacon, b"beat".as_ref().into());
/// let wire = f.encode();
/// let back = Frame::decode(&wire).unwrap();
/// assert_eq!(back.header().src, NodeId(3));
/// assert_eq!(back.payload(), b"beat");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    header: FrameHeader,
    payload: Bytes,
}

impl Frame {
    /// Builds a frame from parts.
    ///
    /// # Panics
    ///
    /// Panics if `payload` exceeds [`MAX_FRAME_PAYLOAD`]; callers fragment
    /// larger payloads first (this is an internal programming error, not a
    /// runtime condition).
    pub fn new(src: NodeId, kind: MessageKind, payload: Bytes) -> Self {
        assert!(
            payload.len() <= MAX_FRAME_PAYLOAD,
            "payload of {} bytes must be fragmented before framing",
            payload.len()
        );
        Frame {
            header: FrameHeader {
                version: PROTOCOL_VERSION,
                kind,
                src,
                payload_len: payload.len() as u32,
            },
            payload,
        }
    }

    /// The parsed header.
    pub fn header(&self) -> &FrameHeader {
        &self.header
    }

    /// The payload bytes.
    pub fn payload(&self) -> &[u8] {
        &self.payload
    }

    /// Consumes the frame, returning the payload.
    pub fn into_payload(self) -> Bytes {
        self.payload
    }

    /// Total encoded size in bytes.
    pub fn wire_len(&self) -> usize {
        FRAME_HEADER_LEN + self.payload.len()
    }

    /// Serializes the frame.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.wire_len());
        begin_wire(&mut buf, self.header.src, self.header.kind);
        buf.put_slice(&self.payload);
        finish_wire(&mut buf, 0);
        buf.freeze()
    }

    /// Parses a frame from raw bytes, verifying magic, version, kind, length
    /// and CRC. The payload is copied out of `input`; a caller that holds
    /// the datagram as [`Bytes`] walks it with [`frames`] instead, which
    /// cuts every payload out of it.
    ///
    /// # Errors
    ///
    /// Any [`FrameError`] describing the first malformed element.
    pub fn decode(input: &[u8]) -> Result<Frame, FrameError> {
        let header = verify(input, Extent::Whole)?;
        Ok(Frame { header, payload: Bytes::copy_from_slice(&input[FRAME_HEADER_LEN..]) })
    }

    /// The payload as shared storage (what [`Frame::payload`] borrows).
    pub(crate) fn payload_bytes(&self) -> &Bytes {
        &self.payload
    }
}

/// Walks a datagram of one or more whole frames, front to back.
///
/// Every frame passes the checks of [`Frame::decode`] (magic, version,
/// kind, length, CRC) and its payload is an O(1) window onto `datagram`
/// (and so are the blob fields [`Message::from_frame`] reads out of it).
/// The first frame that fails them is yielded as its error and ends the
/// walk: nothing behind a frame whose length field cannot be trusted is
/// looked at. An empty datagram yields nothing. A datagram of one frame is
/// the shared form of [`Frame::decode`], except that the walk leaves what
/// follows the frame to the next step instead of refusing it.
///
/// [`Message::from_frame`]: crate::Message::from_frame
///
/// # Examples
///
/// ```
/// use marea_protocol::{frames, Frame, MessageKind, NodeId};
///
/// let beat = Frame::new(NodeId(3), MessageKind::Beacon, b"beat".as_ref().into());
/// let bye = Frame::new(NodeId(3), MessageKind::Bye, bytes::Bytes::new());
/// let datagram: bytes::Bytes = [beat.encode(), bye.encode()].concat().into();
/// let walked: Vec<Frame> = frames(&datagram).collect::<Result<_, _>>().unwrap();
/// assert_eq!(walked, [beat, bye]);
/// assert!(Frame::decode(&datagram).is_err(), "strict decode takes one frame");
/// ```
pub fn frames(datagram: &Bytes) -> Frames<'_> {
    Frames { datagram, at: 0 }
}

/// The iterator behind [`frames`].
#[derive(Debug, Clone)]
pub struct Frames<'a> {
    datagram: &'a Bytes,
    /// Where the next frame starts; the datagram's end once the walk is
    /// over, which the first invalid frame makes it.
    at: usize,
}

impl<'a> Frames<'a> {
    /// The next frame's bytes as its length field bounds them, **before any
    /// check**: `None` once the walk is over, or when the bytes left are
    /// fewer than a header and the payload it declares (the walk's next
    /// step yields that error). Nothing in them is trusted. A caller acts
    /// on them only where they equal, byte for byte, a frame that passed
    /// the checks — then it [`step_over`](Self::step_over)s them; every
    /// other frame is taken with [`Iterator::next`].
    #[inline]
    pub fn peek(&self) -> Option<Unchecked<'a>> {
        let rest: &'a [u8] = &self.datagram[self.at..];
        let len = rest.get(LEN_OFFSET..CRC_OFFSET)?;
        let len = u32::from_le_bytes([len[0], len[1], len[2], len[3]]) as usize;
        rest.get(..FRAME_HEADER_LEN.checked_add(len)?).map(Unchecked)
    }

    /// Steps over the frame [`peek`](Self::peek) shows without checking
    /// it; ends the walk when it shows none.
    #[inline]
    pub fn step_over(&mut self) {
        self.at = match self.peek() {
            Some(Unchecked(wire)) => self.at + wire.len(),
            None => self.datagram.len(),
        };
    }
}

/// One frame's bytes as its own length field bounds them, not checked:
/// what [`Frames::peek`] shows. The accessors read the fields where the
/// layout puts them and vouch for nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Unchecked<'a>(&'a [u8]);

impl<'a> Unchecked<'a> {
    /// `true` when magic, version and kind byte are those of a `kind`
    /// frame.
    #[inline]
    pub fn is(self, kind: MessageKind) -> bool {
        let [m0, m1] = FRAME_MAGIC.to_le_bytes();
        self.0[..4] == [m0, m1, PROTOCOL_VERSION, kind.wire_tag()]
    }

    /// The source node field.
    #[inline]
    pub fn src(self) -> NodeId {
        NodeId(u32::from_le_bytes([self.0[4], self.0[5], self.0[6], self.0[7]]))
    }

    /// The CRC field as it stands.
    #[inline]
    pub fn crc(self) -> u32 {
        let w = self.0;
        u32::from_le_bytes([w[CRC_OFFSET], w[CRC_OFFSET + 1], w[CRC_OFFSET + 2], w[CRC_OFFSET + 3]])
    }

    /// The payload, as long as the length field says.
    #[inline]
    pub fn payload(self) -> &'a [u8] {
        &self.0[FRAME_HEADER_LEN..]
    }
}

impl Iterator for Frames<'_> {
    type Item = Result<Frame, FrameError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.at == self.datagram.len() {
            return None;
        }
        let start = self.at + FRAME_HEADER_LEN;
        match verify(&self.datagram[self.at..], Extent::Prefix) {
            Ok(header) => {
                self.at = start + header.payload_len as usize;
                Some(Ok(Frame { header, payload: self.datagram.slice(start..self.at) }))
            }
            Err(e) => {
                self.at = self.datagram.len();
                Some(Err(e))
            }
        }
    }
}

/// CRC over header bytes 0..12 and the payload, skipping the CRC field
/// itself (bytes 12..16) that sits between them on the wire.
fn wire_crc(wire: &[u8]) -> u32 {
    let state = crc32_update(0xFFFF_FFFF, &wire[..CRC_OFFSET]);
    crc32_update(state, &wire[FRAME_HEADER_LEN..]) ^ 0xFFFF_FFFF
}

/// Starts a wire frame at the tail of `buf`, behind whatever whole frames
/// it already holds: the 16 header bytes, with length and CRC left zero
/// until [`finish_wire`]. The caller appends the payload in between — the
/// one writer behind both [`Frame::encode`] and
/// [`FrameBody::append_frame`](crate::FrameBody::append_frame).
pub(crate) fn begin_wire(buf: &mut BytesMut, src: NodeId, kind: MessageKind) {
    buf.put_u16_le(FRAME_MAGIC);
    buf.put_u8(PROTOCOL_VERSION);
    buf.put_u8(kind.wire_tag());
    buf.put_u32_le(src.0);
    buf.put_u32_le(0); // payload length, patched by `finish_wire`
    buf.put_u32_le(0); // crc, patched by `finish_wire`
}

/// Completes the frame [`begin_wire`] started at offset `start` of `buf`
/// and that runs to its end: patches the payload length, checksums the
/// frame in place and patches the CRC.
///
/// # Panics
///
/// Panics if the payload exceeds [`MAX_FRAME_PAYLOAD`] (see [`Frame::new`]).
pub(crate) fn finish_wire(buf: &mut BytesMut, start: usize) {
    let wire = &mut buf[start..];
    let payload_len = wire.len() - FRAME_HEADER_LEN;
    assert!(
        payload_len <= MAX_FRAME_PAYLOAD,
        "payload of {payload_len} bytes must be fragmented before framing"
    );
    wire[LEN_OFFSET..CRC_OFFSET].copy_from_slice(&(payload_len as u32).to_le_bytes());
    let crc = wire_crc(wire);
    wire[CRC_OFFSET..FRAME_HEADER_LEN].copy_from_slice(&crc.to_le_bytes());
}

/// How much of its input [`verify`] takes for the frame.
#[derive(Clone, Copy, PartialEq)]
enum Extent {
    /// All of it: bytes behind the declared payload are a length mismatch.
    Whole,
    /// Its front: the frame ends where its length field says, and what
    /// follows is the next frame's business.
    Prefix,
}

/// The one frame validator: magic, version, kind, length, CRC — in that
/// order, so the first malformed element names the error. The frame it
/// accepts is `input[..FRAME_HEADER_LEN + payload_len]`.
fn verify(input: &[u8], extent: Extent) -> Result<FrameHeader, FrameError> {
    if input.len() < FRAME_HEADER_LEN {
        return Err(FrameError::TooShort { len: input.len() });
    }
    let magic = u16::from_le_bytes([input[0], input[1]]);
    if magic != FRAME_MAGIC {
        return Err(FrameError::BadMagic(magic));
    }
    let version = input[2];
    if version != PROTOCOL_VERSION {
        return Err(FrameError::BadVersion(version));
    }
    let kind = MessageKind::from_wire_tag(input[3]).ok_or(FrameError::BadKind(input[3]))?;
    let src = NodeId(u32::from_le_bytes([input[4], input[5], input[6], input[7]]));
    let payload_len = u32::from_le_bytes([input[8], input[9], input[10], input[11]]);
    if payload_len as usize > MAX_FRAME_PAYLOAD {
        return Err(FrameError::PayloadTooLarge(payload_len));
    }
    let stored = u32::from_le_bytes([input[12], input[13], input[14], input[15]]);
    let actual = input.len() - FRAME_HEADER_LEN;
    let fits = match extent {
        Extent::Whole => actual == payload_len as usize,
        Extent::Prefix => actual >= payload_len as usize,
    };
    if !fits {
        return Err(FrameError::LengthMismatch { declared: payload_len, actual });
    }
    let computed = wire_crc(&input[..FRAME_HEADER_LEN + payload_len as usize]);
    if computed != stored {
        return Err(FrameError::BadCrc { stored, computed });
    }
    Ok(FrameHeader { version, kind, src, payload_len })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Frame {
        Frame::new(NodeId(9), MessageKind::VarSample, Bytes::from_static(b"payload"))
    }

    #[test]
    fn roundtrip() {
        let f = sample();
        let wire = f.encode();
        assert_eq!(wire.len(), FRAME_HEADER_LEN + 7);
        let back = Frame::decode(&wire).unwrap();
        assert_eq!(back, f);
    }

    #[test]
    fn empty_payload_roundtrips() {
        let f = Frame::new(NodeId(0), MessageKind::Bye, Bytes::new());
        let back = Frame::decode(&f.encode()).unwrap();
        assert_eq!(back.payload(), b"");
        assert_eq!(back.header().kind, MessageKind::Bye);
    }

    #[test]
    fn rejects_bad_magic() {
        let mut wire = sample().encode().to_vec();
        wire[0] ^= 0xFF;
        assert_eq!(
            Frame::decode(&wire),
            Err(FrameError::BadMagic(u16::from_le_bytes([wire[0], wire[1]])))
        );
    }

    #[test]
    fn rejects_bad_version() {
        let mut wire = sample().encode().to_vec();
        wire[2] = 99;
        assert_eq!(Frame::decode(&wire), Err(FrameError::BadVersion(99)));
    }

    #[test]
    fn rejects_unknown_kind() {
        let mut wire = sample().encode().to_vec();
        wire[3] = 0xEF;
        assert_eq!(Frame::decode(&wire), Err(FrameError::BadKind(0xEF)));
    }

    #[test]
    fn rejects_truncation_and_extension() {
        let wire = sample().encode();
        assert!(matches!(Frame::decode(&wire[..10]), Err(FrameError::TooShort { .. })));
        assert!(matches!(
            Frame::decode(&wire[..wire.len() - 1]),
            Err(FrameError::LengthMismatch { .. })
        ));
        let mut extended = wire.to_vec();
        extended.push(0);
        assert!(matches!(Frame::decode(&extended), Err(FrameError::LengthMismatch { .. })));
    }

    #[test]
    fn rejects_corruption_anywhere() {
        let wire = sample().encode().to_vec();
        // Flip each payload byte and each header byte not already covered by
        // a structural check; CRC must catch them.
        for i in [4usize, 5, 6, 7, 16, 17, wire.len() - 1] {
            let mut w = wire.clone();
            w[i] ^= 0x01;
            assert!(Frame::decode(&w).is_err(), "corruption at byte {i} undetected");
        }
    }

    /// An MTU-sized frame (the bulk-transfer case: 1 400 chunk bytes under
    /// a 16-byte header) refuses every single-bit flip, and where the flip
    /// leaves the structure intact it is the CRC that refuses it, reporting
    /// the field as read and the checksum of the bytes as received.
    #[test]
    fn mtu_sized_frame_rejects_every_single_bit_flip() {
        let payload: Vec<u8> = (0..1400u32).map(|i| (i.wrapping_mul(31) >> 3) as u8).collect();
        let wire = Frame::new(NodeId(0x0102_0304), MessageKind::FileChunk, Bytes::from(payload))
            .encode()
            .to_vec();
        assert_eq!(wire.len(), 1416);
        let good_crc = u32::from_le_bytes([wire[12], wire[13], wire[14], wire[15]]);
        for bit in 0..wire.len() * 8 {
            let (byte, mask) = (bit / 8, 1u8 << (bit % 8));
            let mut w = wire.clone();
            w[byte] ^= mask;
            let err = Frame::decode(&w).expect_err("flipped frame accepted");
            let walked: Vec<_> = frames(&Bytes::from(w.clone())).collect();
            assert!(matches!(walked[..], [Err(_)]), "walk took a flipped frame");
            // Source id, CRC field and payload carry no structure of
            // their own; only the checksum guards them.
            if !(4..8).contains(&byte) && byte < 12 {
                continue;
            }
            let stored = u32::from_le_bytes([w[12], w[13], w[14], w[15]]);
            let computed = crate::crc32(&[&w[..12], &w[16..]].concat());
            assert_eq!(err, FrameError::BadCrc { stored, computed }, "flip at {byte}:{mask:#x}");
            // A flip inside the CRC field leaves the content's checksum
            // alone; a flip anywhere else leaves the stored field alone.
            assert_eq!(computed == good_crc, (12..16).contains(&byte));
            assert_eq!(stored == good_crc, !(12..16).contains(&byte));
        }
    }

    /// `peek` shows the bytes `next` would check, damaged or not, and
    /// `step_over` lands where `next` would: on the frame behind.
    #[test]
    fn peek_shows_what_next_checks_and_step_over_lands_behind_it() {
        let first = sample().encode();
        let bye = Frame::new(NodeId(4), MessageKind::Bye, Bytes::new());
        let mut damaged = first.to_vec();
        damaged[17] ^= 0x01;
        let datagram = Bytes::from([&damaged[..], &bye.encode()].concat());
        let mut walk = frames(&datagram);
        let peeked = walk.peek().expect("a whole frame's worth of bytes");
        assert!(peeked.is(MessageKind::VarSample) && !peeked.is(MessageKind::Bye));
        assert_eq!((peeked.src(), peeked.payload()), (NodeId(9), &damaged[16..]));
        assert_eq!(peeked.crc(), u32::from_le_bytes([first[12], first[13], first[14], first[15]]));
        assert!(matches!(walk.clone().next(), Some(Err(FrameError::BadCrc { .. }))));
        walk.step_over();
        assert_eq!(walk.peek().map(Unchecked::src), Some(NodeId(4)));
        assert_eq!(walk.next(), Some(Ok(bye)));
        assert_eq!(walk.peek(), None);

        // A length field that promises more than is left shows nothing,
        // and stepping over it ends the walk.
        let cut = datagram.slice(..datagram.len() - 1);
        let mut walk = frames(&cut);
        walk.step_over();
        assert_eq!(walk.peek(), None);
        assert!(matches!(walk.clone().next(), Some(Err(FrameError::TooShort { .. }))));
        walk.step_over();
        assert_eq!(walk.next(), None);
    }

    #[test]
    #[should_panic(expected = "must be fragmented")]
    fn oversized_payload_panics() {
        let huge = Bytes::from(vec![0u8; MAX_FRAME_PAYLOAD + 1]);
        let _ = Frame::new(NodeId(1), MessageKind::FileChunk, huge);
    }
}
