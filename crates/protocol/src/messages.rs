//! The typed message vocabulary of the middleware.
//!
//! Every frame payload is one [`Message`]. The vocabulary covers the four
//! communication primitives of the paper (§4) plus the container-to-container
//! control plane (§3): discovery, announcements, service status
//! notifications and the one periodic frame, the [`Message::Beacon`]
//! (liveness, load, FEC capability and catalogue digest).
//!
//! Each message is one row of the message table below: its wire tag, and
//! for each field its type and wire form, in wire order. That row is the
//! only statement of the message's layout. [`MessageKind`], [`Message`],
//! the writer, the reader and the size floor are all generated from it.

use bytes::{Bytes, BytesMut};

use marea_encoding::{typedesc, DecodeError, WireReader, WireWriter};
use marea_presentation::{DataType, Name};

use crate::frame::{self, Frame, FRAME_HEADER_LEN};
use crate::ids::{GroupId, NodeId, RequestId, TransferId};

/// Maximum bytes accepted for any embedded blob while decoding messages.
const MAX_EMBEDDED: usize = crate::frame::MAX_FRAME_PAYLOAD;

/// Maximum entries accepted in announcement/nack lists.
const MAX_LIST: usize = 4096;

/// The wire forms of the message table's fields: how a field is written
/// (`put`), read (`get`, with the `backing` and `names` of `read`),
/// borrowed for writing (`view`) and counted in the size floor (`len`). An
/// id travels as the integer it wraps (`From` both ways); a `u32` read from
/// a varint that overflows it is `VarintOverflow`. `entries` and `runs` are
/// the two hand-written codecs: a catalogue's entries and a nack's
/// missing-chunk runs.
macro_rules! form {
    (put varint, $w:ident, $v:ident) => {
        $w.put_varint((*$v).into())
    };
    (put le16, $w:ident, $v:ident) => {
        $w.put_u16_le(*$v)
    };
    (put le32, $w:ident, $v:ident) => {
        $w.put_u32_le((*$v).into())
    };
    (put le64, $w:ident, $v:ident) => {
        $w.put_u64_le(*$v)
    };
    (put byte, $w:ident, $v:ident) => {
        $w.put_u8(*$v)
    };
    (put bool, $w:ident, $v:ident) => {
        $w.put_bool(*$v)
    };
    (put name, $w:ident, $v:ident) => {
        $w.put_str($v.as_str())
    };
    (put blob, $w:ident, $v:ident) => {
        $w.put_len_prefixed($v)
    };
    (put tag, $w:ident, $v:ident) => {
        $w.put_u8($v.wire_tag())
    };
    (put entries, $w:ident, $v:ident) => {
        write_entries($w, $v)
    };
    (put runs, $w:ident, $v:ident) => {
        write_runs($w, $v)
    };

    (get varint, $r:ident, $backing:ident, $names:ident, $ty:ty) => {
        <$ty>::try_from($r.get_varint()?).map_err(|_| DecodeError::VarintOverflow)?
    };
    (get le16, $r:ident, $backing:ident, $names:ident, $ty:ty) => {
        $r.get_u16_le()?
    };
    (get le32, $r:ident, $backing:ident, $names:ident, $ty:ty) => {
        <$ty>::from($r.get_u32_le()?)
    };
    (get le64, $r:ident, $backing:ident, $names:ident, $ty:ty) => {
        $r.get_u64_le()?
    };
    (get byte, $r:ident, $backing:ident, $names:ident, $ty:ty) => {
        $r.get_u8()?
    };
    (get bool, $r:ident, $backing:ident, $names:ident, $ty:ty) => {
        $r.get_bool()?
    };
    (get name, $r:ident, $backing:ident, $names:ident, $ty:ty) => {
        read_name($r, $names)?
    };
    (get blob, $r:ident, $backing:ident, $names:ident, $ty:ty) => {
        read_blob($r, $backing)?
    };
    (get tag, $r:ident, $backing:ident, $names:ident, $ty:ty) => {{
        let tag = $r.get_u8()?;
        <$ty>::from_wire_tag(tag).ok_or(DecodeError::InvalidTag(tag))?
    }};
    (get entries, $r:ident, $backing:ident, $names:ident, $ty:ty) => {
        read_entries($r, $names)?
    };
    (get runs, $r:ident, $backing:ident, $names:ident, $ty:ty) => {
        read_runs($r)?
    };

    (view blob, $ty:ty) => {
        [u8]
    };
    (view entries, $ty:ty) => {
        [AnnounceEntry]
    };
    (view $form:ident, $ty:ty) => {
        $ty
    };

    (len name, $v:ident) => {
        $v.as_str().len()
    };
    (len blob, $v:ident) => {
        $v.len()
    };
    (len $form:ident, $v:ident) => {
        0
    };
}

/// Expands the message table into [`MessageKind`] (a row's tag and doc),
/// [`Message`] (its doc, fields and field docs), `Message::kind`, the
/// borrowed `Body` with the one writer and the size floor, and the one
/// reader, `Message::read_body`. Every match over the variants is here.
macro_rules! messages {
    ($(
        $(#[doc = $doc:literal])*
        $variant:ident = $tag:literal $({
            $($(#[doc = $fdoc:literal])* $field:ident: $ty:ty = $form:ident,)*
        })?
    )*) => {
        /// Wire tag identifying the message carried by a frame.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
        #[repr(u8)]
        pub enum MessageKind {
            $($(#[doc = $doc])* $variant = $tag,)*
        }

        impl MessageKind {
            /// Every kind, for exhaustive tests.
            pub const ALL: &'static [MessageKind] = &[$(MessageKind::$variant,)*];

            /// Stable wire tag.
            pub fn wire_tag(self) -> u8 {
                self as u8
            }

            /// Inverse of [`MessageKind::wire_tag`].
            pub fn from_wire_tag(tag: u8) -> Option<MessageKind> {
                match tag {
                    $($tag => Some(MessageKind::$variant),)*
                    _ => None,
                }
            }
        }

        /// A typed middleware message.
        ///
        /// Serialization is generated from the message table over
        /// [`WireWriter`]/[`WireReader`]: message payloads are
        /// middleware-internal and never go through the presentation-layer
        /// codecs (which are reserved for *application* data).
        #[derive(Debug, Clone, PartialEq)]
        pub enum Message {
            $($(#[doc = $doc])* $variant $({ $($(#[doc = $fdoc])* $field: $ty,)* })?,)*
        }

        /// A message's fields, borrowed for writing: a blob as the bytes it
        /// holds, a catalogue as a slice. An FEC shard still borrowing its
        /// encoder's lane, a `RelData` envelope around a borrowed inner
        /// message and a catalogue being hashed write through their rows
        /// this way.
        #[derive(Clone, Copy)]
        enum Body<'a> {
            $($variant $({ $($field: &'a form!(view $form, $ty),)* })?,)*
        }

        impl Message {
            /// The wire kind of this message.
            pub fn kind(&self) -> MessageKind {
                match self {
                    $(Message::$variant { .. } => MessageKind::$variant,)*
                }
            }

            /// The message's fields, borrowed.
            fn body(&self) -> Body<'_> {
                match self {
                    $(Message::$variant { $($($field),*)? } => {
                        Body::$variant { $($($field),*)? }
                    })*
                }
            }

            /// Reads the fields of a `kind` body from `r`, in wire order:
            /// see [`read`] for `backing` and `names`.
            fn read_body(
                kind: MessageKind,
                r: &mut WireReader<'_>,
                backing: Option<&Bytes>,
                names: Option<NameLookup<'_>>,
            ) -> Result<Message, DecodeError> {
                Ok(match kind {
                    $(MessageKind::$variant => Message::$variant {
                        $($($field: form!(get $form, r, backing, names, $ty),)*)?
                    },)*
                })
            }
        }

        impl Body<'_> {
            fn kind(self) -> MessageKind {
                match self {
                    $(Body::$variant { .. } => MessageKind::$variant,)*
                }
            }

            /// Serializes the body (no kind byte, no frame header).
            fn write(self, w: &mut WireWriter<'_>) {
                match self {
                    $(Body::$variant { $($($field),*)? } => {
                        $($(form!(put $form, w, $field);)*)?
                    })*
                }
            }

            /// The bytes of its names and blobs: see
            /// [`FrameBody::verbatim_len`]. Every field is bound; only
            /// those two forms count.
            #[allow(unused_variables)]
            fn verbatim_len(self) -> usize {
                match self {
                    $(Body::$variant { $($($field),*)? } => {
                        0 $($(+ form!(len $form, $field))*)?
                    })*
                }
            }
        }
    };
}

/// Lifecycle state of a service instance as broadcast to other containers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ServiceState {
    /// Registered, `on_start` not yet run.
    Starting,
    /// Healthy and schedulable.
    Running,
    /// Alive but operating in degraded mode.
    Degraded,
    /// Cleanly stopped.
    Stopped,
    /// Crashed or declared dead by the container watchdog.
    Failed,
}

impl ServiceState {
    /// Stable wire tag.
    pub fn wire_tag(self) -> u8 {
        match self {
            ServiceState::Starting => 0,
            ServiceState::Running => 1,
            ServiceState::Degraded => 2,
            ServiceState::Stopped => 3,
            ServiceState::Failed => 4,
        }
    }

    /// Inverse of [`ServiceState::wire_tag`].
    pub fn from_wire_tag(tag: u8) -> Option<ServiceState> {
        Some(match tag {
            0 => ServiceState::Starting,
            1 => ServiceState::Running,
            2 => ServiceState::Degraded,
            3 => ServiceState::Stopped,
            4 => ServiceState::Failed,
            _ => return None,
        })
    }

    /// `true` when the instance can serve subscriptions/calls.
    pub fn is_available(self) -> bool {
        matches!(self, ServiceState::Running | ServiceState::Degraded)
    }
}

/// Signature of a remotely invocable function.
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionSig {
    /// Parameter types, in call order.
    pub params: Vec<DataType>,
    /// Return type; `None` for one-way procedures.
    pub returns: Option<DataType>,
}

/// One capability a service announces to the network.
#[derive(Debug, Clone, PartialEq)]
pub enum Provision {
    /// A published variable (paper §4.1).
    Variable {
        /// Variable name (globally addressable).
        name: Name,
        /// Sample schema.
        ty: DataType,
        /// Nominal publication period in µs (0 = on change only).
        period_us: u64,
        /// Validity window in µs: how long a sample may be served after it
        /// was produced (paper: "the provider service can specify the
        /// variable validity as a quality of service parameter").
        validity_us: u64,
    },
    /// A published event channel (paper §4.2).
    Event {
        /// Event name.
        name: Name,
        /// Payload schema; `None` for bare events that "have meaning by
        /// themselves".
        ty: Option<DataType>,
    },
    /// A remotely callable function (paper §4.3).
    Function {
        /// Function name.
        name: Name,
        /// Call signature.
        sig: FunctionSig,
    },
    /// A file resource that can be distributed (paper §4.4).
    FileResource {
        /// Resource name.
        name: Name,
    },
}

impl Provision {
    /// The provision's addressable name.
    pub fn name(&self) -> &Name {
        match self {
            Provision::Variable { name, .. }
            | Provision::Event { name, .. }
            | Provision::Function { name, .. }
            | Provision::FileResource { name } => name,
        }
    }

    fn wire_tag(&self) -> u8 {
        match self {
            Provision::Variable { .. } => 0,
            Provision::Event { .. } => 1,
            Provision::Function { .. } => 2,
            Provision::FileResource { .. } => 3,
        }
    }
}

/// One service entry inside an [`Message::Announce`].
#[derive(Debug, Clone, PartialEq)]
pub struct AnnounceEntry {
    /// Per-node instance sequence number (combined with the frame's source
    /// node this forms the [`ServiceId`](crate::ServiceId)).
    pub service_seq: u32,
    /// Service name.
    pub name: Name,
    /// Current lifecycle state.
    pub state: ServiceState,
    /// Everything the service offers.
    pub provides: Vec<Provision>,
}

/// Outcome tag of a remote invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CallStatus {
    /// Function ran; payload is the encoded return value.
    Ok,
    /// Function ran and returned an application-level error string.
    AppError,
    /// No such function at the target.
    NoSuchFunction,
    /// Target service is not available.
    ServiceUnavailable,
    /// The middleware timed out waiting for the reply.
    Timeout,
}

impl CallStatus {
    /// Stable wire tag.
    pub fn wire_tag(self) -> u8 {
        match self {
            CallStatus::Ok => 0,
            CallStatus::AppError => 1,
            CallStatus::NoSuchFunction => 2,
            CallStatus::ServiceUnavailable => 3,
            CallStatus::Timeout => 4,
        }
    }

    /// Inverse of [`CallStatus::wire_tag`].
    pub fn from_wire_tag(tag: u8) -> Option<CallStatus> {
        Some(match tag {
            0 => CallStatus::Ok,
            1 => CallStatus::AppError,
            2 => CallStatus::NoSuchFunction,
            3 => CallStatus::ServiceUnavailable,
            4 => CallStatus::Timeout,
            _ => return None,
        })
    }
}

messages! {
    /// Container start-up announcement (control group).
    Hello = 0 {
        /// Human-readable container name.
        container: Name = name,
        /// Monotonic restart counter, used to detect node reboots.
        incarnation: u64 = varint,
        /// Strongest FEC code rate this node can run on its reliable
        /// links ([`FecRate`](crate::fec::FecRate) wire tag; 0 = none).
        /// Each link runs the weaker of the two ends' capabilities.
        fec_cap: u8 = byte,
    }
    /// The one periodic control frame (control group): proof of life,
    /// load, FEC capability and the digest of the sender's catalogue as it
    /// stands. A receiver holding the same digest does nothing more; one
    /// that does not pulls the catalogue with a unicast
    /// [`Message::AnnounceRequest`], so the steady-state control plane is
    /// O(nodes), not O(nodes × catalogue).
    Beacon = 1 {
        /// Restart counter matching the last `Hello`/`Announce`.
        incarnation: u64 = varint,
        /// Scheduler load in permille (0-1000), used for dynamic remote
        /// invocation load balancing (paper §4.3).
        load_permille: u16 = le16,
        /// FEC capability refresh (same encoding as `Hello::fec_cap`): a
        /// node that missed the peer's `Hello` — attached late, lossy
        /// bring-up — still converges on the advertised cap within one
        /// beacon period instead of running uncoded forever.
        fec_cap: u8 = byte,
        /// Number of catalogue entries the digest summarizes.
        entry_count: u32 = varint,
        /// [`announce_hash`] over the full announce body.
        catalogue_hash: u32 = le32,
    }
    /// Graceful shutdown notice (control group).
    Bye = 2
    /// Full catalogue of services and provisions hosted by the sending
    /// node.
    Announce = 3 {
        /// Restart counter.
        incarnation: u64 = varint,
        /// Hosted services and their provisions.
        entries: Vec<AnnounceEntry> = entries,
    }
    /// Single service state change.
    ServiceStatus = 4 {
        /// Instance sequence on the sending node.
        service_seq: u32 = varint,
        /// Service name.
        name: Name = name,
        /// New state.
        state: ServiceState = tag,
    }
    /// Variable subscription request (unicast to provider).
    SubscribeVar = 5 {
        /// Variable name.
        name: Name = name,
        /// Subscribing node (for initial-value unicast).
        subscriber: NodeId = le32,
        /// Request the current value immediately (paper §4.1: "a mechanism
        /// that guarantees an initial exact value").
        need_initial: bool = bool,
    }
    /// Variable unsubscription (unicast to provider).
    UnsubscribeVar = 6 {
        /// Variable name.
        name: Name = name,
        /// Unsubscribing node.
        subscriber: NodeId = le32,
    }
    /// Best-effort variable sample (multicast).
    VarSample = 7 {
        /// Variable name.
        name: Name = name,
        /// Per-variable monotonically increasing sample number.
        seq: u64 = varint,
        /// Production timestamp (µs since publisher epoch).
        stamp_us: u64 = varint,
        /// Validity window of this sample in µs.
        validity_us: u64 = varint,
        /// Mint counter of the causal trace id stamped by the
        /// publisher's flight recorder (0 = untraced). Only the counter
        /// travels — the origin node is the frame's `src`, so traced
        /// frames stay 1-3 varint bytes heavier instead of 5-6.
        trace: u64 = varint,
        /// Codec id of the payload.
        codec: u8 = byte,
        /// Encoded sample.
        payload: Bytes = blob,
    }
    /// Event publication (rides the reliable channel).
    EventData = 8 {
        /// Event name.
        name: Name = name,
        /// Per-event-channel sequence number.
        seq: u64 = varint,
        /// Production timestamp (µs since publisher epoch).
        stamp_us: u64 = varint,
        /// Mint counter of the emitter's causal trace id (0 =
        /// untraced); the origin node is the frame's `src`.
        trace: u64 = varint,
        /// Codec id of the payload (ignored when `payload` is empty).
        codec: u8 = byte,
        /// Encoded associated data; empty for bare events.
        payload: Bytes = blob,
    }
    /// Remote invocation request (rides the reliable channel).
    CallRequest = 9 {
        /// Correlation id, unique per calling node.
        request: RequestId = varint,
        /// Function name.
        function: Name = name,
        /// Target service instance sequence on the destination node.
        target_seq: u32 = varint,
        /// Mint counter of the caller's causal trace id (0 =
        /// untraced); the origin node is the frame's `src`.
        trace: u64 = varint,
        /// Codec id of the argument payload.
        codec: u8 = byte,
        /// Encoded argument list.
        payload: Bytes = blob,
    }
    /// Remote invocation reply (rides the reliable channel).
    CallReply = 10 {
        /// Correlation id from the request.
        request: RequestId = varint,
        /// Outcome.
        status: CallStatus = tag,
        /// Mint counter echoed from the request, so the caller's chain
        /// closes without a correlation lookup (0 = untraced); the
        /// origin is the caller itself, which minted the id.
        trace: u64 = varint,
        /// Codec id of the result payload.
        codec: u8 = byte,
        /// Encoded return value, or UTF-8 error text for `AppError`.
        payload: Bytes = blob,
    }
    /// File transfer announcement (multicast; start of the *announce*
    /// phase, §4.4).
    FileAnnounce = 11 {
        /// Transfer session id.
        transfer: TransferId = varint,
        /// Resource name.
        resource: Name = name,
        /// Resource revision ("revision numbers identify different versions
        /// of the same resource").
        revision: u32 = varint,
        /// Total size in bytes.
        size: u64 = varint,
        /// Chunk size in bytes (all chunks equal except the last).
        chunk_size: u32 = varint,
        /// Multicast group the chunks will travel on.
        group: GroupId = le32,
    }
    /// Subscription to an announced transfer (unicast to publisher).
    FileSubscribe = 12 {
        /// Transfer session id.
        transfer: TransferId = varint,
        /// Subscribing node.
        subscriber: NodeId = le32,
    }
    /// One chunk of file content (multicast).
    FileChunk = 13 {
        /// Transfer session id.
        transfer: TransferId = varint,
        /// Revision the chunk belongs to.
        revision: u32 = varint,
        /// Chunk index (0-based).
        index: u32 = varint,
        /// Chunk bytes.
        payload: Bytes = blob,
    }
    /// Completion-status query (multicast; start of the *completion*
    /// phase).
    FileQuery = 14 {
        /// Transfer session id.
        transfer: TransferId = varint,
        /// Revision being queried.
        revision: u32 = varint,
    }
    /// Subscriber holds every chunk of the revision (unicast to
    /// publisher).
    FileAck = 15 {
        /// Transfer session id.
        transfer: TransferId = varint,
        /// Completed revision.
        revision: u32 = varint,
        /// Acknowledging node.
        subscriber: NodeId = le32,
    }
    /// Subscriber misses the listed chunk runs ("a NACK with a compressed
    /// list of the chunks it lacks"; unicast to publisher).
    FileNack = 16 {
        /// Transfer session id.
        transfer: TransferId = varint,
        /// Revision being completed.
        revision: u32 = varint,
        /// Nacking node.
        subscriber: NodeId = le32,
        /// Missing chunk runs as `(first_index, run_length)` pairs.
        runs: Vec<(u32, u32)> = runs,
    }
    /// Publisher aborts the transfer.
    FileCancel = 17 {
        /// Transfer session id.
        transfer: TransferId = varint,
    }
    /// Fragment of a larger logical payload (see [`crate::fragment`]).
    Fragment = 18 {
        /// Id of the fragmented logical message (unique per source node).
        msg_id: u64 = varint,
        /// Fragment index (0-based).
        index: u32 = varint,
        /// Total number of fragments.
        count: u32 = varint,
        /// Fragment bytes.
        payload: Bytes = blob,
    }
    /// Reliable-channel data envelope (ARQ); `payload` is a complete
    /// serialized inner message (kind byte + body).
    RelData = 19 {
        /// Channel id (one per destination link).
        channel: u16 = le16,
        /// Channel sequence number.
        seq: u64 = varint,
        /// Serialized inner message.
        payload: Bytes = blob,
    }
    /// Reliable-channel acknowledgement (ARQ).
    RelAck = 20 {
        /// Channel id.
        channel: u16 = le16,
        /// Receiver's next expected sequence: every `seq < cumulative` has
        /// been delivered.
        cumulative: u64 = le64,
        /// Selective-acknowledgement bitmap: bit `i` set means sequence
        /// `cumulative + 1 + i` was received out of order.
        sack: u64 = le64,
        /// Receiver's smoothed FEC shard-loss estimate in permille —
        /// the piggybacked feedback that drives the sender's adaptive
        /// code-rate controller (0 when the receiver runs no FEC).
        loss_permille: u16 = le16,
    }
    /// Event subscription request (unicast to provider).
    SubscribeEvent = 21 {
        /// Event name.
        name: Name = name,
        /// Subscribing node.
        subscriber: NodeId = le32,
    }
    /// Event unsubscription (unicast to provider).
    UnsubscribeEvent = 22 {
        /// Event name.
        name: Name = name,
        /// Unsubscribing node.
        subscriber: NodeId = le32,
    }
    /// One shard of an FEC group protecting the reliable channel (sits
    /// *below* ARQ: the payload of a data shard is a complete serialized
    /// `RelData`/`RelAck` message, parity shards carry XOR lane content).
    FecShard = 23 {
        /// Reliable-channel id the group belongs to.
        channel: u16 = le16,
        /// Group id, strictly increasing per link sender.
        group: u64 = varint,
        /// Shard index: `0..k` for data shards;
        /// [`PARITY_INDEX_BIT`](crate::fec::PARITY_INDEX_BIT)` | lane`
        /// for parity shards.
        index: u8 = byte,
        /// Data-shard count: the geometry ceiling on data shards, the
        /// group's final count on parity shards (groups may flush short).
        k: u8 = byte,
        /// Parity lane count of the group.
        r: u8 = byte,
        /// Tagged inner message (data) or XOR lane payload (parity).
        payload: Bytes = blob,
    }
    // 24 was the separate catalogue-digest frame, folded into `Beacon`:
    // retired, never reused.
    /// Unicast request that the receiver re-send its full catalogue
    /// (sent when a beacon's digest disagrees with the catalogue held, or
    /// none is held).
    AnnounceRequest = 25
}

/// What [`FrameBody::append_frame`] did with a message. Only `Frame`
/// changes the datagram; after the other two it is as it was.
#[derive(Debug, Clone, PartialEq)]
pub enum Appended {
    /// The datagram grew by one complete wire frame of this many bytes.
    Frame(usize),
    /// The datagram already holds a frame and this one would pass the MTU
    /// behind it: append it to an empty datagram instead, where it is a
    /// `Frame` or `Oversize`.
    NoRoom,
    /// The message fits no datagram: its [`Message::encode_tagged`] bytes,
    /// to be split with [`fragment_shared`](crate::fragment::fragment_shared).
    Oversize(Bytes),
}

/// What encodes as the body of one frame: a [`Message`], or an `FecShard`
/// whose payload is still borrowed ([`ShardRef`]). One framing path,
/// [`FrameBody::append_frame`], serves both.
pub trait FrameBody {
    /// The wire kind of the frame.
    fn kind(&self) -> MessageKind;

    /// Bytes of the body that are a name or blob copied as it is — a
    /// floor on the body's encoded size that costs no encoding (zero for
    /// the messages that carry neither).
    fn verbatim_len(&self) -> usize;

    /// Serializes the body (no kind byte, no frame header).
    fn write_body(&self, w: &mut WireWriter<'_>);

    /// Encodes the body as the next frame of `datagram` — a buffer of
    /// zero or more whole frames bound for a transport whose datagrams hold
    /// `mtu` bytes. The frame is written straight behind the ones already
    /// there (no buffer of its own) and checksummed in place. Only the
    /// encoded size tells the three outcomes apart:
    ///
    /// * it fits the room left: [`Appended::Frame`];
    /// * `datagram` holds frames and this one would pass `mtu` behind
    ///   them: [`Appended::NoRoom`], and `datagram` keeps what it held. A
    ///   message whose names and blobs alone overrun the room is not
    ///   encoded at all; one that only shows the overrun once encoded is
    ///   cut off again. The caller appends it to an empty datagram, the
    ///   buffer it owns for the next one;
    /// * `datagram` is empty and the message does not fit `mtu`:
    ///   [`Appended::Oversize`] carries its [`Message::encode_tagged`] form
    ///   for the sender to fragment — cut from the same bytes, because the
    ///   body sits behind a 16-byte header either way and the tagged form
    ///   is those bytes from the header's last byte on, with the kind byte
    ///   dropped there.
    ///
    /// # Panics
    ///
    /// Panics, like [`Frame::new`], if the body fits `mtu` but exceeds
    /// [`MAX_FRAME_PAYLOAD`](crate::MAX_FRAME_PAYLOAD).
    fn append_frame(&self, src: NodeId, datagram: &mut BytesMut, mtu: usize) -> Appended {
        let start = datagram.len();
        if start > 0 && start + FRAME_HEADER_LEN + self.verbatim_len() > mtu {
            return Appended::NoRoom;
        }
        write_frame(self, src, datagram);
        if start > 0 && datagram.len() > mtu {
            datagram.truncate(start);
            return Appended::NoRoom;
        }
        let len = datagram.len() - start;
        if len > mtu {
            let tag_at = FRAME_HEADER_LEN - 1;
            datagram[tag_at] = self.kind().wire_tag();
            return Appended::Oversize(std::mem::take(datagram).freeze().slice(tag_at..));
        }
        frame::finish_wire(datagram, start);
        Appended::Frame(len)
    }
}

/// Header (length and CRC still blank) plus body, at the tail of `buf`.
fn write_frame<B: FrameBody + ?Sized>(body: &B, src: NodeId, buf: &mut BytesMut) {
    buf.reserve(FRAME_HEADER_LEN + encoded_len_hint(body.verbatim_len()));
    frame::begin_wire(buf, src, body.kind());
    body.write_body(&mut WireWriter::new(buf));
}

/// Capacity to reserve for a body with `verbatim` bytes of names and
/// blobs: those plus a bound on the fixed fields, so the blob-carrying
/// messages encode without growing their buffer. (A catalogue `Announce`
/// still grows; it is rare and has no cheap bound.)
fn encoded_len_hint(verbatim: usize) -> usize {
    // Four varints at their everyday widths, codec id, length prefixes.
    const FIXED: usize = 32;
    match verbatim {
        0 => 2 * FIXED,
        verbatim => FIXED + verbatim,
    }
}

/// A [`Message::FecShard`] whose payload is borrowed: how a parity shard
/// is framed straight from the encoder's lane, with no buffer of its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRef<'a> {
    /// Reliable-channel id the group belongs to.
    pub channel: u16,
    /// Group id.
    pub group: u64,
    /// Shard index (see [`Message::FecShard`]).
    pub index: u8,
    /// Data-shard count.
    pub k: u8,
    /// Parity lane count.
    pub r: u8,
    /// Tagged inner message (data) or XOR lane payload (parity).
    pub payload: &'a [u8],
}

impl ShardRef<'_> {
    /// The owned message: the payload is copied.
    pub fn to_message(&self) -> Message {
        let ShardRef { channel, group, index, k, r, payload } = *self;
        Message::FecShard { channel, group, index, k, r, payload: Bytes::copy_from_slice(payload) }
    }

    /// The `FecShard` row's fields, borrowed.
    fn body(&self) -> Body<'_> {
        let ShardRef { channel, group, index, k, r, payload } = self;
        Body::FecShard { channel, group, index, k, r, payload }
    }
}

impl FrameBody for ShardRef<'_> {
    fn kind(&self) -> MessageKind {
        self.body().kind()
    }

    fn verbatim_len(&self) -> usize {
        self.body().verbatim_len()
    }

    fn write_body(&self, w: &mut WireWriter<'_>) {
        self.body().write(w);
    }
}

/// Where a reliable-channel operation puts the wire messages it produces:
/// a buffer its caller owns. A `Vec<Message>` collects them; the
/// container's outbox frames each one on the spot.
pub trait WireSink {
    /// Takes one wire message.
    fn message(&mut self, msg: Message);

    /// Takes one FEC shard whose payload is still borrowed.
    fn shard(&mut self, shard: ShardRef<'_>) {
        self.message(shard.to_message());
    }
}

impl WireSink for Vec<Message> {
    fn message(&mut self, msg: Message) {
        self.push(msg);
    }
}

/// Answers the [`Name`] a receiver already holds for a string read off the
/// wire (`None`: it holds none), so that decoding shares it — one
/// reference-count bump — instead of validating and allocating another.
pub type NameLookup<'a> = &'a dyn Fn(&str) -> Option<Name>;

impl FrameBody for Message {
    fn kind(&self) -> MessageKind {
        Message::kind(self)
    }

    fn verbatim_len(&self) -> usize {
        self.body().verbatim_len()
    }

    fn write_body(&self, w: &mut WireWriter<'_>) {
        self.body().write(w);
    }
}

impl Message {
    /// Serializes the message body (without frame header).
    pub fn encode_payload(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(encoded_len_hint(self.verbatim_len()));
        self.write_body(&mut WireWriter::new(&mut buf));
        buf.freeze()
    }

    /// Serializes the message *with* a leading kind byte — the format used
    /// inside [`Message::RelData`] envelopes and fragments.
    pub fn encode_tagged(&self) -> Bytes {
        let mut buf = BytesMut::new();
        self.encode_tagged_into(&mut buf);
        buf.freeze()
    }

    /// [`Message::encode_tagged`] appended to `buf` — for a sender that
    /// encodes every message into one buffer it keeps.
    pub fn encode_tagged_into(&self, buf: &mut BytesMut) {
        buf.reserve(1 + encoded_len_hint(self.verbatim_len()));
        buf.extend_from_slice(&[self.kind().wire_tag()]);
        self.write_body(&mut WireWriter::new(buf));
    }

    /// The [`Message::encode_tagged`] form of `RelData { channel, seq,
    /// payload: inner }`, written once around `inner`, and the offset at
    /// which `inner` sits in it: the envelope a reliable message travels
    /// in, bare or as an FEC data shard, on every transmission. It is
    /// written over `buf` — the storage of an envelope the sender no longer
    /// needs, or a new `BytesMut` — when that has room for it, else into a
    /// buffer of exactly its size: grown, `buf` would carry the slack into
    /// every envelope written into it after this one.
    pub fn rel_data_envelope(
        channel: u16,
        seq: u64,
        inner: &[u8],
        buf: BytesMut,
    ) -> (Bytes, usize) {
        // Kind byte, channel, and both varints at their widest.
        let room = 1 + 2 + 10 + 5 + inner.len();
        let mut buf = if buf.capacity() < room { BytesMut::with_capacity(room) } else { buf };
        buf.clear();
        let body = Body::RelData { channel: &channel, seq: &seq, payload: inner };
        buf.extend_from_slice(&[body.kind().wire_tag()]);
        body.write(&mut WireWriter::new(&mut buf));
        let at = buf.len() - inner.len();
        (buf.freeze(), at)
    }

    /// Inverse of [`Message::encode_tagged`]. Blob fields are copied out
    /// of `bytes`; see [`Message::decode_tagged_shared`].
    ///
    /// # Errors
    ///
    /// [`DecodeError`] on malformed input.
    pub fn decode_tagged(bytes: &[u8]) -> Result<Message, DecodeError> {
        read(None, bytes, None, None)
    }

    /// [`Message::decode_tagged`] for input already held as [`Bytes`]: the
    /// same parse, but blob fields come back as O(1) windows onto `bytes`
    /// instead of copies.
    ///
    /// # Errors
    ///
    /// Exactly those of [`Message::decode_tagged`].
    pub fn decode_tagged_shared(bytes: &Bytes) -> Result<Message, DecodeError> {
        read(None, bytes, Some(bytes), None)
    }

    /// [`Message::decode_tagged_shared`] that asks `names` for every name
    /// it reads; one `names` does not hold is validated and allocated as
    /// ever, so the result is equal either way.
    ///
    /// # Errors
    ///
    /// Exactly those of [`Message::decode_tagged`].
    pub fn decode_tagged_interned(
        bytes: &Bytes,
        names: NameLookup<'_>,
    ) -> Result<Message, DecodeError> {
        read(None, bytes, Some(bytes), Some(names))
    }

    /// Wraps the message in a [`Frame`] from `src`.
    pub fn into_frame(self, src: NodeId) -> Frame {
        Frame::new(src, self.kind(), self.encode_payload())
    }

    /// Extracts the message from a decoded [`Frame`]. Blob fields share
    /// the frame's payload storage (no copy).
    ///
    /// # Errors
    ///
    /// [`DecodeError`] if the payload does not parse as the header's kind.
    pub fn from_frame(frame: &Frame) -> Result<Message, DecodeError> {
        let payload = frame.payload_bytes();
        read(Some(frame.header().kind), payload, Some(payload), None)
    }

    /// [`Message::from_frame`] that asks `names` for every name it reads
    /// (see [`Message::decode_tagged_interned`]).
    ///
    /// # Errors
    ///
    /// Exactly those of [`Message::from_frame`].
    pub fn from_frame_interned(
        frame: &Frame,
        names: NameLookup<'_>,
    ) -> Result<Message, DecodeError> {
        let payload = frame.payload_bytes();
        read(Some(frame.header().kind), payload, Some(payload), Some(names))
    }
}

/// The one reader behind every decode entry: a `kind` body — behind its
/// kind byte when `kind` is `None` — that must be all of `bytes`.
/// `backing`, when given, is the storage `bytes` borrows from: blob fields
/// are then cut out of it instead of copied. `names`, when given, is asked
/// for every name before one is made.
fn read(
    kind: Option<MessageKind>,
    bytes: &[u8],
    backing: Option<&Bytes>,
    names: Option<NameLookup<'_>>,
) -> Result<Message, DecodeError> {
    let mut r = WireReader::new(bytes);
    let kind = match kind {
        Some(kind) => kind,
        None => {
            let tag = r.get_u8()?;
            MessageKind::from_wire_tag(tag).ok_or(DecodeError::InvalidTag(tag))?
        }
    };
    let msg = Message::read_body(kind, &mut r, backing, names)?;
    if !r.is_empty() {
        return Err(DecodeError::TrailingBytes { remaining: r.remaining() });
    }
    Ok(msg)
}

/// The catalogue codec's reader (its writer is [`write_entries`]).
fn read_entries(
    r: &mut WireReader<'_>,
    names: Option<NameLookup<'_>>,
) -> Result<Vec<AnnounceEntry>, DecodeError> {
    let n = checked_len(r.get_varint()?, MAX_LIST)?;
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        let service_seq = read_u32(r)?;
        let name = read_name(r, names)?;
        let state_tag = r.get_u8()?;
        let state =
            ServiceState::from_wire_tag(state_tag).ok_or(DecodeError::InvalidTag(state_tag))?;
        let np = checked_len(r.get_varint()?, MAX_LIST)?;
        let mut provides = Vec::with_capacity(np);
        for _ in 0..np {
            let ptag = r.get_u8()?;
            let pname = read_name(r, names)?;
            provides.push(match ptag {
                0 => Provision::Variable {
                    name: pname,
                    ty: read_typedesc(r)?,
                    period_us: r.get_varint()?,
                    validity_us: r.get_varint()?,
                },
                1 => Provision::Event {
                    name: pname,
                    ty: if r.get_bool()? { Some(read_typedesc(r)?) } else { None },
                },
                2 => {
                    let nparams = checked_len(r.get_varint()?, MAX_LIST)?;
                    let mut params = Vec::with_capacity(nparams);
                    for _ in 0..nparams {
                        params.push(read_typedesc(r)?);
                    }
                    let returns = if r.get_bool()? { Some(read_typedesc(r)?) } else { None };
                    Provision::Function { name: pname, sig: FunctionSig { params, returns } }
                }
                3 => Provision::FileResource { name: pname },
                other => return Err(DecodeError::InvalidTag(other)),
            });
        }
        entries.push(AnnounceEntry { service_seq, name, state, provides });
    }
    Ok(entries)
}

/// The nack codec's reader (its writer is [`write_runs`]).
fn read_runs(r: &mut WireReader<'_>) -> Result<Vec<(u32, u32)>, DecodeError> {
    let n = checked_len(r.get_varint()?, MAX_LIST)?;
    let mut runs = Vec::with_capacity(n);
    for _ in 0..n {
        runs.push((read_u32(r)?, read_u32(r)?));
    }
    Ok(runs)
}

/// The catalogue codec: a count, then per entry its sequence, name, state
/// and provisions, each with its tag, name and kind-specific tail.
fn write_entries(w: &mut WireWriter<'_>, entries: &[AnnounceEntry]) {
    w.put_varint(entries.len() as u64);
    for e in entries {
        w.put_varint(u64::from(e.service_seq));
        w.put_str(e.name.as_str());
        w.put_u8(e.state.wire_tag());
        w.put_varint(e.provides.len() as u64);
        for p in &e.provides {
            w.put_u8(p.wire_tag());
            w.put_str(p.name().as_str());
            match p {
                Provision::Variable { ty, period_us, validity_us, .. } => {
                    write_typedesc(w, ty);
                    w.put_varint(*period_us);
                    w.put_varint(*validity_us);
                }
                Provision::Event { ty, .. } => match ty {
                    Some(t) => {
                        w.put_u8(1);
                        write_typedesc(w, t);
                    }
                    None => w.put_u8(0),
                },
                Provision::Function { sig, .. } => {
                    w.put_varint(sig.params.len() as u64);
                    for pty in &sig.params {
                        write_typedesc(w, pty);
                    }
                    match &sig.returns {
                        Some(rty) => {
                            w.put_u8(1);
                            write_typedesc(w, rty);
                        }
                        None => w.put_u8(0),
                    }
                }
                Provision::FileResource { .. } => {}
            }
        }
    }
}

/// The nack codec: a count, then each run's first index and length.
fn write_runs(w: &mut WireWriter<'_>, runs: &[(u32, u32)]) {
    w.put_varint(runs.len() as u64);
    for (start, len) in runs {
        w.put_varint(u64::from(*start));
        w.put_varint(u64::from(*len));
    }
}

/// Canonical digest of a full catalogue announce: FNV-1a over the exact
/// `Announce` body encoding of `(incarnation, entries)`.
///
/// Both ends hash through this function — the announcer for the digest
/// its beacons carry, the receiver over the decoded entries it applied —
/// so equal catalogues always hash equal regardless of which side
/// computed it (the wire encoding is canonical).
pub fn announce_hash(incarnation: u64, entries: &[AnnounceEntry]) -> u32 {
    let mut buf = BytesMut::new();
    Body::Announce { incarnation: &incarnation, entries }.write(&mut WireWriter::new(&mut buf));
    let mut h: u32 = 0x811c_9dc5;
    for &b in buf.iter() {
        h ^= u32::from(b);
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

fn write_typedesc(w: &mut WireWriter<'_>, ty: &DataType) {
    let bytes = typedesc::encode_type_to_vec(ty);
    w.put_len_prefixed(&bytes);
}

fn read_typedesc(r: &mut WireReader<'_>) -> Result<DataType, DecodeError> {
    let bytes = r.get_len_prefixed(MAX_EMBEDDED)?;
    typedesc::decode_type_from_slice(bytes)
}

fn read_name(r: &mut WireReader<'_>, names: Option<NameLookup<'_>>) -> Result<Name, DecodeError> {
    let s = r.get_str(256)?;
    match names.and_then(|held| held(s)) {
        Some(name) => Ok(name),
        None => Name::new(s).map_err(|_| DecodeError::InvalidName),
    }
}

/// Reads a length-prefixed blob. The reader validates the prefix against
/// [`MAX_EMBEDDED`] and the remaining input *before* anything is cut, so
/// the shared window below is always in bounds.
fn read_blob(r: &mut WireReader<'_>, backing: Option<&Bytes>) -> Result<Bytes, DecodeError> {
    let blob = r.get_len_prefixed(MAX_EMBEDDED)?;
    Ok(match backing {
        Some(b) => b.slice(r.position() - blob.len()..r.position()),
        None => Bytes::copy_from_slice(blob),
    })
}

fn read_u32(r: &mut WireReader<'_>) -> Result<u32, DecodeError> {
    u32::try_from(r.get_varint()?).map_err(|_| DecodeError::VarintOverflow)
}

fn checked_len(declared: u64, limit: usize) -> Result<usize, DecodeError> {
    if declared > limit as u64 {
        return Err(DecodeError::LengthOverflow { declared, limit });
    }
    Ok(declared as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use marea_presentation::StructType;

    fn name(s: &str) -> Name {
        Name::new(s).unwrap()
    }

    /// A `kind` body as a frame payload, read back.
    fn decode(kind: MessageKind, body: &[u8]) -> Result<Message, DecodeError> {
        Message::from_frame(&Frame::new(NodeId(0), kind, Bytes::copy_from_slice(body)))
    }

    fn sample_messages() -> Vec<Message> {
        let pos_ty = DataType::Struct(
            StructType::new("Position")
                .with_field("lat", DataType::F64)
                .unwrap()
                .with_field("lon", DataType::F64)
                .unwrap(),
        );
        vec![
            Message::Hello { container: name("fcs-node"), incarnation: 3, fec_cap: 4 },
            Message::Beacon {
                incarnation: 3,
                load_permille: 250,
                fec_cap: 4,
                entry_count: 1,
                catalogue_hash: 0xDEAD_BEEF,
            },
            Message::Bye,
            Message::Announce {
                incarnation: 3,
                entries: vec![AnnounceEntry {
                    service_seq: 1,
                    name: name("gps"),
                    state: ServiceState::Running,
                    provides: vec![
                        Provision::Variable {
                            name: name("gps/position"),
                            ty: pos_ty.clone(),
                            period_us: 50_000,
                            validity_us: 200_000,
                        },
                        Provision::Event { name: name("gps/fix-lost"), ty: None },
                        Provision::Event { name: name("gps/glitch"), ty: Some(DataType::U8) },
                        Provision::Function {
                            name: name("gps/self-test"),
                            sig: FunctionSig {
                                params: vec![DataType::U8],
                                returns: Some(DataType::Bool),
                            },
                        },
                        Provision::Function {
                            name: name("gps/reset"),
                            sig: FunctionSig { params: vec![], returns: None },
                        },
                        Provision::FileResource { name: name("gps/almanac") },
                    ],
                }],
            },
            Message::ServiceStatus {
                service_seq: 1,
                name: name("gps"),
                state: ServiceState::Degraded,
            },
            Message::SubscribeVar {
                name: name("gps/position"),
                subscriber: NodeId(4),
                need_initial: true,
            },
            Message::UnsubscribeVar { name: name("gps/position"), subscriber: NodeId(4) },
            Message::VarSample {
                name: name("gps/position"),
                seq: 991,
                stamp_us: 123_456,
                validity_us: 200_000,
                trace: 991,
                codec: 0,
                payload: Bytes::from_static(&[1, 2, 3]),
            },
            Message::EventData {
                name: name("mc/photo-now"),
                seq: 7,
                stamp_us: 55,
                trace: 12,
                codec: 0,
                payload: Bytes::new(),
            },
            Message::CallRequest {
                request: RequestId(42),
                function: name("camera/prepare"),
                target_seq: 2,
                trace: 77,
                codec: 0,
                payload: Bytes::from_static(&[9]),
            },
            Message::CallReply {
                request: RequestId(42),
                status: CallStatus::Ok,
                trace: 77,
                codec: 0,
                payload: Bytes::from_static(&[1]),
            },
            Message::FileAnnounce {
                transfer: TransferId(5),
                resource: name("camera/img-003"),
                revision: 2,
                size: 1_048_576,
                chunk_size: 1024,
                group: GroupId(7),
            },
            Message::FileSubscribe { transfer: TransferId(5), subscriber: NodeId(2) },
            Message::FileChunk {
                transfer: TransferId(5),
                revision: 2,
                index: 17,
                payload: Bytes::from_static(b"chunkdata"),
            },
            Message::FileQuery { transfer: TransferId(5), revision: 2 },
            Message::FileAck { transfer: TransferId(5), revision: 2, subscriber: NodeId(2) },
            Message::FileNack {
                transfer: TransferId(5),
                revision: 2,
                subscriber: NodeId(2),
                runs: vec![(0, 3), (17, 1), (100, 24)],
            },
            Message::FileCancel { transfer: TransferId(5) },
            Message::Fragment {
                msg_id: 88,
                index: 1,
                count: 3,
                payload: Bytes::from_static(b"frag"),
            },
            Message::RelData { channel: 2, seq: 10, payload: Bytes::from_static(b"inner") },
            Message::RelAck { channel: 2, cumulative: 9, sack: 0b101, loss_permille: 125 },
            Message::SubscribeEvent { name: name("mc/photo-now"), subscriber: NodeId(3) },
            Message::UnsubscribeEvent { name: name("mc/photo-now"), subscriber: NodeId(3) },
            Message::FecShard {
                channel: 2,
                group: 40,
                index: 0x80,
                k: 4,
                r: 1,
                payload: Bytes::from_static(b"xor-lane"),
            },
            Message::AnnounceRequest,
        ]
    }

    #[test]
    fn every_message_roundtrips_via_payload() {
        for msg in sample_messages() {
            let bytes = msg.encode_payload();
            let back = decode(msg.kind(), &bytes).unwrap();
            assert_eq!(back, msg);
        }
    }

    #[test]
    fn every_message_roundtrips_via_frame() {
        for msg in sample_messages() {
            let frame = msg.clone().into_frame(NodeId(11));
            let wire = frame.encode();
            let parsed = Frame::decode(&wire).unwrap();
            assert_eq!(parsed.header().src, NodeId(11));
            assert_eq!(Message::from_frame(&parsed).unwrap(), msg);
        }
    }

    #[test]
    fn every_message_roundtrips_via_tagged() {
        for msg in sample_messages() {
            let bytes = msg.encode_tagged();
            assert_eq!(Message::decode_tagged(&bytes).unwrap(), msg);
        }
    }

    #[test]
    fn sample_covers_every_kind() {
        let mut kinds: Vec<MessageKind> = sample_messages().iter().map(|m| m.kind()).collect();
        kinds.sort();
        kinds.dedup();
        assert_eq!(kinds.len(), MessageKind::ALL.len(), "fixture must cover all kinds");
    }

    #[test]
    fn kind_tags_roundtrip() {
        for &k in MessageKind::ALL {
            assert_eq!(MessageKind::from_wire_tag(k.wire_tag()), Some(k));
        }
        assert_eq!(MessageKind::from_wire_tag(0xFF), None);
    }

    #[test]
    fn state_and_status_tags_roundtrip() {
        for s in [
            ServiceState::Starting,
            ServiceState::Running,
            ServiceState::Degraded,
            ServiceState::Stopped,
            ServiceState::Failed,
        ] {
            assert_eq!(ServiceState::from_wire_tag(s.wire_tag()), Some(s));
        }
        assert!(ServiceState::from_wire_tag(9).is_none());
        for s in [
            CallStatus::Ok,
            CallStatus::AppError,
            CallStatus::NoSuchFunction,
            CallStatus::ServiceUnavailable,
            CallStatus::Timeout,
        ] {
            assert_eq!(CallStatus::from_wire_tag(s.wire_tag()), Some(s));
        }
        assert!(CallStatus::from_wire_tag(9).is_none());
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = Message::Bye.encode_payload().to_vec();
        bytes.push(1);
        assert!(matches!(decode(MessageKind::Bye, &bytes), Err(DecodeError::TrailingBytes { .. })));
    }

    #[test]
    fn truncated_messages_rejected() {
        for msg in sample_messages() {
            let bytes = msg.encode_payload();
            if bytes.is_empty() {
                continue;
            }
            // Cutting the last byte must fail (every encoding is minimal).
            let cut = &bytes[..bytes.len() - 1];
            assert!(decode(msg.kind(), cut).is_err(), "truncated {:?} decoded", msg.kind());
        }
    }

    #[test]
    fn invalid_names_rejected() {
        // Hand-craft a Hello with a bad name.
        let mut buf = BytesMut::new();
        let mut w = WireWriter::new(&mut buf);
        w.put_str("9bad name");
        w.put_varint(0);
        assert_eq!(decode(MessageKind::Hello, &buf), Err(DecodeError::InvalidName));
    }

    #[test]
    fn announce_hash_is_canonical_across_a_roundtrip() {
        let Some(Message::Announce { incarnation, entries }) =
            sample_messages().into_iter().find(|m| matches!(m, Message::Announce { .. }))
        else {
            panic!("fixture has an Announce");
        };
        let sender_side = announce_hash(incarnation, &entries);
        // The receiver hashes the entries it *decoded*; equal catalogues
        // must digest equal.
        let wire = Message::Announce { incarnation, entries: entries.clone() }.encode_payload();
        let Ok(Message::Announce { incarnation: inc2, entries: decoded }) =
            decode(MessageKind::Announce, &wire)
        else {
            panic!("announce roundtrips");
        };
        assert_eq!(announce_hash(inc2, &decoded), sender_side);
        // Any catalogue change — or a new incarnation — changes the digest.
        assert_ne!(announce_hash(incarnation + 1, &entries), sender_side);
        assert_ne!(announce_hash(incarnation, &entries[..0]), sender_side);
    }

    #[test]
    fn announce_list_limit_enforced() {
        let mut buf = BytesMut::new();
        let mut w = WireWriter::new(&mut buf);
        w.put_varint(1); // incarnation
        w.put_varint(1_000_000); // entry count over limit
        assert!(matches!(
            decode(MessageKind::Announce, &buf),
            Err(DecodeError::LengthOverflow { .. })
        ));
    }

    #[test]
    fn available_states() {
        assert!(ServiceState::Running.is_available());
        assert!(ServiceState::Degraded.is_available());
        assert!(!ServiceState::Failed.is_available());
        assert!(!ServiceState::Stopped.is_available());
        assert!(!ServiceState::Starting.is_available());
    }
}
