//! # marea-protocol — the PEPt *Protocol* layer
//!
//! > *"Protocol frames the encoded data to denote the intent of the message.
//! > Protocol subsystem is also responsible for frame retransmission and
//! > other low level bookkeeping tasks."* — paper §6
//!
//! This crate contains every wire state machine of the middleware, with no
//! I/O and no clock of its own — all functions take explicit `now`
//! timestamps ([`Micros`]), which is what makes the whole middleware
//! deterministic under the simulated network and testable with properties:
//!
//! * [`frame`](Frame) — the 16-byte frame header (magic, version, kind,
//!   source node, length) plus a CRC32 trailer over header and payload;
//! * [`messages`] — the typed vocabulary: discovery and the beacon, variable
//!   samples, events, remote invocation, and MFTP-like file transfer;
//! * [`fragment`] — fragmentation/reassembly for payloads above the
//!   transport MTU;
//! * [`arq`] — the sliding-window acknowledge/retransmit machinery that
//!   backs the *event* and *remote invocation* primitives (paper §4.2: "a
//!   mechanism to acknowledge and resend lost packets ... more efficient for
//!   event messages than the generic case provided by the TCP stack");
//! * [`mftp`] — announce/transfer/completion file distribution loosely based
//!   on Starburst MFTP (paper §4.4), with NACK chunk-run compression,
//!   revisions and late join;
//! * [`fec`] — adaptive-rate erasure coding *below* ARQ: interleaved
//!   systematic XOR parity groups that let the receiver rebuild erased
//!   reliable-channel frames without a retransmission round-trip, with a
//!   loss-driven code-rate controller for degraded radio links.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arq;
mod crc;
mod error;
pub mod fec;
pub mod fragment;
mod frame;
mod ids;
pub mod messages;
pub mod mftp;
mod time;

pub use crc::crc32;
pub use error::{FrameError, ProtocolError};
pub use fec::FecRate;
pub use frame::{
    frames, Frame, FrameHeader, Frames, FRAME_HEADER_LEN, LOAN_KEEP_BYTES, MAX_FRAME_PAYLOAD,
    PROTOCOL_VERSION,
};
pub use ids::{GroupId, NodeId, RequestId, ServiceId, TransferId};
pub use messages::{Appended, FrameBody, Message, MessageKind, NameLookup, ShardRef, WireSink};
pub use time::{Micros, ProtoDuration};
