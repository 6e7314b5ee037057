//! State engines for the four communication primitives.
//!
//! Each engine owns one primitive's bookkeeping behind private fields: it
//! decides (accept or drop a sample, admit an event into an inbox, retry
//! or fail a call, route a file chunk) and answers `next_due()` from its
//! own due dates. The [`ServiceContainer`](crate::ServiceContainer) turns
//! those answers into frames, tasks and trace records — engines never
//! touch the transport, the scheduler or the tracer, which keeps them
//! unit-testable in isolation.

use bytes::{Bytes, BytesMut};

use marea_encoding::{Codec, CodecId, CodecRegistry, EncodeError, SelfDescribingCodec};
use marea_presentation::{DataType, Value};
use marea_protocol::ServiceId;

pub(crate) mod events;
pub(crate) mod files;
pub(crate) mod rpc;
pub(crate) mod vars;

/// What re-resolving a subscribed channel against the directory did to
/// its provider binding (name management, paper §3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Rebind {
    /// Bound to `provider`, newly or re-wired to another instance; only
    /// the `fresh` transition from unbound is told to subscribers.
    Bound { provider: ServiceId, fresh: bool },
    /// No provider resolves any more.
    Lost,
}

/// Encodes a published value into the buffer that goes on the wire: one
/// `BytesMut` sized from the value, frozen in place — the payload is
/// written once and never copied on its way to the frame.
fn encode_payload(codec: &dyn Codec, value: &Value, ty: &DataType) -> Result<Bytes, EncodeError> {
    let mut buf = BytesMut::with_capacity(value.size_hint());
    codec.encode(value, ty, &mut buf)?;
    Ok(buf.freeze())
}

/// Decodes a sample or event payload against the schema its subscription
/// learned from the provider's announcement; without one, only the
/// self-describing codec can be read. `None`: the payload does not decode.
fn decode_payload(
    codecs: &CodecRegistry,
    ty: Option<&DataType>,
    codec: u8,
    payload: &[u8],
) -> Option<Value> {
    match (ty, CodecId(codec)) {
        (Some(ty), id) => codecs.get(id)?.decode(payload, ty).ok(),
        (None, CodecId(1)) => SelfDescribingCodec::decode_any(payload).ok().map(|(_, v)| v),
        _ => None,
    }
}

/// FNV-1a, the hash behind the stable multicast group ids.
fn fnv1a(bytes: &[u8]) -> u32 {
    bytes.iter().fold(0x811c_9dc5, |h, &b| (h ^ u32::from(b)).wrapping_mul(0x0100_0193))
}
