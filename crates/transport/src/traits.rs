//! The pluggable transport abstraction.

use std::error::Error;
use std::fmt;

use bytes::Bytes;

/// Where a transport send is headed (mirrors the three delivery modes the
/// paper's container maps primitives onto: unicast, multicast, broadcast).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransportDestination {
    /// One node.
    Node(u32),
    /// All members of a group (except the sender).
    Group(u32),
    /// All reachable nodes (except the sender).
    Broadcast,
}

/// Transport-level failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// Payload exceeds this transport's MTU; the protocol layer must
    /// fragment first.
    PayloadTooLarge {
        /// Attempted size.
        size: usize,
        /// Transport MTU.
        mtu: usize,
    },
    /// The local endpoint is no longer usable.
    Closed,
    /// Destination unknown to this transport (e.g. no address table entry).
    UnknownDestination(u32),
    /// An OS-level I/O failure (UDP transport).
    Io(String),
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::PayloadTooLarge { size, mtu } => {
                write!(f, "payload of {size} bytes exceeds transport mtu {mtu}")
            }
            TransportError::Closed => write!(f, "transport endpoint closed"),
            TransportError::UnknownDestination(n) => write!(f, "unknown destination node {n}"),
            TransportError::Io(e) => write!(f, "transport i/o error: {e}"),
        }
    }
}

impl Error for TransportError {}

/// A pluggable datagram mover (PEPt *Transport* subsystem).
///
/// Implementations are polled by the container's tick loop: `recv` never
/// blocks. Datagrams are opaque byte blobs at this layer — that one holds
/// one or more whole protocol frames, their integrity and their
/// interpretation all belong to the protocol layer above.
pub trait Transport: Send + fmt::Debug {
    /// The node id this endpoint represents.
    fn local_node(&self) -> u32;

    /// Largest datagram `send` accepts. The container fills datagrams up
    /// to this size, so it should be what the link carries unfragmented.
    fn mtu(&self) -> usize;

    /// Sends one datagram: everything the container has for `dest` this
    /// tick, coalesced (one or more whole frames, at most `mtu` bytes). It
    /// arrives whole or not at all — the unit of loss on the link is the
    /// unit FEC counts erasures in. To a group or to everyone, every
    /// reachable member is attempted even when one of them fails.
    ///
    /// # Errors
    ///
    /// [`TransportError::PayloadTooLarge`] for an oversized datagram, plus
    /// implementation-specific failures (for a fan-out, the first one).
    fn send(&mut self, dest: TransportDestination, datagram: Bytes) -> Result<(), TransportError>;

    /// Pops the next received datagram (`(source_node, datagram)`), if any,
    /// exactly as it was handed to the sender's `send`.
    fn recv(&mut self) -> Option<(u32, Bytes)>;

    /// Capacity of received-datagram storage this transport keeps to copy
    /// the next datagram into, while no reader holds it (at most
    /// [`LOAN_KEEP_BYTES`](crate::LOAN_KEEP_BYTES)). Zero for a transport
    /// that hands on the sender's own bytes.
    fn loan_bytes(&self) -> usize {
        0
    }

    /// Joins a multicast group.
    fn join(&mut self, group: u32);

    /// Leaves a multicast group.
    fn leave(&mut self, group: u32);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display() {
        assert_eq!(
            TransportError::PayloadTooLarge { size: 9000, mtu: 1500 }.to_string(),
            "payload of 9000 bytes exceeds transport mtu 1500"
        );
        assert_eq!(TransportError::UnknownDestination(4).to_string(), "unknown destination node 4");
    }
}
