//! Identifier newtypes used across the wire protocol.

use std::fmt;

/// Identifier of a physical node (one service container per node, paper §3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// Globally unique identifier of one *service instance*.
///
/// Composed of the hosting node and a per-node sequence number; the same
/// service *name* may run as several instances on different nodes (that is
/// how the middleware provides redundancy, paper §4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ServiceId {
    /// Node hosting the instance.
    pub node: NodeId,
    /// Per-node instance sequence number.
    pub seq: u32,
}

impl ServiceId {
    /// Creates a service id.
    pub fn new(node: NodeId, seq: u32) -> Self {
        ServiceId { node, seq }
    }

    /// Packs the id into a single u64 for wire encoding.
    pub fn to_u64(self) -> u64 {
        (u64::from(self.node.0) << 32) | u64::from(self.seq)
    }

    /// Inverse of [`ServiceId::to_u64`].
    pub fn from_u64(v: u64) -> Self {
        ServiceId { node: NodeId((v >> 32) as u32), seq: v as u32 }
    }
}

impl fmt::Display for ServiceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.node, self.seq)
    }
}

/// Correlation id of one remote invocation (unique per calling node).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RequestId(pub u64);

impl fmt::Display for RequestId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "req{}", self.0)
    }
}

/// Identifier of one file transfer session (unique per publishing node).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TransferId(pub u64);

impl fmt::Display for TransferId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "xfer{}", self.0)
    }
}

/// Multicast group identifier, mapped by the transport to whatever the
/// underlying network provides (IP multicast groups, simulated fan-out).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GroupId(pub u32);

impl GroupId {
    /// The all-containers group every node joins at start-up; discovery and
    /// the periodic beacons travel here.
    pub const CONTROL: GroupId = GroupId(0);
}

impl fmt::Display for GroupId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "group{}", self.0)
    }
}

/// Each id converts to and from the integer it wraps, which is how the
/// wire messages carry it.
macro_rules! wraps {
    ($($id:ident($int:ty)),*) => {$(
        impl From<$id> for $int {
            fn from(id: $id) -> $int {
                id.0
            }
        }

        impl From<$int> for $id {
            fn from(v: $int) -> $id {
                $id(v)
            }
        }
    )*};
}

wraps!(NodeId(u32), RequestId(u64), TransferId(u64), GroupId(u32));

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn service_id_packs_and_unpacks() {
        let id = ServiceId::new(NodeId(7), 42);
        assert_eq!(ServiceId::from_u64(id.to_u64()), id);
        let max = ServiceId::new(NodeId(u32::MAX), u32::MAX);
        assert_eq!(ServiceId::from_u64(max.to_u64()), max);
    }

    #[test]
    fn displays() {
        assert_eq!(NodeId(3).to_string(), "node3");
        assert_eq!(ServiceId::new(NodeId(3), 1).to_string(), "node3#1");
        assert_eq!(RequestId(9).to_string(), "req9");
        assert_eq!(TransferId(2).to_string(), "xfer2");
        assert_eq!(GroupId::CONTROL.to_string(), "group0");
    }
}
