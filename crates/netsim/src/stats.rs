//! Packet accounting, the measurement substrate for the bandwidth
//! experiments (C2: multicast vs unicast fan-out; C4: file distribution).

use std::collections::BTreeMap;

/// Per-directed-link replica counters, the ground truth the FEC layer's
/// in-band loss estimator is judged against (it must converge on
/// `lost / attempts` without ever seeing these numbers).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkObserved {
    /// Replicas that reached the loss roll (post-partition-check).
    pub attempts: u64,
    /// Replicas the loss roll dropped.
    pub lost: u64,
}

impl LinkObserved {
    /// Measured loss rate in permille (0 with no traffic).
    pub fn loss_permille(&self) -> u16 {
        if self.attempts == 0 {
            return 0;
        }
        ((self.lost * 1000 / self.attempts).min(1000)) as u16
    }
}

/// Per-node counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeStats {
    /// Datagrams passed to `send` by this node.
    pub sent: u64,
    /// Payload bytes passed to `send` by this node.
    pub sent_bytes: u64,
    /// Datagram replicas delivered into this node's inbox.
    pub delivered: u64,
    /// Payload bytes delivered into this node's inbox.
    pub delivered_bytes: u64,
}

/// Network-wide counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Datagrams sent (one per `send` call, however many replicas result).
    pub datagrams_sent: u64,
    /// Payload bytes sent (counted once per `send` call).
    pub bytes_sent: u64,
    /// Replicas delivered to an inbox.
    pub datagrams_delivered: u64,
    /// Payload bytes delivered (counted per replica).
    pub bytes_delivered: u64,
    /// Replicas dropped by random loss.
    pub dropped_loss: u64,
    /// Sends dropped because the payload exceeded the link MTU.
    pub dropped_mtu: u64,
    /// Replicas dropped by an active partition.
    pub dropped_partition: u64,
    /// Sends addressed to a group/destination with no (other) member.
    pub no_receiver: u64,
    /// Replicas discarded at a removed node: those that arrived while it
    /// was detached, and those unread in its inbox when it was removed.
    /// Not part of [`total_dropped`](NetStats::total_dropped).
    pub vanished: u64,
    /// Per-node breakdown.
    pub per_node: BTreeMap<u32, NodeStats>,
    /// Per-directed-link `(src, dst)` loss accounting.
    pub per_link: BTreeMap<(u32, u32), LinkObserved>,
}

impl NetStats {
    /// Counters for one node (zero if never seen).
    pub fn node(&self, id: u32) -> NodeStats {
        self.per_node.get(&id).copied().unwrap_or_default()
    }

    /// Replicas dropped by loss or a partition, plus sends refused for
    /// exceeding the MTU. Replicas that [vanished](NetStats::vanished) at
    /// a removed node are not included.
    pub fn total_dropped(&self) -> u64 {
        self.dropped_loss + self.dropped_mtu + self.dropped_partition
    }

    /// Loss accounting of the directed link `src → dst` (zero if never
    /// used).
    pub fn link_observed(&self, src: u32, dst: u32) -> LinkObserved {
        self.per_link.get(&(src, dst)).copied().unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_lookup_defaults_to_zero() {
        let s = NetStats::default();
        assert_eq!(s.node(7), NodeStats::default());
        assert_eq!(s.link_observed(1, 2), LinkObserved::default());
        assert_eq!(s.total_dropped(), 0);
    }

    #[test]
    fn link_observed_loss_permille() {
        assert_eq!(LinkObserved::default().loss_permille(), 0);
        assert_eq!(LinkObserved { attempts: 10, lost: 1 }.loss_permille(), 100);
        assert_eq!(LinkObserved { attempts: 3, lost: 3 }.loss_permille(), 1000);
    }
}
