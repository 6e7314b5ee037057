//! Zero-latency in-process transport.
//!
//! Models several service containers sharing one avionics box: frames move
//! by queue hand-off with no serialization delay, loss or reordering. This
//! is the "local" side of the paper's Fig. 2 (containers communicate
//! services in the same container or across the network) and the baseline
//! for the local-vs-remote experiment (F2).

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::Mutex;

use crate::traits::{Transport, TransportDestination, TransportError};

#[derive(Debug, Default)]
struct HubInner {
    inboxes: BTreeMap<u32, VecDeque<(u32, Bytes)>>,
    groups: BTreeMap<u32, BTreeSet<u32>>,
}

/// Shared rendezvous connecting every [`InProcTransport`] of a process.
#[derive(Debug, Clone, Default)]
pub struct InProcHub {
    inner: Arc<Mutex<HubInner>>,
}

impl InProcHub {
    /// Creates an empty hub.
    pub fn new() -> Self {
        InProcHub::default()
    }

    /// Attaches node `id`, returning its transport endpoint.
    pub fn attach(&self, id: u32) -> InProcTransport {
        self.inner.lock().inboxes.entry(id).or_default();
        InProcTransport { hub: self.clone(), node: id, mtu: usize::MAX }
    }

    /// Detaches a node (its queued frames are dropped).
    pub fn detach(&self, id: u32) {
        let mut inner = self.inner.lock();
        inner.inboxes.remove(&id);
        for members in inner.groups.values_mut() {
            members.remove(&id);
        }
    }
}

/// [`Transport`] endpoint on an [`InProcHub`].
#[derive(Debug)]
pub struct InProcTransport {
    hub: InProcHub,
    node: u32,
    mtu: usize,
}

impl InProcTransport {
    /// Overrides the advertised MTU (useful to exercise fragmentation
    /// without a simulated network).
    pub fn set_mtu(&mut self, mtu: usize) {
        self.mtu = mtu;
    }
}

impl Transport for InProcTransport {
    fn local_node(&self) -> u32 {
        self.node
    }

    fn mtu(&self) -> usize {
        self.mtu
    }

    fn send(&mut self, dest: TransportDestination, frame: Bytes) -> Result<(), TransportError> {
        if frame.len() > self.mtu {
            return Err(TransportError::PayloadTooLarge { size: frame.len(), mtu: self.mtu });
        }
        let inner = &mut *self.hub.inner.lock();
        if !inner.inboxes.contains_key(&self.node) {
            return Err(TransportError::Closed);
        }
        // Receivers in node order; a frame to an unknown node is dropped
        // (datagram semantics).
        let from = self.node;
        let push = |q: &mut VecDeque<(u32, Bytes)>| q.push_back((from, frame.clone()));
        match dest {
            TransportDestination::Node(n) => {
                if let Some(q) = inner.inboxes.get_mut(&n) {
                    push(q);
                }
            }
            TransportDestination::Group(g) => {
                for id in inner.groups.get(&g).into_iter().flatten().filter(|id| **id != from) {
                    if let Some(q) = inner.inboxes.get_mut(id) {
                        push(q);
                    }
                }
            }
            TransportDestination::Broadcast => {
                for (_, q) in inner.inboxes.iter_mut().filter(|(id, _)| **id != from) {
                    push(q);
                }
            }
        }
        Ok(())
    }

    fn recv(&mut self) -> Option<(u32, Bytes)> {
        self.hub.inner.lock().inboxes.get_mut(&self.node)?.pop_front()
    }

    fn join(&mut self, group: u32) {
        self.hub.inner.lock().groups.entry(group).or_default().insert(self.node);
    }

    fn leave(&mut self, group: u32) {
        if let Some(m) = self.hub.inner.lock().groups.get_mut(&group) {
            m.remove(&self.node);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivery_is_immediate_and_fifo() {
        let hub = InProcHub::new();
        let mut a = hub.attach(1);
        let mut b = hub.attach(2);
        a.send(TransportDestination::Node(2), Bytes::from_static(b"1")).unwrap();
        a.send(TransportDestination::Node(2), Bytes::from_static(b"2")).unwrap();
        assert_eq!(b.recv().unwrap().1.as_ref(), b"1");
        assert_eq!(b.recv().unwrap().1.as_ref(), b"2");
        assert!(b.recv().is_none());
    }

    #[test]
    fn groups_and_broadcast() {
        let hub = InProcHub::new();
        let mut a = hub.attach(1);
        let mut b = hub.attach(2);
        let mut c = hub.attach(3);
        b.join(5);
        a.send(TransportDestination::Group(5), Bytes::from_static(b"g")).unwrap();
        assert!(b.recv().is_some());
        assert!(c.recv().is_none());
        a.send(TransportDestination::Broadcast, Bytes::from_static(b"b")).unwrap();
        assert!(b.recv().is_some());
        assert!(c.recv().is_some());
        assert!(a.recv().is_none(), "no self-delivery");
        b.leave(5);
        a.send(TransportDestination::Group(5), Bytes::from_static(b"g2")).unwrap();
        assert!(b.recv().is_none());
    }

    #[test]
    fn detach_closes_endpoint() {
        let hub = InProcHub::new();
        let mut a = hub.attach(1);
        let _b = hub.attach(2);
        hub.detach(1);
        assert_eq!(
            a.send(TransportDestination::Broadcast, Bytes::new()).unwrap_err(),
            TransportError::Closed
        );
    }

    #[test]
    fn send_to_missing_node_is_dropped_silently() {
        let hub = InProcHub::new();
        let mut a = hub.attach(1);
        a.send(TransportDestination::Node(99), Bytes::from_static(b"x")).unwrap();
    }

    #[test]
    fn mtu_override_enforced() {
        let hub = InProcHub::new();
        let mut a = hub.attach(1);
        a.set_mtu(4);
        assert!(a.send(TransportDestination::Broadcast, Bytes::from_static(b"12345")).is_err());
        assert!(a.send(TransportDestination::Broadcast, Bytes::from_static(b"1234")).is_ok());
    }
}
