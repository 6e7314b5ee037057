//! Transport over the deterministic simulated LAN.

use bytes::Bytes;

use marea_netsim::{Destination, SendError, SimNet, SimSocket};

use crate::traits::{Transport, TransportDestination, TransportError};

/// [`Transport`] implementation backed by a [`SimNet`] socket.
///
/// # Examples
///
/// ```
/// use marea_netsim::{NetConfig, SimNet};
/// use marea_transport::{SimLanTransport, Transport, TransportDestination};
///
/// let net = SimNet::new(NetConfig::default());
/// let mut a = SimLanTransport::attach(&net, 1);
/// let mut b = SimLanTransport::attach(&net, 2);
/// a.send(TransportDestination::Node(2), b"frame".as_ref().into()).unwrap();
/// net.run_until_idle();
/// assert_eq!(b.recv().unwrap().1.as_ref(), b"frame");
/// ```
#[derive(Debug)]
pub struct SimLanTransport {
    socket: SimSocket,
}

impl SimLanTransport {
    /// Attaches node `id` to the simulated network.
    pub fn attach(net: &SimNet, id: u32) -> Self {
        SimLanTransport { socket: net.socket(id) }
    }

    /// The underlying network handle (for clock/stat access in benches).
    pub fn network(&self) -> &SimNet {
        self.socket.network()
    }
}

impl Transport for SimLanTransport {
    fn local_node(&self) -> u32 {
        self.socket.node()
    }

    fn mtu(&self) -> usize {
        self.socket.mtu()
    }

    fn send(&mut self, dest: TransportDestination, frame: Bytes) -> Result<(), TransportError> {
        let dest = match dest {
            TransportDestination::Node(n) => Destination::Unicast(n),
            TransportDestination::Group(g) => Destination::Multicast(g),
            TransportDestination::Broadcast => Destination::Broadcast,
        };
        self.socket.send(dest, frame).map_err(|e| match e {
            SendError::PayloadExceedsMtu { size, mtu } => {
                TransportError::PayloadTooLarge { size, mtu }
            }
            SendError::UnknownNode(_) => TransportError::Closed,
        })
    }

    fn recv(&mut self) -> Option<(u32, Bytes)> {
        self.socket.recv()
    }

    fn join(&mut self, group: u32) {
        self.socket.join(group);
    }

    fn leave(&mut self, group: u32) {
        self.socket.leave(group);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use marea_netsim::NetConfig;

    #[test]
    fn maps_destinations() {
        let net = SimNet::new(NetConfig::default());
        let mut a = SimLanTransport::attach(&net, 1);
        let mut b = SimLanTransport::attach(&net, 2);
        let mut c = SimLanTransport::attach(&net, 3);
        b.join(9);
        a.send(TransportDestination::Group(9), Bytes::from_static(b"g")).unwrap();
        a.send(TransportDestination::Broadcast, Bytes::from_static(b"b")).unwrap();
        a.send(TransportDestination::Node(3), Bytes::from_static(b"u")).unwrap();
        net.run_until_idle();
        let b_got: Vec<_> = std::iter::from_fn(|| b.recv()).map(|(_, p)| p).collect();
        assert_eq!(b_got.len(), 2, "group + broadcast");
        let c_got: Vec<_> = std::iter::from_fn(|| c.recv()).map(|(_, p)| p).collect();
        assert_eq!(c_got.len(), 2, "broadcast + unicast");
    }

    #[test]
    fn mtu_errors_map() {
        let net = SimNet::new(NetConfig::default());
        let mut a = SimLanTransport::attach(&net, 1);
        let _b = SimLanTransport::attach(&net, 2);
        let err = a.send(TransportDestination::Node(2), Bytes::from(vec![0u8; 4000])).unwrap_err();
        assert!(matches!(err, TransportError::PayloadTooLarge { mtu: 1500, .. }));
        assert_eq!(a.mtu(), 1500);
    }

    #[test]
    fn closed_after_node_removal() {
        let net = SimNet::new(NetConfig::default());
        let mut a = SimLanTransport::attach(&net, 1);
        net.remove_node(1);
        let err = a.send(TransportDestination::Broadcast, Bytes::new()).unwrap_err();
        assert_eq!(err, TransportError::Closed);
    }
}
