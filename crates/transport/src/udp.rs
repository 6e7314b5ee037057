//! Real UDP transport with a static peer table.
//!
//! Group and broadcast sends fan out as unicast datagrams to every peer in
//! the table (group membership is tracked locally from each peer's `join`
//! having been mirrored into its own transport — at this layer the sender
//! cannot know remote memberships, so groups deliver to *all* peers and the
//! container's protocol layer filters; this matches how the middleware
//! would run on a switch without IGMP snooping). On multicast-capable
//! deployments this transport would map [`TransportDestination::Group`] to
//! IP multicast groups exactly as the paper describes (§4.1); the fan-out
//! fallback preserves semantics at a measurable bandwidth cost (experiment
//! C2 quantifies precisely the saving real multicast buys back).

use std::collections::{BTreeMap, HashMap};
use std::io::ErrorKind;
use std::net::{SocketAddr, UdpSocket};

use bytes::Bytes;

use crate::loan::Loan;
use crate::traits::{Transport, TransportDestination, TransportError};

/// Configuration for a [`UdpTransport`].
#[derive(Debug, Clone)]
pub struct UdpTransportConfig {
    /// This node's id.
    pub node: u32,
    /// Address to bind (e.g. `127.0.0.1:0`).
    pub bind: SocketAddr,
    /// Known peers: node id → address.
    pub peers: BTreeMap<u32, SocketAddr>,
    /// Advertised MTU (UDP datagrams up to this size are sent unfragmented).
    pub mtu: usize,
}

impl UdpTransportConfig {
    /// Creates a config with no peers yet.
    ///
    /// # Panics
    ///
    /// Panics if `bind` is not a parseable socket address.
    pub fn new(node: u32, bind: &str) -> Self {
        UdpTransportConfig {
            node,
            bind: bind.parse().expect("valid bind address"),
            peers: BTreeMap::new(),
            mtu: 1400,
        }
    }

    /// Adds a peer (builder style).
    #[must_use]
    pub fn with_peer(mut self, node: u32, addr: SocketAddr) -> Self {
        self.peers.insert(node, addr);
        self
    }
}

/// [`Transport`] over a non-blocking [`UdpSocket`].
#[derive(Debug)]
pub struct UdpTransport {
    node: u32,
    socket: UdpSocket,
    /// Ordered: a group or broadcast send walks the peers in node order,
    /// the same from run to run.
    peers: BTreeMap<u32, SocketAddr>,
    addr_to_node: HashMap<SocketAddr, u32>,
    mtu: usize,
    buf: Vec<u8>,
    /// The datagram `recv` returned last: the next one is copied into its
    /// storage once every reader has dropped it.
    loan: Loan,
}

impl UdpTransport {
    /// Binds the socket and builds the transport.
    ///
    /// # Errors
    ///
    /// [`TransportError::Io`] when binding fails.
    pub fn bind(config: UdpTransportConfig) -> Result<Self, TransportError> {
        let socket = UdpSocket::bind(config.bind).map_err(|e| TransportError::Io(e.to_string()))?;
        socket.set_nonblocking(true).map_err(|e| TransportError::Io(e.to_string()))?;
        let addr_to_node = config.peers.iter().map(|(n, a)| (*a, *n)).collect();
        Ok(UdpTransport {
            node: config.node,
            socket,
            peers: config.peers,
            addr_to_node,
            mtu: config.mtu,
            buf: vec![0u8; 64 * 1024],
            loan: Loan::default(),
        })
    }

    /// The locally bound address (for building peer tables in tests).
    ///
    /// # Errors
    ///
    /// [`TransportError::Io`] if the OS cannot report the address.
    pub fn local_addr(&self) -> Result<SocketAddr, TransportError> {
        self.socket.local_addr().map_err(|e| TransportError::Io(e.to_string()))
    }

    /// Adds or replaces a peer at runtime.
    pub fn add_peer(&mut self, node: u32, addr: SocketAddr) {
        self.peers.insert(node, addr);
        self.addr_to_node.insert(addr, node);
    }
}

impl Transport for UdpTransport {
    fn local_node(&self) -> u32 {
        self.node
    }

    fn mtu(&self) -> usize {
        self.mtu
    }

    fn send(&mut self, dest: TransportDestination, datagram: Bytes) -> Result<(), TransportError> {
        if datagram.len() > self.mtu {
            return Err(TransportError::PayloadTooLarge { size: datagram.len(), mtu: self.mtu });
        }
        let socket = &self.socket;
        let send_to = |addr: &SocketAddr| {
            socket.send_to(&datagram, addr).map(drop).map_err(|e| TransportError::Io(e.to_string()))
        };
        match dest {
            TransportDestination::Node(n) => {
                send_to(self.peers.get(&n).ok_or(TransportError::UnknownDestination(n))?)
            }
            // Every peer is attempted, in node order: one unsendable peer
            // must not starve the ones behind it. The first error is still
            // the caller's to see.
            TransportDestination::Group(_) | TransportDestination::Broadcast => {
                self.peers.values().map(send_to).fold(Ok(()), Result::and)
            }
        }
    }

    fn recv(&mut self) -> Option<(u32, Bytes)> {
        match self.socket.recv_from(&mut self.buf) {
            Ok((n, from)) => {
                // Unknown senders are accepted with a synthetic id of
                // u32::MAX; the protocol layer reads the true node id from
                // the frame header anyway.
                let node = self.addr_to_node.get(&from).copied().unwrap_or(u32::MAX);
                let mut datagram = self.loan.reclaim();
                datagram.extend_from_slice(&self.buf[..n]);
                Some((node, self.loan.keep(datagram)))
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => None,
            Err(_) => None,
        }
    }

    fn loan_bytes(&self) -> usize {
        self.loan.bytes()
    }

    fn join(&mut self, _group: u32) {
        // Fan-out emulation: membership is implicit (all peers).
    }

    fn leave(&mut self, _group: u32) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LOAN_KEEP_BYTES;
    use std::time::{Duration, Instant};

    fn recv_within(t: &mut UdpTransport, timeout: Duration) -> Option<(u32, Bytes)> {
        let deadline = Instant::now() + timeout;
        while Instant::now() < deadline {
            if let Some(x) = t.recv() {
                return Some(x);
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        None
    }

    #[test]
    fn unicast_roundtrip_over_loopback() {
        let mut a = UdpTransport::bind(UdpTransportConfig::new(1, "127.0.0.1:0")).unwrap();
        let mut b = UdpTransport::bind(UdpTransportConfig::new(2, "127.0.0.1:0")).unwrap();
        let addr_a = a.local_addr().unwrap();
        let addr_b = b.local_addr().unwrap();
        a.add_peer(2, addr_b);
        b.add_peer(1, addr_a);

        a.send(TransportDestination::Node(2), Bytes::from_static(b"frame")).unwrap();
        let (src, payload) = recv_within(&mut b, Duration::from_secs(2)).expect("delivery");
        assert_eq!(src, 1);
        assert_eq!(payload.as_ref(), b"frame");
    }

    #[test]
    fn broadcast_fans_out() {
        let mut a = UdpTransport::bind(UdpTransportConfig::new(1, "127.0.0.1:0")).unwrap();
        let mut b = UdpTransport::bind(UdpTransportConfig::new(2, "127.0.0.1:0")).unwrap();
        let mut c = UdpTransport::bind(UdpTransportConfig::new(3, "127.0.0.1:0")).unwrap();
        a.add_peer(2, b.local_addr().unwrap());
        a.add_peer(3, c.local_addr().unwrap());
        a.send(TransportDestination::Broadcast, Bytes::from_static(b"all")).unwrap();
        assert!(recv_within(&mut b, Duration::from_secs(2)).is_some());
        assert!(recv_within(&mut c, Duration::from_secs(2)).is_some());
    }

    /// A peer the socket cannot send to — an IPv6 address in an IPv4
    /// socket's table — ordered before a live one: the live one still gets
    /// the datagram, and the caller still gets the error.
    #[test]
    fn broadcast_reaches_every_peer_behind_an_unsendable_one() {
        let mut a = UdpTransport::bind(UdpTransportConfig::new(1, "127.0.0.1:0")).unwrap();
        let mut live = UdpTransport::bind(UdpTransportConfig::new(3, "127.0.0.1:0")).unwrap();
        a.add_peer(2, "[::1]:9".parse().unwrap());
        a.add_peer(3, live.local_addr().unwrap());
        for dest in [TransportDestination::Broadcast, TransportDestination::Group(4)] {
            let sent = a.send(dest, Bytes::from_static(b"all"));
            assert!(matches!(sent, Err(TransportError::Io(_))), "{dest:?}: {sent:?}");
            let (_, payload) = recv_within(&mut live, Duration::from_secs(2)).expect("delivery");
            assert_eq!(payload.as_ref(), b"all", "{dest:?}");
        }
    }

    fn pair() -> (UdpTransport, UdpTransport) {
        let mut a = UdpTransport::bind(UdpTransportConfig::new(1, "127.0.0.1:0")).unwrap();
        let b = UdpTransport::bind(UdpTransportConfig::new(2, "127.0.0.1:0")).unwrap();
        a.add_peer(2, b.local_addr().unwrap());
        (a, b)
    }

    /// A dropped datagram's storage takes the next one; one still held is
    /// never written, however many follow it.
    #[test]
    fn recv_reuses_a_returned_datagram_and_never_a_held_one() {
        let (mut a, mut b) = pair();
        let mut next = |i: u8| {
            a.send(TransportDestination::Node(2), Bytes::from(vec![i; 300])).unwrap();
            recv_within(&mut b, Duration::from_secs(2)).expect("delivery").1
        };
        let first = next(1);
        let storage = first.as_ptr();
        drop(first);
        let second = next(2);
        assert_eq!(second.as_ptr(), storage, "a returned datagram's storage was not reused");
        let held = second.slice(10..20);
        drop(second);
        for i in 0..100 {
            let other = next(100 + i);
            assert_ne!(other.as_ptr(), storage, "a held datagram was written over");
        }
        assert_eq!(held.as_ref(), &[2u8; 10]);
        assert!(b.loan_bytes() > 0 && b.loan_bytes() <= LOAN_KEEP_BYTES, "{}", b.loan_bytes());
    }

    /// A datagram larger than the cap — here 60 KiB from a socket that is
    /// no peer — is handed on and not kept.
    #[test]
    fn a_large_datagram_is_not_kept() {
        let (_, mut b) = pair();
        let raw = UdpSocket::bind("127.0.0.1:0").unwrap();
        raw.send_to(&vec![0x5A; 60 * 1024], b.local_addr().unwrap()).unwrap();
        let (node, big) = recv_within(&mut b, Duration::from_secs(2)).expect("delivery");
        assert_eq!((node, big.len()), (u32::MAX, 60 * 1024));
        drop(big);
        assert_eq!(b.loan_bytes(), 0, "a 60 KiB buffer was kept");
    }

    #[test]
    fn unknown_destination_errors() {
        let mut a = UdpTransport::bind(UdpTransportConfig::new(1, "127.0.0.1:0")).unwrap();
        assert_eq!(
            a.send(TransportDestination::Node(9), Bytes::new()).unwrap_err(),
            TransportError::UnknownDestination(9)
        );
    }

    #[test]
    fn mtu_enforced() {
        let mut a = UdpTransport::bind(UdpTransportConfig::new(1, "127.0.0.1:0")).unwrap();
        let err =
            a.send(TransportDestination::Broadcast, Bytes::from(vec![0u8; 5000])).unwrap_err();
        assert!(matches!(err, TransportError::PayloadTooLarge { .. }));
    }
}
