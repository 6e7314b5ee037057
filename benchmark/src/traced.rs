//! A [`Transport`] wrapper that opens a span around every call into the
//! transport layer.

use bytes::Bytes;

use marea_transport::{Transport, TransportDestination, TransportError};

use crate::spans::{self, Span};

/// Wraps the transport a traced container is built on.
#[derive(Debug)]
pub struct TracedTransport<T>(pub T);

impl<T: Transport> Transport for TracedTransport<T> {
    fn local_node(&self) -> u32 {
        self.0.local_node()
    }

    fn mtu(&self) -> usize {
        self.0.mtu()
    }

    fn send(&mut self, dest: TransportDestination, frame: Bytes) -> Result<(), TransportError> {
        let _span = spans::span(Span::TransportSend, self.0.local_node());
        self.0.send(dest, frame)
    }

    fn recv(&mut self) -> Option<(u32, Bytes)> {
        let _span = spans::span(Span::TransportRecv, self.0.local_node());
        let got = self.0.recv();
        if got.is_some() {
            spans::mark_activity();
        }
        got
    }

    fn join(&mut self, group: u32) {
        self.0.join(group);
    }

    fn leave(&mut self, group: u32) {
        self.0.leave(group);
    }
}
