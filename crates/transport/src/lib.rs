//! # marea-transport — the PEPt *Transport* layer
//!
//! > *"Transport moves the resulting frames from one node in the network to
//! > another."* — paper §6
//!
//! The service container never touches sockets; it talks to a boxed
//! [`Transport`]. Three implementations ship with MAREA, all interchangeable
//! (the PEPt plugability ablation, experiment F4, swaps them under an
//! unchanged container):
//!
//! * [`SimLanTransport`] — rides a [`marea_netsim::SimNet`]; the default
//!   for tests, examples and benches because it is deterministic and
//!   supports fault injection;
//! * [`InProcTransport`] — zero-latency in-memory delivery between
//!   containers of the same process; models a single avionics box hosting
//!   several containers and is the baseline for the local-vs-remote
//!   experiment (F2);
//! * [`UdpTransport`] — real UDP sockets with a static peer table.
//!   Group/broadcast sends fan out as unicast datagrams (deployments with
//!   IP-multicast-capable switches would map groups to real multicast
//!   groups; the fan-out preserves delivery semantics at a higher wire
//!   cost, which the C2 experiment quantifies as exactly the cost the
//!   paper's multicast mapping avoids).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod inproc;
mod loan;
mod sim;
mod traits;
mod udp;

pub use inproc::{InProcHub, InProcTransport};
pub use loan::{Loan, LOAN_KEEP_BYTES};
pub use sim::SimLanTransport;
pub use traits::{Transport, TransportDestination, TransportError};
pub use udp::{UdpTransport, UdpTransportConfig};
