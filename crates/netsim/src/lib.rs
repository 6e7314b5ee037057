//! # marea-netsim — deterministic avionics LAN simulator
//!
//! The paper's system ran on "low-cost computing devices connected by
//! network" — PC104-class boards on Ethernet, with UDP unicast/multicast and
//! TCP. This crate substitutes that hardware with a **discrete-event
//! simulated LAN** so the whole middleware runs deterministically on one
//! machine:
//!
//! * per-link latency, jitter, packet loss, bandwidth and MTU
//!   ([`LinkConfig`]);
//! * unicast, multicast groups and broadcast ([`Destination`]);
//! * a virtual clock ([`SimNet::now_us`]) advanced by event delivery
//!   ([`SimNet::step`]) or explicitly ([`SimNet::advance_to`]);
//! * per-packet accounting ([`NetStats`]) — the bandwidth experiments (C2,
//!   C4) read these counters;
//! * network fault injection: partitions and runtime-adjustable links.
//!
//! Determinism: all randomness (loss, jitter) comes from one seeded PRNG,
//! and simultaneous deliveries are tie-broken by enqueue order, so a given
//! seed always produces the identical packet trace.
//!
//! ## Example
//!
//! ```
//! use marea_netsim::{Destination, LinkConfig, NetConfig, SimNet};
//!
//! let net = SimNet::new(NetConfig::default().with_seed(7));
//! let a = net.socket(1);
//! let b = net.socket(2);
//! b.join(9);
//! a.send(Destination::Multicast(9), b"hello".as_ref().into()).unwrap();
//! net.run_until_idle();
//! let (src, payload) = b.recv().unwrap();
//! assert_eq!(src, 1);
//! assert_eq!(payload.as_ref(), b"hello");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod sim;
mod stats;

pub use config::{LinkConfig, NetConfig};
pub use sim::{Destination, SendError, SimNet, SimSocket};
pub use stats::{LinkObserved, NetStats, NodeStats};
