//! # marea-core — the MAREA service container and communication primitives
//!
//! This crate is the reproduction of the paper's primary contribution
//! (López et al., *A Middleware Architecture for Unmanned Aircraft
//! Avionics*, Middleware 2007): a per-node **service container** that hosts
//! *services* and gives them exactly four communication primitives —
//!
//! * **variables** — best-effort periodic pub/sub with validity and
//!   guaranteed-initial-value QoS (§4.1);
//! * **events** — reliable pub/sub over an application-layer ARQ (§4.2);
//! * **remote invocation** — point-to-point calls with static/dynamic
//!   provider binding, load balancing and transparent failover (§4.3);
//! * **file transmission** — MFTP-style reliable multicast bulk transfer
//!   with revisions, late join and a same-node bypass (§4.4);
//!
//! plus the container duties of §3: *service management* (lifecycle, panic
//! watchdog, status broadcasting), *name management* (the
//! [`Directory`] proxy cache with failure invalidation), *network
//! management* (services never touch the transport) and *resource
//! management* (bounded per-tick execution budgets, bounded queues).
//!
//! Services implement the [`Service`] trait and interact only through
//! [`ServiceContext`]; the container is driven by
//! [`ServiceContainer::tick`] from either the deterministic
//! [`SimHarness`] or the wall-clock [`RealtimeDriver`].
//!
//! Declarations and interactions are **typed**: the descriptor builder
//! derives each provision's wire schema from a Rust type and returns a
//! *port* ([`VarPort`], [`EventPort`], [`FnPort`]) that the service stores
//! and publishes/emits/calls through — a payload that disagrees with the
//! declared schema is a compile error, not a runtime drop. Every
//! declaration also carries its **QoS contract** as a typed profile
//! ([`VarQos`], [`EventQos`], [`CallOptions`]); the [`qos`] module
//! documents what each field makes the container enforce.
//!
//! ## Quickstart
//!
//! ```
//! use marea_core::{
//!     ContainerConfig, Service, ServiceContext, ServiceDescriptor, SimHarness, VarPort, VarQos,
//! };
//! use marea_netsim::NetConfig;
//! use marea_protocol::{NodeId, ProtoDuration};
//!
//! struct Beacon {
//!     count: VarPort<u64>,
//! }
//!
//! impl Beacon {
//!     fn new() -> Self {
//!         // Ports are plain data; build them once and share them with
//!         // the descriptor.
//!         Beacon { count: VarPort::new("beacon/count") }
//!     }
//! }
//!
//! impl Service for Beacon {
//!     fn descriptor(&self) -> ServiceDescriptor {
//!         ServiceDescriptor::builder("beacon")
//!             .provides_var(&self.count, VarQos::periodic(
//!                 ProtoDuration::from_millis(10), ProtoDuration::from_millis(100)))
//!             .build()
//!     }
//!     fn on_start(&mut self, ctx: &mut ServiceContext<'_>) {
//!         ctx.set_timer(ProtoDuration::from_millis(10), Some(ProtoDuration::from_millis(10)));
//!     }
//!     fn on_timer(&mut self, ctx: &mut ServiceContext<'_>, _id: marea_core::TimerId) {
//!         // `publish_to` only accepts u64 — the port's declared schema.
//!         ctx.publish_to(&self.count, ctx.now().as_micros());
//!     }
//! }
//!
//! let mut h = SimHarness::new(NetConfig::default());
//! h.add_container(ContainerConfig::new("node-a", NodeId(1)));
//! h.add_service(NodeId(1), Box::new(Beacon::new()));
//! h.start_all();
//! h.run_for_millis(100);
//! let stats = h.container(NodeId(1)).unwrap().stats();
//! assert!(stats.vars_published >= 5);
//! assert_eq!(stats.type_mismatches.total(), 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clock;
mod container;
mod directory;
mod engines;
mod error;
mod gossip;
mod harness;
mod link;
pub mod metrics;
mod outbox;
mod ports;
pub mod qos;
pub mod scenario;
mod scheduler;
mod service;
mod stats;
mod timers;
pub mod trace;

pub use clock::SystemClock;
pub use container::{
    loan_cap_bytes, ContainerConfig, ServiceContainer, VarDistribution, SCRATCH_CAP_BYTES,
};
pub use directory::{BeaconOutcome, Directory, NodeInfo, ProviderInfo};
pub use error::{CallError, ContainerError};
pub use harness::{RealtimeDriver, SimHarness};
pub use link::{LinkEvents, ReliableLink};
pub use metrics::{LinkFrame, MetricsConfig, MetricsFrame, MetricsSampler};
pub use ports::{EventPort, FnPort, TypedCallHandle, VarPort};
pub use qos::{CallOptions, DropPolicy, EventQos, QosError, VarQos};
pub use scheduler::{
    FifoScheduler, Priority, PriorityScheduler, Scheduler, SchedulerKind, Task, TaskPayload,
};
pub use service::{
    CallHandle, CallPolicy, EventSubscription, FileEvent, ProviderNotice, Service, ServiceContext,
    ServiceDescriptor, ServiceDescriptorBuilder, TimerId, VarSubscription,
};
pub use stats::{
    ContainerStats, EventSubscriptionStats, FecStats, LatencySummary, Occupancy, QosStats, Stat,
    TypeMismatchStats, VarChannelView, VarSubscriptionStats,
};
pub use trace::{LatencyHistogram, TraceEvent, TraceId, TraceKind, TraceRing};

// Re-exports that appear in this crate's public API, for downstream
// convenience.
pub use marea_presentation::{
    ArgsCodec, ArgsSchema, EventPayload, FnRet, FromArgs, FromValue, HasDataType, IntoArgs,
    IntoValue, TypeMismatch, ValueCodec,
};
pub use marea_protocol::messages::{FunctionSig, Provision, ServiceState};
pub use marea_protocol::{Micros, NodeId, ProtoDuration, RequestId, ServiceId};
