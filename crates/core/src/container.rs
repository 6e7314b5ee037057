//! The service container: one per node, the paper's core artifact (§3).
//!
//! The container is a deterministic state machine driven by
//! [`ServiceContainer::tick`]. Within a tick it:
//!
//! 1. pumps the transport and interprets every frame (discovery, samples,
//!    reliable-channel envelopes, file transfer traffic);
//! 2. runs failure detection (silence timeouts ⇒ purge the name cache,
//!    re-resolve subscriptions, fail over pending calls);
//! 3. maintains subscriptions against the directory (name management);
//! 4. fires timers and variable-loss deadlines;
//! 5. polls the reliable links (retransmissions) and pumps file transfers;
//! 6. emits the beacon, behind any announcement it owes;
//! 7. executes queued handler invocations through the pluggable scheduler,
//!    bounded by a per-tick budget, applying the effects services queue.
//!
//! The container itself is wiring. State lives in owned components — the
//! [`Directory`], the link table, the gossip cadences, the timers and one
//! engine per primitive — each of which decides over its own fields and
//! answers `next_due()` from them. What is left here is what crosses
//! components: frame dispatch, scheduler pushes, transport sends, tracer
//! records and the service slots.
//!
//! Services never see any of this machinery — only their
//! [`ServiceContext`](crate::ServiceContext).

use std::borrow::Borrow;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};

use bytes::{Bytes, BytesMut};

use marea_encoding::{CodecId, CodecRegistry};
use marea_presentation::{Name, Value};
use marea_protocol::fragment::Reassembler;
use marea_protocol::messages::{announce_hash, AnnounceEntry, CallStatus, ServiceState};
use marea_protocol::{
    frames, FecRate, GroupId, Message, MessageKind, Micros, NodeId, ProtoDuration, RequestId,
    ServiceId, LOAN_KEEP_BYTES,
};
use marea_transport::{Transport, TransportDestination};

use crate::directory::{BeaconOutcome, Directory};
use crate::engines::events::{Admission, EventEngine};
use crate::engines::files::{file_group, FileEngine, Heard};
use crate::engines::rpc::{PendingCall, RpcEngine};
use crate::engines::vars::{var_group, SampleDrop, VarEngine};
use crate::engines::Rebind;
use crate::error::{CallError, ContainerError};
use crate::gossip::Gossip;
use crate::link::{LinkEvents, LinkTable, Received};
use crate::outbox::Outbox;
use crate::qos::CallOptions;
use crate::scheduler::{Priority, Scheduler, SchedulerKind, Task, TaskPayload};
use crate::service::{
    CallHandle, Effect, FileEvent, ProviderNotice, Service, ServiceContext, ServiceDescriptor,
};
use crate::stats::{ContainerStats, EventSubscriptionStats, Occupancy, VarSubscriptionStats};
use crate::timers::Timers;
use crate::trace::{TraceId, TraceKind, TraceRing, Tracer};

/// Container log ring capacity.
const LOG_CAPACITY: usize = 1024;

/// Providers tried before a call fails, unless the caller's
/// [`CallOptions::retry_budget`] says otherwise.
const DEFAULT_CALL_ATTEMPTS: u32 = 3;

/// Reply deadline of one call attempt (800 ms), unless the caller's
/// [`CallOptions::deadline`] says otherwise.
const DEFAULT_CALL_TIMEOUT: ProtoDuration = ProtoDuration(800_000);

/// Most bytes each scratch vector keeps between uses, and the tagged-encode
/// buffer keeps of its own: what a one-off burst or large message grew past
/// that is given back, so a container retains at most
/// [`SCRATCH_CAP_BYTES`] of scratch.
const SCRATCH_KEEP_BYTES: usize = 384;
const TAGGED_KEEP_BYTES: usize = 1024;

/// Bound on [`Occupancy::scratch_bytes`] whenever the container is not
/// inside a call: eight vectors and the tagged-encode buffer.
pub const SCRATCH_CAP_BYTES: usize = 8 * SCRATCH_KEEP_BYTES + TAGGED_KEEP_BYTES;

/// Bound on [`Occupancy::loan_bytes`] of a container with `links` reliable
/// links: the outbox's loan, the transport's and one spare envelope per
/// link, each at most [`LOAN_KEEP_BYTES`].
pub const fn loan_cap_bytes(links: usize) -> usize {
    (2 + links) * LOAN_KEEP_BYTES
}

// One cap for every loan, on both sides of the protocol/transport boundary.
const _: () = assert!(LOAN_KEEP_BYTES == marea_transport::LOAN_KEEP_BYTES);

/// Where discovery, liveness and lifecycle traffic goes.
const CONTROL: TransportDestination = TransportDestination::Group(GroupId::CONTROL.0);

/// How variable samples reach remote subscribers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VarDistribution {
    /// One multicast datagram per sample (the paper's §4.1 mapping:
    /// "allows optimizing the bandwidth use because one packet sent can
    /// arrive to multiple nodes").
    #[default]
    Multicast,
    /// One unicast datagram per remote subscriber — the baseline the C2
    /// experiment compares against.
    UnicastFanout,
}

/// Static configuration of a container.
#[derive(Debug, Clone)]
pub struct ContainerConfig {
    /// Container name (appears in `Hello`).
    pub name: Name,
    /// This node's id.
    pub node: NodeId,
    /// Beacon period, the only periodic control cadence: alive, load, FEC
    /// capability and catalogue digest in one frame, behind the full
    /// catalogue when that changed since the last beacon.
    pub heartbeat_period: ProtoDuration,
    /// Debounce window of forced full-catalogue re-announcements: a burst
    /// of `Hello`s draws one `Announce` at once and one more when it
    /// closes. Nothing is announced *every* such period.
    pub announce_period: ProtoDuration,
    /// Silence after which a peer node is declared dead.
    pub node_timeout: ProtoDuration,
    /// Scheduler policy.
    pub scheduler: SchedulerKind,
    /// Maximum handler invocations per tick (soft real-time budget).
    pub tick_budget: usize,
    /// Strongest forward-error-correction rate this node runs below the
    /// reliable channel, advertised in `Hello` and beacons: each link runs
    /// the weaker of the two ends' caps, and [`FecRate::Off`] means plain
    /// ARQ.
    pub fec_cap: FecRate,
    /// Variable sample distribution mode.
    pub var_distribution: VarDistribution,
    /// Payload codec for application data.
    pub codec: CodecId,
    /// Flight-recorder ring capacity in events (DESIGN.md §8); zero turns
    /// the recorder off.
    pub trace_capacity: usize,
}

impl ContainerConfig {
    /// Sensible defaults for a LAN avionics node.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not a valid [`Name`] literal.
    pub fn new(name: &str, node: NodeId) -> Self {
        ContainerConfig {
            // marea-lint: allow(R1): construction-time check of a code literal (documented "# Panics"); never runs on the tick path
            name: Name::new(name).expect("container name must be a valid name literal"),
            node,
            heartbeat_period: ProtoDuration::from_millis(500),
            announce_period: ProtoDuration::from_secs(2),
            node_timeout: ProtoDuration::from_secs(2),
            scheduler: SchedulerKind::Priority,
            tick_budget: 256,
            fec_cap: FecRate::Max,
            var_distribution: VarDistribution::Multicast,
            codec: CodecId::COMPACT,
            // The log ring's size: a few seconds of busy traffic.
            trace_capacity: 1024,
        }
    }
}

#[derive(Debug)]
struct ServiceSlot {
    seq: u32,
    service: Option<Box<dyn Service>>,
    descriptor: ServiceDescriptor,
    state: ServiceState,
}

impl ServiceSlot {
    /// The service can be handed work: available, or still starting (its
    /// `on_start` is queued ahead of anything admitted now).
    fn accepts_work(&self) -> bool {
        self.state.is_available() || self.state == ServiceState::Starting
    }
}

/// The handler queue: the pluggable scheduler plus the admission counter
/// that keeps it FIFO within a priority.
#[derive(Debug)]
struct TaskQueue {
    scheduler: Box<dyn Scheduler>,
    next_seq: u64,
}

impl TaskQueue {
    fn push(&mut self, priority: Priority, service_seq: u32, payload: TaskPayload) {
        self.next_seq += 1;
        self.scheduler.push(Task { priority, enqueued_seq: self.next_seq, service_seq, payload });
    }

    /// Queues one `payload(parts)` per service, in the order given: the
    /// last service's task gets `parts` itself, every other one a clone.
    fn fan_out<T: Clone>(
        &mut self,
        priority: Priority,
        services: impl IntoIterator<Item = impl Borrow<u32>>,
        parts: T,
        payload: impl Fn(T) -> TaskPayload,
    ) {
        let mut services = services.into_iter();
        let Some(mut svc) = services.next() else { return };
        for next in services {
            self.push(priority, *svc.borrow(), payload(parts.clone()));
            svc = next;
        }
        self.push(priority, *svc.borrow(), payload(parts));
    }
}

/// Buffers the tick path fills and empties again, kept across ticks so
/// the steady state allocates none of them. Each is taken (or borrowed)
/// where it is filled and handed back through [`recycle`].
#[derive(Debug, Default)]
struct Scratch {
    /// Tagged encoding of the reliable message being sent.
    tagged: BytesMut,
    /// Effects of the handler that just ran.
    effects: Vec<Effect>,
    /// Remote subscribers of the event or variable being published.
    remote: Vec<NodeId>,
    /// Tagged messages one `FecShard` carried or rebuilt. Not the buffer
    /// below: a shard releases a `RelData` that releases inner messages,
    /// so the two are in use at once.
    shard_inner: Vec<Bytes>,
    /// Inner messages one `RelData` released, in order.
    released: Vec<Bytes>,
    /// What the link operation under way observed.
    link_events: LinkEvents,
}

impl Scratch {
    fn retained_bytes(&self) -> usize {
        fn of<T>(buf: &Vec<T>) -> usize {
            buf.capacity() * std::mem::size_of::<T>()
        }
        let events = &self.link_events;
        self.tagged.capacity()
            + of(&self.effects)
            + of(&self.remote)
            + of(&self.shard_inner)
            + of(&self.released)
            + of(&events.retransmitted)
            + of(&events.abandoned)
            + of(&events.recovered_us)
    }
}

/// Empties a scratch vector for its next use, giving back what it grew
/// past [`SCRATCH_KEEP_BYTES`].
fn recycle<T>(buf: &mut Vec<T>) {
    buf.clear();
    let keep = SCRATCH_KEEP_BYTES / std::mem::size_of::<T>().max(1);
    if buf.capacity() > keep {
        buf.shrink_to(keep);
    }
}

/// What `execute_task` still needs of a payload once its handler has run:
/// the variant, the fields its accounting records — the payload's own
/// name, moved on after the handler borrowed it — and a call's result.
enum Ran {
    Start,
    Stop,
    Variable {
        name: Name,
        stamp: Micros,
        seq: u64,
        trace: TraceId,
    },
    Event {
        name: Name,
        stamp: Micros,
        seq: u64,
        trace: TraceId,
    },
    Call {
        request: RequestId,
        caller: NodeId,
        function: Name,
        trace: TraceId,
        result: Result<Value, String>,
    },
    FileBypass,
    Other,
}

/// Which pub/sub primitive a subscription-maintenance pass re-resolves.
#[derive(Debug, Clone, Copy)]
enum Channel {
    Variable,
    Event,
}

impl Channel {
    fn notice(self, name: &Name, available: bool) -> ProviderNotice {
        let name = name.clone();
        match (self, available) {
            (Channel::Variable, true) => ProviderNotice::VariableAvailable(name),
            (Channel::Variable, false) => ProviderNotice::VariableUnavailable(name),
            (Channel::Event, true) => ProviderNotice::EventAvailable(name),
            (Channel::Event, false) => ProviderNotice::EventUnavailable(name),
        }
    }
}

/// The per-node service container (paper §3).
///
/// See the crate-level docs for a complete walk-through; the
/// [`SimHarness`](crate::SimHarness) shows the intended driving pattern.
#[derive(Debug)]
pub struct ServiceContainer {
    config: ContainerConfig,
    transport: Box<dyn Transport>,
    /// Frames staged since the last [`flush`](Self::flush); empty between
    /// the public `&mut self` calls.
    outbox: Outbox,
    scratch: Scratch,
    codecs: CodecRegistry,
    slots: Vec<ServiceSlot>,
    directory: Directory,
    tasks: TaskQueue,
    links: LinkTable,
    gossip: Gossip,
    timers: Timers,
    vars: VarEngine,
    events: EventEngine,
    rpc: RpcEngine,
    files: FileEngine,
    reassembler: Reassembler,
    next_request_id: u64,
    incarnation: u64,
    running: bool,
    /// Directory or subscription state changed since the last maintenance
    /// sweep. Plain beacons do not set this — a liveness refresh
    /// changes no name resolution — which keeps the sweep off the
    /// per-tick path at fleet scale.
    subs_dirty: bool,
    /// The scheduler load last written into this node's own directory
    /// record (the record `resolve_function` balances on).
    advertised_load: u16,
    stats: ContainerStats,
    log: VecDeque<(Micros, String)>,
    tracer: Tracer,
}

impl ServiceContainer {
    /// Creates a container over a transport. Call
    /// [`ServiceContainer::start`] once services are registered.
    pub fn new(config: ContainerConfig, transport: Box<dyn Transport>) -> Self {
        let mut codecs = CodecRegistry::new();
        codecs.set_default(config.codec);
        ServiceContainer {
            tasks: TaskQueue { scheduler: config.scheduler.build(), next_seq: 0 },
            codecs,
            transport,
            outbox: Outbox::new(config.node),
            scratch: Scratch::default(),
            slots: Vec::new(),
            directory: Directory::for_node(config.node),
            links: LinkTable::new(config.fec_cap),
            gossip: Gossip::new(config.heartbeat_period, config.announce_period),
            timers: Timers::default(),
            vars: VarEngine::default(),
            events: EventEngine::default(),
            rpc: RpcEngine::default(),
            files: FileEngine::new(config.node),
            reassembler: Reassembler::new(ProtoDuration::from_secs(5)),
            next_request_id: 0,
            incarnation: 1,
            running: false,
            subs_dirty: true,
            advertised_load: 0,
            stats: ContainerStats::default(),
            log: VecDeque::new(),
            tracer: Tracer::new(config.node, config.trace_capacity),
            config,
        }
    }

    /// This container's node id.
    pub fn node(&self) -> NodeId {
        self.config.node
    }

    /// This container's name.
    pub fn name(&self) -> &Name {
        &self.config.name
    }

    /// This container's incarnation (restart counter carried in `Hello`
    /// and beacons; peers purge cached provisions from older lives).
    pub fn incarnation(&self) -> u64 {
        self.incarnation
    }

    /// Sets the incarnation a restarted container announces itself with.
    /// Must exceed the previous life's incarnation or peers will discard
    /// the new announcements as stale.
    ///
    /// # Panics
    ///
    /// Panics if the container is already running — the incarnation is
    /// part of the identity the `Hello` broadcast establishes.
    pub fn set_incarnation(&mut self, incarnation: u64) {
        assert!(!self.running, "incarnation must be set before start");
        self.incarnation = incarnation;
        self.tracer.set_incarnation(incarnation);
    }

    /// Counter snapshot: the container's own counters plus the ones each
    /// component keeps for itself (mismatches and QoS on the engines, FEC
    /// on the link table, latency histograms on the tracer).
    pub fn stats(&self) -> ContainerStats {
        let mut stats = self.stats;
        self.vars.fill_stats(&mut stats);
        self.events.fill_stats(&mut stats);
        self.rpc.fill_stats(&mut stats);
        self.files.fill_stats(&mut stats);
        self.outbox.fill_stats(&mut stats);
        stats.fec = self.links.fec_stats();
        stats.publish_to_deliver = self.tracer.publish_to_deliver;
        stats.event_to_deliver = self.tracer.event_to_deliver;
        stats.call_rtt = self.tracer.call_rtt;
        stats.rto_recovery = self.tracer.rto_recovery;
        stats
    }

    /// Gauge snapshot: how full each bounded table is right now.
    pub fn occupancy(&self) -> Occupancy {
        let mut occupancy = Occupancy {
            directory_nodes: self.directory.node_count(),
            directory_provisions: self.directory.provision_count(),
            links: self.links.len(),
            active_links: self.links.active_len(),
            pending_calls: self.rpc.pending_count(),
            reassembling: self.reassembler.pending_count(),
            timers: self.timers.len(),
            queued_tasks: self.tasks.scheduler.len(),
            scratch_bytes: self.scratch.retained_bytes(),
            loan_bytes: self.outbox.loan_bytes()
                + self.transport.loan_bytes()
                + self.links.spare_bytes(),
            ..Occupancy::default()
        };
        self.vars.fill_occupancy(&mut occupancy);
        self.events.fill_occupancy(&mut occupancy);
        self.files.fill_occupancy(&mut occupancy);
        occupancy
    }

    /// The flight-recorder ring of this life (oldest first; sized by
    /// [`ContainerConfig::trace_capacity`]).
    pub fn trace_ring(&self) -> &TraceRing {
        self.tracer.ring()
    }

    /// Drains the flight recorder, leaving an empty ring behind — the
    /// harness calls this when it crashes a node so the black box
    /// survives the container teardown.
    pub fn take_trace_ring(&mut self) -> TraceRing {
        self.tracer.take_ring()
    }

    /// Seeds the ring with events recorded by a previous life of this
    /// node (harness restart path), preserving ring-capacity bounds.
    pub fn adopt_trace_ring(&mut self, older: TraceRing) {
        self.tracer.adopt_ring(older);
    }

    /// QoS counters of a subscribed variable (the channel state shared by
    /// this container's local subscribers of that name).
    pub fn var_qos_stats(&self, name: &str) -> Option<VarSubscriptionStats> {
        self.vars.qos_stats(&Name::new(name).ok()?)
    }

    /// QoS counters of a subscribed event channel (summed over this
    /// container's local subscribers of that name).
    pub fn event_qos_stats(&self, name: &str) -> Option<EventSubscriptionStats> {
        self.events.qos_stats(&Name::new(name).ok()?)
    }

    /// Transparent re-dispatches performed for calls to `name`.
    pub fn fn_retries(&self, name: &str) -> u64 {
        Name::new(name).map_or(0, |n| self.rpc.retries_of(&n))
    }

    /// Freshness snapshot of every subscribed variable channel, in name
    /// order — the observability surface the chaos invariants check
    /// (a bound channel must either deliver within its validity window or
    /// raise the timeout warning; silent staleness is a middleware bug).
    pub fn var_channels(&self) -> Vec<(Name, crate::stats::VarChannelView)> {
        self.vars.channels()
    }

    /// The name directory (read access for tests/tools).
    pub fn directory(&self) -> &Directory {
        &self.directory
    }

    /// Queued handler invocations.
    pub fn scheduler_len(&self) -> usize {
        self.tasks.scheduler.len()
    }

    /// `true` between `start` and `stop`.
    pub fn is_running(&self) -> bool {
        self.running
    }

    /// Aggregated ARQ statistics over all reliable links, alive or dropped
    /// with their peer: monotone over the container's life.
    pub fn arq_stats(&self) -> marea_protocol::arq::ArqStats {
        self.links.arq_stats()
    }

    /// Recent container log lines (oldest first).
    pub fn log_lines(&self) -> impl Iterator<Item = &(Micros, String)> {
        self.log.iter()
    }

    /// Lifecycle state of a hosted service.
    pub fn service_state(&self, name: &str) -> Option<ServiceState> {
        self.slots.iter().find(|s| s.descriptor.name() == name).map(|s| s.state)
    }

    /// Registers a service; returns its instance id.
    ///
    /// # Errors
    ///
    /// [`ContainerError::DuplicateService`] /
    /// [`ContainerError::DuplicateProvision`] when names collide locally.
    pub fn add_service(&mut self, service: Box<dyn Service>) -> Result<ServiceId, ContainerError> {
        let descriptor = service.descriptor();
        if self.slots.iter().any(|s| s.descriptor.name() == descriptor.name().as_str()) {
            return Err(ContainerError::DuplicateService(descriptor.name().clone()));
        }
        for p in descriptor.provides() {
            let name = p.name();
            let taken =
                self.slots.iter().any(|s| s.descriptor.find_provision(name.as_str()).is_some());
            if taken {
                return Err(ContainerError::DuplicateProvision(name.clone()));
            }
        }
        let seq = self.slots.len() as u32 + 1;
        self.vars.register(seq, &descriptor);
        self.events.register(seq, &descriptor);
        self.rpc.register(seq, &descriptor);
        self.files.register(seq, &descriptor);
        self.slots.push(ServiceSlot {
            seq,
            service: Some(service),
            descriptor,
            state: ServiceState::Starting,
        });
        self.gossip.catalogue_changed();
        if self.running {
            self.tasks.push(Priority::LIFECYCLE, seq, TaskPayload::Start);
            // The beacon slot is due at once, and its digest check sends
            // the full catalogue ahead of the beacon.
            self.gossip.announce_at_once();
            self.subs_dirty = true;
        }
        Ok(ServiceId::new(self.config.node, seq))
    }

    /// Starts the container: joins the control group, announces itself and
    /// schedules every service's `on_start`.
    pub fn start(&mut self, now: Micros) {
        if self.running {
            return;
        }
        self.running = true;
        self.subs_dirty = true;
        self.tracer.record(now, TraceKind::NodeStart, TraceId::NONE, None, self.incarnation, None);
        self.transport.join(GroupId::CONTROL.0);
        self.directory.apply_hello(
            self.config.node,
            self.config.name.clone(),
            self.incarnation,
            self.config.fec_cap.wire_tag(),
            now,
        );
        let hello = self.hello();
        self.send_message(CONTROL, &hello);
        self.broadcast_announce(self.announce_entries(), now);
        let starting = self.slots.iter().map(|s| s.seq);
        self.tasks.fan_out(Priority::LIFECYCLE, starting, (), |()| TaskPayload::Start);
        self.flush();
    }

    /// Stops the container: runs every `on_stop`, says `Bye`.
    pub fn stop(&mut self, now: Micros) {
        if !self.running {
            return;
        }
        let stopping = self.slots.iter().filter(|s| s.accepts_work()).map(|s| s.seq);
        self.tasks.fan_out(Priority::LIFECYCLE, stopping, (), |()| TaskPayload::Stop);
        while let Some(task) = self.tasks.scheduler.pop() {
            self.execute_task(task, now);
        }
        self.send_message(CONTROL, &Message::Bye);
        self.flush();
        self.running = false;
    }

    /// One cooperative step at time `now`. See the module docs for phases.
    pub fn tick(&mut self, now: Micros) {
        if !self.running {
            return;
        }
        self.stats.ticks += 1;
        // This node's own directory record only ever changes in its load
        // figure (it is exempt from expiry), so it is rewritten when that
        // figure moves instead of on every tick.
        let load = self.load_permille();
        if load != self.advertised_load {
            self.advertised_load = load;
            self.directory.set_load(self.config.node, load);
        }

        while let Some((_, datagram)) = self.transport.recv() {
            self.stats.datagrams_in += 1;
            for frame in frames(&datagram) {
                self.stats.frames_in += 1;
                // A corrupt frame (CRC) is dropped with whatever followed
                // it in its datagram: the walk ends there.
                let Ok(frame) = frame else {
                    self.stats.frames_rejected += 1;
                    break;
                };
                let src = frame.header().src;
                if src == self.config.node {
                    continue;
                }
                // Any CRC-valid frame of a known node is proof of life; a
                // beacon says so itself, in the lookup it makes anyway.
                if frame.header().kind != MessageKind::Beacon {
                    self.directory.touch(src, now);
                }
                match Message::from_frame_interned(&frame, &|s| self.held_name(s)) {
                    Ok(msg) => self.handle_message(src, msg, now),
                    Err(_) => self.stats.frames_rejected += 1,
                }
            }
        }
        for node in self.directory.expire(now, self.config.node_timeout) {
            // Never this node itself: the directory exempts its owner.
            self.handle_node_death(node, now);
        }
        // Maintenance only runs when something that feeds name resolution
        // actually changed (`subs_dirty`), plus the files' cadence fallback
        // that keeps waiting interests re-trying their seen announces.
        let retry = self.files.retry_due(now);
        if std::mem::take(&mut self.subs_dirty) || retry {
            self.maintain_subscriptions(now);
        }
        while let Some((seq, id)) = self.timers.pop_due(now) {
            self.tasks.push(Priority::TIMER, seq, TaskPayload::Timer { id });
        }
        for name in self.vars.sweep_deadlines(now) {
            self.tracer.record(now, TraceKind::VarTimeout, TraceId::NONE, None, 0, Some(&name));
            let services = self.vars.subscribers(&name);
            let timeout = |name| TaskPayload::VariableTimeout { name };
            self.tasks.fan_out(Priority::VARIABLE, services, name, timeout);
        }
        for id in self.rpc.expired(now) {
            self.failover_call(id, now);
        }
        self.poll_links(now);
        self.pump_files(now);
        self.emit_periodics(now);
        for _ in 0..self.config.tick_budget {
            let Some(task) = self.tasks.scheduler.pop() else { break };
            self.execute_task(task, now);
        }
        self.stats.queue_peak = self.stats.queue_peak.max(self.tasks.scheduler.len());
        self.reassembler.expire(now);
        self.flush();
    }

    /// The earliest instant (on this container's clock) at which
    /// [`tick`](Self::tick) has work that does not arrive through the
    /// transport; `None` when only a datagram can give it any. A driver
    /// that delivers datagrams itself may skip every tick before this
    /// instant for as long as the inbox stays empty: such a tick would
    /// change nothing but [`ContainerStats::ticks`].
    ///
    /// The answer is the minimum over the components' own `next_due()`,
    /// each read from the very field its tick phase compares `now`
    /// against: timers, directory expiry, variable and call deadlines,
    /// reassembly expiry, file completion queries and interest retries,
    /// the beacon cadence and the re-announce debounce, each active link's next
    /// retransmission or FEC flush. State whose next step is not one
    /// date — a dirty subscription table, queued handler invocations, an
    /// acknowledgement owed, file chunks waiting for their burst —
    /// answers *now* ([`Micros::ZERO`]): early is always sound,
    /// because the tick it causes is one an every-tick driver runs anyway.
    /// Valid until the next `tick` or other `&mut self` call; `tick` itself
    /// never consults it.
    pub fn next_due(&self) -> Option<Micros> {
        debug_assert!(self.outbox.is_empty(), "nothing stays staged across a tick");
        if !self.running {
            return None;
        }
        if self.subs_dirty || !self.tasks.scheduler.is_empty() {
            return Some(Micros::ZERO);
        }
        [
            self.timers.next_due(),
            self.directory.next_expiry(self.config.node_timeout),
            self.vars.next_due(),
            self.rpc.next_due(),
            self.reassembler.next_expiry(),
            self.files.next_due(),
            Some(self.gossip.next_due()),
            self.links.next_due(),
        ]
        .into_iter()
        .flatten()
        .min()
    }

    fn load_permille(&self) -> u16 {
        let budget = self.config.tick_budget.max(1);
        ((self.tasks.scheduler.len().min(budget) * 1000) / budget) as u16
    }

    // ---- frame input -----------------------------------------------------

    fn handle_message(&mut self, src: NodeId, msg: Message, now: Micros) {
        match msg {
            Message::Hello { container, incarnation, fec_cap } => {
                if !self.directory.apply_hello(src, container, incarnation, fec_cap, now) {
                    return; // from a life the node has left behind
                }
                let cap = self.peer_cap(src);
                self.links.renegotiate(src, cap);
                self.subs_dirty = true;
                if self.gossip.request_reannounce(now) {
                    self.broadcast_announce(self.announce_entries(), now);
                }
            }
            Message::Beacon {
                incarnation,
                load_permille,
                fec_cap,
                entry_count,
                catalogue_hash,
            } => {
                let digest = (catalogue_hash, entry_count);
                let outcome = self.directory.apply_beacon(
                    src,
                    incarnation,
                    load_permille,
                    fec_cap,
                    digest,
                    now,
                );
                let (relink, pull) = match outcome {
                    // The steady state ends here, one directory lookup in.
                    BeaconOutcome::Refreshed | BeaconOutcome::OlderLife => return,
                    BeaconOutcome::Differs { cap, digest } => (cap, digest),
                    BeaconOutcome::NewLife => (true, true),
                    BeaconOutcome::Unknown => {
                        // A node we have no catalogue for (its Hello/Announce was
                        // lost): introduce ourselves unicast — which makes it
                        // reply with its catalogue — and hand it ours the same
                        // way. Both legs are unicast so a partition heal cannot
                        // storm the control group with full-catalogue broadcasts.
                        let hello = self.hello();
                        self.send_message(TransportDestination::Node(src.0), &hello);
                        self.send_catalogue_to(src);
                        (true, false)
                    }
                };
                if relink {
                    self.links.renegotiate(src, Some(fec_cap));
                }
                // A node or a life not seen before: availability may have
                // shifted. A cap or digest difference alone re-plans nothing.
                self.subs_dirty |= !matches!(outcome, BeaconOutcome::Differs { .. });
                if pull {
                    // Our copy of the peer's catalogue disagrees (or we never
                    // applied one): pull the full catalogue unicast. A lost
                    // pull is repeated by the next beacon.
                    self.stats.catalogue_pulls += 1;
                    self.send_message(TransportDestination::Node(src.0), &Message::AnnounceRequest);
                }
            }
            Message::Bye => {
                if self.directory.apply_bye(src) {
                    self.handle_node_death(src, now);
                }
            }
            Message::Announce { incarnation, entries } => {
                self.trace_link(now, TraceKind::DirAnnounce, src, entries.len() as u64);
                self.directory.apply_announce(src, incarnation, &entries, now);
                self.subs_dirty = true;
            }
            Message::AnnounceRequest => self.send_catalogue_to(src),
            Message::ServiceStatus { service_seq, state, .. } => {
                self.directory.apply_status(src, service_seq, state);
                self.subs_dirty = true;
                if !state.is_available() {
                    let failed = ServiceId::new(src, service_seq);
                    for id in self.rpc.sorted_targeting(|target| target == failed) {
                        self.failover_call(id, now);
                    }
                }
            }
            Message::SubscribeVar { name, subscriber, need_initial } => {
                let Some((sample, stamp)) =
                    self.vars.on_subscribe(&name, subscriber, need_initial, now)
                else {
                    return;
                };
                // The resend gets a fresh causal id: it is this container
                // re-publishing the retained sample towards one subscriber.
                let trace = self.tracer.mint();
                let seq = sample.seq;
                self.tracer.record(
                    now,
                    TraceKind::VarPublish,
                    trace,
                    Some(subscriber),
                    seq,
                    Some(&name),
                );
                let msg = Message::VarSample {
                    name,
                    seq,
                    stamp_us: stamp.as_micros(),
                    validity_us: sample.validity_us,
                    trace: trace.wire(),
                    codec: self.codecs.default_id().0,
                    payload: sample.payload,
                };
                // The initial exact value is *guaranteed* (§4.1), so unlike the
                // periodic samples it travels on the reliable channel.
                self.send_reliable(subscriber, &msg, now);
            }
            Message::UnsubscribeVar { name, subscriber } => {
                self.vars.on_unsubscribe(&name, subscriber);
            }
            Message::SubscribeEvent { name, subscriber } => {
                self.events.set_remote_subscriber(&name, subscriber, true);
            }
            Message::UnsubscribeEvent { name, subscriber } => {
                self.events.set_remote_subscriber(&name, subscriber, false);
            }
            Message::VarSample { name, seq, stamp_us, validity_us, trace, codec, payload } => {
                let trace = TraceId::from_wire(src, trace);
                let peer = (!trace.is_none()).then(|| trace.origin());
                let (stamp, codecs) = (Micros(stamp_us), &self.codecs);
                let sample = self.vars.on_sample(
                    &name,
                    seq,
                    stamp,
                    validity_us,
                    codec,
                    &payload,
                    codecs,
                    now,
                );
                let dropped = match sample {
                    Ok((value, services)) => {
                        let deliver = |(name, value)| TaskPayload::DeliverVariable {
                            name,
                            value,
                            stamp,
                            seq,
                            trace,
                        };
                        return self.tasks.fan_out(
                            Priority::VARIABLE,
                            services,
                            (name, value),
                            deliver,
                        );
                    }
                    Err(SampleDrop::Unsubscribed | SampleDrop::Unbound) => return,
                    Err(SampleDrop::Mismatch) => {
                        let line = format!("sample of `{name}` violates announced schema; dropped");
                        return self.log_line(now, line);
                    }
                    Err(SampleDrop::Stale) => TraceKind::VarStaleDrop,
                    Err(SampleDrop::Old) => {
                        self.stats.old_samples_dropped += 1;
                        TraceKind::VarOldDrop
                    }
                };
                self.tracer.record(now, dropped, trace, peer, seq, Some(&name));
            }
            Message::RelData { seq, payload, .. } => {
                let cap = self.peer_cap(src);
                let mut released = std::mem::take(&mut self.scratch.released);
                let received = self.links.on_data(src, cap, seq, payload, &mut released);
                self.deliver_inner(src, received, &mut released, now);
                self.scratch.released = released;
            }
            Message::FecShard { group, index, k, r, payload, .. } => {
                let cap = self.peer_cap(src);
                let mut inner = std::mem::take(&mut self.scratch.shard_inner);
                let received =
                    self.links.on_shard(src, cap, group, index, k, r, &payload, &mut inner);
                self.deliver_inner(src, received, &mut inner, now);
                self.scratch.shard_inner = inner;
            }
            Message::RelAck { cumulative, sack, loss_permille, .. } => {
                let mut sink =
                    self.outbox.to(TransportDestination::Node(src.0), self.transport.mtu());
                let events = &mut self.scratch.link_events;
                self.links.on_ack(src, cumulative, sack, loss_permille, now, &mut sink, events);
                for us in events.recovered_us.drain(..) {
                    self.tracer.record_rto_recovery(us);
                }
                recycle(&mut events.recovered_us);
            }
            Message::EventData { name, seq, stamp_us, trace, codec, payload } => {
                let Some((value, violates)) =
                    self.events.on_data(&name, codec, &payload, &self.codecs)
                else {
                    return;
                };
                if violates {
                    self.log_line(now, format!("event `{name}` payload violates announced schema"));
                }
                let trace = TraceId::from_wire(src, trace);
                self.deliver_event(&name, value, seq, Micros(stamp_us), trace, now);
            }
            Message::CallRequest { request, function, target_seq, trace, codec, payload } => {
                let trace = TraceId::from_wire(src, trace);
                let available = self
                    .slots
                    .get((target_seq as usize).wrapping_sub(1))
                    .is_some_and(ServiceSlot::accepts_work);
                let admitted = self.rpc.admit_request(
                    &function,
                    target_seq,
                    available,
                    codec,
                    &payload,
                    &self.codecs,
                );
                match admitted {
                    Ok(args) => self.tasks.push(
                        Priority::CALL,
                        target_seq,
                        TaskPayload::ExecuteCall { request, caller: src, function, args, trace },
                    ),
                    Err(status) => {
                        let refusal = Message::CallReply {
                            request,
                            status,
                            trace: trace.wire(),
                            codec,
                            payload: Bytes::new(),
                        };
                        self.send_reliable(src, &refusal, now);
                    }
                }
            }
            Message::CallReply { request, status, trace, codec, payload } => {
                // A reply's trace was minted by the caller — us — so the
                // implied origin is this node, not the frame's src.
                let trace = TraceId::from_wire(self.config.node, trace);
                let Some(call) = self.rpc.take(request) else { return };
                let result = match status {
                    CallStatus::Ok => {
                        self.rpc.unmarshal_reply(&call, codec, &payload, &self.codecs)
                    }
                    CallStatus::AppError => {
                        Err(CallError::App(String::from_utf8_lossy(&payload).into_owned()))
                    }
                    CallStatus::NoSuchFunction => Err(CallError::NoSuchFunction),
                    CallStatus::ServiceUnavailable | CallStatus::Timeout => {
                        // Provider-side refusal: try another provider before
                        // giving up (degraded-mode continuation, §4.3).
                        self.rpc.track(request, call);
                        return self.failover_call(request, now);
                    }
                };
                // Prefer the wire echo; calls issued before tracing was
                // enabled fall back to the locally stored id.
                let trace = if trace.is_none() { call.trace } else { trace };
                let peer = Some(call.target.node);
                self.complete_call(request, call, result, trace, peer, now);
            }
            Message::FileAnnounce { .. } => {
                self.subs_dirty = true;
                self.on_file_announce(src, &msg, now);
            }
            Message::FileChunk { transfer, revision, index, payload } => {
                let Some((resource, data, services, publisher)) =
                    self.files.on_chunk(src, transfer, revision, index, &payload)
                else {
                    return;
                };
                self.stats.files_received += 1;
                let received = |(resource, data)| {
                    TaskPayload::File(FileEvent::Received { resource, revision, data })
                };
                self.tasks.fan_out(Priority::FILE, services, (resource.clone(), data), received);
                if let Some(publisher) = publisher {
                    let ack = Message::FileAck { transfer, revision, subscriber: self.config.node };
                    self.send_reliable(publisher, &ack, now);
                }
            }
            Message::FileQuery { transfer, revision } => {
                if let Some(response) = self.files.on_query(src, transfer, revision) {
                    self.send_reliable(src, &response, now);
                }
            }
            Message::FileSubscribe { .. } | Message::FileAck { .. } | Message::FileNack { .. } => {
                if let Some((owner, done)) = self.files.on_subscriber_message(&msg) {
                    self.tasks.push(Priority::FILE, owner, TaskPayload::File(done));
                }
            }
            Message::FileCancel { transfer } => {
                self.subs_dirty |= self.files.on_cancel(src, transfer);
            }
            Message::Fragment { msg_id, index, count, payload } => {
                if let Ok(Some(full)) =
                    self.reassembler.offer(src, msg_id, index, count, payload, now)
                {
                    if let Ok(inner) =
                        Message::decode_tagged_interned(&full, &|s| self.held_name(s))
                    {
                        self.handle_message(src, inner, now);
                    }
                }
            }
        }
    }

    /// Traces what a reliable-channel frame did to its link, then
    /// dispatches the inner messages it released, leaving `inner` empty.
    fn deliver_inner(
        &mut self,
        src: NodeId,
        received: Received,
        inner: &mut Vec<Bytes>,
        now: Micros,
    ) {
        if received.fresh {
            self.trace_link(now, TraceKind::LinkUp, src, 0);
        }
        if received.repaired > 0 {
            self.trace_link(now, TraceKind::FecRecover, src, received.repaired);
        }
        for tagged in inner.drain(..) {
            if let Ok(msg) = Message::decode_tagged_interned(&tagged, &|s| self.held_name(s)) {
                self.handle_message(src, msg, now);
            }
        }
        recycle(inner);
    }

    /// The name this container's engines hold for `s`, if any: what a
    /// received frame's names are shared with instead of allocated anew.
    fn held_name(&self, s: &str) -> Option<Name> {
        self.vars
            .held_name(s)
            .or_else(|| self.events.held_name(s))
            .or_else(|| self.rpc.held_name(s))
    }

    /// Fans one event out to the local subscribers under their declared
    /// [`EventQos`](crate::EventQos) contracts: each subscription's
    /// deliveries ride its own priority lane, and bounded inboxes apply
    /// their drop policy when full.
    fn deliver_event(
        &mut self,
        name: &Name,
        value: Option<Value>,
        seq: u64,
        stamp: Micros,
        trace: TraceId,
        now: Micros,
    ) {
        let mut value = value;
        self.events.admit(name, |svc, priority, admission, last_taker| {
            if admission != Admission::Push {
                self.tracer.record(now, TraceKind::EventDrop, trace, None, seq, Some(name));
            }
            match admission {
                Admission::Refuse => return,
                Admission::ReplaceOldest => {
                    // Retract this subscription's stalest queued delivery to
                    // admit the fresh one; the inbox depth is unchanged
                    // (one out, one in). If nothing was queued despite the
                    // accounting (cannot happen: inboxes are decremented
                    // exactly when deliveries leave the queue), the push
                    // below still keeps the depth within one of the bound.
                    let _ = self.tasks.scheduler.remove_matching(&mut |t| {
                        t.service_seq == svc
                            && matches!(&t.payload,
                                TaskPayload::DeliverEvent { name: n, .. } if n == name)
                    });
                }
                Admission::Push => {}
            }
            self.tasks.push(
                priority,
                svc,
                TaskPayload::DeliverEvent {
                    name: name.clone(),
                    value: if last_taker { value.take() } else { value.clone() },
                    seq,
                    stamp,
                    trace,
                },
            );
        });
    }

    fn on_file_announce(&mut self, src: NodeId, announce: &Message, now: Micros) {
        let Message::FileAnnounce { transfer, resource, revision, size, .. } = announce else {
            return;
        };
        match self.files.on_announce(src, announce) {
            Heard::Ignored => {}
            Heard::Conflict => self.log_line(
                now,
                format!("remote announce for locally published resource `{resource}` ignored"),
            ),
            Heard::Subscribe { join, services } => {
                if join {
                    self.transport.join(file_group(resource).0);
                }
                let subscribe =
                    Message::FileSubscribe { transfer: *transfer, subscriber: self.config.node };
                self.send_reliable(src, &subscribe, now);
                let (revision, size) = (*revision, *size);
                let announced =
                    |resource| TaskPayload::File(FileEvent::Announced { resource, revision, size });
                self.tasks.fan_out(Priority::FILE, services, resource.clone(), announced);
            }
        }
    }

    // ---- failure detection & maintenance ----------------------------------

    fn handle_node_death(&mut self, node: NodeId, now: Micros) {
        self.log_line(now, format!("node {node} declared dead; purging name cache"));
        self.subs_dirty = true;
        if self.links.drop_peer(node) {
            self.trace_link(now, TraceKind::LinkDown, node, 0);
        }
        self.trace_link(now, TraceKind::DirExpire, node, 0);
        // Variable/event subscriptions bound to the dead node are *not*
        // unbound here: the directory purge makes their resolution fail,
        // and maintain_subscriptions turns that into the unbind + the
        // "provider lost" notice (one transition, one notification).
        for id in self.rpc.sorted_targeting(|target| target.node == node) {
            self.failover_call(id, now);
        }
        // Nothing more is published towards the dead node: a reliable send
        // would re-open the link just dropped and retransmit into the void.
        self.vars.drop_peer(node);
        self.events.drop_peer(node);
        self.files.drop_peer(node);
    }

    /// Name management (§3): re-resolves everything local services
    /// consume against the directory. Every pass handles its names in
    /// ascending order, because it may send subscription wiring or queue
    /// notices and send order must be seed-reproducible.
    fn maintain_subscriptions(&mut self, now: Micros) {
        self.rebind_channels(Channel::Variable, now);
        self.rebind_channels(Channel::Event, now);
        for (name, available) in self.rpc.recheck_required(&self.directory) {
            let notice = if available {
                ProviderNotice::FunctionAvailable(name.clone())
            } else {
                self.log_line(now, format!("required function `{name}` has no provider"));
                ProviderNotice::FunctionUnavailable(name.clone())
            };
            self.tasks.fan_out(
                Priority::CALL,
                self.rpc.requirers(&name),
                notice,
                TaskPayload::Provider,
            );
        }
        // File interests that heard an announce before subscribing.
        for (src, announce) in self.files.waiting_announces() {
            if self.directory.node_alive(src) {
                self.on_file_announce(src, &announce, now);
            }
        }
    }

    /// Re-resolves every subscribed variable or event channel: wires this
    /// node in at the provider the directory resolves (over the reliable
    /// channel, so a lost datagram cannot silently orphan the
    /// subscription) and tells the subscribers when a channel gains or
    /// loses its provider.
    fn rebind_channels(&mut self, channel: Channel, now: Micros) {
        let rebinds = match channel {
            Channel::Variable => self.vars.rebind_all(&self.directory, now),
            Channel::Event => self.events.rebind_all(&self.directory),
        };
        for (name, rebind) in rebinds {
            let subscriber = self.config.node;
            match (rebind, channel) {
                (Rebind::Bound { provider, .. }, _) if provider.node == subscriber => {}
                (Rebind::Bound { provider, .. }, Channel::Variable) => {
                    if self.config.var_distribution == VarDistribution::Multicast {
                        self.transport.join(var_group(&name).0);
                    }
                    let need_initial = self.vars.need_initial(&name);
                    let msg =
                        Message::SubscribeVar { name: name.clone(), subscriber, need_initial };
                    self.send_reliable(provider.node, &msg, now);
                }
                (Rebind::Bound { provider, .. }, Channel::Event) => {
                    let msg = Message::SubscribeEvent { name: name.clone(), subscriber };
                    self.send_reliable(provider.node, &msg, now);
                }
                (Rebind::Lost, _) => {}
            }
            let notice = match rebind {
                Rebind::Bound { fresh: false, .. } => continue,
                Rebind::Bound { fresh: true, .. } => channel.notice(&name, true),
                Rebind::Lost => channel.notice(&name, false),
            };
            let payload = TaskPayload::Provider;
            match channel {
                Channel::Variable => self.tasks.fan_out(
                    Priority::CALL,
                    self.vars.subscribers(&name),
                    notice,
                    payload,
                ),
                Channel::Event => self.tasks.fan_out(
                    Priority::CALL,
                    self.events.subscribers(&name),
                    notice,
                    payload,
                ),
            }
        }
    }

    // ---- remote invocation ------------------------------------------------

    /// Re-resolves a pending call to a redundant provider, or fails it.
    ///
    /// Paper §4.3: "Upon service failure, if another service is
    /// implementing the same functionality, the middleware will detect the
    /// situation and redirect requests to the redundant service."
    fn failover_call(&mut self, id: RequestId, now: Micros) {
        let Some(mut call) = self.rpc.take(id) else { return };
        if call.attempts >= call.max_attempts {
            // The caller's retry budget is exhausted (CallOptions
            // contract; container default when unspecified).
            return self.deliver_reply(call.caller_seq, id, Err(CallError::Timeout));
        }
        let next = self
            .directory
            .resolve_function(call.function.as_str(), call.policy, Some(call.target))
            .and_then(|p| Some((p.service, p.function_sig()?)));
        let Some((target, sig)) = next else {
            // "If no service provides the requested function the
            // middleware will warn the system."
            self.log_line(now, format!("call {id} failed: no remaining provider"));
            return self.deliver_reply(call.caller_seq, id, Err(CallError::ServiceUnavailable));
        };
        let codec = self.codecs.default_codec();
        let marshalled = self.rpc.marshal(&call.args, sig, codec.as_ref());
        let returns = sig.returns.clone();
        self.rpc.redirect(&mut call, target, returns, now);
        self.tracer.record(
            now,
            TraceKind::CallRetry,
            call.trace,
            Some(target.node),
            id.0,
            Some(&call.function),
        );
        match marshalled {
            Ok(payload) => {
                self.log_line(now, format!("call {id} redirected to redundant provider {target}"));
                self.dispatch_call(id, &call, payload, now);
                self.rpc.track(id, call);
            }
            Err(e) => self.deliver_reply(call.caller_seq, id, Err(e)),
        }
    }

    fn dispatch_call(&mut self, id: RequestId, call: &PendingCall, payload: Bytes, now: Micros) {
        if call.target.node == self.config.node {
            // In-container invocation: no network, straight to the
            // scheduler (Fig. 2 local path).
            self.tasks.push(
                Priority::CALL,
                call.target.seq,
                TaskPayload::ExecuteCall {
                    request: id,
                    caller: self.config.node,
                    function: call.function.clone(),
                    args: call.args.clone(),
                    trace: call.trace,
                },
            );
        } else {
            let msg = Message::CallRequest {
                request: id,
                function: call.function.clone(),
                target_seq: call.target.seq,
                trace: call.trace.wire(),
                codec: self.codecs.default_id().0,
                payload,
            };
            self.send_reliable(call.target.node, &msg, now);
        }
    }

    /// Hands the caller the outcome of a call that got its reply.
    fn complete_call(
        &mut self,
        request: RequestId,
        call: PendingCall,
        result: Result<Value, CallError>,
        trace: TraceId,
        peer: Option<NodeId>,
        now: Micros,
    ) {
        self.tracer.record_call_rtt(now.saturating_since(call.started_at).as_micros());
        self.tracer.record(now, TraceKind::CallReply, trace, peer, request.0, Some(&call.function));
        self.deliver_reply(call.caller_seq, request, result);
    }

    /// Queues `on_reply` for the calling service (`Err` straight from the
    /// middleware when it gave up on the call).
    fn deliver_reply(
        &mut self,
        caller_seq: u32,
        request: RequestId,
        result: Result<Value, CallError>,
    ) {
        self.stats.call_errors += u64::from(result.is_err());
        self.tasks.push(Priority::CALL, caller_seq, TaskPayload::DeliverReply { request, result });
    }

    /// A local service's handler returned from `on_call`.
    fn finish_call(
        &mut self,
        request: RequestId,
        caller: NodeId,
        function: &Name,
        result: Result<Value, String>,
        trace: TraceId,
        now: Micros,
    ) {
        if caller == self.config.node {
            // Local caller: translate directly into a reply task.
            let Some(call) = self.rpc.take(request) else { return };
            let trace = call.trace;
            self.complete_call(request, call, result.map_err(CallError::App), trace, None, now);
        } else {
            let codec = self.codecs.default_codec();
            let (status, payload) = self.rpc.marshal_reply(function, result, codec.as_ref());
            let reply = Message::CallReply {
                request,
                status,
                trace: trace.wire(),
                codec: codec.id().0,
                payload,
            };
            self.send_reliable(caller, &reply, now);
        }
    }

    // ---- per-tick pumps ---------------------------------------------------

    fn poll_links(&mut self, now: Micros) {
        let mtu = self.transport.mtu();
        let mut swept = None;
        while let Some(peer) = self.links.next_active(swept) {
            swept = Some(peer);
            let mut sink = self.outbox.to(TransportDestination::Node(peer.0), mtu);
            let events = &mut self.scratch.link_events;
            self.links.poll(peer, now, &mut sink, events);
            for seq in events.retransmitted.drain(..) {
                let kind = TraceKind::RelRetransmit;
                self.tracer.record(now, kind, TraceId::NONE, Some(peer), seq, None);
            }
            let n = events.abandoned.len();
            recycle(&mut events.retransmitted);
            recycle(&mut events.abandoned);
            if n > 0 {
                self.log_line(
                    now,
                    format!("reliable delivery to {peer} abandoned for {n} messages"),
                );
            }
        }
    }

    fn pump_files(&mut self, now: Micros) {
        let mut swept: Option<Name> = None;
        while let Some(pumped) = self.files.pump_after(swept.as_ref(), now) {
            if let Some(announce) = &pumped.control {
                self.send_message(CONTROL, announce);
            }
            let group = TransportDestination::Group(file_group(&pumped.resource).0);
            for chunk in &pumped.group {
                self.send_message(group, chunk);
            }
            if let Some((owner, done)) = pumped.done {
                self.tasks.push(Priority::FILE, owner, TaskPayload::File(done));
            }
            swept = Some(pumped.resource);
        }
    }

    fn emit_periodics(&mut self, now: Micros) {
        if self.gossip.reannounce_due(now) {
            self.broadcast_announce(self.announce_entries(), now);
        }
        if !self.gossip.beacon_due(now) {
            return;
        }
        // The beacon carries the digest of the catalogue as it stands, so
        // it agrees with every catalogue this node hands out, unicast
        // replies included. One that changed since the last beacon is
        // rehashed here and flooded in full ahead of it; receivers whose
        // copy still disagrees (that flood was lost) pull it unicast with
        // `AnnounceRequest`. The steady-state control plane carries
        // digests, not catalogues — and costs no rebuild of the catalogue
        // to learn that nothing touched it.
        let (catalogue_hash, entry_count) = match self.gossip.digest() {
            Some(digest) => {
                debug_assert_eq!(digest, self.catalogue_digest(&self.announce_entries()));
                digest
            }
            None => {
                let entries = self.announce_entries();
                let digest = self.catalogue_digest(&entries);
                if !self.gossip.digest_unchanged(digest) {
                    self.broadcast_announce(entries, now);
                }
                digest
            }
        };
        let msg = Message::Beacon {
            incarnation: self.incarnation,
            load_permille: self.load_permille(),
            fec_cap: self.config.fec_cap.wire_tag(),
            entry_count,
            catalogue_hash,
        };
        self.send_message(CONTROL, &msg);
    }

    fn catalogue_digest(&self, entries: &[AnnounceEntry]) -> (u32, u32) {
        (announce_hash(self.incarnation, entries), entries.len() as u32)
    }

    fn broadcast_announce(&mut self, entries: Vec<AnnounceEntry>, now: Micros) {
        let digest =
            self.directory.apply_announce(self.config.node, self.incarnation, &entries, now);
        self.gossip.broadcast(digest);
        let msg = Message::Announce { incarnation: self.incarnation, entries };
        self.send_message(CONTROL, &msg);
    }

    fn send_catalogue_to(&mut self, peer: NodeId) {
        let msg =
            Message::Announce { incarnation: self.incarnation, entries: self.announce_entries() };
        self.send_message(TransportDestination::Node(peer.0), &msg);
    }

    fn hello(&self) -> Message {
        Message::Hello {
            container: self.config.name.clone(),
            incarnation: self.incarnation,
            fec_cap: self.config.fec_cap.wire_tag(),
        }
    }

    fn announce_entries(&self) -> Vec<AnnounceEntry> {
        self.slots
            .iter()
            .map(|s| AnnounceEntry {
                service_seq: s.seq,
                name: s.descriptor.name().clone(),
                state: s.state,
                provides: s.descriptor.provides().to_vec(),
            })
            .collect()
    }

    // ---- task execution -------------------------------------------------------

    fn execute_task(&mut self, task: Task, now: Micros) {
        self.stats.tasks_executed += 1;
        // A DeliverEvent leaving the queue frees its subscription's inbox
        // slot — even when the target service turns out to be unavailable
        // below, so the bound accounting can never leak.
        if let TaskPayload::DeliverEvent { name, .. } = &task.payload {
            self.events.delivery_left_queue(name, task.service_seq);
        }
        let idx = (task.service_seq as usize).wrapping_sub(1);
        let payload = task.payload;

        // Phase 1: extract the service from its slot; the context borrows
        // the slot's name.
        let Some(slot) = self.slots.get_mut(idx) else { return };
        let lifecycle = matches!(payload, TaskPayload::Start | TaskPayload::Stop);
        if !lifecycle && !slot.accepts_work() {
            return;
        }
        let Some(mut service) = slot.service.take() else { return };
        let seq = slot.seq;

        // Phase 2: run the handler with a fresh context. It consumes the
        // payload — a reply's value moves into `on_reply`, never copied —
        // and answers what the accounting needs, names moved out of it.
        let mut effects = std::mem::take(&mut self.scratch.effects);
        let mut ctx = ServiceContext {
            now,
            node: self.config.node,
            service_name: slot.descriptor.name(),
            service_seq: seq,
            effects: &mut effects,
            next_request_id: &mut self.next_request_id,
            next_timer_id: self.timers.ids(),
            var_state: Some(&self.vars),
        };
        let unwind = catch_unwind(AssertUnwindSafe(|| match payload {
            TaskPayload::Start => {
                service.on_start(&mut ctx);
                Ran::Start
            }
            TaskPayload::Stop => {
                service.on_stop(&mut ctx);
                Ran::Stop
            }
            TaskPayload::DeliverVariable { name, value, stamp, seq, trace } => {
                service.on_variable(&mut ctx, &name, &value, stamp);
                Ran::Variable { name, stamp, seq, trace }
            }
            TaskPayload::VariableTimeout { name } => {
                service.on_variable_timeout(&mut ctx, &name);
                Ran::Other
            }
            TaskPayload::DeliverEvent { name, value, seq, stamp, trace } => {
                service.on_event(&mut ctx, &name, value.as_ref(), stamp);
                Ran::Event { name, stamp, seq, trace }
            }
            TaskPayload::ExecuteCall { request, caller, function, args, trace } => {
                let result = service.on_call(&mut ctx, &function, &args);
                Ran::Call { request, caller, function, trace, result }
            }
            TaskPayload::DeliverReply { request, result } => {
                service.on_reply(&mut ctx, CallHandle(request), result);
                Ran::Other
            }
            TaskPayload::File(ev) => {
                service.on_file_event(&mut ctx, &ev);
                Ran::Other
            }
            TaskPayload::FileBypass { resource, revision, data } => {
                let received = FileEvent::Received { resource, revision, data };
                service.on_file_event(&mut ctx, &received);
                Ran::FileBypass
            }
            TaskPayload::Provider(notice) => {
                service.on_provider_change(&mut ctx, &notice);
                Ran::Other
            }
            TaskPayload::Timer { id } => {
                service.on_timer(&mut ctx, id);
                Ran::Other
            }
        }));

        // Phase 3: restore the service.
        if let Some(slot) = self.slots.get_mut(idx) {
            slot.service = Some(service);
        }

        // Phase 4: accounting and follow-up.
        let Ok(ran) = unwind else {
            // Watchdog: a panicking service is marked failed and the fleet
            // is told (§3: the container watches "for their correct
            // operation and notif[ies] the rest of containers").
            self.stats.services_failed += 1;
            if let Some(slot) = self.slots.get(idx) {
                let line = format!("service `{}` panicked; marked failed", slot.descriptor.name());
                self.log_line(now, line);
            }
            return self.set_service_state(seq, ServiceState::Failed);
        };
        match ran {
            Ran::Start
                if self.slots.get(idx).is_some_and(|s| s.state == ServiceState::Starting) =>
            {
                self.set_service_state(seq, ServiceState::Running);
            }
            Ran::Stop => self.set_service_state(seq, ServiceState::Stopped),
            Ran::Variable { name, stamp, seq: n, trace } => {
                self.stats.var_samples_delivered += 1;
                self.tracer.record_var_latency(now.saturating_since(stamp).as_micros());
                self.tracer.record(now, TraceKind::VarDeliver, trace, None, n, Some(&name));
            }
            Ran::Event { name, stamp, seq: n, trace } => {
                self.stats.events_delivered += 1;
                let latency = now.saturating_since(stamp).as_micros();
                self.stats.event_latency_sum_us += latency;
                self.stats.event_latency_max_us = self.stats.event_latency_max_us.max(latency);
                self.tracer.record_event_latency(latency);
                self.tracer.record(now, TraceKind::EventDeliver, trace, None, n, Some(&name));
            }
            Ran::Call { request, caller, function, trace, result } => {
                self.stats.calls_served += 1;
                self.finish_call(request, caller, &function, result, trace, now);
            }
            Ran::FileBypass => self.stats.file_bypass_deliveries += 1,
            Ran::Start | Ran::Other => {}
        }
        self.apply_effects(seq, &mut effects, now);
        self.scratch.effects = effects;
    }

    fn set_service_state(&mut self, seq: u32, state: ServiceState) {
        let name = {
            let Some(slot) = self.slots.iter_mut().find(|s| s.seq == seq) else { return };
            if slot.state == state {
                return;
            }
            slot.state = state;
            slot.descriptor.name().clone()
        };
        self.gossip.catalogue_changed();
        self.directory.apply_status(self.config.node, seq, state);
        self.subs_dirty = true;
        let msg = Message::ServiceStatus { service_seq: seq, name, state };
        self.send_message(CONTROL, &msg);
    }

    // ---- effects ---------------------------------------------------------------

    /// Applies what a handler queued, leaving `effects` empty.
    fn apply_effects(&mut self, seq: u32, effects: &mut Vec<Effect>, now: Micros) {
        for effect in effects.drain(..) {
            match effect {
                Effect::Publish { name, value } => self.effect_publish(seq, name, value, now),
                Effect::Emit { name, value } => self.effect_emit(seq, name, value, now),
                Effect::Call { handle, function, args, options } => {
                    self.effect_call(seq, handle, function, args, options, now)
                }
                Effect::PublishFile { resource, data } => {
                    match self.files.publish(seq, &resource, data) {
                        Ok(announce) => {
                            self.stats.files_published += 1;
                            self.send_message(CONTROL, &announce);
                            self.local_file_bypass(&resource);
                        }
                        Err(line) => self.log_line(now, line),
                    }
                }
                Effect::SubscribeFile { resource } => {
                    self.files.add_interest(&resource, seq);
                    self.subs_dirty = true;
                    self.local_file_bypass(&resource);
                }
                Effect::SetTimer { id, after, period } => {
                    self.timers.set(id, seq, now + after, period);
                }
                Effect::CancelTimer { id } => self.timers.cancel(id),
                Effect::Log { line } => self.log_line(now, line),
                Effect::SetDegraded { degraded } => {
                    let state =
                        if degraded { ServiceState::Degraded } else { ServiceState::Running };
                    self.set_service_state(seq, state);
                }
                Effect::StopSelf => self.tasks.push(Priority::LIFECYCLE, seq, TaskPayload::Stop),
            }
        }
        recycle(effects);
    }

    fn effect_publish(&mut self, seq: u32, name: Name, value: Value, now: Micros) {
        let codec = self.codecs.default_codec();
        let sample = match self.vars.publish(seq, &name, &value, codec.as_ref(), now) {
            Ok(sample) => sample,
            Err(line) => return self.log_line(now, line),
        };
        let codec = codec.id().0;
        self.stats.vars_published += 1;
        let trace = self.tracer.mint();
        self.tracer.record(now, TraceKind::VarPublish, trace, None, sample.seq, Some(&name));

        // Local delivery (Fig. 2 in-container path).
        if let Some((value, services)) = self.vars.accept_local(&name, sample.seq, value, now) {
            let deliver = |(name, value)| TaskPayload::DeliverVariable {
                name,
                value,
                stamp: now,
                seq: sample.seq,
                trace,
            };
            self.tasks.fan_out(Priority::VARIABLE, services, (name.clone(), value), deliver);
        }

        let msg = Message::VarSample {
            name: name.clone(),
            seq: sample.seq,
            stamp_us: now.as_micros(),
            validity_us: sample.validity_us,
            trace: trace.wire(),
            codec,
            payload: sample.payload,
        };
        match self.config.var_distribution {
            VarDistribution::Multicast => {
                self.send_message(TransportDestination::Group(var_group(&name).0), &msg);
            }
            VarDistribution::UnicastFanout => {
                let mut remote = std::mem::take(&mut self.scratch.remote);
                remote.extend(self.vars.remote_subscribers(&name));
                for node in &remote {
                    self.send_message(TransportDestination::Node(node.0), &msg);
                }
                recycle(&mut remote);
                self.scratch.remote = remote;
            }
        }
    }

    fn effect_emit(&mut self, seq: u32, name: Name, value: Option<Value>, now: Micros) {
        let codec = self.codecs.default_codec();
        let emitted = match self.events.emit(seq, &name, value.as_ref(), codec.as_ref()) {
            Ok(emitted) => emitted,
            Err(line) => return self.log_line(now, line),
        };
        let codec = codec.id().0;
        if emitted.payload_dropped {
            self.log_line(now, format!("event `{name}` declared bare; payload dropped"));
        }
        self.stats.events_published += 1;
        let trace = self.tracer.mint();
        self.tracer.record(now, TraceKind::EventEmit, trace, None, emitted.seq, Some(&name));

        // Local delivery, under each subscriber's declared contract — of
        // exactly what remote subscribers get: a dropped payload is
        // dropped here too.
        let local = value.filter(|_| !emitted.payload_dropped);
        self.deliver_event(&name, local, emitted.seq, now, trace, now);
        // Remote delivery over the reliable links.
        let mut remote = std::mem::take(&mut self.scratch.remote);
        remote.extend(self.events.remote_subscribers(&name));
        let msg = Message::EventData {
            name,
            seq: emitted.seq,
            stamp_us: now.as_micros(),
            trace: trace.wire(),
            codec,
            payload: emitted.payload,
        };
        for node in &remote {
            self.send_reliable(*node, &msg, now);
        }
        recycle(&mut remote);
        self.scratch.remote = remote;
    }

    fn effect_call(
        &mut self,
        seq: u32,
        handle: CallHandle,
        function: Name,
        args: Vec<Value>,
        options: CallOptions,
        now: Micros,
    ) {
        self.stats.calls_made += 1;
        let resolution = self
            .directory
            .resolve_function(function.as_str(), options.policy, None)
            .and_then(|p| Some((p.service, p.function_sig()?)));
        let Some((target, sig)) = resolution else {
            return self.deliver_reply(seq, handle.0, Err(CallError::NoProvider));
        };
        // Marshalled against the directory's own copy of the signature;
        // only the return type outlives this call.
        let codec = self.codecs.default_codec();
        let marshalled = self.rpc.marshal(&args, sig, codec.as_ref());
        let returns = sig.returns.clone();
        let payload = match marshalled {
            Ok(payload) => payload,
            Err(e) => return self.deliver_reply(seq, handle.0, Err(e)),
        };
        let trace = self.tracer.mint();
        self.tracer.record(
            now,
            TraceKind::CallStart,
            trace,
            Some(target.node),
            (handle.0).0,
            Some(&function),
        );
        // The caller's contract, resolved against the container defaults,
        // travels with the pending call from here on.
        let attempt_timeout = options.deadline.unwrap_or(DEFAULT_CALL_TIMEOUT);
        let call = PendingCall {
            caller_seq: seq,
            function,
            args,
            target,
            returns,
            deadline: now + attempt_timeout,
            attempt_timeout,
            attempts: 1,
            max_attempts: options.retry_budget.unwrap_or(DEFAULT_CALL_ATTEMPTS).max(1),
            policy: options.policy,
            started_at: now,
            trace,
        };
        self.dispatch_call(handle.0, &call, payload, now);
        self.rpc.track(handle.0, call);
    }

    fn local_file_bypass(&mut self, resource: &Name) {
        let Some((revision, data, services)) = self.files.local_bypass(resource) else { return };
        let bypass = |(resource, data)| TaskPayload::FileBypass { resource, revision, data };
        self.tasks.fan_out(Priority::FILE, services, (resource.clone(), data), bypass);
    }

    // ---- output helpers -----------------------------------------------------

    /// Records a link- or directory-level event about `peer`.
    fn trace_link(&mut self, now: Micros, kind: TraceKind, peer: NodeId, aux: u64) {
        self.tracer.record(now, kind, TraceId::NONE, Some(peer), aux, None);
    }

    /// The FEC capability tag `peer` advertised, if its `Hello` or a
    /// beacon was heard.
    fn peer_cap(&self, peer: NodeId) -> Option<u8> {
        self.directory.node(peer).map(|n| n.fec_cap)
    }

    /// Sends `msg` to `peer` over the reliable link: encoded once, into
    /// the scratch buffer; what the link releases now is staged at once.
    fn send_reliable(&mut self, peer: NodeId, msg: &Message, now: Micros) {
        let cap = self.peer_cap(peer);
        let tagged = &mut self.scratch.tagged;
        tagged.clear();
        msg.encode_tagged_into(tagged);
        let mut sink = self.outbox.to(TransportDestination::Node(peer.0), self.transport.mtu());
        let fresh = self.links.send(peer, cap, tagged, now, &mut sink);
        if tagged.capacity() > TAGGED_KEEP_BYTES {
            *tagged = BytesMut::new();
        }
        if fresh {
            self.trace_link(now, TraceKind::LinkUp, peer, 0);
        }
    }

    /// Stages `msg` for `dest`: it leaves with this tick's [`flush`], in
    /// the datagram it shares with the other frames bound there. A message
    /// no datagram can hold goes as fragments.
    ///
    /// [`flush`]: Self::flush
    fn send_message(&mut self, dest: TransportDestination, msg: &Message) {
        self.outbox.send(dest, msg, self.transport.mtu());
    }

    /// Hands every staged datagram to the transport — the one place the
    /// container sends. Ends `tick`, `start` and `stop`.
    fn flush(&mut self) {
        for (dest, datagram) in self.outbox.drain() {
            self.stats.datagrams_out += 1;
            let _ = self.transport.send(dest, datagram);
        }
    }

    fn log_line(&mut self, now: Micros, line: String) {
        if self.log.len() >= LOG_CAPACITY {
            self.log.pop_front();
        }
        self.log.push_back((now, line));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::SimHarness;
    use crate::TimerId;
    use marea_netsim::NetConfig;
    use std::sync::Arc;

    /// Degrades itself on its first timer and panics on its second.
    struct Fragile {
        timers_seen: u32,
    }

    impl Service for Fragile {
        fn descriptor(&self) -> ServiceDescriptor {
            ServiceDescriptor::builder("fragile")
                .provides_fn(&crate::FnPort::<(), ()>::new("fragile/f"))
                .build()
        }

        fn on_start(&mut self, ctx: &mut ServiceContext<'_>) {
            let every = ProtoDuration::from_secs(6);
            ctx.set_timer(every, Some(every));
        }

        fn on_timer(&mut self, ctx: &mut ServiceContext<'_>, _id: TimerId) {
            self.timers_seen += 1;
            assert!(self.timers_seen < 2, "deliberate test panic");
            ctx.set_degraded(true);
        }
    }

    fn burst_port() -> crate::EventPort<Vec<u8>> {
        crate::EventPort::new("burst/e")
    }

    /// Emits three events from one handler run, so a bounded inbox fills
    /// before any delivery executes.
    struct Burst;

    impl Service for Burst {
        fn descriptor(&self) -> ServiceDescriptor {
            let mut b = ServiceDescriptor::builder("burst");
            b.provides_event(&burst_port());
            b.build()
        }

        fn on_start(&mut self, ctx: &mut ServiceContext<'_>) {
            ctx.set_timer(ProtoDuration::from_secs(3), None);
        }

        fn on_timer(&mut self, ctx: &mut ServiceContext<'_>, _id: TimerId) {
            for i in 0..3u8 {
                ctx.emit_to(&burst_port(), vec![i; 64]);
            }
        }
    }

    /// Writes down the first byte of every payload it is delivered (`None`
    /// for one that arrived bare or of the wrong length).
    struct Listener {
        name: String,
        qos: crate::EventQos,
        got: Arc<std::sync::Mutex<Vec<Option<u8>>>>,
    }

    impl Service for Listener {
        fn descriptor(&self) -> ServiceDescriptor {
            let mut b = ServiceDescriptor::builder(&self.name);
            b.subscribe_to_event(&burst_port(), self.qos);
            b.build()
        }

        fn on_event(
            &mut self,
            _ctx: &mut ServiceContext<'_>,
            _name: &Name,
            value: Option<&Value>,
            _stamp: Micros,
        ) {
            let payload = burst_port().decode(value).ok().filter(|p| p.len() == 64);
            let first = payload.and_then(|p| p.iter().all(|b| *b == p[0]).then_some(p[0]));
            self.got.lock().unwrap().push(first);
        }
    }

    /// The payload moves into the last subscriber that takes the event and
    /// is cloned for the others: whoever is admitted gets an equal value,
    /// wherever a refusing subscriber stands — alone, last, or first — and
    /// whether the event was emitted here or arrived over the reliable link.
    #[test]
    fn every_admitted_event_subscriber_gets_the_payload() {
        use crate::{DropPolicy, EventQos};
        let push = EventQos::default();
        let replace =
            EventQos::default().with_queue_bound(1).with_drop_policy(DropPolicy::DropOldest);
        let refuse =
            EventQos::default().with_queue_bound(1).with_drop_policy(DropPolicy::DropNewest);
        // What each contract lets through of a burst of three: all, the
        // freshest, the first.
        let expected = |qos: &EventQos| match (qos.queue_bound, qos.drop_policy) {
            (1, DropPolicy::DropOldest) => vec![Some(2)],
            (1, DropPolicy::DropNewest) => vec![Some(0)],
            _ => vec![Some(0), Some(1), Some(2)],
        };
        let line_ups: [&[EventQos]; 6] = [
            &[push],
            &[replace],
            &[refuse],
            &[push, replace, refuse],
            &[refuse, replace, push],
            &[replace, refuse, refuse],
        ];
        for remote in [false, true] {
            for line_up in line_ups {
                let (emitter, listener) = (NodeId(1), NodeId(if remote { 2 } else { 1 }));
                let mut h = SimHarness::new(NetConfig::default());
                h.add_container(ContainerConfig::new("a", emitter));
                if remote {
                    h.add_container(ContainerConfig::new("b", listener));
                }
                h.add_service(emitter, Box::new(Burst));
                let mut heard = Vec::new();
                for (i, qos) in line_up.iter().enumerate() {
                    let got = Arc::default();
                    heard.push(Arc::clone(&got));
                    let name = format!("listener{i}");
                    h.add_service(listener, Box::new(Listener { name, qos: *qos, got }));
                }
                h.start_all();
                h.run_for(ProtoDuration::from_secs(5));
                for (qos, got) in line_up.iter().zip(&heard) {
                    let got = got.lock().unwrap().clone();
                    assert_eq!(got, expected(qos), "remote {remote}, {line_up:?}: {qos:?}");
                }
            }
        }
    }

    /// The digest a node's beacon carries is kept, not recomputed, so every
    /// way the catalogue can change must reach it: a few beacon periods
    /// after each one, what the node's last beacon said — and what its peer
    /// holds — is the hash of the catalogue as it stands.
    #[test]
    fn gossiped_digest_follows_every_catalogue_change() {
        let (a, b) = (NodeId(1), NodeId(2));
        let mut h = SimHarness::new(NetConfig::default());
        h.add_container(ContainerConfig::new("a", a));
        h.add_container(ContainerConfig::new("b", b));
        // A silent listener on the control group, for node a's beacons.
        let probe = h.network().socket(99);
        probe.join(GroupId::CONTROL.0);
        h.start_all();

        let settle_and_check = |h: &mut SimHarness, state: Option<ServiceState>, what: &str| {
            h.run_for(ProtoDuration::from_secs(4));
            let c = h.container(a).expect("node a");
            assert_eq!(c.service_state("fragile"), state, "{what}");
            let fresh = c.catalogue_digest(&c.announce_entries());
            let heard = std::iter::from_fn(|| probe.recv())
                .flat_map(|(_, datagram)| frames(&datagram).collect::<Vec<_>>())
                .filter_map(|frame| frame.ok().filter(|f| f.header().src == a))
                .filter_map(|frame| match Message::from_frame(&frame) {
                    Ok(Message::Beacon { entry_count, catalogue_hash, .. }) => {
                        Some((catalogue_hash, entry_count))
                    }
                    _ => None,
                })
                .last();
            assert_eq!(heard, Some(fresh), "{what}: the last beacon on the wire");
            let held = h.container(b).and_then(|c| c.directory.node(a)?.catalogue_digest);
            assert_eq!(held, Some(fresh), "{what}: node b's copy");
            assert_eq!(h.container(b).map(|c| c.stats.catalogue_pulls), Some(0), "{what}");
        };

        settle_and_check(&mut h, None, "empty catalogue");
        h.add_service(a, Box::new(Fragile { timers_seen: 0 }));
        settle_and_check(&mut h, Some(ServiceState::Running), "service added while running");
        h.run_for(ProtoDuration::from_secs(3));
        settle_and_check(&mut h, Some(ServiceState::Degraded), "SetDegraded");
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        h.run_for(ProtoDuration::from_secs(2));
        std::panic::set_hook(hook);
        settle_and_check(&mut h, Some(ServiceState::Failed), "panicking service marked Failed");
    }
}
