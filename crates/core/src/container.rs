//! The service container: one per node, the paper's core artifact (§3).
//!
//! The container is a deterministic state machine driven by
//! [`ServiceContainer::tick`]. Within a tick it:
//!
//! 1. pumps the transport and interprets every frame (discovery, samples,
//!    reliable-channel envelopes, file transfer traffic);
//! 2. runs failure detection (heartbeat timeouts ⇒ purge the name cache,
//!    re-resolve subscriptions, fail over pending calls);
//! 3. maintains subscriptions against the directory (name management);
//! 4. fires timers and variable-loss deadlines;
//! 5. polls the reliable links (retransmissions) and pumps file transfers;
//! 6. emits heartbeats/announcements;
//! 7. executes queued handler invocations through the pluggable scheduler,
//!    bounded by a per-tick budget, applying the effects services queue.
//!
//! Services never see any of this machinery — only their
//! [`ServiceContext`](crate::ServiceContext).

use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};

use bytes::Bytes;

use marea_encoding::{CodecId, CodecRegistry, SelfDescribingCodec};
use marea_presentation::{Name, Value};
use marea_protocol::arq::ArqConfig;
use marea_protocol::fec::{FecConfig, FecRate, PARITY_INDEX_BIT};
use marea_protocol::fragment::{fragment_shared, Reassembler};
use marea_protocol::messages::{AnnounceEntry, CallStatus, Provision, ServiceState};
use marea_protocol::mftp::{AnnounceOutcome, FileReceiver, FileSender, RevisionPolicy};
use marea_protocol::{
    Encoded, Frame, GroupId, Message, Micros, NodeId, ProtoDuration, RequestId, ServiceId,
    TransferId,
};
use marea_transport::{Transport, TransportDestination};

use crate::directory::Directory;
use crate::engines::events::{EventEngine, EventSubscriber, PublishedEvent, SubscribedEvent};
use crate::engines::files::{FileEngine, OutgoingFile};
use crate::engines::rpc::{
    decode_args, decode_result, encode_args, encode_result, LocalFunction, PendingCall, RpcEngine,
};
use crate::engines::vars::{PublishedVar, SubscribedVar, VarEngine};
use crate::error::{CallError, ContainerError};
use crate::link::ReliableLink;
use crate::qos::{CallOptions, DropPolicy};
use crate::scheduler::{Priority, Scheduler, SchedulerKind, Task, TaskPayload};
use crate::service::{
    CallHandle, CallPolicy, Effect, FileEvent, ProviderNotice, Service, ServiceContext,
    ServiceDescriptor, TimerId,
};
use crate::stats::{
    ContainerStats, EventSubscriptionStats, Occupancy, QosStats, VarSubscriptionStats,
};
use crate::sweep::{sorted_keys, sorted_keys_into};
use crate::trace::{TraceConfig, TraceId, TraceKind, TraceRing, Tracer};

mod gossip;
mod pump;
mod subscriptions;

/// Upper bound for one marshalled call argument.
pub(crate) const MAX_ARG_BYTES: usize = 4 * 1024 * 1024;

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
    /// Heartbeat emission period.
    pub heartbeat_period: ProtoDuration,
    /// Full catalogue re-announcement period.
    pub announce_period: ProtoDuration,
    /// Silence after which a peer node is declared dead.
    pub node_timeout: ProtoDuration,
    /// Scheduler policy.
    pub scheduler: SchedulerKind,
    /// Maximum handler invocations per tick (soft real-time budget).
    pub tick_budget: usize,
    /// Reliable-channel tuning.
    pub arq: ArqConfig,
    /// Forward-error-correction layer below the reliable channel
    /// (enabled by default; each link runs the weaker of the two ends'
    /// advertised capabilities).
    pub fec: FecConfig,
    /// Remote invocation reply deadline per attempt.
    pub call_timeout: ProtoDuration,
    /// Providers tried before a call fails.
    pub max_call_attempts: u32,
    /// File transfer chunk size in bytes.
    pub chunk_size: u32,
    /// File chunks pumped per tick per transfer.
    pub file_burst: usize,
    /// Gap between completion queries of an idle transfer.
    pub file_query_interval: ProtoDuration,
    /// Variable sample distribution mode.
    pub var_distribution: VarDistribution,
    /// Payload codec for application data.
    pub codec: CodecId,
    /// Container log ring capacity.
    pub log_capacity: usize,
    /// Flight-recorder switch and ring sizing (DESIGN.md §8).
    pub trace: TraceConfig,
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
            arq: ArqConfig::default(),
            fec: FecConfig::default(),
            call_timeout: ProtoDuration::from_millis(800),
            max_call_attempts: 3,
            chunk_size: 1024,
            file_burst: 32,
            file_query_interval: ProtoDuration::from_millis(100),
            var_distribution: VarDistribution::Multicast,
            codec: CodecId::COMPACT,
            log_capacity: 1024,
            trace: TraceConfig::default(),
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

#[derive(Debug)]
struct TimerInfo {
    service_seq: u32,
    period: Option<ProtoDuration>,
    cancelled: bool,
}

/// The per-node service container (paper §3).
///
/// See the crate-level docs for a complete walk-through; the
/// [`SimHarness`](crate::SimHarness) shows the intended driving pattern.
#[derive(Debug)]
pub struct ServiceContainer {
    config: ContainerConfig,
    transport: Box<dyn Transport>,
    codecs: CodecRegistry,
    slots: Vec<ServiceSlot>,
    directory: Directory,
    scheduler: Box<dyn Scheduler>,
    links: HashMap<NodeId, ReliableLink>,
    vars: VarEngine,
    events: EventEngine,
    rpc: RpcEngine,
    files: FileEngine,
    reassembler: Reassembler,
    timers: BinaryHeap<Reverse<(Micros, u64)>>,
    timer_info: HashMap<u64, TimerInfo>,
    next_timer_id: u64,
    next_request_id: u64,
    next_msg_id: u64,
    next_task_seq: u64,
    incarnation: u64,
    running: bool,
    started_at: Micros,
    last_heartbeat: Option<Micros>,
    last_announce: Option<Micros>,
    /// Digest `(hash, entry_count)` of the last full catalogue broadcast.
    /// While the catalogue is unchanged, the periodic announce slot sends
    /// a compact `AnnounceDigest` instead of re-flooding the catalogue.
    last_announce_digest: Option<(u32, u32)>,
    /// When the last forced (out-of-cadence) full re-announce went out.
    last_forced_reannounce: Option<Micros>,
    /// A forced re-announce arrived inside the debounce window and waits
    /// for the next announce-period boundary.
    reannounce_pending: bool,
    /// Directory or subscription state changed since the last maintenance
    /// sweep. Plain heartbeats do not set this — a liveness refresh
    /// changes no name resolution — which keeps the sweep off the
    /// per-tick path at fleet scale.
    subs_dirty: bool,
    /// Last file-interest retry sweep (cadence fallback that keeps
    /// waiting interests re-trying seen announces without a dirty flag).
    last_interest_retry: Option<Micros>,
    /// Peers whose reliable link may still produce poll output. Ordered
    /// so the poll sweep walks peers in node order (determinism).
    active_links: BTreeSet<NodeId>,
    /// A frame arrived or a peer died since the `negotiated_rate_max`
    /// gauge was last derived (see `poll_links`).
    links_changed: bool,
    /// The scheduler load last written into this node's own directory
    /// record (the record `resolve_function` balances on).
    advertised_load: u16,
    /// Scratch for the poll sweep (allocation reuse across ticks).
    link_scratch: Vec<NodeId>,
    /// Scratch for sorted map walks in the maintenance and file pumps.
    sweep_scratch: Vec<Name>,
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
            scheduler: config.scheduler.build(),
            codecs,
            transport,
            slots: Vec::new(),
            directory: Directory::for_node(config.node),
            links: HashMap::new(),
            vars: VarEngine::default(),
            events: EventEngine::default(),
            rpc: RpcEngine::default(),
            files: FileEngine::default(),
            reassembler: Reassembler::new(ProtoDuration::from_secs(5)),
            timers: BinaryHeap::new(),
            timer_info: HashMap::new(),
            next_timer_id: 0,
            next_request_id: 0,
            next_msg_id: 0,
            next_task_seq: 0,
            incarnation: 1,
            running: false,
            started_at: Micros::ZERO,
            last_heartbeat: None,
            last_announce: None,
            last_announce_digest: None,
            last_forced_reannounce: None,
            reannounce_pending: false,
            subs_dirty: true,
            last_interest_retry: None,
            active_links: BTreeSet::new(),
            links_changed: false,
            advertised_load: 0,
            link_scratch: Vec::new(),
            sweep_scratch: Vec::new(),
            stats: ContainerStats::default(),
            log: VecDeque::new(),
            tracer: Tracer::new(config.node, config.trace),
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
    /// and heartbeats; peers purge cached provisions from older lives).
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

    /// Counter snapshot (merges the per-engine mismatch and QoS counters).
    pub fn stats(&self) -> ContainerStats {
        let mut stats = self.stats;
        stats.type_mismatches = crate::stats::TypeMismatchStats {
            vars: self.vars.type_mismatches,
            events: self.events.type_mismatches,
            calls: self.rpc.type_mismatches,
            files: self.files.type_mismatches,
        };
        stats.qos = QosStats {
            deadline_misses: self.vars.total_deadline_misses(),
            stale_drops: self.vars.total_stale_drops(),
            queue_drops: self.events.total_queue_drops(),
            retries: self.rpc.retries,
        };
        stats.publish_to_deliver = self.tracer.publish_to_deliver;
        stats.event_to_deliver = self.tracer.event_to_deliver;
        stats.call_rtt = self.tracer.call_rtt;
        stats.rto_recovery = self.tracer.rto_recovery;
        stats
    }

    /// Gauge snapshot: how full each bounded table is right now.
    pub fn occupancy(&self) -> Occupancy {
        Occupancy {
            directory_nodes: self.directory.nodes().len(),
            directory_provisions: self.directory.provision_count(),
            links: self.links.len(),
            active_links: self.active_links.len(),
            vars_bound: self.vars.bound_count(),
            remote_subscribers: self.vars.remote_subscriber_count()
                + self.events.remote_subscriber_count(),
            pending_calls: self.rpc.pending.len(),
            files_sending: self.files.sending_count(),
            files_receiving: self.files.receiving_count(),
            reassembling: self.reassembler.pending_count(),
            timers: self.timers.len(),
            queued_tasks: self.scheduler.len(),
        }
    }

    /// The flight-recorder ring of this life (oldest first; see
    /// [`TraceConfig`] for sizing and the disable switch).
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
        let name = Name::new(name).ok()?;
        self.vars.subscribed.get(&name).map(|s| VarSubscriptionStats {
            deadline_misses: s.deadline_misses,
            stale_drops: s.stale_drops,
            history_len: s.history.len(),
        })
    }

    /// QoS counters of a subscribed event channel (summed over this
    /// container's local subscribers of that name).
    pub fn event_qos_stats(&self, name: &str) -> Option<EventSubscriptionStats> {
        let name = Name::new(name).ok()?;
        self.events.subscribed.get(&name).map(|s| EventSubscriptionStats {
            queue_drops: s.total_drops(),
            inbox_peak: s.inbox_peak(),
        })
    }

    /// Transparent re-dispatches performed for calls to `name`.
    pub fn fn_retries(&self, name: &str) -> u64 {
        Name::new(name).ok().and_then(|n| self.rpc.retry_counts.get(&n)).copied().unwrap_or(0)
    }

    /// Freshness snapshot of every subscribed variable channel, in name
    /// order — the observability surface the chaos invariants check
    /// (a bound channel must either deliver within its validity window or
    /// raise the timeout warning; silent staleness is a middleware bug).
    pub fn var_channels(&self) -> Vec<(Name, crate::stats::VarChannelView)> {
        sorted_keys(&self.vars.subscribed)
            .into_iter()
            .map(|name| {
                let s = &self.vars.subscribed[&name];
                let view = crate::stats::VarChannelView {
                    bound: s.provider.is_some(),
                    period_us: s.period_us,
                    validity_us: s.validity_us,
                    deadline_us: s.deadline_us(),
                    last_rx: s.last_rx,
                    last_stamp: s.history.back().map(|(stamp, _)| *stamp),
                    timed_out: s.timed_out,
                };
                (name, view)
            })
            .collect()
    }

    /// The name directory (read access for tests/tools).
    pub fn directory(&self) -> &Directory {
        &self.directory
    }

    /// Queued handler invocations.
    pub fn scheduler_len(&self) -> usize {
        self.scheduler.len()
    }

    /// `true` between `start` and `stop`.
    pub fn is_running(&self) -> bool {
        self.running
    }

    /// Aggregated ARQ statistics over all reliable links.
    pub fn arq_stats(&self) -> marea_protocol::arq::ArqStats {
        let mut total = marea_protocol::arq::ArqStats::default();
        // marea-lint: allow(D1): commutative counter sums; no sends, order cannot reach the wire
        for link in self.links.values() {
            let s = link.stats();
            total.sent += s.sent;
            total.retransmitted += s.retransmitted;
            total.acked += s.acked;
            total.failed += s.failed;
            total.payload_bytes += s.payload_bytes;
        }
        total
    }

    /// Aggregated FEC statistics over all *live* reliable links.
    ///
    /// Unlike [`ServiceContainer::stats`] (whose FEC counters accumulate per event
    /// and survive link teardown), this sums the current links' endpoint
    /// counters — useful for inspecting a single link's behaviour in tests.
    pub fn fec_link_stats(
        &self,
    ) -> (marea_protocol::fec::FecTxStats, marea_protocol::fec::FecRxStats) {
        let mut tx = marea_protocol::fec::FecTxStats::default();
        let mut rx = marea_protocol::fec::FecRxStats::default();
        // marea-lint: allow(D1): commutative counter sums; no sends, order cannot reach the wire
        for link in self.links.values() {
            let t = link.fec_tx_stats();
            tx.data_shards += t.data_shards;
            tx.parity_shards += t.parity_shards;
            tx.bypassed += t.bypassed;
            tx.groups += t.groups;
            let r = link.fec_rx_stats();
            rx.data_shards += r.data_shards;
            rx.parity_shards += r.parity_shards;
            rx.recovered += r.recovered;
            rx.unrecoverable_groups += r.unrecoverable_groups;
            rx.discarded += r.discarded;
        }
        (tx, rx)
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

        for p in descriptor.provides() {
            match p {
                Provision::Variable { name, ty, validity_us, .. } => {
                    self.vars.published.insert(
                        name.clone(),
                        PublishedVar {
                            owner_seq: seq,
                            ty: ty.clone(),
                            validity_us: *validity_us,
                            seq: 0,
                            last: None,
                            remote_subscribers: Default::default(),
                        },
                    );
                }
                Provision::Event { name, ty } => {
                    self.events.published.insert(
                        name.clone(),
                        PublishedEvent {
                            owner_seq: seq,
                            ty: ty.clone(),
                            seq: 0,
                            remote_subscribers: Default::default(),
                        },
                    );
                }
                Provision::Function { name, sig } => {
                    self.rpc
                        .functions
                        .insert(name.clone(), LocalFunction { owner_seq: seq, sig: sig.clone() });
                }
                Provision::FileResource { .. } => {}
            }
        }
        for sub in descriptor.var_subscriptions() {
            let entry = self
                .vars
                .subscribed
                .entry(sub.name.clone())
                .or_insert_with(|| SubscribedVar::new(&sub.qos));
            entry.services.push(seq);
            entry.merge_qos(&sub.qos);
        }
        for sub in descriptor.event_subscriptions() {
            self.events
                .subscribed
                .entry(sub.name.clone())
                .or_insert_with(SubscribedEvent::new)
                .subscribers
                .push(EventSubscriber::new(seq, sub.qos));
        }
        for name in descriptor.file_interests() {
            self.files.interests.entry(name.clone()).or_default().services.push(seq);
        }
        for name in descriptor.required_functions() {
            self.rpc.required.entry(name.clone()).or_default().services.push(seq);
        }

        self.slots.push(ServiceSlot {
            seq,
            service: Some(service),
            descriptor,
            state: ServiceState::Starting,
        });
        let id = ServiceId::new(self.config.node, seq);
        if self.running {
            self.push_task(Priority::LIFECYCLE, seq, TaskPayload::Start);
            // Force the next announce slot: the catalogue changed, so the
            // digest check in emit_periodics sends the full catalogue.
            self.last_announce = None;
            self.subs_dirty = true;
        }
        Ok(id)
    }

    /// Starts the container: joins the control group, announces itself and
    /// schedules every service's `on_start`.
    pub fn start(&mut self, now: Micros) {
        if self.running {
            return;
        }
        self.running = true;
        self.started_at = now;
        self.subs_dirty = true;
        self.tracer.record(now, TraceKind::NodeStart, TraceId::NONE, None, self.incarnation, None);
        self.transport.join(GroupId::CONTROL.0);
        self.directory.apply_hello(
            self.config.node,
            self.config.name.clone(),
            self.incarnation,
            self.config.fec.advertised_cap().wire_tag(),
            now,
        );
        let entries = self.announce_entries();
        self.directory.apply_announce(self.config.node, &entries, now);
        self.send_message(
            TransportDestination::Group(GroupId::CONTROL.0),
            &Message::Hello {
                container: self.config.name.clone(),
                incarnation: self.incarnation,
                fec_cap: self.config.fec.advertised_cap().wire_tag(),
            },
        );
        self.broadcast_announce(now);
        let seqs: Vec<u32> = self.slots.iter().map(|s| s.seq).collect();
        for seq in seqs {
            self.push_task(Priority::LIFECYCLE, seq, TaskPayload::Start);
        }
    }

    /// Stops the container: runs every `on_stop`, says `Bye`.
    pub fn stop(&mut self, now: Micros) {
        if !self.running {
            return;
        }
        let seqs: Vec<u32> = self
            .slots
            .iter()
            .filter(|s| s.state.is_available() || s.state == ServiceState::Starting)
            .map(|s| s.seq)
            .collect();
        for seq in seqs {
            self.push_task(Priority::LIFECYCLE, seq, TaskPayload::Stop);
        }
        while let Some(task) = self.scheduler.pop() {
            self.execute_task(task, now);
        }
        self.send_message(TransportDestination::Group(GroupId::CONTROL.0), &Message::Bye);
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
            self.directory.apply_heartbeat(
                self.config.node,
                self.incarnation,
                load,
                self.config.fec.advertised_cap().wire_tag(),
                now,
            );
        }

        self.pump_transport(now);
        self.detect_failures(now);
        // Maintenance only runs when something that feeds name resolution
        // actually changed (`subs_dirty`), plus a cadence fallback that
        // keeps waiting file interests re-trying their seen announces.
        let interests_due = !self.files.interests.is_empty()
            && self
                .last_interest_retry
                .map(|t| now.saturating_since(t) >= self.config.file_query_interval)
                .unwrap_or(true);
        if self.subs_dirty || interests_due {
            self.subs_dirty = false;
            if interests_due {
                self.last_interest_retry = Some(now);
            }
            self.maintain_subscriptions(now);
        }
        self.fire_timers(now);
        self.sweep_variable_deadlines(now);
        self.sweep_call_timeouts(now);
        self.poll_links(now);
        self.pump_files(now);
        self.emit_periodics(now);
        self.run_tasks(now);
        let len = self.scheduler.len();
        if len > self.stats.queue_peak {
            self.stats.queue_peak = len;
        }
        self.reassembler.expire(now);
    }

    /// The earliest instant (on this container's clock) at which
    /// [`tick`](Self::tick) has work that does not arrive through the
    /// transport; `None` when only a datagram can give it any. A driver
    /// that delivers datagrams itself may skip every tick before this
    /// instant for as long as the inbox stays empty: such a tick would
    /// change nothing but [`ContainerStats::ticks`].
    ///
    /// The answer is the minimum over every due date the tick phases
    /// compare `now` against (timers, directory expiry, variable and call
    /// deadlines, reassembly expiry, the heartbeat / announce / interest-
    /// retry cadences, file completion queries, each active link's next
    /// retransmission or FEC flush). State whose next step is not one
    /// date — a dirty subscription table, queued handler invocations, an
    /// acknowledgement owed, file chunks waiting for their burst —
    /// answers *now* ([`Micros::ZERO`]): early is always sound,
    /// because the tick it causes is one an every-tick driver runs anyway.
    /// Valid until the next `tick` or other `&mut self` call; `tick` itself
    /// never consults it.
    pub fn next_due(&self) -> Option<Micros> {
        if !self.running {
            return None;
        }
        if self.subs_dirty || !self.scheduler.is_empty() {
            return Some(Micros::ZERO);
        }
        // An active link without a table entry is one the poll sweep is
        // about to drop: at once, too.
        let links = self.active_links.iter().map(|peer| {
            self.links.get(peer).map_or(Some(Micros::ZERO), ReliableLink::next_poll_due)
        });
        let cadence = |last: Option<Micros>, period: ProtoDuration| match last {
            Some(t) => t + period,
            None => Micros::ZERO,
        };
        let config = &self.config;
        let dated = [
            self.timers.peek().map(|&Reverse((due, _))| due),
            self.directory.next_expiry(config.node_timeout),
            self.vars.next_deadline(),
            self.rpc.next_deadline(),
            self.reassembler.next_expiry(),
            self.files.next_pump_due(config.file_query_interval),
            Some(cadence(self.last_heartbeat, config.heartbeat_period)),
            Some(cadence(self.last_announce, config.announce_period)),
            self.reannounce_pending
                .then(|| cadence(self.last_forced_reannounce, config.announce_period)),
            (!self.files.interests.is_empty())
                .then(|| cadence(self.last_interest_retry, config.file_query_interval)),
        ];
        dated.into_iter().chain(links).flatten().min()
    }

    fn load_permille(&self) -> u16 {
        let budget = self.config.tick_budget.max(1);
        ((self.scheduler.len().min(budget) * 1000) / budget) as u16
    }

    // ---- timers -------------------------------------------------------------

    fn fire_timers(&mut self, now: Micros) {
        while let Some(&Reverse((due, tid))) = self.timers.peek() {
            if due > now {
                break;
            }
            self.timers.pop();
            let Some(info) = self.timer_info.get(&tid) else { continue };
            if info.cancelled {
                self.timer_info.remove(&tid);
                continue;
            }
            let seq = info.service_seq;
            let period = info.period;
            self.push_task(Priority::TIMER, seq, TaskPayload::Timer { id: TimerId(tid) });
            match period {
                Some(p) => self.timers.push(Reverse((due + p, tid))),
                None => {
                    self.timer_info.remove(&tid);
                }
            }
        }
    }

    // ---- task execution -------------------------------------------------------

    fn push_task(&mut self, priority: Priority, service_seq: u32, payload: TaskPayload) {
        self.next_task_seq += 1;
        self.scheduler.push(Task {
            priority,
            enqueued_seq: self.next_task_seq,
            service_seq,
            payload,
        });
    }

    fn run_tasks(&mut self, now: Micros) {
        for _ in 0..self.config.tick_budget {
            let Some(task) = self.scheduler.pop() else { break };
            self.execute_task(task, now);
        }
    }

    fn execute_task(&mut self, task: Task, now: Micros) {
        self.stats.tasks_executed += 1;
        // A DeliverEvent leaving the queue frees its subscription's inbox
        // slot — even when the target service turns out to be unavailable
        // below, so the bound accounting can never leak.
        if let TaskPayload::DeliverEvent { name, .. } = &task.payload {
            if let Some(sub) = self.events.subscribed.get_mut(name) {
                sub.dec_inbox(task.service_seq);
            }
        }
        let idx = (task.service_seq as usize).wrapping_sub(1);
        let payload = task.payload;
        let lifecycle = matches!(payload, TaskPayload::Start | TaskPayload::Stop);

        // Phase 1: extract the service from its slot.
        let (mut service, service_name, seq) = {
            let Some(slot) = self.slots.get_mut(idx) else { return };
            if !lifecycle && !slot.state.is_available() && slot.state != ServiceState::Starting {
                return;
            }
            let Some(service) = slot.service.take() else { return };
            (service, slot.descriptor.name().clone(), slot.seq)
        };

        // Phase 2: run the handler with a fresh context.
        let mut effects: Vec<Effect> = Vec::new();
        let mut next_request_id = self.next_request_id;
        let mut next_timer_id = self.next_timer_id;
        let node = self.config.node;
        let mut call_outcome: Option<(RequestId, NodeId, Name, Result<Value, String>)> = None;

        let panicked = {
            let mut ctx = ServiceContext {
                now,
                node,
                service_name: &service_name,
                service_seq: seq,
                effects: &mut effects,
                next_request_id: &mut next_request_id,
                next_timer_id: &mut next_timer_id,
                var_state: Some(&self.vars.subscribed),
            };
            let unwind = catch_unwind(AssertUnwindSafe(|| match &payload {
                TaskPayload::Start => {
                    service.on_start(&mut ctx);
                    None
                }
                TaskPayload::Stop => {
                    service.on_stop(&mut ctx);
                    None
                }
                TaskPayload::DeliverVariable { name, value, stamp, .. } => {
                    service.on_variable(&mut ctx, name, value, *stamp);
                    None
                }
                TaskPayload::VariableTimeout { name } => {
                    service.on_variable_timeout(&mut ctx, name);
                    None
                }
                TaskPayload::DeliverEvent { name, value, stamp, .. } => {
                    service.on_event(&mut ctx, name, value.as_ref(), *stamp);
                    None
                }
                TaskPayload::ExecuteCall { request, caller, function, args, .. } => {
                    let result = service.on_call(&mut ctx, function, args);
                    Some((*request, *caller, function.clone(), result))
                }
                TaskPayload::DeliverReply { request, result } => {
                    service.on_reply(&mut ctx, CallHandle(*request), result.clone());
                    None
                }
                TaskPayload::File(ev) => {
                    service.on_file_event(&mut ctx, ev);
                    None
                }
                TaskPayload::FileBypass { resource, revision, data } => {
                    service.on_file_event(
                        &mut ctx,
                        &FileEvent::Received {
                            resource: resource.clone(),
                            revision: *revision,
                            data: data.clone(),
                        },
                    );
                    None
                }
                TaskPayload::Provider(notice) => {
                    service.on_provider_change(&mut ctx, notice);
                    None
                }
                TaskPayload::Timer { id } => {
                    service.on_timer(&mut ctx, *id);
                    None
                }
            }));
            match unwind {
                Ok(outcome) => {
                    call_outcome = outcome;
                    false
                }
                Err(_) => true,
            }
        };

        self.next_request_id = next_request_id;
        self.next_timer_id = next_timer_id;

        // Phase 3: restore the service.
        if let Some(slot) = self.slots.get_mut(idx) {
            slot.service = Some(service);
        }

        // Phase 4: accounting and follow-up.
        if panicked {
            // Watchdog: a panicking service is marked failed and the fleet
            // is told (§3: the container watches "for their correct
            // operation and notif[ies] the rest of containers").
            self.stats.services_failed += 1;
            self.log_line(now, format!("service `{service_name}` panicked; marked failed"));
            self.set_service_state(seq, ServiceState::Failed, now);
            return;
        }
        match &payload {
            TaskPayload::Start => {
                let starting =
                    self.slots.get(idx).map(|s| s.state == ServiceState::Starting).unwrap_or(false);
                if starting {
                    self.set_service_state(seq, ServiceState::Running, now);
                }
            }
            TaskPayload::Stop => self.set_service_state(seq, ServiceState::Stopped, now),
            TaskPayload::DeliverVariable { name, stamp, seq: sample_seq, trace, .. } => {
                self.stats.var_samples_delivered += 1;
                self.tracer.record_var_latency(now.saturating_since(*stamp).as_micros());
                self.tracer.record(
                    now,
                    TraceKind::VarDeliver,
                    *trace,
                    None,
                    *sample_seq,
                    Some(name),
                );
            }
            TaskPayload::DeliverEvent { name, stamp, seq: event_seq, trace, .. } => {
                self.stats.events_delivered += 1;
                let latency = now.saturating_since(*stamp).as_micros();
                self.stats.event_latency_sum_us += latency;
                if latency > self.stats.event_latency_max_us {
                    self.stats.event_latency_max_us = latency;
                }
                self.tracer.record_event_latency(latency);
                self.tracer.record(
                    now,
                    TraceKind::EventDeliver,
                    *trace,
                    None,
                    *event_seq,
                    Some(name),
                );
            }
            TaskPayload::ExecuteCall { .. } => self.stats.calls_served += 1,
            TaskPayload::FileBypass { .. } => self.stats.file_bypass_deliveries += 1,
            _ => {}
        }
        let call_trace = match &payload {
            TaskPayload::ExecuteCall { trace, .. } => *trace,
            _ => TraceId::NONE,
        };
        if let Some((request, caller, function, result)) = call_outcome {
            self.finish_call(request, caller, &function, result, call_trace, now);
        }
        self.apply_effects(seq, effects, now);
    }

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
            let Some(call) = self.rpc.pending.remove(&request) else { return };
            let result = result.map_err(CallError::App);
            if result.is_err() {
                self.stats.call_errors += 1;
            }
            self.tracer.record_call_rtt(now.saturating_since(call.started_at).as_micros());
            self.tracer.record(
                now,
                TraceKind::CallReply,
                call.trace,
                None,
                request.0,
                Some(function),
            );
            self.push_task(
                Priority::CALL,
                call.caller_seq,
                TaskPayload::DeliverReply { request, result },
            );
        } else {
            let codec = self.codecs.default_codec().clone();
            let returns = self.rpc.functions.get(function).and_then(|f| f.sig.returns.clone());
            let msg = match result {
                Ok(value) => match encode_result(&value, &returns, codec.as_ref()) {
                    Ok(payload) => Message::CallReply {
                        request,
                        status: CallStatus::Ok,
                        trace: trace.wire(),
                        codec: codec.id().0,
                        payload,
                    },
                    Err(e) => {
                        // The provider returned a value that violates its
                        // own declared return schema.
                        self.rpc.type_mismatches += 1;
                        Message::CallReply {
                            request,
                            status: CallStatus::AppError,
                            trace: trace.wire(),
                            codec: codec.id().0,
                            payload: Bytes::from(e.to_string().into_bytes()),
                        }
                    }
                },
                Err(e) => Message::CallReply {
                    request,
                    status: CallStatus::AppError,
                    trace: trace.wire(),
                    codec: codec.id().0,
                    payload: Bytes::from(e.into_bytes()),
                },
            };
            self.send_reliable(caller, &msg, now);
        }
    }

    fn set_service_state(&mut self, seq: u32, state: ServiceState, now: Micros) {
        let name = {
            let Some(slot) = self.slots.iter_mut().find(|s| s.seq == seq) else { return };
            if slot.state == state {
                return;
            }
            slot.state = state;
            slot.descriptor.name().clone()
        };
        self.directory.apply_status(self.config.node, seq, state);
        self.subs_dirty = true;
        let msg = Message::ServiceStatus { service_seq: seq, name, state };
        self.send_message(TransportDestination::Group(GroupId::CONTROL.0), &msg);
        let _ = now;
    }

    // ---- effects ---------------------------------------------------------------

    fn apply_effects(&mut self, seq: u32, effects: Vec<Effect>, now: Micros) {
        for effect in effects {
            match effect {
                Effect::Publish { name, value } => self.effect_publish(seq, name, value, now),
                Effect::Emit { name, value } => self.effect_emit(seq, name, value, now),
                Effect::Call { handle, function, args, options } => {
                    self.effect_call(seq, handle, function, args, options, now)
                }
                Effect::PublishFile { resource, data } => {
                    self.effect_publish_file(seq, resource, data, now)
                }
                Effect::SubscribeFile { resource } => {
                    let interest = self.files.interests.entry(resource.clone()).or_default();
                    if !interest.services.contains(&seq) {
                        interest.services.push(seq);
                    }
                    self.subs_dirty = true;
                    self.try_local_file_bypass(&resource);
                }
                Effect::SetTimer { id, after, period } => {
                    self.timer_info
                        .insert(id.0, TimerInfo { service_seq: seq, period, cancelled: false });
                    self.timers.push(Reverse((now + after, id.0)));
                }
                Effect::CancelTimer { id } => {
                    if let Some(info) = self.timer_info.get_mut(&id.0) {
                        info.cancelled = true;
                    }
                }
                Effect::Log { line } => self.log_line(now, line),
                Effect::SetDegraded { degraded } => {
                    let state =
                        if degraded { ServiceState::Degraded } else { ServiceState::Running };
                    self.set_service_state(seq, state, now);
                }
                Effect::StopSelf => {
                    self.push_task(Priority::LIFECYCLE, seq, TaskPayload::Stop);
                }
            }
        }
    }

    fn effect_publish(&mut self, seq: u32, name: Name, value: Value, now: Micros) {
        let codec = self.codecs.default_codec().clone();
        let prepared = {
            let Some(pv) = self.vars.published.get_mut(&name) else {
                self.log_line(now, format!("publish to undeclared variable `{name}` dropped"));
                return;
            };
            if pv.owner_seq != seq {
                self.log_line(now, format!("publish to foreign variable `{name}` dropped"));
                return;
            }
            if let Err(e) = value.conforms_to(&pv.ty) {
                self.vars.type_mismatches += 1;
                self.log_line(now, format!("publish to `{name}` violates schema: {e}"));
                return;
            }
            let Ok(payload) = codec.encode_to_vec(&value, &pv.ty) else { return };
            let payload = Bytes::from(payload);
            pv.seq += 1;
            pv.last = Some((payload.clone(), now));
            (
                payload,
                pv.seq,
                pv.validity_us,
                pv.remote_subscribers.iter().copied().collect::<Vec<NodeId>>(),
            )
        };
        let (payload, sample_seq, validity_us, remote_subscribers) = prepared;
        self.stats.vars_published += 1;
        let trace = self.tracer.mint();
        self.tracer.record(now, TraceKind::VarPublish, trace, None, sample_seq, Some(&name));

        // Local delivery (Fig. 2 in-container path).
        let local = {
            match self.vars.subscribed.get_mut(&name) {
                Some(sub) => {
                    if sub.accept(sample_seq, now) {
                        sub.record(now, value.clone());
                        Some(sub.services.clone())
                    } else {
                        None
                    }
                }
                None => None,
            }
        };
        if let Some(services) = local {
            self.vars.arm_deadline(&name);
            for svc in services {
                self.push_task(
                    Priority::VARIABLE,
                    svc,
                    TaskPayload::DeliverVariable {
                        name: name.clone(),
                        value: value.clone(),
                        stamp: now,
                        seq: sample_seq,
                        trace,
                    },
                );
            }
        }

        let msg = Message::VarSample {
            name: name.clone(),
            seq: sample_seq,
            stamp_us: now.as_micros(),
            validity_us,
            trace: trace.wire(),
            codec: codec.id().0,
            payload,
        };
        match self.config.var_distribution {
            VarDistribution::Multicast => {
                self.send_message(TransportDestination::Group(var_group(&name).0), &msg);
            }
            VarDistribution::UnicastFanout => {
                for node in remote_subscribers {
                    self.send_message(TransportDestination::Node(node.0), &msg);
                }
            }
        }
    }

    fn effect_emit(&mut self, seq: u32, name: Name, value: Option<Value>, now: Micros) {
        let codec = self.codecs.default_codec().clone();
        let info = {
            let Some(pe) = self.events.published.get(&name) else {
                self.log_line(now, format!("emit on undeclared event `{name}` dropped"));
                return;
            };
            if pe.owner_seq != seq {
                self.log_line(now, format!("emit on foreign event `{name}` dropped"));
                return;
            }
            pe.ty.clone()
        };
        let payload = match (&info, &value) {
            (Some(ty), Some(v)) => match codec.encode_to_vec(v, ty) {
                Ok(b) => Bytes::from(b),
                Err(e) => {
                    self.events.type_mismatches += 1;
                    self.log_line(now, format!("event `{name}` payload violates schema: {e}"));
                    return;
                }
            },
            (None, Some(_)) => {
                self.events.type_mismatches += 1;
                self.log_line(now, format!("event `{name}` declared bare; payload dropped"));
                Bytes::new()
            }
            _ => Bytes::new(),
        };
        let Some(pe) = self.events.published.get_mut(&name) else { return };
        pe.seq += 1;
        let (event_seq, remote) =
            (pe.seq, pe.remote_subscribers.iter().copied().collect::<Vec<NodeId>>());
        self.stats.events_published += 1;
        let trace = self.tracer.mint();
        self.tracer.record(now, TraceKind::EventEmit, trace, None, event_seq, Some(&name));

        // Local delivery, under each subscriber's declared contract.
        self.push_event_deliveries(&name, value.clone(), event_seq, now, trace, now);
        // Remote delivery over the reliable links.
        let msg = Message::EventData {
            name,
            seq: event_seq,
            stamp_us: now.as_micros(),
            trace: trace.wire(),
            codec: codec.id().0,
            payload,
        };
        for node in remote {
            self.send_reliable(node, &msg, now);
        }
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
        // Resolve the caller's contract against the container defaults:
        // the per-attempt deadline and the retry budget travel with the
        // pending call from here on.
        let attempt_timeout = options.deadline.unwrap_or(self.config.call_timeout);
        let max_attempts = options.retry_budget.unwrap_or(self.config.max_call_attempts).max(1);
        let policy = options.policy;
        let resolution = self
            .directory
            .resolve_function(function.as_str(), policy, None)
            .map(|p| (p.service, p.provision.clone()));
        let Some((target, Provision::Function { sig, .. })) = resolution else {
            self.stats.call_errors += 1;
            self.push_task(
                Priority::CALL,
                seq,
                TaskPayload::DeliverReply { request: handle.0, result: Err(CallError::NoProvider) },
            );
            return;
        };
        let codec = self.codecs.default_codec().clone();
        let payload = match encode_args(&args, &sig, codec.as_ref()) {
            Ok(p) => p,
            Err(e) => {
                // The caller's arguments disagree with the provider's
                // declared signature: the two sides hold `FnPort`s of the
                // same name but different argument types.
                self.rpc.type_mismatches += 1;
                self.stats.call_errors += 1;
                self.push_task(
                    Priority::CALL,
                    seq,
                    TaskPayload::DeliverReply { request: handle.0, result: Err(e) },
                );
                return;
            }
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
        let call = PendingCall {
            caller_seq: seq,
            function,
            args,
            target,
            returns: sig.returns.clone(),
            deadline: now + attempt_timeout,
            attempt_timeout,
            attempts: 1,
            max_attempts,
            policy,
            started_at: now,
            trace,
        };
        self.dispatch_call(handle.0, &call, payload, now);
        self.rpc.track(handle.0, call);
    }

    fn effect_publish_file(&mut self, seq: u32, resource: Name, data: Bytes, now: Micros) {
        let declared = self
            .slots
            .iter()
            .find(|s| s.seq == seq)
            .map(|s| {
                s.descriptor
                    .provides()
                    .iter()
                    .any(|p| matches!(p, Provision::FileResource { name } if name == &resource))
            })
            .unwrap_or(false);
        if !declared {
            self.files.type_mismatches += 1;
            self.log_line(now, format!("publish of undeclared file resource `{resource}` dropped"));
            return;
        }
        self.stats.files_published += 1;
        let announce = {
            match self.files.outgoing.get_mut(&resource) {
                Some(existing) => {
                    let Ok(announce) = existing.sender.bump_revision(data.clone()) else {
                        return;
                    };
                    existing.complete_notified = false;
                    existing.last_query_at = None;
                    announce
                }
                None => {
                    let transfer = self.files.alloc_transfer();
                    let Ok(sender) = FileSender::new(
                        transfer,
                        resource.clone(),
                        1,
                        data.clone(),
                        self.config.chunk_size,
                        file_group(&resource),
                    ) else {
                        return;
                    };
                    let announce = sender.announce();
                    self.files.transfer_index.insert(transfer, resource.clone());
                    self.files.outgoing.insert(
                        resource.clone(),
                        OutgoingFile {
                            sender,
                            owner_seq: seq,
                            last_query_at: None,
                            complete_notified: false,
                        },
                    );
                    announce
                }
            }
        };
        self.send_message(TransportDestination::Group(GroupId::CONTROL.0), &announce);
        self.try_local_file_bypass(&resource);
    }

    /// Same-node bypass (§4.4): interested local services get the data
    /// directly, no transfer ("the transfer is bypassed by the container as
    /// direct access to the resource").
    fn try_local_file_bypass(&mut self, resource: &Name) {
        let prepared = {
            let Some(out) = self.files.outgoing.get(resource) else { return };
            let revision = out.sender.revision();
            let data = out.sender.data();
            let Some(interest) = self.files.interests.get_mut(resource) else { return };
            if interest.completed_revision == Some(revision) || interest.services.is_empty() {
                return;
            }
            interest.completed_revision = Some(revision);
            (revision, data, interest.services.clone())
        };
        let (revision, data, services) = prepared;
        for svc in services {
            self.push_task(
                Priority::FILE,
                svc,
                TaskPayload::FileBypass {
                    resource: resource.clone(),
                    revision,
                    data: data.clone(),
                },
            );
        }
    }

    // ---- output helpers -----------------------------------------------------

    fn send_reliable(&mut self, peer: NodeId, msg: &Message, now: Micros) {
        let tagged = msg.encode_tagged();
        let fec = self.fec_cap_for(peer);
        let fresh_link = !self.links.contains_key(&peer);
        let out = {
            let link = self.links.entry(peer).or_insert_with(|| {
                let mut l = ReliableLink::new(peer, self.config.arq);
                l.negotiate_fec(fec);
                l
            });
            link.send(tagged, now)
        };
        if fresh_link {
            self.tracer.record(now, TraceKind::LinkUp, TraceId::NONE, Some(peer), 0, None);
        }
        self.active_links.insert(peer);
        self.send_link_messages(peer, out);
    }

    /// The code rate a link to `peer` should run: the weaker of our
    /// configured capability and what the peer advertised in its `Hello`.
    fn fec_cap_for(&self, peer: NodeId) -> FecRate {
        if !self.config.fec.enabled {
            return FecRate::Off;
        }
        let theirs = self
            .directory
            .node(peer)
            .map(|n| FecRate::from_wire_tag(n.fec_cap))
            .unwrap_or(FecRate::Off);
        self.config.fec.advertised_cap().negotiate(theirs)
    }

    /// Sends link wire messages to `peer`, counting outgoing FEC shards.
    ///
    /// Counted per event rather than recomputed from links because links
    /// are dropped when their peer dies and the counters must survive that.
    fn send_link_messages(&mut self, peer: NodeId, msgs: Vec<Message>) {
        for m in msgs {
            if let Message::FecShard { index, .. } = m {
                if index & PARITY_INDEX_BIT != 0 {
                    self.stats.fec.parity_shards_out += 1;
                } else {
                    self.stats.fec.data_shards_out += 1;
                }
            }
            self.send_message(TransportDestination::Node(peer.0), &m);
        }
    }

    fn send_message(&mut self, dest: TransportDestination, msg: &Message) {
        let mtu = self.transport.mtu();
        match msg.encode_within(self.config.node, mtu) {
            Encoded::Frame(wire) => self.send_wire(dest, wire),
            Encoded::Oversize(tagged) => {
                self.next_msg_id += 1;
                let budget = mtu.saturating_sub(96).max(128);
                let Ok(frags) = fragment_shared(self.next_msg_id, &tagged, budget) else {
                    return;
                };
                for frag in frags {
                    self.send_wire(dest, frag.encode_frame(self.config.node));
                }
            }
        }
    }

    fn send_wire(&mut self, dest: TransportDestination, wire: Bytes) {
        self.stats.frames_out += 1;
        self.stats.bytes_out += wire.len() as u64;
        let _ = self.transport.send(dest, wire);
    }

    fn log_line(&mut self, now: Micros, line: String) {
        if self.log.len() >= self.config.log_capacity {
            self.log.pop_front();
        }
        self.log.push_back((now, line));
    }
}

/// Stable group id for a variable's multicast group.
pub(crate) fn var_group(name: &Name) -> GroupId {
    GroupId(1 + (fnv1a(name.as_str().as_bytes()) & 0x3FFF_FFFE))
}

/// Stable group id for a file resource's multicast group.
pub(crate) fn file_group(name: &Name) -> GroupId {
    GroupId(0x4000_0000 | (fnv1a(name.as_str().as_bytes()) & 0x3FFF_FFFF))
}

fn fnv1a(bytes: &[u8]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for &b in bytes {
        h ^= u32::from(b);
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}
