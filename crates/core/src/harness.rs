//! Drivers: the deterministic simulation harness and the wall-clock driver.

use std::collections::{BTreeMap, HashMap};
use std::fmt;

use marea_netsim::{NetConfig, SimNet};
use marea_protocol::{Micros, NodeId, ProtoDuration};
use marea_transport::SimLanTransport;

use crate::clock::SystemClock;
use crate::container::{ContainerConfig, ServiceContainer};
use crate::metrics::{MetricsConfig, MetricsSampler};
use crate::service::Service;
use crate::trace::{TraceEvent, TraceId, TraceKind, TraceRing};

/// Rebuilds one service of a restarted node.
type Factory = Box<dyn Fn() -> Box<dyn Service> + Send>;

/// Per-node clock-skew state: a piecewise-linear local clock that drifts
/// against virtual time by `ppm` parts per million from `base_real` on.
#[derive(Debug, Clone, Copy)]
struct Skew {
    base_real: u64,
    base_local: u64,
    ppm: i64,
}

impl Skew {
    fn local(&self, now_us: u64) -> u64 {
        let delta = now_us.saturating_sub(self.base_real) as i128;
        let drift = delta * self.ppm as i128 / 1_000_000;
        let local = self.base_local as i128 + delta + drift;
        local.max(0) as u64
    }
}

/// Drives a fleet of containers over a simulated LAN on virtual time.
///
/// Virtual time advances on a fixed tick grid while the network delivers
/// datagrams in between — the same seed always reproduces the same run,
/// which is what makes the integration tests and benches exact. On each
/// grid step only the containers that have something to do are ticked
/// (next-event time advance, see [`step`](Self::step)); the outcome is the
/// one ticking every container on every step would produce.
///
/// # Examples
///
/// ```
/// use marea_core::{ContainerConfig, SimHarness};
/// use marea_netsim::NetConfig;
/// use marea_protocol::NodeId;
///
/// let mut h = SimHarness::new(NetConfig::default());
/// h.add_container(ContainerConfig::new("fcs", NodeId(1)));
/// h.add_container(ContainerConfig::new("payload", NodeId(2)));
/// h.start_all();
/// h.run_for_millis(50);
/// assert!(h.container(NodeId(1)).unwrap().directory().node_alive(NodeId(2)));
/// ```
pub struct SimHarness {
    net: SimNet,
    /// Live containers in tick order: registration order, a restarted
    /// node re-registering at the back. Boxed: a container is some 4 KiB
    /// inline, and the vector's growth slack would hold that per empty slot.
    slots: Vec<Box<ServiceContainer>>,
    /// Wake-time column, parallel to `slots`: the local-clock instant from
    /// which the container must be ticked — its
    /// [`next_due`](ServiceContainer::next_due) as of its last tick
    /// (`u64::MAX` for "only a datagram"), or 0 once anything outside a
    /// tick may have changed that answer (a datagram arrived, the
    /// container was handed out mutably, restarted, re-clocked). The step
    /// loop scans this dense column and touches a container only to tick
    /// it.
    wake: Vec<u64>,
    /// Node id → position in `slots`, in id order.
    index: BTreeMap<NodeId, usize>,
    /// Restart blueprints: the config every container was created with.
    configs: HashMap<NodeId, ContainerConfig>,
    /// Restart blueprints: service factories per node (only services added
    /// through [`SimHarness::add_service_factory`] survive a restart).
    factories: HashMap<NodeId, Vec<Factory>>,
    /// Lives per node: the incarnation the *next* restart announces.
    incarnations: HashMap<NodeId, u64>,
    /// Per-node clock skew (chaos: drifting avionics clocks).
    skews: HashMap<NodeId, Skew>,
    /// Black boxes of crashed nodes: the flight-recorder ring survives the
    /// container teardown and is re-adopted on restart.
    stashed_rings: HashMap<NodeId, TraceRing>,
    /// Periodic counter sampler ([`enable_metrics`](Self::enable_metrics));
    /// `None` (the default) costs one branch per step.
    metrics: Option<MetricsSampler>,
    tick_us: u64,
    now_us: u64,
    /// Scratch for the network's wake-up list (allocation reuse).
    woken: Vec<u32>,
    slots_visited: u64,
    ticks_run: u64,
}

impl fmt::Debug for SimHarness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let order: Vec<NodeId> = self.slots.iter().map(|c| c.node()).collect();
        f.debug_struct("SimHarness")
            .field("now_us", &self.now_us)
            .field("tick_us", &self.tick_us)
            .field("nodes", &order)
            .finish_non_exhaustive()
    }
}

impl SimHarness {
    /// Creates a harness over a fresh simulated network.
    pub fn new(net_config: NetConfig) -> Self {
        SimHarness {
            net: SimNet::new(net_config),
            slots: Vec::new(),
            wake: Vec::new(),
            index: BTreeMap::new(),
            configs: HashMap::new(),
            factories: HashMap::new(),
            incarnations: HashMap::new(),
            skews: HashMap::new(),
            stashed_rings: HashMap::new(),
            metrics: None,
            tick_us: 1_000,
            now_us: 0,
            woken: Vec::new(),
            slots_visited: 0,
            ticks_run: 0,
        }
    }

    /// Appends a live container to the tick order, due at once.
    fn register(&mut self, node: NodeId, container: ServiceContainer) {
        self.index.insert(node, self.slots.len());
        self.slots.push(Box::new(container));
        self.wake.push(0);
    }

    /// Takes a live container out of the tick order.
    fn unregister(&mut self, node: NodeId) -> Option<ServiceContainer> {
        let at = self.index.remove(&node)?;
        for later in self.index.values_mut().filter(|i| **i > at) {
            *later -= 1;
        }
        self.wake.remove(at);
        Some(*self.slots.remove(at))
    }

    /// Changes the container tick cadence (default 1 ms).
    pub fn set_tick_us(&mut self, tick_us: u64) {
        self.tick_us = tick_us.max(1);
    }

    /// The underlying simulated network (for fault injection and stats).
    pub fn network(&self) -> &SimNet {
        &self.net
    }

    /// Current virtual time.
    pub fn now(&self) -> Micros {
        Micros(self.now_us)
    }

    /// Adds a container attached to the simulated LAN. The config is kept
    /// as the node's restart blueprint (see
    /// [`restart_node`](Self::restart_node)).
    pub fn add_container(&mut self, config: ContainerConfig) -> NodeId {
        let node = config.node;
        let transport = SimLanTransport::attach(&self.net, node.0);
        let container = ServiceContainer::new(config.clone(), Box::new(transport));
        self.configs.insert(node, config);
        self.incarnations.entry(node).or_insert(1);
        self.register(node, container);
        node
    }

    /// Adds a service to the container on `node`.
    ///
    /// # Panics
    ///
    /// Panics if the node is unknown or the service collides with an
    /// existing one — harness wiring errors are programming errors.
    pub fn add_service(&mut self, node: NodeId, service: Box<dyn Service>) {
        self.container_mut(node)
            .expect("node registered with add_container")
            .add_service(service)
            .expect("service registration");
    }

    /// Adds a service *and* remembers how to rebuild it: the factory is
    /// invoked once now and again on every
    /// [`restart_node`](Self::restart_node), which rebuilds a crashed (or
    /// stopped) node from its blueprint — the original [`ContainerConfig`]
    /// plus these factories. Services added with the plain
    /// [`add_service`](Self::add_service) do not come back after a restart.
    ///
    /// ```
    /// use marea_core::{ContainerConfig, Service, SimHarness};
    /// use marea_netsim::NetConfig;
    /// use marea_protocol::NodeId;
    /// # struct Noop;
    /// # impl Service for Noop {
    /// #     fn descriptor(&self) -> marea_core::ServiceDescriptor {
    /// #         marea_core::ServiceDescriptor::builder("noop").build()
    /// #     }
    /// # }
    ///
    /// let mut h = SimHarness::new(NetConfig::default());
    /// h.add_container(ContainerConfig::new("fcs", NodeId(1)));
    /// h.add_service_factory(NodeId(1), || Box::new(Noop) as Box<dyn Service>);
    /// h.start_all();
    /// h.crash_node(NodeId(1));
    /// assert!(h.restart_node(NodeId(1)), "rebuilt from the blueprint");
    /// ```
    ///
    /// # Panics
    ///
    /// Panics like [`add_service`](Self::add_service) on wiring errors.
    pub fn add_service_factory<F>(&mut self, node: NodeId, factory: F)
    where
        F: Fn() -> Box<dyn Service> + Send + 'static,
    {
        self.add_service(node, factory());
        self.factories.entry(node).or_default().push(Box::new(factory));
    }

    /// Starts every container at the current virtual time.
    pub fn start_all(&mut self) {
        for i in 0..self.slots.len() {
            let now = Micros(self.local_time(self.slots[i].node()));
            self.slots[i].start(now);
            self.wake[i] = 0;
        }
    }

    /// Live container nodes, in id order.
    pub fn nodes(&self) -> Vec<NodeId> {
        self.index.keys().copied().collect()
    }

    /// Installs (or changes) a clock skew on `node`: its container is
    /// ticked with a local clock drifting `ppm` parts-per-million against
    /// virtual time from this moment on. The local clock stays monotonic
    /// across changes for any `ppm > -1_000_000`.
    pub fn set_clock_skew_ppm(&mut self, node: NodeId, ppm: i64) {
        let base_local = self.local_time(node);
        self.skews.insert(node, Skew { base_real: self.now_us, base_local, ppm });
        // The wake time was judged against the old clock.
        if let Some(&i) = self.index.get(&node) {
            self.wake[i] = 0;
        }
    }

    /// The local (possibly skewed) clock of `node` at the current virtual
    /// time.
    pub fn local_time(&self, node: NodeId) -> u64 {
        match self.skews.get(&node) {
            Some(s) => s.local(self.now_us),
            None => self.now_us,
        }
    }

    /// Immutable access to a container.
    pub fn container(&self, node: NodeId) -> Option<&ServiceContainer> {
        self.index.get(&node).map(|&i| &*self.slots[i])
    }

    /// The flight-recorder ring of `node`: the live container's, or the
    /// stashed black box if the node is currently crashed.
    pub fn trace_ring(&self, node: NodeId) -> Option<&TraceRing> {
        match self.container(node) {
            Some(c) => Some(c.trace_ring()),
            None => self.stashed_rings.get(&node),
        }
    }

    /// Every known node's flight-recorder ring (live or stashed), in node
    /// order — the input [`assemble_chain`](crate::trace::assemble_chain)
    /// expects.
    pub fn trace_rings(&self) -> Vec<(NodeId, &TraceRing)> {
        let mut nodes: Vec<NodeId> = self.configs.keys().copied().collect();
        nodes.sort();
        nodes.into_iter().filter_map(|n| self.trace_ring(n).map(|r| (n, r))).collect()
    }

    /// The cross-node causal chain of `trace`, assembled over every ring.
    pub fn trace_chain(&self, trace: TraceId) -> Vec<(NodeId, TraceEvent)> {
        crate::trace::assemble_chain(&self.trace_rings(), trace)
    }

    /// Mutable access to a container. Whatever the caller does with it
    /// may give the container work, so the node is ticked on the next
    /// step regardless of what it had scheduled.
    pub fn container_mut(&mut self, node: NodeId) -> Option<&mut ServiceContainer> {
        let &i = self.index.get(&node)?;
        self.wake[i] = 0;
        Some(&mut *self.slots[i])
    }

    /// Crashes a node: the container disappears without a `Bye` and its
    /// network endpoint is removed (failover experiments, C6) — a crashed
    /// box must stop receiving, not accumulate an unread inbox. The
    /// restart blueprint survives, so [`restart_node`](Self::restart_node)
    /// can bring the node back later.
    pub fn crash_node(&mut self, node: NodeId) {
        if let Some(mut container) = self.unregister(node) {
            if self.configs.get(&node).is_some_and(|c| c.trace_capacity > 0) {
                let incarnation = container.incarnation();
                let mut ring = container.take_trace_ring();
                ring.push(TraceEvent {
                    at: Micros(self.local_time(node)),
                    incarnation,
                    kind: TraceKind::NodeCrash,
                    trace: TraceId::NONE,
                    peer: None,
                    seq: 0,
                    name: None,
                });
                if let Some(older) = self.stashed_rings.remove(&node) {
                    ring.adopt(older);
                }
                self.stashed_rings.insert(node, ring);
            }
        }
        self.net.remove_node(node.0);
    }

    /// Rebuilds a node from its blueprint: re-attaches the network socket,
    /// recreates the container with a bumped incarnation, re-registers
    /// every factory-built service and starts it — which re-announces the
    /// catalogue so peers purge the previous life and re-converge.
    ///
    /// Returns `false` when the node was never added through
    /// [`add_container`](Self::add_container). A still-running container
    /// is crashed first (abrupt restart, no `Bye`).
    pub fn restart_node(&mut self, node: NodeId) -> bool {
        let Some(config) = self.configs.get(&node).cloned() else {
            return false;
        };
        if self.index.contains_key(&node) {
            self.crash_node(node);
        }
        let incarnation = {
            let life = self.incarnations.entry(node).or_insert(1);
            *life += 1;
            *life
        };
        // Socket rebind: `SimNet::socket` re-registers the removed node
        // with a fresh, empty inbox.
        let transport = SimLanTransport::attach(&self.net, node.0);
        let capacity = config.trace_capacity;
        let restart_at = Micros(self.local_time(node));
        let mut container = ServiceContainer::new(config, Box::new(transport));
        container.set_incarnation(incarnation);
        if capacity > 0 {
            // Black-box continuity: the previous lives' tail (if any) plus
            // a restart marker precede everything the new life records.
            let mut older =
                self.stashed_rings.remove(&node).unwrap_or_else(|| TraceRing::new(capacity));
            older.push(TraceEvent {
                at: restart_at,
                incarnation,
                kind: TraceKind::NodeRestart,
                trace: TraceId::NONE,
                peer: None,
                seq: 0,
                name: None,
            });
            container.adopt_trace_ring(older);
        }
        if let Some(factories) = self.factories.get(&node) {
            for factory in factories {
                container.add_service(factory()).expect("factory service registration");
            }
        }
        container.start(restart_at);
        self.register(node, container);
        true
    }

    /// Gracefully stops one node (emits `Bye`) and detaches it from the
    /// network — a stopped box must not keep accumulating datagrams.
    pub fn stop_node(&mut self, node: NodeId) {
        let now = Micros(self.local_time(node));
        if let Some(c) = self.container_mut(node) {
            c.stop(now);
            self.net.remove_node(node.0);
        }
    }

    /// Turns on the periodic metrics sampler: from now on, every time
    /// `config.period` of virtual time elapses, one [`MetricsFrame`]
    /// per container and one [`LinkFrame`] per active link are appended
    /// to the bounded timeline (read back through
    /// [`metrics`](Self::metrics)). Replaces any earlier sampler.
    ///
    /// [`MetricsFrame`]: crate::metrics::MetricsFrame
    /// [`LinkFrame`]: crate::metrics::LinkFrame
    pub fn enable_metrics(&mut self, config: MetricsConfig) {
        self.metrics = Some(MetricsSampler::new(config, Micros(self.now_us)));
    }

    /// The metrics timeline, if sampling is enabled.
    pub fn metrics(&self) -> Option<&MetricsSampler> {
        self.metrics.as_ref()
    }

    /// Advances virtual time by one tick: delivers due datagrams, then
    /// ticks — in registration order, each at its own (possibly skewed)
    /// local clock — every container that has work, then samples the
    /// metrics timeline if one is enabled and due.
    ///
    /// A container has work when a datagram just arrived for it or its
    /// [`next_due`](ServiceContainer::next_due) has come. The others are
    /// skipped: their tick would change nothing but
    /// [`ContainerStats::ticks`](crate::ContainerStats::ticks), so the run
    /// is the one an every-container sweep produces, for host time in
    /// proportion to events instead of nodes × steps
    /// ([`slots_visited`](Self::slots_visited) vs
    /// [`ticks_run`](Self::ticks_run)).
    pub fn step(&mut self) {
        self.now_us += self.tick_us;
        self.net.advance_to(self.now_us);
        self.net.drain_woken(&mut self.woken);
        for id in self.woken.drain(..) {
            if let Some(&i) = self.index.get(&NodeId(id)) {
                self.wake[i] = 0;
            }
        }
        let skewed = !self.skews.is_empty();
        for i in 0..self.slots.len() {
            let local = if skewed { self.local_time(self.slots[i].node()) } else { self.now_us };
            if self.wake[i] <= local {
                let container = &mut self.slots[i];
                container.tick(Micros(local));
                self.wake[i] = container.next_due().map_or(u64::MAX, |due| due.as_micros());
                self.ticks_run += 1;
            }
        }
        self.slots_visited += self.slots.len() as u64;
        if let Some(sampler) = self.metrics.as_mut() {
            if sampler.due(Micros(self.now_us)) {
                let fleet = self.index.values().map(|&i| &*self.slots[i]);
                sampler.sample_fleet(Micros(self.now_us), fleet, &self.net);
            }
        }
    }

    /// Container slots the step loop has looked at so far: grid steps ×
    /// live containers, i.e. the ticks an every-container sweep would
    /// have run.
    pub fn slots_visited(&self) -> u64 {
        self.slots_visited
    }

    /// Container ticks actually run. `1 − ticks_run / slots_visited` is
    /// the share of the grid the fleet sat idle.
    pub fn ticks_run(&self) -> u64 {
        self.ticks_run
    }

    /// Runs until virtual time `t_us`.
    pub fn run_until_us(&mut self, t_us: u64) {
        while self.now_us < t_us {
            self.step();
        }
    }

    /// Runs for an additional `ms` milliseconds of virtual time.
    pub fn run_for_millis(&mut self, ms: u64) {
        let target = self.now_us + ms * 1_000;
        self.run_until_us(target);
    }

    /// Runs for an additional duration of virtual time.
    pub fn run_for(&mut self, d: ProtoDuration) {
        let target = self.now_us + d.as_micros();
        self.run_until_us(target);
    }

    /// Steps the simulation until `pred` holds or `timeout` of virtual
    /// time has elapsed; returns whether the predicate was satisfied.
    ///
    /// This is the convergence-driven alternative to open-loop
    /// [`run_for_millis`](Self::run_for_millis) waits: tests state *what*
    /// they wait for instead of padding *how long*, so they neither flake
    /// under slowed convergence nor sleep past it.
    ///
    /// ```
    /// use marea_core::{ContainerConfig, SimHarness};
    /// use marea_netsim::NetConfig;
    /// use marea_protocol::{NodeId, ProtoDuration};
    ///
    /// let mut h = SimHarness::new(NetConfig::default());
    /// h.add_container(ContainerConfig::new("a", NodeId(1)));
    /// h.add_container(ContainerConfig::new("b", NodeId(2)));
    /// h.start_all();
    /// let discovered = h.run_until(
    ///     |h| h.container(NodeId(1)).unwrap().directory().node_alive(NodeId(2)),
    ///     ProtoDuration::from_secs(2),
    /// );
    /// assert!(discovered);
    /// ```
    pub fn run_until<F>(&mut self, mut pred: F, timeout: ProtoDuration) -> bool
    where
        F: FnMut(&SimHarness) -> bool,
    {
        let deadline = self.now_us + timeout.as_micros();
        loop {
            if pred(self) {
                return true;
            }
            if self.now_us >= deadline {
                return false;
            }
            self.step();
        }
    }
}

/// Drives one container against the wall clock (for the UDP transport and
/// interactive examples).
#[derive(Debug)]
pub struct RealtimeDriver {
    container: ServiceContainer,
    clock: SystemClock,
    tick: std::time::Duration,
}

impl RealtimeDriver {
    /// Wraps a container; `tick` is the polling cadence (1 ms is typical).
    pub fn new(container: ServiceContainer, tick: std::time::Duration) -> Self {
        RealtimeDriver { container, clock: SystemClock::new(), tick }
    }

    /// Starts the container at the current wall time.
    pub fn start(&mut self) {
        let now = self.clock.now();
        self.container.start(now);
    }

    /// Runs the tick loop for `duration`, sleeping between ticks.
    pub fn run_for(&mut self, duration: std::time::Duration) {
        // The driver's own clock is the wall-clock boundary: the loop reads
        // time through it, once per tick.
        let start = self.clock.now();
        loop {
            let now = self.clock.now();
            if u128::from(now.saturating_since(start).as_micros()) >= duration.as_micros() {
                break;
            }
            self.container.tick(now);
            // marea-lint: allow(D2): paces the wall-clock tick loop of the real-time driver
            std::thread::sleep(self.tick);
        }
    }

    /// Stops the container.
    pub fn stop(&mut self) {
        let now = self.clock.now();
        self.container.stop(now);
    }

    /// Access to the wrapped container.
    pub fn container(&self) -> &ServiceContainer {
        &self.container
    }

    /// Mutable access to the wrapped container.
    pub fn container_mut(&mut self) -> &mut ServiceContainer {
        &mut self.container
    }
}
