//! Drives one workload and measures it.
//!
//! One run = set-up (fleet build, start, discovery, settle, warm-up),
//! then the measured segment cut into equal fixed-work windows, then a drain with the sources stopped so that every offered
//! message can be accounted for. Host time is read only around the
//! windows; everything else is counted.

use std::net::SocketAddr;
use std::sync::atomic::Ordering::Relaxed;

use marea_core::{ContainerConfig, Micros, NodeId, ServiceContainer, SimHarness};
use marea_netsim::SimNet;
use marea_transport::{SimLanTransport, Transport, UdpTransport, UdpTransportConfig};

use crate::alloc;
use crate::clock;
use crate::gen::Gen;
use crate::services::{CallPacing, RpcCaller, RpcEcho, Shared, Tally};
use crate::spans::{self, Recorder, Span};
use crate::stats::{median, quantile, Samples};
use crate::traced::TracedTransport;
use crate::workloads::{fleet, FleetSpec, Sizing, Workload, UDP};

/// Which quantile of the windows' rates `deliveries_per_host_s` reports.
///
/// Every window is the same work, and a shared host only ever slows a
/// window down (by 1.2 – 2.4× for a fraction of a second to tens of
/// seconds on the reference host), so the fast end of the windows is the
/// code's own speed. Over ten runs in a noisy quarter of an hour the
/// quartile spread of the windows' median was 2.2 – 16.7 %, of their 90th
/// percentile 0.9 – 5.1 % (README, "Why the fast end").
pub const FAST_END: f64 = 0.9;

/// Simulated time within which discovery must converge. On
/// `command_lossy` a lost announce is pulled again an announce period
/// (2 s) later: of 160 seeds the slowest took 14 simulated seconds.
const DISCOVERY_LIMIT_US: u64 = 120_000_000;

/// One fixed-work window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Window {
    /// Host seconds the window took.
    pub host_s: f64,
    /// Correct deliveries that landed in it.
    pub deliveries: u64,
}

/// Fleet-wide sums of the containers' own counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FleetCounters {
    /// `ContainerStats::ticks`.
    pub ticks: u64,
    /// `ContainerStats::tasks_executed`.
    pub tasks_executed: u64,
    /// Largest `ContainerStats::queue_peak` of any node.
    pub queue_peak: u64,
    /// `ContainerStats::frames_out`.
    pub frames_out: u64,
    /// `ContainerStats::frames_in`.
    pub frames_in: u64,
    /// `ContainerStats::bytes_out` (bytes handed to `Transport::send`).
    pub bytes_out: u64,
    /// `ArqStats::retransmitted`.
    pub retransmits: u64,
    /// `ArqStats::failed`.
    pub arq_failed: u64,
    /// `FecStats::parity_shards_out`.
    pub fec_parity_out: u64,
    /// `FecStats::recovered`.
    pub fec_recovered: u64,
    /// `QosStats::deadline_misses`.
    pub deadline_misses: u64,
    /// `QosStats::queue_drops`.
    pub queue_drops: u64,
    /// `ContainerStats::call_errors`.
    pub call_errors: u64,
    /// `TypeMismatchStats::total`.
    pub type_mismatches: u64,
}

impl FleetCounters {
    fn add(&mut self, c: &ServiceContainer) {
        let s = c.stats();
        let arq = c.arq_stats();
        self.ticks += s.ticks;
        self.tasks_executed += s.tasks_executed;
        self.queue_peak = self.queue_peak.max(s.queue_peak as u64);
        self.frames_out += s.frames_out;
        self.frames_in += s.frames_in;
        self.bytes_out += s.bytes_out;
        self.retransmits += arq.retransmitted;
        self.arq_failed += arq.failed;
        self.fec_parity_out += s.fec.parity_shards_out;
        self.fec_recovered += s.fec.recovered;
        self.deadline_misses += s.qos.deadline_misses;
        self.queue_drops += s.qos.queue_drops;
        self.call_errors += s.call_errors;
        self.type_mismatches += s.type_mismatches.total();
    }

    /// `self − earlier` for the cumulative counters; `queue_peak` is a
    /// high-water mark and stays as it is.
    fn since(&self, earlier: &FleetCounters) -> FleetCounters {
        FleetCounters {
            ticks: self.ticks - earlier.ticks,
            tasks_executed: self.tasks_executed - earlier.tasks_executed,
            queue_peak: self.queue_peak,
            frames_out: self.frames_out - earlier.frames_out,
            frames_in: self.frames_in - earlier.frames_in,
            bytes_out: self.bytes_out - earlier.bytes_out,
            retransmits: self.retransmits - earlier.retransmits,
            arq_failed: self.arq_failed - earlier.arq_failed,
            fec_parity_out: self.fec_parity_out - earlier.fec_parity_out,
            fec_recovered: self.fec_recovered - earlier.fec_recovered,
            deadline_misses: self.deadline_misses - earlier.deadline_misses,
            queue_drops: self.queue_drops - earlier.queue_drops,
            call_errors: self.call_errors - earlier.call_errors,
            type_mismatches: self.type_mismatches - earlier.type_mismatches,
        }
    }
}

/// Everything one run measured. Counted fields cover the measured
/// segment unless they say otherwise.
#[derive(Debug)]
pub struct Run {
    /// Host seconds of each set-up (the last one carries the segment).
    pub setups_s: Vec<f64>,
    /// The fixed-work windows.
    pub windows: Vec<Window>,
    /// Container-clock length of the segment (µs).
    pub segment_virt_us: u64,
    /// Process CPU seconds over the segment, where the kernel tells.
    pub segment_cpu_s: Option<f64>,
    /// Allocator calls over the segment.
    pub allocs: u64,
    /// Live-bytes high-water mark over set-up and segment, above what
    /// was live when the workload started.
    pub heap_peak_bytes: u64,
    /// Payload bytes of the segment's correct deliveries.
    pub payload_bytes: u64,
    /// Latency of the segment's correct deliveries (container-clock µs).
    pub latency_us: Samples,
    /// Open-loop generator lateness over the segment (container-clock µs).
    pub lag_us: Samples,
    /// Host-time call round trips (traced UDP run only, ns).
    pub host_rtt_ns: Samples,
    /// Bytes put on the wire: `NetStats::bytes_sent`, or on UDP the bytes
    /// handed to `send`.
    pub wire_bytes: u64,
    /// Datagrams put on the wire (`NetStats::datagrams_sent`; on UDP the
    /// frames handed to `send`).
    pub datagrams: u64,
    /// `NetStats::dropped_loss` (0 on UDP).
    pub dropped_loss: u64,
    /// The containers' counters.
    pub counters: FleetCounters,
    /// Offered / delivered / bad from `go` to the end of the drain.
    pub totals: Tally,
    /// Whether the workload promises identical windows and no loss.
    pub steady: bool,
    /// The span recorder of a traced run.
    pub spans: Option<Recorder>,
}

impl Run {
    /// Correct deliveries in the segment.
    pub fn deliveries(&self) -> u64 {
        self.windows.iter().map(|w| w.deliveries).sum()
    }

    /// Host seconds of the segment.
    pub fn segment_host_s(&self) -> f64 {
        self.windows.iter().map(|w| w.host_s).sum()
    }

    /// Median set-up time.
    pub fn setup_s(&self) -> f64 {
        median(&self.setups_s)
    }

    /// Deliveries per host second of each window.
    pub fn window_rates(&self) -> Vec<f64> {
        self.windows.iter().map(|w| w.deliveries as f64 / w.host_s.max(1e-9)).collect()
    }

    /// The [`FAST_END`] quantile over the windows of deliveries per host
    /// second.
    pub fn deliveries_per_host_s(&self) -> f64 {
        quantile(&self.window_rates(), FAST_END)
    }

    /// The wider of (max − min) ÷ median over the windows' host times and
    /// over the set-up times: how unsteady the host was during this run.
    pub fn host_spread(&self) -> f64 {
        let spread = |values: &[f64]| {
            let (lo, hi) =
                values.iter().fold((f64::MAX, 0.0_f64), |(lo, hi), &v| (lo.min(v), hi.max(v)));
            (hi - lo) / median(values)
        };
        let windows: Vec<f64> = self.windows.iter().map(|w| w.host_s).collect();
        spread(&windows).max(spread(&self.setups_s))
    }

    /// Correct deliveries ÷ deliveries owed, over the whole offered load.
    pub fn delivery_ratio(&self) -> f64 {
        self.totals.correct_total() as f64 / self.totals.expected_total().max(1) as f64
    }

    /// Deliveries owed that did not arrive correct (missing, corrupt or
    /// answered with an error), plus duplicates, which arrived on top of
    /// what was owed.
    pub fn failed(&self) -> u64 {
        let t = &self.totals;
        t.expected_total().saturating_sub(t.correct_total()) + t.duplicates
    }
}

// ---- sim drivers ----------------------------------------------------------

/// The two ways to step a simulated fleet: the repository's harness
/// (untraced, what users run) and the benchmark's own copy of its step
/// loop with spans around every layer call.
enum SimDriver {
    Harness(Box<SimHarness>),
    Traced { net: SimNet, nodes: Vec<ServiceContainer>, tick_us: u64, now_us: u64 },
}

impl SimDriver {
    fn build(spec: FleetSpec, traced: bool) -> (SimDriver, Shared, Sizing) {
        let FleetSpec { net, nodes, shared, sizing } = spec;
        let driver = if traced {
            let net = SimNet::new(net);
            let nodes = nodes
                .into_iter()
                .map(|n| {
                    let transport = SimLanTransport::attach(&net, n.config.node.0);
                    let mut c =
                        ServiceContainer::new(n.config, Box::new(TracedTransport(transport)));
                    for s in n.services {
                        c.add_service(s).expect("benchmark services have unique names");
                    }
                    c
                })
                .collect();
            SimDriver::Traced { net, nodes, tick_us: sizing.tick_us, now_us: 0 }
        } else {
            let mut h = SimHarness::new(net);
            h.set_tick_us(sizing.tick_us);
            for n in nodes {
                let id = h.add_container(n.config);
                for s in n.services {
                    h.add_service(id, s);
                }
            }
            SimDriver::Harness(Box::new(h))
        };
        (driver, shared, sizing)
    }

    fn start_all(&mut self) {
        match self {
            SimDriver::Harness(h) => h.start_all(),
            SimDriver::Traced { nodes, now_us, .. } => {
                for c in nodes {
                    c.start(Micros(*now_us));
                }
            }
        }
    }

    fn now_us(&self) -> u64 {
        match self {
            SimDriver::Harness(h) => h.now().as_micros(),
            SimDriver::Traced { now_us, .. } => *now_us,
        }
    }

    /// What `SimHarness::step` does — deliver due datagrams, then tick
    /// every container in registration order — with a span per call.
    fn run_until_us(&mut self, t_us: u64) {
        match self {
            SimDriver::Harness(h) => h.run_until_us(t_us),
            SimDriver::Traced { net, nodes, tick_us, now_us } => {
                while *now_us < t_us {
                    let _step = spans::span(Span::DriverStep, 0);
                    *now_us += *tick_us;
                    {
                        let _net = spans::span(Span::NetsimAdvance, 0);
                        net.advance_to(*now_us);
                    }
                    for c in nodes.iter_mut() {
                        let _tick = spans::span(Span::ContainerTick, c.node().0);
                        c.tick(Micros(*now_us));
                    }
                }
            }
        }
    }

    fn run_for_us(&mut self, d_us: u64) {
        self.run_until_us(self.now_us() + d_us);
    }

    fn for_each_container(&self, mut f: impl FnMut(&ServiceContainer)) {
        match self {
            SimDriver::Harness(h) => {
                for n in h.nodes() {
                    f(h.container(n).expect("listed node"));
                }
            }
            SimDriver::Traced { nodes, .. } => nodes.iter().for_each(f),
        }
    }

    fn net(&self) -> &SimNet {
        match self {
            SimDriver::Harness(h) => h.network(),
            SimDriver::Traced { net, .. } => net,
        }
    }

    /// Every node sees every other node alive and holds the whole
    /// fleet's catalogue (`provisions` entries), so every subscription
    /// can resolve its provider.
    fn discovered(&self, provisions: usize) -> bool {
        let mut ids: Vec<NodeId> = Vec::new();
        self.for_each_container(|c| ids.push(c.node()));
        let mut all = true;
        self.for_each_container(|c| {
            let d = c.directory();
            all = all && d.provision_count() == provisions && ids.iter().all(|&n| d.node_alive(n));
        });
        all
    }
}

/// What the measurement procedure needs from a fleet, simulated or on
/// sockets. Work is in the fleet's own unit: simulated µs, or calls.
trait Fleet {
    fn shared(&self) -> &Shared;
    /// Constant rate on a clean link (see [`Sizing::steady`]).
    fn steady(&self) -> bool;
    /// The containers' clock (µs).
    fn clock_us(&self) -> u64;
    fn counters(&self) -> FleetCounters;
    /// How many windows the segment has, and the fixed work of each.
    fn windows(&self) -> (usize, u64);
    fn run_window(&mut self, work: u64);
    /// Lets in-flight traffic land after the sources stopped.
    fn drain(&mut self);
    /// Starts counting wire traffic afresh.
    fn reset_wire(&self);
    /// `(bytes, datagrams, dropped to loss)` put on the wire since
    /// [`reset_wire`](Fleet::reset_wire); `segment` is the segment's counters.
    fn wire(&self, segment: &FleetCounters) -> (u64, u64, u64);
}

struct SimFleet {
    driver: SimDriver,
    shared: Shared,
    sizing: Sizing,
}

impl Fleet for SimFleet {
    fn shared(&self) -> &Shared {
        &self.shared
    }
    fn steady(&self) -> bool {
        self.sizing.steady
    }
    fn clock_us(&self) -> u64 {
        self.driver.now_us()
    }
    fn counters(&self) -> FleetCounters {
        let mut sum = FleetCounters::default();
        self.driver.for_each_container(|c| sum.add(c));
        sum
    }
    fn windows(&self) -> (usize, u64) {
        (self.sizing.windows, self.sizing.window_us)
    }
    fn run_window(&mut self, work: u64) {
        self.driver.run_for_us(work);
    }
    fn drain(&mut self) {
        self.driver.run_for_us(self.sizing.drain_us);
    }
    fn reset_wire(&self) {
        self.driver.net().reset_stats();
    }
    fn wire(&self, _segment: &FleetCounters) -> (u64, u64, u64) {
        self.driver.net().with_stats(|n| (n.bytes_sent, n.datagrams_sent, n.dropped_loss))
    }
}

/// Builds, starts and warms a sim fleet; returns it with the sources
/// running and the host seconds all of that took.
fn setup_sim(workload: Workload, seed: u64, traced: bool) -> (SimFleet, f64) {
    let t0 = clock::now();
    let spec = fleet(workload, seed);
    let provisions: usize =
        spec.nodes.iter().flat_map(|n| &n.services).map(|s| s.descriptor().provides().len()).sum();
    let (mut driver, shared, sizing) = SimDriver::build(spec, traced);
    driver.start_all();
    // Discovery is checked every 50 simulated ms: the check is
    // quadratic in the fleet size, the steps in between are not.
    while !driver.discovered(provisions) {
        assert!(
            driver.now_us() < DISCOVERY_LIMIT_US,
            "{}: discovery did not converge in {DISCOVERY_LIMIT_US} simulated µs",
            workload.name()
        );
        driver.run_for_us(50_000);
    }
    driver.run_for_us(sizing.settle_us);
    shared.go.store(true, Relaxed);
    driver.run_for_us(sizing.warmup_us);
    (SimFleet { driver, shared, sizing }, t0.elapsed().as_secs_f64())
}

// ---- udp_rpc_loopback -----------------------------------------------------

/// Two containers over real UDP sockets on 127.0.0.1, ticked alternately
/// by this loop. Host loopback, no real link.
struct UdpPair {
    client: ServiceContainer,
    server: ServiceContainer,
    shared: Shared,
    now_us: u64,
    passes: u64,
}

impl UdpPair {
    /// One pass: advance the container clock by the quantum, tick both.
    ///
    /// The clock is a counter, not the host clock, so that latencies and
    /// timers are in the same container-clock units as on the sim
    /// workloads and repeat from run to run; the host cost of a pass is
    /// what `deliveries_per_host_s` measures.
    fn pass(&mut self) {
        let _step = spans::span(Span::DriverStep, 0);
        self.now_us += UDP.quantum_us;
        self.passes += 1;
        for c in [&mut self.client, &mut self.server] {
            let _tick = spans::span(Span::ContainerTick, c.node().0);
            c.tick(Micros(self.now_us));
        }
    }

    fn answered(&self) -> u64 {
        let t = self.shared.tally();
        t.correct_total() + t.bad()
    }
}

impl Fleet for UdpPair {
    fn shared(&self) -> &Shared {
        &self.shared
    }
    fn steady(&self) -> bool {
        true
    }
    fn clock_us(&self) -> u64 {
        self.now_us
    }
    fn counters(&self) -> FleetCounters {
        let mut sum = FleetCounters::default();
        sum.add(&self.client);
        sum.add(&self.server);
        sum
    }
    fn windows(&self) -> (usize, u64) {
        (UDP.windows, UDP.window_calls)
    }
    /// Passes until `calls` more calls have been answered (well or badly).
    fn run_window(&mut self, calls: u64) {
        let target = self.answered() + calls;
        let limit = self.passes + calls * 1_000 + 1_000_000;
        while self.answered() < target {
            assert!(self.passes < limit, "udp_rpc_loopback: calls stopped being answered");
            self.pass();
        }
    }
    fn drain(&mut self) {
        for _ in 0..UDP.drain_passes {
            self.pass();
        }
    }
    fn reset_wire(&self) {}
    /// No simulated network to ask: what the containers handed to `send`.
    fn wire(&self, segment: &FleetCounters) -> (u64, u64, u64) {
        (segment.bytes_out, segment.frames_out, 0)
    }
}

fn udp_container<T: Transport + 'static>(
    name: &str,
    node: u32,
    transport: T,
    traced: bool,
) -> ServiceContainer {
    let config = ContainerConfig::new(name, NodeId(node));
    if traced {
        ServiceContainer::new(config, Box::new(TracedTransport(transport)))
    } else {
        ServiceContainer::new(config, Box::new(transport))
    }
}

fn bind_loopback(node: u32) -> (UdpTransport, SocketAddr) {
    let t = UdpTransport::bind(UdpTransportConfig::new(node, "127.0.0.1:0"))
        .expect("binding a UDP socket on 127.0.0.1");
    let addr = t.local_addr().expect("bound socket has an address");
    (t, addr)
}

/// Binds, starts and warms the pair; returns it with the client calling.
fn setup_udp(seed: u64, traced: bool) -> (UdpPair, f64) {
    let t0 = clock::now();
    let shared = Shared::new(Gen::new(seed));
    let (mut ta, addr_a) = bind_loopback(1);
    let (mut tb, addr_b) = bind_loopback(2);
    ta.add_peer(2, addr_b);
    tb.add_peer(1, addr_a);
    let mut client = udp_container("udp-client", 1, ta, traced);
    let mut server = udp_container("udp-server", 2, tb, traced);
    let mut caller =
        RpcCaller::new(&shared, "bench/echo", UDP.arg_bytes, 0, CallPacing::OneOutstanding);
    caller.host_rtt = traced;
    client.add_service(Box::new(caller)).expect("one service per container");
    server.add_service(Box::new(RpcEcho::new("bench/echo"))).expect("one service per container");
    client.start(Micros::ZERO);
    server.start(Micros::ZERO);
    let mut pair = UdpPair { client, server, shared, now_us: 0, passes: 0 };
    let alive = |p: &UdpPair| {
        p.client.directory().node_alive(NodeId(2)) && p.server.directory().node_alive(NodeId(1))
    };
    while !alive(&pair) {
        assert!(pair.passes < 1_000_000, "udp_rpc_loopback: the two containers never met");
        pair.pass();
    }
    for _ in 0..UDP.settle_passes {
        pair.pass();
    }
    pair.shared.go.store(true, Relaxed);
    pair.run_window(UDP.warmup_calls);
    (pair, t0.elapsed().as_secs_f64())
}

// ---- the measurement ------------------------------------------------------

/// `setups` set-ups (the last one is measured), a segment of fixed-work
/// windows, a drain.
fn measure<F: Fleet>(traced: bool, setups: usize, mut setup: impl FnMut() -> (F, f64)) -> Run {
    assert!(setups >= 1);
    alloc::reset_peak();
    let heap_base = alloc::live_bytes();
    let mut setups_s = Vec::with_capacity(setups);
    let mut last = None;
    for _ in 0..setups {
        drop(last.take()); // one fleet alive at a time: the peak is one fleet's
        let (fleet, setup_s) = setup();
        setups_s.push(setup_s);
        last = Some(fleet);
    }
    let mut fleet = last.expect("at least one set-up");
    let shared = fleet.shared().clone();
    let (window_count, work) = fleet.windows();

    fleet.reset_wire();
    let (correct_before, payload_before) = {
        let mut tally = shared.tally();
        tally.latency_us = Samples::default();
        tally.lag_us = Samples::default();
        tally.host_rtt_ns = Samples::default();
        (tally.correct_total(), tally.payload_bytes)
    };
    let counters_before = fleet.counters();
    let clock_before = fleet.clock_us();
    if traced {
        spans::install();
    }
    let cpu_before = clock::cpu_seconds();
    let allocs_before = alloc::calls();

    let mut windows = Vec::with_capacity(window_count);
    let mut seen = correct_before;
    for _ in 0..window_count {
        let t0 = clock::now();
        fleet.run_window(work);
        let host_s = t0.elapsed().as_secs_f64();
        let correct = shared.tally().correct_total();
        windows.push(Window { host_s, deliveries: correct - seen });
        seen = correct;
    }

    let allocs = alloc::calls() - allocs_before;
    let segment_cpu_s = clock::cpu_seconds().zip(cpu_before).map(|(b, a)| b - a);
    let recorder = spans::take();
    let heap_peak_bytes = alloc::peak_bytes() - heap_base;
    let counters = fleet.counters().since(&counters_before);
    let (wire_bytes, datagrams, dropped_loss) = fleet.wire(&counters);
    let segment_virt_us = fleet.clock_us() - clock_before;
    let (payload_bytes, latency_us, lag_us, host_rtt_ns) = {
        let t = shared.tally();
        (
            t.payload_bytes - payload_before,
            t.latency_us.clone(),
            t.lag_us.clone(),
            t.host_rtt_ns.clone(),
        )
    };

    shared.go.store(false, Relaxed);
    fleet.drain();
    let totals = shared.tally().clone();

    Run {
        setups_s,
        windows,
        segment_virt_us,
        segment_cpu_s,
        allocs,
        heap_peak_bytes,
        payload_bytes,
        latency_us,
        lag_us,
        host_rtt_ns,
        wire_bytes,
        datagrams,
        dropped_loss,
        counters,
        totals,
        steady: fleet.steady(),
        spans: recorder,
    }
}

/// Runs one workload: `setups` set-ups, then the workload's frozen
/// segment on the last one, traced or not.
pub fn run(workload: Workload, seed: u64, traced: bool, setups: usize) -> Run {
    if workload.is_sim() {
        measure(traced, setups, || setup_sim(workload, seed, traced))
    } else {
        measure(traced, setups, || setup_udp(seed, traced))
    }
}
