//! # marea-bench — scenario library for every experiment
//!
//! Each function here reproduces one figure or measurable claim of the
//! paper (see DESIGN.md §4 for the full index) on the deterministic
//! simulated LAN and returns the quantities the paper argues about:
//! virtual-time latencies, wire bytes, datagram counts, repair rounds.
//!
//! The `experiments` binary prints them as paper-style tables
//! (deterministic, seed-driven — these are the numbers DESIGN.md §4
//! records). What the same code costs on the host CPU is measured by the
//! out-of-workspace `benchmark/` package, not here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fixtures;
pub mod loadtest;
mod tcpish;

use std::sync::{Arc, LazyLock, Mutex};

use bytes::Bytes;

use marea_core::{
    CallError, CallHandle, CallOptions, ContainerConfig, ContainerStats, EventPort, EventQos,
    FnPort, LinkEvents, Micros, NodeId, ProtoDuration, ReliableLink, SchedulerKind, Service,
    ServiceContext, ServiceDescriptor, SimHarness, TimerId, VarDistribution, VarPort, VarQos,
};
use marea_netsim::{Destination, LinkConfig, NetConfig, SimNet};
use marea_presentation::{Name, Value};
use marea_protocol::arq::ArqConfig;
use marea_protocol::fec::FecRate;
use marea_protocol::Message;

use fixtures::{Echo, Emit, ReceiptLog, RttLog, Sink, Source};
use tcpish::{TcpishConfig, TcpishEndpoint};

/// Latency distribution summary (virtual time).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyResult {
    /// Samples measured.
    pub count: u64,
    /// Mean latency in µs.
    pub mean_us: f64,
    /// Maximum latency in µs.
    pub max_us: u64,
}

impl LatencyResult {
    fn from_samples(samples: &[u64]) -> LatencyResult {
        let count = samples.len() as u64;
        let mean_us = if samples.is_empty() {
            0.0
        } else {
            samples.iter().sum::<u64>() as f64 / samples.len() as f64
        };
        LatencyResult { count, mean_us, max_us: samples.iter().copied().max().unwrap_or(0) }
    }

    /// The event-delivery latency a container measured itself.
    fn of_events(s: &ContainerStats) -> LatencyResult {
        LatencyResult {
            count: s.events_delivered,
            mean_us: s.event_latency_mean_us().unwrap_or(0.0),
            max_us: s.event_latency_max_us,
        }
    }
}

fn lossy_net(seed: u64, loss: f64) -> NetConfig {
    NetConfig::default().with_seed(seed).with_default_link(LinkConfig::default().with_loss(loss))
}

/// Runs in `slice_ms` slices until `done` holds or `budget_ms` elapsed.
/// Wire counters are read where the loop stops, so the slice length is
/// part of the checked-in numbers.
fn run_in_slices(
    h: &mut SimHarness,
    slice_ms: u64,
    budget_ms: u64,
    mut done: impl FnMut(&SimHarness) -> bool,
) {
    let mut waited = 0;
    while waited < budget_ms {
        h.run_for_millis(slice_ms);
        waited += slice_ms;
        if done(h) {
            break;
        }
    }
}

// ---------------------------------------------------------------------------
// C1: event latency vs remote-invocation round trip
// ---------------------------------------------------------------------------

/// The C1/F2 event pair: `n` events on `bench/ev` at a 2 ms cadence.
fn event_pair(payload: usize, n: u32) -> (Source, Sink) {
    let emit = Emit::Event(EventPort::new("bench/ev"));
    (
        Source::new("blaster", emit, payload, Some(ProtoDuration::from_millis(2)), Some(n)),
        Sink { service: "sink", events: vec!["bench/ev".to_string()], ..Sink::default() },
    )
}

/// C1a: one-way event latency, publisher on node 1 → subscriber on node 2.
pub fn bench_event_latency(payload_bytes: usize, n: u32, loss: f64, seed: u64) -> LatencyResult {
    let mut h = SimHarness::new(lossy_net(seed, loss));
    h.set_tick_us(100);
    h.add_container(ContainerConfig::new("pub", NodeId(1)));
    h.add_container(ContainerConfig::new("sub", NodeId(2)));
    let (blaster, sink) = event_pair(payload_bytes, n);
    h.add_service(NodeId(1), Box::new(blaster));
    h.add_service(NodeId(2), Box::new(sink));
    h.start_all();
    run_in_slices(&mut h, 10, 200 + u64::from(n) * 4, |h| {
        h.container(NodeId(2)).unwrap().stats().events_delivered >= u64::from(n)
    });
    LatencyResult::of_events(&h.container(NodeId(2)).unwrap().stats())
}

/// C1b: remote-invocation round trip for the equivalent payload.
pub fn bench_rpc_rtt(payload_bytes: usize, n: u32, loss: f64, seed: u64) -> LatencyResult {
    let mut h = SimHarness::new(lossy_net(seed, loss));
    h.set_tick_us(100);
    h.add_container(ContainerConfig::new("caller", NodeId(1)));
    h.add_container(ContainerConfig::new("server", NodeId(2)));
    let rtts = RttLog::default();
    let echo = || FnPort::new("bench/echo");
    let emit = Emit::Call(echo(), Some(rtts.clone()));
    let period = Some(ProtoDuration::from_millis(2));
    h.add_service(NodeId(1), Box::new(Source::new("caller", emit, payload_bytes, period, Some(n))));
    h.add_service(NodeId(2), Box::new(Echo { service: "echo", port: echo() }));
    h.start_all();
    run_in_slices(&mut h, 10, 500 + u64::from(n) * 8, |_| rtts.lock().unwrap().len() >= n as usize);
    let samples = rtts.lock().unwrap();
    LatencyResult::from_samples(&samples)
}

// ---------------------------------------------------------------------------
// C2: multicast vs unicast variable fan-out
// ---------------------------------------------------------------------------

/// Wire cost of distributing one variable stream to `n` subscribers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FanoutResult {
    /// Datagrams the publisher's node emitted.
    pub publisher_datagrams: u64,
    /// Bytes the publisher's node emitted.
    pub publisher_bytes: u64,
    /// Samples delivered summed over all subscribers.
    pub delivered_samples: u64,
}

/// C2: publishes `samples` samples to `subscribers` nodes in either
/// distribution mode and reports the publisher's wire cost.
pub fn bench_var_fanout(
    subscribers: u32,
    samples: u32,
    multicast: bool,
    seed: u64,
) -> FanoutResult {
    let mut h = SimHarness::new(NetConfig::default().with_seed(seed));
    let mut cfg = ContainerConfig::new("pub", NodeId(1));
    cfg.var_distribution =
        if multicast { VarDistribution::Multicast } else { VarDistribution::UnicastFanout };
    // Keep control-plane chatter fixed and small relative to data.
    cfg.heartbeat_period = ProtoDuration::from_secs(10);
    cfg.announce_period = ProtoDuration::from_secs(10);
    h.add_container(cfg);
    let emit = Emit::Var(VarPort::new("bench/var"), ProtoDuration::from_millis(50));
    let period = Some(ProtoDuration::from_millis(5));
    h.add_service(NodeId(1), Box::new(Source::new("varpub", emit, 32, period, Some(samples))));
    for i in 0..subscribers {
        let node = NodeId(10 + i);
        let mut cfg = ContainerConfig::new("sub", node);
        cfg.heartbeat_period = ProtoDuration::from_secs(10);
        cfg.announce_period = ProtoDuration::from_secs(10);
        cfg.node_timeout = ProtoDuration::from_secs(60);
        h.add_container(cfg);
        let vars = vec!["bench/var".to_string()];
        h.add_service(node, Box::new(Sink { service: "varsink", vars, ..Sink::default() }));
    }
    h.start_all();
    // Settle discovery, then reset counters so only steady-state data
    // traffic is measured.
    h.run_for_millis(200);
    h.network().reset_stats();
    h.run_for_millis(u64::from(samples) * 5 + 200);
    let net = h.network().stats();
    let delivered: u64 = (0..subscribers)
        .map(|i| h.container(NodeId(10 + i)).unwrap().stats().var_samples_delivered)
        .sum();
    FanoutResult {
        publisher_datagrams: net.node(1).sent,
        publisher_bytes: net.node(1).sent_bytes,
        delivered_samples: delivered,
    }
}

// ---------------------------------------------------------------------------
// C3: middleware ARQ vs simulated TCP under loss (protocol level)
// ---------------------------------------------------------------------------

/// One side of the C3 comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReliableRunCost {
    /// Per-message delivery latency (virtual time, production → in-order
    /// delivery at the receiver).
    pub latency: LatencyResult,
    /// Virtual µs from first send to last in-order delivery.
    pub completion_us: u64,
    /// Wire bytes sent (both directions, including acks/handshake).
    pub wire_bytes: u64,
    /// Datagrams sent.
    pub datagrams: u64,
    /// Retransmissions performed.
    pub retransmissions: u64,
}

impl ReliableRunCost {
    /// Application goodput in bits per virtual second: `payload_bytes`
    /// delivered over the run's completion time. Integer arithmetic so
    /// the persisted JSON is byte-identical across machines.
    pub fn goodput_bps(&self, payload_bytes: u64) -> u64 {
        if self.completion_us == 0 {
            return 0;
        }
        payload_bytes * 8 * 1_000_000 / self.completion_us
    }
}

/// C3a / C9: `n` messages of `msg_len` bytes, one every `interval_us`
/// (0: as fast as the window admits), between a pair of the container's
/// own [`ReliableLink`]s over a lossy link. `fec` is the sender's
/// FEC ceiling: [`FecRate::Off`] is plain ARQ, whose per-message
/// latency is the C3 metric (events are *sporadic*, "punctual and
/// important facts"); [`FecRate::Max`] threads the adaptive FEC layer
/// below it — erased shards rebuilt from parity instead of waiting out a
/// retransmission timer, the receiver's loss estimate riding back on the
/// acks to drive the code rate.
///
/// Each 1 ms tick drives the links as a container does: the sender takes
/// the next message while its ARQ window has room, both ends are polled
/// (retransmissions, the FEC age flush, the batched ack) and what each
/// one hears is handed to it.
pub fn bench_link_under_loss(
    fec: FecRate,
    loss: f64,
    n: u32,
    msg_len: usize,
    interval_us: u64,
    seed: u64,
) -> ReliableRunCost {
    let net = SimNet::new(lossy_net(seed, loss));
    let (a, b) = (net.socket(1), net.socket(2));
    let window = ArqConfig::default().window;
    let mut tx = ReliableLink::new(NodeId(2), ArqConfig::default());
    let mut rx = ReliableLink::new(NodeId(1), ArqConfig::default());
    tx.negotiate_fec(fec);
    let (mut wire, mut inner, mut released) = (Vec::new(), Vec::new(), Vec::new());
    let mut send_times: Vec<u64> = Vec::new();
    let mut latencies: Vec<u64> = Vec::new();
    let mut now_us = 0u64;
    while latencies.len() < n as usize && now_us < 600_000_000 {
        let (now, mut events) = (Micros(now_us), LinkEvents::default());
        let sent = send_times.len() as u32;
        if sent < n && now_us >= u64::from(sent) * interval_us && tx.inflight_len() < window {
            let mut v = vec![0u8; msg_len];
            v[0] = sent as u8;
            send_times.push(now_us);
            tx.send_into(&v, now, &mut wire);
        }
        tx.poll_into(now, &mut wire, &mut events);
        for m in wire.drain(..) {
            let _ = a.send(Destination::Unicast(2), m.encode_tagged());
        }
        net.advance_to(now_us);
        while let Some((_, frame)) = b.recv() {
            match Message::decode_tagged(&frame) {
                Ok(Message::RelData { seq, payload, .. }) => {
                    rx.on_data_into(seq, payload, &mut released);
                }
                Ok(Message::FecShard { group, index, k, r, payload, .. }) => {
                    rx.on_fec_shard_into(group, index, k, r, &payload, &mut inner);
                    for tagged in inner.drain(..) {
                        if let Ok(Message::RelData { seq, payload, .. }) =
                            Message::decode_tagged(&tagged)
                        {
                            rx.on_data_into(seq, payload, &mut released);
                        }
                    }
                }
                _ => {}
            }
        }
        for _ in released.drain(..) {
            latencies.push(now_us - send_times[latencies.len()]);
        }
        rx.poll_into(now, &mut wire, &mut events);
        for m in wire.drain(..) {
            let _ = b.send(Destination::Unicast(1), m.encode_tagged());
        }
        while let Some((_, frame)) = a.recv() {
            if let Ok(Message::RelAck { cumulative, sack, loss_permille, .. }) =
                Message::decode_tagged(&frame)
            {
                tx.on_ack_into(cumulative, sack, loss_permille, now, &mut wire, &mut events);
            }
        }
        now_us += 1_000;
    }
    let s = net.stats();
    ReliableRunCost {
        latency: LatencyResult::from_samples(&latencies),
        completion_us: now_us,
        wire_bytes: s.bytes_sent,
        datagrams: s.datagrams_sent,
        retransmissions: tx.stats().retransmitted,
    }
}

/// One row of the C9 goodput comparison (see [`bench_fec_loss_sweep`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FecLossRow {
    /// Configured link loss in permille.
    pub loss_permille: u32,
    /// Application payload carried by each run (`n × msg_len` bytes).
    pub payload_bytes: u64,
    /// Plain ARQ (retransmission round-trips only).
    pub arq: ReliableRunCost,
    /// ARQ with the adaptive FEC layer below it.
    pub arq_fec: ReliableRunCost,
    /// The simulated generic TCP stack.
    pub tcp: ReliableRunCost,
}

/// Fold several seeded runs of the same workload into one cost line:
/// completion/wire/retransmission totals add, the latency tail keeps
/// the worst max and the sample-weighted mean. Goodput over the summed
/// payload then measures the stack, not one RNG draw.
fn merge_runs(runs: &[ReliableRunCost]) -> ReliableRunCost {
    let count: u64 = runs.iter().map(|r| r.latency.count).sum();
    let mean_us = if count == 0 {
        0.0
    } else {
        runs.iter().map(|r| r.latency.mean_us * r.latency.count as f64).sum::<f64>() / count as f64
    };
    ReliableRunCost {
        latency: LatencyResult {
            count,
            mean_us,
            max_us: runs.iter().map(|r| r.latency.max_us).max().unwrap_or(0),
        },
        completion_us: runs.iter().map(|r| r.completion_us).sum(),
        wire_bytes: runs.iter().map(|r| r.wire_bytes).sum(),
        datagrams: runs.iter().map(|r| r.datagrams).sum(),
        retransmissions: runs.iter().map(|r| r.retransmissions).sum(),
    }
}

/// C9: bulk goodput of plain ARQ vs ARQ+FEC vs tcpish across a loss
/// sweep — the claim the FEC layer exists to win: at radio-grade loss,
/// parity repair keeps goodput up where pure retransmission collapses
/// into RTO stalls. Each point aggregates three seeded runs so the
/// comparison measures the coding gain, not one lucky loss pattern.
pub fn bench_fec_loss_sweep(n: u32, msg_len: usize, seed: u64) -> Vec<FecLossRow> {
    const RUNS: u64 = 3;
    let seeds = || (0..RUNS).map(move |i| seed + i);
    [0.0, 0.05, 0.10, 0.20, 0.30]
        .iter()
        .map(|&loss| FecLossRow {
            loss_permille: (loss * 1000.0) as u32,
            payload_bytes: RUNS * u64::from(n) * msg_len as u64,
            arq: merge_runs(
                &seeds()
                    .map(|s| bench_link_under_loss(FecRate::Off, loss, n, msg_len, 0, s))
                    .collect::<Vec<_>>(),
            ),
            arq_fec: merge_runs(
                &seeds()
                    .map(|s| bench_link_under_loss(FecRate::Max, loss, n, msg_len, 0, s))
                    .collect::<Vec<_>>(),
            ),
            tcp: merge_runs(
                &seeds().map(|s| bench_tcp_under_loss(loss, n, msg_len, 0, s)).collect::<Vec<_>>(),
            ),
        })
        .collect()
}

/// C3b: the same sporadic workload over the simulated generic TCP stack.
pub fn bench_tcp_under_loss(
    loss: f64,
    n: u32,
    msg_len: usize,
    interval_us: u64,
    seed: u64,
) -> ReliableRunCost {
    let net = SimNet::new(lossy_net(seed, loss));
    let a = net.socket(1);
    let b = net.socket(2);
    let mut client = TcpishEndpoint::client(TcpishConfig::default());
    let mut server = TcpishEndpoint::server(TcpishConfig::default());
    let syn = client.connect(0);
    let _ = a.send(Destination::Unicast(2), Bytes::from(syn));
    let mut send_times: Vec<u64> = Vec::new();
    let mut latencies: Vec<u64> = Vec::new();
    let mut sent = 0u32;
    let mut delivered = 0u32;
    let mut now_us = 0u64;
    while delivered < n && now_us < 600_000_000 {
        if sent < n && now_us >= u64::from(sent) * interval_us {
            let mut v = vec![0u8; msg_len];
            v[0] = sent as u8;
            send_times.push(now_us);
            sent += 1;
            client.send_message(&v);
        }
        for seg in client.poll(now_us) {
            let _ = a.send(Destination::Unicast(2), Bytes::from(seg));
        }
        for seg in server.poll(now_us) {
            let _ = b.send(Destination::Unicast(1), Bytes::from(seg));
        }
        net.advance_to(now_us);
        while let Some((_, seg)) = b.recv() {
            let (outs, msgs) = server.on_segment(&seg, now_us);
            for _ in msgs {
                latencies.push(now_us - send_times[delivered as usize]);
                delivered += 1;
            }
            for o in outs {
                let _ = b.send(Destination::Unicast(1), Bytes::from(o));
            }
        }
        while let Some((_, seg)) = a.recv() {
            let (outs, _msgs) = client.on_segment(&seg, now_us);
            for o in outs {
                let _ = a.send(Destination::Unicast(2), Bytes::from(o));
            }
        }
        now_us += 1_000;
    }
    let s = net.stats();
    ReliableRunCost {
        latency: LatencyResult::from_samples(&latencies),
        completion_us: now_us,
        wire_bytes: s.bytes_sent,
        datagrams: s.datagrams_sent,
        retransmissions: client.stats().retransmissions,
    }
}

// ---------------------------------------------------------------------------
// C4: file distribution — multicast MFTP vs per-subscriber unicast
// ---------------------------------------------------------------------------

/// Outcome of one file-distribution run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileRunResult {
    /// Virtual milliseconds until every subscriber completed.
    pub completion_ms: u64,
    /// Bytes sent by the publisher node.
    pub publisher_bytes: u64,
    /// Datagrams sent by the publisher node.
    pub publisher_datagrams: u64,
    /// Subscribers that completed.
    pub completed: u32,
}

/// The C4/C7 file pair: one `size`-byte revision of `bench/file`,
/// published at start.
fn file_publisher(size: usize) -> Source {
    let emit = Emit::File("bench/file".to_string(), Default::default());
    Source::new("fp", emit, size, None, None)
}

fn file_sink(received: ReceiptLog) -> Sink {
    Sink { service: "fsink", files: vec!["bench/file".to_string()], received, ..Sink::default() }
}

/// C4: distributes `size` bytes to `subscribers` nodes via the MFTP-style
/// multicast transfer.
pub fn bench_file_multicast(size: usize, subscribers: u32, loss: f64, seed: u64) -> FileRunResult {
    let mut h = SimHarness::new(lossy_net(seed, loss));
    h.add_container(ContainerConfig::new("pub", NodeId(1)));
    h.add_service(NodeId(1), Box::new(file_publisher(size)));
    let done = ReceiptLog::default();
    for i in 0..subscribers {
        let node = NodeId(10 + i);
        h.add_container(ContainerConfig::new("sub", node));
        h.add_service(node, Box::new(file_sink(done.clone())));
    }
    h.start_all();
    let budget = 60_000u64;
    run_in_slices(&mut h, 20, budget, |_| done.lock().unwrap().len() as u32 >= subscribers);
    let completions = done.lock().unwrap();
    let net = h.network().stats();
    FileRunResult {
        completion_ms: completions.iter().map(|r| r.at.as_millis()).max().unwrap_or(budget),
        publisher_bytes: net.node(1).sent_bytes,
        publisher_datagrams: net.node(1).sent,
        completed: completions.len() as u32,
    }
}

/// C4 baseline: the same payload moved to each subscriber by a dedicated
/// transfer (what unicast fan-out costs). Implemented as `subscribers`
/// sequential single-subscriber runs; costs add.
pub fn bench_file_unicast_equivalent(
    size: usize,
    subscribers: u32,
    loss: f64,
    seed: u64,
) -> FileRunResult {
    let mut total = FileRunResult {
        completion_ms: 0,
        publisher_bytes: 0,
        publisher_datagrams: 0,
        completed: 0,
    };
    for i in 0..subscribers {
        let r = bench_file_multicast(size, 1, loss, seed.wrapping_add(u64::from(i)));
        total.completion_ms = total.completion_ms.max(r.completion_ms);
        total.publisher_bytes += r.publisher_bytes;
        total.publisher_datagrams += r.publisher_datagrams;
        total.completed += r.completed;
    }
    total
}

/// C4c: the same-node bypass versus a loopback network transfer.
///
/// Returns `(bypass_deliveries, wire_bytes)` — the bypass moves zero wire
/// bytes for the file itself.
pub fn bench_file_bypass(size: usize, seed: u64) -> (u64, u64) {
    let mut h = SimHarness::new(NetConfig::default().with_seed(seed));
    h.add_container(ContainerConfig::new("solo", NodeId(1)));
    h.add_service(NodeId(1), Box::new(file_publisher(size)));
    h.add_service(NodeId(1), Box::new(file_sink(ReceiptLog::default())));
    h.start_all();
    h.run_for_millis(500);
    let stats = h.container(NodeId(1)).unwrap().stats();
    (stats.file_bypass_deliveries, h.network().stats().bytes_sent)
}

// ---------------------------------------------------------------------------
// C5: scheduler priority vs FIFO under handler load
// ---------------------------------------------------------------------------

/// The low-priority storm a [`LoadedPublisher`] raises.
enum Storm {
    Vars(VarPort<u32>),
    Events(EventPort<u32>),
}

/// Every 5 ms: `per_tick` storm items, then one latency-critical event
/// (`remaining` of them in total) stamped with its emission time.
struct LoadedPublisher {
    service: &'static str,
    storm: Storm,
    per_tick: u32,
    critical: EventPort<u64>,
    remaining: u32,
}

impl Service for LoadedPublisher {
    fn descriptor(&self) -> ServiceDescriptor {
        let mut b = ServiceDescriptor::builder(self.service);
        match &self.storm {
            Storm::Vars(port) => {
                b.provides_var(port, VarQos::aperiodic(ProtoDuration::from_secs(1)))
            }
            Storm::Events(port) => b.provides_event(port),
        };
        b.provides_event(&self.critical).build()
    }
    fn on_start(&mut self, ctx: &mut ServiceContext<'_>) {
        ctx.set_timer(ProtoDuration::from_millis(5), Some(ProtoDuration::from_millis(5)));
    }
    fn on_timer(&mut self, ctx: &mut ServiceContext<'_>, _id: TimerId) {
        for i in 0..self.per_tick {
            match &self.storm {
                Storm::Vars(port) => ctx.publish_to(port, i),
                Storm::Events(port) => ctx.emit_to(port, i),
            }
        }
        if self.remaining > 0 {
            self.remaining -= 1;
            ctx.emit_to(&self.critical, ctx.now().as_micros());
        }
    }
}

/// The C5/C10 loaded flood: a background var storm plus sparse critical
/// events from node 1 to a consumer on node 2 whose tick budget is
/// deliberately small, so queued work spans ticks and ordering matters.
/// `traced = false` turns both flight recorders off. Returns the harness
/// after the run.
fn run_loaded_flood(
    kind: SchedulerKind,
    traced: bool,
    bg_per_tick: u32,
    n_events: u32,
    seed: u64,
) -> SimHarness {
    let mut h = SimHarness::new(NetConfig::default().with_seed(seed));
    h.set_tick_us(500);
    let mut pub_cfg = ContainerConfig::new("pub", NodeId(1));
    let mut sub_cfg = ContainerConfig::new("sub", NodeId(2));
    sub_cfg.scheduler = kind;
    sub_cfg.tick_budget = 64;
    if !traced {
        pub_cfg.trace_capacity = 0;
        sub_cfg.trace_capacity = 0;
    }
    h.add_container(pub_cfg);
    h.add_container(sub_cfg);
    let publisher = LoadedPublisher {
        service: "loaded",
        storm: Storm::Vars(VarPort::new("bench/bg")),
        per_tick: bg_per_tick,
        critical: EventPort::new("bench/prio"),
        remaining: n_events,
    };
    h.add_service(NodeId(1), Box::new(publisher));
    let sink = Sink {
        service: "loadsink",
        vars: vec!["bench/bg".to_string()],
        events: vec!["bench/prio".to_string()],
        ..Sink::default()
    };
    h.add_service(NodeId(2), Box::new(sink));
    h.start_all();
    h.run_for_millis(u64::from(n_events) * 5 + 500);
    h
}

/// C5: event delivery latency under background handler load, for a given
/// scheduler policy.
pub fn bench_scheduler_latency(
    kind: SchedulerKind,
    bg_per_tick: u32,
    n_events: u32,
    seed: u64,
) -> LatencyResult {
    let h = run_loaded_flood(kind, true, bg_per_tick, n_events, seed);
    LatencyResult::of_events(&h.container(NodeId(2)).unwrap().stats())
}

// ---------------------------------------------------------------------------
// C5b: per-subscription QoS priority under bulk event load
// ---------------------------------------------------------------------------

/// Outcome of the C5b QoS-priority scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QosPriorityResult {
    /// Latency of the critical-event subscription (virtual time).
    pub critical: LatencyResult,
    /// Bulk events actually delivered to handlers.
    pub bulk_delivered: u64,
    /// Bulk deliveries dropped by the subscription's inbox bound.
    pub queue_drops: u64,
}

static BULK: LazyLock<EventPort<u32>> = LazyLock::new(|| EventPort::new("bench/bulk"));
static CRITICAL: LazyLock<EventPort<u64>> = LazyLock::new(|| EventPort::new("bench/critical"));

/// Subscribes to both channels; the bulk subscription's contract is the
/// experiment variable.
struct QosSink {
    bulk_qos: EventQos,
    critical_latencies: Arc<Mutex<Vec<u64>>>,
    bulk_seen: Arc<Mutex<u64>>,
}

impl Service for QosSink {
    fn descriptor(&self) -> ServiceDescriptor {
        ServiceDescriptor::builder("qos-sink")
            .subscribe_to_event(&BULK, self.bulk_qos)
            .subscribe_to_event(&CRITICAL, EventQos::default())
            .build()
    }
    fn on_event(
        &mut self,
        ctx: &mut ServiceContext<'_>,
        name: &Name,
        _value: Option<&Value>,
        stamp: Micros,
    ) {
        if CRITICAL.matches(name) {
            self.critical_latencies
                .lock()
                .unwrap()
                .push(ctx.now().saturating_since(stamp).as_micros());
        } else if BULK.matches(name) {
            *self.bulk_seen.lock().unwrap() += 1;
        }
    }
}

/// C5b: a bulk event flood and a sparse critical stream share one
/// consumer container whose tick budget is deliberately small, so the
/// flood outruns the handler capacity and queued work spans ticks. With
/// `contract = true` the bulk subscription declares the
/// [`EventQos::bulk`] profile (background priority lane, bounded inbox);
/// with `false` both subscriptions ride the default event lane — the
/// pre-profile behaviour the contract is compared against.
pub fn bench_qos_priority(
    contract: bool,
    bulk_per_tick: u32,
    n_critical: u32,
    seed: u64,
) -> QosPriorityResult {
    let bulk_qos =
        if contract { EventQos::bulk().with_queue_bound(64) } else { EventQos::default() };
    let mut h = SimHarness::new(NetConfig::default().with_seed(seed));
    h.set_tick_us(500);
    let mut cfg = ContainerConfig::new("solo", NodeId(1));
    cfg.tick_budget = 64;
    h.add_container(cfg);
    h.add_service(
        NodeId(1),
        Box::new(LoadedPublisher {
            service: "qos-loaded",
            storm: Storm::Events(BULK.clone()),
            per_tick: bulk_per_tick,
            critical: CRITICAL.clone(),
            remaining: n_critical,
        }),
    );
    let critical_latencies = Arc::new(Mutex::new(Vec::new()));
    let bulk_seen = Arc::new(Mutex::new(0u64));
    h.add_service(
        NodeId(1),
        Box::new(QosSink {
            bulk_qos,
            critical_latencies: critical_latencies.clone(),
            bulk_seen: bulk_seen.clone(),
        }),
    );
    h.start_all();
    h.run_for_millis(u64::from(n_critical) * 5 + 500);
    let latencies = critical_latencies.lock().unwrap().clone();
    let bulk_delivered = *bulk_seen.lock().unwrap();
    let drops = h
        .container(NodeId(1))
        .unwrap()
        .event_qos_stats("bench/bulk")
        .map(|s| s.queue_drops)
        .unwrap_or(0);
    QosPriorityResult {
        critical: LatencyResult::from_samples(&latencies),
        bulk_delivered,
        queue_drops: drops,
    }
}

// ---------------------------------------------------------------------------
// C10: flight-recorder overhead
// ---------------------------------------------------------------------------

/// One leg of the C10 comparison: the C5 loaded flood (background var
/// storm plus sparse critical events across the LAN) with the flight
/// recorder either on (the default capacity) or off (capacity 0).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceOverheadRun {
    /// Critical-event latency distribution (virtual time).
    pub critical: LatencyResult,
    /// Background var samples delivered to the subscriber.
    pub vars_delivered: u64,
    /// Flight-recorder events captured across the fleet (ring contents
    /// plus evictions) — 0 when disabled.
    pub trace_events: u64,
    /// publish→deliver histogram population on the subscriber — 0 when
    /// disabled.
    pub histogram_count: u64,
    /// Wire traffic. The trace id rides every sample frame, so the two
    /// legs differ slightly — and deterministically.
    pub wire_bytes: u64,
}

/// C10: one deterministic flood run with the recorder on or off. All
/// returned quantities are virtual-time/counter-valued, so the same
/// (traced, …, seed) tuple reproduces them byte-identically; the
/// wall-clock cost of the same run is what the `--ignored` overhead
/// gate in `tests` measures.
pub fn bench_trace_overhead_run(
    traced: bool,
    bg_per_tick: u32,
    n_events: u32,
    seed: u64,
) -> TraceOverheadRun {
    let h = run_loaded_flood(SchedulerKind::Priority, traced, bg_per_tick, n_events, seed);
    let s = h.container(NodeId(2)).unwrap().stats();
    let trace_events =
        h.trace_rings().iter().map(|(_, r)| r.len() as u64 + r.evicted()).sum::<u64>();
    TraceOverheadRun {
        critical: LatencyResult::of_events(&s),
        vars_delivered: s.var_samples_delivered,
        trace_events,
        histogram_count: s.publish_to_deliver.count(),
        wire_bytes: h.network().stats().bytes_sent,
    }
}

// ---------------------------------------------------------------------------
// C6: failover timing
// ---------------------------------------------------------------------------

/// Outcome of the failover scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailoverResult {
    /// Virtual ms between the crash and the first reply served by the
    /// backup provider.
    pub blackout_ms: u64,
    /// Calls that surfaced an error to the application.
    pub errors: u32,
    /// Transparent failovers the middleware performed.
    pub failovers: u64,
}

/// The port both sides of the C6 contract declare.
static WHO: LazyLock<FnPort<(), u32>> = LazyLock::new(|| FnPort::new("bench/who"));

type FailoverOutcomes = Arc<Mutex<Vec<(u64, Result<u32, String>)>>>;

struct FailoverCaller {
    outcomes: FailoverOutcomes,
}

impl Service for FailoverCaller {
    fn descriptor(&self) -> ServiceDescriptor {
        ServiceDescriptor::builder("focaller").requires_fn(&WHO).build()
    }
    fn on_start(&mut self, ctx: &mut ServiceContext<'_>) {
        ctx.set_timer(ProtoDuration::from_millis(50), Some(ProtoDuration::from_millis(50)));
    }
    fn on_timer(&mut self, ctx: &mut ServiceContext<'_>, _id: TimerId) {
        ctx.call_fn_with(&WHO, (), CallOptions::default().pinned(NodeId(2)));
    }
    fn on_reply(
        &mut self,
        ctx: &mut ServiceContext<'_>,
        _h: CallHandle,
        result: Result<Value, CallError>,
    ) {
        self.outcomes.lock().unwrap().push((
            ctx.now().as_millis(),
            result.map(|v| v.as_u64().unwrap_or(0) as u32).map_err(|e| e.to_string()),
        ));
    }
}

struct WhoAmI {
    node: u32,
}

impl Service for WhoAmI {
    fn descriptor(&self) -> ServiceDescriptor {
        ServiceDescriptor::builder("who").provides_fn(&WHO).build()
    }
    fn on_call(
        &mut self,
        _ctx: &mut ServiceContext<'_>,
        _f: &Name,
        _a: &[Value],
    ) -> Result<Value, String> {
        Ok(WHO.encode_ret(self.node))
    }
}

/// C6: crashes the pinned provider mid-run and measures recovery.
pub fn bench_failover(seed: u64) -> FailoverResult {
    let mut h = SimHarness::new(NetConfig::default().with_seed(seed));
    h.add_container(ContainerConfig::new("client", NodeId(1)));
    h.add_container(ContainerConfig::new("primary", NodeId(2)));
    h.add_container(ContainerConfig::new("backup", NodeId(3)));
    let outcomes = Arc::new(Mutex::new(Vec::new()));
    h.add_service(NodeId(1), Box::new(FailoverCaller { outcomes: outcomes.clone() }));
    h.add_service(NodeId(2), Box::new(WhoAmI { node: 2 }));
    h.add_service(NodeId(3), Box::new(WhoAmI { node: 3 }));
    h.start_all();
    h.run_for_millis(2_000);
    let crash_at = h.now().as_millis();
    h.crash_node(NodeId(2));
    h.run_for_millis(8_000);
    let outcomes = outcomes.lock().unwrap();
    let first_backup = outcomes
        .iter()
        .find(|(t, r)| *t > crash_at && *r == Ok(3))
        .map(|(t, _)| *t)
        .unwrap_or(u64::MAX);
    FailoverResult {
        blackout_ms: first_backup.saturating_sub(crash_at),
        errors: outcomes.iter().filter(|(_, r)| r.is_err()).count() as u32,
        failovers: h.container(NodeId(1)).unwrap().stats().qos.retries,
    }
}

// ---------------------------------------------------------------------------
// C8: chaos-scenario failover (recovery-time objective)
// ---------------------------------------------------------------------------

/// Outcome of the chaos corpus' `publisher_failover` scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScenarioFailoverResult {
    /// Virtual ms between the scripted crash and the first successful
    /// call strictly after it (the invariant-measured recovery time).
    pub recovery_ms: u64,
    /// Invariant violations recorded over the whole run (0 = pass).
    pub violations: u32,
    /// Successful call replies over the run.
    pub calls_ok: u64,
    /// Faults injected by the schedule.
    pub events_applied: u32,
}

/// C8: runs the chaos corpus' `publisher_failover` scenario with the
/// container-default ("full") timing profile and reports the recovery
/// time its [`RtoRecovery`](marea_core::scenario::RtoRecovery) invariant
/// measured — crash detection + transparent call failover, end to end,
/// followed by a clean rejoin of the restarted primary.
pub fn bench_scenario_failover(seed: u64) -> ScenarioFailoverResult {
    use marea_core::scenario::corpus;
    let cfg = corpus::ScenarioConfig::full(seed);
    let mut chaos = corpus::build("publisher_failover", &cfg).expect("corpus scenario");
    let report = chaos.run();
    let recoveries = chaos.probes.recoveries_us.lock().expect("rto sink").clone();
    ScenarioFailoverResult {
        recovery_ms: recoveries.first().map(|us| us / 1000).unwrap_or(u64::MAX),
        violations: report.violations.len() as u32,
        calls_ok: chaos.probes.calls_ok.load(std::sync::atomic::Ordering::Relaxed),
        events_applied: report.events_applied as u32,
    }
}

// ---------------------------------------------------------------------------
// F2: local vs remote delivery through the container
// ---------------------------------------------------------------------------

/// Mean one-way event latency when publisher and subscriber share a
/// container (local path) vs sit on different nodes (network path).
pub fn bench_local_vs_remote_event(n: u32, seed: u64) -> (LatencyResult, LatencyResult) {
    // Local: both services in one container.
    let mut h = SimHarness::new(NetConfig::default().with_seed(seed));
    h.set_tick_us(100);
    h.add_container(ContainerConfig::new("solo", NodeId(1)));
    let (blaster, sink) = event_pair(32, n);
    h.add_service(NodeId(1), Box::new(blaster));
    h.add_service(NodeId(1), Box::new(sink));
    h.start_all();
    h.run_for_millis(u64::from(n) * 4 + 100);
    let local = LatencyResult::of_events(&h.container(NodeId(1)).unwrap().stats());
    let remote = bench_event_latency(32, n, 0.0, seed.wrapping_add(1));
    (local, remote)
}

// ---------------------------------------------------------------------------
// C11: swarm scale — sim-core throughput vs fleet size
// ---------------------------------------------------------------------------

/// Container tick cadence of every swarm-scale run (µs).
pub const SWARM_TICK_US: u64 = 500;
/// Virtual settle time before the measurement window (ms).
pub const SWARM_SETTLE_MS: u64 = 300;
/// Virtual length of the measurement window (ms).
pub const SWARM_WINDOW_MS: u64 = 1_000;
/// The node counts the C11 sweep visits.
pub const SWARM_NODE_COUNTS: [u32; 4] = [16, 64, 256, 1024];

/// One row of the C11 swarm-scale sweep: a fleet of `nodes` containers
/// in a beacon ring, measured over [`SWARM_WINDOW_MS`] of virtual time
/// after discovery settles. Every field is virtual-time/counter-valued,
/// so the same `(nodes, seed)` pair reproduces the row byte for byte;
/// the *wall-clock* cost of the identical run is what
/// [`bench_swarm_virt_s_per_host_s`] measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwarmScaleRow {
    /// Fleet size.
    pub nodes: u32,
    /// Grid slots inside the window (steps × nodes): the ticks an
    /// every-node sweep would run. Arithmetic, not a counter — the
    /// harness ticks only the nodes that have work.
    pub ticks: u64,
    /// Window length in virtual ms.
    pub virtual_ms: u64,
    /// Ring-beacon events delivered across the fleet in the window.
    pub beacons_delivered: u64,
    /// Datagrams the whole fleet put on the wire in the window.
    pub datagrams: u64,
    /// Wire bytes the whole fleet sent in the window.
    pub wire_bytes: u64,
    /// Whether every node saw every other node alive at the end.
    pub full_mesh: bool,
}

/// Ring beacon: node `i` publishes `swarm/b<i>` and subscribes to its
/// predecessor's beacon, so data-plane traffic grows linearly with the
/// fleet while the control plane (one `Message::Beacon` frame per node
/// per period, heard by every node) carries the quadratic part.
struct SwarmBeacon {
    port: EventPort<u64>,
    watches: String,
}

impl SwarmBeacon {
    fn new(own: u32, prev: u32) -> Self {
        SwarmBeacon {
            port: EventPort::new(&format!("swarm/b{own}")),
            watches: format!("swarm/b{prev}"),
        }
    }
}

impl Service for SwarmBeacon {
    fn descriptor(&self) -> ServiceDescriptor {
        ServiceDescriptor::builder("swarm-beacon")
            .provides_event(&self.port)
            .subscribe_event(&self.watches, EventQos::default())
            .build()
    }
    fn on_start(&mut self, ctx: &mut ServiceContext<'_>) {
        ctx.set_timer(ProtoDuration::from_millis(50), Some(ProtoDuration::from_millis(50)));
    }
    fn on_timer(&mut self, ctx: &mut ServiceContext<'_>, _id: TimerId) {
        ctx.emit_to(&self.port, ctx.now().as_micros());
    }
}

/// Builds the C11 fleet: `nodes` containers in a beacon ring, on the
/// container's default control-plane timings.
fn swarm_fleet(nodes: u32, seed: u64) -> SimHarness {
    let mut h = SimHarness::new(NetConfig::default().with_seed(seed));
    h.set_tick_us(SWARM_TICK_US);
    for i in 1..=nodes {
        h.add_container(ContainerConfig::new("swarm", NodeId(i)));
        let prev = if i == 1 { nodes } else { i - 1 };
        h.add_service(NodeId(i), Box::new(SwarmBeacon::new(i, prev)));
    }
    h
}

fn swarm_beacons_delivered(h: &SimHarness) -> u64 {
    h.nodes().iter().map(|&n| h.container(n).unwrap().stats().events_delivered).sum()
}

/// C11: one deterministic swarm-scale measurement at `nodes` containers.
pub fn bench_swarm_scale_row(nodes: u32, seed: u64) -> SwarmScaleRow {
    let mut h = swarm_fleet(nodes, seed);
    h.start_all();
    h.run_for_millis(SWARM_SETTLE_MS);
    h.network().reset_stats();
    let before = swarm_beacons_delivered(&h);
    h.run_for_millis(SWARM_WINDOW_MS);
    let net = h.network().stats();
    let ids = h.nodes();
    let full_mesh =
        ids.iter().all(|&a| ids.iter().all(|&b| h.container(a).unwrap().directory().node_alive(b)));
    SwarmScaleRow {
        nodes,
        ticks: SWARM_WINDOW_MS * 1_000 / SWARM_TICK_US * u64::from(nodes),
        virtual_ms: SWARM_WINDOW_MS,
        beacons_delivered: swarm_beacons_delivered(&h) - before,
        datagrams: net.datagrams_sent,
        wire_bytes: net.bytes_sent,
        full_mesh,
    }
}

/// C11: the full sweep over [`SWARM_NODE_COUNTS`].
pub fn bench_swarm_scale(seed: u64) -> Vec<SwarmScaleRow> {
    SWARM_NODE_COUNTS.iter().map(|&n| bench_swarm_scale_row(n, seed)).collect()
}

/// Wall-clock speed of the identical [`bench_swarm_scale_row`] run:
/// simulated seconds per host second inside the window. Machine-
/// dependent by construction — the `--ignored` release floor test gates
/// it in CI; `benchmark/README.md` covers host-time numbers.
pub fn bench_swarm_virt_s_per_host_s(nodes: u32, seed: u64) -> f64 {
    let mut h = swarm_fleet(nodes, seed);
    h.start_all();
    h.run_for_millis(SWARM_SETTLE_MS);
    #[expect(
        clippy::disallowed_methods,
        reason = "wall-clock bench — simulated s per host s is the quantity measured"
    )]
    let t0 = std::time::Instant::now();
    h.run_for_millis(SWARM_WINDOW_MS);
    let elapsed = t0.elapsed().as_secs_f64().max(1e-9);
    SWARM_WINDOW_MS as f64 / 1_000.0 / elapsed
}

// ---------------------------------------------------------------------------
// F1: discovery time
// ---------------------------------------------------------------------------

/// Virtual ms until every container of an `n`-node fleet sees every other
/// node alive.
pub fn bench_discovery(n: u32, seed: u64) -> u64 {
    let mut h = SimHarness::new(NetConfig::default().with_seed(seed));
    for i in 0..n {
        h.add_container(ContainerConfig::new("node", NodeId(1 + i)));
    }
    h.start_all();
    for waited in 1..=2_000u64 {
        h.run_for_millis(1);
        let full_mesh = (0..n).all(|i| {
            let c = h.container(NodeId(1 + i)).unwrap();
            (0..n).all(|j| c.directory().node_alive(NodeId(1 + j)))
        });
        if full_mesh {
            return waited;
        }
    }
    u64::MAX
}

// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_latency_beats_rpc_rtt() {
        let ev = bench_event_latency(64, 20, 0.0, 1);
        let rpc = bench_rpc_rtt(64, 20, 0.0, 1);
        assert_eq!(ev.count, 20);
        assert_eq!(rpc.count, 20);
        assert!(
            ev.mean_us < rpc.mean_us,
            "C1 shape: event {:.0}µs < rpc {:.0}µs",
            ev.mean_us,
            rpc.mean_us
        );
    }

    #[test]
    fn multicast_fanout_is_flat_unicast_grows() {
        let m1 = bench_var_fanout(1, 50, true, 2);
        let m8 = bench_var_fanout(8, 50, true, 2);
        let u8_ = bench_var_fanout(8, 50, false, 2);
        assert!(m8.delivered_samples >= 8 * 40, "{m8:?}");
        // Multicast publisher cost stays ~flat with subscriber count …
        assert!(
            m8.publisher_datagrams < m1.publisher_datagrams * 2,
            "multicast flat: {m1:?} vs {m8:?}"
        );
        // … while unicast fan-out pays per subscriber.
        assert!(
            u8_.publisher_datagrams > m8.publisher_datagrams * 4,
            "unicast grows: {m8:?} vs {u8_:?}"
        );
    }

    #[test]
    fn arq_beats_tcp_under_loss() {
        // Sporadic events, one every 20 ms, 5% loss.
        let arq = bench_link_under_loss(FecRate::Off, 0.05, 50, 64, 20_000, 3);
        let tcp = bench_tcp_under_loss(0.05, 50, 64, 20_000, 3);
        assert_eq!(arq.latency.count, 50);
        assert_eq!(tcp.latency.count, 50);
        assert!(
            arq.latency.mean_us < tcp.latency.mean_us,
            "C3 shape under 5% loss: arq mean {:.0}µs < tcp mean {:.0}µs",
            arq.latency.mean_us,
            tcp.latency.mean_us
        );
        assert!(
            arq.latency.max_us < tcp.latency.max_us,
            "C3 shape: arq max {}µs < tcp max {}µs (rto + hol)",
            arq.latency.max_us,
            tcp.latency.max_us
        );
    }

    #[test]
    fn scenario_failover_recovers_within_objective() {
        let r = bench_scenario_failover(808);
        assert_eq!(r.violations, 0, "no invariant violations: {r:?}");
        assert_eq!(r.events_applied, 2, "crash + restart were injected");
        assert!(r.recovery_ms < 4_000, "C8 shape: recovery {}ms < 4s objective", r.recovery_ms);
        assert!(r.calls_ok > 20, "client kept being served: {r:?}");
    }

    #[test]
    fn multicast_file_beats_unicast_equivalent() {
        let m = bench_file_multicast(64 * 1024, 4, 0.0, 4);
        let u = bench_file_unicast_equivalent(64 * 1024, 4, 0.0, 4);
        assert_eq!(m.completed, 4);
        assert_eq!(u.completed, 4);
        assert!(
            m.publisher_bytes * 2 < u.publisher_bytes,
            "C4 shape: multicast {} B ≪ unicast {} B",
            m.publisher_bytes,
            u.publisher_bytes
        );
    }

    #[test]
    fn priority_scheduler_caps_event_latency_under_load() {
        // 640 background samples per burst against a 64-task budget keep
        // the FIFO backlog ~10 ticks deep, so the shape gap survives small
        // wire-framing shifts (the burst previously drained in 3 ticks,
        // leaving the assertion one tick from flipping).
        let prio = bench_scheduler_latency(SchedulerKind::Priority, 640, 20, 5);
        let fifo = bench_scheduler_latency(SchedulerKind::Fifo, 640, 20, 5);
        assert!(prio.count > 0 && fifo.count > 0);
        assert!(
            prio.max_us * 2 < fifo.max_us,
            "C5 shape: priority max {}µs ≪ fifo max {}µs",
            prio.max_us,
            fifo.max_us
        );
    }

    #[test]
    fn qos_priority_contract_caps_critical_latency() {
        let with = bench_qos_priority(true, 400, 20, 5);
        let without = bench_qos_priority(false, 400, 20, 5);
        assert!(with.critical.count > 0 && without.critical.count > 0);
        assert!(
            with.critical.max_us * 2 < without.critical.max_us,
            "C5b shape: contract max {}µs ≪ no-contract max {}µs",
            with.critical.max_us,
            without.critical.max_us
        );
        assert!(with.queue_drops > 0, "the bulk inbox bound engaged: {with:?}");
        assert_eq!(without.queue_drops, 0, "no bound declared, nothing dropped: {without:?}");
        assert!(with.bulk_delivered > 0, "bulk still flows, just later: {with:?}");
    }

    #[test]
    fn failover_recovers_quickly_without_errors() {
        let r = bench_failover(6);
        assert!(r.blackout_ms < 2_000, "{r:?}");
        assert!(r.failovers >= 1, "{r:?}");
    }

    #[test]
    fn fec_goodput_beats_plain_arq_at_radio_loss() {
        // CI smoke gate for the C9 claim: at radio-grade loss (≥10%),
        // parity repair must strictly out-run pure retransmission.
        let rows = bench_fec_loss_sweep(120, 64, 9);
        for row in rows.iter().filter(|r| r.loss_permille >= 100) {
            let arq = row.arq.goodput_bps(row.payload_bytes);
            let fec = row.arq_fec.goodput_bps(row.payload_bytes);
            assert!(
                fec > arq,
                "C9 shape at {}‰ loss: arq+fec {} bps must beat arq {} bps",
                row.loss_permille,
                fec,
                arq
            );
        }
        // ARQ and ARQ+FEC must complete every transfer (three seeded
        // runs of 120 messages each per point). tcpish is allowed to
        // time out at 30% loss — its RTO collapse is the comparison
        // point, not a gate.
        for row in &rows {
            assert_eq!(row.arq.latency.count, 360, "{row:?}");
            assert_eq!(row.arq_fec.latency.count, 360, "{row:?}");
        }
    }

    #[test]
    fn local_delivery_is_faster_than_remote() {
        let (local, remote) = bench_local_vs_remote_event(20, 7);
        assert!(local.count > 0 && remote.count > 0);
        assert!(
            local.mean_us <= remote.mean_us,
            "F2 shape: local {:.0}µs <= remote {:.0}µs",
            local.mean_us,
            remote.mean_us
        );
    }

    #[test]
    fn discovery_converges_fast() {
        let ms = bench_discovery(6, 8);
        assert!(ms < 200, "6-node mesh discovered in {ms} ms");
    }

    #[test]
    fn bypass_moves_no_wire_bytes() {
        let (bypass, wire) = bench_file_bypass(1024 * 1024, 9);
        assert_eq!(bypass, 1);
        assert!(wire < 20_000, "only control plane: {wire}");
    }

    #[test]
    fn trace_overhead_run_is_deterministic_and_recorder_gated() {
        let on = bench_trace_overhead_run(true, 400, 20, 11);
        let on2 = bench_trace_overhead_run(true, 400, 20, 11);
        assert_eq!(on, on2, "C10: same seed, same traced run");
        let off = bench_trace_overhead_run(false, 400, 20, 11);
        let off2 = bench_trace_overhead_run(false, 400, 20, 11);
        assert_eq!(off, off2, "C10: same seed, same untraced run");
        // Both legs complete the same workload …
        assert_eq!(on.critical.count, 20);
        assert_eq!(off.critical.count, 20);
        assert!(on.vars_delivered > 1_000 && off.vars_delivered > 1_000);
        // … and only the traced leg feeds the recorder.
        assert!(on.trace_events > 1_000, "recorder captured the flood: {on:?}");
        assert!(on.histogram_count > 1_000, "publish→deliver histogram populated: {on:?}");
        assert_eq!(off.trace_events, 0, "{off:?}");
        assert_eq!(off.histogram_count, 0, "{off:?}");
    }

    #[test]
    fn swarm_scale_row_is_deterministic_and_converged() {
        let a = bench_swarm_scale_row(64, 13);
        let b = bench_swarm_scale_row(64, 13);
        assert_eq!(a, b, "C11: same seed, same row");
        assert!(a.full_mesh, "64-node fleet converged: {a:?}");
        // 64 beacons at 20 Hz over a 1 s window, minus scheduling slack.
        assert!(a.beacons_delivered > 64 * 15, "ring beacons flow: {a:?}");
        assert!(a.datagrams > 0 && a.wire_bytes > 0, "{a:?}");
        assert_eq!(a.ticks, 2_000 * 64, "{a:?}");
    }

    /// C11 wall-clock gate: the 256-node fleet must simulate fast enough
    /// that swarm scenarios stay affordable. Simulated seconds per host
    /// second, not ticks: the harness skips idle nodes, so a tick rate
    /// would reward exactly the work that is no longer done. Wall-clock,
    /// so ignored by default; CI runs it in release. The floor sits ≈4×
    /// under what this core measures (4.3 simulated s per host s on the
    /// reference host; the every-node sweep before it ran 2.3) so CI
    /// noise can't trip it, while a return of the per-tick full-map
    /// sweeps (≈0.2) would. It is a tripwire, not the measurement: a
    /// before/after claim is a row of `benchmark/` (`swarm_sparse` is
    /// this fleet), see `benchmark/README.md`.
    #[test]
    #[ignore = "wall-clock measurement; CI runs it in release"]
    fn swarm_virt_s_per_host_s_floor_at_256_nodes() {
        let best =
            (0..3).map(|rep| bench_swarm_virt_s_per_host_s(256, 21 + rep)).fold(0f64, f64::max);
        println!("C11 gate: best 256-node speed {best:.2} simulated s per host s");
        assert!(best >= 1.0, "C11 gate: {best:.2} simulated s per host s under the 1.0 floor");
    }

    /// The shared wall-clock gate: `time_once(on, rep)` times one leg
    /// with the measured feature on or off; the feature must cost ≤5%.
    /// After a warm-up the legs run in adjacent off/on pairs so
    /// clock-speed drift (turbo, thermal, noisy CI neighbours) hits both
    /// sides of each ratio equally, and the gate reads the cleanest
    /// pair: ambient noise only inflates ratios at random, while a real
    /// regression inflates every pair.
    pub(crate) fn assert_overhead_within_five_percent(
        gate: &str,
        time_once: impl Fn(bool, u64) -> std::time::Duration,
    ) {
        let _ = (time_once(false, 0), time_once(true, 0));
        let pairs = (1..=8).map(|rep| {
            let off = time_once(false, rep);
            let on = time_once(true, rep);
            (on.as_secs_f64() / off.as_secs_f64().max(1e-9), on, off)
        });
        let (ratio, on, off) = pairs.min_by(|a, b| a.0.total_cmp(&b.0)).expect("8 pairs");
        let overhead = (ratio - 1.0) * 100.0;
        println!("{gate}: best-pair overhead {overhead:.2}% (on {on:?}, off {off:?})");
        assert!(overhead <= 5.0, "{gate}: overhead {overhead:.2}% exceeds 5% in every pair");
    }

    /// Every row of the host-time trajectory (DESIGN.md §4) is one JSON
    /// object carrying the keys a reader joins on, for one of the
    /// benchmark's five workloads.
    #[test]
    fn host_trajectory_parses() {
        const WORKLOADS: [&str; 5] = [
            "telemetry_fanout",
            "command_lossy",
            "payload_bulk",
            "swarm_sparse",
            "udp_rpc_loopback",
        ];
        let rows = include_str!("../../../BENCH_host_trajectory.jsonl");
        assert!(rows.lines().count() > 0, "empty trajectory");
        for (i, row) in rows.lines().enumerate() {
            let n = i + 1;
            assert!(row.starts_with('{') && row.ends_with('}'), "line {n}: not an object");
            assert_eq!(row.matches('{').count(), row.matches('}').count(), "line {n}: braces");
            assert_eq!(row.matches('"').count() % 2, 0, "line {n}: quotes");
            for key in ["pr", "commit", "host", "workload", "seed", "metric", "parent", "change"] {
                assert!(row.contains(&format!("\"{key}\": ")), "line {n}: no `{key}`");
            }
            let workload = row.split("\"workload\": \"").nth(1).and_then(|w| w.split('"').next());
            assert!(workload.is_some_and(|w| WORKLOADS.contains(&w)), "line {n}: {workload:?}");
        }
    }

    /// C10 wall-clock gate: tracing the loaded flood must cost ≤5% in
    /// host time. Wall-clock, so ignored by default; CI runs it in
    /// release (`cargo test --release -- --ignored trace_overhead`).
    #[test]
    #[ignore = "wall-clock measurement; CI runs it in release"]
    fn trace_overhead_stays_within_five_percent() {
        assert_overhead_within_five_percent("C10 gate (tracing)", |traced, rep| {
            #[expect(
                clippy::disallowed_methods,
                reason = "wall-clock gate — measuring the real cost of tracing is the point"
            )]
            let t0 = std::time::Instant::now();
            let _ = bench_trace_overhead_run(traced, 800, 100, 700 + rep);
            t0.elapsed()
        });
    }
}
