//! The five workloads: what each one builds and how it is sized.
//!
//! A sim workload is a [`FleetSpec`] — containers, the benchmark's
//! services on them, and the simulated network between them. The sizes
//! are frozen here, so the same `(workload, seed)` is always the same work
//! and every counter repeats exactly. Each segment is sized to take about
//! `RUN_SECONDS` of host time on the reference host.

use marea_core::{ContainerConfig, NodeId, ProtoDuration, Service};
use marea_netsim::{LinkConfig, NetConfig};

use crate::gen::Gen;
use crate::services::{
    BeaconShape, BytesShape, CallPacing, EventSink, EventSource, FileSink, FileSource,
    PositionShape, RpcCaller, RpcEcho, Shared, VarSink, VarSource,
};

/// The workloads, by the names later issues use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Small typed samples, multicast, every tick busy.
    TelemetryFanout,
    /// Reliable events plus RPC over lossy, jittery links.
    CommandLossy,
    /// Large files (MFTP) plus a fragmented variable.
    PayloadBulk,
    /// 256-node ring, almost every tick idle.
    SwarmSparse,
    /// Closed-loop RPC over real UDP sockets on loopback.
    UdpRpcLoopback,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 5] = [
        Workload::TelemetryFanout,
        Workload::CommandLossy,
        Workload::PayloadBulk,
        Workload::SwarmSparse,
        Workload::UdpRpcLoopback,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TelemetryFanout => "telemetry_fanout",
            Workload::CommandLossy => "command_lossy",
            Workload::PayloadBulk => "payload_bulk",
            Workload::SwarmSparse => "swarm_sparse",
            Workload::UdpRpcLoopback => "udp_rpc_loopback",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// One line on why the workload exists (`BENCHMARK.json` `why`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::TelemetryFanout => {
                "4 typed Position variables at 1 kHz multicast to 8 nodes: per-message cost \
                 (convert, codec, frame+CRC, netsim, scheduler, handler); ARQ/FEC/fragments idle"
            }
            Workload::CommandLossy => {
                "8 pairs of reliable events + RPC echo over 5 ms +-2 ms, 10 % loss links: \
                 ReliableLink, ARQ, FEC, deadlines; shows a variable-only gain that costs \
                 reliable traffic"
            }
            Workload::PayloadBulk => {
                "256 KiB file revisions over MFTP plus a fragmented 16 KiB variable to 4 nodes: \
                 per-byte cost (fragment, reassemble, crc32, chunk bitmap, copies)"
            }
            Workload::SwarmSparse => {
                "256-node beacon ring, ~100 container ticks per delivery: idle-tick and discovery \
                 cost; the only one with large set-up time and heap"
            }
            Workload::UdpRpcLoopback => {
                "closed loop, 1 client, 1 outstanding 256 B echo call over UdpTransport on host \
                 loopback: the socket path every sim workload bypasses"
            }
        }
    }

    /// `true` for the four workloads that run on the simulated network.
    pub fn is_sim(self) -> bool {
        self != Workload::UdpRpcLoopback
    }
}

/// One container and the services it hosts.
pub struct NodeSpec {
    /// The container's configuration (current defaults unless the
    /// workload says otherwise).
    pub config: ContainerConfig,
    /// The benchmark services registered on it.
    pub services: Vec<Box<dyn Service>>,
}

/// Frozen sizes of a sim workload (all times are simulated µs).
#[derive(Debug, Clone, Copy)]
pub struct Sizing {
    /// Container tick cadence.
    pub tick_us: u64,
    /// Wait after every node knows every node and its catalogue, for the
    /// (reliable) subscribe messages to land.
    pub settle_us: u64,
    /// Traffic before the measured segment (part of set-up).
    pub warmup_us: u64,
    /// Fixed-work windows the measured segment is cut into.
    pub windows: usize,
    /// Simulated time of one window: a whole multiple of every source,
    /// heartbeat and announce period, so every window is the same work.
    pub window_us: u64,
    /// Time after the sources stop, for in-flight traffic to land.
    pub drain_us: u64,
    /// Constant rate on a clean link: the windows must deliver identical
    /// counts, and nothing may be lost.
    pub steady: bool,
}

/// A sim workload, ready to be built by either driver.
pub struct FleetSpec {
    /// The simulated network.
    pub net: NetConfig,
    /// The containers, in registration (= tick) order.
    pub nodes: Vec<NodeSpec>,
    /// State shared between the services and the driver.
    pub shared: Shared,
    /// The frozen sizes.
    pub sizing: Sizing,
}

fn node(name: &str, id: u32, services: Vec<Box<dyn Service>>) -> NodeSpec {
    NodeSpec { config: ContainerConfig::new(name, NodeId(id)), services }
}

const MS: u64 = 1_000;
const SEC: u64 = 1_000_000;

/// Builds the fleet of a sim workload for `seed`; the seed feeds the
/// network's RNG and the payload generator only.
///
/// # Panics
///
/// Panics for [`Workload::UdpRpcLoopback`], which has no simulated fleet.
pub fn fleet(workload: Workload, seed: u64) -> FleetSpec {
    let shared = Shared::new(Gen::new(seed));
    let net = NetConfig::default().with_seed(seed);
    match workload {
        Workload::TelemetryFanout => {
            let channels: Vec<(String, u32)> =
                (0..4).map(|i| (format!("bench/pos{i}"), i)).collect();
            let mut nodes = Vec::new();
            for (name, source) in &channels {
                let src = VarSource::new(
                    &shared,
                    name,
                    PositionShape,
                    *source,
                    ProtoDuration::from_millis(1),
                    8,
                );
                nodes.push(node("telemetry-pub", 1 + source, vec![Box::new(src)]));
            }
            for i in 0..8 {
                let sink = VarSink::new(&shared, PositionShape, &channels);
                nodes.push(node("telemetry-sub", 101 + i, vec![Box::new(sink)]));
            }
            FleetSpec {
                net,
                nodes,
                shared,
                sizing: Sizing {
                    tick_us: 500,
                    settle_us: SEC,
                    warmup_us: 5 * SEC,
                    windows: 22,
                    window_us: 4 * SEC,
                    drain_us: 100 * MS,
                    steady: true,
                },
            }
        }
        Workload::CommandLossy => {
            let link =
                LinkConfig::default().with_latency_us(5_000).with_jitter_us(2_000).with_loss(0.10);
            let mut nodes = Vec::new();
            for i in 0..8 {
                let (event, echo) = (format!("bench/cmd{i}"), format!("bench/echo{i}"));
                let events = EventSource::new(
                    &shared,
                    &event,
                    BytesShape(64),
                    i,
                    ProtoDuration::from_millis(2),
                    1,
                );
                let caller = RpcCaller::new(
                    &shared,
                    &echo,
                    256,
                    100 + i,
                    CallPacing::Every(ProtoDuration::from_millis(4)),
                );
                nodes.push(node("command-a", 1 + i, vec![Box::new(events), Box::new(caller)]));
                let sink = EventSink::new(&shared, BytesShape(64), &event, i);
                nodes.push(node(
                    "command-b",
                    101 + i,
                    vec![Box::new(sink), Box::new(RpcEcho::new(&echo))],
                ));
            }
            // Liveness is refreshed by heartbeats and announces only, not
            // by data. At 10 % loss the default 2 s timeout (four
            // heartbeats) declares some live peer dead every ~20 simulated
            // seconds in this fleet; when that peer is the other end of a
            // busy link, the pair's traffic stops for the rest of the run
            // (README, "node_timeout on command_lossy"). A lossy
            // deployment would set a longer timeout; so does this
            // workload, which must be one on which no operation fails.
            for n in &mut nodes {
                n.config.node_timeout = ProtoDuration::from_secs(30);
            }
            FleetSpec {
                net: net.with_default_link(link),
                nodes,
                shared,
                sizing: Sizing {
                    tick_us: 500,
                    settle_us: 2 * SEC,
                    warmup_us: 6 * SEC,
                    windows: 28,
                    window_us: 4 * SEC,
                    drain_us: 5 * SEC,
                    steady: false,
                },
            }
        }
        Workload::PayloadBulk => {
            const FRAME: usize = 256 * 1024;
            const SCAN: usize = 16 * 1024;
            let frames = FileSource::new(
                &shared,
                "bench/frame",
                FRAME,
                0,
                ProtoDuration::from_millis(200),
                4,
            );
            let scans = VarSource::new(
                &shared,
                "bench/scan",
                BytesShape(SCAN),
                1,
                ProtoDuration::from_millis(40),
                4,
            );
            let mut nodes = vec![node("camera", 1, vec![Box::new(frames), Box::new(scans)])];
            for i in 0..4 {
                let files = FileSink::new(&shared, "bench/frame", FRAME, 0);
                let vars = VarSink::new(&shared, BytesShape(SCAN), &[("bench/scan".to_owned(), 1)]);
                nodes.push(node("viewer", 101 + i, vec![Box::new(files), Box::new(vars)]));
            }
            FleetSpec {
                net,
                nodes,
                shared,
                sizing: Sizing {
                    tick_us: 500,
                    settle_us: SEC,
                    warmup_us: 10 * SEC,
                    windows: 28,
                    window_us: 8 * SEC,
                    drain_us: SEC,
                    steady: true,
                },
            }
        }
        Workload::SwarmSparse => {
            const NODES: u32 = 256;
            let mut nodes = Vec::new();
            for i in 1..=NODES {
                let prev = if i == 1 { NODES } else { i - 1 };
                let beacon = EventSource::new(
                    &shared,
                    &format!("swarm/b{i}"),
                    BeaconShape,
                    i,
                    ProtoDuration::from_millis(50),
                    1,
                );
                let watch = EventSink::new(&shared, BeaconShape, &format!("swarm/b{prev}"), prev);
                let mut spec = node("swarm", i, vec![Box::new(beacon), Box::new(watch)]);
                // The C11 ring's cadence: short enough that the segment
                // exercises digest gossip, not just heartbeats.
                spec.config.announce_period = ProtoDuration::from_millis(400);
                nodes.push(spec);
            }
            FleetSpec {
                net,
                nodes,
                shared,
                sizing: Sizing {
                    tick_us: 500,
                    settle_us: 500 * MS,
                    warmup_us: 500 * MS,
                    windows: 12,
                    window_us: 2 * SEC,
                    drain_us: 200 * MS,
                    steady: true,
                },
            }
        }
        Workload::UdpRpcLoopback => panic!("udp_rpc_loopback runs on sockets, not on a FleetSpec"),
    }
}

/// Frozen sizes of `udp_rpc_loopback` (counts of completed calls).
#[derive(Debug, Clone, Copy)]
pub struct UdpSizing {
    /// Container time added per pass of the drive loop (µs): about what a
    /// pass takes on the reference host (23.6 µs), so that heartbeats,
    /// announces and retransmission timers fire about as often per call
    /// as they would on the host clock.
    pub quantum_us: u64,
    /// Passes between discovery and the first call.
    pub settle_passes: u64,
    /// Calls completed before the measured segment (part of set-up).
    pub warmup_calls: u64,
    /// Fixed-work windows the measured segment is cut into.
    pub windows: usize,
    /// Calls completed in one window.
    pub window_calls: u64,
    /// Passes after the client stops, for the last reply to land.
    pub drain_passes: u64,
    /// Argument bytes per call.
    pub arg_bytes: usize,
}

/// The sizes of `udp_rpc_loopback`.
pub const UDP: UdpSizing = UdpSizing {
    quantum_us: 25,
    settle_passes: 8_000,
    warmup_calls: 20_000,
    windows: 25,
    window_calls: 14_720,
    drain_passes: 8_000,
    arg_bytes: 256,
};
