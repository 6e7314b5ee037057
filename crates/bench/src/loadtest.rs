//! Rate-controlled workload engine behind the `marea-loadtest` bin.
//!
//! Modeled on the openlink-loadtest shape (ROADMAP open item 2): a
//! workload enum, N publisher/subscriber pairs, a per-source target
//! rate, a warmup/settle window followed by fixed measurement windows,
//! and a reporter quoting achieved rate, goodput and p50/p99/p999
//! latency per window. Everything runs on the deterministic
//! [`SimHarness`] with the [`MetricsSampler`] enabled, so the same
//! `(workload, config, seed)` tuple reproduces the report — and its
//! JSON rendering — byte for byte. The checked-in
//! `BENCH_loadtest_<workload>.json` files are exactly these reports;
//! CI regenerates them and fails on any byte of drift.
//!
//! [`MetricsSampler`]: marea_core::metrics::MetricsSampler

use std::collections::BTreeMap;
use std::fmt::Write as _;

use marea_core::metrics::MetricsConfig;
use marea_core::trace::LatencyHistogram;
use marea_core::{
    ContainerConfig, EventPort, FnPort, LatencySummary, NodeId, ProtoDuration, Service, SimHarness,
    VarPort,
};
use marea_netsim::NetConfig;

use crate::fixtures::{Echo, Emit, PublishLog, ReceiptLog, Sink, Source};

/// Container tick cadence every loadtest run uses (µs).
pub const TICK_US: u64 = 500;

/// The workload shapes `marea-loadtest` can generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One publisher fanning a periodic variable out to N subscribers.
    VarFanout,
    /// N reliable-event pairs, each flooding at the target rate.
    EventFlood,
    /// N caller/echo pairs issuing RPCs at the target rate.
    RpcEcho,
    /// One file publisher bumping revisions to N subscribers (MFTP).
    FileMulticast,
    /// Vars + events + RPC mixed across the pairs (i % 3 picks a role).
    MixedMission,
}

impl Workload {
    /// Every workload, in the canonical order.
    pub const ALL: [Workload; 5] = [
        Workload::VarFanout,
        Workload::EventFlood,
        Workload::RpcEcho,
        Workload::FileMulticast,
        Workload::MixedMission,
    ];

    /// Stable snake_case name (file names, CLI argument, JSON field).
    pub fn name(self) -> &'static str {
        match self {
            Workload::VarFanout => "var_fanout",
            Workload::EventFlood => "event_flood",
            Workload::RpcEcho => "rpc_echo",
            Workload::FileMulticast => "file_multicast",
            Workload::MixedMission => "mixed_mission",
        }
    }

    /// Parses a CLI name back into a workload.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// One loadtest run's full parameter set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadtestConfig {
    /// The workload shape.
    pub workload: Workload,
    /// Publisher/subscriber pairs (for fan-out shapes: subscribers).
    pub pairs: u32,
    /// Per-source target rate in Hz (timer-driven; quantized to the
    /// tick cadence).
    pub rate_hz: u64,
    /// Payload bytes per sample/event/call (file size for
    /// [`Workload::FileMulticast`]).
    pub payload_bytes: usize,
    /// Warmup/settle time before the first measurement window (ms).
    pub warmup_ms: u64,
    /// Length of one measurement window (ms).
    pub window_ms: u64,
    /// Number of measurement windows.
    pub windows: u32,
    /// Metrics-sampler period (ms); 0 disables the sampler (the
    /// overhead gate's baseline leg).
    pub sample_period_ms: u64,
    /// Netsim seed; same seed ⇒ byte-identical report.
    pub seed: u64,
}

impl LoadtestConfig {
    /// The checked-in baseline parameters of `workload` — what
    /// `BENCH_loadtest_<workload>.json` is generated from.
    pub fn baseline(workload: Workload) -> LoadtestConfig {
        let base = LoadtestConfig {
            workload,
            pairs: 4,
            rate_hz: 200,
            payload_bytes: 64,
            warmup_ms: 300,
            window_ms: 500,
            windows: 3,
            sample_period_ms: 125,
            seed: 17,
        };
        match workload {
            Workload::VarFanout => LoadtestConfig { pairs: 8, ..base },
            Workload::EventFlood => base,
            Workload::RpcEcho => LoadtestConfig { rate_hz: 100, ..base },
            Workload::FileMulticast => LoadtestConfig { rate_hz: 20, payload_bytes: 2048, ..base },
            Workload::MixedMission => LoadtestConfig { pairs: 6, rate_hz: 100, ..base },
        }
    }

    fn source_period(&self) -> ProtoDuration {
        ProtoDuration::from_micros((1_000_000 / self.rate_hz.max(1)).max(TICK_US))
    }
}

/// One measurement window's results (index 0 is the all-windows
/// aggregate).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowReport {
    /// 1-based window index; 0 for the overall aggregate.
    pub index: u32,
    /// Window start, virtual µs.
    pub start_us: u64,
    /// Window end, virtual µs.
    pub end_us: u64,
    /// Samples/events/calls/files the sources offered in the window.
    pub offered: u64,
    /// Deliveries completed in the window (fleet-wide).
    pub delivered: u64,
    /// Fleet-wide delivery rate: `delivered / window` (Hz).
    pub achieved_hz: u64,
    /// Application goodput: `delivered × payload × 8 / window` (bit/s).
    pub goodput_bps: u64,
    /// Latency of the deliveries in the window (per-node histograms
    /// merged, then bucket-diffed against the window start).
    pub latency: LatencySummary,
}

/// Everything one loadtest run measured.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadtestReport {
    /// The parameters that produced it.
    pub config: LoadtestConfig,
    /// Per-window results, first window first.
    pub windows: Vec<WindowReport>,
    /// Aggregate over all measurement windows (index 0).
    pub overall: WindowReport,
    /// Metrics-sampler activity during the run (0 when disabled).
    pub metrics_samples: u64,
    /// Node frames the sampler retained.
    pub metrics_frames: u64,
    /// Link frames the sampler retained.
    pub metrics_links: u64,
}

/// Merges per-node latency histograms into the fleet-wide distribution
/// the reporter quotes percentiles from. Count-additive bucket by
/// bucket (asserted by the property test below).
pub fn merge_node_histograms<'a, I>(hists: I) -> LatencyHistogram
where
    I: IntoIterator<Item = &'a LatencyHistogram>,
{
    let mut merged = LatencyHistogram::default();
    for h in hists {
        merged.merge(h);
    }
    merged
}

// ---------------------------------------------------------------------------
// Fleet assembly and the measurement loop
// ---------------------------------------------------------------------------

struct Fleet {
    h: SimHarness,
    /// Publish and completion logs of the file workload (empty in the
    /// others).
    published_at: PublishLog,
    received: ReceiptLog,
}

fn load_container(name: &str, node: NodeId) -> ContainerConfig {
    let mut cfg = ContainerConfig::new(name, node);
    cfg.trace_capacity = 128;
    cfg
}

/// A never-ending source at the configured rate and payload.
fn source(service: &'static str, emit: Emit, cfg: &LoadtestConfig) -> Source {
    Source::new(service, emit, cfg.payload_bytes, Some(cfg.source_period()), None)
}

fn var_source(channel: &str, cfg: &LoadtestConfig) -> Source {
    let emit = Emit::Var(VarPort::new(channel), cfg.source_period().saturating_mul(8));
    source("load-varpub", emit, cfg)
}

fn var_sink(channel: &str) -> Sink {
    Sink { service: "load-varsink", vars: vec![channel.to_string()], ..Sink::default() }
}

fn build_fleet(cfg: &LoadtestConfig) -> Fleet {
    let mut h = SimHarness::new(NetConfig::default().with_seed(cfg.seed));
    h.set_tick_us(TICK_US);
    let (published_at, received) = (PublishLog::default(), ReceiptLog::default());
    match cfg.workload {
        // One source on node 1 fanning out to `pairs` subscriber nodes.
        Workload::VarFanout | Workload::FileMulticast => {
            let files = cfg.workload == Workload::FileMulticast;
            let source = if files {
                source(
                    "load-filepub",
                    Emit::File("load/file".to_string(), published_at.clone()),
                    cfg,
                )
            } else {
                var_source("load/var", cfg)
            };
            h.add_container(load_container("load-pub", NodeId(1)));
            h.add_service(NodeId(1), Box::new(source));
            for i in 0..cfg.pairs {
                let sink = if files {
                    Sink {
                        service: "load-filesink",
                        files: vec!["load/file".to_string()],
                        received: received.clone(),
                        ..Sink::default()
                    }
                } else {
                    var_sink("load/var")
                };
                h.add_container(load_container("load-sub", NodeId(101 + i)));
                h.add_service(NodeId(101 + i), Box::new(sink));
            }
        }
        Workload::EventFlood | Workload::RpcEcho | Workload::MixedMission => {
            let (pub_name, sub_name) = match cfg.workload {
                Workload::RpcEcho => ("load-caller", "load-echo"),
                _ => ("load-pub", "load-sub"),
            };
            for i in 0..cfg.pairs {
                let pair = (NodeId(1 + i), NodeId(101 + i));
                h.add_container(load_container(pub_name, pair.0));
                h.add_container(load_container(sub_name, pair.1));
                // The mixed mission rotates the three pair kinds; the
                // single-kind workloads pin one.
                let kind = match cfg.workload {
                    Workload::EventFlood => 1,
                    Workload::RpcEcho => 2,
                    _ => i % 3,
                };
                let (source, sink): (Source, Box<dyn Service>) = match kind {
                    0 => {
                        let channel = format!("load/var{i}");
                        (var_source(&channel, cfg), Box::new(var_sink(&channel)))
                    }
                    1 => {
                        let channel = format!("load/ev{i}");
                        let emit = Emit::Event(EventPort::new(&channel));
                        let events = vec![channel];
                        (
                            source("load-evpub", emit, cfg),
                            Box::new(Sink { service: "load-evsink", events, ..Sink::default() }),
                        )
                    }
                    _ => {
                        let echo = || FnPort::new(&format!("load/echo{i}"));
                        (
                            source("load-caller", Emit::Call(echo(), None), cfg),
                            Box::new(Echo { service: "load-echo", port: echo() }),
                        )
                    }
                };
                h.add_service(pair.0, Box::new(source));
                h.add_service(pair.1, sink);
            }
        }
    }
    if cfg.sample_period_ms > 0 {
        h.enable_metrics(MetricsConfig {
            period: ProtoDuration::from_millis(cfg.sample_period_ms),
            capacity: 16 * 1024,
        });
    }
    h.start_all();
    Fleet { h, published_at, received }
}

/// Cumulative counters at one instant; windows are snapshot deltas.
#[derive(Clone, Copy, Default)]
struct Snap {
    offered: u64,
    delivered: u64,
    hist: LatencyHistogram,
}

/// Fleet-wide cumulative counters over all four primitives; a workload
/// moves only the ones it exercises.
fn snap(fleet: &Fleet) -> Snap {
    let mut s = Snap::default();
    for st in fleet.h.nodes().iter().filter_map(|&n| fleet.h.container(n)).map(|c| c.stats()) {
        s.offered += st.vars_published + st.events_published + st.calls_made + st.files_published;
        s.delivered += st.var_samples_delivered
            + st.events_delivered
            + st.call_rtt.count()
            + st.files_received;
        s.hist.merge(&st.publish_to_deliver);
        s.hist.merge(&st.event_to_deliver);
        s.hist.merge(&st.call_rtt);
    }
    // File completions have no container histogram: their latency is
    // completion time minus the logged publish time of that revision.
    let published_at = fleet.published_at.lock().unwrap();
    let mut per_node: BTreeMap<u32, LatencyHistogram> = BTreeMap::new();
    for r in fleet.received.lock().unwrap().iter() {
        if let Some(&at) = published_at.get(r.revision as usize - 1) {
            per_node.entry(r.node).or_default().record(r.at.as_micros().saturating_sub(at));
        }
    }
    s.hist.merge(&merge_node_histograms(per_node.values()));
    s
}

fn window_report(
    index: u32,
    start_us: u64,
    end_us: u64,
    before: &Snap,
    after: &Snap,
    payload_bytes: usize,
) -> WindowReport {
    let dur_us = end_us.saturating_sub(start_us).max(1);
    let offered = after.offered.saturating_sub(before.offered);
    let delivered = after.delivered.saturating_sub(before.delivered);
    let hist = after.hist.saturating_diff(&before.hist);
    let achieved_hz = delivered.saturating_mul(1_000_000) / dur_us;
    let goodput_bps =
        (delivered as u128 * payload_bytes as u128 * 8 * 1_000_000 / dur_us as u128) as u64;
    WindowReport {
        index,
        start_us,
        end_us,
        offered,
        delivered,
        achieved_hz,
        goodput_bps,
        latency: LatencySummary::of(&hist),
    }
}

/// Runs one loadtest end to end: build the fleet, warm up, measure
/// `windows` windows, aggregate. Deterministic per config.
pub fn run_loadtest(cfg: &LoadtestConfig) -> LoadtestReport {
    let mut fleet = build_fleet(cfg);
    fleet.h.run_for_millis(cfg.warmup_ms);
    let mut snaps = vec![snap(&fleet)];
    let mut marks = vec![fleet.h.now().as_micros()];
    for _ in 0..cfg.windows {
        fleet.h.run_for_millis(cfg.window_ms);
        snaps.push(snap(&fleet));
        marks.push(fleet.h.now().as_micros());
    }
    let windows: Vec<WindowReport> = (1..snaps.len())
        .map(|i| {
            window_report(
                i as u32,
                marks[i - 1],
                marks[i],
                &snaps[i - 1],
                &snaps[i],
                cfg.payload_bytes,
            )
        })
        .collect();
    let last = snaps.len() - 1;
    let overall =
        window_report(0, marks[0], marks[last], &snaps[0], &snaps[last], cfg.payload_bytes);
    let (metrics_samples, metrics_frames, metrics_links) = match fleet.h.metrics() {
        Some(m) => (
            m.samples(),
            m.frames().count() as u64 + m.evicted_frames(),
            m.link_frames().count() as u64 + m.evicted_links(),
        ),
        None => (0, 0, 0),
    };
    LoadtestReport {
        config: *cfg,
        windows,
        overall,
        metrics_samples,
        metrics_frames,
        metrics_links,
    }
}

// ---------------------------------------------------------------------------
// Reporting and the regression gate
// ---------------------------------------------------------------------------

fn window_json(out: &mut String, w: &WindowReport) {
    let _ = write!(
        out,
        "{{\"index\": {}, \"start_us\": {}, \"end_us\": {}, \"offered\": {}, \"delivered\": {}, \
         \"achieved_hz\": {}, \"goodput_bps\": {}, ",
        w.index, w.start_us, w.end_us, w.offered, w.delivered, w.achieved_hz, w.goodput_bps,
    );
    w.latency.write_json(out, "", true);
    out.push('}');
}

/// Renders the report as the byte-deterministic JSON document checked
/// in as `BENCH_loadtest_<workload>.json`.
pub fn report_json(r: &LoadtestReport) -> String {
    let c = &r.config;
    let mut out = String::with_capacity(2048);
    let _ = write!(
        out,
        "{{\n  \"workload\": \"{}\",\n  \"config\": {{\"pairs\": {}, \"rate_hz\": {}, \
         \"payload_bytes\": {}, \"warmup_ms\": {}, \"window_ms\": {}, \"windows\": {}, \
         \"sample_period_ms\": {}, \"seed\": {}, \"tick_us\": {}}},\n  \"windows\": [\n",
        c.workload.name(),
        c.pairs,
        c.rate_hz,
        c.payload_bytes,
        c.warmup_ms,
        c.window_ms,
        c.windows,
        c.sample_period_ms,
        c.seed,
        TICK_US,
    );
    for (i, w) in r.windows.iter().enumerate() {
        out.push_str("    ");
        window_json(&mut out, w);
        if i + 1 < r.windows.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ],\n  \"overall\": ");
    window_json(&mut out, &r.overall);
    let _ = write!(
        out,
        ",\n  \"metrics\": {{\"samples\": {}, \"frames\": {}, \"links\": {}}}\n}}\n",
        r.metrics_samples, r.metrics_frames, r.metrics_links,
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(workload: Workload) -> LoadtestConfig {
        LoadtestConfig {
            workload,
            pairs: 2,
            rate_hz: 200,
            payload_bytes: 64,
            warmup_ms: 200,
            window_ms: 200,
            windows: 2,
            sample_period_ms: 50,
            seed: 23,
        }
    }

    #[test]
    fn loadtest_reports_are_byte_deterministic_per_seed() {
        for workload in [Workload::EventFlood, Workload::RpcEcho] {
            let cfg = quick(workload);
            let a = report_json(&run_loadtest(&cfg));
            let b = report_json(&run_loadtest(&cfg));
            assert_eq!(a, b, "{}: same seed must reproduce the report bytes", workload.name());
            let other = report_json(&run_loadtest(&LoadtestConfig { seed: 24, ..cfg }));
            assert!(
                !other.is_empty() && other.contains(workload.name()),
                "other-seed run still renders"
            );
        }
    }

    #[test]
    fn loadtest_delivers_and_measures_under_every_workload() {
        for workload in Workload::ALL {
            let cfg = LoadtestConfig {
                // File transfers need a slower source to complete.
                rate_hz: if workload == Workload::FileMulticast { 20 } else { 200 },
                payload_bytes: if workload == Workload::FileMulticast { 1024 } else { 64 },
                warmup_ms: 400,
                ..quick(workload)
            };
            let r = run_loadtest(&cfg);
            assert_eq!(r.windows.len(), 2, "{}", workload.name());
            assert!(r.overall.offered > 0, "{}: sources ran: {r:?}", workload.name());
            assert!(r.overall.delivered > 0, "{}: deliveries measured: {r:?}", workload.name());
            assert!(
                r.overall.latency.count > 0,
                "{}: latency histogram populated: {r:?}",
                workload.name()
            );
            assert!(r.metrics_samples > 0, "{}: sampler ran: {r:?}", workload.name());
            assert!(r.overall.goodput_bps > 0, "{}: goodput: {r:?}", workload.name());
        }
    }

    #[test]
    fn reporter_merge_preserves_count_additivity_and_quantile_monotonicity() {
        // Property sweep over deterministic pseudo-random per-node
        // histograms — the exact merge the loadtest reporter performs.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        for round in 0..24 {
            let nodes = 2 + (round % 7) as usize;
            let mut per_node = Vec::new();
            for _ in 0..nodes {
                let mut h = LatencyHistogram::default();
                let n = 1 + next() % 400;
                for _ in 0..n {
                    let shift = (next() % 40) as u32;
                    h.record(next() >> shift);
                }
                per_node.push(h);
            }
            let merged = merge_node_histograms(per_node.iter());
            // Count additivity, total and bucket by bucket.
            let total: u64 = per_node.iter().map(LatencyHistogram::count).sum();
            assert_eq!(merged.count(), total, "round {round}: count additivity");
            for b in 0..marea_core::trace::HISTOGRAM_BUCKETS {
                let sum: u64 = per_node.iter().map(|h| h.buckets()[b]).sum();
                assert_eq!(merged.buckets()[b], sum, "round {round} bucket {b}");
            }
            // Quantile monotonicity on the merged distribution …
            let (p50, p99, p999) =
                (merged.p50_us().unwrap(), merged.p99_us().unwrap(), merged.p999_us().unwrap());
            assert!(p50 <= p99 && p99 <= p999, "round {round}: {p50} {p99} {p999}");
            // … and the merged quantiles bracket the per-node extremes:
            // no node's p50 floor is above the merged p999, and the
            // merged p999 never exceeds the largest per-node p999.
            let max_p999 = per_node.iter().filter_map(LatencyHistogram::p999_us).max().unwrap();
            assert!(p999 <= max_p999, "round {round}: merged p999 {p999} > max node {max_p999}");
            let min_p50 = per_node.iter().filter_map(LatencyHistogram::p50_us).min().unwrap();
            assert!(p50 >= min_p50, "round {round}: merged p50 {p50} < min node {min_p50}");
        }
    }

    /// Metrics-sampler wall-clock gate, C10-style: sampling at an
    /// aggressive 2 ms period must cost ≤5% against the sampler-off
    /// leg of the same flood. Wall-clock, so ignored by default; CI
    /// runs it in release.
    #[test]
    #[ignore = "wall-clock measurement; CI runs it in release"]
    fn metrics_overhead_stays_within_five_percent() {
        let run_cfg = |sampled: bool, rep: u64| LoadtestConfig {
            workload: Workload::EventFlood,
            pairs: 4,
            rate_hz: 1000,
            payload_bytes: 64,
            warmup_ms: 100,
            window_ms: 400,
            windows: 4,
            sample_period_ms: if sampled { 2 } else { 0 },
            seed: 900 + rep,
        };
        crate::tests::assert_overhead_within_five_percent(
            "metrics gate (sampling)",
            |sampled, rep| {
                #[expect(
                    clippy::disallowed_methods,
                    reason = "wall-clock gate — measuring the real cost of sampling is the point"
                )]
                let t0 = std::time::Instant::now();
                let _ = run_loadtest(&run_cfg(sampled, rep));
                t0.elapsed()
            },
        );
    }
}
