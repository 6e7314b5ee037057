//! Deterministic metrics timeline — periodic counter sampling on the
//! sim clock.
//!
//! The flight recorder ([`crate::trace`]) answers *"what happened to
//! this one message"*; this module answers *"how did the system trend
//! over the run"*. A [`MetricsSampler`] owned by the
//! [`SimHarness`](crate::SimHarness) fires on a configurable
//! **sim-clock** period and snapshots every container's
//! [`ContainerStats`] (QoS, FEC and latency histograms included) plus
//! the netsim's per-link delivery counters into a bounded in-memory
//! timeline of [`MetricsFrame`] / [`LinkFrame`] rows.
//!
//! Determinism rules (the reason BENCH_*.json files can be byte-diffed
//! in CI):
//!
//! * sampling is driven by virtual time only — no wall-clock reads
//!   (lint rule D2 covers this file like any other);
//! * the sample path allocates no strings and performs integer
//!   arithmetic only (lint rule O1's scope includes this file; its
//!   matchers cover the `fn sample_*` bodies and the frame literals);
//! * nodes are visited in sorted `NodeId` order and links in sorted
//!   `(src, dst)` order, so the same seed reproduces the same timeline
//!   byte for byte;
//! * rendering ([`MetricsSampler::to_jsonl`] / [`to_json`]) happens at
//!   dump time, never at sample time, and formats integers only.
//!
//! Each frame carries **deltas** since the previous sample of the same
//! node (counters restart from zero after a node restart: deltas
//! saturate at zero rather than underflow) and the p50/p99/p999 bounds
//! of the latency observed **within the sample window** (bucket-wise
//! histogram difference). The timeline is bounded: once `capacity`
//! frames are held, the oldest are evicted and counted.
//!
//! [`to_json`]: MetricsSampler::to_json

use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;

use marea_netsim::SimNet;
use marea_protocol::{Micros, NodeId, ProtoDuration};

use crate::container::ServiceContainer;
use crate::stats::ContainerStats;
use crate::trace::LatencyHistogram;

/// Configuration of the [`MetricsSampler`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricsConfig {
    /// Sim-clock sampling period.
    pub period: ProtoDuration,
    /// Maximum node frames (and, independently, link frames) retained;
    /// older rows are evicted and counted once the bound is reached.
    pub capacity: usize,
}

impl Default for MetricsConfig {
    fn default() -> Self {
        MetricsConfig { period: ProtoDuration::from_millis(100), capacity: 4096 }
    }
}

impl MetricsConfig {
    /// Config with the given sampling period and the default bound.
    pub fn with_period(period: ProtoDuration) -> Self {
        MetricsConfig { period, ..Self::default() }
    }
}

/// Count and log2-bucket quantile bounds of the latency observed in one
/// sample window (`None` quantiles when the window saw no samples).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencySummary {
    /// Samples recorded in the window.
    pub count: u64,
    /// Upper bound of the window's 50th percentile, µs.
    pub p50_us: Option<u64>,
    /// Upper bound of the window's 99th percentile, µs.
    pub p99_us: Option<u64>,
    /// Upper bound of the window's 99.9th percentile, µs.
    pub p999_us: Option<u64>,
}

impl LatencySummary {
    /// Summarizes a histogram (typically a window delta).
    pub fn of(h: &LatencyHistogram) -> Self {
        LatencySummary {
            count: h.count(),
            p50_us: h.p50_us(),
            p99_us: h.p99_us(),
            p999_us: h.p999_us(),
        }
    }

    /// Summarizes the samples recorded between two cumulative snapshots.
    pub fn of_window(now: &LatencyHistogram, prev: &LatencyHistogram) -> Self {
        Self::of(&now.saturating_diff(prev))
    }
}

/// One node's activity in one sample window: counter deltas since the
/// node's previous sample plus windowed latency quantiles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricsFrame {
    /// Virtual time of the sample (global harness clock).
    pub at: Micros,
    /// Monotone sample index (1-based; shared by every node's frame of
    /// the same sampling instant).
    pub sample: u64,
    /// Node the frame describes.
    pub node: NodeId,
    /// Datagrams received from the transport.
    pub datagrams_in: u64,
    /// Frames read out of them, valid or not.
    pub frames_in: u64,
    /// Received frames discarded unread (bad length or CRC, with the rest
    /// of their datagram; or a body that does not parse).
    pub frames_rejected: u64,
    /// Datagrams handed to the transport.
    pub datagrams_out: u64,
    /// Frames handed to the transport, inside those datagrams.
    pub frames_out: u64,
    /// Frame bytes handed to the transport.
    pub bytes_out: u64,
    /// Handler invocations executed.
    pub tasks_executed: u64,
    /// Variable samples published.
    pub vars_published: u64,
    /// Variable samples delivered to local handlers.
    pub var_samples_delivered: u64,
    /// Events published.
    pub events_published: u64,
    /// Events delivered to local handlers.
    pub events_delivered: u64,
    /// Remote invocations started.
    pub calls_made: u64,
    /// Invocations executed on behalf of callers.
    pub calls_served: u64,
    /// File publications (including revisions).
    pub files_published: u64,
    /// File receptions completed over the network.
    pub files_received: u64,
    /// QoS: variable loss deadlines missed.
    pub deadline_misses: u64,
    /// QoS: stale variable samples dropped.
    pub stale_drops: u64,
    /// QoS: event deliveries dropped by bounded inboxes.
    pub queue_drops: u64,
    /// QoS: invocations re-dispatched to another provider.
    pub retries: u64,
    /// FEC: data shards sent.
    pub fec_data_shards_out: u64,
    /// FEC: parity shards sent.
    pub fec_parity_shards_out: u64,
    /// FEC: shards received.
    pub fec_shards_in: u64,
    /// FEC: erased frames rebuilt from parity.
    pub fec_recovered: u64,
    /// Publish→deliver latency observed in this window.
    pub var_latency: LatencySummary,
    /// Event production→handler latency observed in this window.
    pub event_latency: LatencySummary,
    /// Call round-trip latency observed in this window.
    pub call_rtt: LatencySummary,
}

/// One link's delivery activity in one sample window (emitted only for
/// links that attempted at least one datagram in the window).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkFrame {
    /// Virtual time of the sample.
    pub at: Micros,
    /// Monotone sample index (matches the node frames of the instant).
    pub sample: u64,
    /// Sending node.
    pub src: u32,
    /// Receiving node.
    pub dst: u32,
    /// Datagrams attempted on the link in the window.
    pub attempts: u64,
    /// Datagrams lost on the link in the window.
    pub lost: u64,
}

/// Bounded, allocation-disciplined timeline of periodic counter samples.
///
/// Owned by the harness (see
/// [`SimHarness::enable_metrics`](crate::SimHarness::enable_metrics));
/// [`sample_fleet`](MetricsSampler::sample_fleet) is invoked from
/// `SimHarness::step` whenever the period elapses.
#[derive(Debug)]
pub struct MetricsSampler {
    period_us: u64,
    next_due_us: u64,
    sample: u64,
    capacity: usize,
    frames: VecDeque<MetricsFrame>,
    links: VecDeque<LinkFrame>,
    evicted_frames: u64,
    evicted_links: u64,
    last: BTreeMap<NodeId, ContainerStats>,
    last_links: BTreeMap<(u32, u32), (u64, u64)>,
}

impl MetricsSampler {
    /// Creates a sampler whose first sample is due one period after
    /// `now` (the harness clock at enable time).
    pub fn new(config: MetricsConfig, now: Micros) -> Self {
        let period_us = config.period.as_micros().max(1);
        MetricsSampler {
            period_us,
            next_due_us: now.0.saturating_add(period_us),
            sample: 0,
            capacity: config.capacity.max(1),
            frames: VecDeque::with_capacity(config.capacity.clamp(1, 4096)),
            links: VecDeque::with_capacity(config.capacity.clamp(1, 4096)),
            evicted_frames: 0,
            evicted_links: 0,
            last: BTreeMap::new(),
            last_links: BTreeMap::new(),
        }
    }

    /// True when the period has elapsed and the harness should sample.
    pub fn due(&self, now: Micros) -> bool {
        now.0 >= self.next_due_us
    }

    /// Sampling period in µs.
    pub fn period_us(&self) -> u64 {
        self.period_us
    }

    /// Samples every container (handed over in ascending node order) and
    /// every active link once.
    ///
    /// This is the hot path the O1 lint rule guards: no string
    /// allocation, no wall-clock reads, integer math only. The only
    /// heap activity is amortized growth of the pre-sized frame
    /// buffers and the per-node last-snapshot map (first sample of a
    /// node only).
    pub fn sample_fleet<'a>(
        &mut self,
        at: Micros,
        containers: impl Iterator<Item = &'a ServiceContainer>,
        net: &SimNet,
    ) {
        self.sample += 1;
        while self.next_due_us <= at.0 {
            self.next_due_us += self.period_us;
        }
        for container in containers {
            self.sample_node(at, container.node(), &container.stats());
        }
        let sample = self.sample;
        net.with_stats(|s| {
            for (&(src, dst), observed) in &s.per_link {
                let (prev_attempts, prev_lost) =
                    self.last_links.get(&(src, dst)).copied().unwrap_or((0, 0));
                let attempts = observed.attempts.saturating_sub(prev_attempts);
                let lost = observed.lost.saturating_sub(prev_lost);
                self.last_links.insert((src, dst), (observed.attempts, observed.lost));
                if attempts == 0 && lost == 0 {
                    continue;
                }
                if self.links.len() >= self.capacity {
                    self.links.pop_front();
                    self.evicted_links += 1;
                }
                self.links.push_back(LinkFrame { at, sample, src, dst, attempts, lost });
            }
        });
    }

    /// Folds one node's cumulative stats into a delta frame.
    fn sample_node(&mut self, at: Micros, node: NodeId, stats: &ContainerStats) {
        let prev = self.last.get(&node).copied().unwrap_or_default();
        let d = |now: u64, before: u64| now.saturating_sub(before);
        let frame = MetricsFrame {
            at,
            sample: self.sample,
            node,
            datagrams_in: d(stats.datagrams_in, prev.datagrams_in),
            frames_in: d(stats.frames_in, prev.frames_in),
            frames_rejected: d(stats.frames_rejected, prev.frames_rejected),
            datagrams_out: d(stats.datagrams_out, prev.datagrams_out),
            frames_out: d(stats.frames_out, prev.frames_out),
            bytes_out: d(stats.bytes_out, prev.bytes_out),
            tasks_executed: d(stats.tasks_executed, prev.tasks_executed),
            vars_published: d(stats.vars_published, prev.vars_published),
            var_samples_delivered: d(stats.var_samples_delivered, prev.var_samples_delivered),
            events_published: d(stats.events_published, prev.events_published),
            events_delivered: d(stats.events_delivered, prev.events_delivered),
            calls_made: d(stats.calls_made, prev.calls_made),
            calls_served: d(stats.calls_served, prev.calls_served),
            files_published: d(stats.files_published, prev.files_published),
            files_received: d(stats.files_received, prev.files_received),
            deadline_misses: d(stats.qos.deadline_misses, prev.qos.deadline_misses),
            stale_drops: d(stats.qos.stale_drops, prev.qos.stale_drops),
            queue_drops: d(stats.qos.queue_drops, prev.qos.queue_drops),
            retries: d(stats.qos.retries, prev.qos.retries),
            fec_data_shards_out: d(stats.fec.data_shards_out, prev.fec.data_shards_out),
            fec_parity_shards_out: d(stats.fec.parity_shards_out, prev.fec.parity_shards_out),
            fec_shards_in: d(stats.fec.shards_in, prev.fec.shards_in),
            fec_recovered: d(stats.fec.recovered, prev.fec.recovered),
            var_latency: LatencySummary::of_window(
                &stats.publish_to_deliver,
                &prev.publish_to_deliver,
            ),
            event_latency: LatencySummary::of_window(
                &stats.event_to_deliver,
                &prev.event_to_deliver,
            ),
            call_rtt: LatencySummary::of_window(&stats.call_rtt, &prev.call_rtt),
        };
        if self.frames.len() >= self.capacity {
            self.frames.pop_front();
            self.evicted_frames += 1;
        }
        self.frames.push_back(frame);
        self.last.insert(node, *stats);
    }

    /// Samples taken so far.
    pub fn samples(&self) -> u64 {
        self.sample
    }

    /// Retained node frames, oldest first.
    pub fn frames(&self) -> impl Iterator<Item = &MetricsFrame> {
        self.frames.iter()
    }

    /// Retained link frames, oldest first.
    pub fn link_frames(&self) -> impl Iterator<Item = &LinkFrame> {
        self.links.iter()
    }

    /// Node frames evicted by the capacity bound.
    pub fn evicted_frames(&self) -> u64 {
        self.evicted_frames
    }

    /// Link frames evicted by the capacity bound.
    pub fn evicted_links(&self) -> u64 {
        self.evicted_links
    }

    /// Renders the timeline as JSONL: one `kind:"node"` object per node
    /// frame, one `kind:"link"` object per link frame, and a trailing
    /// `kind:"summary"` line. Byte-deterministic for a given timeline.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.frames.len() * 256 + self.links.len() * 96 + 128);
        for f in &self.frames {
            frame_json(&mut out, f);
            out.push('\n');
        }
        for l in &self.links {
            link_json(&mut out, l);
            out.push('\n');
        }
        let _ = write!(
            out,
            "{{\"kind\":\"summary\",\"samples\":{},\"frames\":{},\"links\":{},\"evicted_frames\":{},\"evicted_links\":{}}}",
            self.sample,
            self.frames.len(),
            self.links.len(),
            self.evicted_frames,
            self.evicted_links,
        );
        out.push('\n');
        out
    }

    /// Renders the timeline as one JSON document with `frames`,
    /// `links` and eviction counters. Byte-deterministic.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(self.frames.len() * 256 + self.links.len() * 96 + 128);
        out.push_str("{\n  \"frames\": [\n");
        for (i, f) in self.frames.iter().enumerate() {
            out.push_str("    ");
            frame_json(&mut out, f);
            if i + 1 < self.frames.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  ],\n  \"links\": [\n");
        for (i, l) in self.links.iter().enumerate() {
            out.push_str("    ");
            link_json(&mut out, l);
            if i + 1 < self.links.len() {
                out.push(',');
            }
            out.push('\n');
        }
        let _ = write!(
            out,
            "  ],\n  \"samples\": {},\n  \"evicted_frames\": {},\n  \"evicted_links\": {}\n}}\n",
            self.sample, self.evicted_frames, self.evicted_links,
        );
        out
    }
}

fn opt_json(out: &mut String, v: Option<u64>) {
    match v {
        Some(x) => {
            let _ = write!(out, "{x}");
        }
        None => out.push_str("null"),
    }
}

fn summary_json(out: &mut String, key: &str, s: &LatencySummary) {
    let _ = write!(out, "\"{key}_count\":{},\"{key}_p50_us\":", s.count);
    opt_json(out, s.p50_us);
    let _ = write!(out, ",\"{key}_p99_us\":");
    opt_json(out, s.p99_us);
    let _ = write!(out, ",\"{key}_p999_us\":");
    opt_json(out, s.p999_us);
}

fn frame_json(out: &mut String, f: &MetricsFrame) {
    let _ = write!(
        out,
        "{{\"kind\":\"node\",\"at_us\":{},\"sample\":{},\"node\":{},\
         \"datagrams_in\":{},\"frames_in\":{},\"frames_rejected\":{},\
         \"datagrams_out\":{},\"frames_out\":{},\"bytes_out\":{},\"tasks_executed\":{},\
         \"vars_published\":{},\"var_samples_delivered\":{},\
         \"events_published\":{},\"events_delivered\":{},\
         \"calls_made\":{},\"calls_served\":{},\
         \"files_published\":{},\"files_received\":{},\
         \"deadline_misses\":{},\"stale_drops\":{},\"queue_drops\":{},\"retries\":{},\
         \"fec_data_shards_out\":{},\"fec_parity_shards_out\":{},\"fec_shards_in\":{},\"fec_recovered\":{},",
        f.at.0,
        f.sample,
        f.node.0,
        f.datagrams_in,
        f.frames_in,
        f.frames_rejected,
        f.datagrams_out,
        f.frames_out,
        f.bytes_out,
        f.tasks_executed,
        f.vars_published,
        f.var_samples_delivered,
        f.events_published,
        f.events_delivered,
        f.calls_made,
        f.calls_served,
        f.files_published,
        f.files_received,
        f.deadline_misses,
        f.stale_drops,
        f.queue_drops,
        f.retries,
        f.fec_data_shards_out,
        f.fec_parity_shards_out,
        f.fec_shards_in,
        f.fec_recovered,
    );
    summary_json(out, "var", &f.var_latency);
    out.push(',');
    summary_json(out, "event", &f.event_latency);
    out.push(',');
    summary_json(out, "call", &f.call_rtt);
    out.push('}');
}

fn link_json(out: &mut String, l: &LinkFrame) {
    let _ = write!(
        out,
        "{{\"kind\":\"link\",\"at_us\":{},\"sample\":{},\"src\":{},\"dst\":{},\"attempts\":{},\"lost\":{}}}",
        l.at.0, l.sample, l.src, l.dst, l.attempts, l.lost,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame_at(sample: u64, node: u32) -> MetricsFrame {
        MetricsFrame {
            at: Micros(sample * 1000),
            sample,
            node: NodeId(node),
            datagrams_in: 1,
            frames_in: 1,
            frames_rejected: 0,
            datagrams_out: 1,
            frames_out: 2,
            bytes_out: 3,
            tasks_executed: 4,
            vars_published: 5,
            var_samples_delivered: 6,
            events_published: 7,
            events_delivered: 8,
            calls_made: 9,
            calls_served: 10,
            files_published: 0,
            files_received: 0,
            deadline_misses: 0,
            stale_drops: 0,
            queue_drops: 0,
            retries: 0,
            fec_data_shards_out: 0,
            fec_parity_shards_out: 0,
            fec_shards_in: 0,
            fec_recovered: 0,
            var_latency: LatencySummary::default(),
            event_latency: LatencySummary::default(),
            call_rtt: LatencySummary::default(),
        }
    }

    #[test]
    fn capacity_bound_evicts_oldest() {
        let cfg = MetricsConfig { period: ProtoDuration::from_millis(1), capacity: 3 };
        let mut s = MetricsSampler::new(cfg, Micros(0));
        for i in 1..=5 {
            if s.frames.len() >= s.capacity {
                s.frames.pop_front();
                s.evicted_frames += 1;
            }
            s.frames.push_back(frame_at(i, 1));
        }
        assert_eq!(s.frames.len(), 3);
        assert_eq!(s.evicted_frames(), 2);
        assert_eq!(s.frames().next().map(|f| f.sample), Some(3));
    }

    #[test]
    fn due_respects_period_grid() {
        let cfg = MetricsConfig { period: ProtoDuration::from_millis(10), capacity: 8 };
        let s = MetricsSampler::new(cfg, Micros(5_000));
        assert!(!s.due(Micros(5_000)));
        assert!(!s.due(Micros(14_999)));
        assert!(s.due(Micros(15_000)));
    }

    #[test]
    fn summary_of_window_subtracts_previous_snapshot() {
        let mut prev = LatencyHistogram::default();
        let mut now = LatencyHistogram::default();
        for us in [10, 20, 30] {
            prev.record(us);
            now.record(us);
        }
        for us in [100, 200, 400, 800] {
            now.record(us);
        }
        let w = LatencySummary::of_window(&now, &prev);
        assert_eq!(w.count, 4);
        assert!(w.p50_us.unwrap() >= 100);
        let empty = LatencySummary::of_window(&prev, &prev);
        assert_eq!(empty.count, 0);
        assert_eq!(empty.p50_us, None);
    }

    #[test]
    fn jsonl_is_deterministic_and_carries_all_quantile_fields() {
        let cfg = MetricsConfig::default();
        let mut s = MetricsSampler::new(cfg, Micros(0));
        s.frames.push_back(frame_at(1, 7));
        s.links.push_back(LinkFrame {
            at: Micros(1000),
            sample: 1,
            src: 1,
            dst: 2,
            attempts: 9,
            lost: 1,
        });
        s.sample = 1;
        let a = s.to_jsonl();
        let b = s.to_jsonl();
        assert_eq!(a, b);
        assert!(a.contains("\"var_p999_us\":null"));
        assert!(a.contains("\"kind\":\"link\""));
        assert!(a.ends_with("\"evicted_links\":0}\n"));
        let doc = s.to_json();
        assert!(doc.contains("\"frames\": ["));
        assert!(doc.contains("\"samples\": 1"));
    }
}
