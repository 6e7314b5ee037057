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
//! A frame is `{at, sample, node}` plus [`ContainerStats::since`] the
//! node's previous sample — the counter list in `stats.rs` is the frame
//! schema, and this file names no counter. Cumulative counters appear
//! as **deltas** (counters restart from zero after a node restart:
//! deltas saturate at zero rather than underflow), high-water marks are
//! carried as they stand, and each histogram as the count and
//! p50/p99/p999 bounds of the latency observed **within the sample
//! window** (bucket-wise difference). The timeline is bounded: once
//! `capacity` frames are held, the oldest are evicted and counted.
//!
//! [`to_json`]: MetricsSampler::to_json

use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;

use marea_netsim::SimNet;
use marea_protocol::{Micros, NodeId, ProtoDuration};

use crate::container::ServiceContainer;
use crate::stats::{ContainerStats, LatencySummary, Stat};

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

/// One node's activity in one sample window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricsFrame {
    /// Virtual time of the sample (global harness clock).
    pub at: Micros,
    /// Monotone sample index (1-based; shared by every node's frame of
    /// the same sampling instant).
    pub sample: u64,
    /// Node the frame describes.
    pub node: NodeId,
    /// Every [`ContainerStats`] counter over the window, as
    /// [`ContainerStats::since`] the node's previous sample gives it.
    pub delta: ContainerStats<LatencySummary>,
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
        let prev = self.last.entry(node).or_default();
        let frame = MetricsFrame { at, sample: self.sample, node, delta: stats.since(prev) };
        *prev = *stats;
        if self.frames.len() >= self.capacity {
            self.frames.pop_front();
            self.evicted_frames += 1;
        }
        self.frames.push_back(frame);
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

/// One member per counter the [`ContainerStats`] schema walks, keyed
/// `name` or `group.name`; a histogram is its four `name.count` /
/// `name.p50_us` / … members.
fn frame_json(out: &mut String, f: &MetricsFrame) {
    let _ = write!(
        out,
        "{{\"kind\":\"node\",\"at_us\":{},\"sample\":{},\"node\":{}",
        f.at.0, f.sample, f.node.0,
    );
    f.delta.walk("", &mut |prefix, name, value| {
        out.push(',');
        match value {
            Stat::Scalar(v) => {
                let _ = write!(out, "\"{prefix}{name}\":{v}");
            }
            Stat::Latency(window) => window.write_json(out, format_args!("{prefix}{name}."), false),
        }
    });
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
    use crate::trace::LatencyHistogram;

    fn sampler(period_ms: u64, capacity: usize) -> MetricsSampler {
        let cfg = MetricsConfig { period: ProtoDuration::from_millis(period_ms), capacity };
        MetricsSampler::new(cfg, Micros(0))
    }

    #[test]
    fn capacity_bound_evicts_oldest() {
        let mut s = sampler(1, 3);
        for i in 1..=5 {
            s.sample = i;
            s.sample_node(Micros(i * 1000), NodeId(1), &ContainerStats::default());
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
    fn a_frame_is_the_window_since_the_nodes_previous_sample() {
        let mut s = sampler(100, 8);
        let mut stats = ContainerStats { ticks: 10, queue_peak: 4, ..Default::default() };
        s.sample_node(Micros(1000), NodeId(7), &stats);
        (stats.ticks, stats.queue_peak) = (25, 6);
        s.sample_node(Micros(2000), NodeId(7), &stats);
        // Another node's first sample is measured from zero, not from node 7.
        s.sample_node(Micros(2000), NodeId(8), &stats);
        // A restarted node counts from zero again: an empty window, no underflow.
        s.sample_node(Micros(3000), NodeId(7), &ContainerStats::default());
        let ticks: Vec<_> = s.frames().map(|f| (f.node.0, f.delta.ticks)).collect();
        assert_eq!(ticks, [(7, 10), (7, 15), (8, 25), (7, 0)]);
        let peaks: Vec<_> = s.frames().map(|f| f.delta.queue_peak).collect();
        assert_eq!(peaks, [4, 6, 6, 0], "high-water marks are carried, not subtracted");
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
        let mut s = sampler(100, 8);
        s.sample = 1;
        s.sample_node(Micros(1000), NodeId(7), &ContainerStats { ticks: 3, ..Default::default() });
        s.links.push_back(LinkFrame {
            at: Micros(1000),
            sample: 1,
            src: 1,
            dst: 2,
            attempts: 9,
            lost: 1,
        });
        let a = s.to_jsonl();
        let b = s.to_jsonl();
        assert_eq!(a, b);
        assert!(
            a.starts_with("{\"kind\":\"node\",\"at_us\":1000,\"sample\":1,\"node\":7,\"ticks\":3,")
        );
        assert!(a.contains("\"qos.retries\":0"));
        assert!(a.contains("\"rto_recovery.count\":0,\"rto_recovery.p50_us\":null"));
        assert!(a.contains("\"call_rtt.p999_us\":null"));
        assert!(a.contains("\"kind\":\"link\""));
        assert!(a.ends_with("\"evicted_links\":0}\n"));
        let doc = s.to_json();
        assert!(doc.contains("\"frames\": ["));
        assert!(doc.contains("\"samples\": 1"));
    }
}
