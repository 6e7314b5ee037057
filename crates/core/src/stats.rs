//! Container counters, read by tests, the ground station and the benches.

use std::fmt::{self, Write as _};

use crate::trace::LatencyHistogram;

/// How full each of a container's tables is right now — a gauge per
/// structure, where [`ContainerStats`] counts events. Read through
/// [`ServiceContainer::occupancy`](crate::ServiceContainer::occupancy).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Occupancy {
    /// Nodes in the directory (this one included).
    pub directory_nodes: usize,
    /// Distinct provision names in the directory, kept whole or as pairs.
    /// A paired name is known only by its CRC-32, so two paired names that
    /// share one count once.
    pub directory_provisions: usize,
    /// Provisions the directory keeps as `(name hash, node)` pairs: every
    /// remote one that is not a function and whose name no local service
    /// uses.
    pub directory_pairs: usize,
    /// Whole entries in the directory: names kept whole (functions, names
    /// in use, this node's own) and the providers listed under them.
    pub directory_whole: usize,
    /// Bytes of directory storage: node records, expiry entries, pairs and
    /// whole entries with their names — capacity, not contents. At most
    /// [`directory_cap_bytes`](crate::directory_cap_bytes)`(directory_nodes,
    /// directory_pairs, directory_whole)` while no node has left.
    pub directory_bytes: usize,
    /// Reliable links to peers.
    pub links: usize,
    /// Links with traffic queued, in flight or unacknowledged.
    pub active_links: usize,
    /// Subscribed variable channels bound to a provider.
    pub vars_bound: usize,
    /// Remote subscribers over all published variables and events.
    pub remote_subscribers: usize,
    /// Outgoing calls awaiting a reply.
    pub pending_calls: usize,
    /// Outgoing file transfers with subscribers still to serve.
    pub files_sending: usize,
    /// File interests with a receiver in progress.
    pub files_receiving: usize,
    /// Partially reassembled fragmented messages.
    pub reassembling: usize,
    /// Armed timers.
    pub timers: usize,
    /// Handler invocations queued in the scheduler.
    pub queued_tasks: usize,
    /// Bytes of scratch storage the container keeps between calls for its
    /// reliable path (tagged-encode buffer, effect, released-message and
    /// link-event vectors): capacity, not contents. At most
    /// [`SCRATCH_CAP_BYTES`](crate::SCRATCH_CAP_BYTES).
    pub scratch_bytes: usize,
    /// Bytes of wire storage kept for reuse that no reader holds right now
    /// — the datagrams the outbox drained and the transport received, the
    /// payloads encoded for variables, events and calls (each writer's
    /// within 2 KiB), the call path's argument spare and each reliable
    /// link's spare envelope: capacity, not contents. At most
    /// [`loan_cap_bytes`](crate::loan_cap_bytes)`(links)`.
    pub loan_bytes: usize,
    /// Bytes of FEC lane storage over every link's encoder and decoder
    /// ring: capacity, not contents. A lane grows to the longest shard its
    /// link carried, so at most
    /// [`fec_cap_bytes`](crate::fec_cap_bytes)`(links)`.
    pub fec_bytes: usize,
    /// Bytes of flight-recorder storage: the ring's record buffer (about
    /// 10 bytes a record, 38 at worst) and its context table, capacity,
    /// not contents. At most
    /// [`trace_cap_bytes`](crate::trace_cap_bytes)`(trace_capacity)`.
    pub trace_bytes: usize,
}

/// Declares a counter struct once. Each field names its kind — `sum`
/// (cumulative: a window is the saturating difference), `peak` (a
/// high-water mark or gauge: a window carries the later value), `hist`
/// (a latency histogram: a window is the [`LatencySummary`] of the
/// bucket-wise difference) or `group` (a nested counter struct) — and
/// from that one list come the struct, `since` and the name→value
/// `walk` the metrics timeline renders. `=> W` names the window type:
/// the struct itself unless it holds histograms.
macro_rules! counters {
    (
        $(#[$meta:meta])*
        pub struct $S:ident $(<$H:ident>)? => $W:ty {
            $( $(#[$fmeta:meta])* $kind:ident $field:ident: $ty:ty, )*
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct $S $(<$H = LatencyHistogram>)? {
            $( $(#[$fmeta])* pub $field: $ty, )*
        }

        impl $S {
            /// What happened between the `earlier` snapshot and this one.
            /// Differences saturate at zero: counters that restarted from
            /// zero (a node restart) give an empty window, not an underflow.
            pub fn since(&self, earlier: &Self) -> $W {
                $S { $( $field: counters!(@since $kind self.$field, earlier.$field), )* }
            }
        }

        impl $W {
            /// Visits every counter in declaration order as `(prefix, name,
            /// value)`: `prefix` is `""` at the top level and `"qos."` for a
            /// struct that sits in field `qos` (groups nest one deep), so
            /// `prefix` + `name` is the counter's unique key.
            #[allow(clippy::unnecessary_cast)]
            pub fn walk(
                &self,
                prefix: &'static str,
                visit: &mut impl FnMut(&'static str, &'static str, Stat),
            ) {
                $( counters!(@visit $kind prefix, stringify!($field), self.$field, visit); )*
            }
        }
    };
    (@since sum $now:expr, $was:expr) => { $now.saturating_sub($was) };
    (@since peak $now:expr, $was:expr) => { $now };
    (@since hist $now:expr, $was:expr) => { LatencySummary::of_window(&$now, &$was) };
    (@since group $now:expr, $was:expr) => { $now.since(&$was) };
    (@visit hist $prefix:expr, $name:expr, $v:expr, $visit:expr) => {
        $visit($prefix, $name, Stat::Latency($v))
    };
    (@visit group $prefix:expr, $name:expr, $v:expr, $visit:expr) => {
        $v.walk(concat!($name, "."), $visit)
    };
    (@visit $scalar:ident $prefix:expr, $name:expr, $v:expr, $visit:expr) => {
        $visit($prefix, $name, Stat::Scalar($v as u64))
    };
}

/// One value of a [`ContainerStats::walk`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stat {
    /// A `sum` counter's difference or a `peak` counter's value.
    Scalar(u64),
    /// A histogram's window.
    Latency(LatencySummary),
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
        let count = h.count();
        if count == 0 {
            // The common window: no quantile to look for.
            return LatencySummary::default();
        }
        LatencySummary { count, p50_us: h.p50_us(), p99_us: h.p99_us(), p999_us: h.p999_us() }
    }

    /// Summarizes the samples recorded between two cumulative snapshots.
    pub fn of_window(now: &LatencyHistogram, prev: &LatencyHistogram) -> Self {
        Self::of(&now.saturating_diff(prev))
    }

    /// Appends the four fields as JSON object members `"<prefix>count"`,
    /// `"<prefix>p50_us"`, … (no braces; an empty quantile is `null`),
    /// punctuated `"k": v, ` when `spaced` and `"k":v,` otherwise.
    pub fn write_json(&self, out: &mut String, prefix: impl fmt::Display, spaced: bool) {
        let (colon, comma) = if spaced { (": ", ", ") } else { (":", ",") };
        let _ = write!(out, "\"{prefix}count\"{colon}{}", self.count);
        for (key, bound) in
            [("p50_us", self.p50_us), ("p99_us", self.p99_us), ("p999_us", self.p999_us)]
        {
            let _ = write!(out, "{comma}\"{prefix}{key}\"{colon}");
            match bound {
                Some(us) => {
                    let _ = write!(out, "{us}");
                }
                None => out.push_str("null"),
            }
        }
    }
}

counters! {
    /// Counters of one service container: cumulative as
    /// [`ServiceContainer::stats`](crate::ServiceContainer::stats) returns
    /// them, per window (`ContainerStats<LatencySummary>`) as
    /// [`since`](ContainerStats::since) answers and the
    /// [metrics timeline](crate::metrics) stores them. This declaration
    /// is the timeline's schema: a counter added here is in every frame.
    pub struct ContainerStats<H> => ContainerStats<LatencySummary> {
        /// Ticks *executed*: `tick` invocations on the running container.
        /// Under [`SimHarness`](crate::SimHarness) that is the ticks the
        /// node had work for, not grid steps elapsed — the harness skips a
        /// node whose inbox is empty and whose
        /// [`next_due`](crate::ServiceContainer::next_due) lies ahead.
        sum ticks: u64,
        /// Datagrams received from the transport (each one or more frames).
        sum datagrams_in: u64,
        /// Frames read out of received datagrams, valid or not.
        sum frames_in: u64,
        /// Of those, beacons taken as repeats: byte-identical to the last
        /// beacon that refreshed their sender's record while the record
        /// still says what it said, so neither checked, decoded nor applied
        /// again — only their sender's `last_seen` moves.
        sum beacon_repeats: u64,
        /// Received frames discarded unread: one bump for a frame that fails
        /// its length or CRC check — together with whatever followed it in
        /// its datagram, where the walk ends — one for a frame whose body
        /// does not parse as its header's kind, and one for a file message
        /// that names another node than its sender as its subscriber.
        sum frames_rejected: u64,
        /// Datagrams handed to the transport: at most one per destination per
        /// MTU per tick, however many frames were bound there.
        sum datagrams_out: u64,
        /// Frames handed to the transport, inside those datagrams.
        sum frames_out: u64,
        /// Frame bytes handed to the transport.
        sum bytes_out: u64,
        /// Catalogue pulls: `AnnounceRequest`s sent because a peer's beacon
        /// disagreed with the catalogue held for it (or none was held). Zero
        /// on a clean link — a beacon always agrees with the last catalogue
        /// its node handed out.
        sum catalogue_pulls: u64,
        /// Handler invocations executed.
        sum tasks_executed: u64,
        /// Peak scheduler queue length observed.
        peak queue_peak: usize,
        /// Variable samples published by local services.
        sum vars_published: u64,
        /// Variable samples delivered to local handlers.
        sum var_samples_delivered: u64,
        /// Samples dropped as duplicates / out-of-date sequence numbers.
        /// (Samples that outlived their validity window are
        /// [`QosStats::stale_drops`].)
        sum old_samples_dropped: u64,
        /// Samples and events a bound channel turned away because they came
        /// from another node than its provider's (a redundant provider it
        /// is not bound to, or the one it left).
        sum foreign_drops: u64,
        /// Events published by local services.
        sum events_published: u64,
        /// Events delivered to local handlers.
        sum events_delivered: u64,
        /// Sum of event delivery latencies in µs (production stamp → handler).
        sum event_latency_sum_us: u64,
        /// Maximum event delivery latency in µs.
        peak event_latency_max_us: u64,
        /// Remote invocations started by local services.
        sum calls_made: u64,
        /// Invocations executed on behalf of callers.
        sum calls_served: u64,
        /// Calls that ended in an error delivered to the caller. (Calls
        /// redirected to a redundant provider are [`QosStats::retries`].)
        sum call_errors: u64,
        /// File publications (including revisions).
        sum files_published: u64,
        /// File receptions completed over the network.
        sum files_received: u64,
        /// File deliveries satisfied by the same-node bypass (paper §4.4: "the
        /// transfer is bypassed by the container as direct access to the
        /// resource").
        sum file_bypass_deliveries: u64,
        /// Services that panicked and were marked failed by the watchdog.
        sum services_failed: u64,
        /// Typed-contract violations detected by the four engines.
        ///
        /// A port shared by both sides of a contract makes these
        /// unrepresentable at compile time; a non-zero counter means a
        /// service used a port whose type disagrees with the declaration of
        /// the same name, or a peer node announced one schema and sent
        /// another.
        group type_mismatches: TypeMismatchStats,
        /// QoS-contract enforcement actions, aggregated over every
        /// subscription and call (per-subscription breakdowns are read through
        /// [`ServiceContainer::var_qos_stats`] /
        /// [`event_qos_stats`](crate::ServiceContainer::event_qos_stats) /
        /// [`fn_retries`](crate::ServiceContainer::fn_retries)).
        ///
        /// [`ServiceContainer::var_qos_stats`]: crate::ServiceContainer::var_qos_stats
        group qos: QosStats,
        /// Forward-error-correction activity below the reliable channel.
        ///
        /// Counted per event as shards cross the container boundary (links are
        /// dropped when their peer dies, so these outlive individual links).
        group fec: FecStats,
        /// Publish→handler latency distribution of delivered variable samples
        /// (log2-µs buckets; empty when tracing is disabled).
        hist publish_to_deliver: H,
        /// Emit→handler latency distribution of delivered reliable events
        /// (empty when tracing is disabled).
        hist event_to_deliver: H,
        /// Remote invocation round-trip distribution (issue → reply at the
        /// caller; empty when tracing is disabled).
        hist call_rtt: H,
        /// First-retransmission→ACK recovery distribution on reliable links
        /// (empty when tracing is disabled).
        hist rto_recovery: H,
    }
}

counters! {
    /// FEC-layer counters aggregated over every reliable link, alive or dead.
    pub struct FecStats => FecStats {
        /// Data shards sent (reliable-channel frames wrapped for coding).
        sum data_shards_out: u64,
        /// Parity shards sent (pure overhead buying retransmit-free repair).
        sum parity_shards_out: u64,
        /// Partial groups a calm link closed without parity (each one a
        /// parity shard not sent).
        sum quiet_groups: u64,
        /// Shards received (data and parity).
        sum shards_in: u64,
        /// Erased frames rebuilt from parity without a retransmission RTT.
        sum recovered: u64,
        /// Strongest code rate any live link's controller runs this tick
        /// ([`FecRate::wire_tag`](marea_protocol::fec::FecRate::wire_tag);
        /// 0 = no link). The name is a metrics-timeline key.
        peak negotiated_rate_max: u8,
    }
}

counters! {
    /// Aggregate counters of QoS-contract enforcement (see
    /// [`VarQos`](crate::VarQos) / [`EventQos`](crate::EventQos) /
    /// [`CallOptions`](crate::CallOptions)).
    pub struct QosStats => QosStats {
        /// Variable loss deadlines missed (`deadline_periods` × the nominal
        /// period elapsed without a sample): one per warning raised.
        sum deadline_misses: u64,
        /// Variable samples dropped because they outlived their declared
        /// validity window in transit.
        sum stale_drops: u64,
        /// Event deliveries dropped by bounded inboxes (both
        /// [`DropOldest`](crate::DropPolicy::DropOldest) retractions and
        /// [`DropNewest`](crate::DropPolicy::DropNewest) refusals).
        sum queue_drops: u64,
        /// Remote invocations transparently re-dispatched to another provider
        /// (deadline expiry, provider refusal or provider death).
        sum retries: u64,
    }
}

impl QosStats {
    /// Sum over all enforcement counters.
    pub fn total(&self) -> u64 {
        self.deadline_misses + self.stale_drops + self.queue_drops + self.retries
    }
}

/// QoS counters of one subscribed variable — the channel state a
/// container keeps for all its local subscribers of that name (read via
/// [`ServiceContainer::var_qos_stats`](crate::ServiceContainer::var_qos_stats)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VarSubscriptionStats {
    /// Loss deadlines missed on this subscription.
    pub deadline_misses: u64,
    /// Stale samples dropped on this subscription.
    pub stale_drops: u64,
    /// Samples currently retained in the history ring.
    pub history_len: usize,
}

/// Freshness snapshot of one subscribed variable channel (read via
/// [`ServiceContainer::var_channels`](crate::ServiceContainer::var_channels)),
/// the observability surface the chaos invariants check.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VarChannelView {
    /// A provider is currently resolved for the channel.
    pub bound: bool,
    /// Nominal publication period learned from the announcement (µs; 0 =
    /// aperiodic).
    pub period_us: u64,
    /// Validity window learned from the announcement (µs; 0 = unbounded).
    pub validity_us: u64,
    /// Loss-warning deadline from the merged subscriber contract
    /// (`deadline_periods` × nominal period, µs); `None` for aperiodic
    /// channels, which have no deadline.
    pub deadline_us: Option<u64>,
    /// Receive time of the last accepted sample (the *subscribing node's*
    /// local clock — compare against it, not global virtual time).
    pub last_rx: Option<crate::Micros>,
    /// Production stamp of the newest retained sample.
    pub last_stamp: Option<crate::Micros>,
    /// A loss-deadline warning is outstanding (raised, no sample since).
    pub timed_out: bool,
}

/// Per-channel QoS counters of one subscribed event channel (read via
/// [`ServiceContainer::event_qos_stats`](crate::ServiceContainer::event_qos_stats)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventSubscriptionStats {
    /// Deliveries dropped by bounded inboxes, summed over the channel's
    /// local subscribers.
    pub queue_drops: u64,
    /// Highest queued-delivery depth observed on any one subscriber.
    pub inbox_peak: usize,
}

counters! {
    /// Per-engine counters of descriptor/value disagreements.
    pub struct TypeMismatchStats => TypeMismatchStats {
        /// Variable samples whose value violated the declared schema (publish
        /// side) or failed to decode against the announced schema (subscribe
        /// side).
        sum vars: u64,
        /// Event payloads violating the channel declaration: wrong schema,
        /// payload on a bare channel, or undecodable incoming payload.
        sum events: u64,
        /// Invocation marshalling failures: arguments or results that
        /// disagree with the declared signature.
        sum calls: u64,
        /// File publications referencing a resource the service never
        /// declared (the file engine's form of contract violation — file
        /// content itself is opaque).
        sum files: u64,
    }
}

impl TypeMismatchStats {
    /// Sum over all four engines.
    pub fn total(&self) -> u64 {
        self.vars + self.events + self.calls + self.files
    }
}

impl ContainerStats {
    /// Mean event delivery latency in µs, if any events were delivered.
    pub fn event_latency_mean_us(&self) -> Option<f64> {
        if self.events_delivered == 0 {
            None
        } else {
            Some(self.event_latency_sum_us as f64 / self.events_delivered as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qos_total_sums_all_counters() {
        let q = QosStats { deadline_misses: 1, stale_drops: 2, queue_drops: 3, retries: 4 };
        assert_eq!(q.total(), 10);
        assert_eq!(QosStats::default().total(), 0);
    }

    #[test]
    fn since_subtracts_sums_carries_peaks_and_saturates() {
        let mut earlier: ContainerStats = Default::default();
        (earlier.frames_in, earlier.queue_peak, earlier.event_latency_max_us) = (10, 9, 700);
        earlier.qos.retries = 2;
        earlier.fec.negotiated_rate_max = 3;
        earlier.call_rtt.record(50);
        let mut later = earlier;
        later.frames_in = 25;
        later.qos.retries = 3;
        later.fec.negotiated_rate_max = 1;
        later.call_rtt.record(900);
        let window = later.since(&earlier);
        assert_eq!((window.frames_in, window.qos.retries, window.ticks), (15, 1, 0));
        assert_eq!(
            (window.queue_peak, window.event_latency_max_us, window.fec.negotiated_rate_max),
            (9, 700, 1),
            "high-water marks and gauges read as they stand at the later snapshot"
        );
        assert_eq!(window.call_rtt.count, 1);
        assert!(window.call_rtt.p50_us.unwrap() >= 900, "the window's sample, not the run's");
        // The node restarted in between: every counter is below its earlier self.
        let reborn: ContainerStats = ContainerStats { frames_in: 4, ..Default::default() };
        let restarted = reborn.since(&later);
        assert_eq!(
            (restarted.frames_in, restarted.qos.retries, restarted.call_rtt.count),
            (0, 0, 0)
        );
        assert_eq!(restarted.queue_peak, 0, "carried: the new life's peak");
    }

    #[test]
    fn latency_mean() {
        let mut s = ContainerStats::default();
        assert_eq!(s.event_latency_mean_us(), None);
        s.events_delivered = 4;
        s.event_latency_sum_us = 100;
        assert_eq!(s.event_latency_mean_us(), Some(25.0));
    }
}
