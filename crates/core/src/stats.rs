//! Container counters, read by tests, the ground station and the benches.

use crate::trace::LatencyHistogram;

/// How full each of a container's tables is right now — a gauge per
/// structure, where [`ContainerStats`] counts events. Read through
/// [`ServiceContainer::occupancy`](crate::ServiceContainer::occupancy).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Occupancy {
    /// Nodes in the directory (this one included).
    pub directory_nodes: usize,
    /// Distinct provision names in the directory.
    pub directory_provisions: usize,
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
    /// Armed timers (cancelled ones included until they come due).
    pub timers: usize,
    /// Handler invocations queued in the scheduler.
    pub queued_tasks: usize,
    /// Bytes of scratch storage the container keeps between calls for its
    /// reliable path (tagged-encode buffer, effect, subscriber, released-
    /// message and link-event vectors): capacity, not contents. At most
    /// [`SCRATCH_CAP_BYTES`](crate::SCRATCH_CAP_BYTES).
    pub scratch_bytes: usize,
}

/// Cumulative counters of one service container.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ContainerStats {
    /// Ticks *executed*: `tick` invocations on the running container.
    /// Under [`SimHarness`](crate::SimHarness) that is the ticks the
    /// node had work for, not grid steps elapsed — the harness skips a
    /// node whose inbox is empty and whose
    /// [`next_due`](crate::ServiceContainer::next_due) lies ahead.
    pub ticks: u64,
    /// Datagrams received from the transport (each one or more frames).
    pub datagrams_in: u64,
    /// Frames read out of received datagrams, valid or not.
    pub frames_in: u64,
    /// Received frames discarded unread: one bump for a frame that fails
    /// its length or CRC check — together with whatever followed it in
    /// its datagram, where the walk ends — and one for a frame whose
    /// body does not parse as its header's kind.
    pub frames_rejected: u64,
    /// Datagrams handed to the transport: at most one per destination per
    /// MTU per tick, however many frames were bound there.
    pub datagrams_out: u64,
    /// Frames handed to the transport, inside those datagrams.
    pub frames_out: u64,
    /// Frame bytes handed to the transport.
    pub bytes_out: u64,
    /// Catalogue pulls: `AnnounceRequest`s sent because a peer's beacon
    /// disagreed with the catalogue held for it (or none was held). Zero
    /// on a clean link — a beacon always agrees with the last catalogue
    /// its node handed out.
    pub catalogue_pulls: u64,
    /// Handler invocations executed.
    pub tasks_executed: u64,
    /// Peak scheduler queue length observed.
    pub queue_peak: usize,
    /// Variable samples published by local services.
    pub vars_published: u64,
    /// Variable samples delivered to local handlers.
    pub var_samples_delivered: u64,
    /// Samples dropped because their validity window had expired.
    pub stale_samples_dropped: u64,
    /// Samples dropped as duplicates / out-of-date sequence numbers.
    pub old_samples_dropped: u64,
    /// Variable deadline warnings raised.
    pub var_timeouts: u64,
    /// Events published by local services.
    pub events_published: u64,
    /// Events delivered to local handlers.
    pub events_delivered: u64,
    /// Sum of event delivery latencies in µs (production stamp → handler).
    pub event_latency_sum_us: u64,
    /// Maximum event delivery latency in µs.
    pub event_latency_max_us: u64,
    /// Remote invocations started by local services.
    pub calls_made: u64,
    /// Invocations executed on behalf of callers.
    pub calls_served: u64,
    /// Calls transparently redirected to a redundant provider.
    pub call_failovers: u64,
    /// Calls that ended in an error delivered to the caller.
    pub call_errors: u64,
    /// File publications (including revisions).
    pub files_published: u64,
    /// File receptions completed over the network.
    pub files_received: u64,
    /// File deliveries satisfied by the same-node bypass (paper §4.4: "the
    /// transfer is bypassed by the container as direct access to the
    /// resource").
    pub file_bypass_deliveries: u64,
    /// Services that panicked and were marked failed by the watchdog.
    pub services_failed: u64,
    /// Typed-contract violations detected by the four engines.
    ///
    /// A port shared by both sides of a contract makes these
    /// unrepresentable at compile time; a non-zero counter means a
    /// service used a port whose type disagrees with the declaration of
    /// the same name, or a peer node announced one schema and sent
    /// another.
    pub type_mismatches: TypeMismatchStats,
    /// QoS-contract enforcement actions, aggregated over every
    /// subscription and call (per-subscription breakdowns are read through
    /// [`ServiceContainer::var_qos_stats`] /
    /// [`event_qos_stats`](crate::ServiceContainer::event_qos_stats) /
    /// [`fn_retries`](crate::ServiceContainer::fn_retries)).
    ///
    /// [`ServiceContainer::var_qos_stats`]: crate::ServiceContainer::var_qos_stats
    pub qos: QosStats,
    /// Forward-error-correction activity below the reliable channel.
    ///
    /// Counted per event as shards cross the container boundary (links are
    /// dropped when their peer dies, so these outlive individual links).
    pub fec: FecStats,
    /// Publish→handler latency distribution of delivered variable samples
    /// (log2-µs buckets; empty when tracing is disabled).
    pub publish_to_deliver: LatencyHistogram,
    /// Emit→handler latency distribution of delivered reliable events
    /// (empty when tracing is disabled).
    pub event_to_deliver: LatencyHistogram,
    /// Remote invocation round-trip distribution (issue → reply at the
    /// caller; empty when tracing is disabled).
    pub call_rtt: LatencyHistogram,
    /// First-retransmission→ACK recovery distribution on reliable links
    /// (empty when tracing is disabled).
    pub rto_recovery: LatencyHistogram,
}

/// FEC-layer counters aggregated over every reliable link, alive or dead.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FecStats {
    /// Data shards sent (reliable-channel frames wrapped for coding).
    pub data_shards_out: u64,
    /// Parity shards sent (pure overhead buying retransmit-free repair).
    pub parity_shards_out: u64,
    /// Shards received (data and parity).
    pub shards_in: u64,
    /// Erased frames rebuilt from parity without a retransmission RTT.
    pub recovered: u64,
    /// Strongest code rate negotiated on any live link this tick
    /// ([`FecRate`](marea_protocol::fec::FecRate) wire tag; 0 = all off).
    pub negotiated_rate_max: u8,
}

/// Aggregate counters of QoS-contract enforcement (see
/// [`VarQos`](crate::VarQos) / [`EventQos`](crate::EventQos) /
/// [`CallOptions`](crate::CallOptions)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QosStats {
    /// Variable loss deadlines missed (`deadline_periods` × the nominal
    /// period elapsed without a sample).
    pub deadline_misses: u64,
    /// Variable samples dropped because they outlived their declared
    /// validity window in transit.
    pub stale_drops: u64,
    /// Event deliveries dropped by bounded inboxes (both
    /// [`DropOldest`](crate::DropPolicy::DropOldest) retractions and
    /// [`DropNewest`](crate::DropPolicy::DropNewest) refusals).
    pub queue_drops: u64,
    /// Remote invocations transparently re-dispatched to another provider
    /// (deadline expiry, provider refusal or provider death).
    pub retries: u64,
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

/// Per-engine counters of descriptor/value disagreements.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TypeMismatchStats {
    /// Variable samples whose value violated the declared schema (publish
    /// side) or failed to decode against the announced schema (subscribe
    /// side).
    pub vars: u64,
    /// Event payloads violating the channel declaration: wrong schema,
    /// payload on a bare channel, or undecodable incoming payload.
    pub events: u64,
    /// Invocation marshalling failures: arguments or results that
    /// disagree with the declared signature.
    pub calls: u64,
    /// File publications referencing a resource the service never
    /// declared (the file engine's form of contract violation — file
    /// content itself is opaque).
    pub files: u64,
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
    fn latency_mean() {
        let mut s = ContainerStats::default();
        assert_eq!(s.event_latency_mean_us(), None);
        s.events_delivered = 4;
        s.event_latency_sum_us = 100;
        assert_eq!(s.event_latency_mean_us(), Some(25.0));
    }
}
