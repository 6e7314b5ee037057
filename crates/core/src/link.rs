//! Per-peer reliable channels: the container-to-container substrate for
//! events and remote invocations.
//!
//! One [`ReliableLink`] exists per remote node a container exchanges
//! reliable traffic with. It owns an ARQ sender/receiver pair, queues
//! messages while the window is full, and batches acknowledgements (one ack
//! per tick with new data, mirroring how the paper's "specific
//! retransmission mechanism in the application layer" avoids per-packet ack
//! overhead). That ack is a frame, not a datagram: the container stages it
//! like everything else it sends, so it leaves in the datagram of whatever
//! data is bound for the same peer that tick — an RPC reply travels with
//! the ack of its request, the next request with the ack of that reply —
//! and costs a `Transport::send` of its own only when nothing else is.
//! The container's `PeerTable` creates links on first use, every one coding
//! from its first message, and knows which ones a poll sweep must visit;
//! it also holds which peers subscribe to what this node publishes, so a
//! peer's session ends in one call.
//!
//! A link stores a message once — the ARQ sender's envelope, or a copy in
//! the backlog while the window is full — and returns no buffers. Every
//! operation appends to ones its caller owns: wire messages go to a
//! [`WireSink`] (the container's outbox frames them on the spot), released
//! inner messages to a `Vec<Bytes>`, what the flight recorder wants to know
//! to a [`LinkEvents`]. [`ReliableLink::send`], [`on_ack`], [`poll`],
//! [`on_data`] and [`on_fec_shard`] are those same operations run against
//! fresh vectors, for callers outside the tick path (the ledger probes of
//! `benchmark/`, tests): one implementation, two ways to receive its output.
//!
//! [`on_ack`]: ReliableLink::on_ack
//! [`poll`]: ReliableLink::poll
//! [`on_data`]: ReliableLink::on_data
//! [`on_fec_shard`]: ReliableLink::on_fec_shard

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    reason = "R1: the tick path must not panic"
)]

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::ops::Bound;

use bytes::Bytes;

use marea_presentation::Name;
use marea_protocol::arq::{acknowledges, ArqConfig, ArqReceiver, ArqSender, ArqStats, Envelope};
use marea_protocol::fec::{FecRate, FecReceiver, FecRxStats, FecSender, FecTxStats};
use marea_protocol::messages::Provision;
use marea_protocol::{Message, Micros, NodeId, ProtoDuration, WireSink};

use crate::stats::FecStats;

/// Partial FEC groups older than this are flushed (parity emitted) so
/// sparse reliable traffic still gets repair shards with bounded delay. A
/// calm link's flush emits nothing, so it runs late instead of asking
/// for a wake (see `LinkFec::settle`).
const FEC_FLUSH_AFTER: ProtoDuration = ProtoDuration(5_000);

/// The FEC endpoint of one link: coder pair plus the flush timer.
///
/// The receiver half is always live (shards decode statelessly), the
/// sender half wraps under any ceiling above `Off`.
#[derive(Debug)]
struct LinkFec {
    tx: FecSender,
    rx: FecReceiver,
    group_opened_at: Option<Micros>,
}

impl LinkFec {
    /// Sends one envelope — a first transmission or a retransmission —
    /// through the FEC sender: a data shard (and the parity of a group it
    /// fills) on a coded link, the bare `RelData` otherwise. A calm link's
    /// overdue flush runs first, so the envelope starts a group of its
    /// own.
    fn wrap(&mut self, envelope: Envelope, now: Micros, sink: &mut impl WireSink) {
        self.settle(now, sink);
        let had_open = self.tx.has_open_group();
        self.tx.wrap_envelope(envelope, sink);
        if !had_open && self.tx.has_open_group() {
            self.group_opened_at = Some(now);
        } else if !self.tx.has_open_group() {
            self.group_opened_at = None;
        }
    }

    /// Runs a calm link's age flush if it is overdue. That flush sends
    /// nothing, so it asks for no wake and runs late: at a poll, or before
    /// anything that could add to the group or end calm. When it runs
    /// then changes nothing, however often the link is polled.
    fn settle(&mut self, now: Micros, sink: &mut impl WireSink) {
        if self.tx.is_calm() {
            self.flush_aged(now, sink);
        }
    }

    /// Closes the open group once it is past [`FEC_FLUSH_AFTER`].
    fn flush_aged(&mut self, now: Micros, sink: &mut impl WireSink) {
        if self.group_opened_at.is_some_and(|at| now.saturating_since(at) >= FEC_FLUSH_AFTER) {
            self.tx.flush(sink);
            self.group_opened_at = None;
        }
    }

    /// The longest the peer may wait for the parity that rebuilds an
    /// erased data shard — the age flush — on a coded link; zero
    /// otherwise. The ARQ timer waits this much beyond the round trip, so
    /// it does not resend what the parity is about to repair.
    fn repair(&self) -> ProtoDuration {
        if self.tx.cap() == FecRate::Off {
            ProtoDuration::ZERO
        } else {
            FEC_FLUSH_AFTER
        }
    }

    /// When the open group's age flush needs a poll: never on a calm
    /// link, whose flush emits nothing.
    fn flush_due(&self) -> Option<Micros> {
        let opened = self.group_opened_at.filter(|_| !self.tx.is_calm())?;
        Some(opened + FEC_FLUSH_AFTER)
    }
}

/// What link operations observed, for the flight recorder and the log.
/// Operations append; the caller that owns the buffers reads and clears.
#[derive(Debug, Default)]
pub struct LinkEvents {
    /// ARQ seqs retransmitted.
    pub retransmitted: Vec<u64>,
    /// ARQ seqs abandoned after their retry budget.
    pub abandoned: Vec<u64>,
    /// Completed first-retransmit→ACK recovery durations (µs).
    pub recovered_us: Vec<u64>,
}

/// Reliable, ordered, exactly-once message channel to one peer node.
#[derive(Debug)]
pub struct ReliableLink {
    peer: NodeId,
    tx: ArqSender,
    rx: ArqReceiver,
    /// Tagged messages waiting for a window slot.
    backlog: VecDeque<Bytes>,
    ack_due: bool,
    fec: LinkFec,
    /// First-retransmission time per still-unacked ARQ seq; ordered map so
    /// the ack sweep below is deterministic.
    retx_pending: BTreeMap<u64, Micros>,
}

impl ReliableLink {
    /// Creates the link to `peer`. FEC starts at [`FecRate::Off`], plain
    /// ARQ, until [`ReliableLink::negotiate_fec`] sets a ceiling.
    pub fn new(peer: NodeId, config: ArqConfig) -> Self {
        ReliableLink {
            peer,
            tx: ArqSender::new(0, config),
            rx: ArqReceiver::new(0, 256),
            backlog: VecDeque::new(),
            ack_due: false,
            fec: LinkFec {
                tx: FecSender::new(0, FecRate::Off),
                rx: FecReceiver::new(),
                group_opened_at: None,
            },
            retx_pending: BTreeMap::new(),
        }
    }

    /// The remote node.
    pub fn peer(&self) -> NodeId {
        self.peer
    }

    /// Sets the link's FEC ceiling: the controller adapts from
    /// [`FecRate::Light`] up to it, and [`FecRate::Off`] is plain ARQ.
    /// Nothing is agreed with the peer — its decoder takes any group shape
    /// a shard states — and every link the container opens runs under
    /// [`FecRate::Max`]. Idempotent; raising or lowering the cap rebuilds
    /// the sender's controller but keeps group ids monotonic so the peer's
    /// decoder ring stays coherent.
    pub fn negotiate_fec(&mut self, cap: FecRate) {
        if self.fec.tx.cap() == cap {
            return;
        }
        self.fec.tx.set_cap(cap);
        self.fec.group_opened_at = None;
    }

    /// The code rate currently in force on the send side.
    pub fn fec_rate(&self) -> FecRate {
        self.fec.tx.rate()
    }

    /// Sender-side FEC counters.
    pub fn fec_tx_stats(&self) -> FecTxStats {
        self.fec.tx.stats()
    }

    /// Receiver-side FEC counters.
    pub fn fec_rx_stats(&self) -> FecRxStats {
        self.fec.rx.stats()
    }

    /// Bytes of FEC lane storage the link's encoder and decoder ring hold.
    pub fn fec_bytes(&self) -> usize {
        self.fec.tx.lane_bytes() + self.fec.rx.lane_bytes()
    }

    /// Queues the tagged message `inner` for reliable delivery; `sink`
    /// gets the wire messages ready to send now (none if the window is
    /// full: the message then waits, copied, in the backlog).
    pub fn send_into(&mut self, inner: &[u8], now: Micros, sink: &mut impl WireSink) {
        if self.backlog.is_empty() {
            if let Ok(envelope) = self.tx.admit(inner, now, self.fec.repair()) {
                return self.fec.wrap(envelope, now, sink);
            }
        }
        self.backlog.push_back(Bytes::copy_from_slice(inner));
        self.drain_backlog(now, sink);
    }

    /// [`ReliableLink::send_into`] a vector of its own.
    pub fn send(&mut self, payload: Bytes, now: Micros) -> Vec<Message> {
        let mut out = Vec::new();
        self.send_into(&payload, now, &mut out);
        out
    }

    fn drain_backlog(&mut self, now: Micros, sink: &mut impl WireSink) {
        while self.tx.can_send() {
            let Some(inner) = self.backlog.pop_front() else { break };
            let Ok(envelope) = self.tx.admit(&inner, now, self.fec.repair()) else { break }; // cannot fail: can_send checked
            self.fec.wrap(envelope, now, sink);
        }
    }

    /// Processes an incoming `FecShard`; appends to `inner` the tagged
    /// inner wire messages now available — the shard's own payload when it
    /// is a fresh data shard, plus anything parity recovery rebuilt.
    pub fn on_fec_shard_into(
        &mut self,
        group: u64,
        index: u8,
        k: u8,
        r: u8,
        payload: &Bytes,
        inner: &mut Vec<Bytes>,
    ) {
        self.fec.rx.on_shard(group, index, k, r, payload, inner);
    }

    /// [`ReliableLink::on_fec_shard_into`] a vector of its own.
    pub fn on_fec_shard(
        &mut self,
        group: u64,
        index: u8,
        k: u8,
        r: u8,
        payload: &Bytes,
    ) -> Vec<Bytes> {
        let mut inner = Vec::new();
        self.on_fec_shard_into(group, index, k, r, payload, &mut inner);
        inner
    }

    /// Processes an incoming `RelData`; appends to `released` the payloads
    /// now deliverable in order.
    pub fn on_data_into(&mut self, seq: u64, payload: Bytes, released: &mut Vec<Bytes>) {
        self.ack_due = true;
        self.rx.on_data_into(seq, payload, released);
    }

    /// [`ReliableLink::on_data_into`] a vector of its own.
    pub fn on_data(&mut self, seq: u64, payload: Bytes) -> Vec<Bytes> {
        let mut released = Vec::new();
        self.on_data_into(seq, payload, &mut released);
        released
    }

    /// Processes an incoming `RelAck` (with its piggybacked FEC loss
    /// report, which drives the adaptive code-rate controller); `sink`
    /// gets the backlog the opened window released.
    pub fn on_ack_into(
        &mut self,
        cumulative: u64,
        sack: u64,
        loss_permille: u16,
        now: Micros,
        sink: &mut impl WireSink,
        events: &mut LinkEvents,
    ) {
        self.fec.settle(now, sink); // before the report can end calm
        self.fec.tx.on_loss_report(loss_permille);
        self.tx.on_ack_at(cumulative, sack, now);
        // Retransmitted seqs the ack covers, cumulatively or selectively,
        // have recovered: close their first-retransmit→ACK timing.
        self.retx_pending.retain(|&seq, &mut first_retx| {
            let covered = acknowledges(cumulative, sack, seq);
            if covered {
                events.recovered_us.push(now.saturating_since(first_retx).as_micros());
            }
            !covered
        });
        // Window may have opened.
        self.drain_backlog(now, sink);
    }

    /// [`ReliableLink::on_ack_into`] a vector of its own, observations
    /// discarded.
    pub fn on_ack(
        &mut self,
        cumulative: u64,
        sack: u64,
        loss_permille: u16,
        now: Micros,
    ) -> Vec<Message> {
        let mut out = Vec::new();
        self.on_ack_into(
            cumulative,
            sack,
            loss_permille,
            now,
            &mut out,
            &mut LinkEvents::default(),
        );
        out
    }

    /// Tick: retransmissions due, failures, at most one pending ack, and
    /// the FEC flush of any partial group past its age budget, all to
    /// `sink`. Everything the ARQ sender re-emits here is a retransmission
    /// (first transmissions leave through `send`): each is noted in
    /// `events` and starts its recovery clock.
    pub fn poll_into(&mut self, now: Micros, sink: &mut impl WireSink, events: &mut LinkEvents) {
        let abandoned_from = events.abandoned.len();
        let (fec, retx_pending, retransmitted) =
            (&mut self.fec, &mut self.retx_pending, &mut events.retransmitted);
        let retransmit = |envelope: Envelope| {
            retransmitted.push(envelope.seq());
            retx_pending.entry(envelope.seq()).or_insert(now);
            // Calm ends after the wrap, whose settle runs the silent flush.
            fec.wrap(envelope, now, sink);
            fec.tx.on_retransmit();
        };
        self.tx.poll(now, retransmit, &mut events.abandoned);
        for seq in &events.abandoned[abandoned_from..] {
            self.retx_pending.remove(seq);
        }
        self.drain_backlog(now, sink);
        self.fec.flush_aged(now, sink);
        if self.ack_due {
            self.ack_due = false;
            sink.message(self.rx.make_ack_with_loss(self.fec.rx.loss_permille()));
        }
    }

    /// [`ReliableLink::poll_into`] vectors of its own: the wire messages
    /// and the abandoned seqs.
    pub fn poll(&mut self, now: Micros) -> (Vec<Message>, Vec<u64>) {
        let (mut out, mut events) = (Vec::new(), LinkEvents::default());
        self.poll_into(now, &mut out, &mut events);
        (out, events.abandoned)
    }

    /// Sender counters (for the C1/C3 benches).
    pub fn stats(&self) -> ArqStats {
        self.tx.stats()
    }

    /// Messages waiting for a window slot.
    pub fn backlog_len(&self) -> usize {
        self.backlog.len()
    }

    /// Messages in flight awaiting acknowledgement.
    pub fn inflight_len(&self) -> usize {
        self.tx.inflight_len()
    }

    /// `true` when nothing is queued, in flight, or awaiting ack emission.
    pub fn is_quiescent(&self) -> bool {
        self.backlog.is_empty() && self.tx.inflight_len() == 0 && !self.ack_due
    }

    /// `true` while [`ReliableLink::poll`] could still produce output:
    /// traffic queued, in flight, or awaiting ack emission — or a partial
    /// FEC group whose age-triggered parity flush is pending. On a calm
    /// link that flush emits nothing, so an open group alone does not
    /// count: the group closes silently at the next send, ack or poll
    /// past its age. A link that does not need polling can be left out of
    /// the per-tick poll sweep entirely; every input that re-activates it
    /// (send, data, ack) re-registers it with the container's active set.
    pub fn needs_poll(&self) -> bool {
        !self.is_quiescent() || self.fec.flush_due().is_some()
    }

    /// The earliest instant at which [`ReliableLink::poll`] has output:
    /// at once ([`Micros::ZERO`]) with an ack owed or a backlog the window
    /// has room for, else the earlier of the next retransmission deadline
    /// and the open FEC group's age flush (none on a calm link). `None`
    /// exactly when [`needs_poll`](Self::needs_poll) is false.
    pub fn next_poll_due(&self) -> Option<Micros> {
        if self.ack_due || (!self.backlog.is_empty() && self.tx.can_send()) {
            return Some(Micros::ZERO);
        }
        [self.tx.next_deadline(), self.fec.flush_due()].into_iter().flatten().min()
    }
}

fn fold_arq(total: &mut ArqStats, link: ArqStats) {
    total.sent += link.sent;
    total.retransmitted += link.retransmitted;
    total.acked += link.acked;
    total.failed += link.failed;
    total.payload_bytes += link.payload_bytes;
}

/// What an incoming `RelData` or `FecShard` did to its link, beside the
/// inner messages it released: whether the frame opened the link, and how
/// many messages parity recovery rebuilt.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Received {
    pub fresh: bool,
    pub repaired: u64,
}

/// Every peer's session with one container: the reliable link to it, and
/// its subscriptions to the variables and event channels this node
/// publishes. [`end`](Self::end) closes both, so a session cannot be
/// half-ended.
///
/// `active` holds exactly the peers whose link
/// [`needs_poll`](ReliableLink::needs_poll), after every operation
/// ([`PeerTable::on`] is the one place that keeps it so). The poll sweep
/// and [`next_due`](Self::next_due) read that set: a quiescent link costs
/// nothing per tick, and no link with output pending can be forgotten.
#[derive(Debug, Default)]
pub(crate) struct PeerTable {
    /// Ordered, like `active`: sweeps walk peers in node order, which
    /// decides how the netsim RNG stream maps onto datagrams. Boxed: a
    /// link is ~0.5 KiB, and a B-tree node reserves room for eleven.
    by_peer: BTreeMap<NodeId, Box<ReliableLink>>,
    active: BTreeSet<NodeId>,
    /// Peers subscribed to each variable and event channel this node
    /// publishes ([`provide`](Self::provide)), by name, each set in node
    /// order. Sized to fit: a B-tree node reserves room for eleven.
    subscribers: Vec<(Name, BTreeSet<NodeId>)>,
    /// Some link was touched since `rate_max` was last derived.
    changed: bool,
    /// Shard counters — per event, because links die with their peers and
    /// the counters must survive that — and the rate gauge.
    fec: FecStats,
    /// ARQ sender counters of the links ended so far: what
    /// [`arq_stats`](Self::arq_stats) reports never runs backwards.
    retired: ArqStats,
}

impl PeerTable {
    /// Creates the link to `peer` unless it exists — on the first reliable
    /// send, or the first `RelData`/`FecShard` heard (a conversation's
    /// first message arrives as a shard). `true` if created. Every link
    /// codes under [`FecRate::Max`]: its controller starts at
    /// [`FecRate::Light`] and follows the loss the peer reports.
    fn open(&mut self, peer: NodeId) -> bool {
        if self.by_peer.contains_key(&peer) {
            return false;
        }
        let mut link = ReliableLink::new(peer, ArqConfig::default());
        link.negotiate_fec(FecRate::Max);
        self.by_peer.insert(peer, Box::new(link));
        true
    }

    /// Runs `op` on the link to `peer`, if any, counts the FEC shards it
    /// sent, then re-files the link under `active` by what `op` left behind.
    fn on<R>(&mut self, peer: NodeId, op: impl FnOnce(&mut ReliableLink) -> R) -> Option<R> {
        let link = self.by_peer.get_mut(&peer)?;
        let before = link.fec_tx_stats();
        let result = op(link);
        let after = link.fec_tx_stats();
        self.fec.data_shards_out += after.data_shards - before.data_shards;
        self.fec.parity_shards_out += after.parity_shards - before.parity_shards;
        self.fec.quiet_groups += after.quiet_groups - before.quiet_groups;
        self.changed = true;
        if link.needs_poll() {
            self.active.insert(peer);
        } else {
            self.active.remove(&peer);
        }
        Some(result)
    }

    /// Queues the tagged message `inner` for `peer`; `sink` gets the wire
    /// messages to send now. `true` if this opened the link.
    pub fn send(
        &mut self,
        peer: NodeId,
        inner: &[u8],
        now: Micros,
        sink: &mut impl WireSink,
    ) -> bool {
        let fresh = self.open(peer);
        self.on(peer, |link| link.send_into(inner, now, sink));
        fresh
    }

    /// An incoming `RelData` from `peer`; `released` gets the inner
    /// messages now deliverable in order.
    pub fn on_data(
        &mut self,
        peer: NodeId,
        seq: u64,
        payload: Bytes,
        released: &mut Vec<Bytes>,
    ) -> Received {
        let fresh = self.open(peer);
        self.on(peer, |link| link.on_data_into(seq, payload, released));
        Received { fresh, repaired: 0 }
    }

    /// An incoming `FecShard` from `peer`; `inner` gets the tagged
    /// messages it carried or rebuilt.
    #[allow(
        clippy::too_many_arguments,
        reason = "the shard's header fields arrive unpacked from the frame"
    )]
    pub fn on_shard(
        &mut self,
        peer: NodeId,
        group: u64,
        index: u8,
        k: u8,
        r: u8,
        payload: &Bytes,
        inner: &mut Vec<Bytes>,
    ) -> Received {
        let fresh = self.open(peer);
        let shard = |link: &mut ReliableLink| {
            let before = link.fec_rx_stats().recovered;
            link.on_fec_shard_into(group, index, k, r, payload, inner);
            link.fec_rx_stats().recovered - before
        };
        let repaired = self.on(peer, shard).unwrap_or_default();
        self.fec.shards_in += 1;
        self.fec.recovered += repaired;
        Received { fresh, repaired }
    }

    /// An incoming `RelAck` (ignored without a link: the peer was declared
    /// dead); `sink` gets the wire messages the opened window released,
    /// `events` the first-retransmit→ACK recovery times it closed.
    #[allow(clippy::too_many_arguments, reason = "the ack's fields arrive unpacked from the frame")]
    pub fn on_ack(
        &mut self,
        peer: NodeId,
        cumulative: u64,
        sack: u64,
        loss_permille: u16,
        now: Micros,
        sink: &mut impl WireSink,
        events: &mut LinkEvents,
    ) {
        self.on(peer, |link| link.on_ack_into(cumulative, sack, loss_permille, now, sink, events));
    }

    /// The next stop of the per-tick poll sweep: the first active link
    /// after peer `after`, in node order (a quiescent link's poll is a
    /// no-op, so skipping those is output-equivalent). `None` ends the
    /// sweep, re-deriving the `rate_max` gauge if any link could
    /// have changed its rate — links die with their peers, so the maximum
    /// cannot be kept incrementally.
    pub fn next_active(&mut self, after: Option<NodeId>) -> Option<NodeId> {
        let lower = after.map_or(Bound::Unbounded, Bound::Excluded);
        let peer = self.active.range((lower, Bound::Unbounded)).next().copied();
        if peer.is_none() && std::mem::take(&mut self.changed) {
            let rates = self.by_peer.values().map(|l| l.fec_rate().wire_tag());
            self.fec.rate_max = rates.max().unwrap_or(0);
        }
        peer
    }

    /// Polls the link to `peer`: `sink` gets its wire messages
    /// (retransmissions, freed backlog, the FEC age flush, at most one
    /// ack), `events` the seqs retransmitted and abandoned.
    pub fn poll(
        &mut self,
        peer: NodeId,
        now: Micros,
        sink: &mut impl WireSink,
        events: &mut LinkEvents,
    ) {
        self.on(peer, |link| link.poll_into(now, sink, events));
    }

    /// This node publishes the variables and event channels among
    /// `provisions`: peers may subscribe to them.
    pub fn provide(&mut self, provisions: &[Provision]) {
        for p in provisions {
            if let Provision::Variable { name, .. } | Provision::Event { name, .. } = p {
                if let Err(at) = self.filed(name) {
                    self.subscribers.reserve_exact(1);
                    self.subscribers.insert(at, (name.clone(), BTreeSet::new()));
                }
            }
        }
    }

    /// Where `name` is filed, or would be.
    fn filed(&self, name: &Name) -> Result<usize, usize> {
        self.subscribers.binary_search_by(|(filed, _)| filed.cmp(name))
    }

    /// Files (`subscribed`) or forgets `peer` as a subscriber of `name`;
    /// a name this node does not publish takes none.
    pub fn set_subscriber(&mut self, name: &Name, peer: NodeId, subscribed: bool) {
        let Ok(at) = self.filed(name) else { return };
        let peers = &mut self.subscribers[at].1;
        if subscribed {
            peers.insert(peer);
        } else {
            peers.remove(&peer);
        }
    }

    /// The next subscriber of `name` after peer `after`, in node order:
    /// a publication walks its subscribers by this cursor.
    pub fn next_subscriber(&self, name: &Name, after: Option<NodeId>) -> Option<NodeId> {
        let at = self.filed(name).ok()?;
        let lower = after.map_or(Bound::Unbounded, Bound::Excluded);
        self.subscribers[at].1.range((lower, Bound::Unbounded)).next().copied()
    }

    /// Subscribers summed over every published name.
    pub fn subscriber_count(&self) -> usize {
        self.subscribers.iter().map(|(_, peers)| peers.len()).sum()
    }

    /// `peer`'s life ended: its link and its subscriptions go with it (a
    /// new life subscribes afresh when it binds). `true` if it had a link.
    pub fn end(&mut self, peer: NodeId) -> bool {
        for (_, peers) in &mut self.subscribers {
            peers.remove(&peer);
        }
        self.changed = true;
        self.active.remove(&peer);
        let Some(link) = self.by_peer.remove(&peer) else { return false };
        fold_arq(&mut self.retired, link.stats());
        true
    }

    /// Capacity of the spare envelope storage every link's ARQ sender
    /// keeps.
    pub fn spare_bytes(&self) -> usize {
        self.by_peer.values().map(|link| link.tx.spare_bytes()).sum()
    }

    /// Bytes of FEC lane storage every link holds.
    pub fn fec_bytes(&self) -> usize {
        self.by_peer.values().map(|link| link.fec_bytes()).sum()
    }

    /// The earliest [`next_poll_due`](ReliableLink::next_poll_due) of an
    /// active link.
    pub fn next_due(&self) -> Option<Micros> {
        self.active.iter().filter_map(|peer| self.by_peer.get(peer)?.next_poll_due()).min()
    }

    pub fn len(&self) -> usize {
        self.by_peer.len()
    }

    pub fn active_len(&self) -> usize {
        self.active.len()
    }

    pub fn fec_stats(&self) -> FecStats {
        self.fec
    }

    /// ARQ sender counters summed over every link, alive or ended.
    pub fn arq_stats(&self) -> ArqStats {
        let mut total = self.retired;
        for link in self.by_peer.values() {
            fold_arq(&mut total, link.stats());
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use marea_presentation::DataType;
    use marea_protocol::ProtoDuration;

    fn link(peer: u32) -> ReliableLink {
        ReliableLink::new(
            NodeId(peer),
            ArqConfig {
                window: 4,
                initial_rto: ProtoDuration::from_millis(10),
                max_rto: ProtoDuration::from_millis(100),
                max_attempts: 5,
            },
        )
    }

    #[test]
    fn backlog_drains_as_window_opens() {
        let mut l = link(2);
        let mut sent = Vec::new();
        for i in 0..6u8 {
            sent.extend(l.send(Bytes::from(vec![i]), Micros::ZERO));
        }
        assert_eq!(sent.len(), 4, "window of 4");
        assert_eq!(l.backlog_len(), 2);
        // Ack the first two: backlog drains.
        let more = l.on_ack(2, 0, 0, Micros(1));
        assert_eq!(more.len(), 2);
        assert_eq!(l.backlog_len(), 0);
    }

    #[test]
    fn ack_emitted_once_per_poll_after_data() {
        let mut l = link(2);
        let delivered = l.on_data(0, Bytes::from_static(b"x"));
        assert_eq!(delivered.len(), 1);
        let (out, _) = l.poll(Micros(1));
        assert!(out.iter().any(|m| matches!(m, Message::RelAck { .. })));
        let (out2, _) = l.poll(Micros(2));
        assert!(!out2.iter().any(|m| matches!(m, Message::RelAck { .. })), "no duplicate ack");
    }

    #[test]
    fn quiescence() {
        let mut l = link(2);
        assert!(l.is_quiescent());
        l.send(Bytes::from_static(b"x"), Micros::ZERO);
        assert!(!l.is_quiescent());
        l.on_ack(1, 0, 0, Micros(1));
        assert!(l.is_quiescent());
    }

    #[test]
    fn needs_poll_tracks_open_fec_group() {
        let mut l = link(2);
        assert!(!l.needs_poll(), "fresh link: nothing to poll");
        l.negotiate_fec(FecRate::Medium);
        l.send(Bytes::from_static(b"solo"), Micros::ZERO);
        l.on_ack(1, 0, 0, Micros(1));
        assert!(l.is_quiescent(), "nothing queued or in flight");
        assert!(l.needs_poll(), "open partial FEC group still needs the age flush");
        assert_eq!(l.next_poll_due(), Some(Micros(5_000)), "the flush is the only work left");
        let (out, _) = l.poll(Micros(10_000));
        assert!(out.iter().any(|m| matches!(m, Message::FecShard { .. })));
        assert!(!l.needs_poll(), "flushed: the link may leave the poll sweep");
        assert_eq!(l.next_poll_due(), None);
    }

    #[test]
    fn a_calm_link_closes_its_partial_group_without_a_wake() {
        let mut l = link(2);
        l.negotiate_fec(FecRate::Light);
        let parity = |out: &[Message]| {
            out.iter()
                .filter(|m| matches!(m, Message::FecShard { index, .. } if index & 0x80 != 0))
                .count()
        };
        // Eight one-message groups, each acked at 0‰ and flushed with parity.
        let mut now = Micros::ZERO;
        for seq in 0..8u64 {
            assert!(!l.fec.tx.is_calm());
            l.send(Bytes::from_static(b"solo"), now);
            l.on_ack(seq + 1, 0, 0, now + ProtoDuration::from_millis(1));
            assert_eq!(l.next_poll_due(), Some(now + FEC_FLUSH_AFTER));
            let (out, _) = l.poll(now + FEC_FLUSH_AFTER);
            assert_eq!(parity(&out), 1, "group {seq} closes with its parity");
            now += ProtoDuration::from_millis(50);
        }
        let out = l.send(Bytes::from_static(b"solo"), now);
        assert_eq!(out.len(), 1);
        l.on_ack(9, 0, 0, now + ProtoDuration::from_millis(1));
        assert!(l.is_quiescent());
        assert!(!l.needs_poll(), "calm: the open group wants no wake");
        assert_eq!(l.next_poll_due(), None);
        let (out, _) = l.poll(now + FEC_FLUSH_AFTER);
        assert!(out.is_empty(), "a calm flush sends nothing: {out:?}");
        // The next send past the age closes the open group silently.
        l.send(Bytes::from_static(b"late"), now + FEC_FLUSH_AFTER);
        now += ProtoDuration::from_millis(50);
        let out = l.send(Bytes::from_static(b"next"), now);
        let Message::FecShard { group, index: 0, .. } = out[0] else { panic!("{out:?}") };
        assert_eq!((out.len(), group), (1, 10), "a group of its own, no parity before it");
        let stats = l.fec_tx_stats();
        assert_eq!((stats.parity_shards, stats.quiet_groups), (8, 2));
    }

    /// A calm link's silent flush runs late, so how often the link is
    /// polled must not change what it sends: polled every millisecond or
    /// only when `next_poll_due` says so, the link sends the same frames
    /// through a fade (retransmissions end calm) and a nonzero loss report
    /// that arrives after the open group's age (which ends calm again).
    #[test]
    fn a_calm_link_sends_the_same_however_often_it_is_polled() {
        let run = |every_ms: bool| {
            let mut l = link(2);
            l.negotiate_fec(FecRate::Light);
            let (mut wire, mut events, mut sent) = (Vec::new(), LinkEvents::default(), 0);
            for ms in 0..2_000u64 {
                let now = Micros(ms * 1_000);
                if ms % 50 == 0 {
                    l.send_into(b"tick", now, &mut wire);
                    sent += 1;
                }
                // The peer acks 10 ms after each send, none in the fade.
                if ms % 50 == 10 && !(1_000..1_150).contains(&ms) {
                    let loss = if ms == 1_810 { 40 } else { 0 };
                    l.on_ack_into(sent, 0, loss, now, &mut wire, &mut events);
                }
                if every_ms || l.next_poll_due().is_some_and(|due| due <= now) {
                    l.poll_into(now, &mut wire, &mut events);
                }
            }
            (wire, l.fec_tx_stats(), events.retransmitted.len())
        };
        let (swept, due) = (run(true), run(false));
        let (_, stats, retransmitted) = &swept;
        assert!(stats.quiet_groups > 10 && *retransmitted > 0, "{stats:?}");
        assert_eq!(swept, due);
    }

    #[test]
    fn next_poll_due_follows_acks_and_retransmit_deadlines() {
        let mut l = link(2);
        assert_eq!(l.next_poll_due(), None, "fresh link: nothing to poll");
        l.send(Bytes::from_static(b"x"), Micros(1_000));
        assert_eq!(l.next_poll_due(), Some(Micros(11_000)), "10 ms initial RTO");
        let (out, _) = l.poll(Micros(11_000));
        assert_eq!(out.len(), 1, "retransmitted exactly when due");
        assert_eq!(l.next_poll_due(), Some(Micros(31_000)), "backed-off RTO");
        l.on_data(0, Bytes::from_static(b"y"));
        assert_eq!(l.next_poll_due(), Some(Micros::ZERO), "an ack is owed at once");
    }

    #[test]
    fn without_negotiation_the_wire_stays_bare() {
        let mut l = link(2);
        let out = l.send(Bytes::from_static(b"x"), Micros::ZERO);
        assert!(out.iter().all(|m| matches!(m, Message::RelData { .. })));
        assert_eq!(l.fec_rate(), FecRate::Off);
    }

    #[test]
    fn negotiated_link_wraps_reldata_into_shards() {
        let mut l = link(2);
        l.negotiate_fec(FecRate::Medium);
        // The controller starts at the Light floor (8,1); a loss report
        // above 20‰ tightens it to the Medium cap's (4,1) geometry.
        l.on_ack(0, 0, 50, Micros::ZERO);
        assert_eq!(l.fec_rate(), FecRate::Medium);
        let mut out = Vec::new();
        for i in 0..4u8 {
            out.extend(l.send(Bytes::from(vec![i]), Micros::ZERO));
        }
        let data = out
            .iter()
            .filter(|m| matches!(m, Message::FecShard { index, .. } if index & 0x80 == 0))
            .count();
        let parity = out
            .iter()
            .filter(|m| matches!(m, Message::FecShard { index, .. } if index & 0x80 != 0))
            .count();
        assert_eq!(data, 4, "every RelData coded: {out:?}");
        assert_eq!(parity, 1, "Medium closes the (4,1) group with one parity shard");
        assert_eq!(l.fec_tx_stats().data_shards, 4);
    }

    #[test]
    fn partial_group_flushes_after_the_age_budget() {
        let mut l = link(2);
        l.negotiate_fec(FecRate::Medium);
        let out = l.send(Bytes::from_static(b"solo"), Micros::ZERO);
        assert_eq!(out.len(), 1, "one data shard, group still open");
        let (early, _) = l.poll(Micros(1_000));
        assert!(
            !early
                .iter()
                .any(|m| matches!(m, Message::FecShard { index, .. } if index & 0x80 != 0)),
            "no parity before the flush budget: {early:?}"
        );
        let (late, _) = l.poll(Micros(10_000));
        assert!(
            late.iter().any(|m| matches!(m, Message::FecShard { index, .. } if index & 0x80 != 0)),
            "aged partial group must flush parity: {late:?}"
        );
    }

    #[test]
    fn erased_shard_is_rebuilt_and_delivered_in_order() {
        let mut a = link(2);
        let mut b = link(1);
        a.negotiate_fec(FecRate::Medium);
        b.negotiate_fec(FecRate::Medium);
        a.on_ack(0, 0, 50, Micros::ZERO); // tighten Light → Medium (4,1)
        let mut wire = Vec::new();
        for i in 0..4u8 {
            wire.extend(a.send(Bytes::from(vec![i; 3]), Micros::ZERO));
        }
        assert_eq!(wire.len(), 5);
        // Erase the third data shard; b must still deliver all four in order.
        let mut delivered = Vec::new();
        for (i, m) in wire.iter().enumerate() {
            if i == 2 {
                continue;
            }
            let Message::FecShard { group, index, k, r, payload, .. } = m else {
                panic!("coded wire expected: {m:?}");
            };
            for inner in b.on_fec_shard(*group, *index, *k, *r, payload) {
                let Ok(Message::RelData { seq, payload, .. }) = Message::decode_tagged(&inner)
                else {
                    panic!("inner must be RelData");
                };
                delivered.extend(b.on_data(seq, payload));
            }
        }
        assert_eq!(delivered.len(), 4, "erasure repaired without any retransmit");
        assert_eq!(b.fec_rx_stats().recovered, 1);
        for (i, p) in delivered.iter().enumerate() {
            assert_eq!(p.as_ref(), &[i as u8; 3]);
        }
    }

    #[test]
    fn retransmits_are_observed_and_recovery_timed() {
        let mut l = link(2);
        let (mut out, mut events) = (Vec::new(), LinkEvents::default());
        l.send_into(b"x", Micros::ZERO, &mut out);
        l.poll_into(Micros(1_000), &mut out, &mut events);
        assert!(events.retransmitted.is_empty(), "first transmission is not a retransmit");
        // Past the 10 ms RTO the frame is retransmitted: the same bytes.
        l.poll_into(Micros(20_000), &mut out, &mut events);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0], out[1]);
        assert_eq!(events.retransmitted, vec![0]);
        assert!(events.recovered_us.is_empty(), "not yet acked");
        // The ack closes the first-retransmit→ACK recovery timing, once.
        l.on_ack_into(1, 0, 0, Micros(25_000), &mut out, &mut events);
        l.on_ack_into(1, 0, 0, Micros(26_000), &mut out, &mut events);
        assert_eq!(events.recovered_us, vec![5_000]);
        assert!(events.abandoned.is_empty());
    }

    /// Seq 1 is resent, then selectively acknowledged while seq 0 is
    /// still missing: its recovery ends at that ack, not when the gap
    /// ahead of it closes.
    #[test]
    fn a_selectively_acknowledged_resend_stops_its_recovery_clock() {
        let mut l = link(2);
        let (mut out, mut events) = (Vec::new(), LinkEvents::default());
        l.send_into(b"a", Micros::ZERO, &mut out);
        l.send_into(b"b", Micros(5_000), &mut out);
        l.poll_into(Micros(10_000), &mut out, &mut events);
        l.poll_into(Micros(15_000), &mut out, &mut events);
        assert_eq!(events.retransmitted, vec![0, 1]);
        l.on_ack_into(0, 0b1, 0, Micros(20_000), &mut out, &mut events);
        assert_eq!(events.recovered_us, vec![5_000], "seq 1 recovered at its SACK");
        l.on_ack_into(2, 0, 0, Micros(30_000), &mut out, &mut events);
        assert_eq!(events.recovered_us, vec![5_000, 20_000], "each seq timed once");
    }

    /// Under total loss a message is abandoned after its tenth
    /// transmission times out — never within the default node timeout,
    /// however short the measured round trip made its first timer (the
    /// floor gives 10, 30, 70, …, 3 270 ms and abandons at 4.27 s), so a
    /// fade the peer table outlives is not reported as a failed delivery.
    #[test]
    fn nothing_is_abandoned_within_the_node_timeout_whatever_the_estimate() {
        let node_timeout = crate::ContainerConfig::new("n", NodeId(1)).node_timeout;
        for (rtt_ms, coded) in [(0, false), (0, true), (1, false), (5, true), (40, false)] {
            let mut l = ReliableLink::new(NodeId(2), ArqConfig::default());
            if coded {
                l.negotiate_fec(FecRate::Medium);
            }
            let (mut out, mut events) = (Vec::new(), LinkEvents::default());
            let mut now = Micros::ZERO;
            for seq in 0..50 {
                l.send_into(b"x", now, &mut out);
                now += ProtoDuration::from_millis(rtt_ms);
                l.on_ack_into(seq + 1, 0, 0, now, &mut out, &mut events);
            }
            let faded = now;
            l.send_into(b"x", now, &mut out);
            while events.abandoned.is_empty() {
                now += ProtoDuration(500);
                l.poll_into(now, &mut out, &mut events);
            }
            let held = now.saturating_since(faded);
            assert!(held >= node_timeout, "abandoned after {held} (round trip {rtt_ms} ms)");
            if rtt_ms == 0 && !coded {
                assert_eq!(held, ProtoDuration::from_millis(4_270), "at the floor");
            }
        }
    }

    /// One frame, three messages: a parity shard rebuilds the `RelData`
    /// whose loss was holding two later ones back. The shard's buffer and
    /// the released-messages buffer are in use at the same time — why the
    /// container keeps one of each.
    #[test]
    fn recovered_shard_closes_the_arq_gap_it_left() {
        let mut a = link(2);
        let mut b = link(1);
        a.negotiate_fec(FecRate::Medium);
        b.negotiate_fec(FecRate::Medium);
        a.on_ack(0, 0, 50, Micros::ZERO); // tighten Light → Medium (4,1)
        let mut wire = Vec::new();
        for i in 0..4u8 {
            a.send_into(&[i; 3], Micros::ZERO, &mut wire);
        }
        assert_eq!(wire.len(), 5, "four data shards and their parity");
        let (mut inner, mut released) = (Vec::new(), Vec::new());
        let mut delivered_by_frame = Vec::new();
        for (i, m) in wire.iter().enumerate() {
            if i == 1 {
                continue; // seq 1 is lost
            }
            let Message::FecShard { group, index, k, r, payload, .. } = m else {
                panic!("coded wire expected: {m:?}");
            };
            b.on_fec_shard_into(*group, *index, *k, *r, payload, &mut inner);
            for tagged in inner.drain(..) {
                let Ok(Message::RelData { seq, payload, .. }) =
                    Message::decode_tagged_shared(&tagged)
                else {
                    panic!("inner must be RelData");
                };
                b.on_data_into(seq, payload, &mut released);
            }
            delivered_by_frame.push(released.clone());
            released.clear();
        }
        let counts: Vec<usize> = delivered_by_frame.iter().map(Vec::len).collect();
        assert_eq!(counts, [1, 0, 0, 3], "the parity frame releases seqs 1, 2 and 3");
        let flat: Vec<&Bytes> = delivered_by_frame.iter().flatten().collect();
        for (i, p) in flat.iter().enumerate() {
            assert_eq!(p.as_ref(), &[i as u8; 3]);
        }
        assert_eq!(b.fec_rx_stats().recovered, 1);
    }

    #[test]
    fn acks_carry_the_receiver_loss_estimate() {
        let mut l = link(2);
        l.negotiate_fec(FecRate::Medium);
        let delivered = l.on_data(0, Bytes::from_static(b"x"));
        assert_eq!(delivered.len(), 1);
        let (out, _) = l.poll(Micros(1));
        let ack = out.iter().find(|m| matches!(m, Message::RelAck { .. }));
        assert!(
            matches!(ack, Some(Message::RelAck { loss_permille: 0, .. })),
            "clean link reports 0 loss: {ack:?}"
        );
    }

    /// Random traffic between a [`PeerTable`] and four simulated peers
    /// (each a bare [`ReliableLink`] behind a lossy pipe), which also
    /// subscribe to and leave the table's names and have their sessions
    /// ended: after every operation the active set is exactly the links
    /// that need polling, each name's subscriber walk is exactly the
    /// subscriptions filed for it, and no poll sweep produces output before
    /// `next_due()` said so. An ended peer is in no link, no active set
    /// and no subscriber set. The table runs the buffer-taking operations;
    /// a shadow link per peer is fed the same inputs through the
    /// vector-returning ones and must answer the same messages — they are
    /// one path.
    #[test]
    fn link_table_keeps_its_active_set_and_due_date_exact_under_random_ops() {
        const PEERS: u32 = 4;
        fn check(table: &PeerTable, subscribed: &BTreeMap<Name, BTreeSet<NodeId>>) {
            let needs_poll: BTreeSet<NodeId> =
                table.by_peer.iter().filter(|(_, l)| l.needs_poll()).map(|(p, _)| *p).collect();
            assert_eq!(table.active, needs_poll);
            for (name, expected) in subscribed {
                let walked = std::iter::successors(table.next_subscriber(name, None), |&p| {
                    table.next_subscriber(name, Some(p))
                });
                assert_eq!(&walked.collect::<BTreeSet<_>>(), expected, "{name}");
            }
            let count = subscribed.values().map(BTreeSet::len).sum::<usize>();
            assert_eq!(table.subscriber_count(), count);
        }
        // Two published names and one this node does not publish.
        let names = ["v", "e", "other"].map(|n| Name::new(n).expect("valid"));
        for seed in 1..=6u64 {
            let mut rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let mut draw = |n: u64| {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                rng % n
            };
            let mut table = PeerTable::default();
            let (v, e) = (names[0].clone(), names[1].clone());
            table.provide(&[
                Provision::Variable { name: v, ty: DataType::U8, period_us: 0, validity_us: 0 },
                Provision::Event { name: e, ty: None },
            ]);
            let mut subscribed: BTreeMap<Name, BTreeSet<NodeId>> =
                names[..2].iter().map(|name| (name.clone(), BTreeSet::new())).collect();
            let mut shadows: Vec<Option<ReliableLink>> = (0..PEERS).map(|_| None).collect();
            let mut events = LinkEvents::default();
            let mut peers: Vec<ReliableLink> = (0..PEERS).map(|_| link(1)).collect();
            for peer in &mut peers {
                peer.negotiate_fec(FecRate::Medium);
            }
            // In-flight wire messages: [towards the table, towards the peer].
            let mut pipes: Vec<[VecDeque<Message>; 2]> =
                (0..PEERS).map(|_| Default::default()).collect();
            let mut now = Micros::ZERO;
            for step in 0..4_000u32 {
                let i = draw(u64::from(PEERS)) as usize;
                let peer = NodeId(i as u32 + 2);
                // The shadow of the table's link to this peer, opened as the
                // table opens its own: at the first send or frame heard.
                let opened = |shadow: &mut Option<ReliableLink>| {
                    shadow.get_or_insert_with(|| {
                        let mut l = ReliableLink::new(peer, ArqConfig::default());
                        l.negotiate_fec(FecRate::Max);
                        l
                    });
                };
                let lossy = |msgs: Vec<Message>, pipe: &mut VecDeque<Message>, roll: u64| {
                    pipe.extend(
                        msgs.into_iter()
                            .enumerate()
                            .filter(|(k, _)| (roll >> k) & 7 != 0)
                            .map(|(_, m)| m),
                    );
                };
                match draw(9) {
                    0 => now += ProtoDuration::from_micros(draw(4_000)),
                    1 => {
                        let (payload, mut out) = (vec![step as u8; 40], Vec::new());
                        opened(&mut shadows[i]);
                        table.send(peer, &payload, now, &mut out);
                        let shadow = shadows[i].as_mut().expect("opened");
                        assert_eq!(out, shadow.send(Bytes::from(payload), now));
                        lossy(out, &mut pipes[i][1], draw(u64::MAX));
                    }
                    2 => lossy(
                        peers[i].send(Bytes::from(vec![step as u8; 40]), now),
                        &mut pipes[i][0],
                        draw(u64::MAX),
                    ),
                    3 => lossy(peers[i].poll(now).0, &mut pipes[i][0], draw(u64::MAX)),
                    4 if draw(40) == 0 => {
                        table.end(peer);
                        shadows[i] = None;
                        for peers in subscribed.values_mut() {
                            peers.remove(&peer);
                        }
                        let filed = table.subscribers.iter().any(|(_, s)| s.contains(&peer));
                        assert!(
                            !table.by_peer.contains_key(&peer) && !table.active.contains(&peer)
                        );
                        assert!(!filed, "seed {seed} step {step}: {peer} still subscribes");
                    }
                    4 | 5 => {
                        // The table hears the next message from this peer.
                        let (mut inner, mut released) = (Vec::new(), Vec::new());
                        match pipes[i][0].pop_front() {
                            Some(Message::RelData { seq, payload, .. }) => {
                                inner.push(Message::RelData { channel: 0, seq, payload });
                            }
                            Some(Message::FecShard { group, index, k, r, payload, .. }) => {
                                let mut tagged = Vec::new();
                                opened(&mut shadows[i]);
                                table.on_shard(peer, group, index, k, r, &payload, &mut tagged);
                                let shadow = shadows[i].as_mut().expect("opened");
                                assert_eq!(
                                    tagged,
                                    shadow.on_fec_shard(group, index, k, r, &payload)
                                );
                                inner.extend(tagged.iter().flat_map(Message::decode_tagged_shared));
                            }
                            Some(Message::RelAck { cumulative, sack, loss_permille, .. }) => {
                                let mut out = Vec::new();
                                let (c, s, l) = (cumulative, sack, loss_permille);
                                table.on_ack(peer, c, s, l, now, &mut out, &mut events);
                                if let Some(shadow) = &mut shadows[i] {
                                    assert_eq!(out, shadow.on_ack(c, s, l, now));
                                }
                                lossy(out, &mut pipes[i][1], draw(u64::MAX));
                            }
                            _ => {}
                        }
                        for msg in inner {
                            let Message::RelData { seq, payload, .. } = msg else { continue };
                            opened(&mut shadows[i]);
                            table.on_data(peer, seq, payload.clone(), &mut released);
                            let shadow = shadows[i].as_mut().expect("opened");
                            assert_eq!(released, shadow.on_data(seq, payload));
                            released.clear();
                        }
                    }
                    6 => match pipes[i][1].pop_front() {
                        // The peer hears the next message from the table.
                        Some(Message::RelData { seq, payload, .. }) => {
                            drop(peers[i].on_data(seq, payload))
                        }
                        Some(Message::FecShard { group, index, k, r, payload, .. }) => {
                            for tagged in peers[i].on_fec_shard(group, index, k, r, &payload) {
                                if let Ok(Message::RelData { seq, payload, .. }) =
                                    Message::decode_tagged(&tagged)
                                {
                                    drop(peers[i].on_data(seq, payload));
                                }
                            }
                        }
                        Some(Message::RelAck { cumulative, sack, loss_permille, .. }) => {
                            lossy(
                                peers[i].on_ack(cumulative, sack, loss_permille, now),
                                &mut pipes[i][0],
                                draw(u64::MAX),
                            );
                        }
                        _ => {}
                    },
                    7 => {
                        // The peer subscribes to, or leaves, one of the names.
                        let (name, on) = (&names[draw(3) as usize], draw(3) != 0);
                        table.set_subscriber(name, peer, on);
                        if let Some(peers) = subscribed.get_mut(name) {
                            if on {
                                peers.insert(peer);
                            } else {
                                peers.remove(&peer);
                            }
                        }
                    }
                    _ => {
                        let due = table.next_due();
                        let mut swept = None;
                        while let Some(polled) = table.next_active(swept) {
                            swept = Some(polled);
                            let mut out = Vec::new();
                            events.abandoned.clear();
                            table.poll(polled, now, &mut out, &mut events);
                            let shadow = shadows[(polled.0 - 2) as usize].as_mut();
                            let (shadow_out, shadow_abandoned) = shadow.expect("polled").poll(now);
                            assert_eq!((&out, &events.abandoned), (&shadow_out, &shadow_abandoned));
                            check(&table, &subscribed);
                            if !out.is_empty() {
                                assert!(
                                    due.is_some_and(|d| d <= now),
                                    "seed {seed} step {step}: output at {now}, next_due {due:?}"
                                );
                            }
                            lossy(out, &mut pipes[(polled.0 - 2) as usize][1], draw(u64::MAX));
                        }
                    }
                }
                check(&table, &subscribed);
            }
            let moved = table.arq_stats();
            assert!(
                moved.acked > 30 && moved.retransmitted > 0,
                "seed {seed}: the run must move traffic: {moved:?}"
            );
            // Ended links included: every retransmission a sweep reported is counted.
            assert_eq!(moved.retransmitted, events.retransmitted.len() as u64);
            assert!(!events.recovered_us.is_empty(), "seed {seed}: some retransmit was acked");
        }
    }

    #[test]
    fn link_table_arq_stats_survive_a_dropped_link() {
        let mut table = PeerTable::default();
        let (peer, mut out, mut events) = (NodeId(2), Vec::new(), LinkEvents::default());
        let mut now = Micros::ZERO;
        // One message acknowledged, one retransmitted until abandoned.
        table.send(peer, b"first", now, &mut out);
        table.on_ack(peer, 1, 0, 0, now, &mut out, &mut events);
        table.send(peer, b"second", now, &mut out);
        let mut snapshots = vec![table.arq_stats()];
        while events.abandoned.is_empty() {
            now += ProtoDuration::from_millis(500);
            table.poll(peer, now, &mut out, &mut events);
            snapshots.push(table.arq_stats());
        }
        let live = table.arq_stats();
        assert!(live.sent == 2 && live.acked == 1 && live.failed == 1 && live.retransmitted > 0);
        assert!(table.end(peer));
        assert_eq!(table.arq_stats(), live, "the ended link's counters are kept");
        table.send(peer, b"third", now, &mut out);
        snapshots.push(table.arq_stats());
        assert_eq!(table.arq_stats().sent, 3);
        for pair in snapshots.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            let monotone = a.sent <= b.sent
                && a.retransmitted <= b.retransmitted
                && a.acked <= b.acked
                && a.failed <= b.failed
                && a.payload_bytes <= b.payload_bytes;
            assert!(monotone, "{a:?} then {b:?}");
        }
    }
}
