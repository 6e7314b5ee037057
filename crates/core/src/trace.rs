//! The deterministic flight recorder: per-node causal tracing and
//! latency histograms on the sim clock.
//!
//! Avionics operators debugging a missed deadline need the causal chain,
//! not just counters (DESIGN.md §8). Every container owns a [`Tracer`]:
//! a bounded ring of structured [`TraceEvent`] records — publish /
//! deliver, event emit / drop, call / reply / retry, ARQ retransmit,
//! FEC recovery, link and directory lifecycle, node crash / restart —
//! each stamped with **sim event-time and node incarnation**. There is
//! no wall-clock read anywhere in this module (lint rule D2) and no
//! string allocation on the record path (lint rule O1). The ring holds
//! each record as a 32-byte `Copy` slot — time, trace id, seq, peer, kind
//! — plus a 16-bit index into its own context table, where a record's
//! incarnation and name are interned together: a name's `Arc` is cloned
//! once, when its context is first used, and recording or evicting after
//! that touches no reference count. [`TraceRing::events`] rebuilds the
//! public [`TraceEvent`]s from slot plus context; rendering happens only
//! in the dump layer ([`render_event`], the `marea-trace` CLI).
//!
//! Causality crosses the wire as a compact [`TraceId`] — origin node in
//! the high 32 bits, a per-container mint counter in the low 32 —
//! piggybacked on `VarSample`/`EventData`/`CallRequest`/`CallReply`
//! frames the same way `loss_permille` rides `RelAck`. Only the counter
//! varint actually travels ([`TraceId::wire`]): the origin is implied by
//! the frame's source (or by the caller, for replies), keeping traced
//! frames 1-3 bytes heavier rather than 5-6. Collecting every
//! ring's events for one id and sorting by event-time reconstructs the
//! sample's journey (publish → link → FEC recover → deliver); see
//! [`assemble_chain`].
//!
//! Latency distributions use [`LatencyHistogram`]: 32 fixed log2-µs
//! buckets, `Copy`, no allocation, exact p50/p99/p999 bucket bounds.
//! Everything here is deterministic: the same seed reproduces the same
//! ring contents and the same histogram, byte for byte (asserted by the
//! scenario corpus).

use std::collections::VecDeque;

use marea_presentation::Name;
use marea_protocol::{Micros, NodeId};

/// Compact causal identity of one traced sample, event or call.
///
/// Encoded as `origin_node << 32 | counter` so the id survives a varint
/// wire hop unchanged and the origin is recoverable without a lookup.
/// `TraceId::NONE` (zero) marks untraced frames — peers that never mint
/// ids interoperate for free.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceId(pub u64);

impl TraceId {
    /// The null id: this frame carries no causal identity.
    pub const NONE: TraceId = TraceId(0);

    /// Builds an id from its origin node and mint counter.
    pub fn new(origin: NodeId, counter: u32) -> TraceId {
        TraceId((u64::from(origin.0) << 32) | u64::from(counter))
    }

    /// The node that minted this id.
    pub fn origin(self) -> NodeId {
        NodeId((self.0 >> 32) as u32)
    }

    /// The origin-local mint counter.
    pub fn counter(self) -> u32 {
        self.0 as u32
    }

    /// True for [`TraceId::NONE`].
    pub fn is_none(self) -> bool {
        self.0 == 0
    }

    /// The varint that goes on the wire: just the mint counter. The
    /// origin node never travels — every message type that carries a
    /// trace implies it (the frame's `src` for samples, events and
    /// requests; the caller itself for replies), so traced frames cost
    /// 1-3 varint bytes instead of the 5-6 a full 64-bit id would.
    pub fn wire(self) -> u64 {
        u64::from(self.counter())
    }

    /// Reassembles the full id from a wire counter and the origin the
    /// message type implies. Counter 0 is [`TraceId::NONE`].
    pub fn from_wire(origin: NodeId, counter: u64) -> TraceId {
        if counter == 0 {
            TraceId::NONE
        } else {
            TraceId::new(origin, counter as u32)
        }
    }
}

impl std::fmt::Display for TraceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_none() {
            write!(f, "-")
        } else {
            write!(f, "{}:{}", self.origin().0, self.counter())
        }
    }
}

/// What happened. One variant per observable middleware action; the
/// record path stores only this discriminant — prose lives in
/// [`TraceKind::label`] and the dump layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[allow(missing_docs)] // the variant names are the documentation
pub enum TraceKind {
    /// A variable sample left the publisher (`seq` = sample seq).
    VarPublish,
    /// A variable sample reached a subscriber's handler.
    VarDeliver,
    /// A sample arrived already older than the channel validity.
    VarStaleDrop,
    /// A sample regressed the subscription's seq and was dropped.
    VarOldDrop,
    /// A subscribed channel missed its declared deadline.
    VarTimeout,
    /// An event left the emitter.
    EventEmit,
    /// An event reached a subscriber's handler.
    EventDeliver,
    /// An event delivery was dropped by a bounded inbox.
    EventDrop,
    /// A remote invocation was issued (`seq` = request id).
    CallStart,
    /// A reply (ok or error payload) reached the caller.
    CallReply,
    /// The call failed over / retried towards another provider.
    CallRetry,
    /// The ARQ retransmitted a reliable frame (`seq` = ARQ seq).
    RelRetransmit,
    /// The FEC decoder rebuilt erased frames without a retransmission.
    FecRecover,
    /// A reliable link to `peer` was (lazily) established.
    LinkUp,
    /// A reliable link to `peer` was torn down.
    LinkDown,
    /// A directory announce from `peer` was applied.
    DirAnnounce,
    /// `peer` was declared dead and its directory entries invalidated.
    DirExpire,
    /// The container started (incarnation in the stamp).
    NodeStart,
    /// The node was crashed by the harness / scenario.
    NodeCrash,
    /// The node was restarted (fresh incarnation).
    NodeRestart,
}

impl TraceKind {
    /// Stable lowercase label used by dumps, filters and JSON.
    pub fn label(self) -> &'static str {
        match self {
            TraceKind::VarPublish => "var_publish",
            TraceKind::VarDeliver => "var_deliver",
            TraceKind::VarStaleDrop => "var_stale_drop",
            TraceKind::VarOldDrop => "var_old_drop",
            TraceKind::VarTimeout => "var_timeout",
            TraceKind::EventEmit => "event_emit",
            TraceKind::EventDeliver => "event_deliver",
            TraceKind::EventDrop => "event_drop",
            TraceKind::CallStart => "call_start",
            TraceKind::CallReply => "call_reply",
            TraceKind::CallRetry => "call_retry",
            TraceKind::RelRetransmit => "rel_retransmit",
            TraceKind::FecRecover => "fec_recover",
            TraceKind::LinkUp => "link_up",
            TraceKind::LinkDown => "link_down",
            TraceKind::DirAnnounce => "dir_announce",
            TraceKind::DirExpire => "dir_expire",
            TraceKind::NodeStart => "node_start",
            TraceKind::NodeCrash => "node_crash",
            TraceKind::NodeRestart => "node_restart",
        }
    }
}

/// One flight-recorder record, as [`TraceRing::events`] hands it out: the
/// ring stores it as a slot plus an interned context, so recording never
/// allocates on the hot path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Sim event-time of the action (node-local clock).
    pub at: Micros,
    /// Incarnation of the recording container (restarts bump it).
    pub incarnation: u64,
    /// What happened.
    pub kind: TraceKind,
    /// Causal identity threaded across the wire; `NONE` if the action
    /// has no per-sample identity (e.g. link lifecycle).
    pub trace: TraceId,
    /// The other node involved, if any.
    pub peer: Option<NodeId>,
    /// Kind-specific sequence number (sample seq, request id, ARQ seq).
    pub seq: u64,
    /// The channel / function name involved, if any (interned; cloning
    /// is a refcount bump, not an allocation).
    pub name: Option<Name>,
}

/// One held record: a [`TraceEvent`]'s fixed-size fields, with its
/// incarnation and name folded into `ctx`, an index into the ring's
/// context table. `Copy`, so recording and evicting touch no reference
/// count.
#[derive(Clone, Copy)]
struct Slot {
    at: u64,
    trace: u64,
    seq: u64,
    peer: u32,
    /// Whether `peer` names a node: keeps `Some(NodeId(0))` apart from `None`.
    has_peer: bool,
    kind: TraceKind,
    ctx: u16,
}

/// Bytes one slot occupies.
pub(crate) const SLOT_BYTES: usize = std::mem::size_of::<Slot>();

const _: () = assert!(std::mem::size_of::<Slot>() == 32);

impl Slot {
    fn new(at: Micros, kind: TraceKind, trace: TraceId, peer: Option<NodeId>, seq: u64) -> Slot {
        let (peer, has_peer) = match peer {
            Some(p) => (p.0, true),
            None => (0, false),
        };
        Slot { at: at.0, trace: trace.0, seq, peer, has_peer, kind, ctx: 0 }
    }
}

/// A record's context: the incarnation that recorded it and the channel or
/// function it names. One table entry serves every record that shares both.
type Context = (u64, Option<Name>);

/// Bytes one context-table entry occupies.
pub(crate) const CONTEXT_BYTES: usize = std::mem::size_of::<Context>();

/// Contexts a ring of `capacity` slots keeps before it compacts its table
/// to the ones its held slots name: twice the capacity, so a compaction
/// follows at least `capacity` new contexts, and never more than a `u16`
/// index reaches.
pub(crate) const fn context_limit(capacity: usize) -> usize {
    let limit = if capacity < 32 { 64 } else { 2 * capacity };
    if limit < u16::MAX as usize {
        limit
    } else {
        u16::MAX as usize
    }
}

/// Bounded event ring: oldest evicted first, capacity respected, an
/// eviction counter so dumps can say how much history fell off.
///
/// It holds 32-byte slots, not [`TraceEvent`]s: a slot's incarnation and
/// name live once in the ring's context table, which holds only contexts
/// its own records named and is compacted to the held slots' contexts
/// before it outgrows `context_limit` of its capacity.
#[derive(Clone, Default)]
pub struct TraceRing {
    slots: VecDeque<Slot>,
    contexts: Vec<Context>,
    capacity: usize,
    evicted: u64,
}

impl TraceRing {
    /// An empty ring holding at most `capacity` events.
    pub fn new(capacity: usize) -> TraceRing {
        TraceRing {
            slots: VecDeque::with_capacity(capacity.min(4096)),
            contexts: Vec::new(),
            capacity,
            evicted: 0,
        }
    }

    /// Appends `ev`, evicting the oldest record if the ring is full.
    pub fn push(&mut self, ev: TraceEvent) {
        let slot = Slot::new(ev.at, ev.kind, ev.trace, ev.peer, ev.seq);
        self.write(slot, ev.incarnation, ev.name.as_ref());
    }

    /// Appends `slot` under the context (`incarnation`, `name`), evicting
    /// the oldest record if the ring is full.
    fn write(&mut self, mut slot: Slot, incarnation: u64, name: Option<&Name>) {
        if self.capacity == 0 {
            return;
        }
        if self.slots.len() == self.capacity {
            self.slots.pop_front();
            self.evicted += 1;
        } else if self.slots.len() == self.slots.capacity() {
            // Past the preallocated 4 096: double, but never past `capacity`.
            let len = self.slots.len();
            self.slots.reserve_exact(len.max(1).min(self.capacity - len));
        }
        slot.ctx = self.intern(incarnation, name);
        self.slots.push_back(slot);
    }

    /// The index of context (`incarnation`, `name`), added if new. Names
    /// compare by value, so equal names in distinct allocations share one
    /// entry; the name is cloned only when its entry is added.
    fn intern(&mut self, incarnation: u64, name: Option<&Name>) -> u16 {
        let held = self.contexts.iter().rposition(|(i, n)| *i == incarnation && n.as_ref() == name);
        if let Some(ctx) = held {
            return ctx as u16;
        }
        let limit = context_limit(self.capacity);
        if self.contexts.len() >= limit {
            // Only a ring of more than `u16::MAX` slots can hold that many
            // distinct contexts: it gives up its oldest records early
            // rather than show one under another's context.
            let excess = (self.slots.len() + 1).saturating_sub(limit);
            self.slots.drain(..excess);
            self.evicted += excess as u64;
            self.compact();
        }
        if self.contexts.len() == self.contexts.capacity() {
            let len = self.contexts.len();
            self.contexts.reserve_exact(len.max(4).min(limit - len));
        }
        self.contexts.push((incarnation, name.cloned()));
        (self.contexts.len() - 1) as u16
    }

    /// Rebuilds the context table from the held slots: a context no held
    /// slot names is dropped, the rest keep their order.
    fn compact(&mut self) {
        const GONE: u16 = u16::MAX;
        let mut moved = vec![GONE; self.contexts.len()];
        for slot in &self.slots {
            moved[usize::from(slot.ctx)] = 0;
        }
        let mut kept = 0;
        for to in moved.iter_mut().filter(|to| **to != GONE) {
            *to = kept;
            kept += 1;
        }
        let old = std::mem::replace(&mut self.contexts, Vec::with_capacity(usize::from(kept)));
        let held = old.into_iter().zip(&moved).filter(|(_, to)| **to != GONE);
        self.contexts.extend(held.map(|(context, _)| context));
        for slot in &mut self.slots {
            slot.ctx = moved[usize::from(slot.ctx)];
        }
    }

    /// The record `slot` stands for.
    fn event(&self, slot: &Slot) -> TraceEvent {
        let (incarnation, name) = &self.contexts[usize::from(slot.ctx)];
        TraceEvent {
            at: Micros(slot.at),
            incarnation: *incarnation,
            kind: slot.kind,
            trace: TraceId(slot.trace),
            peer: slot.has_peer.then_some(NodeId(slot.peer)),
            seq: slot.seq,
            name: name.clone(),
        }
    }

    /// Records currently held, oldest first.
    pub fn events(&self) -> impl Iterator<Item = TraceEvent> + '_ {
        self.slots.iter().map(|slot| self.event(slot))
    }

    /// Records currently held.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when nothing has been recorded (or everything evicted).
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Maximum records held.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Records evicted to make room since the ring was created.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Entries in the context table: the distinct (incarnation, name)
    /// pairs this ring's records named since it was last compacted.
    pub fn contexts(&self) -> usize {
        self.contexts.len()
    }

    /// Bytes of slot and context-table storage: capacity, not contents.
    /// At most [`trace_cap_bytes`](crate::trace_cap_bytes)`(capacity)`.
    pub fn bytes(&self) -> usize {
        self.slots.capacity() * SLOT_BYTES + self.contexts.capacity() * CONTEXT_BYTES
    }

    /// Absorbs a ring stashed across a crash/restart: the stashed
    /// history is replayed into this ring (oldest first), so the new
    /// incarnation's recorder starts with its predecessor's tail and
    /// this ring's own capacity still bounds the total. Only the slots
    /// that stay held are re-interned.
    pub fn adopt(&mut self, older: TraceRing) {
        let mut merged = TraceRing::new(self.capacity);
        merged.evicted = self.evicted + older.evicted;
        if self.capacity > 0 {
            let overflow = (older.len() + self.len()).saturating_sub(self.capacity);
            merged.evicted += overflow as u64;
            let held = older.slots.iter().map(|s| (&older, s));
            for (ring, slot) in held.chain(self.slots.iter().map(|s| (&*self, s))).skip(overflow) {
                let (incarnation, name) = &ring.contexts[usize::from(slot.ctx)];
                merged.write(*slot, *incarnation, name.as_ref());
            }
        }
        *self = merged;
    }
}

impl PartialEq for TraceRing {
    /// Same capacity, same eviction count and the same events: how each
    /// ring laid out its context table does not matter.
    fn eq(&self, other: &TraceRing) -> bool {
        self.capacity == other.capacity
            && self.evicted == other.evicted
            && self.events().eq(other.events())
    }
}

impl Eq for TraceRing {}

impl std::fmt::Debug for TraceRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceRing")
            .field("capacity", &self.capacity)
            .field("evicted", &self.evicted)
            .field("events", &self.events().collect::<Vec<_>>())
            .finish()
    }
}

/// Number of log2 buckets in a [`LatencyHistogram`].
pub const HISTOGRAM_BUCKETS: usize = 32;

/// Fixed-bucket log2-µs latency histogram: bucket 0 holds exact zeros,
/// bucket `i` (1‥=30) holds `[2^(i-1), 2^i)` µs, bucket 31 saturates
/// everything ≥ 2^30 µs (~18 min). `Copy`, allocation-free, `Eq` — a
/// snapshot is just the struct, and same-seed runs produce identical
/// ones.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencyHistogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
}

impl LatencyHistogram {
    /// The bucket index a latency of `us` microseconds lands in.
    pub fn bucket_of(us: u64) -> usize {
        if us == 0 {
            0
        } else {
            ((us.ilog2() as usize) + 1).min(HISTOGRAM_BUCKETS - 1)
        }
    }

    /// Inclusive upper bound (µs) of bucket `i`; the last bucket's bound
    /// reads as "everything at or above" its lower edge.
    pub fn bucket_bound_us(i: usize) -> u64 {
        if i == 0 {
            0
        } else {
            (1u64 << i.min(HISTOGRAM_BUCKETS - 1)) - 1
        }
    }

    /// Records one sample. Never loses it: every `us` maps to exactly
    /// one bucket.
    pub fn record(&mut self, us: u64) {
        self.buckets[Self::bucket_of(us)] += 1;
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Raw bucket counts.
    pub fn buckets(&self) -> &[u64; HISTOGRAM_BUCKETS] {
        &self.buckets
    }

    /// Upper bound (µs) of the bucket containing the `num/den` quantile
    /// (rank = ⌈count·num/den⌉), or `None` if the histogram is empty.
    /// Integer arithmetic throughout, so the answer is deterministic.
    pub fn quantile_bound_us(&self, num: u64, den: u64) -> Option<u64> {
        let count = self.count();
        if count == 0 || den == 0 {
            return None;
        }
        let rank = (count.saturating_mul(num)).div_ceil(den).max(1);
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                return Some(Self::bucket_bound_us(i));
            }
        }
        Some(Self::bucket_bound_us(HISTOGRAM_BUCKETS - 1))
    }

    /// Median bucket bound (µs).
    pub fn p50_us(&self) -> Option<u64> {
        self.quantile_bound_us(1, 2)
    }

    /// 99th-percentile bucket bound (µs).
    pub fn p99_us(&self) -> Option<u64> {
        self.quantile_bound_us(99, 100)
    }

    /// 99.9th-percentile bucket bound (µs).
    pub fn p999_us(&self) -> Option<u64> {
        self.quantile_bound_us(999, 1000)
    }

    /// Folds another histogram into this one (used when merging stats).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
    }

    /// Bucket-wise difference against an `earlier` cumulative snapshot
    /// of the same histogram — the samples recorded in between. Buckets
    /// saturate at zero, so a counter reset (node restart) yields an
    /// empty window rather than an underflow.
    pub fn saturating_diff(&self, earlier: &LatencyHistogram) -> LatencyHistogram {
        let mut out = LatencyHistogram::default();
        for (i, o) in out.buckets.iter_mut().enumerate() {
            *o = self.buckets[i].saturating_sub(earlier.buckets[i]);
        }
        out
    }
}

/// The per-container flight recorder: the ring, the id mint and the
/// four latency histograms the paper's QoS story cares about.
#[derive(Debug, Clone)]
pub struct Tracer {
    enabled: bool,
    node: NodeId,
    incarnation: u64,
    next_mint: u32,
    ring: TraceRing,
    /// publish → handler delivery latency of variable samples.
    pub publish_to_deliver: LatencyHistogram,
    /// emit → handler delivery latency of reliable events.
    pub event_to_deliver: LatencyHistogram,
    /// Remote invocation round-trip time.
    pub call_rtt: LatencyHistogram,
    /// First-retransmission → ACK recovery time on reliable links.
    pub rto_recovery: LatencyHistogram,
}

impl Tracer {
    /// A recorder for `node` keeping the last `capacity` events. Zero
    /// turns it off: it keeps nothing, mints [`TraceId::NONE`] and costs
    /// one branch per record point (the `bench_trace_overhead` baseline).
    pub fn new(node: NodeId, capacity: usize) -> Tracer {
        Tracer {
            enabled: capacity > 0,
            node,
            incarnation: 1,
            next_mint: 0,
            ring: TraceRing::new(capacity),
            publish_to_deliver: LatencyHistogram::default(),
            event_to_deliver: LatencyHistogram::default(),
            call_rtt: LatencyHistogram::default(),
            rto_recovery: LatencyHistogram::default(),
        }
    }

    /// Whether record calls do anything.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The node this recorder belongs to.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Stamps subsequent records with a new incarnation.
    pub fn set_incarnation(&mut self, incarnation: u64) {
        self.incarnation = incarnation;
    }

    /// Mints the next causal id for a sample/event/call originating
    /// here. Deterministic: ids are dense per (node, incarnation run).
    pub fn mint(&mut self) -> TraceId {
        if !self.enabled {
            return TraceId::NONE;
        }
        self.next_mint = self.next_mint.wrapping_add(1);
        TraceId::new(self.node, self.next_mint)
    }

    /// Records one event. No-op (one branch) when disabled; the name is
    /// interned in the ring's context table, so this path never allocates
    /// a string and, once the name's context exists, touches no reference
    /// count.
    pub fn record(
        &mut self,
        at: Micros,
        kind: TraceKind,
        trace: TraceId,
        peer: Option<NodeId>,
        seq: u64,
        name: Option<&Name>,
    ) {
        if !self.enabled {
            return;
        }
        self.ring.write(Slot::new(at, kind, trace, peer, seq), self.incarnation, name);
    }

    /// Records a publish→deliver latency sample (µs).
    pub fn record_var_latency(&mut self, us: u64) {
        if self.enabled {
            self.publish_to_deliver.record(us);
        }
    }

    /// Records an event emit→deliver latency sample (µs).
    pub fn record_event_latency(&mut self, us: u64) {
        if self.enabled {
            self.event_to_deliver.record(us);
        }
    }

    /// Records a call round-trip sample (µs).
    pub fn record_call_rtt(&mut self, us: u64) {
        if self.enabled {
            self.call_rtt.record(us);
        }
    }

    /// Records a retransmit→ACK recovery sample (µs).
    pub fn record_rto_recovery(&mut self, us: u64) {
        if self.enabled {
            self.rto_recovery.record(us);
        }
    }

    /// The ring, for dumps.
    pub fn ring(&self) -> &TraceRing {
        &self.ring
    }

    /// Takes the ring out (crash stash), leaving an empty one.
    pub fn take_ring(&mut self) -> TraceRing {
        let capacity = self.ring.capacity();
        std::mem::replace(&mut self.ring, TraceRing::new(capacity))
    }

    /// Re-adopts a ring stashed across a crash/restart.
    pub fn adopt_ring(&mut self, older: TraceRing) {
        self.ring.adopt(older);
    }
}

/// All events across a set of per-node rings that carry causal id
/// `trace`, sorted into the deterministic causal order: event-time,
/// then node, then incarnation, then kind. This is the chain a
/// violation report and the `marea-trace` CLI both print.
pub fn assemble_chain(rings: &[(NodeId, &TraceRing)], trace: TraceId) -> Vec<(NodeId, TraceEvent)> {
    let mut out: Vec<(NodeId, TraceEvent)> = Vec::new();
    if trace.is_none() {
        return out;
    }
    for (node, ring) in rings {
        for slot in ring.slots.iter().filter(|slot| slot.trace == trace.0) {
            out.push((*node, ring.event(slot)));
        }
    }
    out.sort_by_key(|(node, ev)| (ev.at, *node, ev.incarnation, ev.kind, ev.seq));
    out
}

/// Renders one record as the stable single-line text form shared by the
/// CLI, violation reports and the scenario corpus (changing this format
/// is a visible, test-pinned decision).
pub fn render_event(node: NodeId, ev: &TraceEvent) -> String {
    let peer = match ev.peer {
        Some(p) => p.0.to_string(),
        None => "-".to_string(),
    };
    let name = ev.name.as_ref().map(|n| n.as_str()).unwrap_or("-");
    format!(
        "{:>10}us n{} i{} {:<14} trace={} peer={} seq={} name={}",
        ev.at.0,
        node.0,
        ev.incarnation,
        ev.kind.label(),
        ev.trace,
        peer,
        ev.seq,
        name
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at: u64, kind: TraceKind, trace: TraceId) -> TraceEvent {
        TraceEvent { at: Micros(at), incarnation: 1, kind, trace, peer: None, seq: 0, name: None }
    }

    #[test]
    fn trace_id_packs_origin_and_counter() {
        let id = TraceId::new(NodeId(7), 42);
        assert_eq!(id.origin(), NodeId(7));
        assert_eq!(id.counter(), 42);
        assert!(!id.is_none());
        assert!(TraceId::NONE.is_none());
        assert_eq!(id.to_string(), "7:42");
        assert_eq!(TraceId::NONE.to_string(), "-");
    }

    #[test]
    fn ring_wraparound_evicts_oldest_and_respects_capacity() {
        let mut ring = TraceRing::new(4);
        for at in 0..10u64 {
            ring.push(ev(at, TraceKind::VarPublish, TraceId::NONE));
        }
        assert_eq!(ring.len(), 4, "capacity respected");
        assert_eq!(ring.evicted(), 6);
        let ats: Vec<u64> = ring.events().map(|e| e.at.0).collect();
        assert_eq!(ats, vec![6, 7, 8, 9], "oldest evicted first");
    }

    #[test]
    fn zero_capacity_ring_records_nothing() {
        let mut ring = TraceRing::new(0);
        ring.push(ev(1, TraceKind::VarPublish, TraceId::NONE));
        assert!(ring.is_empty());
        assert_eq!(ring.evicted(), 0);
    }

    #[test]
    fn adopt_replays_old_history_under_one_capacity() {
        let mut old = TraceRing::new(4);
        for at in 0..3u64 {
            old.push(ev(at, TraceKind::VarPublish, TraceId::NONE));
        }
        let mut fresh = TraceRing::new(4);
        for at in 10..13u64 {
            fresh.push(ev(at, TraceKind::VarDeliver, TraceId::NONE));
        }
        fresh.adopt(old);
        let ats: Vec<u64> = fresh.events().map(|e| e.at.0).collect();
        assert_eq!(ats, vec![2, 10, 11, 12], "tail of old history + all new, capped");
        assert_eq!(ats.len(), fresh.capacity());
    }

    /// The ring as it was before slots: a deque of whole events, and the
    /// distinct contexts (incarnation, name by value) its records named.
    #[derive(Debug, Clone, Default)]
    struct Model {
        buf: VecDeque<TraceEvent>,
        capacity: usize,
        evicted: u64,
        named: std::collections::BTreeSet<(u64, Option<String>)>,
    }

    impl Model {
        fn new(capacity: usize) -> Model {
            Model { capacity, ..Model::default() }
        }

        fn push(&mut self, ev: TraceEvent) {
            if self.capacity == 0 {
                return;
            }
            if self.buf.len() == self.capacity {
                self.buf.pop_front();
                self.evicted += 1;
            }
            self.named.insert((ev.incarnation, ev.name.as_ref().map(|n| n.to_string())));
            self.buf.push_back(ev);
        }

        fn adopt(&mut self, older: Model) {
            let mut merged = Model::new(self.capacity);
            merged.evicted = self.evicted + older.evicted;
            for ev in older.buf.into_iter().chain(self.buf.drain(..)) {
                merged.push(ev);
            }
            *self = merged;
        }

        /// A ring holding the model's events, built afresh.
        fn ring(&self) -> TraceRing {
            let mut ring = TraceRing::new(self.capacity);
            for ev in &self.buf {
                ring.push(ev.clone());
            }
            ring.evicted = self.evicted;
            ring
        }
    }

    fn agree(ring: &TraceRing, model: &Model, at: &str) {
        let events: Vec<TraceEvent> = ring.events().collect();
        assert_eq!(events, Vec::from(model.buf.clone()), "{at}: events");
        assert_eq!(ring.len(), model.buf.len(), "{at}: len");
        assert_eq!(ring.evicted(), model.evicted, "{at}: evicted");
        assert!(ring.contexts() <= model.named.len().max(1), "{at}: {ring:?}");
        let rebuilt = model.ring();
        assert_eq!(*ring, rebuilt, "{at}: == compares events, not table layout");
        if let Some(last) = model.buf.back() {
            let mut other = model.clone();
            other.buf.back_mut().unwrap().incarnation = last.incarnation + 1;
            assert_ne!(*ring, other.ring(), "{at}: == sees an incarnation");
        }
    }

    /// Random records, crashes (the ring taken, a marker pushed, the older
    /// stash adopted) and restarts (the stash adopted back), as the harness
    /// does them, against the model at every step. The inputs hold
    /// `Some(NodeId(0))` next to `None`, every name under two incarnations
    /// and every name in two distinct allocations; with the 100-name pool
    /// and a crash every 200 steps or so, the tables are compacted.
    #[test]
    fn slots_and_contexts_agree_with_a_ring_of_whole_events() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move |below: u64| {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_F491_4F6C_DD1D) % below
        };
        let kinds = [TraceKind::VarPublish, TraceKind::VarDeliver, TraceKind::CallStart];
        for (names, churn) in [(3, 20), (100, 20), (100, 200)] {
            let pool: Vec<[Name; 2]> = (0..names)
                .map(|i| {
                    let name = format!("chan/{i}");
                    [Name::new(&name).unwrap(), Name::new(&name).unwrap()]
                })
                .collect();
            for capacity in [0, 1, 3, 8, 64] {
                let mut tracer = Tracer::new(NodeId(1), capacity);
                let mut live = Model::new(capacity);
                let mut stash: Option<(TraceRing, Model)> = None;
                let mut incarnation = 1;
                for step in 0..3_000u64 {
                    let at =
                        format!("{names} names, churn {churn}, capacity {capacity}, step {step}");
                    let marker = |kind, incarnation| TraceEvent {
                        at: Micros(step),
                        incarnation,
                        kind,
                        trace: TraceId::NONE,
                        peer: None,
                        seq: 0,
                        name: None,
                    };
                    match next(churn) {
                        0 => {
                            let mut ring = tracer.take_ring();
                            let mut model = std::mem::replace(&mut live, Model::new(capacity));
                            ring.push(marker(TraceKind::NodeCrash, incarnation));
                            model.push(marker(TraceKind::NodeCrash, incarnation));
                            if let Some((older, older_model)) = stash.take() {
                                ring.adopt(older);
                                model.adopt(older_model);
                            }
                            agree(&ring, &model, &at);
                            stash = Some((ring, model));
                        }
                        1 => {
                            let (mut older, mut model) = stash.take().unwrap_or_else(|| {
                                (TraceRing::new(capacity), Model::new(capacity))
                            });
                            incarnation += 1;
                            older.push(marker(TraceKind::NodeRestart, incarnation));
                            model.push(marker(TraceKind::NodeRestart, incarnation));
                            tracer.adopt_ring(older);
                            live.adopt(model);
                        }
                        _ => {
                            // One name, two lives: records alternate between
                            // this incarnation and the one before it.
                            let recorded = incarnation - next(2).min(incarnation - 1);
                            tracer.set_incarnation(recorded);
                            let peer = match next(4) {
                                0 => None,
                                p => Some(NodeId(p as u32 - 1)),
                            };
                            let name = match next(pool.len() as u64 + 1) as usize {
                                0 => None,
                                i => Some(&pool[i - 1][next(2) as usize]),
                            };
                            let ev = TraceEvent {
                                at: Micros(step),
                                incarnation: recorded,
                                kind: kinds[next(3) as usize],
                                trace: TraceId(next(4)),
                                peer,
                                seq: next(1_000),
                                name: name.cloned(),
                            };
                            tracer.record(ev.at, ev.kind, ev.trace, ev.peer, ev.seq, name);
                            live.push(ev);
                        }
                    }
                    agree(tracer.ring(), &live, &at);
                }
            }
        }
    }

    /// However often a channel records, and in however many copies of its
    /// name, its records share one context.
    #[test]
    fn ten_thousand_records_of_one_channel_leave_one_context() {
        let mut tracer = Tracer::new(NodeId(1), 1024);
        let name = Name::new("gps/position").unwrap();
        for seq in 0..10_000u64 {
            let copy = Name::new("gps/position").unwrap();
            let name = if seq % 2 == 0 { &name } else { &copy };
            tracer.record(Micros(seq), TraceKind::VarPublish, TraceId::NONE, None, seq, Some(name));
        }
        assert_eq!(tracer.ring().contexts(), 1);
        assert_eq!(tracer.ring().len(), 1024);
    }

    /// A table fed more distinct names than a `u16` indexes is compacted
    /// to the held slots' contexts: it stays bounded, and every held
    /// record keeps its own name and incarnation.
    #[test]
    fn seventy_thousand_names_leave_a_bounded_table_and_the_right_events() {
        let mut ring = TraceRing::new(1024);
        let mut model = Model::new(1024);
        for i in 0..70_000u64 {
            let ev = TraceEvent {
                at: Micros(i),
                incarnation: 1 + i % 3,
                kind: TraceKind::EventEmit,
                trace: TraceId::NONE,
                peer: Some(NodeId(i as u32 % 2)),
                seq: i,
                name: Some(Name::new(format!("n/{i}")).unwrap()),
            };
            ring.push(ev.clone());
            model.buf.push_back(ev);
            if model.buf.len() > 1024 {
                model.buf.pop_front();
                model.evicted += 1;
            }
            assert!(ring.contexts() <= usize::from(u16::MAX), "{i}: {}", ring.contexts());
            assert!(ring.bytes() <= crate::trace_cap_bytes(1024), "{i}: {}", ring.bytes());
            if i % 7_919 == 0 {
                assert!(ring.events().eq(model.buf.iter().cloned()), "{i}");
            }
        }
        assert!(ring.events().eq(model.buf.iter().cloned()));
        assert_eq!(ring.evicted(), model.evicted);
    }

    #[test]
    fn histogram_never_loses_a_sample() {
        // Property: for a deterministic sweep of magnitudes, every
        // sample lands in exactly one bucket and the count invariant
        // holds.
        let mut h = LatencyHistogram::default();
        let mut n = 0u64;
        let mut x = 1u64;
        // Cover 0, every power of two, its neighbours, and a spread of
        // odd values up past the saturation bucket.
        h.record(0);
        n += 1;
        while x < (1u64 << 40) {
            for v in [x.saturating_sub(1), x, x + 1, x.saturating_mul(3) / 2] {
                h.record(v);
                n += 1;
            }
            x <<= 1;
        }
        assert_eq!(h.count(), n, "count invariant: no sample lost");
        // Monotone percentiles.
        let p50 = h.p50_us().unwrap();
        let p99 = h.p99_us().unwrap();
        let p999 = h.p999_us().unwrap();
        assert!(p50 <= p99 && p99 <= p999, "p50={p50} p99={p99} p999={p999}");
    }

    #[test]
    fn histogram_properties_hold_over_random_streams() {
        // Property sweep over deterministic pseudo-random latency
        // streams: the count invariant, quantile monotonicity (both in
        // the quantile and against the recorded range) and merge
        // additivity must hold for every stream shape.
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            // xorshift* — deterministic, no external crates.
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        for stream in 0..32 {
            let mut h = LatencyHistogram::default();
            let mut max_seen = 0u64;
            let n = 1 + (stream * 37) % 500;
            for _ in 0..n {
                // Spread magnitudes across the full bucket range.
                let shift = (next() % 40) as u32;
                let us = next() >> shift;
                max_seen = max_seen.max(us);
                h.record(us);
            }
            assert_eq!(h.count(), n, "stream {stream}: count invariant");
            // Quantile bounds are monotone in the quantile …
            let qs: Vec<u64> = [(1, 2), (9, 10), (99, 100), (999, 1000)]
                .iter()
                .map(|&(num, den)| h.quantile_bound_us(num, den).unwrap())
                .collect();
            assert!(qs.windows(2).all(|w| w[0] <= w[1]), "stream {stream}: {qs:?}");
            // … and never claim a bound below any recorded sample's
            // bucket floor nor above the max sample's bucket bound.
            let max_bound =
                LatencyHistogram::bucket_bound_us(LatencyHistogram::bucket_of(max_seen));
            assert!(qs.iter().all(|&q| q <= max_bound), "stream {stream}: {qs:?} > {max_bound}");
        }
        // Merge additivity: count(a ∪ b) = count(a) + count(b), bucket
        // by bucket.
        let mut a = LatencyHistogram::default();
        let mut b = LatencyHistogram::default();
        for i in 0..100u64 {
            a.record(i * 17 % 5000);
            b.record(i * 31 % 50);
        }
        let mut merged = a;
        merged.merge(&b);
        assert_eq!(merged.count(), a.count() + b.count());
        for i in 0..HISTOGRAM_BUCKETS {
            assert_eq!(merged.buckets()[i], a.buckets()[i] + b.buckets()[i], "bucket {i}");
        }
    }

    #[test]
    fn bucket_edges_are_exact() {
        assert_eq!(LatencyHistogram::bucket_of(0), 0);
        assert_eq!(LatencyHistogram::bucket_of(1), 1);
        assert_eq!(LatencyHistogram::bucket_of(2), 2);
        assert_eq!(LatencyHistogram::bucket_of(3), 2);
        assert_eq!(LatencyHistogram::bucket_of(4), 3);
        assert_eq!(LatencyHistogram::bucket_of(1023), 10);
        assert_eq!(LatencyHistogram::bucket_of(1024), 11);
        assert_eq!(LatencyHistogram::bucket_of(u64::MAX), HISTOGRAM_BUCKETS - 1);
        assert_eq!(LatencyHistogram::bucket_bound_us(0), 0);
        assert_eq!(LatencyHistogram::bucket_bound_us(10), 1023);
    }

    #[test]
    fn percentiles_of_known_distribution_land_in_right_buckets() {
        // 90 samples at ~100µs (bucket 7, bound 127), 9 at ~1000µs
        // (bucket 10, bound 1023), 1 at ~100_000µs (bucket 17, bound
        // 131071): p50 must report the 100µs bucket, p99 the 1000µs
        // bucket, p999 the outlier's bucket.
        let mut h = LatencyHistogram::default();
        for _ in 0..90 {
            h.record(100);
        }
        for _ in 0..9 {
            h.record(1000);
        }
        h.record(100_000);
        assert_eq!(h.count(), 100);
        assert_eq!(h.p50_us(), Some(127));
        assert_eq!(h.p99_us(), Some(1023));
        assert_eq!(h.p999_us(), Some(131_071));
    }

    #[test]
    fn empty_histogram_has_no_percentiles() {
        let h = LatencyHistogram::default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.p50_us(), None);
    }

    #[test]
    fn tracer_disabled_records_nothing_and_mints_none() {
        let mut t = Tracer::new(NodeId(1), 0);
        assert!(!t.enabled());
        assert_eq!(t.mint(), TraceId::NONE);
        t.record(Micros(5), TraceKind::VarPublish, TraceId::NONE, None, 1, None);
        t.record_var_latency(10);
        assert!(t.ring().is_empty());
        assert_eq!(t.publish_to_deliver.count(), 0);
    }

    #[test]
    fn tracer_mints_dense_node_scoped_ids() {
        let mut t = Tracer::new(NodeId(3), 1024);
        let a = t.mint();
        let b = t.mint();
        assert_eq!(a, TraceId::new(NodeId(3), 1));
        assert_eq!(b, TraceId::new(NodeId(3), 2));
    }

    #[test]
    fn chain_assembly_orders_across_nodes_by_time() {
        let id = TraceId::new(NodeId(1), 1);
        let mut r1 = TraceRing::new(8);
        r1.push(ev(10, TraceKind::VarPublish, id));
        let mut r2 = TraceRing::new(8);
        r2.push(ev(30, TraceKind::VarDeliver, id));
        r2.push(ev(20, TraceKind::FecRecover, id));
        r2.push(ev(25, TraceKind::VarStaleDrop, TraceId::new(NodeId(1), 2)));
        let rings = [(NodeId(2), &r2), (NodeId(1), &r1)];
        let chain = assemble_chain(&rings, id);
        let kinds: Vec<TraceKind> = chain.iter().map(|(_, e)| e.kind).collect();
        assert_eq!(
            kinds,
            vec![TraceKind::VarPublish, TraceKind::FecRecover, TraceKind::VarDeliver],
            "publish → recover → deliver, other ids filtered out"
        );
        assert!(assemble_chain(&rings, TraceId::NONE).is_empty());
    }

    #[test]
    fn render_is_stable() {
        let mut e = ev(1500, TraceKind::VarDeliver, TraceId::new(NodeId(1), 7));
        e.peer = Some(NodeId(1));
        e.seq = 9;
        e.name = Some(Name::new("chaos/telemetry").unwrap());
        assert_eq!(
            render_event(NodeId(2), &e),
            "      1500us n2 i1 var_deliver    trace=1:7 peer=1 seq=9 name=chaos/telemetry"
        );
    }
}
