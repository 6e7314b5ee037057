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
//! each record encoded in one preallocated byte buffer, about 10 bytes
//! where a record's fields take 32: a tag byte (kind, how the trace
//! origin is written, whether there is a peer), then prefix varints for
//! the time and seq as deltas from the record before, the trace counter,
//! the peer and a 16-bit index into the ring's own context table, where a
//! record's incarnation and name are interned together. A name's `Arc` is
//! cloned once, when its context is first used, and recording or evicting
//! after that touches no reference count. [`TraceRing::events`] decodes
//! the public [`TraceEvent`]s from record plus context; rendering happens
//! only in the dump layer ([`render_event`], the `marea-trace` CLI).
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
/// ring stores it encoded, with an interned context, so recording never
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
/// context table. The ring keeps it encoded and decodes it only to hand
/// it out.
#[derive(Clone, Copy)]
struct Record {
    at: u64,
    trace: u64,
    seq: u64,
    peer: Option<NodeId>,
    kind: TraceKind,
    ctx: u16,
}

/// Every kind, at the index its tag bits hold.
const KINDS: [TraceKind; 20] = [
    TraceKind::VarPublish,
    TraceKind::VarDeliver,
    TraceKind::VarStaleDrop,
    TraceKind::VarOldDrop,
    TraceKind::VarTimeout,
    TraceKind::EventEmit,
    TraceKind::EventDeliver,
    TraceKind::EventDrop,
    TraceKind::CallStart,
    TraceKind::CallReply,
    TraceKind::CallRetry,
    TraceKind::RelRetransmit,
    TraceKind::FecRecover,
    TraceKind::LinkUp,
    TraceKind::LinkDown,
    TraceKind::DirAnnounce,
    TraceKind::DirExpire,
    TraceKind::NodeStart,
    TraceKind::NodeCrash,
    TraceKind::NodeRestart,
];

const _: () = {
    let mut i = 0;
    while i < KINDS.len() {
        assert!(KINDS[i] as usize == i);
        i += 1;
    }
    assert!(KINDS.len() <= 32, "a kind is 5 bits of the tag");
};

/// Bits of a record's tag above its kind: whether it has a trace, whether
/// the trace's origin is written out (it is the ring's own node if not),
/// and whether it has a peer.
const TRACED: u8 = 0x20;
const FROM_OTHER: u8 = 0x40;
const HAS_PEER: u8 = 0x80;

/// Bits of a record's first byte: its width, and whether its time and its
/// seq repeat the record before it (then that delta is left out).
const WIDTH_BITS: u8 = 0x3f;
const SAME_AT: u8 = 0x40;
const SAME_SEQ: u8 = 0x80;

/// Bytes one encoded record takes at most: its width and its tag, the
/// time and seq deltas, the trace counter, an origin, the peer and the
/// context.
const RECORD_MAX_BYTES: usize =
    2 + 2 * varint_len(u64::MAX) + 3 * varint_len(u32::MAX as u64) + varint_len(u16::MAX as u64);

/// Bytes the writer and the reader touch from a record's start: a varint
/// is stored and loaded as one 8-byte word, so the last field's word may
/// reach 7 bytes past the record.
const RECORD_SPAN: usize = RECORD_MAX_BYTES + 7;

const _: () = assert!(RECORD_MAX_BYTES == 38 && RECORD_MAX_BYTES <= WIDTH_BITS as usize);

/// Bytes a record is reserved up front: records of the benchmark's
/// workloads average 5-9, so a full ring of them never grows.
const RESERVED_RECORD_BYTES: usize = 10;

/// Bytes of record storage a ring of `capacity` records never outgrows:
/// `capacity - 1` records of the widest kind held while the next one
/// looks for [`RECORD_SPAN`] free bytes, behind at most a span's worth
/// left unused at the end of the buffer when the writer wrapped.
pub(crate) const fn ring_cap_bytes(capacity: usize) -> usize {
    capacity.saturating_mul(RECORD_MAX_BYTES).saturating_add(2 * RECORD_SPAN)
}

/// Bytes of the varint that holds `v`: one per 7 bits up to 56, then 9
/// (the formula's 10 for 64 bits, capped).
#[inline(always)]
const fn varint_len(v: u64) -> usize {
    let bits = 64 - v.leading_zeros() as usize;
    let n = (bits * 9 + 64) >> 6;
    if n > 9 {
        9
    } else {
        n
    }
}

/// Writes `v` at `out[at..]` as a prefix varint and returns its width.
/// The first byte's trailing zeros say how many more bytes follow
/// (`n - 1` zeros under a 1 for an `n`-byte varint, 7 value bits a byte);
/// a zero byte means 8 whole bytes follow. One byte store writes a value
/// below 128 and one 8-byte store any below 2^56, so the reader needs no
/// loop either.
#[inline(always)]
fn put_varint(out: &mut [u8], at: usize, v: u64) -> usize {
    if v < 0x80 {
        out[at] = (v << 1 | 1) as u8;
        return 1;
    }
    let n = varint_len(v);
    if n == 9 {
        out[at] = 0;
        out[at + 1..at + 9].copy_from_slice(&v.to_le_bytes());
    } else {
        let word = ((v << 1) | 1) << (n - 1);
        out[at..at + 8].copy_from_slice(&word.to_le_bytes());
    }
    n
}

/// Reads the varint at `bytes[at..]` and returns it with its width.
fn get_varint(bytes: &[u8], at: usize) -> (u64, usize) {
    let n = (u32::from(bytes[at]) | 0x100).trailing_zeros() as usize + 1;
    if n == 9 {
        let word = u64::from_le_bytes(bytes[at + 1..at + 9].try_into().expect("8 bytes"));
        return (word, 9);
    }
    let word = u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"));
    ((word >> n) & (u64::MAX >> (64 - 7 * n)), n)
}

/// A signed difference as an unsigned varint's value: small either way.
#[inline(always)]
fn zigzag(delta: u64) -> u64 {
    (delta << 1) ^ ((delta as i64 >> 63) as u64)
}

/// [`zigzag`] for a 32-bit difference.
#[inline(always)]
fn zigzag32(delta: u32) -> u32 {
    (delta << 1) ^ ((delta as i32 >> 31) as u32)
}

/// The difference [`zigzag`] or, cut to 32 bits, [`zigzag32`] wrote.
fn unzigzag(z: u64) -> u64 {
    (z >> 1) ^ (z & 1).wrapping_neg()
}

/// A record's context: the incarnation that recorded it and the channel or
/// function it names. One table entry serves every record that shares both.
type Context = (u64, Option<Name>);

/// Bytes one context-table entry occupies.
pub(crate) const CONTEXT_BYTES: usize = std::mem::size_of::<Context>();

/// Contexts a ring of `capacity` records keeps before it compacts its
/// table to the ones its held records name: twice the capacity, so a
/// compaction follows at least `capacity` new contexts, and never more
/// than a `u16` index reaches.
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
/// It holds records encoded into one byte buffer, not [`TraceEvent`]s. A
/// record is its width (with a bit each for a time and a seq that repeat
/// the record before), a tag byte (kind, whether there is a trace, whether
/// its origin is another node than the ring's own, whether there is a
/// peer) and prefix varints: the time and seq as zigzag deltas from the
/// record before it, the trace counter as one from the trace before it,
/// that other origin, the peer, and the index of the record's
/// incarnation and name in the ring's context table. That is 4-9 bytes
/// for a typical record, `RECORD_MAX_BYTES` (38) at worst. The ring keeps
/// the newest values the deltas run to, so evicting the oldest record
/// only steps over its width; readers sum the held deltas back from the
/// newest. A record never wraps: one that would pass the end of the
/// buffer starts at 0. The buffer is sized for `RESERVED_RECORD_BYTES` a
/// record up front and grows, up to `ring_cap_bytes` (the record part of
/// [`trace_cap_bytes`](crate::trace_cap_bytes)), only when its records are
/// wider.
///
/// The context table holds only contexts its own records named and is
/// compacted, and the records re-encoded, before it outgrows
/// `context_limit` of the capacity.
#[derive(Clone, Default)]
pub struct TraceRing {
    /// Encoded records: `head..tail`, or `head..wrap` then `0..tail` while
    /// the writer has wrapped (`tail < head`). A record that ends at `wrap`
    /// is followed at 0: `wrap` is within a span of the buffer's end, so
    /// the writer wraps behind any record that ends there.
    bytes: Vec<u8>,
    head: usize,
    tail: usize,
    wrap: usize,
    /// A record may start at or below this without a look at `head`: it
    /// only moves up as records are evicted.
    open_until: usize,
    len: usize,
    /// The newest record's time and seq, and the newest trace's counter,
    /// which the next record's deltas start from.
    last_at: u64,
    last_seq: u64,
    last_counter: u32,
    /// The node whose recorder this is: a trace it minted costs no origin.
    node: u32,
    contexts: Vec<Context>,
    capacity: usize,
    evicted: u64,
}

impl TraceRing {
    /// An empty ring holding at most `capacity` events.
    pub fn new(capacity: usize) -> TraceRing {
        TraceRing::of_node(NodeId(0), capacity)
    }

    /// An empty ring for `node`'s recorder.
    fn of_node(node: NodeId, capacity: usize) -> TraceRing {
        let reserved = capacity.min(4096) * RESERVED_RECORD_BYTES + 2 * RECORD_SPAN;
        let size = if capacity == 0 { 0 } else { reserved.min(ring_cap_bytes(capacity)) };
        TraceRing { bytes: vec![0; size], node: node.0, capacity, ..TraceRing::default() }
    }

    /// Appends `ev`, evicting the oldest record if the ring is full.
    pub fn push(&mut self, ev: TraceEvent) {
        let record = Record {
            at: ev.at.0,
            trace: ev.trace.0,
            seq: ev.seq,
            peer: ev.peer,
            kind: ev.kind,
            ctx: 0,
        };
        self.write(record, ev.incarnation, ev.name.as_ref());
    }

    /// Appends `record` under the context (`incarnation`, `name`), evicting
    /// the oldest record if the ring is full.
    #[inline]
    fn write(&mut self, mut record: Record, incarnation: u64, name: Option<&Name>) {
        if self.capacity == 0 {
            return;
        }
        if self.len == self.capacity {
            self.evict_oldest();
        }
        record.ctx = self.intern(incarnation, name);
        self.append(&record);
    }

    /// Encodes `record` behind the newest one.
    #[inline(always)]
    fn append(&mut self, record: &Record) {
        let at = self.room();
        self.tail = self.encode(at, record);
        self.len += 1;
        self.last_at = record.at;
        self.last_seq = record.seq;
        if record.trace != 0 {
            self.last_counter = record.trace as u32;
        }
    }

    /// Steps over the oldest record.
    #[inline]
    fn evict_oldest(&mut self) {
        self.head = self.step(self.head + self.width(self.head));
        self.len -= 1;
        self.evicted += 1;
        if self.len == 0 {
            self.clear();
        }
    }

    /// Where a record ending at `end` is followed by the next one: at 0
    /// once the records above the writer's wrap are done.
    #[inline]
    fn step(&self, end: usize) -> usize {
        if end == self.wrap {
            0
        } else {
            end
        }
    }

    /// Where the next record starts: [`RECORD_SPAN`] free bytes behind the
    /// newest record, or at 0 when the end of the buffer is nearer than
    /// that. The buffer grows when neither place has room.
    #[inline(always)]
    fn room(&mut self) -> usize {
        if self.tail <= self.open_until {
            self.tail
        } else {
            self.make_room()
        }
    }

    /// [`room`](Self::room) past `open_until`: finds the place and how far
    /// the writer may go from there before it looks again.
    #[cold]
    fn make_room(&mut self) -> usize {
        loop {
            if self.tail < self.head {
                if self.tail + RECORD_SPAN <= self.head {
                    self.open_until = self.head - RECORD_SPAN;
                    return self.tail;
                }
            } else if self.tail + RECORD_SPAN <= self.bytes.len() {
                self.open_until = self.bytes.len() - RECORD_SPAN;
                return self.tail;
            } else if RECORD_SPAN <= self.head {
                self.wrap = self.tail;
                self.tail = 0;
                self.open_until = self.head - RECORD_SPAN;
                return 0;
            }
            self.grow();
        }
    }

    /// Forgets every record: the next one starts at 0.
    fn clear(&mut self) {
        (self.head, self.tail, self.wrap, self.len) = (0, 0, 0, 0);
        self.open_until = self.bytes.len().saturating_sub(RECORD_SPAN);
    }

    /// Doubles the buffer, up to [`ring_cap_bytes`], and moves the held
    /// records to its start.
    #[cold]
    fn grow(&mut self) {
        let size = (2 * self.bytes.len()).min(ring_cap_bytes(self.capacity));
        assert!(size > self.bytes.len(), "a ring at its cap always has room");
        let mut bytes = vec![0; size];
        let (upper, lower) = if self.tail < self.head {
            (self.head..self.wrap, 0..self.tail)
        } else {
            (self.head..self.tail, 0..0)
        };
        let split = upper.len();
        bytes[..split].copy_from_slice(&self.bytes[upper]);
        bytes[split..split + lower.len()].copy_from_slice(&self.bytes[lower.clone()]);
        self.bytes = bytes;
        (self.head, self.tail, self.wrap) = (0, split + lower.len(), 0);
    }

    /// Writes `record` at `at` and returns where it ends.
    #[inline(always)]
    fn encode(&mut self, at: usize, record: &Record) -> usize {
        let origin = (record.trace >> 32) as u32;
        let traced = record.trace != 0;
        let other = traced && origin != self.node;
        let at_delta = zigzag(record.at.wrapping_sub(self.last_at));
        let seq_delta = zigzag(record.seq.wrapping_sub(self.last_seq));
        let counter_delta = (record.trace as u32).wrapping_sub(self.last_counter);
        let out = &mut self.bytes[at..at + RECORD_SPAN];
        let flag = |set: bool, bit: u8| if set { bit } else { 0 };
        let tag = record.kind as u8
            | flag(traced, TRACED)
            | flag(other, FROM_OTHER)
            | flag(record.peer.is_some(), HAS_PEER);
        let mut end = 2;
        if at_delta != 0 {
            end += put_varint(out, end, at_delta);
        }
        if seq_delta != 0 {
            end += put_varint(out, end, seq_delta);
        }
        if traced {
            end += put_varint(out, end, u64::from(zigzag32(counter_delta)));
        }
        if other {
            end += put_varint(out, end, u64::from(origin));
        }
        if let Some(peer) = record.peer {
            end += put_varint(out, end, u64::from(peer.0));
        }
        end += put_varint(out, end, u64::from(record.ctx));
        let first = end as u8 | flag(at_delta == 0, SAME_AT) | flag(seq_delta == 0, SAME_SEQ);
        out[..2].copy_from_slice(&[first, tag]);
        at + end
    }

    /// Bytes of the record at `at`, from its first byte.
    #[inline(always)]
    fn width(&self, at: usize) -> usize {
        usize::from(self.bytes[at] & WIDTH_BITS)
    }

    /// The record at `at`, its time and seq still the deltas from the
    /// record before it and its trace counter the delta from the trace
    /// before it, and whether it has a trace.
    fn decode(&self, at: usize) -> (Record, bool) {
        let bytes = &self.bytes[..];
        let (first, tag) = (bytes[at], bytes[at + 1]);
        let mut end = at + 2;
        let mut field = |present: bool| {
            if !present {
                return 0;
            }
            let (v, n) = get_varint(bytes, end);
            end += n;
            v
        };
        let at_delta = field(first & SAME_AT == 0);
        let seq_delta = field(first & SAME_SEQ == 0);
        let counter = unzigzag(field(tag & TRACED != 0)) as u32;
        let origin = if tag & FROM_OTHER != 0 { field(true) as u32 } else { self.node };
        let peer = (tag & HAS_PEER != 0).then(|| NodeId(field(true) as u32));
        let ctx = field(true) as u16;
        let record = Record {
            at: unzigzag(at_delta),
            trace: if tag & TRACED == 0 { 0 } else { u64::from(origin) << 32 | u64::from(counter) },
            seq: unzigzag(seq_delta),
            peer,
            kind: KINDS[usize::from(tag & 31)],
            ctx,
        };
        (record, tag & TRACED != 0)
    }

    /// The held records, oldest first, with their time, seq and trace
    /// counter made whole: the newest values less every held delta give
    /// the point the oldest one's delta starts from.
    fn records(&self) -> impl Iterator<Item = Record> + '_ {
        let deltas = || {
            let mut at = self.head;
            (0..self.len).map(move |_| {
                let decoded = self.decode(at);
                at = self.step(at + self.width(at));
                decoded
            })
        };
        let newest = (self.last_at, self.last_seq, self.last_counter);
        let (mut at, mut seq, mut counter) =
            deltas().fold(newest, |(at, seq, counter), (r, traced)| {
                let counter = if traced { counter.wrapping_sub(r.trace as u32) } else { counter };
                (at.wrapping_sub(r.at), seq.wrapping_sub(r.seq), counter)
            });
        deltas().map(move |(mut record, traced)| {
            at = at.wrapping_add(record.at);
            seq = seq.wrapping_add(record.seq);
            (record.at, record.seq) = (at, seq);
            if traced {
                counter = counter.wrapping_add(record.trace as u32);
                record.trace = record.trace >> 32 << 32 | u64::from(counter);
            }
            record
        })
    }

    /// The index of context (`incarnation`, `name`), added if new. Names
    /// compare by value, so equal names in distinct allocations share one
    /// entry; the name is cloned only when its entry is added. A name is
    /// first looked for as the very allocation an entry holds, which is
    /// how a channel records, and compared byte by byte only if none does.
    #[inline]
    fn intern(&mut self, incarnation: u64, name: Option<&Name>) -> u16 {
        let key = name.map(|n| n.as_str().as_ptr());
        let same =
            |(i, n): &Context| *i == incarnation && n.as_ref().map(|n| n.as_str().as_ptr()) == key;
        if let Some(ctx) = self.contexts.iter().rposition(same) {
            return ctx as u16;
        }
        let equal = |(i, n): &Context| *i == incarnation && n.as_ref() == name;
        if let Some(ctx) = self.contexts.iter().rposition(equal) {
            return ctx as u16;
        }
        self.add_context(incarnation, name)
    }

    /// Adds context (`incarnation`, `name`) to the table, compacting it
    /// first if it is full, and returns its index.
    #[cold]
    fn add_context(&mut self, incarnation: u64, name: Option<&Name>) -> u16 {
        let limit = context_limit(self.capacity);
        if self.contexts.len() >= limit {
            // Only a ring of more than `u16::MAX` records can hold that
            // many distinct contexts: it gives up its oldest records early
            // rather than show one under another's context.
            for _ in limit..=self.len {
                self.evict_oldest();
            }
            self.compact();
        }
        if self.contexts.len() == self.contexts.capacity() {
            let len = self.contexts.len();
            self.contexts.reserve_exact(len.max(4).min(limit - len));
        }
        self.contexts.push((incarnation, name.cloned()));
        (self.contexts.len() - 1) as u16
    }

    /// Rebuilds the context table from the held records and re-encodes
    /// them: a context no held record names is dropped, the rest keep
    /// their order.
    fn compact(&mut self) {
        const GONE: u16 = u16::MAX;
        let records: Vec<Record> = self.records().collect();
        let mut moved = vec![GONE; self.contexts.len()];
        for record in &records {
            moved[usize::from(record.ctx)] = 0;
        }
        let mut kept = 0;
        for to in moved.iter_mut().filter(|to| **to != GONE) {
            *to = kept;
            kept += 1;
        }
        let old = std::mem::replace(&mut self.contexts, Vec::with_capacity(usize::from(kept)));
        let held = old.into_iter().zip(&moved).filter(|(_, to)| **to != GONE);
        self.contexts.extend(held.map(|(context, _)| context));
        self.clear();
        for mut record in records {
            record.ctx = moved[usize::from(record.ctx)];
            self.append(&record);
        }
    }

    /// The event `record` stands for.
    fn event(&self, record: &Record) -> TraceEvent {
        let (incarnation, name) = &self.contexts[usize::from(record.ctx)];
        TraceEvent {
            at: Micros(record.at),
            incarnation: *incarnation,
            kind: record.kind,
            trace: TraceId(record.trace),
            peer: record.peer,
            seq: record.seq,
            name: name.clone(),
        }
    }

    /// Records currently held, oldest first.
    pub fn events(&self) -> impl Iterator<Item = TraceEvent> + '_ {
        self.records().map(|record| self.event(&record))
    }

    /// Records currently held.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing has been recorded (or everything evicted).
    pub fn is_empty(&self) -> bool {
        self.len == 0
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

    /// Bytes of record and context-table storage: capacity, not contents.
    /// At most [`trace_cap_bytes`](crate::trace_cap_bytes)`(capacity)`.
    pub fn bytes(&self) -> usize {
        self.bytes.capacity() + self.contexts.capacity() * CONTEXT_BYTES
    }

    /// Absorbs a ring stashed across a crash/restart: the stashed
    /// history is replayed into this ring (oldest first), so the new
    /// incarnation's recorder starts with its predecessor's tail and
    /// this ring's own capacity still bounds the total. Only the records
    /// that stay held are re-interned and re-encoded.
    pub fn adopt(&mut self, older: TraceRing) {
        let mut merged = TraceRing::of_node(NodeId(self.node), self.capacity);
        merged.evicted = self.evicted + older.evicted;
        if self.capacity > 0 {
            let overflow = (older.len() + self.len()).saturating_sub(self.capacity);
            merged.evicted += overflow as u64;
            let held = older.records().map(|r| (&older, r));
            let own = self.records().map(|r| (&*self, r));
            for (ring, record) in held.chain(own).skip(overflow) {
                let (incarnation, name) = &ring.contexts[usize::from(record.ctx)];
                merged.write(record, *incarnation, name.as_ref());
            }
        }
        *self = merged;
    }
}

impl PartialEq for TraceRing {
    /// Same capacity, same eviction count and the same events: how each
    /// ring laid out its bytes and its context table does not matter.
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
            ring: TraceRing::of_node(node, capacity),
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
        let record = Record { at: at.0, trace: trace.0, seq, peer, kind, ctx: 0 };
        self.ring.write(record, self.incarnation, name);
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
        std::mem::replace(&mut self.ring, TraceRing::of_node(self.node, capacity))
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
        for record in ring.records().filter(|record| record.trace == trace.0) {
            out.push((*node, ring.event(&record)));
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
    use std::collections::VecDeque;

    use proptest::prelude::*;

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

    /// Every held record's width, oldest first.
    fn widths(ring: &TraceRing) -> Vec<usize> {
        let mut at = ring.head;
        (0..ring.len)
            .map(|_| {
                let width = ring.width(at);
                at = ring.step(at + width);
                width
            })
            .collect()
    }

    /// `agree`, plus the codec's own bounds: no record wider than
    /// [`RECORD_MAX_BYTES`], no buffer past [`ring_cap_bytes`].
    fn agree_within_bounds(ring: &TraceRing, model: &Model, at: &str) {
        agree(ring, model, at);
        let widths = widths(ring);
        assert!(widths.iter().all(|w| (3..=RECORD_MAX_BYTES).contains(w)), "{at}: {widths:?}");
        assert!(ring.bytes.len() <= ring_cap_bytes(ring.capacity), "{at}: {}", ring.bytes.len());
        assert!(ring.bytes() <= crate::trace_cap_bytes(ring.capacity), "{at}: {}", ring.bytes());
    }

    /// A value at a varint's edges: 0, a power of two or one below it,
    /// `u64::MAX`, or anything.
    fn edgy() -> impl Strategy<Value = u64> {
        prop_oneof![
            Just(0u64),
            Just(u64::MAX),
            (0..64u32).prop_map(|b| 1u64 << b),
            (1..=64u32).prop_map(|b| u64::MAX >> (64 - b)),
            any::<u64>(),
        ]
    }

    /// One step of a recorder's life: a record, a crash or a restart.
    #[derive(Debug, Clone)]
    enum Step {
        Record {
            at: u64,
            kind: usize,
            /// 0: no trace; 1: minted by the peer (by this node if there is
            /// none); 2: by this node; 3: by `other`.
            origin: u8,
            counter: u32,
            other: u32,
            peer: Option<u32>,
            seq: u64,
            /// 0: no name; else one of two copies of a name of the pool.
            name: usize,
            copy: usize,
            older_life: bool,
        },
        Crash,
        Restart,
    }

    const POOL: usize = 150;

    fn step() -> impl Strategy<Value = Step> {
        let small = || prop_oneof![Just(0u32), Just(u32::MAX), any::<u32>(), 0..300u32];
        let peer = prop_oneof![Just(None), Just(Some(0)), small().prop_map(Some)];
        let record = (
            (edgy(), 0..KINDS.len(), 0u8..4, small(), small()),
            (peer, edgy(), 0..=POOL, 0..2usize, any::<bool>()),
        )
            .prop_map(
                |((at, kind, origin, counter, other), (peer, seq, name, copy, older))| {
                    Step::Record {
                        at,
                        kind,
                        origin,
                        counter,
                        other,
                        peer,
                        seq,
                        name,
                        copy,
                        older_life: older,
                    }
                },
            );
        (0u8..32, record).prop_map(|(roll, record)| match roll {
            0 => Step::Crash,
            1 => Step::Restart,
            _ => record,
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Hostile records against the ring of whole events, through the
        /// codec's every path: `u64::MAX` and backward-running times and
        /// seqs (deltas of every width, the 9-byte form among them),
        /// `Some(NodeId(0))` against `None`, origins that are the peer, the
        /// ring's node (0 and `u32::MAX` among them) or neither, a counter
        /// of 0 under a non-zero origin, all 20 kinds, records that find
        /// too little room before the buffer's end and start at 0, buffers
        /// that grow, a 150-name pool that fills and compacts the context
        /// table, and crashes and restarts that take the ring and adopt it
        /// back. After every step the events agree and no record or buffer
        /// passes its bound.
        #[test]
        fn hostile_records_round_trip_through_the_codec(
            node in prop_oneof![Just(0u32), Just(u32::MAX), any::<u32>()],
            capacity in prop_oneof![1..48usize, Just(300usize)],
            steps in proptest::collection::vec(step(), 1..400),
        ) {
            let pool: Vec<[Name; 2]> = (0..POOL)
                .map(|i| {
                    let name = format!("hostile/{i}");
                    [Name::new(&name).unwrap(), Name::new(&name).unwrap()]
                })
                .collect();
            let mut tracer = Tracer::new(NodeId(node), capacity);
            let mut live = Model::new(capacity);
            let mut stash: Option<(TraceRing, Model)> = None;
            let mut incarnation = 1u64;
            for (i, step) in steps.into_iter().enumerate() {
                let at = format!("node {node}, capacity {capacity}, step {i}: {step:?}");
                let marker = |kind, incarnation| TraceEvent {
                    at: Micros(i as u64),
                    incarnation,
                    kind,
                    trace: TraceId::NONE,
                    peer: None,
                    seq: 0,
                    name: None,
                };
                match step {
                    Step::Crash => {
                        let mut ring = tracer.take_ring();
                        let mut model = std::mem::replace(&mut live, Model::new(capacity));
                        ring.push(marker(TraceKind::NodeCrash, incarnation));
                        model.push(marker(TraceKind::NodeCrash, incarnation));
                        if let Some((older, older_model)) = stash.take() {
                            ring.adopt(older);
                            model.adopt(older_model);
                        }
                        agree_within_bounds(&ring, &model, &at);
                        stash = Some((ring, model));
                    }
                    Step::Restart => {
                        let (mut older, mut model) = stash
                            .take()
                            .unwrap_or_else(|| (TraceRing::new(capacity), Model::new(capacity)));
                        incarnation += 1;
                        older.push(marker(TraceKind::NodeRestart, incarnation));
                        model.push(marker(TraceKind::NodeRestart, incarnation));
                        tracer.set_incarnation(incarnation);
                        tracer.adopt_ring(older);
                        live.adopt(model);
                    }
                    Step::Record { at: time, kind, origin, counter, other, peer, seq, name, copy, older_life } => {
                        let recorded = if older_life { incarnation.max(2) - 1 } else { incarnation };
                        tracer.set_incarnation(recorded);
                        let peer = peer.map(NodeId);
                        let origin = match origin {
                            0 => None,
                            1 => Some(peer.map_or(node, |p| p.0)),
                            2 => Some(node),
                            _ => Some(other),
                        };
                        let trace = origin
                            .map_or(TraceId::NONE, |o| TraceId(u64::from(o) << 32 | u64::from(counter)));
                        let name = (name > 0).then(|| &pool[name - 1][copy]);
                        let ev = TraceEvent {
                            at: Micros(time),
                            incarnation: recorded,
                            kind: KINDS[kind],
                            trace,
                            peer,
                            seq,
                            name: name.cloned(),
                        };
                        tracer.record(ev.at, ev.kind, ev.trace, ev.peer, ev.seq, name);
                        live.push(ev);
                    }
                }
                agree_within_bounds(tracer.ring(), &live, &at);
            }
        }
    }

    /// A record that finds fewer than `RECORD_SPAN` bytes before the
    /// buffer's end starts at 0, never across the end; readers follow it
    /// there, and eviction steps back to the top.
    #[test]
    fn a_record_that_would_pass_the_end_starts_at_zero() {
        let mut ring = TraceRing::new(4);
        let mut model = Model::new(4);
        let mut wrapped = 0;
        for i in 0..200u64 {
            let ev = TraceEvent {
                at: Micros(i * i * 977),
                incarnation: 1,
                kind: KINDS[i as usize % KINDS.len()],
                trace: TraceId::new(NodeId(i as u32), (i * 7_919) as u32),
                peer: (i % 3 != 0).then_some(NodeId(i as u32 * 1_000)),
                seq: i.wrapping_mul(0x9E37_79B9_7F4A_7C15),
                name: None,
            };
            ring.push(ev.clone());
            model.push(ev);
            if ring.tail < ring.head {
                wrapped += 1;
                assert!(ring.wrap + RECORD_SPAN > ring.bytes.len(), "wrapped with room left");
            }
            agree_within_bounds(&ring, &model, &format!("record {i}"));
        }
        assert!(wrapped > 20, "the writer wrapped {wrapped} times");
    }

    /// Records wider than the reserve grow the buffer, by doubling, up to
    /// its cap and no further, and stay whole across each growth.
    #[test]
    fn wide_records_grow_the_buffer_to_its_cap() {
        let mut ring = TraceRing::new(64);
        let mut model = Model::new(64);
        let reserved = ring.bytes.len();
        for i in 0..1_000u64 {
            // Deltas of ±2^63: the widest zigzag, the 9-byte form.
            let wide = if i % 2 == 0 { 1 << 63 } else { 0 };
            let ev = TraceEvent {
                at: Micros(wide ^ i),
                incarnation: 1,
                kind: TraceKind::CallReply,
                trace: TraceId(u64::MAX - i),
                peer: Some(NodeId(u32::MAX)),
                seq: (wide ^ 1 << 63) + i,
                name: None,
            };
            ring.push(ev.clone());
            model.push(ev);
            agree_within_bounds(&ring, &model, &format!("record {i}"));
        }
        assert!(ring.bytes.len() > 2 * reserved, "{} of {reserved}", ring.bytes.len());
        assert_eq!(ring.bytes.len(), ring_cap_bytes(64).min(4 * reserved));
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
