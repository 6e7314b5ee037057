//! Bulk file distribution, loosely based on Starburst MFTP (paper §4.4).
//!
//! Three phases per revision:
//!
//! 1. **announce** — the publisher multicasts a [`Message::FileAnnounce`];
//!    interested nodes reply with [`Message::FileSubscribe`].
//! 2. **transfer** — the publisher multicasts numbered
//!    [`Message::FileChunk`]s; receivers fill a [`ChunkBitmap`].
//! 3. **completion** — the publisher multicasts [`Message::FileQuery`];
//!    complete receivers answer [`Message::FileAck`] (and are removed from
//!    the subscriber list), incomplete ones answer [`Message::FileNack`]
//!    with a *compressed run list* of missing chunks. The publisher then
//!    starts a new transfer round containing only the requested chunks, and
//!    the process iterates "until the subscribers list is empty".
//!
//! Phases overlap per subscriber: a node can subscribe mid-transfer (late
//! join), collect the tail of the current round, and NACK the head during
//! completion. Revision bumps restart reception under the policy chosen by
//! the receiver (paper: receivers "can decide if they go on with the
//! transfer in progress, they start a new transfer with the new revision or
//! both").

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use bytes::Bytes;

use marea_presentation::Name;

use crate::error::ProtocolError;
use crate::ids::{GroupId, NodeId, TransferId};
use crate::messages::Message;

/// Maximum number of `(start, len)` runs carried in one NACK. If more chunks
/// are missing than fit, the NACK covers the earliest runs; later query
/// rounds collect the rest.
pub const MAX_NACK_RUNS: usize = 256;

/// Default chunk payload size in bytes.
pub const DEFAULT_CHUNK_SIZE: u32 = 1024;

/// A fixed-size bitmap tracking which chunks of a revision have arrived.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkBitmap {
    words: Vec<u64>,
    total: u32,
    set_count: u32,
}

impl ChunkBitmap {
    /// Creates an empty bitmap for `total` chunks.
    pub fn new(total: u32) -> Self {
        ChunkBitmap { words: vec![0; (total as usize).div_ceil(64)], total, set_count: 0 }
    }

    /// Total chunk count.
    pub fn total(&self) -> u32 {
        self.total
    }

    /// Chunks received so far.
    pub fn set_count(&self) -> u32 {
        self.set_count
    }

    /// `true` once every chunk is present.
    pub fn is_complete(&self) -> bool {
        self.set_count == self.total
    }

    /// Marks chunk `index` received; returns `true` if it was new.
    ///
    /// # Panics
    ///
    /// Panics if `index >= total` — callers validate indices against the
    /// announced chunk count first.
    pub fn set(&mut self, index: u32) -> bool {
        assert!(index < self.total, "chunk index {index} out of range {}", self.total);
        let (w, b) = (index as usize / 64, index % 64);
        let mask = 1u64 << b;
        if self.words[w] & mask != 0 {
            return false;
        }
        self.words[w] |= mask;
        self.set_count += 1;
        true
    }

    /// Marks chunk `index` missing again; returns `true` if it was set.
    ///
    /// # Panics
    ///
    /// Panics if `index >= total`, like [`ChunkBitmap::set`].
    pub fn clear(&mut self, index: u32) -> bool {
        assert!(index < self.total, "chunk index {index} out of range {}", self.total);
        let (w, b) = (index as usize / 64, index % 64);
        let mask = 1u64 << b;
        if self.words[w] & mask == 0 {
            return false;
        }
        self.words[w] &= !mask;
        self.set_count -= 1;
        true
    }

    /// `true` if chunk `index` has been received.
    pub fn contains(&self, index: u32) -> bool {
        if index >= self.total {
            return false;
        }
        self.words[index as usize / 64] & (1u64 << (index % 64)) != 0
    }

    /// Missing chunks as compressed `(start, len)` runs, at most `max_runs`
    /// entries (earliest first).
    pub fn missing_runs(&self, max_runs: usize) -> Vec<(u32, u32)> {
        let mut runs = Vec::new();
        let mut i = 0u32;
        while i < self.total && runs.len() < max_runs {
            if self.contains(i) {
                i += 1;
                continue;
            }
            let start = i;
            while i < self.total && !self.contains(i) {
                i += 1;
            }
            runs.push((start, i - start));
        }
        runs
    }
}

/// Counters exposed by the sender for benchmarking (experiment C4).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SenderStats {
    /// Data chunks transmitted (including repair rounds).
    pub chunks_sent: u64,
    /// Chunk payload bytes transmitted.
    pub chunk_bytes: u64,
    /// Completion-query rounds executed.
    pub rounds: u32,
    /// Subscribers served to completion.
    pub completed: u32,
    /// Subscribers evicted for unresponsiveness.
    pub evicted: u32,
}

/// Publisher-side state machine for one resource transfer session.
///
/// The sender is poll-driven and clock-free: the container asks for the next
/// burst of chunks ([`FileSender::next_chunks`]) at its own rate, then
/// enters the completion phase ([`FileSender::query`]) when the round
/// drains, feeding back ACK/NACK responses.
#[derive(Debug)]
pub struct FileSender {
    transfer: TransferId,
    resource: Name,
    revision: u32,
    data: Bytes,
    chunk_size: u32,
    total_chunks: u32,
    group: GroupId,
    subscribers: BTreeSet<NodeId>,
    /// Chunk indices queued for the current round, in sending order.
    queue: VecDeque<u32>,
    /// The same indices as a set, so none is queued twice.
    queued: ChunkBitmap,
    /// Rounds a subscriber has survived without acking, for eviction.
    stale_rounds: BTreeMap<NodeId, u32>,
    max_stale_rounds: u32,
    stats: SenderStats,
}

impl FileSender {
    /// Creates a sender for `data` and returns it; call
    /// [`FileSender::announce`] to obtain the kickoff message.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::BadTransfer`] when `chunk_size` is zero or the file
    /// needs more than `u32::MAX` chunks.
    pub fn new(
        transfer: TransferId,
        resource: Name,
        revision: u32,
        data: Bytes,
        chunk_size: u32,
        group: GroupId,
    ) -> Result<Self, ProtocolError> {
        if chunk_size == 0 {
            return Err(ProtocolError::BadTransfer("chunk size of zero"));
        }
        let total = data.len().div_ceil(chunk_size as usize).max(1);
        let total_chunks =
            u32::try_from(total).map_err(|_| ProtocolError::BadTransfer("too many chunks"))?;
        Ok(FileSender {
            transfer,
            resource,
            revision,
            data,
            chunk_size,
            total_chunks,
            group,
            subscribers: BTreeSet::new(),
            queue: VecDeque::new(),
            queued: ChunkBitmap::new(total_chunks),
            stale_rounds: BTreeMap::new(),
            max_stale_rounds: 8,
            stats: SenderStats::default(),
        })
    }

    /// Transfer session id.
    pub fn transfer(&self) -> TransferId {
        self.transfer
    }

    /// Current revision.
    pub fn revision(&self) -> u32 {
        self.revision
    }

    /// Total chunks in the current revision.
    pub fn total_chunks(&self) -> u32 {
        self.total_chunks
    }

    /// The payload of the current revision (cheap clone; used by the
    /// container's same-node bypass, §4.4).
    pub fn data(&self) -> Bytes {
        self.data.clone()
    }

    /// Active (incomplete) subscribers.
    pub fn subscriber_count(&self) -> usize {
        self.subscribers.len()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> SenderStats {
        self.stats
    }

    /// The announce message for the current revision (multicast; also resent
    /// at each round start so late joiners hear it).
    pub fn announce(&self) -> Message {
        Message::FileAnnounce {
            transfer: self.transfer,
            resource: self.resource.clone(),
            revision: self.revision,
            size: self.data.len() as u64,
            chunk_size: self.chunk_size,
            group: self.group,
        }
    }

    /// Registers a subscriber. Joining mid-round is allowed (late join);
    /// the node catches the remaining chunks and NACKs the head at the next
    /// completion query. Queues a full send on first subscriber.
    pub fn on_subscribe(&mut self, node: NodeId) {
        if self.subscribers.insert(node) {
            self.stale_rounds.insert(node, 0);
            if self.subscribers.len() == 1 && self.queue.is_empty() {
                self.queue_all();
            }
        }
    }

    fn queue_all(&mut self) {
        for i in 0..self.total_chunks {
            self.enqueue(i);
        }
    }

    fn enqueue(&mut self, index: u32) {
        if self.queued.set(index) {
            self.queue.push_back(index);
        }
    }

    /// Pops up to `budget` chunk messages for transmission. An empty result
    /// with active subscribers means the round is over: send
    /// [`FileSender::query`].
    pub fn next_chunks(&mut self, budget: usize) -> Vec<Message> {
        let mut out = Vec::new();
        self.next_chunks_into(budget, &mut out);
        out
    }

    /// [`next_chunks`](Self::next_chunks), appended to `out`: up to
    /// `budget` chunk messages, room for all of them reserved at once.
    pub fn next_chunks_into(&mut self, budget: usize, out: &mut Vec<Message>) {
        out.reserve(budget.min(self.queue.len()));
        for _ in 0..budget {
            let Some(index) = self.queue.pop_front() else { break };
            self.queued.clear(index);
            let start = index as usize * self.chunk_size as usize;
            let end = usize::min(start + self.chunk_size as usize, self.data.len());
            let payload = self.data.slice(start..end);
            self.stats.chunks_sent += 1;
            self.stats.chunk_bytes += payload.len() as u64;
            out.push(Message::FileChunk {
                transfer: self.transfer,
                revision: self.revision,
                index,
                payload,
            });
        }
    }

    /// `true` while chunks remain queued in the current round.
    pub fn has_pending_chunks(&self) -> bool {
        !self.queue.is_empty()
    }

    /// Starts a completion round: bumps per-subscriber staleness, evicts
    /// unresponsive nodes, and returns the query message (multicast).
    pub fn query(&mut self) -> Message {
        self.stats.rounds += 1;
        let mut evicted = Vec::new();
        for (&node, rounds) in self.stale_rounds.iter_mut() {
            *rounds += 1;
            if *rounds > self.max_stale_rounds {
                evicted.push(node);
            }
        }
        for node in evicted {
            self.subscribers.remove(&node);
            self.stale_rounds.remove(&node);
            self.stats.evicted += 1;
        }
        Message::FileQuery { transfer: self.transfer, revision: self.revision }
    }

    /// Processes a subscriber ACK: the node holds every chunk and leaves the
    /// subscriber list ("it removes finished receivers from its subscribers
    /// list").
    pub fn on_ack(&mut self, node: NodeId, revision: u32) {
        if revision != self.revision {
            return;
        }
        if self.subscribers.remove(&node) {
            self.stale_rounds.remove(&node);
            self.stats.completed += 1;
        }
    }

    /// Processes a subscriber NACK: queues the missing runs for the next
    /// transfer round.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::BadTransfer`] when a run exceeds the chunk range.
    pub fn on_nack(
        &mut self,
        node: NodeId,
        revision: u32,
        runs: &[(u32, u32)],
    ) -> Result<(), ProtocolError> {
        if revision != self.revision {
            return Ok(()); // stale response from a previous revision
        }
        if !self.subscribers.contains(&node) {
            // NACK from a node we never saw subscribe (e.g. its subscribe
            // was lost but it heard the multicast chunks): adopt it.
            self.on_subscribe(node);
        }
        self.stale_rounds.insert(node, 0); // responding = alive
        for &(start, len) in runs {
            let end = start.checked_add(len).ok_or(ProtocolError::BadTransfer("run overflow"))?;
            if end > self.total_chunks || len == 0 {
                return Err(ProtocolError::BadTransfer("nack run out of range"));
            }
            for i in start..end {
                self.enqueue(i);
            }
        }
        Ok(())
    }

    /// `true` once every subscriber has acknowledged the current revision.
    pub fn is_complete(&self) -> bool {
        self.subscribers.is_empty()
    }

    /// Replaces the payload with a new revision: increments the revision
    /// number, clears the queue, re-queues everything and returns the new
    /// announce message. Subscribers are kept — they will be notified via
    /// the announce and restart under their own policy.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::BadTransfer`] if the new payload needs too many
    /// chunks.
    pub fn bump_revision(&mut self, data: Bytes) -> Result<Message, ProtocolError> {
        let total = data.len().div_ceil(self.chunk_size as usize).max(1);
        let total_chunks =
            u32::try_from(total).map_err(|_| ProtocolError::BadTransfer("too many chunks"))?;
        self.revision += 1;
        self.data = data;
        for index in self.queue.drain(..) {
            self.queued.clear(index);
        }
        if total_chunks != self.total_chunks {
            self.queued = ChunkBitmap::new(total_chunks);
        }
        self.total_chunks = total_chunks;
        for rounds in self.stale_rounds.values_mut() {
            *rounds = 0;
        }
        if !self.subscribers.is_empty() {
            self.queue_all();
        }
        Ok(self.announce())
    }
}

/// What a receiver does when the publisher announces a newer revision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RevisionPolicy {
    /// Abandon the old revision and restart on the new one (default).
    #[default]
    Restart,
    /// Finish the revision in progress; ignore newer announces until done.
    FinishCurrent,
}

/// Outcome of feeding an announce to a receiver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnnounceOutcome {
    /// The announce matches the revision in progress (or repeats it).
    Unchanged,
    /// The receiver restarted on a newer revision.
    Restarted,
    /// A newer revision exists but policy keeps the current one.
    DeferredNewRevision,
}

/// Receiver-side state machine for one transfer session.
#[derive(Debug)]
pub struct FileReceiver {
    transfer: TransferId,
    resource: Name,
    node: NodeId,
    revision: u32,
    size: u64,
    chunk_size: u32,
    bitmap: ChunkBitmap,
    data: Vec<u8>,
    policy: RevisionPolicy,
    pending_revision: Option<Message>,
}

impl FileReceiver {
    /// Creates a receiver from a heard announce; pair with the returned
    /// [`Message::FileSubscribe`] sent back to the publisher.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::BadTransfer`] on inconsistent announce metadata.
    pub fn from_announce(
        msg: &Message,
        node: NodeId,
        policy: RevisionPolicy,
    ) -> Result<(Self, Message), ProtocolError> {
        let Message::FileAnnounce { transfer, resource, revision, size, chunk_size, .. } = msg
        else {
            return Err(ProtocolError::BadTransfer("not an announce"));
        };
        if *chunk_size == 0 {
            return Err(ProtocolError::BadTransfer("chunk size of zero"));
        }
        let total = size.div_ceil(u64::from(*chunk_size)).max(1);
        let total_chunks =
            u32::try_from(total).map_err(|_| ProtocolError::BadTransfer("too many chunks"))?;
        if *size > crate::frame::MAX_FRAME_PAYLOAD as u64 * 1024 {
            return Err(ProtocolError::BadTransfer("file too large"));
        }
        let rx = FileReceiver {
            transfer: *transfer,
            resource: resource.clone(),
            node,
            revision: *revision,
            size: *size,
            chunk_size: *chunk_size,
            bitmap: ChunkBitmap::new(total_chunks),
            data: vec![0; *size as usize],
            policy,
            pending_revision: None,
        };
        let sub = Message::FileSubscribe { transfer: *transfer, subscriber: node };
        Ok((rx, sub))
    }

    /// Transfer session id.
    pub fn transfer(&self) -> TransferId {
        self.transfer
    }

    /// Resource name.
    pub fn resource(&self) -> &Name {
        &self.resource
    }

    /// Revision currently being received.
    pub fn revision(&self) -> u32 {
        self.revision
    }

    /// Reception progress as `(received, total)` chunks.
    pub fn progress(&self) -> (u32, u32) {
        (self.bitmap.set_count(), self.bitmap.total())
    }

    /// `true` once every chunk of the current revision is present.
    pub fn is_complete(&self) -> bool {
        self.bitmap.is_complete()
    }

    /// Consumes the receiver, returning the file content.
    ///
    /// # Panics
    ///
    /// Panics when called before completion; guard with
    /// [`FileReceiver::is_complete`].
    pub fn into_data(self) -> Bytes {
        assert!(self.bitmap.is_complete(), "into_data before completion");
        Bytes::from(self.data)
    }

    /// Processes a chunk; returns `true` when this chunk completed the file.
    ///
    /// Chunks for other revisions or out-of-range indices are ignored (the
    /// publisher may still be flushing an older round).
    pub fn on_chunk(&mut self, revision: u32, index: u32, payload: &[u8]) -> bool {
        if revision != self.revision || index >= self.bitmap.total() {
            return false;
        }
        let start = index as usize * self.chunk_size as usize;
        let expected_len =
            usize::min(self.chunk_size as usize, self.data.len().saturating_sub(start));
        if payload.len() != expected_len {
            return false; // inconsistent with announce; drop
        }
        if self.bitmap.set(index) {
            self.data[start..start + expected_len].copy_from_slice(payload);
        }
        self.bitmap.is_complete()
    }

    /// Answers a completion query with an ACK (complete) or a compressed
    /// NACK (missing runs). Queries for other revisions are ignored.
    pub fn on_query(&self, revision: u32) -> Option<Message> {
        if revision != self.revision {
            return None;
        }
        if self.is_complete() {
            Some(Message::FileAck {
                transfer: self.transfer,
                revision: self.revision,
                subscriber: self.node,
            })
        } else {
            Some(Message::FileNack {
                transfer: self.transfer,
                revision: self.revision,
                subscriber: self.node,
                runs: self.bitmap.missing_runs(MAX_NACK_RUNS),
            })
        }
    }

    /// Processes a (re-)announce. Repeats of the current revision are
    /// harmless; newer revisions restart or defer according to policy.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::BadTransfer`] on malformed announces.
    pub fn on_announce(&mut self, msg: &Message) -> Result<AnnounceOutcome, ProtocolError> {
        let Message::FileAnnounce { transfer, revision, size, chunk_size, .. } = msg else {
            return Err(ProtocolError::BadTransfer("not an announce"));
        };
        if *transfer != self.transfer || *revision <= self.revision {
            return Ok(AnnounceOutcome::Unchanged);
        }
        match self.policy {
            RevisionPolicy::FinishCurrent if !self.is_complete() => {
                self.pending_revision = Some(msg.clone());
                Ok(AnnounceOutcome::DeferredNewRevision)
            }
            _ => {
                if *chunk_size == 0 {
                    return Err(ProtocolError::BadTransfer("chunk size of zero"));
                }
                let total = size.div_ceil(u64::from(*chunk_size)).max(1);
                let total_chunks = u32::try_from(total)
                    .map_err(|_| ProtocolError::BadTransfer("too many chunks"))?;
                self.revision = *revision;
                self.size = *size;
                self.chunk_size = *chunk_size;
                self.bitmap = ChunkBitmap::new(total_chunks);
                self.data = vec![0; *size as usize];
                Ok(AnnounceOutcome::Restarted)
            }
        }
    }

    /// The deferred newer announce, if policy was
    /// [`RevisionPolicy::FinishCurrent`] and one arrived.
    pub fn pending_revision(&self) -> Option<&Message> {
        self.pending_revision.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name(s: &str) -> Name {
        Name::new(s).unwrap()
    }

    fn sender(data: &[u8], chunk: u32) -> FileSender {
        FileSender::new(
            TransferId(1),
            name("img"),
            1,
            Bytes::copy_from_slice(data),
            chunk,
            GroupId(5),
        )
        .unwrap()
    }

    fn receiver(s: &FileSender, node: NodeId) -> FileReceiver {
        let (rx, _sub) =
            FileReceiver::from_announce(&s.announce(), node, RevisionPolicy::Restart).unwrap();
        rx
    }

    /// Delivers every queued chunk from `s` to the given receivers, with a
    /// loss predicate deciding which (receiver, chunk) pairs drop.
    fn run_round(
        s: &mut FileSender,
        rxs: &mut [FileReceiver],
        mut lose: impl FnMut(usize, u32) -> bool,
    ) {
        loop {
            let chunks = s.next_chunks(16);
            if chunks.is_empty() {
                break;
            }
            for c in &chunks {
                if let Message::FileChunk { revision, index, payload, .. } = c {
                    for (ri, rx) in rxs.iter_mut().enumerate() {
                        if !lose(ri, *index) {
                            rx.on_chunk(*revision, *index, payload);
                        }
                    }
                }
            }
        }
    }

    /// Runs completion: query + responses fed back. Returns true if all done.
    fn run_completion(s: &mut FileSender, rxs: &[FileReceiver]) -> bool {
        let q = s.query();
        let Message::FileQuery { revision, .. } = q else { panic!() };
        for rx in rxs {
            match rx.on_query(revision) {
                Some(Message::FileAck { subscriber, revision, .. }) => {
                    s.on_ack(subscriber, revision);
                }
                Some(Message::FileNack { subscriber, revision, runs, .. }) => {
                    s.on_nack(subscriber, revision, &runs).unwrap();
                }
                _ => {}
            }
        }
        s.is_complete()
    }

    #[test]
    fn bitmap_runs_compress() {
        let mut b = ChunkBitmap::new(10);
        assert_eq!(b.missing_runs(10), vec![(0, 10)]);
        b.set(0);
        b.set(1);
        b.set(5);
        assert_eq!(b.missing_runs(10), vec![(2, 3), (6, 4)]);
        assert_eq!(b.missing_runs(1), vec![(2, 3)], "run cap respected");
        for i in 0..10 {
            if !b.contains(i) {
                b.set(i);
            }
        }
        assert!(b.is_complete());
        assert!(b.missing_runs(10).is_empty());
    }

    #[test]
    fn bitmap_rejects_double_set_and_tracks_count() {
        let mut b = ChunkBitmap::new(100);
        assert!(b.set(64));
        assert!(!b.set(64));
        assert_eq!(b.set_count(), 1);
        assert!(b.contains(64));
        assert!(!b.contains(65));
        assert!(!b.contains(1000));
    }

    #[test]
    fn lossless_single_subscriber_completes_in_one_round() {
        let data: Vec<u8> = (0..5000u32).map(|i| (i % 251) as u8).collect();
        let mut s = sender(&data, 512);
        s.on_subscribe(NodeId(2));
        let mut rxs = vec![receiver(&s, NodeId(2))];
        run_round(&mut s, &mut rxs, |_, _| false);
        assert!(rxs[0].is_complete());
        assert!(run_completion(&mut s, &rxs));
        assert_eq!(rxs.remove(0).into_data().as_ref(), data.as_slice());
        assert_eq!(s.stats().completed, 1);
        assert_eq!(s.stats().rounds, 1);
    }

    #[test]
    fn lossy_transfer_iterates_until_done() {
        let data: Vec<u8> = (0..20_000u32).map(|i| (i % 255) as u8).collect();
        let mut s = sender(&data, 256);
        s.on_subscribe(NodeId(2));
        s.on_subscribe(NodeId(3));
        let mut rxs = vec![receiver(&s, NodeId(2)), receiver(&s, NodeId(3))];
        // Deterministic pseudo-loss: receiver 0 drops every 7th chunk on the
        // first pass, receiver 1 every 5th.
        let mut first_pass = true;
        let mut rounds = 0;
        loop {
            let fp = first_pass;
            run_round(&mut s, &mut rxs, |ri, idx| fp && idx % (7 - 2 * ri as u32) == 0);
            first_pass = false;
            rounds += 1;
            if run_completion(&mut s, &rxs) {
                break;
            }
            assert!(rounds < 10, "must converge");
        }
        for rx in rxs {
            assert!(rx.is_complete());
            assert_eq!(rx.into_data().as_ref(), data.as_slice());
        }
        assert!(s.stats().rounds >= 2);
        // Repair rounds resend only missing chunks: strictly fewer chunk
        // sends than two full passes.
        assert!(s.stats().chunks_sent < 2 * u64::from(s.total_chunks()) + 40);
    }

    #[test]
    fn bitmap_clear_undoes_only_a_set() {
        let mut b = ChunkBitmap::new(70);
        assert!(!b.clear(65), "nothing to clear");
        assert!(b.set(65) && b.set(3));
        assert!(b.clear(65));
        assert!(!b.contains(65) && b.contains(3));
        assert_eq!(b.set_count(), 1);
        assert!(!b.clear(65), "cleared once");
        assert!(b.set(65), "set again after a clear");
    }

    /// The queue is a set: a chunk queued twice goes once, a chunk already
    /// sent this round can be queued again, and `next_chunks_into` appends
    /// what `next_chunks` returns.
    #[test]
    fn queued_chunks_go_once_and_sent_ones_can_be_queued_again() {
        let data = vec![3u8; 4096];
        let mut s = sender(&data, 512); // 8 chunks
        s.on_subscribe(NodeId(2));
        s.on_nack(NodeId(2), 1, &[(0, 8)]).unwrap();
        let mut out = vec![Message::AnnounceRequest];
        s.next_chunks_into(3, &mut out);
        let index = |m: &Message| match m {
            Message::FileChunk { index, .. } => *index,
            other => panic!("{other:?}"),
        };
        assert_eq!(out[1..].iter().map(index).collect::<Vec<_>>(), [0, 1, 2]);
        s.on_nack(NodeId(2), 1, &[(0, 2), (4, 1)]).unwrap();
        let rest: Vec<u32> = s.next_chunks(usize::MAX).iter().map(index).collect();
        assert_eq!(rest, [3, 4, 5, 6, 7, 0, 1]);
        assert!(!s.has_pending_chunks());
        // A new revision of another size starts from an empty queue.
        s.bump_revision(Bytes::from(vec![4u8; 1024])).unwrap();
        s.on_nack(NodeId(2), 2, &[(1, 1)]).unwrap();
        assert_eq!(s.next_chunks(usize::MAX).iter().map(index).collect::<Vec<_>>(), [0, 1]);
        // One of the same size, bumped mid-round, too.
        s.on_nack(NodeId(2), 2, &[(1, 1)]).unwrap();
        s.bump_revision(Bytes::from(vec![5u8; 1024])).unwrap();
        assert_eq!(s.next_chunks(usize::MAX).iter().map(index).collect::<Vec<_>>(), [0, 1]);
    }

    #[test]
    fn late_join_collects_tail_then_nacks_head() {
        let data = vec![7u8; 4096];
        let mut s = sender(&data, 256); // 16 chunks
        s.on_subscribe(NodeId(2));
        let mut early = receiver(&s, NodeId(2));
        // First half of the round goes out before the late joiner appears.
        let half = s.next_chunks(8);
        for c in &half {
            if let Message::FileChunk { revision, index, payload, .. } = c {
                early.on_chunk(*revision, *index, payload);
            }
        }
        // Late joiner subscribes mid-transfer and hears only the tail.
        s.on_subscribe(NodeId(3));
        let mut late = receiver(&s, NodeId(3));
        let tail = s.next_chunks(64);
        for c in &tail {
            if let Message::FileChunk { revision, index, payload, .. } = c {
                early.on_chunk(*revision, *index, payload);
                late.on_chunk(*revision, *index, payload);
            }
        }
        assert!(early.is_complete());
        assert!(!late.is_complete());
        // Completion: late NACKs the head it missed.
        let q = s.query();
        let Message::FileQuery { revision, .. } = q else { panic!() };
        match early.on_query(revision) {
            Some(Message::FileAck { subscriber, revision, .. }) => s.on_ack(subscriber, revision),
            other => panic!("{other:?}"),
        }
        match late.on_query(revision) {
            Some(Message::FileNack { subscriber, revision, runs, .. }) => {
                assert_eq!(runs, vec![(0, 8)]);
                s.on_nack(subscriber, revision, &runs).unwrap();
            }
            other => panic!("{other:?}"),
        }
        // Repair round serves only the head.
        let repair = s.next_chunks(64);
        assert_eq!(repair.len(), 8);
        for c in &repair {
            if let Message::FileChunk { revision, index, payload, .. } = c {
                late.on_chunk(*revision, *index, payload);
            }
        }
        assert!(late.is_complete());
        assert_eq!(late.into_data().as_ref(), data.as_slice());
    }

    #[test]
    fn revision_bump_restarts_receivers() {
        let mut s = sender(&[1u8; 1000], 100);
        s.on_subscribe(NodeId(2));
        let mut rx = receiver(&s, NodeId(2));
        // Deliver a few chunks of rev 1.
        for c in s.next_chunks(3) {
            if let Message::FileChunk { revision, index, payload, .. } = c {
                rx.on_chunk(revision, index, &payload);
            }
        }
        let new_announce = s.bump_revision(Bytes::from(vec![2u8; 500])).unwrap();
        assert_eq!(s.revision(), 2);
        assert_eq!(rx.on_announce(&new_announce).unwrap(), AnnounceOutcome::Restarted);
        assert_eq!(rx.revision(), 2);
        assert_eq!(rx.progress(), (0, 5));
        // Old-revision chunks are now ignored.
        assert!(!rx.on_chunk(1, 0, &[1u8; 100]));
        // Full new round completes.
        let mut rxs = vec![rx];
        run_round(&mut s, &mut rxs, |_, _| false);
        assert!(rxs[0].is_complete());
        assert_eq!(rxs[0].progress(), (5, 5));
    }

    #[test]
    fn finish_current_policy_defers_new_revision() {
        let mut s = sender(&[1u8; 1000], 100);
        s.on_subscribe(NodeId(2));
        let (mut rx, _) =
            FileReceiver::from_announce(&s.announce(), NodeId(2), RevisionPolicy::FinishCurrent)
                .unwrap();
        let ann2 = s.bump_revision(Bytes::from(vec![2u8; 100])).unwrap();
        assert_eq!(rx.on_announce(&ann2).unwrap(), AnnounceOutcome::DeferredNewRevision);
        assert_eq!(rx.revision(), 1);
        assert!(rx.pending_revision().is_some());
    }

    #[test]
    fn unresponsive_subscriber_is_evicted() {
        let mut s = sender(&[0u8; 100], 10);
        s.on_subscribe(NodeId(9));
        for _ in 0..=8 {
            let _ = s.next_chunks(usize::MAX);
            let _ = s.query();
        }
        assert!(s.is_complete(), "ghost subscriber evicted after stale rounds");
        assert_eq!(s.stats().evicted, 1);
    }

    #[test]
    fn nack_from_unknown_node_adopts_it() {
        let mut s = sender(&[0u8; 100], 10);
        s.on_subscribe(NodeId(1));
        let _ = s.next_chunks(usize::MAX);
        s.on_nack(NodeId(42), 1, &[(0, 10)]).unwrap();
        assert_eq!(s.subscriber_count(), 2);
        assert!(s.has_pending_chunks());
    }

    #[test]
    fn bad_nack_runs_rejected() {
        let mut s = sender(&[0u8; 100], 10); // 10 chunks
        s.on_subscribe(NodeId(1));
        assert!(s.on_nack(NodeId(1), 1, &[(5, 6)]).is_err(), "end beyond range");
        assert!(s.on_nack(NodeId(1), 1, &[(0, 0)]).is_err(), "empty run");
        assert!(s.on_nack(NodeId(1), 1, &[(u32::MAX, 2)]).is_err(), "overflow");
        // Stale revision NACKs are ignored, not errors.
        assert!(s.on_nack(NodeId(1), 0, &[(0, 10)]).is_ok());
    }

    #[test]
    fn chunk_length_mismatch_is_dropped() {
        let s = sender(&[0u8; 100], 10);
        let mut rx = receiver(&s, NodeId(2));
        assert!(!rx.on_chunk(1, 0, &[0u8; 5]), "short chunk ignored");
        assert_eq!(rx.progress().0, 0);
        // Correct length accepted.
        rx.on_chunk(1, 0, &[0u8; 10]);
        assert_eq!(rx.progress().0, 1);
    }

    #[test]
    fn last_chunk_may_be_short() {
        let data = vec![9u8; 1050]; // 2 chunks of 1024: second is 26 bytes
        let mut s = sender(&data, 1024);
        s.on_subscribe(NodeId(2));
        let mut rxs = vec![receiver(&s, NodeId(2))];
        run_round(&mut s, &mut rxs, |_, _| false);
        assert!(rxs[0].is_complete());
        assert_eq!(rxs.remove(0).into_data().as_ref(), data.as_slice());
    }

    #[test]
    fn empty_file_transfers() {
        let mut s = sender(&[], 1024);
        s.on_subscribe(NodeId(2));
        let mut rxs = vec![receiver(&s, NodeId(2))];
        run_round(&mut s, &mut rxs, |_, _| false);
        assert!(rxs[0].is_complete());
        assert!(run_completion(&mut s, &rxs));
    }
}
