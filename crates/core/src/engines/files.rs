//! File transfer bookkeeping (paper §4.4), wrapping the protocol-level
//! MFTP state machines with container concerns: interests, announce
//! caching, transfer-to-resource routing, the pump cadences and the
//! same-node bypass.

use std::collections::{BTreeMap, HashMap};
use std::ops::Bound;

use bytes::Bytes;

use marea_presentation::Name;
use marea_protocol::messages::Provision;
use marea_protocol::mftp::{AnnounceOutcome, FileReceiver, FileSender, RevisionPolicy};
use marea_protocol::{GroupId, Message, Micros, NodeId, ProtoDuration, TransferId};

use super::fnv1a;
use crate::service::{FileEvent, ServiceDescriptor};
use crate::stats::{ContainerStats, Occupancy};
use crate::timers::Cadence;

/// File transfer chunk size in bytes.
const CHUNK_SIZE: u32 = 1024;

/// File chunks pumped per tick per transfer.
const BURST: usize = 32;

/// Gap between completion queries of an idle transfer, and between
/// retries of interests still waiting for a usable announce (100 ms).
const QUERY_INTERVAL: ProtoDuration = ProtoDuration(100_000);

/// Stable group id for a file resource's multicast group.
pub(crate) fn file_group(name: &Name) -> GroupId {
    GroupId(0x4000_0000 | (fnv1a(name.as_str().as_bytes()) & 0x3FFF_FFFF))
}

/// Publisher-side transfer session state.
#[derive(Debug)]
struct OutgoingFile {
    /// The protocol state machine.
    sender: FileSender,
    /// Local service owning the resource.
    owner_seq: u32,
    /// Completion-query rounds of an idle transfer.
    query: Cadence,
    /// `DistributionComplete` already delivered for the current revision.
    complete_notified: bool,
}

impl OutgoingFile {
    /// The owner's `DistributionComplete` notice, the first time every
    /// subscriber of the current revision has acknowledged it.
    fn take_completion(&mut self, resource: &Name) -> Option<(u32, FileEvent)> {
        if !self.sender.is_complete() || self.complete_notified {
            return None;
        }
        self.complete_notified = true;
        let event = FileEvent::DistributionComplete {
            resource: resource.clone(),
            revision: self.sender.revision(),
            subscribers: self.sender.stats().completed,
        };
        Some((self.owner_seq, event))
    }
}

/// Subscriber-side interest in a resource.
#[derive(Debug, Default)]
struct FileInterest {
    /// Local services interested.
    services: Vec<u32>,
    /// Active receiver (None until an announce is heard).
    receiver: Option<FileReceiver>,
    /// Node publishing the resource (source of the announce).
    publisher: Option<NodeId>,
    /// Highest revision fully received.
    completed_revision: Option<u32>,
}

/// What a `FileAnnounce` means to this node.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Heard {
    /// The resource is published from this node too: two writers behind
    /// one name, counted like the other engines' type mismatches.
    Conflict,
    /// Cached for late interest; nothing to do now.
    Ignored,
    /// A receiver was opened (`join` the resource's group first) or
    /// restarted on a new revision: subscribe, and tell these services.
    Subscribe { join: bool, services: Vec<u32> },
}

/// A download the last chunk completed: the resource, its data, the
/// local services to hand it to and the publisher to acknowledge to.
pub(crate) type ReceivedFile<'a> = (&'a Name, Bytes, &'a [u32], Option<NodeId>);

/// One outgoing transfer's share of a pump sweep.
#[derive(Debug)]
pub(crate) struct Pumped {
    pub resource: Name,
    /// For the control group: the re-announce that opens a query round,
    /// so late joiners can subscribe mid-transfer (§4.4 phase overlap).
    pub control: Option<Message>,
    /// For the resource's own group: a chunk burst, or the round's query.
    pub group: Vec<Message>,
    /// The owner's notice, when this step served the last subscriber.
    pub done: Option<(u32, FileEvent)>,
}

/// All file-transfer state of one container.
#[derive(Debug)]
pub(crate) struct FileEngine {
    node: NodeId,
    /// File resources local services declared, with their owner.
    declared: HashMap<Name, u32>,
    /// Resources published from / wanted by this node. Ordered: sweeps
    /// over them send, and send order must be stable.
    outgoing: BTreeMap<Name, OutgoingFile>,
    interests: BTreeMap<Name, FileInterest>,
    /// Last announce heard per resource (supports subscribe-after-announce
    /// and late join).
    seen_announces: HashMap<Name, (NodeId, Message)>,
    /// `(publisher, transfer)` → resource. Transfer ids are unique per
    /// publishing node only: this node's own transfers are filed under
    /// its id (where `FileSubscribe`/`FileAck`/`FileNack` look), a remote
    /// publisher's under the node its announce came from.
    transfer_index: HashMap<(NodeId, TransferId), Name>,
    /// Next transfer session id.
    next_transfer: u64,
    /// Publications referencing undeclared resources (see
    /// [`TypeMismatchStats::files`](crate::stats::TypeMismatchStats)).
    type_mismatches: u64,
    /// The fallback that re-tries waiting interests against the announces
    /// heard so far without a directory change to trigger it.
    interest_retry: Cadence,
}

impl FileEngine {
    pub fn new(node: NodeId) -> Self {
        FileEngine {
            node,
            declared: HashMap::new(),
            outgoing: BTreeMap::new(),
            interests: BTreeMap::new(),
            seen_announces: HashMap::new(),
            transfer_index: HashMap::new(),
            next_transfer: 0,
            type_mismatches: 0,
            interest_retry: Cadence::every(QUERY_INTERVAL),
        }
    }

    /// Takes in what `descriptor` provides and wants, on behalf of local
    /// service `seq`.
    pub fn register(&mut self, seq: u32, descriptor: &ServiceDescriptor) {
        for p in descriptor.provides() {
            if let Provision::FileResource { name } = p {
                self.declared.insert(name.clone(), seq);
            }
        }
        for name in descriptor.file_interests() {
            self.interests.entry(name.clone()).or_default().services.push(seq);
        }
    }

    /// Adds a run-time interest of service `seq` in `resource`.
    pub fn add_interest(&mut self, resource: &Name, seq: u32) {
        let interest = self.interests.entry(resource.clone()).or_default();
        if !interest.services.contains(&seq) {
            interest.services.push(seq);
        }
    }

    /// Publishes `data` as the first or next revision of `resource`;
    /// answers the announce to broadcast. The error is the container log
    /// line saying why the publication was dropped.
    pub fn publish(
        &mut self,
        owner_seq: u32,
        resource: &Name,
        data: Bytes,
    ) -> Result<Message, String> {
        if self.declared.get(resource) != Some(&owner_seq) {
            self.type_mismatches += 1;
            return Err(format!("publish of undeclared file resource `{resource}` dropped"));
        }
        let unchunkable = |e| format!("publish of file resource `{resource}` dropped: {e}");
        if let Some(existing) = self.outgoing.get_mut(resource) {
            let announce = existing.sender.bump_revision(data).map_err(unchunkable)?;
            existing.complete_notified = false;
            existing.query.reset();
            return Ok(announce);
        }
        self.next_transfer += 1;
        let transfer = TransferId(self.next_transfer);
        let sender =
            FileSender::new(transfer, resource.clone(), 1, data, CHUNK_SIZE, file_group(resource))
                .map_err(unchunkable)?;
        let announce = sender.announce();
        self.transfer_index.insert((self.node, transfer), resource.clone());
        self.outgoing.insert(
            resource.clone(),
            OutgoingFile {
                sender,
                owner_seq,
                query: Cadence::every(QUERY_INTERVAL),
                complete_notified: false,
            },
        );
        Ok(announce)
    }

    /// Same-node bypass (§4.4, "the transfer is bypassed by the container
    /// as direct access to the resource"): `(revision, data, services)`
    /// when local services wait for what is published here.
    pub fn local_bypass(&mut self, resource: &Name) -> Option<(u32, Bytes, &[u32])> {
        let out = self.outgoing.get(resource)?;
        let revision = out.sender.revision();
        let interest = self.interests.get_mut(resource)?;
        if interest.completed_revision == Some(revision) || interest.services.is_empty() {
            return None;
        }
        interest.completed_revision = Some(revision);
        Some((revision, out.sender.data(), &interest.services))
    }

    /// A `FileAnnounce` from `src` (heard on the wire, or a cached one
    /// re-tried for an interest that came later).
    pub fn on_announce(&mut self, src: NodeId, announce: &Message) -> Heard {
        let Message::FileAnnounce { transfer, resource, revision, .. } = announce else {
            return Heard::Ignored;
        };
        if self.outgoing.contains_key(resource) {
            self.type_mismatches += 1;
            return Heard::Conflict;
        }
        self.transfer_index.insert((src, *transfer), resource.clone());
        self.seen_announces.insert(resource.clone(), (src, announce.clone()));
        let Some(interest) = self.interests.get_mut(resource) else { return Heard::Ignored };
        if interest.services.is_empty() || interest.completed_revision == Some(*revision) {
            return Heard::Ignored;
        }
        let join = match &mut interest.receiver {
            Some(rx) => match rx.on_announce(announce) {
                Ok(AnnounceOutcome::Restarted) => false,
                _ => return Heard::Ignored,
            },
            None => match FileReceiver::from_announce(announce, self.node, RevisionPolicy::Restart)
            {
                Ok((rx, _subscribe)) => {
                    interest.receiver = Some(rx);
                    true
                }
                Err(_) => return Heard::Ignored,
            },
        };
        interest.publisher = Some(src);
        Heard::Subscribe { join, services: interest.services.clone() }
    }

    /// A subscriber's `FileSubscribe`, `FileAck` or `FileNack` about one of
    /// this node's own transfers; answers the owner's
    /// `DistributionComplete` notice when an ack was the last one awaited.
    pub fn on_subscriber_message(&mut self, msg: &Message) -> Option<(u32, FileEvent)> {
        let (Message::FileSubscribe { transfer, .. }
        | Message::FileAck { transfer, .. }
        | Message::FileNack { transfer, .. }) = msg
        else {
            return None;
        };
        let resource = self.transfer_index.get(&(self.node, *transfer))?;
        let out = self.outgoing.get_mut(resource)?;
        match msg {
            Message::FileAck { revision, subscriber, .. } => {
                out.sender.on_ack(*subscriber, *revision);
                return out.take_completion(resource);
            }
            Message::FileNack { revision, subscriber, runs, .. } => {
                let _ = out.sender.on_nack(*subscriber, *revision, runs);
            }
            Message::FileSubscribe { subscriber, .. } => out.sender.on_subscribe(*subscriber),
            _ => {}
        }
        out.complete_notified = false;
        None
    }

    /// The interest fed by `src`'s transfer `transfer`.
    fn incoming_mut(
        &mut self,
        src: NodeId,
        transfer: TransferId,
    ) -> Option<(&Name, &mut FileInterest)> {
        let resource = self.transfer_index.get(&(src, transfer))?;
        Some((resource, self.interests.get_mut(resource)?))
    }

    /// One chunk of `src`'s transfer `transfer`; answers the finished
    /// download when it was the last one missing.
    pub fn on_chunk(
        &mut self,
        src: NodeId,
        transfer: TransferId,
        revision: u32,
        index: u32,
        payload: &[u8],
    ) -> Option<ReceivedFile<'_>> {
        let (resource, interest) = self.incoming_mut(src, transfer)?;
        if !interest.receiver.as_mut()?.on_chunk(revision, index, payload) {
            return None;
        }
        let data = interest.receiver.take()?.into_data();
        interest.completed_revision = Some(revision);
        Some((resource, data, &interest.services, interest.publisher))
    }

    /// `src` asks how far its transfer got here; answers the
    /// `FileAck`/`FileNack` to return while a download is in progress.
    pub fn on_query(
        &mut self,
        src: NodeId,
        transfer: TransferId,
        revision: u32,
    ) -> Option<Message> {
        let (_, interest) = self.incoming_mut(src, transfer)?;
        interest.receiver.as_ref()?.on_query(revision)
    }

    /// `src` withdrew its transfer; `true` when an interest went back to
    /// waiting for an announce.
    pub fn on_cancel(&mut self, src: NodeId, transfer: TransferId) -> bool {
        let Some((_, interest)) = self.incoming_mut(src, transfer) else { return false };
        interest.receiver = None;
        interest.publisher = None;
        true
    }

    /// `node` died: downloads it fed go back to waiting, and its cached
    /// announces are forgotten.
    pub fn drop_peer(&mut self, node: NodeId) {
        for interest in self.interests.values_mut() {
            if interest.publisher == Some(node) {
                interest.receiver = None;
                interest.publisher = None;
            }
        }
        self.seen_announces.retain(|_, (src, _)| *src != node);
    }

    /// `true` (and the retry is taken) when the waiting interests are due
    /// another look at the announces heard so far.
    pub fn retry_due(&mut self, now: Micros) -> bool {
        !self.interests.is_empty() && self.interest_retry.take(now)
    }

    /// The cached `(publisher, announce)` of every interest that has
    /// services waiting, no receiver yet and no local publisher (the
    /// bypass path serves those), in resource order.
    pub fn waiting_announces(&self) -> Vec<(NodeId, Message)> {
        self.interests
            .iter()
            .filter(|(resource, interest)| {
                interest.receiver.is_none()
                    && !interest.services.is_empty()
                    && !self.outgoing.contains_key(*resource)
            })
            .filter_map(|(resource, _)| self.seen_announces.get(resource).cloned())
            .collect()
    }

    /// Pumps the first unfinished transfer after resource `after`, in
    /// name order, that has output at `now`: its next chunk burst, or —
    /// queue drained, query interval passed — a re-announce plus
    /// completion query. `None` ends the sweep.
    pub fn pump_after(&mut self, after: Option<&Name>, now: Micros) -> Option<Pumped> {
        let lower = after.map_or(Bound::Unbounded, Bound::Excluded);
        for (resource, out) in self.outgoing.range_mut::<Name, _>((lower, Bound::Unbounded)) {
            if out.sender.is_complete() {
                continue;
            }
            let (control, group) = if out.sender.has_pending_chunks() {
                (None, out.sender.next_chunks(BURST))
            } else if out.query.take(now) {
                (Some(out.sender.announce()), vec![out.sender.query()])
            } else {
                continue;
            };
            let done = out.take_completion(resource);
            return Some(Pumped { resource: resource.clone(), control, group, done });
        }
        None
    }

    /// When the engine next has work of its own: at once while an
    /// unfinished transfer has chunks queued, else at the earliest
    /// completion query or interest retry.
    pub fn next_due(&self) -> Option<Micros> {
        let pumps = self.outgoing.values().filter(|out| !out.sender.is_complete()).map(|out| {
            if out.sender.has_pending_chunks() {
                Micros::ZERO
            } else {
                out.query.next_due()
            }
        });
        let retry = (!self.interests.is_empty()).then(|| self.interest_retry.next_due());
        pumps.chain(retry).min()
    }

    /// Writes the counters this engine owns.
    pub fn fill_stats(&self, stats: &mut ContainerStats) {
        stats.type_mismatches.files = self.type_mismatches;
    }

    /// Writes the gauges this engine owns.
    pub fn fill_occupancy(&self, occupancy: &mut Occupancy) {
        occupancy.files_sending =
            self.outgoing.values().filter(|out| !out.sender.is_complete()).count();
        occupancy.files_receiving =
            self.interests.values().filter(|i| i.receiver.is_some()).count();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name(s: &str) -> Name {
        Name::new(s).unwrap()
    }

    fn engine(node: u32) -> FileEngine {
        FileEngine::new(NodeId(node))
    }

    fn publisher(node: u32, resource: &str) -> (FileEngine, Message) {
        let mut e = engine(node);
        e.declared.insert(name(resource), 1);
        let announce = e.publish(1, &name(resource), Bytes::from(vec![node as u8; 1500])).unwrap();
        (e, announce)
    }

    #[test]
    fn transfer_ids_are_unique_and_indexed() {
        let mut e = engine(1);
        e.declared.insert(name("img"), 1);
        e.declared.insert(name("map"), 1);
        let a = e.publish(1, &name("img"), Bytes::from_static(b"a")).unwrap();
        let b = e.publish(1, &name("map"), Bytes::from_static(b"b")).unwrap();
        let (
            Message::FileAnnounce { transfer: ta, .. },
            Message::FileAnnounce { transfer: tb, .. },
        ) = (&a, &b)
        else {
            panic!("announces expected: {a:?} {b:?}");
        };
        assert_ne!(ta, tb);
        assert_eq!(e.transfer_index.get(&(NodeId(1), *ta)), Some(&name("img")));
        assert_eq!(e.transfer_index.get(&(NodeId(1), *tb)), Some(&name("map")));
        assert!(e.publish(2, &name("img"), Bytes::new()).is_err(), "not the declared owner");
        assert_eq!(e.type_mismatches, 1);
    }

    /// Transfer ids are unique per publishing node only: two publishers'
    /// first transfers are both `TransferId(1)` and must resolve to their
    /// own resources — and neither may shadow this node's own transfer 1.
    #[test]
    fn same_transfer_id_from_two_publishers_resolves_to_two_resources() {
        let (mut local, own_announce) = publisher(3, "n3/file");
        let (_, from_1) = publisher(1, "n1/file");
        let (_, from_2) = publisher(2, "n2/file");
        for a in [&own_announce, &from_1, &from_2] {
            assert!(matches!(a, Message::FileAnnounce { transfer: TransferId(1), .. }));
        }
        local.interests.entry(name("n1/file")).or_default().services.push(7);
        local.interests.entry(name("n2/file")).or_default().services.push(8);
        let subscribe = |services| Heard::Subscribe { join: true, services };
        assert_eq!(local.on_announce(NodeId(1), &from_1), subscribe(vec![7]));
        assert_eq!(local.on_announce(NodeId(2), &from_2), subscribe(vec![8]));

        // Chunks route by (publisher, transfer): node 2's chunk 0 cannot
        // land in node 1's download.
        let t = TransferId(1);
        assert!(local.on_chunk(NodeId(2), t, 1, 0, &[2; 1024]).is_none());
        assert!(local.on_chunk(NodeId(1), t, 1, 0, &[1; 1024]).is_none());
        let done = local.on_chunk(NodeId(1), t, 1, 1, &[1; 476]).expect("n1/file complete");
        let data = Bytes::from(vec![1u8; 1500]);
        assert_eq!(done, (&name("n1/file"), data, &[7][..], Some(NodeId(1))));
        let done = local.on_chunk(NodeId(2), t, 1, 1, &[2; 476]).expect("n2/file complete");
        assert_eq!(done.1, Bytes::from(vec![2u8; 1500]));

        // A subscriber naming transfer 1 means this node's own transfer.
        let subscribe = Message::FileSubscribe { transfer: t, subscriber: NodeId(9) };
        assert_eq!(local.on_subscriber_message(&subscribe), None);
        assert!(!local.outgoing[&name("n3/file")].sender.is_complete());
        let ack = Message::FileAck { transfer: t, revision: 1, subscriber: NodeId(9) };
        let (owner, event) = local.on_subscriber_message(&ack).expect("last subscriber served");
        assert_eq!(owner, 1);
        assert!(matches!(event, FileEvent::DistributionComplete { subscribers: 1, .. }));
    }
}
