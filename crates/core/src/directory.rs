//! Name management: the distributed directory and proxy cache.
//!
//! Paper §3: *"The services are addressed by name, and the Service Container
//! discovers the real location in the network of the named service ... In
//! case of service malfunctioning, it is also the container responsibility
//! to notify the other containers in the domain and to choose another
//! provider service if it is available. In this way, the containers are able
//! to clear and update their caches. From the name management point of view,
//! the Service Container acts as a proxy cache for the services it
//! contains."*
//!
//! Every container owns a [`Directory`] fed by `Beacon`/`Announce`/`Bye`
//! traffic. A node's catalogue is the only statement of its services'
//! states: a state change arrives as a catalogue of the same life, and a
//! catalogue with the digest already on record is not filed again. A
//! node's first beacon or `Announce` files its record, whichever arrives
//! first; the life check ([`Life`]) reports a life not on record, which
//! the container answers with its own catalogue (and a pull of the
//! peer's, when a beacon revealed it). Lookups resolve provision names to
//! live providers; the end of a node's life (silence timeout, `Bye` or a
//! newer incarnation) purges everything learned from that life — the
//! cache invalidation the paper describes.
//!
//! **A node keeps whole only the provisions it uses.** Every catalogue is
//! applied, and its digest goes into the sender's [`NodeInfo`], so the
//! repeat-beacon fast path and the digest pull see every catalogue as
//! before. But a provision's full [`ProviderInfo`] is kept only where a
//! lookup can ask for it:
//! - every function, because a handler may call any function by name at
//!   run time, with no declaration beforehand;
//! - every name a local service uses: the variables and events it
//!   subscribes to, registered with [`Directory::add_interest`] (files
//!   are not: the file engine finds its sources by query, not here);
//! - this node's own catalogue, which costs nothing per peer.
//!
//! Every other provision is one 8-byte pair: its name's CRC-32 and its
//! provider's node. A pair says only that the node offers some name of
//! that hash. When a local service takes an interest in a name later,
//! `add_interest` answers the nodes whose pairs match the name's hash, and
//! the container pulls their catalogues again with `AnnounceRequest`; the
//! answer is applied with the name now in use, so it is kept whole, in its
//! current state. Their catalogue digests are forgotten until then, so a
//! lost request or answer is pulled again at the node's next beacon. A
//! pair keeps no state, so a catalogue that changes only its service's
//! state files the same pair. The cost per peer is its liveness record,
//! its expiry entry and a pair per provision it offers — not the 225–290
//! bytes of a cached provision in every directory of the fleet, of which
//! a node reads the few it uses.

use std::mem::size_of;
use std::num::NonZeroU32;

use bytes::BytesMut;
use marea_encoding::WireWriter;
use marea_presentation::{InvalidNameError, Name};
use marea_protocol::messages::{
    announce_hash, AnnounceEntry, FunctionSig, Provision, ServiceState,
};
use marea_protocol::{
    crc32, FrameBody, Message, MessageKind, Micros, NodeId, ProtoDuration, ServiceId, Unchecked,
};

use crate::service::CallPolicy;
use crate::timers::DueQueue;

/// One provider of a named provision.
#[derive(Debug, Clone)]
pub struct ProviderInfo {
    /// The providing service instance.
    pub service: ServiceId,
    /// Lifecycle state last advertised.
    pub state: ServiceState,
    /// The provision as announced (schema, QoS, signature).
    pub provision: Provision,
}

impl ProviderInfo {
    /// The call signature, when the provision is a function.
    pub fn function_sig(&self) -> Option<&FunctionSig> {
        match &self.provision {
            Provision::Function { sig, .. } => Some(sig),
            _ => None,
        }
    }
}

/// Liveness record of a remote (or the local) node: what resolution and
/// the beacon comparison read, nothing else. One is kept per node of the
/// fleet, so its size is a large fleet's heap: 32 bytes, pinned by
/// `a_record_is_thirty_two_bytes`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeInfo {
    /// Restart counter: the life this record describes.
    pub incarnation: u64,
    /// Receive time of the node's last CRC-valid frame of any kind.
    pub last_seen: Micros,
    /// Advertised scheduler load (permille).
    pub load_permille: u16,
    /// `digest` holds an applied catalogue's digest (a pair and a flag,
    /// not an `Option`: its tag would cost the record 8 bytes).
    digest_known: bool,
    /// See [`NodeInfo::catalogue_digest`].
    digest: (u32, u32),
    /// The CRC field of the last beacon frame that left this record as it
    /// is ([`BeaconOutcome::Refreshed`]), kept only while the record says
    /// exactly what that beacon said: every other write clears it. A CRC
    /// of 0 is never kept. See [`Directory::repeat_beacon`].
    beacon_crc: Option<NonZeroU32>,
}

impl NodeInfo {
    fn new(incarnation: u64, now: Micros, load_permille: u16) -> Self {
        NodeInfo {
            incarnation,
            last_seen: now,
            load_permille,
            digest_known: false,
            digest: (0, 0),
            beacon_crc: None,
        }
    }

    /// Digest of the node's last applied full catalogue announce:
    /// `(announce_hash, entry_count)`. `None` until an announce is seen,
    /// and again from a new interest in a name the node offered as a pair
    /// until its catalogue is applied again ([`Directory::add_interest`]) —
    /// a beacon received in that state always mismatches, which is what
    /// pulls the catalogue.
    pub fn catalogue_digest(&self) -> Option<(u32, u32)> {
        self.digest_known.then_some(self.digest)
    }

    /// The beacon this record says the node sends: every field is one the
    /// record holds, so none can be built before a catalogue is applied.
    fn beacon(&self) -> Option<Message> {
        let (catalogue_hash, entry_count) = self.catalogue_digest()?;
        Some(Message::Beacon {
            incarnation: self.incarnation,
            load_permille: self.load_permille,
            entry_count,
            catalogue_hash,
        })
    }
}

/// Where a frame's incarnation stands against the life on record for its
/// sender: the one life check every frame that carries an incarnation
/// passes (beacon, `Announce`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Life {
    /// From a life older than the one on record: the frame was ignored. A
    /// frame that sat in a slow link's queue across its sender's restart
    /// says nothing about the node as it is now.
    Older,
    /// From the life on record, which the frame refreshed.
    Same,
    /// From a life not on record: a fresh record was filed for it. `ended`
    /// says it took the place of another life's record, whose cached
    /// provisions went with it; the container sees that life out through
    /// the death path, as it does a silent or departed node.
    New {
        /// A record of another life was replaced.
        ended: bool,
    },
}

/// What a beacon changed, beyond refreshing its sender's liveness and
/// load ([`Directory::apply_beacon`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BeaconOutcome {
    /// Same life, same catalogue digest: the steady state, nothing else
    /// to do.
    Refreshed,
    /// From a life older than the one known: ignored.
    OlderLife,
    /// A life not on record (its start-up `Announce` was lost, or is
    /// still on its way): a fresh record was filed, with no catalogue
    /// ([`Life::New`]), which the container pulls at once.
    New {
        /// A record of another life was replaced.
        ended: bool,
    },
    /// Same life, but the catalogue held is not the one the node has (no
    /// catalogue differs from any): the container pulls it.
    Differs,
}

/// A name kept whole: the full [`ProviderInfo`] of every provider that is
/// kept whole under it.
#[derive(Debug)]
struct Whole {
    name: Name,
    /// A local service uses the name: kept while no node provides it, and
    /// every provision of the name is kept whole.
    in_use: bool,
    /// In `(node, service)` order.
    providers: Vec<ProviderInfo>,
}

/// Bytes of one liveness record, as the directory stores it: its id and
/// its record in two vectors, with no padding between them.
pub(crate) const RECORD_BYTES: usize = size_of::<NodeId>() + size_of::<NodeInfo>();
/// Bytes of one expiry-queue entry.
pub(crate) const EXPIRY_BYTES: usize = DueQueue::<NodeId>::ENTRY_BYTES;
/// Bytes of one pair: a provision kept as its name hash and provider.
pub(crate) const PAIR_BYTES: usize = size_of::<(u32, NodeId)>();
/// Bytes of one whole entry and of one provider listed under it.
pub(crate) const WHOLE_BYTES: usize = size_of::<Whole>() + size_of::<ProviderInfo>();
/// Heap bytes of the longest name: its text behind the two reference
/// counts of its shared allocation.
pub(crate) const NAME_BYTES: usize = 2 * size_of::<usize>() + InvalidNameError::MAX_LEN;

/// The hash a pair keeps of a provision's name: the CRC-32 of its bytes,
/// the same on every node and in every run.
fn name_hash(name: &str) -> u32 {
    crc32(name.as_bytes())
}

/// The per-container name directory / proxy cache.
#[derive(Debug)]
pub struct Directory {
    /// Names kept whole, in name order: every function, every name a local
    /// service uses, and this node's own provisions. The only index by
    /// name.
    whole: Vec<Whole>,
    /// Every other provision as `(name hash, provider node)`, in that
    /// order: a name's providers are one range, so a new interest finds
    /// them by one search and the names heard are counted in one pass.
    pairs: Vec<(u32, NodeId)>,
    /// The ids of the liveness records, ascending: [`Directory::nodes`]
    /// hands them to callers that send per node, so the walk order must
    /// not depend on a hasher.
    ids: Vec<NodeId>,
    /// `records[i]` is node `ids[i]`'s: two vectors, so that a record costs
    /// no padding beside its id.
    records: Vec<NodeInfo>,
    /// Every remote node's expiry, kept in `last_seen` time (a node is due
    /// `node_timeout` after it, a shift the sweep applies to `now`): the
    /// per-tick failure-detection sweep looks at one entry, not every node.
    expiry: DueQueue<NodeId>,
    /// The owning container's node. It is never queued for expiry — a
    /// container does not time itself out — so its own liveness needs no
    /// per-tick refresh.
    local: NodeId,
    /// Where a record's beacon body is written to be compared with a
    /// received one's: kept, so the comparison allocates nothing.
    beacon_body: BytesMut,
}

/// `info`'s beacon body, written over `buf` by the message table's writer;
/// `None` while no catalogue is applied.
fn beacon_body<'b>(buf: &'b mut BytesMut, info: &NodeInfo) -> Option<&'b [u8]> {
    let beacon = info.beacon()?;
    buf.clear();
    beacon.write_body(&mut WireWriter::new(buf));
    Some(&buf[..])
}

impl Directory {
    /// Creates the directory of the container on `local`: that node's own
    /// record is exempt from heartbeat-timeout expiry.
    pub fn for_node(local: NodeId) -> Self {
        Directory {
            whole: Vec::new(),
            pairs: Vec::new(),
            ids: Vec::new(),
            records: Vec::new(),
            expiry: DueQueue::default(),
            local,
            beacon_body: BytesMut::new(),
        }
    }

    fn record_at(&self, node: NodeId) -> Result<usize, usize> {
        self.ids.binary_search(&node)
    }

    fn record_mut(&mut self, node: NodeId) -> Option<&mut NodeInfo> {
        let at = self.record_at(node).ok()?;
        Some(&mut self.records[at])
    }

    fn whole_at(&self, name: &str) -> Result<usize, usize> {
        self.whole.binary_search_by(|w| w.name.as_str().cmp(name))
    }

    /// The one life check. A frame from a life older than the one on
    /// record changes nothing. One from the life on record hands that
    /// record to `same`, in the one lookup the steady-state beacon makes.
    /// Any other files `fresh`, the record of the frame's life, and ends
    /// the life that was on record: everything cached from it goes.
    fn life(&mut self, node: NodeId, fresh: NodeInfo, same: impl FnOnce(&mut NodeInfo)) -> Life {
        let at = self.record_at(node);
        if let Ok(i) = at {
            let known = &mut self.records[i];
            if known.incarnation > fresh.incarnation {
                return Life::Older;
            }
            if known.incarnation == fresh.incarnation {
                same(known);
                return Life::Same;
            }
        }
        match at {
            Ok(i) => {
                self.purge(node);
                self.records[i] = fresh;
            }
            Err(i) => {
                self.ids.insert(i, node);
                self.records.insert(i, fresh);
            }
        }
        self.schedule_expiry(node, fresh.last_seen);
        Life::New { ended: at.is_ok() }
    }

    /// Records a beacon. The steady state — same life, same digest:
    /// nothing but `last_seen` and the load moves — is answered from the
    /// one lookup.
    pub fn apply_beacon(
        &mut self,
        node: NodeId,
        incarnation: u64,
        load_permille: u16,
        digest: (u32, u32),
        now: Micros,
    ) -> BeaconOutcome {
        let fresh = NodeInfo::new(incarnation, now, load_permille);
        let mut differs = false;
        let life = self.life(node, fresh, |info| {
            info.last_seen = now;
            info.load_permille = load_permille;
            info.beacon_crc = None;
            differs = info.catalogue_digest() != Some(digest);
        });
        match (life, differs) {
            (Life::Older, _) => BeaconOutcome::OlderLife,
            (Life::New { ended }, _) => BeaconOutcome::New { ended },
            (Life::Same, false) => BeaconOutcome::Refreshed,
            (Life::Same, true) => BeaconOutcome::Differs,
        }
    }

    /// Keeps the CRC of `frame` — a beacon from its `src` that passed the
    /// frame check and that [`apply_beacon`](Self::apply_beacon) has just
    /// answered [`BeaconOutcome::Refreshed`] — so that a byte-identical
    /// repeat is a [`repeat_beacon`](Self::repeat_beacon). Nothing is kept
    /// unless the frame's payload is the record's own beacon encoding.
    pub(crate) fn keep_beacon(&mut self, frame: Unchecked<'_>) {
        let Ok(at) = self.record_at(frame.src()) else { return };
        let info = &mut self.records[at];
        if frame.is(MessageKind::Beacon)
            && beacon_body(&mut self.beacon_body, info) == Some(frame.payload())
        {
            info.beacon_crc = NonZeroU32::new(frame.crc());
        }
    }

    /// Takes `frame` — a received frame's bytes, **not checked** — as a
    /// repeat when it is byte for byte the beacon whose CRC its sender's
    /// record keeps: magic, version and kind byte are a beacon's, the CRC
    /// field is the one kept, and length and payload are the record's own
    /// beacon encoding. That frame passed the frame check once, and
    /// applying it again would answer `Refreshed` and move nothing but
    /// `last_seen`: a repeat moves that, and its caller skips the check,
    /// the decode and [`apply_beacon`](Self::apply_beacon). Anything else
    /// answers `false` and changes nothing.
    pub(crate) fn repeat_beacon(&mut self, frame: Unchecked<'_>, now: Micros) -> bool {
        if !frame.is(MessageKind::Beacon) {
            return false;
        }
        let Ok(at) = self.record_at(frame.src()) else { return false };
        let info = &mut self.records[at];
        if info.beacon_crc.map(NonZeroU32::get) != Some(frame.crc())
            || beacon_body(&mut self.beacon_body, info) != Some(frame.payload())
        {
            return false;
        }
        info.last_seen = now;
        true
    }

    /// The owning container's load figure moved (its own record takes no
    /// beacons).
    pub fn set_load(&mut self, node: NodeId, load_permille: u16) {
        if let Some(info) = self.record_mut(node) {
            info.load_permille = load_permille;
            info.beacon_crc = None;
        }
    }

    /// Replaces everything known about `node`'s services with the
    /// catalogue of its life `incarnation`. A catalogue from a life not on
    /// record — a node's start-up `Announce`, typically — files that
    /// life's record, with no load until its first beacon says it, so
    /// that the digest has a record to be filed under and a lifetime; one
    /// from an older life is ignored, and one with the digest already on
    /// record is that catalogue again, not re-filed. Functions, names in
    /// use and this node's own provisions are filed whole, every other
    /// provision as a pair.
    pub fn apply_announce(
        &mut self,
        node: NodeId,
        incarnation: u64,
        entries: &[AnnounceEntry],
        now: Micros,
    ) -> Life {
        let digest = (announce_hash(incarnation, entries), entries.len() as u32);
        let fresh = NodeInfo { digest_known: true, digest, ..NodeInfo::new(incarnation, now, 0) };
        let mut on_record = false;
        let life = self.life(node, fresh, |info| {
            info.last_seen = now;
            on_record = info.catalogue_digest() == Some(digest);
            (info.digest_known, info.digest) = (true, digest);
            info.beacon_crc = None;
        });
        match life {
            // From a life the node has left behind, or the catalogue on
            // record: its digest is known, and no new interest has asked
            // for it to be filed whole again (that forgets the digest).
            Life::Older => return life,
            Life::Same if on_record => return life,
            // The catalogue on record goes; a new life's went with the
            // life it ended, and a first contact had none.
            Life::Same => self.purge(node),
            Life::New { .. } => {}
        }
        // This node's own catalogue is whole: it costs nothing per peer,
        // and its provisions resolve before a local service uses them.
        let own = node == self.local;
        for entry in entries {
            for provision in &entry.provides {
                let name = provision.name();
                let whole = own || matches!(provision, Provision::Function { .. });
                let at = match self.whole_at(name.as_str()) {
                    Ok(at) if whole || self.whole[at].in_use => at,
                    Err(at) if whole => {
                        let whole =
                            Whole { name: name.clone(), in_use: false, providers: Vec::new() };
                        self.whole.insert(at, whole);
                        at
                    }
                    _ => {
                        let pair = (name_hash(name.as_str()), node);
                        let at = self.pairs.partition_point(|&p| p < pair);
                        self.pairs.insert(at, pair);
                        continue;
                    }
                };
                // Deterministic resolution order: after the providers of a
                // lower or equal `(node, service)`.
                let key = (node, entry.service_seq);
                let list = &mut self.whole[at].providers;
                if list.capacity() == 0 {
                    // Exact: most names have one provider, where `Vec`'s
                    // first growth step would reserve room for four.
                    list.reserve_exact(1);
                }
                let after = list.partition_point(|p| (p.service.node, p.service.seq) <= key);
                let info = ProviderInfo {
                    service: ServiceId::new(node, entry.service_seq),
                    state: entry.state,
                    provision: provision.clone(),
                };
                list.insert(after, info);
            }
        }
        life
    }

    /// Handles a graceful `Bye`: immediate purge of the node's record and
    /// catalogue. `false` when the node was not known — a stranger, or one
    /// already expired — so nothing left.
    pub fn apply_bye(&mut self, node: NodeId) -> bool {
        let Ok(at) = self.record_at(node) else { return false };
        self.purge(node);
        self.ids.remove(at);
        self.records.remove(at);
        true
    }

    /// Drops nodes silent for longer than `timeout`; returns who died.
    ///
    /// This is the failure-detection sweep: every returned node's cached
    /// provisions were purged ("the containers are able to clear and update
    /// their caches").
    pub fn expire(&mut self, now: Micros, timeout: ProtoDuration) -> Vec<NodeId> {
        // Silent for `timeout` at `now` = last seen no later than this.
        let Some(seen_by) = now.as_micros().checked_sub(timeout.as_micros()) else {
            return Vec::new();
        };
        let mut dead = Vec::new();
        while let Some(node) = self.expiry.pop_due(Micros(seen_by), |node| {
            let at = self.ids.binary_search(node).ok()?;
            Some(self.records[at].last_seen)
        }) {
            dead.push(node);
            self.apply_bye(node); // the purge a `Bye` makes
        }
        // Stable order: callers react to each death with sends/failovers,
        // which must not depend on heap pop order among equal deadlines.
        dead.sort_unstable();
        dead
    }

    /// The earliest instant at which [`expire`](Self::expire) can have
    /// work under `timeout`: the expiry queue's head. It may belong to a
    /// node refreshed since it was queued (the sweep then puts it back),
    /// so this can be early — never late. `None` while no remote node is
    /// tracked.
    pub fn next_expiry(&self, timeout: ProtoDuration) -> Option<Micros> {
        self.expiry.next_due().map(|seen| seen + timeout)
    }

    /// Forgets every provision of `node`: its pairs, and its providers
    /// under the names kept whole (a name no longer provided and not in use
    /// goes with them). One pass over every pair and whole entry, so it is
    /// made only where a record holds a catalogue: an ended life, a `Bye`,
    /// an expiry, a catalogue replaced within a life. Nothing is ever filed
    /// for a node without a record, so a first contact has nothing to purge.
    fn purge(&mut self, node: NodeId) {
        self.pairs.retain(|&(_, n)| n != node);
        self.whole.retain_mut(|whole| {
            whole.providers.retain(|p| p.service.node != node);
            whole.in_use || !whole.providers.is_empty()
        });
    }

    /// Queues a newly filed `node`'s expiry at `last_seen` (a refresh only
    /// moves it later). Every other tracked remote node has one entry, so a
    /// queue that long holds none for `node`; a longer one holds what a
    /// `Bye` or an ended life left behind, perhaps `node`'s own, which
    /// `arm` finds.
    fn schedule_expiry(&mut self, node: NodeId, last_seen: Micros) {
        if self.local == node {
            return;
        }
        let local = self.record_at(self.local).is_ok();
        let others = self.ids.len() - 1 - usize::from(local);
        if self.expiry.len() == others {
            self.expiry.push(node, last_seen);
        } else {
            self.expiry.arm(node, last_seen);
        }
    }

    /// A local service uses `name`: from now on every provision of the
    /// name is kept whole. Answers the remote nodes holding a pair under
    /// the name's hash, in id order — each may provide it, and its
    /// catalogue must be pulled again for the provision to be kept whole.
    /// Each of them has its catalogue digest forgotten, so that until a
    /// catalogue of theirs is applied again every beacon of theirs differs
    /// ([`BeaconOutcome::Differs`]) and pulls it: a lost request or answer
    /// is repeated by the next beacon, as any lost pull is. Nothing for a
    /// name already in use.
    pub fn add_interest(&mut self, name: &Name) -> Vec<NodeId> {
        match self.whole_at(name.as_str()) {
            Ok(at) if self.whole[at].in_use => return Vec::new(),
            Ok(at) => self.whole[at].in_use = true,
            Err(at) => {
                let whole = Whole { name: name.clone(), in_use: true, providers: Vec::new() };
                self.whole.insert(at, whole);
            }
        }
        let hash = name_hash(name.as_str());
        let from = self.pairs.partition_point(|&(h, _)| h < hash);
        let matching = self.pairs[from..].iter().take_while(|&&(h, _)| h == hash);
        let mut holders: Vec<NodeId> =
            matching.map(|&(_, node)| node).filter(|&node| node != self.local).collect();
        holders.dedup();
        for &node in &holders {
            if let Some(info) = self.record_mut(node) {
                info.digest_known = false;
                info.beacon_crc = None;
            }
        }
        holders
    }

    /// Refreshes a known `node`'s liveness: any CRC-valid frame from it
    /// is proof of life. An unknown node stays unknown.
    pub fn touch(&mut self, node: NodeId, now: Micros) {
        if let Some(info) = self.record_mut(node) {
            info.last_seen = now;
        }
    }

    /// `true` while the node is considered alive.
    pub fn node_alive(&self, node: NodeId) -> bool {
        self.record_at(node).is_ok()
    }

    /// Liveness record for a node.
    pub fn node(&self, node: NodeId) -> Option<&NodeInfo> {
        let at = self.record_at(node).ok()?;
        Some(&self.records[at])
    }

    /// All known nodes in id order.
    pub fn nodes(&self) -> Vec<NodeId> {
        self.ids.clone()
    }

    /// Number of known nodes.
    pub fn node_count(&self) -> usize {
        self.ids.len()
    }

    /// Every *available* provider of `name` (any provision kind), in
    /// deterministic order. Only a name kept whole — a function, a name a
    /// local service uses, this node's own provision — lists any.
    pub fn providers<'a>(&'a self, name: &str) -> impl Iterator<Item = &'a ProviderInfo> {
        let whole = self.whole_at(name).ok().map(|at| &self.whole[at]);
        let listed = whole.into_iter().flat_map(|w| &w.providers);
        listed.filter(|p| p.state.is_available() && self.node_alive(p.service.node))
    }

    /// Resolves a *function* provider under a call policy.
    ///
    /// Dynamic policy picks the lowest-load node ("runtime information can
    /// be used to redirect calls ... load balancing techniques are used",
    /// §4.3), tie-broken by node id. `exclude` skips a provider that just
    /// failed (failover re-resolution).
    pub fn resolve_function(
        &self,
        name: &str,
        policy: CallPolicy,
        exclude: Option<ServiceId>,
    ) -> Option<&ProviderInfo> {
        let candidates = || {
            self.providers(name)
                .filter(|p| p.function_sig().is_some())
                .filter(|p| Some(p.service) != exclude)
        };
        if let CallPolicy::PreferNode(node) = policy {
            if let Some(p) = candidates().find(|p| p.service.node == node) {
                return Some(p);
            }
        }
        candidates().min_by_key(|p| {
            let load = self.node(p.service.node).map(|n| n.load_permille).unwrap_or(0);
            (load, p.service.node, p.service.seq)
        })
    }

    /// Resolves the provider of a *variable*, returning its announced QoS.
    pub fn resolve_variable(&self, name: &str) -> Option<&ProviderInfo> {
        self.providers(name).find(|p| matches!(p.provision, Provision::Variable { .. }))
    }

    /// Resolves the provider of an *event channel*.
    pub fn resolve_event(&self, name: &str) -> Option<&ProviderInfo> {
        self.providers(name).find(|p| matches!(p.provision, Provision::Event { .. }))
    }

    /// Resolves the provider of a *file resource*.
    pub fn resolve_file(&self, name: &str) -> Option<&ProviderInfo> {
        self.providers(name).find(|p| matches!(p.provision, Provision::FileResource { .. }))
    }

    /// Number of distinct provision names heard, kept whole or as pairs
    /// (a paired name is told apart by its hash, so two paired names that
    /// share a CRC-32 count once): one pass over the pairs.
    pub fn provision_count(&self) -> usize {
        let paired = self.pairs.windows(2).filter(|w| w[0].0 != w[1].0).count()
            + usize::from(!self.pairs.is_empty());
        let paired_too = |name: &Name| {
            let hash = name_hash(name.as_str());
            self.pairs.binary_search_by_key(&hash, |&(h, _)| h).is_ok()
        };
        let whole = self.whole.iter().filter(|w| !w.providers.is_empty() && !paired_too(&w.name));
        paired + whole.count()
    }

    /// Provisions kept as pairs.
    pub fn pair_count(&self) -> usize {
        self.pairs.len()
    }

    /// Whole entries: the names kept whole and the providers listed under
    /// them.
    pub fn whole_count(&self) -> usize {
        self.whole.len() + self.whole.iter().map(|w| w.providers.len()).sum::<usize>()
    }

    /// Bytes of directory storage: capacity, not contents, of the records,
    /// the expiry queue, the pairs and the whole entries with their
    /// provider lists and names (a provision's schema beyond
    /// its inline size is not counted). At most
    /// [`directory_cap_bytes`](crate::directory_cap_bytes).
    pub fn bytes(&self) -> usize {
        let whole: usize = (self.whole.iter())
            .map(|w| {
                let name = 2 * size_of::<usize>() + w.name.as_str().len();
                name + w.providers.capacity() * size_of::<ProviderInfo>()
            })
            .sum();
        self.ids.capacity() * size_of::<NodeId>()
            + self.records.capacity() * size_of::<NodeInfo>()
            + self.expiry.capacity() * EXPIRY_BYTES
            + self.pairs.capacity() * PAIR_BYTES
            + self.whole.capacity() * size_of::<Whole>()
            + whole
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use marea_presentation::DataType;
    use marea_protocol::frames;
    use marea_protocol::messages::FunctionSig;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn name(s: &str) -> Name {
        Name::new(s).unwrap()
    }

    /// A directory whose owner the test never names: every node it hears
    /// of is remote.
    fn remote_only() -> Directory {
        Directory::for_node(NodeId(0))
    }

    /// Applies `node`'s catalogue and answers the digest now on record.
    fn announce(
        d: &mut Directory,
        node: NodeId,
        incarnation: u64,
        entries: &[AnnounceEntry],
        now: Micros,
    ) -> (u32, u32) {
        d.apply_announce(node, incarnation, entries, now);
        d.node(node).and_then(NodeInfo::catalogue_digest).expect("a catalogue on record")
    }

    /// A beacon for its liveness half: what it says of the catalogue is
    /// beside the point of the test.
    fn beat(d: &mut Directory, node: NodeId, incarnation: u64, load: u16, now: Micros) {
        d.apply_beacon(node, incarnation, load, (0, 0), now);
    }

    fn announce_storage(seq: u32) -> AnnounceEntry {
        AnnounceEntry {
            service_seq: seq,
            name: name("storage"),
            state: ServiceState::Running,
            provides: vec![Provision::Function {
                name: name("storage/store"),
                sig: FunctionSig { params: vec![DataType::Str], returns: Some(DataType::Bool) },
            }],
        }
    }

    /// The storage catalogue of a node whose service `seq` is in `state`.
    fn storage_in(seq: u32, state: ServiceState) -> AnnounceEntry {
        AnnounceEntry { state, ..announce_storage(seq) }
    }

    fn dir_with_two_storages() -> Directory {
        let mut d = remote_only();
        beat(&mut d, NodeId(2), 1, 0, Micros(0));
        beat(&mut d, NodeId(3), 1, 0, Micros(0));
        d.apply_announce(NodeId(2), 1, &[announce_storage(1)], Micros(0));
        d.apply_announce(NodeId(3), 1, &[announce_storage(1)], Micros(0));
        d
    }

    #[test]
    fn resolve_prefers_low_load() {
        let mut d = dir_with_two_storages();
        beat(&mut d, NodeId(2), 1, 800, Micros(1));
        beat(&mut d, NodeId(3), 1, 100, Micros(1));
        let p = d.resolve_function("storage/store", CallPolicy::Dynamic, None).unwrap();
        assert_eq!(p.service.node, NodeId(3), "lower load wins");
    }

    #[test]
    fn resolve_static_pin_and_fallback() {
        let mut d = dir_with_two_storages();
        let p =
            d.resolve_function("storage/store", CallPolicy::PreferNode(NodeId(3)), None).unwrap();
        assert_eq!(p.service.node, NodeId(3));
        // Pinned node dies: falls back to the survivor.
        d.apply_bye(NodeId(3));
        let p =
            d.resolve_function("storage/store", CallPolicy::PreferNode(NodeId(3)), None).unwrap();
        assert_eq!(p.service.node, NodeId(2));
    }

    #[test]
    fn exclude_skips_failed_provider() {
        let d = dir_with_two_storages();
        let first = d.resolve_function("storage/store", CallPolicy::Dynamic, None).unwrap();
        let second =
            d.resolve_function("storage/store", CallPolicy::Dynamic, Some(first.service)).unwrap();
        assert_ne!(first.service, second.service);
    }

    /// `providers` hands out an iterator and `resolve_function` walks it
    /// twice instead of collecting it: the order and the provider chosen
    /// are what the collected list gave, under every policy.
    #[test]
    fn resolution_order_and_choice_match_the_collected_list() {
        let mut d = dir_with_two_storages();
        // The variable below is listed only under a name in use.
        assert!(d.add_interest(&name("storage/store")).is_empty(), "no pair under the name");
        beat(&mut d, NodeId(4), 1, 0, Micros(0));
        beat(&mut d, NodeId(5), 1, 0, Micros(0));
        // Node 4 offers the name twice, once as a variable; node 5's
        // service is stopped.
        let variable = Provision::Variable {
            name: name("storage/store"),
            ty: DataType::Bool,
            period_us: 0,
            validity_us: 0,
        };
        let mut twice = announce_storage(2);
        twice.provides.insert(0, variable);
        d.apply_announce(NodeId(4), 1, &[twice], Micros(0));
        d.apply_announce(NodeId(5), 1, &[announce_storage(1)], Micros(0));
        d.apply_announce(NodeId(5), 1, &[storage_in(1, ServiceState::Stopped)], Micros(0));
        beat(&mut d, NodeId(2), 1, 300, Micros(1));
        beat(&mut d, NodeId(3), 1, 300, Micros(1));
        beat(&mut d, NodeId(4), 1, 100, Micros(1));

        let listed: Vec<&ProviderInfo> = d.providers("storage/store").collect();
        let ids: Vec<(u32, u32)> =
            listed.iter().map(|p| (p.service.node.0, p.service.seq)).collect();
        assert_eq!(ids, [(2, 1), (3, 1), (4, 2), (4, 2)], "announce order, available only");

        // The resolution as it was written over the collected list.
        let reference = |policy: CallPolicy, exclude: Option<ServiceId>| {
            let candidates: Vec<&&ProviderInfo> = listed
                .iter()
                .filter(|p| matches!(p.provision, Provision::Function { .. }))
                .filter(|p| Some(p.service) != exclude)
                .collect();
            if let CallPolicy::PreferNode(node) = policy {
                if let Some(p) = candidates.iter().find(|p| p.service.node == node) {
                    return Some(p.service);
                }
            }
            let load = |p: &ProviderInfo| d.node(p.service.node).map_or(0, |n| n.load_permille);
            let key = |p: &&&ProviderInfo| (load(p), p.service.node, p.service.seq);
            candidates.into_iter().min_by_key(key).map(|p| p.service)
        };
        let least_loaded = ServiceId::new(NodeId(4), 2);
        let policies = [
            CallPolicy::Dynamic,
            CallPolicy::PreferNode(NodeId(3)),
            CallPolicy::PreferNode(NodeId(5)),
            CallPolicy::PreferNode(NodeId(9)),
        ];
        for policy in policies {
            for exclude in [None, Some(least_loaded), Some(ServiceId::new(NodeId(3), 1))] {
                let chosen = d.resolve_function("storage/store", policy, exclude);
                assert_eq!(
                    chosen.map(|p| p.service),
                    reference(policy, exclude),
                    "{policy:?} excluding {exclude:?}"
                );
                assert!(chosen.is_some_and(|p| p.function_sig().is_some()));
            }
        }
        let dynamic = d.resolve_function("storage/store", CallPolicy::Dynamic, None);
        assert_eq!(dynamic.map(|p| p.service), Some(least_loaded));
        let after = d.resolve_function("storage/store", CallPolicy::Dynamic, Some(least_loaded));
        assert_eq!(after.map(|p| p.service), Some(ServiceId::new(NodeId(2), 1)), "tie: lower node");
        let pinned = d.resolve_function("storage/store", CallPolicy::PreferNode(NodeId(3)), None);
        assert_eq!(pinned.map(|p| p.service.node), Some(NodeId(3)));
    }

    #[test]
    fn heartbeat_timeout_purges_cache() {
        let mut d = dir_with_two_storages();
        beat(&mut d, NodeId(2), 1, 0, Micros::from_millis(900));
        // Node 3 silent since t=0; node 2 heartbeated at 900ms.
        let dead = d.expire(Micros::from_millis(2100), ProtoDuration::from_secs(2));
        assert_eq!(dead, vec![NodeId(3)]);
        assert!(!d.node_alive(NodeId(3)));
        let remaining: Vec<_> = d.providers("storage/store").collect();
        assert_eq!(remaining.len(), 1);
        assert_eq!(remaining[0].service.node, NodeId(2));
    }

    #[test]
    fn local_node_never_expires_and_next_expiry_tracks_the_heap_head() {
        let mut d = Directory::for_node(NodeId(1));
        beat(&mut d, NodeId(1), 1, 0, Micros(0));
        let timeout = ProtoDuration::from_secs(2);
        assert_eq!(d.next_expiry(timeout), None, "only the local node known");
        beat(&mut d, NodeId(2), 1, 0, Micros::from_millis(300));
        assert_eq!(d.next_expiry(timeout), Some(Micros::from_millis(2300)));
        // Refreshed peers leave a stale head: the bound is early, and the
        // sweep at that instant re-arms instead of expiring.
        beat(&mut d, NodeId(2), 1, 0, Micros::from_millis(1000));
        assert_eq!(d.next_expiry(timeout), Some(Micros::from_millis(2300)));
        assert!(d.expire(Micros::from_millis(2300), timeout).is_empty());
        assert_eq!(d.next_expiry(timeout), Some(Micros::from_millis(3000)));
        // Long silence: the peer dies, the local record stays.
        assert_eq!(d.expire(Micros::from_secs(60), timeout), vec![NodeId(2)]);
        assert!(d.node_alive(NodeId(1)));
        assert_eq!(d.next_expiry(timeout), None);
    }

    #[test]
    fn bye_is_immediate_purge() {
        let mut d = dir_with_two_storages();
        assert!(d.apply_bye(NodeId(2)));
        assert!(!d.node_alive(NodeId(2)));
        assert_eq!(d.providers("storage/store").count(), 1);
        assert!(!d.apply_bye(NodeId(2)), "gone already");
        assert!(!d.apply_bye(NodeId(9)), "never known");
    }

    #[test]
    fn status_change_hides_provider() {
        let mut d = dir_with_two_storages();
        let failed = [storage_in(1, ServiceState::Failed)];
        assert_eq!(d.apply_announce(NodeId(2), 1, &failed, Micros(1)), Life::Same);
        let ps: Vec<_> = d.providers("storage/store").collect();
        assert_eq!(ps.len(), 1);
        assert_eq!(ps[0].service.node, NodeId(3));
        // Degraded still counts as available (degraded mode, §4.3).
        let degraded = [storage_in(1, ServiceState::Degraded)];
        assert_eq!(d.apply_announce(NodeId(3), 1, &degraded, Micros(1)), Life::Same);
        assert_eq!(d.providers("storage/store").count(), 1);
        // The catalogue on record again changes nothing.
        assert_eq!(d.apply_announce(NodeId(2), 1, &failed, Micros(2)), Life::Same);
        assert_eq!(d.providers("storage/store").count(), 1);
        assert_eq!(d.node(NodeId(2)).unwrap().last_seen, Micros(2), "but proves life");
    }

    #[test]
    fn reboot_wipes_previous_incarnation() {
        let mut d = dir_with_two_storages();
        assert_eq!(d.providers("storage/store").count(), 2);
        // Node 2's next life is heard first through its beacon.
        let rebooted = d.apply_beacon(NodeId(2), 2, 0, (0, 0), Micros(100));
        assert_eq!(rebooted, BeaconOutcome::New { ended: true });
        assert_eq!(d.providers("storage/store").count(), 1);
        assert!(d.node_alive(NodeId(2)));
        // Node 3's next life is heard first through its catalogue: that
        // ends the old life too, and files the catalogue under the new one.
        let ended = d.apply_announce(NodeId(3), 2, &[announce_storage(4)], Micros(200));
        assert_eq!(ended, Life::New { ended: true });
        let info = d.node(NodeId(3)).unwrap();
        assert_eq!((info.incarnation, info.last_seen), (2, Micros(200)));
        let digest = (announce_hash(2, &[announce_storage(4)]), 1);
        assert_eq!(info.catalogue_digest(), Some(digest));
        let listed: Vec<ServiceId> = d.providers("storage/store").map(|p| p.service).collect();
        assert_eq!(listed, [ServiceId::new(NodeId(3), 4)], "the new life's service alone");
    }

    #[test]
    fn heartbeat_before_hello_creates_record() {
        let mut d = remote_only();
        beat(&mut d, NodeId(9), 1, 250, Micros(5));
        assert!(d.node_alive(NodeId(9)));
        assert_eq!(d.node(NodeId(9)).unwrap().load_permille, 250);
    }

    #[test]
    fn re_announce_replaces_not_duplicates() {
        let mut d = remote_only();
        beat(&mut d, NodeId(2), 1, 0, Micros(0));
        d.apply_announce(NodeId(2), 1, &[announce_storage(1)], Micros(0));
        d.apply_announce(NodeId(2), 1, &[announce_storage(1)], Micros(1));
        assert_eq!(d.providers("storage/store").count(), 1);
    }

    #[test]
    fn expire_rearms_refreshed_nodes_and_catches_them_later() {
        let mut d = dir_with_two_storages();
        // Both nodes refresh; their original heap entries are stale.
        beat(&mut d, NodeId(2), 1, 0, Micros::from_millis(1500));
        beat(&mut d, NodeId(3), 1, 0, Micros::from_millis(1800));
        // At 2.1s with a 2s timeout the t=0 entries pop but re-arm.
        assert!(d.expire(Micros::from_millis(2100), ProtoDuration::from_secs(2)).is_empty());
        assert!(d.node_alive(NodeId(2)) && d.node_alive(NodeId(3)));
        // Node 2 goes silent after 1.5s; the re-armed entry catches it.
        beat(&mut d, NodeId(3), 1, 0, Micros::from_millis(3000));
        let dead = d.expire(Micros::from_millis(3600), ProtoDuration::from_secs(2));
        assert_eq!(dead, vec![NodeId(2)]);
        assert!(d.providers("storage/store").count() == 1);
    }

    #[test]
    fn rejoin_after_bye_is_tracked_again() {
        let mut d = dir_with_two_storages();
        d.apply_bye(NodeId(3));
        beat(&mut d, NodeId(3), 2, 0, Micros::from_millis(100));
        // Silent after the rejoin: must still expire.
        beat(&mut d, NodeId(2), 1, 0, Micros::from_millis(2200));
        let dead = d.expire(Micros::from_millis(2300), ProtoDuration::from_secs(2));
        assert_eq!(dead, vec![NodeId(3)]);
    }

    /// The life rule over a plain `node -> (incarnation, last_seen)` table:
    /// what the directory must answer for a frame of life `incarnation`,
    /// with the table updated as the directory's records must be.
    fn judge(
        model: &mut BTreeMap<NodeId, (u64, Micros)>,
        node: NodeId,
        incarnation: u64,
        now: Micros,
    ) -> Life {
        let life = match model.get(&node) {
            Some(&(known, _)) if known > incarnation => return Life::Older,
            Some(&(known, _)) if known == incarnation => Life::Same,
            known => Life::New { ended: known.is_some() },
        };
        model.insert(node, (incarnation, now));
        life
    }

    /// The life half of a beacon's outcome.
    fn beacon_life(outcome: BeaconOutcome) -> Life {
        match outcome {
            BeaconOutcome::OlderLife => Life::Older,
            BeaconOutcome::New { ended } => Life::New { ended },
            BeaconOutcome::Refreshed | BeaconOutcome::Differs => Life::Same,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Only record creation queues a node for expiry. Over random
        /// control traffic, every tracked remote node keeps its one entry
        /// and `expire` names exactly the nodes a plain `last_seen` table
        /// — which needs no queue to keep — says have been silent too long.
        #[test]
        fn refreshes_never_need_to_requeue(
            ops in proptest::collection::vec((0u8..7, 1u32..6, 1u64..4, 0u64..900), 1..200),
        ) {
            let local = NodeId(1);
            let timeout = ProtoDuration::from_millis(2_000);
            let mut d = Directory::for_node(local);
            // node -> (incarnation, last_seen)
            let mut model: BTreeMap<NodeId, (u64, Micros)> = BTreeMap::new();
            let mut now = Micros::ZERO;
            for (op, node, incarnation, dt_ms) in ops {
                now += ProtoDuration::from_millis(dt_ms);
                let node = NodeId(node);
                match op {
                    0 => {
                        let life = d.apply_announce(node, incarnation, &[], now);
                        prop_assert_eq!(life, judge(&mut model, node, incarnation, now));
                    }
                    1 => {
                        let life = beacon_life(d.apply_beacon(node, incarnation, 0, (0, 0), now));
                        prop_assert_eq!(life, judge(&mut model, node, incarnation, now));
                    }
                    2 => {
                        let life = d.apply_announce(node, incarnation, &[announce_storage(1)], now);
                        prop_assert_eq!(life, judge(&mut model, node, incarnation, now));
                    }
                    3 => {
                        d.touch(node, now);
                        model.entry(node).and_modify(|e| e.1 = now);
                    }
                    4 => {
                        d.apply_bye(node);
                        model.remove(&node);
                    }
                    5 => {
                        // The same life rule, whatever the digest says.
                        let digest = (dt_ms as u32 % 2, 1);
                        let life = beacon_life(d.apply_beacon(node, incarnation, 0, digest, now));
                        prop_assert_eq!(life, judge(&mut model, node, incarnation, now));
                    }
                    _ => {
                        let silent = |seen: Micros| now.saturating_since(seen) >= timeout;
                        let dead: Vec<NodeId> = model
                            .iter()
                            .filter(|&(&n, &(_, seen))| n != local && silent(seen))
                            .map(|(&n, _)| n)
                            .collect();
                        model.retain(|n, _| !dead.contains(n));
                        prop_assert_eq!(d.expire(now, timeout), dead, "expire at {:?}", now);
                    }
                }
                prop_assert_eq!(d.nodes(), model.keys().copied().collect::<Vec<_>>());
                for n in (1..6).map(NodeId) {
                    prop_assert!(d.expiry.entries(&n) <= 1, "{:?} queued twice", n);
                }
                for n in d.nodes() {
                    let queued = n == local || d.expiry.entries(&n) == 1;
                    prop_assert!(queued, "{:?} tracked but not queued", n);
                    prop_assert_eq!(d.node(n).map(|i| i.last_seen), model.get(&n).map(|e| e.1));
                }
            }
        }
    }

    #[test]
    fn nodes_come_back_ascending_whatever_the_learning_order() {
        let mut d = remote_only();
        assert!(d.nodes().is_empty());
        for id in [9u32, 3, 7, 1, 8] {
            beat(&mut d, NodeId(id), 1, 0, Micros(0));
        }
        let ascending = [1u32, 3, 7, 8, 9].map(NodeId).to_vec();
        assert_eq!(d.nodes(), ascending);
        assert_eq!(d.node_count(), 5);
        // Node 7 alone stays silent, expires, and rejoins last.
        for id in [9u32, 3, 1, 8] {
            beat(&mut d, NodeId(id), 1, 0, Micros::from_secs(2));
        }
        assert_eq!(d.expire(Micros::from_secs(3), ProtoDuration::from_secs(2)), vec![NodeId(7)]);
        assert_eq!(d.nodes(), [1u32, 3, 8, 9].map(NodeId).to_vec());
        beat(&mut d, NodeId(7), 2, 0, Micros::from_secs(3));
        assert_eq!(d.nodes(), ascending);
    }

    #[test]
    fn catalogue_digest_matches_only_applied_catalogue() {
        use BeaconOutcome::{Differs, Refreshed};
        let pull = Differs;
        let mut d = remote_only();
        beat(&mut d, NodeId(2), 1, 0, Micros(0));
        let beacon = |d: &mut Directory, life, digest| {
            d.apply_beacon(NodeId(2), life, 0, digest, Micros(80))
        };
        assert_eq!(beacon(&mut d, 1, (0xAB, 1)), pull, "no announce applied yet");
        let (hash, count) = announce(&mut d, NodeId(2), 1, &[announce_storage(1)], Micros(0));
        assert_eq!((hash, count), (announce_hash(1, &[announce_storage(1)]), 1));
        assert_eq!(beacon(&mut d, 1, (hash, 1)), Refreshed);
        assert_eq!(beacon(&mut d, 1, (hash ^ 1, 1)), pull, "hash mismatch");
        assert_eq!(beacon(&mut d, 1, (hash, 2)), pull, "entry count mismatch");
        // A reboot wipes the digest along with the catalogue.
        beat(&mut d, NodeId(2), 2, 0, Micros(50));
        assert_eq!(beacon(&mut d, 2, (hash, 1)), pull);
        // A same-life beacon that disagrees leaves it held: the pull
        // replaces it.
        let held = announce(&mut d, NodeId(2), 2, &[announce_storage(1)], Micros(60));
        assert_ne!(held, (hash, 1), "the digest covers the incarnation");
        beat(&mut d, NodeId(2), 2, 0, Micros(70));
        assert_eq!(beacon(&mut d, 2, held), Refreshed);
    }

    #[test]
    fn announce_before_hello_creates_the_record_its_digest_is_filed_under() {
        let mut d = Directory::for_node(NodeId(1));
        let digest = announce(&mut d, NodeId(2), 3, &[announce_storage(1)], Micros(5));
        let info = d.node(NodeId(2)).expect("known from its announce");
        assert_eq!((info.incarnation, info.last_seen), (3, Micros(5)));
        assert_eq!(info.catalogue_digest(), Some(digest));
        assert_eq!(d.providers("storage/store").count(), 1, "and its catalogue resolves");
        // The beacon behind it has nothing to add.
        let refreshed = d.apply_beacon(NodeId(2), 3, 0, digest, Micros(6));
        assert_eq!(refreshed, BeaconOutcome::Refreshed);
        // Such a record has a lifetime like any other.
        let timeout = ProtoDuration::from_secs(2);
        assert_eq!(d.expire(Micros(6) + timeout, timeout), vec![NodeId(2)]);
        assert_eq!(d.provision_count(), 0);
    }

    #[test]
    fn every_beacon_outcome_leaves_the_record_it_names() {
        use BeaconOutcome::*;
        let n2 = NodeId(2);
        let mut d = dir_with_two_storages();
        let digest = d.node(n2).unwrap().catalogue_digest().unwrap();

        // The steady state: liveness and load move, nothing else.
        assert_eq!(d.apply_beacon(n2, 1, 300, digest, Micros(10)), Refreshed);
        let info = d.node(n2).unwrap();
        assert_eq!((info.last_seen, info.load_permille), (Micros(10), 300));
        assert_eq!(d.providers("storage/store").count(), 2);

        // An older life is ignored outright: not even proof of life.
        beat(&mut d, n2, 5, 0, Micros(20));
        let digest = announce(&mut d, n2, 5, &[announce_storage(1)], Micros(20));
        assert_eq!(d.apply_beacon(n2, 4, 999, (0, 0), Micros(30)), OlderLife);
        let info = d.node(n2).unwrap();
        assert_eq!((info.incarnation, info.last_seen, info.load_permille), (5, Micros(20), 0));
        assert_eq!(info.catalogue_digest(), Some(digest));

        // A digest mismatch is reported, and leaves the held catalogue
        // alone: the pull replaces it.
        assert_eq!(d.apply_beacon(n2, 5, 0, (digest.0 ^ 1, 1), Micros(41)), Differs);
        assert_eq!(d.node(n2).unwrap().catalogue_digest(), Some(digest));
        assert_eq!(d.node(n2).unwrap().last_seen, Micros(41));
        assert_eq!(d.providers("storage/store").count(), 2);

        // A newer life ends the old one: everything cached from it goes.
        assert_eq!(d.apply_beacon(n2, 6, 70, digest, Micros(50)), New { ended: true });
        let info = d.node(n2).unwrap();
        assert_eq!((info.incarnation, info.last_seen, info.load_permille), (6, Micros(50), 70));
        assert_eq!(info.catalogue_digest(), None);
        assert_eq!(d.providers("storage/store").count(), 1, "node 3's only");

        // An unknown node gets a minimal record, queued for expiry.
        assert_eq!(d.apply_beacon(NodeId(9), 1, 250, digest, Micros(60)), New { ended: false });
        let info = d.node(NodeId(9)).unwrap();
        assert_eq!((info.load_permille, info.catalogue_digest()), (250, None));
        let later = Micros(60) + ProtoDuration::from_secs(2);
        assert!(d.expire(later, ProtoDuration::from_secs(2)).contains(&NodeId(9)));
    }

    /// A peer that leaves and rejoins 10 000 times inside one
    /// `node_timeout` keeps one expiry entry: a `Bye` leaves its entry
    /// behind, and each rejoin's is no earlier, so it arms nothing new.
    #[test]
    fn bye_hello_churn_keeps_one_expiry_entry() {
        let timeout = ProtoDuration::from_secs(2);
        let mut d = Directory::for_node(NodeId(1));
        for i in 0..10_000 {
            let rejoined = d.apply_beacon(NodeId(2), 1, 0, (0, 0), Micros(i * 100));
            assert_eq!(rejoined, BeaconOutcome::New { ended: false });
            assert!(d.apply_bye(NodeId(2)));
        }
        beat(&mut d, NodeId(2), 1, 0, Micros::from_secs(1));
        assert_eq!(d.expiry.entries(&NodeId(2)), 1);
        assert_eq!(
            d.next_expiry(timeout),
            Some(Micros::from_secs(2)),
            "the first life's entry, early"
        );
        assert!(d.expire(Micros::from_millis(2999), timeout).is_empty(), "the rejoin's is live");
        assert_eq!(d.expire(Micros::from_secs(3), timeout), vec![NodeId(2)]);
        assert_eq!(d.expiry.entries(&NodeId(2)), 0);
    }

    /// A beacon that sat in a slow link's queue across its sender's
    /// restart must not roll the record back: the live node's next beacon
    /// would read as a new life and purge the catalogue it just announced.
    #[test]
    fn a_hello_from_an_older_life_is_ignored() {
        let n2 = NodeId(2);
        let mut d = remote_only();
        let first = d.apply_beacon(n2, 2, 0, (0, 0), Micros(0));
        assert_eq!(first, BeaconOutcome::New { ended: false });
        let digest = announce(&mut d, n2, 2, &[announce_storage(1)], Micros(1));

        let delayed = d.apply_beacon(n2, 1, 0, (0, 0), Micros(2));
        assert_eq!(delayed, BeaconOutcome::OlderLife);
        let info = d.node(n2).unwrap();
        assert_eq!(info.incarnation, 2);
        assert_eq!((info.catalogue_digest(), info.last_seen), (Some(digest), Micros(1)));
        assert_eq!(d.providers("storage/store").count(), 1);
        assert_eq!(d.apply_beacon(n2, 2, 0, digest, Micros(3)), BeaconOutcome::Refreshed);
        assert_eq!(d.providers("storage/store").count(), 1);

        // The same life again and a newer one are both applied.
        assert_eq!(d.apply_announce(n2, 2, &[announce_storage(1)], Micros(4)), Life::Same);
        assert_eq!(d.node(n2).unwrap().catalogue_digest(), Some(digest));
        let rebooted = d.apply_beacon(n2, 3, 0, digest, Micros(5));
        assert_eq!(rebooted, BeaconOutcome::New { ended: true });
        assert_eq!(d.node(n2).unwrap().catalogue_digest(), None);
        assert_eq!(d.providers("storage/store").count(), 0);
    }

    /// Most names have one provider: a whole entry's list may hold no
    /// room for more than it lists.
    #[test]
    fn one_provision_announces_allocate_what_they_list() {
        let mut d = remote_only();
        for node in 1..=256u32 {
            d.add_interest(&name(&format!("node{node}/alarm")));
        }
        for node in 1..=256u32 {
            let entry = AnnounceEntry {
                provides: vec![Provision::Event {
                    name: name(&format!("node{node}/alarm")),
                    ty: None,
                }],
                ..announce_storage(1)
            };
            d.apply_announce(NodeId(node), 1, &[entry], Micros(0));
        }
        let providers = d.whole.iter().map(|w| (w.providers.len(), w.providers.capacity()));
        let sizes = providers.fold((0, 0), |(l, c), (len, cap)| (l + len, c + cap));
        assert_eq!(sizes, (256, 256), "256 provider lists, all full");
        assert_eq!(d.pair_count(), 0);
    }

    #[test]
    fn kind_filters_apply() {
        let mut d = remote_only();
        for used in ["gps/position", "gps/fix-lost", "gps/almanac"] {
            d.add_interest(&name(used));
        }
        beat(&mut d, NodeId(2), 1, 0, Micros(0));
        d.apply_announce(
            NodeId(2),
            1,
            &[AnnounceEntry {
                service_seq: 1,
                name: name("gps"),
                state: ServiceState::Running,
                provides: vec![
                    Provision::Variable {
                        name: name("gps/position"),
                        ty: DataType::F64,
                        period_us: 50_000,
                        validity_us: 100_000,
                    },
                    Provision::Event { name: name("gps/fix-lost"), ty: None },
                    Provision::FileResource { name: name("gps/almanac") },
                ],
            }],
            Micros(0),
        );
        assert!(d.resolve_variable("gps/position").is_some());
        assert!(d.resolve_event("gps/fix-lost").is_some());
        assert!(d.resolve_file("gps/almanac").is_some());
        assert!(d.resolve_function("gps/position", CallPolicy::Dynamic, None).is_none());
        assert_eq!(d.provision_count(), 3);
    }

    /// A provision no local service uses is a pair: counted among the
    /// names heard, resolved by nothing. An interest in its name answers
    /// the remote nodes holding a pair under its hash, in id order, and
    /// forgets their catalogue digests, so their beacons pull until their
    /// catalogues are applied again, which files it whole. A name shared by
    /// two providers is heard until the last of them goes.
    #[test]
    fn a_provision_not_in_use_is_a_pair_until_its_name_is() {
        let alarm = |seq| AnnounceEntry {
            provides: vec![Provision::Event { name: name("fleet/alarm"), ty: None }],
            ..announce_storage(seq)
        };
        let mut d = Directory::for_node(NodeId(1));
        for node in [3, 1, 2].map(NodeId) {
            d.apply_announce(node, 1, &[alarm(1)], Micros(0));
        }
        assert_eq!((d.provision_count(), d.pair_count()), (1, 2), "this node's own is whole");
        assert_eq!(
            d.providers("fleet/alarm").map(|p| p.service.node).collect::<Vec<_>>(),
            [NodeId(1)]
        );

        let digest = |d: &Directory, node| d.node(NodeId(node)).unwrap().catalogue_digest();
        let held = digest(&d, 2);
        assert_eq!(d.add_interest(&name("fleet/alarm")), [NodeId(2), NodeId(3)]);
        assert!(d.add_interest(&name("fleet/alarm")).is_empty(), "in use already");
        assert!(d.add_interest(&name("fleet/other")).is_empty(), "no pair under its hash");
        assert_eq!((digest(&d, 2), digest(&d, 3)), (None, None), "a beacon pulls again");
        assert!(digest(&d, 1).is_some(), "this node's own stays");
        let pull = BeaconOutcome::Differs;
        assert_eq!(d.apply_beacon(NodeId(2), 1, 0, held.unwrap(), Micros(1)), pull);
        for node in [2, 3].map(NodeId) {
            d.apply_announce(node, 1, &[alarm(1)], Micros(1));
        }
        assert_eq!(digest(&d, 2), held);
        let listed: Vec<NodeId> = d.providers("fleet/alarm").map(|p| p.service.node).collect();
        assert_eq!(listed, [1, 2, 3].map(NodeId));
        assert_eq!((d.provision_count(), d.pair_count()), (1, 0));

        d.apply_bye(NodeId(2));
        d.apply_bye(NodeId(3));
        assert_eq!(d.provision_count(), 1, "node 1 still provides it");
        d.apply_announce(NodeId(1), 1, &[], Micros(2));
        assert_eq!(d.provision_count(), 0);
        assert_eq!(d.whole_count(), 2, "both names in use stay, with no provider");
    }

    /// A large fleet holds one record per node in every directory.
    #[test]
    fn a_record_is_thirty_two_bytes() {
        assert!(std::mem::size_of::<NodeInfo>() <= 32, "{}", std::mem::size_of::<NodeInfo>());
    }

    fn beacon_wire(node: NodeId, incarnation: u64, load: u16, digest: (u32, u32)) -> Bytes {
        let (catalogue_hash, entry_count) = digest;
        let beacon =
            Message::Beacon { incarnation, load_permille: load, entry_count, catalogue_hash };
        beacon.into_frame(node).encode()
    }

    /// What the container makes of a datagram of one frame without the
    /// repeat check: the frame check and the decode, then a `touch` for
    /// another kind, or `apply_beacon` — and `keep_beacon` on `Refreshed` —
    /// for a beacon.
    fn full_path(d: &mut Directory, wire: &Bytes, now: Micros) -> Option<BeaconOutcome> {
        let mut walk = frames(wire);
        let unchecked = walk.peek()?;
        let frame = walk.next()?.ok()?;
        let src = frame.header().src;
        let Ok(Message::Beacon { incarnation, load_permille, entry_count, catalogue_hash }) =
            Message::from_frame(&frame)
        else {
            if frame.header().kind != MessageKind::Beacon {
                d.touch(src, now);
            }
            return None;
        };
        let digest = (catalogue_hash, entry_count);
        let outcome = d.apply_beacon(src, incarnation, load_permille, digest, now);
        if outcome == BeaconOutcome::Refreshed {
            d.keep_beacon(unchecked);
        }
        Some(outcome)
    }

    fn repeat(d: &mut Directory, wire: &Bytes, now: Micros) -> bool {
        frames(wire).peek().is_some_and(|frame| d.repeat_beacon(frame, now))
    }

    #[test]
    fn a_beacon_repeats_while_its_record_says_what_it_said() {
        let n2 = NodeId(2);
        let mut d = remote_only();
        beat(&mut d, n2, 1, 0, Micros(0));
        assert!(!repeat(&mut d, &beacon_wire(n2, 1, 0, (0, 0)), Micros(1)), "no catalogue");
        let digest = announce(&mut d, n2, 1, &[announce_storage(1)], Micros(0));
        let first = beacon_wire(n2, 1, 0, digest);
        assert!(!repeat(&mut d, &first, Micros(1)), "nothing kept before a Refreshed");
        assert_eq!(full_path(&mut d, &first, Micros(1)), Some(BeaconOutcome::Refreshed));
        assert!(repeat(&mut d, &first, Micros(2)));
        assert_eq!(d.node(n2).unwrap().last_seen, Micros(2));

        // A load change is a new beacon: it is checked and kept in turn,
        // and the old one is no longer a repeat.
        let loaded = beacon_wire(n2, 1, 300, digest);
        assert!(!repeat(&mut d, &loaded, Micros(3)));
        assert_eq!(full_path(&mut d, &loaded, Micros(3)), Some(BeaconOutcome::Refreshed));
        assert!(!repeat(&mut d, &first, Micros(4)));
        assert!(repeat(&mut d, &loaded, Micros(5)));

        // Any other write to the record forgets the CRC.
        d.apply_announce(n2, 1, &[announce_storage(1)], Micros(6));
        assert!(!repeat(&mut d, &loaded, Micros(7)), "announce");
        assert_eq!(full_path(&mut d, &loaded, Micros(7)), Some(BeaconOutcome::Refreshed));
        beat(&mut d, n2, 1, 0, Micros(8));
        assert!(!repeat(&mut d, &loaded, Micros(9)), "a beacon that disagrees");

        // A CRC of 0 is never kept (the keep trusts its caller's check).
        let mut zero = first.to_vec();
        zero[12..16].fill(0);
        let zero = Bytes::from(zero);
        d.keep_beacon(frames(&zero).peek().unwrap());
        assert!(!repeat(&mut d, &zero, Micros(10)));
        assert_eq!(d.node(n2).unwrap().last_seen, Micros(8));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Two directories take the same control traffic; one of them
        /// tries every received frame as a repeat first. A repeat is
        /// answered only where the full path answers `Refreshed`, and it
        /// leaves every record field for field as the full path does — the
        /// kept CRC included. The frames are the senders' own, replays of
        /// earlier ones, replays with a bit flipped, the source rewritten
        /// or the kind byte rewritten, and the record's own beacon under
        /// an earlier frame's CRC.
        #[test]
        fn a_repeat_is_what_the_full_path_makes_of_the_frame(
            ops in proptest::collection::vec(
                (0u8..11, 1u32..4, 1u64..3, any::<u16>(), 0u64..900),
                1..160,
            ),
        ) {
            let (mut fast, mut full) = (remote_only(), remote_only());
            let mut sent: Vec<Bytes> = Vec::new();
            let mut now = Micros::ZERO;
            for (op, node_id, incarnation, pick, dt_ms) in ops {
                now += ProtoDuration::from_millis(dt_ms);
                let node = NodeId(node_id);
                let replayed = sent.get(usize::from(pick) % sent.len().max(1)).map(|w| w.to_vec());
                let received = match op {
                    // A beacon applied without its frame: nothing kept.
                    0 => {
                        let load = if pick % 2 == 0 { 0 } else { 500 };
                        fast.apply_beacon(node, incarnation, load, (0, 0), now);
                        full.apply_beacon(node, incarnation, load, (0, 0), now);
                        None
                    }
                    1 => {
                        let entries = [announce_storage(1 + u32::from(pick % 2))];
                        fast.apply_announce(node, incarnation, &entries, now);
                        full.apply_announce(node, incarnation, &entries, now);
                        None
                    }
                    2 => {
                        // Mostly what the record holds, so `Refreshed` is
                        // common; now and then anything.
                        let held = full.node(node);
                        let (life, digest) = match held {
                            Some(i) if pick % 4 != 0 => {
                                (i.incarnation, i.catalogue_digest().unwrap_or((0, 0)))
                            }
                            _ => (incarnation, (u32::from(pick), 1)),
                        };
                        let load = if pick & 0x10 == 0 { 0 } else { 500 };
                        let wire = beacon_wire(node, life, load, digest);
                        sent.push(wire.clone());
                        Some(wire)
                    }
                    3 => replayed.map(Bytes::from),
                    4 => replayed.map(|mut w| {
                        let at = usize::from(pick >> 3) % w.len();
                        w[at] ^= 1 << (pick % 8);
                        Bytes::from(w)
                    }),
                    5 => replayed.map(|mut w| {
                        w[4..8].copy_from_slice(&node_id.to_le_bytes());
                        Bytes::from(w)
                    }),
                    6 => replayed.map(|mut w| {
                        w[3] = (pick % 26) as u8;
                        Bytes::from(w)
                    }),
                    7 => {
                        fast.touch(node, now);
                        full.touch(node, now);
                        None
                    }
                    8 => {
                        let timeout = ProtoDuration::from_millis(2_000);
                        prop_assert_eq!(fast.expire(now, timeout), full.expire(now, timeout));
                        None
                    }
                    // What the record says now under an earlier frame's
                    // CRC field: checked once only if that CRC is this
                    // body's.
                    9 => full.node(node).and_then(NodeInfo::beacon).zip(replayed).map(|(b, old)| {
                        let mut w = b.into_frame(node).encode().to_vec();
                        w[12..16].copy_from_slice(&old[12..16]);
                        Bytes::from(w)
                    }),
                    _ => {
                        prop_assert_eq!(fast.apply_bye(node), full.apply_bye(node));
                        None
                    }
                };
                if let Some(wire) = received {
                    let outcome = full_path(&mut full, &wire, now);
                    if repeat(&mut fast, &wire, now) {
                        prop_assert_eq!(outcome, Some(BeaconOutcome::Refreshed), "{:02x?}", &wire[..]);
                    } else {
                        full_path(&mut fast, &wire, now);
                    }
                }
                prop_assert_eq!((&fast.ids, &fast.records), (&full.ids, &full.records));
            }
        }
    }
}
