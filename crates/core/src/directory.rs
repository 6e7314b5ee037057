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
//! Every container owns a [`Directory`] fed by `Hello`/`Announce`/
//! `ServiceStatus`/`Beacon`/`Bye` traffic. Lookups resolve provision
//! names to live providers; node death (silence timeout or `Bye`) purges
//! everything learned from that node — the cache invalidation the paper
//! describes.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap, HashSet};
use std::sync::OnceLock;

use marea_presentation::Name;
use marea_protocol::messages::{
    announce_hash, AnnounceEntry, FunctionSig, Provision, ServiceState,
};
use marea_protocol::{Micros, NodeId, ProtoDuration, ServiceId};

use crate::service::CallPolicy;

/// One provider of a named provision.
#[derive(Debug, Clone)]
pub struct ProviderInfo {
    /// The providing service instance.
    pub service: ServiceId,
    /// The providing service's name.
    pub service_name: Name,
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

/// Liveness record of a remote (or the local) node.
#[derive(Debug, Clone)]
pub struct NodeInfo {
    /// Container name advertised in `Hello`.
    pub container: Name,
    /// Restart counter.
    pub incarnation: u64,
    /// Receive time of the node's last CRC-valid frame of any kind.
    pub last_seen: Micros,
    /// Advertised scheduler load (permille).
    pub load_permille: u16,
    /// FEC capability wire tag advertised in `Hello` (0 = FEC off).
    pub fec_cap: u8,
    /// Digest of the node's last applied full catalogue announce:
    /// `(announce_hash, entry_count)`. `None` until an announce is seen —
    /// a beacon received in that state always mismatches, which is what
    /// pulls the catalogue.
    pub catalogue_digest: Option<(u32, u32)>,
}

/// What a beacon changed, beyond refreshing its sender's liveness and
/// load ([`Directory::apply_beacon`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BeaconOutcome {
    /// Same life, same FEC capability, same catalogue digest: the steady
    /// state, nothing else to do.
    Refreshed,
    /// From a life older than the one known: ignored.
    OlderLife,
    /// No record of the node (its `Hello` was lost): a minimal one was
    /// created, with no catalogue.
    Unknown,
    /// A newer life (its `Hello` was lost): the record was reset and
    /// everything cached from the old life dropped.
    NewLife,
    /// Same life, but what is held differs (no catalogue differs from any).
    Differs {
        /// The FEC capability changed; the record now holds the new one.
        cap: bool,
        /// The catalogue held is not the one the node has.
        digest: bool,
    },
}

/// The container name filed for a node heard before its `Hello`: one
/// shared allocation, however many such nodes a large fleet's bring-up has.
fn unknown_container() -> Option<Name> {
    static UNKNOWN: OnceLock<Option<Name>> = OnceLock::new();
    UNKNOWN.get_or_init(|| Name::new("unknown").ok()).clone()
}

/// The per-container name directory / proxy cache.
#[derive(Debug, Default)]
pub struct Directory {
    providers: BTreeMap<Name, Vec<ProviderInfo>>,
    /// Ordered: [`Directory::nodes`] hands the ids to callers that send
    /// per node, so the walk order must not depend on a hasher.
    nodes: BTreeMap<NodeId, NodeInfo>,
    /// Provision names each node currently offers — the purge index that
    /// keeps announce application O(own catalogue) instead of a walk over
    /// every name known fleet-wide.
    node_provides: HashMap<NodeId, Vec<Name>>,
    /// Lazy expiry heap over `(last_seen, node)`. At most one live entry
    /// per node (`expiry_scheduled` tracks membership): a popped entry
    /// whose node has been refreshed since re-arms itself at the fresher
    /// `last_seen`, so the per-tick failure-detection sweep peeks one heap
    /// entry instead of sorting every known node.
    expiry: BinaryHeap<Reverse<(Micros, NodeId)>>,
    expiry_scheduled: HashSet<NodeId>,
    /// The owning container's node. It is never queued for expiry — a
    /// container does not time itself out — so its own liveness needs no
    /// per-tick refresh.
    local: Option<NodeId>,
}

impl Directory {
    /// Creates an empty directory.
    pub fn new() -> Self {
        Directory::default()
    }

    /// Creates the directory of the container on `local`: that node's own
    /// record is exempt from heartbeat-timeout expiry.
    pub fn for_node(local: NodeId) -> Self {
        Directory { local: Some(local), ..Directory::default() }
    }

    /// Records a node `Hello` (new or rebooted container) and answers
    /// `true` — or ignores it and answers `false` when it comes from a life
    /// older than the one known: a frame that sat in a slow link's queue
    /// across the node's restart says nothing about the node as it is now.
    ///
    /// A higher incarnation than previously known wipes the node's cached
    /// provisions: they belong to the previous life.
    pub fn apply_hello(
        &mut self,
        node: NodeId,
        container: Name,
        incarnation: u64,
        fec_cap: u8,
        now: Micros,
    ) -> bool {
        // A re-Hello at the same incarnation keeps the catalogue (and its
        // digest); a new life starts with no catalogue known.
        let catalogue_digest = match self.nodes.get(&node) {
            Some(known) if known.incarnation > incarnation => return false,
            Some(known) if known.incarnation == incarnation => known.catalogue_digest,
            Some(_) => {
                self.purge_node(node);
                None
            }
            None => None,
        };
        self.nodes.insert(
            node,
            NodeInfo {
                container,
                incarnation,
                last_seen: now,
                load_permille: 0,
                fec_cap,
                catalogue_digest,
            },
        );
        self.schedule_expiry(node, now);
        true
    }

    /// Records a beacon. The steady state — same life, same capability,
    /// same digest: nothing but `last_seen` and the load moves — is
    /// answered from the one lookup. A beacon refreshes the FEC capability
    /// too (it carries the same claim as `Hello`), so a node that missed
    /// the peer's `Hello` — attached late, lossy bring-up — converges on
    /// the advertised cap within one beacon period.
    pub fn apply_beacon(
        &mut self,
        node: NodeId,
        incarnation: u64,
        load_permille: u16,
        fec_cap: u8,
        digest: (u32, u32),
        now: Micros,
    ) -> BeaconOutcome {
        let previous = match self.nodes.get_mut(&node) {
            Some(info) if info.incarnation == incarnation => {
                info.last_seen = now;
                info.load_permille = load_permille;
                let cap = std::mem::replace(&mut info.fec_cap, fec_cap) != fec_cap;
                let digest = info.catalogue_digest != Some(digest);
                debug_assert!(self.expiry_queued(node));
                return if cap || digest {
                    BeaconOutcome::Differs { cap, digest }
                } else {
                    BeaconOutcome::Refreshed
                };
            }
            Some(info) if info.incarnation > incarnation => return BeaconOutcome::OlderLife,
            // Missed the Hello of a reboot: resync, under the name known.
            Some(info) => Some(info.container.clone()),
            // Beacon before Hello (lost datagram): a minimal record so
            // liveness tracking works; an Announce will fill it.
            None => None,
        };
        let outcome =
            if previous.is_some() { BeaconOutcome::NewLife } else { BeaconOutcome::Unknown };
        let Some(container) = previous.or_else(unknown_container) else {
            return outcome;
        };
        self.purge_node(node);
        self.nodes.insert(
            node,
            NodeInfo {
                container,
                incarnation,
                last_seen: now,
                load_permille,
                fec_cap,
                catalogue_digest: None,
            },
        );
        self.schedule_expiry(node, now);
        outcome
    }

    /// The owning container's load figure moved (its own record takes no
    /// beacons).
    pub fn set_load(&mut self, node: NodeId, load_permille: u16) {
        if let Some(info) = self.nodes.get_mut(&node) {
            info.load_permille = load_permille;
        }
    }

    /// Replaces everything known about `node`'s services with the announce
    /// of its life `incarnation`, and answers the digest now held for it.
    pub fn apply_announce(
        &mut self,
        node: NodeId,
        incarnation: u64,
        entries: &[AnnounceEntry],
        now: Micros,
    ) -> (u32, u32) {
        if !self.nodes.contains_key(&node) {
            // Announce before Hello (lost datagram): the record a beacon
            // from an unknown node creates — no load, FEC off until a real
            // one says what the node can do — so that the catalogue has a
            // digest to be filed under and a lifetime.
            self.apply_beacon(node, incarnation, 0, 0, (0, 0), now);
        }
        self.purge_node_providers(node);
        let digest = (announce_hash(incarnation, entries), entries.len() as u32);
        if let Some(info) = self.nodes.get_mut(&node) {
            info.last_seen = now;
            info.catalogue_digest = Some(digest);
            debug_assert!(self.expiry_queued(node));
        }
        // Exact capacities: most names have one provider and most nodes a
        // handful of names, where `Vec`'s first growth step would reserve
        // four times what the list holds — a third of a large fleet's heap.
        let mut names: Vec<Name> =
            Vec::with_capacity(entries.iter().map(|e| e.provides.len()).sum());
        for entry in entries {
            for provision in &entry.provides {
                let name = provision.name().clone();
                let list =
                    self.providers.entry(name.clone()).or_insert_with(|| Vec::with_capacity(1));
                list.push(ProviderInfo {
                    service: ServiceId::new(node, entry.service_seq),
                    service_name: entry.name.clone(),
                    state: entry.state,
                    provision: provision.clone(),
                });
                names.push(name);
            }
        }
        // Deterministic resolution order — only the touched lists re-sort.
        for name in &names {
            if let Some(list) = self.providers.get_mut(name) {
                list.sort_by_key(|p| (p.service.node, p.service.seq));
            }
        }
        names.sort_unstable();
        names.dedup();
        names.shrink_to_fit();
        if names.is_empty() {
            self.node_provides.remove(&node);
        } else {
            self.node_provides.insert(node, names);
        }
        digest
    }

    /// Applies a single service state change: under the names `node`
    /// provides, not under every name known fleet-wide.
    pub fn apply_status(&mut self, node: NodeId, service_seq: u32, state: ServiceState) {
        let id = ServiceId::new(node, service_seq);
        for name in self.node_provides.get(&node).into_iter().flatten() {
            for p in self.providers.get_mut(name).into_iter().flatten() {
                if p.service == id {
                    p.state = state;
                }
            }
        }
    }

    /// Handles a graceful `Bye`: immediate purge. `false` when the node
    /// was not known — a stranger, or one already expired — so nothing
    /// left.
    pub fn apply_bye(&mut self, node: NodeId) -> bool {
        let known = self.nodes.remove(&node).is_some();
        self.purge_node_providers(node);
        known
    }

    /// Drops nodes silent for longer than `timeout`; returns who died.
    ///
    /// This is the failure-detection sweep: every returned node's cached
    /// provisions were purged ("the containers are able to clear and update
    /// their caches").
    pub fn expire(&mut self, now: Micros, timeout: ProtoDuration) -> Vec<NodeId> {
        let mut dead: Vec<NodeId> = Vec::new();
        while let Some(&Reverse((seen, node))) = self.expiry.peek() {
            if now.saturating_since(seen) < timeout {
                break;
            }
            self.expiry.pop();
            match self.nodes.get(&node) {
                Some(info) if info.last_seen > seen => {
                    // Refreshed since queued: re-arm at the fresher deadline.
                    self.expiry.push(Reverse((info.last_seen, node)));
                }
                Some(_) => {
                    self.expiry_scheduled.remove(&node);
                    dead.push(node);
                    self.purge_node(node);
                }
                None => {
                    // Left via `Bye` while still queued: drop the entry.
                    self.expiry_scheduled.remove(&node);
                }
            }
        }
        // Stable order: callers react to each death with sends/failovers,
        // which must not depend on heap pop order among equal deadlines.
        dead.sort_unstable();
        dead
    }

    /// The earliest instant at which [`expire`](Self::expire) can have
    /// work under `timeout`: the head of the expiry heap. The head may
    /// belong to a node refreshed since it was queued (the sweep then just
    /// re-arms it), so this can be early — never late. `None` while no
    /// remote node is tracked.
    pub fn next_expiry(&self, timeout: ProtoDuration) -> Option<Micros> {
        self.expiry.peek().map(|&Reverse((seen, _))| seen + timeout)
    }

    fn purge_node(&mut self, node: NodeId) {
        self.nodes.remove(&node);
        self.purge_node_providers(node);
    }

    fn purge_node_providers(&mut self, node: NodeId) {
        let Some(names) = self.node_provides.remove(&node) else { return };
        for name in names {
            if let Some(list) = self.providers.get_mut(&name) {
                list.retain(|p| p.service.node != node);
                if list.is_empty() {
                    self.providers.remove(&name);
                }
            }
        }
    }

    /// Queues `node` on the expiry heap if it is not already there (a
    /// `Bye` leaves the entry behind, and a rejoin reuses it). Called
    /// wherever a [`NodeInfo`] is created and nowhere else: the heap holds
    /// at most one entry per node, and a refresh of `last_seen` is absorbed
    /// by the re-arm-on-pop in [`Directory::expire`], so it has nothing to
    /// queue — see [`Directory::expiry_queued`].
    fn schedule_expiry(&mut self, node: NodeId, last_seen: Micros) {
        if self.local != Some(node) && self.expiry_scheduled.insert(node) {
            self.expiry.push(Reverse((last_seen, node)));
        }
    }

    /// The invariant the refresh paths lean on: every tracked remote node
    /// has its heap entry. A node leaves `expiry_scheduled` only when
    /// [`Directory::expire`] finds it gone from (or removes it from)
    /// `nodes`.
    fn expiry_queued(&self, node: NodeId) -> bool {
        self.local == Some(node) || self.expiry_scheduled.contains(&node)
    }

    /// Refreshes a known `node`'s liveness: any CRC-valid frame from it
    /// is proof of life. An unknown node stays unknown.
    pub fn touch(&mut self, node: NodeId, now: Micros) {
        if let Some(info) = self.nodes.get_mut(&node) {
            info.last_seen = now;
            debug_assert!(self.expiry_queued(node));
        }
    }

    /// `true` while the node is considered alive.
    pub fn node_alive(&self, node: NodeId) -> bool {
        self.nodes.contains_key(&node)
    }

    /// Liveness record for a node.
    pub fn node(&self, node: NodeId) -> Option<&NodeInfo> {
        self.nodes.get(&node)
    }

    /// All known nodes in id order.
    pub fn nodes(&self) -> Vec<NodeId> {
        self.nodes.keys().copied().collect()
    }

    /// Number of known nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Every *available* provider of `name` (any provision kind), in
    /// deterministic order.
    pub fn providers<'a>(&'a self, name: &str) -> impl Iterator<Item = &'a ProviderInfo> {
        let listed = self.providers.get(name).into_iter().flatten();
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
            let load = self.nodes.get(&p.service.node).map(|n| n.load_permille).unwrap_or(0);
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

    /// Number of distinct provision names known.
    pub fn provision_count(&self) -> usize {
        self.providers.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use marea_presentation::DataType;
    use marea_protocol::messages::FunctionSig;
    use proptest::prelude::*;

    fn name(s: &str) -> Name {
        Name::new(s).unwrap()
    }

    /// A beacon for its liveness half: what it says of the catalogue is
    /// beside the point of the test.
    fn beat(d: &mut Directory, node: NodeId, incarnation: u64, load: u16, cap: u8, now: Micros) {
        d.apply_beacon(node, incarnation, load, cap, (0, 0), now);
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

    fn dir_with_two_storages() -> Directory {
        let mut d = Directory::new();
        d.apply_hello(NodeId(2), name("n2"), 1, 4, Micros(0));
        d.apply_hello(NodeId(3), name("n3"), 1, 4, Micros(0));
        d.apply_announce(NodeId(2), 1, &[announce_storage(1)], Micros(0));
        d.apply_announce(NodeId(3), 1, &[announce_storage(1)], Micros(0));
        d
    }

    #[test]
    fn resolve_prefers_low_load() {
        let mut d = dir_with_two_storages();
        beat(&mut d, NodeId(2), 1, 800, 4, Micros(1));
        beat(&mut d, NodeId(3), 1, 100, 4, Micros(1));
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
        d.apply_hello(NodeId(4), name("n4"), 1, 4, Micros(0));
        d.apply_hello(NodeId(5), name("n5"), 1, 4, Micros(0));
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
        d.apply_status(NodeId(5), 1, ServiceState::Stopped);
        beat(&mut d, NodeId(2), 1, 300, 4, Micros(1));
        beat(&mut d, NodeId(3), 1, 300, 4, Micros(1));
        beat(&mut d, NodeId(4), 1, 100, 4, Micros(1));

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
        beat(&mut d, NodeId(2), 1, 0, 4, Micros::from_millis(900));
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
        d.apply_hello(NodeId(1), name("n1"), 1, 4, Micros(0));
        let timeout = ProtoDuration::from_secs(2);
        assert_eq!(d.next_expiry(timeout), None, "only the local node known");
        d.apply_hello(NodeId(2), name("n2"), 1, 4, Micros::from_millis(300));
        assert_eq!(d.next_expiry(timeout), Some(Micros::from_millis(2300)));
        // Refreshed peers leave a stale head: the bound is early, and the
        // sweep at that instant re-arms instead of expiring.
        beat(&mut d, NodeId(2), 1, 0, 4, Micros::from_millis(1000));
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
        d.apply_status(NodeId(2), 1, ServiceState::Failed);
        let ps: Vec<_> = d.providers("storage/store").collect();
        assert_eq!(ps.len(), 1);
        assert_eq!(ps[0].service.node, NodeId(3));
        // Degraded still counts as available (degraded mode, §4.3).
        d.apply_status(NodeId(3), 1, ServiceState::Degraded);
        assert_eq!(d.providers("storage/store").count(), 1);
    }

    #[test]
    fn reboot_wipes_previous_incarnation() {
        let mut d = dir_with_two_storages();
        assert_eq!(d.providers("storage/store").count(), 2);
        // Node 2 reboots with incarnation 2 and announces nothing yet.
        d.apply_hello(NodeId(2), name("n2"), 2, 4, Micros(100));
        assert_eq!(d.providers("storage/store").count(), 1);
        assert!(d.node_alive(NodeId(2)));
    }

    #[test]
    fn heartbeat_before_hello_creates_record() {
        let mut d = Directory::new();
        beat(&mut d, NodeId(9), 1, 250, 3, Micros(5));
        assert!(d.node_alive(NodeId(9)));
        assert_eq!(d.node(NodeId(9)).unwrap().load_permille, 250);
        // The heartbeat carries the FEC capability, so a missed Hello
        // does not leave the link stuck uncoded.
        assert_eq!(d.node(NodeId(9)).unwrap().fec_cap, 3);
    }

    #[test]
    fn heartbeat_refreshes_fec_cap() {
        let mut d = Directory::new();
        d.apply_hello(NodeId(2), name("n2"), 1, 4, Micros(0));
        beat(&mut d, NodeId(2), 1, 0, 2, Micros(1));
        assert_eq!(d.node(NodeId(2)).unwrap().fec_cap, 2, "heartbeat downgrades");
        beat(&mut d, NodeId(2), 1, 0, 4, Micros(2));
        assert_eq!(d.node(NodeId(2)).unwrap().fec_cap, 4, "heartbeat upgrades");
    }

    #[test]
    fn re_announce_replaces_not_duplicates() {
        let mut d = Directory::new();
        d.apply_hello(NodeId(2), name("n2"), 1, 4, Micros(0));
        d.apply_announce(NodeId(2), 1, &[announce_storage(1)], Micros(0));
        d.apply_announce(NodeId(2), 1, &[announce_storage(1)], Micros(1));
        assert_eq!(d.providers("storage/store").count(), 1);
    }

    #[test]
    fn expire_rearms_refreshed_nodes_and_catches_them_later() {
        let mut d = dir_with_two_storages();
        // Both nodes refresh; their original heap entries are stale.
        beat(&mut d, NodeId(2), 1, 0, 4, Micros::from_millis(1500));
        beat(&mut d, NodeId(3), 1, 0, 4, Micros::from_millis(1800));
        // At 2.1s with a 2s timeout the t=0 entries pop but re-arm.
        assert!(d.expire(Micros::from_millis(2100), ProtoDuration::from_secs(2)).is_empty());
        assert!(d.node_alive(NodeId(2)) && d.node_alive(NodeId(3)));
        // Node 2 goes silent after 1.5s; the re-armed entry catches it.
        beat(&mut d, NodeId(3), 1, 0, 4, Micros::from_millis(3000));
        let dead = d.expire(Micros::from_millis(3600), ProtoDuration::from_secs(2));
        assert_eq!(dead, vec![NodeId(2)]);
        assert!(d.providers("storage/store").count() == 1);
    }

    #[test]
    fn rejoin_after_bye_is_tracked_again() {
        let mut d = dir_with_two_storages();
        d.apply_bye(NodeId(3));
        d.apply_hello(NodeId(3), name("n3"), 2, 4, Micros::from_millis(100));
        // Silent after the rejoin: must still expire.
        beat(&mut d, NodeId(2), 1, 0, 4, Micros::from_millis(2200));
        let dead = d.expire(Micros::from_millis(2300), ProtoDuration::from_secs(2));
        assert_eq!(dead, vec![NodeId(3)]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Only record creation queues a node for expiry. Over random
        /// control traffic, every tracked remote node keeps its heap entry
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
                        let newest = model.get(&node).is_none_or(|&(known, _)| known <= incarnation);
                        prop_assert_eq!(d.apply_hello(node, name("n"), incarnation, 4, now), newest);
                        if newest {
                            model.insert(node, (incarnation, now));
                        }
                    }
                    1 => {
                        beat(&mut d, node, incarnation, 0, 4, now);
                        if model.get(&node).is_none_or(|&(known, _)| known <= incarnation) {
                            model.insert(node, (incarnation, now));
                        }
                    }
                    2 => {
                        d.apply_announce(node, incarnation, &[announce_storage(1)], now);
                        model.entry(node).and_modify(|e| e.1 = now).or_insert((incarnation, now));
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
                        // Same liveness rule as the heartbeat half it
                        // wraps, whatever the digest says.
                        d.apply_beacon(node, incarnation, 0, 4, (dt_ms as u32 % 2, 1), now);
                        if model.get(&node).is_none_or(|&(known, _)| known <= incarnation) {
                            model.insert(node, (incarnation, now));
                        }
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
                for n in d.nodes() {
                    prop_assert!(d.expiry_queued(n), "{:?} tracked but not queued", n);
                    prop_assert_eq!(d.node(n).map(|i| i.last_seen), model.get(&n).map(|e| e.1));
                }
            }
        }
    }

    #[test]
    fn nodes_come_back_ascending_whatever_the_learning_order() {
        let mut d = Directory::new();
        assert!(d.nodes().is_empty());
        for id in [9u32, 3, 7, 1, 8] {
            d.apply_hello(NodeId(id), name("n"), 1, 4, Micros(0));
        }
        let ascending = [1u32, 3, 7, 8, 9].map(NodeId).to_vec();
        assert_eq!(d.nodes(), ascending);
        assert_eq!(d.node_count(), 5);
        // Node 7 alone stays silent, expires, and rejoins last.
        for id in [9u32, 3, 1, 8] {
            beat(&mut d, NodeId(id), 1, 0, 4, Micros::from_secs(2));
        }
        assert_eq!(d.expire(Micros::from_secs(3), ProtoDuration::from_secs(2)), vec![NodeId(7)]);
        assert_eq!(d.nodes(), [1u32, 3, 8, 9].map(NodeId).to_vec());
        d.apply_hello(NodeId(7), name("n"), 2, 4, Micros::from_secs(3));
        assert_eq!(d.nodes(), ascending);
    }

    #[test]
    fn catalogue_digest_matches_only_applied_catalogue() {
        use BeaconOutcome::{Differs, Refreshed};
        let pull = Differs { cap: false, digest: true };
        let mut d = Directory::new();
        d.apply_hello(NodeId(2), name("n2"), 1, 4, Micros(0));
        let beacon = |d: &mut Directory, life, digest| {
            d.apply_beacon(NodeId(2), life, 0, 4, digest, Micros(80))
        };
        assert_eq!(beacon(&mut d, 1, (0xAB, 1)), pull, "no announce applied yet");
        let (hash, count) = d.apply_announce(NodeId(2), 1, &[announce_storage(1)], Micros(0));
        assert_eq!((hash, count), (announce_hash(1, &[announce_storage(1)]), 1));
        assert_eq!(beacon(&mut d, 1, (hash, 1)), Refreshed);
        assert_eq!(beacon(&mut d, 1, (hash ^ 1, 1)), pull, "hash mismatch");
        assert_eq!(beacon(&mut d, 1, (hash, 2)), pull, "entry count mismatch");
        // A reboot wipes the digest along with the catalogue.
        d.apply_hello(NodeId(2), name("n2"), 2, 4, Micros(50));
        assert_eq!(beacon(&mut d, 2, (hash, 1)), pull);
        // A re-Hello at the same incarnation keeps it.
        let held = d.apply_announce(NodeId(2), 2, &[announce_storage(1)], Micros(60));
        assert_ne!(held, (hash, 1), "the digest covers the incarnation");
        d.apply_hello(NodeId(2), name("n2"), 2, 4, Micros(70));
        assert_eq!(beacon(&mut d, 2, held), Refreshed);
    }

    #[test]
    fn announce_before_hello_creates_the_record_its_digest_is_filed_under() {
        let mut d = Directory::for_node(NodeId(1));
        let digest = d.apply_announce(NodeId(2), 3, &[announce_storage(1)], Micros(5));
        let info = d.node(NodeId(2)).expect("known from its announce");
        assert_eq!((info.incarnation, info.last_seen, info.fec_cap), (3, Micros(5), 0));
        assert_eq!(info.catalogue_digest, Some(digest));
        assert_eq!(d.providers("storage/store").count(), 1, "and its catalogue resolves");
        // The beacon behind it has only the capability to add.
        let cap_only = BeaconOutcome::Differs { cap: true, digest: false };
        assert_eq!(d.apply_beacon(NodeId(2), 3, 0, 4, digest, Micros(6)), cap_only);
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
        let digest = d.node(n2).unwrap().catalogue_digest.unwrap();

        // The steady state: liveness and load move, nothing else.
        assert_eq!(d.apply_beacon(n2, 1, 300, 4, digest, Micros(10)), Refreshed);
        let info = d.node(n2).unwrap();
        assert_eq!((info.last_seen, info.load_permille, info.fec_cap), (Micros(10), 300, 4));
        assert_eq!(d.providers("storage/store").count(), 2);

        // An older life is ignored outright: not even proof of life.
        d.apply_hello(n2, name("n2"), 5, 4, Micros(20));
        let digest = d.apply_announce(n2, 5, &[announce_storage(1)], Micros(20));
        assert_eq!(d.apply_beacon(n2, 4, 999, 1, (0, 0), Micros(30)), OlderLife);
        let info = d.node(n2).unwrap();
        assert_eq!((info.incarnation, info.last_seen, info.load_permille), (5, Micros(20), 0));
        assert_eq!((info.fec_cap, info.catalogue_digest), (4, Some(digest)));

        // A cap change is applied and reported, with and without a
        // digest mismatch riding along.
        let cap_only = Differs { cap: true, digest: false };
        assert_eq!(d.apply_beacon(n2, 5, 0, 2, digest, Micros(40)), cap_only);
        assert_eq!(d.node(n2).unwrap().fec_cap, 2);
        let both = Differs { cap: true, digest: true };
        assert_eq!(d.apply_beacon(n2, 5, 0, 3, (digest.0 ^ 1, 1), Micros(41)), both);
        assert_eq!(d.node(n2).unwrap().fec_cap, 3);
        // A mismatch leaves the held catalogue alone: the pull replaces it.
        assert_eq!(d.node(n2).unwrap().catalogue_digest, Some(digest));
        assert_eq!(d.node(n2).unwrap().last_seen, Micros(41));
        assert_eq!(d.providers("storage/store").count(), 2);

        // A newer life drops everything cached from the old one.
        assert_eq!(d.apply_beacon(n2, 6, 70, 4, digest, Micros(50)), NewLife);
        let info = d.node(n2).unwrap();
        assert_eq!((info.incarnation, info.last_seen, info.load_permille), (6, Micros(50), 70));
        assert_eq!((&info.container, info.catalogue_digest), (&name("n2"), None));
        assert_eq!(d.providers("storage/store").count(), 1, "node 3's only");

        // An unknown node gets a minimal record, queued for expiry.
        assert_eq!(d.apply_beacon(NodeId(9), 1, 250, 3, digest, Micros(60)), Unknown);
        let info = d.node(NodeId(9)).unwrap();
        assert_eq!((info.load_permille, info.fec_cap, info.catalogue_digest), (250, 3, None));
        let later = Micros(60) + ProtoDuration::from_secs(2);
        assert!(d.expire(later, ProtoDuration::from_secs(2)).contains(&NodeId(9)));
    }

    /// A `Hello` that sat in a slow link's queue across its sender's
    /// restart must not roll the record back: the live node's next beacon
    /// would read as a new life and purge the catalogue it just announced.
    #[test]
    fn a_hello_from_an_older_life_is_ignored() {
        let n2 = NodeId(2);
        let mut d = Directory::new();
        assert!(d.apply_hello(n2, name("n2"), 2, 4, Micros(0)));
        let digest = d.apply_announce(n2, 2, &[announce_storage(1)], Micros(1));

        assert!(!d.apply_hello(n2, name("n2-old"), 1, 0, Micros(2)));
        let info = d.node(n2).unwrap();
        assert_eq!((info.incarnation, &info.container, info.fec_cap), (2, &name("n2"), 4));
        assert_eq!((info.catalogue_digest, info.last_seen), (Some(digest), Micros(1)));
        assert_eq!(d.providers("storage/store").count(), 1);
        assert_eq!(d.apply_beacon(n2, 2, 0, 4, digest, Micros(3)), BeaconOutcome::Refreshed);
        assert_eq!(d.providers("storage/store").count(), 1);

        // The same life again and a newer one are both applied.
        assert!(d.apply_hello(n2, name("n2"), 2, 4, Micros(4)));
        assert_eq!(d.node(n2).unwrap().catalogue_digest, Some(digest));
        assert!(d.apply_hello(n2, name("n2"), 3, 4, Micros(5)));
        assert_eq!(d.node(n2).unwrap().catalogue_digest, None);
        assert_eq!(d.providers("storage/store").count(), 0);
    }

    /// Most names have one provider and most nodes few names: neither
    /// list may hold room for more than it lists.
    #[test]
    fn one_provision_announces_allocate_what_they_list() {
        let mut d = Directory::new();
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
        let providers = d.providers.values().map(|l| (l.len(), l.capacity()));
        let provided = d.node_provides.values().map(|l| (l.len(), l.capacity()));
        let sizes = providers.chain(provided).fold((0, 0), |(l, c), (len, cap)| (l + len, c + cap));
        assert_eq!(sizes, (512, 512), "256 provider lists + 256 node_provides lists, all full");
        // Every one of them was heard before its `Hello`: one shared name.
        let unknown = d.node(NodeId(1)).unwrap().container.as_str();
        assert!(d.nodes.values().all(|n| std::ptr::eq(n.container.as_str(), unknown)));
    }

    #[test]
    fn status_reaches_exactly_one_service_under_every_name_it_provides() {
        let two_names = |seq| AnnounceEntry {
            provides: vec![
                announce_storage(seq).provides[0].clone(),
                Provision::Event { name: name("storage/full"), ty: None },
            ],
            ..announce_storage(seq)
        };
        let mut d = Directory::new();
        for node in [NodeId(2), NodeId(3)] {
            d.apply_hello(node, name("n"), 1, 4, Micros(0));
            d.apply_announce(node, 1, &[two_names(1), announce_storage(2)], Micros(0));
        }
        let states = |d: &Directory| -> Vec<(Name, ServiceId, ServiceState)> {
            let listed = d.providers.iter();
            listed.flat_map(|(n, l)| l.iter().map(|p| (n.clone(), p.service, p.state))).collect()
        };
        let before = states(&d);
        assert_eq!(before.len(), 6, "two nodes x (seq 1 under two names + seq 2 under one)");

        d.apply_status(NodeId(2), 1, ServiceState::Failed);
        let target = ServiceId::new(NodeId(2), 1);
        for (after, before) in states(&d).iter().zip(&before) {
            let expected = if after.1 == target { ServiceState::Failed } else { before.2 };
            assert_eq!(*after, (before.0.clone(), before.1, expected));
        }
        assert_eq!(states(&d).iter().filter(|s| s.2 == ServiceState::Failed).count(), 2);

        // A node with no catalogue provides nothing a status could change.
        let before = states(&d);
        d.apply_hello(NodeId(4), name("n4"), 1, 4, Micros(0));
        d.apply_status(NodeId(4), 1, ServiceState::Failed);
        d.apply_status(NodeId(7), 1, ServiceState::Failed);
        assert_eq!(states(&d), before);
    }

    #[test]
    fn kind_filters_apply() {
        let mut d = Directory::new();
        d.apply_hello(NodeId(2), name("n2"), 1, 4, Micros(0));
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
}
