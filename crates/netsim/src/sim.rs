//! The discrete-event network core.
//!
//! Host cost follows events, not replicas × hash probes: nodes live in a
//! slot table (`id → slot` is assigned once and never reused, so a handle
//! or an in-flight replica can name a node by index), broadcast and
//! multicast walk member lists that `socket`/`remove_node`/`join`/`leave`
//! keep sorted by node id, per-node and per-link counters are dense
//! per-slot arrays folded into [`NetStats`] only when somebody asks, and
//! the surviving replicas of one send that share an arrival time ride
//! **one** heap entry (see [`InFlight`]).
//!
//! Memory follows datagrams, not replicas: a delivered datagram is held
//! once, in a slot of [`HeldSlab`], and each inbox it reached lists only
//! the slot's 4-byte handle; a link's loss row is two `u32`s. On a ring
//! where every node multicasts at the same instant, the one term still
//! quadratic in the node count is the target lists of the runs in flight
//! (4 bytes a target).

use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::{BinaryHeap, HashMap, HashSet, VecDeque};
use std::error::Error;
use std::fmt;
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::Mutex;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::config::{LinkConfig, NetConfig};
use crate::stats::{LinkObserved, NetStats, NodeStats};

/// Where a datagram is headed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Destination {
    /// One node.
    Unicast(u32),
    /// Every member of a multicast group (except the sender).
    Multicast(u32),
    /// Every registered node (except the sender).
    Broadcast,
}

/// Error returned by [`SimSocket::send`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SendError {
    /// Payload exceeds the sender's link MTU (datagram networks do not
    /// fragment here; the protocol layer must).
    PayloadExceedsMtu {
        /// Attempted payload size.
        size: usize,
        /// Link MTU.
        mtu: usize,
    },
    /// The sending node was removed from the network.
    UnknownNode(u32),
}

impl fmt::Display for SendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SendError::PayloadExceedsMtu { size, mtu } => {
                write!(f, "payload of {size} bytes exceeds mtu {mtu}")
            }
            SendError::UnknownNode(n) => write!(f, "unknown node {n}"),
        }
    }
}

impl Error for SendError {}

/// Index into the slot table. A node id gets its slot on first attach and
/// keeps it for the life of the network — across `remove_node` and
/// re-attach — which is what lets a replica already in flight to a
/// rebooting node land in the new life's inbox.
type Slot = usize;

#[derive(Debug)]
struct NodeState {
    id: u32,
    /// `false` between `remove_node` and the next `socket(id)`; exactly
    /// the attached nodes are listed in `SimNetInner::everyone`.
    attached: bool,
    /// Handles into `SimNetInner::held`, oldest first.
    inbox: VecDeque<u32>,
    /// Groups joined (mirror of the member lists, so removal finds them
    /// without walking every group).
    groups: Vec<u32>,
    /// Sender's shared-medium serialization horizon (µs).
    tx_busy_until: u64,
    /// Listed in `SimNetInner::woken` since the last drain.
    woken: bool,
    /// This node's row of `NetStats::per_node`.
    counters: NodeStats,
    /// This node's rows of `NetStats::per_link`, indexed by destination
    /// slot (sized on first use).
    links_out: Vec<LinkRow>,
}

impl NodeState {
    fn detached(id: u32) -> Self {
        NodeState {
            id,
            attached: false,
            inbox: VecDeque::new(),
            groups: Vec::new(),
            tx_busy_until: 0,
            woken: false,
            counters: NodeStats::default(),
            links_out: Vec::new(),
        }
    }
}

/// One directed link's loss accounting, half the width of the public
/// [`LinkObserved`]: both counters saturate at `u32::MAX` (four billion
/// replicas on one link) instead of wrapping, and
/// [`observed`](LinkRow::observed) widens them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct LinkRow {
    attempts: u32,
    lost: u32,
}

impl LinkRow {
    fn observed(self) -> LinkObserved {
        LinkObserved { attempts: self.attempts.into(), lost: self.lost.into() }
    }
}

/// A delivered datagram, held once for every inbox that lists it.
#[derive(Debug)]
struct Held {
    src: u32,
    /// Inboxes that still list this slot; 0 on a free slot.
    readers: u32,
    /// The empty (static, unallocated) `Bytes` on a free slot.
    payload: Bytes,
}

/// The delivered datagrams inboxes refer to, by `u32` handle. A slot is
/// freed when its last reader takes the payload (or its last inbox is
/// dropped) and reused by the next delivery, so steady traffic allocates
/// nothing here.
#[derive(Debug, Default)]
struct HeldSlab {
    slots: Vec<Held>,
    free: Vec<u32>,
}

impl HeldSlab {
    /// Holds `payload` for one inbox and returns its handle.
    fn file(&mut self, src: u32, payload: Bytes) -> u32 {
        let held = Held { src, readers: 1, payload };
        match self.free.pop() {
            Some(handle) => {
                self.slots[handle as usize] = held;
                handle
            }
            None => {
                self.slots.push(held);
                (self.slots.len() - 1) as u32
            }
        }
    }

    /// One more inbox lists `handle`.
    fn add_reader(&mut self, handle: u32) {
        self.slots[handle as usize].readers += 1;
    }

    /// One reader's copy of the datagram. The last reader takes the
    /// payload itself, so once the other readers have dropped theirs it
    /// holds the only reference.
    fn read(&mut self, handle: u32) -> (u32, Bytes) {
        let held = &mut self.slots[handle as usize];
        held.readers -= 1;
        if held.readers > 0 {
            return (held.src, held.payload.clone());
        }
        self.free.push(handle);
        (held.src, std::mem::take(&mut held.payload))
    }

    /// An inbox listing `handle` is dropped unread.
    fn release(&mut self, handle: u32) {
        let held = &mut self.slots[handle as usize];
        held.readers -= 1;
        if held.readers == 0 {
            held.payload = Bytes::new();
            self.free.push(handle);
        }
    }

    fn bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<Held>()
            + self.free.capacity() * std::mem::size_of::<u32>()
    }
}

/// A run of replicas of one datagram: the surviving targets of one `send`
/// that drew consecutive `seq`s **and** the same arrival time, keyed by
/// the first replica's `seq`.
///
/// Grouping cannot reorder deliveries: the seqs of a run are contiguous,
/// so every other entry with the same `deliver_at` sorts wholly before or
/// wholly after it, exactly where its replicas sorted one by one. Under
/// jitter neighbours rarely tie and every run has length one.
#[derive(Debug)]
struct InFlight {
    deliver_at: u64,
    seq: u64,
    src: u32,
    payload: Bytes,
    /// First target; a unicast (or a jittered replica) is only this.
    first: Slot,
    /// Further targets in send order (an empty list does not allocate; a
    /// non-empty one comes from, and goes back to, the [`ListPool`]). Slots
    /// as `u32`: every node's multicast of one instant is in flight at
    /// once, so the pool holds about a fleet's size squared of them.
    rest: Vec<u32>,
    /// Replicas already delivered by single-stepping.
    done: usize,
}

impl InFlight {
    fn len(&self) -> usize {
        1 + self.rest.len()
    }

    fn target(&self, i: usize) -> Slot {
        if i == 0 {
            self.first
        } else {
            self.rest[i - 1] as Slot
        }
    }
}

// BinaryHeap is a max-heap; order by Reverse((deliver_at, seq)).
impl PartialEq for InFlight {
    fn eq(&self, other: &Self) -> bool {
        (self.deliver_at, self.seq) == (other.deliver_at, other.seq)
    }
}
impl Eq for InFlight {}
impl PartialOrd for InFlight {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for InFlight {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.deliver_at, self.seq).cmp(&(other.deliver_at, other.seq))
    }
}

/// The target lists of fully delivered runs, kept for the next run with
/// more than one target: a steady multicast stream reuses a handful of
/// lists instead of allocating one per datagram.
///
/// Lists are never freed, so with nothing in flight every list ever
/// allocated is on `free`.
#[derive(Debug, Default)]
struct ListPool {
    free: Vec<Vec<u32>>,
}

impl ListPool {
    /// A list holding `targets`; empty ones allocate nothing.
    fn take(&mut self, targets: &[Slot]) -> Vec<u32> {
        if targets.is_empty() {
            return Vec::new();
        }
        let mut list = self.free.pop().unwrap_or_default();
        list.extend(targets.iter().map(|&slot| slot as u32));
        list
    }

    /// Takes back the list of a run that has nothing left to deliver.
    fn give(&mut self, mut list: Vec<u32>) {
        if list.capacity() > 0 {
            list.clear();
            self.free.push(list);
        }
    }

    fn bytes(&self) -> usize {
        self.free.capacity() * std::mem::size_of::<Vec<u32>>()
            + self.free.iter().map(list_bytes).sum::<usize>()
    }
}

fn list_bytes(list: &Vec<u32>) -> usize {
    list.capacity() * std::mem::size_of::<u32>()
}

/// Position of node `id` in a slot list kept in ascending id order.
fn position_by_id(list: &[Slot], slots: &[NodeState], id: u32) -> Result<usize, usize> {
    list.binary_search_by_key(&id, |&s| slots[s].id)
}

#[derive(Debug)]
struct SimNetInner {
    now_us: u64,
    rng: SmallRng,
    default_link: LinkConfig,
    links: HashMap<(u32, u32), LinkConfig>,
    partitions: HashSet<(u32, u32)>,
    slots: Vec<NodeState>,
    /// Every slot, attached or not, in ascending id order: the `id →
    /// slot` index, and the order [`SimNet::for_each_link`] walks.
    by_id: Vec<Slot>,
    /// Attached nodes in ascending id order: the broadcast target list.
    /// Replica order decides how the RNG stream maps onto datagrams, so
    /// it is node-id order regardless of attach order.
    everyone: Vec<Slot>,
    /// Multicast member lists, each in ascending id order.
    groups: HashMap<u32, Vec<Slot>>,
    inflight: BinaryHeap<Reverse<InFlight>>,
    /// Replicas still to be delivered over all of `inflight`.
    inflight_replicas: usize,
    next_seq: u64,
    /// Scratch for the run `send` is assembling (allocation reuse).
    run: Vec<Slot>,
    /// Target lists for the runs `send` pushes.
    lists: ListPool,
    /// The delivered datagrams the inboxes list.
    held: HeldSlab,
    /// Nodes that received since the last [`SimNet::drain_woken`].
    woken: Vec<Slot>,
    /// The scalar counters; the two maps stay empty here and are folded
    /// in from the slots by [`SimNetInner::snapshot`].
    totals: NetStats,
}

impl SimNetInner {
    /// The slot node `id` was given on its first attach.
    fn slot_of(&self, id: u32) -> Option<Slot> {
        position_by_id(&self.by_id, &self.slots, id).ok().map(|at| self.by_id[at])
    }

    /// Registers node `id` (or re-attaches it with a fresh inbox).
    fn attach(&mut self, id: u32) -> Slot {
        let slot = match position_by_id(&self.by_id, &self.slots, id) {
            Ok(at) => self.by_id[at],
            Err(at) => {
                self.slots.push(NodeState::detached(id));
                self.by_id.insert(at, self.slots.len() - 1);
                self.slots.len() - 1
            }
        };
        if let Err(at) = position_by_id(&self.everyone, &self.slots, id) {
            self.everyone.insert(at, slot);
            self.slots[slot].attached = true;
        }
        slot
    }

    /// Detaches node `id`; its unread inbox vanishes, counted.
    fn detach(&mut self, id: u32) {
        let Some(slot) = self.slot_of(id) else { return };
        let Ok(at) = position_by_id(&self.everyone, &self.slots, id) else { return };
        self.everyone.remove(at);
        let groups = std::mem::take(&mut self.slots[slot].groups);
        for group in groups {
            self.leave(slot, group);
        }
        let node = &mut self.slots[slot];
        node.attached = false;
        node.tx_busy_until = 0;
        let inbox = std::mem::take(&mut node.inbox);
        self.totals.vanished += inbox.len() as u64;
        for handle in inbox {
            self.held.release(handle);
        }
    }

    fn join(&mut self, slot: Slot, group: u32) {
        if !self.slots[slot].attached {
            return;
        }
        let members = self.groups.entry(group).or_default();
        if let Err(at) = position_by_id(members, &self.slots, self.slots[slot].id) {
            members.insert(at, slot);
            self.slots[slot].groups.push(group);
        }
    }

    fn leave(&mut self, slot: Slot, group: u32) {
        let Some(members) = self.groups.get_mut(&group) else { return };
        let Ok(at) = position_by_id(members, &self.slots, self.slots[slot].id) else { return };
        members.remove(at);
        if members.is_empty() {
            self.groups.remove(&group);
        }
        self.slots[slot].groups.retain(|g| *g != group);
    }

    fn send(&mut self, src: Slot, dest: Destination, payload: Bytes) -> Result<(), SendError> {
        let src_id = self.slots[src].id;
        let mtu = self.link_mtu(src_id);
        if payload.len() > mtu {
            self.totals.dropped_mtu += 1;
            return Err(SendError::PayloadExceedsMtu { size: payload.len(), mtu });
        }
        let now = self.now_us;
        let tx_time = self.default_link.tx_time_us(payload.len());
        let depart_at = {
            let node = &mut self.slots[src];
            if !node.attached {
                return Err(SendError::UnknownNode(src_id));
            }
            let start = node.tx_busy_until.max(now);
            node.tx_busy_until = start + tx_time;
            node.counters.sent += 1;
            node.counters.sent_bytes += payload.len() as u64;
            node.tx_busy_until
        };
        self.totals.datagrams_sent += 1;
        self.totals.bytes_sent += payload.len() as u64;

        // Targets in ascending node-id order; a multicast or broadcast
        // skips the sender, a unicast to oneself does not.
        let unicast;
        let (targets, skip): (&[Slot], Option<Slot>) = match dest {
            Destination::Unicast(dst) => {
                unicast = self.slot_of(dst).filter(|&d| self.slots[d].attached);
                (unicast.as_slice(), None)
            }
            Destination::Multicast(group) => {
                (self.groups.get(&group).map_or(&[][..], Vec::as_slice), Some(src))
            }
            Destination::Broadcast => (&self.everyone, Some(src)),
        };
        if targets.iter().all(|&d| Some(d) == skip) {
            self.totals.no_receiver += 1;
            return Ok(());
        }

        // Per target, in order: partition check, loss roll, jitter roll —
        // the RNG draw order is part of the determinism contract. Each
        // survivor takes the next seq; neighbours that tie on arrival
        // time extend the current run instead of opening a heap entry.
        if self.slots[src].links_out.len() < self.slots.len() {
            let width = self.slots.len();
            self.slots[src].links_out.resize(width, LinkRow::default());
        }
        let partitioned = !self.partitions.is_empty();
        let mut run_at = 0u64;
        let mut run_seq = 0u64;
        self.run.clear();
        for &dst in targets {
            if Some(dst) == skip {
                continue;
            }
            let dst_id = self.slots[dst].id;
            if partitioned
                && (self.partitions.contains(&(src_id, dst_id))
                    || self.partitions.contains(&(dst_id, src_id)))
            {
                self.totals.dropped_partition += 1;
                continue;
            }
            let link = if self.links.is_empty() {
                self.default_link
            } else {
                self.links.get(&(src_id, dst_id)).copied().unwrap_or(self.default_link)
            };
            let row = &mut self.slots[src].links_out[dst];
            row.attempts = row.attempts.saturating_add(1);
            if self.rng.gen::<f64>() < link.loss {
                row.lost = row.lost.saturating_add(1);
                self.totals.dropped_loss += 1;
                continue;
            }
            let jitter =
                if link.jitter_us > 0 { self.rng.gen_range(0..=link.jitter_us) } else { 0 };
            let deliver_at = depart_at + link.latency_us + jitter;
            let seq = self.next_seq;
            self.next_seq += 1;
            if self.run.is_empty() || deliver_at != run_at {
                let (inflight, lists) = (&mut self.inflight, &mut self.lists);
                flush_run(inflight, lists, &mut self.run, run_at, run_seq, src_id, &payload);
                run_at = deliver_at;
                run_seq = seq;
            }
            self.run.push(dst);
            self.inflight_replicas += 1;
        }
        let (inflight, lists) = (&mut self.inflight, &mut self.lists);
        flush_run(inflight, lists, &mut self.run, run_at, run_seq, src_id, &payload);
        Ok(())
    }

    fn link_mtu(&self, src: u32) -> usize {
        // The sender's NIC MTU: use the default link's MTU unless a
        // src-specific override exists (keyed (src,src)).
        self.links.get(&(src, src)).map(|l| l.mtu).unwrap_or(self.default_link.mtu)
    }

    /// Counts one replica of `len` bytes arriving at `dst` and wakes the
    /// node; `false` when `dst` is detached right now and the replica
    /// vanishes instead. The caller lists the datagram in the inbox.
    fn arrive(&mut self, dst: Slot, len: usize) -> bool {
        self.inflight_replicas -= 1;
        let node = &mut self.slots[dst];
        if !node.attached {
            self.totals.vanished += 1;
            return false;
        }
        self.totals.datagrams_delivered += 1;
        self.totals.bytes_delivered += len as u64;
        node.counters.delivered += 1;
        node.counters.delivered_bytes += len as u64;
        if !node.woken {
            node.woken = true;
            self.woken.push(dst);
        }
        true
    }

    /// Delivers the next single replica.
    fn step(&mut self) -> Option<u64> {
        let mut top = self.inflight.peek_mut()?;
        let run = &mut top.0;
        let (at, src, dst) = (run.deliver_at, run.src, run.target(run.done));
        run.done += 1;
        // The key `(deliver_at, first seq)` is untouched, so a partly
        // delivered run keeps its place at the top of the heap; the last
        // replica takes the run's payload.
        let payload = if run.done == run.len() {
            let Reverse(delivered) = PeekMut::pop(top);
            self.lists.give(delivered.rest);
            delivered.payload
        } else {
            let payload = run.payload.clone();
            drop(top);
            payload
        };
        self.now_us = self.now_us.max(at);
        if self.arrive(dst, payload.len()) {
            let handle = self.held.file(src, payload);
            self.slots[dst].inbox.push_back(handle);
        }
        Some(self.now_us)
    }

    /// Delivers every run due at or before `t_us`, whole: its payload is
    /// held once, and every attached target's inbox lists its handle.
    fn advance_to(&mut self, t_us: u64) {
        while self.inflight.peek().is_some_and(|Reverse(run)| run.deliver_at <= t_us) {
            let Some(Reverse(mut run)) = self.inflight.pop() else { break };
            self.now_us = self.now_us.max(run.deliver_at);
            let len = run.payload.len();
            let mut handle = None;
            for i in run.done..run.len() {
                let dst = run.target(i);
                if !self.arrive(dst, len) {
                    continue;
                }
                let h = match handle {
                    Some(h) => {
                        self.held.add_reader(h);
                        h
                    }
                    None => self.held.file(run.src, std::mem::take(&mut run.payload)),
                };
                handle = Some(h);
                self.slots[dst].inbox.push_back(h);
            }
            self.lists.give(run.rest);
        }
        self.now_us = self.now_us.max(t_us);
    }

    /// The public counters: scalars plus the two maps folded in from the
    /// slots. A row exists once it counted something, as it did when the
    /// maps were written directly.
    fn snapshot(&self) -> NetStats {
        let mut stats = self.totals.clone();
        for node in &self.slots {
            if node.counters != NodeStats::default() {
                stats.per_node.insert(node.id, node.counters);
            }
        }
        self.each_link(|src, dst, observed| {
            stats.per_link.insert((src, dst), observed);
        });
        stats
    }

    /// Calls `f(src, dst, observed)` for every link row that counted an
    /// attempt, in ascending `(src, dst)` id order.
    fn each_link(&self, mut f: impl FnMut(u32, u32, LinkObserved)) {
        for &src in &self.by_id {
            let node = &self.slots[src];
            for &dst in &self.by_id {
                if let Some(row) = node.links_out.get(dst).filter(|row| row.attempts > 0) {
                    f(node.id, self.slots[dst].id, row.observed());
                }
            }
        }
    }
}

/// Pushes the run assembled in `run` (if any) as one heap entry, its
/// further targets in a list from `lists`.
fn flush_run(
    inflight: &mut BinaryHeap<Reverse<InFlight>>,
    lists: &mut ListPool,
    run: &mut Vec<Slot>,
    deliver_at: u64,
    seq: u64,
    src: u32,
    payload: &Bytes,
) {
    let Some((&first, rest)) = run.split_first() else { return };
    inflight.push(Reverse(InFlight {
        deliver_at,
        seq,
        src,
        payload: payload.clone(),
        first,
        rest: lists.take(rest),
        done: 0,
    }));
    run.clear();
}

/// Handle to the shared simulated network.
///
/// Cloning is cheap; all clones observe the same virtual time and state.
/// See the [crate docs](crate) for an example.
#[derive(Debug, Clone)]
pub struct SimNet {
    inner: Arc<Mutex<SimNetInner>>,
}

impl SimNet {
    /// Creates a network from `config`.
    pub fn new(config: NetConfig) -> Self {
        SimNet {
            inner: Arc::new(Mutex::new(SimNetInner {
                now_us: 0,
                rng: SmallRng::seed_from_u64(config.seed),
                default_link: config.default_link,
                links: HashMap::new(),
                partitions: HashSet::new(),
                slots: Vec::new(),
                by_id: Vec::new(),
                everyone: Vec::new(),
                groups: HashMap::new(),
                inflight: BinaryHeap::new(),
                inflight_replicas: 0,
                next_seq: 0,
                run: Vec::new(),
                lists: ListPool::default(),
                held: HeldSlab::default(),
                woken: Vec::new(),
                totals: NetStats::default(),
            })),
        }
    }

    /// Registers (or re-attaches to) node `id` and returns its socket.
    pub fn socket(&self, id: u32) -> SimSocket {
        let slot = self.inner.lock().attach(id);
        SimSocket { net: self.clone(), node: id, slot }
    }

    /// Removes a node: its unread inbox and replicas that arrive while it
    /// stays removed vanish (counted in [`NetStats::vanished`]), and
    /// subsequent sends from it fail. Models a crashed avionics box for the
    /// failover experiments.
    pub fn remove_node(&self, id: u32) {
        self.inner.lock().detach(id);
    }

    /// `true` if the node is registered.
    pub fn has_node(&self, id: u32) -> bool {
        let inner = self.inner.lock();
        inner.slot_of(id).is_some_and(|slot| inner.slots[slot].attached)
    }

    /// Installs a directed link override between two nodes.
    pub fn set_link(&self, src: u32, dst: u32, link: LinkConfig) {
        self.inner.lock().links.insert((src, dst), link);
    }

    /// Installs a symmetric link override.
    pub fn set_link_symmetric(&self, a: u32, b: u32, link: LinkConfig) {
        let mut inner = self.inner.lock();
        inner.links.insert((a, b), link);
        inner.links.insert((b, a), link);
    }

    /// Replaces the default link applied to pairs without an override.
    pub fn set_default_link(&self, link: LinkConfig) {
        self.inner.lock().default_link = link;
    }

    /// Blocks (or unblocks) traffic between `a` and `b` in both directions.
    pub fn set_partition(&self, a: u32, b: u32, blocked: bool) {
        let mut inner = self.inner.lock();
        if blocked {
            inner.partitions.insert((a, b));
        } else {
            inner.partitions.remove(&(a, b));
            inner.partitions.remove(&(b, a));
        }
    }

    /// Current virtual time in microseconds.
    pub fn now_us(&self) -> u64 {
        self.inner.lock().now_us
    }

    /// Delivers the next in-flight datagram, advancing virtual time to its
    /// arrival. Returns the new time, or `None` when nothing is in flight.
    pub fn step(&self) -> Option<u64> {
        self.inner.lock().step()
    }

    /// Delivers every datagram due at or before `t_us`, then sets time to
    /// `t_us` (even if idle earlier).
    pub fn advance_to(&self, t_us: u64) {
        self.inner.lock().advance_to(t_us);
    }

    /// Delivers everything currently in flight (including cascades already
    /// queued); time ends at the last delivery.
    pub fn run_until_idle(&self) {
        while self.step().is_some() {}
    }

    /// Time of the next scheduled delivery.
    pub fn next_event_at(&self) -> Option<u64> {
        self.inner.lock().inflight.peek().map(|Reverse(run)| run.deliver_at)
    }

    /// Datagram replicas currently in flight.
    pub fn inflight_replicas(&self) -> usize {
        self.inner.lock().inflight_replicas
    }

    /// Heap entries carrying those replicas: one per run of replicas of
    /// one send that share an arrival time. `inflight_replicas /
    /// inflight_entries` is the fan-out the run-length heap saves.
    pub fn inflight_entries(&self) -> usize {
        self.inner.lock().inflight.len()
    }

    /// Appends to `out` the id of every node whose inbox received a
    /// datagram since the previous call, each once, in first-arrival
    /// order. This is the harness's wake-up signal: a driver that ticks
    /// only these nodes (plus those with timed work due) does not have to
    /// ask every socket every step. Drivers that tick every node anyway
    /// can ignore it; the list is bounded by the node count.
    pub fn drain_woken(&self, out: &mut Vec<u32>) {
        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        for slot in inner.woken.drain(..) {
            inner.slots[slot].woken = false;
            out.push(inner.slots[slot].id);
        }
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> NetStats {
        self.inner.lock().snapshot()
    }

    /// Runs `f` against a snapshot of the counters. The per-node and
    /// per-link maps are folded in from dense per-node storage for the
    /// call, so this costs what [`stats`](SimNet::stats) costs — fine for
    /// a metrics period or an end-of-run read, not for a per-tick path.
    pub fn with_stats<R>(&self, f: impl FnOnce(&NetStats) -> R) -> R {
        let stats = self.inner.lock().snapshot();
        f(&stats)
    }

    /// Calls `f(src, dst, observed)` for every row of
    /// [`NetStats::per_link`], in the same ascending `(src, dst)` order,
    /// read in place: nothing is allocated. The network is locked during
    /// the walk, so `f` must not call back into it.
    pub fn for_each_link(&self, f: impl FnMut(u32, u32, LinkObserved)) {
        self.inner.lock().each_link(f);
    }

    /// Heap bytes netsim holds for traffic, by capacity, not contents:
    /// inboxes, link rows, in-flight entries, target lists and held
    /// datagram slots. Payload buffers, the node table, group lists and
    /// link overrides are not counted.
    pub fn bytes(&self) -> usize {
        let inner = self.inner.lock();
        let nodes: usize = inner
            .slots
            .iter()
            .map(|node| {
                node.inbox.capacity() * std::mem::size_of::<u32>()
                    + node.links_out.capacity() * std::mem::size_of::<LinkRow>()
            })
            .sum();
        let inflight = inner.inflight.capacity() * std::mem::size_of::<Reverse<InFlight>>()
            + inner.inflight.iter().map(|Reverse(run)| list_bytes(&run.rest)).sum::<usize>();
        nodes
            + inflight
            + inner.run.capacity() * std::mem::size_of::<Slot>()
            + inner.lists.bytes()
            + inner.held.bytes()
    }

    /// Resets the counters (not the clock or state); benches call this
    /// between phases.
    pub fn reset_stats(&self) {
        let mut inner = self.inner.lock();
        inner.totals = NetStats::default();
        for node in &mut inner.slots {
            node.counters = NodeStats::default();
            node.links_out.fill(LinkRow::default());
        }
    }
}

/// Per-node endpoint of a [`SimNet`].
#[derive(Debug, Clone)]
pub struct SimSocket {
    net: SimNet,
    node: u32,
    slot: Slot,
}

impl SimSocket {
    /// This socket's node id.
    pub fn node(&self) -> u32 {
        self.node
    }

    /// The network this socket belongs to.
    pub fn network(&self) -> &SimNet {
        &self.net
    }

    /// Sends a datagram.
    ///
    /// # Errors
    ///
    /// [`SendError::PayloadExceedsMtu`] for oversized payloads,
    /// [`SendError::UnknownNode`] if this node was removed.
    pub fn send(&self, dest: Destination, payload: Bytes) -> Result<(), SendError> {
        self.net.inner.lock().send(self.slot, dest, payload)
    }

    /// Pops the next delivered datagram, if any.
    pub fn recv(&self) -> Option<(u32, Bytes)> {
        let mut inner = self.net.inner.lock();
        let inner = &mut *inner;
        // A removed node's inbox is empty, so a stale socket reads `None`.
        let handle = inner.slots[self.slot].inbox.pop_front()?;
        Some(inner.held.read(handle))
    }

    /// Number of datagrams waiting in the inbox.
    pub fn pending(&self) -> usize {
        self.net.inner.lock().slots[self.slot].inbox.len()
    }

    /// Joins a multicast group.
    pub fn join(&self, group: u32) {
        self.net.inner.lock().join(self.slot, group);
    }

    /// Leaves a multicast group.
    pub fn leave(&self, group: u32) {
        self.net.inner.lock().leave(self.slot, group);
    }

    /// The sender-side MTU this socket sees.
    pub fn mtu(&self) -> usize {
        self.net.inner.lock().link_mtu(self.node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{LinkConfig, NetConfig};
    use crate::stats::LinkObserved;

    fn quiet_net(seed: u64) -> SimNet {
        SimNet::new(NetConfig::default().with_seed(seed))
    }

    #[test]
    fn unicast_delivers_with_latency() {
        let net = quiet_net(1);
        let a = net.socket(1);
        let b = net.socket(2);
        a.send(Destination::Unicast(2), Bytes::from_static(b"x")).unwrap();
        assert_eq!(b.pending(), 0, "not before time advances");
        net.run_until_idle();
        assert!(net.now_us() >= 100, "default 100us latency");
        let (src, p) = b.recv().unwrap();
        assert_eq!((src, p.as_ref()), (1, b"x".as_ref()));
    }

    #[test]
    fn multicast_reaches_members_only() {
        let net = quiet_net(2);
        let a = net.socket(1);
        let b = net.socket(2);
        let c = net.socket(3);
        let d = net.socket(4);
        b.join(7);
        c.join(7);
        a.send(Destination::Multicast(7), Bytes::from_static(b"m")).unwrap();
        net.run_until_idle();
        assert_eq!(b.pending(), 1);
        assert_eq!(c.pending(), 1);
        assert_eq!(d.pending(), 0);
        // Sender counted once, deliveries per replica.
        let s = net.stats();
        assert_eq!(s.datagrams_sent, 1);
        assert_eq!(s.datagrams_delivered, 2);
    }

    #[test]
    fn sender_not_in_own_multicast() {
        let net = quiet_net(3);
        let a = net.socket(1);
        a.join(7);
        let b = net.socket(2);
        b.join(7);
        a.send(Destination::Multicast(7), Bytes::from_static(b"m")).unwrap();
        net.run_until_idle();
        assert_eq!(a.pending(), 0);
        assert_eq!(b.pending(), 1);
    }

    #[test]
    fn broadcast_reaches_everyone_else() {
        let net = quiet_net(4);
        let socks: Vec<_> = (1..=4).map(|i| net.socket(i)).collect();
        socks[0].send(Destination::Broadcast, Bytes::from_static(b"b")).unwrap();
        net.run_until_idle();
        assert_eq!(socks[0].pending(), 0);
        for s in &socks[1..] {
            assert_eq!(s.pending(), 1);
        }
    }

    #[test]
    fn loss_is_deterministic_per_seed() {
        let run = |seed: u64| -> u64 {
            let net = SimNet::new(
                NetConfig::default()
                    .with_seed(seed)
                    .with_default_link(LinkConfig::default().with_loss(0.5)),
            );
            let a = net.socket(1);
            let _b = net.socket(2);
            for _ in 0..100 {
                a.send(Destination::Unicast(2), Bytes::from_static(b"p")).unwrap();
            }
            net.run_until_idle();
            net.stats().datagrams_delivered
        };
        let d1 = run(11);
        let d2 = run(11);
        let d3 = run(12);
        assert_eq!(d1, d2, "same seed, same trace");
        assert!(d1 > 20 && d1 < 80, "loss of ~50% observed ({d1}/100)");
        assert!(d1 != d3 || run(13) != d1, "different seeds eventually differ");
    }

    #[test]
    fn per_link_observed_loss_converges_on_the_configured_rate() {
        let net = SimNet::new(
            NetConfig::default()
                .with_seed(21)
                .with_default_link(LinkConfig::default().with_loss(0.2)),
        );
        let a = net.socket(1);
        let _b = net.socket(2);
        for _ in 0..2000 {
            a.send(Destination::Unicast(2), Bytes::from_static(b"p")).unwrap();
        }
        net.run_until_idle();
        let observed = net.stats().link_observed(1, 2);
        assert_eq!(observed.attempts, 2000);
        let permille = observed.loss_permille();
        assert!(
            (160..=240).contains(&permille),
            "measured {permille}‰ should converge on the configured 200‰"
        );
        // The reverse direction carried nothing.
        assert_eq!(net.stats().link_observed(2, 1), LinkObserved::default());
    }

    #[test]
    fn partition_drops_do_not_count_as_loss_attempts() {
        let net = quiet_net(22);
        let a = net.socket(1);
        let _b = net.socket(2);
        net.set_partition(1, 2, true);
        a.send(Destination::Unicast(2), Bytes::from_static(b"p")).unwrap();
        net.run_until_idle();
        // A partition is a topology fact, not link-quality signal: it must
        // not pollute the loss ground truth the FEC estimator is judged by.
        assert_eq!(net.stats().link_observed(1, 2), LinkObserved::default());
        assert_eq!(net.stats().dropped_partition, 1);
    }

    #[test]
    fn mtu_is_enforced() {
        let net = quiet_net(5);
        let a = net.socket(1);
        let _b = net.socket(2);
        let big = Bytes::from(vec![0u8; 2000]);
        let err = a.send(Destination::Unicast(2), big).unwrap_err();
        assert!(matches!(err, SendError::PayloadExceedsMtu { mtu: 1500, .. }));
        assert_eq!(net.stats().dropped_mtu, 1);
    }

    #[test]
    fn bandwidth_serializes_bursts() {
        // 1 Mbit/s: a 125-byte datagram takes 1 ms to serialize. Ten sent
        // back-to-back must arrive spread over ~10 ms, not together.
        let net = SimNet::new(NetConfig::default().with_default_link(
            LinkConfig::default().with_bandwidth_bps(Some(1_000_000)).with_latency_us(0),
        ));
        let a = net.socket(1);
        let _b = net.socket(2);
        for _ in 0..10 {
            a.send(Destination::Unicast(2), Bytes::from(vec![0u8; 125])).unwrap();
        }
        net.run_until_idle();
        assert!(net.now_us() >= 10_000, "serialization spread: now={}", net.now_us());
    }

    #[test]
    fn partition_blocks_both_directions() {
        let net = quiet_net(6);
        let a = net.socket(1);
        let b = net.socket(2);
        net.set_partition(1, 2, true);
        a.send(Destination::Unicast(2), Bytes::from_static(b"x")).unwrap();
        b.send(Destination::Unicast(1), Bytes::from_static(b"y")).unwrap();
        net.run_until_idle();
        assert_eq!(a.pending() + b.pending(), 0);
        assert_eq!(net.stats().dropped_partition, 2);
        net.set_partition(1, 2, false);
        a.send(Destination::Unicast(2), Bytes::from_static(b"x")).unwrap();
        net.run_until_idle();
        assert_eq!(b.pending(), 1);
    }

    #[test]
    fn link_override_applies() {
        let net = quiet_net(7);
        let a = net.socket(1);
        let _b = net.socket(2);
        net.set_link(1, 2, LinkConfig::default().with_latency_us(50_000));
        a.send(Destination::Unicast(2), Bytes::from_static(b"x")).unwrap();
        net.run_until_idle();
        assert!(net.now_us() >= 50_000);
    }

    #[test]
    fn removed_node_is_unreachable_and_cannot_send() {
        let net = quiet_net(8);
        let a = net.socket(1);
        let b = net.socket(2);
        a.send(Destination::Unicast(2), Bytes::from_static(b"x")).unwrap();
        net.remove_node(2);
        net.run_until_idle();
        assert!(matches!(
            b.send(Destination::Unicast(1), Bytes::new()),
            Err(SendError::UnknownNode(2))
        ));
        // Delivery to removed node silently vanished.
        assert_eq!(net.stats().datagrams_delivered, 0);
    }

    #[test]
    fn advance_to_moves_idle_clock() {
        let net = quiet_net(9);
        let _a = net.socket(1);
        net.advance_to(5_000);
        assert_eq!(net.now_us(), 5_000);
        // Does not go backwards.
        net.advance_to(1_000);
        assert_eq!(net.now_us(), 5_000);
    }

    #[test]
    fn delivery_order_is_stable_for_equal_times() {
        let net = SimNet::new(
            NetConfig::default().with_default_link(LinkConfig::default().with_bandwidth_bps(None)),
        );
        let a = net.socket(1);
        let b = net.socket(2);
        for i in 0..10u8 {
            a.send(Destination::Unicast(2), Bytes::from(vec![i])).unwrap();
        }
        net.run_until_idle();
        let mut got = Vec::new();
        while let Some((_, p)) = b.recv() {
            got.push(p[0]);
        }
        assert_eq!(got, (0..10).collect::<Vec<u8>>(), "fifo for same-time events");
    }

    #[test]
    fn jitter_spreads_arrivals() {
        let net = SimNet::new(NetConfig::default().with_seed(10).with_default_link(
            LinkConfig::default().with_jitter_us(10_000).with_bandwidth_bps(None),
        ));
        let a = net.socket(1);
        let _b = net.socket(2);
        let mut arrivals = Vec::new();
        for _ in 0..20 {
            a.send(Destination::Unicast(2), Bytes::from_static(b"j")).unwrap();
        }
        while let Some(t) = net.step() {
            arrivals.push(t);
        }
        let min = arrivals.iter().min().unwrap();
        let max = arrivals.iter().max().unwrap();
        assert!(max - min > 1_000, "jitter must spread arrivals ({min}..{max})");
    }

    #[test]
    fn stats_bytes_track_payloads() {
        let net = quiet_net(11);
        let a = net.socket(1);
        let b = net.socket(2);
        a.send(Destination::Unicast(2), Bytes::from(vec![0u8; 100])).unwrap();
        b.send(Destination::Unicast(1), Bytes::from(vec![0u8; 50])).unwrap();
        net.run_until_idle();
        let s = net.stats();
        assert_eq!(s.bytes_sent, 150);
        assert_eq!(s.bytes_delivered, 150);
        assert_eq!(s.node(1).sent_bytes, 100);
        assert_eq!(s.node(1).delivered_bytes, 50);
        assert_eq!(s.node(2).sent, 1);
    }

    // ---- semantics pinned ahead of the slot-table / run-length rewrite ----

    #[test]
    fn replica_in_flight_lands_on_the_reattached_socket() {
        let net = quiet_net(30);
        let a = net.socket(1);
        let old = net.socket(2);
        a.send(Destination::Unicast(2), Bytes::from_static(b"r")).unwrap();
        net.remove_node(2);
        let fresh = net.socket(2);
        net.run_until_idle();
        assert_eq!(fresh.recv().map(|(s, p)| (s, p[0])), Some((1, b'r')));
        assert_eq!(old.recv(), None, "one inbox per node id: the replica was consumed above");
        let s = net.stats();
        assert_eq!((s.datagrams_delivered, s.node(2).delivered), (1, 1));
    }

    #[test]
    fn replica_to_a_node_that_stays_removed_vanishes() {
        let net = quiet_net(31);
        let a = net.socket(1);
        let _b = net.socket(2);
        let c = net.socket(3);
        a.send(Destination::Broadcast, Bytes::from_static(b"v")).unwrap();
        net.remove_node(2);
        net.run_until_idle();
        assert_eq!(c.pending(), 1);
        let s = net.stats();
        assert_eq!(s.datagrams_delivered, 1, "only node 3's replica counts");
        assert_eq!(s.bytes_delivered, 1);
        assert_eq!(s.node(2), crate::stats::NodeStats::default());
        assert_eq!(s.total_dropped(), 0, "vanished, not dropped");
        assert_eq!(s.link_observed(1, 2).attempts, 1, "the loss roll happened at send time");
        assert_eq!(s.vanished, 1);
    }

    #[test]
    fn an_unread_inbox_dropped_by_remove_node_vanishes() {
        let net = quiet_net(34);
        let a = net.socket(1);
        let b = net.socket(2);
        let c = net.socket(3);
        a.send(Destination::Unicast(2), Bytes::from_static(b"u")).unwrap();
        a.send(Destination::Broadcast, Bytes::from(vec![7u8; 4])).unwrap();
        net.run_until_idle();
        assert_eq!((b.pending(), c.pending()), (2, 1));
        net.remove_node(2);
        let s = net.stats();
        assert_eq!(s.vanished, 2, "both unread replicas");
        assert_eq!(s.total_dropped(), 0, "vanished, not dropped");
        assert_eq!((s.datagrams_delivered, s.node(2).delivered), (3, 2), "they were delivered");
        // The broadcast is still held for node 3, and only for it.
        assert_eq!(c.recv().map(|(src, p)| (src, p.to_vec())), Some((1, vec![7u8; 4])));
        let inner = net.inner.lock();
        assert!(inner.held.slots.iter().all(|held| held.readers == 0));
        assert_eq!(inner.held.free.len(), inner.held.slots.len());
    }

    #[test]
    fn stale_socket_of_a_removed_node_is_inert() {
        let net = quiet_net(32);
        let a = net.socket(1);
        let b = net.socket(2);
        b.join(7);
        a.send(Destination::Unicast(2), Bytes::from_static(b"x")).unwrap();
        net.run_until_idle();
        assert_eq!(b.pending(), 1);
        net.remove_node(2);
        assert_eq!(b.pending(), 0, "the inbox went with the node");
        assert_eq!(b.recv(), None);
        assert_eq!(b.send(Destination::Broadcast, Bytes::new()), Err(SendError::UnknownNode(2)));
        b.join(9); // no node to join: must not resurrect it
        assert!(!net.has_node(2));
        // Re-attaching starts from scratch: no inbox, no memberships.
        let b2 = net.socket(2);
        a.send(Destination::Multicast(7), Bytes::from_static(b"m")).unwrap();
        net.run_until_idle();
        assert_eq!(b2.pending(), 0, "group 7 membership died with the old life");
        assert_eq!(net.stats().no_receiver, 1);
    }

    #[test]
    fn join_twice_and_leave_of_a_non_member_are_no_ops() {
        let net = quiet_net(33);
        let a = net.socket(1);
        let b = net.socket(2);
        let c = net.socket(3);
        b.join(7);
        b.join(7);
        c.leave(7); // never joined
        a.send(Destination::Multicast(7), Bytes::from_static(b"1")).unwrap();
        net.run_until_idle();
        assert_eq!(
            (b.pending(), c.pending()),
            (1, 0),
            "one replica per member, however often it joined"
        );
        b.leave(7);
        b.leave(7);
        a.send(Destination::Multicast(7), Bytes::from_static(b"2")).unwrap();
        net.run_until_idle();
        assert_eq!(b.pending(), 1, "left: nothing new");
        let s = net.stats();
        assert_eq!((s.datagrams_sent, s.datagrams_delivered, s.no_receiver), (2, 1, 1));
    }

    /// The delivery order and every counter of a mixed workload under loss
    /// and jitter, frozen from the pre-rewrite simulator (PR 13): replica
    /// order decides how the RNG stream maps onto datagrams, so any change
    /// to target order, seq assignment or heap tie-breaking shows up here.
    #[test]
    fn golden_delivery_order_and_counters_under_loss_and_jitter() {
        let net = SimNet::new(
            NetConfig::default()
                .with_seed(0x6F1D)
                .with_default_link(LinkConfig::default().with_loss(0.3).with_jitter_us(2_000)),
        );
        // Attach out of id order: replica order must follow ids, not attach order.
        let ids = [4u32, 1, 5, 3, 2];
        let socks: Vec<SimSocket> = ids.iter().map(|&i| net.socket(i)).collect();
        let sock = |id: u32| &socks[ids.iter().position(|&i| i == id).unwrap()];
        for id in [5, 2, 4, 3] {
            sock(id).join(7);
        }
        for id in [3, 1, 5] {
            sock(id).join(9);
        }
        let mut deliveries: Vec<(u64, u32, u32, u8)> = Vec::new();
        let drain = |t: u64, out: &mut Vec<(u64, u32, u32, u8)>| {
            for &id in &[1u32, 2, 3, 4, 5] {
                while let Some((src, p)) = sock(id).recv() {
                    out.push((t, src, id, p[0]));
                }
            }
        };
        let mut tag = 0u8;
        for round in 0..3u64 {
            for sender in [1u32, 2, 3] {
                for dest in [
                    Destination::Multicast(7),
                    Destination::Broadcast,
                    Destination::Unicast(sender % 5 + 2),
                    Destination::Multicast(9),
                ] {
                    tag += 1;
                    sock(sender).send(dest, Bytes::from(vec![tag; 3 + tag as usize])).unwrap();
                }
            }
            // Let part of the round land before the next one is sent.
            while net.next_event_at().is_some_and(|t| t <= (round + 1) * 1_200) {
                let t = net.step().unwrap();
                drain(t, &mut deliveries);
            }
        }
        while let Some(t) = net.step() {
            drain(t, &mut deliveries);
        }
        let s = net.stats();
        let links: Vec<(u32, u32, u64, u64)> =
            s.per_link.iter().map(|(&(a, b), o)| (a, b, o.attempts, o.lost)).collect();
        let nodes: Vec<(u32, u64, u64, u64, u64)> = s
            .per_node
            .iter()
            .map(|(&n, o)| (n, o.sent, o.sent_bytes, o.delivered, o.delivered_bytes))
            .collect();
        #[rustfmt::skip]
        let golden: Vec<(u64, u32, u32, u8)> = vec![
            (152, 1, 4, 1), (196, 2, 5, 8), (428, 2, 4, 7), (516, 3, 5, 9), (612, 1, 3, 2),
            (705, 3, 1, 12), (809, 1, 3, 1), (812, 1, 5, 1), (842, 3, 4, 10), (849, 3, 2, 10),
            (975, 2, 1, 8), (986, 3, 5, 10), (1003, 1, 2, 1), (1203, 1, 3, 15), (1225, 2, 4, 18),
            (1253, 1, 5, 13), (1271, 2, 1, 6), (1274, 2, 3, 6), (1332, 1, 5, 2), (1401, 2, 4, 17),
            (1466, 3, 2, 22), (1514, 3, 4, 9), (1547, 1, 4, 14), (1554, 1, 5, 14), (1626, 3, 4, 22),
            (1663, 3, 5, 23), (1737, 2, 4, 5), (1767, 1, 5, 16), (1801, 3, 5, 21), (1824, 2, 3, 5),
            (1826, 1, 3, 13), (1842, 2, 3, 18), (1876, 2, 5, 20), (1887, 1, 5, 4), (2028, 2, 3, 8),
            (2073, 1, 3, 3), (2224, 1, 3, 16), (2270, 3, 5, 24), (2277, 2, 3, 20), (2428, 3, 2, 34),
            (2457, 1, 2, 14), (2544, 3, 1, 24), (2556, 1, 4, 13), (2644, 2, 4, 31), (2675, 3, 2, 21),
            (2678, 2, 4, 29), (2771, 3, 5, 35), (2778, 3, 1, 22), (2783, 3, 5, 22), (2872, 1, 2, 25),
            (2920, 3, 5, 34), (2923, 1, 3, 14), (2934, 2, 4, 30), (2954, 3, 1, 36), (3003, 3, 4, 21),
            (3039, 1, 5, 28), (3080, 2, 4, 19), (3126, 2, 5, 32), (3244, 3, 4, 34), (3482, 1, 5, 26),
            (3507, 1, 3, 27), (3608, 3, 5, 36), (3657, 2, 5, 29), (3711, 1, 4, 26), (3839, 1, 3, 25),
            (3841, 3, 2, 33), (3885, 2, 3, 30), (3903, 1, 4, 25), (4017, 3, 5, 33), (4049, 1, 2, 26),
            (4257, 1, 3, 26),
        ];
        assert_eq!(deliveries, golden, "(time, src, dst, first payload byte) sequence");
        #[rustfmt::skip]
        assert_eq!(links, vec![
            (1, 2, 6, 2), (1, 3, 12, 2), (1, 4, 6, 1), (1, 5, 9, 1), (2, 1, 6, 4), (2, 3, 9, 3),
            (2, 4, 9, 1), (2, 5, 9, 5), (3, 1, 6, 2), (3, 2, 6, 1), (3, 4, 6, 1), (3, 5, 12, 2),
        ], "per_link (src, dst, attempts, lost)");
        #[rustfmt::skip]
        assert_eq!(nodes, vec![
            (1, 12, 210, 6, 126), (2, 12, 258, 9, 213), (3, 12, 306, 16, 277),
            (4, 0, 0, 18, 385), (5, 0, 0, 22, 506),
        ], "per_node (id, sent, sent_bytes, delivered, delivered_bytes)");
        assert_eq!(
            (s.datagrams_sent, s.bytes_sent, s.datagrams_delivered, s.bytes_delivered),
            (36, 774, 71, 1507)
        );
        assert_eq!(
            (s.dropped_loss, s.dropped_mtu, s.dropped_partition, s.no_receiver),
            (25, 0, 0, 0)
        );
    }

    /// Same idea without jitter: replicas of one send share a `deliver_at`
    /// (the run-length case), loss punches holes into the runs, a
    /// partition removes targets before the loss roll, and with infinite
    /// bandwidth sends from different nodes tie on time — inbox order must
    /// still be send order.
    #[test]
    fn golden_inbox_order_with_ties_loss_and_a_partition() {
        let net = SimNet::new(
            NetConfig::default()
                .with_seed(0xBEE5)
                .with_default_link(LinkConfig::default().with_loss(0.3).with_bandwidth_bps(None)),
        );
        let ids = [3u32, 6, 1, 5, 2, 4];
        let socks: Vec<SimSocket> = ids.iter().map(|&i| net.socket(i)).collect();
        let sock = |id: u32| &socks[ids.iter().position(|&i| i == id).unwrap()];
        for id in [6, 2, 3, 5, 1] {
            sock(id).join(7);
        }
        net.set_partition(2, 5, true);
        let mut tag = 0u8;
        for round in 1..=4u64 {
            for sender in [2u32, 1, 6] {
                for dest in [Destination::Multicast(7), Destination::Broadcast] {
                    tag += 1;
                    sock(sender).send(dest, Bytes::from(vec![tag])).unwrap();
                }
            }
            if round == 2 {
                sock(3).leave(7); // replicas already in flight to 3 still land
            }
            net.advance_to(round * 60); // latency 100: rounds overlap in flight
        }
        net.run_until_idle();
        let inboxes: Vec<(u32, Vec<(u32, u8)>)> = (1..=6u32)
            .map(|id| {
                (id, std::iter::from_fn(|| sock(id).recv()).map(|(s, p)| (s, p[0])).collect())
            })
            .collect();
        let s = net.stats();
        let links: Vec<(u32, u32, u64, u64)> =
            s.per_link.iter().map(|(&(a, b), o)| (a, b, o.attempts, o.lost)).collect();
        #[rustfmt::skip]
        let golden: Vec<(u32, Vec<(u32, u8)>)> = vec![
            (1, vec![(6, 5), (2, 7), (2, 8), (6, 11), (2, 13), (2, 14), (6, 18), (2, 20)]),
            (2, vec![(1, 3), (1, 9), (6, 11), (1, 15), (1, 16), (6, 17), (6, 18), (1, 21), (1, 22),
                     (6, 23), (6, 24)]),
            (3, vec![(1, 3), (1, 4), (6, 5), (6, 6), (1, 10), (6, 12), (1, 16), (1, 22), (6, 24)]),
            (4, vec![(2, 2), (1, 4), (6, 6), (2, 8), (1, 10), (2, 14), (1, 16), (6, 18), (6, 24)]),
            (5, vec![(6, 5), (6, 6), (1, 9), (1, 10), (6, 11), (6, 12), (1, 15), (6, 17), (6, 18),
                     (1, 21), (1, 22), (6, 24)]),
            (6, vec![(2, 1), (2, 2), (2, 8), (1, 9), (1, 10), (2, 13), (2, 14), (1, 15), (1, 16),
                     (1, 21), (1, 22)]),
        ];
        assert_eq!(inboxes, golden, "per-node inbox order (src, first payload byte)");
        #[rustfmt::skip]
        assert_eq!(links, vec![
            (1, 2, 8, 2), (1, 3, 6, 1), (1, 4, 4, 1), (1, 5, 8, 3), (1, 6, 8, 2), (2, 1, 8, 3),
            (2, 3, 6, 6), (2, 4, 4, 1), (2, 6, 8, 3), (6, 1, 8, 5), (6, 2, 8, 3), (6, 3, 6, 2),
            (6, 4, 4, 1), (6, 5, 8, 1),
        ], "per_link (src, dst, attempts, lost): partitioned 2<->5 never reaches the loss roll");
        assert_eq!(
            (s.datagrams_sent, s.datagrams_delivered, s.dropped_loss, s.dropped_partition),
            (24, 60, 34, 8)
        );
        assert_eq!(s.no_receiver, 0);
    }

    #[test]
    fn replicas_that_tie_on_arrival_share_one_heap_entry() {
        let net = quiet_net(40);
        let socks: Vec<_> = (1..=9).map(|i| net.socket(i)).collect();
        socks[0].send(Destination::Broadcast, Bytes::from_static(b"b")).unwrap();
        assert_eq!((net.inflight_entries(), net.inflight_replicas()), (1, 8));
        // Single-stepping walks the run replica by replica, in id order.
        assert_eq!(net.step(), Some(100));
        assert_eq!((net.inflight_entries(), net.inflight_replicas()), (1, 7));
        assert_eq!((socks[1].pending(), socks[2].pending()), (1, 0));
        net.advance_to(100);
        assert_eq!((net.inflight_entries(), net.inflight_replicas()), (0, 0));
        assert!(socks[1..].iter().all(|s| s.pending() == 1));
        // Jitter breaks the ties: one entry per replica again.
        net.set_default_link(LinkConfig::default().with_jitter_us(50_000));
        socks[0].send(Destination::Broadcast, Bytes::from_static(b"j")).unwrap();
        assert_eq!(net.inflight_replicas(), 8);
        assert!(net.inflight_entries() >= 7, "{} entries", net.inflight_entries());
    }

    /// A steady multicast stream, delivered by both `step` and
    /// `advance_to`, reuses the target lists of delivered runs: after the
    /// first round no send opens a new one.
    #[test]
    fn steady_multicast_reuses_its_target_lists() {
        let net = quiet_net(43);
        let socks: Vec<_> = (1..=5).map(|i| net.socket(i)).collect();
        for s in &socks[1..] {
            s.join(7);
        }
        // Nothing is in flight between rounds: every list opened is free.
        let opened = || net.inner.lock().lists.free.len();
        let round = |t: u64| {
            // Two runs in flight at once: the first (four replicas)
            // delivered replica by replica, the second in one sweep.
            socks[0].send(Destination::Multicast(7), Bytes::from_static(b"a")).unwrap();
            socks[1].send(Destination::Multicast(7), Bytes::from_static(b"b")).unwrap();
            for _ in 0..4 {
                net.step();
            }
            assert_eq!(net.inflight_entries(), 1, "the stepped run is done");
            net.advance_to(t);
        };
        round(1_000);
        let warm = opened();
        assert_eq!(warm, 2, "one list per run in flight");
        for i in 2..50 {
            round(i * 1_000);
        }
        assert_eq!(opened(), warm, "no new list after warm-up");
        assert_eq!(net.stats().datagrams_delivered, 49 * (4 + 3), "every member but the sender");
    }

    #[test]
    fn drain_woken_names_each_receiver_once() {
        let net = quiet_net(41);
        let a = net.socket(1);
        let _b = net.socket(2);
        let _c = net.socket(3);
        let mut woken = Vec::new();
        net.drain_woken(&mut woken);
        assert!(woken.is_empty());
        for _ in 0..3 {
            a.send(Destination::Unicast(3), Bytes::from_static(b"x")).unwrap();
        }
        a.send(Destination::Unicast(2), Bytes::from_static(b"y")).unwrap();
        net.run_until_idle();
        net.drain_woken(&mut woken);
        assert_eq!(woken, vec![3, 2], "first-arrival order, no duplicates");
        woken.clear();
        net.drain_woken(&mut woken);
        assert!(woken.is_empty(), "drained");
        a.send(Destination::Unicast(3), Bytes::from_static(b"z")).unwrap();
        net.run_until_idle();
        net.drain_woken(&mut woken);
        assert_eq!(woken, vec![3], "an undrained inbox still reports new arrivals");
    }

    #[test]
    fn reset_stats_clears_the_folded_rows_too() {
        let net = quiet_net(42);
        let a = net.socket(1);
        let _b = net.socket(2);
        a.send(Destination::Unicast(2), Bytes::from_static(b"x")).unwrap();
        net.run_until_idle();
        assert_eq!(net.with_stats(|s| (s.per_node.len(), s.per_link.len())), (2, 1));
        net.reset_stats();
        assert_eq!(net.stats(), NetStats::default());
        a.send(Destination::Unicast(2), Bytes::from_static(b"x")).unwrap();
        assert_eq!(net.stats().per_node.keys().copied().collect::<Vec<_>>(), vec![1]);
    }

    /// A ring where every node multicasts at the same instant, as the
    /// swarm's beacons do: every inbox fills to a fan-in of `n - 1` and
    /// every node's run is in flight at once. Per node pair netsim keeps
    /// a 4-byte handle, an 8-byte link row and a 4-byte target; each
    /// datagram is held once.
    #[test]
    fn netsim_keeps_at_most_24_bytes_a_node_pair_on_a_beacon_ring() {
        for n in [64u32, 128, 256] {
            let net = quiet_net(44);
            let socks: Vec<_> = (1..=n).map(|i| net.socket(i)).collect();
            for s in &socks {
                s.join(7);
            }
            for round in 1..=3u64 {
                for s in &socks {
                    s.send(Destination::Multicast(7), Bytes::from(vec![round as u8; 40])).unwrap();
                }
                net.advance_to(round * 10_000);
                assert!(socks.iter().all(|s| s.pending() == n as usize - 1));
                for s in &socks {
                    while s.recv().is_some() {}
                }
            }
            let per_pair = net.bytes() as f64 / f64::from(n * n);
            assert!(per_pair <= 24.0, "{n} nodes: {per_pair:.1} bytes a node pair");
        }
    }

    /// The last reader of a multicast, delivered whole or replica by
    /// replica, gets the only reference to the payload once the earlier
    /// readers have dropped theirs: a transport may reuse the buffer.
    #[test]
    fn the_last_reader_of_a_multicast_holds_its_payload_alone() {
        let net = quiet_net(45);
        let socks: Vec<_> = (1..=4).map(|i| net.socket(i)).collect();
        for s in &socks[1..] {
            s.join(7);
        }
        for whole in [true, false] {
            socks[0].send(Destination::Multicast(7), Bytes::from(vec![1u8; 64])).unwrap();
            if whole {
                net.advance_to(net.now_us() + 1_000);
            } else {
                net.run_until_idle();
            }
            let first = socks[1].recv().unwrap().1;
            assert!(!first.is_unique(), "two more readers");
            drop(first);
            let second = socks[2].recv().unwrap().1;
            let last = socks[3].recv().unwrap().1;
            assert!(!last.is_unique(), "the second reader still holds a copy");
            drop(second);
            assert!(last.is_unique());
        }
    }

    /// Random sends, deliveries (whole and stepped), reads, removals and
    /// re-attaches over a lossy, sometimes jittered LAN. Every replica
    /// that passed the loss roll is read, vanishes on arrival or is
    /// dropped unread with its node; once every inbox is drained and
    /// nothing is in flight every held slot is free and holds no payload.
    #[test]
    fn held_datagrams_are_freed_by_their_last_reader_under_random_ops() {
        let net = SimNet::new(
            NetConfig::default()
                .with_seed(46)
                .with_default_link(LinkConfig::default().with_loss(0.2).with_bandwidth_bps(None)),
        );
        let mut rng = SmallRng::seed_from_u64(46);
        let mut socks: Vec<SimSocket> = (1..=6).map(|i| net.socket(i)).collect();
        for s in &socks {
            s.join(1 + s.node() % 2);
        }
        let (mut reads, mut dropped_unread) = (0u64, 0u64);
        let check_slab = |net: &SimNet| {
            let inner = net.inner.lock();
            let listed: usize = inner.slots.iter().map(|node| node.inbox.len()).sum();
            let readers: usize = inner.held.slots.iter().map(|held| held.readers as usize).sum();
            assert_eq!(listed, readers, "each listing is one reader");
            for &free in &inner.held.free {
                let held = &inner.held.slots[free as usize];
                assert_eq!((held.readers, held.payload.len()), (0, 0));
            }
        };
        for op in 0..4_000 {
            if op == 2_000 {
                net.set_default_link(
                    LinkConfig::default()
                        .with_loss(0.2)
                        .with_jitter_us(300)
                        .with_bandwidth_bps(None),
                );
            }
            let sock = &socks[rng.gen_range(0..socks.len())];
            match rng.gen_range(0..10) {
                0..=2 => {
                    let dest = match rng.gen_range(0..3) {
                        0 => Destination::Unicast(rng.gen_range(1..=7)),
                        1 => Destination::Multicast(rng.gen_range(1..=2)),
                        _ => Destination::Broadcast,
                    };
                    let _ = sock.send(dest, Bytes::from(vec![op as u8; 1 + op % 32]));
                }
                3 => {
                    net.step();
                }
                4 => net.advance_to(net.now_us() + rng.gen_range(0..200u64)),
                5..=7 => reads += u64::from(sock.recv().is_some()),
                8 if rng.gen_range(0..8) == 0 => {
                    dropped_unread += sock.pending() as u64;
                    net.remove_node(sock.node());
                }
                _ if !net.has_node(sock.node()) => {
                    let id = sock.node();
                    let fresh = net.socket(id);
                    fresh.join(1 + id % 2);
                    socks[(id - 1) as usize] = fresh;
                }
                _ => {}
            }
            check_slab(&net);
        }
        net.run_until_idle();
        for s in &socks {
            while s.recv().is_some() {
                reads += 1;
            }
        }
        check_slab(&net);
        let s = net.stats();
        let survived: u64 = s.per_link.values().map(|o| o.attempts - o.lost).sum();
        assert_eq!(survived, s.datagrams_delivered + s.vanished - dropped_unread);
        assert_eq!(s.datagrams_delivered, reads + dropped_unread);
        assert!(reads > 1_000 && dropped_unread > 0 && s.vanished > dropped_unread, "{s:?}");
        let inner = net.inner.lock();
        assert_eq!(inner.held.free.len(), inner.held.slots.len(), "every slot is free");
        assert!(inner.held.slots.iter().all(|held| held.readers == 0 && held.payload.is_empty()));
    }

    #[test]
    fn for_each_link_reads_the_per_link_rows_in_order() {
        let net = SimNet::new(
            NetConfig::default()
                .with_seed(47)
                .with_default_link(LinkConfig::default().with_loss(0.3)),
        );
        // Attach out of id order; node 9 leaves with its rows still counted.
        let socks: Vec<_> = [5u32, 2, 9, 1].iter().map(|&i| net.socket(i)).collect();
        for s in &socks {
            for _ in 0..5 {
                s.send(Destination::Broadcast, Bytes::from_static(b"l")).unwrap();
            }
        }
        net.remove_node(9);
        socks[1].send(Destination::Broadcast, Bytes::from_static(b"l")).unwrap();
        let mut rows = Vec::new();
        net.for_each_link(|src, dst, observed| rows.push(((src, dst), observed)));
        let folded: Vec<_> = net.stats().per_link.into_iter().collect();
        assert_eq!(rows, folded);
        assert_eq!(rows.len(), 12);
    }

    #[test]
    fn unicast_to_unknown_counts_no_receiver() {
        let net = quiet_net(12);
        let a = net.socket(1);
        a.send(Destination::Unicast(99), Bytes::from_static(b"x")).unwrap();
        net.run_until_idle();
        assert_eq!(net.stats().no_receiver, 1);
    }
}
