//! Event primitive bookkeeping (paper §4.2).

use std::collections::{BTreeMap, BTreeSet};

use bytes::Bytes;

use marea_encoding::{Codec, CodecRegistry};
use marea_presentation::{DataType, Name, Value};
use marea_protocol::messages::Provision;
use marea_protocol::{NodeId, ServiceId};

use super::{decode_payload, encode_payload, Rebind};
use crate::directory::Directory;
use crate::qos::{DropPolicy, EventQos};
use crate::scheduler::Priority;
use crate::service::ServiceDescriptor;
use crate::stats::{ContainerStats, EventSubscriptionStats, Occupancy};

/// Publisher-side state of one declared event channel.
#[derive(Debug)]
struct PublishedEvent {
    /// Declaring local service.
    owner_seq: u32,
    /// Payload schema (`None` = bare events).
    ty: Option<DataType>,
    /// Next event sequence number on this channel.
    seq: u64,
    /// Remote nodes with at least one subscriber; each gets a reliable
    /// copy of every event.
    remote_subscribers: BTreeSet<NodeId>,
}

/// One local subscriber of an event channel and its declared contract.
#[derive(Debug)]
struct EventSubscriber {
    /// Subscribing local service (per-node sequence).
    seq: u32,
    /// The declared [`EventQos`] contract.
    qos: EventQos,
    /// Deliveries currently queued in the scheduler for this subscriber.
    inbox: usize,
    /// Highest inbox depth observed.
    inbox_peak: usize,
    /// Deliveries dropped by the inbox bound.
    drops: u64,
}

impl EventSubscriber {
    fn new(seq: u32, qos: EventQos) -> Self {
        EventSubscriber { seq, qos, inbox: 0, inbox_peak: 0, drops: 0 }
    }
}

/// Subscriber-side state of one event channel.
#[derive(Debug, Default)]
struct SubscribedEvent {
    /// Local subscribers with their contracts.
    subscribers: Vec<EventSubscriber>,
    /// Resolved provider.
    provider: Option<ServiceId>,
    /// Payload schema learned from the announcement.
    ty: Option<DataType>,
    /// SubscribeEvent was sent to the current provider.
    subscribe_sent: bool,
}

impl SubscribedEvent {
    /// Marks one queued delivery for `seq` as executed (or abandoned).
    ///
    /// A service may appear more than once (duplicate declarations); the
    /// decrement goes to one of its entries that still counts queued work,
    /// so the summed inbox depth always equals the queued deliveries and
    /// can never leak upward.
    fn dec_inbox(&mut self, seq: u32) {
        if let Some(entry) = self.subscribers.iter_mut().find(|s| s.seq == seq && s.inbox > 0) {
            entry.inbox -= 1;
        }
    }

    /// Total inbox drops over this channel's subscribers.
    fn total_drops(&self) -> u64 {
        self.subscribers.iter().map(|s| s.drops).sum()
    }

    /// Highest inbox depth observed on any subscriber.
    fn inbox_peak(&self) -> usize {
        self.subscribers.iter().map(|s| s.inbox_peak).max().unwrap_or(0)
    }

    /// Drops the provider binding for re-resolution.
    fn unbind(&mut self) {
        self.provider = None;
        self.subscribe_sent = false;
        self.ty = None;
    }
}

/// What a subscriber's bounded inbox decided about one incoming event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Admission {
    /// Room in the inbox: queue the delivery.
    Push,
    /// Full, [`DropPolicy::DropOldest`]: retract this subscriber's stalest
    /// queued delivery, then queue the fresh one.
    ReplaceOldest,
    /// Full, [`DropPolicy::DropNewest`]: the event is dropped.
    Refuse,
}

/// An event the publisher side accepted, ready for the wire.
#[derive(Debug)]
pub(crate) struct Emitted {
    /// Encoded payload (empty for a bare event).
    pub payload: Bytes,
    pub seq: u64,
    /// A payload handed to a channel declared bare was counted and
    /// dropped: the event travels — and is delivered locally — bare.
    pub payload_dropped: bool,
}

/// All event state of one container.
#[derive(Debug, Default)]
pub(crate) struct EventEngine {
    published: BTreeMap<Name, PublishedEvent>,
    subscribed: BTreeMap<Name, SubscribedEvent>,
    /// Payloads violating the channel declaration (see
    /// [`TypeMismatchStats::events`](crate::stats::TypeMismatchStats)).
    type_mismatches: u64,
}

impl EventEngine {
    /// Takes in what `descriptor` provides and subscribes to, on behalf of
    /// local service `seq`.
    pub fn register(&mut self, seq: u32, descriptor: &ServiceDescriptor) {
        for p in descriptor.provides() {
            let Provision::Event { name, ty } = p else { continue };
            let channel = PublishedEvent {
                owner_seq: seq,
                ty: ty.clone(),
                seq: 0,
                remote_subscribers: BTreeSet::new(),
            };
            self.published.insert(name.clone(), channel);
        }
        for sub in descriptor.event_subscriptions() {
            self.subscribed
                .entry(sub.name.clone())
                .or_default()
                .subscribers
                .push(EventSubscriber::new(seq, sub.qos));
        }
    }

    /// The [`Name`] held for a channel called `s`, subscribed or published.
    pub fn held_name(&self, s: &str) -> Option<Name> {
        let held = self.subscribed.get_key_value(s).map(|(name, _)| name);
        held.or_else(|| self.published.get_key_value(s).map(|(name, _)| name)).cloned()
    }

    /// Publisher side of an `emit`: checks ownership and the payload
    /// against the declaration, numbers the event. The error is the log
    /// line saying why it was dropped.
    pub fn emit(
        &mut self,
        owner_seq: u32,
        name: &Name,
        value: Option<&Value>,
        codec: &dyn Codec,
    ) -> Result<Emitted, String> {
        let Some(pe) = self.published.get_mut(name) else {
            return Err(format!("emit on undeclared event `{name}` dropped"));
        };
        if pe.owner_seq != owner_seq {
            return Err(format!("emit on foreign event `{name}` dropped"));
        }
        let (payload, payload_dropped) = match (&pe.ty, value) {
            (Some(ty), Some(v)) => match encode_payload(codec, v, ty) {
                Ok(payload) => (payload, false),
                Err(e) => {
                    self.type_mismatches += 1;
                    return Err(format!("event `{name}` payload violates schema: {e}"));
                }
            },
            (None, Some(_)) => {
                self.type_mismatches += 1;
                (Bytes::new(), true)
            }
            _ => (Bytes::new(), false),
        };
        pe.seq += 1;
        Ok(Emitted { payload, seq: pe.seq, payload_dropped })
    }

    /// Subscriber side of a received `EventData`: the decoded payload
    /// (`None`: bare) and whether one arrived that does not decode against
    /// the announced schema — counted, and delivered bare so subscribers
    /// still see the occurrence. `None` when nobody here subscribes.
    pub fn on_data(
        &mut self,
        name: &Name,
        codec: u8,
        payload: &[u8],
        codecs: &CodecRegistry,
    ) -> Option<(Option<Value>, bool)> {
        let sub = self.subscribed.get(name)?;
        if payload.is_empty() {
            return Some((None, false));
        }
        let value = decode_payload(codecs, sub.ty.as_ref(), codec, payload);
        let violates = value.is_none();
        self.type_mismatches += u64::from(violates);
        Some((value, violates))
    }

    /// Offers one event to every local subscriber of `name` under its
    /// [`EventQos`] contract: `sink` hears, in subscription order, which
    /// service gets it on which priority lane, what its bounded inbox
    /// decided, and whether it is the last one that takes the event (so the
    /// caller can move the payload there instead of cloning it).
    /// [`delivery_left_queue`](Self::delivery_left_queue) is the other half
    /// of the inbox accounting.
    pub fn admit(&mut self, name: &Name, mut sink: impl FnMut(u32, Priority, Admission, bool)) {
        let Some(sub) = self.subscribed.get_mut(name) else { return };
        // Each inbox decides from its own depth alone, so who refuses is
        // known before anyone is told.
        let refuses = |e: &EventSubscriber| {
            e.inbox >= e.qos.queue_bound && e.qos.drop_policy == DropPolicy::DropNewest
        };
        let last_taker = sub.subscribers.iter().rposition(|e| !refuses(e));
        for (i, entry) in sub.subscribers.iter_mut().enumerate() {
            let admission = if entry.inbox >= entry.qos.queue_bound {
                entry.drops += 1;
                match entry.qos.drop_policy {
                    DropPolicy::DropOldest => Admission::ReplaceOldest,
                    DropPolicy::DropNewest => Admission::Refuse,
                }
            } else {
                entry.inbox += 1;
                entry.inbox_peak = entry.inbox_peak.max(entry.inbox);
                Admission::Push
            };
            sink(entry.seq, entry.qos.priority, admission, Some(i) == last_taker);
        }
    }

    /// A queued delivery of `name` to service `seq` left the scheduler
    /// (executed or abandoned): its inbox slot is free again.
    pub fn delivery_left_queue(&mut self, name: &Name, seq: u32) {
        if let Some(sub) = self.subscribed.get_mut(name) {
            sub.dec_inbox(seq);
        }
    }

    /// Adds (`subscribed`) or forgets a remote subscriber of a channel.
    pub fn set_remote_subscriber(&mut self, name: &Name, node: NodeId, subscribed: bool) {
        let Some(pe) = self.published.get_mut(name) else { return };
        if subscribed {
            pe.remote_subscribers.insert(node);
        } else {
            pe.remote_subscribers.remove(&node);
        }
    }

    /// `node` died: it subscribes to nothing any more (a restarted node
    /// subscribes afresh when it binds).
    pub fn drop_peer(&mut self, node: NodeId) {
        for pe in self.published.values_mut() {
            pe.remote_subscribers.remove(&node);
        }
    }

    /// Remote subscriber nodes of a published channel, in node order;
    /// each gets a reliable copy of every event.
    pub fn remote_subscribers(&self, name: &Name) -> impl Iterator<Item = NodeId> + '_ {
        self.published.get(name).into_iter().flat_map(|pe| pe.remote_subscribers.iter().copied())
    }

    /// Re-resolves every subscription against `directory`; answers the
    /// bindings that changed, in name order.
    pub fn rebind_all(&mut self, directory: &Directory) -> Vec<(Name, Rebind)> {
        let mut changed = Vec::new();
        for (name, sub) in &mut self.subscribed {
            let announced =
                directory.resolve_event(name.as_str()).and_then(|p| match &p.provision {
                    Provision::Event { ty, .. } => Some((p.service, ty)),
                    _ => None,
                });
            let rebind = match announced {
                Some((provider, ty)) if sub.provider != Some(provider) || !sub.subscribe_sent => {
                    let fresh = sub.provider.is_none();
                    sub.provider = Some(provider);
                    sub.ty = ty.clone();
                    sub.subscribe_sent = true;
                    Rebind::Bound { provider, fresh }
                }
                None if sub.subscribe_sent || sub.provider.is_some() => {
                    sub.unbind();
                    Rebind::Lost
                }
                _ => continue,
            };
            changed.push((name.clone(), rebind));
        }
        changed
    }

    /// Local services subscribed to `name`, in subscription order.
    pub fn subscribers(&self, name: &Name) -> impl Iterator<Item = u32> + '_ {
        self.subscribed.get(name).into_iter().flat_map(|s| s.subscribers.iter().map(|e| e.seq))
    }

    /// Writes the counters this engine owns.
    pub fn fill_stats(&self, stats: &mut ContainerStats) {
        stats.type_mismatches.events = self.type_mismatches;
        stats.qos.queue_drops = self.subscribed.values().map(|s| s.total_drops()).sum();
    }

    /// Writes the gauges this engine owns.
    pub fn fill_occupancy(&self, occupancy: &mut Occupancy) {
        occupancy.remote_subscribers +=
            self.published.values().map(|p| p.remote_subscribers.len()).sum::<usize>();
    }

    /// QoS counters of one subscribed channel.
    pub fn qos_stats(&self, name: &Name) -> Option<EventSubscriptionStats> {
        self.subscribed.get(name).map(|s| EventSubscriptionStats {
            queue_drops: s.total_drops(),
            inbox_peak: s.inbox_peak(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subscribe_lifecycle() {
        let mut s = SubscribedEvent::default();
        assert!(s.provider.is_none());
        s.provider = Some(ServiceId::new(NodeId(1), 1));
        s.subscribe_sent = true;
        s.ty = Some(DataType::U8);
        s.unbind();
        assert!(s.provider.is_none());
        assert!(!s.subscribe_sent);
        assert!(s.ty.is_none());
    }

    #[test]
    fn inbox_accounting() {
        let mut s = SubscribedEvent::default();
        s.subscribers.push(EventSubscriber::new(1, EventQos::default().with_queue_bound(2)));
        s.subscribers.push(EventSubscriber::new(2, EventQos::default()));
        s.subscribers[0].inbox = 2;
        s.subscribers[0].inbox_peak = 2;
        s.subscribers[0].drops = 3;
        assert_eq!(s.total_drops(), 3);
        assert_eq!(s.inbox_peak(), 2);
        s.dec_inbox(1);
        assert_eq!(s.subscribers[0].inbox, 1);
        s.dec_inbox(99); // unknown seq is a no-op
        s.dec_inbox(2);
        assert_eq!(s.subscribers[1].inbox, 0, "saturates at zero");
    }

    #[test]
    fn duplicate_subscriptions_cannot_leak_inbox_accounting() {
        // One service subscribed twice: each delivery increments both
        // entries and queues two tasks; the two decrements must land on
        // whichever entries still count queued work.
        let mut s = SubscribedEvent::default();
        s.subscribers.push(EventSubscriber::new(7, EventQos::default().with_queue_bound(2)));
        s.subscribers.push(EventSubscriber::new(7, EventQos::default().with_queue_bound(2)));
        for _ in 0..2 {
            s.subscribers[0].inbox += 1;
            s.subscribers[1].inbox += 1;
        }
        for _ in 0..4 {
            s.dec_inbox(7);
        }
        assert_eq!(s.subscribers[0].inbox + s.subscribers[1].inbox, 0, "fully drained");
    }
}
