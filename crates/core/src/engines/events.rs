//! Event primitive bookkeeping (paper §4.2).

use std::collections::{BTreeSet, HashMap};

use marea_presentation::{DataType, Name};
use marea_protocol::{NodeId, ServiceId};

use crate::qos::EventQos;

/// Publisher-side state of one declared event channel.
#[derive(Debug)]
pub(crate) struct PublishedEvent {
    /// Declaring local service.
    pub owner_seq: u32,
    /// Payload schema (`None` = bare events).
    pub ty: Option<DataType>,
    /// Next event sequence number on this channel.
    pub seq: u64,
    /// Remote nodes with at least one subscriber; each gets a reliable
    /// copy of every event.
    pub remote_subscribers: BTreeSet<NodeId>,
}

/// One local subscriber of an event channel and its declared contract.
#[derive(Debug)]
pub(crate) struct EventSubscriber {
    /// Subscribing local service (per-node sequence).
    pub seq: u32,
    /// The declared [`EventQos`] contract.
    pub qos: EventQos,
    /// Deliveries currently queued in the scheduler for this subscriber.
    pub inbox: usize,
    /// Highest inbox depth observed.
    pub inbox_peak: usize,
    /// Deliveries dropped by the inbox bound.
    pub drops: u64,
}

impl EventSubscriber {
    pub fn new(seq: u32, qos: EventQos) -> Self {
        EventSubscriber { seq, qos, inbox: 0, inbox_peak: 0, drops: 0 }
    }
}

/// Subscriber-side state of one event channel.
#[derive(Debug)]
pub(crate) struct SubscribedEvent {
    /// Local subscribers with their contracts.
    pub subscribers: Vec<EventSubscriber>,
    /// Resolved provider.
    pub provider: Option<ServiceId>,
    /// Payload schema learned from the announcement.
    pub ty: Option<DataType>,
    /// SubscribeEvent was sent to the current provider.
    pub subscribe_sent: bool,
}

impl SubscribedEvent {
    pub fn new() -> Self {
        SubscribedEvent { subscribers: Vec::new(), provider: None, ty: None, subscribe_sent: false }
    }

    /// Subscribing service sequences (delivery fan-out list).
    pub fn service_seqs(&self) -> Vec<u32> {
        self.subscribers.iter().map(|s| s.seq).collect()
    }

    /// Marks one queued delivery for `seq` as executed (or abandoned).
    ///
    /// A service may appear more than once (duplicate declarations); the
    /// decrement goes to one of its entries that still counts queued work,
    /// so the summed inbox depth always equals the queued deliveries and
    /// can never leak upward.
    pub fn dec_inbox(&mut self, seq: u32) {
        if let Some(entry) = self.subscribers.iter_mut().find(|s| s.seq == seq && s.inbox > 0) {
            entry.inbox -= 1;
        }
    }

    /// Total inbox drops over this channel's subscribers.
    pub fn total_drops(&self) -> u64 {
        self.subscribers.iter().map(|s| s.drops).sum()
    }

    /// Highest inbox depth observed on any subscriber.
    pub fn inbox_peak(&self) -> usize {
        self.subscribers.iter().map(|s| s.inbox_peak).max().unwrap_or(0)
    }

    /// Drops the provider binding for re-resolution.
    pub fn unbind(&mut self) {
        self.provider = None;
        self.subscribe_sent = false;
        self.ty = None;
    }
}

/// All event state of one container.
#[derive(Debug, Default)]
pub(crate) struct EventEngine {
    pub published: HashMap<Name, PublishedEvent>,
    pub subscribed: HashMap<Name, SubscribedEvent>,
    /// Payloads violating the channel declaration (see
    /// [`TypeMismatchStats::events`](crate::stats::TypeMismatchStats)).
    pub type_mismatches: u64,
}

impl EventEngine {
    /// Total inbox drops over every subscription (feeds
    /// [`QosStats::queue_drops`](crate::QosStats::queue_drops)).
    pub fn total_queue_drops(&self) -> u64 {
        self.subscribed.values().map(|s| s.total_drops()).sum()
    }

    /// Remote subscribers over every published event.
    pub fn remote_subscriber_count(&self) -> usize {
        self.published.values().map(|p| p.remote_subscribers.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subscribe_lifecycle() {
        let mut s = SubscribedEvent::new();
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
        let mut s = SubscribedEvent::new();
        s.subscribers.push(EventSubscriber::new(1, EventQos::default().with_queue_bound(2)));
        s.subscribers.push(EventSubscriber::new(2, EventQos::default()));
        s.subscribers[0].inbox = 2;
        s.subscribers[0].inbox_peak = 2;
        s.subscribers[0].drops = 3;
        assert_eq!(s.service_seqs(), vec![1, 2]);
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
        let mut s = SubscribedEvent::new();
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
