//! Variable primitive bookkeeping (paper §4.1).

use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, HashMap, VecDeque};

use bytes::Bytes;

use marea_presentation::{DataType, Name, Value};
use marea_protocol::{Micros, NodeId, ServiceId};

use crate::qos::VarQos;

/// Publisher-side state of one declared variable.
#[derive(Debug)]
pub(crate) struct PublishedVar {
    /// Declaring local service (per-node sequence).
    pub owner_seq: u32,
    /// Declared schema.
    pub ty: DataType,
    /// Validity window in µs.
    pub validity_us: u64,
    /// Next sample sequence number.
    pub seq: u64,
    /// Last published sample (encoded payload, production stamp) — served
    /// to new subscribers as the guaranteed initial value while still
    /// valid.
    pub last: Option<(Bytes, Micros)>,
    /// Remote nodes that subscribed (bookkeeping/diagnostics only; samples
    /// go to the multicast group regardless).
    pub remote_subscribers: BTreeSet<NodeId>,
}

impl PublishedVar {
    /// `true` while the last sample is within its validity window.
    pub fn last_is_valid(&self, now: Micros) -> bool {
        match &self.last {
            Some((_, stamp)) => now.saturating_since(*stamp).as_micros() <= self.validity_us,
            None => false,
        }
    }
}

/// Subscriber-side state of one variable, shaped by the merged
/// [`VarQos`] contracts of every local subscriber.
#[derive(Debug)]
pub(crate) struct SubscribedVar {
    /// Local services subscribed (service sequences).
    pub services: Vec<u32>,
    /// Whether any subscriber asked for the guaranteed initial value.
    pub need_initial: bool,
    /// Loss deadline in nominal periods (tightest contract wins).
    pub deadline_periods: u32,
    /// History-ring capacity (deepest contract wins).
    pub history_cap: usize,
    /// The retained samples, oldest first (production stamp, decoded
    /// value) — read through
    /// [`ServiceContext::history`](crate::ServiceContext::history).
    pub history: VecDeque<(Micros, Value)>,
    /// Loss deadlines missed on this subscription.
    pub deadline_misses: u64,
    /// Stale samples dropped on this subscription.
    pub stale_drops: u64,
    /// Resolved provider, if discovery succeeded.
    pub provider: Option<ServiceId>,
    /// Expected period learned from the provider's announcement (µs).
    pub period_us: u64,
    /// Validity window learned from the announcement (µs).
    pub validity_us: u64,
    /// Sample schema learned from the announcement.
    pub ty: Option<DataType>,
    /// Last sample receive time.
    pub last_rx: Option<Micros>,
    /// Time the subscription was wired (deadline baseline before the first
    /// sample).
    pub since: Option<Micros>,
    /// Highest sample sequence seen.
    pub last_seq: Option<u64>,
    /// A timeout warning has been raised and no sample seen since.
    pub timed_out: bool,
    /// SubscribeVar was sent to the current provider.
    pub subscribe_sent: bool,
    /// This channel has a live entry on the engine's deadline heap.
    pub deadline_armed: bool,
}

impl SubscribedVar {
    pub fn new(qos: &VarQos) -> Self {
        SubscribedVar {
            services: Vec::new(),
            need_initial: qos.need_initial,
            deadline_periods: qos.deadline_periods,
            history_cap: qos.history.max(1),
            history: VecDeque::new(),
            deadline_misses: 0,
            stale_drops: 0,
            provider: None,
            period_us: 0,
            validity_us: 0,
            ty: None,
            last_rx: None,
            since: None,
            last_seq: None,
            timed_out: false,
            subscribe_sent: false,
            deadline_armed: false,
        }
    }

    /// Merges another subscriber's contract into the channel state: any
    /// initial-value request sticks, the tightest loss deadline wins, the
    /// deepest history wins.
    pub fn merge_qos(&mut self, qos: &VarQos) {
        self.need_initial |= qos.need_initial;
        self.deadline_periods = self.deadline_periods.min(qos.deadline_periods.max(1));
        self.history_cap = self.history_cap.max(qos.history);
    }

    /// Deadline used for the loss warning: `deadline_periods` nominal
    /// periods without a sample ("the service container will warn of this
    /// timeout circumstance to the affected services", §4.1).
    pub fn deadline_us(&self) -> Option<u64> {
        if self.period_us == 0 {
            None // aperiodic variables have no deadline
        } else {
            Some(self.period_us.saturating_mul(u64::from(self.deadline_periods)))
        }
    }

    /// The earliest instant at which [`SubscribedVar::deadline_missed`]
    /// can turn true (the comparison there is strict, hence the +1µs), or
    /// `None` while no deadline applies — unbound, already warned, or
    /// aperiodic.
    pub fn deadline_due(&self) -> Option<Micros> {
        if self.timed_out || self.provider.is_none() {
            return None;
        }
        let deadline = self.deadline_us()?;
        let anchor = match (self.last_rx, self.since) {
            (Some(rx), _) => rx,
            (None, Some(s)) => s,
            (None, None) => return None,
        };
        Some(Micros(anchor.as_micros().saturating_add(deadline).saturating_add(1)))
    }

    /// Checks whether the deadline has been missed at `now`.
    pub fn deadline_missed(&self, now: Micros) -> bool {
        if self.timed_out || self.provider.is_none() {
            return false;
        }
        let Some(deadline) = self.deadline_us() else { return false };
        let anchor = match (self.last_rx, self.since) {
            (Some(rx), _) => rx,
            (None, Some(s)) => s,
            (None, None) => return false,
        };
        now.saturating_since(anchor).as_micros() > deadline
    }

    /// Records a sample arrival; returns `false` when the sample must be
    /// dropped as old (sequence regression / duplicate).
    pub fn accept(&mut self, seq: u64, now: Micros) -> bool {
        if let Some(last) = self.last_seq {
            if seq <= last {
                return false;
            }
        }
        self.last_seq = Some(seq);
        self.last_rx = Some(now);
        self.timed_out = false;
        true
    }

    /// Retains an accepted sample in the history ring (oldest evicted at
    /// capacity).
    pub fn record(&mut self, stamp: Micros, value: Value) {
        while self.history.len() >= self.history_cap {
            self.history.pop_front();
        }
        self.history.push_back((stamp, value));
    }

    /// Resets provider binding (provider lost); subscription will be
    /// re-resolved against the directory.
    pub fn unbind(&mut self) {
        self.provider = None;
        self.subscribe_sent = false;
        self.ty = None;
        // Do not clear last_seq: a *new* provider instance restarts
        // numbering, so clear it after rebinding instead. The history ring
        // survives rebinds on purpose — retained samples stay readable
        // while the provider fails over.
    }

    /// Binds to a (new) provider.
    pub fn bind(
        &mut self,
        provider: ServiceId,
        period_us: u64,
        validity_us: u64,
        ty: DataType,
        now: Micros,
    ) {
        let changed = self.provider != Some(provider);
        self.provider = Some(provider);
        self.period_us = period_us;
        self.validity_us = validity_us;
        self.ty = Some(ty);
        self.since = Some(now);
        self.timed_out = false;
        if changed {
            self.last_seq = None; // new publisher numbers from scratch
        }
    }
}

/// All variable state of one container.
#[derive(Debug, Default)]
pub(crate) struct VarEngine {
    pub published: HashMap<Name, PublishedVar>,
    pub subscribed: HashMap<Name, SubscribedVar>,
    /// Samples whose value disagreed with the declared schema (see
    /// [`TypeMismatchStats::vars`](crate::stats::TypeMismatchStats)).
    pub type_mismatches: u64,
    /// Due-date heap over `(deadline_due, name)`: the per-tick deadline
    /// sweep peeks the earliest entry instead of walking every channel.
    /// At most one live entry per channel ([`SubscribedVar::deadline_armed`]);
    /// a popped entry whose channel got a sample since re-arms at the
    /// pushed-back deadline.
    deadline_heap: BinaryHeap<Reverse<(Micros, Name)>>,
}

impl VarEngine {
    /// Ensures `name`'s loss deadline is queued on the due-date heap.
    /// Call after any event that (re)starts the deadline clock: a bind or
    /// an accepted sample. Idempotent while already armed.
    pub fn arm_deadline(&mut self, name: &Name) {
        let Some(sub) = self.subscribed.get_mut(name) else { return };
        if sub.deadline_armed {
            return;
        }
        if let Some(due) = sub.deadline_due() {
            sub.deadline_armed = true;
            self.deadline_heap.push(Reverse((due, name.clone())));
        }
    }

    /// The earliest instant at which [`sweep_deadlines`](Self::sweep_deadlines)
    /// can have work: the head of the due-date heap (possibly stale, hence
    /// early — never late).
    pub fn next_deadline(&self) -> Option<Micros> {
        self.deadline_heap.peek().map(|Reverse((due, _))| *due)
    }

    /// Variables whose deadline has been missed at `now` (marks them
    /// warned and counts the miss against the subscription's contract).
    pub fn sweep_deadlines(&mut self, now: Micros) -> Vec<Name> {
        let mut out = Vec::new();
        while let Some(Reverse((due, _))) = self.deadline_heap.peek() {
            if *due > now {
                break;
            }
            let Some(Reverse((_, name))) = self.deadline_heap.pop() else { break };
            let Some(sub) = self.subscribed.get_mut(&name) else { continue };
            sub.deadline_armed = false;
            if sub.deadline_missed(now) {
                sub.timed_out = true;
                sub.deadline_misses += 1;
                out.push(name);
            } else if let Some(due) = sub.deadline_due() {
                // A sample (or rebind) moved the anchor since this entry
                // was queued: re-arm at the pushed-back deadline.
                sub.deadline_armed = true;
                self.deadline_heap.push(Reverse((due, name)));
            }
        }
        out.sort();
        out
    }

    /// Subscribed channels currently bound to a provider.
    pub fn bound_count(&self) -> usize {
        self.subscribed.values().filter(|s| s.provider.is_some()).count()
    }

    /// Remote subscribers over every published variable.
    pub fn remote_subscriber_count(&self) -> usize {
        self.published.values().map(|p| p.remote_subscribers.len()).sum()
    }

    /// Total stale drops over every subscription.
    pub fn total_stale_drops(&self) -> u64 {
        self.subscribed.values().map(|s| s.stale_drops).sum()
    }

    /// Total deadline misses over every subscription.
    pub fn total_deadline_misses(&self) -> u64 {
        self.subscribed.values().map(|s| s.deadline_misses).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sub() -> SubscribedVar {
        let mut s = SubscribedVar::new(&VarQos::default().with_initial());
        s.bind(ServiceId::new(NodeId(2), 1), 50_000, 200_000, DataType::F64, Micros::ZERO);
        s
    }

    #[test]
    fn sequence_regression_dropped() {
        let mut s = sub();
        assert!(s.accept(5, Micros(1)));
        assert!(!s.accept(5, Micros(2)), "duplicate");
        assert!(!s.accept(3, Micros(3)), "regression");
        assert!(s.accept(6, Micros(4)));
    }

    #[test]
    fn deadline_uses_contract_periods() {
        let mut s = sub();
        assert!(!s.deadline_missed(Micros(100_000)), "2 periods: fine");
        assert!(s.deadline_missed(Micros(200_000)), "4 periods: missed");
        s.timed_out = true;
        assert!(!s.deadline_missed(Micros(300_000)), "warn once");
        // A new sample resets the warning.
        assert!(s.accept(1, Micros(300_000)));
        assert!(!s.timed_out);

        // A tighter contract shortens the deadline.
        let mut tight = SubscribedVar::new(&VarQos::default().with_deadline_periods(1));
        tight.bind(ServiceId::new(NodeId(2), 1), 50_000, 200_000, DataType::F64, Micros::ZERO);
        assert_eq!(tight.deadline_us(), Some(50_000));
        assert!(tight.deadline_missed(Micros(60_000)), "1 period + slack: missed");
    }

    #[test]
    fn aperiodic_has_no_deadline() {
        let mut s = SubscribedVar::new(&VarQos::default());
        s.bind(ServiceId::new(NodeId(2), 1), 0, 0, DataType::Bool, Micros::ZERO);
        assert_eq!(s.deadline_us(), None);
        assert!(!s.deadline_missed(Micros::from_secs(100)));
    }

    #[test]
    fn merged_qos_takes_strictest_contract() {
        let mut s = SubscribedVar::new(&VarQos::default());
        assert!(!s.need_initial);
        s.merge_qos(&VarQos::default().with_initial().with_history(8).with_deadline_periods(2));
        assert!(s.need_initial, "any initial request sticks");
        assert_eq!(s.deadline_periods, 2, "tightest deadline wins");
        assert_eq!(s.history_cap, 8, "deepest history wins");
        s.merge_qos(&VarQos::default().with_history(2).with_deadline_periods(5));
        assert_eq!(s.deadline_periods, 2);
        assert_eq!(s.history_cap, 8);
    }

    #[test]
    fn history_ring_evicts_oldest() {
        let mut s = SubscribedVar::new(&VarQos::default().with_history(3));
        for i in 0..5u64 {
            s.record(Micros(i), Value::U64(i));
        }
        let kept: Vec<u64> = s.history.iter().filter_map(|(_, v)| v.as_u64()).collect();
        assert_eq!(kept, vec![2, 3, 4], "oldest evicted, order preserved");
        assert_eq!(s.history.len(), 3);
    }

    #[test]
    fn rebind_resets_sequence_tracking() {
        let mut s = sub();
        s.accept(100, Micros(1));
        s.unbind();
        s.bind(ServiceId::new(NodeId(3), 1), 50_000, 200_000, DataType::F64, Micros(2));
        assert!(s.accept(1, Micros(3)), "new provider numbers from scratch");
    }

    #[test]
    fn published_validity() {
        let mut p = PublishedVar {
            owner_seq: 1,
            ty: DataType::F64,
            validity_us: 100_000,
            seq: 0,
            last: None,
            remote_subscribers: BTreeSet::new(),
        };
        assert!(!p.last_is_valid(Micros::ZERO));
        p.last = Some((Bytes::from_static(b"x"), Micros(50_000)));
        assert!(p.last_is_valid(Micros(100_000)));
        assert!(!p.last_is_valid(Micros(200_000)));
    }

    #[test]
    fn sweep_marks_counts_and_sorts() {
        let mut e = VarEngine::default();
        let mut a = sub();
        a.since = Some(Micros::ZERO);
        let mut b = sub();
        b.since = Some(Micros::ZERO);
        e.subscribed.insert(Name::new("zvar").unwrap(), a);
        e.subscribed.insert(Name::new("avar").unwrap(), b);
        e.arm_deadline(&Name::new("zvar").unwrap());
        e.arm_deadline(&Name::new("avar").unwrap());
        let warned = e.sweep_deadlines(Micros::from_secs(1));
        assert_eq!(warned.len(), 2);
        assert!(warned[0] < warned[1]);
        assert!(e.sweep_deadlines(Micros::from_secs(2)).is_empty(), "warn once");
        assert_eq!(e.total_deadline_misses(), 2, "misses counted per subscription");
    }

    #[test]
    fn deadline_heap_rearms_refreshed_channels() {
        let mut e = VarEngine::default();
        let mut a = sub();
        a.since = Some(Micros::ZERO);
        let n = Name::new("v").unwrap();
        e.subscribed.insert(n.clone(), a);
        e.arm_deadline(&n);
        assert!(e.subscribed[&n].deadline_armed);
        // A sample at 90ms makes the t=0 heap entry (due ~150ms: 3 nominal
        // periods of 50ms) stale.
        e.subscribed.get_mut(&n).unwrap().accept(1, Micros(90_000));
        assert!(e.sweep_deadlines(Micros(160_000)).is_empty(), "refreshed: no miss");
        assert!(e.subscribed[&n].deadline_armed, "stale entry re-armed itself");
        // Silent since 90ms: the re-armed entry fires (deadline 240ms).
        assert_eq!(e.sweep_deadlines(Micros(250_000)), vec![n.clone()]);
        assert!(!e.subscribed[&n].deadline_armed, "warned channels leave the heap");
    }
}
