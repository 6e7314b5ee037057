//! Variable primitive bookkeeping (paper §4.1).

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, VecDeque};
use std::sync::Arc;

use bytes::Bytes;

use marea_encoding::{Codec, CodecRegistry};
use marea_presentation::{DataType, Name, Value};
use marea_protocol::messages::Provision;
use marea_protocol::{GroupId, Micros, NodeId, ServiceId};

use super::{decode_payload, encode_payload, fnv1a, Rebind};
use crate::directory::Directory;
use crate::qos::VarQos;
use crate::service::ServiceDescriptor;
use crate::stats::{ContainerStats, Occupancy, VarChannelView, VarSubscriptionStats};

/// Stable group id for a variable's multicast group.
pub(crate) fn var_group(name: &Name) -> GroupId {
    GroupId(1 + (fnv1a(name.as_str().as_bytes()) & 0x3FFF_FFFE))
}

/// Publisher-side state of one declared variable.
#[derive(Debug)]
struct PublishedVar {
    /// Declaring local service (per-node sequence).
    owner_seq: u32,
    /// Declared schema.
    ty: DataType,
    /// Validity window in µs.
    validity_us: u64,
    /// Next sample sequence number.
    seq: u64,
    /// Last published sample (encoded payload, production stamp) — served
    /// to new subscribers as the guaranteed initial value while still
    /// valid.
    last: Option<(Bytes, Micros)>,
    /// Remote nodes that subscribed (bookkeeping/diagnostics only; samples
    /// go to the multicast group regardless).
    remote_subscribers: BTreeSet<NodeId>,
}

impl PublishedVar {
    /// `true` while the last sample is within its validity window.
    fn last_is_valid(&self, now: Micros) -> bool {
        match &self.last {
            Some((_, stamp)) => now.saturating_since(*stamp).as_micros() <= self.validity_us,
            None => false,
        }
    }
}

/// Subscriber-side state of one variable, shaped by the merged
/// [`VarQos`] contracts of every local subscriber.
#[derive(Debug)]
struct SubscribedVar {
    /// Local services subscribed (service sequences).
    services: Vec<u32>,
    /// Whether any subscriber asked for the guaranteed initial value.
    need_initial: bool,
    /// Loss deadline in nominal periods (tightest contract wins).
    deadline_periods: u32,
    /// History-ring capacity (deepest contract wins).
    history_cap: usize,
    /// The retained samples, oldest first (production stamp, decoded
    /// value) — read through
    /// [`ServiceContext::history`](crate::ServiceContext::history). Each
    /// value is the allocation its deliveries hold: a sample is decoded
    /// once and shared, never copied.
    history: VecDeque<(Micros, Arc<Value>)>,
    /// Loss deadlines missed on this subscription.
    deadline_misses: u64,
    /// Stale samples dropped on this subscription.
    stale_drops: u64,
    /// Resolved provider, if discovery succeeded.
    provider: Option<ServiceId>,
    /// Expected period learned from the provider's announcement (µs).
    period_us: u64,
    /// Validity window learned from the announcement (µs).
    validity_us: u64,
    /// Sample schema learned from the announcement.
    ty: Option<DataType>,
    /// Last sample receive time.
    last_rx: Option<Micros>,
    /// Time the subscription was wired (deadline baseline before the first
    /// sample).
    since: Option<Micros>,
    /// Highest sample sequence seen.
    last_seq: Option<u64>,
    /// A timeout warning has been raised and no sample seen since.
    timed_out: bool,
    /// SubscribeVar was sent to the current provider.
    subscribe_sent: bool,
    /// This channel has a live entry on the engine's deadline heap.
    deadline_armed: bool,
}

impl SubscribedVar {
    fn new(qos: &VarQos) -> Self {
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
    fn merge_qos(&mut self, qos: &VarQos) {
        self.need_initial |= qos.need_initial;
        self.deadline_periods = self.deadline_periods.min(qos.deadline_periods.max(1));
        self.history_cap = self.history_cap.max(qos.history);
    }

    /// Deadline used for the loss warning: `deadline_periods` nominal
    /// periods without a sample ("the service container will warn of this
    /// timeout circumstance to the affected services", §4.1).
    fn deadline_us(&self) -> Option<u64> {
        if self.period_us == 0 {
            None // aperiodic variables have no deadline
        } else {
            Some(self.period_us.saturating_mul(u64::from(self.deadline_periods)))
        }
    }

    /// The first instant the deadline counts as missed: strictly more
    /// than [`deadline_us`](Self::deadline_us) after the last sample (or
    /// the bind, before any), hence the +1µs. `None` while no deadline
    /// applies — unbound, already warned, or aperiodic.
    fn deadline_due(&self) -> Option<Micros> {
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
    fn deadline_missed(&self, now: Micros) -> bool {
        self.deadline_due().is_some_and(|due| due <= now)
    }

    /// Records a sample arrival; returns `false` when the sample must be
    /// dropped as old (sequence regression / duplicate).
    fn accept(&mut self, seq: u64, now: Micros) -> bool {
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
    fn record(&mut self, stamp: Micros, value: Arc<Value>) {
        while self.history.len() >= self.history_cap {
            self.history.pop_front();
        }
        self.history.push_back((stamp, value));
    }

    /// Resets provider binding (provider lost); subscription will be
    /// re-resolved against the directory.
    fn unbind(&mut self) {
        self.provider = None;
        self.subscribe_sent = false;
        self.ty = None;
        // Do not clear last_seq: a *new* provider instance restarts
        // numbering, so clear it after rebinding instead. The history ring
        // survives rebinds on purpose — retained samples stay readable
        // while the provider fails over.
    }

    /// Binds to a (new) provider.
    fn bind(
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

/// A sample the publisher side accepted, ready for the wire.
#[derive(Debug)]
pub(crate) struct Sample {
    pub payload: Bytes,
    pub seq: u64,
    pub validity_us: u64,
}

/// Why the subscriber side dropped a received sample.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum SampleDrop {
    /// No local service subscribes to the variable.
    Unsubscribed,
    /// Past its validity window (paper §4.1); counted on the subscription.
    Stale,
    /// Sequence regression or duplicate.
    Old,
    /// Does not decode against the announced schema: a publisher/subscriber
    /// contract violation, counted as a mismatch.
    Mismatch,
}

/// All variable state of one container.
#[derive(Debug, Default)]
pub(crate) struct VarEngine {
    published: BTreeMap<Name, PublishedVar>,
    subscribed: BTreeMap<Name, SubscribedVar>,
    /// Samples whose value disagreed with the declared schema (see
    /// [`TypeMismatchStats::vars`](crate::stats::TypeMismatchStats)).
    type_mismatches: u64,
    /// Due-date heap over `(deadline_due, name)`: the per-tick deadline
    /// sweep peeks the earliest entry instead of walking every channel.
    /// At most one live entry per channel ([`SubscribedVar::deadline_armed`]);
    /// a popped entry whose channel got a sample since re-arms at the
    /// pushed-back deadline.
    deadline_heap: BinaryHeap<Reverse<(Micros, Name)>>,
}

impl VarEngine {
    /// The [`Name`] held for a variable called `s`, subscribed or published.
    pub fn held_name(&self, s: &str) -> Option<Name> {
        let held = self.subscribed.get_key_value(s).map(|(name, _)| name);
        held.or_else(|| self.published.get_key_value(s).map(|(name, _)| name)).cloned()
    }

    /// Takes in what `descriptor` provides and subscribes to, on behalf of
    /// local service `seq`.
    pub fn register(&mut self, seq: u32, descriptor: &ServiceDescriptor) {
        for p in descriptor.provides() {
            let Provision::Variable { name, ty, validity_us, .. } = p else { continue };
            let var = PublishedVar {
                owner_seq: seq,
                ty: ty.clone(),
                validity_us: *validity_us,
                seq: 0,
                last: None,
                remote_subscribers: BTreeSet::new(),
            };
            self.published.insert(name.clone(), var);
        }
        for sub in descriptor.var_subscriptions() {
            let entry = self
                .subscribed
                .entry(sub.name.clone())
                .or_insert_with(|| SubscribedVar::new(&sub.qos));
            entry.services.push(seq);
            entry.merge_qos(&sub.qos);
        }
    }

    /// Publisher side of a `publish`: checks ownership and schema, numbers
    /// the sample and retains it as the initial value for late subscribers.
    /// The error is the log line saying why it was dropped.
    pub fn publish(
        &mut self,
        owner_seq: u32,
        name: &Name,
        value: &Value,
        codec: &dyn Codec,
        now: Micros,
    ) -> Result<Sample, String> {
        let Some(pv) = self.published.get_mut(name) else {
            return Err(format!("publish to undeclared variable `{name}` dropped"));
        };
        if pv.owner_seq != owner_seq {
            return Err(format!("publish to foreign variable `{name}` dropped"));
        }
        if let Err(e) = value.conforms_to(&pv.ty) {
            self.type_mismatches += 1;
            return Err(format!("publish to `{name}` violates schema: {e}"));
        }
        let payload = encode_payload(codec, value, &pv.ty)
            .map_err(|e| format!("publish to `{name}` does not encode: {e}"))?;
        pv.seq += 1;
        pv.last = Some((payload.clone(), now));
        Ok(Sample { payload, seq: pv.seq, validity_us: pv.validity_us })
    }

    /// Subscriber side of a same-container publish (Fig. 2 in-container
    /// path): the shared value and the services to deliver it to, if the
    /// sample is fresh.
    pub fn accept_local(
        &mut self,
        name: &Name,
        seq: u64,
        value: Value,
        now: Micros,
    ) -> Option<(Arc<Value>, &[u32])> {
        let sub = self.subscribed.get_mut(name)?;
        if !sub.accept(seq, now) {
            return None;
        }
        let value = Arc::new(value);
        sub.record(now, Arc::clone(&value));
        Self::arm(&mut self.deadline_heap, name, sub);
        Some((value, &sub.services))
    }

    /// Subscriber side of a received `VarSample`: validity and sequence
    /// filtering, decode, history, deadline. Answers the value — decoded
    /// once, shared with the history ring — and the services to deliver it
    /// to.
    #[allow(clippy::too_many_arguments)]
    pub fn on_sample(
        &mut self,
        name: &Name,
        seq: u64,
        stamp: Micros,
        validity_us: u64,
        codec: u8,
        payload: &[u8],
        codecs: &CodecRegistry,
        now: Micros,
    ) -> Result<(Arc<Value>, &[u32]), SampleDrop> {
        let sub = self.subscribed.get_mut(name).ok_or(SampleDrop::Unsubscribed)?;
        if validity_us > 0 && now.saturating_since(stamp).as_micros() > validity_us {
            sub.stale_drops += 1;
            return Err(SampleDrop::Stale);
        }
        if !sub.accept(seq, now) {
            return Err(SampleDrop::Old);
        }
        let Some(value) = decode_payload(codecs, sub.ty.as_ref(), codec, payload) else {
            self.type_mismatches += 1;
            return Err(SampleDrop::Mismatch);
        };
        let value = Arc::new(value);
        sub.record(stamp, Arc::clone(&value));
        Self::arm(&mut self.deadline_heap, name, sub);
        Ok((value, &sub.services))
    }

    /// Registers a remote subscriber; answers the retained sample and its
    /// production stamp if it asked for the initial value and that is
    /// still valid.
    pub fn on_subscribe(
        &mut self,
        name: &Name,
        subscriber: NodeId,
        need_initial: bool,
        now: Micros,
    ) -> Option<(Sample, Micros)> {
        let pv = self.published.get_mut(name)?;
        pv.remote_subscribers.insert(subscriber);
        if !(need_initial && pv.last_is_valid(now)) {
            return None;
        }
        let (payload, stamp) = pv.last.clone()?;
        Some((Sample { payload, seq: pv.seq, validity_us: pv.validity_us }, stamp))
    }

    /// Forgets a remote subscriber.
    pub fn on_unsubscribe(&mut self, name: &Name, subscriber: NodeId) {
        if let Some(pv) = self.published.get_mut(name) {
            pv.remote_subscribers.remove(&subscriber);
        }
    }

    /// `node` died: it subscribes to nothing any more (a restarted node
    /// subscribes afresh when it binds).
    pub fn drop_peer(&mut self, node: NodeId) {
        for pv in self.published.values_mut() {
            pv.remote_subscribers.remove(&node);
        }
    }

    /// Remote subscriber nodes of a published variable, in node order.
    pub fn remote_subscribers(&self, name: &Name) -> impl Iterator<Item = NodeId> + '_ {
        self.published.get(name).into_iter().flat_map(|pv| pv.remote_subscribers.iter().copied())
    }

    /// Re-resolves every subscription against `directory`; answers the
    /// bindings that changed, in name order.
    pub fn rebind_all(&mut self, directory: &Directory, now: Micros) -> Vec<(Name, Rebind)> {
        let mut changed = Vec::new();
        for (name, sub) in &mut self.subscribed {
            let announced =
                directory.resolve_variable(name.as_str()).and_then(|p| match &p.provision {
                    Provision::Variable { period_us, validity_us, ty, .. } => {
                        Some((p.service, *period_us, *validity_us, ty))
                    }
                    _ => None,
                });
            let rebind = match announced {
                Some((provider, period_us, validity_us, ty))
                    if sub.provider != Some(provider) || !sub.subscribe_sent =>
                {
                    let fresh = sub.provider.is_none();
                    sub.bind(provider, period_us, validity_us, ty.clone(), now);
                    sub.subscribe_sent = true;
                    Self::arm(&mut self.deadline_heap, name, sub);
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

    /// Whether any local subscriber of `name` asked for the guaranteed
    /// initial value.
    pub fn need_initial(&self, name: &Name) -> bool {
        self.subscribed.get(name).is_some_and(|s| s.need_initial)
    }

    /// Local services subscribed to `name`.
    pub fn subscribers(&self, name: &Name) -> &[u32] {
        self.subscribed.get(name).map_or(&[], |s| &s.services)
    }

    /// The retained samples of a subscribed variable, oldest first.
    pub fn history(&self, name: &Name) -> impl Iterator<Item = (Micros, &Value)> {
        let ring = self.subscribed.get(name).into_iter().flat_map(|s| s.history.iter());
        ring.map(|(stamp, value)| (*stamp, &**value))
    }

    /// Queues `sub`'s loss deadline after an event that (re)started its
    /// clock: a bind or an accepted sample. Idempotent while armed.
    fn arm(heap: &mut BinaryHeap<Reverse<(Micros, Name)>>, name: &Name, sub: &mut SubscribedVar) {
        if sub.deadline_armed {
            return;
        }
        if let Some(due) = sub.deadline_due() {
            sub.deadline_armed = true;
            heap.push(Reverse((due, name.clone())));
        }
    }

    /// The earliest instant [`sweep_deadlines`](Self::sweep_deadlines) can
    /// have work: the heap head (possibly stale, hence early — never late).
    pub fn next_due(&self) -> Option<Micros> {
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
            } else {
                // A sample (or rebind) moved the anchor since this entry
                // was queued: re-arm at the pushed-back deadline.
                Self::arm(&mut self.deadline_heap, &name, sub);
            }
        }
        out.sort();
        out
    }

    /// Writes the counters this engine owns.
    pub fn fill_stats(&self, stats: &mut ContainerStats) {
        stats.type_mismatches.vars = self.type_mismatches;
        stats.qos.deadline_misses = self.subscribed.values().map(|s| s.deadline_misses).sum();
        stats.qos.stale_drops = self.subscribed.values().map(|s| s.stale_drops).sum();
    }

    /// Writes the gauges this engine owns.
    pub fn fill_occupancy(&self, occupancy: &mut Occupancy) {
        occupancy.vars_bound = self.subscribed.values().filter(|s| s.provider.is_some()).count();
        occupancy.remote_subscribers +=
            self.published.values().map(|p| p.remote_subscribers.len()).sum::<usize>();
    }

    /// QoS counters of one subscribed variable.
    pub fn qos_stats(&self, name: &Name) -> Option<VarSubscriptionStats> {
        self.subscribed.get(name).map(|s| VarSubscriptionStats {
            deadline_misses: s.deadline_misses,
            stale_drops: s.stale_drops,
            history_len: s.history.len(),
        })
    }

    /// Freshness snapshot of every subscribed channel, in name order.
    pub fn channels(&self) -> Vec<(Name, VarChannelView)> {
        let view = |s: &SubscribedVar| VarChannelView {
            bound: s.provider.is_some(),
            period_us: s.period_us,
            validity_us: s.validity_us,
            deadline_us: s.deadline_us(),
            last_rx: s.last_rx,
            last_stamp: s.history.back().map(|(stamp, _)| *stamp),
            timed_out: s.timed_out,
        };
        self.subscribed.iter().map(|(name, s)| (name.clone(), view(s))).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Test stand-in for the arming every bind / accepted sample does.
    fn arm_deadline(e: &mut VarEngine, name: &Name) {
        VarEngine::arm(&mut e.deadline_heap, name, e.subscribed.get_mut(name).unwrap());
    }

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
            s.record(Micros(i), Arc::new(Value::U64(i)));
        }
        let kept: Vec<u64> = s.history.iter().filter_map(|(_, v)| v.as_u64()).collect();
        assert_eq!(kept, vec![2, 3, 4], "oldest evicted, order preserved");
        assert_eq!(s.history.len(), 3);
    }

    /// Two local subscribers (history 1 and 3) on one channel, bound to a
    /// `u64` publisher: every sample is decoded once, and the allocation
    /// `on_sample` hands to the fan-out is the one the history ring keeps.
    #[test]
    fn sample_is_decoded_once_and_shared_with_the_history_ring() {
        use crate::ports::VarPort;
        use crate::service::{ServiceContext, ServiceDescriptor};

        let port = VarPort::<u64>::new("v");
        let descriptor = |name: &str, qos: VarQos| {
            let mut b = ServiceDescriptor::builder(name);
            b.subscribe_to_var(&port, qos);
            b.build()
        };
        let mut e = VarEngine::default();
        e.register(1, &descriptor("one", VarQos::default()));
        e.register(2, &descriptor("two", VarQos::default().with_history(3)));
        let name = port.name().clone();
        let provider = ServiceId::new(NodeId(2), 1);
        e.subscribed.get_mut(&name).unwrap().bind(provider, 0, 0, DataType::U64, Micros::ZERO);

        let codecs = CodecRegistry::new();
        for seq in 1..=5u64 {
            let payload =
                codecs.default_codec().encode_to_vec(&Value::U64(seq * 10), &DataType::U64);
            let stamp = Micros(seq);
            let (value, services) = e
                .on_sample(&name, seq, stamp, 0, 0, &payload.unwrap(), &codecs, Micros(seq))
                .unwrap();
            assert_eq!(*value, Value::U64(seq * 10));
            assert_eq!(services, [1, 2], "both subscribers get every sample");
            let (kept_stamp, kept) = e.subscribed[&name].history.back().unwrap();
            assert_eq!(*kept_stamp, stamp);
            assert!(Arc::ptr_eq(&value, kept), "the ring holds the delivered allocation");
        }

        // The same-container path shares the same way.
        let (value, services) = e.accept_local(&name, 6, Value::U64(60), Micros(6)).unwrap();
        assert_eq!(services, [1, 2]);
        assert!(Arc::ptr_eq(&value, &e.subscribed[&name].history.back().unwrap().1));

        // Handlers read the ring as before: the deepest contract's depth,
        // oldest first, decoded through the port.
        let (svc, mut effects, mut req, mut tim) = (Name::new("two").unwrap(), Vec::new(), 0, 0);
        let ctx = ServiceContext {
            now: Micros(6),
            node: NodeId(1),
            service_name: &svc,
            service_seq: 2,
            effects: &mut effects,
            next_request_id: &mut req,
            next_timer_id: &mut tim,
            var_state: Some(&e),
        };
        assert_eq!(ctx.history(&port), [(Micros(4), 40), (Micros(5), 50), (Micros(6), 60)]);
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
        arm_deadline(&mut e, &Name::new("zvar").unwrap());
        arm_deadline(&mut e, &Name::new("avar").unwrap());
        let warned = e.sweep_deadlines(Micros::from_secs(1));
        assert_eq!(warned.len(), 2);
        assert!(warned[0] < warned[1]);
        assert!(e.sweep_deadlines(Micros::from_secs(2)).is_empty(), "warn once");
        let mut stats = ContainerStats::default();
        e.fill_stats(&mut stats);
        assert_eq!(stats.qos.deadline_misses, 2, "misses counted per subscription");
    }

    #[test]
    fn deadline_heap_rearms_refreshed_channels() {
        let mut e = VarEngine::default();
        let mut a = sub();
        a.since = Some(Micros::ZERO);
        let n = Name::new("v").unwrap();
        e.subscribed.insert(n.clone(), a);
        arm_deadline(&mut e, &n);
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
