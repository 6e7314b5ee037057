//! Variable primitive bookkeeping (paper §4.1).

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use bytes::Bytes;

use marea_encoding::{Codec, CodecId, CodecRegistry};
use marea_presentation::{DataType, Name, Value};
use marea_protocol::messages::Provision;
use marea_protocol::{GroupId, Micros, NodeId};
use marea_transport::Loan;

use super::{encode_payload, fnv1a, Binding, Rebind};
use crate::directory::{Directory, ProviderInfo};
use crate::qos::VarQos;
use crate::service::ServiceDescriptor;
use crate::stats::{ContainerStats, Occupancy, VarChannelView, VarSubscriptionStats};
use crate::timers::DueQueue;

/// Stable group id for a variable's multicast group.
pub(crate) fn var_group(name: &Name) -> GroupId {
    GroupId(1 + (fnv1a(name.as_str().as_bytes()) & 0x3FFF_FFFE))
}

/// `true` when `value` holds no storage whose size `ty` leaves open — no
/// string, blob or variable-length vector at any depth — so keeping it as
/// a spare costs at most the schema's fixed size.
fn fixed_size(ty: &DataType, value: &Value) -> bool {
    match (ty, value) {
        (DataType::Str | DataType::Bytes, _) => false,
        (DataType::Vector(vt), Value::Vector(vv)) => {
            vt.fixed_len() == Some(vv.len()) && vv.iter().all(|item| fixed_size(vt.elem(), item))
        }
        (DataType::Struct(st), Value::Struct(sv)) => {
            let mut fields = st.fields().iter().zip(sv.values());
            st.fields().len() == sv.len() && fields.all(|(def, v)| fixed_size(def.ty(), v))
        }
        (DataType::Union(ut), Value::Union(uv)) => {
            let alt = ut.alternatives().get(uv.discriminant() as usize);
            alt.is_some_and(|alt| fixed_size(alt.ty(), uv.value()))
        }
        // A scalar; a composite here is of another kind than `ty`.
        (ty, value) => ty.kind() == value.kind(),
    }
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
    /// A sample the ring evicted that nothing else held and whose value
    /// has a fixed size: the next sample is written into its allocation
    /// instead of a new one (see [`record`](Self::record)).
    spare: Option<Arc<Value>>,
    /// Loss deadlines missed on this subscription.
    deadline_misses: u64,
    /// Stale samples dropped on this subscription.
    stale_drops: u64,
    /// The provider and the sample schema.
    binding: Binding,
    /// Expected period learned from the provider's announcement (µs).
    period_us: u64,
    /// Validity window learned from the announcement (µs).
    validity_us: u64,
    /// Last sample receive time.
    last_rx: Option<Micros>,
    /// Time the subscription was wired (deadline baseline before the first
    /// sample).
    since: Option<Micros>,
    /// Highest sample sequence seen.
    last_seq: Option<u64>,
    /// A timeout warning has been raised and no sample seen since.
    timed_out: bool,
}

impl SubscribedVar {
    fn new(qos: &VarQos) -> Self {
        SubscribedVar {
            services: Vec::new(),
            need_initial: qos.need_initial,
            deadline_periods: qos.deadline_periods,
            history_cap: qos.history.max(1),
            history: VecDeque::new(),
            spare: None,
            deadline_misses: 0,
            stale_drops: 0,
            binding: Binding::default(),
            period_us: 0,
            validity_us: 0,
            last_rx: None,
            since: None,
            last_seq: None,
            timed_out: false,
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
        if self.timed_out || self.binding.provider.is_none() {
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

    /// Records a sample arrival: `None` when the sample must be dropped as
    /// old (sequence regression / duplicate), else whether it ended a
    /// timeout warning.
    fn accept(&mut self, seq: u64, now: Micros) -> Option<bool> {
        if let Some(last) = self.last_seq {
            if seq <= last {
                return None;
            }
        }
        self.last_seq = Some(seq);
        self.last_rx = Some(now);
        Some(std::mem::replace(&mut self.timed_out, false))
    }

    /// Retains an accepted sample in the history ring (oldest evicted at
    /// capacity). An evicted sample becomes the spare when this ring held
    /// it alone — no queued delivery still reads it — and its value has a
    /// fixed size under the bound schema; any other is freed.
    fn record(&mut self, stamp: Micros, value: Arc<Value>) {
        while self.history.len() >= self.history_cap {
            let Some((_, mut evicted)) = self.history.pop_front() else { break };
            let ty = self.binding.ty.as_ref();
            if Arc::get_mut(&mut evicted).is_some_and(|v| ty.is_some_and(|ty| fixed_size(ty, v))) {
                self.spare = Some(evicted);
            }
        }
        self.history.push_back((stamp, value));
    }

    /// `value` in the spare's allocation when one is kept, else in a new
    /// one.
    fn share(&mut self, value: Value) -> Arc<Value> {
        if let Some(mut spare) = self.spare.take() {
            if let Some(slot) = Arc::get_mut(&mut spare) {
                *slot = value;
                return spare;
            }
        }
        Arc::new(value)
    }

    /// Decodes a received payload against the bound schema: into the
    /// spare when one is kept, otherwise fresh (see [`Binding::decode`]).
    /// `None` when it does not decode; the spare is dropped then.
    fn decode(&mut self, codecs: &CodecRegistry, codec: u8, payload: &[u8]) -> Option<Arc<Value>> {
        if let (Some(ty), Some(mut spare)) = (&self.binding.ty, self.spare.take()) {
            if let Some(slot) = Arc::get_mut(&mut spare) {
                let decoded = codecs.get(CodecId(codec))?.decode_into(payload, ty, slot);
                return decoded.is_ok().then_some(spare);
            }
        }
        self.binding.decode(codecs, codec, payload).map(Arc::new)
    }

    /// [`Binding::rebind`] to `resolved`, taking a new provider's period
    /// and validity: it numbers its samples from scratch, and the loss
    /// deadline counts from `now`. The history ring survives, so retained
    /// samples stay readable while the provider fails over.
    fn rebind(&mut self, resolved: Option<&ProviderInfo>, now: Micros) -> Option<Rebind> {
        let rebind = self.binding.rebind(resolved)?;
        if let Some(Provision::Variable { period_us, validity_us, .. }) =
            resolved.map(|p| &p.provision)
        {
            self.period_us = *period_us;
            self.validity_us = *validity_us;
            self.since = Some(now);
            self.timed_out = false;
            self.last_seq = None;
        }
        Some(rebind)
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
    /// From another node than the bound provider's.
    Foreign,
    /// The subscription has no bound schema (its provider was lost) and
    /// the codec is not self-describing: nothing to read the sample with.
    /// Not a contract violation — the publisher may be healthy and still
    /// reach this node's multicast group.
    Unbound,
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
    /// Every channel's [`deadline_due`](SubscribedVar::deadline_due), armed
    /// where it can be left with no entry or an earlier date: a bind, a
    /// tighter contract, the first sample after a warning.
    deadlines: DueQueue<Name>,
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
            Self::arm(&mut self.deadlines, &sub.name, entry);
        }
    }

    /// Publisher side of a `publish`: checks ownership and schema, encodes
    /// the value into the payload `loan`, numbers the sample and retains it
    /// as the initial value for late subscribers. The error is the log
    /// line saying why it was dropped.
    pub fn publish(
        &mut self,
        loan: &mut Loan,
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
        let payload = encode_payload(loan, codec, value, &pv.ty)
            .map_err(|e| format!("publish to `{name}` does not encode: {e}"))?;
        pv.seq += 1;
        pv.last = Some((payload.clone(), now));
        Ok(Sample { payload, seq: pv.seq, validity_us: pv.validity_us })
    }

    /// Subscriber side of a publish on this container's `node` (Fig. 2
    /// in-container path): the shared value and the services to deliver
    /// it to, if the channel hears `node` and the sample is fresh.
    pub fn accept_local(
        &mut self,
        name: &Name,
        node: NodeId,
        seq: u64,
        value: Value,
        now: Micros,
    ) -> Option<(Arc<Value>, &[u32])> {
        let sub = self.subscribed.get_mut(name)?;
        if !sub.binding.hears(node) {
            return None;
        }
        if sub.accept(seq, now)? {
            Self::arm(&mut self.deadlines, name, sub);
        }
        let value = sub.share(value);
        sub.record(now, Arc::clone(&value));
        Some((value, &sub.services))
    }

    /// Subscriber side of a `VarSample` received from `src`: provider,
    /// validity and sequence filtering, decode, history, deadline. Answers
    /// the value — decoded once, shared with the history ring — and the
    /// services to deliver it to.
    #[allow(
        clippy::too_many_arguments,
        reason = "the sample's header fields arrive unpacked from the frame"
    )]
    pub fn on_sample(
        &mut self,
        name: &Name,
        src: NodeId,
        seq: u64,
        stamp: Micros,
        validity_us: u64,
        codec: u8,
        payload: &[u8],
        codecs: &CodecRegistry,
        now: Micros,
    ) -> Result<(Arc<Value>, &[u32]), SampleDrop> {
        let sub = self.subscribed.get_mut(name).ok_or(SampleDrop::Unsubscribed)?;
        if !sub.binding.hears(src) {
            return Err(SampleDrop::Foreign);
        }
        if validity_us > 0 && now.saturating_since(stamp).as_micros() > validity_us {
            sub.stale_drops += 1;
            return Err(SampleDrop::Stale);
        }
        if sub.binding.ty.is_none() && CodecId(codec) != CodecId::SELF_DESCRIBING {
            return Err(SampleDrop::Unbound);
        }
        if sub.accept(seq, now).ok_or(SampleDrop::Old)? {
            Self::arm(&mut self.deadlines, name, sub);
        }
        let Some(value) = sub.decode(codecs, codec, payload) else {
            self.type_mismatches += 1;
            return Err(SampleDrop::Mismatch);
        };
        sub.record(stamp, Arc::clone(&value));
        Ok((value, &sub.services))
    }

    /// A remote subscription to `name`: the retained sample and its
    /// production stamp, if the subscriber asked for the initial value and
    /// that is still valid.
    pub fn on_subscribe(
        &self,
        name: &Name,
        need_initial: bool,
        now: Micros,
    ) -> Option<(Sample, Micros)> {
        let pv = self.published.get(name)?;
        if !(need_initial && pv.last_is_valid(now)) {
            return None;
        }
        let (payload, stamp) = pv.last.clone()?;
        Some((Sample { payload, seq: pv.seq, validity_us: pv.validity_us }, stamp))
    }

    /// Re-resolves every subscription against `directory`; answers the
    /// bindings that changed, in name order.
    pub fn rebind_all(&mut self, directory: &Directory, now: Micros) -> Vec<(Name, Rebind)> {
        let mut changed = Vec::new();
        for (name, sub) in &mut self.subscribed {
            if let Some(rebind) = sub.rebind(directory.resolve_variable(name.as_str()), now) {
                Self::arm(&mut self.deadlines, name, sub);
                changed.push((name.clone(), rebind));
            }
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

    /// Arms `sub`'s loss deadline, if it has one; a rebind (a shorter period)
    /// or a tighter contract can move it earlier than the channel's entry.
    fn arm(deadlines: &mut DueQueue<Name>, name: &Name, sub: &SubscribedVar) {
        if let Some(due) = sub.deadline_due() {
            deadlines.arm(name.clone(), due);
        }
    }

    /// The earliest instant [`sweep_deadlines`](Self::sweep_deadlines) can
    /// have work (early when a sample came since, never late).
    pub fn next_due(&self) -> Option<Micros> {
        self.deadlines.next_due()
    }

    /// Variables whose deadline has been missed at `now` (marks them
    /// warned and counts the miss against the subscription's contract).
    pub fn sweep_deadlines(&mut self, now: Micros) -> Vec<Name> {
        let mut out = Vec::new();
        while let Some(name) =
            self.deadlines.pop_due(now, |name| self.subscribed.get(name)?.deadline_due())
        {
            if let Some(sub) = self.subscribed.get_mut(&name) {
                sub.timed_out = true;
                sub.deadline_misses += 1;
            }
            out.push(name);
        }
        out.sort();
        out
    }

    /// Writes the counters this engine owns.
    pub fn fill_stats(&self, stats: &mut ContainerStats) {
        stats.type_mismatches.vars = self.type_mismatches;
        stats.qos.deadline_misses = self.subscribed.values().map(|s| s.deadline_misses).sum();
        stats.qos.stale_drops = self.subscribed.values().map(|s| s.stale_drops).sum();
        stats.foreign_drops +=
            self.subscribed.values().map(|s| s.binding.foreign_drops).sum::<u64>();
    }

    /// Writes the gauges this engine owns.
    pub fn fill_occupancy(&self, occupancy: &mut Occupancy) {
        occupancy.vars_bound =
            self.subscribed.values().filter(|s| s.binding.provider.is_some()).count();
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
            bound: s.binding.provider.is_some(),
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
    use marea_presentation::{StructType, StructValue, VectorType, VectorValue};
    use marea_protocol::messages::ServiceState;
    use marea_protocol::ServiceId;

    /// Test stand-in for the arming a bind does.
    fn arm_deadline(e: &mut VarEngine, name: &Name) {
        VarEngine::arm(&mut e.deadlines, name, &e.subscribed[name]);
    }

    impl SubscribedVar {
        /// Whether the deadline has been missed at `now`.
        fn deadline_missed(&self, now: Micros) -> bool {
            self.deadline_due().is_some_and(|due| due <= now)
        }
    }

    /// `provider`'s announcement of `v`, every `period_us`, valid for
    /// `validity_us`, of schema `ty`.
    fn announced(
        provider: ServiceId,
        period_us: u64,
        validity_us: u64,
        ty: DataType,
    ) -> ProviderInfo {
        let provision =
            Provision::Variable { name: Name::new("v").unwrap(), ty, period_us, validity_us };
        ProviderInfo { service: provider, state: ServiceState::Running, provision }
    }

    fn sub() -> SubscribedVar {
        let mut s = SubscribedVar::new(&VarQos::default().with_initial());
        s.rebind(
            Some(&announced(ServiceId::new(NodeId(2), 1), 50_000, 200_000, DataType::F64)),
            Micros::ZERO,
        );
        s
    }

    #[test]
    fn sequence_regression_dropped() {
        let mut s = sub();
        assert_eq!(s.accept(5, Micros(1)), Some(false));
        assert_eq!(s.accept(5, Micros(2)), None, "duplicate");
        assert_eq!(s.accept(3, Micros(3)), None, "regression");
        assert_eq!(s.accept(6, Micros(4)), Some(false));
    }

    #[test]
    fn deadline_uses_contract_periods() {
        let mut s = sub();
        assert!(!s.deadline_missed(Micros(100_000)), "2 periods: fine");
        assert!(s.deadline_missed(Micros(200_000)), "4 periods: missed");
        s.timed_out = true;
        assert!(!s.deadline_missed(Micros(300_000)), "warn once");
        // A new sample resets the warning.
        assert_eq!(s.accept(1, Micros(300_000)), Some(true), "and says so");
        assert!(!s.timed_out);

        // A tighter contract shortens the deadline.
        let mut tight = SubscribedVar::new(&VarQos::default().with_deadline_periods(1));
        tight.rebind(
            Some(&announced(ServiceId::new(NodeId(2), 1), 50_000, 200_000, DataType::F64)),
            Micros::ZERO,
        );
        assert_eq!(tight.deadline_us(), Some(50_000));
        assert!(tight.deadline_missed(Micros(60_000)), "1 period + slack: missed");
    }

    #[test]
    fn aperiodic_has_no_deadline() {
        let mut s = SubscribedVar::new(&VarQos::default());
        s.rebind(
            Some(&announced(ServiceId::new(NodeId(2), 1), 0, 0, DataType::Bool)),
            Micros::ZERO,
        );
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
        e.subscribed
            .get_mut(&name)
            .unwrap()
            .rebind(Some(&announced(provider, 0, 0, DataType::U64)), Micros::ZERO);

        let codecs = CodecRegistry::new();
        for seq in 1..=5u64 {
            let payload =
                codecs.default_codec().encode_to_vec(&Value::U64(seq * 10), &DataType::U64);
            let stamp = Micros(seq);
            let (value, services) = e
                .on_sample(
                    &name,
                    NodeId(2),
                    seq,
                    stamp,
                    0,
                    0,
                    &payload.unwrap(),
                    &codecs,
                    Micros(seq),
                )
                .unwrap();
            assert_eq!(*value, Value::U64(seq * 10));
            assert_eq!(services, [1, 2], "both subscribers get every sample");
            let (kept_stamp, kept) = e.subscribed[&name].history.back().unwrap();
            assert_eq!(*kept_stamp, stamp);
            assert!(Arc::ptr_eq(&value, kept), "the ring holds the delivered allocation");
        }

        // The same-container path shares the same way.
        let (value, services) =
            e.accept_local(&name, NodeId(2), 6, Value::U64(60), Micros(6)).unwrap();
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

    /// `Fix { lat: f64, lon: f64 }`: a fixed-size schema.
    fn fix_ty() -> DataType {
        let st = StructType::new("Fix").with_field("lat", DataType::F64).unwrap();
        DataType::Struct(st.with_field("lon", DataType::F64).unwrap())
    }

    fn fix(ty: &DataType, k: u64) -> Value {
        let DataType::Struct(st) = ty else { unreachable!() };
        let k = k as f64;
        Value::Struct(StructValue::for_type(st, [k.into(), (-k).into()]))
    }

    /// An engine with one local subscriber of `v` (history 1), bound to a
    /// provider of `ty`.
    fn bound_to(ty: &DataType) -> (VarEngine, Name) {
        let port = crate::ports::VarPort::<u64>::new("v");
        let mut b = ServiceDescriptor::builder("s");
        b.subscribe_to_var(&port, VarQos::default());
        let mut e = VarEngine::default();
        e.register(1, &b.build());
        let name = port.name().clone();
        let provider = ServiceId::new(NodeId(2), 1);
        e.subscribed
            .get_mut(&name)
            .unwrap()
            .rebind(Some(&announced(provider, 0, 0, ty.clone())), Micros::ZERO);
        (e, name)
    }

    /// Feeds `value` as sample `seq` (compact codec) from the bound
    /// provider's node; answers the shared value.
    fn feed(e: &mut VarEngine, name: &Name, seq: u64, value: &Value, ty: &DataType) -> Arc<Value> {
        let codecs = CodecRegistry::new();
        let payload = codecs.default_codec().encode_to_vec(value, ty).unwrap();
        let (now, src) = (Micros(seq), e.subscribed[name].binding.provider.unwrap().node);
        e.on_sample(name, src, seq, now, 0, 0, &payload, &codecs, now).unwrap().0
    }

    fn spare(e: &VarEngine, name: &Name) -> Option<*const Value> {
        e.subscribed[name].spare.as_ref().map(Arc::as_ptr)
    }

    /// A sample a queued delivery still holds when the ring evicts it is
    /// freed by its last holder, never kept as the spare; once deliveries
    /// let go, the evicted sample's allocation takes the next one.
    #[test]
    fn only_a_sample_the_ring_held_alone_becomes_the_spare() {
        let ty = fix_ty();
        let (mut e, name) = bound_to(&ty);
        let queued: Vec<Arc<Value>> =
            (1..=4).map(|k| feed(&mut e, &name, k, &fix(&ty, k), &ty)).collect();
        assert_eq!(spare(&e, &name), None, "every evicted sample is still queued");
        for (k, value) in (1..).zip(&queued) {
            assert_eq!(**value, fix(&ty, k), "a queued sample keeps its value");
        }
        let reused = Arc::as_ptr(&queued[3]);
        drop(queued);
        drop(feed(&mut e, &name, 5, &fix(&ty, 5), &ty));
        assert_eq!(spare(&e, &name), Some(reused), "held by the ring alone: kept");
        let sixth = feed(&mut e, &name, 6, &fix(&ty, 6), &ty);
        assert_eq!(Arc::as_ptr(&sixth), reused, "decoded into the spare's allocation");
        assert_eq!(*sixth, fix(&ty, 6));
        assert_eq!(e.history(&name).map(|(_, v)| v.clone()).collect::<Vec<_>>(), [fix(&ty, 6)]);

        // The same-container path moves its value into the spare's box.
        let kept = spare(&e, &name).unwrap();
        let (local, _) = e.accept_local(&name, NodeId(2), 7, fix(&ty, 7), Micros(7)).unwrap();
        assert_eq!((Arc::as_ptr(&local), &*local), (kept, &fix(&ty, 7)));
    }

    /// A payload that does not decode drops only the spare: the ring, the
    /// drop reason and the mismatch count are what they always were.
    #[test]
    fn a_mismatching_sample_leaves_the_history_as_it_was() {
        let ty = fix_ty();
        let (mut e, name) = bound_to(&ty);
        let ring =
            |e: &VarEngine| e.history(&name).map(|(t, v)| (t, v.clone())).collect::<Vec<_>>();
        let codecs = CodecRegistry::new();
        let good = codecs.default_codec().encode_to_vec(&fix(&ty, 9), &ty).unwrap();
        let (truncated, trailing) = (good[..15].to_vec(), [&good[..], &[0]].concat());
        // Samples 1, 2, bad 3; then 4, 5, bad 6.
        for (seq, bad) in [(1, truncated), (4, trailing)] {
            feed(&mut e, &name, seq, &fix(&ty, seq), &ty);
            feed(&mut e, &name, seq + 1, &fix(&ty, seq + 1), &ty);
            assert!(spare(&e, &name).is_some());
            let before = ring(&e);
            let now = Micros(seq + 2);
            let dropped = e.on_sample(&name, NodeId(2), seq + 2, now, 0, 0, &bad, &codecs, now);
            assert_eq!(dropped.err(), Some(SampleDrop::Mismatch));
            assert_eq!(ring(&e), before);
            assert_eq!(spare(&e, &name), None, "the half-written spare is gone");
        }
        assert_eq!(e.type_mismatches, 2);
        assert_eq!(*feed(&mut e, &name, 7, &fix(&ty, 7), &ty), fix(&ty, 7), "decodes fresh");
    }

    /// Strings and blobs are of the size the last sample gave them: such a
    /// sample is never kept, at any depth. A fixed vector of scalars is.
    #[test]
    fn only_fixed_size_values_are_kept_as_spares() {
        let tagged = StructType::new("Tagged")
            .with_field("k", DataType::U64)
            .unwrap()
            .with_field("tag", DataType::Str)
            .unwrap();
        let cases = [
            (DataType::Str, Value::Str("abc".into()), false),
            (DataType::Bytes, Value::Bytes(vec![1; 64]), false),
            (
                DataType::Struct(tagged.clone()),
                Value::Struct(StructValue::for_type(&tagged, [1u64.into(), "x".into()])),
                false,
            ),
            (
                DataType::Vector(VectorType::of(DataType::U8)),
                Value::Vector(VectorValue::new(DataType::U8, vec![]).unwrap()),
                false,
            ),
            (
                DataType::Vector(VectorType::fixed(DataType::F64, 2)),
                Value::Vector(
                    VectorValue::new(DataType::F64, vec![1.0.into(), 2.0.into()]).unwrap(),
                ),
                true,
            ),
            (DataType::U64, Value::U64(7), true),
        ];
        for (ty, value, kept) in cases {
            let (mut e, name) = bound_to(&ty);
            for seq in 1..=3 {
                feed(&mut e, &name, seq, &value, &ty);
            }
            assert_eq!(spare(&e, &name).is_some(), kept, "{ty}");
        }
    }

    /// A new provider with another schema: the spare holds a value of the
    /// old one, so the sample is decoded fresh and moved into its box.
    #[test]
    fn a_rebind_to_another_schema_decodes_fresh_into_the_old_spare() {
        let ty = fix_ty();
        let (mut e, name) = bound_to(&ty);
        for k in 1..=3 {
            feed(&mut e, &name, k, &fix(&ty, k), &ty);
        }
        let old = spare(&e, &name).unwrap();
        let wider = DataType::Struct(
            StructType::new("Fix3")
                .with_field("lat", DataType::F64)
                .unwrap()
                .with_field("lon", DataType::F64)
                .unwrap()
                .with_field("alt", DataType::F32)
                .unwrap(),
        );
        let other = ServiceId::new(NodeId(3), 1);
        e.subscribed
            .get_mut(&name)
            .unwrap()
            .rebind(Some(&announced(other, 0, 0, wider.clone())), Micros(4));
        let DataType::Struct(st) = &wider else { unreachable!() };
        for k in 1..=3u64 {
            let v = Value::Struct(StructValue::for_type(
                st,
                [(k as f64).into(), 0.5.into(), 2.5f32.into()],
            ));
            let got = feed(&mut e, &name, k, &v, &wider);
            assert_eq!(*got, v);
            got.conforms_to(&wider).unwrap();
            if k == 1 {
                assert_eq!(Arc::as_ptr(&got), old, "the old spare's box");
            }
        }
    }

    /// After its provider is lost, a subscription has no schema: a compact
    /// sample is dropped as `Unbound` before it moves the sequence or the
    /// mismatch count; a self-describing one still decodes.
    #[test]
    fn an_unbound_subscription_drops_compact_samples_uncounted() {
        let (mut e, name) = bound_to(&DataType::U64);
        feed(&mut e, &name, 1, &Value::U64(1), &DataType::U64);
        e.subscribed.get_mut(&name).unwrap().rebind(None, Micros(2));
        let codecs = CodecRegistry::new();
        let compact = codecs.default_codec().encode_to_vec(&Value::U64(2), &DataType::U64).unwrap();
        let dropped =
            e.on_sample(&name, NodeId(2), 2, Micros(2), 0, 0, &compact, &codecs, Micros(2));
        assert_eq!(dropped.err(), Some(SampleDrop::Unbound));
        assert_eq!((e.type_mismatches, e.subscribed[&name].last_seq), (0, Some(1)));

        let selfdesc = codecs.get(CodecId::SELF_DESCRIBING).unwrap();
        let payload = selfdesc.encode_to_vec(&Value::U64(3), &DataType::U64).unwrap();
        let (value, _) = e
            .on_sample(&name, NodeId(2), 3, Micros(3), 0, 1, &payload, &codecs, Micros(3))
            .unwrap();
        assert_eq!(*value, Value::U64(3));
    }

    /// A bound channel turns away a sample from another node, on either
    /// path, before it reaches the sequence check; each one is counted.
    #[test]
    fn a_sample_from_another_node_is_dropped_before_the_sequence_check() {
        let (mut e, name) = bound_to(&DataType::U64);
        let codecs = CodecRegistry::new();
        let payload = codecs.default_codec().encode_to_vec(&Value::U64(9), &DataType::U64).unwrap();
        let foreign =
            e.on_sample(&name, NodeId(3), 9, Micros(1), 0, 0, &payload, &codecs, Micros(1));
        assert_eq!(foreign.err(), Some(SampleDrop::Foreign));
        assert!(e.accept_local(&name, NodeId(1), 10, Value::U64(10), Micros(2)).is_none());
        assert_eq!(e.subscribed[&name].last_seq, None, "the sequence did not move");
        assert_eq!(*feed(&mut e, &name, 1, &Value::U64(1), &DataType::U64), Value::U64(1));
        let mut stats = ContainerStats::default();
        e.fill_stats(&mut stats);
        assert_eq!(stats.foreign_drops, 2);
    }

    #[test]
    fn rebind_resets_sequence_tracking() {
        let mut s = sub();
        s.accept(100, Micros(1));
        s.rebind(None, Micros(2));
        s.rebind(
            Some(&announced(ServiceId::new(NodeId(3), 1), 50_000, 200_000, DataType::F64)),
            Micros(2),
        );
        assert!(s.accept(1, Micros(3)).is_some(), "new provider numbers from scratch");
    }

    #[test]
    fn published_validity() {
        let mut p = PublishedVar {
            owner_seq: 1,
            ty: DataType::F64,
            validity_us: 100_000,
            seq: 0,
            last: None,
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
        assert_eq!(e.deadlines.entries(&n), 1);
        // A sample at 90ms makes the t=0 heap entry (due ~150ms: 3 nominal
        // periods of 50ms) stale.
        e.subscribed.get_mut(&n).unwrap().accept(1, Micros(90_000));
        assert!(e.sweep_deadlines(Micros(160_000)).is_empty(), "refreshed: no miss");
        assert_eq!(e.deadlines.entries(&n), 1, "stale entry re-armed itself");
        // Silent since 90ms: the re-armed entry fires (deadline 240ms).
        assert_eq!(e.sweep_deadlines(Micros(250_000)), vec![n.clone()]);
        assert_eq!(e.deadlines.entries(&n), 0, "warned channels leave the queue");
        // The first sample after the warning arms the channel again.
        assert!(e.accept_local(&n, NodeId(2), 2, Value::F64(1.0), Micros(300_000)).is_some());
        assert_eq!(e.deadlines.entries(&n), 1);
        assert!(e.sweep_deadlines(Micros(450_000)).is_empty());
        assert_eq!(e.sweep_deadlines(Micros(450_001)), vec![n.clone()]);
    }

    /// A rebind to a provider with a shorter period moves the deadline
    /// earlier than the entry the channel holds: the new one is anchored
    /// at the last sample of the provider before, and it is the one that
    /// fires.
    #[test]
    fn a_rebind_to_a_faster_provider_warns_on_the_new_deadline() {
        let mut e = VarEngine::default();
        let n = Name::new("v").unwrap();
        let mut s = SubscribedVar::new(&VarQos::default());
        s.rebind(
            Some(&announced(ServiceId::new(NodeId(2), 1), 1_000_000, 0, DataType::F64)),
            Micros::ZERO,
        );
        e.subscribed.insert(n.clone(), s);
        arm_deadline(&mut e, &n);
        assert!(e.accept_local(&n, NodeId(2), 1, Value::F64(1.0), Micros(5_002_000)).is_some());
        assert!(e.sweep_deadlines(Micros(7_000_000)).is_empty());
        let sub = e.subscribed.get_mut(&n).unwrap();
        sub.rebind(
            Some(&announced(ServiceId::new(NodeId(3), 1), 100_000, 0, DataType::F64)),
            Micros(7_002_000),
        );
        arm_deadline(&mut e, &n);
        assert_eq!(e.next_due(), Some(Micros(5_302_001)), "last sample + 3 × 100 ms");
        assert_eq!(e.sweep_deadlines(Micros(7_002_000)), vec![n.clone()]);
    }

    /// A second service that asks for a tighter loss deadline on a bound
    /// channel (added while the container runs) moves the channel's entry
    /// earlier: the warning comes on the tighter deadline.
    #[test]
    fn a_tighter_contract_on_a_bound_channel_arms_the_earlier_deadline() {
        let descriptor = |name: &str, qos: VarQos| {
            let mut b = ServiceDescriptor::builder(name);
            b.subscribe_variable("v", qos);
            b.build()
        };
        let mut e = VarEngine::default();
        e.register(1, &descriptor("a", VarQos::default()));
        let n = Name::new("v").unwrap();
        let provider = ServiceId::new(NodeId(2), 1);
        e.subscribed
            .get_mut(&n)
            .unwrap()
            .rebind(Some(&announced(provider, 100_000, 0, DataType::F64)), Micros::ZERO);
        arm_deadline(&mut e, &n);
        assert_eq!(e.next_due(), Some(Micros(300_001)), "3 periods");
        e.register(2, &descriptor("b", VarQos::default().with_deadline_periods(1)));
        assert_eq!(e.next_due(), Some(Micros(100_001)), "1 period");
        assert_eq!(e.deadlines.entries(&n), 1);
        assert_eq!(e.sweep_deadlines(Micros(100_001)), vec![n.clone()]);
    }
}
