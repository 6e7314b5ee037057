//! State engines for the four communication primitives.
//!
//! Each engine owns one primitive's bookkeeping behind private fields: it
//! decides (accept or drop a sample, admit an event into an inbox, retry
//! or fail a call, route a file chunk) and answers `next_due()` from its
//! own due dates. The [`ServiceContainer`](crate::ServiceContainer) turns
//! those answers into frames, tasks and trace records — engines never
//! touch the transport, the scheduler or the tracer, which keeps them
//! unit-testable in isolation.
//!
//! Variables and events consume a name the same way: each subscribed
//! channel of either keeps one [`Binding`], re-resolved by one rule
//! ([`Binding::rebind`]) and applied on receipt by one filter
//! ([`Binding::hears`]).

use bytes::Bytes;

use marea_encoding::{Codec, CodecId, CodecRegistry, EncodeError, SelfDescribingCodec};
use marea_presentation::{DataType, Value};
use marea_protocol::messages::Provision;
use marea_protocol::{NodeId, ServiceId};
use marea_transport::Loan;

use crate::directory::ProviderInfo;

pub(crate) mod events;
pub(crate) mod files;
pub(crate) mod rpc;
pub(crate) mod vars;

/// What re-resolving a subscribed channel against the directory did to
/// its provider binding (name management, paper §3): it `left` one
/// provider (`None`: it was unbound) and is `bound` to another (`None`:
/// no provider resolves any more). The two always differ.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Rebind {
    pub bound: Option<ServiceId>,
    pub left: Option<ServiceId>,
}

impl Rebind {
    /// What the channel's subscribers are told: that it gained a provider
    /// (`Some(true)`, bound from unbound) or lost it (`Some(false)`); a
    /// re-wire from one provider to another is not told.
    pub fn available(self) -> Option<bool> {
        match (self.left, self.bound) {
            (None, _) => Some(true),
            (_, None) => Some(false),
            _ => None,
        }
    }
}

/// A subscribed channel's provider binding: the provider the directory
/// resolved and the schema learned from its announcement.
#[derive(Debug, Default)]
struct Binding {
    provider: Option<ServiceId>,
    ty: Option<DataType>,
    /// Samples or events turned away as another node's.
    foreign_drops: u64,
}

impl Binding {
    /// Binds to `resolved`, the provider the directory resolves now (`None`
    /// when none does), and learns the schema it announced; answers the
    /// change, `None` when the provider stays the same.
    fn rebind(&mut self, resolved: Option<&ProviderInfo>) -> Option<Rebind> {
        let (left, bound) = (self.provider, resolved.map(|p| p.service));
        if bound == left {
            return None;
        }
        self.provider = bound;
        self.ty = match resolved.map(|p| &p.provision) {
            Some(Provision::Variable { ty, .. }) => Some(ty.clone()),
            Some(Provision::Event { ty, .. }) => ty.clone(),
            _ => None,
        };
        Some(Rebind { bound, left })
    }

    /// Whether a sample or event from `src` is this channel's to take:
    /// from its provider's node, or from any node while unbound. One
    /// turned away is counted.
    fn hears(&mut self, src: NodeId) -> bool {
        let heard = self.provider.is_none_or(|p| p.node == src);
        self.foreign_drops += u64::from(!heard);
        heard
    }

    /// Decodes a sample or event payload against the bound schema; without
    /// one, only the self-describing codec can be read. `None`: the payload
    /// does not decode.
    fn decode(&self, codecs: &CodecRegistry, codec: u8, payload: &[u8]) -> Option<Value> {
        match (&self.ty, CodecId(codec)) {
            (Some(ty), id) => codecs.get(id)?.decode(payload, ty).ok(),
            (None, CodecId(1)) => SelfDescribingCodec::decode_any(payload).ok().map(|(_, v)| v),
            _ => None,
        }
    }
}

/// Encodes a published value or a call's result into the buffer that goes
/// on the wire: one of the container's payload `loan`, sized up for the
/// value when it is short, frozen in place — the payload is written once
/// and never copied on its way to the frame, and its storage is written
/// again once the message that carried it, and a variable's initial-value
/// copy, are dropped.
fn encode_payload(
    loan: &mut Loan,
    codec: &dyn Codec,
    value: &Value,
    ty: &DataType,
) -> Result<Bytes, EncodeError> {
    let mut buf = loan.reclaim();
    buf.reserve(value.size_hint());
    codec.encode(value, ty, &mut buf)?;
    Ok(loan.keep(buf))
}

/// FNV-1a, the hash behind the stable multicast group ids.
fn fnv1a(bytes: &[u8]) -> u32 {
    bytes.iter().fold(0x811c_9dc5, |h, &b| (h ^ u32::from(b)).wrapping_mul(0x0100_0193))
}

#[cfg(test)]
mod tests {
    use super::*;
    use marea_protocol::messages::ServiceState;

    fn provider(node: u32) -> ServiceId {
        ServiceId::new(NodeId(node), 1)
    }

    /// Node `node`'s announcement of an event channel of payload `ty`.
    fn event(node: u32, ty: Option<DataType>) -> ProviderInfo {
        let name = marea_presentation::Name::new("e").unwrap();
        let provision = Provision::Event { name, ty };
        ProviderInfo { service: provider(node), state: ServiceState::Running, provision }
    }

    #[test]
    fn a_fresh_bind_reports_no_provider_left_and_learns_the_schema() {
        let mut b = Binding::default();
        let bound = b.rebind(Some(&event(1, Some(DataType::U8))));
        assert_eq!(bound, Some(Rebind { bound: Some(provider(1)), left: None }));
        assert_eq!(bound.unwrap().available(), Some(true), "told as a gain");
        assert_eq!((b.provider, b.ty.clone()), (Some(provider(1)), Some(DataType::U8)));
        assert_eq!(b.rebind(Some(&event(1, Some(DataType::U8)))), None, "unchanged");
    }

    #[test]
    fn a_rewire_reports_the_provider_it_left() {
        let mut b = Binding::default();
        b.rebind(Some(&event(1, Some(DataType::U8))));
        let rewired = b.rebind(Some(&event(2, None)));
        assert_eq!(rewired, Some(Rebind { bound: Some(provider(2)), left: Some(provider(1)) }));
        assert_eq!(rewired.unwrap().available(), None, "not told");
        assert_eq!((b.provider, b.ty.clone()), (Some(provider(2)), None), "the new schema");
    }

    #[test]
    fn a_lost_provider_is_reported_once() {
        let mut b = Binding::default();
        assert_eq!(b.rebind(None), None, "never bound");
        b.rebind(Some(&event(1, Some(DataType::U8))));
        let lost = b.rebind(None);
        assert_eq!(lost, Some(Rebind { bound: None, left: Some(provider(1)) }));
        assert_eq!(lost.unwrap().available(), Some(false), "told as a loss");
        assert_eq!((b.provider, b.ty.clone()), (None, None));
        assert_eq!(b.rebind(None), None, "once");
    }

    /// Variables and events are encoded into the one payload loan: an
    /// event emitted once the previous event's message has left is written
    /// into that message's storage, and a variable's last sample — a late
    /// subscriber's initial value — is never written over, neither while it
    /// is the last nor while a subscriber still holds it.
    #[test]
    fn payloads_are_written_into_the_storage_of_messages_that_left() {
        use crate::ports::{EventPort, VarPort};
        use crate::qos::VarQos;
        use crate::service::ServiceDescriptor;
        use events::EventEngine;
        use marea_encoding::CompactCodec;
        use marea_protocol::Micros;
        use vars::VarEngine;

        let (var, event) = (VarPort::<u64>::new("v"), EventPort::<u64>::new("e"));
        let mut b = ServiceDescriptor::builder("s");
        b.provides_var(&var, VarQos::default()).provides_event(&event);
        let descriptor = b.build();
        let (mut vars, mut events) = (VarEngine::default(), EventEngine::default());
        vars.register(1, &descriptor);
        events.register(1, &descriptor);
        let mut loan = Loan::default();
        let mut emit = |loan: &mut Loan, v: u64| {
            events.emit(loan, 1, event.name(), Some(&Value::U64(v)), &CompactCodec).unwrap().payload
        };

        let first = emit(&mut loan, 7);
        let storage = first.as_ptr();
        drop(first);
        assert!(loan.bytes() > 0, "the storage of the message that left is on loan");
        let second = emit(&mut loan, 8);
        assert_eq!(second.as_ptr(), storage, "written into the storage of the message that left");
        assert_eq!(loan.bytes(), 0, "written into, not beside it");
        drop(second);

        let mut publish = |loan: &mut Loan, v: u64| {
            let value = Value::U64(v);
            drop(vars.publish(loan, 1, var.name(), &value, &CompactCodec, Micros(v)).unwrap());
            let (last, _) = vars.on_subscribe(var.name(), true, Micros(v)).unwrap();
            last.payload
        };
        let initial = publish(&mut loan, 1);
        let held = initial.to_vec();
        for v in 2..=101 {
            let last = publish(&mut loan, v);
            let decoded = CompactCodec.decode(&last, &DataType::U64).unwrap();
            assert_eq!(decoded, Value::U64(v), "the last sample after {v} publishes");
        }
        assert_eq!(initial.as_ref(), &held[..], "a held initial value was written over");
    }

    #[test]
    fn a_bound_channel_hears_its_providers_node_and_an_unbound_one_every_node() {
        let mut b = Binding::default();
        assert!((1..=3).all(|node| b.hears(NodeId(node))), "unbound");
        b.rebind(Some(&event(2, None)));
        assert!(b.hears(NodeId(2)));
        assert!(!b.hears(NodeId(1)) && !b.hears(NodeId(3)));
        assert_eq!(b.foreign_drops, 2, "each one turned away is counted");
        b.rebind(None);
        assert!(b.hears(NodeId(1)), "unbound again");
        assert_eq!(b.foreign_drops, 2);
    }
}
