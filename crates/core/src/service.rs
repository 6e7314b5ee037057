//! The service programming model: what a MAREA service implements and the
//! API surface it sees.
//!
//! Paper §3: *"the services are semantic units that behave as producers of
//! data and as consumers of data coming from other services ... The services
//! do not access the network directly. All their communication is carried by
//! the service container."*
//!
//! Accordingly a service is a [`Service`] trait object with handler hooks;
//! its *only* channel to the world is the [`ServiceContext`] the container
//! passes into each hook. Context methods queue **effects** that the
//! container applies after the handler returns — a service can never
//! re-enter the middleware or touch a socket.
//!
//! Every declaration carries a typed QoS profile ([`VarQos`] /
//! [`EventQos`]) and every remote invocation carries [`CallOptions`]: the
//! contract a service states here is exactly what the container, the
//! engines and the scheduler enforce below (see the [`qos`](crate::qos)
//! module docs).

use std::fmt;

use bytes::Bytes;

use marea_presentation::{ArgsCodec, EventPayload, FnRet, Name, Value, ValueCodec};
use marea_protocol::messages::Provision;
use marea_protocol::{Micros, NodeId, ProtoDuration, RequestId};

use crate::engines::vars::VarEngine;
use crate::error::CallError;
use crate::ports::{EventPort, FnPort, TypedCallHandle, VarPort};
use crate::qos::{CallOptions, EventQos, VarQos};

/// Handle correlating a [`ServiceContext::call_fn`] with its later
/// [`Service::on_reply`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CallHandle(pub RequestId);

/// Identifier of a timer created with [`ServiceContext::set_timer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TimerId(pub u64);

/// Provider-selection policy for remote invocations (paper §4.3: static
/// allocation for critical services, dynamic load balancing otherwise).
///
/// Carried by [`CallOptions`] together with the deadline/retry contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CallPolicy {
    /// Pick the available provider with the lowest advertised load
    /// (falling back to lowest node id for determinism).
    #[default]
    Dynamic,
    /// Pin to a provider on the given node while it is alive; fail over
    /// dynamically if it dies.
    PreferNode(NodeId),
}

/// File-transfer notifications delivered to services.
#[derive(Debug, Clone, PartialEq)]
pub enum FileEvent {
    /// A publisher announced (a new revision of) a resource this service
    /// subscribed to.
    Announced {
        /// Resource name.
        resource: Name,
        /// Announced revision.
        revision: u32,
        /// Total size in bytes.
        size: u64,
    },
    /// A subscribed resource finished downloading.
    Received {
        /// Resource name.
        resource: Name,
        /// Completed revision.
        revision: u32,
        /// File content.
        data: Bytes,
    },
    /// Every subscriber acknowledged a resource this service published.
    DistributionComplete {
        /// Resource name.
        resource: Name,
        /// Completed revision.
        revision: u32,
        /// How many subscribers were served.
        subscribers: u32,
    },
}

/// Provider-availability notifications (name-cache maintenance made
/// visible; paper §3 *name management*).
#[derive(Debug, Clone, PartialEq)]
pub enum ProviderNotice {
    /// A required function became callable.
    FunctionAvailable(Name),
    /// A required function lost its last provider.
    FunctionUnavailable(Name),
    /// A subscribed variable gained a provider.
    VariableAvailable(Name),
    /// A subscribed variable lost its provider.
    VariableUnavailable(Name),
    /// A subscribed event channel gained a provider.
    EventAvailable(Name),
    /// A subscribed event channel lost its provider.
    EventUnavailable(Name),
}

/// A variable subscription in a [`ServiceDescriptor`]: the name plus the
/// subscriber's declared [`VarQos`] contract.
#[derive(Debug, Clone, PartialEq)]
pub struct VarSubscription {
    /// Variable name.
    pub name: Name,
    /// The declared contract (`deadline_periods`, `history` and
    /// `need_initial` are the subscriber-side fields).
    pub qos: VarQos,
}

/// An event subscription in a [`ServiceDescriptor`]: the channel name plus
/// the subscriber's declared [`EventQos`] contract.
#[derive(Debug, Clone, PartialEq)]
pub struct EventSubscription {
    /// Channel name.
    pub name: Name,
    /// The declared contract (priority lane, inbox bound, drop policy).
    pub qos: EventQos,
}

/// Static declaration of everything a service provides and consumes.
///
/// Built with [`ServiceDescriptor::builder`]; the container uses it to
/// announce provisions, wire subscriptions and verify at initialization
/// that "all the functions they need ... are provided by one or more
/// services available in the network" (paper §4.3).
#[derive(Debug, Clone)]
pub struct ServiceDescriptor {
    pub(crate) name: Name,
    pub(crate) provides: Vec<Provision>,
    pub(crate) var_subscriptions: Vec<VarSubscription>,
    pub(crate) event_subscriptions: Vec<EventSubscription>,
    pub(crate) file_interests: Vec<Name>,
    pub(crate) required_functions: Vec<Name>,
}

impl ServiceDescriptor {
    /// Starts building a descriptor for a service called `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not a valid [`Name`] literal.
    pub fn builder(name: &str) -> ServiceDescriptorBuilder {
        ServiceDescriptorBuilder {
            inner: ServiceDescriptor {
                name: Name::new(name).expect("service name must be a valid name literal"),
                provides: Vec::new(),
                var_subscriptions: Vec::new(),
                event_subscriptions: Vec::new(),
                file_interests: Vec::new(),
                required_functions: Vec::new(),
            },
        }
    }

    /// Service name.
    pub fn name(&self) -> &Name {
        &self.name
    }

    /// Declared provisions.
    pub fn provides(&self) -> &[Provision] {
        &self.provides
    }

    /// Declared variable subscriptions.
    pub fn var_subscriptions(&self) -> &[VarSubscription] {
        &self.var_subscriptions
    }

    /// Declared event subscriptions.
    pub fn event_subscriptions(&self) -> &[EventSubscription] {
        &self.event_subscriptions
    }

    /// Declared file interests.
    pub fn file_interests(&self) -> &[Name] {
        &self.file_interests
    }

    /// Functions this service needs available before it can do its job.
    pub fn required_functions(&self) -> &[Name] {
        &self.required_functions
    }

    pub(crate) fn find_provision(&self, name: &str) -> Option<&Provision> {
        self.provides.iter().find(|p| p.name() == name)
    }
}

/// Builder for [`ServiceDescriptor`].
///
/// Declarations are **typed**: a port ([`VarPort`]/[`EventPort`]/
/// [`FnPort`]) derives the wire schema from a Rust type, the service
/// stores it and passes it both to the `provides_*` / `subscribe_to_*` /
/// [`requires_fn`](Self::requires_fn) methods here and later to the typed
/// [`ServiceContext`] methods. A port shared through a vocabulary module is
/// one constructor used by producer and consumers alike. Every variable and
/// event declaration takes its QoS contract as a typed profile
/// ([`VarQos`] / [`EventQos`]); `Default` profiles reproduce the
/// historical behaviour.
///
/// # Panics
///
/// All builder methods panic on invalid name literals *and* on invalid
/// QoS profiles (see [`QosError`](crate::QosError)) — descriptors are
/// static declarations and a bad contract is a programming error caught
/// at service registration, not a runtime condition.
#[derive(Debug, Clone)]
pub struct ServiceDescriptorBuilder {
    inner: ServiceDescriptor,
}

impl ServiceDescriptorBuilder {
    fn name(s: &str) -> Name {
        Name::new(s).expect("name must be a valid name literal")
    }

    fn checked_var_qos(name: &Name, qos: VarQos) -> VarQos {
        if let Err(e) = qos.validate() {
            panic!("invalid VarQos for `{name}`: {e}");
        }
        qos
    }

    fn checked_event_qos(name: &Name, qos: EventQos) -> EventQos {
        if let Err(e) = qos.validate() {
            panic!("invalid EventQos for `{name}`: {e}");
        }
        qos
    }

    // ---- typed declarations ---------------------------------------------

    /// Declares a published variable through a port; `qos.period` and
    /// `qos.validity` are announced on the wire.
    ///
    /// ```
    /// # use marea_core::{ServiceDescriptor, VarPort, VarQos};
    /// # use marea_protocol::ProtoDuration;
    /// let count = VarPort::<u64>::new("beacon/count");
    /// let descriptor = ServiceDescriptor::builder("beacon")
    ///     .provides_var(
    ///         &count,
    ///         VarQos::periodic(ProtoDuration::from_millis(10), ProtoDuration::from_millis(100)),
    ///     )
    ///     .build();
    /// # assert_eq!(count.name(), "beacon/count");
    /// # assert_eq!(descriptor.provides().len(), 1);
    /// ```
    pub fn provides_var<T: ValueCodec>(&mut self, port: &VarPort<T>, qos: VarQos) -> &mut Self {
        let qos = Self::checked_var_qos(port.name(), qos);
        self.inner.provides.push(Provision::Variable {
            name: port.name().clone(),
            ty: port.data_type(),
            period_us: qos.period.as_micros(),
            validity_us: qos.validity.as_micros(),
        });
        self
    }

    /// Declares a published event channel through a port: payload `P`,
    /// `()` for bare channels, `Option<T>` for optional payloads.
    pub fn provides_event<P: EventPayload>(&mut self, port: &EventPort<P>) -> &mut Self {
        self.inner
            .provides
            .push(Provision::Event { name: port.name().clone(), ty: port.payload_type() });
        self
    }

    /// Declares a callable function through a port: the signature derives
    /// from the argument tuple `A` and the return type `R`.
    pub fn provides_fn<A: ArgsCodec, R: FnRet>(&mut self, port: &FnPort<A, R>) -> &mut Self {
        self.inner
            .provides
            .push(Provision::Function { name: port.name().clone(), sig: port.signature() });
        self
    }

    /// Subscribes to the variable behind a typed port under the
    /// subscriber-side contract of `qos` (`deadline_periods`, `history`,
    /// `need_initial`); incoming samples are decoded with
    /// [`VarPort::decode`].
    pub fn subscribe_to_var<T: ValueCodec>(&mut self, port: &VarPort<T>, qos: VarQos) -> &mut Self {
        let qos = Self::checked_var_qos(port.name(), qos);
        self.inner.var_subscriptions.push(VarSubscription { name: port.name().clone(), qos });
        self
    }

    /// Subscribes to the event channel behind a typed port under the
    /// contract of `qos` (priority lane, inbox bound, drop policy).
    pub fn subscribe_to_event<P: EventPayload>(
        &mut self,
        port: &EventPort<P>,
        qos: EventQos,
    ) -> &mut Self {
        let qos = Self::checked_event_qos(port.name(), qos);
        self.inner.event_subscriptions.push(EventSubscription { name: port.name().clone(), qos });
        self
    }

    /// Declares that the service needs the function behind a typed port
    /// callable somewhere in the network.
    pub fn requires_fn<A: ArgsCodec, R: FnRet>(&mut self, port: &FnPort<A, R>) -> &mut Self {
        self.inner.required_functions.push(port.name().clone());
        self
    }

    // ---- untyped declarations (no schema involved) ----------------------

    /// Declares a distributable file resource.
    pub fn file_resource(&mut self, name: &str) -> &mut Self {
        self.inner.provides.push(Provision::FileResource { name: Self::name(name) });
        self
    }

    /// Subscribes to a variable by name under the contract of `qos`
    /// (schema checked at runtime only; prefer
    /// [`subscribe_to_var`](Self::subscribe_to_var)).
    pub fn subscribe_variable(&mut self, name: &str, qos: VarQos) -> &mut Self {
        let name = Self::name(name);
        let qos = Self::checked_var_qos(&name, qos);
        self.inner.var_subscriptions.push(VarSubscription { name, qos });
        self
    }

    /// Subscribes to an event channel by name under the contract of `qos`
    /// (prefer [`subscribe_to_event`](Self::subscribe_to_event)).
    pub fn subscribe_event(&mut self, name: &str, qos: EventQos) -> &mut Self {
        let name = Self::name(name);
        let qos = Self::checked_event_qos(&name, qos);
        self.inner.event_subscriptions.push(EventSubscription { name, qos });
        self
    }

    /// Registers interest in a file resource.
    pub fn subscribe_file(&mut self, name: &str) -> &mut Self {
        self.inner.file_interests.push(Self::name(name));
        self
    }

    /// Declares that the service needs `name` callable somewhere in the
    /// network (prefer [`requires_fn`](Self::requires_fn)).
    pub fn requires_function(&mut self, name: &str) -> &mut Self {
        self.inner.required_functions.push(Self::name(name));
        self
    }

    /// Finishes the descriptor.
    pub fn build(&self) -> ServiceDescriptor {
        self.inner.clone()
    }
}

/// Effects queued by a [`ServiceContext`]; applied by the container after
/// the handler returns.
#[derive(Debug)]
pub(crate) enum Effect {
    Publish { name: Name, value: Value },
    Emit { name: Name, value: Option<Value> },
    Call { handle: CallHandle, function: Name, args: Vec<Value>, options: CallOptions },
    PublishFile { resource: Name, data: Bytes },
    SubscribeFile { resource: Name },
    SetTimer { id: TimerId, after: ProtoDuration, period: Option<ProtoDuration> },
    CancelTimer { id: TimerId },
    Log { line: String },
    SetDegraded { degraded: bool },
    StopSelf,
}

/// The API a service uses from inside its handlers.
///
/// All methods queue work; nothing crosses the network until the handler
/// returns. Methods referencing provisions the service did not declare are
/// reported via the container log and dropped (defensive: a service cannot
/// impersonate another's publications).
#[derive(Debug)]
pub struct ServiceContext<'a> {
    pub(crate) now: Micros,
    pub(crate) node: NodeId,
    pub(crate) service_name: &'a Name,
    pub(crate) service_seq: u32,
    pub(crate) effects: &'a mut Vec<Effect>,
    pub(crate) next_request_id: &'a mut u64,
    pub(crate) next_timer_id: &'a mut u64,
    /// Subscribed-variable state, for [`history`](Self::history) reads
    /// (`None` in contexts built outside a container tick).
    pub(crate) var_state: Option<&'a VarEngine>,
}

impl<'a> ServiceContext<'a> {
    /// Current time.
    pub fn now(&self) -> Micros {
        self.now
    }

    /// The node hosting this service.
    pub fn local_node(&self) -> NodeId {
        self.node
    }

    /// This service's name.
    pub fn service_name(&self) -> &Name {
        self.service_name
    }

    /// This service's instance sequence on the node.
    pub fn service_seq(&self) -> u32 {
        self.service_seq
    }

    /// Publishes a sample through a typed port (best-effort, §4.1).
    ///
    /// The value's conformance to the declared schema is guaranteed by the
    /// port's type — a mismatch is a compile error, not a runtime drop.
    pub fn publish_to<T: ValueCodec>(&mut self, port: &VarPort<T>, value: T) {
        self.effects.push(Effect::Publish { name: port.name().clone(), value: value.into_value() });
    }

    /// Emits an event through a typed port (reliable, §4.2).
    ///
    /// Bare channels take `()`; optional payloads take an `Option`.
    pub fn emit_to<P: EventPayload>(&mut self, port: &EventPort<P>, payload: P) {
        self.effects
            .push(Effect::Emit { name: port.name().clone(), value: payload.into_payload() });
    }

    /// The retained samples of a subscribed variable, oldest first, as
    /// deep as the subscription's declared
    /// [`VarQos::history`](crate::VarQos::history).
    ///
    /// Samples that do not decode as `T` are skipped (impossible when the
    /// subscription itself was declared through `port`). Outside a
    /// container — or for a variable this service never subscribed to —
    /// the history is empty.
    pub fn history<T: ValueCodec>(&self, port: &VarPort<T>) -> Vec<(Micros, T)> {
        self.var_state
            .into_iter()
            .flat_map(|vars| vars.history(port.name()))
            .filter_map(|(stamp, v)| port.decode(v).ok().map(|x| (stamp, x)))
            .collect()
    }

    /// Starts a remote invocation through a typed port under the default
    /// [`CallOptions`] (container deadline/retry defaults, dynamic
    /// provider selection); the outcome arrives via [`Service::on_reply`]
    /// and is decoded with [`TypedCallHandle::decode`].
    pub fn call_fn<A: ArgsCodec, R: FnRet>(
        &mut self,
        port: &FnPort<A, R>,
        args: A,
    ) -> TypedCallHandle<R> {
        self.call_fn_with(port, args, CallOptions::default())
    }

    /// [`call_fn`](Self::call_fn) under an explicit caller contract:
    /// per-attempt deadline, retry budget and provider policy travel with
    /// the call and override the container defaults.
    ///
    /// # Panics
    ///
    /// Panics on an invalid [`CallOptions`] profile (zero deadline or
    /// zero retry budget) — the contract is part of the program, not a
    /// runtime input.
    pub fn call_fn_with<A: ArgsCodec, R: FnRet>(
        &mut self,
        port: &FnPort<A, R>,
        args: A,
        options: CallOptions,
    ) -> TypedCallHandle<R> {
        if let Err(e) = options.validate() {
            panic!("invalid CallOptions for `{}`: {e}", port.name());
        }
        *self.next_request_id += 1;
        let handle = CallHandle(RequestId(*self.next_request_id));
        self.effects.push(Effect::Call {
            handle,
            function: port.name().clone(),
            args: args.into_args(),
            options,
        });
        TypedCallHandle::new(handle)
    }

    /// Publishes (or revises) a declared file resource to all interested
    /// nodes (§4.4). Repeated publication bumps the revision.
    pub fn publish_file(&mut self, resource: &str, data: Bytes) {
        if let Ok(resource) = Name::new(resource) {
            self.effects.push(Effect::PublishFile { resource, data });
        }
    }

    /// Registers interest in a file resource at runtime (in addition to any
    /// descriptor-declared interests).
    pub fn subscribe_file(&mut self, resource: &str) {
        if let Ok(resource) = Name::new(resource) {
            self.effects.push(Effect::SubscribeFile { resource });
        }
    }

    /// Arms a timer; fires [`Service::on_timer`] once after `after`, then
    /// every `period` if given.
    pub fn set_timer(&mut self, after: ProtoDuration, period: Option<ProtoDuration>) -> TimerId {
        *self.next_timer_id += 1;
        let id = TimerId(*self.next_timer_id);
        self.effects.push(Effect::SetTimer { id, after, period });
        id
    }

    /// Cancels a timer.
    pub fn cancel_timer(&mut self, id: TimerId) {
        self.effects.push(Effect::CancelTimer { id });
    }

    /// Appends a line to the container log (bounded ring; ground-station
    /// style services read it).
    pub fn log(&mut self, line: impl Into<String>) {
        self.effects.push(Effect::Log { line: line.into() });
    }

    /// Marks this service degraded (broadcast to the fleet) or healthy.
    pub fn set_degraded(&mut self, degraded: bool) {
        self.effects.push(Effect::SetDegraded { degraded });
    }

    /// Asks the container to stop this service after the current handler.
    pub fn stop_self(&mut self) {
        self.effects.push(Effect::StopSelf);
    }
}

/// A MAREA service: the unit of composition of the whole architecture.
///
/// All handlers default to no-ops so implementations override only what
/// they use. Handlers run on the container's scheduler — keep them short;
/// long work should be split across timers.
#[allow(unused_variables)]
pub trait Service: Send {
    /// Static declaration of provisions and subscriptions.
    fn descriptor(&self) -> ServiceDescriptor;

    /// Called once when the container starts the service.
    fn on_start(&mut self, ctx: &mut ServiceContext<'_>) {}

    /// Called once when the service stops.
    fn on_stop(&mut self, ctx: &mut ServiceContext<'_>) {}

    /// A subscribed variable sample arrived (already validity-filtered).
    fn on_variable(
        &mut self,
        ctx: &mut ServiceContext<'_>,
        name: &Name,
        value: &Value,
        stamp: Micros,
    ) {
    }

    /// A subscribed variable stopped arriving within its declared loss
    /// deadline ([`VarQos::deadline_periods`](crate::VarQos)).
    fn on_variable_timeout(&mut self, ctx: &mut ServiceContext<'_>, name: &Name) {}

    /// A subscribed event arrived (guaranteed delivery, in order per
    /// publisher).
    fn on_event(
        &mut self,
        ctx: &mut ServiceContext<'_>,
        name: &Name,
        value: Option<&Value>,
        stamp: Micros,
    ) {
    }

    /// A declared function is being invoked.
    ///
    /// # Errors
    ///
    /// Returning `Err` delivers [`CallError::App`] to the caller.
    fn on_call(
        &mut self,
        ctx: &mut ServiceContext<'_>,
        function: &Name,
        args: &[Value],
    ) -> Result<Value, String> {
        Err(format!("function `{function}` not implemented"))
    }

    /// The outcome of an earlier [`ServiceContext::call_fn`] arrived.
    fn on_reply(
        &mut self,
        ctx: &mut ServiceContext<'_>,
        handle: CallHandle,
        result: Result<Value, CallError>,
    ) {
    }

    /// A file-transfer notification arrived.
    fn on_file_event(&mut self, ctx: &mut ServiceContext<'_>, event: &FileEvent) {}

    /// A provider-availability notification arrived.
    fn on_provider_change(&mut self, ctx: &mut ServiceContext<'_>, notice: &ProviderNotice) {}

    /// A timer armed with [`ServiceContext::set_timer`] fired.
    fn on_timer(&mut self, ctx: &mut ServiceContext<'_>, id: TimerId) {}
}

impl fmt::Debug for dyn Service {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Service({})", self.descriptor().name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qos::DropPolicy;
    use marea_presentation::DataType;

    fn test_ctx<'a>(
        effects: &'a mut Vec<Effect>,
        req: &'a mut u64,
        tim: &'a mut u64,
        name: &'a Name,
    ) -> ServiceContext<'a> {
        ServiceContext {
            now: Micros(5),
            node: NodeId(1),
            service_name: name,
            service_seq: 3,
            effects,
            next_request_id: req,
            next_timer_id: tim,
            var_state: None,
        }
    }

    #[test]
    fn descriptor_builder_collects_declarations() {
        let status = VarPort::<u8>::new("camera/status");
        let taken = EventPort::<u32>::new("camera/photo-taken");
        let prepare = FnPort::<(String,), bool>::new("camera/prepare");
        let mut b = ServiceDescriptor::builder("camera");
        b.provides_var(
            &status,
            VarQos::periodic(ProtoDuration::from_millis(100), ProtoDuration::from_millis(500)),
        )
        .provides_event(&taken)
        .provides_fn(&prepare)
        .file_resource("camera/image")
        .subscribe_variable("gps/position", VarQos::default().with_initial())
        .subscribe_event("mc/photo-now", EventQos::default())
        .subscribe_file("mc/flight-plan")
        .requires_function("storage/store");
        let d = b.build();
        assert_eq!(d.name(), "camera");
        assert_eq!(d.provides().len(), 4);
        assert_eq!(d.var_subscriptions().len(), 1);
        assert!(d.var_subscriptions()[0].qos.need_initial);
        assert_eq!(d.event_subscriptions().len(), 1);
        assert_eq!(d.event_subscriptions()[0].name, "mc/photo-now");
        assert_eq!(d.file_interests().len(), 1);
        assert_eq!(d.required_functions().len(), 1);
        assert!(d.find_provision("camera/prepare").is_some());
        assert!(d.find_provision("nope").is_none());
        // Ports carry the declared schemas.
        assert_eq!(status.data_type(), DataType::U8);
        assert_eq!(taken.payload_type(), Some(DataType::U32));
        let sig = prepare.signature();
        assert_eq!(sig.params, vec![DataType::Str]);
        assert_eq!(sig.returns, Some(DataType::Bool));
        match d.find_provision("camera/status") {
            Some(Provision::Variable { ty, .. }) => assert_eq!(ty, &DataType::U8),
            other => panic!("unexpected provision {other:?}"),
        }
    }

    #[test]
    fn shared_ports_wire_both_sides() {
        let position = VarPort::<f64>::new("gps/position");
        let alert = EventPort::<u32>::new("mc/alert");
        let store = FnPort::<(String, Vec<u8>), bool>::new("storage/store");
        let mut b = ServiceDescriptor::builder("consumer");
        b.subscribe_to_var(&position, VarQos::default().with_initial().with_history(4))
            .subscribe_to_event(&alert, EventQos::bulk().with_queue_bound(16))
            .requires_fn(&store);
        let d = b.build();
        assert_eq!(d.var_subscriptions()[0].name, "gps/position");
        assert_eq!(d.var_subscriptions()[0].qos.history, 4);
        assert_eq!(d.event_subscriptions()[0].name, "mc/alert");
        assert_eq!(d.event_subscriptions()[0].qos.queue_bound, 16);
        assert_eq!(d.event_subscriptions()[0].qos.drop_policy, DropPolicy::DropOldest);
        assert_eq!(d.required_functions()[0], "storage/store");

        let mut p = ServiceDescriptor::builder("producer");
        p.provides_var(
            &position,
            VarQos::periodic(ProtoDuration::from_millis(50), ProtoDuration::from_millis(200)),
        )
        .provides_event(&alert)
        .provides_fn(&store);
        assert_eq!(p.build().provides().len(), 3);
    }

    #[test]
    #[should_panic(expected = "invalid VarQos")]
    fn builder_rejects_zero_validity() {
        let mut b = ServiceDescriptor::builder("bad");
        let v = VarPort::<u64>::new("bad/v");
        b.provides_var(&v, VarQos::default().with_validity(ProtoDuration::ZERO));
    }

    #[test]
    #[should_panic(expected = "invalid EventQos")]
    fn builder_rejects_zero_queue_bound() {
        let mut b = ServiceDescriptor::builder("bad");
        let e = EventPort::<u32>::new("bad/e");
        b.subscribe_to_event(&e, EventQos::default().with_queue_bound(0));
    }

    #[test]
    fn context_queues_effects() {
        let name = Name::new("svc").unwrap();
        let mut effects = Vec::new();
        let mut req = 0u64;
        let mut tim = 0u64;
        let mut ctx = test_ctx(&mut effects, &mut req, &mut tim, &name);
        assert_eq!(ctx.now(), Micros(5));
        assert_eq!(ctx.local_node(), NodeId(1));
        assert_eq!(ctx.service_seq(), 3);
        assert_eq!(ctx.service_name(), "svc");
        ctx.publish_file("r", Bytes::from_static(b"x"));
        ctx.subscribe_file("r");
        let t = ctx.set_timer(ProtoDuration::from_millis(10), None);
        ctx.cancel_timer(t);
        ctx.log("hello");
        ctx.set_degraded(true);
        ctx.stop_self();
        assert_eq!(effects.len(), 7);
    }

    #[test]
    fn typed_context_methods_queue_typed_effects() {
        let name = Name::new("svc").unwrap();
        let mut effects = Vec::new();
        let mut req = 0u64;
        let mut tim = 0u64;
        let mut ctx = test_ctx(&mut effects, &mut req, &mut tim, &name);
        let var = VarPort::<u64>::new("v");
        let bare = EventPort::<()>::new("e");
        let payload = EventPort::<u32>::new("p");
        let func = FnPort::<(String, u32), bool>::new("f");
        ctx.publish_to(&var, 9);
        ctx.emit_to(&bare, ());
        ctx.emit_to(&payload, 7);
        let handle = ctx.call_fn(&func, ("x".to_owned(), 1));
        assert_eq!(handle.handle().0, RequestId(1));
        let handle2 = ctx.call_fn_with(
            &func,
            ("y".to_owned(), 2),
            CallOptions::default()
                .with_deadline(ProtoDuration::from_millis(50))
                .with_retry_budget(1),
        );
        assert_eq!(handle2.handle().0, RequestId(2));

        match &effects[0] {
            Effect::Publish { name, value } => {
                assert_eq!(name, "v");
                assert_eq!(value, &Value::U64(9));
            }
            other => panic!("unexpected effect {other:?}"),
        }
        match &effects[1] {
            Effect::Emit { value, .. } => assert_eq!(value, &None),
            other => panic!("unexpected effect {other:?}"),
        }
        match &effects[2] {
            Effect::Emit { value, .. } => assert_eq!(value, &Some(Value::U32(7))),
            other => panic!("unexpected effect {other:?}"),
        }
        match &effects[3] {
            Effect::Call { function, args, options, .. } => {
                assert_eq!(function, "f");
                assert_eq!(args, &vec![Value::Str("x".into()), Value::U32(1)]);
                assert_eq!(options, &CallOptions::default());
            }
            other => panic!("unexpected effect {other:?}"),
        }
        match &effects[4] {
            Effect::Call { options, .. } => {
                assert_eq!(options.deadline, Some(ProtoDuration::from_millis(50)));
                assert_eq!(options.retry_budget, Some(1));
            }
            other => panic!("unexpected effect {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "invalid CallOptions")]
    fn call_fn_with_rejects_zero_retry_budget() {
        let name = Name::new("svc").unwrap();
        let mut effects = Vec::new();
        let mut req = 0u64;
        let mut tim = 0u64;
        let mut ctx = test_ctx(&mut effects, &mut req, &mut tim, &name);
        let func = FnPort::<(), bool>::new("f");
        ctx.call_fn_with(&func, (), CallOptions::default().with_retry_budget(0));
    }

    #[test]
    fn history_is_empty_outside_a_container() {
        let name = Name::new("svc").unwrap();
        let mut effects = Vec::new();
        let mut req = 0u64;
        let mut tim = 0u64;
        let ctx = test_ctx(&mut effects, &mut req, &mut tim, &name);
        let var = VarPort::<u64>::new("v");
        assert!(ctx.history(&var).is_empty());
    }

    #[test]
    fn default_on_call_errors() {
        struct Nop;
        impl Service for Nop {
            fn descriptor(&self) -> ServiceDescriptor {
                ServiceDescriptor::builder("nop").build()
            }
        }
        let mut n = Nop;
        let name = Name::new("nop").unwrap();
        let f = Name::new("f").unwrap();
        let mut effects = Vec::new();
        let (mut a, mut b) = (0u64, 0u64);
        let mut ctx = test_ctx(&mut effects, &mut a, &mut b, &name);
        assert!(n.on_call(&mut ctx, &f, &[]).is_err());
    }
}
