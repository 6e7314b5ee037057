//! Typed service ports: compile-time-checked handles to declared
//! provisions and subscriptions.
//!
//! The paper's container promises that services interact only through a
//! validated API surface (§3). Ports make that validation a
//! *compile-time* check: a port is created from (or together with) the
//! descriptor declaration, carries the provision's [`Name`] and its Rust
//! payload type, and is the only thing the [`ServiceContext`] methods
//! accept. A service holding a `VarPort<u64>` cannot publish an `f64` —
//! the program does not compile. (Two ports of the same name built with
//! different types can still disagree; the container's runtime schema
//! check catches that and counts it in
//! [`ContainerStats::type_mismatches`](crate::ContainerStats).)
//!
//! Ports are plain data (name + phantom type): cheap to clone, freely
//! shareable between the producer and consumer sides of a contract (see
//! `marea-services`' `names` module for a shared mission vocabulary built
//! this way).
//!
//! [`ServiceContext`]: crate::ServiceContext

use std::fmt;
use std::marker::PhantomData;

use marea_presentation::{
    ArgsCodec, DataType, EventPayload, FnRet, Name, TypeMismatch, Value, ValueCodec,
};
use marea_protocol::messages::FunctionSig;

use crate::error::CallError;
use crate::service::CallHandle;

fn port_name(name: &str) -> Name {
    Name::new(name).expect("port name must be a valid name literal")
}

/// Typed handle to a published (or subscribed) variable of schema `T`.
pub struct VarPort<T: ValueCodec> {
    name: Name,
    _marker: PhantomData<fn() -> T>,
}

impl<T: ValueCodec> VarPort<T> {
    /// Creates a port for variable `name` with the schema of `T`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not a valid [`Name`] literal — ports are static
    /// declarations.
    pub fn new(name: &str) -> Self {
        VarPort { name: port_name(name), _marker: PhantomData }
    }

    /// The variable name.
    pub fn name(&self) -> &Name {
        &self.name
    }

    /// The declared schema (derived from `T`).
    pub fn data_type(&self) -> DataType {
        T::data_type()
    }

    /// `true` when `name` refers to this port's variable — the typed guard
    /// for [`Service::on_variable`](crate::Service::on_variable).
    pub fn matches(&self, name: &Name) -> bool {
        &self.name == name
    }

    /// Decodes an incoming sample, surfacing a structured
    /// [`TypeMismatch`] instead of silently dropping on disagreement.
    pub fn decode(&self, value: &Value) -> Result<T, TypeMismatch> {
        T::from_value(value)
    }
}

impl<T: ValueCodec> Clone for VarPort<T> {
    fn clone(&self) -> Self {
        VarPort { name: self.name.clone(), _marker: PhantomData }
    }
}

impl<T: ValueCodec> fmt::Debug for VarPort<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "VarPort<{}>({})", std::any::type_name::<T>(), self.name)
    }
}

/// Typed handle to an event channel with payload `P`.
///
/// `P` may be any [`ValueCodec`] type (mandatory payload), `()` (bare
/// channel) or `Option<T>` (optional payload).
pub struct EventPort<P: EventPayload> {
    name: Name,
    _marker: PhantomData<fn() -> P>,
}

impl<P: EventPayload> EventPort<P> {
    /// Creates a port for event channel `name` with the payload schema of
    /// `P`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not a valid [`Name`] literal.
    pub fn new(name: &str) -> Self {
        EventPort { name: port_name(name), _marker: PhantomData }
    }

    /// The channel name.
    pub fn name(&self) -> &Name {
        &self.name
    }

    /// The declared payload schema (`None` = bare channel).
    pub fn payload_type(&self) -> Option<DataType> {
        P::payload_type()
    }

    /// `true` when `name` refers to this port's channel.
    pub fn matches(&self, name: &Name) -> bool {
        &self.name == name
    }

    /// Decodes an incoming payload, surfacing a structured
    /// [`TypeMismatch`] instead of silently dropping on disagreement.
    pub fn decode(&self, value: Option<&Value>) -> Result<P, TypeMismatch> {
        P::from_payload(value)
    }
}

impl<P: EventPayload> Clone for EventPort<P> {
    fn clone(&self) -> Self {
        EventPort { name: self.name.clone(), _marker: PhantomData }
    }
}

impl<P: EventPayload> fmt::Debug for EventPort<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "EventPort<{}>({})", std::any::type_name::<P>(), self.name)
    }
}

/// Typed handle to a remote function taking the argument pack `A` and
/// returning `R`.
///
/// `A` is a tuple of codec types (arity 0–6); `R` is a codec type or `()`
/// for void functions.
pub struct FnPort<A: ArgsCodec, R: FnRet> {
    name: Name,
    _marker: PhantomData<fn(A) -> R>,
}

impl<A: ArgsCodec, R: FnRet> FnPort<A, R> {
    /// Creates a port for function `name` with the signature derived from
    /// `A` and `R`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not a valid [`Name`] literal.
    pub fn new(name: &str) -> Self {
        FnPort { name: port_name(name), _marker: PhantomData }
    }

    /// The function name.
    pub fn name(&self) -> &Name {
        &self.name
    }

    /// The declared wire signature (derived from `A` and `R`).
    pub fn signature(&self) -> FunctionSig {
        FunctionSig { params: A::arg_types(), returns: R::return_type() }
    }

    /// `true` when `name` refers to this port's function — the typed guard
    /// for [`Service::on_call`](crate::Service::on_call).
    pub fn matches(&self, name: &Name) -> bool {
        &self.name == name
    }

    /// Decodes an incoming argument list on the provider side.
    pub fn decode_args(&self, args: &[Value]) -> Result<A, TypeMismatch> {
        A::from_args(args)
    }

    /// Encodes a provider-side return value.
    pub fn encode_ret(&self, ret: R) -> Value {
        ret.into_return()
    }
}

impl<A: ArgsCodec, R: FnRet> Clone for FnPort<A, R> {
    fn clone(&self) -> Self {
        FnPort { name: self.name.clone(), _marker: PhantomData }
    }
}

impl<A: ArgsCodec, R: FnRet> fmt::Debug for FnPort<A, R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "FnPort({})", self.name)
    }
}

/// Correlates a typed [`ServiceContext::call_fn`] with its later
/// [`Service::on_reply`], remembering the expected return type.
///
/// [`ServiceContext::call_fn`]: crate::ServiceContext::call_fn
/// [`Service::on_reply`]: crate::Service::on_reply
pub struct TypedCallHandle<R: FnRet> {
    handle: CallHandle,
    _marker: PhantomData<fn() -> R>,
}

impl<R: FnRet> TypedCallHandle<R> {
    pub(crate) fn new(handle: CallHandle) -> Self {
        TypedCallHandle { handle, _marker: PhantomData }
    }

    /// The underlying untyped handle.
    pub fn handle(&self) -> CallHandle {
        self.handle
    }

    /// `true` when `handle` is the reply correlation for this call.
    pub fn matches(&self, handle: CallHandle) -> bool {
        self.handle == handle
    }

    /// Decodes a reply delivered to
    /// [`Service::on_reply`](crate::Service::on_reply): call failures pass
    /// through, and a reply value that disagrees with the declared return
    /// schema becomes [`CallError::TypeMismatch`] instead of being
    /// silently misread.
    pub fn decode(&self, result: Result<Value, CallError>) -> Result<R, CallError> {
        let value = result?;
        R::from_return(&value).map_err(CallError::TypeMismatch)
    }
}

impl<R: FnRet> Clone for TypedCallHandle<R> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<R: FnRet> Copy for TypedCallHandle<R> {}

impl<R: FnRet> fmt::Debug for TypedCallHandle<R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TypedCallHandle({:?})", self.handle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use marea_presentation::DataType;
    use marea_protocol::RequestId;

    #[test]
    fn var_port_carries_schema() {
        let p = VarPort::<u64>::new("beacon/count");
        assert_eq!(p.name(), "beacon/count");
        assert_eq!(p.data_type(), DataType::U64);
        assert_eq!(p.decode(&Value::U64(9)).unwrap(), 9);
        let err = p.decode(&Value::F64(1.0)).unwrap_err();
        assert_eq!(err.expected(), Some(&DataType::U64));
        let n = Name::new("beacon/count").unwrap();
        assert!(p.matches(&n));
    }

    #[test]
    fn event_port_payload_kinds() {
        let bare = EventPort::<()>::new("gps/fix-lost");
        assert_eq!(bare.payload_type(), None);
        bare.decode(None).unwrap();

        let typed = EventPort::<u32>::new("mc/photo-request");
        assert_eq!(typed.payload_type(), Some(DataType::U32));
        assert_eq!(typed.decode(Some(&Value::U32(2))).unwrap(), 2);
        assert!(typed.decode(None).is_err());

        let optional = EventPort::<Option<u32>>::new("mc/progress");
        assert_eq!(optional.decode(None).unwrap(), None);
    }

    #[test]
    fn fn_port_signature_and_args() {
        let p = FnPort::<(String, u32), bool>::new("camera/prepare");
        let sig = p.signature();
        assert_eq!(sig.params, vec![DataType::Str, DataType::U32]);
        assert_eq!(sig.returns, Some(DataType::Bool));
        let args = vec![Value::Str("m".into()), Value::U32(1)];
        assert_eq!(p.decode_args(&args).unwrap(), ("m".to_owned(), 1));
        assert_eq!(p.encode_ret(true), Value::Bool(true));
    }

    #[test]
    fn typed_handle_decodes_and_flags_mismatch() {
        let h = TypedCallHandle::<bool>::new(CallHandle(RequestId(7)));
        assert!(h.matches(CallHandle(RequestId(7))));
        assert!(!h.matches(CallHandle(RequestId(8))));
        assert!(h.decode(Ok(Value::Bool(true))).unwrap());
        assert!(matches!(h.decode(Err(CallError::Timeout)), Err(CallError::Timeout)));
        assert!(matches!(h.decode(Ok(Value::U8(1))), Err(CallError::TypeMismatch(_))));
    }
}
