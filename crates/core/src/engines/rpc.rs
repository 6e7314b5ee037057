//! Remote invocation bookkeeping and argument marshalling (paper §4.3).

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use bytes::{Bytes, BytesMut};

use marea_encoding::{Codec, WireReader, WireWriter};
use marea_presentation::{Name, Value};
use marea_protocol::messages::FunctionSig;
use marea_protocol::{Micros, ProtoDuration, RequestId, ServiceId};

use crate::error::CallError;
use crate::service::CallPolicy;
use crate::trace::TraceId;

/// A function a local service exposes.
#[derive(Debug)]
pub(crate) struct LocalFunction {
    /// Owning local service.
    pub owner_seq: u32,
    /// Declared signature.
    pub sig: FunctionSig,
}

/// An in-flight outgoing call, carrying its resolved
/// [`CallOptions`](crate::CallOptions) contract.
#[derive(Debug)]
pub(crate) struct PendingCall {
    /// Local service awaiting the reply.
    pub caller_seq: u32,
    /// Function name (for failover re-resolution).
    pub function: Name,
    /// Decoded arguments, kept so a failover can re-marshal.
    pub args: Vec<Value>,
    /// Current target instance.
    pub target: ServiceId,
    /// Expected return type (from the provider's signature).
    pub returns: Option<marea_presentation::DataType>,
    /// Reply deadline of the current attempt.
    pub deadline: Micros,
    /// Per-attempt reply deadline from the caller's contract (container
    /// default when the caller did not override it).
    pub attempt_timeout: ProtoDuration,
    /// Providers tried so far (including current).
    pub attempts: u32,
    /// Total providers the caller's retry budget allows.
    pub max_attempts: u32,
    /// Provider selection policy.
    pub policy: CallPolicy,
    /// When the first attempt was dispatched (feeds the call-RTT
    /// histogram when the reply lands).
    pub started_at: Micros,
    /// Causal id minted at issue time, echoed by the provider's reply.
    pub trace: TraceId,
}

/// A required-function watch (paper §4.3: checked at initialization,
/// re-checked as the directory changes).
#[derive(Debug, Default)]
pub(crate) struct RequiredFn {
    /// Local services that declared the requirement.
    pub services: Vec<u32>,
    /// Whether a provider is currently known.
    pub available: bool,
    /// A first resolution check has been performed.
    pub checked: bool,
}

/// All invocation state of one container.
#[derive(Debug, Default)]
pub(crate) struct RpcEngine {
    pub functions: HashMap<Name, LocalFunction>,
    pub pending: HashMap<RequestId, PendingCall>,
    pub required: HashMap<Name, RequiredFn>,
    /// Marshalling failures against declared signatures (see
    /// [`TypeMismatchStats::calls`](crate::stats::TypeMismatchStats)).
    pub type_mismatches: u64,
    /// Transparent re-dispatches performed, total (feeds
    /// [`QosStats::retries`](crate::QosStats::retries)).
    pub retries: u64,
    /// Re-dispatches per function name (the per-subscription breakdown
    /// behind [`ServiceContainer::fn_retries`](crate::ServiceContainer::fn_retries)).
    pub retry_counts: HashMap<Name, u64>,
    /// Due-date heap over `(deadline, request)`: the per-tick timeout
    /// sweep peeks the earliest entry instead of walking every pending
    /// call. Entries go stale when a failover re-arms the call with a
    /// later deadline; the sweep re-checks against `pending` on pop.
    deadline_heap: BinaryHeap<Reverse<(Micros, RequestId)>>,
}

impl RpcEngine {
    /// Counts one transparent re-dispatch of `function`.
    pub fn count_retry(&mut self, function: &Name) {
        self.retries += 1;
        *self.retry_counts.entry(function.clone()).or_default() += 1;
    }

    /// Registers (or, after a failover, re-registers) a pending call and
    /// queues its reply deadline on the due-date heap.
    pub fn track(&mut self, id: RequestId, call: PendingCall) {
        self.deadline_heap.push(Reverse((call.deadline, id)));
        self.pending.insert(id, call);
    }

    /// The earliest instant at which [`expired`](Self::expired) can have
    /// work: the head of the due-date heap (possibly stale, hence early —
    /// never late).
    pub fn next_deadline(&self) -> Option<Micros> {
        self.deadline_heap.peek().map(|&Reverse((deadline, _))| deadline)
    }

    /// Pending calls whose deadline has passed at `now`.
    pub fn expired(&mut self, now: Micros) -> Vec<RequestId> {
        let mut out: Vec<RequestId> = Vec::new();
        while let Some(&Reverse((deadline, id))) = self.deadline_heap.peek() {
            if deadline > now {
                break;
            }
            self.deadline_heap.pop();
            match self.pending.get(&id) {
                Some(call) if call.deadline > now => {
                    // Re-dispatched since this entry was queued: re-arm at
                    // the fresher deadline.
                    self.deadline_heap.push(Reverse((call.deadline, id)));
                }
                Some(_) => out.push(id),
                None => {} // reply landed (or call failed) while queued
            }
        }
        out.sort();
        out.dedup();
        out
    }

    /// Pending calls currently targeting `node` (for immediate failover on
    /// node death).
    pub fn targeting_node(&self, node: marea_protocol::NodeId) -> Vec<RequestId> {
        let mut v: Vec<RequestId> =
            self.pending.iter().filter(|(_, c)| c.target.node == node).map(|(id, _)| *id).collect();
        v.sort();
        v
    }
}

/// Marshals a call argument list against a signature.
///
/// Each argument is encoded with `codec` against its declared parameter
/// type and length-prefixed, so the callee can re-slice without knowing
/// value sizes.
pub(crate) fn encode_args(
    args: &[Value],
    sig: &FunctionSig,
    codec: &dyn Codec,
) -> Result<Bytes, CallError> {
    if args.len() != sig.params.len() {
        return Err(CallError::BadArguments(format!(
            "expected {} arguments, got {}",
            sig.params.len(),
            args.len()
        )));
    }
    let mut buf = BytesMut::new();
    for (arg, ty) in args.iter().zip(&sig.params) {
        let encoded =
            codec.encode_to_vec(arg, ty).map_err(|e| CallError::BadArguments(e.to_string()))?;
        let mut w = WireWriter::new(&mut buf);
        w.put_len_prefixed(&encoded);
    }
    Ok(buf.freeze())
}

/// Inverse of [`encode_args`].
pub(crate) fn decode_args(
    payload: &[u8],
    sig: &FunctionSig,
    codec: &dyn Codec,
) -> Result<Vec<Value>, CallError> {
    let mut r = WireReader::new(payload);
    let mut args = Vec::with_capacity(sig.params.len());
    for ty in &sig.params {
        let bytes = r
            .get_len_prefixed(crate::container::MAX_ARG_BYTES)
            .map_err(|e| CallError::BadArguments(e.to_string()))?;
        let v = codec.decode(bytes, ty).map_err(|e| CallError::BadArguments(e.to_string()))?;
        args.push(v);
    }
    if !r.is_empty() {
        return Err(CallError::BadArguments("trailing bytes after arguments".into()));
    }
    Ok(args)
}

/// Marshals a return value (`None` return type ⇒ empty payload).
pub(crate) fn encode_result(
    value: &Value,
    returns: &Option<marea_presentation::DataType>,
    codec: &dyn Codec,
) -> Result<Bytes, CallError> {
    match returns {
        None => Ok(Bytes::new()),
        Some(ty) => codec
            .encode_to_vec(value, ty)
            .map(Bytes::from)
            .map_err(|e| CallError::BadArguments(e.to_string())),
    }
}

/// Inverse of [`encode_result`]; void functions yield `Value::Bool(true)`.
pub(crate) fn decode_result(
    payload: &[u8],
    returns: &Option<marea_presentation::DataType>,
    codec: &dyn Codec,
) -> Result<Value, CallError> {
    match returns {
        None => Ok(Value::Bool(true)),
        Some(ty) => codec.decode(payload, ty).map_err(|e| CallError::BadArguments(e.to_string())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use marea_encoding::CompactCodec;
    use marea_presentation::DataType;
    use marea_protocol::NodeId;

    fn sig() -> FunctionSig {
        FunctionSig { params: vec![DataType::Str, DataType::U32], returns: Some(DataType::Bool) }
    }

    #[test]
    fn args_roundtrip() {
        let args = vec![Value::Str("photo-01".into()), Value::U32(3)];
        let bytes = encode_args(&args, &sig(), &CompactCodec).unwrap();
        let back = decode_args(&bytes, &sig(), &CompactCodec).unwrap();
        assert_eq!(back, args);
    }

    #[test]
    fn arity_checked() {
        let err = encode_args(&[Value::U32(1)], &sig(), &CompactCodec).unwrap_err();
        assert!(matches!(err, CallError::BadArguments(_)));
    }

    #[test]
    fn type_checked() {
        let err =
            encode_args(&[Value::Bool(true), Value::U32(1)], &sig(), &CompactCodec).unwrap_err();
        assert!(matches!(err, CallError::BadArguments(_)));
    }

    #[test]
    fn result_roundtrip_and_void() {
        let bytes =
            encode_result(&Value::Bool(true), &Some(DataType::Bool), &CompactCodec).unwrap();
        assert_eq!(
            decode_result(&bytes, &Some(DataType::Bool), &CompactCodec).unwrap(),
            Value::Bool(true)
        );
        let empty = encode_result(&Value::Bool(false), &None, &CompactCodec).unwrap();
        assert!(empty.is_empty());
        assert_eq!(decode_result(&empty, &None, &CompactCodec).unwrap(), Value::Bool(true));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let args = vec![Value::Str("x".into()), Value::U32(1)];
        let mut bytes = encode_args(&args, &sig(), &CompactCodec).unwrap().to_vec();
        bytes.push(7);
        assert!(decode_args(&bytes, &sig(), &CompactCodec).is_err());
    }

    #[test]
    fn engine_expiry_and_targeting() {
        let mut e = RpcEngine::default();
        e.track(
            RequestId(1),
            PendingCall {
                caller_seq: 0,
                function: Name::new("f").unwrap(),
                args: vec![],
                target: ServiceId::new(NodeId(2), 1),
                returns: None,
                deadline: Micros(100),
                attempt_timeout: ProtoDuration::from_millis(100),
                attempts: 1,
                max_attempts: 3,
                policy: CallPolicy::Dynamic,
                started_at: Micros::ZERO,
                trace: TraceId::NONE,
            },
        );
        e.track(
            RequestId(2),
            PendingCall {
                caller_seq: 0,
                function: Name::new("g").unwrap(),
                args: vec![],
                target: ServiceId::new(NodeId(3), 1),
                returns: None,
                deadline: Micros(500),
                attempt_timeout: ProtoDuration::from_millis(500),
                attempts: 1,
                max_attempts: 3,
                policy: CallPolicy::Dynamic,
                started_at: Micros::ZERO,
                trace: TraceId::NONE,
            },
        );
        assert_eq!(e.expired(Micros(200)), vec![RequestId(1)]);
        assert_eq!(e.targeting_node(NodeId(3)), vec![RequestId(2)]);
        // A failover re-tracks the call with a later deadline: the stale
        // heap entry must not expire it early.
        let mut call = e.pending.remove(&RequestId(2)).unwrap();
        call.deadline = Micros(900);
        e.track(RequestId(2), call);
        assert!(e.expired(Micros(600)).is_empty(), "stale entry re-arms, no early expiry");
        assert_eq!(e.expired(Micros(1000)), vec![RequestId(2)]);
    }
}
