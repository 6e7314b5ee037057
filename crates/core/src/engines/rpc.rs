//! Remote invocation bookkeeping and argument marshalling (paper §4.3).

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap};

use bytes::{Bytes, BytesMut};

use marea_encoding::{Codec, CodecId, CodecRegistry, WireReader, WireWriter};
use marea_presentation::{DataType, Name, Value};
use marea_protocol::messages::{CallStatus, FunctionSig, Provision};
use marea_protocol::{Micros, ProtoDuration, RequestId, ServiceId};

use super::encode_payload;
use crate::directory::Directory;
use crate::error::CallError;
use crate::service::{CallPolicy, ServiceDescriptor};
use crate::stats::ContainerStats;
use crate::trace::TraceId;

/// Upper bound for one marshalled call argument.
const MAX_ARG_BYTES: usize = 4 * 1024 * 1024;

/// A function a local service exposes.
#[derive(Debug)]
struct LocalFunction {
    /// Owning local service.
    owner_seq: u32,
    /// Declared signature.
    sig: FunctionSig,
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
    pub returns: Option<DataType>,
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
struct RequiredFn {
    /// Local services that declared the requirement.
    services: Vec<u32>,
    /// Whether a provider is currently known.
    available: bool,
    /// A first resolution check has been performed.
    checked: bool,
}

/// All invocation state of one container.
#[derive(Debug, Default)]
pub(crate) struct RpcEngine {
    functions: HashMap<Name, LocalFunction>,
    pending: HashMap<RequestId, PendingCall>,
    required: BTreeMap<Name, RequiredFn>,
    /// Marshalling failures against declared signatures (see
    /// [`TypeMismatchStats::calls`](crate::stats::TypeMismatchStats)).
    type_mismatches: u64,
    /// Transparent re-dispatches performed, total (feeds
    /// [`QosStats::retries`](crate::QosStats::retries)).
    retries: u64,
    /// Re-dispatches per function name (the per-subscription breakdown
    /// behind [`ServiceContainer::fn_retries`](crate::ServiceContainer::fn_retries)).
    retry_counts: HashMap<Name, u64>,
    /// Due-date heap over `(deadline, request)`: the per-tick timeout
    /// sweep peeks the earliest entry instead of walking every pending
    /// call. Entries go stale when a failover re-arms the call with a
    /// later deadline; the sweep re-checks against `pending` on pop.
    deadline_heap: BinaryHeap<Reverse<(Micros, RequestId)>>,
}

impl RpcEngine {
    /// Takes in the functions `descriptor` provides and requires, on
    /// behalf of local service `seq`.
    pub fn register(&mut self, seq: u32, descriptor: &ServiceDescriptor) {
        for p in descriptor.provides() {
            if let Provision::Function { name, sig } = p {
                self.functions
                    .insert(name.clone(), LocalFunction { owner_seq: seq, sig: sig.clone() });
            }
        }
        for name in descriptor.required_functions() {
            self.required.entry(name.clone()).or_default().services.push(seq);
        }
    }

    /// The [`Name`] held for a local function called `s`.
    pub fn held_name(&self, s: &str) -> Option<Name> {
        self.functions.get_key_value(s).map(|(name, _)| name.clone())
    }

    /// Marshals `args` against the provider's `sig`; a failure (the two
    /// sides' `FnPort`s disagree on argument types) counts as a mismatch.
    pub fn marshal(
        &mut self,
        args: &[Value],
        sig: &FunctionSig,
        codec: &dyn Codec,
    ) -> Result<Bytes, CallError> {
        encode_args(args, sig, codec).inspect_err(|_| self.type_mismatches += 1)
    }

    /// (Re-)registers a pending call and queues its reply deadline.
    pub fn track(&mut self, id: RequestId, call: PendingCall) {
        self.deadline_heap.push(Reverse((call.deadline, id)));
        self.pending.insert(id, call);
    }

    /// Takes a pending call out: its reply landed, or it is about to be
    /// failed over (and [`track`](Self::track)ed again) or failed.
    pub fn take(&mut self, id: RequestId) -> Option<PendingCall> {
        self.pending.remove(&id)
    }

    /// Re-aims `call` at a redundant provider and counts the re-dispatch.
    pub fn redirect(
        &mut self,
        call: &mut PendingCall,
        target: ServiceId,
        returns: Option<DataType>,
        now: Micros,
    ) {
        call.attempts += 1;
        call.target = target;
        call.returns = returns;
        call.deadline = now + call.attempt_timeout;
        self.retries += 1;
        *self.retry_counts.entry(call.function.clone()).or_default() += 1;
    }

    /// The earliest instant [`expired`](Self::expired) can have work: the
    /// heap head (possibly stale, hence early — never late).
    pub fn next_due(&self) -> Option<Micros> {
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

    /// Pending calls whose target satisfies `hit`, in request order: the
    /// ones to fail over at once when a node or service goes away.
    pub fn sorted_targeting(&self, hit: impl Fn(ServiceId) -> bool) -> Vec<RequestId> {
        // marea-lint: allow(D1): ids are collected and sorted before anything is sent
        let hits = self.pending.iter().filter(|(_, c)| hit(c.target));
        let mut ids: Vec<RequestId> = hits.map(|(id, _)| *id).collect();
        ids.sort();
        ids
    }

    /// Provider side of a `CallRequest`: the decoded arguments when local
    /// service `target_seq` owns `function`, is `available`, and the
    /// payload matches the signature — else the status to refuse with.
    pub fn admit_request(
        &mut self,
        function: &Name,
        target_seq: u32,
        available: bool,
        codec: u8,
        payload: &[u8],
        codecs: &CodecRegistry,
    ) -> Result<Vec<Value>, CallStatus> {
        let func = self.functions.get(function).ok_or(CallStatus::NoSuchFunction)?;
        if func.owner_seq != target_seq || !available {
            return Err(CallStatus::ServiceUnavailable);
        }
        let codec = codecs.get(CodecId(codec)).ok_or(CallStatus::AppError)?;
        decode_args(payload, &func.sig, codec.as_ref()).map_err(|_| {
            self.type_mismatches += 1;
            CallStatus::AppError
        })
    }

    /// Provider side of a finished call: the reply status and payload for
    /// what `function`'s handler returned. A value violating its own
    /// declared return schema counts as a mismatch and an `AppError`.
    pub fn marshal_reply(
        &mut self,
        function: &Name,
        result: Result<Value, String>,
        codec: &dyn Codec,
    ) -> (CallStatus, Bytes) {
        let returns = self.functions.get(function).and_then(|f| f.sig.returns.clone());
        let refused = match result {
            Ok(value) => match encode_result(&value, &returns, codec) {
                Ok(payload) => return (CallStatus::Ok, payload),
                Err(e) => {
                    self.type_mismatches += 1;
                    e.to_string()
                }
            },
            Err(e) => e,
        };
        (CallStatus::AppError, Bytes::from(refused.into_bytes()))
    }

    /// Caller side of an `Ok` reply, decoded against the return type the
    /// provider of `call` announced.
    pub fn unmarshal_reply(
        &mut self,
        call: &PendingCall,
        codec: u8,
        payload: &[u8],
        codecs: &CodecRegistry,
    ) -> Result<Value, CallError> {
        let Some(codec) = codecs.get(CodecId(codec)) else {
            return Err(CallError::BadArguments("unknown codec".into()));
        };
        decode_result(payload, &call.returns, codec.as_ref())
            .inspect_err(|_| self.type_mismatches += 1)
    }

    /// Re-checks every required function against `directory`; answers
    /// `(name, available)`, in name order, wherever that is news — a
    /// change, or a first check finding no provider (§4.3: "the services
    /// check that all the functions they need ... are provided").
    pub fn recheck_required(&mut self, directory: &Directory) -> Vec<(Name, bool)> {
        let mut news = Vec::new();
        for (name, req) in &mut self.required {
            let available =
                directory.resolve_function(name.as_str(), CallPolicy::Dynamic, None).is_some();
            let first_check = !std::mem::replace(&mut req.checked, true);
            if available != req.available || (first_check && !available) {
                req.available = available;
                news.push((name.clone(), available));
            }
        }
        news
    }

    /// Local services that declared they need `function`.
    pub fn requirers(&self, function: &Name) -> &[u32] {
        self.required.get(function).map_or(&[], |req| &req.services)
    }

    /// Writes the counters this engine owns.
    pub fn fill_stats(&self, stats: &mut ContainerStats) {
        stats.type_mismatches.calls = self.type_mismatches;
        stats.qos.retries = self.retries;
    }

    /// Transparent re-dispatches performed for calls to `function`.
    pub fn retries_of(&self, function: &Name) -> u64 {
        self.retry_counts.get(function).copied().unwrap_or(0)
    }

    /// Calls awaiting a reply.
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }
}

/// Marshals a call argument list against a signature.
///
/// Each argument is encoded with `codec` against its declared parameter
/// type and length-prefixed, so the callee can re-slice without knowing
/// value sizes.
fn encode_args(args: &[Value], sig: &FunctionSig, codec: &dyn Codec) -> Result<Bytes, CallError> {
    if args.len() != sig.params.len() {
        return Err(CallError::BadArguments(format!(
            "expected {} arguments, got {}",
            sig.params.len(),
            args.len()
        )));
    }
    // Each argument is encoded into `one` to learn its length, then
    // length-prefixed into `buf`, which is frozen in place.
    let mut buf = BytesMut::with_capacity(args.iter().map(|a| a.size_hint() + 4).sum());
    let mut one = BytesMut::new();
    for (arg, ty) in args.iter().zip(&sig.params) {
        one.clear();
        one.reserve(arg.size_hint());
        codec.encode(arg, ty, &mut one).map_err(|e| CallError::BadArguments(e.to_string()))?;
        WireWriter::new(&mut buf).put_len_prefixed(&one);
    }
    Ok(buf.freeze())
}

/// Inverse of [`encode_args`].
fn decode_args(
    payload: &[u8],
    sig: &FunctionSig,
    codec: &dyn Codec,
) -> Result<Vec<Value>, CallError> {
    let mut r = WireReader::new(payload);
    let mut args = Vec::with_capacity(sig.params.len());
    for ty in &sig.params {
        let bytes = r
            .get_len_prefixed(MAX_ARG_BYTES)
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
fn encode_result(
    value: &Value,
    returns: &Option<DataType>,
    codec: &dyn Codec,
) -> Result<Bytes, CallError> {
    match returns {
        None => Ok(Bytes::new()),
        Some(ty) => {
            encode_payload(codec, value, ty).map_err(|e| CallError::BadArguments(e.to_string()))
        }
    }
}

/// Inverse of [`encode_result`]; void functions yield `Value::Bool(true)`.
fn decode_result(
    payload: &[u8],
    returns: &Option<DataType>,
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
        assert_eq!(e.sorted_targeting(|t| t.node == NodeId(3)), vec![RequestId(2)]);
        // A failover re-tracks the call with a later deadline: the stale
        // heap entry must not expire it early.
        let mut call = e.pending.remove(&RequestId(2)).unwrap();
        call.deadline = Micros(900);
        e.track(RequestId(2), call);
        assert!(e.expired(Micros(600)).is_empty(), "stale entry re-arms, no early expiry");
        assert_eq!(e.expired(Micros(1000)), vec![RequestId(2)]);
    }
}
