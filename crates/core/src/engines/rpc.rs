//! Remote invocation bookkeeping and argument marshalling (paper §4.3).

use std::collections::{BTreeMap, HashMap};

use bytes::Bytes;

use marea_encoding::{Codec, CodecId, CodecRegistry, DecodeError, WireReader, WireWriter};
use marea_presentation::{DataType, Name, Value};
use marea_protocol::messages::{CallStatus, FunctionSig, Provision};
use marea_protocol::{Micros, NodeId, ProtoDuration, RequestId, ServiceId};
use marea_transport::{Loan, LOAN_KEEP_BYTES};

use super::encode_payload;
use crate::directory::Directory;
use crate::error::CallError;
use crate::service::{CallPolicy, ServiceDescriptor};
use crate::stats::ContainerStats;
use crate::timers::DueQueue;
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
    /// Every pending call's reply deadline: the per-tick timeout sweep
    /// looks at the earliest entry instead of walking every pending call.
    deadlines: DueQueue<RequestId>,
    /// The argument vector of the last call a local handler ran, which
    /// the next request's arguments are decoded into (see
    /// [`recycle_args`](Self::recycle_args)).
    spare_args: Vec<Value>,
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

    /// Marshals `args` against the provider's `sig` into a buffer of the
    /// container's payload `loan`; a failure (the two sides' `FnPort`s
    /// disagree on argument types) counts as a mismatch.
    ///
    /// Each argument is encoded with `codec` against its declared
    /// parameter type and length-prefixed, so the callee can re-slice
    /// without knowing value sizes.
    pub fn marshal(
        &mut self,
        loan: &mut Loan,
        args: &[Value],
        sig: &FunctionSig,
        codec: &dyn Codec,
    ) -> Result<Bytes, CallError> {
        if args.len() != sig.params.len() {
            self.type_mismatches += 1;
            let (expected, got) = (sig.params.len(), args.len());
            return Err(CallError::BadArguments(format!(
                "expected {expected} arguments, got {got}"
            )));
        }
        let mut buf = loan.reclaim();
        buf.reserve(args.iter().map(|a| a.size_hint() + 4).sum());
        for (arg, ty) in args.iter().zip(&sig.params) {
            // Encoded once: the body first, then its length appended and
            // rotated in front of it.
            let start = buf.len();
            if let Err(e) = codec.encode(arg, ty, &mut buf) {
                self.type_mismatches += 1;
                return Err(CallError::BadArguments(e.to_string()));
            }
            let end = buf.len();
            WireWriter::new(&mut buf).put_varint((end - start) as u64);
            let prefix = buf.len() - end;
            buf[start..].rotate_right(prefix);
        }
        Ok(loan.keep(buf))
    }

    /// Registers a new call and queues its reply deadline.
    pub fn track(&mut self, id: RequestId, call: PendingCall) {
        self.deadlines.push(id, call.deadline);
        self.pending.insert(id, call);
    }

    /// Registers again a call a failover took out: armed, since its entry
    /// may be queued (a refusal, a dead provider) or not (it expired).
    pub fn retrack(&mut self, id: RequestId, call: PendingCall) {
        self.deadlines.arm(id, call.deadline);
        self.pending.insert(id, call);
    }

    /// Takes a pending call out: it is about to be failed over (and
    /// [`track`](Self::track)ed again) or failed, or its handler ran here.
    pub fn take(&mut self, id: RequestId) -> Option<PendingCall> {
        self.pending.remove(&id)
    }

    /// Takes out the pending call `id` that a reply with `status` from
    /// node `from` answers. A result (`Ok`, `AppError`) comes from an
    /// executed call, so the first one wins wherever it ran; a refusal
    /// counts only from the node the call is aimed at. One from a provider
    /// a failover has left, or a forged one, leaves the call pending.
    pub fn take_answered(
        &mut self,
        id: RequestId,
        from: NodeId,
        status: CallStatus,
    ) -> Option<PendingCall> {
        let result = matches!(status, CallStatus::Ok | CallStatus::AppError);
        if !result && self.pending.get(&id)?.target.node != from {
            return None;
        }
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
    /// queue's head (early after a failover, never late).
    pub fn next_due(&self) -> Option<Micros> {
        self.deadlines.next_due()
    }

    /// Pending calls whose deadline has passed at `now`.
    pub fn expired(&mut self, now: Micros) -> Vec<RequestId> {
        let mut out = Vec::new();
        while let Some(id) =
            self.deadlines.pop_due(now, |id| self.pending.get(id).map(|call| call.deadline))
        {
            out.push(id);
        }
        out.sort();
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
    /// The arguments are decoded into the spare vector, over the values it
    /// holds.
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
        let mut args = std::mem::take(&mut self.spare_args);
        match decode_args_into(payload, &func.sig.params, codec.as_ref(), &mut args) {
            Ok(()) => Ok(args),
            Err(_) => {
                self.type_mismatches += 1;
                self.recycle_args(args);
                Err(CallStatus::AppError)
            }
        }
    }

    /// Takes back the argument vector a local handler ran with as the
    /// spare the next request is decoded into — only while what it keeps,
    /// the values' heap bytes included, is at most [`LOAN_KEEP_BYTES`].
    pub fn recycle_args(&mut self, args: Vec<Value>) {
        if retained_bytes(&args).is_some_and(|bytes| bytes <= LOAN_KEEP_BYTES) {
            self.spare_args = args;
        }
    }

    /// Provider side of a finished call: the reply status and payload for
    /// what `function`'s handler returned, a result written into a buffer
    /// of the payload `loan`. A value violating its own declared return
    /// schema counts as a mismatch and an `AppError`.
    pub fn marshal_reply(
        &mut self,
        loan: &mut Loan,
        function: &Name,
        result: Result<Value, String>,
        codec: &dyn Codec,
    ) -> (CallStatus, Bytes) {
        let returns = self.functions.get(function).and_then(|f| f.sig.returns.as_ref());
        let refused = match (result, returns) {
            (Ok(_), None) => return (CallStatus::Ok, Bytes::new()),
            (Ok(value), Some(ty)) => match encode_payload(loan, codec, &value, ty) {
                Ok(payload) => return (CallStatus::Ok, payload),
                Err(e) => {
                    self.type_mismatches += 1;
                    CallError::BadArguments(e.to_string()).to_string()
                }
            },
            (Err(e), _) => e,
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

    /// What the argument spare keeps while no handler runs with it.
    pub fn spare_bytes(&self) -> usize {
        // The spare only ever holds a vector `recycle_args` could measure.
        retained_bytes(&self.spare_args).unwrap_or(0)
    }
}

/// Unmarshals a call's arguments into `args`, over the values it already
/// holds: the inverse of [`RpcEngine::marshal`].
fn decode_args_into(
    payload: &[u8],
    params: &[DataType],
    codec: &dyn Codec,
    args: &mut Vec<Value>,
) -> Result<(), DecodeError> {
    let mut r = WireReader::new(payload);
    args.truncate(params.len());
    for (i, ty) in params.iter().enumerate() {
        let bytes = r.get_len_prefixed(MAX_ARG_BYTES)?;
        match args.get_mut(i) {
            Some(slot) => codec.decode_into(bytes, ty, slot)?,
            None => args.push(codec.decode(bytes, ty)?),
        }
    }
    if !r.is_empty() {
        return Err(DecodeError::TrailingBytes { remaining: r.remaining() });
    }
    Ok(())
}

/// Heap bytes an argument vector keeps: its slots and each string's or
/// byte vector's storage. `None` when a value holds storage this cannot
/// see — a struct's, a vector's or a union's.
fn retained_bytes(args: &Vec<Value>) -> Option<usize> {
    let mut bytes = args.capacity() * std::mem::size_of::<Value>();
    for value in args {
        bytes += match value {
            Value::Str(s) => s.capacity(),
            Value::Bytes(b) => b.capacity(),
            Value::Vector(_) | Value::Struct(_) | Value::Union(_) => return None,
            _ => 0,
        };
    }
    Some(bytes)
}

/// Unmarshals a reply's result; void functions yield `Value::Bool(true)`.
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
    use marea_presentation::{StructType, StructValue};

    fn sig() -> FunctionSig {
        FunctionSig { params: vec![DataType::Str, DataType::U32], returns: Some(DataType::Bool) }
    }

    /// An engine whose local service 1 provides `f` with `sig`.
    fn provider(sig: FunctionSig) -> (RpcEngine, Name) {
        let mut e = RpcEngine::default();
        let name = Name::new("f").unwrap();
        e.functions.insert(name.clone(), LocalFunction { owner_seq: 1, sig });
        (e, name)
    }

    fn admit(e: &mut RpcEngine, name: &Name, payload: &[u8]) -> Result<Vec<Value>, CallStatus> {
        e.admit_request(name, 1, true, CodecId::COMPACT.0, payload, &CodecRegistry::new())
    }

    fn pending(function: &str, node: u32, deadline: u64, returns: Option<DataType>) -> PendingCall {
        PendingCall {
            caller_seq: 0,
            function: Name::new(function).unwrap(),
            args: vec![],
            target: ServiceId::new(NodeId(node), 1),
            returns,
            deadline: Micros(deadline),
            attempt_timeout: ProtoDuration(deadline),
            attempts: 1,
            max_attempts: 3,
            policy: CallPolicy::Dynamic,
            started_at: Micros::ZERO,
            trace: TraceId::NONE,
        }
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn args_roundtrip() {
        let mut loan = Loan::default();
        let (mut e, f) = provider(sig());
        let args = vec![Value::Str("photo-01".into()), Value::U32(3)];
        let bytes = e.marshal(&mut loan, &args, &sig(), &CompactCodec).unwrap();
        assert_eq!(admit(&mut e, &f, &bytes).unwrap(), args);
        assert_eq!(e.type_mismatches, 0);
    }

    #[test]
    fn arity_checked() {
        let mut loan = Loan::default();
        let mut e = RpcEngine::default();
        let err = e.marshal(&mut loan, &[Value::U32(1)], &sig(), &CompactCodec).unwrap_err();
        assert!(matches!(err, CallError::BadArguments(_)));
        assert_eq!(e.type_mismatches, 1);
    }

    #[test]
    fn type_checked() {
        let mut loan = Loan::default();
        let mut e = RpcEngine::default();
        let err = e
            .marshal(&mut loan, &[Value::Bool(true), Value::U32(1)], &sig(), &CompactCodec)
            .unwrap_err();
        assert!(matches!(err, CallError::BadArguments(_)));
        assert_eq!(e.type_mismatches, 1);
    }

    #[test]
    fn result_roundtrip_and_void() {
        let mut loan = Loan::default();
        let codecs = CodecRegistry::new();
        let (mut e, f) = provider(sig());
        let (status, bytes) = e.marshal_reply(&mut loan, &f, Ok(Value::Bool(true)), &CompactCodec);
        assert_eq!(status, CallStatus::Ok);
        let call = pending("f", 2, 100, Some(DataType::Bool));
        assert_eq!(e.unmarshal_reply(&call, 0, &bytes, &codecs).unwrap(), Value::Bool(true));

        let (mut e, f) = provider(FunctionSig { params: vec![], returns: None });
        let (status, empty) = e.marshal_reply(&mut loan, &f, Ok(Value::Bool(false)), &CompactCodec);
        assert_eq!(status, CallStatus::Ok);
        assert!(empty.is_empty());
        let call = pending("f", 2, 100, None);
        assert_eq!(e.unmarshal_reply(&call, 0, &empty, &codecs).unwrap(), Value::Bool(true));

        // A result violating its own declared schema is refused, with the
        // text the refusal always carried.
        let (mut e, f) = provider(sig());
        let (status, text) = e.marshal_reply(&mut loan, &f, Ok(Value::U8(1)), &CompactCodec);
        assert_eq!(status, CallStatus::AppError);
        assert!(std::str::from_utf8(&text).unwrap().starts_with("bad arguments: "));
        assert_eq!(e.type_mismatches, 1);
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut loan = Loan::default();
        let (mut e, f) = provider(sig());
        let args = vec![Value::Str("x".into()), Value::U32(1)];
        let mut bytes = e.marshal(&mut loan, &args, &sig(), &CompactCodec).unwrap().to_vec();
        bytes.push(7);
        assert_eq!(admit(&mut e, &f, &bytes), Err(CallStatus::AppError));
        assert_eq!(e.type_mismatches, 1);
    }

    /// Four signatures, their arguments, their result, and the hex of both
    /// payloads as the per-argument encoder wrote them before marshalling
    /// moved into the loaned buffer.
    fn golden() -> Vec<(FunctionSig, Vec<Value>, Value, &'static str, &'static str)> {
        let fix = StructType::new("Fix")
            .with_field("lat", DataType::F64)
            .unwrap()
            .with_field("lon", DataType::F64)
            .unwrap()
            .with_field("label", DataType::Str)
            .unwrap();
        let rec = |lat: f64, lon: f64, label: &str| {
            Value::Struct(StructValue::for_type(&fix, [lat.into(), lon.into(), label.into()]))
        };
        let blob: Vec<u8> = (0..130u8).map(|i| i.wrapping_mul(7)).collect();
        let fn_sig = |params, returns| FunctionSig { params, returns };
        let record = DataType::Struct(fix.clone());
        vec![
            (fn_sig(vec![], None), vec![], Value::Bool(true), "", ""),
            (
                fn_sig(vec![DataType::Bytes], Some(DataType::Bytes)),
                vec![Value::Bytes(blob)],
                Value::Bytes(b"pong".to_vec()),
                concat!(
                    "8401820100070e151c232a31383f464d545b626970777e858c939aa1a8afb6bdc4cbd2d9e0e7",
                    "eef5fc030a11181f262d343b424950575e656c737a81888f969da4abb2b9c0c7ced5dce3eaf1",
                    "f8ff060d141b222930373e454c535a61686f767d848b9299a0a7aeb5bcc3cad1d8dfe6edf4fb",
                    "020910171e252c333a41484f565d646b72798087"
                ),
                "04706f6e67",
            ),
            (
                fn_sig(vec![DataType::Str, DataType::U32], Some(DataType::Str)),
                vec![Value::Str("photo-01".into()), Value::U32(300)],
                Value::Str("stored".into()),
                "090870686f746f2d303102ac02",
                "0673746f726564",
            ),
            (
                fn_sig(vec![record.clone()], Some(record)),
                vec![rec(1.5, -2.25, "wp7")],
                rec(0.5, 4.0, ""),
                "14000000000000f83f00000000000002c003777037",
                "000000000000e03f000000000000104000",
            ),
        ]
    }

    /// Marshalled arguments and results are the golden bytes, whether the
    /// loaned buffer is fresh or still holds a longer earlier payload —
    /// whose storage they are then written into.
    #[test]
    fn marshalled_payloads_are_the_golden_bytes_in_a_fresh_or_a_reused_buffer() {
        let long_sig =
            FunctionSig { params: vec![DataType::Bytes], returns: Some(DataType::Bytes) };
        for (sig, args, result, args_hex, result_hex) in golden() {
            let mut loan = Loan::default();
            let (mut e, f) = provider(sig.clone());
            assert_eq!(hex(&e.marshal(&mut loan, &args, &sig, &CompactCodec).unwrap()), args_hex);
            let (status, reply) = e.marshal_reply(&mut loan, &f, Ok(result.clone()), &CompactCodec);
            assert_eq!((status, hex(&reply).as_str()), (CallStatus::Ok, result_hex));
            assert_eq!(admit(&mut e, &f, &unhex(args_hex)).unwrap(), args);

            let long = [Value::Bytes(vec![0xEE; 600])];
            let earlier = e.marshal(&mut loan, &long, &long_sig, &CompactCodec).unwrap();
            let storage = earlier.as_ptr();
            drop(earlier);
            let again = e.marshal(&mut loan, &args, &sig, &CompactCodec).unwrap();
            assert_eq!(hex(&again), args_hex);
            if !again.is_empty() {
                assert_eq!(again.as_ptr(), storage, "written into the loaned storage");
            }
            drop(again);
            let earlier = e.marshal(&mut loan, &long, &long_sig, &CompactCodec).unwrap();
            drop(earlier);
            let (_, reply) = e.marshal_reply(&mut loan, &f, Ok(result), &CompactCodec);
            assert_eq!(hex(&reply), result_hex);
        }
    }

    fn unhex(digits: &str) -> Vec<u8> {
        (0..digits.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&digits[i..i + 2], 16).unwrap())
            .collect()
    }

    /// A request is decoded into the argument vector the last handler ran
    /// with, and a byte argument into that vector's bytes when they have
    /// room.
    #[test]
    fn requests_are_decoded_into_the_recycled_arguments() {
        let mut loan = Loan::default();
        let bytes_sig = FunctionSig { params: vec![DataType::Bytes], returns: None };
        let (mut e, f) = provider(bytes_sig.clone());
        let codec = CompactCodec;
        let mut payload = |e: &mut RpcEngine, len: usize| {
            e.marshal(&mut loan, &[Value::Bytes(vec![len as u8; len])], &bytes_sig, &codec)
                .unwrap()
                .to_vec()
        };
        let p256 = payload(&mut e, 256);
        let args = admit(&mut e, &f, &p256).unwrap();
        let (slots, storage) = (args.as_ptr(), args[0].as_bytes().unwrap().as_ptr());
        e.recycle_args(args);
        assert!(e.spare_bytes() >= 256 + std::mem::size_of::<Value>());
        for len in [100, 0, 256] {
            let p = payload(&mut e, len);
            let args = admit(&mut e, &f, &p).unwrap();
            assert_eq!(args, [Value::Bytes(vec![len as u8; len])]);
            assert_eq!(args.as_ptr(), slots, "the same argument vector");
            if len > 0 {
                assert_eq!(args[0].as_bytes().unwrap().as_ptr(), storage, "the same bytes");
            }
            e.recycle_args(args);
        }
    }

    /// Neither the loaned buffer nor the argument spare keeps more than
    /// `LOAN_KEEP_BYTES` after a 16 KiB call, and both take up small calls
    /// again afterwards.
    #[test]
    fn the_loan_and_the_spare_keep_nothing_above_their_cap() {
        let mut loan = Loan::default();
        let bytes_sig =
            FunctionSig { params: vec![DataType::Bytes], returns: Some(DataType::Bytes) };
        let (mut e, f) = provider(bytes_sig.clone());
        let codec = CompactCodec;
        for len in [256, 16 * 1024, 256] {
            let arg = Value::Bytes(vec![7; len]);
            let payload =
                e.marshal(&mut loan, std::slice::from_ref(&arg), &bytes_sig, &codec).unwrap();
            let args = admit(&mut e, &f, &payload).unwrap();
            drop(payload);
            assert!(loan.bytes() <= LOAN_KEEP_BYTES, "{len}: buffer {}", loan.bytes());
            let (_, reply) = e.marshal_reply(&mut loan, &f, Ok(arg), &codec);
            drop(reply);
            e.recycle_args(args);
            let spare = retained_bytes(&e.spare_args).unwrap();
            assert!(spare <= LOAN_KEEP_BYTES, "{len}: spare {spare}");
            let kept = loan.bytes() + e.spare_bytes();
            assert_eq!(kept > 0, len < LOAN_KEEP_BYTES, "{len}: {kept}");
        }
        // A struct argument holds storage the spare cannot count: not kept.
        let spare = e.spare_args.as_ptr();
        e.recycle_args(vec![Value::Struct(StructValue::for_type(&StructType::new("E"), []))]);
        assert_eq!(e.spare_args.as_ptr(), spare);
    }

    #[test]
    fn a_refusal_counts_only_from_the_node_the_call_is_aimed_at() {
        let mut e = RpcEngine::default();
        e.track(RequestId(1), pending("f", 2, 100, None));
        for status in
            [CallStatus::ServiceUnavailable, CallStatus::Timeout, CallStatus::NoSuchFunction]
        {
            assert!(e.take_answered(RequestId(1), NodeId(3), status).is_none(), "{status:?}");
        }
        assert_eq!(e.pending_count(), 1, "left pending");
        let call = e.take_answered(RequestId(1), NodeId(2), CallStatus::Timeout).unwrap();
        e.retrack(RequestId(1), call);
        // A result wins from anywhere: the call ran there.
        assert!(e.take_answered(RequestId(1), NodeId(3), CallStatus::AppError).is_some());
        assert!(e.take_answered(RequestId(1), NodeId(2), CallStatus::Ok).is_none(), "gone");
    }

    #[test]
    fn engine_expiry_and_targeting() {
        let mut e = RpcEngine::default();
        e.track(RequestId(1), pending("f", 2, 100, None));
        e.track(RequestId(2), pending("g", 3, 500, None));
        assert_eq!(e.expired(Micros(200)), vec![RequestId(1)]);
        assert_eq!(e.sorted_targeting(|t| t.node == NodeId(3)), vec![RequestId(2)]);
        // A failover re-tracks the call with a later deadline: the entry
        // queued for the first one must not expire it early.
        let mut call = e.pending.remove(&RequestId(2)).unwrap();
        call.deadline = Micros(900);
        e.retrack(RequestId(2), call);
        assert!(e.expired(Micros(600)).is_empty(), "stale entry re-arms, no early expiry");
        assert_eq!(e.expired(Micros(1000)), vec![RequestId(2)]);
    }
}
