//! The source and sink services the scenarios are assembled from.
//!
//! One [`Source`] and one [`Sink`] cover all four primitives, shared by
//! the experiment scenarios in the crate root and the
//! [`loadtest`](crate::loadtest) workload engine. Service, port and
//! channel names are constructor arguments: they travel in `Announce`
//! frames, so each scenario keeping the names it always had is what keeps
//! the wire-byte counts in the checked-in `BENCH_*.json` files stable.

use std::sync::{Arc, Mutex};

use bytes::Bytes;

use marea_core::{
    CallError, CallHandle, EventPort, EventQos, FileEvent, FnPort, Micros, ProtoDuration, Service,
    ServiceContext, ServiceDescriptor, TimerId, TypedCallHandle, VarPort, VarQos,
};
use marea_presentation::{Name, Value};

/// The payload every source sends: `bytes` of a fixed pattern.
pub(crate) fn payload_of(bytes: usize) -> Vec<u8> {
    vec![0xA5; bytes]
}

/// The echo contract both RPC roles share.
pub(crate) type EchoPort = FnPort<(Vec<u8>,), Vec<u8>>;

/// Round-trip times a closed-loop caller measured, in virtual µs.
pub(crate) type RttLog = Arc<Mutex<Vec<u64>>>;

/// `log[revision - 1]` is the virtual µs that revision of a file source's
/// resource was published at (revisions are minted 1-based and
/// sequentially).
pub(crate) type PublishLog = Arc<Mutex<Vec<u64>>>;

/// What a [`Source`] produces, one item per period.
pub(crate) enum Emit {
    /// A sample on the port, valid for the given time.
    Var(VarPort<Vec<u8>>, ProtoDuration),
    Event(EventPort<Vec<u8>>),
    /// An echo call. With a log the loop is closed: at most one call
    /// outstanding, each round trip appended. Without, calls go out at
    /// the timer rate and the container's `call_rtt` histogram is the
    /// record.
    Call(EchoPort, Option<RttLog>),
    /// A new revision of the named resource; the payload is the file.
    File(String, PublishLog),
}

/// Produces `payload`-byte items every `period` (`None`: one item, at
/// start) until `budget` items went out (`None`: never runs dry).
pub(crate) struct Source {
    service: &'static str,
    emit: Emit,
    payload: usize,
    period: Option<ProtoDuration>,
    budget: Option<u32>,
    /// The outstanding closed-loop call and when it was made.
    inflight: Option<(TypedCallHandle<Vec<u8>>, Micros)>,
}

impl Source {
    pub(crate) fn new(
        service: &'static str,
        emit: Emit,
        payload: usize,
        period: Option<ProtoDuration>,
        budget: Option<u32>,
    ) -> Source {
        Source { service, emit, payload, period, budget, inflight: None }
    }

    fn produce(&mut self, ctx: &mut ServiceContext<'_>) {
        if self.inflight.is_some() || self.budget == Some(0) {
            return;
        }
        self.budget = self.budget.map(|left| left - 1);
        let payload = payload_of(self.payload);
        match &self.emit {
            Emit::Var(port, _) => ctx.publish_to(port, payload),
            Emit::Event(port) => ctx.emit_to(port, payload),
            Emit::Call(echo, rtts) => {
                let handle = ctx.call_fn(echo, (payload,));
                if rtts.is_some() {
                    self.inflight = Some((handle, ctx.now()));
                }
            }
            Emit::File(resource, published_at) => {
                published_at.lock().unwrap().push(ctx.now().as_micros());
                ctx.publish_file(resource, Bytes::from(payload));
            }
        }
    }
}

impl Service for Source {
    fn descriptor(&self) -> ServiceDescriptor {
        let mut b = ServiceDescriptor::builder(self.service);
        match &self.emit {
            Emit::Var(port, validity) => {
                let period = self.period.unwrap_or(ProtoDuration::ZERO);
                b.provides_var(port, VarQos::periodic(period, *validity))
            }
            Emit::Event(port) => b.provides_event(port),
            Emit::Call(echo, _) => b.requires_fn(echo),
            Emit::File(resource, _) => b.file_resource(resource),
        };
        b.build()
    }
    fn on_start(&mut self, ctx: &mut ServiceContext<'_>) {
        match self.period {
            Some(period) => {
                ctx.set_timer(period, Some(period));
            }
            None => self.produce(ctx),
        }
    }
    fn on_timer(&mut self, ctx: &mut ServiceContext<'_>, _id: TimerId) {
        self.produce(ctx);
    }
    fn on_reply(
        &mut self,
        ctx: &mut ServiceContext<'_>,
        handle: CallHandle,
        result: Result<Value, CallError>,
    ) {
        if let (Emit::Call(_, Some(rtts)), Some((h, sent))) = (&self.emit, self.inflight.take()) {
            if h.matches(handle) && h.decode(result).is_ok() {
                rtts.lock().unwrap().push(ctx.now().saturating_since(sent).as_micros());
            }
        }
    }
}

/// One completed download seen by a [`Sink`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct FileReceipt {
    pub node: u32,
    pub revision: u32,
    pub at: Micros,
}

/// Every completed download, fleet-wide, in completion order.
pub(crate) type ReceiptLog = Arc<Mutex<Vec<FileReceipt>>>;

/// Subscribes to the named channels under default QoS. Variables and
/// events are not handled at all — the container's own delivery
/// counters and latency histograms are the measurement; completed file
/// downloads are appended to `received`.
#[derive(Default)]
pub(crate) struct Sink {
    pub service: &'static str,
    pub vars: Vec<String>,
    pub events: Vec<String>,
    pub files: Vec<String>,
    pub received: ReceiptLog,
}

impl Service for Sink {
    fn descriptor(&self) -> ServiceDescriptor {
        let mut b = ServiceDescriptor::builder(self.service);
        for channel in &self.vars {
            b.subscribe_variable(channel, VarQos::default());
        }
        for channel in &self.events {
            b.subscribe_event(channel, EventQos::default());
        }
        for resource in &self.files {
            b.subscribe_file(resource);
        }
        b.build()
    }
    fn on_file_event(&mut self, ctx: &mut ServiceContext<'_>, ev: &FileEvent) {
        if let FileEvent::Received { revision, .. } = ev {
            self.received.lock().unwrap().push(FileReceipt {
                node: ctx.local_node().0,
                revision: *revision,
                at: ctx.now(),
            });
        }
    }
}

/// Provides `port` and returns its argument.
pub(crate) struct Echo {
    pub service: &'static str,
    pub port: EchoPort,
}

impl Service for Echo {
    fn descriptor(&self) -> ServiceDescriptor {
        ServiceDescriptor::builder(self.service).provides_fn(&self.port).build()
    }
    fn on_call(
        &mut self,
        _ctx: &mut ServiceContext<'_>,
        _f: &Name,
        args: &[Value],
    ) -> Result<Value, String> {
        let (data,) = self.port.decode_args(args).map_err(|e| e.to_string())?;
        Ok(self.port.encode_ret(data))
    }
}
