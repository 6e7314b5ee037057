//! The benchmark's own services: open-loop sources on container timers
//! and checking sinks. They are the only load the middleware sees.
//!
//! Sources offer nothing until the driver raises [`Shared::go`] (after
//! discovery has converged), so every offered message has its full set of
//! bound subscribers and `expected` is exact. Sinks verify what the
//! generator put into each payload and keep exact latency samples on the
//! container's clock.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use bytes::Bytes;

use marea_core::{
    CallError, CallHandle, EventPort, EventQos, FileEvent, FnPort, Micros, ProtoDuration,
    ProviderNotice, RequestId, Service, ServiceContext, ServiceDescriptor, TimerId, ValueCodec,
    VarPort, VarQos,
};
use marea_presentation::{Name, Value};
use marea_services::names::Position;

use crate::clock;
use crate::gen::Gen;
use crate::spans::{self, Span};
use crate::stats::Samples;

/// The four primitives a delivery can belong to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A variable sample reached `on_variable`.
    Var,
    /// An event reached `on_event`.
    Event,
    /// A call was answered in `on_reply`.
    Reply,
    /// A file revision completed (`FileEvent::Received`).
    File,
}

impl Kind {
    /// Every kind, in report order.
    pub const ALL: [Kind; 4] = [Kind::Var, Kind::Event, Kind::Reply, Kind::File];
}

/// What sources offered and sinks saw, fleet-wide.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Deliveries owed per kind: offered messages × bound subscribers.
    pub expected: [u64; 4],
    /// Deliveries per kind that passed every check, first time.
    pub correct: [u64; 4],
    /// Deliveries of a sequence number the sink had already seen.
    pub duplicates: u64,
    /// Deliveries whose content failed the generator's check, or that
    /// arrived out of order on an ordered channel.
    pub corrupt: u64,
    /// Calls answered with an error.
    pub call_errors: u64,
    /// Payload bytes of the correct deliveries.
    pub payload_bytes: u64,
    /// Offer → handler latency of correct deliveries, container-clock µs.
    pub latency_us: Samples,
    /// Timer due time → offer, container-clock µs (open-loop lateness).
    pub lag_us: Samples,
    /// Host-time call → reply of the closed-loop caller, ns (traced runs).
    pub host_rtt_ns: Samples,
}

impl Tally {
    /// Deliveries owed, all kinds.
    pub fn expected_total(&self) -> u64 {
        self.expected.iter().sum()
    }

    /// Correct deliveries, all kinds.
    pub fn correct_total(&self) -> u64 {
        self.correct.iter().sum()
    }

    /// Deliveries that reached a handler but must not count.
    pub fn bad(&self) -> u64 {
        self.duplicates + self.corrupt + self.call_errors
    }

    fn delivered(&mut self, kind: Kind, bytes: usize, latency_us: u64) {
        self.correct[kind as usize] += 1;
        self.payload_bytes += bytes as u64;
        self.latency_us.record(latency_us);
    }
}

/// State every service of one fleet shares with the driver.
#[derive(Debug, Clone)]
pub struct Shared {
    /// Sources offer only while this is set.
    pub go: Arc<AtomicBool>,
    /// The fleet-wide tally.
    pub tally: Arc<Mutex<Tally>>,
    /// The run's payload generator.
    pub gen: Gen,
}

impl Shared {
    /// Fresh shared state for a fleet fed by `gen`.
    pub fn new(gen: Gen) -> Self {
        Shared { go: Arc::new(AtomicBool::new(false)), tally: Arc::default(), gen }
    }

    /// The tally (single-threaded benchmark: never contended).
    pub fn tally(&self) -> MutexGuard<'_, Tally> {
        self.tally.lock().expect("no handler panics while holding the tally")
    }

    fn going(&self) -> bool {
        self.go.load(Relaxed)
    }
}

/// A periodic container timer that knows when each firing was due.
#[derive(Debug)]
struct Pacer {
    period: ProtoDuration,
    due: Micros,
}

impl Pacer {
    fn new(period: ProtoDuration) -> Self {
        Pacer { period, due: Micros::ZERO }
    }

    fn start(&mut self, ctx: &mut ServiceContext<'_>) {
        self.due = ctx.now() + self.period;
        ctx.set_timer(self.period, Some(self.period));
    }

    /// Call once per firing: how late it ran, in µs.
    fn fired(&mut self, ctx: &ServiceContext<'_>) -> u64 {
        let lag = ctx.now().saturating_since(self.due).as_micros();
        self.due += self.period;
        lag
    }
}

/// What every open-loop source keeps: its pacing timer, its sequence
/// counter and its line in the books.
#[derive(Debug)]
struct Offers {
    shared: Shared,
    pacer: Pacer,
    kind: Kind,
    source: u32,
    subscribers: u32,
    seq: u64,
}

impl Offers {
    fn new(
        shared: &Shared,
        kind: Kind,
        source: u32,
        period: ProtoDuration,
        subscribers: u32,
    ) -> Self {
        Offers {
            shared: shared.clone(),
            pacer: Pacer::new(period),
            kind,
            source,
            subscribers,
            seq: 0,
        }
    }

    /// Call from `on_timer`: the next payload to offer, already booked as
    /// owed to every subscriber — or `None` while the driver holds `go`.
    fn next<S: Shape>(&mut self, ctx: &ServiceContext<'_>, shape: &S) -> Option<S::T> {
        let lag = self.pacer.fired(ctx);
        if !self.shared.going() {
            return None;
        }
        let payload = shape.make(&self.shared.gen, self.source, self.seq, ctx.now().as_micros());
        self.seq += 1;
        let mut tally = self.shared.tally();
        tally.expected[self.kind as usize] += u64::from(self.subscribers);
        tally.lag_us.record(lag);
        Some(payload)
    }
}

/// A payload type the generator can make and check.
pub trait Shape: Send + 'static {
    /// The typed payload on the port.
    type T: ValueCodec;
    /// The payload of `source`'s message `seq`.
    fn make(&self, gen: &Gen, source: u32, seq: u64, stamp_us: u64) -> Self::T;
    /// The sequence number of a payload that checks out.
    fn check(&self, gen: &Gen, source: u32, payload: &Self::T) -> Option<u64>;
    /// Payload bytes per message (for `wire_bytes_per_payload_byte`).
    fn bytes(&self) -> usize;
}

/// The typed `Position` record: five `f64` fields.
#[derive(Debug, Clone, Copy)]
pub struct PositionShape;

impl Shape for PositionShape {
    type T = Position;
    fn make(&self, gen: &Gen, source: u32, seq: u64, _stamp_us: u64) -> Position {
        gen.position(source, seq)
    }
    fn check(&self, gen: &Gen, source: u32, p: &Position) -> Option<u64> {
        gen.check_position(source, p)
    }
    fn bytes(&self) -> usize {
        40
    }
}

/// An opaque byte payload of a fixed length.
#[derive(Debug, Clone, Copy)]
pub struct BytesShape(pub usize);

impl Shape for BytesShape {
    type T = Vec<u8>;
    fn make(&self, gen: &Gen, source: u32, seq: u64, stamp_us: u64) -> Vec<u8> {
        gen.bytes(source, seq, stamp_us, self.0)
    }
    fn check(&self, gen: &Gen, source: u32, p: &Vec<u8>) -> Option<u64> {
        gen.check_bytes(source, p, self.0).map(|h| h.seq)
    }
    fn bytes(&self) -> usize {
        self.0
    }
}

/// The swarm ring's `u64` beacon.
#[derive(Debug, Clone, Copy)]
pub struct BeaconShape;

impl Shape for BeaconShape {
    type T = u64;
    fn make(&self, gen: &Gen, source: u32, seq: u64, _stamp_us: u64) -> u64 {
        // Low 20 bits carry the sequence number, the rest the keyed hash.
        (gen.beacon(source, seq) << 20) | (seq & 0xF_FFFF)
    }
    fn check(&self, gen: &Gen, source: u32, p: &u64) -> Option<u64> {
        // Sequence numbers stay far below 2^20 in a run (20 Hz beacons).
        let seq = p & 0xF_FFFF;
        (self.make(gen, source, seq, 0) == *p).then_some(seq)
    }
    fn bytes(&self) -> usize {
        8
    }
}

/// Service name of the source of `channel` (unique per node).
fn source_name(channel: &str) -> String {
    format!("src-{}", channel.replace('/', "-"))
}

/// One subscribed channel of a sink: where it comes from and the last
/// sequence number seen on it.
#[derive(Debug)]
struct Channel {
    name: Name,
    source: u32,
    next_seq: u64,
}

impl Channel {
    fn new(name: &str, source: u32) -> Self {
        Channel { name: Name::new(name).expect("channel name literal"), source, next_seq: 0 }
    }
}

/// Accounts one checked delivery on `channel`. `ordered` channels
/// (events) must deliver every sequence number in order; variables may
/// skip but never repeat.
fn account(
    shared: &Shared,
    channel: &mut Channel,
    kind: Kind,
    seq: Option<u64>,
    ordered: bool,
    bytes: usize,
    latency_us: u64,
) {
    let mut tally = shared.tally();
    match seq {
        None => tally.corrupt += 1,
        Some(seq) if seq < channel.next_seq => tally.duplicates += 1,
        Some(seq) => {
            if ordered && seq != channel.next_seq {
                tally.corrupt += 1;
            } else {
                tally.delivered(kind, bytes, latency_us);
            }
            channel.next_seq = seq + 1;
        }
    }
}

// ---- variables ----------------------------------------------------------

/// Publishes one variable at a fixed rate.
pub struct VarSource<S: Shape> {
    service: String,
    port: VarPort<S::T>,
    shape: S,
    offers: Offers,
}

impl<S: Shape> VarSource<S> {
    /// A source of `channel` every `period`; `source` is its generator
    /// id, `subscribers` the number of nodes bound to it.
    pub fn new(
        shared: &Shared,
        channel: &str,
        shape: S,
        source: u32,
        period: ProtoDuration,
        subscribers: u32,
    ) -> Self {
        VarSource {
            service: source_name(channel),
            port: VarPort::new(channel),
            shape,
            offers: Offers::new(shared, Kind::Var, source, period, subscribers),
        }
    }
}

impl<S: Shape> Service for VarSource<S> {
    fn descriptor(&self) -> ServiceDescriptor {
        let period = self.offers.pacer.period;
        ServiceDescriptor::builder(&self.service)
            .provides_var(&self.port, VarQos::periodic(period, period.saturating_mul(8)))
            .build()
    }
    fn on_start(&mut self, ctx: &mut ServiceContext<'_>) {
        self.offers.pacer.start(ctx);
    }
    fn on_timer(&mut self, ctx: &mut ServiceContext<'_>, _id: TimerId) {
        let _span = spans::span(Span::HandlerTimer, ctx.local_node().0);
        if let Some(value) = self.offers.next(ctx, &self.shape) {
            ctx.publish_to(&self.port, value);
        }
    }
}

/// Subscribes to variables of one shape and checks every sample.
pub struct VarSink<S: Shape> {
    shape: S,
    shared: Shared,
    ports: Vec<VarPort<S::T>>,
    channels: Vec<Channel>,
}

impl<S: Shape> VarSink<S> {
    /// A sink bound to `channels`, given as `(name, source id)`.
    pub fn new(shared: &Shared, shape: S, channels: &[(String, u32)]) -> Self {
        VarSink {
            shape,
            shared: shared.clone(),
            ports: channels.iter().map(|(name, _)| VarPort::new(name)).collect(),
            channels: channels.iter().map(|(name, src)| Channel::new(name, *src)).collect(),
        }
    }
}

impl<S: Shape> Service for VarSink<S> {
    fn descriptor(&self) -> ServiceDescriptor {
        let mut b = ServiceDescriptor::builder("var-sink");
        for port in &self.ports {
            b.subscribe_to_var(port, VarQos::default());
        }
        b.build()
    }
    fn on_variable(
        &mut self,
        ctx: &mut ServiceContext<'_>,
        name: &Name,
        value: &Value,
        stamp: Micros,
    ) {
        let _span = spans::span(Span::HandlerVariable, ctx.local_node().0);
        let Some(i) = self.channels.iter().position(|c| &c.name == name) else { return };
        let channel = &mut self.channels[i];
        let seq = self.ports[i]
            .decode(value)
            .ok()
            .and_then(|p| self.shape.check(&self.shared.gen, channel.source, &p));
        let latency = ctx.now().saturating_since(stamp).as_micros();
        account(&self.shared, channel, Kind::Var, seq, false, self.shape.bytes(), latency);
    }
}

// ---- events -------------------------------------------------------------

/// Emits one event channel at a fixed rate (reliable delivery).
pub struct EventSource<S: Shape> {
    service: String,
    port: EventPort<S::T>,
    shape: S,
    offers: Offers,
}

impl<S: Shape> EventSource<S> {
    /// A source of `channel` every `period`.
    pub fn new(
        shared: &Shared,
        channel: &str,
        shape: S,
        source: u32,
        period: ProtoDuration,
        subscribers: u32,
    ) -> Self {
        EventSource {
            service: source_name(channel),
            port: EventPort::new(channel),
            shape,
            offers: Offers::new(shared, Kind::Event, source, period, subscribers),
        }
    }
}

impl<S: Shape> Service for EventSource<S> {
    fn descriptor(&self) -> ServiceDescriptor {
        ServiceDescriptor::builder(&self.service).provides_event(&self.port).build()
    }
    fn on_start(&mut self, ctx: &mut ServiceContext<'_>) {
        self.offers.pacer.start(ctx);
    }
    fn on_timer(&mut self, ctx: &mut ServiceContext<'_>, _id: TimerId) {
        let _span = spans::span(Span::HandlerTimer, ctx.local_node().0);
        if let Some(value) = self.offers.next(ctx, &self.shape) {
            ctx.emit_to(&self.port, value);
        }
    }
}

/// Subscribes to one event channel; requires exactly-once, in order.
pub struct EventSink<S: Shape> {
    shape: S,
    shared: Shared,
    port: EventPort<S::T>,
    channel: Channel,
}

impl<S: Shape> EventSink<S> {
    /// A sink of `channel`, emitted by generator source `source`.
    pub fn new(shared: &Shared, shape: S, channel: &str, source: u32) -> Self {
        EventSink {
            shape,
            shared: shared.clone(),
            port: EventPort::new(channel),
            channel: Channel::new(channel, source),
        }
    }
}

impl<S: Shape> Service for EventSink<S> {
    fn descriptor(&self) -> ServiceDescriptor {
        ServiceDescriptor::builder("event-sink")
            .subscribe_to_event(&self.port, EventQos::default())
            .build()
    }
    fn on_event(
        &mut self,
        ctx: &mut ServiceContext<'_>,
        _name: &Name,
        value: Option<&Value>,
        stamp: Micros,
    ) {
        let _span = spans::span(Span::HandlerEvent, ctx.local_node().0);
        let seq = self
            .port
            .decode(value)
            .ok()
            .and_then(|p| self.shape.check(&self.shared.gen, self.channel.source, &p));
        let latency = ctx.now().saturating_since(stamp).as_micros();
        let bytes = self.shape.bytes();
        account(&self.shared, &mut self.channel, Kind::Event, seq, true, bytes, latency);
    }
}

// ---- remote invocation ----------------------------------------------------

type EchoPort = FnPort<(Vec<u8>,), Vec<u8>>;

/// How the caller paces its calls.
#[derive(Debug, Clone, Copy)]
pub enum CallPacing {
    /// Open loop: one call every period, whatever the replies do.
    Every(ProtoDuration),
    /// Closed loop, one outstanding call: the next call leaves from the
    /// reply handler of the previous one.
    OneOutstanding,
}

/// Calls an echo function and checks that every call is answered once,
/// with the bytes it sent.
pub struct RpcCaller {
    echo: EchoPort,
    shape: BytesShape,
    source: u32,
    pacing: CallPacing,
    /// Record host-time round trips (the traced UDP run's
    /// `transport.udp_rtt_*`).
    pub host_rtt: bool,
    shared: Shared,
    pacer: Pacer,
    seq: u64,
    available: bool,
    pending: HashMap<RequestId, (u64, Micros, Option<Instant>)>,
}

/// Container-time cadence at which an idle closed-loop caller looks at
/// `go` again.
const CLOSED_LOOP_KICK: ProtoDuration = ProtoDuration(1_000);

impl RpcCaller {
    /// A caller of `function` with `arg_bytes`-byte arguments.
    pub fn new(
        shared: &Shared,
        function: &str,
        arg_bytes: usize,
        source: u32,
        pacing: CallPacing,
    ) -> Self {
        let period = match pacing {
            CallPacing::Every(p) => p,
            CallPacing::OneOutstanding => CLOSED_LOOP_KICK,
        };
        RpcCaller {
            echo: FnPort::new(function),
            shape: BytesShape(arg_bytes),
            source,
            pacing,
            host_rtt: false,
            shared: shared.clone(),
            pacer: Pacer::new(period),
            seq: 0,
            available: false,
            pending: HashMap::new(),
        }
    }

    fn issue(&mut self, ctx: &mut ServiceContext<'_>) {
        let now = ctx.now();
        let args = self.shape.make(&self.shared.gen, self.source, self.seq, now.as_micros());
        let handle = ctx.call_fn(&self.echo, (args,));
        let started = self.host_rtt.then(clock::now);
        self.pending.insert(handle.handle().0, (self.seq, now, started));
        self.seq += 1;
        self.shared.tally().expected[Kind::Reply as usize] += 1;
    }

    /// Calls still waiting for their reply.
    pub fn outstanding(&self) -> usize {
        self.pending.len()
    }
}

impl Service for RpcCaller {
    fn descriptor(&self) -> ServiceDescriptor {
        ServiceDescriptor::builder("rpc-caller").requires_fn(&self.echo).build()
    }
    fn on_start(&mut self, ctx: &mut ServiceContext<'_>) {
        self.pacer.start(ctx);
    }
    fn on_provider_change(&mut self, _ctx: &mut ServiceContext<'_>, notice: &ProviderNotice) {
        match notice {
            ProviderNotice::FunctionAvailable(f) if self.echo.matches(f) => self.available = true,
            ProviderNotice::FunctionUnavailable(f) if self.echo.matches(f) => {
                self.available = false
            }
            _ => {}
        }
    }
    fn on_timer(&mut self, ctx: &mut ServiceContext<'_>, _id: TimerId) {
        let _span = spans::span(Span::HandlerTimer, ctx.local_node().0);
        let lag = self.pacer.fired(ctx);
        if !self.shared.going() {
            return;
        }
        match self.pacing {
            CallPacing::Every(_) if self.available => {
                self.issue(ctx);
                self.shared.tally().lag_us.record(lag);
            }
            // Open loop: a call that was due is owed even when the provider
            // has been declared gone, so load that was never offered shows
            // in `delivery_ratio` instead of vanishing from it.
            CallPacing::Every(_) => self.shared.tally().expected[Kind::Reply as usize] += 1,
            CallPacing::OneOutstanding if self.available && self.pending.is_empty() => {
                self.issue(ctx)
            }
            CallPacing::OneOutstanding => {}
        }
    }
    fn on_reply(
        &mut self,
        ctx: &mut ServiceContext<'_>,
        handle: CallHandle,
        result: Result<Value, CallError>,
    ) {
        let _span = spans::span(Span::HandlerReply, ctx.local_node().0);
        let finished = self.host_rtt.then(clock::now);
        {
            let mut tally = self.shared.tally();
            match (self.pending.remove(&handle.0), result) {
                // A reply to a call that is not pending was answered twice.
                (None, _) => tally.duplicates += 1,
                (Some(_), Err(_)) => tally.call_errors += 1,
                (Some((seq, sent, started)), Ok(value)) => {
                    let echoed = value
                        .as_bytes()
                        .and_then(|b| self.shared.gen.check_bytes(self.source, b, self.shape.0));
                    if echoed.map(|h| h.seq) == Some(seq) {
                        let latency = ctx.now().saturating_since(sent).as_micros();
                        tally.delivered(Kind::Reply, self.shape.bytes(), latency);
                        if let (Some(t0), Some(t1)) = (started, finished) {
                            tally.host_rtt_ns.record(t1.duration_since(t0).as_nanos() as u64);
                        }
                    } else {
                        tally.corrupt += 1;
                    }
                }
            }
        }
        if matches!(self.pacing, CallPacing::OneOutstanding)
            && self.shared.going()
            && self.available
        {
            self.issue(ctx);
        }
    }
}

/// Returns its argument.
pub struct RpcEcho {
    port: EchoPort,
}

impl RpcEcho {
    /// A provider of `function`.
    pub fn new(function: &str) -> Self {
        RpcEcho { port: FnPort::new(function) }
    }
}

impl Service for RpcEcho {
    fn descriptor(&self) -> ServiceDescriptor {
        ServiceDescriptor::builder("rpc-echo").provides_fn(&self.port).build()
    }
    fn on_call(
        &mut self,
        ctx: &mut ServiceContext<'_>,
        _function: &Name,
        args: &[Value],
    ) -> Result<Value, String> {
        let _span = spans::span(Span::HandlerCall, ctx.local_node().0);
        let (data,) = self.port.decode_args(args).map_err(|e| e.to_string())?;
        Ok(self.port.encode_ret(data))
    }
}

// ---- files ----------------------------------------------------------------

/// Publishes a new revision of one file resource at a fixed rate.
pub struct FileSource {
    resource: String,
    shape: BytesShape,
    offers: Offers,
}

impl FileSource {
    /// A publisher of `resource`, `size` bytes per revision.
    pub fn new(
        shared: &Shared,
        resource: &str,
        size: usize,
        source: u32,
        period: ProtoDuration,
        subscribers: u32,
    ) -> Self {
        FileSource {
            resource: resource.to_owned(),
            shape: BytesShape(size),
            offers: Offers::new(shared, Kind::File, source, period, subscribers),
        }
    }
}

impl Service for FileSource {
    fn descriptor(&self) -> ServiceDescriptor {
        ServiceDescriptor::builder("file-source").file_resource(&self.resource).build()
    }
    fn on_start(&mut self, ctx: &mut ServiceContext<'_>) {
        self.offers.pacer.start(ctx);
    }
    fn on_timer(&mut self, ctx: &mut ServiceContext<'_>, _id: TimerId) {
        let _span = spans::span(Span::HandlerTimer, ctx.local_node().0);
        if let Some(data) = self.offers.next(ctx, &self.shape) {
            ctx.publish_file(&self.resource, Bytes::from(data));
        }
    }
}

/// Subscribes to one file resource and checks every completed revision.
pub struct FileSink {
    resource: String,
    shape: BytesShape,
    shared: Shared,
    channel: Channel,
}

impl FileSink {
    /// A subscriber of `resource` (revisions of `size` bytes from
    /// generator source `source`).
    pub fn new(shared: &Shared, resource: &str, size: usize, source: u32) -> Self {
        FileSink {
            resource: resource.to_owned(),
            shape: BytesShape(size),
            shared: shared.clone(),
            channel: Channel::new(resource, source),
        }
    }
}

impl Service for FileSink {
    fn descriptor(&self) -> ServiceDescriptor {
        ServiceDescriptor::builder("file-sink").subscribe_file(&self.resource).build()
    }
    fn on_file_event(&mut self, ctx: &mut ServiceContext<'_>, event: &FileEvent) {
        let FileEvent::Received { data, .. } = event else { return };
        let _span = spans::span(Span::HandlerFile, ctx.local_node().0);
        let header = self.shared.gen.check_bytes(self.channel.source, data, self.shape.0);
        // The publish time travels inside the file, so the sink needs no
        // side channel to the source.
        let latency = header.map_or(0, |h| ctx.now().as_micros().saturating_sub(h.stamp_us));
        let seq = header.map(|h| h.seq);
        account(&self.shared, &mut self.channel, Kind::File, seq, false, self.shape.0, latency);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use marea_core::{ContainerConfig, NodeId, SimHarness};
    use marea_netsim::NetConfig;

    #[test]
    fn a_call_due_without_a_provider_is_owed_not_skipped() {
        let shared = Shared::new(Gen::new(1));
        let mut h = SimHarness::new(NetConfig::default());
        let node = h.add_container(ContainerConfig::new("lonely", NodeId(1)));
        let pacing = CallPacing::Every(ProtoDuration::from_millis(4));
        h.add_service(node, Box::new(RpcCaller::new(&shared, "bench/nobody", 32, 0, pacing)));
        h.start_all();
        shared.go.store(true, Relaxed);
        h.run_for_millis(100);
        let tally = shared.tally();
        let owed = tally.expected[Kind::Reply as usize];
        assert!((24..=25).contains(&owed), "one call fell due every 4 ms for 100 ms, not {owed}");
        assert_eq!(tally.correct_total(), 0);
    }
}
