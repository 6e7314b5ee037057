//! Real-network smoke test: two containers on real UDP loopback sockets,
//! driven by wall-clock time. Verifies that nothing in the middleware
//! depends on the simulation harness.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};

use bytes::Bytes;
use marea::core::{
    CallError, CallHandle, ContainerConfig, EventPort, EventQos, FnPort, Micros, NodeId,
    ProtoDuration, ProviderNotice, Service, ServiceContainer, ServiceContext, ServiceDescriptor,
    SystemClock, TimerId, TypedCallHandle, VarPort, VarQos,
};
use marea::prelude::*;
use marea::transport::{
    Transport, TransportDestination, TransportError, UdpTransport, UdpTransportConfig,
};

struct Pinger {
    seq: VarPort<u64>,
    mark: EventPort<u64>,
}

impl Pinger {
    fn new() -> Self {
        Pinger { seq: VarPort::new("ping/seq"), mark: EventPort::new("ping/mark") }
    }
}

impl Service for Pinger {
    fn descriptor(&self) -> ServiceDescriptor {
        ServiceDescriptor::builder("pinger")
            .provides_var(
                &self.seq,
                VarQos::periodic(ProtoDuration::from_millis(20), ProtoDuration::from_millis(200)),
            )
            .provides_event(&self.mark)
            .build()
    }

    fn on_start(&mut self, ctx: &mut ServiceContext<'_>) {
        ctx.set_timer(ProtoDuration::from_millis(20), Some(ProtoDuration::from_millis(20)));
    }

    fn on_timer(&mut self, ctx: &mut ServiceContext<'_>, _id: TimerId) {
        let n = ctx.now().as_millis();
        ctx.publish_to(&self.seq, n);
        if n % 100 < 20 {
            ctx.emit_to(&self.mark, n);
        }
    }
}

struct Ponger {
    vars: Arc<Mutex<u64>>,
    events: Arc<Mutex<u64>>,
}

impl Service for Ponger {
    fn descriptor(&self) -> ServiceDescriptor {
        ServiceDescriptor::builder("ponger")
            .subscribe_variable("ping/seq", VarQos::default())
            .subscribe_event("ping/mark", EventQos::default())
            .build()
    }

    fn on_variable(&mut self, _ctx: &mut ServiceContext<'_>, _n: &Name, _v: &Value, _s: Micros) {
        *self.vars.lock().unwrap() += 1;
    }

    fn on_event(
        &mut self,
        _ctx: &mut ServiceContext<'_>,
        _n: &Name,
        _v: Option<&Value>,
        _s: Micros,
    ) {
        *self.events.lock().unwrap() += 1;
    }
}

#[test]
fn two_containers_over_real_udp_loopback() {
    // Bind both endpoints first to learn the ephemeral ports.
    let t1 = UdpTransport::bind(UdpTransportConfig::new(1, "127.0.0.1:0")).unwrap();
    let t2 = UdpTransport::bind(UdpTransportConfig::new(2, "127.0.0.1:0")).unwrap();
    let a1 = t1.local_addr().unwrap();
    let a2 = t2.local_addr().unwrap();
    let mut t1 = t1;
    let mut t2 = t2;
    t1.add_peer(2, a2);
    t2.add_peer(1, a1);

    let mut c1 =
        marea::core::ServiceContainer::new(ContainerConfig::new("udp-a", NodeId(1)), Box::new(t1));
    let mut c2 =
        marea::core::ServiceContainer::new(ContainerConfig::new("udp-b", NodeId(2)), Box::new(t2));
    c1.add_service(Box::new(Pinger::new())).unwrap();
    let vars = Arc::new(Mutex::new(0u64));
    let events = Arc::new(Mutex::new(0u64));
    c2.add_service(Box::new(Ponger { vars: vars.clone(), events: events.clone() })).unwrap();

    // Drive both containers from one thread against the wall clock,
    // ticking every millisecond *until the deliveries we wait for have
    // arrived* (bounded by a generous deadline). A fixed-length run would
    // flake on loaded CI machines where the loop is starved of CPU; the
    // convergence condition makes the test state *what* it waits for
    // instead of guessing how long that takes.
    const WANT_VARS: u64 = 30;
    const WANT_EVENTS: u64 = 2;
    let clock = SystemClock::new();
    c1.start(clock.now());
    c2.start(clock.now());
    // marea-lint: allow(D2): real-time UDP smoke test; wall-clock pacing is the point
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    loop {
        let now = clock.now();
        c1.tick(now);
        c2.tick(now);
        let done = *vars.lock().unwrap() >= WANT_VARS && *events.lock().unwrap() >= WANT_EVENTS;
        // marea-lint: allow(D2): real-time UDP smoke test; wall-clock pacing is the point
        if done || std::time::Instant::now() >= deadline {
            break;
        }
        // marea-lint: allow(D2): yields the CPU between real ticks; virtual time does not apply
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    c1.stop(clock.now());
    c2.stop(clock.now());

    let vars = *vars.lock().unwrap();
    let events = *events.lock().unwrap();
    assert!(vars >= WANT_VARS, "real UDP delivered a sample stream: {vars}");
    assert!(events >= WANT_EVENTS, "real UDP delivered reliable events: {events}");
}

fn echo_port() -> FnPort<(u64,), u64> {
    FnPort::new("echo/f")
}

/// Calls `echo/f` with one call outstanding: the first when the provider
/// appears, the next from each reply.
struct Caller {
    answered: Arc<AtomicU64>,
    pending: Option<TypedCallHandle<u64>>,
}

impl Service for Caller {
    fn descriptor(&self) -> ServiceDescriptor {
        ServiceDescriptor::builder("caller").requires_fn(&echo_port()).build()
    }

    fn on_provider_change(&mut self, ctx: &mut ServiceContext<'_>, notice: &ProviderNotice) {
        if matches!(notice, ProviderNotice::FunctionAvailable(_)) {
            self.pending = Some(ctx.call_fn(&echo_port(), (0,)));
        }
    }

    fn on_reply(
        &mut self,
        ctx: &mut ServiceContext<'_>,
        _handle: CallHandle,
        result: Result<Value, CallError>,
    ) {
        let n = self.answered.fetch_add(1, Relaxed);
        let call = self.pending.take().expect("a reply follows a call");
        assert_eq!(call.decode(result), Ok(n));
        self.pending = Some(ctx.call_fn(&echo_port(), (n + 1,)));
    }
}

struct Echo;

impl Service for Echo {
    fn descriptor(&self) -> ServiceDescriptor {
        ServiceDescriptor::builder("echo").provides_fn(&echo_port()).build()
    }

    fn on_call(
        &mut self,
        _ctx: &mut ServiceContext<'_>,
        _function: &Name,
        args: &[Value],
    ) -> Result<Value, String> {
        let (v,) = echo_port().decode_args(args).map_err(|e| e.to_string())?;
        Ok(echo_port().encode_ret(v))
    }
}

/// Counts the datagrams a container hands to its socket.
#[derive(Debug)]
struct CountingSends {
    inner: UdpTransport,
    sends: Arc<AtomicU64>,
}

impl Transport for CountingSends {
    fn local_node(&self) -> u32 {
        self.inner.local_node()
    }
    fn mtu(&self) -> usize {
        self.inner.mtu()
    }
    fn send(&mut self, dest: TransportDestination, datagram: Bytes) -> Result<(), TransportError> {
        self.sends.fetch_add(1, Relaxed);
        self.inner.send(dest, datagram)
    }
    fn recv(&mut self) -> Option<(u32, Bytes)> {
        self.inner.recv()
    }
    fn join(&mut self, group: u32) {
        self.inner.join(group);
    }
    fn leave(&mut self, group: u32) {
        self.inner.leave(group);
    }
}

/// A request shares its datagram with the acknowledgement of the previous
/// reply, and a reply with the acknowledgement of its request: an echo call
/// over real sockets costs two `sendto`s and a share of a parity shard, not
/// the four and a quarter it cost when every frame left alone — discovery
/// and start-up traffic included.
#[test]
fn echo_call_over_udp_costs_at_most_two_and_a_half_datagrams() {
    const CALLS: u64 = 400;
    let sends = Arc::new(AtomicU64::new(0));
    let answered = Arc::new(AtomicU64::new(0));
    let t1 = UdpTransport::bind(UdpTransportConfig::new(1, "127.0.0.1:0")).unwrap();
    let t2 = UdpTransport::bind(UdpTransportConfig::new(2, "127.0.0.1:0")).unwrap();
    let (a1, a2) = (t1.local_addr().unwrap(), t2.local_addr().unwrap());
    let mut pair = [(t1, 2, a2), (t2, 1, a1)].map(|(mut inner, peer, addr)| {
        inner.add_peer(peer, addr);
        let node = NodeId(inner.local_node());
        let transport = CountingSends { inner, sends: sends.clone() };
        ServiceContainer::new(ContainerConfig::new("udp-echo", node), Box::new(transport))
    });
    pair[0].add_service(Box::new(Caller { answered: answered.clone(), pending: None })).unwrap();
    pair[1].add_service(Box::new(Echo)).unwrap();

    // The container clock is a counter (100 µs a pass): loopback delivers
    // between one tick and the next, and no timer here needs the wall.
    let mut now = Micros::ZERO;
    pair.iter_mut().for_each(|c| c.start(now));
    for _ in 0..1_000_000 {
        if answered.load(Relaxed) >= CALLS {
            break;
        }
        now = Micros(now.as_micros() + 100);
        pair.iter_mut().for_each(|c| c.tick(now));
    }
    let (answered, sends) = (answered.load(Relaxed), sends.load(Relaxed));
    assert!(answered >= CALLS, "only {answered} calls answered");
    let stats = pair.each_ref().map(|c| c.stats());
    assert_eq!(stats[0].datagrams_out + stats[1].datagrams_out, sends);
    assert_eq!(stats[0].frames_rejected + stats[1].frames_rejected, 0);
    let per_call = sends as f64 / answered as f64;
    assert!(per_call <= 2.5, "{sends} datagrams for {answered} calls: {per_call:.2} per call");
}
