//! The staging rules, seen from the transport: what a container hands to
//! `Transport::send` over a seeded mixed script — variables, events, calls,
//! fragmented blobs and files, to the same and to different peers, FEC on —
//! is one datagram per destination per MTU per tick, and obeys the rules of
//! DESIGN.md §3.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};

use bytes::Bytes;
use marea_core::{
    directory_cap_bytes, fec_cap_bytes, loan_cap_bytes, trace_cap_bytes, ContainerConfig,
    EventPort, EventQos, FnPort, Micros, NodeId, ProtoDuration, Service, ServiceContainer,
    ServiceContext, ServiceDescriptor, SimHarness, TimerId, VarPort, VarQos, SCRATCH_CAP_BYTES,
};
use marea_encoding::WireWriter;
use marea_netsim::{Destination, LinkConfig, NetConfig, SimNet};
use marea_presentation::{Name, Value};
use marea_protocol::fec::PARITY_INDEX_BIT;
use marea_protocol::{frames, Frame, Message, MessageKind};
use marea_transport::{
    SimLanTransport, Transport, TransportDestination, TransportError, UdpTransport,
    UdpTransportConfig,
};

const TICK_US: u64 = 500;
const NODES: u32 = 3;

/// One `Transport::send` call, as the transport saw it.
#[derive(Debug, Clone, PartialEq)]
struct Sent {
    at_us: u64,
    node: u32,
    dest: TransportDestination,
    datagram: Bytes,
}

/// A `SimLanTransport` that writes down every datagram it is handed,
/// stamped with the driver's clock.
#[derive(Debug)]
struct Recording {
    inner: SimLanTransport,
    clock: Arc<AtomicU64>,
    sent: Arc<Mutex<Vec<Sent>>>,
}

impl Transport for Recording {
    fn local_node(&self) -> u32 {
        self.inner.local_node()
    }
    fn mtu(&self) -> usize {
        self.inner.mtu()
    }
    fn send(&mut self, dest: TransportDestination, datagram: Bytes) -> Result<(), TransportError> {
        let (at_us, node) = (self.clock.load(Relaxed), self.local_node());
        self.sent.lock().unwrap().push(Sent { at_us, node, dest, datagram: datagram.clone() });
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

fn var_port(node: u32) -> VarPort<u64> {
    VarPort::new(&format!("n{node}/v"))
}
fn blob_port(node: u32) -> VarPort<Vec<u8>> {
    VarPort::new(&format!("n{node}/blob"))
}
fn event_port(node: u32) -> EventPort<u64> {
    EventPort::new(&format!("n{node}/e"))
}
fn fn_port(node: u32) -> FnPort<(u64,), u64> {
    FnPort::new(&format!("n{node}/f"))
}
fn file_name(node: u32) -> String {
    format!("n{node}/file")
}

/// Provides one of everything, consumes every other node's, and every 2 ms
/// does whatever its seeded generator draws — often several things at
/// once, so frames for one peer pile up inside a tick.
struct Actor {
    node: u32,
    rng: u64,
}

impl Actor {
    fn draw(&mut self) -> u64 {
        // xorshift64*: the script is a function of the seed alone.
        self.rng ^= self.rng >> 12;
        self.rng ^= self.rng << 25;
        self.rng ^= self.rng >> 27;
        self.rng.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 16
    }
}

impl Service for Actor {
    fn descriptor(&self) -> ServiceDescriptor {
        let mut b = ServiceDescriptor::builder(&format!("actor{}", self.node));
        b.provides_var(&var_port(self.node), VarQos::default());
        b.provides_var(&blob_port(self.node), VarQos::default());
        b.provides_event(&event_port(self.node));
        b.provides_fn(&fn_port(self.node));
        b.file_resource(&file_name(self.node));
        for other in (1..=NODES).filter(|n| *n != self.node) {
            b.subscribe_to_var(&var_port(other), VarQos::default());
            b.subscribe_to_var(&blob_port(other), VarQos::default());
            b.subscribe_to_event(&event_port(other), EventQos::default());
            b.requires_fn(&fn_port(other));
            b.subscribe_file(&file_name(other));
        }
        b.build()
    }

    fn on_start(&mut self, ctx: &mut ServiceContext<'_>) {
        ctx.set_timer(ProtoDuration::from_millis(2), Some(ProtoDuration::from_millis(2)));
    }

    fn on_timer(&mut self, ctx: &mut ServiceContext<'_>, _id: TimerId) {
        let draw = self.draw();
        let peer = (1..=NODES).filter(|n| *n != self.node).nth((draw % 2) as usize).unwrap();
        if draw & 0x10 != 0 {
            ctx.publish_to(&var_port(self.node), draw);
        }
        for i in 0..(draw >> 8) % 4 {
            ctx.emit_to(&event_port(self.node), draw + i);
        }
        if draw & 0x20 != 0 {
            ctx.call_fn(&fn_port(peer), (draw,));
        }
        match (draw >> 16) % 64 {
            0 => ctx.publish_to(&blob_port(self.node), vec![self.node as u8; 4000]),
            1 => ctx.publish_file(&file_name(self.node), Bytes::from(vec![self.node as u8; 6000])),
            _ => {}
        }
    }

    fn on_call(
        &mut self,
        _ctx: &mut ServiceContext<'_>,
        _function: &Name,
        args: &[Value],
    ) -> Result<Value, String> {
        let (v,) = fn_port(self.node).decode_args(args).map_err(|e| e.to_string())?;
        Ok(fn_port(self.node).encode_ret(v.wrapping_mul(3)))
    }
}

/// Runs the three-node script for `run_ms` on a loss-free LAN, ticking
/// every container on every grid step, with the flight recorder of node
/// `untraced` (if any) off; answers every send, in order, and the
/// containers as they ended.
fn run(seed: u64, run_ms: u64, untraced: Option<u32>) -> (Vec<Sent>, Vec<ServiceContainer>) {
    let net = SimNet::new(NetConfig::default().with_seed(seed));
    let clock = Arc::new(AtomicU64::new(0));
    let sent = Arc::new(Mutex::new(Vec::new()));
    let mut nodes: Vec<ServiceContainer> = (1..=NODES)
        .map(|n| {
            let transport = Recording {
                inner: SimLanTransport::attach(&net, n),
                clock: clock.clone(),
                sent: sent.clone(),
            };
            let mut config = ContainerConfig::new("actor", NodeId(n));
            if untraced == Some(n) {
                config.trace_capacity = 0;
            }
            let mut c = ServiceContainer::new(config, Box::new(transport));
            let rng = seed ^ u64::from(n).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            c.add_service(Box::new(Actor { node: n, rng })).unwrap();
            c.start(Micros::ZERO);
            c
        })
        .collect();
    for step in 1..=run_ms * 1000 / TICK_US {
        let now_us = step * TICK_US;
        clock.store(now_us, Relaxed);
        net.advance_to(now_us);
        for c in &mut nodes {
            c.tick(Micros(now_us));
            // Asserts (debug builds) that the tick left nothing staged.
            let _ = c.next_due();
        }
    }
    let sent = std::mem::take(&mut *sent.lock().unwrap());
    (sent, nodes)
}

/// The messages of one datagram; panics on a frame its receiver would
/// reject — the container never sends one.
fn messages(datagram: &Bytes) -> Vec<Message> {
    frames(datagram)
        .map(|frame| Message::from_frame(&frame.expect("sent frame is valid")).expect("and parses"))
        .collect()
}

#[test]
fn every_datagram_obeys_the_staging_rules() {
    let (sent, nodes) = run(0x5EED_1107, 600, None);
    let mtu = 1500;

    let mut frame_count = 0usize;
    let mut coalesced = 0usize;
    let mut shards = 0usize;
    // Per (sender, destination): the last reliable seq, sample seq per
    // variable and fragment position seen — each only ever moves forward
    // in staging order, so it must in wire order.
    let mut arq_seq: BTreeMap<(u32, String), u64> = BTreeMap::new();
    let mut var_seq: BTreeMap<(u32, String), u64> = BTreeMap::new();
    let mut frag_pos: BTreeMap<(u32, String), (u64, u32)> = BTreeMap::new();
    let mut sends_per_tick: BTreeMap<(u64, u32, String), usize> = BTreeMap::new();

    for s in &sent {
        assert!(s.datagram.len() <= mtu, "{} bytes to {:?}", s.datagram.len(), s.dest);
        let msgs = messages(&s.datagram);
        assert!(!msgs.is_empty(), "empty datagram to {:?}", s.dest);
        frame_count += msgs.len();
        coalesced += usize::from(msgs.len() > 1);
        let dest = format!("{:?}", s.dest);
        *sends_per_tick.entry((s.at_us, s.node, dest.clone())).or_default() += 1;

        let in_datagram: Vec<(u64, bool)> = msgs
            .iter()
            .filter_map(|m| match m {
                Message::FecShard { group, index, .. } => {
                    Some((*group, index & PARITY_INDEX_BIT != 0))
                }
                _ => None,
            })
            .collect();
        assert!(in_datagram.len() <= 1, "{in_datagram:?} share a datagram to {:?}", s.dest);
        for (group, parity) in &in_datagram {
            let rides_with_its_data = *parity && in_datagram.iter().any(|(g, p)| g == group && !p);
            assert!(!rides_with_its_data, "parity of group {group} rides with its data");
        }
        shards += in_datagram.len();

        for m in &msgs {
            match m {
                // Nothing is staged across a tick: what a tick stamps
                // leaves during that tick.
                Message::VarSample { name, seq, stamp_us, .. } => {
                    assert_eq!(*stamp_us, s.at_us, "sample of {name} left late");
                    let last = var_seq.insert((s.node, name.to_string()), *seq);
                    assert!(last < Some(*seq), "{name}: seq {seq} behind {last:?}");
                }
                Message::FecShard { index, payload, .. } if index & PARITY_INDEX_BIT == 0 => {
                    let inner = Message::decode_tagged_shared(payload).expect("data shard");
                    let Message::RelData { seq, .. } = inner else {
                        panic!("a data shard wraps RelData, not {inner:?}")
                    };
                    // Loss-free LAN: no retransmission ever reorders these.
                    let last = arq_seq.insert((s.node, dest.clone()), seq);
                    assert!(last < Some(seq), "to {dest}: reliable seq {seq} behind {last:?}");
                }
                Message::Fragment { msg_id, index, .. } => {
                    let last = frag_pos.insert((s.node, dest.clone()), (*msg_id, *index));
                    assert!(last < Some((*msg_id, *index)), "to {dest}: fragment out of order");
                }
                _ => {}
            }
        }
    }

    // One datagram per destination per tick unless a rule closed one: the
    // script does fill MTUs (blobs, files) and does stage several shards
    // for one peer (event bursts), so both must have happened — and most
    // ticks must still have needed a single send.
    assert!(coalesced > 100, "{coalesced} of {} datagrams coalesced", sent.len());
    assert!(shards > 100, "the script exercised FEC: {shards} shards");
    assert!(sends_per_tick.values().any(|n| *n > 1), "no tick ever closed a datagram");
    let single = sends_per_tick.values().filter(|n| **n == 1).count();
    assert!(single * 2 > sends_per_tick.len(), "{single} of {} single", sends_per_tick.len());

    // The counters say what the transport saw.
    let stats: Vec<_> = nodes.iter().map(ServiceContainer::stats).collect();
    assert_eq!(stats.iter().map(|s| s.datagrams_out).sum::<u64>(), sent.len() as u64);
    assert_eq!(stats.iter().map(|s| s.frames_out).sum::<u64>(), frame_count as u64);
    let bytes: usize = sent.iter().map(|s| s.datagram.len()).sum();
    assert_eq!(stats.iter().map(|s| s.bytes_out).sum::<u64>(), bytes as u64);
    assert!(stats.iter().all(|s| s.frames_rejected == 0 && s.datagrams_in > 0));
    assert!(
        stats.iter().all(|s| s.frames_in > s.datagrams_in),
        "nobody received a coalesced datagram"
    );
    assert!(stats.iter().all(|s| s.calls_made > 0 && s.events_delivered > 0), "{stats:?}");
}

#[test]
fn same_seed_sends_the_same_datagrams() {
    let (first, _) = run(0x5EED_2903, 300, None);
    let (second, _) = run(0x5EED_2903, 300, None);
    assert!(first.len() > 500, "{} datagrams", first.len());
    assert_eq!(first, second);
    let (other, _) = run(0x5EED_2904, 300, None);
    assert_ne!(first, other, "the seed does not reach the script");
}

/// The trace counters a datagram carries, by message kind: on samples,
/// events and requests, and on every one a reliable envelope or a data
/// shard wraps. A reply's counter is the caller's, so replies are left out.
fn trace_counters(datagram: &Bytes) -> Vec<(MessageKind, u64)> {
    fn walk(m: Message, out: &mut Vec<(MessageKind, u64)>) {
        let kind = m.kind();
        match m {
            Message::VarSample { trace, .. }
            | Message::EventData { trace, .. }
            | Message::CallRequest { trace, .. } => out.push((kind, trace)),
            Message::RelData { payload, .. } => {
                walk(Message::decode_tagged(&payload).unwrap(), out)
            }
            Message::FecShard { index, payload, .. } if index & PARITY_INDEX_BIT == 0 => {
                walk(Message::decode_tagged(&payload).unwrap(), out)
            }
            _ => {}
        }
    }
    let mut out = Vec::new();
    for m in messages(datagram) {
        walk(m, &mut out);
    }
    out
}

/// A container whose recorder is off (`trace_capacity` 0) stamps trace
/// counter 0 on everything it originates and records nothing — no ring,
/// no latency histogram — while its traced peers do both.
#[test]
fn a_node_without_a_recorder_sends_no_trace_ids_and_records_nothing() {
    let (sent, nodes) = run(0x5EED_1107, 300, Some(1));
    let mut counters: BTreeMap<(u32, MessageKind), (usize, usize)> = BTreeMap::new();
    for s in &sent {
        for (kind, trace) in trace_counters(&s.datagram) {
            let (all, untraced) = counters.entry((s.node, kind)).or_default();
            *all += 1;
            *untraced += usize::from(trace == 0);
        }
    }
    for kind in [MessageKind::VarSample, MessageKind::EventData, MessageKind::CallRequest] {
        let (all, untraced) = counters[&(1, kind)];
        assert!(all > 0 && untraced == all, "node 1 {kind:?}: {untraced} of {all} untraced");
        let (all, untraced) = counters[&(2, kind)];
        assert!(all > 0 && untraced == 0, "node 2 {kind:?}: {untraced} of {all} untraced");
    }
    let [quiet, traced, _] = [0, 1, 2].map(|i| (nodes[i].trace_ring(), nodes[i].stats()));
    assert!(quiet.0.is_empty() && quiet.0.evicted() == 0, "{:?}", quiet.0);
    assert!(!traced.0.is_empty());
    let histograms = |s: &marea_core::ContainerStats| {
        [s.publish_to_deliver, s.event_to_deliver, s.call_rtt].map(|h| h.count())
    };
    assert_eq!(histograms(&quiet.1), [0; 3]);
    assert!(histograms(&traced.1).iter().all(|n| *n > 0), "{:?}", histograms(&traced.1));
    assert!(quiet.1.var_samples_delivered > 0 && quiet.1.calls_made > 0, "{:?}", quiet.1);
}

/// Emits a burst of events every 5 ms: several data shards for the one
/// peer per tick, the shape in which parity riding with its own group's
/// data would be lost together with it.
struct Burster(EventPort<u64>);

impl Service for Burster {
    fn descriptor(&self) -> ServiceDescriptor {
        ServiceDescriptor::builder("burster").provides_event(&self.0).build()
    }
    fn on_start(&mut self, ctx: &mut ServiceContext<'_>) {
        ctx.set_timer(ProtoDuration::from_millis(5), Some(ProtoDuration::from_millis(5)));
    }
    fn on_timer(&mut self, ctx: &mut ServiceContext<'_>, _id: TimerId) {
        for i in 0..3 {
            ctx.emit_to(&self.0, ctx.now().as_micros() + i);
        }
    }
}

struct Listener(EventPort<u64>);

impl Service for Listener {
    fn descriptor(&self) -> ServiceDescriptor {
        ServiceDescriptor::builder("listener")
            .subscribe_to_event(&self.0, EventQos::default())
            .build()
    }
}

#[test]
fn fec_still_repairs_a_lossy_link_and_arq_abandons_nothing() {
    let link = LinkConfig::default().with_loss(0.10);
    let mut h = SimHarness::new(NetConfig::default().with_seed(1107).with_default_link(link));
    for n in [1, 2] {
        let mut config = ContainerConfig::new("node", NodeId(n));
        // Loss must not also cost the directory its peer (ROADMAP item 1).
        config.node_timeout = ProtoDuration::from_secs(30);
        h.add_container(config);
    }
    h.add_service(NodeId(1), Box::new(Burster(EventPort::new("burst/e"))));
    h.add_service(NodeId(2), Box::new(Listener(EventPort::new("burst/e"))));
    h.start_all();
    h.run_for(ProtoDuration::from_secs(10));

    let (tx, rx) = (h.container(NodeId(1)).unwrap(), h.container(NodeId(2)).unwrap());
    let published = tx.stats().events_published;
    assert!(published > 5_000, "{published} events published");
    assert!(rx.stats().events_delivered + 100 > published, "{:?}", rx.stats());
    assert!(rx.stats().fec.recovered > 0, "parity repaired nothing: {:?}", rx.stats().fec);
    assert_eq!(tx.arq_stats().failed + rx.arq_stats().failed, 0, "reliable delivery abandoned");
    // Datagrams were lost, whole; none arrived damaged.
    assert!(h.network().stats().dropped_loss > 0);
    assert_eq!(tx.stats().frames_rejected + rx.stats().frames_rejected, 0);
}

/// One of two hundred: a service whose only job is to be a catalogue entry.
struct Filler(u32);

impl Service for Filler {
    fn descriptor(&self) -> ServiceDescriptor {
        let port = EventPort::<u64>::new(&format!("filler{}/e", self.0));
        ServiceDescriptor::builder(&format!("filler{}", self.0)).provides_event(&port).build()
    }
}

fn big_port() -> EventPort<Vec<u8>> {
    EventPort::new("heavy/big")
}
fn small_port() -> EventPort<u64> {
    EventPort::new("heavy/small")
}

/// First timer: one 64 KiB event. Second: a thousand small ones, from one
/// handler run.
struct Heavy {
    timers_seen: u32,
}

impl Service for Heavy {
    fn descriptor(&self) -> ServiceDescriptor {
        let mut b = ServiceDescriptor::builder("heavy");
        b.provides_event(&big_port()).provides_event(&small_port());
        b.build()
    }
    fn on_start(&mut self, ctx: &mut ServiceContext<'_>) {
        ctx.set_timer(ProtoDuration::from_secs(3), Some(ProtoDuration::from_secs(1)));
    }
    fn on_timer(&mut self, ctx: &mut ServiceContext<'_>, _id: TimerId) {
        self.timers_seen += 1;
        match self.timers_seen {
            1 => ctx.emit_to(&big_port(), vec![7u8; 64 * 1024]),
            2 => (0..1_000).for_each(|i| ctx.emit_to(&small_port(), i)),
            _ => {}
        }
    }
}

struct HeavyListener;

impl Service for HeavyListener {
    fn descriptor(&self) -> ServiceDescriptor {
        let mut b = ServiceDescriptor::builder("heavy-listener");
        b.subscribe_to_event(&big_port(), EventQos::default());
        b.subscribe_to_event(&small_port(), EventQos::default());
        b.build()
    }
}

/// The scratch buffers the reliable path keeps across ticks are bounded:
/// what a 64 KiB message, a 200-entry catalogue and a thousand-effect
/// handler run grew them to is given back as soon as it has been used.
#[test]
fn retained_scratch_returns_under_its_cap_after_large_messages() {
    let mut h = SimHarness::new(NetConfig::default());
    h.add_container(ContainerConfig::new("a", NodeId(1)));
    h.add_container(ContainerConfig::new("b", NodeId(2)));
    for i in 0..200 {
        h.add_service(NodeId(1), Box::new(Filler(i)));
    }
    h.add_service(NodeId(1), Box::new(Heavy { timers_seen: 0 }));
    h.add_service(NodeId(2), Box::new(HeavyListener));
    h.start_all();

    let scratch = |h: &SimHarness, node: u32| {
        h.container(NodeId(node)).expect("container").occupancy().scratch_bytes
    };
    let mut peak = 0;
    // After set-up and the catalogue, after the 64 KiB event, after the burst.
    for (until_ms, delivered) in [(2_900, 0), (3_900, 1), (6_000, 1_001)] {
        while h.now().as_micros() < until_ms * 1_000 {
            h.run_for(ProtoDuration::from_millis(1));
            for node in [1, 2] {
                let kept = scratch(&h, node);
                assert!(kept <= SCRATCH_CAP_BYTES, "node {node} keeps {kept} bytes of scratch");
                peak = peak.max(kept);
            }
        }
        let listener = h.container(NodeId(2)).expect("listener");
        assert_eq!(listener.stats().events_delivered, delivered, "by {until_ms} ms");
    }
    assert!(peak > 0, "the gauge never saw a buffer in use");
    let sender = h.container(NodeId(1)).expect("sender");
    assert_eq!(sender.directory().provision_count(), 202, "the catalogue is the large one");
    assert!(sender.stats().frames_out > 1_000 + 64 * 1024 / 1_500);
}

/// Emits one 16 KiB event every 100 ms from its first second on.
struct BigEvents;

impl Service for BigEvents {
    fn descriptor(&self) -> ServiceDescriptor {
        ServiceDescriptor::builder("big-events").provides_event(&big_port()).build()
    }
    fn on_start(&mut self, ctx: &mut ServiceContext<'_>) {
        ctx.set_timer(ProtoDuration::from_secs(1), Some(ProtoDuration::from_millis(100)));
    }
    fn on_timer(&mut self, ctx: &mut ServiceContext<'_>, _id: TimerId) {
        ctx.emit_to(&big_port(), vec![0xB6; 16 * 1024]);
    }
}

/// The storage the wire path keeps for reuse is bounded: over real UDP
/// sockets — so the transport copies every datagram it receives — a
/// 16 KiB reliable event every 100 ms (fragments, FEC shards, acks), then a
/// 60 KiB datagram from a socket that is no peer. Every millisecond, each
/// container keeps at most its cap of loans.
#[test]
fn loans_stay_under_their_cap_on_a_udp_pair() {
    let bind = |node| UdpTransport::bind(UdpTransportConfig::new(node, "127.0.0.1:0")).unwrap();
    let (mut ta, mut tb) = (bind(1), bind(2));
    let (addr_a, addr_b) = (ta.local_addr().unwrap(), tb.local_addr().unwrap());
    ta.add_peer(2, addr_b);
    tb.add_peer(1, addr_a);
    let mut a = ServiceContainer::new(ContainerConfig::new("a", NodeId(1)), Box::new(ta));
    let mut b = ServiceContainer::new(ContainerConfig::new("b", NodeId(2)), Box::new(tb));
    a.add_service(Box::new(BigEvents)).unwrap();
    b.add_service(Box::new(HeavyListener)).unwrap();
    a.start(Micros::ZERO);
    b.start(Micros::ZERO);

    let mut peak = 0;
    let mut run_ms = |a: &mut ServiceContainer, b: &mut ServiceContainer, from: u64, to: u64| {
        for ms in from..to {
            for c in [&mut *a, &mut *b] {
                c.tick(Micros::from_millis(ms));
                let o = c.occupancy();
                assert!(o.loan_bytes <= loan_cap_bytes(o.links), "{} at {ms} ms: {o:?}", c.node());
                peak = peak.max(o.loan_bytes);
            }
        }
    };
    run_ms(&mut a, &mut b, 1, 3_000);
    let delivered = b.stats().events_delivered;
    assert!(delivered >= 10, "{delivered} 16 KiB events delivered");
    assert!(a.occupancy().links == 1 && a.stats().frames_out > 10 * 16 * 1024 / 1_400);

    let before = b.stats();
    let raw = std::net::UdpSocket::bind("127.0.0.1:0").unwrap();
    raw.send_to(&vec![0x5A; 60 * 1024], addr_b).unwrap();
    run_ms(&mut a, &mut b, 3_000, 3_100);
    let after = b.stats();
    assert_eq!(after.frames_rejected, before.frames_rejected + 1, "the 60 KiB datagram arrived");
    assert!(peak > 0, "the gauge never saw a loan");
}

/// Publishes its own variable every 10 ms and subscribes to every other
/// node's: the only reliable messages are the subscriptions.
struct Reporter {
    node: u32,
    nodes: u32,
}

impl Service for Reporter {
    fn descriptor(&self) -> ServiceDescriptor {
        let mut b = ServiceDescriptor::builder(&format!("reporter{}", self.node));
        b.provides_var(&var_port(self.node), VarQos::default());
        for other in (1..=self.nodes).filter(|n| *n != self.node) {
            b.subscribe_to_var(&var_port(other), VarQos::default());
        }
        b.build()
    }
    fn on_start(&mut self, ctx: &mut ServiceContext<'_>) {
        ctx.set_timer(ProtoDuration::from_millis(10), Some(ProtoDuration::from_millis(10)));
    }
    fn on_timer(&mut self, ctx: &mut ServiceContext<'_>, _id: TimerId) {
        ctx.publish_to(&var_port(self.node), ctx.now().as_micros());
    }
}

/// A link's FEC lanes hold the shards it carried: in a fleet whose
/// reliable traffic is its subscriptions, each link keeps a few dozen
/// bytes of them, where lanes sized for the largest shard kept
/// 10 × 1 202 bytes per link. 32 bytes since a subscription names no node
/// (64 while it carried the subscriber's 4-byte id, which took the longest
/// shard past 32 bytes).
#[test]
fn fec_lanes_of_a_subscription_fleet_hold_what_it_carried() {
    const NODES: u32 = 6;
    let mut h = SimHarness::new(NetConfig::default().with_seed(1107));
    for n in 1..=NODES {
        h.add_container(ContainerConfig::new("reporter", NodeId(n)));
        h.add_service(NodeId(n), Box::new(Reporter { node: n, nodes: NODES }));
    }
    h.start_all();
    h.run_for(ProtoDuration::from_secs(3));
    for n in 1..=NODES {
        let c = h.container(NodeId(n)).expect("container");
        let o = c.occupancy();
        assert_eq!(o.links, NODES as usize - 1, "node {n}: {o:?}");
        assert_eq!(o.vars_bound, NODES as usize - 1, "node {n}: {o:?}");
        assert!(c.stats().fec.data_shards_out > 0, "the subscriptions went uncoded");
        assert!(o.fec_bytes <= fec_cap_bytes(o.links), "node {n}: {o:?}");
        assert_eq!(o.fec_bytes / o.links, 32, "node {n}: {o:?}");
    }
}

/// A flight recorder at the default 1 024 records holds 32-byte slots and
/// a context table of a few entries: at most 33 KiB per node once every
/// ring has filled, where whole 64-byte events took 64 KiB for the slots
/// alone.
#[test]
fn a_full_flight_recorder_holds_32_bytes_a_record() {
    const NODES: u32 = 6;
    let mut h = SimHarness::new(NetConfig::default().with_seed(1107));
    for n in 1..=NODES {
        h.add_container(ContainerConfig::new("reporter", NodeId(n)));
        h.add_service(NodeId(n), Box::new(Reporter { node: n, nodes: NODES }));
    }
    h.start_all();
    for ms in (100..=3_000).step_by(100) {
        h.run_until_us(ms * 1_000);
        for n in 1..=NODES {
            let c = h.container(NodeId(n)).expect("container");
            let capacity = ContainerConfig::new("reporter", NodeId(n)).trace_capacity;
            let o = c.occupancy();
            assert!(o.trace_bytes <= trace_cap_bytes(capacity), "node {n} at {ms} ms: {o:?}");
            assert!(o.trace_bytes <= 33 * 1024, "node {n} at {ms} ms: {o:?}");
        }
    }
    for n in 1..=NODES {
        let ring = h.container(NodeId(n)).expect("container").trace_ring();
        assert_eq!(ring.len(), 1024, "node {n}: the ring filled");
        assert!(ring.contexts() <= 2 * NODES as usize, "node {n}: {} contexts", ring.contexts());
    }
}

/// The same fleet's recorders hold encoded records of about 10 bytes: at
/// most 12 KiB per node once every ring has filled.
#[test]
fn a_full_flight_recorder_holds_about_10_bytes_a_record() {
    const NODES: u32 = 6;
    let mut h = SimHarness::new(NetConfig::default().with_seed(1107));
    for n in 1..=NODES {
        h.add_container(ContainerConfig::new("reporter", NodeId(n)));
        h.add_service(NodeId(n), Box::new(Reporter { node: n, nodes: NODES }));
    }
    h.start_all();
    for ms in (100..=3_000).step_by(100) {
        h.run_until_us(ms * 1_000);
        for n in 1..=NODES {
            let o = h.container(NodeId(n)).expect("container").occupancy();
            assert!(o.trace_bytes <= 12 * 1024, "node {n} at {ms} ms: {o:?}");
        }
    }
    for n in 1..=NODES {
        let ring = h.container(NodeId(n)).expect("container").trace_ring();
        assert_eq!(ring.len(), 1024, "node {n}: the ring filled");
    }
}

/// Provides one event that no node uses.
struct Alarm(u32);

impl Service for Alarm {
    fn descriptor(&self) -> ServiceDescriptor {
        let mut b = ServiceDescriptor::builder("alarm");
        b.provides_event(&EventPort::<u64>::new(&format!("n{}/alarm", self.0)));
        b.build()
    }
}

/// Node 1's directory bytes once it holds every node of a `nodes`-node
/// fleet, each with an [`Alarm`] when `alarm` is set.
fn directory_bytes(nodes: u32, alarm: bool) -> usize {
    let mut h = SimHarness::new(NetConfig::default().with_seed(1107));
    for n in 1..=nodes {
        let mut cfg = ContainerConfig::new("peer", NodeId(n));
        cfg.trace_capacity = 0;
        h.add_container(cfg);
        if alarm {
            h.add_service(NodeId(n), Box::new(Alarm(n)));
        }
    }
    h.start_all();
    let names = if alarm { nodes as usize } else { 0 };
    let settled = |h: &SimHarness| {
        let o = h.container(NodeId(1)).expect("container").occupancy();
        o.directory_nodes == nodes as usize && o.directory_provisions == names
    };
    assert!(h.run_until(settled, ProtoDuration::from_secs(5)), "{nodes} nodes settle");
    let o = h.container(NodeId(1)).expect("container").occupancy();
    let cap = directory_cap_bytes(o.directory_nodes, o.directory_pairs, o.directory_whole);
    assert!(o.directory_bytes <= cap, "{nodes} nodes: {o:?} over {cap}");
    assert_eq!(o.directory_pairs, names.saturating_sub(1), "all but its own");
    o.directory_bytes
}

/// What one more peer costs every directory of the fleet, over 64, 128
/// and 256 nodes: a peer with no catalogue is its liveness record and
/// expiry entry, at most 64 bytes; a peer offering one event that no node
/// uses adds a pair, at most 100 bytes — not the
/// event's full provider entry.
#[test]
fn a_peer_costs_every_directory_its_record_and_a_pair_per_provision() {
    for (alarm, limit) in [(false, 64), (true, 100)] {
        let bytes = [64, 128, 256].map(|nodes| directory_bytes(nodes, alarm));
        for (i, pair) in bytes.windows(2).enumerate() {
            let peers = 64 << i;
            let per_peer = (pair[1] - pair[0]) / peers;
            assert!(per_peer <= limit, "alarm {alarm}: {per_peer} B a peer over {bytes:?}");
        }
    }
}

/// Emits three small events every 5 ms and one of 1 100 bytes — nearly the
/// largest shard FEC codes — every 50 ms; subscribes to every other
/// node's.
struct Mixer {
    node: u32,
    nodes: u32,
    timers_seen: u32,
}

fn mixer_port(node: u32) -> EventPort<Vec<u8>> {
    EventPort::new(&format!("n{node}/mix"))
}

impl Service for Mixer {
    fn descriptor(&self) -> ServiceDescriptor {
        let mut b = ServiceDescriptor::builder(&format!("mixer{}", self.node));
        b.provides_event(&event_port(self.node)).provides_event(&mixer_port(self.node));
        for other in (1..=self.nodes).filter(|n| *n != self.node) {
            b.subscribe_to_event(&event_port(other), EventQos::default());
            b.subscribe_to_event(&mixer_port(other), EventQos::default());
        }
        b.build()
    }
    fn on_start(&mut self, ctx: &mut ServiceContext<'_>) {
        ctx.set_timer(ProtoDuration::from_millis(5), Some(ProtoDuration::from_millis(5)));
    }
    fn on_timer(&mut self, ctx: &mut ServiceContext<'_>, _id: TimerId) {
        self.timers_seen += 1;
        for i in 0..3 {
            ctx.emit_to(&event_port(self.node), ctx.now().as_micros() + i);
        }
        if self.timers_seen.is_multiple_of(10) {
            ctx.emit_to(&mixer_port(self.node), vec![self.node as u8; 1_100]);
        }
    }
}

/// On 10 %-loss links, where parity flows and decoders rotate through
/// their ring, every container's FEC lanes stay within their cap every
/// millisecond, and the large events do grow them.
#[test]
fn fec_lanes_stay_under_their_cap_on_lossy_links() {
    const NODES: u32 = 3;
    let link = LinkConfig::default().with_loss(0.10);
    let mut h = SimHarness::new(NetConfig::default().with_seed(1107).with_default_link(link));
    for n in 1..=NODES {
        let mut config = ContainerConfig::new("mixer", NodeId(n));
        // Loss must not also cost the directory its peer (ROADMAP item 1).
        config.node_timeout = ProtoDuration::from_secs(30);
        h.add_container(config);
        h.add_service(NodeId(n), Box::new(Mixer { node: n, nodes: NODES, timers_seen: 0 }));
    }
    h.start_all();
    let mut peak = 0;
    for ms in 0..5_000 {
        h.run_for(ProtoDuration::from_millis(1));
        for n in 1..=NODES {
            let o = h.container(NodeId(n)).expect("container").occupancy();
            assert!(o.fec_bytes <= fec_cap_bytes(o.links), "node {n} at {ms} ms: {o:?}");
            peak = peak.max(o.fec_bytes);
        }
    }
    let c = h.container(NodeId(1)).expect("container");
    assert!(c.stats().fec.recovered > 0, "parity repaired nothing: {:?}", c.stats().fec);
    assert!(c.stats().events_delivered > 2 * 2_000, "{:?}", c.stats());
    assert!(peak > 2 * 1_100, "the large events grew no lane: {peak}");
}

fn echo_port() -> FnPort<(Vec<u8>,), Vec<u8>> {
    FnPort::new("echo/bytes")
}

/// Arguments of the echo calls made at `ms`: 256 B, 16 KiB from 1.5 s,
/// 256 B again from 2.5 s.
fn echo_arg_len(ms: u64) -> usize {
    if (1_500..2_500).contains(&ms) {
        16 * 1024
    } else {
        256
    }
}

/// Calls the echo function every 10 ms from its first second on and counts
/// the replies that came back with the bytes sent, per argument size.
struct EchoCaller(Arc<Mutex<BTreeMap<usize, u64>>>);

impl Service for EchoCaller {
    fn descriptor(&self) -> ServiceDescriptor {
        ServiceDescriptor::builder("echo-caller").requires_fn(&echo_port()).build()
    }
    fn on_start(&mut self, ctx: &mut ServiceContext<'_>) {
        ctx.set_timer(ProtoDuration::from_secs(1), Some(ProtoDuration::from_millis(10)));
    }
    fn on_timer(&mut self, ctx: &mut ServiceContext<'_>, _id: TimerId) {
        let len = echo_arg_len(ctx.now().as_micros() / 1_000);
        ctx.call_fn(&echo_port(), (vec![len as u8; len],));
    }
    fn on_reply(
        &mut self,
        _ctx: &mut ServiceContext<'_>,
        _handle: marea_core::CallHandle,
        result: Result<Value, marea_core::CallError>,
    ) {
        let echoed = result.expect("echo call failed");
        let echoed = echoed.as_bytes().expect("bytes back");
        assert!(echoed.iter().all(|&b| b == echoed.len() as u8), "echo corrupted");
        *self.0.lock().unwrap().entry(echoed.len()).or_default() += 1;
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
        let (data,) = echo_port().decode_args(args).map_err(|e| e.to_string())?;
        Ok(echo_port().encode_ret(data))
    }
}

/// The call path's two slots — the marshalling buffer and the argument
/// spare — are bounded state: over a UDP pair, echo calls with 256 B, then
/// 16 KiB, then 256 B arguments keep each container at most at its cap of
/// loans every millisecond, the 16 KiB ones included.
#[test]
fn call_path_loans_stay_under_their_cap_across_a_large_call() {
    let bind = |node| UdpTransport::bind(UdpTransportConfig::new(node, "127.0.0.1:0")).unwrap();
    let (mut ta, mut tb) = (bind(1), bind(2));
    ta.add_peer(2, tb.local_addr().unwrap());
    tb.add_peer(1, ta.local_addr().unwrap());
    let mut a = ServiceContainer::new(ContainerConfig::new("a", NodeId(1)), Box::new(ta));
    let mut b = ServiceContainer::new(ContainerConfig::new("b", NodeId(2)), Box::new(tb));
    let replies = Arc::new(Mutex::new(BTreeMap::new()));
    a.add_service(Box::new(EchoCaller(replies.clone()))).unwrap();
    b.add_service(Box::new(Echo)).unwrap();
    a.start(Micros::ZERO);
    b.start(Micros::ZERO);

    let mut peak = 0;
    for ms in 1..3_000 {
        for c in [&mut a, &mut b] {
            c.tick(Micros::from_millis(ms));
            let o = c.occupancy();
            assert!(o.loan_bytes <= loan_cap_bytes(o.links), "{} at {ms} ms: {o:?}", c.node());
            peak = peak.max(o.loan_bytes);
        }
    }
    let replies = replies.lock().unwrap().clone();
    assert!(replies[&256] >= 80 && replies[&(16 * 1024)] >= 80, "{replies:?}");
    assert!(peak > 0, "the gauge never saw a loan");
}

/// Names in received frames are shared with the ones the engines hold, and
/// that changes nothing about what is accepted: a name nobody here holds
/// still decodes (and the frame is simply not for us), an invalid one is
/// still a rejected frame.
#[test]
fn interning_keeps_unknown_names_decodable_and_invalid_names_rejected() {
    let mut h = SimHarness::new(NetConfig::default());
    h.add_container(ContainerConfig::new("a", NodeId(1)));
    h.add_container(ContainerConfig::new("b", NodeId(2)));
    h.add_service(NodeId(1), Box::new(Burster(EventPort::new("burst/e"))));
    h.add_service(NodeId(2), Box::new(Listener(EventPort::new("burst/e"))));
    h.start_all();
    h.run_for(ProtoDuration::from_secs(1));
    let listener = |h: &SimHarness| h.container(NodeId(2)).expect("listener").stats();
    let before = listener(&h);
    assert!(before.events_delivered > 100 && before.frames_rejected == 0, "{before:?}");

    let event_named = |name: &str| {
        let mut body = bytes::BytesMut::new();
        let mut w = WireWriter::new(&mut body);
        w.put_str(name);
        (0..3).for_each(|_| w.put_varint(1)); // seq, stamp, trace
        w.put_u8(0);
        w.put_len_prefixed(&[]);
        Frame::new(NodeId(1), MessageKind::EventData, body.freeze())
    };
    let unknown = event_named("nobody/holds-this");
    assert!(matches!(Message::from_frame(&unknown), Ok(Message::EventData { .. })));
    let invalid = event_named("not a name");
    assert!(Message::from_frame(&invalid).is_err());

    let probe = h.network().socket(99);
    for frame in [&unknown, &invalid, &unknown] {
        probe.send(Destination::Unicast(2), frame.encode()).expect("sent");
    }
    h.run_for(ProtoDuration::from_millis(100));
    let after = listener(&h);
    assert_eq!(after.frames_rejected, 1, "only the invalid name is rejected: {after:?}");
    assert!(after.events_delivered > before.events_delivered, "held names keep flowing");
}
