//! Ledger probes: host ns and allocations per operation at each PEPt
//! layer, timed from outside through public functions only.
//!
//! The message mix is the one the workloads carry: a typed `Position`
//! sample, 256 B call arguments, a 16 KiB byte vector and a 1 KiB file
//! chunk. Each probe runs [`BATCHES`] batches of [`BATCH`] each and
//! reports the fastest batch: every batch is the same work and a shared
//! host only ever adds time to one (as for the windows of a run, see
//! `run::FAST_END`). Allocation counts are the median batch's; they do not
//! vary.

use std::hint::black_box;
use std::time::Duration;

use bytes::{Bytes, BytesMut};

use marea_core::{
    ContainerConfig, Priority, PriorityScheduler, ReliableLink, Scheduler, ServiceContainer, Task,
    TaskPayload, TimerId,
};
use marea_encoding::{CodecId, CodecRegistry};
use marea_netsim::{Destination, NetConfig, SimNet};
use marea_presentation::{DataType, FromValue, HasDataType, IntoValue, Name, Value};
use marea_protocol::arq::{ArqConfig, ArqReceiver, ArqSender};
use marea_protocol::fec::{FecReceiver, FecSender};
use marea_protocol::fragment::{fragment_payload, Reassembler};
use marea_protocol::mftp::{FileReceiver, FileSender, RevisionPolicy};
use marea_protocol::{
    crc32, FecRate, Frame, GroupId, Message, Micros, NodeId, ProtoDuration, RequestId, TransferId,
};
use marea_services::names::Position;
use marea_transport::{
    InProcHub, SimLanTransport, Transport, TransportDestination, UdpTransport, UdpTransportConfig,
};

use crate::alloc;
use crate::clock;
use crate::gen::Gen;
use crate::report::Reading;
use crate::stats::median;

/// Batches per probe.
pub const BATCHES: usize = 5;

/// Length of one batch: 50 000 iterations of a 2 µs operation. The 27
/// probes then take 14 s, which every `--trace 1` run of the driver pays
/// (each is a process of its own and must print every per-layer metric);
/// `README.md` gives the run-to-run spread this length leaves.
pub const BATCH: Duration = Duration::from_millis(100);

const ARGS_LEN: usize = 256;
const VECTOR_LEN: usize = 16 * 1024;
const CHUNK_LEN: usize = 1024;
const FILE_LEN: usize = 256 * 1024;

/// The ledger's metric names and units, in the order [`run`] reports
/// them (`BENCHMARK.json` declares them from here).
pub const METRICS: [(&str, &str); 31] = [
    ("presentation.into_value_ns", "ns"),
    ("presentation.from_value_ns", "ns"),
    ("presentation.allocs_per_roundtrip", "count"),
    ("encoding.compact_encode_ns", "ns"),
    ("encoding.compact_decode_ns", "ns"),
    ("encoding.allocs_per_roundtrip", "count"),
    ("encoding.selfdesc_encode_ns", "ns"),
    ("encoding.selfdesc_decode_ns", "ns"),
    ("encoding.bulk_ns_per_kib", "ns"),
    ("protocol.msg_encode_ns", "ns"),
    ("protocol.msg_decode_ns", "ns"),
    ("protocol.msg_allocs_per_roundtrip", "count"),
    ("protocol.frame_encode_ns", "ns"),
    ("protocol.frame_decode_ns", "ns"),
    ("protocol.crc32_ns_per_kib", "ns"),
    ("protocol.fragment_ns_per_kib", "ns"),
    ("protocol.reassemble_ns_per_kib", "ns"),
    ("protocol.arq_send_ack_ns", "ns"),
    ("protocol.fec_wrap_ns", "ns"),
    ("protocol.fec_recover_ns", "ns"),
    ("protocol.mftp_chunk_ns", "ns"),
    ("core.link_roundtrip_ns", "ns"),
    ("core.link_roundtrip_fec_ns", "ns"),
    ("core.link_allocs_per_msg", "count"),
    ("core.scheduler_push_pop_ns", "ns"),
    ("core.idle_tick_ns", "ns"),
    ("netsim.send_deliver_ns", "ns"),
    ("netsim.allocs_per_datagram", "count"),
    ("transport.sim_send_recv_ns", "ns"),
    ("transport.inproc_send_recv_ns", "ns"),
    ("transport.udp_send_recv_ns", "ns"),
];

/// Cost of one operation.
#[derive(Debug, Clone, Copy)]
struct Cost {
    ns: f64,
    allocs: f64,
}

/// Times `pass` — which performs some operations and returns how many —
/// over [`BATCHES`] batches of [`BATCH`] each.
fn measure(mut pass: impl FnMut() -> u64) -> Cost {
    pass(); // first-use growth of buffers and maps is not steady-state cost
    let mut ns = Vec::with_capacity(BATCHES);
    let mut allocs = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let a0 = alloc::calls();
        let t0 = clock::now();
        let mut ops = 0u64;
        let elapsed = loop {
            ops += pass();
            let e = t0.elapsed();
            if e >= BATCH {
                break e;
            }
        };
        ns.push(elapsed.as_nanos() as f64 / ops as f64);
        allocs.push((alloc::calls() - a0) as f64 / ops as f64);
    }
    Cost { ns: ns.into_iter().fold(f64::INFINITY, f64::min), allocs: median(&allocs) }
}

/// `n` repetitions of a sub-microsecond operation per pass, so that the
/// clock read between passes stays out of the number.
fn each(n: u64, mut op: impl FnMut()) -> u64 {
    for _ in 0..n {
        op();
    }
    n
}

fn name(s: &str) -> Name {
    Name::new(s).expect("name literal")
}

/// Runs every probe.
pub fn run(seed: u64) -> Vec<Reading> {
    let mut out = Vec::new();
    let mut push = |name: &'static str, value: f64, unit: &'static str| {
        out.push(Reading { name, value, unit });
    };
    let gen = Gen::new(seed);
    let position = gen.position(0, 7);
    let position_value = position.into_value();
    let position_ty = Position::data_type();
    let args = gen.bytes(1, 7, 0, ARGS_LEN);
    let vector = gen.bytes(2, 7, 0, VECTOR_LEN);
    let src = NodeId(1);
    let now = Micros(1_000);

    // ---- presentation: typed record <-> Value ----------------------------
    let into = measure(|| each(64, || drop(black_box(black_box(position).into_value()))));
    let from =
        measure(|| each(64, || drop(black_box(Position::from_value(black_box(&position_value))))));
    push("presentation.into_value_ns", into.ns, "ns");
    push("presentation.from_value_ns", from.ns, "ns");
    push("presentation.allocs_per_roundtrip", into.allocs + from.allocs, "count");

    // ---- encoding: Value <-> bytes, both codecs ----------------------------
    let registry = CodecRegistry::new();
    let mut buf = BytesMut::with_capacity(VECTOR_LEN + 64);
    let mut codec_cost = |id: CodecId, value: &Value, ty: &DataType| {
        let codec = registry.get(id).expect("built-in codec");
        let encode = measure(|| {
            each(16, || {
                buf.clear();
                codec.encode(black_box(value), ty, &mut buf).expect("value conforms to its type");
            })
        });
        let wire = codec.encode_to_vec(value, ty).expect("value conforms to its type");
        let decode = measure(|| each(16, || drop(black_box(codec.decode(black_box(&wire), ty)))));
        (encode, decode, wire)
    };
    let (enc, dec, position_wire) = codec_cost(CodecId::COMPACT, &position_value, &position_ty);
    push("encoding.compact_encode_ns", enc.ns, "ns");
    push("encoding.compact_decode_ns", dec.ns, "ns");
    push("encoding.allocs_per_roundtrip", enc.allocs + dec.allocs, "count");
    let (enc, dec, _) = codec_cost(CodecId::SELF_DESCRIBING, &position_value, &position_ty);
    push("encoding.selfdesc_encode_ns", enc.ns, "ns");
    push("encoding.selfdesc_decode_ns", dec.ns, "ns");
    let (enc, dec, _) =
        codec_cost(CodecId::COMPACT, &Value::Bytes(vector.clone()), &DataType::Bytes);
    push("encoding.bulk_ns_per_kib", (enc.ns + dec.ns) / (VECTOR_LEN / 1024) as f64, "ns");

    // ---- protocol: messages and frames -------------------------------------
    let sample = Message::VarSample {
        name: name("bench/pos0"),
        seq: 7,
        stamp_us: 1_000,
        validity_us: 8_000,
        trace: 5,
        codec: CodecId::COMPACT.0,
        payload: Bytes::from(position_wire),
    };
    let call = Message::CallRequest {
        request: RequestId(9),
        function: name("bench/echo0"),
        target_seq: 1,
        trace: 5,
        codec: CodecId::COMPACT.0,
        payload: Bytes::from(args.clone()),
    };
    // A sample leaves as a frame, a call as a tagged body inside the
    // reliable envelope: one of each per pass, cost per message.
    let msg_encode = measure(|| {
        each(16, || {
            drop(black_box(Frame::new(src, sample.kind(), black_box(&sample).encode_payload())));
            drop(black_box(black_box(&call).encode_tagged()));
        }) * 2
    });
    let sample_frame = sample.clone().into_frame(src);
    let call_tagged = call.encode_tagged();
    let msg_decode = measure(|| {
        each(16, || {
            drop(black_box(Message::from_frame(black_box(&sample_frame))));
            drop(black_box(Message::decode_tagged(black_box(&call_tagged))));
        }) * 2
    });
    push("protocol.msg_encode_ns", msg_encode.ns, "ns");
    push("protocol.msg_decode_ns", msg_decode.ns, "ns");
    push("protocol.msg_allocs_per_roundtrip", msg_encode.allocs + msg_decode.allocs, "count");

    let frame_encode = measure(|| each(16, || drop(black_box(black_box(&sample_frame).encode()))));
    let sample_wire = sample_frame.encode();
    let frame_decode =
        measure(|| each(16, || drop(black_box(Frame::decode(black_box(&sample_wire))))));
    let crc = measure(|| {
        each(1, || {
            black_box(crc32(black_box(&vector)));
        })
    });
    push("protocol.frame_encode_ns", frame_encode.ns, "ns");
    push("protocol.frame_decode_ns", frame_decode.ns, "ns");
    push("protocol.crc32_ns_per_kib", crc.ns / (VECTOR_LEN / 1024) as f64, "ns");

    // ---- protocol: fragmentation of the 16 KiB vector ----------------------
    // 1404 B is the container's fragment budget on the 1500 B sim MTU.
    let fragment =
        measure(|| each(1, || drop(black_box(fragment_payload(1, black_box(&vector), 1404)))));
    let pieces = fragment_payload(1, &vector, 1404).expect("16 KiB fits the fragment limits");
    let mut reassembler = Reassembler::new(ProtoDuration::from_secs(5));
    let reassemble = measure(|| {
        let mut whole = None;
        for piece in &pieces {
            let Message::Fragment { msg_id, index, count, payload } = piece else { continue };
            whole = reassembler
                .offer(src, *msg_id, *index, *count, payload.clone(), now)
                .expect("consistent fragments");
        }
        assert!(black_box(whole).is_some(), "the last fragment completes the set");
        1
    });
    push("protocol.fragment_ns_per_kib", fragment.ns / (VECTOR_LEN / 1024) as f64, "ns");
    push("protocol.reassemble_ns_per_kib", reassemble.ns / (VECTOR_LEN / 1024) as f64, "ns");

    // ---- protocol: ARQ and FEC ---------------------------------------------
    let args_bytes = Bytes::from(args.clone());
    let mut arq_tx = ArqSender::new(0, ArqConfig::default());
    let mut arq_rx = ArqReceiver::new(0, 256);
    let arq = measure(|| {
        each(16, || {
            let Ok(Message::RelData { seq, payload, .. }) = arq_tx.send(args_bytes.clone(), now)
            else {
                panic!("window never fills: every message is acknowledged at once");
            };
            drop(black_box(arq_rx.on_data(seq, payload)));
            if let Message::RelAck { cumulative, sack, .. } = arq_rx.make_ack() {
                arq_tx.on_ack(cumulative, sack);
            }
        })
    });
    push("protocol.arq_send_ack_ns", arq.ns, "ns");

    let inner = Message::RelData { channel: 0, seq: 7, payload: call_tagged.clone() };
    let mut fec_tx = FecSender::new(0, FecRate::Medium);
    let mut shards = Vec::with_capacity(16);
    let fec_wrap = measure(|| {
        each(16, || {
            shards.clear();
            fec_tx.wrap(black_box(inner.clone()), &mut shards);
        })
    });
    push("protocol.fec_wrap_ns", fec_wrap.ns, "ns");

    // One whole group with its parity, data shard 1 withheld: the
    // receiver must rebuild it. Cost per message delivered upward.
    let group: Vec<Message> = {
        let mut tx = FecSender::new(0, FecRate::Medium);
        let mut out = Vec::new();
        while !out.iter().any(|m| matches!(m, Message::FecShard { index, .. } if index & 0x80 != 0))
        {
            tx.wrap(inner.clone(), &mut out);
        }
        out
    };
    let data_shards = group.len() as u64 - 1;
    let mut fec_rx = FecReceiver::new();
    let mut delivered = Vec::with_capacity(16);
    let mut group_id = 0u64;
    let fec_recover = measure(|| {
        delivered.clear();
        group_id += 1;
        for (i, shard) in group.iter().enumerate() {
            let Message::FecShard { index, k, r, payload, .. } = shard else { continue };
            if i != 1 {
                fec_rx.on_shard(group_id, *index, *k, *r, payload, &mut delivered);
            }
        }
        assert_eq!(delivered.len() as u64, data_shards, "the withheld shard is rebuilt");
        data_shards
    });
    push("protocol.fec_recover_ns", fec_recover.ns, "ns");

    // ---- protocol: MFTP chunk pipeline --------------------------------------
    let file = Bytes::from(gen.bytes(3, 7, 0, FILE_LEN));
    let mftp = measure(|| {
        // A fresh revision per pass: queueing its chunks and allocating
        // the receive buffer are part of what a revision costs.
        let mut tx = FileSender::new(
            TransferId(1),
            name("bench/frame"),
            1,
            file.clone(),
            CHUNK_LEN as u32,
            GroupId(77),
        )
        .expect("valid chunk size");
        tx.on_subscribe(NodeId(2));
        let (mut rx, _subscribe) =
            FileReceiver::from_announce(&tx.announce(), NodeId(2), RevisionPolicy::default())
                .expect("own announce");
        let mut chunks = 0;
        loop {
            let burst = tx.next_chunks(32);
            if burst.is_empty() {
                break;
            }
            for m in &burst {
                let Message::FileChunk { revision, index, payload, .. } = m else { continue };
                rx.on_chunk(*revision, *index, payload);
                chunks += 1;
            }
        }
        assert!(rx.is_complete());
        chunks
    });
    push("protocol.mftp_chunk_ns", mftp.ns, "ns");

    // ---- core: reliable link, scheduler, idle tick -------------------------
    let link_cost = |cap: Option<FecRate>| {
        let mut a = ReliableLink::new(NodeId(2), ArqConfig::default());
        let mut b = ReliableLink::new(NodeId(1), ArqConfig::default());
        if let Some(cap) = cap {
            a.negotiate_fec(cap);
            b.negotiate_fec(cap);
        }
        let mut t = 0u64;
        measure(|| {
            each(8, || {
                // One message per 500 µs tick, both ends polled per tick
                // as the container does for an active link.
                t += 500;
                let now = Micros(t);
                let mut wire = a.send(args_bytes.clone(), now);
                wire.extend(a.poll(now).0);
                for m in wire {
                    match m {
                        Message::RelData { seq, payload, .. } => drop(b.on_data(seq, payload)),
                        Message::FecShard { group, index, k, r, payload, .. } => {
                            for inner in b.on_fec_shard(group, index, k, r, &payload) {
                                if let Ok(Message::RelData { seq, payload, .. }) =
                                    Message::decode_tagged(&inner)
                                {
                                    drop(b.on_data(seq, payload));
                                }
                            }
                        }
                        _ => {}
                    }
                }
                for m in b.poll(now).0 {
                    if let Message::RelAck { cumulative, sack, loss_permille, .. } = m {
                        drop(a.on_ack(cumulative, sack, loss_permille, now));
                    }
                }
            })
        })
    };
    let bare = link_cost(None);
    let coded = link_cost(Some(FecRate::Max));
    push("core.link_roundtrip_ns", bare.ns, "ns");
    push("core.link_roundtrip_fec_ns", coded.ns, "ns");
    push("core.link_allocs_per_msg", bare.allocs, "count");

    let mut scheduler = PriorityScheduler::new();
    let mut admitted = 0u64;
    let mut task = || {
        admitted += 1;
        let lanes = [Priority::EVENT, Priority::CALL, Priority::TIMER, Priority::VARIABLE];
        Task {
            priority: lanes[(admitted % 4) as usize],
            enqueued_seq: admitted,
            service_seq: 1,
            payload: TaskPayload::Timer { id: TimerId(admitted) },
        }
    };
    for _ in 0..64 {
        scheduler.push(task());
    }
    let sched = measure(|| {
        each(64, || {
            scheduler.push(task());
            drop(black_box(scheduler.pop()));
        })
    });
    push("core.scheduler_push_pop_ns", sched.ns, "ns");

    let lone_net = SimNet::new(NetConfig::default().with_seed(seed));
    let mut idle = ServiceContainer::new(
        ContainerConfig::new("idle", NodeId(1)),
        Box::new(SimLanTransport::attach(&lone_net, 1)),
    );
    idle.start(Micros::ZERO);
    let mut t = 0u64;
    let idle_tick = measure(|| {
        each(64, || {
            t += 500;
            idle.tick(Micros(t));
        })
    });
    push("core.idle_tick_ns", idle_tick.ns, "ns");

    // ---- netsim and the three transports: one datagram out and in ----------
    let datagram = sample_wire.clone();
    let net = SimNet::new(NetConfig::default().with_seed(seed));
    let (tx, rx) = (net.socket(1), net.socket(2));
    let mut t = 0u64;
    let netsim = measure(|| {
        each(16, || {
            tx.send(Destination::Unicast(2), datagram.clone()).expect("both nodes registered");
            t += 200; // past the link's 100 µs latency and the transmit time
            net.advance_to(t);
            assert!(black_box(rx.recv()).is_some());
        })
    });
    push("netsim.send_deliver_ns", netsim.ns, "ns");
    push("netsim.allocs_per_datagram", netsim.allocs, "count");

    let net = SimNet::new(NetConfig::default().with_seed(seed));
    let mut a = SimLanTransport::attach(&net, 1);
    let mut b = SimLanTransport::attach(&net, 2);
    let mut t = 0u64;
    let sim = measure(|| {
        each(16, || {
            a.send(TransportDestination::Node(2), datagram.clone()).expect("peer attached");
            t += 200;
            net.advance_to(t);
            assert!(black_box(b.recv()).is_some());
        })
    });
    push("transport.sim_send_recv_ns", sim.ns, "ns");

    let hub = InProcHub::new();
    let mut a = hub.attach(1);
    let mut b = hub.attach(2);
    let inproc = measure(|| {
        each(16, || {
            a.send(TransportDestination::Node(2), datagram.clone()).expect("peer attached");
            assert!(black_box(b.recv()).is_some());
        })
    });
    push("transport.inproc_send_recv_ns", inproc.ns, "ns");

    let bind = |node| {
        UdpTransport::bind(UdpTransportConfig::new(node, "127.0.0.1:0"))
            .expect("binding a UDP socket on 127.0.0.1")
    };
    let (mut a, mut b) = (bind(1), bind(2));
    a.add_peer(2, b.local_addr().expect("bound socket has an address"));
    let udp = measure(|| {
        each(4, || {
            a.send(TransportDestination::Node(2), datagram.clone()).expect("loopback send");
            // Loopback delivery is not synchronous with `send` returning.
            let mut spins = 0u32;
            while black_box(b.recv()).is_none() {
                spins += 1;
                assert!(spins < 10_000_000, "loopback datagram never arrived");
            }
        })
    });
    push("transport.udp_send_recv_ns", udp.ns, "ns");

    assert!(
        out.iter().map(|v| (v.name, v.unit)).eq(METRICS),
        "ledger probes and their declared names drifted apart"
    );
    out
}
