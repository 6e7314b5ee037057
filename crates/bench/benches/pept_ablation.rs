//! F4 (Fig. 4): PEPt layer ablation — wall-clock cost of the pluggable
//! encoding and protocol subsystems.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use bytes::Bytes;
use marea_encoding::{typedesc, Codec, CompactCodec, SelfDescribingCodec};
use marea_presentation::{DataType, StructType, Value};
use marea_protocol::{crc32, Frame, Message, MessageKind, NodeId};

fn position_fixture() -> (DataType, Value) {
    let ty = DataType::Struct(
        StructType::new("Position")
            .with_field("lat", DataType::F64)
            .unwrap()
            .with_field("lon", DataType::F64)
            .unwrap()
            .with_field("alt", DataType::F64)
            .unwrap()
            .with_field("heading", DataType::F64)
            .unwrap()
            .with_field("speed", DataType::F64)
            .unwrap(),
    );
    let v = Value::struct_of("Position")
        .field("lat", 41.27641)
        .field("lon", 1.98720)
        .field("alt", 120.5)
        .field("heading", 1.57)
        .field("speed", 22.0)
        .build()
        .unwrap();
    (ty, v)
}

fn bench_codecs(c: &mut Criterion) {
    let (ty, value) = position_fixture();
    let mut group = c.benchmark_group("f4_codec_position");
    for (name, codec) in
        [("compact", &CompactCodec as &dyn Codec), ("self_describing", &SelfDescribingCodec)]
    {
        let encoded = codec.encode_to_vec(&value, &ty).unwrap();
        group.throughput(Throughput::Bytes(encoded.len() as u64));
        group.bench_function(BenchmarkId::new("encode", name), |b| {
            b.iter(|| codec.encode_to_vec(std::hint::black_box(&value), &ty).unwrap())
        });
        group.bench_function(BenchmarkId::new("decode", name), |b| {
            b.iter(|| codec.decode(std::hint::black_box(&encoded), &ty).unwrap())
        });
    }
    group.finish();

    let mut group = c.benchmark_group("f4_codec_blob");
    let blob_ty = DataType::Bytes;
    for size in [256usize, 4096, 65536] {
        let blob = Value::Bytes(vec![0xA7; size]);
        let encoded = CompactCodec.encode_to_vec(&blob, &blob_ty).unwrap();
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_function(BenchmarkId::new("compact_roundtrip", size), |b| {
            b.iter(|| {
                let e = CompactCodec.encode_to_vec(std::hint::black_box(&blob), &blob_ty).unwrap();
                CompactCodec.decode(&e, &blob_ty).unwrap()
            })
        });
        let _ = encoded;
    }
    group.finish();
}

fn bench_typedesc(c: &mut Criterion) {
    let (ty, _) = position_fixture();
    let encoded = typedesc::encode_type_to_vec(&ty);
    c.bench_function("f4_typedesc_roundtrip", |b| {
        b.iter(|| {
            let e = typedesc::encode_type_to_vec(std::hint::black_box(&ty));
            typedesc::decode_type_from_slice(&e).unwrap()
        })
    });
    let _ = encoded;
}

fn bench_frame(c: &mut Criterion) {
    let payload = Bytes::from(vec![0x5A; 256]);
    let frame = Frame::new(NodeId(3), MessageKind::VarSample, payload);
    let wire = frame.encode();
    let mut group = c.benchmark_group("f4_frame");
    group.throughput(Throughput::Bytes(wire.len() as u64));
    group.bench_function("encode_256B", |b| b.iter(|| std::hint::black_box(&frame).encode()));
    group.bench_function("decode_256B", |b| {
        b.iter(|| Frame::decode(std::hint::black_box(&wire)).unwrap())
    });
    // A control frame, an MTU-sized datagram and a reassembled variable:
    // tail handling, the steady state and the cache-resident bulk rate.
    for (label, len) in [("crc32_64B", 64), ("crc32_1500B", 1500), ("crc32_16KiB", 16 * 1024)] {
        group.throughput(Throughput::Bytes(len as u64));
        group.bench_function(label, |b| {
            let data = vec![0xC3u8; len];
            b.iter(|| crc32(std::hint::black_box(&data)))
        });
    }
    group.finish();
}

fn bench_message_vocabulary(c: &mut Criterion) {
    let msg = Message::VarSample {
        name: marea_presentation::Name::new("gps/position").unwrap(),
        seq: 991,
        stamp_us: 123_456,
        validity_us: 200_000,
        trace: (1 << 32) | 991,
        codec: 0,
        payload: Bytes::from(vec![1u8; 40]),
    };
    let tagged = msg.encode_tagged();
    c.bench_function("f4_message_var_sample_roundtrip", |b| {
        b.iter(|| {
            let e = std::hint::black_box(&msg).encode_tagged();
            Message::decode_tagged(&e).unwrap()
        })
    });
    let _ = tagged;
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(20)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(1))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_codecs, bench_typedesc, bench_frame, bench_message_vocabulary
}
criterion_main!(benches);
