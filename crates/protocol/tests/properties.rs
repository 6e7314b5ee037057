//! Property tests for the protocol state machines.
//!
//! These drive the ARQ and MFTP machinery through adversarial loss/reorder
//! schedules and assert the end-to-end invariants the middleware relies on:
//! exactly-once in-order delivery for the reliable channel, and bit-exact
//! file reconstruction for the bulk transfer protocol.

use bytes::{Bytes, BytesMut};
use proptest::prelude::*;

use marea_encoding::DecodeError;
use marea_presentation::{DataType, Name};
use marea_protocol::arq::{ArqConfig, ArqReceiver, ArqSender, Envelope};
use marea_protocol::fec::{FecRate, FecReceiver, FecSender};
use marea_protocol::fragment::{fragment_payload, fragment_shared, Reassembler};
use marea_protocol::messages::{AnnounceEntry, CallStatus, FunctionSig, Provision, ServiceState};
use marea_protocol::mftp::{FileReceiver, FileSender, RevisionPolicy};
use marea_protocol::{
    frames, Appended, Frame, FrameBody, FrameError, GroupId, Message, MessageKind, Micros, NodeId,
    ProtoDuration, RequestId, ShardRef, TransferId, FRAME_HEADER_LEN,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// ARQ delivers every message exactly once, in order, under arbitrary
    /// per-transmission loss (as long as loss is not total) — the §4.2
    /// guarantee behind the event primitive.
    #[test]
    fn arq_delivers_exactly_once_in_order(
        payload_count in 1usize..40,
        loss_seed in any::<u64>(),
        loss_permille in 0u32..700,
    ) {
        let cfg = ArqConfig {
            window: 16,
            initial_rto: ProtoDuration::from_millis(20),
            max_rto: ProtoDuration::from_millis(200),
            max_attempts: 30,
        };
        let mut tx = ArqSender::new(1, cfg);
        let mut rx = ArqReceiver::new(1, 64);
        let mut delivered: Vec<Bytes> = Vec::new();
        let mut to_send: Vec<Bytes> =
            (0..payload_count).map(|i| Bytes::from(vec![i as u8; 8])).collect();
        to_send.reverse();

        // Simple deterministic PRNG for the loss schedule.
        let mut state = loss_seed | 1;
        let mut chance = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) % 1000) as u32
        };

        let mut now = Micros::ZERO;
        let mut stalled_iters = 0;
        while delivered.len() < payload_count {
            // Feed the window.
            while tx.can_send() {
                let Some(p) = to_send.pop() else { break };
                let msg = tx.send(p, now).unwrap();
                if chance() >= loss_permille {
                    if let Message::RelData { seq, payload, .. } = msg {
                        delivered.extend(rx.on_data(seq, payload));
                    }
                }
            }
            // Retransmissions (lossy too).
            let (retx, failed) = poll(&mut tx, now);
            prop_assert!(failed.is_empty(), "retry budget must suffice at this loss rate");
            for envelope in retx {
                if chance() >= loss_permille {
                    if let Message::RelData { seq, payload, .. } = envelope.into_message() {
                        delivered.extend(rx.on_data(seq, payload));
                    }
                }
            }
            // Ack path (also lossy).
            if chance() >= loss_permille {
                if let Message::RelAck { cumulative, sack, .. } = rx.make_ack() {
                    tx.on_ack(cumulative, sack);
                }
            }
            now += ProtoDuration::from_millis(25);
            stalled_iters += 1;
            prop_assert!(stalled_iters < 4000, "must converge");
        }
        prop_assert_eq!(delivered.len(), payload_count);
        for (i, p) in delivered.iter().enumerate() {
            let expected = vec![i as u8; 8];
            prop_assert_eq!(p.as_ref(), expected.as_slice());
        }
        // Exactly-once: nothing extra arrives later.
        let (retx, _) = poll(&mut tx, now + ProtoDuration::from_secs(10));
        for envelope in retx {
            if let Message::RelData { seq, payload, .. } = envelope.into_message() {
                prop_assert!(rx.on_data(seq, payload).is_empty());
            }
        }
    }

    /// MFTP reconstructs the exact file bytes for every subscriber under
    /// arbitrary independent chunk loss, in a bounded number of rounds.
    #[test]
    fn mftp_reconstructs_exact_bytes(
        size in 0usize..8000,
        chunk_size in 1u32..700,
        n_subs in 1usize..5,
        loss_seed in any::<u64>(),
        loss_permille in 0u32..500,
    ) {
        let data: Vec<u8> = (0..size).map(|i| (i * 31 % 255) as u8).collect();
        let mut s = FileSender::new(
            TransferId(9),
            Name::new("blob").unwrap(),
            1,
            Bytes::from(data.clone()),
            chunk_size,
            GroupId(3),
        ).unwrap();
        let mut rxs = Vec::new();
        for i in 0..n_subs {
            let node = NodeId(10 + i as u32);
            s.on_subscribe(node);
            let (rx, _sub) =
                FileReceiver::from_announce(&s.announce(), node, RevisionPolicy::Restart).unwrap();
            rxs.push(rx);
        }

        let mut state = loss_seed | 1;
        let mut chance = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) % 1000) as u32
        };

        let mut rounds = 0;
        loop {
            loop {
                let chunks = s.next_chunks(32);
                if chunks.is_empty() {
                    break;
                }
                for c in &chunks {
                    if let Message::FileChunk { revision, index, payload, .. } = c {
                        for rx in rxs.iter_mut() {
                            if chance() >= loss_permille {
                                rx.on_chunk(*revision, *index, payload);
                            }
                        }
                    }
                }
            }
            let q = s.query();
            let Message::FileQuery { revision, .. } = q else { unreachable!() };
            for rx in &rxs {
                match rx.on_query(revision) {
                    Some(Message::FileAck { subscriber, revision, .. }) => {
                        s.on_ack(subscriber, revision);
                    }
                    Some(Message::FileNack { subscriber, revision, runs, .. }) => {
                        s.on_nack(subscriber, revision, &runs).unwrap();
                    }
                    _ => {}
                }
            }
            if s.is_complete() {
                break;
            }
            rounds += 1;
            prop_assert!(rounds < 200, "transfer must converge");
        }
        for rx in rxs {
            prop_assert!(rx.is_complete());
            let got = rx.into_data();
            prop_assert_eq!(got.as_ref(), data.as_slice());
        }
    }

    /// MFTP reconstructs exact bytes when the chunk stream is *adversarial*
    /// end to end: seeded per-replica loss, per-round reordering and
    /// duplicated deliveries — the multicast reality of a lossy radio LAN
    /// where retransmitted repair rounds interleave with stragglers.
    #[test]
    fn mftp_survives_loss_reorder_and_duplication(
        size in 1usize..6000,
        chunk_size in 16u32..700,
        n_subs in 1usize..4,
        chaos_seed in any::<u64>(),
        loss_permille in 0u32..400,
    ) {
        let data: Vec<u8> = (0..size).map(|i| (i * 131 % 251) as u8).collect();
        let mut s = FileSender::new(
            TransferId(11),
            Name::new("chaos-blob").unwrap(),
            1,
            Bytes::from(data.clone()),
            chunk_size,
            GroupId(5),
        ).unwrap();
        let mut rxs = Vec::new();
        for i in 0..n_subs {
            let node = NodeId(20 + i as u32);
            s.on_subscribe(node);
            let (rx, _sub) =
                FileReceiver::from_announce(&s.announce(), node, RevisionPolicy::Restart).unwrap();
            rxs.push(rx);
        }

        let mut state = chaos_seed | 1;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };

        let mut rounds = 0;
        loop {
            // Drain the sender's pending chunks for this round.
            let mut round: Vec<Message> = Vec::new();
            loop {
                let chunks = s.next_chunks(16);
                if chunks.is_empty() {
                    break;
                }
                round.extend(chunks);
            }
            // Adversarial delivery per receiver: independent loss, a
            // seeded rotation (reorder), and one duplicated chunk.
            for rx in rxs.iter_mut() {
                let mut deliver: Vec<&Message> =
                    round.iter().filter(|_| next() % 1000 >= loss_permille).collect();
                if !deliver.is_empty() {
                    let rot = next() as usize % deliver.len();
                    deliver.rotate_left(rot);
                    deliver.push(deliver[next() as usize % deliver.len()]);
                }
                for c in deliver {
                    if let Message::FileChunk { revision, index, payload, .. } = c {
                        rx.on_chunk(*revision, *index, payload);
                    }
                }
            }
            // Repair round-trip (queries/acks/nacks are lossless here —
            // the ARQ below them is covered by its own property).
            let Message::FileQuery { revision, .. } = s.query() else { unreachable!() };
            for rx in &rxs {
                match rx.on_query(revision) {
                    Some(Message::FileAck { subscriber, revision, .. }) => {
                        s.on_ack(subscriber, revision);
                    }
                    Some(Message::FileNack { subscriber, revision, runs, .. }) => {
                        s.on_nack(subscriber, revision, &runs).unwrap();
                    }
                    _ => {}
                }
            }
            if s.is_complete() {
                break;
            }
            rounds += 1;
            prop_assert!(rounds < 300, "transfer must converge under chaos");
        }
        for rx in rxs {
            prop_assert!(rx.is_complete());
            let got = rx.into_data();
            prop_assert_eq!(got.as_ref(), data.as_slice(), "bit-exact after chaos");
        }
    }

    /// FEC encode→erase→decode roundtrip: with at most one data shard
    /// erased per parity lane and the parity delivered, every wrapped
    /// message comes back bit-exact without any retransmission — the
    /// repair the layer exists to buy.
    #[test]
    fn fec_roundtrip_recovers_in_budget_erasures(
        group_count in 1usize..12,
        erase_seed in any::<u64>(),
        rate_loss in 0u16..400,
    ) {
        let mut tx = FecSender::new(1, FecRate::Max);
        tx.on_loss_report(rate_loss); // pick a geometry from the table
        let (k, r) = tx.rate().params();
        prop_assert!(r >= 1);

        let mut state = erase_seed | 1;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };

        let mut rx = FecReceiver::new();
        let mut sent: Vec<Bytes> = Vec::new();
        let mut delivered: Vec<Bytes> = Vec::new();
        let mut recovered_groups = 0u64;
        for g in 0..group_count {
            let mut wire = Vec::new();
            for i in 0..k {
                let payload = Bytes::from(vec![(g * 16 + usize::from(i)) as u8; 4]);
                let inner = Message::RelData { channel: 1, seq: sent.len() as u64, payload };
                sent.push(inner.encode_tagged());
                tx.wrap(inner, &mut wire);
            }
            // One erased data shard per group, on a seeded index (a lane
            // never loses more than one member when r divides the picks).
            let erase_all_parity = next() % 4 == 0 && r == 1;
            let victim = if erase_all_parity { None } else { Some((next() % u32::from(k)) as u8) };
            if victim.is_some() {
                recovered_groups += 1;
            }
            for m in wire {
                let Message::FecShard { group, index, k, r, payload, .. } = m else {
                    panic!("coded wire expected: {m:?}");
                };
                if Some(index) == victim {
                    continue; // erased by the radio
                }
                if erase_all_parity && index & 0x80 != 0 {
                    continue; // lost parity: group closes with no repair due
                }
                rx.on_shard(group, index, k, r, &payload, &mut delivered);
            }
        }
        prop_assert_eq!(delivered.len(), sent.len(), "one erasure per group is always repaired");
        let mut got = delivered.clone();
        got.sort();
        let mut want = sent.clone();
        want.sort();
        prop_assert_eq!(got, want, "recovered frames must be bit-exact");
        prop_assert_eq!(rx.stats().recovered, recovered_groups);
    }

    /// The full reliable stack — ARQ above, FEC below — delivers exactly
    /// once, in order, when the shard stream is adversarial: seeded
    /// erasure, per-round reordering and duplicated shards. Losses beyond
    /// the parity budget fall through to ARQ's retransmit timers cleanly,
    /// so the property holds at loss rates FEC alone cannot absorb.
    #[test]
    fn fec_below_arq_survives_loss_reorder_and_duplication(
        payload_count in 1usize..30,
        chaos_seed in any::<u64>(),
        loss_permille in 0u32..500,
    ) {
        let cfg = ArqConfig {
            window: 16,
            initial_rto: ProtoDuration::from_millis(20),
            max_rto: ProtoDuration::from_millis(200),
            max_attempts: 40,
        };
        let mut arq_tx = ArqSender::new(1, cfg);
        let mut arq_rx = ArqReceiver::new(1, 64);
        let mut fec_tx = FecSender::new(1, FecRate::Max);
        let mut fec_rx = FecReceiver::new();

        let mut state = chaos_seed | 1;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };

        let mut to_send: Vec<Bytes> =
            (0..payload_count).map(|i| Bytes::from(vec![i as u8; 8])).collect();
        to_send.reverse();
        let mut delivered: Vec<Bytes> = Vec::new();
        let mut now = Micros::ZERO;
        let mut rounds = 0;
        while delivered.len() < payload_count {
            // Produce this round's coded wire traffic.
            let mut wire: Vec<Message> = Vec::new();
            while arq_tx.can_send() {
                let Some(p) = to_send.pop() else { break };
                fec_tx.wrap(arq_tx.send(p, now).unwrap(), &mut wire);
            }
            // First transmissions as decoded messages, retransmissions as
            // envelopes: both routes into the coder, one stream out of it.
            let (retx, failed) = poll(&mut arq_tx, now);
            prop_assert!(failed.is_empty(), "retry budget must suffice");
            for envelope in retx {
                fec_tx.wrap_envelope(envelope, &mut wire);
            }
            fec_tx.flush(&mut wire); // tick boundary: close the partial group
            // Adversarial channel: seeded loss, rotation, one duplicate.
            let mut channel: Vec<&Message> =
                wire.iter().filter(|_| next() % 1000 >= loss_permille).collect();
            if !channel.is_empty() {
                let rot = next() as usize % channel.len();
                channel.rotate_left(rot);
                channel.push(channel[next() as usize % channel.len()]);
            }
            for m in channel {
                let Message::FecShard { group, index, k, r, payload, .. } = m else {
                    panic!("all link traffic is coded here: {m:?}");
                };
                let mut inner = Vec::new();
                fec_rx.on_shard(*group, *index, *k, *r, payload, &mut inner);
                for tagged in inner {
                    if let Ok(Message::RelData { seq, payload, .. }) =
                        Message::decode_tagged(&tagged)
                    {
                        delivered.extend(arq_rx.on_data(seq, payload));
                    }
                }
            }
            // Lossless ack path: the lossy-ack case is ARQ's own property.
            if let Message::RelAck { cumulative, sack, .. } = arq_rx.make_ack() {
                arq_tx.on_ack(cumulative, sack);
            }
            now += ProtoDuration::from_millis(25);
            rounds += 1;
            prop_assert!(rounds < 4000, "must converge (FEC repair or ARQ fallback)");
        }
        prop_assert_eq!(delivered.len(), payload_count);
        for (i, p) in delivered.iter().enumerate() {
            let expected = vec![i as u8; 8];
            prop_assert_eq!(p.as_ref(), expected.as_slice(), "exactly once, in order");
        }
    }

    /// Fragmentation survives arbitrary permutations and duplication.
    #[test]
    fn fragments_reassemble_under_shuffle(
        payload in proptest::collection::vec(any::<u8>(), 0..6000),
        chunk in 1usize..999,
        shuffle in any::<prop::sample::Index>(),
        dup in any::<prop::sample::Index>(),
    ) {
        let frags = fragment_payload(1, &payload, chunk).unwrap();
        let mut order: Vec<usize> = (0..frags.len()).collect();
        // Rotate by a generated amount (cheap deterministic permutation).
        let rot = shuffle.index(frags.len().max(1));
        order.rotate_left(rot);
        // Inject one duplicate.
        order.push(dup.index(frags.len().max(1)).min(frags.len() - 1));

        let mut r = Reassembler::new(ProtoDuration::from_secs(5));
        let mut out = None;
        for i in order {
            if let Message::Fragment { msg_id, index, count, payload } = frags[i].clone() {
                if let Some(full) = r
                    .offer(NodeId(1), msg_id, index, count, payload, Micros::ZERO)
                    .unwrap()
                {
                    out = Some(full);
                }
            }
        }
        let got = out.unwrap();
        prop_assert_eq!(got.as_ref(), payload.as_slice());
    }

    /// Arbitrary bytes never panic the frame parser, and valid frames
    /// round-trip bit-exactly.
    #[test]
    fn frame_fuzz_and_roundtrip(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = Frame::decode(&bytes); // must not panic
        let frame = Frame::new(NodeId(1), marea_protocol::MessageKind::VarSample,
            Bytes::from(bytes.clone()));
        let wire = frame.encode();
        let back = Frame::decode(&wire).unwrap();
        prop_assert_eq!(back.payload(), bytes.as_slice());
    }

    /// Arbitrary bytes never panic the tagged-message parser.
    #[test]
    fn message_fuzz_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = Message::decode_tagged(&bytes);
    }

    /// A corrupted frame is always rejected (CRC) — flip any single bit.
    #[test]
    fn frame_single_bit_corruption_rejected(
        payload in proptest::collection::vec(any::<u8>(), 1..128),
        byte in any::<prop::sample::Index>(),
        bit in 0u8..8,
    ) {
        let frame = Frame::new(NodeId(7), marea_protocol::MessageKind::EventData,
            Bytes::from(payload));
        let mut wire = frame.encode().to_vec();
        let i = byte.index(wire.len());
        wire[i] ^= 1 << bit;
        prop_assert!(Frame::decode(&wire).is_err(), "bit flip at {}:{} accepted", i, bit);
    }
}

/// The retransmissions due at `now`, and the seqs abandoned.
fn poll(tx: &mut ArqSender, now: Micros) -> (Vec<Envelope>, Vec<u64>) {
    let (mut retx, mut failed) = (Vec::new(), Vec::new());
    tx.poll(now, |envelope| retx.push(envelope), &mut failed);
    (retx, failed)
}

// ---- zero-copy decode: equivalence, hostile lengths, wire golden ----------

fn name(s: String) -> Name {
    Name::new(s).expect("generated names are valid")
}

/// One instance of `kind`, every field derived from `seed` and `blob`.
fn instance(kind: MessageKind, seed: u64, blob: &[u8]) -> Message {
    let small = (seed % 251) as u32;
    let payload = Bytes::copy_from_slice(blob);
    let item = name(format!("svc{}/item{}", seed % 7, small));
    let node = NodeId(small + 1);
    let transfer = TransferId(seed >> 3);
    match kind {
        MessageKind::Hello => Message::Hello {
            container: name(format!("node{small}")),
            incarnation: seed,
            fec_cap: (seed % 5) as u8,
        },
        MessageKind::Beacon => Message::Beacon {
            incarnation: seed,
            load_permille: (seed % 1001) as u16,
            fec_cap: (seed % 5) as u8,
            entry_count: small,
            catalogue_hash: (seed >> 11) as u32,
        },
        MessageKind::Bye => Message::Bye,
        MessageKind::Announce => Message::Announce {
            incarnation: seed,
            entries: vec![AnnounceEntry {
                service_seq: small,
                name: name(format!("svc{}", seed % 7)),
                state: ServiceState::Running,
                provides: vec![
                    Provision::Variable {
                        name: item.clone(),
                        ty: DataType::F64,
                        period_us: seed % 100_000,
                        validity_us: seed % 1_000_000,
                    },
                    Provision::Event { name: item.clone(), ty: Some(DataType::U8) },
                    Provision::Event { name: item.clone(), ty: None },
                    Provision::Function {
                        name: item.clone(),
                        sig: FunctionSig {
                            params: vec![DataType::U32, DataType::Bytes],
                            returns: Some(DataType::Bool),
                        },
                    },
                    Provision::FileResource { name: item },
                ],
            }],
        },
        MessageKind::ServiceStatus => {
            Message::ServiceStatus { service_seq: small, name: item, state: ServiceState::Degraded }
        }
        MessageKind::SubscribeVar => {
            Message::SubscribeVar { name: item, subscriber: node, need_initial: seed & 1 == 0 }
        }
        MessageKind::UnsubscribeVar => Message::UnsubscribeVar { name: item, subscriber: node },
        MessageKind::VarSample => Message::VarSample {
            name: item,
            seq: seed,
            stamp_us: seed >> 7,
            validity_us: seed % 1_000_000,
            trace: seed % 300,
            codec: (seed % 2) as u8,
            payload,
        },
        MessageKind::EventData => Message::EventData {
            name: item,
            seq: seed,
            stamp_us: seed >> 7,
            trace: seed % 300,
            codec: (seed % 2) as u8,
            payload,
        },
        MessageKind::CallRequest => Message::CallRequest {
            request: RequestId(seed),
            function: item,
            target_seq: small,
            trace: seed % 300,
            codec: (seed % 2) as u8,
            payload,
        },
        MessageKind::CallReply => Message::CallReply {
            request: RequestId(seed),
            status: CallStatus::AppError,
            trace: seed % 300,
            codec: (seed % 2) as u8,
            payload,
        },
        MessageKind::FileAnnounce => Message::FileAnnounce {
            transfer,
            resource: item,
            revision: small,
            size: seed >> 20,
            chunk_size: 1 + small,
            group: GroupId(small),
        },
        MessageKind::FileSubscribe => Message::FileSubscribe { transfer, subscriber: node },
        MessageKind::FileChunk => {
            Message::FileChunk { transfer, revision: small, index: small * 3, payload }
        }
        MessageKind::FileQuery => Message::FileQuery { transfer, revision: small },
        MessageKind::FileAck => Message::FileAck { transfer, revision: small, subscriber: node },
        MessageKind::FileNack => Message::FileNack {
            transfer,
            revision: small,
            subscriber: node,
            runs: vec![(0, 1 + small), (small * 2 + 9, 4)],
        },
        MessageKind::FileCancel => Message::FileCancel { transfer },
        MessageKind::Fragment => {
            Message::Fragment { msg_id: seed, index: small, count: small + 1, payload }
        }
        MessageKind::RelData => Message::RelData { channel: small as u16, seq: seed, payload },
        MessageKind::RelAck => Message::RelAck {
            channel: small as u16,
            cumulative: seed,
            sack: seed.rotate_left(9),
            loss_permille: (seed % 1001) as u16,
        },
        MessageKind::SubscribeEvent => Message::SubscribeEvent { name: item, subscriber: node },
        MessageKind::UnsubscribeEvent => Message::UnsubscribeEvent { name: item, subscriber: node },
        MessageKind::FecShard => Message::FecShard {
            channel: small as u16,
            group: seed,
            index: (seed % 200) as u8,
            k: 4,
            r: 1,
            payload,
        },
        MessageKind::AnnounceRequest => Message::AnnounceRequest,
    }
}

/// The kinds whose last field is a length-prefixed blob.
const BLOB_KINDS: [MessageKind; 8] = [
    MessageKind::VarSample,
    MessageKind::EventData,
    MessageKind::CallRequest,
    MessageKind::CallReply,
    MessageKind::FileChunk,
    MessageKind::Fragment,
    MessageKind::RelData,
    MessageKind::FecShard,
];

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(digits: &str) -> Vec<u8> {
    (0..digits.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&digits[i..i + 2], 16).unwrap())
        .collect()
}

/// The one frame of a one-frame datagram, as the receive path walks it:
/// its payload a window onto `datagram`.
fn walk_one(datagram: &Bytes) -> Frame {
    let walked: Vec<_> = frames(datagram).collect();
    assert_eq!(walked.len(), 1, "one frame expected");
    walked[0].clone().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// For every `Message` variant: decode-from-`Bytes` == decode-from-
    /// `&[u8]` == the original, on the frame path and on the tagged path;
    /// the one-buffer writer emits exactly the two-step writer's bytes.
    #[test]
    fn shared_decode_equals_copying_decode_for_every_variant(
        seed in any::<u64>(),
        blob in proptest::collection::vec(any::<u8>(), 0..2048),
    ) {
        for &kind in MessageKind::ALL {
            let msg = instance(kind, seed, &blob);
            prop_assert_eq!(msg.kind(), kind);
            let src = NodeId((seed % 1000) as u32);

            let wire = msg.clone().into_frame(src).encode();
            let copied = Frame::decode(&wire).unwrap();
            let shared = walk_one(&wire);
            prop_assert_eq!(&shared, &copied);
            prop_assert_eq!(Message::from_frame(&shared).unwrap(), msg.clone());
            prop_assert_eq!(Message::from_frame(&copied).unwrap(), msg.clone());

            let tagged = msg.encode_tagged();
            prop_assert_eq!(Message::decode_tagged(&tagged).unwrap(), msg.clone());
            prop_assert_eq!(Message::decode_tagged_shared(&tagged).unwrap(), msg.clone());

            // A message appended to a datagram is its frame behind what the
            // datagram held when that fits, no room when only the room left
            // is short — and then its frame alone in an empty datagram — and
            // its tagged form when no datagram holds it; a datagram that
            // held frames keeps them in every case.
            for held in [Bytes::new(), Message::Bye.into_frame(src).encode()] {
                let both = held.len() + wire.len();
                let mut datagram = BytesMut::from(held.to_vec());
                prop_assert_eq!(
                    msg.append_frame(src, &mut datagram, both),
                    Appended::Frame(wire.len())
                );
                prop_assert_eq!(&datagram[..], &[held.as_ref(), wire.as_ref()].concat()[..]);

                let mut datagram = BytesMut::from(held.to_vec());
                let short = msg.append_frame(src, &mut datagram, both - 1);
                if held.is_empty() {
                    prop_assert_eq!(short, Appended::Oversize(tagged.clone()));
                } else {
                    prop_assert_eq!(short, Appended::NoRoom);
                    let mut alone = BytesMut::new();
                    let again = msg.append_frame(src, &mut alone, both - 1);
                    prop_assert_eq!(again, Appended::Frame(wire.len()));
                    prop_assert_eq!(&alone[..], wire.as_ref());
                }
                prop_assert_eq!(&datagram[..], held.as_ref());

                let mut datagram = BytesMut::from(held.to_vec());
                let oversize = msg.append_frame(src, &mut datagram, wire.len() - 1);
                if held.is_empty() {
                    prop_assert_eq!(oversize, Appended::Oversize(tagged.clone()));
                } else {
                    prop_assert_eq!(oversize, Appended::NoRoom);
                    let mut alone = BytesMut::new();
                    let again = msg.append_frame(src, &mut alone, wire.len() - 1);
                    prop_assert_eq!(again, Appended::Oversize(tagged.clone()));
                    prop_assert!(alone.is_empty());
                }
                prop_assert_eq!(&datagram[..], held.as_ref());
            }
        }
    }

    /// `verbatim_len` is a floor on the encoded body, for every kind and
    /// for a borrowed shard: `append_frame` answers `NoRoom` on it alone,
    /// before encoding, which is right only if no body is ever shorter. The
    /// shard's frame is its owned message's frame.
    #[test]
    fn verbatim_len_never_exceeds_the_encoded_body(
        seed in any::<u64>(),
        blob in proptest::collection::vec(any::<u8>(), 0..2048),
    ) {
        for &kind in MessageKind::ALL {
            let msg = instance(kind, seed, &blob);
            prop_assert!(msg.verbatim_len() <= msg.encode_payload().len(), "{:?}", kind);
        }
        let shard = ShardRef {
            channel: seed as u16,
            group: seed,
            index: (seed % 200) as u8,
            k: 4,
            r: 1,
            payload: &blob,
        };
        let mut datagram = BytesMut::new();
        let appended = shard.append_frame(NodeId(1), &mut datagram, usize::MAX);
        prop_assert_eq!(appended, Appended::Frame(datagram.len()));
        prop_assert!(shard.verbatim_len() <= datagram.len() - FRAME_HEADER_LEN);
        prop_assert_eq!(&datagram[..], &shard.to_message().into_frame(NodeId(1)).encode()[..]);
    }

    /// Arbitrary bytes meet the same verdict from the strict frame decoder
    /// and the datagram walk's first step, and from both tagged-message
    /// decoders — the shared entries have no validator of their own. The
    /// walk differs only where it should: it takes a frame that something
    /// follows, and it yields nothing for an empty datagram.
    #[test]
    fn shared_and_copying_decoders_agree_on_arbitrary_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let shared = Bytes::from(bytes.clone());
        let first = frames(&shared).next();
        match Frame::decode(&bytes) {
            _ if bytes.is_empty() => prop_assert!(first.is_none()),
            Err(FrameError::LengthMismatch { declared, actual }) if (declared as usize) < actual => {}
            strict => prop_assert_eq!(first, Some(strict)),
        }
        prop_assert_eq!(Message::decode_tagged_shared(&shared), Message::decode_tagged(&bytes));
    }

    /// Shared fragments are the copied fragments.
    #[test]
    fn shared_fragments_equal_copied_fragments(
        payload in proptest::collection::vec(any::<u8>(), 0..6000),
        chunk in 0usize..999,
    ) {
        let shared = fragment_shared(9, &Bytes::from(payload.clone()), chunk);
        prop_assert_eq!(shared, fragment_payload(9, &payload, chunk));
    }
}

/// `n` valid frames of mixed kinds — kind, source and blob size all drawn
/// from `seed` — and the datagram that carries them back to back.
fn datagram_of(n: usize, seed: u64, blob: &[u8]) -> (Vec<Frame>, Bytes) {
    let sent: Vec<Frame> = (0..n as u64)
        .map(|i| {
            let pick = seed.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let kind = MessageKind::ALL[(pick >> 7) as usize % MessageKind::ALL.len()];
            let cut = (pick >> 17) as usize % (blob.len() + 1);
            instance(kind, pick, &blob[..cut]).into_frame(NodeId((pick % 1000) as u32))
        })
        .collect();
    let datagram = sent.iter().flat_map(|f| f.encode().to_vec()).collect::<Vec<u8>>();
    (sent, Bytes::from(datagram))
}

/// How many of `sent`'s frames, laid back to back, end within the first
/// `len` bytes.
fn whole_frames_within(sent: &[Frame], len: usize) -> usize {
    let ends = sent.iter().scan(0, |end, f| {
        *end += f.wire_len();
        Some(*end)
    });
    ends.take_while(|end| *end <= len).count()
}

/// Walks `damaged`, a datagram whose first `intact` bytes are those of
/// `sent`'s datagram: never panics, yields every frame that ends inside
/// the intact part, yields nothing that fails the strict single-frame
/// decode of its own bytes, and at most one error, last.
fn walk_damaged(sent: &[Frame], damaged: &[u8], intact: usize) -> Result<(), TestCaseError> {
    let damaged = Bytes::copy_from_slice(damaged);
    let walked: Vec<_> = frames(&damaged).collect();
    let valid = walked.iter().take_while(|f| f.is_ok()).count();
    prop_assert!(walked.len() - valid <= 1, "the walk goes on past an invalid frame");
    let mut at = 0;
    for (i, frame) in walked.iter().take(valid).enumerate() {
        let frame = frame.as_ref().unwrap();
        let end = at + frame.wire_len();
        prop_assert_eq!(&Frame::decode(&damaged[at..end]), &Ok(frame.clone()), "frame {}", i);
        if end <= intact {
            prop_assert_eq!(frame, &sent[i], "frame {} precedes the damage", i);
        }
        at = end;
    }
    let before_damage = whole_frames_within(sent, intact);
    prop_assert!(valid >= before_damage, "{} of {} intact frames walked", valid, before_damage);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A datagram of n whole frames of mixed kinds splits back into exactly
    /// those n frames, each payload a window onto the datagram; the strict
    /// decoders take one frame and refuse a second behind it.
    #[test]
    fn datagram_walk_yields_exactly_the_frames_staged(
        n in 1usize..9,
        seed in any::<u64>(),
        blob in proptest::collection::vec(any::<u8>(), 0..300),
    ) {
        let (sent, datagram) = datagram_of(n, seed, &blob);
        let walked: Vec<Frame> = frames(&datagram).collect::<Result<_, _>>().unwrap();
        prop_assert_eq!(&walked, &sent);
        let range = datagram.as_ptr_range();
        for (frame, sent) in walked.iter().zip(&sent) {
            let payload = frame.clone().into_payload();
            prop_assert!(payload.is_empty() || range.contains(&payload.as_ptr()), "payload copied");
            prop_assert_eq!(Message::from_frame(frame), Message::from_frame(sent));
        }
        prop_assert_eq!(frames(&Bytes::new()).count(), 0);
        let strict = Frame::decode(&datagram);
        if n == 1 {
            prop_assert_eq!(strict.as_ref(), Ok(&sent[0]));
            let mut trailing = datagram.to_vec();
            trailing.push(0);
            prop_assert!(
                matches!(Frame::decode(&trailing), Err(FrameError::LengthMismatch { .. })),
                "strict decode accepted a trailing byte"
            );
        } else {
            prop_assert!(
                matches!(strict, Err(FrameError::LengthMismatch { .. })),
                "strict decode accepted {} frames", n
            );
        }
    }

    /// Truncation at every offset: the frames that end before the cut are
    /// all yielded, then one error (unless the cut falls on a boundary).
    #[test]
    fn datagram_walk_survives_truncation_at_every_offset(
        n in 1usize..6,
        seed in any::<u64>(),
        blob in proptest::collection::vec(any::<u8>(), 0..48),
    ) {
        let (sent, datagram) = datagram_of(n, seed, &blob);
        for cut in 0..datagram.len() {
            walk_damaged(&sent, &datagram[..cut], cut)?;
            let walked: Vec<_> = frames(&datagram.slice(..cut)).collect();
            let whole = walked.iter().filter(|f| f.is_ok()).count();
            let on_boundary = sent.iter().take(whole).map(Frame::wire_len).sum::<usize>() == cut;
            prop_assert_eq!(walked.len(), whole + usize::from(!on_boundary), "cut at {}", cut);
        }
    }

    /// Every single-bit flip: frames before the flipped one are yielded,
    /// the flipped one is refused, nothing after it is looked at.
    #[test]
    fn datagram_walk_stops_at_every_single_bit_flip(
        n in 1usize..5,
        seed in any::<u64>(),
        blob in proptest::collection::vec(any::<u8>(), 0..24),
    ) {
        let (sent, datagram) = datagram_of(n, seed, &blob);
        for bit in 0..datagram.len() * 8 {
            let mut damaged = datagram.to_vec();
            damaged[bit / 8] ^= 1 << (bit % 8);
            walk_damaged(&sent, &damaged, bit / 8)?;
            let hit = whole_frames_within(&sent, bit / 8);
            let walked: Vec<_> = frames(&Bytes::from(damaged)).collect();
            prop_assert_eq!(walked.len(), hit + 1, "flip at bit {}", bit);
            prop_assert!(walked[hit].is_err(), "flipped frame {} accepted (bit {})", hit, bit);
        }
    }

    /// Garbage behind the last frame — shorter than a header, or longer —
    /// costs nothing that came before it.
    #[test]
    fn datagram_walk_keeps_every_frame_before_appended_garbage(
        n in 1usize..6,
        seed in any::<u64>(),
        blob in proptest::collection::vec(any::<u8>(), 0..48),
        garbage in proptest::collection::vec(any::<u8>(), 1..64),
    ) {
        let (sent, datagram) = datagram_of(n, seed, &blob);
        for len in [garbage.len().min(FRAME_HEADER_LEN - 1), garbage.len()] {
            let damaged = [datagram.as_ref(), &garbage[..len]].concat();
            walk_damaged(&sent, &damaged, datagram.len())?;
            let walked: Vec<_> = frames(&Bytes::from(damaged)).collect();
            prop_assert!(walked.len() > n, "garbage of {} bytes went unnoticed", len);
            prop_assert!(walked[..n].iter().all(|f| f.is_ok()));
            if len < FRAME_HEADER_LEN {
                prop_assert_eq!(&walked[n], &Err(FrameError::TooShort { len }));
            }
        }
    }

    /// A middle frame whose length field lies — longer or shorter than its
    /// payload — is refused where it stands; the frames before it are kept
    /// and nothing behind it is taken for a frame.
    #[test]
    fn datagram_walk_stops_at_an_inflated_or_deflated_length_field(
        n in 3usize..7,
        seed in any::<u64>(),
        blob in proptest::collection::vec(any::<u8>(), 1..48),
        delta in 1u32..2000,
    ) {
        let (sent, datagram) = datagram_of(n, seed, &blob);
        let middle = n / 2;
        let at: usize = sent[..middle].iter().map(Frame::wire_len).sum();
        let declared = sent[middle].header().payload_len;
        for lie in [declared.checked_add(delta), declared.checked_sub(delta), Some(0), Some(u32::MAX)] {
            let Some(lie) = lie.filter(|lie| *lie != declared) else { continue };
            let mut damaged = datagram.to_vec();
            damaged[at + 8..at + 12].copy_from_slice(&lie.to_le_bytes());
            walk_damaged(&sent, &damaged, at + 8)?;
            let walked: Vec<_> = frames(&Bytes::from(damaged)).collect();
            prop_assert_eq!(walked.len(), middle + 1, "length {} -> {}", declared, lie);
            prop_assert!(walked[middle].is_err());
        }
    }
}

/// A blob length prefix that runs past the input, past `MAX_FRAME_PAYLOAD`
/// or past `usize` arithmetic is refused with the same `DecodeError` by
/// the shared and the copying decoders (and, being refused before anything
/// is cut, never slices out of bounds).
#[test]
fn hostile_blob_lengths_fail_identically_on_both_paths() {
    fn varint(mut v: u64) -> Vec<u8> {
        let mut out = Vec::new();
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                out.push(byte);
                return out;
            }
            out.push(byte | 0x80);
        }
    }
    let max = marea_protocol::MAX_FRAME_PAYLOAD as u64;
    let eof = |needed| DecodeError::UnexpectedEof { needed };
    let over = |declared| DecodeError::LengthOverflow { declared, limit: max as usize };
    // (declared length, bytes actually present, expected error)
    let cases = [
        (1, 0, eof(1)),
        (100, 99, eof(1)),
        (max, 5, eof(max as usize - 5)),
        (max + 1, 5, over(max + 1)),
        (u64::from(u32::MAX) + 1, 0, over(u64::from(u32::MAX) + 1)),
        (usize::MAX as u64, 3, over(usize::MAX as u64)),
        (u64::MAX, 0, over(u64::MAX)),
    ];
    for kind in BLOB_KINDS {
        // An empty blob is the last field: its encoding ends in the
        // one-byte length prefix 0, which is swapped for a hostile one.
        let body = instance(kind, 0xC0FFEE, b"").encode_payload();
        let (&prefix, head) = body.split_last().unwrap();
        assert_eq!(prefix, 0, "{kind:?} ends in its blob's length prefix");
        for (declared, present, expected) in &cases {
            let mut hostile = head.to_vec();
            hostile.extend(varint(*declared));
            hostile.resize(hostile.len() + *present, 0xEE);

            let mut tagged = vec![kind.wire_tag()];
            tagged.extend(&hostile);
            let copying = Message::decode_tagged(&tagged);
            let frame = Frame::new(NodeId(1), kind, Bytes::from(hostile));
            assert_eq!(copying, Err(expected.clone()), "{kind:?} declares {declared}");
            assert_eq!(Message::from_frame(&frame), copying, "{kind:?} declares {declared}");
            assert_eq!(Message::decode_tagged_shared(&Bytes::from(tagged)), copying);
        }
    }
    // An empty tagged input has no kind byte to read, on either path.
    assert_eq!(Message::decode_tagged(&[]), Err(eof(1)));
    assert_eq!(Message::decode_tagged_shared(&Bytes::new()), Err(eof(1)));
    // Tag 24 carried the catalogue digest until it moved into the beacon.
    // It is retired: a CRC-valid frame of that kind (the old golden) is an
    // unknown kind, and its body behind a tag byte an unknown tag, on
    // every decoder — not a panic, and not a `Beacon`.
    assert_eq!(MessageKind::from_wire_tag(24), None);
    let retired = unhex("4d410118070000000b000000aaf07cfb87a2b4f705c501a2dd0b00");
    assert_eq!(Frame::decode(&retired), Err(FrameError::BadKind(24)));
    let walked: Vec<_> = frames(&Bytes::from(retired.clone())).collect();
    assert_eq!(walked, vec![Err(FrameError::BadKind(24))]);
    let mut tagged = vec![24u8];
    tagged.extend(&retired[16..]);
    assert_eq!(Message::decode_tagged(&tagged), Err(DecodeError::InvalidTag(24)));
    assert_eq!(
        Message::decode_tagged_shared(&Bytes::from(tagged)),
        Err(DecodeError::InvalidTag(24))
    );
}

/// Every decoder meets a damaged body with the same outcome, and that
/// outcome is pinned. The body of one `instance` per kind is cut at every
/// offset, has each byte set to 0x00 and to 0xFF, and has each run of five
/// bytes set to 0xFF (a varint that no longer fits a `u32` field); the
/// tagged, shared, interned (the lookup holds every name) and frame
/// decoders must agree on each variant — the decoded message or the exact
/// `DecodeError` — and a digest of all the outcomes must be the one the
/// hand-written reader gave before the message table replaced it.
#[test]
fn every_decoder_meets_damaged_bodies_with_the_pinned_outcome() {
    const OUTCOMES: (usize, u64) = (1876, 0xa527_767b_969d_0d58);
    let every_name = |s: &str| Name::new(s).ok();
    let mut outcomes = String::new();
    let mut count = 0;
    for &kind in MessageKind::ALL {
        let body = instance(kind, 0x5EED_1107, b"\x00\x01\xfe\xff").encode_payload();
        let cuts = (0..body.len()).map(|cut| body[..cut].to_vec());
        let set = |at: usize, len: usize, byte: u8| {
            let mut set = body.to_vec();
            set[at..(at + len).min(body.len())].fill(byte);
            set
        };
        let bytes = (0..body.len()).flat_map(|i| [set(i, 1, 0x00), set(i, 1, 0xFF)]);
        let runs = (0..body.len()).map(|i| set(i, 5, 0xFF));
        for variant in cuts.chain(bytes).chain(runs) {
            let tagged = Bytes::from([&[kind.wire_tag()], &variant[..]].concat());
            let outcome = Message::decode_tagged(&tagged);
            let frame = Frame::new(NodeId(7), kind, Bytes::from(variant));
            assert_eq!(Message::decode_tagged_shared(&tagged), outcome, "{kind:?} {tagged:?}");
            assert_eq!(
                Message::decode_tagged_interned(&tagged, &every_name),
                outcome,
                "{kind:?} {tagged:?}"
            );
            assert_eq!(Message::from_frame(&frame), outcome, "{kind:?} {tagged:?}");
            outcomes.push_str(&format!("{outcome:?}\n"));
            count += 1;
        }
    }
    let digest = outcomes
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3));
    assert_eq!((count, digest), OUTCOMES, "digest {digest:#018x}");
}

/// Decoded blobs are windows onto the datagram, not copies: the receive
/// path's "no copy before the handler" is a property of the pointers.
#[test]
fn shared_decode_cuts_blobs_out_of_the_datagram() {
    let blob: Vec<u8> = (0..1400u32).map(|i| (i * 7) as u8).collect();
    for kind in BLOB_KINDS {
        let datagram = instance(kind, 42, &blob).into_frame(NodeId(3)).encode();
        let range = datagram.as_ptr_range();
        let frame = walk_one(&datagram);
        let inside = |b: &Bytes| range.contains(&b.as_ptr()) && b.as_ref() == blob.as_slice();
        let msg = Message::from_frame(&frame).unwrap();
        let (Message::VarSample { payload, .. }
        | Message::EventData { payload, .. }
        | Message::CallRequest { payload, .. }
        | Message::CallReply { payload, .. }
        | Message::FileChunk { payload, .. }
        | Message::Fragment { payload, .. }
        | Message::RelData { payload, .. }
        | Message::FecShard { payload, .. }) = msg
        else {
            panic!("{kind:?} carries a blob");
        };
        assert!(inside(&payload), "{kind:?} blob was copied");
    }
}

/// Decoding with a name lookup yields the same message either way; a name
/// the lookup holds comes back as that very allocation, one it does not
/// hold is made as ever, and an invalid one is still refused.
#[test]
fn interned_decode_shares_held_names_and_falls_back_for_the_rest() {
    let held = name("held/name".into());
    let lookup = |s: &str| (s == held.as_str()).then(|| held.clone());
    let event = |name: Name| Message::EventData {
        name,
        seq: 1,
        stamp_us: 2,
        trace: 3,
        codec: 0,
        payload: Bytes::from_static(b"x"),
    };
    for (sent, shared) in [(name("held/name".into()), true), (name("other/name".into()), false)] {
        let msg = event(sent);
        let tagged = msg.encode_tagged();
        let frame = walk_one(&msg.clone().into_frame(NodeId(3)).encode());
        let decoded = [
            Message::decode_tagged_interned(&tagged, &lookup).unwrap(),
            Message::from_frame_interned(&frame, &lookup).unwrap(),
        ];
        for got in decoded {
            assert_eq!(got, msg);
            let Message::EventData { name, .. } = got else { unreachable!() };
            assert_eq!(name.as_str().as_ptr() == held.as_str().as_ptr(), shared, "{name}");
        }
    }
    let mut invalid = event(name("held/name".into())).encode_tagged().to_vec();
    invalid[2] = b' '; // tag, length prefix, then the name's first byte
    assert_eq!(
        Message::decode_tagged_interned(&Bytes::from(invalid), &lookup),
        Err(DecodeError::InvalidName)
    );
}

/// The reliable channel stores a message once. The envelope the ARQ sender
/// builds is `RelData`'s tagged encoding byte for byte, on both sides of
/// every varint boundary of its two varints; decoding it yields the inner
/// message as a window onto it; and the first transmission, the
/// retransmission and the FEC data shard are all that same storage.
#[test]
fn arq_envelope_is_the_tagged_rel_data_and_every_transmission_is_it() {
    const EDGES: [u64; 6] = [0, 127, 128, 16_383, 16_384, 1 << 32];
    let around = |edges: &[u64]| -> Vec<u64> {
        let mut all: Vec<u64> =
            edges.iter().flat_map(|e| [e.saturating_sub(1), *e, e + 1]).collect();
        all.dedup();
        all
    };
    let inner_of = |len: u64| -> Vec<u8> { (0..len).map(|i| (i * 31) as u8).collect() };
    let lens = around(&EDGES[..5]); // a 4 GiB message is not a test input

    for seq in around(&EDGES) {
        for &len in &lens {
            let inner = inner_of(len);
            // Written into a new buffer, or over what a reused one held.
            let (envelope, body) = Message::rel_data_envelope(9, seq, &inner, BytesMut::new());
            let stale = BytesMut::from(vec![0xAB; 40]);
            let (rewritten, at) = Message::rel_data_envelope(9, seq, &inner, stale);
            assert_eq!((&rewritten, at), (&envelope, body), "seq {seq} len {len}");
            let msg = Message::RelData { channel: 9, seq, payload: Bytes::from(inner.clone()) };
            assert_eq!(envelope, msg.encode_tagged(), "seq {seq} len {len}");
            assert_eq!(&envelope[body..], inner.as_slice(), "seq {seq} len {len}");
            let decoded = Message::decode_tagged_shared(&envelope).unwrap();
            assert_eq!(decoded, msg);
            let Message::RelData { payload, .. } = decoded else { unreachable!() };
            assert_eq!(payload.as_ptr(), envelope[body..].as_ptr(), "payload was copied");
        }
    }

    let cfg = ArqConfig {
        window: 64,
        initial_rto: ProtoDuration::from_millis(10),
        ..ArqConfig::default()
    };
    let mut tx = ArqSender::new(9, cfg);
    let mut fec_tx = FecSender::new(9, FecRate::Medium);
    let first: Vec<Envelope> =
        lens.iter().map(|&len| tx.admit(&inner_of(len), Micros::ZERO).unwrap()).collect();
    for (seq, (envelope, &len)) in first.iter().zip(&lens).enumerate() {
        let msg =
            Message::RelData { channel: 9, seq: seq as u64, payload: Bytes::from(inner_of(len)) };
        assert_eq!(envelope.tagged(), &msg.encode_tagged(), "seq {seq} len {len}");
        assert_eq!(envelope.clone().into_message(), msg);
    }
    let (again, failed) = poll(&mut tx, Micros::from_millis(11));
    assert!(failed.is_empty());
    assert_eq!(again, first, "every message is retransmitted as it was first sent");
    for (sent, resent) in first.iter().zip(again) {
        let storage = sent.tagged().as_ptr_range();
        assert_eq!(resent.tagged().as_ptr(), storage.start, "retransmission re-encoded");
        let mut wire = Vec::new();
        fec_tx.wrap_envelope(resent, &mut wire);
        match &wire[0] {
            // Small enough to code: the data shard's payload is the envelope.
            Message::FecShard { payload, .. } => {
                assert_eq!((payload.as_ptr(), payload.len()), (storage.start, sent.tagged().len()));
            }
            // Too big for a shard: bare, its payload a window onto the envelope.
            Message::RelData { payload, .. } => {
                assert!(sent.tagged().len() > marea_protocol::fec::MAX_SHARD_LEN);
                assert_eq!(payload.as_ptr_range().end, storage.end);
                assert!(payload.is_empty() || storage.contains(&payload.as_ptr()));
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}

/// Wire golden: the bytes of one fixed message per `MessageKind`, framed
/// from node 7, as they were before the encode-once writer and the message
/// table existed. The BENCH files pin byte *counts*, this pins the bytes
/// (`shared_decode_equals_copying_decode_for_every_variant` holds the
/// encode-once writer to them).
#[test]
fn wire_golden_pins_every_kind() {
    const GOLDEN: &[(MessageKind, &str)] = &[
        (MessageKind::Hello, "4d410100070000000e00000074848e94076e6f646531393787a2b4f70500"),
        (MessageKind::Beacon, "4d410101070000000e000000efb7728587a2b4f705b40200c501a2dd0b00"),
        (MessageKind::Bye, "4d4101020700000000000000fffc2e09"),
        (MessageKind::Announce, "4d41010307000000690000002a5bde1287a2b4f70501c50104737663360105000c737663362f6974656d313937010ae7e30587a624010c737663362f6974656d313937010105010c737663362f6974656d31393700020c737663362f6974656d313937020107010d010100030c737663362f6974656d313937"),
        (MessageKind::ServiceStatus, "4d41010407000000100000008b04a1b3c5010c737663362f6974656d31393702"),
        (MessageKind::SubscribeVar, "4d4101050700000012000000a3e4d7f00c737663362f6974656d313937c600000000"),
        (MessageKind::UnsubscribeVar, "4d4101060700000011000000adf8545e0c737663362f6974656d313937c6000000"),
        (MessageKind::VarSample, "4d4101070700000021000000a01c8a030c737663362f6974656d31393787a2b4f705a2b4f70587a624a70201040001feff"),
        (MessageKind::EventData, "4d410108070000001e000000bfc28b700c737663362f6974656d31393787a2b4f705a2b4f705a70201040001feff"),
        (MessageKind::CallRequest, "4d410109070000001c000000b8b1cd0787a2b4f7050c737663362f6974656d313937c501a70201040001feff"),
        (MessageKind::CallReply, "4d41010a070000000e0000009a844ee187a2b4f70501a70201040001feff"),
        (MessageKind::FileAnnounce, "4d41010b070000001b0000005225cacba0c4f65e0c737663362f6974656d313937c501ee0bc601c5000000"),
        (MessageKind::FileSubscribe, "4d41010c07000000080000001d67f812a0c4f65ec6000000"),
        (MessageKind::FileChunk, "4d41010d070000000d00000005cf9adfa0c4f65ec501cf04040001feff"),
        (MessageKind::FileQuery, "4d41010e0700000006000000bb8b39dea0c4f65ec501"),
        (MessageKind::FileAck, "4d41010f070000000a000000203089c7a0c4f65ec501c6000000"),
        (MessageKind::FileNack, "4d4101100700000011000000cc8b14a9a0c4f65ec501c60000000200c601930304"),
        (MessageKind::FileCancel, "4d41011107000000040000006e3b3ba9a0c4f65e"),
        (MessageKind::Fragment, "4d410112070000000e0000002746de5187a2b4f705c501c601040001feff"),
        (MessageKind::RelData, "4d410113070000000c000000c13065b6c50087a2b4f705040001feff"),
        (MessageKind::RelAck, "4d4101140700000014000000b855e14ec5000711ed5e00000000000e22dabd000000b402"),
        (MessageKind::SubscribeEvent, "4d41011507000000110000002d4e51060c737663362f6974656d313937c6000000"),
        (MessageKind::UnsubscribeEvent, "4d4101160700000011000000d5a306f40c737663362f6974656d313937c6000000"),
        (MessageKind::FecShard, "4d410117070000000f00000006529fc1c50087a2b4f7055f0401040001feff"),
        (MessageKind::AnnounceRequest, "4d41011907000000000000005320bb27"),
    ];
    assert_eq!(GOLDEN.len(), MessageKind::ALL.len(), "one golden per kind");
    for (&kind, (golden_kind, golden)) in MessageKind::ALL.iter().zip(GOLDEN) {
        assert_eq!(kind, *golden_kind);
        let msg = instance(kind, 0x5EED_1107, b"\x00\x01\xfe\xff");
        assert_eq!(hex(&msg.into_frame(NodeId(7)).encode()), *golden, "{kind:?}");
    }
}
