//! A simulated TCP-like reliable byte stream — the *baseline* for the
//! paper's §4.2 claim.
//!
//! The paper argues that a purpose-built acknowledge/retransmit mechanism at
//! the middleware layer "is more efficient for event messages than the
//! generic case provided by the TCP stack". To measure that (experiment
//! C3), this module models the relevant behaviour of a generic TCP stack:
//!
//! * three-way handshake before any data moves;
//! * one in-order byte stream: a lost segment head-of-line-blocks every
//!   event behind it;
//! * cumulative acknowledgements only (no selective acknowledgement);
//! * a conservative retransmission timeout with the conventional **200 ms
//!   minimum** and exponential backoff, plus fast retransmit after three
//!   duplicate ACKs;
//! * a fixed receive window (no congestion control — the avionics LAN is
//!   not congestion-bound, and omitting it *favours* the baseline).
//!
//! Application messages are length-prefixed on the stream, as a real system
//! would frame them over TCP.
//!
//! Endpoints are poll-driven with explicit time, like every other MAREA
//! state machine, so they run over [`SimNet`](marea_netsim::SimNet) datagrams
//! (each segment = one datagram, dropped/delayed by the same link model
//! that carries the middleware's own traffic).

use std::collections::{BTreeMap, VecDeque};

/// Tuning parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcpishConfig {
    /// Maximum segment payload size in bytes.
    pub mss: usize,
    /// Send window (bytes in flight bound).
    pub window: usize,
    /// Minimum / initial retransmission timeout in µs (conventional 200 ms).
    pub min_rto_us: u64,
    /// Backoff cap in µs.
    pub max_rto_us: u64,
}

impl Default for TcpishConfig {
    fn default() -> Self {
        TcpishConfig { mss: 1400, window: 64 * 1024, min_rto_us: 200_000, max_rto_us: 2_000_000 }
    }
}

/// Connection state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TcpishState {
    /// No handshake yet.
    Closed,
    /// Client sent SYN.
    SynSent,
    /// Server answered SYN-ACK.
    SynReceived,
    /// Handshake complete, data may flow.
    Established,
}

/// Counters for the C3 bench.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TcpishStats {
    /// Segments transmitted (including control segments).
    pub segments_sent: u64,
    /// Retransmitted segments.
    pub retransmissions: u64,
    /// Total segment bytes transmitted (headers + payload).
    pub bytes_sent: u64,
}

const FLAG_SYN: u8 = 1;
const FLAG_ACK: u8 = 2;
const HEADER_LEN: usize = 1 + 8 + 8;

fn encode_segment(flags: u8, seq: u64, ack: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.push(flags);
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&ack.to_le_bytes());
    out.extend_from_slice(payload);
    out
}

fn decode_segment(seg: &[u8]) -> Option<(u8, u64, u64, &[u8])> {
    if seg.len() < HEADER_LEN {
        return None;
    }
    let flags = seg[0];
    let seq = u64::from_le_bytes(seg[1..9].try_into().ok()?);
    let ack = u64::from_le_bytes(seg[9..17].try_into().ok()?);
    Some((flags, seq, ack, &seg[HEADER_LEN..]))
}

#[derive(Debug)]
struct InflightSeg {
    payload: Vec<u8>,
}

/// One endpoint of a simulated TCP-like connection.
#[derive(Debug)]
pub struct TcpishEndpoint {
    cfg: TcpishConfig,
    state: TcpishState,
    is_client: bool,
    // Send side.
    pending_stream: VecDeque<u8>,
    snd_una: u64,
    snd_nxt: u64,
    inflight: BTreeMap<u64, InflightSeg>,
    rto_us: u64,
    rto_deadline: Option<u64>,
    dup_acks: u32,
    // Receive side.
    rcv_nxt: u64,
    out_of_order: BTreeMap<u64, Vec<u8>>,
    rcv_stream: VecDeque<u8>,
    stats: TcpishStats,
}

impl TcpishEndpoint {
    /// Creates the client end (call [`TcpishEndpoint::connect`]).
    pub fn client(cfg: TcpishConfig) -> Self {
        Self::new(cfg, true)
    }

    /// Creates the server (passive) end.
    pub fn server(cfg: TcpishConfig) -> Self {
        Self::new(cfg, false)
    }

    fn new(cfg: TcpishConfig, is_client: bool) -> Self {
        TcpishEndpoint {
            cfg,
            state: TcpishState::Closed,
            is_client,
            pending_stream: VecDeque::new(),
            snd_una: 0,
            snd_nxt: 0,
            inflight: BTreeMap::new(),
            rto_us: cfg.min_rto_us,
            rto_deadline: None,
            dup_acks: 0,
            rcv_nxt: 0,
            out_of_order: BTreeMap::new(),
            rcv_stream: VecDeque::new(),
            stats: TcpishStats::default(),
        }
    }

    /// Counters snapshot.
    pub fn stats(&self) -> TcpishStats {
        self.stats
    }

    /// Bytes accepted for sending but not yet acknowledged end-to-end.
    #[cfg(test)]
    fn unacked_len(&self) -> usize {
        self.pending_stream.len() + (self.snd_nxt - self.snd_una) as usize
    }

    /// Initiates the handshake; returns the SYN segment.
    ///
    /// # Panics
    ///
    /// Panics when called on a server endpoint or twice.
    pub fn connect(&mut self, now_us: u64) -> Vec<u8> {
        assert!(self.is_client, "connect on server endpoint");
        assert_eq!(self.state, TcpishState::Closed, "connect called twice");
        self.state = TcpishState::SynSent;
        self.arm_rto(now_us);
        self.count(HEADER_LEN);
        encode_segment(FLAG_SYN, 0, 0, &[])
    }

    /// Queues an application message (length-prefixed on the stream).
    pub fn send_message(&mut self, msg: &[u8]) {
        let len = u32::try_from(msg.len()).expect("message fits u32");
        self.pending_stream.extend(len.to_le_bytes());
        self.pending_stream.extend(msg.iter().copied());
    }

    /// Drives timers and window: returns segments to transmit now.
    pub fn poll(&mut self, now_us: u64) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        // Handshake retransmission.
        if self.state == TcpishState::SynSent {
            if let Some(dl) = self.rto_deadline {
                if now_us >= dl {
                    self.backoff(now_us);
                    self.stats.retransmissions += 1;
                    self.count(HEADER_LEN);
                    out.push(encode_segment(FLAG_SYN, 0, 0, &[]));
                }
            }
            return out;
        }
        if self.state != TcpishState::Established && self.state != TcpishState::SynReceived {
            return out;
        }
        // Data RTO: retransmit the earliest unacked segment (go-back-one,
        // as a non-SACK stack does).
        if let Some(dl) = self.rto_deadline {
            if now_us >= dl && !self.inflight.is_empty() {
                let (&seq, seg) = self.inflight.iter().next().expect("nonempty");
                let retx = encode_segment(FLAG_ACK, seq, self.rcv_nxt, &seg.payload);
                self.stats.retransmissions += 1;
                self.count(retx.len());
                out.push(retx);
                self.backoff(now_us);
            }
        }
        // New data within the window.
        if self.state == TcpishState::Established {
            while !self.pending_stream.is_empty()
                && ((self.snd_nxt - self.snd_una) as usize) < self.cfg.window
            {
                let take = usize::min(
                    self.cfg.mss,
                    usize::min(
                        self.pending_stream.len(),
                        self.cfg.window - (self.snd_nxt - self.snd_una) as usize,
                    ),
                );
                if take == 0 {
                    break;
                }
                let payload: Vec<u8> = self.pending_stream.drain(..take).collect();
                let seq = self.snd_nxt;
                self.snd_nxt += take as u64;
                let seg = encode_segment(FLAG_ACK, seq, self.rcv_nxt, &payload);
                self.inflight.insert(seq, InflightSeg { payload });
                self.count(seg.len());
                out.push(seg);
                if self.rto_deadline.is_none() {
                    self.arm_rto(now_us);
                }
            }
        }
        out
    }

    /// Processes an incoming segment. Returns `(segments_to_send,
    /// application_messages_delivered)`.
    pub fn on_segment(&mut self, seg: &[u8], now_us: u64) -> (Vec<Vec<u8>>, Vec<Vec<u8>>) {
        let Some((flags, seq, ack, payload)) = decode_segment(seg) else {
            return (Vec::new(), Vec::new());
        };
        let mut out = Vec::new();

        // Handshake.
        match self.state {
            TcpishState::Closed if !self.is_client && flags & FLAG_SYN != 0 => {
                self.state = TcpishState::SynReceived;
                self.arm_rto(now_us);
                self.count(HEADER_LEN);
                out.push(encode_segment(FLAG_SYN | FLAG_ACK, 0, 1, &[]));
                return (out, Vec::new());
            }
            TcpishState::SynSent if flags & FLAG_SYN != 0 && flags & FLAG_ACK != 0 => {
                self.state = TcpishState::Established;
                self.rto_deadline = None;
                self.rto_us = self.cfg.min_rto_us;
                self.count(HEADER_LEN);
                out.push(encode_segment(FLAG_ACK, 0, 1, &[]));
                // Data will flow on the next poll().
                return (out, Vec::new());
            }
            TcpishState::SynReceived if flags & FLAG_ACK != 0 && flags & FLAG_SYN == 0 => {
                self.state = TcpishState::Established;
                self.rto_deadline = None;
                self.rto_us = self.cfg.min_rto_us;
                // Fall through: the ACK may carry data.
            }
            TcpishState::SynSent if flags & FLAG_SYN != 0 => {
                // Simultaneous open not modelled.
                return (out, Vec::new());
            }
            _ => {}
        }

        if self.state != TcpishState::Established {
            return (out, Vec::new());
        }

        // ACK processing.
        if flags & FLAG_ACK != 0 && flags & FLAG_SYN == 0 {
            // ack values are offset by 1 from the handshake phantom byte;
            // we keep data sequence space independent (starting at 0), so
            // ignore the phantom ack==1 with no prior data.
            if ack > self.snd_una && ack <= self.snd_nxt {
                self.snd_una = ack;
                self.dup_acks = 0;
                self.inflight.retain(|&s, seg| s + seg.payload.len() as u64 > ack);
                self.rto_us = self.cfg.min_rto_us;
                self.rto_deadline =
                    if self.inflight.is_empty() { None } else { Some(now_us + self.rto_us) };
            } else if ack == self.snd_una && !self.inflight.is_empty() && payload.is_empty() {
                self.dup_acks += 1;
                if self.dup_acks == 3 {
                    // Fast retransmit of the earliest unacked segment.
                    let (&s, seg) = self.inflight.iter().next().expect("nonempty");
                    let retx = encode_segment(FLAG_ACK, s, self.rcv_nxt, &seg.payload);
                    self.stats.retransmissions += 1;
                    self.count(retx.len());
                    out.push(retx);
                    self.dup_acks = 0;
                }
            }
        }

        // Data processing.
        let mut delivered = Vec::new();
        if !payload.is_empty() {
            if seq == self.rcv_nxt {
                self.rcv_stream.extend(payload.iter().copied());
                self.rcv_nxt += payload.len() as u64;
                // Drain contiguous out-of-order segments.
                while let Some(p) = self.out_of_order.remove(&self.rcv_nxt) {
                    self.rcv_nxt += p.len() as u64;
                    self.rcv_stream.extend(p);
                }
                delivered = self.extract_messages();
            } else if seq > self.rcv_nxt {
                self.out_of_order.entry(seq).or_insert_with(|| payload.to_vec());
            }
            // Every data segment triggers an ACK (dup ack when out of order).
            self.count(HEADER_LEN);
            out.push(encode_segment(FLAG_ACK, self.snd_nxt, self.rcv_nxt, &[]));
        }

        (out, delivered)
    }

    fn extract_messages(&mut self) -> Vec<Vec<u8>> {
        let mut msgs = Vec::new();
        loop {
            if self.rcv_stream.len() < 4 {
                break;
            }
            let len_bytes: Vec<u8> = self.rcv_stream.iter().take(4).copied().collect();
            let len = u32::from_le_bytes(len_bytes.try_into().expect("4 bytes")) as usize;
            if self.rcv_stream.len() < 4 + len {
                break;
            }
            self.rcv_stream.drain(..4);
            msgs.push(self.rcv_stream.drain(..len).collect());
        }
        msgs
    }

    fn arm_rto(&mut self, now_us: u64) {
        self.rto_deadline = Some(now_us + self.rto_us);
    }

    fn backoff(&mut self, now_us: u64) {
        self.rto_us = (self.rto_us * 2).min(self.cfg.max_rto_us);
        self.arm_rto(now_us);
    }

    fn count(&mut self, wire_len: usize) {
        self.stats.segments_sent += 1;
        self.stats.bytes_sent += wire_len as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ferries segments between endpoints with optional deterministic loss,
    /// returning messages delivered to each side.
    fn exchange(
        a: &mut TcpishEndpoint,
        b: &mut TcpishEndpoint,
        now_us: u64,
        mut lose: impl FnMut() -> bool,
    ) -> (Vec<Vec<u8>>, Vec<Vec<u8>>) {
        let mut to_b: VecDeque<Vec<u8>> = a.poll(now_us).into();
        let mut to_a: VecDeque<Vec<u8>> = b.poll(now_us).into();
        let mut a_msgs = Vec::new();
        let mut b_msgs = Vec::new();
        let mut budget = 1000;
        while (!to_a.is_empty() || !to_b.is_empty()) && budget > 0 {
            budget -= 1;
            if let Some(seg) = to_b.pop_front() {
                if !lose() {
                    let (outs, msgs) = b.on_segment(&seg, now_us);
                    to_a.extend(outs);
                    b_msgs.extend(msgs);
                }
            }
            if let Some(seg) = to_a.pop_front() {
                if !lose() {
                    let (outs, msgs) = a.on_segment(&seg, now_us);
                    to_b.extend(outs);
                    a_msgs.extend(msgs);
                }
            }
        }
        (a_msgs, b_msgs)
    }

    #[test]
    fn handshake_then_data() {
        let mut c = TcpishEndpoint::client(TcpishConfig::default());
        let mut s = TcpishEndpoint::server(TcpishConfig::default());
        let syn = c.connect(0);
        let (outs, _) = s.on_segment(&syn, 0);
        let (outs2, _) = c.on_segment(&outs[0], 0);
        let _ = s.on_segment(&outs2[0], 0);
        assert_eq!(c.state, TcpishState::Established);
        assert_eq!(s.state, TcpishState::Established);

        c.send_message(b"event-1");
        c.send_message(b"event-2");
        let (_, got) = exchange(&mut c, &mut s, 1_000, || false);
        assert_eq!(got, vec![b"event-1".to_vec(), b"event-2".to_vec()]);
    }

    #[test]
    fn data_before_established_is_queued() {
        let mut c = TcpishEndpoint::client(TcpishConfig::default());
        c.send_message(b"early");
        assert!(c.poll(0).is_empty(), "no data before handshake");
        assert_eq!(c.unacked_len(), 4 + 5);
    }

    #[test]
    fn syn_is_retransmitted_with_backoff() {
        let mut c = TcpishEndpoint::client(TcpishConfig::default());
        let _syn = c.connect(0);
        assert!(c.poll(100_000).is_empty(), "before min rto");
        let retx = c.poll(200_000);
        assert_eq!(retx.len(), 1, "syn retransmit at 200ms");
        assert!(c.poll(300_000).is_empty(), "backoff doubled to 400ms");
        assert_eq!(c.poll(600_001).len(), 1);
        assert_eq!(c.stats().retransmissions, 2);
    }

    #[test]
    fn lost_data_segment_recovers_via_rto() {
        let mut c = TcpishEndpoint::client(TcpishConfig::default());
        let mut s = TcpishEndpoint::server(TcpishConfig::default());
        // Handshake.
        let syn = c.connect(0);
        let (sa, _) = s.on_segment(&syn, 0);
        let (ack, _) = c.on_segment(&sa[0], 0);
        s.on_segment(&ack[0], 0);

        c.send_message(b"important");
        let segs = c.poll(0);
        assert_eq!(segs.len(), 1);
        // Segment lost. Nothing happens until min RTO.
        assert!(c.poll(199_999).is_empty());
        let retx = c.poll(200_000);
        assert_eq!(retx.len(), 1);
        let (_acks, msgs) = s.on_segment(&retx[0], 200_100);
        assert_eq!(msgs, vec![b"important".to_vec()]);
    }

    #[test]
    fn head_of_line_blocking_delays_later_messages() {
        let cfg = TcpishConfig { mss: 16, ..TcpishConfig::default() };
        let mut c = TcpishEndpoint::client(cfg);
        let mut s = TcpishEndpoint::server(cfg);
        let syn = c.connect(0);
        let (sa, _) = s.on_segment(&syn, 0);
        let (ack, _) = c.on_segment(&sa[0], 0);
        s.on_segment(&ack[0], 0);

        c.send_message(b"first-event!"); // 16 bytes with prefix -> seg 1
        c.send_message(b"second-event"); // seg 2
        let segs = c.poll(0);
        assert!(segs.len() >= 2);
        // Drop the first segment, deliver the rest: nothing must surface.
        let mut delivered = Vec::new();
        for seg in &segs[1..] {
            let (_o, msgs) = s.on_segment(seg, 100);
            delivered.extend(msgs);
        }
        assert!(delivered.is_empty(), "HoL: second event blocked behind first");
        // RTO recovers the head; both surface in order.
        let retx = c.poll(200_000);
        assert!(!retx.is_empty());
        let (_o, msgs) = s.on_segment(&retx[0], 200_100);
        assert_eq!(msgs, vec![b"first-event!".to_vec(), b"second-event".to_vec()]);
    }

    #[test]
    fn fast_retransmit_after_three_dup_acks() {
        let cfg = TcpishConfig { mss: 8, ..TcpishConfig::default() };
        let mut c = TcpishEndpoint::client(cfg);
        let mut s = TcpishEndpoint::server(cfg);
        let syn = c.connect(0);
        let (sa, _) = s.on_segment(&syn, 0);
        let (ack, _) = c.on_segment(&sa[0], 0);
        s.on_segment(&ack[0], 0);

        // Four segments; first lost.
        c.send_message(&[0xAA; 24]); // 28 bytes stream -> 4 segments of mss 8
        let segs = c.poll(0);
        assert_eq!(segs.len(), 4);
        let mut dup_acks = Vec::new();
        for seg in &segs[1..] {
            let (acks, msgs) = s.on_segment(seg, 10);
            assert!(msgs.is_empty());
            dup_acks.extend(acks);
        }
        assert_eq!(dup_acks.len(), 3);
        let mut retx = Vec::new();
        for a in &dup_acks {
            let (outs, _) = c.on_segment(a, 20);
            retx.extend(outs);
        }
        assert_eq!(retx.len(), 1, "third dup ack triggers fast retransmit");
        assert!(c.stats().retransmissions >= 1);
        let (_a, msgs) = s.on_segment(&retx[0], 30);
        assert_eq!(msgs.len(), 1, "stream repaired, message delivered");
    }

    #[test]
    fn window_caps_inflight_bytes() {
        let cfg = TcpishConfig { mss: 1000, window: 3000, ..TcpishConfig::default() };
        let mut c = TcpishEndpoint::client(cfg);
        let mut s = TcpishEndpoint::server(cfg);
        let syn = c.connect(0);
        let (sa, _) = s.on_segment(&syn, 0);
        let (ack, _) = c.on_segment(&sa[0], 0);
        s.on_segment(&ack[0], 0);

        c.send_message(&vec![1u8; 10_000]);
        let segs = c.poll(0);
        let sent: usize = segs.iter().map(|s| s.len() - HEADER_LEN).sum();
        assert!(sent <= 3000, "window respected, sent {sent}");
    }

    #[test]
    fn lossy_stream_eventually_delivers_everything() {
        let cfg = TcpishConfig { mss: 64, ..TcpishConfig::default() };
        let mut c = TcpishEndpoint::client(cfg);
        let mut s = TcpishEndpoint::server(cfg);

        // Deterministic loss pattern: drop every 6th transfer.
        let mut k = 0u32;
        let mut lose = move || {
            k += 1;
            k.is_multiple_of(6)
        };

        let mut now = 0u64;
        // Handshake with possible loss, driven by polls.
        let mut pending_to_s = vec![c.connect(now)];
        let mut pending_to_c: Vec<Vec<u8>> = Vec::new();
        for i in 0..20u8 {
            c.send_message(format!("msg-{i:02}").as_bytes());
        }
        let mut got = Vec::new();
        for _ in 0..2000 {
            for seg in std::mem::take(&mut pending_to_s) {
                if !lose() {
                    let (outs, msgs) = s.on_segment(&seg, now);
                    pending_to_c.extend(outs);
                    got.extend(msgs);
                }
            }
            for seg in std::mem::take(&mut pending_to_c) {
                if !lose() {
                    let (outs, msgs) = c.on_segment(&seg, now);
                    pending_to_s.extend(outs);
                    got.extend(msgs);
                }
            }
            pending_to_s.extend(c.poll(now));
            pending_to_c.extend(s.poll(now));
            now += 50_000;
            if got.len() == 20 {
                break;
            }
        }
        assert_eq!(got.len(), 20, "all messages delivered");
        for (i, m) in got.iter().enumerate() {
            assert_eq!(m, format!("msg-{i:02}").as_bytes(), "in order");
        }
        assert!(s.stats().segments_sent > 0);
        assert!(c.stats().retransmissions > 0, "loss forced retransmissions");
    }

    #[test]
    fn garbage_segments_are_ignored() {
        let mut s = TcpishEndpoint::server(TcpishConfig::default());
        let (outs, msgs) = s.on_segment(&[1, 2, 3], 0);
        assert!(outs.is_empty() && msgs.is_empty());
    }
}
