//! Interleaved systematic XOR erasure code over shard groups.
//!
//! A *group* is up to `k` variable-length data shards protected by `r`
//! parity lanes; data shard `i` belongs to lane `i % r`, and a lane's
//! parity is the XOR of its members' *virtual shards* (a 2-byte
//! little-endian length prefix followed by the data, zero-padded to the
//! lane's longest member). One erasure per lane is recoverable; because
//! the code is systematic, intact data shards are usable immediately and
//! the whole layer adds zero latency on the no-loss path.
//!
//! Both encoder and decoder XOR into lane buffers, in the spirit of
//! labrador-ldpc, and recovery hands the caller a borrowed slice of the
//! lane accumulator. A lane starts empty and grows by doubling to hold
//! the longest virtual shard it has absorbed, never past the link's
//! maximum shard size plus the prefix; a reset keeps what it grew. A link
//! that carries a few small messages therefore holds a few small lanes,
//! and once its lanes have seen its longest shard, coding is
//! allocation-free. Doubling, not growing to the exact size, matters:
//! shards lengthen a byte at a time as sequence varints widen, and each
//! of those bytes would otherwise be one more allocation.

/// Length of the virtual-shard length prefix.
const LEN_PREFIX: usize = 2;

/// Most data shards a group may carry (the `received` bitmaps are `u64`).
pub const MAX_GROUP_DATA: u8 = 64;

/// Parity shard indices carry this bit; the low bits are the lane number.
pub const PARITY_INDEX_BIT: u8 = 0x80;

fn xor_into(acc: &mut [u8], src: &[u8]) {
    for (a, b) in acc.iter_mut().zip(src.iter()) {
        *a ^= *b;
    }
}

/// One XOR lane: an accumulator plus the length of its longest member.
#[derive(Debug)]
struct Lane {
    /// Zero past `len`; as long as the longest shard absorbed since the
    /// lane was made, rounded up to a power of two and clamped to `cap`.
    acc: Vec<u8>,
    /// Longest virtual shard the lane accepts.
    cap: usize,
    len: usize,
    members: u8,
}

impl Lane {
    fn new(cap: usize) -> Self {
        Lane { acc: Vec::new(), cap, len: 0, members: 0 }
    }

    fn reset(&mut self) {
        self.acc[..self.len].fill(0);
        self.len = 0;
        self.members = 0;
    }

    /// Makes the accumulator at least `n` bytes long, `n <= cap`.
    fn grow_to(&mut self, n: usize) {
        if n > self.acc.len() {
            let len = n.next_power_of_two().min(self.cap);
            self.acc.reserve_exact(len - self.acc.len());
            self.acc.resize(len, 0);
        }
    }

    /// XORs the virtual shard `[len_le16 | data]` into the accumulator.
    /// Returns `false` (lane untouched) when the shard does not fit.
    fn absorb_virtual(&mut self, data: &[u8]) -> bool {
        let vlen = LEN_PREFIX + data.len();
        if vlen > self.cap || data.len() > u16::MAX as usize {
            return false;
        }
        self.grow_to(vlen);
        let len_le = (data.len() as u16).to_le_bytes();
        self.acc[0] ^= len_le[0];
        self.acc[1] ^= len_le[1];
        xor_into(&mut self.acc[LEN_PREFIX..vlen], data);
        self.len = self.len.max(vlen);
        self.members = self.members.saturating_add(1);
        true
    }

    /// XORs a raw parity payload into the accumulator.
    fn absorb_raw(&mut self, payload: &[u8]) -> bool {
        if payload.len() > self.cap {
            return false;
        }
        self.grow_to(payload.len());
        xor_into(&mut self.acc[..payload.len()], payload);
        self.len = self.len.max(payload.len());
        true
    }

    /// Interprets the accumulator as one reconstructed virtual shard.
    fn as_recovered(&self) -> Option<&[u8]> {
        if self.len < LEN_PREFIX {
            return None;
        }
        let dlen = usize::from(u16::from_le_bytes([self.acc[0], self.acc[1]]));
        if LEN_PREFIX + dlen > self.len {
            return None; // inconsistent: some member never reached this lane
        }
        Some(&self.acc[LEN_PREFIX..LEN_PREFIX + dlen])
    }
}

/// Bytes of lane storage `lanes` hold: capacity, not contents.
fn lane_bytes(lanes: &[Lane]) -> usize {
    lanes.iter().map(|lane| lane.acc.capacity()).sum()
}

/// Builds parity for one group at a time, reusing its lane buffers across
/// groups.
#[derive(Debug)]
pub struct GroupEncoder {
    lanes: Vec<Lane>,
    max_shard: usize,
    k: u8,
    r: u8,
    pushed: u8,
}

impl GroupEncoder {
    /// An encoder able to serve geometries up to `max_r` lanes and shards
    /// up to `max_shard` bytes. Its lanes start empty and grow with the
    /// shards they absorb.
    pub fn new(max_shard: usize, max_r: u8) -> Self {
        let cap = max_shard + LEN_PREFIX;
        GroupEncoder {
            lanes: (0..max_r.max(1)).map(|_| Lane::new(cap)).collect(),
            max_shard,
            k: 0,
            r: 0,
            pushed: 0,
        }
    }

    /// Starts a fresh group with geometry `(k, r)`. Clamps to the
    /// encoder's lane count and the bitmap-imposed
    /// [`MAX_GROUP_DATA`].
    pub fn begin(&mut self, k: u8, r: u8) {
        for lane in &mut self.lanes {
            lane.reset();
        }
        self.k = k.min(MAX_GROUP_DATA);
        self.r = r.min(self.lanes.len() as u8).min(self.k.max(1));
        self.pushed = 0;
    }

    /// Largest shard this encoder can absorb.
    pub fn max_shard(&self) -> usize {
        self.max_shard
    }

    /// Bytes of lane storage held: capacity, not contents.
    pub fn lane_bytes(&self) -> usize {
        lane_bytes(&self.lanes)
    }

    /// Data shards absorbed into the current group.
    pub fn pushed(&self) -> u8 {
        self.pushed
    }

    /// `true` once the group holds `k` data shards and parity is due.
    pub fn is_full(&self) -> bool {
        self.r > 0 && self.pushed >= self.k
    }

    /// Absorbs the next data shard and returns its index within the
    /// group, or `None` when the shard cannot be coded (group full,
    /// geometry off, or shard larger than `max_shard`) — the
    /// caller then sends the message bare, outside any group.
    pub fn push(&mut self, data: &[u8]) -> Option<u8> {
        if self.r == 0 || self.pushed >= self.k || data.len() > self.max_shard {
            return None;
        }
        let index = self.pushed;
        let lane = self.lanes.get_mut(usize::from(index % self.r))?;
        if !lane.absorb_virtual(data) {
            return None;
        }
        self.pushed += 1;
        Some(index)
    }

    /// Parity lanes the current group needs: one per lane with members.
    pub fn parity_lanes(&self) -> u8 {
        self.r.min(self.pushed)
    }

    /// Borrows the parity payload of `lane` (valid after the group's data
    /// shards are pushed, until the next [`GroupEncoder::begin`]).
    pub fn parity(&self, lane: u8) -> &[u8] {
        match self.lanes.get(usize::from(lane)) {
            Some(l) => &l.acc[..l.len],
            None => &[],
        }
    }
}

/// Outcome of feeding one shard to a [`GroupDecoder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Absorb {
    /// First sight of this shard; it was accumulated.
    Fresh,
    /// Already seen (duplicate delivery); ignored.
    Duplicate,
    /// Could not be accumulated (oversize or malformed geometry).
    Rejected,
}

/// Reconstructs the erased shards of one group from whatever arrives.
///
/// The decoder never buffers whole shards: each lane keeps a single XOR
/// accumulator, and when exactly one data member of a lane is missing
/// while its parity has arrived, the accumulator *is* the missing
/// virtual shard.
#[derive(Debug)]
pub struct GroupDecoder {
    /// Group id this decoder currently serves.
    pub group: u64,
    lanes: Vec<Lane>,
    /// Bitmap of data indices seen (wire arrivals, not recoveries).
    received: u64,
    /// Bitmap of data indices recovered via parity.
    recovered: u64,
    /// Bitmap of parity lanes seen.
    parity_seen: u8,
    /// Final data-shard count, learned from parity headers; `None` until
    /// a parity shard arrives (data headers carry the geometry *ceiling*).
    k_final: Option<u8>,
    /// Highest data index seen plus one (fallback population estimate).
    k_floor: u8,
    r: u8,
    in_use: bool,
}

impl GroupDecoder {
    /// A decoder with lanes for up to `max_r` parity lanes of
    /// `max_shard`-byte shards. Its lanes start empty, grow with the
    /// shards they absorb and keep that storage across
    /// [`GroupDecoder::reset`].
    pub fn new(max_shard: usize, max_r: u8) -> Self {
        let cap = max_shard + LEN_PREFIX;
        GroupDecoder {
            group: 0,
            lanes: (0..max_r.max(1)).map(|_| Lane::new(cap)).collect(),
            received: 0,
            recovered: 0,
            parity_seen: 0,
            k_final: None,
            k_floor: 0,
            r: 0,
            in_use: false,
        }
    }

    /// Rebinds the decoder to a new group.
    pub fn reset(&mut self, group: u64) {
        for lane in &mut self.lanes {
            lane.reset();
        }
        self.group = group;
        self.received = 0;
        self.recovered = 0;
        self.parity_seen = 0;
        self.k_final = None;
        self.k_floor = 0;
        self.r = 0;
        self.in_use = true;
    }

    /// Bytes of lane storage held: capacity, not contents.
    pub fn lane_bytes(&self) -> usize {
        lane_bytes(&self.lanes)
    }

    /// `true` while the decoder is bound to a live group.
    pub fn in_use(&self) -> bool {
        self.in_use
    }

    /// Marks the decoder free for reuse.
    pub fn retire(&mut self) {
        self.in_use = false;
    }

    /// Wire shards seen for this group (data + parity).
    pub fn received_count(&self) -> u32 {
        self.received.count_ones() + self.parity_seen.count_ones()
    }

    /// Shards the group was sent with, as far as this decoder knows:
    /// exact once parity told us `k`, a floor estimate before that.
    pub fn expected_count(&self) -> u32 {
        match self.k_final {
            Some(k) => u32::from(k) + u32::from(self.r.min(k)),
            None => u32::from(self.k_floor),
        }
    }

    /// Feeds a data shard (`index < `[`PARITY_INDEX_BIT`]).
    pub fn on_data(&mut self, index: u8, r: u8, payload: &[u8]) -> Absorb {
        if index >= MAX_GROUP_DATA || r == 0 {
            return Absorb::Rejected;
        }
        let bit = 1u64 << index;
        if self.received & bit != 0 || self.recovered & bit != 0 {
            return Absorb::Duplicate;
        }
        if self.r == 0 {
            self.r = r.min(self.lanes.len() as u8);
        }
        let Some(lane) = self.lanes.get_mut(usize::from(index % self.r.max(1))) else {
            return Absorb::Rejected;
        };
        if !lane.absorb_virtual(payload) {
            return Absorb::Rejected;
        }
        self.received |= bit;
        self.k_floor = self.k_floor.max(index + 1);
        Absorb::Fresh
    }

    /// Feeds a parity shard for `lane`, carrying the group's final data
    /// count `k` in its header.
    pub fn on_parity(&mut self, lane: u8, k: u8, r: u8, payload: &[u8]) -> Absorb {
        if r == 0 || lane >= 8 || lane >= r {
            return Absorb::Rejected;
        }
        let bit = 1u8 << lane;
        if self.parity_seen & bit != 0 {
            return Absorb::Duplicate;
        }
        if self.r == 0 {
            self.r = r.min(self.lanes.len() as u8);
        }
        let Some(l) = self.lanes.get_mut(usize::from(lane)) else {
            return Absorb::Rejected;
        };
        if !l.absorb_raw(payload) {
            return Absorb::Rejected;
        }
        self.parity_seen |= bit;
        self.k_final = Some(k.min(MAX_GROUP_DATA));
        self.k_floor = self.k_floor.max(k.min(MAX_GROUP_DATA));
        Absorb::Fresh
    }

    /// Attempts one recovery: finds a lane whose parity arrived and whose
    /// data members are all present except one, and reconstructs that
    /// member. Returns `(index, recovered_data)`; call repeatedly until
    /// `None` (a recovery can unblock nothing further here because lanes
    /// are independent, but the loop shape keeps callers simple).
    pub fn recover(&mut self) -> Option<(u8, &[u8])> {
        let k = self.k_final?;
        let r = self.r;
        if r == 0 {
            return None;
        }
        let mut found: Option<(u8, u8)> = None; // (missing index, lane)
        for lane in 0..r.min(8) {
            if self.parity_seen & (1 << lane) == 0 {
                continue;
            }
            let mut missing: Option<u8> = None;
            let mut missing_count = 0u8;
            let mut i = lane;
            while i < k {
                let bit = 1u64 << i;
                if self.received & bit == 0 && self.recovered & bit == 0 {
                    missing_count += 1;
                    missing = Some(i);
                }
                i = match i.checked_add(r) {
                    Some(n) => n,
                    None => break,
                };
            }
            if missing_count == 1 {
                if let Some(m) = missing {
                    found = Some((m, lane));
                    break;
                }
            }
        }
        let (index, lane) = found?;
        self.recovered |= 1u64 << index;
        let recovered = self.lanes.get(usize::from(lane)).and_then(|l| l.as_recovered())?;
        Some((index, recovered))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encode_group(enc: &mut GroupEncoder, shards: &[&[u8]], k: u8, r: u8) -> Vec<(u8, Vec<u8>)> {
        enc.begin(k, r);
        let mut out = Vec::new();
        for s in shards {
            let idx = enc.push(s).expect("shard fits");
            out.push((idx, s.to_vec()));
        }
        for lane in 0..enc.parity_lanes() {
            out.push((PARITY_INDEX_BIT | lane, enc.parity(lane).to_vec()));
        }
        out
    }

    fn decode_with_erasures(
        shards: &[(u8, Vec<u8>)],
        erased: &[u8],
        k_actual: u8,
        r: u8,
    ) -> Vec<(u8, Vec<u8>)> {
        let mut dec = GroupDecoder::new(64, r);
        dec.reset(1);
        for (idx, payload) in shards {
            if erased.contains(idx) {
                continue;
            }
            if idx & PARITY_INDEX_BIT != 0 {
                assert_eq!(
                    dec.on_parity(idx & !PARITY_INDEX_BIT, k_actual, r, payload),
                    Absorb::Fresh
                );
            } else {
                assert_eq!(dec.on_data(*idx, r, payload), Absorb::Fresh);
            }
        }
        let mut recovered = Vec::new();
        while let Some((idx, data)) = dec.recover() {
            recovered.push((idx, data.to_vec()));
        }
        recovered
    }

    #[test]
    fn single_erasure_recovers_exactly() {
        let mut enc = GroupEncoder::new(64, 1);
        let shards = encode_group(&mut enc, &[b"alpha", b"bee", b"gamma-longer", b"d"], 4, 1);
        for victim in 0..4u8 {
            let rec = decode_with_erasures(&shards, &[victim], 4, 1);
            assert_eq!(rec, vec![(victim, shards[victim as usize].1.clone())]);
        }
    }

    #[test]
    fn two_lanes_recover_one_erasure_each() {
        let mut enc = GroupEncoder::new(64, 2);
        let shards = encode_group(&mut enc, &[b"q0", b"q1-long", b"q2", b"q3x"], 4, 2);
        // Indices 0 and 1 live in different lanes (i % 2): both recoverable.
        let rec = decode_with_erasures(&shards, &[0, 1], 4, 2);
        let mut rec = rec;
        rec.sort();
        assert_eq!(rec, vec![(0, b"q0".to_vec()), (1, b"q1-long".to_vec())]);
    }

    #[test]
    fn two_erasures_in_one_lane_are_unrecoverable() {
        let mut enc = GroupEncoder::new(64, 1);
        let shards = encode_group(&mut enc, &[b"a", b"b", b"c"], 4, 1);
        let rec = decode_with_erasures(&shards, &[0, 1], 3, 1);
        assert!(rec.is_empty(), "two losses in a single XOR lane cannot be rebuilt");
    }

    #[test]
    fn lost_parity_means_no_recovery_but_no_harm() {
        let mut enc = GroupEncoder::new(64, 1);
        let shards = encode_group(&mut enc, &[b"a", b"b"], 2, 1);
        let parity_idx = PARITY_INDEX_BIT;
        let rec = decode_with_erasures(&shards, &[parity_idx], 2, 1);
        assert!(rec.is_empty());
    }

    #[test]
    fn partial_group_flush_recovers() {
        // Geometry ceiling k=8, but only 3 shards pushed before flush;
        // parity carries the actual count.
        let mut enc = GroupEncoder::new(64, 1);
        enc.begin(8, 1);
        for s in [b"x1".as_slice(), b"x2", b"x3"] {
            enc.push(s).expect("fits");
        }
        assert!(!enc.is_full());
        let mut shards: Vec<(u8, Vec<u8>)> =
            vec![(0, b"x1".to_vec()), (1, b"x2".to_vec()), (2, b"x3".to_vec())];
        for lane in 0..enc.parity_lanes() {
            shards.push((PARITY_INDEX_BIT | lane, enc.parity(lane).to_vec()));
        }
        let rec = decode_with_erasures(&shards, &[1], 3, 1);
        assert_eq!(rec, vec![(1, b"x2".to_vec())]);
    }

    #[test]
    fn duplicates_do_not_corrupt_the_accumulator() {
        let mut enc = GroupEncoder::new(64, 1);
        let shards = encode_group(&mut enc, &[b"dup", b"keep"], 2, 1);
        let mut dec = GroupDecoder::new(64, 1);
        dec.reset(9);
        assert_eq!(dec.on_data(0, 1, &shards[0].1), Absorb::Fresh);
        assert_eq!(dec.on_data(0, 1, &shards[0].1), Absorb::Duplicate);
        assert_eq!(dec.on_parity(0, 2, 1, &shards[2].1), Absorb::Fresh);
        let (idx, data) = dec.recover().expect("index 1 recoverable");
        assert_eq!((idx, data), (1, b"keep".as_slice()));
        assert!(dec.recover().is_none());
    }

    #[test]
    fn oversize_shards_are_rejected_not_truncated() {
        let mut enc = GroupEncoder::new(4, 1);
        enc.begin(4, 1);
        assert!(enc.push(b"fits").is_some());
        assert!(enc.push(b"too large").is_none());
        let mut dec = GroupDecoder::new(4, 1);
        dec.reset(1);
        assert_eq!(dec.on_data(1, 1, b"way too large"), Absorb::Rejected);
    }

    #[test]
    fn variable_lengths_roundtrip_through_recovery() {
        let mut enc = GroupEncoder::new(128, 2);
        let payloads: Vec<Vec<u8>> =
            (0..6u8).map(|i| (0..=i).map(|j| i.wrapping_mul(17) ^ j).collect()).collect();
        let refs: Vec<&[u8]> = payloads.iter().map(|p| p.as_slice()).collect();
        let shards = encode_group(&mut enc, &refs, 6, 2);
        for victim in 0..6u8 {
            let rec = decode_with_erasures(&shards, &[victim], 6, 2);
            assert_eq!(rec, vec![(victim, payloads[victim as usize].clone())]);
        }
    }

    use crate::fec::MAX_SHARD_LEN;

    /// Where each lane's storage is and how much of it there is.
    fn storage(lanes: &[Lane]) -> Vec<(*const u8, usize)> {
        lanes.iter().map(|lane| (lane.acc.as_ptr(), lane.acc.capacity())).collect()
    }

    #[test]
    fn fresh_coders_hold_no_lane_storage() {
        let mut enc = GroupEncoder::new(MAX_SHARD_LEN, 2);
        let mut dec = GroupDecoder::new(MAX_SHARD_LEN, 2);
        assert_eq!((enc.lane_bytes(), dec.lane_bytes()), (0, 0));
        enc.begin(4, 2);
        dec.reset(1);
        assert_eq!((enc.lane_bytes(), dec.lane_bytes()), (0, 0), "a group opened grows nothing");
    }

    /// After one group of shards of up to `L` bytes, a thousand more such
    /// groups — coded, decoded with an erasure, recovered — leave every
    /// lane of both ends where it was, no larger.
    #[test]
    fn lanes_stay_put_once_they_held_the_longest_shard() {
        const L: usize = 300;
        let mut enc = GroupEncoder::new(MAX_SHARD_LEN, 2);
        let mut dec = GroupDecoder::new(MAX_SHARD_LEN, 2);
        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        let mut draw = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let mut pinned = None;
        for group in 0..=1_000u64 {
            let payloads: Vec<Vec<u8>> = (0..4)
                .map(|_| {
                    let len = if group == 0 { L } else { 1 + draw() as usize % L };
                    (0..len).map(|_| draw() as u8).collect()
                })
                .collect();
            let refs: Vec<&[u8]> = payloads.iter().map(Vec::as_slice).collect();
            let shards = encode_group(&mut enc, &refs, 4, 2);
            let victim = (group % 4) as u8;
            dec.reset(group);
            for (idx, payload) in shards.iter().filter(|(idx, _)| *idx != victim) {
                let outcome = if idx & PARITY_INDEX_BIT != 0 {
                    dec.on_parity(idx & !PARITY_INDEX_BIT, 4, 2, payload)
                } else {
                    dec.on_data(*idx, 2, payload)
                };
                assert_eq!(outcome, Absorb::Fresh);
            }
            let (index, data) = dec.recover().expect("one erasure per lane is recoverable");
            assert_eq!((index, data), (victim, payloads[usize::from(victim)].as_slice()));
            let now = (storage(&enc.lanes), storage(&dec.lanes));
            assert_eq!(*pinned.get_or_insert_with(|| now.clone()), now, "group {group}");
        }
        assert!(enc.lane_bytes() >= 2 * (L + LEN_PREFIX) && enc.lane_bytes() < 4 * L);
    }

    /// Shards that lengthen a byte at a time — as a sequence varint widens
    /// — grow a lane a handful of times, not once per byte.
    #[test]
    fn lanes_grow_by_doubling_as_shards_lengthen() {
        let mut enc = GroupEncoder::new(MAX_SHARD_LEN, 1);
        let mut grown = 0;
        let mut held = enc.lane_bytes();
        for len in 1..=MAX_SHARD_LEN {
            enc.begin(1, 1);
            enc.push(&vec![0x5A; len]).expect("every length up to the cap is coded");
            grown += usize::from(enc.lane_bytes() != held);
            held = enc.lane_bytes();
        }
        assert_eq!(held, MAX_SHARD_LEN + LEN_PREFIX, "clamped to the cap");
        assert!(grown <= 12, "{grown} growths for {MAX_SHARD_LEN} lengths");
    }

    /// The cap, not what a lane holds so far, decides what is coded: a
    /// shard of exactly `MAX_SHARD_LEN` on a fresh link goes into the group
    /// and comes back out of parity.
    #[test]
    fn a_max_size_shard_is_coded_and_recovered_on_fresh_lanes() {
        let big: Vec<u8> = (0..MAX_SHARD_LEN).map(|i| (i * 7) as u8).collect();
        let mut enc = GroupEncoder::new(MAX_SHARD_LEN, 2);
        let shards = encode_group(&mut enc, &[&big, b"small"], 2, 1);
        assert_eq!(enc.lane_bytes(), MAX_SHARD_LEN + LEN_PREFIX);
        let mut dec = GroupDecoder::new(MAX_SHARD_LEN, 2);
        dec.reset(1);
        assert_eq!(dec.on_data(1, 1, b"small"), Absorb::Fresh);
        assert_eq!(dec.on_parity(0, 2, 1, &shards[2].1), Absorb::Fresh);
        let (index, data) = dec.recover().expect("the big shard is rebuilt");
        assert_eq!((index, data), (0, big.as_slice()));
    }

    #[test]
    fn an_oversize_payload_is_rejected_and_grows_nothing() {
        let mut dec = GroupDecoder::new(MAX_SHARD_LEN, 2);
        dec.reset(1);
        let parity = vec![0xA5; MAX_SHARD_LEN + LEN_PREFIX + 1];
        assert_eq!(dec.on_parity(0, 2, 2, &parity), Absorb::Rejected);
        assert_eq!(dec.on_data(1, 2, &parity[..MAX_SHARD_LEN + 1]), Absorb::Rejected);
        assert_eq!(dec.lane_bytes(), 0);
        let mut enc = GroupEncoder::new(MAX_SHARD_LEN, 2);
        enc.begin(2, 2);
        assert_eq!(enc.push(&parity[..MAX_SHARD_LEN + 1]), None);
        assert_eq!(enc.lane_bytes(), 0);
    }

    #[test]
    fn accounting_tracks_expected_and_received() {
        let mut dec = GroupDecoder::new(64, 1);
        dec.reset(3);
        assert_eq!(dec.expected_count(), 0);
        dec.on_data(0, 1, b"a");
        dec.on_data(2, 1, b"c");
        assert_eq!(dec.expected_count(), 3, "floor: highest index + 1");
        dec.on_parity(0, 3, 1, b"parity-ish");
        assert_eq!(dec.expected_count(), 4, "exact: k + parity lanes");
        assert_eq!(dec.received_count(), 3);
    }
}
