//! The control plane's clockwork: when this node next sends its beacon —
//! the one periodic control frame: alive, load, FEC capability and the
//! digest of its catalogue — and when a forced full `Announce` the
//! debounce held back is released. [`Gossip`] decides when and which; the
//! container builds and sends the messages.

use marea_protocol::{Micros, ProtoDuration};

use crate::timers::Cadence;

/// Beacon cadence, re-announce debounce and catalogue digest of one
/// container.
#[derive(Debug)]
pub(crate) struct Gossip {
    beacon: Cadence,
    /// Last forced (out-of-cadence) re-announce: the debounce window.
    forced: Cadence,
    /// A forced re-announce arrived inside the window and waits for it to
    /// close.
    pending: bool,
    /// Digest `(hash, entry_count)` of the last full catalogue broadcast —
    /// what every beacon since has carried.
    digest: Option<(u32, u32)>,
    /// The catalogue was touched since `digest` was last compared with
    /// it: the next beacon slot must rebuild and rehash it. While this is
    /// clear, `digest` *is* the catalogue's digest and nothing needs
    /// recomputing to learn that it did not change.
    stale: bool,
}

impl Gossip {
    pub fn new(beacon_period: ProtoDuration, debounce_window: ProtoDuration) -> Self {
        Gossip {
            beacon: Cadence::every(beacon_period),
            forced: Cadence::every(debounce_window),
            pending: false,
            digest: None,
            stale: false,
        }
    }

    /// `true` (and the beat is taken) when a beacon is owed at `now`.
    pub fn beacon_due(&mut self, now: Micros) -> bool {
        self.beacon.take(now)
    }

    /// `true`, once, when the debounce window of a held-back forced
    /// re-announce has closed: the full catalogue is owed at `now`.
    pub fn reannounce_due(&mut self, now: Micros) -> bool {
        let due = self.pending && self.forced.take(now);
        if due {
            self.pending = false;
        }
        due
    }

    /// A peer signalled it lacks our catalogue (its `Hello`, typically).
    /// `true`: re-broadcast the full catalogue now, so discovery converges
    /// fast. Repeats inside one window collapse into one pending
    /// re-announce that [`reannounce_due`](Self::reannounce_due) releases
    /// when it closes — a burst of `Hello`s cannot flood the control group
    /// with full-catalogue broadcasts.
    pub fn request_reannounce(&mut self, now: Micros) -> bool {
        let allowed = self.forced.take(now);
        self.pending = !allowed;
        allowed
    }

    /// The digest a beacon carries while nothing touched the catalogue
    /// since the fleet was last told. `None`: the catalogue must be
    /// rehashed and put to [`digest_unchanged`](Self::digest_unchanged).
    pub fn digest(&self) -> Option<(u32, u32)> {
        self.digest.filter(|_| !self.stale)
    }

    /// `true` when the catalogue, just rehashed to `digest`, still hashes
    /// to what the fleet was last told; otherwise it must be broadcast
    /// ahead of the beacon that carries `digest`.
    pub fn digest_unchanged(&mut self, digest: (u32, u32)) -> bool {
        let unchanged = self.digest == Some(digest);
        if unchanged {
            self.stale = false;
        }
        unchanged
    }

    /// The full catalogue, hashing to `digest`, was broadcast.
    pub fn broadcast(&mut self, digest: (u32, u32)) {
        self.digest = Some(digest);
        self.stale = false;
    }

    /// A service was added or changed state: the last broadcast digest may
    /// no longer hold. (The incarnation it also covers is fixed between
    /// `start` and `stop`, and `start` always broadcasts.)
    pub fn catalogue_changed(&mut self) {
        self.stale = true;
    }

    /// The catalogue changed out of cadence (a service joined a running
    /// container): the beacon slot, which re-floods it, is due at once.
    pub fn announce_at_once(&mut self) {
        self.beacon.reset();
    }

    /// The earliest instant a beacon or a held-back re-announce is owed.
    pub fn next_due(&self) -> Micros {
        if self.pending {
            self.beacon.next_due().min(self.forced.next_due())
        } else {
            self.beacon.next_due()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gossip() -> Gossip {
        Gossip::new(ProtoDuration::from_millis(50), ProtoDuration::from_millis(200))
    }

    #[test]
    fn the_beacon_slot_is_the_only_periodic_slot_and_carries_the_kept_digest() {
        let mut g = gossip();
        assert_eq!(g.next_due(), Micros::ZERO, "the first beacon is owed at start");
        assert_eq!(g.digest(), None, "nothing broadcast yet");
        g.broadcast((7, 2));
        assert!(g.beacon_due(Micros(1_000)));
        assert!(!g.beacon_due(Micros(50_999)));
        assert_eq!(g.next_due(), Micros(51_000), "the next beacon, whatever was broadcast when");
        assert!(g.beacon_due(Micros(51_000)));
        assert_eq!(g.digest(), Some((7, 2)), "untouched: the kept digest, no rehash");
        assert!(!g.reannounce_due(Micros(10_000_000)), "no catalogue slot of its own");
        g.catalogue_changed();
        assert_eq!(g.digest(), None, "touched: rehash");
        assert!(g.digest_unchanged((7, 2)), "changed and changed back");
        assert_eq!(g.digest(), Some((7, 2)), "compared: trusted again");
        g.catalogue_changed();
        assert!(!g.digest_unchanged((8, 3)), "changed: full catalogue ahead of the beacon");
        assert_eq!(g.digest(), None, "still stale until that broadcast happened");
        g.broadcast((8, 3));
        assert_eq!(g.digest(), Some((8, 3)));
        assert_eq!(g.next_due(), Micros(101_000));
        g.announce_at_once();
        assert_eq!(g.next_due(), Micros::ZERO, "the beacon slot is due at once");
        assert!(g.beacon_due(Micros(60_000)));
    }

    #[test]
    fn forced_reannounce_is_debounced_to_one_pending_flush() {
        let mut g = gossip();
        g.broadcast((1, 1));
        assert!(g.request_reannounce(Micros(10_000)), "first trigger goes out at once");
        assert!(!g.request_reannounce(Micros(20_000)), "inside the window: deferred");
        assert!(!g.request_reannounce(Micros(30_000)));
        assert!(g.beacon_due(Micros(30_000)));
        assert_eq!(g.next_due(), Micros(80_000), "beacon before the flush");
        assert!(g.beacon_due(Micros(180_000)));
        assert_eq!(g.next_due(), Micros(210_000), "the flush before the next beacon");
        assert!(!g.reannounce_due(Micros(209_999)));
        assert!(g.reannounce_due(Micros(210_000)), "window closed");
        assert!(!g.reannounce_due(Micros(210_000)), "flushed once");
        assert_eq!(g.next_due(), Micros(230_000), "only the beacon is left");
        assert!(!g.request_reannounce(Micros(300_000)), "the flush opened a new window");
        assert!(g.reannounce_due(Micros(410_000)));
    }
}
