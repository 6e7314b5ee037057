//! The control plane's clockwork: when this node next sends its beacon —
//! the one periodic control frame: alive, load and the digest of its
//! catalogue — and when its full catalogue is flooded.
//! [`Gossip`] decides when; the container builds and sends the messages.
//!
//! The catalogue is flooded from one place, the end of a tick, ahead of
//! that tick's beacon, and at most once a tick: when a forced re-announce
//! is owed (a peer showed a life not on record; the debounce window holds
//! a burst of those to one flood), or when the catalogue changed (a
//! service changed state or joined a running container) and no longer
//! hashes to the digest last broadcast. A service's state travels only
//! in that catalogue, and the beacon's digest says which one is current.

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
    /// A forced re-announce is owed at the end of this tick.
    owed: bool,
    /// The catalogue changed since the last flood: the end of the tick
    /// rehashes it and floods it if its digest moved.
    changed: bool,
    /// Digest `(hash, entry_count)` of the last full catalogue broadcast —
    /// what every beacon since has carried.
    digest: Option<(u32, u32)>,
}

impl Gossip {
    pub fn new(beacon_period: ProtoDuration, debounce_window: ProtoDuration) -> Self {
        Gossip {
            beacon: Cadence::every(beacon_period),
            forced: Cadence::every(debounce_window),
            pending: false,
            owed: false,
            changed: false,
            digest: None,
        }
    }

    /// `true` (and the beat is taken) when a beacon is owed at `now`.
    pub fn beacon_due(&mut self, now: Micros) -> bool {
        self.beacon.take(now)
    }

    /// A peer lacks our catalogue: its `Announce` or beacon showed a life
    /// not on record. The full catalogue is owed at the end of this tick,
    /// so discovery converges fast — unless the debounce window is open:
    /// repeats inside one window collapse into one pending re-announce,
    /// owed when it closes. A burst of new lives (start-up, a partition
    /// heal) cannot flood the control group with full catalogues.
    pub fn request_reannounce(&mut self, now: Micros) {
        let allowed = self.forced.take(now);
        self.owed |= allowed;
        self.pending = !allowed;
    }

    /// The catalogue changed: a service changed state or was added.
    pub fn catalogue_changed(&mut self) {
        self.changed = true;
    }

    /// What the end of the tick at `now` floods, taken: `Some(true)` when
    /// a forced re-announce is owed (one allowed this tick, or a held-back
    /// one whose window closed), `Some(false)` when the catalogue only
    /// changed — flooded if it no longer hashes to [`digest`](Self::digest)
    /// — and `None` when nothing is owed.
    pub fn flood_due(&mut self, now: Micros) -> Option<bool> {
        if self.pending && self.forced.take(now) {
            self.pending = false;
            self.owed = true;
        }
        let forced = std::mem::take(&mut self.owed);
        (std::mem::take(&mut self.changed) || forced).then_some(forced)
    }

    /// The digest of the last full catalogue broadcast: what a beacon
    /// carries. The end of the tick floods a changed catalogue before the
    /// beacon is staged, so this is the catalogue's digest as it stands.
    pub fn digest(&self) -> Option<(u32, u32)> {
        self.digest
    }

    /// The full catalogue, hashing to `digest`, was broadcast.
    pub fn broadcast(&mut self, digest: (u32, u32)) {
        self.digest = Some(digest);
        self.changed = false;
    }

    /// The earliest instant a beacon or a held-back re-announce is owed.
    /// (A change is flooded at the end of the tick that made it, or, for
    /// a service added between ticks, of the tick that runs its start.)
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
        assert_eq!(g.digest(), Some((7, 2)));
        assert_eq!(g.flood_due(Micros(10_000_000)), None, "no catalogue slot of its own");
        g.catalogue_changed();
        assert_eq!(g.flood_due(Micros(60_000)), Some(false), "changed: rehash and compare");
        assert_eq!(g.flood_due(Micros(60_000)), None, "taken");
        assert_eq!(g.digest(), Some((7, 2)), "changed and changed back: nothing broadcast");
        g.catalogue_changed();
        g.broadcast((8, 3));
        assert_eq!(g.flood_due(Micros(60_000)), None, "the broadcast covered the change");
        assert_eq!(g.digest(), Some((8, 3)));
        assert_eq!(g.next_due(), Micros(101_000));
    }

    #[test]
    fn forced_reannounce_is_debounced_to_one_pending_flush() {
        let mut g = gossip();
        g.broadcast((1, 1));
        g.request_reannounce(Micros(10_000));
        assert_eq!(g.flood_due(Micros(10_000)), Some(true), "first trigger goes out at once");
        g.request_reannounce(Micros(20_000));
        assert_eq!(g.flood_due(Micros(20_000)), None, "inside the window: deferred");
        g.request_reannounce(Micros(30_000));
        assert!(g.beacon_due(Micros(30_000)));
        assert_eq!(g.next_due(), Micros(80_000), "beacon before the flush");
        assert!(g.beacon_due(Micros(180_000)));
        assert_eq!(g.next_due(), Micros(210_000), "the flush before the next beacon");
        assert_eq!(g.flood_due(Micros(209_999)), None);
        g.catalogue_changed();
        assert_eq!(g.flood_due(Micros(210_000)), Some(true), "window closed: one flood for both");
        assert_eq!(g.flood_due(Micros(210_000)), None, "flushed once");
        assert_eq!(g.next_due(), Micros(230_000), "only the beacon is left");
        g.request_reannounce(Micros(300_000));
        assert_eq!(g.flood_due(Micros(300_000)), None, "the flush opened a new window");
        assert_eq!(g.flood_due(Micros(410_000)), Some(true));
    }
}
