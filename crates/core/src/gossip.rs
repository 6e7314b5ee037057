//! The control plane's clockwork: when this node next says it is alive
//! (heartbeat) and what it next says about its catalogue (full
//! `Announce`, compact `AnnounceDigest`, or the debounced forced
//! re-announce). [`Gossip`] decides when and which; the container builds
//! and sends the messages.

use marea_protocol::{Micros, ProtoDuration};

use crate::timers::Cadence;

/// What the announce slot owes the control group at this tick.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum AnnounceSlot {
    Idle,
    /// A forced re-announce the debounce held back: the full catalogue.
    Forced,
    /// The announce period elapsed: the full catalogue if it changed since
    /// the last broadcast ([`Gossip::current_digest`], then
    /// [`Gossip::digest_unchanged`]), else its digest.
    Periodic,
}

/// Heartbeat and catalogue-gossip cadences of one container.
#[derive(Debug)]
pub(crate) struct Gossip {
    heartbeat: Cadence,
    announce: Cadence,
    /// Last forced (out-of-cadence) re-announce: the debounce window, one
    /// announce period long.
    forced: Cadence,
    /// A forced re-announce arrived inside the window and waits for it to
    /// close.
    pending: bool,
    /// Digest `(hash, entry_count)` of the last full catalogue broadcast.
    /// While the catalogue still hashes to it, the periodic slot sends an
    /// `AnnounceDigest` instead of re-flooding the catalogue.
    digest: Option<(u32, u32)>,
    /// The catalogue was touched since `digest` was last compared with
    /// it: the next periodic slot must rebuild and rehash it. While this
    /// is clear, `digest` *is* the catalogue's digest and nothing needs
    /// recomputing to learn that it did not change.
    stale: bool,
}

impl Gossip {
    pub fn new(heartbeat_period: ProtoDuration, announce_period: ProtoDuration) -> Self {
        Gossip {
            heartbeat: Cadence::every(heartbeat_period),
            announce: Cadence::every(announce_period),
            forced: Cadence::every(announce_period),
            pending: false,
            digest: None,
            stale: false,
        }
    }

    /// `true` (and the beat is taken) when a heartbeat is owed at `now`.
    pub fn heartbeat_due(&mut self, now: Micros) -> bool {
        self.heartbeat.take(now)
    }

    /// What the announce slot owes at `now`; `Forced` closes the debounce
    /// window.
    pub fn announce_slot(&mut self, now: Micros) -> AnnounceSlot {
        if self.pending && self.forced.take(now) {
            self.pending = false;
            AnnounceSlot::Forced
        } else if self.announce.is_due(now) {
            AnnounceSlot::Periodic
        } else {
            AnnounceSlot::Idle
        }
    }

    /// A peer signalled it lacks our catalogue (its `Hello`, typically).
    /// `true`: re-broadcast the full catalogue now, so discovery converges
    /// fast. Repeats inside one announce period collapse into one pending
    /// re-announce that [`announce_slot`](Self::announce_slot) releases at
    /// the period boundary — a burst of `Hello`s cannot flood the control
    /// group with full-catalogue broadcasts.
    pub fn request_reannounce(&mut self, now: Micros) -> bool {
        let allowed = self.forced.take(now);
        self.pending = !allowed;
        allowed
    }

    /// The digest to gossip in the periodic slot at `now` (which is then
    /// taken), when nothing touched the catalogue since the fleet was last
    /// told. `None`: the catalogue must be rehashed and put to
    /// [`digest_unchanged`](Self::digest_unchanged).
    pub fn current_digest(&mut self, now: Micros) -> Option<(u32, u32)> {
        let digest = self.digest.filter(|_| !self.stale);
        if digest.is_some() {
            self.announce.mark(now);
        }
        digest
    }

    /// `true` (and the periodic slot is taken) when the catalogue, just
    /// rehashed to `digest`, still hashes to what the fleet was last told,
    /// so the digest suffices.
    pub fn digest_unchanged(&mut self, now: Micros, digest: (u32, u32)) -> bool {
        let unchanged = self.digest == Some(digest);
        if unchanged {
            self.announce.mark(now);
            self.stale = false;
        }
        unchanged
    }

    /// The full catalogue, hashing to `digest`, was broadcast at `now`.
    pub fn broadcast(&mut self, now: Micros, digest: (u32, u32)) {
        self.announce.mark(now);
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
    /// container): the announce slot is due at once.
    pub fn announce_at_once(&mut self) {
        self.announce.reset();
    }

    /// The earliest instant a heartbeat or an announce slot is owed.
    pub fn next_due(&self) -> Micros {
        let periodic = self.heartbeat.next_due().min(self.announce.next_due());
        if self.pending {
            periodic.min(self.forced.next_due())
        } else {
            periodic
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
    fn heartbeat_and_digest_cadences_answer_their_own_due_dates() {
        let mut g = gossip();
        assert_eq!(g.next_due(), Micros::ZERO, "everything is owed at start");
        assert!(g.heartbeat_due(Micros(1_000)));
        assert!(!g.heartbeat_due(Micros(50_999)));
        g.broadcast(Micros(1_000), (7, 2));
        assert_eq!(g.next_due(), Micros(51_000), "the next heartbeat");
        assert!(g.heartbeat_due(Micros(51_000)));
        assert_eq!(g.announce_slot(Micros(200_999)), AnnounceSlot::Idle);
        assert_eq!(g.announce_slot(Micros(201_000)), AnnounceSlot::Periodic);
        assert_eq!(g.current_digest(Micros(201_000)), Some((7, 2)), "untouched: digest only");
        assert_eq!(g.announce_slot(Micros(201_000)), AnnounceSlot::Idle, "slot taken");
        g.catalogue_changed();
        assert_eq!(g.current_digest(Micros(401_000)), None, "touched: rehash");
        assert_eq!(g.announce_slot(Micros(401_000)), AnnounceSlot::Periodic, "slot not taken");
        assert!(g.digest_unchanged(Micros(401_000), (7, 2)), "changed and changed back");
        assert_eq!(g.current_digest(Micros(601_000)), Some((7, 2)), "compared: trusted again");
        g.catalogue_changed();
        assert!(!g.digest_unchanged(Micros(801_000), (8, 3)), "changed: full catalogue");
        g.announce_at_once();
        assert_eq!(g.announce_slot(Micros(700_000)), AnnounceSlot::Periodic);
    }

    #[test]
    fn forced_reannounce_is_debounced_to_one_pending_flush() {
        let mut g = gossip();
        g.broadcast(Micros::ZERO, (1, 1));
        assert!(g.request_reannounce(Micros(10_000)), "first trigger goes out at once");
        assert!(!g.request_reannounce(Micros(20_000)), "inside the window: deferred");
        assert!(!g.request_reannounce(Micros(30_000)));
        assert!(g.heartbeat_due(Micros(30_000)));
        assert_eq!(g.next_due(), Micros(80_000), "heartbeat before the flush");
        assert_eq!(g.announce_slot(Micros(209_999)), AnnounceSlot::Periodic);
        g.broadcast(Micros(209_999), (1, 1));
        assert_eq!(g.announce_slot(Micros(210_000)), AnnounceSlot::Forced, "window closed");
        assert_eq!(g.announce_slot(Micros(210_000)), AnnounceSlot::Idle, "flushed once");
    }
}
