//! The [`Cadence`] every periodic duty is measured with, and the service
//! [`Timers`]. Both answer "when next?" from the very field their tick
//! step compares against, so the phase that fires a due date and
//! [`ServiceContainer::next_due`](crate::ServiceContainer::next_due)
//! cannot drift apart.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use marea_protocol::{Micros, ProtoDuration};

use crate::service::TimerId;

/// A periodic duty: due at once until first marked, then one period
/// after the last mark.
#[derive(Debug)]
pub(crate) struct Cadence {
    period: ProtoDuration,
    last: Option<Micros>,
}

impl Cadence {
    pub fn every(period: ProtoDuration) -> Self {
        Cadence { period, last: None }
    }

    /// `true` once a period has elapsed since the last mark.
    pub fn is_due(&self, now: Micros) -> bool {
        self.last.map(|t| now.saturating_since(t) >= self.period).unwrap_or(true)
    }

    /// The first instant [`is_due`](Self::is_due) turns true.
    pub fn next_due(&self) -> Micros {
        self.last.map_or(Micros::ZERO, |t| t + self.period)
    }

    /// The duty ran at `now`.
    pub fn mark(&mut self, now: Micros) {
        self.last = Some(now);
    }

    /// Runs the duty if it is due: `true`, and marked, when it was.
    pub fn take(&mut self, now: Micros) -> bool {
        let due = self.is_due(now);
        if due {
            self.mark(now);
        }
        due
    }

    /// Makes the duty due at once.
    pub fn reset(&mut self) {
        self.last = None;
    }
}

#[derive(Debug)]
struct TimerInfo {
    service_seq: u32,
    period: Option<ProtoDuration>,
    cancelled: bool,
}

/// One-shot and periodic service timers: a due-date heap over timer ids,
/// the per-id record, and the id counter services draw from.
#[derive(Debug, Default)]
pub(crate) struct Timers {
    heap: BinaryHeap<Reverse<(Micros, u64)>>,
    info: HashMap<u64, TimerInfo>,
    next_id: u64,
}

impl Timers {
    /// The counter `ServiceContext::set_timer` mints ids from.
    pub fn ids(&mut self) -> &mut u64 {
        &mut self.next_id
    }

    /// Arms timer `id` for service `service_seq`, first due at `due`.
    pub fn set(
        &mut self,
        id: TimerId,
        service_seq: u32,
        due: Micros,
        period: Option<ProtoDuration>,
    ) {
        self.info.insert(id.0, TimerInfo { service_seq, period, cancelled: false });
        self.heap.push(Reverse((due, id.0)));
    }

    /// Cancels `id`; its heap entry is discarded when it surfaces.
    pub fn cancel(&mut self, id: TimerId) {
        if let Some(info) = self.info.get_mut(&id.0) {
            info.cancelled = true;
        }
    }

    /// The earliest due date (a cancelled timer's still counts: early is
    /// sound, and the pop discards it).
    pub fn next_due(&self) -> Option<Micros> {
        self.heap.peek().map(|&Reverse((due, _))| due)
    }

    /// Pops the next timer due at `now` as `(service_seq, id)`, re-arming
    /// it when periodic; `None` once nothing more is due.
    pub fn pop_due(&mut self, now: Micros) -> Option<(u32, TimerId)> {
        while let Some(&Reverse((due, tid))) = self.heap.peek() {
            if due > now {
                break;
            }
            self.heap.pop();
            let Some(info) = self.info.get(&tid) else { continue };
            if info.cancelled {
                self.info.remove(&tid);
                continue;
            }
            let seq = info.service_seq;
            match info.period {
                Some(p) => self.heap.push(Reverse((due + p, tid))),
                None => {
                    self.info.remove(&tid);
                }
            }
            return Some((seq, TimerId(tid)));
        }
        None
    }

    /// Heap entries (armed timers plus cancelled ones not yet surfaced).
    pub fn len(&self) -> usize {
        self.heap.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cadence_is_due_exactly_from_next_due_on() {
        let mut c = Cadence::every(ProtoDuration::from_millis(10));
        assert!(c.is_due(Micros::ZERO), "never marked: due at once");
        assert_eq!(c.next_due(), Micros::ZERO);
        assert!(c.take(Micros(4_000)));
        assert_eq!(c.next_due(), Micros(14_000));
        assert!(!c.take(Micros(13_999)));
        assert!(c.is_due(Micros(14_000)));
        c.reset();
        assert!(c.is_due(Micros(4_001)));
    }

    #[test]
    fn timers_fire_in_due_order_rearm_and_cancel() {
        let mut t = Timers::default();
        t.set(TimerId(1), 7, Micros(300), None);
        t.set(TimerId(2), 8, Micros(100), Some(ProtoDuration::from_micros(150)));
        t.set(TimerId(3), 9, Micros(200), None);
        t.cancel(TimerId(3));
        assert_eq!(t.next_due(), Some(Micros(100)));
        assert_eq!(t.pop_due(Micros(99)), None);
        // One sweep at 399: the periodic timer fires twice (100, 250).
        let mut fired = Vec::new();
        while let Some(f) = t.pop_due(Micros(399)) {
            fired.push(f);
        }
        assert_eq!(fired, vec![(8, TimerId(2)), (8, TimerId(2)), (7, TimerId(1))]);
        assert_eq!(t.next_due(), Some(Micros(400)), "only the periodic timer is left");
        assert_eq!(t.len(), 1);
    }
}
