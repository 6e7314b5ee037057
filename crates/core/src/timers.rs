//! The [`Cadence`] of one periodic duty, the [`DueQueue`] of a due date
//! per key, and the service [`Timers`]. All answer "when next?" from the
//! very field their tick step compares against, so the phase that fires a
//! due date and [`ServiceContainer::next_due`](crate::ServiceContainer::next_due)
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

/// The due dates of an owner's records: a lazy min-heap of `(due, key)`;
/// the owner keeps each date in its own record and hands the sweep a
/// `due_of` over it. The rules, for every owner: an entry may be early,
/// never late (a date that moves earlier — a variable rebound to a faster
/// provider — arms, one that moves later needs nothing); a key has at most
/// one entry; [`pop_due`](Self::pop_due) re-checks every entry first.
#[derive(Debug)]
pub(crate) struct DueQueue<K> {
    heap: BinaryHeap<Reverse<(Micros, K)>>,
}

impl<K> Default for DueQueue<K> {
    fn default() -> Self {
        DueQueue { heap: BinaryHeap::new() }
    }
}

impl<K> DueQueue<K> {
    /// Bytes of one queued entry.
    pub const ENTRY_BYTES: usize = std::mem::size_of::<Reverse<(Micros, K)>>();

    /// Entries the queue has room for.
    pub fn capacity(&self) -> usize {
        self.heap.capacity()
    }
}

impl<K: Ord + Clone> DueQueue<K> {
    /// Makes `key` surface no later than `due`: a key with no entry gets
    /// one, a later entry moves there, an earlier one stays. A walk over
    /// the heap, for where the owner cannot tell whether the key has an
    /// entry (a bind, a rejoin); a key known to have none is `push`ed.
    pub fn arm(&mut self, key: K, due: Micros) {
        let entry = self.heap.iter().find(|Reverse((_, queued))| *queued == key);
        match entry {
            Some(Reverse((at, _))) if *at <= due => return,
            Some(_) => self.heap.retain(|Reverse((_, queued))| *queued != key),
            None => {}
        }
        self.heap.push(Reverse((due, key)));
    }

    /// Queues `key`, which has no entry: a fresh id, or a key
    /// [`pop_due`](Self::pop_due) returned and nothing armed since.
    pub fn push(&mut self, key: K, due: Micros) {
        debug_assert!(!self.heap.iter().any(|Reverse((_, queued))| *queued == key));
        self.heap.push(Reverse((due, key)));
    }

    /// Entries queued, current or left behind by keys their owner dropped.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// The earliest entry's date: early, never late.
    #[inline]
    pub fn next_due(&self) -> Option<Micros> {
        self.heap.peek().map(|Reverse((due, _))| *due)
    }

    /// The next key due at `now`, taken out of the queue; `None` once no
    /// entry is due. Each surfacing key is re-checked against `due_of`: one
    /// its owner no longer has (`None`) is dropped, one whose date moved
    /// past `now` goes back in at that date, any other is returned.
    #[inline]
    pub fn pop_due(
        &mut self,
        now: Micros,
        mut due_of: impl FnMut(&K) -> Option<Micros>,
    ) -> Option<K> {
        while self.next_due().is_some_and(|due| due <= now) {
            let Reverse((_, key)) = self.heap.pop()?;
            match due_of(&key) {
                Some(due) if due > now => self.heap.push(Reverse((due, key))),
                Some(_) => return Some(key),
                None => {}
            }
        }
        None
    }
}

#[derive(Debug)]
struct TimerInfo {
    service_seq: u32,
    due: Micros,
    period: Option<ProtoDuration>,
}

/// One-shot and periodic service timers: the per-id record, the due-date
/// queue over the ids, and the id counter services draw from.
#[derive(Debug, Default)]
pub(crate) struct Timers {
    info: HashMap<u64, TimerInfo>,
    queue: DueQueue<u64>,
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
        self.info.insert(id.0, TimerInfo { service_seq, due, period });
        self.queue.push(id.0, due);
    }

    /// Cancels `id`; its queue entry is dropped when it surfaces.
    pub fn cancel(&mut self, id: TimerId) {
        self.info.remove(&id.0);
    }

    /// The earliest due date (a cancelled timer's still counts: early is
    /// sound, and the pop drops it).
    pub fn next_due(&self) -> Option<Micros> {
        self.queue.next_due()
    }

    /// Pops the next timer due at `now` as `(service_seq, id)`, re-arming
    /// it one period on when periodic; `None` once nothing more is due.
    pub fn pop_due(&mut self, now: Micros) -> Option<(u32, TimerId)> {
        let id = self.queue.pop_due(now, |id| self.info.get(id).map(|t| t.due))?;
        let timer = self.info.get_mut(&id)?;
        let seq = timer.service_seq;
        if let Some(period) = timer.period {
            timer.due += period;
            self.queue.push(id, timer.due);
        } else {
            self.info.remove(&id);
        }
        Some((seq, TimerId(id)))
    }

    /// Armed timers.
    pub fn len(&self) -> usize {
        self.info.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

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

    impl<K: Ord + Clone> DueQueue<K> {
        /// How many heap entries `key` has.
        pub(crate) fn entries(&self, key: &K) -> usize {
            self.heap.iter().filter(|Reverse((_, queued))| queued == key).count()
        }
    }

    /// The rebind case: an owner whose due date moved earlier arms again,
    /// and its key surfaces at the earlier date, not at the queued one.
    #[test]
    fn an_earlier_arm_takes_effect_and_a_later_one_changes_nothing() {
        let mut q = DueQueue::default();
        let mut due = BTreeMap::from([(1u8, Micros(8_000)), (2, Micros(9_000))]);
        q.arm(1, Micros(8_000));
        q.arm(2, Micros(9_000));
        q.arm(2, Micros(9_500));
        assert_eq!(
            (q.entries(&2), q.next_due()),
            (1, Some(Micros(8_000))),
            "a later arm: no entry"
        );
        due.insert(2, Micros(7_000));
        q.arm(2, Micros(7_000));
        assert_eq!((q.entries(&2), q.next_due()), (1, Some(Micros(7_000))), "moved, not added");
        assert_eq!(q.pop_due(Micros(7_000), |k| due.get(k).copied()), Some(2));
        assert_eq!(q.pop_due(Micros(7_999), |k| due.get(k).copied()), None);
        assert_eq!(q.next_due(), Some(Micros(8_000)));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Against a reference table of each key's due date, over random
        /// arms (fresh, earlier and later ones), refreshes that move a
        /// date later without an arm (as `Directory::touch` does), owners
        /// dropping keys, and sweeps whose fired keys are dropped or, for
        /// even keys, pushed again one period on (as a periodic timer is):
        /// every sweep returns exactly the keys due by then — never late,
        /// never early — `next_due` bounds every due date from below, and
        /// no key ever has two entries.
        #[test]
        fn a_sweep_returns_exactly_the_due_keys(
            ops in proptest::collection::vec((0u8..4, 0u8..8, 0u64..400), 1..300),
        ) {
            let mut q = DueQueue::default();
            let mut due: BTreeMap<u8, Micros> = BTreeMap::new();
            let mut now = Micros::ZERO;
            for (op, key, dt) in ops {
                match op {
                    0 => {
                        due.insert(key, now + ProtoDuration::from_micros(dt));
                        q.arm(key, due[&key]);
                    }
                    1 => {
                        if let Some(at) = due.get_mut(&key) {
                            *at = (*at).max(now + ProtoDuration::from_micros(dt));
                        }
                    }
                    2 => {
                        due.remove(&key);
                    }
                    _ => {
                        now += ProtoDuration::from_micros(dt);
                        let expected: Vec<u8> =
                            due.iter().filter(|(_, at)| **at <= now).map(|(k, _)| *k).collect();
                        let mut fired = Vec::new();
                        while let Some(k) = q.pop_due(now, |k| due.get(k).copied()) {
                            prop_assert!(due[&k] <= now, "{} fired early at {:?}", k, now);
                            fired.push(k);
                            if k % 2 == 0 {
                                let next = now + ProtoDuration::from_micros(1 + u64::from(k));
                                due.insert(k, next);
                                q.push(k, next);
                            } else {
                                due.remove(&k);
                            }
                        }
                        fired.sort_unstable();
                        prop_assert_eq!(fired, expected, "sweep at {:?}", now);
                    }
                }
                if let Some(earliest) = due.values().min() {
                    prop_assert!(q.next_due().is_some_and(|at| at <= *earliest));
                }
                for k in 0..8u8 {
                    prop_assert!(q.entries(&k) <= 1, "{} has {} entries", k, q.entries(&k));
                    if due.contains_key(&k) {
                        prop_assert_eq!(q.entries(&k), 1, "{} has a date and no entry", k);
                    }
                }
            }
        }
    }
}
