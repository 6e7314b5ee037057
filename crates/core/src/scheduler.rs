//! The pluggable handler scheduler.
//!
//! Paper §6: *"our implementation also [has] a pluggable scheduler that
//! queues and arranges event/variable handlers and service calls execution
//! ... current scheduler implementation is basically a simple thread pool
//! with fixed priorities for each named primitive"*.
//!
//! MAREA's deterministic container executes handler invocations cooperatively
//! inside `tick`, bounded by a per-tick budget; the *scheduling policy* —
//! which queued invocation runs next — is what this module makes pluggable.
//! [`PriorityScheduler`] implements the paper's fixed priorities per
//! primitive; [`FifoScheduler`] is the ablation baseline for experiment C5
//! (soft real-time behaviour under load).

use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

use marea_presentation::{Name, Value};
use marea_protocol::{Micros, NodeId, RequestId};

use crate::error::CallError;
use crate::service::{FileEvent, ProviderNotice, TimerId};
use crate::trace::TraceId;

/// Fixed handler priority; lower value runs first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Priority(pub u8);

impl Priority {
    /// Lifecycle transitions (start/stop) — always first.
    pub const LIFECYCLE: Priority = Priority(0);
    /// Event deliveries ("reservation of time slots ... will ensure this
    /// critical constraint", §4.2).
    pub const EVENT: Priority = Priority(1);
    /// Remote invocation executions and replies.
    pub const CALL: Priority = Priority(2);
    /// Timer expirations.
    pub const TIMER: Priority = Priority(3);
    /// Variable sample deliveries (loss-tolerant, lowest urgency of the
    /// messaging primitives).
    pub const VARIABLE: Priority = Priority(4);
    /// File transfer progress/completion notifications.
    pub const FILE: Priority = Priority(5);
    /// Background work that must never crowd out any primitive — the lane
    /// event subscriptions opt into via
    /// [`EventQos::bulk`](crate::EventQos::bulk).
    pub const BULK: Priority = Priority(6);
}

/// One queued handler invocation.
#[derive(Debug)]
pub struct Task {
    /// Scheduling class.
    pub priority: Priority,
    /// Admission order, used as FIFO tie-break within a priority.
    pub enqueued_seq: u64,
    /// Target service instance (per-node sequence).
    pub service_seq: u32,
    /// What to run.
    pub payload: TaskPayload,
}

/// The handler to invoke.
#[derive(Debug)]
pub enum TaskPayload {
    /// Run `on_start`.
    Start,
    /// Run `on_stop`.
    Stop,
    /// Deliver a variable sample.
    DeliverVariable {
        /// Variable name.
        name: Name,
        /// Decoded sample — the one allocation the subscription's history
        /// ring and every other delivery of this sample hold.
        value: Arc<Value>,
        /// Publisher's production stamp.
        stamp: Micros,
        /// Sample sequence number.
        seq: u64,
        /// Causal id threaded from the publisher (flight recorder).
        trace: TraceId,
    },
    /// Warn that a variable stopped arriving (validity/deadline QoS).
    VariableTimeout {
        /// Variable name.
        name: Name,
    },
    /// Deliver an event.
    DeliverEvent {
        /// Event name.
        name: Name,
        /// Decoded payload (None for bare events).
        value: Option<Value>,
        /// Event sequence number on its channel.
        seq: u64,
        /// Publisher's production stamp.
        stamp: Micros,
        /// Causal id threaded from the emitter (flight recorder).
        trace: TraceId,
    },
    /// Execute a remotely invoked function.
    ExecuteCall {
        /// Correlation id to reply with.
        request: RequestId,
        /// Caller node (local node = in-container call).
        caller: NodeId,
        /// Function name.
        function: Name,
        /// Decoded arguments.
        args: Vec<Value>,
        /// Causal id from the caller's request, echoed in the reply.
        trace: TraceId,
    },
    /// Deliver a remote invocation outcome to the caller.
    DeliverReply {
        /// The handle returned by `call`.
        request: RequestId,
        /// Outcome.
        result: Result<Value, CallError>,
    },
    /// Deliver a file-transfer notification.
    File(FileEvent),
    /// Deliver a provider-availability notification.
    Provider(ProviderNotice),
    /// Run a timer handler.
    Timer {
        /// The timer that fired.
        id: TimerId,
    },
}

/// A pluggable task queue.
///
/// Implementations must be deterministic: identical push sequences produce
/// identical pop sequences.
pub trait Scheduler: Send + fmt::Debug {
    /// Admits a task.
    fn push(&mut self, task: Task);

    /// Removes the next task to run.
    fn pop(&mut self) -> Option<Task>;

    /// Removes and returns the *oldest* queued task matching `pred`
    /// (lowest admission order), or `None` when nothing matches.
    ///
    /// The container uses this to enforce
    /// [`DropPolicy::DropOldest`](crate::DropPolicy::DropOldest) on
    /// bounded event inboxes: the stalest queued delivery of an
    /// overflowing subscription is retracted to admit the fresh one.
    fn remove_matching(&mut self, pred: &mut dyn FnMut(&Task) -> bool) -> Option<Task>;

    /// Queued task count.
    fn len(&self) -> usize;

    /// `true` when no tasks are queued.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Fixed-priority scheduler (the paper's policy): lower [`Priority`] first,
/// FIFO within a priority.
#[derive(Debug, Default)]
pub struct PriorityScheduler {
    // One FIFO lane per priority keeps pop O(#priorities) and strictly
    // deterministic.
    lanes: Vec<(Priority, VecDeque<Task>)>,
    len: usize,
}

impl PriorityScheduler {
    /// Creates an empty scheduler.
    pub fn new() -> Self {
        PriorityScheduler::default()
    }
}

impl Scheduler for PriorityScheduler {
    fn push(&mut self, task: Task) {
        let pos = self.lanes.iter().position(|(p, _)| *p == task.priority);
        match pos {
            Some(i) => self.lanes[i].1.push_back(task),
            None => {
                self.lanes.push((task.priority, VecDeque::from([task])));
                self.lanes.sort_by_key(|(p, _)| *p);
            }
        }
        self.len += 1;
    }

    fn pop(&mut self) -> Option<Task> {
        for (_, lane) in self.lanes.iter_mut() {
            if let Some(t) = lane.pop_front() {
                self.len -= 1;
                return Some(t);
            }
        }
        None
    }

    fn remove_matching(&mut self, pred: &mut dyn FnMut(&Task) -> bool) -> Option<Task> {
        // Within a lane tasks are FIFO, so the first match per lane is that
        // lane's oldest; the globally oldest is the one with the lowest
        // admission sequence across lanes.
        let mut best: Option<(usize, usize, u64)> = None;
        for (li, (_, lane)) in self.lanes.iter().enumerate() {
            if let Some((i, t)) = lane.iter().enumerate().find(|(_, t)| pred(t)) {
                if best.is_none_or(|(_, _, seq)| t.enqueued_seq < seq) {
                    best = Some((li, i, t.enqueued_seq));
                }
            }
        }
        let (li, i, _) = best?;
        self.len -= 1;
        self.lanes[li].1.remove(i)
    }

    fn len(&self) -> usize {
        self.len
    }
}

/// First-in-first-out scheduler, ignoring priorities — the ablation
/// baseline for experiment C5.
#[derive(Debug, Default)]
pub struct FifoScheduler {
    queue: VecDeque<Task>,
}

impl FifoScheduler {
    /// Creates an empty scheduler.
    pub fn new() -> Self {
        FifoScheduler::default()
    }
}

impl Scheduler for FifoScheduler {
    fn push(&mut self, task: Task) {
        self.queue.push_back(task);
    }

    fn pop(&mut self) -> Option<Task> {
        self.queue.pop_front()
    }

    fn remove_matching(&mut self, pred: &mut dyn FnMut(&Task) -> bool) -> Option<Task> {
        let i = self.queue.iter().position(pred)?;
        self.queue.remove(i)
    }

    fn len(&self) -> usize {
        self.queue.len()
    }
}

/// Which built-in scheduler a container uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulerKind {
    /// Fixed priorities per primitive (paper §6).
    #[default]
    Priority,
    /// Plain FIFO (ablation baseline).
    Fifo,
}

impl SchedulerKind {
    /// Instantiates the scheduler.
    pub fn build(self) -> Box<dyn Scheduler> {
        match self {
            SchedulerKind::Priority => Box::new(PriorityScheduler::new()),
            SchedulerKind::Fifo => Box::new(FifoScheduler::new()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn task(priority: Priority, seq: u64) -> Task {
        Task {
            priority,
            enqueued_seq: seq,
            service_seq: 0,
            payload: TaskPayload::Timer { id: TimerId(seq) },
        }
    }

    #[test]
    fn priority_scheduler_orders_by_priority_then_fifo() {
        let mut s = PriorityScheduler::new();
        s.push(task(Priority::VARIABLE, 1));
        s.push(task(Priority::EVENT, 2));
        s.push(task(Priority::VARIABLE, 3));
        s.push(task(Priority::EVENT, 4));
        s.push(task(Priority::LIFECYCLE, 5));
        let order: Vec<u64> = std::iter::from_fn(|| s.pop()).map(|t| t.enqueued_seq).collect();
        assert_eq!(order, vec![5, 2, 4, 1, 3]);
        assert!(s.is_empty());
    }

    #[test]
    fn fifo_scheduler_ignores_priority() {
        let mut s = FifoScheduler::new();
        s.push(task(Priority::VARIABLE, 1));
        s.push(task(Priority::EVENT, 2));
        let order: Vec<u64> = std::iter::from_fn(|| s.pop()).map(|t| t.enqueued_seq).collect();
        assert_eq!(order, vec![1, 2]);
    }

    #[test]
    fn len_tracks_pushes_and_pops() {
        let mut s = PriorityScheduler::new();
        assert_eq!(s.len(), 0);
        s.push(task(Priority::CALL, 1));
        s.push(task(Priority::FILE, 2));
        assert_eq!(s.len(), 2);
        s.pop();
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn remove_matching_takes_the_oldest_match() {
        let mut s = PriorityScheduler::new();
        s.push(task(Priority::EVENT, 1));
        s.push(task(Priority::BULK, 2));
        s.push(task(Priority::BULK, 3));
        // Oldest BULK task is seq 2, even though EVENT pops first.
        let t = s.remove_matching(&mut |t| t.priority == Priority::BULK).unwrap();
        assert_eq!(t.enqueued_seq, 2);
        assert_eq!(s.len(), 2);
        assert!(s.remove_matching(&mut |t| t.priority == Priority::FILE).is_none());
        let order: Vec<u64> = std::iter::from_fn(|| s.pop()).map(|t| t.enqueued_seq).collect();
        assert_eq!(order, vec![1, 3]);

        let mut f = FifoScheduler::new();
        f.push(task(Priority::EVENT, 1));
        f.push(task(Priority::EVENT, 2));
        let t = f.remove_matching(&mut |_| true).unwrap();
        assert_eq!(t.enqueued_seq, 1, "fifo: front is oldest");
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn kind_builds_both() {
        assert!(format!("{:?}", SchedulerKind::Priority.build()).contains("Priority"));
        assert!(format!("{:?}", SchedulerKind::Fifo.build()).contains("Fifo"));
    }

    #[test]
    fn priority_constants_are_ordered() {
        assert!(Priority::LIFECYCLE < Priority::EVENT);
        assert!(Priority::EVENT < Priority::CALL);
        assert!(Priority::CALL < Priority::TIMER);
        assert!(Priority::TIMER < Priority::VARIABLE);
        assert!(Priority::VARIABLE < Priority::FILE);
        assert!(Priority::FILE < Priority::BULK);
    }
}
