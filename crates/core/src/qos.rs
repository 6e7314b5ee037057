//! Typed QoS profiles: the per-endpoint contracts behind the §4 primitives.
//!
//! The paper defines each primitive *by* its quality of service — validity
//! windows and guaranteed initial values for variables (§4.1), reliable
//! ordered delivery for events (§4.2), bounded-time invocation with
//! transparent failover (§4.3). This module makes those contracts
//! first-class values: a service *declares* a [`VarQos`] / [`EventQos`]
//! profile together with each provision or subscription, and passes
//! [`CallOptions`] with each remote invocation. Every layer below — the
//! container, the four engines, the scheduler and the stats — enforces
//! exactly what was declared, and [`QosStats`](crate::QosStats) counts
//! every enforcement action.
//!
//! Profiles are plain `Copy` data with [`Default`] impls that reproduce
//! the pre-profile behaviour, so `VarQos::default()` is always a safe
//! starting point. Invalid profiles (zero validity, zero queue bounds,
//! empty history) are rejected at declaration time — a QoS contract is a
//! static property of the system, and a nonsensical one is a programming
//! error, not a runtime condition.

use std::fmt;

use marea_protocol::{NodeId, ProtoDuration};

use crate::scheduler::Priority;
use crate::service::CallPolicy;

/// Why a QoS profile is not a valid contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QosError {
    /// A variable validity window of zero would drop every sample.
    ZeroValidity,
    /// A loss deadline of zero periods would warn on every tick.
    ZeroDeadlinePeriods,
    /// A history ring must hold at least the latest sample.
    ZeroHistory,
    /// An event inbox bound of zero could never deliver anything.
    ZeroQueueBound,
    /// A call deadline of zero would expire before dispatch.
    ZeroDeadline,
    /// A retry budget of zero would never even attempt the call.
    ZeroRetryBudget,
}

impl fmt::Display for QosError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QosError::ZeroValidity => write!(f, "validity window must be non-zero"),
            QosError::ZeroDeadlinePeriods => write!(f, "deadline_periods must be at least 1"),
            QosError::ZeroHistory => write!(f, "history must hold at least 1 sample"),
            QosError::ZeroQueueBound => write!(f, "queue_bound must be at least 1"),
            QosError::ZeroDeadline => write!(f, "call deadline must be non-zero"),
            QosError::ZeroRetryBudget => write!(f, "retry_budget must be at least 1"),
        }
    }
}

impl std::error::Error for QosError {}

/// The variable contract (paper §4.1): production cadence, sample
/// validity, loss deadline, per-subscription history depth and the
/// guaranteed-initial-value flag.
///
/// One profile serves both sides of the contract. A *provider* declares
/// `period` and `validity` (they are announced on the wire); a
/// *subscriber* declares `deadline_periods`, `history` and `need_initial`
/// (they tune local enforcement). Fields irrelevant to a side are simply
/// ignored by it, so a shared vocabulary module can hand the same profile
/// to both.
///
/// ```
/// use marea_core::VarQos;
/// use marea_protocol::ProtoDuration;
///
/// let qos = VarQos::periodic(ProtoDuration::from_millis(50), ProtoDuration::from_millis(200))
///     .with_history(8)
///     .with_initial();
/// assert_eq!(qos.deadline_periods, 3); // default loss deadline
/// qos.validate().unwrap();
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VarQos {
    /// Nominal production period ([`ProtoDuration::ZERO`] = aperiodic).
    pub period: ProtoDuration,
    /// How long a sample stays usable after production; older samples are
    /// dropped and counted as [`stale`](crate::QosStats::stale_drops).
    pub validity: ProtoDuration,
    /// Loss deadline in nominal periods: after this many periods without a
    /// sample the container warns the subscribers (aperiodic variables
    /// have no deadline). Local subscribers of one variable share the
    /// channel's deadline tracking — the tightest declared contract wins.
    pub deadline_periods: u32,
    /// Samples retained for the subscribed variable, readable via
    /// [`ServiceContext::history`](crate::ServiceContext::history). The
    /// ring is kept per channel on each container; when several local
    /// services subscribe to the same variable, the deepest declared
    /// history wins and all of them read the same ring.
    pub history: usize,
    /// Ask the provider for the current value on subscription (the §4.1
    /// guaranteed initial exact value, delivered reliably). Any local
    /// subscriber's request makes the channel fetch it.
    pub need_initial: bool,
}

impl Default for VarQos {
    /// Aperiodic, one-second validity, three-period deadline, latest
    /// sample only, no initial value — the pre-profile behaviour.
    fn default() -> Self {
        VarQos {
            period: ProtoDuration::ZERO,
            validity: ProtoDuration::from_secs(1),
            deadline_periods: 3,
            history: 1,
            need_initial: false,
        }
    }
}

impl VarQos {
    /// A periodic variable produced every `period`, valid for `validity`.
    pub fn periodic(period: ProtoDuration, validity: ProtoDuration) -> Self {
        VarQos { period, validity, ..VarQos::default() }
    }

    /// An aperiodic variable (no production cadence, no loss deadline)
    /// whose samples stay valid for `validity`.
    pub fn aperiodic(validity: ProtoDuration) -> Self {
        VarQos { period: ProtoDuration::ZERO, validity, ..VarQos::default() }
    }

    /// Overrides the validity window.
    #[must_use]
    pub fn with_validity(mut self, validity: ProtoDuration) -> Self {
        self.validity = validity;
        self
    }

    /// Overrides the loss deadline (in nominal periods).
    #[must_use]
    pub fn with_deadline_periods(mut self, periods: u32) -> Self {
        self.deadline_periods = periods;
        self
    }

    /// Retains the last `depth` samples for [`history`] reads.
    ///
    /// [`history`]: crate::ServiceContext::history
    #[must_use]
    pub fn with_history(mut self, depth: usize) -> Self {
        self.history = depth;
        self
    }

    /// Requests the guaranteed initial exact value (§4.1).
    #[must_use]
    pub fn with_initial(mut self) -> Self {
        self.need_initial = true;
        self
    }

    /// Checks the profile is a satisfiable contract.
    ///
    /// # Errors
    ///
    /// The first violated rule: non-zero validity, at least one deadline
    /// period, at least one history slot.
    pub fn validate(&self) -> Result<(), QosError> {
        if self.validity == ProtoDuration::ZERO {
            return Err(QosError::ZeroValidity);
        }
        if self.deadline_periods == 0 {
            return Err(QosError::ZeroDeadlinePeriods);
        }
        if self.history == 0 {
            return Err(QosError::ZeroHistory);
        }
        Ok(())
    }
}

/// What happens when a bounded event inbox is full (paper §3 *resource
/// management*: the container bounds every queue a service can grow).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DropPolicy {
    /// Discard the oldest queued delivery to admit the new one (keep the
    /// freshest events).
    #[default]
    DropOldest,
    /// Discard the incoming delivery (keep the backlog intact).
    DropNewest,
}

/// The event-subscription contract (paper §4.2): scheduler priority,
/// inbox bound and overflow policy, all per subscription.
///
/// ```
/// use marea_core::{DropPolicy, EventQos, Priority};
///
/// // A bulk telemetry feed that must never crowd out critical events:
/// let qos = EventQos::bulk().with_queue_bound(64);
/// assert_eq!(qos.priority, Priority::BULK);
/// assert_eq!(qos.drop_policy, DropPolicy::DropOldest);
/// qos.validate().unwrap();
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventQos {
    /// Scheduler lane for this subscription's deliveries; overrides the
    /// fixed per-primitive [`Priority::EVENT`] lane.
    pub priority: Priority,
    /// Maximum queued-but-undelivered events for this subscription
    /// ([`EventQos::UNBOUNDED`] = no bound, the pre-profile behaviour).
    pub queue_bound: usize,
    /// Overflow policy when the inbox is full; each drop is counted in
    /// [`QosStats::queue_drops`](crate::QosStats::queue_drops).
    pub drop_policy: DropPolicy,
}

impl Default for EventQos {
    /// The fixed event lane, unbounded — the pre-profile behaviour.
    fn default() -> Self {
        EventQos {
            priority: Priority::EVENT,
            queue_bound: EventQos::UNBOUNDED,
            drop_policy: DropPolicy::default(),
        }
    }
}

impl EventQos {
    /// Sentinel for "no inbox bound".
    pub const UNBOUNDED: usize = usize::MAX;

    /// A background subscription: [`Priority::BULK`] lane, so floods on
    /// this channel cannot starve critical events.
    pub fn bulk() -> Self {
        EventQos { priority: Priority::BULK, ..EventQos::default() }
    }

    /// Overrides the scheduler lane.
    #[must_use]
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Bounds the subscription inbox to `bound` queued deliveries.
    #[must_use]
    pub fn with_queue_bound(mut self, bound: usize) -> Self {
        self.queue_bound = bound;
        self
    }

    /// Overrides the overflow policy.
    #[must_use]
    pub fn with_drop_policy(mut self, policy: DropPolicy) -> Self {
        self.drop_policy = policy;
        self
    }

    /// Checks the profile is a satisfiable contract.
    ///
    /// # Errors
    ///
    /// [`QosError::ZeroQueueBound`] for an inbox that could never hold a
    /// delivery.
    pub fn validate(&self) -> Result<(), QosError> {
        if self.queue_bound == 0 {
            return Err(QosError::ZeroQueueBound);
        }
        Ok(())
    }
}

/// The caller-visible invocation contract (paper §4.3): per-attempt reply
/// deadline, how many providers to try, and how the provider is chosen.
///
/// `None` fields fall back to the container-wide defaults (an 800 ms
/// deadline per attempt; three providers tried), so
/// `CallOptions::default()` reproduces the pre-profile behaviour exactly.
/// A deadline is stated here, per call, and nowhere else.
///
/// ```
/// use marea_core::{CallOptions, NodeId, ProtoDuration};
///
/// let opts = CallOptions::default()
///     .with_deadline(ProtoDuration::from_millis(100))
///     .with_retry_budget(2)
///     .pinned(NodeId(3));
/// opts.validate().unwrap();
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CallOptions {
    /// Reply deadline per attempt; a missed deadline triggers failover to
    /// the next provider (`None` = container default).
    pub deadline: Option<ProtoDuration>,
    /// Total providers tried before the call fails with
    /// [`CallError::Timeout`](crate::CallError::Timeout) (`None` =
    /// container default).
    pub retry_budget: Option<u32>,
    /// Provider-selection policy (static allocation vs dynamic load
    /// balancing, §4.3).
    pub policy: CallPolicy,
}

impl CallOptions {
    /// Overrides the per-attempt reply deadline.
    #[must_use]
    pub fn with_deadline(mut self, deadline: ProtoDuration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Overrides the retry budget (total providers tried).
    #[must_use]
    pub fn with_retry_budget(mut self, budget: u32) -> Self {
        self.retry_budget = Some(budget);
        self
    }

    /// Prefers the provider on `node` while it is alive (static
    /// allocation with transparent failover).
    #[must_use]
    pub fn pinned(mut self, node: NodeId) -> Self {
        self.policy = CallPolicy::PreferNode(node);
        self
    }

    /// Checks the options form a satisfiable contract.
    ///
    /// # Errors
    ///
    /// Zero deadlines and zero retry budgets are rejected.
    pub fn validate(&self) -> Result<(), QosError> {
        if self.deadline == Some(ProtoDuration::ZERO) {
            return Err(QosError::ZeroDeadline);
        }
        if self.retry_budget == Some(0) {
            return Err(QosError::ZeroRetryBudget);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn var_defaults_preserve_legacy_semantics() {
        let q = VarQos::default();
        assert_eq!(q.deadline_periods, 3, "the historical 3-period loss deadline");
        assert_eq!(q.history, 1);
        assert!(!q.need_initial);
        q.validate().unwrap();
    }

    #[test]
    fn var_validation_rejects_degenerate_contracts() {
        assert_eq!(
            VarQos::default().with_validity(ProtoDuration::ZERO).validate(),
            Err(QosError::ZeroValidity)
        );
        assert_eq!(
            VarQos::default().with_deadline_periods(0).validate(),
            Err(QosError::ZeroDeadlinePeriods)
        );
        assert_eq!(VarQos::default().with_history(0).validate(), Err(QosError::ZeroHistory));
    }

    #[test]
    fn event_defaults_and_bulk_profile() {
        let q = EventQos::default();
        assert_eq!(q.priority, Priority::EVENT);
        assert_eq!(q.queue_bound, EventQos::UNBOUNDED);
        q.validate().unwrap();
        assert_eq!(EventQos::bulk().priority, Priority::BULK);
        assert_eq!(
            EventQos::default().with_queue_bound(0).validate(),
            Err(QosError::ZeroQueueBound)
        );
    }

    #[test]
    fn call_options_compose_and_validate() {
        let o = CallOptions::default();
        assert_eq!(o.deadline, None);
        assert_eq!(o.retry_budget, None);
        assert_eq!(o.policy, CallPolicy::Dynamic);
        o.validate().unwrap();

        let o = CallOptions::default()
            .with_deadline(ProtoDuration::from_millis(100))
            .with_retry_budget(1)
            .pinned(NodeId(2));
        assert_eq!(o.policy, CallPolicy::PreferNode(NodeId(2)));
        o.validate().unwrap();

        assert_eq!(
            CallOptions::default().with_deadline(ProtoDuration::ZERO).validate(),
            Err(QosError::ZeroDeadline)
        );
        assert_eq!(
            CallOptions::default().with_retry_budget(0).validate(),
            Err(QosError::ZeroRetryBudget)
        );
    }

    #[test]
    fn errors_render() {
        for e in [
            QosError::ZeroValidity,
            QosError::ZeroDeadlinePeriods,
            QosError::ZeroHistory,
            QosError::ZeroQueueBound,
            QosError::ZeroDeadline,
            QosError::ZeroRetryBudget,
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
