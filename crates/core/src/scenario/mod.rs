//! # Deterministic chaos-scenario engine
//!
//! The paper sells the middleware on surviving airborne-LAN reality: nodes
//! crash and reboot, radio links degrade, services migrate. This module
//! turns that claim into an executable, *seed-reproducible* test surface:
//!
//! * a [`FaultSchedule`] scripts timed faults — [`FaultEvent::Crash`],
//!   [`FaultEvent::Restart`] (full container rebuild from the factories of
//!   [`add_service_factory`](SimHarness::add_service_factory)), partitions
//!   and heals,
//!   [`FaultEvent::LinkRamp`] degradation windows and
//!   [`FaultEvent::ClockSkew`] drifts;
//! * [`Invariant`] checkers run on a cadence while the schedule executes —
//!   directory convergence, no silent staleness, bounded queues, and
//!   recovery-time objectives ([`RtoRecovery`]);
//! * a [`ScenarioRunner`] interleaves both against a [`SimHarness`] and
//!   produces a [`ScenarioReport`];
//! * the [`corpus`] ships named, ready-built scenarios
//!   (`ground_link_flap`, `split_brain_heal`, `rolling_restart_swarm16`,
//!   `radio_degradation_ramp`, `publisher_failover`,
//!   `bulk_flood_under_partition`) runnable from tests, CI and benches.
//!
//! Everything runs on virtual time over the deterministic
//! [`SimNet`](marea_netsim::SimNet): the same seed replays the same packet
//! trace, byte for byte, which is what makes chaos findings debuggable.
//!
//! ```
//! use marea_core::scenario::corpus::{self, ScenarioConfig};
//!
//! let report = corpus::run_named("ground_link_flap", &ScenarioConfig::quick(7))
//!     .expect("known scenario");
//! assert!(report.violations.is_empty(), "{report:?}");
//! ```

mod invariant;
mod schedule;

pub mod corpus;

pub use invariant::{
    Breach, DirectoryConvergence, Invariant, InvariantCtx, NoSilentStaleness, QueueBound,
    RtoRecovery, Violation,
};
pub use schedule::{FaultEvent, FaultSchedule, ScheduledFault};

use std::collections::HashSet;

use marea_netsim::NetStats;
use marea_presentation::Name;
use marea_protocol::{Micros, NodeId, ProtoDuration};

use crate::harness::SimHarness;
use crate::trace::{render_event, TraceId};

/// How many flight-recorder lines of the breaching node a violation
/// report carries (the tail closest to the failed check).
const VIOLATION_TRACE_TAIL: usize = 12;

/// Pulls the flight-recorder evidence for a breach: the last
/// [`VIOLATION_TRACE_TAIL`] relevant records of the breaching node, plus
/// the assembled cross-node causal chain of the newest traced record
/// among them (the offending sample's journey).
fn breach_evidence(
    harness: &SimHarness,
    node: Option<NodeId>,
    channel: Option<&Name>,
) -> (Vec<String>, Vec<String>) {
    let Some(node) = node else { return (Vec::new(), Vec::new()) };
    let Some(ring) = harness.trace_ring(node) else { return (Vec::new(), Vec::new()) };
    let all: Vec<&crate::trace::TraceEvent> = ring.events().collect();
    let relevant: Vec<&crate::trace::TraceEvent> = match channel {
        Some(ch) => all.iter().copied().filter(|e| e.name.as_ref() == Some(ch)).collect(),
        None => Vec::new(),
    };
    let source: &[&crate::trace::TraceEvent] = if relevant.is_empty() { &all } else { &relevant };
    let skip = source.len().saturating_sub(VIOLATION_TRACE_TAIL);
    let tail: Vec<String> = source[skip..].iter().map(|e| render_event(node, e)).collect();
    let offending =
        source.iter().rev().find(|e| !e.trace.is_none()).map(|e| e.trace).unwrap_or(TraceId::NONE);
    let chain: Vec<String> =
        harness.trace_chain(offending).into_iter().map(|(n, ev)| render_event(n, &ev)).collect();
    (tail, chain)
}

/// A named chaos scenario: a schedule plus how long to keep running after
/// it (so recovery can be observed) and how often invariants are checked.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Scenario name (appears in reports).
    pub name: String,
    /// The fault script.
    pub schedule: FaultSchedule,
    /// Total virtual runtime from scenario start.
    pub duration: ProtoDuration,
    /// Invariant evaluation cadence.
    pub check_period: ProtoDuration,
}

impl Scenario {
    /// A scenario with the default 10 ms check cadence.
    pub fn new(name: impl Into<String>, schedule: FaultSchedule, duration: ProtoDuration) -> Self {
        Scenario {
            name: name.into(),
            schedule,
            duration,
            check_period: ProtoDuration::from_millis(10),
        }
    }
}

/// Outcome of one scenario run.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// Scenario name.
    pub name: String,
    /// Faults injected.
    pub events_applied: usize,
    /// Invariant checks evaluated.
    pub checks_run: usize,
    /// Every recorded violation, in time order.
    pub violations: Vec<Violation>,
    /// Virtual time consumed.
    pub elapsed: ProtoDuration,
    /// Network counters at the end of the run (the determinism fingerprint
    /// — identical seeds must reproduce this snapshot exactly).
    pub net_stats: NetStats,
}

impl ScenarioReport {
    /// `true` when every check passed.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// One ramp in progress.
#[derive(Debug, Clone)]
struct ActiveRamp {
    started: Micros,
    pair: Option<(NodeId, NodeId)>,
    from: marea_netsim::LinkConfig,
    to: marea_netsim::LinkConfig,
    window: ProtoDuration,
}

/// Interprets a [`Scenario`] against a harness while checking invariants.
///
/// The runner owns the harness for the duration of the run; build the
/// fleet first, then hand it over (and take it back with
/// [`into_harness`](Self::into_harness) for post-run assertions).
pub struct ScenarioRunner {
    harness: SimHarness,
    invariants: Vec<Box<dyn Invariant>>,
}

impl std::fmt::Debug for ScenarioRunner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScenarioRunner")
            .field("harness", &self.harness)
            .field("invariants", &self.invariants.len())
            .finish()
    }
}

impl ScenarioRunner {
    /// Wraps a prepared (services added, started) harness.
    pub fn new(harness: SimHarness) -> Self {
        ScenarioRunner { harness, invariants: Vec::new() }
    }

    /// Registers an invariant for subsequent runs.
    pub fn add_invariant(&mut self, invariant: Box<dyn Invariant>) -> &mut Self {
        self.invariants.push(invariant);
        self
    }

    /// Read access to the harness between runs.
    pub fn harness(&self) -> &SimHarness {
        &self.harness
    }

    /// Mutable access to the harness between runs.
    pub fn harness_mut(&mut self) -> &mut SimHarness {
        &mut self.harness
    }

    /// Unwraps the harness for post-run assertions.
    pub fn into_harness(self) -> SimHarness {
        self.harness
    }

    /// Executes the scenario: injects due faults, advances ramps, steps
    /// the harness and evaluates every invariant on the check cadence.
    pub fn run(&mut self, scenario: &Scenario) -> ScenarioReport {
        self.run_with(scenario, |_| {})
    }

    /// [`run`](Self::run), calling `before_step` with the harness ahead of
    /// every grid step (after that instant's faults and invariant checks):
    /// the place for a custom probe or an unscripted fault. The
    /// driver-equivalence test uses it to hand every container out
    /// mutably, which makes the harness tick the whole fleet every step.
    pub fn run_with(
        &mut self,
        scenario: &Scenario,
        mut before_step: impl FnMut(&mut SimHarness),
    ) -> ScenarioReport {
        let start = self.harness.now();
        let end = Micros(start.as_micros() + scenario.duration.as_micros());
        let mut cursor = 0usize;
        let mut ramps: Vec<ActiveRamp> = Vec::new();
        let mut partitions: HashSet<(u32, u32)> = HashSet::new();
        let mut last_event_at = start;
        let mut next_check = start;
        let mut events_applied = 0usize;
        let mut checks_run = 0usize;
        let mut violations: Vec<Violation> = Vec::new();

        loop {
            let now = self.harness.now();

            // 1. Inject every fault that is due.
            while cursor < scenario.schedule.events().len() {
                let fault = &scenario.schedule.events()[cursor];
                let due_at = start.as_micros() + fault.at.as_micros();
                if due_at > now.as_micros() {
                    break;
                }
                cursor += 1;
                let event = fault.event.clone();
                let mut applied = true;
                match &event {
                    FaultEvent::Crash(node) => self.harness.crash_node(*node),
                    FaultEvent::Restart(node) => {
                        // A restart of a node without a blueprint is a
                        // script error, not middleware behaviour — record
                        // it instead of silently arming RTO invariants.
                        applied = self.harness.restart_node(*node);
                        if !applied {
                            violations.push(Violation {
                                at: now,
                                invariant: "schedule".to_string(),
                                detail: format!(
                                    "scripted restart of unknown node {node} (no blueprint)"
                                ),
                                node: Some(*node),
                                channel: None,
                                trace: Vec::new(),
                                chain: Vec::new(),
                            });
                        }
                    }
                    FaultEvent::Partition(a, b) => {
                        partitions.insert((a.0, b.0));
                        self.harness.network().set_partition(a.0, b.0, true);
                    }
                    FaultEvent::Heal(a, b) => {
                        partitions.remove(&(a.0, b.0));
                        partitions.remove(&(b.0, a.0));
                        self.harness.network().set_partition(a.0, b.0, false);
                    }
                    FaultEvent::LinkRamp { pair, from, to, window } => {
                        ramps.push(ActiveRamp {
                            started: now,
                            pair: *pair,
                            from: *from,
                            to: *to,
                            window: *window,
                        });
                    }
                    FaultEvent::ClockSkew { node, ppm } => {
                        self.harness.set_clock_skew_ppm(*node, *ppm);
                    }
                }
                if !applied {
                    continue;
                }
                events_applied += 1;
                last_event_at = now;
                for inv in &mut self.invariants {
                    inv.on_event(now, &event);
                }
            }

            // 2. Advance active ramps (a ramp counts as one continuous
            //    event: quiescence starts when its window closes).
            ramps.retain(|ramp| {
                let elapsed = now.saturating_since(ramp.started).as_micros();
                let t = if ramp.window.as_micros() == 0 {
                    1.0
                } else {
                    elapsed as f64 / ramp.window.as_micros() as f64
                };
                let cfg = ramp.from.lerp(&ramp.to, t);
                match ramp.pair {
                    Some((a, b)) => self.harness.network().set_link_symmetric(a.0, b.0, cfg),
                    None => self.harness.network().set_default_link(cfg),
                }
                if t >= 1.0 {
                    false
                } else {
                    last_event_at = now;
                    true
                }
            });

            // 3. Check invariants on the cadence.
            if now >= next_check {
                next_check = Micros(now.as_micros() + scenario.check_period.as_micros());
                let ctx = InvariantCtx {
                    harness: &self.harness,
                    now,
                    since_last_event: now.saturating_since(last_event_at),
                    partitioned: !partitions.is_empty(),
                };
                for inv in &mut self.invariants {
                    checks_run += 1;
                    if let Err(breach) = inv.check(&ctx) {
                        let (trace, chain) =
                            breach_evidence(&self.harness, breach.node, breach.channel.as_ref());
                        violations.push(Violation {
                            at: now,
                            invariant: inv.name().to_string(),
                            detail: breach.detail,
                            node: breach.node,
                            channel: breach.channel,
                            trace,
                            chain,
                        });
                    }
                }
            }

            if now >= end {
                break;
            }
            before_step(&mut self.harness);
            self.harness.step();
        }

        // Deterministic report order: (event-time, node, channel,
        // invariant). Checks already run in registration order, but the
        // sort pins the contract so readers can rely on it.
        violations.sort_by(|a, b| {
            (a.at, &a.node, &a.channel, &a.invariant).cmp(&(
                b.at,
                &b.node,
                &b.channel,
                &b.invariant,
            ))
        });

        ScenarioReport {
            name: scenario.name.clone(),
            events_applied,
            checks_run,
            violations,
            elapsed: self.harness.now().saturating_since(start),
            net_stats: self.harness.network().stats(),
        }
    }
}
