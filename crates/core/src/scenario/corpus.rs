//! The named chaos-scenario corpus: ready-built fleets + fault scripts.
//!
//! Each entry builds a small avionics fleet (publisher/subscriber/RPC
//! probe services with shared counters), a [`FaultSchedule`] and the
//! invariants that must hold through it. The corpus is the repo's
//! recovery-path regression surface: tests run every scenario in
//! [`ScenarioConfig::quick`] mode and fail on any
//! [`Violation`](crate::scenario::Violation); the
//! failover bench reports the measured recovery times of
//! [`publisher_failover`](self::build) in full-timing mode.
//!
//! All probe services are registered through
//! [`SimHarness::add_service_factory`], so scripted [`FaultEvent::Restart`]
//! events rebuild them — which is precisely the surface (re-announce,
//! re-subscribe, failover, fresh-value resumption) the corpus exists to
//! exercise.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, LazyLock, Mutex};

use marea_netsim::{LinkConfig, NetConfig};
use marea_presentation::{Name, Value};
use marea_protocol::{Micros, NodeId, ProtoDuration};

use crate::container::ContainerConfig;
use crate::error::CallError;
use crate::harness::SimHarness;
use crate::ports::{EventPort, FnPort, VarPort};
use crate::qos::{EventQos, VarQos};
use crate::scenario::{
    DirectoryConvergence, FaultEvent, FaultSchedule, NoSilentStaleness, QueueBound, RtoRecovery,
    Scenario, ScenarioReport, ScenarioRunner,
};
use crate::service::{
    CallHandle, ProviderNotice, Service, ServiceContext, ServiceDescriptor, TimerId,
};

/// Every corpus scenario name, in a stable order.
pub const NAMES: [&str; 8] = [
    "ground_link_flap",
    "split_brain_heal",
    "rolling_restart_swarm16",
    "radio_degradation_ramp",
    "publisher_failover",
    "bulk_flood_under_partition",
    "swarm_1024",
    "reboot_inside_timeout",
];

/// Seed + timing profile for a corpus run.
#[derive(Debug, Clone, Copy)]
pub struct ScenarioConfig {
    /// Network PRNG seed — the whole run is a pure function of it.
    pub seed: u64,
    /// Container heartbeat period.
    pub heartbeat: ProtoDuration,
    /// Container catalogue re-announce period.
    pub announce: ProtoDuration,
    /// Peer silence before a node is declared dead.
    pub node_timeout: ProtoDuration,
    /// Calm period the convergence invariant waits for (must cover
    /// `node_timeout` + `announce` + margin).
    pub grace: ProtoDuration,
    /// Base hold duration between scripted faults.
    pub hold: ProtoDuration,
    /// Recovery-time objective asserted by `publisher_failover`.
    pub rto: ProtoDuration,
}

impl ScenarioConfig {
    /// Fast profile for CI: aggressive failure detection, short holds —
    /// a full corpus pass stays in the low virtual-seconds per scenario.
    pub fn quick(seed: u64) -> Self {
        ScenarioConfig {
            seed,
            heartbeat: ProtoDuration::from_millis(100),
            announce: ProtoDuration::from_millis(250),
            node_timeout: ProtoDuration::from_millis(600),
            grace: ProtoDuration::from_millis(1_700),
            hold: ProtoDuration::from_millis(800),
            rto: ProtoDuration::from_millis(2_500),
        }
    }

    /// Container-default timings (heartbeat 500 ms, 2 s announce/timeout)
    /// — the profile the failover bench measures.
    pub fn full(seed: u64) -> Self {
        ScenarioConfig {
            seed,
            heartbeat: ProtoDuration::from_millis(500),
            announce: ProtoDuration::from_secs(2),
            node_timeout: ProtoDuration::from_secs(2),
            grace: ProtoDuration::from_secs(5),
            hold: ProtoDuration::from_secs(2),
            rto: ProtoDuration::from_secs(4),
        }
    }

    fn container(&self, name: &str, node: NodeId) -> ContainerConfig {
        let mut c = ContainerConfig::new(name, node);
        c.heartbeat_period = self.heartbeat;
        c.announce_period = self.announce;
        c.node_timeout = self.node_timeout;
        c
    }
}

/// Shared counters the probe services write and tests read.
#[derive(Debug, Clone, Default)]
pub struct ChaosProbes {
    /// Variable samples delivered to sinks.
    pub var_samples: Arc<AtomicU64>,
    /// Events delivered to sinks.
    pub events_seen: Arc<AtomicU64>,
    /// Successful call replies.
    pub calls_ok: Arc<AtomicU64>,
    /// Failed call replies.
    pub calls_err: Arc<AtomicU64>,
    /// Virtual µs of the newest successful call reply.
    pub last_ok_at_us: Arc<AtomicU64>,
    /// Virtual µs of the newest variable sample at a sink.
    pub last_var_at_us: Arc<AtomicU64>,
    /// Recovery times (µs) measured by the scenario's RTO invariants.
    pub recoveries_us: Arc<Mutex<Vec<u64>>>,
}

/// A built corpus entry: prepared runner + scenario + probe counters.
#[derive(Debug)]
pub struct ChaosRun {
    /// Runner holding the started fleet and the invariants.
    pub runner: ScenarioRunner,
    /// The fault script to execute.
    pub scenario: Scenario,
    /// Counters written by the fleet's probe services.
    pub probes: ChaosProbes,
}

impl ChaosRun {
    /// Executes the scenario and returns its report.
    pub fn run(&mut self) -> ScenarioReport {
        let scenario = self.scenario.clone();
        self.runner.run(&scenario)
    }
}

// ---- probe services -------------------------------------------------------

static TELEMETRY: LazyLock<VarPort<u64>> = LazyLock::new(|| VarPort::new("chaos/telemetry"));
static BULK: LazyLock<EventPort<u64>> = LazyLock::new(|| EventPort::new("chaos/bulk"));
static ECHO: LazyLock<FnPort<(u64,), u64>> = LazyLock::new(|| FnPort::new("chaos/echo"));
const VAR_PERIOD_MS: u64 = 20;
const VAR_VALIDITY_MS: u64 = 100;

fn telemetry_qos() -> VarQos {
    VarQos::periodic(
        ProtoDuration::from_millis(VAR_PERIOD_MS),
        ProtoDuration::from_millis(VAR_VALIDITY_MS),
    )
}

/// Publishes `chaos/telemetry` every 20 ms.
#[derive(Default)]
struct Beacon {
    count: u64,
}

impl Service for Beacon {
    fn descriptor(&self) -> ServiceDescriptor {
        ServiceDescriptor::builder("beacon").provides_var(&TELEMETRY, telemetry_qos()).build()
    }
    fn on_start(&mut self, ctx: &mut ServiceContext<'_>) {
        let p = ProtoDuration::from_millis(VAR_PERIOD_MS);
        ctx.set_timer(p, Some(p));
    }
    fn on_timer(&mut self, ctx: &mut ServiceContext<'_>, _id: TimerId) {
        self.count += 1;
        ctx.publish_to(&TELEMETRY, self.count);
    }
}

/// Counts telemetry samples (and optionally bulk events) into the probes.
struct Sink {
    probes: ChaosProbes,
    bulk: bool,
}

impl Service for Sink {
    fn descriptor(&self) -> ServiceDescriptor {
        let mut b = ServiceDescriptor::builder("sink");
        b.subscribe_to_var(&TELEMETRY, telemetry_qos().with_initial());
        if self.bulk {
            b.subscribe_to_event(&BULK, EventQos::bulk().with_queue_bound(32));
        }
        b.build()
    }
    fn on_variable(&mut self, ctx: &mut ServiceContext<'_>, _n: &Name, _v: &Value, _s: Micros) {
        self.probes.var_samples.fetch_add(1, Ordering::Relaxed);
        self.probes.last_var_at_us.fetch_max(ctx.now().as_micros(), Ordering::Relaxed);
    }
    fn on_event(
        &mut self,
        _ctx: &mut ServiceContext<'_>,
        _n: &Name,
        _v: Option<&Value>,
        _s: Micros,
    ) {
        self.probes.events_seen.fetch_add(1, Ordering::Relaxed);
    }
}

/// Answers `chaos/echo(x) = x + node` so callers can tell providers apart.
struct Echo {
    node: u64,
}

impl Service for Echo {
    fn descriptor(&self) -> ServiceDescriptor {
        ServiceDescriptor::builder("echo").provides_fn(&ECHO).build()
    }
    fn on_call(
        &mut self,
        _ctx: &mut ServiceContext<'_>,
        _f: &Name,
        args: &[Value],
    ) -> Result<Value, String> {
        let x = args.first().and_then(Value::as_u64).unwrap_or(0);
        Ok(ECHO.encode_ret(x + self.node))
    }
}

/// Calls `chaos/echo` every 100 ms once a provider is resolvable.
struct Caller {
    probes: ChaosProbes,
    armed: bool,
    n: u64,
}

impl Caller {
    fn new(probes: ChaosProbes) -> Self {
        Caller { probes, armed: false, n: 0 }
    }
}

impl Service for Caller {
    fn descriptor(&self) -> ServiceDescriptor {
        let mut b = ServiceDescriptor::builder("caller");
        b.requires_fn(&ECHO);
        b.build()
    }
    fn on_provider_change(&mut self, ctx: &mut ServiceContext<'_>, notice: &ProviderNotice) {
        if matches!(notice, ProviderNotice::FunctionAvailable(_)) && !self.armed {
            self.armed = true;
            let p = ProtoDuration::from_millis(100);
            ctx.set_timer(p, Some(p));
        }
    }
    fn on_timer(&mut self, ctx: &mut ServiceContext<'_>, _id: TimerId) {
        self.n += 1;
        ctx.call_fn(&ECHO, (self.n,));
    }
    fn on_reply(
        &mut self,
        ctx: &mut ServiceContext<'_>,
        _handle: CallHandle,
        result: Result<Value, CallError>,
    ) {
        match result {
            Ok(_) => {
                self.probes.calls_ok.fetch_add(1, Ordering::Relaxed);
                self.probes.last_ok_at_us.fetch_max(ctx.now().as_micros(), Ordering::Relaxed);
            }
            Err(_) => {
                self.probes.calls_err.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// Emits a burst of bulk events every 10 ms.
#[derive(Default)]
struct Flooder {
    k: u64,
}

impl Service for Flooder {
    fn descriptor(&self) -> ServiceDescriptor {
        ServiceDescriptor::builder("flooder").provides_event(&BULK).build()
    }
    fn on_start(&mut self, ctx: &mut ServiceContext<'_>) {
        let p = ProtoDuration::from_millis(10);
        ctx.set_timer(p, Some(p));
    }
    fn on_timer(&mut self, ctx: &mut ServiceContext<'_>, _id: TimerId) {
        for _ in 0..8 {
            self.k += 1;
            ctx.emit_to(&BULK, self.k);
        }
    }
}

// ---- corpus entries -------------------------------------------------------

fn ms(d: ProtoDuration) -> u64 {
    d.as_millis()
}

fn standard_invariants(runner: &mut ScenarioRunner, cfg: &ScenarioConfig) {
    runner.add_invariant(Box::new(DirectoryConvergence::new(cfg.grace)));
    runner.add_invariant(Box::new(NoSilentStaleness::new(ProtoDuration::from_millis(500))));
    runner.add_invariant(Box::new(QueueBound::new(4096)));
}

/// Adds the recovery objective `label`: a call must succeed strictly
/// after each fault `trigger` matches, within `rto`. The measured
/// recoveries go to `probes.recoveries_us`.
fn add_call_rto(
    runner: &mut ScenarioRunner,
    probes: &mut ChaosProbes,
    label: &str,
    rto: ProtoDuration,
    trigger: impl Fn(&FaultEvent) -> bool + Send + 'static,
) {
    let ok_at = probes.last_ok_at_us.clone();
    let recovered =
        move |_: &SimHarness, armed: Micros| ok_at.load(Ordering::Relaxed) > armed.as_micros();
    let rto = RtoRecovery::new(label, rto, trigger, recovered);
    probes.recoveries_us = rto.recoveries();
    runner.add_invariant(Box::new(rto));
}

/// Builds a corpus entry by name (see [`NAMES`]); `None` for unknown names.
pub fn build(name: &str, cfg: &ScenarioConfig) -> Option<ChaosRun> {
    let mut probes = ChaosProbes::default();
    let mut h = SimHarness::new(NetConfig::default().with_seed(cfg.seed));
    let hold = ms(cfg.hold);
    let settle = ms(cfg.grace) + hold;

    let (schedule, duration, runner) = match name {
        "ground_link_flap" => {
            // A UAV↔ground radio that drops out twice and comes back: the
            // subscription must re-wire and fresh samples must resume.
            h.add_container(cfg.container("ground", NodeId(1)));
            h.add_container(cfg.container("uav", NodeId(2)));
            let p = probes.clone();
            h.add_service_factory(NodeId(1), move || {
                Box::new(Sink { probes: p.clone(), bulk: false }) as Box<dyn Service>
            });
            h.add_service_factory(NodeId(2), || Box::new(Beacon::default()) as Box<dyn Service>);
            h.start_all();
            let schedule = FaultSchedule::new()
                .partition(ProtoDuration::from_millis(hold), NodeId(1), NodeId(2))
                .heal(ProtoDuration::from_millis(2 * hold), NodeId(1), NodeId(2))
                .partition(ProtoDuration::from_millis(3 * hold), NodeId(1), NodeId(2))
                .heal(ProtoDuration::from_millis(4 * hold), NodeId(1), NodeId(2));
            let duration = ProtoDuration::from_millis(4 * hold + settle);
            let mut runner = ScenarioRunner::new(h);
            standard_invariants(&mut runner, cfg);
            (schedule, duration, runner)
        }
        "split_brain_heal" => {
            // Four nodes split into {1,2} | {3,4}, then healed: both
            // halves must re-converge on one view of the fleet.
            for i in 1..=4u32 {
                h.add_container(cfg.container("swarm", NodeId(i)));
            }
            h.add_service_factory(NodeId(1), || Box::new(Beacon::default()) as Box<dyn Service>);
            for i in [2u32, 3, 4] {
                let p = probes.clone();
                h.add_service_factory(NodeId(i), move || {
                    Box::new(Sink { probes: p.clone(), bulk: false }) as Box<dyn Service>
                });
            }
            h.start_all();
            let cut = ProtoDuration::from_millis(hold);
            let mend = ProtoDuration::from_millis(3 * hold);
            let mut schedule = FaultSchedule::new();
            for (a, b) in [(1u32, 3u32), (1, 4), (2, 3), (2, 4)] {
                schedule = schedule.partition(cut, NodeId(a), NodeId(b));
                schedule = schedule.heal(mend, NodeId(a), NodeId(b));
            }
            let duration = ProtoDuration::from_millis(3 * hold + settle);
            let mut runner = ScenarioRunner::new(h);
            standard_invariants(&mut runner, cfg);
            (schedule, duration, runner)
        }
        "rolling_restart_swarm16" => {
            // Sixteen nodes restarted one by one — a rolling fleet update.
            // Every restarted container must re-announce and re-join.
            for i in 1..=16u32 {
                h.add_container(cfg.container("swarm", NodeId(i)));
            }
            h.add_service_factory(NodeId(1), || Box::new(Beacon::default()) as Box<dyn Service>);
            for i in 2..=16u32 {
                let p = probes.clone();
                h.add_service_factory(NodeId(i), move || {
                    Box::new(Sink { probes: p.clone(), bulk: false }) as Box<dyn Service>
                });
            }
            h.start_all();
            let step = (hold / 4).max(100);
            let mut schedule = FaultSchedule::new();
            for (k, i) in (2..=16u32).enumerate() {
                let at = ProtoDuration::from_millis(hold + k as u64 * step);
                schedule = schedule.restart(at, NodeId(i));
            }
            // The publisher goes last.
            let pub_at = ProtoDuration::from_millis(hold + 15 * step);
            schedule = schedule.restart(pub_at, NodeId(1));
            let duration = ProtoDuration::from_millis(hold + 16 * step + settle);
            let mut runner = ScenarioRunner::new(h);
            standard_invariants(&mut runner, cfg);
            (schedule, duration, runner)
        }
        "radio_degradation_ramp" => {
            // The link degrades continuously into a storm (25% loss, 15 ms
            // latency, 5 ms jitter), holds, then clears. Warnings must
            // fire instead of silent staleness, queues stay bounded.
            h.add_container(cfg.container("ground", NodeId(1)));
            h.add_container(cfg.container("uav", NodeId(2)));
            let p = probes.clone();
            h.add_service_factory(NodeId(1), move || {
                Box::new(Sink { probes: p.clone(), bulk: false }) as Box<dyn Service>
            });
            h.add_service_factory(NodeId(2), || Box::new(Beacon::default()) as Box<dyn Service>);
            h.start_all();
            let calm = LinkConfig::default();
            let storm =
                LinkConfig::default().with_loss(0.25).with_latency_us(15_000).with_jitter_us(5_000);
            let window = ProtoDuration::from_millis(2 * hold);
            let schedule = FaultSchedule::new()
                .link_ramp(ProtoDuration::from_millis(hold), calm, storm, window)
                .link_ramp(ProtoDuration::from_millis(4 * hold), storm, calm, window);
            let duration = ProtoDuration::from_millis(6 * hold + settle);
            let mut runner = ScenarioRunner::new(h);
            standard_invariants(&mut runner, cfg);
            (schedule, duration, runner)
        }
        "publisher_failover" => {
            // Primary provider (node 2) crashes: calls must fail over to
            // the backup (node 3) within the RTO, the telemetry
            // subscription must rebind to the backup publisher, and the
            // restarted primary must rejoin cleanly.
            h.add_container(cfg.container("client", NodeId(1)));
            h.add_container(cfg.container("primary", NodeId(2)));
            h.add_container(cfg.container("backup", NodeId(3)));
            let p = probes.clone();
            h.add_service_factory(NodeId(1), move || {
                Box::new(Caller::new(p.clone())) as Box<dyn Service>
            });
            let p = probes.clone();
            h.add_service_factory(NodeId(1), move || {
                Box::new(Sink { probes: p.clone(), bulk: false }) as Box<dyn Service>
            });
            h.add_service_factory(NodeId(2), || Box::new(Echo { node: 2 }) as Box<dyn Service>);
            h.add_service_factory(NodeId(2), || Box::new(Beacon::default()) as Box<dyn Service>);
            h.add_service_factory(NodeId(3), || Box::new(Echo { node: 3 }) as Box<dyn Service>);
            h.add_service_factory(NodeId(3), || Box::new(Beacon::default()) as Box<dyn Service>);
            h.start_all();
            let schedule = FaultSchedule::new()
                .crash(ProtoDuration::from_millis(2 * hold), NodeId(2))
                .restart(ProtoDuration::from_millis(2 * hold + settle), NodeId(2));
            let duration = ProtoDuration::from_millis(2 * hold + 2 * settle);
            let mut runner = ScenarioRunner::new(h);
            standard_invariants(&mut runner, cfg);
            // RTO: a call must succeed strictly after the crash within the
            // objective — the §4.3 transparent-failover promise, measured.
            let crash = |ev: &FaultEvent| matches!(ev, FaultEvent::Crash(NodeId(2)));
            add_call_rto(&mut runner, &mut probes, "failover-rto", cfg.rto, crash);
            (schedule, duration, runner)
        }
        "reboot_inside_timeout" => {
            // The only provider (node 2) reboots in place, far faster than
            // `node_timeout`: the client must see the old life out and
            // call the new one within the RTO, over a reliable channel
            // that starts afresh on both sides.
            h.add_container(cfg.container("client", NodeId(1)));
            h.add_container(cfg.container("provider", NodeId(2)));
            let p = probes.clone();
            h.add_service_factory(NodeId(1), move || {
                Box::new(Caller::new(p.clone())) as Box<dyn Service>
            });
            h.add_service_factory(NodeId(2), || Box::new(Echo { node: 2 }) as Box<dyn Service>);
            h.start_all();
            let schedule =
                FaultSchedule::new().restart(ProtoDuration::from_millis(2 * hold), NodeId(2));
            // Past the objective, so that a recovery that never comes is
            // reported, then calm enough for the convergence check.
            let duration = ProtoDuration::from_millis(2 * hold + ms(cfg.rto) + settle);
            let mut runner = ScenarioRunner::new(h);
            standard_invariants(&mut runner, cfg);
            let restart = |ev: &FaultEvent| matches!(ev, FaultEvent::Restart(NodeId(2)));
            add_call_rto(&mut runner, &mut probes, "reboot-rto", cfg.rto, restart);
            (schedule, duration, runner)
        }
        "bulk_flood_under_partition" => {
            // A bulk event flood rides through a partition: the bounded
            // bulk inbox applies its drop policy, queues stay bounded,
            // and critical telemetry keeps its freshness contract.
            h.add_container(cfg.container("ground", NodeId(1)));
            h.add_container(cfg.container("uav", NodeId(2)));
            h.add_container(cfg.container("relay", NodeId(3)));
            let p = probes.clone();
            h.add_service_factory(NodeId(1), move || {
                Box::new(Sink { probes: p.clone(), bulk: true }) as Box<dyn Service>
            });
            h.add_service_factory(NodeId(2), || Box::new(Flooder::default()) as Box<dyn Service>);
            h.add_service_factory(NodeId(3), || Box::new(Beacon::default()) as Box<dyn Service>);
            h.start_all();
            let schedule = FaultSchedule::new()
                .partition(ProtoDuration::from_millis(hold), NodeId(1), NodeId(2))
                .heal(ProtoDuration::from_millis(2 * hold), NodeId(1), NodeId(2));
            let duration = ProtoDuration::from_millis(2 * hold + settle);
            let mut runner = ScenarioRunner::new(h);
            standard_invariants(&mut runner, cfg);
            (schedule, duration, runner)
        }
        "swarm_1024" => {
            // A 1024-node swarm: one beacon, eight telemetry sinks, the
            // rest bare fleet members. A mid-fleet node crashes and
            // rejoins; every directory must re-converge on 1024 peers.
            // Control-plane periods are stretched to swarm scale — the
            // O(n²) beacon fan-out dominates, and the digest each beacon
            // carries keeps the steady-state catalogue traffic to
            // nothing at all. The profile's quick timings
            // would melt a 1024-node control group, so this entry pins
            // its own (the seed still comes from the profile).
            let mut swarm = *cfg;
            swarm.heartbeat = ProtoDuration::from_millis(1_000);
            swarm.announce = ProtoDuration::from_secs(2);
            swarm.node_timeout = ProtoDuration::from_secs(3);
            swarm.grace = ProtoDuration::from_secs(4);
            h.set_tick_us(2_000);
            for i in 1..=1024u32 {
                h.add_container(swarm.container("swarm", NodeId(i)));
            }
            h.add_service_factory(NodeId(1), || Box::new(Beacon::default()) as Box<dyn Service>);
            for i in 2..=9u32 {
                let p = probes.clone();
                h.add_service_factory(NodeId(i), move || {
                    Box::new(Sink { probes: p.clone(), bulk: false }) as Box<dyn Service>
                });
            }
            h.start_all();
            // The crash→restart gap must exceed node_timeout so the fleet
            // actually declares the node dead before it rejoins.
            let schedule = FaultSchedule::new()
                .crash(ProtoDuration::from_millis(500), NodeId(512))
                .restart(ProtoDuration::from_millis(4_500), NodeId(512));
            let duration = ProtoDuration::from_millis(9_000);
            let mut runner = ScenarioRunner::new(h);
            runner.add_invariant(Box::new(DirectoryConvergence::new(swarm.grace)));
            runner.add_invariant(Box::new(QueueBound::new(4096)));
            let mut scenario = Scenario::new(name, schedule, duration);
            // Checking invariants every 10 ms across 1024 directories is
            // pure overhead; 250 ms still lands several convergence
            // checks inside the post-restart calm window.
            scenario.check_period = ProtoDuration::from_millis(250);
            return Some(ChaosRun { runner, scenario, probes });
        }
        _ => return None,
    };

    Some(ChaosRun { runner, scenario: Scenario::new(name, schedule, duration), probes })
}

/// Builds and runs a named scenario; `None` for unknown names.
pub fn run_named(name: &str, cfg: &ScenarioConfig) -> Option<ScenarioReport> {
    let mut chaos = build(name, cfg)?;
    Some(chaos.run())
}
