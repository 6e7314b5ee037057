//! Next-event time advance is an optimisation, not a behaviour: whatever
//! `SimHarness` skips must be a tick that would have changed nothing.
//!
//! Two referees hold it to that:
//!
//! * **Driver equivalence.** The loop `SimHarness::step` used to be —
//!   deliver, then tick *every* container on *every* grid step — lives on
//!   here as the [`Sweep`] test helper (the same loop the benchmark's traced
//!   driver runs). Random four-node publish / emit / call / file scripts
//!   run through both drivers must agree on every network counter, every
//!   container counter except `ticks`, every flight-recorder ring and every
//!   handler invocation; the chaos corpus (crash/restart, partitions, clock
//!   skew, loss) must additionally reproduce its metrics timeline byte for
//!   byte when the harness is forced to sweep.
//! * **`next_due` soundness.** Under the sweep, whenever a tick moves any
//!   observable state, the container's `next_due()` taken *before* that
//!   tick must have been due (or its inbox non-empty) — so a missing
//!   wake-up source fails with the node, the instant and the state that
//!   moved, not as a delivery count that is off by a few.

#[allow(dead_code, reason = "only the observation log is used here")]
mod common;

use bytes::Bytes;
use common::{obs_log, observations, Obs, ObsLog};
use marea_core::scenario::corpus;
use marea_core::{
    CallError, CallHandle, CallOptions, ContainerConfig, ContainerStats, EventPort, EventQos,
    FileEvent, FnPort, LinkFrame, MetricsConfig, MetricsFrame, Micros, NodeId, Occupancy,
    ProtoDuration, Service, ServiceContainer, ServiceContext, ServiceDescriptor, SimHarness,
    TimerId, TraceRing, VarPort, VarQos,
};
use marea_netsim::{LinkConfig, NetConfig, NetStats, SimNet, SimSocket};
use marea_presentation::{Name, Value};
use marea_transport::SimLanTransport;
use proptest::prelude::*;

const TICK_US: u64 = 500;
const NODES: u32 = 4;

// ---- the scripted fleet ---------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq)]
enum Action {
    Publish(u64),
    Emit(u64),
    /// Calls `n{target}/f`.
    Call(u32, u64),
    /// Publishes (or revises) this node's file with `len` bytes: above the
    /// MTU it fragments the announce-free chunks into MFTP bursts.
    File(usize),
    /// Emits a burst that overruns the ARQ window (backlog path).
    Burst(u8),
    /// Publishes `len` bytes on the node's blob variable: above the MTU the
    /// best-effort sample travels as fragments, and a lost one leaves a
    /// partial set behind for the reassembler to expire.
    Blob(usize),
}

/// What one run does: link quality plus, per node, timed actions.
#[derive(Debug, Clone)]
struct Script {
    seed: u64,
    loss: f64,
    jitter_us: u64,
    /// `(at_us, node, action)`.
    actions: Vec<(u64, u32, Action)>,
    /// `(at_us, node)`: the node falls silent for good.
    crash: Option<(u64, u32)>,
    run_ms: u64,
}

fn var_port(node: u32) -> VarPort<u64> {
    VarPort::new(&format!("n{node}/v"))
}
fn event_port(node: u32) -> EventPort<u64> {
    EventPort::new(&format!("n{node}/e"))
}
fn fn_port(node: u32) -> FnPort<(u64,), u64> {
    FnPort::new(&format!("n{node}/f"))
}
fn blob_port(node: u32) -> VarPort<Vec<u8>> {
    VarPort::new(&format!("n{node}/blob"))
}
fn file_name(node: u32) -> String {
    format!("n{node}/file")
}

/// One per node: provides a variable, an event, a function and a file;
/// subscribes to / requires / is interested in every other node's; plays
/// its share of the script from one-shot timers and logs every handler
/// invocation.
struct Actor {
    node: u32,
    script: Vec<(u64, Action)>,
    armed: Vec<(TimerId, Action)>,
    log: ObsLog,
}

impl Actor {
    fn push(&self, ctx: &ServiceContext<'_>, obs: Obs) {
        self.log.lock().unwrap().push((ctx.now(), obs));
    }
}

impl Service for Actor {
    fn descriptor(&self) -> ServiceDescriptor {
        let mut b = ServiceDescriptor::builder(&format!("actor{}", self.node));
        let qos = VarQos::periodic(ProtoDuration::from_millis(20), ProtoDuration::from_millis(100));
        b.provides_var(&var_port(self.node), qos);
        b.provides_var(&blob_port(self.node), VarQos::default());
        b.provides_event(&event_port(self.node));
        b.provides_fn(&fn_port(self.node));
        b.file_resource(&file_name(self.node));
        // Its own variable too: the in-container path, which binds only
        // once the service's own `Starting -> Running` transition (made in
        // the task phase) has dirtied the subscription table.
        b.subscribe_to_var(&var_port(self.node), qos);
        for other in (1..=NODES).filter(|n| *n != self.node) {
            b.subscribe_to_var(&var_port(other), qos.with_initial());
            b.subscribe_to_var(&blob_port(other), VarQos::default());
            b.subscribe_to_event(&event_port(other), EventQos::default());
            b.requires_fn(&fn_port(other));
            b.subscribe_file(&file_name(other));
        }
        b.build()
    }

    fn on_start(&mut self, ctx: &mut ServiceContext<'_>) {
        self.push(ctx, Obs::Started);
        for &(at_us, action) in &self.script {
            let id = ctx.set_timer(ProtoDuration::from_micros(at_us), None);
            self.armed.push((id, action));
        }
    }

    fn on_timer(&mut self, ctx: &mut ServiceContext<'_>, id: TimerId) {
        let Some(&(_, action)) = self.armed.iter().find(|(armed, _)| *armed == id) else { return };
        match action {
            Action::Publish(v) => ctx.publish_to(&var_port(self.node), v),
            Action::Emit(v) => ctx.emit_to(&event_port(self.node), v),
            Action::Call(target, v) => {
                // A short attempt deadline, so that a sub-second run
                // crosses the failover wake-up.
                let options = CallOptions::default().with_deadline(ProtoDuration::from_millis(60));
                ctx.call_fn_with(&fn_port(target), (v,), options);
            }
            Action::File(len) => {
                let data: Vec<u8> = (0..len).map(|i| (i as u8) ^ (self.node as u8)).collect();
                ctx.publish_file(&file_name(self.node), Bytes::from(data));
            }
            Action::Burst(n) => {
                for i in 0..u64::from(n) {
                    ctx.emit_to(&event_port(self.node), 1_000 + i);
                }
            }
            Action::Blob(len) => ctx.publish_to(&blob_port(self.node), vec![self.node as u8; len]),
        }
    }

    fn on_variable(&mut self, ctx: &mut ServiceContext<'_>, name: &Name, value: &Value, _: Micros) {
        self.push(ctx, Obs::Var(name.to_string(), value.clone()));
    }

    fn on_variable_timeout(&mut self, ctx: &mut ServiceContext<'_>, name: &Name) {
        self.push(ctx, Obs::VarTimeout(name.to_string()));
    }

    fn on_event(
        &mut self,
        ctx: &mut ServiceContext<'_>,
        name: &Name,
        value: Option<&Value>,
        _: Micros,
    ) {
        self.push(ctx, Obs::Event(name.to_string(), value.cloned()));
    }

    fn on_call(
        &mut self,
        _ctx: &mut ServiceContext<'_>,
        _function: &Name,
        args: &[Value],
    ) -> Result<Value, String> {
        let (v,) = fn_port(self.node).decode_args(args).map_err(|e| e.to_string())?;
        Ok(fn_port(self.node).encode_ret(v.wrapping_mul(3)))
    }

    fn on_reply(
        &mut self,
        ctx: &mut ServiceContext<'_>,
        handle: CallHandle,
        result: Result<Value, CallError>,
    ) {
        self.push(ctx, Obs::Reply(handle.0 .0, result.map_err(|e| e.to_string())));
    }

    fn on_file_event(&mut self, ctx: &mut ServiceContext<'_>, event: &FileEvent) {
        let obs = match event {
            FileEvent::Received { resource, revision, data } => {
                Obs::FileData(resource.to_string(), *revision, data.clone())
            }
            FileEvent::Announced { resource, revision, .. } => {
                Obs::File(format!("announced:{resource}#{revision}"))
            }
            FileEvent::DistributionComplete { resource, revision, .. } => {
                Obs::File(format!("distributed:{resource}#{revision}"))
            }
        };
        self.push(ctx, obs);
    }

    fn on_provider_change(
        &mut self,
        ctx: &mut ServiceContext<'_>,
        notice: &marea_core::ProviderNotice,
    ) {
        self.push(ctx, Obs::Provider(format!("{notice:?}")));
    }
}

fn net_config(script: &Script) -> NetConfig {
    NetConfig::default().with_seed(script.seed).with_default_link(
        LinkConfig::default().with_loss(script.loss).with_jitter_us(script.jitter_us),
    )
}

/// Short failure-detection timings so a sub-second run crosses heartbeat,
/// announce-digest and node-timeout cadences.
fn container_config(node: u32) -> ContainerConfig {
    let mut c = ContainerConfig::new("actor", NodeId(node));
    c.heartbeat_period = ProtoDuration::from_millis(50);
    c.announce_period = ProtoDuration::from_millis(120);
    c.node_timeout = ProtoDuration::from_millis(300);
    c
}

fn actor(script: &Script, node: u32, log: &ObsLog) -> Box<dyn Service> {
    let mine =
        script.actions.iter().filter(|(_, n, _)| *n == node).map(|&(at, _, a)| (at, a)).collect();
    Box::new(Actor { node, script: mine, armed: Vec::new(), log: log.clone() })
}

// ---- the two drivers ------------------------------------------------------

/// The reference driver — the every-node-every-tick loop `SimHarness` ran
/// before next-event advance, kept only here: deliver what is due, then
/// tick every container, in registration order, on every grid step.
struct Sweep {
    net: SimNet,
    nodes: Vec<ServiceContainer>,
    now_us: u64,
}

impl Sweep {
    fn new(script: &Script, log: &ObsLog) -> Sweep {
        let net = SimNet::new(net_config(script));
        let nodes = (1..=NODES)
            .map(|n| {
                let transport = SimLanTransport::attach(&net, n);
                let mut c = ServiceContainer::new(container_config(n), Box::new(transport));
                c.add_service(actor(script, n, log)).unwrap();
                c.start(Micros::ZERO);
                c
            })
            .collect();
        Sweep { net, nodes, now_us: 0 }
    }

    /// One grid step; `around_tick` wraps each container's tick.
    fn step(&mut self, mut around_tick: impl FnMut(&mut ServiceContainer, Micros)) {
        self.now_us += TICK_US;
        self.net.advance_to(self.now_us);
        for c in &mut self.nodes {
            around_tick(c, Micros(self.now_us));
        }
    }

    fn run_until_us(&mut self, t_us: u64) {
        while self.now_us < t_us {
            self.step(|c, now| c.tick(now));
        }
    }

    /// The node stops being ticked and leaves the network, without a `Bye`.
    fn crash(&mut self, node: u32) {
        self.nodes.retain(|c| c.node() != NodeId(node));
        self.net.remove_node(node);
    }
}

fn harness(script: &Script, log: &ObsLog) -> SimHarness {
    let mut h = SimHarness::new(net_config(script));
    h.set_tick_us(TICK_US);
    for n in 1..=NODES {
        h.add_container(container_config(n));
        h.add_service(NodeId(n), actor(script, n, log));
    }
    h.start_all();
    h
}

/// Everything observable about a finished run.
#[derive(Debug, PartialEq)]
struct Outcome {
    net: NetStats,
    stats: Vec<(NodeId, ContainerStats)>,
    occupancy: Vec<Occupancy>,
    rings: Vec<TraceRing>,
    handlers: Vec<(Micros, Obs)>,
}

fn without_ticks(mut stats: ContainerStats) -> ContainerStats {
    stats.ticks = 0;
    stats
}

fn outcome<'a>(
    net: &SimNet,
    containers: impl Iterator<Item = &'a ServiceContainer> + Clone,
    log: &ObsLog,
) -> Outcome {
    Outcome {
        net: net.stats(),
        stats: containers.clone().map(|c| (c.node(), without_ticks(c.stats()))).collect(),
        occupancy: containers.clone().map(ServiceContainer::occupancy).collect(),
        rings: containers.map(|c| c.trace_ring().clone()).collect(),
        handlers: observations(log),
    }
}

fn run_both(script: &Script) -> (Outcome, Outcome, u64, u64) {
    let end_us = script.run_ms * 1_000;
    let crash_us = script.crash.map_or(end_us, |(at_us, _)| at_us.min(end_us));
    let log = obs_log();
    let mut sweep = Sweep::new(script, &log);
    sweep.run_until_us(crash_us);
    if let Some((_, node)) = script.crash {
        sweep.crash(node);
    }
    sweep.run_until_us(end_us);
    let reference = outcome(&sweep.net, sweep.nodes.iter(), &log);

    let log = obs_log();
    let mut h = harness(script, &log);
    h.run_until_us(crash_us);
    if let Some((_, node)) = script.crash {
        h.crash_node(NodeId(node));
    }
    h.run_until_us(end_us);
    let nodes = h.nodes();
    let got = outcome(h.network(), nodes.iter().map(|n| h.container(*n).unwrap()), &log);
    (reference, got, h.ticks_run(), h.slots_visited())
}

fn assert_same(script: &Script, reference: &Outcome, got: &Outcome) {
    // Field by field, so a failure names the layer that diverged first.
    assert_eq!(reference.net, got.net, "NetStats diverged under {script:?}");
    assert_eq!(reference.handlers, got.handlers, "handler invocations diverged under {script:?}");
    assert_eq!(
        reference.stats, got.stats,
        "ContainerStats (ticks aside) diverged under {script:?}"
    );
    assert_eq!(reference.occupancy, got.occupancy, "table occupancy diverged under {script:?}");
    assert_eq!(reference.rings, got.rings, "trace rings diverged under {script:?}");
}

// ---- driver equivalence ---------------------------------------------------

/// A hand-written script that reaches the wake-up sources a sub-second
/// run can: timers, variable deadlines (a publisher that stops), call
/// timeouts and failover (calls into loss and into a dead node), ARQ
/// retransmission and FEC flush, window backlog, MFTP chunks and
/// completion queries, fragmented samples, heartbeat / announce cadences,
/// directory expiry of the node that crashes at 300 ms.
fn kitchen_sink(seed: u64, loss: f64, jitter_us: u64) -> Script {
    let mut actions = Vec::new();
    for k in 0..12u64 {
        actions.push((40_000 + k * 20_000, 1, Action::Publish(k)));
    }
    // Node 1 goes quiet after 280 ms: subscribers' loss deadlines fire.
    for k in 0..6u64 {
        actions.push((60_000 + k * 45_000, 2, Action::Emit(k)));
        actions.push((75_000 + k * 50_000, 3, Action::Call(4, k)));
    }
    actions.push((90_000, 4, Action::File(6_000)));
    actions.push((260_000, 4, Action::File(900)));
    actions.push((150_000, 2, Action::Burst(40)));
    actions.push((200_000, 1, Action::Call(2, 7)));
    actions.push((120_000, 3, Action::Blob(5_000)));
    actions.push((330_000, 1, Action::Call(3, 9)));
    Script { seed, loss, jitter_us, actions, crash: Some((300_000, 3)), run_ms: 800 }
}

#[test]
fn harness_matches_the_every_node_sweep_on_the_kitchen_sink_scripts() {
    for (seed, loss, jitter_us) in [(11, 0.0, 0), (12, 0.12, 0), (13, 0.05, 1_500), (14, 0.3, 400)]
    {
        let script = kitchen_sink(seed, loss, jitter_us);
        let (reference, got, ticks_run, slots_visited) = run_both(&script);
        assert_same(&script, &reference, &got);
        assert!(
            reference.handlers.iter().any(|(_, o)| matches!(o, Obs::FileData(..))),
            "the script must exercise file transfer (seed {seed})"
        );
        assert!(ticks_run < slots_visited, "nothing skipped: {ticks_run} of {slots_visited}");
    }
    // On a clean link the fleet idles most of the grid.
    let (_, _, ticks_run, slots_visited) = run_both(&kitchen_sink(11, 0.0, 0));
    assert!(ticks_run * 2 < slots_visited, "{ticks_run} of {slots_visited} slots ticked");
}

fn action_strategy() -> impl Strategy<Value = Action> {
    prop_oneof![
        (0u64..1_000).prop_map(Action::Publish),
        (0u64..1_000).prop_map(Action::Emit),
        (1u32..=NODES, 0u64..1_000).prop_map(|(t, v)| Action::Call(t, v)),
        (1usize..5_000).prop_map(Action::File),
        (1u8..40).prop_map(Action::Burst),
        (1usize..6_000).prop_map(Action::Blob),
    ]
}

fn script_strategy() -> impl Strategy<Value = Script> {
    (
        any::<u64>(),
        prop_oneof![Just(0.0), 0.0f64..0.25],
        prop_oneof![Just(0u64), 0u64..2_000],
        proptest::collection::vec((0u64..350_000, 1u32..=NODES, action_strategy()), 0..40),
        prop_oneof![Just(None), (50_000u64..250_000, 1u32..=NODES).prop_map(Some)],
    )
        .prop_map(|(seed, loss, jitter_us, actions, crash)| Script {
            seed,
            loss,
            jitter_us,
            actions,
            crash,
            run_ms: 600,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random scripts through both drivers: same packets, same counters,
    /// same rings, same handler invocations at the same instants.
    #[test]
    fn harness_matches_the_every_node_sweep_on_random_scripts(script in script_strategy()) {
        let (reference, got, _, _) = run_both(&script);
        prop_assert_eq!(&reference.net, &got.net, "NetStats under {:?}", script);
        prop_assert_eq!(&reference.handlers, &got.handlers, "handlers under {:?}", script);
        prop_assert_eq!(&reference.stats, &got.stats, "ContainerStats under {:?}", script);
        prop_assert_eq!(&reference.occupancy, &got.occupancy, "occupancy under {:?}", script);
        prop_assert_eq!(&reference.rings, &got.rings, "trace rings under {:?}", script);
    }
}

/// The corpus adds what the four-node scripts lack — crash and restart
/// (tick order, incarnations, black-box rings), partitions, link ramps
/// and skewed clocks — so it runs through the harness twice: as shipped,
/// and forced to tick every container on every step (`container_mut`
/// marks a node due, so handing every node out before each step *is* the
/// old loop, with the harness's crash/restart bookkeeping).
#[test]
fn corpus_is_identical_under_next_event_advance_and_the_forced_sweep() {
    type Timeline = (Vec<MetricsFrame>, Vec<LinkFrame>);
    type Fingerprint =
        (NetStats, Vec<(NodeId, ContainerStats)>, Vec<(NodeId, TraceRing)>, Timeline);
    fn run(name: &str, seed: u64, forced_sweep: bool) -> (Fingerprint, u64, u64) {
        let mut chaos = corpus::build(name, &corpus::ScenarioConfig::quick(seed)).expect("known");
        let period = ProtoDuration::from_millis(50);
        chaos.runner.harness_mut().enable_metrics(MetricsConfig::with_period(period));
        let scenario = chaos.scenario.clone();
        let report = chaos.runner.run_with(&scenario, |h| {
            if forced_sweep {
                for node in h.nodes() {
                    h.container_mut(node);
                }
            }
        });
        assert!(report.passed(), "`{name}` seed {seed}: {:#?}", report.violations);
        let h = chaos.runner.into_harness();
        let stats = h
            .nodes()
            .into_iter()
            .map(|n| (n, without_ticks(h.container(n).expect("listed").stats())))
            .collect();
        let rings = h.trace_rings().into_iter().map(|(n, r)| (n, r.clone())).collect();
        // `ticks` is in every frame too, and is what the two drivers differ in.
        let sampler = h.metrics().expect("enabled");
        let frames = sampler
            .frames()
            .map(|f| MetricsFrame { delta: ContainerStats { ticks: 0, ..f.delta }, ..*f });
        let timeline = (frames.collect(), sampler.link_frames().copied().collect());
        ((report.net_stats, stats, rings, timeline), h.ticks_run(), h.slots_visited())
    }
    for name in corpus::NAMES.iter().filter(|n| **n != "swarm_1024") {
        for seed in [7, 0xC0DE, 90_210] {
            let (sweep, sweep_ticks, sweep_slots) = run(name, seed, true);
            let (lazy, lazy_ticks, lazy_slots) = run(name, seed, false);
            assert_eq!(sweep_ticks, sweep_slots, "`{name}`: the forced sweep ticks every slot");
            assert_eq!(lazy_slots, sweep_slots, "`{name}`: same grid");
            assert!(lazy_ticks < sweep_ticks, "`{name}`: next-event advance skipped nothing");
            assert_eq!(sweep.0, lazy.0, "`{name}` seed {seed}: NetStats");
            assert_eq!(sweep.1, lazy.1, "`{name}` seed {seed}: ContainerStats (ticks aside)");
            assert_eq!(sweep.2, lazy.2, "`{name}` seed {seed}: trace rings");
            assert_eq!(sweep.3, lazy.3, "`{name}` seed {seed}: metrics timeline (ticks aside)");
        }
    }
}

// ---- next_due soundness ---------------------------------------------------

/// What a tick can move, by name.
fn observable(c: &ServiceContainer) -> Vec<(&'static str, u64)> {
    let s = c.stats();
    let o = c.occupancy();
    let ring = c.trace_ring();
    vec![
        ("frames_in", s.frames_in),
        ("frames_out", s.frames_out),
        ("tasks_executed", s.tasks_executed),
        ("trace ring length", ring.len() as u64 + ring.evicted()),
        ("directory nodes", o.directory_nodes as u64),
        ("directory provisions", o.directory_provisions as u64),
        ("links", o.links as u64),
        ("active links", o.active_links as u64),
        ("bound variables", o.vars_bound as u64),
        ("remote subscribers", o.remote_subscribers as u64),
        ("pending calls", o.pending_calls as u64),
        ("files sending", o.files_sending as u64),
        ("files receiving", o.files_receiving as u64),
        ("reassembling", o.reassembling as u64),
        ("timers", o.timers as u64),
        ("queued tasks", o.queued_tasks as u64),
        ("var timeouts", s.qos.deadline_misses),
        ("call failovers", s.qos.retries),
        ("call errors", s.call_errors),
        ("fec parity out", s.fec.parity_shards_out),
    ]
}

/// Runs `script` under the sweep and checks every state-moving tick was
/// announced. Returns how many ticks moved something.
fn check_soundness(script: &Script) -> Result<u64, String> {
    let log = obs_log();
    let mut sweep = Sweep::new(script, &log);
    let inboxes: Vec<SimSocket> = (1..=NODES).map(|n| sweep.net.socket(n)).collect();
    let (mut moved, mut missed) = (0u64, None::<String>);
    while sweep.now_us < script.run_ms * 1_000 {
        if script.crash.is_some_and(|(at_us, _)| at_us == sweep.now_us) {
            sweep.crash(script.crash.map_or(0, |(_, node)| node));
        }
        sweep.step(|c, now| {
            let pending = inboxes[(c.node().0 - 1) as usize].pending();
            let due = c.next_due();
            let before = observable(c);
            c.tick(now);
            let after = observable(c);
            let Some(((what, was), (_, is))) = before.iter().zip(&after).find(|(b, a)| b != a)
            else {
                return;
            };
            moved += 1;
            if pending == 0 && due.is_none_or(|d| d > now) && missed.is_none() {
                missed = Some(format!(
                    "missed wake-up: node {} at {now}: `{what}` moved {was} -> {is}, but \
                     next_due() was {due:?} and the inbox was empty ({script:?})",
                    c.node()
                ));
            }
        });
    }
    missed.map_or(Ok(moved), Err)
}

#[test]
fn next_due_announces_every_state_moving_tick_of_the_kitchen_sink_scripts() {
    for (seed, loss, jitter_us) in [(21, 0.0, 0), (22, 0.12, 0), (23, 0.05, 1_500), (24, 0.3, 400)]
    {
        let moved =
            check_soundness(&kitchen_sink(seed, loss, jitter_us)).unwrap_or_else(|e| panic!("{e}"));
        assert!(moved > 200, "the script barely did anything ({moved} state-moving ticks)");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn next_due_announces_every_state_moving_tick_of_random_scripts(script in script_strategy()) {
        if let Err(missed) = check_soundness(&script) {
            return Err(TestCaseError::fail(missed));
        }
    }
}

/// Reassembly expiry is five seconds out and invisible to the equivalence
/// tests (any later tick sweeps the stale set too), so it gets its own
/// long, lossy run: fragmented samples lose fragments, the partial sets
/// must be expired on time, and `next_due` must have said so.
#[test]
fn next_due_announces_reassembly_expiry() {
    let actions =
        (0..20u64).map(|k| (50_000 + k * 30_000, 1 + (k % 2) as u32, Action::Blob(7_000)));
    let script = Script {
        seed: 31,
        loss: 0.2,
        jitter_us: 0,
        actions: actions.collect(),
        crash: None,
        run_ms: 6_500,
    };
    check_soundness(&script).unwrap_or_else(|e| panic!("{e}"));
    let (reference, got, _, _) = run_both(&script);
    assert_same(&script, &reference, &got);
    assert!(
        reference.occupancy.iter().all(|o| o.reassembling == 0),
        "every partial set expired: {:?}",
        reference.occupancy
    );
}

#[test]
fn a_stopped_or_unstarted_container_is_never_due() {
    let net = SimNet::new(NetConfig::default());
    let mut c =
        ServiceContainer::new(container_config(1), Box::new(SimLanTransport::attach(&net, 1)));
    assert_eq!(c.next_due(), None, "not started");
    c.start(Micros::ZERO);
    assert_eq!(c.next_due(), Some(Micros::ZERO), "start queues work");
    c.tick(Micros(TICK_US));
    let due = c.next_due().expect("cadences are armed");
    assert!(due > Micros(TICK_US), "settled after one tick: next is a cadence ({due})");
    c.stop(Micros(2 * TICK_US));
    assert_eq!(c.next_due(), None, "stopped");
}
