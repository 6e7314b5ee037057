//! Chaos-scenario corpus tests: every named scenario must hold its
//! invariants in quick mode, runs must be seed-reproducible, and the
//! failover scenario must meet its recovery-time objective.

use std::sync::atomic::Ordering;

use marea_core::scenario::{corpus, ScenarioReport};
use marea_core::{ContainerStats, NodeId};

fn quick(seed: u64) -> corpus::ScenarioConfig {
    corpus::ScenarioConfig::quick(seed)
}

fn run(name: &str, seed: u64) -> ScenarioReport {
    corpus::run_named(name, &quick(seed)).expect("known corpus scenario")
}

#[test]
fn corpus_quick_mode_holds_every_invariant() {
    for (i, name) in corpus::NAMES.iter().enumerate() {
        // The 1024-node swarm dominates corpus runtime; it has its own
        // dedicated test below that also pins seed-reproducibility.
        if *name == "swarm_1024" {
            continue;
        }
        let report = run(name, 0xC0DE + i as u64);
        assert!(report.passed(), "scenario `{name}` violated invariants: {:#?}", report.violations);
        assert!(report.events_applied > 0, "`{name}` injected no faults");
        assert!(report.checks_run > 0, "`{name}` never checked its invariants");
    }
}

#[test]
fn corpus_covers_the_advertised_scenarios() {
    for name in [
        "ground_link_flap",
        "split_brain_heal",
        "rolling_restart_swarm16",
        "radio_degradation_ramp",
        "publisher_failover",
        "bulk_flood_under_partition",
        "swarm_1024",
        "reboot_inside_timeout",
    ] {
        assert!(corpus::NAMES.contains(&name), "missing corpus entry `{name}`");
        assert!(corpus::build(name, &quick(1)).is_some());
    }
    assert!(corpus::build("no_such_scenario", &quick(1)).is_none());
}

/// The acceptance bar for the whole engine: a chaos run is a pure function
/// of its seed. Two runs with the same seed must produce bit-identical
/// network traces *and* container counters; the lossy ramp scenario makes
/// this sensitive to any hidden iteration-order nondeterminism.
#[test]
fn same_seed_reproduces_identical_stats() {
    for name in ["radio_degradation_ramp", "publisher_failover", "rolling_restart_swarm16"] {
        let run_once = |seed: u64| -> (ScenarioReport, Vec<(NodeId, ContainerStats)>) {
            let mut chaos = corpus::build(name, &quick(seed)).expect("known");
            let report = chaos.run();
            let h = chaos.runner.into_harness();
            let stats = h
                .nodes()
                .into_iter()
                .map(|n| (n, h.container(n).expect("listed").stats()))
                .collect();
            (report, stats)
        };
        let (r1, s1) = run_once(42);
        let (r2, s2) = run_once(42);
        assert_eq!(r1.net_stats, r2.net_stats, "`{name}`: same seed, same packet trace");
        assert_eq!(s1, s2, "`{name}`: same seed, same container counters (incl. QosStats)");
        assert_eq!(r1.events_applied, r2.events_applied);
    }
}

/// The swarm-scale acceptance bar: a 1024-node fleet survives a crash +
/// rejoin with every directory re-converging on the full fleet, queues
/// bounded throughout — and the whole run stays a pure function of the
/// seed (byte-identical network trace and container counters across two
/// runs). One test does both so the corpus pays for the big fleet twice,
/// not three times.
///
/// Ignored by default: the O(n²) control traffic takes minutes in debug
/// builds. CI runs it in release (`--release -- --ignored`), where the
/// two runs finish in well under a minute.
#[test]
#[ignore = "swarm-scale run: minutes in debug; CI exercises it in release"]
fn swarm_1024_converges_and_is_seed_reproducible() {
    let run_once = |seed: u64| -> (ScenarioReport, Vec<(NodeId, ContainerStats)>) {
        let mut chaos = corpus::build("swarm_1024", &quick(seed)).expect("known");
        let report = chaos.run();
        let h = chaos.runner.into_harness();

        // Zero invariant violations at swarm scale.
        assert!(report.passed(), "swarm_1024 violated invariants: {:#?}", report.violations);
        assert_eq!(report.events_applied, 2, "crash + restart both applied");
        assert!(report.checks_run > 0, "invariants never ran");

        // The rejoined node is visible fleet-wide and itself sees the
        // whole fleet — the digest gossip recovered its catalogue view.
        assert_eq!(h.nodes().len(), 1024);
        for n in [NodeId(1), NodeId(9), NodeId(1024)] {
            let c = h.container(n).expect("listed");
            assert!(c.directory().node_alive(NodeId(512)), "restarted node visible from {n}");
        }
        let rejoined = h.container(NodeId(512)).expect("listed");
        for n in [NodeId(1), NodeId(511), NodeId(1024)] {
            assert!(rejoined.directory().node_alive(n), "rejoined node sees {n}");
        }
        assert!(rejoined.incarnation() >= 2, "second life, higher incarnation");

        let stats =
            h.nodes().into_iter().map(|n| (n, h.container(n).expect("listed").stats())).collect();
        (report, stats)
    };
    let (r1, s1) = run_once(42);
    let (r2, s2) = run_once(42);
    assert_eq!(r1.net_stats, r2.net_stats, "same seed, same packet trace");
    assert_eq!(s1, s2, "same seed, same container counters");
}

#[test]
fn publisher_failover_measures_and_meets_its_rto() {
    let cfg = quick(7);
    let mut chaos = corpus::build("publisher_failover", &cfg).expect("known");
    let report = chaos.run();
    assert!(report.passed(), "{:#?}", report.violations);

    // The RTO invariant armed on the crash and measured the recovery.
    let recoveries = chaos.probes.recoveries_us.lock().unwrap().clone();
    assert_eq!(recoveries.len(), 1, "exactly one crash was scripted");
    assert!(
        recoveries[0] <= cfg.rto.as_micros(),
        "recovery took {}µs, objective {}µs",
        recoveries[0],
        cfg.rto.as_micros()
    );

    // The client kept getting answers (failover to the backup) and the
    // telemetry subscription kept delivering samples.
    assert!(chaos.probes.calls_ok.load(Ordering::Relaxed) > 10);
    assert!(chaos.probes.var_samples.load(Ordering::Relaxed) > 50);

    // The restarted primary rejoined: everyone sees all three nodes.
    let h = chaos.runner.into_harness();
    assert_eq!(h.nodes(), vec![NodeId(1), NodeId(2), NodeId(3)]);
    for n in h.nodes() {
        let c = h.container(n).unwrap();
        assert!(c.directory().node_alive(NodeId(2)), "restarted primary visible from {n}");
    }
    // The primary's second life announces a higher incarnation.
    assert!(h.container(NodeId(2)).unwrap().incarnation() >= 2);
}

/// The only provider reboots in place, inside `node_timeout`: under both
/// timing profiles the client's calls reach the new life within the
/// objective, and not one of them fails.
#[test]
fn reboot_inside_timeout_meets_its_rto_without_a_call_error() {
    for cfg in [quick(11), corpus::ScenarioConfig::full(11)] {
        let mut chaos = corpus::build("reboot_inside_timeout", &cfg).expect("known");
        let report = chaos.run();
        assert!(report.passed(), "{:#?}", report.violations);
        let recoveries = chaos.probes.recoveries_us.lock().unwrap().clone();
        assert_eq!(recoveries.len(), 1, "one restart, one recovery: {cfg:?}");
        assert_eq!(chaos.probes.calls_err.load(Ordering::Relaxed), 0, "{cfg:?}");
        assert!(chaos.probes.calls_ok.load(Ordering::Relaxed) > 30, "{cfg:?}");
        let h = chaos.runner.into_harness();
        assert_eq!(h.container(NodeId(2)).unwrap().incarnation(), 2);
    }
}

#[test]
fn bulk_flood_applies_bounded_inbox_drops() {
    let mut chaos = corpus::build("bulk_flood_under_partition", &quick(3)).expect("known");
    let report = chaos.run();
    assert!(report.passed(), "{:#?}", report.violations);
    assert!(chaos.probes.events_seen.load(Ordering::Relaxed) > 100, "bulk stream was delivered");
    // The flood outpaces the sink's bounded bulk inbox at some point, so
    // the declared drop policy must have acted (and the scheduler stayed
    // within the QueueBound invariant for the whole run).
    let h = chaos.runner.into_harness();
    let sink = h.container(NodeId(1)).unwrap();
    let bulk = sink.event_qos_stats("chaos/bulk").expect("subscribed channel");
    assert!(bulk.inbox_peak <= 32, "bound respected: peak {}", bulk.inbox_peak);
}

#[test]
fn clock_skew_event_drifts_the_local_clock() {
    use marea_core::scenario::{FaultSchedule, Scenario, ScenarioRunner};
    use marea_core::{ContainerConfig, ProtoDuration, SimHarness};
    use marea_netsim::NetConfig;

    let mut h = SimHarness::new(NetConfig::default());
    h.add_container(ContainerConfig::new("a", NodeId(1)));
    h.add_container(ContainerConfig::new("b", NodeId(2)));
    h.start_all();
    let schedule = FaultSchedule::new().clock_skew(
        ProtoDuration::from_millis(100),
        NodeId(2),
        200_000, // +20% fast clock
    );
    let mut runner = ScenarioRunner::new(h);
    let report = runner.run(&Scenario::new("skew", schedule, ProtoDuration::from_millis(1_100)));
    assert_eq!(report.events_applied, 1);
    let h = runner.into_harness();
    // 1.1s elapsed; the skewed node ran 1s of drifted time on top of the
    // first 100ms: local ≈ 100ms + 1000ms * 1.2 = 1300ms.
    let local = h.local_time(NodeId(2));
    assert!((1_290_000..=1_310_000).contains(&local), "drifted clock: {local}");
    assert_eq!(h.local_time(NodeId(1)), 1_100_000, "unskewed node follows virtual time");
    // Despite the skew, the fleet stays mutually alive (timestamps are
    // node-local; liveness rides message arrival).
    for n in [NodeId(1), NodeId(2)] {
        for m in [NodeId(1), NodeId(2)] {
            assert!(h.container(n).unwrap().directory().node_alive(m));
        }
    }
}

/// Regression guard: the staleness invariant must measure sample age in
/// the *subscribing node's* clock domain. A slow local clock makes
/// `last_rx` fall ever further behind global virtual time; comparing
/// across domains would report silent staleness on a perfectly healthy
/// 20 ms sample stream.
#[test]
fn staleness_invariant_is_clock_domain_correct_under_skew() {
    use marea_core::scenario::corpus::{self, ScenarioConfig};
    use marea_core::ProtoDuration;

    let cfg = ScenarioConfig::quick(5);
    let mut chaos = corpus::build("ground_link_flap", &cfg).expect("known");
    // Slow the subscriber's clock by 10% from the start; the flap script
    // then runs as usual. ~6 virtual seconds ⇒ ~600 ms of divergence,
    // comfortably past the declared deadline + slack if the invariant
    // compared clock domains incorrectly.
    let mut scenario = chaos.scenario.clone();
    scenario.schedule =
        scenario.schedule.clock_skew(ProtoDuration::from_millis(10), NodeId(1), -100_000);
    chaos.scenario = scenario;
    let report = chaos.run();
    assert!(report.passed(), "healthy skewed stream flagged: {:#?}", report.violations);
    assert!(chaos.probes.var_samples.load(Ordering::Relaxed) > 50, "stream actually flowed");
}

/// The flight recorder is part of the determinism fingerprint: two runs
/// with the same seed must produce byte-identical trace rings (rendered
/// line by line) and identical latency-histogram snapshots. The restart
/// scenario exercises the crash/stash/adopt path of the recorder too.
#[test]
fn same_seed_reproduces_identical_trace_rings_and_histograms() {
    use marea_core::trace::render_event;

    for name in ["radio_degradation_ramp", "publisher_failover", "rolling_restart_swarm16"] {
        let run_once = |seed: u64| {
            let mut chaos = corpus::build(name, &quick(seed)).expect("known");
            chaos.run();
            let h = chaos.runner.into_harness();
            let rings: Vec<(NodeId, Vec<String>)> = h
                .trace_rings()
                .into_iter()
                .map(|(n, ring)| (n, ring.events().map(|e| render_event(n, &e)).collect()))
                .collect();
            let hists: Vec<_> = h
                .nodes()
                .into_iter()
                .filter_map(|n| h.container(n).map(|c| (n, c.stats())))
                .map(|(n, s)| (n, s.publish_to_deliver, s.call_rtt, s.rto_recovery))
                .collect();
            (rings, hists)
        };
        let (r1, h1) = run_once(42);
        let (r2, h2) = run_once(42);
        assert!(
            r1.iter().any(|(_, lines)| !lines.is_empty()),
            "`{name}`: the recorder captured nothing"
        );
        assert_eq!(r1, r2, "`{name}`: same seed, same trace rings");
        assert_eq!(h1, h2, "`{name}`: same seed, same histogram snapshots");
        assert!(
            h1.iter().any(|(_, p2d, _, _)| p2d.count() > 0),
            "`{name}`: publish→deliver histogram never recorded"
        );
    }
}

/// Flood helper for the evidence test: a publisher hammering one variable
/// channel at a subscriber whose per-tick budget cannot keep up.
struct FloodPublisher {
    samples: marea_core::VarPort<u32>,
}

impl marea_core::Service for FloodPublisher {
    fn descriptor(&self) -> marea_core::ServiceDescriptor {
        marea_core::ServiceDescriptor::builder("flood")
            .provides_var(
                &self.samples,
                marea_core::VarQos::aperiodic(marea_core::ProtoDuration::from_secs(1)),
            )
            .build()
    }
    fn on_start(&mut self, ctx: &mut marea_core::ServiceContext<'_>) {
        ctx.set_timer(
            marea_core::ProtoDuration::from_millis(2),
            Some(marea_core::ProtoDuration::from_millis(2)),
        );
    }
    fn on_timer(&mut self, ctx: &mut marea_core::ServiceContext<'_>, _id: marea_core::TimerId) {
        for i in 0..8u32 {
            ctx.publish_to(&self.samples, i);
        }
    }
}

struct FloodSink;

impl marea_core::Service for FloodSink {
    fn descriptor(&self) -> marea_core::ServiceDescriptor {
        marea_core::ServiceDescriptor::builder("floodsink")
            .subscribe_variable("chaos/flood", marea_core::VarQos::default())
            .build()
    }
}

/// The acceptance bar for the flight recorder: when an invariant breaks,
/// the violation carries the breaching node's recorder tail *and* the
/// assembled cross-node causal chain of the offending sample — the
/// journey from `var_publish` on the publisher to the subscriber.
#[test]
fn queue_bound_violation_carries_trace_evidence_and_causal_chain() {
    use marea_core::scenario::{FaultSchedule, QueueBound, Scenario, ScenarioRunner};
    use marea_core::{ContainerConfig, ProtoDuration, SimHarness, VarPort};
    use marea_netsim::NetConfig;

    let mut h = SimHarness::new(NetConfig::default().with_seed(9));
    h.add_container(ContainerConfig::new("pub", NodeId(1)));
    let mut sub = ContainerConfig::new("sub", NodeId(2));
    sub.tick_budget = 1; // guarantee a persistent backlog
    h.add_container(sub);
    h.add_service(NodeId(1), Box::new(FloodPublisher { samples: VarPort::new("chaos/flood") }));
    h.add_service(NodeId(2), Box::new(FloodSink));
    h.start_all();

    let mut runner = ScenarioRunner::new(h);
    runner.add_invariant(Box::new(QueueBound::new(0)));
    let report =
        runner.run(&Scenario::new("flood", FaultSchedule::new(), ProtoDuration::from_millis(100)));

    let v = report
        .violations
        .iter()
        .find(|v| v.invariant == "event-queue-bound" && !v.chain.is_empty())
        .expect("the flooded subscriber breached the queue bound with a traced sample in flight");
    assert_eq!(v.node, Some(NodeId(2)), "breach pinned to the backlogged node");
    assert!(!v.trace.is_empty(), "flight-recorder tail attached");
    assert!(v.trace.len() <= 12, "tail is bounded");
    // The chain reconstructs the offending sample's cross-node journey.
    assert!(
        v.chain.iter().any(|l| l.contains(" n1 ") && l.contains("var_publish")),
        "chain shows the publish on node 1: {:#?}",
        v.chain
    );
    assert!(
        v.chain.iter().any(|l| l.contains(" n2 ")),
        "chain shows the sample reaching node 2: {:#?}",
        v.chain
    );
    // Every chain line names the same trace id.
    let id = v.chain[0].split("trace=").nth(1).map(|s| s.split_whitespace().next().unwrap());
    assert!(id.is_some_and(|id| id != "-"), "chain lines carry a real trace id");
    assert!(
        v.chain.iter().all(|l| l.contains(&format!("trace={}", id.unwrap()))),
        "chain is a single causal thread: {:#?}",
        v.chain
    );
}

/// Synthetic invariant that breaches every check at fixed coordinates —
/// used to pin the report's deterministic violation order.
struct AlwaysBreach {
    label: &'static str,
    node: u32,
}

impl marea_core::scenario::Invariant for AlwaysBreach {
    fn name(&self) -> &str {
        self.label
    }
    fn check(
        &mut self,
        _ctx: &marea_core::scenario::InvariantCtx<'_>,
    ) -> Result<(), marea_core::scenario::Breach> {
        Err(marea_core::scenario::Breach::new("synthetic").at_node(NodeId(self.node)))
    }
}

/// Violation reports are ordered by (event-time, node, channel,
/// invariant) regardless of invariant registration order — pinned here so
/// downstream tooling (marea-trace, CI diffing) can rely on it.
#[test]
fn violations_are_ordered_by_time_node_channel_invariant() {
    use marea_core::scenario::{FaultSchedule, Scenario, ScenarioRunner};
    use marea_core::{ContainerConfig, ProtoDuration, SimHarness};
    use marea_netsim::NetConfig;

    let mut h = SimHarness::new(NetConfig::default());
    h.add_container(ContainerConfig::new("a", NodeId(1)));
    h.add_container(ContainerConfig::new("b", NodeId(2)));
    h.start_all();

    let mut runner = ScenarioRunner::new(h);
    // Registered deliberately out of sorted order.
    runner.add_invariant(Box::new(AlwaysBreach { label: "z-check", node: 2 }));
    runner.add_invariant(Box::new(AlwaysBreach { label: "a-check", node: 1 }));
    let report = runner.run(&Scenario::new(
        "ordering",
        FaultSchedule::new(),
        ProtoDuration::from_millis(25),
    ));

    assert!(report.violations.len() >= 4, "two invariants over several checks");
    let keys: Vec<_> = report
        .violations
        .iter()
        .map(|v| (v.at, v.node, v.channel.clone(), v.invariant.clone()))
        .collect();
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(keys, sorted, "report is sorted by (at, node, channel, invariant)");
    // Within one check instant the node-1 breach precedes node-2's.
    assert_eq!(keys[0].1, Some(NodeId(1)));
    assert_eq!(keys[0].3, "a-check");
    assert_eq!(keys[1].1, Some(NodeId(2)));
    assert_eq!(keys[1].3, "z-check");
}

/// A scripted restart of a node that was never added is a script error:
/// it must surface as a `schedule` violation, not arm RTO invariants or
/// count as an applied fault.
#[test]
fn restart_of_unknown_node_is_reported_as_schedule_violation() {
    use marea_core::scenario::{FaultSchedule, Scenario, ScenarioRunner};
    use marea_core::{ContainerConfig, ProtoDuration, SimHarness};
    use marea_netsim::NetConfig;

    let mut h = SimHarness::new(NetConfig::default());
    h.add_container(ContainerConfig::new("a", NodeId(1)));
    h.start_all();
    let schedule = FaultSchedule::new().restart(ProtoDuration::from_millis(50), NodeId(99));
    let mut runner = ScenarioRunner::new(h);
    let report = runner.run(&Scenario::new("typo", schedule, ProtoDuration::from_millis(200)));
    assert_eq!(report.events_applied, 0, "a failed restart is not an applied fault");
    assert_eq!(report.violations.len(), 1);
    assert_eq!(report.violations[0].invariant, "schedule");
    assert!(report.violations[0].detail.contains("node99"), "{}", report.violations[0].detail);
}
