//! QoS-contract enforcement tests: history rings, bounded event inboxes
//! with drop policies, per-subscription scheduler priority, caller-visible
//! call deadlines/retry budgets, and property tests over profile
//! validation.

mod common;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};

use common::{obs_log, observations, Obs, Recorder, Scripted};
use marea_core::{
    CallError, CallOptions, ContainerConfig, DropPolicy, EventPort, EventQos, FnPort, NodeId,
    Priority, ProtoDuration, ServiceDescriptor, SimHarness, VarPort, VarQos,
};
use marea_netsim::NetConfig;
use marea_presentation::Value;
use proptest::prelude::*;

fn lan(seed: u64) -> NetConfig {
    NetConfig::default().with_seed(seed)
}

/// Timestamped call outcomes captured by a test client.
type OutcomeLog<T> = Arc<Mutex<Vec<(u64, Result<T, String>)>>>;

// ---------------------------------------------------------------------------
// Variables: history contract
// ---------------------------------------------------------------------------

#[test]
fn history_contract_retains_last_samples_for_handlers() {
    let mut h = SimHarness::new(lan(61));
    h.add_container(ContainerConfig::new("pub", NodeId(1)));
    h.add_container(ContainerConfig::new("sub", NodeId(2)));

    let counter = VarPort::<u64>::new("hist/v");
    let mut b = ServiceDescriptor::builder("pub");
    b.provides_var(
        &counter,
        VarQos::periodic(ProtoDuration::from_millis(10), ProtoDuration::from_millis(200)),
    );
    let mut publisher = Scripted::new(b.build());
    publisher.on_start = Some(Box::new(|ctx| {
        ctx.set_timer(ProtoDuration::from_millis(10), Some(ProtoDuration::from_millis(10)));
    }));
    let mut n = 0u64;
    let port = counter.clone();
    publisher.on_timer = Some(Box::new(move |ctx, _| {
        n += 1;
        ctx.publish_to(&port, n);
    }));
    h.add_service(NodeId(1), Box::new(publisher));

    // The consumer reads ctx.history() from inside its handler — the ring
    // the container retains under the declared depth of 5.
    let snapshots: Arc<Mutex<Vec<Vec<u64>>>> = Arc::new(Mutex::new(Vec::new()));
    let mut sb = ServiceDescriptor::builder("sub");
    sb.subscribe_to_var(&counter, VarQos::default().with_history(5));
    let mut consumer = Scripted::new(sb.build());
    let port = counter.clone();
    let sink = snapshots.clone();
    consumer.on_variable = Some(Box::new(move |ctx, name, _value| {
        if port.matches(name) {
            let ring: Vec<u64> = ctx.history(&port).into_iter().map(|(_, v)| v).collect();
            sink.lock().unwrap().push(ring);
        }
    }));
    h.add_service(NodeId(2), Box::new(consumer));
    h.start_all();
    h.run_for_millis(500);

    let snaps = snapshots.lock().unwrap();
    assert!(snaps.len() >= 20, "samples flowed: {}", snaps.len());
    let last = snaps.last().unwrap();
    assert_eq!(last.len(), 5, "ring filled to the declared depth");
    assert!(last.windows(2).all(|w| w[1] == w[0] + 1), "oldest-first, contiguous: {last:?}");
    // Every snapshot ends with the sample that triggered the handler.
    for (i, snap) in snaps.iter().enumerate() {
        assert!(snap.len() <= 5, "never deeper than declared");
        assert!(!snap.is_empty(), "at least the triggering sample (snapshot {i})");
    }
    let qos = h.container(NodeId(2)).unwrap().var_qos_stats("hist/v").unwrap();
    assert_eq!(qos.history_len, 5);
}

marea_presentation::record! {
    /// A fixed-size sample that names its own production stamp.
    #[derive(Debug, Clone, Copy, PartialEq)]
    struct Stamped {
        stamp_us: u64,
        k: u64,
    }
}

/// Records `(delivery stamp, value)` for every sample it is handed.
struct StampSink {
    name: &'static str,
    port: VarPort<Stamped>,
    seen: Arc<Mutex<Vec<(u64, Stamped)>>>,
}

impl marea_core::Service for StampSink {
    fn descriptor(&self) -> ServiceDescriptor {
        let mut b = ServiceDescriptor::builder(self.name);
        b.subscribe_to_var(&self.port, VarQos::default());
        b.build()
    }

    fn on_variable(
        &mut self,
        _ctx: &mut marea_core::ServiceContext<'_>,
        _name: &marea_presentation::Name,
        value: &Value,
        stamp: marea_core::Micros,
    ) {
        let sample = <Stamped as marea_presentation::FromValue>::from_value(value).unwrap();
        self.seen.lock().unwrap().push((stamp.as_micros(), sample));
    }
}

/// A subscriber that runs one task per tick falls ever further behind a
/// 1 kHz publisher: every sample its history ring evicts is still held by
/// queued deliveries to its two services. Such a sample is never the
/// storage the next one is decoded into, so each handler sees every
/// sample exactly as it was sent, stamp and value agreeing.
#[test]
fn queued_deliveries_keep_their_samples_under_a_slow_consumer() {
    let mut h = SimHarness::new(lan(66));
    h.add_container(ContainerConfig::new("pub", NodeId(1)));
    let mut slow = ContainerConfig::new("slow", NodeId(2));
    slow.tick_budget = 1;
    h.add_container(slow);

    let port = VarPort::<Stamped>::new("slow/v");
    let mut b = ServiceDescriptor::builder("pub");
    let qos = VarQos::periodic(ProtoDuration::from_millis(1), ProtoDuration::from_secs(10));
    b.provides_var(&port, qos);
    let mut publisher = Scripted::new(b.build());
    publisher.on_start = Some(Box::new(|ctx| {
        ctx.set_timer(ProtoDuration::from_millis(1), Some(ProtoDuration::from_millis(1)));
    }));
    let (mut k, publish) = (0u64, port.clone());
    publisher.on_timer = Some(Box::new(move |ctx, _| {
        k += 1;
        ctx.publish_to(&publish, Stamped { stamp_us: ctx.now().as_micros(), k });
    }));
    h.add_service(NodeId(1), Box::new(publisher));
    let logs = [Arc::new(Mutex::new(Vec::new())), Arc::new(Mutex::new(Vec::new()))];
    for (name, seen) in ["one", "two"].into_iter().zip(&logs) {
        let sink = StampSink { name, port: port.clone(), seen: seen.clone() };
        h.add_service(NodeId(2), Box::new(sink));
    }
    h.start_all();
    h.run_for_millis(300);

    let backlog = h.container(NodeId(2)).unwrap().stats().queue_peak;
    assert!(backlog > 50, "the consumer fell behind: peak queue {backlog}");
    let [one, two] = logs.map(|seen| seen.lock().unwrap().clone());
    assert!(one.len() > 50, "samples were delivered: {}", one.len());
    for seen in [&one, &two] {
        assert!(seen.iter().all(|(stamp, s)| *stamp == s.stamp_us), "a value that is not its own");
        assert!(seen.windows(2).all(|w| w[1].1.k == w[0].1.k + 1), "each sample once, in order");
    }
    let common = one.len().min(two.len());
    assert_eq!(one[..common], two[..common], "both services see the same samples");
}

/// The subscriber on node 1 is bound to node 2's 1 s variable (loss
/// deadline 3 s). Node 2's last sample lands at ≈ 5.002 s and node 2
/// crashes at 5.05 s; at ≈ 7.002 s node 1 declares it dead and rebinds to
/// node 3, which declares a 100 ms period and publishes nothing. The new
/// deadline is anchored at that last sample, so the channel is 2 s past
/// it at the rebind: the warning is due at once, not at the old
/// provider's 8.002 s, and the channel is never silently stale.
#[test]
fn a_rebind_to_a_faster_provider_warns_on_the_new_deadline() {
    use marea_core::scenario::{FaultSchedule, NoSilentStaleness, Scenario, ScenarioRunner};

    let mut h = SimHarness::new(lan(5));
    for (name, node) in [("sub", 1), ("slow", 2), ("fast", 3)] {
        h.add_container(ContainerConfig::new(name, NodeId(node)));
    }
    let port = VarPort::<u64>::new("rebind/v");
    for (node, period_ms) in [(2, 1_000), (3, 100)] {
        let mut b = ServiceDescriptor::builder("pub");
        let (period, validity) =
            (ProtoDuration::from_millis(period_ms), ProtoDuration::from_millis(2 * period_ms));
        b.provides_var(&port, VarQos::periodic(period, validity));
        let mut publisher = Scripted::new(b.build());
        if node == 2 {
            publisher.on_start = Some(Box::new(move |ctx| {
                ctx.set_timer(period, Some(period));
            }));
            let (mut n, publish) = (0u64, port.clone());
            publisher.on_timer = Some(Box::new(move |ctx, _| {
                n += 1;
                ctx.publish_to(&publish, n);
            }));
        }
        h.add_service(NodeId(node), Box::new(publisher));
    }
    let log = obs_log();
    let mut sb = ServiceDescriptor::builder("sub");
    sb.subscribe_to_var(&port, VarQos::default());
    h.add_service(NodeId(1), Box::new(Recorder::new(sb.build(), log.clone())));
    h.start_all();

    let mut runner = ScenarioRunner::new(h);
    runner.add_invariant(Box::new(NoSilentStaleness::new(ProtoDuration::from_millis(50))));
    let crash = FaultSchedule::new().crash(ProtoDuration::from_millis(5_050), NodeId(2));
    let report = runner.run(&Scenario::new("rebind", crash, ProtoDuration::from_secs(9)));
    assert!(report.passed(), "{:#?}", report.violations);

    let obs = observations(&log);
    let last_sample = obs.iter().rfind(|(_, o)| matches!(o, Obs::Var(..))).unwrap().0;
    assert!(last_sample.as_millis() >= 5_000, "node 2 published until its crash");
    let warnings: Vec<u64> = obs
        .iter()
        .filter(|(at, o)| matches!(o, Obs::VarTimeout(_)) && *at > last_sample)
        .map(|(at, _)| at.as_micros())
        .collect();
    let first = *warnings.first().expect("the silence is warned");
    assert!(first > 7_000_000, "node 2 was the provider until its expiry: {warnings:?}");
    assert!(first <= 7_310_000, "within one new deadline of the rebind: {warnings:?}");
}

// ---------------------------------------------------------------------------
// Events: bounded inboxes, drop policies, per-subscription priority
// ---------------------------------------------------------------------------

/// One container, one burst of `total` events into a subscription bounded
/// at `bound`; returns the payloads delivered.
fn run_bounded_burst(policy: DropPolicy, bound: usize, total: u32, seed: u64) -> (Vec<u64>, u64) {
    let mut h = SimHarness::new(lan(seed));
    let mut cfg = ContainerConfig::new("solo", NodeId(1));
    cfg.tick_budget = 512;
    h.add_container(cfg);

    let burst = EventPort::<u64>::new("burst/e");
    let mut b = ServiceDescriptor::builder("burster");
    b.provides_event(&burst);
    let mut publisher = Scripted::new(b.build());
    publisher.on_start = Some(Box::new(|ctx| {
        ctx.set_timer(ProtoDuration::from_millis(10), None);
    }));
    let port = burst.clone();
    publisher.on_timer = Some(Box::new(move |ctx, _| {
        for i in 0..u64::from(total) {
            ctx.emit_to(&port, i);
        }
    }));
    h.add_service(NodeId(1), Box::new(publisher));

    let log = obs_log();
    let mut sb = ServiceDescriptor::builder("sink");
    sb.subscribe_to_event(
        &burst,
        EventQos::default().with_queue_bound(bound).with_drop_policy(policy),
    );
    h.add_service(NodeId(1), Box::new(Recorder::new(sb.build(), log.clone())));
    h.start_all();
    h.run_for_millis(200);

    let delivered: Vec<u64> = observations(&log)
        .into_iter()
        .filter_map(|(_, o)| match o {
            Obs::Event(_, Some(v)) => v.as_u64(),
            _ => None,
        })
        .collect();
    let container = h.container(NodeId(1)).unwrap();
    let drops = container.event_qos_stats("burst/e").unwrap().queue_drops;
    assert_eq!(container.stats().qos.queue_drops, drops, "aggregate ledger matches per-channel");
    (delivered, drops)
}

#[test]
fn bounded_inbox_drop_oldest_keeps_the_freshest_events() {
    let (delivered, drops) = run_bounded_burst(DropPolicy::DropOldest, 10, 100, 62);
    assert_eq!(delivered, (90..100).collect::<Vec<u64>>(), "newest 10 survive");
    assert_eq!(drops, 90, "every displaced delivery is counted");
}

#[test]
fn bounded_inbox_drop_newest_keeps_the_backlog() {
    let (delivered, drops) = run_bounded_burst(DropPolicy::DropNewest, 10, 100, 63);
    assert_eq!(delivered, (0..10).collect::<Vec<u64>>(), "oldest 10 survive");
    assert_eq!(drops, 90);
}

#[test]
fn unbounded_default_drops_nothing() {
    let (delivered, drops) = run_bounded_burst(DropPolicy::DropOldest, usize::MAX, 100, 64);
    assert_eq!(delivered.len(), 100);
    assert_eq!(drops, 0);
    // And the aggregate QoS ledger stays clean.
}

#[test]
fn bulk_priority_flood_cannot_starve_a_critical_subscription() {
    // A low-priority flood (EventQos::bulk) and a critical subscription
    // share one consumer with a tiny tick budget. The critical event is
    // emitted *after* the flood, yet must be delivered first.
    let mut h = SimHarness::new(lan(65));
    let mut cfg = ContainerConfig::new("solo", NodeId(1));
    cfg.tick_budget = 64;
    h.add_container(cfg);

    let flood = EventPort::<u32>::new("q/flood");
    let critical = EventPort::<()>::new("q/critical");
    let mut b = ServiceDescriptor::builder("pub");
    b.provides_event(&flood).provides_event(&critical);
    let mut publisher = Scripted::new(b.build());
    publisher.on_start = Some(Box::new(|ctx| {
        ctx.set_timer(ProtoDuration::from_millis(10), None);
    }));
    let (fp, cp) = (flood.clone(), critical.clone());
    publisher.on_timer = Some(Box::new(move |ctx, _| {
        for i in 0..500u32 {
            ctx.emit_to(&fp, i);
        }
        ctx.emit_to(&cp, ());
    }));
    h.add_service(NodeId(1), Box::new(publisher));

    let log = obs_log();
    let mut sb = ServiceDescriptor::builder("sink");
    sb.subscribe_to_event(&flood, EventQos::bulk().with_queue_bound(100))
        .subscribe_to_event(&critical, EventQos::default());
    h.add_service(NodeId(1), Box::new(Recorder::new(sb.build(), log.clone())));
    h.start_all();
    h.run_for_millis(100);

    let events: Vec<String> = observations(&log)
        .into_iter()
        .filter_map(|(_, o)| match o {
            Obs::Event(name, _) => Some(name),
            _ => None,
        })
        .collect();
    let critical_pos = events.iter().position(|n| n == "q/critical").expect("critical delivered");
    assert!(
        critical_pos == 0,
        "critical event jumps the 500-deep bulk backlog (delivered at {critical_pos})"
    );
    let bulk_delivered = events.iter().filter(|n| n.as_str() == "q/flood").count();
    assert!(bulk_delivered > 0, "bulk still drains in the background");
    let drops = h.container(NodeId(1)).unwrap().event_qos_stats("q/flood").unwrap();
    assert_eq!(drops.queue_drops, 400, "flood beyond the bound is shed");
    assert!(drops.inbox_peak <= 100, "inbox never exceeds the declared bound");
}

// ---------------------------------------------------------------------------
// Calls: caller-visible deadline and retry budget
// ---------------------------------------------------------------------------

#[test]
fn call_deadline_and_retry_budget_shape_failure_time() {
    // The provider's node is partitioned before the call: with the default
    // contract (800 ms x 3 attempts) the failure would surface after
    // seconds; a 100 ms deadline with a budget of 1 surfaces it fast.
    let mut h = SimHarness::new(lan(66));
    h.add_container(ContainerConfig::new("client", NodeId(1)));
    h.add_container(ContainerConfig::new("server", NodeId(2)));

    let ping = FnPort::<(), bool>::new("s/ping");
    let mut sb = ServiceDescriptor::builder("server");
    sb.provides_fn(&ping);
    let mut server = Scripted::new(sb.build());
    server.on_call = Some(Box::new(|_ctx, _f, _a| Ok(Value::Bool(true))));
    h.add_service(NodeId(2), Box::new(server));

    let outcome: OutcomeLog<Value> = Arc::new(Mutex::new(Vec::new()));
    let mut cb = ServiceDescriptor::builder("client");
    cb.requires_fn(&ping);
    let mut client = Scripted::new(cb.build());
    client.on_start = Some(Box::new(|ctx| {
        ctx.set_timer(ProtoDuration::from_millis(200), None);
    }));
    let cport = ping.clone();
    client.on_timer = Some(Box::new(move |ctx, _| {
        ctx.call_fn_with(
            &cport,
            (),
            CallOptions::default()
                .with_deadline(ProtoDuration::from_millis(100))
                .with_retry_budget(1),
        );
    }));
    let sink = outcome.clone();
    client.on_reply = Some(Box::new(move |ctx, _h, result| {
        sink.lock().unwrap().push((ctx.now().as_millis(), result.map_err(|e| e.to_string())));
    }));
    h.add_service(NodeId(1), Box::new(client));
    h.start_all();
    h.run_for_millis(150); // discovery settles, timer not yet fired
    h.network().set_partition(1, 2, true);
    h.run_for_millis(2_000);

    let replies = outcome.lock().unwrap();
    assert_eq!(replies.len(), 1, "{replies:?}");
    let (t_ms, result) = &replies[0];
    assert_eq!(result.as_ref().unwrap_err(), &CallError::Timeout.to_string());
    // Fired at 200 ms + 100 ms contract deadline (+ tick slack), far below
    // the 2400 ms the container defaults would have taken.
    assert!((*t_ms) < 500, "budgeted failure surfaces fast, at {t_ms} ms");
    assert_eq!(h.container(NodeId(1)).unwrap().stats().qos.retries, 0, "budget of 1: no retries");
}

#[test]
fn per_call_deadline_speeds_up_failover_to_backup() {
    let mut h = SimHarness::new(lan(67));
    h.add_container(ContainerConfig::new("client", NodeId(1)));
    h.add_container(ContainerConfig::new("primary", NodeId(2)));
    h.add_container(ContainerConfig::new("backup", NodeId(3)));

    let who = FnPort::<(), u32>::new("s/who");
    for node in [NodeId(2), NodeId(3)] {
        let mut sb = ServiceDescriptor::builder("server");
        sb.provides_fn(&who);
        let mut server = Scripted::new(sb.build());
        let id = node.0;
        server.on_call = Some(Box::new(move |_ctx, _f, _a| Ok(Value::U32(id))));
        h.add_service(node, Box::new(server));
    }

    let outcome: OutcomeLog<u64> = Arc::new(Mutex::new(Vec::new()));
    let mut cb = ServiceDescriptor::builder("client");
    cb.requires_fn(&who);
    let mut client = Scripted::new(cb.build());
    client.on_start = Some(Box::new(|ctx| {
        ctx.set_timer(ProtoDuration::from_millis(200), None);
    }));
    let cport = who.clone();
    client.on_timer = Some(Box::new(move |ctx, _| {
        // Pin to the (partitioned) primary, but keep a tight per-attempt
        // deadline so the middleware re-dispatches to the backup quickly.
        ctx.call_fn_with(
            &cport,
            (),
            CallOptions::default()
                .pinned(NodeId(2))
                .with_deadline(ProtoDuration::from_millis(100))
                .with_retry_budget(3),
        );
    }));
    let sink = outcome.clone();
    client.on_reply = Some(Box::new(move |ctx, _h, result| {
        sink.lock().unwrap().push((
            ctx.now().as_millis(),
            result.map(|v| v.as_u64().unwrap_or(0)).map_err(|e| e.to_string()),
        ));
    }));
    h.add_service(NodeId(1), Box::new(client));
    h.start_all();
    h.run_for_millis(150);
    h.network().set_partition(1, 2, true);
    h.run_for_millis(2_000);

    let replies = outcome.lock().unwrap();
    assert_eq!(replies.len(), 1, "{replies:?}");
    let (t_ms, result) = &replies[0];
    assert_eq!(result, &Ok(3), "the backup answered");
    assert!(*t_ms < 700, "tight deadline bounds the blackout: answered at {t_ms} ms");
    let client = h.container(NodeId(1)).unwrap();
    assert!(client.stats().qos.retries >= 1);
    assert!(client.fn_retries("s/who") >= 1);
}

// ---------------------------------------------------------------------------
// Property tests: profile validation and builder rejection
// ---------------------------------------------------------------------------

proptest! {
    /// `VarQos::validate` accepts exactly the satisfiable contracts.
    #[test]
    fn var_qos_validation_matches_field_rules(
        validity_us in 0u64..1_000_000,
        deadline_periods in 0u32..10,
        history in 0usize..64,
    ) {
        let qos = VarQos::aperiodic(ProtoDuration::from_micros(validity_us))
            .with_deadline_periods(deadline_periods)
            .with_history(history);
        let ok = validity_us > 0 && deadline_periods > 0 && history > 0;
        prop_assert_eq!(qos.validate().is_ok(), ok, "{:?}", qos);
    }

    /// The builder panics on every invalid variable contract and accepts
    /// every valid one.
    #[test]
    fn builder_rejects_exactly_invalid_var_profiles(
        validity_us in 0u64..1_000,
        history in 0usize..8,
    ) {
        let qos = VarQos::aperiodic(ProtoDuration::from_micros(validity_us)).with_history(history);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let mut b = ServiceDescriptor::builder("svc");
            b.subscribe_variable("svc/v", qos);
            b.build()
        }));
        prop_assert_eq!(outcome.is_ok(), qos.validate().is_ok());
    }

    /// `EventQos::validate` rejects exactly the zero queue bound, for any
    /// priority and drop policy.
    #[test]
    fn event_qos_validation_matches_field_rules(
        queue_bound in 0usize..128,
        priority in 0u8..8,
        drop_newest in any::<bool>(),
    ) {
        let policy = if drop_newest { DropPolicy::DropNewest } else { DropPolicy::DropOldest };
        let qos = EventQos::default()
            .with_priority(Priority(priority))
            .with_queue_bound(queue_bound)
            .with_drop_policy(policy);
        prop_assert_eq!(qos.validate().is_ok(), queue_bound > 0);

        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let mut b = ServiceDescriptor::builder("svc");
            b.subscribe_event("svc/e", qos);
            b.build()
        }));
        prop_assert_eq!(outcome.is_ok(), queue_bound > 0);
    }

    /// `CallOptions::validate` rejects exactly zero deadlines and zero
    /// retry budgets; unset fields always fall back to container defaults.
    #[test]
    fn call_options_validation_matches_field_rules(
        deadline_us in 0u64..10_000,
        use_deadline in any::<bool>(),
        retry_budget in 0u32..10,
        use_budget in any::<bool>(),
    ) {
        let mut opts = CallOptions::default();
        if use_deadline {
            opts = opts.with_deadline(ProtoDuration::from_micros(deadline_us));
        }
        if use_budget {
            opts = opts.with_retry_budget(retry_budget);
        }
        let ok = !(use_deadline && deadline_us == 0 || use_budget && retry_budget == 0);
        prop_assert_eq!(opts.validate().is_ok(), ok, "{:?}", opts);
    }
}
