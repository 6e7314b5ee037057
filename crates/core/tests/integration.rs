//! Multi-node integration tests for the service container: every paper
//! feature exercised over the simulated LAN.

mod common;

use bytes::Bytes;
use common::{obs_log, observations, Obs, Recorder, Scripted};
use marea_core::{
    CallOptions, CallPolicy, ContainerConfig, EventPort, EventQos, FileEvent, FnPort, Micros,
    NodeId, ProtoDuration, SchedulerKind, ServiceDescriptor, SimHarness, VarDistribution, VarPort,
    VarQos,
};
use marea_netsim::{LinkConfig, NetConfig};
use marea_presentation::Value;

fn lan(seed: u64) -> NetConfig {
    NetConfig::default().with_seed(seed)
}

fn lossy(seed: u64, loss: f64) -> NetConfig {
    NetConfig::default().with_seed(seed).with_default_link(LinkConfig::default().with_loss(loss))
}

#[test]
fn containers_discover_each_other() {
    let mut h = SimHarness::new(lan(1));
    h.add_container(ContainerConfig::new("alpha", NodeId(1)));
    h.add_container(ContainerConfig::new("beta", NodeId(2)));
    h.start_all();
    let discovered = h.run_until(
        |h| {
            h.container(NodeId(1)).unwrap().directory().node_alive(NodeId(2))
                && h.container(NodeId(2)).unwrap().directory().node_alive(NodeId(1))
        },
        ProtoDuration::from_secs(2),
    );
    assert!(discovered, "mutual discovery within budget");
    let (a, b) = (h.container(NodeId(1)).unwrap(), h.container(NodeId(2)).unwrap());
    assert_eq!(a.directory().node(NodeId(2)).unwrap().incarnation, b.incarnation());
}

#[test]
fn variables_flow_across_nodes_with_schema() {
    let mut h = SimHarness::new(lan(2));
    h.add_container(ContainerConfig::new("pub", NodeId(1)));
    h.add_container(ContainerConfig::new("sub", NodeId(2)));

    // Publisher: counter at 10 ms period, declared through a typed port.
    let counter = VarPort::<u64>::new("counter/value");
    let mut b = ServiceDescriptor::builder("counter");
    b.provides_var(
        &counter,
        VarQos::periodic(ProtoDuration::from_millis(10), ProtoDuration::from_millis(100)),
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

    let log = obs_log();
    h.add_service(
        NodeId(2),
        Box::new(Recorder::new(
            ServiceDescriptor::builder("display")
                .subscribe_variable("counter/value", VarQos::default())
                .build(),
            log.clone(),
        )),
    );

    h.start_all();
    h.run_for_millis(300);

    let vars: Vec<u64> = observations(&log)
        .into_iter()
        .filter_map(|(_, o)| match o {
            Obs::Var(name, v) if name == "counter/value" => v.as_u64(),
            _ => None,
        })
        .collect();
    assert!(vars.len() >= 20, "expected a steady sample stream, got {}", vars.len());
    // Strictly increasing (duplicates and regressions filtered).
    assert!(vars.windows(2).all(|w| w[0] < w[1]), "{vars:?}");
    // Availability notice fired.
    assert!(observations(&log)
        .iter()
        .any(|(_, o)| matches!(o, Obs::Provider(p) if p.contains("VariableAvailable"))));
}

#[test]
fn initial_value_is_guaranteed_to_late_subscribers() {
    let mut h = SimHarness::new(lan(3));
    h.add_container(ContainerConfig::new("pub", NodeId(1)));
    h.add_container(ContainerConfig::new("sub", NodeId(2)));

    // Publishes exactly once at start, then stays silent. Long validity.
    let oneshot = VarPort::<u32>::new("oneshot/value");
    let mut b = ServiceDescriptor::builder("oneshot");
    b.provides_var(&oneshot, VarQos::aperiodic(ProtoDuration::from_secs(60)));
    let mut publisher = Scripted::new(b.build());
    let port = oneshot.clone();
    publisher.on_start = Some(Box::new(move |ctx| ctx.publish_to(&port, 42u32)));
    h.add_service(NodeId(1), Box::new(publisher));
    h.start_all();
    h.run_for_millis(100);

    // Subscriber appears late: the only way it can learn the value is the
    // initial-value unicast (paper §4.1).
    let log = obs_log();
    h.container_mut(NodeId(2))
        .unwrap()
        .add_service(Box::new(Recorder::new(
            ServiceDescriptor::builder("late")
                .subscribe_variable("oneshot/value", VarQos::default().with_initial())
                .build(),
            log.clone(),
        )))
        .unwrap();
    h.run_for_millis(100);

    let got: Vec<Value> = observations(&log)
        .into_iter()
        .filter_map(|(_, o)| match o {
            Obs::Var(_, v) => Some(v),
            _ => None,
        })
        .collect();
    assert_eq!(got, vec![Value::U32(42)], "initial exact value delivered once");
}

#[test]
fn variable_timeout_warns_subscribers() {
    let mut h = SimHarness::new(lan(4));
    h.add_container(ContainerConfig::new("pub", NodeId(1)));
    h.add_container(ContainerConfig::new("sub", NodeId(2)));

    // Publishes at 10 ms for 100 ms, then goes silent (sensor failure).
    let reading = VarPort::<f32>::new("sensor/reading");
    let mut b = ServiceDescriptor::builder("sensor");
    b.provides_var(
        &reading,
        VarQos::periodic(ProtoDuration::from_millis(10), ProtoDuration::from_millis(50)),
    );
    let mut publisher = Scripted::new(b.build());
    publisher.on_start = Some(Box::new(|ctx| {
        ctx.set_timer(ProtoDuration::from_millis(10), Some(ProtoDuration::from_millis(10)));
    }));
    let mut count = 0;
    let port = reading.clone();
    publisher.on_timer = Some(Box::new(move |ctx, _| {
        count += 1;
        if count <= 10 {
            ctx.publish_to(&port, 1.5f32);
        }
    }));
    h.add_service(NodeId(1), Box::new(publisher));

    let log = obs_log();
    h.add_service(
        NodeId(2),
        Box::new(Recorder::new(
            ServiceDescriptor::builder("monitor")
                .subscribe_variable("sensor/reading", VarQos::default())
                .build(),
            log.clone(),
        )),
    );
    h.start_all();
    h.run_for_millis(400);

    let obs = observations(&log);
    let timeouts: Vec<&Micros> = obs
        .iter()
        .filter_map(|(t, o)| match o {
            Obs::VarTimeout(name) if name == "sensor/reading" => Some(t),
            _ => None,
        })
        .collect();
    assert_eq!(timeouts.len(), 1, "warned exactly once: {obs:?}");
    // The warning came after the last sample plus ~3 periods.
    let last_sample =
        obs.iter().filter(|(_, o)| matches!(o, Obs::Var(..))).map(|(t, _)| *t).max().unwrap();
    assert!(*timeouts[0] > last_sample);
    // The miss is accounted against the subscription's QoS contract.
    let sub = h.container(NodeId(2)).unwrap();
    assert_eq!(sub.stats().qos.deadline_misses, 1);
    assert_eq!(sub.var_qos_stats("sensor/reading").unwrap().deadline_misses, 1);
}

#[test]
fn stale_samples_are_dropped_by_validity() {
    // A slow link delays samples beyond their validity window.
    let mut h = SimHarness::new(lan(5));
    h.network().set_default_link(LinkConfig::default().with_latency_us(30_000));
    h.add_container(ContainerConfig::new("pub", NodeId(1)));
    h.add_container(ContainerConfig::new("sub", NodeId(2)));

    let fast = VarPort::<u8>::new("fast/v");
    let mut b = ServiceDescriptor::builder("fast");
    b.provides_var(
        &fast,
        // validity < link latency
        VarQos::periodic(ProtoDuration::from_millis(10), ProtoDuration::from_millis(5)),
    );
    let mut publisher = Scripted::new(b.build());
    publisher.on_start = Some(Box::new(|ctx| {
        ctx.set_timer(ProtoDuration::from_millis(10), Some(ProtoDuration::from_millis(10)));
    }));
    let port = fast.clone();
    publisher.on_timer = Some(Box::new(move |ctx, _| ctx.publish_to(&port, 1u8)));
    h.add_service(NodeId(1), Box::new(publisher));

    let log = obs_log();
    h.add_service(
        NodeId(2),
        Box::new(Recorder::new(
            ServiceDescriptor::builder("mon")
                .subscribe_variable("fast/v", VarQos::default())
                .build(),
            log.clone(),
        )),
    );
    h.start_all();
    h.run_for_millis(200);

    let delivered = observations(&log).iter().filter(|(_, o)| matches!(o, Obs::Var(..))).count();
    assert_eq!(delivered, 0, "every sample arrived stale");
    let stats = h.container(NodeId(2)).unwrap().stats();
    assert!(stats.qos.stale_drops > 5, "{stats:?}");
    // The container total is the sum over subscriptions; there is one.
    let per_sub = h.container(NodeId(2)).unwrap().var_qos_stats("fast/v").unwrap();
    assert_eq!(per_sub.stale_drops, stats.qos.stale_drops);
}

#[test]
fn events_are_delivered_exactly_once_in_order_under_loss() {
    // Coding is on, as on every link: enough events that loss still
    // forces retransmissions past what parity repairs.
    const EVENTS: u64 = 200;
    let mut h = SimHarness::new(lossy(6, 0.10));
    h.add_container(ContainerConfig::new("pub", NodeId(1)));
    h.add_container(ContainerConfig::new("sub", NodeId(2)));

    let tick = EventPort::<u64>::new("alerter/tick");
    let mut b = ServiceDescriptor::builder("alerter");
    b.provides_event(&tick);
    let mut publisher = Scripted::new(b.build());
    publisher.on_start = Some(Box::new(|ctx| {
        // First emission waits out subscription wiring (even under loss the
        // reliable control plane settles within a few RTOs); pub/sub has no
        // retroactive delivery for earlier events.
        ctx.set_timer(ProtoDuration::from_millis(300), Some(ProtoDuration::from_millis(5)));
    }));
    let mut i = 0u64;
    let port = tick.clone();
    publisher.on_timer = Some(Box::new(move |ctx, _| {
        if i < EVENTS {
            ctx.emit_to(&port, i);
            i += 1;
        }
    }));
    h.add_service(NodeId(1), Box::new(publisher));

    let log = obs_log();
    h.add_service(
        NodeId(2),
        Box::new(Recorder::new(
            ServiceDescriptor::builder("watcher")
                .subscribe_event("alerter/tick", EventQos::default())
                .build(),
            log.clone(),
        )),
    );
    h.start_all();
    let all_arrived = h.run_until(
        |h| h.container(NodeId(2)).unwrap().stats().events_delivered >= EVENTS,
        ProtoDuration::from_secs(2),
    );
    assert!(all_arrived, "all {EVENTS} events within the loss budget");

    let got: Vec<u64> = observations(&log)
        .into_iter()
        .filter_map(|(_, o)| match o {
            Obs::Event(name, Some(v)) if name == "alerter/tick" => v.as_u64(),
            _ => None,
        })
        .collect();
    assert_eq!(got, (0..EVENTS).collect::<Vec<u64>>(), "reliable, ordered, exactly once");
    // Loss did force retransmissions.
    let arq = h.container(NodeId(1)).unwrap().arq_stats();
    assert!(arq.retransmitted > 0, "{arq:?}");
    assert_eq!(arq.failed, 0);
}

#[test]
fn fec_repairs_erasures_without_retransmit() {
    // Same shape as the test above, with fewer events: the erasure-coding
    // layer below ARQ must rebuild lost frames from parity, and every
    // event still arrives exactly once in order.
    let mut h = SimHarness::new(lossy(6, 0.10));
    h.add_container(ContainerConfig::new("pub", NodeId(1)));
    h.add_container(ContainerConfig::new("sub", NodeId(2)));

    let tick = EventPort::<u64>::new("alerter/tick");
    let mut b = ServiceDescriptor::builder("alerter");
    b.provides_event(&tick);
    let mut publisher = Scripted::new(b.build());
    publisher.on_start = Some(Box::new(|ctx| {
        ctx.set_timer(ProtoDuration::from_millis(300), Some(ProtoDuration::from_millis(5)));
    }));
    let mut i = 0u64;
    let port = tick.clone();
    publisher.on_timer = Some(Box::new(move |ctx, _| {
        if i < 50 {
            ctx.emit_to(&port, i);
            i += 1;
        }
    }));
    h.add_service(NodeId(1), Box::new(publisher));

    let log = obs_log();
    h.add_service(
        NodeId(2),
        Box::new(Recorder::new(
            ServiceDescriptor::builder("watcher")
                .subscribe_event("alerter/tick", EventQos::default())
                .build(),
            log.clone(),
        )),
    );
    h.start_all();
    let all_arrived = h.run_until(
        |h| h.container(NodeId(2)).unwrap().stats().events_delivered >= 50,
        ProtoDuration::from_secs(2),
    );
    assert!(all_arrived, "all 50 events within the loss budget");

    let got: Vec<u64> = observations(&log)
        .into_iter()
        .filter_map(|(_, o)| match o {
            Obs::Event(name, Some(v)) if name == "alerter/tick" => v.as_u64(),
            _ => None,
        })
        .collect();
    assert_eq!(got, (0..50).collect::<Vec<u64>>(), "reliable, ordered, exactly once");

    let tx = h.container(NodeId(1)).unwrap().stats().fec;
    assert!(tx.data_shards_out > 0, "link traffic was coded: {tx:?}");
    assert!(tx.parity_shards_out > 0, "groups closed with parity: {tx:?}");
    let rx = h.container(NodeId(2)).unwrap().stats().fec;
    assert!(rx.recovered > 0, "at 10% loss some erasure must be parity-repaired: {rx:?}");

    // Both ends code, whatever each has heard of the other: every link
    // runs a live rate from its first message.
    assert!(tx.rate_max >= 1, "publisher runs a live rate: {tx:?}");
    assert!(rx.rate_max >= 1, "subscriber runs a live rate: {rx:?}");
}

#[test]
fn bare_events_carry_no_payload() {
    let mut h = SimHarness::new(lan(7));
    h.add_container(ContainerConfig::new("pub", NodeId(1)));
    h.add_container(ContainerConfig::new("sub", NodeId(2)));

    let ping = EventPort::<()>::new("bare/ping");
    let mut b = ServiceDescriptor::builder("bare");
    b.provides_event(&ping);
    let mut publisher = Scripted::new(b.build());
    publisher.on_start = Some(Box::new(|ctx| {
        ctx.set_timer(ProtoDuration::from_millis(20), None);
    }));
    let port = ping.clone();
    publisher.on_timer = Some(Box::new(move |ctx, _| ctx.emit_to(&port, ())));
    h.add_service(NodeId(1), Box::new(publisher));

    let log = obs_log();
    h.add_service(
        NodeId(2),
        Box::new(Recorder::new(
            ServiceDescriptor::builder("w")
                .subscribe_event("bare/ping", EventQos::default())
                .build(),
            log.clone(),
        )),
    );
    h.start_all();
    h.run_for_millis(200);
    let events: Vec<Obs> = observations(&log)
        .into_iter()
        .filter(|(_, o)| matches!(o, Obs::Event(..)))
        .map(|(_, o)| o)
        .collect();
    assert_eq!(events, vec![Obs::Event("bare/ping".into(), None)]);
}

#[test]
fn remote_invocation_roundtrip() {
    let mut h = SimHarness::new(lan(8));
    h.add_container(ContainerConfig::new("client", NodeId(1)));
    h.add_container(ContainerConfig::new("server", NodeId(2)));

    let double = FnPort::<(u32,), u32>::new("math/double");
    let mut b = ServiceDescriptor::builder("math");
    b.provides_fn(&double);
    let mut server = Scripted::new(b.build());
    let sport = double.clone();
    server.on_call = Some(Box::new(move |_ctx, function, args| {
        assert_eq!(function.as_str(), "math/double");
        let (x,) = sport.decode_args(args).map_err(|e| e.to_string())?;
        Ok(sport.encode_ret(x * 2))
    }));
    h.add_service(NodeId(2), Box::new(server));

    let log = obs_log();
    let mut client = Scripted::new(
        ServiceDescriptor::builder("consumer").requires_function("math/double").build(),
    );
    client.on_start = Some(Box::new(|ctx| {
        ctx.set_timer(ProtoDuration::from_millis(30), None);
    }));
    let cport = double.clone();
    client.on_timer = Some(Box::new(move |ctx, _| {
        ctx.call_fn(&cport, (21,));
    }));
    let reply_log = log.clone();
    client.on_reply = Some(Box::new(move |ctx, handle, result| {
        reply_log
            .lock()
            .unwrap()
            .push((ctx.now(), Obs::Reply(handle.0 .0, result.map_err(|e| e.to_string()))));
    }));
    h.add_service(NodeId(1), Box::new(client));

    h.start_all();
    h.run_for_millis(300);

    let replies: Vec<Obs> = observations(&log)
        .into_iter()
        .filter(|(_, o)| matches!(o, Obs::Reply(..)))
        .map(|(_, o)| o)
        .collect();
    assert_eq!(replies, vec![Obs::Reply(1, Ok(Value::U32(42)))]);
    assert_eq!(h.container(NodeId(2)).unwrap().stats().calls_served, 1);
}

#[test]
fn local_calls_bypass_the_network() {
    let mut h = SimHarness::new(lan(9));
    h.add_container(ContainerConfig::new("solo", NodeId(1)));

    let neg = FnPort::<(i32,), i32>::new("math/neg");
    let mut b = ServiceDescriptor::builder("math");
    b.provides_fn(&neg);
    let mut server = Scripted::new(b.build());
    let sport = neg.clone();
    server.on_call = Some(Box::new(move |_ctx, _f, args| {
        let (x,) = sport.decode_args(args).map_err(|e| e.to_string())?;
        Ok(sport.encode_ret(-x))
    }));
    h.add_service(NodeId(1), Box::new(server));

    let log = obs_log();
    let mut client = Scripted::new(ServiceDescriptor::builder("consumer").build());
    client.on_start = Some(Box::new(|ctx| {
        ctx.set_timer(ProtoDuration::from_millis(10), None);
    }));
    let cport = neg.clone();
    client.on_timer = Some(Box::new(move |ctx, _| {
        ctx.call_fn(&cport, (7,));
    }));
    let reply_log = log.clone();
    client.on_reply = Some(Box::new(move |ctx, handle, result| {
        reply_log
            .lock()
            .unwrap()
            .push((ctx.now(), Obs::Reply(handle.0 .0, result.map_err(|e| e.to_string()))));
    }));
    h.add_service(NodeId(1), Box::new(client));
    h.start_all();
    h.run_for_millis(100);

    let replies: Vec<Obs> = observations(&log)
        .into_iter()
        .filter(|(_, o)| matches!(o, Obs::Reply(..)))
        .map(|(_, o)| o)
        .collect();
    assert_eq!(replies, vec![Obs::Reply(1, Ok(Value::I32(-7)))]);
    // No CallRequest ever hit the wire (only discovery traffic did).
    let arq = h.container(NodeId(1)).unwrap().arq_stats();
    assert_eq!(arq.sent, 0, "local call used the in-container path");
}

#[test]
fn call_errors_propagate() {
    let mut h = SimHarness::new(lan(10));
    h.add_container(ContainerConfig::new("client", NodeId(1)));
    h.add_container(ContainerConfig::new("server", NodeId(2)));

    let work = FnPort::<(), bool>::new("fragile/work");
    let missing = FnPort::<(), bool>::new("no/such-function");
    let mut b = ServiceDescriptor::builder("fragile");
    b.provides_fn(&work);
    let mut server = Scripted::new(b.build());
    server.on_call = Some(Box::new(|_ctx, _f, _a| Err("out of film".into())));
    h.add_service(NodeId(2), Box::new(server));

    let log = obs_log();
    let mut client = Scripted::new(ServiceDescriptor::builder("consumer").build());
    client.on_start = Some(Box::new(|ctx| {
        ctx.set_timer(ProtoDuration::from_millis(30), None);
    }));
    client.on_timer = Some(Box::new(move |ctx, _| {
        ctx.call_fn(&work, ());
        ctx.call_fn(&missing, ());
    }));
    let reply_log = log.clone();
    client.on_reply = Some(Box::new(move |ctx, handle, result| {
        reply_log
            .lock()
            .unwrap()
            .push((ctx.now(), Obs::Reply(handle.0 .0, result.map_err(|e| e.to_string()))));
    }));
    h.add_service(NodeId(1), Box::new(client));
    h.start_all();
    h.run_for_millis(300);

    let mut replies: Vec<Obs> = observations(&log)
        .into_iter()
        .filter(|(_, o)| matches!(o, Obs::Reply(..)))
        .map(|(_, o)| o)
        .collect();
    replies.sort_by_key(|o| match o {
        Obs::Reply(h, _) => *h,
        _ => 0,
    });
    assert_eq!(replies.len(), 2);
    assert!(matches!(&replies[0], Obs::Reply(_, Err(e)) if e.contains("out of film")));
    assert!(matches!(&replies[1], Obs::Reply(_, Err(e)) if e.contains("no provider")));
}

#[test]
fn calls_fail_over_to_redundant_provider() {
    let mut h = SimHarness::new(lan(11));
    h.add_container(ContainerConfig::new("client", NodeId(1)));
    h.add_container(ContainerConfig::new("primary", NodeId(2)));
    h.add_container(ContainerConfig::new("backup", NodeId(3)));

    let where_fn = FnPort::<(), u32>::new("storage/where");
    for node in [NodeId(2), NodeId(3)] {
        let mut b = ServiceDescriptor::builder("storage");
        b.provides_fn(&where_fn);
        let mut server = Scripted::new(b.build());
        let who = node.0;
        server.on_call = Some(Box::new(move |_ctx, _f, _a| Ok(Value::U32(who))));
        h.add_service(node, Box::new(server));
    }

    let log = obs_log();
    let mut client = Scripted::new(ServiceDescriptor::builder("consumer").build());
    client.on_start = Some(Box::new(|ctx| {
        // Call every 100 ms, pinned to node 2 while it lives.
        ctx.set_timer(ProtoDuration::from_millis(100), Some(ProtoDuration::from_millis(100)));
    }));
    let cport = where_fn.clone();
    client.on_timer = Some(Box::new(move |ctx, _| {
        ctx.call_fn_with(&cport, (), CallOptions::default().pinned(NodeId(2)));
    }));
    let reply_log = log.clone();
    client.on_reply = Some(Box::new(move |ctx, handle, result| {
        reply_log
            .lock()
            .unwrap()
            .push((ctx.now(), Obs::Reply(handle.0 .0, result.map_err(|e| e.to_string()))));
    }));
    h.add_service(NodeId(1), Box::new(client));
    h.start_all();
    h.run_for_millis(450);

    // Kill the primary mid-mission.
    h.crash_node(NodeId(2));
    h.run_for_millis(3_000);

    let replies: Vec<(u64, Result<u64, String>)> = observations(&log)
        .into_iter()
        .filter_map(|(_, o)| match o {
            Obs::Reply(h, r) => Some((h, r.map(|v| v.as_u64().unwrap()))),
            _ => None,
        })
        .collect();
    let served_by_primary = replies.iter().filter(|(_, r)| *r == Ok(2)).count();
    let served_by_backup = replies.iter().filter(|(_, r)| *r == Ok(3)).count();
    assert!(served_by_primary >= 3, "primary served before crash: {replies:?}");
    assert!(served_by_backup >= 10, "backup continues the mission: {replies:?}");
    // Every call eventually answered (possibly after failover); at most the
    // in-flight ones during the blackout window report an error.
    let errors = replies.iter().filter(|(_, r)| r.is_err()).count();
    assert!(errors <= 2, "at most the in-flight calls error: {replies:?}");
    let client = h.container(NodeId(1)).unwrap();
    assert!(client.stats().qos.retries >= 1);
    // The transparent re-dispatches are part of the QoS ledger, total and
    // per function.
    assert!(client.stats().qos.retries >= 1, "{:?}", client.stats().qos);
    assert!(client.fn_retries("storage/where") >= 1);
    assert_eq!(client.fn_retries("no/such"), 0);
}

/// A provider whose handler panics on a call is marked `Failed` by its
/// watchdog and never answers; the catalogue its node floods at the end
/// of that tick says so, and the caller moves the call to the redundant
/// provider at once — within one link latency and a tick of the failure,
/// not after the call's deadline.
#[test]
fn a_call_to_a_provider_that_fails_on_it_is_answered_by_the_backup() {
    let mut h = SimHarness::new(lan(12));
    h.add_container(ContainerConfig::new("client", NodeId(1)));
    h.add_container(ContainerConfig::new("primary", NodeId(2)));
    h.add_container(ContainerConfig::new("backup", NodeId(3)));

    let where_fn = FnPort::<(), u32>::new("storage/where");
    let failed_at = obs_log();
    for node in [NodeId(2), NodeId(3)] {
        let mut b = ServiceDescriptor::builder("storage");
        b.provides_fn(&where_fn);
        let mut server = Scripted::new(b.build());
        let failed_at = failed_at.clone();
        server.on_call = Some(Box::new(move |ctx, _f, _a| {
            if node == NodeId(2) {
                failed_at.lock().unwrap().push((ctx.now(), Obs::Started));
                panic!("deliberate test panic");
            }
            Ok(Value::U32(node.0))
        }));
        h.add_service(node, Box::new(server));
    }

    let log = obs_log();
    let mut client = Scripted::new(ServiceDescriptor::builder("consumer").build());
    client.on_start = Some(Box::new(|ctx| {
        ctx.set_timer(ProtoDuration::from_millis(300), None);
    }));
    let cport = where_fn.clone();
    client.on_timer = Some(Box::new(move |ctx, _| {
        ctx.call_fn_with(&cport, (), CallOptions::default().pinned(NodeId(2)));
    }));
    let reply_log = log.clone();
    client.on_reply = Some(Box::new(move |ctx, handle, result| {
        reply_log
            .lock()
            .unwrap()
            .push((ctx.now(), Obs::Reply(handle.0 .0, result.map_err(|e| e.to_string()))));
    }));
    h.add_service(NodeId(1), Box::new(client));
    h.start_all();

    // Silence the default panic hook for the expected panic.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    h.run_for_millis(1_500);
    std::panic::set_hook(prev_hook);

    let primary = h.container(NodeId(2)).unwrap();
    assert_eq!(primary.service_state("storage"), Some(marea_core::ServiceState::Failed));
    let failed_at = observations(&failed_at);
    assert_eq!(failed_at.len(), 1, "the primary met the call once");
    let failed_at = failed_at[0].0;

    let client = h.container(NodeId(1)).unwrap();
    let (redirected, _) = (client.log_lines())
        .find(|(_, line)| line.contains("redirected to redundant provider"))
        .expect("the call was redirected");
    let (latency, tick) = (LinkConfig::default().latency_us, 1_000);
    assert!(
        redirected.as_micros() <= failed_at.as_micros() + latency + tick,
        "redirected at {redirected:?}, the primary failed at {failed_at:?}"
    );
    let replies = observations(&log);
    assert_eq!(replies.len(), 1, "{replies:?}");
    let (answered, reply) = &replies[0];
    assert_eq!(*reply, Obs::Reply(1, Ok(Value::U32(3))), "answered by the backup");
    let waited = answered.as_micros() - failed_at.as_micros();
    assert!(waited <= 3 * (latency + tick), "answered {waited} µs after the failure");
    assert!(client.stats().qos.retries >= 1, "{:?}", client.stats().qos);
}

#[test]
fn file_distribution_to_multiple_nodes_is_bit_exact() {
    let mut h = SimHarness::new(lossy(12, 0.02));
    h.add_container(ContainerConfig::new("cam", NodeId(1)));
    h.add_container(ContainerConfig::new("store", NodeId(2)));
    h.add_container(ContainerConfig::new("proc", NodeId(3)));

    let image: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
    let mut camera =
        Scripted::new(ServiceDescriptor::builder("camera").file_resource("camera/img").build());
    let img = Bytes::from(image.clone());
    camera.on_start = Some(Box::new(move |ctx| {
        ctx.publish_file("camera/img", img.clone());
    }));
    h.add_service(NodeId(1), Box::new(camera));

    let log2 = obs_log();
    h.add_service(
        NodeId(2),
        Box::new(Recorder::new(
            ServiceDescriptor::builder("storage").subscribe_file("camera/img").build(),
            log2.clone(),
        )),
    );
    let log3 = obs_log();
    h.add_service(
        NodeId(3),
        Box::new(Recorder::new(
            ServiceDescriptor::builder("video").subscribe_file("camera/img").build(),
            log3.clone(),
        )),
    );
    h.start_all();
    let both_done = h.run_until(
        |h| {
            [NodeId(2), NodeId(3)]
                .iter()
                .all(|n| h.container(*n).unwrap().stats().files_received >= 1)
        },
        ProtoDuration::from_secs(5),
    );
    assert!(both_done, "both subscribers completed within the loss budget");

    for (node, log) in [(NodeId(2), &log2), (NodeId(3), &log3)] {
        let data: Vec<Bytes> = observations(log)
            .into_iter()
            .filter_map(|(_, o)| match o {
                Obs::FileData(name, _rev, data) if name == "camera/img" => Some(data),
                _ => None,
            })
            .collect();
        assert_eq!(data.len(), 1, "{node} received exactly once");
        assert_eq!(data[0].as_ref(), image.as_slice(), "{node} bit-exact");
    }
}

/// Transfer ids are unique per publishing node only: both publishers'
/// first transfers are `TransferId(1)`, and node 1 is publisher and
/// subscriber at once, so every index keyed by the bare id misroutes.
#[test]
fn two_file_publishers_do_not_cross_route() {
    let mut h = SimHarness::new(lan(15));
    for n in 1..=3 {
        h.add_container(ContainerConfig::new("node", NodeId(n)));
    }
    let image = |n: u32| -> Vec<u8> { (0..60_000u32).map(|i| (i % 251) as u8 ^ n as u8).collect() };
    let completions = obs_log();
    for n in [1u32, 2] {
        let resource = format!("n{n}/img");
        let mut b = ServiceDescriptor::builder("publisher");
        b.file_resource(&resource);
        let mut publisher = Scripted::new(b.build());
        let data = Bytes::from(image(n));
        publisher.on_start = Some(Box::new(move |ctx| ctx.publish_file(&resource, data.clone())));
        let log = completions.clone();
        publisher.on_file_event = Some(Box::new(move |ctx, event| {
            if let FileEvent::DistributionComplete { resource, subscribers, .. } = event {
                log.lock()
                    .unwrap()
                    .push((ctx.now(), Obs::File(format!("{resource}:{subscribers}"))));
            }
        }));
        h.add_service(NodeId(n), Box::new(publisher));
    }
    // Node 3 wants both resources, node 1 (a publisher itself) node 2's.
    let wants: [(u32, &[u32]); 2] = [(3, &[1, 2]), (1, &[2])];
    let logs = wants.map(|(node, publishers)| {
        let mut b = ServiceDescriptor::builder("subscriber");
        for p in publishers {
            b.subscribe_file(&format!("n{p}/img"));
        }
        let log = obs_log();
        h.add_service(NodeId(node), Box::new(Recorder::new(b.build(), log.clone())));
        log
    });
    h.start_all();
    h.run_for_millis(10_000);

    for ((node, publishers), log) in wants.iter().zip(&logs) {
        let mut got: Vec<(String, Bytes)> = observations(log)
            .into_iter()
            .filter_map(|(_, o)| match o {
                Obs::FileData(name, _rev, data) => Some((name, data)),
                _ => None,
            })
            .collect();
        got.sort();
        let want: Vec<(String, Bytes)> =
            publishers.iter().map(|p| (format!("n{p}/img"), Bytes::from(image(*p)))).collect();
        assert_eq!(got, want, "node {node}: each resource exactly once, bit-exact");
        let received = h.container(NodeId(*node)).unwrap().stats().files_received;
        assert_eq!(received, publishers.len() as u64, "node {node}");
    }
    let mut completed: Vec<Obs> = observations(&completions).into_iter().map(|(_, o)| o).collect();
    completed.sort_by_key(|o| format!("{o:?}"));
    assert_eq!(
        completed,
        vec![Obs::File("n1/img:1".into()), Obs::File("n2/img:2".into())],
        "each publisher sees its own distribution complete"
    );
}

/// A publisher with no subscribers announces its resource once. An
/// interest declared at run time after that announce went by subscribes
/// from the copy the node cached: declaring it marks the subscription
/// table, and the maintenance pass that follows takes the announce up.
#[test]
fn a_file_interest_declared_after_the_announce_subscribes_from_the_cache() {
    let mut h = SimHarness::new(lan(16));
    h.add_container(ContainerConfig::new("cam", NodeId(1)));
    h.add_container(ContainerConfig::new("store", NodeId(2)));

    let image = Bytes::from(vec![5u8; 20_000]);
    let mut camera =
        Scripted::new(ServiceDescriptor::builder("camera").file_resource("camera/late").build());
    let img = image.clone();
    camera.on_start = Some(Box::new(move |ctx| ctx.publish_file("camera/late", img.clone())));
    h.add_service(NodeId(1), Box::new(camera));

    let log = obs_log();
    let mut storage = Scripted::new(ServiceDescriptor::builder("storage").build());
    storage.on_start = Some(Box::new(|ctx| {
        ctx.set_timer(ProtoDuration::from_millis(500), None);
    }));
    storage.on_timer = Some(Box::new(|ctx, _| ctx.subscribe_file("camera/late")));
    let sink = log.clone();
    storage.on_file_event = Some(Box::new(move |ctx, event| {
        if let FileEvent::Received { resource, revision, data } = event {
            let obs = Obs::FileData(resource.to_string(), *revision, data.clone());
            sink.lock().unwrap().push((ctx.now(), obs));
        }
    }));
    h.add_service(NodeId(2), Box::new(storage));
    h.start_all();
    h.run_for_millis(1_000);

    let got = observations(&log);
    assert_eq!(got.len(), 1, "{got:?}");
    let (at, obs) = &got[0];
    assert_eq!(obs, &Obs::FileData("camera/late".into(), 1, image));
    assert!((500..600).contains(&at.as_millis()), "taken up at once: {at:?}");
}

#[test]
fn same_node_file_subscription_bypasses_the_network() {
    let mut h = SimHarness::new(lan(13));
    h.add_container(ContainerConfig::new("solo", NodeId(1)));

    let payload = Bytes::from(vec![7u8; 50_000]);
    let mut camera =
        Scripted::new(ServiceDescriptor::builder("camera").file_resource("camera/img").build());
    let img = payload.clone();
    camera.on_start = Some(Box::new(move |ctx| {
        ctx.publish_file("camera/img", img.clone());
    }));
    h.add_service(NodeId(1), Box::new(camera));

    let log = obs_log();
    h.add_service(
        NodeId(1),
        Box::new(Recorder::new(
            ServiceDescriptor::builder("storage").subscribe_file("camera/img").build(),
            log.clone(),
        )),
    );
    h.start_all();
    h.run_for_millis(200);

    let got: Vec<Bytes> = observations(&log)
        .into_iter()
        .filter_map(|(_, o)| match o {
            Obs::FileData(_, _, data) => Some(data),
            _ => None,
        })
        .collect();
    assert_eq!(got.len(), 1);
    assert_eq!(got[0], payload);
    let stats = h.container(NodeId(1)).unwrap().stats();
    assert_eq!(stats.file_bypass_deliveries, 1);
    assert_eq!(stats.files_received, 0, "no network reception happened");
    // No chunk ever hit the wire.
    let chunks_on_wire = h.network().stats().bytes_sent;
    assert!(chunks_on_wire < 10_000, "only control-plane traffic: {chunks_on_wire}");
}

#[test]
fn file_revision_update_reaches_subscribers() {
    let mut h = SimHarness::new(lan(14));
    h.add_container(ContainerConfig::new("cam", NodeId(1)));
    h.add_container(ContainerConfig::new("store", NodeId(2)));

    let mut camera =
        Scripted::new(ServiceDescriptor::builder("camera").file_resource("camera/map").build());
    camera.on_start = Some(Box::new(move |ctx| {
        ctx.publish_file("camera/map", Bytes::from(vec![1u8; 10_000]));
        // Revise after 300 ms.
        ctx.set_timer(ProtoDuration::from_millis(300), None);
    }));
    camera.on_timer = Some(Box::new(move |ctx, _| {
        ctx.publish_file("camera/map", Bytes::from(vec![2u8; 5_000]));
    }));
    h.add_service(NodeId(1), Box::new(camera));

    let log = obs_log();
    h.add_service(
        NodeId(2),
        Box::new(Recorder::new(
            ServiceDescriptor::builder("storage").subscribe_file("camera/map").build(),
            log.clone(),
        )),
    );
    h.start_all();
    h.run_for_millis(1_500);

    let revs: Vec<(u32, usize, u8)> = observations(&log)
        .into_iter()
        .filter_map(|(_, o)| match o {
            Obs::FileData(_, rev, data) => Some((rev, data.len(), data[0])),
            _ => None,
        })
        .collect();
    assert_eq!(revs, vec![(1, 10_000, 1), (2, 5_000, 2)], "both revisions, in order");
}

#[test]
fn file_schema_violations_are_counted_per_engine() {
    let mut h = SimHarness::new(lan(44));
    h.add_container(ContainerConfig::new("a", NodeId(1)));
    h.add_container(ContainerConfig::new("b", NodeId(2)));

    // Node 1: publishes an *undeclared* resource (dropped + counted) and a
    // declared one.
    let mut rogue =
        Scripted::new(ServiceDescriptor::builder("rogue").file_resource("shared/img").build());
    rogue.on_start = Some(Box::new(|ctx| {
        ctx.publish_file("rogue/undeclared", Bytes::from_static(b"x"));
        ctx.publish_file("shared/img", Bytes::from_static(b"from-node-1"));
    }));
    h.add_service(NodeId(1), Box::new(rogue));

    // Node 2: publishes the *same* resource name — a fleet-level contract
    // violation (two writers behind one name) each side must refuse.
    let mut twin =
        Scripted::new(ServiceDescriptor::builder("twin").file_resource("shared/img").build());
    twin.on_start = Some(Box::new(|ctx| {
        ctx.publish_file("shared/img", Bytes::from_static(b"from-node-2"));
    }));
    h.add_service(NodeId(2), Box::new(twin));

    h.start_all();
    h.run_for_millis(500);

    let a = h.container(NodeId(1)).unwrap();
    assert!(
        a.stats().type_mismatches.files >= 2,
        "undeclared publish + colliding announce both counted: {:?}",
        a.stats().type_mismatches
    );
    assert!(a.log_lines().any(|(_, l)| l.contains("undeclared file resource")));
    assert!(a.log_lines().any(|(_, l)| l.contains("locally published resource")));
    let b = h.container(NodeId(2)).unwrap();
    assert_eq!(b.stats().type_mismatches.files, 1, "node 2 refused node 1's announce");
}

#[test]
fn panicking_service_is_quarantined_and_fleet_notified() {
    let mut h = SimHarness::new(lan(15));
    h.add_container(ContainerConfig::new("a", NodeId(1)));
    h.add_container(ContainerConfig::new("b", NodeId(2)));

    let mut bomb_b = ServiceDescriptor::builder("bomb");
    bomb_b.provides_fn(&FnPort::<(), ()>::new("bomb/arm"));
    let mut bomb = Scripted::new(bomb_b.build());
    bomb.on_start = Some(Box::new(|ctx| {
        ctx.set_timer(ProtoDuration::from_millis(50), None);
    }));
    bomb.on_timer = Some(Box::new(|_ctx, _| panic!("deliberate test panic")));
    h.add_service(NodeId(1), Box::new(bomb));
    h.start_all();

    // Silence the default panic hook for the expected panic.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    h.run_for_millis(300);
    std::panic::set_hook(prev_hook);

    let a = h.container(NodeId(1)).unwrap();
    assert_eq!(a.service_state("bomb"), Some(marea_core::ServiceState::Failed));
    assert_eq!(a.stats().services_failed, 1);
    // The other container no longer sees the function as available.
    let b = h.container(NodeId(2)).unwrap();
    assert!(b.directory().resolve_function("bomb/arm", CallPolicy::Dynamic, None).is_none());
}

/// A service that fails leaves this node's own directory record at once,
/// not at the end of the tick: a call made later in the same tick finds
/// no provider instead of being queued for the failed one until its
/// deadline.
#[test]
fn a_provider_failed_earlier_in_the_tick_is_not_called_locally() {
    let mut h = SimHarness::new(lan(16));
    h.add_container(ContainerConfig::new("a", NodeId(1)));
    let arm = FnPort::<(), ()>::new("bomb/arm");
    let mut bomb_b = ServiceDescriptor::builder("bomb");
    bomb_b.provides_fn(&arm);
    let mut bomb = Scripted::new(bomb_b.build());
    bomb.on_start = Some(Box::new(|ctx| {
        ctx.set_timer(ProtoDuration::from_millis(50), None);
    }));
    bomb.on_timer = Some(Box::new(|_ctx, _| panic!("deliberate test panic")));
    h.add_service(NodeId(1), Box::new(bomb));

    // Its timer falls due with the bomb's and fires after it.
    let log = obs_log();
    let mut caller = Scripted::new(ServiceDescriptor::builder("caller").build());
    caller.on_start = Some(Box::new(|ctx| {
        ctx.set_timer(ProtoDuration::from_millis(50), None);
    }));
    caller.on_timer = Some(Box::new(move |ctx, _| {
        ctx.call_fn(&arm, ());
    }));
    let reply_log = log.clone();
    caller.on_reply = Some(Box::new(move |ctx, handle, result| {
        let result = result.map_err(|e| e.to_string());
        reply_log.lock().unwrap().push((ctx.now(), Obs::Reply(handle.0 .0, result)));
    }));
    h.add_service(NodeId(1), Box::new(caller));
    h.start_all();

    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    h.run_for_millis(300);
    std::panic::set_hook(prev_hook);

    let replies = observations(&log);
    assert_eq!(replies.len(), 1, "{replies:?}");
    let (at, Obs::Reply(_, Err(_))) = &replies[0] else { panic!("{replies:?}") };
    assert!(at.as_micros() <= 52_000, "refused at {at:?}, not after a deadline");
}

#[test]
fn graceful_bye_purges_remote_caches_immediately() {
    let mut h = SimHarness::new(lan(16));
    h.add_container(ContainerConfig::new("a", NodeId(1)));
    h.add_container(ContainerConfig::new("b", NodeId(2)));
    let mut xb = ServiceDescriptor::builder("x");
    xb.provides_fn(&FnPort::<(), ()>::new("x/f"));
    h.add_service(NodeId(2), Box::new(Scripted::new(xb.build())));
    h.start_all();
    h.run_for_millis(50);
    assert!(h
        .container(NodeId(1))
        .unwrap()
        .directory()
        .resolve_function("x/f", CallPolicy::Dynamic, None)
        .is_some());
    h.stop_node(NodeId(2));
    h.run_for_millis(10);
    let a = h.container(NodeId(1)).unwrap();
    assert!(!a.directory().node_alive(NodeId(2)), "bye is immediate, no heartbeat wait");
    assert!(a.directory().resolve_function("x/f", CallPolicy::Dynamic, None).is_none());
}

#[test]
fn unicast_fanout_mode_still_delivers() {
    let mut h = SimHarness::new(lan(17));
    let mut cfg = ContainerConfig::new("pub", NodeId(1));
    cfg.var_distribution = VarDistribution::UnicastFanout;
    h.add_container(cfg);
    h.add_container(ContainerConfig::new("sub", NodeId(2)));

    let pv = VarPort::<u32>::new("p/v");
    let mut b = ServiceDescriptor::builder("p");
    b.provides_var(
        &pv,
        VarQos::periodic(ProtoDuration::from_millis(10), ProtoDuration::from_millis(100)),
    );
    let mut publisher = Scripted::new(b.build());
    publisher.on_start = Some(Box::new(|ctx| {
        ctx.set_timer(ProtoDuration::from_millis(10), Some(ProtoDuration::from_millis(10)));
    }));
    let port = pv.clone();
    publisher.on_timer = Some(Box::new(move |ctx, _| ctx.publish_to(&port, 5u32)));
    h.add_service(NodeId(1), Box::new(publisher));

    let log = obs_log();
    h.add_service(
        NodeId(2),
        Box::new(Recorder::new(
            ServiceDescriptor::builder("s").subscribe_variable("p/v", VarQos::default()).build(),
            log.clone(),
        )),
    );
    h.start_all();
    h.run_for_millis(300);
    let n = observations(&log).iter().filter(|(_, o)| matches!(o, Obs::Var(..))).count();
    assert!(n >= 20, "unicast fan-out delivers: {n}");
}

#[test]
fn identical_seeds_reproduce_identical_runs() {
    let run = |seed: u64| -> (u64, u64, u64, u64) {
        let mut h = SimHarness::new(lossy(seed, 0.05));
        h.add_container(ContainerConfig::new("pub", NodeId(1)));
        h.add_container(ContainerConfig::new("sub", NodeId(2)));
        let pv = VarPort::<u64>::new("p/v");
        let pe = EventPort::<u64>::new("p/e");
        let mut b = ServiceDescriptor::builder("p");
        b.provides_var(
            &pv,
            VarQos::periodic(ProtoDuration::from_millis(5), ProtoDuration::from_millis(50)),
        )
        .provides_event(&pe);
        let mut publisher = Scripted::new(b.build());
        publisher.on_start = Some(Box::new(|ctx| {
            ctx.set_timer(ProtoDuration::from_millis(5), Some(ProtoDuration::from_millis(5)));
        }));
        let mut k = 0u64;
        let (vp, ep) = (pv.clone(), pe.clone());
        publisher.on_timer = Some(Box::new(move |ctx, _| {
            k += 1;
            ctx.publish_to(&vp, k);
            if k.is_multiple_of(7) {
                ctx.emit_to(&ep, k);
            }
        }));
        h.add_service(NodeId(1), Box::new(publisher));
        let log = obs_log();
        h.add_service(
            NodeId(2),
            Box::new(Recorder::new(
                ServiceDescriptor::builder("s")
                    .subscribe_variable("p/v", VarQos::default())
                    .subscribe_event("p/e", EventQos::default())
                    .build(),
                log.clone(),
            )),
        );
        h.start_all();
        h.run_for_millis(500);
        let stats = h.container(NodeId(2)).unwrap().stats();
        let net = h.network().stats();
        (
            stats.var_samples_delivered,
            stats.events_delivered,
            net.datagrams_delivered,
            net.bytes_delivered,
        )
    };
    let a = run(99);
    let b = run(99);
    let c = run(100);
    assert_eq!(a, b, "same seed, same run");
    assert_ne!(a, c, "different seed, different packet trace");
}

#[test]
fn priority_scheduler_runs_events_before_variable_backlog() {
    // Queue 200 variable deliveries and 1 event in the same tick; with the
    // priority scheduler the event handler runs first even though it was
    // enqueued last. The FIFO ablation runs it last.
    let order_with = |kind: SchedulerKind| -> usize {
        let mut h = SimHarness::new(lan(18));
        let mut cfg = ContainerConfig::new("solo", NodeId(1));
        cfg.scheduler = kind;
        cfg.tick_budget = 512;
        h.add_container(cfg);

        let bv = VarPort::<u32>::new("b/v");
        let be = EventPort::<()>::new("b/e");
        let mut b = ServiceDescriptor::builder("blaster");
        b.provides_var(&bv, VarQos::aperiodic(ProtoDuration::from_secs(1))).provides_event(&be);
        let mut blaster = Scripted::new(b.build());
        blaster.on_start = Some(Box::new(|ctx| {
            ctx.set_timer(ProtoDuration::from_millis(10), None);
        }));
        let (vp, ep) = (bv.clone(), be.clone());
        blaster.on_timer = Some(Box::new(move |ctx, _| {
            for i in 0..200u32 {
                ctx.publish_to(&vp, i);
            }
            ctx.emit_to(&ep, ());
        }));
        h.add_service(NodeId(1), Box::new(blaster));

        let log = obs_log();
        h.add_service(
            NodeId(1),
            Box::new(Recorder::new(
                ServiceDescriptor::builder("listener")
                    .subscribe_variable("b/v", VarQos::default())
                    .subscribe_event("b/e", EventQos::default())
                    .build(),
                log.clone(),
            )),
        );
        h.start_all();
        h.run_for_millis(100);
        let obs = observations(&log);
        obs.iter().position(|(_, o)| matches!(o, Obs::Event(..))).expect("event delivered")
    };
    let pos_priority = order_with(SchedulerKind::Priority);
    let pos_fifo = order_with(SchedulerKind::Fifo);
    assert!(
        pos_priority < 5,
        "priority scheduler delivers the event almost immediately (pos {pos_priority})"
    );
    assert!(
        pos_fifo > 100,
        "fifo scheduler buries the event behind the variable backlog (pos {pos_fifo})"
    );
}

#[test]
fn required_function_availability_notices() {
    let mut h = SimHarness::new(lan(19));
    h.add_container(ContainerConfig::new("a", NodeId(1)));
    h.add_container(ContainerConfig::new("b", NodeId(2)));

    let log = obs_log();
    h.add_service(
        NodeId(1),
        Box::new(Recorder::new(
            ServiceDescriptor::builder("needy").requires_function("late/fn").build(),
            log.clone(),
        )),
    );
    h.start_all();
    h.run_for_millis(100);
    // Initially unavailable.
    assert!(observations(&log)
        .iter()
        .any(|(_, o)| matches!(o, Obs::Provider(p) if p.contains("FunctionUnavailable"))));

    // Provider appears later.
    let mut late_b = ServiceDescriptor::builder("late");
    late_b.provides_fn(&FnPort::<(), ()>::new("late/fn"));
    h.container_mut(NodeId(2))
        .unwrap()
        .add_service(Box::new(Scripted::new(late_b.build())))
        .unwrap();
    h.run_for_millis(200);
    assert!(observations(&log)
        .iter()
        .any(|(_, o)| matches!(o, Obs::Provider(p) if p.contains("FunctionAvailable"))));
}

// ---------------------------------------------------------------------------
// Typed service ports
// ---------------------------------------------------------------------------

mod typed {
    use super::*;
    use marea_core::{
        CallError, CallHandle, EventPort, FnPort, Service, ServiceContext, TimerId,
        TypedCallHandle, VarPort,
    };
    use marea_presentation::Name;
    use std::sync::{Arc, Mutex};

    /// A fully typed producer: variable, event and function all declared
    /// through ports returned by the builder.
    struct TypedBeacon {
        n: u64,
        count: VarPort<u64>,
        decade: EventPort<u32>,
        double: FnPort<(u32,), u32>,
    }

    impl TypedBeacon {
        fn new() -> Self {
            TypedBeacon {
                n: 0,
                count: VarPort::new("typed/count"),
                decade: EventPort::new("typed/decade"),
                double: FnPort::new("typed/double"),
            }
        }
    }

    impl Service for TypedBeacon {
        fn descriptor(&self) -> ServiceDescriptor {
            let mut b = ServiceDescriptor::builder("typed-beacon");
            b.provides_var(
                &self.count,
                VarQos::periodic(ProtoDuration::from_millis(10), ProtoDuration::from_millis(100)),
            )
            .provides_event(&self.decade)
            .provides_fn(&self.double);
            b.build()
        }
        fn on_start(&mut self, ctx: &mut ServiceContext<'_>) {
            ctx.set_timer(ProtoDuration::from_millis(10), Some(ProtoDuration::from_millis(10)));
        }
        fn on_timer(&mut self, ctx: &mut ServiceContext<'_>, _id: TimerId) {
            self.n += 1;
            ctx.publish_to(&self.count, self.n);
            if self.n.is_multiple_of(10) {
                ctx.emit_to(&self.decade, self.n as u32);
            }
        }
        fn on_call(
            &mut self,
            _ctx: &mut ServiceContext<'_>,
            function: &Name,
            args: &[Value],
        ) -> Result<Value, String> {
            if !self.double.matches(function) {
                return Err("unknown function".into());
            }
            let (x,) = self.double.decode_args(args).map_err(|e| e.to_string())?;
            Ok(self.double.encode_ret(x * 2))
        }
    }

    #[derive(Default)]
    struct Seen {
        counts: Vec<u64>,
        decades: Vec<u32>,
        doubled: Option<Result<u32, String>>,
    }

    /// A fully typed consumer: subscribes and decodes through the same
    /// port constructors, calls through a typed handle.
    struct TypedObserver {
        seen: Arc<Mutex<Seen>>,
        count: VarPort<u64>,
        decade: EventPort<u32>,
        double: FnPort<(u32,), u32>,
        pending: Option<TypedCallHandle<u32>>,
        called: bool,
    }

    impl TypedObserver {
        fn new(seen: Arc<Mutex<Seen>>) -> Self {
            TypedObserver {
                seen,
                count: VarPort::new("typed/count"),
                decade: EventPort::new("typed/decade"),
                double: FnPort::new("typed/double"),
                pending: None,
                called: false,
            }
        }
    }

    impl Service for TypedObserver {
        fn descriptor(&self) -> ServiceDescriptor {
            let mut b = ServiceDescriptor::builder("typed-observer");
            b.subscribe_to_var(&self.count, VarQos::default().with_initial().with_history(8))
                .subscribe_to_event(&self.decade, EventQos::default())
                .requires_fn(&self.double);
            b.build()
        }
        fn on_provider_change(
            &mut self,
            ctx: &mut ServiceContext<'_>,
            notice: &marea_core::ProviderNotice,
        ) {
            if let marea_core::ProviderNotice::FunctionAvailable(name) = notice {
                if self.double.matches(name) && !self.called {
                    self.called = true;
                    self.pending = Some(ctx.call_fn(&self.double, (21,)));
                }
            }
        }
        fn on_variable(
            &mut self,
            _ctx: &mut ServiceContext<'_>,
            name: &Name,
            value: &Value,
            _stamp: Micros,
        ) {
            if self.count.matches(name) {
                if let Ok(n) = self.count.decode(value) {
                    self.seen.lock().unwrap().counts.push(n);
                }
            }
        }
        fn on_event(
            &mut self,
            _ctx: &mut ServiceContext<'_>,
            name: &Name,
            value: Option<&Value>,
            _stamp: Micros,
        ) {
            if self.decade.matches(name) {
                if let Ok(d) = self.decade.decode(value) {
                    self.seen.lock().unwrap().decades.push(d);
                }
            }
        }
        fn on_reply(
            &mut self,
            _ctx: &mut ServiceContext<'_>,
            handle: CallHandle,
            result: Result<Value, CallError>,
        ) {
            if let Some(pending) = self.pending {
                if pending.matches(handle) {
                    self.seen.lock().unwrap().doubled =
                        Some(pending.decode(result).map_err(|e| e.to_string()));
                }
            }
        }
    }

    #[test]
    fn typed_ports_flow_end_to_end() {
        let mut h = SimHarness::new(lan(41));
        h.add_container(ContainerConfig::new("pub", NodeId(1)));
        h.add_container(ContainerConfig::new("sub", NodeId(2)));
        h.add_service(NodeId(1), Box::new(TypedBeacon::new()));
        let seen = Arc::new(Mutex::new(Seen::default()));
        h.add_service(NodeId(2), Box::new(TypedObserver::new(seen.clone())));
        h.start_all();
        h.run_for_millis(400);

        let seen = seen.lock().unwrap();
        assert!(seen.counts.len() >= 20, "typed samples flow: {}", seen.counts.len());
        assert!(seen.counts.windows(2).all(|w| w[0] < w[1]));
        assert!(!seen.decades.is_empty(), "typed events flow");
        assert_eq!(seen.doubled, Some(Ok(42)), "typed call round-trips");
        // The declared history contract keeps the ring at its depth.
        let hist = h.container(NodeId(2)).unwrap().var_qos_stats("typed/count").unwrap();
        assert_eq!(hist.history_len, 8, "ring filled to the declared depth");

        // No contract can be violated through typed ports.
        for node in [NodeId(1), NodeId(2)] {
            let s = h.container(node).unwrap().stats();
            assert_eq!(s.type_mismatches.total(), 0, "{node:?}: {s:?}");
        }
    }

    #[test]
    fn compat_publish_type_mismatch_is_counted() {
        let mut h = SimHarness::new(lan(42));
        h.add_container(ContainerConfig::new("pub", NodeId(1)));
        h.add_container(ContainerConfig::new("sub", NodeId(2)));

        // The descriptor declares `bad/value` as U64; the service then
        // publishes through a port of the same name typed F64.
        let mut b = ServiceDescriptor::builder("badpub");
        b.provides_var(
            &VarPort::<u64>::new("bad/value"),
            VarQos::periodic(ProtoDuration::from_millis(10), ProtoDuration::from_millis(100)),
        );
        let mut publisher = Scripted::new(b.build());
        publisher.on_start = Some(Box::new(|ctx| {
            ctx.set_timer(ProtoDuration::from_millis(10), Some(ProtoDuration::from_millis(10)));
        }));
        let mistyped = VarPort::<f64>::new("bad/value");
        publisher.on_timer = Some(Box::new(move |ctx, _| ctx.publish_to(&mistyped, 1.5)));
        h.add_service(NodeId(1), Box::new(publisher));

        let log = obs_log();
        h.add_service(
            NodeId(2),
            Box::new(Recorder::new(
                ServiceDescriptor::builder("watcher")
                    .subscribe_variable("bad/value", VarQos::default())
                    .build(),
                log.clone(),
            )),
        );
        h.start_all();
        h.run_for_millis(200);

        let stats = h.container(NodeId(1)).unwrap().stats();
        assert!(stats.type_mismatches.vars >= 5, "publish-side mismatches counted: {stats:?}");
        assert_eq!(stats.vars_published, 0, "violating samples never hit the wire");
        assert!(
            !observations(&log).iter().any(|(_, o)| matches!(o, Obs::Var(..))),
            "nothing deliverable reached the subscriber"
        );
        assert!(
            h.container(NodeId(1)).unwrap().log_lines().any(|(_, l)| l.contains("violates schema")),
            "violation is logged"
        );
    }

    #[test]
    fn compat_event_and_call_mismatches_are_counted() {
        let mut h = SimHarness::new(lan(43));
        h.add_container(ContainerConfig::new("a", NodeId(1)));
        h.add_container(ContainerConfig::new("b", NodeId(2)));

        // Provider: event channel declared U32, function (U32) -> U32.
        let mut b = ServiceDescriptor::builder("provider");
        b.provides_event(&EventPort::<u32>::new("p/ev"));
        b.provides_fn(&FnPort::<(u32,), u32>::new("p/fn"));
        h.add_service(NodeId(2), Box::new(Scripted::new(b.build())));

        // Abuser: emits a Str on its own U32 channel, a U32 on its own bare
        // channel and calls with a Bool argument — all through ports of
        // the declared names but the wrong types — and publishes an
        // undeclared file resource.
        let mut b = ServiceDescriptor::builder("abuser");
        b.provides_event(&EventPort::<u32>::new("a/ev"));
        b.provides_event(&EventPort::<()>::new("a/bare"));
        b.requires_function("p/fn");
        let mut abuser = Scripted::new(b.build());
        abuser.on_start = Some(Box::new(|ctx| {
            ctx.set_timer(ProtoDuration::from_millis(50), None);
        }));
        let mistyped_ev = EventPort::<String>::new("a/ev");
        let mistyped_fn = FnPort::<(bool,), u32>::new("p/fn");
        let mistyped_bare = EventPort::<u32>::new("a/bare");
        abuser.on_timer = Some(Box::new(move |ctx, _| {
            ctx.emit_to(&mistyped_ev, "wrong".to_string());
            ctx.emit_to(&mistyped_bare, 7);
            ctx.call_fn(&mistyped_fn, (true,));
            ctx.publish_file("a/undeclared", Bytes::from_static(b"x"));
        }));
        let log = obs_log();
        let recorder_log = log.clone();
        abuser.on_reply = Some(Box::new(move |_, _, result| {
            recorder_log
                .lock()
                .unwrap()
                .push((Micros(0), Obs::Reply(0, result.map_err(|e| e.to_string()))));
        }));
        h.add_service(NodeId(1), Box::new(abuser));
        // One subscriber of the bare channel beside the abuser, one remote.
        let bare_logs = [NodeId(1), NodeId(2)].map(|node| {
            let mut b = ServiceDescriptor::builder("bare-watcher");
            b.subscribe_event("a/bare", EventQos::default());
            let log = obs_log();
            h.add_service(node, Box::new(Recorder::new(b.build(), log.clone())));
            log
        });

        h.start_all();
        h.run_for_millis(300);

        let stats = h.container(NodeId(1)).unwrap().stats();
        assert!(stats.type_mismatches.events >= 2, "event payload mismatches counted: {stats:?}");
        // The payload a bare channel cannot carry is dropped for everyone:
        // the same-node subscriber sees what the remote one sees.
        for log in &bare_logs {
            let bare: Vec<_> = observations(log)
                .into_iter()
                .filter_map(|(_, o)| match o {
                    Obs::Event(name, value) => Some((name, value)),
                    _ => None,
                })
                .collect();
            assert_eq!(bare, vec![("a/bare".to_string(), None)]);
        }
        assert!(stats.type_mismatches.calls >= 1, "argument mismatch counted: {stats:?}");
        assert!(stats.type_mismatches.files >= 1, "undeclared file counted: {stats:?}");
        // The caller observed the failure as a structured error.
        let replies: Vec<_> = observations(&log)
            .into_iter()
            .filter_map(|(_, o)| match o {
                Obs::Reply(_, r) => Some(r),
                _ => None,
            })
            .collect();
        assert!(
            replies.iter().any(|r| matches!(r, Err(e) if e.contains("bad arguments"))),
            "{replies:?}"
        );
    }
}

/// `RealtimeDriver` is the wall-clock counterpart of `SimHarness`: it
/// starts the container, ticks it on its own `SystemClock` and stops it.
#[test]
fn realtime_driver_ticks_a_container_against_the_wall_clock() {
    use marea_core::{RealtimeDriver, ServiceContainer};
    use marea_transport::InProcHub;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    let hub = InProcHub::new();
    let config = ContainerConfig::new("rt", NodeId(1));
    let mut container = ServiceContainer::new(config, Box::new(hub.attach(1)));
    let fired = Arc::new(AtomicU32::new(0));
    let mut service = Scripted::new(ServiceDescriptor::builder("clockwork").build());
    service.on_start = Some(Box::new(|ctx| {
        ctx.set_timer(ProtoDuration::from_millis(1), Some(ProtoDuration::from_millis(1)));
    }));
    let count = Arc::clone(&fired);
    service.on_timer = Some(Box::new(move |_, _| {
        count.fetch_add(1, Ordering::Relaxed);
    }));
    container.add_service(Box::new(service)).unwrap();

    let mut driver = RealtimeDriver::new(container, Duration::from_millis(1));
    driver.start();
    assert!(driver.container().is_running());
    driver.run_for(Duration::from_millis(30));
    driver.stop();

    let stats = driver.container().stats();
    assert!(stats.ticks >= 2, "the loop ticked: {stats:?}");
    assert!(fired.load(Ordering::Relaxed) >= 1, "the 1 ms timer ran in 30 ms of wall time");
    assert!(stats.tasks_executed >= 2, "on_start and the timer went through the scheduler");
    assert!(!driver.container().is_running());
}
