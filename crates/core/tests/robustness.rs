//! Robustness and fault-injection tests: fragmentation paths, network
//! partitions with healing, and sustained lossy operation.

mod common;

use bytes::Bytes;
use common::{obs_log, observations, Obs, Recorder, Scripted};
use marea_core::{
    ContainerConfig, EventPort, EventQos, FnPort, NodeId, ProtoDuration, ServiceDescriptor,
    SimHarness, VarPort, VarQos,
};
use marea_netsim::{LinkConfig, NetConfig};
use marea_presentation::Value;

fn lan(seed: u64) -> NetConfig {
    NetConfig::default().with_seed(seed)
}

#[test]
fn events_larger_than_the_mtu_are_fragmented_and_delivered() {
    // 8 KiB payload over a 1500-byte MTU: the tagged EventData rides a
    // RelData envelope that must be fragmented and reassembled.
    let mut h = SimHarness::new(lan(21));
    h.add_container(ContainerConfig::new("pub", NodeId(1)));
    h.add_container(ContainerConfig::new("sub", NodeId(2)));

    let blob = EventPort::<Vec<u8>>::new("big/blob");
    let mut b = ServiceDescriptor::builder("big");
    b.provides_event(&blob);
    let mut publisher = Scripted::new(b.build());
    publisher.on_start = Some(Box::new(|ctx| {
        ctx.set_timer(ProtoDuration::from_millis(50), None);
    }));
    let port = blob.clone();
    publisher.on_timer = Some(Box::new(move |ctx, _| {
        let payload: Vec<u8> = (0..8192u32).map(|i| (i % 251) as u8).collect();
        ctx.emit_to(&port, payload);
    }));
    h.add_service(NodeId(1), Box::new(publisher));

    let log = obs_log();
    h.add_service(
        NodeId(2),
        Box::new(Recorder::new(
            ServiceDescriptor::builder("sink")
                .subscribe_event("big/blob", EventQos::default())
                .build(),
            log.clone(),
        )),
    );
    h.start_all();
    h.run_for_millis(500);

    let events: Vec<Value> = observations(&log)
        .into_iter()
        .filter_map(|(_, o)| match o {
            Obs::Event(_, Some(v)) => Some(v),
            _ => None,
        })
        .collect();
    assert_eq!(events.len(), 1);
    let bytes = events[0].as_bytes().unwrap();
    assert_eq!(bytes.len(), 8192);
    assert!(bytes.iter().enumerate().all(|(i, &b)| b == (i % 251) as u8), "bit-exact");
}

#[test]
fn oversized_events_survive_loss() {
    // Fragmented reliable payloads under 5% loss: the ARQ covers every
    // fragment of the envelope.
    let mut h = SimHarness::new(
        NetConfig::default().with_seed(22).with_default_link(LinkConfig::default().with_loss(0.05)),
    );
    h.add_container(ContainerConfig::new("pub", NodeId(1)));
    h.add_container(ContainerConfig::new("sub", NodeId(2)));

    let blob = EventPort::<Vec<u8>>::new("big/blob");
    let mut b = ServiceDescriptor::builder("big");
    b.provides_event(&blob);
    let mut publisher = Scripted::new(b.build());
    publisher.on_start = Some(Box::new(|ctx| {
        ctx.set_timer(ProtoDuration::from_millis(100), Some(ProtoDuration::from_millis(100)));
    }));
    let mut sent = 0u32;
    let port = blob.clone();
    publisher.on_timer = Some(Box::new(move |ctx, _| {
        if sent < 10 {
            sent += 1;
            ctx.emit_to(&port, vec![sent as u8; 4000]);
        }
    }));
    h.add_service(NodeId(1), Box::new(publisher));

    let log = obs_log();
    h.add_service(
        NodeId(2),
        Box::new(Recorder::new(
            ServiceDescriptor::builder("sink")
                .subscribe_event("big/blob", EventQos::default())
                .build(),
            log.clone(),
        )),
    );
    h.start_all();
    h.run_for_millis(5_000);

    let sizes: Vec<u8> = observations(&log)
        .into_iter()
        .filter_map(|(_, o)| match o {
            Obs::Event(_, Some(v)) => v.as_bytes().map(|b| b[0]),
            _ => None,
        })
        .collect();
    assert_eq!(sizes, (1..=10u8).collect::<Vec<_>>(), "all 10 big events, in order");
}

#[test]
fn partition_heals_and_traffic_resumes() {
    let mut h = SimHarness::new(lan(23));
    h.add_container(ContainerConfig::new("pub", NodeId(1)));
    h.add_container(ContainerConfig::new("sub", NodeId(2)));

    let pv = VarPort::<u64>::new("p/v");
    let mut b = ServiceDescriptor::builder("p");
    b.provides_var(
        &pv,
        VarQos::periodic(ProtoDuration::from_millis(20), ProtoDuration::from_millis(100)),
    );
    let mut publisher = Scripted::new(b.build());
    publisher.on_start = Some(Box::new(|ctx| {
        ctx.set_timer(ProtoDuration::from_millis(20), Some(ProtoDuration::from_millis(20)));
    }));
    let mut k = 0u64;
    let port = pv.clone();
    publisher.on_timer = Some(Box::new(move |ctx, _| {
        k += 1;
        ctx.publish_to(&port, k);
    }));
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
    h.run_for_millis(1_000);
    let before = observations(&log).iter().filter(|(_, o)| matches!(o, Obs::Var(..))).count();
    assert!(before > 30, "flowing before partition: {before}");

    // Partition: both sides eventually declare the other dead.
    h.network().set_partition(1, 2, true);
    h.run_for_millis(4_000);
    assert!(!h.container(NodeId(1)).unwrap().directory().node_alive(NodeId(2)));
    assert!(!h.container(NodeId(2)).unwrap().directory().node_alive(NodeId(1)));
    let timeouts =
        observations(&log).iter().filter(|(_, o)| matches!(o, Obs::VarTimeout(_))).count();
    assert_eq!(timeouts, 1, "subscriber warned exactly once about the silent variable");

    // Heal: rediscovery through beacons (unicast introductions), then the
    // subscription re-wires itself and samples flow again.
    h.network().set_partition(1, 2, false);
    h.run_for_millis(5_000);
    assert!(h.container(NodeId(1)).unwrap().directory().node_alive(NodeId(2)));
    assert!(h.container(NodeId(2)).unwrap().directory().node_alive(NodeId(1)));
    let after = observations(&log).iter().filter(|(_, o)| matches!(o, Obs::Var(..))).count();
    assert!(after > before + 50, "samples resumed after healing: before={before}, after={after}");
    // The subscriber saw the provider disappear and come back.
    let notices: Vec<String> = observations(&log)
        .into_iter()
        .filter_map(|(_, o)| match o {
            Obs::Provider(p) => Some(p),
            _ => None,
        })
        .collect();
    assert!(notices.iter().filter(|p| p.contains("VariableAvailable")).count() >= 2, "{notices:?}");
    assert!(notices.iter().any(|p| p.contains("VariableUnavailable")), "{notices:?}");
}

/// Node 2 loses its provider in a partition while node 3 keeps it: the
/// subscription unbinds but node 2 stays in the variable's multicast
/// group, so the healthy publisher's samples that reach it before it
/// re-binds have no schema to be read with. They are dropped, not counted
/// or logged as schema violations.
#[test]
fn samples_reaching_an_unbound_subscription_are_not_schema_violations() {
    let mut h = SimHarness::new(lan(24));
    for (name, node) in [("pub", 1), ("sub2", 2), ("sub3", 3)] {
        h.add_container(ContainerConfig::new(name, NodeId(node)));
    }
    let pv = VarPort::<u64>::new("p/v");
    let mut b = ServiceDescriptor::builder("p");
    b.provides_var(
        &pv,
        VarQos::periodic(ProtoDuration::from_millis(20), ProtoDuration::from_millis(100)),
    );
    let mut publisher = Scripted::new(b.build());
    publisher.on_start = Some(Box::new(|ctx| {
        ctx.set_timer(ProtoDuration::from_millis(20), Some(ProtoDuration::from_millis(20)));
    }));
    let mut k = 0u64;
    publisher.on_timer = Some(Box::new(move |ctx, _| {
        k += 1;
        ctx.publish_to(&pv, k);
    }));
    h.add_service(NodeId(1), Box::new(publisher));
    let logs = [obs_log(), obs_log()];
    for (node, log) in [(2, &logs[0]), (3, &logs[1])] {
        let descriptor =
            ServiceDescriptor::builder("s").subscribe_variable("p/v", VarQos::default()).build();
        h.add_service(NodeId(node), Box::new(Recorder::new(descriptor, log.clone())));
    }
    h.start_all();
    h.run_for_millis(1_000);
    h.network().set_partition(1, 2, true);
    h.run_for_millis(4_000);
    h.network().set_partition(1, 2, false);
    h.run_for_millis(5_000);

    for (node, log) in [(2, &logs[0]), (3, &logs[1])] {
        let c = h.container(NodeId(node)).unwrap();
        assert_eq!(c.stats().type_mismatches.vars, 0, "node {node}");
        let violations = c.log_lines().filter(|(_, l)| l.contains("violates")).count();
        assert_eq!(violations, 0, "node {node}: {:?}", c.log_lines().collect::<Vec<_>>());
        let samples: Vec<u64> = observations(log)
            .into_iter()
            .filter_map(|(_, o)| match o {
                Obs::Var(_, v) => v.as_u64(),
                _ => None,
            })
            .collect();
        assert!(samples.windows(2).all(|w| w[0] < w[1]), "node {node}: in order, no repeats");
        assert!(samples.last() > Some(&450), "node {node} follows the publisher after the heal");
    }
}

#[test]
fn sustained_10_percent_loss_mission_keeps_its_guarantees() {
    // A longer soak: variables keep flowing (some lost, fine), every event
    // arrives exactly once in order, every call gets an answer.
    let mut h = SimHarness::new(
        NetConfig::default().with_seed(24).with_default_link(LinkConfig::default().with_loss(0.10)),
    );
    h.add_container(ContainerConfig::new("a", NodeId(1)));
    h.add_container(ContainerConfig::new("b", NodeId(2)));

    let wv = VarPort::<u64>::new("w/v");
    let we = EventPort::<u64>::new("w/e");
    let wping = FnPort::<(u64,), u64>::new("w/ping");
    let mut b = ServiceDescriptor::builder("worker");
    b.provides_var(
        &wv,
        VarQos::periodic(ProtoDuration::from_millis(10), ProtoDuration::from_millis(50)),
    )
    .provides_event(&we)
    .provides_fn(&wping);
    let mut worker = Scripted::new(b.build());
    worker.on_start = Some(Box::new(|ctx| {
        ctx.set_timer(ProtoDuration::from_millis(10), Some(ProtoDuration::from_millis(10)));
    }));
    let mut k = 0u64;
    let (vp, ep) = (wv.clone(), we.clone());
    worker.on_timer = Some(Box::new(move |ctx, _| {
        k += 1;
        ctx.publish_to(&vp, k);
        if k.is_multiple_of(10) {
            ctx.emit_to(&ep, k / 10);
        }
    }));
    worker.on_call = Some(Box::new(|_ctx, _f, args| Ok(Value::U64(args[0].as_u64().unwrap() + 1))));
    h.add_service(NodeId(1), Box::new(worker));

    let log = obs_log();
    let mut client = Scripted::new(
        ServiceDescriptor::builder("client")
            .subscribe_variable("w/v", VarQos::default())
            .subscribe_event("w/e", EventQos::default())
            .requires_function("w/ping")
            .build(),
    );
    // Proper client pattern (like MissionControl): wait for the required
    // function to be resolvable before calling.
    let mut armed = false;
    client.on_provider_change = Some(Box::new(move |ctx, notice| {
        if matches!(notice, marea_core::ProviderNotice::FunctionAvailable(_)) && !armed {
            armed = true;
            ctx.set_timer(ProtoDuration::from_millis(100), Some(ProtoDuration::from_millis(100)));
        }
    }));
    let mut c = 0u64;
    let cport = wping.clone();
    client.on_timer = Some(Box::new(move |ctx, _| {
        c += 1;
        ctx.call_fn(&cport, (c,));
    }));
    let vlog = log.clone();
    client.on_variable = Some(Box::new(move |ctx, name, value| {
        vlog.lock().unwrap().push((ctx.now(), Obs::Var(name.to_string(), value.clone())));
    }));
    let elog = log.clone();
    client.on_event = Some(Box::new(move |ctx, name, value| {
        elog.lock().unwrap().push((ctx.now(), Obs::Event(name.to_string(), value.cloned())));
    }));
    let rlog = log.clone();
    client.on_reply = Some(Box::new(move |ctx, handle, result| {
        rlog.lock()
            .unwrap()
            .push((ctx.now(), Obs::Reply(handle.0 .0, result.map_err(|e| e.to_string()))));
    }));
    h.add_service(NodeId(2), Box::new(client));
    h.start_all();
    h.run_for_millis(10_000);

    let obs = observations(&log);
    let vars = obs.iter().filter(|(_, o)| matches!(o, Obs::Var(..))).count();
    let events: Vec<u64> = obs
        .iter()
        .filter_map(|(_, o)| match o {
            Obs::Event(_, Some(v)) => v.as_u64(),
            _ => None,
        })
        .collect();
    let replies = obs.iter().filter(|(_, o)| matches!(o, Obs::Reply(_, Ok(_)))).count();
    let errors = obs.iter().filter(|(_, o)| matches!(o, Obs::Reply(_, Err(_)))).count();

    assert!(vars > 700, "best-effort stream flows despite 10% loss: {vars}");
    // Events: exactly once, in order, no gaps up to the last one seen.
    assert!(events.len() >= 90, "{}", events.len());
    assert!(events.windows(2).all(|w| w[1] == w[0] + 1), "gap-free: {events:?}");
    assert!(replies >= 85, "calls answered: {replies} ok, {errors} errors");
    assert_eq!(errors, 0, "no call gave up at this loss rate");
}

#[test]
fn node_crash_mid_file_transfer_leaves_receiver_consistent() {
    let mut h = SimHarness::new(lan(25));
    // Slow the link so the transfer takes a while.
    h.network().set_default_link(
        LinkConfig::default().with_bandwidth_bps(Some(2_000_000)), // 2 Mbit/s
    );
    h.add_container(ContainerConfig::new("pub", NodeId(1)));
    h.add_container(ContainerConfig::new("sub", NodeId(2)));

    let mut publisher =
        Scripted::new(ServiceDescriptor::builder("fp").file_resource("fp/blob").build());
    publisher.on_start = Some(Box::new(|ctx| {
        ctx.publish_file("fp/blob", Bytes::from(vec![9u8; 2_000_000])); // ~8s at 2Mbit/s
    }));
    h.add_service(NodeId(1), Box::new(publisher));

    let log = obs_log();
    h.add_service(
        NodeId(2),
        Box::new(Recorder::new(
            ServiceDescriptor::builder("sink").subscribe_file("fp/blob").build(),
            log.clone(),
        )),
    );
    h.start_all();
    // The publisher bursts 32 chunks a tick into the slow link's queue and
    // is through the file in 65 ms: at 30 ms about half of it is out.
    h.run_for_millis(30);
    h.crash_node(NodeId(1));
    // What it had put on the wire before it died — some 4 s of chunks —
    // still arrives, and every frame of it is proof of (past) life: the
    // failure detector counts its timeout from the last one.
    h.run_for_millis(8_000);

    // No completed file must ever surface from a dead transfer.
    let received =
        observations(&log).iter().filter(|(_, o)| matches!(o, Obs::FileData(..))).count();
    assert_eq!(received, 0, "partial transfer never surfaces as data");
    let sub = h.container(NodeId(2)).unwrap();
    assert!(!sub.directory().node_alive(NodeId(1)), "publisher declared dead");
    assert_eq!(sub.stats().files_received, 0);
}

#[test]
fn crashed_node_is_deregistered_from_the_netsim() {
    // Regression guard: `crash_node` must remove the netsim endpoint —
    // a crashed box that keeps receiving (and buffering) datagrams would
    // silently absorb multicast traffic and distort every stats-based
    // experiment.
    let mut h = SimHarness::new(lan(27));
    h.add_container(ContainerConfig::new("a", NodeId(1)));
    h.add_container(ContainerConfig::new("b", NodeId(2)));

    let pv = VarPort::<u64>::new("c/v");
    let mut b = ServiceDescriptor::builder("c");
    b.provides_var(
        &pv,
        VarQos::periodic(ProtoDuration::from_millis(10), ProtoDuration::from_millis(100)),
    );
    let mut publisher = Scripted::new(b.build());
    publisher.on_start = Some(Box::new(|ctx| {
        ctx.set_timer(ProtoDuration::from_millis(10), Some(ProtoDuration::from_millis(10)));
    }));
    let port = pv.clone();
    publisher.on_timer = Some(Box::new(move |ctx, _| ctx.publish_to(&port, 1)));
    h.add_service(NodeId(1), Box::new(publisher));
    h.add_service(
        NodeId(2),
        Box::new(Recorder::new(
            ServiceDescriptor::builder("s").subscribe_variable("c/v", VarQos::default()).build(),
            obs_log(),
        )),
    );
    h.start_all();
    h.run_for_millis(500);
    assert!(h.network().has_node(2));
    let before = h.network().stats().node(2).delivered;
    assert!(before > 0, "traffic flowed to node 2 first");

    h.crash_node(NodeId(2));
    assert!(!h.network().has_node(2), "crash must deregister the netsim node");
    h.run_for_millis(1_000);
    let after = h.network().stats().node(2).delivered;
    assert_eq!(after, before, "a crashed node receives nothing more");
}

/// A node whose recorder is off (`trace_capacity` 0) has no black box:
/// its crash stashes nothing and its restart adopts nothing, while a
/// traced node beside it keeps its tail across the same crash.
#[test]
fn a_node_without_a_recorder_leaves_no_black_box_across_a_restart() {
    use marea_core::TraceKind;

    let mut h = SimHarness::new(lan(28));
    let mut quiet = ContainerConfig::new("quiet", NodeId(1));
    quiet.trace_capacity = 0;
    h.add_container(quiet);
    h.add_container(ContainerConfig::new("traced", NodeId(2)));
    for node in [NodeId(1), NodeId(2)] {
        let blank = ServiceDescriptor::builder("s").build();
        h.add_service_factory(node, move || Box::new(Scripted::new(blank.clone())) as _);
    }
    h.start_all();
    h.run_for_millis(100);
    for node in [NodeId(1), NodeId(2)] {
        h.crash_node(node);
    }
    assert!(h.trace_ring(NodeId(1)).is_none(), "a black box stashed for a node with no recorder");
    let crashed =
        |ring: &marea_core::TraceRing| ring.events().any(|e| e.kind == TraceKind::NodeCrash);
    assert!(h.trace_ring(NodeId(2)).is_some_and(crashed));

    h.run_for_millis(100);
    for node in [NodeId(1), NodeId(2)] {
        assert!(h.restart_node(node));
    }
    h.run_for_millis(100);
    let quiet = h.trace_ring(NodeId(1)).unwrap();
    assert!(quiet.is_empty() && quiet.evicted() == 0, "{quiet:?}");
    let traced: Vec<TraceKind> =
        h.trace_ring(NodeId(2)).unwrap().events().map(|e| e.kind).collect();
    assert!(traced.contains(&TraceKind::NodeCrash) && traced.contains(&TraceKind::NodeRestart));
    assert_eq!(h.container(NodeId(1)).unwrap().incarnation(), 2, "the node itself did restart");
}

#[test]
fn publisher_restart_resumes_fresh_samples_within_rto() {
    // Crash a publisher, restart it from its factory blueprint, and
    // assert the subscriber resumes *fresh* (non-stale) values and the
    // directory re-converges within the recovery-time objective.
    let mut h = SimHarness::new(lan(28));
    h.add_container(ContainerConfig::new("pub", NodeId(1)));
    h.add_container(ContainerConfig::new("sub", NodeId(2)));

    let pv = VarPort::<u64>::new("r/v");
    let make_publisher = {
        let pv = pv.clone();
        move || {
            let mut b = ServiceDescriptor::builder("r");
            b.provides_var(
                &pv,
                VarQos::periodic(ProtoDuration::from_millis(20), ProtoDuration::from_millis(100)),
            );
            let mut publisher = Scripted::new(b.build());
            publisher.on_start = Some(Box::new(|ctx| {
                ctx.set_timer(ProtoDuration::from_millis(20), Some(ProtoDuration::from_millis(20)));
            }));
            let mut k = 0u64;
            let port = pv.clone();
            publisher.on_timer = Some(Box::new(move |ctx, _| {
                k += 1;
                ctx.publish_to(&port, k);
            }));
            Box::new(publisher) as Box<dyn marea_core::Service>
        }
    };
    h.add_service_factory(NodeId(1), make_publisher);

    let log = obs_log();
    h.add_service(
        NodeId(2),
        Box::new(Recorder::new(
            ServiceDescriptor::builder("s").subscribe_variable("r/v", VarQos::default()).build(),
            log.clone(),
        )),
    );
    h.start_all();
    h.run_for_millis(1_000);
    let before = observations(&log).iter().filter(|(_, o)| matches!(o, Obs::Var(..))).count();
    assert!(before > 30, "flowing before the crash: {before}");

    h.crash_node(NodeId(1));
    h.run_for_millis(3_000); // node timeout passes; subscriber unbinds
    assert!(!h.container(NodeId(2)).unwrap().directory().node_alive(NodeId(1)));
    let during = observations(&log).iter().filter(|(_, o)| matches!(o, Obs::Var(..))).count();

    assert!(h.restart_node(NodeId(1)), "blueprint restart");
    let restarted_at = h.now();
    let rto = ProtoDuration::from_secs(4);
    let recovered = h.run_until(
        |h| {
            h.container(NodeId(2)).unwrap().directory().node_alive(NodeId(1))
                && h.container(NodeId(1)).unwrap().directory().node_alive(NodeId(2))
        },
        rto,
    );
    assert!(recovered, "directory re-converged within the RTO");
    let convergence = h.now().saturating_since(restarted_at);
    assert!(convergence <= rto, "took {}ms", convergence.as_millis());

    // Fresh samples resume: every post-restart sample was produced by the
    // new incarnation (its stamp is newer than the restart), i.e. nothing
    // stale from the first life is replayed.
    h.run_for_millis(1_000);
    let obs = observations(&log);
    let fresh: Vec<_> =
        obs.iter().filter(|(t, o)| matches!(o, Obs::Var(..)) && *t > restarted_at).collect();
    assert!(fresh.len() > 20, "samples resumed after restart: {}", fresh.len());
    let total = obs.iter().filter(|(_, o)| matches!(o, Obs::Var(..))).count();
    assert_eq!(total, during + fresh.len(), "no samples from the dead window surfaced late");
    // And the subscriber saw the provider go and come back.
    let notices: Vec<String> = obs
        .iter()
        .filter_map(|(_, o)| match o {
            Obs::Provider(p) => Some(p.clone()),
            _ => None,
        })
        .collect();
    assert!(notices.iter().any(|p| p.contains("VariableUnavailable")), "{notices:?}");
    assert!(notices.iter().filter(|p| p.contains("VariableAvailable")).count() >= 2, "{notices:?}");
}

#[test]
fn service_added_and_stopped_at_runtime() {
    let mut h = SimHarness::new(lan(26));
    h.add_container(ContainerConfig::new("a", NodeId(1)));
    h.add_container(ContainerConfig::new("b", NodeId(2)));
    h.start_all();
    h.run_for_millis(50);

    // Hot-add a publisher on a running container.
    let hot = VarPort::<u8>::new("hot/v");
    let mut b = ServiceDescriptor::builder("hot");
    b.provides_var(
        &hot,
        VarQos::periodic(ProtoDuration::from_millis(10), ProtoDuration::from_millis(100)),
    );
    let mut publisher = Scripted::new(b.build());
    publisher.on_start = Some(Box::new(|ctx| {
        ctx.set_timer(ProtoDuration::from_millis(10), Some(ProtoDuration::from_millis(10)));
    }));
    let port = hot.clone();
    publisher.on_timer = Some(Box::new(move |ctx, _| ctx.publish_to(&port, 1u8)));
    h.container_mut(NodeId(1)).unwrap().add_service(Box::new(publisher)).unwrap();

    let log = obs_log();
    h.container_mut(NodeId(2))
        .unwrap()
        .add_service(Box::new(Recorder::new(
            ServiceDescriptor::builder("watch")
                .subscribe_variable("hot/v", VarQos::default())
                .build(),
            log.clone(),
        )))
        .unwrap();
    h.run_for_millis(500);
    let n = observations(&log).iter().filter(|(_, o)| matches!(o, Obs::Var(..))).count();
    assert!(n > 20, "hot-added services wire up: {n}");

    // Graceful stop of the publisher's node propagates.
    h.stop_node(NodeId(1));
    h.run_for_millis(100);
    assert!(!h.container(NodeId(2)).unwrap().directory().node_alive(NodeId(1)));
}

#[test]
fn hello_bursts_are_debounced_to_one_pending_reannounce() {
    // Regression: frames from a rediscovered node used to reset the
    // announce clock unconditionally, so a burst of Hellos (flapping
    // radio, partition heal) forced one full-catalogue broadcast *per
    // frame*. The forced re-announce is now debounced to at most one
    // immediate broadcast plus one pending flush per announce period, and
    // the one periodic frame, the beacon, carries a digest, not the catalogue.
    use marea_core::ServiceContainer;
    use marea_presentation::Name;
    use marea_protocol::messages::{announce_hash, Message};
    use marea_protocol::{frames, GroupId, Micros, NodeId};
    use marea_transport::{InProcHub, Transport, TransportDestination};

    let hub = InProcHub::new();
    let transport = hub.attach(1);
    let mut probe = hub.attach(2);
    probe.join(GroupId::CONTROL.0);

    let mut cfg = ContainerConfig::new("uav", NodeId(1));
    cfg.announce_period = ProtoDuration::from_millis(200);
    let mut c = ServiceContainer::new(cfg, Box::new(transport));
    c.start(Micros(0));
    c.tick(Micros(0));
    while probe.recv().is_some() {} // drop startup traffic

    // Burst: five Hellos from the same peer inside one announce period.
    for i in 0..5u64 {
        let hello =
            Message::Hello { container: Name::new("peer").unwrap(), incarnation: 1, fec_cap: 0 };
        probe.send(TransportDestination::Node(1), hello.into_frame(NodeId(2)).encode()).unwrap();
        c.tick(Micros(1_000 * (i + 1)));
    }
    let mut in_burst = 0usize;
    while let Some((_, datagram)) = probe.recv() {
        for frame in frames(&datagram) {
            if matches!(Message::from_frame(&frame.unwrap()), Ok(Message::Announce { .. })) {
                in_burst += 1;
            }
        }
    }
    assert_eq!(in_burst, 1, "only the first Hello forces an immediate re-announce");

    // The collapsed repeats flush as exactly one more full announce once
    // the window closes. Afterwards, while nothing changes, no catalogue
    // frame of any kind is sent: every beacon carries that announce's
    // digest, and that is all the fleet is told.
    for ms in (10..=2_600).step_by(10) {
        c.tick(Micros(ms * 1_000));
    }
    let (mut flushed, mut beacons) = (Vec::new(), Vec::new());
    while let Some((_, datagram)) = probe.recv() {
        for frame in frames(&datagram) {
            match Message::from_frame(&frame.unwrap()).unwrap() {
                Message::Announce { incarnation, entries } => {
                    assert!(beacons.is_empty(), "a catalogue frame after the flush");
                    flushed.push((entries.len() as u32, announce_hash(incarnation, &entries)));
                }
                Message::Beacon { entry_count, catalogue_hash, .. } => {
                    beacons.push((entry_count, catalogue_hash));
                }
                other => panic!("an idle node sends beacons only, not {other:?}"),
            }
        }
    }
    assert_eq!(flushed.len(), 1, "repeats collapse into one pending flush");
    assert_eq!(beacons, vec![flushed[0]; 5], "one beacon per 500 ms, each with that digest");
}

#[test]
fn a_hello_delayed_across_a_restart_changes_nothing() {
    // Regression: a `Hello` of life 1 arriving after life 2 was known (it
    // sat in a slow link's queue across the restart) rolled the record
    // back, so life 2's next beacon read as a new life: catalogue purged,
    // every subscription re-planned, the catalogue pulled again.
    use marea_core::ServiceContainer;
    use marea_presentation::Name;
    use marea_protocol::messages::{
        announce_hash, AnnounceEntry, Message, Provision, ServiceState,
    };
    use marea_protocol::{frames, GroupId, Micros};
    use marea_transport::{InProcHub, Transport, TransportDestination};

    let hub = InProcHub::new();
    let mut probe = hub.attach(2);
    probe.join(GroupId::CONTROL.0);
    let mut cfg = ContainerConfig::new("uav", NodeId(1));
    cfg.announce_period = ProtoDuration::from_millis(200);
    let quiet = cfg.announce_period.as_micros() * 2;
    let mut c = ServiceContainer::new(cfg, Box::new(hub.attach(1)));
    c.start(Micros(0));

    let hello = |incarnation| Message::Hello {
        container: Name::new("peer").unwrap(),
        incarnation,
        fec_cap: 0,
    };
    let entries = vec![AnnounceEntry {
        service_seq: 1,
        name: Name::new("gps").unwrap(),
        state: ServiceState::Running,
        provides: vec![Provision::Event { name: Name::new("gps/fix-lost").unwrap(), ty: None }],
    }];
    let digest = (announce_hash(2, &entries), entries.len() as u32);
    let send = |probe: &mut dyn Transport, msg: Message| {
        probe.send(TransportDestination::Node(1), msg.into_frame(NodeId(2)).encode()).unwrap();
    };
    send(&mut probe, hello(2));
    send(&mut probe, Message::Announce { incarnation: 2, entries });
    // Past the debounce window, so that a re-announce would go out at once.
    for at in (0..=quiet).step_by(10_000) {
        c.tick(Micros(at));
    }
    while probe.recv().is_some() {}
    assert!(c.directory().resolve_event("gps/fix-lost").is_some());

    send(&mut probe, hello(1));
    let (catalogue_hash, entry_count) = digest;
    let beacon = Message::Beacon {
        incarnation: 2,
        load_permille: 0,
        fec_cap: 0,
        entry_count,
        catalogue_hash,
    };
    send(&mut probe, beacon);
    c.tick(Micros(quiet + 1_000));
    let info = c.directory().node(NodeId(2)).unwrap();
    assert_eq!((info.incarnation, info.catalogue_digest), (2, Some(digest)));
    assert!(c.directory().resolve_event("gps/fix-lost").is_some());
    assert_eq!(c.stats().catalogue_pulls, 0);
    while let Some((_, datagram)) = probe.recv() {
        for frame in frames(&datagram) {
            let sent = Message::from_frame(&frame.unwrap()).unwrap();
            assert!(matches!(sent, Message::Beacon { .. }), "answered a dead life with {sent:?}");
        }
    }
}

#[test]
fn any_valid_frame_from_a_known_node_is_proof_of_life() {
    // A peer whose beacons are all lost but whose data keeps arriving is
    // alive. Probe transport, explicit clock: nothing here is random.
    use marea_core::ServiceContainer;
    use marea_presentation::Name;
    use marea_protocol::messages::Message;
    use marea_protocol::{GroupId, Micros};
    use marea_transport::{InProcHub, Transport, TransportDestination};

    let hub = InProcHub::new();
    let mut probe = hub.attach(2);
    probe.join(GroupId::CONTROL.0);
    let cfg = ContainerConfig::new("uav", NodeId(1));
    let timeout = cfg.node_timeout.as_micros();
    let mut c = ServiceContainer::new(cfg, Box::new(hub.attach(1)));
    c.start(Micros(0));

    let name = Name::new("gps/position").unwrap();
    let sample = |seq| Message::VarSample {
        name: name.clone(),
        seq,
        stamp_us: 0,
        validity_us: 0,
        trace: 0,
        codec: 0,
        payload: Bytes::from_static(b"\x01"),
    };
    let reliable = |seq| Message::RelData {
        channel: 0,
        seq,
        payload: Message::UnsubscribeEvent { name: name.clone(), subscriber: NodeId(2) }
            .encode_tagged(),
    };
    let mut send = |from: u32, msg: Message| {
        probe.send(TransportDestination::Node(1), msg.into_frame(NodeId(from)).encode()).unwrap();
    };

    let hello =
        Message::Hello { container: Name::new("peer").unwrap(), incarnation: 1, fec_cap: 0 };
    send(2, hello);
    c.tick(Micros(0));
    assert!(c.directory().node_alive(NodeId(2)));

    // Three timeouts of data frames only, one every quarter timeout, from
    // the known peer — and from a stranger, who stays one.
    let step = timeout / 4;
    let last = 12 * step;
    for (seq, at) in (step..=last).step_by(step as usize).enumerate() {
        let seq = seq as u64 + 1;
        send(2, if seq.is_multiple_of(2) { sample(seq) } else { reliable(seq / 2) });
        send(3, sample(seq));
        c.tick(Micros(at));
        assert!(c.directory().node_alive(NodeId(2)), "expired at {at} with its data arriving");
        assert!(!c.directory().node_alive(NodeId(3)), "a data frame introduced a stranger");
    }
    assert_eq!(c.directory().node(NodeId(2)).unwrap().last_seen, Micros(last));

    // The frames stop: one timeout later, and no sooner, the peer is gone.
    c.tick(Micros(last + timeout - 1));
    assert!(c.directory().node_alive(NodeId(2)));
    c.tick(Micros(last + timeout));
    assert!(!c.directory().node_alive(NodeId(2)));
}

#[test]
fn beacon_agrees_with_every_catalogue_its_node_hands_out() {
    // The beacon carries the digest of the catalogue as it stands, and a
    // changed catalogue is re-flooded in the slot of the beacon that first
    // says so. On a clean link nobody therefore ever pulls; a pull is the
    // repair of a lost re-flood, and one beacon period is its retry.
    use marea_protocol::messages::ServiceState;

    let beacon = ContainerConfig::new("x", NodeId(1)).heartbeat_period;
    let mut h = SimHarness::new(lan(31));
    for id in 1..=3 {
        h.add_container(ContainerConfig::new(&format!("n{id}"), NodeId(id)));
    }
    // Node 1's service degrades at 1.2 s and recovers at 3.2 s, both
    // between two beacon slots (which fall on multiples of 500 ms).
    let mut b = ServiceDescriptor::builder("fragile");
    b.provides_event(&EventPort::<u8>::new("fragile/e"));
    let mut fragile = Scripted::new(b.build());
    fragile.on_start = Some(Box::new(|ctx| {
        ctx.set_timer(ProtoDuration::from_millis(1_200), Some(ProtoDuration::from_secs(2)));
    }));
    let mut degraded = false;
    fragile.on_timer = Some(Box::new(move |ctx, _| {
        degraded = !degraded;
        ctx.set_degraded(degraded);
    }));
    h.add_service(NodeId(1), Box::new(fragile));
    h.start_all();

    let pulls = |h: &SimHarness| -> Vec<u64> {
        h.nodes().iter().map(|n| h.container(*n).unwrap().stats().catalogue_pulls).collect()
    };
    // Every node holds node 1's catalogue as node 1 itself last hashed it,
    // and resolves the service in `state`.
    let converged = |h: &SimHarness, state: ServiceState| {
        let own = h.container(NodeId(1)).unwrap().directory().node(NodeId(1)).unwrap();
        h.nodes().iter().all(|n| {
            let d = h.container(*n).unwrap().directory();
            d.node(NodeId(1)).is_some_and(|i| i.catalogue_digest == own.catalogue_digest)
                && d.resolve_event("fragile/e").is_some_and(|p| p.state == state)
        })
    };

    // Discovery. `start_all` starts the nodes one after another, so node 3
    // joins the control group after node 2's `Hello` and start-up
    // `Announce` went out, and first hears of node 2 through the `Announce`
    // node 2 re-broadcasts for node 3's own `Hello`: that announce creates
    // the record its digest is filed under, so node 2's beacons agree.
    h.run_until_us(1_100_000);
    assert!(converged(&h, ServiceState::Running));
    assert_eq!(pulls(&h), [0, 0, 0]);
    let settled = h.container(NodeId(2)).unwrap().directory().node(NodeId(1)).unwrap().clone();

    // SetDegraded on a running service: the next beacon slot re-floods.
    h.run_until_us(1_400_000);
    let held = h.container(NodeId(2)).unwrap().directory().node(NodeId(1)).unwrap();
    assert_eq!(held.catalogue_digest, settled.catalogue_digest, "not before its slot");
    h.run_until_us(1_200_000 + beacon.as_micros());
    assert!(converged(&h, ServiceState::Degraded), "within one beacon period of the change");
    assert_eq!(pulls(&h), [0, 0, 0], "a re-flood that arrives leaves nothing to pull");

    // A late joiner whose Hello and Announce are lost is found by its
    // beacon and served unicast (Hello + catalogue, both ways); what it was
    // handed is what every later beacon says, so it never pulls.
    h.add_container(ContainerConfig::new("n4", NodeId(4)));
    for peer in 1..=3 {
        h.network().set_partition(4, peer, true);
    }
    h.start_all();
    h.run_until_us(2_100_000);
    assert!(!h.container(NodeId(1)).unwrap().directory().node_alive(NodeId(4)));
    for peer in 1..=3 {
        h.network().set_partition(4, peer, false);
    }
    h.run_until_us(3_100_000);
    assert!(converged(&h, ServiceState::Degraded), "the joiner included");
    let four = h.container(NodeId(4)).unwrap();
    assert_eq!(four.directory().node_count(), 4);
    assert_eq!(pulls(&h), [0, 0, 0, 0]);

    // The recovery's re-flood (beacon slot 3.5 s) is lost towards node 3
    // alone: it pulls exactly once, at the following beacon, and holds the
    // catalogue within two beacon periods of the change.
    h.run_until_us(3_400_000);
    h.network().set_partition(1, 3, true);
    h.run_until_us(3_600_000);
    h.network().set_partition(1, 3, false);
    h.run_until_us(3_990_000);
    assert!(!converged(&h, ServiceState::Running), "node 3 missed the re-flood");
    assert_eq!(pulls(&h), [0, 0, 0, 0], "and cannot know before the next beacon");
    h.run_until_us(3_200_000 + 2 * beacon.as_micros());
    assert!(converged(&h, ServiceState::Running));
    assert_eq!(pulls(&h), [0, 0, 1, 0]);
    h.run_for(ProtoDuration::from_secs(3));
    assert_eq!(pulls(&h), [0, 0, 1, 0], "one pull repaired it for good");
}

/// §3: on malfunction "the containers are able to clear and update
/// their caches". A publisher forgets a subscriber node it declared
/// dead — the remote-subscriber sets go with the link and the directory
/// entry — so nothing more is addressed to it; the node's next life
/// subscribes afresh.
#[test]
fn a_dead_subscriber_node_leaves_the_publishers_caches() {
    let mut h = SimHarness::new(lan(3));
    h.add_container(ContainerConfig::new("pub", NodeId(1)));
    h.add_container(ContainerConfig::new("sub", NodeId(2)));

    let beat = EventPort::<u64>::new("p/beat");
    let mut b = ServiceDescriptor::builder("p");
    b.provides_event(&beat);
    let mut publisher = Scripted::new(b.build());
    publisher.on_start = Some(Box::new(|ctx| {
        ctx.set_timer(ProtoDuration::from_millis(100), Some(ProtoDuration::from_millis(100)));
    }));
    let mut k = 0u64;
    publisher.on_timer = Some(Box::new(move |ctx, _| {
        k += 1;
        ctx.emit_to(&beat, k);
    }));
    h.add_service(NodeId(1), Box::new(publisher));

    let log = obs_log();
    let sink_log = log.clone();
    h.add_service_factory(NodeId(2), move || {
        let descriptor =
            ServiceDescriptor::builder("s").subscribe_event("p/beat", EventQos::default()).build();
        Box::new(Recorder::new(descriptor, sink_log.clone())) as Box<dyn marea_core::Service>
    });
    let events = |log: &common::ObsLog| {
        observations(log).iter().filter(|(_, o)| matches!(o, Obs::Event(..))).count()
    };
    h.start_all();
    h.run_for_millis(1_000);
    let before = events(&log);
    assert!(before >= 5, "flowing before the crash: {before}");
    assert_eq!(h.container(NodeId(1)).unwrap().occupancy().remote_subscribers, 1);

    h.crash_node(NodeId(2));
    h.run_for_millis(3_000); // node timeout passes
    let publisher = h.container(NodeId(1)).unwrap();
    assert!(!publisher.directory().node_alive(NodeId(2)));
    let occupancy = publisher.occupancy();
    assert_eq!((occupancy.remote_subscribers, occupancy.links), (0, 0), "{occupancy:?}");

    // The publisher keeps emitting; none of it goes anywhere.
    let (published, arq) = (publisher.stats().events_published, publisher.arq_stats());
    h.run_for_millis(3_000);
    let publisher = h.container(NodeId(1)).unwrap();
    assert!(publisher.stats().events_published >= published + 25);
    assert_eq!(publisher.arq_stats(), arq, "no reliable traffic towards a dead node");
    assert_eq!(publisher.occupancy().links, 0, "and no link re-opened for it");

    assert!(h.restart_node(NodeId(2)), "blueprint restart");
    h.run_for_millis(2_000);
    assert_eq!(h.container(NodeId(1)).unwrap().occupancy().remote_subscribers, 1);
    assert!(events(&log) >= before + 10, "the new life subscribed and is served");
}

#[test]
fn a_bye_from_a_node_the_directory_does_not_hold_declares_no_death() {
    // Regression: the `Bye` arm declared its sender dead whether or not the
    // directory held it, so a stranger's `Bye` — or a second one — logged
    // a death, recorded a `DirExpire` and forced a maintenance sweep.
    // Probe transport, explicit clock: nothing here is random.
    use marea_core::{ServiceContainer, TraceKind};
    use marea_presentation::Name;
    use marea_protocol::messages::Message;
    use marea_protocol::Micros;
    use marea_transport::{InProcHub, Transport, TransportDestination};

    let hub = InProcHub::new();
    let mut probe = hub.attach(2);
    let cfg = ContainerConfig::new("uav", NodeId(1));
    let mut c = ServiceContainer::new(cfg, Box::new(hub.attach(1)));
    c.start(Micros(0));
    let mut send = |from: u32, msg: Message| {
        probe.send(TransportDestination::Node(1), msg.into_frame(NodeId(from)).encode()).unwrap();
    };
    let deaths = |c: &ServiceContainer| {
        let logged = c.log_lines().filter(|(_, line)| line.contains("declared dead")).count();
        let expired = c.trace_ring().events().filter(|e| e.kind == TraceKind::DirExpire).count();
        (logged, expired)
    };

    send(3, Message::Bye);
    c.tick(Micros(1_000));
    assert_eq!(deaths(&c), (0, 0), "a stranger's Bye");

    let hello =
        Message::Hello { container: Name::new("peer").unwrap(), incarnation: 1, fec_cap: 0 };
    send(2, hello);
    c.tick(Micros(2_000));
    assert!(c.directory().node_alive(NodeId(2)));
    send(2, Message::Bye);
    send(2, Message::Bye);
    c.tick(Micros(3_000));
    assert!(!c.directory().node_alive(NodeId(2)));
    assert_eq!(deaths(&c), (1, 1), "a known node's Bye, delivered twice");
}
