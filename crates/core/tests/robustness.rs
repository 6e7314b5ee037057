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

    // Heal: rediscovery through heartbeats + periodic announces, then the
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
    h.run_for_millis(1_000); // transfer under way
    h.crash_node(NodeId(1));
    h.run_for_millis(5_000);

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
    // the steady-state periodic slot carries a digest, not the catalogue.
    use marea_core::ServiceContainer;
    use marea_presentation::Name;
    use marea_protocol::messages::Message;
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
    // the period elapses; afterwards the periodic slot is digest-only.
    for ms in (10..=600).step_by(10) {
        c.tick(Micros(ms * 1_000));
    }
    let (mut full, mut digests) = (0usize, 0usize);
    while let Some((_, datagram)) = probe.recv() {
        for frame in frames(&datagram) {
            match Message::from_frame(&frame.unwrap()) {
                Ok(Message::Announce { .. }) => full += 1,
                Ok(Message::AnnounceDigest { .. }) => digests += 1,
                _ => {}
            }
        }
    }
    assert_eq!(full, 1, "repeats collapse into one pending flush");
    assert!(digests >= 1, "steady-state announce slot is digest gossip");
}
