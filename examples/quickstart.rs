//! Quickstart: two avionics nodes, one variable, one event.
//!
//! Run with `cargo run --example quickstart`.
//!
//! A `beacon` service on node 1 publishes a counter variable at 20 Hz and
//! emits an event every 10th sample; a `display` service on node 2
//! subscribes to both. The whole thing runs on the deterministic simulated
//! LAN, so the output is identical on every machine.

use std::sync::LazyLock;

use marea::core::{
    ContainerConfig, EventPort, EventQos, Micros, NodeId, ProtoDuration, Service, ServiceContext,
    ServiceDescriptor, SimHarness, TimerId, VarPort, VarQos,
};
use marea::netsim::NetConfig;
use marea::prelude::*;

/// The example's shared vocabulary: both services declare, send and
/// decode through these two ports, so publisher and subscriber agree by
/// construction.
static COUNT: LazyLock<VarPort<u64>> = LazyLock::new(|| VarPort::new("beacon/count"));
static DECADE: LazyLock<EventPort<u64>> = LazyLock::new(|| EventPort::new("beacon/decade"));

/// Publishes `beacon/count` and emits `beacon/decade` every 10 counts.
struct Beacon {
    count: u64,
}

impl Service for Beacon {
    fn descriptor(&self) -> ServiceDescriptor {
        ServiceDescriptor::builder("beacon")
            .provides_var(
                &COUNT,
                VarQos::periodic(ProtoDuration::from_millis(50), ProtoDuration::from_millis(200)),
            )
            .provides_event(&DECADE)
            .build()
    }

    fn on_start(&mut self, ctx: &mut ServiceContext<'_>) {
        ctx.set_timer(ProtoDuration::from_millis(50), Some(ProtoDuration::from_millis(50)));
    }

    fn on_timer(&mut self, ctx: &mut ServiceContext<'_>, _id: TimerId) {
        self.count += 1;
        // Typed publish: only a u64 compiles here.
        ctx.publish_to(&COUNT, self.count);
        if self.count.is_multiple_of(10) {
            ctx.emit_to(&DECADE, self.count);
        }
    }
}

/// Prints what it receives.
struct Display;

impl Service for Display {
    fn descriptor(&self) -> ServiceDescriptor {
        ServiceDescriptor::builder("display")
            // The subscription contract: guaranteed initial value and a
            // short history ring readable via ctx.history().
            .subscribe_to_var(&COUNT, VarQos::default().with_initial().with_history(5))
            .subscribe_to_event(&DECADE, EventQos::default())
            .build()
    }

    fn on_variable(
        &mut self,
        ctx: &mut ServiceContext<'_>,
        name: &Name,
        value: &Value,
        _stamp: Micros,
    ) {
        if let Ok(n) = COUNT.decode(value) {
            if n % 5 == 0 {
                println!("[{}] variable {name} = {n}", ctx.now());
            }
        }
    }

    fn on_event(
        &mut self,
        ctx: &mut ServiceContext<'_>,
        name: &Name,
        value: Option<&Value>,
        stamp: Micros,
    ) {
        let latency_us = ctx.now().saturating_since(stamp).as_micros();
        // The declared history contract keeps the last few samples
        // readable without storing them in the service.
        let recent: Vec<u64> = ctx.history(&COUNT).into_iter().map(|(_, n)| n).collect();
        println!(
            "[{}] EVENT {name} {:?} (delivered {latency_us} µs after production; recent counts {recent:?})",
            ctx.now(),
            DECADE.decode(value).ok()
        );
    }
}

fn main() {
    let mut harness = SimHarness::new(NetConfig::default());
    harness.add_container(ContainerConfig::new("flight-node", NodeId(1)));
    harness.add_container(ContainerConfig::new("ground-node", NodeId(2)));
    harness.add_service(NodeId(1), Box::new(Beacon { count: 0 }));
    harness.add_service(NodeId(2), Box::new(Display));

    harness.start_all();
    harness.run_for_millis(2_000);

    let ground = harness.container(NodeId(2)).unwrap();
    let stats = ground.stats();
    println!("---");
    println!(
        "ground node received {} samples and {} events in 2 simulated seconds",
        stats.var_samples_delivered, stats.events_delivered
    );
    println!("mean event delivery latency: {:.0} µs", stats.event_latency_mean_us().unwrap_or(0.0));
}
