//! Provider failover: the §4.3 degraded-mode story.
//!
//! Run with `cargo run --example failover`.
//!
//! A mission-critical client calls `storage/store` twice per second.
//! Two storage providers exist (primary on node 2, backup on node 3).
//! Mid-mission the primary node is crashed without warning. The middleware
//! detects the failure, purges its name cache and transparently redirects
//! calls to the backup — the mission continues in degraded mode, exactly
//! as the paper promises.

use std::sync::Arc;

use parking_lot::Mutex;

use marea::core::{
    CallError, CallHandle, CallOptions, ContainerConfig, NodeId, ProtoDuration, Service,
    ServiceContext, ServiceDescriptor, SimHarness, TimerId,
};
use marea::netsim::NetConfig;
use marea::prelude::*;
use marea::services::{names, MemFs, StorageService};

type Outcomes = Arc<Mutex<Vec<(u64, Result<String, String>)>>>;

struct PeriodicWriter {
    outcomes: Outcomes,
    n: u32,
}

impl Service for PeriodicWriter {
    fn descriptor(&self) -> ServiceDescriptor {
        ServiceDescriptor::builder("writer").requires_fn(&names::STORAGE_STORE).build()
    }

    fn on_start(&mut self, ctx: &mut ServiceContext<'_>) {
        ctx.set_timer(ProtoDuration::from_millis(500), Some(ProtoDuration::from_millis(500)));
    }

    fn on_timer(&mut self, ctx: &mut ServiceContext<'_>, _id: TimerId) {
        self.n += 1;
        // Prefer the primary node; the middleware falls back dynamically.
        // The caller-visible contract travels with the call: a 600 ms
        // per-attempt deadline, up to 3 providers tried. The argument
        // tuple is checked against the port's signature at compile time.
        ctx.call_fn_with(
            &names::STORAGE_STORE,
            (format!("track/fix-{:03}", self.n), vec![0xAB; 64]),
            CallOptions::default()
                .pinned(NodeId(2))
                .with_deadline(ProtoDuration::from_millis(600))
                .with_retry_budget(3),
        );
    }

    fn on_reply(
        &mut self,
        ctx: &mut ServiceContext<'_>,
        handle: CallHandle,
        result: Result<Value, CallError>,
    ) {
        let t = ctx.now().as_micros() / 1000;
        self.outcomes
            .lock()
            .push((t, result.map(|_| format!("ok (req {})", handle.0)).map_err(|e| e.to_string())));
    }
}

fn main() {
    let mut h = SimHarness::new(NetConfig::default().with_seed(7));
    h.add_container(ContainerConfig::new("client", NodeId(1)));
    h.add_container(ContainerConfig::new("primary", NodeId(2)));
    h.add_container(ContainerConfig::new("backup", NodeId(3)));

    let outcomes = Arc::new(Mutex::new(Vec::new()));
    h.add_service(NodeId(1), Box::new(PeriodicWriter { outcomes: outcomes.clone(), n: 0 }));
    let primary_fs = MemFs::new();
    h.add_service(NodeId(2), Box::new(StorageService::new(primary_fs.clone())));
    let backup_fs = MemFs::new();
    h.add_service(NodeId(3), Box::new(StorageService::new(backup_fs.clone())));

    h.start_all();
    println!("phase 1: both providers alive (5 s)");
    h.run_for_millis(5_000);
    println!("  primary stored {} files, backup {} files", primary_fs.len(), backup_fs.len());

    println!("phase 2: CRASHING the primary storage node");
    h.crash_node(NodeId(2));
    h.run_for_millis(10_000);
    println!("  backup now stores {} files", backup_fs.len());

    println!("\ncall outcomes:");
    let mut ok = 0;
    let mut failed = 0;
    for (t, outcome) in outcomes.lock().iter() {
        match outcome {
            Ok(_) => ok += 1,
            Err(e) => {
                failed += 1;
                println!("  t={t:>6} ms  FAILED: {e}");
            }
        }
    }
    println!("  {ok} calls succeeded, {failed} failed during the blackout window");

    let client = h.container(NodeId(1)).unwrap();
    println!("\nmiddleware log (client node):");
    for (t, line) in client.log_lines() {
        println!("  [{t}] {line}");
    }
    println!(
        "\nfailovers performed: {}  (errors surfaced: {})",
        client.stats().qos.retries,
        client.stats().call_errors
    );
    assert!(backup_fs.len() > 10, "backup took over");
    println!("degraded-mode continuation ✔");
}
