//! The flight recorder and the metrics sampler allocate nothing in steady
//! state (DESIGN.md §8, §9): a `Name` built per record with `format!`, a
//! frame that owns a string, a timeline that grows without bound — each
//! is an allocation per record or per sample, and this count sees it.
//!
//! Three nodes: one publishes a variable and emits an event every 1 ms,
//! two subscribe to both. The same 2 s window is counted twice, with the
//! recorder and a 1 ms sampler off and then on. The counting allocator
//! lives in this test crate alone, so the libraries stay free of `unsafe`;
//! its counts are per thread, and the harness runs on the test's thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::LazyLock;

use marea_core::{
    ContainerConfig, EventPort, EventQos, MetricsConfig, NodeId, ProtoDuration, Service,
    ServiceContext, ServiceDescriptor, SimHarness, TimerId, VarPort, VarQos,
};
use marea_netsim::NetConfig;

fn period() -> ProtoDuration {
    ProtoDuration::from_millis(1)
}

thread_local! {
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

/// [`System`] plus a per-thread count of `alloc`, `alloc_zeroed` and
/// `realloc` calls.
struct Counting;

fn count() {
    // `try_with`: a thread being torn down may still free and allocate.
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the count touches a const-initialised
// thread-local cell, which allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr`, `layout` and `new_size` are the caller's, which
        // guarantees `ptr` came from this allocator with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // with `layout`; both are passed through as received.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

fn allocations() -> u64 {
    CALLS.with(Cell::get)
}

static TICK: LazyLock<VarPort<u64>> = LazyLock::new(|| VarPort::new("probe/tick"));
static PULSE: LazyLock<EventPort<u64>> = LazyLock::new(|| EventPort::new("probe/pulse"));
/// Past set-up: discovery, the first catalogue floods and every buffer's
/// first growth are over within the 2 s announce debounce.
const WARMUP_MS: u64 = 3_000;
const WINDOW_MS: u64 = 2_000;

/// Publishes `probe/tick` and emits `probe/pulse` every millisecond.
struct Source {
    n: u64,
}

impl Service for Source {
    fn descriptor(&self) -> ServiceDescriptor {
        ServiceDescriptor::builder("source")
            .provides_var(&TICK, VarQos::periodic(period(), ProtoDuration::from_millis(10)))
            .provides_event(&PULSE)
            .build()
    }

    fn on_start(&mut self, ctx: &mut ServiceContext<'_>) {
        ctx.set_timer(period(), Some(period()));
    }

    fn on_timer(&mut self, ctx: &mut ServiceContext<'_>, _id: TimerId) {
        self.n += 1;
        ctx.publish_to(&TICK, self.n);
        ctx.emit_to(&PULSE, self.n);
    }
}

/// Subscribes to both; the default handlers ignore what arrives.
struct Sink;

impl Service for Sink {
    fn descriptor(&self) -> ServiceDescriptor {
        ServiceDescriptor::builder("sink")
            .subscribe_to_var(&TICK, VarQos::default())
            .subscribe_to_event(&PULSE, EventQos::default())
            .build()
    }
}

/// What one counted window saw.
#[derive(Debug)]
struct Window {
    allocations: u64,
    deliveries: u64,
    records: u64,
    samples: u64,
}

fn totals(h: &SimHarness) -> (u64, u64) {
    let (mut deliveries, mut records) = (0, 0);
    for n in 1..=3 {
        let stats = h.container(NodeId(n)).map(|c| c.stats()).unwrap_or_default();
        deliveries += stats.var_samples_delivered + stats.events_delivered;
        if let Some(ring) = h.trace_ring(NodeId(n)) {
            records += ring.len() as u64 + ring.evicted();
        }
    }
    (deliveries, records)
}

fn window(observed: bool) -> Window {
    let mut h = SimHarness::new(NetConfig::default());
    for n in 1..=3 {
        let mut config = ContainerConfig::new(&format!("node-{n}"), NodeId(n));
        if !observed {
            config.trace_capacity = 0;
        }
        h.add_container(config);
    }
    h.add_service(NodeId(1), Box::new(Source { n: 0 }));
    h.add_service(NodeId(2), Box::new(Sink));
    h.add_service(NodeId(3), Box::new(Sink));
    if observed {
        h.enable_metrics(MetricsConfig { period: period(), capacity: 256 });
    }
    h.start_all();
    h.run_for_millis(WARMUP_MS);

    let samples = h.metrics().map_or(0, |m| m.samples());
    let (deliveries, records) = totals(&h);
    let before = allocations();
    h.run_for_millis(WINDOW_MS);
    let allocations = allocations() - before;
    let (deliveries_after, records_after) = totals(&h);
    Window {
        allocations,
        deliveries: deliveries_after - deliveries,
        records: records_after - records,
        samples: h.metrics().map_or(0, |m| m.samples()) - samples,
    }
}

#[test]
fn the_recorder_and_a_1ms_sampler_add_no_allocations_in_steady_state() {
    let off = window(false);
    let on = window(true);
    let per = |n: u64| (on.allocations as f64 - off.allocations as f64) / n.max(1) as f64;
    println!("recorder and sampler off: {off:?}");
    println!("recorder and sampler on:  {on:?}");
    println!("allocations per record: {:.4}", per(on.records));
    println!("allocations per sample: {:.4}", per(on.samples));

    let deliveries = 4 * WINDOW_MS;
    assert_eq!(
        (off.deliveries, on.deliveries),
        (deliveries, deliveries),
        "two sinks × two channels"
    );
    assert_eq!(off.records, 0, "a zero-capacity recorder records nothing");
    assert!(on.records >= deliveries, "every delivery is recorded: {on:?}");
    assert_eq!(on.samples, WINDOW_MS, "one sample per millisecond");
    assert_eq!(
        on.allocations, off.allocations,
        "the recorder and the sampler allocate in steady state"
    );
    // A record's arguments are evaluated with the recorder off too, so a
    // `Name` built per record would show in both runs: the window itself
    // must allocate (next to) nothing. Release builds count 0; debug builds
    // add the beacon's catalogue check (`debug_assert_eq!`), 64 here.
    assert!(
        on.allocations * 20 < deliveries,
        "{} allocations over {deliveries} deliveries: something allocates per message",
        on.allocations
    );
}
