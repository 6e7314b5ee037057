//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own files, around the calls
//! into each layer: the traced step loop opens `driver.step`,
//! `netsim.advance` and `container.tick`; [`TracedTransport`] opens
//! `transport.send` / `transport.recv`; the benchmark's services open
//! `handler.*`. Per name the recorder keeps count, total and self time
//! (duration minus the part covered by child spans); the first
//! [`RAW_CAP`] raw spans are kept for the JSONL dump written at exit.
//!
//! The recorder lives in a thread-local because the transport wrapper
//! and the services sit inside the container, out of the driver's reach;
//! the benchmark is single-threaded, so this is plain shared state.
//! With no recorder installed every hook is a no-op.
//!
//! [`TracedTransport`]: crate::traced::TracedTransport

use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::Instant;

use crate::clock;

/// Raw spans kept per traced run.
pub const RAW_CAP: usize = 100_000;

/// The span names, one per layer boundary the benchmark can see.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Span {
    /// One pass of the traced step loop.
    DriverStep,
    /// `SimNet::advance_to`.
    NetsimAdvance,
    /// `ServiceContainer::tick`.
    ContainerTick,
    /// `Transport::send`.
    TransportSend,
    /// `Transport::recv`.
    TransportRecv,
    /// `Service::on_variable` of a benchmark sink.
    HandlerVariable,
    /// `Service::on_event`.
    HandlerEvent,
    /// `Service::on_call`.
    HandlerCall,
    /// `Service::on_reply`.
    HandlerReply,
    /// `Service::on_file_event`.
    HandlerFile,
    /// `Service::on_timer` of a benchmark source.
    HandlerTimer,
}

impl Span {
    /// Every span name, in report order.
    pub const ALL: [Span; 11] = [
        Span::DriverStep,
        Span::NetsimAdvance,
        Span::ContainerTick,
        Span::TransportSend,
        Span::TransportRecv,
        Span::HandlerVariable,
        Span::HandlerEvent,
        Span::HandlerCall,
        Span::HandlerReply,
        Span::HandlerFile,
        Span::HandlerTimer,
    ];

    /// The dotted name used in reports and the JSONL dump.
    pub fn name(self) -> &'static str {
        match self {
            Span::DriverStep => "driver.step",
            Span::NetsimAdvance => "netsim.advance",
            Span::ContainerTick => "container.tick",
            Span::TransportSend => "transport.send",
            Span::TransportRecv => "transport.recv",
            Span::HandlerVariable => "handler.on_variable",
            Span::HandlerEvent => "handler.on_event",
            Span::HandlerCall => "handler.on_call",
            Span::HandlerReply => "handler.on_reply",
            Span::HandlerFile => "handler.on_file_event",
            Span::HandlerTimer => "handler.on_timer",
        }
    }

    fn is_handler(self) -> bool {
        self.name().starts_with("handler.")
    }
}

/// Per-name totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Aggregate {
    /// Spans closed under this name.
    pub count: u64,
    /// Sum of their durations (ns).
    pub total_ns: u64,
    /// Sum of their durations minus their children's (ns).
    pub self_ns: u64,
}

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RawSpan {
    /// Its name.
    pub span: Span,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// End, ns since the recorder was created.
    pub end_ns: u64,
    /// Index of the span that caused it, if that one was kept too.
    pub parent: Option<u32>,
    /// Node whose container or transport the span belongs to (0: driver).
    pub node: u32,
}

#[derive(Debug)]
struct Open {
    span: Span,
    start_ns: u64,
    child_ns: u64,
    raw: Option<u32>,
    activity_at_entry: u64,
}

/// Span store of one traced run.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    stack: Vec<Open>,
    totals: [Aggregate; Span::ALL.len()],
    raw: Vec<RawSpan>,
    activity: u64,
    idle_ticks: u64,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// An empty recorder; span times count from now.
    pub fn new() -> Self {
        Recorder {
            epoch: clock::now(),
            stack: Vec::with_capacity(8),
            totals: [Aggregate::default(); Span::ALL.len()],
            raw: Vec::with_capacity(RAW_CAP),
            activity: 0,
            idle_ticks: 0,
        }
    }

    /// Opens `span` at `t_ns` as a child of the innermost open span.
    pub fn enter_at(&mut self, span: Span, node: u32, t_ns: u64) {
        if span == Span::TransportSend || span.is_handler() {
            self.activity += 1;
        }
        let raw = (self.raw.len() < RAW_CAP).then(|| {
            let parent = self.stack.last().and_then(|o| o.raw);
            self.raw.push(RawSpan { span, start_ns: t_ns, end_ns: t_ns, parent, node });
            (self.raw.len() - 1) as u32
        });
        self.stack.push(Open {
            span,
            start_ns: t_ns,
            child_ns: 0,
            raw,
            activity_at_entry: self.activity,
        });
    }

    /// Closes the innermost open span at `t_ns`.
    pub fn exit_at(&mut self, t_ns: u64) {
        let Some(open) = self.stack.pop() else { return };
        let dur = t_ns.saturating_sub(open.start_ns);
        let agg = &mut self.totals[open.span as usize];
        agg.count += 1;
        agg.total_ns += dur;
        agg.self_ns += dur.saturating_sub(open.child_ns);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
        if let Some(i) = open.raw {
            self.raw[i as usize].end_ns = t_ns;
        }
        if open.span == Span::ContainerTick && self.activity == open.activity_at_entry {
            self.idle_ticks += 1;
        }
    }

    /// Notes useful work that opens no span of its own (a `recv` that
    /// returned a datagram).
    pub fn mark_activity(&mut self) {
        self.activity += 1;
    }

    /// Totals of `span`.
    pub fn aggregate(&self, span: Span) -> Aggregate {
        self.totals[span as usize]
    }

    /// Summed self time of every `handler.*` span (ns).
    pub fn handler_self_ns(&self) -> u64 {
        Span::ALL.iter().filter(|s| s.is_handler()).map(|&s| self.aggregate(s).self_ns).sum()
    }

    /// `container.tick` spans in which nothing was sent, received or
    /// handled.
    pub fn idle_ticks(&self) -> u64 {
        self.idle_ticks
    }

    /// The raw spans kept (at most [`RAW_CAP`]).
    pub fn raw(&self) -> &[RawSpan] {
        &self.raw
    }

    /// The raw spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.raw.len() * 96);
        for (id, s) in self.raw.iter().enumerate() {
            let _ = write!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":",
                s.span.name(),
                s.start_ns,
                s.end_ns
            );
            match s.parent {
                Some(p) => {
                    let _ = write!(out, "{p}");
                }
                None => out.push_str("null"),
            }
            let _ = writeln!(out, ",\"node\":{}}}", s.node);
        }
        out
    }

    fn now_ns(&self) -> u64 {
        clock::now().duration_since(self.epoch).as_nanos() as u64
    }
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Starts recording on this thread (replacing any earlier recorder).
pub fn install() {
    RECORDER.with(|r| *r.borrow_mut() = Some(Recorder::new()));
}

/// Stops recording and hands the recorder back.
pub fn take() -> Option<Recorder> {
    RECORDER.with(|r| r.borrow_mut().take())
}

/// Closes its span when dropped.
#[derive(Debug)]
#[must_use = "the span closes when the guard is dropped"]
pub struct Guard(());

impl Drop for Guard {
    fn drop(&mut self) {
        RECORDER.with(|r| {
            if let Some(rec) = r.borrow_mut().as_mut() {
                let t = rec.now_ns();
                rec.exit_at(t);
            }
        });
    }
}

/// Opens `span` for `node` until the returned guard is dropped; a no-op
/// when nothing is recording.
pub fn span(span: Span, node: u32) -> Guard {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            let t = rec.now_ns();
            rec.enter_at(span, node, t);
        }
    });
    Guard(())
}

/// See [`Recorder::mark_activity`]; a no-op when nothing is recording.
pub fn mark_activity() {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.mark_activity();
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        let mut r = Recorder::new();
        // step [0,100] ⊃ tick [10,70] ⊃ { recv [20,30], handler [30,50] }, tick [70,90]
        r.enter_at(Span::DriverStep, 0, 0);
        r.enter_at(Span::ContainerTick, 1, 10);
        r.enter_at(Span::TransportRecv, 1, 20);
        r.exit_at(30);
        r.enter_at(Span::HandlerVariable, 1, 30);
        r.exit_at(50);
        r.exit_at(70);
        r.enter_at(Span::ContainerTick, 2, 70);
        r.exit_at(90);
        r.exit_at(100);

        let step = r.aggregate(Span::DriverStep);
        assert_eq!((step.count, step.total_ns, step.self_ns), (1, 100, 100 - 60 - 20));
        let tick = r.aggregate(Span::ContainerTick);
        assert_eq!((tick.count, tick.total_ns), (2, 80));
        assert_eq!(tick.self_ns, (60 - 10 - 20) + 20, "grandchildren are not subtracted twice");
        assert_eq!(r.aggregate(Span::TransportRecv).self_ns, 10);
        assert_eq!(r.handler_self_ns(), 20);
        // Self times partition the root span.
        let all: u64 = Span::ALL.iter().map(|&s| r.aggregate(s).self_ns).sum();
        assert_eq!(all, step.total_ns);
        // The second tick did nothing; the first ran a handler.
        assert_eq!(r.idle_ticks(), 1);
    }

    #[test]
    fn raw_spans_link_to_their_parents() {
        let mut r = Recorder::new();
        r.enter_at(Span::DriverStep, 0, 0);
        r.enter_at(Span::ContainerTick, 5, 1);
        r.enter_at(Span::TransportSend, 5, 2);
        r.exit_at(3);
        r.exit_at(4);
        r.exit_at(5);
        let raw = r.raw();
        assert_eq!(raw.len(), 3);
        assert_eq!(raw[0].parent, None);
        assert_eq!(raw[1].parent, Some(0));
        assert_eq!(raw[2].parent, Some(1));
        assert_eq!((raw[2].start_ns, raw[2].end_ns, raw[2].node), (2, 3, 5));
        let lines = r.to_jsonl();
        assert_eq!(lines.lines().count(), 3);
        assert!(lines.starts_with(
            "{\"id\":0,\"name\":\"driver.step\",\"start_ns\":0,\"end_ns\":5,\"parent\":null,\"node\":0}"
        ));
    }

    #[test]
    fn hooks_are_noops_without_a_recorder() {
        assert!(take().is_none());
        drop(span(Span::DriverStep, 0));
        mark_activity();
        install();
        drop(span(Span::DriverStep, 0));
        let r = take().expect("installed");
        assert_eq!(r.aggregate(Span::DriverStep).count, 1);
    }
}
