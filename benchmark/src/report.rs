//! Metric definitions, their values for a [`Run`], and the text they are
//! printed as: the table for people, the result line for the driver, and
//! `BENCHMARK.json` itself.

use std::fmt::Write as _;

use crate::ledger;
use crate::run::Run;
use crate::spans::Span;
use crate::workloads::Workload;

/// `run_seconds` in `BENCHMARK.json`: the host seconds the frozen segment
/// of every workload was sized to take on the reference host. The driver
/// passes it back as `--seconds`; no other value is accepted.
pub const RUN_SECONDS: u32 = 8;

/// Default `--seed`; the README names the held-out seed claims must also
/// hold on.
pub const DEFAULT_SEED: u64 = 1107;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Name: letters, digits, `_`, `.`, `-`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// End-to-end only: share of the parent's median by which the metric
    /// may worsen before a change is a regression.
    pub bound: Option<f64>,
    /// `true` for metrics counted on the simulated clock or wire: under
    /// one seed they must repeat exactly on the sim workloads. (The two
    /// allocator metrics are counted too, but the standard library seeds
    /// its hash tables per process, and whether a table grows or rehashes
    /// in place depends on the seed: they repeat to about one call in
    /// ten million, not to the last digit.)
    pub exact: bool,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    exact: bool,
) -> MetricDef {
    MetricDef { name, unit, better, bound: Some(bound), exact }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better, bound: None, exact: false }
}

use Better::{Higher, Lower};

/// The end-to-end metrics, reported with `--trace 0`. `virt_us` is µs on
/// the clock that drives the containers (simulated time), not host time.
///
/// Each bound is three times the widest quartile spread seen over sets of
/// ten seeds, except the two host-time ones: two driver-style rounds run
/// back to back on the reference host differed by 17 % in the median of
/// `deliveries_per_host_s` and 24 % in that of `setup_s` with no code
/// changed (README, "Why the bounds are what they are"), so a tighter
/// bound there would refuse innocent changes.
pub const END_TO_END: [MetricDef; 8] = [
    e2e("setup_s", "s", Lower, 0.25, false),
    e2e("deliveries_per_host_s", "1/s", Higher, 0.25, false),
    e2e("allocs_per_delivery", "count", Lower, 0.01, false),
    e2e("heap_peak_mib", "MiB", Lower, 0.06, false),
    e2e("deliver_p50_us", "virt_us", Lower, 0.05, true),
    e2e("deliver_p99_us", "virt_us", Lower, 0.09, true),
    e2e("delivery_ratio", "fraction", Higher, 0.001, true),
    e2e("wire_bytes_per_payload_byte", "ratio", Lower, 0.02, true),
];

/// `true` for the end-to-end metrics read off the host clock, the only
/// ones an unsteady host can move.
pub fn host_timed(def: &MetricDef) -> bool {
    matches!(def.unit, "s" | "1/s")
}

/// The per-layer metrics that come from the traced run and the fleet's
/// own counters, reported with `--trace 1` after the ledger's.
pub const TRACED: [MetricDef; 26] = [
    layer("trace.netsim_share", "fraction", Lower),
    layer("trace.transport_share", "fraction", Lower),
    layer("trace.handler_share", "fraction", Higher),
    layer("trace.container_self_share", "fraction", Lower),
    layer("trace.idle_tick_ratio", "fraction", Lower),
    layer("trace.overhead_ratio", "ratio", Lower),
    layer("harness.virt_s_per_host_s", "ratio", Higher),
    layer("harness.cpu_util", "fraction", Higher),
    layer("core.ticks", "count", Lower),
    layer("core.tasks_executed", "count", Lower),
    layer("core.queue_peak", "count", Lower),
    layer("core.frames_out", "count", Lower),
    layer("core.frames_in", "count", Lower),
    layer("core.retransmits", "count", Lower),
    layer("core.arq_failed", "count", Lower),
    layer("core.fec_parity_out", "count", Lower),
    layer("core.fec_recovered", "count", Higher),
    layer("core.deadline_misses", "count", Lower),
    layer("core.queue_drops", "count", Lower),
    layer("core.call_errors", "count", Lower),
    layer("netsim.datagrams_sent", "count", Lower),
    layer("netsim.dropped_loss", "count", Lower),
    layer("netsim.datagrams_per_delivery", "ratio", Lower),
    layer("gen.lag_p99_us", "virt_us", Lower),
    layer("transport.udp_rtt_p50_us", "us", Lower),
    layer("transport.udp_rtt_p99_us", "us", Lower),
];

/// Every per-layer metric: the ledger's (all costs, lower is better),
/// then the traced run's.
pub fn per_layer() -> Vec<MetricDef> {
    ledger::METRICS.iter().map(|&(name, unit)| layer(name, unit, Lower)).chain(TRACED).collect()
}

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Reading {
    /// Metric name.
    pub name: &'static str,
    /// The number, with all its digits.
    pub value: f64,
    /// Unit, as declared.
    pub unit: &'static str,
}

fn value(def: &MetricDef, value: f64) -> Reading {
    Reading { name: def.name, value, unit: def.unit }
}

/// The end-to-end metrics of an untraced run, in [`END_TO_END`] order.
pub fn end_to_end(run: &Run) -> Vec<Reading> {
    let deliveries = run.deliveries().max(1) as f64;
    let p50 = run.latency_us.quantile(0.5).unwrap_or(0);
    // The highest percentile with at least ten samples beyond it; p99
    // for every frozen size (the sample count is printed beside it).
    let tail = run.latency_us.tail().map_or(p50, |(_, v)| v);
    let numbers = [
        run.setup_s(),
        run.deliveries_per_host_s(),
        run.allocs as f64 / deliveries,
        run.heap_peak_bytes as f64 / (1024.0 * 1024.0),
        p50 as f64,
        tail as f64,
        run.delivery_ratio(),
        run.wire_bytes as f64 / run.payload_bytes.max(1) as f64,
    ];
    END_TO_END.iter().zip(numbers).map(|(d, n)| value(d, n)).collect()
}

/// The traced-run metrics, in [`TRACED`] order. `untraced` is the same
/// segment on the repository's harness, `traced` on the span-recording
/// loop.
pub fn traced(untraced: &Run, traced: &Run) -> Vec<Reading> {
    let rec = traced.spans.as_ref().expect("a traced run carries its recorder");
    let step = rec.aggregate(Span::DriverStep).total_ns.max(1) as f64;
    let self_share = |s: Span| rec.aggregate(s).self_ns as f64 / step;
    let ticks = rec.aggregate(Span::ContainerTick).count.max(1) as f64;
    let c = &traced.counters;
    let host_us = |q: f64| traced.host_rtt_ns.quantile(q).map_or(0.0, |ns| ns as f64 / 1e3);
    let numbers = [
        self_share(Span::NetsimAdvance),
        self_share(Span::TransportSend) + self_share(Span::TransportRecv),
        rec.handler_self_ns() as f64 / step,
        self_share(Span::ContainerTick),
        rec.idle_ticks() as f64 / ticks,
        traced.segment_host_s() / untraced.segment_host_s().max(1e-9),
        untraced.segment_virt_us as f64 / 1e6 / untraced.segment_host_s().max(1e-9),
        untraced.segment_cpu_s.map_or(0.0, |cpu| cpu / untraced.segment_host_s().max(1e-9)),
        c.ticks as f64,
        c.tasks_executed as f64,
        c.queue_peak as f64,
        c.frames_out as f64,
        c.frames_in as f64,
        c.retransmits as f64,
        c.arq_failed as f64,
        c.fec_parity_out as f64,
        c.fec_recovered as f64,
        c.deadline_misses as f64,
        c.queue_drops as f64,
        c.call_errors as f64,
        traced.datagrams as f64,
        traced.dropped_loss as f64,
        traced.datagrams as f64 / traced.deliveries().max(1) as f64,
        traced.lag_us.tail().map_or(0.0, |(_, v)| v as f64),
        host_us(0.5),
        traced.host_rtt_ns.tail().map_or(0.0, |(_, ns)| ns as f64 / 1e3),
    ];
    TRACED.iter().zip(numbers).map(|(d, n)| value(d, n)).collect()
}

/// What the run's own output check found wrong (empty: all correct).
pub fn check(run: &Run) -> Vec<String> {
    let mut wrong = Vec::new();
    let t = &run.totals;
    if t.duplicates > 0 || t.corrupt > 0 {
        wrong.push(format!("{} duplicated and {} corrupt deliveries", t.duplicates, t.corrupt));
    }
    if run.counters.type_mismatches > 0 {
        wrong.push(format!("{} type mismatches", run.counters.type_mismatches));
    }
    if run.deliveries() == 0 {
        wrong.push("nothing was delivered".to_owned());
    }
    if run.steady {
        if run.failed() > 0 {
            wrong.push(format!("{} of {} deliveries failed", run.failed(), t.expected_total()));
        }
        if run.windows.iter().any(|w| w.deliveries != run.windows[0].deliveries) {
            let counts: Vec<u64> = run.windows.iter().map(|w| w.deliveries).collect();
            wrong.push(format!("constant-rate windows delivered unequal counts {counts:?}"));
        }
    } else {
        // command_lossy: events are exactly-once whatever the link does;
        // a call may run out of attempts, but fewer than 1 in 1000.
        for kind in crate::services::Kind::ALL {
            let (owed, got) = (t.expected[kind as usize], t.correct[kind as usize]);
            let floor =
                if kind == crate::services::Kind::Reply { owed - owed / 1000 } else { owed };
            if got < floor {
                wrong.push(format!("{kind:?}: {got} of {owed} delivered"));
            }
        }
    }
    wrong
}

/// Counted quantities a traced run must share with the untraced run of
/// the same segment.
pub fn traced_mismatch(untraced: &Run, traced: &Run) -> Vec<String> {
    let pairs = [
        ("delivered", untraced.deliveries(), traced.deliveries()),
        ("datagrams_sent", untraced.datagrams, traced.datagrams),
        ("bytes_sent", untraced.wire_bytes, traced.wire_bytes),
    ];
    pairs
        .into_iter()
        .filter(|(_, a, b)| a != b)
        .map(|(what, a, b)| format!("traced run's {what} is {b}, untraced {a}"))
        .collect()
}

// ---- text -----------------------------------------------------------------

fn json_number(out: &mut String, v: f64) {
    // Rust prints the shortest digits that read back to the same f64:
    // nothing is rounded away.
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// The driver's result line: one JSON object with exactly the keys
/// `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Reading]) -> String {
    let mut out = String::with_capacity(256 + metrics.len() * 64);
    let _ = write!(
        out,
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
        attempted.max(1)
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "\"{}\": {{\"value\": ", m.name);
        json_number(&mut out, m.value);
        let _ = write!(out, ", \"unit\": \"{}\"}}", m.unit);
    }
    out.push_str("}}");
    out
}

/// A table of values for the terminal.
pub fn table(values: &[Reading]) -> String {
    let width = values.iter().map(|v| v.name.len()).max().unwrap_or(0);
    let mut out = String::new();
    for v in values {
        let _ = writeln!(out, "  {:<width$}  {:>16.4} {}", v.name, v.value, v.unit);
    }
    out
}

/// `true` for a name `BENCHMARK.json` accepts: starts with a letter or a
/// digit, at most 64 of letters, digits, `_`, `.`, `-`.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// The text of `BENCHMARK.json`, generated from the definitions above so
/// that the file and the program cannot disagree.
pub fn manifest() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\", \"run\"],\n",
    );
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, w) in Workload::ALL.iter().enumerate() {
        let comma = if i + 1 < Workload::ALL.len() { "," } else { "" };
        let _ =
            writeln!(out, "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}", w.name(), w.why());
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        assert!(valid_name(m.name), "metric name {:?}", m.name);
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound.expect("end-to-end metrics carry a bound"),
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    let layers = per_layer();
    for (i, m) in layers.iter().enumerate() {
        assert!(valid_name(m.name), "metric name {:?}", m.name);
        let comma = if i + 1 < layers.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}",
            m.name,
            m.unit,
            m.better.as_str(),
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// Where the numbers were taken: logical CPUs, CPU model, compiler.
pub fn fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    format!("nproc={nproc}; cpu={cpu}; {}", env!("BENCH_RUSTC"))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The names and units in the manifest text, read back with a scan
    /// that knows only the writer's `"name": "…"` / `"unit": "…"` shape.
    fn read_back(text: &str, key: &str) -> Vec<String> {
        let needle = format!("\"{key}\": \"");
        text.match_indices(&needle)
            .map(|(at, _)| {
                let rest = &text[at + needle.len()..];
                rest[..rest.find('"').expect("closing quote")].to_owned()
            })
            .collect()
    }

    #[test]
    fn manifest_round_trips_names_and_units() {
        let text = manifest();
        let mut declared: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_owned()).collect();
        declared.extend(END_TO_END.iter().map(|m| m.name.to_owned()));
        declared.extend(per_layer().iter().map(|m| m.name.to_owned()));
        assert_eq!(read_back(&text, "name"), declared);
        let mut seen = std::collections::BTreeSet::new();
        for name in &declared {
            assert!(valid_name(name), "{name:?} has a character outside letters, digits, _ . -");
            assert!(seen.insert(name), "{name} is used twice");
        }
        let units: Vec<String> =
            END_TO_END.iter().chain(&per_layer()).map(|m| m.unit.to_owned()).collect();
        assert_eq!(read_back(&text, "unit"), units);
        let unit_ok = |u: &str| {
            u.len() <= 16 && u.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        assert!(units.iter().all(|u| unit_ok(u)));
        assert!(Workload::ALL.iter().all(|w| w.why().len() <= 200 && !w.why().contains('"')));
        assert!(text.len() < 64 * 1024);
    }

    #[test]
    fn names_outside_the_alphabet_are_refused() {
        for good in ["setup_s", "trace.netsim_share", "p99-us", "9lives"] {
            assert!(valid_name(good), "{good}");
        }
        for bad in ["", "_lead", ".lead", "with space", "µs", "a/b", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad:?}");
        }
    }

    #[test]
    fn checked_in_manifest_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(on_disk, manifest(), "regenerate with `-- manifest > BENCHMARK.json`");
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line =
            result_line(true, 10, 0, &[Reading { name: "setup_s", value: 0.8127, unit: "s" }]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
    }
}
