//! marea-trace — query the flight recorder of a chaos-scenario run.
//!
//! Re-runs a named corpus scenario under its seed and dumps what the
//! per-node flight recorders captured. Everything is deterministic: the
//! scenario name and seed fully determine the output, byte for byte, so
//! a violation seen in CI reproduces on any machine with the same two
//! arguments.
//!
//! Usage:
//!
//! ```text
//! marea-trace list
//! marea-trace <scenario> [--seed N] [--json] dump
//!     [--node N] [--kind LABEL] [--channel NAME] [--last N]
//! marea-trace <scenario> [--seed N] [--json] chain <origin:counter>
//! marea-trace <scenario> [--seed N] [--json] violations
//! marea-trace <scenario> [--seed N] [--json] histo
//! ```
//!
//! `dump` (the default) prints every recorded event in causal order;
//! `chain` assembles the cross-node journey of one trace id; `histo`
//! prints each node's latency histograms (publish→deliver, call RTT,
//! RTO recovery); `violations` replays the run's invariant breaches
//! complete with the flight-recorder tail and assembled causal chain —
//! the same evidence the scenario corpus attaches in CI.

use marea_core::scenario::corpus::{self, ScenarioConfig};
use marea_core::scenario::{ScenarioReport, Violation};
use marea_core::trace::{render_event, LatencyHistogram, TraceEvent, TraceId};
use marea_core::{NodeId, SimHarness};

enum Mode {
    Dump,
    Chain(TraceId),
    Violations,
    Histo,
}

struct Opts {
    scenario: String,
    seed: u64,
    mode: Mode,
    node: Option<u32>,
    kind: Option<String>,
    channel: Option<String>,
    last: Option<usize>,
    json: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: marea-trace <scenario|list> [--seed N] [--json] \
         [dump [--node N] [--kind LABEL] [--channel NAME] [--last N] \
         | chain <origin:counter> | violations | histo]"
    );
    std::process::exit(2)
}

fn parse_trace_id(s: &str) -> Option<TraceId> {
    let (origin, counter) = s.split_once(':')?;
    Some(TraceId::new(NodeId(origin.parse().ok()?), counter.parse().ok()?))
}

fn parse_args() -> Opts {
    let mut raw = std::env::args().skip(1);
    let scenario = match raw.next() {
        Some(s) => s,
        None => usage(),
    };
    let mut opts = Opts {
        scenario,
        seed: 42,
        mode: Mode::Dump,
        node: None,
        kind: None,
        channel: None,
        last: None,
        json: false,
    };
    let value = |raw: &mut dyn Iterator<Item = String>, flag: &str| match raw.next() {
        Some(v) => v,
        None => {
            eprintln!("error: {flag} needs a value");
            std::process::exit(2);
        }
    };
    while let Some(a) = raw.next() {
        match a.as_str() {
            "--seed" => opts.seed = value(&mut raw, "--seed").parse().unwrap_or_else(|_| usage()),
            "--node" => {
                opts.node = Some(value(&mut raw, "--node").parse().unwrap_or_else(|_| usage()))
            }
            "--kind" => opts.kind = Some(value(&mut raw, "--kind")),
            "--channel" => opts.channel = Some(value(&mut raw, "--channel")),
            "--last" => {
                opts.last = Some(value(&mut raw, "--last").parse().unwrap_or_else(|_| usage()))
            }
            "--json" => opts.json = true,
            "dump" => opts.mode = Mode::Dump,
            "chain" => {
                let id = value(&mut raw, "chain");
                opts.mode = Mode::Chain(parse_trace_id(&id).unwrap_or_else(|| {
                    eprintln!("error: chain id must be <origin:counter>, got `{id}`");
                    std::process::exit(2);
                }));
            }
            "violations" => opts.mode = Mode::Violations,
            "histo" => opts.mode = Mode::Histo,
            _ => usage(),
        }
    }
    opts
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn event_json(node: NodeId, ev: &TraceEvent) -> String {
    format!(
        "{{\"at_us\": {}, \"node\": {}, \"incarnation\": {}, \"kind\": \"{}\", \
         \"trace\": \"{}\", \"peer\": {}, \"seq\": {}, \"name\": {}}}",
        ev.at.0,
        node.0,
        ev.incarnation,
        ev.kind.label(),
        ev.trace,
        ev.peer.map(|p| p.0.to_string()).unwrap_or_else(|| "null".into()),
        ev.seq,
        match &ev.name {
            Some(n) => format!("\"{}\"", json_escape(n.as_str())),
            None => "null".into(),
        }
    )
}

/// Every recorded event across every ring, in the same deterministic
/// causal order [`assemble_chain`](marea_core::trace::assemble_chain)
/// uses.
fn all_events(h: &SimHarness) -> Vec<(NodeId, TraceEvent)> {
    let mut out: Vec<(NodeId, TraceEvent)> = Vec::new();
    for (node, ring) in h.trace_rings() {
        out.extend(ring.events().map(|ev| (node, ev)));
    }
    out.sort_by_key(|(node, ev)| (ev.at, *node, ev.incarnation, ev.kind, ev.seq));
    out
}

fn dump(h: &SimHarness, opts: &Opts) {
    let mut events = all_events(h);
    events.retain(|(node, ev)| {
        opts.node.is_none_or(|n| node.0 == n)
            && opts.kind.as_deref().is_none_or(|k| ev.kind.label() == k)
            && opts
                .channel
                .as_deref()
                .is_none_or(|c| ev.name.as_ref().map(|n| n.as_str()) == Some(c))
    });
    if let Some(last) = opts.last {
        let skip = events.len().saturating_sub(last);
        events.drain(..skip);
    }
    if opts.json {
        let body: Vec<String> =
            events.iter().map(|(node, ev)| format!("    {}", event_json(*node, ev))).collect();
        println!("{{\n  \"events\": [\n{}\n  ]\n}}", body.join(",\n"));
    } else {
        for (node, ev) in &events {
            println!("{}", render_event(*node, ev));
        }
        println!("-- {} events", events.len());
        for (node, ring) in h.trace_rings() {
            if ring.evicted() > 0 {
                println!("-- n{}: {} older events evicted from the ring", node.0, ring.evicted());
            }
        }
    }
}

fn chain(h: &SimHarness, trace: TraceId, json: bool) {
    let links = h.trace_chain(trace);
    if json {
        let body: Vec<String> =
            links.iter().map(|(node, ev)| format!("    {}", event_json(*node, ev))).collect();
        println!("{{\n  \"trace\": \"{trace}\",\n  \"chain\": [\n{}\n  ]\n}}", body.join(",\n"));
    } else if links.is_empty() {
        println!("no recorded events carry trace {trace}");
    } else {
        println!("causal chain of trace {trace}:");
        for (node, ev) in &links {
            println!("{}", render_event(*node, ev));
        }
    }
}

fn violation_text(v: &Violation) {
    let node = v.node.map(|n| format!("n{}", n.0)).unwrap_or_else(|| "-".into());
    let channel = v.channel.as_ref().map(|c| c.as_str()).unwrap_or("-");
    println!("VIOLATION {} at {}us node={} channel={}", v.invariant, v.at.0, node, channel);
    println!("  {}", v.detail);
    if !v.trace.is_empty() {
        println!("  flight recorder tail:");
        for line in &v.trace {
            println!("  {line}");
        }
    }
    if !v.chain.is_empty() {
        println!("  causal chain:");
        for line in &v.chain {
            println!("  {line}");
        }
    }
}

fn violations(report: &ScenarioReport, json: bool) -> i32 {
    if json {
        let body: Vec<String> = report
            .violations
            .iter()
            .map(|v| {
                let lines = |ls: &[String]| {
                    ls.iter()
                        .map(|l| format!("\"{}\"", json_escape(l)))
                        .collect::<Vec<_>>()
                        .join(", ")
                };
                format!(
                    "    {{\"invariant\": \"{}\", \"at_us\": {}, \"node\": {}, \
                     \"channel\": {}, \"detail\": \"{}\", \"trace\": [{}], \"chain\": [{}]}}",
                    json_escape(&v.invariant),
                    v.at.0,
                    v.node.map(|n| n.0.to_string()).unwrap_or_else(|| "null".into()),
                    v.channel
                        .as_ref()
                        .map(|c| format!("\"{}\"", json_escape(c.as_str())))
                        .unwrap_or_else(|| "null".into()),
                    json_escape(&v.detail),
                    lines(&v.trace),
                    lines(&v.chain),
                )
            })
            .collect();
        println!("{{\n  \"violations\": [\n{}\n  ]\n}}", body.join(",\n"));
    } else if report.violations.is_empty() {
        println!("no violations: {} checks passed", report.checks_run);
    } else {
        for v in &report.violations {
            violation_text(v);
        }
    }
    i32::from(!report.violations.is_empty())
}

fn histo_row(label: &str, h: &LatencyHistogram) -> String {
    // Empty histograms emit the same field set as populated ones
    // (`count=0`, `-` bounds) so text-mode output parses uniformly,
    // mirroring the JSON mode's explicit nulls.
    let bound = |v: Option<u64>| v.map(|x| format!("{x}us")).unwrap_or_else(|| "-".into());
    format!(
        "  {label:<18} count={:<8} p50<={} p99<={} p999<={}",
        h.count(),
        bound(h.p50_us()),
        bound(h.p99_us()),
        bound(h.p999_us())
    )
}

fn histo_json(label: &str, h: &LatencyHistogram) -> String {
    format!(
        "\"{label}\": {{\"count\": {}, \"p50_us\": {}, \"p99_us\": {}, \"p999_us\": {}}}",
        h.count(),
        h.p50_us().map(|v| v.to_string()).unwrap_or_else(|| "null".into()),
        h.p99_us().map(|v| v.to_string()).unwrap_or_else(|| "null".into()),
        h.p999_us().map(|v| v.to_string()).unwrap_or_else(|| "null".into()),
    )
}

fn histo(h: &SimHarness, json: bool) {
    let mut nodes: Vec<NodeId> = h.trace_rings().iter().map(|(n, _)| *n).collect();
    nodes.sort();
    if json {
        let body: Vec<String> = nodes
            .iter()
            .filter_map(|n| h.container(*n).map(|c| (n, c.stats())))
            .map(|(n, s)| {
                format!(
                    "    {{\"node\": {}, {}, {}, {}, {}}}",
                    n.0,
                    histo_json("publish_to_deliver", &s.publish_to_deliver),
                    histo_json("event_to_deliver", &s.event_to_deliver),
                    histo_json("call_rtt", &s.call_rtt),
                    histo_json("rto_recovery", &s.rto_recovery),
                )
            })
            .collect();
        println!("{{\n  \"nodes\": [\n{}\n  ]\n}}", body.join(",\n"));
    } else {
        for n in nodes {
            let Some(c) = h.container(n) else { continue };
            let s = c.stats();
            println!("n{}:", n.0);
            println!("{}", histo_row("publish_to_deliver", &s.publish_to_deliver));
            println!("{}", histo_row("event_to_deliver", &s.event_to_deliver));
            println!("{}", histo_row("call_rtt", &s.call_rtt));
            println!("{}", histo_row("rto_recovery", &s.rto_recovery));
        }
    }
}

fn main() {
    let opts = parse_args();
    if opts.scenario == "list" {
        for name in corpus::NAMES {
            println!("{name}");
        }
        return;
    }
    let cfg = ScenarioConfig::quick(opts.seed);
    let Some(mut chaos) = corpus::build(&opts.scenario, &cfg) else {
        eprintln!(
            "error: unknown scenario `{}`; known: {}",
            opts.scenario,
            corpus::NAMES.join(", ")
        );
        std::process::exit(2);
    };
    let report = chaos.run();
    let h = chaos.runner.harness();
    let code = match &opts.mode {
        Mode::Dump => {
            dump(h, &opts);
            0
        }
        Mode::Chain(id) => {
            chain(h, *id, opts.json);
            0
        }
        Mode::Violations => violations(&report, opts.json),
        Mode::Histo => {
            histo(h, opts.json);
            0
        }
    };
    std::process::exit(code);
}
