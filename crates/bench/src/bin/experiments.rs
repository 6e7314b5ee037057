//! Regenerates every figure/claim table recorded in DESIGN.md §4.
//!
//! Usage: `cargo run -p marea-bench --release --bin experiments [-- <id>...]`
//! where `<id>` is one of `f1 f2 c1 c2 c3 c4 c5 c6 c7 c8 c9 c10 c11` or
//! `all` (default). All numbers are virtual-time/deterministic:
//! identical on every machine.
//!
//! `--json <section> <path>` additionally writes one section's numbers
//! as a machine-readable document, where `<section>` is `suite` (the
//! full table set), `fec` (the C9 loss sweep), `trace` (the C10
//! flight-recorder comparison) or `swarm` (the C11 fleet-size sweep);
//! `--json all <dir>` writes every section to its checked-in filename
//! inside `<dir>`. The checked-in copies at the repo root regenerate with
//! `cargo run -p marea-bench --release --bin experiments -- --json all .`
//! (`BENCH_experiments.json`, `BENCH_fec_loss.json`,
//! `BENCH_trace_overhead.json`, `BENCH_swarm_scale.json`).
//!
//! Each experiment below states its parameter grid once and returns its
//! rows as [`Cell`]s; [`print_table`] and [`json_document`] are the only
//! two renderers.

use std::collections::BTreeMap;
use std::fmt::Display;

use marea_bench::*;
use marea_core::SchedulerKind;
use marea_protocol::FecRate;

/// One measured quantity of a row, stated once: its table column
/// (header, width, text), its JSON member (key, value), or both — the
/// two renderings often differ in precision or unit.
struct Cell {
    column: Option<(&'static str, usize, String)>,
    left_aligned: bool,
    json: Option<(&'static str, String)>,
}

impl Cell {
    /// Row labels read left-aligned; numbers stay right-aligned.
    fn left(mut self) -> Cell {
        self.left_aligned = true;
        self
    }

    /// The column header or this row's text, padded to the column
    /// width; `None` for JSON-only cells.
    fn padded(&self, header: bool) -> Option<String> {
        let (head, width, text) = self.column.as_ref()?;
        let s = if header { head } else { text.as_str() };
        Some(if self.left_aligned { format!("{s:<width$}") } else { format!("{s:>width$}") })
    }
}

/// A quantity rendered `json` in the document and `text` in the table.
fn cell(
    head: &'static str,
    width: usize,
    key: &'static str,
    json: impl Display,
    text: impl Display,
) -> Cell {
    Cell {
        column: Some((head, width, text.to_string())),
        left_aligned: false,
        json: Some((key, json.to_string())),
    }
}

/// A quantity rendered identically in both places.
fn num(head: &'static str, width: usize, key: &'static str, v: impl Display) -> Cell {
    cell(head, width, key, &v, &v)
}

/// A mean in µs: three decimals in the document, rounded in the table.
fn mean(head: &'static str, width: usize, key: &'static str, us: f64) -> Cell {
    cell(head, width, key, format!("{us:.3}"), format!("{us:.0}"))
}

fn json_only(key: &'static str, v: impl Display) -> Cell {
    Cell { column: None, left_aligned: false, json: Some((key, v.to_string())) }
}

/// A derived `a / b` column, table only.
fn ratio(head: &'static str, width: usize, v: f64) -> Cell {
    Cell { column: Some((head, width, format!("{v:.1}x"))), left_aligned: false, json: None }
}

fn kib(bytes: usize) -> String {
    format!("{}KiB", bytes / 1024)
}

/// What one experiment measured: its rows plus free-form table footers.
struct Outcome {
    rows: Vec<Vec<Cell>>,
    notes: Vec<String>,
}

impl FromIterator<Vec<Cell>> for Outcome {
    fn from_iter<I: IntoIterator<Item = Vec<Cell>>>(rows: I) -> Self {
        Outcome { rows: rows.into_iter().collect(), notes: Vec::new() }
    }
}

struct Experiment {
    /// CLI id; also the banner label, uppercased.
    id: &'static str,
    /// Member name of the rows array in the JSON documents.
    key: &'static str,
    title: &'static str,
    /// The paper passage the experiment reproduces; `None` continues
    /// the previous experiment's banner as a sub-table.
    anchor: Option<&'static str>,
    run: fn() -> Outcome,
}

/// Every experiment, in table-printing order.
const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        id: "f1",
        key: "f1_discovery",
        title: "fleet discovery time",
        anchor: Some("Fig. 1 — services distributed over nodes"),
        run: f1_discovery,
    },
    Experiment {
        id: "f2",
        key: "f2_local_vs_remote",
        title: "in-container vs networked delivery",
        anchor: Some("Fig. 2 — the container communicates services locally or across the LAN"),
        run: f2_local_vs_remote,
    },
    Experiment {
        id: "c1",
        key: "c1_event_vs_rpc",
        title: "event one-way latency vs remote-invocation round trip",
        anchor: Some("§4.3 — \"events seem faster than their function equivalent\""),
        run: c1_event_vs_rpc,
    },
    Experiment {
        id: "c2",
        key: "c2_fanout",
        title: "variable distribution wire cost vs subscriber count",
        anchor: Some("§4.1 — multicast \"allows optimizing the bandwidth use\""),
        run: c2_fanout,
    },
    Experiment {
        id: "c3",
        key: "c3_arq_vs_tcp",
        title: "sporadic event delivery: middleware ARQ vs generic TCP",
        anchor: Some(
            "§4.2 — app-layer retransmission \"more efficient ... than the generic case provided by the TCP stack\"",
        ),
        run: c3_arq_vs_tcp,
    },
    Experiment {
        id: "c4",
        key: "c4_file_distribution",
        title: "file distribution: multicast MFTP vs unicast-equivalent",
        anchor: Some("§4.4 — \"huge performance benefits\" of the dedicated primitive"),
        run: c4_file_distribution,
    },
    Experiment {
        id: "c5",
        key: "c5_scheduler",
        title: "event handler latency under load: priority vs FIFO scheduler",
        anchor: Some(
            "§6 — \"a simple thread pool with fixed priorities for each named primitive\"",
        ),
        run: c5_scheduler,
    },
    Experiment {
        id: "c5",
        key: "c5b_qos_contract",
        title: "C5b — per-subscription QoS contract (EventQos::bulk + bounded inbox)",
        anchor: None,
        run: c5b_qos_contract,
    },
    Experiment {
        id: "c6",
        key: "c6_failover",
        title: "provider failover",
        anchor: Some(
            "§4.3 — \"redirect requests to the redundant service ... continue its mission\"",
        ),
        run: c6_failover,
    },
    Experiment {
        id: "c7",
        key: "c7_bypass",
        title: "same-node file bypass",
        anchor: Some(
            "§4.4 — \"the transfer is bypassed by the container as direct access to the resource\"",
        ),
        run: c7_bypass,
    },
    Experiment {
        id: "c8",
        key: "c8_scenario_failover",
        title: "chaos scenario: publisher failover recovery time",
        anchor: Some(
            "§4.3 — crash detection + transparent failover, measured by the RTO invariant",
        ),
        run: c8_scenario_failover,
    },
    Experiment {
        id: "c9",
        key: "c9_fec_loss",
        title: "bulk goodput under radio loss: plain ARQ vs ARQ+FEC vs TCP",
        anchor: Some(
            "§4.2 — repair data reconstructs erased frames without paying the retransmission RTT",
        ),
        run: c9_fec_loss,
    },
    Experiment {
        id: "c10",
        key: "c10_trace_overhead",
        title: "flight-recorder overhead: traced vs untraced worst-case flood",
        anchor: Some("DESIGN.md §8 — the recorder must be cheap enough to leave on in flight"),
        run: c10_trace_overhead,
    },
    Experiment {
        id: "c11",
        key: "c11_swarm_scale",
        title: "swarm scale: sim-core wire cost vs fleet size",
        anchor: Some(
            "DESIGN.md §10 — due-date scheduling + digest gossip keep the control plane subquadratic per period",
        ),
        run: c11_swarm_scale,
    },
];

/// One `--json` document: which experiments it carries, under what
/// envelope, and its checked-in file name. Every document always covers
/// its full section regardless of which table ids were requested, so the
/// checked-in copies never depend on the table selection.
struct Document {
    section: &'static str,
    file: &'static str,
    keys: &'static [&'static str],
    params: Option<String>,
    /// The ignored release-mode test carrying the wall-clock side of the
    /// claim; only virtual-time quantities appear in the rows.
    wall_clock_gate: Option<&'static str>,
}

fn documents() -> [Document; 4] {
    [
        Document {
            section: "suite",
            file: "BENCH_experiments.json",
            keys: &[
                "f1_discovery",
                "f2_local_vs_remote",
                "c1_event_vs_rpc",
                "c2_fanout",
                "c3_arq_vs_tcp",
                "c4_file_distribution",
                "c5_scheduler",
                "c5b_qos_contract",
                "c6_failover",
                "c7_bypass",
                "c8_scenario_failover",
                "c10_trace_overhead",
            ],
            params: None,
            wall_clock_gate: None,
        },
        Document {
            section: "fec",
            file: "BENCH_fec_loss.json",
            keys: &["c9_fec_loss"],
            params: None,
            wall_clock_gate: None,
        },
        Document {
            section: "trace",
            file: "BENCH_trace_overhead.json",
            keys: &["c10_trace_overhead"],
            params: Some(format!(
                "{{\"bg_per_tick\": {C10_BG_PER_TICK}, \"critical_events\": {C10_EVENTS}, \
                 \"seed\": {C10_SEED}}}"
            )),
            wall_clock_gate: Some(
                "trace_overhead_stays_within_five_percent: \
                 traced wall-clock <= 1.05x untraced, release mode",
            ),
        },
        Document {
            section: "swarm",
            file: "BENCH_swarm_scale.json",
            keys: &["c11_swarm_scale"],
            params: Some(format!(
                "{{\"tick_us\": {SWARM_TICK_US}, \"settle_ms\": {SWARM_SETTLE_MS}, \
                 \"window_ms\": {SWARM_WINDOW_MS}, \"seed\": {C11_SEED}}}"
            )),
            wall_clock_gate: Some(
                "swarm_virt_s_per_host_s_floor_at_256_nodes: \
                 >= 1.0 simulated s per host s at 256 nodes, release mode",
            ),
        },
    ]
}

fn main() {
    let docs = documents();
    let mut json_requests: Vec<(String, String)> = Vec::new();
    let mut ids: Vec<String> = Vec::new();
    let mut raw = std::env::args().skip(1);
    let usage = || -> ! {
        eprintln!(
            "error: usage: experiments [<id>...] [--json <suite|fec|trace|swarm|all> <path>]"
        );
        std::process::exit(2);
    };
    while let Some(a) = raw.next() {
        if a == "--json" {
            let known = |s: &String| s == "all" || docs.iter().any(|d| d.section == s);
            match (raw.next().filter(known), raw.next()) {
                (Some(section), Some(path)) => json_requests.push((section, path)),
                _ => usage(),
            }
        } else if a.starts_with("--") {
            usage();
        } else {
            ids.push(a);
        }
    }
    let mut ran = Outcomes::new();
    let all = ids.is_empty() || ids.iter().any(|a| a == "all");
    for e in EXPERIMENTS.iter().filter(|e| all || ids.iter().any(|a| a == e.id)) {
        print_table(e, outcome_of(&mut ran, e.key));
    }
    for (section, path) in json_requests {
        for d in docs.iter().filter(|d| section == "all" || section == d.section) {
            let path = if section == "all" { format!("{path}/{}", d.file) } else { path.clone() };
            match std::fs::write(&path, json_document(d, &mut ran)) {
                Ok(()) => println!("\nwrote {path}"),
                Err(e) => {
                    eprintln!("error: writing {path}: {e}");
                    std::process::exit(2);
                }
            }
        }
    }
}

/// Each experiment runs at most once, however many tables and documents
/// show it.
type Outcomes = BTreeMap<&'static str, Outcome>;

fn outcome_of<'a>(ran: &'a mut Outcomes, key: &str) -> &'a Outcome {
    let e = EXPERIMENTS.iter().find(|e| e.key == key).expect("a listed experiment");
    ran.entry(e.key).or_insert_with(e.run)
}

fn print_table(e: &Experiment, outcome: &Outcome) {
    match e.anchor {
        Some(anchor) => {
            println!("\n== {}: {}\n   paper anchor: {anchor}", e.id.to_uppercase(), e.title)
        }
        None => println!("\n   {}", e.title),
    }
    let line = |row: &[Cell], header: bool| {
        let cells: Vec<String> = row.iter().filter_map(|c| c.padded(header)).collect();
        println!("   {}", cells.join(" "));
    };
    if let Some(first) = outcome.rows.first() {
        line(first, true);
    }
    for row in &outcome.rows {
        line(row, false);
    }
    for note in &outcome.notes {
        println!("   {note}");
    }
}

/// Renders one document. Everything in it is virtual-time or a
/// deterministic counter, so the bytes are identical on every machine
/// and safe to check in.
fn json_document(d: &Document, ran: &mut Outcomes) -> String {
    let mut members = Vec::new();
    if let Some(params) = &d.params {
        members.push(format!("  \"params\": {params}"));
    }
    for key in d.keys {
        let rows: Vec<String> = outcome_of(ran, key)
            .rows
            .iter()
            .map(|row| {
                let members: Vec<String> = row
                    .iter()
                    .filter_map(|c| c.json.as_ref())
                    .map(|(k, v)| format!("\"{k}\": {v}"))
                    .collect();
                format!("    {{{}}}", members.join(", "))
            })
            .collect();
        members.push(format!("  \"{key}\": [\n{}\n  ]", rows.join(",\n")));
    }
    if let Some(gate) = d.wall_clock_gate {
        members.push(format!("  \"wall_clock_gate\": \"{gate}\""));
    }
    format!("{{\n{}\n}}\n", members.join(",\n"))
}

fn f1_discovery() -> Outcome {
    [2u32, 4, 8, 16]
        .iter()
        .map(|&n| {
            let ms = bench_discovery(n, 100 + u64::from(n));
            vec![num("nodes", 8, "nodes", n).left(), num("full-mesh (ms)", 18, "full_mesh_ms", ms)]
        })
        .collect()
}

fn f2_local_vs_remote() -> Outcome {
    let (local, remote) = bench_local_vs_remote_event(100, 200);
    let row = |path: &str, r: &LatencyResult| {
        vec![
            cell("path", 22, "path", format!("{path:?}"), path).left(),
            mean("mean (µs)", 12, "mean_us", r.mean_us),
            num("max (µs)", 12, "max_us", r.max_us),
        ]
    };
    let note = if local.mean_us < 1.0 {
        "→ local delivery completes within the same tick (no frames, no links)".to_string()
    } else {
        let speedup = remote.mean_us / local.mean_us;
        format!("→ local bypass is {speedup:.1}x faster (no frames, no links)")
    };
    Outcome {
        rows: vec![row("same container", &local), row("across the LAN", &remote)],
        notes: vec![note],
    }
}

fn c1_event_vs_rpc() -> Outcome {
    [8usize, 64, 512]
        .iter()
        .map(|&payload| {
            let ev = bench_event_latency(payload, 100, 0.0, 300);
            let rpc = bench_rpc_rtt(payload, 100, 0.0, 300);
            vec![
                num("payload", 10, "payload_bytes", payload).left(),
                mean("event mean (µs)", 16, "event_mean_us", ev.mean_us),
                mean("rpc mean (µs)", 16, "rpc_mean_us", rpc.mean_us),
                ratio("rpc/event", 10, rpc.mean_us / ev.mean_us.max(1.0)),
            ]
        })
        .collect()
}

fn c2_fanout() -> Outcome {
    [1u32, 2, 4, 8, 16, 32]
        .iter()
        .map(|&subs| {
            let m = bench_var_fanout(subs, 100, true, 400);
            let u = bench_var_fanout(subs, 100, false, 400);
            let growth = u.publisher_datagrams as f64 / m.publisher_datagrams.max(1) as f64;
            vec![
                num("subs", 6, "subscribers", subs).left(),
                num("multicast dgrams", 18, "multicast_datagrams", m.publisher_datagrams),
                num("unicast dgrams", 18, "unicast_datagrams", u.publisher_datagrams),
                num("unicast bytes", 18, "unicast_bytes", u.publisher_bytes),
                ratio("ratio", 10, growth),
            ]
        })
        .collect()
}

fn c3_arq_vs_tcp() -> Outcome {
    [0.0, 0.001, 0.01, 0.05, 0.10]
        .iter()
        .map(|&loss| {
            let arq = bench_link_under_loss(FecRate::Off, loss, 100, 64, 20_000, 500);
            let tcp = bench_tcp_under_loss(loss, 100, 64, 20_000, 500);
            vec![
                cell("loss", 8, "loss", loss, format!("{:.1}%", loss * 100.0)).left(),
                mean("arq mean µs", 14, "arq_mean_us", arq.latency.mean_us),
                mean("tcp mean µs", 14, "tcp_mean_us", tcp.latency.mean_us),
                num("arq max µs", 14, "arq_max_us", arq.latency.max_us),
                num("tcp max µs", 14, "tcp_max_us", tcp.latency.max_us),
                num("arq bytes", 12, "arq_bytes", arq.wire_bytes),
                num("tcp bytes", 12, "tcp_bytes", tcp.wire_bytes),
            ]
        })
        .collect()
}

fn c4_file_distribution() -> Outcome {
    [
        (64 * 1024usize, 4u32, 0.0),
        (64 * 1024, 16, 0.0),
        (1024 * 1024, 4, 0.0),
        (1024 * 1024, 16, 0.0),
        (1024 * 1024, 8, 0.02),
        (4 * 1024 * 1024, 8, 0.0),
    ]
    .iter()
    .map(|&(size, subs, loss)| {
        let m = bench_file_multicast(size, subs, loss, 600);
        let u = bench_file_unicast_equivalent(size, subs, loss, 600);
        vec![
            cell("size", 10, "size_bytes", size, kib(size)).left(),
            num("subs", 6, "subscribers", subs).left(),
            cell("loss", 6, "loss", loss, format!("{:.0}%", loss * 100.0)).left(),
            num("mcast bytes", 16, "multicast_bytes", m.publisher_bytes),
            num("ucast bytes", 16, "unicast_bytes", u.publisher_bytes),
            ratio("saving", 10, u.publisher_bytes as f64 / m.publisher_bytes.max(1) as f64),
            num("mcast ms", 14, "multicast_completion_ms", m.completion_ms),
        ]
    })
    .collect()
}

fn c5_scheduler() -> Outcome {
    [0u32, 50, 150, 400]
        .iter()
        .map(|&bg| {
            let p = bench_scheduler_latency(SchedulerKind::Priority, bg, 50, 700);
            let f = bench_scheduler_latency(SchedulerKind::Fifo, bg, 50, 700);
            let load = format!("{bg} samples/tick");
            vec![
                cell("background load", 22, "background_per_tick", bg, load).left(),
                mean("prio mean µs", 14, "priority_mean_us", p.mean_us),
                mean("fifo mean µs", 14, "fifo_mean_us", f.mean_us),
                num("prio max µs", 14, "priority_max_us", p.max_us),
                num("fifo max µs", 14, "fifo_max_us", f.max_us),
            ]
        })
        .collect()
}

fn c5b_qos_contract() -> Outcome {
    let grid = [150u32, 400, 800].iter().flat_map(|&bulk| [(bulk, false), (bulk, true)]);
    grid.map(|(bulk, contract)| {
        let r = bench_qos_priority(contract, bulk, 50, 700);
        let load = format!("{bulk}/tick {}", if contract { "(contract)" } else { "(default)" });
        vec![
            json_only("bulk_per_tick", bulk),
            cell("bulk load", 22, "contract", contract, load).left(),
            mean("critical mean µs", 16, "critical_mean_us", r.critical.mean_us),
            num("critical max µs", 16, "critical_max_us", r.critical.max_us),
            num("bulk delivered", 14, "bulk_delivered", r.bulk_delivered),
            num("queue drops", 12, "queue_drops", r.queue_drops),
        ]
    })
    .collect()
}

fn c6_failover() -> Outcome {
    [800u64, 801, 802]
        .iter()
        .map(|&seed| {
            let r = bench_failover(seed);
            vec![
                num("seed", 8, "seed", seed).left(),
                num("blackout (ms)", 16, "blackout_ms", r.blackout_ms),
                num("app errors", 14, "app_errors", r.errors),
                num("failovers", 12, "failovers", r.failovers),
            ]
        })
        .collect()
}

fn c7_bypass() -> Outcome {
    [64 * 1024usize, 1024 * 1024, 8 * 1024 * 1024]
        .iter()
        .map(|&size| {
            let (deliveries, wire) = bench_file_bypass(size, 900);
            vec![
                cell("size", 10, "size_bytes", size, kib(size)).left(),
                num("bypass deliveries", 20, "bypass_deliveries", deliveries),
                num("wire bytes (control)", 22, "control_wire_bytes", wire),
            ]
        })
        .collect()
}

fn c8_scenario_failover() -> Outcome {
    [810u64, 811, 812]
        .iter()
        .map(|&seed| {
            let r = bench_scenario_failover(seed);
            vec![
                num("seed", 8, "seed", seed).left(),
                num("recovery (ms)", 16, "recovery_ms", r.recovery_ms),
                num("violations", 12, "violations", r.violations),
                num("calls ok", 12, "calls_ok", r.calls_ok),
                num("faults", 12, "faults_applied", r.events_applied),
            ]
        })
        .collect()
}

/// C9 parameters shared with the CI smoke gate in `marea_bench::tests` —
/// bulk mode (back-to-back sends) so goodput, not the send interval, is
/// what the sweep measures. The goodput division is integer.
const C9_N: u32 = 200;
const C9_MSG_LEN: usize = 64;
const C9_SEED: u64 = 9;

fn c9_fec_loss() -> Outcome {
    bench_fec_loss_sweep(C9_N, C9_MSG_LEN, C9_SEED)
        .iter()
        .map(|r| {
            let arq = r.arq.goodput_bps(r.payload_bytes);
            let fec = r.arq_fec.goodput_bps(r.payload_bytes);
            let loss = format!("{:.0}%", r.loss_permille as f64 / 10.0);
            vec![
                cell("loss", 8, "loss_permille", r.loss_permille, loss).left(),
                json_only("payload_bytes", r.payload_bytes),
                num("arq bps", 14, "arq_goodput_bps", arq),
                num("arq+fec bps", 16, "arq_fec_goodput_bps", fec),
                num("tcp bps", 14, "tcp_goodput_bps", r.tcp.goodput_bps(r.payload_bytes)),
                ratio("fec gain", 10, fec as f64 / arq.max(1) as f64),
                json_only("arq_completion_us", r.arq.completion_us),
                json_only("arq_fec_completion_us", r.arq_fec.completion_us),
                json_only("arq_wire_bytes", r.arq.wire_bytes),
                json_only("arq_fec_wire_bytes", r.arq_fec.wire_bytes),
                num("arq retx", 12, "arq_retransmissions", r.arq.retransmissions),
                num("fec retx", 12, "arq_fec_retransmissions", r.arq_fec.retransmissions),
            ]
        })
        .collect()
}

/// C10 parameters: the same worst-case flood the wall-clock gate in
/// `marea_bench::tests::trace_overhead_stays_within_five_percent` times
/// (every sample is tiny, so tracing cost has nowhere to hide).
const C10_BG_PER_TICK: u32 = 800;
const C10_EVENTS: u32 = 100;
const C10_SEED: u64 = 710;

fn c10_trace_overhead() -> Outcome {
    let mut wire = [0u64; 2];
    let mut outcome: Outcome = [true, false]
        .iter()
        .zip(&mut wire)
        .map(|(&traced, wire)| {
            let r = bench_trace_overhead_run(traced, C10_BG_PER_TICK, C10_EVENTS, C10_SEED);
            *wire = r.wire_bytes;
            let mean_us = format!("{:.1}", r.critical.mean_us);
            vec![
                cell("recorder", 10, "traced", traced, if traced { "on" } else { "off" }).left(),
                num("vars", 10, "vars_delivered", r.vars_delivered),
                num("criticals", 10, "critical_events", r.critical.count),
                num("mean us", 12, "critical_mean_us", mean_us),
                num("max us", 12, "critical_max_us", r.critical.max_us),
                num("trace evts", 12, "trace_events", r.trace_events),
                json_only("histogram_count", r.histogram_count),
                num("wire bytes", 12, "wire_bytes", r.wire_bytes),
            ]
        })
        .collect();
    outcome.notes = vec![
        format!(
            "wire overhead of trace ids: {:.2}% ({} extra bytes)",
            (wire[0] as f64 / wire[1] as f64 - 1.0) * 100.0,
            wire[0] - wire[1],
        ),
        "wall-clock gate: tests::trace_overhead_stays_within_five_percent (release, <=5%)".into(),
    ];
    outcome
}

const C11_SEED: u64 = 1_100;

fn c11_swarm_scale() -> Outcome {
    let mut outcome: Outcome = bench_swarm_scale(C11_SEED)
        .iter()
        .map(|r| {
            vec![
                num("nodes", 8, "nodes", r.nodes).left(),
                num("ticks", 12, "ticks", r.ticks),
                json_only("virtual_ms", r.virtual_ms),
                num("beacons", 12, "beacons_delivered", r.beacons_delivered),
                num("datagrams", 12, "datagrams", r.datagrams),
                num("wire bytes", 14, "wire_bytes", r.wire_bytes),
                num("full mesh", 10, "full_mesh", r.full_mesh),
            ]
        })
        .collect();
    outcome.notes =
        vec!["wall-clock gate: tests::swarm_virt_s_per_host_s_floor_at_256_nodes (release, >=1.0 sim s/host s)"
            .into()];
    outcome
}
