//! Command line of the benchmark; see `benchmark/README.md`.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use marea_benchmark::ledger;
use marea_benchmark::report::{self, MetricDef, Reading, DEFAULT_SEED, END_TO_END, RUN_SECONDS};
use marea_benchmark::run::{run, Run, FAST_END};
use marea_benchmark::services::Kind;
use marea_benchmark::stats::median;
use marea_benchmark::workloads::Workload;

const USAGE: &str = "\
usage: marea-benchmark <run|trace|aa|ledger|manifest> [options]

  run       measure; prints every metric by name with its unit, checks
            outputs, and ends with the driver's result line
  trace     `run --trace 1`: ledger probes plus the traced run
  aa        two end-to-end sets of the same code, compared against the
            benchmark's own bounds
  ledger    the per-layer ledger probes alone
  manifest  print BENCHMARK.json

  --workload W   one of telemetry_fanout, command_lossy, payload_bulk,
                 swarm_sparse, udp_rpc_loopback (default: all)
  --seed N       feeds the network RNG and the payload generator (default 1107)
  --trace 0|1    0: end-to-end metrics only; 1: per-layer metrics only
                 (default: both)
  --seconds 8    what the driver passes; the sizes are frozen, so no other
                 value is accepted
  --out DIR      where trace_<workload>.jsonl and the result files go
";

/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUPS: usize = 3;

struct Options {
    workloads: Vec<Workload>,
    seed: u64,
    /// Which sections `run` reports; `--trace` leaves one of them.
    end_to_end: bool,
    per_layer: bool,
    out: PathBuf,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workloads: Workload::ALL.to_vec(),
        seed: DEFAULT_SEED,
        end_to_end: true,
        per_layer: true,
        out: if Path::new("benchmark/Cargo.toml").exists() {
            PathBuf::from("benchmark/out")
        } else {
            PathBuf::from("out")
        },
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let w =
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?;
                o.workloads = vec![w];
            }
            "--seed" => o.seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                if value.parse() != Ok(f64::from(RUN_SECONDS)) {
                    return Err(format!("--seconds {value}: every run measures {RUN_SECONDS}"));
                }
            }
            "--trace" => match value.as_str() {
                "0" => (o.end_to_end, o.per_layer) = (true, false),
                "1" => (o.end_to_end, o.per_layer) = (false, true),
                _ => return Err(format!("--trace takes 0 or 1, not {value}")),
            },
            "--out" => o.out = PathBuf::from(value),
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    Ok(o)
}

fn save(out: &Path, file: &str, text: &str) {
    let written = std::fs::create_dir_all(out).and_then(|()| std::fs::write(out.join(file), text));
    if let Err(e) = written {
        eprintln!("warning: could not write {}: {e}", out.join(file).display());
    }
}

fn save_result(o: &Options, w: Workload, section: &str, line: &str) {
    let text = format!(
        "{{\"fingerprint\": \"{}\", \"seed\": {}, \"result\": {line}}}\n",
        report::fingerprint(),
        o.seed
    );
    save(&o.out, &format!("{}.{section}.json", w.name()), &text);
}

fn print_wrong(wrong: &[String]) {
    for w in wrong {
        println!("  CHECK FAILED: {w}");
    }
}

/// One workload measured end to end.
struct Measured {
    run: Run,
    values: Vec<Reading>,
    ok: bool,
}

/// The end-to-end section for one workload.
fn end_to_end(o: &Options, w: Workload) -> Measured {
    let r = run(w, o.seed, false, SETUPS);
    let values = report::end_to_end(&r);
    let wrong = report::check(&r);
    println!(
        "end to end: {} (seed {}, {} set-ups, {} windows)",
        w.name(),
        o.seed,
        SETUPS,
        r.windows.len()
    );
    if w == Workload::UdpRpcLoopback {
        println!("  closed loop, 1 client, loopback");
    }
    print!("{}", report::table(&values));
    describe(&r);
    print_wrong(&wrong);
    let line =
        report::result_line(wrong.is_empty(), r.totals.expected_total(), r.failed(), &values);
    save_result(o, w, "end_to_end", &line);
    println!("{line}");
    Measured { run: r, values, ok: wrong.is_empty() }
}

/// What the table leaves out: sample counts, the percentile actually
/// reported, the windows, the per-primitive tally.
fn describe(r: &Run) {
    let tail = r.latency_us.tail().map_or(0.5, |(q, _)| q);
    println!(
        "  latency samples {} (tail reported at p{:.2}); segment {:.3} host s = {:.3} simulated s",
        r.latency_us.count(),
        tail * 100.0,
        r.segment_host_s(),
        r.segment_virt_us as f64 / 1e6,
    );
    let windows: Vec<String> =
        r.windows.iter().map(|w| format!("{}/{:.3}s", w.deliveries, w.host_s)).collect();
    println!("  windows (deliveries/host time): {}", windows.join(" "));
    println!(
        "  deliveries per host s: p{:.0} of the windows is reported; their median {:.1}, the \
         whole segment {:.1}",
        FAST_END * 100.0,
        median(&r.window_rates()),
        r.deliveries() as f64 / r.segment_host_s(),
    );
    let setups: Vec<String> = r.setups_s.iter().map(|s| format!("{s:.3}")).collect();
    println!(
        "  set-ups (s): {}; widest spread of windows or set-ups {:.1} % of their median",
        setups.join(" "),
        r.host_spread() * 100.0
    );
    for kind in Kind::ALL {
        let (owed, got) = (r.totals.expected[kind as usize], r.totals.correct[kind as usize]);
        if owed > 0 {
            println!("  {kind:?}: {got} of {owed} owed deliveries correct");
        }
    }
    println!("  fleet counters over the segment: {:?}", r.counters);
    println!(
        "  duplicates {} corrupt {} call errors {} type mismatches {}; gen.lag_p99_us {}",
        r.totals.duplicates,
        r.totals.corrupt,
        r.totals.call_errors,
        r.counters.type_mismatches,
        r.lag_us.tail().map_or(0, |(_, v)| v),
    );
}

/// The per-layer section for one workload. `untraced` is the workload's
/// end-to-end run when that section ran too: the same segment.
fn layers(o: &Options, w: Workload, ledger_values: &[Reading], untraced: Option<Run>) -> bool {
    let untraced = untraced.unwrap_or_else(|| run(w, o.seed, false, 1));
    let traced = run(w, o.seed, true, 1);
    let mut wrong = report::check(&traced);
    // On sockets the kernel decides how many passes a reply needs, so
    // only the sim workloads promise identical counters.
    if w.is_sim() {
        wrong.extend(report::traced_mismatch(&untraced, &traced));
    }
    let trace_values = report::traced(&untraced, &traced);
    println!("per layer: {} (seed {})", w.name(), o.seed);
    print!("{}", report::table(&trace_values));
    let rec = traced.spans.as_ref().expect("traced run");
    println!("  spans (count, total ms, self ms):");
    for s in marea_benchmark::spans::Span::ALL {
        let a = rec.aggregate(s);
        if a.count > 0 {
            println!(
                "    {:<22} {:>10} {:>12.3} {:>12.3}",
                s.name(),
                a.count,
                a.total_ns as f64 / 1e6,
                a.self_ns as f64 / 1e6
            );
        }
    }
    save(&o.out, &format!("trace_{}.jsonl", w.name()), &rec.to_jsonl());
    print_wrong(&wrong);
    let mut values = ledger_values.to_vec();
    values.extend(trace_values);
    let line = report::result_line(
        wrong.is_empty(),
        traced.totals.expected_total(),
        traced.failed(),
        &values,
    );
    save_result(o, w, "per_layer", &line);
    println!("{line}");
    wrong.is_empty()
}

fn run_ledger(seed: u64) -> Vec<Reading> {
    let values = ledger::run(seed);
    println!("ledger probes (fastest of {} batches of {:?}):", ledger::BATCHES, ledger::BATCH);
    print!("{}", report::table(&values));
    values
}

fn cmd_run(o: &Options) -> bool {
    println!("host: {}", report::fingerprint());
    let mut ok = true;
    let ledger_values = if o.per_layer { run_ledger(o.seed) } else { Vec::new() };
    for &w in &o.workloads {
        let measured = o.end_to_end.then(|| end_to_end(o, w));
        ok &= measured.as_ref().is_none_or(|m| m.ok);
        if o.per_layer {
            ok &= layers(o, w, &ledger_values, measured.map(|m| m.run));
        }
    }
    ok
}

/// Share of `a` by which `b` differs.
fn relative_difference(a: f64, b: f64) -> f64 {
    if a == b {
        0.0
    } else {
        (b - a).abs() / a.abs().max(f64::MIN_POSITIVE)
    }
}

fn cmd_aa(o: &Options) -> bool {
    println!("host: {}", report::fingerprint());
    let mut sets: Vec<Vec<Measured>> = Vec::new();
    for set in ["A", "B"] {
        println!("== set {set}");
        sets.push(o.workloads.iter().map(|&w| end_to_end(o, w)).collect());
    }
    println!("== A/A: relative difference of set B from set A, beside the bound");
    let mut ok = true;
    for (i, &w) in o.workloads.iter().enumerate() {
        let (a, b) = (&sets[0][i], &sets[1][i]);
        ok &= a.ok & b.ok;
        let unsteady = a.run.host_spread().max(b.run.host_spread());
        for (def, (va, vb)) in END_TO_END.iter().zip(a.values.iter().zip(&b.values)) {
            let diff = relative_difference(va.value, vb.value);
            let verdict = verdict(def, w, diff, unsteady);
            ok &= matches!(verdict, "exact" | "within");
            println!(
                "  {:<17} {:<28} {:>14.4} {:>14.4}  diff {:>8.4} %  bound {:>5.1} %  {verdict}",
                w.name(),
                def.name,
                va.value,
                vb.value,
                diff * 100.0,
                def.bound.unwrap_or(0.0) * 100.0,
            );
        }
    }
    ok
}

/// `unsteady` is the widest spread among either run's own windows and
/// set-ups: a host-time difference beyond the bound is then the host's
/// doing as likely as the code's, and is named unresolved (it still fails).
fn verdict(def: &MetricDef, w: Workload, diff: f64, unsteady: f64) -> &'static str {
    let bound = def.bound.unwrap_or(0.0);
    if def.exact && w.is_sim() {
        // Counted under one seed on a deterministic simulator.
        if diff == 0.0 {
            "exact"
        } else {
            "EXCEEDS"
        }
    } else if diff <= bound {
        "within"
    } else if report::host_timed(def) && unsteady > bound {
        "UNRESOLVED"
    } else {
        "EXCEEDS"
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprint!("{USAGE}");
        return ExitCode::from(2);
    };
    let mut options = match parse(rest) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ok = match command.as_str() {
        "run" => cmd_run(&options),
        "trace" => {
            (options.end_to_end, options.per_layer) = (false, true);
            cmd_run(&options)
        }
        "aa" => cmd_aa(&options),
        "ledger" => {
            run_ledger(options.seed);
            true
        }
        "manifest" => {
            print!("{}", report::manifest());
            true
        }
        _ => {
            eprintln!("error: unknown command {command}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
