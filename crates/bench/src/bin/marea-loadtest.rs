//! `marea-loadtest` — rate-controlled workload generator over the sim
//! harness, with the metrics timeline sampling underneath.
//!
//! ```text
//! marea-loadtest list
//! marea-loadtest <workload|all> [--pairs N] [--rate HZ] [--payload BYTES]
//!     [--warmup-ms N] [--window-ms N] [--windows N] [--sample-period-ms N]
//!     [--seed N] [--json PATH] [--out-dir DIR]
//! ```
//!
//! Without flags a workload runs at its checked-in baseline
//! parameters, so `marea-loadtest all --out-dir .` regenerates every
//! `BENCH_loadtest_<workload>.json` byte for byte (CI diffs them).
//! Two runs with the same parameters are compared with `diff`; host
//! time is `benchmark/`'s to measure.

use std::process::ExitCode;

use marea_bench::loadtest::{report_json, run_loadtest, LoadtestConfig, LoadtestReport, Workload};

fn usage() -> ExitCode {
    eprintln!(
        "usage: marea-loadtest list\n       marea-loadtest <workload|all> [--pairs N] [--rate HZ] \
         [--payload BYTES]\n           [--warmup-ms N] [--window-ms N] [--windows N] \
         [--sample-period-ms N]\n           [--seed N] [--json PATH] [--out-dir DIR]\n\
         workloads: {}",
        Workload::ALL.map(Workload::name).join(" ")
    );
    ExitCode::from(2)
}

fn parse_u64(flag: &str, value: Option<String>) -> Result<u64, String> {
    let v = value.ok_or_else(|| format!("{flag} needs a value"))?;
    v.parse().map_err(|_| format!("{flag}: `{v}` is not a number"))
}

fn print_text(report: &LoadtestReport) {
    let c = &report.config;
    println!(
        "workload {}: pairs={} rate={}Hz payload={}B warmup={}ms window={}ms seed={}",
        c.workload.name(),
        c.pairs,
        c.rate_hz,
        c.payload_bytes,
        c.warmup_ms,
        c.window_ms,
        c.seed
    );
    println!(
        "  {:<8} {:>9} {:>10} {:>9} {:>12} {:>7} {:>8} {:>8} {:>8}",
        "window",
        "offered",
        "delivered",
        "rate_hz",
        "goodput_bps",
        "count",
        "p50_us",
        "p99_us",
        "p999_us"
    );
    let cell = |v: Option<u64>| v.map(|x| x.to_string()).unwrap_or_else(|| "-".into());
    let row = |label: String, w: &marea_bench::loadtest::WindowReport| {
        println!(
            "  {:<8} {:>9} {:>10} {:>9} {:>12} {:>7} {:>8} {:>8} {:>8}",
            label,
            w.offered,
            w.delivered,
            w.achieved_hz,
            w.goodput_bps,
            w.latency.count,
            cell(w.latency.p50_us),
            cell(w.latency.p99_us),
            cell(w.latency.p999_us)
        );
    };
    for w in &report.windows {
        row(w.index.to_string(), w);
    }
    row("overall".into(), &report.overall);
    println!(
        "  metrics: {} samples, {} node frames, {} link frames",
        report.metrics_samples, report.metrics_frames, report.metrics_links
    );
}

fn run(
    workloads: &[Workload],
    overrides: &[(String, u64)],
    json: Option<&str>,
    out_dir: Option<&str>,
) -> Result<(), String> {
    if json.is_some() && workloads.len() != 1 {
        return Err("--json takes a single workload; use --out-dir with `all`".into());
    }
    for &workload in workloads {
        let mut cfg = LoadtestConfig::baseline(workload);
        for (flag, v) in overrides {
            match flag.as_str() {
                "--pairs" => cfg.pairs = *v as u32,
                "--rate" => cfg.rate_hz = *v,
                "--payload" => cfg.payload_bytes = *v as usize,
                "--warmup-ms" => cfg.warmup_ms = *v,
                "--window-ms" => cfg.window_ms = *v,
                "--windows" => cfg.windows = *v as u32,
                "--sample-period-ms" => cfg.sample_period_ms = *v,
                "--seed" => cfg.seed = *v,
                other => return Err(format!("unknown flag {other}")),
            }
        }
        if cfg.windows == 0 || cfg.window_ms == 0 {
            return Err("--windows and --window-ms must be positive".into());
        }
        let report = run_loadtest(&cfg);
        if let Some(dir) = out_dir {
            let path = format!("{dir}/BENCH_loadtest_{}.json", workload.name());
            std::fs::write(&path, report_json(&report)).map_err(|e| format!("{path}: {e}"))?;
            println!("wrote {path}");
        } else if let Some(path) = json {
            std::fs::write(path, report_json(&report)).map_err(|e| format!("{path}: {e}"))?;
            println!("wrote {path}");
        } else {
            print_text(&report);
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return usage();
    };
    let result = match cmd.as_str() {
        "list" => {
            for w in Workload::ALL {
                let b = LoadtestConfig::baseline(w);
                println!(
                    "{:<16} pairs={} rate={}Hz payload={}B",
                    w.name(),
                    b.pairs,
                    b.rate_hz,
                    b.payload_bytes
                );
            }
            Ok(())
        }
        name => {
            let workloads: Vec<Workload> = if name == "all" {
                Workload::ALL.to_vec()
            } else if let Some(w) = Workload::parse(name) {
                vec![w]
            } else {
                eprintln!("unknown workload `{name}`");
                return usage();
            };
            let mut overrides = Vec::new();
            let mut json = None;
            let mut out_dir = None;
            let mut it = args[1..].iter().cloned();
            let mut bad = None;
            while let Some(arg) = it.next() {
                match arg.as_str() {
                    "--json" => json = it.next(),
                    "--out-dir" => out_dir = it.next(),
                    flag if flag.starts_with("--") => match parse_u64(flag, it.next()) {
                        Ok(v) => overrides.push((flag.to_string(), v)),
                        Err(e) => bad = Some(e),
                    },
                    other => bad = Some(format!("unexpected argument `{other}`")),
                }
            }
            match bad {
                Some(e) => Err(e),
                None => run(&workloads, &overrides, json.as_deref(), out_dir.as_deref()),
            }
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("marea-loadtest: {e}");
            ExitCode::FAILURE
        }
    }
}
